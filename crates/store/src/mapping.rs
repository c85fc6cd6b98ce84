//! Read-only byte mappings backing the zero-copy container tier.
//!
//! A [`Mapping`] is a stable, immutable, 8-byte-aligned byte region that
//! a [`crate::StoreFile`] can serve sections from without copying. Two
//! implementations share one code path upstream:
//!
//! * [`MmapRegion`] — a private read-only `mmap(2)` of the file,
//!   declared via `extern "C"` (no new crates, consistent with the
//!   offline-shim policy). Open cost is O(page-table setup); bytes are
//!   faulted in from the page cache on first touch, and N processes
//!   mapping the same artifact share one physical copy.
//! * [`ArenaMapping`] — the portable fallback: the file is read into a
//!   `u64`-backed arena, so the base address is 8-byte aligned exactly
//!   like a page-aligned mapping and every alignment guarantee the flat
//!   sections rely on holds on non-mmap platforms. It is also the
//!   backing of [`crate::StoreFile::from_bytes`], which copies bytes
//!   already in memory into one.
//!
//! Both are `Send + Sync`: the region is immutable for its entire life.
//!
//! **A file truncated under a live mapping.** `MAP_PRIVATE` does not
//! protect a mapping from its file shrinking: a read of a page past the
//! new end raises `SIGBUS`. Every writer in this workspace replaces an
//! artifact by rename ([`crate::atomic_write_file`]), never by writing
//! into it in place, so a live mapping keeps the old inode and its bytes
//! stay valid until it is dropped. A process outside the workspace that
//! truncates a mapped artifact in place is outside that contract; where
//! that cannot be ruled out, read the file and open its bytes with
//! [`crate::StoreFile::from_bytes`], whose arena owns a copy.

use std::fmt;
use std::path::Path;

/// A stable read-only byte region. The two guarantees every implementor
/// must uphold: the base address is at least 8-byte aligned, and the
/// bytes never move or change while the mapping is alive (heap- or
/// page-table-backed, never a stack buffer).
pub trait Mapping: Send + Sync + fmt::Debug {
    /// The mapped bytes.
    fn bytes(&self) -> &[u8];
}

// ---------------------------------------------------------------------
// mmap(2) binding (unix, 64-bit)
// ---------------------------------------------------------------------

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// A private read-only `mmap` of one file. Unmapped on drop.
#[cfg(all(unix, target_pointer_width = "64"))]
pub struct MmapRegion {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl MmapRegion {
    /// Maps `file` read-only. Returns `None` when the kernel refuses
    /// (e.g. a filesystem without mmap support) so the caller can fall
    /// back to the arena path; zero-length files are also `None` because
    /// `mmap` rejects empty ranges.
    fn map(file: &std::fs::File, len: usize) -> Option<MmapRegion> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file descriptor
        // we own; the kernel validates every argument and returns
        // MAP_FAILED instead of faulting.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return None;
        }
        Some(MmapRegion { ptr, len })
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Mapping for MmapRegion {
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, page-aligned (so 8-byte aligned), valid until drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region this struct owns, once; every
        // slice `bytes` lent borrows `self`, so none outlives the unmap.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MmapRegion({} bytes)", self.len)
    }
}

// SAFETY: the raw pointer is the only non-`Send` field, and the region
// it names is owned by this struct alone; unmapping it from another
// thread is as valid as from the mapping one, and drop runs once.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MmapRegion {}
// SAFETY: the region is immutable (PROT_READ, private) for its entire
// lifetime and `&self` only ever reads it, so shared reads from any
// thread cannot race.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MmapRegion {}

// ---------------------------------------------------------------------
// Aligned-arena fallback (every platform)
// ---------------------------------------------------------------------

/// The read-into-aligned-arena fallback: file bytes in a `u64`-backed
/// buffer, so the base address carries the same 8-byte alignment a page
/// mapping would.
pub struct ArenaMapping {
    arena: Vec<u64>,
    len: usize,
}

impl ArenaMapping {
    /// Reads `path` entirely into a fresh arena.
    pub fn read_from(path: &Path) -> std::io::Result<ArenaMapping> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file exceeds address space",
            )
        })?;
        let mut arena = vec![0u64; len.div_ceil(8)];
        // SAFETY: a u64 slice viewed as initialized bytes; the arena holds
        // `len.div_ceil(8) * 8 >= len` bytes, and the exclusive borrow of
        // `arena` ends before `arena` is next used.
        let dst = unsafe { std::slice::from_raw_parts_mut(arena.as_mut_ptr() as *mut u8, len) };
        file.read_exact(dst)?;
        Ok(ArenaMapping { arena, len })
    }

    /// Wraps already-loaded bytes (copying them into the arena): the
    /// backing of [`crate::StoreFile::from_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> ArenaMapping {
        let mut arena = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: a u64 slice viewed as initialized bytes; the arena holds
        // `bytes.len().div_ceil(8) * 8 >= bytes.len()` bytes.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(arena.as_mut_ptr() as *mut u8, bytes.len()) };
        dst.copy_from_slice(bytes);
        ArenaMapping {
            arena,
            len: bytes.len(),
        }
    }
}

impl Mapping for ArenaMapping {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the arena holds at least `len` initialized bytes and
        // u64 storage is always validly readable as bytes.
        unsafe { std::slice::from_raw_parts(self.arena.as_ptr() as *const u8, self.len) }
    }
}

impl fmt::Debug for ArenaMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaMapping({} bytes)", self.len)
    }
}

/// Maps `path` read-only: `mmap` where available, the aligned arena
/// everywhere else (and whenever the kernel refuses the mapping), so
/// callers see one code path either way.
pub fn map_file(path: &Path) -> std::io::Result<Box<dyn Mapping>> {
    #[cfg(all(unix, target_pointer_width = "64"))]
    {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if let Ok(len) = usize::try_from(len) {
            if let Some(region) = MmapRegion::map(&file, len) {
                return Ok(Box::new(region));
            }
        }
    }
    Ok(Box::new(ArenaMapping::read_from(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("press-map-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn arena_matches_file_and_is_aligned() {
        for len in [0usize, 1, 7, 8, 9, 4096, 4097] {
            let contents: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let path = temp_file(&format!("arena-{len}"), &contents);
            let arena = ArenaMapping::read_from(&path).unwrap();
            assert_eq!(arena.bytes(), &contents[..]);
            assert_eq!(arena.bytes().as_ptr() as usize % 8, 0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn map_file_agrees_with_arena() {
        let contents: Vec<u8> = (0..10_000).map(|i| (i % 255) as u8).collect();
        let path = temp_file("mmap", &contents);
        let mapped = map_file(&path).unwrap();
        assert_eq!(mapped.bytes(), &contents[..]);
        assert_eq!(mapped.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
