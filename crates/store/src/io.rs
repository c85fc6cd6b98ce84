//! Injectable storage I/O: one narrow trait over the write-side
//! filesystem operations the PRESS persistence paths perform, with a
//! real implementation and a deterministic fault injector.
//!
//! Every byte PRESS makes durable flows through an [`IoBackend`]:
//! journal appends and fsyncs, checkpoint artifact writes, directory
//! fsyncs, manifest renames, and torn-tail truncation. Garbage
//! collection of superseded generations does not: it removes files
//! through `std::fs` directly, and a removal that fails changes no
//! state recovery reads. The production backend ([`RealIo`])
//! delegates straight to `std::fs`;
//! the test backend ([`FaultyIo`]) wraps it and injects `ENOSPC`,
//! `EIO`, short writes, and fsync failures at chosen **operation
//! indices** — the disk-side analogue of the kill-at-any-byte-offset
//! harness, and just as deterministic: the same fault plan over the
//! same workload always fails the same operation.
//!
//! Read-side operations are deliberately absent: corrupted or
//! truncated *reads* are already covered by the typed decode errors
//! ([`crate::StoreError`], the WAL's corruption taxonomy); what the
//! fault layer adds is the write-side failure modes that decide
//! whether an acknowledgement was a lie.
//!
//! # Error classification
//!
//! Callers that retry distinguish two classes with
//! [`is_storage_full`]: out-of-space (`ENOSPC`) is **persistent** —
//! retrying cannot free the disk, so the write is refused upward as a
//! typed storage-full error until space returns — while every other
//! I/O failure is treated as **transient** and worth a bounded
//! retry-with-backoff before surfacing as backpressure.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The write-side filesystem operations PRESS durability depends on.
///
/// Object-safe so engines can hold an `Arc<dyn IoBackend>` and tests
/// can swap in [`FaultyIo`]. Every method maps 1:1 to the `std::fs`
/// call of the same shape; implementations may fail any call.
pub trait IoBackend: Send + Sync + fmt::Debug {
    /// Creates (truncating) a file for writing; the handle is also
    /// readable.
    fn create(&self, path: &Path) -> io::Result<File>;
    /// Opens an existing file read-write.
    fn open_rw(&self, path: &Path) -> io::Result<File>;
    /// Writes the whole buffer. A failure may leave a *prefix* of the
    /// buffer in the file (short write) — callers owning framed
    /// formats must repair before writing again.
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()>;
    /// Flushes file data to stable storage (`fdatasync`).
    fn sync_data(&self, file: &File) -> io::Result<()>;
    /// Fsyncs a directory so renames/creations inside it are durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates (or extends) an open file to `len` bytes.
    fn set_len(&self, file: &File, len: u64) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production backend: every call delegates to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl IoBackend for RealIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<File> {
        File::options().read(true).write(true).open(path)
    }
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        file.write_all(buf)
    }
    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// A shared handle to the real backend.
pub fn real_io() -> Arc<dyn IoBackend> {
    Arc::new(RealIo)
}

/// `ENOSPC` — the out-of-space errno the fault injector raises and
/// [`is_storage_full`] recognizes.
pub const ENOSPC: i32 = 28;
/// `EIO` — the generic device-error errno the fault injector raises.
pub const EIO: i32 = 5;

/// True when an I/O error means the device is out of space — the one
/// failure class retrying cannot fix (only freeing space can).
pub fn is_storage_full(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC) || e.kind() == io::ErrorKind::StorageFull
}

/// Which failure a [`DiskFault`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with `ENOSPC`; nothing is written.
    Enospc,
    /// The operation fails with `EIO`; nothing is written.
    Eio,
    /// A `write_all` writes only the first half of the buffer before
    /// failing with `ENOSPC` — the torn-frame case. On non-write
    /// operations this degrades to a plain `ENOSPC` failure.
    ShortWrite,
    /// The next `sync_data`/`sync_dir` at or after the index fails
    /// with `EIO`; operations of other types pass through unfaulted
    /// (the fault stays armed until a sync arrives).
    SyncFail,
}

impl FaultKind {
    /// All kinds, for building fault matrices.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Enospc,
        FaultKind::Eio,
        FaultKind::ShortWrite,
        FaultKind::SyncFail,
    ];
}

/// One armed fault: fire `kind` at (or from) operation index `at_op`.
///
/// A **one-shot** fault (`sticky: false`) fires on exactly one
/// operation and disarms — the transient-failure model a retry should
/// survive. A **sticky** fault fires on every eligible operation from
/// `at_op` until [`FaultyIo::clear`] — the persistent model (a full
/// disk stays full until space is freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// Zero-based index into the backend's operation sequence.
    pub at_op: u64,
    /// The failure to inject.
    pub kind: FaultKind,
    /// Keep failing every eligible operation until cleared.
    pub sticky: bool,
}

/// A path-scoped fault: `fault` fires by the operation index counted
/// **only over operations whose path contains `needle`** — the tool
/// for failing one ingest shard's files while its siblings on the same
/// backend stay healthy.
#[derive(Debug)]
struct ScopedFault {
    needle: String,
    fault: DiskFault,
    /// Matching operations observed so far (the scope-local op index).
    seen: u64,
}

/// A deterministic fault-injecting [`IoBackend`].
///
/// Wraps [`RealIo`] and counts every operation; armed [`DiskFault`]s
/// fire by operation index. Because engines drive a deterministic
/// operation sequence from a given input stream, a fault plan is as
/// reproducible as a WAL kill offset.
///
/// Faults come in two scopes: **global** ([`FaultyIo::arm`]) indexed
/// over every operation on the backend, and **path-scoped**
/// ([`FaultyIo::arm_scoped`]) indexed only over operations touching
/// paths that contain a needle substring (e.g. `".s2."` to fault one
/// ingest shard's WAL and corpus files). File-handle operations
/// (`write_all`, `sync_data`, `set_len`) resolve their path through a
/// registry populated by `create`/`open_rw`, so scoped faults follow a
/// file after it is opened.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    ops: AtomicU64,
    injected: AtomicU64,
    faults: Mutex<Vec<DiskFault>>,
    scoped: Mutex<Vec<ScopedFault>>,
    /// Operations observed per path, for [`FaultyIo::ops_on`].
    path_ops: Mutex<HashMap<PathBuf, u64>>,
    #[cfg(unix)]
    fd_paths: Mutex<HashMap<i32, PathBuf>>,
    #[cfg(not(unix))]
    fd_paths: Mutex<HashMap<u64, PathBuf>>,
}

/// Is this operation a sync (`sync_data`/`sync_dir`)?
#[derive(Clone, Copy, PartialEq)]
enum OpClass {
    Write,
    Sync,
    Other,
}

impl FaultyIo {
    /// A backend armed with `faults`.
    pub fn new(faults: Vec<DiskFault>) -> Arc<FaultyIo> {
        Arc::new(FaultyIo {
            inner: RealIo,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            faults: Mutex::new(faults),
            scoped: Mutex::new(Vec::new()),
            path_ops: Mutex::new(HashMap::new()),
            fd_paths: Mutex::new(HashMap::new()),
        })
    }

    /// Arms one more fault.
    pub fn arm(&self, fault: DiskFault) {
        self.faults.lock().expect("fault lock").push(fault);
    }

    /// Arms a fault that only fires on operations whose path contains
    /// `needle`, with `at_op` counted over those matching operations
    /// only. Use a shard-file infix like `".s2."` to degrade exactly
    /// one ingest shard while siblings on the same backend stay clean.
    pub fn arm_scoped(&self, needle: &str, fault: DiskFault) {
        self.scoped.lock().expect("fault lock").push(ScopedFault {
            needle: needle.to_string(),
            fault,
            seen: 0,
        });
    }

    /// Disarms every remaining fault, global and scoped — the "space
    /// was freed / the cable was reseated" transition.
    pub fn clear(&self) {
        self.faults.lock().expect("fault lock").clear();
        self.scoped.lock().expect("fault lock").clear();
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Operations observed so far on paths containing `needle` — the
    /// index space a fault armed with [`FaultyIo::arm_scoped`] on that
    /// needle counts in, so a fault-free probe run tells a test which
    /// scoped indices its stream reaches.
    pub fn ops_on(&self, needle: &str) -> u64 {
        let path_ops = self.path_ops.lock().expect("fault lock");
        path_ops
            .iter()
            .filter(|(path, _)| path.to_string_lossy().contains(needle))
            .map(|(_, n)| n)
            .sum()
    }

    /// Remembers which path a handle was opened on so later
    /// handle-only operations can resolve it for scoped faults.
    fn register(&self, file: &File, path: &Path) {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.fd_paths
                .lock()
                .expect("fault lock")
                .insert(file.as_raw_fd(), path.to_path_buf());
        }
        #[cfg(not(unix))]
        let _ = (file, path);
    }

    /// The path a handle was opened on, if `create`/`open_rw` saw it.
    fn path_of(&self, file: &File) -> Option<PathBuf> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            return self
                .fd_paths
                .lock()
                .expect("fault lock")
                .get(&file.as_raw_fd())
                .cloned();
        }
        #[cfg(not(unix))]
        {
            let _ = file;
            None
        }
    }

    /// Does `fault` fire on the `op`-th operation of class `class`
    /// within its scope?
    fn fires(fault: &DiskFault, class: OpClass, op: u64) -> bool {
        if fault.kind == FaultKind::SyncFail {
            // Armed at its index, but only a sync trips it.
            class == OpClass::Sync && op >= fault.at_op
        } else if fault.sticky {
            op >= fault.at_op
        } else {
            op == fault.at_op
        }
    }

    /// Advances the op counters (global always; scoped only for
    /// matching paths) and returns the fault to inject on this
    /// operation, if any.
    fn check(&self, class: OpClass, path: Option<&Path>) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut hit = None;
        {
            let mut faults = self.faults.lock().expect("fault lock");
            if let Some(idx) = faults.iter().position(|f| Self::fires(f, class, op)) {
                let fault = faults[idx];
                if !fault.sticky {
                    faults.remove(idx);
                }
                hit = Some(fault.kind);
            }
        }
        if let Some(path) = path {
            *self
                .path_ops
                .lock()
                .expect("fault lock")
                .entry(path.to_path_buf())
                .or_insert(0) += 1;
            let p = path.to_string_lossy().into_owned();
            let mut scoped = self.scoped.lock().expect("fault lock");
            let mut fired_one_shot = None;
            for (i, sf) in scoped.iter_mut().enumerate() {
                if !p.contains(&sf.needle) {
                    continue;
                }
                let sop = sf.seen;
                sf.seen += 1; // scope-local index advances even when another fault wins
                if hit.is_none() && fired_one_shot.is_none() && Self::fires(&sf.fault, class, sop) {
                    hit = Some(sf.fault.kind);
                    if !sf.fault.sticky {
                        fired_one_shot = Some(i);
                    }
                }
            }
            if let Some(i) = fired_one_shot {
                scoped.remove(i);
            }
        }
        if hit.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn fail(kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Enospc | FaultKind::ShortWrite => io::Error::from_raw_os_error(ENOSPC),
            FaultKind::Eio | FaultKind::SyncFail => io::Error::from_raw_os_error(EIO),
        }
    }
}

impl IoBackend for FaultyIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        match self.check(OpClass::Other, Some(path)) {
            Some(kind) => Err(Self::fail(kind)),
            None => {
                let f = self.inner.create(path)?;
                self.register(&f, path);
                Ok(f)
            }
        }
    }
    fn open_rw(&self, path: &Path) -> io::Result<File> {
        match self.check(OpClass::Other, Some(path)) {
            Some(kind) => Err(Self::fail(kind)),
            None => {
                let f = self.inner.open_rw(path)?;
                self.register(&f, path);
                Ok(f)
            }
        }
    }
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        let path = self.path_of(file);
        match self.check(OpClass::Write, path.as_deref()) {
            Some(FaultKind::ShortWrite) => {
                // The nasty case: a prefix of the buffer reaches the
                // file, then the device fills up.
                let half = buf.len() / 2;
                self.inner.write_all(file, &buf[..half])?;
                Err(Self::fail(FaultKind::ShortWrite))
            }
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.write_all(file, buf),
        }
    }
    fn sync_data(&self, file: &File) -> io::Result<()> {
        let path = self.path_of(file);
        match self.check(OpClass::Sync, path.as_deref()) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.sync_data(file),
        }
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.check(OpClass::Sync, Some(dir)) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.sync_dir(dir),
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.check(OpClass::Other, Some(from)) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.rename(from, to),
        }
    }
    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        let path = self.path_of(file);
        match self.check(OpClass::Other, path.as_deref()) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.set_len(file, len),
        }
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.check(OpClass::Other, Some(path)) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.remove_file(path),
        }
    }
}

/// Fsyncs `path`'s parent directory (if it has a non-empty one) so the
/// file's creation or rename survives power loss, not just process
/// death.
pub fn sync_parent_dir(io: &dyn IoBackend, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            io.sync_dir(parent)?;
        }
    }
    Ok(())
}

/// The sibling temp-file name `atomic_write_file` stages through:
/// `<file>.tmp` next to the target.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Creates (truncating) `path`, writes `bytes` and `sync_data`s them;
/// returns the handle, positioned at the end. The data is durable, the
/// name is not: the caller fsyncs the parent directory, or renames.
pub fn write_synced(io: &dyn IoBackend, path: &Path, bytes: &[u8]) -> io::Result<File> {
    let mut f = io.create(path)?;
    io.write_all(&mut f, bytes)?;
    io.sync_data(&f)?;
    Ok(f)
}

/// Atomically replaces `path` with `bytes`: write a sibling temp file,
/// fsync it, rename over the target, fsync the parent directory. A
/// crash or failure at any step leaves either the complete old file or
/// the complete new one — never a torn artifact — and every failure
/// (including the fsyncs) is surfaced, never ignored. A failed stage
/// removes the temp file best-effort; a leftover `*.tmp` is inert.
pub fn atomic_write_file(io: &dyn IoBackend, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    if let Err(e) = write_synced(io, &tmp, bytes) {
        let _ = io.remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(io, path)
}

/// Repositions a file handle (not an [`IoBackend`] method: seeking is
/// an in-memory cursor move, not a device operation worth faulting).
pub fn seek_to(file: &mut File, offset: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset)).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("press-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn real_io_roundtrips_and_atomic_write_replaces() {
        let dir = tmp_dir("real");
        let io = RealIo;
        let path = dir.join("a.bin");
        atomic_write_file(&io, &path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        atomic_write_file(&io, &path, b"second").expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(!tmp_sibling(&path).exists(), "temp staged file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shot_fault_fires_exactly_once_at_its_index() {
        let dir = tmp_dir("oneshot");
        let io = FaultyIo::new(vec![DiskFault {
            at_op: 1,
            kind: FaultKind::Eio,
            sticky: false,
        }]);
        let path = dir.join("f.bin");
        let mut f = io.create(&path).expect("op 0 clean");
        let err = io.write_all(&mut f, b"x").expect_err("op 1 faulted");
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert!(!is_storage_full(&err));
        io.write_all(&mut f, b"x").expect("op 2 clean — disarmed");
        assert_eq!(io.injected(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sticky_enospc_persists_until_cleared() {
        let dir = tmp_dir("sticky");
        let io = FaultyIo::new(Vec::new());
        let path = dir.join("f.bin");
        let mut f = io.create(&path).expect("create");
        io.arm(DiskFault {
            at_op: 0,
            kind: FaultKind::Enospc,
            sticky: true,
        });
        for _ in 0..3 {
            let err = io.write_all(&mut f, b"x").expect_err("disk full");
            assert!(is_storage_full(&err));
        }
        io.clear();
        io.write_all(&mut f, b"x").expect("space freed");
        assert_eq!(io.injected(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_leaves_a_prefix_then_fails_storage_full() {
        let dir = tmp_dir("short");
        let io = FaultyIo::new(vec![DiskFault {
            at_op: 1,
            kind: FaultKind::ShortWrite,
            sticky: false,
        }]);
        let path = dir.join("f.bin");
        let mut f = io.create(&path).expect("create");
        let err = io.write_all(&mut f, b"0123456789").expect_err("short");
        assert!(is_storage_full(&err));
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"01234",
            "exactly half the buffer landed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_fail_waits_for_a_sync_and_skips_other_ops() {
        let dir = tmp_dir("syncfail");
        let io = FaultyIo::new(vec![DiskFault {
            at_op: 0,
            kind: FaultKind::SyncFail,
            sticky: false,
        }]);
        let path = dir.join("f.bin");
        // Non-sync ops sail past the armed fault.
        let mut f = io.create(&path).expect("create");
        io.write_all(&mut f, b"data").expect("write");
        // The first sync trips it; the next one is clean (one-shot).
        assert!(io.sync_data(&f).is_err());
        io.sync_data(&f).expect("disarmed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoped_fault_only_hits_matching_paths_and_counts_locally() {
        let dir = tmp_dir("scoped");
        let io = FaultyIo::new(Vec::new());
        // Sticky ENOSPC on anything touching ".s1." from its first
        // matching op; ".s0." files never see it.
        io.arm_scoped(
            ".s1.",
            DiskFault {
                at_op: 1,
                kind: FaultKind::Enospc,
                sticky: true,
            },
        );
        let healthy = dir.join("ingest.0.s0.wal");
        let faulted = dir.join("ingest.0.s1.wal");
        let mut h = io.create(&healthy).expect("healthy create");
        // Matching op 0 (create) passes — the fault is armed at op 1
        // of the *scope*, not of the backend.
        let mut f = io.create(&faulted).expect("scoped op 0 clean");
        io.write_all(&mut h, b"ok").expect("healthy write");
        let err = io
            .write_all(&mut f, b"no")
            .expect_err("scoped op 1 faulted");
        assert!(is_storage_full(&err));
        // Handle-only ops resolve their path through the registry, so
        // the sticky fault follows the open file...
        assert!(io.sync_data(&f).is_err(), "sticky via fd registry");
        // ...while the healthy sibling keeps writing and syncing.
        io.write_all(&mut h, b"ok").expect("healthy write");
        io.sync_data(&h).expect("healthy sync");
        io.clear();
        io.write_all(&mut f, b"yes").expect("cleared");
        assert_eq!(io.injected(), 2);
        assert_eq!(io.ops_on(".s1."), 4, "create, write, sync, write");
        assert_eq!(io.ops_on(".s0."), 4, "create, write, write, sync");
        assert_eq!(io.ops_on(".wal"), io.ops());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_failure_leaves_the_old_file_intact() {
        let dir = tmp_dir("atomic-fault");
        let path = dir.join("a.bin");
        atomic_write_file(&RealIo, &path, b"old").expect("seed");
        // Fault each stage of the atomic write in turn: create(0),
        // write(1), sync(2), rename(3).
        for at_op in 0..4 {
            let io = FaultyIo::new(vec![DiskFault {
                at_op,
                kind: FaultKind::Enospc,
                sticky: false,
            }]);
            // SyncFail-free plan: op 2 is sync_data, Enospc fails it too.
            let err = atomic_write_file(io.as_ref(), &path, b"new").expect_err("stage faulted");
            assert!(is_storage_full(&err), "stage {at_op}");
            assert_eq!(
                std::fs::read(&path).expect("read"),
                b"old",
                "stage {at_op}: target untouched"
            );
        }
        atomic_write_file(&RealIo, &path, b"new").expect("clean retry");
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
