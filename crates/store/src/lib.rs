//! # press-store
//!
//! The on-disk artifact tier of PRESS: **one** versioned, checksummed,
//! little-endian binary container format shared by every artifact the
//! pipeline produces — road networks, dense SP tables, contraction
//! hierarchies, hub labels, trained HSC models, and block-oriented
//! compressed-trajectory stores.
//!
//! # File layout
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "PRSSTORE" · format version u32 ·     │
//! │                artifact kind u32 · section count u32 ·     │
//! │                CRC32 of the section table u32              │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: one 40 B entry per section —                │
//! │   name (16 B, NUL-padded UTF-8) · offset u64 · len u64 ·   │
//! │   CRC32 of the payload u32 · reserved u32                  │
//! ├────────────────────────────────────────────────────────────┤
//! │ section payloads, back to back                             │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian; `f64` values are stored as their IEEE
//! bit patterns (`to_bits`), so floating-point round-trips are exact and
//! loaded structures answer **bit-identically** to freshly built ones.
//!
//! # Integrity and versioning
//!
//! Every access is validated: a wrong magic is [`StoreError::BadMagic`],
//! an unknown format version is [`StoreError::UnsupportedVersion`], a
//! short file is [`StoreError::Truncated`], a payload whose CRC32 does
//! not match its table entry is [`StoreError::ChecksumMismatch`] — typed
//! errors in all cases, never a panic. The format version covers the
//! container layout; each artifact additionally carries its own schema
//! inside its sections and validates semantic invariants on load.
//!
//! Versioning policy: readers accept exactly [`FORMAT_VERSION`]. Layout
//! changes bump the version; additive changes (new sections) do not,
//! because unknown sections are simply ignored by older readers.
//!
//! # Access model
//!
//! A [`StoreWriter`] buffers named sections and emits the file in one
//! `write`; [`StoreWriter::section_aligned`] starts a section on an
//! 8-byte boundary (zero gap bytes pad the previous payload — invisible
//! to readers, which address sections only through the table). A
//! [`StoreFile`] has one backing, a [`Mapping`]: a file is opened with
//! [`StoreFile::open_mapped`] (`mmap`, or the aligned arena where the
//! kernel refuses, via [`mapping`]; open cost O(header + table)), and
//! bytes already in memory are copied into that same arena by
//! [`StoreFile::from_bytes`]. A section's payload CRC is checked
//! **once**, on its first touch, and the verdict cached — the bytes
//! behind a file never change — so every access is validated before
//! bytes are handed out, and [`StoreFile::flat_section`] lends
//! fixed-width sections as typed [`FlatSlice`]s — zero-copy borrows of
//! the backing when alignment permits, decoded copies otherwise.
//! [`ByteWriter`]/[`ByteReader`] provide the bounds- and
//! endianness-checked primitive encoding used inside sections.
//!
//! ```
//! use press_store::{kind, ByteWriter, StoreFile, StoreWriter};
//!
//! // Write a two-section artifact ...
//! let mut meta = ByteWriter::new();
//! meta.put_u64(3);
//! meta.put_f64(2.5);
//! let mut w = StoreWriter::new(kind::META);
//! w.section("meta", meta.into_bytes());
//! w.section("payload", vec![1, 2, 3]);
//!
//! // ... and read it back, every access CRC-checked and typed.
//! let f = StoreFile::from_bytes(w.to_bytes()).unwrap();
//! f.expect_kind(kind::META).unwrap();
//! let mut r = f.reader("meta").unwrap();
//! assert_eq!(r.get_u64().unwrap(), 3);
//! assert_eq!(r.get_f64().unwrap(), 2.5);
//! assert_eq!(f.section("payload").unwrap(), &[1, 2, 3]);
//! ```
//!
//! The [`index`] module holds [`SynopsisIndex`], the packed
//! block-skipping hierarchy the trajectory store rebuilds over its
//! block directory at every open; see it for the shape and the
//! correctness contract.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

mod crc32;
pub mod index;
pub mod io;
pub mod mapping;

pub use crc32::crc32;
pub use index::{IndexEntry, SynopsisIndex, DEFAULT_BRANCHING};
pub use io::{
    atomic_write_file, is_storage_full, real_io, DiskFault, FaultKind, FaultyIo, IoBackend, RealIo,
};
pub use mapping::{map_file, ArenaMapping, Mapping};

/// File magic, first 8 bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"PRSSTORE";

/// Container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry (name 16 + offset 8 + len 8 + crc 4 +
/// reserved 4).
const DIR_ENTRY_BYTES: usize = 40;

/// Header bytes before the section table.
const HEADER_BYTES: usize = 24;

/// Maximum bytes of a section name (NUL-padded in the table).
pub const MAX_SECTION_NAME: usize = 16;

/// Artifact kind ids, stored in the header so a reader can refuse to
/// interpret (say) a trajectory store as a hub labeling.
pub mod kind {
    /// A [`RoadNetwork`](../../press_network/graph/struct.RoadNetwork.html).
    pub const NETWORK: u32 = 1;
    // Ids 2, 3 and 4 are retired and must never be reissued: 2 named the
    // dense all-pair table's `sp_dense.press` (the table is now built in
    // memory only), 3 a deleted per-source tree-cache artifact, 4 the
    // deleted contraction-hierarchy query backend's `sp_ch.press`. Files
    // written with any of them must stay a typed kind mismatch, never a
    // misread.
    /// A trained HSC model (trie + Huffman + per-node tables).
    pub const HSC_MODEL: u32 = 5;
    /// A block-oriented compressed-trajectory store.
    pub const TRAJECTORY_STORE: u32 = 6;
    /// Free-form store-directory metadata (build timings etc.).
    pub const META: u32 = 7;
    /// A 2-hop hub labeling built from a contraction order.
    pub const HUB_LABELS: u32 = 8;
}

/// Errors raised by the artifact tier. Every corruption mode maps to a
/// typed variant; loading never panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error, with the underlying message.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The artifact kind in the header is not the one the caller expects.
    WrongKind {
        /// Kind the caller asked for (see [`kind`]).
        expected: u32,
        /// Kind found in the header.
        found: u32,
    },
    /// The file ends before the declared structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A section payload does not match its recorded CRC32.
    ChecksumMismatch {
        /// Name of the failing section (or `"section table"`).
        section: String,
    },
    /// A required section is absent.
    MissingSection(String),
    /// The bytes decoded but violate a semantic invariant of the artifact.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::BadMagic => write!(f, "not a PRESS store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store format version {found} (this build reads version {supported})"
            ),
            StoreError::WrongKind { expected, found } => write!(
                f,
                "wrong artifact kind: expected {expected}, file holds {found}"
            ),
            StoreError::Truncated { what } => {
                write!(f, "store file truncated while reading {what}")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            StoreError::MissingSection(name) => write!(f, "missing section '{name}'"),
            StoreError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Buffers named sections and emits one container file.
#[derive(Debug)]
pub struct StoreWriter {
    kind: u32,
    sections: Vec<(String, Vec<u8>, bool)>,
    // O(1) duplicate detection — a trajectory store writes one section
    // per block, so a linear scan per insert would be quadratic in
    // corpus size.
    names: std::collections::HashSet<String>,
}

impl StoreWriter {
    /// New writer for an artifact of the given [`kind`].
    pub fn new(kind: u32) -> Self {
        StoreWriter {
            kind,
            sections: Vec::new(),
            names: std::collections::HashSet::new(),
        }
    }

    fn push_section(&mut self, name: &str, payload: Vec<u8>, aligned: bool) {
        assert!(
            !name.is_empty() && name.len() <= MAX_SECTION_NAME,
            "section name '{name}' must be 1..={MAX_SECTION_NAME} bytes"
        );
        assert!(
            self.names.insert(name.to_string()),
            "duplicate section name '{name}'"
        );
        self.sections.push((name.to_string(), payload, aligned));
    }

    /// Adds a section. Names are programmer-chosen constants; they must
    /// be unique, non-empty, and at most [`MAX_SECTION_NAME`] bytes.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        self.push_section(name, payload, false);
        self
    }

    /// Adds a section whose payload starts on an 8-byte boundary in the
    /// emitted file, padding the gap before it with zero bytes. The
    /// padding lives *between* payloads and is addressed by no table
    /// entry, so readers — including pre-alignment ones — never see it.
    /// Flat fixed-width sections use this so a mapped open can lend the
    /// payload directly as a typed slice.
    pub fn section_aligned(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        self.push_section(name, payload, true);
        self
    }

    /// Serializes the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len = self.sections.len() * DIR_ENTRY_BYTES;
        // HEADER_BYTES and DIR_ENTRY_BYTES are both multiples of 8, so
        // the first payload always starts aligned; padding is only ever
        // needed after an unaligned-length payload.
        let mut offset = (HEADER_BYTES + table_len) as u64;
        let mut table = Vec::with_capacity(table_len);
        for (name, payload, aligned) in &self.sections {
            if *aligned {
                offset = offset.next_multiple_of(8);
            }
            let mut name_bytes = [0u8; MAX_SECTION_NAME];
            name_bytes[..name.len()].copy_from_slice(name.as_bytes());
            table.extend_from_slice(&name_bytes);
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&crc32(payload).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
            offset += payload.len() as u64;
        }
        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&table).to_le_bytes());
        out.extend_from_slice(&table);
        for (_, payload, aligned) in &self.sections {
            if *aligned {
                out.resize(out.len().next_multiple_of(8), 0);
            }
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the container to `path` (parent directories must exist)
    /// atomically: staged through a sibling temp file, fsynced, renamed
    /// over the target, parent directory fsynced. A crash or I/O fault
    /// at any step leaves either the old complete file or the new one,
    /// and every failure — including the fsyncs — surfaces as a typed
    /// [`StoreError::Io`].
    pub fn write_to(&self, path: &Path) -> Result<()> {
        atomic_write_file(&RealIo, path, &self.to_bytes())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One parsed section-table entry. The name stays in its 16-byte table
/// field, zero past `name_len` and validated as UTF-8 once at open, so
/// parsing a table allocates nothing per entry.
#[derive(Debug, Clone)]
struct SectionEntry {
    name: [u8; MAX_SECTION_NAME],
    name_len: u8,
    offset: usize,
    len: usize,
    crc: u32,
}

impl SectionEntry {
    fn name(&self) -> &str {
        std::str::from_utf8(&self.name[..self.name_len as usize])
            .expect("section names are validated as UTF-8 at open")
    }
}

/// A section name of at most [`MAX_SECTION_NAME`] bytes as one integer:
/// its bytes read as a big-endian number (`"ab"` is `0x6162`). A stored
/// name holds no NUL, so its first byte is non-zero and integer order is
/// (length, bytes) order: `blk9` sorts before `blk10`, and a table written
/// `blk0, blk1, …` is one ascending run. Two stored names share a key
/// only when they are equal.
fn name_key(name: &[u8]) -> u128 {
    name.iter().fold(0, |k, &b| (k << 8) | u128::from(b))
}

/// Per-section CRC verdicts: one tri-state per table entry, flipped
/// exactly once on the section's first touch.
const CRC_UNCHECKED: u8 = 0;
const CRC_OK: u8 = 1;
const CRC_BAD: u8 = 2;

/// A loaded container file: maps the raw bytes (a file mapping or an
/// arena copy), hands out CRC-checked payload slices. The mapping sits
/// behind an `Arc` so typed [`FlatSlice`] views can keep the bytes alive
/// independently of the `StoreFile` handle.
#[derive(Debug)]
pub struct StoreFile {
    kind: u32,
    data: Arc<dyn Mapping>,
    table: Vec<SectionEntry>,
    // (name key, table position), sorted: a lookup is a binary search,
    // not a scan of a 10^5-entry directory, and no file-controlled name
    // is ever hashed. Equal keys sort by position, so the first entry
    // wins on (malformed) duplicate names.
    lookup: Vec<(u128, u32)>,
    /// Payload CRCs are validated lazily, once per section, on first
    /// touch: the bytes behind a `StoreFile` never change, so a verdict
    /// holds for its lifetime, and an open does not read every byte up
    /// front.
    lazy_crc: Vec<AtomicU8>,
}

impl StoreFile {
    /// Ingests a container from raw bytes, copied into an
    /// [`ArenaMapping`] (the backing [`map_file`] falls back to), and
    /// validates it as [`StoreFile::open_mapped`] does.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self> {
        Self::from_mapping(Arc::new(ArenaMapping::from_bytes(&data)))
    }

    /// Opens a container through [`map_file`] — `mmap` where available,
    /// the aligned arena otherwise. The header and section table are
    /// validated eagerly (they are one page) and every entry's bounds
    /// checked; payload CRCs are deferred to each section's first touch
    /// and the verdict cached, so open cost is O(header + table), not
    /// O(file).
    pub fn open_mapped(path: &Path) -> Result<Self> {
        Self::from_mapping(Arc::from(map_file(path)?))
    }

    fn from_mapping(mapping: Arc<dyn Mapping>) -> Result<Self> {
        let data = mapping.bytes();
        if data.len() < HEADER_BYTES {
            return Err(StoreError::Truncated {
                what: "header".into(),
            });
        }
        if data[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let count = u32::from_le_bytes(data[16..20].try_into().unwrap()) as usize;
        let table_crc = u32::from_le_bytes(data[20..24].try_into().unwrap());
        let table_end = HEADER_BYTES + count.saturating_mul(DIR_ENTRY_BYTES);
        if table_end > data.len() {
            return Err(StoreError::Truncated {
                what: "section table".into(),
            });
        }
        let table_bytes = &data[HEADER_BYTES..table_end];
        if crc32(table_bytes) != table_crc {
            return Err(StoreError::ChecksumMismatch {
                section: "section table".into(),
            });
        }
        let mut table = Vec::with_capacity(count);
        let mut lookup = Vec::with_capacity(count);
        for (i, e) in table_bytes.chunks_exact(DIR_ENTRY_BYTES).enumerate() {
            let name_len = e[..MAX_SECTION_NAME]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(MAX_SECTION_NAME);
            let mut name = [0u8; MAX_SECTION_NAME];
            name[..name_len].copy_from_slice(&e[..name_len]);
            let shown = std::str::from_utf8(&name[..name_len])
                .map_err(|_| StoreError::Corrupt("section name is not UTF-8".into()))?;
            let offset = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let len = u64::from_le_bytes(e[24..32].try_into().unwrap());
            let crc = u32::from_le_bytes(e[32..36].try_into().unwrap());
            let end = offset
                .checked_add(len)
                .ok_or_else(|| StoreError::Truncated {
                    what: format!("section '{shown}'"),
                })?;
            if end > data.len() as u64 {
                return Err(StoreError::Truncated {
                    what: format!("section '{shown}'"),
                });
            }
            lookup.push((name_key(&name[..name_len]), i as u32));
            table.push(SectionEntry {
                name,
                name_len: name_len as u8,
                offset: offset as usize,
                len: len as usize,
                crc,
            });
        }
        // The stable sort merges natural runs, so the `blk0, blk1, …`
        // tables writers emit sort in linear time.
        lookup.sort();
        let lazy_crc = (0..table.len())
            .map(|_| AtomicU8::new(CRC_UNCHECKED))
            .collect();
        Ok(StoreFile {
            kind,
            data: mapping,
            table,
            lookup,
            lazy_crc,
        })
    }

    /// Artifact kind from the header (see [`kind`]).
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Errors unless the artifact kind matches.
    pub fn expect_kind(&self, expected: u32) -> Result<()> {
        if self.kind != expected {
            return Err(StoreError::WrongKind {
                expected,
                found: self.kind,
            });
        }
        Ok(())
    }

    /// Number of section-table entries.
    pub fn section_count(&self) -> usize {
        self.table.len()
    }

    /// Names of all sections, in file order: the `i`-th is the section at
    /// slot `i` (see [`StoreFile::section_at`]).
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.table.iter().map(SectionEntry::name)
    }

    /// True when slots `first..first + count` are named `{prefix}0`,
    /// `{prefix}1`, …, `{prefix}{count - 1}` in that order — the run a
    /// writer emits when it names sections by a decimal counter. The names
    /// are compared with an incrementing counter, none is parsed.
    pub fn is_numbered_run(&self, first: usize, prefix: &str, count: usize) -> bool {
        let Some(run) = self.table.get(first..first.saturating_add(count)) else {
            return false;
        };
        let base = prefix.len();
        let mut want = [0u8; MAX_SECTION_NAME];
        let mut len = base + 1;
        if len > MAX_SECTION_NAME {
            return run.is_empty();
        }
        want[..base].copy_from_slice(prefix.as_bytes());
        want[base] = b'0';
        for entry in run {
            if entry.name_len as usize != len || entry.name[..len] != want[..len] {
                return false;
            }
            // The next number: carry through trailing nines, and grow by
            // a digit when they were all nines.
            match want[base..len].iter().rposition(|&d| d != b'9') {
                Some(at) => {
                    want[base + at] += 1;
                    want[base + at + 1..len].fill(b'0');
                }
                None if len < MAX_SECTION_NAME => {
                    want[base] = b'1';
                    want[base + 1..=len].fill(b'0');
                    len += 1;
                }
                // No longer name fits: nothing may follow.
                None => len = MAX_SECTION_NAME + 1,
            }
        }
        true
    }

    /// True when a section exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.section_slot(name).is_some()
    }

    /// CRC-checked payload of a section. The CRC runs once, on the
    /// section's first touch, and the verdict is cached (a cached failure
    /// keeps failing).
    pub fn section(&self, name: &str) -> Result<&[u8]> {
        let slot = self
            .section_slot(name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))?;
        self.section_at(slot)
    }

    /// Table position of a section, for readers that resolve a name once
    /// at open and then address the section by position
    /// ([`StoreFile::section_at`]) on their hot path.
    pub fn section_slot(&self, name: &str) -> Option<usize> {
        if name.len() > MAX_SECTION_NAME {
            return None;
        }
        let key = name_key(name.as_bytes());
        let first = self.lookup.partition_point(|&(k, _)| k < key);
        let &(k, slot) = self.lookup.get(first)?;
        // A queried name with leading NULs has a stored name's key; the
        // length tells them apart.
        (k == key && self.table[slot as usize].name_len as usize == name.len())
            .then_some(slot as usize)
    }

    /// [`StoreFile::section`] by table position.
    ///
    /// # Panics
    ///
    /// When `slot` is not below [`StoreFile::section_count`].
    pub fn section_at(&self, slot: usize) -> Result<&[u8]> {
        let entry = &self.table[slot];
        let payload = &self.data.bytes()[entry.offset..entry.offset + entry.len];
        let verdict = &self.lazy_crc[slot];
        let ok = match verdict.load(Ordering::Acquire) {
            CRC_OK => true,
            CRC_BAD => false,
            _ => {
                // Concurrent first touches both compute the same verdict
                // over the same immutable bytes; the double store is
                // benign.
                let ok = crc32(payload) == entry.crc;
                verdict.store(if ok { CRC_OK } else { CRC_BAD }, Ordering::Release);
                ok
            }
        };
        if !ok {
            return Err(StoreError::ChecksumMismatch {
                section: entry.name().to_string(),
            });
        }
        Ok(payload)
    }

    /// The container written again, its sections in table order, each
    /// `(name, payload)` passed through `f` (`None` drops the section)
    /// and every CRC sealed afresh. A payload that started on an 8-byte
    /// boundary still does, so a rewrite that keeps every length keeps
    /// every offset. This is how a test puts bytes behind valid CRCs, to
    /// reach the checks of the loader that parses them.
    pub fn rewrite_sections(
        &self,
        mut f: impl FnMut(&str, &[u8]) -> Option<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let mut w = StoreWriter::new(self.kind);
        for (slot, entry) in self.table.iter().enumerate() {
            if let Some(payload) = f(entry.name(), self.section_at(slot)?) {
                w.push_section(entry.name(), payload, entry.offset % 8 == 0);
            }
        }
        Ok(w.to_bytes())
    }

    /// Byte length of a section, if present (no CRC touch).
    pub fn section_len(&self, name: &str) -> Option<usize> {
        self.section_slot(name).map(|i| self.table[i].len)
    }

    /// A [`ByteReader`] over a CRC-checked section.
    pub fn reader(&self, name: &str) -> Result<ByteReader<'_>> {
        Ok(ByteReader::new(self.section(name)?))
    }

    /// Lends a fixed-width section as a typed [`FlatSlice`]: a zero-copy
    /// borrow of this file's backing when the payload is aligned for `T`
    /// (mapped flat sections are written 8-byte aligned, so this is the
    /// common case), a decoded copy otherwise — answers are identical
    /// either way. The section is CRC-validated first (on its first
    /// touch, as [`StoreFile::section`] does), and a length that is not a
    /// whole number of elements is typed [`StoreError::Corrupt`].
    pub fn flat_section<T: FlatPod>(&self, name: &str) -> Result<FlatSlice<T>> {
        self.section(name)?;
        self.flat_section_unverified(name)
    }

    /// [`StoreFile::flat_section`] **before** the section's CRC check: the
    /// typed view of the bytes as stored, for a reader that runs the
    /// checksum ([`StoreFile::section`]) and its own scan of the view side
    /// by side. Nothing derived from the view may be trusted until that
    /// checksum passes. A missing section is [`StoreError::MissingSection`]
    /// and a ragged length [`StoreError::Corrupt`], as in `flat_section`.
    pub fn flat_section_unverified<T: FlatPod>(&self, name: &str) -> Result<FlatSlice<T>> {
        let slot = self
            .section_slot(name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))?;
        let entry = &self.table[slot];
        let bytes = &self.data.bytes()[entry.offset..entry.offset + entry.len];
        let width = std::mem::size_of::<T>();
        if !bytes.len().is_multiple_of(width) {
            return Err(StoreError::Corrupt(format!(
                "section '{name}' length {} is not a multiple of element width {width}",
                bytes.len()
            )));
        }
        let n = bytes.len() / width;
        #[cfg(target_endian = "little")]
        if (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
            // SAFETY: `T: FlatPod` guarantees no padding and no invalid
            // bit patterns; alignment was just checked; `n * width` is
            // exactly `bytes.len()`, so the view covers only the payload.
            let slice = unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, n) };
            // SAFETY: the bytes are immutable and outlive the slice
            // because the returned view clones the `Arc` on the backing.
            // The 'static lifetime is a private fiction: `FlatSlice`
            // never lends the slice beyond its own lifetime.
            let slice: &'static [T] = unsafe { std::mem::transmute::<&[T], &'static [T]>(slice) };
            return Ok(FlatSlice {
                _backing: Some(self.data.clone()),
                data: Cow::Borrowed(slice),
            });
        }
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(width) {
            out.push(T::from_le_chunk(chunk));
        }
        Ok(FlatSlice {
            _backing: None,
            data: Cow::Owned(out),
        })
    }
}

// ---------------------------------------------------------------------
// Typed flat-section views
// ---------------------------------------------------------------------

/// Element types that may be viewed directly over little-endian flat
/// section bytes.
///
/// # Safety
///
/// Implementors must be plain fixed-width data: `Copy`, no padding
/// bytes, no invalid bit patterns, and an in-memory representation that
/// on little-endian hosts equals the on-disk little-endian encoding
/// produced by [`FlatPod::from_le_chunk`]'s inverse. Primitive numeric
/// types qualify; structs only with `#[repr(C)]` and exclusively
/// `FlatPod` fields.
pub unsafe trait FlatPod: Copy + Send + Sync + 'static {
    /// Decodes one element from exactly `size_of::<Self>()` little-endian
    /// bytes (the portable fallback when zero-copy borrowing is not
    /// possible — misaligned payload or big-endian host).
    fn from_le_chunk(chunk: &[u8]) -> Self;
}

// SAFETY: a primitive integer: no padding, every bit pattern valid, and
// its little-endian in-memory form is the `from_le_bytes` encoding.
unsafe impl FlatPod for u32 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        u32::from_le_bytes(chunk.try_into().unwrap())
    }
}

// SAFETY: as for `u32`.
unsafe impl FlatPod for u64 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        u64::from_le_bytes(chunk.try_into().unwrap())
    }
}

// SAFETY: 8 bytes, no padding, every bit pattern a valid `f64` (NaNs
// included), stored as the little-endian bits `from_bits` decodes.
unsafe impl FlatPod for f64 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(chunk.try_into().unwrap()))
    }
}

/// A borrowed-or-owned typed array over a flat section: `Cow::Borrowed`
/// straight into the file's mapping when alignment
/// permits — the zero-copy serving tier — and `Cow::Owned` otherwise
/// (including every slice built in memory). Dereferences to `[T]`, so
/// call sites index it exactly like the `Vec` it replaces.
pub struct FlatSlice<T: FlatPod> {
    /// Keeps the backing bytes alive for the borrowed case (`None` for
    /// owned data); `data`'s 'static borrow is only valid while this
    /// handle holds the `Arc`.
    _backing: Option<Arc<dyn Mapping>>,
    data: Cow<'static, [T]>,
}

impl<T: FlatPod> FlatSlice<T> {
    /// An owned slice (the build path and the portable fallback).
    pub fn from_vec(v: Vec<T>) -> Self {
        FlatSlice {
            _backing: None,
            data: Cow::Owned(v),
        }
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// True when this view borrows the file backing (zero-copy engaged).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.data, Cow::Borrowed(_))
    }
}

impl<T: FlatPod> From<Vec<T>> for FlatSlice<T> {
    fn from(v: Vec<T>) -> Self {
        FlatSlice::from_vec(v)
    }
}

impl<T: FlatPod> Default for FlatSlice<T> {
    fn default() -> Self {
        FlatSlice::from_vec(Vec::new())
    }
}

impl<T: FlatPod> std::ops::Deref for FlatSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: FlatPod> Clone for FlatSlice<T> {
    fn clone(&self) -> Self {
        FlatSlice {
            _backing: self._backing.clone(),
            data: match &self.data {
                Cow::Borrowed(s) => Cow::Borrowed(s),
                Cow::Owned(v) => Cow::Owned(v.clone()),
            },
        }
    }
}

impl<T: FlatPod + PartialEq> PartialEq for FlatSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: FlatPod + fmt::Debug> fmt::Debug for FlatSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlatSlice({}, {} elems)",
            if self.is_borrowed() {
                "borrowed"
            } else {
                "owned"
            },
            self.len()
        )
    }
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

/// Little-endian primitive encoder for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an unsigned LEB128 varint (1 byte for values < 128, 7
    /// payload bits per byte thereafter). The codec behind the
    /// delta-compressed id sections: monotone id arrays (CSR indices,
    /// sorted hub lists, mostly-sequential arc endpoints) delta down to
    /// tiny values, so one byte per element is the common case.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a signed varint (zigzag + LEB128), for deltas that can go
    /// either way (arc tails between consecutive shortcut arcs, unpack
    /// children relative to their parent id).
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes into the payload vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a section payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Truncated { what: what.into() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, erroring on overflow
    /// (32-bit hosts) or on values beyond `limit` — a cheap way to reject
    /// absurd corrupted counts before allocating.
    pub fn get_len(&mut self, limit: usize, what: &str) -> Result<usize> {
        let v = self.get_u64()?;
        let v = usize::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{what} count {v} overflows usize")))?;
        if v > limit {
            return Err(StoreError::Corrupt(format!(
                "{what} count {v} exceeds plausible limit {limit}"
            )));
        }
        Ok(v)
    }

    /// Reads an `f64` from its IEEE bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an unsigned LEB128 varint (see [`ByteWriter::put_uvarint`]).
    /// Over-long encodings (more than 10 bytes, or bits beyond the 64th)
    /// are corruption, not extensions.
    pub fn get_uvarint(&mut self) -> Result<u64> {
        // Most varints are one byte (small deltas, short lengths).
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.take(1, "varint")?[0];
            let payload = (b & 0x7F) as u64;
            if shift == 63 && payload > 1 {
                return Err(StoreError::Corrupt("varint overflows u64".into()));
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(StoreError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a signed zigzag varint (see [`ByteWriter::put_ivarint`]).
    pub fn get_ivarint(&mut self) -> Result<i64> {
        let z = self.get_uvarint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads the low `n <= 8` bytes of a little-endian `u64` (the rest
    /// zero) — a value stored with its leading zero bytes trimmed.
    ///
    /// # Panics
    ///
    /// When `n > 8`.
    pub fn get_uint_le(&mut self, n: usize) -> Result<u64> {
        assert!(n <= 8, "a u64 has 8 bytes, asked for {n}");
        // One unaligned load and a mask when eight bytes are there to
        // load; byte by byte at the very end of the payload.
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            self.pos += n;
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            return Ok(if n == 8 {
                word
            } else {
                word & ((1u64 << (8 * n)) - 1)
            });
        }
        let mut word = [0u8; 8];
        word[..n].copy_from_slice(self.take(n, "trimmed u64")?);
        Ok(u64::from_le_bytes(word))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    pub fn expect_end(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreWriter {
        let mut w = StoreWriter::new(kind::META);
        let mut a = ByteWriter::new();
        a.put_u32(7);
        a.put_f64(1.5);
        w.section("meta", a.into_bytes());
        w.section("payload", vec![1, 2, 3, 4, 5]);
        w
    }

    /// A run of counter names is recognised across digit carries, and
    /// any gap, offset, other prefix or overrun is not a run.
    #[test]
    fn numbered_runs_are_matched_against_a_counter() {
        let file = |names: &[String]| {
            let mut w = StoreWriter::new(kind::META);
            for name in names {
                w.section(name, vec![1]);
            }
            StoreFile::from_bytes(w.to_bytes()).unwrap()
        };
        let mut names: Vec<String> = vec!["meta".into()];
        names.extend((0..105).map(|i| format!("x{i}")));
        names.push("tail".into());
        let f = file(&names);
        assert!(f.is_numbered_run(1, "x", 105));
        assert!(f.is_numbered_run(1, "x", 0));
        assert!(f.is_numbered_run(107, "x", 0));
        assert!(!f.is_numbered_run(2, "x", 3), "starts at x1");
        assert!(!f.is_numbered_run(1, "x", 106), "tail is no x105");
        assert!(!f.is_numbered_run(1, "x", 108), "past the table");
        assert!(!f.is_numbered_run(1, "y", 3));
        names.remove(1 + 10);
        assert!(!file(&names).is_numbered_run(1, "x", 104), "x10 missing");
        // At the name-length limit: `p…p9` is the last name that fits.
        let prefix = "p".repeat(MAX_SECTION_NAME - 1);
        let names: Vec<String> = (0..10).map(|i| format!("{prefix}{i}")).collect();
        assert!(file(&names).is_numbered_run(0, &prefix, 10));
        let too_long = "p".repeat(MAX_SECTION_NAME);
        assert!(file(&names).is_numbered_run(0, &too_long, 0));
        assert!(!file(&names).is_numbered_run(0, &too_long, 1));
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes();
        let f = StoreFile::from_bytes(bytes).unwrap();
        assert_eq!(f.kind(), kind::META);
        f.expect_kind(kind::META).unwrap();
        assert_eq!(
            f.expect_kind(kind::NETWORK),
            Err(StoreError::WrongKind {
                expected: kind::NETWORK,
                found: kind::META
            })
        );
        assert_eq!(f.section_names().collect::<Vec<_>>(), ["meta", "payload"]);
        assert!(f.has_section("meta") && !f.has_section("nope"));
        let mut r = f.reader("meta").unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        r.expect_end("meta").unwrap();
        assert_eq!(f.section("payload").unwrap(), &[1, 2, 3, 4, 5]);
        assert!(matches!(
            f.section("nope"),
            Err(StoreError::MissingSection(_))
        ));
    }

    #[test]
    fn section_lookup_finds_every_name_and_the_first_of_duplicates() {
        let names: Vec<String> = ["meta", "synopsis", "sixteen_bytes_ab", "x"]
            .into_iter()
            .map(String::from)
            .chain((0..300).map(|b| format!("blk{b}")))
            .collect();
        let mut w = StoreWriter::new(kind::META);
        for (i, name) in names.iter().enumerate() {
            w.section(name, vec![i as u8]);
        }
        let mut bytes = w.to_bytes();
        let f = StoreFile::from_bytes(bytes.clone()).unwrap();
        assert_eq!(f.section_count(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(f.section_slot(name), Some(i), "{name}");
            assert_eq!(f.section_at(i).unwrap(), &[i as u8]);
        }
        for absent in [
            "",
            "met",
            "blk01",
            "blk300",
            "\0x",
            "x\0",
            "sixteen_bytes_abc",
        ] {
            assert_eq!(f.section_slot(absent), None, "{absent:?}");
        }
        // Rename entry 1 to "meta" and re-seal the table: the first of
        // the two entries wins, and the renamed name is gone.
        let entry = HEADER_BYTES + DIR_ENTRY_BYTES;
        bytes[entry..entry + MAX_SECTION_NAME].fill(0);
        bytes[entry..entry + 4].copy_from_slice(b"meta");
        let table_crc = crc32(&bytes[HEADER_BYTES..HEADER_BYTES + names.len() * DIR_ENTRY_BYTES]);
        bytes[20..24].copy_from_slice(&table_crc.to_le_bytes());
        let f = StoreFile::from_bytes(bytes).unwrap();
        assert_eq!(f.section_slot("meta"), Some(0));
        assert_eq!(f.section_slot("synopsis"), None);
        assert_eq!(f.section("meta").unwrap(), &[0]);
    }

    #[test]
    fn empty_container_is_valid() {
        let w = StoreWriter::new(kind::META);
        let f = StoreFile::from_bytes(w.to_bytes()).unwrap();
        assert_eq!(f.section_names().count(), 0);
    }

    #[test]
    fn byte_reader_bounds_and_limits() {
        let mut w = ByteWriter::with_capacity(16);
        w.put_u8(1);
        w.put_u16(2);
        w.put_u64(1 << 40);
        assert_eq!(w.len(), 11);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert!(matches!(
            r.clone().get_len(1000, "trees"),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(r.get_len(1 << 41, "trees").unwrap(), 1 << 40);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u32(), Err(StoreError::Truncated { .. })));
        assert!(matches!(
            ByteReader::new(&bytes[..3]).get_f64(),
            Err(StoreError::Truncated { .. })
        ));
        // Trimmed words: every width, on the fast path (eight bytes left
        // to load) and at the very end of the payload.
        let word = 0x0807_0605_0403_0201u64;
        for n in 0..=8usize {
            let expect = if n == 8 {
                word
            } else {
                word & ((1 << (8 * n)) - 1)
            };
            let mut padded = word.to_le_bytes()[..n].to_vec();
            padded.extend_from_slice(&[0xEE; 9]);
            let mut r = ByteReader::new(&padded);
            assert_eq!(r.get_uint_le(n).unwrap(), expect);
            assert_eq!(r.remaining(), 9);
            let exact = &word.to_le_bytes()[..n];
            let mut r = ByteReader::new(exact);
            assert_eq!(r.get_uint_le(n).unwrap(), expect);
            assert_eq!(r.remaining(), 0);
            if n > 0 {
                assert!(matches!(
                    ByteReader::new(&exact[..n - 1]).get_uint_le(n),
                    Err(StoreError::Truncated { .. })
                ));
            }
        }
    }

    #[test]
    fn varints_roundtrip_and_reject_overlong() {
        let mut w = ByteWriter::new();
        let unsigned = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let signed = [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            -65,
            i32::MAX as i64,
            i64::MIN,
            i64::MAX,
        ];
        for &v in &unsigned {
            w.put_uvarint(v);
        }
        for &v in &signed {
            w.put_ivarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &unsigned {
            assert_eq!(r.get_uvarint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.get_ivarint().unwrap(), v);
        }
        r.expect_end("varints").unwrap();
        // Small values are one byte; u64::MAX is the 10-byte ceiling.
        let mut w = ByteWriter::new();
        w.put_uvarint(127);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.put_uvarint(u64::MAX);
        assert_eq!(w.len(), 10);
        // Truncation mid-varint is typed.
        let mut w = ByteWriter::new();
        w.put_uvarint(1 << 40);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes[..2]).get_uvarint(),
            Err(StoreError::Truncated { .. })
        ));
        // An 11-byte continuation chain is corruption, not a value.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            ByteReader::new(&overlong).get_uvarint(),
            Err(StoreError::Corrupt(_))
        ));
        // A 10th byte carrying bits beyond the 64th is corruption.
        let mut bad = [0x80u8; 10];
        bad[9] = 0x02;
        assert!(matches!(
            ByteReader::new(&bad).get_uvarint(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("press-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn aligned_sections_start_on_8_byte_boundaries() {
        let mut w = StoreWriter::new(kind::META);
        w.section("odd", vec![9; 5]); // 5 bytes: next offset would be misaligned
        w.section_aligned("flat", (0u32..7).flat_map(|v| v.to_le_bytes()).collect());
        w.section("tail", vec![1, 2, 3]);
        let bytes = w.to_bytes();
        let f = StoreFile::from_bytes(bytes).unwrap();
        assert_eq!(f.section("odd").unwrap(), &[9; 5]);
        assert_eq!(f.section("tail").unwrap(), &[1, 2, 3]);
        let flat = f.section("flat").unwrap();
        assert_eq!(flat.len(), 28);
        // The aligned payload's *file offset* is a multiple of 8; the
        // gap bytes before it are invisible to section reads.
        let base = f.section("odd").unwrap().as_ptr() as usize - f.data.bytes().as_ptr() as usize;
        let flat_off = flat.as_ptr() as usize - f.data.bytes().as_ptr() as usize;
        assert_eq!(flat_off % 8, 0);
        assert!(flat_off > base);
    }

    #[test]
    fn mapped_open_checks_crc_lazily_and_caches_the_verdict() {
        let path = temp_path("lazy-crc.press");
        sample().write_to(&path).unwrap();
        // Flip one payload byte of the trailing "payload" section on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        // The bytes load follows the mapped open's policy; the open itself
        // succeeds either way.
        let opened = [StoreFile::open_mapped(&path), StoreFile::from_bytes(bytes)];
        for (f, mapped) in opened.into_iter().zip([true, false]) {
            let f = f.unwrap();
            let verdict = |name| f.lazy_crc[f.section_slot(name).unwrap()].load(Ordering::Acquire);
            assert_eq!(verdict("payload"), CRC_UNCHECKED);
            // First touch surfaces the typed error; so does every retry
            // (the verdict is cached, not forgotten).
            for _ in 0..2 {
                assert_eq!(
                    f.section("payload").unwrap_err(),
                    StoreError::ChecksumMismatch {
                        section: "payload".into()
                    }
                );
                assert_eq!(verdict("payload"), CRC_BAD, "mapped {mapped}");
            }
            // The untouched section reads fine, and repeats served from
            // the cached OK verdict stay fine.
            let meta = f.section("meta").unwrap().to_vec();
            assert_eq!(verdict("meta"), CRC_OK, "mapped {mapped}");
            assert_eq!(f.section("meta").unwrap(), &meta[..]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_open_reads_identically_to_bytes() {
        let path = temp_path("mapped-eq.press");
        let mut w = StoreWriter::new(kind::META);
        w.section("a", vec![1, 2, 3]);
        w.section_aligned("b", (0u64..9).flat_map(|v| v.to_le_bytes()).collect());
        w.write_to(&path).unwrap();
        let bytes = StoreFile::from_bytes(w.to_bytes()).unwrap();
        let mapped = StoreFile::open_mapped(&path).unwrap();
        for name in ["a", "b"] {
            assert_eq!(bytes.section(name).unwrap(), mapped.section(name).unwrap());
            assert_eq!(bytes.section_len(name), mapped.section_len(name));
        }
        // The arena is aligned like a mapping: the flat section borrows.
        assert!(bytes.flat_section::<u64>("b").unwrap().is_borrowed());
        assert_eq!(bytes.section_len("nope"), None);
        // A 0-byte file (a crash between create and first write) maps
        // through the arena fallback to a typed truncation.
        std::fs::write(&path, []).unwrap();
        let truncated = StoreError::Truncated {
            what: "header".into(),
        };
        assert_eq!(StoreFile::open_mapped(&path).unwrap_err(), truncated);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flat_sections_borrow_when_aligned_and_copy_otherwise() {
        let path = temp_path("flat.press");
        let vals: Vec<u32> = (0..100u32)
            .map(|i| i.wrapping_mul(2654435761) % 7919)
            .collect();
        let dists: Vec<f64> = (0..50).map(|i| i as f64 * 1.5 - 3.0).collect();
        let mut w = StoreWriter::new(kind::META);
        w.section("skew", vec![0xAB; 3]); // forces a gap before each aligned section
        w.section_aligned("ids", vals.iter().flat_map(|v| v.to_le_bytes()).collect());
        w.section_aligned(
            "dists",
            dists
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect(),
        );
        w.section("ids_u", vals.iter().flat_map(|v| v.to_le_bytes()).collect());
        w.write_to(&path).unwrap();
        let mapped = StoreFile::open_mapped(&path).unwrap();
        let ids: FlatSlice<u32> = mapped.flat_section("ids").unwrap();
        let ds: FlatSlice<f64> = mapped.flat_section("dists").unwrap();
        assert_eq!(ids.as_slice(), &vals[..]);
        assert_eq!(ds.as_slice(), &dists[..]);
        assert!(ids.is_borrowed() && ds.is_borrowed());
        // The unaligned twin decodes to identical values via the copy
        // fallback ("ids_u" starts right after "dists" — offset % 4 may
        // happen to align, so only assert value equality there).
        let ids_u: FlatSlice<u32> = mapped.flat_section("ids_u").unwrap();
        assert_eq!(ids_u.as_slice(), ids.as_slice());
        // A length that is not a whole number of elements is typed.
        assert!(matches!(
            mapped.flat_section::<u64>("skew"),
            Err(StoreError::Corrupt(_))
        ));
        // Owned construction and equality plumbing.
        let built = FlatSlice::from_vec(vals.clone());
        assert!(!built.is_borrowed());
        assert_eq!(built, ids);
        assert_eq!(built.clone(), ids.clone());
        assert_eq!(&built[..5], &vals[..5]);
        assert!(format!("{built:?}").contains("owned"));
        // The borrowed view outlives the StoreFile handle (keepalive Arc).
        drop(mapped);
        assert_eq!(ids.as_slice(), &vals[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::ChecksumMismatch {
            section: "arcs".into(),
        };
        assert!(e.to_string().contains("arcs"));
        assert!(StoreError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(StoreError::from(std::io::Error::other("x"))
            .to_string()
            .contains("I/O"));
    }
}
