//! Crash-safe, append-only write-ahead journal for streaming ingest.
//!
//! # Format
//!
//! A 16-byte header (`PRESSWAL` magic, `u32` version, `u32` reserved)
//! followed by CRC-framed records:
//!
//! ```text
//! [u32 payload len][u32 crc32(payload)][payload]
//! ```
//!
//! [`Wal::append`] encodes each frame into an in-memory buffer; the
//! buffer reaches the file as **one** `write_all` of whole frames — in
//! a group-commit batch before its fsync, in the append that takes
//! it to [`WRITE_CAP`], and best effort on drop (not for a journal a
//! checkpoint superseded, `Wal::discard`). The file therefore
//! always holds a *prefix* of the frame sequence: a crash leaves at
//! worst a partial final frame — never interleaved garbage in the
//! middle of the journal.
//!
//! A group commit detaches the journal's own file handle together with
//! every buffered frame as one batch (`Wal::detach`), which the ingest
//! engine's syncer thread writes and fsyncs while appends keep
//! buffering; the batch is then attached back (`Wal::attach`). While it
//! is detached the journal makes no backend call of its own: the engine
//! settles the batch before an append that would have to write
//! (`Wal::append_writes`). [`Wal::sync`] is the same batch, run on the
//! calling thread.
//!
//! # Durability and recovery contract
//!
//! * [`Wal::append`] sequences a record: it returns the record's end
//!   offset in the frame sequence. The record reaches the file at the
//!   next buffer write and survives power loss once a [`Wal::sync`] or
//!   a group-commit batch covering that offset has completed. A process
//!   crash before the buffer write loses it, and everything after it:
//!   the journal is cut at a frame boundary, which recovery replays
//!   like any other cut.
//! * [`Wal::create`] writes a whole journal and syncs its data, not
//!   its name. A checkpoint creates every new journal under its final
//!   generation-stamped name and fsyncs the directory once before the
//!   manifest rename commits them; [`Wal::open`] fsyncs the directory
//!   after creating a fresh journal.
//! * [`Wal::open`] replays every complete, CRC-valid frame in order,
//!   one at a time, from a read-only mapping of the file.
//! * A **torn tail** — an incomplete frame at EOF, or a final frame whose
//!   checksum fails — is the signature of a mid-write crash: it is
//!   truncated away and reported ([`WalReplay::torn_bytes`]), never an
//!   error. Only records no sync covered can live there.
//! * A checksum failure (or malformed frame) **with more journal after
//!   it** can only be real corruption of synced or written data, so it
//!   is a typed [`WalError::Corrupt`] — written records are never
//!   silently dropped. So is a length field that disagrees with the
//!   frame's tag while the tag's frame fits with journal after it and
//!   passes the frame's CRC, even where the length reaches to or past
//!   EOF: a torn frame keeps its tag's length.
//!
//! # Disk faults
//!
//! Every write-side operation goes through the
//! [`press_store::IoBackend`] that [`Wal::open`] and [`Wal::create`]
//! take, so `ENOSPC`/`EIO`/short-write/fsync failures are injectable.
//! A failed buffer write returns a typed error —
//! [`WalError::StorageFull`] for out-of-space (persistent; the caller
//! must not retry), transient [`WalError::Io`] otherwise — and keeps
//! the buffered frames for the next attempt, except the frame of an
//! append whose own cap write failed: that record is not sequenced.
//! Any partial write the failure left is truncated away before the next
//! write ([`Wal::dirty_tail`]).

use press_store::io::{self as store_io, IoBackend};
use press_store::{crc32, ByteReader};
use std::fmt;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal file magic.
pub const WAL_MAGIC: [u8; 8] = *b"PRESSWAL";
/// Journal format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;
/// Header length in bytes (magic + version + reserved).
pub const WAL_HEADER_LEN: u64 = 16;
/// Upper bound on a frame payload; anything larger is corruption, not a
/// record (the largest real record is a few dozen bytes).
pub const MAX_FRAME_LEN: u32 = 64 * 1024;
/// Buffered journal bytes that make [`Wal::append`] write the buffer:
/// the append that takes the buffer to this length or past it writes
/// every buffered frame, its own included.
pub const WRITE_CAP: usize = 64 * 1024;

/// Errors raised by the journal. Torn tails are NOT errors (see the
/// module docs); these are real I/O failures or acked-data corruption.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// Filesystem error, with the underlying message. Treated as
    /// *transient* by the engine's retry policy.
    Io(String),
    /// The device is out of space (`ENOSPC`). *Persistent*: retrying
    /// cannot help until space is freed, so the engine refuses the
    /// write upward as a typed storage-full error instead of retrying.
    StorageFull(String),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The journal version is not supported by this build.
    UnsupportedVersion { found: u32, supported: u32 },
    /// Acked journal content is damaged: a mid-journal checksum failure,
    /// an impossible frame length, or an undecodable record.
    Corrupt { offset: u64, detail: String },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            WalError::StorageFull(msg) => write!(f, "journal device out of space: {msg}"),
            WalError::BadMagic => write!(f, "not a PRESS ingest journal (bad magic)"),
            WalError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported journal version {found} (this build reads {supported})"
            ),
            WalError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        if store_io::is_storage_full(&e) {
            WalError::StorageFull(e.to_string())
        } else {
            WalError::Io(e.to_string())
        }
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, WalError>;

/// One journaled ingest event. `Point` frames are written on the hot
/// path; `Resume` frames exist only in checkpoint-rewritten journals so
/// a replay reconstructs cross-segment session state (last-accepted
/// fix) exactly as a clean run would have it. `Clock` frames open a
/// checkpoint-rewritten journal, and on a multi-shard engine they also
/// precede a record whenever the shard's journal clock lags a global
/// clock that a decision depended on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// An accepted GPS fix for `vehicle`.
    Point {
        vehicle: u64,
        x: f64,
        y: f64,
        t: f64,
    },
    /// Explicit end-of-trajectory for `vehicle`.
    Finalize { vehicle: u64 },
    /// Explicit end-of-trajectory for every live session.
    FinalizeAll,
    /// (Checkpoint only) re-establish `vehicle`'s session with this
    /// last-accepted fix, without re-ingesting it as a point.
    Resume {
        vehicle: u64,
        x: f64,
        y: f64,
        t: f64,
    },
    /// Advance the observed stream clock to `t`.
    Clock { t: f64 },
}

const TAG_POINT: u8 = 1;
const TAG_FINALIZE: u8 = 2;
const TAG_FINALIZE_ALL: u8 = 3;
const TAG_RESUME: u8 = 4;
const TAG_CLOCK: u8 = 5;

impl WalRecord {
    /// Length of the record's frame: the 8-byte length + CRC header and
    /// the payload [`WalRecord::decode`] reads.
    pub(crate) fn frame_len(&self) -> usize {
        let tag = match self {
            WalRecord::Point { .. } => TAG_POINT,
            WalRecord::Resume { .. } => TAG_RESUME,
            WalRecord::Finalize { .. } => TAG_FINALIZE,
            WalRecord::FinalizeAll => TAG_FINALIZE_ALL,
            WalRecord::Clock { .. } => TAG_CLOCK,
        };
        8 + Self::payload_len(tag).expect("a record's own tag") as usize
    }

    /// Payload length of a record with tag `tag`, `None` for no record's
    /// tag: every record of one tag has the same size.
    fn payload_len(tag: u8) -> Option<u32> {
        match tag {
            TAG_POINT | TAG_RESUME => Some(33),
            TAG_FINALIZE | TAG_CLOCK => Some(9),
            TAG_FINALIZE_ALL => Some(1),
            _ => None,
        }
    }

    /// Decodes one record payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> std::result::Result<WalRecord, String> {
        let mut r = ByteReader::new(payload);
        let mut read = || -> press_store::Result<Option<WalRecord>> {
            let rec = match r.get_u8()? {
                tag @ (TAG_POINT | TAG_RESUME) => {
                    let (vehicle, x, y, t) =
                        (r.get_u64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?);
                    if tag == TAG_POINT {
                        WalRecord::Point { vehicle, x, y, t }
                    } else {
                        WalRecord::Resume { vehicle, x, y, t }
                    }
                }
                TAG_FINALIZE => WalRecord::Finalize {
                    vehicle: r.get_u64()?,
                },
                TAG_FINALIZE_ALL => WalRecord::FinalizeAll,
                TAG_CLOCK => WalRecord::Clock { t: r.get_f64()? },
                _ => return Ok(None),
            };
            r.expect_end("wal record")?;
            Ok(Some(rec))
        };
        match read() {
            Ok(Some(rec)) => Ok(rec),
            Ok(None) => Err(format!("unknown record tag {}", payload[0])),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What [`Wal::open`] found and did; the records themselves went to
/// its `apply`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReplay {
    /// Bytes discarded from the torn tail (0 on a clean shutdown).
    pub torn_bytes: u64,
    /// Journal length after truncation (where appends resume).
    pub valid_len: u64,
    /// True when the journal was absent/empty and was initialized fresh.
    pub fresh: bool,
}

/// The append-only journal handle. One per ingest directory.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// End of the frame sequence: the bytes in the file plus `buf`.
    offset: u64,
    /// Whole frames sequenced since the last buffer write, in journal
    /// order; the file holds the first `offset - buf.len()` bytes.
    buf: Vec<u8>,
    /// The file side, holding no frames of its own; `None` while a
    /// group-commit batch has it (between `Wal::detach` and
    /// `Wal::attach`).
    file: Option<Batch>,
}

/// What a `Wal` method that must touch the file says when a group-commit
/// batch has it: the caller broke the rule that the batch is attached
/// back before the journal writes again.
const DETACHED: &str = "the journal file is out with a group-commit batch";

/// A journal's file side: the handle every write goes through, where the
/// written frames end, and the frames a group commit is writing.
/// Attached to its [`Wal`] it carries no frames; detached
/// (`Wal::detach`) it carries every frame that was buffered, and
/// `Batch::commit` writes and fsyncs them on whichever thread holds it.
/// The handle is the journal's own, not a `try_clone`: a fault injector
/// resolves a handle's path by its descriptor, so a batch's writes count
/// as that journal's operations like any other.
#[derive(Debug)]
pub(crate) struct Batch {
    io: Arc<dyn IoBackend>,
    file: File,
    path: PathBuf,
    /// Journal bytes in the file: where a repair truncates back to.
    written: u64,
    /// Frames not written yet, in journal order.
    frames: Vec<u8>,
    /// A failed write may have left a *prefix* of `frames` in the file
    /// (short write). Until that tail is truncated back to `written`,
    /// another write would turn recoverable torn bytes into mid-journal
    /// corruption — so writes and appends first repair, and if repair
    /// itself fails the flag stays set and the next one retries it.
    dirty_tail: bool,
}

impl Batch {
    /// Truncates a partial write back to the last written frame and
    /// repositions the cursor there.
    ///
    /// The truncation follows the same fsync discipline as
    /// `atomic_write_file` (`set_len` + `sync_data` +
    /// `sync_parent_dir`): until it is durable, a power cut could
    /// resurrect the partial frame *under* freshly written bytes —
    /// turning a recoverable torn tail into mid-journal corruption. A
    /// failure at any step leaves `dirty_tail` set, so the next write
    /// retries the whole repair.
    fn repair_tail(&mut self) -> Result<()> {
        self.io.set_len(&self.file, self.written)?;
        self.io.sync_data(&self.file)?;
        store_io::sync_parent_dir(self.io.as_ref(), &self.path)?;
        store_io::seek_to(&mut self.file, self.written)?;
        self.dirty_tail = false;
        Ok(())
    }

    /// Writes every frame with one `write_all`, repairing a dirty tail
    /// first. A failure keeps the frames and marks the tail dirty: a
    /// prefix of them may have landed.
    fn write(&mut self) -> Result<()> {
        if self.frames.is_empty() {
            return Ok(());
        }
        if self.dirty_tail {
            self.repair_tail()?;
        }
        if let Err(e) = self.io.write_all(&mut self.file, &self.frames) {
            self.dirty_tail = true;
            return Err(e.into());
        }
        self.written += self.frames.len() as u64;
        self.frames.clear();
        Ok(())
    }

    /// Writes the frames, then flushes the journal to stable storage
    /// (fsync): on success every frame up to the batch's end is durable.
    /// On failure the frames not written stay in the batch, and
    /// `Wal::attach` puts them back in front of the buffer.
    pub(crate) fn commit(&mut self) -> Result<()> {
        self.write()?;
        self.io.sync_data(&self.file)?;
        Ok(())
    }
}

/// Appends one CRC frame carrying `rec` to `buf`, encoding the payload
/// in place — the one frame writer behind [`Wal::create`] and
/// [`Wal::append`]. `Point` and `Resume` share one body layout and
/// differ only in the tag.
fn put_frame(buf: &mut Vec<u8>, rec: &WalRecord) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    match *rec {
        WalRecord::Point { vehicle, x, y, t } | WalRecord::Resume { vehicle, x, y, t } => {
            let resume = matches!(rec, WalRecord::Resume { .. });
            buf.push(if resume { TAG_RESUME } else { TAG_POINT });
            buf.extend_from_slice(&vehicle.to_le_bytes());
            for v in [x, y, t] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        WalRecord::Finalize { vehicle } => {
            buf.push(TAG_FINALIZE);
            buf.extend_from_slice(&vehicle.to_le_bytes());
        }
        WalRecord::FinalizeAll => buf.push(TAG_FINALIZE_ALL),
        WalRecord::Clock { t } => {
            buf.push(TAG_CLOCK);
            buf.extend_from_slice(&t.to_le_bytes());
        }
    }
    debug_assert_eq!(buf.len() - start, rec.frame_len());
    let payload = &buf[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Reads the frames after the header of `bytes`, a whole journal, in
/// order, handing each CRC-checked record to `apply`. Returns where the
/// valid frames end and the torn-tail length. See the module docs for
/// the torn-tail-vs-corruption rule; a record `apply` refuses is
/// `Corrupt` at its frame, wherever that frame sits.
fn replay_frames(
    bytes: &[u8],
    apply: &mut impl FnMut(&WalRecord) -> std::result::Result<(), String>,
) -> Result<(u64, u64)> {
    let mut off = WAL_HEADER_LEN as usize;
    let mut torn_bytes = 0u64;
    while off < bytes.len() {
        let rem = bytes.len() - off;
        if rem < 8 {
            torn_bytes = rem as u64;
            break;
        }
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        let crc = u32::from_le_bytes([
            bytes[off + 4],
            bytes[off + 5],
            bytes[off + 6],
            bytes[off + 7],
        ]);
        let corrupt = |detail: String| WalError::Corrupt {
            offset: off as u64,
            detail,
        };
        if len == 0 || len > MAX_FRAME_LEN {
            // Frames are single-write, so a partial frame is a strict
            // prefix; a *complete* length field this wrong is damage.
            return Err(corrupt(format!("impossible frame length {len}")));
        }
        // A torn frame is a prefix of a whole one, so its length is its
        // tag's. A length that disagrees, on a frame whose tag-sized body
        // fits with more journal after it and passes the frame's CRC, is
        // a damaged length field in front of acked records — whether it
        // reaches past EOF or exactly to it. A body that fails the CRC is
        // a damaged tag or payload, judged below like any other checksum
        // failure.
        let tagged = bytes
            .get(off + 8)
            .and_then(|&tag| WalRecord::payload_len(tag));
        let damaged_len = |want: u32| {
            let end = off + 8 + want as usize;
            want != len && end < bytes.len() && crc32(&bytes[off + 8..end]) == crc
        };
        if let Some(want) = tagged.filter(|&want| damaged_len(want)) {
            return Err(corrupt(format!(
                "frame length {len} but its tag's record is {want} bytes"
            )));
        }
        let frame_len = 8 + len as usize;
        if rem < frame_len {
            torn_bytes = rem as u64;
            break;
        }
        let payload = &bytes[off + 8..off + frame_len];
        if crc32(payload) != crc {
            if off + frame_len == bytes.len() {
                // Torn final frame: all bytes present but the write was
                // interrupted before they were all durable.
                torn_bytes = frame_len as u64;
                break;
            }
            return Err(corrupt("checksum mismatch mid-journal".into()));
        }
        WalRecord::decode(payload)
            .and_then(|rec| apply(&rec))
            .map_err(corrupt)?;
        off += frame_len;
    }
    Ok((off as u64, torn_bytes))
}

impl Wal {
    /// Opens (or creates) the journal at `path`, handing every acked
    /// record to `apply` in journal order as its frame is read, and
    /// truncating any torn tail. The journal is read through a
    /// read-only mapping ([`press_store::map_file`]), dropped before any
    /// truncation; no record outlives its call. A record `apply` refuses
    /// (an `Err` carrying why) makes the open a [`WalError::Corrupt`] at
    /// that frame. See the module docs for the exact
    /// torn-tail-vs-corruption rule. Every write goes through `io` (the
    /// real filesystem in production, a fault injector in tests); reads
    /// are always direct — the fault surface is the write side.
    pub fn open(
        path: &Path,
        io: Arc<dyn IoBackend>,
        mut apply: impl FnMut(&WalRecord) -> std::result::Result<(), String>,
    ) -> Result<(Wal, WalReplay)> {
        let map = match press_store::map_file(path) {
            Ok(map) => Some(map),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let bytes = map.as_ref().map_or(&[][..], |m| m.bytes());
        // Shorter than the header: either a fresh journal or a crash
        // during creation (header prefix). Both re-initialize.
        if (bytes.len() as u64) < WAL_HEADER_LEN {
            let replay = WalReplay {
                torn_bytes: bytes.len() as u64,
                valid_len: WAL_HEADER_LEN,
                fresh: bytes.is_empty(),
            };
            drop(map);
            let wal = Self::create(path, &[], Arc::clone(&io))?;
            store_io::sync_parent_dir(io.as_ref(), path)?;
            return Ok((wal, replay));
        }
        if bytes[..8] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion {
                found: version,
                supported: WAL_VERSION,
            });
        }
        let (valid_len, torn_bytes) = replay_frames(bytes, &mut apply)?;
        // Unmapped before the file can shrink under the mapping.
        drop(map);
        let mut file = io.open_rw(path)?;
        if torn_bytes > 0 {
            // Same fsync discipline as `atomic_write_file`: truncation
            // durable (data + parent directory) before any new frame
            // can land after it.
            io.set_len(&file, valid_len)?;
            io.sync_data(&file)?;
            store_io::sync_parent_dir(io.as_ref(), path)?;
        }
        store_io::seek_to(&mut file, valid_len)?;
        Ok((
            Wal::new(io, file, path, valid_len),
            WalReplay {
                torn_bytes,
                valid_len,
                fresh: false,
            },
        ))
    }

    /// Writes a brand-new journal containing `records` at `path`
    /// (overwriting anything there) and syncs its data. Its name is not
    /// durable until the caller fsyncs the directory: a checkpoint does
    /// once for its whole generation before the manifest rename commits
    /// it (see [`crate::manifest`]), [`Wal::open`] for a fresh journal.
    /// This is **not** an atomic replacement of a live journal.
    pub fn create(path: &Path, records: &[WalRecord], io: Arc<dyn IoBackend>) -> Result<Wal> {
        let mut buf = Vec::with_capacity(WAL_HEADER_LEN as usize + records.len() * 48);
        buf.extend_from_slice(&WAL_MAGIC);
        buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        for rec in records {
            put_frame(&mut buf, rec);
        }
        let file = store_io::write_synced(io.as_ref(), path, &buf)?;
        Ok(Wal::new(io, file, path, buf.len() as u64))
    }

    /// A journal whose file, positioned at its end, holds `len` bytes.
    fn new(io: Arc<dyn IoBackend>, file: File, path: &Path, len: u64) -> Wal {
        Wal {
            path: path.to_path_buf(),
            offset: len,
            buf: Vec::new(),
            file: Some(Batch {
                io,
                file,
                path: path.to_path_buf(),
                written: len,
                frames: Vec::new(),
                dirty_tail: false,
            }),
        }
    }

    /// Sequences one record: encodes its frame into the buffer and
    /// returns the journal length with this frame included. The frame
    /// reaches the file at the next buffer write — in a group-commit
    /// batch, or here once the buffer reaches [`WRITE_CAP`] — and
    /// survives power loss once a sync covers it.
    ///
    /// On failure the record is **not** sequenced and the error is
    /// typed ([`WalError::StorageFull`] vs transient [`WalError::Io`]).
    /// A failed cap write keeps the frames before this one buffered and
    /// may leave a prefix of them in the file; the journal remembers
    /// that ([`Wal::dirty_tail`]) and truncates it away before the next
    /// write, so the file stays a clean prefix of the frame sequence and
    /// a crash in between still recovers (a partial frame is exactly
    /// the torn tail [`Wal::open`] discards).
    ///
    /// # Panics
    ///
    /// When the append has to write (a dirty tail, or a buffer at
    /// [`WRITE_CAP`]) while a group-commit batch has the file.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        if self.dirty_tail() {
            self.file.as_mut().expect(DETACHED).repair_tail()?;
        }
        let start = self.buf.len();
        put_frame(&mut self.buf, rec);
        let frame_len = (self.buf.len() - start) as u64;
        if self.buf.len() >= WRITE_CAP {
            let mut batch = self.detach();
            let written = batch.write();
            self.attach(batch);
            if let Err(e) = written {
                self.buf.truncate(start);
                return Err(e);
            }
        }
        self.offset += frame_len;
        Ok(self.offset)
    }

    /// True when appending frames of `bytes` bytes in all would touch
    /// the file: a dirty tail to repair first, or a buffer they take to
    /// [`WRITE_CAP`].
    pub(crate) fn append_writes(&self, bytes: usize) -> bool {
        self.dirty_tail() || self.buf.len() + bytes >= WRITE_CAP
    }

    /// True when a failed write left partial bytes that have not been
    /// repaired yet (the next append or write will retry the repair
    /// first). False while a group-commit batch has the file: the batch
    /// repairs its own tail before it writes.
    pub fn dirty_tail(&self) -> bool {
        self.file.as_ref().is_some_and(|f| f.dirty_tail)
    }

    /// Hands the file side over with every buffered frame as one
    /// group-commit batch; appends go on filling an empty buffer until
    /// `Wal::attach` brings the file back.
    pub(crate) fn detach(&mut self) -> Batch {
        let mut batch = self.file.take().expect(DETACHED);
        std::mem::swap(&mut batch.frames, &mut self.buf);
        batch
    }

    /// Takes a batch's file side back. Frames the batch did not write go
    /// back in front of the buffer, ahead of everything appended
    /// meanwhile, so the buffer stays in journal order.
    pub(crate) fn attach(&mut self, mut batch: Batch) {
        if !batch.frames.is_empty() {
            batch.frames.extend_from_slice(&self.buf);
            std::mem::swap(&mut batch.frames, &mut self.buf);
        }
        batch.frames.clear();
        self.file = Some(batch);
    }

    /// Writes the buffered frames, then flushes the journal to stable
    /// storage (fsync): on success every frame up to [`Wal::offset`] is
    /// durable. On failure the unwritten frames stay buffered for the
    /// next sync. This is one group-commit batch, run on the calling
    /// thread.
    pub fn sync(&mut self) -> Result<()> {
        let mut batch = self.detach();
        let synced = batch.commit();
        self.attach(batch);
        synced
    }

    /// Current journal length (the last returned append offset),
    /// buffered frames included.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Closes a journal a checkpoint superseded without writing its
    /// buffered frames: the rewritten journal holds their state, and
    /// this file is garbage once the new generation is live.
    pub(crate) fn discard(mut self) {
        self.buf.clear();
    }
}

impl Drop for Wal {
    /// Writes the buffered frames, best effort and without a sync — the
    /// `BufWriter` idiom. [`Wal::sync`] reports what this ignores.
    fn drop(&mut self) {
        if self.file.is_some() {
            let mut batch = self.detach();
            let _ = batch.write();
            self.attach(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("press-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Opens the journal at `path`, collecting the records it replays.
    fn open_collect(path: &Path, io: Arc<dyn IoBackend>) -> (Wal, WalReplay, Vec<WalRecord>) {
        let mut records = Vec::new();
        let (wal, replay) = Wal::open(path, io, |rec| {
            records.push(*rec);
            Ok(())
        })
        .expect("open");
        (wal, replay, records)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Clock { t: 12.5 },
            WalRecord::Resume {
                vehicle: 9,
                x: 1.0,
                y: -2.0,
                t: 3.5,
            },
            WalRecord::Point {
                vehicle: 1,
                x: 10.0,
                y: 20.0,
                t: 30.0,
            },
            WalRecord::Point {
                vehicle: 2,
                x: -0.5,
                y: 7.25,
                t: 31.0,
            },
            WalRecord::Finalize { vehicle: 1 },
            WalRecord::FinalizeAll,
        ]
    }

    #[test]
    fn roundtrips_all_record_types() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("ingest.wal");
        let recs = sample_records();
        {
            let (mut wal, replay, records) = open_collect(&path, store_io::real_io());
            assert!(replay.fresh);
            assert!(records.is_empty());
            let mut last = WAL_HEADER_LEN;
            for r in &recs {
                let off = wal.append(r).expect("append");
                assert!(off > last, "offsets strictly increase");
                last = off;
            }
            wal.sync().expect("sync");
        }
        let (wal, replay, records) = open_collect(&path, store_io::real_io());
        assert!(!replay.fresh);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(records, recs);
        assert_eq!(wal.offset(), replay.valid_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_writes_a_reopenable_journal_and_appends_continue() {
        let dir = tmp_dir("create");
        let path = dir.join("ingest.1.wal");
        let kept = vec![
            WalRecord::Clock { t: 99.0 },
            WalRecord::Point {
                vehicle: 7,
                x: 0.0,
                y: 0.0,
                t: 98.0,
            },
        ];
        let mut wal = Wal::create(&path, &kept, store_io::real_io()).expect("create");
        let post = wal
            .append(&WalRecord::Finalize { vehicle: 7 })
            .expect("append");
        assert!(post > WAL_HEADER_LEN);
        // Until a sync (or a drop) writes it, the appended frame is
        // only buffered: the file holds exactly what `create` wrote.
        let (_, _, records) = open_collect(&path, store_io::real_io());
        assert_eq!(records, kept);
        wal.sync().expect("sync");
        let (_, _, records) = open_collect(&path, store_io::real_io());
        assert_eq!(records.len(), 3);
        assert_eq!(records[..2], kept[..]);
        assert_eq!(records[2], WalRecord::Finalize { vehicle: 7 });
        drop(wal);
        // Overwrites whatever was there before.
        let wal2 = Wal::create(&path, &kept[..1], store_io::real_io()).expect("recreate");
        drop(wal2);
        let (_, _, records) = open_collect(&path, store_io::real_io());
        assert_eq!(records, kept[..1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).expect("meta").len()
    }

    /// Appends `FinalizeAll` records — the shortest frame, so none
    /// reaches the cap before `next` would — to a journal whose file
    /// holds `written` bytes, until appending `next` would reach
    /// [`WRITE_CAP`] and so write the buffer. Returns the appended
    /// records.
    fn fill_to_cap(wal: &mut Wal, written: u64, next: &WalRecord) -> Vec<WalRecord> {
        let mut next_frame = Vec::new();
        put_frame(&mut next_frame, next);
        let mut recs = Vec::new();
        while (wal.offset() - written) as usize + next_frame.len() < WRITE_CAP {
            wal.append(&WalRecord::FinalizeAll)
                .expect("buffered append");
            recs.push(WalRecord::FinalizeAll);
        }
        assert_eq!(
            file_len(&wal.path),
            written,
            "appends below the cap only buffer"
        );
        recs
    }

    #[test]
    fn failed_append_is_typed_and_partial_frame_is_repaired() {
        use press_store::io::{DiskFault, FaultKind, FaultyIo};
        let dir = tmp_dir("fault-append");
        let path = dir.join("ingest.wal");
        let io = FaultyIo::new(Vec::new());
        let (mut wal, _, _) = open_collect(&path, io.clone());
        let next = WalRecord::Finalize { vehicle: 1 };
        let mut acked = fill_to_cap(&mut wal, WAL_HEADER_LEN, &next);
        let ok_off = wal.offset();
        // The append that reaches the cap writes the buffer: a short
        // write leaves a partial frame and surfaces StorageFull.
        io.arm(DiskFault {
            at_op: io.ops(),
            kind: FaultKind::ShortWrite,
            sticky: false,
        });
        let err = wal.append(&next).expect_err("short write");
        assert!(matches!(err, WalError::StorageFull(_)));
        assert!(wal.dirty_tail());
        assert_eq!(wal.offset(), ok_off, "failed append sequenced nothing");
        assert!(
            file_len(&path) > WAL_HEADER_LEN,
            "partial frame bytes really landed"
        );
        // The next append repairs the tail first, then its cap write
        // lands every frame still buffered; the journal replays to
        // exactly the sequenced records.
        let off2 = wal.append(&next).expect("repaired append");
        assert!(off2 > ok_off);
        assert!(!wal.dirty_tail());
        assert_eq!(file_len(&path), off2, "the cap write emptied the buffer");
        acked.push(next);
        drop(wal);
        let (_, replay, records) = open_collect(&path, store_io::real_io());
        assert_eq!(replay.torn_bytes, 0, "repair removed the partial frame");
        assert_eq!(records, acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_repair_sync_keeps_the_tail_dirty_until_it_succeeds() {
        use press_store::io::{DiskFault, FaultKind, FaultyIo};
        let dir = tmp_dir("fault-repair-sync");
        let path = dir.join("ingest.wal");
        let io = FaultyIo::new(Vec::new());
        let (mut wal, _, _) = open_collect(&path, io.clone());
        let ok_off = wal
            .append(&WalRecord::Point {
                vehicle: 1,
                x: 1.0,
                y: 2.0,
                t: 3.0,
            })
            .expect("clean append");
        // The sync's buffer write is short: the tail is dirty and the
        // frame stays buffered, still sequenced.
        io.arm(DiskFault {
            at_op: io.ops(),
            kind: FaultKind::ShortWrite,
            sticky: false,
        });
        assert!(wal.sync().is_err());
        assert!(wal.dirty_tail());
        assert_eq!(wal.offset(), ok_off);
        // Fail exactly the repair's fsync: the next append truncates
        // (set_len passes) but the sync trips, so the repair must not
        // be considered done — the tail stays dirty and nothing acks.
        io.arm(DiskFault {
            at_op: io.ops(),
            kind: FaultKind::SyncFail,
            sticky: false,
        });
        let err = wal
            .append(&WalRecord::FinalizeAll)
            .expect_err("repair sync");
        assert!(matches!(err, WalError::Io(_)));
        assert!(wal.dirty_tail(), "unsynced repair keeps the flag");
        assert_eq!(wal.offset(), ok_off);
        // With the fault disarmed the full repair (truncate + fsync +
        // dir fsync) completes and the append lands.
        let off2 = wal.append(&WalRecord::FinalizeAll).expect("repaired");
        assert!(off2 > ok_off);
        assert!(!wal.dirty_tail());
        wal.sync().expect("sync");
        assert_eq!(file_len(&path), off2);
        drop(wal);
        let (_, replay, records) = open_collect(&path, store_io::real_io());
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            records,
            vec![
                WalRecord::Point {
                    vehicle: 1,
                    x: 1.0,
                    y: 2.0,
                    t: 3.0
                },
                WalRecord::FinalizeAll,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_eio_on_append_and_sync_is_typed_io() {
        use press_store::io::{DiskFault, FaultKind, FaultyIo};
        let dir = tmp_dir("fault-eio");
        let path = dir.join("ingest.wal");
        let io = FaultyIo::new(Vec::new());
        let (mut wal, _, _) = open_collect(&path, io.clone());
        let eio = |io: &FaultyIo, kind| {
            io.arm(DiskFault {
                at_op: io.ops(),
                kind,
                sticky: false,
            })
        };
        // EIO on the append that writes at the cap.
        let mut acked = fill_to_cap(&mut wal, WAL_HEADER_LEN, &WalRecord::FinalizeAll);
        eio(&io, FaultKind::Eio);
        assert!(matches!(
            wal.append(&WalRecord::FinalizeAll),
            Err(WalError::Io(_))
        ));
        // EIO writes nothing, but the journal still repairs defensively;
        // the retry succeeds.
        wal.append(&WalRecord::FinalizeAll).expect("retry");
        acked.push(WalRecord::FinalizeAll);
        // EIO on the buffer write inside a sync, then on its fsync.
        wal.append(&WalRecord::FinalizeAll).expect("buffered");
        acked.push(WalRecord::FinalizeAll);
        eio(&io, FaultKind::Eio);
        assert!(matches!(wal.sync(), Err(WalError::Io(_))));
        wal.sync().expect("sync retry");
        eio(&io, FaultKind::SyncFail);
        assert!(matches!(wal.sync(), Err(WalError::Io(_))));
        wal.sync().expect("sync retry");
        drop(wal);
        let (_, _, records) = open_collect(&path, store_io::real_io());
        assert_eq!(records, acked);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
