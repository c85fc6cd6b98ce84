//! The streaming ingest engine: N independent writer shards (vehicle-hash
//! routing) feeding the PRESS pipeline (match → reformat → HSC + BTC),
//! each behind its own crash-safe WAL.
//!
//! # Failure domains
//!
//! A failure domain is a **shard**, not the fleet. Each shard owns its
//! own CRC-framed journal (`ingest.<gen>.s<k>.wal`), its own
//! [`DurabilityPolicy`] accumulators, its own session map and share of
//! the memory budget, and its own [`IngestStats`]. A `StorageFull` /
//! sticky-I/O / corrupt-journal fault on shard *k* surfaces as
//! [`ServeError::ShardDegraded`] naming *k*; pushes routed to healthy
//! shards keep acking, the published corpus keeps serving, and the
//! degraded shard's rejections never leak into healthy shards'
//! counters. The rule does not depend on the shard count: a
//! single-shard engine reports its failures as shard 0's.
//!
//! # Ack and durability contract
//!
//! [`IngestEngine::push`] vets each fix ([`crate::Session::vet`]),
//! journals the accepted ones in the owning shard, and only then
//! buffers them. A shard's journal frames collect in memory and reach
//! the file in one write per group commit: the configured
//! [`DurabilityPolicy`] group-commits each shard's journal
//! independently (byte / stream-time thresholds).
//!
//! The group commit's write + fsync runs off the push thread. The push
//! that trips a trigger hands its shard's journal file and buffered
//! frames over as one batch to the engine's journal-syncer thread
//! (spawned at the first trigger, joined on drop) and returns at once;
//! the syncer runs batches strictly in the order they were queued, with
//! the policy's retry and backoff. Each shard has at most one batch out.
//! The push thread *settles* finished batches, in queue order, only at
//! fixed points of the program, never at a moment the disk's speed
//! picks: at that shard's next trigger, before any backend operation
//! the push thread makes itself (a cap write, a tail repair, a
//! checkpoint, a manifest sync), in [`IngestEngine::sync`], and on
//! drop. Settling moves the shard's durability watermark and books the
//! batch in [`IngestStats`]; a failed batch's unwritten frames go back
//! in front of the buffer. Because the push thread never makes a
//! backend operation while a batch is queued, the backend sees the
//! operations of the inline group commit this replaces, in the same
//! order.
//!
//! Acks never overstate what happened: every ingested fix is acked
//! [`Ack::Journaled`] — sequenced in the journal, and appended after
//! every batch that can have settled by the time its push returns, so
//! not yet synced (a process crash as well as a power cut can still
//! lose it). The push that trips a trigger acks `Journaled` too: its
//! fix becomes durable when its batch settles, at the shard's next
//! settle point, or at [`IngestEngine::sync`]. The per-shard durability
//! watermark ([`IngestEngine::shard_durable_offset`]) says which
//! journaled offsets have become durable since. Rejected and coalesced
//! fixes are acked without journaling — replays reproduce the identical
//! decisions because validation only depends on journaled state.
//!
//! # One state machine per shard
//!
//! A shard is a pure core — sessions, idle index, segment counters,
//! pending queue, budget share, counters, and its own journal-local
//! clock and arrival counter — inside a shell that owns the journal,
//! the durability accumulators and the batch it has out. The core changes only
//! through `ShardCore::apply(&WalRecord)`: live ingest journals a record
//! and then applies that same record, and recovery applies every
//! replayed record in order. Recovery is the live path by construction.
//!
//! # Determinism across shard counts
//!
//! The stream clock (`max_time`) is global; every shard-scoped decision
//! (idle sweeps, vetting) happens after a read-ahead sweep catches the
//! shard up to it, so segmentation is independent of the shard count.
//! Finalized pieces carry a canonical merge key — `(vehicle, segment
//! sequence, piece)` — and the published corpus is built in key order,
//! so its bytes are identical for any shard count and any flush-worker
//! count. A shard journals a `Clock` frame with the global clock
//! whenever its own journal clock lags it and a decision depends on the
//! difference: after a read-ahead sweep closed sessions, and before a
//! fix that is already idle at the global clock. Per-shard replay then
//! reproduces the same cuts without reading any other shard's journal.
//!
//! # Recovery
//!
//! [`IngestEngine::open`] reads the `MANIFEST` to find the committed
//! generation and shard count, then recovers every shard **in
//! parallel** on the shared work-steal loop: load the shard's
//! checkpointed corpus slice (`corpus.<gen>.s<k>.press`), apply every
//! record of its journal through `ShardCore::apply` as its frame is read
//! from a mapping of the file, truncate any torn tail. Artifacts from
//! any other generation are uncommitted checkpoint leftovers and are
//! garbage-collected. The rebuilt engine is in the same state a clean
//! run would reach after pushing exactly the acked prefix of each shard
//! — the recovery proptests assert the resulting corpora are
//! byte-identical. Opening a directory with a
//! shard count other than the one its manifest commits is a typed
//! [`ServeError::Config`] (resharding is not supported).
//!
//! # Checkpoints
//!
//! [`IngestEngine::checkpoint`] flushes pending segments, then commits
//! the corpus shard files and the shrunk per-shard journals as **one
//! atomic set**: every file is written and synced under its final
//! next-generation name, one directory fsync makes the names durable,
//! and a single [`crate::manifest`] rename flips recovery to the new
//! set. A crash at any byte of the checkpoint lands on a complete
//! generation: the old shard set with the full old journals, or the new
//! set with exactly its in-flight tails.

use crate::durability::DurabilityPolicy;
use crate::manifest;
use crate::session::{Disposition, QuarantineReason, SessionPolicy};
use crate::shard::{PendingSegment, ShardCore};
use crate::wal::{Batch, Wal, WalError, WalRecord};
use press_core::reformat::{reformat, PathSample};
use press_core::store::TrajectoryStore;
use press_core::{parallel::work_steal_map, query::QueryEngine};
use press_core::{CompressedTrajectory, HscModel, Press, PressError};
use press_matcher::{GpsSample, MapMatcher, MatcherError};
use press_store::io::{self as store_io, IoBackend};
use press_store::{ByteReader, ByteWriter};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};

/// Errors surfaced by the ingest engine.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure outside the journal.
    Io(String),
    /// Journal failure (see [`WalError`]).
    Wal(WalError),
    /// Compression/query-layer failure.
    Press(PressError),
    /// Invalid engine configuration.
    Config(String),
    /// The checkpoint manifest is damaged or inconsistent with the
    /// directory contents.
    Manifest(String),
    /// The device is out of space (`ENOSPC`). Persistent — retrying
    /// cannot free the disk — so the engine refuses the write with
    /// state unchanged and keeps serving queries; ingest resumes once
    /// space returns.
    StorageFull(String),
    /// A transient I/O failure survived the whole retry budget. The
    /// rejected fix was not ingested; the engine state is unchanged
    /// and the caller may re-push later.
    Backpressure {
        /// The last underlying I/O error message.
        detail: String,
        /// Retries performed before giving up.
        retries: u32,
    },
    /// A shard-scoped durable write failed: only `shard` is degraded —
    /// pushes routed to other shards keep acking and the published
    /// corpus keeps serving. `cause` is the underlying typed failure
    /// ([`ServeError::StorageFull`], [`ServeError::Backpressure`], …);
    /// the fix was **not** ingested and the shard stays recoverable.
    /// Every shard-scoped write failure takes this form, at any shard
    /// count.
    ShardDegraded {
        /// The shard whose journal refused the write.
        shard: usize,
        /// The underlying failure.
        cause: Box<ServeError>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "ingest I/O error: {msg}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Press(e) => write!(f, "{e}"),
            ServeError::Config(msg) => write!(f, "invalid ingest config: {msg}"),
            ServeError::Manifest(msg) => write!(f, "ingest manifest error: {msg}"),
            ServeError::StorageFull(msg) => write!(f, "ingest device out of space: {msg}"),
            ServeError::Backpressure { detail, retries } => {
                write!(f, "ingest backpressure after {retries} retries: {detail}")
            }
            ServeError::ShardDegraded { shard, cause } => {
                write!(f, "ingest shard {shard} degraded: {cause}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// The underlying failure of a [`ServeError::ShardDegraded`]
    /// (identity for every other variant).
    pub fn root_cause(&self) -> &ServeError {
        match self {
            ServeError::ShardDegraded { cause, .. } => cause,
            other => other,
        }
    }

    /// The degraded shard, when this error is shard-scoped.
    pub fn degraded_shard(&self) -> Option<usize> {
        match self {
            ServeError::ShardDegraded { shard, .. } => Some(*shard),
            _ => None,
        }
    }

    /// True when the root cause is [`ServeError::StorageFull`] —
    /// matches whether or not the error is wrapped in
    /// [`ServeError::ShardDegraded`].
    pub fn is_storage_full(&self) -> bool {
        matches!(self.root_cause(), ServeError::StorageFull(_))
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::StorageFull(msg) => ServeError::StorageFull(msg),
            other => ServeError::Wal(other),
        }
    }
}

impl From<PressError> for ServeError {
    fn from(e: PressError) -> Self {
        ServeError::Press(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        if store_io::is_storage_full(&e) {
            ServeError::StorageFull(e.to_string())
        } else {
            ServeError::Io(e.to_string())
        }
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Most recent quarantined fixes the engine keeps for inspection
/// ([`IngestEngine::quarantine_log`]).
pub const QUARANTINE_LOG_CAP: usize = 1024;
/// Most recent evicted vehicle ids each shard keeps for inspection
/// ([`IngestEngine::eviction_log`]).
pub const EVICTION_LOG_CAP: usize = 1024;

/// Engine configuration. Compression parameters (θ, BTC bounds,
/// decomposer) come from the [`Press`] handle, not from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Input-hardening policy applied per fix.
    pub policy: SessionPolicy,
    /// Seconds of *stream* time (not wall clock — recovery must replay
    /// identically) after which a silent session is finalized; `<= 0.0`
    /// disables idle finalization.
    pub idle_timeout: f64,
    /// Segment rollover size: a session's buffer is cut into a pending
    /// segment when it reaches this many points. `0` disables (unbounded
    /// sessions; not recommended for long-lived fleets).
    pub max_session_points: usize,
    /// Trajectories per block in the published corpus.
    pub block_size: usize,
    /// Worker threads for parallel segment matching in
    /// [`IngestEngine::flush`] and parallel shard recovery in
    /// [`IngestEngine::open`].
    pub threads: usize,
    /// Deterministic matcher budget (Viterbi lattice transitions); a
    /// segment whose lattice exceeds this is shed, not matched. `0`
    /// disables shedding.
    pub max_lattice_work: u64,
    /// Degraded-mode salvage: how many times a segment may be split on
    /// `BrokenChain`/`InvalidSample` before the remainder is dropped.
    pub max_salvage_splits: usize,
    /// When each shard fsyncs its journal and how it retries transient
    /// write failures (see [`DurabilityPolicy`]); every shard runs its
    /// own independent instance of this policy. Only sync *timing* —
    /// never corpus bytes — depends on this.
    pub durability: DurabilityPolicy,
    /// Memory budget: total points buffered across live sessions,
    /// divided evenly across shards (each shard enforces
    /// `ceil(max_buffered_points / shards)`). When an accepted fix
    /// pushes a shard past its share, that shard's least-recently-active
    /// sessions are evicted (finalized to the pending queue — their
    /// points are already WAL-backed) until the budget holds. `0`
    /// disables. Eviction is driven purely by journaled state, so
    /// replay reproduces it exactly.
    pub max_buffered_points: usize,
    /// Memory budget: live session count (per-shard share, same LRU
    /// eviction). `0` disables.
    pub max_sessions: usize,
    /// Independent writer shards. Vehicles are routed by hash, and each
    /// shard owns its own journal, durability accumulators, sessions,
    /// memory-budget share, and stats — a disk fault degrades one
    /// shard, not the fleet. `1` (the default) reproduces the
    /// historical single-writer engine byte-for-byte. A directory is
    /// committed to its shard count at creation; reopening with a
    /// different count is a typed error.
    pub shards: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            policy: SessionPolicy::default(),
            idle_timeout: 600.0,
            max_session_points: 4096,
            block_size: 8,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_lattice_work: 2_000_000,
            max_salvage_splits: 8,
            durability: DurabilityPolicy::default(),
            max_buffered_points: 0,
            max_sessions: 0,
            shards: 1,
        }
    }
}

/// The engine's answer for one pushed fix. Acks never lie about
/// durability: `Journaled` means the fix is sequenced but its covering
/// group-commit sync has not completed yet — its frame is appended
/// after every batch that can have settled by the time the push
/// returns. Durability is read from
/// [`IngestEngine::shard_durable_offset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ack {
    /// Fix journaled and buffered, not yet synced. `offset` is the
    /// owning shard's journal length with this fix's frame included;
    /// the fix becomes durable when a settled group-commit batch,
    /// explicit [`IngestEngine::sync`], or checkpoint advances that
    /// shard's durability watermark past it. Until then its frame may
    /// still sit in the shard's in-memory journal buffer, so a process
    /// crash as well as a power cut can lose it — and then every later
    /// frame of that shard with it: recovery replays a prefix of the
    /// journal.
    ///
    /// The push that trips a group-commit trigger acks `Journaled` as
    /// well: it hands its shard's batch to the syncer thread and
    /// returns before the fsync. Its fix becomes durable when that
    /// batch settles — at the shard's next settle point (its next
    /// trigger, a push-thread journal write, a checkpoint or drop) — or
    /// at [`IngestEngine::sync`], which settles every batch and syncs
    /// every shard before it returns. [`DurabilityPolicy::per_push`]
    /// still issues one fsync per push, each one settled by the shard's
    /// next push; a caller that needs a durable answer calls `sync`.
    Journaled { offset: u64 },
    /// Harmless defect repaired per policy (duplicate coalesced); the
    /// fix is intentionally not journaled.
    Repaired,
    /// Fix rejected into quarantine with a typed reason.
    Quarantined(QuarantineReason),
}

impl Ack {
    /// The journal offset for ingested (`Journaled`) fixes, `None` for
    /// repaired or quarantined ones.
    pub fn offset(&self) -> Option<u64> {
        match *self {
            Ack::Journaled { offset } => Some(offset),
            Ack::Repaired | Ack::Quarantined(_) => None,
        }
    }

    /// True when the fix was ingested (journaled and buffered),
    /// whether or not its covering sync has happened yet.
    pub fn is_ingested(&self) -> bool {
        self.offset().is_some()
    }
}

/// A quarantined fix, kept in a bounded log for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineRecord {
    /// Vehicle whose fix was rejected.
    pub vehicle: u64,
    /// The offending fix, verbatim.
    pub sample: GpsSample,
    /// Why it was rejected.
    pub reason: QuarantineReason,
}

/// Ingest counters. Kept **per shard** — a faulted shard's rejections
/// never appear in a healthy shard's counters
/// ([`IngestEngine::shard_stats`]); [`IngestEngine::stats`] is the
/// summed fleet-wide view. Observability only — counters are rebuilt
/// from the journal on recovery, so quarantine/repair counts (which are
/// never journaled) restart at zero after a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Fixes accepted (journaled and buffered), including replayed ones.
    pub points_accepted: u64,
    /// Fixes repaired by coalescing.
    pub points_repaired: u64,
    /// Fixes quarantined, by [`QuarantineReason::index`].
    pub points_quarantined: [u64; 3],
    /// Segments finalized by the idle sweep.
    pub segments_idle: u64,
    /// Segments cut by the session-size rollover.
    pub segments_cap: u64,
    /// Segments finalized explicitly.
    pub segments_explicit: u64,
    /// Matched pieces compressed into the corpus.
    pub pieces_compressed: u64,
    /// Salvage splits performed across all flushed segments.
    pub salvage_splits: u64,
    /// Pieces dropped (unmatchable even after salvage).
    pub pieces_dropped: u64,
    /// Of the dropped pieces, how many were shed by the lattice budget.
    pub pieces_shed: u64,
    /// Successful journal fsyncs: settled group-commit batches and
    /// explicit syncs (a checkpoint's new journals are not counted).
    pub sync_calls: u64,
    /// Frames made durable by those syncs (group-commit batch total;
    /// average batch = `synced_frames / sync_calls`).
    pub synced_frames: u64,
    /// Transient I/O failures that were retried (append or sync).
    pub io_retries: u64,
    /// Sync attempts that failed even after retries (the engine stays
    /// up; the frames remain journaled-not-durable until a later sync
    /// succeeds). A group-commit batch's failure is counted once, when
    /// the batch settles.
    pub sync_failures: u64,
    /// Sessions evicted by the memory budget (LRU order).
    pub sessions_evicted: u64,
    /// Pushes refused with [`ServeError::Backpressure`].
    pub backpressure_rejections: u64,
    /// Pushes refused with [`ServeError::StorageFull`].
    pub storage_full_rejections: u64,
}

impl IngestStats {
    /// Total quarantined fixes across all reasons.
    pub fn total_quarantined(&self) -> u64 {
        self.points_quarantined.iter().sum()
    }

    /// Mean group-commit batch size in frames (0.0 before any sync).
    pub fn avg_sync_batch(&self) -> f64 {
        if self.sync_calls == 0 {
            0.0
        } else {
            self.synced_frames as f64 / self.sync_calls as f64
        }
    }

    /// Adds `other`'s counters into `self` (the summed fleet-wide view).
    pub fn accumulate(&mut self, other: &IngestStats) {
        self.points_accepted += other.points_accepted;
        self.points_repaired += other.points_repaired;
        for (mine, theirs) in self
            .points_quarantined
            .iter_mut()
            .zip(other.points_quarantined)
        {
            *mine += theirs;
        }
        self.segments_idle += other.segments_idle;
        self.segments_cap += other.segments_cap;
        self.segments_explicit += other.segments_explicit;
        self.pieces_compressed += other.pieces_compressed;
        self.salvage_splits += other.salvage_splits;
        self.pieces_dropped += other.pieces_dropped;
        self.pieces_shed += other.pieces_shed;
        self.sync_calls += other.sync_calls;
        self.synced_frames += other.synced_frames;
        self.io_retries += other.io_retries;
        self.sync_failures += other.sync_failures;
        self.sessions_evicted += other.sessions_evicted;
        self.backpressure_rejections += other.backpressure_rejections;
        self.storage_full_rejections += other.storage_full_rejections;
    }
}

/// What [`IngestEngine::open`] found on disk and rebuilt, summed across
/// all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Trajectories loaded from the checkpointed corpus shard files.
    pub corpus_trajectories: usize,
    /// `Point` frames replayed from the journals.
    pub replayed_points: u64,
    /// Bytes truncated from the journals' torn tails.
    pub torn_bytes: u64,
    /// True when no journal existed on any shard (fresh directory).
    pub wal_was_fresh: bool,
    /// Live sessions rebuilt by the replay.
    pub sessions_rebuilt: usize,
    /// Points sitting in session buffers or pending segments after the
    /// replay (accepted but not yet in the corpus).
    pub points_in_flight: usize,
}

/// Canonical merge key of one finalized piece: the vehicle id, its
/// per-vehicle segment sequence number and the salvage piece index. The
/// published corpus is built in key order, which is independent of
/// shard count, flush batching, and thread count. Keys are unique
/// across shards, because a vehicle routes to exactly one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TrajKey {
    vehicle: u64,
    seg: u64,
    piece: u32,
}

/// Name of the corpus extra section carrying the merge keys and the
/// per-vehicle segment-sequence counters (see `encode_ingest_section`).
const INGEST_SECTION: &str = "ingest";
/// Version tag of the `ingest` section payload. Version 1 was the
/// fixed-width layout (21 B per key, 16 B per counter); version 2 led
/// each key with a rank byte for keys adopted from a pre-sharding
/// corpus. Both are refused.
const INGEST_SECTION_VERSION: u32 = 3;

/// Serializes a shard's merge keys (in its trajectory order) and
/// per-vehicle `next_seg` counters into the corpus `ingest` section.
/// Keys arrive sorted and counters are sorted by vehicle here, so the
/// bytes are canonical and the vehicle ids delta down to a byte (the
/// delta wraps, so any order still round-trips).
fn encode_ingest_section<'a>(
    keys: impl ExactSizeIterator<Item = &'a TrajKey>,
    next_seg: &HashMap<u64, u64>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + keys.len() * 4 + next_seg.len() * 2);
    w.put_u32(INGEST_SECTION_VERSION);
    w.put_uvarint(keys.len() as u64);
    let mut prev = 0u64;
    for k in keys {
        w.put_uvarint(k.vehicle.wrapping_sub(prev));
        w.put_uvarint(k.seg);
        w.put_uvarint(u64::from(k.piece));
        prev = k.vehicle;
    }
    let mut counters: Vec<(u64, u64)> = next_seg.iter().map(|(&v, &s)| (v, s)).collect();
    counters.sort_unstable();
    w.put_uvarint(counters.len() as u64);
    let mut prev = 0u64;
    for (v, s) in counters {
        w.put_uvarint(v.wrapping_sub(prev));
        w.put_uvarint(s);
        prev = v;
    }
    w.into_bytes()
}

/// Parses the `ingest` section back; a corpus without one is refused.
/// `n_trajs` is the number of trajectories in the corpus file — the key
/// list must match it exactly or the sidecar is corrupt.
fn decode_ingest_section(
    section: Option<&[u8]>,
    n_trajs: usize,
) -> Result<(Vec<TrajKey>, HashMap<u64, u64>)> {
    fn bad(e: impl fmt::Display) -> ServeError {
        ServeError::Manifest(format!("corpus ingest section: {e}"))
    }
    let mut r = ByteReader::new(section.ok_or_else(|| bad("missing"))?);
    let version = r.get_u32().map_err(bad)?;
    if version != INGEST_SECTION_VERSION {
        return Err(bad(format_args!("unsupported version {version}")));
    }
    let n = r.get_uvarint().map_err(bad)?;
    if n != n_trajs as u64 {
        return Err(bad(format_args!(
            "key count {n} does not match corpus trajectory count {n_trajs}"
        )));
    }
    let mut keys = Vec::with_capacity(n_trajs);
    let mut vehicle = 0u64;
    for _ in 0..n_trajs {
        vehicle = vehicle.wrapping_add(r.get_uvarint().map_err(bad)?);
        let seg = r.get_uvarint().map_err(bad)?;
        let piece = r.get_uvarint().map_err(bad)?;
        keys.push(TrajKey {
            vehicle,
            seg,
            piece: u32::try_from(piece)
                .map_err(|_| bad(format_args!("piece index {piece} overflows u32")))?,
        });
    }
    let m = r.get_uvarint().map_err(bad)?;
    // Two bytes at least per counter bound the allocation by the payload.
    if m > (r.remaining() / 2) as u64 {
        return Err(bad(format_args!(
            "counter count {m} exceeds what {} remaining bytes can hold",
            r.remaining()
        )));
    }
    let mut next_seg = HashMap::with_capacity(m as usize);
    let mut vehicle = 0u64;
    for _ in 0..m {
        vehicle = vehicle.wrapping_add(r.get_uvarint().map_err(bad)?);
        next_seg.insert(vehicle, r.get_uvarint().map_err(bad)?);
    }
    r.expect_end("ingest section").map_err(bad)?;
    Ok((keys, next_seg))
}

/// SplitMix64 finalizer — the vehicle-to-shard route. A fixed public
/// mix (not a sum or modulus of the raw id) so that dense fleet ids
/// spread evenly instead of striping.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent writer shard: its session state machine
/// ([`ShardCore`]) inside the shell that touches the disk — the
/// journal, the group-commit accumulators and the batch it has out —
/// plus the shard's slice of the published corpus.
struct Shard {
    core: ShardCore,
    wal: Wal,
    /// Journal bytes appended since this shard's last batch was handed
    /// over (or its last successful fsync).
    unsynced_bytes: u64,
    /// Frames appended since then.
    unsynced_frames: u64,
    /// Stream time of this shard's last batch handoff or successful
    /// fsync (`NEG_INFINITY` arms the interval trigger).
    last_sync_time: f64,
    /// Durability watermark: every frame of this shard's journal ending
    /// at or before this offset is covered by a completed fsync.
    durable_offset: u64,
    /// The group-commit batch this shard has on the syncer thread, if
    /// any: what settling it books.
    in_flight: Option<InFlight>,
    /// True when a read-ahead sweep closed sessions at a global clock
    /// the journal does not encode yet (see [`Shard::catch_up`]).
    needs_clock: bool,
    /// This shard's slice of the compressed corpus under its canonical
    /// merge keys, sorted by key.
    corpus: Vec<(TrajKey, CompressedTrajectory)>,
}

/// A group-commit batch handed over and not settled yet: what it
/// carries, and what a failure gives back.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Frames and journal bytes in the batch.
    frames: u64,
    bytes: u64,
    /// Journal offset at the batch's end: the watermark once it is
    /// durable.
    end: u64,
    /// The shard's `last_sync_time` before the handoff, restored when
    /// the batch fails so the next push triggers again.
    since: f64,
}

/// Runs one journal operation under the policy's retry/backoff.
/// Out-of-space is persistent (no retry, typed
/// [`ServeError::StorageFull`]); other I/O errors are transient and
/// retried with doubling backoff before surfacing as
/// [`ServeError::Backpressure`]; anything else passes through. Each
/// retry is counted in `retries`.
fn retrying<T>(
    policy: &DurabilityPolicy,
    retries: &mut u64,
    mut op: impl FnMut() -> std::result::Result<T, WalError>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(WalError::Io(detail)) if attempt >= policy.max_retries => {
                return Err(ServeError::Backpressure {
                    detail,
                    retries: attempt,
                })
            }
            Err(WalError::Io(_)) => {
                attempt += 1;
                *retries += 1;
                // Wall-clock sleep is safe here: it delays the retry
                // but decides nothing — all decisions key off
                // journaled stream state.
                let ms = policy.backoff_ms(attempt);
                if ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Writes and fsyncs one group-commit batch under the policy's retry
/// and backoff — the one batch runner, on the syncer thread and in
/// [`IngestEngine::sync`] alike. Returns the outcome and the number of
/// transient failures retried.
fn commit(policy: &DurabilityPolicy, batch: &mut Batch) -> (Result<()>, u64) {
    let mut retries = 0;
    let outcome = retrying(policy, &mut retries, || batch.commit());
    (outcome, retries)
}

/// Why a record live ingest applies cannot be refused: `ShardCore::apply`
/// refuses only a `Resume`, which only a checkpoint's new journal holds.
const LIVE_APPLY: &str = "live ingest journals no Resume";

impl Shard {
    /// The catch-up rule: when the core's clock lags the global `clock`
    /// and either a read-ahead sweep cut sessions (`needs_clock`) or
    /// the record to journal is a fix already idle at `clock` (`late`),
    /// a `Clock` frame carrying `clock` is journaled and applied first,
    /// so replay cuts the same sessions at the same point without
    /// reading any other shard's journal. Otherwise no frame is needed:
    /// idle expiry is monotone in the clock, so the lagging journal
    /// clock sweeps the same sessions.
    fn catch_up(&self, clock: f64, late: bool) -> Option<WalRecord> {
        ((self.needs_clock || late) && clock > self.core.clock)
            .then_some(WalRecord::Clock { t: clock })
    }

    /// Journals `tick` (the [`Shard::catch_up`] frame, if any) and
    /// `rec`, applying each to the core right after its append — the
    /// step replay repeats record for record.
    fn journal(
        &mut self,
        policy: &DurabilityPolicy,
        tick: Option<WalRecord>,
        rec: &WalRecord,
    ) -> Result<u64> {
        if let Some(frame) = tick {
            self.append(policy, &frame)?;
            self.core.apply(&frame).expect(LIVE_APPLY);
        }
        self.needs_clock = false;
        let offset = self.append(policy, rec)?;
        self.core.apply(rec).expect(LIVE_APPLY);
        Ok(offset)
    }

    /// Appends one record. On success the group-commit accumulators
    /// advance; a refusal is counted on this shard only.
    fn append(&mut self, policy: &DurabilityPolicy, rec: &WalRecord) -> Result<u64> {
        let before = self.wal.offset();
        let result = retrying(policy, &mut self.core.stats.io_retries, || {
            self.wal.append(rec)
        });
        match &result {
            Ok(offset) => {
                self.unsynced_bytes += offset - before;
                self.unsynced_frames += 1;
            }
            Err(ServeError::StorageFull(_)) => self.core.stats.storage_full_rejections += 1,
            Err(ServeError::Backpressure { .. }) => self.core.stats.backpressure_rejections += 1,
            Err(_) => {}
        }
        result
    }

    /// Detaches the journal file with every buffered frame as one
    /// group-commit batch, and restarts the accumulators at stream time
    /// `clock`.
    fn begin_batch(&mut self, clock: f64) -> Batch {
        debug_assert!(self.in_flight.is_none(), "one batch per shard");
        self.in_flight = Some(InFlight {
            frames: self.unsynced_frames,
            bytes: self.unsynced_bytes,
            end: self.wal.offset(),
            since: self.last_sync_time,
        });
        self.unsynced_bytes = 0;
        self.unsynced_frames = 0;
        if clock.is_finite() {
            self.last_sync_time = clock;
        }
        self.wal.detach()
    }

    /// Books a finished batch and takes the journal file back. Success
    /// moves the durability watermark to the batch's end and counts the
    /// batch. Failure is counted in `sync_failures`; the frames the
    /// batch could not write go back in front of the buffer (with the
    /// tail marked dirty when its write failed), and the accumulators
    /// take the batch back, so the next push triggers again.
    fn settle(&mut self, batch: Batch, outcome: &Result<()>, retries: u64) {
        let sent = self.in_flight.take().expect("a settled batch is in flight");
        self.wal.attach(batch);
        let stats = &mut self.core.stats;
        stats.io_retries += retries;
        if outcome.is_ok() {
            stats.sync_calls += 1;
            stats.synced_frames += sent.frames;
            self.durable_offset = sent.end;
        } else {
            stats.sync_failures += 1;
            self.unsynced_bytes += sent.bytes;
            self.unsynced_frames += sent.frames;
            self.last_sync_time = sent.since;
        }
    }

    /// Moves the durability watermark to the journal's end and restarts
    /// the group-commit accumulators at stream time `clock` — for a
    /// journal a checkpoint wrote and synced whole.
    fn mark_durable(&mut self, clock: f64) {
        self.durable_offset = self.wal.offset();
        self.unsynced_bytes = 0;
        self.unsynced_frames = 0;
        if clock.is_finite() {
            self.last_sync_time = clock;
        }
    }
}

/// One finished batch as the syncer hands it back: the shard, the batch
/// (the journal's file and any frames it could not write), the outcome
/// and the transient failures it retried.
type Settled = (usize, Batch, Result<()>, u64);

/// The engine's journal syncer: one thread that writes and fsyncs
/// group-commit batches strictly in the order they were queued.
struct Syncer {
    jobs: mpsc::Sender<(usize, Batch)>,
    done: mpsc::Receiver<Settled>,
    thread: std::thread::JoinHandle<()>,
    /// Batches queued and not settled yet.
    queued: usize,
}

impl Syncer {
    fn spawn(policy: DurabilityPolicy) -> Syncer {
        let (jobs, inbox) = mpsc::channel::<(usize, Batch)>();
        let (outbox, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("press-journal-sync".into())
            .spawn(move || {
                for (k, mut batch) in inbox {
                    let (outcome, retries) = commit(&policy, &mut batch);
                    if outbox.send((k, batch, outcome, retries)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the journal syncer thread");
        Syncer {
            jobs,
            done,
            thread,
            queued: 0,
        }
    }
}

/// One shard's corpus slice under its merge keys, and its per-vehicle
/// segment counters.
type ShardCorpus = (Vec<(TrajKey, CompressedTrajectory)>, HashMap<u64, u64>);

/// Loads one shard's corpus slice, which must have been coded under
/// `model` (its spatial codes mean nothing under another code book) and
/// carry an `ingest` section.
fn load_shard_corpus(path: &Path, model: &HscModel) -> Result<ShardCorpus> {
    // Mapped open: recovery walks the block directory without pulling
    // the whole checkpoint into memory first; each block is faulted in
    // (and CRC-checked) once as `decode_all` visits it, and the answers
    // are bit-identical to an owned open.
    let store = TrajectoryStore::open_mapped(path)?;
    if store.model_fingerprint() != model.fingerprint() {
        return Err(ServeError::Config(format!(
            "{} was coded under model {:#010x} but the engine's model is {:#010x}",
            path.display(),
            store.model_fingerprint(),
            model.fingerprint()
        )));
    }
    let finished = store.decode_all()?;
    let (keys, next_seg) =
        decode_ingest_section(store.extra_section(INGEST_SECTION)?, finished.len())?;
    Ok((keys.into_iter().zip(finished).collect(), next_seg))
}

/// Recovers shard `k` of a committed generation: its corpus slice, then
/// every journal record through [`ShardCore::apply`], the function live
/// ingest applies them with, as [`Wal::open`] reads its frame. A record
/// the core refuses is [`WalError::Corrupt`] at its frame. Returns the
/// shard and its part of the [`RecoveryReport`].
fn recover_shard(
    dir: &Path,
    config: &IngestConfig,
    io: Arc<dyn IoBackend>,
    generation: u64,
    k: usize,
    model: &HscModel,
) -> Result<(Shard, RecoveryReport)> {
    let corpus_path = dir.join(manifest::corpus_shard_file_name(generation, k as u32));
    let wal_path = dir.join(manifest::wal_shard_file_name(generation, k as u32));
    // Every checkpoint writes both artifacts of every shard before its
    // manifest rename. Generation 0 has no corpus yet, and its journal
    // may be missing after a crash between the first manifest commit
    // and the journal's creation.
    let (corpus, next_seg) = if generation == 0 {
        (Vec::new(), HashMap::new())
    } else {
        if let Some(missing) = [&corpus_path, &wal_path].into_iter().find(|p| !p.exists()) {
            return Err(ServeError::Manifest(format!(
                "{} is missing, but generation {generation} is committed",
                missing.display()
            )));
        }
        load_shard_corpus(&corpus_path, model)?
    };
    let mut core = ShardCore::new(config, next_seg);
    let (wal, replay) = Wal::open(&wal_path, io, |rec| core.apply(rec))?;
    let report = RecoveryReport {
        corpus_trajectories: corpus.len(),
        replayed_points: core.stats.points_accepted,
        torn_bytes: replay.torn_bytes,
        wal_was_fresh: replay.fresh,
        sessions_rebuilt: core.sessions.len(),
        points_in_flight: core.in_flight_points(),
    };
    // Everything replayed was read back from the device, so the whole
    // journal is durable and the group-commit accumulators start empty.
    let shard = Shard {
        core,
        durable_offset: wal.offset(),
        wal,
        unsynced_bytes: 0,
        unsynced_frames: 0,
        last_sync_time: f64::NEG_INFINITY,
        in_flight: None,
        needs_clock: false,
        corpus,
    };
    Ok((shard, report))
}

/// Multi-vehicle streaming ingest over one directory, sharded into
/// independent failure domains. See the module docs for the
/// ack/durability, degraded-mode, recovery, and checkpoint contracts.
pub struct IngestEngine {
    dir: PathBuf,
    config: IngestConfig,
    matcher: Arc<MapMatcher>,
    press: Press,
    /// The storage backend every durable write goes through (real
    /// filesystem in production, fault injector in tests).
    io: Arc<dyn IoBackend>,
    /// Committed checkpoint generation — names the live corpus/journal
    /// shard set (see [`crate::manifest`]).
    generation: u64,
    /// True while the manifest rename that committed `generation` is
    /// not known durable (its directory fsync failed): power loss could
    /// still bring back the previous generation, so no shard sync may
    /// promote acks until a directory fsync succeeds.
    manifest_unsynced: bool,
    shards: Vec<Shard>,
    /// Largest timestamp ever accepted on any shard — the observed
    /// stream clock that drives idle sweeps (never wall clock: replay
    /// must be identical).
    max_time: f64,
    /// Ring of the most recent quarantined fixes (capacity
    /// [`QUARANTINE_LOG_CAP`]), oldest first.
    quarantine: VecDeque<QuarantineRecord>,
    recovery: RecoveryReport,
    /// The journal-syncer thread, spawned at the first group-commit
    /// trigger.
    syncer: Option<Syncer>,
}

impl IngestEngine {
    /// Opens (or creates) the ingest directory, recovering any previous
    /// state: each shard's corpus slice first, then a full journal
    /// replay through `ShardCore::apply` — all shards in parallel.
    pub fn open(
        dir: &Path,
        matcher: Arc<MapMatcher>,
        press: Press,
        config: IngestConfig,
    ) -> Result<IngestEngine> {
        Self::open_with_io(dir, matcher, press, config, store_io::real_io())
    }

    /// [`IngestEngine::open`] through an explicit
    /// [`press_store::IoBackend`]: every durable write — journal
    /// appends and fsyncs, checkpoint artifacts, manifest commits —
    /// goes through `io`, so disk faults are injectable. Recovery
    /// reads stay direct (read-path corruption already has its own
    /// typed taxonomy).
    pub fn open_with_io(
        dir: &Path,
        matcher: Arc<MapMatcher>,
        press: Press,
        config: IngestConfig,
        io: Arc<dyn IoBackend>,
    ) -> Result<IngestEngine> {
        if config.block_size == 0 {
            return Err(ServeError::Config("block_size must be at least 1".into()));
        }
        if config.shards == 0 {
            return Err(ServeError::Config("shards must be at least 1".into()));
        }
        if config.idle_timeout.is_nan() {
            return Err(ServeError::Config("idle_timeout must not be NaN".into()));
        }
        if config.policy.max_speed_m_s.is_nan() {
            return Err(ServeError::Config(
                "policy.max_speed_m_s must not be NaN".into(),
            ));
        }
        // `Press::compress` refuses such bounds, so the flush would drop
        // every piece: refuse the engine instead.
        press
            .config()
            .bounds
            .validate()
            .map_err(|e| ServeError::Config(format!("press {e}")))?;
        config.durability.validate().map_err(ServeError::Config)?;
        std::fs::create_dir_all(dir)?;
        let generation =
            match manifest::read(dir).map_err(|e| ServeError::Manifest(e.to_string()))? {
                Some(m) => {
                    if m.shards as usize != config.shards {
                        return Err(ServeError::Config(format!(
                            "directory is committed with {} ingest shards but the \
                             config asks for {}; resharding is not supported",
                            m.shards, config.shards
                        )));
                    }
                    // Uncommitted leftovers of a checkpoint that crashed
                    // before its manifest rename (or a superseded generation
                    // whose cleanup was interrupted) are garbage.
                    manifest::gc(dir, m.generation)?;
                    m.generation
                }
                None => {
                    // Artifacts without a manifest mean the manifest was
                    // deleted or the directory predates this format: refuse
                    // rather than silently restarting from nothing.
                    if manifest::has_artifacts(dir)? {
                        return Err(ServeError::Manifest(
                            "ingest artifacts present but MANIFEST is missing".into(),
                        ));
                    }
                    manifest::commit(io.as_ref(), dir, 0, config.shards as u32)
                        .map_err(|e| ServeError::Manifest(e.to_string()))?;
                    0
                }
            };
        // All shard journals replay in parallel on the shared
        // work-steal loop, one worker per shard up to `threads`.
        let shard_ids: Vec<usize> = (0..config.shards).collect();
        let recovered = work_steal_map(&shard_ids, config.threads, |_, &k| {
            recover_shard(dir, &config, io.clone(), generation, k, press.model())
        });
        let mut shards = Vec::with_capacity(config.shards);
        let mut max_time = f64::NEG_INFINITY;
        let mut report = RecoveryReport {
            wal_was_fresh: true,
            ..RecoveryReport::default()
        };
        for r in recovered {
            let (shard, part) = r?;
            // Every accepted fix is journaled on its shard, so the
            // largest journal clock is the global stream clock.
            max_time = max_time.max(shard.core.clock);
            report.corpus_trajectories += part.corpus_trajectories;
            report.replayed_points += part.replayed_points;
            report.torn_bytes += part.torn_bytes;
            report.wal_was_fresh &= part.wal_was_fresh;
            report.sessions_rebuilt += part.sessions_rebuilt;
            report.points_in_flight += part.points_in_flight;
            shards.push(shard);
        }
        Ok(IngestEngine {
            dir: dir.to_path_buf(),
            config,
            matcher,
            press,
            io,
            generation,
            manifest_unsynced: false,
            shards,
            max_time,
            quarantine: VecDeque::new(),
            recovery: report,
            syncer: None,
        })
    }

    /// The shard owning `vehicle` (SplitMix64 of the id, mod the shard
    /// count) — stable for the directory's lifetime.
    pub fn shard_of(&self, vehicle: u64) -> usize {
        (splitmix64(vehicle) % self.config.shards as u64) as usize
    }

    /// Wraps a failure on `shard` as that shard's degradation.
    fn degrade(shard: usize, e: ServeError) -> ServeError {
        ServeError::ShardDegraded {
            shard,
            cause: Box::new(e),
        }
    }

    /// The live read-ahead: catches shard `k` up to the global stream
    /// clock before any decision about its sessions. A sweep that cuts
    /// sessions at a clock the shard's journal does not encode arms
    /// `needs_clock`, sticky until the next append — a quarantined push
    /// in between writes no record of its own. On a single-shard engine
    /// the global clock is the journal's, so this never arms.
    fn read_ahead(&mut self, k: usize) {
        let shard = &mut self.shards[k];
        if shard.core.sweep_idle(self.max_time) > 0 && self.max_time > shard.core.clock {
            shard.needs_clock = true;
        }
    }

    fn read_ahead_all(&mut self) {
        for k in 0..self.shards.len() {
            self.read_ahead(k);
        }
    }

    /// [`Shard::journal`] on shard `k` at the global clock, with
    /// failures wrapped as that shard's degradation. When the appends
    /// will write the journal — a dirty tail to repair, or a buffer
    /// reaching the cap — every queued batch settles first, so the
    /// backend sees this thread's operations in program order.
    fn journal(&mut self, k: usize, rec: &WalRecord, late: bool) -> Result<u64> {
        let (policy, clock) = (self.config.durability, self.max_time);
        let tick = self.shards[k].catch_up(clock, late);
        let bytes = tick.as_ref().map_or(0, WalRecord::frame_len) + rec.frame_len();
        if self.shards[k].wal.append_writes(bytes) {
            self.settle_all();
        }
        self.shards[k]
            .journal(&policy, tick, rec)
            .map_err(|e| Self::degrade(k, e))
    }

    /// Ingests one fix, routed to its owning shard. Accepted fixes are
    /// journaled *before* they are buffered; the configured
    /// [`DurabilityPolicy`] decides when that shard's journal is
    /// fsynced (group commit, off this thread), and the ack reports
    /// honestly: [`Ack::Journaled`], since no sync that has completed by
    /// the time this returns can cover a frame appended after it —
    /// including the push that trips a trigger, which hands the batch
    /// over and returns before its fsync.
    ///
    /// An `Err` means the fix was **not** ingested and engine state is
    /// unchanged: a [`ServeError::ShardDegraded`] naming the owning
    /// shard, whose cause is [`ServeError::StorageFull`] for
    /// out-of-space (persistent — re-push after freeing space) or
    /// [`ServeError::Backpressure`] when a transient failure survived
    /// the retry budget. Only the owning shard degrades: pushes routed
    /// elsewhere keep acking and the engine keeps serving queries.
    ///
    /// A disk fault surfaces at the journal write it hits, not at the
    /// push that sequenced the frame. A failed group-commit batch is
    /// absorbed when it settles, at the shard's next trigger: the shard
    /// counts a sync failure and its unwritten frames go back in front
    /// of the buffer. After a failed write the shard's next push first
    /// repairs the journal tail, so on a disk that stays full that push
    /// and every later one to the shard is refused until space returns.
    pub fn push(&mut self, vehicle: u64, sample: GpsSample) -> Result<Ack> {
        let k = self.shard_of(vehicle);
        self.read_ahead(k);
        match self.shards[k].core.vet(vehicle, &sample) {
            Disposition::Accept => {
                let rec = WalRecord::Point {
                    vehicle,
                    x: sample.point.x,
                    y: sample.point.y,
                    t: sample.t,
                };
                // A fix already idle at the global clock is cut as soon
                // as it is applied; replay must see that clock too.
                let late = self.shards[k].core.is_idle(sample.t, self.max_time);
                let offset = self.journal(k, &rec, late)?;
                if sample.t > self.max_time {
                    self.max_time = sample.t;
                }
                // A group commit hands a batch over and returns; its
                // failure is absorbed when it settles (counted in the
                // shard's `sync_failures`).
                self.group_commit(k);
                Ok(Ack::Journaled { offset })
            }
            Disposition::Coalesce => {
                self.shards[k].core.stats.points_repaired += 1;
                Ok(Ack::Repaired)
            }
            Disposition::Quarantine(reason) => {
                self.shards[k].core.stats.points_quarantined[reason.index()] += 1;
                if self.quarantine.len() == QUARANTINE_LOG_CAP {
                    self.quarantine.pop_front();
                }
                self.quarantine.push_back(QuarantineRecord {
                    vehicle,
                    sample,
                    reason,
                });
                Ok(Ack::Quarantined(reason))
            }
        }
    }

    /// Hands shard `k`'s buffered frames to the syncer thread as one
    /// group-commit batch if a policy threshold has tripped.
    fn group_commit(&mut self, k: usize) {
        let policy = self.config.durability;
        let max_time = self.max_time;
        // Scale the timed trigger by the shard count so the *engine's*
        // fsync rate — not each shard's — is what the policy names: N
        // shards each syncing every N·interval of stream time issue the
        // same number of fsyncs as one shard syncing every interval.
        // The per-shard journaled-but-not-durable window widens to
        // N·sync_interval accordingly; at one shard nothing changes.
        let interval = policy.sync_interval * self.config.shards as f64;
        let shard = &mut self.shards[k];
        if shard.unsynced_frames == 0 {
            return;
        }
        if interval > 0.0 && shard.last_sync_time == f64::NEG_INFINITY && max_time.is_finite() {
            // Arm the interval trigger on the first observed stream
            // time; the first timed sync lands one interval later.
            shard.last_sync_time = max_time;
        }
        let by_bytes = policy.sync_bytes > 0 && shard.unsynced_bytes >= policy.sync_bytes;
        let by_time = interval > 0.0
            && shard.last_sync_time.is_finite()
            && max_time - shard.last_sync_time >= interval;
        if !(by_bytes || by_time) {
            return;
        }
        // The shard's previous batch settles here, at its next trigger:
        // a fixed point of the stream, so waiting for it only costs the
        // part of its fsync the pushes since did not cover.
        while self.shards[k].in_flight.is_some() {
            self.settle_next();
        }
        // A failed write left a dirty tail: the shard's next append
        // repairs it on this thread — or refuses its fix — before the
        // next trigger hands a batch over.
        if self.shards[k].wal.dirty_tail() {
            return;
        }
        if self.sync_manifest().is_err() {
            self.shards[k].core.stats.sync_failures += 1;
            return;
        }
        let batch = self.shards[k].begin_batch(max_time);
        let syncer = self.syncer.get_or_insert_with(|| Syncer::spawn(policy));
        syncer.queued += 1;
        syncer
            .jobs
            .send((k, batch))
            .expect("the journal syncer thread stopped");
    }

    /// Settles the oldest queued batch on its shard, waiting for the
    /// syncer to finish it.
    fn settle_next(&mut self) {
        let syncer = self.syncer.as_mut().expect("a batch is queued");
        let (k, batch, outcome, retries) = syncer
            .done
            .recv()
            .expect("the journal syncer thread stopped");
        syncer.queued -= 1;
        self.shards[k].settle(batch, &outcome, retries);
    }

    /// Settles every queued batch, in queue order: the step before any
    /// backend operation this thread makes.
    fn settle_all(&mut self) {
        while self.syncer.as_ref().is_some_and(|s| s.queued > 0) {
            self.settle_next();
        }
    }

    /// Makes a manifest rename whose directory fsync failed durable
    /// (see `manifest_unsynced`); every sync that promotes acks runs
    /// this first.
    fn sync_manifest(&mut self) -> Result<()> {
        if self.manifest_unsynced {
            self.settle_all();
            self.sync_dir()?;
            self.manifest_unsynced = false;
        }
        Ok(())
    }

    /// Fsyncs the ingest directory, so the names created or renamed in
    /// it are durable; a failure is [`ServeError::Manifest`].
    fn sync_dir(&self) -> Result<()> {
        store_io::sync_parent_dir(self.io.as_ref(), &self.dir.join(manifest::MANIFEST_FILE))
            .map_err(|e| ServeError::Manifest(e.to_string()))
    }

    /// Explicitly ends `vehicle`'s trajectory (journaled in its owning
    /// shard, so recovery reproduces the same segmentation). Returns
    /// true when a live session was closed.
    pub fn finalize(&mut self, vehicle: u64) -> Result<bool> {
        let k = self.shard_of(vehicle);
        self.read_ahead(k);
        if !self.shards[k].core.sessions.contains_key(&vehicle) {
            return Ok(false);
        }
        self.journal(k, &WalRecord::Finalize { vehicle }, false)?;
        Ok(true)
    }

    /// Explicitly ends every live trajectory (journaled per shard, in
    /// shard order). A failing shard surfaces as
    /// [`ServeError::ShardDegraded`] with shards before it already
    /// finalized and shards after it untouched (their sessions stay
    /// live; call again once the shard heals).
    pub fn finalize_all(&mut self) -> Result<()> {
        self.read_ahead_all();
        for k in 0..self.shards.len() {
            if !self.shards[k].core.sessions.is_empty() {
                self.journal(k, &WalRecord::FinalizeAll, false)?;
            }
        }
        Ok(())
    }

    /// Matches and compresses all pending segments from every shard (in
    /// parallel across `config.threads`, order-preserving), appending
    /// the results to each owning shard's corpus slice under their
    /// canonical merge keys. Returns the number of pieces compressed.
    ///
    /// The journals are deliberately *not* trimmed here: flushed
    /// segments stay replayable until [`IngestEngine::checkpoint`]
    /// publishes them.
    pub fn flush(&mut self) -> Result<usize> {
        self.read_ahead_all();
        let mut tagged: Vec<(usize, PendingSegment)> = Vec::new();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            tagged.extend(shard.core.pending.drain(..).map(|seg| (k, seg)));
        }
        if tagged.is_empty() {
            return Ok(0);
        }
        // Canonical work order: the per-segment outcomes are
        // deterministic, so this only pins scheduling; the corpus order
        // comes from the keys.
        tagged.sort_by_key(|(_, seg)| (seg.vehicle, seg.seg));
        let matcher = Arc::clone(&self.matcher);
        let press = &self.press;
        let max_work = self.config.max_lattice_work;
        let max_splits = self.config.max_salvage_splits;
        let outcomes: Vec<(Vec<CompressedTrajectory>, IngestStats)> =
            work_steal_map(&tagged, self.config.threads, |_, item| {
                let seg = &item.1;
                let report = matcher.match_trajectory_salvaging(&seg.samples, max_work, max_splits);
                let mut delta = IngestStats {
                    salvage_splits: report.splits as u64,
                    ..IngestStats::default()
                };
                for err in &report.dropped {
                    delta.pieces_dropped += 1;
                    if matches!(err, MatcherError::BudgetExceeded { .. }) {
                        delta.pieces_shed += 1;
                    }
                }
                let mut compressed = Vec::with_capacity(report.pieces.len());
                for piece in report.pieces {
                    let path_samples: Vec<PathSample> = piece
                        .samples
                        .iter()
                        .map(|m| PathSample {
                            edge_idx: m.edge_idx,
                            frac: m.frac,
                            t: m.t,
                        })
                        .collect();
                    match reformat(matcher.network(), piece.edges, &path_samples)
                        .and_then(|traj| press.compress(&traj))
                    {
                        Ok(ct) => compressed.push(ct),
                        Err(_) => delta.pieces_dropped += 1,
                    }
                }
                delta.pieces_compressed = compressed.len() as u64;
                (compressed, delta)
            });
        let mut pieces = 0usize;
        for ((k, seg), (compressed, delta)) in tagged.into_iter().zip(outcomes) {
            let shard = &mut self.shards[k];
            pieces += compressed.len();
            shard.core.stats.accumulate(&delta);
            shard
                .corpus
                .extend(compressed.into_iter().enumerate().map(|(piece, ct)| {
                    let key = TrajKey {
                        vehicle: seg.vehicle,
                        seg: seg.seg,
                        piece: piece as u32,
                    };
                    (key, ct)
                }));
        }
        for shard in &mut self.shards {
            // Stable sort: linear on the sorted prefix plus the new run.
            shard.corpus.sort_by_key(|e| e.0);
        }
        Ok(pieces)
    }

    /// Flushes, then commits the published corpus shard files and the
    /// per-shard journals — each shrunk down to just its in-flight
    /// state — as **one atomic set**: every file is written and synced
    /// under its next-generation name, one directory fsync makes the
    /// names durable, and a single manifest rename flips them live (see
    /// [`crate::manifest`]), so a crash at any byte of the checkpoint
    /// recovers a consistent generation. Every shard's corpus file is
    /// rewritten. After a checkpoint, recovery cost is proportional to
    /// the in-flight points, not the history. Returns the number of
    /// trajectories in the corpus.
    ///
    /// A failure before the manifest rename leaves the engine on its
    /// old generation. A [`ServeError::Manifest`] from the directory
    /// fsync *after* the rename leaves it on the new one — the one a
    /// process crash recovers — with no shard's durability watermark
    /// advanced until a later sync makes the rename durable.
    pub fn checkpoint(&mut self) -> Result<usize> {
        self.settle_all();
        self.flush()?;
        let next = self.generation + 1;
        let query = QueryEngine::new(self.press.model());
        for (k, shard) in self.shards.iter().enumerate() {
            let extra = vec![(
                INGEST_SECTION.to_string(),
                encode_ingest_section(shard.corpus.iter().map(|e| &e.0), &shard.core.next_seg),
            )];
            let trajectories: Vec<CompressedTrajectory> =
                shard.corpus.iter().map(|e| e.1.clone()).collect();
            let bytes = TrajectoryStore::to_store_bytes_with_extra(
                &query,
                &trajectories,
                self.config.block_size,
                extra,
            )?;
            let path = self
                .dir
                .join(manifest::corpus_shard_file_name(next, k as u32));
            store_io::write_synced(self.io.as_ref(), &path, &bytes)
                .map_err(|e| Self::degrade(k, e.into()))?;
        }
        let max_time = self.max_time;
        let mut new_wals = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            let records = self.shards[k].core.checkpoint_records(max_time);
            let wal = Wal::create(
                &self.dir.join(manifest::wal_shard_file_name(next, k as u32)),
                &records,
                self.io.clone(),
            )
            .map_err(|e| Self::degrade(k, e.into()))?;
            new_wals.push(wal);
        }
        // A new-generation file is garbage until the manifest names it:
        // `create` truncated any leftover of an uncommitted checkpoint,
        // and open's GC removes one. So no file needs a rename of its
        // own; one directory fsync makes every new name durable before
        // the manifest can name them.
        self.sync_dir()?;
        // The commit point: one atomic rename flips recovery from the
        // old shard set to the new one. A typed failure before the
        // rename leaves the engine on its old generation, old journals,
        // fully consistent — the uncommitted new-generation files are
        // GC'd later. A failure after it (the directory fsync) leaves
        // the new manifest in place, which is what a process crash
        // recovers: the engine moves to the new generation too, reports
        // the error, and the next sync makes the rename durable first.
        let mut unsynced = None;
        if let Err(e) =
            manifest::commit(self.io.as_ref(), &self.dir, next, self.config.shards as u32)
        {
            let e = ServeError::Manifest(e.to_string());
            if !matches!(manifest::read(&self.dir), Ok(Some(m)) if m.generation == next) {
                return Err(e);
            }
            self.manifest_unsynced = true;
            unsynced = Some(e);
        }
        self.generation = next;
        for (shard, wal) in self.shards.iter_mut().zip(new_wals) {
            // `Wal::create` synced the new journal, so all of it is
            // durable; its clock is the `Clock` record it ends with. The
            // old journal's buffered frames are only `Journaled`: the
            // new one holds their state, so they are not written.
            std::mem::replace(&mut shard.wal, wal).discard();
            shard.mark_durable(max_time);
            shard
                .core
                .apply(&WalRecord::Clock { t: max_time })
                .expect(LIVE_APPLY);
            shard.needs_clock = false;
        }
        // The superseded generation is dead weight now. Best-effort
        // only: a cleanup fault must not fail a *committed* checkpoint
        // (and must not swap the journal handles back) — the next
        // open's GC finishes the job, and leftovers are inert meanwhile.
        let _ = manifest::gc(&self.dir, next);
        if let Some(e) = unsynced {
            return Err(e);
        }
        Ok(self.shards.iter().map(|s| s.corpus.len()).sum())
    }

    /// Settles every queued group-commit batch, then forces every
    /// shard's journal bytes to stable storage (write + fsync, one batch
    /// per shard run on this thread) with the policy's retry/backoff,
    /// advancing each shard's durability watermark on success:
    /// afterwards every previously `Journaled` ack is durable. A failing
    /// shard is recorded in its own `sync_failures` and reported as
    /// [`ServeError::ShardDegraded`] — but every *other* shard is still
    /// synced first; the frames stay journaled and a later sync can
    /// cover them. A checkpoint's manifest rename whose directory fsync
    /// failed is made durable before any shard syncs; while that fails,
    /// the whole sync fails with [`ServeError::Manifest`].
    pub fn sync(&mut self) -> Result<()> {
        self.settle_all();
        self.sync_manifest()?;
        let (policy, clock) = (self.config.durability, self.max_time);
        let mut first_err = None;
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let mut batch = shard.begin_batch(clock);
            let (outcome, retries) = commit(&policy, &mut batch);
            shard.settle(batch, &outcome, retries);
            if let Err(e) = outcome {
                first_err.get_or_insert(Self::degrade(k, e));
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The published-corpus bytes a checkpoint of the current state
    /// would serve, built from every shard's slice in canonical merge
    /// order — byte-identical for any shard count and any flush-worker
    /// count (the shard-matrix proptests pin this).
    pub fn merged_corpus_bytes(&self) -> Result<Vec<u8>> {
        let query = QueryEngine::new(self.press.model());
        Ok(TrajectoryStore::to_store_bytes(
            &query,
            &self.finished(),
            self.config.block_size,
        )?)
    }

    /// The ingest directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of independent writer shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Path of `shard`'s published corpus file (current generation).
    /// With one shard this is the whole corpus; multi-shard readers
    /// walk it over [`IngestEngine::num_shards`] or use
    /// [`IngestEngine::merged_corpus_bytes`].
    pub fn shard_corpus_path(&self, shard: usize) -> PathBuf {
        self.dir.join(manifest::corpus_shard_file_name(
            self.generation,
            shard as u32,
        ))
    }

    /// Path of `shard`'s journal (current generation).
    pub fn shard_wal_path(&self, shard: usize) -> PathBuf {
        self.shards[shard].wal.path().to_path_buf()
    }

    /// `shard`'s journal length — the latest ingested-fix ack offset
    /// of a fix routed there.
    pub fn shard_wal_offset(&self, shard: usize) -> u64 {
        self.shards[shard].wal.offset()
    }

    /// `shard`'s durability watermark: every frame of its journal
    /// ending at or before this offset is covered by a completed
    /// fsync. An ack with `offset <= shard_durable_offset(shard)` has
    /// power-loss durability. A group-commit batch moves it when the
    /// batch settles, not when its fsync returns on the syncer thread.
    pub fn shard_durable_offset(&self, shard: usize) -> u64 {
        self.shards[shard].durable_offset
    }

    /// Points currently buffered across live sessions on all shards —
    /// what the memory budget ([`IngestConfig::max_buffered_points`])
    /// bounds.
    pub fn buffered_points(&self) -> usize {
        self.shards.iter().map(|s| s.core.buffered).sum()
    }

    /// The eviction log: each shard's most recent
    /// [`EVICTION_LOG_CAP`] evicted vehicles, oldest
    /// first, shard-major — live and after recovery alike.
    pub fn eviction_log(&self) -> VecDeque<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.core.evictions.iter().copied())
            .collect()
    }

    /// The engine configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The compression handle (model + parameters).
    pub fn press(&self) -> &Press {
        &self.press
    }

    /// Live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.core.sessions.len()).sum()
    }

    /// The in-memory compressed corpus (checkpointed + flushed), in
    /// canonical merge order across all shards.
    pub fn finished(&self) -> Vec<CompressedTrajectory> {
        let mut merged: Vec<&(TrajKey, CompressedTrajectory)> =
            self.shards.iter().flat_map(|s| &s.corpus).collect();
        merged.sort_unstable_by_key(|e| e.0);
        merged.into_iter().map(|e| e.1.clone()).collect()
    }

    /// Ingest counters, summed across all shards (see
    /// [`IngestEngine::shard_stats`] for one shard's view).
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for shard in &self.shards {
            total.accumulate(&shard.core.stats);
        }
        total
    }

    /// One shard's ingest counters. A degraded shard's rejections land
    /// here and never in a healthy shard's counters.
    pub fn shard_stats(&self, shard: usize) -> &IngestStats {
        &self.shards[shard].core.stats
    }

    /// The bounded quarantine log: the most recent
    /// [`QUARANTINE_LOG_CAP`] quarantined fixes, oldest first.
    pub fn quarantine_log(&self) -> &VecDeque<QuarantineRecord> {
        &self.quarantine
    }

    /// What the last [`IngestEngine::open`] recovered, summed across
    /// shards.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }
}

impl Drop for IngestEngine {
    /// Settles every queued batch, so its frames are written, and joins
    /// the syncer thread; each journal's own drop then writes what is
    /// still buffered, without a sync. Closing the queue first lets the
    /// syncer finish it and end, so this never waits on a stopped
    /// thread.
    fn drop(&mut self) {
        if let Some(Syncer {
            jobs, done, thread, ..
        }) = self.syncer.take()
        {
            drop(jobs);
            for (k, batch, outcome, retries) in done {
                self.shards[k].settle(batch, &outcome, retries);
            }
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(vehicle: u64, seg: u64, piece: u32) -> TrajKey {
        TrajKey {
            vehicle,
            seg,
            piece,
        }
    }

    fn sidecar() -> (Vec<TrajKey>, HashMap<u64, u64>) {
        let mut keys = Vec::new();
        let mut next_seg = HashMap::new();
        for v in 0..40u64 {
            let vehicle = 7 + v * 3;
            for seg in 0..3 {
                keys.push(keyed(vehicle, seg, 0));
            }
            keys.push(keyed(vehicle, 2, 1));
            next_seg.insert(vehicle, 4);
        }
        // Ids a delta cannot shrink, and one the wrap has to carry.
        keys.push(keyed(u64::MAX - 5, 1 << 40, u32::MAX));
        next_seg.insert(u64::MAX - 5, u64::MAX);
        (keys, next_seg)
    }

    fn error_of(section: Option<&[u8]>, n_trajs: usize) -> String {
        match decode_ingest_section(section, n_trajs) {
            Err(ServeError::Manifest(msg)) => msg,
            other => panic!("expected a typed sidecar error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_section_roundtrips_in_about_four_bytes_a_key() {
        let (keys, next_seg) = sidecar();
        let bytes = encode_ingest_section(keys.iter(), &next_seg);
        let (k, n) = decode_ingest_section(Some(&bytes), keys.len()).expect("decode");
        assert_eq!((k, n), (keys.clone(), next_seg.clone()));
        assert!(
            bytes.len() < keys.len() * 4 + next_seg.len() * 3,
            "{} bytes for {} keys and {} counters",
            bytes.len(),
            keys.len(),
            next_seg.len()
        );
        // Unsorted keys still round-trip: the vehicle delta wraps.
        let mut shuffled = keys.clone();
        shuffled.reverse();
        let bytes = encode_ingest_section(shuffled.iter(), &next_seg);
        assert_eq!(
            decode_ingest_section(Some(&bytes), shuffled.len())
                .expect("decode")
                .0,
            shuffled
        );
        let empty = encode_ingest_section([].iter(), &HashMap::new());
        assert_eq!(empty.len(), 6);
        decode_ingest_section(Some(&empty), 0).expect("empty");
    }

    #[test]
    fn ingest_section_malformations_are_typed() {
        let (keys, next_seg) = sidecar();
        let good = encode_ingest_section(keys.iter(), &next_seg);
        // A corpus without the section is refused, not adopted.
        assert!(error_of(None, 0).contains("missing"));
        // The fixed-width layout of version 1 and the rank-byte keys of
        // version 2 are refused by their tags.
        let mut v1 = ByteWriter::new();
        v1.put_u32(1);
        v1.put_u64(0);
        v1.put_u64(0);
        assert!(error_of(Some(&v1.into_bytes()), 0).contains("unsupported version 1"));
        let mut v2 = ByteWriter::new();
        v2.put_u32(2);
        v2.put_uvarint(1);
        v2.put_u8(1);
        v2.put_bytes(&[7, 0, 0]);
        v2.put_uvarint(0);
        assert!(error_of(Some(&v2.into_bytes()), 1).contains("unsupported version 2"));
        assert!(error_of(Some(&good), keys.len() + 1).contains("key count"));
        let mut long = good.clone();
        long.push(0);
        assert!(error_of(Some(&long), keys.len()).contains("trailing"));
        let section = |fill: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            w.put_u32(INGEST_SECTION_VERSION);
            w.put_uvarint(1);
            fill(&mut w);
            w.into_bytes()
        };
        let overflow = section(&|w| w.put_bytes(&[0xFF; 11]));
        assert!(error_of(Some(&overflow), 1).contains("varint"));
        let piece = section(&|w| {
            w.put_uvarint(3);
            w.put_uvarint(0);
            w.put_uvarint(1 << 32);
        });
        assert!(error_of(Some(&piece), 1).contains("overflows u32"));
        let counters = section(&|w| {
            w.put_uvarint(3);
            w.put_uvarint(0);
            w.put_uvarint(0);
            w.put_uvarint(1 << 50);
        });
        assert!(error_of(Some(&counters), 1).contains("counter count"));
    }
}
