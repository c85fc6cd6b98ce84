//! The shard state machine: one shard's sessions and the one function
//! that changes them.
//!
//! [`ShardCore::apply`] turns one journal record into session-state
//! changes — buffering, size-cap rollover, idle sweeps, memory-budget
//! eviction, explicit finalization. Live ingest journals a record and
//! then applies that same record; recovery applies every replayed
//! record in journal order. The two are one path, so a recovered shard
//! is in the state its live run reached after the same journal prefix.
//!
//! The core does no I/O and reads no global state. Its stream clock is
//! journal-local: the largest time its own journal encodes, through
//! `Clock` frames and `Point` timestamps. The one step live ingest takes
//! outside `apply` is the read-ahead sweep ([`ShardCore::sweep_idle`]
//! at the engine's global clock) before it vets a fix. Whenever that
//! sweep — or the fix itself — depends on a clock the journal does not
//! encode, the engine journals (and applies) a `Clock` frame first.

use crate::engine::{IngestConfig, IngestStats, EVICTION_LOG_CAP};
use crate::session::{Disposition, Session};
use crate::wal::WalRecord;
use press_matcher::GpsSample;
use press_network::Point;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// A finalized-but-unmatched segment awaiting the flush, already
/// stamped with its canonical merge identity.
#[derive(Debug, Clone)]
pub(crate) struct PendingSegment {
    pub(crate) vehicle: u64,
    /// Per-vehicle segment sequence number, assigned at cut time.
    pub(crate) seg: u64,
    pub(crate) samples: Vec<GpsSample>,
}

/// Maps a timestamp to a key that sorts like the timestamp (total order
/// over all non-NaN floats), for the idle-session index.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Per-shard budget share: `ceil(total / shards)`, `0` stays disabled.
fn budget_share(total: usize, shards: usize) -> usize {
    if total == 0 {
        0
    } else {
        total.div_ceil(shards)
    }
}

/// One shard's session state: live sessions, the idle index, segment
/// counters, the pending queue, its memory-budget share, its counters,
/// and its journal-local clock and arrival counter.
pub(crate) struct ShardCore {
    config: IngestConfig,
    /// Highest stream time this shard's journal encodes (via `Clock`
    /// frames or its own `Point` timestamps).
    pub(crate) clock: f64,
    /// Shard-local arrival counter: the order of this shard's `Point`
    /// records, which is all `FinalizeAll` and the checkpoint rewrite
    /// compare.
    next_arrival: u64,
    /// Points currently buffered across this shard's live sessions.
    pub(crate) buffered: usize,
    pub(crate) sessions: HashMap<u64, Session>,
    /// Sessions ordered by last-accepted timestamp: `(time_key(last.t),
    /// vehicle)`. Exactly the sessions with `last.is_some()`.
    idle: BTreeSet<(u64, u64)>,
    /// Per-vehicle segment sequence counters — the `seg` component of
    /// the canonical merge key. Persisted in the corpus `ingest`
    /// section so recovery numbers future segments exactly like an
    /// uninterrupted run.
    pub(crate) next_seg: HashMap<u64, u64>,
    pub(crate) pending: Vec<PendingSegment>,
    /// This shard's share of [`IngestConfig::max_buffered_points`].
    budget_points: usize,
    /// This shard's share of [`IngestConfig::max_sessions`].
    budget_sessions: usize,
    /// Ring of the most recently evicted vehicles (capacity
    /// [`EVICTION_LOG_CAP`]), oldest first.
    pub(crate) evictions: VecDeque<u64>,
    pub(crate) stats: IngestStats,
}

impl ShardCore {
    pub(crate) fn new(config: &IngestConfig, next_seg: HashMap<u64, u64>) -> ShardCore {
        ShardCore {
            config: *config,
            clock: f64::NEG_INFINITY,
            next_arrival: 0,
            buffered: 0,
            sessions: HashMap::new(),
            idle: BTreeSet::new(),
            next_seg,
            pending: Vec::new(),
            budget_points: budget_share(config.max_buffered_points, config.shards),
            budget_sessions: budget_share(config.max_sessions, config.shards),
            evictions: VecDeque::new(),
            stats: IngestStats::default(),
        }
    }

    /// Vets `sample` against `vehicle`'s session (a fresh one if none is
    /// live). Pure.
    pub(crate) fn vet(&self, vehicle: u64, sample: &GpsSample) -> Disposition {
        match self.sessions.get(&vehicle) {
            Some(sess) => sess.vet(&self.config.policy, sample),
            None => Session::new(vehicle).vet(&self.config.policy, sample),
        }
    }

    /// True when a session whose last fix is at `t` is idle at `clock`.
    pub(crate) fn is_idle(&self, t: f64, clock: f64) -> bool {
        self.config.idle_timeout > 0.0 && t + self.config.idle_timeout < clock
    }

    /// Applies one journal record. The only place a record changes
    /// session state, live and on replay alike.
    ///
    /// Every clock advance sweeps — a `Clock` frame here, a `Point` past
    /// the clock in [`ShardCore::accept`], which also sweeps a fix that
    /// is idle on arrival — so between records no session is idle at
    /// the core's clock, and each record acts on the sessions a sweep at
    /// that clock leaves.
    pub(crate) fn apply(&mut self, rec: &WalRecord) {
        match *rec {
            WalRecord::Point { vehicle, x, y, t } => {
                let sample = GpsSample {
                    point: Point::new(x, y),
                    t,
                };
                // Only accepted fixes are journaled, and validation
                // depends only on journaled state, so the verdict is
                // Accept again by construction.
                debug_assert_eq!(
                    self.vet(vehicle, &sample),
                    Disposition::Accept,
                    "journaled fix must replay as accepted"
                );
                self.accept(vehicle, sample);
            }
            WalRecord::Finalize { vehicle } => {
                if self.close_session(vehicle) {
                    self.stats.segments_explicit += 1;
                }
            }
            WalRecord::FinalizeAll => {
                // Deterministic order: first buffered arrival, vehicle id
                // as the tie-break (covers empty buffers).
                let mut order: Vec<(u64, u64)> = self
                    .sessions
                    .values()
                    .map(|s| (s.arrivals.first().copied().unwrap_or(u64::MAX), s.vehicle))
                    .collect();
                order.sort_unstable();
                for (_, vehicle) in order {
                    self.close_session(vehicle);
                    self.stats.segments_explicit += 1;
                }
            }
            WalRecord::Resume { vehicle, x, y, t } => {
                let mut sess = Session::new(vehicle);
                sess.last = Some(GpsSample {
                    point: Point::new(x, y),
                    t,
                });
                self.idle.insert((time_key(t), vehicle));
                self.sessions.insert(vehicle, sess);
            }
            WalRecord::Clock { t } => {
                if t > self.clock {
                    self.clock = t;
                    self.sweep_idle(t);
                }
            }
        }
    }

    /// Buffers an accepted fix, then rolls the segment over at the size
    /// cap, advances the clock, sweeps, and enforces the memory budget.
    fn accept(&mut self, vehicle: u64, sample: GpsSample) {
        self.stats.points_accepted += 1;
        let sess = self
            .sessions
            .entry(vehicle)
            .or_insert_with(|| Session::new(vehicle));
        if let Some(prev) = sess.last {
            self.idle.remove(&(time_key(prev.t), vehicle));
        }
        sess.accept(sample, self.next_arrival);
        self.next_arrival += 1;
        self.buffered += 1;
        self.idle.insert((time_key(sample.t), vehicle));
        if self.config.max_session_points > 0
            && sess.samples.len() >= self.config.max_session_points
        {
            let samples = sess.take_segment();
            self.buffered -= samples.len();
            self.cut_segment(vehicle, samples);
            self.stats.segments_cap += 1;
        }
        if sample.t > self.clock {
            self.clock = sample.t;
        }
        self.sweep_idle(self.clock);
        self.enforce_memory_budget();
    }

    /// Finalizes every session that is idle at `clock`: the core's own
    /// clock inside [`ShardCore::apply`], the engine's global clock for
    /// the live read-ahead. Returns the number of sessions closed.
    pub(crate) fn sweep_idle(&mut self, clock: f64) -> usize {
        let mut closed = 0;
        while let Some(&(_, vehicle)) = self.idle.first() {
            let last = self.sessions[&vehicle]
                .last
                .expect("idle-indexed session has a last fix");
            if !self.is_idle(last.t, clock) {
                break;
            }
            self.close_session(vehicle);
            self.stats.segments_idle += 1;
            closed += 1;
        }
        closed
    }

    /// LRU eviction for this shard's memory-budget share: while either
    /// share is exceeded, the session with the oldest last-accepted fix
    /// is finalized to the pending queue — exactly what the idle sweep
    /// would eventually do, just earlier. Every input is core state, so
    /// replay evicts the same sessions in the same order, and eviction
    /// is invisible in the recovered corpus.
    fn enforce_memory_budget(&mut self) {
        loop {
            let over_points = self.budget_points > 0 && self.buffered > self.budget_points;
            let over_sessions =
                self.budget_sessions > 0 && self.sessions.len() > self.budget_sessions;
            if !(over_points || over_sessions) {
                return;
            }
            // Every live session has a last fix and is idle-indexed, so
            // the loop always makes progress while anything is over.
            let Some(&(_, vehicle)) = self.idle.first() else {
                return;
            };
            self.close_session(vehicle);
            self.stats.sessions_evicted += 1;
            if self.evictions.len() == EVICTION_LOG_CAP {
                self.evictions.pop_front();
            }
            self.evictions.push_back(vehicle);
        }
    }

    /// Removes `vehicle`'s session, queueing any buffered samples as a
    /// segment under the vehicle's next sequence number. Returns true
    /// when a session existed.
    fn close_session(&mut self, vehicle: u64) -> bool {
        let Some(mut sess) = self.sessions.remove(&vehicle) else {
            return false;
        };
        if let Some(last) = sess.last {
            self.idle.remove(&(time_key(last.t), vehicle));
        }
        let samples = sess.take_segment();
        self.buffered -= samples.len();
        self.cut_segment(vehicle, samples);
        true
    }

    /// Queues a non-empty cut under the vehicle's next segment sequence
    /// number.
    fn cut_segment(&mut self, vehicle: u64, samples: Vec<GpsSample>) {
        if samples.is_empty() {
            return;
        }
        let seg = self.next_seg.entry(vehicle).or_insert(0);
        self.pending.push(PendingSegment {
            vehicle,
            seg: *seg,
            samples,
        });
        *seg += 1;
    }

    /// The rebuilt journal for the next generation: clock, resumes
    /// (sessions whose state is only the last fix), then buffered
    /// points in arrival order.
    pub(crate) fn checkpoint_records(&self, clock: f64) -> Vec<WalRecord> {
        let mut records = Vec::new();
        if clock.is_finite() {
            records.push(WalRecord::Clock { t: clock });
        }
        let mut resumes: Vec<&Session> = self
            .sessions
            .values()
            .filter(|s| s.samples.is_empty() && s.last.is_some())
            .collect();
        resumes.sort_unstable_by_key(|s| s.vehicle);
        for sess in resumes {
            let last = sess.last.expect("filtered on last.is_some");
            records.push(WalRecord::Resume {
                vehicle: sess.vehicle,
                x: last.point.x,
                y: last.point.y,
                t: last.t,
            });
        }
        let mut points: Vec<(u64, u64, GpsSample)> = Vec::new();
        for sess in self.sessions.values() {
            for (&arrival, &sample) in sess.arrivals.iter().zip(&sess.samples) {
                points.push((arrival, sess.vehicle, sample));
            }
        }
        points.sort_unstable_by_key(|&(arrival, vehicle, _)| (arrival, vehicle));
        for (_, vehicle, sample) in points {
            records.push(WalRecord::Point {
                vehicle,
                x: sample.point.x,
                y: sample.point.y,
                t: sample.t,
            });
        }
        records
    }

    /// Accepted points not yet in the corpus slice.
    pub(crate) fn in_flight_points(&self) -> usize {
        self.buffered + self.pending.iter().map(|p| p.samples.len()).sum::<usize>()
    }
}
