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
use std::collections::hash_map::Entry;
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

/// The timestamp `key` was made from: the inverse of [`time_key`].
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A live session and the key of its idle-index entry.
pub(crate) struct Live {
    pub(crate) session: Session,
    /// `time_key` of a time no later than the session's last fix.
    idle_key: u64,
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
    pub(crate) sessions: HashMap<u64, Live>,
    /// The idle index: one `(idle_key, vehicle)` entry per live session
    /// (every live session has a last fix). A fix does not re-key its
    /// session's entry, so a key may trail its session's last fix but
    /// never runs ahead of it. So a first entry that is not idle proves
    /// that no session is, and a first entry whose key is current is the
    /// least `(last.t, vehicle)` of all sessions: the order a fully
    /// re-keyed index would give. The sweep re-keys a trailing first
    /// entry only when it looks idle; the eviction, which takes the
    /// least session idle or not, whenever it trails.
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
            Some(live) => live.session.vet(&self.config.policy, sample),
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
    ///
    /// Refuses, changing nothing, a `Resume` for a vehicle whose session
    /// is live: a checkpoint writes one `Resume` per vehicle, before any
    /// `Point`, so only a damaged journal whose CRCs still pass has one.
    /// Live ingest journals no `Resume`.
    pub(crate) fn apply(&mut self, rec: &WalRecord) -> Result<(), String> {
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
                    .map(|l| {
                        let s = &l.session;
                        (s.arrivals.first().copied().unwrap_or(u64::MAX), s.vehicle)
                    })
                    .collect();
                order.sort_unstable();
                for (_, vehicle) in order {
                    self.close_session(vehicle);
                    self.stats.segments_explicit += 1;
                }
            }
            WalRecord::Resume { vehicle, x, y, t } => {
                let Entry::Vacant(slot) = self.sessions.entry(vehicle) else {
                    return Err(format!(
                        "a resume for vehicle {vehicle}, whose session is live"
                    ));
                };
                let mut session = Session::new(vehicle);
                session.last = Some(GpsSample {
                    point: Point::new(x, y),
                    t,
                });
                let idle_key = time_key(t);
                self.idle.insert((idle_key, vehicle));
                slot.insert(Live { session, idle_key });
            }
            WalRecord::Clock { t } => {
                if t > self.clock {
                    self.clock = t;
                    self.sweep_idle(t);
                }
            }
        }
        Ok(())
    }

    /// Buffers an accepted fix, then rolls the segment over at the size
    /// cap, advances the clock, sweeps, and enforces the memory budget.
    /// Only a new session gets an idle entry; a live one keeps its key.
    fn accept(&mut self, vehicle: u64, sample: GpsSample) {
        self.stats.points_accepted += 1;
        let sess = match self.sessions.entry(vehicle) {
            Entry::Occupied(live) => &mut live.into_mut().session,
            Entry::Vacant(slot) => {
                let idle_key = time_key(sample.t);
                self.idle.insert((idle_key, vehicle));
                let session = Session::new(vehicle);
                &mut slot.insert(Live { session, idle_key }).session
            }
        };
        sess.accept(sample, self.next_arrival);
        self.next_arrival += 1;
        self.buffered += 1;
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
        while let Some(&(key, vehicle)) = self.idle.first() {
            if !self.is_idle(key_time(key), clock) {
                break;
            }
            if self.rekey_first(key, vehicle) {
                continue;
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
            // Every live session is idle-indexed, so the loop always
            // makes progress while anything is over.
            let Some(&(key, vehicle)) = self.idle.first() else {
                return;
            };
            if self.rekey_first(key, vehicle) {
                continue;
            }
            self.close_session(vehicle);
            self.stats.sessions_evicted += 1;
            if self.evictions.len() == EVICTION_LOG_CAP {
                self.evictions.pop_front();
            }
            self.evictions.push_back(vehicle);
        }
    }

    /// Re-keys the first idle entry, `(key, vehicle)`, to its session's
    /// last fix when it trails it. Returns true when it did: the entry
    /// moved, and another may be first now.
    fn rekey_first(&mut self, key: u64, vehicle: u64) -> bool {
        let live = self
            .sessions
            .get_mut(&vehicle)
            .expect("an idle entry's session is live");
        let last = live.session.last.expect("a live session has a last fix");
        let current = time_key(last.t);
        if current == key {
            return false;
        }
        self.idle.pop_first();
        self.idle.insert((current, vehicle));
        live.idle_key = current;
        true
    }

    /// Removes `vehicle`'s session, queueing any buffered samples as a
    /// segment under the vehicle's next sequence number. Returns true
    /// when a session existed.
    fn close_session(&mut self, vehicle: u64) -> bool {
        let Some(Live {
            session: mut sess,
            idle_key,
        }) = self.sessions.remove(&vehicle)
        else {
            return false;
        };
        self.idle.remove(&(idle_key, vehicle));
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

    /// The rebuilt journal for the next generation: resumes (sessions
    /// whose state is only the last fix), buffered points in arrival
    /// order, then the clock. The clock goes last. Points replayed after
    /// it would meet a clock that can be past a session's first fix by
    /// more than the idle timeout, and cut that fix alone where live
    /// ingest kept it with the rest. Replayed first, the points rebuild
    /// each session at clocks no later than live ingest's, and the
    /// clock then sweeps what the checkpoint's own `Clock` sweeps live.
    pub(crate) fn checkpoint_records(&self, clock: f64) -> Vec<WalRecord> {
        let mut records = Vec::new();
        let mut resumes: Vec<&Session> = self
            .sessions
            .values()
            .map(|l| &l.session)
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
        for sess in self.sessions.values().map(|l| &l.session) {
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
        if clock.is_finite() {
            records.push(WalRecord::Clock { t: clock });
        }
        records
    }

    /// Accepted points not yet in the corpus slice.
    pub(crate) fn in_flight_points(&self) -> usize {
        self.buffered + self.pending.iter().map(|p| p.samples.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionPolicy;
    use proptest::prelude::*;

    /// The brute-force reference: the core's rules, with the live
    /// sessions in a `Vec` and the least `(last.t, vehicle)` found by a
    /// scan instead of an index.
    struct Reference {
        config: IngestConfig,
        clock: f64,
        next_arrival: u64,
        buffered: usize,
        sessions: Vec<Session>,
        next_seg: HashMap<u64, u64>,
        pending: Vec<PendingSegment>,
        evictions: VecDeque<u64>,
        stats: IngestStats,
    }

    impl Reference {
        fn new(config: &IngestConfig) -> Reference {
            Reference {
                config: *config,
                clock: f64::NEG_INFINITY,
                next_arrival: 0,
                buffered: 0,
                sessions: Vec::new(),
                next_seg: HashMap::new(),
                pending: Vec::new(),
                evictions: VecDeque::new(),
                stats: IngestStats::default(),
            }
        }

        fn apply(&mut self, rec: &WalRecord) -> Result<(), String> {
            match *rec {
                WalRecord::Point { vehicle, x, y, t } => {
                    let point = Point::new(x, y);
                    self.accept(vehicle, GpsSample { point, t });
                }
                WalRecord::Finalize { vehicle } => {
                    if self.close(vehicle) {
                        self.stats.segments_explicit += 1;
                    }
                }
                WalRecord::FinalizeAll => {
                    let mut order: Vec<(u64, u64)> = (self.sessions.iter())
                        .map(|s| (s.arrivals.first().copied().unwrap_or(u64::MAX), s.vehicle))
                        .collect();
                    order.sort_unstable();
                    for (_, vehicle) in order {
                        self.close(vehicle);
                        self.stats.segments_explicit += 1;
                    }
                }
                WalRecord::Resume { vehicle, x, y, t } => {
                    if self.sessions.iter().any(|s| s.vehicle == vehicle) {
                        return Err("live".into());
                    }
                    let mut session = Session::new(vehicle);
                    let point = Point::new(x, y);
                    session.last = Some(GpsSample { point, t });
                    self.sessions.push(session);
                }
                WalRecord::Clock { t } => {
                    if t > self.clock {
                        self.clock = t;
                        self.sweep(t);
                    }
                }
            }
            Ok(())
        }

        fn accept(&mut self, vehicle: u64, sample: GpsSample) {
            self.stats.points_accepted += 1;
            let i = match self.sessions.iter().position(|s| s.vehicle == vehicle) {
                Some(i) => i,
                None => {
                    self.sessions.push(Session::new(vehicle));
                    self.sessions.len() - 1
                }
            };
            self.sessions[i].accept(sample, self.next_arrival);
            self.next_arrival += 1;
            self.buffered += 1;
            let cap = self.config.max_session_points;
            if cap > 0 && self.sessions[i].samples.len() >= cap {
                let samples = self.sessions[i].take_segment();
                self.buffered -= samples.len();
                self.cut(vehicle, samples);
                self.stats.segments_cap += 1;
            }
            self.clock = self.clock.max(sample.t);
            self.sweep(self.clock);
            let (points, sessions) = (self.config.max_buffered_points, self.config.max_sessions);
            while (points > 0 && self.buffered > points)
                || (sessions > 0 && self.sessions.len() > sessions)
            {
                let (_, vehicle) = self.least().expect("over budget with no session");
                self.close(vehicle);
                self.stats.sessions_evicted += 1;
                if self.evictions.len() == EVICTION_LOG_CAP {
                    self.evictions.pop_front();
                }
                self.evictions.push_back(vehicle);
            }
        }

        /// The least `(last.t, vehicle)` of the live sessions, by a scan.
        fn least(&self) -> Option<(f64, u64)> {
            (self.sessions.iter())
                .map(|s| (s.last.expect("a live session has a last fix").t, s.vehicle))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        }

        fn sweep(&mut self, clock: f64) -> usize {
            let timeout = self.config.idle_timeout;
            let mut closed = 0;
            while let Some((t, vehicle)) = self.least() {
                if !(timeout > 0.0 && t + timeout < clock) {
                    break;
                }
                self.close(vehicle);
                self.stats.segments_idle += 1;
                closed += 1;
            }
            closed
        }

        fn close(&mut self, vehicle: u64) -> bool {
            let Some(i) = self.sessions.iter().position(|s| s.vehicle == vehicle) else {
                return false;
            };
            let samples = self.sessions.remove(i).take_segment();
            self.buffered -= samples.len();
            self.cut(vehicle, samples);
            true
        }

        fn cut(&mut self, vehicle: u64, samples: Vec<GpsSample>) {
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
    }

    type SessionView = (u64, Vec<GpsSample>, Vec<u64>, Option<GpsSample>);

    fn sessions_of<'a>(sessions: impl Iterator<Item = &'a Session>) -> Vec<SessionView> {
        let mut view: Vec<SessionView> = sessions
            .map(|s| (s.vehicle, s.samples.clone(), s.arrivals.clone(), s.last))
            .collect();
        view.sort_unstable_by_key(|s| s.0);
        view
    }

    fn pending_of(pending: &[PendingSegment]) -> Vec<(u64, u64, &[GpsSample])> {
        (pending.iter())
            .map(|p| (p.vehicle, p.seg, &p.samples[..]))
            .collect()
    }

    /// The core and the reference agree on everything a record can
    /// change, and every idle entry is its session's and no later than
    /// its last fix.
    fn agree(core: &ShardCore, reference: &Reference) -> Result<(), TestCaseError> {
        prop_assert_eq!(pending_of(&core.pending), pending_of(&reference.pending));
        prop_assert_eq!(&core.evictions, &reference.evictions);
        prop_assert_eq!(core.stats, reference.stats);
        prop_assert_eq!(core.buffered, reference.buffered);
        prop_assert_eq!(core.clock.to_bits(), reference.clock.to_bits());
        prop_assert_eq!(
            sessions_of(core.sessions.values().map(|l| &l.session)),
            sessions_of(reference.sessions.iter())
        );
        prop_assert_eq!(core.idle.len(), core.sessions.len());
        for &(key, vehicle) in &core.idle {
            let live = &core.sessions[&vehicle];
            let last = live.session.last.expect("a live session has a last fix");
            prop_assert_eq!(live.idle_key, key);
            prop_assert!(
                key_time(key) <= last.t,
                "vehicle {vehicle}'s idle key {} runs ahead of its last fix {}",
                key_time(key),
                last.t
            );
        }
        Ok(())
    }

    #[test]
    fn key_time_inverts_time_key() {
        for t in [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            2.25,
            1e300,
            f64::INFINITY,
        ] {
            assert_eq!(key_time(time_key(t)).to_bits(), t.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random journals through the core and the brute-force
        /// reference: interleaved vehicles, late fixes, `Clock` jumps
        /// past the idle timeout, finalizes, resumes, size-cap rollovers,
        /// memory budgets of 1–3 and the live read-ahead sweep.
        #[test]
        fn idle_index_equals_a_brute_force_scan(
            limits in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
            ops in proptest::collection::vec((0u8..10, 0u64..5, 0.0f64..1.0), 1..160),
        ) {
            let (timeout, cap, points, sessions) = limits;
            let config = IngestConfig {
                policy: SessionPolicy { max_speed_m_s: 0.0 },
                idle_timeout: [0.0, 5.0, 10.0, 30.0][timeout],
                max_session_points: cap,
                max_buffered_points: points,
                max_sessions: sessions,
                shards: 1,
                ..IngestConfig::default()
            };
            let mut core = ShardCore::new(&config, HashMap::new());
            let mut reference = Reference::new(&config);
            for (step, &(kind, vehicle, f)) in ops.iter().enumerate() {
                let clock = if core.clock.is_finite() { core.clock } else { 0.0 };
                let last = core.sessions.get(&vehicle).and_then(|l| l.session.last).map(|s| s.t);
                let at = |t: f64| WalRecord::Point { vehicle, x: t, y: vehicle as f64, t };
                let rec = match kind {
                    0 | 1 | 9 => at(clock.max(last.unwrap_or(clock)) + 4.0 * f),
                    // Late: behind the clock, so possibly idle on arrival.
                    2 => at(last.unwrap_or(clock - 40.0) + 8.0 * f),
                    3 => at(clock.max(last.unwrap_or(clock)) + 40.0 * f),
                    4 => WalRecord::Clock { t: clock + 60.0 * f },
                    5 => WalRecord::Finalize { vehicle },
                    6 => {
                        // The live read-ahead at a global clock; the engine
                        // journals that clock when the sweep closed any.
                        let global = clock + 60.0 * f;
                        let closed = core.sweep_idle(global);
                        prop_assert_eq!(closed, reference.sweep(global), "step {}", step);
                        agree(&core, &reference)?;
                        if closed == 0 || global <= core.clock {
                            continue;
                        }
                        WalRecord::Clock { t: global }
                    }
                    7 => WalRecord::Resume { vehicle, x: 0.0, y: 0.0, t: last.unwrap_or(clock) - 5.0 * f },
                    _ if f < 0.3 => WalRecord::FinalizeAll,
                    _ => at(clock.max(last.unwrap_or(clock)) + f),
                };
                if let WalRecord::Point { x, y, t, .. } = rec {
                    let sample = GpsSample { point: Point::new(x, y), t };
                    if core.vet(vehicle, &sample) != Disposition::Accept {
                        continue;
                    }
                }
                let (got, want) = (core.apply(&rec), reference.apply(&rec));
                prop_assert_eq!(got.is_err(), want.is_err(), "step {}: {:?}", step, rec);
                agree(&core, &reference)?;
            }
        }
    }
}
