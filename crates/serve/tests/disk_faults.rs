//! Disk-fault injection tests for the ingest engine.
//!
//! The central matrix: an arbitrary seeded disk fault (ENOSPC / EIO /
//! short write / fsync failure, one-shot or sticky, at any operation
//! index) composed with a kill at any legitimate power-loss offset.
//! Under every combination the engine must fail *typed* — never panic,
//! never silently drop — and the recovered corpus must be
//! byte-identical to a clean run over exactly the journaled-surviving
//! subsequence of the stream.
//!
//! Also here: the memory-budget/eviction determinism proptest (eviction
//! order and corpus bytes identical across flush-worker counts, and
//! reproduced exactly by journal replay), the fleets-larger-than-memory
//! budget test, and the two clean-run invariances (flush-worker count,
//! durability policy).

mod common;

use common::{finish, finish_merged, test_dir, Fleet};
use press_matcher::GpsSample;
use press_serve::wal::{MAX_FRAME_LEN, WAL_HEADER_LEN, WRITE_CAP};
use press_serve::{
    shard_wal_len, truncate_shard_wal, DiskFault, DurabilityPolicy, Event, FaultKind, FaultyIo,
    IngestConfig, IngestEngine, ServeError, SessionPolicy,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared fixture: the `ingest_recovery` fleet stream.
fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::new(21, 30, 10, 37.0))
}

fn config() -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 400.0,
        max_session_points: 24,
        block_size: 3,
        threads: 2,
        max_lattice_work: 0,
        max_salvage_splits: 8,
        // Group commit with small thresholds so both batched syncs and
        // long journaled-not-durable windows occur inside the fixture
        // stream; zero backoff keeps retry loops instant.
        durability: DurabilityPolicy {
            sync_bytes: 2048,
            sync_interval: 120.0,
            max_retries: 2,
            retry_backoff_ms: 0,
        },
        ..IngestConfig::default()
    }
}

/// Pushes `events` through a fresh fault-free engine and finishes it
/// with `done` ([`finish`] or [`finish_merged`]), returning its corpus
/// bytes. The reference side of every byte-identity assertion.
fn reference_corpus(
    tag: &str,
    cfg: IngestConfig,
    events: &[Event],
    done: fn(&mut IngestEngine) -> Vec<u8>,
) -> Vec<u8> {
    let f = fleet();
    let dir = test_dir(tag);
    let mut engine = f.open(&dir, cfg).expect("open reference");
    for &(v, s) in events {
        engine.push(v, s).expect("reference push");
    }
    let corpus = done(&mut engine);
    let _ = std::fs::remove_dir_all(&dir);
    corpus
}

/// Pushes `events` through a fault-free `FaultyIo` engine — with the
/// fault cell's mid-run checkpoint when `mid_checkpoint` — drops it, and
/// returns, per needle, how many backend operations on paths containing
/// it that took after open (every path contains the empty needle). A
/// cell draws its fault's operation index below this count, the way the
/// kill tests draw their cut below a probe's journal length: the faulted
/// run performs the same operations up to its fault, so every drawn
/// fault fires. The count is read after the drop, a settle point: group
/// commits run on the engine's syncer thread, and until a batch settles
/// its operations may not have happened yet. So it includes the drop's
/// own write of the last buffered frames.
fn probe_ops(
    tag: &str,
    cfg: IngestConfig,
    events: &[Event],
    mid_checkpoint: bool,
    needles: &[String],
) -> Vec<u64> {
    let f = fleet();
    let dir = test_dir(&format!("probe-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f
        .open_with_io(&dir, cfg, faulty.clone())
        .expect("open probe");
    let start: Vec<u64> = needles.iter().map(|n| faulty.ops_on(n)).collect();
    for (i, &(v, s)) in events.iter().enumerate() {
        if mid_checkpoint && i == events.len() / 2 {
            engine.checkpoint().expect("probe checkpoint");
        }
        engine.push(v, s).expect("probe push");
    }
    drop(engine);
    let ops = needles
        .iter()
        .zip(start)
        .map(|(n, start)| faulty.ops_on(n) - start)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

/// [`probe_ops`] over every path.
fn probe_all_ops(tag: &str, cfg: IngestConfig, events: &[Event], mid_checkpoint: bool) -> u64 {
    let ops = probe_ops(tag, cfg, events, mid_checkpoint, &[String::new()])[0];
    assert!(ops > 0, "the probe stream must reach the backend");
    ops
}

/// One cell of the fault matrix: ingest `events` through a `FaultyIo`
/// armed with `fault` (op index relative to post-open state, below the
/// stream's [`probe_ops`] so the fault fires), optionally attempting a
/// mid-run checkpoint, then kill at a legitimate power-loss offset
/// (`kill_frac` across `[durable_offset, wal_len]`), recover on the
/// real filesystem, and check the byte-identity contract over the
/// journaled-surviving subsequence.
#[allow(clippy::too_many_arguments)]
fn run_fault_cell(
    tag: &str,
    cfg: IngestConfig,
    events: &[Event],
    delta: u64,
    kind: FaultKind,
    sticky: bool,
    kill_frac: f64,
    mid_checkpoint: bool,
) {
    let f = fleet();
    let dir = test_dir(&format!("cell-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f
        .open_with_io(&dir, cfg, faulty.clone())
        .expect("open with clean io");
    faulty.arm(DiskFault {
        at_op: faulty.ops() + delta,
        kind,
        sticky,
    });

    // `journaled` records (event index, ack offset) for every push the
    // engine applied; errored pushes leave no trace at all and must be
    // absent from the reference feed.
    let split = events.len() / 2;
    let mut journaled: Vec<(usize, u64)> = Vec::new();
    let mut safe_count = 0usize;
    for (i, &(v, s)) in events.iter().enumerate() {
        if mid_checkpoint && i == split {
            match engine.checkpoint() {
                // All pre-checkpoint journaled events are now safe for
                // ANY later cut: published corpus + synced rewritten
                // journal.
                Ok(_) => safe_count = journaled.len(),
                // A faulted checkpoint is typed and leaves the old
                // generation fully live; the engine keeps ingesting.
                // Only a fault after the manifest rename (its directory
                // fsync) leaves the new generation live instead — the
                // one recovery opens — and the engine on it.
                Err(e) => {
                    assert!(
                        !e.to_string().is_empty(),
                        "checkpoint fault must carry a message"
                    );
                    if engine.generation() > 0 {
                        assert!(matches!(e, ServeError::Manifest(_)), "{e}");
                        safe_count = journaled.len();
                    }
                }
            }
        }
        match engine.push(v, s) {
            Ok(ack) => {
                if let Some(offset) = ack.offset() {
                    journaled.push((i, offset));
                }
            }
            Err(e)
                if e.degraded_shard() == Some(0)
                    && matches!(
                        e.root_cause(),
                        ServeError::StorageFull(_) | ServeError::Backpressure { .. }
                    ) => {}
            Err(other) => panic!("push surfaced an untyped fault: {other}"),
        }
    }
    let stats = engine.stats();
    if journaled.len() < events.len() {
        assert!(
            stats.storage_full_rejections
                + stats.backpressure_rejections
                + stats.io_retries
                + stats.sync_failures
                > 0,
            "an injected fault that cost events must show up in the counters"
        );
    }
    // The watermark before the drop settles the last batches: a lower
    // bound of the durable prefix, so every cut drawn above it is still
    // a legitimate crash state.
    let durable = engine.shard_durable_offset(0);
    drop(engine); // crash with the fault still armed
                  // Read after the drop, which settles every queued batch: a fault
                  // drawn below the probe's count has fired by now.
    assert!(
        faulty.injected() > 0,
        "fault {kind:?} delta {delta} sticky {sticky} never fired"
    );

    // Power loss can only lose bytes the engine never fsynced: any cut
    // in [durable_offset, file length] is a legitimate crash state
    // (the tail past wal_offset() is a torn frame a faulted append left
    // behind — recovery must shrug it off too).
    let len = shard_wal_len(&dir, 0).expect("wal len");
    let lo = durable.max(WAL_HEADER_LEN);
    assert!(len >= lo, "durable watermark cannot exceed the journal");
    let cut = lo + ((len - lo) as f64 * kill_frac).round() as u64;
    truncate_shard_wal(&dir, 0, cut).expect("truncate");

    let mut recovered = f
        .open(&dir, cfg)
        .expect("recovery must succeed on the real filesystem");
    let corpus_a = finish(&mut recovered);

    // Survivors: everything journaled before a successful checkpoint,
    // plus later frames that fit under the cut (offsets are monotonic
    // per journal generation).
    let surviving: Vec<Event> = journaled
        .iter()
        .enumerate()
        .filter(|&(k, &(_, off))| k < safe_count || off <= cut)
        .map(|(_, &(idx, _))| events[idx])
        .collect();
    let corpus_b = reference_corpus(&format!("cell-ref-{tag}"), cfg, &surviving, finish);
    assert_eq!(
        corpus_a, corpus_b,
        "fault {kind:?} delta {delta} sticky {sticky} cut {cut}: recovered corpus \
         must be byte-identical to a clean run over the surviving events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fault matrix: any fault kind at any operation index,
    /// one-shot or sticky, composed with a kill at any legitimate
    /// power-loss offset, with and without a mid-run checkpoint in the
    /// fault window.
    #[test]
    fn any_disk_fault_plus_kill_preserves_the_acked_prefix(
        delta_frac in 0.0f64..1.0,
        kind_idx in 0usize..4,
        sticky in any::<bool>(),
        kill_frac in 0.0f64..=1.0,
        mid_checkpoint in any::<bool>(),
    ) {
        let kind = FaultKind::ALL[kind_idx];
        let ops = probe_all_ops(
            &format!("matrix-{mid_checkpoint}"),
            config(),
            &fleet().events,
            mid_checkpoint,
        );
        let delta = (ops as f64 * delta_frac) as u64;
        run_fault_cell(
            &format!("{delta}-{kind_idx}-{sticky}-{mid_checkpoint}"),
            config(),
            &fleet().events,
            delta,
            kind,
            sticky,
            kill_frac,
            mid_checkpoint,
        );
    }
}

/// Config for the eviction tests: a memory budget small enough that the
/// ten staggered fixture vehicles overflow it (when `trigger`), across
/// a configurable flush-worker count.
fn eviction_cfg(threads: usize, trigger: bool) -> IngestConfig {
    IngestConfig {
        threads,
        max_buffered_points: if trigger { 48 } else { 0 },
        max_sessions: if trigger { 4 } else { 0 },
        ..config()
    }
}

/// Baseline (eviction order, corpus bytes) computed once per budget
/// flavor with a single flush worker; every other worker count must
/// reproduce both exactly.
fn eviction_baseline(trigger: bool) -> &'static (Vec<u64>, Vec<u8>) {
    static BASE: [OnceLock<(Vec<u64>, Vec<u8>)>; 2] = [OnceLock::new(), OnceLock::new()];
    BASE[usize::from(trigger)].get_or_init(|| {
        let f = fleet();
        let dir = test_dir(&format!("evict-base-{trigger}"));
        let mut engine = f
            .open(&dir, eviction_cfg(1, trigger))
            .expect("open baseline");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        let log: Vec<u64> = engine.eviction_log().iter().copied().collect();
        let corpus = finish(&mut engine);
        let _ = std::fs::remove_dir_all(&dir);
        (log, corpus)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Eviction is deterministic and invisible: for any flush-worker
    /// count, a budgeted run evicts the same sessions in the same order
    /// as the single-worker baseline, journal replay after a crash
    /// reproduces that order exactly, and the recovered corpus is
    /// byte-identical to the baseline corpus.
    #[test]
    fn eviction_order_and_corpus_are_deterministic(
        threads_idx in 0usize..4,
        trigger in any::<bool>(),
    ) {
        let threads = [1usize, 2, 3, 7][threads_idx];
        let f = fleet();
        let cfg = eviction_cfg(threads, trigger);
        let dir = test_dir(&format!("evict-{threads}-{trigger}"));
        let mut engine =
            f.open(&dir, cfg).expect("open");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        let log_live: Vec<u64> = engine.eviction_log().iter().copied().collect();
        prop_assert_eq!(
            log_live.is_empty(),
            !trigger,
            "budget {} must {}trigger eviction",
            trigger,
            if trigger { "" } else { "not " }
        );
        drop(engine); // crash: no finalize, no checkpoint

        let mut recovered =
            f.open(&dir, cfg).expect("recover");
        let log_replayed: Vec<u64> = recovered.eviction_log().iter().copied().collect();
        prop_assert_eq!(
            &log_replayed,
            &log_live,
            "journal replay must reproduce the eviction order exactly"
        );
        let corpus = finish(&mut recovered);
        let (base_log, base_corpus) = eviction_baseline(trigger);
        prop_assert_eq!(
            &log_live,
            base_log,
            "eviction order must not depend on the flush-worker count"
        );
        prop_assert_eq!(
            &corpus,
            base_corpus,
            "corpus bytes must not depend on the flush-worker count or the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fleet several times larger than the session budget: memory stays
/// bounded after every single push, evictions actually happen, replay
/// reproduces them, and the published corpus is byte-identical to an
/// uninterrupted run — eviction is invisible in the corpus bytes.
#[test]
fn fleet_larger_than_memory_stays_bounded_and_recovers() {
    let f = fleet();
    const REPLICAS: u64 = 12;
    const MAX_SESSIONS: usize = 16;
    const MAX_POINTS: usize = 600;
    let mut events: Vec<Event> = Vec::new();
    for k in 0..REPLICAS {
        for &(v, s) in &f.events {
            events.push((
                v + 10 * k,
                GpsSample {
                    point: s.point,
                    t: s.t + k as f64 * 13.0,
                },
            ));
        }
    }
    events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
    let cfg = IngestConfig {
        threads: 4,
        max_buffered_points: MAX_POINTS,
        max_sessions: MAX_SESSIONS,
        ..config()
    };

    let dir = test_dir("big-fleet");
    let mut engine = f.open(&dir, cfg).expect("open");
    for &(v, s) in &events {
        engine.push(v, s).expect("push");
        assert!(
            engine.session_count() <= MAX_SESSIONS,
            "session budget must hold after every push"
        );
        assert!(
            engine.buffered_points() <= MAX_POINTS,
            "point budget must hold after every push"
        );
    }
    assert!(
        engine.stats().sessions_evicted > 0,
        "a fleet this size must overflow the budget"
    );
    let log_live: Vec<u64> = engine.eviction_log().iter().copied().collect();
    drop(engine); // crash mid-run

    let mut recovered = f.open(&dir, cfg).expect("recover");
    let log_replayed: Vec<u64> = recovered.eviction_log().iter().copied().collect();
    assert_eq!(log_replayed, log_live, "replay reproduces eviction order");
    let corpus_recovered = finish(&mut recovered);
    let corpus_clean = reference_corpus("big-fleet-ref", cfg, &events, finish);
    assert_eq!(
        corpus_recovered, corpus_clean,
        "eviction and the crash must be invisible in the corpus bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flush-worker count only parallelizes salvage matching: a clean,
/// uninterrupted ingest publishes the same corpus bytes with 1, 2, 3 or
/// 7 workers.
#[test]
fn published_corpus_is_flush_worker_count_invariant() {
    let f = fleet();
    let run = |threads: usize| {
        let cfg = IngestConfig {
            threads,
            ..config()
        };
        reference_corpus(&format!("threads-{threads}"), cfg, &f.events, finish)
    };
    let single = run(1);
    for threads in [2usize, 3, 7] {
        assert_eq!(
            run(threads),
            single,
            "corpus at {threads} flush workers must be byte-identical to the 1-worker run"
        );
    }
}

/// A durability policy decides *when* the journal is written and
/// fsynced and nothing else: syncing after every push, the group-commit
/// default and never syncing before the final `sync` write the same
/// journal bytes and publish the same corpus bytes.
#[test]
fn durability_policy_changes_neither_journal_nor_corpus() {
    let f = fleet();
    let run = |tag: &str, durability: DurabilityPolicy| {
        let dir = test_dir(tag);
        let cfg = IngestConfig {
            durability,
            ..config()
        };
        let mut engine = f.open(&dir, cfg).expect("open");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        engine.sync().expect("covering sync");
        let syncs = engine.stats().sync_calls;
        let journal = std::fs::read(engine.shard_wal_path(0)).expect("journal bytes");
        let corpus = finish(&mut engine);
        let _ = std::fs::remove_dir_all(&dir);
        (syncs, journal, corpus)
    };
    let (syncs_pp, journal_pp, corpus_pp) = run("policy-per-push", DurabilityPolicy::per_push());
    let (syncs_gc, journal_gc, corpus_gc) = run("policy-group", DurabilityPolicy::group_commit());
    let (syncs_mn, journal_mn, corpus_mn) = run("policy-manual", DurabilityPolicy::manual());
    assert!(
        syncs_pp > 10 * syncs_gc,
        "the policies must differ in what they control: {syncs_pp} vs {syncs_gc} fsyncs"
    );
    assert_eq!(syncs_mn, 1, "manual syncs only when asked");
    assert_eq!(
        journal_pp, journal_gc,
        "sync policy leaked into the journal"
    );
    assert_eq!(
        journal_pp, journal_mn,
        "buffering until the final sync leaked into the journal"
    );
    assert_eq!(corpus_pp, corpus_gc, "sync policy leaked into the corpus");
    assert_eq!(corpus_pp, corpus_mn, "sync policy leaked into the corpus");
}

/// The fixture stream played `replicas` times back to back, each copy
/// shifted past the previous one's end plus an idle timeout (same
/// vehicles, later times) — a stream whose journal outgrows
/// [`WRITE_CAP`].
fn repeated_events(replicas: usize) -> Vec<Event> {
    let f = fleet();
    let (first, last) = (f.events[0].1.t, f.events[f.events.len() - 1].1.t);
    let period = last - first + 2.0 * config().idle_timeout;
    (0..replicas)
        .flat_map(|k| {
            f.events.iter().map(move |&(v, s)| {
                let t = s.t + k as f64 * period;
                (v, GpsSample { t, ..s })
            })
        })
        .collect()
}

/// [`config`] under [`DurabilityPolicy::manual`]: no group commit ever
/// writes a journal, only the appends that reach [`WRITE_CAP`].
fn manual_config() -> IngestConfig {
    IngestConfig {
        durability: DurabilityPolicy {
            retry_backoff_ms: 0,
            ..DurabilityPolicy::manual()
        },
        ..config()
    }
}

/// Replicas of the fixture whose `Point` frames alone exceed `bytes`:
/// a `Point` frame is 41 bytes (8-byte frame header, tag, vehicle,
/// x, y, t).
fn replicas_past(bytes: usize) -> usize {
    bytes / (fleet().events.len() * 41) + 1
}

/// The buffer never holds more than one cap's worth of frames: under
/// `manual()` — no group commit ever writes it — a stream that passes
/// [`WRITE_CAP`] at least twice on every shard keeps each shard's
/// buffered bytes (logical journal length minus file length) under
/// the cap plus one frame after every push.
#[test]
fn buffered_journal_stays_within_the_cap() {
    let f = fleet();
    let cfg = IngestConfig {
        shards: 2,
        ..manual_config()
    };
    let bound = (WRITE_CAP + MAX_FRAME_LEN as usize + 8) as u64;
    let dir = test_dir("cap-bound");
    let mut engine = f.open(&dir, cfg).expect("open");
    // Each shard takes a share of the vehicles; enough replicas that
    // even a 1-in-10 share passes the cap twice.
    for &(v, s) in &repeated_events(replicas_past(20 * WRITE_CAP)) {
        engine.push(v, s).expect("push");
        for k in 0..cfg.shards {
            let file = shard_wal_len(&dir, k as u32).expect("wal len");
            assert!(
                engine.shard_wal_offset(k) - file < bound,
                "shard {k}: {} bytes buffered",
                engine.shard_wal_offset(k) - file
            );
        }
    }
    for k in 0..cfg.shards {
        assert!(
            shard_wal_len(&dir, k as u32).expect("wal len") >= 2 * WRITE_CAP as u64,
            "shard {k}'s buffer must have reached the cap twice"
        );
    }
    assert_eq!(
        engine.stats().sync_calls,
        0,
        "only the cap wrote the journals"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cap write's fault cells: under `manual()` only the appends that
/// take a buffer to [`WRITE_CAP`] write the journal, so every fault the
/// cells draw lands on a cap write (and the repairs after it). A push
/// whose cap write fails is refused and its frame is not buffered: the
/// recovered corpus equals a clean run over the journaled-surviving
/// events only.
#[test]
fn buffered_cap_write_fault_keeps_the_acked_prefix() {
    let cfg = manual_config();
    let events = repeated_events(replicas_past(2 * WRITE_CAP));
    let ops = probe_all_ops("cap", cfg, &events, false);
    assert!(
        ops >= 2,
        "the stream must pass the cap twice, not {ops} times"
    );
    for (k, &kind) in [FaultKind::Enospc, FaultKind::Eio, FaultKind::ShortWrite]
        .iter()
        .enumerate()
    {
        for delta in 0..ops {
            for sticky in [false, true] {
                run_fault_cell(
                    &format!("cap-{k}-{delta}-{sticky}"),
                    cfg,
                    &events,
                    delta,
                    kind,
                    sticky,
                    if sticky { 1.0 } else { 0.5 },
                    false,
                );
            }
        }
    }
}

/// The deterministic seeded matrix the CI `disk-fault-smoke` job runs:
/// every fault kind at four operation indices spread over the fixture
/// stream's backend operations (first, last, and two between), each of
/// which fires. Cheap (no compression comparison — the proptest above
/// owns byte-identity); asserts the typed-error taxonomy, that one-shot
/// transient faults are absorbed by the retry budget, and that recovery
/// and a final checkpoint always succeed. Each cell ends its stream
/// with an explicit `sync`, the settle point that books every queued
/// group-commit batch before the counters are read; it writes the
/// frames the probe's drop writes, at the same operation index.
#[test]
fn seeded_fault_matrix_smoke() {
    let f = fleet();
    let events = &f.events[..];
    let cfg = config();
    let ops = probe_all_ops("smoke", cfg, events, false);
    let mut deltas = vec![0, ops / 3, 2 * ops / 3, ops - 1];
    deltas.dedup();
    for (k, &kind) in FaultKind::ALL.iter().enumerate() {
        for &delta in &deltas {
            let dir = test_dir(&format!("smoke-{k}-{delta}"));
            let faulty = FaultyIo::new(Vec::new());
            let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");
            faulty.arm(DiskFault {
                at_op: faulty.ops() + delta,
                kind,
                sticky: false,
            });
            let mut errors = 0usize;
            for &(v, s) in events {
                match engine.push(v, s) {
                    Ok(_) => {}
                    Err(e)
                        if e.degraded_shard() == Some(0)
                            && matches!(
                                e.root_cause(),
                                ServeError::StorageFull(_) | ServeError::Backpressure { .. }
                            ) =>
                    {
                        errors += 1;
                    }
                    Err(other) => panic!("untyped fault {kind:?}@{delta}: {other}"),
                }
            }
            let synced = engine.sync();
            if let Err(e) = &synced {
                assert!(
                    e.degraded_shard() == Some(0) && e.is_storage_full(),
                    "{kind:?}@{delta}: only out-of-space fails the final sync, typed: {e}"
                );
            }
            assert_eq!(
                faulty.injected(),
                1,
                "{kind:?}@{delta}: the fault must fire"
            );
            let stats = engine.stats();
            match kind {
                // A single transient error is absorbed by the retry
                // budget (appends) or by sync-failure degradation:
                // either way no push is refused.
                FaultKind::Eio | FaultKind::SyncFail => {
                    assert_eq!(errors, 0, "{kind:?}@{delta}: one-shot transient must heal");
                    assert!(synced.is_ok(), "{kind:?}@{delta}: the final sync heals too");
                    assert!(
                        stats.io_retries + stats.sync_failures > 0,
                        "{kind:?}@{delta}: the absorbed fault must be counted"
                    );
                }
                // Out-of-space is persistent: exactly the faulted
                // operation's push is refused, the rest proceed.
                FaultKind::Enospc | FaultKind::ShortWrite => {
                    assert!(
                        errors + usize::from(synced.is_err()) <= 1,
                        "{kind:?}@{delta}: a one-shot ENOSPC refuses at most one push or sync"
                    );
                    assert!(
                        stats.storage_full_rejections + stats.sync_failures > 0,
                        "{kind:?}@{delta}: rejection must be counted"
                    );
                }
            }
            drop(engine);
            let mut recovered = f.open(&dir, cfg).expect("recovery after one-shot fault");
            let _ = finish(&mut recovered);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Degraded mode end to end: the disk fills; pushes are acked at most
/// `Journaled` (their frames buffered) until the shard's next journal
/// write fails, and from then on every ingest push is refused with a
/// typed `StorageFull` while flush/query keep working; then space
/// returns and ingest resumes — and the final corpus contains exactly
/// the fixes that were ever journaled.
#[test]
fn disk_full_then_freed_resumes_ingest() {
    let f = fleet();
    let cfg = config();
    let dir = test_dir("disk-full");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");

    let third = f.events.len() / 3;
    let mut journaled: Vec<Event> = Vec::new();
    for &(v, s) in &f.events[..third] {
        if engine.push(v, s).expect("clean push").is_ingested() {
            journaled.push((v, s));
        }
    }

    // The disk fills: persistent ENOSPC on every write from now on.
    faulty.arm(DiskFault {
        at_op: 0,
        kind: FaultKind::Enospc,
        sticky: true,
    });
    let mut refused = 0usize;
    for &(v, s) in &f.events[third..2 * third] {
        match engine.push(v, s) {
            Err(e) if e.degraded_shard() == Some(0) && e.is_storage_full() => refused += 1,
            Ok(ack) => {
                assert!(
                    refused == 0 || !ack.is_ingested(),
                    "once the full disk refused a push, an ingested ack would be a lie"
                );
                if ack.is_ingested() {
                    journaled.push((v, s));
                }
            }
            Err(other) => panic!("expected StorageFull, got {other}"),
        }
    }
    assert!(refused > 0, "a full disk must refuse pushes");
    assert_eq!(engine.stats().storage_full_rejections as usize, refused);
    // Degraded, not dead: matching/compression (no journal writes) and
    // explicit durability calls keep working with typed answers.
    engine.flush().expect("flush needs no disk");
    assert!(engine.sync().is_err_and(|e| e.is_storage_full()));
    assert!(engine
        .checkpoint()
        .is_err_and(|e| e.is_storage_full() || matches!(e, ServeError::Manifest(_))));

    // Space returns; ingest resumes without a restart.
    faulty.clear();
    for &(v, s) in &f.events[2 * third..] {
        if engine.push(v, s).expect("resumed push").is_ingested() {
            journaled.push((v, s));
        }
    }
    let corpus_live = finish(&mut engine);
    drop(engine);
    let corpus_ref = reference_corpus("disk-full-ref", cfg, &journaled, finish);
    assert_eq!(
        corpus_live, corpus_ref,
        "the published corpus must hold exactly the journaled fixes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint fault after the manifest rename — its directory fsync —
/// cannot leave the engine on the old generation: the renamed manifest
/// is what a process crash recovers. The checkpoint fails typed, the
/// engine moves to the new generation, and a crash after the rest of
/// the stream recovers every journaled fix.
#[test]
fn checkpoint_fault_after_the_manifest_rename_moves_the_engine_forward() {
    let f = fleet();
    let cfg = config();
    let split = f.events.len() / 2;
    let open_half = |tag: &str| {
        let dir = test_dir(tag);
        let faulty = FaultyIo::new(Vec::new());
        let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");
        for &(v, s) in &f.events[..split] {
            engine.push(v, s).expect("push");
        }
        // Synced, the superseded journal has nothing left to write when
        // the checkpoint drops it.
        engine.sync().expect("sync");
        (dir, faulty, engine)
    };
    // A fault-free checkpoint's operations; its last is the manifest's
    // directory fsync.
    let (probe_dir, probe_io, mut probe) = open_half("rename-probe");
    let start = probe_io.ops();
    probe.checkpoint().expect("probe checkpoint");
    let checkpoint_ops = probe_io.ops() - start;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let (dir, faulty, mut engine) = open_half("rename");
    faulty.arm(DiskFault {
        at_op: faulty.ops() + checkpoint_ops - 1,
        kind: FaultKind::SyncFail,
        sticky: false,
    });
    let err = engine.checkpoint().expect_err("manifest directory fsync");
    assert!(matches!(err, ServeError::Manifest(_)), "{err}");
    assert_eq!(faulty.injected(), 1);
    assert_eq!(
        engine.generation(),
        1,
        "the engine follows the renamed manifest"
    );
    for &(v, s) in &f.events[split..] {
        engine.push(v, s).expect("push");
    }
    engine.sync().expect("sync");
    drop(engine); // crash: no finalize, no checkpoint

    let mut recovered = f.open(&dir, cfg).expect("recover");
    assert_eq!(recovered.generation(), 1);
    let corpus = finish(&mut recovered);
    assert_eq!(
        corpus,
        reference_corpus("rename-ref", cfg, &f.events, finish),
        "every journaled fix must survive the faulted checkpoint and the crash"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-shard merged corpus over the full fixture stream — the
/// baseline every shard count must reproduce byte-for-byte.
fn shard_invariance_baseline() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| reference_corpus("shard-base", config(), &fleet().events, finish_merged))
}

/// The published corpus is shard-count invariant: for every shard count
/// the merged corpus bytes equal the single-shard run's, both on a
/// clean run and after a crash (all journals intact) plus parallel
/// per-shard recovery.
#[test]
fn published_corpus_is_shard_count_invariant() {
    let f = fleet();
    for &shards in &[2usize, 3, 7] {
        let cfg = IngestConfig { shards, ..config() };
        let dir = test_dir(&format!("shard-inv-{shards}"));
        let mut engine = f.open(&dir, cfg).expect("open");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        drop(engine); // crash: no finalize, no checkpoint

        let mut recovered = f.open(&dir, cfg).expect("recover");
        assert_eq!(recovered.num_shards(), shards);
        let merged = finish_merged(&mut recovered);
        assert_eq!(
            &merged,
            shard_invariance_baseline(),
            "merged corpus at {shards} shards must be byte-identical to the single-shard run"
        );
        // Every shard committed its own journal + corpus slice under
        // the one manifest generation.
        for k in 0..shards {
            assert!(
                recovered.shard_corpus_path(k).exists(),
                "shard {k} corpus file must exist"
            );
            assert!(
                recovered.shard_wal_path(k).exists(),
                "shard {k} journal must exist"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One cell of the *sharded* fault matrix: a seeded disk fault scoped
/// to exactly one shard's journal (its index below that journal's
/// [`probe_ops`] count, so it fires), composed with a kill tearing that
/// shard's journal at a legitimate power-loss offset. Healthy shards
/// must keep acking, the fault must surface as typed
/// [`ServeError::ShardDegraded`] naming the faulted shard, rejections
/// must never leak into healthy shards' counters, and the recovered
/// merged corpus must be byte-identical to a clean **single-shard** run
/// over the surviving events (isolation + shard-count invariance in
/// one assertion).
fn run_sharded_fault_cell(
    tag: &str,
    shards: usize,
    faulted: usize,
    delta: u64,
    kind: FaultKind,
    sticky: bool,
    kill_frac: f64,
) {
    let f = fleet();
    let cfg = IngestConfig { shards, ..config() };
    let dir = test_dir(&format!("scell-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f
        .open_with_io(&dir, cfg, faulty.clone())
        .expect("open with clean io");
    // Degrade exactly one shard: the fault fires only on operations
    // touching that shard's journal file (any generation).
    faulty.arm_scoped(
        &format!(".s{faulted}.wal"),
        DiskFault {
            at_op: delta,
            kind,
            sticky,
        },
    );

    let mut journaled: Vec<(usize, usize, u64)> = Vec::new(); // (event, shard, ack offset)
    let mut healthy_acks = 0usize;
    for (i, &(v, s)) in f.events.iter().enumerate() {
        let k = engine.shard_of(v);
        match engine.push(v, s) {
            Ok(ack) => {
                if let Some(offset) = ack.offset() {
                    journaled.push((i, k, offset));
                    if k != faulted {
                        healthy_acks += 1;
                    }
                }
            }
            Err(e) => {
                assert!(
                    matches!(
                        e.root_cause(),
                        ServeError::StorageFull(_) | ServeError::Backpressure { .. }
                    ),
                    "push surfaced an untyped fault: {e}"
                );
                assert_eq!(
                    e.degraded_shard(),
                    Some(faulted),
                    "a scoped fault must degrade exactly the faulted shard"
                );
                assert_eq!(k, faulted, "only the faulted shard's pushes may fail");
            }
        }
    }
    assert!(
        healthy_acks > 0 || shards == 1,
        "shards other than the faulted one must keep acking"
    );
    // Rejections are shard-local: healthy shards' counters stay clean.
    for k in 0..shards {
        if k != faulted {
            let s = engine.shard_stats(k);
            assert_eq!(
                s.storage_full_rejections + s.backpressure_rejections,
                0,
                "shard {k} is healthy; the faulted shard's rejections must not leak into it"
            );
        }
    }
    let durable = engine.shard_durable_offset(faulted);
    drop(engine); // crash with the fault still armed
                  // Read after the drop, which settles every queued batch.
    assert!(
        faulty.injected() > 0,
        "fault {kind:?} delta {delta} sticky {sticky} on shard {faulted}/{shards} never fired"
    );

    let len = shard_wal_len(&dir, faulted as u32).expect("shard wal len");
    let lo = durable.max(WAL_HEADER_LEN);
    assert!(len >= lo, "durable watermark cannot exceed the journal");
    let cut = lo + ((len - lo) as f64 * kill_frac).round() as u64;
    truncate_shard_wal(&dir, faulted as u32, cut).expect("truncate");

    let mut recovered = f
        .open(&dir, cfg)
        .expect("recovery must succeed on the real filesystem");
    let merged_a = finish_merged(&mut recovered);

    // Survivors: every journaled event on a healthy shard (its journal
    // is intact), plus the faulted shard's frames under the cut.
    let surviving: Vec<Event> = journaled
        .iter()
        .filter(|&&(_, k, off)| k != faulted || off <= cut)
        .map(|&(idx, _, _)| f.events[idx])
        .collect();
    // The reference deliberately runs at ONE shard: byte-identity here
    // proves isolation and shard-count invariance at once.
    let merged_b = reference_corpus(
        &format!("scell-ref-{tag}"),
        config(),
        &surviving,
        finish_merged,
    );
    assert_eq!(
        merged_a, merged_b,
        "fault {kind:?} delta {delta} sticky {sticky} on shard {faulted}/{shards} cut {cut}: \
         recovered merged corpus must be byte-identical to a clean single-shard run \
         over the surviving events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded fault matrix: fault kind × faulted shard × shard
    /// count × kill fraction (ISSUE 10 satellite). One shard's disk
    /// fault plus a torn journal on that shard must stay invisible
    /// outside its failure domain.
    #[test]
    fn sharded_disk_fault_degrades_only_its_shard(
        shards_idx in 0usize..4,
        faulted_seed in 0usize..7,
        delta_frac in 0.0f64..1.0,
        kind_idx in 0usize..4,
        sticky in any::<bool>(),
        kill_frac in 0.0f64..=1.0,
    ) {
        let shards = [1usize, 2, 3, 7][shards_idx];
        // The faulted shard is one whose journal the stream writes
        // before the crash: a fault on a shard that never writes could
        // not fire.
        let needles: Vec<String> = (0..shards).map(|k| format!(".s{k}.wal")).collect();
        let cfg = IngestConfig { shards, ..config() };
        let ops = probe_ops(&format!("sharded-{shards}"), cfg, &fleet().events, false, &needles);
        let writing: Vec<usize> = (0..shards).filter(|&k| ops[k] > 0).collect();
        assert!(!writing.is_empty(), "some shard must write its journal");
        let faulted = writing[faulted_seed % writing.len()];
        let delta = (ops[faulted] as f64 * delta_frac) as u64;
        let kind = FaultKind::ALL[kind_idx];
        run_sharded_fault_cell(
            &format!("{shards}-{faulted}-{delta}-{kind_idx}-{sticky}"),
            shards,
            faulted,
            delta,
            kind,
            sticky,
            kill_frac,
        );
    }
}

/// Deterministic partial-fleet degraded mode: a sticky ENOSPC pins one
/// shard of three; its pushes are acked at most `Journaled` until its
/// failed journal write settles, then fail typed while both other
/// shards keep acking, its rejections stay in its own counters, healing
/// is in-process via `clear()`, and the final merged corpus holds
/// exactly the journaled fixes. The fixture gives the pinned shard one
/// group-commit trigger in its first third, so the settle point here is
/// an explicit `sync` after that third: it books the failed batch,
/// fails typed on the pinned shard alone, and leaves its tail dirty.
#[test]
fn sticky_fault_on_one_shard_leaves_the_fleet_ingesting() {
    let f = fleet();
    let cfg = IngestConfig {
        shards: 3,
        ..config()
    };
    let dir = test_dir("sticky-shard");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");
    let faulted = engine.shard_of(f.events[0].0);
    faulty.arm_scoped(
        &format!(".s{faulted}.wal"),
        DiskFault {
            at_op: 0,
            kind: FaultKind::Enospc,
            sticky: true,
        },
    );

    let third = f.events.len() / 3;
    let mut journaled: Vec<Event> = Vec::new();
    let mut refused = 0usize;
    let mut healthy = 0usize;
    for (i, &(v, s)) in f.events[..2 * third].iter().enumerate() {
        if i == third {
            let err = engine.sync().expect_err("the pinned shard cannot sync");
            assert_eq!(err.degraded_shard(), Some(faulted));
            assert!(err.is_storage_full(), "expected StorageFull, got {err}");
        }
        let k = engine.shard_of(v);
        match engine.push(v, s) {
            Ok(ack) => {
                if k == faulted {
                    assert!(
                        refused == 0 || !ack.is_ingested(),
                        "the pinned shard cannot ingest once it refused a push"
                    );
                } else if ack.is_ingested() {
                    healthy += 1;
                }
                if ack.is_ingested() {
                    journaled.push((v, s));
                }
            }
            Err(e) => {
                assert_eq!(k, faulted, "healthy shards must not fail");
                assert_eq!(e.degraded_shard(), Some(faulted));
                assert!(e.is_storage_full(), "expected StorageFull, got {e}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "the fixture routes events to every shard");
    assert!(healthy > 0, "healthy shards keep acking while one is full");
    assert_eq!(
        engine.shard_stats(faulted).storage_full_rejections as usize,
        refused,
        "every refusal lands in the faulted shard's counters"
    );
    for k in 0..3 {
        if k != faulted {
            assert_eq!(engine.shard_stats(k).storage_full_rejections, 0);
        }
    }
    // Summed view still sees the rejections.
    assert_eq!(engine.stats().storage_full_rejections as usize, refused);

    // Space returns on the pinned shard; it heals in-process.
    faulty.clear();
    for &(v, s) in &f.events[2 * third..] {
        if engine.push(v, s).expect("healed push").is_ingested() {
            journaled.push((v, s));
        }
    }
    let merged_live = finish_merged(&mut engine);
    drop(engine);
    let merged_ref = reference_corpus("sticky-shard-ref", config(), &journaled, finish_merged);
    assert_eq!(
        merged_live, merged_ref,
        "the merged corpus must hold exactly the journaled fixes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Incremental checkpoints: with 8 shards and one dirty vehicle, the
/// next checkpoint rewrites only the dirty shard's corpus file —
/// every clean shard's file is a hard link to its previous generation
/// (same inode) — and the whole set still commits through the single
/// MANIFEST rename: a fault before the rename leaves the old
/// generation fully live.
#[test]
fn incremental_checkpoint_links_clean_shards_and_commits_atomically() {
    use std::os::unix::fs::MetadataExt;
    let f = fleet();
    let cfg = IngestConfig {
        shards: 8,
        ..config()
    };
    let dir = test_dir("incr-ckpt");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");
    for &(v, s) in &f.events {
        engine.push(v, s).expect("push");
    }
    engine.finalize_all().expect("finalize_all");
    engine.checkpoint().expect("first checkpoint");
    let gen1 = engine.generation();
    let inodes1: Vec<u64> = (0..8)
        .map(|k| {
            std::fs::metadata(engine.shard_corpus_path(k))
                .expect("gen1 shard corpus")
                .ino()
        })
        .collect();

    // Dirty exactly one shard: new fixes for vehicle 0 only.
    let dirty_shard = engine.shard_of(0);
    for &(v, s) in f.events.iter().filter(|&&(v, _)| v == 0).take(12) {
        engine
            .push(
                v,
                GpsSample {
                    point: s.point,
                    t: s.t + 1.0e4,
                },
            )
            .expect("dirty push");
    }
    engine.finalize(0).expect("finalize vehicle 0");

    // Crash window: a checkpoint faulted before its manifest rename
    // leaves the old generation fully live.
    faulty.arm(DiskFault {
        at_op: faulty.ops() + 3,
        kind: FaultKind::Enospc,
        sticky: true,
    });
    assert!(
        engine.checkpoint().is_err(),
        "faulted checkpoint fails typed"
    );
    assert_eq!(
        engine.generation(),
        gen1,
        "a failed checkpoint commits nothing"
    );
    faulty.clear();

    engine.checkpoint().expect("second checkpoint");
    let gen2 = engine.generation();
    assert!(gen2 > gen1);
    for (k, &ino1) in inodes1.iter().enumerate() {
        let ino2 = std::fs::metadata(engine.shard_corpus_path(k))
            .expect("gen2 shard corpus")
            .ino();
        if k == dirty_shard {
            assert_ne!(ino2, ino1, "the dirty shard's corpus must be rewritten");
        } else {
            assert_eq!(
                ino2, ino1,
                "clean shard {k} must hard-link its previous corpus file"
            );
        }
    }
    // The recovered engine serves the updated merged corpus.
    drop(engine);
    let recovered = f.open(&dir, cfg).expect("recover");
    assert_eq!(recovered.generation(), gen2);
    recovered
        .merged_corpus_bytes()
        .expect("merged corpus serves");
    let _ = std::fs::remove_dir_all(&dir);
}
