//! Crash and disk-fault tests for the ingest engine.
//!
//! The central property, [`any_crash_cell_recovers_the_surviving_acks`],
//! draws cells for one driver, [`run_cell`]. A cell is a config and a
//! stream (clean, or mangled with a late uploader), a shard count, an
//! optional disk fault (ENOSPC / EIO / short write / fsync failure,
//! one-shot or sticky, on one shard's journal or on any path), an
//! optional mid-run checkpoint, an end by `drop` or by `sync` then
//! `drop`, and a journal cut on one shard. Under every cell the engine
//! must fail *typed*, never panic and never drop an acked fix, and the
//! recovered corpus must be byte-identical to a clean single-shard run
//! over exactly the surviving acked fixes — over the stream up to the
//! last of them, refused pushes left out, when they are a prefix of the
//! acks, so coalesced and quarantined fixes must leave no trace. Two
//! fixed lists of cells go through the same driver: every fault kind at
//! seeded operation indices, and every operation of a stream whose
//! journal only the buffer's cap writes. A third, named list puts a
//! one-shot short write at each journal operation of a checkpoint.
//!
//! Also here: the memory-budget/eviction determinism proptest (eviction
//! order and corpus bytes identical across flush-worker counts, and
//! reproduced exactly by journal replay), the fleets-larger-than-memory
//! budget test, and the clean-run invariances (flush-worker count,
//! durability policy, shard count).

mod common;

use common::{finish, finish_merged, test_dir, Fleet};
use press_matcher::GpsSample;
use press_serve::wal::{MAX_FRAME_LEN, WAL_HEADER_LEN, WRITE_CAP};
use press_serve::{
    shard_wal_len, truncate_shard_wal, DiskFault, DurabilityPolicy, Event, FaultKind, FaultPlan,
    FaultyIo, IngestConfig, IngestEngine, ServeError, SessionPolicy,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared fixture: ten vehicles, staggered starts, merged into one
/// arrival stream ordered by timestamp.
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

/// The configs a drawn cell runs under, at `shards` shards: [`config`];
/// [`config`] with a batch every dozen frames, so a failed batch
/// settles while its shard still has pushes to refuse; the production
/// group-commit thresholds under [`config`]'s session rules; and those
/// thresholds under the mangled-stream rules (shorter idle cuts and
/// rollovers, bounded lattice work). Idle cuts and rollovers are on in
/// all four, so recovery replays segmentation.
fn cell_config(i: usize, shards: usize) -> IngestConfig {
    let production = IngestConfig {
        durability: DurabilityPolicy {
            retry_backoff_ms: 0,
            ..DurabilityPolicy::group_commit()
        },
        ..config()
    };
    let cfg = match i {
        0 => config(),
        1 => IngestConfig {
            durability: DurabilityPolicy {
                sync_bytes: 512,
                ..config().durability
            },
            ..config()
        },
        2 => production,
        _ => IngestConfig {
            idle_timeout: 300.0,
            max_session_points: 16,
            max_lattice_work: 200_000,
            ..production
        },
    };
    IngestConfig { shards, ..cfg }
}

/// The fixture stream mangled by a seeded [`FaultPlan`] (dropped,
/// corrupted, duplicated and reordered fixes), then a late uploader: a
/// vehicle outside the fleet that sends vehicle 0's trace after the
/// stream's last event, every fix more than `idle_timeout` behind the
/// stream clock — so each one is idle at the global clock the moment
/// it is accepted.
fn mangled(seed: u64, idle_timeout: f64) -> Vec<Event> {
    let f = fleet();
    let plan = FaultPlan {
        seed,
        drop_prob: 0.05,
        corrupt_prob: 0.08,
        duplicate_prob: 0.08,
        reorder_prob: 0.05,
    };
    let mut events = plan.mangle(&f.events);
    let trace: Vec<GpsSample> = f.events.iter().filter(|e| e.0 == 0).map(|e| e.1).collect();
    let stream_end = f.events.last().expect("non-empty stream").1.t;
    let lag = stream_end - 2.0 * idle_timeout - trace.last().expect("vehicle 0 fixes").t;
    events.extend(
        trace
            .iter()
            .map(|s| (1_000, GpsSample { t: s.t + lag, ..*s })),
    );
    events
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

/// A cell's disk fault: `kind`, one-shot or `sticky`, at operation
/// `at_op` after the engine's open, counted over the operations on
/// `shard`'s journal files (any generation) or, when `None`, over every
/// operation.
#[derive(Debug, Clone, Copy)]
struct Fault {
    kind: FaultKind,
    sticky: bool,
    shard: Option<usize>,
    at_op: u64,
}

/// Is `e` a typed journal refusal: out of space, or a transient failure
/// that outlived the retry budget?
fn refusal(e: &ServeError) -> bool {
    matches!(
        e.root_cause(),
        ServeError::StorageFull(_) | ServeError::Backpressure { .. }
    )
}

/// One crash cell: `events` pushed under `cfg` (its shard count
/// included) through a `FaultyIo` armed with `fault`, a checkpoint
/// attempted halfway when `checkpoint`, an end by `sync` then `drop`
/// when `sync` (else `drop` alone, a crash with batches and buffers
/// left to the drop), and shard `victim`'s journal cut at `cut` of the
/// legitimate crash offsets.
#[derive(Clone, Copy)]
struct Cell<'a> {
    cfg: IngestConfig,
    events: &'a [Event],
    fault: Option<Fault>,
    checkpoint: bool,
    sync: bool,
    victim: usize,
    cut: f64,
}

/// Backend operations a cell's run made between its open and its drop:
/// over every path, and on each shard's journal files — the index
/// spaces a fault draws its operation from — and the span of each
/// shard's journal operations the checkpoint call covered.
struct Ops {
    all: u64,
    journal: Vec<u64>,
    checkpoint: Vec<std::ops::Range<u64>>,
}

/// The cell driver. Runs `cell`, checks every rule a crash and a disk
/// fault must keep, recovers on the real filesystem and compares the
/// corpus with a clean run, then returns the operations the run made.
///
/// A fix survives the crash when it was journaled before a committed
/// checkpoint (published corpus plus a synced rewritten journal), or
/// when its ack offset is at most its shard's journal length after the
/// drop and the cut: the drop writes what a failed or unsettled batch
/// left buffered only when the disk lets it, on any shard. A one-shot
/// fault leaves a trace by the closing sync: a failed checkpoint, or the
/// counters of the push or sync it hit.
fn run_cell(tag: &str, cell: &Cell) -> Ops {
    let f = fleet();
    let shards = cell.cfg.shards;
    let what = format!(
        "{shards} shards, {} events, fault {:?}, checkpoint {}, sync {}, cut {} at {}",
        cell.events.len(),
        cell.fault,
        cell.checkpoint,
        cell.sync,
        cell.victim,
        cell.cut
    );
    let dir = test_dir(&format!("cell-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f
        .open_with_io(&dir, cell.cfg, faulty.clone())
        .expect("open with clean io");
    let needles: Vec<String> = (0..shards).map(|k| format!(".s{k}.wal")).collect();
    let start = faulty.ops();
    let start_on: Vec<u64> = needles.iter().map(|n| faulty.ops_on(n)).collect();
    if let Some(fault) = cell.fault {
        let armed = DiskFault {
            at_op: fault.at_op,
            kind: fault.kind,
            sticky: fault.sticky,
        };
        match fault.shard {
            None => faulty.arm(DiskFault {
                at_op: start + fault.at_op,
                ..armed
            }),
            Some(k) => faulty.arm_scoped(&needles[k], armed),
        }
    }
    let scoped = cell.fault.and_then(|f| f.shard);

    // (event index, shard, ack offset) of every journaled fix. The
    // first `safe` were journaled before a committed checkpoint, which
    // rewrote `base_points` of them into the new journals.
    let mut acked: Vec<(usize, usize, u64)> = Vec::new();
    let (mut safe, mut base_points) = (0, 0);
    // The checkpoint's typed failure, the trace of a fault it spent.
    let mut checkpoint_failed = false;
    // Event indices of the refused pushes, and their count per shard.
    let mut refused_at: Vec<usize> = Vec::new();
    let mut refused = vec![0usize; shards];
    let journal_ops = || -> Vec<u64> {
        needles
            .iter()
            .zip(&start_on)
            .map(|(n, start)| faulty.ops_on(n) - start)
            .collect()
    };
    let mut checkpoint_ops = Vec::new();
    for (i, &(v, s)) in cell.events.iter().enumerate() {
        if cell.checkpoint && i == cell.events.len() / 2 {
            let before = journal_ops();
            let result = engine.checkpoint();
            checkpoint_ops = before
                .into_iter()
                .zip(journal_ops())
                .map(|(a, b)| a..b)
                .collect();
            let committed = match result {
                Ok(_) => true,
                // A faulted checkpoint is typed and leaves the old
                // generation live. Only a fault after the manifest
                // rename (its directory fsync) leaves the new one live
                // instead — the one recovery opens — and the engine on
                // it.
                Err(e) => {
                    assert!(cell.fault.is_some(), "{what}: checkpoint failed: {e}");
                    assert!(!e.to_string().is_empty(), "{what}: an empty message");
                    checkpoint_failed = true;
                    let moved = engine.generation() > 0;
                    assert!(
                        !moved || matches!(e, ServeError::Manifest(_)),
                        "{what}: {e}"
                    );
                    moved
                }
            };
            if committed {
                safe = acked.len();
                base_points = engine.buffered_points();
            }
        }
        let k = engine.shard_of(v);
        match engine.push(v, s) {
            Ok(ack) => {
                if let Some(offset) = ack.offset() {
                    acked.push((i, k, offset));
                }
            }
            Err(e) => {
                assert!(cell.fault.is_some(), "{what}: push refused: {e}");
                assert!(refusal(&e), "{what}: push surfaced an untyped fault: {e}");
                assert_eq!(
                    e.degraded_shard(),
                    Some(k),
                    "{what}: a refusal degrades the fix's own shard"
                );
                assert!(
                    scoped.is_none_or(|j| j == k),
                    "{what}: a scoped fault degrades exactly the faulted shard: {e}"
                );
                refused[k] += 1;
                refused_at.push(i);
            }
        }
    }
    let synced = cell.sync.then(|| engine.sync());
    // A failed sync is a typed refusal that names its shard — the
    // faulted one when the fault is scoped — or, after a checkpoint, a
    // manifest rename it could not make durable.
    if let Some(Err(e)) = &synced {
        assert!(cell.fault.is_some(), "{what}: sync failed: {e}");
        if matches!(e, ServeError::Manifest(_)) {
            assert!(
                cell.checkpoint,
                "{what}: a manifest error with no checkpoint: {e}"
            );
        } else {
            assert!(refusal(e), "{what}: sync surfaced an untyped fault: {e}");
            let named = e.degraded_shard();
            assert!(
                named.is_some(),
                "{what}: a sync refusal names no shard: {e}"
            );
            assert!(
                scoped.is_none() || named == scoped,
                "{what}: a scoped fault fails only its shard's sync: {e}"
            );
        }
    }
    if let Some(k) = scoped.filter(|_| shards > 1) {
        assert!(
            acked.iter().any(|a| a.1 != k),
            "{what}: shards other than the faulted one must keep acking"
        );
    }
    // Rejections are shard-local: each shard counts exactly the pushes
    // it refused, so a healthy shard's counters stay zero.
    for (k, &n) in refused.iter().enumerate() {
        let s = engine.shard_stats(k);
        assert_eq!(
            (s.storage_full_rejections + s.backpressure_rejections) as usize,
            n,
            "{what}: shard {k}'s rejection counters"
        );
    }
    // A one-shot fault heals: a transient one inside the retry budget,
    // out-of-space after refusing at most the one push, sync or
    // checkpoint it hit. By the closing sync, a settle point, it has
    // fired and left a trace: the checkpoint's error or the counters.
    if let Some(fault) = cell.fault.filter(|f| !f.sticky) {
        let refusals = refused.iter().sum::<usize>();
        let sync_failed = matches!(synced, Some(Err(_)));
        let stats = engine.stats();
        if cell.sync {
            assert_eq!(faulty.injected(), 1, "{what}: the fault fires by the sync");
        }
        match fault.kind {
            FaultKind::Eio | FaultKind::SyncFail => {
                assert!(
                    refusals == 0 && !sync_failed,
                    "{what}: a one-shot transient fault must heal"
                );
                assert!(
                    !cell.sync
                        || (stats.sync_failures == 0
                            && (stats.io_retries > 0 || checkpoint_failed)),
                    "{what}: the retry budget absorbs it: {stats:?}"
                );
            }
            FaultKind::Enospc | FaultKind::ShortWrite => {
                assert!(
                    refusals + usize::from(sync_failed) + usize::from(checkpoint_failed) <= 1,
                    "{what}: a one-shot ENOSPC refuses at most one push, sync or checkpoint"
                );
                if let Some(Err(e)) = &synced {
                    assert!(
                        e.is_storage_full(),
                        "{what}: only out-of-space fails the sync: {e}"
                    );
                }
                assert!(
                    !cell.sync
                        || stats.storage_full_rejections + stats.sync_failures > 0
                        || checkpoint_failed,
                    "{what}: the refusal is counted: {stats:?}"
                );
            }
        }
    }
    let durable: Vec<u64> = (0..shards)
        .map(|k| engine.shard_durable_offset(k))
        .collect();
    let generation = engine.generation();
    drop(engine); // crash with the fault still armed
                  // Read after the drop, which settles every queued batch.
    assert!(
        cell.fault.is_none() || faulty.injected() > 0,
        "{what}: the fault never fired"
    );
    let ops = Ops {
        all: faulty.ops() - start,
        journal: journal_ops(),
        checkpoint: checkpoint_ops,
    };

    // The cut: any offset of a generation-0 journal, header included;
    // after a committed checkpoint, at or past the victim's durability
    // watermark, since the rewritten journal was synced whole.
    let mut len: Vec<u64> = (0..shards)
        .map(|k| shard_wal_len(&dir, k as u32).expect("wal len"))
        .collect();
    for k in 0..shards {
        assert!(
            durable[k] <= len[k],
            "{what}: shard {k}'s durable watermark exceeds its journal"
        );
    }
    let lo = if generation > 0 {
        durable[cell.victim].max(WAL_HEADER_LEN)
    } else {
        0
    };
    let cut = lo + ((len[cell.victim] - lo) as f64 * cell.cut).round() as u64;
    len[cell.victim] = truncate_shard_wal(&dir, cell.victim as u32, cut).expect("truncate");

    let mut recovered = f
        .open(&dir, cell.cfg)
        .expect("recovery must succeed on the real filesystem");
    let survives = |&(_, k, off): &(usize, usize, u64)| off <= len[k];
    assert_eq!(
        recovered.recovery().replayed_points as usize,
        base_points + acked[safe..].iter().filter(|a| survives(a)).count(),
        "{what}: every surviving acked point replays, nothing more"
    );
    let kept: Vec<bool> = (0..acked.len())
        .map(|j| j < safe || survives(&acked[j]))
        .collect();
    let m = kept.iter().take_while(|&&k| k).count();
    // When the survivors are a prefix of the acks, the reference gets
    // the stream up to the last of them, refused pushes left out: the
    // coalesced and quarantined fixes among it must leave no trace.
    // Otherwise it gets the surviving acks alone.
    let surviving: Vec<Event> = if kept[m..].iter().all(|&k| !k) {
        let end = acked[..m].last().map_or(0, |a| a.0 + 1);
        (0..end)
            .filter(|i| refused_at.binary_search(i).is_err())
            .map(|i| cell.events[i])
            .collect()
    } else {
        (0..acked.len())
            .filter(|&j| kept[j])
            .map(|j| cell.events[acked[j].0])
            .collect()
    };
    // The reference runs at ONE shard: byte-identity proves isolation
    // and shard-count invariance at once. At one shard the corpus
    // file's bytes, `ingest` sidecar included, must match too.
    let done = if shards == 1 { finish } else { finish_merged };
    let single = IngestConfig {
        shards: 1,
        ..cell.cfg
    };
    assert!(
        done(&mut recovered)
            == reference_corpus(&format!("cell-{tag}-ref"), single, &surviving, done),
        "{what}: the recovered corpus must be byte-identical to a clean run over the \
         surviving acks"
    );
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The crash-and-fault property: every drawn cell first runs
    /// fault-free (a kill cell of its own, whose operation counts are
    /// the index space of the fault), then, when a fault is drawn, with
    /// the fault at a drawn operation below that count — the faulted
    /// run makes the same operations up to its fault, so every fault
    /// fires. Half the faults are on any path, half on the journal of
    /// one shard the stream writes. A sync failure waits for a sync, so
    /// its cells end by one.
    #[test]
    fn any_crash_cell_recovers_the_surviving_acks(
        config_idx in 0usize..4,
        mangle in any::<bool>(),
        seed in 0u64..1_000_000,
        shards_idx in 0usize..4,
        kind_idx in 0usize..5,
        sticky in any::<bool>(),
        scope in 0usize..14,
        at in 0.0f64..1.0,
        checkpoint in any::<bool>(),
        sync in any::<bool>(),
        victim in 0usize..7,
        cut in 0.0f64..=1.0,
    ) {
        let shards = [1usize, 2, 3, 7][shards_idx];
        let cfg = cell_config(config_idx, shards);
        let events = if mangle {
            mangled(seed, cfg.idle_timeout)
        } else {
            fleet().events.clone()
        };
        let kind = kind_idx.checked_sub(1).map(|k| FaultKind::ALL[k]);
        let mut cell = Cell {
            cfg,
            events: &events,
            fault: None,
            checkpoint,
            sync: sync || kind == Some(FaultKind::SyncFail),
            victim: victim % shards,
            cut,
        };
        let ops = run_cell("prop", &cell);
        if let Some(kind) = kind {
            let writing: Vec<usize> = (0..shards).filter(|&k| ops.journal[k] > 0).collect();
            let shard = (scope % 2 == 1).then(|| writing[scope / 2 % writing.len()]);
            let n = shard.map_or(ops.all, |k| ops.journal[k]);
            cell.fault = Some(Fault {
                kind,
                sticky,
                shard,
                at_op: (n as f64 * at) as u64,
            });
            run_cell("prop-fault", &cell);
        }
    }
}

/// A checkpoint over a session older than the idle timeout: seed
/// 925818 rolls one vehicle's first fix back 10⁶ s, and live
/// ingest keeps that fix at the head of the vehicle's session, which
/// the mid-run checkpoint rewrites into the journal. A rewritten journal
/// that opened with the checkpoint's `Clock` replayed the fix after that
/// clock and cut it off alone.
#[test]
fn checkpoint_replay_keeps_a_session_older_than_the_idle_timeout() {
    let cfg = cell_config(2, 3);
    let events = mangled(925818, cfg.idle_timeout);
    run_cell(
        "old-session",
        &Cell {
            cfg,
            events: &events,
            fault: None,
            checkpoint: true,
            sync: true,
            victim: 0,
            cut: 0.0,
        },
    );
}

/// A one-shot short write on shard 1's journal at each of its operations
/// in a mid-run checkpoint, which ends by `sync`. Every one must leave
/// a trace: a failed checkpoint, or a refusal the counters show. A
/// checkpoint that wrote the superseded journal's buffer best effort
/// spent one such fault there without either.
#[test]
fn short_write_in_a_checkpoint_leaves_a_trace() {
    let mut cell = Cell {
        cfg: cell_config(0, 2),
        events: &fleet().events,
        fault: None,
        checkpoint: true,
        sync: true,
        victim: 1,
        cut: 1.0,
    };
    let span = run_cell("checkpoint-span", &cell).checkpoint[1].clone();
    assert!(!span.is_empty(), "the checkpoint writes shard 1's journal");
    for at_op in span {
        cell.fault = Some(Fault {
            kind: FaultKind::ShortWrite,
            sticky: false,
            shard: Some(1),
            at_op,
        });
        run_cell("checkpoint-fault", &cell);
    }
}

/// The deterministic seeded matrix: every fault kind, one-shot and on
/// any path, at four operation indices spread over the fixture stream's
/// backend operations (first, last, and two between), each cell ending
/// by `sync` — the settle point at which [`run_cell`] checks that the
/// fault fired, that a transient one was absorbed by the retry budget
/// and that out-of-space refused at most one push or sync.
#[test]
fn seeded_fault_matrix_smoke() {
    let mut cell = Cell {
        cfg: config(),
        events: &fleet().events,
        fault: None,
        checkpoint: false,
        sync: true,
        victim: 0,
        cut: 1.0,
    };
    let ops = run_cell("smoke", &cell).all;
    let mut deltas = vec![0, ops / 3, 2 * ops / 3, ops - 1];
    deltas.dedup();
    for kind in FaultKind::ALL {
        for &at_op in &deltas {
            cell.fault = Some(Fault {
                kind,
                sticky: false,
                shard: None,
                at_op,
            });
            run_cell("smoke-fault", &cell);
        }
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
/// take a buffer to [`WRITE_CAP`] write the journal, so every fault
/// these cells put at each of the stream's operations lands on a cap
/// write (or the repairs after it). A push whose cap write fails is
/// refused and its frame is not buffered: the recovered corpus equals a
/// clean run over the journaled-surviving events only.
#[test]
fn buffered_cap_write_fault_keeps_the_acked_prefix() {
    let events = repeated_events(replicas_past(2 * WRITE_CAP));
    let mut cell = Cell {
        cfg: manual_config(),
        events: &events,
        fault: None,
        checkpoint: false,
        sync: false,
        victim: 0,
        cut: 1.0,
    };
    let ops = run_cell("cap", &cell).all;
    assert!(
        ops >= 2,
        "the stream must pass the cap twice, not {ops} times"
    );
    for kind in [FaultKind::Enospc, FaultKind::Eio, FaultKind::ShortWrite] {
        for at_op in 0..ops {
            for sticky in [false, true] {
                cell.fault = Some(Fault {
                    kind,
                    sticky,
                    shard: None,
                    at_op,
                });
                cell.cut = if sticky { 1.0 } else { 0.5 };
                run_cell("cap-fault", &cell);
            }
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

/// A checkpoint writes every shard's corpus file in place and commits
/// the whole set through the single MANIFEST rename. With 8 shards and
/// one dirty vehicle, each clean shard's file at the next generation
/// equals its previous generation's byte for byte and the dirty shard's
/// does not; a fault before the rename leaves the old generation live;
/// and a fault-free checkpoint makes `6N + 6` backend operations: per
/// shard a create, write and `sync_data` of its corpus file and of its
/// journal, one directory fsync, then the manifest's atomic write
/// (create, write, `sync_data`, rename, directory fsync).
#[test]
fn checkpoint_rewrites_clean_shards_unchanged_and_commits_in_one_rename() {
    let f = fleet();
    let shards = 8;
    let cfg = IngestConfig { shards, ..config() };
    let dir = test_dir("ckpt-rewrite");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine = f.open_with_io(&dir, cfg, faulty.clone()).expect("open");
    for &(v, s) in &f.events {
        engine.push(v, s).expect("push");
    }
    engine.finalize_all().expect("finalize_all");
    engine.checkpoint().expect("first checkpoint");
    let gen1 = engine.generation();
    let corpus1: Vec<Vec<u8>> = (0..shards)
        .map(|k| std::fs::read(engine.shard_corpus_path(k)).expect("gen1 shard corpus"))
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
    // No batch left on the syncer: every operation from here on is the
    // checkpoint's own.
    engine.sync().expect("sync");

    // Crash windows: a checkpoint faulted before its manifest rename —
    // in the second shard's corpus file, or at the one directory fsync
    // before the rename — leaves the old generation fully live.
    for (at, shard) in [(3, Some(1)), (6 * shards as u64, None)] {
        faulty.arm(DiskFault {
            at_op: faulty.ops() + at,
            kind: FaultKind::Enospc,
            sticky: true,
        });
        let err = engine.checkpoint().expect_err("faulted checkpoint");
        assert_eq!(err.degraded_shard(), shard, "fault at op {at}: {err}");
        assert_eq!(shard.is_none(), matches!(err, ServeError::Manifest(_)));
        assert_eq!(
            engine.generation(),
            gen1,
            "a failed checkpoint commits nothing"
        );
        faulty.clear();
    }

    let before = faulty.ops();
    engine.checkpoint().expect("second checkpoint");
    assert_eq!(
        faulty.ops() - before,
        6 * shards as u64 + 6,
        "backend operations of a fault-free checkpoint"
    );
    let gen2 = engine.generation();
    assert!(gen2 > gen1);
    for (k, bytes1) in corpus1.iter().enumerate() {
        let bytes2 = std::fs::read(engine.shard_corpus_path(k)).expect("gen2 shard corpus");
        if k == dirty_shard {
            assert_ne!(&bytes2, bytes1, "the dirty shard's corpus must change");
        } else {
            assert_eq!(
                &bytes2, bytes1,
                "clean shard {k}'s corpus must equal its previous generation's"
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
