//! The overlapped group-commit contract. A push that trips a trigger
//! hands its shard's batch to the journal-syncer thread and acks
//! `Journaled`; the push thread settles batches only at fixed points of
//! the program (the shard's next trigger, its own backend operations,
//! `sync`, drop), so the durability watermark and every counter move at
//! the same push however fast the disk is.

mod common;

use common::{config, fixture, stream, test_dir};
use press_serve::wal::WAL_HEADER_LEN;
use press_serve::{
    shard_wal_len, Ack, DiskFault, DurabilityPolicy, Event, FaultKind, FaultyIo, IngestEngine,
};
use std::time::{Duration, Instant};

/// Group commit every five `Point` frames (41 B each), no time trigger,
/// no retries: a failed batch is counted, not retried away.
fn every_five() -> DurabilityPolicy {
    DurabilityPolicy {
        sync_bytes: 5 * 41,
        sync_interval: 0.0,
        max_retries: 0,
        retry_backoff_ms: 0,
    }
}

/// The journal a fault-free single-shard engine writes for `events`,
/// synced and dropped.
fn clean_journal(tag: &str, events: &[Event]) -> Vec<u8> {
    let f = fixture();
    let dir = test_dir(tag);
    let mut engine =
        IngestEngine::open(&dir, f.matcher.clone(), f.press(), config(1, every_five()))
            .expect("open");
    for &(v, s) in events {
        engine.push(v, s).expect("clean push");
    }
    engine.sync().expect("sync");
    let path = engine.shard_wal_path(0);
    drop(engine);
    let bytes = std::fs::read(path).expect("journal bytes");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// (a) Every push acks `Journaled`, the triggering ones included. Batch
/// `j` ends at push `5j` and settles at the shard's next trigger, push
/// `5(j + 1)`: the watermark and `sync_calls` move there and nowhere
/// else, even with the syncer given time to finish in between. `sync`
/// makes everything durable.
#[test]
fn overlapped_trigger_acks_journaled_and_durability_moves_only_at_settle_points() {
    let f = fixture();
    let dir = test_dir("settle-points");
    let mut engine =
        IngestEngine::open(&dir, f.matcher.clone(), f.press(), config(1, every_five()))
            .expect("open");
    let events = stream(3, 20);
    let mut offsets = Vec::new();
    for (i, &(v, s)) in events.iter().enumerate() {
        let n = i + 1;
        let offset = match engine.push(v, s).expect("push") {
            Ack::Journaled { offset } => offset,
            ack => panic!("push {n}: {ack:?}; no push waits for its fsync"),
        };
        offsets.push(offset);
        if n % 5 == 0 {
            // Time for the syncer to finish the batch just handed over.
            // Nothing below may depend on whether it did.
            std::thread::sleep(Duration::from_millis(20));
        }
        let settled = (n / 5).saturating_sub(1);
        let durable = match settled {
            0 => WAL_HEADER_LEN,
            j => offsets[5 * j - 1],
        };
        assert_eq!(engine.shard_durable_offset(0), durable, "after push {n}");
        assert_eq!(engine.stats().sync_calls, settled as u64, "after push {n}");
    }
    engine.sync().expect("sync");
    let end = engine.shard_wal_offset(0);
    assert_eq!(engine.shard_durable_offset(0), end);
    assert_eq!(shard_wal_len(&dir, 0).expect("wal len"), end);
    let stats = engine.stats();
    // Twelve batches, all settled by `sync`, then its own fsync.
    assert_eq!((stats.sync_calls, stats.synced_frames), (13, 60));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) A fault on a queued batch — its fsync (`SyncFail`) or its write
/// (`Enospc`, one-shot or sticky) — is counted once in `sync_failures`,
/// when the batch settles at push 10, and not before, however long the
/// syncer has had. The shard's next push repairs the dirty tail (or, on
/// a disk that stays full, refuses its fix until space returns), and
/// the frames the batch could not write come back in journal order: the
/// final journal equals a fault-free run's over the ingested fixes.
#[test]
fn overlapped_failed_batch_settles_once_and_its_frames_return_in_order() {
    let f = fixture();
    let events = stream(2, 15);
    for (kind, sticky) in [
        (FaultKind::SyncFail, false),
        (FaultKind::Enospc, false),
        (FaultKind::Enospc, true),
    ] {
        let tag = format!("{kind:?}-{sticky}");
        let dir = test_dir(&format!("settle-fault-{tag}"));
        let io = FaultyIo::new(Vec::new());
        let cfg = config(1, every_five());
        let mut engine =
            IngestEngine::open_with_io(&dir, f.matcher.clone(), f.press(), cfg, io.clone())
                .expect("open");
        // The first journal operation after open is batch 1's write, and
        // its fsync the first sync.
        io.arm_scoped(
            ".s0.wal",
            DiskFault {
                at_op: 0,
                kind,
                sticky,
            },
        );
        let mut ingested = Vec::new();
        let mut refused = Vec::new();
        for (i, &(v, s)) in events.iter().enumerate() {
            let n = i + 1;
            if sticky && n == 16 {
                io.clear();
            }
            match engine.push(v, s) {
                Ok(ack) => {
                    assert!(
                        matches!(ack, Ack::Journaled { .. }),
                        "{tag}: push {n}: {ack:?}"
                    );
                    ingested.push((v, s));
                }
                Err(e) => {
                    assert!(
                        e.is_storage_full() && e.degraded_shard() == Some(0),
                        "{tag}: {e}"
                    );
                    refused.push(n);
                }
            }
            if n == 5 {
                // Batch 1 fails on the syncer thread; still nothing
                // counts it before it settles.
                let deadline = Instant::now() + Duration::from_secs(30);
                while io.injected() == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(io.injected(), 1, "{tag}: batch 1 failed");
            }
            assert_eq!(
                engine.stats().sync_failures,
                u64::from(n >= 10),
                "{tag}: push {n}"
            );
        }
        let expect_refused: Vec<usize> = if sticky {
            (11..=15).collect()
        } else {
            Vec::new()
        };
        assert_eq!(refused, expect_refused, "{tag}");
        engine.sync().expect("sync after the fault");
        assert_eq!(engine.stats().sync_failures, 1, "{tag}: counted once");
        let path = engine.shard_wal_path(0);
        drop(engine);
        let journal = std::fs::read(path).expect("journal bytes");
        assert!(
            journal == clean_journal(&format!("settle-clean-{tag}"), &ingested),
            "{tag}: the journal must equal a fault-free run's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// (c) An engine dropped with batches still queued writes them, and
/// the frames buffered behind them: with a batch every five frames,
/// each shard's last batch is unsettled at the drop (the counters show
/// it) and the frames after it only buffered, yet every shard's file
/// ends at its journal offset, and recovery replays every ingested fix.
#[test]
fn overlapped_drop_writes_queued_batches_and_recovery_replays_every_fix() {
    let f = fixture();
    let dir = test_dir("drop-queued");
    let cfg = config(3, every_five());
    let events = stream(6, 11);
    let mut engine = IngestEngine::open(&dir, f.matcher.clone(), f.press(), cfg).expect("open");
    let mut frames = [0u64; 3];
    for &(v, s) in &events {
        assert!(engine.push(v, s).expect("push").is_ingested());
        frames[engine.shard_of(v)] += 1;
    }
    // Shard k handed over a batch every five frames and settled all but
    // the last; the frames after that one are buffered.
    let batches = frames.map(|n| n / 5);
    assert!(
        frames.iter().any(|n| n / 5 > 0 && n % 5 > 0),
        "some shard must have a batch queued and frames behind it: {frames:?}"
    );
    let settled: u64 = batches.iter().map(|b| b.saturating_sub(1)).sum();
    assert_eq!(engine.stats().sync_calls, settled);
    let offsets: Vec<u64> = (0..3).map(|k| engine.shard_wal_offset(k)).collect();
    drop(engine);
    for (k, &offset) in offsets.iter().enumerate() {
        assert_eq!(
            shard_wal_len(&dir, k as u32).expect("wal len"),
            offset,
            "shard {k}"
        );
    }
    let recovered = IngestEngine::open(&dir, f.matcher.clone(), f.press(), cfg).expect("recover");
    let report = recovered.recovery();
    assert_eq!(report.replayed_points as usize, events.len());
    assert_eq!(report.torn_bytes, 0);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
