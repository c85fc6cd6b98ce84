//! Crash-recovery tests for the ingest engine: the offline pipeline,
//! the buffer a process crash loses, torn frames, checkpoint commit
//! windows, missing artifacts, and typed refusals.
//!
//! The kill-at-any-offset property itself — on clean and mangled
//! streams, at every shard count, composed with disk faults — is
//! `disk_faults.rs`'s `any_crash_cell_recovers_the_surviving_acks`.

mod common;

use common::{finish, finish_merged, test_dir, Fleet};
use press_core::query::QueryEngine;
use press_core::reformat::{reformat, PathSample};
use press_core::store::TrajectoryStore;
use press_core::{CompressedTrajectory, Press};
use press_matcher::GpsSample;
use press_network::Mbr;
use press_serve::engine::QUARANTINE_LOG_CAP;
use press_serve::{
    shard_wal_len, truncate_shard_wal, Ack, DurabilityPolicy, Event, FaultPlan, IngestConfig,
    IngestEngine, RealIo, ServeError, SessionPolicy, Wal, WalError, WalRecord,
};
use press_workload::{Workload, WorkloadConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Shared fixture: ten vehicles, staggered starts, merged into one
/// arrival stream ordered by timestamp.
fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::new(21, 30, 10, 37.0))
}

fn config() -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 0.0,
        max_session_points: 0,
        block_size: 3,
        threads: 2,
        max_lattice_work: 0,
        max_salvage_splits: 8,
        ..IngestConfig::default()
    }
}

/// Pushes `events` into a fresh engine at `dir`, recording the event
/// index and ack offset of every ingested (journaled) fix.
fn run_clean(
    dir: &std::path::Path,
    cfg: IngestConfig,
    events: &[Event],
) -> (IngestEngine, Vec<(usize, u64)>) {
    let f = fleet();
    let mut engine = f.open(dir, cfg).expect("open");
    let mut acked = Vec::new();
    for (i, &(v, s)) in events.iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    (engine, acked)
}

#[test]
fn clean_ingest_equals_the_offline_pipeline() {
    let f = fleet();
    let dir = test_dir("clean");
    let (mut engine, acked) = run_clean(&dir, config(), &f.events);
    assert_eq!(acked.len(), f.events.len(), "clean stream fully accepted");
    engine.finalize_all().expect("finalize_all");
    let pieces = engine.flush().expect("flush");
    assert!(pieces >= 8, "at least one piece per vehicle");

    // Offline reference: per vehicle, the batch pipeline (salvaging
    // matcher + batch compress) over the same samples. finalize_all
    // closes sessions in first-arrival order = staggered vehicle order.
    let mut expected: Vec<CompressedTrajectory> = Vec::new();
    for v in 0..10u64 {
        let samples: Vec<GpsSample> = f
            .events
            .iter()
            .filter(|(ev, _)| *ev == v)
            .map(|&(_, s)| s)
            .collect();
        let report = f.matcher.match_trajectory_salvaging(&samples, 0, 8);
        assert!(report.dropped.is_empty(), "vehicle {v} should match");
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
            let traj = reformat(&f.net, piece.edges, &path_samples).expect("reformat");
            expected.push(f.press.compress(&traj).expect("compress"));
        }
    }
    assert_eq!(engine.finished(), &expected[..], "streaming == batch");

    // Checkpoint publishes exactly this corpus.
    engine.checkpoint().expect("checkpoint");
    let store = TrajectoryStore::open_mapped(&engine.shard_corpus_path(0)).expect("open corpus");
    assert_eq!(store.len(), expected.len());
    assert_eq!(store.decode_all().expect("decode"), expected);
    // After checkpoint the WAL holds no points (all published).
    let mut points = 0;
    Wal::open(&engine.shard_wal_path(0), Arc::new(RealIo), |r| {
        points += usize::from(matches!(r, WalRecord::Point { .. }));
        Ok(())
    })
    .expect("wal");
    assert_eq!(points, 0, "checkpoint should leave no in-flight points");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process crash loses the frames still in the journal buffer — and
/// that is just another legal cut. Under group commit every frame up to
/// the durability watermark is in the file; the frames sequenced since
/// the last group commit are only in memory. Leaking the engine (no
/// `Drop`, as under SIGKILL) leaves the journal cut at its file end,
/// somewhere in `[durable offset, logical offset)`, and recovery equals
/// a clean run over exactly the acks that fit under that cut.
///
/// The leak comes after a settle point with no batch queued behind it:
/// an explicit `sync` ends the group-committed prefix, and the tail
/// after it is too short to trip the byte trigger (the time trigger is
/// off). A batch left on the syncer thread would still be written after
/// the leak, racing the recovery below.
#[test]
fn buffered_frames_lost_to_a_process_crash_are_a_legal_cut() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 400.0,
        max_session_points: 24,
        durability: DurabilityPolicy {
            sync_bytes: 1024,
            sync_interval: 0.0,
            ..DurabilityPolicy::group_commit()
        },
        ..config()
    };
    let dir = test_dir("buffered-crash");
    // Twelve `Point` frames (41 B each) stay below the 1,024-byte trigger.
    let tail = f.events.len() - 12;
    let (mut engine, mut acked) = run_clean(&dir, cfg, &f.events[..tail]);
    assert!(engine.stats().sync_calls > 0, "the prefix group-commits");
    engine.sync().expect("sync");
    for (i, &(v, s)) in f.events.iter().enumerate().skip(tail) {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    let durable = engine.shard_durable_offset(0);
    let logical = engine.shard_wal_offset(0);
    std::mem::forget(engine); // SIGKILL: no Drop writes the buffer
    let len = shard_wal_len(&dir, 0).expect("wal len");
    assert!(
        durable <= len && len < logical,
        "the file must end inside [durable {durable}, logical {logical}), not at {len}"
    );

    let mut recovered = f.open(&dir, cfg).expect("recover");
    let report = *recovered.recovery();
    assert_eq!(report.torn_bytes, 0, "buffer writes land whole frames");
    let survivors = acked.iter().take_while(|&&(_, off)| off <= len).count();
    assert!(survivors < acked.len(), "the crash must lose buffered acks");
    assert_eq!(
        report.replayed_points as usize, survivors,
        "exactly the acks under the file end replay"
    );
    let corpus_a = finish(&mut recovered);
    let prefix = &f.events[..=acked[survivors - 1].0];
    let dir_b = test_dir("buffered-crash-clean");
    let (mut clean, _) = run_clean(&dir_b, cfg, prefix);
    assert_eq!(
        corpus_a,
        finish(&mut clean),
        "recovered corpus must be byte-identical to the clean run over the surviving acks"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn torn_final_frame_is_recovered_not_fatal() {
    let f = fleet();
    let dir = test_dir("torn");
    let (engine, acked) = run_clean(&dir, config(), &f.events);
    let final_len = engine.shard_wal_offset(0);
    drop(engine);
    // Tear the last frame mid-payload (5 bytes short of complete).
    let cut = final_len - 5;
    truncate_shard_wal(&dir, 0, cut).expect("truncate");
    let recovered = f.open(&dir, config()).expect("recover");
    let report = recovered.recovery();
    assert!(report.torn_bytes > 0, "torn tail must be detected");
    assert_eq!(report.replayed_points as usize, acked.len() - 1);
    assert_eq!(
        report.points_in_flight,
        acked.len() - 1,
        "all surviving points still in flight (no checkpoint yet)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint writes one `Resume` per vehicle, before any `Point`, so
/// a second `Resume` for a live vehicle is damage its CRC did not catch.
/// Recovery refuses it as corruption at that frame, not a panic in the
/// next idle sweep.
#[test]
fn a_resume_for_a_live_session_is_corrupt_at_its_frame() {
    let f = fleet();
    let dir = test_dir("resume-live");
    let cfg = IngestConfig {
        idle_timeout: 10.0,
        ..config()
    };
    let wal = f.open(&dir, cfg).expect("fresh").shard_wal_path(0);
    let resume = |t| WalRecord::Resume {
        vehicle: 7,
        x: 0.0,
        y: 0.0,
        t,
    };
    let records = [
        WalRecord::Clock { t: 0.0 },
        resume(1.0),
        resume(2.0),
        WalRecord::Clock { t: 100.0 },
    ];
    drop(Wal::create(&wal, &records[..2], Arc::new(RealIo)).expect("journal"));
    let second = std::fs::metadata(&wal).expect("journal").len();
    drop(Wal::create(&wal, &records, Arc::new(RealIo)).expect("journal"));
    match f.open(&dir, cfg) {
        Err(ServeError::Wal(WalError::Corrupt { offset, .. })) => assert_eq!(offset, second),
        Err(e) => panic!("expected Corrupt at byte {second}, got {e:?}"),
        Ok(_) => panic!("a second resume for a live session recovered"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint keeps the last fix of a vehicle whose session holds no
/// samples as a `Resume` frame. Here the size cap has just cut the
/// session, and the fix is too recent for the checkpoint's clock to
/// sweep it. After a reopen the vehicle re-sends that fix: it must be
/// coalesced (`Ack::Repaired`) as in a never-crashed engine, and the
/// two merged corpora must be equal.
#[test]
fn a_resent_last_fix_after_a_checkpoint_is_repaired_like_a_never_crashed_run() {
    let f = fleet();
    let cap = 10;
    let cfg = IngestConfig {
        idle_timeout: 350.0,
        max_session_points: cap,
        ..config()
    };
    // The event that brings vehicle 0's session to the cap.
    let cut = (0..f.events.len())
        .filter(|&i| f.events[i].0 == 0)
        .nth(cap - 1)
        .expect("vehicle 0 has a capped session");
    let resent = f.events[cut];
    let run = |tag: &str, crash: bool| {
        let dir = test_dir(tag);
        let (mut engine, _) = run_clean(&dir, cfg, &f.events[..=cut]);
        if crash {
            engine.checkpoint().expect("checkpoint");
            drop(engine);
            engine = f.open(&dir, cfg).expect("reopen");
        }
        let ack = engine.push(resent.0, resent.1).expect("re-sent fix");
        assert_eq!(ack, Ack::Repaired, "{tag}: the re-sent last fix");
        for &(v, s) in &f.events[cut + 1..] {
            engine.push(v, s).expect("push");
        }
        let corpus = finish_merged(&mut engine);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        corpus
    };
    assert_eq!(
        run("resume-ckpt", true),
        run("resume-clean", false),
        "the merged corpus after the reopen"
    );
}

#[test]
fn checkpoint_then_kill_keeps_published_corpus_and_tail() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 350.0,
        max_session_points: 20,
        ..config()
    };
    let dir_a = test_dir("ckpt-a");
    let mut engine = f.open(&dir_a, cfg).expect("open");
    let split = f.events.len() * 3 / 5;
    let mut acked: Vec<(usize, u64)> = Vec::new();
    for (i, &(v, s)) in f.events[..split].iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    engine.checkpoint().expect("mid-run checkpoint");
    let base_len = engine.shard_wal_offset(0);
    let pre_checkpoint_accepted = acked.len();
    for (i, &(v, s)) in f.events[split..].iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((split + i, offset));
        }
    }
    let final_len = engine.shard_wal_offset(0);
    drop(engine); // crash after the checkpoint, mid-append
                  // A crash can only tear post-checkpoint appends: the rewritten base
                  // was synced and atomically renamed. Kill somewhere in the tail.
    let cut = base_len + (final_len - base_len) / 3;
    truncate_shard_wal(&dir_a, 0, cut).expect("truncate");

    let mut recovered = f.open(&dir_a, cfg).expect("recover");
    assert!(
        recovered.recovery().corpus_trajectories > 0,
        "published corpus must survive the crash"
    );
    let corpus_a = finish(&mut recovered);

    // Clean run B never checkpoints mid-way: checkpoints must be
    // invisible in the final artifact. Every pre-checkpoint accepted fix
    // survives (published corpus + synced rewritten base); post-checkpoint
    // fixes survive when their frame fits under the cut.
    let last_idx = acked
        .iter()
        .enumerate()
        .take_while(|(k, &(_, off))| *k < pre_checkpoint_accepted || off <= cut)
        .map(|(_, &(idx, _))| idx)
        .last()
        .expect("nonempty prefix");
    let dir_b = test_dir("ckpt-b");
    let (mut engine_b, _) = run_clean(&dir_b, cfg, &f.events[..=last_idx]);
    let corpus_b = finish(&mut engine_b);
    assert_eq!(
        corpus_a, corpus_b,
        "checkpoint must not change the recovered corpus"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Copies every regular file of the flat ingest directory.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

/// The checkpoint commit window: a checkpoint writes a new corpus and a
/// new (shrunk) journal under their final names, then commits both with
/// one manifest rename. A kill *between* those steps must never yield
/// the new corpus paired with the old journal — that replay would
/// compress the flushed trajectories a second time — nor a file cut
/// short. Each window below rebuilds the directory a kill there leaves
/// and asserts recovery is byte-identical to a clean, never-checkpointed run.
#[test]
fn kill_inside_checkpoint_commit_window_recovers_equivalently() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 350.0,
        max_session_points: 20,
        ..config()
    };
    let dir = test_dir("ckpt-window");
    let mut engine = f.open(&dir, cfg).expect("open");
    let split = f.events.len() * 3 / 5;
    for &(v, s) in &f.events[..split] {
        engine.push(v, s).expect("push");
    }
    engine.sync().expect("sync");
    // Snapshot the pre-checkpoint directory: the state every
    // not-yet-committed kill must fall back to.
    let pre = test_dir("ckpt-window-pre");
    copy_dir(&dir, &pre);
    engine.checkpoint().expect("checkpoint");
    assert_eq!(engine.generation(), 1, "checkpoint bumps the generation");
    let new_corpus = engine.shard_corpus_path(0);
    let new_wal = engine.shard_wal_path(0);
    let new_manifest = dir.join(press_serve::MANIFEST_FILE);
    drop(engine);

    // Reference: one clean run over every event, no mid-run checkpoint.
    let dir_b = test_dir("ckpt-window-clean");
    let (mut clean, _) = run_clean(&dir_b, cfg, &f.events);
    let expect = finish(&mut clean);

    // (tag, new files the kill leaves, whether it cut each one short)
    let windows: [(&str, Vec<&PathBuf>, bool); 4] = [
        // Kill after the new corpus was written, before the new journal
        // and the manifest rename.
        ("corpus-only", vec![&new_corpus], false),
        // Kill while both new artifacts were being written: each holds
        // a prefix of its bytes under its final name.
        ("torn-corpus-and-wal", vec![&new_corpus, &new_wal], true),
        // Kill after both new artifacts, before the manifest rename —
        // the exact new-corpus + old-journal double-compression window.
        ("corpus-and-wal", vec![&new_corpus, &new_wal], false),
        // Kill after the manifest rename, before the old generation's
        // cleanup.
        (
            "manifest-flipped",
            vec![&new_corpus, &new_wal, &new_manifest],
            false,
        ),
    ];
    for (tag, files, torn) in windows {
        let w = test_dir(&format!("ckpt-window-{tag}"));
        copy_dir(&pre, &w);
        for file in files {
            let name = file.file_name().expect("file name");
            let bytes = std::fs::read(file).expect("artifact");
            let len = if torn { bytes.len() / 2 } else { bytes.len() };
            std::fs::write(w.join(name), &bytes[..len]).expect("copy artifact");
        }
        let mut recovered = f.open(&w, cfg).expect("recover");
        for &(v, s) in &f.events[split..] {
            recovered.push(v, s).expect("push");
        }
        let got = finish(&mut recovered);
        assert_eq!(
            got, expect,
            "window {tag}: recovery must match the clean run exactly"
        );
        let _ = std::fs::remove_dir_all(&w);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pre);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn missing_manifest_over_artifacts_is_a_typed_refusal() {
    let f = fleet();
    let dir = test_dir("no-manifest");
    let (engine, _) = run_clean(&dir, config(), &f.events[..20]);
    drop(engine);
    std::fs::remove_file(dir.join(press_serve::MANIFEST_FILE)).expect("remove manifest");
    match f.open(&dir, config()) {
        Err(ServeError::Manifest(_)) => {}
        Err(other) => panic!("expected ServeError::Manifest, got {other:?}"),
        Ok(_) => panic!("artifacts without a manifest must refuse, not restart fresh"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A committed generation >= 1 names one corpus file and one journal per
/// shard, all written before the manifest rename. Losing any of them —
/// or the corpus's `ingest` section — is a typed refusal naming the
/// file, never a shard that silently recovers empty.
#[test]
fn committed_generation_missing_an_artifact_is_a_typed_refusal() {
    let f = fleet();
    let cfg = IngestConfig {
        shards: 2,
        ..config()
    };
    let dir = test_dir("missing-artifact");
    let (mut engine, _) = run_clean(&dir, cfg, &f.events);
    finish(&mut engine);
    let generation = engine.generation();
    assert!(generation >= 1);
    let trajectories = engine.finished().len();
    assert!(trajectories > 0);
    let shard0 = engine.shard_corpus_path(0);
    let mut artifacts = Vec::new();
    for k in 0..cfg.shards {
        artifacts.push(engine.shard_corpus_path(k));
        artifacts.push(engine.shard_wal_path(k));
    }
    let finished = engine.finished();
    drop(engine);
    let open = |d: &std::path::Path| f.open(d, cfg);
    for (i, artifact) in artifacts.iter().enumerate() {
        let name = artifact.file_name().expect("file name");
        let w = test_dir(&format!("missing-artifact-{i}"));
        copy_dir(&dir, &w);
        std::fs::remove_file(w.join(name)).expect("remove artifact");
        match open(&w) {
            Err(ServeError::Manifest(msg)) => {
                assert!(msg.contains(name.to_str().expect("utf-8")), "{msg}")
            }
            Err(other) => panic!("{name:?}: expected ServeError::Manifest, got {other:?}"),
            Ok(e) => panic!(
                "{name:?}: reopened with {} of {trajectories} trajectories",
                e.finished().len()
            ),
        }
        let _ = std::fs::remove_dir_all(&w);
    }
    // A corpus file without its `ingest` section is refused too.
    let w = test_dir("missing-artifact-section");
    copy_dir(&dir, &w);
    let name = shard0.file_name().expect("file name");
    let stripped = TrajectoryStore::open_mapped(&shard0)
        .expect("open corpus")
        .decode_all()
        .expect("decode");
    let query = QueryEngine::new(f.press.model());
    std::fs::remove_file(w.join(name)).expect("remove corpus");
    TrajectoryStore::create(&w.join(name), &query, &stripped, cfg.block_size)
        .expect("write corpus without the section");
    match open(&w) {
        Err(ServeError::Manifest(msg)) => assert!(msg.contains("ingest section"), "{msg}"),
        Err(other) => panic!("expected ServeError::Manifest, got {other:?}"),
        Ok(_) => panic!("a corpus without merge keys must not be adopted"),
    }
    // Untouched, the same directory recovers every trajectory.
    let reopened = open(&dir).expect("reopen");
    assert_eq!(reopened.finished(), finished);
    let _ = std::fs::remove_dir_all(&w);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_log_keeps_the_most_recent_records() {
    let f = fleet();
    let dir = test_dir("quarantine-ring");
    let mut engine = f.open(&dir, config()).expect("open");
    let good = f.events[0];
    engine.push(good.0, good.1).expect("push");
    // Out-of-order fixes past the cap, distinguishable by x: under
    // sustained dirty input the ring must hold the most recent cap, not
    // freeze on the first cap.
    let pushed = QUARANTINE_LOG_CAP + 6;
    for i in 0..pushed {
        let bad = GpsSample {
            point: press_network::Point::new(i as f64, 0.0),
            t: good.1.t - 1.0,
        };
        assert!(matches!(
            engine.push(good.0, bad).expect("push"),
            Ack::Quarantined(_)
        ));
    }
    let xs: Vec<f64> = engine
        .quarantine_log()
        .iter()
        .map(|r| r.sample.point.x)
        .collect();
    let expect: Vec<f64> = (pushed - QUARANTINE_LOG_CAP..pushed)
        .map(|i| i as f64)
        .collect();
    assert_eq!(xs, expect, "oldest-first, most recent kept");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_store_answers_queries_like_brute_force() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 500.0,
        max_session_points: 32,
        ..config()
    };
    let dir = test_dir("queries");
    let (engine, _) = run_clean(&dir, cfg, &f.events);
    let final_len = engine.shard_wal_offset(0);
    drop(engine);
    truncate_shard_wal(&dir, 0, final_len * 2 / 3).expect("truncate");
    let mut recovered = f.open(&dir, cfg).expect("recover");
    finish(&mut recovered);

    let store = TrajectoryStore::open_mapped(&recovered.shard_corpus_path(0)).expect("open");
    let decoded = store.decode_all().expect("decode");
    assert!(!decoded.is_empty());
    let query = QueryEngine::new(recovered.press().model());
    // whereat through the block store == whereat on the decoded corpus.
    for (i, ct) in decoded.iter().enumerate() {
        let Some((t0, t1)) = ct.temporal.time_range() else {
            continue;
        };
        for k in 1..4 {
            let t = t0 + (t1 - t0) * k as f64 / 4.0;
            let mem = query.whereat(ct, t).expect("whereat mem");
            let disk = store.whereat(&query, i, t).expect("whereat disk");
            assert_eq!(mem, disk, "trajectory {i} at t={t}");
        }
    }
    // range through the synopsis-pruned store == brute force.
    let region = Mbr::new(0.0, 0.0, 600.0, 600.0);
    let hits = store.range(&query, 0.0, 400.0, &region).expect("range");
    let brute: Vec<usize> = decoded
        .iter()
        .enumerate()
        .filter(|(_, ct)| {
            let Some((a, z)) = ct.temporal.time_range() else {
                return false;
            };
            z >= 0.0 && a <= 400.0 && query.range(ct, 0.0, 400.0, &region).expect("range")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits, brute);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dirty_input_is_quarantined_with_typed_reasons() {
    let f = fleet();
    let plan = FaultPlan {
        seed: 99,
        drop_prob: 0.0,
        corrupt_prob: 0.25,
        duplicate_prob: 0.15,
        reorder_prob: 0.10,
    };
    let mangled = plan.mangle(&f.events);
    let dir = test_dir("dirty");
    let (mut engine, acked) = run_clean(&dir, config(), &mangled);
    let stats = engine.stats();
    assert!(
        stats.total_quarantined() > 0,
        "corruption must hit the quarantine"
    );
    assert_eq!(
        stats.points_accepted as usize
            + stats.points_repaired as usize
            + stats.total_quarantined() as usize,
        mangled.len(),
        "every fix is acked exactly once"
    );
    assert_eq!(stats.points_accepted as usize, acked.len());
    assert!(!engine.quarantine_log().is_empty());
    // The dirty stream still compresses: the clean majority survives.
    engine.finalize_all().expect("finalize_all");
    assert!(engine.flush().expect("flush") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint → reopen hands back the very trajectories that were
/// finished — through the column-coded corpus — and the very segment
/// counters — through the `ingest` sidecar: the reopened engine, fed the
/// rest of the stream, publishes the bytes of an engine that never
/// stopped, at every shard count.
#[test]
fn checkpoint_reopen_preserves_finished_and_segment_counters() {
    let f = fleet();
    let split = f.events.len() / 2;
    for shards in [1usize, 3] {
        let cfg = IngestConfig {
            idle_timeout: 300.0,
            max_session_points: 16,
            shards,
            ..config()
        };
        let dir = test_dir(&format!("reopen-{shards}"));
        let (mut engine, _) = run_clean(&dir, cfg, &f.events[..split]);
        engine.checkpoint().expect("checkpoint");
        let finished = engine.finished();
        assert!(
            finished.len() > 3,
            "the cap must have cut segments by the checkpoint"
        );
        drop(engine);

        let mut reopened = f.open(&dir, cfg).expect("reopen");
        assert_eq!(reopened.recovery().corpus_trajectories, finished.len());
        assert_eq!(reopened.finished(), finished);
        for &(v, s) in &f.events[split..] {
            reopened.push(v, s).expect("push");
        }
        let resumed = finish_merged(&mut reopened);

        let clean_dir = test_dir(&format!("reopen-clean-{shards}"));
        let (mut clean, _) = run_clean(&clean_dir, cfg, &f.events);
        assert_eq!(
            resumed,
            finish_merged(&mut clean),
            "{shards} shards: a checkpoint and a reopen must be invisible in the corpus"
        );
        let stored = TrajectoryStore::from_store_bytes(resumed).expect("merged corpus loads");
        assert_eq!(stored.decode_all().expect("decode_all"), clean.finished());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }
}

/// A configuration the engine cannot run is refused at open as a typed
/// `ServeError::Config`, before the directory is created. A NaN speed
/// limit would otherwise turn teleport vetting off without a word, and a
/// NaN BTC bound would drop its window from the scan.
#[test]
fn open_refuses_unrunnable_configs() {
    let f = fleet();
    let dir = test_dir("bad-config");
    let cases = [
        ("block_size", 0.0),
        ("shards", 0.0),
        ("idle_timeout", f64::NAN),
        ("max_speed_m_s", f64::NAN),
        ("bounds.tsnd", f64::NAN),
        ("bounds.tsnd", -1.0),
        ("bounds.nstd", f64::NAN),
        ("bounds.nstd", -1.0),
    ];
    for (what, bad) in cases {
        let mut cfg = config();
        let mut press_cfg = f.press.config();
        match what {
            "block_size" => cfg.block_size = 0,
            "shards" => cfg.shards = 0,
            "idle_timeout" => cfg.idle_timeout = bad,
            "max_speed_m_s" => cfg.policy.max_speed_m_s = bad,
            "bounds.tsnd" => press_cfg.bounds.tsnd = bad,
            _ => press_cfg.bounds.nstd = bad,
        }
        let press = f.press.reconfigured(press_cfg);
        match IngestEngine::open(&dir, Arc::clone(&f.matcher), press, cfg) {
            Err(ServeError::Config(msg)) => assert!(msg.contains(what), "{what} {bad}: {msg}"),
            Err(e) => panic!("{what} {bad}: expected a typed config refusal, got {e:?}"),
            Ok(_) => panic!("{what} {bad}: the engine opened"),
        }
        assert!(
            !dir.exists(),
            "{what} {bad}: the refused open created the directory"
        );
    }
}

/// A corpus names the model it was coded under; recovering it under a
/// model with another code book is a typed refusal, not garbage paths.
#[test]
fn corpus_of_another_model_is_a_typed_refusal() {
    let f = fleet();
    let dir = test_dir("other-model");
    let (mut engine, _) = run_clean(&dir, config(), &f.events);
    finish(&mut engine);
    drop(engine);
    let sp = f.press.model().sp().clone();
    let workload = Workload::generate(
        f.net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 12,
            seed: 99,
            ..WorkloadConfig::default()
        },
    );
    let paths: Vec<_> = workload.records.iter().map(|r| r.path.clone()).collect();
    let other = Press::train(sp, &paths, f.press.config()).expect("training");
    assert_ne!(other.model().fingerprint(), f.press.model().fingerprint());
    match IngestEngine::open(&dir, Arc::clone(&f.matcher), other, config()) {
        Err(ServeError::Config(msg)) => {
            assert!(msg.contains("was coded under model"), "{msg}")
        }
        Err(e) => panic!("expected a typed model mismatch, got {e:?}"),
        Ok(_) => panic!("a corpus of another model must not be adopted"),
    }
    f.open(&dir, config())
        .expect("the writing model still recovers it");
    let _ = std::fs::remove_dir_all(&dir);
}
