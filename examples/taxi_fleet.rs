//! A simulated taxi fleet streamed through the fault-tolerant ingest
//! engine — the paper's Fig. 1 pipeline (raw GPS → map matcher →
//! re-formatter → paralleled spatial + temporal compression) running
//! live behind a crash-safe WAL, then killed mid-stream and recovered.
//!
//! The demo injects real-world dirt into the stream (NaN fixes,
//! duplicates, teleports, reorderings), tears the journal at an
//! arbitrary byte offset to simulate a power cut, and shows the
//! recovered engine publishing a corpus byte-identical to a clean run
//! over exactly the acknowledged prefix — no acked fix lost, nothing
//! unacked invented.
//!
//! Run with: `cargo run --release --example taxi_fleet`

use press::matcher::hmm::GpsSample;
use press::prelude::*;
use press::serve::{shard_wal_len, truncate_shard_wal, DiskFault, Event, FaultKind, FaultyIo};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // City + fleet.
    let net = Arc::new(grid_network(&GridConfig {
        nx: 12,
        ny: 12,
        spacing: 160.0,
        weight_jitter: 0.15,
        removal_prob: 0.03,
        seed: 11,
    }));
    let sp = SpBackend::Dense.build(net.clone());
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 60,
            seed: 11,
            ..WorkloadConfig::default()
        },
    );

    // Train on the first "day"; the rest of the fleet drives live.
    let (train, eval) = workload.split(0.4);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let press = Press::train(
        sp,
        &training_paths,
        PressConfig {
            bounds: BtcBounds::new(50.0, 20.0),
            ..PressConfig::default()
        },
    )
    .expect("training");
    let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));

    // Interleave every vehicle's GPS fixes into one arrival stream:
    // taxis report every 10 s with ~6 m noise, staggered starts.
    let mut events: Vec<Event> = Vec::new();
    for (v, record) in eval.iter().take(16).enumerate() {
        let trace = record.gps_trace(&net, 10.0, 6.0);
        for p in &trace.points {
            events.push((
                v as u64,
                GpsSample {
                    point: p.point,
                    t: p.t + v as f64 * 41.0,
                },
            ));
        }
    }
    events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
    println!(
        "fleet: 16 taxis, {} clean fixes on a {}-edge network",
        events.len(),
        net.num_edges()
    );

    // Real feeds are dirty. Mangle the stream with a seeded fault plan:
    // dead zones, NaN/teleport corruptions, retry duplicates, UDP
    // reordering — all reproducible from the seed.
    let plan = FaultPlan {
        seed: 11,
        drop_prob: 0.01,
        corrupt_prob: 0.03,
        duplicate_prob: 0.03,
        reorder_prob: 0.02,
    };
    let feed = plan.mangle(&events);
    println!("feed after fault injection: {} fixes\n", feed.len());

    let cfg = IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 300.0, // stream seconds, not wall clock
        max_session_points: 64,
        ..IngestConfig::default()
    };

    // --- Live ingest, then a power cut mid-stream. -----------------------
    let dir = std::env::temp_dir().join(format!("press-taxi-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .expect("open");
    // Every ingested fix is acked `Journaled` with its WAL offset: it
    // is sequenced in the journal but its group-commit write + fsync is
    // still pending (a process crash or a power cut may take it, which
    // is exactly what the tear below simulates), and the shard's
    // durable offset says when a sync has covered it. The write + fsync runs on the engine's syncer thread,
    // so even the push that trips a group commit acks `Journaled`: its
    // fix is durable once the batch settles, at that shard's next
    // trigger, or at an explicit `sync()`.
    let mut acked: Vec<(usize, u64)> = Vec::new();
    for (i, &(v, s)) in feed.iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    let stats = engine.stats();
    println!(
        "ingested: {} accepted, {} repaired (coalesced re-sends), {} quarantined",
        stats.points_accepted,
        stats.points_repaired,
        stats.total_quarantined()
    );
    for reason in QuarantineReason::ALL {
        let n = stats.points_quarantined[reason.index()];
        if n > 0 {
            println!("  quarantine[{reason}]: {n}");
        }
    }
    drop(engine); // power cut: nothing finalized, flushed, or published

    let full = shard_wal_len(&dir, 0).expect("wal length");
    let cut = full * 3 / 5;
    truncate_shard_wal(&dir, 0, cut).expect("tear the journal");
    println!("\npower cut: journal torn at byte {cut} of {full}");

    // --- Recovery: replay the journal through the live ingest path. ------
    let t0 = Instant::now();
    let mut recovered = IngestEngine::open(
        &dir,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .expect("recover");
    let rec = *recovered.recovery();
    println!(
        "recovered in {:.1} ms: {} acked points replayed, {} sessions rebuilt, \
         {} torn bytes truncated",
        t0.elapsed().as_secs_f64() * 1e3,
        rec.replayed_points,
        rec.sessions_rebuilt,
        rec.torn_bytes
    );
    recovered.finalize_all().expect("finalize");
    let pieces = recovered.flush().expect("flush");
    recovered.checkpoint().expect("checkpoint");
    let recovered_corpus = std::fs::read(recovered.shard_corpus_path(0)).expect("corpus");
    println!(
        "published: {pieces} trajectory pieces, corpus {} KiB, WAL shrunk to {} bytes",
        recovered_corpus.len() / 1024,
        recovered.shard_wal_offset(0)
    );

    // --- The guarantee, checked: byte-identical to a clean run. ----------
    // A fresh engine fed exactly the fixes whose acks survived the cut
    // must publish the same bytes.
    let survivors = acked.iter().take_while(|&&(_, off)| off <= cut).count();
    let last_idx = acked[survivors - 1].0;
    let dir_b = std::env::temp_dir().join(format!("press-taxi-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_b);
    let mut clean = IngestEngine::open(
        &dir_b,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .expect("open clean");
    for &(v, s) in &feed[..=last_idx] {
        clean.push(v, s).expect("push");
    }
    clean.finalize_all().expect("finalize");
    clean.flush().expect("flush");
    clean.checkpoint().expect("checkpoint");
    let clean_corpus = std::fs::read(clean.shard_corpus_path(0)).expect("corpus");
    assert_eq!(
        recovered_corpus, clean_corpus,
        "recovered corpus must be byte-identical to the clean run"
    );
    println!(
        "\nrecovered corpus is byte-identical to a clean run over the {survivors} \
         surviving acked fixes — no acked point lost, nothing unacked invented."
    );

    // The recovered store still answers queries.
    let store = press::core::store::TrajectoryStore::open_mapped(&recovered.shard_corpus_path(0))
        .expect("open");
    let query = QueryEngine::new(recovered.press().model());
    let decoded = store.decode_all().expect("decode");
    if let Some((t0, t1)) = decoded.first().and_then(|ct| ct.temporal.time_range()) {
        let mid = (t0 + t1) / 2.0;
        let p = store.whereat(&query, 0, mid).expect("whereat");
        println!(
            "whereat(trajectory 0, t={mid:.0}) -> ({:.0}, {:.0})",
            p.x, p.y
        );
    }

    // --- Disk full, then freed: degraded mode, not death. ----------------
    // The same fleet through an engine whose I/O backend injects faults:
    // the disk fills mid-stream, every ingest push is refused with a
    // typed `StorageFull` (no panic, no silent drop, no lying ack),
    // matching and compression keep running — and when space returns,
    // ingest resumes in the same process.
    println!("\n--- disk full, then freed ---");
    let dir_c = std::env::temp_dir().join(format!("press-taxi-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_c);
    let faulty = FaultyIo::new(Vec::new());
    let mut survivor = IngestEngine::open_with_io(
        &dir_c,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        cfg,
        faulty.clone(),
    )
    .expect("open");
    let third = feed.len() / 3;
    for &(v, s) in &feed[..third] {
        survivor.push(v, s).expect("push");
    }
    faulty.arm(DiskFault {
        at_op: 0,
        kind: FaultKind::Enospc,
        sticky: true, // a full disk stays full until space is freed
    });
    // Frames are buffered in memory and written by the group commit on
    // the syncer thread, so the full disk surfaces when that failed batch
    // settles, at the shard's next trigger: until then fixes are still
    // acked `Journaled`, and from the first refusal on
    // nothing is ingested until space returns.
    let mut refused = 0usize;
    for &(v, s) in &feed[third..2 * third] {
        match survivor.push(v, s) {
            Err(e) if e.is_storage_full() => refused += 1,
            Ok(ack) => {
                assert!(
                    refused == 0 || !ack.is_ingested(),
                    "no ingested acks once the full disk refused a push"
                );
            }
            Err(e) => panic!("expected StorageFull, got {e}"),
        }
    }
    assert!(refused > 0, "the full disk refuses pushes");
    let _ = survivor.flush().expect("matching needs no disk");
    assert!(
        survivor.sync().is_err_and(|e| e.is_storage_full()),
        "explicit sync reports the full disk, typed"
    );
    println!(
        "disk full: {refused} pushes refused with typed StorageFull; the engine stays \
         up — matching/compression still run, sync reports the condition honestly"
    );
    faulty.clear(); // space freed
    for &(v, s) in &feed[2 * third..] {
        survivor.push(v, s).expect("push after space returns");
    }
    survivor.finalize_all().expect("finalize");
    survivor.flush().expect("flush");
    let total = survivor.checkpoint().expect("checkpoint");
    println!(
        "space freed: ingest resumed without a restart; {} storage-full rejections \
         counted, {total} trajectories published",
        survivor.stats().storage_full_rejections
    );

    // --- One shard's disk dies; the rest of the fleet keeps driving. -----
    // The same fleet at 4 writer shards, with a sticky ENOSPC scoped to
    // exactly one shard's journal file. Faults are shard-local: taxis
    // routed to the failed shard are refused with a typed
    // `ShardDegraded` naming the shard, every other taxi keeps getting
    // real acks, and when the disk returns the refused fixes re-drive
    // in the same process — the fleet never noticed.
    println!("\n--- one shard down, fleet still driving ---");
    let dir_d = std::env::temp_dir().join(format!("press-taxi-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_d);
    let sharded_cfg = IngestConfig { shards: 4, ..cfg };
    let scoped = FaultyIo::new(Vec::new());
    let mut fleet = IngestEngine::open_with_io(
        &dir_d,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        sharded_cfg,
        scoped.clone(),
    )
    .expect("open sharded");
    let bad = fleet.shard_of(feed[0].0);
    scoped.arm_scoped(
        &format!(".s{bad}.wal"),
        DiskFault {
            at_op: 0,
            kind: FaultKind::Enospc,
            sticky: true,
        },
    );
    let mut healthy_acks = 0usize;
    let mut stranded: Vec<Event> = Vec::new();
    for &(v, s) in &feed {
        match fleet.push(v, s) {
            // The failed shard may still ack `Journaled` until its
            // failed journal write settles.
            Ok(ack) => healthy_acks += (ack.is_ingested() && fleet.shard_of(v) != bad) as usize,
            Err(e) => {
                assert_eq!(e.degraded_shard(), Some(bad), "fault stays on its shard");
                assert!(e.is_storage_full(), "typed through the wrapper: {e}");
                stranded.push((v, s));
            }
        }
    }
    for k in 0..fleet.num_shards() {
        let full = fleet.shard_stats(k).storage_full_rejections;
        assert_eq!(full > 0, k == bad, "only shard {bad} saw the fault");
    }
    println!(
        "shard {bad}/4 disk full: {} fixes refused (typed ShardDegraded, counted on \
         that shard alone), {healthy_acks} fixes acked on the healthy shards",
        stranded.len()
    );
    scoped.clear(); // the operator swaps the disk
    for &(v, s) in &stranded {
        fleet.push(v, s).expect("re-drive after the disk returns");
    }
    fleet.finalize_all().expect("finalize");
    fleet.flush().expect("flush");
    let fleet_total = fleet.checkpoint().expect("checkpoint");
    println!(
        "disk swapped: shard {bad} healed in-process; {fleet_total} trajectories \
         published across {} per-shard corpus files in one atomic manifest commit",
        fleet.num_shards()
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_c);
    let _ = std::fs::remove_dir_all(&dir_d);
}
