//! Warm start: build the expensive artifacts once, persist them with the
//! press-store tier, and restart serving from disk — the
//! build-once/serve-many shape.
//!
//! The pipeline's dominant preprocessing costs (hub-label construction,
//! HSC training) are paid in phase 1 and **skipped** in phase 2: a fresh
//! "process" maps the network, the hub labels, the trained model, and
//! the block-oriented trajectory store, then answers queries
//! bit-identically to the builder. Every artifact opens through the
//! **zero-copy mapped tier**: the files are `mmap`ed, the hub labels'
//! arrays are borrowed in place, and the corpus defers each block's CRC
//! to its first decode.
//!
//! Run with: `cargo run --release --example warm_start`

use press::core::query::QueryEngine;
use press::core::spatial::HscModel;
use press::core::TrajectoryStore;
use press::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join("press-warm-start-example");
    std::fs::create_dir_all(&dir).expect("create store dir");

    // ---- Phase 1: build everything, save everything. -------------------
    println!("phase 1: cold build");
    let net = Arc::new(grid_network(&GridConfig {
        nx: 40,
        ny: 40,
        spacing: 150.0,
        weight_jitter: 0.15,
        removal_prob: 0.02,
        seed: 7,
    }));
    let t0 = Instant::now();
    let hl = Arc::new(HubLabels::build(net.clone()));
    let build_hl = t0.elapsed();
    let sp: Arc<dyn SpProvider> = hl.clone();

    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 120,
            seed: 7,
            min_trip_edges: 15,
            ..WorkloadConfig::default()
        },
    );
    let (train, eval) = workload.split(0.3);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let t0 = Instant::now();
    let press = Press::train(sp.clone(), &training_paths, PressConfig::default()).expect("train");
    let train_time = t0.elapsed();

    // Spread departures across a "day" (one trip per 5 minutes) so the
    // per-block time-span synopses have something to discriminate on.
    let trajectories: Vec<Trajectory> = eval
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut t = r.truth_trajectory(30.0);
            for p in &mut t.temporal.points {
                p.t += i as f64 * 300.0;
            }
            t
        })
        .collect();
    let compressed = press.compress_batch(&trajectories, 4).expect("compress");
    let engine = QueryEngine::new(press.model());

    net.save_to(&dir.join("network.press"))
        .expect("save network");
    hl.save_to(&dir.join("sp_hl.press"))
        .expect("save hub labels");
    press
        .model()
        .save_to(&dir.join("hsc.press"))
        .expect("save model");
    TrajectoryStore::create(&dir.join("corpus.press"), &engine, &compressed, 16)
        .expect("save corpus");
    let artifact_bytes: u64 = ["network.press", "sp_hl.press", "hsc.press", "corpus.press"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map(|m| m.len()).unwrap_or(0))
        .sum();
    println!(
        "  built: hub labels in {:.2?}, HSC training in {:.2?}; saved 4 artifacts ({:.1} MiB) to {}",
        build_hl,
        train_time,
        artifact_bytes as f64 / (1 << 20) as f64,
        dir.display()
    );

    // Remember one query's answer to compare against the warm process.
    let probe_idx = 3.min(compressed.len() - 1);
    let (t0q, t1q) = trajectories[probe_idx].temporal.time_range().unwrap();
    let probe_t = (t0q + t1q) / 2.0;
    let cold_answer = engine.whereat(&compressed[probe_idx], probe_t).unwrap();

    // ---- Phase 2: a "fresh process" warm-starts from disk. -------------
    println!("phase 2: warm start (zero-copy mapped tier)");
    let t0 = Instant::now();
    let net2 = Arc::new(RoadNetwork::load_from(&dir.join("network.press")).expect("load network"));
    let hl2 = HubLabels::open_mapped(net2.clone(), &dir.join("sp_hl.press")).expect("map labels");
    let sp2: Arc<dyn SpProvider> = Arc::new(hl2);
    let model2 = HscModel::load_from(sp2, &dir.join("hsc.press")).expect("load model");
    let store = TrajectoryStore::open_mapped(&dir.join("corpus.press")).expect("map corpus");
    let load_time = t0.elapsed();
    let speedup = (build_hl + train_time).as_secs_f64() / load_time.as_secs_f64().max(1e-9);
    println!(
        "  loaded all 4 artifacts in {:.2?} — {:.0}x faster than the {:.2?} build",
        load_time,
        speedup,
        build_hl + train_time
    );

    // Same answers, straight from disk.
    let engine2 = QueryEngine::new(&model2);
    let warm_answer = store
        .whereat(&engine2, probe_idx, probe_t)
        .expect("whereat");
    assert_eq!(
        cold_answer.x.to_bits(),
        warm_answer.x.to_bits(),
        "warm-start must answer bit-identically"
    );
    assert_eq!(cold_answer.y.to_bits(), warm_answer.y.to_bits());
    println!(
        "  whereat(traj {probe_idx}, t = {probe_t:.0}s) = ({:.1}, {:.1}) — bit-identical to the cold build",
        warm_answer.x, warm_answer.y
    );

    // Block synopses skip irrelevant blocks without decompressing them:
    // a query over the first "hour" of the day only touches the blocks
    // whose time span overlaps it.
    let bb = net2.bounding_box();
    let region = Mbr::new(bb.min_x, bb.min_y, bb.max_x, bb.max_y);
    let hits = store.range(&engine2, 0.0, 3600.0, &region).expect("range");
    let (decoded, skipped) = store.io_stats();
    println!(
        "  range query over the first hour: {} hits; {} blocks decoded, {} skipped via time-span synopses",
        hits.len(),
        decoded,
        skipped
    );
    assert!(skipped > 0, "later blocks must be skipped without decoding");

    // Spatial decompression is still lossless end to end.
    let restored = model2
        .decompress(&store.get(probe_idx).expect("get").spatial)
        .expect("decompress");
    assert_eq!(restored, trajectories[probe_idx].path.edges);
    println!("  decompressed spatial path matches the original exactly");

    let _ = std::fs::remove_dir_all(&dir);
}
