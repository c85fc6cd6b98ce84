//! Cross-crate integration tests: the full PRESS pipeline of the paper's
//! Fig. 1, exercised end to end — raw GPS → map matcher → re-formatter →
//! paralleled compression → queries → decompression — plus the baselines
//! on the same data.

use press::baselines::{mmtc, nonmaterial};
use press::core::query::QueryEngine;
use press::matcher::hmm::GpsSample;
use press::prelude::*;
use std::sync::Arc;

struct World {
    net: Arc<RoadNetwork>,
    sp: Arc<dyn SpProvider>,
    press: Press,
    workload: Workload,
}

fn world(seed: u64, bounds: BtcBounds) -> World {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 10,
        ny: 10,
        spacing: 150.0,
        weight_jitter: 0.15,
        removal_prob: 0.02,
        seed,
    }));
    let sp = SpBackend::Dense.build(net.clone());
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 80,
            seed,
            ..WorkloadConfig::default()
        },
    );
    let (train, _) = workload.split(0.4);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let press = Press::train(
        sp.clone(),
        &training_paths,
        PressConfig {
            bounds,
            ..PressConfig::default()
        },
    )
    .expect("training");
    World {
        net,
        sp,
        press,
        workload,
    }
}

#[test]
fn gps_to_compressed_and_back() {
    let w = world(5, BtcBounds::new(60.0, 20.0));
    let matcher = MapMatcher::new(w.net.clone(), MatcherConfig::default());
    let (_, eval) = w.workload.split(0.4);
    let mut pipelines_run = 0;
    for record in eval.iter().take(25) {
        let gps = record.gps_trace(&w.net, 30.0, 6.0);
        let samples: Vec<GpsSample> = gps
            .points
            .iter()
            .map(|p| GpsSample {
                point: p.point,
                t: p.t,
            })
            .collect();
        let matched = matcher.match_trajectory(&samples).expect("match");
        let path_samples: Vec<PathSample> = matched
            .samples
            .iter()
            .map(|s| PathSample {
                edge_idx: s.edge_idx,
                frac: s.frac,
                t: s.t,
            })
            .collect();
        let traj = reformat(&w.net, matched.edges.clone(), &path_samples).expect("reformat");
        let compressed = w.press.compress(&traj).expect("compress");
        let restored = w.press.decompress(&compressed).expect("decompress");
        // Spatial losslessness end-to-end.
        assert_eq!(restored.path.edges, matched.edges);
        // Temporal error bounded.
        let tsnd_err =
            press::core::temporal::tsnd(&traj.temporal.points, &restored.temporal.points);
        let nstd_err =
            press::core::temporal::nstd(&traj.temporal.points, &restored.temporal.points);
        assert!(tsnd_err <= 60.0 + 1e-6, "TSND {tsnd_err}");
        assert!(nstd_err <= 20.0 + 1e-6, "NSTD {nstd_err}");
        pipelines_run += 1;
    }
    assert!(pipelines_run >= 20, "only {pipelines_run} pipelines ran");
}

#[test]
fn queries_agree_within_bounds_end_to_end() {
    let w = world(9, BtcBounds::new(80.0, 25.0));
    let engine = QueryEngine::new(w.press.model());
    let (_, eval) = w.workload.split(0.4);
    for record in eval.iter().take(20) {
        let traj = record.truth_trajectory(30.0);
        let compressed = w.press.compress(&traj).expect("compress");
        let (t0, t1) = traj.temporal.time_range().unwrap();
        for k in 1..5 {
            let t = t0 + (t1 - t0) * k as f64 / 5.0;
            let raw = engine.whereat_raw(&traj, t).unwrap();
            let comp = engine.whereat(&compressed, t).unwrap();
            assert!(
                raw.dist(&comp) <= 80.0 + 1e-6,
                "whereat deviation {} beyond τ",
                raw.dist(&comp)
            );
        }
        // whenat at the path midpoint.
        let total = traj.path.weight(&w.net);
        let probe = traj.path.point_at(&w.net, total / 2.0).unwrap();
        let raw_t = engine.whenat_raw(&traj, probe, 0.5).unwrap();
        let comp_t = engine.whenat(&compressed, probe, 0.5).unwrap();
        assert!((raw_t - comp_t).abs() <= 25.0 + 1e-6);
    }
}

#[test]
fn baselines_run_on_the_same_corpus() {
    let w = world(13, BtcBounds::lossless());
    let (_, eval) = w.workload.split(0.4);
    for record in eval.iter().take(10) {
        let traj = record.truth_trajectory(30.0);
        // Nonmaterial keeps the exact street sequence.
        let nm = nonmaterial::compress(&w.sp, &traj, &nonmaterial::NonmaterialConfig::default());
        assert_eq!(nm.edges, traj.path.edges);
        assert!(nm.storage_bytes() > 0);
        // MMTC produces a valid (possibly different) path with endpoints
        // preserved.
        let mm = mmtc::compress(&w.sp, &traj, &mmtc::MmtcConfig::default());
        w.net.validate_path(&mm.edges).unwrap();
        assert_eq!(
            w.net.edge(mm.edges[0]).from,
            w.net.edge(traj.path.edges[0]).from
        );
        assert_eq!(
            w.net.edge(*mm.edges.last().unwrap()).to,
            w.net.edge(*traj.path.edges.last().unwrap()).to
        );
    }
}

#[test]
fn press_beats_baselines_on_storage_with_matched_budgets() {
    let tau = 150.0;
    let w = world(21, BtcBounds::new(tau, 45.0));
    let (_, eval) = w.workload.split(0.4);
    let mut press_bytes = 0usize;
    let mut nm_bytes = 0usize;
    let mut raw_bytes = 0usize;
    for record in eval {
        let traj = record.truth_trajectory(30.0);
        raw_bytes += press::core::stats::raw_gps_bytes(traj.temporal.len());
        press_bytes += w.press.compress(&traj).unwrap().storage_bytes();
        nm_bytes += nonmaterial::compress(
            &w.sp,
            &traj,
            &nonmaterial::NonmaterialConfig { tolerance: tau },
        )
        .storage_bytes();
    }
    let press_ratio = raw_bytes as f64 / press_bytes as f64;
    let nm_ratio = raw_bytes as f64 / nm_bytes as f64;
    assert!(
        press_ratio > nm_ratio,
        "PRESS ({press_ratio:.2}) must beat Nonmaterial ({nm_ratio:.2})"
    );
}

#[test]
fn compressed_store_survives_byte_serialization() {
    // The spatial bit stream round-trips through its byte serialization —
    // a compressed store can be persisted and reloaded without loss.
    let w = world(33, BtcBounds::new(40.0, 15.0));
    let (_, eval) = w.workload.split(0.4);
    for record in eval.iter().take(10) {
        let traj = record.truth_trajectory(30.0);
        let compressed = w.press.compress(&traj).unwrap();
        let bytes = compressed.spatial.bits.to_bytes();
        let reloaded =
            press::core::spatial::BitStream::from_bytes(&bytes, compressed.spatial.bits.len_bits());
        assert_eq!(reloaded, compressed.spatial.bits);
        let restored = w
            .press
            .decompress(&CompressedTrajectory {
                spatial: press::core::CompressedSpatial { bits: reloaded },
                temporal: compressed.temporal.clone(),
            })
            .unwrap();
        assert_eq!(restored.path, traj.path);
    }
}

#[test]
fn workload_statistics_match_paper_assumptions() {
    let w = world(41, BtcBounds::lossless());
    // ~10% stationary samples (the paper's observation).
    let f = w.workload.stationary_fraction();
    assert!((0.03..0.4).contains(&f), "stationary fraction {f}");
    // Trips are mostly shortest-path-like: SP compression achieves > 1.5x
    // on the spatial paths.
    let mut orig = 0usize;
    let mut comp = 0usize;
    for r in &w.workload.records {
        orig += r.path.len();
        comp += press::core::spatial::sp_compress(&w.workload.sp, &r.path).len();
    }
    let ratio = orig as f64 / comp as f64;
    assert!(ratio > 1.5, "SP ratio {ratio}");
    // Popular routes repeat (Zipf demand).
    use std::collections::HashMap;
    let mut counts: HashMap<&[EdgeId], usize> = HashMap::new();
    for r in &w.workload.records {
        *counts.entry(r.path.as_slice()).or_default() += 1;
    }
    assert!(counts.values().max().copied().unwrap_or(0) >= 2);
}

#[test]
fn theorem2_tsnd_dominates_tsed() {
    // Theorem 2: with HSC keeping the spatial path exact, the Euclidean
    // deviation at any time (TSED) never exceeds the network-distance
    // deviation (TSND), because Euclidean distance lower-bounds network
    // distance. The theorem's premise is that edge weights ARE physical
    // distances, so this world uses zero weight jitter (jittered weights
    // break the Euclid ≤ network-distance inequality by design).
    let net = Arc::new(grid_network(&GridConfig {
        nx: 10,
        ny: 10,
        spacing: 150.0,
        weight_jitter: 0.0,
        removal_prob: 0.02,
        seed: 55,
    }));
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 80,
            seed: 55,
            ..WorkloadConfig::default()
        },
    );
    let (train, _) = workload.split(0.4);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let press = Press::train(
        sp.clone(),
        &training_paths,
        PressConfig {
            bounds: BtcBounds::new(120.0, 40.0),
            ..PressConfig::default()
        },
    )
    .expect("training");
    let w = World {
        net,
        sp,
        press,
        workload,
    };
    let engine = QueryEngine::new(w.press.model());
    let (_, eval) = w.workload.split(0.4);
    let mut checked = 0;
    for record in eval.iter().take(15) {
        let traj = record.truth_trajectory(30.0);
        let compressed = w.press.compress(&traj).unwrap();
        let restored = w.press.decompress(&compressed).unwrap();
        let tsnd_val =
            press::core::temporal::tsnd(&traj.temporal.points, &restored.temporal.points);
        // TSED sampled at the union of both knot sets, positions via the
        // exact shared spatial path.
        let mut tsed_val = 0.0f64;
        for p in traj
            .temporal
            .points
            .iter()
            .chain(restored.temporal.points.iter())
        {
            let a = engine.whereat_raw(&traj, p.t).unwrap();
            let b = engine.whereat_raw(&restored, p.t).unwrap();
            tsed_val = tsed_val.max(a.dist(&b));
        }
        assert!(
            tsed_val <= tsnd_val + 1e-6,
            "Theorem 2 violated: TSED {tsed_val} > TSND {tsnd_val}"
        );
        checked += 1;
    }
    assert!(checked >= 10);
}

#[test]
fn every_backend_and_every_loaded_form_agrees_at_1024_nodes() {
    // Backend identity at a size the 6x6 and 10x10 fixtures cannot
    // reach: on one jittered 32x32 grid the dense table, fresh hub
    // labels, and the labels read back from their saved file (bytes
    // load and mapped open) must train the same model
    // bytes, compress to the same bits and decompress to the same paths,
    // and agree bit for bit on sampled distances and interior walks.
    let net = Arc::new(grid_network(&GridConfig {
        nx: 32,
        ny: 32,
        spacing: 160.0,
        weight_jitter: 0.15,
        removal_prob: 0.03,
        seed: 3,
    }));
    let dense = SpBackend::Dense.build(net.clone());
    let hl = HubLabels::build_with_threads(net.clone(), 2);
    let dir = std::env::temp_dir().join(format!("press-pipeline-1024-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let hl_path = dir.join("sp_hl.press");
    hl.save_to(&hl_path).expect("save hl");
    let from_bytes = HubLabels::from_store_bytes(net.clone(), hl.to_store_bytes());
    let others: Vec<(&str, Arc<dyn SpProvider>)> = vec![
        ("hl", Arc::new(hl)),
        ("bytes hl", Arc::new(from_bytes.expect("load hl"))),
        (
            "mapped hl",
            Arc::new(HubLabels::open_mapped(net.clone(), &hl_path).expect("map hl")),
        ),
    ];

    let workload = Workload::generate(
        net.clone(),
        dense.clone(),
        WorkloadConfig {
            num_trajectories: 45,
            seed: 3,
            min_trip_edges: 20,
            ..WorkloadConfig::default()
        },
    );
    let split = workload.records.len() / 3;
    assert!(split >= 5, "fixture produced too few trips");
    let training: Vec<_> = workload.records[..split]
        .iter()
        .map(|r| r.path.clone())
        .collect();
    let trajs: Vec<_> = workload.records[split..]
        .iter()
        .map(|r| r.truth_trajectory(30.0))
        .collect();
    let pipeline = |sp: &Arc<dyn SpProvider>| {
        let press = Press::train(sp.clone(), &training, PressConfig::default()).expect("train");
        let compressed = press.compress_batch(&trajs, 2).expect("compress");
        let paths: Vec<_> = compressed
            .iter()
            .map(|ct| press.decompress(ct).expect("decompress").path)
            .collect();
        (press.model().to_store_bytes(), compressed, paths)
    };
    let reference = pipeline(&dense);
    for (traj, path) in trajs.iter().zip(&reference.2) {
        assert_eq!(&traj.path, path, "HSC must be lossless");
    }

    let n = net.num_nodes() as u32;
    let m = net.num_edges() as u32;
    for (name, sp) in &others {
        assert!(
            pipeline(sp) == reference,
            "{name}: model bytes, compressed bits or decompressed paths differ from dense"
        );
        for k in 0..64u32 {
            let (u, v) = (NodeId(k * 7919 % n), NodeId(k * 104_729 % n));
            assert_eq!(
                sp.node_dist(u, v).to_bits(),
                dense.node_dist(u, v).to_bits(),
                "{name}: node_dist({u}, {v})"
            );
            let (a, b) = (EdgeId(k * 7919 % m), EdgeId(k * 104_729 % m));
            assert_eq!(
                sp.sp_interior(a, b),
                dense.sp_interior(a, b),
                "{name}: sp_interior({}, {})",
                a.0,
                b.0
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
