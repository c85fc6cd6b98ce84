//! Property tests for the zero-copy mapped serving tier: every answer a
//! mapped artifact gives — point distances, predecessor edges,
//! decompression walks, and whole query batches at any worker count —
//! must be **bit-identical** to the load of the same bytes from memory
//! (`from_store_bytes`, which for the hub labels also verifies every
//! stored distance), on tied (jitter 0, maximal shortest-path ambiguity)
//! and jittered grids alike. Plus a two-process smoke test: two processes
//! mapping the same artifact concurrently both answer correctly — the
//! page-cache sharing that motivates the tier in the first place.

mod common;

use common::{net_from, scratch, walk_from_choices};
use press::core::query::QueryEngine;
use press::core::spatial::HscModel;
use press::core::TrajectoryStore;
use press::network::{RoadNetwork, SpProvider, SpTable};
use press::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hub labels: the mapped open answers `node_dist` / `pred_edge` /
    /// `sp_interior` bit-identically to the bytes load of the same file.
    /// `tied` forces jitter 0 — every grid edge the same weight, so the
    /// network is saturated with equal-length shortest paths and any
    /// tie-break divergence between the two load paths would surface.
    #[test]
    fn mapped_sp_answers_are_bit_identical_to_the_bytes_load(
        nx in 3usize..6,
        ny in 3usize..6,
        tied in any::<bool>(),
        jitter in 0.05f64..0.3,
        seed in 0u64..400,
    ) {
        let jitter = if tied { 0.0 } else { jitter };
        let net = net_from(nx, ny, jitter, seed);
        let hl = HubLabels::build_with_threads(net.clone(), 2);
        let dir = scratch("sp");
        let hl_path = dir.join("sp_hl.press");
        hl.save_to(&hl_path).expect("save hl");

        let bytes = std::fs::read(&hl_path).expect("read hl");
        let loaded = HubLabels::from_store_bytes(net.clone(), bytes).expect("load hl");
        let mapped = HubLabels::open_mapped(net.clone(), &hl_path).expect("map hl");
        for u in net.node_ids() {
            for v in net.node_ids() {
                prop_assert_eq!(
                    loaded.node_dist(u, v).to_bits(),
                    mapped.node_dist(u, v).to_bits(),
                    "node_dist({}, {})", u, v
                );
                prop_assert_eq!(
                    loaded.pred_edge(u, v),
                    mapped.pred_edge(u, v),
                    "pred_edge({}, {})", u, v
                );
            }
        }
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(5) {
            for &ej in edges.iter().rev().step_by(9) {
                prop_assert_eq!(loaded.sp_end(ei, ej), mapped.sp_end(ei, ej));
                prop_assert_eq!(
                    loaded.sp_interior(ei, ej),
                    mapped.sp_interior(ei, ej),
                    "sp_interior({}, {})", ei.0, ej.0
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Query batches over a mapped corpus equal the same corpus loaded
    /// from bytes for every worker count — the worker split must never
    /// interact with which backing (file mapping or arena) the blocks
    /// decode from.
    #[test]
    fn mapped_query_batches_match_the_bytes_load_for_any_worker_count(
        seed in 0u64..300,
        tied in any::<bool>(),
        starts in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(0u8..8, 4..16)), 8..14),
    ) {
        let jitter = if tied { 0.0 } else { 0.15 };
        let net = net_from(5, 5, jitter, seed);
        let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        let training: Vec<Vec<EdgeId>> = starts
            .iter()
            .map(|(s, cs)| walk_from_choices(&net, *s, cs))
            .filter(|p| p.len() >= 3)
            .collect();
        prop_assume!(training.len() >= 3);
        let model = HscModel::train(sp, &training, 3).expect("train");
        let press = Press::with_model(Arc::new(model), PressConfig::default());
        let compressed: Vec<CompressedTrajectory> = training
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let traj = Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(vec![
                        DtPoint::new(0.0, k as f64 * 150.0),
                        DtPoint::new(total, k as f64 * 150.0 + 70.0),
                    ])
                    .expect("temporal"),
                );
                press.compress(&traj).expect("compress")
            })
            .collect();
        let engine = QueryEngine::new(press.model());
        let dir = scratch("batch");
        let path = dir.join("corpus.press");
        TrajectoryStore::create(&path, &engine, &compressed, 4).expect("create");
        let bytes = std::fs::read(&path).expect("read corpus");
        let loaded = TrajectoryStore::from_store_bytes(bytes).expect("load from bytes");
        let mapped = TrajectoryStore::open_mapped(&path).expect("open mapped");

        let bb = net.bounding_box();
        let mut batch = QueryBatch::new();
        batch.push(StoreQuery::Range {
            t1: 0.0,
            t2: 400.0,
            region: Mbr::new(bb.min_x, bb.min_y, bb.max_x, bb.max_y),
        });
        batch.push(StoreQuery::Range {
            t1: 300.0,
            t2: 1e9,
            region: Mbr::new(bb.min_x, bb.min_y, (bb.min_x + bb.max_x) / 2.0, bb.max_y),
        });
        for (k, p) in training.iter().enumerate() {
            batch.push(StoreQuery::WhereAt {
                idx: k,
                t: k as f64 * 150.0 + 35.0,
            });
            let mbr = net.edge_mbr(p[p.len() / 2]);
            batch.push(StoreQuery::WhenAt {
                idx: k,
                p: Point::new(mbr.min_x, mbr.min_y),
                tolerance: 5.0,
            });
        }
        let reference = batch.run(&loaded, &engine, 1).expect("reference run");
        for workers in [1usize, 2, 3, 7] {
            prop_assert_eq!(
                &batch.run(&loaded, &engine, workers).expect("bytes run"),
                &reference,
                "bytes-load answers drifted at {} workers", workers
            );
            prop_assert_eq!(
                &batch.run(&mapped, &engine, workers).expect("mapped run"),
                &reference,
                "mapped answers drifted at {} workers", workers
            );
        }
    }
}

/// The deterministic network both sides of the two-process smoke build.
fn smoke_net() -> Arc<RoadNetwork> {
    net_from(5, 5, 0.0, 77)
}

/// Two processes mapping the same artifact file concurrently: the parent
/// holds its mapping open while a re-exec'd child maps the same bytes,
/// checks them against an independently built reference, and exits. Both
/// sets of answers must be correct — the kernel serves one set of
/// physical pages to both mappings, which is exactly the fleet-restart
/// scenario the mapped tier exists for.
#[test]
fn two_process_shared_mapping_smoke() {
    const CHILD_ENV: &str = "PRESS_MAP_SMOKE_CHILD";
    let net = smoke_net();
    if let Ok(path) = std::env::var(CHILD_ENV) {
        // Child: map the file the parent is holding mapped right now.
        let mapped = HubLabels::open_mapped(net.clone(), std::path::Path::new(&path))
            .expect("child maps the shared artifact");
        let reference = HubLabels::build_with_threads(net.clone(), 1);
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    mapped.node_dist(u, v).to_bits(),
                    reference.node_dist(u, v).to_bits(),
                    "child mapping disagrees at ({u}, {v})"
                );
            }
        }
        return;
    }

    let hl = HubLabels::build_with_threads(net.clone(), 1);
    let dir = scratch("smoke");
    let path = dir.join("sp_hl.press");
    hl.save_to(&path).expect("save hl");
    let mapped = HubLabels::open_mapped(net.clone(), &path).expect("parent maps");
    let probe = (NodeId(3), NodeId(21));
    let before = mapped.node_dist(probe.0, probe.1).to_bits();
    assert_eq!(before, hl.node_dist(probe.0, probe.1).to_bits());

    let exe = std::env::current_exe().expect("current_exe");
    let status = std::process::Command::new(exe)
        .args(["--exact", "two_process_shared_mapping_smoke", "--nocapture"])
        .env(CHILD_ENV, &path)
        .status()
        .expect("spawn child test process");
    assert!(status.success(), "child process reported divergence");

    // The parent's mapping outlives the child's exit unchanged.
    assert_eq!(mapped.node_dist(probe.0, probe.1).to_bits(), before);
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
}
