//! Checkpoint ↔ synopsis-index integration tests.
//!
//! A checkpoint persists no index — every open rebuilds the hierarchy
//! from the block synopses — so what must hold is that the indexed range
//! path over a checkpointed and over a recovered corpus equals the
//! linear path and brute force.

mod common;

use common::{finish, test_dir, Fleet};
use press_core::query::QueryEngine;
use press_core::store::TrajectoryStore;
use press_core::{CompressedTrajectory, Press};
use press_network::Mbr;
use press_serve::{Ack, IngestConfig, IngestEngine, SessionPolicy};
use std::sync::OnceLock;

fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::new(33, 24, 8, 41.0))
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

/// Ingests the fixture stream and checkpoints; returns the engine.
fn checkpointed(dir: &std::path::Path) -> IngestEngine {
    let f = fleet();
    let mut engine = f.open(dir, config()).expect("open");
    for &(v, s) in &f.events {
        let _ack: Ack = engine.push(v, s).expect("push");
    }
    finish(&mut engine);
    engine
}

/// Indexed == linear == brute force over `expected`, for a spread of
/// windows and regions.
fn assert_range_paths_agree(
    path: &std::path::Path,
    press: &Press,
    expected: &[CompressedTrajectory],
) {
    let store = TrajectoryStore::open_mapped(path).expect("open store");
    let engine = QueryEngine::new(press.model());
    assert_eq!(store.decode_all().expect("decode_all"), expected);
    let mut probes = 0;
    for (t1, t2) in [(0.0, 2000.0), (100.0, 180.0), (300.0, 260.0), (5e5, 6e5)] {
        for region in [
            Mbr::new(0.0, 0.0, 1200.0, 1200.0),
            Mbr::new(200.0, 200.0, 520.0, 640.0),
            Mbr::new(900.0, 40.0, 1100.0, 300.0),
        ] {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let brute: Vec<usize> = expected
                .iter()
                .enumerate()
                .filter(|(_, ct)| {
                    let (a, z) = ct.temporal.time_range().expect("time range");
                    z >= lo && a <= hi && engine.range(ct, lo, hi, &region).expect("range")
                })
                .map(|(i, _)| i)
                .collect();
            probes += brute.len();
            assert_eq!(store.range(&engine, t1, t2, &region).expect("range"), brute);
            assert_eq!(
                store
                    .range_linear(&engine, t1, t2, &region)
                    .expect("linear"),
                brute
            );
        }
    }
    assert!(probes > 0, "every probe missed: the fixture checks nothing");
}

#[test]
fn indexed_equals_linear_equals_brute_force_after_checkpoint_and_recovery() {
    let f = fleet();
    let dir = test_dir("agree");
    let engine = checkpointed(&dir);
    let finished = engine.finished();
    assert!(!finished.is_empty(), "fixture produced an empty corpus");
    let corpus = engine.shard_corpus_path(0);
    assert_range_paths_agree(&corpus, &f.press(), &finished);
    drop(engine);

    let reopened = f.open(&dir, config()).expect("recovery");
    assert_eq!(reopened.finished(), finished);
    assert_eq!(reopened.recovery().corpus_trajectories, finished.len());
    assert_range_paths_agree(&reopened.shard_corpus_path(0), &f.press(), &finished);
}
