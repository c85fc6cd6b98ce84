//! Shared fixtures of the engine tests. [`Fleet`] is a trained
//! compressor, a matcher and a workload's GPS traces merged into one
//! arrival stream (the recovery, disk-fault and checkpoint tests).
//! [`fixture`] and [`stream`] are a smaller compressor and a synthetic
//! stream every fix of which vets clean, for the overlapped group-commit
//! tests, which journal, sync and recover but never flush, so the fixes
//! need not lie on the map. Each test binary uses part of this module.
#![allow(dead_code)]

use press_core::{BtcBounds, Press, PressConfig};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{dijkstra, grid_network, GridConfig, NodeId, Point, RoadNetwork, SpBackend};
use press_serve::{DurabilityPolicy, Event, IngestConfig, IngestEngine, ServeError};
use press_store::IoBackend;
use press_workload::{Workload, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A network, a compressor trained on half of a seeded workload, a
/// matcher, and the other half's GPS traces as one arrival stream.
pub struct Fleet {
    pub net: Arc<RoadNetwork>,
    pub matcher: Arc<MapMatcher>,
    pub press: Press,
    pub events: Vec<Event>,
}

impl Fleet {
    /// An 8×8 grid and a `trajectories`-trip workload, both from `seed`;
    /// the first `vehicles` held-out trips become vehicles `0..vehicles`,
    /// vehicle `v` starting `v × stagger` seconds late, merged into one
    /// stream ordered by timestamp.
    pub fn new(seed: u64, trajectories: usize, vehicles: usize, stagger: f64) -> Fleet {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            spacing: 150.0,
            weight_jitter: 0.12,
            removal_prob: 0.0,
            seed,
        }));
        let sp = SpBackend::Dense.build(net.clone());
        let workload = Workload::generate(
            net.clone(),
            sp.clone(),
            WorkloadConfig {
                num_trajectories: trajectories,
                seed,
                ..WorkloadConfig::default()
            },
        );
        let (train, eval) = workload.split(0.5);
        let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
        let press = Press::train(
            sp,
            &training_paths,
            PressConfig {
                bounds: BtcBounds::new(45.0, 15.0),
                ..PressConfig::default()
            },
        )
        .expect("training");
        let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
        let mut events: Vec<Event> = Vec::new();
        for (v, record) in eval.iter().take(vehicles).enumerate() {
            let trace = record.gps_trace(&net, 8.0, 4.0);
            for p in &trace.points {
                events.push((
                    v as u64,
                    GpsSample {
                        point: p.point,
                        t: p.t + v as f64 * stagger,
                    },
                ));
            }
        }
        events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
        assert!(events.len() > 100, "fixture stream too small");
        Fleet {
            net,
            matcher,
            press,
            events,
        }
    }

    /// A compressor sharing the trained model, one per engine.
    pub fn press(&self) -> Press {
        self.press.reconfigured(self.press.config())
    }

    /// Opens (or recovers) an engine at `dir` on the fleet's matcher and
    /// model, its writes through `io`.
    pub fn open_with_io(
        &self,
        dir: &Path,
        cfg: IngestConfig,
        io: Arc<dyn IoBackend>,
    ) -> Result<IngestEngine, ServeError> {
        IngestEngine::open_with_io(dir, Arc::clone(&self.matcher), self.press(), cfg, io)
    }

    /// [`Fleet::open_with_io`] on the real filesystem.
    pub fn open(&self, dir: &Path, cfg: IngestConfig) -> Result<IngestEngine, ServeError> {
        IngestEngine::open(dir, Arc::clone(&self.matcher), self.press(), cfg)
    }
}

/// Finishes an engine (finalize + flush + checkpoint) and returns shard
/// 0's published corpus bytes.
pub fn finish(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    std::fs::read(engine.shard_corpus_path(0)).expect("corpus bytes")
}

/// Finishes an engine and returns the *merged* corpus bytes — every
/// shard's slice in canonical key order, the shard-count-invariant
/// artifact the determinism contract is stated over.
pub fn finish_merged(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    engine.merged_corpus_bytes().expect("merged corpus")
}

pub struct Fixture {
    pub matcher: Arc<MapMatcher>,
    press: Press,
}

impl Fixture {
    /// A compressor sharing the trained model, one per engine.
    pub fn press(&self) -> Press {
        self.press.reconfigured(self.press.config())
    }
}

pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            seed: 7,
            ..GridConfig::default()
        }));
        let paths: Vec<_> = (0..net.num_nodes() as u32)
            .filter_map(|a| dijkstra(&net, NodeId(a)).edge_path_to(&net, NodeId(24 - a)))
            .filter(|p| !p.is_empty())
            .collect();
        let sp = SpBackend::Dense.build(net.clone());
        let press = Press::train(sp, &paths, PressConfig::default()).expect("training");
        let matcher = Arc::new(MapMatcher::new(net, MatcherConfig::default()));
        Fixture { matcher, press }
    })
}

/// `fixes` fixes per vehicle, interleaved by time: vehicle `v` drives
/// along its own row at 10 m/s, one fix a second.
pub fn stream(vehicles: u64, fixes: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(vehicles as usize * fixes);
    for i in 0..fixes {
        for v in 0..vehicles {
            let t = i as f64 + v as f64 * 0.01;
            let point = Point {
                x: 10.0 * i as f64,
                y: 100.0 * v as f64,
            };
            events.push((v, GpsSample { point, t }));
        }
    }
    events
}

/// A fresh (removed, not created) scratch directory for `tag`.
pub fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An engine config with no idle cuts or rollovers, `shards` shards and
/// `durability`.
pub fn config(shards: usize, durability: DurabilityPolicy) -> IngestConfig {
    IngestConfig {
        idle_timeout: 0.0,
        max_session_points: 0,
        threads: 1,
        durability,
        shards,
        ..IngestConfig::default()
    }
}
