//! Shared fixture of the overlapped group-commit tests: a small trained
//! compressor and matcher, and a synthetic fleet stream every fix of
//! which vets clean. The tests journal, sync and recover but never
//! flush, so the fixes need not lie on the map.

use press_core::{Press, PressConfig};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{dijkstra, grid_network, GridConfig, NodeId, Point, SpBackend};
use press_serve::{DurabilityPolicy, Event, IngestConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

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

pub fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-overlap-{tag}-{}", std::process::id()));
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
