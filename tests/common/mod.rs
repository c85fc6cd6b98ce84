//! Helpers shared by the root integration tests: a jittered grid, a
//! path walked from choice bytes, and a scratch directory. Each test
//! binary uses part of this module.
#![allow(dead_code)]

use press::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A small jittered grid from proptest-drawn parameters.
pub fn net_from(nx: usize, ny: usize, jitter: f64, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(grid_network(&GridConfig {
        nx,
        ny,
        spacing: 120.0,
        weight_jitter: jitter,
        removal_prob: 0.05,
        seed,
    }))
}

/// Deterministically turns a byte sequence into a valid connected path:
/// each byte picks among the current node's outgoing edges, skipping
/// immediate backtracking when possible.
pub fn walk_from_choices(net: &RoadNetwork, start: u32, choices: &[u8]) -> Vec<EdgeId> {
    let mut node = NodeId(start % net.num_nodes() as u32);
    let mut path: Vec<EdgeId> = Vec::with_capacity(choices.len());
    for &c in choices {
        let out = net.out_edges(node);
        if out.is_empty() {
            break;
        }
        let candidates: Vec<EdgeId> = out
            .iter()
            .copied()
            .filter(|&e| {
                path.last()
                    .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
            })
            .collect();
        let pool = if candidates.is_empty() {
            out
        } else {
            &candidates[..]
        };
        let e = pool[c as usize % pool.len()];
        path.push(e);
        node = net.edge(e).to;
    }
    path
}

/// A fresh scratch directory for `tag`, unique to this test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}
