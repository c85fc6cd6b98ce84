//! Synthetic road-network generators.
//!
//! The paper evaluates on the Singapore road network, which we cannot ship.
//! These generators produce networks with the structural properties the
//! PRESS algorithms care about: bounded-degree planar-ish connectivity,
//! heterogeneous edge weights (so shortest paths are non-trivial), and
//! alternative routes between most origin–destination pairs (so detours and
//! shortest-path compression are both exercised).

use crate::geometry::Point;
use crate::graph::{RoadNetwork, RoadNetworkBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`grid_network`].
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Number of node columns.
    pub nx: usize,
    /// Number of node rows.
    pub ny: usize,
    /// Distance between neighboring nodes (meters).
    pub spacing: f64,
    /// Multiplicative weight jitter in `[0, 1)`: each street's weight is
    /// `spacing * (1 + U(-jitter, jitter))`. Non-zero jitter makes shortest
    /// paths unique and non-trivial.
    pub weight_jitter: f64,
    /// Probability of dropping a street (both directions) entirely,
    /// creating irregular blocks. Keep small to preserve connectivity.
    pub removal_prob: f64,
    /// RNG seed — generation is fully deterministic for a given config.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            nx: 10,
            ny: 10,
            spacing: 100.0,
            weight_jitter: 0.0,
            removal_prob: 0.0,
            seed: 42,
        }
    }
}

/// Generates a Manhattan-style grid network with two-way streets.
pub fn grid_network(cfg: &GridConfig) -> RoadNetwork {
    assert!(cfg.nx >= 2 && cfg.ny >= 2, "grid must be at least 2x2");
    assert!(
        (0.0..1.0).contains(&cfg.weight_jitter),
        "weight_jitter must be in [0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = RoadNetworkBuilder::with_capacity(cfg.nx * cfg.ny, 4 * cfg.nx * cfg.ny);
    let mut ids = Vec::with_capacity(cfg.nx * cfg.ny);
    for j in 0..cfg.ny {
        for i in 0..cfg.nx {
            ids.push(b.add_node(Point::new(i as f64 * cfg.spacing, j as f64 * cfg.spacing)));
        }
    }
    let at = |i: usize, j: usize| ids[j * cfg.nx + i];
    let street = |b: &mut RoadNetworkBuilder, rng: &mut StdRng, a, c| {
        if cfg.removal_prob > 0.0 && rng.gen::<f64>() < cfg.removal_prob {
            return;
        }
        let jitter = if cfg.weight_jitter > 0.0 {
            1.0 + rng.gen_range(-cfg.weight_jitter..cfg.weight_jitter)
        } else {
            1.0
        };
        let w = cfg.spacing * jitter;
        b.add_two_way(a, c, w).expect("valid grid nodes");
    };
    for j in 0..cfg.ny {
        for i in 0..cfg.nx {
            if i + 1 < cfg.nx {
                street(&mut b, &mut rng, at(i, j), at(i + 1, j));
            }
            if j + 1 < cfg.ny {
                street(&mut b, &mut rng, at(i, j), at(i, j + 1));
            }
        }
    }
    b.build()
}

/// Configuration for [`random_geometric_network`].
#[derive(Clone, Debug)]
pub struct RandomGeometricConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Side length of the square extent (meters).
    pub extent: f64,
    /// Connect nodes closer than this radius (meters).
    pub radius: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomGeometricConfig {
    fn default() -> Self {
        RandomGeometricConfig {
            nodes: 100,
            extent: 1000.0,
            radius: 180.0,
            seed: 42,
        }
    }
}

/// Generates a random geometric graph: nodes uniform in a square, two-way
/// edges between nodes within `radius`, weighted by geometric distance.
pub fn random_geometric_network(cfg: &RandomGeometricConfig) -> RoadNetwork {
    assert!(cfg.nodes >= 2, "need at least 2 nodes");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = RoadNetworkBuilder::with_capacity(cfg.nodes, cfg.nodes * 6);
    let mut pts = Vec::with_capacity(cfg.nodes);
    for _ in 0..cfg.nodes {
        let p = Point::new(
            rng.gen_range(0.0..cfg.extent),
            rng.gen_range(0.0..cfg.extent),
        );
        pts.push((b.add_node(p), p));
    }
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let d = pts[i].1.dist(&pts[j].1);
            if d <= cfg.radius && d > 0.0 {
                b.add_two_way(pts[i].0, pts[j].0, d).unwrap();
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::id::NodeId;

    #[test]
    fn grid_counts() {
        let net = grid_network(&GridConfig::default());
        assert_eq!(net.num_nodes(), 100);
        // 10x10 grid: 9*10 horizontal + 10*9 vertical streets, two directed
        // edges each.
        assert_eq!(net.num_edges(), 2 * (9 * 10 + 10 * 9));
    }

    #[test]
    fn grid_is_strongly_connected_without_removal() {
        let net = grid_network(&GridConfig::default());
        let tree = dijkstra(&net, NodeId(0));
        assert!(net.node_ids().all(|v| tree.reachable(v)));
    }

    #[test]
    fn grid_deterministic_for_seed() {
        let cfg = GridConfig {
            weight_jitter: 0.2,
            removal_prob: 0.05,
            ..GridConfig::default()
        };
        let a = grid_network(&cfg);
        let b = grid_network(&cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.edge(e).weight, b.edge(e).weight);
        }
    }

    #[test]
    fn grid_jitter_changes_weights() {
        let cfg = GridConfig {
            weight_jitter: 0.3,
            ..GridConfig::default()
        };
        let net = grid_network(&cfg);
        let distinct = net
            .edge_ids()
            .map(|e| net.edge(e).weight.to_bits())
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 10, "jitter should diversify weights");
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn grid_rejects_degenerate() {
        grid_network(&GridConfig {
            nx: 1,
            ..GridConfig::default()
        });
    }

    #[test]
    fn random_geometric_connects_close_nodes() {
        let net = random_geometric_network(&RandomGeometricConfig::default());
        assert_eq!(net.num_nodes(), 100);
        assert!(net.num_edges() > 100, "expected a dense-ish graph");
        // Every edge respects the radius.
        for e in net.edge_ids() {
            assert!(net.edge(e).weight <= 180.0 + 1e-9);
        }
    }
}
