//! MMTC baseline — Kellaris, Pelekis & Theodoridis, "Map-matched
//! trajectory compression" (JSS 2013), as used in the paper's evaluation
//! (§6, §7.2).
//!
//! MMTC "uses sub-trajectories through fewer intersections to replace
//! parts of the original trajectory", guarded by a similarity function.
//! The compressed trajectory is itself a path through the network — just a
//! *different*, coarser one — so MMTC is lossy in both space and time and,
//! as the paper notes, **does not support decompression** (the original
//! path cannot be recovered).
//!
//! Implementation: an opening window over the path's vertices. For each
//! window, the candidate replacement is the minimum-*hop* path (BFS)
//! between the window's end vertices; it is accepted while (a) it has
//! strictly fewer intersections than the window and (b) its network length
//! differs from the original sub-path's by at most `epsilon_rel`. Each
//! attempt runs a fresh BFS — faithful to MMTC's much higher compression
//! cost (the paper measures MMTC at ~196× the time of PRESS).

use press_core::temporal::tim_at;
use press_core::{DtPoint, SpatialPath, TemporalSequence, Trajectory};
use press_network::{EdgeId, NodeId, RoadNetwork, SpProvider};
use std::collections::VecDeque;

/// MMTC configuration.
#[derive(Clone, Copy, Debug)]
pub struct MmtcConfig {
    /// Relative network-length deviation allowed for a replacement
    /// sub-path (the similarity guard).
    pub epsilon_rel: f64,
    /// Maximum window size in vertices.
    pub max_window: usize,
}

impl Default for MmtcConfig {
    fn default() -> Self {
        MmtcConfig {
            epsilon_rel: 0.15,
            max_window: 24,
        }
    }
}

/// An MMTC-compressed trajectory: a coarser path plus per-vertex
/// timestamps (4 bytes per edge + 4 bytes per timestamp).
#[derive(Clone, Debug, PartialEq)]
pub struct MmtcTrajectory {
    pub edges: Vec<EdgeId>,
    /// Timestamp at each vertex of the replaced path (edges.len() + 1).
    pub times: Vec<f64>,
}

impl MmtcTrajectory {
    /// Storage bytes under the byte model of `press_core::stats` (4 B per
    /// edge id, 4 B per timestamp).
    pub fn storage_bytes(&self) -> usize {
        self.edges.len() * 4 + self.times.len() * 4
    }

    /// Builds a queryable PRESS-style trajectory from the (lossy)
    /// representation.
    pub fn reconstruct(&self, net: &RoadNetwork) -> Trajectory {
        let mut pts = Vec::with_capacity(self.times.len());
        let mut d = 0.0f64;
        let mut last_t = f64::NEG_INFINITY;
        for (i, &t) in self.times.iter().enumerate() {
            if i > 0 {
                d += net.weight(self.edges[i - 1]);
            }
            // Guard strict monotonicity (interpolated times can collide).
            let t = if t <= last_t { last_t + 1e-6 } else { t };
            last_t = t;
            pts.push(DtPoint::new(d, t));
        }
        Trajectory::new(
            SpatialPath::new_unchecked(self.edges.clone()),
            TemporalSequence::new_unchecked(pts),
        )
    }
}

/// Minimum-hop path between nodes via BFS; returns edges, or `None` when
/// unreachable within `max_hops`.
fn min_hop_path(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    max_hops: usize,
) -> Option<Vec<EdgeId>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut pred: Vec<Option<EdgeId>> = vec![None; net.num_nodes()];
    let mut seen = vec![false; net.num_nodes()];
    let mut queue = VecDeque::new();
    seen[from.index()] = true;
    queue.push_back((from, 0usize));
    while let Some((u, hops)) = queue.pop_front() {
        if hops >= max_hops {
            continue;
        }
        for &e in net.out_edges(u) {
            let v = net.edge(e).to;
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            pred[v.index()] = Some(e);
            if v == to {
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    let pe = pred[cur.index()].unwrap();
                    path.push(pe);
                    cur = net.edge(pe).from;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back((v, hops + 1));
        }
    }
    None
}

/// Symmetric Hausdorff distance between the vertex embeddings of two edge
/// paths — MMTC's spatial similarity guard. Quadratic in the window size,
/// which is part of why MMTC's compression is expensive.
fn vertex_hausdorff(net: &RoadNetwork, a: &[EdgeId], b: &[EdgeId]) -> f64 {
    let pts = |edges: &[EdgeId]| -> Vec<press_network::Point> {
        let mut v = Vec::with_capacity(edges.len() + 1);
        if let Some(&first) = edges.first() {
            v.push(net.edge_start(first));
        }
        for &e in edges {
            v.push(net.edge_end(e));
        }
        v
    };
    let pa = pts(a);
    let pb = pts(b);
    if pa.is_empty() || pb.is_empty() {
        return 0.0;
    }
    let one_way = |x: &[press_network::Point], y: &[press_network::Point]| -> f64 {
        x.iter()
            .map(|p| y.iter().map(|q| p.dist(q)).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    };
    one_way(&pa, &pb).max(one_way(&pb, &pa))
}

/// Compresses a trajectory with MMTC. Lossy; no decompression exists.
///
/// MMTC consumes an [`SpProvider`] like every other compressor so it can
/// run on any backend (it only walks the graph — the BFS replacement
/// search is hop-based — but sharing the provider keeps the baselines on
/// the same environment the PRESS pipeline uses).
pub fn compress(sp: &dyn SpProvider, traj: &Trajectory, cfg: &MmtcConfig) -> MmtcTrajectory {
    let net: &RoadNetwork = sp.network();
    let path = &traj.path.edges;
    let temporal = &traj.temporal.points;
    if path.is_empty() {
        return MmtcTrajectory {
            edges: Vec::new(),
            times: Vec::new(),
        };
    }
    // Vertex sequence and cumulative distances of the original path.
    let mut vertices = Vec::with_capacity(path.len() + 1);
    vertices.push(net.edge(path[0]).from);
    for &e in path {
        vertices.push(net.edge(e).to);
    }
    let mut cum = Vec::with_capacity(path.len() + 1);
    cum.push(0.0f64);
    for &e in path {
        cum.push(cum.last().unwrap() + net.weight(e));
    }
    let mut new_edges: Vec<EdgeId> = Vec::with_capacity(path.len());
    let mut new_times: Vec<f64> = Vec::with_capacity(path.len() + 1);
    new_times.push(tim_at(temporal, cum[0]));
    let mut i = 0usize; // window start (vertex index)
    let n = vertices.len();
    while i + 1 < n {
        // Probe every window size up to the cap and keep the widest
        // acceptable replacement. A longer window can admit a replacement
        // even when a shorter one does not (min-hop paths are not
        // prefix-monotone), so MMTC evaluates them all — a BFS plus a
        // quadratic similarity check per probe, which is exactly why its
        // compression time dwarfs PRESS's in the paper's Fig. 13.
        let mut best: Option<(usize, Vec<EdgeId>)> = None;
        for j in (i + 2)..n.min(i + cfg.max_window + 1) {
            let orig_hops = j - i;
            let orig_len = cum[j] - cum[i];
            if let Some(cand) = min_hop_path(net, vertices[i], vertices[j], orig_hops - 1) {
                let cand_len: f64 = cand.iter().map(|&e| net.weight(e)).sum();
                if cand.len() < orig_hops
                    && (cand_len - orig_len).abs() <= cfg.epsilon_rel * orig_len.max(1.0)
                    && vertex_hausdorff(net, &path[i..j], &cand)
                        <= cfg.epsilon_rel * orig_len.max(1.0)
                {
                    best = Some((j, cand));
                }
            }
        }
        match best {
            Some((j, cand)) => {
                // Timestamps along the replacement: proportional to the
                // replacement's own lengths between the window's original
                // passage times (MMTC's uniform redistribution).
                let t0 = tim_at(temporal, cum[i]);
                let t1 = tim_at(temporal, cum[j]);
                let cand_total: f64 = cand.iter().map(|&e| net.weight(e)).sum();
                let mut acc = 0.0f64;
                for &e in &cand {
                    acc += net.weight(e);
                    let frac = if cand_total <= f64::EPSILON {
                        1.0
                    } else {
                        acc / cand_total
                    };
                    new_times.push(t0 + (t1 - t0) * frac);
                    new_edges.push(e);
                }
                i = j;
            }
            None => {
                new_edges.push(path[i]);
                new_times.push(tim_at(temporal, cum[i + 1]));
                i += 1;
            }
        }
    }
    MmtcTrajectory {
        edges: new_edges,
        times: new_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::{grid_network, GridConfig, SpTable};
    use std::sync::Arc;

    /// A deliberately wiggly path (staircase) that a fewer-intersection
    /// replacement can straighten.
    fn fixture() -> (Arc<dyn SpProvider>, Trajectory) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.05,
            seed: 19,
            ..GridConfig::default()
        }));
        // Walk a staircase: right, up, right, up ... from node 0.
        let mut node = NodeId(0);
        let mut path = Vec::new();
        let mut want_right = true;
        for _ in 0..12 {
            let next = net.out_edges(node).iter().copied().find(|&e| {
                let a = net.edge_start(e);
                let b = net.edge_end(e);
                if want_right {
                    b.x > a.x && (b.y - a.y).abs() < 1e-9
                } else {
                    b.y > a.y && (b.x - a.x).abs() < 1e-9
                }
            });
            if let Some(e) = next {
                path.push(e);
                node = net.edge(e).to;
                want_right = !want_right;
            }
        }
        let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
        let mut pts = Vec::new();
        let mut d = 0.0;
        let mut t = 0.0;
        while d < total {
            pts.push(DtPoint::new(d, t));
            d = (d + 40.0).min(total);
            t += 5.0;
        }
        pts.push(DtPoint::new(total, t));
        (
            Arc::new(SpTable::build(net.clone())),
            Trajectory::new(
                SpatialPath::new_unchecked(path),
                TemporalSequence::new(pts).unwrap(),
            ),
        )
    }

    #[test]
    fn output_is_a_valid_connected_path() {
        let (sp, traj) = fixture();
        let net = sp.network().clone();
        let c = compress(&sp, &traj, &MmtcConfig::default());
        net.validate_path(&c.edges).unwrap();
        assert_eq!(c.times.len(), c.edges.len() + 1);
        // Same endpoints as the original.
        assert_eq!(net.edge(c.edges[0]).from, net.edge(traj.path.edges[0]).from);
        assert_eq!(
            net.edge(*c.edges.last().unwrap()).to,
            net.edge(*traj.path.edges.last().unwrap()).to
        );
    }

    #[test]
    fn times_are_non_decreasing() {
        let (sp, traj) = fixture();
        let c = compress(&sp, &traj, &MmtcConfig::default());
        for w in c.times.windows(2) {
            assert!(w[1] >= w[0], "times must not decrease: {w:?}");
        }
    }

    #[test]
    fn generous_epsilon_reduces_storage() {
        let (sp, traj) = fixture();
        let strict = compress(
            &sp,
            &traj,
            &MmtcConfig {
                epsilon_rel: 0.0,
                ..MmtcConfig::default()
            },
        );
        let loose = compress(
            &sp,
            &traj,
            &MmtcConfig {
                epsilon_rel: 0.6,
                ..MmtcConfig::default()
            },
        );
        assert!(loose.edges.len() <= strict.edges.len());
        assert!(loose.storage_bytes() <= strict.storage_bytes());
        // The staircase has a same-length smoother alternative (grid metric):
        // MMTC should find *some* replacement at a generous tolerance.
        assert!(
            loose.edges.len() <= traj.path.len(),
            "never longer than the original"
        );
    }

    #[test]
    fn replacement_is_lossy_but_length_bounded() {
        let (sp, traj) = fixture();
        let net = sp.network().clone();
        let eps = 0.4;
        let c = compress(
            &sp,
            &traj,
            &MmtcConfig {
                epsilon_rel: eps,
                ..MmtcConfig::default()
            },
        );
        let orig: f64 = traj.path.edges.iter().map(|&e| net.weight(e)).sum();
        let got: f64 = c.edges.iter().map(|&e| net.weight(e)).sum();
        // Windowed replacements each respect the bound, so the total drifts
        // at most eps relatively.
        assert!(
            (got - orig).abs() <= eps * orig + 1e-6,
            "length drift too large: {orig} -> {got}"
        );
    }

    #[test]
    fn reconstruct_produces_queryable_trajectory() {
        let (sp, traj) = fixture();
        let c = compress(&sp, &traj, &MmtcConfig::default());
        let r = c.reconstruct(sp.network());
        assert_eq!(r.temporal.len(), c.times.len());
        TemporalSequence::new(r.temporal.points.clone()).unwrap();
    }

    #[test]
    fn empty_path() {
        let (sp, _) = fixture();
        let empty = Trajectory::default();
        let c = compress(&sp, &empty, &MmtcConfig::default());
        assert!(c.edges.is_empty());
    }
}
