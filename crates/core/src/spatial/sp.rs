//! Shortest-path (SP) compression — paper §3.1, Algorithm 1.
//!
//! Idea: if a sub-trajectory `⟨ei, …, ej⟩` is exactly the shortest path
//! `SP(ei, ej)`, it can be replaced by just `(ei, ej)`. The greedy scan
//! keeps an anchor edge `e_index` (the last edge emitted) and skips every
//! following edge while the run from the anchor remains a shortest path;
//! the check `SPend(e_index, e_{i+1}) == e_i` extends the run by one edge
//! at a time. Theorem 1 of the paper proves this greedy strategy emits the
//! minimum possible number of edges, relying on the prefix-consistency of
//! the `SpTable`'s single shortest-path trees.
//!
//! Both compression and decompression are `O(|T|)` — every edge is visited
//! a constant number of times.
//!
//! There is one copy of the scan (`sp_scan`), generic over who answers
//! `SPend` (`SpEnd`): a shortest-path provider, or a trained model that
//! reads the answers training already walked before asking its provider
//! (see [`crate::spatial::hsc`] § the `SPend` index). [`sp_compress`] and
//! [`HscModel::compress`](crate::spatial::HscModel::compress) both call
//! it. It is one forward pass with two edges of state (the anchor and the
//! latest edge), the paper's §7.1.2 reason PRESS could compress online.
//! The ingest engine compresses each piece whole, so nothing drives the
//! scan edge by edge.

use crate::error::{PressError, Result};
use press_network::{EdgeId, SpProvider};

/// The one question Algorithm 1 asks: `SPend(anchor, next)`, the edge
/// right before `next` on `SP(anchor, next)` — `anchor` itself when
/// `next` directly follows it, `None` when the two are equal or no path
/// joins them. Every shortest-path provider answers it
/// ([`SpProvider::sp_end`]); a trained [`HscModel`](crate::spatial::HscModel)
/// answers it from the facts training already walked and asks its
/// provider only about the rest.
pub(crate) trait SpEnd {
    /// `SPend(anchor, next)`.
    fn sp_end_edge(&self, anchor: EdgeId, next: EdgeId) -> Option<EdgeId>;
}

impl<P: SpProvider + ?Sized> SpEnd for P {
    #[inline]
    fn sp_end_edge(&self, anchor: EdgeId, next: EdgeId) -> Option<EdgeId> {
        self.sp_end(anchor, next)
    }
}

/// Algorithm 1 over any `SPend` oracle, as the ascending positions in
/// `path` of the edges it keeps — so a caller holding `path` also holds
/// every run the scan elided: `path[kept[k] + 1..kept[k + 1]]`.
///
/// `anchor` is the last kept edge and `prev` the undecided latest one;
/// invariant: `⟨anchor, …, prev⟩` equals `SP(anchor, prev)`. Adjacent
/// edges are trivially each other's shortest path, so it holds whenever
/// a new anchor is set; the `SPend` check extends it one edge at a time
/// (prefix consistency of the SP trees).
pub(crate) fn sp_scan<O: SpEnd + ?Sized>(oracle: &O, path: &[EdgeId]) -> Vec<usize> {
    let [mut anchor, mut prev, ..] = *path else {
        return (0..path.len()).collect();
    };
    let mut kept = Vec::with_capacity(path.len() / 2 + 2);
    kept.push(0);
    for (at, &e) in path.iter().enumerate().skip(2) {
        if oracle.sp_end_edge(anchor, e) != Some(prev) {
            // `prev` (at `at - 1`) ends the run: keep it, and anchor on it.
            kept.push(at - 1);
            anchor = prev;
        }
        prev = e;
    }
    // The final edge is always retained.
    kept.push(path.len() - 1);
    kept
}

/// Compresses a spatial path by shortest-path skipping (Algorithm 1).
///
/// The output always starts with the first and ends with the last edge of
/// the input; inputs with fewer than three edges are returned unchanged.
pub fn sp_compress(sp: &dyn SpProvider, path: &[EdgeId]) -> Vec<EdgeId> {
    sp_scan(sp, path).into_iter().map(|at| path[at]).collect()
}

/// Decompresses an SP-compressed path by re-expanding every non-adjacent
/// pair with its shortest path (§3.1).
pub fn sp_decompress(sp: &dyn SpProvider, compressed: &[EdgeId]) -> Result<Vec<EdgeId>> {
    let net = sp.network();
    let mut out = Vec::with_capacity(compressed.len() * 2);
    let Some((&first, rest)) = compressed.split_first() else {
        return Ok(out);
    };
    out.push(first);
    let mut prev = first;
    for &e in rest {
        if net.consecutive(prev, e) {
            out.push(e);
        } else {
            let mut interior = sp
                .sp_interior(prev, e)
                .ok_or(PressError::NoShortestPath(prev, e))?;
            out.append(&mut interior);
            out.push(e);
        }
        prev = e;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::{
        grid_network, GridConfig, Point, RoadNetwork, RoadNetworkBuilder, SpTable,
    };
    use std::sync::Arc;

    /// Builds the paper's Fig. 4 running example: trajectory
    /// `⟨e15, e12, e9, e6, e3⟩` compresses to `⟨e15, e3⟩` because the whole
    /// run is a shortest path. We reproduce it with a chain plus costly
    /// detours, keeping the paper's edge naming as comments.
    fn fig4_like() -> (Arc<RoadNetwork>, Vec<EdgeId>) {
        let mut b = RoadNetworkBuilder::new();
        let v = (0..6)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect::<Vec<_>>();
        let top = (0..3)
            .map(|i| b.add_node(Point::new(150.0 + i as f64 * 100.0, 120.0)))
            .collect::<Vec<_>>();
        // Chain e0..e4 (plays <e15, e12, e9, e6, e3>).
        let chain: Vec<EdgeId> = (0..5)
            .map(|i| b.add_edge(v[i], v[i + 1], 100.0).unwrap())
            .collect();
        // Costly detours that keep alternatives available.
        b.add_edge(v[1], top[0], 150.0).unwrap();
        b.add_edge(top[0], top[1], 150.0).unwrap();
        b.add_edge(top[1], top[2], 150.0).unwrap();
        b.add_edge(top[2], v[4], 150.0).unwrap();
        (Arc::new(b.build()), chain)
    }

    #[test]
    fn compresses_pure_shortest_path_to_two_edges() {
        let (net, chain) = fig4_like();
        let sp = SpTable::build(net);
        let out = sp_compress(&sp, &chain);
        assert_eq!(out, vec![chain[0], chain[4]]);
    }

    #[test]
    fn decompression_restores_original() {
        let (net, chain) = fig4_like();
        let sp = SpTable::build(net);
        let out = sp_compress(&sp, &chain);
        assert_eq!(sp_decompress(&sp, &out).unwrap(), chain);
    }

    #[test]
    fn detour_edges_are_kept() {
        let (net, _) = fig4_like();
        let sp = SpTable::build(net.clone());
        // Take the expensive top detour: e0, e5(top-in), e6, e7, e8(top-out), e4.
        let path = vec![
            EdgeId(0),
            EdgeId(5),
            EdgeId(6),
            EdgeId(7),
            EdgeId(8),
            EdgeId(4),
        ];
        net.validate_path(&path).unwrap();
        let out = sp_compress(&sp, &path);
        // The detour is NOT the shortest path, so intermediate edges must
        // remain to disambiguate the route.
        assert!(out.len() > 2, "detour must not collapse, got {out:?}");
        assert_eq!(sp_decompress(&sp, &out).unwrap(), path);
    }

    #[test]
    fn short_paths_pass_through() {
        let (net, chain) = fig4_like();
        let sp = SpTable::build(net);
        assert_eq!(sp_compress(&sp, &[]), Vec::<EdgeId>::new());
        assert_eq!(sp_compress(&sp, &chain[..1]), &chain[..1]);
        assert_eq!(sp_compress(&sp, &chain[..2]), &chain[..2]);
        assert_eq!(sp_decompress(&sp, &[]).unwrap(), Vec::<EdgeId>::new());
    }

    #[test]
    fn roundtrip_on_grid_walks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.2,
            seed: 7,
            ..GridConfig::default()
        }));
        let sp = SpTable::build(net.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            // Random walk of 20 edges without immediate backtracking.
            let mut path = Vec::new();
            let mut node = press_network::NodeId(rng.gen_range(0..net.num_nodes() as u32));
            for _ in 0..20 {
                let outs = net.out_edges(node);
                let candidates: Vec<_> = outs
                    .iter()
                    .copied()
                    .filter(|&e| {
                        path.last()
                            .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
                    })
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let e = candidates[rng.gen_range(0..candidates.len())];
                path.push(e);
                node = net.edge(e).to;
            }
            if path.len() < 3 {
                continue;
            }
            let compressed = sp_compress(&sp, &path);
            assert!(compressed.len() <= path.len());
            assert_eq!(
                sp_decompress(&sp, &compressed).unwrap(),
                path,
                "roundtrip failed"
            );
        }
    }

    #[test]
    fn decompress_errors_on_disconnected_pair() {
        // Two disconnected components.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(10.0, 0.0));
        let v3 = b.add_node(Point::new(11.0, 0.0));
        let e0 = b.add_edge(v0, v1, 1.0).unwrap();
        let e1 = b.add_edge(v2, v3, 1.0).unwrap();
        let sp = SpTable::build(Arc::new(b.build()));
        assert_eq!(
            sp_decompress(&sp, &[e0, e1]),
            Err(PressError::NoShortestPath(e0, e1))
        );
    }
}
