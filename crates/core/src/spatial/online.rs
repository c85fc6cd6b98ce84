//! Online (streaming) shortest-path compression.
//!
//! The SP stage of HSC (Algorithm 1) is a single forward scan with an
//! anchor and a one-edge lookahead, so — as the paper observes in §7.1.2 —
//! it adapts directly to online operation: edges arrive one at a time from
//! the live map matcher, retained edges are emitted as soon as they are
//! decided, and the state is O(1) (anchor + previous edge) — the very
//! state machine ([`crate::spatial::sp`]'s `SpScan`) the batch form runs.
//!
//! Emitted output is **identical** to the batch
//! [`crate::spatial::sp_compress`] at every cut of the stream
//! (property-tested). FST coding needs the whole path and is applied when
//! the trip closes, by [`HscModel::compress`](crate::spatial::HscModel::compress).

use crate::spatial::sp::SpScan;
use press_network::{EdgeId, SpProvider};
use std::sync::Arc;

/// Streaming SP compressor for one in-progress trajectory: the shared
/// Algorithm 1 scan over a shortest-path provider.
#[derive(Clone)]
pub struct OnlineSpCompressor {
    sp: Arc<dyn SpProvider>,
    scan: SpScan,
}

impl OnlineSpCompressor {
    /// New streaming compressor over a shortest-path provider.
    pub fn new(sp: Arc<dyn SpProvider>) -> Self {
        OnlineSpCompressor {
            sp,
            scan: SpScan::default(),
        }
    }

    /// Pushes the next traversed edge; returns any edges that are now
    /// permanently part of the compressed output.
    pub fn push(&mut self, e: EdgeId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.push_into(e, &mut out);
        out
    }

    /// [`OnlineSpCompressor::push`] appending to a caller-owned buffer —
    /// no allocation per edge.
    #[inline]
    pub fn push_into(&mut self, e: EdgeId, out: &mut Vec<EdgeId>) {
        out.extend(self.scan.push(self.sp.as_ref(), e));
    }

    /// Closes the trajectory: the final edge is always retained.
    pub fn finish(self) -> Vec<EdgeId> {
        self.scan.finish().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::sp::{sp_compress, sp_decompress};
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Arc<RoadNetwork>, Arc<dyn SpProvider>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 7,
            ny: 7,
            weight_jitter: 0.2,
            seed: 5,
            ..GridConfig::default()
        }));
        let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        (net, sp)
    }

    fn stream(sp: &Arc<dyn SpProvider>, path: &[EdgeId]) -> Vec<EdgeId> {
        let mut enc = OnlineSpCompressor::new(sp.clone());
        let mut out = Vec::new();
        for &e in path {
            out.extend(enc.push(e));
        }
        out.extend(enc.finish());
        out
    }

    #[test]
    fn matches_batch_on_random_walks() {
        let (net, sp) = setup();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..60 {
            let mut path = Vec::new();
            let mut node = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            for _ in 0..rng.gen_range(0..30) {
                let outs = net.out_edges(node);
                let candidates: Vec<_> = outs
                    .iter()
                    .copied()
                    .filter(|&e| {
                        path.last()
                            .is_none_or(|&p: &EdgeId| net.edge(e).to != net.edge(p).from)
                    })
                    .collect();
                let pool = if candidates.is_empty() {
                    outs
                } else {
                    &candidates[..]
                };
                if pool.is_empty() {
                    break;
                }
                let e = pool[rng.gen_range(0..pool.len())];
                path.push(e);
                node = net.edge(e).to;
            }
            assert_eq!(
                stream(&sp, &path),
                sp_compress(&sp, &path),
                "online and batch must agree on {path:?}"
            );
        }
    }

    #[test]
    fn streamed_output_decompresses_to_the_original() {
        let (net, sp) = setup();
        let path = press_network::dijkstra(&net, NodeId(0))
            .edge_path_to(&net, NodeId(48))
            .unwrap();
        let compressed = stream(&sp, &path);
        assert_eq!(sp_decompress(&sp, &compressed).unwrap(), path);
        // A pure shortest path collapses to its two endpoint edges.
        assert_eq!(compressed.len(), 2.min(path.len()));
    }

    #[test]
    fn tiny_streams() {
        let (net, sp) = setup();
        let enc = OnlineSpCompressor::new(sp.clone());
        assert!(enc.finish().is_empty());
        let e0 = net.out_edges(NodeId(0))[0];
        let mut enc = OnlineSpCompressor::new(sp.clone());
        assert_eq!(enc.push(e0), vec![e0]);
        assert!(enc.finish().is_empty());
        // Two edges: both kept.
        let e1 = net.out_edges(net.edge(e0).to)[0];
        let mut enc = OnlineSpCompressor::new(sp);
        let mut out = enc.push(e0);
        out.extend(enc.push(e1));
        out.extend(enc.finish());
        assert_eq!(out, vec![e0, e1]);
    }

    #[test]
    fn state_is_constant_size() {
        assert!(std::mem::size_of::<OnlineSpCompressor>() <= 32);
    }
}
