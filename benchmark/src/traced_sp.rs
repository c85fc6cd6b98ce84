//! A counting, timing [`SpProvider`] decorator: the benchmark's view of
//! the shortest-path layer.
//!
//! All twelve trait methods forward to the same method of the wrapped
//! provider, so a backend's own override of a derived method is never
//! replaced by the trait default, and a call the backend makes to itself
//! is not counted — the counters see exactly the calls the layers above
//! make.

use crate::trace::Recorder;
use press_network::{EdgeId, Mbr, NodeId, RoadNetwork, ShortestPathTree, SpProvider};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a call asks the provider for. The twelve methods fall into
/// three kinds of work; `network` and `approx_bytes` do none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// A distance: `node_dist`, `gap_dist`, `sp_weight`, `reachable`.
    NodeDist = 0,
    /// One predecessor edge: `pred_edge`, `sp_end`.
    PredEdge = 1,
    /// A walk along a whole shortest path: `sp_interior`, `sp_path`,
    /// `sp_mbr`, `source_tree`.
    SpInterior = 2,
}

/// Calls and busy time per [`Family`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpCounts {
    pub calls: [u64; 3],
    pub busy_ns: [u64; 3],
}

impl SpCounts {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &SpCounts) -> SpCounts {
        let mut d = SpCounts::default();
        for i in 0..3 {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.busy_ns[i] = self.busy_ns[i] - earlier.busy_ns[i];
        }
        d
    }

    pub fn calls_of(&self, f: Family) -> u64 {
        self.calls[f as usize]
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// The decorator. Counters are statistics only, hence `Relaxed`.
pub struct TracedSp {
    inner: Arc<dyn SpProvider>,
    calls: [AtomicU64; 3],
    busy_ns: [AtomicU64; 3],
}

impl TracedSp {
    pub fn new(inner: Arc<dyn SpProvider>) -> Self {
        TracedSp {
            inner,
            calls: Default::default(),
            busy_ns: Default::default(),
        }
    }

    pub fn counts(&self) -> SpCounts {
        let mut c = SpCounts::default();
        for i in 0..3 {
            c.calls[i] = self.calls[i].load(Ordering::Relaxed);
            c.busy_ns[i] = self.busy_ns[i].load(Ordering::Relaxed);
        }
        c
    }

    #[inline]
    fn timed<R>(&self, family: Family, f: impl FnOnce(&dyn SpProvider) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&*self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls[family as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[family as usize].fetch_add(ns, Ordering::Relaxed);
        r
    }
}

impl SpProvider for TracedSp {
    fn network(&self) -> &Arc<RoadNetwork> {
        self.inner.network()
    }
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.timed(Family::NodeDist, |sp| sp.node_dist(u, v))
    }
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.timed(Family::PredEdge, |sp| sp.pred_edge(u, v))
    }
    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.timed(Family::NodeDist, |sp| sp.gap_dist(ei, ej))
    }
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.timed(Family::NodeDist, |sp| sp.sp_weight(ei, ej))
    }
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        self.timed(Family::PredEdge, |sp| sp.sp_end(ei, ej))
    }
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        self.timed(Family::NodeDist, |sp| sp.reachable(ei, ej))
    }
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.timed(Family::SpInterior, |sp| sp.sp_interior(ei, ej))
    }
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.timed(Family::SpInterior, |sp| sp.sp_path(ei, ej))
    }
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        self.timed(Family::SpInterior, |sp| sp.sp_mbr(ei, ej))
    }
    fn source_tree(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        self.timed(Family::SpInterior, |sp| sp.source_tree(source))
    }
}

/// Enters the shortest-path calls made since `before` under the
/// innermost open span.
pub fn aggregate_sp(rec: &mut Recorder, sp: Option<&TracedSp>, before: Option<SpCounts>) {
    if let (Some(sp), Some(before)) = (sp, before) {
        let d = sp.counts().since(&before);
        rec.aggregate("network.sp", d.total_calls(), d.total_busy_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_core::{Press, PressConfig};
    use press_network::{grid_network, GridConfig, SpTable};
    use press_workload::{Workload, WorkloadConfig};

    #[test]
    fn compression_through_the_decorator_is_byte_identical_to_the_bare_provider() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            spacing: 150.0,
            weight_jitter: 0.15,
            removal_prob: 0.02,
            seed: 11,
        }));
        let bare: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        let traced = Arc::new(TracedSp::new(bare.clone()));
        let workload = Workload::generate(
            net,
            bare.clone(),
            WorkloadConfig {
                num_trajectories: 60,
                seed: 11,
                ..WorkloadConfig::default()
            },
        );
        let (train, eval) = workload.split(0.5);
        let paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
        let press_bare = Press::train(bare, &paths, PressConfig::default()).unwrap();
        let press_traced = Press::train(traced.clone(), &paths, PressConfig::default()).unwrap();
        assert_eq!(
            press_bare.model().to_store_bytes(),
            press_traced.model().to_store_bytes()
        );
        let before = traced.counts();
        for r in eval {
            let t = r.truth_trajectory(5.0);
            let a = press_bare.compress(&t).unwrap();
            let b = press_traced.compress(&t).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.spatial.bits.to_bytes(), b.spatial.bits.to_bytes());
            assert_eq!(
                press_bare.decompress(&a).unwrap(),
                press_traced.decompress(&b).unwrap()
            );
        }
        let seen = traced.counts().since(&before);
        assert!(
            seen.calls_of(Family::PredEdge) > 0,
            "compression asks for SPend"
        );
        assert!(
            seen.calls_of(Family::SpInterior) > 0,
            "decompression walks paths"
        );
        assert_eq!(seen.total_calls(), seen.calls.iter().sum::<u64>());
    }
}
