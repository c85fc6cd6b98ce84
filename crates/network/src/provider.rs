//! The shortest-path **provider** abstraction — the seam between "how
//! shortest-path facts are stored" and "who consumes them".
//!
//! The paper (§3.1) assumes all-pair shortest-path information exists via
//! pre-processing; the seed implementation took that literally and baked
//! an `O(|V|²)` table into every consumer. [`SpProvider`] inverts that:
//! compression (§3), the query processor (§5) and the experiment harness
//! all speak to this trait, and the *backend* decides the time/space
//! trade-off:
//!
//! * [`SpTable`](crate::SpTable) — the dense table. `O(|V|²)` memory,
//!   `O(1)` lookups. Right for small networks, and the correctness oracle
//!   for everything else.
//! * [`HubLabels`](crate::HubLabels) — 2-hop labels precomputed from a
//!   contraction-hierarchy order (the contraction is their builder, not
//!   a provider of its own): per-node sorted hub arrays answering random
//!   point queries by a flat scan in microseconds. The backend at city
//!   scale.
//!
//! All backends derive every query from the same **canonical**
//! shortest-path trees (see [`crate::dijkstra`](mod@crate::dijkstra) for the tie-break rule),
//! so their answers are **bit-identical** (property-tested in
//! `tests/properties.rs`) — the prefix-consistency that Theorem 1's
//! optimality proof needs holds for any of them. A backend answers only
//! distances and predecessors; paths, interiors and MBRs are the trait's
//! one predecessor walk for every backend. [`SpBackend`] is the
//! value-level selector used by configuration surfaces (bench
//! environments, examples).

use crate::dijkstra::ShortestPathTree;
use crate::geometry::Mbr;
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use std::sync::Arc;

/// Source of shortest-path facts over one road network.
///
/// Only four methods are backend-specific; everything the paper's
/// algorithms consume (`SPend`, gap distances, path expansion, MBRs) is
/// derived in default methods, so the derived semantics — including the
/// SP-containment property Theorem 1 relies on — are shared by
/// construction. Both built-in backends implement exactly those four:
/// the interior of `SP(ei, ej)` is one predecessor walk
/// ([`SpProvider::sp_interior`]) for every backend.
pub trait SpProvider: Send + Sync {
    /// The underlying network.
    fn network(&self) -> &Arc<RoadNetwork>;

    /// Shortest node-to-node distance; `f64::INFINITY` when unreachable.
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64;

    /// Final edge on the shortest node path `u → v` (`None` when `v` is
    /// unreachable or `v == u`).
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId>;

    /// Approximate current in-memory footprint in bytes (for the §6.2
    /// auxiliary-structure report).
    fn approx_bytes(&self) -> usize;

    /// Interior ("gap") distance of `SP(ei, ej)`: summed weight of the
    /// edges strictly between `ei` and `ej`. Zero when the edges are
    /// consecutive; `f64::INFINITY` when no path exists.
    #[inline]
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        let net = self.network();
        let a = net.edge(ei);
        let b = net.edge(ej);
        self.node_dist(a.to, b.from)
    }

    /// Total weight of `SP(ei, ej)` including both end edges;
    /// `f64::INFINITY` when no path exists.
    #[inline]
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        let gap = self.gap_dist(ei, ej);
        if gap.is_finite() {
            let net = self.network();
            net.weight(ei) + gap + net.weight(ej)
        } else {
            f64::INFINITY
        }
    }

    /// `SPend(ei, ej)` — the edge right before `ej` on `SP(ei, ej)` (§3.1).
    ///
    /// When `ej` directly follows `ei`, this is `ei` itself. `None` when
    /// `ej` is unreachable from `ei` or when `ei == ej`.
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        if ei == ej {
            return None;
        }
        let net = self.network();
        let a = net.edge(ei);
        let b = net.edge(ej);
        if a.to == b.from {
            return Some(ei);
        }
        self.pred_edge(a.to, b.from)
    }

    /// True when `ej` is reachable from `ei` by some edge path.
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        self.gap_dist(ei, ej).is_finite()
    }

    /// The edges strictly between `ei` and `ej` on `SP(ei, ej)`, in path
    /// order: the `SPend` walk of §3.1, one [`SpProvider::pred_edge`] per
    /// edge from `ej` back to `ei`. Empty when the edges are consecutive;
    /// `None` when unreachable (the first predecessor is already `None`),
    /// when `ei == ej` (no defined interior), or when the predecessors do
    /// not form a path — a walk that reaches `|V|` edges without arriving
    /// is a cycle, which only a corrupt backend can answer.
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let net = self.network();
        let a = net.edge(ei);
        let b = net.edge(ej);
        if a.to == b.from {
            return Some(Vec::new());
        }
        let mut interior = Vec::new();
        let mut cur = b.from;
        while cur != a.to {
            // A simple path has fewer than |V| edges: a longer walk is a
            // predecessor cycle, not a path.
            if interior.len() >= net.num_nodes() {
                return None;
            }
            let e = self.pred_edge(a.to, cur)?;
            interior.push(e);
            cur = net.edge(e).from;
        }
        interior.reverse();
        Some(interior)
    }

    /// Reconstructs the full edge sequence of `SP(ei, ej)`, including `ei`
    /// and `ej`. `None` exactly when [`SpProvider::sp_interior`] is.
    /// Reconstruction walks `SPend` backwards exactly as the decompression
    /// procedure of §3.1 describes, so its cost is the length of the
    /// shortest path.
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        let mut interior = self.sp_interior(ei, ej)?;
        let mut path = Vec::with_capacity(interior.len() + 2);
        path.push(ei);
        path.append(&mut interior);
        path.push(ej);
        Some(path)
    }

    /// MBR of the embedding of `SP(ei, ej)` (used by `whenat`/`range`
    /// pruning, §5.2). `None` exactly when [`SpProvider::sp_interior`] is.
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        let net = self.network();
        let path = self.sp_path(ei, ej)?;
        let mut mbr = Mbr::empty();
        for e in path {
            mbr.expand(&net.edge_mbr(e));
        }
        Some(mbr)
    }

    /// The full shortest-path tree rooted at `source`, when the backend
    /// can hand one out cheaply (`None` means "derive what you need from
    /// the point lookups instead"). Consumers that stream many lookups
    /// against one source (unit expansion, gap walks) use this to avoid
    /// one point lookup per call. No built-in backend hands one out.
    fn source_tree(&self, _source: NodeId) -> Option<Arc<ShortestPathTree>> {
        None
    }
}

/// Forwarding impl so an `&Arc<dyn SpProvider>` (or `&Arc<SpTable>`)
/// coerces straight into `&dyn SpProvider` at call sites. Every method —
/// including the derived ones — forwards to the inner provider, so a
/// provider that overrides a derived method (a call-counting decorator,
/// say) is never bypassed by the trait defaults.
impl<P: SpProvider + ?Sized> SpProvider for Arc<P> {
    fn network(&self) -> &Arc<RoadNetwork> {
        (**self).network()
    }
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        (**self).node_dist(u, v)
    }
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        (**self).pred_edge(u, v)
    }
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        (**self).gap_dist(ei, ej)
    }
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        (**self).sp_weight(ei, ej)
    }
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        (**self).sp_end(ei, ej)
    }
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        (**self).reachable(ei, ej)
    }
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        (**self).sp_interior(ei, ej)
    }
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        (**self).sp_path(ei, ej)
    }
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        (**self).sp_mbr(ei, ej)
    }
    fn source_tree(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        (**self).source_tree(source)
    }
}

/// Value-level backend selector for configuration surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpBackend {
    /// Eager dense all-pair table ([`SpTable`](crate::SpTable)):
    /// `O(|V|²)` memory, built up front.
    Dense,
    /// 2-hop hub labels ([`HubLabels`](crate::HubLabels)) computed from
    /// a contraction order: point lookups that are a flat label scan
    /// (single-digit microseconds at 100k nodes) after a one-time
    /// preprocessing pass. Requires strictly positive edge weights.
    Hl,
}

impl SpBackend {
    /// Builds the selected provider over `net`, preprocessing with one
    /// worker per available core where the backend parallelizes (the
    /// HL contraction rounds and label pass). Results are
    /// bit-identical for any worker count, so this is always safe.
    pub fn build(self, net: Arc<RoadNetwork>) -> Arc<dyn SpProvider> {
        match self {
            SpBackend::Dense => Arc::new(crate::sp_table::SpTable::build(net)),
            SpBackend::Hl => Arc::new(crate::hub_labels::HubLabels::build(net)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    /// A provider whose predecessors all enter their node but form a
    /// cycle: row 1 sends node 2 back through 3 and node 3 back through
    /// 2, so no walk from 2 ever reaches the row's source.
    struct CyclicPreds(Arc<RoadNetwork>);

    impl SpProvider for CyclicPreds {
        fn network(&self) -> &Arc<RoadNetwork> {
            &self.0
        }
        fn node_dist(&self, _u: NodeId, _v: NodeId) -> f64 {
            1.0
        }
        fn pred_edge(&self, _u: NodeId, v: NodeId) -> Option<EdgeId> {
            match v.0 {
                2 => Some(EdgeId(2)), // x → v
                3 => Some(EdgeId(3)), // v → x
                _ => None,
            }
        }
        fn approx_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_predecessor_cycle_is_no_path() {
        // s → u → v → t with a spur v ⇄ x: SP(e0, e4) walks back from v
        // towards u, and the cyclic predecessors never arrive.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for (from, to) in [(0, 1), (1, 2), (3, 2), (2, 3), (2, 4)] {
            b.add_edge(NodeId(from), NodeId(to), 1.0).unwrap();
        }
        let sp = CyclicPreds(Arc::new(b.build()));
        assert_eq!(sp.sp_interior(EdgeId(0), EdgeId(4)), None);
        assert_eq!(sp.sp_path(EdgeId(0), EdgeId(4)), None);
        assert!(sp.sp_mbr(EdgeId(0), EdgeId(4)).is_none());
    }
}
