//! Single-source shortest paths (Dijkstra) over the road network.
//!
//! Used in three places:
//! * building the all-pair shortest-path table of §3.1 (one tree per node),
//!   the dense oracle every other backend is tested against,
//! * the HMM map matcher's transition probabilities ([`dijkstra_sparse`]:
//!   bounded searches whose cost follows the ball explored, not `|V|`),
//! * workload generation's trip routing ([`dijkstra_with`] under perceived
//!   weights, [`reverse_distances`] toward a fixed destination).
//!
//! Ties are broken **canonically**: distances only update on a strict
//! improvement, and when a relaxation reaches a node at exactly its current
//! distance (bit-equal `f64`) through a positive-weight edge, the
//! predecessor switches to the smaller edge id. The resulting tree is
//! therefore a pure function of the distance values — `pred[v]` is the
//! minimum edge id `e = (p, v)` with `dist[p] + w(e) == dist[v]` (float
//! comparison) — and does not depend on heap pop order. That matters
//! beyond determinism: the [`HubLabels`](crate::HubLabels) backend
//! reproduces the same trees from distances alone, which is what makes
//! every backend bit-identical. The PRESS
//! SP-compression proof (Theorem 1) relies on *one* consistent shortest
//! path per pair, which a single canonical tree per source provides by
//! construction.

use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry; reversed ordering turns `BinaryHeap` into a min-heap.
#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The shortest-path tree rooted at one source node.
///
/// A tree from a **bounded** search ([`dijkstra_bounded`]) is exact only
/// up to its bound: nodes beyond it that the search relaxed but never
/// settled keep a finite *tentative* distance and predecessor, so
/// [`ShortestPathTree::reachable`] and
/// [`ShortestPathTree::edge_path_to`] may then report a connected but
/// non-shortest path. Compare `dist[v]` against the bound before
/// trusting either.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    /// Root of the tree.
    pub source: NodeId,
    /// `dist[v]` — shortest distance from the source to `v`
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// `pred_edge[v]` — the final edge on the shortest path to `v`.
    pub pred_edge: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// True if `target` has a finite distance — which on a bounded tree
    /// includes tentative entries beyond the bound (see the type docs).
    pub fn reachable(&self, target: NodeId) -> bool {
        self.dist[target.index()].is_finite()
    }

    /// Reconstructs the node-path edges from the source to `target`
    /// (in order). Empty when `target == source`; `None` when unreachable.
    /// The path is the canonical shortest one whenever `dist[target]` is
    /// within the search bound; a tentative beyond-bound target yields a
    /// connected path that need not be shortest.
    pub fn edge_path_to(&self, net: &RoadNetwork, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.reachable(target) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let e = self.pred_edge[cur.index()]?;
            edges.push(e);
            cur = net.edge(e).from;
        }
        edges.reverse();
        Some(edges)
    }
}

/// Runs Dijkstra from `source` over the full network.
pub fn dijkstra(net: &RoadNetwork, source: NodeId) -> ShortestPathTree {
    dijkstra_bounded(net, source, f64::INFINITY)
}

/// Runs Dijkstra from `source` under **custom edge weights** (indexed by
/// edge id). Used by workload generation to route trips under *perceived*
/// (e.g. traffic-dependent) costs that differ from the network's stored
/// weights — the realistic regime in which trajectories are close to, but
/// not exactly, shortest paths.
pub fn dijkstra_with(net: &RoadNetwork, source: NodeId, weights: &[f64]) -> ShortestPathTree {
    assert_eq!(
        weights.len(),
        net.num_edges(),
        "one weight per edge required"
    );
    dense_search(net, source, f64::INFINITY, |e| weights[e.index()])
}

/// Runs Dijkstra from `source`, abandoning nodes farther than `max_dist`.
///
/// The returned tree is exact — distance and canonical predecessor — for
/// all nodes with distance `<= max_dist`, and those entries are the same
/// under any larger bound. Nodes **beyond** the bound are not all
/// `INFINITY`/`None`: every out-neighbor of a settled node was relaxed,
/// so it carries a finite *tentative* distance (always `> max_dist`, an
/// upper bound on the true one) and a predecessor, and the one node
/// popped past the bound carries its exact distance. Callers that need
/// shortest paths must compare `dist[v]` against `max_dist`; see
/// [`ShortestPathTree`].
///
/// This is the dense form — three `|V|`-sized vectors per call — for
/// full trees and as the oracle of [`dijkstra_sparse`], which runs the
/// same loop at a cost that follows the ball instead of the graph.
pub fn dijkstra_bounded(net: &RoadNetwork, source: NodeId, max_dist: f64) -> ShortestPathTree {
    dense_search(net, source, max_dist, |e| net.edge(e).weight)
}

/// The dense settle/relax loop behind [`dijkstra_with`] and
/// [`dijkstra_bounded`]: edge weights come from `weight`, and the search
/// stops at the first node popped beyond `max_dist`.
fn dense_search(
    net: &RoadNetwork,
    source: NodeId,
    max_dist: f64,
    weight: impl Fn(EdgeId) -> f64,
) -> ShortestPathTree {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        if d > max_dist {
            break;
        }
        for &e in net.out_edges(u) {
            let edge = net.edge(e);
            let w = weight(e);
            let nd = d + w;
            let v = edge.to;
            if nd < dist[v.index()] {
                // Strict improvement: adopt the new distance and edge.
                dist[v.index()] = nd;
                pred_edge[v.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: v });
            } else if nd == dist[v.index()]
                && w > 0.0
                && edge.from != edge.to
                && pred_edge[v.index()].is_some_and(|p| e.0 < p.0)
            {
                // Canonical tie-break: among float-tight predecessors,
                // keep the smallest edge id (see module docs).
                pred_edge[v.index()] = Some(e);
            }
        }
    }
    ShortestPathTree {
        source,
        dist,
        pred_edge,
    }
}

/// "No predecessor" in the packed `u32` predecessor slots.
const NO_EDGE: u32 = u32::MAX;

/// One node a sparse search reached.
#[derive(Clone, Copy, Debug)]
struct Touched {
    node: u32,
    pred: u32,
    dist: f64,
}

/// The result of [`dijkstra_sparse`]: the part of a bounded
/// shortest-path tree the search actually touched, as triples sorted by
/// node id. Every node not listed is at `INFINITY` with no predecessor,
/// exactly as in the dense [`ShortestPathTree`] of the same search — and
/// like there, listed nodes beyond the bound hold tentative entries.
#[derive(Clone, Debug)]
pub struct SparseTree {
    source: NodeId,
    nodes: Vec<Touched>,
}

impl SparseTree {
    /// Number of nodes the search touched (assigned a finite distance) —
    /// the work the search did, independent of `|V|`.
    pub fn touched(&self) -> usize {
        self.nodes.len()
    }

    fn find(&self, v: NodeId) -> Option<&Touched> {
        self.nodes
            .binary_search_by_key(&v.0, |t| t.node)
            .ok()
            .map(|k| &self.nodes[k])
    }

    /// Distance from the source to `v`; `f64::INFINITY` when untouched.
    pub fn dist(&self, v: NodeId) -> f64 {
        self.find(v).map_or(f64::INFINITY, |t| t.dist)
    }

    /// The final edge on the tree path to `v`; `None` for the source and
    /// for untouched nodes.
    pub fn pred_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.find(v).and_then(|t| unpack_edge(t.pred))
    }

    /// [`ShortestPathTree::edge_path_to`] on the sparse tree, with the
    /// same beyond-bound caveat.
    pub fn edge_path_to(&self, net: &RoadNetwork, target: NodeId) -> Option<Vec<EdgeId>> {
        self.find(target)?;
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let e = self.pred_edge(cur)?;
            edges.push(e);
            cur = net.edge(e).from;
        }
        edges.reverse();
        Some(edges)
    }
}

fn unpack_edge(pred: u32) -> Option<EdgeId> {
    (pred != NO_EDGE).then_some(EdgeId(pred))
}

/// Reusable per-thread state of [`dijkstra_sparse`]: `|V|`-sized arrays
/// allocated once per worker and "reset" by bumping `version` (the
/// `LabelScratch` idiom of [`crate::hub_labels`]). `dist`/`pred` of a
/// node are meaningful only while `touched_at[node] == version`.
#[derive(Default)]
struct SparseScratch {
    version: u32,
    dist: Vec<f64>,
    pred: Vec<u32>,
    touched_at: Vec<u32>,
    settled_at: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
}

thread_local! {
    static SPARSE_SCRATCH: RefCell<SparseScratch> = RefCell::new(SparseScratch::default());
}

/// [`dijkstra_bounded`] at a cost of `O(ball · log ball)` instead of
/// `O(|V|)`: the identical relax / canonical-tie-break / stop-past-the-
/// bound loop over thread-local versioned scratch, returning only the
/// touched nodes. Every touched node's distance bits and predecessor
/// equal the dense tree's, tentative beyond-bound entries included, and
/// every other node is `INFINITY`/`None` there (property-tested).
pub fn dijkstra_sparse(net: &RoadNetwork, source: NodeId, max_dist: f64) -> SparseTree {
    SPARSE_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let n = net.num_nodes();
        if s.dist.len() < n {
            s.dist.resize(n, f64::INFINITY);
            s.pred.resize(n, NO_EDGE);
            s.touched_at.resize(n, 0);
            s.settled_at.resize(n, 0);
        }
        if s.version == u32::MAX {
            s.touched_at.fill(0);
            s.settled_at.fill(0);
            s.version = 0;
        }
        s.version += 1;
        let ver = s.version;
        s.touched.clear();
        s.heap.clear();
        let si = source.index();
        s.dist[si] = 0.0;
        s.pred[si] = NO_EDGE;
        s.touched_at[si] = ver;
        s.touched.push(source.0);
        s.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: u }) = s.heap.pop() {
            if s.settled_at[u.index()] == ver {
                continue;
            }
            s.settled_at[u.index()] = ver;
            if d > max_dist {
                break;
            }
            for &e in net.out_edges(u) {
                let edge = net.edge(e);
                let nd = d + edge.weight;
                let v = edge.to;
                let vi = v.index();
                let seen = s.touched_at[vi] == ver;
                let cur = if seen { s.dist[vi] } else { f64::INFINITY };
                if nd < cur {
                    // Strict improvement: adopt the new distance and edge.
                    if !seen {
                        s.touched_at[vi] = ver;
                        s.touched.push(v.0);
                    }
                    s.dist[vi] = nd;
                    s.pred[vi] = e.0;
                    s.heap.push(HeapEntry { dist: nd, node: v });
                } else if seen
                    && nd == cur
                    && edge.weight > 0.0
                    && edge.from != edge.to
                    && s.pred[vi] != NO_EDGE
                    && e.0 < s.pred[vi]
                {
                    // Canonical tie-break: among float-tight predecessors,
                    // keep the smallest edge id (see module docs).
                    s.pred[vi] = e.0;
                }
            }
        }
        s.touched.sort_unstable();
        let nodes = s
            .touched
            .iter()
            .map(|&v| Touched {
                node: v,
                pred: s.pred[v as usize],
                dist: s.dist[v as usize],
            })
            .collect();
        SparseTree { source, nodes }
    })
}

/// Test hook: moves this thread's scratch version so a test can force
/// the `u32` wrap without running four billion searches.
#[cfg(test)]
fn set_sparse_scratch_version(version: u32) {
    SPARSE_SCRATCH.with(|cell| cell.borrow_mut().version = version);
}

/// Dijkstra over the **reversed** graph: `dist[v]` is the shortest
/// distance from `v` *to* `target` (`f64::INFINITY` when `target` is not
/// reachable from `v`). One call answers every `d(·, target)` question —
/// the right shape for fixed-destination routing, where querying a
/// per-source provider would pull one tree per visited node.
pub fn reverse_distances(net: &RoadNetwork, target: NodeId) -> Vec<f64> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[target.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: target,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        for &e in net.in_edges(u) {
            let edge = net.edge(e);
            let nd = d + edge.weight;
            if nd < dist[edge.from.index()] {
                dist[edge.from.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: edge.from,
                });
            }
        }
    }
    dist
}

/// Reference all-pairs implementation (Floyd–Warshall) used only by tests to
/// validate Dijkstra and the SP table on small networks.
pub fn floyd_warshall(net: &RoadNetwork) -> Vec<Vec<f64>> {
    let n = net.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for e in net.edge_ids() {
        let edge = net.edge(e);
        let w = edge.weight;
        let (u, v) = (edge.from.index(), edge.to.index());
        if w < d[u][v] {
            d[u][v] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k].is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    /// 4-node diamond: v0 -> v1 -> v3 (cost 2), v0 -> v2 -> v3 (cost 3),
    /// and a direct v0 -> v3 (cost 4).
    fn diamond() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v1, v3, 1.0).unwrap(); // e1
        b.add_edge(v0, v2, 1.0).unwrap(); // e2
        b.add_edge(v2, v3, 2.0).unwrap(); // e3
        b.add_edge(v0, v3, 4.0).unwrap(); // e4
        b.build()
    }

    #[test]
    fn dijkstra_finds_min_distances() {
        let net = diamond();
        let tree = dijkstra(&net, NodeId(0));
        assert_eq!(tree.dist[0], 0.0);
        assert_eq!(tree.dist[1], 1.0);
        assert_eq!(tree.dist[2], 1.0);
        assert_eq!(tree.dist[3], 2.0);
    }

    #[test]
    fn dijkstra_path_reconstruction() {
        let net = diamond();
        let tree = dijkstra(&net, NodeId(0));
        let path = tree.edge_path_to(&net, NodeId(3)).unwrap();
        assert_eq!(path, vec![EdgeId(0), EdgeId(1)]);
        assert!(tree.edge_path_to(&net, NodeId(0)).unwrap().is_empty());
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        let net = b.build();
        let tree = dijkstra(&net, NodeId(1));
        assert!(!tree.reachable(NodeId(0)));
        assert!(tree.edge_path_to(&net, NodeId(0)).is_none());
    }

    #[test]
    fn bounded_dijkstra_is_exact_within_bound() {
        let net = diamond();
        let tree = dijkstra_bounded(&net, NodeId(0), 1.0);
        assert_eq!(tree.dist[1], 1.0);
        assert_eq!(tree.dist[2], 1.0);
        // v3 at distance 2 may or may not be settled, but never wrong if set.
        if tree.dist[3].is_finite() {
            assert_eq!(tree.dist[3], 2.0);
        }
    }

    #[test]
    fn bounded_tree_keeps_tentative_entries_beyond_the_bound() {
        // v0 -> v1 (1), v1 -> v3 (1), v0 -> v3 (5): true d(v3) = 2. With
        // bound 0 only v0 is expanded, so v3 keeps the tentative 5 via
        // the direct edge — finite, "reachable", and not shortest — and
        // v1 is the node popped past the bound, exact at 1.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(9.0, 9.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v1, v3, 1.0).unwrap(); // e1
        b.add_edge(v0, v3, 5.0).unwrap(); // e2
        b.add_edge(v3, v2, 1.0).unwrap(); // e3
        let net = b.build();
        let dense = dijkstra_bounded(&net, v0, 0.0);
        assert_eq!(dense.dist[v3.index()], 5.0);
        assert!(dense.reachable(v3));
        assert_eq!(dense.edge_path_to(&net, v3), Some(vec![EdgeId(2)]));
        assert_eq!(dense.dist[v1.index()], 1.0);
        // v2 was never relaxed: untouched.
        assert!(!dense.reachable(v2));
        // The sparse search is held to exactly the same behaviour.
        let sparse = dijkstra_sparse(&net, v0, 0.0);
        assert_eq!(sparse.touched(), 3);
        assert_eq!(sparse.dist(v3), 5.0);
        assert_eq!(sparse.edge_path_to(&net, v3), Some(vec![EdgeId(2)]));
        assert_eq!(sparse.dist(v2), f64::INFINITY);
        assert_eq!(sparse.edge_path_to(&net, v2), None);
        // Within a bound that covers it, v3 is exact under either form.
        assert_eq!(dijkstra_bounded(&net, v0, 2.0).dist[v3.index()], 2.0);
        assert_eq!(
            dijkstra_sparse(&net, v0, 2.0).edge_path_to(&net, v3),
            Some(vec![EdgeId(0), EdgeId(1)])
        );
    }

    /// Every touched node equals the dense tree bit for bit, and every
    /// untouched node is `INFINITY`/`None` there.
    fn assert_sparse_equals_dense(net: &RoadNetwork, source: NodeId, bound: f64) {
        let dense = dijkstra_bounded(net, source, bound);
        let sparse = dijkstra_sparse(net, source, bound);
        for v in net.node_ids() {
            assert_eq!(
                sparse.dist(v).to_bits(),
                dense.dist[v.index()].to_bits(),
                "dist {source}->{v} at bound {bound}"
            );
            assert_eq!(sparse.pred_edge(v), dense.pred_edge[v.index()]);
            assert_eq!(sparse.edge_path_to(net, v), dense.edge_path_to(net, v));
        }
        let finite = dense.dist.iter().filter(|d| d.is_finite()).count();
        assert_eq!(sparse.touched(), finite);
    }

    fn tied_grid() -> RoadNetwork {
        crate::generators::grid_network(&crate::generators::GridConfig {
            nx: 9,
            ny: 9,
            ..Default::default()
        })
    }

    #[test]
    fn sparse_scratch_survives_version_wrap() {
        let net = tied_grid();
        // Version 1 stamps every node touched and settled; then jump to
        // the brink. The search after `u32::MAX` wraps back to version 1
        // and must not mistake those stale stamps for its own.
        assert_sparse_equals_dense(&net, NodeId(0), f64::INFINITY);
        set_sparse_scratch_version(u32::MAX - 1);
        for s in 0..8u32 {
            assert_sparse_equals_dense(&net, NodeId(s * 9 + 4), 250.0);
        }
        assert_sparse_equals_dense(&net, NodeId(80), f64::INFINITY);
    }

    #[test]
    fn sparse_scratch_is_reused_across_networks_and_threads() {
        // One thread alternates between a large and a small network (the
        // scratch only ever grows); two more, released together by a
        // barrier so they do overlap, search on their own thread-local
        // scratch.
        let big = tied_grid();
        let small = diamond();
        for s in 0..4 {
            assert_sparse_equals_dense(&big, NodeId(40 + s), 300.0);
            assert_sparse_equals_dense(&small, NodeId(s), 1.0);
        }
        let big = &big;
        let start = &std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                scope.spawn(move || {
                    start.wait();
                    for i in 0..40u32 {
                        let source = NodeId((i * 7 + t * 13) % 81);
                        let bound = [0.0, 150.0, 400.0, f64::INFINITY][(i % 4) as usize];
                        assert_sparse_equals_dense(big, source, bound);
                    }
                });
            }
        });
    }

    #[test]
    fn reverse_distances_match_forward_trees() {
        let net = diamond();
        for target in net.node_ids() {
            let rev = reverse_distances(&net, target);
            for source in net.node_ids() {
                let fwd = dijkstra(&net, source).dist[target.index()];
                assert!(
                    (rev[source.index()] == fwd) || (rev[source.index()] - fwd).abs() < 1e-9,
                    "reverse {} vs forward {} for {source}->{target}",
                    rev[source.index()],
                    fwd
                );
            }
        }
    }

    #[test]
    fn dijkstra_agrees_with_floyd_warshall() {
        let net = diamond();
        let fw = floyd_warshall(&net);
        for u in net.node_ids() {
            let tree = dijkstra(&net, u);
            for v in net.node_ids() {
                let a = tree.dist[v.index()];
                let b = fw[u.index()][v.index()];
                assert!(
                    (a == b) || (a - b).abs() < 1e-9,
                    "mismatch {u}->{v}: dijkstra {a} vs fw {b}"
                );
            }
        }
    }

    #[test]
    fn ties_resolve_to_minimum_edge_id() {
        // Two exactly-tied routes into v3; the canonical tree must pick the
        // predecessor with the smaller edge id regardless of heap order.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v0, v2, 1.0).unwrap(); // e1
        b.add_edge(v1, v3, 1.0).unwrap(); // e2  (tight into v3)
        b.add_edge(v2, v3, 1.0).unwrap(); // e3  (tight into v3, larger id)
        let net = b.build();
        let tree = dijkstra(&net, NodeId(0));
        assert_eq!(tree.pred_edge[3], Some(EdgeId(2)));
        // The rule is order-independent: pred[v] is the minimum edge id e =
        // (p, v) with dist[p] + w(e) == dist[v], checkable after the fact.
        for v in net.node_ids() {
            let Some(p) = tree.pred_edge[v.index()] else {
                continue;
            };
            let canonical = net
                .in_edges(v)
                .iter()
                .copied()
                .find(|&e| {
                    let edge = net.edge(e);
                    edge.from != edge.to
                        && tree.dist[edge.from.index()] + edge.weight == tree.dist[v.index()]
                })
                .unwrap();
            assert_eq!(p, canonical, "non-canonical predecessor for {v}");
        }
    }

    #[test]
    fn deterministic_tree_under_ties() {
        // Two equal-cost parallel routes: tree must pick the same one every run.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v0, v2, 1.0).unwrap();
        b.add_edge(v1, v3, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        let net = b.build();
        let p1 = dijkstra(&net, NodeId(0))
            .edge_path_to(&net, NodeId(3))
            .unwrap();
        for _ in 0..10 {
            let p2 = dijkstra(&net, NodeId(0))
                .edge_path_to(&net, NodeId(3))
                .unwrap();
            assert_eq!(p1, p2);
        }
    }
}

#[cfg(test)]
mod dijkstra_with_tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    #[test]
    fn custom_weights_change_the_route() {
        // Diamond where the top route is shorter by stored weights but
        // "congested" under perceived weights.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0 top-in
        b.add_edge(v1, v3, 1.0).unwrap(); // e1 top-out
        b.add_edge(v0, v2, 2.0).unwrap(); // e2 bottom-in
        b.add_edge(v2, v3, 2.0).unwrap(); // e3 bottom-out
        let net = b.build();
        // Stored weights: top wins.
        let stored = dijkstra(&net, v0).edge_path_to(&net, v3).unwrap();
        assert_eq!(stored, vec![EdgeId(0), EdgeId(1)]);
        // Perceived weights: congestion on the top route.
        let perceived = [10.0, 10.0, 2.0, 2.0];
        let tree = dijkstra_with(&net, v0, &perceived);
        assert_eq!(
            tree.edge_path_to(&net, v3).unwrap(),
            vec![EdgeId(2), EdgeId(3)]
        );
        assert_eq!(tree.dist[v3.index()], 4.0);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn wrong_weight_count_panics() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        let net = b.build();
        dijkstra_with(&net, v0, &[]);
    }
}
