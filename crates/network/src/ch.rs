//! Contraction Hierarchies (CH) — the precomputed-but-sub-quadratic
//! [`SpProvider`] backend.
//!
//! The dense [`SpTable`](crate::SpTable) answers point lookups in `O(1)`
//! but stores `O(|V|²)` entries. A contraction hierarchy is an
//! `O(|V| + shortcuts)` structure built once per network, answering
//! random point queries in microseconds by searching only "upward" in a
//! node hierarchy. Its order and arcs are also what the
//! [`HubLabels`](crate::HubLabels) are built from, and as a provider it
//! serves at ~16× less memory than the labels.
//!
//! # Preprocessing: ordering and witness search
//!
//! Nodes are contracted bottom-up, one at a time. Contracting `v` removes
//! it from the *core* graph; to preserve all shortest distances among the
//! remaining nodes, every path `u → v → w` through `v` that is a unique
//! shortest path must be replaced by a **shortcut arc** `u → w` of weight
//! `w(u,v) + w(v,w)`. Whether the shortcut is needed is decided by a
//! **witness search**: a bounded Dijkstra from `u` in the core graph
//! *excluding* `v`. If it finds a path to `w` no longer than the shortcut
//! ("a witness"), the shortcut is skipped; if the bounded search is
//! inconclusive (settle cap reached), the shortcut is inserted anyway —
//! extra shortcuts cost memory, never correctness.
//!
//! The contraction *order* determines how many shortcuts appear. Each
//! node's priority is the classic heuristic
//! `2·edge_difference + deleted_neighbors + level`, where
//! `edge_difference` is (shortcuts the contraction would insert) − (live
//! arcs it removes), `deleted_neighbors` counts already-contracted
//! neighbors (keeping the contraction spatially uniform), and `level`
//! lower-bounds the node's hierarchy depth (keeping the hierarchy
//! shallow).
//!
//! # Batched independent-set contraction and the determinism contract
//!
//! Contraction proceeds in **rounds** over the shrinking overlay graph
//! (live nodes + live arcs), not one node at a time, so the dominant
//! preprocessing cost — the witness searches — spreads across all cores
//! ([`ChConfig::threads`]). Every round has four phases:
//!
//! 1. **Priority recompute (parallel, read-only).** Nodes *dirtied* by
//!    the previous round (neighbors of what was contracted) re-evaluate
//!    their priority — one bounded witness pass each — via
//!    [`work_steal_map_indexed`](crate::parallel::work_steal_map_indexed)
//!    over a pool of per-worker versioned scratch. The overlay is
//!    immutable here, so each priority is a pure function of (overlay,
//!    node).
//! 2. **Independent-set selection (sequential, deterministic).** A live
//!    node is selected iff its `(priority, node id)` key is strictly
//!    smaller than every live overlay neighbor's — local minima under a
//!    total order, so the set is independent (no two selected nodes
//!    adjacent) and uniquely determined by the overlay state. The global
//!    minimum is always selected, so every round makes progress.
//! 3. **Witness searches (parallel, read-only).** Each selected node
//!    computes its definitive shortcut list against the immutable
//!    overlay. These searches skip **every** selected node, not just the
//!    one being contracted: two selected nodes may not certify each
//!    other as witnesses, since both leave the overlay together (the
//!    classic mutual-witness unsoundness of batched contraction). The
//!    cost is at most a few extra shortcuts — never correctness.
//! 4. **Commit (sequential, deterministic).** Selected nodes contract in
//!    ascending node id: shortcut arcs are appended in that order,
//!    ranks assigned consecutively, neighbor lists pruned,
//!    `deleted_neighbors`/`level` bumped, and the neighbors marked dirty
//!    for the next round.
//!
//! Phases 1 and 3 only ever *read* the overlay and return results in
//! input order; everything that writes is single-threaded and keyed on
//! node id. Hence the contract: **the rank order, the shortcut arc set
//! (including arc ids), and the serialized `sp_ch.press` bytes are
//! identical for every thread count** — `threads` is a throughput knob,
//! never a semantic one (property-tested across 1/2/3/7 workers).
//!
//! # Queries
//!
//! Every original arc and shortcut goes "up" or "down" in contraction
//! rank. Any shortest path can be rearranged into an up-down path, so a
//! **bidirectional upward Dijkstra** — forward from `u` over up-arcs,
//! backward from `v` over down-arcs — meets at the apex and explores only
//! a few hundred nodes on road-like graphs, regardless of `|V|`.
//!
//! # Bit-identical answers
//!
//! The other backends derive everything from canonical Dijkstra trees
//! (see [`crate::dijkstra`](mod@crate::dijkstra): `pred[v]` is the minimum edge id `e = (p,v)`
//! with `dist[p] + w(e) == dist[v]`, as `f64` operations). This backend
//! reproduces those trees **from distances alone**:
//!
//! * `node_dist` unpacks the winning up-down path to original edges and
//!   re-accumulates the weight left-to-right — the same float-addition
//!   order Dijkstra used — so tied paths (common on unjittered grids,
//!   where sums are exact) yield the same bits;
//! * `pred_edge` scans `v`'s incoming edges in ascending id and returns
//!   the first `e = (p,v)` with `node_dist(u,p) + w(e) == node_dist(u,v)`
//!   — the canonical-tree definition itself, evaluated with the identical
//!   float expression.
//!
//! Scope of the guarantee: identity is *structural* whenever the minimal
//! left-to-right sum is achieved by some path the search can select —
//! which covers both realistic regimes: quantized weights (grids), where
//! every tied sum is exact and any tied path re-accumulates to the same
//! bits, and continuous jittered weights, where the shortest path is
//! unique and unpacks verbatim. The one theoretical gap is a pair of
//! *distinct* shortest paths whose left-to-right sums differ by ~1 ulp
//! while the search's differently-associated internal totals (pre-summed
//! shortcut weights) rank them the other way; `canonical_pred` then finds
//! no float-tight in-edge and falls back to the unpacked path's last
//! edge. This needs two independently-sampled weight sums to collide
//! within rounding error of each other — never observed under the
//! property tests (`tests/properties.rs` hammers both regimes) or the
//! 102k-node pipeline cross-checks, but it is validated rather than
//! proven for arbitrary adversarial weights.
//!
//! Precondition: **strictly positive edge weights** (asserted at build
//! time). A zero-weight edge would let float-tight predecessor chains
//! cycle, making the canonical tree ill-defined for every backend.

use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use crate::provider::SpProvider;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel arc id ("no parent"); shared with the hub-label backend,
/// whose label entries use the same arc-id space.
pub(crate) const NO_ARC: u32 = u32::MAX;

/// Batch-shaping constants for the quality guard in
/// [`ContractionHierarchy::build_with`]: a round contracts the
/// candidates within `PRIORITY_SLACK` of its minimum priority, widened —
/// when that would leave work too serial — to at least the
/// `MIN_BATCH`-th smallest candidate priority. Both are fixed (never
/// derived from the machine), so the schedule, and with it the artifact
/// bytes, are identical everywhere.
const PRIORITY_SLACK: i64 = 2;
const MIN_BATCH: usize = 256;

/// Tuning knobs for [`ContractionHierarchy::build_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChConfig {
    /// Maximum nodes a witness search may settle before giving up and
    /// inserting the shortcut. Larger = slower build, fewer shortcuts.
    pub witness_settle_limit: usize,
    /// Worker threads for the batched contraction rounds (priority
    /// recomputation and witness searches); `0` means one per available
    /// core. Purely a throughput knob: the built hierarchy — rank order,
    /// shortcut arcs, serialized bytes — is **bit-identical for any
    /// value** (see the module docs' determinism contract).
    pub threads: usize,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig {
            witness_settle_limit: 128,
            threads: 0,
        }
    }
}

/// How an arc expands back to original edges.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Unpack {
    /// An original network edge.
    Original(EdgeId),
    /// A shortcut: the two constituent arc ids, in path order.
    Shortcut(u32, u32),
}

/// One arc of the augmented (original ∪ shortcut) graph. Shared with the
/// hub-label backend, which carries a copy of the arc set so label parent
/// pointers can unpack to original edges.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChArc {
    pub(crate) tail: NodeId,
    pub(crate) head: NodeId,
    pub(crate) weight: f64,
    pub(crate) unpack: Unpack,
}

/// Expands an arc (recursively, via an explicit stack) to the original
/// edges it represents, in path order. Free function so the hub-label
/// backend can expand over its own copy of the arc set.
pub(crate) fn expand_arc(arcs: &[ChArc], arc: u32, out: &mut Vec<EdgeId>) {
    let mut stack = vec![arc];
    while let Some(a) = stack.pop() {
        match arcs[a as usize].unpack {
            Unpack::Original(e) => out.push(e),
            Unpack::Shortcut(first, second) => {
                stack.push(second);
                stack.push(first);
            }
        }
    }
}

/// Encodes an arc set as the flat `arcs_f` section: 24 fixed-width bytes
/// per arc — tail `u32`, head `u32`, weight as `f64` bits, then the two
/// unpack ids (`(edge id, NO_ARC)` for an original, the child arc ids
/// for a shortcut). Endpoints and weights are derivable from the network
/// and the children; storing them anyway is what lets
/// [`decode_arcs_flat`] cross-check every arc against the network.
pub(crate) fn encode_arcs_flat(arcs: &[ChArc]) -> Vec<u8> {
    let mut out = Vec::with_capacity(arcs.len() * 24);
    for arc in arcs {
        out.extend_from_slice(&arc.tail.0.to_le_bytes());
        out.extend_from_slice(&arc.head.0.to_le_bytes());
        out.extend_from_slice(&arc.weight.to_bits().to_le_bytes());
        let (a, b) = match arc.unpack {
            Unpack::Original(e) => (e.0, NO_ARC),
            Unpack::Shortcut(first, second) => (first, second),
        };
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// Decodes the flat `arcs_f` section (see [`encode_arcs_flat`]):
/// originals must match the network edge byte-for-byte, shortcuts must
/// reference strictly earlier arcs, concatenate at the middle node, and
/// carry the exact float sum of their children. Shared by the
/// contraction-hierarchy and hub-label readers.
pub(crate) fn decode_arcs_flat(
    net: &RoadNetwork,
    bytes: &[u8],
    num_arcs: usize,
) -> press_store::Result<Vec<ChArc>> {
    use press_store::StoreError;
    if bytes.len() != num_arcs * 24 {
        return Err(StoreError::Corrupt(format!(
            "arcs_f: {} bytes does not match {num_arcs} arcs x 24 B",
            bytes.len()
        )));
    }
    let num_original = net.num_edges();
    let mut arcs: Vec<ChArc> = Vec::with_capacity(num_arcs);
    for (id, rec) in bytes.chunks_exact(24).enumerate() {
        let tail = NodeId(u32::from_le_bytes(rec[0..4].try_into().unwrap()));
        let head = NodeId(u32::from_le_bytes(rec[4..8].try_into().unwrap()));
        let weight = f64::from_bits(u64::from_le_bytes(rec[8..16].try_into().unwrap()));
        let a = u32::from_le_bytes(rec[16..20].try_into().unwrap());
        let b = u32::from_le_bytes(rec[20..24].try_into().unwrap());
        if id < num_original {
            let e = EdgeId(id as u32);
            let edge = net.edge(e);
            if a != id as u32
                || b != NO_ARC
                || edge.from != tail
                || edge.to != head
                || edge.weight.to_bits() != weight.to_bits()
            {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: original arc {id} does not match network edge {id}"
                )));
            }
            arcs.push(ChArc {
                tail,
                head,
                weight,
                unpack: Unpack::Original(e),
            });
        } else {
            if a as usize >= id || b as usize >= id {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: shortcut arc {id} unpacks to an out-of-range arc ({a}, {b})"
                )));
            }
            let first = arcs[a as usize];
            let second = arcs[b as usize];
            if first.tail != tail
                || second.head != head
                || first.head != second.tail
                || (first.weight + second.weight).to_bits() != weight.to_bits()
            {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: shortcut arc {id} does not concatenate its children ({a}, {b})"
                )));
            }
            arcs.push(ChArc {
                tail,
                head,
                weight,
                unpack: Unpack::Shortcut(a, b),
            });
        }
    }
    Ok(arcs)
}

/// Validates that a CSR search graph lists each node's arcs in strictly
/// ascending id order, files every arc under the right node, and only
/// arcs that point up in rank — checked before any query runs. `forward`
/// selects which CSR is being checked: up-arcs grouped by tail (forward
/// search) or down-arcs grouped by head (backward).
fn check_csr_membership(
    arcs: &[ChArc],
    rank: &[u32],
    index: &[u32],
    ids: &[u32],
    forward: bool,
    arcs_name: &str,
) -> press_store::Result<()> {
    use press_store::StoreError;
    let n = index.len() - 1;
    let num_arcs = arcs.len();
    for node in 0..n {
        let group = &ids[index[node] as usize..index[node + 1] as usize];
        if group.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::Corrupt(format!(
                "{arcs_name}: arc ids of node {node} are not strictly ascending"
            )));
        }
        for &a in group {
            let Some(arc) = arcs.get(a as usize) else {
                return Err(StoreError::Corrupt(format!(
                    "{arcs_name} references arc {a} outside 0..{num_arcs}"
                )));
            };
            let (own, up) = if forward {
                (arc.tail, rank[arc.tail.index()] < rank[arc.head.index()])
            } else {
                (arc.head, rank[arc.tail.index()] > rank[arc.head.index()])
            };
            if own.index() != node || !up {
                return Err(StoreError::Corrupt(format!(
                    "{arcs_name}: arc {a} filed under node {node} is not one of \
                     its upward arcs"
                )));
            }
        }
    }
    Ok(())
}

/// Min-heap entry (reversed `Ord`, ties on node id — deterministic).
#[derive(Copy, Clone, PartialEq)]
pub(crate) struct QueueEntry {
    pub(crate) dist: f64,
    pub(crate) node: u32,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-thread query state: versioned distance/parent arrays and
/// the two heaps. Versioning makes "reset" an integer bump instead of an
/// `O(|V|)` clear; the arrays grow to the largest network queried on this
/// thread and are shared across hierarchy instances.
#[derive(Default)]
struct QueryScratch {
    ver: u32,
    fdist: Vec<f64>,
    fpar: Vec<u32>,
    fver: Vec<u32>,
    bdist: Vec<f64>,
    bpar: Vec<u32>,
    bver: Vec<u32>,
    fheap: BinaryHeap<QueueEntry>,
    bheap: BinaryHeap<QueueEntry>,
}

impl QueryScratch {
    /// Starts a query over `n` nodes; returns the fresh version stamp.
    fn begin(&mut self, n: usize) -> u32 {
        if self.fdist.len() < n {
            self.fdist.resize(n, f64::INFINITY);
            self.fpar.resize(n, NO_ARC);
            self.fver.resize(n, 0);
            self.bdist.resize(n, f64::INFINITY);
            self.bpar.resize(n, NO_ARC);
            self.bver.resize(n, 0);
        }
        if self.ver == u32::MAX {
            self.fver.fill(0);
            self.bver.fill(0);
            self.ver = 0;
        }
        self.ver += 1;
        self.fheap.clear();
        self.bheap.clear();
        self.ver
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// A built contraction hierarchy over one road network; see module docs.
/// Internals are crate-visible so the hub-label backend can be built from
/// the same rank order and upward search graphs.
/// The id-array fields are [`press_store::FlatSlice`]s: owned vectors
/// after a build, borrows of the artifact's flat sections after a load
/// or a mapped open — `Deref<Target = [u32]>` keeps every query
/// identical either way.
pub struct ContractionHierarchy {
    pub(crate) net: Arc<RoadNetwork>,
    /// Contraction order of each node (higher = contracted later = more
    /// "important").
    pub(crate) rank: press_store::FlatSlice<u32>,
    /// All arcs: originals first, then shortcuts.
    pub(crate) arcs: Vec<ChArc>,
    /// CSR over up-arcs (tail rank < head rank), indexed by tail.
    pub(crate) fwd_index: press_store::FlatSlice<u32>,
    pub(crate) fwd_arcs: press_store::FlatSlice<u32>,
    /// CSR over down-arcs (tail rank > head rank), indexed by head — the
    /// backward search relaxes these from the head side.
    pub(crate) bwd_index: press_store::FlatSlice<u32>,
    pub(crate) bwd_arcs: press_store::FlatSlice<u32>,
    num_shortcuts: usize,
}

// ---------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------

/// Per-worker witness-search scratch: versioned distance array (reset is
/// an integer bump) plus the search heap, reused across every evaluation
/// one worker runs over the whole build.
struct WitnessScratch {
    wdist: Vec<f64>,
    wver: Vec<u32>,
    ver: u32,
    heap: BinaryHeap<QueueEntry>,
}

impl WitnessScratch {
    fn new(n: usize) -> Self {
        WitnessScratch {
            wdist: vec![f64::INFINITY; n],
            wver: vec![0; n],
            ver: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn dist(&self, v: NodeId) -> f64 {
        if self.wver[v.index()] == self.ver {
            self.wdist[v.index()]
        } else {
            f64::INFINITY
        }
    }
}

/// The shrinking overlay graph the contraction rounds run over. During
/// the parallel phases of a round (priority recomputation, witness
/// searches) it is **immutable** — workers share `&Overlay` — and all
/// mutation happens in the sequential commit phase; that split is what
/// makes the build bit-identical for any thread count (module docs).
struct Overlay {
    witness_settle_limit: usize,
    arcs: Vec<ChArc>,
    /// Live out-/in-arc ids per node (arcs to/from contracted nodes are
    /// pruned as their endpoints contract).
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
    contracted: Vec<bool>,
    /// Nodes selected for contraction in the current round. Witness
    /// searches skip them exactly like contracted nodes: two selected
    /// nodes must not certify each other as witnesses, because both
    /// leave the overlay together at commit.
    selected: Vec<bool>,
    deleted_neighbors: Vec<u32>,
    /// Lower bound on a node's depth in the hierarchy; penalizing it in
    /// the priority keeps the hierarchy shallow (better query times).
    level: Vec<u32>,
    /// Arcs superseded by a strictly lighter parallel shortcut. A dead
    /// arc can never lie on a minimal path, so it is dropped from the
    /// search graphs — but it stays in `arcs`, because it may be the
    /// child of an earlier shortcut and must remain expandable.
    dead: Vec<bool>,
}

impl Overlay {
    fn new(net: &RoadNetwork, witness_settle_limit: usize) -> Self {
        let n = net.num_nodes();
        let mut arcs = Vec::with_capacity(net.num_edges() * 2);
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        for e in net.edge_ids() {
            let edge = net.edge(e);
            assert!(
                edge.weight > 0.0,
                "ContractionHierarchy requires strictly positive edge weights \
                 (edge {e} has weight {}); zero-weight edges make the canonical \
                 predecessor tree ill-defined",
                edge.weight
            );
            let id = arcs.len() as u32;
            arcs.push(ChArc {
                tail: edge.from,
                head: edge.to,
                weight: edge.weight,
                unpack: Unpack::Original(e),
            });
            if edge.from != edge.to {
                out[edge.from.index()].push(id);
                inn[edge.to.index()].push(id);
            }
        }
        let num_arcs = arcs.len();
        Overlay {
            witness_settle_limit,
            arcs,
            out,
            inn,
            contracted: vec![false; n],
            selected: vec![false; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
            dead: vec![false; num_arcs],
        }
    }

    /// Bounded Dijkstra from `source` in the live core graph, skipping
    /// `excluded` and every currently selected node; distances land in
    /// the worker's versioned scratch. Read-only on the overlay, so any
    /// number of workers may search concurrently.
    fn witness_search(
        &self,
        scr: &mut WitnessScratch,
        source: NodeId,
        excluded: NodeId,
        bound: f64,
        settle_limit: usize,
    ) {
        if scr.ver == u32::MAX {
            scr.wver.fill(0);
            scr.ver = 0;
        }
        scr.ver += 1;
        let ver = scr.ver;
        scr.wdist[source.index()] = 0.0;
        scr.wver[source.index()] = ver;
        scr.heap.clear();
        scr.heap.push(QueueEntry {
            dist: 0.0,
            node: source.0,
        });
        let mut settled = 0usize;
        while let Some(QueueEntry { dist: d, node: u }) = scr.heap.pop() {
            let u = u as usize;
            if d > scr.wdist[u] || scr.wver[u] != ver {
                continue; // stale
            }
            if d > bound {
                break;
            }
            settled += 1;
            if settled > settle_limit {
                break;
            }
            for &aid in &self.out[u] {
                let arc = self.arcs[aid as usize];
                let v = arc.head;
                if v == excluded || self.contracted[v.index()] || self.selected[v.index()] {
                    continue;
                }
                let nd = d + arc.weight;
                let vi = v.index();
                if scr.wver[vi] != ver || nd < scr.wdist[vi] {
                    scr.wdist[vi] = nd;
                    scr.wver[vi] = ver;
                    scr.heap.push(QueueEntry {
                        dist: nd,
                        node: v.0,
                    });
                }
            }
        }
    }

    /// Runs the witness searches for contracting `v` and feeds every
    /// shortcut that survives them — `(in_arc, out_arc, weight)` with no
    /// witness found — to `f`. Shared by the counting (priority) and
    /// collecting (contraction) passes, which differ only in their
    /// settle budget.
    fn for_each_shortcut(
        &self,
        scr: &mut WitnessScratch,
        v: NodeId,
        settle_limit: usize,
        mut f: impl FnMut(u32, u32, f64),
    ) {
        let vi = v.index();
        for &ia in &self.inn[vi] {
            let u = self.arcs[ia as usize].tail;
            let w_uv = self.arcs[ia as usize].weight;
            let mut bound = f64::NEG_INFINITY;
            for &oa in &self.out[vi] {
                let arc = self.arcs[oa as usize];
                if arc.head != u {
                    bound = bound.max(w_uv + arc.weight);
                }
            }
            if bound == f64::NEG_INFINITY {
                continue; // no targets besides u itself
            }
            self.witness_search(scr, u, v, bound, settle_limit);
            for &oa in &self.out[vi] {
                let arc = self.arcs[oa as usize];
                if arc.head == u {
                    continue;
                }
                let sw = w_uv + arc.weight;
                if scr.dist(arc.head) <= sw {
                    continue; // a path avoiding v is at least as good
                }
                f(ia, oa, sw);
            }
        }
    }

    /// Would-be shortcut count of contracting `v` — the priority input.
    /// Counting runs on a quarter of the witness budget: an inconclusive
    /// search just overestimates the count (shifting the heuristic order
    /// a little), while the definitive pass that actually *inserts*
    /// shortcuts keeps the full budget, so correctness and the shortcut
    /// set never depend on this shortcut. Estimation is the dominant
    /// witness volume, so the smaller budget is most of the single-thread
    /// build cost.
    fn count_shortcuts(&self, scr: &mut WitnessScratch, v: NodeId) -> usize {
        let mut count = 0usize;
        self.for_each_shortcut(
            scr,
            v,
            (self.witness_settle_limit / 4).max(16),
            |_, _, _| count += 1,
        );
        count
    }

    /// Definitive shortcut list for contracting `v` (full settle budget).
    fn collect_shortcuts(&self, scr: &mut WitnessScratch, v: NodeId) -> Vec<(u32, u32, f64)> {
        let mut result = Vec::new();
        self.for_each_shortcut(scr, v, self.witness_settle_limit, |ia, oa, sw| {
            result.push((ia, oa, sw))
        });
        result
    }

    /// Whether `v`'s `(priority, id)` key beats every live overlay
    /// neighbor's — the independent-set membership test. Strict total
    /// order, so no two adjacent nodes can both pass.
    fn is_local_minimum(&self, v: u32, prio: &[i64]) -> bool {
        let key = (prio[v as usize], v);
        for list in [&self.out[v as usize], &self.inn[v as usize]] {
            for &aid in list.iter() {
                let arc = self.arcs[aid as usize];
                let x = if arc.tail.0 == v {
                    arc.head.0
                } else {
                    arc.tail.0
                };
                if (prio[x as usize], x) < key {
                    return false;
                }
            }
        }
        true
    }

    /// Queues `v` and its live overlay neighbors for a candidacy
    /// recheck (deduplicated via `mark`).
    fn push_with_neighbors(&self, v: u32, recheck: &mut Vec<u32>, mark: &mut [bool]) {
        if !mark[v as usize] {
            mark[v as usize] = true;
            recheck.push(v);
        }
        for list in [&self.out[v as usize], &self.inn[v as usize]] {
            for &aid in list.iter() {
                let arc = self.arcs[aid as usize];
                let x = if arc.tail.0 == v {
                    arc.head.0
                } else {
                    arc.tail.0
                };
                if !mark[x as usize] {
                    mark[x as usize] = true;
                    recheck.push(x);
                }
            }
        }
    }

    /// Priority of contracting `v` given its would-be shortcut count.
    fn priority(&self, v: NodeId, num_shortcuts: usize) -> i64 {
        let vi = v.index();
        let degree = (self.inn[vi].len() + self.out[vi].len()) as i64;
        let edge_difference = num_shortcuts as i64 - degree;
        2 * edge_difference + self.deleted_neighbors[vi] as i64 + self.level[vi] as i64
    }

    /// Contracts `v`: materializes `shortcuts`, prunes `v` from its
    /// neighbors' live lists, bumps their `deleted_neighbors`, marks them
    /// stale (selection refreshes their priority before trusting it) and
    /// queues them for a candidacy recheck (their neighbor set just
    /// changed). Sequential commit phase only.
    fn contract(
        &mut self,
        v: NodeId,
        shortcuts: Vec<(u32, u32, f64)>,
        stale: &mut [bool],
        recheck: &mut Vec<u32>,
        recheck_mark: &mut [bool],
    ) {
        let vi = v.index();
        for (ia, oa, weight) in shortcuts {
            let tail = self.arcs[ia as usize].tail;
            let head = self.arcs[oa as usize].head;
            // Retire strictly heavier parallel core arcs: the witness
            // search already suppresses the new shortcut when an existing
            // arc is at least as light, so only the `heavier` direction
            // needs handling here.
            let mut i = 0;
            while i < self.out[tail.index()].len() {
                let old = self.out[tail.index()][i];
                let old_arc = self.arcs[old as usize];
                if old_arc.head == head && old_arc.weight > weight {
                    self.out[tail.index()].swap_remove(i);
                    if let Some(p) = self.inn[head.index()].iter().position(|&a| a == old) {
                        self.inn[head.index()].swap_remove(p);
                    }
                    self.dead[old as usize] = true;
                } else {
                    i += 1;
                }
            }
            let id = self.arcs.len() as u32;
            self.arcs.push(ChArc {
                tail,
                head,
                weight,
                unpack: Unpack::Shortcut(ia, oa),
            });
            self.dead.push(false);
            self.out[tail.index()].push(id);
            self.inn[head.index()].push(id);
        }
        self.contracted[vi] = true;
        let arcs = &self.arcs;
        for list in [
            std::mem::take(&mut self.inn[vi]),
            std::mem::take(&mut self.out[vi]),
        ] {
            for aid in list {
                let arc = arcs[aid as usize];
                let x = if arc.tail == v { arc.head } else { arc.tail };
                if self.contracted[x.index()] {
                    continue;
                }
                self.deleted_neighbors[x.index()] += 1;
                self.level[x.index()] = self.level[x.index()].max(self.level[vi] + 1);
                self.out[x.index()].retain(|&a| arcs[a as usize].head != v);
                self.inn[x.index()].retain(|&a| arcs[a as usize].tail != v);
                stale[x.index()] = true;
                if !recheck_mark[x.index()] {
                    recheck_mark[x.index()] = true;
                    recheck.push(x.0);
                }
            }
        }
    }
}

impl ContractionHierarchy {
    /// Builds the hierarchy with default tuning.
    pub fn build(net: Arc<RoadNetwork>) -> Self {
        Self::build_with(net, ChConfig::default())
    }

    /// Builds the hierarchy with batched independent-set contraction
    /// (see the module docs); fully deterministic for a given network
    /// and config — including across thread counts. Panics if any edge
    /// weight is not strictly positive.
    pub fn build_with(net: Arc<RoadNetwork>, cfg: ChConfig) -> Self {
        let n = net.num_nodes();
        let num_original = net.num_edges();
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            cfg.threads
        };
        let mut ov = Overlay::new(&net, cfg.witness_settle_limit);
        let mut rank = vec![0u32; n];
        let mut prio = vec![0i64; n];
        // One witness scratch per worker, reused across every round (the
        // versioned arrays make reset an integer bump, so rounds pay no
        // allocation or clearing).
        let mut scratch: Vec<WitnessScratch> =
            (0..threads).map(|_| WitnessScratch::new(n)).collect();
        let seed: Vec<u32> = (0..n as u32).collect();
        // `stale[v]`: the overlay changed near `v` (a neighbor contracted)
        // after `prio[v]` was last computed. Stale priorities still
        // participate in selection — exactly like the stale entries of a
        // lazy contraction queue — and are refreshed only when the node
        // becomes a selection candidate, so the priority work tracks the
        // near-minimum frontier instead of every dirtied node.
        let mut stale = vec![false; n];
        // Candidacy ("my (priority, id) key beats every live overlay
        // neighbor's") is maintained incrementally: a node's flag can only
        // flip when its own key, a neighbor's key, or its neighbor set
        // changes, so freshens and commits push exactly those nodes onto
        // the `recheck` worklist instead of rescanning every live node.
        let mut is_cand = vec![false; n];
        let mut cand_list: Vec<u32> = Vec::new();
        let mut recheck: Vec<u32> = seed.clone();
        let mut recheck_mark = vec![true; n];
        let mut sel: Vec<u32> = Vec::new();
        let mut stale_sel: Vec<u32> = Vec::new();
        let mut next_rank = 0u32;
        // Phase 0: one full parallel priority pass seeds every node.
        let counts = crate::parallel::work_steal_map_indexed(&seed, &mut scratch, |scr, _, &v| {
            ov.count_shortcuts(scr, NodeId(v))
        });
        for (&v, &c) in seed.iter().zip(&counts) {
            prio[v as usize] = ov.priority(NodeId(v), c);
        }
        while (next_rank as usize) < n {
            // Phases 1+2, fused: deterministic independent set — live
            // nodes whose (priority, id) key beats every live overlay
            // neighbor's — with lazy freshening. Candidates whose stored
            // priority is stale recompute it (in parallel) and candidacy
            // is re-evaluated where the fresh values shifted the minima;
            // once every candidate is fresh, the set is final. Each pass
            // freshens at least one stale node or terminates, and a fully
            // fresh overlay always has its global minimum as a candidate,
            // so every round selects at least one node.
            loop {
                for &v in &recheck {
                    recheck_mark[v as usize] = false;
                    let vi = v as usize;
                    let cand = !ov.contracted[vi] && ov.is_local_minimum(v, &prio);
                    if cand && !is_cand[vi] {
                        cand_list.push(v);
                    }
                    is_cand[vi] = cand;
                }
                recheck.clear();
                cand_list.retain(|&v| is_cand[v as usize]);
                cand_list.sort_unstable();
                cand_list.dedup();
                sel.clone_from(&cand_list);
                stale_sel.clear();
                stale_sel.extend(sel.iter().copied().filter(|&v| stale[v as usize]));
                if stale_sel.is_empty() {
                    break;
                }
                let counts = crate::parallel::work_steal_map_indexed(
                    &stale_sel,
                    &mut scratch,
                    |scr, _, &v| ov.count_shortcuts(scr, NodeId(v)),
                );
                for (&v, &c) in stale_sel.iter().zip(&counts) {
                    let fresh = ov.priority(NodeId(v), c);
                    stale[v as usize] = false;
                    if fresh != prio[v as usize] {
                        prio[v as usize] = fresh;
                        // The key moved: v's own candidacy and every
                        // neighbor's may flip.
                        ov.push_with_neighbors(v, &mut recheck, &mut recheck_mark);
                    }
                }
            }
            debug_assert!(!sel.is_empty(), "the global minimum is always selected");
            // Quality guard: contract only candidates whose priority is
            // near the round's best. Independent local minima far above
            // the minimum *could* contract now, but doing so diverges
            // from the (priority-ordered) sequential schedule and
            // measurably worsens the hierarchy; leaving them as
            // candidates for a later round costs only round count. The
            // cutoff widens to the MIN_BATCH-th smallest candidate
            // priority so rounds stay wide enough to parallelize.
            let cutoff = if sel.len() <= MIN_BATCH {
                i64::MAX
            } else {
                let mut prios: Vec<i64> = sel.iter().map(|&v| prio[v as usize]).collect();
                prios.sort_unstable();
                (prios[0] + PRIORITY_SLACK).max(prios[MIN_BATCH - 1])
            };
            sel.retain(|&v| prio[v as usize] <= cutoff);
            for &v in &sel {
                ov.selected[v as usize] = true;
            }
            // Phase 3: definitive witness searches for the whole selected
            // set, in parallel, all against the same immutable overlay.
            let shortcut_lists =
                crate::parallel::work_steal_map_indexed(&sel, &mut scratch, |scr, _, &v| {
                    ov.collect_shortcuts(scr, NodeId(v))
                });
            // Phase 4: sequential commit in ascending node id.
            for (&v, shortcuts) in sel.iter().zip(shortcut_lists) {
                ov.contract(
                    NodeId(v),
                    shortcuts,
                    &mut stale,
                    &mut recheck,
                    &mut recheck_mark,
                );
                rank[v as usize] = next_rank;
                next_rank += 1;
            }
            for &v in &sel {
                ov.selected[v as usize] = false;
                is_cand[v as usize] = false;
            }
        }
        debug_assert_eq!(next_rank as usize, n);

        // Partition arcs into the two upward search graphs (CSR),
        // skipping self-loops (never on a shortest path with w > 0) and
        // arcs superseded by lighter parallel shortcuts.
        let arcs = ov.arcs;
        let dead = ov.dead;
        let num_shortcuts = arcs.len() - num_original;
        let mut fwd_count = vec![0u32; n + 1];
        let mut bwd_count = vec![0u32; n + 1];
        for (id, arc) in arcs.iter().enumerate() {
            if arc.tail == arc.head || dead[id] {
                continue;
            }
            if rank[arc.tail.index()] < rank[arc.head.index()] {
                fwd_count[arc.tail.index() + 1] += 1;
            } else {
                bwd_count[arc.head.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fwd_count[i + 1] += fwd_count[i];
            bwd_count[i + 1] += bwd_count[i];
        }
        let fwd_index = fwd_count.clone();
        let bwd_index = bwd_count.clone();
        let mut fwd_arcs = vec![0u32; fwd_index[n] as usize];
        let mut bwd_arcs = vec![0u32; bwd_index[n] as usize];
        let mut fwd_cursor = fwd_count;
        let mut bwd_cursor = bwd_count;
        for (id, arc) in arcs.iter().enumerate() {
            if arc.tail == arc.head || dead[id] {
                continue;
            }
            if rank[arc.tail.index()] < rank[arc.head.index()] {
                let c = &mut fwd_cursor[arc.tail.index()];
                fwd_arcs[*c as usize] = id as u32;
                *c += 1;
            } else {
                let c = &mut bwd_cursor[arc.head.index()];
                bwd_arcs[*c as usize] = id as u32;
                *c += 1;
            }
        }
        ContractionHierarchy {
            net,
            rank: rank.into(),
            arcs,
            fwd_index: fwd_index.into(),
            fwd_arcs: fwd_arcs.into(),
            bwd_index: bwd_index.into(),
            bwd_arcs: bwd_arcs.into(),
            num_shortcuts,
        }
    }

    /// Number of shortcut arcs the contraction inserted.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the built hierarchy — ranks, augmented arc set with
    /// unpacking information, both CSR search graphs — into a
    /// [`press_store`] container. Loading restores the **exact in-memory
    /// layout**, so a warm-started hierarchy answers every query
    /// bit-identically to the freshly built one while skipping the
    /// contraction entirely (the dominant preprocessing cost at city
    /// scale: ~100 s at 102k nodes vs a single small read).
    ///
    /// Every array is one fixed-width little-endian section, 8-byte
    /// aligned (`rank`, `arcs_f`, `{fwd,bwd}_{index,arcs}_f`; see the
    /// crate-private `store_codec` module), so an owned load and a mapped
    /// open read the same bytes through the same validator, and a mapped
    /// open borrows them in place. `meta` holds the node, arc and
    /// shortcut counts and the network's edge fingerprint. The compact
    /// sections earlier writers emitted beside these (`arcs_c`,
    /// `*_index_c`, `*_arcs_c`) are retired names that readers ignore, so
    /// such files still load; a file without the flat family is refused
    /// with a typed `MissingSection`.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        use crate::store_codec::encode_u32s_flat;
        let mut meta = press_store::ByteWriter::with_capacity(28);
        meta.put_u64(self.rank.len() as u64);
        meta.put_u64(self.arcs.len() as u64);
        meta.put_u64(self.num_shortcuts as u64);
        meta.put_u32(crate::store_codec::edge_fingerprint(&self.net));
        let mut w = press_store::StoreWriter::new(press_store::kind::CONTRACTION_HIERARCHY);
        w.section("meta", meta.into_bytes());
        w.section_aligned("rank", encode_u32s_flat(&self.rank));
        w.section_aligned("arcs_f", encode_arcs_flat(&self.arcs));
        w.section_aligned("fwd_index_f", encode_u32s_flat(&self.fwd_index));
        w.section_aligned("fwd_arcs_f", encode_u32s_flat(&self.fwd_arcs));
        w.section_aligned("bwd_index_f", encode_u32s_flat(&self.bwd_index));
        w.section_aligned("bwd_arcs_f", encode_u32s_flat(&self.bwd_arcs));
        w.to_bytes()
    }

    /// Writes the hierarchy artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a hierarchy over `net` from container bytes; see
    /// [`Self::open_mapped`] for what is validated.
    pub fn from_store_bytes(
        net: Arc<RoadNetwork>,
        bytes: Vec<u8>,
    ) -> press_store::Result<ContractionHierarchy> {
        Self::from_file(net, press_store::StoreFile::from_bytes(bytes)?)
    }

    /// Loads a hierarchy artifact from `path` (one contiguous read); see
    /// [`Self::open_mapped`] for what is validated.
    pub fn load_from(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<ContractionHierarchy> {
        Self::from_file(net, press_store::StoreFile::open(path)?)
    }

    /// Opens a hierarchy artifact as a read-only mapping whose id arrays
    /// the hierarchy borrows in place (the mapping stays alive through
    /// them). Before returning, every section is CRC-checked on first
    /// touch and every structural invariant validated — the rank
    /// permutation, each arc against the network (originals byte for
    /// byte, shortcuts concatenating their children with the exact weight
    /// sum), and both CSR search graphs (shape, ascending ids, each arc
    /// filed under its own node and pointing up) — so corrupt input is a
    /// typed [`press_store::StoreError`], never a panic or a wrong
    /// answer. The owned loads run the same reader.
    pub fn open_mapped(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<ContractionHierarchy> {
        Self::from_file(net, press_store::StoreFile::open_mapped(path)?)
    }

    /// The one reader behind every load path (see [`Self::open_mapped`]).
    fn from_file(
        net: Arc<RoadNetwork>,
        file: press_store::StoreFile,
    ) -> press_store::Result<ContractionHierarchy> {
        use press_store::{FlatSlice, StoreError};
        file.expect_kind(press_store::kind::CONTRACTION_HIERARCHY)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fp = meta.get_u32()?;
        meta.expect_end("meta")?;
        crate::store_codec::check_meta(&net, "hierarchy", fp, n, num_arcs, num_shortcuts)?;
        let rank: FlatSlice<u32> = file.flat_section("rank")?;
        if rank.len() != n {
            return Err(StoreError::Corrupt(format!(
                "rank: {} entries instead of the declared {n}",
                rank.len()
            )));
        }
        let mut seen = vec![false; n];
        for (v, &rk) in rank.iter().enumerate() {
            if rk as usize >= n || std::mem::replace(&mut seen[rk as usize], true) {
                return Err(StoreError::Corrupt(format!(
                    "rank of node {v} ({rk}) breaks the 0..{n} permutation"
                )));
            }
        }
        let arcs = decode_arcs_flat(&net, file.section("arcs_f")?, num_arcs)?;
        let read_csr = |index_name: &str, arcs_name: &str, forward: bool| {
            let index: FlatSlice<u32> = file.flat_section(index_name)?;
            let ids: FlatSlice<u32> = file.flat_section(arcs_name)?;
            crate::store_codec::check_flat_index(&index, n + 1, ids.len() as u64, index_name)?;
            check_csr_membership(&arcs, &rank, &index, &ids, forward, arcs_name)?;
            Ok::<_, StoreError>((index, ids))
        };
        let (fwd_index, fwd_arcs) = read_csr("fwd_index_f", "fwd_arcs_f", true)?;
        let (bwd_index, bwd_arcs) = read_csr("bwd_index_f", "bwd_arcs_f", false)?;
        Ok(ContractionHierarchy {
            net,
            rank,
            arcs,
            fwd_index,
            fwd_arcs,
            bwd_index,
            bwd_arcs,
            num_shortcuts,
        })
    }

    /// Contraction rank of a node (0 = contracted first).
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Bidirectional upward query. Returns the exact distance (weight
    /// re-accumulated left-to-right over the unpacked original edges, so
    /// it is bit-identical to the canonical Dijkstra distance) and the
    /// unpacked edge path. `None` when `t` is unreachable from `s`;
    /// `Some((0.0, []))` when `s == t`.
    ///
    /// Label state lives in thread-local versioned arrays (no per-query
    /// allocation or clearing), and settled nodes are **stalled on
    /// demand**: a node whose label is *strictly* beaten by a detour over
    /// a higher-ranked neighbor cannot lie on any minimal up-down path,
    /// so its relaxations are skipped. Strict inequality keeps exactly-
    /// tied paths alive, preserving the canonical tie handling.
    fn query(&self, s: NodeId, t: NodeId) -> Option<(f64, Vec<EdgeId>)> {
        if s == t {
            return Some((0.0, Vec::new()));
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let ver = scratch.begin(self.net.num_nodes());
            let xi = s.index();
            scratch.fdist[xi] = 0.0;
            scratch.fpar[xi] = NO_ARC;
            scratch.fver[xi] = ver;
            let xi = t.index();
            scratch.bdist[xi] = 0.0;
            scratch.bpar[xi] = NO_ARC;
            scratch.bver[xi] = ver;
            scratch.fheap.push(QueueEntry {
                dist: 0.0,
                node: s.0,
            });
            scratch.bheap.push(QueueEntry {
                dist: 0.0,
                node: t.0,
            });
            let mut best = f64::INFINITY;
            let mut meet: Option<u32> = None;

            let mut f_done = false;
            let mut b_done = false;
            while !(f_done && b_done) {
                if !f_done {
                    f_done = Self::settle_step(
                        &self.arcs,
                        &self.fwd_index,
                        &self.fwd_arcs,
                        &self.bwd_index,
                        &self.bwd_arcs,
                        true,
                        &mut scratch.fheap,
                        &mut scratch.fdist,
                        &mut scratch.fpar,
                        &mut scratch.fver,
                        &scratch.bdist,
                        &scratch.bver,
                        ver,
                        &mut best,
                        &mut meet,
                    );
                }
                if !b_done {
                    b_done = Self::settle_step(
                        &self.arcs,
                        &self.bwd_index,
                        &self.bwd_arcs,
                        &self.fwd_index,
                        &self.fwd_arcs,
                        false,
                        &mut scratch.bheap,
                        &mut scratch.bdist,
                        &mut scratch.bpar,
                        &mut scratch.bver,
                        &scratch.fdist,
                        &scratch.fver,
                        ver,
                        &mut best,
                        &mut meet,
                    );
                }
            }
            let m = meet? as usize;

            // Reconstruct: forward parents give s→m (reversed), backward
            // parents give m→t (already in path order).
            let mut chain = Vec::new();
            let mut x = m;
            loop {
                let parent = scratch.fpar[x];
                if parent == NO_ARC {
                    break;
                }
                chain.push(parent);
                x = self.arcs[parent as usize].tail.index();
            }
            chain.reverse();
            let mut edges = Vec::new();
            for aid in chain {
                self.expand(aid, &mut edges);
            }
            let mut x = m;
            loop {
                let parent = scratch.bpar[x];
                if parent == NO_ARC {
                    break;
                }
                self.expand(parent, &mut edges);
                x = self.arcs[parent as usize].head.index();
            }
            // Left-to-right re-accumulation — the exact float-addition
            // order Dijkstra's `dist[v] = dist[p] + w(e)` recursion uses.
            let mut dist = 0.0f64;
            for &e in &edges {
                dist += self.net.weight(e);
            }
            Some((dist, edges))
        })
    }

    /// Settles (at most) one node in one search direction; returns true
    /// when the direction is exhausted (empty queue or min key ≥ best).
    #[allow(clippy::too_many_arguments)]
    fn settle_step(
        arcs: &[ChArc],
        index: &[u32],
        arc_ids: &[u32],
        stall_index: &[u32],
        stall_arc_ids: &[u32],
        forward: bool,
        heap: &mut BinaryHeap<QueueEntry>,
        dist: &mut [f64],
        par: &mut [u32],
        verv: &mut [u32],
        odist: &[f64],
        over: &[u32],
        ver: u32,
        best: &mut f64,
        meet: &mut Option<u32>,
    ) -> bool {
        loop {
            let Some(QueueEntry { dist: d, node: x }) = heap.pop() else {
                return true;
            };
            let xi = x as usize;
            if d > dist[xi] {
                continue; // stale
            }
            if d >= *best {
                return true;
            }
            // Stall-on-demand: the opposite CSR holds exactly the arcs
            // that *descend into* x (forward case) or *ascend out of* x
            // (backward case); a strictly better label through any such
            // higher-ranked neighbor proves x's label is off-path.
            let mut stalled = false;
            for &aid in &stall_arc_ids[stall_index[xi] as usize..stall_index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let c = if forward { arc.tail } else { arc.head };
                let ci = c.index();
                if verv[ci] == ver && dist[ci] + arc.weight < d {
                    stalled = true;
                    break;
                }
            }
            if stalled {
                continue;
            }
            for &aid in &arc_ids[index[xi] as usize..index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let y = if forward { arc.head } else { arc.tail };
                let yi = y.index();
                let nd = d + arc.weight;
                if verv[yi] != ver || nd < dist[yi] {
                    dist[yi] = nd;
                    par[yi] = aid;
                    verv[yi] = ver;
                    heap.push(QueueEntry {
                        dist: nd,
                        node: y.0,
                    });
                    if over[yi] == ver {
                        let total = nd + odist[yi];
                        if total < *best {
                            *best = total;
                            *meet = Some(y.0);
                        }
                    }
                }
            }
            return false;
        }
    }

    /// Expands an arc to the original edges it represents, in path order.
    fn expand(&self, arc: u32, out: &mut Vec<EdgeId>) {
        expand_arc(&self.arcs, arc, out);
    }

    /// The canonical predecessor of `v` in the shortest-path tree rooted
    /// at `u`, given `d_uv = node_dist(u, v)`: the first (= minimum id,
    /// since CSR in-lists are id-ascending) incoming edge `e = (p, v)`
    /// with `node_dist(u, p) + w(e) == d_uv`. Returns the edge and
    /// `node_dist(u, p)` so tree walks can descend without re-querying.
    fn canonical_pred(&self, u: NodeId, v: NodeId, d_uv: f64) -> Option<(EdgeId, f64)> {
        for &e in self.net.in_edges(v) {
            let edge = self.net.edge(e);
            if edge.from == edge.to {
                continue;
            }
            let dp = match self.query(u, edge.from) {
                Some((d, _)) => d,
                None => continue,
            };
            if dp + edge.weight == d_uv {
                return Some((e, dp));
            }
        }
        None
    }

    /// `d(u, p)` for the canonical walk, with the forward half cached:
    /// one backward upward Dijkstra from `p` (stall-on-demand, early
    /// termination at the best meet — the same pruning the bidirectional
    /// query applies) meeting `u`'s precomputed forward label held by
    /// `probe`. The returned distance is the
    /// memoized re-accumulated `u → hub` prefix continued over the
    /// unpacked backward parent chain, i.e. the exact left-to-right
    /// float sum over the original edges of the winning up-down path —
    /// the same bits a full query re-accumulates. `None` when the search
    /// never meets the label (`p` unreachable from `u`).
    fn probe_dist(
        &self,
        probe: &mut crate::probe::SourceProbe,
        p: NodeId,
        fold_stack: &mut Vec<u32>,
    ) -> Option<f64> {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let ver = scratch.begin(self.net.num_nodes());
            let pi = p.index();
            scratch.bdist[pi] = 0.0;
            scratch.bpar[pi] = NO_ARC;
            scratch.bver[pi] = ver;
            scratch.bheap.push(QueueEntry {
                dist: 0.0,
                node: p.0,
            });
            let mut best = f64::INFINITY;
            let mut meet: Option<(u32, u32)> = None; // (node, fwd entry)
            while let Some(QueueEntry { dist: d, node: x }) = scratch.bheap.pop() {
                let xi = x as usize;
                if d > scratch.bdist[xi] || scratch.bver[xi] != ver {
                    continue; // stale
                }
                if d >= best {
                    break; // every later meet totals >= best
                }
                // Stall-on-demand, exactly as the query's backward side.
                let mut stalled = false;
                for &aid in
                    &self.fwd_arcs[self.fwd_index[xi] as usize..self.fwd_index[xi + 1] as usize]
                {
                    let arc = self.arcs[aid as usize];
                    let ci = arc.head.index();
                    if scratch.bver[ci] == ver && scratch.bdist[ci] + arc.weight < d {
                        stalled = true;
                        break;
                    }
                }
                if stalled {
                    continue;
                }
                if let Some((fdist, fentry)) = probe.find_hub(x) {
                    let total = fdist + d;
                    if total < best {
                        best = total;
                        meet = Some((x, fentry as u32));
                    }
                }
                for &aid in
                    &self.bwd_arcs[self.bwd_index[xi] as usize..self.bwd_index[xi + 1] as usize]
                {
                    let arc = self.arcs[aid as usize];
                    let yi = arc.tail.index();
                    let nd = d + arc.weight;
                    if scratch.bver[yi] != ver || nd < scratch.bdist[yi] {
                        scratch.bdist[yi] = nd;
                        scratch.bpar[yi] = aid;
                        scratch.bver[yi] = ver;
                        scratch.bheap.push(QueueEntry {
                            dist: nd,
                            node: arc.tail.0,
                        });
                    }
                }
            }
            let (m, fentry) = meet?;
            let mut acc = probe.cum(&self.net, &self.arcs, fentry as usize);
            let mut x = m as usize;
            loop {
                let pa = scratch.bpar[x];
                if pa == NO_ARC {
                    break;
                }
                acc = crate::probe::fold_arc_weights(&self.net, &self.arcs, pa, acc, fold_stack);
                x = self.arcs[pa as usize].head.index();
            }
            Some(acc)
        })
    }
}

impl SpProvider for ContractionHierarchy {
    fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        match self.query(u, v) {
            Some((d, _)) => d,
            None => f64::INFINITY,
        }
    }

    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (d, _) = self.query(u, v)?;
        match self.canonical_pred(u, v, d) {
            Some((e, _)) => Some(e),
            // Unreachable in practice (the Dijkstra predecessor always
            // satisfies the float-tight equation); keep the unpacked
            // path's last edge as a safety net.
            None => self.query(u, v)?.1.last().copied(),
        }
    }

    fn approx_bytes(&self) -> usize {
        self.arcs.len() * std::mem::size_of::<ChArc>()
            + self.rank.len() * 4
            + (self.fwd_index.len() + self.bwd_index.len()) * 4
            + (self.fwd_arcs.len() + self.bwd_arcs.len()) * 4
    }

    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let a = *self.net.edge(ei);
        let b = *self.net.edge(ej);
        if a.to == b.from {
            return Some(Vec::new());
        }
        let u = a.to;
        let (d, path) = self.query(u, b.from)?;
        // Short gaps — the common case when decompressing SP-coded units
        // — walk with plain early-terminating point queries: the one-shot
        // probe context below pays a fixed exhaustive forward search that
        // only amortizes once the walk is long enough. Either way the
        // walk itself is the shared canonical tight-edge loop; a failed
        // walk falls back to the unpacked up-down path, which is still a
        // shortest path.
        if path.len() <= 8 {
            let interior = crate::probe::canonical_walk(&self.net, u, b.from, d, |p| {
                self.query(u, p).map(|(dp, _)| dp)
            });
            return Some(interior.unwrap_or(path));
        }
        // Long gaps: walk with a one-shot [`SourceProbe`](crate::probe) —
        // `u`'s forward label (its exhaustive upward search space, with
        // memoized re-accumulated hub distances) is computed once for the
        // whole walk, so each `d(u, p)` tight-edge probe costs one
        // *early-terminating* backward upward search from `p` meeting the
        // cached forward state — half of the old per-probe bidirectional
        // query — plus the unpacked backward chain only, instead of a
        // full path re-accumulation.
        let mut fwd_label = Vec::new();
        crate::hub_labels::label_search(
            &self.arcs,
            &self.fwd_index,
            &self.fwd_arcs,
            &self.bwd_index,
            &self.bwd_arcs,
            true,
            u,
            &mut fwd_label,
        );
        let mut probe = crate::probe::SourceProbe::from_entries(fwd_label.into_iter());
        let mut fold_stack = Vec::new();
        let interior = crate::probe::canonical_walk(&self.net, u, b.from, d, |p| {
            self.probe_dist(&mut probe, p, &mut fold_stack)
        });
        Some(interior.unwrap_or(path))
    }
}

impl std::fmt::Debug for ContractionHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContractionHierarchy")
            .field("nodes", &self.net.num_nodes())
            .field("original_arcs", &self.net.num_edges())
            .field("shortcuts", &self.num_shortcuts)
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;
    use crate::sp_table::SpTable;

    fn assert_matches_dense(net: &Arc<RoadNetwork>, ch: &ContractionHierarchy) {
        let dense = SpTable::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                assert_eq!(
                    dense.node_dist(u, v).to_bits(),
                    ch.node_dist(u, v).to_bits(),
                    "distance mismatch {u} -> {v}"
                );
                assert_eq!(
                    dense.pred_edge(u, v),
                    ch.pred_edge(u, v),
                    "pred mismatch {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn line_with_detour_matches_dense() {
        // v0 → v1 → v2 → v3 with a longer detour v1 → v4 → v2.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(2.0, 0.0));
        let v3 = b.add_node(Point::new(3.0, 0.0));
        let v4 = b.add_node(Point::new(1.5, 1.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v1, v2, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        b.add_edge(v1, v4, 2.0).unwrap();
        b.add_edge(v4, v2, 2.0).unwrap();
        let net = Arc::new(b.build());
        let ch = ContractionHierarchy::build(net.clone());
        assert_matches_dense(&net, &ch);
        // Derived queries too.
        let dense = SpTable::build(net.clone());
        assert_eq!(ch.sp_end(EdgeId(0), EdgeId(2)), Some(EdgeId(1)));
        assert_eq!(
            ch.sp_path(EdgeId(0), EdgeId(2)),
            dense.sp_path(EdgeId(0), EdgeId(2))
        );
        assert_eq!(
            ch.sp_mbr(EdgeId(3), EdgeId(2)),
            dense.sp_mbr(EdgeId(3), EdgeId(2))
        );
    }

    #[test]
    fn jittered_grid_matches_dense_exactly() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.2,
            removal_prob: 0.05,
            seed: 4,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        assert!(ch.num_shortcuts() > 0, "a 6x6 grid must need shortcuts");
        assert_matches_dense(&net, &ch);
    }

    #[test]
    fn tied_grid_matches_dense_exactly() {
        // Zero jitter: every block has the same weight, so shortest paths
        // tie massively — the canonical tie-break must keep CH and dense
        // bit-identical, including predecessor edges.
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.0,
            removal_prob: 0.0,
            seed: 1,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        assert_matches_dense(&net, &ch);
        // Edge-level derived queries on a sample.
        let dense = SpTable::build(net.clone());
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(5) {
            for &ej in edges.iter().rev().step_by(7) {
                assert_eq!(dense.sp_end(ei, ej), ch.sp_end(ei, ej));
                assert_eq!(dense.sp_interior(ei, ej), ch.sp_interior(ei, ej));
                assert_eq!(dense.sp_mbr(ei, ej), ch.sp_mbr(ei, ej));
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        // Two components: v0 → v1 and v2 → v3.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(5.0, 0.0));
        let v3 = b.add_node(Point::new(6.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        let net = Arc::new(b.build());
        let ch = ContractionHierarchy::build(net.clone());
        assert_matches_dense(&net, &ch);
        assert_eq!(ch.node_dist(v0, v2), f64::INFINITY);
        assert_eq!(ch.pred_edge(v0, v2), None);
        assert_eq!(ch.node_dist(v1, v0), f64::INFINITY);
        assert!(ch.sp_interior(EdgeId(0), EdgeId(1)).is_none());
        // Self distances.
        assert_eq!(ch.node_dist(v2, v2), 0.0);
        assert_eq!(ch.pred_edge(v2, v2), None);
    }

    #[test]
    fn build_is_deterministic() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 4,
            weight_jitter: 0.15,
            removal_prob: 0.05,
            seed: 8,
            ..GridConfig::default()
        }));
        let a = ContractionHierarchy::build(net.clone());
        let b = ContractionHierarchy::build(net.clone());
        assert_eq!(a.num_shortcuts(), b.num_shortcuts());
        for v in net.node_ids() {
            assert_eq!(a.rank(v), b.rank(v));
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_for_any_thread_count() {
        // The determinism contract (module docs): rank order, shortcut
        // arcs (including their ids), and the serialized artifact bytes
        // must not depend on the worker count — jittered and fully tied
        // regimes both.
        for jitter in [0.15, 0.0] {
            let net = Arc::new(grid_network(&GridConfig {
                nx: 6,
                ny: 5,
                weight_jitter: jitter,
                removal_prob: 0.05,
                seed: 8,
                ..GridConfig::default()
            }));
            let single = ContractionHierarchy::build_with(
                net.clone(),
                ChConfig {
                    threads: 1,
                    ..ChConfig::default()
                },
            );
            let single_bytes = single.to_store_bytes();
            for threads in [2usize, 3, 7] {
                let multi = ContractionHierarchy::build_with(
                    net.clone(),
                    ChConfig {
                        threads,
                        ..ChConfig::default()
                    },
                );
                assert_eq!(
                    single.rank, multi.rank,
                    "{threads} threads, jitter {jitter}"
                );
                assert_eq!(single.fwd_index, multi.fwd_index);
                assert_eq!(single.fwd_arcs, multi.fwd_arcs);
                assert_eq!(single.bwd_index, multi.bwd_index);
                assert_eq!(single.bwd_arcs, multi.bwd_arcs);
                assert_eq!(
                    single_bytes,
                    multi.to_store_bytes(),
                    "sp_ch.press bytes differ at {threads} threads, jitter {jitter}"
                );
            }
        }
    }

    #[test]
    fn memory_is_far_below_dense() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 2,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        let dense = SpTable::build(net.clone());
        assert!(
            ch.approx_bytes() < dense.approx_bytes(),
            "CH {} bytes vs dense {} bytes",
            ch.approx_bytes(),
            dense.approx_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_edges_are_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 0.0).unwrap();
        let net = Arc::new(b.build());
        let _ = ContractionHierarchy::build(net);
    }

    #[test]
    fn store_roundtrip_is_field_identical() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = ContractionHierarchy::build(net.clone());
        let loaded =
            ContractionHierarchy::from_store_bytes(net.clone(), built.to_store_bytes()).unwrap();
        assert_eq!(loaded.rank, built.rank);
        assert_eq!(loaded.num_shortcuts, built.num_shortcuts);
        assert_eq!(loaded.fwd_index, built.fwd_index);
        assert_eq!(loaded.fwd_arcs, built.fwd_arcs);
        assert_eq!(loaded.bwd_index, built.bwd_index);
        assert_eq!(loaded.bwd_arcs, built.bwd_arcs);
        assert_eq!(loaded.arcs.len(), built.arcs.len());
        for (a, b) in built.arcs.iter().zip(&loaded.arcs) {
            assert_eq!(a.tail, b.tail);
            assert_eq!(a.head, b.head);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            match (a.unpack, b.unpack) {
                (Unpack::Original(x), Unpack::Original(y)) => assert_eq!(x, y),
                (Unpack::Shortcut(x1, x2), Unpack::Shortcut(y1, y2)) => {
                    assert_eq!((x1, x2), (y1, y2))
                }
                _ => panic!("unpack variant changed across the roundtrip"),
            }
        }
        // Loaded hierarchy answers bit-identically (and hence matches the
        // dense oracle transitively).
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    built.node_dist(u, v).to_bits(),
                    loaded.node_dist(u, v).to_bits()
                );
                assert_eq!(built.pred_edge(u, v), loaded.pred_edge(u, v));
            }
        }
    }

    #[test]
    fn store_load_rejects_mismatched_network() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let other = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 7, // different weights
            ..GridConfig::default()
        }));
        let built = ContractionHierarchy::build(net.clone());
        // Same node/edge counts, different weights: the original-arc
        // cross-check must reject the pairing.
        assert!(matches!(
            ContractionHierarchy::from_store_bytes(other, built.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
        // And a truncated file is typed, not a panic.
        let mut bytes = built.to_store_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(ContractionHierarchy::from_store_bytes(net, bytes).is_err());
    }

    fn temp_artifact(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("press-ch-{}-{name}.press", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_open_is_bit_identical_to_owned_load() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = ContractionHierarchy::build(net.clone());
        let path = temp_artifact("map-ok", &built.to_store_bytes());
        let mapped = ContractionHierarchy::open_mapped(net.clone(), &path).unwrap();
        assert_eq!(mapped.rank, built.rank);
        assert_eq!(mapped.fwd_index, built.fwd_index);
        assert_eq!(mapped.fwd_arcs, built.fwd_arcs);
        assert_eq!(mapped.bwd_index, built.bwd_index);
        assert_eq!(mapped.bwd_arcs, built.bwd_arcs);
        assert_eq!(mapped.num_shortcuts, built.num_shortcuts);
        // The aligned flat sections are borrowed straight out of the
        // mapping — the whole point of the tier.
        assert!(
            mapped.fwd_arcs.is_borrowed(),
            "flat CSR should be zero-copy"
        );
        assert!(
            mapped.rank.is_borrowed(),
            "aligned rank should be zero-copy"
        );
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    built.node_dist(u, v).to_bits(),
                    mapped.node_dist(u, v).to_bits()
                );
                assert_eq!(built.pred_edge(u, v), mapped.pred_edge(u, v));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_open_surfaces_flat_corruption_as_typed_checksum_error() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let built = ContractionHierarchy::build(net.clone());
        let mut bytes = built.to_store_bytes();
        // Flat sections are emitted last, so the file's final byte lies
        // in `bwd_arcs_f`: both loads name it as a checksum mismatch.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let want = Some(press_store::StoreError::ChecksumMismatch {
            section: "bwd_arcs_f".into(),
        });
        let got = crate::store_codec::tests::verdicts(
            &bytes,
            |b| ContractionHierarchy::from_store_bytes(net.clone(), b),
            |p| ContractionHierarchy::open_mapped(net.clone(), p),
        );
        assert_eq!(got, (want.clone(), want));
    }

    /// One CRC-valid rewrite per rule the reader enforces: both loads
    /// refuse it with the same typed `Corrupt` naming that rule.
    #[test]
    fn mapped_open_and_owned_load_refuse_every_broken_rule() {
        use crate::store_codec::encode_u32s_flat as le;
        use crate::store_codec::tests::{csr_insert, section_u32s, verdicts, with_section};
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = ContractionHierarchy::build(net.clone());
        let good = built.to_store_bytes();
        let (n, s) = (net.num_nodes(), net.num_edges());
        let (index, ids) = (
            section_u32s(&good, "fwd_index_f"),
            section_u32s(&good, "fwd_arcs_f"),
        );
        let csr = |(index, ids): (Vec<u32>, Vec<u32>)| {
            let bytes = with_section(&good, "fwd_index_f", le(&index));
            with_section(&bytes, "fwd_arcs_f", le(&ids))
        };
        // `arcs_f` as u32 words, six per arc: tail, head, weight (2), a, b.
        let arcs = section_u32s(&good, "arcs_f");
        let arcs_with = |word: usize, value: u32| {
            let mut words = arcs.clone();
            words[word] = value;
            with_section(&good, "arcs_f", le(&words))
        };
        assert_eq!(
            arcs_with(0, arcs[0]),
            good,
            "a rewrite alone changes nothing"
        );
        let Unpack::Shortcut(c1, c2) = built.arcs[s].unpack else {
            panic!("arc {s} is the first shortcut")
        };
        let concat =
            format!("arcs_f: shortcut arc {s} does not concatenate its children ({c1}, {c2})");
        let mut rank = section_u32s(&good, "rank");
        rank[1] = rank[0];
        let (mut starts_high, mut unsorted, mut long) = (index.clone(), index.clone(), ids.clone());
        starts_high[0] = 1;
        unsorted[1] = unsorted[2] + 1;
        long.push(0);
        let pair = (0..n).find(|&v| index[v + 1] - index[v] >= 2).unwrap();
        let mut dup = ids.clone();
        dup[index[pair] as usize + 1] = dup[index[pair] as usize];
        let w = (0..n).find(|&w| index[w + 1] > index[w]).unwrap();
        let (foreign, other) = (ids[index[w] as usize], (w + 1) % n);
        let down = section_u32s(&good, "bwd_arcs_f")[0];
        let tail = built.arcs[down as usize].tail.index();
        let misfiled = |a: u32, v: usize| {
            format!("fwd_arcs_f: arc {a} filed under node {v} is not one of its upward arcs")
        };
        let rows = [
            (
                "rank is no permutation",
                with_section(&good, "rank", le(&rank)),
                format!("rank of node 1 ({}) breaks the 0..{n} permutation", rank[0]),
            ),
            (
                "index starts above 0",
                csr((starts_high, ids.clone())),
                "fwd_index_f: CSR index does not start at 0".into(),
            ),
            (
                "index not monotone",
                csr((unsorted, ids.clone())),
                "fwd_index_f: CSR index is not monotone".into(),
            ),
            (
                "index ends short",
                csr((index.clone(), long)),
                format!(
                    "fwd_index_f: CSR index covers {} entries but the payload has {}",
                    ids.len(),
                    ids.len() + 1
                ),
            ),
            (
                "duplicate arc id in a group",
                csr((index.clone(), dup)),
                format!("fwd_arcs_f: arc ids of node {pair} are not strictly ascending"),
            ),
            (
                "arc filed under another node",
                csr(csr_insert(&index, &ids, other, foreign)),
                misfiled(foreign, other),
            ),
            (
                "arc not upward",
                csr(csr_insert(&index, &ids, tail, down)),
                misfiled(down, tail),
            ),
            (
                "original arc is not its edge",
                arcs_with(2, arcs[2] ^ 1),
                "arcs_f: original arc 0 does not match network edge 0".into(),
            ),
            (
                "shortcut does not concatenate",
                arcs_with(6 * s, (arcs[6 * s] + 1) % n as u32),
                concat.clone(),
            ),
            (
                "shortcut weight is no exact sum",
                arcs_with(6 * s + 2, arcs[6 * s + 2] ^ 1),
                concat,
            ),
            (
                "shortcut child not earlier",
                arcs_with(6 * s + 4, s as u32),
                format!("arcs_f: shortcut arc {s} unpacks to an out-of-range arc ({s}, {c2})"),
            ),
        ];
        for (what, bytes, want) in rows {
            let (owned, mapped) = verdicts(
                &bytes,
                |b| ContractionHierarchy::from_store_bytes(net.clone(), b),
                |p| ContractionHierarchy::open_mapped(net.clone(), p),
            );
            assert_eq!(
                owned,
                Some(press_store::StoreError::Corrupt(want)),
                "{what}"
            );
            assert_eq!(mapped, owned, "{what}: mapped");
        }
    }

    #[test]
    fn usable_as_a_provider_object() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let provider: Arc<dyn SpProvider> = Arc::new(ContractionHierarchy::build(net.clone()));
        let dense = SpTable::build(net.clone());
        for &(a, b) in &[(EdgeId(0), EdgeId(5)), (EdgeId(3), EdgeId(1))] {
            assert_eq!(provider.sp_end(a, b), dense.sp_end(a, b));
            assert_eq!(
                provider.gap_dist(a, b).to_bits(),
                dense.gap_dist(a, b).to_bits()
            );
        }
        assert!(provider.source_tree(NodeId(0)).is_none());
    }
}
