//! Contraction — the preprocessing stage of the
//! [`HubLabels`](crate::HubLabels) build.
//!
//! The labels are the exhaustive upward searches of a contraction
//! hierarchy: a node order plus the shortcut arcs that keep every
//! shortest distance among the nodes not yet contracted. This module
//! computes that order and arc set and hands the hub-label build its two
//! upward search graphs; it answers no query and writes no file of its
//! own (the arc set is persisted inside `sp_hl.press` as `arcs_f`).
//!
//! # Ordering and witness search
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
//! (the `threads` of [`HubLabels::build_with_threads`](crate::HubLabels::build_with_threads)).
//! Every round has four phases:
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
//! (including arc ids), and with them the serialized `sp_hl.press` bytes
//! are identical for every thread count** — `threads` is a throughput
//! knob, never a semantic one (property-tested across 1/2/3/7 workers).
//!
//! Precondition: **strictly positive edge weights** (asserted at build
//! time). A zero-weight edge would let float-tight predecessor chains
//! cycle, making the canonical tree ill-defined for every backend.

use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sentinel arc id ("no parent"); shared with the hub-label backend,
/// whose label entries use the same arc-id space.
pub(crate) const NO_ARC: u32 = u32::MAX;

/// Batch-shaping constants for the quality guard in
/// [`Contraction::build`]: a round contracts the candidates within
/// `PRIORITY_SLACK` of its minimum priority, widened — when that would
/// leave work too serial — to at least the `MIN_BATCH`-th smallest
/// candidate priority. `WITNESS_SETTLE_LIMIT` is the most nodes a
/// witness search may settle before giving up and inserting the shortcut
/// (larger = slower build, fewer shortcuts). All three are fixed (never
/// derived from the machine), so the schedule, and with it the artifact
/// bytes, are identical everywhere.
const PRIORITY_SLACK: i64 = 2;
const MIN_BATCH: usize = 256;
const WITNESS_SETTLE_LIMIT: usize = 128;

/// How an arc expands back to original edges.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Unpack {
    /// An original network edge.
    Original(EdgeId),
    /// A shortcut: the two constituent arc ids, in path order.
    Shortcut(u32, u32),
}

/// One arc of the augmented (original ∪ shortcut) graph, laid out as its
/// 24-byte `arcs_f` record: tail `u32`, head `u32`, weight as `f64` bits,
/// then the two unpack ids — `(edge id, NO_ARC)` for an original, the
/// child arc ids for a shortcut. The contraction builds these, and the
/// hub labels carry them so label parent pointers can unpack to original
/// edges; a loaded labeling borrows them straight out of the artifact.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub(crate) struct ChArc {
    pub(crate) tail: NodeId,
    pub(crate) head: NodeId,
    pub(crate) weight: f64,
    first: u32,
    second: u32,
}

// SAFETY: `#[repr(C)]` over two `#[repr(transparent)]` `u32` node ids, an
// `f64` and two `u32`s: 4 + 4 + 8 + 4 + 4 = 24 bytes at 8-byte alignment,
// so no padding; every bit pattern of each field is valid; and on a
// little-endian host the in-memory form is the `arcs_f` record that
// `from_le_chunk` decodes.
unsafe impl press_store::FlatPod for ChArc {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        let word = |at: usize| u32::from_le_bytes(chunk[at..at + 4].try_into().unwrap());
        ChArc {
            tail: NodeId(word(0)),
            head: NodeId(word(4)),
            weight: f64::from_bits(u64::from_le_bytes(chunk[8..16].try_into().unwrap())),
            first: word(16),
            second: word(20),
        }
    }
}

impl ChArc {
    /// The arc of original edge `e`.
    pub(crate) fn original(e: EdgeId, tail: NodeId, head: NodeId, weight: f64) -> Self {
        ChArc {
            tail,
            head,
            weight,
            first: e.0,
            second: NO_ARC,
        }
    }

    /// A shortcut over arcs `first` then `second`.
    pub(crate) fn shortcut(
        first: u32,
        second: u32,
        tail: NodeId,
        head: NodeId,
        weight: f64,
    ) -> Self {
        ChArc {
            tail,
            head,
            weight,
            first,
            second,
        }
    }

    /// How this arc expands.
    #[inline]
    pub(crate) fn unpack(&self) -> Unpack {
        if self.second == NO_ARC {
            Unpack::Original(EdgeId(self.first))
        } else {
            Unpack::Shortcut(self.first, self.second)
        }
    }
}

/// Expands an arc (recursively, via an explicit stack) to the original
/// edges it represents, in path order.
pub(crate) fn expand_arc(arcs: &[ChArc], arc: u32, out: &mut Vec<EdgeId>) {
    let mut stack = vec![arc];
    while let Some(a) = stack.pop() {
        match arcs[a as usize].unpack() {
            Unpack::Original(e) => out.push(e),
            Unpack::Shortcut(first, second) => {
                stack.push(second);
                stack.push(first);
            }
        }
    }
}

/// Encodes an arc set as the flat `arcs_f` section: each arc's 24-byte
/// record (see [`ChArc`]). Endpoints and weights are derivable from the
/// network and the children; storing them anyway is what lets
/// [`check_arcs_flat`] cross-check every arc against the network.
pub(crate) fn encode_arcs_flat(arcs: &[ChArc]) -> Vec<u8> {
    let mut out = Vec::with_capacity(arcs.len() * 24);
    for arc in arcs {
        out.extend_from_slice(&arc.tail.0.to_le_bytes());
        out.extend_from_slice(&arc.head.0.to_le_bytes());
        out.extend_from_slice(&arc.weight.to_bits().to_le_bytes());
        out.extend_from_slice(&arc.first.to_le_bytes());
        out.extend_from_slice(&arc.second.to_le_bytes());
    }
    out
}

/// Checks a borrowed `arcs_f` arc set (see [`encode_arcs_flat`]):
/// originals must match the network edge byte-for-byte, shortcuts must
/// reference strictly earlier arcs, concatenate at the middle node, and
/// carry the exact float sum of their children. The hub-label reader's
/// first check; its caller has checked the section holds `arcs.len()`
/// whole records.
pub(crate) fn check_arcs_flat(net: &RoadNetwork, arcs: &[ChArc]) -> press_store::Result<()> {
    use press_store::StoreError;
    let num_original = net.num_edges();
    for (id, arc) in arcs.iter().enumerate() {
        let (a, b) = (arc.first, arc.second);
        if id < num_original {
            let edge = net.edge(EdgeId(id as u32));
            if a != id as u32
                || b != NO_ARC
                || edge.from != arc.tail
                || edge.to != arc.head
                || edge.weight.to_bits() != arc.weight.to_bits()
            {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: original arc {id} does not match network edge {id}"
                )));
            }
        } else {
            if a as usize >= id || b as usize >= id {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: shortcut arc {id} unpacks to an out-of-range arc ({a}, {b})"
                )));
            }
            let first = arcs[a as usize];
            let second = arcs[b as usize];
            if first.tail != arc.tail
                || second.head != arc.head
                || first.head != second.tail
                || (first.weight + second.weight).to_bits() != arc.weight.to_bits()
            {
                return Err(StoreError::Corrupt(format!(
                    "arcs_f: shortcut arc {id} does not concatenate its children ({a}, {b})"
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

/// A contracted network, as the hub-label build consumes it: the
/// augmented arc set and the two upward search graphs over it.
pub(crate) struct Contraction {
    /// All arcs: originals first, then shortcuts.
    pub(crate) arcs: Vec<ChArc>,
    /// CSR over up-arcs (tail rank < head rank), indexed by tail.
    pub(crate) fwd_index: Vec<u32>,
    pub(crate) fwd_arcs: Vec<u32>,
    /// CSR over down-arcs (tail rank > head rank), indexed by head — the
    /// backward search relaxes these from the head side.
    pub(crate) bwd_index: Vec<u32>,
    pub(crate) bwd_arcs: Vec<u32>,
}

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
    fn new(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let mut arcs = Vec::with_capacity(net.num_edges() * 2);
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        for e in net.edge_ids() {
            let edge = net.edge(e);
            assert!(
                edge.weight > 0.0,
                "contraction requires strictly positive edge weights \
                 (edge {e} has weight {}); zero-weight edges make the canonical \
                 predecessor tree ill-defined",
                edge.weight
            );
            let id = arcs.len() as u32;
            arcs.push(ChArc::original(e, edge.from, edge.to, edge.weight));
            if edge.from != edge.to {
                out[edge.from.index()].push(id);
                inn[edge.to.index()].push(id);
            }
        }
        let num_arcs = arcs.len();
        Overlay {
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
        self.for_each_shortcut(scr, v, (WITNESS_SETTLE_LIMIT / 4).max(16), |_, _, _| {
            count += 1
        });
        count
    }

    /// Definitive shortcut list for contracting `v` (full settle budget).
    fn collect_shortcuts(&self, scr: &mut WitnessScratch, v: NodeId) -> Vec<(u32, u32, f64)> {
        let mut result = Vec::new();
        self.for_each_shortcut(scr, v, WITNESS_SETTLE_LIMIT, |ia, oa, sw| {
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
            self.arcs.push(ChArc::shortcut(ia, oa, tail, head, weight));
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

impl Contraction {
    /// Contracts `net` with batched independent-set rounds on `threads`
    /// workers (at least one; see the module docs) — fully deterministic
    /// for a given network, including across thread counts. Panics if
    /// any edge weight is not strictly positive.
    pub(crate) fn build(net: &RoadNetwork, threads: usize) -> Contraction {
        let n = net.num_nodes();
        let mut ov = Overlay::new(net);
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
        Contraction {
            arcs,
            fwd_index,
            fwd_arcs,
            bwd_index,
            bwd_arcs,
        }
    }
}
