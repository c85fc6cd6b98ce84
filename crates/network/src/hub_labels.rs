//! 2-hop **hub labels** — the city-scale [`SpProvider`] backend, built
//! from a contraction-hierarchy order.
//!
//! A contraction hierarchy (the crate-private `ch` module builds one)
//! could answer a point query with a bidirectional upward *search*: two
//! Dijkstra frontiers over the up-arc graphs, a heap and a versioned
//! label array each, meeting at an apex. Hub labeling **precomputes
//! those frontiers**. For every node `v` we run the forward
//! upward search to exhaustion once and store its settled set — the
//! *forward label* `L↑(v)`: pairs `(hub, dist)` with the parent arc that
//! reached the hub — and symmetrically the backward upward search as the
//! *backward label* `L↓(v)`. The 2-hop cover property of CH (every
//! shortest path has an up-down representation whose apex survives
//! stall-on-demand pruning) guarantees
//!
//! ```text
//! d(s, t) = min over h ∈ L↑(s) ∩ L↓(t) of  d↑(s, h) + d↓(h, t)
//! ```
//!
//! so a query is a **flat scan over precomputed arrays** — no heap, no
//! graph traversal. At 102k nodes that is a few microseconds: the scan
//! touches a few hundred label entries, and the remaining cost of an
//! exact *distance* is unpacking the winning up-down path to
//! re-accumulate its weight (see below). The price is memory: labels
//! store the whole search space per node per direction, the classic
//! precompute-then-probe trade.
//!
//! # Construction
//!
//! [`HubLabels::build_with_threads`] first contracts the network (batched
//! independent-set rounds, bit-identical for any thread count; see the
//! `ch` module), then labels it. Labels are **independent per node**: one
//! exhaustive upward Dijkstra per direction per node over the
//! contraction's search graphs, with *strict* stall-on-demand (a settled
//! node whose label is strictly beaten by a detour over a higher-ranked
//! neighbor is pruned from the label; strictness keeps exactly-tied
//! apexes alive, preserving canonical tie handling). Independence makes
//! the label pass embarrassingly parallel — it fans out over the shared
//! [`work_steal_map`](crate::parallel::work_steal_map) loop, and the
//! result is **bit-identical for any thread count** because each label
//! is a pure function of the hierarchy.
//!
//! # The pinned-source row
//!
//! PRESS asks its questions in runs that share a source: `SPend(e_index,
//! e_{i+1})` keeps `e_index` while a compression run lasts, and every
//! `pred_edge` of an `sp_interior` walk (the trait's one walk, see
//! [`SpProvider::sp_interior`]) starts at the same node. The meet
//! therefore does not merge two sorted labels; each querying thread keeps
//! one **row** of `(forward distance, forward position)` indexed by hub
//! id — the source's forward label scattered into a dense array, every
//! other slot `+∞` — and a lookup is one linear pass over the *target's*
//! backward label reading `row[hub] + d↓`. Absent hubs contribute `+∞`,
//! so the pass has no "is this hub shared" branch. The winner rule is the
//! sorted merge's: minimal sum, and — hubs ascend and only strict
//! improvements replace the best — the smallest hub id among ties, so the
//! selected `(forward, backward)` entry pair is identical. The row is
//! keyed by `(instance id, source)`: ids come from a process-wide
//! counter, never repeat, and are never derived from an address, so a
//! row scattered from a dropped instance cannot be mistaken for a live
//! one's. Re-pinning un-sets the previous source's hubs (kept in a side
//! list, so the previous instance need not be alive) and sets the new
//! ones — O(label), not O(|V|). Cost: 16 B × |V| per querying thread.
//!
//! # Bit-identical answers
//!
//! Label distances are only used to *select* — never returned.
//! A returned **distance** is re-accumulated **left-to-right over the
//! unpacked original edges** — the exact float-addition order canonical
//! Dijkstra uses. Every label entry carries the parent arc of its search
//! tree, so the winning up-down path unpacks without touching any graph:
//! forward parents chain the hub back to `s`, backward parents chain it
//! down to `t`, and each arc expands to original edges via the arc table
//! carried from the contraction.
//!
//! A **predecessor** (`pred_edge`, hence `SPend`, and each step of the
//! trait's `sp_interior` walk) has two routes to the same answer.
//!
//! *The exact route* — the definition, and the reference every test
//! compares against — walks the canonical tight-edge equation: the first
//! in-edge `e = (p, v)` with `node_dist(u, p) + w(e) == node_dist(u, v)`,
//! every distance exact as above. That is one unpack per in-edge.
//!
//! *The margin route* decides from label sums alone whenever they cannot
//! be wrong about the winner:
//!
//! 1. **The identity.** For strictly positive weights the oracle's
//!    (canonical Dijkstra's) distances satisfy, for every `v ≠ u`,
//!    `dist[v] = min over in-edges (p′, v) of fl(dist[p′] + w′)`: every
//!    reachable tail is settled at its final distance and relaxes all its
//!    out-edges, distances only ever drop, and nothing relaxed after `v`
//!    settles can undercut it. The canonical predecessor is the smallest
//!    edge id attaining that minimum — so an in-edge that attains it
//!    **alone** is the canonical predecessor, whatever its id.
//! 2. **Where `τ` comes from.** A label sum `a(u, p′) = d↑ + d↓` at the
//!    winning hub and the oracle's `dist[p′]` are both float sums of the
//!    positive weights of a `u → p′` path, in some association order, and
//!    neither path is longer in exact arithmetic than the true shortest
//!    one by more than its own rounding (Dijkstra's value is bounded above
//!    by the left-to-right sum along the true shortest path because float
//!    addition is monotone; the label minimum is bounded above by the sum
//!    along that path's up-down representation, which the 2-hop cover
//!    keeps in the labels). Any-order summation of `n` positive terms
//!    errs by at most `(n − 1)·ε/2` relative (`ε = f64::EPSILON`), and a
//!    simple path has `n ≤ |V| − 1` edges, so each value is within
//!    `|V|·ε/2` of the true distance and the two are within `|V|·ε` of
//!    each other. `τ = 8·|V|·ε` (`tie_margin`) takes that bound with 8×
//!    headroom, which also absorbs the one rounding of the final
//!    `+ w′` on each side. It is derived from `|V|`, not configured.
//! 3. **Why a unique margin winner is the canonical predecessor.** Put
//!    `c(e′) = a(u, p′) + w′` (`a = 0` for `p′ = u`; `+∞` when the labels
//!    share no hub). Then `|c(e′) − fl(dist[p′] + w′)| ≤ τ·c(e′)`. If the
//!    smallest candidate `c₁` and the runner-up `c₂` satisfy
//!    `c₁ < c₂·(1 − 2τ)`, then `fl(dist[p₁] + w₁) ≤ c₁(1 + τ) <
//!    c₂(1 − τ) ≤ fl(dist[p′] + w′)` for every other in-edge: edge 1
//!    attains the oracle's minimum alone, and by (1) it is the canonical
//!    predecessor. No unpack, no exact distance, no allocation. All
//!    candidates `+∞` means no tail is reachable, i.e. `v` is not.
//! 4. **What falls back.** Anything closer than `2τ`: exactly tied grids,
//!    parallel edges of equal weight, sums that collide within a few ulps.
//!    Those take the exact route unchanged, one predecessor at a time: a
//!    gap's interior asks `pred_edge` per step, so only its near-tied
//!    steps pay the exact route's unpacks.
//!
//! The exact route is thus both the fallback and the oracle the margin
//! route is property-tested against (`margin == exact == dense`), per the
//! "accelerations are provably pure" invariant in `docs/ARCHITECTURE.md`.
//!
//! # Loading
//!
//! Both load paths ([`HubLabels::open_mapped`] and
//! [`HubLabels::from_store_bytes`]) run one reader over the artifact's
//! flat sections, and it **borrows** the arc table as it borrows the label
//! arrays: `arcs_f` is a run of 24-byte records laid out as the in-memory
//! arc, so nothing is decoded. The reader checks each arc against the
//! network and each shortcut against its children. It then scans every
//! label: hubs strictly ascending and in range, each parent arc in range
//! and entering its hub, the self entry and only it parentless. The scan
//! reads a parent arc's entering node from a per-direction `u32` table
//! built once from the arcs, and walks a node's hubs and parents in one
//! loop that only flags a broken rule. A flagged node is re-checked entry
//! by entry, so the error names the rule a sequential pass names. The
//! nine section CRCs, the arc check and node-range chunks of both label
//! sets' scans run as one task list on every core. The verdict follows
//! the sequential order: the arcs, then the forward set before the
//! backward; within a set its section CRCs, its shape, then its lowest
//! failing node. The bytes load then verifies every stored distance
//! against its parent chain (`docs/FORMATS.md`, "Integrity trade").
//!
//! Precondition: strictly positive edge weights (asserted by the
//! contraction the labels are built from).

use crate::ch::{expand_arc, ChArc, Contraction, QueueEntry, NO_ARC};
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use crate::provider::SpProvider;
use press_store::FlatSlice;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One direction's labels for all nodes, in flat CSR storage: node `v`'s
/// entries live at `index[v]..index[v+1]`, sorted by hub id (which
/// fixes the meet's tie rule and lets parent chains binary-search).
/// `parent` is the arc (into the carried arc table) that reached the hub
/// in `v`'s search tree — [`NO_ARC`] exactly for the self entry
/// `(v, 0.0)`.
///
/// The arrays are [`FlatSlice`]s: owned after a build, borrows of the
/// artifact's flat sections after a load or a mapped open — `Deref`
/// keeps the query code identical.
struct LabelSet {
    index: FlatSlice<u32>,
    hub: FlatSlice<u32>,
    dist: FlatSlice<f64>,
    parent: FlatSlice<u32>,
}

impl LabelSet {
    /// Entry range of node `v`.
    #[inline]
    fn range(&self, v: NodeId) -> (usize, usize) {
        (
            self.index[v.index()] as usize,
            self.index[v.index() + 1] as usize,
        )
    }

    /// Position of `hub` within `v`'s entries, if present.
    #[inline]
    fn find(&self, v: NodeId, hub: u32) -> Option<usize> {
        let (lo, hi) = self.range(v);
        self.hub[lo..hi].binary_search(&hub).ok().map(|k| lo + k)
    }

    fn bytes(&self) -> usize {
        self.index.len() * 4 + self.hub.len() * (4 + 8 + 4)
    }
}

/// Reusable per-thread search state for label construction: versioned
/// arrays so "reset" is an integer bump, shared across the many
/// single-source searches one worker runs.
#[derive(Default)]
struct LabelScratch {
    ver: u32,
    dist: Vec<f64>,
    par: Vec<u32>,
    verv: Vec<u32>,
    heap: BinaryHeap<QueueEntry>,
}

thread_local! {
    static SCRATCH: RefCell<LabelScratch> = RefCell::new(LabelScratch::default());
    /// Reusable (arc chain, edge) buffers of `HubLabels::with_path`, so
    /// `node_dist` performs no per-lookup heap allocation.
    static QUERY_BUFS: RefCell<(Vec<u32>, Vec<EdgeId>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// This thread's pinned-source row; see the module docs.
    static PINNED: RefCell<PinnedRow> = const { RefCell::new(PinnedRow::new()) };
}

/// One slot of the pinned row: the pinned source's forward-label distance
/// to this hub and that entry's position in the forward CSR. A hub the
/// source's label lacks reads `+∞`, so summing through it can never win.
#[derive(Clone, Copy)]
struct RowSlot {
    dist: f64,
    pos: u32,
}

const ABSENT: RowSlot = RowSlot {
    dist: f64::INFINITY,
    pos: 0,
};

/// The forward label of one `(instance, source)` scattered by hub id.
struct PinnedRow {
    /// [`HubLabels::id`] of the instance the row was scattered from;
    /// `0` (never issued) while nothing valid is pinned.
    owner: u64,
    source: u32,
    slots: Vec<RowSlot>,
    /// The hubs currently set, so re-pinning un-sets exactly those —
    /// without needing the previous owner, which may be gone.
    set: Vec<u32>,
}

impl PinnedRow {
    const fn new() -> Self {
        PinnedRow {
            owner: 0,
            source: 0,
            slots: Vec::new(),
            set: Vec::new(),
        }
    }
}

/// Source of [`HubLabels::id`]: process-wide, starts at 1, never repeats.
/// `Relaxed` suffices — the id publishes no other data, it only has to
/// be unique.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

fn next_instance_id() -> u64 {
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// `τ`, the relative distance within which a label sum and the oracle's
/// distance for the same pair may differ — `8·|V|·ε`; derivation in the
/// module docs, "Bit-identical answers" (2).
fn tie_margin(num_nodes: usize) -> f64 {
    8.0 * num_nodes as f64 * f64::EPSILON
}

/// What the label sums alone could say about a predecessor question.
enum Margin<T> {
    /// The answer, provably the exact route's.
    Decided(T),
    /// Two candidates within `2τ`: only the exact route can tell.
    NearTie,
}

/// Which route answered, per thread — how the tests prove the jittered
/// regime never unpacks and the tied regime always falls back.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct Witness {
    /// Predecessors decided by margin.
    margin_picks: usize,
    /// Near-ties handed to the exact route.
    fallbacks: usize,
    /// Up-down paths unpacked.
    unpacks: usize,
}

#[cfg(test)]
thread_local! {
    static WITNESS: std::cell::Cell<Witness> = std::cell::Cell::new(Witness::default());
}

#[cfg(test)]
fn witness(bump: impl FnOnce(&mut Witness)) {
    WITNESS.with(|cell| {
        let mut w = cell.get();
        bump(&mut w);
        cell.set(w);
    });
}

/// One label entry as produced by the search: (hub, dist, parent arc).
type RawEntry = (u32, f64, u32);

/// One node's raw labels as produced by the parallel pass: (forward,
/// backward).
type RawNodeLabels = (Vec<RawEntry>, Vec<RawEntry>);

/// Exhaustive upward Dijkstra from `source` over one upward search graph
/// of the contraction with strict stall-on-demand; the settled,
/// non-stalled nodes (with final distances and parent arcs) are the
/// label, sorted by hub id.
#[allow(clippy::too_many_arguments)]
fn label_search(
    arcs: &[ChArc],
    index: &[u32],
    arc_ids: &[u32],
    stall_index: &[u32],
    stall_arc_ids: &[u32],
    forward: bool,
    source: NodeId,
    out: &mut Vec<RawEntry>,
) {
    let n = index.len() - 1;
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if s.dist.len() < n {
            s.dist.resize(n, f64::INFINITY);
            s.par.resize(n, NO_ARC);
            s.verv.resize(n, 0);
        }
        if s.ver == u32::MAX {
            s.verv.fill(0);
            s.ver = 0;
        }
        s.ver += 1;
        let ver = s.ver;
        s.heap.clear();
        let si = source.index();
        s.dist[si] = 0.0;
        s.par[si] = NO_ARC;
        s.verv[si] = ver;
        s.heap.push(QueueEntry {
            dist: 0.0,
            node: source.0,
        });
        while let Some(QueueEntry { dist: d, node: x }) = s.heap.pop() {
            let xi = x as usize;
            if d > s.dist[xi] {
                continue; // stale
            }
            // Stall-on-demand: a strictly better label through a
            // higher-ranked neighbor proves x is off every minimal
            // up-down path, so it never becomes a hub.
            let mut stalled = false;
            for &aid in &stall_arc_ids[stall_index[xi] as usize..stall_index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let c = if forward { arc.tail } else { arc.head };
                let ci = c.index();
                if s.verv[ci] == ver && s.dist[ci] + arc.weight < d {
                    stalled = true;
                    break;
                }
            }
            if stalled {
                continue;
            }
            out.push((x, d, s.par[xi]));
            for &aid in &arc_ids[index[xi] as usize..index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let y = if forward { arc.head } else { arc.tail };
                let yi = y.index();
                let nd = d + arc.weight;
                if s.verv[yi] != ver || nd < s.dist[yi] {
                    s.dist[yi] = nd;
                    s.par[yi] = aid;
                    s.verv[yi] = ver;
                    s.heap.push(QueueEntry {
                        dist: nd,
                        node: y.0,
                    });
                }
            }
        }
    });
    out.sort_unstable_by_key(|e| e.0);
}

/// A built hub labeling over one road network; see module docs.
pub struct HubLabels {
    /// Key of this instance's pinned rows; unique per construction.
    id: u64,
    net: Arc<RoadNetwork>,
    /// The augmented arc set of the contraction the labels were built
    /// from (originals first, then shortcuts) — label parent pointers index
    /// into it, and unpack through it to original edges. Owned after a
    /// build, a borrow of the artifact's `arcs_f` records after a load.
    arcs: FlatSlice<ChArc>,
    fwd: LabelSet,
    bwd: LabelSet,
}

impl HubLabels {
    /// Builds labels from scratch: contracts the network (batched rounds
    /// over every available core), then labels it with one worker per
    /// available core. Both stages are bit-identical for any core count.
    pub fn build(net: Arc<RoadNetwork>) -> Self {
        Self::build_with_threads(net, 0)
    }

    /// [`HubLabels::build`] with an explicit worker count for both
    /// stages — the contraction rounds and the label pass (`0` = one per
    /// available core). Purely a throughput knob; the labeling is
    /// bit-identical for any value: the contraction is (module docs of
    /// `ch`), and each node's label is an independent pure function of
    /// it, computed via the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop. Panics if
    /// any edge weight is not strictly positive.
    pub fn build_with_threads(net: Arc<RoadNetwork>, threads: usize) -> Self {
        let threads = if threads == 0 { workers() } else { threads };
        let ch = Contraction::build(&net, threads);
        let n = net.num_nodes();
        let nodes: Vec<u32> = (0..n as u32).collect();
        let per_node: Vec<RawNodeLabels> =
            crate::parallel::work_steal_map(&nodes, threads, |_, &v| {
                let mut fwd = Vec::new();
                let mut bwd = Vec::new();
                label_search(
                    &ch.arcs,
                    &ch.fwd_index,
                    &ch.fwd_arcs,
                    &ch.bwd_index,
                    &ch.bwd_arcs,
                    true,
                    NodeId(v),
                    &mut fwd,
                );
                label_search(
                    &ch.arcs,
                    &ch.bwd_index,
                    &ch.bwd_arcs,
                    &ch.fwd_index,
                    &ch.fwd_arcs,
                    false,
                    NodeId(v),
                    &mut bwd,
                );
                (fwd, bwd)
            });
        let assemble = |pick: fn(&RawNodeLabels) -> &Vec<RawEntry>| {
            let total: usize = per_node.iter().map(|p| pick(p).len()).sum();
            let mut index = Vec::with_capacity(n + 1);
            let mut hub = Vec::with_capacity(total);
            let mut dist = Vec::with_capacity(total);
            let mut parent = Vec::with_capacity(total);
            index.push(0);
            for p in &per_node {
                for &(h, d, pa) in pick(p) {
                    hub.push(h);
                    dist.push(d);
                    parent.push(pa);
                }
                index.push(hub.len() as u32);
            }
            LabelSet {
                index: index.into(),
                hub: hub.into(),
                dist: dist.into(),
                parent: parent.into(),
            }
        };
        assert!(
            per_node
                .iter()
                .map(|p| p.0.len() + p.1.len())
                .sum::<usize>()
                <= u32::MAX as usize,
            "label entry count overflows the CSR index type"
        );
        HubLabels {
            id: next_instance_id(),
            net,
            arcs: ch.arcs.into(),
            fwd: assemble(|p| &p.0),
            bwd: assemble(|p| &p.1),
        }
    }

    /// Total label entries across both directions.
    pub fn num_label_entries(&self) -> usize {
        self.fwd.hub.len() + self.bwd.hub.len()
    }

    /// Mean label entries per node per direction — the expected cost of
    /// one label scan (and the memory driver).
    pub fn avg_label_len(&self) -> f64 {
        self.num_label_entries() as f64 / (2 * self.net.num_nodes().max(1)) as f64
    }

    /// Runs `f` over this thread's row pinned to `(self, s)`, scattering
    /// `s`'s forward label into it first unless it is already there. `f`
    /// must not query `self` again (the row is exclusively borrowed).
    fn with_row<R>(&self, s: NodeId, f: impl FnOnce(&[RowSlot]) -> R) -> R {
        PINNED.with(|cell| {
            let row = &mut *cell.borrow_mut();
            if row.owner != self.id || row.source != s.0 {
                self.pin(row, s);
            }
            f(&row.slots)
        })
    }

    /// Re-scatters `row` for source `s`: un-set the previous hubs, set
    /// `s`'s. The row only ever grows, so a smaller instance shares the
    /// allocation a larger one made (its hubs index below its own `|V|`,
    /// every other slot is `+∞`).
    fn pin(&self, row: &mut PinnedRow, s: NodeId) {
        row.owner = 0; // nothing valid until the scatter completes
        for &h in &row.set {
            row.slots[h as usize] = ABSENT;
        }
        row.set.clear();
        let n = self.net.num_nodes();
        if row.slots.len() < n {
            row.slots.resize(n, ABSENT);
        }
        let (lo, hi) = self.fwd.range(s);
        for k in lo..hi {
            row.slots[self.fwd.hub[k] as usize] = RowSlot {
                dist: self.fwd.dist[k],
                pos: k as u32,
            };
        }
        row.set.extend_from_slice(&self.fwd.hub[lo..hi]);
        row.owner = self.id;
        row.source = s.0;
    }

    /// One pass over `t`'s backward label against the pinned row: the
    /// minimal label sum and the backward position attaining it (first,
    /// i.e. smallest hub id, among ties — the sorted merge's rule).
    /// `(+∞, _)` when the labels share no hub (unreachable).
    #[inline]
    fn scan(&self, slots: &[RowSlot], t: NodeId) -> (f64, usize) {
        let (blo, bhi) = self.bwd.range(t);
        let mut best = f64::INFINITY;
        let mut at = blo;
        for (j, (&h, &d)) in self.bwd.hub[blo..bhi]
            .iter()
            .zip(&self.bwd.dist[blo..bhi])
            .enumerate()
        {
            let total = slots[h as usize].dist + d;
            if total < best {
                best = total;
                at = blo + j;
            }
        }
        (best, at)
    }

    /// Positions of the winning meet hub in `s`'s forward and `t`'s
    /// backward label, or `None` when the labels share no hub
    /// (unreachable).
    fn meet(&self, s: NodeId, t: NodeId) -> Option<(usize, usize)> {
        self.with_row(s, |slots| {
            let (best, bi) = self.scan(slots, t);
            (best < f64::INFINITY).then(|| (slots[self.bwd.hub[bi] as usize].pos as usize, bi))
        })
    }

    /// Unpacks the winning up-down path through meet `(fi, bi)` into
    /// `edges` (cleared first): forward parents chain the hub back to `s`
    /// (collected in reverse into `chain`), backward parents chain it
    /// down to `t` (already in path order). Buffers are caller-provided
    /// so the distance hot path can reuse thread-local scratch instead of
    /// allocating per lookup.
    fn unpack_meet(
        &self,
        s: NodeId,
        t: NodeId,
        fi: usize,
        bi: usize,
        chain: &mut Vec<u32>,
        edges: &mut Vec<EdgeId>,
    ) {
        #[cfg(test)]
        witness(|w| w.unpacks += 1);
        chain.clear();
        edges.clear();
        let mut k = fi;
        loop {
            let pa = self.fwd.parent[k];
            if pa == NO_ARC {
                break;
            }
            chain.push(pa);
            let prev = self.arcs[pa as usize].tail;
            k = self
                .fwd
                .find(s, prev.0)
                .expect("forward label parent chain must stay inside the label");
        }
        chain.reverse();
        for &a in chain.iter() {
            expand_arc(&self.arcs, a, edges);
        }
        let mut k = bi;
        loop {
            let pa = self.bwd.parent[k];
            if pa == NO_ARC {
                break;
            }
            expand_arc(&self.arcs, pa, edges);
            let next = self.arcs[pa as usize].head;
            k = self
                .bwd
                .find(t, next.0)
                .expect("backward label parent chain must stay inside the label");
        }
    }

    /// Unpacks the winning up-down path `s → t` (`s != t`) into the
    /// thread-local buffers and hands its original edges to `f`, so a
    /// lookup performs no heap allocation. `None` when `t` is unreachable
    /// from `s` (the labels share no hub).
    fn with_path<R>(&self, s: NodeId, t: NodeId, f: impl FnOnce(&[EdgeId]) -> R) -> Option<R> {
        let (fi, bi) = self.meet(s, t)?;
        QUERY_BUFS.with(|cell| {
            let (chain, edges) = &mut *cell.borrow_mut();
            self.unpack_meet(s, t, fi, bi, chain, edges);
            Some(f(edges))
        })
    }

    /// The exact distance — the hot path behind `node_dist` and the
    /// per-in-edge probes of the exact route: re-accumulated
    /// left-to-right over the unpacked original edges, the exact
    /// float-addition order Dijkstra's `dist[v] = dist[p] + w(e)`
    /// recursion uses, so it is bit-identical to the canonical distance.
    fn query_dist(&self, s: NodeId, t: NodeId) -> Option<f64> {
        if s == t {
            return Some(0.0);
        }
        self.with_path(s, t, |edges| {
            edges.iter().fold(0.0f64, |d, &e| d + self.net.weight(e))
        })
    }

    /// The canonical predecessor of `v` in the tree rooted at `u` (same
    /// definition and float expression as the other backends): the first
    /// incoming edge `e = (p, v)` with `node_dist(u, p) + w(e) == d_uv`.
    fn canonical_pred(&self, u: NodeId, v: NodeId, d_uv: f64) -> Option<(EdgeId, f64)> {
        for &e in self.net.in_edges(v) {
            let edge = self.net.edge(e);
            if edge.from == edge.to {
                continue;
            }
            let Some(dp) = self.query_dist(u, edge.from) else {
                continue;
            };
            if dp + edge.weight == d_uv {
                return Some((e, dp));
            }
        }
        None
    }

    /// The exact route of `pred_edge` (`u != v`): the reference
    /// definition, and the fallback for near-ties.
    fn exact_pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let d = self.query_dist(u, v)?;
        match self.canonical_pred(u, v, d) {
            Some((e, _)) => Some(e),
            // Unreachable in practice (the Dijkstra predecessor always
            // satisfies the float-tight equation); keep the unpacked
            // path's last edge as a safety net.
            None => self.with_path(u, v, |edges| edges.last().copied())?,
        }
    }

    /// The margin route for one predecessor (module docs, "Bit-identical
    /// answers" (3)) over a row pinned to `u`: every in-edge's label-sum
    /// candidate, decided when the smallest clears the runner-up by more
    /// than `2·tau`. `u != v`.
    fn margin_pred(
        &self,
        slots: &[RowSlot],
        u: NodeId,
        v: NodeId,
        tau: f64,
    ) -> Margin<Option<EdgeId>> {
        let mut best = f64::INFINITY;
        let mut runner_up = f64::INFINITY;
        let mut pick = None;
        for &e in self.net.in_edges(v) {
            let edge = self.net.edge(e);
            if edge.from == edge.to {
                continue;
            }
            let a = if edge.from == u {
                0.0
            } else {
                self.scan(slots, edge.from).0
            };
            let c = a + edge.weight;
            if c < best {
                runner_up = best;
                best = c;
                pick = Some(e);
            } else if c < runner_up {
                runner_up = c;
            }
        }
        // `pick` is `None` exactly when no tail is reachable from `u`.
        let decided = pick.is_none() || best < runner_up * (1.0 - 2.0 * tau);
        #[cfg(test)]
        witness(|w| {
            if decided {
                w.margin_picks += 1
            } else {
                w.fallbacks += 1
            }
        });
        if decided {
            Margin::Decided(pick)
        } else {
            Margin::NearTie
        }
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the labeling into a [`press_store`] container
    /// (`sp_hl.press`): `meta` (node, arc, shortcut, forward-entry and
    /// backward-entry counts, then the network's edge fingerprint), the
    /// arc table as `arcs_f` (the contraction's arc set, 24 B per arc), and per
    /// direction `{d}_index_f`, `{d}_hub_f`, `{d}_dist_f` (IEEE bits) and
    /// `{d}_parent_f` — fixed-width little-endian and 8-byte aligned, so
    /// a mapped open borrows every array in place. The compact sections
    /// earlier writers emitted beside these (`arcs_c`, `*_index_c`,
    /// `*_hub_c`, `fwd_parent`, `bwd_parent`) are retired names readers
    /// ignore.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        use crate::store_codec::{encode_f64s_flat, encode_u32s_flat};
        let mut meta = press_store::ByteWriter::with_capacity(44);
        meta.put_u64(self.net.num_nodes() as u64);
        meta.put_u64(self.arcs.len() as u64);
        meta.put_u64((self.arcs.len() - self.net.num_edges()) as u64);
        meta.put_u64(self.fwd.hub.len() as u64);
        meta.put_u64(self.bwd.hub.len() as u64);
        meta.put_u32(crate::store_codec::edge_fingerprint(&self.net));
        let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
        w.section("meta", meta.into_bytes());
        w.section_aligned("arcs_f", crate::ch::encode_arcs_flat(&self.arcs));
        for (d, set) in [("fwd", &self.fwd), ("bwd", &self.bwd)] {
            w.section_aligned(&format!("{d}_index_f"), encode_u32s_flat(&set.index));
            w.section_aligned(&format!("{d}_hub_f"), encode_u32s_flat(&set.hub));
            w.section_aligned(&format!("{d}_dist_f"), encode_f64s_flat(&set.dist));
            w.section_aligned(&format!("{d}_parent_f"), encode_u32s_flat(&set.parent));
        }
        w.to_bytes()
    }

    /// Writes the label artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a labeling over `net` from container bytes: the
    /// checks of [`Self::open_mapped`], and on top of them every stored
    /// distance verified against its parent chain — the verifying read
    /// of `docs/FORMATS.md`'s "Integrity trade".
    pub fn from_store_bytes(
        net: Arc<RoadNetwork>,
        bytes: Vec<u8>,
    ) -> press_store::Result<HubLabels> {
        let file = press_store::StoreFile::from_bytes(bytes)?;
        Self::from_file(net, file, workers(), true)
    }

    /// Opens a label artifact as a read-only mapping whose arc table and
    /// label arrays the labeling borrows in place (the mapping stays alive
    /// through them). Before returning, every section is CRC-checked, the
    /// arc set is cross-checked against the network, and the label arrays
    /// are scanned: CSR shape, strictly ascending in-bounds hubs, parent
    /// arcs in range and entering their hub, the parentless self entry.
    /// Corrupt input is a typed [`press_store::StoreError`]. What the open
    /// *trusts* under the section CRCs — each distance, and that each
    /// parent chain stays in its label and ends — is what
    /// [`Self::from_store_bytes`] additionally verifies; `docs/FORMATS.md`
    /// states the trade.
    ///
    /// The checks run as one task list through
    /// [`work_steal_map`](crate::parallel::work_steal_map) on up to
    /// `available_parallelism()` workers (module docs, "Loading"). When
    /// several are broken, the error returned is the one a sequential pass
    /// meets first.
    pub fn open_mapped(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<HubLabels> {
        let file = press_store::StoreFile::open_mapped(path)?;
        Self::from_file(net, file, workers(), false)
    }

    /// The one reader behind both load paths, on `workers` workers: the
    /// checks of [`Self::open_mapped`], plus [`verify_dists`] when
    /// `check_dists` is set (the caller's choice: [`Self::from_store_bytes`]
    /// verifies, [`Self::open_mapped`] trusts).
    ///
    /// After the metadata, every check runs as one task list on
    /// [`work_steal_map`](crate::parallel::work_steal_map): the nine
    /// section CRCs, the arc cross-check, and the structural scans of both
    /// label sets in node-range chunks. The scans read the sections before
    /// their CRCs finish ([`press_store::StoreFile::flat_section_unverified`]),
    /// and the verdict is assembled in the sequential order: the arcs
    /// (CRC, record count, cross-check), then the forward set before the
    /// backward — within a set its index, hub, dist and parent section
    /// (CRC, then element width), its CSR shape, then the lowest failing
    /// node. With `check_dists`, the distances of each set that passed
    /// are verified next, and a set's distance error ranks right after its
    /// structure.
    fn from_file(
        net: Arc<RoadNetwork>,
        file: press_store::StoreFile,
        workers: usize,
        check_dists: bool,
    ) -> press_store::Result<HubLabels> {
        use press_store::StoreError;
        file.expect_kind(press_store::kind::HUB_LABELS)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fwd_entries = meta.get_len(u32::MAX as usize, "forward label entry")?;
        let bwd_entries = meta.get_len(u32::MAX as usize, "backward label entry")?;
        let fp = meta.get_u32()?;
        meta.expect_end("meta")?;
        crate::store_codec::check_meta(&net, fp, n, num_arcs, num_shortcuts)?;

        // The views the tasks scan, taken before any CRC: the arcs when
        // the section holds `num_arcs` whole records, each set when its
        // four sections lend and its CSR shape holds.
        let arcs: press_store::Result<FlatSlice<ChArc>> = match file.section_len(ARCS) {
            Some(len) if len != num_arcs * 24 => Err(StoreError::Corrupt(format!(
                "arcs_f: {len} bytes does not match {num_arcs} arcs x 24 B"
            ))),
            _ => file.flat_section_unverified(ARCS),
        };
        let sets = [(0, fwd_entries), (1, bwd_entries)]
            .map(|(d, entries)| lend_set(&file, d, n, entries, |_| Ok(())));
        // Each parent arc's entering node, per direction: a label entry's
        // hub is checked against 4 B here instead of a 24 B arc record.
        let enters: [Vec<u32>; 2] = match &arcs {
            Ok(arcs) => [
                arcs.iter().map(|a| a.head.0).collect(),
                arcs.iter().map(|a| a.tail.0).collect(),
            ],
            Err(_) => [Vec::new(), Vec::new()],
        };

        let mut tasks: Vec<OpenTask> = std::iter::once(ARCS)
            .chain(SET_SECTIONS.into_iter().flatten())
            .map(OpenTask::Crc)
            .collect();
        if arcs.is_ok() {
            tasks.push(OpenTask::Arcs);
            for (d, set) in sets.iter().enumerate() {
                if let Ok(set) = set {
                    tasks.extend(node_chunks(&set.index).map(|r| OpenTask::Scan(d, r)));
                }
            }
        }
        let verdicts = crate::parallel::work_steal_map(&tasks, workers, |_, task| match task {
            OpenTask::Crc(name) => file.section(name).map(drop),
            OpenTask::Arcs => crate::ch::check_arcs_flat(&net, arcs.as_ref().expect("tasked")),
            OpenTask::Scan(d, nodes) => {
                let set = sets[*d].as_ref().expect("tasked");
                scan_nodes(set, &enters[*d], n, nodes.clone(), *d == 0)
            }
        });
        let crc = |name: &str| -> press_store::Result<()> {
            let at = tasks
                .iter()
                .position(|t| matches!(t, OpenTask::Crc(x) if *x == name))
                .expect("one CRC task per section");
            verdicts[at].clone()
        };
        let first_scan_error = |d: usize| {
            tasks
                .iter()
                .zip(&verdicts)
                .filter(|(t, _)| matches!(t, OpenTask::Scan(x, _) if *x == d))
                .find_map(|(_, v)| v.clone().err())
        };

        crc(ARCS)?;
        let arcs = arcs?;
        if let Some((_, Err(e))) = tasks
            .iter()
            .zip(&verdicts)
            .find(|(t, _)| matches!(t, OpenTask::Arcs))
        {
            return Err(e.clone());
        }
        // Each set's structural verdict, in set order up to the first
        // failing one (no later verdict can be reported).
        let mut structure = Vec::with_capacity(2);
        for (d, set) in sets.into_iter().enumerate() {
            let verdict = match set {
                // Only a checksum or the scan can still refuse it.
                Ok(set) => SET_SECTIONS[d]
                    .into_iter()
                    .try_for_each(crc)
                    .and_then(|()| first_scan_error(d).map_or(Ok(set), Err)),
                // The sequential order over the real CRC verdicts.
                Err(_) => {
                    let entries = [fwd_entries, bwd_entries][d];
                    lend_set(&file, d, n, entries, |i| crc(SET_SECTIONS[d][i]))
                }
            };
            let failed = verdict.is_err();
            structure.push(verdict);
            if failed {
                break;
            }
        }
        // The verifying load's distance checks, on the sets whose
        // structure passed; a set's distance error ranks right after its
        // structure. (A trusting open relies on the CRCs: no pass, no
        // threads.)
        let dists = if !check_dists {
            vec![Ok(()); structure.len()]
        } else {
            crate::parallel::work_steal_map(&structure, workers, |d, set| match set {
                Ok(set) => verify_dists(set, &arcs, d == 0, SET_PREFIXES[d]),
                Err(_) => Ok(()),
            })
        };
        let mut checked = structure
            .into_iter()
            .zip(dists)
            .map(|(set, dists)| set.and_then(|set| dists.map(|()| set)))
            .collect::<press_store::Result<Vec<_>>>()?
            .into_iter();
        let (Some(fwd), Some(bwd)) = (checked.next(), checked.next()) else {
            unreachable!("both label sets passed")
        };
        Ok(HubLabels {
            id: next_instance_id(),
            net,
            arcs,
            fwd,
            bwd,
        })
    }
}

/// The arc table's section.
const ARCS: &str = "arcs_f";

/// The forward (`0`) and backward (`1`) label set's section-name prefix.
const SET_PREFIXES: [&str; 2] = ["fwd", "bwd"];

/// Each label set's sections, in the order the reader checks them.
const SET_SECTIONS: [[&str; 4]; 2] = [
    ["fwd_index_f", "fwd_hub_f", "fwd_dist_f", "fwd_parent_f"],
    ["bwd_index_f", "bwd_hub_f", "bwd_dist_f", "bwd_parent_f"],
];

/// Label entries per structural-scan task of [`HubLabels::from_file`]:
/// fixed, so the task list is a function of the file alone. Tests use a
/// tiny chunk so that their small labelings span many.
const SCAN_CHUNK_ENTRIES: usize = if cfg!(test) { 32 } else { 1 << 16 };

/// One task of [`HubLabels::from_file`]'s check list.
enum OpenTask {
    /// A section's CRC.
    Crc(&'static str),
    /// The arc set's cross-check against the network.
    Arcs,
    /// The structural scan of a node range of label set `0` (forward) or
    /// `1` (backward).
    Scan(usize, std::ops::Range<usize>),
}

/// Label set `d`'s four sections as flat views, checked in the reader's
/// order — per section `crc(i)` (its CRC verdict, `i` indexing
/// [`SET_SECTIONS`]) then its element width; then the CSR index's shape
/// and the declared entry count of the other three.
fn lend_set(
    file: &press_store::StoreFile,
    d: usize,
    n: usize,
    entries: usize,
    crc: impl Fn(usize) -> press_store::Result<()>,
) -> press_store::Result<LabelSet> {
    use press_store::StoreError;
    let [index_f, hub_f, dist_f, parent_f] = SET_SECTIONS[d];
    crc(0)?;
    let index: FlatSlice<u32> = file.flat_section_unverified(index_f)?;
    crc(1)?;
    let hub: FlatSlice<u32> = file.flat_section_unverified(hub_f)?;
    crc(2)?;
    let dist: FlatSlice<f64> = file.flat_section_unverified(dist_f)?;
    crc(3)?;
    let parent: FlatSlice<u32> = file.flat_section_unverified(parent_f)?;
    crate::store_codec::check_flat_index(&index, n + 1, entries as u64, index_f)?;
    let prefix = SET_PREFIXES[d];
    for (name, len) in [
        ("hub", hub.len()),
        ("dist", dist.len()),
        ("parent", parent.len()),
    ] {
        if len != entries {
            return Err(StoreError::Corrupt(format!(
                "{prefix}_{name}_f: {len} entries instead of the declared {entries}"
            )));
        }
    }
    Ok(LabelSet {
        index,
        hub,
        dist,
        parent,
    })
}

/// Consecutive node ranges of a CSR index (monotone, as its shape check
/// proved) holding about [`SCAN_CHUNK_ENTRIES`] entries each.
fn node_chunks(index: &[u32]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let n = index.len() - 1;
    let mut lo = 0;
    std::iter::from_fn(move || {
        (lo < n).then(|| {
            let target = index[lo] as usize + SCAN_CHUNK_ENTRIES;
            let hi = index[..n]
                .partition_point(|&x| (x as usize) < target)
                .max(lo + 1);
            std::mem::replace(&mut lo, hi)..hi
        })
    })
}

/// The structural scan of `nodes` in one label set: one branch-free pass
/// per node that only flags a broken rule — hubs strictly ascending and
/// below `n`, each parent arc entering its hub (`enters[a]` is arc `a`'s
/// entering node in this direction), [`NO_ARC`] exactly on the self entry,
/// which a non-empty label must have. A flagged node is re-checked by
/// [`check_node`], whose error is the one returned; the first in node
/// order wins.
fn scan_nodes(
    set: &LabelSet,
    enters: &[u32],
    n: usize,
    nodes: std::ops::Range<usize>,
    forward: bool,
) -> press_store::Result<()> {
    let (index, hub, parent) = (&set.index[..], &set.hub[..], &set.parent[..]);
    let n32 = n as u32;
    for v in nodes {
        let (lo, hi) = (index[v] as usize, index[v + 1] as usize);
        let mut bad = false;
        let mut selfs = 0u32;
        // The smallest hub the next entry may carry.
        let mut floor = 0u32;
        for (&h, &pa) in hub[lo..hi].iter().zip(&parent[lo..hi]) {
            let want = if pa == NO_ARC {
                v as u32
            } else {
                // `u32::MAX` is no hub (`h < n <= u32::MAX`).
                enters.get(pa as usize).copied().unwrap_or(u32::MAX)
            };
            bad |= (h < floor) | (h >= n32) | (want != h);
            selfs += u32::from(pa == NO_ARC);
            floor = h.wrapping_add(1);
        }
        if bad || (selfs == 0 && hi > lo) {
            check_node(set, enters, v, forward)?;
        }
    }
    Ok(())
}

/// The per-entry structural check of node `v`'s label, which names the
/// first broken rule in entry order — the reference [`scan_nodes`]
/// flags against.
fn check_node(set: &LabelSet, enters: &[u32], v: usize, forward: bool) -> press_store::Result<()> {
    use press_store::StoreError;
    let prefix = SET_PREFIXES[usize::from(!forward)];
    let (n, num_arcs) = (set.index.len() - 1, enters.len());
    let lo = set.index[v] as usize;
    let hi = set.index[v + 1] as usize;
    let mut prev: Option<u32> = None;
    let mut has_self = hi == lo;
    for k in lo..hi {
        let h = set.hub[k];
        if h as usize >= n || prev.is_some_and(|p| p >= h) {
            return Err(StoreError::Corrupt(format!(
                "{prefix}_hub_f: hubs of node {v} are not strictly \
                 ascending node ids"
            )));
        }
        prev = Some(h);
        let pa = set.parent[k];
        if pa == NO_ARC {
            if h != v as u32 {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: entry for hub {h} of node {v} \
                     has no parent arc"
                )));
            }
            has_self = true;
        } else {
            if pa as usize >= num_arcs {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent arc {pa} outside 0..{num_arcs}"
                )));
            }
            if enters[pa as usize] != h {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent arc {pa} of node {v}'s \
                     hub {h} does not enter it"
                )));
            }
        }
    }
    if !has_self {
        return Err(StoreError::Corrupt(format!(
            "{prefix}_parent_f: label of node {v} lacks a parentless \
             self entry"
        )));
    }
    Ok(())
}

/// The worker count every load path validates the two label sets on.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Verifies every stored distance of one label set against its parent
/// chain: resolving each entry's chain down to the node's self entry, an
/// entry's distance must be bit for bit its parent hub's plus the parent
/// arc's weight — the exact float sums the build produced — and the self
/// entry's must be `0.0`. A chain that leaves its label or cycles is
/// refused. Runs after the structural scan of [`HubLabels::from_file`],
/// which has already proved the hubs ascending, each parent arc in range
/// and entering its hub, and the one parentless entry the self entry.
fn verify_dists(
    set: &LabelSet,
    arcs: &[ChArc],
    forward: bool,
    prefix: &str,
) -> press_store::Result<()> {
    use press_store::StoreError;
    let LabelSet {
        index,
        hub,
        dist,
        parent,
    } = set;
    // 0 = unresolved, 1 = on the resolution stack, 2 = verified.
    let mut state: Vec<u8> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for v in 0..index.len() - 1 {
        let lo = index[v] as usize;
        let hi = index[v + 1] as usize;
        state.clear();
        state.resize(hi - lo, 0);
        for start in 0..hi - lo {
            if state[start] == 2 {
                continue;
            }
            stack.clear();
            stack.push(start);
            state[start] = 1;
            while let Some(&cur) = stack.last() {
                let pa = parent[lo + cur];
                let (want, next) = if pa == NO_ARC {
                    (0.0, None)
                } else {
                    let arc = arcs[pa as usize];
                    let from = if forward { arc.tail } else { arc.head };
                    let Ok(pk) = hub[lo..hi].binary_search(&from.0) else {
                        return Err(StoreError::Corrupt(format!(
                            "{prefix}_parent_f: parent chain of node {v} leaves the label at hub {}",
                            from.0
                        )));
                    };
                    match state[pk] {
                        2 => (dist[lo + pk] + arc.weight, None),
                        1 => {
                            return Err(StoreError::Corrupt(format!(
                                "{prefix}_parent_f: parent chain of node {v} cycles at hub {}",
                                from.0
                            )));
                        }
                        _ => (0.0, Some(pk)),
                    }
                };
                if let Some(pk) = next {
                    state[pk] = 1;
                    stack.push(pk);
                    continue;
                }
                if dist[lo + cur].to_bits() != want.to_bits() {
                    return Err(StoreError::Corrupt(format!(
                        "{prefix}_dist_f: distance of node {v}'s hub {} is not the sum \
                         along its parent chain",
                        hub[lo + cur]
                    )));
                }
                state[cur] = 2;
                stack.pop();
            }
        }
    }
    Ok(())
}

impl SpProvider for HubLabels {
    fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.query_dist(u, v).unwrap_or(f64::INFINITY)
    }

    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let tau = tie_margin(self.net.num_nodes());
        if let Margin::Decided(e) = self.with_row(u, |slots| self.margin_pred(slots, u, v, tau)) {
            return e;
        }
        self.exact_pred_edge(u, v)
    }

    fn approx_bytes(&self) -> usize {
        self.arcs.len() * std::mem::size_of::<ChArc>() + self.fwd.bytes() + self.bwd.bytes()
    }
}

impl std::fmt::Debug for HubLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubLabels")
            .field("nodes", &self.net.num_nodes())
            .field("label_entries", &self.num_label_entries())
            .field("avg_label_len", &self.avg_label_len())
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::Unpack;
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;
    use crate::sp_table::SpTable;
    use crate::store_codec::encode_u32s_flat;
    use crate::store_codec::tests::{section_u32s, verdicts, with_section};
    use press_store::StoreError;

    fn assert_matches_dense(net: &Arc<RoadNetwork>, hl: &HubLabels) {
        let dense = SpTable::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                assert_eq!(
                    dense.node_dist(u, v).to_bits(),
                    hl.node_dist(u, v).to_bits(),
                    "distance mismatch {u} -> {v}"
                );
                assert_eq!(
                    dense.pred_edge(u, v),
                    hl.pred_edge(u, v),
                    "pred mismatch {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn line_with_detour_matches_dense() {
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
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        let dense = SpTable::build(net.clone());
        assert_eq!(hl.sp_end(EdgeId(0), EdgeId(2)), Some(EdgeId(1)));
        assert_eq!(
            hl.sp_path(EdgeId(0), EdgeId(2)),
            dense.sp_path(EdgeId(0), EdgeId(2))
        );
        assert_eq!(
            hl.sp_mbr(EdgeId(3), EdgeId(2)),
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
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
    }

    #[test]
    fn tied_grid_matches_dense_exactly() {
        // Zero jitter: shortest paths tie massively — the canonical
        // tie-break (strict stalling, minimal-sum meet, left-to-right
        // re-accumulation) must keep HL and dense bit-identical.
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.0,
            removal_prob: 0.0,
            seed: 1,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        let dense = SpTable::build(net.clone());
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(5) {
            for &ej in edges.iter().rev().step_by(7) {
                assert_eq!(dense.sp_end(ei, ej), hl.sp_end(ei, ej));
                assert_eq!(dense.sp_interior(ei, ej), hl.sp_interior(ei, ej));
                assert_eq!(dense.sp_mbr(ei, ej), hl.sp_mbr(ei, ej));
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(5.0, 0.0));
        let v3 = b.add_node(Point::new(6.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        let net = Arc::new(b.build());
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        assert_eq!(hl.node_dist(v0, v2), f64::INFINITY);
        assert_eq!(hl.pred_edge(v0, v2), None);
        assert_eq!(hl.node_dist(v1, v0), f64::INFINITY);
        assert!(hl.sp_interior(EdgeId(0), EdgeId(1)).is_none());
        assert_eq!(hl.node_dist(v2, v2), 0.0);
        assert_eq!(hl.pred_edge(v2, v2), None);
    }

    #[test]
    fn parallel_build_is_bit_identical_for_any_thread_count() {
        // The worker count drives the contraction rounds and the label
        // pass together; the artifact bytes (arc set, both label sets)
        // must not depend on it — jittered and fully tied regimes both.
        for jitter in [0.15, 0.0] {
            let net = Arc::new(grid_network(&GridConfig {
                nx: 6,
                ny: 5,
                weight_jitter: jitter,
                removal_prob: 0.05,
                seed: 8,
                ..GridConfig::default()
            }));
            let single = HubLabels::build_with_threads(net.clone(), 1).to_store_bytes();
            for threads in [2, 3, 7] {
                let multi = HubLabels::build_with_threads(net.clone(), threads);
                assert!(
                    single == multi.to_store_bytes(),
                    "sp_hl.press bytes differ at {threads} threads, jitter {jitter}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_edges_are_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 0.0).unwrap();
        let _ = HubLabels::build(Arc::new(b.build()));
    }

    #[test]
    fn labels_cover_the_ch_search_space_but_queries_merge_flat() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 2,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build_with_threads(net.clone(), 1);
        // Labels are non-trivial (more than just self entries) and every
        // node has its self entry.
        assert!(hl.avg_label_len() > 1.0);
        for v in net.node_ids() {
            assert!(hl.fwd.find(v, v.0).is_some(), "missing self entry for {v}");
            assert!(hl.bwd.find(v, v.0).is_some());
        }
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
        let built = HubLabels::build(net.clone());
        let bytes = built.to_store_bytes();
        let loaded = HubLabels::from_store_bytes(net.clone(), bytes).unwrap();
        assert_eq!(loaded.fwd.index, built.fwd.index);
        assert_eq!(loaded.fwd.hub, built.fwd.hub);
        assert_eq!(loaded.fwd.parent, built.fwd.parent);
        assert_eq!(loaded.bwd.index, built.bwd.index);
        assert_eq!(loaded.bwd.hub, built.bwd.hub);
        assert_eq!(loaded.bwd.parent, built.bwd.parent);
        // Distances are stored, verified against their parent chains on
        // load, and match bit-for-bit.
        for (a, b) in built.fwd.dist.iter().zip(loaded.fwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in built.bwd.dist.iter().zip(loaded.bwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(loaded.arcs.len(), built.arcs.len());
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
    fn store_load_rejects_mismatched_network_and_wrong_kind() {
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
        let built = HubLabels::build(net.clone());
        // Same node/edge counts, different weights: the edge-set
        // fingerprint must reject the pairing (labels derived under other
        // weights would be a silently wrong search structure).
        assert!(matches!(
            HubLabels::from_store_bytes(other.clone(), built.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
        // Wrong artifact kind is typed — among them a `sp_dense.press` or
        // a `sp_ch.press` left on disk by an older build (the retired kind
        // ids 2 and 4), on the bytes load and the mapped open alike.
        for kind in [2, 4] {
            let bytes = press_store::StoreWriter::new(kind).to_bytes();
            let (loaded, mapped) = verdicts(
                &bytes,
                |b| HubLabels::from_store_bytes(net.clone(), b),
                |p| HubLabels::open_mapped(net.clone(), p),
            );
            assert!(
                matches!(loaded, Some(StoreError::WrongKind { .. })),
                "{loaded:?}"
            );
            assert_eq!(mapped, loaded);
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
        let provider: Arc<dyn SpProvider> = Arc::new(HubLabels::build(net.clone()));
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

    fn temp_artifact(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("press-hl-{}-{name}.press", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_open_is_bit_identical_to_bytes_load() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = HubLabels::build(net.clone());
        let path = temp_artifact("hl-identical", &built.to_store_bytes());
        let mapped = HubLabels::open_mapped(net.clone(), &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let loaded = HubLabels::from_store_bytes(net.clone(), built.to_store_bytes()).unwrap();
        // mapped ≡ bytes ≡ built, field for field, including the distances
        // the bytes load verifies but the mapped open trusts under their
        // CRC. Both loads' arrays are zero-copy views over their backing
        // (the mapping, or the aligned arena), not decoded copies.
        for hl in [&mapped, &loaded] {
            assert_eq!(hl.fwd.index, built.fwd.index);
            assert_eq!(hl.fwd.hub, built.fwd.hub);
            assert_eq!(hl.fwd.parent, built.fwd.parent);
            assert_eq!(hl.bwd.index, built.bwd.index);
            assert_eq!(hl.bwd.hub, built.bwd.hub);
            assert_eq!(hl.bwd.parent, built.bwd.parent);
            for (a, b) in built.fwd.dist.iter().zip(hl.fwd.dist.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in built.bwd.dist.iter().zip(hl.bwd.dist.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(hl.arcs.len(), built.arcs.len());
            assert!(hl.fwd.hub.is_borrowed());
            assert!(hl.fwd.dist.is_borrowed());
            assert!(hl.bwd.parent.is_borrowed());
            for u in net.node_ids() {
                for v in net.node_ids().step_by(3) {
                    assert_eq!(
                        built.node_dist(u, v).to_bits(),
                        hl.node_dist(u, v).to_bits()
                    );
                    assert_eq!(built.pred_edge(u, v), hl.pred_edge(u, v));
                }
            }
            for &(a, b) in &[(EdgeId(0), EdgeId(17)), (EdgeId(9), EdgeId(3))] {
                assert_eq!(built.sp_interior(a, b), hl.sp_interior(a, b));
            }
        }
    }

    /// The labeling fixture of the refusal tests, and its artifact.
    fn refusal_fixture() -> (Arc<RoadNetwork>, HubLabels, Vec<u8>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.1,
            seed: 5,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build(net.clone());
        let bytes = hl.to_store_bytes();
        (net, hl, bytes)
    }

    /// `bytes` with the first hub of `set`'s first two-entry label
    /// repeated, and the message that refuses it.
    fn repeat_hub(bytes: &[u8], set: &str) -> (Vec<u8>, String) {
        let index = section_u32s(bytes, &format!("{set}_index_f"));
        let mut hub = section_u32s(bytes, &format!("{set}_hub_f"));
        let v = (0..index.len() - 1)
            .find(|&v| index[v + 1] - index[v] >= 2)
            .unwrap();
        hub[index[v] as usize + 1] = hub[index[v] as usize];
        (
            with_section(bytes, &format!("{set}_hub_f"), encode_u32s_flat(&hub)),
            format!("{set}_hub_f: hubs of node {v} are not strictly ascending node ids"),
        )
    }

    /// One CRC-valid rewrite per rule the reader enforces. The structural
    /// rows are refused by both loads with the same typed `Corrupt`; the
    /// parent-chain and distance rows by the bytes load only — the mapped
    /// open trusts those under the section CRC (`docs/FORMATS.md`).
    #[test]
    fn mapped_open_and_bytes_load_refuse_every_broken_rule() {
        let (net, hl, good) = refusal_fixture();
        let (n, num_arcs, arcs) = (net.num_nodes(), hl.arcs.len(), &hl.arcs);
        let (index, hub, parent) = (&hl.fwd.index, &hl.fwd.hub, &hl.fwd.parent);
        let with = |name: &str, edit: &dyn Fn(&mut Vec<u32>)| {
            let mut words = section_u32s(&good, name);
            edit(&mut words);
            with_section(&good, name, encode_u32s_flat(&words))
        };
        let label = |v: usize| index[v] as usize..index[v + 1] as usize;
        // The first entry reached over a parent arc, and where it lives.
        let (v, k) = (0..n)
            .find_map(|v| label(v).find(|&k| parent[k] != NO_ARC).map(|k| (v, k)))
            .unwrap();
        let h = hub[k];
        let last = label(v).end - 1;
        let stray = (0..num_arcs).find(|&a| arcs[a].head.0 != h).unwrap();
        let into = arcs[0].head;
        let own = hl.fwd.find(into, into.0).unwrap();
        // An entry re-parented onto an arc from outside its label.
        let (lv, lk, leave) = (0..n)
            .find_map(|v| {
                label(v).filter(|&k| parent[k] != NO_ARC).find_map(|k| {
                    let a = (0..num_arcs).find(|&a| {
                        arcs[a].head.0 == hub[k]
                            && hl.fwd.find(NodeId(v as u32), arcs[a].tail.0).is_none()
                    })?;
                    Some((v, k, a))
                })
            })
            .unwrap();
        // Entry `j` (hub `u`) re-parented onto an arc from its own child.
        let (cv, cj, back) = (0..n)
            .find_map(|v| {
                label(v).filter(|&k| parent[k] != NO_ARC).find_map(|k| {
                    let u = arcs[parent[k] as usize].tail;
                    let j = hl
                        .fwd
                        .find(NodeId(v as u32), u.0)
                        .filter(|_| u.index() != v)?;
                    let c =
                        (0..num_arcs).find(|&c| arcs[c].tail.0 == hub[k] && arcs[c].head == u)?;
                    Some((v, j, c))
                })
            })
            .unwrap();
        let mut dist = hl.fwd.dist.to_vec();
        dist[k] = f64::from_bits(dist[k].to_bits() ^ 1);
        let (repeated, repeated_err) = repeat_hub(&good, "fwd");
        // `arcs_f` as u32 words, six per arc: tail, head, weight (2), a, b;
        // arc `e` is the first shortcut.
        let e = net.num_edges();
        let Unpack::Shortcut(c1, c2) = arcs[e].unpack() else {
            panic!("arc {e} is the first shortcut")
        };
        let concat =
            format!("arcs_f: shortcut arc {e} does not concatenate its children ({c1}, {c2})");
        let rows = [
            (
                "original arc is not its edge",
                with("arcs_f", &|w| w[2] ^= 1),
                "arcs_f: original arc 0 does not match network edge 0".into(),
                false,
            ),
            (
                "shortcut does not concatenate",
                with("arcs_f", &|w| w[6 * e] = (w[6 * e] + 1) % n as u32),
                concat.clone(),
                false,
            ),
            (
                "shortcut weight is no exact sum",
                with("arcs_f", &|w| w[6 * e + 2] ^= 1),
                concat,
                false,
            ),
            (
                "shortcut child not earlier",
                with("arcs_f", &|w| w[6 * e + 4] = e as u32),
                format!("arcs_f: shortcut arc {e} unpacks to an out-of-range arc ({e}, {c2})"),
                false,
            ),
            (
                "index starts above 0",
                with("fwd_index_f", &|w| w[0] = 1),
                "fwd_index_f: CSR index does not start at 0".into(),
                false,
            ),
            (
                "index not monotone",
                with("fwd_index_f", &|w| w[1] = w[2] + 1),
                "fwd_index_f: CSR index is not monotone".into(),
                false,
            ),
            (
                "index ends short",
                with("fwd_index_f", &|w| w[n] -= 1),
                format!(
                    "fwd_index_f: CSR index covers {} entries but the payload has {}",
                    hub.len() - 1,
                    hub.len()
                ),
                false,
            ),
            ("hubs not ascending", repeated, repeated_err, false),
            (
                "hub outside the network",
                with("fwd_hub_f", &|w| w[last] = n as u32),
                format!("fwd_hub_f: hubs of node {v} are not strictly ascending node ids"),
                false,
            ),
            (
                "parent arc out of range",
                with("fwd_parent_f", &|w| w[k] = num_arcs as u32),
                format!("fwd_parent_f: parent arc {num_arcs} outside 0..{num_arcs}"),
                false,
            ),
            (
                "parent arc does not enter its hub",
                with("fwd_parent_f", &|w| w[k] = stray as u32),
                format!("fwd_parent_f: parent arc {stray} of node {v}'s hub {h} does not enter it"),
                false,
            ),
            (
                "entry other than self without a parent",
                with("fwd_parent_f", &|w| w[k] = NO_ARC),
                format!("fwd_parent_f: entry for hub {h} of node {v} has no parent arc"),
                false,
            ),
            (
                "no parentless self entry",
                with("fwd_parent_f", &|w| w[own] = 0),
                format!("fwd_parent_f: label of node {} lacks a parentless self entry", into.0),
                false,
            ),
            (
                "parent chain leaves the label",
                with("fwd_parent_f", &|w| w[lk] = leave as u32),
                format!(
                    "fwd_parent_f: parent chain of node {lv} leaves the label at hub {}",
                    arcs[leave].tail.0
                ),
                true,
            ),
            (
                "parent chain cycles",
                with("fwd_parent_f", &|w| w[cj] = back as u32),
                format!("fwd_parent_f: parent chain of node {cv} cycles at hub "),
                true,
            ),
            (
                "distance is not the chain sum",
                with_section(&good, "fwd_dist_f", crate::store_codec::encode_f64s_flat(&dist)),
                format!("fwd_dist_f: distance of node {v}'s hub {h} is not the sum along its parent chain"),
                true,
            ),
        ];
        for (what, bytes, want, bytes_only) in rows {
            let (loaded, mapped) = verdicts(
                &bytes,
                |b| HubLabels::from_store_bytes(net.clone(), b),
                |p| HubLabels::open_mapped(net.clone(), p),
            );
            assert!(
                matches!(&loaded, Some(StoreError::Corrupt(m)) if m.starts_with(&want)),
                "{what}: {loaded:?}"
            );
            assert_eq!(
                mapped,
                if bytes_only { None } else { loaded },
                "{what}: mapped"
            );
        }
    }

    /// The forward and backward label sets are validated side by side;
    /// the verdict is the sequential pass's for 1 worker and for 2, bytes
    /// and mapped: a flipped byte in a `bwd_*_f` section is that section's
    /// checksum mismatch, a CRC-valid structural fault there is the same
    /// typed `Corrupt`, and when both sets are faulty the forward one is
    /// reported.
    #[test]
    fn mapped_open_validates_both_label_sets_in_parallel_as_in_sequence() {
        use press_store::StoreFile;
        let (net, _, bytes) = refusal_fixture();
        // A byte flipped inside `name`'s payload, its CRC left stale.
        let flip = |bytes: &[u8], name: &str| {
            let f = StoreFile::from_bytes(bytes.to_vec()).unwrap();
            let payload = f.section(name).unwrap();
            let at = bytes
                .windows(payload.len())
                .position(|w| w == payload)
                .unwrap();
            let mut out = bytes.to_vec();
            out[at + payload.len() / 2] ^= 0x10;
            out
        };
        let (bwd_structure, bwd_err) = repeat_hub(&bytes, "bwd");
        let (fwd_structure, fwd_err) = repeat_hub(&bytes, "fwd");
        let checksum = |section: &str| StoreError::ChecksumMismatch {
            section: section.into(),
        };
        let cases = [
            (
                "bwd flip",
                flip(&bytes, "bwd_parent_f"),
                checksum("bwd_parent_f"),
            ),
            (
                "bwd structure",
                bwd_structure.clone(),
                StoreError::Corrupt(bwd_err),
            ),
            (
                "fwd flip + bwd structure",
                flip(&bwd_structure, "fwd_dist_f"),
                checksum("fwd_dist_f"),
            ),
            (
                "fwd structure + bwd flip",
                flip(&fwd_structure, "bwd_hub_f"),
                StoreError::Corrupt(fwd_err),
            ),
        ];
        for (what, corrupt, want) in cases {
            let path = temp_artifact("hl-par", &corrupt);
            for workers in [1, 2] {
                let mapped = StoreFile::open_mapped(&path).unwrap();
                let got = HubLabels::from_file(net.clone(), mapped, workers, false);
                assert_eq!(got.err(), Some(want.clone()), "{what}, {workers} workers");
                let bytes = StoreFile::from_bytes(corrupt.clone()).unwrap();
                let got = HubLabels::from_file(net.clone(), bytes, workers, true);
                assert_eq!(
                    got.err(),
                    Some(want.clone()),
                    "{what}, {workers} workers, bytes"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
        // And the clean artifact validates to the same labels either way.
        let path = temp_artifact("hl-par-clean", &bytes);
        let open = |workers| {
            let file = StoreFile::open_mapped(&path).unwrap();
            HubLabels::from_file(net.clone(), file, workers, false).unwrap()
        };
        let (one, two) = (open(1), open(2));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(one.fwd.hub, two.fwd.hub);
        assert_eq!(one.bwd.parent, two.bwd.parent);
    }

    /// The sequential reader the task list of [`HubLabels::from_file`]
    /// replaced, kept as its reference: the arcs, then each label set in
    /// turn — its four sections (CRC, then width), its CSR shape, the
    /// per-entry structural check of every node in order (reading each
    /// parent arc's record), and with `check_dists` its distances.
    pub(super) fn reference_verdict(
        net: &RoadNetwork,
        file: &press_store::StoreFile,
        check_dists: bool,
    ) -> press_store::Result<()> {
        file.expect_kind(press_store::kind::HUB_LABELS)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fwd_entries = meta.get_len(u32::MAX as usize, "forward label entry")?;
        let bwd_entries = meta.get_len(u32::MAX as usize, "backward label entry")?;
        let fp = meta.get_u32()?;
        meta.expect_end("meta")?;
        crate::store_codec::check_meta(net, fp, n, num_arcs, num_shortcuts)?;
        let raw = file.section("arcs_f")?;
        if raw.len() != num_arcs * 24 {
            return Err(StoreError::Corrupt(format!(
                "arcs_f: {} bytes does not match {num_arcs} arcs x 24 B",
                raw.len()
            )));
        }
        let arcs: FlatSlice<ChArc> = file.flat_section("arcs_f")?;
        crate::ch::check_arcs_flat(net, &arcs)?;
        for (prefix, entries, forward) in [("fwd", fwd_entries, true), ("bwd", bwd_entries, false)]
        {
            let index: FlatSlice<u32> = file.flat_section(&format!("{prefix}_index_f"))?;
            let hub: FlatSlice<u32> = file.flat_section(&format!("{prefix}_hub_f"))?;
            let dist: FlatSlice<f64> = file.flat_section(&format!("{prefix}_dist_f"))?;
            let parent: FlatSlice<u32> = file.flat_section(&format!("{prefix}_parent_f"))?;
            crate::store_codec::check_flat_index(
                &index,
                n + 1,
                entries as u64,
                &format!("{prefix}_index_f"),
            )?;
            for (name, len) in [
                ("hub", hub.len()),
                ("dist", dist.len()),
                ("parent", parent.len()),
            ] {
                if len != entries {
                    return Err(StoreError::Corrupt(format!(
                        "{prefix}_{name}_f: {len} entries instead of the declared {entries}"
                    )));
                }
            }
            for v in 0..n {
                let lo = index[v] as usize;
                let hi = index[v + 1] as usize;
                let mut prev: Option<u32> = None;
                let mut has_self = hi == lo;
                for k in lo..hi {
                    let h = hub[k];
                    if h as usize >= n || prev.is_some_and(|p| p >= h) {
                        return Err(StoreError::Corrupt(format!(
                            "{prefix}_hub_f: hubs of node {v} are not strictly \
                             ascending node ids"
                        )));
                    }
                    prev = Some(h);
                    let pa = parent[k];
                    if pa == NO_ARC {
                        if h != v as u32 {
                            return Err(StoreError::Corrupt(format!(
                                "{prefix}_parent_f: entry for hub {h} of node {v} \
                                 has no parent arc"
                            )));
                        }
                        has_self = true;
                    } else {
                        if pa as usize >= num_arcs {
                            return Err(StoreError::Corrupt(format!(
                                "{prefix}_parent_f: parent arc {pa} outside 0..{num_arcs}"
                            )));
                        }
                        let arc = arcs[pa as usize];
                        let enters = if forward { arc.head } else { arc.tail };
                        if enters.0 != h {
                            return Err(StoreError::Corrupt(format!(
                                "{prefix}_parent_f: parent arc {pa} of node {v}'s \
                                 hub {h} does not enter it"
                            )));
                        }
                    }
                }
                if !has_self {
                    return Err(StoreError::Corrupt(format!(
                        "{prefix}_parent_f: label of node {v} lacks a parentless \
                         self entry"
                    )));
                }
            }
            if check_dists {
                let set = LabelSet {
                    index,
                    hub,
                    dist,
                    parent,
                };
                verify_dists(&set, &arcs, forward, prefix)?;
            }
        }
        Ok(())
    }

    /// `pred_edge` by the exact route alone — the reference the margin
    /// route must reproduce.
    fn exact_pred(hl: &HubLabels, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            None
        } else {
            hl.exact_pred_edge(u, v)
        }
    }

    /// The labels with [`exact_pred`] as their `pred_edge`, so the
    /// trait's derived methods walk the exact route alone.
    struct ExactRoute<'a>(&'a HubLabels);

    impl SpProvider for ExactRoute<'_> {
        fn network(&self) -> &Arc<RoadNetwork> {
            &self.0.net
        }
        fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
            self.0.node_dist(u, v)
        }
        fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
            exact_pred(self.0, u, v)
        }
        fn approx_bytes(&self) -> usize {
            self.0.approx_bytes()
        }
    }

    /// `sp_interior` by the exact route alone: the trait's predecessor
    /// walk over [`exact_pred`].
    fn exact_sp_interior(hl: &HubLabels, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        ExactRoute(hl).sp_interior(ei, ej)
    }

    /// `margin == exact == dense` on everything the provider answers:
    /// every node pair (so `u == v` and disconnected pairs included) and
    /// a strided sample of edge pairs.
    pub(super) fn assert_margin_exact_dense_agree(net: &Arc<RoadNetwork>, hl: &HubLabels) {
        let dense = SpTable::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                let want = dense.pred_edge(u, v);
                assert_eq!(hl.pred_edge(u, v), want, "pred {u} -> {v}");
                assert_eq!(exact_pred(hl, u, v), want, "exact pred {u} -> {v}");
                assert_eq!(
                    hl.node_dist(u, v).to_bits(),
                    dense.node_dist(u, v).to_bits(),
                    "dist {u} -> {v}"
                );
            }
        }
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(3) {
            for &ej in edges.iter().rev().step_by(5) {
                let want = dense.sp_interior(ei, ej);
                assert_eq!(hl.sp_end(ei, ej), dense.sp_end(ei, ej), "sp_end {ei} {ej}");
                assert_eq!(hl.sp_interior(ei, ej), want, "interior {ei} {ej}");
                assert_eq!(exact_sp_interior(hl, ei, ej), want, "exact {ei} {ej}");
            }
        }
    }

    /// `net` plus the degenerate furniture the margin must leave to the
    /// exact route: for every `stride`-th edge a parallel twin of equal
    /// weight and one a single ulp heavier, and a self-loop at its head.
    pub(super) fn with_parallel_edges_and_loops(net: &RoadNetwork, stride: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::with_capacity(net.num_nodes(), net.num_edges() * 2);
        for v in net.node_ids() {
            b.add_node(net.node(v).point);
        }
        for e in net.edge_ids() {
            let edge = net.edge(e);
            b.add_edge(edge.from, edge.to, edge.weight).unwrap();
        }
        for e in net.edge_ids().step_by(stride) {
            let edge = *net.edge(e);
            b.add_edge(edge.from, edge.to, edge.weight).unwrap();
            let ulp_heavier = f64::from_bits(edge.weight.to_bits() + 1);
            b.add_edge(edge.from, edge.to, ulp_heavier).unwrap();
            b.add_edge(edge.to, edge.to, edge.weight).unwrap();
        }
        b.build()
    }

    fn witness_delta(f: impl FnOnce()) -> Witness {
        let before = WITNESS.get();
        f();
        let after = WITNESS.get();
        Witness {
            margin_picks: after.margin_picks - before.margin_picks,
            fallbacks: after.fallbacks - before.fallbacks,
            unpacks: after.unpacks - before.unpacks,
        }
    }

    #[test]
    fn jittered_grid_is_decided_by_margin_and_tied_grid_by_fallback() {
        let grid = |jitter: f64| {
            Arc::new(grid_network(&GridConfig {
                nx: 9,
                ny: 9,
                weight_jitter: jitter,
                seed: 21,
                ..GridConfig::default()
            }))
        };
        // Jittered: continuous weights, unique shortest paths — every
        // predecessor clears the margin, so nothing is ever unpacked.
        let net = grid(0.2);
        let hl = HubLabels::build(net.clone());
        let dense = SpTable::build(net.clone());
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        let w = witness_delta(|| {
            for u in net.node_ids() {
                for v in net.node_ids() {
                    assert_eq!(hl.pred_edge(u, v), dense.pred_edge(u, v));
                }
            }
            for &ei in edges.iter().step_by(5) {
                for &ej in edges.iter().rev().step_by(7) {
                    assert_eq!(hl.sp_interior(ei, ej), dense.sp_interior(ei, ej));
                }
            }
        });
        assert!(w.margin_picks > 6000, "{w:?}");
        assert!(
            w.margin_picks * 100 >= (w.margin_picks + w.fallbacks) * 99,
            "{w:?}"
        );
        assert_eq!(w.unpacks, 0, "a margin pick reached the unpacker: {w:?}");

        // Fully tied: a target off the source's row and column has two
        // in-edges on shortest paths of exactly equal sums (multiples of
        // the spacing are exact in f64) — every such question must go to
        // the exact route, and still equal the oracle.
        let net = grid(0.0);
        let hl = HubLabels::build(net.clone());
        let dense = SpTable::build(net.clone());
        let (nx, mut asked) = (9u32, 0);
        for u in net.node_ids() {
            for v in net.node_ids() {
                if u.0 % nx == v.0 % nx || u.0 / nx == v.0 / nx {
                    continue;
                }
                asked += 1;
                let w = witness_delta(|| assert_eq!(hl.pred_edge(u, v), dense.pred_edge(u, v)));
                assert_eq!((w.margin_picks, w.fallbacks), (0, 1), "{u} -> {v}");
                assert!(w.unpacks > 0);
            }
        }
        assert!(asked > 5000);
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        let w = witness_delta(|| {
            for &ei in edges.iter().step_by(5) {
                for &ej in edges.iter().rev().step_by(7) {
                    assert_eq!(hl.sp_interior(ei, ej), dense.sp_interior(ei, ej));
                }
            }
        });
        assert!(w.fallbacks > 0, "{w:?}");
    }

    /// Two routes into `v` that the oracle ties exactly but the label
    /// sums separate by one ulp, in the wrong direction. `weights` are
    /// the three edges of the long prefix `u → x → y → p`; `boost` gets
    /// pendant streets so the ordering ranks it late.
    fn near_tie_network(weights: [f64; 3], boost: usize) -> (Arc<RoadNetwork>, NodeId, NodeId) {
        let mut b = RoadNetworkBuilder::new();
        let n: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        let (u, x, y, p, q, v) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        let [w1, w2, w3] = weights;
        // The oracle reaches p at exactly the left-to-right sum; q is
        // placed at that very float, so with the same last weight the two
        // in-edges of v are bit-tied and the smaller id — (q, v) — wins.
        let tail = 0.05;
        b.add_edge(q, v, tail).unwrap();
        b.add_edge(p, v, tail).unwrap();
        b.add_edge(u, x, w1).unwrap();
        b.add_edge(x, y, w2).unwrap();
        b.add_edge(y, p, w3).unwrap();
        b.add_edge(u, q, (w1 + w2) + w3).unwrap();
        for k in 0..3 {
            let leaf = b.add_node(Point::new(boost as f64, 1.0 + k as f64));
            b.add_two_way(n[boost], leaf, 7.0).unwrap();
        }
        (Arc::new(b.build()), u, v)
    }

    #[test]
    fn near_tie_falls_back_where_a_zero_margin_would_publish_the_wrong_edge() {
        // 0.1, 0.2, 0.3 sum to 0.6000000000000001 left-to-right and to
        // 0.6 in any other association: whenever the meet hub of (u, p)
        // is not p or y, the label sum is one ulp below the oracle's
        // distance — and one ulp below the rival route's. (Reversed, the
        // ulp lands on the other side and a zero margin is right by luck.)
        let mut diverged = 0;
        for weights in [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.1, 0.3]] {
            for boost in 0..4 {
                let (net, u, v) = near_tie_network(weights, boost);
                let hl = HubLabels::build(net.clone());
                let dense = SpTable::build(net.clone());
                let want = dense.pred_edge(u, v);
                assert_eq!(
                    want,
                    Some(EdgeId(0)),
                    "the oracle ties and takes the smaller id"
                );
                let w = witness_delta(|| assert_eq!(hl.pred_edge(u, v), want));
                assert_eq!((w.margin_picks, w.fallbacks), (0, 1));
                // Mutation check: the same question with τ shrunk to 0.
                let zero = hl.with_row(u, |slots| hl.margin_pred(slots, u, v, 0.0));
                if matches!(zero, Margin::Decided(e) if e != want) {
                    diverged += 1;
                }
            }
        }
        assert!(
            diverged > 0,
            "no variant separated the label sums: the case no longer bites"
        );
    }

    #[test]
    fn pinned_rows_never_leak_between_instances_sources_or_threads() {
        let grid = |nx: usize, ny: usize, seed: u64| {
            Arc::new(grid_network(&GridConfig {
                nx,
                ny,
                weight_jitter: 0.2,
                removal_prob: 0.04,
                seed,
                ..GridConfig::default()
            }))
        };
        let small_net = grid(4, 4, 3);
        let big_net = grid(7, 6, 9);
        let small = HubLabels::build(small_net.clone());
        let big = HubLabels::build(big_net.clone());
        // A bytes load and a mapped open of one artifact: equal labels,
        // distinct instances.
        let path = temp_artifact("hl-hygiene", &big.to_store_bytes());
        let loaded = HubLabels::from_store_bytes(big_net.clone(), big.to_store_bytes()).unwrap();
        let mapped = HubLabels::open_mapped(big_net.clone(), &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let ids = [small.id, big.id, loaded.id, mapped.id];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| a != b), "instance ids repeat");
        }
        let small_dense = SpTable::build(small_net.clone());
        let big_dense = SpTable::build(big_net.clone());
        // Both threads start together and hop between all four instances
        // on every question, same node numbers throughout, so a row keyed
        // by anything less than (instance, source) would be read stale.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let (start, small, big, loaded, mapped) = (&start, &small, &big, &loaded, &mapped);
                let (small_dense, big_dense) = (&small_dense, &big_dense);
                let (ns, nb) = (small_net.num_nodes() as u32, big_net.num_nodes() as u32);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..400u32 {
                        let k = i * 7 + t * 3;
                        let (u, v) = (NodeId(k % ns), NodeId((k / 3 + 1) % ns));
                        assert_eq!(small.pred_edge(u, v), small_dense.pred_edge(u, v));
                        for hl in [big, loaded, mapped] {
                            // Same source as the small instance just pinned.
                            let v = NodeId((k / 2 + 5) % nb);
                            assert_eq!(hl.pred_edge(u, v), big_dense.pred_edge(u, v));
                            assert_eq!(
                                hl.node_dist(u, v).to_bits(),
                                big_dense.node_dist(u, v).to_bits()
                            );
                        }
                        let (u, v) = (NodeId(k % nb), NodeId((k * 5 + 2) % nb));
                        assert_eq!(big.pred_edge(u, v), big_dense.pred_edge(u, v));
                        assert_eq!(
                            small
                                .node_dist(NodeId(u.0 % ns), NodeId(v.0 % ns))
                                .to_bits(),
                            small_dense
                                .node_dist(NodeId(u.0 % ns), NodeId(v.0 % ns))
                                .to_bits()
                        );
                    }
                });
            }
        });
        // Dropped, then rebuilt over different weights: a fresh id, so the
        // row this thread pinned for the old instance cannot answer.
        let u = NodeId(5);
        let old_net = grid(5, 5, 1);
        let old = HubLabels::build(old_net.clone());
        let old_id = old.id;
        let _ = old.pred_edge(u, NodeId(19));
        drop(old);
        let new_net = grid(5, 5, 2);
        let new = HubLabels::build(new_net.clone());
        assert_ne!(new.id, old_id);
        let dense = SpTable::build(new_net.clone());
        for v in new_net.node_ids() {
            assert_eq!(new.pred_edge(u, v), dense.pred_edge(u, v));
            assert_eq!(
                new.node_dist(u, v).to_bits(),
                dense.node_dist(u, v).to_bits()
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::{
        assert_margin_exact_dense_agree, reference_verdict, with_parallel_edges_and_loops,
    };
    use super::*;
    use crate::generators::{
        grid_network, random_geometric_network, GridConfig, RandomGeometricConfig,
    };
    use crate::store_codec::encode_u32s_flat;
    use crate::store_codec::tests::{section_u32s, with_section};
    use proptest::prelude::*;

    /// The labeling every label-set mutation case edits, and its artifact.
    fn label_fixture() -> &'static (Arc<RoadNetwork>, HubLabels, Vec<u8>) {
        static FIXTURE: std::sync::OnceLock<(Arc<RoadNetwork>, HubLabels, Vec<u8>)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let net = Arc::new(grid_network(&GridConfig {
                nx: 7,
                ny: 7,
                weight_jitter: 0.15,
                removal_prob: 0.05,
                seed: 9,
                ..GridConfig::default()
            }));
            let hl = HubLabels::build_with_threads(net.clone(), 1);
            let bytes = hl.to_store_bytes();
            (net, hl, bytes)
        })
    }

    /// `bytes` with one entry of label set `set` (`0` forward, `1`
    /// backward) broken by rule `rule`; `pick` chooses the node, entry or
    /// replacement. Rules: a hub out of range, repeated, or descending; a
    /// parentless non-self entry; a parent arc out of range, not entering
    /// its hub, or re-pointed at another arc that does; the self entry
    /// given a parent; an index boundary shifted.
    fn break_entry(bytes: &[u8], hl: &HubLabels, set: usize, rule: u32, pick: usize) -> Vec<u8> {
        let prefix = ["fwd", "bwd"][set];
        let (index_f, hub_f, parent_f) = (
            format!("{prefix}_index_f"),
            format!("{prefix}_hub_f"),
            format!("{prefix}_parent_f"),
        );
        let index = section_u32s(bytes, &index_f);
        let mut hub = section_u32s(bytes, &hub_f);
        let mut parent = section_u32s(bytes, &parent_f);
        let n = index.len() - 1;
        let num_arcs = hl.arcs.len();
        let enters = |a: usize| {
            let arc = hl.arcs[a];
            if set == 0 {
                arc.head.0
            } else {
                arc.tail.0
            }
        };
        // A node with at least two entries, and one of its non-self entries.
        let nodes: Vec<usize> = (0..n).filter(|&v| index[v + 1] - index[v] >= 2).collect();
        let v = nodes[pick % nodes.len()];
        let (lo, hi) = (index[v] as usize, index[v + 1] as usize);
        let own = (lo..hi).find(|&k| hub[k] == v as u32).unwrap();
        let other = (lo..hi)
            .filter(|&k| k != own)
            .nth(pick % (hi - lo - 1))
            .unwrap();
        let later = lo + 1 + pick % (hi - lo - 1);
        match rule {
            0 => hub[other] = n as u32 + (pick % 3) as u32,
            1 => hub[later] = hub[later - 1],
            2 => hub.swap(later - 1, later),
            3 => parent[other] = NO_ARC,
            4 => parent[other] = (num_arcs + pick % 5) as u32,
            5 => {
                let stray = (0..num_arcs)
                    .map(|a| (a + pick) % num_arcs)
                    .find(|&a| enters(a) != hub[other])
                    .unwrap();
                parent[other] = stray as u32;
            }
            6 => {
                let into = (0..num_arcs)
                    .map(|a| (a + pick) % num_arcs)
                    .find(|&a| enters(a) == hub[other] && a as u32 != parent[other]);
                if let Some(a) = into {
                    parent[other] = a as u32;
                }
            }
            7 => {
                let into_v = (0..num_arcs).find(|&a| enters(a) == v as u32).unwrap_or(0);
                parent[own] = into_v as u32;
            }
            _ => {
                let mut index = index.clone();
                let i = 1 + pick % (n - 1);
                index[i] = if pick.is_multiple_of(2) {
                    index[i] + 1
                } else {
                    index[i].saturating_sub(1)
                };
                return with_section(bytes, &index_f, encode_u32s_flat(&index));
            }
        }
        let bytes = with_section(bytes, &hub_f, encode_u32s_flat(&hub));
        with_section(&bytes, &parent_f, encode_u32s_flat(&parent))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The task-list reader equals the sequential reference, error
        /// for error, on one or two broken label entries in either set —
        /// on 1, 2 and 3 workers, bytes (distances verified) and mapped.
        #[test]
        fn label_set_check_equals_the_sequential_reference(
            first in (0usize..2, 0u32..9, 0usize..100_000),
            second in (0usize..2, 0u32..9, 0usize..100_000),
            both in 0u8..2,
        ) {
            use press_store::StoreFile;
            let (net, hl, good) = label_fixture();
            let mut bytes = break_entry(good, hl, first.0, first.1, first.2);
            if both == 1 {
                bytes = break_entry(&bytes, hl, second.0, second.1, second.2);
            }
            let path = std::env::temp_dir().join(format!(
                "press-hl-ref-{}-{}-{}.press",
                std::process::id(),
                first.2,
                second.2
            ));
            std::fs::write(&path, &bytes).unwrap();
            for mapped in [false, true] {
                let file = || if mapped {
                    StoreFile::open_mapped(&path).unwrap()
                } else {
                    StoreFile::from_bytes(bytes.clone()).unwrap()
                };
                let want = reference_verdict(net, &file(), !mapped).err();
                for workers in [1, 2, 3] {
                    let got = HubLabels::from_file(net.clone(), file(), workers, !mapped).err();
                    prop_assert_eq!(&got, &want, "mapped {}, {} workers", mapped, workers);
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The identity the margin route stands on: whatever it decides
        /// equals the exact route equals the dense oracle — `pred_edge`,
        /// `sp_end`, `sp_interior`, `node_dist` — across the regimes that
        /// decide differently: jittered grids (margin), fully tied grids
        /// (fallback), random geometric graphs, and either grid carrying
        /// parallel edges of equal and 1-ulp-apart weight plus self-loops.
        /// Street removal and sparse geometric graphs supply disconnected
        /// pairs; every `u == v` is asked.
        #[test]
        fn margin_equals_exact_equals_dense_oracle(
            kind in 0u8..5,
            nx in 3usize..7,
            ny in 3usize..7,
            seed in 0u64..1000,
            jitter_milli in 1u32..300,
            removal_milli in 0u32..120,
        ) {
            let grid = |jitter: f64| grid_network(&GridConfig {
                nx,
                ny,
                spacing: 90.0,
                weight_jitter: jitter,
                removal_prob: removal_milli as f64 / 1000.0,
                seed,
            });
            let net = match kind {
                0 => grid(jitter_milli as f64 / 1000.0),
                1 => grid(0.0),
                2 => random_geometric_network(&RandomGeometricConfig {
                    nodes: nx * ny,
                    extent: 600.0,
                    radius: 140.0 + jitter_milli as f64 / 3.0,
                    seed,
                }),
                3 => with_parallel_edges_and_loops(&grid(jitter_milli as f64 / 1000.0), 3),
                _ => with_parallel_edges_and_loops(&grid(0.0), 4),
            };
            let net = Arc::new(net);
            let hl = HubLabels::build_with_threads(net.clone(), 1);
            assert_margin_exact_dense_agree(&net, &hl);
        }
    }
}
