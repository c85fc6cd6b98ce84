//! 2-hop **hub labels** — the fastest-lookup [`SpProvider`] backend,
//! built from the contraction-hierarchy order.
//!
//! A [`ContractionHierarchy`] answers a point query with a bidirectional
//! upward *search*: two Dijkstra frontiers over the up-arc graphs, a heap
//! and a versioned label array each, meeting at an apex. Hub labeling
//! **precomputes those frontiers**. For every node `v` we run the forward
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
//! graph traversal. At 102k nodes that turns the ~1.4 ms CH search into
//! a few microseconds: the scan touches a few hundred label entries, and
//! the remaining cost of an exact *distance* is unpacking the winning
//! up-down path to re-accumulate its weight (see below). The price is
//! memory: labels store the whole search space per node per direction
//! (~10× the CH footprint), the classic precompute-then-probe trade.
//!
//! # Construction
//!
//! Labels are **independent per node**: one exhaustive upward Dijkstra
//! per direction per node over the already-built CH search graphs, with
//! the same *strict* stall-on-demand rule the CH query uses (a settled
//! node whose label is strictly beaten by a detour over a higher-ranked
//! neighbor is pruned from the label; strictness keeps exactly-tied
//! apexes alive, preserving canonical tie handling). Independence makes
//! the build embarrassingly parallel — [`HubLabels::from_ch`] fans out
//! over the shared [`work_steal_map`](crate::parallel::work_steal_map)
//! loop, and the result is **bit-identical for any thread count** because
//! each label is a pure function of the hierarchy.
//!
//! # The pinned-source row
//!
//! PRESS asks its questions in runs that share a source: `SPend(e_index,
//! e_{i+1})` keeps `e_index` while a compression run lasts, and every
//! probe of an `sp_interior` walk starts at the same node. The meet
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
//! The same discipline as the CH backend (see [`crate::ch`], "Bit-identical
//! answers"): label distances are only used to *select* — never returned.
//! A returned **distance** is re-accumulated **left-to-right over the
//! unpacked original edges** — the exact float-addition order canonical
//! Dijkstra uses. Every label entry carries the parent arc of its search
//! tree, so the winning up-down path unpacks without touching any graph:
//! forward parents chain the hub back to `s`, backward parents chain it
//! down to `t`, and each arc expands to original edges via the arc table
//! carried from the hierarchy.
//!
//! A **predecessor** (`pred_edge`, hence `SPend`, and each step of
//! `sp_interior`) has two routes to the same answer.
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
//!    Those take the exact route unchanged. `sp_interior` walks the margin
//!    pick backwards from the target under one pinned source and abandons
//!    the walk for the exact one (the shared `probe::canonical_walk`
//!    over a `SourceProbe`) at the first near-tie.
//!
//! The exact route is thus both the fallback and the oracle the margin
//! route is property-tested against (`margin == exact == dense`), per the
//! "accelerations are provably pure" invariant in `docs/ARCHITECTURE.md`.
//!
//! Precondition: strictly positive edge weights (inherited from the
//! hierarchy the labels are built from).

use crate::ch::{expand_arc, ChArc, ContractionHierarchy, QueueEntry, NO_ARC};
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
/// The arrays are [`FlatSlice`]s: owned after a build or an owned load,
/// zero-copy borrows of the artifact's flat sections after a mapped open
/// ([`MappedHubLabels`]) — `Deref` keeps the query code identical.
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
    /// Reusable (arc chain, edge) buffers for the distance-only query
    /// path, so `node_dist` performs no per-lookup heap allocation.
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

/// Exhaustive upward Dijkstra from `source` over one CH search graph with
/// strict stall-on-demand; the settled, non-stalled nodes (with final
/// distances and parent arcs) are the label, sorted by hub id. Crate-
/// visible so the CH backend can materialize one-off labels for its
/// probe-based canonical walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn label_search(
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
            // Stall-on-demand, exactly as the CH query prunes: a strictly
            // better label through a higher-ranked neighbor proves x is
            // off every minimal up-down path, so it never becomes a hub.
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
    /// The augmented arc set of the hierarchy the labels were built from
    /// (originals first, then shortcuts) — label parent pointers index
    /// into it, and unpack through it to original edges.
    arcs: Vec<ChArc>,
    fwd: LabelSet,
    bwd: LabelSet,
}

impl HubLabels {
    /// Builds labels from scratch: contracts the network with default
    /// tuning (batched rounds over every available core), then labels it
    /// with one worker per available core. Both stages are bit-identical
    /// for any core count.
    pub fn build(net: Arc<RoadNetwork>) -> Self {
        Self::build_with_threads(net, 0)
    }

    /// [`HubLabels::build`] with an explicit worker count for both
    /// stages — the contraction rounds and the label pass (`0` = one per
    /// available core). Purely a throughput knob; the labeling is
    /// bit-identical for any value.
    pub fn build_with_threads(net: Arc<RoadNetwork>, threads: usize) -> Self {
        let ch = ContractionHierarchy::build_with(
            net,
            crate::ch::ChConfig {
                threads,
                ..crate::ch::ChConfig::default()
            },
        );
        Self::from_ch(&ch, threads)
    }

    /// Builds labels from an existing hierarchy. `threads == 0` means one
    /// worker per available core. The result is **bit-identical for any
    /// thread count**: each node's label is an independent pure function
    /// of the hierarchy, computed via the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop.
    pub fn from_ch(ch: &ContractionHierarchy, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let n = ch.net.num_nodes();
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
            net: ch.net.clone(),
            arcs: ch.arcs.clone(),
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

    /// Distance-only query — the hot path behind `node_dist` (and the
    /// per-in-edge probes of the canonical walk). Identical semantics to
    /// [`HubLabels::query`] but reuses thread-local unpack buffers, so a
    /// lookup performs no heap allocation.
    fn query_dist(&self, s: NodeId, t: NodeId) -> Option<f64> {
        if s == t {
            return Some(0.0);
        }
        let (fi, bi) = self.meet(s, t)?;
        QUERY_BUFS.with(|cell| {
            let (chain, edges) = &mut *cell.borrow_mut();
            self.unpack_meet(s, t, fi, bi, chain, edges);
            // Left-to-right re-accumulation — the exact float-addition
            // order Dijkstra's `dist[v] = dist[p] + w(e)` recursion uses.
            let mut dist = 0.0f64;
            for &e in edges.iter() {
                dist += self.net.weight(e);
            }
            Some(dist)
        })
    }

    /// The path-returning query. Returns the exact distance (re-accumulated
    /// left-to-right over the unpacked original edges, bit-identical to
    /// the canonical Dijkstra distance) and the unpacked edge path.
    /// `None` when `t` is unreachable from `s` (the labels share no hub);
    /// `Some((0.0, []))` when `s == t`.
    fn query(&self, s: NodeId, t: NodeId) -> Option<(f64, Vec<EdgeId>)> {
        if s == t {
            return Some((0.0, Vec::new()));
        }
        let (fi, bi) = self.meet(s, t)?;
        let mut chain = Vec::new();
        let mut edges = Vec::new();
        self.unpack_meet(s, t, fi, bi, &mut chain, &mut edges);
        let mut dist = 0.0f64;
        for &e in &edges {
            dist += self.net.weight(e);
        }
        Some((dist, edges))
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
            None => self.query(u, v)?.1.last().copied(),
        }
    }

    /// The exact route of `sp_interior` for the gap `u → target`
    /// (`u != target`): the reference definition, and the fallback for
    /// near-ties.
    fn exact_interior(&self, u: NodeId, target: NodeId) -> Option<Vec<EdgeId>> {
        let d = self.query_dist(u, target)?;
        // Walk the canonical tree backwards (the shared tight-edge loop,
        // `crate::probe::canonical_walk`) with a one-shot
        // [`SourceProbe`](crate::probe): the forward side of every
        // `d(u, p)` probe — u's label and the re-accumulated distances to
        // its hubs — is materialized once for the whole walk, so each
        // tight-edge check costs one label merge plus the backward chain
        // of its up-down path instead of a full query. A failed walk
        // falls back to the unpacked up-down path, still a shortest path.
        let (flo, fhi) = self.fwd.range(u);
        let mut probe = crate::probe::SourceProbe::from_entries(
            (flo..fhi).map(|k| (self.fwd.hub[k], self.fwd.dist[k], self.fwd.parent[k])),
        );
        let interior = crate::probe::canonical_walk(&self.net, u, target, d, |p| {
            let (blo, bhi) = self.bwd.range(p);
            probe.dist_to(
                &self.net,
                &self.arcs,
                &self.bwd.hub[blo..bhi],
                &self.bwd.dist[blo..bhi],
                &self.bwd.parent[blo..bhi],
            )
        });
        interior.or_else(|| Some(self.query(u, target)?.1))
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

    /// The margin route for a whole gap: the canonical-tree path
    /// `u → target` (`u != target`) as a backward walk of
    /// [`Self::margin_pred`], every probe against the one pinned source.
    /// `Decided(None)` when `target` is unreachable.
    fn margin_walk(&self, u: NodeId, target: NodeId) -> Margin<Option<Vec<EdgeId>>> {
        let tau = tie_margin(self.net.num_nodes());
        self.with_row(u, |slots| {
            let mut interior = Vec::new();
            let mut cur = target;
            while cur != u {
                // Each decided step moves strictly closer to `u` in the
                // oracle's tree, so a longer walk means `τ` was violated:
                // let the exact route answer.
                if interior.len() >= self.net.num_nodes() {
                    return Margin::NearTie;
                }
                match self.margin_pred(slots, u, cur, tau) {
                    Margin::Decided(Some(e)) => {
                        interior.push(e);
                        cur = self.net.edge(e).from;
                    }
                    // Only the first step can find nothing reachable.
                    Margin::Decided(None) => return Margin::Decided(None),
                    Margin::NearTie => return Margin::NearTie,
                }
            }
            interior.reverse();
            Margin::Decided(Some(interior))
        })
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the labeling into a [`press_store`] container
    /// (`sp_hl.press`). Everything derivable is derived rather than
    /// stored: the arc set uses the shared compact codec of the
    /// hierarchy artifact ([`crate::ch`]'s `arcs_c` — originals implicit,
    /// shortcuts as child-id deltas), label hubs are strictly-ascending
    /// delta varints, and label **distances are not stored at all** —
    /// each entry's distance is exactly `dist(parent hub) + w(parent
    /// arc)` in its search tree, so the loader recomputes them
    /// bit-exactly from the parent chains (validating the chains in the
    /// process). The compact sections therefore contain no
    /// floating-point payload whatsoever.
    ///
    /// Alongside the compact sections the writer emits the **flat**
    /// twins (`arcs_f`, `*_index_f`/`*_hub_f`/`*_dist_f`/`*_parent_f` —
    /// fixed-width little-endian, 8-byte aligned) that the zero-copy
    /// [`MappedHubLabels`] tier borrows in place; `*_dist_f` stores the
    /// label distances as IEEE bit patterns precisely so the mapped open
    /// can skip the recompute that dominates the owned load. Purely
    /// additive: owned loads keep reading the compact sections and old
    /// readers ignore the flat ones.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut meta = press_store::ByteWriter::with_capacity(44);
        meta.put_u64(self.net.num_nodes() as u64);
        meta.put_u64(self.arcs.len() as u64);
        meta.put_u64((self.arcs.len() - self.net.num_edges()) as u64);
        meta.put_u64(self.fwd.hub.len() as u64);
        meta.put_u64(self.bwd.hub.len() as u64);
        // Pairing guard: arcs and distances are derived from the
        // load-time network, so reject one with a different edge set.
        meta.put_u32(crate::store_codec::edge_fingerprint(&self.net));
        let parents = |set: &LabelSet| {
            let mut w = press_store::ByteWriter::with_capacity(set.parent.len() * 2);
            for &p in set.parent.iter() {
                w.put_uvarint(if p == NO_ARC { 0 } else { p as u64 + 1 });
            }
            w.into_bytes()
        };
        let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
        w.section("meta", meta.into_bytes());
        w.section(
            "arcs_c",
            crate::ch::encode_arcs_compact(&self.arcs, self.net.num_edges()),
        );
        w.section(
            "fwd_index_c",
            crate::store_codec::encode_index(&self.fwd.index),
        );
        w.section(
            "fwd_hub_c",
            crate::store_codec::encode_grouped_ascending(&self.fwd.index, &self.fwd.hub),
        );
        w.section("fwd_parent", parents(&self.fwd));
        w.section(
            "bwd_index_c",
            crate::store_codec::encode_index(&self.bwd.index),
        );
        w.section(
            "bwd_hub_c",
            crate::store_codec::encode_grouped_ascending(&self.bwd.index, &self.bwd.hub),
        );
        w.section("bwd_parent", parents(&self.bwd));
        w.section_aligned("arcs_f", crate::ch::encode_arcs_flat(&self.arcs));
        let mut flat = |prefix: &str, set: &LabelSet| {
            w.section_aligned(
                &format!("{prefix}_index_f"),
                crate::store_codec::encode_u32s_flat(&set.index),
            );
            w.section_aligned(
                &format!("{prefix}_hub_f"),
                crate::store_codec::encode_u32s_flat(&set.hub),
            );
            w.section_aligned(
                &format!("{prefix}_dist_f"),
                crate::store_codec::encode_f64s_flat(&set.dist),
            );
            w.section_aligned(
                &format!("{prefix}_parent_f"),
                crate::store_codec::encode_u32s_flat(&set.parent),
            );
        };
        flat("fwd", &self.fwd);
        flat("bwd", &self.bwd);
        w.to_bytes()
    }

    /// Writes the label artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a labeling over `net` from container bytes,
    /// validating every structural invariant: the arc set (via the shared
    /// compact decoder), CSR monotonicity, strictly ascending hubs within
    /// bounds, and — while recomputing distances — that every parent arc
    /// enters its own hub, every parent chain stays inside the label and
    /// terminates at the node's self entry without cycling. Corrupt input
    /// yields a typed error, never a panic or a silently wrong label.
    pub fn from_store_bytes(
        net: Arc<RoadNetwork>,
        bytes: Vec<u8>,
    ) -> press_store::Result<HubLabels> {
        use press_store::StoreError;
        let file = press_store::StoreFile::from_bytes(bytes)?;
        file.expect_kind(press_store::kind::HUB_LABELS)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fwd_entries = meta.get_len(u32::MAX as usize, "forward label entry")?;
        let bwd_entries = meta.get_len(u32::MAX as usize, "backward label entry")?;
        let fp = meta.get_u32()?;
        meta.expect_end("meta")?;
        if fp != crate::store_codec::edge_fingerprint(&net) {
            return Err(StoreError::Corrupt(
                "labeling was built over a network with a different edge set \
                 (weight fingerprint mismatch)"
                    .into(),
            ));
        }
        if n != net.num_nodes() {
            return Err(StoreError::Corrupt(format!(
                "labeling covers {n} nodes but the network has {}",
                net.num_nodes()
            )));
        }
        if num_arcs < net.num_edges() || num_arcs - net.num_edges() != num_shortcuts {
            return Err(StoreError::Corrupt(format!(
                "arc count {num_arcs} inconsistent with {} original edges + {num_shortcuts} shortcuts",
                net.num_edges()
            )));
        }
        let arcs = crate::ch::decode_arcs_compact(&net, file.section("arcs_c")?, num_arcs)?;
        let read_set = |index_name: &str,
                        hub_name: &str,
                        parent_name: &str,
                        entries: usize,
                        forward: bool|
         -> press_store::Result<LabelSet> {
            let index = crate::store_codec::decode_index(
                file.section(index_name)?,
                n + 1,
                entries as u64,
                index_name,
            )?;
            if index[n] as usize != entries {
                return Err(StoreError::Corrupt(format!(
                    "{index_name}: index covers {} entries but meta declares {entries}",
                    index[n]
                )));
            }
            let hub = crate::store_codec::decode_grouped_ascending(
                file.section(hub_name)?,
                &index,
                n as u64,
                hub_name,
            )?;
            let mut r = file.reader(parent_name)?;
            let mut parent = Vec::with_capacity(entries);
            for _ in 0..entries {
                let p = r.get_uvarint()?;
                if p == 0 {
                    parent.push(NO_ARC);
                } else if (p - 1) as usize >= num_arcs {
                    return Err(StoreError::Corrupt(format!(
                        "{parent_name}: parent arc {} outside 0..{num_arcs}",
                        p - 1
                    )));
                } else {
                    parent.push((p - 1) as u32);
                }
            }
            r.expect_end(parent_name)?;
            let mut dist = vec![0.0; entries];
            recompute_dists(
                &index,
                &hub,
                &parent,
                &mut dist,
                &arcs,
                n,
                forward,
                parent_name,
            )?;
            Ok(LabelSet {
                index: index.into(),
                hub: hub.into(),
                dist: dist.into(),
                parent: parent.into(),
            })
        };
        let fwd = read_set("fwd_index_c", "fwd_hub_c", "fwd_parent", fwd_entries, true)?;
        let bwd = read_set("bwd_index_c", "bwd_hub_c", "bwd_parent", bwd_entries, false)?;
        Ok(HubLabels {
            id: next_instance_id(),
            net,
            arcs,
            fwd,
            bwd,
        })
    }

    /// Loads a label artifact from `path` (one contiguous read).
    pub fn load_from(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<HubLabels> {
        Self::from_store_bytes(net, std::fs::read(path)?)
    }

    /// Opens a label artifact through the zero-copy mapped tier:
    /// [`MappedHubLabels::open`] followed by
    /// [`MappedHubLabels::validate`].
    pub fn open_mapped(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<HubLabels> {
        MappedHubLabels::open(net, path)?.validate()
    }
}

/// Phase one of the zero-copy label load: the artifact mapped read-only
/// with **only its metadata touched** — header, section table, the small
/// `meta` section (counts + network fingerprint), and length-only checks
/// that every flat section is present with exactly the declared extent.
/// Open cost is O(page faults on a few KB) — the open half of what
/// `press-benchmark` reports as `network.sp.open_mapped_ms` — versus the
/// seconds-long owned load that varint-decodes every section and
/// recomputes 10⁷-scale label distances.
///
/// [`Self::validate`] is the only way to reach a queryable
/// [`HubLabels`]: it consumes the handle, CRCs each flat section on
/// first touch, decodes and cross-checks the arc set, and bounds-scans
/// the label arrays, so no [`SpProvider`] exists over unvalidated
/// mapped bytes and a bit-flip surfaces as a typed
/// [`press_store::StoreError`] — never a panic or a wrong answer. The
/// label *distances* are covered by CRC and trusted structurally (their
/// semantic recomputation is exactly the cost this tier removes); see
/// `docs/FORMATS.md` for the precise trust statement.
pub struct MappedHubLabels {
    net: Arc<RoadNetwork>,
    file: press_store::StoreFile,
    n: usize,
    num_arcs: usize,
    fwd_entries: usize,
    bwd_entries: usize,
}

impl MappedHubLabels {
    /// Maps `path` and checks metadata only (see the type docs). Typed
    /// errors on kind/fingerprint/extent mismatches and on artifacts
    /// written before the flat tier existed (those still load through
    /// [`HubLabels::load_from`]).
    pub fn open(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<MappedHubLabels> {
        use press_store::StoreError;
        let file = press_store::StoreFile::open_mapped(path)?;
        file.expect_kind(press_store::kind::HUB_LABELS)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fwd_entries = meta.get_len(u32::MAX as usize, "forward label entry")?;
        let bwd_entries = meta.get_len(u32::MAX as usize, "backward label entry")?;
        let fp = meta.get_u32()?;
        meta.expect_end("meta")?;
        if fp != crate::store_codec::edge_fingerprint(&net) {
            return Err(StoreError::Corrupt(
                "labeling was built over a network with a different edge set \
                 (weight fingerprint mismatch)"
                    .into(),
            ));
        }
        if n != net.num_nodes() {
            return Err(StoreError::Corrupt(format!(
                "labeling covers {n} nodes but the network has {}",
                net.num_nodes()
            )));
        }
        if num_arcs < net.num_edges() || num_arcs - net.num_edges() != num_shortcuts {
            return Err(StoreError::Corrupt(format!(
                "arc count {num_arcs} inconsistent with {} original edges + {num_shortcuts} shortcuts",
                net.num_edges()
            )));
        }
        // Length-only presence checks: no payload is touched (and hence
        // no CRC runs), keeping the open O(metadata).
        let need = [
            ("arcs_f", num_arcs * 24),
            ("fwd_index_f", (n + 1) * 4),
            ("fwd_hub_f", fwd_entries * 4),
            ("fwd_dist_f", fwd_entries * 8),
            ("fwd_parent_f", fwd_entries * 4),
            ("bwd_index_f", (n + 1) * 4),
            ("bwd_hub_f", bwd_entries * 4),
            ("bwd_dist_f", bwd_entries * 8),
            ("bwd_parent_f", bwd_entries * 4),
        ];
        for (name, want) in need {
            match file.section_len(name) {
                None => {
                    return Err(StoreError::Corrupt(format!(
                        "{name}: artifact predates the flat/mapped tier; re-save it \
                         or load it owned"
                    )))
                }
                Some(len) if len != want => {
                    return Err(StoreError::Corrupt(format!(
                        "{name}: {len} B does not match the declared extent ({want} B)"
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(MappedHubLabels {
            net,
            file,
            n,
            num_arcs,
            fwd_entries,
            bwd_entries,
        })
    }

    /// Phase two: CRC every flat section on first touch, decode and
    /// cross-check the arc set against the network, and bounds-scan the
    /// label arrays — CSR shape, strictly ascending in-bounds hubs,
    /// parent arcs in range and entering their hub, the parentless self
    /// entry. Returns labels whose arrays borrow the mapping zero-copy
    /// (the mapping stays alive through them), answering bit-identically
    /// to an owned [`HubLabels::load_from`] of the same artifact.
    ///
    /// The arcs come first; then the forward and the backward label set —
    /// each its four section CRCs and its structural scan, independent of
    /// the other — run side by side through
    /// [`work_steal_map`](crate::parallel::work_steal_map) on up to
    /// `available_parallelism()` workers (one core: the two in sequence).
    /// Every check runs on every open. When both sets are corrupt, the
    /// forward set's error is the one returned, as in the sequential pass.
    pub fn validate(self) -> press_store::Result<HubLabels> {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        self.validate_with(workers)
    }

    /// [`Self::validate`] on `workers` workers.
    fn validate_with(self, workers: usize) -> press_store::Result<HubLabels> {
        use press_store::StoreError;
        let MappedHubLabels {
            net,
            file,
            n,
            num_arcs,
            fwd_entries,
            bwd_entries,
        } = self;
        let arcs = crate::ch::decode_arcs_flat(&net, file.section("arcs_f")?, num_arcs)?;
        let read_set =
            |prefix: &str, entries: usize, forward: bool| -> press_store::Result<LabelSet> {
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
                Ok(LabelSet {
                    index,
                    hub,
                    dist,
                    parent,
                })
            };
        let sets = [("fwd", fwd_entries, true), ("bwd", bwd_entries, false)];
        let mut checked =
            crate::parallel::work_steal_map(&sets, workers, |_, &(p, e, f)| read_set(p, e, f))
                .into_iter();
        // In set order, so the forward error wins when both sets are corrupt.
        let fwd = checked.next().expect("one result per label set")?;
        let bwd = checked.next().expect("one result per label set")?;
        Ok(HubLabels {
            id: next_instance_id(),
            net,
            arcs,
            fwd,
            bwd,
        })
    }
}

impl std::fmt::Debug for MappedHubLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedHubLabels")
            .field("nodes", &self.n)
            .field("arcs", &self.num_arcs)
            .field("label_entries", &(self.fwd_entries + self.bwd_entries))
            .finish()
    }
}

/// Recomputes every label distance from its parent chain — the exact
/// float sums the build produced — validating chain structure along the
/// way (see [`HubLabels::from_store_bytes`]).
#[allow(clippy::too_many_arguments)]
fn recompute_dists(
    index: &[u32],
    hub: &[u32],
    parent: &[u32],
    dist: &mut [f64],
    arcs: &[ChArc],
    n: usize,
    forward: bool,
    what: &str,
) -> press_store::Result<()> {
    use press_store::StoreError;
    // 0 = unresolved, 1 = on the resolution stack, 2 = done.
    let mut state: Vec<u8> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for v in 0..n {
        let lo = index[v] as usize;
        let hi = index[v + 1] as usize;
        let count = hi - lo;
        if count == 0 {
            continue;
        }
        // Every non-empty label roots at the node's self entry.
        let self_pos = hub[lo..hi].binary_search(&(v as u32));
        match self_pos {
            Ok(k) if parent[lo + k] == NO_ARC => {}
            _ => {
                return Err(StoreError::Corrupt(format!(
                    "{what}: label of node {v} lacks a parentless self entry"
                )));
            }
        }
        state.clear();
        state.resize(count, 0);
        for start in 0..count {
            if state[start] == 2 {
                continue;
            }
            stack.clear();
            stack.push(start);
            state[start] = 1;
            while let Some(&cur) = stack.last() {
                let pa = parent[lo + cur];
                if pa == NO_ARC {
                    if hub[lo + cur] != v as u32 {
                        return Err(StoreError::Corrupt(format!(
                            "{what}: entry for hub {} of node {v} has no parent arc",
                            hub[lo + cur]
                        )));
                    }
                    dist[lo + cur] = 0.0;
                    state[cur] = 2;
                    stack.pop();
                    continue;
                }
                let arc = arcs[pa as usize];
                let (enters, from) = if forward {
                    (arc.head, arc.tail)
                } else {
                    (arc.tail, arc.head)
                };
                if enters.0 != hub[lo + cur] {
                    return Err(StoreError::Corrupt(format!(
                        "{what}: parent arc {pa} of node {v}'s hub {} does not enter it",
                        hub[lo + cur]
                    )));
                }
                let Ok(pk) = hub[lo..hi].binary_search(&from.0) else {
                    return Err(StoreError::Corrupt(format!(
                        "{what}: parent chain of node {v} leaves the label at hub {}",
                        from.0
                    )));
                };
                match state[pk] {
                    2 => {
                        dist[lo + cur] = dist[lo + pk] + arc.weight;
                        state[cur] = 2;
                        stack.pop();
                    }
                    1 => {
                        return Err(StoreError::Corrupt(format!(
                            "{what}: parent chain of node {v} cycles at hub {}",
                            from.0
                        )));
                    }
                    _ => {
                        state[pk] = 1;
                        stack.push(pk);
                    }
                }
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

    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let a = *self.net.edge(ei);
        let b = *self.net.edge(ej);
        if a.to == b.from {
            return Some(Vec::new());
        }
        if let Margin::Decided(interior) = self.margin_walk(a.to, b.from) {
            return interior;
        }
        self.exact_interior(a.to, b.from)
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
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;
    use crate::sp_table::SpTable;

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
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 5,
            weight_jitter: 0.15,
            removal_prob: 0.05,
            seed: 8,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        let single = HubLabels::from_ch(&ch, 1);
        for threads in [2, 3, 7] {
            let multi = HubLabels::from_ch(&ch, threads);
            assert_eq!(single.fwd.index, multi.fwd.index, "{threads} threads");
            assert_eq!(single.fwd.hub, multi.fwd.hub);
            assert_eq!(single.fwd.parent, multi.fwd.parent);
            assert_eq!(single.bwd.index, multi.bwd.index);
            assert_eq!(single.bwd.hub, multi.bwd.hub);
            assert_eq!(single.bwd.parent, multi.bwd.parent);
            let dist_bits = |s: &LabelSet| s.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(dist_bits(&single.fwd), dist_bits(&multi.fwd));
            assert_eq!(dist_bits(&single.bwd), dist_bits(&multi.bwd));
        }
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
        let ch = ContractionHierarchy::build(net.clone());
        let hl = HubLabels::from_ch(&ch, 1);
        // Labels are non-trivial (more than just self entries) and every
        // node has its self entry.
        assert!(hl.avg_label_len() > 1.0);
        for v in net.node_ids() {
            assert!(hl.fwd.find(v, v.0).is_some(), "missing self entry for {v}");
            assert!(hl.bwd.find(v, v.0).is_some());
        }
        // The memory trade goes the expected way: labels are bigger than
        // the hierarchy they were derived from.
        assert!(hl.approx_bytes() > ch.approx_bytes());
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
        // Distances were NOT stored — they were recomputed from parent
        // chains — and still match bit-for-bit.
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
    fn store_artifact_is_compact() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 3,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build(net.clone());
        // The *compact* sections store no floats and delta-code every id
        // array, so they must be well under half the resident footprint.
        // The flat (`*_f`) twins exist for the mapped tier and are
        // full-width by design — exclude them from the compactness claim.
        let bytes = hl.to_store_bytes();
        let file = press_store::StoreFile::from_bytes(bytes.clone()).unwrap();
        let flat: usize = file
            .section_names()
            .filter(|nm| nm.ends_with("_f"))
            .map(|nm| file.section_len(nm).unwrap())
            .sum();
        assert!(flat > 0, "flat twins missing from the artifact");
        assert!(
            (bytes.len() - flat) * 2 < hl.approx_bytes(),
            "compact sections {} B vs resident {} B",
            bytes.len() - flat,
            hl.approx_bytes()
        );
    }

    #[test]
    fn store_load_rejects_mismatched_network_and_truncation() {
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
        let mut bytes = built.to_store_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(HubLabels::from_store_bytes(net.clone(), bytes).is_err());
        // Wrong artifact kind is typed.
        let ch = ContractionHierarchy::build(net.clone());
        assert!(matches!(
            HubLabels::from_store_bytes(net, ch.to_store_bytes()),
            Err(press_store::StoreError::WrongKind { .. })
        ));
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
    fn mapped_open_is_bit_identical_to_owned_load() {
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
        // Field-for-field identity, including the distances the owned
        // load recomputes but the mapped open reads straight from disk.
        assert_eq!(mapped.fwd.index, built.fwd.index);
        assert_eq!(mapped.fwd.hub, built.fwd.hub);
        assert_eq!(mapped.fwd.parent, built.fwd.parent);
        assert_eq!(mapped.bwd.index, built.bwd.index);
        assert_eq!(mapped.bwd.hub, built.bwd.hub);
        assert_eq!(mapped.bwd.parent, built.bwd.parent);
        for (a, b) in built.fwd.dist.iter().zip(mapped.fwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in built.bwd.dist.iter().zip(mapped.bwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(mapped.arcs.len(), built.arcs.len());
        // The mapped arrays really are zero-copy views over the mapping,
        // not decoded copies.
        assert!(mapped.fwd.hub.is_borrowed());
        assert!(mapped.fwd.dist.is_borrowed());
        assert!(mapped.bwd.parent.is_borrowed());
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    built.node_dist(u, v).to_bits(),
                    mapped.node_dist(u, v).to_bits()
                );
                assert_eq!(built.pred_edge(u, v), mapped.pred_edge(u, v));
            }
        }
        for &(a, b) in &[(EdgeId(0), EdgeId(17)), (EdgeId(9), EdgeId(3))] {
            assert_eq!(built.sp_interior(a, b), mapped.sp_interior(a, b));
        }
    }

    #[test]
    fn mapped_open_surfaces_flat_corruption_as_typed_checksum_error() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let bytes = HubLabels::build(net.clone()).to_store_bytes();
        // One flip per region of the CRC kernel over a distance section
        // that spans many 64 B fold blocks and ends in a sub-16 B tail:
        // the O(metadata) open must still succeed, and the first touch
        // during validation must surface a typed checksum error naming
        // the section — never a panic or a silently wrong label.
        let file = press_store::StoreFile::from_bytes(bytes.clone()).unwrap();
        let name = ["fwd_dist_f", "bwd_dist_f"]
            .into_iter()
            .find(|nm| file.section_len(nm).is_some_and(|len| len % 16 != 0))
            .expect("a distance section with a sub-16 B tail");
        let payload = file.section(name).unwrap();
        let len = payload.len();
        let at = bytes.windows(len).position(|w| w == payload).unwrap();
        let four_lane_end = len / 64 * 64;
        let one_lane_end = len / 16 * 16;
        assert!(
            four_lane_end >= 8 * 64 && one_lane_end > four_lane_end,
            "{name} is {len} B"
        );
        let flips = [
            ("first byte", 0),
            ("4-lane fold", four_lane_end / 2 + 5),
            ("16 B fold", four_lane_end + 3),
            ("tail", len - 1),
        ];
        for (region, offset) in flips {
            let mut flipped = bytes.clone();
            flipped[at + offset] ^= 0x40;
            let path = temp_artifact("hl-corrupt", &flipped);
            let opened = MappedHubLabels::open(net.clone(), &path).unwrap();
            let err = opened.validate();
            std::fs::remove_file(&path).unwrap();
            match err {
                Err(press_store::StoreError::ChecksumMismatch { section }) => {
                    assert_eq!(section, name, "{region}")
                }
                other => panic!("{region}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    /// The forward and backward label sets are validated side by side;
    /// the verdict is the sequential pass's for 1 worker and for 2: a
    /// flipped byte in a `bwd_*_f` section is that section's checksum
    /// mismatch, a CRC-valid structural fault there is the same typed
    /// `Corrupt`, and when both sets are faulty the forward one is
    /// reported.
    #[test]
    fn mapped_open_validates_both_label_sets_in_parallel_as_in_sequence() {
        use press_store::{StoreError, StoreFile, StoreWriter};
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.1,
            seed: 5,
            ..GridConfig::default()
        }));
        let bytes = HubLabels::build(net.clone()).to_store_bytes();
        let file = StoreFile::from_bytes(bytes.clone()).unwrap();
        // The artifact with one section's payload replaced, every CRC valid.
        let rewrite = |name: &str, payload: Vec<u8>| {
            let mut w = StoreWriter::new(file.kind());
            for nm in file.section_names() {
                let p = if nm == name {
                    payload.clone()
                } else {
                    file.section(nm).unwrap().to_vec()
                };
                if nm.ends_with("_f") {
                    w.section_aligned(nm, p);
                } else {
                    w.section(nm, p);
                }
            }
            w.to_bytes()
        };
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
        // Repeats the first hub of the first label holding two.
        let unsorted = |set: &str| {
            let index: Vec<u32> = le_u32s(file.section(&format!("{set}_index_f")).unwrap());
            let mut hub: Vec<u32> = le_u32s(file.section(&format!("{set}_hub_f")).unwrap());
            let v = (0..index.len() - 1)
                .find(|&v| index[v + 1] - index[v] >= 2)
                .unwrap();
            hub[index[v] as usize + 1] = hub[index[v] as usize];
            let payload = hub.iter().flat_map(|h| h.to_le_bytes()).collect();
            (
                rewrite(&format!("{set}_hub_f"), payload),
                StoreError::Corrupt(format!(
                    "{set}_hub_f: hubs of node {v} are not strictly ascending node ids"
                )),
            )
        };
        let (bwd_structure, bwd_structure_err) = unsorted("bwd");
        let (fwd_structure, fwd_structure_err) = unsorted("fwd");
        let checksum = |section: &str| StoreError::ChecksumMismatch {
            section: section.into(),
        };
        let cases = [
            (
                "bwd flip",
                flip(&bytes, "bwd_parent_f"),
                checksum("bwd_parent_f"),
            ),
            ("bwd structure", bwd_structure.clone(), bwd_structure_err),
            (
                "fwd flip + bwd structure",
                flip(&bwd_structure, "fwd_dist_f"),
                checksum("fwd_dist_f"),
            ),
            (
                "fwd structure + bwd flip",
                flip(&fwd_structure, "bwd_hub_f"),
                fwd_structure_err,
            ),
        ];
        for (what, corrupt, want) in cases {
            let path = temp_artifact("hl-par", &corrupt);
            for workers in [1, 2] {
                let got = MappedHubLabels::open(net.clone(), &path)
                    .unwrap()
                    .validate_with(workers);
                assert_eq!(got.err(), Some(want.clone()), "{what}, {workers} workers");
            }
            std::fs::remove_file(&path).unwrap();
        }
        // And the clean artifact validates to the same labels either way.
        let path = temp_artifact("hl-par-clean", &bytes);
        let one = MappedHubLabels::open(net.clone(), &path)
            .unwrap()
            .validate_with(1)
            .unwrap();
        let two = MappedHubLabels::open(net.clone(), &path)
            .unwrap()
            .validate_with(2)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(one.fwd.hub, two.fwd.hub);
        assert_eq!(one.bwd.parent, two.bwd.parent);
    }

    fn le_u32s(raw: &[u8]) -> Vec<u32> {
        raw.chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn mapped_open_rejects_pre_flat_artifacts_that_owned_load_accepts() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let bytes = HubLabels::build(net.clone()).to_store_bytes();
        // Rebuild the container with every flat twin stripped — the shape
        // artifacts had before this tier existed.
        let file = press_store::StoreFile::from_bytes(bytes).unwrap();
        let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
        let names: Vec<String> = file
            .section_names()
            .filter(|nm| !nm.ends_with("_f"))
            .map(str::to_owned)
            .collect();
        for nm in &names {
            w.section(nm, file.section(nm).unwrap().to_vec());
        }
        let path = temp_artifact("hl-preflat", &w.to_bytes());
        let mapped = MappedHubLabels::open(net.clone(), &path);
        assert!(
            matches!(mapped, Err(press_store::StoreError::Corrupt(_))),
            "expected an actionable Corrupt error, got {mapped:?}"
        );
        // The owned loader still accepts the stripped artifact: the flat
        // tier is additive, not a format break.
        let owned = HubLabels::load_from(net, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(owned.fwd.index.len() > 1);
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

    /// `sp_interior` by the exact route alone.
    fn exact_sp_interior(hl: &HubLabels, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let (a, b) = (*hl.net.edge(ei), *hl.net.edge(ej));
        if a.to == b.from {
            return Some(Vec::new());
        }
        hl.exact_interior(a.to, b.from)
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
        // An owned and a mapped load of one artifact: equal labels,
        // distinct instances.
        let path = temp_artifact("hl-hygiene", &big.to_store_bytes());
        let owned = HubLabels::load_from(big_net.clone(), &path).unwrap();
        let mapped = HubLabels::open_mapped(big_net.clone(), &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let ids = [small.id, big.id, owned.id, mapped.id];
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
                let (start, small, big, owned, mapped) = (&start, &small, &big, &owned, &mapped);
                let (small_dense, big_dense) = (&small_dense, &big_dense);
                let (ns, nb) = (small_net.num_nodes() as u32, big_net.num_nodes() as u32);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..400u32 {
                        let k = i * 7 + t * 3;
                        let (u, v) = (NodeId(k % ns), NodeId((k / 3 + 1) % ns));
                        assert_eq!(small.pred_edge(u, v), small_dense.pred_edge(u, v));
                        for hl in [big, owned, mapped] {
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
    use super::tests::{assert_margin_exact_dense_agree, with_parallel_edges_and_loops};
    use super::*;
    use crate::generators::{
        grid_network, random_geometric_network, GridConfig, RandomGeometricConfig,
    };
    use proptest::prelude::*;

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
