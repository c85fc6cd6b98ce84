//! One-shot source context for the canonical tight-edge walk.
//!
//! The exact route of the hub labels' `sp_interior` reconstructs the
//! canonical shortest-path tree path by walking backwards from the
//! target: at every node it scans incoming edges in ascending id for the
//! first *tight* one (`d(u, p) + w(e) == d(u, cur)`). Those `d(u, p)`
//! probes all share the same source `u`, but a naive walk re-runs a full
//! point query — meet plus a full unpack-and-re-accumulate of the winning
//! up-down path — per in-edge per step, making decompression cost
//! quadratic in path length.
//!
//! The walk runs only on a **near-tie**: the labels first walk
//! label-sum margin picks under a pinned source ([`crate::hub_labels`],
//! "Bit-identical answers"), which decides every step whose best in-edge
//! clears the rounding margin, and hand the whole gap to this exact walk
//! — their fallback and their test reference — the moment one does not
//! (tied grids, parallel edges).
//!
//! [`SourceProbe`] hoists everything source-side out of the loop, one
//! shot per walk:
//!
//! * `u`'s **forward label** (its exhaustive upward search space) is
//!   materialized once, so each probe only needs the *target's* backward
//!   label (a flat slice) and a sorted merge to find the meet hub.
//! * the **left-to-right re-accumulated distance `u → hub`** is memoized
//!   per forward-label entry ([`SourceProbe::cum`]), so a probe unpacks
//!   only the *backward* chain of the up-down path — hub down to target —
//!   and continues the fold from the cached forward prefix.
//!
//! Bit-exactness is preserved by construction: left-to-right float
//! accumulation over a concatenation equals folding the second part on
//! top of the fold of the first (`fold(fold(0, F), B) == fold(0, F++B)`
//! as the *same* sequence of f64 additions), and the meet selection is
//! the exact merge rule of the label query (minimal label-distance sum,
//! smallest hub id among ties). The tight-edge verification itself — the
//! reason `sp_interior` matches the dense oracle on massively tied grids
//! — is unchanged.
//!
//! Scope: a probe may select a *different* minimal meet than the
//! pinned-row query would among label-distance ties, which matters only
//! for two distinct shortest paths whose left-to-right sums collide
//! within rounding error while the labels' differently-associated totals
//! rank them the other way — never observed under the property tests.
//! There [`canonical_walk`] finds no float-tight in-edge and the caller
//! falls back to the unpacked up-down path, which is still a shortest
//! path; quantized (every tied sum exact) and continuous (unique shortest
//! path) regimes are unaffected, as the tied-grid oracle proptests
//! assert.

use crate::ch::{ChArc, Unpack, NO_ARC};
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};

/// The canonical tight-edge walk behind the hub labels' exact
/// `sp_interior`: reconstructs the canonical-tree interior from `target`
/// back to the source `u`, asking `dist` for `d(u, p)` (never called for
/// `p == u`) and taking at each node the first (= minimum id) incoming
/// edge satisfying the float-tight equation — the dense oracle's
/// definition. `d` is `d(u, target)`. Returns `None` when the walk
/// cannot complete (a probe disagrees by an ulp in the adversarial
/// regime, or a degenerate tie cycle) — the caller then falls back to
/// its unpacked shortest path.
pub(crate) fn canonical_walk(
    net: &RoadNetwork,
    u: NodeId,
    target: NodeId,
    d: f64,
    mut dist: impl FnMut(NodeId) -> Option<f64>,
) -> Option<Vec<EdgeId>> {
    let mut interior = Vec::new();
    let mut cur = target;
    let mut d_cur = d;
    let mut steps = 0usize;
    while cur != u {
        steps += 1;
        if steps > net.num_edges() + 1 {
            return None; // degenerate tie cycle
        }
        let mut found = None;
        for &e in net.in_edges(cur) {
            let edge = net.edge(e);
            if edge.from == edge.to {
                continue;
            }
            let dp = if edge.from == u {
                0.0
            } else {
                match dist(edge.from) {
                    Some(dp) => dp,
                    None => continue, // unreachable from u
                }
            };
            if dp + edge.weight == d_cur {
                found = Some((e, dp));
                break;
            }
        }
        let (e, dp) = found?;
        interior.push(e);
        cur = net.edge(e).from;
        d_cur = dp;
    }
    interior.reverse();
    Some(interior)
}

/// Folds the original-edge weights of `arc`'s expansion onto `acc`, in
/// path order — bit-identical to expanding the arc into an edge list and
/// summing left-to-right, without materializing the list. `stack` is
/// caller-provided scratch (cleared here) so walks allocate nothing per
/// probe.
fn fold_arc_weights(
    net: &RoadNetwork,
    arcs: &[ChArc],
    arc: u32,
    acc: f64,
    stack: &mut Vec<u32>,
) -> f64 {
    stack.clear();
    stack.push(arc);
    let mut acc = acc;
    while let Some(a) = stack.pop() {
        match arcs[a as usize].unpack {
            Unpack::Original(e) => acc += net.weight(e),
            Unpack::Shortcut(first, second) => {
                stack.push(second);
                stack.push(first);
            }
        }
    }
    acc
}

/// The walk-lifetime forward context of one source node: its forward
/// label (hub-ascending) plus lazily memoized re-accumulated `u → hub`
/// distances. See the module docs.
pub(crate) struct SourceProbe {
    hubs: Vec<u32>,
    dists: Vec<f64>,
    parents: Vec<u32>,
    /// Re-accumulated distance per entry; NaN marks "not yet computed"
    /// (label distances are finite sums of positive weights, never NaN).
    cum: Vec<f64>,
    fold_stack: Vec<u32>,
    memo_stack: Vec<usize>,
}

impl SourceProbe {
    /// Builds the context from the source's forward-label entries
    /// `(hub, label distance, parent arc)`, which must be hub-ascending —
    /// as the label CSR slice is.
    pub(crate) fn from_entries(entries: impl Iterator<Item = (u32, f64, u32)>) -> SourceProbe {
        let (lo, hi) = entries.size_hint();
        let cap = hi.unwrap_or(lo);
        let mut probe = SourceProbe {
            hubs: Vec::with_capacity(cap),
            dists: Vec::with_capacity(cap),
            parents: Vec::with_capacity(cap),
            cum: Vec::with_capacity(cap),
            fold_stack: Vec::new(),
            memo_stack: Vec::new(),
        };
        for (hub, dist, parent) in entries {
            debug_assert!(probe.hubs.last().is_none_or(|&h| h < hub), "hub order");
            probe.hubs.push(hub);
            probe.dists.push(dist);
            probe.parents.push(parent);
            probe.cum.push(f64::NAN);
        }
        probe
    }

    /// Memoized re-accumulated distance from the source to the hub of
    /// forward entry `i`: resolved by walking the (acyclic, in-label)
    /// parent chain down to the first already-known prefix, then folding
    /// each parent arc's expansion back up in path order.
    fn cum(&mut self, net: &RoadNetwork, arcs: &[ChArc], i: usize) -> f64 {
        if self.cum[i].is_nan() {
            self.memo_stack.clear();
            let mut k = i;
            while self.cum[k].is_nan() {
                let pa = self.parents[k];
                if pa == NO_ARC {
                    self.cum[k] = 0.0; // the self entry roots every chain
                    break;
                }
                self.memo_stack.push(k);
                let prev = arcs[pa as usize].tail.0;
                k = self
                    .hubs
                    .binary_search(&prev)
                    .expect("forward label parent chain must stay inside the label");
            }
            while let Some(j) = self.memo_stack.pop() {
                let pa = self.parents[j];
                let prev = arcs[pa as usize].tail.0;
                let pk = self
                    .hubs
                    .binary_search(&prev)
                    .expect("forward label parent chain must stay inside the label");
                let prefix = self.cum[pk];
                let mut stack = std::mem::take(&mut self.fold_stack);
                self.cum[j] = fold_arc_weights(net, arcs, pa, prefix, &mut stack);
                self.fold_stack = stack;
            }
        }
        self.cum[i]
    }

    /// `d(u, t)` for a target with backward label `(bwd_hubs, bwd_dists,
    /// bwd_parents)` — hub-ascending; parents are **global arc ids**
    /// into `arcs` (the chain is followed by binary-searching the
    /// slice's hubs, exactly like the label CSR stores them): merge for the
    /// winning meet hub, then re-accumulate the memoized forward prefix
    /// plus the unpacked backward chain. `None` when the labels share no
    /// hub (unreachable). The caller handles `t == u`.
    pub(crate) fn dist_to(
        &mut self,
        net: &RoadNetwork,
        arcs: &[ChArc],
        bwd_hubs: &[u32],
        bwd_dists: &[f64],
        bwd_parents: &[u32],
    ) -> Option<f64> {
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = f64::INFINITY;
        let mut meet: Option<(usize, usize)> = None;
        while i < self.hubs.len() && j < bwd_hubs.len() {
            let hf = self.hubs[i];
            let hb = bwd_hubs[j];
            if hf < hb {
                i += 1;
            } else if hb < hf {
                j += 1;
            } else {
                let total = self.dists[i] + bwd_dists[j];
                if total < best {
                    best = total;
                    meet = Some((i, j));
                }
                i += 1;
                j += 1;
            }
        }
        let (fi, bi) = meet?;
        let mut acc = self.cum(net, arcs, fi);
        let mut k = bi;
        loop {
            let pa = bwd_parents[k];
            if pa == NO_ARC {
                break;
            }
            let mut stack = std::mem::take(&mut self.fold_stack);
            acc = fold_arc_weights(net, arcs, pa, acc, &mut stack);
            self.fold_stack = stack;
            let next = arcs[pa as usize].head.0;
            k = bwd_hubs
                .binary_search(&next)
                .expect("backward label parent chain must stay inside the label");
        }
        Some(acc)
    }
}
