//! Query processor over compressed trajectories — paper §5.
//!
//! PRESS answers the common LBS queries **without fully decompressing**:
//!
//! * [`QueryEngine::whereat`] — position at time `t`; error bounded by
//!   TSND (§5.1).
//! * [`QueryEngine::whenat`] — time at position `(x, y)`; error bounded by
//!   NSTD (§5.2).
//! * [`QueryEngine::range`] — does the trajectory pass region `R` within
//!   `[t1, t2]` (§5.3).
//! * [`QueryEngine::passes_near`] / [`QueryEngine::min_distance`] — the
//!   extended queries sketched in §5.4.
//!
//! The speed-ups come from the auxiliary structures the trained
//! [`HscModel`] carries: per-Trie-node decompressed distances (skip a whole
//! coded unit by adding one number), per-Trie-node MBRs and shortest-path
//! MBRs (skip a unit/gap by one rectangle test), and the length every gap
//! comes with (skip an SP gap by adding it). Only the units that can
//! contain the answer are expanded, and nothing here calls the
//! shortest-path layer: a unit's hidden gaps, and every gap between two
//! units the training corpus ever put side by side, are read from the
//! model's link arena, their lengths from its link-length table; a gap
//! between two edges it never saw together is read from the stream
//! itself, its length summed by the walk that reads it
//! ([`crate::spatial::hsc`] § the stream). No gap's length is refolded
//! from its edges here, and a gap unit is evaluated straight from the
//! interior the reader lends, never copied.
//!
//! [`QueryEngine::range`] is the store's per-record kernel: a range scan
//! keeps one `UnitBuffers` (the reader's run buffer and a unit's
//! expansion) for every record it evaluates. A window with a NaN bound,
//! like a `whereat` at a NaN time, is [`PressError::OutOfDomain`] — no
//! timestamp compares to NaN.
//!
//! Every query also has a `_raw` twin operating on the uncompressed
//! representation — the baseline the paper's Figs. 15–17 compare against.

use crate::error::{PressError, Result};
use crate::press::CompressedTrajectory;
use crate::spatial::{CompressedSpatial, HscModel, TrieNodeId};
use crate::types::{DtPoint, Trajectory};
use press_network::{project_onto_segment, EdgeId, Mbr, Point};

/// Linear-scan `Dis(T, t)` — the paper's query cost model: "it visits m/2
/// temporal tuples … on average" (§5.1). The compressed form scans the
/// same way over its (β× shorter) sequence, so the measured speed-ups
/// reflect the representation, not a smarter index.
pub fn dis_linear(seq: &[DtPoint], t: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if t <= seq[0].t {
        return seq[0].d;
    }
    for w in seq.windows(2) {
        if t <= w[1].t {
            let span = w[1].t - w[0].t;
            if span <= f64::EPSILON {
                return w[0].d;
            }
            return w[0].d + (w[1].d - w[0].d) * (t - w[0].t) / span;
        }
    }
    seq[seq.len() - 1].d
}

/// Linear-scan `Tim(T, d)` (earliest-time convention), matching §5.2's
/// cost model.
pub fn tim_linear(seq: &[DtPoint], d: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if d <= seq[0].d {
        return seq[0].t;
    }
    for w in seq.windows(2) {
        if d <= w[1].d {
            let span = w[1].d - w[0].d;
            if span <= f64::EPSILON {
                return w[0].t;
            }
            return w[0].t + (w[1].t - w[0].t) * (d - w[0].d) / span;
        }
    }
    seq[seq.len() - 1].t
}

/// Query engine bound to a trained HSC model.
pub struct QueryEngine<'a> {
    model: &'a HscModel,
}

/// A decoded coding unit: either a Trie sub-trajectory or the shortest-path
/// gap between two consecutive units, with its interior — lent by the
/// stream reader for as long as it stands on the gap.
#[derive(Clone, Copy, Debug)]
enum Unit<'u> {
    Node(TrieNodeId),
    Gap(EdgeId, EdgeId, &'u [EdgeId]),
}

/// The buffers a query's unit walk fills: the stream reader's gap run
/// and a Trie unit's expansion. A caller answering query after query
/// keeps one ([`QueryEngine::range_with`]), so the walk allocates only
/// when a record outgrows them.
#[derive(Default)]
pub(crate) struct UnitBuffers {
    run: Vec<EdgeId>,
    edges: Vec<EdgeId>,
}

/// `[t1, t2]` in order, or [`PressError::OutOfDomain`] when either bound
/// is NaN: no timestamp compares to NaN, so no answer could be right.
pub(crate) fn time_window(t1: f64, t2: f64) -> Result<(f64, f64)> {
    if t1.is_nan() || t2.is_nan() {
        return Err(PressError::OutOfDomain(format!(
            "time window [{t1}, {t2}] has a NaN bound"
        )));
    }
    Ok(ordered(t1, t2))
}

/// [`PressError::OutOfDomain`] for a NaN `whereat` time: [`dis_linear`]
/// fails every comparison on NaN and would answer the sequence's end.
fn probe_time(t: f64) -> Result<f64> {
    if t.is_nan() {
        return Err(PressError::OutOfDomain("whereat time is NaN".into()));
    }
    Ok(t)
}

/// A unit of [`QueryEngine::min_distance`], kept past the stream reader's
/// visit: `node` is a Trie unit not expanded into `edges` yet.
struct HeldUnit {
    mbr: Mbr,
    node: Option<TrieNodeId>,
    edges: Vec<EdgeId>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a trained model (paper-faithful linear
    /// temporal scans).
    pub fn new(model: &'a HscModel) -> Self {
        QueryEngine { model }
    }

    /// The model the engine decodes under.
    pub fn model(&self) -> &'a HscModel {
        self.model
    }

    // ------------------------------------------------------------------
    // Unit streaming
    // ------------------------------------------------------------------

    /// Streams the coding units of a compressed spatial path in order,
    /// calling `f(unit, unit_length)` for each; `f` returns `true` to stop.
    /// A node's length comes from the precomputed table, a gap's with the
    /// gap from the stream reader — the left-to-right sum of its
    /// interior's weights (bit-equal to the shortest-path layer's
    /// `gap_dist`: Dijkstra adds in that order). A run is read into `run`.
    fn for_each_unit(
        &self,
        cs: &CompressedSpatial,
        run: &mut Vec<EdgeId>,
        mut f: impl FnMut(Unit<'_>, f64) -> Result<bool>,
    ) -> Result<()> {
        let trie = self.model.trie();
        self.model.for_each_unit(cs, run, |gap, node| {
            if let Some(gap) = gap {
                if f(Unit::Gap(gap.a, gap.b, gap.interior), gap.len)? {
                    return Ok(true);
                }
            }
            let nd = self.model.node_dist(node);
            if !nd.is_finite() {
                return Err(PressError::NoShortestPath(
                    trie.first_edge(node),
                    trie.last_edge(node),
                ));
            }
            f(Unit::Node(node), nd)
        })
    }

    /// The unit's full edge sequence: a gap's interior as the reader
    /// lends it, a Trie node expanded into `buf`. Callers keep one buffer
    /// per query, so expanding a unit allocates nothing.
    fn unit_edges<'e>(&self, unit: Unit<'e>, buf: &'e mut Vec<EdgeId>) -> Result<&'e [EdgeId]> {
        match unit {
            Unit::Node(n) => {
                buf.clear();
                self.model.expand_node_into(n, buf)?;
                Ok(buf)
            }
            Unit::Gap(_, _, interior) => Ok(interior),
        }
    }

    /// Conservative MBR of a unit without any expansion; `len` is the
    /// unit length `for_each_unit` handed to its closure
    /// (finite by construction).
    ///
    /// Node units use the precomputed table. Gap units use a cheap
    /// over-approximation instead of walking the shortest path: every
    /// point of `SP(a, b)`'s interior lies within network distance
    /// `gap/2` of either `a`'s head or `b`'s tail, hence within Euclidean
    /// distance `gap/2` of one of them. Over-approximation only costs
    /// extra candidate expansions — it can never exclude a true hit.
    fn unit_mbr(&self, unit: Unit<'_>, len: f64) -> Mbr {
        match unit {
            Unit::Node(n) => *self.model.node_mbr(n),
            Unit::Gap(a, b, _) => {
                let net = self.model.sp().network();
                let mut mbr = Mbr::of_point(&net.edge_end(a));
                mbr.expand_point(&net.edge_start(b));
                mbr.inflate(len / 2.0)
            }
        }
    }

    // ------------------------------------------------------------------
    // whereat (§5.1)
    // ------------------------------------------------------------------

    /// `whereat` over the **raw** representation: interpolate `d` from the
    /// temporal sequence, then walk the edge path (on average `m/2` tuples
    /// and `n/2` edges, §5.1).
    pub fn whereat_raw(&self, traj: &Trajectory, t: f64) -> Result<Point> {
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = dis_linear(&traj.temporal.points, probe_time(t)?);
        traj.path.point_at(self.model.sp().network(), d)
    }

    /// `whereat` over the **compressed** representation: interpolate `d'`
    /// from the compressed temporal sequence, then skip whole coded units
    /// via their precomputed lengths, expanding only the unit containing
    /// the answer. The answer deviates from the raw one by at most the
    /// trajectory's TSND (paper's bound in §5.1).
    pub fn whereat(&self, ct: &CompressedTrajectory, t: f64) -> Result<Point> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = dis_linear(&ct.temporal.points, probe_time(t)?);
        self.point_at_distance(&ct.spatial, d)
    }

    /// Point at distance `d` along a compressed spatial path, clamped to
    /// its extent.
    ///
    /// Follows §5.1's procedure: whole coded units are skipped by their
    /// precomputed lengths; inside the containing unit only the Trie edges
    /// (≤ θ of them) and *one* shortest-path gap are touched — the gap is
    /// resolved by walking it from its far end, without materializing the
    /// expansion.
    pub fn point_at_distance(&self, cs: &CompressedSpatial, d: f64) -> Result<Point> {
        let net = self.model.sp().network();
        let trie = self.model.trie();
        let mut dacu = 0.0f64;
        let mut answer: Option<Point> = None;
        let mut last_edge: Option<EdgeId> = None;
        self.for_each_unit(cs, &mut Vec::new(), |unit, len| {
            if dacu + len >= d {
                let offset = d - dacu;
                answer = Some(match unit {
                    Unit::Gap(a, b, interior) => self.point_in_gap(a, b, interior, len, offset),
                    Unit::Node(n) => {
                        // Walk the unit's Trie edges root→n, descending
                        // into at most one intra-unit gap (its link).
                        let mut local = offset;
                        let mut prev: Option<EdgeId> = None;
                        let mut found = None;
                        for &cur in trie.chain(n).as_slice() {
                            let e = trie.last_edge(cur);
                            if let Some(p) = prev {
                                if !net.consecutive(p, e) {
                                    let link = self.model.node_link(cur);
                                    let gap = self.model.node_link_len(cur);
                                    if local <= gap {
                                        found = Some(self.point_in_gap(p, e, link, gap, local));
                                        break;
                                    }
                                    local -= gap;
                                }
                            }
                            let w = net.weight(e);
                            if local <= w {
                                let frac = if w <= f64::EPSILON { 0.0 } else { local / w };
                                found = Some(net.point_on_edge(e, frac * net.edge_length(e)));
                                break;
                            }
                            local -= w;
                            prev = Some(e);
                        }
                        found.unwrap_or_else(|| net.edge_end(trie.last_edge(n)))
                    }
                });
                return Ok(true);
            }
            dacu += len;
            if let Unit::Node(n) = unit {
                last_edge = Some(trie.last_edge(n));
            }
            Ok(false)
        })?;
        if let Some(p) = answer {
            return Ok(p);
        }
        // d beyond the end: clamp to the end of the final edge.
        match last_edge {
            Some(e) => Ok(net.edge_end(e)),
            None => Err(PressError::EmptyPath),
        }
    }

    /// Point at `offset` into the `interior` of the gap between `a` and
    /// `b` (`0 ≤ offset ≤ gap`), located by walking the gap backwards
    /// from `b`'s tail — no allocation, and only the tail part of the gap
    /// is visited.
    fn point_in_gap(
        &self,
        a: EdgeId,
        b: EdgeId,
        interior: &[EdgeId],
        gap: f64,
        offset: f64,
    ) -> Point {
        let net = self.model.sp().network();
        if gap <= f64::EPSILON {
            return net.edge_start(b);
        }
        let from_end = (gap - offset).max(0.0);
        let mut acc = 0.0f64;
        for &pe in interior.iter().rev() {
            let w = net.weight(pe);
            if acc + w >= from_end {
                // Remaining-from-end inside this edge is (from_end - acc),
                // so from the start it is w - (from_end - acc).
                let into = (w - (from_end - acc)).clamp(0.0, w);
                let frac = if w <= f64::EPSILON { 0.0 } else { into / w };
                return net.point_on_edge(pe, frac * net.edge_length(pe));
            }
            acc += w;
        }
        // offset == 0 resolves to the gap start.
        net.point_on_edge(a, net.edge_length(a))
    }

    // ------------------------------------------------------------------
    // whenat (§5.2)
    // ------------------------------------------------------------------

    /// `whenat` over the raw representation: project `(x, y)` onto the
    /// path (first edge within `tolerance`), then interpolate the time.
    pub fn whenat_raw(&self, traj: &Trajectory, p: Point, tolerance: f64) -> Result<f64> {
        let net = self.model.sp().network();
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let mut dacu = 0.0f64;
        for &e in &traj.path.edges {
            let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
            if proj.dist <= tolerance {
                let d = dacu + proj.t * net.weight(e);
                return Ok(tim_linear(&traj.temporal.points, d));
            }
            dacu += net.weight(e);
        }
        Err(PressError::OutOfDomain(format!(
            "point ({}, {}) not on the trajectory (tolerance {tolerance})",
            p.x, p.y
        )))
    }

    /// `whenat` over the compressed representation: MBR-prune coded units,
    /// expand only candidates, then interpolate the time from the
    /// compressed temporal sequence. Error bounded by NSTD (§5.2).
    pub fn whenat(&self, ct: &CompressedTrajectory, p: Point, tolerance: f64) -> Result<f64> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = self.distance_of_point(&ct.spatial, p, tolerance)?;
        Ok(tim_linear(&ct.temporal.points, d))
    }

    /// Cumulative distance at which the compressed path first passes within
    /// `tolerance` of `p`.
    pub fn distance_of_point(
        &self,
        cs: &CompressedSpatial,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        let net = self.model.sp().network();
        let mut dacu = 0.0f64;
        let mut found: Option<f64> = None;
        let mut edges = Vec::new();
        self.for_each_unit(cs, &mut Vec::new(), |unit, len| {
            let mbr = self.unit_mbr(unit, len);
            // MBR test is a *may-contain* filter (paper: "the fact
            // (x,y) ∈ MBR(SP(ei,ej)) does not guarantee (x,y) ∈ SP(ei,ej)").
            if mbr.min_dist_to_point(&p) <= tolerance {
                let mut local = 0.0f64;
                for &e in self.unit_edges(unit, &mut edges)? {
                    let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
                    if proj.dist <= tolerance {
                        found = Some(dacu + local + proj.t * net.weight(e));
                        return Ok(true);
                    }
                    local += net.weight(e);
                }
            }
            dacu += len;
            Ok(false)
        })?;
        found.ok_or_else(|| {
            PressError::OutOfDomain(format!(
                "point ({}, {}) not on the trajectory (tolerance {tolerance})",
                p.x, p.y
            ))
        })
    }

    // ------------------------------------------------------------------
    // range (§5.3)
    // ------------------------------------------------------------------

    /// Boolean `range` over the raw representation: locate `d1`, `d2` from
    /// the temporal sequence, then scan the spanned edges for intersection
    /// with `region`.
    pub fn range_raw(&self, traj: &Trajectory, t1: f64, t2: f64, region: &Mbr) -> Result<bool> {
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network();
        let (d1, d2) = ordered(
            dis_linear(&traj.temporal.points, t1),
            dis_linear(&traj.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        for &e in &traj.path.edges {
            let w = net.weight(e);
            let overlaps = dacu <= d2 && dacu + w >= d1;
            if overlaps && region.intersects_segment(&net.edge_start(e), &net.edge_end(e)) {
                return Ok(true);
            }
            dacu += w;
            if dacu > d2 {
                break;
            }
        }
        Ok(false)
    }

    /// Boolean `range` over the compressed representation: unit-level MBR
    /// pruning, expansion only of candidate Trie units (a gap unit is
    /// evaluated from its interior in place), early exit past `d2`. A
    /// NaN bound in `[t1, t2]` is [`PressError::OutOfDomain`].
    pub fn range(&self, ct: &CompressedTrajectory, t1: f64, t2: f64, region: &Mbr) -> Result<bool> {
        self.range_with(ct, t1, t2, region, &mut UnitBuffers::default())
    }

    /// [`QueryEngine::range`] on the caller's buffers — the store's range
    /// scan keeps one for all the records it evaluates.
    pub(crate) fn range_with(
        &self,
        ct: &CompressedTrajectory,
        t1: f64,
        t2: f64,
        region: &Mbr,
        buffers: &mut UnitBuffers,
    ) -> Result<bool> {
        time_window(t1, t2)?;
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network();
        let (d1, d2) = ordered(
            dis_linear(&ct.temporal.points, t1),
            dis_linear(&ct.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        let mut hit = false;
        let UnitBuffers { run, edges } = buffers;
        self.for_each_unit(&ct.spatial, run, |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            if overlaps_window && self.unit_mbr(unit, len).intersects(region) {
                let mut local = dacu;
                for &e in self.unit_edges(unit, edges)? {
                    let w = net.weight(e);
                    if local <= d2
                        && local + w >= d1
                        && region.intersects_segment(&net.edge_start(e), &net.edge_end(e))
                    {
                        hit = true;
                        return Ok(true);
                    }
                    local += w;
                }
            }
            dacu += len;
            Ok(false)
        })?;
        Ok(hit)
    }

    // ------------------------------------------------------------------
    // Extended queries (§5.4)
    // ------------------------------------------------------------------

    /// Does the trajectory pass within `dist` of `p` during `[t1, t2]`?
    /// (§5.4 "trajectories passing near a location point".)
    pub fn passes_near(
        &self,
        ct: &CompressedTrajectory,
        p: Point,
        dist: f64,
        t1: f64,
        t2: f64,
    ) -> Result<bool> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network();
        let (d1, d2) = ordered(
            dis_linear(&ct.temporal.points, t1),
            dis_linear(&ct.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        let mut hit = false;
        let mut edges = Vec::new();
        self.for_each_unit(&ct.spatial, &mut Vec::new(), |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            // Skip a whole unit when its MBR is farther than `dist`.
            if overlaps_window && self.unit_mbr(unit, len).min_dist_to_point(&p) <= dist {
                let mut local = dacu;
                for &e in self.unit_edges(unit, &mut edges)? {
                    let w = net.weight(e);
                    if local <= d2 && local + w >= d1 {
                        let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
                        if proj.dist <= dist {
                            hit = true;
                            return Ok(true);
                        }
                    }
                    local += w;
                }
            }
            dacu += len;
            Ok(false)
        })?;
        Ok(hit)
    }

    /// Minimum Euclidean distance between the spatial paths of two
    /// compressed trajectories (§5.4), with unit-pair MBR pruning against
    /// the best distance found so far.
    pub fn min_distance(&self, a: &CompressedTrajectory, b: &CompressedTrajectory) -> Result<f64> {
        let net = self.model.sp().network();
        let mut units_a = self.collect_units(&a.spatial)?;
        let mut units_b = self.collect_units(&b.spatial)?;
        if units_a.is_empty() || units_b.is_empty() {
            return Err(PressError::EmptyPath);
        }
        let mut best = f64::INFINITY;
        for ua in &mut units_a {
            // Prune whole rows by MBR distance.
            if units_b
                .iter()
                .all(|ub| ua.mbr.min_dist_to_mbr(&ub.mbr) >= best)
            {
                continue;
            }
            for ub in &mut units_b {
                if ua.mbr.min_dist_to_mbr(&ub.mbr) >= best {
                    continue;
                }
                let (ea, eb) = (self.held_edges(ua)?, self.held_edges(ub)?);
                for &e1 in ea {
                    let (a1, a2) = (net.edge_start(e1), net.edge_end(e1));
                    for &e2 in eb {
                        let d = press_network::dist_segment_to_segment(
                            &a1,
                            &a2,
                            &net.edge_start(e2),
                            &net.edge_end(e2),
                        );
                        if d < best {
                            best = d;
                            if best == 0.0 {
                                return Ok(0.0);
                            }
                        }
                    }
                }
            }
        }
        Ok(best)
    }

    /// Conservative MBR of a whole compressed spatial path, unioned from
    /// the per-unit synopses without expanding anything. This is the
    /// rectangle the block-oriented [`crate::store::TrajectoryStore`]
    /// records per block: over-approximation only costs extra candidate
    /// blocks, never a missed hit.
    pub fn spatial_mbr(&self, cs: &CompressedSpatial) -> Result<Mbr> {
        let mut mbr = Mbr::empty();
        self.for_each_unit(cs, &mut Vec::new(), |unit, len| {
            mbr.expand(&self.unit_mbr(unit, len));
            Ok(false)
        })?;
        Ok(mbr)
    }

    /// Collects each unit's MBR for a compressed path, and of a unit only
    /// what does not outlive the stream reader's visit: a gap's lent
    /// interior is copied on the spot, a Trie node keeps its id.
    fn collect_units(&self, cs: &CompressedSpatial) -> Result<Vec<HeldUnit>> {
        let mut units = Vec::new();
        self.for_each_unit(cs, &mut Vec::new(), |unit, len| {
            let (node, edges) = match unit {
                Unit::Node(n) => (Some(n), Vec::new()),
                Unit::Gap(_, _, interior) => (None, interior.to_vec()),
            };
            units.push(HeldUnit {
                mbr: self.unit_mbr(unit, len),
                node,
                edges,
            });
            Ok(false)
        })?;
        Ok(units)
    }

    /// The edges of a held unit, expanding a Trie node the first time a
    /// pair it is in survives MBR pruning.
    fn held_edges<'h>(&self, unit: &'h mut HeldUnit) -> Result<&'h [EdgeId]> {
        if let Some(n) = unit.node.take() {
            self.model.expand_node_into(n, &mut unit.edges)?;
        }
        Ok(&unit.edges)
    }
}

#[inline]
fn ordered(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::press::{Press, PressConfig};
    use crate::temporal::BtcBounds;
    use crate::types::{DtPoint, SpatialPath, TemporalSequence};
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    struct Fixture {
        net: Arc<RoadNetwork>,
        press: Press,
        trajs: Vec<Trajectory>,
        compressed: Vec<CompressedTrajectory>,
    }

    fn fixture(bounds: BtcBounds) -> Fixture {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 7,
            ny: 7,
            weight_jitter: 0.12,
            seed: 31,
            ..GridConfig::default()
        }));
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(8);
        let mut paths = Vec::new();
        while paths.len() < 50 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            if let Some(p) = press_network::dijkstra(&net, a).edge_path_to(&net, b) {
                if p.len() >= 5 {
                    paths.push(p);
                }
            }
        }
        let press = Press::train(
            sp,
            &paths,
            PressConfig {
                bounds,
                ..PressConfig::default()
            },
        )
        .unwrap();
        let trajs: Vec<Trajectory> = paths
            .iter()
            .map(|p| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let mut pts = Vec::new();
                let mut d = 0.0;
                let mut t = 0.0;
                while d < total {
                    pts.push(DtPoint::new(d, t));
                    let step: f64 = rng.gen_range(15.0..45.0);
                    d = (d + step).min(total);
                    t += rng.gen_range(2.0..6.0);
                }
                pts.push(DtPoint::new(total, t + 1.0));
                Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(pts).unwrap(),
                )
            })
            .collect();
        let compressed = trajs.iter().map(|t| press.compress(t).unwrap()).collect();
        Fixture {
            net,
            press,
            trajs,
            compressed,
        }
    }

    #[test]
    fn whereat_exact_at_zero_tolerance() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(20) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for k in 0..=10 {
                let t = t0 + (t1 - t0) * k as f64 / 10.0;
                let raw = engine.whereat_raw(traj, t).unwrap();
                let comp = engine.whereat(ct, t).unwrap();
                assert!(
                    raw.dist(&comp) < 1e-6,
                    "whereat mismatch at t={t}: raw {raw:?} comp {comp:?}"
                );
            }
        }
    }

    #[test]
    fn whereat_bounded_by_tsnd() {
        let tau = 120.0;
        let f = fixture(BtcBounds::new(tau, 60.0));
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for k in 0..=8 {
                let t = t0 + (t1 - t0) * k as f64 / 8.0;
                let raw = engine.whereat_raw(traj, t).unwrap();
                let comp = engine.whereat(ct, t).unwrap();
                // |whereat' − whereat| ≤ TSND (Euclidean ≤ network distance).
                assert!(
                    raw.dist(&comp) <= tau + 1e-6,
                    "deviation {} beyond τ {tau}",
                    raw.dist(&comp)
                );
            }
        }
    }

    #[test]
    fn whereat_clamps_outside_time_range() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let traj = &f.trajs[0];
        let ct = &f.compressed[0];
        let before = engine.whereat(ct, -1e9).unwrap();
        let raw_before = engine.whereat_raw(traj, -1e9).unwrap();
        assert!(before.dist(&raw_before) < 1e-6);
        let after = engine.whereat(ct, 1e9).unwrap();
        let raw_after = engine.whereat_raw(traj, 1e9).unwrap();
        assert!(after.dist(&raw_after) < 1e-6);
        // NaN is outside every time range, not clamped to an end.
        assert!(matches!(
            engine.whereat(ct, f64::NAN),
            Err(PressError::OutOfDomain(_))
        ));
        assert!(matches!(
            engine.whereat_raw(traj, f64::NAN),
            Err(PressError::OutOfDomain(_))
        ));
    }

    #[test]
    fn whenat_matches_raw_at_zero_tolerance_bounds() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(20) {
            // Probe a point in the middle of the path.
            let total = traj.path.weight(&f.net);
            let probe = traj.path.point_at(&f.net, total * 0.4).unwrap();
            let raw = engine.whenat_raw(traj, probe, 0.5).unwrap();
            let comp = engine.whenat(ct, probe, 0.5).unwrap();
            assert!(
                (raw - comp).abs() < 1e-6,
                "whenat mismatch: raw {raw} comp {comp}"
            );
        }
    }

    #[test]
    fn whenat_bounded_by_nstd() {
        let eta = 45.0;
        let f = fixture(BtcBounds::new(80.0, eta));
        let engine = QueryEngine::new(f.press.model());
        let mut checked = 0;
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let total = traj.path.weight(&f.net);
            let probe = traj.path.point_at(&f.net, total * 0.5).unwrap();
            let raw = engine.whenat_raw(traj, probe, 0.5);
            let comp = engine.whenat(ct, probe, 0.5);
            if let (Ok(raw), Ok(comp)) = (raw, comp) {
                assert!(
                    (raw - comp).abs() <= eta + 1e-6,
                    "whenat deviation {} beyond η {eta}",
                    (raw - comp).abs()
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "too few comparable probes");
    }

    #[test]
    fn whenat_rejects_far_points() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let far = Point::new(1e7, 1e7);
        assert!(matches!(
            engine.whenat(&f.compressed[0], far, 1.0),
            Err(PressError::OutOfDomain(_))
        ));
        assert!(matches!(
            engine.whenat_raw(&f.trajs[0], far, 1.0),
            Err(PressError::OutOfDomain(_))
        ));
    }

    #[test]
    fn range_agrees_with_raw_at_zero_bounds() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let mut rng = StdRng::seed_from_u64(4);
        let bb = f.net.bounding_box();
        let mut hits = 0;
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for _ in 0..6 {
                let cx = rng.gen_range(bb.min_x..bb.max_x);
                let cy = rng.gen_range(bb.min_y..bb.max_y);
                let half = rng.gen_range(20.0..200.0);
                let region = Mbr::new(cx - half, cy - half, cx + half, cy + half);
                let qa = t0 + (t1 - t0) * rng.gen_range(0.0..0.5);
                let qb = qa + (t1 - qa) * rng.gen_range(0.1..1.0);
                let raw = engine.range_raw(traj, qa, qb, &region).unwrap();
                let comp = engine.range(ct, qa, qb, &region).unwrap();
                assert_eq!(raw, comp, "range mismatch region {region:?}");
                if raw {
                    hits += 1;
                }
            }
        }
        assert!(hits > 5, "test regions never hit — fixture too sparse");
    }

    #[test]
    fn passes_near_detects_on_path_points() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(10) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            let mid = engine.whereat_raw(traj, (t0 + t1) / 2.0).unwrap();
            assert!(engine.passes_near(ct, mid, 5.0, t0, t1).unwrap());
            // A far point is not near.
            assert!(!engine
                .passes_near(ct, Point::new(1e7, 1e7), 5.0, t0, t1)
                .unwrap());
        }
    }

    #[test]
    fn min_distance_zero_for_crossing_trajectories() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        // A trajectory trivially crosses itself.
        let d = engine
            .min_distance(&f.compressed[0], &f.compressed[0])
            .unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn min_distance_matches_brute_force() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for i in 0..4 {
            for j in (i + 1)..5 {
                let fast = engine
                    .min_distance(&f.compressed[i], &f.compressed[j])
                    .unwrap();
                // Brute force over the decompressed edge pairs.
                let mut brute = f64::INFINITY;
                for &e1 in &f.trajs[i].path.edges {
                    for &e2 in &f.trajs[j].path.edges {
                        brute = brute.min(press_network::dist_segment_to_segment(
                            &f.net.edge_start(e1),
                            &f.net.edge_end(e1),
                            &f.net.edge_start(e2),
                            &f.net.edge_end(e2),
                        ));
                    }
                }
                assert!(
                    (fast - brute).abs() < 1e-9,
                    "min_distance {fast} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn empty_temporal_is_out_of_domain() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let empty = CompressedTrajectory {
            spatial: f.compressed[0].spatial.clone(),
            temporal: TemporalSequence::default(),
        };
        assert!(engine.whereat(&empty, 0.0).is_err());
        assert!(engine.whenat(&empty, Point::new(0.0, 0.0), 1.0).is_err());
        assert!(engine
            .range(&empty, 0.0, 1.0, &Mbr::new(0.0, 0.0, 1.0, 1.0))
            .is_err());
    }

    /// Bit patterns of a query answer, so `-0.0`/NaN cannot hide behind
    /// float equality.
    fn point_bits(r: Result<Point>) -> Result<(u64, u64)> {
        r.map(|p| (p.x.to_bits(), p.y.to_bits()))
    }

    /// All five engine entry points plus `whereat`/`whenat` over `cts`,
    /// against the SP-only oracle: same bits, same errors. Returns how
    /// many shortest-path calls the engine's side made.
    fn compare_with_the_sp_only_reference(
        model: &HscModel,
        sp: &crate::spatial::node_link_tests::CountingSp,
        cts: &[CompressedTrajectory],
        rng: &mut StdRng,
    ) -> usize {
        let engine = QueryEngine::new(model);
        let oracle = reference::SpOnlyEngine { model };
        let bb = model.sp().network().bounding_box();
        let mut calls = 0;
        for (i, ct) in cts.iter().enumerate() {
            let next = &cts[(i + 1) % cts.len()];
            let mut on_path = Vec::new();
            for k in 0..=12 {
                let t = -5.0 + 70.0 * k as f64 / 12.0;
                let before = sp.calls();
                let got = engine.whereat(ct, t);
                on_path.extend(got.clone().ok());
                let d = dis_linear(&ct.temporal.points, t);
                let at = engine.point_at_distance(&ct.spatial, d);
                assert_eq!(point_bits(at), point_bits(got.clone()));
                calls += sp.calls() - before;
                assert_eq!(point_bits(got), point_bits(oracle.whereat(ct, t)));
            }
            on_path.push(Point::new(1e7, 1e7));
            for &p in &on_path {
                let half = rng.gen_range(20.0..250.0);
                let cx = rng.gen_range(bb.min_x..bb.max_x);
                let cy = rng.gen_range(bb.min_y..bb.max_y);
                let region = Mbr::new(cx - half, cy - half, cx + half, cy + half);
                let (t1, t2) = (rng.gen_range(0.0..30.0), rng.gen_range(20.0..60.0));
                let before = sp.calls();
                let mine = (
                    engine.whenat(ct, p, 0.5).map(f64::to_bits),
                    engine
                        .distance_of_point(&ct.spatial, p, 25.0)
                        .map(f64::to_bits),
                    engine.range(ct, t1, t2, &region),
                    engine.passes_near(ct, p, half, t1, t2),
                );
                calls += sp.calls() - before;
                let theirs = (
                    oracle.whenat(ct, p, 0.5).map(f64::to_bits),
                    oracle
                        .distance_of_point(&ct.spatial, p, 25.0)
                        .map(f64::to_bits),
                    oracle.range(ct, t1, t2, &region),
                    oracle.passes_near(ct, p, half, t1, t2),
                );
                assert_eq!(mine, theirs);
            }
            let before = sp.calls();
            let mine = engine.min_distance(ct, next).map(f64::to_bits);
            calls += sp.calls() - before;
            assert_eq!(mine, oracle.min_distance(ct, next).map(f64::to_bits));
        }
        calls
    }

    /// The engine against the SP-only oracle on training paths (every
    /// gap from the arena), on held-out walks (some from the stream) —
    /// neither reaching the SP layer — and on a model poisoned by a
    /// disconnected training pair.
    #[test]
    fn node_link_queries_match_the_sp_only_reference() {
        use crate::spatial::node_link_tests::{
            knotted, two_components, walks, witness_delta, CountingSp,
        };
        use press_network::SpBackend;
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 17,
            ..GridConfig::default()
        }));
        let (training, held_out) = (walks(&net, 0, 24), walks(&net, 3, 24));
        let mut rng = StdRng::seed_from_u64(21);
        for backend in [SpBackend::Dense, SpBackend::Hl] {
            let sp = CountingSp::over(backend.build(net.clone()));
            let model = HscModel::train(sp.clone(), &training, 3).unwrap();
            for (paths, trained) in [(&training, true), (&held_out, false)] {
                let cts: Vec<_> = paths.iter().map(|p| knotted(&model, p)).collect();
                let mut calls = 0;
                let seen = witness_delta(|| {
                    calls = compare_with_the_sp_only_reference(&model, &sp, &cts, &mut rng);
                });
                assert!(seen.arena_hits > 0, "{seen:?}");
                assert_eq!((calls, seen.sp_fallbacks), (0, 0), "{seen:?}");
                assert_eq!(seen.gap_runs == 0, trained, "{seen:?}");
            }
        }

        // A pair across two components inside a unit: every query reports
        // it, as before. (Between two units — θ = 1 — `compress` does.)
        let (net, e0, e1) = two_components();
        let model =
            HscModel::train(SpBackend::Dense.build(net.clone()), &[vec![e0, e1]], 2).unwrap();
        let engine = QueryEngine::new(&model);
        let oracle = reference::SpOnlyEngine { model: &model };
        let ct = CompressedTrajectory {
            spatial: model.compress(&[e0, e1]).unwrap(),
            temporal: TemporalSequence::new(vec![
                DtPoint::new(0.0, 0.0),
                DtPoint::new(200.0, 10.0),
            ])
            .unwrap(),
        };
        let err = Err(PressError::NoShortestPath(e0, e1));
        let p = Point::new(1050.0, 0.0);
        let all = Mbr::new(-1e6, -1e6, 1e6, 1e6);
        assert_eq!(
            point_bits(engine.whereat(&ct, 9.0)),
            err.clone().map(|()| (0, 0))
        );
        assert_eq!(
            point_bits(oracle.whereat(&ct, 9.0)),
            err.clone().map(|()| (0, 0))
        );
        assert_eq!(engine.whenat(&ct, p, 1.0), err.clone().map(|()| 0.0));
        assert_eq!(oracle.whenat(&ct, p, 1.0), err.clone().map(|()| 0.0));
        assert_eq!(engine.min_distance(&ct, &ct), err.clone().map(|()| 0.0));
        assert_eq!(oracle.min_distance(&ct, &ct), err.clone().map(|()| 0.0));
        assert_eq!(
            engine.range(&ct, 9.0, 10.0, &all),
            oracle.range(&ct, 9.0, 10.0, &all)
        );
        assert_eq!(
            engine.passes_near(&ct, p, 1.0, 0.0, 10.0),
            oracle.passes_near(&ct, p, 1.0, 0.0, 10.0)
        );
        assert_eq!(
            engine.passes_near(&ct, p, 1.0, 0.0, 10.0),
            err.clone().map(|()| false)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// The SP-free engine equals the SP-only oracle, bit for bit, on
        /// training paths and held-out walks — on jittered, fully tied
        /// and random-geometric nets, both backends, θ 1–4 — and
        /// makes no shortest-path call doing so.
        #[test]
        fn gap_run_queries_match_the_sp_only_reference_on_every_backend(
            kind in 0usize..3,
            seed in 0u64..400,
            theta in 1usize..5,
            walks in proptest::collection::vec(
                (0u32..1000, proptest::collection::vec(0u8..8, 3..22)), 6..12),
        ) {
            use crate::spatial::node_link_tests::{
                knotted, net_of, walk, witness_delta, CountingSp,
            };
            use press_network::SpBackend;
            let net = net_of(kind, seed);
            let paths: Vec<Vec<EdgeId>> = walks
                .iter()
                .map(|(s, cs)| walk(&net, *s, cs))
                .filter(|p| !p.is_empty())
                .collect();
            proptest::prop_assume!(paths.len() >= 4);
            let mut rng = StdRng::seed_from_u64(seed);
            for backend in [SpBackend::Dense, SpBackend::Hl] {
                let sp = CountingSp::over(backend.build(net.clone()));
                let model = HscModel::train(sp.clone(), &paths[..paths.len() / 2], theta).unwrap();
                let cts: Vec<_> = paths.iter().map(|p| knotted(&model, p)).collect();
                let mut calls = 0;
                let seen = witness_delta(|| {
                    calls = compare_with_the_sp_only_reference(&model, &sp, &cts, &mut rng);
                });
                proptest::prop_assert_eq!((calls, seen.sp_fallbacks), (0, 0), "{:?} {:?}", backend, seen);
            }
        }
    }
}
