//! The query engine as it was before the link arena and the in-stream
//! runs: every hidden gap, inside a unit or between two, is answered by
//! the shortest-path layer (`gap_dist`, `sp_interior`, a `pred_edge`
//! walk) and the stream is read for its unit symbols only. Test-only —
//! the oracle the SP-free [`super::QueryEngine`] must match bit for bit.
//! Linear temporal scan only.

use super::{dis_linear, ordered, tim_linear};
use crate::error::{PressError, Result};
use crate::press::CompressedTrajectory;
use crate::spatial::{CompressedSpatial, HscModel, TrieNodeId};
use press_network::{project_onto_segment, EdgeId, Mbr, Point};

pub(super) struct SpOnlyEngine<'a> {
    pub(super) model: &'a HscModel,
}

#[derive(Clone, Copy, Debug)]
enum Unit {
    Node(TrieNodeId),
    Gap(EdgeId, EdgeId),
}

impl SpOnlyEngine<'_> {
    fn for_each_unit(
        &self,
        cs: &CompressedSpatial,
        mut f: impl FnMut(Unit, f64) -> Result<bool>,
    ) -> Result<()> {
        let trie = self.model.trie();
        let sp = self.model.sp();
        let net = sp.network();
        let mut prev_last: Option<EdgeId> = None;
        for node in self.model.decode_nodes(cs)? {
            let first = trie.first_edge(node);
            if let Some(pl) = prev_last {
                if !net.consecutive(pl, first) {
                    let gap = sp.gap_dist(pl, first);
                    if !gap.is_finite() {
                        return Err(PressError::NoShortestPath(pl, first));
                    }
                    if f(Unit::Gap(pl, first), gap)? {
                        return Ok(());
                    }
                }
            }
            let nd = self.model.node_dist(node);
            if !nd.is_finite() {
                return Err(PressError::NoShortestPath(first, trie.last_edge(node)));
            }
            if f(Unit::Node(node), nd)? {
                return Ok(());
            }
            prev_last = Some(trie.last_edge(node));
        }
        Ok(())
    }

    fn expand_unit(&self, unit: Unit) -> Result<Vec<EdgeId>> {
        match unit {
            Unit::Node(n) => {
                let sub = self.model.trie().sub_trajectory(n);
                crate::spatial::sp_decompress(self.model.sp(), &sub)
            }
            Unit::Gap(a, b) => self
                .model
                .sp()
                .sp_interior(a, b)
                .ok_or(PressError::NoShortestPath(a, b)),
        }
    }

    fn unit_mbr(&self, unit: Unit, len: f64) -> Mbr {
        match unit {
            Unit::Node(n) => *self.model.node_mbr(n),
            Unit::Gap(a, b) => {
                let net = self.model.sp().network();
                let mut mbr = Mbr::of_point(&net.edge_end(a));
                mbr.expand_point(&net.edge_start(b));
                mbr.inflate(len / 2.0)
            }
        }
    }

    pub(super) fn point_at_distance(&self, cs: &CompressedSpatial, d: f64) -> Result<Point> {
        let net = self.model.sp().network();
        let sp = self.model.sp();
        let trie = self.model.trie();
        let mut dacu = 0.0f64;
        let mut answer: Option<Point> = None;
        let mut last_edge: Option<EdgeId> = None;
        self.for_each_unit(cs, |unit, len| {
            if dacu + len >= d {
                let offset = d - dacu;
                answer = Some(match unit {
                    Unit::Gap(a, b) => self.point_in_gap(a, b, len, offset)?,
                    Unit::Node(n) => {
                        let mut local = offset;
                        let mut prev: Option<EdgeId> = None;
                        let mut found = None;
                        let depth = trie.depth(n);
                        'walk: for level in 0..depth {
                            let mut cur = n;
                            for _ in 0..depth - 1 - level {
                                cur = trie.parent(cur);
                            }
                            let e = trie.last_edge(cur);
                            if let Some(p) = prev {
                                if !net.consecutive(p, e) {
                                    let gap = sp.gap_dist(p, e);
                                    if local <= gap {
                                        found = Some(self.point_in_gap(p, e, gap, local)?);
                                        break 'walk;
                                    }
                                    local -= gap;
                                }
                            }
                            let w = net.weight(e);
                            if local <= w {
                                let frac = if w <= f64::EPSILON { 0.0 } else { local / w };
                                found = Some(net.point_on_edge(e, frac * net.edge_length(e)));
                                break 'walk;
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
        match last_edge {
            Some(e) => Ok(net.edge_end(e)),
            None => Err(PressError::EmptyPath),
        }
    }

    fn point_in_gap(&self, a: EdgeId, b: EdgeId, gap: f64, offset: f64) -> Result<Point> {
        let sp = self.model.sp();
        let net = sp.network();
        if gap <= f64::EPSILON {
            return Ok(net.edge_start(b));
        }
        let from_end = (gap - offset).max(0.0);
        let mut acc = 0.0f64;
        let mut cur = net.edge(b).from;
        let target = net.edge(a).to;
        let tree = sp.source_tree(target);
        let pred = |cur: press_network::NodeId| -> Option<EdgeId> {
            match &tree {
                Some(t) => t.pred_edge[cur.index()],
                None => sp.pred_edge(target, cur),
            }
        };
        while cur != target {
            let Some(pe) = pred(cur) else {
                return Err(PressError::NoShortestPath(a, b));
            };
            let w = net.weight(pe);
            if acc + w >= from_end {
                let into = (w - (from_end - acc)).clamp(0.0, w);
                let frac = if w <= f64::EPSILON { 0.0 } else { into / w };
                return Ok(net.point_on_edge(pe, frac * net.edge_length(pe)));
            }
            acc += w;
            cur = net.edge(pe).from;
        }
        Ok(net.point_on_edge(a, net.edge_length(a)))
    }

    pub(super) fn distance_of_point(
        &self,
        cs: &CompressedSpatial,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        let net = self.model.sp().network();
        let mut dacu = 0.0f64;
        let mut found: Option<f64> = None;
        self.for_each_unit(cs, |unit, len| {
            let mbr = self.unit_mbr(unit, len);
            if mbr.min_dist_to_point(&p) <= tolerance {
                let edges = self.expand_unit(unit)?;
                let mut local = 0.0f64;
                for &e in &edges {
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

    pub(super) fn range(
        &self,
        ct: &CompressedTrajectory,
        t1: f64,
        t2: f64,
        region: &Mbr,
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
        self.for_each_unit(&ct.spatial, |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            if overlaps_window && self.unit_mbr(unit, len).intersects(region) {
                let edges = self.expand_unit(unit)?;
                let mut local = dacu;
                for &e in &edges {
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

    pub(super) fn passes_near(
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
        self.for_each_unit(&ct.spatial, |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            if overlaps_window && self.unit_mbr(unit, len).min_dist_to_point(&p) <= dist {
                let edges = self.expand_unit(unit)?;
                let mut local = dacu;
                for &e in &edges {
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

    pub(super) fn min_distance(
        &self,
        a: &CompressedTrajectory,
        b: &CompressedTrajectory,
    ) -> Result<f64> {
        let net = self.model.sp().network();
        let units_a = self.collect_units(&a.spatial)?;
        let units_b = self.collect_units(&b.spatial)?;
        if units_a.is_empty() || units_b.is_empty() {
            return Err(PressError::EmptyPath);
        }
        let mut best = f64::INFINITY;
        let mut cache_a: Vec<Option<Vec<EdgeId>>> = vec![None; units_a.len()];
        let mut cache_b: Vec<Option<Vec<EdgeId>>> = vec![None; units_b.len()];
        for (i, &(ua, mbr_a)) in units_a.iter().enumerate() {
            if units_b
                .iter()
                .all(|&(_, mbr_b)| mbr_a.min_dist_to_mbr(&mbr_b) >= best)
            {
                continue;
            }
            for (j, &(ub, mbr_b)) in units_b.iter().enumerate() {
                if mbr_a.min_dist_to_mbr(&mbr_b) >= best {
                    continue;
                }
                if cache_a[i].is_none() {
                    cache_a[i] = Some(self.expand_unit(ua)?);
                }
                if cache_b[j].is_none() {
                    cache_b[j] = Some(self.expand_unit(ub)?);
                }
                let (Some(ea), Some(eb)) = (&cache_a[i], &cache_b[j]) else {
                    continue;
                };
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

    fn collect_units(&self, cs: &CompressedSpatial) -> Result<Vec<(Unit, Mbr)>> {
        let mut units = Vec::new();
        self.for_each_unit(cs, |unit, len| {
            let mbr = self.unit_mbr(unit, len);
            units.push((unit, mbr));
            Ok(false)
        })?;
        Ok(units)
    }

    pub(super) fn whereat(&self, ct: &CompressedTrajectory, t: f64) -> Result<Point> {
        self.point_at_distance(&ct.spatial, dis_linear(&ct.temporal.points, t))
    }

    pub(super) fn whenat(
        &self,
        ct: &CompressedTrajectory,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        let d = self.distance_of_point(&ct.spatial, p, tolerance)?;
        Ok(tim_linear(&ct.temporal.points, d))
    }
}
