//! Uniform-grid spatial index over edges, built for one query radius.
//!
//! The map matcher needs "all edges within `r` meters of a GPS point"
//! (candidate generation), always at the same `r`. So the index is built
//! for that radius: each grid cell stores, once, every edge that can lie
//! within `r` of *some* point of the cell — every edge whose bounding box,
//! inflated by `r + 1 m`, touches the cell — and a query is one cell
//! lookup, a projection per listed edge and a sort. The lists are one
//! CSR (`u32` offsets into one edge array). A uniform grid suits road
//! networks: edges are short and near-uniformly spread, and construction
//! is linear.

use crate::geometry::{project_onto_segment, Point, Projection};
use crate::graph::RoadNetwork;
use crate::id::EdgeId;
use std::fmt;
use std::sync::Arc;

/// Margin (meters) added to the radius when listing an edge in a cell,
/// so rounding in [`project_onto_segment`] can never make a cell's list
/// miss an edge its exact filter admits.
const LIST_MARGIN: f64 = 1.0;

/// Why [`EdgeSpatialIndex::build`] refused its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexError {
    /// The radius is negative, NaN or infinite.
    InvalidRadius(f64),
    /// The cell size is not a positive finite number.
    InvalidCellSize(f64),
    /// The per-cell lists would hold more entries than a `u32` offset
    /// can address.
    TooManyEntries { entries: u64 },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::InvalidRadius(r) => write!(f, "invalid index radius {r}"),
            IndexError::InvalidCellSize(c) => write!(f, "invalid index cell size {c}"),
            IndexError::TooManyEntries { entries } => {
                write!(f, "{entries} cell-list entries overflow the u32 offsets")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// A uniform grid whose cell `k` lists, sorted by edge id, every edge
/// that may lie within the index's radius of a point in the cell:
/// `edges[offsets[k]..offsets[k + 1]]`.
pub struct EdgeSpatialIndex {
    net: Arc<RoadNetwork>,
    radius: f64,
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    offsets: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl EdgeSpatialIndex {
    /// Builds the index answering [`EdgeSpatialIndex::edges_near`] at
    /// `radius` meters, over cells of `cell_size` meters. A cell size
    /// close to the radius keeps both the lists and the grid small.
    pub fn build(net: Arc<RoadNetwork>, radius: f64, cell_size: f64) -> Result<Self, IndexError> {
        if !(radius >= 0.0 && radius.is_finite()) {
            return Err(IndexError::InvalidRadius(radius));
        }
        if !(cell_size > 0.0 && cell_size.is_finite()) {
            return Err(IndexError::InvalidCellSize(cell_size));
        }
        let bb = net.bounding_box();
        let (origin, width, height) = if bb.is_empty() {
            (Point::new(0.0, 0.0), 0.0, 0.0)
        } else {
            (Point::new(bb.min_x, bb.min_y), bb.width(), bb.height())
        };
        let nx = (width / cell_size).ceil() as usize + 1;
        let ny = (height / cell_size).ceil() as usize + 1;
        let mut index = EdgeSpatialIndex {
            net,
            radius,
            origin,
            cell: cell_size,
            nx,
            ny,
            offsets: Vec::new(),
            edges: Vec::new(),
        };
        let entries: u64 = index
            .net
            .edge_ids()
            .map(|e| {
                let (ix, iy) = index.cell_span(e);
                (ix.len() * iy.len()) as u64
            })
            .sum();
        if entries > u64::from(u32::MAX) {
            return Err(IndexError::TooManyEntries { entries });
        }
        // Count, prefix-sum, fill: every list comes out sorted by edge id.
        let mut fill = vec![0u32; nx * ny];
        for e in index.net.edge_ids() {
            let (ix, iy) = index.cell_span(e);
            for y in iy {
                for x in ix.clone() {
                    fill[y * nx + x] += 1;
                }
            }
        }
        index.offsets.reserve_exact(nx * ny + 1);
        let mut next = 0u32;
        for slot in &mut fill {
            index.offsets.push(next);
            next += std::mem::replace(slot, next);
        }
        index.offsets.push(next);
        index.edges = vec![EdgeId(0); next as usize];
        for e in index.net.edge_ids() {
            let (ix, iy) = index.cell_span(e);
            for y in iy {
                for x in ix.clone() {
                    let slot = &mut fill[y * nx + x];
                    index.edges[*slot as usize] = e;
                    *slot += 1;
                }
            }
        }
        Ok(index)
    }

    /// The cell containing `p`, clamped into the grid. Monotone in each
    /// coordinate, so a point inside a rectangle lands in the cell span
    /// of that rectangle's corners.
    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let ix = (((p.x - self.origin.x) / self.cell).floor().max(0.0) as usize).min(self.nx - 1);
        let iy = (((p.y - self.origin.y) / self.cell).floor().max(0.0) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// The cells whose list holds `e`: those its bounding box, inflated by
    /// the radius plus [`LIST_MARGIN`], touches.
    fn cell_span(&self, e: EdgeId) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let mbr = self.net.edge_mbr(e).inflate(self.radius + LIST_MARGIN);
        let (ix0, iy0) = self.cell_of(&Point::new(mbr.min_x, mbr.min_y));
        let (ix1, iy1) = self.cell_of(&Point::new(mbr.max_x, mbr.max_y));
        (ix0..ix1 + 1, iy0..iy1 + 1)
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// All edges whose embedding lies within the index's radius of `p`,
    /// with their projections, sorted by `(distance, edge id)`.
    pub fn edges_near(&self, p: &Point) -> Vec<(EdgeId, Projection)> {
        let mut out = Vec::new();
        self.edges_near_into(p, &mut out);
        out
    }

    /// [`EdgeSpatialIndex::edges_near`] into a caller-owned buffer
    /// (cleared first), so a per-fix loop allocates nothing.
    pub fn edges_near_into(&self, p: &Point, out: &mut Vec<(EdgeId, Projection)>) {
        out.clear();
        // Any point within the radius of an edge lies inside the edge's
        // inflated box, so the cell of `p` — clamped into the grid for
        // a point outside it — lists every edge the filter can admit.
        let (ix, iy) = self.cell_of(p);
        let k = iy * self.nx + ix;
        let list = &self.edges[self.offsets[k] as usize..self.offsets[k + 1] as usize];
        for &e in list {
            let proj = project_onto_segment(p, &self.net.edge_start(e), &self.net.edge_end(e));
            if proj.dist <= self.radius {
                out.push((e, proj));
            }
        }
        out.sort_unstable_by(|a, b| a.1.dist.total_cmp(&b.1.dist).then(a.0.cmp(&b.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_network, GridConfig};

    fn index(radius: f64) -> EdgeSpatialIndex {
        let net = Arc::new(grid_network(&GridConfig::default()));
        EdgeSpatialIndex::build(net, radius, 100.0).unwrap()
    }

    #[test]
    fn edges_near_returns_sorted_within_radius() {
        let idx = index(30.0);
        let p = Point::new(150.0, 103.0);
        let found = idx.edges_near(&p);
        assert!(!found.is_empty());
        for w in found.windows(2) {
            assert!(w[0].1.dist <= w[1].1.dist);
        }
        for (_, proj) in &found {
            assert!(proj.dist <= 30.0);
        }
    }

    #[test]
    fn edges_near_equals_a_linear_scan() {
        // Each edge exactly once, in `(dist, edge id)` order — at radii 0,
        // 60 and 140, for cell sizes below, near and above the edge
        // length, and for points on nodes, inside blocks and outside the
        // grid.
        let net = Arc::new(grid_network(&GridConfig {
            weight_jitter: 0.2,
            removal_prob: 0.05,
            ..GridConfig::default()
        }));
        let mut points: Vec<Point> = (0..60u32)
            .map(|i| {
                Point::new(
                    -150.0 + (i * 37 % 120) as f64 * 10.0,
                    -150.0 + (i * 53 % 120) as f64 * 10.0,
                )
            })
            .collect();
        points.extend(net.node_ids().step_by(7).map(|v| net.node(v).point));
        let bb = net.bounding_box();
        points.extend([
            Point::new(bb.min_x - 59.0, bb.min_y + 100.0),
            Point::new(bb.max_x + 30.0, bb.max_y + 30.0),
            Point::new(bb.max_x + 139.5, bb.min_y - 0.5),
            Point::new(bb.min_x - 1e6, bb.max_y + 1e6),
        ]);
        let mut on_node = 0;
        for radius in [0.0, 60.0, 140.0] {
            for cell in [25.0, 60.0, 100.0, 350.0] {
                let idx = EdgeSpatialIndex::build(net.clone(), radius, cell).unwrap();
                for p in &points {
                    let mut want: Vec<(EdgeId, Projection)> = net
                        .edge_ids()
                        .map(|e| {
                            let proj =
                                project_onto_segment(p, &net.edge_start(e), &net.edge_end(e));
                            (e, proj)
                        })
                        .filter(|(_, proj)| proj.dist <= radius)
                        .collect();
                    want.sort_by(|a, b| a.1.dist.total_cmp(&b.1.dist).then(a.0.cmp(&b.0)));
                    if radius == 0.0 && !want.is_empty() {
                        on_node += 1;
                    }
                    assert_eq!(
                        idx.edges_near(p),
                        want,
                        "radius {radius} cell {cell} p {p:?}"
                    );
                }
            }
        }
        // Radius 0 finds the edges through a point exactly on a node.
        assert!(on_node > 0);
    }

    #[test]
    fn edges_near_radius_zero_on_edge() {
        // Point exactly on the street between (100,100) and (200,100).
        let found = index(0.0).edges_near(&Point::new(150.0, 100.0));
        assert!(!found.is_empty());
    }

    #[test]
    fn all_edges_findable_via_midpoint() {
        let idx = index(1.0);
        let net = idx.network().clone();
        for e in net.edge_ids().take(50) {
            let mid = net.edge_start(e).lerp(&net.edge_end(e), 0.5);
            let found = idx.edges_near(&mid);
            assert!(
                found.iter().any(|(fe, _)| *fe == e),
                "edge {e} not found at midpoint"
            );
        }
    }

    #[test]
    fn bad_parameters_are_typed() {
        let net = Arc::new(grid_network(&GridConfig::default()));
        for r in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EdgeSpatialIndex::build(net.clone(), r, 60.0),
                Err(IndexError::InvalidRadius(_))
            ));
        }
        for c in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EdgeSpatialIndex::build(net.clone(), 60.0, c),
                Err(IndexError::InvalidCellSize(_))
            ));
        }
        // A radius spanning the whole grid lists every edge in every
        // cell; at 0.25 m cells that is 360 × 3,601² entries, which
        // overflows the u32 offsets and is refused before any list is
        // allocated.
        match EdgeSpatialIndex::build(net, 1e5, 0.25) {
            Err(IndexError::TooManyEntries { entries }) => {
                assert!(entries > u64::from(u32::MAX))
            }
            other => panic!("expected TooManyEntries, got {:?}", other.err()),
        }
    }
}
