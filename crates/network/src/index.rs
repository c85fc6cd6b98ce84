//! Uniform-grid spatial index over edges.
//!
//! The map matcher needs "all edges within `r` meters of a GPS point"
//! (candidate generation) and the query processor needs nearest-edge
//! lookups when mapping `(x, y)` arguments of `whenat` back onto the
//! network (§5.2). A uniform grid is ideal here: edges are short and
//! near-uniformly spread, and construction is linear.

use crate::geometry::{project_onto_segment, Mbr, Point, Projection};
use crate::graph::RoadNetwork;
use crate::id::EdgeId;
use std::sync::Arc;

/// A uniform grid of buckets, each holding the edges whose embedding's
/// bounding box overlaps the bucket.
pub struct EdgeSpatialIndex {
    net: Arc<RoadNetwork>,
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<EdgeId>>,
}

impl EdgeSpatialIndex {
    /// Builds the index with the given cell size (meters). A cell size close
    /// to the median edge length is a good default.
    pub fn build(net: Arc<RoadNetwork>, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let bb = net.bounding_box();
        let (origin, width, height) = if bb.is_empty() {
            (Point::new(0.0, 0.0), 0.0, 0.0)
        } else {
            (Point::new(bb.min_x, bb.min_y), bb.width(), bb.height())
        };
        let nx = (width / cell_size).ceil() as usize + 1;
        let ny = (height / cell_size).ceil() as usize + 1;
        let mut cells = vec![Vec::new(); nx * ny];
        for e in net.edge_ids() {
            let mbr = net.edge_mbr(e);
            let (ix0, iy0) =
                Self::cell_of(origin, cell_size, nx, ny, &Point::new(mbr.min_x, mbr.min_y));
            let (ix1, iy1) =
                Self::cell_of(origin, cell_size, nx, ny, &Point::new(mbr.max_x, mbr.max_y));
            for iy in iy0..=iy1 {
                for ix in ix0..=ix1 {
                    cells[iy * nx + ix].push(e);
                }
            }
        }
        EdgeSpatialIndex {
            net,
            origin,
            cell: cell_size,
            nx,
            ny,
            cells,
        }
    }

    fn cell_of(origin: Point, cell: f64, nx: usize, ny: usize, p: &Point) -> (usize, usize) {
        let ix = (((p.x - origin.x) / cell).floor().max(0.0) as usize).min(nx - 1);
        let iy = (((p.y - origin.y) / cell).floor().max(0.0) as usize).min(ny - 1);
        (ix, iy)
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// All edges whose embedding lies within `radius` meters of `p`,
    /// with their projections, sorted by `(distance, edge id)`.
    pub fn edges_near(&self, p: &Point, radius: f64) -> Vec<(EdgeId, Projection)> {
        let mut out = Vec::new();
        self.edges_near_into(p, radius, &mut out);
        out
    }

    /// [`EdgeSpatialIndex::edges_near`] into a caller-owned buffer
    /// (cleared first), so a per-fix loop allocates nothing.
    pub fn edges_near_into(&self, p: &Point, radius: f64, out: &mut Vec<(EdgeId, Projection)>) {
        out.clear();
        let query = Mbr::of_point(p).inflate(radius);
        let cell_of = |x: f64, y: f64| {
            Self::cell_of(self.origin, self.cell, self.nx, self.ny, &Point::new(x, y))
        };
        let (ix0, iy0) = cell_of(query.min_x, query.min_y);
        let (ix1, iy1) = cell_of(query.max_x, query.max_y);
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                for &e in &self.cells[iy * self.nx + ix] {
                    // An edge sits in every cell of its box's cell
                    // rectangle; take it only from the first cell (in
                    // visit order) that rectangle shares with the query
                    // window, which dedupes without a seen-set.
                    let a = self.net.edge_start(e);
                    let b = self.net.edge_end(e);
                    let (ex0, ey0) = cell_of(a.x.min(b.x), a.y.min(b.y));
                    if ix != ex0.max(ix0) || iy != ey0.max(iy0) {
                        continue;
                    }
                    let proj = project_onto_segment(p, &a, &b);
                    if proj.dist <= radius {
                        out.push((e, proj));
                    }
                }
            }
        }
        out.sort_unstable_by(|a, b| a.1.dist.total_cmp(&b.1.dist).then(a.0.cmp(&b.0)));
    }

    /// The closest edge to `p`, searching outward in growing rings.
    /// `None` only for an empty network.
    pub fn nearest_edge(&self, p: &Point) -> Option<(EdgeId, Projection)> {
        if self.net.num_edges() == 0 {
            return None;
        }
        let mut radius = self.cell.max(1.0);
        // The diagonal of the full grid bounds the search.
        let max_radius = (self.nx as f64).hypot(self.ny as f64) * self.cell + radius;
        loop {
            let found = self.edges_near(p, radius);
            if let Some(first) = found.into_iter().next() {
                return Some(first);
            }
            if radius > max_radius {
                // Fall back to a linear scan: p is far outside the grid.
                return self
                    .net
                    .edge_ids()
                    .map(|e| {
                        (
                            e,
                            project_onto_segment(p, &self.net.edge_start(e), &self.net.edge_end(e)),
                        )
                    })
                    .min_by(|a, b| a.1.dist.total_cmp(&b.1.dist));
            }
            radius *= 2.0;
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Vec<EdgeId>>()
            + self.cells.iter().map(|c| c.len() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_network, GridConfig};

    fn index() -> EdgeSpatialIndex {
        let net = Arc::new(grid_network(&GridConfig::default()));
        EdgeSpatialIndex::build(net, 100.0)
    }

    #[test]
    fn edges_near_returns_sorted_within_radius() {
        let idx = index();
        let p = Point::new(150.0, 103.0);
        let found = idx.edges_near(&p, 30.0);
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
        // Each edge exactly once, in `(dist, edge id)` order — for cell
        // sizes below, near and above the edge length, and for points on
        // nodes, inside blocks and outside the grid.
        let net = Arc::new(grid_network(&GridConfig {
            weight_jitter: 0.2,
            removal_prob: 0.05,
            ..GridConfig::default()
        }));
        for cell in [25.0, 60.0, 100.0, 350.0] {
            let idx = EdgeSpatialIndex::build(net.clone(), cell);
            for i in 0..60u32 {
                let p = Point::new(
                    -150.0 + (i * 37 % 120) as f64 * 10.0,
                    -150.0 + (i * 53 % 120) as f64 * 10.0,
                );
                for radius in [0.0, 60.0, 140.0] {
                    let mut want: Vec<(EdgeId, Projection)> = net
                        .edge_ids()
                        .map(|e| {
                            let proj =
                                project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
                            (e, proj)
                        })
                        .filter(|(_, proj)| proj.dist <= radius)
                        .collect();
                    want.sort_by(|a, b| a.1.dist.total_cmp(&b.1.dist).then(a.0.cmp(&b.0)));
                    assert_eq!(idx.edges_near(&p, radius), want, "cell {cell} p {p:?}");
                }
            }
        }
    }

    #[test]
    fn edges_near_radius_zero_on_edge() {
        let idx = index();
        // Point exactly on the street between (100,100) and (200,100).
        let found = idx.edges_near(&Point::new(150.0, 100.0), 1e-9);
        assert!(!found.is_empty());
    }

    #[test]
    fn nearest_edge_inside_grid() {
        let idx = index();
        let (e, proj) = idx.nearest_edge(&Point::new(150.0, 110.0)).unwrap();
        assert!(proj.dist <= 10.0 + 1e-9);
        let net = idx.network();
        // It must be the horizontal street at y=100 between x=100..200.
        let a = net.edge_start(e);
        let b = net.edge_end(e);
        assert_eq!(a.y, 100.0);
        assert_eq!(b.y, 100.0);
    }

    #[test]
    fn nearest_edge_far_outside_grid() {
        let idx = index();
        let (_, proj) = idx.nearest_edge(&Point::new(1e6, 1e6)).unwrap();
        assert!(proj.dist > 0.0);
        assert!(proj.dist.is_finite());
    }

    #[test]
    fn all_edges_findable_via_midpoint() {
        let idx = index();
        let net = idx.network().clone();
        for e in net.edge_ids().take(50) {
            let mid = net.edge_start(e).lerp(&net.edge_end(e), 0.5);
            let found = idx.edges_near(&mid, 1.0);
            assert!(
                found.iter().any(|(fe, _)| *fe == e),
                "edge {e} not found at midpoint"
            );
        }
    }

    #[test]
    fn approx_bytes_nonzero() {
        assert!(index().approx_bytes() > 0);
    }
}
