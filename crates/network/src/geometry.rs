//! Planar geometry kit: points, segments, polylines and MBRs.
//!
//! All coordinates are in a projected plane with metric units (meters). The
//! paper's queries (`whereat`, `whenat`, `range`, §5) rely on Euclidean
//! distances, point-to-segment projection (used by the map matcher) and
//! Minimum Bounding Rectangles (used as the pruning structure for query
//! processing over compressed trajectories).

use serde::{Deserialize, Serialize};

/// A point in the projected 2-D plane (meters).
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// Result of projecting a point onto a segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projection {
    /// Closest point on the segment.
    pub point: Point,
    /// Distance from the query point to `point`.
    pub dist: f64,
    /// Position along the segment in `[0, 1]` (0 = start, 1 = end).
    pub t: f64,
}

/// Projects point `p` onto segment `(a, b)`, clamping to the segment ends.
pub fn project_onto_segment(p: &Point, a: &Point, b: &Point) -> Projection {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len_sq = abx * abx + aby * aby;
    let t = if len_sq <= f64::EPSILON {
        0.0
    } else {
        (((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq).clamp(0.0, 1.0)
    };
    let point = a.lerp(b, t);
    Projection {
        point,
        dist: p.dist(&point),
        t,
    }
}

/// Distance from point `p` to segment `(a, b)`.
#[inline]
pub fn dist_point_to_segment(p: &Point, a: &Point, b: &Point) -> f64 {
    project_onto_segment(p, a, b).dist
}

/// Total length of a polyline given as a point slice.
pub fn polyline_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].dist(&w[1])).sum()
}

/// Walks `distance` meters along the polyline and returns the reached point.
///
/// Distances beyond the polyline clamp to the final point; negative distances
/// clamp to the first point. Returns `None` for an empty polyline.
pub fn point_along_polyline(points: &[Point], distance: f64) -> Option<Point> {
    let (first, rest) = points.split_first()?;
    if distance <= 0.0 || rest.is_empty() {
        return Some(*first);
    }
    let mut remaining = distance;
    let mut prev = *first;
    for p in rest {
        let seg = prev.dist(p);
        if remaining <= seg {
            let t = if seg <= f64::EPSILON {
                0.0
            } else {
                remaining / seg
            };
            return Some(prev.lerp(p, t));
        }
        remaining -= seg;
        prev = *p;
    }
    Some(prev)
}

/// Orientation sign of the triangle `(a, b, c)`: positive when
/// counter-clockwise, negative when clockwise, zero when collinear.
#[inline]
fn orient(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// True when segments `(a1, a2)` and `(b1, b2)` intersect (touching
/// endpoints count).
pub fn segments_intersect(a1: &Point, a2: &Point, b1: &Point, b2: &Point) -> bool {
    let d1 = orient(b1, b2, a1);
    let d2 = orient(b1, b2, a2);
    let d3 = orient(a1, a2, b1);
    let d4 = orient(a1, a2, b2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    let on_segment = |p: &Point, q: &Point, r: &Point| {
        r.x >= p.x.min(q.x) && r.x <= p.x.max(q.x) && r.y >= p.y.min(q.y) && r.y <= p.y.max(q.y)
    };
    (d1 == 0.0 && on_segment(b1, b2, a1))
        || (d2 == 0.0 && on_segment(b1, b2, a2))
        || (d3 == 0.0 && on_segment(a1, a2, b1))
        || (d4 == 0.0 && on_segment(a1, a2, b2))
}

/// Minimum distance between two segments (0 when they intersect).
pub fn dist_segment_to_segment(a1: &Point, a2: &Point, b1: &Point, b2: &Point) -> f64 {
    if segments_intersect(a1, a2, b1, b2) {
        return 0.0;
    }
    dist_point_to_segment(a1, b1, b2)
        .min(dist_point_to_segment(a2, b1, b2))
        .min(dist_point_to_segment(b1, a1, a2))
        .min(dist_point_to_segment(b2, a1, a2))
}

/// An axis-aligned minimum bounding rectangle.
///
/// `Mbr::empty()` is the identity for [`Mbr::expand`]; it contains nothing
/// and intersects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mbr {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Mbr {
    /// The empty rectangle (identity element for union/expand).
    pub const fn empty() -> Self {
        Mbr {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// A degenerate rectangle covering a single point.
    pub fn of_point(p: &Point) -> Self {
        Mbr {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// A rectangle from explicit corners; panics if min > max.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(min_x <= max_x && min_y <= max_y, "inverted MBR corners");
        Mbr {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// True if no point has ever been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x
    }

    /// Grows the rectangle to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the rectangle to cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &Mbr) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Grows the rectangle by `margin` meters on every side.
    pub fn inflate(&self, margin: f64) -> Mbr {
        Mbr {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// True if `p` lies inside (or on the border of) the rectangle.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True if the two rectangles overlap (borders count).
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Minimum distance from `p` to the rectangle (0 if inside).
    pub fn min_dist_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx.hypot(dy)
    }

    /// Minimum distance between two rectangles (0 if they intersect).
    pub fn min_dist_to_mbr(&self, other: &Mbr) -> f64 {
        let dx = (self.min_x - other.max_x)
            .max(0.0)
            .max(other.min_x - self.max_x);
        let dy = (self.min_y - other.max_y)
            .max(0.0)
            .max(other.min_y - self.max_y);
        dx.hypot(dy)
    }

    /// Width of the rectangle (0 when empty).
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height of the rectangle (0 when empty).
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// True when the segment `(a, b)` intersects the rectangle (touching
    /// the border counts). A segment whose bounding box misses the
    /// rectangle is rejected by four comparisons, before the four
    /// orientation tests against the rectangle's sides — the common case
    /// of a range query's edge scan.
    pub fn intersects_segment(&self, a: &Point, b: &Point) -> bool {
        if self.is_empty() {
            return false;
        }
        if a.x.max(b.x) < self.min_x
            || a.x.min(b.x) > self.max_x
            || a.y.max(b.y) < self.min_y
            || a.y.min(b.y) > self.max_y
        {
            return false;
        }
        if self.contains(a) || self.contains(b) {
            return true;
        }
        let c0 = Point::new(self.min_x, self.min_y);
        let c1 = Point::new(self.max_x, self.min_y);
        let c2 = Point::new(self.max_x, self.max_y);
        let c3 = Point::new(self.min_x, self.max_y);
        segments_intersect(a, b, &c0, &c1)
            || segments_intersect(a, b, &c1, &c2)
            || segments_intersect(a, b, &c2, &c3)
            || segments_intersect(a, b, &c3, &c0)
    }
}

impl Default for Mbr {
    fn default() -> Self {
        Mbr::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -2.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.x - 5.0).abs() < 1e-12 && (mid.y + 1.0).abs() < 1e-12);
    }

    #[test]
    fn projection_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let p = Point::new(3.0, 4.0);
        let proj = project_onto_segment(&p, &a, &b);
        assert!((proj.t - 0.3).abs() < 1e-12);
        assert!((proj.dist - 4.0).abs() < 1e-12);
        assert!((proj.point.x - 3.0).abs() < 1e-12);
    }

    #[test]
    fn projection_clamps_to_ends() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let before = project_onto_segment(&Point::new(-5.0, 1.0), &a, &b);
        assert_eq!(before.t, 0.0);
        let after = project_onto_segment(&Point::new(15.0, 1.0), &a, &b);
        assert_eq!(after.t, 1.0);
    }

    #[test]
    fn projection_degenerate_segment() {
        let a = Point::new(2.0, 2.0);
        let proj = project_onto_segment(&Point::new(5.0, 6.0), &a, &a);
        assert_eq!(proj.t, 0.0);
        assert!((proj.dist - 5.0).abs() < 1e-12);
    }

    #[test]
    fn polyline_length_and_walk() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ];
        assert!((polyline_length(&pts) - 20.0).abs() < 1e-12);
        let mid = point_along_polyline(&pts, 15.0).unwrap();
        assert!((mid.x - 10.0).abs() < 1e-12 && (mid.y - 5.0).abs() < 1e-12);
        // Clamping behaviour.
        assert_eq!(point_along_polyline(&pts, -1.0).unwrap(), pts[0]);
        assert_eq!(point_along_polyline(&pts, 99.0).unwrap(), pts[2]);
        assert_eq!(point_along_polyline(&[], 1.0), None);
    }

    #[test]
    fn mbr_expand_contains() {
        let mut mbr = Mbr::empty();
        assert!(mbr.is_empty());
        mbr.expand_point(&Point::new(1.0, 1.0));
        mbr.expand_point(&Point::new(-1.0, 3.0));
        assert!(!mbr.is_empty());
        assert!(mbr.contains(&Point::new(0.0, 2.0)));
        assert!(!mbr.contains(&Point::new(2.0, 2.0)));
        assert!((mbr.width() - 2.0).abs() < 1e-12);
        assert!((mbr.height() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mbr_intersection_and_distance() {
        let a = Mbr::new(0.0, 0.0, 2.0, 2.0);
        let b = Mbr::new(1.0, 1.0, 3.0, 3.0);
        let c = Mbr::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.min_dist_to_mbr(&b), 0.0);
        let d = a.min_dist_to_mbr(&c);
        assert!((d - (3.0f64).hypot(3.0)).abs() < 1e-12);
        assert_eq!(a.min_dist_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert!((a.min_dist_to_point(&Point::new(2.0, 5.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mbr_empty_never_intersects() {
        let e = Mbr::empty();
        let a = Mbr::new(0.0, 0.0, 1.0, 1.0);
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
        assert!(!e.intersects(&e));
    }

    #[test]
    fn mbr_inflate() {
        let a = Mbr::new(0.0, 0.0, 1.0, 1.0).inflate(2.0);
        assert!(a.contains(&Point::new(-1.5, 2.5)));
        assert!(!a.contains(&Point::new(-2.5, 0.0)));
    }

    #[test]
    fn segment_intersection_cases() {
        let o = Point::new(0.0, 0.0);
        // Crossing.
        assert!(segments_intersect(
            &o,
            &Point::new(2.0, 2.0),
            &Point::new(0.0, 2.0),
            &Point::new(2.0, 0.0)
        ));
        // Disjoint parallel.
        assert!(!segments_intersect(
            &o,
            &Point::new(2.0, 0.0),
            &Point::new(0.0, 1.0),
            &Point::new(2.0, 1.0)
        ));
        // Touching endpoint.
        assert!(segments_intersect(
            &o,
            &Point::new(1.0, 1.0),
            &Point::new(1.0, 1.0),
            &Point::new(2.0, 0.0)
        ));
        // Collinear overlapping.
        assert!(segments_intersect(
            &o,
            &Point::new(3.0, 0.0),
            &Point::new(2.0, 0.0),
            &Point::new(5.0, 0.0)
        ));
        // Collinear disjoint.
        assert!(!segments_intersect(
            &o,
            &Point::new(1.0, 0.0),
            &Point::new(2.0, 0.0),
            &Point::new(5.0, 0.0)
        ));
    }

    #[test]
    fn segment_to_segment_distance() {
        let d = dist_segment_to_segment(
            &Point::new(0.0, 0.0),
            &Point::new(2.0, 0.0),
            &Point::new(0.0, 3.0),
            &Point::new(2.0, 3.0),
        );
        assert!((d - 3.0).abs() < 1e-12);
        // Intersecting segments have zero distance.
        let z = dist_segment_to_segment(
            &Point::new(0.0, 0.0),
            &Point::new(2.0, 2.0),
            &Point::new(0.0, 2.0),
            &Point::new(2.0, 0.0),
        );
        assert_eq!(z, 0.0);
    }

    /// `intersects_segment` without its bounding-box reject: an endpoint
    /// inside, or a crossing of one of the four sides.
    pub(super) fn side_tests(r: &Mbr, a: &Point, b: &Point) -> bool {
        let c = [
            Point::new(r.min_x, r.min_y),
            Point::new(r.max_x, r.min_y),
            Point::new(r.max_x, r.max_y),
            Point::new(r.min_x, r.max_y),
        ];
        r.contains(a)
            || r.contains(b)
            || (0..4).any(|i| segments_intersect(a, b, &c[i], &c[(i + 1) % 4]))
    }

    /// The bounding-box reject drops only what the side tests refuse:
    /// every segment between two points of a half-step lattice around a
    /// square, a segment-thin and a point-thin rectangle — touching,
    /// collinear and corner cases included.
    #[test]
    fn mbr_segment_box_reject_agrees_with_the_side_tests_on_a_lattice() {
        let lattice: Vec<Point> = (-2..=6)
            .flat_map(|x| (-2..=6).map(move |y| Point::new(x as f64 / 2.0, y as f64 / 2.0)))
            .collect();
        for r in [
            Mbr::new(0.0, 0.0, 2.0, 2.0),
            Mbr::new(1.0, 0.0, 1.0, 2.0),
            Mbr::new(1.0, 1.0, 1.0, 1.0),
        ] {
            for a in &lattice {
                for b in &lattice {
                    assert_eq!(
                        r.intersects_segment(a, b),
                        side_tests(&r, a, b),
                        "{r:?} {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mbr_segment_intersection() {
        let r = Mbr::new(0.0, 0.0, 2.0, 2.0);
        // Endpoint inside.
        assert!(r.intersects_segment(&Point::new(1.0, 1.0), &Point::new(5.0, 5.0)));
        // Passing through without endpoints inside.
        assert!(r.intersects_segment(&Point::new(-1.0, 1.0), &Point::new(3.0, 1.0)));
        // Missing entirely.
        assert!(!r.intersects_segment(&Point::new(3.0, 3.0), &Point::new(5.0, 3.0)));
        // Grazing a corner.
        assert!(r.intersects_segment(&Point::new(1.0, 3.0), &Point::new(3.0, 1.0)));
        // Empty rectangle intersects nothing.
        assert!(!Mbr::empty().intersects_segment(&Point::new(0.0, 0.0), &Point::new(1.0, 1.0)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn projection_is_closest_among_samples(
            px in -1e3f64..1e3, py in -1e3f64..1e3,
            ax in -1e3f64..1e3, ay in -1e3f64..1e3,
            bx in -1e3f64..1e3, by in -1e3f64..1e3,
        ) {
            let p = Point::new(px, py);
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let proj = project_onto_segment(&p, &a, &b);
            prop_assert!((0.0..=1.0).contains(&proj.t));
            // The projection distance lower-bounds the distance to any
            // sampled point of the segment.
            for k in 0..=10 {
                let q = a.lerp(&b, k as f64 / 10.0);
                prop_assert!(proj.dist <= p.dist(&q) + 1e-9);
            }
        }

        /// The bounding-box reject in `intersects_segment` only drops
        /// segments the endpoint and side tests also refuse, on
        /// arbitrary coordinates (the lattice sweep beside the unit
        /// tests covers the touching and collinear cases).
        #[test]
        fn mbr_segment_box_reject_agrees_with_the_side_tests(
            v in proptest::collection::vec(-6f64..6.0, 8..9),
        ) {
            let r = Mbr::new(v[0].min(v[1]), v[2].min(v[3]), v[0].max(v[1]), v[2].max(v[3]));
            let (a, b) = (Point::new(v[4], v[5]), Point::new(v[6], v[7]));
            prop_assert_eq!(r.intersects_segment(&a, &b), super::tests::side_tests(&r, &a, &b));
        }

        #[test]
        fn segment_distance_symmetry_and_zero_on_shared_point(
            ax in -100f64..100.0, ay in -100f64..100.0,
            bx in -100f64..100.0, by in -100f64..100.0,
            cx in -100f64..100.0, cy in -100f64..100.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            // Segments sharing endpoint b intersect => distance zero.
            prop_assert_eq!(dist_segment_to_segment(&a, &b, &b, &c), 0.0);
            // Symmetry.
            let d1 = dist_segment_to_segment(&a, &b, &c, &a);
            let d2 = dist_segment_to_segment(&c, &a, &a, &b);
            prop_assert!((d1 - d2).abs() < 1e-9);
        }

        #[test]
        fn point_along_polyline_is_on_the_polyline(
            pts in proptest::collection::vec((-100f64..100.0, -100f64..100.0), 2..8),
            frac in 0.0f64..1.0,
        ) {
            let line: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let total = polyline_length(&line);
            let p = point_along_polyline(&line, total * frac).unwrap();
            // p lies within epsilon of some segment of the polyline.
            let min_d = line
                .windows(2)
                .map(|w| dist_point_to_segment(&p, &w[0], &w[1]))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(min_d < 1e-6, "point {p:?} off polyline by {min_d}");
        }
    }
}
