//! Bounded Temporal Compression (BTC) — paper §4.2, Algorithm 3.
//!
//! BTC drops `(d, t)` tuples as long as replacing the dropped run by a
//! straight segment keeps TSND within `τ` and NSTD within `η`. The paper's
//! contribution over plain opening-window (BOPW, `O(|T|²)`) is the
//! **angular range**: for the current anchor point, the set of segment
//! slopes that satisfy every already-skipped point's constraints is an
//! interval; each new point shrinks it, and a point whose own slope falls
//! outside the interval ends the window — giving `O(|T|)` total work.
//!
//! Geometry of the constraints for anchor `a` and a skipped point `p`
//! (with `p.d ≥ a.d`, `p.t > a.t` by the sequence invariants):
//!
//! * TSND: the segment must cross the vertical window `d ∈ [p.d−τ, p.d+τ]`
//!   at time `p.t` → slope in
//!   `[(p.d−τ−a.d)/(p.t−a.t), (p.d+τ−a.d)/(p.t−a.t)]`.
//! * NSTD: the segment must cross the horizontal window
//!   `t ∈ [p.t−η, p.t+η]` at distance `p.d` → slope in
//!   `[(p.d−a.d)/(p.t+η−a.t), (p.d−a.d)/(p.t−η−a.t)]`, where the upper
//!   bound is `+∞` when `p.t−η ≤ a.t` (the window reaches back to the
//!   anchor, so arbitrarily steep segments pass).
//!
//! There is one copy of the scan, the loop in [`btc_compress`], which
//! `Press::compress` (and through it the ingest flush) runs. It is one
//! forward pass with O(1) state, the paper's §7.1.2 reason PRESS could
//! compress online. The ingest engine compresses each piece whole, so
//! nothing drives the scan tuple by tuple.

use crate::types::DtPoint;
use serde::{Deserialize, Serialize};

/// Error tolerances for BTC.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BtcBounds {
    /// Maximum tolerated TSND `τ` (distance units, meters by default).
    /// Must be non-negative and not NaN, as [`BtcBounds::new`] asserts: a
    /// NaN set here directly would drop the TSND window from the scan, so
    /// [`BtcBounds::validate`] refuses it wherever bounds are run.
    pub tsnd: f64,
    /// Maximum tolerated NSTD `η` (seconds). Must be non-negative and not
    /// NaN, as [`BtcBounds::new`] asserts: a NaN set here directly would
    /// drop the NSTD window from the scan, so [`BtcBounds::validate`]
    /// refuses it wherever bounds are run.
    pub nstd: f64,
}

impl BtcBounds {
    /// Creates bounds; both must be non-negative and finite (use large
    /// values rather than infinities to disable one of the constraints).
    pub fn new(tsnd: f64, nstd: f64) -> Self {
        assert!(tsnd >= 0.0 && nstd >= 0.0, "bounds must be non-negative");
        BtcBounds { tsnd, nstd }
    }

    /// Checks what [`BtcBounds::new`] asserts, for bounds built from the
    /// public fields: each bound non-negative and not NaN. In
    /// `SlopeRange`, `f64::max`/`min` drop a NaN operand, so a NaN τ
    /// would leave only the NSTD window and a NaN η only the TSND one —
    /// output that silently breaks the bound the caller set. The error
    /// names the field (`bounds.tsnd` / `bounds.nstd`). `Press` runs
    /// this in `train`, `compress` and `compress_batch`, and the ingest
    /// engine at open.
    pub fn validate(&self) -> Result<(), String> {
        for (name, bound) in [("tsnd", self.tsnd), ("nstd", self.nstd)] {
            if bound.is_nan() || bound < 0.0 {
                return Err(format!("bounds.{name} must be non-negative, not {bound}"));
            }
        }
        Ok(())
    }

    /// Zero-tolerance bounds: only exactly-collinear runs collapse.
    pub fn lossless() -> Self {
        BtcBounds {
            tsnd: 0.0,
            nstd: 0.0,
        }
    }
}

/// An interval of admissible slopes in the d–t plane.
#[derive(Clone, Copy, Debug)]
struct SlopeRange {
    lo: f64,
    hi: f64,
}

impl SlopeRange {
    /// The full half-plane after the anchor: the paper's initial straight
    /// angle `[-π/2, π/2]` expressed as slopes.
    fn full() -> Self {
        SlopeRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// `RA(anchor, {p}, τ, η)` — the slope interval admitted by one point.
    fn of_point(anchor: DtPoint, p: DtPoint, bounds: BtcBounds) -> Self {
        let dt = p.t - anchor.t;
        debug_assert!(dt > 0.0, "temporal sequence must strictly increase in t");
        let dd = p.d - anchor.d;
        // TSND: vertical window of half-height τ at (p.t, p.d).
        let v_lo = (dd - bounds.tsnd) / dt;
        let v_hi = (dd + bounds.tsnd) / dt;
        // NSTD: horizontal window of half-width η at (p.t, p.d).
        let h_lo = dd / (dt + bounds.nstd);
        let h_hi = if dt - bounds.nstd > 0.0 {
            dd / (dt - bounds.nstd)
        } else {
            f64::INFINITY
        };
        SlopeRange {
            lo: v_lo.max(h_lo),
            hi: v_hi.min(h_hi),
        }
    }

    /// Intersection with another range.
    fn intersect(&mut self, other: SlopeRange) {
        self.lo = self.lo.max(other.lo);
        self.hi = self.hi.min(other.hi);
    }

    /// `FallInside`: is the slope of anchor → p admissible?
    fn contains_slope_to(&self, anchor: DtPoint, p: DtPoint) -> bool {
        let slope = (p.d - anchor.d) / (p.t - anchor.t);
        slope >= self.lo && slope <= self.hi
    }
}

/// Compresses a temporal sequence with bounded TSND/NSTD error
/// (Algorithm 3). The output is a subsequence of the input, always keeping
/// the first and last tuples. `O(|T|)`.
///
/// State: the anchor (the last kept tuple), the latest tuple since it,
/// and the angular range every tuple since the anchor admits.
pub fn btc_compress(points: &[DtPoint], bounds: BtcBounds) -> Vec<DtPoint> {
    let [first, second, ..] = *points else {
        return points.to_vec();
    };
    let mut out = Vec::with_capacity(points.len() / 2 + 2);
    out.push(first);
    // The second tuple is taken untested, under the full range.
    let (mut anchor, mut prev) = (first, second);
    let mut range = SlopeRange::full();
    range.intersect(SlopeRange::of_point(anchor, second, bounds));
    for &p in &points[2..] {
        if !range.contains_slope_to(anchor, p) {
            // p cannot be reached within tolerance: keep its predecessor
            // as the new anchor and take p under a fresh range (its own
            // slope always falls inside the full one).
            out.push(prev);
            anchor = prev;
            range = SlopeRange::full();
        }
        range.intersect(SlopeRange::of_point(anchor, p, bounds));
        prev = p;
    }
    // The final tuple is always retained.
    out.push(prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::metrics::{nstd, tsnd};

    fn dt(d: f64, t: f64) -> DtPoint {
        DtPoint::new(d, t)
    }

    #[test]
    fn keeps_endpoints() {
        let pts = [dt(0.0, 0.0), dt(10.0, 1.0), dt(20.0, 2.0), dt(30.0, 3.0)];
        let out = btc_compress(&pts, BtcBounds::new(100.0, 100.0));
        assert_eq!(out.first(), pts.first());
        assert_eq!(out.last(), pts.last());
    }

    #[test]
    fn collinear_runs_collapse_even_at_zero_tolerance() {
        // Constant speed: all interior points lie exactly on the line.
        let pts: Vec<DtPoint> = (0..10).map(|i| dt(i as f64 * 10.0, i as f64)).collect();
        let out = btc_compress(&pts, BtcBounds::lossless());
        assert_eq!(out, vec![pts[0], pts[9]]);
    }

    #[test]
    fn stationary_runs_collapse_at_zero_tolerance() {
        // Taxi waiting: d flat while t advances — collinear with slope 0.
        let pts = [
            dt(0.0, 0.0),
            dt(100.0, 10.0),
            dt(100.0, 20.0),
            dt(100.0, 30.0),
            dt(100.0, 40.0),
            dt(200.0, 50.0),
        ];
        let out = btc_compress(&pts, BtcBounds::lossless());
        // The three interior waiting points collapse to the plateau ends.
        assert!(out.len() <= 4, "got {out:?}");
        assert_eq!(tsnd(&pts, &out), 0.0);
        assert_eq!(nstd(&pts, &out), 0.0);
    }

    #[test]
    fn zero_tolerance_preserves_curve_exactly() {
        let pts = [
            dt(0.0, 0.0),
            dt(30.0, 2.0),
            dt(35.0, 4.0),
            dt(90.0, 7.0),
            dt(90.0, 9.0),
            dt(120.0, 11.0),
        ];
        let out = btc_compress(&pts, BtcBounds::lossless());
        assert_eq!(tsnd(&pts, &out), 0.0);
        assert_eq!(nstd(&pts, &out), 0.0);
    }

    #[test]
    fn bounds_are_respected_on_random_walks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..50 {
            let n = rng.gen_range(2..120);
            let mut d = 0.0f64;
            let mut t = 0.0f64;
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                pts.push(dt(d, t));
                d += rng.gen_range(0.0..30.0);
                t += rng.gen_range(0.5..10.0);
                if rng.gen_bool(0.15) {
                    // Stall: advance time only.
                    t += rng.gen_range(1.0..20.0);
                }
            }
            for (tau, eta) in [(0.0, 0.0), (5.0, 2.0), (25.0, 10.0), (200.0, 60.0)] {
                let out = btc_compress(&pts, BtcBounds::new(tau, eta));
                let measured_tsnd = tsnd(&pts, &out);
                let measured_nstd = nstd(&pts, &out);
                assert!(
                    measured_tsnd <= tau + 1e-6,
                    "case {case}: TSND {measured_tsnd} > τ {tau}"
                );
                assert!(
                    measured_nstd <= eta + 1e-6,
                    "case {case}: NSTD {measured_nstd} > η {eta}"
                );
                // Output is a subsequence.
                let mut it = pts.iter();
                for o in &out {
                    assert!(it.any(|p| p == o), "output must be a subsequence");
                }
            }
        }
    }

    #[test]
    fn looser_bounds_never_keep_more_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<DtPoint> = {
            let mut d = 0.0;
            (0..100)
                .map(|i| {
                    d += rng.gen_range(0.0..20.0);
                    dt(d, i as f64 * 5.0)
                })
                .collect()
        };
        let tight = btc_compress(&pts, BtcBounds::new(5.0, 5.0));
        let loose = btc_compress(&pts, BtcBounds::new(500.0, 500.0));
        assert!(loose.len() <= tight.len());
    }

    #[test]
    fn tiny_inputs_pass_through() {
        assert!(btc_compress(&[], BtcBounds::lossless()).is_empty());
        let one = [dt(1.0, 1.0)];
        assert_eq!(btc_compress(&one, BtcBounds::lossless()), one);
        let two = [dt(0.0, 0.0), dt(5.0, 1.0)];
        assert_eq!(btc_compress(&two, BtcBounds::lossless()), two);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bounds_rejected() {
        BtcBounds::new(-1.0, 0.0);
    }

    #[test]
    fn nstd_window_reaching_anchor_allows_steep_segments() {
        // Second point is within η of the anchor in time: NSTD imposes no
        // upper slope bound, so a very steep third point still fits if τ
        // allows it.
        let pts = [dt(0.0, 0.0), dt(1.0, 1.0), dt(2.0, 2.0)];
        let out = btc_compress(&pts, BtcBounds::new(1000.0, 1000.0));
        assert_eq!(out.len(), 2);
    }
}
