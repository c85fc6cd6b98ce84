//! Quadratic opening-window reference (BOPW) — the algorithm the paper's
//! angular-range BTC improves upon (§4.2, §7.1.2).
//!
//! For each candidate window end, this re-validates *every* skipped point
//! against the straight segment anchor → end, giving `O(|T|²)` worst-case
//! time but a direct, obviously-correct encoding of the TSND/NSTD
//! constraints. It exists (a) as the ablation baseline for the paper's
//! claim that angular ranges reduce the complexity to `O(|T|)`, and (b) as
//! a cross-check: both implementations must produce identical output
//! (property-tested).

use crate::temporal::btc::BtcBounds;
use crate::types::DtPoint;

/// Does the straight segment `a → b` satisfy point `p`'s TSND and NSTD
/// windows? (`a.t < p.t <= b.t` and `a.d <= p.d <= b.d` by the sequence
/// invariants.)
fn segment_satisfies(a: DtPoint, b: DtPoint, p: DtPoint, bounds: BtcBounds) -> bool {
    let slope = (b.d - a.d) / (b.t - a.t);
    // TSND: distance of the segment at time p.t vs p.d.
    let seg_d = a.d + slope * (p.t - a.t);
    if (seg_d - p.d).abs() > bounds.tsnd {
        return false;
    }
    // NSTD: time at which the segment reaches distance p.d vs p.t.
    if slope > 0.0 {
        let seg_t = a.t + (p.d - a.d) / slope;
        if (seg_t - p.t).abs() > bounds.nstd {
            return false;
        }
    } else {
        // Flat segment: p.d == a.d == b.d (the sequence is non-decreasing
        // in d), so the segment occupies distance p.d over [a.t, b.t],
        // which contains p.t — the horizontal window always intersects.
        debug_assert_eq!(p.d, a.d);
    }
    true
}

/// Opening-window compression with full re-validation: the output of
/// [`crate::temporal::btc::btc_compress`] computed the `O(|T|²)` way.
pub fn bopw_compress(points: &[DtPoint], bounds: BtcBounds) -> Vec<DtPoint> {
    bopw_compress_counted(points, bounds).0
}

/// [`bopw_compress`] and the number of window checks it made (one per
/// skipped tuple re-validated against a candidate segment) — the work its
/// `O(|T|²)` bound counts, against angular-range BTC's one slope-range
/// test per tuple.
pub fn bopw_compress_counted(points: &[DtPoint], bounds: BtcBounds) -> (Vec<DtPoint>, usize) {
    if points.len() <= 2 {
        return (points.to_vec(), 0);
    }
    let n = points.len();
    let mut out = Vec::with_capacity(n / 2 + 2);
    out.push(points[0]);
    let mut checks = 0;
    let mut anchor_idx = 0usize;
    let mut i = 1usize;
    while i < n {
        // Can the segment anchor -> points[i] replace everything between?
        let ok = (anchor_idx + 1..i).all(|j| {
            checks += 1;
            segment_satisfies(points[anchor_idx], points[i], points[j], bounds)
        });
        if ok {
            i += 1;
        } else {
            out.push(points[i - 1]);
            anchor_idx = i - 1;
            // Re-examine i against the new anchor (empty window: trivially
            // valid, so the next loop iteration advances).
        }
    }
    out.push(points[n - 1]);
    (out, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::btc::btc_compress;
    use crate::temporal::metrics::{nstd, tsnd};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dt(d: f64, t: f64) -> DtPoint {
        DtPoint::new(d, t)
    }

    fn random_sequence(rng: &mut StdRng, n: usize) -> Vec<DtPoint> {
        let mut d = 0.0f64;
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                let p = dt(d, t);
                d += rng.gen_range(0.0..25.0);
                t += rng.gen_range(0.5..8.0);
                if rng.gen_bool(0.2) {
                    t += rng.gen_range(2.0..15.0);
                }
                p
            })
            .collect()
    }

    #[test]
    fn matches_angular_range_btc_exactly() {
        let mut rng = StdRng::seed_from_u64(123);
        for case in 0..60 {
            let n = rng.gen_range(2..150);
            let pts = random_sequence(&mut rng, n);
            for (tau, eta) in [(0.0, 0.0), (3.0, 1.0), (20.0, 8.0), (150.0, 40.0)] {
                let bounds = BtcBounds::new(tau, eta);
                let fast = btc_compress(&pts, bounds);
                let slow = bopw_compress(&pts, bounds);
                assert_eq!(
                    fast, slow,
                    "case {case} τ={tau} η={eta}: angular-range and BOPW disagree"
                );
            }
        }
    }

    #[test]
    fn respects_bounds() {
        let mut rng = StdRng::seed_from_u64(321);
        let pts = random_sequence(&mut rng, 200);
        let bounds = BtcBounds::new(15.0, 6.0);
        let out = bopw_compress(&pts, bounds);
        assert!(tsnd(&pts, &out) <= 15.0 + 1e-6);
        assert!(nstd(&pts, &out) <= 6.0 + 1e-6);
    }

    #[test]
    fn pure_stall_collapses_exactly() {
        // A flat run is identical to its straight-line replacement, so it
        // collapses at any tolerance — including zero.
        let pts = [dt(0.0, 0.0), dt(0.0, 100.0), dt(0.0, 200.0)];
        let out = bopw_compress(&pts, BtcBounds::lossless());
        assert_eq!(out.len(), 2);
        assert_eq!(tsnd(&pts, &out), 0.0);
        assert_eq!(nstd(&pts, &out), 0.0);
    }

    #[test]
    fn stall_before_rise_binds_nstd() {
        // Anchor at (d=0, t=0), stall until t=100, then rise. Bridging with
        // one rising segment crosses d=0 only at t=0, violating the stalled
        // point's η=10 window; a generous η lets it collapse.
        let pts = [dt(0.0, 0.0), dt(0.0, 100.0), dt(100.0, 200.0)];
        let strict = bopw_compress(&pts, BtcBounds::new(1000.0, 10.0));
        assert_eq!(strict.len(), 3);
        let loose = bopw_compress(&pts, BtcBounds::new(1000.0, 150.0));
        assert_eq!(loose.len(), 2);
    }

    #[test]
    fn tiny_inputs() {
        assert!(bopw_compress(&[], BtcBounds::lossless()).is_empty());
        let two = [dt(0.0, 0.0), dt(1.0, 1.0)];
        assert_eq!(bopw_compress(&two, BtcBounds::lossless()), two);
    }
}
