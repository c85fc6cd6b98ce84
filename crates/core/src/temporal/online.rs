//! Online (streaming) Bounded Temporal Compression.
//!
//! Paper §7.1.2: "the compression procedure scans the spatial path and
//! temporal sequence from head to tail without tracing back. This means
//! PRESS can be adapted to online compression." So the online form is the
//! batch scan fed one tuple at a time: [`OnlineBtc`] drives the very
//! state machine ([`crate::temporal::btc`]'s `BtcScan`) that
//! [`crate::temporal::btc_compress`] runs — O(1) state (the anchor, the
//! latest tuple and one angular range), and retained tuples are emitted
//! as soon as they are decided. Its output equals the batch output at
//! every cut of the stream (property-tested).

use crate::temporal::btc::{BtcBounds, BtcScan};
use crate::types::DtPoint;

/// Streaming BTC compressor.
///
/// ```
/// use press_core::temporal::{OnlineBtc, BtcBounds};
/// use press_core::DtPoint;
///
/// let mut enc = OnlineBtc::new(BtcBounds::new(10.0, 5.0));
/// let mut kept = Vec::new();
/// for i in 0..100 {
///     kept.extend(enc.push(DtPoint::new(i as f64 * 12.0, i as f64 * 2.0)));
/// }
/// kept.extend(enc.finish());
/// assert!(kept.len() <= 100);
/// ```
#[derive(Clone, Debug)]
pub struct OnlineBtc {
    bounds: BtcBounds,
    scan: BtcScan,
}

impl OnlineBtc {
    /// New streaming compressor with the given tolerances.
    pub fn new(bounds: BtcBounds) -> Self {
        OnlineBtc {
            bounds,
            scan: BtcScan::default(),
        }
    }

    /// Pushes the next tuple (strictly increasing `t`, non-decreasing
    /// `d`); returns any tuples that are now permanently decided.
    pub fn push(&mut self, p: DtPoint) -> Vec<DtPoint> {
        self.scan.push(p, self.bounds).into_iter().collect()
    }

    /// Flushes the stream end: the final point is always retained.
    pub fn finish(self) -> Vec<DtPoint> {
        self.scan.finish().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::btc::btc_compress;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(points: &[DtPoint], bounds: BtcBounds) -> Vec<DtPoint> {
        let mut enc = OnlineBtc::new(bounds);
        let mut out = Vec::new();
        for &p in points {
            out.extend(enc.push(p));
        }
        out.extend(enc.finish());
        out
    }

    #[test]
    fn matches_batch_on_random_sequences() {
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..40 {
            let n = rng.gen_range(0..150);
            let mut d = 0.0f64;
            let mut t = 0.0f64;
            let pts: Vec<DtPoint> = (0..n)
                .map(|_| {
                    let p = DtPoint::new(d, t);
                    d += rng.gen_range(0.0..25.0);
                    t += rng.gen_range(0.5..8.0);
                    p
                })
                .collect();
            for (tau, eta) in [(0.0, 0.0), (5.0, 2.0), (40.0, 15.0)] {
                let bounds = BtcBounds::new(tau, eta);
                assert_eq!(
                    stream(&pts, bounds),
                    btc_compress(&pts, bounds),
                    "case {case} τ={tau} η={eta}"
                );
            }
        }
    }

    #[test]
    fn emits_first_point_immediately() {
        let mut enc = OnlineBtc::new(BtcBounds::lossless());
        let first = enc.push(DtPoint::new(0.0, 0.0));
        assert_eq!(first, vec![DtPoint::new(0.0, 0.0)]);
        // Collinear continuation emits nothing until finish.
        let mut enc2 = enc.clone();
        assert!(enc2.push(DtPoint::new(10.0, 1.0)).is_empty());
        assert!(enc2.push(DtPoint::new(20.0, 2.0)).is_empty());
        assert_eq!(enc2.finish(), vec![DtPoint::new(20.0, 2.0)]);
    }

    #[test]
    fn empty_and_single_point_streams() {
        let enc = OnlineBtc::new(BtcBounds::lossless());
        assert!(enc.finish().is_empty());
        let mut enc = OnlineBtc::new(BtcBounds::lossless());
        let out = enc.push(DtPoint::new(3.0, 1.0));
        assert_eq!(out.len(), 1);
        assert!(enc.finish().is_empty()); // single point not re-emitted
    }

    #[test]
    fn bounded_state_regardless_of_stream_length() {
        // The encoder is O(1) state: it can absorb long streams without
        // growing; correctness is checked against batch in chunks.
        let pts: Vec<DtPoint> = (0..10_000)
            .map(|i| DtPoint::new((i as f64) * 7.0 + (i % 13) as f64, i as f64))
            .collect();
        let bounds = BtcBounds::new(6.0, 3.0);
        assert_eq!(stream(&pts, bounds), btc_compress(&pts, bounds));
        assert!(std::mem::size_of::<OnlineBtc>() < 128);
    }
}
