//! Storage-cost model and compression-ratio accounting.
//!
//! The paper reports compression ratio as `|T| / |T'|` — original storage
//! cost over compressed storage cost (§6.1). Ratios only make sense with an
//! explicit byte model, so this module pins one down:
//!
//! * a raw GPS sample `(x, y, t)` costs 20 bytes (two `f64` + one `u32`),
//! * an edge id in an uncompressed spatial path costs 4 bytes,
//! * a temporal tuple `(d, t)` costs 8 bytes (`f32` + `u32`),
//! * a compressed spatial path costs its Huffman bit stream rounded up to
//!   whole bytes,
//! * a BTC-compressed temporal sequence costs 8 bytes per retained tuple
//!   (same format as uncompressed — no decompression step exists).
//!
//! The byte model is the paper's accounting, not the file's: what a
//! trajectory takes in a corpus block is [`StoredBytes`], reported beside
//! the model wherever the model is printed so the two units stay apart.

use crate::error::Result;
use crate::press::CompressedTrajectory;
use crate::spatial::HscModel;
use serde::{Deserialize, Serialize};

/// Bytes per raw GPS `(x, y, t)` sample.
pub const RAW_GPS_POINT_BYTES: usize = 20;
/// Bytes per edge id in an uncompressed spatial path.
pub const EDGE_ID_BYTES: usize = 4;
/// Bytes per `(d, t)` temporal tuple.
pub const DT_TUPLE_BYTES: usize = 8;

/// Storage cost of a raw GPS trajectory of `n` samples.
#[inline]
pub fn raw_gps_bytes(n_points: usize) -> usize {
    n_points * RAW_GPS_POINT_BYTES
}

/// Storage cost of the uncompressed PRESS representation: an edge path
/// plus a full temporal sequence.
#[inline]
pub fn network_form_bytes(n_edges: usize, n_tuples: usize) -> usize {
    n_edges * EDGE_ID_BYTES + n_tuples * DT_TUPLE_BYTES
}

/// Byte totals of one original/compressed pair (or of whole datasets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressionStats {
    /// Storage cost before compression.
    pub original_bytes: usize,
    /// Storage cost after compression.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Creates stats from the two byte counts.
    pub fn new(original_bytes: usize, compressed_bytes: usize) -> Self {
        CompressionStats {
            original_bytes,
            compressed_bytes,
        }
    }

    /// The paper's compression ratio `|T| / |T'|`. Returns `f64::INFINITY`
    /// for an empty compressed form of a non-empty original.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            if self.original_bytes == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Fraction of storage saved, in percent (the paper's "saves up to
    /// 78.4 % of the original storage cost" framing).
    pub fn savings_pct(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.compressed_bytes as f64 / self.original_bytes as f64)
    }

    /// Accumulates another pair into this one (dataset-level totals).
    pub fn accumulate(&mut self, other: &CompressionStats) {
        self.original_bytes += other.original_bytes;
        self.compressed_bytes += other.compressed_bytes;
    }
}

impl std::iter::Sum for CompressionStats {
    fn sum<I: Iterator<Item = CompressionStats>>(iter: I) -> Self {
        let mut total = CompressionStats::default();
        for s in iter {
            total.accumulate(&s);
        }
        total
    }
}

/// What trajectories take in a corpus block ([`crate::record`]), by what
/// the bytes hold — the stored unit, beside the byte model's
/// [`DT_TUPLE_BYTES`] per tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoredBytes {
    /// Trajectories counted.
    pub trajectories: usize,
    /// `(d, t)` tuples they keep.
    pub tuples: usize,
    /// Framing: directory entry, tuple and bit counts, code byte.
    pub framing_bytes: usize,
    /// The `t` and `d` columns.
    pub tuple_bytes: usize,
    /// The spatial code: unit symbols and gap runs, in whole bytes per
    /// trajectory.
    pub spatial_bytes: usize,
    /// The spatial code's exact length in bits.
    pub spatial_bits: u64,
    /// Of those, the bits that spell gap runs
    /// ([`crate::spatial::hsc`] § the stream) — the rest are unit
    /// symbols. Telling them apart takes the model, so
    /// [`StoredBytes::of_coded`] fills this in and [`StoredBytes::of`]
    /// leaves it `None`.
    pub run_bits: Option<u64>,
}

impl StoredBytes {
    /// The stored size of one trajectory.
    pub fn of(ct: &CompressedTrajectory) -> Self {
        let [framing_bytes, tuple_bytes, spatial_bytes] = crate::record::stored_parts(ct);
        StoredBytes {
            trajectories: 1,
            tuples: ct.temporal.len(),
            framing_bytes,
            tuple_bytes,
            spatial_bytes,
            spatial_bits: ct.spatial.bits.len_bits(),
            run_bits: None,
        }
    }

    /// [`StoredBytes::of`] with the spatial code split into unit-symbol
    /// bits and run bits, by reading it under the `model` it was coded
    /// with.
    pub fn of_coded(model: &HscModel, ct: &CompressedTrajectory) -> Result<Self> {
        Ok(StoredBytes {
            run_bits: Some(model.run_cost(&ct.spatial)?.0),
            ..Self::of(ct)
        })
    }

    /// All stored bytes.
    pub fn total(&self) -> usize {
        self.framing_bytes + self.tuple_bytes + self.spatial_bytes
    }

    /// Stored bytes per kept tuple (columns only), 0 without tuples.
    pub fn per_tuple(&self) -> f64 {
        self.tuple_bytes as f64 / self.tuples.max(1) as f64
    }

    /// Stored bytes per trajectory, 0 without trajectories.
    pub fn per_trajectory(&self) -> f64 {
        self.total() as f64 / self.trajectories.max(1) as f64
    }
}

impl std::iter::Sum for StoredBytes {
    fn sum<I: Iterator<Item = StoredBytes>>(iter: I) -> Self {
        let zero = StoredBytes {
            run_bits: Some(0),
            ..StoredBytes::default()
        };
        iter.fold(zero, |a, b| StoredBytes {
            trajectories: a.trajectories + b.trajectories,
            tuples: a.tuples + b.tuples,
            framing_bytes: a.framing_bytes + b.framing_bytes,
            tuple_bytes: a.tuple_bytes + b.tuple_bytes,
            spatial_bytes: a.spatial_bytes + b.spatial_bytes,
            spatial_bits: a.spatial_bits + b.spatial_bits,
            // Known for the sum only when known for every part.
            run_bits: a.run_bits.zip(b.run_bits).map(|(a, b)| a + b),
        })
    }
}

impl std::fmt::Display for StoredBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stored {:.2} B/tuple (byte model {DT_TUPLE_BYTES}), {:.1} B/trajectory \
             ({} framing + {} tuples + {} spatial over {} trajectories)",
            self.per_tuple(),
            self.per_trajectory(),
            self.framing_bytes,
            self.tuple_bytes,
            self.spatial_bytes,
            self.trajectories
        )?;
        match self.run_bits {
            Some(run_bits) => write!(
                f,
                "; spatial code {} unit bits + {run_bits} run bits",
                self.spatial_bits - run_bits
            ),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_model() {
        assert_eq!(raw_gps_bytes(10), 200);
        assert_eq!(network_form_bytes(5, 10), 5 * 4 + 10 * 8);
        assert_eq!(raw_gps_bytes(0), 0);
    }

    #[test]
    fn ratio_and_savings() {
        let s = CompressionStats::new(1000, 250);
        assert!((s.ratio() - 4.0).abs() < 1e-12);
        assert!((s.savings_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_ratios() {
        assert_eq!(CompressionStats::new(0, 0).ratio(), 1.0);
        assert_eq!(CompressionStats::new(10, 0).ratio(), f64::INFINITY);
        assert_eq!(CompressionStats::new(0, 0).savings_pct(), 0.0);
    }

    #[test]
    fn accumulate_and_sum() {
        let a = CompressionStats::new(100, 50);
        let b = CompressionStats::new(300, 100);
        let total: CompressionStats = [a, b].into_iter().sum();
        assert_eq!(total.original_bytes, 400);
        assert_eq!(total.compressed_bytes, 150);
        assert!((total.ratio() - 400.0 / 150.0).abs() < 1e-12);
    }
}
