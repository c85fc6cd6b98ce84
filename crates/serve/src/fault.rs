//! Deterministic fault injection for the ingest engine.
//!
//! A [`FaultPlan`] is a seeded recipe of stream-level faults (dropped,
//! corrupted, duplicated, and reordered fixes) plus helpers to simulate
//! a crash by tearing the journal at an arbitrary byte offset. The same
//! plan over the same input always produces the same mangled stream, so
//! any failing recovery test reproduces from its seed alone.

use press_matcher::GpsSample;
use press_network::Point;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io;
use std::path::Path;

/// One timestamped fix addressed to a vehicle — the unit the fault
/// injector mangles.
pub type Event = (u64, GpsSample);

/// A seeded recipe of stream faults. Probabilities are independent and
/// applied per event, in the order drop → corrupt → duplicate; a final
/// pass swaps adjacent survivors to model reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; two runs of the same plan are identical.
    pub seed: u64,
    /// Probability an event is silently dropped (sensor dead zone).
    pub drop_prob: f64,
    /// Probability an event is corrupted (NaN/∞ fields, teleports,
    /// timestamp rollbacks — the defect is chosen by the RNG).
    pub corrupt_prob: f64,
    /// Probability an event is re-sent verbatim (ack-loss retry).
    pub duplicate_prob: f64,
    /// Probability an event swaps with its successor (UDP reordering).
    pub reorder_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.02,
            corrupt_prob: 0.02,
            duplicate_prob: 0.02,
            reorder_prob: 0.02,
        }
    }
}

impl FaultPlan {
    /// Applies the plan to a clean event stream, returning the mangled
    /// stream the ingest engine will be fed.
    pub fn mangle(&self, events: &[Event]) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out: Vec<Event> = Vec::with_capacity(events.len() + events.len() / 8);
        for &(vehicle, sample) in events {
            if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
                continue;
            }
            let mut sample = sample;
            if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) {
                sample = corrupt(&mut rng, sample);
            }
            out.push((vehicle, sample));
            if self.duplicate_prob > 0.0 && rng.gen_bool(self.duplicate_prob) {
                out.push((vehicle, sample));
            }
        }
        if self.reorder_prob > 0.0 && out.len() >= 2 {
            for i in 0..out.len() - 1 {
                if rng.gen_bool(self.reorder_prob) {
                    out.swap(i, i + 1);
                }
            }
        }
        out
    }
}

/// Picks one defect class and applies it to `sample`.
fn corrupt(rng: &mut StdRng, sample: GpsSample) -> GpsSample {
    let mut s = sample;
    match rng.gen_range(0..6u32) {
        0 => s.point = Point::new(f64::NAN, s.point.y),
        1 => s.point = Point::new(s.point.x, f64::INFINITY),
        2 => s.t = f64::NAN,
        3 => s.t = f64::NEG_INFINITY,
        // Teleport: a jump far beyond any sane per-second speed.
        4 => s.point = Point::new(s.point.x + 1.0e7, s.point.y - 1.0e7),
        // Timestamp rollback: the fix claims to predate the stream.
        _ => s.t -= 1.0e6,
    }
    s
}

/// Simulates a kill by truncating the committed (manifest-live) journal
/// of `shard` at `offset` (clamped to the current length). Returns the
/// resulting length. This models a crash mid-append on that shard:
/// everything past the offset — at most the frames whose acks never
/// returned durable — vanishes, while every other shard's journal is
/// untouched.
pub fn truncate_shard_wal(dir: &Path, shard: u32, offset: u64) -> io::Result<u64> {
    let path = crate::manifest::live_shard_wal_path(dir, shard)?;
    let len = std::fs::metadata(&path)?.len();
    let cut = offset.min(len);
    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
    f.set_len(cut)?;
    f.sync_data()?;
    Ok(cut)
}

/// Committed length of `shard`'s journal, for choosing kill offsets.
pub fn shard_wal_len(dir: &Path, shard: u32) -> io::Result<u64> {
    Ok(std::fs::metadata(crate::manifest::live_shard_wal_path(dir, shard)?)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                (
                    (i % 3) as u64,
                    GpsSample {
                        point: Point::new(i as f64, -(i as f64)),
                        t: i as f64,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn mangle_is_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.2,
            corrupt_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
        };
        let evs = events(200);
        let a = plan.mangle(&evs);
        let b = plan.mangle(&evs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            // Bitwise equality so NaN corruptions compare equal too.
            assert_eq!(x.1.point.x.to_bits(), y.1.point.x.to_bits());
            assert_eq!(x.1.point.y.to_bits(), y.1.point.y.to_bits());
            assert_eq!(x.1.t.to_bits(), y.1.t.to_bits());
        }
        let other = FaultPlan { seed: 43, ..plan };
        let c = other.mangle(&evs);
        let same = a.len() == c.len()
            && a.iter()
                .zip(&c)
                .all(|(x, y)| x.0 == y.0 && x.1.t.to_bits() == y.1.t.to_bits());
        assert!(!same, "different seeds should mangle differently");
    }

    #[test]
    fn zero_probabilities_pass_the_stream_through() {
        let plan = FaultPlan {
            seed: 7,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
        };
        let evs = events(50);
        assert_eq!(plan.mangle(&evs), evs);
    }
}
