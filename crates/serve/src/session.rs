//! Per-vehicle session state and input hardening.
//!
//! Every incoming fix is vetted against the session's last **accepted**
//! fix before it is journaled: non-finite values, timestamps that do not
//! advance, and physically impossible jumps ("teleports") are diverted
//! into a typed quarantine instead of panicking deep inside the matcher
//! or compressor, and exact duplicate re-sends are coalesced. Because only
//! accepted fixes reach the WAL, replaying the journal through the same
//! validation reproduces the same decisions — quarantine is pure
//! observability and never affects recovery determinism.

use press_matcher::GpsSample;
use std::fmt;

/// Why a fix was refused. Stable, typed reasons so fleet operators can
/// alert on sensor classes rather than string-match log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// A coordinate or timestamp was NaN or infinite.
    NonFinite,
    /// The timestamp does not advance past the last accepted fix (and
    /// the fix is not an exact re-send of it, which is coalesced).
    OutOfOrder,
    /// Implied speed from the last accepted fix exceeds
    /// [`SessionPolicy::max_speed_m_s`].
    Teleport,
}

impl QuarantineReason {
    /// All reasons, in counter-array order (see
    /// [`crate::IngestStats::points_quarantined`]).
    pub const ALL: [QuarantineReason; 3] = [
        QuarantineReason::NonFinite,
        QuarantineReason::OutOfOrder,
        QuarantineReason::Teleport,
    ];

    /// Index into per-reason counter arrays.
    pub fn index(self) -> usize {
        match self {
            QuarantineReason::NonFinite => 0,
            QuarantineReason::OutOfOrder => 1,
            QuarantineReason::Teleport => 2,
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuarantineReason::NonFinite => "non-finite coordinate or timestamp",
            QuarantineReason::OutOfOrder => "timestamp not after last accepted fix",
            QuarantineReason::Teleport => "implied speed exceeds policy maximum",
        };
        f.write_str(s)
    }
}

/// Input-hardening policy applied to every fix before it is acked. An
/// exact duplicate of the last accepted fix (a device retrying an ack it
/// never received) is always *repaired* by coalescing: counted, acked as
/// [`crate::Ack::Repaired`], not journaled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPolicy {
    /// Teleport threshold in map units per second; a value `<= 0.0`
    /// disables the check entirely. NaN is refused by
    /// [`crate::IngestEngine::open`] ([`crate::ServeError::Config`]).
    pub max_speed_m_s: f64,
}

impl Default for SessionPolicy {
    fn default() -> Self {
        SessionPolicy {
            max_speed_m_s: 90.0,
        }
    }
}

/// The verdict for one incoming fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disposition {
    /// Journal it, buffer it, ack it.
    Accept,
    /// Harmless duplicate coalesced per policy; ack without journaling.
    Coalesce,
    /// Defective; quarantine and ack the rejection.
    Quarantine(QuarantineReason),
}

/// One vehicle's in-flight state: the samples of the current segment
/// (plus their arrival numbers in the owning shard, so a checkpoint can
/// rewrite the WAL in original arrival order) and the last accepted
/// fix, which is kept across segment rollovers so ordering and teleport
/// checks span segment boundaries.
#[derive(Debug, Clone)]
pub struct Session {
    /// The vehicle id this session belongs to.
    pub vehicle: u64,
    /// Buffered (accepted) samples of the current segment.
    pub samples: Vec<GpsSample>,
    /// Shard-local arrival sequence number of each buffered sample.
    pub arrivals: Vec<u64>,
    /// Last accepted fix, surviving segment rollover.
    pub last: Option<GpsSample>,
}

impl Session {
    /// A fresh, empty session for `vehicle`.
    pub fn new(vehicle: u64) -> Self {
        Session {
            vehicle,
            samples: Vec::new(),
            arrivals: Vec::new(),
            last: None,
        }
    }

    /// Vets `sample` against this session's last accepted fix. Pure:
    /// does not mutate the session (callers apply the verdict so the
    /// journal-then-apply ordering stays explicit).
    pub fn vet(&self, policy: &SessionPolicy, sample: &GpsSample) -> Disposition {
        if !sample.point.x.is_finite() || !sample.point.y.is_finite() || !sample.t.is_finite() {
            return Disposition::Quarantine(QuarantineReason::NonFinite);
        }
        let Some(last) = &self.last else {
            return Disposition::Accept;
        };
        if sample.t <= last.t {
            let exact = sample.point.x == last.point.x
                && sample.point.y == last.point.y
                && sample.t == last.t;
            return if exact {
                Disposition::Coalesce
            } else {
                Disposition::Quarantine(QuarantineReason::OutOfOrder)
            };
        }
        if policy.max_speed_m_s > 0.0 {
            let dx = sample.point.x - last.point.x;
            let dy = sample.point.y - last.point.y;
            let dist = (dx * dx + dy * dy).sqrt();
            if dist > policy.max_speed_m_s * (sample.t - last.t) {
                return Disposition::Quarantine(QuarantineReason::Teleport);
            }
        }
        Disposition::Accept
    }

    /// Buffers an accepted sample (call only after the WAL append).
    pub fn accept(&mut self, sample: GpsSample, arrival: u64) {
        self.samples.push(sample);
        self.arrivals.push(arrival);
        self.last = Some(sample);
    }

    /// Drains the buffered segment (keeping `last` for cross-segment
    /// checks), returning its samples.
    pub fn take_segment(&mut self) -> Vec<GpsSample> {
        self.arrivals.clear();
        std::mem::take(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::Point;

    fn s(x: f64, y: f64, t: f64) -> GpsSample {
        GpsSample {
            point: Point::new(x, y),
            t,
        }
    }

    #[test]
    fn vet_orders_defect_checks_deterministically() {
        let policy = SessionPolicy::default();
        let mut sess = Session::new(1);
        assert_eq!(sess.vet(&policy, &s(0.0, 0.0, 10.0)), Disposition::Accept);
        sess.accept(s(0.0, 0.0, 10.0), 0);
        // Non-finite wins over everything, even with a last fix present.
        assert_eq!(
            sess.vet(&policy, &s(f64::NAN, 0.0, 11.0)),
            Disposition::Quarantine(QuarantineReason::NonFinite)
        );
        assert_eq!(
            sess.vet(&policy, &s(0.0, f64::INFINITY, 11.0)),
            Disposition::Quarantine(QuarantineReason::NonFinite)
        );
        assert_eq!(
            sess.vet(&policy, &s(0.0, 0.0, f64::NAN)),
            Disposition::Quarantine(QuarantineReason::NonFinite)
        );
        // Exact re-send coalesces; the same timestamp elsewhere is
        // out-of-order.
        assert_eq!(sess.vet(&policy, &s(0.0, 0.0, 10.0)), Disposition::Coalesce);
        assert_eq!(
            sess.vet(&policy, &s(5.0, 0.0, 10.0)),
            Disposition::Quarantine(QuarantineReason::OutOfOrder)
        );
        assert_eq!(
            sess.vet(&policy, &s(0.0, 0.0, 9.0)),
            Disposition::Quarantine(QuarantineReason::OutOfOrder)
        );
        // 1000 units in 1s at max 90/s teleports; a slow fix is fine.
        assert_eq!(
            sess.vet(&policy, &s(1000.0, 0.0, 11.0)),
            Disposition::Quarantine(QuarantineReason::Teleport)
        );
        assert_eq!(sess.vet(&policy, &s(50.0, 0.0, 11.0)), Disposition::Accept);
    }

    #[test]
    fn policy_toggles_change_dispositions() {
        let strict = SessionPolicy { max_speed_m_s: 0.0 };
        let mut sess = Session::new(2);
        sess.accept(s(0.0, 0.0, 10.0), 0);
        // Teleport check disabled: any finite jump is accepted.
        assert_eq!(sess.vet(&strict, &s(1.0e9, 0.0, 10.5)), Disposition::Accept);
    }

    #[test]
    fn last_fix_survives_segment_rollover() {
        let policy = SessionPolicy::default();
        let mut sess = Session::new(3);
        sess.accept(s(0.0, 0.0, 10.0), 0);
        sess.accept(s(10.0, 0.0, 11.0), 1);
        let seg = sess.take_segment();
        assert_eq!(seg.len(), 2);
        assert!(sess.samples.is_empty() && sess.arrivals.is_empty());
        // Ordering still enforced against the pre-rollover fix.
        assert_eq!(
            sess.vet(&policy, &s(10.0, 0.0, 11.0)),
            Disposition::Coalesce
        );
        assert_eq!(
            sess.vet(&policy, &s(20.0, 0.0, 10.5)),
            Disposition::Quarantine(QuarantineReason::OutOfOrder)
        );
        assert_eq!(sess.vet(&policy, &s(20.0, 0.0, 12.0)), Disposition::Accept);
    }
}
