//! Nonmaterial baseline — Cao & Wolfson, "Nonmaterialized motion
//! information in transport networks" (ICDT'05), as used in the paper's
//! evaluation (§6, §7.2).
//!
//! Nonmaterial represents a matched trajectory by its street (edge)
//! sequence plus timestamps at intersections, assuming **uniform speed**
//! between retained timestamps. Compression drops intersection timestamps
//! whose uniform-speed interpolation stays within a tolerance — so the
//! spatial path is kept exactly, while the temporal side degrades
//! gracefully, like PRESS but without FST coding or the (d, t)
//! representation.
//!
//! Storage model: 4 bytes per edge + 8 bytes per retained `(vertex, time)`
//! anchor.

use press_core::temporal::{dis_at, tim_at};
use press_core::{DtPoint, SpatialPath, TemporalSequence, Trajectory};
use press_network::EdgeId;
use press_network::SpProvider;

/// Configuration: tolerance on the distance error (meters) of the
/// uniform-speed assumption, evaluated at the dropped intersections'
/// passage times (a TSED-style bound in network space).
#[derive(Clone, Copy, Debug)]
pub struct NonmaterialConfig {
    pub tolerance: f64,
}

impl Default for NonmaterialConfig {
    fn default() -> Self {
        NonmaterialConfig { tolerance: 0.0 }
    }
}

/// A Nonmaterial-compressed trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct NonmaterialTrajectory {
    /// The exact street sequence (spatially lossless, like the original
    /// Nonmaterial proposal).
    pub edges: Vec<EdgeId>,
    /// Retained `(cumulative distance, time)` anchors at intersections
    /// (plus the trajectory's two endpoints).
    pub anchors: Vec<DtPoint>,
}

impl NonmaterialTrajectory {
    /// Storage bytes under the byte model of `press_core::stats` (4 B per
    /// edge id, 8 B per anchor).
    pub fn storage_bytes(&self) -> usize {
        self.edges.len() * 4 + self.anchors.len() * 8
    }

    /// Reconstructs a PRESS-style trajectory (uniform speed between
    /// anchors) — used for queries and error measurement.
    pub fn reconstruct(&self) -> Trajectory {
        Trajectory::new(
            SpatialPath::new_unchecked(self.edges.clone()),
            TemporalSequence::new_unchecked(self.anchors.clone()),
        )
    }
}

/// Compresses a trajectory into the Nonmaterial representation.
///
/// Anchor candidates are the trajectory endpoints and every intersection
/// (vertex) passage event; an opening window drops candidates while every
/// skipped one's uniform-speed distance error stays within the tolerance.
pub fn compress(
    sp: &dyn SpProvider,
    traj: &Trajectory,
    cfg: &NonmaterialConfig,
) -> NonmaterialTrajectory {
    let net = sp.network();
    let temporal = &traj.temporal.points;
    let mut candidates: Vec<DtPoint> = Vec::with_capacity(traj.path.len() + 2);
    if let (Some(first), Some(last)) = (temporal.first(), temporal.last()) {
        candidates.push(*first);
        // Vertex passage events: cumulative distance at each interior
        // vertex, timestamp from the original temporal curve.
        let mut dacu = 0.0f64;
        for &e in &traj.path.edges {
            dacu += net.weight(e);
            if dacu > first.d && dacu < last.d {
                candidates.push(DtPoint::new(dacu, tim_at(temporal, dacu)));
            }
        }
        candidates.push(*last);
        // Candidate times can collide when the object crosses several
        // vertices between two samples; enforce strict monotonicity.
        candidates.dedup_by(|b, a| b.t <= a.t);
    }
    // Opening window over the candidates, bounding the *original curve's*
    // deviation from the uniform-speed chord at every original sample.
    let anchors = if candidates.len() <= 2 {
        candidates
    } else {
        let mut out = vec![candidates[0]];
        let mut anchor = 0usize;
        let mut i = 1usize;
        while i < candidates.len() {
            let chord = [candidates[anchor], candidates[i]];
            let ok = temporal
                .iter()
                .filter(|p| p.t > chord[0].t && p.t < chord[1].t)
                .all(|p| (dis_at(&chord, p.t) - p.d).abs() <= cfg.tolerance);
            if ok {
                i += 1;
            } else if anchor == i - 1 {
                // Even the minimal window (two consecutive intersections)
                // violates the tolerance: the vertex-granular representation
                // cannot capture the intra-segment detail, so keep both ends
                // and accept the unavoidable residual error.
                out.push(candidates[i]);
                anchor = i;
                i += 1;
            } else {
                out.push(candidates[i - 1]);
                anchor = i - 1;
            }
        }
        out.push(*candidates.last().unwrap());
        out.dedup_by(|b, a| b.t <= a.t);
        out
    };
    NonmaterialTrajectory {
        edges: traj.path.edges.clone(),
        anchors,
    }
}

/// Decompression: Nonmaterial recovers the street sequence exactly and the
/// temporal curve under the uniform-speed assumption.
pub fn decompress(nm: &NonmaterialTrajectory) -> Trajectory {
    nm.reconstruct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_core::temporal::tsnd;
    use press_network::{grid_network, GridConfig, NodeId, SpTable};
    use std::sync::Arc;

    fn fixture() -> (Arc<dyn SpProvider>, Trajectory) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.1,
            seed: 5,
            ..GridConfig::default()
        }));
        let path = press_network::dijkstra(&net, NodeId(0))
            .edge_path_to(&net, NodeId(35))
            .unwrap();
        let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
        // Variable speed + a stall to make uniform-speed lossy.
        let mut pts = Vec::new();
        let mut d = 0.0;
        let mut t = 0.0;
        let mut fast = true;
        while d < total {
            pts.push(DtPoint::new(d, t));
            d = (d + if fast { 60.0 } else { 20.0 }).min(total);
            t += 5.0;
            fast = !fast;
        }
        pts.push(DtPoint::new(total, t));
        (
            Arc::new(SpTable::build(net.clone())),
            Trajectory::new(
                SpatialPath::new_unchecked(path),
                TemporalSequence::new(pts).unwrap(),
            ),
        )
    }

    #[test]
    fn spatial_path_is_kept_exactly() {
        let (sp, traj) = fixture();
        let nm = compress(&sp, &traj, &NonmaterialConfig { tolerance: 50.0 });
        assert_eq!(nm.edges, traj.path.edges);
        assert_eq!(decompress(&nm).path, traj.path);
    }

    #[test]
    fn anchors_are_monotone_and_bounded_in_count() {
        let (sp, traj) = fixture();
        let nm = compress(&sp, &traj, &NonmaterialConfig::default());
        assert!(nm.anchors.len() <= traj.path.len() + 2);
        for w in nm.anchors.windows(2) {
            assert!(w[1].t > w[0].t);
            assert!(w[1].d >= w[0].d);
        }
        // Endpoints preserved.
        assert_eq!(nm.anchors.first().unwrap().d, traj.temporal.points[0].d);
        let last = traj.temporal.points.last().unwrap();
        assert_eq!(nm.anchors.last().unwrap().d, last.d);
    }

    #[test]
    fn tolerance_bounds_temporal_error() {
        // The vertex-granular representation carries an unavoidable floor:
        // the error of keeping *every* intersection timestamp. Accepted
        // windows are checked directly against the original curve, so the
        // final error is bounded by max(tolerance, floor).
        let (sp, traj) = fixture();
        let floor = {
            let all = compress(&sp, &traj, &NonmaterialConfig { tolerance: 0.0 });
            tsnd(&traj.temporal.points, &decompress(&all).temporal.points)
        };
        for tol in [30.0, 80.0, 200.0] {
            let nm = compress(&sp, &traj, &NonmaterialConfig { tolerance: tol });
            let back = decompress(&nm);
            let err = tsnd(&traj.temporal.points, &back.temporal.points);
            assert!(
                err <= tol.max(floor) + 1e-6,
                "tolerance {tol} violated: measured {err}, floor {floor}"
            );
        }
    }

    #[test]
    fn looser_tolerance_keeps_fewer_anchors() {
        let (sp, traj) = fixture();
        let tight = compress(&sp, &traj, &NonmaterialConfig { tolerance: 10.0 });
        let loose = compress(&sp, &traj, &NonmaterialConfig { tolerance: 500.0 });
        assert!(loose.anchors.len() <= tight.anchors.len());
        assert!(loose.storage_bytes() <= tight.storage_bytes());
    }

    #[test]
    fn storage_model() {
        let (sp, traj) = fixture();
        let nm = compress(&sp, &traj, &NonmaterialConfig::default());
        assert_eq!(
            nm.storage_bytes(),
            nm.edges.len() * 4 + nm.anchors.len() * 8
        );
    }
}
