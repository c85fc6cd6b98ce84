//! Dataset assembly: the Singapore-taxi stand-in (see the crate docs for
//! the properties it reproduces).
//!
//! A [`Workload`] is a deterministic, seeded collection of
//! [`TrajectoryRecord`]s over one road network. Each record carries its
//! ground-truth path and continuous motion profile, from which raw GPS
//! traces (at any sampling interval, with any noise level) and
//! ground-truth PRESS trajectories can both be derived — so every
//! experiment in the paper's §6 can re-slice the *same* journeys.

use crate::motion::{MotionConfig, MotionProfile};
use crate::trips::{route_trip, RoutingConfig};
use crate::zipf::Zipf;
use press_core::{DtPoint, GpsPoint, GpsTrajectory, SpatialPath, TemporalSequence, Trajectory};
use press_network::{NodeId, RoadNetwork, SpProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Full workload configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of trajectories to generate.
    pub num_trajectories: usize,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Number of popular (hub) origin–destination pairs.
    pub hub_pairs: usize,
    /// Fraction of trips drawn from the Zipf hub demand (the rest are
    /// uniform random OD pairs).
    pub hub_trip_fraction: f64,
    /// Zipf exponent of the hub demand.
    pub zipf_exponent: f64,
    /// Minimum trip length in edges (shorter trips are re-drawn).
    pub min_trip_edges: usize,
    /// Number of traffic-perception profiles. Each trip routes as the
    /// exact shortest path under one profile's perceived edge costs —
    /// modelling time-of-day traffic. Trips sharing (origin, destination,
    /// profile) follow identical routes, giving FST mining its repeated
    /// corridors, while perceived ≠ stored weights keeps SP compression
    /// non-trivial. Set to 0 to fall back to per-hop detour routing.
    pub perception_profiles: usize,
    /// Relative jitter of perceived vs stored edge weights in `[0, 1)`.
    pub perception_jitter: f64,
    /// Routing behaviour (used when `perception_profiles == 0`).
    pub routing: RoutingConfig,
    /// Motion behaviour (speeds, stops).
    pub motion: MotionConfig,
    /// Default GPS sampling interval (seconds/point; the paper's median is
    /// 30 s/point).
    pub sampling_interval: f64,
    /// GPS noise standard deviation (meters).
    pub gps_noise: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_trajectories: 200,
            seed: 42,
            hub_pairs: 24,
            hub_trip_fraction: 0.7,
            zipf_exponent: 1.0,
            min_trip_edges: 5,
            perception_profiles: 4,
            perception_jitter: 0.35,
            routing: RoutingConfig::default(),
            motion: MotionConfig::default(),
            sampling_interval: 30.0,
            gps_noise: 8.0,
        }
    }
}

/// One generated journey: ground-truth path + continuous motion.
#[derive(Clone, Debug)]
pub struct TrajectoryRecord {
    /// Ground-truth edge path.
    pub path: Vec<press_network::EdgeId>,
    /// Ground-truth motion profile along the path.
    pub profile: MotionProfile,
    /// Per-record seed (drives GPS noise reproducibly).
    pub seed: u64,
}

impl TrajectoryRecord {
    /// Ground-truth PRESS trajectory sampled every `interval` seconds.
    pub fn truth_trajectory(&self, interval: f64) -> Trajectory {
        Trajectory::new(
            SpatialPath::new_unchecked(self.path.clone()),
            TemporalSequence::new_unchecked(self.profile.sample(interval)),
        )
    }

    /// Raw GPS trace: positions along the path at the sampled times, with
    /// isotropic Gaussian noise of standard deviation `noise` meters.
    pub fn gps_trace(&self, net: &RoadNetwork, interval: f64, noise: f64) -> GpsTrajectory {
        let samples = self.profile.sample(interval);
        let spath = SpatialPath::new_unchecked(self.path.clone());
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let points = samples
            .iter()
            .map(|s| {
                let mut p = spath
                    .point_at(net, s.d)
                    .expect("profile distance within path");
                if noise > 0.0 {
                    let (gx, gy) = gaussian_pair(&mut rng);
                    p.x += gx * noise;
                    p.y += gy * noise;
                }
                GpsPoint { point: p, t: s.t }
            })
            .collect();
        GpsTrajectory { points }
    }

    /// Number of GPS samples this record produces at `interval`.
    pub fn raw_point_count(&self, interval: f64) -> usize {
        self.profile.sample(interval).len()
    }
}

/// Graph-only reachability check (BFS over out-edges).
fn bfs_reachable(net: &RoadNetwork, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; net.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    seen[from.index()] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &e in net.out_edges(u) {
            let v = net.edge(e).to;
            if v == to {
                return true;
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    false
}

/// A standard Gaussian pair via Box–Muller (the `rand` crate alone ships no
/// normal distribution).
fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// A complete generated dataset.
pub struct Workload {
    pub net: Arc<RoadNetwork>,
    pub sp: Arc<dyn SpProvider>,
    pub config: WorkloadConfig,
    pub records: Vec<TrajectoryRecord>,
}

impl Workload {
    /// Generates the workload deterministically from the configuration.
    pub fn generate(
        net: Arc<RoadNetwork>,
        sp: Arc<dyn SpProvider>,
        config: WorkloadConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_nodes = net.num_nodes() as u32;
        // Hub OD pairs: random distinct reachable pairs, demand ~ Zipf.
        let mut hubs = Vec::with_capacity(config.hub_pairs);
        while hubs.len() < config.hub_pairs {
            let a = NodeId(rng.gen_range(0..n_nodes));
            let b = NodeId(rng.gen_range(0..n_nodes));
            // Plain BFS reachability: only whether a path exists matters
            // here, not its length, so no SP lookup is spent on it.
            if a != b && bfs_reachable(&net, a, b) {
                hubs.push((a, b));
            }
        }
        let zipf = Zipf::new(config.hub_pairs.max(1), config.zipf_exponent);
        // Traffic-perception profiles: perceived edge costs per profile.
        let profiles: Vec<Vec<f64>> = (0..config.perception_profiles)
            .map(|_| {
                net.edge_ids()
                    .map(|e| {
                        let jitter = if config.perception_jitter > 0.0 {
                            1.0 + rng.gen_range(-config.perception_jitter..config.perception_jitter)
                        } else {
                            1.0
                        };
                        net.weight(e) * jitter
                    })
                    .collect()
            })
            .collect();
        let mut records = Vec::with_capacity(config.num_trajectories);
        let mut attempts = 0usize;
        let max_attempts = config.num_trajectories * 50 + 1000;
        while records.len() < config.num_trajectories && attempts < max_attempts {
            attempts += 1;
            let (origin, destination) = if rng.gen::<f64>() < config.hub_trip_fraction {
                hubs[zipf.sample(&mut rng)]
            } else {
                (
                    NodeId(rng.gen_range(0..n_nodes)),
                    NodeId(rng.gen_range(0..n_nodes)),
                )
            };
            let routed = if profiles.is_empty() {
                route_trip(&net, origin, destination, &config.routing, &mut rng)
            } else {
                let profile = &profiles[rng.gen_range(0..profiles.len())];
                crate::trips::route_trip_perceived(&net, origin, destination, profile)
            };
            let Some(path) = routed else {
                continue;
            };
            if path.len() < config.min_trip_edges {
                continue;
            }
            let weights: Vec<f64> = path.iter().map(|&e| net.weight(e)).collect();
            let seed = rng.gen::<u64>();
            let profile = MotionProfile::simulate(&weights, &config.motion, seed);
            records.push(TrajectoryRecord {
                path,
                profile,
                seed,
            });
        }
        Workload {
            net,
            sp,
            config,
            records,
        }
    }

    /// Spatial paths only (training input for HSC).
    pub fn paths(&self) -> Vec<Vec<press_network::EdgeId>> {
        self.records.iter().map(|r| r.path.clone()).collect()
    }

    /// Splits records into (training, evaluation) by a fraction, mimicking
    /// the paper's "trajectories corresponding to one day" training split.
    pub fn split(&self, train_fraction: f64) -> (&[TrajectoryRecord], &[TrajectoryRecord]) {
        let k = ((self.records.len() as f64) * train_fraction).round() as usize;
        let k = k.clamp(1, self.records.len().saturating_sub(1).max(1));
        self.records.split_at(k.min(self.records.len()))
    }

    /// Fraction of ground-truth samples (at the configured interval) where
    /// the vehicle is stationary — the paper reports ~10 % for its data.
    pub fn stationary_fraction(&self) -> f64 {
        let mut flat = 0usize;
        let mut total = 0usize;
        for r in &self.records {
            let pts = r.profile.sample(self.config.sampling_interval);
            for w in pts.windows(2) {
                total += 1;
                if w[1].d - w[0].d < 1e-9 {
                    flat += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            flat as f64 / total as f64
        }
    }
}

/// Serializes a GPS trajectory as CSV text (`x,y,t` lines, meter/second
/// precision as a fleet logger would emit) — the on-disk form real taxi
/// datasets ship in, and the input handed to the ZIP/RAR-like baselines
/// (the paper compresses its 13.2 GB raw dataset with off-the-shelf ZIP
/// and RAR).
pub fn gps_to_csv(gps: &GpsTrajectory) -> Vec<u8> {
    let mut out = String::with_capacity(gps.points.len() * 24);
    for p in &gps.points {
        use std::fmt::Write;
        let _ = writeln!(out, "{:.2},{:.2},{}", p.point.x, p.point.y, p.t as u64);
    }
    out.into_bytes()
}

/// Serializes a GPS trajectory into the raw byte layout of the paper's
/// storage model (x: f64, y: f64, t: u32 per point) — the input handed to
/// the ZIP/RAR-like baselines.
pub fn gps_to_bytes(gps: &GpsTrajectory) -> Vec<u8> {
    let mut out = Vec::with_capacity(gps.points.len() * 20);
    for p in &gps.points {
        out.extend_from_slice(&p.point.x.to_le_bytes());
        out.extend_from_slice(&p.point.y.to_le_bytes());
        out.extend_from_slice(&(p.t as u32).to_le_bytes());
    }
    out
}

/// Serializes a temporal sequence the same way (d: f32, t: u32).
pub fn temporal_to_bytes(points: &[DtPoint]) -> Vec<u8> {
    let mut out = Vec::with_capacity(points.len() * 8);
    for p in points {
        out.extend_from_slice(&(p.d as f32).to_le_bytes());
        out.extend_from_slice(&(p.t as u32).to_le_bytes());
    }
    out
}

/// Convenience: a small default network + workload for tests and examples.
pub fn default_test_workload(num_trajectories: usize, seed: u64) -> Workload {
    let net = Arc::new(press_network::grid_network(&press_network::GridConfig {
        nx: 10,
        ny: 10,
        spacing: 120.0,
        weight_jitter: 0.15,
        removal_prob: 0.03,
        seed,
    }));
    let sp = press_network::SpBackend::Dense.build(net.clone());
    Workload::generate(
        net,
        sp,
        WorkloadConfig {
            num_trajectories,
            seed,
            ..WorkloadConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        default_test_workload(60, 11)
    }

    #[test]
    fn generates_requested_count() {
        let w = small();
        assert_eq!(w.records.len(), 60);
        for r in &w.records {
            assert!(r.path.len() >= w.config.min_trip_edges);
            w.net.validate_path(&r.path).unwrap();
            assert!((r.profile.total_distance() - w.net.path_weight(&r.path)).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = default_test_workload(20, 3);
        let b = default_test_workload(20, 3);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.path, rb.path);
            assert_eq!(ra.profile, rb.profile);
        }
    }

    #[test]
    fn gps_traces_are_near_the_path() {
        let w = small();
        let r = &w.records[0];
        let gps = r.gps_trace(&w.net, 30.0, 8.0);
        assert_eq!(gps.len(), r.raw_point_count(30.0));
        let spath = SpatialPath::new_unchecked(r.path.clone());
        let samples = r.profile.sample(30.0);
        for (g, s) in gps.points.iter().zip(&samples) {
            let truth = spath.point_at(&w.net, s.d).unwrap();
            assert!(
                g.point.dist(&truth) < 8.0 * 6.0,
                "GPS noise implausibly large: {} m",
                g.point.dist(&truth)
            );
        }
        // Noise-free trace lies exactly on the path.
        let clean = r.gps_trace(&w.net, 30.0, 0.0);
        for (g, s) in clean.points.iter().zip(&samples) {
            let truth = spath.point_at(&w.net, s.d).unwrap();
            assert!(g.point.dist(&truth) < 1e-9);
        }
    }

    #[test]
    fn hub_demand_skews_route_popularity() {
        let w = small();
        // Count identical full paths; the Zipf hub demand should produce
        // repeated journeys.
        use std::collections::HashMap;
        let mut counts: HashMap<&[press_network::EdgeId], usize> = HashMap::new();
        for r in &w.records {
            *counts.entry(r.path.as_slice()).or_default() += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(
            max >= 3,
            "expected popular repeated routes, max repetition {max}"
        );
    }

    #[test]
    fn stationary_fraction_is_reasonable() {
        let w = small();
        let f = w.stationary_fraction();
        assert!(f > 0.0, "stops must appear");
        assert!(f < 0.6, "stops should not dominate: {f}");
    }

    #[test]
    fn split_partitions_records() {
        let w = small();
        let (train, eval) = w.split(0.25);
        assert_eq!(train.len() + eval.len(), w.records.len());
        assert!(!train.is_empty() && !eval.is_empty());
    }

    #[test]
    fn byte_serializers_have_fixed_layout() {
        let gps = GpsTrajectory {
            points: vec![GpsPoint {
                point: press_network::Point::new(1.0, 2.0),
                t: 3.0,
            }],
        };
        assert_eq!(gps_to_bytes(&gps).len(), 20);
        assert_eq!(
            temporal_to_bytes(&[DtPoint::new(1.0, 2.0), DtPoint::new(3.0, 4.0)]).len(),
            16
        );
    }
}
