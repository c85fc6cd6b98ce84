//! # press-workload
//!
//! Synthetic trajectory workload generator standing in for the Singapore
//! taxi dataset of the PRESS paper (465k trajectories, January 2011 — not
//! publicly available). The generator reproduces the statistical
//! properties the PRESS algorithms exploit:
//!
//! * trips follow **mostly shortest paths** with occasional detours
//!   ([`trips`]) → SP compression has bite;
//! * origin–destination demand is **Zipf-skewed** over hub pairs
//!   ([`zipf`]) → frequent sub-trajectories exist for FST mining;
//! * vehicles **dwell** at intersections (taxi stands, lights) and cruise
//!   at per-edge speeds ([`motion`]) → ~10 % stationary samples, giving
//!   BTC ratio > 1 even at zero tolerance;
//! * GPS traces derive from a continuous motion profile, so the **same
//!   journey** can be re-sampled at any interval or noise level
//!   ([`dataset`]) — required by the paper's sampling-rate sweep
//!   (Fig. 10(a)).
pub mod dataset;
pub mod motion;
pub mod queries;
pub mod trips;
pub mod zipf;

pub use dataset::{
    default_test_workload, gps_to_bytes, gps_to_csv, temporal_to_bytes, TrajectoryRecord, Workload,
    WorkloadConfig,
};
pub use motion::{MotionConfig, MotionProfile};
pub use queries::{query_mix, QueryMixConfig};
pub use trips::{route_trip, RoutingConfig};
pub use zipf::Zipf;
