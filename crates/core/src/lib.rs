//! # press-core
//!
//! Core of the PRESS framework (Song et al., VLDB 2014): trajectory
//! representation (§2), Hybrid Spatial Compression (§3), Bounded Temporal
//! Compression (§4), the query processor over compressed trajectories (§5),
//! and the end-to-end [`press::Press`] façade with storage accounting.

pub mod batch;
pub mod error;
pub mod press;
pub mod query;

/// The shared work-stealing parallel map. The loop itself lives in
/// `press-network` (the lowest compute crate, so the hub-label builder can
/// share it); this alias keeps the historical `press_core::parallel` path
/// working for batch compression and HSC corpus training call sites.
pub use press_network::parallel;
pub mod record;
pub mod reformat;
pub mod spatial;
pub mod stats;
pub mod store;
pub mod temporal;
pub mod types;

pub use batch::{QueryBatch, StoreAnswer, StoreQuery};
pub use error::{PressError, Result};
pub use press::{CompressedTrajectory, Press, PressConfig};
pub use reformat::{reformat, PathSample};
pub use spatial::{CompressedSpatial, Decomposer, HscModel};
pub use store::TrajectoryStore;
pub use temporal::{btc_compress, nstd, tsnd, BtcBounds};
pub use types::{DtPoint, GpsPoint, GpsTrajectory, SpatialPath, TemporalSequence, Trajectory};
