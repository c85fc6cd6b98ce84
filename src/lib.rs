//! # press — PRESS: Paralleled Road-Network-Based Trajectory Compression
//!
//! A complete Rust implementation of the PRESS framework (Song, Sun,
//! Zheng & Zheng, VLDB 2014) and everything its evaluation depends on:
//! the road-network substrate, an HMM map matcher, the two published
//! baselines (MMTC, Nonmaterial), ZIP/RAR-like byte compressors, a
//! synthetic taxi workload, and an experiment harness regenerating every
//! table and figure of the paper (the experiment index is the crate
//! documentation of `press-bench`, `crates/bench/src/lib.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use press::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A road network and a shortest-path provider (static, per city).
//! //    `SpBackend::Dense` precomputes the O(|V|^2) table; at city scale
//! //    use `SpBackend::Hl` (hub labels) instead.
//! let net = Arc::new(grid_network(&GridConfig::default()));
//! let sp = SpBackend::Dense.build(net.clone());
//!
//! // 2. A trajectory corpus (here: synthetic; normally map-matched GPS).
//! let workload = Workload::generate(net.clone(), sp.clone(), WorkloadConfig {
//!     num_trajectories: 40,
//!     ..WorkloadConfig::default()
//! });
//!
//! // 3. Train PRESS on one "day" of trajectories.
//! let press = Press::train(sp, &workload.paths()[..20].to_vec(), PressConfig::default()).unwrap();
//!
//! // 4. Compress / decompress — spatially lossless, temporally bounded.
//! let trajectory = workload.records[25].truth_trajectory(30.0);
//! let compressed = press.compress(&trajectory).unwrap();
//! let restored = press.decompress(&compressed).unwrap();
//! assert_eq!(restored.path, trajectory.path);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`network`] | `press-network` | graph, geometry, Dijkstra, the three SP backends, generators |
//! | [`matcher`] | `press-matcher` | HMM map matching |
//! | [`core`] | `press-core` | representation, HSC, BTC, queries, the `Press` façade |
//! | [`serve`] | `press-serve` | fault-tolerant streaming fleet ingest (WAL, quarantine, recovery) |
//! | [`baselines`] | `press-baselines` | MMTC, Nonmaterial, zipx/rarx, simplification kit |
//! | [`workload`] | `press-workload` | synthetic taxi workload generator + query mixes |
//!
//! The end-to-end system narrative (GPS fix → WAL → sessions → matcher
//! → compressors → block store → synopsis index → query executor, plus
//! the SP backend tier) lives in `docs/ARCHITECTURE.md`; the normative
//! byte-level file formats are in `docs/FORMATS.md`.

pub use press_baselines as baselines;
pub use press_core as core;
pub use press_matcher as matcher;
pub use press_network as network;
pub use press_serve as serve;
pub use press_workload as workload;

/// The commonly-used types in one import.
pub mod prelude {
    pub use press_core::query::QueryEngine;
    pub use press_core::store::TrajectoryStore;
    pub use press_core::{
        btc_compress, nstd, reformat, tsnd, BtcBounds, CompressedTrajectory, Decomposer, DtPoint,
        GpsPoint, GpsTrajectory, HscModel, PathSample, Press, PressConfig, PressError, QueryBatch,
        SpatialPath, StoreAnswer, StoreQuery, TemporalSequence, Trajectory,
    };
    pub use press_matcher::{MapMatcher, MatcherConfig};
    pub use press_network::{
        grid_network, EdgeId, GridConfig, HubLabels, Mbr, NodeId, Point, RoadNetwork,
        RoadNetworkBuilder, SpBackend, SpProvider, SpTable,
    };
    pub use press_serve::{
        Ack, DurabilityPolicy, FaultPlan, IngestConfig, IngestEngine, QuarantineReason, ServeError,
        SessionPolicy,
    };
    pub use press_workload::{query_mix, QueryMixConfig, Workload, WorkloadConfig};
}
