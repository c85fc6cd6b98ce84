//! # press-network
//!
//! Road-network substrate for the PRESS trajectory-compression framework
//! (Song et al., VLDB 2014). A road network is a directed graph
//! `G = (V, E)` with planar node embeddings and weighted edges (§2 of the
//! paper). This crate provides:
//!
//! * strongly-typed ids ([`NodeId`], [`EdgeId`]),
//! * a planar [geometry](mod@crate::geometry) kit (points, projections, MBRs),
//! * the immutable [`RoadNetwork`] graph with CSR adjacency,
//! * [Dijkstra](mod@crate::dijkstra) shortest paths with deterministic
//!   tie-breaking,
//! * the [`SpProvider`] abstraction over the paper's `SP(ei, ej)` /
//!   `SPend(ei, ej)` structures (§3.1), with two interchangeable
//!   backends — the eager dense [`SpTable`] and the 2-hop [`HubLabels`]
//!   built from a contraction-hierarchy order — selected by
//!   [`SpBackend`],
//! * a uniform-grid [spatial index](crate::index) over edges for the map
//!   matcher's candidate radius, and
//! * [synthetic generators](crate::generators) (grid, random geometric)
//!   standing in for the Singapore road network.
//!
//! ## Choosing an SP backend
//!
//! The dense [`SpTable`] stores `O(|V|²)` distances/predecessors for
//! `O(1)` lookups — the correctness oracle and the small-grid default,
//! impossible at city scale (100k nodes ≈ 120 GB). The [`HubLabels`]
//! backend first contracts the network into a node hierarchy — batched
//! independent-set contraction spreads the one-time build over every
//! core, bit-identically for any thread count; the contraction is only
//! the labels' builder, not a provider — then precomputes every node's
//! exhaustive upward searches into per-node label arrays, and answers
//! random point lookups in microseconds by a flat label scan — the
//! backend at city scale. Both derive from the same canonical
//! shortest-path trees, so results are bit-identical; pick with
//! [`SpBackend`] based on network size and RAM.
//! Everything downstream (map matcher, compressors, query processor,
//! baselines, workload generator) consumes the trait, not a concrete
//! backend.

#![deny(clippy::undocumented_unsafe_blocks)]

mod ch;
pub mod dijkstra;
pub mod error;
pub mod generators;
pub mod geometry;
pub mod graph;
pub mod hub_labels;
pub mod id;
pub mod index;
pub mod parallel;
pub mod provider;
pub mod sp_table;
mod store_codec;

pub use dijkstra::{
    dijkstra, dijkstra_bounded, dijkstra_sparse, dijkstra_with, reverse_distances,
    ShortestPathTree, SparseTree,
};
pub use error::NetworkError;
pub use generators::{grid_network, random_geometric_network, GridConfig, RandomGeometricConfig};
pub use geometry::{
    dist_point_to_segment, dist_segment_to_segment, point_along_polyline, polyline_length,
    project_onto_segment, segments_intersect, Mbr, Point, Projection,
};
pub use graph::{Edge, Node, RoadNetwork, RoadNetworkBuilder};
pub use hub_labels::HubLabels;
pub use id::{EdgeId, NodeId};
pub use index::{EdgeSpatialIndex, IndexError};
pub use provider::{SpBackend, SpProvider};
pub use sp_table::SpTable;
