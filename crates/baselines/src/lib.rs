//! # press-baselines
//!
//! Every comparator of the PRESS paper's evaluation (§6), built from
//! scratch:
//!
//! * [`mmtc`] — Map-Matched Trajectory Compression (Kellaris et al., JSS
//!   2013): replaces sub-paths with fewer-intersection alternatives;
//!   lossy, no decompression, slow — the paper measures it at ~196× the
//!   compression time of PRESS.
//! * [`nonmaterial`] — Nonmaterialized motion information (Cao & Wolfson,
//!   ICDT'05): street sequence + intersection timestamps under a
//!   uniform-speed assumption.
//! * [`zipx`] / [`rarx`] — from-scratch stand-ins for the off-the-shelf
//!   ZIP and RAR binaries (LZ77+Huffman; RAR-like adds a bigger window and
//!   order-1 context modelling, preserving the paper's ZIP < RAR ratio
//!   ordering). [`lz`] holds the shared sliding-window machinery.
pub mod lz;
pub mod mmtc;
pub mod nonmaterial;
pub mod rarx;
pub mod zipx;

pub use mmtc::{MmtcConfig, MmtcTrajectory};
pub use nonmaterial::{NonmaterialConfig, NonmaterialTrajectory};
