//! Bounded Temporal Compression (BTC) — paper §4.
//!
//! * [`metrics`] — the TSND and NSTD error metrics (Definitions 1–2) and
//!   the `Dis`/`Tim` interpolation functions.
//! * [`btc`] — the `O(|T|)` angular-range compressor (Algorithm 3): one
//!   forward loop, [`btc_compress`], with O(1) state.
//! * [`bopw`] — the `O(|T|²)` opening-window reference it must match.
//!
//! Compressed temporal sequences keep the `(d, t)` tuple format, so — as
//! the paper stresses — **no temporal decompression step exists**.

pub mod bopw;
pub mod btc;
pub mod metrics;

pub use bopw::{bopw_compress, bopw_compress_counted};
pub use btc::{btc_compress, BtcBounds};
pub use metrics::{dis_at, nstd, tim_at, tsnd};
