//! # press-bench
//!
//! Experiment harness reproducing every table and figure of the PRESS
//! paper's evaluation (§6) on the synthetic workload. The `repro` binary
//! prints the same rows/series the paper plots. Performance numbers are
//! not this crate's job: `press-benchmark` (`benchmark/`) measures them.
//!
//! Experiment index:
//!
//! | id | function | paper artifact |
//! |----|----------|----------------|
//! | fig10a | [`experiments::fig10a`] | SP ratio vs sampling rate |
//! | fig10b | [`experiments::fig10b`] | FST ratio vs θ |
//! | fig11  | [`experiments::fig11`]  | greedy vs DP decomposition |
//! | fig12a | [`experiments::fig12a`] | BTC ratio vs τ × η |
//! | fig12b | [`experiments::fig12b`] | PRESS ratio vs τ × η |
//! | fig13  | [`experiments::fig13`]  | comp/decomp time vs dataset size |
//! | fig14  | [`experiments::fig14`]  | ratio vs TSED (+ ZIP/RAR) |
//! | fig15  | [`experiments::fig15`]  | whereat time ratio |
//! | fig16  | [`experiments::fig16`]  | whenat time ratio |
//! | fig17  | [`experiments::fig17`]  | range accuracy/time |
//! | aux    | [`experiments::aux_sizes`], [`experiments::stored_form`] | auxiliary structure sizes; byte model vs stored bytes |
//! | extra  | [`experiments::train_size`], [`experiments::btc_vs_bopw`] | ablations |

pub mod experiments;
pub mod setup;
pub mod table;

pub use setup::{Env, Scale, StoreMode};
pub use table::Table;
