//! One module per evaluation artifact of the paper's §6 (the experiment
//! index is the crate documentation, `crates/bench/src/lib.rs`).

pub mod comparative;
pub mod misc;
pub mod queryperf;
pub mod sweeps;

pub use comparative::{fig13, fig14, zip_rar_reference};
pub use misc::{aux_sizes, btc_vs_bopw, stored_form, train_size};
pub use queryperf::{fig15, fig16, fig17};
pub use sweeps::{fig10a, fig10b, fig11, fig12a, fig12b};
