//! Hybrid Spatial Compression (HSC) — paper §3.
//!
//! Two lossless stages:
//! 1. [`sp`] — shortest-path compression (Algorithm 1): sub-trajectories
//!    that coincide with shortest paths collapse to their end edges. One
//!    loop, `sp_scan`, serves both [`sp_compress`] and
//!    [`HscModel::compress`].
//! 2. FST coding (§3.2): a [`trie`] of frequent sub-trajectories mined from
//!    a training corpus, an [`ac`] Aho–Corasick automaton decomposing each
//!    trajectory into trie entries (Algorithm 2; [`decompose`] holds the
//!    DP-optimal baseline), and a [`huffman`] code assigning short codes to
//!    popular entries, emitted into [`bits`] streams.
//!
//! [`hsc`] glues the stages into the trained [`HscModel`].

pub mod ac;
pub mod bits;
pub mod decompose;
#[cfg(test)]
mod gap_run_tests;
pub mod hsc;
pub mod huffman;
#[cfg(test)]
pub(crate) mod node_link_tests;
pub mod sp;
#[cfg(test)]
mod spend_tests;
pub mod trie;

pub use ac::AcAutomaton;
pub use bits::{BitReader, BitStream, BitWriter};
pub use decompose::{decompose_dp, decomposition_bits};
pub use hsc::{AuxiliarySizes, CompressedSpatial, Decomposer, HscModel};
pub use huffman::Huffman;
pub use sp::{sp_compress, sp_decompress};
pub use trie::{node_to_symbol, symbol_to_node, Trie, TrieNodeId};
