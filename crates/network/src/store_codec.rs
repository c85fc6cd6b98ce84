//! Flat section codecs of the hub-label artifact (`sp_hl.press`).
//!
//! The artifact stores every array as one fixed-width little-endian
//! section (the `*_f` family), written through
//! [`press_store::StoreWriter::section_aligned`] so that every load
//! borrows it in place as a `FlatSlice` — out of the file mapping for a
//! mapped open, out of the aligned arena for a bytes load — one encoding,
//! one reader. The sections carry no redundancy beyond their CRC, so the
//! reader validates shape as it goes; the generic checks live here, and a
//! violation is a typed
//! [`press_store::StoreError::Corrupt`], never a panic.

use crate::graph::RoadNetwork;
use press_store::{Result, StoreError};

/// CRC32 fingerprint of a network's full edge set (from, to, weight bit
/// pattern per edge), recorded in the artifact's `meta` at save time.
/// Checked at open time before any payload is touched, it refuses a
/// network with a different edge set in one message, instead of at
/// whichever arc of `arcs_f` happens to differ first.
pub(crate) fn edge_fingerprint(net: &RoadNetwork) -> u32 {
    let mut buf = Vec::with_capacity(net.num_edges() * 16);
    for e in net.edge_ids() {
        let edge = net.edge(e);
        buf.extend_from_slice(&edge.from.0.to_le_bytes());
        buf.extend_from_slice(&edge.to.0.to_le_bytes());
        buf.extend_from_slice(&edge.weight.to_bits().to_le_bytes());
    }
    press_store::crc32(&buf)
}

/// Checks the `meta` fields the artifact opens with against the network
/// it is opened over: the edge fingerprint `fp`, the node count `n`,
/// and `num_arcs = |E| + num_shortcuts`.
pub(crate) fn check_meta(
    net: &RoadNetwork,
    fp: u32,
    n: usize,
    num_arcs: usize,
    num_shortcuts: usize,
) -> Result<()> {
    if fp != edge_fingerprint(net) {
        return Err(StoreError::Corrupt(
            "labeling was built over a network with a different edge set \
             (weight fingerprint mismatch)"
                .into(),
        ));
    }
    if n != net.num_nodes() {
        return Err(StoreError::Corrupt(format!(
            "labeling covers {n} nodes but the network has {}",
            net.num_nodes()
        )));
    }
    if num_arcs < net.num_edges() || num_arcs - net.num_edges() != num_shortcuts {
        return Err(StoreError::Corrupt(format!(
            "arc count {num_arcs} inconsistent with {} original edges + {num_shortcuts} shortcuts",
            net.num_edges()
        )));
    }
    Ok(())
}

/// Encodes a `u32` array as raw fixed-width little-endian values.
pub(crate) fn encode_u32s_flat(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an `f64` array as raw little-endian IEEE-754 bit patterns.
pub(crate) fn encode_f64s_flat(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Validates the shape of a flat CSR index: exactly `len` entries,
/// starting at 0, monotone non-decreasing, ending at `total` (the length
/// of the array it points into).
pub(crate) fn check_flat_index(index: &[u32], len: usize, total: u64, what: &str) -> Result<()> {
    if index.len() != len {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} entries instead of the declared {len}",
            index.len()
        )));
    }
    if index[0] != 0 {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index does not start at 0"
        )));
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index is not monotone"
        )));
    }
    if index[len - 1] as u64 != total {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index covers {} entries but the payload has {total}",
            index[len - 1]
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `bytes` with section `name`'s payload replaced by `payload`, every
    /// CRC valid and every aligned section still 8-byte aligned.
    pub(crate) fn with_section(bytes: &[u8], name: &str, payload: Vec<u8>) -> Vec<u8> {
        let file = press_store::StoreFile::from_bytes(bytes.to_vec()).unwrap();
        let mut payload = Some(payload);
        file.rewrite_sections(|nm, p| {
            Some(if nm == name {
                payload.take().unwrap()
            } else {
                p.to_vec()
            })
        })
        .unwrap()
    }

    /// Section `name` of `bytes` read as little-endian `u32`s.
    pub(crate) fn section_u32s(bytes: &[u8], name: &str) -> Vec<u32> {
        let file = press_store::StoreFile::from_bytes(bytes.to_vec()).unwrap();
        file.section(name)
            .unwrap()
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    /// The bytes (`from_store_bytes`) and the mapped (`open_mapped`)
    /// verdict on `bytes`: the error, or `None` when the load succeeds.
    pub(crate) fn verdicts<T>(
        bytes: &[u8],
        from_bytes: impl FnOnce(Vec<u8>) -> Result<T>,
        mapped: impl FnOnce(&std::path::Path) -> Result<T>,
    ) -> (Option<StoreError>, Option<StoreError>) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "press-verdict-{}-{}.press",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let mapped = mapped(&path).err();
        std::fs::remove_file(&path).unwrap();
        (from_bytes(bytes.to_vec()).err(), mapped)
    }

    #[test]
    fn flat_encodings_are_fixed_width_le() {
        assert_eq!(
            encode_u32s_flat(&[1, 0x01020304]),
            [1, 0, 0, 0, 0x04, 0x03, 0x02, 0x01]
        );
        assert_eq!(encode_f64s_flat(&[1.0]), 1.0f64.to_bits().to_le_bytes());
    }

    #[test]
    fn flat_index_shape_checks() {
        assert!(check_flat_index(&[0, 2, 2, 5], 4, 5, "t").is_ok());
        // Wrong length, nonzero start, non-monotone, wrong total: all typed.
        assert!(check_flat_index(&[0, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[1, 2, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[0, 3, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[0, 2, 2, 4], 4, 5, "t").is_err());
    }
}
