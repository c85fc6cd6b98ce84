//! Huffman coding over Trie nodes (paper §3.2.3).
//!
//! Every Trie node (= every minable sub-trajectory, plus the zero-frequency
//! first-level edges) becomes one Huffman symbol, weighted by its frequency
//! in the training set: "the more frequent a node is, the shorter the code
//! is expected to be".
//!
//! Construction uses the classic two-queue method, which is `O(n)` after
//! sorting and — by preferring original leaves over merged nodes on weight
//! ties — produces a *minimum-depth* optimal tree. This matters here
//! because Tries routinely contain thousands of zero-frequency first-level
//! nodes; naive heap tie-breaking could chain them into a linear-depth
//! tree, while the two-queue method keeps the zero-weight part balanced
//! (depth `⌈log₂ k⌉`). Codes are then made *canonical* so encoding is a
//! table lookup and decoding is a per-length range check.
//!
//! Decoding peeks the next (up to) 64 bits once, left-justified in a
//! register. A code of at most `FAST_BITS` (11) bits — every popular
//! sub-trajectory — resolves with one table lookup on the register's top
//! bits; a longer one — the zero-frequency first-level edges — by
//! comparing the register against each length's canonical left-justified
//! limit (the end of that length's code range, shifted to the top of 64
//! bits), which needs no further read. Code lengths are at most 64, so
//! one peek covers every code.

use crate::error::{PressError, Result};
use crate::spatial::bits::{BitReader, BitWriter};
use serde::{Deserialize, Serialize};

/// Maximum supported code length. Realistic training frequencies stay far
/// below this (a length-65 code needs Fibonacci-like weights summing past
/// 10^13).
const MAX_CODE_LEN: usize = 64;

/// Width of the one-shot decode table: codes up to this many bits decode
/// with a single lookup; longer codes fall back to the per-length limits.
const FAST_BITS: usize = 11;

/// A canonical Huffman code book over symbols `0..n`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Huffman {
    /// Per-symbol `(code, length)`; code stored in the `length` low bits.
    codes: Vec<(u64, u8)>,
    /// `first_code[l]` — canonical code value of the first symbol of
    /// length `l`.
    first_code: Vec<u64>,
    /// `offset[l]` — index into `sym_by_code` of the first symbol of
    /// length `l`.
    offset: Vec<u32>,
    /// Count of symbols per length.
    count: Vec<u32>,
    /// Symbols sorted by (length, canonical order).
    sym_by_code: Vec<u32>,
    /// `limit[l]` — one past the last canonical code of length `l`,
    /// left-justified to 64 bits (so up to `2^64`): a 64-bit register
    /// holding the next bits, MSB-first, starts with a code of length `l`
    /// for the smallest `l` whose limit exceeds it.
    limit: Vec<u128>,
    max_len: usize,
    /// One-shot decode table, indexed by the next `FAST_BITS` bits
    /// (MSB-first): `(symbol, code length)`, length 0 = fall back to the
    /// limits. Rebuilt on construction, skipped by serde.
    #[serde(skip, default)]
    fast: Vec<(u32, u8)>,
}

impl Huffman {
    /// Builds a code book from per-symbol frequencies (zero frequencies are
    /// allowed and get the longest codes).
    pub fn from_freqs(freqs: &[u64]) -> Result<Self> {
        let n = freqs.len();
        if n == 0 {
            return Err(PressError::InvalidTraining(
                "cannot build a Huffman code over zero symbols".into(),
            ));
        }
        let mut lens = vec![0u8; n];
        if n == 1 {
            lens[0] = 1;
        } else {
            Self::assign_lengths(freqs, &mut lens)?;
        }
        Self::from_lengths(lens)
    }

    /// Two-queue construction of optimal code lengths.
    fn assign_lengths(freqs: &[u64], lens: &mut [u8]) -> Result<()> {
        let n = freqs.len();
        // Leaves sorted ascending by (freq, symbol) for determinism.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&s| (freqs[s as usize], s));
        // Tree nodes: 0..n leaves, then merged nodes. parent[] filled as we
        // merge; weight[] of merged nodes computed on the fly.
        let mut parent = vec![u32::MAX; 2 * n - 1];
        let mut merged_weight: Vec<u64> = Vec::with_capacity(n - 1);
        let mut q1 = 0usize; // cursor into `order`
        let mut q2 = 0usize; // cursor into merged nodes
        let weight_of = |idx: u32, merged: &[u64]| -> u64 {
            if (idx as usize) < n {
                freqs[order[idx as usize] as usize]
            } else {
                merged[idx as usize - n]
            }
        };
        for next_id in n as u32..(2 * n - 1) as u32 {
            // Pick the two smallest among queue fronts; prefer leaves on
            // ties (minimum-depth property).
            let pick = |q1: &mut usize, q2: &mut usize, merged: &[u64]| -> u32 {
                let leaf = (*q1 < n).then(|| freqs[order[*q1] as usize]);
                let node = (*q2 < merged.len()).then(|| merged[*q2]);
                match (leaf, node) {
                    (Some(lw), Some(nw)) if lw <= nw => {
                        *q1 += 1;
                        (*q1 - 1) as u32
                    }
                    (Some(_), None) => {
                        *q1 += 1;
                        (*q1 - 1) as u32
                    }
                    (_, Some(_)) => {
                        *q2 += 1;
                        (n + *q2 - 1) as u32
                    }
                    (None, None) => unreachable!("queues exhausted early"),
                }
            };
            let a = pick(&mut q1, &mut q2, &merged_weight);
            let b = pick(&mut q1, &mut q2, &merged_weight);
            let w = weight_of(a, &merged_weight).saturating_add(weight_of(b, &merged_weight));
            merged_weight.push(w);
            parent[a as usize] = next_id;
            parent[b as usize] = next_id;
        }
        // Depth of each leaf = code length. Compute merged-node depths top
        // down (ids increase towards the root, so iterate in reverse).
        let root = (2 * n - 2) as u32;
        let mut depth = vec![0u32; 2 * n - 1];
        for id in (0..2 * n - 2).rev() {
            let p = parent[id];
            debug_assert!(p != u32::MAX);
            depth[id] = depth[p as usize] + 1;
        }
        debug_assert_eq!(depth[root as usize], 0);
        for (i, &sym) in order.iter().enumerate() {
            let d = depth[i] as usize;
            if d > MAX_CODE_LEN {
                return Err(PressError::InvalidTraining(format!(
                    "Huffman code length {d} exceeds the supported maximum {MAX_CODE_LEN}"
                )));
            }
            lens[sym as usize] = d as u8;
        }
        Ok(())
    }

    /// Builds the code book from explicit per-symbol code lengths (must
    /// come from a prior [`Huffman`] — i.e. satisfy the Kraft equality).
    /// Used to reconstruct a decoder from a serialized header without
    /// shipping frequencies.
    pub fn from_code_lengths(lens: Vec<u8>) -> Result<Self> {
        if lens.is_empty() {
            return Err(PressError::InvalidTraining(
                "cannot build a Huffman code over zero symbols".into(),
            ));
        }
        Self::from_lengths(lens)
    }

    /// Per-symbol code lengths (serializable header for
    /// [`Huffman::from_code_lengths`]).
    pub fn code_lengths(&self) -> Vec<u8> {
        self.codes.iter().map(|&(_, l)| l).collect()
    }

    /// Builds the canonical code book from code lengths: a counting sort
    /// by length orders the symbols (ascending symbol within a length, as
    /// canonical codes are handed out), in one pass with the codes.
    fn from_lengths(lens: Vec<u8>) -> Result<Self> {
        let max_len = lens.iter().copied().max().unwrap_or(0) as usize;
        if max_len > MAX_CODE_LEN {
            return Err(PressError::InvalidTraining(format!(
                "Huffman code length {max_len} exceeds the supported maximum {MAX_CODE_LEN}"
            )));
        }
        let mut count = vec![0u32; max_len + 1];
        for &l in &lens {
            count[l as usize] += 1;
        }
        // Symbols of length 0 (none from a real build) sit at the front of
        // `sym_by_code`, before every offset, and get no code.
        let mut first_code = vec![0u64; max_len + 2];
        let mut offset = vec![0u32; max_len + 2];
        let mut limit = vec![0u128; max_len + 1];
        let mut code = 0u64;
        for l in 1..=max_len {
            code = code.wrapping_add(u64::from(count[l - 1])) << 1;
            first_code[l] = code;
            offset[l] = offset[l - 1] + count[l - 1];
            limit[l] = (u128::from(code) + u128::from(count[l])) << (64 - l);
        }
        let mut slot = offset.clone();
        let mut next = first_code.clone();
        let mut sym_by_code = vec![0u32; lens.len()];
        let mut codes = vec![(0u64, 0u8); lens.len()];
        for (sym, &l) in lens.iter().enumerate() {
            let l = l as usize;
            sym_by_code[slot[l] as usize] = sym as u32;
            slot[l] += 1;
            if l > 0 {
                codes[sym] = (next[l], l as u8);
                next[l] = next[l].wrapping_add(1);
            }
        }
        let mut huffman = Huffman {
            codes,
            first_code,
            offset,
            count,
            sym_by_code,
            limit,
            max_len,
            fast: Vec::new(),
        };
        huffman.build_fast_table();
        Ok(huffman)
    }

    /// Populates the one-shot decode table: for every `FAST_BITS`-bit
    /// prefix, the symbol whose code is a prefix of it (if that code is
    /// short enough).
    fn build_fast_table(&mut self) {
        let mut fast = vec![(0u32, 0u8); 1 << FAST_BITS];
        for (sym, &(code, len)) in self.codes.iter().enumerate() {
            let len_us = len as usize;
            if len == 0 || len_us > FAST_BITS {
                continue;
            }
            let shift = FAST_BITS - len_us;
            let base = (code << shift) as usize;
            for entry in &mut fast[base..base + (1 << shift)] {
                *entry = (sym as u32, len);
            }
        }
        self.fast = fast;
    }

    /// Code length of a symbol in bits.
    #[inline]
    pub fn code_len(&self, sym: u32) -> u8 {
        self.codes[sym as usize].1
    }

    /// Appends the code of `sym` to a bit writer.
    #[inline]
    pub fn encode_symbol(&self, sym: u32, out: &mut BitWriter) {
        let (code, len) = self.codes[sym as usize];
        out.push_code(code, len);
    }

    /// Decodes one symbol from the reader: one 64-bit peek, then a single
    /// table lookup for codes up to `FAST_BITS` bits (the overwhelmingly
    /// common case — popular sub-trajectories have short codes), or the
    /// first length whose canonical limit exceeds the peeked register for
    /// the rare long codes. A stream that ends inside a code, or bits no
    /// code starts with, is [`PressError::CorruptBitstream`].
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Result<u32> {
        let (peek, avail) = reader.peek_bits(64);
        if avail == 0 {
            return Err(PressError::CorruptBitstream(
                "bit stream ended mid-code".into(),
            ));
        }
        // The next bits at the top of the register, zeros past the end.
        let bits = peek << (64 - avail);
        if let Some(&(sym, len)) = self.fast.get((bits >> (64 - FAST_BITS)) as usize) {
            if len > 0 && u32::from(len) <= avail {
                reader.advance(u32::from(len));
                return Ok(sym);
            }
        }
        let Some(l) = (1..=self.max_len).find(|&l| u128::from(bits) < self.limit[l]) else {
            return Err(PressError::CorruptBitstream(
                if self.max_len > avail as usize {
                    "bit stream ended mid-code".into()
                } else {
                    "no symbol matches the read bits".into()
                },
            ));
        };
        if l > avail as usize {
            return Err(PressError::CorruptBitstream(
                "bit stream ended mid-code".into(),
            ));
        }
        let index = (bits >> (64 - l)).wrapping_sub(self.first_code[l]);
        if index >= u64::from(self.count[l]) {
            return Err(PressError::CorruptBitstream(
                "no symbol matches the read bits".into(),
            ));
        }
        reader.advance(l as u32);
        Ok(self.sym_by_code[(u64::from(self.offset[l]) + index) as usize])
    }

    /// Weighted average code length in bits given the training frequencies
    /// (entropy-adjacent diagnostic).
    pub fn average_code_len(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let bits: f64 = freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f as f64 * self.code_len(s as u32) as f64)
            .sum();
        bits / total as f64
    }

    /// In-memory footprint in bytes (§6.2 auxiliary report): every table
    /// the code book keeps, the one-shot decode table included.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.codes.len() * size_of::<(u64, u8)>()
            + self.first_code.len() * size_of::<u64>()
            + (self.offset.len() + self.count.len() + self.sym_by_code.len()) * size_of::<u32>()
            + self.limit.len() * size_of::<u128>()
            + self.fast.len() * size_of::<(u32, u8)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(freqs: &[u64], symbols: &[u32]) {
        let h = Huffman::from_freqs(freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            h.encode_symbol(s, &mut w);
        }
        let stream = w.finish();
        let mut r = stream.reader();
        for &s in symbols {
            assert_eq!(h.decode_symbol(&mut r).unwrap(), s);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn single_symbol() {
        let h = Huffman::from_freqs(&[5]).unwrap();
        assert_eq!(h.code_len(0), 1);
        roundtrip(&[5], &[0, 0, 0]);
    }

    #[test]
    fn empty_alphabet_is_error() {
        assert!(Huffman::from_freqs(&[]).is_err());
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let freqs = [100, 1, 1, 1, 1, 1, 1, 1];
        let h = Huffman::from_freqs(&freqs).unwrap();
        for s in 1..8 {
            assert!(
                h.code_len(0) <= h.code_len(s),
                "sym 0 (freq 100) must not be longer than sym {s}"
            );
        }
    }

    #[test]
    fn prefix_free_property() {
        let freqs = [7, 3, 3, 2, 1, 1, 0, 0, 5];
        let h = Huffman::from_freqs(&freqs).unwrap();
        let codes: Vec<(u64, u8)> = (0..freqs.len() as u32)
            .map(|s| h.codes[s as usize])
            .collect();
        for (i, &(ca, la)) in codes.iter().enumerate() {
            for (j, &(cb, lb)) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let l = la.min(lb);
                assert!(
                    ca >> (la - l) != cb >> (lb - l),
                    "codes {i} and {j} share a prefix"
                );
            }
        }
    }

    #[test]
    fn kraft_equality_holds() {
        // An optimal prefix code over n >= 2 symbols satisfies
        // sum(2^-len) == 1.
        let freqs = [9, 8, 7, 1, 1, 0, 4, 4, 2];
        let h = Huffman::from_freqs(&freqs).unwrap();
        let kraft: f64 = (0..freqs.len() as u32)
            .map(|s| 2f64.powi(-(h.code_len(s) as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft sum {kraft}");
    }

    #[test]
    fn optimality_matches_entropy_bound() {
        let freqs = [40, 30, 20, 10];
        let h = Huffman::from_freqs(&freqs).unwrap();
        let total: f64 = 100.0;
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = f as f64 / total;
                -p * p.log2()
            })
            .sum();
        let avg = h.average_code_len(&freqs);
        assert!(avg >= entropy - 1e-9);
        assert!(avg < entropy + 1.0, "avg {avg} entropy {entropy}");
    }

    #[test]
    fn many_zero_freq_symbols_stay_shallow() {
        // 1000 unused symbols + a few used ones: the zero-weight portion
        // must form a balanced subtree, not a linear chain.
        let mut freqs = vec![0u64; 1000];
        freqs.extend_from_slice(&[50, 30, 20]);
        let h = Huffman::from_freqs(&freqs).unwrap();
        let max = (0..freqs.len() as u32)
            .map(|s| h.code_len(s))
            .max()
            .unwrap();
        assert!(max as usize <= 2 * 11 + 3, "max code length {max} too deep");
        roundtrip(&freqs, &[1000, 1001, 1002, 0, 999, 1000]);
    }

    #[test]
    fn roundtrip_mixed_stream() {
        let freqs = [5, 0, 9, 2, 2, 7, 1];
        roundtrip(&freqs, &[0, 2, 5, 6, 1, 3, 4, 2, 2, 2, 0]);
    }

    #[test]
    fn decode_truncated_stream_errors() {
        let freqs = [5, 4, 3, 2, 1];
        let h = Huffman::from_freqs(&freqs).unwrap();
        // Find a symbol with a code longer than 1 bit and truncate it.
        let sym = (0..5u32).find(|&s| h.code_len(s) >= 2).unwrap();
        let mut w = BitWriter::new();
        let (code, len) = h.codes[sym as usize];
        w.push_code(code >> 1, len - 1); // drop the last bit
        let stream = w.finish();
        assert!(h.decode_symbol(&mut stream.reader()).is_err());
    }

    #[test]
    fn deterministic_across_builds() {
        let freqs = [3, 3, 3, 3, 2, 2, 8];
        let a = Huffman::from_freqs(&freqs).unwrap();
        let b = Huffman::from_freqs(&freqs).unwrap();
        for s in 0..freqs.len() as u32 {
            assert_eq!(a.codes[s as usize], b.codes[s as usize]);
        }
    }

    /// `approx_bytes` is every resident table, the 2,048-entry one-shot
    /// decode table (16 KiB) included.
    #[test]
    fn approx_bytes_is_the_resident_layout() {
        use std::mem::size_of;
        let h = Huffman::from_freqs(&[1, 2, 3]).unwrap();
        assert_eq!(h.code_lengths(), vec![2, 2, 1]);
        let (n, max_len) = (3, 2);
        let fast = (1 << FAST_BITS) * size_of::<(u32, u8)>();
        assert_eq!(fast, 16 * 1024);
        assert_eq!(
            h.approx_bytes(),
            n * size_of::<(u64, u8)>()
                + (max_len + 2) * size_of::<u64>()
                + ((max_len + 2) + (max_len + 1) + n) * size_of::<u32>()
                + (max_len + 1) * size_of::<u128>()
                + fast
        );
    }

    /// Encodes `symbols` under `h` and decodes them back one by one.
    fn roundtrip_book(h: &Huffman, symbols: impl Iterator<Item = u32> + Clone) {
        let mut w = BitWriter::new();
        for s in symbols.clone() {
            h.encode_symbol(s, &mut w);
        }
        let stream = w.finish();
        let mut r = stream.reader();
        for s in symbols {
            assert_eq!(h.decode_symbol(&mut r).unwrap(), s, "symbol {s}");
        }
        assert!(r.is_exhausted());
    }

    /// A Trie-sized book: 24,000 symbols, 18,000 of them never seen —
    /// the zero-frequency first-level edges — so thousands of codes are
    /// longer than the one-shot table and decode through the limits.
    fn large_book() -> (Vec<u64>, Huffman) {
        let freqs: Vec<u64> = (0..24_000u64)
            .map(|s| if s % 4 == 0 { s * 7919 % 1000 + 1 } else { 0 })
            .collect();
        let h = Huffman::from_freqs(&freqs).unwrap();
        (freqs, h)
    }

    #[test]
    fn a_large_book_with_thousands_of_unseen_symbols_roundtrips() {
        let (freqs, h) = large_book();
        let long = (0..freqs.len() as u32)
            .filter(|&s| usize::from(h.code_len(s)) > FAST_BITS)
            .count();
        assert!(long > 10_000, "{long} long codes");
        // Every symbol, in an order that interleaves short and long codes
        // and lands codes across every word offset.
        let n = freqs.len() as u32;
        roundtrip_book(&h, (0..n).map(|i| i.wrapping_mul(7_919) % n));
    }

    #[test]
    fn every_strict_prefix_of_a_long_code_is_a_corrupt_stream() {
        let (freqs, h) = large_book();
        let mut checked = 0;
        for sym in 0..freqs.len() as u32 {
            let (code, len) = h.codes[sym as usize];
            if usize::from(len) <= FAST_BITS {
                continue;
            }
            for cut in 1..len {
                let mut w = BitWriter::new();
                w.push_code(code >> (len - cut), cut);
                let stream = w.finish();
                assert!(
                    matches!(
                        h.decode_symbol(&mut stream.reader()),
                        Err(PressError::CorruptBitstream(_))
                    ),
                    "symbol {sym} cut at {cut} of {len} bits"
                );
                checked += 1;
            }
        }
        assert!(checked > 100_000, "{checked} prefixes");
    }

    /// Lengths 1..=63 plus 64, 64 fill the code space exactly; the codes
    /// past the 57 bits a byte-refilled reader could peek decode like any
    /// other, after any lead, and each one cut short is corrupt.
    #[test]
    fn a_book_reaching_64_bit_codes_decodes_every_symbol() {
        let mut lens: Vec<u8> = (1..=63).chain([64, 64]).collect();
        // Not in length order: symbol `s` gets the `(s * 23) % 65`-th length.
        lens = (0..65).map(|s| lens[s * 23 % 65]).collect();
        let h = Huffman::from_code_lengths(lens.clone()).unwrap();
        assert_eq!(h.code_lengths(), lens);
        for lead in [0u32, 1, 31, 63] {
            let mut w = BitWriter::new();
            for i in 0..lead {
                w.push_bit(i % 2 == 0);
            }
            for s in 0..65u32 {
                h.encode_symbol(s, &mut w);
            }
            let stream = w.finish();
            let mut r = stream.reader();
            r.advance(lead);
            for s in 0..65u32 {
                assert_eq!(h.decode_symbol(&mut r).unwrap(), s, "lead {lead}");
            }
            assert!(r.is_exhausted());
        }
        for s in 0..65u32 {
            let (code, len) = h.codes[s as usize];
            let mut w = BitWriter::new();
            w.push_code(code >> 1, len - 1);
            assert!(h.decode_symbol(&mut w.finish().reader()).is_err(), "{s}");
        }
        assert!(Huffman::from_code_lengths(vec![65, 1]).is_err());
    }
}
