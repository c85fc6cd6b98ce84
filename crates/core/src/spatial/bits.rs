//! Bit-level stream used by the FST/Huffman codec (§3.2.3).
//!
//! The compressed spatial form of a trajectory is a sequence of Huffman
//! codes packed back-to-back; the stream records its exact bit length so
//! decoding knows where to stop (Huffman codes are self-delimiting given an
//! exact bit count).

use serde::{Deserialize, Serialize};

/// An immutable, exactly-sized bit string.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitStream {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitStream {
    /// Number of bits in the stream.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// True when the stream holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Storage size in whole bytes (the paper's unit for spatial storage
    /// cost after FST coding).
    pub fn byte_len(&self) -> usize {
        self.len_bits.div_ceil(8) as usize
    }

    /// Bit at position `i` (0-based, stream order).
    #[inline]
    pub fn bit(&self, i: u64) -> bool {
        debug_assert!(i < self.len_bits);
        let word = self.words[(i / 64) as usize];
        (word >> (i % 64)) & 1 == 1
    }

    /// Reader positioned at the start of the stream.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            stream: self,
            pos: 0,
        }
    }

    /// Serializes the payload to little-endian bytes (exactly
    /// [`BitStream::byte_len`] of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(self.byte_len());
        out
    }

    /// Rebuilds a stream from bytes produced by [`BitStream::to_bytes`]
    /// plus the exact bit length.
    pub fn from_bytes(bytes: &[u8], len_bits: u64) -> Self {
        let mut stream = BitStream::default();
        stream.refill_from_bytes(bytes, len_bits);
        stream
    }

    /// [`BitStream::from_bytes`] into this stream, reusing its word
    /// buffer: a reader that decodes stream after stream keeps one.
    pub(crate) fn refill_from_bytes(&mut self, bytes: &[u8], len_bits: u64) {
        assert!(
            len_bits.div_ceil(8) as usize <= bytes.len(),
            "byte payload shorter than the declared bit length"
        );
        self.words.clear();
        self.words.reserve(bytes.len().div_ceil(8));
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(w));
        }
        self.len_bits = len_bits;
    }
}

/// Append-only bit writer producing a [`BitStream`].
#[derive(Default, Debug)]
pub struct BitWriter {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with capacity for about `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len_bits: 0,
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let word_idx = (self.len_bits / 64) as usize;
        if word_idx == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word_idx] |= 1u64 << (self.len_bits % 64);
        }
        self.len_bits += 1;
    }

    /// Appends the `len` low bits of `code`, most-significant first —
    /// matching the "walk the Huffman tree from the root" convention.
    pub fn push_code(&mut self, code: u64, len: u8) {
        debug_assert!(len as u32 <= 64);
        if len == 0 {
            return;
        }
        let len = u32::from(len);
        // Stream bits sit LSB-first inside a word, so the code goes in
        // reversed: bit `i` of `rev` is the `i`-th bit emitted.
        let rev = code.reverse_bits() >> (64 - len);
        let word_idx = (self.len_bits / 64) as usize;
        let off = (self.len_bits % 64) as u32;
        if word_idx == self.words.len() {
            self.words.push(0);
        }
        self.words[word_idx] |= rev << off;
        if off + len > 64 {
            self.words.push(rev >> (64 - off));
        }
        self.len_bits += u64::from(len);
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Finalizes into an immutable stream.
    pub fn finish(self) -> BitStream {
        BitStream {
            words: self.words,
            len_bits: self.len_bits,
        }
    }
}

/// Sequential reader over a [`BitStream`].
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    stream: &'a BitStream,
    pos: u64,
}

impl BitReader<'_> {
    /// Reads the next bit; `None` at end of stream.
    #[inline]
    pub fn next_bit(&mut self) -> Option<bool> {
        if self.pos >= self.stream.len_bits {
            return None;
        }
        let b = self.stream.bit(self.pos);
        self.pos += 1;
        Some(b)
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.stream.len_bits - self.pos
    }

    /// True when all bits are consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current position in bits.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Peeks up to `k` bits ahead (`k ≤ 64`) without consuming them,
    /// MSB-first (matching [`BitWriter::push_code`]'s emission order).
    /// Returns the peeked value and how many bits were actually available.
    ///
    /// Word-level extraction: stream bits are laid out LSB-first inside
    /// 64-bit words, so a shifted two-word read yields the next 64 bits in
    /// stream order at bit positions 0.., and one `reverse_bits` converts
    /// to the MSB-first code convention.
    pub fn peek_bits(&self, k: u32) -> (u64, u32) {
        debug_assert!(k <= 64);
        let avail = (self.stream.len_bits - self.pos).min(u64::from(k)) as u32;
        if avail == 0 {
            return (0, 0);
        }
        let word_idx = (self.pos / 64) as usize;
        let off = (self.pos % 64) as u32;
        let w0 = self.stream.words[word_idx] >> off;
        let chunk = if off == 0 {
            w0
        } else {
            match self.stream.words.get(word_idx + 1) {
                Some(&w1) => w0 | (w1 << (64 - off)),
                None => w0,
            }
        };
        // chunk bit i == stream bit (pos + i); make it MSB-first.
        let v = chunk.reverse_bits() >> (64 - avail);
        (v, avail)
    }

    /// Consumes `k` bits (must not exceed the remaining count).
    pub fn advance(&mut self, k: u32) {
        debug_assert!(u64::from(k) <= self.remaining());
        self.pos += u64::from(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        let s = w.finish();
        assert_eq!(s.len_bits(), 7);
        assert_eq!(s.byte_len(), 1);
        let mut r = s.reader();
        for &b in &pattern {
            assert_eq!(r.next_bit(), Some(b));
        }
        assert_eq!(r.next_bit(), None);
        assert!(r.is_exhausted());
    }

    #[test]
    fn push_code_is_msb_first() {
        let mut w = BitWriter::new();
        w.push_code(0b101, 3);
        let s = w.finish();
        assert!(s.bit(0));
        assert!(!s.bit(1));
        assert!(s.bit(2));
    }

    #[test]
    fn push_code_equals_bit_by_bit_at_every_offset_and_length() {
        for lead in 0..70u32 {
            for len in 0..=64u8 {
                let code = 0x9e37_79b9_7f4a_7c15u64.rotate_left(lead + u32::from(len));
                let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                for w in [&mut fast, &mut slow] {
                    for i in 0..lead {
                        w.push_bit(i % 3 == 0);
                    }
                }
                fast.push_code(code, len);
                for i in (0..len).rev() {
                    slow.push_bit((code >> i) & 1 == 1);
                }
                // And whatever follows lands after it.
                fast.push_code(0b101, 3);
                slow.push_code(0b101, 3);
                assert_eq!(fast.finish(), slow.finish(), "lead {lead} len {len}");
            }
        }
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..200u32 {
            w.push_bit(i % 3 == 0);
        }
        let s = w.finish();
        assert_eq!(s.len_bits(), 200);
        assert_eq!(s.byte_len(), 25);
        let mut r = s.reader();
        for i in 0..200u32 {
            assert_eq!(r.next_bit(), Some(i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn empty_stream() {
        let s = BitWriter::new().finish();
        assert!(s.is_empty());
        assert_eq!(s.byte_len(), 0);
        assert!(s.reader().is_exhausted());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = BitWriter::with_capacity_bits(1000);
        let mut b = BitWriter::new();
        for i in 0..100 {
            a.push_bit(i % 2 == 0);
            b.push_bit(i % 2 == 0);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn reader_position_tracks() {
        let mut w = BitWriter::new();
        w.push_code(0xFF, 8);
        let s = w.finish();
        let mut r = s.reader();
        assert_eq!(r.position(), 0);
        r.next_bit();
        r.next_bit();
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 6);
    }
}

#[cfg(test)]
mod peek_tests {
    use super::*;

    #[test]
    fn peek_matches_sequential_bits() {
        let mut w = BitWriter::new();
        for i in 0..300u32 {
            w.push_bit((i * 7 + i / 3) % 5 < 2);
        }
        let s = w.finish();
        for pos in [0u64, 1, 7, 63, 64, 65, 120, 290] {
            let mut r = s.reader();
            r.advance(pos as u32);
            let (v, avail) = r.peek_bits(11);
            let expect_avail = (300 - pos).min(11) as u32;
            assert_eq!(avail, expect_avail, "pos {pos}");
            let mut expect = 0u64;
            for i in 0..u64::from(avail) {
                expect = (expect << 1) | s.bit(pos + i) as u64;
            }
            assert_eq!(v, expect, "pos {pos}");
            // Peek must not consume.
            assert_eq!(r.position(), pos);
        }
    }

    #[test]
    fn a_full_word_peek_matches_sequential_bits_at_every_offset() {
        let mut w = BitWriter::new();
        for i in 0..300u32 {
            w.push_bit((i * 11 + i / 5) % 7 < 3);
        }
        let s = w.finish();
        for pos in 0..300u64 {
            let mut r = s.reader();
            r.advance(pos as u32);
            let (v, avail) = r.peek_bits(64);
            assert_eq!(avail, (300 - pos).min(64) as u32, "pos {pos}");
            let mut expect = 0u64;
            for i in 0..u64::from(avail) {
                expect = (expect << 1) | s.bit(pos + i) as u64;
            }
            assert_eq!(v, expect, "pos {pos}");
        }
    }

    #[test]
    fn peek_and_advance_cooperate_with_next_bit() {
        let mut w = BitWriter::new();
        w.push_code(0b1011001, 7);
        w.push_code(0b01, 2);
        let s = w.finish();
        let mut r = s.reader();
        let (v, avail) = r.peek_bits(7);
        assert_eq!(avail, 7);
        assert_eq!(v, 0b1011001);
        r.advance(7);
        assert_eq!(r.next_bit(), Some(false));
        assert_eq!(r.next_bit(), Some(true));
        assert!(r.is_exhausted());
        assert_eq!(r.peek_bits(5), (0, 0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bit_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.push_bit(b);
            }
            let s = w.finish();
            prop_assert_eq!(s.len_bits() as usize, bits.len());
            let mut r = s.reader();
            for &b in &bits {
                prop_assert_eq!(r.next_bit(), Some(b));
            }
            prop_assert!(r.is_exhausted());
        }

        #[test]
        fn byte_serialization_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.push_bit(b);
            }
            let s = w.finish();
            let reloaded = BitStream::from_bytes(&s.to_bytes(), s.len_bits());
            prop_assert_eq!(reloaded, s);
        }

        #[test]
        fn peek_never_disagrees_with_next_bit(
            bits in proptest::collection::vec(any::<bool>(), 1..300),
            k in 1u32..20,
        ) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.push_bit(b);
            }
            let s = w.finish();
            let mut r = s.reader();
            while !r.is_exhausted() {
                let (v, avail) = r.peek_bits(k.min(57));
                prop_assert!(avail >= 1);
                // The first peeked (MSB) bit equals the next sequential bit.
                let first_bit = (v >> (avail - 1)) & 1 == 1;
                prop_assert_eq!(r.next_bit(), Some(first_bit));
            }
        }
    }
}
