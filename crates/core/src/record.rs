//! The stored form of one compressed trajectory, and of the block of
//! them a corpus `blk{b}` section holds.
//!
//! In memory a [`CompressedTrajectory`] is an HSC bit stream plus BTC's
//! `(d, t)` tuples as `f64` pairs. On disk the tuples are laid out
//! **column-wise** and each column gets the encoding its values allow
//! (byte-level layout: `docs/FORMATS.md` § trajectory-store sections):
//!
//! * `t` — when every timestamp of the trajectory is reproduced **bit
//!   for bit** by an integer count of seconds (or, failing that, of
//!   milliseconds), the column is that count as varint deltas: one byte
//!   per kept tuple at fleet sampling rates. The writer proves the round
//!   trip value by value (`TimeCode::quantize`). A trajectory in which a
//!   few timestamps do not pass keeps the quantum **with exceptions** —
//!   a bitmap names them, they stay raw `f64`s in place, the rest are
//!   deltas as before — when that is strictly shorter than `m` raw
//!   `f64`s, which is what it falls back to.
//! * `d` — cumulative distances are monotone with arbitrary mantissas, so
//!   each is XOR-ed with its predecessor (sign, exponent and the top of
//!   the mantissa cancel) and only the significant low bytes are kept,
//!   their count in a control nibble; raw `f64`s when that would not be
//!   shorter.
//!
//! Both are lossless for **every** `f64` — NaN payloads, `-0.0`, values
//! beyond 2⁵³ quanta — because the writer falls back to the raw column
//! whenever the typed one would not decode to the same bits.
//!
//! The `t` column comes first so a range query reads a record's time
//! span and skips it before touching `d` or the bit stream (the window
//! of `decode_into`), and every record is length-prefixed in the block's
//! directory (`Block`) so a point query decodes the one record it names.
//!
//! `decode_into` is the one decoder: it refills a caller-owned
//! [`CompressedTrajectory`] — its tuple vector and its bit stream's words
//! — so a range scan keeps one scratch record for all the records it
//! reads and allocates only when one outgrows it; `decode` is that into a
//! fresh trajectory.
//!
//! Decoding is defensive: every count is bounded by the bytes that remain
//! before anything is allocated for it, reserved bits and padding must be
//! zero, and a record must end exactly where the directory says — a
//! malformed payload is a typed [`StoreError`], never a panic, and leaves
//! the scratch fit for the next record.

use crate::press::CompressedTrajectory;
use crate::types::DtPoint;
use press_store::{ByteReader, ByteWriter, Result, StoreError};

/// Record-format number written into the corpus `meta` section. Format 1
/// (never numbered on disk) was the fixed-width record of earlier builds:
/// `u64 n_bits · bits · u64 m · m × (f64 d, f64 t)`; format 2 had this
/// layout but a spatial code without gap runs
/// ([`crate::spatial::hsc`] § the stream), which this reader would
/// mis-parse — so the number moved with the stream grammar.
pub const RECORD_FORMAT: u32 = 3;

/// Bit 4 of a record's code byte: the `d` column is XOR-trimmed (clear:
/// raw `f64`s). Bits 0–1 hold the [`TimeCode`], bit 2 is
/// [`T_EXCEPTIONS`]; all others are zero.
const D_XOR: u8 = 0x10;

/// Bit 2 of a record's code byte, with a quantum [`TimeCode`] only: the
/// `t` column opens with a `⌈m/8⌉`-byte bitmap (tuple `i` is bit `i % 8`
/// of byte `i / 8`, padding bits zero); a tuple whose bit is set is a raw
/// `f64` in place, the others are the quantum's varints, each a delta
/// against the previous *quantised* tuple.
const T_EXCEPTIONS: u8 = 0x04;

/// How a record's `t` column is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimeCode {
    /// `m` raw `f64`s.
    Raw = 0,
    /// Whole seconds: `ivarint q₀`, then `uvarint` deltas.
    Seconds = 1,
    /// Whole milliseconds, same layout.
    Millis = 2,
}

impl TimeCode {
    /// The integer count of quanta that decodes to exactly `t`, if one
    /// exists. (`as i64` saturates and maps NaN to 0, so out-of-range
    /// and non-finite values simply fail the comparison.)
    fn quantize(self, t: f64) -> Option<i64> {
        let q = match self {
            TimeCode::Raw => return None,
            TimeCode::Seconds => t as i64,
            TimeCode::Millis => (t * 1000.0).round() as i64,
        };
        (self.dequantize(q).to_bits() == t.to_bits()).then_some(q)
    }

    /// The timestamp a count of quanta stands for — the one function the
    /// writer proves against and the reader evaluates.
    fn dequantize(self, q: i64) -> f64 {
        match self {
            TimeCode::Millis => q as f64 / 1000.0,
            _ => q as f64,
        }
    }

    /// How to store the `t` column of `points`: the coarsest quantum every
    /// timestamp round-trips in; failing that, the quantum whose column
    /// with exceptions is shortest, when that beats raw `f64`s; failing
    /// that, raw. The flag says whether exceptions are marked.
    fn pick(points: &[DtPoint]) -> (TimeCode, bool) {
        let quanta = [TimeCode::Seconds, TimeCode::Millis];
        if let Some(code) = quanta
            .into_iter()
            .find(|code| points.iter().all(|p| code.quantize(p.t).is_some()))
        {
            return (code, false);
        }
        let mut best = (TimeCode::Raw, false);
        let mut best_len = points.len() * 8;
        for code in quanta {
            let mut column = ByteWriter::new();
            code.put_column(points, true, &mut column);
            if column.len() < best_len {
                best = (code, true);
                best_len = column.len();
            }
        }
        best
    }

    /// Appends the `t` column under this code: the exception bitmap when
    /// `exceptions` are marked, then per tuple a varint for a timestamp
    /// the quantum reproduces bit for bit and a raw `f64` for one it does
    /// not — every one under [`TimeCode::Raw`], otherwise none unless
    /// marked (`pick` proved it).
    fn put_column(self, points: &[DtPoint], exceptions: bool, w: &mut ByteWriter) {
        if exceptions {
            for chunk in points.chunks(8) {
                let bits = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, p)| u8::from(self.quantize(p.t).is_none()) << i);
                w.put_u8(bits.sum());
            }
        }
        let mut prev: Option<i64> = None;
        for p in points {
            let Some(q) = self.quantize(p.t) else {
                debug_assert!(exceptions || self == TimeCode::Raw);
                w.put_f64(p.t);
                continue;
            };
            match prev {
                None => w.put_ivarint(q),
                Some(prev) => w.put_uvarint(q.wrapping_sub(prev) as u64),
            }
            prev = Some(q);
        }
    }
}

/// Significant low bytes of a predecessor-XOR word (0 for equal values).
fn significant_bytes(x: u64) -> usize {
    8 - x.leading_zeros() as usize / 8
}

/// The predecessor-XOR words of a `d` column (the first against zero).
fn xor_words(points: &[DtPoint]) -> impl Iterator<Item = u64> + '_ {
    let mut prev = 0u64;
    points.iter().map(move |p| {
        let bits = p.d.to_bits();
        let x = bits ^ prev;
        prev = bits;
        x
    })
}

/// Appends one record to `w`.
pub(crate) fn encode(ct: &CompressedTrajectory, w: &mut ByteWriter) {
    let points = &ct.temporal.points;
    let m = points.len();
    w.put_uvarint(m as u64);
    if m > 0 {
        let (time, exceptions) = TimeCode::pick(points);
        let xor_len = m.div_ceil(2) + xor_words(points).map(significant_bytes).sum::<usize>();
        let d_xor = xor_len < m * 8;
        let flags = if exceptions { T_EXCEPTIONS } else { 0 } | if d_xor { D_XOR } else { 0 };
        w.put_u8(time as u8 | flags);
        time.put_column(points, exceptions, w);
        if d_xor {
            let mut words = xor_words(points).map(significant_bytes);
            while let Some(lo) = words.next() {
                w.put_u8((lo | words.next().unwrap_or(0) << 4) as u8);
            }
            for x in xor_words(points) {
                w.put_bytes(&x.to_le_bytes()[..significant_bytes(x)]);
            }
        } else {
            for p in points {
                w.put_f64(p.d);
            }
        }
    }
    let bits = &ct.spatial.bits;
    w.put_uvarint(bits.len_bits());
    w.put_bytes(&bits.to_bytes());
}

/// Decodes one record.
pub(crate) fn decode(rec: &[u8]) -> Result<CompressedTrajectory> {
    let mut ct = CompressedTrajectory::default();
    decode_into(rec, None, &mut ct)?;
    Ok(ct)
}

/// Decodes one record into `out`, refilling its tuple vector and its bit
/// stream's words in place — a caller that decodes record after record
/// keeps one `out` and allocates only when a record outgrows it.
///
/// With a `window` `(lo, hi)`, a record whose time span misses `[lo, hi]`
/// (or that has no tuples, hence no span) is `false`, decided from the
/// `t` column alone; `out` then holds a partial record. So does it after
/// an error, which leaves it fit for the next call.
pub(crate) fn decode_into(
    rec: &[u8],
    window: Option<(f64, f64)>,
    out: &mut CompressedTrajectory,
) -> Result<bool> {
    let mut r = ByteReader::new(rec);
    // Every tuple takes at least one byte of the `t` column, which bounds
    // the allocation by the record's own length.
    let m = r.get_uvarint()?;
    let m = usize::try_from(m)
        .ok()
        .filter(|&m| m <= r.remaining())
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "temporal tuple count {m} exceeds the {} bytes left in the record",
                r.remaining()
            ))
        })?;
    let points = &mut out.temporal.points;
    points.clear();
    points.reserve(m);
    if m == 0 {
        if window.is_some() {
            return Ok(false);
        }
    } else {
        let code = r.get_u8()?;
        let time = match code & !(D_XOR | T_EXCEPTIONS) {
            0 if code & T_EXCEPTIONS == 0 => TimeCode::Raw,
            1 => TimeCode::Seconds,
            2 => TimeCode::Millis,
            _ => {
                return Err(StoreError::Corrupt(format!(
                    "unknown record code byte {code:#04x}"
                )))
            }
        };
        let exceptions = code & T_EXCEPTIONS != 0;
        let bitmap = r.get_bytes(if exceptions { m.div_ceil(8) } else { 0 })?;
        if m % 8 != 0 && bitmap.last().is_some_and(|last| last >> (m % 8) != 0) {
            return Err(StoreError::Corrupt(
                "non-zero padding bits in the timestamp exception bitmap".into(),
            ));
        }
        let mut prev: Option<i64> = None;
        for i in 0..m {
            let raw = if exceptions {
                bitmap[i / 8] >> (i % 8) & 1 == 1
            } else {
                time == TimeCode::Raw
            };
            let t = if raw {
                r.get_f64()?
            } else {
                let q = match prev {
                    None => r.get_ivarint()?,
                    Some(prev) => prev.wrapping_add(r.get_uvarint()? as i64),
                };
                prev = Some(q);
                time.dequantize(q)
            };
            points.push(DtPoint::new(0.0, t));
        }
        if let Some((lo, hi)) = window {
            if points[m - 1].t < lo || points[0].t > hi {
                return Ok(false);
            }
        }
        if code & D_XOR == 0 {
            for p in points.iter_mut() {
                p.d = r.get_f64()?;
            }
        } else {
            let control = r.get_bytes(m.div_ceil(2))?;
            let mut prev = 0u64;
            for (i, p) in points.iter_mut().enumerate() {
                let k = (control[i / 2] >> (i % 2 * 4) & 0xF) as usize;
                if k > 8 {
                    return Err(StoreError::Corrupt(format!(
                        "distance control nibble {k} exceeds 8 bytes"
                    )));
                }
                prev ^= r.get_uint_le(k)?;
                p.d = f64::from_bits(prev);
            }
            if m % 2 == 1 && control[m / 2] >> 4 != 0 {
                return Err(StoreError::Corrupt(
                    "non-zero padding nibble in the distance control bytes".into(),
                ));
            }
        }
    }
    let n_bits = r.get_uvarint()?;
    // A bit count the record cannot back is a truncation, found before
    // the stream is built from the bytes that are there.
    let bytes = r.get_bytes(usize::try_from(n_bits.div_ceil(8)).unwrap_or(usize::MAX))?;
    r.expect_end("record")?;
    if n_bits % 8 != 0 && bytes[bytes.len() - 1] >> (n_bits % 8) != 0 {
        return Err(StoreError::Corrupt(
            "non-zero padding bits after the spatial code".into(),
        ));
    }
    out.spatial.bits.refill_from_bytes(bytes, n_bits);
    Ok(true)
}

/// Encodes a block payload: the directory (one `uvarint` byte length per
/// record) followed by the records.
pub(crate) fn encode_block(chunk: &[CompressedTrajectory]) -> Vec<u8> {
    let mut directory = ByteWriter::with_capacity(chunk.len() * 2);
    let mut records = ByteWriter::new();
    for ct in chunk {
        let start = records.len();
        encode(ct, &mut records);
        directory.put_uvarint((records.len() - start) as u64);
    }
    directory.put_bytes(&records.into_bytes());
    directory.into_bytes()
}

/// A block payload split into its directory and its records, the
/// directory checked against the payload length.
#[derive(Debug)]
pub(crate) struct Block<'a> {
    directory: &'a [u8],
    records: &'a [u8],
}

impl<'a> Block<'a> {
    /// Splits the payload of a block of `len` records. The record lengths
    /// must add up to exactly the bytes after the directory.
    pub(crate) fn parse(payload: &'a [u8], len: usize) -> Result<Block<'a>> {
        let mut r = ByteReader::new(payload);
        let mut total = 0usize;
        for _ in 0..len {
            let n = r.get_uvarint()?;
            total = usize::try_from(n)
                .ok()
                .and_then(|n| total.checked_add(n))
                .filter(|&t| t <= payload.len())
                .ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "record length {n} overruns a {}-byte block",
                        payload.len()
                    ))
                })?;
        }
        let (directory, records) = payload.split_at(payload.len() - r.remaining());
        if total != records.len() {
            return Err(StoreError::Corrupt(format!(
                "block directory names {total} record bytes, the block holds {}",
                records.len()
            )));
        }
        Ok(Block { directory, records })
    }

    /// The records' bytes, in block order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut directory = ByteReader::new(self.directory);
        let mut rest = self.records;
        std::iter::from_fn(move || {
            // `parse` read every length and checked their sum.
            let n = directory.get_uvarint().ok()? as usize;
            let (record, tail) = rest.split_at(n);
            rest = tail;
            Some(record)
        })
    }
}

/// Bytes of `v` as a `uvarint`.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes one trajectory takes in a corpus block, split into `[framing,
/// (d, t) columns, spatial code]` — framing being its directory entry,
/// the two counts and the code byte. Feeds [`crate::stats::StoredBytes`].
pub(crate) fn stored_parts(ct: &CompressedTrajectory) -> [usize; 3] {
    let mut record = ByteWriter::new();
    encode(ct, &mut record);
    let m = ct.temporal.len();
    let framing = uvarint_len(record.len() as u64)
        + uvarint_len(m as u64)
        + usize::from(m > 0)
        + uvarint_len(ct.spatial.bits.len_bits());
    let spatial = ct.spatial.bits.byte_len();
    let total = record.len() + uvarint_len(record.len() as u64);
    [framing, total - framing - spatial, spatial]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::{BitStream, BitWriter, CompressedSpatial};
    use crate::types::TemporalSequence;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trajectory(points: Vec<DtPoint>, bits: &[bool]) -> CompressedTrajectory {
        let mut w = BitWriter::new();
        for &b in bits {
            w.push_bit(b);
        }
        CompressedTrajectory {
            spatial: CompressedSpatial { bits: w.finish() },
            temporal: TemporalSequence::new_unchecked(points),
        }
    }

    /// The windowed decode into a fresh trajectory: `None` when skipped.
    fn decode_if_overlaps(rec: &[u8], lo: f64, hi: f64) -> Result<Option<CompressedTrajectory>> {
        let mut ct = CompressedTrajectory::default();
        Ok(decode_into(rec, Some((lo, hi)), &mut ct)?.then_some(ct))
    }

    fn encoded(ct: &CompressedTrajectory) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode(ct, &mut w);
        w.into_bytes()
    }

    /// `f64` equality is not enough: `-0.0 == 0.0` and `NaN != NaN`.
    fn bits_of(ct: &CompressedTrajectory) -> (Vec<(u64, u64)>, &BitStream) {
        let points = &ct.temporal.points;
        (
            points
                .iter()
                .map(|p| (p.d.to_bits(), p.t.to_bits()))
                .collect(),
            &ct.spatial.bits,
        )
    }

    fn assert_roundtrip(ct: &CompressedTrajectory) -> Vec<u8> {
        let rec = encoded(ct);
        let back = decode(&rec).expect("decode");
        assert_eq!(bits_of(&back), bits_of(ct));
        let [framing, tuples, spatial] = stored_parts(ct);
        assert_eq!(
            framing + tuples + spatial,
            encode_block(std::slice::from_ref(ct)).len()
        );
        rec
    }

    /// The code byte of a record that has tuples.
    fn code_byte(ct: &CompressedTrajectory) -> u8 {
        let rec = encoded(ct);
        let mut r = ByteReader::new(&rec);
        r.get_uvarint().unwrap();
        r.get_u8().unwrap()
    }

    fn timestamps(kind: u8, m: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut t = rng.gen_range(0u32..200_000) as f64;
        let fractional_share = rng.gen_range(0.0f64..1.0);
        (0..m)
            .map(|i| {
                t += match kind {
                    // Whole seconds; one fractional value among them (4),
                    // or each fractional with some probability (7).
                    0 | 4 | 7 => rng.gen_range(1u32..90) as f64,
                    // Whole milliseconds.
                    1 => rng.gen_range(1u32..90_000) as f64 / 1000.0,
                    // Sub-millisecond.
                    2 => rng.gen_range(0.001f64..90.0),
                    // A mix of all three.
                    3 => match rng.gen_range(0u8..3) {
                        0 => rng.gen_range(1u32..90) as f64,
                        1 => rng.gen_range(1u32..90_000) as f64 / 1000.0,
                        _ => rng.gen_range(0.001f64..90.0),
                    },
                    // Beyond 2^53 quanta, where an integer no longer
                    // names every value.
                    5 => 2f64.powi(53) * rng.gen_range(1.0f64..4096.0),
                    // Any bit pattern: NaNs, infinities, -0.0, subnormals.
                    _ => return f64::from_bits(rng.gen()),
                };
                if (kind == 4 && i == m / 2) || (kind == 7 && rng.gen_bool(fractional_share)) {
                    t + rng.gen_range(0.0001f64..0.9999)
                } else {
                    t
                }
            })
            .collect()
    }

    fn distances(kind: u8, m: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut d = 0.0f64;
        (0..m)
            .map(|i| {
                match kind {
                    // Monotone from 0.0, arbitrary mantissas.
                    0 => {
                        if i > 0 {
                            d += rng.gen_range(0.5f64..400.0)
                        }
                    }
                    // Runs of equal consecutive values (a parked vehicle).
                    1 => {
                        if rng.gen_range(0u8..3) == 0 {
                            d += rng.gen_range(0.5f64..400.0)
                        }
                    }
                    // All zero.
                    2 => {}
                    // Any bit pattern.
                    _ => d = f64::from_bits(rng.gen()),
                }
                d
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// encode → decode is bit-identical whatever the columns hold,
        /// and the windowed decode agrees with the time span.
        #[test]
        fn record_roundtrip_is_bit_identical(
            seed in any::<u64>(),
            t_kind in 0u8..8,
            d_kind in 0u8..4,
            m in 0usize..40,
            n_bits in 0usize..200,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points = timestamps(t_kind, m, &mut rng)
                .into_iter()
                .zip(distances(d_kind, m, &mut rng))
                .map(|(t, d)| DtPoint::new(d, t))
                .collect();
            let bits: Vec<bool> = (0..n_bits).map(|_| rng.gen()).collect();
            let ct = trajectory(points, &bits);
            let rec = assert_roundtrip(&ct);
            match ct.temporal.time_range() {
                None => prop_assert!(decode_if_overlaps(&rec, f64::MIN, f64::MAX).unwrap().is_none()),
                Some((a, z)) => {
                    // A NaN end compares false both ways: never skipped.
                    if z.is_nan() || a.is_nan() || a <= z {
                        let inside = decode_if_overlaps(&rec, a, z).unwrap();
                        prop_assert_eq!(inside.as_ref().map(bits_of), Some(bits_of(&ct)));
                    }
                    if a.is_finite() && z.is_finite() && a <= z {
                        prop_assert!(decode_if_overlaps(&rec, z + z.abs() + 1.0, f64::MAX).unwrap().is_none());
                        prop_assert!(decode_if_overlaps(&rec, f64::MIN, a - a.abs() - 1.0).unwrap().is_none());
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// One scratch trajectory fed record after record — every time
        /// kind against both kinds of `d` column (so every `TimeCode`,
        /// with and without exceptions, and both `d` codes), a record
        /// without tuples, longest first or in drawn order, some skipped
        /// by a window that misses them, some mutated or cut — decodes
        /// each exactly as a fresh `decode` does: the same bits, or the
        /// same typed error; the record after an error decodes cleanly.
        #[test]
        fn record_scratch_reuse_is_bit_identical_to_a_fresh_decode(
            seed in any::<u64>(),
            max_m in 1usize..60,
            longest_first in any::<bool>(),
            bad_every in 2usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cts = Vec::new();
            for t_kind in 0u8..8 {
                for d_kind in 0u8..4 {
                    let m = rng.gen_range(1..=max_m);
                    let points = timestamps(t_kind, m, &mut rng)
                        .into_iter()
                        .zip(distances(d_kind, m, &mut rng))
                        .map(|(t, d)| DtPoint::new(d, t))
                        .collect();
                    let bits: Vec<bool> = (0..rng.gen_range(0..200)).map(|_| rng.gen()).collect();
                    cts.push(trajectory(points, &bits));
                }
            }
            // Codes the drawn kinds may miss: whole milliseconds without
            // and with one exception, whole seconds with one, and a raw
            // `d` column.
            let pts = |v: &[(f64, f64)]| v.iter().map(|&(d, t)| DtPoint::new(d, t)).collect();
            let mut millis: Vec<(f64, f64)> =
                (0..10).map(|i| (i as f64, (100_250 + 1500 * i) as f64 / 1000.0)).collect();
            cts.push(trajectory(pts(&millis), &[true]));
            millis[4].1 += 0.00025;
            cts.push(trajectory(pts(&millis), &[true]));
            cts.push(trajectory(pts(&[(0.0, 100.0), (17.25, 101.00037), (40.5, 130.0)]), &[false]));
            cts.push(trajectory(pts(&[(-1.5, 1.0), (1.5e300, 2.0), (-2.5e-300, 3.0)]), &[]));
            cts.push(trajectory(Vec::new(), &[true, false, true]));
            let codes: std::collections::BTreeSet<u8> =
                cts.iter().filter(|ct| !ct.temporal.is_empty()).map(code_byte).collect();
            for time in [TimeCode::Raw as u8, TimeCode::Seconds as u8, TimeCode::Millis as u8] {
                prop_assert!(codes.iter().any(|&c| c & !D_XOR == time), "{:?}", codes);
            }
            for excepted in [TimeCode::Seconds as u8, TimeCode::Millis as u8] {
                prop_assert!(codes.contains(&(excepted | T_EXCEPTIONS | D_XOR)), "{:?}", codes);
            }
            prop_assert!(codes.iter().any(|&c| c & D_XOR == 0), "{:?}", codes);
            if longest_first {
                cts.sort_by_key(|ct| std::cmp::Reverse((ct.temporal.len(), ct.spatial.bits.len_bits())));
            }
            let mut scratch = CompressedTrajectory::default();
            for (k, ct) in cts.iter().enumerate() {
                let mut rec = encoded(ct);
                if k % bad_every == bad_every - 1 {
                    if rng.gen_bool(0.5) {
                        rec.truncate(rng.gen_range(0..rec.len()));
                    } else {
                        let at = rng.gen_range(0..rec.len());
                        rec[at] ^= rng.gen_range(1..=255u8);
                    }
                    let reused = decode_into(&rec, None, &mut scratch).map(|kept| (kept, bits_of(&scratch)));
                    match (decode(&rec), reused) {
                        (Ok(fresh), Ok((kept, reused))) => {
                            prop_assert!(kept);
                            prop_assert_eq!(bits_of(&fresh), reused);
                        }
                        (Err(fresh), Err(reused)) => {
                            prop_assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
                        }
                        (fresh, reused) => prop_assert!(false, "fresh {:?}, reused {:?}", fresh, reused),
                    }
                    continue;
                }
                if let Some((a, z)) = ct.temporal.time_range().filter(|_| k % 3 == 0) {
                    // A window past the span (when one exists) skips the
                    // record from its `t` column, leaving a partial one.
                    if a.is_finite() && z.is_finite() && a <= z {
                        let past = z + z.abs() + 1.0;
                        prop_assert!(!decode_into(&rec, Some((past, f64::MAX)), &mut scratch).unwrap());
                    }
                }
                // Every record after a bad one (`bad_every` ≥ 2) is
                // clean and lands here, on the scratch the error left.
                prop_assert!(decode_into(&rec, None, &mut scratch).unwrap());
                let fresh = decode(&rec).unwrap();
                prop_assert_eq!(bits_of(&scratch), bits_of(&fresh));
                prop_assert_eq!(bits_of(&scratch), bits_of(ct));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `k` fractional timestamps among `m` whole seconds, `k = 0..=m`:
        /// bit-identical whatever `k`; the quantum with exceptions is
        /// chosen exactly when it is strictly shorter than raw `f64`s,
        /// never when every timestamp is whole, and is as long as the
        /// layout says.
        #[test]
        fn record_k_fractional_timestamps_among_integral(
            seed in any::<u64>(),
            m in 1usize..40,
            k_of_m in 0.0f64..=1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = (k_of_m * m as f64).round() as usize;
            let mut fractional = vec![false; m];
            let mut placed = 0;
            while placed < k {
                let at = rng.gen_range(0..m);
                placed += usize::from(!std::mem::replace(&mut fractional[at], true));
            }
            // The column's length, worked out from the layout: bitmap,
            // eight bytes per exception, a zig-zag start and unsigned
            // deltas between the whole tuples.
            let mut expected = m.div_ceil(8) + 8 * k;
            let mut prev_whole: Option<u64> = None;
            let mut t = rng.gen_range(0u64..200_000);
            let points: Vec<DtPoint> = fractional
                .iter()
                .map(|&f| {
                    t += rng.gen_range(1u64..90);
                    if f {
                        // A quarter-millisecond is exact in binary and a
                        // whole count of neither quantum.
                        return DtPoint::new(t as f64, t as f64 + 0.00025);
                    }
                    expected += match prev_whole.replace(t) {
                        None => uvarint_len(t << 1),
                        Some(prev) => uvarint_len(t - prev),
                    };
                    DtPoint::new(t as f64, t as f64)
                })
                .collect();
            let ct = trajectory(points, &[true]);
            assert_roundtrip(&ct);
            let code = code_byte(&ct) & !D_XOR;
            if k == 0 {
                prop_assert_eq!(code, TimeCode::Seconds as u8);
            } else if expected < 8 * m {
                prop_assert_eq!(code, TimeCode::Seconds as u8 | T_EXCEPTIONS);
                let mut column = ByteWriter::new();
                TimeCode::Seconds.put_column(&ct.temporal.points, true, &mut column);
                prop_assert_eq!(column.len(), expected);
            } else {
                prop_assert_eq!(code, TimeCode::Raw as u8);
            }
        }
    }

    #[test]
    fn record_edge_cases_roundtrip_under_the_expected_codes() {
        let bits = [true, false, true, true, false];
        let pts = |v: &[(f64, f64)]| v.iter().map(|&(d, t)| DtPoint::new(d, t)).collect();
        // Whole seconds, d from 0.0: typed columns both.
        let seconds = trajectory(pts(&[(0.0, 100.0), (17.25, 101.0), (40.5, 130.0)]), &bits);
        assert_eq!(code_byte(&seconds), TimeCode::Seconds as u8 | D_XOR);
        // m, code, t (2 + 1 + 1), d (2 control + 0 + 8 + 7: the first
        // non-zero value XORs against zero, the next shares its top
        // byte), n_bits, one byte of bits.
        assert_eq!(assert_roundtrip(&seconds).len(), 25);
        // One fractional timestamp that is a whole millisecond moves the
        // record to the finer quantum; one that is not stays an exception
        // among whole seconds (a bitmap byte and the raw value for one
        // delta byte); with all three like that, raw.
        let millis = trajectory(pts(&[(0.0, 100.0), (17.25, 101.5), (40.5, 130.0)]), &bits);
        assert_eq!(code_byte(&millis), TimeCode::Millis as u8 | D_XOR);
        assert_roundtrip(&millis);
        let excepted = trajectory(
            pts(&[(0.0, 100.0), (17.25, 101.00037), (40.5, 130.0)]),
            &bits,
        );
        let raw = trajectory(
            pts(&[(0.0, 100.00037), (17.25, 101.00037), (40.5, 130.00037)]),
            &bits,
        );
        assert_eq!(code_byte(&raw), TimeCode::Raw as u8 | D_XOR);
        assert_roundtrip(&raw);
        assert_eq!(
            code_byte(&excepted),
            TimeCode::Seconds as u8 | T_EXCEPTIONS | D_XOR
        );
        assert_eq!(
            assert_roundtrip(&excepted).len(),
            assert_roundtrip(&seconds).len() + 1 + 8 - 1
        );
        // 2^60 s is an integer an `i64` holds; 2^60 ms is not 2^57 s.
        let far = trajectory(pts(&[(0.0, 2f64.powi(60)), (1.0, 2f64.powi(61))]), &bits);
        assert_eq!(code_byte(&far) & !D_XOR, TimeCode::Seconds as u8);
        assert_roundtrip(&far);
        // Past what `i64` counts, and the values integers never decode
        // to: an exception beside a whole second, raw on their own.
        for t in [1e19, -1e19, -0.0, f64::NAN, f64::INFINITY, 5e-324] {
            let odd = trajectory(pts(&[(0.0, 5.0), (1.0, t)]), &bits);
            let code = TimeCode::Seconds as u8 | T_EXCEPTIONS;
            assert_eq!(code_byte(&odd) & !D_XOR, code, "t = {t}");
            assert_roundtrip(&odd);
            let odd = trajectory(pts(&[(0.0, t), (1.0, t)]), &bits);
            assert_eq!(code_byte(&odd) & !D_XOR, TimeCode::Raw as u8, "t = {t}");
            assert_roundtrip(&odd);
        }
        // Negative whole seconds zig-zag; a decreasing `t` wraps and
        // still round-trips.
        assert_roundtrip(&trajectory(
            pts(&[(0.0, -50.0), (1.0, -20.0), (2.0, -30.0)]),
            &bits,
        ));
        // A `d` column whose XOR words are all eight bytes wide is stored
        // raw: the control nibbles would only add to it.
        let wide = trajectory(pts(&[(-1.5, 1.0), (1.5e300, 2.0), (-2.5e-300, 3.0)]), &bits);
        assert_eq!(code_byte(&wide), TimeCode::Seconds as u8);
        assert_roundtrip(&wide);
        // Equal consecutive distances and d = 0.0 cost a nibble each.
        let parked = trajectory(pts(&[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 4.0)]), &[]);
        assert_eq!(assert_roundtrip(&parked).len(), 1 + 1 + 4 + 2 + 1);
        // One tuple, zero tuples, zero spatial bits.
        assert_roundtrip(&trajectory(pts(&[(3.5, 7.0)]), &bits));
        assert_eq!(assert_roundtrip(&trajectory(Vec::new(), &bits)).len(), 3);
        assert_eq!(assert_roundtrip(&trajectory(Vec::new(), &[])), [0, 0]);
        assert_roundtrip(&trajectory(pts(&[(0.0, 1.0), (9.0, 2.0)]), &[]));
    }

    /// A small block with every column encoding in it.
    fn sample_block() -> Vec<CompressedTrajectory> {
        let mut rng = StdRng::seed_from_u64(77);
        (0..5u8)
            .map(|k| {
                let m = [6, 1, 0, 9, 4][k as usize];
                let points = timestamps(k, m, &mut rng)
                    .into_iter()
                    .zip(distances(k % 3, m, &mut rng))
                    .map(|(t, d)| DtPoint::new(d, t))
                    .collect();
                let bits: Vec<bool> = (0..13 * k as usize).map(|_| rng.gen()).collect();
                trajectory(points, &bits)
            })
            .collect()
    }

    fn decode_block(payload: &[u8], len: usize) -> Result<Vec<CompressedTrajectory>> {
        Block::parse(payload, len)?.records().map(decode).collect()
    }

    #[test]
    fn record_block_directory_addresses_every_record() {
        let block = sample_block();
        let payload = encode_block(&block);
        let parsed = Block::parse(&payload, block.len()).expect("parse");
        assert_eq!(parsed.records().count(), block.len());
        for (rec, ct) in parsed.records().zip(&block) {
            assert_eq!(rec, encoded(ct));
            assert_eq!(bits_of(&decode(rec).expect("decode")), bits_of(ct));
        }
        assert!(decode_block(&encode_block(&[]), 0)
            .expect("empty")
            .is_empty());
        // One record more or fewer than the synopsis says is an error.
        assert!(Block::parse(&payload, block.len() + 1).is_err());
        assert!(Block::parse(&payload, block.len() - 1).is_err());
    }

    #[test]
    fn record_decoder_rejects_counts_the_bytes_cannot_back() {
        let corrupt = |rec: &[u8], what: &str| match decode(rec) {
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
            other => panic!("{what}: {other:?}"),
        };
        // A tuple count of 2^62 in a ten-byte record.
        let mut w = ByteWriter::new();
        w.put_uvarint(1 << 62);
        w.put_u8(TimeCode::Seconds as u8 | D_XOR);
        corrupt(&w.into_bytes(), "huge tuple count");
        // A bit count of 2^62 with no bytes behind it.
        let mut w = ByteWriter::new();
        w.put_uvarint(0);
        w.put_uvarint(1 << 62);
        corrupt(&w.into_bytes(), "huge bit count");
        corrupt(&[0, 0x80], "varint cut short");
        // Reserved code bits, an over-wide nibble, non-zero padding.
        let seconds = trajectory(
            vec![
                DtPoint::new(0.0, 1.0),
                DtPoint::new(2.5, 2.0),
                DtPoint::new(4.0, 3.0),
            ],
            &[true, true, false],
        );
        let good = encoded(&seconds);
        decode(&good).expect("clean");
        let with = |at: usize, value: u8| {
            let mut bad = good.clone();
            bad[at] = value;
            bad
        };
        corrupt(&with(1, good[1] | 0x08), "reserved code bit");
        corrupt(&with(1, 3 | D_XOR), "unknown time code");
        corrupt(&with(1, T_EXCEPTIONS | D_XOR), "exceptions to no quantum");
        // Three tuples use three bitmap bits; a fourth set is padding.
        let excepted = encoded(&trajectory(
            vec![
                DtPoint::new(0.0, 1.0),
                DtPoint::new(2.5, 2.00037),
                DtPoint::new(4.0, 3.0),
            ],
            &[true],
        ));
        assert_eq!(
            (excepted[1], excepted[2]),
            (1 | T_EXCEPTIONS | D_XOR, 0b010)
        );
        decode(&excepted).expect("clean");
        let mut bad = excepted.clone();
        bad[2] |= 0b1000;
        corrupt(&bad, "bitmap padding bit");
        corrupt(&with(5, 0x09), "nibble of nine bytes");
        corrupt(&with(6, good[6] | 0x10), "padding nibble");
        let last = good.len() - 1;
        corrupt(&with(last, good[last] | 0x08), "padding bit");
        let mut long = good.clone();
        long.push(0);
        corrupt(&long, "trailing byte");
        // A directory whose lengths overflow or overrun the block.
        let mut w = ByteWriter::new();
        w.put_uvarint(u64::MAX);
        w.put_uvarint(u64::MAX);
        assert!(Block::parse(&w.into_bytes(), 2).is_err());
        assert!(Block::parse(&[], 1 << 40).is_err());
    }
}
