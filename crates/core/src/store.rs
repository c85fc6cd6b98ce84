//! On-disk artifacts of the PRESS core: the trained HSC model and a
//! block-oriented compressed-trajectory store, both in the shared
//! [`press_store`] container format.
//!
//! # Model persistence
//!
//! [`HscModel`] training is a corpus-wide pass (SP compression of every
//! training path, trie mining, Huffman construction, per-node tables);
//! the result is small and static. `HscModel::save_to` persists the trie
//! records, the canonical Huffman code lengths, the per-node distances
//! (`node_dist`), the link arena (`node_link`) and the stop facts of the
//! `SPend` index (`node_stop`). Load runs the pass training runs over the
//! arena — it checks every chain and folds the distances, the MBRs and
//! the link lengths — and refuses a file whose folded distances differ
//! from the stored ones in any bit: `node_dist` is kept as the arena's
//! witness. The MBRs are never read from disk (`node_mbr`, which older
//! writers emitted, is a retired name readers ignore), and the `SPend`
//! index is derived and checked to be a forest of trees. Every section
//! the writer emits is required: a file without one is
//! [`StoreError::MissingSection`], and opening a model makes no
//! shortest-path call. `HscModel::load_from` reassembles
//! the model over a shortest-path provider, rebuilding the Aho–Corasick
//! automaton with the same deterministic construction training uses — so
//! a loaded model compresses, decompresses and answers queries
//! **bit-identically** to the trained one.
//!
//! # The block store
//!
//! [`TrajectoryStore`] keeps a compressed corpus on disk in fixed-size
//! blocks, each carrying a **synopsis**: the union MBR of its
//! trajectories' spatial extents (from the query engine's per-unit
//! rectangles — no decompression) and the union of their observed time
//! spans. Queries consult the synopses to skip whole blocks, borrowing
//! the metadata-driven data-skipping idea of provenance-based block
//! synopses (see PAPERS.md):
//!
//! * [`TrajectoryStore::range`] skips blocks whose time span misses
//!   `[t1, t2]` or whose MBR misses the region;
//! * [`TrajectoryStore::whenat`] rejects probes outside the containing
//!   block's (tolerance-inflated) MBR without decoding it;
//! * [`TrajectoryStore::whereat`]/[`TrajectoryStore::get`] decode only
//!   the one **record** they name: a block payload is a directory of
//!   record lengths followed by the records ([`crate::record`]), so a
//!   point query slices its record out of the section in place and a
//!   range query reads each record's time span from its `t`
//!   column before decoding anything else of it.
//!
//! Synopses are conservative over-approximations: a skipped block can
//! never contain a hit, so store-level answers equal the brute-force
//! scan (asserted in tests). Range semantics: a trajectory qualifies
//! only when its **observed time span overlaps** the query window —
//! trajectories that ended before `t1` or started after `t2` are not
//! "passing the region within `[t1, t2]`".
//!
//! # The synopsis index
//!
//! Above the per-block synopses sits a packed hierarchy
//! ([`SynopsisIndex`]): consecutive blocks grouped by a fixed branching
//! factor, each group summarized by the union of its children's MBRs
//! and time spans. [`TrajectoryStore::range`] descends it instead of
//! walking the block directory linearly, so pruning costs
//! O(candidates · branching + levels) rather than O(#blocks);
//! [`TrajectoryStore::range_linear`] keeps the linear walk alive as the
//! reference path and [`TrajectoryStore::io_stats`] exposes how many
//! block synopses were never even considered. The hierarchy is rebuilt
//! from the synopses at every open (the build is deterministic and costs
//! one pass over the block directory) and is never persisted; `"index"`
//! is a retired section name (see `docs/FORMATS.md`) that readers ignore.

use crate::error::{PressError, Result};
use crate::press::CompressedTrajectory;
use crate::query::{time_window, QueryEngine, UnitBuffers};
use crate::record::{self, RECORD_FORMAT};
use crate::spatial::hsc::LinkArena;
use crate::spatial::{HscModel, Huffman, Trie};
use press_network::{EdgeId, Mbr, Point, SpProvider};
use press_store::{
    crc32, kind, ByteReader, ByteWriter, IndexEntry, StoreError, StoreFile, StoreWriter,
    SynopsisIndex, DEFAULT_BRANCHING,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// HSC model persistence
// ---------------------------------------------------------------------

impl HscModel {
    /// The `trie` section: one 18-byte record per non-root node.
    fn trie_section(&self) -> Vec<u8> {
        let trie = self.trie();
        let mut nodes = ByteWriter::with_capacity((trie.num_nodes() - 1) * TRIE_RECORD_BYTES);
        for id in trie.node_ids() {
            nodes.put_u32(trie.parent(id));
            nodes.put_u32(trie.last_edge(id).0);
            nodes.put_u16(trie.depth(id) as u16);
            nodes.put_u64(trie.freq(id));
        }
        nodes.into_bytes()
    }

    /// What a spatial code was written under: the CRC32 of the `trie`
    /// section bytes followed by the `hufflens` section bytes — the code
    /// book, which alone decides how a bit stream parses. A corpus names
    /// it in its `meta` ([`TrajectoryStore::model_fingerprint`]), so
    /// reading one under another model is a typed error where a reader
    /// compares the two. Computed on first use and kept.
    pub fn fingerprint(&self) -> u32 {
        *self.fingerprint.get_or_init(|| {
            let mut book = self.trie_section();
            book.extend_from_slice(&self.huffman().code_lengths());
            crc32(&book)
        })
    }

    /// Serializes the trained model into a [`press_store`] container: the
    /// trie's per-node records, the canonical Huffman code lengths, the
    /// per-node distances of §5.1, the link arena, and the stop facts.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let trie = self.trie();
        let n = trie.num_nodes();
        let mut meta = ByteWriter::with_capacity(24);
        meta.put_u64(trie.theta() as u64);
        meta.put_u64(trie.alphabet_size() as u64);
        meta.put_u64(n as u64);
        let lens = self.huffman().code_lengths();
        let mut dist = ByteWriter::with_capacity(n * 8);
        for id in 0..n as u32 {
            dist.put_f64(self.node_dist(id));
        }
        let (off, edges) = self.link_arena().as_raw();
        let mut link = ByteWriter::with_capacity((off.len() + edges.len()) * 4);
        for &o in off {
            link.put_u32(o);
        }
        for e in edges {
            link.put_u32(e.0);
        }
        let stops = self.stop_facts();
        let mut stop = ByteWriter::with_capacity(stops.len() * 4);
        for e in stops {
            stop.put_u32(e.0);
        }
        let mut w = StoreWriter::new(kind::HSC_MODEL);
        w.section("meta", meta.into_bytes());
        w.section("trie", self.trie_section());
        w.section("hufflens", lens);
        w.section("node_dist", dist.into_bytes());
        w.section("node_link", link.into_bytes());
        w.section("node_stop", stop.into_bytes());
        w.to_bytes()
    }

    /// Writes the model artifact to `path` atomically (tmp + fsync +
    /// rename + parent-dir fsync); every failure is a typed
    /// [`press_store::StoreError::Io`].
    pub fn save_to(&self, path: &Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reassembles a model over `sp` from container bytes, checked as
    /// [`HscModel::load_from`] checks.
    pub fn from_store_bytes(
        sp: Arc<dyn SpProvider>,
        bytes: Vec<u8>,
    ) -> press_store::Result<HscModel> {
        Self::from_file(sp, StoreFile::from_bytes(bytes)?)
    }

    /// Loads a model artifact from `path` through a read-only mapping
    /// ([`StoreFile::open_mapped`]), validating the trie structure, the
    /// Huffman code lengths (Kraft equality) and the table sizes; folding
    /// the per-node tables out of the link arena (connected chains, no
    /// shortest-path call) and requiring the folded distances to equal
    /// the stored `node_dist` bit for bit; and checking that the arena's
    /// and the stop facts' `SPend` answers form one tree per source node. The model's edge alphabet must match `sp`'s
    /// network. A `node_mbr` section, which older writers emitted, is
    /// ignored: the rectangles are derived.
    pub fn load_from(sp: Arc<dyn SpProvider>, path: &Path) -> press_store::Result<HscModel> {
        Self::from_file(sp, StoreFile::open_mapped(path)?)
    }

    /// The one reader behind both loads.
    fn from_file(sp: Arc<dyn SpProvider>, file: StoreFile) -> press_store::Result<HscModel> {
        file.expect_kind(kind::HSC_MODEL)?;
        let mut meta = file.reader("meta")?;
        let theta = meta.get_len(u16::MAX as usize, "theta")?;
        let alphabet = meta.get_len(u32::MAX as usize, "alphabet")?;
        let num_nodes = meta.get_len(u32::MAX as usize, "trie node")?;
        meta.expect_end("meta")?;
        if alphabet != sp.network().num_edges() {
            return Err(StoreError::Corrupt(format!(
                "model alphabet {alphabet} != network edge count {}",
                sp.network().num_edges()
            )));
        }
        if num_nodes == 0 {
            return Err(StoreError::Corrupt("trie has no root".into()));
        }
        // Fixed-width sections decode in bulk, straight into the vectors
        // the model keeps.
        let records = fixed_records(&file, "trie", num_nodes - 1, TRIE_RECORD_BYTES)?;
        let trie = Trie::from_raw_parts(
            theta,
            alphabet,
            records.chunks_exact(TRIE_RECORD_BYTES).map(|r| {
                (
                    u32::from_le_bytes(le(r, 0)),
                    EdgeId(u32::from_le_bytes(le(r, 4))),
                    u16::from_le_bytes(le(r, 8)),
                    u64::from_le_bytes(le(r, 10)),
                )
            }),
        )
        .map_err(|e| StoreError::Corrupt(format!("trie: {e}")))?;
        let lens = file.section("hufflens")?.to_vec();
        if lens.len() != num_nodes - 1 {
            return Err(StoreError::Corrupt(format!(
                "{} Huffman code lengths for {} symbols",
                lens.len(),
                num_nodes - 1
            )));
        }
        validate_code_lengths(&lens)?;
        let huffman = Huffman::from_code_lengths(lens)
            .map_err(|e| StoreError::Corrupt(format!("huffman: {e}")))?;
        let node_dist = fixed_records(&file, "node_dist", num_nodes, 8)?;
        let raw = file.section("node_link")?;
        if raw.len() % 4 != 0 || raw.len() / 4 <= num_nodes {
            return Err(StoreError::Corrupt(format!(
                "node_link: {} bytes cannot hold {} u32 offsets and whole u32 edges",
                raw.len(),
                num_nodes + 1
            )));
        }
        let (off, edges) = raw.split_at((num_nodes + 1) * 4);
        let off: Vec<u32> = le_words(off).collect();
        let edges: Vec<EdgeId> = le_words(edges).map(EdgeId).collect();
        let node_link = LinkArena::from_raw(num_nodes, off, edges)
            .map_err(|e| StoreError::Corrupt(format!("node_link: {e}")))?;
        let raw = file.section("node_stop")?;
        if raw.len() % 4 != 0 {
            return Err(StoreError::Corrupt(format!(
                "node_stop: {} bytes are not whole u32 edges",
                raw.len()
            )));
        }
        let node_stop = le_words(raw).map(EdgeId).collect();
        let model = HscModel::from_parts(sp, trie, huffman, node_link, node_stop)
            .map_err(|e| StoreError::Corrupt(format!("node_link/node_stop: {e}")))?;
        // The stored distances are the arena's witness.
        for (node, d) in (0..).zip(node_dist.chunks_exact(8)) {
            let (stored, want) = (f64::from_le_bytes(le(d, 0)), model.node_dist(node));
            if stored.to_bits() != want.to_bits() {
                return Err(StoreError::Corrupt(format!(
                    "node_link: node {node} distance {stored} is not its chain's {want}"
                )));
            }
        }
        Ok(model)
    }
}

/// Bytes of one `trie` record: parent `u32`, edge `u32`, depth `u16`,
/// frequency `u64`.
const TRIE_RECORD_BYTES: usize = 18;

/// The payload of section `name`, which must hold exactly `count` records
/// of `width` bytes: a short one is `Truncated`, a long one `Corrupt` —
/// what a field-by-field read of it reports.
fn fixed_records<'f>(
    file: &'f StoreFile,
    name: &str,
    count: usize,
    width: usize,
) -> press_store::Result<&'f [u8]> {
    let raw = file.section(name)?;
    match count.checked_mul(width) {
        Some(want) if raw.len() > want => Err(StoreError::Corrupt(format!(
            "{} trailing bytes after {name}",
            raw.len() - want
        ))),
        Some(want) if raw.len() == want => Ok(raw),
        _ => Err(StoreError::Truncated { what: name.into() }),
    }
}

/// The `N` bytes of a fixed-width record at `at`, which the record's
/// width covers.
fn le<const N: usize>(record: &[u8], at: usize) -> [u8; N] {
    record[at..at + N]
        .try_into()
        .expect("a field inside its fixed-width record")
}

/// The little-endian `u32` words of `raw`, whose length the caller has
/// checked to be a multiple of four.
fn le_words(raw: &[u8]) -> impl Iterator<Item = u32> + '_ {
    raw.chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("chunks_exact(4)")))
}

/// Rejects code-length vectors that could not have come from a Huffman
/// build: lengths must be in `1..=64` and — for more than one symbol —
/// satisfy the Kraft **equality** `Σ 2^(64−len) == 2^64` (an optimal
/// prefix code wastes no code space). The single-symbol code is `0` with
/// length 1 by convention.
fn validate_code_lengths(lens: &[u8]) -> press_store::Result<()> {
    if lens.len() == 1 {
        if lens[0] != 1 {
            return Err(StoreError::Corrupt(format!(
                "single-symbol code must have length 1, got {}",
                lens[0]
            )));
        }
        return Ok(());
    }
    let mut kraft: u128 = 0;
    for &l in lens {
        if !(1..=64).contains(&l) {
            return Err(StoreError::Corrupt(format!(
                "Huffman code length {l} outside 1..=64"
            )));
        }
        kraft += 1u128 << (64 - l as u32);
    }
    if kraft != 1u128 << 64 {
        return Err(StoreError::Corrupt(
            "Huffman code lengths violate the Kraft equality".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Block-oriented compressed-trajectory store
// ---------------------------------------------------------------------

/// Per-block metadata consulted before any decompression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSynopsis {
    /// Union MBR of the block's trajectories' spatial extents
    /// (conservative, from per-unit rectangles).
    pub mbr: Mbr,
    /// Earliest observed timestamp in the block.
    pub t0: f64,
    /// Latest observed timestamp in the block.
    pub t1: f64,
    /// Index of the block's first trajectory.
    pub start: usize,
    /// Number of trajectories in the block.
    pub len: usize,
}

impl BlockSynopsis {
    /// The synopsis as a leaf of the [`SynopsisIndex`] hierarchy.
    fn index_entry(&self) -> IndexEntry {
        IndexEntry::new(
            self.mbr.min_x,
            self.mbr.min_y,
            self.mbr.max_x,
            self.mbr.max_y,
            self.t0,
            self.t1,
        )
    }
}

/// `blk{b}`, the section name of block `b`.
fn block_name(b: usize) -> String {
    format!("blk{b}")
}

/// The `b` of a section named [`block_name`]`(b)`, spelled exactly as
/// the writer spells it (no sign, no leading zero); `None` for any other
/// name.
fn block_index(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("blk")?;
    if !digits.bytes().all(|c| c.is_ascii_digit()) || (digits.starts_with('0') && digits != "0") {
        return None;
    }
    digits.parse().ok()
}

/// Bytes of one block's `synopsis` record.
const SYNOPSIS_RECORD: usize = 64;

/// Block `b`'s `synopsis` record, decoded from its place in the section:
/// the MBR, `t0` and `t1` as six `f64`s, then the block's start and
/// length as `u64`s, which must not exceed `len` and `block_size`.
fn synopsis_record(
    raw: &[u8],
    b: usize,
    len: usize,
    block_size: usize,
) -> press_store::Result<BlockSynopsis> {
    let at = b * SYNOPSIS_RECORD;
    let Some(record) = raw.get(at..at + SYNOPSIS_RECORD) else {
        // Cut short: a field-by-field read names the error.
        let mut r = ByteReader::new(raw.get(at..).unwrap_or_default());
        return Ok(BlockSynopsis {
            mbr: Mbr {
                min_x: r.get_f64()?,
                min_y: r.get_f64()?,
                max_x: r.get_f64()?,
                max_y: r.get_f64()?,
            },
            t0: r.get_f64()?,
            t1: r.get_f64()?,
            start: r.get_len(len, "block start")?,
            len: r.get_len(block_size, "block length")?,
        });
    };
    let f = |i: usize| f64::from_le_bytes(le(record, 8 * i));
    let mut counts = ByteReader::new(&record[48..]);
    Ok(BlockSynopsis {
        mbr: Mbr {
            min_x: f(0),
            min_y: f(1),
            max_x: f(2),
            max_y: f(3),
        },
        t0: f(4),
        t1: f(5),
        start: counts.get_len(len, "block start")?,
        len: counts.get_len(block_size, "block length")?,
    })
}

/// Section-table slot of each `blk{b}`, `b < num_blocks`; see
/// [`scan_block_slots`] for what a table that lacks a block gives.
///
/// The writer emits `blk0, blk1, …` back to back after its other
/// sections. When the table's first block name is `blk0` and the run from
/// it spells the counter ([`StoreFile::is_numbered_run`]), block `b` sits
/// `b` slots after it and no name is parsed. Any other table takes the
/// scan.
fn block_slots(file: &StoreFile, num_blocks: usize) -> Vec<usize> {
    let first = file
        .section_names()
        .position(|name| block_index(name).is_some());
    match first {
        Some(first) if file.is_numbered_run(first, "blk", num_blocks) => {
            (first..first + num_blocks).collect()
        }
        _ => scan_block_slots(file, num_blocks),
    }
}

/// Every block's section, resolved in one pass that parses each name in
/// the table: file order, so the first of (malformed) duplicate names
/// wins, as in `section_slot`. A block without a section reads
/// `usize::MAX`, and a table shorter than the block count is cut to its
/// length (it lacks some block either way).
fn scan_block_slots(file: &StoreFile, num_blocks: usize) -> Vec<usize> {
    let mut slots = vec![usize::MAX; num_blocks.min(file.section_count())];
    for (slot, name) in file.section_names().enumerate() {
        if let Some(s) = block_index(name).and_then(|b| slots.get_mut(b)) {
            if *s == usize::MAX {
                *s = slot;
            }
        }
    }
    slots
}

/// A block-oriented on-disk store of compressed trajectories; see the
/// module docs for the skipping semantics.
pub struct TrajectoryStore {
    file: StoreFile,
    block_size: usize,
    len: usize,
    model_fingerprint: u32,
    blocks: Vec<BlockSynopsis>,
    /// Section-table slot of each `blk{b}`, resolved once at open.
    block_slots: Vec<usize>,
    /// Packed hierarchy over the block synopses, rebuilt from them at
    /// open.
    index: SynopsisIndex,
    blocks_decoded: AtomicU64,
    blocks_skipped: AtomicU64,
}

impl TrajectoryStore {
    /// Serializes a compressed corpus into container bytes, computing
    /// per-block synopses through `engine` (whose model must be the one
    /// that produced the trajectories).
    pub fn to_store_bytes(
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
    ) -> Result<Vec<u8>> {
        Self::to_store_bytes_with_extra(engine, trajectories, block_size, Vec::new())
    }

    /// [`TrajectoryStore::to_store_bytes`] plus caller-owned **extra
    /// sections** written after the block directory (and before the
    /// blocks). Extra sections ride the container's CRC framing but are
    /// opaque to the store itself — readers that don't know a name
    /// ignore it (the store loader tolerates unknown sections), and
    /// writers that know it read it back via
    /// [`TrajectoryStore::extra_section`]. press-serve uses this to
    /// persist each ingest shard's canonical merge keys inside its
    /// corpus shard file. Names must not collide with the store's own
    /// sections (`meta`, `synopsis`, `index`, `blk<n>`).
    pub fn to_store_bytes_with_extra(
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
        extra: Vec<(String, Vec<u8>)>,
    ) -> Result<Vec<u8>> {
        for (name, _) in &extra {
            let reserved = name == "meta"
                || name == "synopsis"
                || name == "index"
                || (name.starts_with("blk") && name[3..].chars().all(|c| c.is_ascii_digit()));
            if reserved {
                return Err(PressError::InvalidConfig(format!(
                    "extra section name {name:?} collides with a store section"
                )));
            }
        }
        if block_size == 0 {
            return Err(PressError::InvalidConfig(
                "block_size must be at least 1".into(),
            ));
        }
        let num_blocks = trajectories.len().div_ceil(block_size);
        let mut synopsis = ByteWriter::with_capacity(num_blocks * 64);
        let mut w = StoreWriter::new(kind::TRAJECTORY_STORE);
        let mut meta = ByteWriter::with_capacity(32);
        meta.put_u64(trajectories.len() as u64);
        meta.put_u64(block_size as u64);
        meta.put_u64(num_blocks as u64);
        meta.put_u32(RECORD_FORMAT);
        meta.put_u32(engine.model().fingerprint());
        let mut payloads = Vec::with_capacity(num_blocks);
        for (b, chunk) in trajectories.chunks(block_size).enumerate() {
            let mut mbr = Mbr::empty();
            let mut t0 = f64::INFINITY;
            let mut t1 = f64::NEG_INFINITY;
            for ct in chunk {
                mbr.expand(&engine.spatial_mbr(&ct.spatial)?);
                if let Some((a, b)) = ct.temporal.time_range() {
                    t0 = t0.min(a);
                    t1 = t1.max(b);
                }
            }
            synopsis.put_f64(mbr.min_x);
            synopsis.put_f64(mbr.min_y);
            synopsis.put_f64(mbr.max_x);
            synopsis.put_f64(mbr.max_y);
            synopsis.put_f64(t0);
            synopsis.put_f64(t1);
            synopsis.put_u64((b * block_size) as u64);
            synopsis.put_u64(chunk.len() as u64);
            payloads.push(record::encode_block(chunk));
        }
        w.section("meta", meta.into_bytes());
        // The block directory is already fixed-width (64 B per block);
        // writing it 8-byte aligned makes it the store's flat section, so
        // a mapped open walks it in place. Alignment gaps are invisible
        // to readers (sections are addressed via the table offset).
        w.section_aligned("synopsis", synopsis.into_bytes());
        for (name, payload) in extra {
            w.section(&name, payload);
        }
        for (b, payload) in payloads.into_iter().enumerate() {
            w.section(&block_name(b), payload);
        }
        Ok(w.to_bytes())
    }

    /// Writes a compressed corpus to `path` as a block store,
    /// atomically (tmp + fsync + rename + parent-dir fsync).
    pub fn create(
        path: &Path,
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
    ) -> Result<()> {
        let bytes = Self::to_store_bytes(engine, trajectories, block_size)?;
        press_store::atomic_write_file(&press_store::RealIo, path, &bytes)
            .map_err(StoreError::from)?;
        Ok(())
    }

    /// Opens a store from container bytes, validating the synopsis table.
    pub fn from_store_bytes(bytes: Vec<u8>) -> Result<TrajectoryStore> {
        Self::from_file(StoreFile::from_bytes(bytes)?)
    }

    /// Opens a store over an already-opened container: the shared
    /// validation path of [`TrajectoryStore::from_store_bytes`]
    /// and [`TrajectoryStore::open_mapped`].
    fn from_file(file: StoreFile) -> Result<TrajectoryStore> {
        file.expect_kind(kind::TRAJECTORY_STORE)?;
        let mut meta = file.reader("meta")?;
        let len = meta.get_len(u32::MAX as usize, "trajectory")?;
        let block_size = meta.get_len(u32::MAX as usize, "block size")?;
        let num_blocks = meta.get_len(u32::MAX as usize, "block")?;
        // The fixed-width records of earlier builds came with a `meta`
        // that ends here; they, and format 2's run-less spatial codes,
        // must never be parsed as this format.
        let record_format = if meta.remaining() == 0 {
            1
        } else {
            meta.get_u32()?
        };
        if record_format != RECORD_FORMAT {
            return Err(StoreError::Corrupt(format!(
                "record format {record_format}: this build reads record format {RECORD_FORMAT}"
            ))
            .into());
        }
        let model_fingerprint = meta.get_u32()?;
        meta.expect_end("meta")?;
        if block_size == 0 || num_blocks != len.div_ceil(block_size) {
            return Err(StoreError::Corrupt(format!(
                "{num_blocks} blocks of size {block_size} cannot hold {len} trajectories"
            ))
            .into());
        }
        let synopsis = file.section("synopsis")?;
        let block_slots = block_slots(&file, num_blocks);
        let mut blocks = Vec::with_capacity(num_blocks);
        for b in 0..num_blocks {
            let block = synopsis_record(synopsis, b, len, block_size)?;
            let (start, blen) = (block.start, block.len);
            let expected_start = b * block_size;
            let expected_len = block_size.min(len - expected_start);
            if start != expected_start || blen != expected_len {
                return Err(StoreError::Corrupt(format!(
                    "block {b} covers [{start}, {start}+{blen}) instead of \
                     [{expected_start}, {expected_start}+{expected_len})"
                ))
                .into());
            }
            if block_slots.get(b).is_none_or(|&s| s == usize::MAX) {
                return Err(StoreError::MissingSection(block_name(b)).into());
            }
            blocks.push(block);
        }
        // Every record was read whole, so this cannot underflow.
        let extra = synopsis.len() - num_blocks * SYNOPSIS_RECORD;
        if extra > 0 {
            return Err(
                StoreError::Corrupt(format!("{extra} trailing bytes after synopsis")).into(),
            );
        }
        let index = SynopsisIndex::build(
            blocks.iter().map(|b| b.index_entry()).collect(),
            DEFAULT_BRANCHING,
        );
        Ok(TrajectoryStore {
            file,
            block_size,
            len,
            model_fingerprint,
            blocks,
            block_slots,
            index,
            blocks_decoded: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
        })
    }

    /// Opens a store file through the zero-copy mapped tier: the corpus
    /// payload stays on disk behind a read-only mapping, so open cost is
    /// the metadata walk (header, block directory, synopsis index) —
    /// block payloads are faulted in and CRC-validated only when a query
    /// first decodes them, and a corrupted block surfaces then as a typed
    /// [`StoreError::ChecksumMismatch`], never a wrong answer. Answers
    /// are bit-identical to [`TrajectoryStore::from_store_bytes`] over the
    /// same bytes.
    pub fn open_mapped(path: &Path) -> Result<TrajectoryStore> {
        Self::from_file(StoreFile::open_mapped(path)?)
    }

    /// Number of trajectories in the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Trajectories per (full) block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Synopsis of block `b`.
    pub fn synopsis(&self, b: usize) -> &BlockSynopsis {
        &self.blocks[b]
    }

    /// `(blocks decoded, blocks skipped via synopsis)` so far — the
    /// observable effect of data skipping.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.blocks_decoded.load(Ordering::Relaxed),
            self.blocks_skipped.load(Ordering::Relaxed),
        )
    }

    /// What the corpus was coded under: the writing model's
    /// [`HscModel::fingerprint`], from `meta`.
    pub fn model_fingerprint(&self) -> u32 {
        self.model_fingerprint
    }

    /// The CRC-checked payload of block `b`, split into its records.
    fn block(&self, b: usize) -> Result<record::Block<'_>> {
        let payload = self.file.section_at(self.block_slots[b])?;
        Ok(record::Block::parse(payload, self.blocks[b].len)?)
    }

    /// Decodes every block, returning the whole corpus in index order.
    /// Used by crash recovery (press-serve rebuilds its in-memory
    /// finished list from the last checkpoint).
    pub fn decode_all(&self) -> Result<Vec<CompressedTrajectory>> {
        let mut out = Vec::with_capacity(self.len);
        for b in 0..self.blocks.len() {
            for rec in self.block(b)?.records() {
                out.push(record::decode(rec)?);
            }
        }
        Ok(out)
    }

    /// The compressed trajectory at `idx`, decoding only its record
    /// (counted as one decoded block in [`TrajectoryStore::io_stats`]).
    pub fn get(&self, idx: usize) -> Result<CompressedTrajectory> {
        if idx >= self.len {
            return Err(PressError::OutOfDomain(format!(
                "trajectory {idx} out of range 0..{}",
                self.len
            )));
        }
        let rec = self
            .block(idx / self.block_size)?
            .records()
            .nth(idx % self.block_size)
            .expect("the directory holds one length per trajectory of the block");
        let ct = record::decode(rec)?;
        self.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        Ok(ct)
    }

    /// `whereat` on trajectory `idx`: decodes only its record and answers
    /// identically to [`QueryEngine::whereat`] on the in-memory
    /// trajectory.
    pub fn whereat(&self, engine: &QueryEngine<'_>, idx: usize, t: f64) -> Result<Point> {
        engine.whereat(&self.get(idx)?, t)
    }

    /// `whenat` on trajectory `idx`. The containing block's synopsis is
    /// consulted first: a probe farther than `tolerance` from the block
    /// MBR cannot lie on any of its trajectories, so nothing is decoded
    /// at all (same `OutOfDomain` answer, zero I/O).
    pub fn whenat(
        &self,
        engine: &QueryEngine<'_>,
        idx: usize,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        if idx < self.len
            && self.blocks[idx / self.block_size].mbr.min_dist_to_point(&p) > tolerance
        {
            self.blocks_skipped.fetch_add(1, Ordering::Relaxed);
            return Err(PressError::OutOfDomain(format!(
                "point ({}, {}) not on the trajectory (tolerance {tolerance})",
                p.x, p.y
            )));
        }
        engine.whenat(&self.get(idx)?, p, tolerance)
    }

    /// Indices of all trajectories whose observed time span overlaps
    /// `[t1, t2]` and that pass through `region` within it
    /// ([`QueryEngine::range`]). The query descends the packed
    /// [`SynopsisIndex`] hierarchy — O(log #blocks) directory entries
    /// for a selective query instead of the linear scan's O(#blocks) —
    /// and decodes only the candidate blocks. Because the hierarchy's
    /// leaves are the block synopses and every interior entry is a
    /// conservative union, the candidate set (and thus the answer)
    /// equals [`TrajectoryStore::range_linear`], which equals the
    /// brute-force scan over every trajectory; `io_stats` accounting is
    /// identical too. A NaN bound in `[t1, t2]` is
    /// [`PressError::OutOfDomain`], on both paths.
    pub fn range(
        &self,
        engine: &QueryEngine<'_>,
        t1: f64,
        t2: f64,
        region: &Mbr,
    ) -> Result<Vec<usize>> {
        let (lo, hi) = time_window(t1, t2)?;
        let probe = IndexEntry::new(
            region.min_x,
            region.min_y,
            region.max_x,
            region.max_y,
            lo,
            hi,
        );
        let candidates = self.index.candidates(&probe);
        self.blocks_skipped.fetch_add(
            (self.blocks.len() - candidates.len()) as u64,
            Ordering::Relaxed,
        );
        let mut hits = Vec::new();
        let mut scratch = RangeScratch::default();
        for b in candidates {
            self.range_in_block(engine, b, (lo, hi), region, &mut scratch, &mut hits)?;
        }
        Ok(hits)
    }

    /// [`TrajectoryStore::range`] via the pre-index linear directory
    /// scan: every block synopsis is tested in order. Kept as the
    /// reference path — the benchmarks measure and verify the indexed
    /// descent against it, and the equality
    /// `range(..) == range_linear(..)` is the store's correctness
    /// oracle in tests.
    pub fn range_linear(
        &self,
        engine: &QueryEngine<'_>,
        t1: f64,
        t2: f64,
        region: &Mbr,
    ) -> Result<Vec<usize>> {
        let (lo, hi) = time_window(t1, t2)?;
        let mut hits = Vec::new();
        let mut scratch = RangeScratch::default();
        for (b, syn) in self.blocks.iter().enumerate() {
            if syn.t1 < lo || syn.t0 > hi || !syn.mbr.intersects(region) {
                self.blocks_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.range_in_block(engine, b, (lo, hi), region, &mut scratch, &mut hits)?;
        }
        Ok(hits)
    }

    /// Appends block `b`'s qualifying trajectory indices — the shared
    /// per-block half of both range paths, so indexed and linear answers
    /// can only differ in which blocks they *consider*. A record whose
    /// time span misses the window is skipped from its `t` column alone;
    /// the others decode into the call's one scratch record.
    fn range_in_block(
        &self,
        engine: &QueryEngine<'_>,
        b: usize,
        (lo, hi): (f64, f64),
        region: &Mbr,
        scratch: &mut RangeScratch,
        hits: &mut Vec<usize>,
    ) -> Result<()> {
        let start = self.blocks[b].start;
        let RangeScratch { record: ct, units } = scratch;
        for (i, rec) in self.block(b)?.records().enumerate() {
            if record::decode_into(rec, Some((lo, hi)), ct)?
                && engine.range_with(ct, lo, hi, region, units)?
            {
                hits.push(start + i);
            }
        }
        self.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The packed synopsis hierarchy the range path descends.
    pub fn synopsis_index(&self) -> &SynopsisIndex {
        &self.index
    }

    /// The bytes of a caller-owned extra section (see
    /// [`TrajectoryStore::to_store_bytes_with_extra`]), or `None` when
    /// the file predates the writer that adds it. A present-but-corrupt
    /// section is a typed error, never silently absent.
    pub fn extra_section(&self, name: &str) -> Result<Option<&[u8]>> {
        if !self.file.has_section(name) {
            return Ok(None);
        }
        Ok(Some(self.file.section(name)?))
    }
}

/// What one range call reuses record after record: the decoded record
/// and the engine's unit buffers.
#[derive(Default)]
struct RangeScratch {
    record: CompressedTrajectory,
    units: UnitBuffers,
}

impl std::fmt::Debug for TrajectoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (decoded, skipped) = self.io_stats();
        f.debug_struct("TrajectoryStore")
            .field("trajectories", &self.len)
            .field("blocks", &self.blocks.len())
            .field("block_size", &self.block_size)
            .field("blocks_decoded", &decoded)
            .field("blocks_skipped", &skipped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::press::{Press, PressConfig};
    use crate::types::{DtPoint, SpatialPath, TemporalSequence, Trajectory};
    use press_network::{grid_network, GridConfig, NodeId, SpBackend, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (Press, Vec<Trajectory>, Vec<CompressedTrajectory>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 7,
            ny: 7,
            weight_jitter: 0.12,
            seed: 31,
            ..GridConfig::default()
        }));
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(8);
        let mut paths = Vec::new();
        while paths.len() < 40 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            if let Some(p) = press_network::dijkstra(&net, a).edge_path_to(&net, b) {
                if p.len() >= 5 {
                    paths.push(p);
                }
            }
        }
        let press = Press::train(sp, &paths, PressConfig::default()).unwrap();
        let trajs: Vec<Trajectory> = paths
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let mut pts = Vec::new();
                let mut d = 0.0;
                // Stagger start times so time-span synopses differ; fixes
                // arrive on a fleet's whole-second clock.
                let mut t = (k as f64) * 500.0;
                while d < total {
                    pts.push(DtPoint::new(d, t));
                    d = (d + rng.gen_range(20.0f64..50.0)).min(total);
                    t += rng.gen_range(3u32..7) as f64;
                }
                pts.push(DtPoint::new(total, t));
                Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(pts).unwrap(),
                )
            })
            .collect();
        let compressed = trajs.iter().map(|t| press.compress(t).unwrap()).collect();
        (press, trajs, compressed)
    }

    #[test]
    fn model_store_roundtrip_is_bit_identical() {
        let (press, trajs, compressed) = fixture();
        let model = press.model();
        let sp = model.sp().clone();
        let loaded = HscModel::from_store_bytes(sp, model.to_store_bytes()).unwrap();
        // Structure.
        let (a, b) = (model.trie(), loaded.trie());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.theta(), b.theta());
        assert_eq!(a.alphabet_size(), b.alphabet_size());
        for id in a.node_ids() {
            assert_eq!(a.parent(id), b.parent(id));
            assert_eq!(a.last_edge(id), b.last_edge(id));
            assert_eq!(a.first_edge(id), b.first_edge(id));
            assert_eq!(a.depth(id), b.depth(id));
            assert_eq!(a.freq(id), b.freq(id));
            assert_eq!(a.chain(id).as_slice(), b.chain(id).as_slice());
            assert_eq!(
                model.node_dist(id).to_bits(),
                loaded.node_dist(id).to_bits()
            );
            assert_eq!(model.node_mbr(id), loaded.node_mbr(id));
        }
        // Every transition, from every node (the root included) over every
        // edge label and one past the alphabet.
        let mut found = 0;
        for id in std::iter::once(Trie::ROOT).chain(a.node_ids()) {
            for e in 0..=a.alphabet_size() as u32 {
                let child = a.child(id, EdgeId(e));
                assert_eq!(child, b.child(id, EdgeId(e)), "child({id}, e{e})");
                found += usize::from(child.is_some());
            }
        }
        assert_eq!(found, a.num_nodes() - 1, "every node is one transition");
        for e in 0..a.alphabet_size() as u32 {
            assert_eq!(a.level1(EdgeId(e)), b.level1(EdgeId(e)));
        }
        assert_eq!(
            model.huffman().code_lengths(),
            loaded.huffman().code_lengths()
        );
        // Behavior: identical compression bits and lossless roundtrip.
        for (traj, ct) in trajs.iter().zip(&compressed) {
            let again = loaded.compress(&traj.path.edges).unwrap();
            assert_eq!(ct.spatial, again);
            assert_eq!(loaded.decompress(&again).unwrap(), traj.path.edges);
        }
    }

    /// A file the previous writer produced carries a `node_mbr` section
    /// after `node_dist`: it loads to the trained tables, because the
    /// rectangles are folded from the arena and the section is ignored —
    /// also when it has been rewritten, CRC and all, to rectangles that
    /// no longer cover their nodes' sub-trajectories.
    #[test]
    fn model_store_loads_parent_format_files() {
        let (press, _, _) = fixture();
        let model = press.model();
        let file = StoreFile::from_bytes(model.to_store_bytes()).unwrap();
        assert!(
            !file.has_section("node_mbr"),
            "the writer emits no node_mbr"
        );
        let bits = |m: &Mbr| [m.min_x, m.min_y, m.max_x, m.max_y].map(f64::to_bits);
        let nodes = 0..model.trie().num_nodes() as u32;
        for shrunk in [false, true] {
            let mut mbr = ByteWriter::new();
            for m in nodes.clone().map(|id| model.node_mbr(id)) {
                let max = if shrunk {
                    [m.min_x, m.min_y]
                } else {
                    [m.max_x, m.max_y]
                };
                for v in [m.min_x, m.min_y, max[0], max[1]] {
                    mbr.put_f64(v);
                }
            }
            let mbr = mbr.into_bytes();
            let mut w = StoreWriter::new(file.kind());
            for name in file.section_names() {
                w.section(name, file.section(name).unwrap().to_vec());
                if name == "node_dist" {
                    w.section("node_mbr", mbr.clone());
                }
            }
            let loaded = HscModel::from_store_bytes(model.sp().clone(), w.to_bytes()).unwrap();
            for id in nodes.clone() {
                let (a, b) = (model.node_dist(id), loaded.node_dist(id));
                assert_eq!(a.to_bits(), b.to_bits(), "node {id}");
                let (a, b) = (model.node_mbr(id), loaded.node_mbr(id));
                assert_eq!(bits(a), bits(b), "node {id}, shrunk {shrunk}");
            }
        }
    }

    #[test]
    fn model_store_rejects_a_different_network() {
        let (press, _, _) = fixture();
        let model = press.model();
        let bytes = model.to_store_bytes();
        // A different edge alphabet.
        let other = Arc::new(grid_network(&GridConfig {
            nx: 3,
            ny: 3,
            seed: 1,
            ..GridConfig::default()
        }));
        let other_sp: Arc<dyn SpProvider> = SpBackend::Dense.build(other);
        assert!(matches!(
            HscModel::from_store_bytes(other_sp, bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// The `node_link` and `node_stop` sections are loaded, never
    /// recomputed: opening the model asks the shortest-path layer
    /// nothing, and the loaded model re-saves to the very bytes it came
    /// from.
    #[test]
    fn node_link_and_node_stop_load_sp_free() {
        use crate::spatial::node_link_tests::CountingSp;
        let (press, trajs, compressed) = fixture();
        let model = press.model();
        let bytes = model.to_store_bytes();
        let sp = CountingSp::over(model.sp().clone());
        let loaded = HscModel::from_store_bytes(sp.clone(), bytes.clone()).unwrap();
        assert_eq!(sp.calls(), 0, "opening a model makes no SP call");
        assert_eq!(loaded.to_store_bytes(), bytes);
        for (traj, ct) in trajs.iter().zip(&compressed) {
            assert_eq!(loaded.compress(&traj.path.edges).unwrap(), ct.spatial);
            assert_eq!(
                loaded.decompress(&ct.spatial).unwrap(),
                model.decompress(&ct.spatial).unwrap()
            );
        }
    }

    /// A model file has one shape: without `node_link`, `node_stop` or
    /// both, the load is a typed `MissingSection` naming the first one it
    /// needs — never a model rebuilt through the shortest-path layer.
    #[test]
    fn node_link_or_node_stop_absent_is_missing_section() {
        use crate::spatial::node_link_tests::CountingSp;
        let (press, _, _) = fixture();
        let model = press.model();
        let file = StoreFile::from_bytes(model.to_store_bytes()).unwrap();
        for (dropped, named) in [
            (&["node_link"][..], "node_link"),
            (&["node_stop"], "node_stop"),
            (&["node_link", "node_stop"], "node_link"),
        ] {
            let sp = CountingSp::over(model.sp().clone());
            let bytes = file
                .rewrite_sections(|name, p| (!dropped.contains(&name)).then(|| p.to_vec()))
                .unwrap();
            match HscModel::from_store_bytes(sp.clone(), bytes) {
                Err(StoreError::MissingSection(got)) => assert_eq!(got, named, "{dropped:?}"),
                other => panic!("{dropped:?}: got {:?}", other.map(|_| "a model")),
            }
            assert_eq!(sp.calls(), 0, "{dropped:?}");
        }
    }

    /// A CRC-valid but malformed `node_stop` section is a typed
    /// `Corrupt`.
    #[test]
    fn node_stop_section_rejects_malformed_payloads() {
        let (press, _, _) = fixture();
        let model = press.model();
        let file = StoreFile::from_bytes(model.to_store_bytes()).unwrap();
        let stops: Vec<u32> = le_words(file.section("node_stop").unwrap()).collect();
        assert!(stops.iter().any(|&g| g != u32::MAX), "fixture has stops");
        let with_stops = |words: &[u32], tail: &[u8]| {
            let mut payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            payload.extend_from_slice(tail);
            let bad = file
                .rewrite_sections(|name, p| {
                    Some(if name == "node_stop" {
                        payload.clone()
                    } else {
                        p.to_vec()
                    })
                })
                .unwrap();
            HscModel::from_store_bytes(model.sp().clone(), bad)
        };
        with_stops(&stops, &[]).expect("the untouched rewrite loads");
        let corrupt = |r: press_store::Result<HscModel>, what: &str| {
            assert!(matches!(r, Err(StoreError::Corrupt(_))), "{what}");
        };
        corrupt(with_stops(&stops[1..], &[]), "one fact short");
        corrupt(with_stops(&stops, &[0, 0]), "ragged tail");
        let mut long = stops.clone();
        long.push(u32::MAX);
        corrupt(with_stops(&long, &[]), "one fact too many");
        let at = stops.iter().position(|&g| g != u32::MAX).unwrap();
        let net = model.sp().network();
        let mut bad = stops.clone();
        bad[at] = net.num_edges() as u32;
        corrupt(with_stops(&bad, &[]), "outside the alphabet");
        let head = net.edge(EdgeId(stops[at])).to;
        bad[at] = (0..net.num_edges() as u32)
            .find(|&g| net.edge(EdgeId(g)).to != head)
            .unwrap();
        corrupt(with_stops(&bad, &[]), "not an in-edge of the pair's head");
    }

    /// Each rule the `trie` records must satisfy, broken once in a
    /// CRC-valid rewrite of `hsc.press`: the load refuses with
    /// `Corrupt("trie: …")` and the rule's own message.
    #[test]
    fn trie_refusal_matrix() {
        let (press, _, _) = fixture();
        let model = press.model();
        let trie = model.trie();
        let (theta, alphabet) = (trie.theta(), trie.alphabet_size());
        let file = StoreFile::from_bytes(model.to_store_bytes()).unwrap();
        let records: Vec<(u32, u32, u16, u64)> = file
            .section("trie")
            .unwrap()
            .chunks_exact(TRIE_RECORD_BYTES)
            .map(|r| {
                (
                    u32::from_le_bytes(r[0..4].try_into().unwrap()),
                    u32::from_le_bytes(r[4..8].try_into().unwrap()),
                    u16::from_le_bytes(r[8..10].try_into().unwrap()),
                    u64::from_le_bytes(r[10..18].try_into().unwrap()),
                )
            })
            .collect();
        // The rewrite carries `theta` in its `meta`: the records need no
        // more than their deepest node.
        let load = |theta: usize, recs: &[(u32, u32, u16, u64)]| {
            let mut meta = ByteWriter::with_capacity(24);
            meta.put_u64(theta as u64);
            meta.put_u64(alphabet as u64);
            meta.put_u64(recs.len() as u64 + 1);
            let mut payload = ByteWriter::with_capacity(recs.len() * TRIE_RECORD_BYTES);
            for &(parent, edge, depth, freq) in recs {
                payload.put_u32(parent);
                payload.put_u32(edge);
                payload.put_u16(depth);
                payload.put_u64(freq);
            }
            let (meta, payload) = (meta.into_bytes(), payload.into_bytes());
            let bytes = file
                .rewrite_sections(|name, p| match name {
                    "meta" => Some(meta.clone()),
                    "trie" => Some(payload.clone()),
                    _ => Some(p.to_vec()),
                })
                .unwrap();
            HscModel::from_store_bytes(model.sp().clone(), bytes)
        };
        let tight = records.iter().map(|r| r.2).max().unwrap();
        load(theta, &records).expect("the untouched rewrite loads");
        load(tight as usize, &records).expect("θ = the deepest node's depth loads");
        let id = |at: usize| at as u32 + 1;
        let at_depth = |d: u16| records.iter().position(|r| r.2 == d).unwrap();
        let deep = at_depth(2);
        let last = records.len() - 1;
        let top = at_depth(tight);
        assert!(top < last && records[last].2 >= 2, "fixture shape");
        // Two depth ≥ 2 siblings: the later one takes the earlier's label.
        let (older, younger) = (alphabet..records.len())
            .flat_map(|a| (a + 1..records.len()).map(move |b| (a, b)))
            .find(|&(a, b)| records[a].0 == records[b].0)
            .unwrap();
        assert!(younger < last, "fixture shape");
        type Edit = Box<dyn Fn(&mut Vec<(u32, u32, u16, u64)>)>;
        let cases: Vec<(usize, Edit, String)> = vec![
            (
                theta,
                Box::new(move |r| r[deep].0 = id(deep)),
                format!("node {0} has non-prior parent {0}", id(deep)),
            ),
            (
                theta,
                Box::new(move |r| r[deep].1 = alphabet as u32),
                format!(
                    "node {} labelled with out-of-alphabet e{alphabet}",
                    id(deep)
                ),
            ),
            (
                theta,
                Box::new(move |r| r[deep].2 = 3),
                format!("node {} depth 3 != parent depth + 1 (2)", id(deep)),
            ),
            (
                tight as usize,
                Box::new(move |r| {
                    r[last].0 = id(top);
                    r[last].2 = tight + 1;
                }),
                format!("node {} deeper than theta {tight}", id(last)),
            ),
            (
                theta,
                Box::new(|r| r.swap(0, 1)),
                "node 1 must be the level-1 node of edge e0 (complete first level)".into(),
            ),
            (
                theta,
                Box::new(|r| {
                    r[4].0 = 1;
                    r[4].2 = 2;
                }),
                "node 5 must be the level-1 node of edge e4 (complete first level)".into(),
            ),
            (
                theta,
                Box::new(move |r| r.truncate(alphabet - 1)),
                format!(
                    "{} nodes cannot hold a complete {alphabet}-edge first level",
                    alphabet - 1
                ),
            ),
            (
                theta,
                Box::new(move |r| r[last] = (0, 4, 1, 0)),
                format!("node {} duplicates child e4 of 0", id(last)),
            ),
            (
                theta,
                Box::new(move |r| r[younger].1 = r[older].1),
                format!(
                    "node {} duplicates child e{} of {}",
                    id(younger),
                    records[older].1,
                    records[older].0
                ),
            ),
            // The first refusal in id order wins, even when it is a
            // duplicate only the child index sees and a later node breaks
            // a rule checked record by record.
            (
                theta,
                Box::new(move |r| {
                    r[younger].1 = r[older].1;
                    r[last].2 = 9;
                }),
                format!(
                    "node {} duplicates child e{} of {}",
                    id(younger),
                    records[older].1,
                    records[older].0
                ),
            ),
        ];
        for (theta, edit, message) in cases {
            let mut recs = records.clone();
            edit(&mut recs);
            match load(theta, &recs) {
                Err(StoreError::Corrupt(got)) => assert_eq!(got, format!("trie: {message}")),
                other => panic!("{message}: got {other:?}"),
            }
        }
    }

    #[test]
    fn code_length_validation() {
        assert!(validate_code_lengths(&[1]).is_ok());
        assert!(validate_code_lengths(&[2]).is_err());
        assert!(validate_code_lengths(&[1, 2, 2]).is_ok());
        assert!(validate_code_lengths(&[1, 2, 3]).is_err()); // underfull
        assert!(validate_code_lengths(&[1, 1, 1]).is_err()); // overfull
        assert!(validate_code_lengths(&[0, 1]).is_err());
        assert!(validate_code_lengths(&[65, 1]).is_err());
    }

    #[test]
    fn trajectory_store_roundtrip_and_block_addressing() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 8).unwrap();
        let store = TrajectoryStore::from_store_bytes(bytes).unwrap();
        assert_eq!(store.len(), compressed.len());
        assert_eq!(store.num_blocks(), compressed.len().div_ceil(8));
        for (i, ct) in compressed.iter().enumerate() {
            assert_eq!(store.get(i).unwrap(), *ct, "trajectory {i} roundtrip");
        }
        // A point read decodes its one record and counts as one block.
        let before = store.io_stats().0;
        let _ = store.get(3).unwrap();
        let _ = store.get(5).unwrap();
        assert_eq!(store.io_stats().0, before + 2);
        assert!(store.get(compressed.len()).is_err());
        assert_eq!(
            store.model_fingerprint(),
            press.model().fingerprint(),
            "meta names the model the corpus was coded under"
        );
        // An open resolves block sections by parsing the names the writer
        // spells, and nothing else.
        for b in [0, 7, 10, 99, 12_499, usize::MAX] {
            assert_eq!(block_index(&block_name(b)), Some(b));
        }
        for name in ["blk", "blk01", "blk+1", "blk-0", "blk1x", "Blk1", "meta"] {
            assert_eq!(block_index(name), None, "{name}");
        }
    }

    /// Named section payloads, in table order.
    type Layout = Vec<(String, Vec<u8>)>;

    /// A container of `sections` in the given order; a name may repeat
    /// (the writer refuses that, so a repeat is written under a stand-in of
    /// the same length and renamed in the table, whose CRC is redone).
    fn container(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
        let mut w = StoreWriter::new(kind::TRAJECTORY_STORE);
        let mut renames = Vec::new();
        for (i, (name, payload)) in sections.iter().enumerate() {
            if sections[..i].iter().any(|(earlier, _)| earlier == name) {
                let stand_in = format!("{i:0>width$}", width = name.len());
                renames.push((stand_in.clone(), name));
                w.section(&stand_in, payload.clone());
            } else {
                w.section(name, payload.clone());
            }
        }
        let mut bytes = w.to_bytes();
        let count = sections.len();
        for (stand_in, name) in renames {
            let at = (0..count)
                .map(|i| 24 + 40 * i)
                .find(|&at| bytes[at..at + 16].starts_with(stand_in.as_bytes()))
                .unwrap();
            bytes[at..at + name.len()].copy_from_slice(name.as_bytes());
        }
        let table_crc = crc32(&bytes[24..24 + 40 * count]);
        bytes[20..24].copy_from_slice(&table_crc.to_le_bytes());
        bytes
    }

    /// Block sections out of the writer's order — shuffled, interleaved
    /// with another section, preceded by an out-of-range block name,
    /// duplicated, misspelt or missing — resolve as the name scan resolves
    /// them, so each corpus opens to the blocks and answers the scan
    /// gives, or to the same typed error, from bytes and mapped. Block
    /// size 3 spreads the 40 trajectories over `blk0`…`blk13`, across the
    /// counter's carry into two digits.
    #[test]
    fn block_sections_in_any_order_open_as_the_name_scan_reads_them() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let good = TrajectoryStore::to_store_bytes(&engine, &compressed, 3).unwrap();
        let canonical = StoreFile::from_bytes(good.clone()).unwrap();
        let num_blocks = compressed.len().div_ceil(3);
        assert_eq!(num_blocks, 14);
        let section = |name: String| {
            let payload = canonical.section(&name).unwrap().to_vec();
            (name, payload)
        };
        let writer_order: Layout = ["meta".to_string(), "synopsis".to_string()]
            .into_iter()
            .chain((0..num_blocks).map(block_name))
            .map(section)
            .collect();
        let with = |edit: &dyn Fn(&mut Layout)| {
            let mut layout = writer_order.clone();
            edit(&mut layout);
            container(&layout)
        };
        let named = |name: &str, payload: &[u8]| (name.to_string(), payload.to_vec());
        let answers = |store: &TrajectoryStore| {
            let region = Mbr {
                min_x: f64::NEG_INFINITY,
                min_y: f64::NEG_INFINITY,
                max_x: f64::INFINITY,
                max_y: f64::INFINITY,
            };
            (
                store.decode_all().unwrap(),
                store.range(&engine, 0.0, 1e9, &region).unwrap(),
            )
        };
        let want = answers(&TrajectoryStore::from_store_bytes(good.clone()).unwrap());
        let filler = b"not a block";
        // (layout, Ok: same answers as the writer's order | Err: the error)
        let cases: Vec<(&str, Vec<u8>, std::result::Result<(), PressError>)> = vec![
            ("writer order", with(&|_| {}), Ok(())),
            ("reversed", with(&|l| l[2..].reverse()), Ok(())),
            (
                "a section inside the run",
                with(&|l| l.insert(2 + 10, named("extra", filler))),
                Ok(()),
            ),
            (
                "an out-of-range block name first",
                with(&|l| l.insert(2, named("blk999", filler))),
                Ok(()),
            ),
            (
                "a repeat after the run",
                with(&|l| l.push(named("blk4", filler))),
                Ok(()),
            ),
            (
                "blk6 missing",
                with(&|l| l.retain(|(n, _)| n != "blk6")),
                Err(StoreError::MissingSection("blk6".into()).into()),
            ),
            (
                "blk6 misspelt",
                with(&|l| l[2 + 6].0 = "blk06".into()),
                Err(StoreError::MissingSection("blk6".into()).into()),
            ),
        ];
        for (what, bytes, expect) in cases {
            let file = StoreFile::from_bytes(bytes.clone()).unwrap();
            assert_eq!(
                block_slots(&file, num_blocks),
                scan_block_slots(&file, num_blocks),
                "{what}"
            );
            let path = temp_corpus("block-order", &bytes);
            let opened = [
                TrajectoryStore::from_store_bytes(bytes),
                TrajectoryStore::open_mapped(&path),
            ];
            std::fs::remove_file(&path).unwrap();
            for store in opened {
                match (&expect, store) {
                    (Ok(()), Ok(store)) => assert_eq!(answers(&store), want, "{what}"),
                    (Err(e), Err(got)) => assert_eq!(got.to_string(), e.to_string(), "{what}"),
                    (_, got) => panic!("{what}: {:?}", got.err()),
                }
            }
        }
        // A repeat ahead of the run wins, as the scan's first match: block
        // 4 then serves blk5's records.
        let bytes = with(&|l| l.insert(2, named("blk4", &writer_order[2 + 5].1)));
        let file = StoreFile::from_bytes(bytes.clone()).unwrap();
        assert_eq!(block_slots(&file, num_blocks)[4], 2);
        assert_eq!(
            block_slots(&file, num_blocks),
            scan_block_slots(&file, num_blocks)
        );
        let store = TrajectoryStore::from_store_bytes(bytes).unwrap();
        assert_eq!(store.get(4 * 3).unwrap(), compressed[5 * 3]);
    }

    /// A mapped corpus answers bit-identically to the same bytes loaded
    /// from memory: equal synopses, `whereat` and `range`, and a point read
    /// decodes the trajectory `decode_all` puts at that index, for every
    /// index of a multi-block corpus whose last block is short.
    #[test]
    fn single_record_decode_equals_decode_all_bytes_and_mapped() {
        let (press, trajs, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 7).unwrap();
        let path = temp_corpus("single-record", &bytes);
        let loaded = TrajectoryStore::from_store_bytes(bytes).unwrap();
        let mapped = TrajectoryStore::open_mapped(&path).unwrap();
        assert!(loaded.num_blocks() > 2 && !loaded.len().is_multiple_of(7));
        assert_eq!(mapped.num_blocks(), loaded.num_blocks());
        for b in 0..loaded.num_blocks() {
            assert_eq!(mapped.synopsis(b), loaded.synopsis(b));
        }
        let all = loaded.decode_all().unwrap();
        assert_eq!(all, compressed);
        assert_eq!(mapped.decode_all().unwrap(), all);
        for (i, ct) in all.iter().enumerate() {
            assert_eq!(loaded.get(i).unwrap(), *ct, "bytes {i}");
            assert_eq!(mapped.get(i).unwrap(), *ct, "mapped {i}");
        }
        let (a, b) = trajs[1].temporal.time_range().unwrap();
        let t = (a + b) / 2.0;
        let at = |s: &TrajectoryStore| s.whereat(&engine, 1, t).unwrap().x.to_bits();
        assert_eq!(at(&loaded), at(&mapped));
        let region = Mbr::new(0.0, 0.0, 2000.0, 2000.0);
        let hits = |s: &TrajectoryStore| s.range(&engine, 0.0, 20_000.0, &region).unwrap();
        assert_eq!(hits(&loaded), hits(&mapped));
        std::fs::remove_file(&path).unwrap();
    }

    /// The encoding cannot silently fatten: on this fixture (whole-second
    /// clock, arbitrary distances) a stored tuple stays under 9.5 bytes
    /// and a record's framing is the two counts, the code byte and its
    /// directory entry — 4 bytes, 5 for a record of 128 bytes or more,
    /// which most of these ~19-tuple trajectories are.
    #[test]
    fn stored_record_size_guard() {
        use crate::stats::StoredBytes;
        let (_, _, compressed) = fixture();
        let stored: StoredBytes = compressed.iter().map(StoredBytes::of).sum();
        assert!(stored.tuples > 200, "{stored}");
        assert!(stored.per_tuple() <= 9.5, "{stored}");
        assert!(stored.framing_bytes <= 5 * stored.trajectories, "{stored}");
        let short = StoredBytes::of(&CompressedTrajectory {
            temporal: TemporalSequence::new_unchecked(compressed[0].temporal.points[..6].to_vec()),
            ..compressed[0].clone()
        });
        assert_eq!(short.framing_bytes, 4, "{short}");
    }

    /// What the gap runs cost: held-out walks over the fixture's grid
    /// (out-degree ≤ 4, so a turn is at most two bits) pay no more than
    /// 2.2 bits per interior edge the stream spells out, and
    /// `StoredBytes::of_coded` reports exactly those bits.
    #[test]
    fn gap_run_size_guard() {
        use crate::spatial::node_link_tests::walks;
        use crate::stats::StoredBytes;
        let (press, _, compressed) = fixture();
        let model = press.model();
        let net = model.sp().network();
        let held_out: Vec<CompressedTrajectory> = walks(net, 3, 40)
            .iter()
            .map(|path| CompressedTrajectory {
                spatial: model.compress(path).unwrap(),
                temporal: compressed[0].temporal.clone(),
            })
            .collect();
        let (mut bits, mut edges) = (0, 0);
        for ct in &held_out {
            let (b, e) = model.run_cost(&ct.spatial).unwrap();
            bits += b;
            edges += e;
        }
        assert!(
            edges > 100,
            "the walks must carry runs: {edges} interior edges"
        );
        assert!(
            bits as f64 <= 2.2 * edges as f64,
            "{bits} run bits for {edges} interior edges"
        );
        let stored: StoredBytes = held_out
            .iter()
            .map(|ct| StoredBytes::of_coded(model, ct).unwrap())
            .sum();
        assert_eq!(stored.run_bits, Some(bits), "{stored}");
        assert!(stored.spatial_bits > bits, "{stored}");
        // The fixture's own trajectories are its training paths: no runs.
        let trained: StoredBytes = compressed
            .iter()
            .map(|ct| StoredBytes::of_coded(model, ct).unwrap())
            .sum();
        assert_eq!(trained.run_bits, Some(0), "{trained}");
    }

    /// `meta` names the record format: the 24-byte `meta` of earlier
    /// builds and the parent's format 2 (same records, but spatial codes
    /// without gap runs) are typed errors, never a mis-decode.
    #[test]
    fn record_format_is_checked() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed[..9], 4).unwrap();
        let file = StoreFile::from_bytes(bytes).unwrap();
        let meta = file.section("meta").unwrap().to_vec();
        assert_eq!(meta.len(), 32);
        let with_meta = |meta: &[u8]| {
            TrajectoryStore::from_store_bytes(
                file.rewrite_sections(|name, p| {
                    Some(if name == "meta" { meta } else { p }.to_vec())
                })
                .unwrap(),
            )
        };
        assert_eq!(
            with_meta(&meta).unwrap().decode_all().unwrap(),
            compressed[..9]
        );
        match with_meta(&meta[..24]) {
            Err(PressError::Store(StoreError::Corrupt(msg))) => {
                assert!(msg.starts_with("record format 1"), "{msg}")
            }
            other => panic!("a format-1 meta must be a typed error, got {other:?}"),
        }
        let mut parent = meta.clone();
        parent[24..28].copy_from_slice(&2u32.to_le_bytes());
        match with_meta(&parent) {
            Err(PressError::Store(StoreError::Corrupt(msg))) => {
                assert!(msg.starts_with("record format 2"), "{msg}")
            }
            other => panic!("a parent-format meta must be a typed error, got {other:?}"),
        }
    }

    #[test]
    fn store_queries_match_in_memory_and_skip_blocks() {
        let (press, trajs, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let store = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &compressed, 5).unwrap(),
        )
        .unwrap();
        // whereat: bit-identical to the in-memory path.
        for (i, (traj, ct)) in trajs.iter().zip(&compressed).enumerate() {
            let (a, b) = traj.temporal.time_range().unwrap();
            for k in 0..4 {
                let t = a + (b - a) * k as f64 / 3.0;
                let mem = engine.whereat(ct, t).unwrap();
                let disk = store.whereat(&engine, i, t).unwrap();
                assert_eq!(mem.x.to_bits(), disk.x.to_bits());
                assert_eq!(mem.y.to_bits(), disk.y.to_bits());
            }
        }
        // range: equals brute force under the same time-overlap predicate,
        // and the staggered time spans force some blocks to be skipped.
        let net = press.model().sp().network().clone();
        let bb = net.bounding_box();
        let mut rng = StdRng::seed_from_u64(99);
        let mut skipped_somewhere = false;
        for _ in 0..12 {
            let cx = rng.gen_range(bb.min_x..bb.max_x);
            let cy = rng.gen_range(bb.min_y..bb.max_y);
            let half = rng.gen_range(50.0..300.0);
            let region = Mbr::new(cx - half, cy - half, cx + half, cy + half);
            let t1 = rng.gen_range(0.0..15_000.0);
            let t2 = t1 + rng.gen_range(100.0..4000.0);
            let before = store.io_stats().1;
            let fast = store.range(&engine, t1, t2, &region).unwrap();
            skipped_somewhere |= store.io_stats().1 > before;
            let brute: Vec<usize> = compressed
                .iter()
                .enumerate()
                .filter(|(_, ct)| {
                    let (a, z) = ct.temporal.time_range().unwrap();
                    z >= t1 && a <= t2 && engine.range(ct, t1, t2, &region).unwrap()
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, brute, "range mismatch for region {region:?}");
        }
        assert!(skipped_somewhere, "synopses never skipped a block");
        // whenat: far probes are rejected from the synopsis alone.
        let (decoded_before, skipped_before) = store.io_stats();
        assert!(store.whenat(&engine, 0, Point::new(1e8, 1e8), 1.0).is_err());
        let (decoded_after, skipped_after) = store.io_stats();
        assert_eq!(decoded_before, decoded_after, "far whenat must not decode");
        assert_eq!(skipped_before + 1, skipped_after);
        // Near probes agree with the in-memory engine.
        let probe = engine
            .whereat(&compressed[2], trajs[2].temporal.points[1].t)
            .unwrap();
        let mem = engine.whenat(&compressed[2], probe, 0.5).unwrap();
        let disk = store.whenat(&engine, 2, probe, 0.5).unwrap();
        assert_eq!(mem.to_bits(), disk.to_bits());
    }

    /// A window with a NaN bound — first, second or both — has no answer:
    /// the indexed and the linear range path and the engine all refuse it
    /// as `OutOfDomain`, where unchecked the index prunes every block and
    /// the linear walk keeps some, and a query batch answers it with a
    /// miss. So is a `whereat` at a NaN time, which unchecked answers the
    /// trajectory's end position.
    #[test]
    fn range_window_with_a_nan_bound_is_out_of_domain() {
        use crate::batch::{QueryBatch, StoreAnswer, StoreQuery};
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let store = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &compressed[..16], 4).unwrap(),
        )
        .unwrap();
        let everything = Mbr::new(-1e9, -1e9, 1e9, 1e9);
        let all: Vec<usize> = (0..16).collect();
        assert_eq!(store.range(&engine, 0.0, 1e9, &everything).unwrap(), all);
        assert_eq!(
            store.range_linear(&engine, 1e9, 0.0, &everything).unwrap(),
            all
        );
        let nan = f64::NAN;
        for (t1, t2) in [(nan, 100.0), (100.0, nan), (nan, nan)] {
            let refused = |r: Result<Vec<usize>>| matches!(r, Err(PressError::OutOfDomain(_)));
            assert!(
                refused(store.range(&engine, t1, t2, &everything)),
                "({t1}, {t2})"
            );
            assert!(
                refused(store.range_linear(&engine, t1, t2, &everything)),
                "({t1}, {t2})"
            );
            for ct in &compressed[..16] {
                assert!(matches!(
                    engine.range(ct, t1, t2, &everything),
                    Err(PressError::OutOfDomain(_))
                ));
            }
            let batch = QueryBatch::from_queries(vec![StoreQuery::Range {
                t1,
                t2,
                region: everything,
            }]);
            let answers = batch.run(&store, &engine, 1).unwrap();
            assert!(matches!(answers[..], [StoreAnswer::Miss(_)]), "{answers:?}");
        }
        // A NaN `whereat` time is a miss too, not the trajectory's end.
        assert!(matches!(
            store.whereat(&engine, 3, nan),
            Err(PressError::OutOfDomain(_))
        ));
        let batch = QueryBatch::from_queries(vec![StoreQuery::WhereAt { idx: 3, t: nan }]);
        let answers = batch.run(&store, &engine, 1).unwrap();
        assert!(matches!(answers[..], [StoreAnswer::Miss(_)]), "{answers:?}");
    }

    #[test]
    fn zero_block_size_is_refused_and_an_empty_store_serves() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        // Zero block size on write.
        assert!(TrajectoryStore::to_store_bytes(&engine, &compressed, 0).is_err());
        // Empty store is fine.
        let empty = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &[], 4).unwrap(),
        )
        .unwrap();
        assert!(empty.is_empty());
        assert_eq!(
            empty
                .range(&engine, 0.0, 1.0, &Mbr::new(0.0, 0.0, 1.0, 1.0))
                .unwrap(),
            vec![]
        );
    }

    fn temp_corpus(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("press-corpus-{}-{name}.press", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_store_defers_block_crc_to_first_touch() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let clean = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).unwrap();
        // Flip a bit in the last block's payload: the mapped open only
        // walks metadata + directory, so it must succeed; the corrupted
        // block is a typed checksum error at its first decode, and the
        // untouched blocks keep answering.
        let mut bytes = clean.clone();
        let len = bytes.len();
        bytes[len - 2] ^= 0x20;
        let path = temp_corpus("lazy-crc", &bytes);
        let store = TrajectoryStore::open_mapped(&path).unwrap();
        assert_eq!(store.get(0).unwrap(), compressed[0]);
        assert!(matches!(
            store.get(compressed.len() - 1),
            Err(PressError::Store(StoreError::ChecksumMismatch { .. }))
        ));
        std::fs::remove_file(&path).unwrap();

        // The same inside the 4-lane fold of a block long enough for the
        // carry-less-multiply CRC kernel (≥ 128 B).
        let blk1 = StoreFile::from_bytes(clean.clone())
            .unwrap()
            .section("blk1")
            .unwrap()
            .to_vec();
        assert!(blk1.len() >= 192, "blk1 is only {} B", blk1.len());
        let at = clean.windows(blk1.len()).position(|w| w == blk1).unwrap();
        let mut bytes = clean;
        bytes[at + 70] ^= 0x01;
        let path = temp_corpus("lazy-crc-fold", &bytes);
        let store = TrajectoryStore::open_mapped(&path).unwrap();
        assert_eq!(store.get(3).unwrap(), compressed[3]);
        for _ in 0..2 {
            match store.get(5) {
                Err(PressError::Store(StoreError::ChecksumMismatch { section })) => {
                    assert_eq!(section, "blk1")
                }
                other => panic!("expected a checksum mismatch in blk1, got {other:?}"),
            }
        }
        assert_eq!(store.get(8).unwrap(), compressed[8]);
        std::fs::remove_file(&path).unwrap();
    }
}
