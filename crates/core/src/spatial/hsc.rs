//! Hybrid Spatial Compression (HSC) — paper §3.3.
//!
//! HSC chains the two spatial stages: shortest-path compression (§3.1)
//! followed by frequent-sub-trajectory coding (§3.2). The trained
//! [`HscModel`] owns every auxiliary structure the paper describes — the
//! all-pair shortest-path table, the Trie, the Aho–Corasick automaton, the
//! Huffman tree, plus the per-Trie-node distances and MBRs the query
//! processor needs (§5.1–§5.2).
//!
//! Beside those two tables sits a third, the **link arena**: for every
//! Trie node at depth ≥ 2, the shortest-path interior hidden between its
//! parent's last edge and its own (empty when the two are consecutive).
//! Training has to expand those gaps anyway to fill the §5.1 distances;
//! keeping the expansion means decompression and the queries read a gap
//! the corpus has shown before from the model
//! ([`HscModel::expand_node_into`], [`HscModel::known_gap`]). The other
//! per-node tables are folds of the arena — the distances, the MBRs and
//! each link's length (what `path_len` gives, kept so no reader refolds
//! a link it has seen before) — computed by one pass, `node_tables`,
//! that training and load share.
//!
//! # The stream
//!
//! A gap between two coding units whose edge pair `(a, b)` training never
//! put side by side is in no table — so the stream carries it. The
//! compressor is holding that interior when it creates the gap (it is the
//! run of input edges Algorithm 1 elides), and writes it right after the
//! Huffman symbol of the unit that starts at `b`, as **turns**: per
//! interior edge its index among the out-edges of the node the walk
//! stands on, in `⌈log₂ out-degree⌉` bits, starting at `a`'s head and
//! ending — implicitly — on arrival at `b`'s tail (a shortest path is
//! simple, so the first arrival is the end). The reader makes the same
//! test the writer made (`a`, `b` not consecutive, [`HscModel::known_gap`]
//! silent), so no flag bit says whether a run follows. One grammar,
//! `unit (run? unit)*` in path order, one writer (`HscModel::encode`)
//! and one reader (`HscModel::for_each_unit`): decompression and every
//! §5 query see a slice and its length for **every** gap and never call
//! the shortest-path layer — an arena gap's length from the table, a
//! run's summed by the walk that reads it, in the same order. What
//! the reader proves about a run is structure — each turn indexes a real
//! out-edge, the walk arrives within `|V|` steps, the stream does not end
//! inside it; that the run is the *shortest* path is the word of whatever
//! checksum guards the stream, as it is for the link arena.
//!
//! # The `SPend` index
//!
//! The arena is also the answer sheet of Algorithm 1, stored the other
//! way round. The scan's one test, `SPend(anchor, next) == prev`, depends
//! only on the node pair `(anchor.to, next.from)` — it is
//! `pred_edge(anchor.to, next.from)` — and `sp_interior(a, b)` *is* a walk
//! of `pred_edge(a.to, ·)` answers. So [`HscModel`] keeps a sparse,
//! immutable index from node pairs to canonical predecessor edges, built
//! in one pass over the depth-2 nodes `(a, b)` at [`HscModel::train`] and
//! at load, from **pass facts** — every edge `g` of the node's link says
//! `pred_edge(a.to, g.to) = g`, no shortest-path call — and **stop
//! facts** — `pred_edge(a.to, b.to)`, the one thing the arena cannot say,
//! recorded by training (one call per depth-2 node) and persisted beside
//! the arena. [`HscModel::compress`] consults the index first and calls
//! `pred_edge` only on a miss.
//!
//! Recompressing a training path `p` makes **no** shortest-path call:
//!
//! 1. Let `a`, `b` be neighbours in `sp_compress(p)`. For θ ≥ 2 the Trie
//!    holds `(a, b)` at depth 2, and since SP compression is lossless the
//!    edges of `p` between them are its link `g₁ … g_k`.
//! 2. Every *passing* test of that run is `pred_edge(a.to, g_i.to) = g_i`
//!    — a pass fact; the *failing* test that made the scan emit `b` is
//!    `pred_edge(a.to, b.to) ≠ b` — the node's stop fact.
//! 3. The tests that need no tree never reach the index:
//!    `anchor == next` (no `SPend`) and `anchor.to == next.from` (`SPend`
//!    is the anchor), exactly as in [`SpProvider::sp_end`].
//!
//! At θ = 1 there is no depth-2 node and the index is empty. A poisoned
//! `(a, b)` (no path joins the pair — no valid path produces one) has an
//! empty link and no stop fact, so it contributes nothing. All facts out
//! of one source node come from one canonical shortest-path tree, so two
//! that name different predecessors for one node are corruption, and
//! building the index checks it.
//!
//! Spatial compression is **lossless**: `decompress(compress(p)) == p` for
//! every valid path `p` (property-tested in `tests/`), and both directions
//! run in `O(|T|)`.

use crate::error::{PressError, Result};
use crate::spatial::ac::AcAutomaton;
use crate::spatial::bits::{BitReader, BitStream, BitWriter};
use crate::spatial::decompose::decompose_dp;
use crate::spatial::huffman::Huffman;
use crate::spatial::sp::{sp_compress, sp_scan, SpEnd};
use crate::spatial::trie::{node_to_symbol, symbol_to_node, Trie, TrieNodeId};
use press_network::{EdgeId, Mbr, NodeId, RoadNetwork, SpProvider};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which decomposition strategy to use for FST coding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Decomposer {
    /// Aho–Corasick longest-suffix matching (Algorithm 2) — the paper's
    /// choice: ~1 % larger output than DP at ~65 % of its time.
    #[default]
    Greedy,
    /// Dynamic programming over split points — bit-optimal, slower.
    Dp,
}

/// The FST-coded spatial form of one trajectory: a Huffman bit stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressedSpatial {
    pub bits: BitStream,
}

impl CompressedSpatial {
    /// Spatial storage cost in whole bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.byte_len()
    }
}

/// Sizes of the static auxiliary structures (paper §6.2 reports 452 MB /
/// 101 MB / 121 MB for its dataset; `repro aux` prints ours).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AuxiliarySizes {
    /// The SP provider's footprint (`approx_bytes`): the all-pair table
    /// (distances + `SPend`) on the dense backend, the label arrays and
    /// arc set on hub labels.
    pub sp_table_bytes: usize,
    /// Trie + failure links (the AC automaton).
    pub automaton_bytes: usize,
    /// Huffman code book.
    pub huffman_bytes: usize,
    /// Per-Trie-node decompressed distances (§5.1 whereat support).
    pub node_dist_bytes: usize,
    /// Per-Trie-node MBRs (§5.2 whenat/range support).
    pub node_mbr_bytes: usize,
    /// Per-Trie-node link arena (offsets + hidden shortest-path gaps)
    /// and the links' lengths.
    pub node_link_bytes: usize,
    /// `SPend` index (per-source-node offsets + facts) and the stop facts
    /// it is built from.
    pub spend_index_bytes: usize,
}

impl AuxiliarySizes {
    /// Total bytes across all auxiliary structures.
    pub fn total(&self) -> usize {
        self.sp_table_bytes
            + self.automaton_bytes
            + self.huffman_bytes
            + self.node_dist_bytes
            + self.node_mbr_bytes
            + self.node_link_bytes
            + self.spend_index_bytes
    }
}

/// Per-Trie-node edge slices in one flat allocation: node `n`'s slice is
/// `edges[off[n]..off[n + 1]]`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LinkArena {
    off: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl LinkArena {
    /// An arena with no nodes yet; [`LinkArena::seal_node`] appends one.
    fn with_capacity(nodes: usize) -> Self {
        let mut off = Vec::with_capacity(nodes + 1);
        off.push(0);
        LinkArena {
            off,
            edges: Vec::new(),
        }
    }

    /// Closes the current node's slice: everything pushed onto `edges`
    /// since the previous call is this node's link.
    fn seal_node(&mut self) -> Result<()> {
        let end = u32::try_from(self.edges.len()).map_err(|_| {
            PressError::InvalidTraining("link arena outgrew its u32 offsets".into())
        })?;
        self.off.push(end);
        Ok(())
    }

    /// Reassembles a persisted arena over `nodes` Trie nodes: offsets
    /// must start at 0, never decrease, and end at the edge count.
    pub(crate) fn from_raw(
        nodes: usize,
        off: Vec<u32>,
        edges: Vec<EdgeId>,
    ) -> std::result::Result<Self, String> {
        if off.len() != nodes + 1 {
            return Err(format!("{} link offsets for {nodes} nodes", off.len()));
        }
        if off[0] != 0 || off.windows(2).any(|w| w[0] > w[1]) {
            return Err("link offsets are not monotone from 0".into());
        }
        if off[nodes] as usize != edges.len() {
            return Err(format!(
                "link offsets end at {} but the arena holds {} edges",
                off[nodes],
                edges.len()
            ));
        }
        Ok(LinkArena { off, edges })
    }

    /// The raw `(offsets, edges)` arrays, as persisted.
    pub(crate) fn as_raw(&self) -> (&[u32], &[EdgeId]) {
        (&self.off, &self.edges)
    }

    #[inline]
    fn link(&self, node: TrieNodeId) -> &[EdgeId] {
        let n = node as usize;
        &self.edges[self.off[n] as usize..self.off[n + 1] as usize]
    }

    fn approx_bytes(&self) -> usize {
        (self.off.len() + self.edges.len()) * 4
    }
}

/// Summed weight of `edges`, accumulated left to right from `0.0` — the
/// float-addition order of Dijkstra's `dist[v] = dist[p] + w(e)`, which
/// every shortest-path backend reproduces. Over a canonical
/// `sp_interior(a, b)` the result is therefore bit-equal to
/// `gap_dist(a, b)`.
#[inline]
pub(crate) fn path_len(net: &RoadNetwork, edges: &[EdgeId]) -> f64 {
    edges.iter().fold(0.0, |d, &e| d + net.weight(e))
}

/// Bits of one turn at a node with `out_degree` out-edges: the fixed
/// width that indexes them, `⌈log₂ out_degree⌉` — none where the walk has
/// no choice.
#[inline]
fn turn_bits(out_degree: usize) -> u32 {
    out_degree.next_power_of_two().trailing_zeros()
}

/// The shortest-path gap in front of a unit: the two edges it joins, its
/// length (the bits of [`path_len`] over the interior) and its interior,
/// lent from the model's arena or from the reader's buffer for the
/// length of one [`HscModel::for_each_unit`] callback.
pub(crate) struct Gap<'r> {
    pub(crate) a: EdgeId,
    pub(crate) b: EdgeId,
    pub(crate) len: f64,
    pub(crate) interior: &'r [EdgeId],
}

/// `Tsub(n).d` from its parent's: the hidden gap between the two last
/// edges (`None` when they are consecutive, `∞` when no path joins
/// them), then the node's own edge. Only [`node_tables`] calls it, for
/// training and load alike, so the two agree to the bit.
#[inline]
fn extend_dist(parent: f64, gap: Option<f64>, weight: f64) -> f64 {
    gap.map_or(parent, |g| parent + g) + weight
}

/// The per-node tables a model carries beside its link arena, all
/// folded from the arena by [`node_tables`].
struct NodeTables {
    /// `Tsub(n).d` of §5.1.
    dist: Vec<f64>,
    /// `MBR(Tsub(n))` of §5.2.
    mbr: Vec<Mbr>,
    /// [`path_len`] of each node's link.
    link_len: Vec<f64>,
}

/// Folds the §5.1–§5.2 tables out of a link arena in one parents-first
/// pass with no shortest-path call: training runs it over the arena it
/// just expanded, load over the arena it read. Per node it checks the
/// chain `last_edge(parent) → link… → last_edge(node)` — link edges
/// inside the alphabet, the chain connected, the link empty exactly when
/// the pair is consecutive or poisoned (no path joins it: `dist` is `∞`)
/// — and folds along it `dist` ([`extend_dist`]), the MBR (the parent's,
/// widened by each chain edge's) and the link's [`path_len`].
fn node_tables(
    net: &RoadNetwork,
    trie: &Trie,
    arena: &LinkArena,
) -> std::result::Result<NodeTables, String> {
    if !arena.link(Trie::ROOT).is_empty() {
        return Err("the root carries a link".into());
    }
    let n = trie.num_nodes();
    let mut dist = vec![0.0f64; n];
    let mut mbr = vec![Mbr::empty(); n];
    let mut link_len = vec![0.0f64; n];
    // Node ids are created parents-first, so each node extends its
    // parent by one edge.
    for node in trie.node_ids() {
        let (parent, e) = (trie.parent(node), trie.last_edge(node));
        let link = arena.link(node);
        if let Some(g) = link.iter().find(|g| g.index() >= trie.alphabet_size()) {
            return Err(format!("node {node} links through out-of-alphabet {g}"));
        }
        let consecutive = parent == Trie::ROOT || net.consecutive(trie.last_edge(parent), e);
        let gap = if consecutive {
            if !link.is_empty() {
                return Err(format!("node {node} needs no link but carries one"));
            }
            None
        } else if link.is_empty() {
            Some(f64::INFINITY)
        } else {
            let mut prev = trie.last_edge(parent);
            for &g in link.iter().chain([&e]) {
                if !net.consecutive(prev, g) {
                    return Err(format!("node {node} link breaks between {prev} and {g}"));
                }
                prev = g;
            }
            link_len[node as usize] = path_len(net, link);
            Some(link_len[node as usize])
        };
        dist[node as usize] = extend_dist(dist[parent as usize], gap, net.weight(e));
        let mut m = mbr[parent as usize];
        for &g in link.iter().chain([&e]) {
            m.expand(&net.edge_mbr(g));
        }
        mbr[node as usize] = m;
    }
    Ok(NodeTables {
        dist,
        mbr,
        link_len,
    })
}

/// "No stop fact" in [`HscModel`]'s `node_stop` table and its file
/// section.
pub(crate) const NO_STOP: EdgeId = EdgeId(u32::MAX);

/// CSR offsets over per-slot lengths: `off[i]..off[i + 1]` is slot `i`.
fn csr_offsets(lens: impl IntoIterator<Item = usize>) -> std::result::Result<Vec<u32>, String> {
    let mut off = vec![0u32];
    let mut end = 0u32;
    for len in lens {
        end = u32::try_from(len)
            .ok()
            .and_then(|len| end.checked_add(len))
            .ok_or("the SPend index outgrew its u32 offsets")?;
        off.push(end);
    }
    Ok(off)
}

/// The `SPend` facts the model holds, keyed by node pair: per source
/// node `s`, the `(head node v, canonical pred edge of v in the tree of
/// s)` pairs sorted by `v`. Sparse and immutable; see the module docs.
#[derive(Debug)]
pub(crate) struct SpendIndex {
    off: Vec<u32>,
    facts: Vec<(NodeId, EdgeId)>,
}

impl SpendIndex {
    /// Collects the pass facts of `node_link` and the stop facts of
    /// `node_stop` (one per depth-2 node, in node order) into the index.
    /// The arena has passed [`node_tables`]; the stop facts are
    /// checked here — one per depth-2 node, [`NO_STOP`] on a poisoned
    /// pair, otherwise inside the alphabet and an in-edge of the pair's
    /// head — and so is the property that makes the index an index: all
    /// facts out of one source node agree, i.e. form a tree.
    fn build(
        net: &RoadNetwork,
        trie: &Trie,
        node_dist: &[f64],
        node_link: &LinkArena,
        node_stop: &[EdgeId],
    ) -> std::result::Result<Self, String> {
        let mut raw: Vec<(NodeId, NodeId, EdgeId)> =
            Vec::with_capacity(node_link.edges.len() + node_stop.len());
        let mut stops = node_stop.iter();
        for node in trie.node_ids().filter(|&n| trie.depth(n) == 2) {
            let s = net.edge(trie.last_edge(trie.parent(node))).to;
            let head = net.edge(trie.last_edge(node)).to;
            raw.extend(node_link.link(node).iter().map(|&g| (s, net.edge(g).to, g)));
            let &stop = stops.next().ok_or_else(|| {
                format!(
                    "{} stop facts, fewer than the depth-2 nodes",
                    node_stop.len()
                )
            })?;
            if stop == NO_STOP {
                continue;
            }
            if !node_dist[node as usize].is_finite() {
                return Err(format!("poisoned node {node} carries stop fact {stop}"));
            }
            if stop.index() >= trie.alphabet_size() || net.edge(stop).to != head {
                return Err(format!(
                    "node {node} stop fact {stop} is no in-edge of {head}"
                ));
            }
            raw.push((s, head, stop));
        }
        if stops.next().is_some() {
            return Err(format!(
                "{} stop facts, more than the depth-2 nodes",
                node_stop.len()
            ));
        }
        // Group by source node (a counting sort), then order each source's
        // handful of facts by head; a fact two pairs share stays twice.
        let mut lens = vec![0usize; net.num_nodes()];
        for f in &raw {
            lens[f.0.index()] += 1;
        }
        let off = csr_offsets(lens)?;
        let mut next = off[..net.num_nodes()].to_vec();
        let mut facts = vec![(NodeId(0), NO_STOP); raw.len()];
        for &(s, v, g) in &raw {
            facts[next[s.index()] as usize] = (v, g);
            next[s.index()] += 1;
        }
        for (s, w) in off.windows(2).enumerate() {
            let out = &mut facts[w[0] as usize..w[1] as usize];
            out.sort_unstable();
            if let Some(p) = out
                .windows(2)
                .find(|p| p[0].0 == p[1].0 && p[0].1 != p[1].1)
            {
                return Err(format!(
                    "facts out of node {s} disagree on the predecessor of {}: {} and {}",
                    p[0].0, p[0].1, p[1].1
                ));
            }
        }
        Ok(SpendIndex { off, facts })
    }

    /// `pred_edge(s, v)` when a fact holds it.
    #[inline]
    fn get(&self, s: NodeId, v: NodeId) -> Option<EdgeId> {
        let out = &self.facts[self.off[s.index()] as usize..self.off[s.index() + 1] as usize];
        out.binary_search_by_key(&v, |f| f.0).ok().map(|i| out[i].1)
    }

    fn approx_bytes(&self) -> usize {
        self.off.len() * 4 + self.facts.len() * 8
    }
}

/// Which side answered a gap, per thread — how the tests prove both the
/// arena and the in-stream runs are read, and that nothing on the read
/// path falls back to the shortest-path layer.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Witness {
    /// Gaps answered by [`HscModel::known_gap`].
    pub(crate) arena_hits: usize,
    /// Gaps training never saw, written to or read from the stream as a
    /// run of turns.
    pub(crate) gap_runs: usize,
    /// Runs the handed path does not carry (it is not connected right
    /// after the gap's first edge), asked of the shortest-path layer.
    pub(crate) sp_fallbacks: usize,
    /// `SPend` tests answered by the model's index.
    pub(crate) spend_known: usize,
    /// `SPend` tests the index missed, handed to `pred_edge`.
    pub(crate) spend_sp: usize,
}

#[cfg(test)]
thread_local! {
    pub(crate) static WITNESS: std::cell::Cell<Witness> = std::cell::Cell::new(Witness::default());
}

#[cfg(test)]
pub(crate) fn witness(bump: impl FnOnce(&mut Witness)) {
    WITNESS.with(|cell| {
        let mut w = cell.get();
        bump(&mut w);
        cell.set(w);
    });
}

/// A trained HSC model: every static structure needed to compress,
/// decompress and query spatial paths.
pub struct HscModel {
    sp: Arc<dyn SpProvider>,
    ac: AcAutomaton,
    huffman: Huffman,
    /// Fully-decompressed network distance of each Trie node's
    /// sub-trajectory (`Tsub(n).d` of §5.1). Index = Trie node id.
    node_dist: Vec<f64>,
    /// MBR of each Trie node's fully-decompressed sub-trajectory (§5.2).
    node_mbr: Vec<Mbr>,
    /// Per node at depth ≥ 2: the canonical
    /// `sp_interior(last_edge(parent), last_edge(node))`; empty when the
    /// two are consecutive or no path joins them.
    node_link: LinkArena,
    /// `path_len` of each node's link, index = Trie node id (`0.0` where
    /// the link is empty).
    node_link_len: Vec<f64>,
    /// Per depth-2 node `(a, b)`, in node order: `pred_edge(a.to, b.to)`
    /// — the answer to the failing `SPend` test that ends a run at `b` —
    /// or [`NO_STOP`].
    node_stop: Vec<EdgeId>,
    /// Every `SPend` fact `node_link` and `node_stop` hold, by node pair.
    spend: SpendIndex,
    /// [`HscModel::fingerprint`], computed on first use.
    pub(crate) fingerprint: std::sync::OnceLock<u32>,
}

impl HscModel {
    /// Trains the model (paper §3.2: the training set is a subset of the
    /// trajectory corpus **after** SP compression; we take raw paths and
    /// apply SP compression here so callers can't get the order wrong).
    ///
    /// * `sp` — shortest-path provider (any [`SpProvider`] backend).
    /// * `training_paths` — raw (uncompressed) spatial paths.
    /// * `theta` — maximum FST length (paper's optimum for its data: 3).
    pub fn train(
        sp: Arc<dyn SpProvider>,
        training_paths: &[Vec<EdgeId>],
        theta: usize,
    ) -> Result<Self> {
        let compressed = Self::sp_compress_corpus(sp.as_ref(), training_paths);
        let trie = Trie::build(&compressed, theta, sp.network().num_edges())?;
        let huffman = Huffman::from_freqs(&trie.symbol_freqs())?;
        let node_link = Self::links_via_sp(sp.as_ref(), &trie)?;
        let node_stop = Self::stops_via_sp(sp.as_ref(), &trie, &node_link);
        Self::from_parts(sp, trie, huffman, node_link, node_stop)
            .map_err(|e| PressError::InvalidTraining(format!("node_link/node_stop: {e}")))
    }

    /// SP-compresses the whole training corpus, in parallel across the
    /// available cores, via the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop (the same
    /// atomic-cursor work-stealing `Press::compress_batch` uses): path
    /// costs vary wildly with length, so fixed chunking would
    /// idle threads behind the slowest slice. Output order is preserved,
    /// so training is bit-for-bit identical to the sequential pass
    /// regardless of thread count.
    fn sp_compress_corpus(sp: &dyn SpProvider, training_paths: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::sp_compress_corpus_with(sp, training_paths, threads)
    }

    /// [`Self::sp_compress_corpus`] with an explicit worker count, so
    /// tests can pin the parallel branch regardless of host core count.
    fn sp_compress_corpus_with(
        sp: &dyn SpProvider,
        training_paths: &[Vec<EdgeId>],
        threads: usize,
    ) -> Vec<Vec<EdgeId>> {
        crate::parallel::work_steal_map(training_paths, threads, |_, p| sp_compress(sp, p))
    }

    /// Reassembles a model from its persisted parts (the artifact tier's
    /// load path — see [`crate::store`]). The automaton is rebuilt from
    /// the trie by the same deterministic BFS construction training uses,
    /// so a loaded model is indistinguishable from the trained one. The
    /// per-node tables are folded out of `node_link` by [`node_tables`],
    /// which checks the arena; the stop facts are checked as the `SPend`
    /// index is built from them and the arena (the error says what
    /// disagreed).
    pub(crate) fn from_parts(
        sp: Arc<dyn SpProvider>,
        trie: Trie,
        huffman: Huffman,
        node_link: LinkArena,
        node_stop: Vec<EdgeId>,
    ) -> std::result::Result<Self, String> {
        let NodeTables {
            dist: node_dist,
            mbr: node_mbr,
            link_len: node_link_len,
        } = node_tables(sp.network(), &trie, &node_link)?;
        let spend = SpendIndex::build(sp.network(), &trie, &node_dist, &node_link, &node_stop)?;
        Ok(HscModel {
            sp,
            ac: AcAutomaton::build(trie),
            huffman,
            node_dist,
            node_mbr,
            node_link,
            node_link_len,
            node_stop,
            spend,
            fingerprint: std::sync::OnceLock::new(),
        })
    }

    /// The link arena of `trie`: the gap a node's SP-compressed
    /// sub-trajectory hides between its last two edges, one `sp_interior`
    /// call per pair that is not consecutive, in node order. A pair no
    /// path joins keeps an empty link, which poisons the node, so
    /// decompression and queries report the pair.
    fn links_via_sp(sp: &dyn SpProvider, trie: &Trie) -> Result<LinkArena> {
        let net = sp.network();
        let mut link = LinkArena::with_capacity(trie.num_nodes());
        // The root's (empty) slot.
        link.seal_node()?;
        for node in trie.node_ids() {
            let (parent, e) = (trie.parent(node), trie.last_edge(node));
            let prev = trie.last_edge(parent);
            if parent != Trie::ROOT && !net.consecutive(prev, e) {
                if let Some(interior) = sp.sp_interior(prev, e) {
                    debug_assert_eq!(
                        path_len(net, &interior).to_bits(),
                        sp.gap_dist(prev, e).to_bits()
                    );
                    link.edges.extend(interior);
                }
            }
            link.seal_node()?;
        }
        Ok(link)
    }

    /// The stop facts of `trie`, one `pred_edge` call per depth-2 node
    /// `(a, b)` that a path joins — training's last step. [`NO_STOP`]
    /// where the pair is poisoned (not consecutive, yet without a link),
    /// where `a.to == b.to` (Algorithm 1 never asks), or where the layer
    /// has no answer.
    fn stops_via_sp(sp: &dyn SpProvider, trie: &Trie, node_link: &LinkArena) -> Vec<EdgeId> {
        let net = sp.network();
        trie.node_ids()
            .filter(|&n| trie.depth(n) == 2)
            .map(|n| {
                let (a, b) = (trie.last_edge(trie.parent(n)), trie.last_edge(n));
                let (s, head) = (net.edge(a).to, net.edge(b).to);
                let poisoned = !net.consecutive(a, b) && node_link.link(n).is_empty();
                if s == head || poisoned {
                    return NO_STOP;
                }
                sp.pred_edge(s, head).unwrap_or(NO_STOP)
            })
            .collect()
    }

    /// Compresses a raw spatial path: SP compression, greedy decomposition,
    /// Huffman encoding. `O(|T|)`.
    pub fn compress(&self, path: &[EdgeId]) -> Result<CompressedSpatial> {
        self.compress_with(path, Decomposer::Greedy)
    }

    /// Compresses with an explicit decomposition strategy (used by the
    /// Fig. 11 greedy-vs-DP experiment). The runs the stream carries are
    /// the slices of `path` the scan elided — no shortest-path call on a
    /// connected `path`. Where `path` is not connected, the stream carries
    /// the shortest path across the break (what its SP form stands for),
    /// or the call is [`PressError::NoShortestPath`] when there is none.
    pub fn compress_with(
        &self,
        path: &[EdgeId],
        decomposer: Decomposer,
    ) -> Result<CompressedSpatial> {
        self.encode(path, &sp_scan(self, path), decomposer)
    }

    /// The one writer of the stream grammar (module docs § the stream)
    /// over `spc`, the edges of `path` at the positions `kept` the scan
    /// kept: a Huffman symbol per unit, and after the symbol of a unit
    /// that starts at `spc[k]`, the run hidden in front of it when the
    /// pair `(spc[k - 1], spc[k])` is neither consecutive nor known to
    /// the model — the slice of `path` the scan elided.
    fn encode(
        &self,
        path: &[EdgeId],
        kept: &[usize],
        decomposer: Decomposer,
    ) -> Result<CompressedSpatial> {
        let spc: Vec<EdgeId> = kept.iter().map(|&at| path[at]).collect();
        let parts = match decomposer {
            Decomposer::Greedy => self.ac.decompose_greedy(&spc)?,
            Decomposer::Dp => decompose_dp(self.ac.trie(), &self.huffman, &spc)?,
        };
        let trie = self.ac.trie();
        let net = self.sp.network();
        let mut w = BitWriter::with_capacity_bits(parts.len() * 8);
        // Position in `spc` of the current unit's first edge.
        let mut k = 0;
        for &node in &parts {
            self.huffman.encode_symbol(node_to_symbol(node), &mut w);
            if k > 0 {
                let (a, b) = (spc[k - 1], spc[k]);
                if !net.consecutive(a, b) && self.known_gap(a, b).is_none() {
                    let fetched;
                    // Every elided edge precedes its successor in the tree
                    // of `a`'s head, so a slice whose first step leaves
                    // that head is the canonical interior; where `path` is
                    // not connected right after `a`, the run is fetched.
                    let run = if net.consecutive(a, path[kept[k - 1] + 1]) {
                        &path[kept[k - 1] + 1..kept[k]]
                    } else {
                        #[cfg(test)]
                        witness(|w| w.sp_fallbacks += 1);
                        let interior = self.sp.sp_interior(a, b);
                        fetched = interior.ok_or(PressError::NoShortestPath(a, b))?;
                        &fetched
                    };
                    self.write_run(a, b, run, &mut w)?;
                    debug_assert_eq!(self.sp.sp_interior(a, b).as_deref(), Some(run));
                }
            }
            k += trie.depth(node);
        }
        Ok(CompressedSpatial { bits: w.finish() })
    }

    /// Appends `run`, the interior of the gap between `a` and `b`, as
    /// turns. A run that does not walk from `a`'s head to `b`'s tail,
    /// arriving there exactly once, is no shortest path between the two
    /// — and would not read back.
    fn write_run(&self, a: EdgeId, b: EdgeId, run: &[EdgeId], w: &mut BitWriter) -> Result<()> {
        #[cfg(test)]
        witness(|w| w.gap_runs += 1);
        let net = self.sp.network();
        let target = net.edge(b).from;
        let mut head = net.edge(a).to;
        for &g in run {
            let out = net.out_edges(head);
            let turn = out
                .iter()
                .position(|&o| o == g)
                .filter(|_| head != target)
                .ok_or(PressError::NoShortestPath(a, b))?;
            w.push_code(turn as u64, turn_bits(out.len()) as u8);
            head = net.edge(g).to;
        }
        if head != target {
            return Err(PressError::NoShortestPath(a, b));
        }
        Ok(())
    }

    /// Reads the run [`HscModel::write_run`] wrote between `a` and `b`
    /// into `run`, proving its structure as it goes: every turn names an
    /// out-edge of the node the walk stands on, and the walk reaches
    /// `b`'s tail within `|V|` steps (a simple path has fewer; the bound
    /// is also what stops a chain of zero-bit turns through out-degree-1
    /// nodes, which consumes no input). Returns the run's length, summed
    /// left to right from `0.0` as the walk goes — the bits of
    /// [`path_len`] over `run`.
    fn read_run(
        &self,
        a: EdgeId,
        b: EdgeId,
        bits: &mut BitReader<'_>,
        run: &mut Vec<EdgeId>,
    ) -> Result<f64> {
        #[cfg(test)]
        witness(|w| w.gap_runs += 1);
        let net = self.sp.network();
        let corrupt =
            |what: &str| PressError::CorruptBitstream(format!("gap run from {a} to {b} {what}"));
        run.clear();
        let target = net.edge(b).from;
        let mut head = net.edge(a).to;
        let mut len = 0.0f64;
        while head != target {
            if run.len() >= net.num_nodes() {
                return Err(corrupt("has not arrived after |V| steps"));
            }
            let out = net.out_edges(head);
            let width = turn_bits(out.len());
            let (turn, got) = bits.peek_bits(width);
            if got < width {
                return Err(corrupt("is cut short by the end of the stream"));
            }
            bits.advance(width);
            let &g = out
                .get(turn as usize)
                .ok_or_else(|| corrupt("takes a turn beyond the node's out-degree"))?;
            run.push(g);
            len += net.weight(g);
            head = net.edge(g).to;
        }
        Ok(len)
    }

    /// The one reader of the stream grammar (module docs § the stream):
    /// calls `f(gap, node)` per unit in path order, `gap` being what lies
    /// in front of the unit when its first edge does not follow the
    /// previous unit's last; `f` returns `true` to stop. A run is decoded
    /// into `run`, the caller's buffer, reused gap after gap (and call
    /// after call, by a caller that keeps one).
    pub(crate) fn for_each_unit(
        &self,
        cs: &CompressedSpatial,
        run: &mut Vec<EdgeId>,
        mut f: impl FnMut(Option<Gap<'_>>, TrieNodeId) -> Result<bool>,
    ) -> Result<()> {
        let trie = self.ac.trie();
        let net = self.sp.network();
        let mut bits = cs.bits.reader();
        let mut prev_last = None;
        while !bits.is_exhausted() {
            let node = symbol_to_node(self.huffman.decode_symbol(&mut bits)?);
            let b = trie.first_edge(node);
            let gap = match prev_last.replace(trie.last_edge(node)) {
                Some(a) if !net.consecutive(a, b) => Some(match self.known_gap(a, b) {
                    Some((len, interior)) => Gap {
                        a,
                        b,
                        len,
                        interior,
                    },
                    None => {
                        let len = self.read_run(a, b, &mut bits, run)?;
                        Gap {
                            a,
                            b,
                            len,
                            interior: run,
                        }
                    }
                }),
                _ => None,
            };
            if f(gap, node)? {
                break;
            }
        }
        Ok(())
    }

    /// Decodes the stream back to the Trie node sequence.
    pub fn decode_nodes(&self, cs: &CompressedSpatial) -> Result<Vec<TrieNodeId>> {
        let mut nodes = Vec::new();
        self.for_each_unit(cs, &mut Vec::new(), |_, node| {
            nodes.push(node);
            Ok(false)
        })?;
        Ok(nodes)
    }

    /// Decodes to the SP-compressed edge sequence (`T'` of §3.1): the
    /// units' own edges, without the gaps between or inside them.
    pub fn decode_sp_form(&self, cs: &CompressedSpatial) -> Result<Vec<EdgeId>> {
        let trie = self.ac.trie();
        let mut edges = Vec::new();
        for n in self.decode_nodes(cs)? {
            edges.extend(trie.sub_trajectory(n));
        }
        Ok(edges)
    }

    /// `(bits, interior edges)` of the gap runs `cs` carries — what the
    /// stream pays to need no shortest-path layer, beside its unit
    /// symbols (everything else in it).
    pub fn run_cost(&self, cs: &CompressedSpatial) -> Result<(u64, usize)> {
        let (mut bits, mut edges) = (cs.bits.len_bits(), 0);
        self.for_each_unit(cs, &mut Vec::new(), |gap, node| {
            bits -= u64::from(self.huffman.code_len(node_to_symbol(node)));
            if let Some(gap) = gap.filter(|g| self.known_gap(g.a, g.b).is_none()) {
                edges += gap.interior.len();
            }
            Ok(false)
        })?;
        Ok((bits, edges))
    }

    /// Fully decompresses back to the original spatial path. `O(|T|)`.
    ///
    /// Equal to `sp_decompress(decode_sp_form(cs))` — the reference
    /// composition — without a shortest-path call: a unit's hidden gaps
    /// come from the link arena, a gap between two units from the arena
    /// or from the stream.
    pub fn decompress(&self, cs: &CompressedSpatial) -> Result<Vec<EdgeId>> {
        let mut out = Vec::new();
        self.for_each_unit(cs, &mut Vec::new(), |gap, node| {
            if let Some(gap) = gap {
                out.extend_from_slice(gap.interior);
            }
            self.expand_node_into(node, &mut out)?;
            Ok(false)
        })?;
        Ok(out)
    }

    /// Appends the fully decompressed `Tsub(node)` to `out`: along the
    /// root→`node` chain, each ancestor's link then its last edge — no
    /// shortest-path call. A node trained over a disconnected pair
    /// reports that pair, as SP decompression would.
    pub fn expand_node_into(&self, node: TrieNodeId, out: &mut Vec<EdgeId>) -> Result<()> {
        self.expand_chain_into(self.ac.trie().chain(node).as_slice(), out)
    }

    /// [`HscModel::expand_node_into`] over an already climbed chain.
    fn expand_chain_into(&self, chain: &[TrieNodeId], out: &mut Vec<EdgeId>) -> Result<()> {
        let Some(&node) = chain.last() else {
            return Ok(());
        };
        if !self.node_dist[node as usize].is_finite() {
            return Err(self.unreachable_pair(chain));
        }
        let trie = self.ac.trie();
        for &a in chain {
            out.extend_from_slice(self.node_link.link(a));
            out.push(trie.last_edge(a));
        }
        Ok(())
    }

    /// The first pair along a poisoned chain that no path joins.
    #[cold]
    fn unreachable_pair(&self, chain: &[TrieNodeId]) -> PressError {
        let trie = self.ac.trie();
        let net = self.sp.network();
        for w in chain.windows(2) {
            let (p, e) = (trie.last_edge(w[0]), trie.last_edge(w[1]));
            if self.node_link.link(w[1]).is_empty() && !net.consecutive(p, e) {
                return PressError::NoShortestPath(p, e);
            }
        }
        PressError::NoShortestPath(
            trie.last_edge(chain[0]),
            trie.last_edge(chain[chain.len() - 1]),
        )
    }

    /// The shortest-path gap between `a` and `b` when the training corpus
    /// ever put the two edges side by side: the Trie holds every such
    /// pair as a depth-2 node, whose link is the canonical
    /// `sp_interior(a, b)`. The length is the link-length table's, bit-equal
    /// to `gap_dist(a, b)` (the left-to-right fold of the link's weights is
    /// Dijkstra's own addition order). `None` for a pair training never
    /// saw, and for one it saw across two components. The test the
    /// stream's writer and reader both make to decide whether a run
    /// follows.
    pub fn known_gap(&self, a: EdgeId, b: EdgeId) -> Option<(f64, &[EdgeId])> {
        let trie = self.ac.trie();
        let node = trie.child(trie.level1(a), b)?;
        if !self.node_dist[node as usize].is_finite() {
            return None;
        }
        #[cfg(test)]
        witness(|w| w.arena_hits += 1);
        Some((self.node_link_len[node as usize], self.node_link.link(node)))
    }

    /// The hidden shortest-path gap between a node's parent's last edge
    /// and its own (empty at depth 1 and for consecutive pairs).
    #[inline]
    pub(crate) fn node_link(&self, node: TrieNodeId) -> &[EdgeId] {
        self.node_link.link(node)
    }

    /// The length of [`HscModel::node_link`], from the table: the bits of
    /// [`path_len`] over the link (`0.0` for an empty one).
    #[inline]
    pub(crate) fn node_link_len(&self, node: TrieNodeId) -> f64 {
        self.node_link_len[node as usize]
    }

    /// The whole link arena, as persisted.
    pub(crate) fn link_arena(&self) -> &LinkArena {
        &self.node_link
    }

    /// The stop facts, one per depth-2 node in node order, as persisted.
    pub(crate) fn stop_facts(&self) -> &[EdgeId] {
        &self.node_stop
    }

    /// The shortest-path provider.
    pub fn sp(&self) -> &Arc<dyn SpProvider> {
        &self.sp
    }

    /// The sub-trajectory Trie.
    pub fn trie(&self) -> &Trie {
        self.ac.trie()
    }

    /// The Aho–Corasick automaton.
    pub fn automaton(&self) -> &AcAutomaton {
        &self.ac
    }

    /// The Huffman code book.
    pub fn huffman(&self) -> &Huffman {
        &self.huffman
    }

    /// Fully-decompressed distance of a Trie node's sub-trajectory (§5.1).
    #[inline]
    pub fn node_dist(&self, node: TrieNodeId) -> f64 {
        self.node_dist[node as usize]
    }

    /// MBR of a Trie node's fully-decompressed sub-trajectory (§5.2).
    #[inline]
    pub fn node_mbr(&self, node: TrieNodeId) -> &Mbr {
        &self.node_mbr[node as usize]
    }

    /// Sizes of all auxiliary structures (§6.2 report).
    pub fn auxiliary_sizes(&self) -> AuxiliarySizes {
        AuxiliarySizes {
            sp_table_bytes: self.sp.approx_bytes(),
            automaton_bytes: self.ac.approx_bytes(),
            huffman_bytes: self.huffman.approx_bytes(),
            node_dist_bytes: self.node_dist.len() * 8,
            node_mbr_bytes: self.node_mbr.len() * std::mem::size_of::<Mbr>(),
            node_link_bytes: self.node_link.approx_bytes() + self.node_link_len.len() * 8,
            spend_index_bytes: self.spend.approx_bytes() + self.node_stop.len() * 4,
        }
    }
}

/// `SPend` from the model: the two cases that need no tree
/// ([`SpProvider::sp_end`]'s own), then the index, then — for a node
/// pair no training run passed or stopped at — the provider.
impl SpEnd for HscModel {
    #[inline]
    fn sp_end_edge(&self, anchor: EdgeId, next: EdgeId) -> Option<EdgeId> {
        if anchor == next {
            return None;
        }
        let net = self.sp.network();
        let (s, v) = (net.edge(anchor).to, net.edge(next).from);
        if s == v {
            return Some(anchor);
        }
        match self.spend.get(s, v) {
            Some(e) => {
                #[cfg(test)]
                witness(|w| w.spend_known += 1);
                Some(e)
            }
            None => {
                #[cfg(test)]
                witness(|w| w.spend_sp += 1);
                self.sp.pred_edge(s, v)
            }
        }
    }
}

impl std::fmt::Debug for HscModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HscModel")
            .field("trie_nodes", &self.trie().num_nodes())
            .field("theta", &self.trie().theta())
            .field("node_link_bytes", &self.node_link.approx_bytes())
            .field("aux_bytes", &self.auxiliary_sizes().total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::sp::sp_decompress;
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_net() -> Arc<RoadNetwork> {
        Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.15,
            seed: 3,
            ..GridConfig::default()
        }))
    }

    /// Random non-backtracking walk used as synthetic trajectory.
    fn random_walk(net: &RoadNetwork, rng: &mut StdRng, len: usize) -> Vec<EdgeId> {
        let mut path = Vec::new();
        let mut node = NodeId(rng.gen_range(0..net.num_nodes() as u32));
        for _ in 0..len {
            let candidates: Vec<_> = net
                .out_edges(node)
                .iter()
                .copied()
                .filter(|&e| {
                    path.last()
                        .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let e = candidates[rng.gen_range(0..candidates.len())];
            path.push(e);
            node = net.edge(e).to;
        }
        path
    }

    fn trained_model(net: &Arc<RoadNetwork>) -> HscModel {
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(11);
        let training: Vec<Vec<EdgeId>> = (0..60).map(|_| random_walk(net, &mut rng, 15)).collect();
        HscModel::train(sp, &training, 3).unwrap()
    }

    #[test]
    fn parallel_corpus_compression_preserves_order() {
        // The work-stealing pass must be indistinguishable from the
        // sequential map, in content and order, for any thread count.
        let net = test_net();
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(13);
        let training: Vec<Vec<EdgeId>> = (0..64).map(|_| random_walk(&net, &mut rng, 20)).collect();
        let sequential: Vec<Vec<EdgeId>> = training
            .iter()
            .map(|p| sp_compress(sp.as_ref(), p))
            .collect();
        // Pin worker counts explicitly: the auto variant may legitimately
        // fall back to sequential on many-core hosts (corpus too small),
        // which would leave the work-stealing path untested.
        for threads in [2, 4, 7] {
            let parallel = HscModel::sp_compress_corpus_with(sp.as_ref(), &training, threads);
            assert_eq!(sequential, parallel, "order broken at {threads} threads");
        }
        let auto = HscModel::sp_compress_corpus(sp.as_ref(), &training);
        assert_eq!(sequential, auto);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let path = random_walk(&net, &mut rng, 25);
            let cs = model.compress(&path).unwrap();
            assert_eq!(model.decompress(&cs).unwrap(), path, "HSC must be lossless");
        }
    }

    #[test]
    fn dp_roundtrip_is_lossless_too() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..10 {
            let path = random_walk(&net, &mut rng, 20);
            let cs = model.compress_with(&path, Decomposer::Dp).unwrap();
            assert_eq!(model.decompress(&cs).unwrap(), path);
        }
    }

    #[test]
    fn dp_never_produces_more_bits_than_greedy() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..20 {
            let path = random_walk(&net, &mut rng, 30);
            let g = model.compress_with(&path, Decomposer::Greedy).unwrap();
            let d = model.compress_with(&path, Decomposer::Dp).unwrap();
            assert!(d.bits.len_bits() <= g.bits.len_bits());
        }
    }

    #[test]
    fn empty_path_roundtrip() {
        let net = test_net();
        let model = trained_model(&net);
        let cs = model.compress(&[]).unwrap();
        assert!(cs.bits.is_empty());
        assert!(model.decompress(&cs).unwrap().is_empty());
    }

    #[test]
    fn node_dist_matches_decompressed_weight() {
        let net = test_net();
        let model = trained_model(&net);
        let trie = model.trie();
        for node in trie.node_ids().take(200) {
            let sub = trie.sub_trajectory(node);
            let expanded = sp_decompress(model.sp(), &sub);
            if let Ok(expanded) = expanded {
                let w = net.path_weight(&expanded);
                let d = model.node_dist(node);
                assert!(
                    (w - d).abs() < 1e-6,
                    "node {node}: table {d} vs expanded {w}"
                );
                // MBR covers every edge of the expansion.
                let m = model.node_mbr(node);
                for e in expanded {
                    let em = net.edge_mbr(e);
                    assert!(m.intersects(&em));
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_shortest_path_heavy_traffic() {
        // Trajectories that *are* shortest paths compress extremely well.
        let net = test_net();
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(5);
        let mut sp_paths = Vec::new();
        for _ in 0..80 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let tree = press_network::dijkstra(&net, a);
            if let Some(p) = tree.edge_path_to(&net, b) {
                if p.len() >= 4 {
                    sp_paths.push(p);
                }
            }
        }
        let model = HscModel::train(sp, &sp_paths[..40], 3).unwrap();
        let mut orig_bits = 0u64;
        let mut comp_bits = 0u64;
        for p in &sp_paths[40..] {
            let cs = model.compress(p).unwrap();
            orig_bits += p.len() as u64 * 32;
            comp_bits += cs.bits.len_bits();
            assert_eq!(model.decompress(&cs).unwrap(), *p);
        }
        assert!(
            comp_bits * 3 < orig_bits,
            "expected >3x spatial compression on SP-heavy data: {orig_bits} -> {comp_bits}"
        );
    }

    /// Two equal routes `s → x → v` and `s → y → v` under three trained
    /// pairs: `(a, b)` and `(a2, b)` enter `s` and leave `v`; `(a, g2)`
    /// stops inside the first route.
    fn diamond() -> (RoadNetwork, Trie, Vec<f64>, [EdgeId; 7]) {
        use press_network::{Point, RoadNetworkBuilder};
        let mut nb = RoadNetworkBuilder::new();
        let n: Vec<_> = (0..7)
            .map(|i| nb.add_node(Point::new(i as f64 * 10.0, (i % 3) as f64 * 10.0)))
            .collect();
        let (p, p2, s, x, y, v, q) = (n[0], n[1], n[2], n[3], n[4], n[5], n[6]);
        let mut edge = |u, w| nb.add_edge(u, w, 1.0).unwrap();
        let e @ [a, a2, _, g2, _, _, b] = [
            edge(p, s),
            edge(p2, s),
            edge(s, x),
            edge(x, v),
            edge(s, y),
            edge(y, v),
            edge(v, q),
        ];
        let net = nb.build();
        let trie = Trie::build(&[vec![a, b], vec![a2, b], vec![a, g2]], 2, 7).unwrap();
        // Root, seven level-1 nodes, then (a, b), (a2, b), (a, g2).
        let mut dist = vec![1.0; trie.num_nodes()];
        dist[0] = 0.0;
        dist[8..].copy_from_slice(&[4.0, 4.0, 3.0]);
        (net, trie, dist, e)
    }

    fn diamond_arena(second: [EdgeId; 2], e: &[EdgeId; 7]) -> LinkArena {
        let [_, _, g1, g2, ..] = *e;
        let off = [0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 5].to_vec();
        LinkArena::from_raw(11, off, vec![g1, g2, second[0], second[1], g1]).unwrap()
    }

    #[test]
    fn spend_index_answers_every_fact_and_nothing_else() {
        let (net, trie, dist, e) = diamond();
        let [a, _, g1, g2, h1, _, b] = e;
        let arena = diamond_arena([g1, g2], &e);
        assert_eq!(node_tables(&net, &trie, &arena).unwrap().dist, dist);
        let index = SpendIndex::build(&net, &trie, &dist, &arena, &[b, b, g2]).unwrap();
        let (s, x, y, v, q) = (
            net.edge(a).to,
            net.edge(g1).to,
            net.edge(h1).to,
            net.edge(g2).to,
            net.edge(b).to,
        );
        assert_eq!(index.get(s, x), Some(g1));
        assert_eq!(index.get(s, v), Some(g2));
        assert_eq!(index.get(s, q), Some(b));
        assert_eq!(index.get(s, y), None);
        assert_eq!(index.get(x, v), None);
        // (s, x) → g1 under all three pairs, (s, v) → g2 under two of
        // them and as a stop fact, (s, q) → b twice.
        assert_eq!(index.facts.len(), 8);
    }

    /// Facts out of one source that name two predecessors for one node
    /// are an error — between two links (an arena [`node_tables`] passes:
    /// both chains connect and sum right), and between a link and a stop
    /// fact.
    #[test]
    fn spend_index_rejects_facts_that_do_not_form_a_tree() {
        let (net, trie, dist, e) = diamond();
        let [_, _, g1, g2, h1, h2, b] = e;
        let forked = diamond_arena([h1, h2], &e);
        assert_eq!(node_tables(&net, &trie, &forked).unwrap().dist, dist);
        let err = SpendIndex::build(&net, &trie, &dist, &forked, &[b, b, NO_STOP]).unwrap_err();
        assert!(err.contains("disagree"), "{err}");

        let arena = diamond_arena([g1, g2], &e);
        let err = SpendIndex::build(&net, &trie, &dist, &arena, &[b, b, h2]).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn spend_index_rejects_malformed_stop_facts() {
        let (net, trie, mut dist, e) = diamond();
        let [_, _, g1, g2, _, _, b] = e;
        let arena = diamond_arena([g1, g2], &e);
        let build = |dist: &[f64], stops: &[EdgeId]| {
            SpendIndex::build(&net, &trie, dist, &arena, stops).unwrap_err()
        };
        assert!(build(&dist, &[b, b]).contains("fewer"));
        assert!(build(&dist, &[b, b, g2, g2]).contains("more"));
        assert!(build(&dist, &[b, b, g1]).contains("no in-edge"));
        assert!(build(&dist, &[b, EdgeId(7), g2]).contains("no in-edge"));
        dist[9] = f64::INFINITY;
        assert!(build(&dist, &[b, b, g2]).contains("poisoned"));
    }

    #[test]
    fn spend_index_offsets_overflow_is_an_error() {
        assert_eq!(csr_offsets([2, 0, 3]).unwrap(), [0, 2, 2, 5]);
        assert!(csr_offsets([u32::MAX as usize, 1]).is_err());
        assert!(csr_offsets([u32::MAX as usize + 1]).is_err());
    }

    #[test]
    fn auxiliary_sizes_all_populated() {
        let net = test_net();
        let model = trained_model(&net);
        let aux = model.auxiliary_sizes();
        assert!(aux.sp_table_bytes > 0);
        assert!(aux.automaton_bytes > 0);
        assert!(aux.huffman_bytes > 0);
        assert!(aux.node_dist_bytes > 0);
        assert!(aux.node_mbr_bytes > 0);
        assert!(aux.node_link_bytes > 0);
        assert!(aux.spend_index_bytes > 0);
        assert_eq!(
            aux.total(),
            aux.sp_table_bytes
                + aux.automaton_bytes
                + aux.huffman_bytes
                + aux.node_dist_bytes
                + aux.node_mbr_bytes
                + aux.node_link_bytes
                + aux.spend_index_bytes
        );
    }
}
