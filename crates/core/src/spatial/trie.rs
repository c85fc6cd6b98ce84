//! Trie over frequent sub-trajectories (paper §3.2.1, Fig. 5).
//!
//! From a training set of SP-compressed trajectories, every sub-trajectory
//! of length at most `θ` starting at each edge is inserted into a Trie;
//! each Trie node's frequency counts how many extracted sub-trajectories
//! pass through it (the link labels of the paper's Fig. 5). The first
//! level is completed with *all* network edges (frequency 0 where unseen)
//! so that the Aho–Corasick decomposition can always make progress.
//!
//! # Layout
//!
//! The Trie is flat: one array per node field (`parent`, `edge`, `first`,
//! `depth`, `freq`), indexed by node id, plus one CSR of children — node
//! `n`'s children are `kids[kid_off[n]..kid_off[n + 1]]`, `(edge, child)`
//! pairs sorted by edge, so [`Trie::child`] is a binary search over one
//! contiguous run and no node owns an allocation. The root's children are
//! implicit: the first level is complete and in edge order, so the
//! level-1 node of edge `e` is node `e + 1` and `child(ROOT, e)` is
//! arithmetic; the root's CSR run is empty. Node ids are parents-first
//! (`parent < id`) — as [`Trie::build`] creates them and as the persisted
//! records list them — so the arrays fill in one pass over the nodes and
//! the CSR is one counting sort by parent.

use crate::error::{PressError, Result};
use press_network::EdgeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a Trie node; `Trie::ROOT` (= 0) is the root.
pub type TrieNodeId = u32;

/// The sub-trajectory Trie (see the module docs for its layout).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trie {
    theta: usize,
    /// Size of the edge alphabet; the level-1 nodes are `1..=alphabet`.
    alphabet: usize,
    parent: Vec<TrieNodeId>,
    /// Label of the link from `parent` to the node. Unused for the root.
    edge: Vec<EdgeId>,
    /// Label of the depth-1 ancestor: the *first* edge of the node's
    /// sub-trajectory, copied down from the parent when the node is made.
    first: Vec<EdgeId>,
    depth: Vec<u16>,
    freq: Vec<u64>,
    /// CSR offsets of each node's run in `kids` (the root's run is empty).
    kid_off: Vec<u32>,
    /// `(edge, child)` of every node at depth ≥ 2, grouped by parent and
    /// sorted by edge within a group.
    kids: Vec<(EdgeId, TrieNodeId)>,
}

impl Trie {
    /// The root node id.
    pub const ROOT: TrieNodeId = 0;

    /// Builds the Trie from SP-compressed training trajectories.
    ///
    /// * `training` — trajectories already passed through SP compression
    ///   (the paper's training input, §3.2).
    /// * `theta` — maximum sub-trajectory length (the paper uses θ = 3 for
    ///   its dataset).
    /// * `num_edges` — edge count of the road network; the first level is
    ///   completed to exactly this alphabet.
    pub fn build(training: &[Vec<EdgeId>], theta: usize, num_edges: usize) -> Result<Self> {
        if theta == 0 {
            return Err(PressError::InvalidConfig("theta must be at least 1".into()));
        }
        if num_edges == 0 {
            return Err(PressError::InvalidTraining("network has no edges".into()));
        }
        let mut trie = Trie::with_root(theta, num_edges, num_edges + 1);
        // Complete first level, in edge order (paper: "the nodes in the
        // first level correspond to all the edges in the original road
        // network").
        for e in 0..num_edges as u32 {
            trie.push_node(Self::ROOT, EdgeId(e), 1, 0);
        }
        // The growing form: the children of non-root nodes by (parent,
        // edge), frozen into the CSR once every node exists.
        let mut grown: HashMap<(TrieNodeId, EdgeId), TrieNodeId> = HashMap::new();
        for traj in training {
            for (i, &first) in traj.iter().enumerate() {
                if first.index() >= num_edges {
                    return Err(PressError::InvalidTraining(format!(
                        "training edge {first} outside network of {num_edges} edges"
                    )));
                }
                let end = (i + theta).min(traj.len());
                let mut node = Self::ROOT;
                for &e in &traj[i..end] {
                    if e.index() >= num_edges {
                        return Err(PressError::InvalidTraining(format!(
                            "training edge {e} outside network of {num_edges} edges"
                        )));
                    }
                    node = if node == Self::ROOT {
                        trie.level1(e)
                    } else {
                        *grown.entry((node, e)).or_insert_with(|| {
                            let depth = trie.depth[node as usize] + 1;
                            trie.push_node(node, e, depth, 0)
                        })
                    };
                    trie.freq[node as usize] += 1;
                }
            }
        }
        let duplicate = trie.index_children();
        debug_assert_eq!(duplicate, None, "the growing form has one child per label");
        Ok(trie)
    }

    /// Reconstructs a Trie from its serialized per-node records (the
    /// artifact tier's load path). The `i`-th record describes non-root
    /// node `i + 1` as `(parent, last edge, depth, frequency)`; nodes must
    /// be listed parents-first (`parent < id`), exactly as [`Trie::build`]
    /// creates them, and the first `num_edges` nodes must be the complete
    /// first level in edge order. The records fill the node arrays in one
    /// pass and the child CSR is derived from them, so the reconstructed
    /// Trie is field-for-field identical to the one that was saved.
    ///
    /// Violations return an error string (the caller maps it to a typed
    /// store error) — never a panic. The refusal is the first node, in id
    /// order, that breaks a rule, and the first rule it breaks: its parent
    /// is not earlier, its edge is outside the alphabet, its depth is not
    /// its parent's + 1 or exceeds θ, it is not the level-1 node the
    /// complete first level puts at its id, or its parent already has a
    /// child with its label.
    pub(crate) fn from_raw_parts(
        theta: usize,
        num_edges: usize,
        nodes: impl ExactSizeIterator<Item = (TrieNodeId, EdgeId, u16, u64)>,
    ) -> std::result::Result<Self, String> {
        if theta == 0 {
            return Err("theta must be at least 1".into());
        }
        if num_edges == 0 {
            return Err("network has no edges".into());
        }
        if nodes.len() < num_edges {
            return Err(format!(
                "{} nodes cannot hold a complete {num_edges}-edge first level",
                nodes.len()
            ));
        }
        let mut trie = Trie::with_root(theta, num_edges, nodes.len() + 1);
        for (i, (parent, edge, depth, freq)) in nodes.enumerate() {
            let id = (i + 1) as TrieNodeId;
            if let Err(refusal) = trie.check_record(id, parent, edge, depth) {
                // A node below `id` that repeats a sibling's label was
                // refused first.
                return Err(trie
                    .index_children()
                    .map_or(refusal, |dup| trie.duplicate_of(dup)));
            }
            trie.push_node(parent, edge, depth, freq);
        }
        match trie.index_children() {
            Some(dup) => Err(trie.duplicate_of(dup)),
            None => Ok(trie),
        }
    }

    /// The rules [`Trie::from_raw_parts`] can check as the record of node
    /// `id` arrives: all but a repeated label under a non-root parent,
    /// which the CSR build finds.
    fn check_record(
        &self,
        id: TrieNodeId,
        parent: TrieNodeId,
        edge: EdgeId,
        depth: u16,
    ) -> std::result::Result<(), String> {
        if parent >= id {
            return Err(format!("node {id} has non-prior parent {parent}"));
        }
        if edge.index() >= self.alphabet {
            return Err(format!("node {id} labelled with out-of-alphabet {edge}"));
        }
        let expected_depth = u32::from(self.depth[parent as usize]) + 1;
        if u32::from(depth) != expected_depth {
            return Err(format!(
                "node {id} depth {depth} != parent depth + 1 ({expected_depth})"
            ));
        }
        if depth as usize > self.theta {
            return Err(format!("node {id} deeper than theta {}", self.theta));
        }
        let level1 = id as usize <= self.alphabet;
        if level1 && (parent != Self::ROOT || edge != EdgeId(id - 1)) {
            return Err(format!(
                "node {id} must be the level-1 node of edge e{} (complete first level)",
                id - 1
            ));
        }
        if !level1 && parent == Self::ROOT {
            // The complete first level already holds every root child.
            return Err(duplicate_refusal(id, parent, edge));
        }
        Ok(())
    }

    /// The refusal of node `id`, already in the arrays, as a duplicate.
    fn duplicate_of(&self, id: TrieNodeId) -> String {
        duplicate_refusal(id, self.parent[id as usize], self.edge[id as usize])
    }

    /// A Trie holding only the root, with room for `capacity` nodes.
    fn with_root(theta: usize, alphabet: usize, capacity: usize) -> Self {
        let mut trie = Trie {
            theta,
            alphabet,
            parent: Vec::with_capacity(capacity),
            edge: Vec::with_capacity(capacity),
            first: Vec::with_capacity(capacity),
            depth: Vec::with_capacity(capacity),
            freq: Vec::with_capacity(capacity),
            kid_off: Vec::new(),
            kids: Vec::new(),
        };
        trie.parent.push(Self::ROOT);
        trie.edge.push(EdgeId(u32::MAX));
        trie.first.push(EdgeId(u32::MAX));
        trie.depth.push(0);
        trie.freq.push(0);
        trie
    }

    /// Appends a node to the arrays (the CSR is built afterwards).
    fn push_node(&mut self, parent: TrieNodeId, edge: EdgeId, depth: u16, freq: u64) -> TrieNodeId {
        let id = self.parent.len() as TrieNodeId;
        let first = if depth == 1 {
            edge
        } else {
            self.first[parent as usize]
        };
        self.parent.push(parent);
        self.edge.push(edge);
        self.first.push(first);
        self.depth.push(depth);
        self.freq.push(freq);
        id
    }

    /// (Re)builds the child CSR over every node in the arrays: a counting
    /// sort by parent, then each run sorted by edge. Returns the first node,
    /// in id order, whose parent already has a child with its label.
    fn index_children(&mut self) -> Option<TrieNodeId> {
        let n = self.parent.len();
        // Per-parent counts, prefix-summed to run ends; the fill below
        // walks each end back to its run's start.
        let mut off = vec![0u32; n + 1];
        for &p in &self.parent[1..] {
            if p != Self::ROOT {
                off[p as usize] += 1;
            }
        }
        let mut end = 0;
        for o in &mut off[..n] {
            end += *o;
            *o = end;
        }
        off[n] = end;
        let mut kids = vec![(EdgeId(0), Self::ROOT); end as usize];
        for id in (1..n).rev() {
            let p = self.parent[id] as usize;
            if p != Self::ROOT as usize {
                off[p] -= 1;
                kids[off[p] as usize] = (self.edge[id], id as TrieNodeId);
            }
        }
        let mut duplicate: Option<TrieNodeId> = None;
        for w in off.windows(2) {
            let run = &mut kids[w[0] as usize..w[1] as usize];
            if run.len() > 1 {
                run.sort_unstable();
                for pair in run.windows(2).filter(|p| p[0].0 == p[1].0) {
                    duplicate = Some(duplicate.map_or(pair[1].1, |d| d.min(pair[1].1)));
                }
            }
        }
        self.kid_off = off;
        self.kids = kids;
        duplicate
    }

    /// The child of `node` labelled `e`, if present — arithmetic at the
    /// root, a binary search over the node's CSR run below it.
    #[inline]
    pub fn child(&self, node: TrieNodeId, e: EdgeId) -> Option<TrieNodeId> {
        if node == Self::ROOT {
            return (e.index() < self.alphabet).then_some(e.0 + 1);
        }
        let kids = self.children(node);
        kids.binary_search_by_key(&e, |&(edge, _)| edge)
            .ok()
            .map(|i| kids[i].1)
    }

    /// `(edge, child)` of every child of a non-root `node`, sorted by
    /// edge. Empty for the root, whose children are implicit
    /// ([`Trie::level1`]).
    #[inline]
    pub(crate) fn children(&self, node: TrieNodeId) -> &[(EdgeId, TrieNodeId)] {
        let n = node as usize;
        &self.kids[self.kid_off[n] as usize..self.kid_off[n + 1] as usize]
    }

    /// Number of nodes including the root.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Maximum sub-trajectory length θ the Trie was built with.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Size of the edge alphabet (network edge count).
    pub fn alphabet_size(&self) -> usize {
        self.alphabet
    }

    /// Parent of a node (root's parent is root).
    #[inline]
    pub fn parent(&self, node: TrieNodeId) -> TrieNodeId {
        self.parent[node as usize]
    }

    /// Label of the link from the node's parent — i.e. the *last* edge of
    /// the node's sub-trajectory. Meaningless for the root.
    #[inline]
    pub fn last_edge(&self, node: TrieNodeId) -> EdgeId {
        self.edge[node as usize]
    }

    /// Depth of a node = length of its sub-trajectory.
    #[inline]
    pub fn depth(&self, node: TrieNodeId) -> usize {
        self.depth[node as usize] as usize
    }

    /// Training frequency of the node's sub-trajectory (prefix counted).
    #[inline]
    pub fn freq(&self, node: TrieNodeId) -> u64 {
        self.freq[node as usize]
    }

    /// First-level node of a network edge (guaranteed to exist): node
    /// `e + 1`.
    #[inline]
    pub fn level1(&self, e: EdgeId) -> TrieNodeId {
        debug_assert!(e.index() < self.alphabet, "{e} outside the alphabet");
        e.0 + 1
    }

    /// The *first* edge of the node's sub-trajectory (the level-1 ancestor's
    /// label) — a table read, not a climb. Meaningless for the root.
    #[inline]
    pub fn first_edge(&self, node: TrieNodeId) -> EdgeId {
        self.first[node as usize]
    }

    /// Reconstructs the sub-trajectory `Tsub(node)` (path from the root).
    pub fn sub_trajectory(&self, node: TrieNodeId) -> Vec<EdgeId> {
        let mut edges = Vec::with_capacity(self.depth(node));
        let mut cur = node;
        while cur != Self::ROOT {
            edges.push(self.edge[cur as usize]);
            cur = self.parent[cur as usize];
        }
        edges.reverse();
        edges
    }

    /// The root→`node` chain of node ids (the depth-1 ancestor first,
    /// `node` itself last; empty for the root), built in one climb.
    pub(crate) fn chain(&self, node: TrieNodeId) -> NodeChain {
        let depth = self.depth(node);
        let mut chain = NodeChain {
            inline: [Self::ROOT; NodeChain::INLINE],
            spill: Vec::new(),
            len: depth,
        };
        if depth > NodeChain::INLINE {
            chain.spill = vec![Self::ROOT; depth];
        }
        let mut cur = node;
        for slot in chain.as_mut_slice().iter_mut().rev() {
            *slot = cur;
            cur = self.parent[cur as usize];
        }
        chain
    }

    /// Iterator over all non-root node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = TrieNodeId> {
        1..self.parent.len() as TrieNodeId
    }

    /// Per-symbol frequencies for Huffman construction: symbol `s`
    /// corresponds to node `s + 1` (the root is not a symbol).
    pub fn symbol_freqs(&self) -> Vec<u64> {
        self.freq[1..].to_vec()
    }

    /// In-memory footprint in bytes (§6.2 auxiliary report): the five node
    /// arrays and the child CSR.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.parent.len() * size_of::<TrieNodeId>()
            + (self.edge.len() + self.first.len()) * size_of::<EdgeId>()
            + self.depth.len() * size_of::<u16>()
            + self.freq.len() * size_of::<u64>()
            + self.kid_off.len() * size_of::<u32>()
            + self.kids.len() * size_of::<(EdgeId, TrieNodeId)>()
    }
}

fn duplicate_refusal(id: TrieNodeId, parent: TrieNodeId, edge: EdgeId) -> String {
    format!("node {id} duplicates child {edge} of {parent}")
}

/// A root→node chain of Trie node ids ([`Trie::chain`]). Depth is at
/// most θ (3 in the paper), so the chain lives on the stack; only a
/// model with θ beyond the inline capacity spills to the heap.
pub(crate) struct NodeChain {
    inline: [TrieNodeId; Self::INLINE],
    spill: Vec<TrieNodeId>,
    len: usize,
}

impl NodeChain {
    const INLINE: usize = 8;

    /// The chain, depth-1 ancestor first.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[TrieNodeId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn as_mut_slice(&mut self) -> &mut [TrieNodeId] {
        if self.len <= Self::INLINE {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// Converts a Trie node id to its Huffman symbol.
#[inline]
pub fn node_to_symbol(node: TrieNodeId) -> u32 {
    debug_assert!(node != Trie::ROOT, "the root is not a symbol");
    node - 1
}

/// Converts a Huffman symbol back to its Trie node id.
#[inline]
pub fn symbol_to_node(sym: u32) -> TrieNodeId {
    sym + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (Fig. 5): three SP-compressed
    /// trajectories over a 10-edge network, θ = 3. Edge `e_k` of the paper
    /// maps to `EdgeId(k - 1)`.
    pub(crate) fn paper_training() -> Vec<Vec<EdgeId>> {
        let e = |k: u32| EdgeId(k - 1);
        vec![
            vec![e(1), e(5), e(8), e(6), e(3)],
            vec![e(1), e(5), e(2), e(1), e(4), e(8)],
            vec![e(2), e(1), e(4), e(6)],
        ]
    }

    fn paper_trie() -> Trie {
        Trie::build(&paper_training(), 3, 10).unwrap()
    }

    #[test]
    fn node_count_matches_fig5() {
        // Fig. 5 has 27 nodes (ids 1..27) plus the root.
        let t = paper_trie();
        assert_eq!(t.num_nodes(), 28);
    }

    #[test]
    fn first_level_is_complete() {
        let t = paper_trie();
        for e in 0..10u32 {
            let n = t.level1(EdgeId(e));
            assert_eq!(t.depth(n), 1);
            assert_eq!(t.last_edge(n), EdgeId(e));
        }
    }

    #[test]
    fn frequencies_match_fig5() {
        let e = |k: u32| EdgeId(k - 1);
        let t = paper_trie();
        // Link root -> e1 carries 4 (e1 starts 4 extracted sub-trajectories).
        assert_eq!(t.freq(t.level1(e(1))), 4);
        assert_eq!(t.freq(t.level1(e(2))), 2);
        assert_eq!(t.freq(t.level1(e(3))), 1);
        assert_eq!(t.freq(t.level1(e(4))), 2);
        assert_eq!(t.freq(t.level1(e(5))), 2);
        assert_eq!(t.freq(t.level1(e(6))), 2);
        assert_eq!(t.freq(t.level1(e(8))), 2);
        // Unseen edges appear with frequency 0.
        assert_eq!(t.freq(t.level1(e(7))), 0);
        assert_eq!(t.freq(t.level1(e(9))), 0);
        assert_eq!(t.freq(t.level1(e(10))), 0);
        // <e2, e1, e4> appears twice.
        let n_e2 = t.level1(e(2));
        let n_e2e1 = t.child(n_e2, e(1)).unwrap();
        let n_e2e1e4 = t.child(n_e2e1, e(4)).unwrap();
        assert_eq!(t.freq(n_e2e1e4), 2);
        // <e1, e4, e6> appears once.
        let n_e1 = t.level1(e(1));
        let n_e1e4 = t.child(n_e1, e(4)).unwrap();
        let n_e1e4e6 = t.child(n_e1e4, e(6)).unwrap();
        assert_eq!(t.freq(n_e1e4e6), 1);
        assert_eq!(t.freq(n_e1e4), 2); // e1e4e8 and e1e4e6
    }

    #[test]
    fn sub_trajectory_reconstruction() {
        let e = |k: u32| EdgeId(k - 1);
        let t = paper_trie();
        let n_e1 = t.level1(e(1));
        let n_e1e5 = t.child(n_e1, e(5)).unwrap();
        let n_e1e5e8 = t.child(n_e1e5, e(8)).unwrap();
        assert_eq!(t.sub_trajectory(n_e1e5e8), vec![e(1), e(5), e(8)]);
        assert_eq!(t.first_edge(n_e1e5e8), e(1));
        assert_eq!(t.last_edge(n_e1e5e8), e(8));
        assert_eq!(t.depth(n_e1e5e8), 3);
        assert_eq!(t.sub_trajectory(Trie::ROOT), Vec::<EdgeId>::new());
    }

    #[test]
    fn chain_lists_ancestors_root_first_at_any_depth() {
        // Twelve levels: past the inline capacity, so the spill runs too.
        let path: Vec<EdgeId> = (0..12).map(EdgeId).collect();
        let t = Trie::build(std::slice::from_ref(&path), 12, 12).unwrap();
        assert!(t.chain(Trie::ROOT).as_slice().is_empty());
        let mut n = Trie::ROOT;
        for &e in &path {
            n = t.child(n, e).unwrap();
            let chain = t.chain(n);
            assert_eq!(chain.as_slice().last(), Some(&n));
            let edges: Vec<EdgeId> = chain.as_slice().iter().map(|&a| t.last_edge(a)).collect();
            assert_eq!(edges, t.sub_trajectory(n));
            assert_eq!(t.first_edge(n), path[0]);
        }
    }

    #[test]
    fn theta_limits_depth() {
        let t = Trie::build(&paper_training(), 2, 10).unwrap();
        for n in t.node_ids() {
            assert!(t.depth(n) <= 2);
        }
        // theta = 1 degenerates to just the alphabet.
        let t1 = Trie::build(&paper_training(), 1, 10).unwrap();
        assert_eq!(t1.num_nodes(), 11);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Trie::build(&paper_training(), 0, 10).is_err());
        assert!(Trie::build(&paper_training(), 3, 0).is_err());
        // Training edge outside the alphabet.
        assert!(Trie::build(&paper_training(), 3, 5).is_err());
    }

    #[test]
    fn empty_training_gives_alphabet_only() {
        let t = Trie::build(&[], 3, 4).unwrap();
        assert_eq!(t.num_nodes(), 5);
        for e in 0..4u32 {
            assert_eq!(t.freq(t.level1(EdgeId(e))), 0);
        }
    }

    #[test]
    fn symbol_mapping_roundtrip() {
        let t = paper_trie();
        for n in t.node_ids() {
            assert_eq!(symbol_to_node(node_to_symbol(n)), n);
        }
        assert_eq!(t.symbol_freqs().len(), t.num_nodes() - 1);
    }

    #[test]
    fn tail_subtrajectories_are_shorter() {
        // "those sub-trajectories near the tail of each trajectory may be
        // shorter than theta" — <e6, e3> and <e3> from Ts1 must be present.
        let e = |k: u32| EdgeId(k - 1);
        let t = paper_trie();
        let n_e6 = t.level1(e(6));
        let n_e6e3 = t.child(n_e6, e(3)).unwrap();
        assert_eq!(t.freq(n_e6e3), 1);
        assert!(t.child(n_e6e3, e(1)).is_none());
    }

    /// `approx_bytes` is the resident layout: five node arrays, the CSR
    /// offsets and one `(edge, child)` pair per node below depth 1.
    #[test]
    fn approx_bytes_is_the_resident_layout() {
        use std::mem::size_of;
        let t = paper_trie();
        let n = t.num_nodes();
        let kids = n - 1 - t.alphabet_size();
        assert_eq!(kids, 17);
        let per_node =
            size_of::<TrieNodeId>() + 2 * size_of::<EdgeId>() + size_of::<u16>() + size_of::<u64>();
        assert_eq!(
            t.approx_bytes(),
            n * per_node + (n + 1) * size_of::<u32>() + kids * size_of::<(EdgeId, TrieNodeId)>()
        );
        assert_eq!(t.approx_bytes(), 28 * 22 + 29 * 4 + 17 * 8);
    }

    /// The root's children are the level-1 nodes `e + 1`, a child lookup
    /// outside the alphabet finds nothing, and every node's CSR run lists
    /// exactly the nodes naming it as parent, sorted by edge.
    #[test]
    fn root_children_are_implicit_and_runs_are_sorted() {
        let t = paper_trie();
        for e in 0..10u32 {
            assert_eq!(t.child(Trie::ROOT, EdgeId(e)), Some(e + 1));
            assert_eq!(t.level1(EdgeId(e)), e + 1);
        }
        assert_eq!(t.child(Trie::ROOT, EdgeId(10)), None);
        assert!(t.children(Trie::ROOT).is_empty());
        for p in t.node_ids() {
            let run = t.children(p);
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "node {p}");
            let named: Vec<TrieNodeId> = t.node_ids().filter(|&c| t.parent(c) == p).collect();
            let mut listed: Vec<TrieNodeId> = run.iter().map(|&(_, c)| c).collect();
            listed.sort_unstable();
            assert_eq!(listed, named, "node {p}");
            for &(e, c) in run {
                assert_eq!(t.last_edge(c), e);
                assert_eq!(t.child(p, e), Some(c));
            }
        }
    }
}
