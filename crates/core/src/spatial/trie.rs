//! Trie over frequent sub-trajectories (paper §3.2.1, Fig. 5).
//!
//! From a training set of SP-compressed trajectories, every sub-trajectory
//! of length at most `θ` starting at each edge is inserted into a Trie;
//! each Trie node's frequency counts how many extracted sub-trajectories
//! pass through it (the link labels of the paper's Fig. 5). The first
//! level is completed with *all* network edges (frequency 0 where unseen)
//! so that the Aho–Corasick decomposition can always make progress.

use crate::error::{PressError, Result};
use press_network::EdgeId;
use serde::{Deserialize, Serialize};

/// Identifier of a Trie node; `Trie::ROOT` (= 0) is the root.
pub type TrieNodeId = u32;

#[derive(Clone, Debug, Serialize, Deserialize)]
struct TrieNode {
    parent: TrieNodeId,
    /// Label of the link from `parent` to this node. Unused for the root.
    edge: EdgeId,
    /// Label of the depth-1 ancestor: the *first* edge of the node's
    /// sub-trajectory, copied down from the parent when the node is made.
    first: EdgeId,
    depth: u16,
    freq: u64,
    /// Children sorted by edge id for binary search.
    children: Vec<(EdgeId, TrieNodeId)>,
}

/// The sub-trajectory Trie.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trie {
    nodes: Vec<TrieNode>,
    theta: usize,
    /// Per network edge: its first-level node (complete by construction).
    level1: Vec<TrieNodeId>,
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
        let mut trie = Trie {
            nodes: vec![TrieNode {
                parent: 0,
                edge: EdgeId(u32::MAX),
                first: EdgeId(u32::MAX),
                depth: 0,
                freq: 0,
                children: Vec::with_capacity(num_edges),
            }],
            theta,
            level1: vec![0; num_edges],
        };
        // Complete first level, in edge order (paper: "the nodes in the
        // first level correspond to all the edges in the original road
        // network").
        for e in 0..num_edges as u32 {
            let id = trie.push_node(Self::ROOT, EdgeId(e), 1);
            trie.level1[e as usize] = id;
        }
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
                    node = trie.child_or_insert(node, e);
                    trie.nodes[node as usize].freq += 1;
                }
            }
        }
        Ok(trie)
    }

    /// Reconstructs a Trie from its serialized per-node records (the
    /// artifact tier's load path). `nodes[i]` describes non-root node
    /// `i + 1` as `(parent, last edge, depth, frequency)`; nodes must be
    /// listed parents-first (`parent < id`), exactly as [`Trie::build`]
    /// creates them, and the first `num_edges` nodes must be the complete
    /// first level in edge order. Children/level1 indexes are rebuilt;
    /// because children are re-inserted in the same id order the builder
    /// used, the reconstructed Trie is field-for-field identical.
    ///
    /// Violations return an error string (the caller maps it to a typed
    /// store error) — never a panic.
    pub(crate) fn from_raw_parts(
        theta: usize,
        num_edges: usize,
        nodes: &[(TrieNodeId, EdgeId, u16, u64)],
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
        let mut trie = Trie {
            nodes: vec![TrieNode {
                parent: 0,
                edge: EdgeId(u32::MAX),
                first: EdgeId(u32::MAX),
                depth: 0,
                freq: 0,
                children: Vec::with_capacity(num_edges),
            }],
            theta,
            level1: vec![0; num_edges],
        };
        for (i, &(parent, edge, depth, freq)) in nodes.iter().enumerate() {
            let id = (i + 1) as TrieNodeId;
            if parent >= id {
                return Err(format!("node {id} has non-prior parent {parent}"));
            }
            if edge.index() >= num_edges {
                return Err(format!("node {id} labelled with out-of-alphabet {edge}"));
            }
            let expected_depth = trie.nodes[parent as usize].depth + 1;
            if depth != expected_depth {
                return Err(format!(
                    "node {id} depth {depth} != parent depth + 1 ({expected_depth})"
                ));
            }
            if depth as usize > theta {
                return Err(format!("node {id} deeper than theta {theta}"));
            }
            if i < num_edges && (parent != Self::ROOT || edge != EdgeId(i as u32)) {
                return Err(format!(
                    "node {id} must be the level-1 node of edge e{i} (complete first level)"
                ));
            }
            if trie.child(parent, edge).is_some() {
                return Err(format!("node {id} duplicates child {edge} of {parent}"));
            }
            let created = trie.push_node(parent, edge, depth);
            debug_assert_eq!(created, id);
            trie.nodes[id as usize].freq = freq;
            if depth == 1 {
                trie.level1[edge.index()] = id;
            }
        }
        Ok(trie)
    }

    fn push_node(&mut self, parent: TrieNodeId, edge: EdgeId, depth: u16) -> TrieNodeId {
        let id = self.nodes.len() as TrieNodeId;
        let first = if depth == 1 {
            edge
        } else {
            self.nodes[parent as usize].first
        };
        self.nodes.push(TrieNode {
            parent,
            edge,
            first,
            depth,
            freq: 0,
            children: Vec::new(),
        });
        let pos = self.nodes[parent as usize]
            .children
            .binary_search_by_key(&edge, |&(e, _)| e)
            .unwrap_err();
        self.nodes[parent as usize].children.insert(pos, (edge, id));
        id
    }

    fn child_or_insert(&mut self, node: TrieNodeId, e: EdgeId) -> TrieNodeId {
        match self.child(node, e) {
            Some(c) => c,
            None => {
                let depth = self.nodes[node as usize].depth + 1;
                self.push_node(node, e, depth)
            }
        }
    }

    /// The child of `node` labelled `e`, if present.
    #[inline]
    pub fn child(&self, node: TrieNodeId, e: EdgeId) -> Option<TrieNodeId> {
        let children = &self.nodes[node as usize].children;
        children
            .binary_search_by_key(&e, |&(edge, _)| edge)
            .ok()
            .map(|i| children[i].1)
    }

    /// Number of nodes including the root.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum sub-trajectory length θ the Trie was built with.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Size of the edge alphabet (network edge count).
    pub fn alphabet_size(&self) -> usize {
        self.level1.len()
    }

    /// Parent of a node (root's parent is root).
    #[inline]
    pub fn parent(&self, node: TrieNodeId) -> TrieNodeId {
        self.nodes[node as usize].parent
    }

    /// Label of the link from the node's parent — i.e. the *last* edge of
    /// the node's sub-trajectory. Meaningless for the root.
    #[inline]
    pub fn last_edge(&self, node: TrieNodeId) -> EdgeId {
        self.nodes[node as usize].edge
    }

    /// Depth of a node = length of its sub-trajectory.
    #[inline]
    pub fn depth(&self, node: TrieNodeId) -> usize {
        self.nodes[node as usize].depth as usize
    }

    /// Training frequency of the node's sub-trajectory (prefix counted).
    #[inline]
    pub fn freq(&self, node: TrieNodeId) -> u64 {
        self.nodes[node as usize].freq
    }

    /// First-level node of a network edge (guaranteed to exist).
    #[inline]
    pub fn level1(&self, e: EdgeId) -> TrieNodeId {
        self.level1[e.index()]
    }

    /// The *first* edge of the node's sub-trajectory (the level-1 ancestor's
    /// label) — a table read, not a climb. Meaningless for the root.
    #[inline]
    pub fn first_edge(&self, node: TrieNodeId) -> EdgeId {
        self.nodes[node as usize].first
    }

    /// Reconstructs the sub-trajectory `Tsub(node)` (path from the root).
    pub fn sub_trajectory(&self, node: TrieNodeId) -> Vec<EdgeId> {
        let mut edges = Vec::with_capacity(self.depth(node));
        let mut cur = node;
        while cur != Self::ROOT {
            edges.push(self.nodes[cur as usize].edge);
            cur = self.nodes[cur as usize].parent;
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
            cur = self.nodes[cur as usize].parent;
        }
        chain
    }

    /// Iterator over all non-root node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = TrieNodeId> {
        1..self.nodes.len() as TrieNodeId
    }

    /// Per-symbol frequencies for Huffman construction: symbol `s`
    /// corresponds to node `s + 1` (the root is not a symbol).
    pub fn symbol_freqs(&self) -> Vec<u64> {
        self.nodes[1..].iter().map(|n| n.freq).collect()
    }

    /// Approximate in-memory footprint in bytes (§6.2 auxiliary report).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * (4 + 4 + 4 + 2 + 8 + std::mem::size_of::<Vec<(EdgeId, TrieNodeId)>>())
            + self
                .nodes
                .iter()
                .map(|n| n.children.len() * 8)
                .sum::<usize>()
            + self.level1.len() * 4
    }
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

    #[test]
    fn approx_bytes_positive() {
        assert!(paper_trie().approx_bytes() > 0);
    }
}
