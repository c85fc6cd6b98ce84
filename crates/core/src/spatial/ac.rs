//! Aho–Corasick automaton and greedy trajectory decomposition
//! (paper §3.2.2, Fig. 6, Algorithm 2).
//!
//! The automaton augments the Trie with failure ("extra") links: the link
//! from node `n1` points to the node whose string is the longest proper
//! suffix of `n1`'s string present in the Trie. Because the Trie's first
//! level is complete over the edge alphabet, scanning any trajectory always
//! makes progress — each edge of the input matches exactly one automaton
//! node, the node reached after consuming that edge.
//!
//! Decomposition then runs backwards over the matched-node stack: the last
//! match is taken whole (it is the longest Trie string ending at that
//! position), its `depth − 1` predecessors are skipped, and so on — this
//! yields a partition of the trajectory into Trie sub-trajectories, longest
//! matches last-to-first, in `O(|T'|)` time.
//!
//! The automaton is the Trie plus one array, `fail`. Construction walks
//! the Trie's child CSR breadth-first (the level-1 nodes `1..=|E|` first,
//! then each node's run), so it allocates nothing per node; a failure
//! chain that reaches the root resolves by arithmetic, since the root's
//! children are implicit (see [`crate::spatial::trie`]).

use crate::error::{PressError, Result};
use crate::spatial::trie::{Trie, TrieNodeId};
use press_network::EdgeId;
use serde::{Deserialize, Serialize};

/// The Aho–Corasick automaton over a sub-trajectory Trie.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AcAutomaton {
    trie: Trie,
    /// Failure link per node (root's is the root).
    fail: Vec<TrieNodeId>,
}

impl AcAutomaton {
    /// Builds failure links breadth-first (standard AC construction),
    /// linear in the Trie size.
    pub fn build(trie: Trie) -> Self {
        let n = trie.num_nodes();
        let mut fail = vec![Trie::ROOT; n];
        // The BFS queue: every node is appended once, after its parent.
        // Depth-1 nodes fail to the root.
        let mut order: Vec<TrieNodeId> = Vec::with_capacity(n - 1);
        order.extend(1..=trie.alphabet_size() as TrieNodeId);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            // For each child (labelled c) of u: fail(child) = delta(fail(u), c).
            // The walk ends at the latest at the root, where every edge
            // has its level-1 node — never `v` itself, which is deeper.
            for &(c, v) in trie.children(u) {
                let mut f = fail[u as usize];
                fail[v as usize] = loop {
                    if let Some(w) = trie.child(f, c) {
                        break w;
                    }
                    f = fail[f as usize];
                };
                order.push(v);
            }
        }
        AcAutomaton { trie, fail }
    }

    /// The underlying Trie.
    pub fn trie(&self) -> &Trie {
        &self.trie
    }

    /// Failure link of a node.
    #[inline]
    pub fn fail(&self, node: TrieNodeId) -> TrieNodeId {
        self.fail[node as usize]
    }

    /// Automaton transition: from `node`, consume edge `e` and return the
    /// node of the longest Trie string that is a suffix of the consumed
    /// text. Always succeeds for edges inside the alphabet.
    pub fn step(&self, mut node: TrieNodeId, e: EdgeId) -> Result<TrieNodeId> {
        if e.index() >= self.trie.alphabet_size() {
            return Err(PressError::OutOfDomain(format!(
                "edge {e} outside the automaton alphabet"
            )));
        }
        // The root has a child for every edge of the alphabet, so the
        // failure chain stops there at the latest.
        loop {
            if let Some(child) = self.trie.child(node, e) {
                return Ok(child);
            }
            node = self.fail[node as usize];
        }
    }

    /// Greedy decomposition (Algorithm 2): partitions `path` into Trie
    /// sub-trajectories, returning their node ids in path order.
    pub fn decompose_greedy(&self, path: &[EdgeId]) -> Result<Vec<TrieNodeId>> {
        // Forward scan: matched node per edge.
        let mut stack = Vec::with_capacity(path.len());
        let mut node = Trie::ROOT;
        for &e in path {
            node = self.step(node, e)?;
            stack.push(node);
        }
        // Backward scan: take the longest match, skip the edges it covers.
        let mut result = Vec::new();
        let mut skip = 0usize;
        for &n in stack.iter().rev() {
            if skip == 0 {
                result.push(n);
                skip = self.trie.depth(n) - 1;
            } else {
                skip -= 1;
            }
        }
        result.reverse();
        Ok(result)
    }

    /// Approximate in-memory footprint in bytes (§6.2 auxiliary report):
    /// trie plus one failure link per node.
    pub fn approx_bytes(&self) -> usize {
        self.trie.approx_bytes() + self.fail.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::trie::Trie;

    fn e(k: u32) -> EdgeId {
        EdgeId(k - 1)
    }

    /// Paper training set (Fig. 5): see `trie::tests`.
    fn paper_ac() -> AcAutomaton {
        let training = vec![
            vec![e(1), e(5), e(8), e(6), e(3)],
            vec![e(1), e(5), e(2), e(1), e(4), e(8)],
            vec![e(2), e(1), e(4), e(6)],
        ];
        AcAutomaton::build(Trie::build(&training, 3, 10).unwrap())
    }

    #[test]
    fn fail_links_point_to_longest_suffix() {
        let ac = paper_ac();
        let t = ac.trie();
        // Node for <e2, e1, e4>: suffixes are <e1, e4> and <e4>; the longest
        // in the Trie is <e1, e4> (paper's example: node 15 -> node 16).
        let n_e2 = t.level1(e(2));
        let n_e2e1 = t.child(n_e2, e(1)).unwrap();
        let n_e2e1e4 = t.child(n_e2e1, e(4)).unwrap();
        let n_e1 = t.level1(e(1));
        let n_e1e4 = t.child(n_e1, e(4)).unwrap();
        assert_eq!(ac.fail(n_e2e1e4), n_e1e4);
        // Depth-1 nodes fail to the root.
        assert_eq!(ac.fail(n_e1), Trie::ROOT);
        // <e2, e1> fails to <e1>.
        assert_eq!(ac.fail(n_e2e1), n_e1);
    }

    #[test]
    fn decomposition_matches_paper_table1() {
        // T' = <e1,e4,e7,e5,e8,e6,e3,e1,e5,e2,e10> decomposes into
        // <e1,e4>, <e7>, <e5>, <e8,e6,e3>, <e1,e5,e2>, <e10>.
        let ac = paper_ac();
        let t = ac.trie();
        let path = vec![
            e(1),
            e(4),
            e(7),
            e(5),
            e(8),
            e(6),
            e(3),
            e(1),
            e(5),
            e(2),
            e(10),
        ];
        let parts = ac.decompose_greedy(&path).unwrap();
        let decoded: Vec<Vec<EdgeId>> = parts.iter().map(|&n| t.sub_trajectory(n)).collect();
        assert_eq!(
            decoded,
            vec![
                vec![e(1), e(4)],
                vec![e(7)],
                vec![e(5)],
                vec![e(8), e(6), e(3)],
                vec![e(1), e(5), e(2)],
                vec![e(10)],
            ]
        );
    }

    #[test]
    fn decomposition_is_a_partition() {
        let ac = paper_ac();
        let t = ac.trie();
        let path = vec![e(2), e(1), e(4), e(8), e(6), e(3), e(3), e(3)];
        let parts = ac.decompose_greedy(&path).unwrap();
        let mut rebuilt = Vec::new();
        for &n in &parts {
            rebuilt.extend(t.sub_trajectory(n));
        }
        assert_eq!(rebuilt, path);
    }

    #[test]
    fn unseen_edges_fall_back_to_level_one() {
        let ac = paper_ac();
        let t = ac.trie();
        // e7, e9, e10 never appear in training; each becomes a singleton.
        let path = vec![e(7), e(9), e(10)];
        let parts = ac.decompose_greedy(&path).unwrap();
        assert_eq!(parts.len(), 3);
        for (&n, &edge) in parts.iter().zip(&path) {
            assert_eq!(t.depth(n), 1);
            assert_eq!(t.last_edge(n), edge);
        }
    }

    #[test]
    fn empty_path_decomposes_to_nothing() {
        let ac = paper_ac();
        assert!(ac.decompose_greedy(&[]).unwrap().is_empty());
    }

    #[test]
    fn out_of_alphabet_edge_is_error() {
        let ac = paper_ac();
        assert!(matches!(
            ac.decompose_greedy(&[EdgeId(10)]),
            Err(PressError::OutOfDomain(_))
        ));
    }

    #[test]
    fn step_follows_suffix_chain() {
        let ac = paper_ac();
        let t = ac.trie();
        // After consuming e5, e8, e6 we sit at <e5,e8,e6>; consuming e3
        // cannot extend (depth theta), so the automaton follows the suffix
        // <e8,e6> and matches <e8,e6,e3>.
        let mut node = Trie::ROOT;
        for edge in [e(5), e(8), e(6), e(3)] {
            node = ac.step(node, edge).unwrap();
        }
        assert_eq!(t.sub_trajectory(node), vec![e(8), e(6), e(3)]);
    }

    #[test]
    fn approx_bytes_positive() {
        assert!(paper_ac().approx_bytes() > 0);
    }
}
