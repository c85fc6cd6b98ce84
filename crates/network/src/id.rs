//! Strongly-typed identifiers for road-network elements.
//!
//! The paper manipulates trajectories as sequences of *edges* (`e1, e2, ...`)
//! over a directed graph `G = (V, E)`. We use `u32` newtypes so that node and
//! edge indices cannot be confused, while keeping lookup tables compact
//! (indices, not pointers — see the type-size guidance in the Rust
//! performance book).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex in the road network (an intersection).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge in the road network (a road segment).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index of this node, usable with `Vec` lookup tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index of this edge, usable with `Vec` lookup tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for EdgeId {
    #[inline]
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId(42);
        assert_eq!(n.index(), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(format!("{n}"), "v42");
        assert_eq!(format!("{n:?}"), "v42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId(7);
        assert_eq!(e.index(), 7);
        assert_eq!(EdgeId::from(7u32), e);
        assert_eq!(format!("{e}"), "e7");
        assert_eq!(format!("{e:?}"), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(EdgeId(0) < EdgeId(10));
    }

    #[test]
    fn ids_are_compact() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<EdgeId>(), 4);
        // Option<EdgeId> should not be larger than u64 — used in big tables.
        assert!(std::mem::size_of::<Option<EdgeId>>() <= 8);
    }
}
