//! The road network: a directed graph with geometric embedding.
//!
//! A road network is a directed graph `G = (V, E)` (paper §2). Every node
//! carries a planar position; every edge carries a weight `w(e)` which is by
//! default the geometric length of the edge (meters) but can represent travel
//! time or any other cost.
//!
//! The structure is immutable once built (use [`RoadNetworkBuilder`]), which
//! lets the rest of the system share it freely behind `Arc` and precompute
//! derived tables (shortest paths, spatial indexes) without invalidation
//! logic.

use crate::error::NetworkError;
use crate::geometry::{Mbr, Point};
use crate::id::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// A vertex of the road network.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Planar position (meters).
    pub point: Point,
}

/// A directed edge of the road network.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Tail vertex.
    pub from: NodeId,
    /// Head vertex.
    pub to: NodeId,
    /// Weight `w(e)` — geometric length by default (meters).
    pub weight: f64,
}

/// An immutable directed road network with adjacency lists in both
/// directions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node, grouped in one flat array (CSR layout).
    out_index: Vec<u32>,
    out_edges: Vec<EdgeId>,
    /// Incoming edge ids per node (CSR layout).
    in_index: Vec<u32>,
    in_edges: Vec<EdgeId>,
}

impl RoadNetwork {
    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks a node up, panicking on an invalid id (ids are produced by the
    /// builder, so an invalid id is a logic error).
    #[inline]
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    /// Looks an edge up.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Fallible edge lookup.
    pub fn try_edge(&self, e: EdgeId) -> Result<&Edge, NetworkError> {
        self.edges
            .get(e.index())
            .ok_or(NetworkError::InvalidEdge(e))
    }

    /// Weight `w(e)` of an edge.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight
    }

    /// Geometric length of the edge's straight-line embedding.
    #[inline]
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        let edge = &self.edges[e.index()];
        self.nodes[edge.from.index()]
            .point
            .dist(&self.nodes[edge.to.index()].point)
    }

    /// Outgoing edges of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        let lo = self.out_index[n.index()] as usize;
        let hi = self.out_index[n.index() + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Incoming edges of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        let lo = self.in_index[n.index()] as usize;
        let hi = self.in_index[n.index() + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// True when `b` can directly follow `a` on a path (`a.to == b.from`).
    #[inline]
    pub fn consecutive(&self, a: EdgeId, b: EdgeId) -> bool {
        self.edges[a.index()].to == self.edges[b.index()].from
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Start point of an edge's embedding.
    #[inline]
    pub fn edge_start(&self, e: EdgeId) -> Point {
        self.nodes[self.edges[e.index()].from.index()].point
    }

    /// End point of an edge's embedding.
    #[inline]
    pub fn edge_end(&self, e: EdgeId) -> Point {
        self.nodes[self.edges[e.index()].to.index()].point
    }

    /// Point at `offset` meters along the edge embedding (clamped).
    pub fn point_on_edge(&self, e: EdgeId, offset: f64) -> Point {
        let a = self.edge_start(e);
        let b = self.edge_end(e);
        let len = a.dist(&b);
        if len <= f64::EPSILON {
            return a;
        }
        a.lerp(&b, (offset / len).clamp(0.0, 1.0))
    }

    /// MBR of a single edge's embedding.
    pub fn edge_mbr(&self, e: EdgeId) -> Mbr {
        let mut mbr = Mbr::of_point(&self.edge_start(e));
        mbr.expand_point(&self.edge_end(e));
        mbr
    }

    /// Bounding box of the whole network.
    pub fn bounding_box(&self) -> Mbr {
        let mut mbr = Mbr::empty();
        for node in &self.nodes {
            mbr.expand_point(&node.point);
        }
        mbr
    }

    /// Validates that an edge sequence is a connected path in the network.
    pub fn validate_path(&self, path: &[EdgeId]) -> Result<(), NetworkError> {
        for e in path {
            self.try_edge(*e)?;
        }
        for pair in path.windows(2) {
            if !self.consecutive(pair[0], pair[1]) {
                return Err(NetworkError::NotAdjacent(pair[0], pair[1]));
            }
        }
        Ok(())
    }

    /// Total weight of an edge path.
    pub fn path_weight(&self, path: &[EdgeId]) -> f64 {
        path.iter().map(|&e| self.weight(e)).sum()
    }

    /// Approximate in-memory footprint in bytes (for the auxiliary-structure
    /// report of §6.2).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.edges.len() * std::mem::size_of::<Edge>()
            + (self.out_index.len() + self.in_index.len()) * 4
            + (self.out_edges.len() + self.in_edges.len()) * 4
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the network into a [`press_store`] container. Only the
    /// node and edge arrays are stored; the CSR adjacency is rebuilt on
    /// load through the same counting sort [`RoadNetworkBuilder::build`]
    /// uses, so a loaded network is field-for-field identical to the
    /// built one.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut meta = press_store::ByteWriter::with_capacity(16);
        meta.put_u64(self.nodes.len() as u64);
        meta.put_u64(self.edges.len() as u64);
        let mut nodes = press_store::ByteWriter::with_capacity(self.nodes.len() * 16);
        for n in &self.nodes {
            nodes.put_f64(n.point.x);
            nodes.put_f64(n.point.y);
        }
        let mut edges = press_store::ByteWriter::with_capacity(self.edges.len() * 16);
        for e in &self.edges {
            edges.put_u32(e.from.0);
            edges.put_u32(e.to.0);
            edges.put_f64(e.weight);
        }
        let mut w = press_store::StoreWriter::new(press_store::kind::NETWORK);
        w.section("meta", meta.into_bytes());
        w.section("nodes", nodes.into_bytes());
        w.section("edges", edges.into_bytes());
        w.to_bytes()
    }

    /// Writes the network artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a network from container bytes, checked as
    /// [`Self::load_from`] checks.
    pub fn from_store_bytes(bytes: Vec<u8>) -> press_store::Result<RoadNetwork> {
        Self::from_file(press_store::StoreFile::from_bytes(bytes)?)
    }

    /// Loads a network artifact from `path` through a read-only mapping
    /// ([`press_store::StoreFile::open_mapped`]), validating structural
    /// invariants (endpoint ids in range, finite non-negative weights).
    pub fn load_from(path: &std::path::Path) -> press_store::Result<RoadNetwork> {
        Self::from_file(press_store::StoreFile::open_mapped(path)?)
    }

    /// The one reader behind both loads: decodes the node and edge arrays
    /// out of `file` and rebuilds the CSR adjacency.
    fn from_file(file: press_store::StoreFile) -> press_store::Result<RoadNetwork> {
        use press_store::StoreError;
        file.expect_kind(press_store::kind::NETWORK)?;
        let mut meta = file.reader("meta")?;
        let num_nodes = meta.get_len(u32::MAX as usize, "node")?;
        let num_edges = meta.get_len(u32::MAX as usize, "edge")?;
        meta.expect_end("meta")?;
        // The counts are capped by what the sections can hold before
        // anything is allocated for them.
        let mut r = file.reader("nodes")?;
        let mut nodes = Vec::with_capacity(num_nodes.min(r.remaining() / 16));
        for _ in 0..num_nodes {
            nodes.push(Node {
                point: Point::new(r.get_f64()?, r.get_f64()?),
            });
        }
        r.expect_end("nodes")?;
        let mut r = file.reader("edges")?;
        let mut edges = Vec::with_capacity(num_edges.min(r.remaining() / 16));
        for i in 0..num_edges {
            let from = NodeId(r.get_u32()?);
            let to = NodeId(r.get_u32()?);
            let weight = r.get_f64()?;
            if from.index() >= num_nodes || to.index() >= num_nodes {
                return Err(StoreError::Corrupt(format!(
                    "edge {i} references node outside 0..{num_nodes}"
                )));
            }
            if !weight.is_finite() || weight < 0.0 {
                return Err(StoreError::Corrupt(format!(
                    "edge {i} has invalid weight {weight}"
                )));
            }
            edges.push(Edge { from, to, weight });
        }
        r.expect_end("edges")?;
        Ok(RoadNetworkBuilder { nodes, edges }.build())
    }
}

/// Builder accumulating nodes and edges, producing an immutable
/// [`RoadNetwork`] with CSR adjacency.
#[derive(Default, Debug)]
pub struct RoadNetworkBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl RoadNetworkBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        RoadNetworkBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { point });
        id
    }

    /// Adds a directed edge with an explicit weight, returning its id.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<EdgeId, NetworkError> {
        if from.index() >= self.nodes.len() {
            return Err(NetworkError::InvalidNode(from));
        }
        if to.index() >= self.nodes.len() {
            return Err(NetworkError::InvalidNode(to));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(NetworkError::Malformed(format!(
                "edge weight must be finite and non-negative, got {weight}"
            )));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, weight });
        Ok(id)
    }

    /// Adds a pair of opposite directed edges (a two-way street), returning
    /// both ids.
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: f64,
    ) -> Result<(EdgeId, EdgeId), NetworkError> {
        Ok((self.add_edge(a, b, weight)?, self.add_edge(b, a, weight)?))
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes into an immutable [`RoadNetwork`].
    pub fn build(self) -> RoadNetwork {
        let n = self.nodes.len();
        // Counting sort of edges into CSR adjacency, forwards and backwards.
        let mut out_count = vec![0u32; n + 1];
        let mut in_count = vec![0u32; n + 1];
        for e in &self.edges {
            out_count[e.from.index() + 1] += 1;
            in_count[e.to.index() + 1] += 1;
        }
        for i in 0..n {
            out_count[i + 1] += out_count[i];
            in_count[i + 1] += in_count[i];
        }
        let out_index = out_count.clone();
        let in_index = in_count.clone();
        let mut out_edges = vec![EdgeId(0); self.edges.len()];
        let mut in_edges = vec![EdgeId(0); self.edges.len()];
        let mut out_cursor = out_count;
        let mut in_cursor = in_count;
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            let oc = &mut out_cursor[e.from.index()];
            out_edges[*oc as usize] = id;
            *oc += 1;
            let ic = &mut in_cursor[e.to.index()];
            in_edges[*ic as usize] = id;
            *ic += 1;
        }
        RoadNetwork {
            nodes: self.nodes,
            edges: self.edges,
            out_index,
            out_edges,
            in_index,
            in_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        // v0 -> v1 -> v2 -> v0 plus a chord v0 -> v2
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(0.0, 1.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v1, v2, 1.0).unwrap();
        b.add_edge(v2, v0, 1.0).unwrap();
        b.add_edge(v0, v2, 2.0).unwrap();
        b.build()
    }

    #[test]
    fn builder_produces_consistent_adjacency() {
        let net = triangle();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 4);
        assert_eq!(net.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(3)]);
        assert_eq!(net.out_edges(NodeId(1)), &[EdgeId(1)]);
        assert_eq!(net.in_edges(NodeId(2)), &[EdgeId(1), EdgeId(3)]);
        assert_eq!(net.in_edges(NodeId(0)), &[EdgeId(2)]);
    }

    #[test]
    fn consecutive_edges() {
        let net = triangle();
        assert!(net.consecutive(EdgeId(0), EdgeId(1)));
        assert!(!net.consecutive(EdgeId(0), EdgeId(2)));
    }

    #[test]
    fn validate_path_checks_adjacency() {
        let net = triangle();
        assert!(net
            .validate_path(&[EdgeId(0), EdgeId(1), EdgeId(2)])
            .is_ok());
        assert_eq!(
            net.validate_path(&[EdgeId(0), EdgeId(2)]),
            Err(NetworkError::NotAdjacent(EdgeId(0), EdgeId(2)))
        );
        assert_eq!(
            net.validate_path(&[EdgeId(99)]),
            Err(NetworkError::InvalidEdge(EdgeId(99)))
        );
        assert!(net.validate_path(&[]).is_ok());
    }

    #[test]
    fn path_weight_sums() {
        let net = triangle();
        let w = net.path_weight(&[EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert!((w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_edge_helpers() {
        let net = triangle();
        assert!((net.edge_length(EdgeId(0)) - 1.0).abs() < 1e-12);
        let mid = net.point_on_edge(EdgeId(0), 0.5);
        assert!((mid.x - 0.5).abs() < 1e-12 && mid.y.abs() < 1e-12);
        // Clamp past the end.
        let end = net.point_on_edge(EdgeId(0), 5.0);
        assert!((end.x - 1.0).abs() < 1e-12);
        let mbr = net.edge_mbr(EdgeId(1));
        assert!(mbr.contains(&Point::new(0.5, 0.5)));
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        assert!(matches!(
            b.add_edge(v0, NodeId(5), 1.0),
            Err(NetworkError::InvalidNode(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v0, f64::NAN),
            Err(NetworkError::Malformed(_))
        ));
        assert!(matches!(
            b.add_edge(v0, v0, -1.0),
            Err(NetworkError::Malformed(_))
        ));
    }

    #[test]
    fn bounding_box_covers_all_nodes() {
        let net = triangle();
        let bb = net.bounding_box();
        assert!(bb.contains(&Point::new(0.0, 0.0)));
        assert!(bb.contains(&Point::new(1.0, 0.0)));
        assert!(bb.contains(&Point::new(0.0, 1.0)));
        assert!(!bb.contains(&Point::new(2.0, 2.0)));
    }

    #[test]
    fn two_way_adds_opposite_edges() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(3.0, 4.0));
        let (e1, e2) = b.add_two_way(a, c, 5.0).unwrap();
        let net = b.build();
        assert_eq!(net.edge(e1).from, a);
        assert_eq!(net.edge(e2).from, c);
        assert_eq!(net.weight(e1), net.weight(e2));
    }

    #[test]
    fn approx_bytes_nonzero() {
        assert!(triangle().approx_bytes() > 0);
    }

    #[test]
    fn store_roundtrip_is_field_identical() {
        // built ≡ from_store_bytes ≡ the mapped load_from.
        let net = triangle();
        let path = std::env::temp_dir().join(format!("press-net-{}.press", std::process::id()));
        net.save_to(&path).unwrap();
        let mapped = RoadNetwork::load_from(&path);
        std::fs::remove_file(&path).unwrap();
        for loaded in [
            RoadNetwork::from_store_bytes(net.to_store_bytes()).unwrap(),
            mapped.unwrap(),
        ] {
            assert_eq!(loaded.nodes, net.nodes);
            assert_eq!(loaded.edges, net.edges);
            assert_eq!(loaded.out_index, net.out_index);
            assert_eq!(loaded.out_edges, net.out_edges);
            assert_eq!(loaded.in_index, net.in_index);
            assert_eq!(loaded.in_edges, net.in_edges);
        }
    }

    #[test]
    fn store_load_rejects_bad_edges() {
        // Hand-craft a container whose edge references a missing node.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        let mut net = b.build();
        net.edges[0].to = NodeId(99);
        assert!(matches!(
            RoadNetwork::from_store_bytes(net.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
        net.edges[0].to = NodeId(1);
        net.edges[0].weight = -2.0;
        assert!(matches!(
            RoadNetwork::from_store_bytes(net.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
    }
}
