//! Identity tests of the link arena: whatever [`HscModel`] reads from
//! its third per-node table must equal what the shortest-path layer
//! would have answered — on every backend, on tied and jittered
//! geometry, for pairs training saw and pairs it never did (those are
//! read from the stream: `gap_run_tests`).

use crate::error::PressError;
use crate::press::CompressedTrajectory;
use crate::spatial::hsc::{HscModel, Witness, WITNESS};
use crate::spatial::sp::sp_decompress;
use crate::types::{DtPoint, TemporalSequence};
use press_network::{
    grid_network, random_geometric_network, EdgeId, GridConfig, Mbr, NodeId, Point,
    RandomGeometricConfig, RoadNetwork, RoadNetworkBuilder, ShortestPathTree, SpBackend,
    SpProvider,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards every shortest-path question to `inner` and counts it.
pub(crate) struct CountingSp {
    inner: Arc<dyn SpProvider>,
    calls: AtomicUsize,
}

impl CountingSp {
    pub(crate) fn over(inner: Arc<dyn SpProvider>) -> Arc<Self> {
        Arc::new(CountingSp {
            inner,
            calls: AtomicUsize::new(0),
        })
    }

    pub(crate) fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    fn count(&self) -> &dyn SpProvider {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.as_ref()
    }
}

impl SpProvider for CountingSp {
    fn network(&self) -> &Arc<RoadNetwork> {
        self.inner.network()
    }
    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.count().node_dist(u, v)
    }
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.count().pred_edge(u, v)
    }
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.count().gap_dist(ei, ej)
    }
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.count().sp_weight(ei, ej)
    }
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        self.count().sp_end(ei, ej)
    }
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        self.count().reachable(ei, ej)
    }
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.count().sp_interior(ei, ej)
    }
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.count().sp_path(ei, ej)
    }
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        self.count().sp_mbr(ei, ej)
    }
    fn source_tree(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        self.count().source_tree(source)
    }
}

/// What the witness counted while `f` ran.
pub(crate) fn witness_delta(f: impl FnOnce()) -> Witness {
    let before = WITNESS.get();
    f();
    let after = WITNESS.get();
    Witness {
        arena_hits: after.arena_hits - before.arena_hits,
        gap_runs: after.gap_runs - before.gap_runs,
        sp_fallbacks: after.sp_fallbacks - before.sp_fallbacks,
        spend_known: after.spend_known - before.spend_known,
        spend_sp: after.spend_sp - before.spend_sp,
    }
}

/// Jittered grid, fully tied grid, or random geometric graph.
pub(crate) fn net_of(kind: usize, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(match kind {
        0 => grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            spacing: 120.0,
            weight_jitter: 0.15,
            removal_prob: 0.05,
            seed,
        }),
        1 => grid_network(&GridConfig {
            nx: 5,
            ny: 4,
            spacing: 100.0,
            weight_jitter: 0.0,
            removal_prob: 0.0,
            seed,
        }),
        _ => random_geometric_network(&RandomGeometricConfig {
            nodes: 28,
            extent: 600.0,
            radius: 190.0,
            seed,
        }),
    })
}

/// Deterministically turns choice bytes into a connected edge walk.
pub(crate) fn walk(net: &RoadNetwork, start: u32, choices: &[u8]) -> Vec<EdgeId> {
    let mut node = NodeId(start % net.num_nodes() as u32);
    let mut path: Vec<EdgeId> = Vec::with_capacity(choices.len());
    for &c in choices {
        let out = net.out_edges(node);
        let forward: Vec<EdgeId> = out
            .iter()
            .copied()
            .filter(|&e| {
                path.last()
                    .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
            })
            .collect();
        let pool = if forward.is_empty() {
            out
        } else {
            &forward[..]
        };
        let Some(&e) = pool.get(c as usize % pool.len().max(1)) else {
            break;
        };
        path.push(e);
        node = net.edge(e).to;
    }
    path
}

/// `n` deterministic walks over `net`, a different family per `salt`.
pub(crate) fn walks(net: &RoadNetwork, salt: u32, n: u32) -> Vec<Vec<EdgeId>> {
    (0..n)
        .map(|k| {
            let choices: Vec<u8> = (0..18)
                .map(|i| ((k * 7 + i * 3 + salt) % 5) as u8)
                .collect();
            walk(net, k * 11 + salt, &choices)
        })
        .collect()
}

/// `path` compressed under `model`, with five evenly spaced knots over
/// 60 s — a trajectory the query tests can probe.
pub(crate) fn knotted(model: &HscModel, path: &[EdgeId]) -> CompressedTrajectory {
    let net = model.sp().network();
    let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
    let pts = (0..=4)
        .map(|k| DtPoint::new(total * k as f64 / 4.0, 15.0 * k as f64))
        .collect();
    CompressedTrajectory {
        spatial: model.compress(path).unwrap(),
        temporal: TemporalSequence::new(pts).unwrap(),
    }
}

/// Two one-edge components: no path joins `e0` and `e1`.
pub(crate) fn two_components() -> (Arc<RoadNetwork>, EdgeId, EdgeId) {
    let mut b = RoadNetworkBuilder::new();
    let v: Vec<_> = [0.0, 100.0, 1000.0, 1100.0]
        .iter()
        .map(|&x| b.add_node(Point::new(x, 0.0)))
        .collect();
    let e0 = b.add_edge(v[0], v[1], 100.0).unwrap();
    let e1 = b.add_edge(v[2], v[3], 100.0).unwrap();
    (Arc::new(b.build()), e0, e1)
}

/// The arena's answers against the shortest-path layer's, for one model.
fn check_model(model: &HscModel, paths: &[Vec<EdgeId>]) -> Result<(), TestCaseError> {
    let sp = model.sp();
    let net = sp.network();
    let trie = model.trie();
    for node in trie.node_ids() {
        let sub = trie.sub_trajectory(node);
        let mut got = Vec::new();
        let got = model.expand_node_into(node, &mut got).map(|()| got);
        prop_assert_eq!(&got, &sp_decompress(sp, &sub), "Tsub({})", node);
        let parent = trie.parent(node);
        if parent == crate::spatial::Trie::ROOT {
            prop_assert_eq!(
                model.node_dist(node).to_bits(),
                net.weight(sub[0]).to_bits()
            );
            continue;
        }
        // The two §5 tables, derived the pre-arena way.
        let (prev, e) = (sub[sub.len() - 2], sub[sub.len() - 1]);
        let mut d = model.node_dist(parent);
        let mut m = *model.node_mbr(parent);
        if !net.consecutive(prev, e) {
            match sp.sp_interior(prev, e) {
                Some(_) => {
                    d += sp.gap_dist(prev, e);
                    m.expand(&sp.sp_mbr(prev, e).expect("reachable pair has an MBR"));
                }
                None => d = f64::INFINITY,
            }
        }
        d += net.weight(e);
        m.expand(&net.edge_mbr(e));
        prop_assert_eq!(
            model.node_dist(node).to_bits(),
            d.to_bits(),
            "node_dist({})",
            node
        );
        prop_assert_eq!(model.node_mbr(node), &m, "node_mbr({})", node);
        if trie.depth(node) == 2 && !net.consecutive(prev, e) {
            let known = model.known_gap(prev, e);
            prop_assert_eq!(
                known.map(|(_, link)| link.to_vec()),
                sp.sp_interior(prev, e),
                "known_gap({}, {})",
                prev,
                e
            );
            if let Some((len, _)) = known {
                prop_assert_eq!(len.to_bits(), sp.gap_dist(prev, e).to_bits());
            }
        }
    }
    for path in paths {
        let cs = model.compress(path).expect("compress");
        let reference = model
            .decode_sp_form(&cs)
            .and_then(|spc| sp_decompress(sp, &spc));
        prop_assert_eq!(&model.decompress(&cs), &reference);
        if let Ok(back) = reference {
            prop_assert_eq!(&back, path);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every Trie node expands to `sp_decompress(Tsub(n))`, every
    /// depth-2 link is the canonical `sp_interior` with `gap_dist`'s
    /// bits, and `decompress ≡ sp_decompress ∘ decode_sp_form` on
    /// training and held-out walks — on both backends, which also
    /// agree on the model's bytes.
    #[test]
    fn arena_equals_the_sp_layer_on_every_backend(
        kind in 0usize..3,
        seed in 0u64..400,
        theta in 2usize..5,
        walks in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(0u8..8, 3..22)), 8..18),
    ) {
        let net = net_of(kind, seed);
        let paths: Vec<Vec<EdgeId>> = walks
            .iter()
            .map(|(s, cs)| walk(&net, *s, cs))
            .filter(|p| !p.is_empty())
            .collect();
        prop_assume!(paths.len() >= 4);
        let training = &paths[..paths.len() / 2];
        let mut bytes: Option<Vec<u8>> = None;
        for backend in [SpBackend::Dense, SpBackend::Hl] {
            let model = HscModel::train(backend.build(net.clone()), training, theta).expect("train");
            check_model(&model, &paths)?;
            let mine = model.to_store_bytes();
            let first = bytes.get_or_insert_with(|| mine.clone());
            prop_assert_eq!(&*first, &mine, "{:?}", backend);
        }
    }
}

/// Both branches run: held-out walks read some gaps from the arena and
/// others from the stream; a training path reads every gap from the
/// arena; neither reaches the shortest-path layer.
#[test]
fn witness_sees_the_arena_and_the_stream_runs() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 8,
        ny: 8,
        weight_jitter: 0.15,
        seed: 5,
        ..GridConfig::default()
    }));
    let training = walks(&net, 0, 30);
    let held_out = walks(&net, 3, 30);
    let sp = CountingSp::over(SpBackend::Dense.build(net.clone()));
    let model = HscModel::train(sp.clone(), &training, 3).expect("train");

    let decompress_all = |paths: &[Vec<EdgeId>]| {
        let compressed: Vec<_> = paths.iter().map(|p| model.compress(p).unwrap()).collect();
        let calls = sp.calls();
        let seen = witness_delta(|| {
            for (p, cs) in paths.iter().zip(&compressed) {
                assert_eq!(&model.decompress(cs).unwrap(), p);
            }
        });
        assert_eq!(sp.calls(), calls, "decompression must be SP-free");
        assert!(seen.arena_hits > 0, "{seen:?}");
        assert_eq!(seen.sp_fallbacks, 0, "{seen:?}");
        seen
    };
    let seen = decompress_all(&training);
    assert_eq!(seen.gap_runs, 0, "{seen:?}");
    let seen = decompress_all(&held_out);
    assert!(seen.gap_runs > 0, "{seen:?}");
}

/// A pair across two components keeps the error SP decompression
/// reports, on every backend and through a save/load. Inside a unit
/// (θ = 2, a poisoned node) it is raised where it always was, at
/// `decompress`; between two units (θ = 1) there is no run to write, so
/// it is raised at `compress` — no stream exists that a reader could trip
/// over.
#[test]
fn disconnected_training_pair_keeps_no_shortest_path() {
    let (net, e0, e1) = two_components();
    let err = PressError::NoShortestPath(e0, e1);
    for backend in [SpBackend::Dense, SpBackend::Hl] {
        for theta in [1, 2] {
            let model =
                HscModel::train(backend.build(net.clone()), &[vec![e0, e1]], theta).unwrap();
            assert_eq!(model.known_gap(e0, e1), None);
            let loaded = HscModel::from_store_bytes(model.sp().clone(), model.to_store_bytes())
                .expect("the model still round-trips through its file");
            for model in [&model, &loaded] {
                let compressed = model.compress(&[e0, e1]);
                if theta == 1 {
                    assert_eq!(compressed, Err(err.clone()), "{backend:?}");
                } else {
                    let cs = compressed.unwrap();
                    assert_eq!(model.decode_nodes(&cs).unwrap().len(), 1);
                    assert_eq!(model.decompress(&cs), Err(err.clone()), "{backend:?}");
                }
            }
        }
    }
}

/// θ = 1 has no bigrams: the arena is empty, no gap is ever known, and
/// every gap the reference composition asks the shortest-path layer
/// about is a run in the stream.
#[test]
fn theta_one_reads_nothing_from_the_arena() {
    let net = net_of(0, 9);
    let paths: Vec<Vec<EdgeId>> = (0..12u32)
        .map(|k| {
            let choices: Vec<u8> = (0..14).map(|i| ((k * 5 + i * 3) % 7) as u8).collect();
            walk(&net, k * 3, &choices)
        })
        .collect();
    let sp = CountingSp::over(SpBackend::Dense.build(net.clone()));
    let model = HscModel::train(sp.clone(), &paths, 1).expect("train");
    assert_eq!(
        model.auxiliary_sizes().node_link_bytes,
        (model.trie().num_nodes() + 1) * 4 + model.trie().num_nodes() * 8
    );
    for p in &paths {
        let cs = model.compress(p).unwrap();
        let spc = model.decode_sp_form(&cs).unwrap();
        let before = sp.calls();
        let reference = sp_decompress(model.sp(), &spc).unwrap();
        let reference_calls = sp.calls() - before;
        let seen = witness_delta(|| assert_eq!(model.decompress(&cs).unwrap(), reference));
        assert_eq!(sp.calls() - before, reference_calls);
        assert_eq!(seen.arena_hits, 0);
        assert_eq!(seen.gap_runs, reference_calls);
    }
}
