//! Property tests for the press-store artifact tier: save → load → query
//! must be **bit-identical** to the in-memory path for every SP backend
//! and for the trained HSC model, and every corruption mode (truncation,
//! bit flips, wrong magic/version/kind) must yield a typed error — never
//! a panic, never a silently wrong structure.

mod common;

use common::{net_from, walk_from_choices};
use press::core::query::QueryEngine;
use press::core::spatial::HscModel;
use press::core::TrajectoryStore;
use press::network::{HubLabels, RoadNetwork, SpProvider, SpTable};
use press::prelude::*;
use press_store::StoreFile;
use proptest::prelude::*;
use std::sync::Arc;

/// The fixture of the `node_link` tests: a model trained on a fixed set
/// of walks over a fixed jittered grid.
fn link_fixture() -> (
    Arc<RoadNetwork>,
    Arc<dyn SpProvider>,
    Vec<Vec<EdgeId>>,
    HscModel,
) {
    let net = net_from(6, 6, 0.12, 29);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..24u64 {
        let choices: Vec<u8> = (0..14).map(|i| ((s * 9 + i * 5) % 7) as u8).collect();
        let p = walk_from_choices(&net, (s * 3) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp.clone(), &training, 3).expect("train");
    (net, sp, training, model)
}

/// A `node_link` payload as `(offsets, edges)`, and back.
fn parse_link(payload: &[u8], nodes: usize) -> (Vec<u32>, Vec<u32>) {
    let words: Vec<u32> = payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    (words[..=nodes].to_vec(), words[nodes + 1..].to_vec())
}

fn link_payload(off: &[u32], edges: &[u32]) -> Vec<u8> {
    off.iter()
        .chain(edges)
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// What a load of an SP artifact yields: a provider or the typed error.
type Loaded = Result<Arc<dyn SpProvider>, press_store::StoreError>;

/// The bytes (`from_store_bytes`) and the mapped (`open_mapped`) load of
/// a hub-label artifact.
fn load_both(net: &Arc<RoadNetwork>, bytes: &[u8]) -> [Loaded; 2] {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "press-sp-load-{}-{}.press",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write artifact");
    let loaded = HubLabels::from_store_bytes(net.clone(), bytes.to_vec()).map(|h| Arc::new(h) as _);
    let mapped = HubLabels::open_mapped(net.clone(), &path).map(|h| Arc::new(h) as _);
    let _ = std::fs::remove_file(&path);
    [loaded, mapped]
}

/// The hub labels of `net` as `(artifact bytes, the exact sections its
/// writer emits, in order)`.
fn sp_artifact(net: &Arc<RoadNetwork>) -> (Vec<u8>, Vec<&'static str>) {
    let hl = HubLabels::build_with_threads(net.clone(), 1);
    let sections = "meta arcs_f fwd_index_f fwd_hub_f fwd_dist_f fwd_parent_f \
                    bwd_index_f bwd_hub_f bwd_dist_f bwd_parent_f";
    (hl.to_store_bytes(), sections.split_whitespace().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The persisted SP backend (hub labels): the loaded structure
    /// answers node_dist / pred_edge / sp_mbr bit-identically to the
    /// built one on random networks.
    #[test]
    fn sp_backends_roundtrip_bit_identically(
        nx in 3usize..6,
        ny in 3usize..6,
        jitter in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let net = net_from(nx, ny, jitter, seed);
        let fresh = HubLabels::build_with_threads(net.clone(), 2);
        let warm =
            HubLabels::from_store_bytes(net.clone(), fresh.to_store_bytes()).expect("hl load");
        for u in net.node_ids() {
            for v in net.node_ids() {
                prop_assert_eq!(
                    fresh.node_dist(u, v).to_bits(),
                    warm.node_dist(u, v).to_bits(),
                    "node_dist({}, {})", u, v
                );
                prop_assert_eq!(fresh.pred_edge(u, v), warm.pred_edge(u, v), "pred_edge({}, {})", u, v);
            }
        }
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(7) {
            for &ej in edges.iter().rev().step_by(11) {
                prop_assert_eq!(fresh.sp_end(ei, ej), warm.sp_end(ei, ej));
                prop_assert_eq!(fresh.sp_mbr(ei, ej), warm.sp_mbr(ei, ej));
            }
        }
    }

    /// The persisted HSC model compresses, decompresses, and answers
    /// whereat/whenat queries bit-identically to the trained one.
    #[test]
    fn hsc_model_roundtrips_bit_identically(
        seed in 0u64..300,
        starts in proptest::collection::vec((0u32..1000, proptest::collection::vec(0u8..8, 4..20)), 6..14),
    ) {
        let net = net_from(5, 5, 0.15, seed);
        let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        let training: Vec<Vec<EdgeId>> = starts
            .iter()
            .map(|(s, cs)| walk_from_choices(&net, *s, cs))
            .filter(|p| !p.is_empty())
            .collect();
        prop_assume!(!training.is_empty());
        let model = HscModel::train(sp.clone(), &training, 3).expect("train");
        let loaded = HscModel::from_store_bytes(sp, model.to_store_bytes()).expect("load");
        for path in &training {
            let a = model.compress(path).expect("compress fresh");
            let b = loaded.compress(path).expect("compress loaded");
            prop_assert_eq!(&a, &b, "compressed bits differ");
            prop_assert_eq!(
                model.decompress(&a).expect("decompress"),
                loaded.decompress(&b).expect("decompress loaded")
            );
        }
        // Query engines over both models agree bit-for-bit.
        let fresh_engine = QueryEngine::new(&model);
        let warm_engine = QueryEngine::new(&loaded);
        for path in training.iter().take(4) {
            let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
            let pts = vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)];
            let ct = CompressedTrajectory {
                spatial: model.compress(path).expect("compress"),
                temporal: press::core::TemporalSequence::new(pts).expect("temporal"),
            };
            for k in 0..5 {
                let t = 60.0 * k as f64 / 4.0;
                let a = fresh_engine.whereat(&ct, t).expect("whereat");
                let b = warm_engine.whereat(&ct, t).expect("whereat loaded");
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }
    }

    /// Any single-word change to a CRC-valid `node_link` section is a
    /// typed error, or a load that still decompresses every training
    /// path exactly — never a panic, never a silently different path.
    #[test]
    fn node_link_word_corruption_never_panics(word in 0usize..100_000, value in 0u32..2_000, add in 0usize..2) {
        let (_, sp, training, model) = link_fixture();
        let bad = change_word(&model.to_store_bytes(), "node_link", word, value, add);
        if let Ok(loaded) = HscModel::from_store_bytes(sp, bad) {
            for path in &training {
                let cs = model.compress(path).expect("compress");
                prop_assert_eq!(&loaded.decompress(&cs).expect("decompress"), path);
            }
        }
    }

    /// Any single-word change to a CRC-valid `node_stop` section is a
    /// typed error or a model that loads and runs — never a panic. A
    /// stop fact is an `SPend` answer taken on the CRC's word (a wrong
    /// in-edge that forks no tree cannot be told from a right one), so
    /// what a surviving model still owes is only what does not read it:
    /// exact decompression.
    #[test]
    fn node_stop_word_corruption_never_panics(word in 0usize..100_000, value in 0u32..2_000, add in 0usize..2) {
        let (_, sp, training, model) = link_fixture();
        let bad = change_word(&model.to_store_bytes(), "node_stop", word, value, add);
        if let Ok(loaded) = HscModel::from_store_bytes(sp, bad) {
            for path in &training {
                loaded.compress(path).expect("compress");
                let cs = model.compress(path).expect("compress");
                prop_assert_eq!(&loaded.decompress(&cs).expect("decompress"), path);
            }
        }
    }
}

/// `bytes` with one little-endian word of section `section` set to
/// `value` (`add == 0`) or moved by `value + 1`, the section CRC
/// re-sealed.
fn change_word(bytes: &[u8], section: &str, word: usize, value: u32, add: usize) -> Vec<u8> {
    StoreFile::from_bytes(bytes.to_vec())
        .expect("parse")
        .rewrite_sections(|name, payload| {
            let mut payload = payload.to_vec();
            if name == section {
                let at = (word % (payload.len() / 4)) * 4;
                let old = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
                let new = if add == 0 {
                    value
                } else {
                    old.wrapping_add(value + 1)
                };
                payload[at..at + 4].copy_from_slice(&new.to_le_bytes());
            }
            Some(payload)
        })
        .expect("rewrite")
}

/// `node_link` / `node_stop` corruption matrix (a bit flip is the
/// section CRC's: the decoder fuzzer's model row): a CRC-valid but
/// inconsistent section — truncated,
/// non-monotone offsets, an edge outside the alphabet, a chain that does
/// not connect, a link dropped or invented, a `node_dist` one ulp off
/// its chain; a stop fact missing, extra, outside the alphabet, into the
/// wrong node, or at odds with another fact of its source — is a typed
/// `Corrupt`, never a model that decompresses or measures wrongly.
#[test]
fn node_link_corruption_matrix() {
    use press_store::StoreError;
    let (net, sp, _, model) = link_fixture();
    let good = model.to_store_bytes();
    let nodes = model.trie().num_nodes();
    let file = StoreFile::from_bytes(good.clone()).expect("parse");
    let payload = file.section("node_link").expect("section").to_vec();
    let (off, edges) = parse_link(&payload, nodes);
    assert!(!edges.is_empty(), "fixture must hide at least one gap");
    let load = |bytes: Vec<u8>| HscModel::from_store_bytes(sp.clone(), bytes);
    let with_link = |off: &[u32], edges: &[u32]| {
        let replacement = link_payload(off, edges);
        file.rewrite_sections(|name, p| {
            Some(if name == "node_link" {
                replacement.clone()
            } else {
                p.to_vec()
            })
        })
        .expect("rewrite")
    };
    let corrupt = |bytes: Vec<u8>, what: &str| match load(bytes) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!(
            "{what}: expected Corrupt, got {:?}",
            other.map(|_| "a model")
        ),
    };
    load(with_link(&off, &edges)).expect("the untouched rewrite loads");

    // Truncations: whole words and a ragged tail.
    corrupt(with_link(&off, &edges[..edges.len() - 1]), "last edge cut");
    corrupt(with_link(&off[..nodes], &[]), "offsets cut");
    let ragged = payload[..payload.len() - 2].to_vec();
    corrupt(
        file.rewrite_sections(|name, p| {
            Some(if name == "node_link" {
                ragged.clone()
            } else {
                p.to_vec()
            })
        })
        .expect("rewrite"),
        "ragged tail",
    );

    // The first node that hides a gap, and one that does not.
    let linked = (0..nodes)
        .find(|&n| off[n + 1] > off[n])
        .expect("a linked node");
    let bare = (1..nodes)
        .find(|&n| off[n + 1] == off[n] && model.trie().depth(n as u32) > 1)
        .expect("a consecutive pair");
    let (lo, hi) = (off[linked] as usize, off[linked + 1] as usize);

    let mut o = off.clone();
    o[linked + 1] = o[linked] + edges.len() as u32 + 1;
    corrupt(with_link(&o, &edges), "offset past the arena");
    let mut o = off.clone();
    o.swap(linked, linked + 1);
    corrupt(with_link(&o, &edges), "non-monotone offsets");
    let mut e = edges.clone();
    e[lo] = net.num_edges() as u32;
    corrupt(with_link(&off, &e), "edge outside the alphabet");
    let mut e = edges.clone();
    e[lo] = (0..net.num_edges() as u32)
        .find(|&g| {
            !net.consecutive(
                model.trie().last_edge(model.trie().parent(linked as u32)),
                EdgeId(g),
            )
        })
        .expect("a non-adjacent edge");
    corrupt(with_link(&off, &e), "broken chain");
    // The link dropped: the pair is not consecutive, so the node would
    // have to be poisoned — its finite distance says otherwise.
    let mut o = off.clone();
    for x in &mut o[linked + 1..] {
        *x -= (hi - lo) as u32;
    }
    let mut e = edges.clone();
    e.drain(lo..hi);
    corrupt(with_link(&o, &e), "dropped link");
    // A link invented for a consecutive pair.
    let mut o = off.clone();
    for x in &mut o[bare + 1..] {
        *x += 1;
    }
    let mut e = edges.clone();
    e.insert(off[bare] as usize, edges[lo]);
    corrupt(with_link(&o, &e), "invented link");

    // `node_dist` one ulp off — on a linked node, a bare one, a level-1
    // node and the root.
    for n in [linked, bare, 1, 0] {
        let bad = file
            .rewrite_sections(|name, p| {
                let mut p = p.to_vec();
                if name == "node_dist" {
                    let d = f64::from_le_bytes(p[n * 8..n * 8 + 8].try_into().expect("8 bytes"));
                    p[n * 8..n * 8 + 8]
                        .copy_from_slice(&f64::from_bits(d.to_bits() + 1).to_le_bytes());
                }
                Some(p)
            })
            .expect("rewrite");
        corrupt(bad, &format!("node_dist[{n}] one ulp off"));
    }

    // `node_stop`: one u32 per depth-2 node, in node order.
    let trie = model.trie();
    let payload = file.section("node_stop").expect("section").to_vec();
    let stops: Vec<u32> = payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    let pairs: Vec<(NodeId, NodeId)> = trie
        .node_ids()
        .filter(|&n| trie.depth(n) == 2)
        .map(|n| {
            let (a, b) = (trie.last_edge(trie.parent(n)), trie.last_edge(n));
            (net.edge(a).to, net.edge(b).to)
        })
        .collect();
    assert_eq!(stops.len(), pairs.len());
    let with_stops = |payload: Vec<u8>| {
        file.rewrite_sections(|name, p| {
            Some(if name == "node_stop" {
                payload.clone()
            } else {
                p.to_vec()
            })
        })
        .expect("rewrite")
    };
    load(with_stops(link_payload(&stops, &[]))).expect("the untouched rewrite loads");
    corrupt(
        with_stops(link_payload(&stops[1..], &[])),
        "a stop fact short",
    );
    corrupt(
        with_stops(link_payload(&stops, &[u32::MAX])),
        "a stop fact too many",
    );
    corrupt(
        with_stops(payload[..payload.len() - 2].to_vec()),
        "ragged stop tail",
    );
    let k = stops
        .iter()
        .position(|&g| g != u32::MAX)
        .expect("a stop fact");
    let mut bad = stops.clone();
    bad[k] = net.num_edges() as u32;
    corrupt(
        with_stops(link_payload(&bad, &[])),
        "stop outside the alphabet",
    );
    bad[k] = (0..net.num_edges() as u32)
        .find(|&g| net.edge(EdgeId(g)).to != pairs[k].1)
        .expect("an edge with another head");
    corrupt(
        with_stops(link_payload(&bad, &[])),
        "stop that is no in-edge of the pair's head",
    );
    // Two pairs out of one node that stop at one head must name one
    // predecessor: another in-edge of that head, valid on its own, forks
    // the tree.
    let (i, fork) = (0..pairs.len())
        .filter(|&i| stops[i] != u32::MAX)
        .find_map(|i| {
            let twin = (0..i).any(|j| pairs[j] == pairs[i] && stops[j] != u32::MAX);
            let other = (0..net.num_edges() as u32)
                .find(|&g| g != stops[i] && net.edge(EdgeId(g)).to == pairs[i].1)?;
            twin.then_some((i, other))
        })
        .expect("two pairs with one source and one head");
    let mut bad = stops.clone();
    bad[i] = fork;
    corrupt(
        with_stops(link_payload(&bad, &[])),
        "stop facts that fork the tree",
    );
}

/// A model file written before the `node_link` or the `node_stop`
/// section existed is refused with a typed `MissingSection` (every file
/// written since both exist carries them); the older sections of a
/// freshly trained model are, byte for byte, what the writers before each
/// addition produced (CRCs pinned from those builds), less the retired
/// `node_mbr`; and a loaded model answers exactly as the trained one.
#[test]
fn node_link_legacy_file_and_unchanged_sections() {
    use press_store::StoreError;
    let (net, sp, training, model) = link_fixture();
    let good = model.to_store_bytes();
    let file = StoreFile::from_bytes(good.clone()).expect("parse");
    assert_eq!(model.trie().num_nodes(), 287);
    for (name, crc) in [
        ("meta", 0xf364b4a5u32),
        ("trie", 0x873292d8),
        ("hufflens", 0x4c8b135a),
        ("node_dist", 0xf19b2274),
        ("node_link", 0x3af3f94e),
    ] {
        assert_eq!(
            press_store::crc32(file.section(name).expect("section")),
            crc,
            "{name}"
        );
    }
    assert!(
        !file.has_section("node_mbr"),
        "the MBRs are derived at load"
    );

    for gone in ["node_link", "node_stop"] {
        let legacy = file
            .rewrite_sections(|name, p| (name != gone).then(|| p.to_vec()))
            .expect("rewrite");
        match HscModel::from_store_bytes(sp.clone(), legacy) {
            Err(StoreError::MissingSection(name)) => assert_eq!(name, gone),
            other => panic!("a file without {gone}: got {:?}", other.map(|_| "a model")),
        }
    }
    let loaded = HscModel::from_store_bytes(sp.clone(), good.clone()).expect("load");
    assert_eq!(loaded.to_store_bytes(), good);
    let (fresh, warm) = (QueryEngine::new(&model), QueryEngine::new(&loaded));
    for path in &training {
        let cs = model.compress(path).expect("compress");
        assert_eq!(loaded.compress(path).expect("compress"), cs);
        assert_eq!(&loaded.decompress(&cs).expect("decompress"), path);
        let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
        let ct = CompressedTrajectory {
            spatial: cs,
            temporal: TemporalSequence::new(vec![
                DtPoint::new(0.0, 0.0),
                DtPoint::new(total, 60.0),
            ])
            .expect("temporal"),
        };
        for k in 0..=6 {
            let a = fresh.whereat(&ct, 10.0 * k as f64).expect("whereat");
            let b = warm.whereat(&ct, 10.0 * k as f64).expect("whereat loaded");
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits())
            );
            assert_eq!(
                fresh.whenat(&ct, a, 0.5).expect("whenat").to_bits(),
                warm.whenat(&ct, a, 0.5).expect("whenat loaded").to_bits()
            );
        }
    }
}

/// Mapped flat-section corruption matrix: a bit flip inside a flat
/// section of the hub-label or corpus artifact surfaces as a typed
/// `StoreError::ChecksumMismatch` naming the section on first touch:
/// inside `open_mapped` for the hub labels, which checks every
/// section before it returns, and at the first decode of the damaged
/// block for the corpus. The last section of each file is flat, so
/// flipping its final bytes deterministically lands in one.
#[test]
fn mapped_flat_section_bit_flip_is_typed_checksum_error_on_first_touch() {
    use press_store::StoreError;
    let net = net_from(5, 5, 0.12, 23);
    let dir = std::env::temp_dir().join(format!("press-map-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Hub labels: the open names the section.
    let mut bytes = HubLabels::build_with_threads(net.clone(), 1).to_store_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0x04;
    let path = dir.join("sp_hl.press");
    std::fs::write(&path, &bytes).expect("write");
    assert_eq!(
        HubLabels::open_mapped(net.clone(), &path).err(),
        Some(StoreError::ChecksumMismatch {
            section: "bwd_parent_f".into()
        })
    );

    // Corpus: blocks decode lazily, so a flip in the last block is
    // reported by the first `get` that touches it — earlier blocks and
    // the open itself stay clean.
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..14u64 {
        let choices: Vec<u8> = (0..12).map(|i| ((s * 7 + i * 3) % 5) as u8).collect();
        let p = walk_from_choices(&net, (s * 5) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let compressed: Vec<CompressedTrajectory> = training
        .iter()
        .map(|p| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)])
                    .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let engine = QueryEngine::new(press.model());
    let mut bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).expect("bytes");
    let n = bytes.len();
    bytes[n - 2] ^= 0x20;
    let path = dir.join("corpus.press");
    std::fs::write(&path, &bytes).expect("write");
    let store = TrajectoryStore::open_mapped(&path).expect("mapped corpus open defers block CRCs");
    assert_eq!(
        store.get(0).expect("first block is undamaged"),
        compressed[0]
    );
    assert!(matches!(
        store.get(compressed.len() - 1),
        Err(PressError::Store(StoreError::ChecksumMismatch { .. }))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hub-label writer emits exactly its flat family, in this order.
#[test]
fn sp_writers_emit_exactly_their_flat_sections() {
    let net = net_from(5, 5, 0.12, 31);
    let (bytes, sections) = sp_artifact(&net);
    let file = StoreFile::from_bytes(bytes).expect("parse");
    assert_eq!(file.section_names().collect::<Vec<_>>(), sections);
}

/// Files written before the flat family became the only one also carry
/// the compact sections. Their names are retired: appended here with
/// junk payloads, both loads answer bit-identically to the clean file.
#[test]
fn retired_sp_sections_are_ignored_by_both_loads() {
    let net = net_from(5, 5, 0.12, 31);
    let retired = [
        "arcs_c",
        "fwd_index_c",
        "bwd_index_c",
        "fwd_hub_c",
        "bwd_hub_c",
        "fwd_arcs_c",
        "bwd_arcs_c",
        "fwd_parent",
        "bwd_parent",
    ];
    let (bytes, _) = sp_artifact(&net);
    let file = StoreFile::from_bytes(bytes.clone()).expect("parse");
    let mut w = press_store::StoreWriter::new(file.kind());
    for name in file.section_names() {
        w.section_aligned(name, file.section(name).expect("section").to_vec());
    }
    for name in retired {
        w.section(name, vec![0xA5; 13]);
    }
    let [clean, _] = load_both(&net, &bytes);
    let clean = clean.expect("clean load");
    for loaded in load_both(&net, &w.to_bytes()) {
        let loaded = loaded.expect("retired sections are ignored");
        for u in net.node_ids() {
            for v in net.node_ids() {
                assert_eq!(
                    clean.node_dist(u, v).to_bits(),
                    loaded.node_dist(u, v).to_bits()
                );
                assert_eq!(clean.pred_edge(u, v), loaded.pred_edge(u, v));
            }
        }
    }
}

/// Every section the hub-label writer emits is required: without any
/// one of them, both loads fail with a typed `MissingSection` naming it.
#[test]
fn sp_artifact_missing_any_section_is_typed_on_both_loads() {
    use press_store::StoreError;
    let net = net_from(4, 4, 0.1, 17);
    let (bytes, sections) = sp_artifact(&net);
    let file = StoreFile::from_bytes(bytes).expect("parse");
    for gone in sections {
        let dropped = file
            .rewrite_sections(|name, p| (name != gone).then(|| p.to_vec()))
            .expect("rewrite");
        for loaded in load_both(&net, &dropped) {
            assert_eq!(
                loaded.err(),
                Some(StoreError::MissingSection(gone.into())),
                "{gone}"
            );
        }
    }
}

/// Cold-open corruption matrix, over every artifact that opens through
/// a mapping: the corpus (`TrajectoryStore::open_mapped`), the network
/// (`RoadNetwork::load_from`) and the model (`HscModel::load_from`). The
/// 0-byte file (a crash between `create` and the first write) goes mmap →
/// arena fallback → typed `Truncated`, and a file truncated in the middle
/// of the section directory (a torn multi-sector write) is a typed store
/// error — never a panic, never a partially-valid artifact.
#[test]
fn trajectory_store_open_rejects_empty_and_torn_directory() {
    use press_store::StoreError;
    let net = net_from(5, 5, 0.1, 13);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..12u64 {
        let choices: Vec<u8> = (0..10).map(|i| ((s * 11 + i * 3) % 5) as u8).collect();
        let p = walk_from_choices(&net, (s * 5) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp.clone(), &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let compressed: Vec<CompressedTrajectory> = training
        .iter()
        .map(|p| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)])
                    .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let engine = QueryEngine::new(press.model());
    let corpus = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).expect("bytes");
    let model = press.model().to_store_bytes();
    // Each artifact's open, yielding what it holds or the typed error.
    let open = |what: &str, p: &std::path::Path| match what {
        "corpus" => match TrajectoryStore::open_mapped(p) {
            Ok(store) => Ok(store.len()),
            Err(PressError::Store(e)) => Err(e),
            Err(e) => panic!("corpus open: untyped error {e}"),
        },
        "network" => RoadNetwork::load_from(p).map(|n| n.num_edges()),
        _ => HscModel::load_from(sp.clone(), p).map(|m| m.to_store_bytes().len()),
    };
    let (corpus_len, net_len, model_len) = (compressed.len(), net.num_edges(), model.len());
    let artifacts = [
        ("corpus", corpus, corpus_len),
        ("network", net.to_store_bytes(), net_len),
        ("model", model, model_len),
    ];

    let dir = std::env::temp_dir().join(format!("press-store-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (what, good, holds) in artifacts {
        // 0-byte file: typed truncation, not a panic.
        let empty = dir.join(format!("{what}-empty.press"));
        std::fs::write(&empty, []).expect("write");
        let truncated = matches!(open(what, &empty), Err(StoreError::Truncated { .. }));
        assert!(truncated, "{what}: a 0-byte file is a typed truncation");

        // Truncation inside the section directory: the container header
        // (24 bytes) survives, but the 40-byte directory entries are torn
        // at every possible misalignment. Every cut is a typed error.
        let torn = dir.join(format!("{what}-torn.press"));
        for cut in [25, 24 + 13, 24 + 40, 24 + 40 + 39, 24 + 2 * 40 + 1] {
            assert!(cut < good.len(), "{what}: the fixture must outsize {cut}");
            std::fs::write(&torn, &good[..cut]).expect("write");
            assert!(open(what, &torn).is_err(), "{what}: cut at byte {cut}");
        }

        // The untruncated bytes still load (the matrix above tested the
        // cuts, not a broken fixture).
        std::fs::write(&torn, &good).expect("write");
        assert_eq!(open(what, &torn), Ok(holds), "{what}");
    }
    // decode_all returns the corpus in index order (the recovery path).
    let store = TrajectoryStore::open_mapped(&dir.join("corpus-torn.press")).expect("open");
    assert_eq!(store.decode_all().expect("decode_all"), compressed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corpus matrix over spatial codes that carry **gap runs** (held-out
/// walks: the other fixtures here store their own training paths, whose
/// gaps the model knows). Clean: the corpus round-trips, every stream
/// reads back to its walk, indexed == linear == brute force (a bit flip
/// in a block is the block CRC's: the decoder fuzzer's corpus row).
/// Behind a valid CRC, every single-bit
/// change and every truncation of a run-carrying stream is a typed error
/// (the record's padding check, or the stream reader's structure checks)
/// or some other well-formed path — never a panic, never an unbounded
/// walk — at `get`, `whereat`, `range` and `decompress` alike. And the
/// parent's record format is refused by number.
#[test]
fn gap_run_corpus_corruption_matrix() {
    use press_store::StoreError;
    let net = net_from(6, 6, 0.15, 23);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let walks = |salt: u64, n: u64| -> Vec<Vec<EdgeId>> {
        (0..n)
            .map(|s| {
                let choices: Vec<u8> = (0..16)
                    .map(|i| ((s * 13 + i * 5 + salt) % 6) as u8)
                    .collect();
                walk_from_choices(&net, (s * 7 + salt) as u32, &choices)
            })
            .filter(|p| p.len() >= 4)
            .collect()
    };
    let model = HscModel::train(sp, &walks(0, 20), 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let held_out = walks(4, 9);
    let compressed: Vec<CompressedTrajectory> = held_out
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![
                    DtPoint::new(0.0, k as f64 * 100.0),
                    DtPoint::new(net.path_weight(p), k as f64 * 100.0 + 90.0),
                ])
                .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let model = press.model();
    let engine = QueryEngine::new(model);
    let (run_bits, run_edges) = compressed
        .iter()
        .map(|ct| model.run_cost(&ct.spatial).expect("run cost"))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(
        run_bits > 0 && run_edges > 0,
        "the corpus must carry gap runs"
    );

    // Clean.
    let good = TrajectoryStore::to_store_bytes(&engine, &compressed, 3).expect("bytes");
    let store = TrajectoryStore::from_store_bytes(good.clone()).expect("load");
    assert_eq!(store.decode_all().expect("decode_all"), compressed);
    let region = Mbr::new(-1e9, -1e9, 1e9, 1e9);
    for (i, p) in held_out.iter().enumerate() {
        let ct = store.get(i).expect("get");
        assert_eq!(&model.decompress(&ct.spatial).expect("decompress"), p);
    }
    for (t1, t2) in [(0.0, 250.0), (300.0, 1000.0)] {
        let brute: Vec<usize> = compressed
            .iter()
            .enumerate()
            .filter(|(_, ct)| {
                let (a, z) = ct.temporal.time_range().expect("range");
                z >= t1 && a <= t2 && engine.range(ct, t1, t2, &region).expect("range")
            })
            .map(|(i, _)| i)
            .collect();
        assert!(!brute.is_empty());
        assert_eq!(store.range(&engine, t1, t2, &region).expect("range"), brute);
        assert_eq!(
            store
                .range_linear(&engine, t1, t2, &region)
                .expect("linear"),
            brute
        );
    }

    // Behind a valid CRC: the first run-carrying trajectory.
    let victim = (0..compressed.len())
        .find(|&i| model.run_cost(&compressed[i].spatial).expect("cost").0 > 0)
        .expect("some trajectory carries a run");
    let block = format!("blk{}", victim / 3);
    let stream = compressed[victim].spatial.bits.to_bytes();
    let len_bits = compressed[victim].spatial.bits.len_bits();
    let file = StoreFile::from_bytes(good.clone()).expect("parse");
    let payload = file.section(&block).expect("the victim's block").to_vec();
    let at = payload
        .windows(stream.len())
        .position(|w| w == stream)
        .expect("the stream's bytes appear in its block");
    let with_stream = |bytes: &[u8], len_byte: Option<u8>| {
        let rewritten = file
            .rewrite_sections(|name, payload| {
                let mut payload = payload.to_vec();
                if name == block {
                    payload[at..at + stream.len()].copy_from_slice(bytes);
                    if let Some(b) = len_byte {
                        payload[at - 1] = b;
                    }
                }
                Some(payload)
            })
            .expect("rewrite");
        TrajectoryStore::from_store_bytes(rewritten).expect("meta and synopsis are untouched")
    };
    assert_eq!(
        with_stream(&stream, None).get(victim).expect("get"),
        compressed[victim]
    );
    let mut outcomes = [0usize; 3];
    let mut read = |store: TrajectoryStore| {
        let typed = |e: &PressError| {
            matches!(
                e,
                PressError::CorruptBitstream(_)
                    | PressError::NoShortestPath(..)
                    | PressError::Store(StoreError::Corrupt(_))
                    | PressError::Store(StoreError::Truncated { .. })
            )
        };
        let ct = match store.get(victim) {
            Ok(ct) => ct,
            Err(e) => {
                assert!(typed(&e), "{e:?}");
                outcomes[0] += 1;
                return;
            }
        };
        let path = model.decompress(&ct.spatial);
        let point = store.whereat(&engine, victim, victim as f64 * 100.0 + 45.0);
        let hits = store.range(&engine, 0.0, 250.0, &region);
        match path {
            Ok(edges) => {
                assert!(edges.len() <= 4 * net.num_nodes() * len_bits as usize);
                net.validate_path(&edges)
                    .expect("a decoded path is connected");
                point.expect("whereat on a well-formed stream");
                hits.expect("range on a well-formed stream");
                outcomes[1] += 1;
            }
            Err(e) => {
                assert!(typed(&e), "{e:?}");
                for e in [point.err(), hits.err()].into_iter().flatten() {
                    assert!(typed(&e), "{e:?}");
                }
                outcomes[2] += 1;
            }
        }
    };
    for flip in 0..8 * stream.len() {
        let mut bad = stream.clone();
        bad[flip / 8] ^= 1 << (flip % 8);
        read(with_stream(&bad, None));
    }
    // The bit count is the varint byte right before the stream (< 128
    // bits here): every shorter count is a truncation of the grammar.
    assert!(len_bits < 128 && payload[at - 1] == len_bits as u8);
    for cut in (len_bits.saturating_sub(7)..len_bits).rev() {
        read(with_stream(&stream, Some(cut as u8)));
    }
    let [at_record, other_path, at_stream] = outcomes;
    assert!(
        at_record > 0 && other_path > 0 && at_stream > 0,
        "padding flips fail at the record, the rest read as another path or fail in the stream: {outcomes:?}"
    );

    // The parent wrote record format 2: same records, no runs.
    let parent = file
        .rewrite_sections(|name, payload| {
            let mut payload = payload.to_vec();
            if name == "meta" {
                payload[24..28].copy_from_slice(&2u32.to_le_bytes());
            }
            Some(payload)
        })
        .expect("rewrite");
    match TrajectoryStore::from_store_bytes(parent) {
        Err(PressError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.starts_with("record format 2"), "{msg}")
        }
        other => panic!("expected a typed record-format refusal, got {other:?}"),
    }
}

/// End-to-end: a trajectory corpus written as a block store round-trips
/// and answers queries identically to the in-memory compressed forms.
#[test]
fn trajectory_store_end_to_end() {
    let net = net_from(6, 6, 0.15, 42);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..40u64 {
        let choices: Vec<u8> = (0..16).map(|i| ((s * 13 + i * 5) % 6) as u8).collect();
        let p = walk_from_choices(&net, (s * 7) as u32, &choices);
        if p.len() >= 4 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let trajs: Vec<Trajectory> = training
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let pts = vec![
                DtPoint::new(0.0, k as f64 * 100.0),
                DtPoint::new(total / 2.0, k as f64 * 100.0 + 40.0),
                DtPoint::new(total, k as f64 * 100.0 + 90.0),
            ];
            Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(pts).expect("temporal"),
            )
        })
        .collect();
    let compressed: Vec<CompressedTrajectory> = trajs
        .iter()
        .map(|t| press.compress(t).expect("compress"))
        .collect();
    let engine = QueryEngine::new(press.model());
    let dir = std::env::temp_dir().join(format!("press-trajstore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("corpus.press");
    TrajectoryStore::create(&path, &engine, &compressed, 6).expect("create");
    let store = TrajectoryStore::open_mapped(&path).expect("open");
    assert_eq!(store.len(), compressed.len());
    for (i, ct) in compressed.iter().enumerate() {
        assert_eq!(&store.get(i).expect("get"), ct);
    }
    // Queries equal the in-memory engine.
    for (i, (traj, ct)) in trajs.iter().zip(&compressed).enumerate().step_by(3) {
        let (t0, t1) = traj.temporal.time_range().expect("range");
        let t = (t0 + t1) / 2.0;
        let mem = engine.whereat(ct, t).expect("whereat");
        let disk = store.whereat(&engine, i, t).expect("whereat disk");
        assert_eq!(mem.x.to_bits(), disk.x.to_bits());
        assert_eq!(mem.y.to_bits(), disk.y.to_bits());
    }
    // The staggered time spans let range skip blocks; results match brute force.
    let bb = net.bounding_box();
    let region = Mbr::new(bb.min_x, bb.min_y, bb.max_x, bb.max_y);
    let hits = store.range(&engine, 0.0, 250.0, &region).expect("range");
    let brute: Vec<usize> = compressed
        .iter()
        .enumerate()
        .filter(|(_, ct)| {
            let (a, z) = ct.temporal.time_range().expect("range");
            z >= 0.0 && a <= 250.0 && engine.range(ct, 0.0, 250.0, &region).expect("range")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits, brute);
    let (_, skipped) = store.io_stats();
    assert!(skipped > 0, "time-span synopses must have skipped blocks");
    let _ = std::fs::remove_dir_all(&dir);
}
