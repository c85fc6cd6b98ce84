//! Tests of the in-stream gap runs ([`crate::spatial::hsc`] § the
//! stream): the stream decodes to the SP form Algorithm 1 keeps and
//! reads back to the path on every backend, nothing on the read path
//! calls the shortest-path layer, and a malformed run is a typed error
//! within a bounded number of steps.
//!
//! (The query side of the identity — the engine against the SP-only
//! oracle — is `gap_run_queries_match_the_sp_only_reference_on_every_backend`
//! beside the engine; the size guard sits with the store fixture.)

use crate::error::PressError;
use crate::press::CompressedTrajectory;
use crate::query::QueryEngine;
use crate::spatial::bits::{BitStream, BitWriter};
use crate::spatial::hsc::{CompressedSpatial, Decomposer, HscModel};
use crate::spatial::node_link_tests::{knotted, net_of, walk, walks, witness_delta, CountingSp};
use crate::spatial::sp::{sp_compress, sp_decompress};
use crate::spatial::trie::node_to_symbol;
use press_network::{
    grid_network, EdgeId, GridConfig, Mbr, Point, RoadNetwork, RoadNetworkBuilder, SpBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `decompress(compress(p)) == p` and
    /// `decode_sp_form(compress(p)) == sp_compress(p)` — greedy and DP,
    /// training and held-out walks, both backends (which agree on
    /// the bits), θ 1–4, jittered, fully tied and random-geometric nets.
    #[test]
    fn gap_run_codec_roundtrips_on_every_backend(
        kind in 0usize..3,
        seed in 0u64..400,
        theta in 1usize..5,
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
        let mut first: Option<Vec<CompressedSpatial>> = None;
        for backend in [SpBackend::Dense, SpBackend::Hl] {
            let sp = backend.build(net.clone());
            let model = HscModel::train(sp.clone(), &paths[..paths.len() / 2], theta).expect("train");
            let mut all = Vec::new();
            for path in &paths {
                for decomposer in [Decomposer::Greedy, Decomposer::Dp] {
                    let cs = model.compress_with(path, decomposer).expect("compress");
                    let spc = sp_compress(sp.as_ref(), path);
                    prop_assert_eq!(&model.decode_sp_form(&cs).expect("decode"), &spc, "{:?}", backend);
                    prop_assert_eq!(&model.decompress(&cs).expect("decompress"), path);
                    all.push(cs);
                }
            }
            let first = first.get_or_insert_with(|| all.clone());
            prop_assert_eq!(&*first, &all, "{:?}", backend);
        }
    }
}

/// Every public read of `ct` — decompression, the stream decoders and all
/// the engine's queries.
fn read_everything(model: &HscModel, ct: &CompressedTrajectory, other: &CompressedTrajectory) {
    let engine = QueryEngine::new(model);
    let everywhere = Mbr::new(-1e7, -1e7, 1e7, 1e7);
    let _ = model.decompress(&ct.spatial);
    let _ = model.decode_sp_form(&ct.spatial);
    let _ = model.run_cost(&ct.spatial);
    let _ = engine.spatial_mbr(&ct.spatial);
    for k in 0..=4 {
        let at = engine.whereat(ct, 15.0 * k as f64);
        let p = at.unwrap_or(Point::new(0.0, 0.0));
        let _ = engine.whenat(ct, p, 0.5);
        let _ = engine.passes_near(ct, p, 30.0, 0.0, 60.0);
    }
    let _ = engine.range(ct, 0.0, 60.0, &everywhere);
    let _ = engine.min_distance(ct, other);
}

/// The read path asks the shortest-path layer nothing about anything
/// this build compressed, held-out walks included, and compression asks
/// it exactly what Algorithm 1's index misses do — the runs cost no call
/// (a debug build re-derives each written run once to check it).
#[test]
fn gap_run_read_path_makes_no_sp_call() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 8,
        ny: 8,
        weight_jitter: 0.15,
        seed: 5,
        ..GridConfig::default()
    }));
    let training = walks(&net, 0, 30);
    let held_out = walks(&net, 3, 30);
    for backend in [SpBackend::Dense, SpBackend::Hl] {
        let sp = CountingSp::over(backend.build(net.clone()));
        let model = HscModel::train(sp.clone(), &training, 3).expect("train");
        for (paths, trained) in [(&training, true), (&held_out, false)] {
            let before = sp.calls();
            let mut cts = Vec::new();
            let seen = witness_delta(|| cts.extend(paths.iter().map(|p| knotted(&model, p))));
            let checked = if cfg!(debug_assertions) {
                seen.gap_runs
            } else {
                0
            };
            assert_eq!(sp.calls() - before, seen.spend_sp + checked, "{seen:?}");
            assert_eq!(seen.sp_fallbacks, 0, "{seen:?}");
            assert_eq!(seen.gap_runs == 0, trained, "{seen:?}");

            let before = sp.calls();
            let seen = witness_delta(|| {
                for (i, ct) in cts.iter().enumerate() {
                    read_everything(&model, ct, &cts[(i + 1) % cts.len()]);
                }
            });
            assert_eq!(sp.calls(), before, "{backend:?}: the read path is SP-free");
            assert_eq!(seen.sp_fallbacks, 0, "{seen:?}");
            assert!(seen.arena_hits > 0, "{seen:?}");
            assert_eq!(seen.gap_runs == 0, trained, "{seen:?}");
        }
    }
}

/// Input that is not connected (two walks spliced end to end): the
/// stream bridges the break with the shortest path, exactly what SP
/// compression of the same input stands for, and the encoder fetches
/// only the runs that start at a break.
#[test]
fn gap_run_unconnected_input_is_bridged_by_the_shortest_path() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 8,
        ny: 8,
        weight_jitter: 0.15,
        seed: 5,
        ..GridConfig::default()
    }));
    let sp = SpBackend::Dense.build(net.clone());
    let model = HscModel::train(sp.clone(), &walks(&net, 0, 30), 3).expect("train");
    let held_out = walks(&net, 3, 30);
    let mut fetched = 0;
    for (x, y) in held_out.iter().zip(held_out.iter().skip(1)) {
        for cut in [2, x.len() / 2, x.len() - 1] {
            let spliced = [&x[..cut], &y[y.len() / 2..]].concat();
            if net.consecutive(spliced[cut - 1], spliced[cut]) {
                continue;
            }
            let spc = sp_compress(sp.as_ref(), &spliced);
            let mut cs = None;
            let seen = witness_delta(|| cs = Some(model.compress(&spliced).expect("compress")));
            assert!(seen.sp_fallbacks <= 1, "{seen:?}");
            fetched += seen.sp_fallbacks;
            let cs = cs.unwrap();
            assert_eq!(model.decode_sp_form(&cs).expect("decode"), spc);
            assert_eq!(
                model.decompress(&cs).expect("decompress"),
                sp_decompress(sp.as_ref(), &spc).expect("reference")
            );
        }
    }
    assert!(fetched > 0, "no splice broke right after a kept edge");
}

/// `x → r0 → r1 → r2 → r0` (a ring of out-degree-1 nodes) and, apart
/// from it, `w → f` into a fork with three out-edges `f → {6, 7, 8}`,
/// then `far = 8 → 9` (a sink) and `last = 6 → 7`. Returns the edges
/// into the ring and the fork, `far` and `last`.
fn ring_and_fork() -> (Arc<RoadNetwork>, [EdgeId; 4]) {
    let mut nb = RoadNetworkBuilder::new();
    let n: Vec<_> = (0..10)
        .map(|i| nb.add_node(Point::new(i as f64 * 10.0, (i % 3) as f64 * 10.0)))
        .collect();
    let mut edge = |u: usize, v: usize| nb.add_edge(n[u], n[v], 1.0).unwrap();
    let into_ring = edge(0, 1);
    for (u, v) in [(1, 2), (2, 3), (3, 1)] {
        edge(u, v);
    }
    let into_fork = edge(4, 5);
    for v in [6, 7, 8] {
        edge(5, v);
    }
    let far = edge(8, 9);
    let last = edge(6, 7);
    (Arc::new(nb.build()), [into_ring, into_fork, far, last])
}

/// The symbols of `units` (depth-1 nodes), each followed by `turns` bits.
fn stream(model: &HscModel, units: &[(EdgeId, &[bool])]) -> CompressedSpatial {
    let mut w = BitWriter::new();
    for &(e, turns) in units {
        let sym = node_to_symbol(model.trie().level1(e));
        model.huffman().encode_symbol(sym, &mut w);
        for &bit in turns {
            w.push_bit(bit);
        }
    }
    CompressedSpatial { bits: w.finish() }
}

fn corrupt(model: &HscModel, cs: &CompressedSpatial, what: &str) {
    let engine = QueryEngine::new(model);
    for got in [
        model.decompress(cs).map(|_| ()),
        model.decode_nodes(cs).map(|_| ()),
        model.decode_sp_form(cs).map(|_| ()),
        model.run_cost(cs).map(|_| ()),
        engine.spatial_mbr(cs).map(|_| ()),
        engine.point_at_distance(cs, 1.5).map(|_| ()),
    ] {
        match got {
            Err(PressError::CorruptBitstream(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a corrupt run ({what}), got {other:?}"),
        }
    }
}

/// The decoder's four refusals, each typed and reached in a bounded
/// number of steps: a turn beyond the out-degree, a walk that never
/// arrives (zero-bit turns round a ring consume no input), a stream that
/// ends inside a run, and — on a run that does arrive — whatever bits
/// follow are the next symbol's, so a stray tail is a Huffman error.
#[test]
fn gap_run_decoder_refuses_malformed_runs() {
    let (net, [into_ring, into_fork, far, last]) = ring_and_fork();
    let model = HscModel::train(SpBackend::Dense.build(net.clone()), &[], 2).unwrap();
    // The fork has three out-edges: two-bit turns, index 3 names none.
    let good = stream(&model, &[(into_fork, &[]), (far, &[true, false])]);
    assert_eq!(
        model.decompress(&good).unwrap(),
        [into_fork, net.out_edges(net.edge(into_fork).to)[2], far]
    );
    assert_eq!(model.run_cost(&good).unwrap(), (2, 1));
    corrupt(
        &model,
        &stream(&model, &[(into_fork, &[]), (far, &[true, true])]),
        "beyond the node's out-degree",
    );
    // The stream ends one bit into the turn, or right before it.
    corrupt(
        &model,
        &stream(&model, &[(into_fork, &[]), (far, &[true])]),
        "cut short",
    );
    corrupt(
        &model,
        &stream(&model, &[(into_fork, &[]), (far, &[])]),
        "cut short",
    );
    // Round the ring: no turn takes a bit, nothing is consumed, and the
    // walk stops at |V| steps.
    corrupt(
        &model,
        &stream(&model, &[(into_ring, &[]), (last, &[])]),
        "has not arrived",
    );
    // A sink (no out-edges at all) in front of a gap: turn 0 of none.
    corrupt(
        &model,
        &stream(&model, &[(far, &[]), (last, &[])]),
        "beyond the node's out-degree",
    );
    // A complete run followed by a lone bit that starts no symbol's code.
    let tail = stream(&model, &[(into_fork, &[]), (far, &[true, false, true])]);
    assert!(matches!(
        model.decompress(&tail),
        Err(PressError::CorruptBitstream(_))
    ));
}

/// Every single-bit flip and every truncation of streams that carry
/// runs: each read is `Ok` or a typed error — no panic, no walk longer
/// than the network allows.
#[test]
fn gap_run_streams_survive_every_bit_flip_and_truncation() {
    let net = net_of(0, 9);
    let training = walks(&net, 0, 10);
    let held_out = walks(&net, 3, 6);
    let model = HscModel::train(SpBackend::Dense.build(net.clone()), &training, 3).unwrap();
    let cts: Vec<_> = held_out.iter().map(|p| knotted(&model, p)).collect();
    let mut runs = 0;
    for ct in &cts {
        let (run_bits, _) = model.run_cost(&ct.spatial).unwrap();
        runs += run_bits;
        let bytes = ct.spatial.bits.to_bytes();
        let n = ct.spatial.bits.len_bits();
        let mutated = |bytes: &[u8], len_bits: u64| CompressedTrajectory {
            spatial: CompressedSpatial {
                bits: BitStream::from_bytes(bytes, len_bits),
            },
            temporal: ct.temporal.clone(),
        };
        for flip in 0..n {
            let mut bad = bytes.clone();
            bad[(flip / 8) as usize] ^= 1 << (flip % 8);
            let bad = mutated(&bad, n);
            if let Ok(edges) = model.decompress(&bad.spatial) {
                assert!(edges.len() as u64 <= n * 4 * net.num_nodes() as u64);
            }
            read_everything(&model, &bad, ct);
        }
        for cut in 0..n {
            read_everything(&model, &mutated(&bytes, cut), ct);
        }
    }
    assert!(runs > 0, "the fixture must carry runs");
}

/// Every gap length a reader is handed has the bits of `path_len` over
/// the gap's interior — the table's value for each Trie node's link
/// (every depth-2 node's arena gap among them, also through
/// `known_gap`), the walk's running sum for each in-stream run on
/// held-out walks — on the trained model, the one saved and loaded, and
/// the one loaded over a mapped hub-label file; on jittered, fully tied
/// and random-geometric nets.
#[test]
fn gap_len_is_bit_identical_to_path_len() {
    use crate::spatial::hsc::path_len;
    use press_network::HubLabels;
    let dir = std::env::temp_dir().join(format!("press-gap-len-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in 0..3 {
        let net = net_of(kind, 9);
        let (training, held_out) = (walks(&net, 0, 16), walks(&net, 3, 16));
        let trained = HscModel::train(SpBackend::Hl.build(net.clone()), &training, 3).unwrap();
        let loaded =
            HscModel::from_store_bytes(trained.sp().clone(), trained.to_store_bytes()).unwrap();
        let labels = dir.join(format!("sp_hl.{kind}.press"));
        let model = dir.join(format!("hsc.{kind}.press"));
        HubLabels::build(net.clone()).save_to(&labels).unwrap();
        trained.save_to(&model).unwrap();
        let sp = Arc::new(HubLabels::open_mapped(net.clone(), &labels).unwrap());
        let mapped = HscModel::load_from(sp, &model).unwrap();
        for model in [&trained, &loaded, &mapped] {
            let trie = model.trie();
            let mut arena_gaps = 0;
            for node in trie.node_ids() {
                let link = model.node_link(node);
                assert_eq!(
                    model.node_link_len(node).to_bits(),
                    path_len(&net, link).to_bits(),
                    "node {node}"
                );
                if trie.depth(node) != 2 {
                    continue;
                }
                let (a, b) = (trie.last_edge(trie.parent(node)), trie.last_edge(node));
                if let Some((len, interior)) = model.known_gap(a, b) {
                    assert_eq!(interior, link);
                    assert_eq!(len.to_bits(), path_len(&net, link).to_bits(), "({a}, {b})");
                    arena_gaps += usize::from(!link.is_empty());
                }
            }
            assert!(arena_gaps > 0, "kind {kind}: the arena must hold gaps");
            let (mut stream_gaps, mut runs) = (0, 0);
            for path in training.iter().chain(&held_out) {
                let cs = model.compress(path).unwrap();
                model
                    .for_each_unit(&cs, &mut Vec::new(), |gap, _| {
                        if let Some(gap) = gap {
                            assert_eq!(
                                gap.len.to_bits(),
                                path_len(&net, gap.interior).to_bits(),
                                "({}, {})",
                                gap.a,
                                gap.b
                            );
                            stream_gaps += 1;
                            runs += usize::from(model.known_gap(gap.a, gap.b).is_none());
                        }
                        Ok(false)
                    })
                    .unwrap();
            }
            assert!(
                runs > 0 && runs < stream_gaps,
                "kind {kind}: {runs} of {stream_gaps}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
