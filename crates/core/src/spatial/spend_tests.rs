//! Identity tests of the `SPend` index: an Algorithm 1 scan that reads
//! [`HscModel`]'s facts first must emit what the scan over the bare
//! shortest-path layer emits — on every backend, on tied and jittered
//! geometry — and must not reach the layer at all for a path training
//! has seen.

use crate::spatial::hsc::HscModel;
use crate::spatial::node_link_tests::{
    net_of, two_components, walk, walks, witness_delta, CountingSp,
};
use crate::spatial::sp::sp_compress;
use press_network::{grid_network, EdgeId, GridConfig, SpBackend};
use proptest::prelude::*;
use std::sync::Arc;

/// Recompressing the training paths asks the shortest-path layer
/// nothing — every passing test is a link interior, every failing one a
/// stop fact; held-out walks are answered from both sides.
#[test]
fn spend_witness_training_paths_are_sp_free_and_held_out_walks_use_both() {
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

    let reference: Vec<_> = training
        .iter()
        .map(|p| sp_compress(model.sp().as_ref(), p))
        .collect();
    let calls = sp.calls();
    let mut compressed = Vec::new();
    let seen =
        witness_delta(|| compressed.extend(training.iter().map(|p| model.compress(p).unwrap())));
    assert_eq!(sp.calls(), calls, "a training path must compress SP-free");
    for ((p, spc), cs) in training.iter().zip(&reference).zip(&compressed) {
        assert_eq!(&model.decode_sp_form(cs).unwrap(), spc);
        assert_eq!(&model.decompress(cs).unwrap(), p);
    }
    assert!(seen.spend_known > 0, "{seen:?}");
    assert_eq!(seen.spend_sp, 0, "{seen:?}");

    let before = sp.calls();
    let seen = witness_delta(|| {
        for p in &held_out {
            let cs = model.compress(p).unwrap();
            assert_eq!(&model.decompress(&cs).unwrap(), p);
        }
    });
    assert!(seen.spend_known > 0 && seen.spend_sp > 0, "{seen:?}");
    assert!(sp.calls() - before >= seen.spend_sp);
}

/// θ = 1 has no depth-2 node: the index is empty and every non-trivial
/// test is the provider's.
#[test]
fn spend_index_is_empty_at_theta_one() {
    let net = net_of(0, 9);
    let paths = walks(&net, 1, 12);
    let sp = CountingSp::over(SpBackend::Dense.build(net.clone()));
    let model = HscModel::train(sp.clone(), &paths, 1).expect("train");
    assert_eq!(
        model.auxiliary_sizes().spend_index_bytes,
        (net.num_nodes() + 1) * 4
    );
    assert!(model.stop_facts().is_empty());
    let seen = witness_delta(|| {
        for p in &paths {
            let spc = model.decode_sp_form(&model.compress(p).unwrap()).unwrap();
            assert_eq!(spc, sp_compress(model.sp().as_ref(), p));
        }
    });
    assert_eq!(seen.spend_known, 0, "{seen:?}");
    assert!(seen.spend_sp > 0, "{seen:?}");
}

/// A pair no path joins is poisoned: it carries no stop fact and adds
/// nothing to the index.
#[test]
fn spend_poisoned_pair_contributes_nothing() {
    let (net, e0, e1) = two_components();
    let model = HscModel::train(SpBackend::Dense.build(net.clone()), &[vec![e0, e1]], 2).unwrap();
    assert_eq!(model.stop_facts(), [crate::spatial::hsc::NO_STOP]);
    assert_eq!(
        model.auxiliary_sizes().spend_index_bytes,
        (net.num_nodes() + 1) * 4 + 4
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The model-backed scan equals the provider-backed one on training
    /// and held-out walks, on both backends, on jittered, fully tied and
    /// random-geometric nets.
    #[test]
    fn spend_compress_equals_sp_compress_on_every_backend(
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
        let training = &paths[..paths.len() / 2];
        for backend in [SpBackend::Dense, SpBackend::Hl] {
            let sp = backend.build(net.clone());
            let model = HscModel::train(sp.clone(), training, theta).expect("train");
            for path in &paths {
                let spc = sp_compress(sp.as_ref(), path);
                let cs = model.compress(path).expect("compress");
                prop_assert_eq!(&model.decode_sp_form(&cs).expect("decode"), &spc, "{:?}", backend);
                prop_assert_eq!(&model.decompress(&cs).expect("decompress"), path);
            }
        }
    }
}
