//! Indexed query serving equals brute force — always.
//!
//! The synopsis index and the batch executor are pure accelerations:
//! for every corpus shape (empty, single-block, all-tied MBRs, staggered
//! time spans) and every query kind (`range`/`whenat`/`whereat`, single
//! and batched at 1/2/3/7 workers), the indexed answer must equal the
//! brute-force scan over the in-memory compressed trajectories, and the
//! indexed `range` must equal the linear directory walk bit-for-bit.

mod common;

use common::walk_from_choices;
use press::core::query::QueryEngine;
use press::core::{QueryBatch, StoreAnswer, StoreQuery, TrajectoryStore};
use press::prelude::*;
use press::workload::{query_mix, QueryMixConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a corpus of `n` trajectories. `tied` repeats one path and one
/// time span for every trajectory (all-tied MBRs and spans — the worst
/// case for any index); otherwise paths vary and starts are staggered by
/// `stagger` seconds.
fn corpus(n: usize, tied: bool, stagger: f64, seed: u64) -> (Press, Vec<CompressedTrajectory>) {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 5,
        ny: 5,
        spacing: 120.0,
        weight_jitter: 0.1,
        removal_prob: 0.0,
        seed,
    }));
    let sp = SpBackend::Dense.build(net.clone());
    let mut training = Vec::new();
    for s in 0..20u64 {
        let choices: Vec<u8> = (0..12)
            .map(|i| ((s * 7 + i * 3 + seed) % 5) as u8)
            .collect();
        let p = walk_from_choices(&net, (s * 3) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let press = Press::train(sp, &training, PressConfig::default()).expect("train");
    let trajs: Vec<Trajectory> = (0..n)
        .map(|k| {
            let p = if tied {
                training[0].clone()
            } else {
                training[k % training.len()].clone()
            };
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let t0 = if tied { 0.0 } else { k as f64 * stagger };
            let pts = vec![
                DtPoint::new(0.0, t0),
                DtPoint::new(total / 2.0, t0 + 45.0),
                DtPoint::new(total, t0 + 90.0),
            ];
            Trajectory::new(
                SpatialPath::new_unchecked(p),
                TemporalSequence::new(pts).expect("temporal"),
            )
        })
        .collect();
    let compressed = trajs
        .iter()
        .map(|t| press.compress(t).expect("compress"))
        .collect();
    (press, compressed)
}

/// Brute-force oracle over the in-memory compressed corpus, with the
/// same domain-miss folding as the batch executor.
fn brute(engine: &QueryEngine<'_>, cts: &[CompressedTrajectory], q: &StoreQuery) -> StoreAnswer {
    let folded = |r: Result<StoreAnswer, PressError>| match r {
        Ok(a) => a,
        Err(PressError::OutOfDomain(msg)) => StoreAnswer::Miss(msg),
        Err(e) => panic!("oracle hit a hard error: {e}"),
    };
    match *q {
        StoreQuery::Range { t1, t2, ref region } => {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let mut hits = Vec::new();
            for (i, ct) in cts.iter().enumerate() {
                let Some((a, z)) = ct.temporal.time_range() else {
                    continue;
                };
                if z < lo || a > hi {
                    continue;
                }
                if engine.range(ct, lo, hi, region).expect("oracle range") {
                    hits.push(i);
                }
            }
            StoreAnswer::Hits(hits)
        }
        StoreQuery::WhenAt { idx, p, tolerance } => match cts.get(idx) {
            None => StoreAnswer::Miss(String::new()),
            Some(ct) => folded(engine.whenat(ct, p, tolerance).map(StoreAnswer::Time)),
        },
        StoreQuery::WhereAt { idx, t } => match cts.get(idx) {
            None => StoreAnswer::Miss(String::new()),
            Some(ct) => folded(engine.whereat(ct, t).map(StoreAnswer::Position)),
        },
    }
}

/// Collapses miss messages: the store's fast-reject paths may phrase a
/// miss differently from the in-memory engine; *that* a query misses is
/// the contract, the wording is not.
fn canon(a: &StoreAnswer) -> StoreAnswer {
    match a {
        StoreAnswer::Miss(_) => StoreAnswer::Miss(String::new()),
        other => other.clone(),
    }
}

/// The mixed query workload for a corpus of `n` trajectories observed
/// within `[0, t_max]`, plus hand-picked edge probes (out-of-range ids,
/// reversed/degenerate windows, far-future windows).
fn queries_for(n: usize, seed: u64, t_max: f64) -> Vec<StoreQuery> {
    let mut qs = query_mix(&QueryMixConfig {
        num_queries: 40,
        seed,
        range_fraction: if n == 0 { 1.0 } else { 0.5 },
        bbox: Mbr::new(0.0, 0.0, 600.0, 600.0),
        t_min: 0.0,
        t_max,
        window_fraction: 0.05,
        region_fraction: 0.4,
        miss_fraction: 0.25,
        hotspot_fraction: 0.3,
        hotspot_pool: 4,
        num_trajectories: n.max(1),
    });
    let region = Mbr::new(0.0, 0.0, 600.0, 600.0);
    qs.push(StoreQuery::Range {
        t1: 500.0,
        t2: 100.0, // reversed window
        region,
    });
    qs.push(StoreQuery::Range {
        t1: 42.0,
        t2: 42.0, // zero-width window
        region,
    });
    qs.push(StoreQuery::Range {
        t1: 1e12,
        t2: 2e12, // far future: index answers without decoding
        region,
    });
    qs.push(StoreQuery::WhereAt { idx: n + 3, t: 0.0 }); // out-of-range id
    qs.push(StoreQuery::WhenAt {
        idx: n + 3,
        p: Point::new(0.0, 0.0),
        tolerance: 10.0,
    });
    qs
}

fn check_store(
    press: &Press,
    cts: &[CompressedTrajectory],
    block_size: usize,
    seed: u64,
    t_max: f64,
) -> TrajectoryStore {
    let engine = QueryEngine::new(press.model());
    let store = TrajectoryStore::from_store_bytes(
        TrajectoryStore::to_store_bytes(&engine, cts, block_size).expect("store bytes"),
    )
    .expect("store load");
    assert_eq!(store.len(), cts.len());
    let qs = queries_for(cts.len(), seed, t_max);
    let batch = QueryBatch::from_queries(qs.clone());
    let reference = batch.run(&store, &engine, 1).expect("batch");
    // 1 worker == 2 == 3 == 7, bit-for-bit.
    for threads in [2usize, 3, 7] {
        assert_eq!(
            batch.run(&store, &engine, threads).expect("batch"),
            reference,
            "{threads} workers diverged"
        );
    }
    for (q, got) in qs.iter().zip(&reference) {
        // Batched indexed answer equals the brute-force oracle.
        assert_eq!(canon(got), canon(&brute(&engine, cts, q)), "query {q:?}");
        // And the indexed range equals the linear directory walk exactly.
        if let StoreQuery::Range { t1, t2, region } = q {
            assert_eq!(
                store.range(&engine, *t1, *t2, region).expect("indexed"),
                store
                    .range_linear(&engine, *t1, *t2, region)
                    .expect("linear"),
                "indexed vs linear range diverged for {q:?}"
            );
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random corpora × random block sizes × degenerate switches: every
    /// indexed query (single and batched, 1/2/3/7 workers) equals brute
    /// force.
    #[test]
    fn indexed_serving_equals_brute_force(
        n in 0usize..24,
        block_size in 1usize..9,
        tied in 0u8..2,
        stagger_sel in 0u8..3,
        seed in 0u64..200,
    ) {
        let stagger = [0.0, 30.0, 400.0][stagger_sel as usize];
        let (press, cts) = corpus(n, tied == 1, stagger, seed);
        check_store(&press, &cts, block_size, seed, 1500.0);
    }
}

/// The empty store: still loads, still answers every query kind.
#[test]
fn empty_store_serves() {
    let (press, cts) = corpus(0, false, 0.0, 3);
    check_store(&press, &cts, 4, 3, 1500.0);
}

/// Single-block store (block_size > n): the hierarchy is one leaf.
#[test]
fn single_block_store_serves() {
    let (press, cts) = corpus(7, false, 120.0, 5);
    check_store(&press, &cts, 64, 5, 1500.0);
}

/// All-tied MBRs and time spans: the index can skip nothing, but must
/// still answer exactly.
#[test]
fn all_tied_corpus_serves() {
    let (press, cts) = corpus(18, true, 0.0, 8);
    check_store(&press, &cts, 3, 8, 1500.0);
}

/// A corpus deep enough that the hierarchy has interior levels above
/// interior levels: the same few routes showing up across the day at
/// 30 s offsets, so blocks are clustered in time the way ingest lays
/// them down, probed across the whole horizon. Every pruned subtree must
/// hold no answer.
#[test]
fn four_level_index_serves() {
    let n = 8300;
    let (press, cts) = corpus(n, false, 30.0, 11);
    let store = check_store(&press, &cts, 2, 11, n as f64 * 30.0 + 90.0);
    assert!(store.synopsis_index().num_levels() >= 4);
    let (decoded, skipped) = store.io_stats();
    assert!(
        skipped > 10 * decoded,
        "selective probes must skip most blocks ({decoded} decoded, {skipped} skipped)"
    );
}
