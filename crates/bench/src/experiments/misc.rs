//! Auxiliary-structure report (§5.4 / §6.2) and extra ablations the
//! paper's text motivates: training-set size sensitivity (the periodicity
//! assumption) and the angular-range vs quadratic BOPW timing claim.

use crate::setup::{Env, Scale};
use crate::table::{f2, f3, Table};
use press_core::spatial::HscModel;
use press_core::stats::{CompressionStats, StoredBytes, DT_TUPLE_BYTES};
use press_core::temporal::{bopw_compress_counted, btc_compress, BtcBounds};
use press_core::DtPoint;
use std::hint::black_box;
use std::time::Instant;

/// Auxiliary-structure sizes (the paper reports 452 MB SP table, 101 MB
/// automaton, 121 MB Huffman tree, plus 904 MB + 201 MB + 904 MB + 805 MB
/// of distances and MBRs for query support on its dataset).
pub fn aux_sizes(env: &Env) -> Table {
    let mut table = Table::new(
        "Auxiliary structures (static, built once per network + training corpus)",
        &["structure", "bytes"],
    );
    let aux = env.press.model().auxiliary_sizes();
    table.row(vec![
        format!("SP provider ({:?})", env.backend),
        aux.sp_table_bytes.to_string(),
    ]);
    table.row(vec![
        "trie + AC automaton".into(),
        aux.automaton_bytes.to_string(),
    ]);
    table.row(vec![
        "huffman code book".into(),
        aux.huffman_bytes.to_string(),
    ]);
    table.row(vec![
        "trie node distances".into(),
        aux.node_dist_bytes.to_string(),
    ]);
    table.row(vec![
        "trie node MBRs".into(),
        aux.node_mbr_bytes.to_string(),
    ]);
    table.row(vec![
        "trie node links (hidden SP gaps)".into(),
        aux.node_link_bytes.to_string(),
    ]);
    table.row(vec![
        "SPend index (pass + stop facts)".into(),
        aux.spend_index_bytes.to_string(),
    ]);
    table.row(vec!["TOTAL".into(), aux.total().to_string()]);
    table
}

/// The evaluation set's compressed form in both units: the byte model
/// `compression_ratio` is computed from, and what a corpus block stores —
/// with the stored spatial code split into its unit symbols and the gap
/// runs that let the read path do without a shortest-path layer.
pub fn stored_form(env: &Env) -> Table {
    let mut table = Table::new(
        "Compressed form: byte model vs stored bytes (evaluation set)",
        &["unit", "bytes_per_tuple", "bytes_per_trajectory"],
    );
    let compressed: Vec<_> = env
        .eval_trajectories()
        .iter()
        .map(|t| env.press.compress(t).expect("compress"))
        .collect();
    let n = compressed.len().max(1) as f64;
    let model: usize = compressed.iter().map(|c| c.storage_bytes()).sum();
    let stored: StoredBytes = compressed
        .iter()
        .map(|c| StoredBytes::of_coded(env.press.model(), c).expect("a stream this build wrote"))
        .sum();
    let run_bits = stored
        .run_bits
        .expect("every part was read under the model");
    table.row(vec![
        "byte model".into(),
        f2(DT_TUPLE_BYTES as f64),
        f2(model as f64 / n),
    ]);
    table.row(vec![
        "stored".into(),
        f2(stored.per_tuple()),
        f2(stored.per_trajectory()),
    ]);
    for (unit, bits) in [
        (
            "stored spatial: unit symbols",
            stored.spatial_bits - run_bits,
        ),
        ("stored spatial: gap runs", run_bits),
    ] {
        table.row(vec![unit.into(), "-".into(), f2(bits as f64 / 8.0 / n)]);
    }
    table
}

/// Training-set size sensitivity: the paper trains on one day out of a
/// month, assuming periodic demand. We sweep the training fraction and
/// report the spatial (FST-stage) ratio on held-out data.
pub fn train_size(env: &Env, scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: FST ratio vs training fraction (held-out evaluation)",
        &["train_fraction", "trie_nodes", "spatial_ratio"],
    );
    let fractions: &[f64] = match scale {
        Scale::Small => &[0.05, 0.15, 0.3, 0.6],
        Scale::Full => &[0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7],
    };
    let records = &env.workload.records;
    for &frac in fractions {
        let k = ((records.len() as f64 * frac) as usize).clamp(1, records.len() - 1);
        let training: Vec<Vec<press_network::EdgeId>> =
            records[..k].iter().map(|r| r.path.clone()).collect();
        let eval = &records[k.max(records.len() / 2)..];
        let model = HscModel::train(env.sp.clone(), &training, 3).expect("train");
        let mut stats = CompressionStats::default();
        for r in eval {
            let c = model.compress(&r.path).expect("compress");
            stats.accumulate(&CompressionStats::new(r.path.len() * 4, c.byte_len()));
        }
        table.row(vec![
            f2(frac),
            model.trie().num_nodes().to_string(),
            f3(stats.ratio()),
        ]);
    }
    table
}

/// Ablation: angular-range BTC (O(n)) vs quadratic BOPW — identical
/// output, asymptotically different time (§4.2's complexity claim). Beside
/// the timings, the work itself: BOPW's window checks per input tuple,
/// where BTC makes one slope-range test per tuple.
pub fn btc_vs_bopw(_env: &Env, scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: angular-range BTC vs quadratic BOPW (identical output)",
        &[
            "n_points",
            "btc_ms",
            "bopw_ms",
            "speedup",
            "bopw_checks_per_point",
        ],
    );
    let sizes: &[usize] = match scale {
        Scale::Small => &[100, 1000, 4000],
        Scale::Full => &[100, 1000, 10_000, 50_000],
    };
    let bounds = BtcBounds::new(5.0, 2.0);
    for &n in sizes {
        // A long wiggly temporal sequence that resists compression (so the
        // window keeps restarting — BOPW's bad case is long windows, the
        // common case matters too; mix both via a sine-modulated speed).
        let pts: Vec<DtPoint> = (0..n)
            .map(|i| {
                let t = i as f64;
                let d = 10.0 * t + 8.0 * (t * 0.05).sin() * t.sqrt();
                DtPoint::new(d.max(0.0), t)
            })
            .scan(0.0f64, |m, p| {
                *m = m.max(p.d);
                Some(DtPoint::new(*m, p.t))
            })
            .collect();
        let start = Instant::now();
        let fast = btc_compress(&pts, bounds);
        let btc_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let (slow, checks) = bopw_compress_counted(&pts, bounds);
        let bopw_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fast, slow, "implementations must agree");
        black_box((fast, slow));
        table.row(vec![
            n.to_string(),
            f3(btc_ms),
            f3(bopw_ms),
            f2(bopw_ms / btc_ms.max(1e-9)),
            f2(checks as f64 / n as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn env() -> &'static Env {
        static ENV: OnceLock<Env> = OnceLock::new();
        ENV.get_or_init(|| Env::standard(Scale::Small, 3))
    }

    #[test]
    fn aux_sizes_all_positive() {
        let t = aux_sizes(env());
        for row in &t.rows {
            let v: usize = row[1].parse().unwrap();
            assert!(v > 0, "{row:?}");
        }
    }

    #[test]
    fn stored_form_is_reported_beside_the_byte_model() {
        let t = stored_form(env());
        assert_eq!(t.rows[0][1], "8.00");
        let stored: f64 = t.rows[1][1].parse().unwrap();
        assert!(stored > 0.0 && stored < 16.0, "{stored} B per stored tuple");
        // The spatial split: both parts present, and inside the total.
        let per_traj = |r: usize| t.rows[r][2].parse::<f64>().unwrap();
        assert!(per_traj(2) > 0.0 && per_traj(3) > 0.0, "{:?}", t.rows);
        assert!(per_traj(2) + per_traj(3) < per_traj(1), "{:?}", t.rows);
    }

    #[test]
    fn train_size_more_data_never_much_worse() {
        let t = train_size(env(), Scale::Small);
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last >= first * 0.85,
            "more training data should roughly help: {first} -> {last}"
        );
    }

    /// The speedup, asserted on the work behind it rather than on the
    /// clock (a timed ratio is at the mercy of the machine): at n = 4000
    /// BOPW re-checks more than four skipped tuples per input tuple, where
    /// BTC makes one slope-range test per tuple.
    #[test]
    fn btc_beats_bopw_at_scale() {
        let t = btc_vs_bopw(env(), Scale::Small);
        let last = t.rows.last().unwrap();
        assert_eq!(last[0], "4000");
        let checks_per_point: f64 = last[4].parse().unwrap();
        assert!(
            checks_per_point > 4.0,
            "BOPW must out-work BTC at scale: {checks_per_point} checks per tuple"
        );
    }
}
