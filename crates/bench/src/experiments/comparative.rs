//! Cross-system comparisons: Fig. 13 (compression / decompression time vs
//! dataset size) and Fig. 14 (compression ratio vs TSED incl. ZIP/RAR).

use crate::setup::{Env, Scale};
use crate::table::{f2, f3, Table};
use press_baselines::{mmtc, nonmaterial, rarx, zipx};
use press_core::stats::{raw_gps_bytes, CompressionStats};
use press_core::temporal::BtcBounds;
use press_core::{PressConfig, Trajectory};
use press_workload::gps_to_csv;
use std::hint::black_box;
use std::time::Instant;

/// Fig. 13: wall-clock compression and decompression time vs the number of
/// trajectories (log-spaced sizes). The paper's orderings to reproduce:
/// MMTC ≫ Nonmaterial > PRESS for compression (MMTC ≈ 196× PRESS,
/// PRESS ≈ 0.72× Nonmaterial), MMTC not applicable for decompression.
pub fn fig13(env: &Env, scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13: compression / decompression time vs #trajectories (ms)",
        &[
            "n_traj",
            "press_comp",
            "nonmat_comp",
            "mmtc_comp",
            "press_decomp",
            "nonmat_decomp",
        ],
    );
    let sizes: &[usize] = match scale {
        Scale::Small => &[1, 10, 100, 400],
        Scale::Full => &[1, 10, 100, 1000, 4000],
    };
    let base = env.eval_trajectories();
    for &n in sizes {
        // Cycle the evaluation set up to the requested size.
        let dataset: Vec<&Trajectory> = (0..n).map(|i| &base[i % base.len()]).collect();
        // PRESS compression.
        let start = Instant::now();
        let press_out: Vec<_> = dataset
            .iter()
            .map(|t| env.press.compress(t).expect("press"))
            .collect();
        let press_comp = start.elapsed().as_secs_f64() * 1e3;
        // Nonmaterial compression.
        let nm_cfg = nonmaterial::NonmaterialConfig { tolerance: 0.0 };
        let start = Instant::now();
        let nm_out: Vec<_> = dataset
            .iter()
            .map(|t| nonmaterial::compress(&env.sp, t, &nm_cfg))
            .collect();
        let nm_comp = start.elapsed().as_secs_f64() * 1e3;
        // MMTC compression (the slow one).
        let mmtc_cfg = mmtc::MmtcConfig::default();
        let start = Instant::now();
        for t in &dataset {
            black_box(mmtc::compress(&env.sp, t, &mmtc_cfg));
        }
        let mmtc_comp = start.elapsed().as_secs_f64() * 1e3;
        // PRESS decompression (spatial expansion; temporal needs none).
        let start = Instant::now();
        for c in &press_out {
            black_box(env.press.decompress(c).expect("decompress"));
        }
        let press_decomp = start.elapsed().as_secs_f64() * 1e3;
        // Nonmaterial decompression (uniform-speed reconstruction).
        let start = Instant::now();
        for c in &nm_out {
            black_box(nonmaterial::decompress(c));
        }
        let nm_decomp = start.elapsed().as_secs_f64() * 1e3;
        table.row(vec![
            n.to_string(),
            f2(press_comp),
            f2(nm_comp),
            f2(mmtc_comp),
            f2(press_decomp),
            f2(nm_decomp),
        ]);
    }
    table
}

/// TSED budgets swept by Fig. 14 (meters).
pub fn tsed_values(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Small => vec![0.0, 200.0, 600.0, 1000.0],
        Scale::Full => (0..=10).map(|k| k as f64 * 100.0).collect(),
    }
}

/// Fig. 14: overall compression ratio vs TSED for PRESS / MMTC /
/// Nonmaterial, plus the (TSED-independent) ZIP-like and RAR-like
/// reference ratios.
///
/// Axis mapping for PRESS: Theorem 2 gives
/// TSND ≥ TSED, so bounding TSND at the TSED budget is conservative —
/// τ = TSED and η = TSED / mean-speed. For Nonmaterial the tolerance *is*
/// a synchronized network distance; for MMTC the length-deviation budget
/// is TSED relative to the mean trip length.
pub fn fig14(env: &Env, scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 14: compression ratio vs TSED (m); ZIP/RAR reference rows last",
        &["tsed_m", "press", "mmtc", "nonmaterial"],
    );
    let trajs = env.eval_trajectories();
    let raw_bytes: usize = trajs.iter().map(|t| raw_gps_bytes(t.temporal.len())).sum();
    let mean_speed = env.mean_speed();
    let mean_trip_len: f64 = env
        .workload
        .records
        .iter()
        .map(|r| r.profile.total_distance())
        .sum::<f64>()
        / env.workload.records.len().max(1) as f64;
    for tsed in tsed_values(scale) {
        // PRESS at (tau, eta) mapped from the TSED budget.
        let press = env.press.reconfigured(PressConfig {
            bounds: BtcBounds::new(tsed, tsed / mean_speed.max(0.1)),
            ..PressConfig::default()
        });
        let mut press_stats = CompressionStats::default();
        for t in &trajs {
            let c = press.compress(t).expect("press");
            press_stats.accumulate(&CompressionStats::new(
                raw_gps_bytes(t.temporal.len()),
                c.storage_bytes(),
            ));
        }
        // MMTC.
        let mmtc_cfg = mmtc::MmtcConfig {
            epsilon_rel: (tsed / mean_trip_len.max(1.0)).min(0.9),
            ..mmtc::MmtcConfig::default()
        };
        let mmtc_bytes: usize = trajs
            .iter()
            .map(|t| mmtc::compress(&env.sp, t, &mmtc_cfg).storage_bytes())
            .sum();
        // Nonmaterial.
        let nm_cfg = nonmaterial::NonmaterialConfig { tolerance: tsed };
        let nm_bytes: usize = trajs
            .iter()
            .map(|t| nonmaterial::compress(&env.sp, t, &nm_cfg).storage_bytes())
            .sum();
        table.row(vec![
            f2(tsed),
            f3(press_stats.ratio()),
            f3(raw_bytes as f64 / mmtc_bytes.max(1) as f64),
            f3(raw_bytes as f64 / nm_bytes.max(1) as f64),
        ]);
    }
    table
}

/// The §6.1 ZIP/RAR reference: generic byte compression of the raw GPS
/// dataset (lossless, zero queryability).
pub fn zip_rar_reference(env: &Env) -> Table {
    let mut table = Table::new(
        "ZIP-like / RAR-like reference (lossless compression of the CSV GPS log)",
        &["codec", "raw_bytes", "packed_bytes", "ratio"],
    );
    // Real fleet datasets ship as text logs and the paper compresses its
    // full 13.2 GB corpus, so the reference input is the CSV serialization
    // of the *whole* workload at a dense (5 s) sampling interval —
    // corpus-scale, where the archivers' model headers amortize.
    let mut raw = Vec::new();
    for r in &env.workload.records {
        let gps = r.gps_trace(&env.net, 5.0, env.workload.config.gps_noise);
        raw.extend(gps_to_csv(&gps));
    }
    let zip = zipx::compress(&raw);
    let rar = rarx::compress(&raw);
    table.row(vec![
        "zipx".into(),
        raw.len().to_string(),
        zip.len().to_string(),
        f3(raw.len() as f64 / zip.len().max(1) as f64),
    ]);
    table.row(vec![
        "rarx".into(),
        raw.len().to_string(),
        rar.len().to_string(),
        f3(raw.len() as f64 / rar.len().max(1) as f64),
    ]);
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
    fn fig13_orderings_hold() {
        let t = fig13(env(), Scale::Small);
        // At the largest size, MMTC must be the slowest compressor by a
        // wide margin and PRESS must not be slower than Nonmaterial by
        // more than 2x (the paper has PRESS faster; we allow slack for
        // timer noise on tiny datasets).
        let last = t.rows.last().unwrap();
        let press: f64 = last[1].parse().unwrap();
        let nonmat: f64 = last[2].parse().unwrap();
        let mmtc: f64 = last[3].parse().unwrap();
        assert!(
            mmtc > press * 5.0,
            "MMTC must be much slower than PRESS: {mmtc} vs {press}"
        );
        assert!(
            mmtc > nonmat,
            "MMTC must be slower than Nonmaterial: {mmtc} vs {nonmat}"
        );
    }

    #[test]
    fn fig14_press_wins_and_grows() {
        let t = fig14(env(), Scale::Small);
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        let press0: f64 = first[1].parse().unwrap();
        let press_hi: f64 = last[1].parse().unwrap();
        let mmtc_hi: f64 = last[2].parse().unwrap();
        let nm_hi: f64 = last[3].parse().unwrap();
        assert!(press_hi > press0, "ratio must grow with TSED");
        assert!(
            press_hi > mmtc_hi && press_hi > nm_hi,
            "PRESS must win at high TSED: press {press_hi}, mmtc {mmtc_hi}, nm {nm_hi}"
        );
    }

    #[test]
    fn zip_rar_reference_orders() {
        let t = zip_rar_reference(env());
        let zip: f64 = t.rows[0][3].parse().unwrap();
        let rar: f64 = t.rows[1][3].parse().unwrap();
        assert!(zip > 1.0, "zipx must compress: {zip}");
        assert!(rar >= zip, "rarx must not lose to zipx: {rar} vs {zip}");
    }
}
