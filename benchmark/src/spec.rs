//! The benchmark's declaration: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to a file (a unit test
//! holds the two equal), so the program and the file the driver reads
//! cannot disagree.

use crate::json;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer; no bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "fleet_ingest",
        why: "write path: a large noisy 1 s GPS fleet, so map matching and press-serve do nearly all the work",
    },
    WorkloadDecl {
        name: "batch_compress",
        why: "codec path: a large compress/decompress batch, so SP lookups and HSC/BTC do nearly all the work",
    },
    WorkloadDecl {
        name: "query_selective",
        why: "read path with narrow probes and hotspots, so index descent and single-block decode dominate",
    },
    WorkloadDecl {
        name: "query_scan",
        why: "read path with wide probes the index cannot prune, so block decode and range evaluation dominate",
    },
];

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Scaled timings (see [`crate::clock`]) spread 1–10 % over ten runs on
/// a two-core shared box, and by a quarter in an hour the neighbours
/// never let go, so every timed metric keeps the contract's widest
/// bound; the sizes and the memory peak repeat to a percent or two.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("ingest_fixes_per_s", "1/s", Higher, 0.25),
    e2e("push_fixes_per_s", "1/s", Higher, 0.25),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("stored_bytes_per_fix", "B", Lower, 0.05),
    e2e("compress_traj_per_s", "1/s", Higher, 0.25),
    e2e("decompress_traj_per_s", "1/s", Higher, 0.25),
    e2e("compression_ratio", "x", Higher, 0.05),
    e2e("query_qps", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("cold_first_answer_ms", "ms", Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 70] = [
    // press-serve
    layer("serve.push_p50_us", "us", Lower),
    layer("serve.push_p999_us", "us", Lower),
    layer("serve.push_max_us", "us", Lower),
    layer("serve.push_busy_s", "s", Lower),
    layer("serve.sync_calls", "count", Lower),
    layer("serve.avg_sync_batch", "count", Higher),
    layer("serve.wal_bytes_per_fix", "B", Lower),
    layer("serve.finalize_s", "s", Lower),
    layer("serve.flush_busy_s", "s", Lower),
    layer("serve.flush_self_s", "s", Lower),
    layer("serve.checkpoint_ms", "ms", Lower),
    layer("serve.checkpoint_bytes", "B", Lower),
    layer("serve.reopen_clean_ms", "ms", Lower),
    layer("serve.replay_fixes_per_s", "1/s", Higher),
    layer("serve.quarantined", "count", Lower),
    layer("serve.segments_dropped", "count", Lower),
    layer("serve.io_retries", "count", Lower),
    layer("serve.sessions_evicted", "count", Lower),
    // press-matcher
    layer("matcher.match_busy_s", "s", Lower),
    layer("matcher.fixes_per_s", "1/s", Higher),
    layer("matcher.matched_share", "share", Higher),
    layer("matcher.salvage_pieces", "count", Lower),
    // press-core codec
    layer("core.hsc.compress_busy_s", "s", Lower),
    layer("core.hsc.compress_us_per_edge", "us", Lower),
    layer("core.hsc.decompress_busy_s", "s", Lower),
    layer("core.hsc.bits_per_edge", "bit", Lower),
    layer("core.hsc.model_load_ms", "ms", Lower),
    layer("core.btc.compress_busy_s", "s", Lower),
    layer("core.btc.kept_share", "share", Lower),
    layer("core.btc.max_tsnd_m", "m", Lower),
    layer("core.btc.max_nstd_s", "s", Lower),
    layer("core.press.train_s", "s", Lower),
    layer("core.press.first_pass_traj_per_s", "1/s", Higher),
    layer("core.press.parallel_efficiency", "share", Higher),
    // press-network shortest paths, seen through TracedSp
    layer(
        "network.sp.node_dist_calls_per_traj_compress",
        "count",
        Lower,
    ),
    layer(
        "network.sp.node_dist_calls_per_traj_decompress",
        "count",
        Lower,
    ),
    layer(
        "network.sp.pred_edge_calls_per_traj_compress",
        "count",
        Lower,
    ),
    layer(
        "network.sp.pred_edge_calls_per_traj_decompress",
        "count",
        Lower,
    ),
    layer(
        "network.sp.sp_interior_calls_per_traj_compress",
        "count",
        Lower,
    ),
    layer(
        "network.sp.sp_interior_calls_per_traj_decompress",
        "count",
        Lower,
    ),
    layer("network.sp.busy_s_compress", "s", Lower),
    layer("network.sp.busy_s_decompress", "s", Lower),
    layer("network.sp.busy_s_query", "s", Lower),
    layer("network.sp.node_dist_us", "us", Lower),
    layer("network.sp.sp_interior_us", "us", Lower),
    layer("network.sp.resident_mb", "MiB", Lower),
    layer("network.sp.build_s", "s", Lower),
    layer("network.sp.open_mapped_ms", "ms", Lower),
    layer("network.graph.load_ms", "ms", Lower),
    // press-core store, press-store index, query engine, batch executor
    layer("core.store.create_s", "s", Lower),
    layer("core.store.create_mb_per_s", "MiB/s", Higher),
    layer("core.store.open_mapped_ms", "ms", Lower),
    layer("core.store.blocks_decoded_per_query", "count", Lower),
    layer("core.store.blocks_skipped_share", "share", Higher),
    layer("core.store.get_us", "us", Lower),
    layer("core.store.decode_busy_s", "s", Lower),
    layer("store.index.candidates_us", "us", Lower),
    layer("store.index.candidates_per_probe", "count", Lower),
    layer("store.index.useful_share", "share", Higher),
    layer("store.index.busy_s", "s", Lower),
    layer("core.query.range_p50_us", "us", Lower),
    layer("core.query.range_p99_us", "us", Lower),
    layer("core.query.whenat_p50_us", "us", Lower),
    layer("core.query.whereat_p50_us", "us", Lower),
    layer("core.query.eval_us_per_candidate", "us", Lower),
    layer("core.query.eval_busy_s", "s", Lower),
    layer("core.batch.parallel_efficiency", "share", Higher),
    // the traced run itself
    layer("trace.overhead_share", "share", Lower),
    layer("trace.coverage_share", "share", Higher),
    layer("trace.spans", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDecl> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exact content of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"press-benchmark\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json::string(w.name),
            json::string(w.why),
            comma(i, WORKLOADS.len())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.as_str()),
            json::number(m.bound),
            comma(i, END_TO_END.len())
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.as_str()),
            comma(i, PER_LAYER.len())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn every_name_and_unit_meets_the_contract_and_is_used_once() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(json::valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit:?}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for w in &WORKLOADS {
            assert!(json::valid_name(w.name));
            assert!(seen.insert(w.name), "{} declared twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn bounds_stay_inside_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_this_declaration() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
