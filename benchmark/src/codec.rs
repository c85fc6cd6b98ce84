//! The codec stage, the paper's Fig. 13 path: `Press::compress_batch`
//! over a batch of trajectories, then `Press::decompress` of every
//! result. Compression asks the shortest-path layer for distances and
//! `SPend`; decompression walks `sp_interior` paths — the same layer
//! used two ways.

use crate::clock::{timed, Sample, Series};
use crate::fixture::{secs, NSTD_BOUND_S, TSND_BOUND_M};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Recorder, Twins, TWIN_REPS};
use crate::traced_sp::{aggregate_sp, Family, SpCounts, TracedSp};
use press_core::{
    btc_compress, nstd, tsnd, CompressedTrajectory, Press, SpatialPath, TemporalSequence,
    Trajectory,
};
use press_network::{EdgeId, NodeId, SpProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Slack for the BTC bounds: the compressor keeps the deviation at or
/// under the bound in exact arithmetic, the check recomputes it in
/// floating point.
const BOUND_EPS: f64 = 1e-6;
/// Compress passes, and decompress passes, in each round.
const PASSES_PER_ROUND: usize = 3;
/// Random pairs for the standalone shortest-path lookup timings.
const SP_PROBE_PAIRS: usize = 10_000;

pub struct CodecStage<'a> {
    pub press: &'a Press,
    pub trajectories: &'a [Trajectory],
    pub threads: usize,
}

/// Deviation and size totals of one compressed batch, from the
/// correctness pass over every trajectory.
#[derive(Default)]
struct Verdict {
    max_tsnd: f64,
    max_nstd: f64,
    raw_bytes: usize,
    compressed_bytes: usize,
    edges: usize,
    spatial_bits: u64,
    tuples: usize,
    kept_tuples: usize,
}

/// The timings the rounds of the untraced stage collect, and the last
/// pass's outputs for the correctness checks.
#[derive(Default)]
pub struct CodecSamples {
    compress: Series,
    decompress: Series,
    compressed: Vec<CompressedTrajectory>,
    back: Vec<Trajectory>,
}

impl<'a> CodecStage<'a> {
    fn compress_pass(
        &self,
        press: &Press,
        threads: usize,
        report: &mut Report,
    ) -> (Vec<CompressedTrajectory>, Sample) {
        let (out, s) = timed(|| press.compress_batch(black_box(self.trajectories), threads));
        report.attempted += self.trajectories.len() as u64;
        match out {
            Ok(c) => (c, s),
            Err(e) => {
                report.failed += self.trajectories.len() as u64;
                report.gate(false, || format!("codec: compress_batch failed: {e}"));
                (Vec::new(), s)
            }
        }
    }

    fn decompress_pass(
        &self,
        press: &Press,
        compressed: &[CompressedTrajectory],
        report: &mut Report,
    ) -> (Vec<Trajectory>, Sample) {
        let (out, s) = timed(|| {
            compressed
                .iter()
                .map(|ct| press.decompress(black_box(ct)))
                .collect::<Vec<_>>()
        });
        report.attempted += compressed.len() as u64;
        let mut back = Vec::with_capacity(out.len());
        for r in out {
            match r {
                Ok(t) => back.push(t),
                Err(e) => {
                    report.failed += 1;
                    report.gate(false, || format!("codec: decompress failed: {e}"));
                }
            }
        }
        (back, s)
    }

    /// HSC round trip and both BTC bounds on every trajectory.
    fn verify(
        &self,
        compressed: &[CompressedTrajectory],
        back: &[Trajectory],
        report: &mut Report,
    ) -> Verdict {
        let mut v = Verdict::default();
        report.gate(
            compressed.len() == self.trajectories.len() && back.len() == compressed.len(),
            || "codec: a pass returned fewer trajectories than it was given".into(),
        );
        for (i, ((orig, ct), round)) in self
            .trajectories
            .iter()
            .zip(compressed)
            .zip(back)
            .enumerate()
        {
            report.gate(round.path == orig.path, || {
                format!("codec: trajectory {i} does not round-trip through HSC")
            });
            let dev_m = tsnd(&orig.temporal.points, &ct.temporal.points);
            let dev_s = nstd(&orig.temporal.points, &ct.temporal.points);
            report.gate(dev_m <= TSND_BOUND_M + BOUND_EPS && dev_s <= NSTD_BOUND_S + BOUND_EPS, || {
                format!("codec: trajectory {i} deviates {dev_m} m / {dev_s} s, beyond {TSND_BOUND_M} m / {NSTD_BOUND_S} s")
            });
            v.max_tsnd = v.max_tsnd.max(dev_m);
            v.max_nstd = v.max_nstd.max(dev_s);
            let stats = self.press.stats_vs_raw_gps(orig.temporal.len(), ct);
            v.raw_bytes += stats.original_bytes;
            v.compressed_bytes += stats.compressed_bytes;
            v.edges += orig.path.len();
            v.spatial_bits += ct.spatial.bits.len_bits();
            v.tuples += orig.temporal.len();
            v.kept_tuples += ct.temporal.len();
        }
        v
    }

    /// One round of the untraced stage: [`PASSES_PER_ROUND`] compress
    /// passes at `T` threads, then as many decompress passes on one.
    pub fn round(&self, samples: &mut CodecSamples, report: &mut Report) {
        for _ in 0..PASSES_PER_ROUND {
            let (c, s) = self.compress_pass(self.press, self.threads, report);
            samples.compress.push(s);
            samples.compressed = c;
        }
        for _ in 0..PASSES_PER_ROUND {
            let (b, s) = self.decompress_pass(self.press, &samples.compressed, report);
            samples.decompress.push(s);
            samples.back = b;
        }
    }

    /// The three codec end-to-end metrics from the rounds' samples, and
    /// the round-trip and bound checks on the last pass's outputs (every
    /// pass computes the same).
    pub fn finish(&self, samples: &CodecSamples, report: &mut Report) {
        let n = self.trajectories.len();
        report.set(
            "compress_traj_per_s",
            n as f64 / samples.compress.typical_s(),
        );
        report.set(
            "decompress_traj_per_s",
            n as f64 / samples.decompress.typical_s(),
        );
        report.note(format!(
            "codec: {n} trajectories; {} steady compress passes at {} threads (wall median {:.1} ms), {} steady decompress passes on one ({:.1} ms)",
            samples.compress.counts(),
            self.threads,
            samples.compress.wall_s() * 1e3,
            samples.decompress.counts(),
            samples.decompress.wall_s() * 1e3
        ));
        let v = self.verify(&samples.compressed, &samples.back, report);
        report.set(
            "compression_ratio",
            v.raw_bytes as f64 / v.compressed_bytes as f64,
        );
    }

    /// The two halves of `Press::compress` called one by one over the
    /// batch, on one thread, each under its own span.
    fn compress_halves(
        &self,
        press: &Press,
        rec: &mut Recorder,
        sp: Option<&TracedSp>,
    ) -> (Vec<CompressedTrajectory>, f64) {
        let config = press.config();
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(self.trajectories.len());
        for (i, traj) in self.trajectories.iter().enumerate() {
            let whole = rec.enter("core.press.compress", i as u64);
            let span = rec.enter("core.hsc.compress", i as u64);
            let before = sp.map(TracedSp::counts);
            let spatial = press
                .model()
                .compress_with(&traj.path.edges, config.decomposer)
                .expect("HSC compress");
            aggregate_sp(rec, sp, before);
            rec.exit(span);
            let span = rec.enter("core.btc.compress", i as u64);
            let kept = btc_compress(&traj.temporal.points, config.bounds);
            rec.exit(span);
            rec.exit(whole);
            out.push(CompressedTrajectory {
                spatial,
                temporal: TemporalSequence::new_unchecked(kept),
            });
        }
        (out, secs(t0))
    }

    /// `HscModel::decompress` of every result, each under its own span.
    fn decompress_each(
        &self,
        press: &Press,
        compressed: &[CompressedTrajectory],
        rec: &mut Recorder,
        sp: Option<&TracedSp>,
    ) -> (Vec<Trajectory>, f64) {
        let t0 = Instant::now();
        let mut back = Vec::with_capacity(compressed.len());
        for (i, ct) in compressed.iter().enumerate() {
            let span = rec.enter("core.hsc.decompress", i as u64);
            let before = sp.map(TracedSp::counts);
            let edges = press
                .model()
                .decompress(&ct.spatial)
                .expect("HSC decompress");
            aggregate_sp(rec, sp, before);
            rec.exit(span);
            back.push(Trajectory::new(
                SpatialPath::new_unchecked(edges),
                ct.temporal.clone(),
            ));
        }
        (back, secs(t0))
    }

    /// The traced stage. `self.press` runs over the bare provider,
    /// `traced` over `sp`.
    pub fn run_traced(
        &self,
        traced: &Press,
        sp: &TracedSp,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> Twins {
        let n = self.trajectories.len();
        let t = self.threads;
        // Pass 1 alone, then the parallel passes against one thread.
        let (reference, first_s) = self.compress_pass(self.press, t, report);
        report.set(
            "core.press.first_pass_traj_per_s",
            n as f64 / first_s.wall_s,
        );
        let at_t: Vec<f64> = (0..3)
            .map(|_| self.compress_pass(self.press, t, report).1.wall_s)
            .collect();
        let at_1: Vec<f64> = (0..3)
            .map(|_| self.compress_pass(self.press, 1, report).1.wall_s)
            .collect();
        report.set(
            "core.press.parallel_efficiency",
            median(&at_1) / (t as f64 * median(&at_t)),
        );

        // The recorded passes.
        let root = rec.enter("stage.codec", 0);
        let before = sp.counts();
        let (compressed, compress_s) = self.compress_halves(traced, rec, Some(sp));
        let sp_compress = sp.counts().since(&before);
        let before = sp.counts();
        let (back, decompress_s) = self.decompress_each(traced, &compressed, rec, Some(sp));
        let sp_decompress = sp.counts().since(&before);
        rec.exit(root);
        report.attempted += 2 * n as u64;
        report.gate(compressed == reference, || {
            "codec: compression through TracedSp differs from the bare provider".into()
        });
        let v = self.verify(&compressed, &back, report);

        // Their twins, alternating.
        let mut twins = Twins::default();
        twins.traced_s.push(compress_s + decompress_s);
        for rep in 0..TWIN_REPS {
            let off = &mut Recorder::new(false);
            let c = self.compress_halves(self.press, off, None).1;
            let d = self.decompress_each(self.press, &compressed, off, None).1;
            twins.plain_s.push(c + d);
            if rep + 1 < TWIN_REPS {
                let on = &mut Recorder::new(true);
                let c = self.compress_halves(traced, on, Some(sp)).1;
                let d = self.decompress_each(traced, &compressed, on, Some(sp)).1;
                twins.traced_s.push(c + d);
            }
            report.attempted += 4 * n as u64;
        }

        let rows = rec.rows();
        let self_s = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .map_or(0.0, |r| r.self_ns as f64 / 1e9)
        };
        let per_traj = |c: &SpCounts, f: Family| c.calls_of(f) as f64 / n as f64;
        report.set("core.hsc.compress_busy_s", self_s("core.hsc.compress"));
        report.set(
            "core.hsc.compress_us_per_edge",
            self_s("core.hsc.compress") * 1e6 / v.edges as f64,
        );
        report.set("core.hsc.decompress_busy_s", self_s("core.hsc.decompress"));
        report.set(
            "core.hsc.bits_per_edge",
            v.spatial_bits as f64 / v.edges as f64,
        );
        report.set("core.btc.compress_busy_s", self_s("core.btc.compress"));
        report.set(
            "core.btc.kept_share",
            v.kept_tuples as f64 / v.tuples as f64,
        );
        report.set("core.btc.max_tsnd_m", v.max_tsnd);
        report.set("core.btc.max_nstd_s", v.max_nstd);
        let (c, d) = (&sp_compress, &sp_decompress);
        report.set(
            "network.sp.node_dist_calls_per_traj_compress",
            per_traj(c, Family::NodeDist),
        );
        report.set(
            "network.sp.pred_edge_calls_per_traj_compress",
            per_traj(c, Family::PredEdge),
        );
        report.set(
            "network.sp.sp_interior_calls_per_traj_compress",
            per_traj(c, Family::SpInterior),
        );
        report.set(
            "network.sp.node_dist_calls_per_traj_decompress",
            per_traj(d, Family::NodeDist),
        );
        report.set(
            "network.sp.pred_edge_calls_per_traj_decompress",
            per_traj(d, Family::PredEdge),
        );
        report.set(
            "network.sp.sp_interior_calls_per_traj_decompress",
            per_traj(d, Family::SpInterior),
        );
        report.set(
            "network.sp.busy_s_compress",
            sp_compress.total_busy_ns() as f64 / 1e9,
        );
        report.set(
            "network.sp.busy_s_decompress",
            sp_decompress.total_busy_ns() as f64 / 1e9,
        );
        twins
    }
}

/// Mean cost of one distance lookup and one `sp_interior` walk over
/// seeded random pairs, on the bare provider.
pub fn probe_sp(sp: &dyn SpProvider, seed: u64, report: &mut Report) {
    let net = sp.network().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5150);
    let nodes = net.num_nodes() as u32;
    let edges = net.num_edges() as u32;
    let node_pairs: Vec<(NodeId, NodeId)> = (0..SP_PROBE_PAIRS)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..nodes)),
                NodeId(rng.gen_range(0..nodes)),
            )
        })
        .collect();
    let edge_pairs: Vec<(EdgeId, EdgeId)> = (0..SP_PROBE_PAIRS)
        .map(|_| {
            (
                EdgeId(rng.gen_range(0..edges)),
                EdgeId(rng.gen_range(0..edges)),
            )
        })
        .collect();
    let t0 = Instant::now();
    for &(u, v) in &node_pairs {
        black_box(sp.node_dist(black_box(u), black_box(v)));
    }
    report.set(
        "network.sp.node_dist_us",
        secs(t0) * 1e6 / SP_PROBE_PAIRS as f64,
    );
    let t0 = Instant::now();
    for &(a, b) in &edge_pairs {
        black_box(sp.sp_interior(black_box(a), black_box(b)));
    }
    report.set(
        "network.sp.sp_interior_us",
        secs(t0) * 1e6 / SP_PROBE_PAIRS as f64,
    );
}
