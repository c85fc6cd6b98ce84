//! The read stage: query → answer over a mapped corpus, and cold
//! process → first answer. Single-client latency comes from timing each
//! `TrajectoryStore::{range, whenat, whereat}` call; throughput from
//! `QueryBatch::run`.

use crate::clock::{calibrate, timed, Sample, Series};
use crate::fixture::{self, secs, BLOCK_SIZE};
use crate::report::Report;
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::{Recorder, Twins, TWIN_REPS};
use crate::traced_sp::{aggregate_sp, TracedSp};
use press_core::query::QueryEngine;
use press_core::{
    CompressedTrajectory, Press, PressError, QueryBatch, StoreAnswer, StoreQuery, TrajectoryStore,
};
use press_store::{crc32, IndexEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Cold opens timed in each round.
const COLD_OPENS_PER_ROUND: usize = 5;
/// The single-client pass calibrates the clock after this many seconds
/// of queries: often enough that a change of the box's speed spoils few
/// latencies, seldom enough that the calibrations stay a tenth of the
/// pass.
const CALIBRATE_EVERY_S: f64 = 0.002;
/// Queries checked against brute force.
const BRUTE_FORCE_SAMPLE: usize = 200;
/// Range queries whose candidates are re-evaluated standalone.
const EVAL_SAMPLE: usize = 300;
/// Random `get` calls for the block-decode timing.
const GET_PROBES: usize = 2_000;

/// The artifacts a cold process opens before its first answer.
pub struct ColdPaths<'a> {
    pub network: &'a Path,
    pub hub_labels: &'a Path,
    pub model: &'a Path,
    pub corpus: &'a Path,
}

pub struct ReadStage<'a> {
    pub store: &'a TrajectoryStore,
    pub press: &'a Press,
    /// The corpus in memory, for the brute-force reference.
    pub corpus: &'a [CompressedTrajectory],
    pub queries: &'a [StoreQuery],
    /// Leading queries run once before anything is timed.
    pub warmup: usize,
    pub threads: usize,
    pub cold: ColdPaths<'a>,
}

/// Answers one query the way `QueryBatch` does: a domain miss is an
/// answer, anything else is an error.
fn answer(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    q: &StoreQuery,
) -> Result<StoreAnswer, PressError> {
    let r = match *q {
        StoreQuery::Range { t1, t2, ref region } => {
            store.range(engine, t1, t2, region).map(StoreAnswer::Hits)
        }
        StoreQuery::WhenAt { idx, p, tolerance } => store
            .whenat(engine, idx, p, tolerance)
            .map(StoreAnswer::Time),
        StoreQuery::WhereAt { idx, t } => store.whereat(engine, idx, t).map(StoreAnswer::Position),
    };
    match r {
        Err(PressError::OutOfDomain(msg)) => Ok(StoreAnswer::Miss(msg)),
        other => other,
    }
}

fn span_name(q: &StoreQuery) -> &'static str {
    match q {
        StoreQuery::Range { .. } => "core.store.range",
        StoreQuery::WhenAt { .. } => "core.store.whenat",
        StoreQuery::WhereAt { .. } => "core.store.whereat",
    }
}

fn probe_of(t1: f64, t2: f64, region: &press_network::Mbr) -> IndexEntry {
    let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
    IndexEntry::new(
        region.min_x,
        region.min_y,
        region.max_x,
        region.max_y,
        lo,
        hi,
    )
}

/// The timings the rounds of the untraced stage collect, and what they
/// are checked against.
pub struct ReadSamples {
    batch: QueryBatch,
    first: StoreQuery,
    warm: StoreAnswer,
    cold: Series,
    /// Each query's latencies over the single-client passes.
    latency: Vec<Series>,
    batch_passes: Series,
    answers: Vec<StoreAnswer>,
}

impl<'a> ReadStage<'a> {
    /// One single-client closed-loop pass; returns the answers and each
    /// call's latency. With `scaled`, the clock is calibrated every
    /// [`CALIBRATE_EVERY_S`] of queries and the latencies in between are
    /// scaled by the calibrations around them; without, they are wall
    /// time. Errors count as failed operations and leave a `Miss` in the
    /// answer vector.
    fn single_pass(
        &self,
        engine: &QueryEngine<'_>,
        rec: &mut Recorder,
        sp: Option<&TracedSp>,
        scaled: bool,
        report: &mut Report,
    ) -> (Vec<StoreAnswer>, Vec<Sample>) {
        let n = self.queries.len();
        let mut answers = Vec::with_capacity(n);
        let mut latency: Vec<Sample> = Vec::with_capacity(n);
        // The queries since the last calibration, and that calibration.
        let (mut pending, mut pending_s) = (0, 0.0);
        let mut speed = if scaled { calibrate() } else { 0.0 };
        for (i, q) in self.queries.iter().enumerate() {
            let t0 = Instant::now();
            let span = rec.enter(span_name(q), i as u64);
            let before = sp.map(TracedSp::counts);
            let a = answer(self.store, engine, black_box(q));
            aggregate_sp(rec, sp, before);
            rec.exit(span);
            let wall_s = secs(t0);
            latency.push(Sample {
                wall_s,
                scaled_s: wall_s,
                steady: true,
            });
            pending_s += wall_s;
            if scaled && (pending_s >= CALIBRATE_EVERY_S || i + 1 == n) {
                let after = calibrate();
                for s in &mut latency[pending..] {
                    *s = Sample::new(s.wall_s, speed, after);
                }
                (pending, pending_s, speed) = (i + 1, 0.0, after);
            }
            answers.push(a.unwrap_or_else(|e| {
                report.failed += 1;
                report.gate(false, || format!("read: query {i} failed: {e}"));
                StoreAnswer::Miss(e.to_string())
            }));
        }
        report.attempted += n as u64;
        (answers, latency)
    }

    fn batch_pass(
        &self,
        batch: &QueryBatch,
        engine: &QueryEngine<'_>,
        threads: usize,
        report: &mut Report,
    ) -> (Vec<StoreAnswer>, Sample) {
        let (out, s) = timed(|| batch.run(self.store, engine, threads));
        report.attempted += batch.len() as u64;
        (
            out.unwrap_or_else(|e| {
                report.failed += batch.len() as u64;
                report.gate(false, || format!("read: batch failed: {e}"));
                Vec::new()
            }),
            s,
        )
    }

    /// The reference answer computed on the in-memory corpus, without
    /// the store, its index or its blocks.
    fn brute_force(
        &self,
        engine: &QueryEngine<'_>,
        q: &StoreQuery,
    ) -> Result<StoreAnswer, PressError> {
        let out_of_range =
            |idx: usize| PressError::OutOfDomain(format!("trajectory {idx} out of range"));
        let r = match *q {
            StoreQuery::Range { t1, t2, ref region } => {
                let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                let mut hits = Vec::new();
                for (i, ct) in self.corpus.iter().enumerate() {
                    let overlaps = ct
                        .temporal
                        .time_range()
                        .is_some_and(|(a, z)| z >= lo && a <= hi);
                    if overlaps && engine.range(ct, lo, hi, region)? {
                        hits.push(i);
                    }
                }
                Ok(StoreAnswer::Hits(hits))
            }
            StoreQuery::WhenAt { idx, p, tolerance } => self
                .corpus
                .get(idx)
                .ok_or_else(|| out_of_range(idx))
                .and_then(|ct| engine.whenat(ct, p, tolerance))
                .map(StoreAnswer::Time),
            StoreQuery::WhereAt { idx, t } => self
                .corpus
                .get(idx)
                .ok_or_else(|| out_of_range(idx))
                .and_then(|ct| engine.whereat(ct, t))
                .map(StoreAnswer::Position),
        };
        match r {
            Err(PressError::OutOfDomain(msg)) => Ok(StoreAnswer::Miss(msg)),
            other => other,
        }
    }

    /// A strided sample of the queries against brute force, and every
    /// range query of the sample against `range_linear`. A miss only has
    /// to be a miss on both sides: the store and the engine word the
    /// reason differently.
    fn verify_sample(
        &self,
        engine: &QueryEngine<'_>,
        answers: &[StoreAnswer],
        report: &mut Report,
    ) {
        let stride = (self.queries.len() / BRUTE_FORCE_SAMPLE).max(1);
        for (i, q) in self.queries.iter().enumerate().step_by(stride) {
            let same = match (self.brute_force(engine, q), &answers[i]) {
                (Ok(StoreAnswer::Miss(_)), StoreAnswer::Miss(_)) => true,
                (Ok(expected), got) => expected == *got,
                (Err(_), _) => false,
            };
            report.gate(same, || {
                format!("read: query {i} ({q:?}) differs from brute force")
            });
            if let StoreQuery::Range { t1, t2, ref region } = *q {
                let linear = self
                    .store
                    .range_linear(engine, t1, t2, region)
                    .map(StoreAnswer::Hits);
                report.gate(linear.as_ref().ok() == Some(&answers[i]), || {
                    format!("read: query {i} differs from range_linear")
                });
            }
        }
    }

    /// The `whereat` a cold open answers first.
    fn first_query(&self) -> StoreQuery {
        self.queries
            .iter()
            .find(|q| matches!(q, StoreQuery::WhereAt { .. }))
            .cloned()
            .unwrap_or_else(|| StoreQuery::WhereAt {
                idx: 0,
                t: self.corpus[0].temporal.time_range().map_or(0.0, |r| r.0),
            })
    }

    /// Fresh open of every artifact, then one `whereat`.
    fn cold_first_answer(
        &self,
        first: &StoreQuery,
        warm: &StoreAnswer,
        report: &mut Report,
    ) -> Sample {
        let (answer, sample) = timed(|| {
            let net = fixture::load_network(self.cold.network);
            let sp = fixture::open_hub_labels(&net, self.cold.hub_labels);
            let press = fixture::load_model(&sp, self.cold.model);
            let store = fixture::open_store(self.cold.corpus);
            answer(&store, &QueryEngine::new(press.model()), first)
        });
        report.attempted += 1;
        report.gate(answer.as_ref().ok() == Some(warm), || {
            "read: the first answer of a cold open differs from the warm store's".into()
        });
        sample
    }

    /// Before the first round: the warm-up pass, and the warm answer the
    /// cold opens are checked against.
    pub fn warm_up(&self, report: &mut Report) -> ReadSamples {
        let engine = QueryEngine::new(self.press.model());
        let warmup =
            QueryBatch::from_queries(self.queries[..self.warmup.min(self.queries.len())].to_vec());
        self.batch_pass(&warmup, &engine, self.threads, report);
        let first = self.first_query();
        let warm =
            answer(self.store, &engine, &first).expect("the first query answers on the warm store");
        ReadSamples {
            batch: QueryBatch::from_queries(self.queries.to_vec()),
            first,
            warm,
            cold: Series::default(),
            latency: vec![Series::default(); self.queries.len()],
            batch_passes: Series::default(),
            answers: Vec::new(),
        }
    }

    /// One round of the untraced stage: [`COLD_OPENS_PER_ROUND`] cold
    /// opens, one single-client pass, one batch pass.
    pub fn round(&self, samples: &mut ReadSamples, report: &mut Report) {
        let engine = QueryEngine::new(self.press.model());
        for _ in 0..COLD_OPENS_PER_ROUND {
            let sample = self.cold_first_answer(&samples.first, &samples.warm, report);
            samples.cold.push(sample);
        }
        let (answers, latency) =
            self.single_pass(&engine, &mut Recorder::new(false), None, true, report);
        for (series, sample) in samples.latency.iter_mut().zip(latency) {
            series.push(sample);
        }
        if samples.answers.is_empty() {
            samples.answers = answers;
        } else {
            report.gate(samples.answers == answers, || {
                "read: two single-client passes gave different answers".into()
            });
        }
        let (batch_answers, s) = self.batch_pass(&samples.batch, &engine, self.threads, report);
        samples.batch_passes.push(s);
        report.gate(batch_answers == samples.answers, || {
            "read: QueryBatch answers differ from the single client's".into()
        });
    }

    /// The four read-path end-to-end metrics from the rounds' samples.
    /// Returns the CRC32 of the answers.
    pub fn finish(&self, samples: &ReadSamples, report: &mut Report) -> u32 {
        let n = self.queries.len();
        // The latency distribution is over the queries, each at its
        // typical latency over the passes: the same rule as for every
        // other timing, applied query by query.
        let mut us: Vec<f64> = samples
            .latency
            .iter()
            .map(|series| series.typical_s() * 1e6)
            .collect();
        us.sort_by(f64::total_cmp);
        report.set("cold_first_answer_ms", samples.cold.typical_s() * 1e3);
        report.set("query_p50_us", percentile(&us, 0.5));
        report.set(
            "query_p99_us",
            percentile(&us, supported_percentile(n, 0.99)),
        );
        report.set("query_qps", n as f64 / samples.batch_passes.typical_s());
        report.note(format!(
            "read: {n} queries over {} trajectories in {} blocks; {} steady cold opens (wall median {:.1} ms; page cache warm: the sandbox's number, not a device's), {} single-client passes with the tail at p{}, {} steady batch passes at {} workers ({:.1} ms)",
            self.store.len(),
            self.store.num_blocks(),
            samples.cold.counts(),
            samples.cold.wall_s() * 1e3,
            samples.latency[0].len(),
            supported_percentile(n, 0.99) * 100.0,
            samples.batch_passes.counts(),
            self.threads,
            samples.batch_passes.wall_s() * 1e3
        ));
        self.verify_sample(
            &QueryEngine::new(self.press.model()),
            &samples.answers,
            report,
        );
        crc32(format!("{:?}", samples.answers).as_bytes())
    }

    /// The traced stage. `traced` is the compressor over `sp`.
    pub fn run_traced(
        &self,
        traced: &Press,
        sp: &TracedSp,
        rec: &mut Recorder,
        seed: u64,
        report: &mut Report,
    ) -> Twins {
        let bare = QueryEngine::new(self.press.model());
        let engine = QueryEngine::new(traced.model());
        let batch = QueryBatch::from_queries(self.queries.to_vec());
        let n = self.queries.len();
        self.batch_pass(&batch, &bare, self.threads, report);

        // The recorded single-client pass, then its twins, alternating.
        let io_before = self.store.io_stats();
        let sp_before = sp.counts();
        let root = rec.enter("stage.read", 0);
        let t0 = Instant::now();
        let (answers, _) = self.single_pass(&engine, rec, Some(sp), false, report);
        let mut twins = Twins::default();
        twins.traced_s.push(secs(t0));
        rec.exit(root);
        let io = self.store.io_stats();
        let sp_query = sp.counts().since(&sp_before);
        let (decoded, skipped) = (io.0 - io_before.0, io.1 - io_before.1);
        for rep in 0..TWIN_REPS {
            let t0 = Instant::now();
            let (plain_answers, _) =
                self.single_pass(&bare, &mut Recorder::new(false), None, false, report);
            twins.plain_s.push(secs(t0));
            report.gate(answers == plain_answers, || {
                "read: answers through TracedSp differ from the bare provider's".into()
            });
            if rep + 1 < TWIN_REPS {
                let t0 = Instant::now();
                self.single_pass(&engine, &mut Recorder::new(true), Some(sp), false, report);
                twins.traced_s.push(secs(t0));
            }
        }
        self.verify_sample(&bare, &answers, report);

        let sorted = |name: &str| {
            let mut us = rec.durations_us(name);
            us.sort_by(f64::total_cmp);
            us
        };
        // A mix without a kind reports that kind's latency as 0.
        let pct = |us: &[f64], p: f64| {
            if us.is_empty() {
                0.0
            } else {
                percentile(us, supported_percentile(us.len(), p))
            }
        };
        let range_us = sorted("core.store.range");
        report.set("core.query.range_p50_us", pct(&range_us, 0.5));
        report.set("core.query.range_p99_us", pct(&range_us, 0.99));
        report.set(
            "core.query.whenat_p50_us",
            pct(&sorted("core.store.whenat"), 0.5),
        );
        report.set(
            "core.query.whereat_p50_us",
            pct(&sorted("core.store.whereat"), 0.5),
        );
        report.set(
            "core.store.blocks_decoded_per_query",
            decoded as f64 / n as f64,
        );
        report.set(
            "core.store.blocks_skipped_share",
            skipped as f64 / (decoded + skipped).max(1) as f64,
        );
        report.set(
            "network.sp.busy_s_query",
            sp_query.total_busy_ns() as f64 / 1e9,
        );

        // The index alone: candidate sets of every range probe.
        let index = self.store.synopsis_index();
        let ranges: Vec<(usize, IndexEntry)> = self
            .queries
            .iter()
            .enumerate()
            .filter_map(|(i, q)| match *q {
                StoreQuery::Range { t1, t2, ref region } => Some((i, probe_of(t1, t2, region))),
                _ => None,
            })
            .collect();
        let t0 = Instant::now();
        let candidates: Vec<Vec<usize>> = ranges
            .iter()
            .map(|(_, probe)| index.candidates(black_box(probe)))
            .collect();
        let index_s = secs(t0);
        let probes = ranges.len().max(1) as f64;
        let candidate_blocks: usize = candidates.iter().map(Vec::len).sum();
        let useful_blocks: usize = ranges
            .iter()
            .map(|&(i, _)| match &answers[i] {
                StoreAnswer::Hits(hits) => hits
                    .iter()
                    .map(|h| h / BLOCK_SIZE)
                    .collect::<BTreeSet<_>>()
                    .len(),
                _ => 0,
            })
            .sum();
        report.set("store.index.candidates_us", index_s * 1e6 / probes);
        report.set(
            "store.index.candidates_per_probe",
            candidate_blocks as f64 / probes,
        );
        report.set(
            "store.index.useful_share",
            useful_blocks as f64 / candidate_blocks.max(1) as f64,
        );
        report.set("store.index.busy_s", index_s);

        // Block decode alone: `get` on random trajectories decodes one
        // block per call (the store keeps only the last block decoded).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e7);
        let picks: Vec<usize> = (0..GET_PROBES)
            .map(|_| rng.gen_range(0..self.store.len()))
            .collect();
        let t0 = Instant::now();
        for &idx in &picks {
            black_box(self.store.get(black_box(idx)).expect("get"));
        }
        let get_us = secs(t0) * 1e6 / GET_PROBES as f64;
        report.set("core.store.get_us", get_us);
        report.set("core.store.decode_busy_s", decoded as f64 * get_us / 1e6);

        // Range evaluation alone, on trajectories already decoded: the
        // candidates of a strided sample of the range probes.
        let stride = (ranges.len() / EVAL_SAMPLE).max(1);
        let overlapping = |block: usize, probe: &IndexEntry| {
            let start = block * BLOCK_SIZE;
            self.corpus[start..(start + BLOCK_SIZE).min(self.corpus.len())]
                .iter()
                .filter(|ct| {
                    ct.temporal
                        .time_range()
                        .is_some_and(|(a, z)| z >= probe.t0 && a <= probe.t1)
                })
                .collect::<Vec<_>>()
        };
        let (mut eval_s, mut evaluated, mut total_candidates) = (0.0, 0usize, 0usize);
        for (k, ((_, probe), blocks)) in ranges.iter().zip(&candidates).enumerate() {
            let cts: Vec<&CompressedTrajectory> =
                blocks.iter().flat_map(|&b| overlapping(b, probe)).collect();
            total_candidates += cts.len();
            if k % stride != 0 {
                continue;
            }
            let region =
                press_network::Mbr::new(probe.min_x, probe.min_y, probe.max_x, probe.max_y);
            let t0 = Instant::now();
            for ct in &cts {
                black_box(
                    bare.range(ct, probe.t0, probe.t1, &region)
                        .expect("range eval"),
                );
            }
            eval_s += secs(t0);
            evaluated += cts.len();
        }
        let eval_us = eval_s * 1e6 / evaluated.max(1) as f64;
        report.set("core.query.eval_us_per_candidate", eval_us);
        report.set(
            "core.query.eval_busy_s",
            eval_us * total_candidates as f64 / 1e6,
        );

        // The batch executor against one worker.
        let rate = |threads: usize, report: &mut Report| {
            let times: Vec<f64> = (0..3)
                .map(|_| self.batch_pass(&batch, &bare, threads, report).1.wall_s)
                .collect();
            n as f64 / median(&times)
        };
        let at_t = rate(self.threads, report);
        let at_1 = rate(1, report);
        report.set(
            "core.batch.parallel_efficiency",
            at_t / (self.threads as f64 * at_1),
        );
        twins
    }
}
