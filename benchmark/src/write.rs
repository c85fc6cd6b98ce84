//! The write stage: fix → durable indexed corpus, and recovery of an
//! un-checkpointed tail. Drives `press-serve` from outside through
//! `IngestEngine::{open, push, sync, finalize_all, flush, checkpoint}`.

use crate::clock::{timed, Sample, Series, Stopwatch};
use crate::fixture::{secs, shifted, BLOCK_SIZE};
use crate::report::Report;
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::{Recorder, SpanId, Twins, TWIN_REPS};
use crate::traced_sp::{aggregate_sp, TracedSp};
use press_core::{reformat, PathSample, Press};
use press_matcher::{GpsSample, MapMatcher};
use press_serve::{DurabilityPolicy, Event, IngestConfig, IngestEngine, IngestStats};
use press_store::crc32;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const MAX_SESSION_POINTS: usize = 256;
const MAX_SALVAGE_SPLITS: usize = 8;
/// Reopens timed for `recover_ms` in each round.
const RECOVERS_PER_ROUND: usize = 6;
/// The un-checkpointed tail is the same stream one day later.
const TAIL_SHIFT_S: f64 = 86_400.0;

pub struct WriteStage<'a> {
    pub events: &'a [Event],
    pub matcher: Arc<MapMatcher>,
    pub press: &'a Press,
    /// Scratch directory; every engine gets its own sub-directory.
    pub dir: &'a Path,
    pub threads: usize,
}

fn config(flush_threads: usize) -> IngestConfig {
    IngestConfig {
        idle_timeout: 120.0,
        max_session_points: MAX_SESSION_POINTS,
        block_size: BLOCK_SIZE,
        threads: flush_threads,
        max_lattice_work: 0,
        max_salvage_splits: MAX_SALVAGE_SPLITS,
        durability: DurabilityPolicy::group_commit(),
        shards: SHARDS,
        ..IngestConfig::default()
    }
}

/// The timed steps of one ingest pass, in order.
const STEPS: [&str; 5] = ["open", "push + sync", "finalize_all", "flush", "checkpoint"];
const PUSH: usize = 1;
const FINALIZE: usize = 2;
const FLUSH: usize = 3;
const CHECKPOINT: usize = 4;

/// One pass of open → push* → sync → finalize_all → flush → checkpoint.
struct IngestRun {
    engine: IngestEngine,
    dir: PathBuf,
    /// One sample per step of [`STEPS`].
    steps: [Sample; 5],
    /// Pushes the engine did not ingest (quarantined, repaired away or
    /// refused with an error).
    refused: u64,
    wal_bytes: u64,
    corpus_bytes: u64,
    corpus_crc: u32,
    stats: IngestStats,
    /// The flush call's span, for what is entered under it afterwards.
    flush_span: SpanId,
}

/// What one ingest pass published; every pass must publish the same.
#[derive(Clone, Copy)]
struct Published {
    accepted: u64,
    trajectories: u64,
    corpus_bytes: u64,
    corpus_crc: u32,
}

/// The timings the rounds of the untraced stage collect.
#[derive(Default)]
pub struct WriteSamples {
    /// The steps of the ingest passes, each step a series of its own: a
    /// change of speed inside one step sets aside that step's
    /// sample, not the pass.
    steps: [Series; 5],
    /// The push loops: every pass's, and every tail's.
    push: Series,
    recover: Series,
    published: Option<Published>,
}

/// Reopen times, the tail's push loop, and the fixes each reopen had
/// to replay.
struct Recovery {
    reopens: Vec<Sample>,
    tail_push: Sample,
    acked: u64,
}

impl IngestRun {
    fn wall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_s).sum()
    }
}

impl<'a> WriteStage<'a> {
    fn open(&self, dir: &Path, flush_threads: usize) -> IngestEngine {
        IngestEngine::open(
            dir,
            self.matcher.clone(),
            self.press.reconfigured(self.press.config()),
            config(flush_threads),
        )
        .expect("open ingest engine")
    }

    /// Pushes `events` and syncs; returns the refused count.
    fn push_all(&self, engine: &mut IngestEngine, events: &[Event], rec: &mut Recorder) -> u64 {
        let mut refused = 0u64;
        for (i, &(vehicle, sample)) in events.iter().enumerate() {
            let span = rec.enter("serve.push", i as u64);
            let ingested = engine
                .push(vehicle, sample)
                .is_ok_and(|ack| ack.is_ingested());
            rec.exit(span);
            refused += u64::from(!ingested);
        }
        let span = rec.enter("serve.sync", 0);
        engine.sync().expect("covering sync");
        rec.exit(span);
        refused
    }

    fn ingest_once(
        &self,
        tag: &str,
        flush_threads: usize,
        rec: &mut Recorder,
        sp: Option<&TracedSp>,
    ) -> IngestRun {
        let dir = self.dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut watch = Stopwatch::start();
        let span = rec.enter("serve.open", 0);
        let mut engine = self.open(&dir, flush_threads);
        rec.exit(span);
        let open = watch.lap();
        let refused = self.push_all(&mut engine, self.events, rec);
        let push = watch.lap();
        let span = rec.enter("serve.finalize_all", 0);
        engine.finalize_all().expect("finalize_all");
        rec.exit(span);
        let finalize = watch.lap();
        let flush_span = rec.enter("serve.flush", 0);
        let before = sp.map(TracedSp::counts);
        engine.flush().expect("flush");
        aggregate_sp(rec, sp, before);
        rec.exit(flush_span);
        let flush = watch.lap();
        let span = rec.enter("serve.checkpoint", 0);
        engine.checkpoint().expect("checkpoint");
        rec.exit(span);
        let checkpoint = watch.lap();
        let wal_bytes = (0..SHARDS).map(|k| engine.shard_wal_offset(k)).sum();
        let corpus_bytes = (0..SHARDS)
            .map(|k| std::fs::metadata(engine.shard_corpus_path(k)).map_or(0, |m| m.len()))
            .sum();
        let corpus_crc = crc32(&engine.merged_corpus_bytes().expect("merged corpus"));
        let stats = engine.stats();
        IngestRun {
            engine,
            dir,
            steps: [open, push, finalize, flush, checkpoint],
            refused,
            wal_bytes,
            corpus_bytes,
            corpus_crc,
            stats,
            flush_span,
        }
    }

    /// Pushes the tail on `engine` without a checkpoint, drops the
    /// engine, and reopens the directory `reps` times; checks every
    /// recovery report against what was acked.
    fn recover(
        &self,
        mut engine: IngestEngine,
        dir: &Path,
        reps: usize,
        report: &mut Report,
    ) -> Recovery {
        let corpus_before = engine.finished().len();
        let tail = shifted(self.events, TAIL_SHIFT_S);
        let (refused, tail_push) =
            timed(|| self.push_all(&mut engine, &tail, &mut Recorder::new(false)));
        let acked = tail.len() as u64 - refused;
        report.attempted += tail.len() as u64;
        report.failed += refused;
        drop(engine);
        let mut reopens = Vec::with_capacity(reps);
        for rep in 0..reps {
            let (reopened, sample) = timed(|| self.open(dir, self.threads));
            reopens.push(sample);
            let r = *reopened.recovery();
            report.gate(
                r.replayed_points == acked
                    && r.torn_bytes == 0
                    && r.points_in_flight as u64 == acked
                    && r.corpus_trajectories == corpus_before
                    && !r.wal_was_fresh,
                || format!("write: reopen {rep} recovered {r:?}, expected {acked} acked fixes replayed and in flight over {corpus_before} trajectories"),
            );
        }
        let _ = std::fs::remove_dir_all(dir);
        Recovery {
            reopens,
            tail_push,
            acked,
        }
    }

    fn account(&self, run: &IngestRun, report: &mut Report) {
        report.attempted += self.events.len() as u64;
        report.failed += run.refused + run.stats.pieces_dropped + run.stats.pieces_shed;
    }

    /// One round of the untraced stage: an ingest pass over a fresh
    /// directory, then the tail pushed without a checkpoint and the
    /// directory reopened [`RECOVERS_PER_ROUND`] times.
    pub fn round(&self, round: usize, samples: &mut WriteSamples, report: &mut Report) {
        let run = self.ingest_once(
            &format!("ingest-{round}"),
            self.threads,
            &mut Recorder::new(false),
            None,
        );
        self.account(&run, report);
        for (series, step) in samples.steps.iter_mut().zip(run.steps) {
            series.push(step);
        }
        samples.push.push(run.steps[PUSH]);
        let first = *samples.published.get_or_insert(Published {
            accepted: run.stats.points_accepted,
            trajectories: run.stats.pieces_compressed,
            corpus_bytes: run.corpus_bytes,
            corpus_crc: run.corpus_crc,
        });
        report.gate(first.corpus_crc == run.corpus_crc, || {
            "write: two ingest passes over one stream published different corpora".into()
        });
        let recovery = self.recover(run.engine, &run.dir, RECOVERS_PER_ROUND, report);
        samples.push.push(recovery.tail_push);
        for reopen in recovery.reopens {
            samples.recover.push(reopen);
        }
    }

    /// The four write-path end-to-end metrics from the rounds' samples.
    /// Returns the CRC32 of the published corpus.
    pub fn finish(&self, samples: &WriteSamples, report: &mut Report) -> u32 {
        let published = samples.published.expect("at least one round");
        let fixes = self.events.len();
        // A pass is the sum of its steps, each at its own typical time.
        let ingest_s: f64 = samples.steps.iter().map(Series::typical_s).sum();
        report.set("ingest_fixes_per_s", published.accepted as f64 / ingest_s);
        report.set("push_fixes_per_s", fixes as f64 / samples.push.typical_s());
        report.set("recover_ms", samples.recover.typical_s() * 1e3);
        report.set(
            "stored_bytes_per_fix",
            published.corpus_bytes as f64 / published.accepted as f64,
        );
        report.note(format!(
            "write: {fixes} fixes from {} vehicles, {} trajectories published; {} ingest passes (wall median {:.1} ms: {}), {} steady push loops ({:.1} ms), {} steady reopens with the tail to replay ({:.2} ms)",
            self.events.iter().map(|e| e.0).max().map_or(0, |v| v + 1),
            published.trajectories,
            samples.steps[0].len(),
            samples.steps.iter().map(Series::wall_s).sum::<f64>() * 1e3,
            STEPS
                .iter()
                .zip(&samples.steps)
                .map(|(name, s)| format!("{name} {:.1}, {} steady", s.wall_s() * 1e3, s.counts()))
                .collect::<Vec<_>>()
                .join("; "),
            samples.push.counts(),
            samples.push.wall_s() * 1e3,
            samples.recover.counts(),
            samples.recover.wall_s() * 1e3
        ));
        published.corpus_crc
    }

    /// The traced stage: a recorded pass with a single flush worker (so
    /// the spans of one thread add up to the wall) and unrecorded twins
    /// for the tracing overhead; the matcher and compressor run
    /// standalone over the same segments and entered under the flush
    /// span; the recovery timings.
    pub fn run_traced(&self, rec: &mut Recorder, sp: &TracedSp, report: &mut Report) -> Twins {
        let root = rec.enter("stage.write", 0);
        let traced = self.ingest_once("traced", 1, rec, Some(sp));
        rec.exit(root);
        let mut twins = Twins::default();
        twins.traced_s.push(traced.wall_s());
        for rep in 0..TWIN_REPS {
            let plain = self.ingest_once("twin", 1, &mut Recorder::new(false), None);
            twins.plain_s.push(plain.wall_s());
            self.account(&plain, report);
            report.gate(traced.corpus_crc == plain.corpus_crc, || {
                "write: the traced pass published a different corpus".into()
            });
            let _ = std::fs::remove_dir_all(&plain.dir);
            if rep + 1 < TWIN_REPS {
                let again = self.ingest_once("twin", 1, &mut Recorder::new(true), Some(sp));
                twins.traced_s.push(again.wall_s());
                self.account(&again, report);
                let _ = std::fs::remove_dir_all(&again.dir);
            }
        }
        self.account(&traced, report);

        let mut push_us = rec.durations_us("serve.push");
        push_us.sort_by(f64::total_cmp);
        let fixes = self.events.len() as f64;
        let stats = traced.stats;
        report.set("serve.push_p50_us", percentile(&push_us, 0.5));
        report.set(
            "serve.push_p999_us",
            percentile(&push_us, supported_percentile(push_us.len(), 0.999)),
        );
        report.set("serve.push_max_us", *push_us.last().expect("pushes"));
        report.set("serve.push_busy_s", push_us.iter().sum::<f64>() / 1e6);
        report.set("serve.sync_calls", stats.sync_calls as f64);
        report.set("serve.avg_sync_batch", stats.avg_sync_batch());
        report.set("serve.wal_bytes_per_fix", traced.wal_bytes as f64 / fixes);
        report.set("serve.finalize_s", traced.steps[FINALIZE].wall_s);
        let flush_s = traced.steps[FLUSH].wall_s;
        report.set("serve.flush_busy_s", flush_s);
        report.set("serve.checkpoint_ms", traced.steps[CHECKPOINT].wall_s * 1e3);
        report.set("serve.checkpoint_bytes", traced.corpus_bytes as f64);
        report.set("serve.quarantined", stats.total_quarantined() as f64);
        report.set(
            "serve.segments_dropped",
            (stats.pieces_dropped + stats.pieces_shed) as f64,
        );
        report.set("serve.io_retries", stats.io_retries as f64);
        report.set("serve.sessions_evicted", stats.sessions_evicted as f64);

        // The matcher and the compressor standalone, over each vehicle's
        // trace cut where the engine's size cap cuts it. Flush does this
        // work on its own threads where no span can reach it, so the
        // standalone times enter the trace under the flush span.
        let mut by_vehicle: BTreeMap<u64, Vec<GpsSample>> = BTreeMap::new();
        for &(v, s) in self.events {
            by_vehicle.entry(v).or_default().push(s);
        }
        let (mut match_s, mut compress_s) = (0.0, 0.0);
        let (mut segments, mut pieces, mut matched, mut splits) = (0u64, 0u64, 0usize, 0usize);
        let sp_before = sp.counts();
        let net = self.matcher.network().clone();
        for (&vehicle, samples) in &by_vehicle {
            for segment in samples.chunks(MAX_SESSION_POINTS) {
                let t = Instant::now();
                let salvage =
                    self.matcher
                        .match_trajectory_salvaging(segment, 0, MAX_SALVAGE_SPLITS);
                match_s += secs(t);
                segments += 1;
                splits += salvage.splits;
                for piece in salvage.pieces {
                    matched += piece.samples.len();
                    let path_samples: Vec<PathSample> = piece
                        .samples
                        .iter()
                        .map(|m| PathSample {
                            edge_idx: m.edge_idx,
                            frac: m.frac,
                            t: m.t,
                        })
                        .collect();
                    let t = Instant::now();
                    let ok = reformat(&net, piece.edges, &path_samples)
                        .and_then(|traj| self.press.compress(&traj))
                        .is_ok();
                    compress_s += secs(t);
                    pieces += 1;
                    report.gate(ok, || {
                        format!("write: a matched piece of vehicle {vehicle} did not compress")
                    });
                }
            }
        }
        let sp_s = sp.counts().since(&sp_before).total_busy_ns() as f64 / 1e9;
        let ns = |s: f64| (s * 1e9) as u64;
        rec.attach(traced.flush_span, "matcher.match", segments, ns(match_s));
        rec.attach(
            traced.flush_span,
            "core.press.compress",
            pieces,
            ns((compress_s - sp_s).max(0.0)),
        );
        report.set("matcher.match_busy_s", match_s);
        report.set("matcher.fixes_per_s", fixes / match_s);
        report.set("matcher.matched_share", matched as f64 / fixes);
        report.set("matcher.salvage_pieces", splits as f64);
        report.set(
            "serve.flush_self_s",
            (flush_s - match_s - compress_s).max(0.0),
        );

        // Reopen with nothing to replay, then with the whole tail.
        let dir = traced.dir;
        drop(traced.engine);
        let clean: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let e = self.open(&dir, self.threads);
                let ms = secs(t0) * 1e3;
                report.gate(e.recovery().replayed_points == 0, || {
                    "write: a reopen right after a checkpoint replayed fixes".into()
                });
                ms
            })
            .collect();
        report.set("serve.reopen_clean_ms", median(&clean));
        let recovery = self.recover(self.open(&dir, self.threads), &dir, 3, report);
        report.set(
            "serve.replay_fixes_per_s",
            recovery.acked as f64
                / median(
                    &recovery
                        .reopens
                        .iter()
                        .map(|s| s.wall_s)
                        .collect::<Vec<_>>(),
                ),
        );
        twins
    }
}
