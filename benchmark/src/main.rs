//! `press-benchmark` — one end-to-end benchmark for the PRESS write
//! path, codec and read path. See `README.md` beside this crate for the
//! metric glossary and how to read the output.
//!
//! ```text
//! press-benchmark --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//! press-benchmark --repeat-check [N] [--workload <name|all>] [--seed <u64>]
//! press-benchmark --smoke
//! press-benchmark --print-benchmark-json
//! ```
//!
//! Every run builds its inputs from the seed, measures, checks its
//! outputs, prints each metric by name with its unit, and ends standard
//! output with the one-line JSON result the driver reads. It exits
//! non-zero when a correctness gate fails.

mod clock;
mod codec;
mod fixture;
mod json;
mod read;
mod report;
mod spec;
mod stats;
mod trace;
mod traced_sp;
mod write;

use fixture::Mix;
use press_core::Trajectory;
use press_matcher::{MapMatcher, MatcherConfig};
use press_network::SpProvider;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Recorder;
use traced_sp::TracedSp;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Sizes of one workload. Every workload runs all three stages, because
/// every end-to-end metric is reported — and guarded — on every
/// workload; the stage a workload is named after gets the large inputs,
/// the others run at the reference size.
#[derive(Clone, Copy)]
struct Shape {
    /// Grid side: `nx * nx` nodes.
    nx: usize,
    /// Journeys in the city's population; the first `train` train the
    /// model, a run draws the stages' inputs from the rest.
    records: usize,
    train: usize,
    /// Vehicles of the write stage's fleet (1 s sampling).
    vehicles: usize,
    /// Trajectories of the codec stage's batch (5 s sampling).
    batch: usize,
    /// Distinct trajectories behind the read stage's corpus, the corpus
    /// size, and the query count and mix.
    pool: usize,
    corpus: usize,
    queries: usize,
    mix: Mix,
    warmup: usize,
}

/// Rounds a run makes at least, however short `--seconds` is: one after
/// each set-up. A run does rounds — every timed loop of every stage once
/// — until `--seconds` have passed, so each metric's samples are spread
/// over the whole run: this box changes speed by a quarter for seconds at
/// a time, and a metric measured in one short window would read
/// whichever speed that window happened to get.
const MIN_ROUNDS: usize = SETUP_REPS;

const REFERENCE: Shape = Shape {
    nx: 80,
    records: 1_000,
    train: 300,
    vehicles: 20,
    batch: 600,
    pool: 400,
    corpus: 40_000,
    queries: 1_200,
    mix: Mix::Selective,
    warmup: 1_200,
};

fn shape(workload: &str) -> Shape {
    match workload {
        "fleet_ingest" => Shape {
            vehicles: 60,
            ..REFERENCE
        },
        "batch_compress" => Shape {
            records: 2_000,
            batch: 1_500,
            ..REFERENCE
        },
        "query_selective" => Shape {
            corpus: 100_000,
            queries: 2_400,
            warmup: 2_400,
            ..REFERENCE
        },
        "query_scan" => Shape {
            corpus: 100_000,
            queries: 1_000,
            mix: Mix::Scan { blocks: 6 },
            warmup: 100,
            ..REFERENCE
        },
        other => panic!("unknown workload {other}"),
    }
}

/// The `--smoke` size: same code, inputs small enough that all four
/// workloads, traced and untraced, finish in a few seconds.
fn smoke_shape(workload: &str) -> Shape {
    Shape {
        nx: 20,
        records: 120,
        train: 60,
        vehicles: 6,
        batch: 40,
        pool: 20,
        corpus: 800,
        queries: 240,
        warmup: 40,
        ..shape(workload)
    }
}

struct Run<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    shape: Shape,
    /// Scratch directory of this run, under `benchmark/out`.
    dir: &'a Path,
    out_dir: &'a Path,
}

/// `benchmark/out`, beside this crate's manifest: the only place the
/// benchmark writes.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

fn run_workload(run: &Run<'_>) -> Report {
    let Run {
        seed, shape, dir, ..
    } = *run;
    let threads = fixture::threads();
    let mut report = Report::default();
    std::fs::create_dir_all(dir).expect("create scratch directory");

    // Inputs and the first set-up, interleaved because the journeys need
    // a network and the corpus needs a trained compressor.
    let generated = fixture::make_network(shape.nx);
    let sp = fixture::setup_sp(&generated, dir, "r0", threads);
    let records = fixture::make_records(&sp.net, &sp.sp, shape.records);
    assert!(
        records.len() == shape.records,
        "the generator produced {} of {} journeys",
        records.len(),
        shape.records
    );
    let (train, rest) = records.split_at(shape.train);
    let train_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let draw = |count: usize| fixture::draw_journeys(rest, count, seed);
    let model = fixture::setup_model(&sp.sp, &train_paths, dir, "r0");
    let corpus = fixture::make_corpus(&model.press, &draw(shape.pool), shape.corpus);
    let store = fixture::setup_store(&model.press, &corpus, dir, "r0");
    let mut setups = vec![sp.times.total_s() + model.times.total_s() + store.times.total_s()];
    // The same set-up again, under other file names; returns its time.
    let set_up_again = |rep: usize, report: &mut Report| {
        let tag = format!("r{rep}");
        let sp_n = fixture::setup_sp(&generated, dir, &tag, threads);
        let model_n = fixture::setup_model(&sp_n.sp, &train_paths, dir, &tag);
        let store_n = fixture::setup_store(&model_n.press, &corpus, dir, &tag);
        report.gate(store_n.times.bytes == store.times.bytes, || {
            "setup: two set-ups from one seed built corpora of different size".into()
        });
        for p in [&sp_n.net_path, &sp_n.hl_path, &model_n.path, &store_n.path] {
            let _ = std::fs::remove_file(p);
        }
        sp_n.times.total_s() + model_n.times.total_s() + store_n.times.total_s()
    };
    let events = fixture::fleet_events(&sp.net, &draw(shape.vehicles));
    let trajectories: Vec<Trajectory> = draw(shape.batch)
        .iter()
        .map(|r| r.truth_trajectory(5.0))
        .collect();
    let queries = fixture::make_queries(
        shape.mix,
        shape.queries,
        sp.net.bounding_box(),
        shape.corpus,
        seed,
    );
    let (cores, cpu, commit) = fixture::machine();
    report.note(format!(
        "run: workload {} seed {seed} fixture {:08x} commit {commit} cores {cores} threads {threads} cpu {cpu}",
        run.workload,
        fixture::fixture_hash(&sp.net, &events, &queries)
    ));
    report.note(format!(
        "fixture: city {} of {} nodes / {} edges, population {} journeys ({} train)",
        fixture::CITY_SEED,
        sp.net.num_nodes(),
        sp.net.num_edges(),
        records.len(),
        train.len()
    ));

    let matcher = Arc::new(MapMatcher::new(sp.net.clone(), MatcherConfig::default()));
    let cold = read::ColdPaths {
        network: &sp.net_path,
        hub_labels: &sp.hl_path,
        model: &model.path,
        corpus: &store.path,
    };
    let write = |press| write::WriteStage {
        events: &events,
        matcher: matcher.clone(),
        press,
        dir,
        threads,
    };
    let codec = codec::CodecStage {
        press: &model.press,
        trajectories: &trajectories,
        threads,
    };
    let read = read::ReadStage {
        store: &store.store,
        press: &model.press,
        corpus: &corpus,
        queries: &queries,
        warmup: shape.warmup,
        threads,
        cold,
    };

    if !run.trace {
        let write = write(&model.press);
        let (mut write_samples, mut codec_samples) = Default::default();
        let mut read_samples = read.warm_up(&mut report);
        let mut measured_s = 0.0;
        let mut rounds = 0;
        // Stop when one more round of the average length would overrun.
        while rounds < MIN_ROUNDS || measured_s * (rounds + 1) as f64 / rounds as f64 <= run.seconds
        {
            // The further set-ups go between the rounds, not back to back
            // with the first, so the three sample the box at three moments;
            // their time is not measuring time.
            if (1..SETUP_REPS).contains(&rounds) {
                setups.push(set_up_again(rounds, &mut report));
            }
            let t0 = Instant::now();
            write.round(rounds, &mut write_samples, &mut report);
            codec.round(&mut codec_samples, &mut report);
            read.round(&mut read_samples, &mut report);
            rounds += 1;
            measured_s += t0.elapsed().as_secs_f64();
        }
        report.note(format!(
            "rounds: {rounds} in {measured_s:.1} s; {} set-ups timed",
            setups.len()
        ));
        let corpus_digest = write.finish(&write_samples, &mut report);
        codec.finish(&codec_samples, &mut report);
        let answers_digest = read.finish(&read_samples, &mut report);
        report.note(format!(
            "digests: corpus_digest {corpus_digest:08x} answers_digest {answers_digest:08x}"
        ));
        report.set("setup_s", stats::median(&setups));
        report.set("peak_rss_mb", fixture::peak_rss_mb());
        return report;
    }

    // The traced run: the same stages once each, recorded, with the
    // compressor running over the counting provider.
    let traced_sp = Arc::new(TracedSp::new(sp.sp.clone()));
    let as_provider: Arc<dyn SpProvider> = traced_sp.clone();
    let traced_press = fixture::load_model(&as_provider, &model.path);
    let mut rec = Recorder::new(true);
    let twins = [
        write(&traced_press).run_traced(&mut rec, &traced_sp, &mut report),
        codec.run_traced(&traced_press, &traced_sp, &mut rec, &mut report),
        read.run_traced(&traced_press, &traced_sp, &mut rec, seed, &mut report),
    ];
    codec::probe_sp(&*sp.sp, seed, &mut report);
    report.set(
        "network.sp.resident_mb",
        sp.sp.approx_bytes() as f64 / (1024.0 * 1024.0),
    );
    // Per-layer times are wall time, as the spans are.
    report.set("network.sp.build_s", sp.times.build.wall_s);
    report.set(
        "network.sp.open_mapped_ms",
        sp.times.open_mapped.wall_s * 1e3,
    );
    report.set("network.graph.load_ms", sp.times.graph_load.wall_s * 1e3);
    report.set("core.hsc.model_load_ms", model.times.load.wall_s * 1e3);
    report.set("core.press.train_s", model.times.train.wall_s);
    report.set("core.store.create_s", store.times.create.wall_s);
    report.set(
        "core.store.create_mb_per_s",
        store.times.bytes as f64 / (1024.0 * 1024.0) / store.times.create.wall_s,
    );
    report.set(
        "core.store.open_mapped_ms",
        store.times.open_mapped.wall_s * 1e3,
    );

    // Overhead: the fastest recorded pass of each stage against the
    // fastest unrecorded twin, summed over the stages.
    let traced_wall: f64 = twins.iter().map(|t| stats::fastest(&t.traced_s)).sum();
    let plain_wall: f64 = twins.iter().map(|t| stats::fastest(&t.plain_s)).sum();
    report.set("trace.overhead_share", traced_wall / plain_wall - 1.0);
    let (stage_total, stage_self) = rec
        .rows()
        .iter()
        .filter(|r| r.name.starts_with("stage."))
        .fold((0u64, 0u64), |(t, s), r| (t + r.total_ns, s + r.self_ns));
    report.set(
        "trace.coverage_share",
        1.0 - stage_self as f64 / stage_total.max(1) as f64,
    );
    report.set("trace.spans", rec.spans().len() as f64);
    let path = run.out_dir.join(format!("{}.trace.json", run.workload));
    rec.write_json(
        &path,
        &[
            ("workload", json::string(run.workload)),
            ("seed", seed.to_string()),
            ("threads", threads.to_string()),
        ],
    )
    .expect("write trace");
    report.note(format!(
        "trace: {} spans written to {}",
        rec.spans().len(),
        path.display()
    ));
    for (stage, rows) in rec.rows_by_root() {
        report.note(layer_table(stage, rows));
    }
    report
}

/// One stage's per-layer table: self time per span name as a share of
/// the stage's recorded wall, largest first.
fn layer_table(stage: &str, mut rows: Vec<trace::Row>) -> String {
    // The rows are the stage's whole subtree, so their self times and
    // the stage span's own add up to the stage's wall.
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    let covered: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = format!(
        "{stage}: {:.1} ms inside layer spans\n  {:<22} {:>9} {:>11} {:>11} {:>7}\n",
        covered as f64 / 1e6,
        "layer",
        "calls",
        "total_ms",
        "self_ms",
        "share"
    );
    for r in rows {
        out += &format!(
            "  {:<22} {:>9} {:>11.3} {:>11.3} {:>6.1}%\n",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / covered.max(1) as f64
        );
    }
    out.pop();
    out
}

/// Prints the notes, every metric by name with its unit, and — last —
/// the result line. Returns false when a gate failed.
fn print_report(report: &Report, trace: bool) -> bool {
    for note in &report.notes {
        println!("{note}");
    }
    let declared: Vec<(&'static str, &'static str)> = if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let measured = report.measured(declared.into_iter());
    for m in &measured {
        println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for failure in &report.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!(
        "operations: {} attempted, {} failed; correct: {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!(
        "{}",
        json::result_line(
            report.correct(),
            report.attempted.max(1),
            report.failed,
            &measured
        )
    );
    report.correct()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: Option<usize>,
    smoke: bool,
    print_json: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: press-benchmark --workload <{}|all> --seed <u64> --seconds <n> --trace <0|1>\n       \
         press-benchmark --repeat-check [N] [--workload <name|all>] [--seed <u64>]\n       \
         press-benchmark --smoke | --print-benchmark-json",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat_check: None,
        smoke: false,
        print_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().peekable();
    // A flag's value, when the next argument is one.
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next_if(|v| !v.starts_with("--")).cloned()
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = value(&mut it).unwrap_or_else(|| usage("--workload needs a name"))
            }
            "--seed" => {
                args.seed = value(&mut it)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a whole number"))
            }
            "--seconds" => {
                args.seconds = value(&mut it)
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            // A bare `--trace` means 1.
            "--trace" => {
                args.trace = match value(&mut it).as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(_) => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat-check" => {
                args.repeat_check = Some(match value(&mut it) {
                    None => 3,
                    Some(v) => v
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .unwrap_or_else(|| usage("--repeat-check needs a count of at least 2")),
                })
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_json = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && spec::workload(&args.workload).is_none() {
        usage(&format!("unknown workload {}", args.workload));
    }
    args
}

fn chosen(workload: &str) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| workload == "all" || *n == workload)
        .collect()
}

/// `--repeat-check N`: two sets of N fresh-process runs per workload,
/// each run with its own seed, judged the way the driver judges them —
/// every end-to-end metric's quartile spread within its bound (except
/// `setup_s`), and the second set's median no worse than the first's by
/// more than the bound.
fn repeat_check(args: &Args, n: usize) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for workload in chosen(&args.workload) {
        let mut sets: Vec<Vec<json::ParsedResult>> = Vec::new();
        for set in 0..2 {
            let mut results = Vec::new();
            for i in 0..n {
                let seed = args.seed + (set * n + i) as u64;
                let out = std::process::Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                    .output()
                    .expect("run the benchmark");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let parsed = stdout.lines().last().and_then(json::parse_result_line);
                match parsed {
                    Some(r) if out.status.success() && r.correct && r.failed == 0 => {
                        results.push(r)
                    }
                    _ => {
                        println!("{workload} seed {seed}: run failed\n{stdout}");
                        ok = false;
                    }
                }
            }
            sets.push(results);
        }
        if sets.iter().any(|s| s.len() < 2) {
            continue;
        }
        println!(
            "{workload}: 2 sets of {n} runs, seeds {}..{}",
            args.seed,
            args.seed + 2 * n as u64 - 1
        );
        println!(
            "  {:<24} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
            "metric", "q1", "median", "q3", "spread", "drift", "bound"
        );
        for m in &spec::END_TO_END {
            let values = |set: &[json::ParsedResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(name, _)| name == m.name)
                            .map(|&(_, v)| v)
                    })
                    .collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let [q1, q2, q3] = stats::quartiles(&first);
            let spread = stats::spread(&first).max(stats::spread(&second));
            let second_median = stats::quartiles(&second)[1];
            let drift = match m.better {
                spec::Better::Lower => second_median / q2 - 1.0,
                spec::Better::Higher => 1.0 - second_median / q2,
            };
            let steady = m.name == "setup_s" || spread <= m.bound;
            let verdict = match (steady, drift <= m.bound) {
                (true, true) if m.name != "setup_s" && spread > m.bound / 3.0 => {
                    "ok (spread above a third of the bound)"
                }
                (true, true) => "ok",
                (false, _) => "SPREAD EXCEEDS BOUND",
                (_, false) => "SECOND SET WORSE THAN BOUND",
            };
            ok &= steady && drift <= m.bound;
            println!(
                "  {:<24} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                q1,
                q2,
                q3,
                spread * 100.0,
                drift * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.repeat_check {
        return if repeat_check(&args, n) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out_dir = out_dir();
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    let mut ok = true;
    // `--smoke` exercises every workload both ways at a tiny size; its
    // numbers mean nothing and are not the driver's.
    let plan: Vec<(&str, bool, Shape, f64)> = if args.smoke {
        chosen("all")
            .into_iter()
            .flat_map(|w| {
                [
                    (w, false, smoke_shape(w), 0.2),
                    (w, true, smoke_shape(w), 0.2),
                ]
            })
            .collect()
    } else {
        chosen(&args.workload)
            .into_iter()
            .map(|w| (w, args.trace, shape(w), args.seconds))
            .collect()
    };
    for (workload, trace, shape, seconds) in plan {
        let report = run_workload(&Run {
            workload,
            seed: args.seed,
            seconds,
            trace,
            shape,
            dir: &dir,
            out_dir: &out_dir,
        });
        let _ = std::fs::remove_dir_all(&dir);
        ok &= print_report(&report, trace);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
