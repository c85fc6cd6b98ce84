//! Inputs and set-up. Everything the program under test sees is made
//! here from the seed: the road network, the journeys, the fleet's GPS
//! stream, the compressed corpus and the query mixes.
//!
//! Two kinds of work are kept apart. *Input generation* (grid, journeys,
//! GPS noise, query mixes) is the benchmark's own and is not timed.
//! *Set-up* is work the system does before it can serve — build and
//! persist the hub labels, reopen them mapped, train and persist the HSC
//! model, build and map the corpus — and its time is `setup_s`.

use crate::clock::{Sample, Stopwatch};
use press_core::query::QueryEngine;
use press_core::{
    BtcBounds, CompressedTrajectory, DtPoint, HscModel, Press, PressConfig, StoreQuery,
    TemporalSequence, TrajectoryStore,
};
use press_matcher::GpsSample;
use press_network::{grid_network, EdgeId, GridConfig, HubLabels, Mbr, RoadNetwork, SpProvider};
use press_serve::Event;
use press_store::crc32;
use press_workload::{query_mix, QueryMixConfig, TrajectoryRecord, Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Trajectories per block of every corpus the benchmark builds.
pub const BLOCK_SIZE: usize = 8;
/// Seconds between the starts of successive corpus trajectories.
pub const CORPUS_STAGGER_S: f64 = 30.0;
/// Temporal bounds every compressor in the benchmark runs with.
pub const TSND_BOUND_M: f64 = 45.0;
pub const NSTD_BOUND_S: f64 = 15.0;

/// Worker threads for every parallel call: `min(cores, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

pub fn press_config() -> PressConfig {
    PressConfig {
        bounds: BtcBounds::new(TSND_BOUND_M, NSTD_BOUND_S),
        ..PressConfig::default()
    }
}

/// Seed of the city: the road network and the population of journeys
/// are the same in every run, and `--seed` decides which journeys a run
/// draws from that population, their GPS noise, and the queries. A city
/// per seed would put the spread between cities — mean journey length
/// moves by a quarter between two random sets of hub pairs — into every
/// metric, far above any regression bound worth having.
pub const CITY_SEED: u64 = 2014;

/// The road network: a jittered grid with a few streets removed.
pub fn make_network(nx: usize) -> Arc<RoadNetwork> {
    Arc::new(grid_network(&GridConfig {
        nx,
        ny: nx,
        spacing: 150.0,
        weight_jitter: 0.15,
        removal_prob: 0.02,
        seed: CITY_SEED,
    }))
}

/// A population of journeys over `net`.
pub fn make_records(
    net: &Arc<RoadNetwork>,
    sp: &Arc<dyn SpProvider>,
    count: usize,
) -> Vec<TrajectoryRecord> {
    Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: count,
            seed: CITY_SEED,
            min_trip_edges: 15,
            ..WorkloadConfig::default()
        },
    )
    .records
}

/// A run's draw of `count` journeys for one stage: the stage's slice of
/// the population is the leading `count / 0.9` journeys, the seed
/// shuffles that slice and so leaves a tenth of it out, and each drawn
/// journey's GPS noise is reseeded. Two seeds give different inputs, but
/// nine tenths of the journeys are shared, which keeps what a stage
/// measures from moving with the luck of the draw (forty journeys drawn
/// freely from a thousand moved `ingest_fixes_per_s` by 14 % between
/// seeds; the machine's own noise is half that).
pub fn draw_journeys(
    population: &[TrajectoryRecord],
    count: usize,
    seed: u64,
) -> Vec<TrajectoryRecord> {
    let slice = (count * 10).div_ceil(9).min(population.len());
    assert!(count <= slice, "population too small for a draw of {count}");
    let mut rng = StdRng::seed_from_u64(seed ^ count as u64);
    let mut drawn = population[..slice].to_vec();
    for i in (1..drawn.len()).rev() {
        drawn.swap(i, rng.gen_range(0..=i));
    }
    drawn.truncate(count);
    for r in &mut drawn {
        r.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    drawn
}

/// A set-up's time at the nominal kernel cost: the sum of its steps,
/// each scaled by the calibrations around it. A set-up cannot set a
/// step aside, so a step the box changed speed in counts with the mean
/// of the two.
fn scaled_total(steps: &[Sample]) -> f64 {
    steps.iter().map(|s| s.scaled_s).sum()
}

/// Times of the shortest-path set-up.
#[derive(Clone, Copy, Debug)]
pub struct SpTimes {
    pub build: Sample,
    pub save: Sample,
    pub graph_load: Sample,
    pub open_mapped: Sample,
}

impl SpTimes {
    pub fn total_s(&self) -> f64 {
        scaled_total(&[self.build, self.save, self.graph_load, self.open_mapped])
    }
}

/// The serving-side shortest-path artifacts: the network loaded back
/// from disk and the hub labels opened through the mapped tier, as a
/// serving process has them.
pub struct SpSetup {
    pub net: Arc<RoadNetwork>,
    pub sp: Arc<dyn SpProvider>,
    pub net_path: PathBuf,
    pub hl_path: PathBuf,
    pub times: SpTimes,
}

/// Builds the hub labels for `generated`, persists network and labels,
/// and reopens both from disk.
pub fn setup_sp(generated: &Arc<RoadNetwork>, dir: &Path, tag: &str, threads: usize) -> SpSetup {
    let net_path = dir.join(format!("network.{tag}.press"));
    let hl_path = dir.join(format!("sp_hl.{tag}.press"));
    let mut watch = Stopwatch::start();
    let built = HubLabels::build_with_threads(generated.clone(), threads);
    let build = watch.lap();
    generated.save_to(&net_path).expect("save network");
    built.save_to(&hl_path).expect("save hub labels");
    drop(built);
    let save = watch.lap();
    let net = load_network(&net_path);
    let graph_load = watch.lap();
    let sp = open_hub_labels(&net, &hl_path);
    let open_mapped = watch.lap();
    SpSetup {
        net,
        sp,
        net_path,
        hl_path,
        times: SpTimes {
            build,
            save,
            graph_load,
            open_mapped,
        },
    }
}

pub fn load_network(path: &Path) -> Arc<RoadNetwork> {
    Arc::new(RoadNetwork::load_from(path).expect("load network"))
}

pub fn open_hub_labels(net: &Arc<RoadNetwork>, path: &Path) -> Arc<dyn SpProvider> {
    Arc::new(HubLabels::open_mapped(net.clone(), path).expect("open hub labels mapped"))
}

pub fn load_model(sp: &Arc<dyn SpProvider>, path: &Path) -> Press {
    let model = HscModel::load_from(sp.clone(), path).expect("load model");
    Press::with_model(Arc::new(model), press_config())
}

pub fn open_store(path: &Path) -> TrajectoryStore {
    TrajectoryStore::open_mapped(path).expect("open corpus mapped")
}

#[derive(Clone, Copy, Debug)]
pub struct ModelTimes {
    pub train: Sample,
    pub save: Sample,
    pub load: Sample,
}

impl ModelTimes {
    pub fn total_s(&self) -> f64 {
        scaled_total(&[self.train, self.save, self.load])
    }
}

pub struct ModelSetup {
    /// The compressor over the model loaded back from disk.
    pub press: Press,
    pub path: PathBuf,
    pub times: ModelTimes,
}

/// Trains on `train_paths`, persists the model and loads it back.
pub fn setup_model(
    sp: &Arc<dyn SpProvider>,
    train_paths: &[Vec<EdgeId>],
    dir: &Path,
    tag: &str,
) -> ModelSetup {
    let path = dir.join(format!("model.{tag}.press"));
    let mut watch = Stopwatch::start();
    let trained = Press::train(sp.clone(), train_paths, press_config()).expect("train");
    let train = watch.lap();
    trained.model().save_to(&path).expect("save model");
    drop(trained);
    let save = watch.lap();
    let press = load_model(sp, &path);
    let load = watch.lap();
    ModelSetup {
        press,
        path,
        times: ModelTimes { train, save, load },
    }
}

#[derive(Clone, Copy, Debug)]
pub struct StoreTimes {
    pub create: Sample,
    pub bytes: u64,
    pub open_mapped: Sample,
}

impl StoreTimes {
    pub fn total_s(&self) -> f64 {
        scaled_total(&[self.create, self.open_mapped])
    }
}

pub struct StoreSetup {
    pub store: TrajectoryStore,
    pub path: PathBuf,
    pub times: StoreTimes,
}

/// Writes `corpus` as a block store and opens it mapped.
pub fn setup_store(
    press: &Press,
    corpus: &[CompressedTrajectory],
    dir: &Path,
    tag: &str,
) -> StoreSetup {
    let path = dir.join(format!("corpus.{tag}.press"));
    let engine = QueryEngine::new(press.model());
    let mut watch = Stopwatch::start();
    TrajectoryStore::create(&path, &engine, corpus, BLOCK_SIZE).expect("create corpus");
    let create = watch.lap();
    let store = open_store(&path);
    let open_mapped = watch.lap();
    let bytes = std::fs::metadata(&path).expect("stat corpus").len();
    StoreSetup {
        store,
        path,
        times: StoreTimes {
            create,
            bytes,
            open_mapped,
        },
    }
}

/// The fleet's GPS stream: one vehicle per record at 1 s sampling with
/// 4 m noise, starts staggered 29 s apart, merged by timestamp. The
/// generator closes a trace with a fix at the journey's exact end, which
/// can fall milliseconds after the last 1 s tick; a 1 Hz logger emits no
/// such fix (and the engine would quarantine it as a teleport), so a fix
/// less than half a second after its predecessor is left out.
pub fn fleet_events(net: &RoadNetwork, records: &[TrajectoryRecord]) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::new();
    for (v, record) in records.iter().enumerate() {
        let mut last_t = f64::NEG_INFINITY;
        for p in &record.gps_trace(net, 1.0, 4.0).points {
            if p.t - last_t < 0.5 {
                continue;
            }
            last_t = p.t;
            events.push((
                v as u64,
                GpsSample {
                    point: p.point,
                    t: p.t + v as f64 * 29.0,
                },
            ));
        }
    }
    events.sort_by(|a, b| a.1.t.total_cmp(&b.1.t).then(a.0.cmp(&b.0)));
    events
}

/// The same stream `dt` seconds later.
pub fn shifted(events: &[Event], dt: f64) -> Vec<Event> {
    events
        .iter()
        .map(|&(v, s)| (v, GpsSample { t: s.t + dt, ..s }))
        .collect()
}

/// A corpus of `len` trajectories: `pool` compressed at 10 s sampling,
/// then cloned with start times [`CORPUS_STAGGER_S`] apart, so blocks
/// cover tight time windows the way fleet ingest lays them out.
pub fn make_corpus(
    press: &Press,
    pool: &[TrajectoryRecord],
    len: usize,
) -> Vec<CompressedTrajectory> {
    let pool: Vec<CompressedTrajectory> = pool
        .iter()
        .map(|r| {
            press
                .compress(&r.truth_trajectory(10.0))
                .expect("compress pool")
        })
        .collect();
    (0..len)
        .map(|k| {
            let ct = &pool[k % pool.len()];
            let dt = k as f64 * CORPUS_STAGGER_S;
            CompressedTrajectory {
                spatial: ct.spatial.clone(),
                temporal: TemporalSequence::new_unchecked(
                    ct.temporal
                        .points
                        .iter()
                        .map(|p| DtPoint::new(p.d, p.t + dt))
                        .collect(),
                ),
            }
        })
        .collect()
}

/// Stream time the corpus covers.
pub fn corpus_horizon(len: usize) -> f64 {
    len as f64 * CORPUS_STAGGER_S + 600.0
}

/// How the read stage probes the corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Dashboard traffic: three tenths range probes three blocks of
    /// stream time wide over a third of the map, a fifth of them aimed
    /// past the horizon, the rest split between `whenat` and `whereat`;
    /// half of all queries replayed from 256 hotspots. A point query
    /// takes microseconds and a range probe hundreds of them, so with
    /// the two in equal parts the median query sat on the cliff between
    /// them and `query_p50_us` doubled from one seed to the next; at
    /// three tenths the median is a point query and the 99th percentile
    /// a range probe, whatever the seed draws.
    Selective,
    /// Range probes only, `blocks` blocks of stream time wide over most
    /// of the map, every one fresh and inside the horizon: nothing for
    /// the index to prune beyond the time window.
    Scan { blocks: usize },
}

/// The `count` queries of a run. `query_mix` draws each query's kind at
/// random, so the share of range probes — a hundred times the cost of a
/// point query — moved by a tenth from seed to seed and took `query_qps`
/// and `query_p50_us` with it. The generator is therefore asked for
/// twice as many queries, and the first of each kind are kept, in the
/// order drawn, until every kind has exactly its share of `count`: the
/// seed still decides every query, not how many of each kind there are.
pub fn make_queries(
    mix: Mix,
    count: usize,
    bbox: Mbr,
    corpus_len: usize,
    seed: u64,
) -> Vec<StoreQuery> {
    let horizon = corpus_horizon(corpus_len);
    let window = |blocks: usize| (BLOCK_SIZE * blocks) as f64 * CORPUS_STAGGER_S / horizon;
    let base = QueryMixConfig {
        num_queries: 2 * count,
        seed,
        bbox,
        t_min: 0.0,
        t_max: horizon,
        num_trajectories: corpus_len,
        ..QueryMixConfig::default()
    };
    let cfg = match mix {
        Mix::Selective => QueryMixConfig {
            range_fraction: 0.3,
            window_fraction: window(3),
            region_fraction: 0.3,
            miss_fraction: 0.2,
            hotspot_fraction: 0.5,
            hotspot_pool: 256,
            ..base
        },
        Mix::Scan { blocks } => QueryMixConfig {
            range_fraction: 1.0,
            window_fraction: window(blocks),
            region_fraction: 0.6,
            miss_fraction: 0.0,
            hotspot_fraction: 0.0,
            hotspot_pool: 1,
            ..base
        },
    };
    // Kinds: range probe inside the horizon, range probe past it,
    // `whenat`, `whereat`.
    let kind = |q: &StoreQuery| match *q {
        StoreQuery::Range { t1, .. } if t1 <= horizon => 0,
        StoreQuery::Range { .. } => 1,
        StoreQuery::WhenAt { .. } => 2,
        StoreQuery::WhereAt { .. } => 3,
    };
    let share = |fraction: f64| (count as f64 * fraction).round() as usize;
    let ranges = share(cfg.range_fraction);
    let past = share(cfg.range_fraction * cfg.miss_fraction);
    let whenat = (count - ranges) / 2;
    let mut left = [ranges - past, past, whenat, count - ranges - whenat];
    let queries: Vec<StoreQuery> = query_mix(&cfg)
        .into_iter()
        .filter(|q| {
            let slot = &mut left[kind(q)];
            let keep = *slot > 0;
            *slot -= usize::from(keep);
            keep
        })
        .collect();
    assert!(
        queries.len() == count,
        "the query generator ran short of a kind: {left:?} left of {count}"
    );
    queries
}

/// CRC32 over the bytes of everything generated from the seed, so two
/// runs can be shown to have measured the same inputs.
pub fn fixture_hash(net: &RoadNetwork, events: &[Event], queries: &[StoreQuery]) -> u32 {
    let mut bytes = net.to_store_bytes();
    for (v, s) in events {
        bytes.extend_from_slice(&v.to_le_bytes());
        for f in [s.point.x, s.point.y, s.t] {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
    }
    bytes.extend_from_slice(format!("{queries:?}").as_bytes());
    crc32(&bytes)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Core count, CPU model and commit of the run, for the report header.
pub fn machine() -> (usize, String, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (cores, cpu, git_commit().unwrap_or_else(|| "unknown".into()))
}

/// `HEAD` of the repository above the working directory, read from
/// `.git` directly (the driver's checkout has none, and the benchmark
/// starts no process it does not have to).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(Path::new(".git").join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}
