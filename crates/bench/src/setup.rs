//! Shared experiment environment: one network, one workload, one trained
//! PRESS instance — mirroring the paper's setup of a fixed road network
//! (Singapore) and a trajectory corpus split into training and evaluation
//! (§6: "we take the trajectories corresponding to one day as a training
//! dataset").
//!
//! Environments on the hub labels can also **warm-start** from the
//! on-disk artifact tier ([`StoreMode`]): `Save` persists the network,
//! the labels and the trained HSC model after building; `Load` maps
//! them in a fresh process and skips the SP preprocessing and training
//! entirely. Loaded artifacts are bit-identical to built ones, so every
//! experiment produces the same numbers either way (the workload itself
//! is regenerated — it is seeded and cheap). The dense table is the
//! in-memory oracle and has no artifact: a dense environment is always
//! built, and asking it to save or load panics.

use press_core::{HscModel, Press, PressConfig, Trajectory};
use press_network::{HubLabels, RoadNetwork, SpBackend, SpProvider, SpTable};
use press_workload::{TrajectoryRecord, Workload, WorkloadConfig};
use std::path::Path;
use std::sync::Arc;

/// Experiment scale, selecting workload sizes so the quick mode finishes
/// in seconds and the full mode in minutes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly.
    Small,
    /// Paper-shaped sweeps.
    Full,
}

impl Scale {
    /// Number of trajectories in the workload.
    pub fn num_trajectories(self) -> usize {
        match self {
            Scale::Small => 150,
            Scale::Full => 600,
        }
    }
}

/// How an [`Env`] interacts with the on-disk artifact store. Every mode
/// but `None` needs [`SpBackend::Hl`]: the hub labels are the one SP
/// structure with an artifact.
#[derive(Clone, Copy, Debug, Default)]
pub enum StoreMode<'a> {
    /// Build everything in memory (the default).
    #[default]
    None,
    /// Build, then persist network / hub labels / trained model under
    /// the directory (one subdirectory per environment flavor).
    Save(&'a Path),
    /// Warm-start from the artifacts saved by a previous `Save` run, each
    /// opened as a read-only mapping: the hub labels' flat sections are
    /// borrowed in place (open cost is page faults, not decode).
    Load(&'a Path),
}

/// The hub labels' artifact inside an environment's store subdirectory.
const SP_FILE: &str = "sp_hl.press";

/// A ready-to-measure environment.
pub struct Env {
    pub net: Arc<RoadNetwork>,
    pub sp: Arc<dyn SpProvider>,
    pub workload: Workload,
    pub press: Press,
    /// Which SP backend `sp` is.
    pub backend: SpBackend,
    /// Fraction of records used for FST training.
    pub train_fraction: f64,
}

impl Env {
    /// Builds the standard environment: a jittered 16×16 grid (256 nodes,
    /// ~1.9k directed edges, 160 m blocks so trips span enough samples and
    /// coded units for the temporal and query sweeps), a Zipf-skewed
    /// workload, PRESS trained at θ = 3 with lossless temporal bounds.
    pub fn standard(scale: Scale, seed: u64) -> Env {
        Self::standard_sp_threads(scale, seed, SpBackend::Dense, StoreMode::None, 0)
    }

    /// [`Env::standard`] over an explicit SP backend, [`StoreMode`]
    /// (artifacts live under `<dir>/standard/`) and SP preprocessing
    /// worker count (0 = one per core). Thread count never changes any
    /// result — it only bounds build parallelism (e.g. on shared
    /// machines), so every experiment is reproducible regardless.
    pub fn standard_sp_threads(
        scale: Scale,
        seed: u64,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
    ) -> Env {
        let grid = press_network::GridConfig {
            nx: 16,
            ny: 16,
            spacing: 160.0,
            weight_jitter: 0.15,
            removal_prob: 0.03,
            seed,
        };
        let wl = WorkloadConfig {
            num_trajectories: scale.num_trajectories(),
            seed,
            min_trip_edges: 12,
            ..WorkloadConfig::default()
        };
        Self::build_env(grid, wl, backend, store, sp_threads, "standard")
    }

    /// A larger environment with **long-haul** trips (32×32 grid, minimum
    /// 40-edge journeys, dense 5 s sampling) for the query-performance
    /// experiments (Figs. 15–17): the paper's query speed-ups come from
    /// skipping coded units, which needs trajectories long enough that the
    /// α·γ·β factors dominate the per-query constants.
    pub fn long_haul(scale: Scale, seed: u64) -> Env {
        Self::long_haul_sp_threads(scale, seed, SpBackend::Dense, StoreMode::None, 0)
    }

    /// [`Env::long_haul`] over an explicit SP backend, [`StoreMode`]
    /// (artifacts live under `<dir>/long_haul/`) and SP preprocessing
    /// worker count (0 = one per core); see [`Env::standard_sp_threads`].
    pub fn long_haul_sp_threads(
        scale: Scale,
        seed: u64,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
    ) -> Env {
        let grid = press_network::GridConfig {
            nx: 32,
            ny: 32,
            spacing: 160.0,
            weight_jitter: 0.15,
            removal_prob: 0.03,
            seed,
        };
        let wl = WorkloadConfig {
            num_trajectories: match scale {
                Scale::Small => 80,
                Scale::Full => 300,
            },
            seed,
            min_trip_edges: 40,
            sampling_interval: 5.0,
            ..WorkloadConfig::default()
        };
        Self::build_env(grid, wl, backend, store, sp_threads, "long_haul")
    }

    /// Configuration fingerprint persisted next to the artifacts: the
    /// grid, workload, and backend parameters the artifacts were built
    /// under. A `Load` whose requested configuration fingerprints
    /// differently would silently produce results from mismatched
    /// artifacts, so it is rejected instead.
    fn provenance_bytes(grid: &press_network::GridConfig, wl: &WorkloadConfig) -> Vec<u8> {
        let mut w = press_store::ByteWriter::with_capacity(96);
        w.put_u64(grid.nx as u64);
        w.put_u64(grid.ny as u64);
        w.put_f64(grid.spacing);
        w.put_f64(grid.weight_jitter);
        w.put_f64(grid.removal_prob);
        w.put_u64(grid.seed);
        w.put_u64(wl.num_trajectories as u64);
        w.put_u64(wl.seed);
        w.put_u64(wl.min_trip_edges as u64);
        w.put_f64(wl.sampling_interval);
        // The backend tag is 3, the hub labels. Tags 0–2 are retired (0
        // was the dense table, 2 the deleted contraction-hierarchy
        // backend) and never reissued, and the second word, a retired
        // backend parameter, is always 0: the bytes stay what they were,
        // so directories saved earlier still load.
        w.put_u64(3);
        w.put_u64(0);
        w.into_bytes()
    }

    /// Shared construction: network → SP provider → workload → trained
    /// PRESS, with the network / hub labels / model either built (and
    /// optionally saved) or warm-started from a store directory.
    fn build_env(
        grid: press_network::GridConfig,
        wl: WorkloadConfig,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
        flavor: &str,
    ) -> Env {
        let fail = |what: &str, e: press_store::StoreError| -> ! {
            panic!("artifact store: cannot {what} for the {flavor} environment: {e}")
        };
        assert!(
            matches!(store, StoreMode::None) || backend == SpBackend::Hl,
            "artifact store: the dense SP table is built in memory only and has no \
             artifact; save or load the {flavor} environment on the hub labels (--hl)"
        );
        let provenance = Self::provenance_bytes(&grid, &wl);
        let (net, hl, loaded_model) = match store {
            StoreMode::Load(base) => {
                let dir = base.join(flavor);
                let meta = press_store::StoreFile::open_mapped(&dir.join("env_meta.press"))
                    .unwrap_or_else(|e| fail("read the environment provenance", e));
                let saved = meta
                    .expect_kind(press_store::kind::META)
                    .and_then(|()| meta.section("provenance"))
                    .unwrap_or_else(|e| fail("read the environment provenance", e));
                assert!(
                    saved == provenance.as_slice(),
                    "artifact store: {} was saved under a different seed, scale, grid, \
                     workload, or SP backend than this run requests; rebuild it with \
                     --save-dir using the same flags",
                    dir.display()
                );
                let net = Arc::new(
                    RoadNetwork::load_from(&dir.join("network.press"))
                        .unwrap_or_else(|e| fail("load the network", e)),
                );
                let sp_path = dir.join(SP_FILE);
                let hl = Arc::new(
                    HubLabels::open_mapped(net.clone(), &sp_path)
                        .unwrap_or_else(|e| fail("map the hub labels", e)),
                );
                let model = HscModel::load_from(hl.clone(), &dir.join("hsc.press"))
                    .unwrap_or_else(|e| fail("load the HSC model", e));
                (net, Some(hl), Some(model))
            }
            _ => {
                let net = Arc::new(press_network::grid_network(&grid));
                let hl = (backend == SpBackend::Hl)
                    .then(|| Arc::new(HubLabels::build_with_threads(net.clone(), sp_threads)));
                (net, hl, None)
            }
        };
        // `hl` is `None` exactly for the dense backend.
        let sp: Arc<dyn SpProvider> = match &hl {
            Some(hl) => hl.clone(),
            None => Arc::new(SpTable::build(net.clone())),
        };
        let workload = Workload::generate(net.clone(), sp.clone(), wl);
        let train_fraction = 0.3;
        let press = match loaded_model {
            Some(model) => Press::with_model(Arc::new(model), PressConfig::default()),
            None => {
                let (train, _) = workload.split(train_fraction);
                let training_paths: Vec<Vec<press_network::EdgeId>> =
                    train.iter().map(|r| r.path.clone()).collect();
                Press::train(sp.clone(), &training_paths, PressConfig::default()).expect("training")
            }
        };
        if let (StoreMode::Save(base), Some(hl)) = (store, &hl) {
            let dir = base.join(flavor);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| fail("create the store directory", e.into()));
            net.save_to(&dir.join("network.press"))
                .unwrap_or_else(|e| fail("save the network", e));
            hl.save_to(&dir.join(SP_FILE))
                .unwrap_or_else(|e| fail("save the hub labels", e));
            press
                .model()
                .save_to(&dir.join("hsc.press"))
                .unwrap_or_else(|e| fail("save the HSC model", e));
            let mut w = press_store::StoreWriter::new(press_store::kind::META);
            w.section("provenance", provenance);
            w.write_to(&dir.join("env_meta.press"))
                .unwrap_or_else(|e| fail("save the environment provenance", e));
        }
        Env {
            net,
            sp,
            workload,
            press,
            backend,
            train_fraction,
        }
    }

    /// Evaluation records (those not used for training).
    pub fn eval_records(&self) -> &[TrajectoryRecord] {
        self.workload.split(self.train_fraction).1
    }

    /// Training records.
    pub fn train_records(&self) -> &[TrajectoryRecord] {
        self.workload.split(self.train_fraction).0
    }

    /// Evaluation trajectories at the workload's default sampling interval.
    pub fn eval_trajectories(&self) -> Vec<Trajectory> {
        let interval = self.workload.config.sampling_interval;
        self.eval_records()
            .iter()
            .map(|r| r.truth_trajectory(interval))
            .collect()
    }

    /// Mean travel speed of the workload (m/s) — used to map TSED budgets
    /// to NSTD seconds in Fig. 14's axis conversion.
    pub fn mean_speed(&self) -> f64 {
        let mut dist = 0.0;
        let mut time = 0.0;
        for r in &self.workload.records {
            dist += r.profile.total_distance();
            time += r.profile.duration();
        }
        if time <= 0.0 {
            1.0
        } else {
            dist / time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hl_env_matches_dense_env() {
        // Same seed, different backend: identical workload, identical
        // compression output.
        let dense = Env::standard(Scale::Small, 5);
        let hl = Env::standard_sp_threads(Scale::Small, 5, SpBackend::Hl, StoreMode::None, 0);
        assert_eq!(dense.workload.records.len(), hl.workload.records.len());
        for (a, b) in dense.workload.records.iter().zip(&hl.workload.records) {
            assert_eq!(a.path, b.path);
        }
        for (ta, tb) in dense
            .eval_trajectories()
            .iter()
            .zip(&hl.eval_trajectories())
            .take(10)
        {
            let ca = dense.press.compress(ta).unwrap();
            let cb = hl.press.compress(tb).unwrap();
            assert_eq!(ca, cb, "HL must produce identical compression to dense");
        }
    }

    #[test]
    fn standard_env_builds_and_splits() {
        let env = Env::standard(Scale::Small, 7);
        assert!(!env.eval_records().is_empty());
        assert!(!env.train_records().is_empty());
        assert_eq!(
            env.eval_records().len() + env.train_records().len(),
            env.workload.records.len()
        );
        assert!(env.mean_speed() > 1.0 && env.mean_speed() < 40.0);
        let trajs = env.eval_trajectories();
        assert_eq!(trajs.len(), env.eval_records().len());
    }

    #[test]
    #[should_panic(expected = "saved under a different seed")]
    fn warm_start_rejects_mismatched_provenance() {
        let dir = std::env::temp_dir().join(format!("press-env-prov-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = Env::standard_sp_threads(Scale::Small, 5, SpBackend::Hl, StoreMode::Save(&dir), 0);
        // Different seed: the artifacts on disk do not describe this run.
        let _ = Env::standard_sp_threads(Scale::Small, 6, SpBackend::Hl, StoreMode::Load(&dir), 0);
    }

    #[test]
    #[should_panic(expected = "dense SP table is built in memory only")]
    fn dense_env_has_no_artifact() {
        let dir = std::env::temp_dir().join(format!("press-env-dense-{}", std::process::id()));
        let _ =
            Env::standard_sp_threads(Scale::Small, 5, SpBackend::Dense, StoreMode::Save(&dir), 0);
    }

    #[test]
    fn saved_then_loaded_env_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("press-env-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = SpBackend::Hl;
        let built = Env::standard_sp_threads(Scale::Small, 5, backend, StoreMode::Save(&dir), 0);
        let warm = Env::standard_sp_threads(Scale::Small, 5, backend, StoreMode::Load(&dir), 0);
        // The same artifacts read from bytes (the hub labels' verifying
        // load): mapped ≡ from_store_bytes ≡ built.
        let sub = dir.join("standard");
        let read = |name: &str| std::fs::read(sub.join(name)).unwrap();
        let net = Arc::new(RoadNetwork::from_store_bytes(read("network.press")).unwrap());
        let hl = Arc::new(HubLabels::from_store_bytes(net, read(SP_FILE)).unwrap());
        let model = HscModel::from_store_bytes(hl, read("hsc.press")).unwrap();
        let from_bytes = Press::with_model(Arc::new(model), PressConfig::default());
        assert_eq!(built.workload.records.len(), warm.workload.records.len());
        for (ta, tb) in built
            .eval_trajectories()
            .iter()
            .zip(&warm.eval_trajectories())
            .take(8)
        {
            assert_eq!(ta, tb, "workload must regenerate identically");
            let ca = built.press.compress(ta).unwrap();
            let cb = warm.press.compress(tb).unwrap();
            let cc = from_bytes.compress(ta).unwrap();
            assert_eq!(ca, cb, "warm start must compress identically");
            assert_eq!(ca, cc, "the bytes load must compress identically");
            assert_eq!(
                built.press.decompress(&ca).unwrap().path,
                warm.press.decompress(&cb).unwrap().path
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
