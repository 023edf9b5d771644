//! Library implementations of every experiment stage.
//!
//! Each stage renders its report into a caller-provided writer: the
//! per-figure binaries pass a locked stdout, while `run_all` captures
//! each stage into a buffer (mirrored to `data/out/<stage>.txt`).
//! Running the stages in one process is what makes the pipeline-scale
//! machinery pay off — every stage shares the same warm-rig pool
//! ([`crate::runner::shared_rig`]), the same grain/derived caches
//! ([`crate::cache`]), and the same work-stealing scheduler
//! ([`crate::sched`]), none of which survive a process boundary.

use std::io::{self, Write};

use mct_core::predictor::LIFETIME_CLAMP_YEARS;
use mct_core::{Controller, ControllerConfig, MetricsPredictor, ModelKind, Objective, Outcome};
use mct_ml::coefficient_of_determination;
use mct_workloads::Workload;

use serde::Content;

use crate::cache::{
    derived_key, derived_store, load_or_compute_sweeps, Store, SweepDataset, SweepRequest,
};
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;
use crate::sched::default_workers;

pub mod calibrate;
pub mod config_space;
pub mod extensions;
pub mod figure1;
pub mod figure10;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod table4;
pub mod table6;

/// A runnable experiment stage.
pub type StageFn = fn(Scale, &mut dyn Write) -> io::Result<()>;

/// Every stage in `run_all` order: (name, entry point).
pub const STAGES: &[(&str, StageFn)] = &[
    ("config_space", config_space::run),
    ("calibrate", calibrate::run),
    ("table4", table4::run),
    ("figure1", figure1::run),
    ("table6", table6::run),
    ("figure2", figure2::run),
    ("figure3", figure3::run),
    ("figure4", figure4::run),
    ("figure6", figure6::run),
    ("figure7", figure7::run),
    ("figure8", figure8::run),
    ("figure9", figure9::run),
    ("figure10", figure10::run),
    ("extensions", extensions::run),
];

/// One controller run a figure asks for: a workload, the learner, the
/// instruction budget and the lifetime target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctRun {
    /// The workload the controller runs on.
    pub workload: Workload,
    /// The learner it samples and fits with.
    pub kind: ModelKind,
    /// Total instructions of the run.
    pub total_insts: u64,
    /// Lifetime target of the objective, in years.
    pub target_years: f64,
}

impl MctRun {
    /// Derived-store address of this run at `seed`.
    fn key(&self, seed: u64) -> u64 {
        let w = self.workload;
        derived_key(
            &format!("mct_run/{}/{}", w.name(), self.kind.label()),
            seed,
            &[
                self.total_insts as f64,
                w.warmup_insts() as f64,
                self.target_years,
            ],
        )
    }

    fn run(&self, seed: u64) -> Outcome {
        let mut cfg = ControllerConfig::paper_scaled();
        cfg.model = self.kind;
        cfg.total_insts = self.total_insts;
        cfg.warmup_insts = self.workload.warmup_insts();
        let mut controller = Controller::new(cfg, Objective::paper_default(self.target_years));
        controller.run(&mut self.workload.source(seed))
    }
}

/// Run the MCT controller for every request through `store`, hits first:
/// only the runs not cached yet fan out over `workers` threads, and each
/// is recorded as it finishes. figure7 and figure9 request the identical
/// gradient-boosting runs and share one execution, and a warm rerun
/// serves every outcome from disk. Outcomes are index-parallel with
/// `runs` and bit-identical at any worker count.
#[must_use]
pub fn mct_outcomes(
    runs: &[MctRun],
    store: &Store<Content>,
    seed: u64,
    workers: usize,
) -> Vec<Outcome> {
    let items: Vec<(u64, MctRun)> = runs.iter().map(|r| (r.key(seed), *r)).collect();
    store.get_or_compute_batch(&items, workers, |r| r.run(seed))
}

/// Measure the *deployment* of each run's chosen configuration with the
/// same long-window methodology as the default/static/ideal references.
/// The paper's testing period is 2B instructions — long enough that
/// short-window drain artifacts vanish; our scaled windows are not, so
/// the deployed choice is re-measured on the shared rig (the
/// runtime-overhead story lives in figure9).
///
/// The runs go through [`mct_outcomes`], then all deployments through
/// one sweep round. `runs` come in groups of `per` consecutive runs on
/// one workload; each group yields one dataset, configs in run order.
pub(crate) fn deployed_choices(runs: &[MctRun], per: usize, scale: Scale) -> Vec<SweepDataset> {
    let store = derived_store(scale, EXPERIMENT_SEED);
    let outcomes = mct_outcomes(runs, &store, EXPERIMENT_SEED, default_workers());
    let requests: Vec<SweepRequest> = runs
        .chunks(per)
        .zip(outcomes.chunks(per))
        .map(|(group, chosen)| SweepRequest {
            workload: group[0].workload,
            configs: chosen.iter().map(|o| o.chosen_config).collect(),
        })
        .collect();
    load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED)
}

/// R^2 of one fitted predictor on the `eval` rows of `ds`, for IPC,
/// lifetime and energy (paper Eq. 3), with the truth clamped at
/// [`LIFETIME_CLAMP_YEARS`]. A fit trains all three objectives at once,
/// so every accuracy figure scores them from one fit instead of
/// refitting per objective.
pub(crate) fn objective_r2(
    predictor: &MetricsPredictor,
    ds: &SweepDataset,
    eval: impl Iterator<Item = usize>,
) -> [f64; 3] {
    let (mut preds, mut truth): ([Vec<f64>; 3], [Vec<f64>; 3]) = Default::default();
    for i in eval {
        let p = predictor.predict(&ds.configs[i]).to_array();
        let t = ds.metrics[i].to_array();
        for dim in 0..3 {
            preds[dim].push(p[dim]);
            truth[dim].push(t[dim].min(LIFETIME_CLAMP_YEARS));
        }
    }
    std::array::from_fn(|dim| coefficient_of_determination(&preds[dim], &truth[dim]))
}

/// Geometric mean (shared by several figures' headline numbers).
pub(crate) fn geomean(vals: &[f64]) -> f64 {
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}
