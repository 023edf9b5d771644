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

use crate::cache::{derived_key, derived_store, SweepDataset};
use crate::scale::Scale;

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

/// Run the MCT controller for one (workload, model, budget, target)
/// through the derived-result cache: figure7 and figure9 request the
/// identical gradient-boosting run and share one execution, and a warm
/// rerun serves every controller outcome from disk.
pub(crate) fn cached_mct_outcome(
    w: Workload,
    kind: ModelKind,
    total_insts: u64,
    target_years: f64,
    scale: Scale,
    seed: u64,
) -> Outcome {
    let store = derived_store(scale, seed);
    let key = derived_key(
        &format!("mct_run/{}/{}", w.name(), kind.label()),
        seed,
        &[total_insts as f64, w.warmup_insts() as f64, target_years],
    );
    store.get_or_compute(key, || {
        let mut cfg = ControllerConfig::paper_scaled();
        cfg.model = kind;
        cfg.total_insts = total_insts;
        cfg.warmup_insts = w.warmup_insts();
        let mut controller = Controller::new(cfg, Objective::paper_default(target_years));
        controller.run(&mut w.source(seed))
    })
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
