//! The `run_apps` and `run_durable` workloads: closed-loop controller
//! runs over the ten workloads, built exactly as `mct run` builds them.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use memory_cocktail_therapy::framework::{
    ConfigSpace, Controller, ControllerConfig, ModelKind, Objective, Outcome, PersistConfig,
};
use memory_cocktail_therapy::sim::trace::AccessSource;
use memory_cocktail_therapy::telemetry::VecRecorder;
use memory_cocktail_therapy::workloads::{Workload, WorkloadSource};

use crate::calib::Reference;
use crate::layers::{CountingSource, Layers};
use crate::{json_str, peak_rss_kb};

/// `mct run`'s default instruction budget.
const RUN_INSTS: u64 = 3_000_000;
/// `mct run`'s default lifetime target, years.
const TARGET_YEARS: f64 = 8.0;
/// Untraced iteration `i` runs on input seed `seed + i % INPUT_SEEDS`.
/// The work of a run depends on its inputs, so one seed alone would make
/// a measurement a sample of one; cycling repeats each input, which the
/// repeat check needs.
const INPUT_SEEDS: usize = 4;

/// Options of the `apps` mode.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Parent of the per-iteration persistence state dirs.
    pub state_root: PathBuf,
    /// `run_durable`: each run persists to a fresh store and is followed
    /// by a warm-started run on that store.
    pub durable: bool,
    /// Test hook: perturb one repeat's reported IPC so the repeat check
    /// has a mismatch to catch.
    pub inject_mismatch: bool,
}

#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Fresh,
    Resume,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Fresh => "fresh",
            Mode::Resume => "resume",
        }
    }
}

struct Job {
    app: Workload,
    mode: Mode,
    controller: Controller,
    source: WorkloadSource,
    recorder: Option<Arc<Mutex<VecRecorder>>>,
}

fn controller_for(app: Workload, seed: u64, persist: Option<PersistConfig>) -> Controller {
    let mut cfg = ControllerConfig::paper_scaled();
    cfg.model = ModelKind::GradientBoosting;
    cfg.total_insts = RUN_INSTS;
    cfg.warmup_insts = app.warmup_insts();
    cfg.seed = seed;
    cfg.persist = persist;
    Controller::new(cfg, Objective::paper_default(TARGET_YEARS))
}

/// Build one iteration's controllers and sources (the timed set-up).
fn build_jobs(opts: &Options, seed: u64, dir: &Path, traced: bool) -> Result<Vec<Job>, String> {
    let modes: &[Mode] = if opts.durable {
        &[Mode::Fresh, Mode::Resume]
    } else {
        &[Mode::Plain]
    };
    let mut jobs = Vec::new();
    for app in Workload::all() {
        let store = dir.join(app.name());
        for &mode in modes {
            let store_path = store.to_string_lossy().into_owned();
            let persist = match mode {
                Mode::Plain => None,
                Mode::Fresh => {
                    fs::create_dir_all(&store)
                        .map_err(|e| format!("create {}: {e}", store.display()))?;
                    Some(PersistConfig::fresh(store_path))
                }
                Mode::Resume => Some(PersistConfig::resume_from(store_path)),
            };
            let mut controller = controller_for(app, seed, persist);
            let recorder = traced.then(VecRecorder::shared);
            if let Some(r) = &recorder {
                controller = controller.with_recorder(r.clone());
            }
            jobs.push(Job {
                app,
                mode,
                controller,
                source: app.source(seed),
                recorder,
            });
        }
    }
    Ok(jobs)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn run_timed<S: AccessSource>(
    controller: &mut Controller,
    source: &mut S,
) -> (Result<Outcome, String>, u64) {
    // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| controller.run(source)))
        .map_err(|p| panic_message(p.as_ref()));
    (result, t.elapsed().as_micros() as u64)
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// One iteration: build the jobs, then run them in order. The traced
/// iteration runs on `opts.seed`, as iteration 0 does. The reference
/// kernel runs after the set-up and after each run; a run reports the
/// mean of the two around it, the set-up the first.
fn iteration(
    opts: &Options,
    iter: usize,
    traced: bool,
    space: &ConfigSpace,
    reference: &Reference,
) -> Result<(), String> {
    let dir = opts.state_root.join(format!("iter{iter}"));
    let seed = if traced {
        opts.seed
    } else {
        opts.seed.wrapping_add((iter % INPUT_SEEDS) as u64)
    };
    // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
    let setup = Instant::now();
    let jobs = build_jobs(opts, seed, &dir, traced)?;
    let setup_us = setup.elapsed().as_micros() as u64;

    let mut layers = Layers::default();
    let mut ref_before = reference.time_us();
    let setup_ref_us = ref_before;
    let mut wall_us = 0;
    for (i, mut job) in jobs.into_iter().enumerate() {
        let (result, us) = if traced {
            let mut source = CountingSource::new(job.source);
            let out = run_timed(&mut job.controller, &mut source);
            layers.add_source(&source);
            out
        } else {
            run_timed(&mut job.controller, &mut job.source)
        };
        wall_us += us;
        let ref_after = reference.time_us();
        let ref_us = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        let mut line = format!(
            "{{\"kind\":\"run\",\"iter\":{iter},\"traced\":{},\"app\":{},\"mode\":\"{}\",\"seed\":{seed},\"us\":{us},\"ref_us\":{ref_us},\"insts\":{}",
            u8::from(traced),
            json_str(job.app.name()),
            job.mode.name(),
            job.app.warmup_insts() + RUN_INSTS,
        );
        match &result {
            Ok(outcome) => {
                let mut ipc = outcome.final_metrics.ipc.to_bits();
                if opts.inject_mismatch && iter == INPUT_SEEDS && i == 0 {
                    ipc ^= 1;
                }
                line.push_str(&format!(
                    ",\"ok\":true,\"chosen\":{},\"in_space\":{},\"ipc\":{ipc},\"lifetime\":{},\"energy\":{}}}",
                    json_str(&outcome.chosen_config.to_string()),
                    space.position_of(&outcome.chosen_config).is_some(),
                    outcome.final_metrics.lifetime_years.to_bits(),
                    outcome.final_metrics.energy_j.to_bits(),
                ));
            }
            Err(msg) => line.push_str(&format!(",\"ok\":false,\"error\":{}}}", json_str(msg))),
        }
        println!("{line}");
        if let (Some(recorder), Ok(outcome)) = (&job.recorder, &result) {
            let rec = recorder
                .lock()
                .map_err(|_| "trace recorder poisoned".to_string())?;
            layers.add_run(rec.records(), rec.registry(), outcome, us);
        }
    }
    println!(
        "{{\"kind\":\"iter\",\"iter\":{iter},\"traced\":{},\"setup_us\":{setup_us},\"setup_ref_us\":{setup_ref_us},\"wall_us\":{wall_us}}}",
        u8::from(traced)
    );
    if traced {
        layers.store_bytes = dir_bytes(&dir);
        println!("{{\"kind\":\"layers\",\"metrics\":{}}}", layers.to_json());
    }
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Run untraced iterations until `opts.seconds` have passed (at least
/// one), then, if asked, one traced iteration.
pub fn run(opts: &Options) -> Result<(), String> {
    let space = ConfigSpace::full(TARGET_YEARS);
    let reference = Reference::new();
    // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
    let start = Instant::now();
    let mut iter = 0;
    while iter == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        iteration(opts, iter, false, &space, &reference)?;
        iter += 1;
    }
    if opts.traced {
        iteration(opts, iter, true, &space, &reference)?;
    }
    println!("{{\"kind\":\"rss\",\"peak_kb\":{}}}", peak_rss_kb());
    Ok(())
}
