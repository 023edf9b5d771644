//! Parallel sweeps must be bit-identical to a serial measurement loop.
//!
//! The sweep engine hands disjoint `&mut` result chunks to scoped
//! threads; nothing about scheduling may leak into the physics. This
//! test measures 64+ configurations serially on one warmed rig, then
//! replays the same sweep at several worker counts and demands
//! bit-for-bit equal metrics.

use mct_core::{ConfigSpace, NvmConfig};
use mct_experiments::{par_map, sweep_with_threads, Scale, WarmedRig, EXPERIMENT_SEED};
use mct_sim::FaultPlan;
use mct_workloads::Workload;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs this suite under --release"
)]
fn parallel_sweep_is_bit_identical_to_serial() {
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / 64).max(1);
    let configs: Vec<NvmConfig> = space
        .configs()
        .iter()
        .step_by(stride)
        .take(64)
        .copied()
        .collect();
    assert!(configs.len() >= 64, "need at least 64 configurations");

    // The reference: one warmed rig, measured strictly serially.
    let rig = WarmedRig::new(Workload::Gups, Scale::Quick, EXPERIMENT_SEED);
    let serial: Vec<_> = configs.iter().map(|c| rig.measure(c)).collect();

    for threads in [1usize, 2, 3, 8] {
        let par = sweep_with_threads(
            Workload::Gups,
            &configs,
            Scale::Quick,
            EXPERIMENT_SEED,
            threads,
        );
        assert_eq!(par.len(), serial.len(), "threads={threads}");
        for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
            assert_eq!(
                a.ipc.to_bits(),
                b.ipc.to_bits(),
                "ipc differs at config {i} with {threads} threads"
            );
            assert_eq!(
                a.lifetime_years.to_bits(),
                b.lifetime_years.to_bits(),
                "lifetime differs at config {i} with {threads} threads"
            );
            assert_eq!(
                a.energy_j.to_bits(),
                b.energy_j.to_bits(),
                "energy differs at config {i} with {threads} threads"
            );
        }
    }
}

/// The interleaved rig-set loop's contract, differential form: sweeps
/// whose config counts leave ragged trailing batches (smaller than the
/// rig-set batch size) must still be bit-identical to the serial
/// per-config loop at every worker count. Sizes 3 and 5 exercise a
/// single short batch; 19 exercises full batches plus a short tail.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs this suite under --release"
)]
fn ragged_rig_set_batches_sweep_bit_identical_to_serial() {
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / 19).max(1);
    let configs: Vec<NvmConfig> = space
        .configs()
        .iter()
        .step_by(stride)
        .take(19)
        .copied()
        .collect();
    let rig = WarmedRig::new(Workload::Stream, Scale::Quick, EXPERIMENT_SEED);
    for n in [3usize, 5, 19] {
        let serial: Vec<_> = configs[..n].iter().map(|c| rig.measure(c)).collect();
        for threads in [1usize, 2, 8] {
            let par = sweep_with_threads(
                Workload::Stream,
                &configs[..n],
                Scale::Quick,
                EXPERIMENT_SEED,
                threads,
            );
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(
                    a.ipc.to_bits(),
                    b.ipc.to_bits(),
                    "ipc differs at config {i} with n={n} threads={threads}"
                );
                assert_eq!(
                    a.lifetime_years.to_bits(),
                    b.lifetime_years.to_bits(),
                    "lifetime differs at config {i} with n={n} threads={threads}"
                );
                assert_eq!(
                    a.energy_j.to_bits(),
                    b.energy_j.to_bits(),
                    "energy differs at config {i} with n={n} threads={threads}"
                );
            }
        }
    }
}

/// The fault layer's zero-overhead contract, differential form: a rig
/// with an armed-but-*empty* [`FaultPlan`] must measure bit-identically
/// to an unarmed rig, at every worker count. Every fault hook is a
/// single `Option`-gated branch whose empty-runtime body draws nothing
/// and perturbs nothing, so the physics — and therefore every bit of
/// every metric — must match.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs this suite under --release"
)]
fn armed_empty_fault_plan_sweeps_bit_identical_to_unarmed() {
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / 32).max(1);
    let configs: Vec<NvmConfig> = space
        .configs()
        .iter()
        .step_by(stride)
        .take(32)
        .copied()
        .collect();

    let unarmed = WarmedRig::new(Workload::Gups, Scale::Quick, EXPERIMENT_SEED);
    let mut armed = WarmedRig::new(Workload::Gups, Scale::Quick, EXPERIMENT_SEED);
    armed.arm_faults(&FaultPlan::empty(42));

    for threads in [1usize, 2, 8] {
        let base = par_map(&configs, threads, |c| unarmed.measure(c));
        let faulted = par_map(&configs, threads, |c| armed.measure(c));
        for (i, (a, b)) in base.iter().zip(&faulted).enumerate() {
            assert_eq!(
                a.ipc.to_bits(),
                b.ipc.to_bits(),
                "ipc differs at config {i} with {threads} threads"
            );
            assert_eq!(
                a.lifetime_years.to_bits(),
                b.lifetime_years.to_bits(),
                "lifetime differs at config {i} with {threads} threads"
            );
            assert_eq!(
                a.energy_j.to_bits(),
                b.energy_j.to_bits(),
                "energy differs at config {i} with {threads} threads"
            );
        }
    }
}

/// Crash-safe persistence must have ZERO behavioral footprint: a
/// controller run with `persist: None` (the default everywhere) and a
/// run with a live state store attached must produce bit-identical
/// outcomes — the store only *observes* the decision sequence, it never
/// perturbs it. Differential companion to the kill-and-recover harness
/// (`tests/crash_recovery.rs` at the workspace root).
#[test]
fn persistence_observation_is_bit_invisible() {
    use mct_core::{Controller, ControllerConfig, Objective, Outcome, PersistConfig};

    fn run(persist: Option<PersistConfig>) -> Outcome {
        let mut cfg = ControllerConfig::quick_demo();
        cfg.seed = EXPERIMENT_SEED;
        cfg.persist = persist;
        let mut controller = Controller::new(cfg, Objective::paper_default(8.0));
        controller.run(&mut Workload::Ocean.source(EXPERIMENT_SEED))
    }

    fn assert_bits(label: &str, a: &Outcome, b: &Outcome) {
        assert_eq!(
            a.final_metrics.ipc.to_bits(),
            b.final_metrics.ipc.to_bits(),
            "{label}: IPC bits differ"
        );
        assert_eq!(
            a.final_metrics.lifetime_years.to_bits(),
            b.final_metrics.lifetime_years.to_bits(),
            "{label}: lifetime bits differ"
        );
        assert_eq!(
            a.final_metrics.energy_j.to_bits(),
            b.final_metrics.energy_j.to_bits(),
            "{label}: energy bits differ"
        );
        assert_eq!(a, b, "{label}: outcomes differ");
    }

    let bare = run(None);
    let bare_again = run(None);
    assert_bits("persist=None repeatability", &bare_again, &bare);

    let dir = mct_persist::TempDir::new("mct-determinism-persist");
    let observed = run(Some(PersistConfig::fresh(dir.path().display().to_string())));
    assert_bits("persist observation", &observed, &bare);
}

/// The controller-run fan-out must be invisible to the physics: a batch
/// of runs through [`mct_outcomes`] at 1 and at 2 workers returns exactly
/// what a serial `Controller::run` per request returns.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs this suite under --release"
)]
fn controller_run_fan_out_is_bit_identical_to_serial() {
    use mct_core::{Controller, ControllerConfig, ModelKind, Objective};
    use mct_experiments::cache::DerivedStore;
    use mct_experiments::figures::{mct_outcomes, MctRun};

    let runs: Vec<MctRun> = [
        (Workload::Stream, ModelKind::GradientBoosting, 8.0),
        (Workload::Gups, ModelKind::QuadraticLasso, 8.0),
        (Workload::Lbm, ModelKind::GradientBoosting, 4.0),
        (Workload::Milc, ModelKind::QuadraticLasso, 10.0),
    ]
    .into_iter()
    .map(|(workload, kind, target_years)| MctRun {
        workload,
        kind,
        total_insts: 600_000,
        target_years,
    })
    .collect();
    let serial: Vec<_> = runs
        .iter()
        .map(|r| {
            let mut cfg = ControllerConfig::paper_scaled();
            cfg.model = r.kind;
            cfg.total_insts = r.total_insts;
            cfg.warmup_insts = r.workload.warmup_insts();
            let mut controller = Controller::new(cfg, Objective::paper_default(r.target_years));
            controller.run(&mut r.workload.source(EXPERIMENT_SEED))
        })
        .collect();

    for workers in [1usize, 2] {
        let dir = mct_persist::TempDir::new("mct-determinism-fan-out");
        let store = DerivedStore::open(dir.join("derived.jsonl"));
        let fanned = mct_outcomes(&runs, &store, EXPERIMENT_SEED, workers);
        assert_eq!(fanned.len(), serial.len());
        for (i, (a, b)) in serial.iter().zip(&fanned).enumerate() {
            assert_eq!(
                a.chosen_config, b.chosen_config,
                "run {i}, {workers} workers: chosen config"
            );
            for (x, y) in a
                .final_metrics
                .to_array()
                .iter()
                .zip(b.final_metrics.to_array())
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "run {i}, {workers} workers: final metrics"
                );
            }
            assert_eq!(a, b, "run {i}, {workers} workers: outcome");
        }
    }
}
