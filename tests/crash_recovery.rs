//! Kill-and-recover harness for crash-safe controller state
//! (`ControllerConfig::persist`).
//!
//! The recovery contract under test: for any kill point — after any
//! durable op, or mid-write with only a byte prefix of a record on disk
//! — reopening the store and resuming re-executes the run
//! deterministically, verifies every recovered record against the
//! re-execution, and converges on an outcome **bit-identical** to an
//! uninterrupted run from the same seed. Acked records are never lost;
//! the torn, unacked tail is never resurrected.
//!
//! The full every-op sweeps are release-only (debug builds run the smoke
//! subsets): `cargo test --release --test crash_recovery`.

use memory_cocktail_therapy::framework::{
    decode_dir, records_match, Controller, ControllerConfig, Objective, Outcome, PersistConfig,
    RecoveryReport, StateRecord,
};
use memory_cocktail_therapy::persist::{CrashPoint, TempDir};
use memory_cocktail_therapy::workloads::Workload;
use std::path::Path;

const SEED: u64 = 2017;

fn config(seed: u64) -> ControllerConfig {
    let mut cfg = ControllerConfig::quick_demo();
    cfg.seed = seed;
    cfg
}

/// The golden run: no persistence at all.
fn golden(workload: Workload, seed: u64) -> Outcome {
    let mut controller = Controller::new(config(seed), Objective::paper_default(8.0));
    controller.run(&mut workload.source(seed))
}

/// A run with the state store armed at `dir`.
fn run_persisted(
    dir: &Path,
    workload: Workload,
    seed: u64,
    resume: bool,
    crash_point: CrashPoint,
) -> Outcome {
    let mut cfg = config(seed);
    cfg.persist = Some(PersistConfig {
        dir: dir.display().to_string(),
        resume,
        crash_point,
    });
    let mut controller = Controller::new(cfg, Objective::paper_default(8.0));
    controller.run(&mut workload.source(seed))
}

fn assert_bit_identical(label: &str, got: &Outcome, want: &Outcome) {
    assert_eq!(
        got.final_metrics.ipc.to_bits(),
        want.final_metrics.ipc.to_bits(),
        "{label}: final IPC diverged"
    );
    assert_eq!(
        got.final_metrics.lifetime_years.to_bits(),
        want.final_metrics.lifetime_years.to_bits(),
        "{label}: final lifetime diverged"
    );
    assert_eq!(
        got.final_metrics.energy_j.to_bits(),
        want.final_metrics.energy_j.to_bits(),
        "{label}: final energy diverged"
    );
    assert_eq!(got, want, "{label}: outcome diverged");
}

/// Acked state is never lost and never invented: every record the
/// crashed store still holds must match, in order, a prefix of the
/// uninterrupted reference trace. `records_match` tolerates exactly one
/// asymmetry — a snapshot may have pruned an old fit's model payload on
/// either side.
fn assert_prefix_of(label: &str, survivor: &[StateRecord], reference: &[StateRecord]) {
    assert!(
        survivor.len() <= reference.len(),
        "{label}: crashed store holds {} records but the full run only produced {}",
        survivor.len(),
        reference.len()
    );
    for (i, (s, r)) in survivor.iter().zip(reference).enumerate() {
        assert!(
            records_match(r, s) || records_match(s, r),
            "{label}: record {i} differs from the reference trace\n  survivor:  {s:?}\n  reference: {r:?}"
        );
    }
}

/// Kill after durable op `k` for every k until the kill point falls past
/// the end of the run; after each kill, verify the survivor's acked
/// prefix, resume, and demand bit-identity with the golden run.
///
/// Returns the number of distinct crash points exercised.
fn sweep_kill_points(workload: Workload, seed: u64, limit: Option<u64>) -> u64 {
    let golden = golden(workload, seed);
    let reference = {
        let dir = TempDir::new("mct-crash-ref");
        let uninterrupted = run_persisted(dir.path(), workload, seed, false, CrashPoint::None);
        assert_bit_identical("persist=on vs golden", &uninterrupted, &golden);
        decode_dir(dir.path()).expect("clean store must decode")
    };
    let mut k = 0u64;
    loop {
        if let Some(limit) = limit {
            if k >= limit {
                break;
            }
        }
        let dir = TempDir::new("mct-crash-kill");
        let crashed = run_persisted(dir.path(), workload, seed, false, CrashPoint::AfterOp(k));
        // The store dying is invisible to the in-flight run: only the
        // disk freezes at the kill point.
        assert_bit_identical(&format!("in-memory run, kill at op {k}"), &crashed, &golden);

        let report = RecoveryReport::from_dir(dir.path())
            .unwrap_or_else(|e| panic!("kill at op {k}: store unreadable: {e}"));
        let survivor = decode_dir(dir.path())
            .unwrap_or_else(|e| panic!("kill at op {k}: store undecodable: {e}"));
        assert_prefix_of(&format!("kill at op {k}"), &survivor, &reference);
        if report.clean {
            // The kill point fell at or past the last durable op: the
            // log already ends in run_completed, so resuming would be a
            // warm start, not a recovery. Every interruptible op has
            // been covered.
            break;
        }
        assert!(
            !survivor.is_empty(),
            "kill at op {k}: even op 0 persists the run_started record"
        );

        let resumed = run_persisted(dir.path(), workload, seed, true, CrashPoint::None);
        assert_bit_identical(&format!("resume after kill at op {k}"), &resumed, &golden);
        assert!(
            resumed.segments.iter().all(|s| !s.warm_started),
            "kill at op {k}: recovery re-executes, it must not warm-start"
        );

        let recovered = decode_dir(dir.path())
            .unwrap_or_else(|e| panic!("resume after kill at op {k}: store undecodable: {e}"));
        assert_eq!(
            recovered.len(),
            reference.len(),
            "resume after kill at op {k}: recovered trace length diverged"
        );
        assert_prefix_of(
            &format!("resume after kill at op {k}"),
            &recovered,
            &reference,
        );
        let post = RecoveryReport::from_dir(dir.path()).expect("resumed store must replay");
        assert!(
            post.clean,
            "resume after kill at op {k}: resumed store must end clean"
        );
        k += 1;
    }
    k
}

/// Always-run smoke: the first few kill points (header, run_started,
/// first baseline/fit/decision records) recover bit-identically.
#[test]
fn kill_and_recover_smoke() {
    let exercised = sweep_kill_points(Workload::Stream, SEED, Some(4));
    assert!(exercised >= 4, "smoke sweep ended early at op {exercised}");
}

/// The headline: kill after EVERY durable op, recover, demand
/// bit-identity. Two workloads, one phase-stable and one phase-heavy.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full every-op kill sweep; run with --release (smoke subset covers debug)"
)]
fn kill_at_every_op_recovers_bit_identical() {
    for workload in [Workload::Stream, Workload::Ocean] {
        let exercised = sweep_kill_points(workload, SEED, None);
        assert!(
            exercised >= 8,
            "{workload}: sweep covered only {exercised} ops — persistence is not recording"
        );
    }
}

/// Torn writes: the dying process persists only `keep` bytes of the
/// record at op `k`. The torn tail must be silently dropped (it was
/// never acked) and resume must still converge on the golden outcome.
fn sweep_torn_points(workload: Workload, seed: u64, ops: &[u64], keeps: &[u64]) {
    let golden = golden(workload, seed);
    let reference = {
        let dir = TempDir::new("mct-torn-ref");
        run_persisted(dir.path(), workload, seed, false, CrashPoint::None);
        decode_dir(dir.path()).expect("clean store must decode")
    };
    for &op in ops {
        for &keep_bytes in keeps {
            let label = format!("torn write at op {op}, {keep_bytes} bytes kept");
            let dir = TempDir::new("mct-torn");
            run_persisted(
                dir.path(),
                workload,
                seed,
                false,
                CrashPoint::TornOp { op, keep_bytes },
            );
            let report = RecoveryReport::from_dir(dir.path())
                .unwrap_or_else(|e| panic!("{label}: store unreadable: {e}"));
            let survivor =
                decode_dir(dir.path()).unwrap_or_else(|e| panic!("{label}: undecodable: {e}"));
            assert_prefix_of(&label, &survivor, &reference);
            if report.clean {
                // Tearing a snapshot write can leave the log clean (the
                // snapshot tmp-file never replaced the good one); a
                // resume would then warm-start, which other tests cover.
                continue;
            }
            let resumed = run_persisted(dir.path(), workload, seed, true, CrashPoint::None);
            assert_bit_identical(&label, &resumed, &golden);
            let post = RecoveryReport::from_dir(dir.path()).expect("resumed store must replay");
            assert!(post.clean, "{label}: resumed store must end clean");
        }
    }
}

/// Always-run smoke: a handful of torn-write points.
#[test]
fn torn_write_smoke() {
    sweep_torn_points(Workload::Stream, SEED, &[1, 3], &[0, 1, 9]);
}

/// Release-only: torn writes across a broad band of ops and tear sizes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "broad torn-write sweep; run with --release (smoke subset covers debug)"
)]
fn torn_writes_recover_across_ops() {
    sweep_torn_points(
        Workload::Stream,
        SEED,
        &[0, 1, 2, 4, 6, 8, 10, 13, 16, 20],
        &[0, 1, 5, 17],
    );
}

/// The `--resume` acceptance criterion: resuming over a *clean* log
/// warm-starts from the persisted fitted models and skips the sampling
/// periods they cover entirely (`sampling_insts == 0`).
#[test]
fn clean_log_warm_starts_and_skips_sampling() {
    let dir = TempDir::new("mct-warm");
    let first = run_persisted(dir.path(), Workload::Stream, SEED, false, CrashPoint::None);
    assert!(
        first.sampling_insts > 0,
        "the cold run must actually pay a sampling period"
    );
    let report = RecoveryReport::from_dir(dir.path()).expect("clean store must replay");
    assert!(report.clean, "a completed run must leave a clean log");
    assert!(
        report.restorable_models > 0,
        "a completed run must persist at least one restorable model"
    );

    let second = run_persisted(dir.path(), Workload::Stream, SEED, true, CrashPoint::None);
    assert_eq!(
        second.sampling_insts, 0,
        "warm start must skip sampling outright"
    );
    assert!(
        second.segments.iter().all(|s| s.warm_started),
        "every segment of the stationary warm run should coast on the restored model"
    );
    assert!(second.final_metrics.ipc > 0.0);
    assert_eq!(
        second.chosen_config, first.chosen_config,
        "same workload, same models: the warm run must land on the same choice"
    );
}

/// A warm start with a budget too small for any testing window (as
/// `mct run <wl> --insts 200000 --resume` builds it) must still report
/// what it measured, not the empty accumulator's IPC 0 and infinite
/// lifetime.
#[test]
fn small_budget_warm_start_reports_measured_metrics() {
    for workload in [Workload::Ocean, Workload::Zeusmp, Workload::Libquantum] {
        let dir = TempDir::new("mct-warm-small");
        let dir = dir.path().display().to_string();
        let run = |resume: bool| {
            let mut cfg = ControllerConfig::paper_scaled();
            cfg.total_insts = 200_000;
            cfg.warmup_insts = workload.warmup_insts();
            cfg.seed = SEED;
            cfg.persist = Some(if resume {
                PersistConfig::resume_from(&dir)
            } else {
                PersistConfig::fresh(&dir)
            });
            Controller::new(cfg, Objective::paper_default(8.0)).run(&mut workload.source(SEED))
        };
        let cold = run(false);
        let warm = run(true);
        assert_eq!(warm.sampling_insts, 0, "{workload}: must warm-start");
        assert_eq!(warm.testing_insts, 0, "{workload}: no testing window fits");
        for (label, m) in [("cold", cold.final_metrics), ("warm", warm.final_metrics)] {
            assert!(
                m.ipc > 0.0 && m.lifetime_years.is_finite() && m.energy_j > 0.0,
                "{workload} {label}: reported an unmeasured window: {m:?}"
            );
        }
        for seg in &warm.segments {
            assert!(seg.testing.ipc > 0.0, "{workload}: segment reports IPC 0");
        }
    }
}

/// Resuming under a different run identity (here: a different seed) must
/// fail loudly before any state is touched, not silently diverge.
#[test]
#[should_panic(expected = "persist: cannot begin session")]
fn resume_with_mismatched_run_config_fails_loudly() {
    let dir = TempDir::new("mct-mismatch");
    run_persisted(dir.path(), Workload::Stream, SEED, false, CrashPoint::None);
    run_persisted(
        dir.path(),
        Workload::Stream,
        SEED + 1,
        true,
        CrashPoint::None,
    );
}

/// `RecoveryReport` (the engine behind `mct recover`) describes an
/// interrupted store accurately and points the operator at `--resume`.
#[test]
fn recovery_report_reflects_an_interrupted_store() {
    let dir = TempDir::new("mct-report");
    run_persisted(
        dir.path(),
        Workload::Stream,
        SEED,
        false,
        CrashPoint::AfterOp(5),
    );
    let report = RecoveryReport::from_dir(dir.path()).expect("store must replay");
    assert!(!report.clean, "a kill at op 5 cannot leave a clean log");
    assert_eq!(report.seed, Some(SEED));
    let survivor = decode_dir(dir.path()).expect("store must decode");
    assert_eq!(report.records, survivor.len());
    let rendered = report.render();
    assert!(
        rendered.contains("interrupted"),
        "render must flag the interruption:\n{rendered}"
    );
    assert!(
        rendered.contains("--resume"),
        "render must point at the recovery path:\n{rendered}"
    );
}
