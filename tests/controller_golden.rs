//! Whole-run golden pins for `Controller::run`.
//!
//! Three seeded runs, each traced and persisted at once, chosen so that
//! together they walk every controller phase:
//!
//! * `ocean_3m` — quick-demo OCEAN at 3 M instructions: several
//!   segments, fresh fits, phase changes;
//! * `elision_demo` — a coarse A→B→A alternation where revisited phases
//!   reuse banked fits (elided fits);
//! * `degradation_chaos` — the degradation fixture plan, which walks the
//!   ladder through re-sample → refit → revert-to-static.
//!
//! Each run pins the FNV-1a digest and the length of four views:
//!
//! * the telemetry trace, with `wall_us` zeroed and the host-time
//!   histograms (span durations, simulator throughput, decision
//!   latency) dropped from its registry snapshot;
//! * the recorder's registry counters;
//! * the persisted state records (`decode_dir`);
//! * the `Outcome` (`Debug`-rendered, so every float is exact).
//!
//! `MCT_BLESS=1 cargo test --test controller_golden -- --nocapture`
//! prints the current values in the form of the constants below.

use memory_cocktail_therapy::framework::{
    decode_dir, Controller, ControllerConfig, ModelKind, Objective, Outcome, PersistConfig,
};
use memory_cocktail_therapy::persist::{fnv1a64, TempDir};
use memory_cocktail_therapy::sim::{AccessSource, FaultPlan};
use memory_cocktail_therapy::telemetry::{Event, RecorderHandle, VecRecorder};
use memory_cocktail_therapy::workloads::{
    Pattern, PhaseProfile, Profile, Workload, WorkloadSource,
};
use std::path::Path;

/// `(digest, count)` of each pinned view of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    trace: (u64, usize),
    counters: (u64, usize),
    records: (u64, usize),
    outcome: (u64, usize),
}

const OCEAN_3M: Pin = Pin {
    trace: (5389655531406591239, 240),
    counters: (1256944886443211315, 23),
    records: (9981921781449482496, 29),
    outcome: (2708861346971258353, 3),
};

const ELISION_DEMO: Pin = Pin {
    trace: (1644792621374242471, 453),
    counters: (7294156290735393880, 20),
    records: (5503385832965277934, 44),
    outcome: (14974870629817640454, 7),
};

const DEGRADATION_CHAOS: Pin = Pin {
    trace: (12422324034638811223, 225),
    counters: (3765252044085687051, 22),
    records: (3257542286421741870, 32),
    outcome: (14763612179318741061, 2),
};

/// Registry histograms fed from the host clock: their values differ
/// between runs of the same seed.
fn host_time_histogram(name: &str) -> bool {
    [
        "span.wall_us",
        "sim.accesses_per_sec",
        "decision.latency_us",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

/// FNV-1a over newline-joined lines, plus the line count.
fn digest<I: IntoIterator<Item = String>>(lines: I) -> (u64, usize) {
    let mut text = String::new();
    let mut n = 0;
    for line in lines {
        text.push_str(&line);
        text.push('\n');
        n += 1;
    }
    (fnv1a64(text.as_bytes()), n)
}

fn pin_run(
    mut cfg: ControllerConfig,
    objective: Objective,
    source: &mut impl AccessSource,
) -> (Pin, Outcome) {
    let store = TempDir::new("mct-controller-golden");
    cfg.persist = Some(PersistConfig::fresh(store.path().display().to_string()));
    let rec = VecRecorder::shared();
    let handle: RecorderHandle = rec.clone();
    let outcome = Controller::new(cfg, objective)
        .with_recorder(handle)
        .run(source);
    let mut guard = rec.lock().expect("recorder lock");
    let counters = guard.registry().snapshot().counters;
    let mut records = guard.take_records();
    for r in &mut records {
        r.wall_us = 0;
        if let Event::MetricsRegistry { snapshot } = &mut r.event {
            snapshot
                .histograms
                .retain(|(name, _)| !host_time_histogram(name));
        }
    }
    let state = decode_dir(store.path()).expect("a clean store decodes");
    let pin = Pin {
        trace: digest(
            records
                .iter()
                .map(|r| serde_json::to_string(r).expect("serialize record")),
        ),
        counters: digest(counters.iter().map(|(k, v)| format!("{k}={v}"))),
        records: digest(
            state
                .iter()
                .map(|r| serde_json::to_string(r).expect("serialize state record")),
        ),
        outcome: (
            fnv1a64(format!("{outcome:?}").as_bytes()),
            outcome.segments.len(),
        ),
    };
    (pin, outcome)
}

fn check(name: &str, got: Pin, want: Pin) {
    if std::env::var_os("MCT_BLESS").is_some() {
        let Pin {
            trace,
            counters,
            records,
            outcome,
        } = got;
        println!(
            "const {name}: Pin = Pin {{ trace: {trace:?}, counters: {counters:?}, \
             records: {records:?}, outcome: {outcome:?} }};"
        );
        return;
    }
    assert_eq!(
        got, want,
        "{name}: the run diverged from its golden pin; if the change is \
         intentional, re-bless with MCT_BLESS=1 and say why"
    );
}

#[test]
fn ocean_3m_run_is_pinned() {
    let mut cfg = ControllerConfig::quick_demo();
    cfg.total_insts = 3_000_000;
    cfg.seed = 2017;
    let (got, outcome) = pin_run(
        cfg,
        Objective::paper_default(8.0),
        &mut Workload::Ocean.source(2017),
    );
    let fresh = outcome.segments.iter().filter(|s| !s.fit_elided).count();
    assert!(
        outcome.segments.len() >= 3 && fresh >= 2,
        "the pin must cover several segments and fresh fits"
    );
    check("OCEAN_3M", got, OCEAN_3M);
}

/// The alternation of `controller_edge_cases::refit_elision_fires_when_a_phase_recurs`.
#[test]
fn elision_demo_run_is_pinned() {
    let phase = |gap_mean: f64, pattern: Pattern| PhaseProfile {
        insts: 800_000,
        gap_mean,
        write_frac: 0.3,
        patterns: vec![(1.0, pattern)],
        burst: None,
    };
    let profile = Profile {
        name: "elision-demo",
        phases: vec![
            phase(
                25.0,
                Pattern::Sequential {
                    region_lines: 1 << 16,
                },
            ),
            phase(
                100.0,
                Pattern::Strided {
                    stride: 8,
                    region_lines: 1 << 18,
                },
            ),
        ],
    };
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    cfg.total_insts = 6_000_000;
    cfg.baseline_insts = 60_000;
    cfg.health_check_every_windows = 0;
    let (got, outcome) = pin_run(
        cfg,
        Objective::paper_default(0.1),
        &mut WorkloadSource::new(profile, 11),
    );
    assert!(
        outcome.segments.iter().any(|s| s.fit_elided),
        "the pin must cover elided fits"
    );
    check("ELISION_DEMO", got, ELISION_DEMO);
}

/// The configuration of the fault-injection golden ladder trace.
#[test]
fn degradation_chaos_run_is_pinned() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/degradation_plan.json"),
    )
    .expect("read degradation_plan.json");
    let plan: FaultPlan = serde_json::from_str(&text).expect("parse degradation_plan.json");
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    cfg.total_insts = 1_200_000;
    cfg.warmup_insts = 100_000;
    cfg.health_check_every_windows = 2;
    cfg.seed = 17;
    cfg.fault_plan = Some(plan);
    let (got, outcome) = pin_run(
        cfg,
        Objective::paper_default(8.0),
        &mut Workload::Stream.source(17),
    );
    assert!(
        outcome.segments.iter().any(|s| s.health_fallback),
        "the pin must cover the ladder's revert-to-static rung"
    );
    check("DEGRADATION_CHAOS", got, DEGRADATION_CHAOS);
}
