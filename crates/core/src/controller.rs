//! The end-to-end MCT runtime (paper Section 5, Figure 5).
//!
//! Per detected phase, the controller:
//!
//! 1. measures the static baseline briefly (normalization reference);
//! 2. runs the *sampling period*: cyclic fine-grained sampling — every
//!    sample configuration runs for a small unit, looped `rounds` times,
//!    so all samples see similar memory behaviour despite bursts
//!    (Section 5.2);
//! 3. fits the predictor on the samples and predicts all configurations
//!    (wear quota excluded from the learned space per Section 4.4);
//! 4. selects the objective-optimal configuration and applies the
//!    wear-quota fixup (Section 5.3);
//! 5. runs the *testing period* under the chosen configuration, feeding
//!    the phase detector and periodically health-checking against the
//!    baseline, falling back if the choice underperforms (Section 5.4);
//! 6. on a dramatic phase change, restarts from step 1.

use serde::{Deserialize, Serialize};

use mct_sim::fault::FaultPlan;
use mct_sim::stats::{Metrics, RunStats};
use mct_sim::system::{System, SystemConfig};
use mct_sim::trace::AccessSource;
use mct_sim::WearSnapshot;
use mct_telemetry::{Event, RecorderHandle, SpanGuard, Telemetry};

use crate::bank::FitBank;
use crate::config::NvmConfig;
use crate::degrade::{DegradationAction, DegradationLadder};
use crate::objective::Objective;
use crate::optimizer::{optimize, OptimizationResult};
use crate::persist::{config_digest, PersistConfig, PersistSession, StateRecord};
use crate::phase::{PhaseDetector, PhaseDetectorConfig};
use crate::predictor::{lasso_feature_report, MetricsPredictor, ModelKind};
use crate::sampling::{feature_based_samples, random_samples, with_anchors};
use crate::space::ConfigSpace;

/// Controller parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Simulated system parameters.
    #[serde(skip, default)]
    pub system: SystemConfig,
    /// Predictor family (the paper's finalists: `QuadraticLasso` and
    /// `GradientBoosting`).
    pub model: ModelKind,
    /// Feature-based (true) vs random sampling.
    pub feature_based_sampling: bool,
    /// Sample count when random sampling is used.
    pub n_random_samples: usize,
    /// Fine-grained sampling unit, instructions (paper: 100 k).
    pub sample_unit_insts: u64,
    /// Cyclic rounds over the sample set (paper: T / (N * t)).
    pub sampling_rounds: usize,
    /// Exclude wear quota from the learned space (Section 4.4).
    pub exclude_wear_quota: bool,
    /// Apply the wear-quota fixup to the selection (Section 5.3).
    pub quota_fixup: bool,
    /// Phase-detector parameters.
    pub phase: PhaseDetectorConfig,
    /// Instructions of baseline measurement per segment.
    pub baseline_insts: u64,
    /// Total detailed instruction budget (after warmup).
    pub total_insts: u64,
    /// Warmup instructions before measurement starts.
    pub warmup_insts: u64,
    /// Health-check cadence, in phase windows of testing.
    pub health_check_every_windows: u64,
    /// Instructions each health check runs the baseline for.
    pub health_check_insts: u64,
    /// RNG seed (sampling).
    pub seed: u64,
    /// Skip the segment-start refit when the previous segment's health
    /// checks all passed and the new segment's workload intensity sits
    /// within a quarter octave of a banked fit's; see
    /// [`FitBank`] for the bank's policy. Deserializes to `false` for
    /// configs written before this field existed.
    #[serde(default)]
    pub refit_elision: bool,
    /// Optional deterministic fault plan, armed on the simulated system
    /// right after warmup (`mct chaos`). `None` leaves the simulator's
    /// fault hooks disarmed — the zero-overhead hot path.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// Optional crash-safe state persistence: a write-ahead log plus
    /// segment-boundary snapshots under the configured directory, with
    /// verified-replay recovery and warm starts (`mct run --resume`).
    /// `None` — the default and both presets — keeps the controller
    /// entirely in memory with zero persistence work on the hot path.
    /// See [`crate::persist`] for the recovery contract.
    #[serde(default)]
    pub persist: Option<PersistConfig>,
}

impl ControllerConfig {
    /// A configuration scaled for this reproduction's experiments:
    /// feature-based sampling (~84 samples), 8 k-instruction units, two
    /// cyclic rounds, ~1.4 M sampling + ~4 M testing instructions.
    #[must_use]
    pub fn paper_scaled() -> ControllerConfig {
        ControllerConfig {
            system: SystemConfig::default(),
            model: ModelKind::GradientBoosting,
            feature_based_sampling: true,
            n_random_samples: 77,
            sample_unit_insts: 2_000,
            sampling_rounds: 6,
            exclude_wear_quota: true,
            quota_fixup: true,
            phase: PhaseDetectorConfig::default(),
            baseline_insts: 50_000,
            total_insts: 8_000_000,
            warmup_insts: 1_000_000,
            health_check_every_windows: 5,
            health_check_insts: 30_000,
            seed: 17,
            refit_elision: true,
            fault_plan: None,
            persist: None,
        }
    }

    /// A small, fast configuration for examples and doctests.
    #[must_use]
    pub fn quick_demo() -> ControllerConfig {
        ControllerConfig {
            model: ModelKind::QuadraticLasso,
            feature_based_sampling: false,
            n_random_samples: 16,
            sample_unit_insts: 3_000,
            sampling_rounds: 1,
            phase: PhaseDetectorConfig {
                window_insts: 20_000,
                history_windows: 50,
                recent_windows: 5,
                score_threshold: 15.0,
            },
            baseline_insts: 15_000,
            total_insts: 400_000,
            warmup_insts: 100_000,
            health_check_every_windows: 8,
            health_check_insts: 10_000,
            ..ControllerConfig::paper_scaled()
        }
    }
}

/// Accumulates raw run quantities so metrics can be aggregated across
/// many measurement windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct MetricAccum {
    insts: u64,
    cycles: f64,
    wear_units: f64,
    elapsed_secs: f64,
    energy_j: f64,
}

impl MetricAccum {
    fn add(&mut self, stats: &RunStats) {
        self.insts += stats.instructions;
        self.cycles += stats.cpu_cycles;
        self.wear_units += stats.wear_units;
        self.elapsed_secs += stats.elapsed.as_secs();
        self.energy_j += stats.energy.total();
    }

    fn metrics(&self, wear_budget: f64) -> Metrics {
        let ipc = if self.cycles > 0.0 {
            self.insts as f64 / self.cycles
        } else {
            0.0
        };
        let lifetime_years = if self.wear_units > 0.0 && self.elapsed_secs > 0.0 {
            wear_budget / (self.wear_units / self.elapsed_secs) / mct_sim::wear::SECONDS_PER_YEAR
        } else {
            f64::INFINITY
        };
        Metrics {
            ipc,
            lifetime_years,
            energy_j: self.energy_j,
        }
    }
}

/// The measured windows of a run or of one segment, by period.
#[derive(Debug, Clone, Copy, Default)]
struct Periods {
    baseline: MetricAccum,
    sampling: MetricAccum,
    testing: MetricAccum,
}

impl Periods {
    /// What the run or segment realized: the first non-empty of its
    /// testing, sampling and baseline windows. Testing is empty when the
    /// budget ran out before it began; sampling is empty on a warm start,
    /// which skips it. Falling through keeps an empty accumulator (IPC 0,
    /// infinite lifetime) out of the report whenever any window was
    /// measured.
    fn realized(&self, wear_budget: f64) -> Metrics {
        [&self.testing, &self.sampling, &self.baseline]
            .into_iter()
            .find(|a| a.insts > 0)
            .unwrap_or(&self.testing)
            .metrics(wear_budget)
    }
}

/// Report for one sampling→optimize→test segment (one detected phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// The optimization outcome for this segment.
    pub optimization: OptimizationResult,
    /// Baseline metrics measured at segment start.
    pub baseline: Metrics,
    /// Aggregate metrics over this segment's sampling period.
    pub sampling: Metrics,
    /// Aggregate metrics over this segment's testing period.
    pub testing: Metrics,
    /// Whether a health check demoted the choice back to the baseline.
    pub health_fallback: bool,
    /// Whether this segment's refit was elided (predictor reused from
    /// the previous segment on a matching phase signature).
    #[serde(default)]
    pub fit_elided: bool,
    /// Whether this segment skipped its sampling period entirely,
    /// coasting on a model restored from a completed prior run's
    /// snapshot (`mct run --resume` warm start).
    #[serde(default)]
    pub warm_started: bool,
    /// Sampling instructions spent.
    pub sampling_insts: u64,
    /// Testing instructions spent.
    pub testing_insts: u64,
}

/// Overall outcome of a controller run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The last chosen configuration.
    pub chosen_config: NvmConfig,
    /// Aggregate metrics across all testing periods.
    pub final_metrics: Metrics,
    /// Aggregate metrics across all sampling periods (Figure 9's
    /// overhead numerator).
    pub sampling_metrics: Metrics,
    /// The last baseline measurement.
    pub baseline_metrics: Metrics,
    /// Phase changes detected.
    pub phases_detected: u64,
    /// Per-segment details.
    pub segments: Vec<SegmentReport>,
    /// Total sampling instructions.
    pub sampling_insts: u64,
    /// Total testing instructions.
    pub testing_insts: u64,
}

impl Outcome {
    /// Extrapolated IPC when the testing period is `alpha` times the
    /// sampling period (paper Eq. 4):
    /// `IPC_total = (IPC_sampling + alpha * IPC_testing) / (1 + alpha)`.
    #[must_use]
    pub fn extrapolated_ipc(&self, alpha: f64) -> f64 {
        (self.sampling_metrics.ipc + alpha * self.final_metrics.ipc) / (1.0 + alpha)
    }

    /// Extrapolated energy under the same model (energy totals are scaled
    /// to per-instruction terms before mixing).
    #[must_use]
    pub fn extrapolated_energy_per_inst(&self, alpha: f64) -> f64 {
        let sampling_epi = if self.sampling_insts > 0 {
            self.sampling_metrics.energy_j / self.sampling_insts as f64
        } else {
            0.0
        };
        let testing_epi = if self.testing_insts > 0 {
            self.final_metrics.energy_j / self.testing_insts as f64
        } else {
            0.0
        };
        (sampling_epi + alpha * testing_epi) / (1.0 + alpha)
    }
}

/// The MCT runtime controller.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    objective: Objective,
    space: ConfigSpace,
    samples: Vec<NvmConfig>,
    baseline_config: NvmConfig,
    telemetry: Telemetry,
}

impl Controller {
    /// Build a controller.
    ///
    /// # Panics
    /// Panics if the objective fails validation, or if the configured
    /// fault plan is invalid.
    #[must_use]
    pub fn new(cfg: ControllerConfig, objective: Objective) -> Controller {
        objective.validate().expect("invalid objective"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        if let Some(plan) = &cfg.fault_plan {
            plan.validate().expect("invalid fault plan"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        }
        let space = if cfg.exclude_wear_quota {
            ConfigSpace::without_wear_quota()
        } else {
            ConfigSpace::full(objective.lifetime_floor().unwrap_or(8.0))
        };
        let raw_samples = if cfg.feature_based_sampling {
            feature_based_samples(&space, cfg.seed)
        } else {
            random_samples(&space, cfg.n_random_samples.min(space.len()), cfg.seed)
        };
        let anchors = [
            NvmConfig::default_config(),
            NvmConfig::static_baseline().without_wear_quota(),
        ];
        let samples = with_anchors(raw_samples, &anchors);
        Controller {
            cfg,
            objective,
            space,
            samples,
            baseline_config: NvmConfig::static_baseline(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder for decision traces and registry
    /// metrics. The default is a disabled [`mct_telemetry::NullRecorder`],
    /// which skips all instrumentation work.
    #[must_use]
    pub fn with_recorder(mut self, handle: RecorderHandle) -> Controller {
        self.telemetry = Telemetry::attached(handle);
        self
    }

    /// The sample configurations the controller will exercise.
    #[must_use]
    pub fn samples(&self) -> &[NvmConfig] {
        &self.samples
    }

    /// The learnable configuration space.
    #[must_use]
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Run MCT over `source` for the configured budget: one phase
    /// method per step of the paper's runtime (Fig. 5), each reporting
    /// through one transition hook.
    ///
    /// With a recorder attached, the whole run is wrapped in a `run` root
    /// span (labeled with the learner) whose children — `warmup`,
    /// `fault.arm`, and one `segment` span per sampling→optimize→test
    /// cycle — cover the control loop end to end, so `mct profile` can
    /// apportion wall time across phases. With the default disabled
    /// telemetry every span call is a single branch.
    ///
    /// # Panics
    /// With [`ControllerConfig::persist`] set: panics if the state store
    /// cannot be opened or recovered, and on any divergence between
    /// re-execution and a recovered log — the crash-recovery contract is
    /// bit-identical re-execution, so a mismatch is a bug that must
    /// surface immediately, never a condition to continue past.
    pub fn run<S: AccessSource>(&mut self, source: &mut S) -> Outcome {
        let mut telemetry = std::mem::take(&mut self.telemetry);
        let span = telemetry.span_with("run", 0, &[("learner", self.cfg.model.short_label())]);
        let mut run = Run::start(self, telemetry, source);
        while run.executed < self.cfg.total_insts {
            let mut seg = run.baseline();
            run.sample(&mut seg);
            let (predictions, fit_us) = run.fit_or_elide(&seg);
            let mut opt = run.decide(&seg, &predictions, fit_us);
            let testing = run.test(&mut seg, &mut opt);
            run.finish_segment(seg, opt, testing);
        }
        let (outcome, telemetry) = run.finish(span);
        self.telemetry = telemetry;
        outcome
    }
}

/// Whether a transition closes a span, and on which side of its events.
#[derive(Debug)]
enum SpanEnd {
    None,
    BeforeEvents(SpanGuard),
    AfterEvents(SpanGuard),
}

/// One segment in flight: a detected phase's baseline → sampling → fit
/// → decide → testing cycle.
#[derive(Debug)]
struct Segment {
    index: u64,
    span: SpanGuard,
    /// Workload intensity (accesses/kinst) the baseline measured.
    apki: f64,
    /// The banked fit this segment reuses instead of refitting.
    reuse: Option<usize>,
    /// Whether sampling was skipped to coast on a warm-start model.
    warm_started: bool,
    periods: Periods,
    /// The `(config, metrics)` training set.
    samples: Vec<(NvmConfig, Metrics)>,
    /// Health-check reference: accumulated windows of the *actual*
    /// baseline (with its wear quota). The sampling anchor is quota-free
    /// and would read systematically fast.
    health_reference: MetricAccum,
    health_checks: u32,
    /// Whether the ladder reverted the choice to the static baseline.
    health_fallback: bool,
    /// Whether every health check so far passed.
    healthy: bool,
}

/// One controller run's state, threaded from phase to phase.
struct Run<'c, S> {
    ctl: &'c Controller,
    /// The controller's telemetry, held until [`Run::finish`].
    tel: Telemetry,
    source: &'c mut S,
    sys: System,
    wear_budget: f64,
    /// The measured-instruction clock; it starts at 0 after warmup.
    executed: u64,
    detector: PhaseDetector,
    /// The degradation ladder outlives segments: faults persist across
    /// phase boundaries, so escalation must not reset on re-sample.
    ladder: DegradationLadder,
    /// Recently fitted predictors, reused by refit elision.
    bank: FitBank<MetricsPredictor>,
    persist: Option<PersistSession>,
    /// Did every health check in the *previous* segment pass? A failed
    /// check means the banked model misjudged this regime, so the next
    /// segment must refit even if the intensity still matches.
    last_segment_healthy: bool,
    totals: Periods,
    last_baseline: Metrics,
    chosen: NvmConfig,
    segments: Vec<SegmentReport>,
}

impl<'c, S: AccessSource> Run<'c, S> {
    /// Open the state store (when persisting), warm the system up, arm
    /// the fault plan, and seed the elision bank from a warm start.
    fn start(ctl: &'c Controller, mut tel: Telemetry, source: &'c mut S) -> Self {
        let cfg = &ctl.cfg;
        let mut sys = System::new(cfg.system.clone(), ctl.baseline_config.to_policy());
        // Opening the store replays any existing log (see
        // `crate::persist`): a clean prior run yields the warm-start
        // bank; an interrupted one becomes a prefix that re-execution
        // from instruction zero verifies record by record.
        let persist = cfg.persist.as_ref().map(|pcfg| {
            let span = tel.span("persist.open", 0);
            let started = StateRecord::RunStarted {
                schema: crate::persist::STATE_SCHEMA_VERSION,
                seed: cfg.seed,
                model: cfg.model,
                total_insts: cfg.total_insts,
                config_digest: config_digest(cfg),
            };
            let session = PersistSession::begin(pcfg, &started)
                // mct-tidy: allow(P002) -- documented `# Panics` contract: an unrecoverable store must fail loudly
                .unwrap_or_else(|e| panic!("persist: cannot begin session in {}: {e}", pcfg.dir));
            tel.close_span(span, 0);
            tel.incr("persist.replayed_records", session.replayed() as u64);
            session
        });
        let span = tel.span("warmup", 0);
        sys.warmup(source, cfg.warmup_insts);
        // Span clocks stay at 0 through warmup: the trace's `sim_insts`
        // is the *measured* instruction clock (`executed`), which starts
        // after warmup. Wall time still captures the warmup cost.
        tel.close_span(span, 0);
        // Faults arm after warmup, so plan timestamps are relative to the
        // start of the measured region (validated in `Controller::new`).
        if let Some(plan) = &cfg.fault_plan {
            let span = tel.span("fault.arm", 0);
            sys.arm_faults(plan);
            tel.close_span(span, 0);
        }
        // Warm start: a different workload behind the same config would
        // be caught by the health checks, exactly as a stale banked fit
        // would mid-run.
        let mut bank = FitBank::default();
        if let Some(session) = &persist {
            bank.seed(session.warm_bank().map(|(apki, state)| {
                (
                    f64::from_bits(apki),
                    MetricsPredictor::from_state(state.clone()),
                )
            }));
        }
        if bank.warm() {
            tel.incr("persist.warm_starts", 1);
        }
        let mut run = Run {
            ctl,
            tel,
            source,
            sys,
            wear_budget: cfg.system.wear.budget(),
            executed: 0,
            detector: PhaseDetector::new(cfg.phase),
            ladder: DegradationLadder::new(),
            bank,
            persist,
            last_segment_healthy: true,
            totals: Periods::default(),
            last_baseline: Metrics {
                ipc: 1.0,
                lifetime_years: 1.0,
                energy_j: 1.0,
            },
            chosen: ctl.baseline_config,
            segments: Vec::new(),
        };
        run.transition(SpanEnd::None, [], |run| {
            run.persist.as_ref().map(|session| Event::PersistRecovery {
                replayed_records: session.replayed() as u64,
                warm_start: run.bank.warm(),
                restored_models: run.bank.len() as u64,
            })
        });
        run
    }

    /// The one transition hook: every state record the run persists (or
    /// verifies during recovery) and every trace event it emits passes
    /// through here, with the close of the phase's span ordered as `span`
    /// says. `events` runs only with a recorder attached. Returns the
    /// closed span's host duration in µs (0 when disabled).
    ///
    /// # Panics
    /// Panics on store failure or on divergence between re-execution and
    /// a recovered log: the crash-recovery contract is bit-identical
    /// re-execution, so a mismatch is a bug that must surface
    /// immediately — continuing would persist split-brain state.
    fn transition<I: IntoIterator<Item = Event>>(
        &mut self,
        span: SpanEnd,
        records: impl IntoIterator<Item = StateRecord>,
        events: impl FnOnce(&Self) -> I,
    ) -> u64 {
        if let Some(session) = self.persist.as_mut() {
            for record in records {
                session
                    .emit(record)
                    // mct-tidy: allow(P003) -- documented `# Panics` contract: divergence must fail loudly, never persist split-brain state
                    .expect("persist: state record rejected");
            }
        }
        let (before, after) = match span {
            SpanEnd::None => (None, None),
            SpanEnd::BeforeEvents(guard) => (Some(guard), None),
            SpanEnd::AfterEvents(guard) => (None, Some(guard)),
        };
        let mut span_us = before.map_or(0, |guard| self.tel.close_span(guard, self.executed));
        if self.tel.enabled() {
            for event in events(self) {
                self.tel.emit(self.executed, event);
            }
        }
        if let Some(guard) = after {
            span_us = self.tel.close_span(guard, self.executed);
        }
        span_us
    }

    /// Open a segment and measure the static baseline, the segment's
    /// normalization reference.
    fn baseline(&mut self) -> Segment {
        let ctl = self.ctl;
        let index = self.segments.len() as u64;
        let span = self
            .tel
            .span_with("segment", self.executed, &[("segment", &index.to_string())]);
        // The first segment is the trivially-detected initial phase;
        // later segments are announced by the detector at the moment it
        // fires, inside the testing period.
        let started = StateRecord::SegmentStarted {
            segment: index,
            executed: self.executed,
        };
        self.transition(SpanEnd::None, [started], |run| {
            (index == 0).then(|| Event::PhaseDetected {
                score: 0.0,
                phases_detected: 0,
                mean_workload: run.detector.mean_workload(),
            })
        });
        let baseline_span = self.tel.span("baseline", self.executed);
        let mut stats = self.measure(ctl.baseline_config, ctl.cfg.baseline_insts);
        // Sparse phases need a longer window before the measurement
        // means anything; extend until ~1000 accesses were observed.
        let observed = stats.mem.reads_completed + stats.mem.writes_completed();
        let extended = observed < 1_000 && observed > 0;
        if extended {
            let extend = ctl.cfg.baseline_insts * (1_000 / observed.max(50)).min(50);
            stats = self.measure(ctl.baseline_config, extend);
            self.executed += stats.instructions;
        }
        self.executed += ctl.cfg.baseline_insts;
        let metrics = stats.metrics();
        self.last_baseline = metrics;
        let mut periods = Periods::default();
        periods.baseline.add(&stats);
        self.totals.baseline.add(&stats);
        if self.tel.enabled() {
            for (name, v) in stats.mem_counter_snapshot() {
                self.tel.observe(&format!("mem.baseline.{name}"), v as f64);
            }
        }
        let insts = stats.instructions;
        let record = StateRecord::BaselineMeasured {
            segment: index,
            metrics: metrics.into(),
            insts,
            extended,
        };
        self.transition(SpanEnd::BeforeEvents(baseline_span), [record], |run| {
            Some(Event::BaselineMeasured {
                config: run.ctl.baseline_config.to_string(),
                metrics,
                insts,
                extended,
            })
        });
        Segment {
            index,
            span,
            apki: stats.mem_accesses_per_kinst().max(0.5),
            reuse: None,
            warm_started: false,
            periods,
            samples: Vec::new(),
            health_reference: MetricAccum::default(),
            health_checks: 0,
            health_fallback: false,
            healthy: true,
        }
    }

    /// The sampling period: cyclic fine-grained sampling (Section 5.2).
    /// Skipped outright while a warm start coasts on banked models.
    fn sample(&mut self, seg: &mut Segment) {
        let ctl = self.ctl;
        let cfg = &ctl.cfg;
        // Same-phase test against the bank. Evaluated before sampling
        // (its inputs — the bank, the baseline intensity, last segment's
        // health — are all fixed by now) so a warm start can skip
        // sampling altogether.
        seg.reuse = self
            .bank
            .nearest(seg.apki)
            .filter(|_| cfg.refit_elision && self.last_segment_healthy);
        // Warm start: still coasting on restored models and this
        // segment's intensity hits the bank — skip the sampling period
        // (`sampling_insts` stays 0, the `--resume` acceptance
        // criterion). The sample set stays empty rather than all-zero,
        // which would poison a later ladder-forced refit, and with no
        // anchor sample the pre-window baseline stands.
        seg.warm_started = self.bank.warm() && seg.reuse.is_some();
        if seg.warm_started {
            self.tel.incr("persist.sampling_skipped", 1);
            return;
        }
        // Size the fine-grained sampling unit from the phase's mean
        // memory workload (Section 5.2): dense phases use small units,
        // sparse phases larger ones, targeting ~100 accesses per unit.
        // Many cyclic rounds spread each sample's units across the
        // phase's bursts (the paper loops ~130 times); the sampling
        // period is capped at ~40% of the total budget by shrinking the
        // unit, never the round count, so burst coverage survives.
        let ideal_unit = cfg.sample_unit_insts.max((100.0 / seg.apki * 1e3) as u64);
        let n_samples = ctl.samples.len() as u64;
        let sampling_budget = (cfg.total_insts as f64 * 0.4) as u64;
        let rounds = cfg.sampling_rounds.max(1);
        let unit_insts = ideal_unit
            .min(sampling_budget / (n_samples * rounds as u64))
            .max(1_000);
        let span = self.tel.span("sampling", self.executed);
        let mut accums = vec![MetricAccum::default(); ctl.samples.len()];
        for round in 0..rounds {
            let round_span = self.tel.span("sampling.round", self.executed);
            for (accum, config) in accums.iter_mut().zip(&ctl.samples) {
                let stats = self.measure(*config, unit_insts);
                self.executed += stats.instructions;
                accum.add(&stats);
                seg.periods.sampling.add(&stats);
                self.totals.sampling.add(&stats);
            }
            self.tel.incr("samples_taken", n_samples);
            self.transition(SpanEnd::BeforeEvents(round_span), [], |_| {
                Some(Event::SamplingRound {
                    round: round as u64,
                    total_rounds: rounds as u64,
                    samples: n_samples,
                    unit_insts,
                })
            });
        }
        self.tel.close_span(span, self.executed);
        seg.samples = ctl
            .samples
            .iter()
            .zip(&accums)
            .map(|(c, a)| (*c, a.metrics(self.wear_budget)))
            .collect();
        // Normalize to the *cyclically sampled* baseline anchor: the
        // pre-window baseline can land inside a single burst phase,
        // while the anchor sample saw the same phase mixture as every
        // other sample (the whole point of cyclic fine-grained sampling,
        // Section 5.2).
        let anchor = NvmConfig::static_baseline().without_wear_quota();
        if let Some(idx) = ctl.samples.iter().position(|c| *c == anchor) {
            self.last_baseline = accums[idx].metrics(self.wear_budget);
        }
    }

    /// Fit the predictor on the samples (or reuse the banked fit, or
    /// restore a recovered one) and predict every configuration. Returns
    /// the predictions and the host µs of the fit and predict spans.
    fn fit_or_elide(&mut self, seg: &Segment) -> (Vec<Metrics>, u64) {
        let model = self.ctl.cfg.model;
        let signature = crate::phase::phase_signature(seg.apki);
        let fit = |model| StateRecord::FitCompleted {
            segment: seg.index,
            elided: seg.reuse.is_some(),
            apki: seg.apki.to_bits(),
            signature,
            model,
        };
        let (slot, fit_us) = match seg.reuse {
            Some(slot) => {
                self.tel.incr("fit.elided", 1);
                self.transition(SpanEnd::None, [fit(None)], |_| {
                    Some(Event::FitElided {
                        segment: seg.index,
                        signature,
                        learner: model.short_label().to_string(),
                    })
                });
                (slot, 0)
            }
            None => {
                let span =
                    self.tel
                        .span_with("fit", self.executed, &[("learner", model.short_label())]);
                // Crash recovery: a fresh fit inside the replayed prefix
                // restores its persisted model instead of refitting,
                // pinning the save/restore path to the bit-identical
                // decisions contract on every recovery.
                let predictor = match self
                    .persist
                    .as_ref()
                    .and_then(|s| s.replayed_fit(seg.index))
                {
                    Some(state) => {
                        self.tel.incr("persist.models_restored", 1);
                        MetricsPredictor::from_state(state)
                    }
                    None => self.fresh_fit(&seg.samples),
                };
                let record = fit(predictor.save_state());
                let slot = self.bank.insert(seg.apki, predictor);
                let fit_us = self.transition(SpanEnd::BeforeEvents(span), [record], |_| None);
                (slot, fit_us)
            }
        };
        let span = self.tel.span("predict", self.executed);
        let predictions = self.bank.model(slot).predict_all(&self.ctl.space);
        let predict_us = self.tel.close_span(span, self.executed);
        if seg.reuse.is_none() {
            self.tel.incr("predictor_refits", 1);
            // Diagnostics-only work (k-fold refits, a lasso report) runs
            // solely when a recorder is attached.
            self.transition(SpanEnd::None, [], |run| {
                let lasso_features =
                    if matches!(model, ModelKind::LinearLasso | ModelKind::QuadraticLasso) {
                        let quadratic = model == ModelKind::QuadraticLasso;
                        lasso_feature_report(&seg.samples, 0, quadratic, 0.01)
                            .into_iter()
                            .filter(|(_, w)| w.abs() > 1e-6)
                            .collect()
                    } else {
                        Vec::new()
                    };
                Some(Event::PredictorFitted {
                    model: model.label().to_string(),
                    n_samples: seg.samples.len() as u64,
                    cv_r2_ipc: run.bank.model(slot).cv_r2_ipc(&seg.samples, 4),
                    lasso_features,
                })
            });
        }
        (predictions, fit_us + predict_us)
    }

    /// Constrained optimization over the predictions, with the
    /// wear-quota fixup (Section 5.3).
    fn decide(&mut self, seg: &Segment, predicted: &[Metrics], fit_us: u64) -> OptimizationResult {
        let span = self.tel.span("decide", self.executed);
        let opt = self.select(predicted);
        self.chosen = opt.config;
        let record = decision_record(seg.index, &opt, false);
        let decide_us = self.transition(SpanEnd::BeforeEvents(span), [record], |run| {
            let floor = run.ctl.objective.lifetime_floor();
            Some(Event::ConfigSelected {
                config: opt.config.to_string(),
                config_before_fixup: opt
                    .fixup_changed()
                    .then(|| opt.config_before_fixup.to_string()),
                predicted: opt.predicted,
                lifetime_slack_years: opt.predicted.lifetime_years - floor.unwrap_or(0.0),
                quota_fixup_applied: run.ctl.cfg.quota_fixup && floor.is_some(),
                fell_back: opt.fell_back,
            })
        });
        // Decision latency (fit + predict_all + optimize, host time) is
        // the sum of the fit, predict and decide span durations, so the
        // diagnostics between them — k-fold refits, lasso reports — are
        // not charged to it.
        let latency_us = (fit_us + decide_us) as f64;
        self.tel.observe("decision.latency_us", latency_us);
        self.tel.observe_with(
            "decision.latency_us",
            &[("learner", self.ctl.cfg.model.short_label())],
            latency_us,
        );
        if opt.fell_back {
            self.tel.incr("optimizer_fallbacks", 1);
        }
        opt
    }

    /// The testing period under the chosen configuration: feed the phase
    /// detector window by window and health-check periodically, until a
    /// phase change, a re-sample, or the end of the budget. Returns the
    /// `testing` span, which closes when the segment finishes.
    ///
    /// The measured region is finalized only at health-check and phase
    /// boundaries (not per window): finalizing drains the write queues,
    /// and doing so every window would deflate the testing IPC relative
    /// to the long-window methodology the static/ideal references are
    /// measured with.
    fn test(&mut self, seg: &mut Segment, opt: &mut OptimizationResult) -> SpanGuard {
        let cfg = &self.ctl.cfg;
        self.settle();
        self.detector.reset();
        let span = self.tel.span("testing", self.executed);
        let mut windows: u64 = 0;
        while self.executed < cfg.total_insts {
            let before = self.sys.perf_counters();
            self.sys.run_window(self.source, cfg.phase.window_insts);
            let workload = self.sys.perf_counters().workload_since(&before) as f64;
            self.executed += cfg.phase.window_insts;
            windows += 1;
            if self.detector.observe(workload) {
                self.tel.incr("phase_changes", 1);
                self.transition(SpanEnd::None, [], |run| {
                    Some(Event::PhaseDetected {
                        score: run.detector.last_score(),
                        phases_detected: run.detector.phases_detected(),
                        mean_workload: workload * 1e3 / cfg.phase.window_insts as f64,
                    })
                });
                self.flush_testing(seg);
                break;
            }
            let every = cfg.health_check_every_windows;
            if !seg.health_fallback && every > 0 && windows.is_multiple_of(every) {
                if self.health_check(seg, opt) {
                    break;
                }
                self.settle();
            }
        }
        span
    }

    /// One periodic health check (Section 5.4): run the baseline briefly
    /// and, on a failed reading, escalate the degradation ladder one rung
    /// — re-sample, then refit, then the paper's revert-to-static
    /// fallback. Returns whether the segment must restart to re-sample.
    fn health_check(&mut self, seg: &mut Segment, opt: &mut OptimizationResult) -> bool {
        let ctl = self.ctl;
        let span = self.tel.span("health_check", self.executed);
        self.flush_testing(seg);
        let stats = self.measure(ctl.baseline_config, ctl.cfg.health_check_insts);
        self.executed += stats.instructions;
        // Accumulate baseline health-check windows so the reference
        // covers the same phase mixture the testing aggregate does (one
        // window is burst-biased); only act once at least two windows
        // accumulated.
        seg.health_reference.add(&stats);
        seg.health_checks += 1;
        let reference = seg.health_reference.metrics(self.wear_budget);
        let testing = seg.periods.testing.metrics(self.wear_budget);
        let failed = DegradationLadder::reading_failed(
            seg.health_checks,
            testing.ipc,
            reference.ipc,
            testing.lifetime_years,
            ctl.objective.lifetime_floor(),
        );
        seg.healthy &= !failed;
        let mut records = vec![StateRecord::HealthChecked {
            segment: seg.index,
            check: seg.health_checks,
            passed: !failed,
            testing_ipc: testing.ipc.to_bits(),
            baseline_ipc: reference.ipc.to_bits(),
        }];
        let (action, moved) = self.ladder.observe(failed);
        records.extend(moved.map(|tr| StateRecord::LadderMoved {
            segment: seg.index,
            from: tr.from,
            to: tr.to,
            failures: tr.failures,
        }));
        match action {
            DegradationAction::None | DegradationAction::Resample => {}
            DegradationAction::Refit => {
                // Fold the degraded testing observation into the sample
                // set and re-optimize in place, so the model sees how the
                // choice actually ran.
                let refit_span = self.tel.span("refit", self.executed);
                seg.samples.push((self.chosen, testing));
                let refit = self.fresh_fit(&seg.samples);
                *opt = self.select(&refit.predict_all(&ctl.space));
                self.chosen = opt.config;
                self.tel.close_span(refit_span, self.executed);
                records.push(decision_record(seg.index, opt, true));
            }
            DegradationAction::RevertToStatic => {
                seg.health_fallback = true;
                self.chosen = ctl.baseline_config;
            }
        }
        self.bank.apply(action);
        self.tel.incr("health_checks", 1);
        if seg.health_fallback {
            self.tel.incr("health_fallbacks", 1);
        }
        if moved.is_some() {
            self.tel.incr("degradation_transitions", 1);
        }
        let fallback_taken = seg.health_fallback;
        self.transition(SpanEnd::AfterEvents(span), records, |_| {
            let check = Event::HealthCheck {
                testing_ipc: testing.ipc,
                baseline_ipc: reference.ipc,
                passed: !failed,
                fallback_taken,
            };
            let moved = moved.map(|tr| Event::DegradationTransition {
                from: tr.from.label().to_string(),
                to: tr.to.label().to_string(),
                failures: tr.failures,
                testing_ipc: testing.ipc,
                baseline_ipc: reference.ipc,
                // Clamp: JSON has no Infinity literal.
                lifetime_years: testing.lifetime_years.min(1e9),
            });
            std::iter::once(check).chain(moved)
        });
        // Rung 1 abandons the testing period and restarts the segment so
        // sampling observes the degraded regime. Stats were finalized and
        // reset above, so the segment's tail flush is a no-op.
        action == DegradationAction::Resample
    }

    /// Close the segment: flush the tail of the measured region, then
    /// report it, persist it and compact the log.
    fn finish_segment(&mut self, mut seg: Segment, opt: OptimizationResult, testing: SpanGuard) {
        let meter = self.flush_testing(&mut seg);
        self.last_segment_healthy = seg.healthy;
        let report = SegmentReport {
            optimization: opt,
            baseline: self.last_baseline,
            sampling: seg.periods.sampling.metrics(self.wear_budget),
            testing: seg.periods.realized(self.wear_budget),
            health_fallback: seg.health_fallback,
            fit_elided: seg.reuse.is_some(),
            warm_started: seg.warm_started,
            sampling_insts: seg.periods.sampling.insts,
            testing_insts: seg.periods.testing.insts,
        };
        let records = [
            StateRecord::WearDelta {
                segment: seg.index,
                sampling_wear: seg.periods.sampling.wear_units.to_bits(),
                testing_wear: seg.periods.testing.wear_units.to_bits(),
                meter,
            },
            StateRecord::SegmentCompleted {
                segment: seg.index,
                chosen: self.chosen,
                health_fallback: report.health_fallback,
                fit_elided: report.fit_elided,
                warm_started: report.warm_started,
                sampling_insts: report.sampling_insts,
                testing_insts: report.testing_insts,
                testing: report.testing.into(),
            },
        ];
        self.transition(SpanEnd::BeforeEvents(testing), records, |run| {
            Some(Event::SegmentCompleted {
                segment: seg.index,
                config: run.chosen.to_string(),
                predicted: (!report.optimization.fell_back)
                    .then_some(report.optimization.predicted),
                realized: report.testing,
                insts: report.sampling_insts + report.testing_insts,
            })
        });
        // Segment boundaries compact the log into a snapshot (a no-op
        // while recovery is still verifying the prefix, and after an
        // injected crash).
        if let Some(session) = self.persist.as_mut() {
            let span = self.tel.span("persist.snapshot", self.executed);
            session
                .checkpoint()
                // mct-tidy: allow(P003) -- documented `# Panics` contract: a failing store must not be ignored
                .expect("persist: segment snapshot failed");
            self.tel.close_span(span, self.executed);
        }
        self.segments.push(report);
        self.tel.close_span(seg.span, self.executed);
    }

    /// End the run: persist its completion, compact the log, and hand
    /// back the outcome and the telemetry. `span` is the `run` span.
    fn finish(mut self, span: SpanGuard) -> (Outcome, Telemetry) {
        let final_metrics = self.totals.realized(self.wear_budget);
        let record = StateRecord::RunCompleted {
            executed: self.executed,
            chosen: self.chosen,
            segments: self.segments.len() as u64,
            final_metrics: final_metrics.into(),
        };
        self.transition(SpanEnd::AfterEvents(span), [record], |run| {
            let fallbacks = run
                .segments
                .iter()
                .filter(|s| s.health_fallback || s.optimization.fell_back)
                .count() as u64;
            Some(Event::RunCompleted {
                segments: run.segments.len() as u64,
                total_insts: run.executed,
                fallbacks,
                metrics: final_metrics,
            })
        });
        // The final snapshot compacts a clean run to one snapshot whose
        // log ends in `run_completed` — the warm-start source for the
        // next `--resume`.
        if let Some(session) = self.persist.as_mut() {
            session
                .checkpoint()
                // mct-tidy: allow(P003) -- documented `# Panics` contract: a failing store must not be ignored
                .expect("persist: final snapshot failed");
            self.tel.incr("persist.appends", session.appends());
            self.tel.incr("persist.snapshots", session.snapshots());
        }
        self.tel.finish(self.executed);
        let outcome = Outcome {
            chosen_config: self.chosen,
            final_metrics,
            sampling_metrics: self.totals.sampling.metrics(self.wear_budget),
            baseline_metrics: self.last_baseline,
            phases_detected: self.detector.phases_detected(),
            segments: self.segments,
            sampling_insts: self.totals.sampling.insts,
            testing_insts: self.totals.testing.insts,
        };
        (outcome, self.tel)
    }

    /// A fresh predictor fitted on `samples` against the current baseline.
    fn fresh_fit(&mut self, samples: &[(NvmConfig, Metrics)]) -> MetricsPredictor {
        let mut predictor = MetricsPredictor::new(self.ctl.cfg.model);
        predictor.fit_traced(
            samples,
            Some(self.last_baseline),
            &mut self.tel,
            self.executed,
        );
        predictor
    }

    /// The objective-optimal configuration over `predictions`.
    fn select(&self, predictions: &[Metrics]) -> OptimizationResult {
        let ctl = self.ctl;
        optimize(
            &ctl.space,
            predictions,
            &ctl.objective,
            ctl.baseline_config,
            ctl.cfg.quota_fixup,
        )
    }

    /// Switch to the chosen configuration and let the queues refill for
    /// a quarter window, unmeasured, before testing (re)starts.
    fn settle(&mut self) {
        let insts = self.ctl.cfg.phase.window_insts / 4;
        self.sys.set_policy(self.chosen.to_policy());
        self.sys.run_window(self.source, insts);
        self.executed += insts;
        self.sys.reset_stats();
    }

    /// Finalize the measured testing region (draining the write queues),
    /// fold it into the segment's and the run's testing totals, and
    /// restart the counters. Returns the wear meter, snapshotted after
    /// the finalize (so it covers the final measured epoch) and before
    /// the reset clears it.
    fn flush_testing(&mut self, seg: &mut Segment) -> WearSnapshot {
        let stats = self.sys.finalize();
        if stats.instructions > 0 {
            seg.periods.testing.add(&stats);
            self.totals.testing.add(&stats);
        }
        let meter = self.sys.wear_snapshot();
        self.sys.reset_stats();
        meter
    }

    /// Run one measurement window under `config` and return its stats.
    ///
    /// A settle window (one quarter of the measurement) runs between the
    /// policy switch and the measured region: switching drains the memory
    /// queues, and queue-occupancy-dependent behaviour (bank-aware issue,
    /// drain mode) is unrepresentative until they refill.
    ///
    /// With a recorder attached, each window also feeds the registry's
    /// `sim.accesses` counter and `sim.accesses_per_sec` histogram (host
    /// wall-clock simulator throughput over the span's duration), and the
    /// measured region is wrapped in a `sim.window` leaf span — the
    /// profiler's view of raw simulator time under whichever stage
    /// requested the window.
    fn measure(&mut self, config: NvmConfig, insts: u64) -> RunStats {
        self.sys.set_policy(config.to_policy());
        self.sys.run_window(self.source, (insts / 4).max(500));
        self.sys.reset_stats();
        // One recorder gate for the whole probe: with the default
        // NullRecorder the measured region runs with zero telemetry calls
        // in front of it (each span/observe call would branch on its own,
        // but four branches per window add up across a sweep's thousands
        // of windows).
        // Both span edges carry the caller's `executed` clock: the caller
        // only advances it after the window returns, and constant edges
        // keep the trace's sim_insts monotone. Duration lives in wall_us.
        let probe = self
            .tel
            .enabled()
            .then(|| self.tel.span("sim.window", self.executed));
        self.sys.run_window(self.source, insts);
        let stats = self.sys.finalize();
        self.sys.reset_stats();
        if let Some(window_span) = probe {
            let host_us = self.tel.close_span(window_span, self.executed);
            let accesses = stats.mem.reads_completed + stats.mem.writes_completed();
            self.tel.incr("sim.accesses", accesses);
            if host_us > 0 && accesses > 0 {
                self.tel.observe(
                    "sim.accesses_per_sec",
                    accesses as f64 * 1e6 / host_us as f64,
                );
            }
        }
        stats
    }
}

/// The state record of a decision (`refit`: one the ladder forced).
fn decision_record(segment: u64, opt: &OptimizationResult, refit: bool) -> StateRecord {
    StateRecord::DecisionMade {
        segment,
        config: opt.config,
        predicted: opt.predicted.into(),
        fell_back: opt.fell_back,
        refit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_workloads::Workload;

    fn quick() -> ControllerConfig {
        ControllerConfig::quick_demo()
    }

    #[test]
    fn runs_end_to_end_on_stream() {
        let mut c = Controller::new(quick(), Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Stream.source(3));
        assert!(outcome.final_metrics.ipc > 0.0);
        assert!(!outcome.segments.is_empty());
        assert!(outcome.testing_insts > 0);
        assert!(outcome.sampling_insts > 0);
        outcome.chosen_config.validate().unwrap();
    }

    #[test]
    fn quota_fixup_applied_to_choice() {
        let mut c = Controller::new(quick(), Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Stream.source(3));
        let seg = &outcome.segments[0];
        if !seg.health_fallback && !seg.optimization.fell_back {
            assert!(seg.optimization.config.wear_quota);
            assert_eq!(seg.optimization.config.wear_quota_target, 8.0);
        }
    }

    #[test]
    fn samples_include_anchors() {
        let c = Controller::new(quick(), Objective::paper_default(8.0));
        assert!(c
            .samples()
            .iter()
            .any(|s| *s == NvmConfig::default_config()));
        assert!(c
            .samples()
            .iter()
            .any(|s| *s == NvmConfig::static_baseline().without_wear_quota()));
    }

    #[test]
    fn feature_based_controller_has_more_samples() {
        let mut cfg = quick();
        cfg.feature_based_sampling = true;
        let c = Controller::new(cfg, Objective::paper_default(8.0));
        assert!(c.samples().len() >= 60);
    }

    #[test]
    fn extrapolation_formula() {
        let outcome = Outcome {
            chosen_config: NvmConfig::default_config(),
            final_metrics: Metrics {
                ipc: 1.0,
                lifetime_years: 8.0,
                energy_j: 10.0,
            },
            sampling_metrics: Metrics {
                ipc: 0.5,
                lifetime_years: 8.0,
                energy_j: 2.0,
            },
            baseline_metrics: Metrics {
                ipc: 0.9,
                lifetime_years: 8.0,
                energy_j: 9.0,
            },
            phases_detected: 0,
            segments: vec![],
            sampling_insts: 1000,
            testing_insts: 1000,
        };
        // alpha = 1: mean of sampling and testing IPC.
        assert!((outcome.extrapolated_ipc(1.0) - 0.75).abs() < 1e-12);
        // alpha -> large: approaches testing IPC.
        assert!((outcome.extrapolated_ipc(1e9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ocean_phases_trigger_resampling() {
        let mut cfg = quick();
        // Long enough to cross ocean's 2M-instruction phase boundary.
        cfg.total_insts = 3_000_000;
        cfg.warmup_insts = 200_000;
        cfg.phase.window_insts = 50_000;
        cfg.phase.history_windows = 40;
        cfg.phase.recent_windows = 4;
        let mut c = Controller::new(cfg, Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Ocean.source(5));
        assert!(
            outcome.segments.len() >= 2,
            "ocean's coarse phases should trigger resampling (got {} segments, {} phases)",
            outcome.segments.len(),
            outcome.phases_detected
        );
    }
}
