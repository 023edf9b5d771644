//! Per-layer numbers of a traced iteration, read from the spans and
//! counters the controller already emits, plus a counting and timing
//! adapter around the workload generator.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use memory_cocktail_therapy::framework::Outcome;
use memory_cocktail_therapy::sim::trace::{AccessSource, TraceEvent};
use memory_cocktail_therapy::telemetry::profile::SpanNode;
use memory_cocktail_therapy::telemetry::{Record, Registry, SpanProfile};

/// One generator call in this many is timed; the sum is scaled back up.
/// Timing every call would cost about as much as generating the event.
const GEN_SAMPLE: u64 = 16;

/// Counts the events a workload generator produces and estimates the
/// host time spent producing them.
pub struct CountingSource<S> {
    inner: S,
    events: u64,
    sampled_ns: u64,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            events: 0,
            sampled_ns: 0,
        }
    }
}

impl<S: AccessSource> AccessSource for CountingSource<S> {
    fn next_access(&mut self) -> TraceEvent {
        self.events += 1;
        if self.events.is_multiple_of(GEN_SAMPLE) {
            // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
            let t = Instant::now();
            let event = self.inner.next_access();
            self.sampled_ns += t.elapsed().as_nanos() as u64;
            event
        } else {
            self.inner.next_access()
        }
    }

    fn mean_gap_hint(&self) -> Option<f64> {
        self.inner.mean_gap_hint()
    }
}

#[derive(Default, Clone, Copy)]
struct SpanSum {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// Per-layer sums over the runs of one traced iteration.
#[derive(Default)]
pub struct Layers {
    /// Span sums keyed by span name, over every tree position.
    spans: BTreeMap<String, SpanSum>,
    root_us: u64,
    host_us: u64,
    records: u64,
    counters: BTreeMap<&'static str, u64>,
    events: u64,
    gen_ns: u64,
    sampling_insts: u64,
    testing_insts: u64,
    segments: u64,
    health_fallbacks: u64,
    pub store_bytes: u64,
}

const COUNTERS: [&str; 6] = [
    "sim.accesses",
    "fit.elided",
    "persist.appends",
    "persist.snapshots",
    "persist.warm_starts",
    "persist.sampling_skipped",
];

impl Layers {
    pub fn add_source<S>(&mut self, source: &CountingSource<S>) {
        self.events += source.events;
        self.gen_ns += source.sampled_ns * GEN_SAMPLE;
    }

    /// Fold in one traced run: its records, its registry, its outcome and
    /// the host time of the `Controller::run` call.
    pub fn add_run(
        &mut self,
        records: &[Record],
        registry: &Registry,
        outcome: &Outcome,
        host_us: u64,
    ) {
        fn walk(spans: &mut BTreeMap<String, SpanSum>, nodes: &[SpanNode]) {
            for node in nodes {
                let sum = spans.entry(node.name.clone()).or_default();
                sum.count += node.count;
                sum.total_us += node.total_us;
                sum.self_us += node.self_us;
                walk(spans, &node.children);
            }
        }
        let profile = SpanProfile::from_records(records);
        walk(&mut self.spans, &profile.roots);
        self.root_us += profile.roots.iter().map(|r| r.total_us).sum::<u64>();
        self.host_us += host_us;
        self.records += records.len() as u64;
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += registry.counter(name);
        }
        self.sampling_insts += outcome.sampling_insts;
        self.testing_insts += outcome.testing_insts;
        self.segments += outcome.segments.len() as u64;
        self.health_fallbacks += outcome
            .segments
            .iter()
            .filter(|s| s.health_fallback)
            .count() as u64;
    }

    fn span(&self, name: &str) -> SpanSum {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.span(name).total_us as f64 / 1e3
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.span(name).self_us as f64 / 1e3
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named per-layer metrics as a JSON object.
    ///
    /// The `*.layer_ms` entries partition the root spans' time: `sim` is
    /// warmup plus every `sim.window`, `ml` is every `fit` and `predict`,
    /// `persist` is `persist.open` and `persist.snapshot`, and `core` is
    /// the rest (controller code and simulation no `sim.window` covers).
    /// Their sum over the host time of the `Controller::run` calls is
    /// `core.span_coverage`.
    pub fn to_json(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let sim_us = self.span("warmup").total_us + self.span("sim.window").total_us;
        let ml_us = self.span("fit").total_us + self.span("predict").total_us;
        let persist_us =
            self.span("persist.open").total_us + self.span("persist.snapshot").total_us;
        let core_us = self.root_us.saturating_sub(sim_us + ml_us + persist_us);
        let fits = self.span("fit").count;
        let elided = self.counter("fit.elided");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let metrics: Vec<(&str, f64)> = vec![
            ("core.warmup_ms", self.total_ms("warmup")),
            ("core.baseline_ms", self.total_ms("baseline")),
            ("core.sampling_ms", self.total_ms("sampling")),
            ("core.sampling_self_ms", self.self_ms("sampling.round")),
            ("core.testing_ms", self.total_ms("testing")),
            ("core.testing_self_ms", self.self_ms("testing")),
            ("core.health_check_ms", self.total_ms("health_check")),
            ("core.decide_ms", self.total_ms("decide")),
            ("core.segment_self_ms", self.self_ms("segment")),
            (
                "core.span_coverage",
                ratio(self.root_us as f64, self.host_us as f64),
            ),
            ("core.layer_ms", ms(core_us)),
            ("core.sampling_insts", self.sampling_insts as f64),
            ("core.testing_insts", self.testing_insts as f64),
            ("core.segments", self.segments as f64),
            ("core.health_fallbacks", self.health_fallbacks as f64),
            (
                "core.fit_elided_frac",
                ratio(elided as f64, (elided + fits) as f64),
            ),
            ("sim.layer_ms", ms(sim_us)),
            ("sim.window_ms", self.total_ms("sim.window")),
            ("sim.windows", self.span("sim.window").count as f64),
            ("sim.accesses", self.counter("sim.accesses") as f64),
            ("workloads.events", self.events as f64),
            ("workloads.gen_ms", self.gen_ns as f64 / 1e6),
            ("ml.layer_ms", ms(ml_us)),
            ("ml.fit_ms", self.total_ms("fit")),
            ("ml.fit_model_ms", self.total_ms("fit.model")),
            ("ml.fits", fits as f64),
            ("ml.predict_ms", self.total_ms("predict")),
            ("persist.layer_ms", ms(persist_us)),
            ("persist.open_ms", self.total_ms("persist.open")),
            ("persist.snapshot_ms", self.total_ms("persist.snapshot")),
            ("persist.appends", self.counter("persist.appends") as f64),
            (
                "persist.snapshots",
                self.counter("persist.snapshots") as f64,
            ),
            (
                "persist.warm_starts",
                self.counter("persist.warm_starts") as f64,
            ),
            (
                "persist.sampling_skipped",
                self.counter("persist.sampling_skipped") as f64,
            ),
            ("persist.store_bytes", self.store_bytes as f64),
            ("telemetry.records", self.records as f64),
            ("telemetry.traced_wall_ms", ms(self.host_us)),
        ];
        let mut out = String::from("{");
        for (i, (name, value)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}
