//! Structured decision-trace telemetry for the MCT runtime.
//!
//! Three pieces, one contract:
//!
//! - [`event`]: the typed decision-trace — what the controller decided
//!   (phases, baselines, sampling rounds, fits, selections, health
//!   checks) wrapped in a [`Record`] envelope with a sequence number and
//!   both simulated-instruction and wall-clock timestamps;
//! - [`span`]: structured spans — nested enter/exit timing of the
//!   control loop (sampling, fit, predict, decide), emitted as paired
//!   `SpanOpen`/`SpanClose` events and reassembled post-hoc by
//!   `mct profile`;
//! - [`registry`]: label-aware counters and log-bucketed histograms
//!   ([`histogram`]) for how much work the adaptive machinery did
//!   (samples taken, refits, fallbacks, per-span wall-clock durations),
//!   with bounded label cardinality;
//! - [`pipeline`]: process-wide counters for the experiment pipeline —
//!   scheduler grains (executed/stolen), measurement-cache hits and
//!   discards, and warm-rig snapshot reuse;
//! - [`recorder`]: the sinks — [`NullRecorder`] (the default; disabled
//!   and free), [`JsonlRecorder`] (one JSON event per line), and
//!   [`VecRecorder`] (in-memory, for tests) — behind the [`Telemetry`]
//!   session handle whose cached `enabled()` flag gates every
//!   instrumentation site.
//!
//! [`report`] renders a trace file back into a per-phase decision
//! timeline (`mct report <trace.jsonl>`); [`profile`] aggregates a
//! span-bearing trace into a profile tree (`mct profile <trace.jsonl>`);
//! [`expose`] renders a registry snapshot in the Prometheus text format
//! (`mct metrics`, `mct run --metrics-out`).

pub mod event;
pub mod expose;
pub mod histogram;
pub mod pipeline;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod span;

pub use event::{Event, Record};
pub use expose::render_prometheus;
pub use histogram::{HistogramSummary, LogHistogram};
pub use pipeline::{pipeline_stats, PipelineSnapshot, PipelineStats, WorkerStat};
pub use profile::{render_collapsed, render_tree, SpanProfile};
pub use recorder::{
    null_recorder, JsonlRecorder, NullRecorder, Recorder, RecorderHandle, Telemetry, VecRecorder,
};
pub use registry::{Registry, RegistrySnapshot, SeriesKey};
pub use report::{parse_jsonl, parse_jsonl_tolerant, render_report, render_report_with_unknown};
pub use span::{SpanGuard, SpanId};
