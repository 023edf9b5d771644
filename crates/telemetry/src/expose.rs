//! Dependency-free Prometheus text exposition.
//!
//! [`render_prometheus`] turns a [`RegistrySnapshot`] into the
//! Prometheus text format (version 0.0.4): counters become
//! `mct_<name>_total` counter families, histogram summaries become
//! summary families with `quantile` labels plus `_sum`/`_count`
//! children. Internal dotted names (`decision.latency_us`) are sanitized
//! into the Prometheus alphabet (`mct_decision_latency_us`).
//!
//! This is what `mct run --metrics-out` writes and `mct metrics --prom`
//! prints, and — once `mct-serve` lands — what its `/metrics` endpoint
//! will serve. No Prometheus client crate is involved: the format is
//! line-oriented and small, and the vendored-deps policy rules out a new
//! dependency. [`validate_prometheus`] is a hand-rolled lexer for the
//! same grammar, used by tests and CI to keep the encoder honest.

use crate::registry::{OwnedLabels, RegistrySnapshot, SeriesKey};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse a canonical rendered series name (`name` or `name{k="v",…}`,
/// as produced by [`SeriesKey::render`]) back into its parts. Returns
/// `None` on malformed input instead of guessing.
#[must_use]
pub fn parse_series(rendered: &str) -> Option<SeriesKey> {
    let Some(brace) = rendered.find('{') else {
        return Some(SeriesKey {
            name: rendered.to_string(),
            labels: Vec::new(),
        });
    };
    let name = &rendered[..brace];
    let rest = rendered[brace + 1..].strip_suffix('}')?;
    let mut labels: OwnedLabels = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return None;
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return None,
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return None;
        }
        labels.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(_) => return None,
        }
    }
    Some(SeriesKey {
        name: name.to_string(),
        labels,
    })
}

/// Map an internal metric or label name into the Prometheus alphabet:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` for metric names (labels disallow `:`).
/// Dots become underscores; anything else out-of-alphabet does too.
fn sanitize(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value for the text format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format a float the way Prometheus expects (no exponent surprises for
/// the common cases; `inf`/`NaN` spelled out).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn render_label_set(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k, false), escape_label(v)))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

/// Render a registry snapshot in the Prometheus text exposition format.
///
/// Every family is prefixed `mct_`; counters get the `_total` suffix
/// required by current naming conventions, histogram summaries emit
/// p50/p90/p99/p999 `quantile` children plus `_sum` and `_count`. Series
/// within a family keep snapshot (label-sorted) order, so output is
/// deterministic.
#[must_use]
pub fn render_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();

    // Group by sanitized family name so each family gets one TYPE line.
    let mut counter_families: BTreeMap<String, Vec<(OwnedLabels, u64)>> = BTreeMap::new();
    for (rendered, value) in &snapshot.counters {
        let key = match parse_series(rendered) {
            Some(key) => key,
            None => SeriesKey {
                name: rendered.clone(),
                labels: Vec::new(),
            },
        };
        counter_families
            .entry(sanitize(&format!("mct_{}", key.name), true))
            .or_default()
            .push((key.labels, *value));
    }
    for (family, series) in &counter_families {
        let _ = writeln!(out, "# TYPE {family}_total counter");
        for (labels, value) in series {
            let _ = writeln!(out, "{family}_total{} {value}", render_label_set(labels));
        }
    }

    let mut summary_families: BTreeMap<String, Vec<(OwnedLabels, &crate::HistogramSummary)>> =
        BTreeMap::new();
    for (rendered, summary) in &snapshot.histograms {
        let key = match parse_series(rendered) {
            Some(key) => key,
            None => SeriesKey {
                name: rendered.clone(),
                labels: Vec::new(),
            },
        };
        summary_families
            .entry(sanitize(&format!("mct_{}", key.name), true))
            .or_default()
            .push((key.labels, summary));
    }
    for (family, series) in &summary_families {
        let _ = writeln!(out, "# TYPE {family} summary");
        for (labels, summary) in series {
            for (q, v) in summary.quantiles() {
                let mut quantile_labels = labels.clone();
                quantile_labels.push(("quantile".to_string(), format!("{q}")));
                let _ = writeln!(
                    out,
                    "{family}{} {}",
                    render_label_set(&quantile_labels),
                    fmt_value(v)
                );
            }
            let set = render_label_set(labels);
            let _ = writeln!(out, "{family}_sum{set} {}", fmt_value(summary.sum));
            let _ = writeln!(out, "{family}_count{set} {}", summary.count);
        }
    }
    out
}

/// Hand-rolled lexer for the Prometheus text format: checks that every
/// line is a well-formed comment or sample. Returns the number of sample
/// lines on success, or a description of the first offending line.
///
/// This exists to round-trip-test [`render_prometheus`] without a
/// Prometheus dependency; CI runs it over real `--metrics-out` output.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn is_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }

    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return err("malformed TYPE comment");
                };
                if !is_metric_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return err("unknown TYPE kind");
                }
            }
            // HELP and free comments are unconstrained.
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return err("bad metric name");
        }
        let mut rest = &line[name_end..];
        if let Some(stripped) = rest.strip_prefix('{') {
            // Walk the label set, honoring escapes inside quoted values.
            let mut chars = stripped.char_indices();
            let mut in_quotes = false;
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    // The guard consumes the escaped character; a '\' at
                    // end-of-input has nothing to escape.
                    '\\' if in_quotes && chars.next().is_none() => {
                        return err("dangling escape in label value");
                    }
                    '"' => in_quotes = !in_quotes,
                    '}' if !in_quotes => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(end) = end else {
                return err("unterminated label set");
            };
            let body = &stripped[..end];
            if !body.is_empty() {
                // Split pairs on commas outside quotes and check shape.
                let mut depth_quotes = false;
                let mut start = 0usize;
                let mut pairs: Vec<&str> = Vec::new();
                for (i, c) in body.char_indices() {
                    match c {
                        '"' if !body[..i].ends_with('\\') => depth_quotes = !depth_quotes,
                        ',' if !depth_quotes => {
                            pairs.push(&body[start..i]);
                            start = i + 1;
                        }
                        _ => {}
                    }
                }
                pairs.push(&body[start..]);
                for pair in pairs {
                    let Some(eq) = pair.find('=') else {
                        return err("label pair missing '='");
                    };
                    let key = &pair[..eq];
                    let value = &pair[eq + 1..];
                    if !is_metric_name(key) || key.contains(':') {
                        return err("bad label name");
                    }
                    if !(value.len() >= 2 && value.starts_with('"') && value.ends_with('"')) {
                        return err("label value not quoted");
                    }
                }
            }
            rest = &stripped[end + 1..];
        }
        let mut fields = rest.split_whitespace();
        let Some(value) = fields.next() else {
            return err("sample missing value");
        };
        let value_ok =
            value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN" | "Inf");
        if !value_ok {
            return err("unparseable sample value");
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return err("unparseable timestamp");
            }
        }
        if fields.next().is_some() {
            return err("trailing tokens after sample");
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> RegistrySnapshot {
        let mut r = Registry::new();
        r.incr("events.health_check", 12);
        r.incr_with("fit", &[("learner", "gbrt")], 3);
        r.incr_with("fit", &[("learner", "quad-lasso")], 9);
        for v in [10.0, 20.0, 30.0, 4000.0] {
            r.observe("stage.fit.wall_us", v);
        }
        r.observe_with("span.wall_us", &[("span", "sampling")], 123.0);
        r.snapshot()
    }

    #[test]
    fn parse_series_inverts_render() {
        for labels in [
            vec![],
            vec![("a", "1")],
            vec![("learner", "gbrt"), ("phase", "fit")],
            vec![("path", "a\"b\\c\nd")],
        ] {
            let key = SeriesKey::new("metric.name", &labels);
            let parsed = parse_series(&key.render()).expect("parses");
            assert_eq!(parsed, key);
        }
        assert!(parse_series("bad{").is_none());
        assert!(parse_series("bad{k=\"unterminated}").is_none());
        assert!(parse_series("bad{=\"v\"}").is_none());
    }

    #[test]
    fn counters_render_with_total_suffix_and_labels() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE mct_events_health_check_total counter"));
        assert!(text.contains("mct_events_health_check_total 12"));
        assert!(text.contains("mct_fit_total{learner=\"gbrt\"} 3"));
        assert!(text.contains("mct_fit_total{learner=\"quad-lasso\"} 9"));
    }

    #[test]
    fn summaries_render_quantiles_sum_and_count() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE mct_stage_fit_wall_us summary"));
        assert!(text.contains("mct_stage_fit_wall_us{quantile=\"0.5\"}"));
        assert!(text.contains("mct_stage_fit_wall_us{quantile=\"0.999\"}"));
        assert!(text.contains("mct_stage_fit_wall_us_sum 4060"));
        assert!(text.contains("mct_stage_fit_wall_us_count 4"));
        assert!(text.contains("mct_span_wall_us{span=\"sampling\",quantile=\"0.5\"}"));
    }

    #[test]
    fn rendered_output_passes_the_lexer() {
        let text = render_prometheus(&sample_snapshot());
        let samples = validate_prometheus(&text).expect("valid exposition");
        // 3 counters + 2 summaries * (4 quantiles + sum + count).
        assert_eq!(samples, 3 + 2 * 6);
    }

    #[test]
    fn lexer_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name{k=v} 1",
            "name{k=\"v\"",
            "name{k=\"v\"} not_a_number",
            "name 1 2 3",
            "# TYPE name sideways",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            validate_prometheus("ok_name 1\n# free comment\n").expect("ok"),
            1
        );
        assert_eq!(
            validate_prometheus("n{a=\"x,y\",b=\"\\\"q\\\"\"} +Inf 170000\n").expect("ok"),
            1
        );
    }

    #[test]
    fn degenerate_summary_values_stay_lexable() {
        let mut r = Registry::new();
        r.observe("weird", f64::INFINITY);
        r.observe("weird", -3.0);
        let text = render_prometheus(&r.snapshot());
        validate_prometheus(&text).expect("inf/negative values still lex");
        assert!(text.contains("mct_weird_count 2"));
        // Negative quantile readouts (from the zero-or-less mass) lex too.
        assert!(text.contains("-3"), "{text}");
    }
}
