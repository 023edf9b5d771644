//! `mct-perfbench` — the process that makes the benchmark's calls into
//! the MCT system. `perfbench/run.py` builds it, starts it, checks what
//! it reports and turns the raw records into metrics.
//!
//! ```text
//! mct-perfbench apps --seed N --seconds S --trace 0|1 --state-root DIR
//!                    [--durable] [--inject-mismatch]
//! mct-perfbench pipeline      # one run_all pass over $MCT_DATA_DIR
//! mct-perfbench probe         # start, list the stages, exit
//! ```
//!
//! Every line it prints on stdout is one JSON object with a `kind`
//! field: `run`, `iter`, `layers` and `rss` from `apps`; `stage` and
//! `pipeline` from `pipeline`; `probe` and `ref` from `probe`. Every
//! timed call comes with `ref_us`, the time of the reference kernel
//! (see `calib`) around it.

mod apps;
mod calib;
mod layers;
mod pipeline;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mct-perfbench apps --seed N --seconds S --trace 0|1 --state-root DIR [--durable] [--inject-mismatch]\n  \
         mct-perfbench pipeline\n  mct-perfbench probe"
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
        .transpose()
}

fn run_apps(args: &[String]) -> Result<(), String> {
    let opts = apps::Options {
        seed: parse_flag(args, "--seed")?.ok_or("--seed is required")?,
        seconds: parse_flag(args, "--seconds")?.ok_or("--seconds is required")?,
        traced: parse_flag::<u8>(args, "--trace")?.unwrap_or(0) == 1,
        state_root: flag(args, "--state-root")
            .ok_or("--state-root is required")?
            .into(),
        durable: args.iter().any(|a| a == "--durable"),
        inject_mismatch: args.iter().any(|a| a == "--inject-mismatch"),
    };
    apps::run(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("apps") => run_apps(&args[1..]),
        Some("pipeline") => pipeline::run(),
        Some("probe") => {
            probe();
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mct-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Start up, resolve the data dir, and report what a pipeline pass runs.
/// The caller times the start-up up to that line; the reference kernel
/// then runs, so the caller can scale that time.
fn probe() {
    let _ = mct_experiments::cache::data_dir();
    let stages: Vec<String> = mct_experiments::figures::STAGES
        .iter()
        .map(|(name, _)| json_str(name))
        .collect();
    println!(
        "{{\"kind\":\"probe\",\"experiment_seed\":{},\"stages\":[{}]}}",
        mct_experiments::EXPERIMENT_SEED,
        stages.join(",")
    );
    let ref_us = calib::Reference::new().time_us();
    println!("{{\"kind\":\"ref\",\"ref_us\":{ref_us}}}");
}

/// Peak resident set size of this process, in KiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub(crate) fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Quote `s` as a JSON string.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
