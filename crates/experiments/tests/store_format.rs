//! The on-disk store format is a contract: committed `data/grains_*.jsonl`
//! files and every cache a user already filled must keep loading, and a
//! store must keep writing the same bytes.
//!
//! This binary holds no test that discards a line on purpose, so the
//! process-wide `stale_discarded`/`corrupt_discarded` counters move only
//! if a committed store fails to load.

use std::fs;
use std::path::Path;

use mct_core::NvmConfig;
use mct_experiments::cache::Store;
use mct_experiments::mix_mct::MixOutcome;
use mct_sim::stats::Metrics;
use mct_telemetry::pipeline_stats;
use serde::Content;

#[test]
fn committed_grain_stores_load_every_line() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let mut paths: Vec<_> = fs::read_dir(&data)
        .expect("read data dir")
        .map(|e| e.expect("data dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("grains_") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no committed grain stores under {data:?}"
    );

    let before = pipeline_stats().snapshot();
    for path in &paths {
        let lines = fs::read_to_string(path)
            .expect("read grain store")
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        let store = Store::<Metrics>::open(path.clone());
        assert_eq!(store.len(), lines, "{}: one entry per line", path.display());
    }
    let after = pipeline_stats().snapshot();
    assert_eq!(after.stale_discarded, before.stale_discarded, "stale lines");
    assert_eq!(
        after.corrupt_discarded, before.corrupt_discarded,
        "corrupt lines"
    );
}

#[test]
fn store_lines_keep_their_exact_bytes() {
    let dir = mct_persist::TempDir::new("mct-store-format");

    let grains = dir.join("grains.jsonl");
    let store = Store::<Metrics>::open(grains.clone());
    let _ = store.get_or_compute_batch(&[(u64::MAX - 6, ())], 1, |()| Metrics {
        ipc: 0.661_722_261_899_760_6,
        lifetime_years: 8.0,
        energy_j: 0.001_972_903_499_999_995_6,
    });
    assert_eq!(
        fs::read_to_string(&grains).expect("read grain store"),
        "{\"v\":4,\"k\":18446744073709551609,\"m\":{\"ipc\":0.6617222618997606,\
         \"lifetime_years\":8.0,\"energy_j\":0.0019729034999999956}}\n"
    );

    let derived = dir.join("derived.jsonl");
    let store = Store::<Content>::open(derived.clone());
    let _ = store.get_or_compute_batch(&[(42, ())], 1, |()| MixOutcome {
        geomean_ipc: 1.25,
        lifetime_years: 9.5,
        energy_j: 0.003,
        fairness: 0.75,
        config: NvmConfig::static_baseline(),
    });
    assert_eq!(
        fs::read_to_string(&derived).expect("read derived store"),
        "{\"v\":4,\"k\":42,\"val\":{\"geomean_ipc\":1.25,\"lifetime_years\":9.5,\"energy_j\":0.003,\
         \"fairness\":0.75,\"config\":{\"bank_aware\":true,\"bank_aware_threshold\":1,\
         \"eager_writebacks\":true,\"eager_threshold\":32,\"wear_quota\":true,\
         \"wear_quota_target\":8.0,\"fast_latency\":1.0,\"slow_latency\":3.0,\
         \"fast_cancellation\":false,\"slow_cancellation\":true}}}\n"
    );
}
