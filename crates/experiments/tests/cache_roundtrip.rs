//! The per-config grain cache must be invisible to the physics.
//!
//! A cache hit has to be bit-identical to a fresh measurement at the
//! same seed — `to_bits` on every `Metrics` field, not an epsilon — and
//! a corrupted or truncated store file must degrade to a re-measurement,
//! never a crash or a wrong number.

use std::fs;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use mct_core::NvmConfig;
use mct_experiments::cache::{grain_key, Store};
use mct_experiments::{Scale, WarmedRig, EXPERIMENT_SEED};
use mct_sim::stats::Metrics;
use mct_workloads::Workload;

#[test]
fn cache_hit_is_bit_identical_and_corruption_is_survivable() {
    // A per-test unique dir (auto-cleaned on drop), not a pid-derived
    // path: a same-pid re-run after an aborted test must never see the
    // previous run's store file.
    let dir = mct_persist::TempDir::new("mct-cache-roundtrip");
    let path = dir.join("grains_roundtrip.jsonl");

    let workload = Workload::Gups;
    let scale = Scale::Smoke;
    let cfg = NvmConfig::default_config();
    let budget = workload.detailed_insts(scale.detailed_factor());
    let key = grain_key(workload, EXPERIMENT_SEED, budget, &cfg);
    let measure = || WarmedRig::new(workload, scale, EXPERIMENT_SEED).measure(&cfg);
    let cached = |store: &Store<Metrics>, compute: &(dyn Fn() -> Metrics + Sync)| {
        store.get_or_compute_batch(&[(key, ())], 1, |()| compute())[0]
    };

    // Populate the store through the miss path, then measure fresh.
    let store = Store::<Metrics>::open(path.clone());
    let computes = AtomicUsize::new(0);
    let first = cached(&store, &|| {
        computes.fetch_add(1, Ordering::SeqCst);
        measure()
    });
    assert_eq!(computes.load(Ordering::SeqCst), 1, "first call must miss");
    let fresh = measure();
    assert_eq!(first.ipc.to_bits(), fresh.ipc.to_bits());
    assert_eq!(
        first.lifetime_years.to_bits(),
        fresh.lifetime_years.to_bits()
    );
    assert_eq!(first.energy_j.to_bits(), fresh.energy_j.to_bits());

    // Reopen from disk (not the in-memory map): the persisted entry must
    // hit, skip the compute, and stay bit-identical.
    let reopened = Store::<Metrics>::open(path.clone());
    assert_eq!(reopened.len(), 1, "one persisted grain expected");
    let hit = cached(&reopened, &|| {
        panic!("persisted entry must satisfy the lookup")
    });
    assert_eq!(hit.ipc.to_bits(), fresh.ipc.to_bits());
    assert_eq!(hit.lifetime_years.to_bits(), fresh.lifetime_years.to_bits());
    assert_eq!(hit.energy_j.to_bits(), fresh.energy_j.to_bits());

    // Corrupt the store: truncate the valid line mid-record and append
    // garbage. Loading must reject both without crashing, and the lookup
    // must fall back to a re-measurement that still matches fresh bits.
    let text = fs::read_to_string(&path).expect("read store file");
    let truncated = &text[..text.len() / 2];
    let mut f = fs::File::create(&path).expect("rewrite store file");
    write!(f, "{truncated}\nnot json at all\n{{\"version\":1}}\n").expect("write corruption");
    drop(f);

    let corrupted = Store::<Metrics>::open(path.clone());
    assert!(corrupted.is_empty(), "corrupt lines must be discarded");
    let computes = AtomicUsize::new(0);
    let remeasured = cached(&corrupted, &|| {
        computes.fetch_add(1, Ordering::SeqCst);
        measure()
    });
    assert_eq!(
        computes.load(Ordering::SeqCst),
        1,
        "corrupt entry must re-measure"
    );
    assert_eq!(remeasured.ipc.to_bits(), fresh.ipc.to_bits());
    assert_eq!(
        remeasured.lifetime_years.to_bits(),
        fresh.lifetime_years.to_bits()
    );
    assert_eq!(remeasured.energy_j.to_bits(), fresh.energy_j.to_bits());

    // The re-measurement was re-recorded: a final reopen hits again.
    let healed = Store::<Metrics>::open(path);
    assert_eq!(
        healed.get(key).map(|m| m.ipc.to_bits()),
        Some(fresh.ipc.to_bits())
    );
}
