//! Content-addressed, per-grain measurement cache.
//!
//! Brute-force sweeps are the expensive part of the reproduction (the
//! paper burned 300,000 compute-hours on them). Earlier revisions cached
//! whole sweeps as single JSON blobs — all-or-nothing: a killed run lost
//! everything, and any change to the config list invalidated the file.
//!
//! This module caches *measurement grains* instead. A grain is one
//! (workload × policy × detailed budget) measurement, addressed by an
//! FNV-1a hash over its full calibration identity ([`grain_key`]), and
//! persisted as one JSONL line appended (and flushed) the moment it is
//! measured. A killed or partial run therefore loses nothing, and figures
//! can share grains regardless of which config list requested them.
//! Every simulator measurement of the pipeline — the paper-space sweeps
//! of [`load_or_compute_sweeps`] and the extension studies alike — goes
//! through one grain batch, which flattens all outstanding grains into
//! one round of the work-stealing scheduler ([`crate::sched`]).
//!
//! Derived results (controller runs, mix runs) are keyed by a label plus
//! the parameters that determine them ([`derived_key`]). Both kinds live
//! in one store type, [`Store`]: grains decoded as [`Metrics`]
//! (`{"v":…,"k":…,"m":…}` lines), derived results as serde `Content`
//! trees (`{"v":…,"k":…,"val":…}` lines).
//!
//! Loading is tolerant: lines whose `v` field predates [`CACHE_VERSION`]
//! are discarded (logged, counted as `stale_discarded`), and corrupt or
//! truncated lines — e.g. the tail of a write cut off by a kill — are
//! discarded and re-measured rather than crashing (`corrupt_discarded`).
//!
//! Every lookup goes through one hits-first batch path: every hit is
//! served serially, then only the misses fan out over one scheduler
//! round, each recorded from inside its worker.

use std::any::Any;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Content, Deserialize, Serialize};

use mct_core::persist::fnv1a64;
use mct_core::NvmConfig;
use mct_sim::policy::MellowPolicy;
use mct_sim::stats::Metrics;
use mct_telemetry::pipeline_stats;
use mct_workloads::Workload;

use crate::runner::{shared_rig, RigCell};
use crate::scale::Scale;
use crate::sched::{default_workers, run_grains};

/// Bump when the simulator/workload calibration changes incompatibly:
/// stale grains are discarded on load.
pub const CACHE_VERSION: u32 = 4;

/// Content address of one measurement grain: workload, seed, detailed
/// budget, and every knob of the configuration (as exact f64 bits).
///
/// The cache version is *not* hashed in — it is stored per line so that
/// stale entries can be recognized, counted, and logged rather than
/// silently orphaned.
#[must_use]
pub fn grain_key(workload: Workload, seed: u64, detailed_insts: u64, cfg: &NvmConfig) -> u64 {
    vector_grain_key(workload, seed, detailed_insts, &cfg.to_vector())
}

/// [`grain_key`] over an arbitrary feature vector (extended-space
/// configurations have more knobs than [`NvmConfig`]; vectors of
/// different lengths hash differently).
#[must_use]
pub fn vector_grain_key(workload: Workload, seed: u64, detailed_insts: u64, vector: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(32 + 8 * vector.len());
    bytes.extend_from_slice(workload.name().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&detailed_insts.to_le_bytes());
    for v in vector {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Content address of a derived (non-grain) result: a label plus the
/// f64 parameters that determine it.
#[must_use]
pub fn derived_key(label: &str, seed: u64, params: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(64 + 8 * params.len());
    bytes.extend_from_slice(label.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&seed.to_le_bytes());
    for v in params {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Where one lookup of a [`HitsFirst`] batch is served from.
enum Slot<V> {
    /// Served from the store.
    Hit(V),
    /// Index into the batch's deduplicated misses.
    Miss(usize),
}

/// A batch of cached lookups split hits-first: the one path every store
/// lookup takes, whether it asks for one item or a whole sweep.
///
/// [`HitsFirst::plan`] serves every hit at once, serially and in input
/// order, and queues each distinct missing key once. [`HitsFirst::finish`]
/// runs only the misses, in one [`run_grains`] round; `compute` runs
/// inside the worker and records its result, so a killed run keeps every
/// miss that finished. A key repeated within the batch counts as a hit,
/// as it would on a serial pass, and an all-hit batch starts no
/// scheduler round at all. Hits and executed misses feed the pipeline
/// hit rate, so `hits + executed` equals lookups.
struct HitsFirst<'a, I, V> {
    slots: Vec<Slot<V>>,
    misses: Vec<&'a I>,
}

impl<'a, I: Sync, V: Clone + Send> HitsFirst<'a, I, V> {
    fn plan(items: &'a [I], key: impl Fn(&I) -> u64, cached: impl Fn(&I) -> Option<V>) -> Self {
        let mut queued: HashMap<u64, usize> = HashMap::new();
        let mut misses = Vec::new();
        let mut hits = 0u64;
        let slots = items
            .iter()
            .map(|item| {
                let k = key(item);
                if let Some(&i) = queued.get(&k) {
                    hits += 1;
                    return Slot::Miss(i);
                }
                if let Some(v) = cached(item) {
                    hits += 1;
                    return Slot::Hit(v);
                }
                queued.insert(k, misses.len());
                misses.push(item);
                Slot::Miss(misses.len() - 1)
            })
            .collect();
        pipeline_stats().add_cache_hits(hits);
        HitsFirst { slots, misses }
    }

    /// The queued misses, each key once, in first-request order.
    fn misses(&self) -> &[&'a I] {
        &self.misses
    }

    /// Compute the misses on `workers` threads and return every value in
    /// input order.
    fn finish(self, workers: usize, compute: impl Fn(&I) -> V + Sync) -> Vec<V> {
        let fresh = if self.misses.is_empty() {
            Vec::new()
        } else {
            run_grains(&self.misses, workers, |item| compute(item))
        };
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Hit(v) => v,
                Slot::Miss(i) => fresh[i].clone(),
            })
            .collect()
    }
}

mod value {
    /// A value type a [`super::Store`] holds in memory, and the line
    /// field that carries it on disk.
    pub trait StoreValue:
        serde::Serialize + serde::Deserialize + Clone + Send + Sync + 'static
    {
        /// Name of the line field holding the value.
        const FIELD: &'static str;
    }
}
use value::StoreValue;

/// Grains stay decoded as metrics: `{"v":…,"k":…,"m":{…}}`.
impl StoreValue for Metrics {
    const FIELD: &'static str = "m";
}

/// Derived results stay serde trees: `{"v":…,"k":…,"val":…}`.
impl StoreValue for Content {
    const FIELD: &'static str = "val";
}

/// One store line: the cache version, the key, and the value under its
/// field name.
fn encode_line<V: StoreValue>(key: u64, value: &V) -> String {
    let line = Content::Map(vec![
        ("v".to_string(), CACHE_VERSION.serialize_content()),
        ("k".to_string(), key.serialize_content()),
        (V::FIELD.to_string(), value.serialize_content()),
    ]);
    serde_json::to_string(&line).expect("serialize store line")
}

/// `(version, key, value)` of one line; `None` when it does not parse.
fn decode_line<V: StoreValue>(line: &str) -> Option<(u32, u64, V)> {
    let content = serde_json::parse_content(line).ok()?;
    let fields = content.as_map()?;
    let field = |name: &str| serde::content_field(fields, name);
    Some((
        u32::deserialize_content(field("v")?).ok()?,
        u64::deserialize_content(field("k")?).ok()?,
        V::deserialize_content(field(V::FIELD)?).ok()?,
    ))
}

/// An append-only on-disk store of keyed values: measurement grains
/// (`Store<Metrics>`, keyed by [`grain_key`]) or derived results
/// (`Store<Content>`, keyed by [`derived_key`]).
///
/// Each recorded value is appended and flushed as its own line, so a
/// killed run keeps everything computed up to the kill. All methods are
/// thread-safe — scheduler workers record values concurrently.
#[derive(Debug)]
pub struct Store<V> {
    path: PathBuf,
    entries: Mutex<HashMap<u64, V>>,
    writer: Mutex<Option<fs::File>>,
}

impl<V: StoreValue> Store<V> {
    /// Open (or create-on-first-write) the store at `path`, tolerantly
    /// loading whatever valid lines it already holds: lines from an
    /// older [`CACHE_VERSION`] are discarded as stale, and lines that do
    /// not parse (e.g. the tail of a write cut off by a kill) as corrupt.
    /// Both are counted and logged, then re-computed on demand.
    #[must_use]
    pub fn open(path: PathBuf) -> Store<V> {
        let mut entries = HashMap::new();
        let (mut stale, mut corrupt) = (0u64, 0u64);
        let text = fs::read_to_string(&path).unwrap_or_default();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match decode_line::<V>(line) {
                Some((CACHE_VERSION, k, value)) => {
                    entries.insert(k, value);
                }
                Some(_) => stale += 1,
                None => corrupt += 1,
            }
        }
        let stats = pipeline_stats();
        if stale > 0 {
            stats.add_stale_discarded(stale);
            eprintln!(
                "note: discarded {stale} stale cache entr{} in {} (cache version != {CACHE_VERSION}); re-measuring",
                if stale == 1 { "y" } else { "ies" },
                path.display()
            );
        }
        if corrupt > 0 {
            stats.add_corrupt_discarded(corrupt);
            eprintln!(
                "note: discarded {corrupt} corrupt/truncated cache line{} in {}; re-measuring",
                if corrupt == 1 { "" } else { "s" },
                path.display()
            );
        }
        Store {
            path,
            entries: Mutex::new(entries),
            writer: Mutex::new(None),
        }
    }

    /// Number of cached values.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store lock").len()
    }

    /// True when no values are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached value for `key`, if present.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<V> {
        self.entries.lock().expect("store lock").get(&key).cloned()
    }

    /// Record a freshly computed value: appended to disk (one flushed
    /// line — a partial run loses at most the line being written) and
    /// inserted in memory.
    ///
    /// # Panics
    /// Panics on an unwritable store path or a poisoned mutex.
    pub fn record(&self, key: u64, value: V) {
        let line = encode_line(key, &value);
        {
            let mut writer = self.writer.lock().expect("store writer lock");
            let file = writer.get_or_insert_with(|| {
                if let Some(dir) = self.path.parent() {
                    fs::create_dir_all(dir).expect("create cache dir");
                }
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .expect("open store for append")
            });
            file.write_all(format!("{line}\n").as_bytes())
                .expect("append store line");
            file.flush().expect("flush store line");
        }
        self.entries.lock().expect("store lock").insert(key, value);
    }

    /// Serve each `(key, item)` from the store or compute it, hits first:
    /// only the misses fan out over one scheduler round on `workers`
    /// threads, each recorded as it completes. Results are
    /// index-parallel with `items`.
    ///
    /// A cached value that fails to decode as `T` (schema drift without
    /// a version bump) counts as corrupt and is re-computed.
    ///
    /// # Panics
    /// Propagates a panic raised by `compute`; panics on an unwritable
    /// store path, or when `T` does not encode as the store's value type.
    pub fn get_or_compute_batch<I, T>(
        &self,
        items: &[(u64, I)],
        workers: usize,
        compute: impl Fn(&I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Serialize + Deserialize + Clone + Send,
    {
        HitsFirst::plan(items, |(k, _)| *k, |(k, _)| self.decode(*k)).finish(
            workers,
            |(k, item)| {
                let t = compute(item);
                let value = V::deserialize_content(&t.serialize_content())
                    .expect("a computed value encodes as the store's value type");
                self.record(*k, value);
                t
            },
        )
    }

    /// The cached value for `key` decoded as `T`.
    fn decode<T: Deserialize>(&self, key: u64) -> Option<T> {
        let content = self
            .entries
            .lock()
            .expect("store lock")
            .get(&key)?
            .serialize_content();
        match T::deserialize_content(&content) {
            Ok(t) => Some(t),
            Err(_) => {
                pipeline_stats().add_corrupt_discarded(1);
                eprintln!(
                    "note: cached value {key:#018x} in {} failed to decode; re-computing",
                    self.path.display()
                );
                None
            }
        }
    }
}

/// Default cache directory (workspace `data/`), overridable with
/// `MCT_DATA_DIR`.
#[must_use]
pub fn data_dir() -> PathBuf {
    std::env::var_os("MCT_DATA_DIR").map_or_else(|| PathBuf::from("data"), PathBuf::from)
}

/// Grain stores are sharded per (workload, scale tag, seed) purely to
/// keep files reviewable; identity lives in the per-grain keys.
fn grain_store_path(dir: &Path, workload: Workload, scale: Scale, seed: u64) -> PathBuf {
    dir.join(format!(
        "grains_{}_{}_seed{}.jsonl",
        workload.name(),
        scale.tag(),
        seed
    ))
}

fn derived_store_path(dir: &Path, scale: Scale, seed: u64) -> PathBuf {
    dir.join(format!("derived_{}_seed{}.jsonl", scale.tag(), seed))
}

/// The process-wide store pool, keyed by path: every figure in a run
/// shares one loaded copy of each store (and its append handle).
///
/// # Panics
/// Panics if the pool mutex is poisoned, or if `path` was pooled with a
/// different value type.
fn pooled<V: StoreValue>(path: PathBuf) -> Arc<Store<V>> {
    type Pool = Mutex<HashMap<PathBuf, Arc<dyn Any + Send + Sync>>>;
    static POOL: OnceLock<Pool> = OnceLock::new();
    let store = Arc::clone(
        POOL.get_or_init(Pool::default)
            .lock()
            .expect("store pool lock")
            .entry(path.clone())
            .or_insert_with(|| Arc::new(Store::<V>::open(path))),
    );
    store.downcast().expect("one value type per store path")
}

/// The shared grain store for (workload, scale, seed) under the current
/// data dir.
#[must_use]
pub(crate) fn grain_store(workload: Workload, scale: Scale, seed: u64) -> Arc<Store<Metrics>> {
    pooled(grain_store_path(&data_dir(), workload, scale, seed))
}

/// The shared derived-result store for (scale, seed) under the current
/// data dir.
#[must_use]
pub(crate) fn derived_store(scale: Scale, seed: u64) -> Arc<Store<Content>> {
    pooled(derived_store_path(&data_dir(), scale, seed))
}

/// A brute-force sweep for one workload, assembled per request from the
/// grain store: the figures' working representation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDataset {
    /// The measured configurations.
    pub configs: Vec<NvmConfig>,
    /// Parallel metrics.
    pub metrics: Vec<Metrics>,
}

impl SweepDataset {
    /// Pairs of (config, metrics).
    #[must_use]
    pub fn pairs(&self) -> Vec<(NvmConfig, Metrics)> {
        self.configs
            .iter()
            .copied()
            .zip(self.metrics.iter().copied())
            .collect()
    }

    /// Metrics of the first configuration equal to `cfg`, if measured.
    #[must_use]
    pub fn metrics_of(&self, cfg: &NvmConfig) -> Option<Metrics> {
        self.configs
            .iter()
            .position(|c| c == cfg)
            .map(|i| self.metrics[i])
    }
}

/// One sweep wanted by a figure: a workload and the configs to measure.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The workload to sweep.
    pub workload: Workload,
    /// The configurations to measure (already strided per the scale).
    pub configs: Vec<NvmConfig>,
}

/// One simulator measurement: `config` on `workload`'s warm rig over a
/// `budget`-instruction detailed window, cached in `store` under `key`.
pub(crate) struct Grain<'a, C> {
    pub(crate) store: &'a Store<Metrics>,
    pub(crate) workload: Workload,
    pub(crate) budget: u64,
    pub(crate) key: u64,
    pub(crate) config: &'a C,
}

/// Serve every grain from its store or measure it under
/// `policy(config)` — the one path every simulator measurement of the
/// pipeline takes. Hits are served first;
/// the misses of *all* grains, whatever their workload, run in one
/// work-stealing round ([`crate::sched::run_grains`]) on `workers`
/// threads, so a figure needing ten workloads keeps every core busy
/// instead of sweeping them one at a time. Each fresh grain is appended
/// to its store as it completes; a killed run keeps it.
///
/// Results are index-parallel with `grains`, and bit-identical whether
/// served from cache or measured fresh (measurement is deterministic per
/// grain and JSON round-trips f64s exactly).
pub(crate) fn measure_grains<C: Sync>(
    grains: &[Grain<C>],
    seed: u64,
    workers: usize,
    policy: impl Fn(&C) -> MellowPolicy + Sync,
) -> Vec<Metrics> {
    let batch = HitsFirst::plan(grains, |g| g.key, |g| g.store.get(g.key));

    // One warm-rig cell per (workload, budget) with a miss, pre-warmed in
    // parallel so no measurement worker stalls behind another workload's
    // warmup. Warmups are rig work, not grains — they are accounted by
    // the rig pool, not the scheduler.
    let mut rigs: Vec<((Workload, u64), Arc<RigCell>)> = Vec::new();
    for g in batch.misses() {
        let id = (g.workload, g.budget);
        if !rigs.iter().any(|(have, _)| *have == id) {
            rigs.push((id, shared_rig(g.workload, seed, g.budget)));
        }
    }
    // Single deployment-style measurements stay quiet; only real sweep
    // rounds get progress lines.
    let chatty = batch.misses().len() >= 8;
    // mct-tidy: allow(D002) -- progress-line timing only; never feeds results
    let t0 = Instant::now();
    if chatty {
        eprintln!(
            "measuring {} grains across {} workload rigs ({} served from cache) ...",
            batch.misses().len(),
            rigs.len(),
            grains.len() - batch.misses().len()
        );
    }
    if !rigs.is_empty() {
        std::thread::scope(|scope| {
            for chunk in rigs.chunks(rigs.len().div_ceil(workers.max(1))) {
                scope.spawn(move || {
                    for (_, cell) in chunk {
                        let _ = cell.rig();
                    }
                });
            }
        });
    }
    let metrics = batch.finish(workers, |g| {
        let (_, rig) = rigs
            .iter()
            .find(|(id, _)| *id == (g.workload, g.budget))
            .expect("a rig per missing grain");
        let m = rig.rig().measure_policy(policy(g.config));
        g.store.record(g.key, m);
        m
    });
    if chatty {
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    metrics
}

/// Serve a batch of sweeps from the grain cache, measuring only the
/// missing grains, all in one [`measure_grains`] round. Returned
/// datasets are index-parallel with `requests`.
///
/// # Panics
/// Panics on unwritable cache directories (delete the store file to
/// recover from anything else — loading is tolerant).
#[must_use]
pub fn load_or_compute_sweeps(
    requests: &[SweepRequest],
    scale: Scale,
    seed: u64,
) -> Vec<SweepDataset> {
    let stores: Vec<Arc<Store<Metrics>>> = requests
        .iter()
        .map(|req| grain_store(req.workload, scale, seed))
        .collect();
    let grains: Vec<Grain<NvmConfig>> = requests
        .iter()
        .zip(&stores)
        .flat_map(|(req, store)| {
            let budget = req.workload.detailed_insts(scale.detailed_factor());
            req.configs.iter().map(move |config| Grain {
                store,
                workload: req.workload,
                budget,
                key: grain_key(req.workload, seed, budget, config),
                config,
            })
        })
        .collect();
    let mut metrics =
        measure_grains(&grains, seed, default_workers(), NvmConfig::to_policy).into_iter();
    requests
        .iter()
        .map(|req| SweepDataset {
            configs: req.configs.clone(),
            metrics: metrics.by_ref().take(req.configs.len()).collect(),
        })
        .collect()
}

/// Apply the scale's stride to a configuration list, always retaining the
/// anchor configurations (default + static baseline variants) so every
/// figure can reference them.
#[must_use]
pub fn strided_configs(all: &[NvmConfig], scale: Scale) -> Vec<NvmConfig> {
    let stride = scale.space_stride();
    let mut out: Vec<NvmConfig> = all.iter().step_by(stride).copied().collect();
    for anchor in [
        NvmConfig::default_config(),
        NvmConfig::static_baseline(),
        NvmConfig::static_baseline().without_wear_quota(),
    ] {
        if all.contains(&anchor) && !out.contains(&anchor) {
            out.push(anchor);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::WarmedRig;
    use mct_core::ConfigSpace;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn strided_configs_keep_anchors() {
        let space = ConfigSpace::full(8.0);
        let strided = strided_configs(space.configs(), Scale::Quick);
        assert!(strided.len() < space.len());
        assert!(strided.contains(&NvmConfig::default_config()));
        assert!(strided.contains(&NvmConfig::static_baseline()));
    }

    #[test]
    fn full_scale_is_identity_plus_anchors() {
        let space = ConfigSpace::full(8.0);
        let strided = strided_configs(space.configs(), Scale::Full);
        assert_eq!(strided.len(), space.len());
    }

    #[test]
    fn grain_keys_separate_every_identity_axis() {
        let cfg = NvmConfig::default_config();
        let base = grain_key(Workload::Gups, 1, 1000, &cfg);
        assert_eq!(base, grain_key(Workload::Gups, 1, 1000, &cfg), "stable");
        assert_ne!(base, grain_key(Workload::Stream, 1, 1000, &cfg));
        assert_ne!(base, grain_key(Workload::Gups, 2, 1000, &cfg));
        assert_ne!(base, grain_key(Workload::Gups, 1, 1001, &cfg));
        assert_ne!(
            base,
            grain_key(Workload::Gups, 1, 1000, &NvmConfig::static_baseline())
        );
    }

    #[test]
    fn grain_store_appends_and_reloads() {
        let dir = mct_persist::TempDir::new("mct-grains");
        let path = dir.join("grains_test.jsonl");
        let m = Metrics {
            ipc: 1.5,
            lifetime_years: 7.25,
            energy_j: 0.125,
        };
        {
            let store = Store::<Metrics>::open(path.clone());
            assert!(store.is_empty());
            store.record(1, m);
            store.record(2, m);
            assert_eq!(store.len(), 2);
        }
        let store = Store::<Metrics>::open(path);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), Some(m));
        assert_eq!(store.get(3), None);
    }

    #[test]
    fn stale_and_corrupt_lines_are_discarded_not_fatal() {
        let dir = mct_persist::TempDir::new("mct-stale");
        let path = dir.join("grains_test.jsonl");
        let good = encode_line(
            7,
            &Metrics {
                ipc: 1.0,
                lifetime_years: 2.0,
                energy_j: 3.0,
            },
        );
        let stale = good.replace(
            &format!("\"v\":{CACHE_VERSION}"),
            &format!("\"v\":{}", CACHE_VERSION - 1),
        );
        assert_ne!(good, stale, "fixture must actually change the version");
        let truncated = &good[..good.len() / 2];
        fs::write(&path, format!("{good}\n{stale}\nnot json\n{truncated}")).expect("write fixture");

        let before = pipeline_stats().snapshot();
        let store = Store::<Metrics>::open(path);
        let after = pipeline_stats().snapshot();
        assert_eq!(store.len(), 1, "only the good line survives");
        assert!(store.get(7).is_some());
        assert_eq!(after.stale_discarded - before.stale_discarded, 1);
        assert_eq!(after.corrupt_discarded - before.corrupt_discarded, 2);
    }

    fn metrics_of(key: u64) -> Metrics {
        Metrics {
            ipc: key as f64,
            lifetime_years: 2.0 * key as f64,
            energy_j: 0.5,
        }
    }

    #[test]
    fn all_hit_batch_never_computes() {
        let dir = mct_persist::TempDir::new("mct-batch-hits");
        let store = Store::<Metrics>::open(dir.join("grains.jsonl"));
        for k in 1..=4 {
            store.record(k, metrics_of(k));
        }
        let items: Vec<(u64, u64)> = [3, 1, 4, 1].iter().map(|&k| (k, k)).collect();
        let batch = HitsFirst::plan(&items, |(k, _)| *k, |(k, _)| store.get(*k));
        assert!(
            batch.misses().is_empty(),
            "an all-hit batch leaves nothing for a scheduler round"
        );
        let computes = AtomicUsize::new(0);
        let got = store.get_or_compute_batch(&items, 2, |&k| {
            computes.fetch_add(1, Ordering::SeqCst);
            metrics_of(k)
        });
        assert_eq!(computes.load(Ordering::SeqCst), 0);
        let want: Vec<Metrics> = [3, 1, 4, 1].map(metrics_of).to_vec();
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_batch_computes_each_miss_once_in_input_order() {
        let dir = mct_persist::TempDir::new("mct-batch-mixed");
        let store = Store::<Metrics>::open(dir.join("grains.jsonl"));
        store.record(1, metrics_of(1));
        store.record(3, metrics_of(3));
        // 2 is requested twice: one compute, the repeat served from it.
        let keys = [1u64, 2, 3, 4, 2, 5, 6, 7];
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let computes = AtomicUsize::new(0);
        let got = store.get_or_compute_batch(&items, 2, |&k| {
            computes.fetch_add(1, Ordering::SeqCst);
            metrics_of(k)
        });
        assert_eq!(computes.load(Ordering::SeqCst), 5, "misses 2, 4, 5, 6, 7");
        assert_eq!(got, keys.map(metrics_of).to_vec());
    }

    #[test]
    fn batch_misses_are_on_disk_after_the_call() {
        let dir = mct_persist::TempDir::new("mct-batch-persist");
        let grains = dir.join("grains.jsonl");
        let derived = dir.join("derived.jsonl");
        let items: Vec<(u64, u64)> = (10..16).map(|k| (k, k)).collect();
        {
            let store = Store::<Metrics>::open(grains.clone());
            store.record(10, metrics_of(10));
            let _ = store.get_or_compute_batch(&items, 2, |&k| metrics_of(k));
            let store = Store::<Content>::open(derived.clone());
            let _: Vec<Vec<f64>> = store.get_or_compute_batch(&items, 2, |&k| vec![k as f64]);
        }
        let store = Store::<Metrics>::open(grains);
        assert_eq!(store.len(), items.len());
        for (k, _) in &items {
            assert_eq!(store.get(*k), Some(metrics_of(*k)), "grain {k}");
        }
        let store = Store::<Content>::open(derived);
        for (k, _) in &items {
            assert_eq!(
                store.get(*k),
                Some(vec![*k as f64].serialize_content()),
                "derived {k}"
            );
        }
    }

    #[test]
    fn grain_batches_match_serial_rig_measurement_at_any_worker_count() {
        // A sweep round spanning two workloads, with one config asked for
        // twice: misses of both workloads share one scheduler round.
        let scale = Scale::Smoke;
        let seed = 11;
        let configs = [
            NvmConfig::default_config(),
            NvmConfig::static_baseline(),
            NvmConfig::default_config(),
        ];
        let workloads = [Workload::Stream, Workload::Gups];
        let serial: Vec<Metrics> = workloads
            .iter()
            .flat_map(|&w| {
                let rig = WarmedRig::new(w, scale, seed);
                configs.iter().map(move |c| rig.measure(c))
            })
            .collect();
        let dir = mct_persist::TempDir::new("mct-grain-batch");
        for workers in [1usize, 2] {
            let stores = workloads.map(|w| {
                Store::<Metrics>::open(dir.join(&format!("{workers}_{}.jsonl", w.name())))
            });
            let grains: Vec<Grain<NvmConfig>> = workloads
                .iter()
                .zip(&stores)
                .flat_map(|(&w, store)| {
                    let budget = w.detailed_insts(scale.detailed_factor());
                    configs.iter().map(move |config| Grain {
                        store,
                        workload: w,
                        budget,
                        key: grain_key(w, seed, budget, config),
                        config,
                    })
                })
                .collect();
            let got = measure_grains(&grains, seed, workers, NvmConfig::to_policy);
            let bits = |ms: &[Metrics]| -> Vec<[u64; 3]> {
                ms.iter().map(|m| m.to_array().map(f64::to_bits)).collect()
            };
            assert_eq!(bits(&got), bits(&serial), "{workers} workers");
            assert!(stores.iter().all(|s| s.len() == 2), "one line per grain");
            let again = measure_grains(&grains, seed, workers, NvmConfig::to_policy);
            assert_eq!(bits(&again), bits(&serial), "{workers} workers, from cache");
        }
    }

    #[test]
    fn derived_store_round_trips_values() {
        let dir = mct_persist::TempDir::new("mct-derived");
        let path = dir.join("derived_test.jsonl");
        let key = derived_key("mix/all", 9, &[1.0, 2.5]);
        assert_ne!(key, derived_key("mix/all", 9, &[1.0, 2.0]));
        assert_ne!(key, derived_key("mix/other", 9, &[1.0, 2.5]));
        {
            let store = Store::<Content>::open(path.clone());
            let v = store.get_or_compute_batch(&[(key, ())], 1, |()| vec![1.0, 2.0, 3.0]);
            assert_eq!(v, [vec![1.0, 2.0, 3.0]]);
        }
        let store = Store::<Content>::open(path);
        let v: Vec<Vec<f64>> =
            store.get_or_compute_batch(&[(key, ())], 1, |()| panic!("must be served from disk"));
        assert_eq!(v, [vec![1.0, 2.0, 3.0]]);
    }
}
