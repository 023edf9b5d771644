//! Content-addressed, per-grain measurement cache.
//!
//! Brute-force sweeps are the expensive part of the reproduction (the
//! paper burned 300,000 compute-hours on them). Earlier revisions cached
//! whole sweeps as single JSON blobs — all-or-nothing: a killed run lost
//! everything, and any change to the config list invalidated the file.
//!
//! This module caches *measurement grains* instead. A grain is one
//! (workload × config × detailed budget) measurement, addressed by an
//! FNV-1a hash over its full calibration identity ([`grain_key`]), and
//! persisted as one JSONL line appended (and flushed) the moment it is
//! measured. A killed or partial run therefore loses nothing, figures
//! can share grains regardless of which config list requested them, and
//! [`load_or_compute_sweeps`] flattens *all* outstanding grains across
//! every requested sweep into one batch for the work-stealing scheduler
//! ([`crate::sched`]).
//!
//! Loading is tolerant: lines whose `v` field predates [`CACHE_VERSION`]
//! are discarded (logged, counted as `stale_discarded`), and corrupt or
//! truncated lines — e.g. the tail of a write cut off by a kill — are
//! discarded and re-measured rather than crashing (`corrupt_discarded`).
//!
//! Derived results (controller runs, mix runs) use the same machinery
//! via [`DerivedStore`]: arbitrary serde values keyed by a label + the
//! parameters that determine them. Both stores serve lookups through one
//! hits-first batch path ([`GrainStore::get_or_compute_batch`],
//! [`DerivedStore::get_or_compute_batch`], and the sweep batches above):
//! every hit is served serially, then only the misses fan out over one
//! scheduler round, each recorded from inside its worker. The
//! single-lookup forms ([`DerivedStore::get_or_compute`],
//! [`cached_measurement`]) are the one-item case of that path.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Content, Deserialize, Serialize};

use mct_core::persist::fnv1a64;
use mct_core::NvmConfig;
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

/// One persisted measurement grain (a JSONL line).
#[derive(Debug, Serialize, Deserialize)]
struct GrainLine {
    /// Cache version the grain was measured under.
    v: u32,
    /// [`grain_key`] content address.
    k: u64,
    /// The measured metrics.
    m: Metrics,
}

/// Tolerantly load a JSONL store, discarding (and counting) stale and
/// corrupt lines. Returns the surviving `(key, line)` pairs.
fn load_jsonl<L: Deserialize>(path: &Path, version_of: impl Fn(&L) -> u32) -> Vec<L> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut stale = 0u64;
    let mut corrupt = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<L>(line) {
            Ok(l) if version_of(&l) == CACHE_VERSION => out.push(l),
            Ok(_) => stale += 1,
            Err(_) => corrupt += 1,
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
    out
}

/// An append-only on-disk store of measurement grains.
///
/// Each recorded grain is appended and flushed as its own line, so a
/// killed run keeps everything measured up to the kill. All methods are
/// thread-safe — scheduler workers record grains concurrently.
#[derive(Debug)]
pub struct GrainStore {
    path: PathBuf,
    entries: Mutex<HashMap<u64, Metrics>>,
    writer: Mutex<Option<fs::File>>,
}

impl GrainStore {
    /// Open (or create-on-first-write) the store at `path`, tolerantly
    /// loading whatever valid grains it already holds.
    #[must_use]
    pub fn open(path: PathBuf) -> GrainStore {
        let entries = load_jsonl::<GrainLine>(&path, |l| l.v)
            .into_iter()
            .map(|l| (l.k, l.m))
            .collect();
        GrainStore {
            path,
            entries: Mutex::new(entries),
            writer: Mutex::new(None),
        }
    }

    /// Number of cached grains.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("grain store lock").len()
    }

    /// True when no grains are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached metrics for `key`, if present.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Metrics> {
        self.entries
            .lock()
            .expect("grain store lock")
            .get(&key)
            .copied()
    }

    /// Record a freshly measured grain: appended to disk (one flushed
    /// line — a partial run loses at most the line being written) and
    /// inserted in memory.
    ///
    /// # Panics
    /// Panics on an unwritable store path or a poisoned mutex.
    pub fn record(&self, key: u64, m: Metrics) {
        let line = serde_json::to_string(&GrainLine {
            v: CACHE_VERSION,
            k: key,
            m,
        })
        .expect("serialize grain");
        {
            let mut writer = self.writer.lock().expect("grain writer lock");
            let file = writer.get_or_insert_with(|| {
                if let Some(dir) = self.path.parent() {
                    fs::create_dir_all(dir).expect("create cache dir");
                }
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .expect("open grain store for append")
            });
            file.write_all(format!("{line}\n").as_bytes())
                .expect("append grain");
            file.flush().expect("flush grain");
        }
        self.entries
            .lock()
            .expect("grain store lock")
            .insert(key, m);
    }

    /// Serve each `(key, item)` from the store or measure it with
    /// `compute`, hits first: only the misses fan out over one scheduler
    /// round on `workers` threads, each recorded as it completes.
    /// Results are index-parallel with `items`.
    ///
    /// # Panics
    /// Propagates a panic raised by `compute`; panics on an unwritable
    /// store path.
    pub fn get_or_compute_batch<I: Sync>(
        &self,
        items: &[(u64, I)],
        workers: usize,
        compute: impl Fn(&I) -> Metrics + Sync,
    ) -> Vec<Metrics> {
        HitsFirst::plan(items, |(k, _)| *k, |(k, _)| self.get(*k)).finish(workers, |(k, item)| {
            let m = compute(item);
            self.record(*k, m);
            m
        })
    }
}

/// One persisted derived result (a JSONL line).
#[derive(Debug, Serialize, Deserialize)]
struct DerivedLine {
    v: u32,
    k: u64,
    /// The serde-encoded payload (controller outcome, mix outcome, ...).
    val: Content,
}

/// An append-only on-disk store of derived results — controller and mix
/// outcomes keyed by [`derived_key`]. Same durability and tolerance
/// story as [`GrainStore`].
#[derive(Debug)]
pub struct DerivedStore {
    path: PathBuf,
    entries: Mutex<HashMap<u64, Content>>,
    writer: Mutex<Option<fs::File>>,
}

impl DerivedStore {
    /// Open (or create-on-first-write) the store at `path`.
    #[must_use]
    pub fn open(path: PathBuf) -> DerivedStore {
        let entries = load_jsonl::<DerivedLine>(&path, |l| l.v)
            .into_iter()
            .map(|l| (l.k, l.val))
            .collect();
        DerivedStore {
            path,
            entries: Mutex::new(entries),
            writer: Mutex::new(None),
        }
    }

    /// The cached value for `key` decoded as `T`; a value that fails to
    /// decode (schema drift without a version bump) counts as corrupt
    /// and is re-computed.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn get_as<T: Deserialize>(&self, key: u64) -> Option<T> {
        let val = self
            .entries
            .lock()
            .expect("derived store lock")
            .get(&key)
            .cloned()?;
        match T::deserialize_content(&val) {
            Ok(t) => Some(t),
            Err(_) => {
                pipeline_stats().add_corrupt_discarded(1);
                eprintln!(
                    "note: cached derived result {key:#018x} in {} failed to decode; re-computing",
                    self.path.display()
                );
                None
            }
        }
    }

    /// Record a derived result (appended + flushed).
    ///
    /// # Panics
    /// Panics on an unwritable store path or a poisoned mutex.
    pub fn record<T: Serialize>(&self, key: u64, value: &T) {
        let val = value.serialize_content();
        let line = serde_json::to_string(&DerivedLine {
            v: CACHE_VERSION,
            k: key,
            val: val.clone(),
        })
        .expect("serialize derived line");
        {
            let mut writer = self.writer.lock().expect("derived writer lock");
            let file = writer.get_or_insert_with(|| {
                if let Some(dir) = self.path.parent() {
                    fs::create_dir_all(dir).expect("create cache dir");
                }
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .expect("open derived store for append")
            });
            file.write_all(format!("{line}\n").as_bytes())
                .expect("append derived result");
            file.flush().expect("flush derived result");
        }
        self.entries
            .lock()
            .expect("derived store lock")
            .insert(key, val);
    }

    /// [`GrainStore::get_or_compute_batch`] for derived results: each
    /// `(key, item)` is served from the store or computed, hits first,
    /// with only the misses fanned out over `workers` threads.
    ///
    /// # Panics
    /// Propagates a panic raised by `compute`; panics on an unwritable
    /// store path.
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
        HitsFirst::plan(items, |(k, _)| *k, |(k, _)| self.get_as(*k)).finish(
            workers,
            |(k, item)| {
                let v = compute(item);
                self.record(*k, &v);
                v
            },
        )
    }

    /// Serve `key` from the cache or compute, record, and return it: the
    /// one-item case of [`DerivedStore::get_or_compute_batch`].
    ///
    /// # Panics
    /// Propagates a panic raised by `compute`.
    pub fn get_or_compute<T, F>(&self, key: u64, compute: F) -> T
    where
        T: Serialize + Deserialize + Clone + Send,
        F: Fn() -> T + Sync,
    {
        self.get_or_compute_batch(&[(key, ())], 1, |()| compute())
            .pop()
            .expect("one value per item")
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

/// Process-wide store pool, keyed by path: every figure in a run shares
/// one loaded copy of each store (and its append handle).
fn grain_pool() -> &'static Mutex<HashMap<PathBuf, Arc<GrainStore>>> {
    static POOL: OnceLock<Mutex<HashMap<PathBuf, Arc<GrainStore>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

fn derived_pool() -> &'static Mutex<HashMap<PathBuf, Arc<DerivedStore>>> {
    static POOL: OnceLock<Mutex<HashMap<PathBuf, Arc<DerivedStore>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared grain store for (workload, scale, seed) under the current
/// data dir.
///
/// # Panics
/// Panics if the pool mutex is poisoned.
#[must_use]
pub fn grain_store(workload: Workload, scale: Scale, seed: u64) -> Arc<GrainStore> {
    let path = grain_store_path(&data_dir(), workload, scale, seed);
    Arc::clone(
        grain_pool()
            .lock()
            .expect("grain pool lock")
            .entry(path.clone())
            .or_insert_with(|| Arc::new(GrainStore::open(path))),
    )
}

/// The shared derived-result store for (scale, seed) under the current
/// data dir.
///
/// # Panics
/// Panics if the pool mutex is poisoned.
#[must_use]
pub fn derived_store(scale: Scale, seed: u64) -> Arc<DerivedStore> {
    let path = derived_store_path(&data_dir(), scale, seed);
    Arc::clone(
        derived_pool()
            .lock()
            .expect("derived pool lock")
            .entry(path.clone())
            .or_insert_with(|| Arc::new(DerivedStore::open(path))),
    )
}

/// A cached brute-force sweep for one workload (assembled per request
/// from the grain store; kept as the figures' working representation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepDataset {
    /// Cache format/calibration version.
    pub version: u32,
    /// Workload name.
    pub workload: String,
    /// Scale tag the sweep ran at.
    pub scale: String,
    /// Space stride used.
    pub stride: usize,
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

/// One grain lookup of a sweep batch.
struct SweepGrain<'a> {
    req: &'a SweepRequest,
    cfg: &'a NvmConfig,
    key: u64,
    store: &'a GrainStore,
}

/// Serve a batch of sweeps from the grain cache, measuring only the
/// missing grains — flattened across *all* requests into one
/// work-stealing round ([`crate::sched::run_grains`]), so a figure
/// needing ten workloads keeps every core busy instead of sweeping them
/// one at a time. Fresh grains are appended to their stores as they
/// complete; a killed run keeps them.
///
/// Returned datasets are index-parallel with `requests`, and the
/// metrics for a given grain are bit-identical whether served from
/// cache or measured fresh (measurement is deterministic per grain and
/// JSON round-trips f64s exactly).
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
    let stores: Vec<Arc<GrainStore>> = requests
        .iter()
        .map(|req| grain_store(req.workload, scale, seed))
        .collect();
    let grains: Vec<SweepGrain> = requests
        .iter()
        .zip(&stores)
        .flat_map(|(req, store)| {
            let budget = req.workload.detailed_insts(scale.detailed_factor());
            req.configs.iter().map(move |cfg| SweepGrain {
                req,
                cfg,
                key: grain_key(req.workload, seed, budget, cfg),
                store,
            })
        })
        .collect();
    let batch = HitsFirst::plan(&grains, |g| g.key, |g| g.store.get(g.key));

    // One warm-rig cell per workload with a miss, pre-warmed in parallel
    // so no measurement worker stalls behind another workload's warmup.
    // Warmups are rig work, not grains — they are accounted by the rig
    // pool, not the scheduler.
    let mut rigs: Vec<(Workload, Arc<RigCell>)> = Vec::new();
    for g in batch.misses() {
        let w = g.req.workload;
        if !rigs.iter().any(|(have, _)| *have == w) {
            let budget = w.detailed_insts(scale.detailed_factor());
            rigs.push((w, shared_rig(w, seed, budget)));
        }
    }
    let workers = default_workers();
    // Single deployment-style measurements stay quiet; only real sweep
    // rounds get progress lines.
    let chatty = batch.misses().len() >= 8;
    // mct-tidy: allow(D002) -- progress-line timing only; never feeds results
    let t0 = Instant::now();
    if chatty {
        eprintln!(
            "measuring {} grains across {} workload rigs ({} served from cache) at scale {scale} ...",
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
    let mut metrics = batch
        .finish(workers, |g| {
            let (_, rig) = rigs
                .iter()
                .find(|(w, _)| *w == g.req.workload)
                .expect("a rig per missing workload");
            let m = rig.rig().measure(g.cfg);
            g.store.record(g.key, m);
            m
        })
        .into_iter();
    if chatty {
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
    }

    requests
        .iter()
        .map(|req| SweepDataset {
            version: CACHE_VERSION,
            workload: req.workload.name().to_string(),
            scale: scale.tag().to_string(),
            stride: scale.space_stride(),
            configs: req.configs.clone(),
            metrics: metrics.by_ref().take(req.configs.len()).collect(),
        })
        .collect()
}

/// Load a cached sweep of `configs` for `workload`, or compute and cache
/// the missing grains. `configs` should already be strided per the
/// scale. Single-request convenience over [`load_or_compute_sweeps`].
///
/// # Panics
/// Panics on unwritable cache directories.
#[must_use]
pub fn load_or_compute_sweep(
    workload: Workload,
    configs: &[NvmConfig],
    scale: Scale,
    seed: u64,
) -> SweepDataset {
    load_or_compute_sweeps(
        &[SweepRequest {
            workload,
            configs: configs.to_vec(),
        }],
        scale,
        seed,
    )
    .pop()
    .expect("one dataset per request")
}

/// Serve one measurement grain from `store` or run `measure`, recording
/// the fresh result: the one-item case of
/// [`GrainStore::get_or_compute_batch`].
pub fn cached_measurement(
    store: &GrainStore,
    key: u64,
    measure: impl Fn() -> Metrics + Sync,
) -> Metrics {
    store.get_or_compute_batch(&[(key, ())], 1, |()| measure())[0]
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
        let dir = std::env::temp_dir().join(format!("mct_grains_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grains_test.jsonl");
        let m = Metrics {
            ipc: 1.5,
            lifetime_years: 7.25,
            energy_j: 0.125,
        };
        {
            let store = GrainStore::open(path.clone());
            assert!(store.is_empty());
            store.record(1, m);
            store.record(2, m);
            assert_eq!(store.len(), 2);
        }
        let store = GrainStore::open(path);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), Some(m));
        assert_eq!(store.get(3), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_corrupt_lines_are_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("mct_stale_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("grains_test.jsonl");
        let good = serde_json::to_string(&GrainLine {
            v: CACHE_VERSION,
            k: 7,
            m: Metrics {
                ipc: 1.0,
                lifetime_years: 2.0,
                energy_j: 3.0,
            },
        })
        .expect("serialize");
        let stale = good.replace(
            &format!("\"v\":{CACHE_VERSION}"),
            &format!("\"v\":{}", CACHE_VERSION - 1),
        );
        assert_ne!(good, stale, "fixture must actually change the version");
        let truncated = &good[..good.len() / 2];
        fs::write(&path, format!("{good}\n{stale}\nnot json\n{truncated}")).expect("write fixture");

        let before = pipeline_stats().snapshot();
        let store = GrainStore::open(path);
        let after = pipeline_stats().snapshot();
        assert_eq!(store.len(), 1, "only the good line survives");
        assert!(store.get(7).is_some());
        assert_eq!(after.stale_discarded - before.stale_discarded, 1);
        assert_eq!(after.corrupt_discarded - before.corrupt_discarded, 2);
        let _ = fs::remove_dir_all(&dir);
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
        let store = GrainStore::open(dir.join("grains.jsonl"));
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
        let store = GrainStore::open(dir.join("grains.jsonl"));
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
            let store = GrainStore::open(grains.clone());
            store.record(10, metrics_of(10));
            let _ = store.get_or_compute_batch(&items, 2, |&k| metrics_of(k));
            let store = DerivedStore::open(derived.clone());
            let _: Vec<Vec<f64>> = store.get_or_compute_batch(&items, 2, |&k| vec![k as f64]);
        }
        let store = GrainStore::open(grains);
        assert_eq!(store.len(), items.len());
        for (k, _) in &items {
            assert_eq!(store.get(*k), Some(metrics_of(*k)), "grain {k}");
        }
        let store = DerivedStore::open(derived);
        for (k, _) in &items {
            assert_eq!(
                store.get_as::<Vec<f64>>(*k),
                Some(vec![*k as f64]),
                "derived {k}"
            );
        }
    }

    #[test]
    fn derived_store_round_trips_values() {
        let dir = std::env::temp_dir().join(format!("mct_derived_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("derived_test.jsonl");
        let key = derived_key("mix/all", 9, &[1.0, 2.5]);
        assert_ne!(key, derived_key("mix/all", 9, &[1.0, 2.0]));
        assert_ne!(key, derived_key("mix/other", 9, &[1.0, 2.5]));
        {
            let store = DerivedStore::open(path.clone());
            let v: Vec<f64> = store.get_or_compute(key, || vec![1.0, 2.0, 3.0]);
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
        let store = DerivedStore::open(path);
        let v: Vec<f64> = store.get_or_compute(key, || panic!("must be served from disk"));
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        let _ = fs::remove_dir_all(&dir);
    }
}
