//! Crash-safe controller state on top of [`mct_persist`].
//!
//! This module layers the *typed* controller schema over the raw
//! checksummed container in `mct-persist`: every decision-relevant state
//! transition the controller makes — wear accounting, fitted model
//! coefficients, phase history, refit-elision bank refreshes, degradation
//! ladder moves — becomes a [`StateRecord`] appended to the write-ahead
//! log, and every segment boundary compacts the log into a snapshot.
//!
//! ## The recovery contract
//!
//! Recovery is *verified deterministic re-execution*. The controller is
//! already bit-deterministic from `(config, seed, workload)`, so a
//! resumed run does not "load state and continue from the middle" — it
//! re-runs from instruction zero, and while its cursor is inside the
//! recovered record prefix, every record it would have written is
//! **compared** against the log instead of appended. Any mismatch is a
//! hard panic (split-brain state is worse than no state). Two useful
//! things fall out:
//!
//! * the recovered run provably converges on the pre-crash trajectory
//!   before a single new byte is persisted, which is what makes the
//!   kill-and-recover harness's "bit-identical decision trace" assertion
//!   meaningful rather than vacuous; and
//! * fresh fits recorded in the prefix restore their persisted model
//!   coefficients instead of refitting
//!   ([`crate::predictor::MetricsPredictor::from_state`]),
//!   so the save/restore path is exercised — and pinned to the
//!   bit-identity contract — on every recovery, not just in unit tests.
//!
//! A log that ends in [`StateRecord::RunCompleted`] is a *clean* store:
//! resuming from it warm-starts the next run — the fitted models from the
//! snapshot pre-seed the controller's refit-elision bank, and segments
//! that hit the bank skip their sampling period outright.
//!
//! Snapshots are skipped while the cursor is still inside the prefix:
//! compacting mid-verification would discard WAL records that have not
//! been re-checked yet. Snapshot bodies also prune model payloads from
//! all but the last [`SNAPSHOT_MODEL_SLOTS`] fresh fits (matching the
//! controller's elision-bank depth), so [`records_match`] treats a pruned
//! persisted fit as equal to a full re-emitted one.

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use mct_ml::SavedRegressor;
use mct_persist::{CrashPoint, PersistError, Replay, StateStore, TornTail};
use mct_sim::stats::Metrics;
use mct_sim::WearSnapshot;

use crate::config::NvmConfig;
use crate::controller::ControllerConfig;
use crate::degrade::DegradationStage;
use crate::predictor::ModelKind;

/// The workspace's one content hash, shared with the experiment cache.
pub use mct_persist::fnv1a64;

/// Version of the typed record schema layered on the container format
/// ([`mct_persist::FORMAT_VERSION`] guards the byte layout; this guards
/// the JSON record vocabulary). Stamped into every
/// [`StateRecord::RunStarted`] and snapshot body and checked on resume.
pub const STATE_SCHEMA_VERSION: u32 = 1;

/// How many trailing fresh-fit records keep their full model payload in
/// a snapshot body. Matches the controller's refit-elision bank depth:
/// older models could never be reused anyway.
pub const SNAPSHOT_MODEL_SLOTS: usize = 4;

/// [`Metrics`] as raw IEEE-754 bit patterns.
///
/// Lifetime can legitimately be `+inf` (no wear observed), which JSON
/// cannot represent; and the recovery contract is *bit* identity, so
/// persisted floats must round-trip exactly. Bit patterns give both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMetrics {
    /// `Metrics::ipc` bits.
    pub ipc: u64,
    /// `Metrics::lifetime_years` bits (may encode `+inf`).
    pub lifetime_years: u64,
    /// `Metrics::energy_j` bits.
    pub energy_j: u64,
}

impl From<Metrics> for BitMetrics {
    fn from(m: Metrics) -> BitMetrics {
        BitMetrics {
            ipc: m.ipc.to_bits(),
            lifetime_years: m.lifetime_years.to_bits(),
            energy_j: m.energy_j.to_bits(),
        }
    }
}

impl BitMetrics {
    /// The metrics these bits encode.
    #[must_use]
    pub fn to_metrics(self) -> Metrics {
        Metrics {
            ipc: f64::from_bits(self.ipc),
            lifetime_years: f64::from_bits(self.lifetime_years),
            energy_j: f64::from_bits(self.energy_j),
        }
    }
}

/// A fitted [`crate::predictor::MetricsPredictor`] in serializable
/// form: the model kind,
/// the normalization baseline (as bits), and one [`SavedRegressor`] per
/// objective dimension. Corpus-backed kinds have no such form — they
/// refit deterministically from the corpus on recovery instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorState {
    /// The predictor family.
    pub kind: ModelKind,
    /// Normalization baseline captured at fit time, if any.
    pub baseline: Option<BitMetrics>,
    /// Per-objective fitted models (ipc, lifetime, energy).
    pub models: Vec<SavedRegressor>,
}

/// One controller state transition in the write-ahead log.
///
/// Record order within a run is fully determined by `(config, seed,
/// workload)` — that determinism is what lets recovery verify a replayed
/// prefix against re-execution record by record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StateRecord {
    /// First record of every run: identity of the run the log belongs to.
    RunStarted {
        /// [`STATE_SCHEMA_VERSION`] at write time.
        schema: u32,
        /// Controller RNG seed.
        seed: u64,
        /// Predictor family.
        model: ModelKind,
        /// Total detailed instruction budget.
        total_insts: u64,
        /// [`config_digest`] of the full controller config.
        config_digest: u64,
    },
    /// A sampling→optimize→test segment began.
    SegmentStarted {
        /// 0-based segment index.
        segment: u64,
        /// Measured-instruction clock at segment start.
        executed: u64,
    },
    /// The static baseline was measured (normalization reference).
    BaselineMeasured {
        /// Segment index.
        segment: u64,
        /// Measured baseline metrics.
        metrics: BitMetrics,
        /// Instructions in the measurement window.
        insts: u64,
        /// Whether the sparse-phase window extension kicked in.
        extended: bool,
    },
    /// The segment's predictor is ready — freshly fitted, restored, or
    /// reused from the elision bank. Emitted for *every* segment so the
    /// record sequence is phase-aligned regardless of elision.
    FitCompleted {
        /// Segment index.
        segment: u64,
        /// True when the refit-elision bank supplied the model.
        elided: bool,
        /// Workload intensity (accesses/kinst) bits at fit time.
        apki: u64,
        /// [`crate::phase::phase_signature`] of that intensity.
        signature: u64,
        /// Fitted model coefficients for fresh fits of serializable
        /// kinds; `None` for elided fits, corpus-backed kinds, and fits
        /// pruned from old snapshot entries.
        model: Option<PredictorState>,
    },
    /// The optimizer chose a configuration.
    DecisionMade {
        /// Segment index.
        segment: u64,
        /// The chosen configuration (after wear-quota fixup).
        config: NvmConfig,
        /// Predicted metrics for the choice.
        predicted: BitMetrics,
        /// Whether the optimizer fell back to the static baseline.
        fell_back: bool,
        /// False for the segment's primary decision; true for an
        /// in-place re-decision forced by the degradation ladder.
        refit: bool,
    },
    /// A periodic testing-period health check ran.
    HealthChecked {
        /// Segment index.
        segment: u64,
        /// 1-based health-check ordinal within the segment.
        check: u32,
        /// Whether the reading passed.
        passed: bool,
        /// Testing-so-far IPC bits.
        testing_ipc: u64,
        /// Accumulated baseline reference IPC bits.
        baseline_ipc: u64,
    },
    /// The degradation ladder escalated a rung.
    LadderMoved {
        /// Segment index.
        segment: u64,
        /// Rung before the failed check.
        from: DegradationStage,
        /// Rung after.
        to: DegradationStage,
        /// Total failed checks observed by the ladder so far.
        failures: u64,
    },
    /// Wear accounting at segment end: period deltas plus the live
    /// meter counters.
    WearDelta {
        /// Segment index.
        segment: u64,
        /// Wear units consumed by this segment's sampling period (bits).
        sampling_wear: u64,
        /// Wear units consumed by this segment's testing period (bits).
        testing_wear: u64,
        /// Wear-meter counters over the segment's final measured region.
        meter: WearSnapshot,
    },
    /// A segment finished (by phase change, re-sample, or budget).
    SegmentCompleted {
        /// Segment index.
        segment: u64,
        /// Configuration in force at segment end.
        chosen: NvmConfig,
        /// Whether the ladder reverted this segment to the baseline.
        health_fallback: bool,
        /// Whether the segment's fit was elided.
        fit_elided: bool,
        /// Whether the segment skipped sampling on a warm-started model.
        warm_started: bool,
        /// Sampling instructions spent.
        sampling_insts: u64,
        /// Testing instructions spent.
        testing_insts: u64,
        /// Realized testing metrics.
        testing: BitMetrics,
    },
    /// The run finished; a log ending here is warm-start eligible.
    RunCompleted {
        /// Total measured instructions.
        executed: u64,
        /// Final chosen configuration.
        chosen: NvmConfig,
        /// Segments completed.
        segments: u64,
        /// Aggregate testing metrics.
        final_metrics: BitMetrics,
    },
}

impl StateRecord {
    /// Stable lower-snake label for reports and error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            StateRecord::RunStarted { .. } => "run_started",
            StateRecord::SegmentStarted { .. } => "segment_started",
            StateRecord::BaselineMeasured { .. } => "baseline_measured",
            StateRecord::FitCompleted { .. } => "fit_completed",
            StateRecord::DecisionMade { .. } => "decision_made",
            StateRecord::HealthChecked { .. } => "health_checked",
            StateRecord::LadderMoved { .. } => "ladder_moved",
            StateRecord::WearDelta { .. } => "wear_delta",
            StateRecord::SegmentCompleted { .. } => "segment_completed",
            StateRecord::RunCompleted { .. } => "run_completed",
        }
    }
}

/// Snapshot payload: the complete record history of the run so far,
/// with model payloads pruned from all but the newest fits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotBody {
    schema: u32,
    records: Vec<StateRecord>,
}

/// Persistence settings carried inside
/// [`ControllerConfig`](crate::controller::ControllerConfig).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistConfig {
    /// Store directory (holds `wal.bin` / `snap.bin`).
    pub dir: String,
    /// Resume from existing state: verify-replay an interrupted log, or
    /// warm-start from a clean one. False starts a fresh log, clobbering
    /// whatever the directory held.
    #[serde(default)]
    pub resume: bool,
    /// Deterministic crash injection for the kill-and-recover harness.
    #[serde(default)]
    pub crash_point: CrashPoint,
}

impl PersistConfig {
    /// Persist to `dir`, starting a fresh log.
    #[must_use]
    pub fn fresh(dir: impl Into<String>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            resume: false,
            crash_point: CrashPoint::None,
        }
    }

    /// Persist to `dir`, resuming from whatever state it holds.
    #[must_use]
    pub fn resume_from(dir: impl Into<String>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            resume: true,
            crash_point: CrashPoint::None,
        }
    }
}

/// Digest of a controller configuration, stamped into
/// [`StateRecord::RunStarted`] so a resumed run cannot silently verify
/// against a log written under different parameters.
///
/// The `persist` block itself is excluded (the same run is recovered
/// under `resume: true` and possibly a different crash point), and the
/// `system` block is `#[serde(skip)]` upstream, so the digest covers the
/// decision-relevant controller knobs.
#[must_use]
pub fn config_digest(cfg: &ControllerConfig) -> u64 {
    let mut stripped = cfg.clone();
    stripped.persist = None;
    // Serializing a plain config struct cannot fail; map the impossible
    // error to a sentinel rather than panicking in a digest helper.
    serde_json::to_string(&stripped).map_or(0, |json| fnv1a64(json.as_bytes()))
}

/// Whether an emitted record satisfies a persisted one.
///
/// Equality, except that a persisted [`StateRecord::FitCompleted`] whose
/// model payload was pruned by snapshot compaction matches a re-emitted
/// fit that carries the full model (and only then — when both sides
/// carry models they must agree exactly, which is what pins model
/// serialization to the bit-identity contract).
#[must_use]
pub fn records_match(persisted: &StateRecord, emitted: &StateRecord) -> bool {
    if persisted == emitted {
        return true;
    }
    match (persisted, emitted) {
        (
            StateRecord::FitCompleted { model: None, .. },
            StateRecord::FitCompleted { model: Some(_), .. },
        ) => {
            let mut stripped = emitted.clone();
            if let StateRecord::FitCompleted { model, .. } = &mut stripped {
                *model = None;
            }
            *persisted == stripped
        }
        _ => false,
    }
}

/// Why a store could not be recovered or verified.
#[derive(Debug)]
pub enum RecoverError {
    /// The underlying container failed (I/O, corruption, bad version).
    Store(PersistError),
    /// A record or snapshot body did not parse as the typed schema.
    Parse {
        /// Which record (0-based over the recovered prefix), or
        /// `usize::MAX` for the snapshot body.
        index: usize,
        /// Parser detail.
        detail: String,
    },
    /// The typed schema version in the log is not this build's.
    SchemaVersion {
        /// Version found in the log.
        found: u32,
        /// [`STATE_SCHEMA_VERSION`] supported here.
        supported: u32,
    },
    /// The log does not begin with [`StateRecord::RunStarted`].
    NotARun,
    /// The log belongs to a different run configuration.
    ConfigMismatch {
        /// What the resuming run would write.
        expected: String,
        /// What the log holds.
        found: String,
    },
    /// Re-execution produced a record the log disagrees with.
    Diverged {
        /// 0-based index into the recovered prefix.
        index: usize,
        /// The persisted record.
        persisted: String,
        /// The record re-execution emitted.
        emitted: String,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Store(e) => write!(f, "state store: {e}"),
            RecoverError::Parse { index, detail } => {
                if *index == usize::MAX {
                    write!(f, "snapshot body does not parse: {detail}")
                } else {
                    write!(f, "record {index} does not parse: {detail}")
                }
            }
            RecoverError::SchemaVersion { found, supported } => write!(
                f,
                "state schema v{found} is not supported (this build reads v{supported}); \
                 refusing to guess at record semantics"
            ),
            RecoverError::NotARun => {
                write!(f, "log does not begin with a run_started record")
            }
            RecoverError::ConfigMismatch { expected, found } => write!(
                f,
                "log belongs to a different run: expected {expected}, found {found}"
            ),
            RecoverError::Diverged {
                index,
                persisted,
                emitted,
            } => write!(
                f,
                "re-execution diverged from the log at record {index}: \
                 persisted {persisted} but re-execution produced {emitted}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<PersistError> for RecoverError {
    fn from(e: PersistError) -> RecoverError {
        RecoverError::Store(e)
    }
}

/// Decode the full state-record trace a store directory holds: the
/// snapshot body followed by the post-snapshot WAL records. This is the
/// raw decision trace recovery works from — test harnesses use it to
/// compare persisted traces record by record.
///
/// # Errors
///
/// Fails if the container is corrupt, the snapshot's schema version is
/// unsupported, or any record fails to parse.
pub fn decode_dir(dir: &Path) -> Result<Vec<StateRecord>, RecoverError> {
    let replay = StateStore::replay_dir(dir)?;
    decode_replay(&replay)
}

/// Decode the full recovered record prefix (snapshot body followed by
/// post-snapshot WAL records) from a container replay.
fn decode_replay(replay: &Replay) -> Result<Vec<StateRecord>, RecoverError> {
    let mut out: Vec<StateRecord> = Vec::new();
    if let Some(snap) = &replay.snapshot {
        let text = std::str::from_utf8(snap).map_err(|e| RecoverError::Parse {
            index: usize::MAX,
            detail: format!("snapshot is not UTF-8: {e}"),
        })?;
        let body: SnapshotBody = serde_json::from_str(text).map_err(|e| RecoverError::Parse {
            index: usize::MAX,
            detail: e.to_string(),
        })?;
        if body.schema != STATE_SCHEMA_VERSION {
            return Err(RecoverError::SchemaVersion {
                found: body.schema,
                supported: STATE_SCHEMA_VERSION,
            });
        }
        out.extend(body.records);
    }
    out.extend(replay.decode_records::<StateRecord>()?);
    Ok(out)
}

/// Harvest warm-start models from a clean (completed) run's records:
/// fresh fits with persisted models, invalidated — exactly as the live
/// elision bank is — by any ladder-forced refit or revert after them,
/// capped to the newest [`SNAPSHOT_MODEL_SLOTS`].
fn harvest_warm(records: &[StateRecord]) -> Vec<(u64, PredictorState)> {
    let mut bank: Vec<(u64, PredictorState)> = Vec::new();
    for rec in records {
        match rec {
            StateRecord::FitCompleted {
                elided: false,
                apki,
                model: Some(state),
                ..
            } => bank.push((*apki, state.clone())),
            StateRecord::LadderMoved { to, .. } if *to >= DegradationStage::Refit => {
                bank.clear();
            }
            _ => {}
        }
    }
    if bank.len() > SNAPSHOT_MODEL_SLOTS {
        bank.drain(..bank.len() - SNAPSHOT_MODEL_SLOTS);
    }
    bank
}

/// Strip model payloads from all but the newest
/// [`SNAPSHOT_MODEL_SLOTS`] fresh fits, for snapshot compaction.
fn prune_models(records: &[StateRecord]) -> Vec<StateRecord> {
    let mut out = records.to_vec();
    let carriers: Vec<usize> = out
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            matches!(r, StateRecord::FitCompleted { model: Some(_), .. }).then_some(i)
        })
        .collect();
    let strip = carriers.len().saturating_sub(SNAPSHOT_MODEL_SLOTS);
    for &i in &carriers[..strip] {
        if let StateRecord::FitCompleted { model, .. } = &mut out[i] {
            *model = None;
        }
    }
    out
}

/// The controller's live persistence session: verified replay of a
/// recovered prefix, then append-ahead logging, with segment-boundary
/// snapshot compaction and warm-start harvesting. See the module docs
/// for the recovery contract.
#[derive(Debug)]
pub struct PersistSession {
    store: StateStore,
    /// Recovered records still to be verified against re-execution.
    prefix: Vec<StateRecord>,
    /// How many prefix records re-execution has matched so far.
    cursor: usize,
    /// Full record history of this run (verified + appended), the
    /// snapshot source.
    mirror: Vec<StateRecord>,
    /// Warm-start bank harvested from a clean prior run.
    warm: Vec<(u64, PredictorState)>,
    /// Records recovered from disk at open.
    replayed: usize,
    /// Whether the container dropped a torn tail at open.
    torn: Option<TornTail>,
    /// Snapshots actually written this session.
    snapshots: u64,
}

impl PersistSession {
    /// Open (or create) the store and prepare the session.
    ///
    /// `run_started` is the record the starting run is about to emit; on
    /// resume it is checked against the log's own `run_started` before
    /// any verification begins, so a config/seed mismatch fails with a
    /// specific error instead of a generic divergence.
    ///
    /// # Errors
    /// Any [`RecoverError`]: container-level failure, unparseable or
    /// version-mismatched records, or a log from a different run.
    pub fn begin(
        cfg: &PersistConfig,
        run_started: &StateRecord,
    ) -> Result<PersistSession, RecoverError> {
        let dir = Path::new(&cfg.dir);
        if !cfg.resume {
            let store = StateStore::create(dir)?;
            return PersistSession::fresh(store, cfg.crash_point, run_started);
        }
        let (mut store, replay) = StateStore::open(dir)?;
        let prefix = decode_replay(&replay)?;
        if prefix.is_empty() {
            // Nothing recorded yet: resuming an empty store is a fresh run.
            store.set_crash_point(cfg.crash_point);
            let mut session = PersistSession {
                store,
                prefix: Vec::new(),
                cursor: 0,
                mirror: Vec::new(),
                warm: Vec::new(),
                replayed: 0,
                torn: replay.torn,
                snapshots: 0,
            };
            session.emit(run_started.clone())?;
            return Ok(session);
        }
        check_run_identity(&prefix[0], run_started)?;
        if matches!(prefix.last(), Some(StateRecord::RunCompleted { .. })) {
            // Clean completion: harvest the warm bank, then start a
            // fresh log for the new run.
            let warm = harvest_warm(&prefix);
            drop(store);
            let store = StateStore::create(dir)?;
            let mut session = PersistSession::fresh(store, cfg.crash_point, run_started)?;
            session.warm = warm;
            return Ok(session);
        }
        // Interrupted run: the recovered records become the verification
        // prefix; `emit` compares instead of appending until it is spent.
        store.set_crash_point(cfg.crash_point);
        let replayed = prefix.len();
        let mut session = PersistSession {
            store,
            prefix,
            cursor: 0,
            mirror: Vec::new(),
            warm: Vec::new(),
            replayed,
            torn: replay.torn,
            snapshots: 0,
        };
        session.emit(run_started.clone())?;
        Ok(session)
    }

    fn fresh(
        mut store: StateStore,
        crash: CrashPoint,
        run_started: &StateRecord,
    ) -> Result<PersistSession, RecoverError> {
        store.set_crash_point(crash);
        let mut session = PersistSession {
            store,
            prefix: Vec::new(),
            cursor: 0,
            mirror: Vec::new(),
            warm: Vec::new(),
            replayed: 0,
            torn: None,
            snapshots: 0,
        };
        session.emit(run_started.clone())?;
        Ok(session)
    }

    /// Record one state transition: verified against the recovered
    /// prefix while the cursor is inside it, appended to the WAL after.
    ///
    /// # Errors
    /// [`RecoverError::Diverged`] when re-execution disagrees with the
    /// log; [`RecoverError::Store`] on container failure.
    pub fn emit(&mut self, record: StateRecord) -> Result<(), RecoverError> {
        if self.cursor < self.prefix.len() {
            let persisted = &self.prefix[self.cursor];
            if !records_match(persisted, &record) {
                return Err(RecoverError::Diverged {
                    index: self.cursor,
                    persisted: format!("{persisted:?}"),
                    emitted: format!("{record:?}"),
                });
            }
            self.cursor += 1;
        } else {
            self.store.append_record(&record)?;
        }
        self.mirror.push(record);
        Ok(())
    }

    /// The model persisted for the next fresh fit in the unverified
    /// prefix, if it is for `segment`. The controller restores it
    /// instead of refitting; the subsequent [`PersistSession::emit`] of
    /// the restored fit's record re-verifies the match.
    #[must_use]
    pub fn replayed_fit(&self, segment: u64) -> Option<PredictorState> {
        self.prefix[self.cursor..].iter().find_map(|r| match r {
            StateRecord::FitCompleted {
                segment: s,
                elided: false,
                model: Some(state),
                ..
            } if *s == segment => Some(state.clone()),
            StateRecord::FitCompleted { .. } => None,
            _ => None,
        })
    }

    /// Compact the log into a snapshot (model payloads pruned to the
    /// newest [`SNAPSHOT_MODEL_SLOTS`] fits). A no-op while the cursor
    /// is still inside the recovery prefix — compaction would discard
    /// WAL records that re-execution has not verified yet — and after an
    /// injected crash.
    ///
    /// # Errors
    /// [`RecoverError::Store`] on container failure.
    pub fn checkpoint(&mut self) -> Result<bool, RecoverError> {
        if self.cursor < self.prefix.len() {
            return Ok(false);
        }
        let body = SnapshotBody {
            schema: STATE_SCHEMA_VERSION,
            records: prune_models(&self.mirror),
        };
        let wrote = self.store.snapshot_record(&body)?;
        if wrote {
            self.snapshots += 1;
        }
        Ok(wrote)
    }

    /// Take the warm-start bank harvested from a clean prior run:
    /// `(apki bits, predictor state)` pairs, oldest first. Empty unless
    /// the session resumed from a log ending in
    /// [`StateRecord::RunCompleted`].
    pub fn take_warm_bank(&mut self) -> Vec<(u64, PredictorState)> {
        std::mem::take(&mut self.warm)
    }

    /// Whether a warm-start bank is (still) loaded.
    #[must_use]
    pub fn warm_available(&self) -> bool {
        !self.warm.is_empty()
    }

    /// Records recovered from disk when the session opened.
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The torn tail the container dropped at open, if any.
    #[must_use]
    pub fn torn(&self) -> Option<TornTail> {
        self.torn
    }

    /// Records appended (durably) this session.
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.store.appended()
    }

    /// Snapshots written this session.
    #[must_use]
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Whether an injected crash point has killed the store.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.store.crashed()
    }

    /// Prefix records not yet re-verified by re-execution.
    #[must_use]
    pub fn unverified(&self) -> usize {
        self.prefix.len() - self.cursor
    }
}

/// Check that a log's `run_started` record identifies the same run the
/// resuming controller is about to execute.
fn check_run_identity(persisted: &StateRecord, expected: &StateRecord) -> Result<(), RecoverError> {
    let StateRecord::RunStarted { schema: found, .. } = persisted else {
        return Err(RecoverError::NotARun);
    };
    if *found != STATE_SCHEMA_VERSION {
        return Err(RecoverError::SchemaVersion {
            found: *found,
            supported: STATE_SCHEMA_VERSION,
        });
    }
    if persisted != expected {
        return Err(RecoverError::ConfigMismatch {
            expected: format!("{expected:?}"),
            found: format!("{persisted:?}"),
        });
    }
    Ok(())
}

/// Offline summary of a store directory, for `mct recover`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Container generation (snapshots taken).
    pub generation: u64,
    /// Typed records recovered (snapshot body + WAL).
    pub records: usize,
    /// WAL records discarded as stale (compaction-window crash).
    pub stale_wal_records: u64,
    /// Torn tail dropped from the WAL, if any.
    pub torn: Option<TornTail>,
    /// Whether the log ends in [`StateRecord::RunCompleted`]
    /// (warm-start eligible).
    pub clean: bool,
    /// Run seed, if a `run_started` record was recovered.
    pub seed: Option<u64>,
    /// Predictor family of the run.
    pub model: Option<ModelKind>,
    /// Instruction budget of the run.
    pub total_insts: Option<u64>,
    /// Latest measured-instruction clock seen in the log.
    pub executed: u64,
    /// Segments completed.
    pub segments_completed: u64,
    /// Fit records (fresh + elided).
    pub fits: u64,
    /// Elided fit records.
    pub elided_fits: u64,
    /// Fresh fits whose model payload survives in the log.
    pub restorable_models: u64,
    /// Health checks recorded.
    pub health_checks: u64,
    /// Failed health checks recorded.
    pub health_failures: u64,
    /// Final degradation-ladder rung implied by the log.
    pub ladder: DegradationStage,
    /// Most recent chosen configuration.
    pub last_chosen: Option<NvmConfig>,
}

impl RecoveryReport {
    /// Replay a store directory read-only and summarize it.
    ///
    /// # Errors
    /// Any [`RecoverError`] from the container or the typed decode.
    pub fn from_dir(dir: &Path) -> Result<RecoveryReport, RecoverError> {
        let replay = StateStore::replay_dir(dir)?;
        let records = decode_replay(&replay)?;
        let mut report = RecoveryReport {
            generation: replay.generation,
            records: records.len(),
            stale_wal_records: replay.stale_wal_records,
            torn: replay.torn,
            clean: matches!(records.last(), Some(StateRecord::RunCompleted { .. })),
            seed: None,
            model: None,
            total_insts: None,
            executed: 0,
            segments_completed: 0,
            fits: 0,
            elided_fits: 0,
            restorable_models: 0,
            health_checks: 0,
            health_failures: 0,
            ladder: DegradationStage::Normal,
            last_chosen: None,
        };
        for rec in &records {
            match rec {
                StateRecord::RunStarted {
                    seed,
                    model,
                    total_insts,
                    ..
                } => {
                    report.seed = Some(*seed);
                    report.model = Some(*model);
                    report.total_insts = Some(*total_insts);
                }
                StateRecord::SegmentStarted { executed, .. } => {
                    report.executed = report.executed.max(*executed);
                }
                StateRecord::FitCompleted { elided, model, .. } => {
                    report.fits += 1;
                    if *elided {
                        report.elided_fits += 1;
                    }
                    if model.is_some() {
                        report.restorable_models += 1;
                    }
                }
                StateRecord::DecisionMade { config, .. } => {
                    report.last_chosen = Some(*config);
                }
                StateRecord::HealthChecked { passed, .. } => {
                    report.health_checks += 1;
                    if !passed {
                        report.health_failures += 1;
                    }
                }
                StateRecord::LadderMoved { to, .. } => report.ladder = *to,
                StateRecord::SegmentCompleted {
                    segment, chosen, ..
                } => {
                    report.segments_completed = report.segments_completed.max(segment + 1);
                    report.last_chosen = Some(*chosen);
                }
                StateRecord::RunCompleted {
                    executed, chosen, ..
                } => {
                    report.executed = report.executed.max(*executed);
                    report.last_chosen = Some(*chosen);
                }
                StateRecord::BaselineMeasured { .. } | StateRecord::WearDelta { .. } => {}
            }
        }
        Ok(report)
    }

    /// Multi-line human rendering for the `mct recover` subcommand.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "state store: generation {}, {} records recovered\n",
            self.generation, self.records
        ));
        if let Some(t) = self.torn {
            out.push_str(&format!(
                "  torn tail dropped: {} bytes at offset {} (record never acknowledged)\n",
                t.dropped_bytes, t.offset
            ));
        }
        if self.stale_wal_records > 0 {
            out.push_str(&format!(
                "  stale WAL records discarded: {} (compaction-window crash; \
                 already inside the snapshot)\n",
                self.stale_wal_records
            ));
        }
        match (self.seed, self.model, self.total_insts) {
            (Some(seed), Some(model), Some(total)) => out.push_str(&format!(
                "run: seed {seed}, model {}, budget {total} insts\n",
                model.short_label()
            )),
            _ => out.push_str("run: no run_started record (empty or torn-at-birth log)\n"),
        }
        out.push_str(&format!(
            "progress: {} segments completed, {} insts executed\n",
            self.segments_completed, self.executed
        ));
        out.push_str(&format!(
            "fits: {} total ({} elided), {} restorable model payloads\n",
            self.fits, self.elided_fits, self.restorable_models
        ));
        out.push_str(&format!(
            "health: {} checks, {} failed, ladder at {}\n",
            self.health_checks,
            self.health_failures,
            self.ladder.label()
        ));
        if let Some(c) = &self.last_chosen {
            out.push_str(&format!("last chosen config: {c}\n"));
        }
        out.push_str(if self.clean {
            "status: clean completion — `mct run --resume` will warm-start\n"
        } else {
            "status: interrupted — `mct run --resume` will verify-replay and continue\n"
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_persist::TempDir;

    fn run_started() -> StateRecord {
        StateRecord::RunStarted {
            schema: STATE_SCHEMA_VERSION,
            seed: 17,
            model: ModelKind::QuadraticLasso,
            total_insts: 1_000,
            config_digest: 42,
        }
    }

    fn fit(segment: u64, with_model: bool) -> StateRecord {
        StateRecord::FitCompleted {
            segment,
            elided: false,
            apki: 7.5f64.to_bits(),
            signature: 99,
            model: with_model.then(|| PredictorState {
                kind: ModelKind::QuadraticLasso,
                baseline: None,
                models: Vec::new(),
            }),
        }
    }

    #[test]
    fn fresh_session_appends_and_checkpoints() {
        let dir = TempDir::new("core-persist-fresh");
        let cfg = PersistConfig::fresh(dir.path().display().to_string());
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("begin");
        s.emit(StateRecord::SegmentStarted {
            segment: 0,
            executed: 0,
        })
        .expect("emit");
        assert!(s.checkpoint().expect("checkpoint"));
        assert_eq!(s.snapshots(), 1);
        assert_eq!(s.appends(), 2);
    }

    #[test]
    fn resume_verifies_prefix_and_rejects_divergence() {
        let dir = TempDir::new("core-persist-diverge");
        let path = dir.path().display().to_string();
        let cfg = PersistConfig::fresh(path.clone());
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("begin");
        s.emit(StateRecord::SegmentStarted {
            segment: 0,
            executed: 0,
        })
        .expect("emit");
        drop(s);

        let cfg = PersistConfig::resume_from(path);
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("resume");
        assert_eq!(s.replayed(), 2);
        assert_eq!(s.unverified(), 1, "run_started already verified");
        // A diverging record must fail loudly.
        let err = s
            .emit(StateRecord::SegmentStarted {
                segment: 0,
                executed: 999,
            })
            .expect_err("divergence");
        assert!(matches!(err, RecoverError::Diverged { index: 1, .. }));
    }

    #[test]
    fn resume_rejects_different_run_config() {
        let dir = TempDir::new("core-persist-mismatch");
        let path = dir.path().display().to_string();
        let cfg = PersistConfig::fresh(path.clone());
        drop(PersistSession::begin(&cfg, &run_started()).expect("begin"));

        let other = StateRecord::RunStarted {
            schema: STATE_SCHEMA_VERSION,
            seed: 18,
            model: ModelKind::QuadraticLasso,
            total_insts: 1_000,
            config_digest: 42,
        };
        let cfg = PersistConfig::resume_from(path);
        let err = PersistSession::begin(&cfg, &other).expect_err("mismatch");
        assert!(matches!(err, RecoverError::ConfigMismatch { .. }));
    }

    #[test]
    fn warm_bank_harvested_only_from_clean_logs() {
        let dir = TempDir::new("core-persist-warm");
        let path = dir.path().display().to_string();
        let cfg = PersistConfig::fresh(path.clone());
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("begin");
        s.emit(fit(0, true)).expect("emit");
        drop(s);

        // Interrupted log: no warm bank, prefix instead.
        let cfg = PersistConfig::resume_from(path.clone());
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("resume");
        assert!(!s.warm_available());
        assert_eq!(s.unverified(), 1);
        s.emit(fit(0, true)).expect("verify fit");
        s.emit(StateRecord::RunCompleted {
            executed: 1_000,
            chosen: NvmConfig::default_config(),
            segments: 1,
            final_metrics: Metrics {
                ipc: 1.0,
                lifetime_years: 8.0,
                energy_j: 1.0,
            }
            .into(),
        })
        .expect("complete");
        drop(s);

        // Clean log: warm bank available, fresh log started.
        let cfg = PersistConfig::resume_from(path);
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("warm resume");
        assert!(s.warm_available());
        let bank = s.take_warm_bank();
        assert_eq!(bank.len(), 1);
        assert_eq!(bank[0].0, 7.5f64.to_bits());
        assert_eq!(s.unverified(), 0, "warm start begins a fresh log");
    }

    #[test]
    fn warm_harvest_invalidated_by_ladder_refit() {
        let records = vec![
            run_started(),
            fit(0, true),
            StateRecord::LadderMoved {
                segment: 1,
                from: DegradationStage::Resample,
                to: DegradationStage::Refit,
                failures: 2,
            },
            fit(2, true),
        ];
        let bank = harvest_warm(&records);
        assert_eq!(bank.len(), 1, "only the post-refit fit survives");
    }

    #[test]
    fn prune_keeps_only_newest_model_payloads() {
        let records: Vec<StateRecord> = (0..SNAPSHOT_MODEL_SLOTS as u64 + 3)
            .map(|i| fit(i, true))
            .collect();
        let pruned = prune_models(&records);
        let with_model = pruned
            .iter()
            .filter(|r| matches!(r, StateRecord::FitCompleted { model: Some(_), .. }))
            .count();
        assert_eq!(with_model, SNAPSHOT_MODEL_SLOTS);
        // The survivors are the newest ones.
        assert!(matches!(
            pruned.last(),
            Some(StateRecord::FitCompleted { model: Some(_), .. })
        ));
        assert!(matches!(
            pruned.first(),
            Some(StateRecord::FitCompleted { model: None, .. })
        ));
    }

    #[test]
    fn records_match_tolerates_pruned_models_only() {
        let full = fit(3, true);
        let pruned = fit(3, false);
        let other = fit(4, true);
        assert!(
            records_match(&pruned, &full),
            "pruned persisted vs full emitted"
        );
        assert!(records_match(&full, &full));
        assert!(
            !records_match(&full, &pruned),
            "a persisted model must not vanish on re-execution"
        );
        assert!(!records_match(&pruned, &other));
    }

    #[test]
    fn bit_metrics_round_trip_infinity() {
        let m = Metrics {
            ipc: 1.25,
            lifetime_years: f64::INFINITY,
            energy_j: 3.5e-7,
        };
        let bits = BitMetrics::from(m);
        let back = bits.to_metrics();
        assert_eq!(m.ipc.to_bits(), back.ipc.to_bits());
        assert!(back.lifetime_years.is_infinite());
        assert_eq!(m.energy_j.to_bits(), back.energy_j.to_bits());
    }

    #[test]
    fn recovery_report_summarizes_a_store() {
        let dir = TempDir::new("core-persist-report");
        let cfg = PersistConfig::fresh(dir.path().display().to_string());
        let mut s = PersistSession::begin(&cfg, &run_started()).expect("begin");
        s.emit(fit(0, true)).expect("emit");
        s.emit(StateRecord::HealthChecked {
            segment: 0,
            check: 1,
            passed: false,
            testing_ipc: 1.0f64.to_bits(),
            baseline_ipc: 1.2f64.to_bits(),
        })
        .expect("emit");
        s.emit(StateRecord::LadderMoved {
            segment: 0,
            from: DegradationStage::Normal,
            to: DegradationStage::Resample,
            failures: 1,
        })
        .expect("emit");
        drop(s);
        let report = RecoveryReport::from_dir(dir.path()).expect("report");
        assert_eq!(report.records, 4);
        assert_eq!(report.seed, Some(17));
        assert_eq!(report.fits, 1);
        assert_eq!(report.restorable_models, 1);
        assert_eq!(report.health_checks, 1);
        assert_eq!(report.health_failures, 1);
        assert_eq!(report.ladder, DegradationStage::Resample);
        assert!(!report.clean);
        let text = report.render();
        assert!(text.contains("interrupted"));
        assert!(text.contains("seed 17"));
    }

    #[test]
    fn config_digest_ignores_persist_block() {
        let mut a = ControllerConfig::quick_demo();
        let mut b = ControllerConfig::quick_demo();
        b.persist = Some(PersistConfig::fresh("/tmp/x"));
        assert_eq!(config_digest(&a), config_digest(&b));
        a.seed = 99;
        assert_ne!(config_digest(&a), config_digest(&b));
    }
}
