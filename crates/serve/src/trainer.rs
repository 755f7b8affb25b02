//! Supervised continual pre-training over the serving engine's stream.
//!
//! A [`TrainerRuntime`] owns a [`ContinualTrainer`] (its own parameter
//! store — a diverging or crashing trainer can never scribble on serving
//! state) and drives the train → emit → validate → promote cycle against
//! a local copy of the engine's acknowledged event stream, synced
//! incrementally ([`Engine::events_since`]) so the engine lock is held
//! O(new events) per cycle. Candidate epochs are ordinary CRC-sealed
//! [`ModelFile`]s written atomically under the epoch directory; a
//! candidate reaches serving only through the promotion gate
//! ([`validate_candidate`]: finite parameters and a bounded held-out
//! loss against the serving epoch) and the engine's versioned hot-swap
//! ([`Engine::promote_epoch`], which checks the `trainer.promote` fault
//! point). Every promotion rewrites the sealed *promoted pointer*
//! ([`write_promoted`]) so a process killed at any instant restarts
//! serving the last promoted epoch.
//!
//! Failure handling is the whole point:
//!
//! * a fired `trainer.step` fault aborts the cycle typed; the supervisor
//!   backs off and retries — serving is untouched;
//! * guard divergence ([`CpdgError::Diverged`]) quarantines the cycle and
//!   rebuilds the trainer from the serving epoch;
//! * a fired `trainer.emit` fault, an unreadable/corrupt candidate, or a
//!   gate failure quarantines the candidate (the file, when one exists,
//!   moves to `quarantine/`) and counts it in `STATUS`;
//! * a just-promoted epoch that trips the circuit breaker inside its
//!   probation window is rolled back ([`Engine::rollback_epoch`]) and
//!   quarantined, and the previous epoch returns to serving — a rollback
//!   attempt that itself fails keeps the probation record and is retried
//!   on the next cycle rather than stopping the trainer;
//! * a panic anywhere in the cycle is caught by the supervisor thread
//!   ([`Supervisor::trainer`]), counted, and the trainer is rebuilt from
//!   the serving epoch after a bounded deterministic backoff — the same
//!   supervision discipline the worker pool uses.

use crate::engine::{Engine, Stat};
use crate::supervisor::{Cycle, Supervisor};
use cpdg_core::{
    validate_candidate, ContinualConfig, ContinualTrainer, CpdgError, CpdgResult, CycleReport,
    FaultHook, GateReport, ModelFile, Storage, FS_STORAGE,
};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// File name of the sealed promoted-epoch pointer inside the epoch dir.
pub const PROMOTED_POINTER: &str = "promoted.cpdg";

/// Subdirectory of the epoch dir that rejected candidates move into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Knobs of the continual-training supervisor.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Trainer hyper-parameters (batch size, guard, gate, …).
    pub continual: ContinualConfig,
    /// Directory holding candidate epochs, the promoted pointer, and the
    /// quarantine subdirectory. Created if missing.
    pub epoch_dir: PathBuf,
    /// Sleep between training cycles on the supervisor thread.
    pub cadence: Duration,
    /// Cycles a just-promoted epoch stays on probation: a breaker trip
    /// before they elapse rolls the promotion back.
    pub probation_cycles: u64,
}

impl TrainerConfig {
    /// A config training under `epoch_dir` with default hyper-parameters.
    pub fn new(epoch_dir: PathBuf) -> Self {
        Self {
            continual: ContinualConfig::default(),
            epoch_dir,
            cadence: Duration::from_millis(500),
            probation_cycles: 3,
        }
    }
}

/// What one supervisor cycle did — the oracle tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub enum CycleOutcome {
    /// Nothing new to train on: the stream is too short (fewer than two
    /// batches), or it has not grown since the last promotion.
    Idle,
    /// A transient failure (an injected fault, or a probation rollback
    /// attempt that failed) aborted the cycle; it will be retried.
    Faulted(String),
    /// The cycle trained and emitted a candidate, but the gate (or
    /// emit/readback/promotion) rejected it; the candidate is quarantined.
    Quarantined(String),
    /// A candidate passed the gate and now serves at this version.
    Promoted {
        /// New serving version.
        version: u64,
        /// The gate report that admitted it.
        gate: GateReport,
    },
    /// A probation breach rolled serving back to this version.
    RolledBack {
        /// Serving version after the rollback swap.
        version: u64,
    },
}

/// A promotion under observation.
#[derive(Debug, Clone)]
struct Probation {
    /// Breaker trips at the instant of promotion.
    trips: u64,
    /// Cycles left before the promotion is confirmed good.
    cycles_left: u64,
    /// The promoted candidate file (quarantined on rollback).
    candidate: PathBuf,
    /// The epoch file serving returns to on rollback.
    fallback: PathBuf,
}

/// The synchronous train → emit → validate → promote state machine.
///
/// [`Supervisor::trainer`] drives one of these on a background thread; the
/// continual suite constructs one directly and steps it with
/// [`TrainerRuntime::run_cycle`] so every cut point is reachable
/// deterministically.
pub struct TrainerRuntime {
    engine: Arc<Engine>,
    cfg: TrainerConfig,
    hook: FaultHook,
    trainer: ContinualTrainer,
    /// The model the engine is serving — the gate baseline.
    serving_model: ModelFile,
    /// File backing `serving_model` (the rollback fallback).
    serving_path: PathBuf,
    /// Local copy of the engine's acknowledged event stream, extended
    /// incrementally each cycle ([`TrainerRuntime::sync_stream`]) so the
    /// engine lock is never held for an O(stream-length) clone.
    stream: cpdg_graph::DynamicGraph,
    /// Candidate generation counter (monotone across restarts — recovered
    /// from the promoted pointer and the epoch/quarantine directories;
    /// also the `STATUS` `trainer.training_epoch`).
    generation: u64,
    probation: Option<Probation>,
    /// Stream length at the last promotion: a cycle over a stream still
    /// that long is idle. Faulted and quarantined cycles record nothing,
    /// so they retry on the same stream; a rollback keeps the record, so
    /// the rolled-back candidate is not rebuilt from the same events. The
    /// promoted pointer seals it, so a restart keeps it too.
    promoted_len: Option<usize>,
}

impl TrainerRuntime {
    /// Builds the runtime. `serving_path` must point at the model file the
    /// engine is currently serving (after promoted-pointer resolution);
    /// it seeds both the trainer parameters and the gate baseline. Creates
    /// the epoch and quarantine directories, and resumes the candidate
    /// generation sequence above anything a previous process emitted — a
    /// restarted trainer must never write a new candidate over the epoch
    /// file it is currently serving.
    pub fn new(engine: Arc<Engine>, serving_path: &Path, cfg: TrainerConfig) -> CpdgResult<Self> {
        std::fs::create_dir_all(cfg.epoch_dir.join(QUARANTINE_DIR))
            .map_err(|e| CpdgError::io(&cfg.epoch_dir, e))?;
        let serving_model = ModelFile::load(serving_path)?;
        let trainer =
            ContinualTrainer::from_model(&serving_model, serving_path, cfg.continual.clone())?;
        let hook = engine.fault_hook();
        let promoted = read_promoted(&cfg.epoch_dir).ok().flatten();
        let generation = recover_generation(&cfg.epoch_dir, promoted.as_ref());
        // A restart serving the last promotion keeps its record, so an
        // unchanged recovered stream does not retrain.
        let promoted_len = promoted
            .filter(|p| p.model == serving_path)
            .and_then(|p| p.stream_len);
        let num_nodes = serving_model.num_nodes;
        engine.set(Stat::Trainer, 1);
        Ok(Self {
            engine,
            cfg,
            hook,
            trainer,
            serving_model,
            serving_path: serving_path.to_path_buf(),
            stream: cpdg_graph::DynamicGraph::empty(num_nodes),
            generation,
            probation: None,
            promoted_len,
        })
    }

    /// Pulls the engine's newly acknowledged events into the local stream
    /// copy. Only the tail past the local high-water mark is copied under
    /// the engine lock, so a cadence tick costs O(new events), not
    /// O(stream length). An append the local copy refuses (impossible for
    /// engine-acknowledged events unless the copy somehow desynced) falls
    /// back to a wholesale snapshot.
    fn sync_stream(&mut self) {
        for e in self.engine.events_since(self.stream.num_events()) {
            if let Err(err) = self.stream.push_event(e.src, e.dst, e.t, e.field) {
                cpdg_obs::warn!(
                    "serve.trainer",
                    "local stream copy desynced; resnapshotting wholesale";
                    error = err.to_string(),
                );
                self.stream = self.engine.snapshot_graph();
                return;
            }
        }
    }

    /// The path the next emitted candidate will be written to.
    fn candidate_path(&self, generation: u64) -> PathBuf {
        self.cfg
            .epoch_dir
            .join(format!("candidate-g{generation}.json"))
    }

    /// Moves a rejected candidate file into the quarantine directory and
    /// counts it. Missing files (emit faulted before writing) still count:
    /// every rejected candidate is accounted for in `STATUS`. Destinations
    /// are suffixed until free — generation numbers can repeat across
    /// process restarts, and quarantine is a forensic record, so a later
    /// rejection must never overwrite an earlier one.
    fn quarantine(&self, path: &Path, reason: &str) {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        if path.exists() {
            let qdir = self.cfg.epoch_dir.join(QUARANTINE_DIR);
            let base = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let mut dest = qdir.join(&base);
            let mut n = 1u32;
            while dest.exists() {
                dest = qdir.join(format!("{base}.{n}"));
                n += 1;
            }
            if let Err(e) = std::fs::rename(path, &dest) {
                cpdg_obs::warn!(
                    "serve.trainer",
                    "failed to move quarantined candidate; deleting in place";
                    path = path.display().to_string(),
                    error = e.to_string(),
                );
                let _ = std::fs::remove_file(path);
            }
        }
        // Drop any sealed replica copies: a surviving `<name>.r1` would
        // let the scrubber resurrect the rejected candidate from it.
        cpdg_core::scrub::remove_replicas(&FS_STORAGE, path);
        self.engine.note_quarantined(bytes, reason);
        cpdg_obs::warn!(
            "serve.trainer",
            "candidate quarantined";
            candidate = path.display().to_string(),
            reason = reason.to_string(),
        );
    }

    /// Rebuilds the trainer from the serving epoch — the recovery move
    /// after divergence or a caught panic left trainer state suspect.
    pub fn reset_from_serving(&mut self) -> CpdgResult<()> {
        self.trainer = ContinualTrainer::from_model(
            &self.serving_model,
            &self.serving_path,
            self.cfg.continual.clone(),
        )?;
        Ok(())
    }

    /// Checks the live probation window, rolling back if the breaker
    /// tripped since promotion. Returns the rollback outcome when one
    /// happened. A rollback attempt that fails (transient fault at the
    /// swap's fault point, fallback momentarily unreadable) must not kill
    /// the trainer — the misbehaving epoch would keep serving with nobody
    /// left to roll it back — so the probation record is kept and the
    /// rollback retried on the next cycle.
    fn check_probation(&mut self) -> CpdgResult<Option<CycleOutcome>> {
        let Some(p) = self.probation.clone() else {
            return Ok(None);
        };
        if self.engine.breaker_trips() > p.trips {
            let version = match self.try_rollback(&p) {
                Ok(v) => v,
                Err(e) => {
                    cpdg_obs::warn!(
                        "serve.trainer",
                        "probation rollback failed; keeping probation and retrying";
                        error = e.to_string(),
                    );
                    return Ok(Some(CycleOutcome::Faulted(format!(
                        "rollback failed (will retry): {e}"
                    ))));
                }
            };
            self.quarantine(&p.candidate, "breaker tripped inside probation");
            self.probation = None;
            self.reset_from_serving()?;
            cpdg_obs::warn!(
                "serve.trainer",
                "promotion rolled back inside probation";
                version = version,
                fallback = p.fallback.display().to_string(),
            );
            return Ok(Some(CycleOutcome::RolledBack { version }));
        }
        if p.cycles_left <= 1 {
            self.probation = None;
        } else {
            self.probation = Some(Probation {
                cycles_left: p.cycles_left - 1,
                ..p
            });
        }
        Ok(None)
    }

    /// The fallible half of a probation rollback: swap serving back to the
    /// fallback epoch, reload the gate baseline, and reseal the promoted
    /// pointer. Safe to retry wholesale — the swap only moves the version
    /// forward, and the pointer write is atomic.
    fn try_rollback(&mut self, p: &Probation) -> CpdgResult<u64> {
        let version = self.engine.rollback_epoch(&p.fallback)?;
        self.serving_model = ModelFile::load(&p.fallback)?;
        self.serving_path = p.fallback.clone();
        write_promoted(
            &self.cfg.epoch_dir,
            self.generation,
            &p.fallback,
            self.promoted_len,
        )?;
        Ok(version)
    }

    /// Runs one full cycle: probation check, batched CPDG training over
    /// the synced stream copy (idle when it has not grown since the last
    /// promotion), candidate emission, gate validation, promotion. Every
    /// failure mode maps to a typed
    /// [`CycleOutcome`]; an `Err` return is reserved for unrecoverable
    /// environment problems (epoch dir unwritable, serving model no
    /// longer loadable as a trainer).
    pub fn run_cycle(&mut self) -> CpdgResult<CycleOutcome> {
        if let Some(rolled) = self.check_probation()? {
            return Ok(rolled);
        }
        self.sync_stream();
        if self.promoted_len == Some(self.stream.num_events()) {
            return Ok(CycleOutcome::Idle);
        }
        let report = match self.trainer.train_cycle(&self.stream, &self.hook) {
            Ok(r) => r,
            Err(CpdgError::Diverged(report)) => {
                self.engine.note_quarantined(0, "diverged");
                cpdg_obs::warn!(
                    "serve.trainer",
                    "training diverged; trainer rebuilt from serving epoch";
                    report = report.to_string(),
                );
                self.reset_from_serving()?;
                return Ok(CycleOutcome::Quarantined(format!("diverged: {report}")));
            }
            Err(e @ CpdgError::Fault { .. }) => {
                return Ok(CycleOutcome::Faulted(e.to_string()));
            }
            Err(e) => return Err(e),
        };
        if report.steps == 0 {
            return Ok(CycleOutcome::Idle);
        }
        self.engine.add(Stat::TrainerWindows, report.steps as u64);
        self.emit_validate_promote(&report)
    }

    /// The emit → validate → promote tail of a cycle that trained.
    fn emit_validate_promote(&mut self, report: &CycleReport) -> CpdgResult<CycleOutcome> {
        let generation = self.generation + 1;
        let path = self.candidate_path(generation);
        if path == self.serving_path {
            // Generation bookkeeping exists precisely so this cannot
            // happen; refuse loudly rather than overwrite the epoch file
            // the engine is serving from.
            return Err(CpdgError::Invalid(format!(
                "candidate path {} collides with the serving epoch",
                path.display()
            )));
        }
        if let Err(e) = self
            .trainer
            .emit_candidate(&Storage::new(self.hook.clone()), &path)
        {
            self.quarantine(&path, &e.to_string());
            return Ok(CycleOutcome::Quarantined(format!("emit failed: {e}")));
        }
        // Best-effort replica: a missing one costs redundancy until the
        // next scrub cycle, never the promotion.
        cpdg_core::scrub::publish_replicas(&FS_STORAGE, &path);
        self.generation = generation;
        self.engine.count(Stat::TrainerCandidates);
        self.engine.set(Stat::TrainerTrainingEpoch, generation);
        // Read the candidate back through the sealed loader: what the gate
        // scores and the engine promotes is the *file*, so corruption
        // between emit and promote is caught here.
        let candidate = match ModelFile::load(&path) {
            Ok(m) => m,
            Err(e) => {
                self.quarantine(&path, &e.to_string());
                return Ok(CycleOutcome::Quarantined(format!(
                    "candidate unreadable: {e}"
                )));
            }
        };
        let gate = match validate_candidate(
            &candidate,
            &self.serving_model,
            &self.stream,
            report.holdout_from,
            &self.cfg.continual.gate,
            self.cfg.continual.seed,
        ) {
            Ok(g) => g,
            Err(e) => {
                self.quarantine(&path, &e.to_string());
                return Ok(CycleOutcome::Quarantined(format!("gate errored: {e}")));
            }
        };
        if !gate.pass {
            self.quarantine(&path, &gate.reason);
            return Ok(CycleOutcome::Quarantined(format!(
                "gate rejected: {}",
                gate.reason
            )));
        }
        let version = match self.engine.promote_epoch(&path) {
            Ok(v) => v,
            Err(e) => {
                self.quarantine(&path, &e.to_string());
                return Ok(CycleOutcome::Quarantined(format!("promotion failed: {e}")));
            }
        };
        // Promotion is live; seal the pointer so a crash from here on
        // restarts into this epoch. The swap above and this write are the
        // two halves of the promotion cut point the kill oracle exercises.
        self.promoted_len = Some(self.stream.num_events());
        write_promoted(&self.cfg.epoch_dir, generation, &path, self.promoted_len)?;
        self.probation = Some(Probation {
            trips: self.engine.breaker_trips(),
            cycles_left: self.cfg.probation_cycles,
            candidate: path.clone(),
            fallback: self.serving_path.clone(),
        });
        self.serving_model = candidate;
        self.serving_path = path.clone();
        cpdg_obs::info!(
            "serve.trainer",
            "candidate promoted";
            version = version,
            generation = generation,
            gate = gate.reason.clone(),
        );
        Ok(CycleOutcome::Promoted { version, gate })
    }
}

/// Atomically writes the sealed promoted-epoch pointer: `generation`, the
/// serving model path (verbatim — a rollback may point outside the epoch
/// dir, back at the base model) and, when known, the stream length the
/// promotion trained on, one per line. CRC-sealed so a torn write is
/// detected rather than silently followed, in both copies
/// (`promoted.cpdg`, `promoted.cpdg.r1`) so a later bit flip in either
/// heals on read instead of refusing.
pub fn write_promoted(
    epoch_dir: &Path,
    generation: u64,
    model: &Path,
    stream_len: Option<usize>,
) -> CpdgResult<()> {
    let name = model
        .to_str()
        .ok_or_else(|| CpdgError::Invalid(format!("unnameable model path {}", model.display())))?;
    let mut payload = format!("{generation}\n{name}");
    if let Some(len) = stream_len {
        payload.push_str(&format!("\n{len}"));
    }
    let pointer = epoch_dir.join(PROMOTED_POINTER);
    cpdg_core::scrub::write_replicated(
        &FS_STORAGE,
        &pointer,
        &cpdg_core::integrity::seal(payload.as_bytes()),
    )
}

/// The decoded promoted-epoch pointer: which candidate generation was
/// promoted last, and the model file serving should resume from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotedEpoch {
    /// The candidate generation counter at the time the pointer was
    /// sealed — a restarted trainer resumes the sequence above it.
    pub generation: u64,
    /// Path of the promoted model file (verbatim as sealed; a rollback
    /// may point outside the epoch dir, back at the base model).
    pub model: PathBuf,
    /// Stream length the promotion trained on: a trainer restarted over
    /// a stream still that long is idle. `None` for a two-line pointer
    /// from an earlier build.
    pub stream_len: Option<usize>,
}

/// Reads the promoted-epoch pointer through its copy set: a corrupt copy
/// is rewritten from the sound one before parsing. `Ok(None)` when no
/// copy exists (nothing was ever promoted); `Err` when every copy is
/// corrupt, or the pointer names a missing file — callers should warn and
/// fall back to their base model.
pub fn read_promoted(epoch_dir: &Path) -> CpdgResult<Option<PromotedEpoch>> {
    let pointer = epoch_dir.join(PROMOTED_POINTER);
    let read = match cpdg_core::scrub::read_sealed_replicated(&FS_STORAGE, &pointer) {
        Ok(read) => read,
        Err(CpdgError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
            return Ok(None)
        }
        Err(e) => return Err(e),
    };
    let text = std::str::from_utf8(&read.payload)
        .map_err(|e| CpdgError::corrupt(&pointer, e.to_string()))?;
    let mut lines = text.lines();
    let generation = lines
        .next()
        .and_then(|g| g.parse::<u64>().ok())
        .ok_or_else(|| CpdgError::corrupt(&pointer, "missing generation line".to_string()))?;
    let name = lines
        .next()
        .ok_or_else(|| CpdgError::corrupt(&pointer, "missing model path line".to_string()))?;
    let stream_len = lines
        .next()
        .map(|l| l.parse::<usize>())
        .transpose()
        .map_err(|e| CpdgError::corrupt(&pointer, format!("bad stream length line: {e}")))?;
    let model = PathBuf::from(name);
    if !model.exists() {
        return Err(CpdgError::corrupt(
            &model,
            "promoted pointer names a missing model file".to_string(),
        ));
    }
    Ok(Some(PromotedEpoch {
        generation,
        model,
        stream_len,
    }))
}

/// The candidate generation a restarting trainer must resume above: the
/// maximum of the sealed pointer's generation and every `candidate-gN`
/// file still on disk (epoch dir and quarantine — quarantined names
/// count, or a restart after a rejection would reuse their generation).
/// An unreadable pointer or directory contributes nothing: the scan is
/// best-effort, and the emit-time serving-path collision check backstops
/// it.
fn recover_generation(epoch_dir: &Path, promoted: Option<&PromotedEpoch>) -> u64 {
    let mut max = promoted.map_or(0, |p| p.generation);
    for dir in [epoch_dir.to_path_buf(), epoch_dir.join(QUARANTINE_DIR)] {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            if let Some(g) = candidate_generation(&entry.file_name().to_string_lossy()) {
                max = max.max(g);
            }
        }
    }
    max
}

/// Parses the generation out of a `candidate-gN.json` file name (with or
/// without a quarantine disambiguation suffix). `None` for anything else.
fn candidate_generation(name: &str) -> Option<u64> {
    name.strip_prefix("candidate-g")?
        .split('.')
        .next()?
        .parse()
        .ok()
}

/// The trainer's [`Cycle`]: one [`TrainerRuntime::run_cycle`] per cycle.
/// An unrecoverable `Err` outcome (epoch dir gone, fallback model
/// unreadable) stops the trainer; serving continues without it. A panic
/// is counted as a quarantined candidate (whatever was in flight is
/// abandoned) and the trainer is rebuilt from the serving epoch.
impl Cycle for TrainerRuntime {
    fn cycle(&mut self) -> ControlFlow<()> {
        match self.run_cycle() {
            Ok(CycleOutcome::Faulted(reason)) => {
                cpdg_obs::warn!(
                    "serve.trainer",
                    "training cycle hit a transient failure; retrying";
                    reason = reason,
                );
                ControlFlow::Continue(())
            }
            Ok(_) => ControlFlow::Continue(()),
            Err(e) => {
                cpdg_obs::warn!(
                    "serve.trainer",
                    "continual trainer stopped on unrecoverable error";
                    error = e.to_string(),
                );
                ControlFlow::Break(())
            }
        }
    }

    fn recover(&mut self, _streak: u32) -> ControlFlow<()> {
        self.engine.note_quarantined(0, "panic");
        match self.reset_from_serving() {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    }
}

impl Supervisor {
    /// Spawns the continual-trainer thread around `runtime`, cycling at
    /// its configured cadence.
    pub fn trainer(runtime: TrainerRuntime) -> std::io::Result<Self> {
        let engine = Arc::clone(&runtime.engine);
        let cadence = runtime.cfg.cadence;
        Self::start(engine, Stat::Trainer, cadence, runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::Command;
    use cpdg_core::{FaultKind, FaultPlan, FaultPoint, Trigger};
    use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, GuardConfig, LinkPredictor};
    use cpdg_tensor::ParamStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NODES: usize = 16;
    const DIM: usize = 8;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg-trainer-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A freshly-initialised model whose namespaces match the engine's.
    fn base_model(dir: &Path) -> PathBuf {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, DIM, 100.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", NODES, cfg.clone());
        let _head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", enc.dim());
        let path = dir.join("base.json");
        ModelFile::new(cfg, NODES, store, Vec::new())
            .save(&path)
            .unwrap();
        path
    }

    fn stream_events(engine: &Engine, n: usize) {
        for i in 0..n {
            let r = engine.execute(Command::Event {
                src: (i % (NODES / 2)) as u32,
                dst: (NODES / 2 + i % (NODES / 2)) as u32,
                t: i as f64,
                field: 0,
            });
            assert!(r.render().starts_with("OK"), "{}", r.render());
        }
    }

    fn runtime_with(
        dir: &Path,
        hook: FaultHook,
        tweak: impl FnOnce(&mut TrainerConfig),
    ) -> (Arc<Engine>, TrainerRuntime, PathBuf) {
        let base = base_model(dir);
        let model = ModelFile::load(&base).unwrap();
        let engine = Arc::new(Engine::from_model(&model, EngineConfig::default(), hook));
        let mut cfg = TrainerConfig::new(dir.join("epochs"));
        cfg.continual.batch_size = 10;
        cfg.continual.seed = 7;
        cfg.continual.guard = GuardConfig::never_diverge();
        tweak(&mut cfg);
        let rt = TrainerRuntime::new(Arc::clone(&engine), &base, cfg).unwrap();
        (engine, rt, base)
    }

    #[test]
    fn idle_until_enough_stream_then_trains_and_promotes() {
        let dir = test_dir("promote");
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        assert_eq!(
            rt.run_cycle().unwrap(),
            CycleOutcome::Idle,
            "empty stream is idle"
        );
        stream_events(&engine, 64);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Promoted { version, gate } => {
                assert_eq!(version, 2);
                assert!(gate.pass);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        assert_eq!(engine.version(), 2);
        let promoted = read_promoted(&dir.join("epochs")).unwrap().unwrap();
        assert!(
            promoted.model.ends_with("candidate-g1.json"),
            "{}",
            promoted.model.display()
        );
        assert_eq!(promoted.generation, 1);
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer=on"), "{status}");
        assert!(status.contains("trainer.promotions=1"), "{status}");
        assert!(status.contains("trainer.training_epoch=1"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stream_that_has_not_grown_since_the_promotion_is_idle() {
        let dir = test_dir("static-stream");
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        stream_events(&engine, 64);
        assert!(matches!(
            rt.run_cycle().unwrap(),
            CycleOutcome::Promoted { .. }
        ));
        assert_eq!(rt.run_cycle().unwrap(), CycleOutcome::Idle);
        assert!(
            !dir.join("epochs").join("candidate-g2.json").exists(),
            "no candidate is emitted from the same events"
        );
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer.candidates=1"), "{status}");
        assert!(status.contains("trainer.promotions=1"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restarted_trainer_keeps_its_promotion_record() {
        let dir = test_dir("restart-idle");
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        stream_events(&engine, 64);
        assert!(matches!(
            rt.run_cycle().unwrap(),
            CycleOutcome::Promoted { .. }
        ));
        let cfg = rt.cfg.clone();
        drop(rt);

        // A restart serving the promoted epoch over the same stream: the
        // stream has not grown since the promotion, so nothing retrains.
        let epochs = dir.join("epochs");
        let promoted = read_promoted(&epochs).unwrap().unwrap();
        let mut rt = TrainerRuntime::new(Arc::clone(&engine), &promoted.model, cfg).unwrap();
        assert_eq!(rt.run_cycle().unwrap(), CycleOutcome::Idle);
        assert!(
            !epochs.join("candidate-g2.json").exists(),
            "no candidate is emitted from the events the promotion saw"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_generation_above_the_promoted_pointer() {
        let dir = test_dir("restart-gen");
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        stream_events(&engine, 64);
        assert!(matches!(
            rt.run_cycle().unwrap(),
            CycleOutcome::Promoted { .. }
        ));
        drop(rt);
        drop(engine);

        // "kill -9": a fresh process resolves the pointer and re-attaches
        // a trainer. It must continue at generation 2 — emitting to
        // candidate-g1.json would overwrite the serving epoch in place.
        let epochs = dir.join("epochs");
        let promoted = read_promoted(&epochs).unwrap().unwrap();
        assert_eq!(promoted.generation, 1);
        let g1_bytes = std::fs::read(&promoted.model).unwrap();
        let model = ModelFile::load(&promoted.model).unwrap();
        let engine = Arc::new(Engine::from_model(
            &model,
            EngineConfig::default(),
            FaultHook::none(),
        ));
        let mut cfg = TrainerConfig::new(epochs.clone());
        cfg.continual.batch_size = 10;
        cfg.continual.seed = 7;
        cfg.continual.guard = GuardConfig::never_diverge();
        let mut rt = TrainerRuntime::new(Arc::clone(&engine), &promoted.model, cfg).unwrap();
        assert_eq!(rt.generation, 1, "generation recovered from the pointer");
        // More events than the promotion saw, so the cycle trains.
        stream_events(&engine, 80);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Promoted { .. } | CycleOutcome::Quarantined(_) => {}
            other => panic!("expected a generation-2 candidate, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&promoted.model).unwrap(),
            g1_bytes,
            "the promoted epoch file must never be overwritten"
        );
        assert!(
            read_promoted(&epochs).unwrap().unwrap().model.exists(),
            "pointer never dangles"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rollback_is_retried_not_fatal() {
        let dir = test_dir("rollback-retry");
        // Three inference faults trip the breaker during probation; the
        // fourth entry makes the *first rollback attempt* (the second
        // consultation of trainer.promote — promotion was the first) fail
        // transiently.
        let plan = FaultPlan::new(41)
            .with(
                FaultPoint::ServeInfer,
                FaultKind::Transient,
                Trigger::Nth { n: 1 },
            )
            .with(
                FaultPoint::ServeInfer,
                FaultKind::Transient,
                Trigger::Nth { n: 2 },
            )
            .with(
                FaultPoint::ServeInfer,
                FaultKind::Transient,
                Trigger::Nth { n: 3 },
            )
            .with(
                FaultPoint::TrainerPromote,
                FaultKind::Transient,
                Trigger::Nth { n: 2 },
            );
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::install(&plan), |_| {});
        stream_events(&engine, 64);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Promoted { version, .. } => assert_eq!(version, 2),
            other => panic!("expected promotion, got {other:?}"),
        }
        for i in 0..3u32 {
            let _ = engine.execute(Command::Emb {
                node: i,
                t: Some(100.0),
            });
        }
        assert_eq!(engine.breaker_trips(), 1, "breaker tripped on probation");

        // The rollback attempt fails on the injected fault: typed outcome,
        // probation kept, trainer alive, bad epoch still (knowingly)
        // serving.
        match rt.run_cycle().unwrap() {
            CycleOutcome::Faulted(reason) => {
                assert!(reason.contains("rollback failed"), "{reason}")
            }
            other => panic!("expected retryable rollback failure, got {other:?}"),
        }
        assert_eq!(engine.version(), 2, "failed rollback swapped nothing");

        // Next cycle retries the rollback and succeeds.
        match rt.run_cycle().unwrap() {
            CycleOutcome::RolledBack { version } => assert_eq!(version, 3),
            other => panic!("expected rollback on retry, got {other:?}"),
        }
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer.rollbacks=1"), "{status}");
        assert!(status.contains("trainer.quarantined=1"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_never_overwrites_earlier_forensics() {
        let dir = test_dir("quarantine-names");
        let (_engine, rt, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        let epochs = dir.join("epochs");
        let victim = epochs.join("candidate-g7.json");
        std::fs::write(&victim, b"first").unwrap();
        rt.quarantine(&victim, "test");
        std::fs::write(&victim, b"second").unwrap();
        rt.quarantine(&victim, "test");
        let qdir = epochs.join(QUARANTINE_DIR);
        assert_eq!(
            std::fs::read(qdir.join("candidate-g7.json")).unwrap(),
            b"first"
        );
        assert_eq!(
            std::fs::read(qdir.join("candidate-g7.json.1")).unwrap(),
            b"second",
            "second rejection parked under a fresh name"
        );
        // A restarted runtime resumes above every generation ever seen —
        // including quarantined ones, which left the epoch dir.
        let (_e2, rt2, _) = runtime_with(&dir, FaultHook::none(), |_| {});
        assert_eq!(rt2.generation, 7, "generation recovered from quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_fault_quarantines_without_touching_serving() {
        let dir = test_dir("emit-fault");
        let plan = FaultPlan::new(11).with(
            FaultPoint::TrainerEmit,
            FaultKind::Transient,
            Trigger::Nth { n: 0 },
        );
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::install(&plan), |_| {});
        stream_events(&engine, 64);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Quarantined(reason) => {
                assert!(reason.contains("trainer.emit"), "{reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(engine.version(), 1, "serving untouched");
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer.quarantined=1"), "{status}");
        assert!(status.contains("trainer.promotions=0"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_fault_quarantines_the_candidate_file() {
        let dir = test_dir("promote-fault");
        let plan = FaultPlan::new(12).with(
            FaultPoint::TrainerPromote,
            FaultKind::Permanent,
            Trigger::Every { k: 1 },
        );
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::install(&plan), |_| {});
        stream_events(&engine, 64);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Quarantined(reason) => {
                assert!(reason.contains("trainer.promote"), "{reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(engine.version(), 1);
        let q = dir
            .join("epochs")
            .join(QUARANTINE_DIR)
            .join("candidate-g1.json");
        assert!(q.exists(), "rejected candidate parked in quarantine");
        assert!(
            read_promoted(&dir.join("epochs")).unwrap().is_none(),
            "no pointer without a promotion"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_pointer_is_a_typed_error() {
        let dir = test_dir("pointer");
        let epochs = dir.join("epochs");
        std::fs::create_dir_all(&epochs).unwrap();
        assert!(read_promoted(&epochs).unwrap().is_none());
        std::fs::write(epochs.join(PROMOTED_POINTER), b"garbage").unwrap();
        assert!(
            read_promoted(&epochs).is_err(),
            "corrupt pointer must not be followed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step_fault_is_retried_not_quarantined() {
        let dir = test_dir("step-fault");
        let plan = FaultPlan::new(13).with(
            FaultPoint::TrainerStep,
            FaultKind::Transient,
            Trigger::Nth { n: 0 },
        );
        let (engine, mut rt, _) = runtime_with(&dir, FaultHook::install(&plan), |_| {});
        stream_events(&engine, 64);
        match rt.run_cycle().unwrap() {
            CycleOutcome::Faulted(reason) => assert!(reason.contains("trainer.step"), "{reason}"),
            other => panic!("expected fault outcome, got {other:?}"),
        }
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer.quarantined=0"), "{status}");
        assert!(
            matches!(
                rt.run_cycle().unwrap(),
                CycleOutcome::Promoted { .. } | CycleOutcome::Idle
            ),
            "transient fault clears on retry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_thread_promotes_and_shuts_down_cleanly() {
        let dir = test_dir("supervisor");
        let (engine, rt, _) = runtime_with(&dir, FaultHook::none(), |cfg| {
            cfg.cadence = Duration::from_millis(5);
        });
        stream_events(&engine, 64);
        let sup = Supervisor::trainer(rt).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.version() == 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        sup.shutdown();
        assert!(engine.version() >= 2, "supervisor promoted at least once");
        let status = engine.execute(Command::Status).render();
        assert!(
            status.contains("trainer=off"),
            "shutdown marks the trainer detached: {status}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
