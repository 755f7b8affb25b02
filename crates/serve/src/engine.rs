//! The serving engine: model state, streamed ingestion, inference, the
//! circuit breaker, and versioned hot reload.
//!
//! ## Concurrency model
//!
//! Two locks with strictly separated jobs:
//!
//! * `inner: Mutex<EngineInner>` — the *serialisation point*. Everything
//!   that touches mutable DGNN state (the encoder's node memory, the
//!   growing event log, breaker bookkeeping) runs under this lock, one
//!   request at a time. Serialising inference is what makes the chaos
//!   oracle possible: with a fixed request order, every fault-point hit
//!   index, breaker transition, and memory update replays identically at
//!   any worker-thread count.
//! * `current: RwLock<Arc<Epoch>>` — the *version pointer*. `PING` /
//!   `STATS` and reply stamping read the live version without queueing
//!   behind inference. Hot reload reads the new model file off-lock, then
//!   builds and swaps the new [`Epoch`] under `inner`; a request already
//!   holding `inner` finishes on the epoch it started with.
//!
//! ## Failure taxonomy (what feeds the breaker)
//!
//! Only *model-health* failures count toward tripping the circuit breaker:
//! an injected `serve.infer` fault, a non-finite output, or a panic inside
//! the forward pass. Bad arguments (`ERR exec`) never reach inference at
//! all. While open, the breaker serves degraded replies from the static
//! pre-training embeddings and lets every `probe_every`-th request
//! through; one clean probe re-closes it.

use crate::breaker::{Admittance, CircuitBreaker};
use crate::cache::{CacheKey, ClearCause, EmbedCache};
use crate::protocol::{render_floats, Command, ErrKind, Reply};
use cpdg_core::error::{CpdgError, CpdgResult};
use cpdg_core::storage::Storage;
use cpdg_core::wal::{self, RecoveryStats, Wal, WalCheckpoint, WalConfig};
use cpdg_core::{FaultHook, FaultPoint, ModelFile};
use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderState, LinkPredictor, PendingStates};
use cpdg_graph::{DynamicGraph, FieldId, GraphError, Interaction, NodeId, Timestamp};
use cpdg_tensor::{Eval, Forward, Matrix, ParamStore, ShapeMismatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Parameter names the pre-training CLI registers; reloads rebuild the same
/// namespaces so [`ParamStore::load_matching`] lines up.
const ENCODER_NAME: &str = "enc";
const HEAD_NAME: &str = "pretext_head";

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Consecutive inference failures that trip the breaker.
    pub breaker_threshold: u32,
    /// While open, every `n`-th query probes the real model.
    pub breaker_probe_every: u32,
    /// Whether the temporal embedding cache answers repeat queries without
    /// a forward pass. Replies are bit-identical either way (the
    /// coalescing oracle pins cache-on against cache-off); only latency
    /// and the `STATUS` cache counters differ.
    pub cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            breaker_threshold: 3,
            breaker_probe_every: 4,
            cache: false,
        }
    }
}

/// One immutable model generation: weights, head, fallback embeddings.
pub struct Epoch {
    /// Monotone model generation, starting at 1; bumped on each reload.
    pub version: u64,
    /// All parameters (encoder + head), weights loaded from the model file.
    pub store: ParamStore,
    /// Link-scoring head over encoder embeddings.
    pub head: LinkPredictor,
    /// Encoder wiring.
    pub cfg: DgnnConfig,
    /// Node universe size.
    pub num_nodes: usize,
    /// `num_nodes × dim` static fallback embeddings (the final EIE memory
    /// checkpoint from pre-training; zeros when the model carries none).
    pub static_states: Matrix,
}

struct EngineInner {
    epoch: Arc<Epoch>,
    encoder: DgnnEncoder,
    graph: DynamicGraph,
    /// Circuit breaker over the inference path.
    breaker: CircuitBreaker,
    /// The write-ahead log, once [`Engine::open_wal`] attaches it. Lives
    /// under the engine lock so the append → mutate sequence is atomic
    /// with respect to other requests.
    wal: Option<Wal>,
    /// What the last [`Engine::open_wal`] recovered (for `STATUS`).
    recovery: Option<WalRecoveryReport>,
    /// Temporal embedding cache: filled only when [`EngineConfig::cache`]
    /// is on, and emptied by every applied `EVENT` (see `cache.rs`).
    cache: EmbedCache,
    /// The encoder's pending messages, applied: built by the first forward
    /// pass after an ingest and consumed by the next [`apply_event`], so
    /// each event's messages are applied exactly once whether or not a
    /// query needed them first. Dropped wherever parameters or encoder
    /// state are replaced (epoch swap, WAL checkpoint restore, flush).
    ///
    /// The cached states stay valid across `push_event` only because the
    /// message function reads neighbours *strictly before* each pending
    /// message's time, and event times never decrease: an event appended
    /// after the cache was built, even at the pending batch's own
    /// timestamp, is invisible to the pending application.
    pending: Option<PendingStates>,
}

/// What [`Engine::open_wal`] reconstructed on startup.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalRecoveryReport {
    /// Events restored wholesale from the drain checkpoint.
    pub checkpoint_applied: u64,
    /// Events replayed one-by-one from WAL records past the checkpoint.
    pub replayed: u64,
    /// What the segment scan found and repaired.
    pub recovery: RecoveryStats,
}

/// One per-engine count, named by its `STATUS` key and declared in
/// `STATUS` order. `Trainer`/`Scrub` are attach flags (0 or 1, rendered
/// `off`/`on`) and `TrainerTrainingEpoch` is a level the trainer sets;
/// every other count is monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Ingested events.
    Events,
    /// Full-fidelity `OK` answers.
    Ok,
    /// Degraded fallback answers.
    Degraded,
    /// Requests shed at admission.
    Shed,
    /// `ERR` replies of any kind (parse, exec, reload).
    Errors,
    /// Successful hot reloads.
    Reloads,
    /// Worker panics caught and recovered by the server's supervisor.
    WorkerPanics,
    /// Coalesced multi-query batches executed (each covers ≥ 2 requests).
    Batches,
    /// 1 while a continual trainer is attached to this engine, else 0.
    Trainer,
    /// CPDG steps applied across all completed cycles (one per trained
    /// batch; the `STATUS` key keeps its `trainer.windows` name).
    TrainerWindows,
    /// Candidate epochs emitted (pre-validation).
    TrainerCandidates,
    /// Validated candidates promoted into serving.
    TrainerPromotions,
    /// Promotions reverted inside the probation window.
    TrainerRollbacks,
    /// Candidates rejected and set aside (gate failure, corruption,
    /// injected fault, divergence, panic).
    TrainerQuarantined,
    /// Total bytes of quarantined candidate files.
    TrainerQuarantinedBytes,
    /// The trainer's candidate generation counter (0 = none emitted yet).
    TrainerTrainingEpoch,
    /// 1 while a background scrubber is attached to this engine, else 0.
    Scrub,
    /// Completed scrub cycles.
    ScrubCycles,
    /// Artifacts examined across all cycles (sealed files verified, WAL
    /// segments re-scanned, quarantined files counted).
    ScrubScanned,
    /// Bytes read and re-verified.
    ScrubBytes,
    /// Corrupt copies detected (primary or replica).
    ScrubCorrupt,
    /// Copies rewritten from a good replica.
    ScrubRepaired,
    /// Artifacts with no sound copy left (quarantined / refused).
    ScrubUnrepairable,
    /// Read errors (I/O, injected `scrub.read` faults), retried next cycle.
    ScrubReadErrors,
}

impl Stat {
    const COUNT: usize = Stat::ScrubReadErrors as usize + 1;

    /// This count's `STATUS` key, e.g. `trainer.windows`.
    pub(crate) fn key(self) -> &'static str {
        STAT_KEYS[self as usize]
    }
}

/// The `STATUS`/`STATS` key of each [`Stat`], indexed by discriminant.
const STAT_KEYS: [&str; Stat::COUNT] = [
    "events",
    "ok",
    "degraded",
    "shed",
    "errors",
    "reloads",
    "worker_panics",
    "batches",
    "trainer",
    "trainer.windows",
    "trainer.candidates",
    "trainer.promotions",
    "trainer.rollbacks",
    "trainer.quarantined",
    "trainer.quarantined_bytes",
    "trainer.training_epoch",
    "scrub",
    "scrub.cycles",
    "scrub.scanned",
    "scrub.bytes",
    "scrub.corrupt",
    "scrub.repaired",
    "scrub.unrepairable",
    "scrub.read_errors",
];

/// The serving engine. Thread-safe; share behind an [`Arc`].
pub struct Engine {
    inner: Mutex<EngineInner>,
    current: RwLock<Arc<Epoch>>,
    hook: FaultHook,
    config: EngineConfig,
    /// The counter table, indexed by [`Stat`]: the engine, the server
    /// front door, the trainer and the scrubber all count here, and
    /// `STATS`/`STATUS` render it.
    counts: [AtomicU64; Stat::COUNT],
    /// Why the most recent candidate was rejected (a single token,
    /// surfaced verbatim as `trainer.last_reject=`).
    last_reject: Mutex<Option<String>>,
}

/// Builds the epoch and encoder `model`'s config describes and loads its
/// parameters; a parameter whose shape disagrees is refused. Parameters
/// the file lacks keep a fixed-seed initialisation, so every build of one
/// file serves the same weights.
fn build_epoch(model: &ModelFile, version: u64) -> Result<(Epoch, DgnnEncoder), ShapeMismatch> {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let encoder = DgnnEncoder::new(
        &mut store,
        &mut rng,
        ENCODER_NAME,
        model.num_nodes,
        model.encoder_config.clone(),
    );
    let head = LinkPredictor::new(&mut store, &mut rng, HEAD_NAME, model.encoder_config.dim);
    let loaded = store.load_matching(&model.params)?;
    if loaded == 0 {
        cpdg_obs::warn!(
            "serve.engine",
            "model file matched no parameters; serving randomly initialised weights";
            version = version,
        );
    }
    let dim = model.encoder_config.dim;
    let static_states = match model.checkpoints.last() {
        Some(snap) if snap.states.rows() == model.num_nodes && snap.states.cols() == dim => {
            snap.states.clone()
        }
        Some(snap) => {
            cpdg_obs::warn!(
                "serve.engine",
                "EIE checkpoint shape does not match model; degraded fallback uses zeros";
                snapshot_rows = snap.states.rows(),
                snapshot_cols = snap.states.cols(),
                num_nodes = model.num_nodes,
                dim = dim,
            );
            Matrix::zeros(model.num_nodes, dim)
        }
        None => Matrix::zeros(model.num_nodes, dim),
    };
    let epoch = Epoch {
        version,
        store,
        head,
        cfg: model.encoder_config.clone(),
        num_nodes: model.num_nodes,
        static_states,
    };
    Ok((epoch, encoder))
}

/// Why an epoch swap is happening — selects the fault point consulted,
/// the cache-clear cause recorded, and the counter charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SwapKind {
    /// Operator-initiated `RELOAD` command.
    Reload,
    /// Continual trainer promoting a validated candidate epoch.
    Promotion,
    /// Continual trainer reverting to the last-good epoch after a
    /// just-promoted candidate tripped the breaker inside probation.
    Rollback,
}

impl SwapKind {
    fn name(self) -> &'static str {
        match self {
            SwapKind::Reload => "reload",
            SwapKind::Promotion => "promotion",
            SwapKind::Rollback => "rollback",
        }
    }
}

/// One data-plane query: `EMB` embeds `nodes = [node]`, `SCORE` scores
/// `nodes = [src, dst]` through the link head.
struct Query {
    nodes: Vec<NodeId>,
    /// Query time; `None` resolves to the latest ingested event's time.
    t: Option<Timestamp>,
    score: bool,
}

impl Query {
    /// The query `cmd` asks, or `None` for a command that is not one.
    fn of(cmd: &Command) -> Option<Self> {
        match *cmd {
            Command::Emb { node, t } => Some(Self {
                nodes: vec![node],
                t,
                score: false,
            }),
            Command::Score { src, dst, t } => Some(Self {
                nodes: vec![src, dst],
                t,
                score: true,
            }),
            _ => None,
        }
    }
}

/// Appends one event to the graph and advances the encoder exactly as
/// training would: apply the previously pending messages (or take the
/// states a query already applied), commit them, queue this event as the
/// new pending batch, and empty the reply cache. Live ingestion and WAL
/// replay share this step, so recovered memory is bit-identical to an
/// uninterrupted run's. Returns the event's index.
fn apply_event(
    inner: &mut EngineInner,
    src: NodeId,
    dst: NodeId,
    t: Timestamp,
    field: FieldId,
) -> Result<usize, GraphError> {
    let idx = inner.graph.push_event(src, dst, t, field)?;
    let event = *inner.graph.event(idx);
    let states = take_pending(inner);
    inner.encoder.commit_states(states, &[event]);
    // Memory and neighbourhoods moved: no cached reply is valid any more.
    inner.cache.invalidate();
    Ok(idx)
}

/// The applied pending messages, taken out of the cache (or applied now
/// when no query built them), for a commit.
fn take_pending(inner: &mut EngineInner) -> PendingStates {
    inner.pending.take().unwrap_or_else(|| {
        inner
            .encoder
            .pending_states(&inner.epoch.store, &inner.graph)
    })
}

impl Engine {
    /// Loads a pre-trained model bundle and builds a serving engine at
    /// version 1 with a fresh (zero) memory and an empty event log.
    /// A model whose parameter shapes disagree with the encoder its config
    /// builds is refused as corrupt, naming `path`.
    pub fn from_model_file(path: &Path, config: EngineConfig, hook: FaultHook) -> CpdgResult<Self> {
        let model = ModelFile::load(path)?;
        Self::build(&model, config, hook).map_err(|e| CpdgError::corrupt(path, e.to_string()))
    }

    /// Builds a serving engine from an already-loaded model bundle.
    ///
    /// # Panics
    /// Panics if a parameter's shape disagrees with the encoder the
    /// model's config builds ([`Engine::from_model_file`] refuses such a
    /// file instead).
    pub fn from_model(model: &ModelFile, config: EngineConfig, hook: FaultHook) -> Self {
        Self::build(model, config, hook).unwrap_or_else(|e| panic!("Engine::from_model: {e}"))
    }

    fn build(
        model: &ModelFile,
        config: EngineConfig,
        hook: FaultHook,
    ) -> Result<Self, ShapeMismatch> {
        let (epoch, encoder) = build_epoch(model, 1)?;
        let epoch = Arc::new(epoch);
        let graph = DynamicGraph::empty(model.num_nodes);
        let breaker = CircuitBreaker::new(config.breaker_threshold, config.breaker_probe_every);
        Ok(Self {
            inner: Mutex::new(EngineInner {
                epoch: Arc::clone(&epoch),
                encoder,
                graph,
                breaker,
                wal: None,
                recovery: None,
                cache: EmbedCache::new(),
                pending: None,
            }),
            current: RwLock::new(epoch),
            hook,
            config,
            counts: Default::default(),
            last_reject: Mutex::new(None),
        })
    }

    /// Adds one to `stat`.
    pub(crate) fn count(&self, stat: Stat) {
        self.add(stat, 1);
    }

    /// Adds `n` to `stat`.
    pub(crate) fn add(&self, stat: Stat, n: u64) {
        self.counts[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets `stat` to `value` (the attach flags and the training
    /// generation).
    pub(crate) fn set(&self, stat: Stat, value: u64) {
        self.counts[stat as usize].store(value, Ordering::Relaxed);
    }

    /// The current value of `stat`.
    pub fn get(&self, stat: Stat) -> u64 {
        self.counts[stat as usize].load(Ordering::Relaxed)
    }

    /// Records one quarantined candidate: the rejected file's size and a
    /// single-token cause (e.g. `gate-failure`, `corrupt`, `fault`).
    pub(crate) fn note_quarantined(&self, bytes: u64, cause: &str) {
        self.count(Stat::TrainerQuarantined);
        self.add(Stat::TrainerQuarantinedBytes, bytes);
        *self.last_reject.lock().expect("last-reject lock") =
            Some(cause.split_whitespace().collect::<Vec<_>>().join("-"));
    }

    /// `key=value` fields for the stats `first..=last` (in declaration
    /// order), space-separated; the attach flags render `on`/`off`.
    fn stat_fields(&self, first: Stat, last: Stat) -> String {
        let fields: Vec<String> = (first as usize..=last as usize)
            .map(|i| {
                let v = self.counts[i].load(Ordering::Relaxed);
                if i == Stat::Trainer as usize || i == Stat::Scrub as usize {
                    format!("{}={}", STAT_KEYS[i], if v == 0 { "off" } else { "on" })
                } else {
                    format!("{}={v}", STAT_KEYS[i])
                }
            })
            .collect();
        fields.join(" ")
    }

    /// The live model version (lock-free with respect to inference).
    pub fn version(&self) -> u64 {
        self.current.read().expect("epoch pointer lock").version
    }

    /// Node universe size of the live model.
    pub fn num_nodes(&self) -> usize {
        self.current.read().expect("epoch pointer lock").num_nodes
    }

    /// Executes one parsed command to a reply; admission control happens
    /// before it. Offline callers (the `--ingest` reference path, tests)
    /// see a queue depth of 0 in `STATUS` replies — server workers go
    /// through [`Engine::execute_query_batch`], which reports the live
    /// queue.
    pub fn execute(&self, cmd: Command) -> Reply {
        self.execute_with_depth(cmd, 0)
    }

    /// [`Engine::execute`] with the caller's admission-queue depth, which
    /// only the `STATUS` reply reports. `EMB`/`SCORE` take the query loop
    /// as a run of one ([`Engine::execute_query_batch`]).
    pub fn execute_with_depth(&self, cmd: Command, queue_depth: usize) -> Reply {
        let reply = match cmd {
            Command::Ping => Reply::Ok {
                version: self.version(),
                body: "pong".to_string(),
            },
            Command::Stats => self.stats_reply(),
            Command::Status => self.status_reply(queue_depth),
            Command::Event { src, dst, t, field } => self.ingest(src, dst, t, field),
            Command::Emb { .. } | Command::Score { .. } => {
                let query = Query::of(&cmd).expect("EMB and SCORE are queries");
                self.answer_queries(&[query])
                    .pop()
                    .expect("one reply per query")
            }
            Command::Reload { path } => self.reload(Path::new(&path)),
        };
        self.account(&reply);
        reply
    }

    /// Per-reply request accounting, shared by every entry point.
    fn account(&self, reply: &Reply) {
        self.count(match reply {
            Reply::Ok { .. } => Stat::Ok,
            Reply::Degraded { .. } => Stat::Degraded,
            Reply::Err { .. } => Stat::Errors,
        });
    }

    fn stats_reply(&self) -> Reply {
        let breaker_open = self.inner.lock().expect("engine lock").breaker.is_open();
        Reply::Ok {
            version: self.version(),
            body: format!(
                "{} breaker={}",
                self.stat_fields(Stat::Events, Stat::Reloads),
                if breaker_open { "open" } else { "closed" },
            ),
        }
    }

    /// The `STATUS` reply: engine health as `key=value` pairs — epoch,
    /// queue depth, breaker state, counters, WAL occupancy, and what the
    /// last recovery reconstructed. `cache_clear_<cause>=` fields attribute
    /// wholesale cache clears to what triggered them (reload, epoch
    /// promotion/rollback, WAL recovery, drain flush), and
    /// a `trainer.*` block reports the continual trainer's counters with
    /// the current training generation next to the serving epoch. Unlike
    /// `STATS`, the body includes live queue/WAL occupancy, so `STATUS`
    /// replies are *not* expected to be identical across runs.
    fn status_reply(&self, queue_depth: usize) -> Reply {
        let inner = self.inner.lock().expect("engine lock");
        let breaker = inner.breaker.state_name();
        let trips = inner.breaker.trips();
        let wal_attached = u64::from(inner.wal.is_some());
        let (wal_segments, wal_bytes, wal_next) = inner.wal.as_ref().map_or((0, 0, 0), |w| {
            (w.segment_count() as u64, w.total_bytes(), w.next_index())
        });
        let rec = inner.recovery.unwrap_or_default();
        let cache = &inner.cache;
        let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
        let (cache_invalidations, cache_entries) = (cache.invalidations(), cache.len());
        let cache_clears: Vec<String> = ClearCause::ALL
            .iter()
            .map(|&c| format!("cache_clear_{}={}", c.token(), cache.clears(c)))
            .collect();
        drop(inner);
        let version = self.version();
        let last_reject = self.last_reject.lock().expect("last-reject lock").clone();
        Reply::Ok {
            version,
            body: format!(
                "epoch={version} queue_depth={queue_depth} breaker={breaker} breaker_trips={trips} \
                 {} cache={} cache_hits={cache_hits} cache_misses={cache_misses} \
                 cache_invalidations={cache_invalidations} cache_entries={cache_entries} {} \
                 wal={wal_attached} wal_segments={wal_segments} wal_bytes={wal_bytes} \
                 wal_next_index={wal_next} recovered_from_checkpoint={} recovered_replayed={} \
                 recovered_truncated_bytes={} {} trainer.last_reject={} {} \
                 trainer.serving_epoch={version} {}",
                self.stat_fields(Stat::Events, Stat::Batches),
                if self.config.cache { "on" } else { "off" },
                cache_clears.join(" "),
                rec.checkpoint_applied,
                rec.replayed,
                rec.recovery.truncated_bytes,
                self.stat_fields(Stat::Trainer, Stat::TrainerQuarantinedBytes),
                last_reject.as_deref().unwrap_or("none"),
                self.stat_fields(Stat::TrainerTrainingEpoch, Stat::TrainerTrainingEpoch),
                self.stat_fields(Stat::Scrub, Stat::ScrubReadErrors),
            ),
        }
    }

    /// Ingests one streamed interaction, advancing the DGNN memory exactly
    /// as training would: flush previously pending messages, then queue
    /// this event as the new pending batch. Ingestion never consults the
    /// breaker, and with a WAL attached it is *append-before-mutate*: the
    /// event is validated, durably logged, and only then applied — a
    /// failed append returns `ERR` with the event in neither memory nor
    /// the log, so crash replay reconstructs exactly the acknowledged
    /// stream and memory stays bit-identical across chaos runs.
    fn ingest(&self, src: NodeId, dst: NodeId, t: Timestamp, field: FieldId) -> Reply {
        let mut inner = self.inner.lock().expect("engine lock");
        let inner = &mut *inner;
        if let Err(e) = inner.graph.validate_event(src, dst, t) {
            return Reply::Err {
                kind: ErrKind::Exec,
                detail: e.to_string(),
            };
        }
        if let Some(w) = inner.wal.as_mut() {
            if let Err(e) = w.append(&wal::encode_event(src, dst, t, field)) {
                return Reply::Err {
                    kind: ErrKind::Exec,
                    detail: e.to_string(),
                };
            }
        }
        let idx =
            apply_event(inner, src, dst, t, field).expect("validate_event mirrors push_event");
        self.count(Stat::Events);
        Reply::Ok {
            version: inner.epoch.version,
            body: format!("event {idx}"),
        }
    }

    /// Attaches (creating if needed) the write-ahead log in `dir` and
    /// recovers state from it: the drain checkpoint (if any) restores
    /// graph + encoder wholesale, then every WAL record past the
    /// checkpoint replays through the exact per-event ingestion step —
    /// `apply_event`, no trailing flush — so recovered state
    /// is bit-identical to an uninterrupted run's, pending messages
    /// included. Call before serving traffic.
    ///
    /// A root written by the sharded layout of earlier versions is refused
    /// with a typed corruption error naming the offending path, before
    /// anything is read into the engine or written to disk
    /// ([`wal::refuse_sharded_root`]).
    pub fn open_wal(&self, dir: &Path, config: WalConfig) -> CpdgResult<WalRecoveryReport> {
        wal::refuse_sharded_root(dir)?;
        let mut inner = self.inner.lock().expect("engine lock");
        let inner = &mut *inner;
        let ckpt_path = dir.join(wal::CHECKPOINT_FILE);
        let mut applied = 0u64;
        let storage = Storage::new(self.hook.clone());
        if let Some(ckpt) = WalCheckpoint::load(&storage, &ckpt_path)? {
            if ckpt.graph.num_nodes() != inner.epoch.num_nodes {
                return Err(CpdgError::corrupt(
                    &ckpt_path,
                    format!(
                        "checkpoint universe of {} nodes does not match model's {}",
                        ckpt.graph.num_nodes(),
                        inner.epoch.num_nodes
                    ),
                ));
            }
            inner
                .encoder
                .restore_state(ckpt.encoder)
                .map_err(|e| CpdgError::corrupt(&ckpt_path, e))?;
            inner.graph = ckpt.graph;
            inner.pending = None;
            applied = ckpt.applied;
        }
        let wal = Wal::open(dir, config, self.hook.clone())?;
        let mut replayed = 0u64;
        wal.replay(applied, |index, payload| {
            let (src, dst, t, field) = wal::decode_event(payload)
                .map_err(|e| CpdgError::corrupt(dir, format!("record {index}: {e}")))?;
            apply_event(inner, src, dst, t, field).map_err(|e| {
                CpdgError::corrupt(dir, format!("WAL record {index} rejected on replay: {e}"))
            })?;
            self.count(Stat::Events);
            replayed += 1;
            Ok(())
        })?;
        let report = WalRecoveryReport {
            checkpoint_applied: applied,
            replayed,
            recovery: wal.recovery_stats(),
        };
        inner.wal = Some(wal);
        inner.cache.clear_all(ClearCause::Recovery);
        inner.recovery = Some(report);
        cpdg_obs::info!(
            "serve.engine",
            "WAL recovery complete";
            dir = dir.display().to_string(),
            checkpoint_applied = report.checkpoint_applied,
            replayed = report.replayed,
            truncated_bytes = report.recovery.truncated_bytes,
        );
        Ok(report)
    }

    /// Drain-time WAL checkpoint: fsync the tail, atomically publish a
    /// CRC-sealed [`WalCheckpoint`] capturing graph + encoder state
    /// (pending messages included — no flush, so a restart resumes
    /// bit-identically), then drop the sealed segments the checkpoint
    /// covers. Returns the bytes freed, or `None` when no WAL is
    /// attached.
    pub fn checkpoint_wal(&self, storage: &Storage) -> CpdgResult<Option<u64>> {
        let mut inner = self.inner.lock().expect("engine lock");
        let inner = &mut *inner;
        let Some(w) = inner.wal.as_mut() else {
            return Ok(None);
        };
        w.sync()?;
        let ckpt = WalCheckpoint {
            applied: w.next_index(),
            graph: inner.graph.clone(),
            encoder: inner.encoder.export_state(),
        };
        let path = w.dir().join(wal::CHECKPOINT_FILE);
        ckpt.save(storage, &path)?;
        let freed = w.truncate_through(ckpt.applied)?;
        Ok(Some(freed))
    }

    /// Feeds one supervised-worker panic into engine health: counted
    /// under [`Stat::WorkerPanics`] and recorded as a breaker failure (a
    /// crashing worker is model-health evidence, same as a panicking
    /// forward pass).
    pub fn note_worker_panic(&self) {
        self.count(Stat::WorkerPanics);
        self.inner
            .lock()
            .expect("engine lock")
            .breaker
            .record_failure();
    }

    /// The static-embedding fallback reply served while the breaker is
    /// open or after a model-health failure.
    fn degraded_reply(epoch: &Epoch, nodes: &[NodeId], score_pair: bool) -> Reply {
        let body = if score_pair {
            let a = epoch.static_states.row(nodes[0] as usize);
            let b = epoch.static_states.row(nodes[1] as usize);
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            render_floats(&[dot])
        } else {
            render_floats(epoch.static_states.row(nodes[0] as usize))
        };
        Reply::Degraded {
            version: epoch.version,
            body,
        }
    }

    /// Executes a run of data-plane queries (`EMB`/`SCORE`), returning one
    /// reply per command in order.
    ///
    /// Contract — the coalescing oracle: replies, breaker transitions and
    /// `serve.infer` fault-point hits are exactly those of calling
    /// [`Engine::execute_with_depth`] on each command in turn, because a
    /// single query takes the same FIFO loop as a run of them; a run only
    /// shares the forward work (see [`Engine::answer_queries`]).
    ///
    /// A slice containing any non-query command executes each command on
    /// its own instead; a `STATUS` there reports the sum of `queue_depths`
    /// as its queue depth.
    pub fn execute_query_batch(&self, cmds: &[Command], queue_depths: &[usize]) -> Vec<Reply> {
        let Some(queries) = cmds.iter().map(Query::of).collect::<Option<Vec<_>>>() else {
            let queue_depth = queue_depths.iter().sum();
            return cmds
                .iter()
                .map(|c| self.execute_with_depth(c.clone(), queue_depth))
                .collect();
        };
        if queries.len() >= 2 {
            self.count(Stat::Batches);
        }
        let replies = self.answer_queries(&queries);
        for reply in &replies {
            self.account(reply);
        }
        replies
    }

    /// The one query path: answers `queries` in FIFO order under a single
    /// hold of the engine lock. Each query pays, in order: range check →
    /// breaker admission → cache lookup → `serve.infer` fault check →
    /// forward → finiteness verdict → cache insert → reply, exactly as it
    /// would alone.
    ///
    /// Queries never mutate DGNN state, so the pending-message application
    /// is shared: the first forward pass after an ingest applies the
    /// pending messages once and keeps the values (`EngineInner::pending`),
    /// and every later forward — in this run or the next, until an event
    /// consumes them — embeds against them. A panic inside a forward pass
    /// is charged to the breaker for that query alone.
    fn answer_queries(&self, queries: &[Query]) -> Vec<Reply> {
        let mut guard = self.inner.lock().expect("engine lock");
        let inner = &mut *guard;
        let epoch = Arc::clone(&inner.epoch);
        queries
            .iter()
            .map(|q| self.answer(inner, &epoch, q))
            .collect()
    }

    /// One member of [`Engine::answer_queries`].
    fn answer(&self, inner: &mut EngineInner, epoch: &Epoch, q: &Query) -> Reply {
        if let Some(n) = q.nodes.iter().find(|&&n| n as usize >= epoch.num_nodes) {
            return Reply::Err {
                kind: ErrKind::Exec,
                detail: format!("node {n} out of range for universe of {}", epoch.num_nodes),
            };
        }
        let t = q.t.unwrap_or_else(|| inner.graph.t_max().unwrap_or(0.0));
        if inner.breaker.admit() == Admittance::Shorted {
            return Self::degraded_reply(epoch, &q.nodes, q.score);
        }
        // Cache consultation sits exactly where the forward pass would
        // start. A hit still pays the `serve.infer` fault check and breaker
        // bookkeeping — the chaos/breaker arithmetic must not depend on the
        // cache flag, or the bit-identity oracle against cache-off runs
        // would break.
        let key = self
            .config
            .cache
            .then(|| CacheKey::new(&q.nodes, t, q.score));
        let cached = key.as_ref().and_then(|k| inner.cache.lookup(k));
        let outcome = match (self.hook.check(FaultPoint::ServeInfer), cached) {
            (Err(fault), _) => Err(fault.to_string()),
            (Ok(()), Some(values)) => Ok(values),
            (Ok(()), None) => {
                let forward = catch_unwind(AssertUnwindSafe(|| Self::infer(inner, epoch, q, t)));
                match forward {
                    Ok(values) if values.iter().all(|v| v.is_finite()) => {
                        if let Some(key) = key {
                            inner.cache.insert(key, values.clone());
                        }
                        Ok(values)
                    }
                    Ok(_) => Err("non-finite inference output".to_string()),
                    Err(_) => Err("panic during inference".to_string()),
                }
            }
        };
        match outcome {
            Ok(values) => {
                inner.breaker.record_success();
                Reply::Ok {
                    version: epoch.version,
                    body: render_floats(&values),
                }
            }
            Err(detail) => {
                cpdg_obs::warn!(
                    "serve.engine",
                    "inference failed; serving degraded fallback";
                    detail = detail.as_str(),
                    version = epoch.version,
                );
                inner.breaker.record_failure();
                Self::degraded_reply(epoch, &q.nodes, q.score)
            }
        }
    }

    /// Embeds `q` at `t` forward-only — applying the pending messages first
    /// if no forward since the last ingest has — and returns the reply
    /// values: the embedding row for `EMB`, the head's logit for `SCORE`.
    fn infer(inner: &mut EngineInner, epoch: &Epoch, q: &Query, t: Timestamp) -> Vec<f32> {
        let EngineInner {
            encoder,
            graph,
            pending,
            ..
        } = inner;
        let pending = pending.get_or_insert_with(|| encoder.pending_states(&epoch.store, graph));
        let times = vec![t; q.nodes.len()];
        let z = encoder.infer_rows(&epoch.store, pending, graph, &q.nodes, &times);
        // A non-finite embedding must not reach the head, whose ReLU maps
        // NaN to 0: its rows go to the finiteness verdict instead.
        if !q.score || !z.all_finite() {
            return z.into_data();
        }
        // Row 0 = src, row 1 = dst.
        let mut ev = Eval::new();
        let logit = epoch.head.score_pair(&mut ev, &epoch.store, z);
        ev.take(logit).into_data()
    }

    /// Hot-reloads the model from `path`. On any failure — injected
    /// `serve.reload` fault, unreadable/corrupt file, incompatible shape,
    /// state transplant refusal — the old epoch stays live and the reply is
    /// a typed `ERR reload`. On success the version increments and the live
    /// DGNN memory carries over unchanged.
    fn reload(&self, path: &Path) -> Reply {
        match self.swap_epoch(path, SwapKind::Reload) {
            Ok(version) => Reply::Ok {
                version,
                body: "reloaded".to_string(),
            },
            Err(e) => Reply::Err {
                kind: ErrKind::Reload,
                detail: e.to_string(),
            },
        }
    }

    /// Installs the model at `path` as the serving epoch. The shared core
    /// of operator `RELOAD` and trainer promotion/rollback: read the new
    /// bundle off-lock, refuse incompatible shapes, transplant the live
    /// DGNN memory, swap the epoch pointer, and clear the embedding cache
    /// with the cause matching `kind`. Any failure — injected fault at the
    /// kind's fault point, unreadable/corrupt file, shape mismatch,
    /// transplant refusal — leaves the old epoch serving untouched.
    fn swap_epoch(&self, path: &Path, kind: SwapKind) -> CpdgResult<u64> {
        let point = match kind {
            SwapKind::Reload => FaultPoint::ServeReload,
            SwapKind::Promotion | SwapKind::Rollback => FaultPoint::TrainerPromote,
        };
        self.hook.check(point)?;
        let model = ModelFile::load(path)?;
        let mut inner = self.inner.lock().expect("engine lock");
        let old = Arc::clone(&inner.epoch);
        if model.num_nodes != old.num_nodes || model.encoder_config.dim != old.cfg.dim {
            return Err(CpdgError::Invalid(format!(
                "incompatible model: {} nodes dim {} (serving {} nodes dim {})",
                model.num_nodes, model.encoder_config.dim, old.num_nodes, old.cfg.dim
            )));
        }
        let (epoch, mut encoder) = build_epoch(&model, old.version + 1)
            .map_err(|e| CpdgError::corrupt(path, e.to_string()))?;
        if let Err(e) = encoder.restore_state(inner.encoder.export_state()) {
            return Err(CpdgError::Invalid(format!(
                "memory transplant refused: {e}"
            )));
        }
        let epoch = Arc::new(epoch);
        inner.epoch = Arc::clone(&epoch);
        inner.encoder = encoder;
        inner.pending = None;
        // New parameters: every cached value was computed under the old
        // epoch and is wholesale stale.
        inner.cache.clear_all(match kind {
            SwapKind::Reload => ClearCause::Reload,
            SwapKind::Promotion | SwapKind::Rollback => ClearCause::Promotion,
        });
        *self.current.write().expect("epoch pointer lock") = Arc::clone(&epoch);
        self.count(match kind {
            SwapKind::Reload => Stat::Reloads,
            SwapKind::Promotion => Stat::TrainerPromotions,
            SwapKind::Rollback => Stat::TrainerRollbacks,
        });
        cpdg_obs::info!(
            "serve.engine",
            "epoch swap complete";
            kind = kind.name(),
            version = epoch.version,
            path = path.display().to_string(),
        );
        Ok(epoch.version)
    }

    /// Promotes a validated candidate epoch from the continual trainer
    /// into serving. Same swap as a hot reload — live DGNN memory carries
    /// over, the version increments, the embedding cache is cleared with
    /// the `promotion` cause — but gated on the `trainer.promote` fault
    /// point and counted under `trainer.promotions`. Returns the new
    /// serving version; on error the previous epoch is untouched.
    pub fn promote_epoch(&self, path: &Path) -> CpdgResult<u64> {
        self.swap_epoch(path, SwapKind::Promotion)
    }

    /// Reverts to a previously-good epoch after a just-promoted candidate
    /// misbehaved inside its probation window. Mechanically identical to
    /// [`Engine::promote_epoch`] (the version still moves *forward* — the
    /// epoch counter is a generation number, not an identity), but counted
    /// under `trainer.rollbacks` so `STATUS` tells the two apart.
    pub fn rollback_epoch(&self, path: &Path) -> CpdgResult<u64> {
        self.swap_epoch(path, SwapKind::Rollback)
    }

    /// Flushes pending encoder messages into memory (the same final flush
    /// [`DgnnEncoder::replay`] performs) — part of graceful drain.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("engine lock");
        let inner = &mut *inner;
        let states = take_pending(inner);
        inner.encoder.commit_states(states, &[]);
        // Committing pending messages rewrites memory rows and update
        // times; drain is cold-path, so clear wholesale rather than model
        // it.
        inner.cache.clear_all(ClearCause::Flush);
    }

    /// Snapshot of the full mutable encoder state (memory, cells, pending).
    pub fn export_state(&self) -> EncoderState {
        self.inner
            .lock()
            .expect("engine lock")
            .encoder
            .export_state()
    }

    /// Whether the circuit breaker is currently open (diagnostics).
    pub fn breaker_open(&self) -> bool {
        self.inner.lock().expect("engine lock").breaker.is_open()
    }

    /// Embedding-cache `(hits, misses, invalidations)` — the counters the
    /// `STATUS` reply reports; exposed for tests and the load harness.
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("engine lock");
        (
            inner.cache.hits(),
            inner.cache.misses(),
            inner.cache.invalidations(),
        )
    }

    /// Live embedding-cache entry count.
    pub fn cache_len(&self) -> usize {
        self.inner.lock().expect("engine lock").cache.len()
    }

    /// A clone of the engine's fault hook (shares trigger state), so the
    /// server front door consults the same plan at `serve.accept`.
    pub fn fault_hook(&self) -> FaultHook {
        self.hook.clone()
    }

    /// A point-in-time clone of the acknowledged event stream, for the
    /// continual trainer. Cloning under the engine lock captures exactly
    /// the prefix whose `EVENT` replies have been sent — equivalent to
    /// replaying the durable WAL, without racing the appender over
    /// in-flight tail writes.
    pub fn snapshot_graph(&self) -> DynamicGraph {
        self.inner.lock().expect("engine lock").graph.clone()
    }

    /// The acknowledged events with chronological index `>= from` — the
    /// incremental companion to [`Engine::snapshot_graph`]. The continual
    /// trainer keeps its own stream copy and pulls only the new tail each
    /// cadence tick, so serving requests never stall behind an
    /// O(stream-length) clone: the lock is held for O(new events).
    pub fn events_since(&self, from: usize) -> Vec<Interaction> {
        let inner = self.inner.lock().expect("engine lock");
        let events = inner.graph.events();
        events[from.min(events.len())..].to_vec()
    }

    /// Cumulative circuit-breaker trips — the probation signal the
    /// trainer supervisor watches after a promotion.
    pub fn breaker_trips(&self) -> u64 {
        self.inner.lock().expect("engine lock").breaker.trips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_line;
    use cpdg_core::{FaultKind, FaultPlan, Trigger, FS_STORAGE};
    use cpdg_dgnn::EncoderKind;
    use cpdg_tensor::loss::link_prediction_loss;
    use cpdg_tensor::Var;
    use std::path::PathBuf;

    fn tiny_model() -> ModelFile {
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        ModelFile::new(cfg, 6, ParamStore::new(), Vec::new())
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_recovery_is_bit_identical_in_process() {
        let dir = test_dir("recover");
        let model = tiny_model();

        let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let report = engine.open_wal(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.replayed, 0);
        for (src, dst, t) in [(0u32, 1u32, 1.0f64), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)] {
            let r = engine.execute(Command::Event {
                src,
                dst,
                t,
                field: 0,
            });
            assert!(matches!(r, Reply::Ok { .. }), "{r:?}");
        }
        let reference = engine.execute(Command::Emb {
            node: 2,
            t: Some(4.0),
        });
        // Simulated kill -9: drop the engine without drain or checkpoint.
        drop(engine);

        let recovered = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let report = recovered.open_wal(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(report.checkpoint_applied, 0);
        assert_eq!(
            recovered.execute(Command::Emb {
                node: 2,
                t: Some(4.0)
            }),
            reference,
            "recovered reply must be bit-identical"
        );
        // Events survive as state *and* as the next log index.
        assert_eq!(recovered.get(Stat::Events), 4);

        // Checkpoint, then reopen: nothing left to replay.
        let freed = recovered.checkpoint_wal(&FS_STORAGE).unwrap();
        assert!(freed.is_some());
        drop(recovered);
        let warm = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let report = warm.open_wal(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.checkpoint_applied, 4);
        assert_eq!(report.replayed, 0);
        assert_eq!(
            warm.execute(Command::Emb {
                node: 2,
                t: Some(4.0)
            }),
            reference
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_wal_roots_are_refused_before_recovery() {
        let model = tiny_model();
        let fresh = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let query = Command::Emb {
            node: 1,
            t: Some(2.0),
        };
        let reference = fresh.execute(query.clone());

        // A shard stream holding one event, and no root checkpoint.
        let stream_root = test_dir("sharded-stream");
        let stream = stream_root.join("wal.shard0");
        let mut log = Wal::open(&stream, WalConfig::default(), FaultHook::none()).unwrap();
        let mut record = 0u64.to_le_bytes().to_vec();
        record.extend_from_slice(&wal::encode_event(0, 1, 1.0, 0));
        log.append(&record).unwrap();
        drop(log);

        // A root checkpoint of a four-shard engine holding one event, as
        // the JSON-era layout wrote it.
        let ckpt_root = test_dir("sharded-ckpt");
        let ckpt_path = ckpt_root.join(wal::CHECKPOINT_FILE);
        let json = br#"{"applied":1,"graph":{"num_nodes":16,"events":[]},"shards":4,"shard_applied":[1,0,0,0]}"#;
        let sealed = cpdg_core::integrity::seal(json);
        cpdg_core::scrub::write_replicated(&FS_STORAGE, &ckpt_path, &sealed).unwrap();

        let listing = |dir: &Path| -> Vec<PathBuf> {
            let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            names.sort();
            names
        };
        for (root, named) in [(&stream_root, &stream), (&ckpt_root, &ckpt_path)] {
            let before = listing(root);
            let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
            let err = engine.open_wal(root, WalConfig::default()).unwrap_err();
            assert!(
                matches!(&err, CpdgError::Corrupt { path, .. } if path == named),
                "{err}"
            );
            assert_eq!(listing(root), before, "refusal must not create files");
            assert_eq!(engine.get(Stat::Events), 0);
            let status = engine.execute(Command::Status).render();
            assert!(status.contains(" wal=0 "), "{status}");
            assert_eq!(engine.execute(query.clone()), reference, "state untouched");
        }
        let _ = std::fs::remove_dir_all(&stream_root);
        let _ = std::fs::remove_dir_all(&ckpt_root);
    }

    fn cached_config() -> EngineConfig {
        EngineConfig {
            cache: true,
            ..EngineConfig::default()
        }
    }

    fn ingest_events(engine: &Engine, events: &[(u32, u32, f64)]) {
        for &(src, dst, t) in events {
            let r = engine.execute(Command::Event {
                src,
                dst,
                t,
                field: 0,
            });
            assert!(matches!(r, Reply::Ok { .. }), "{r:?}");
        }
    }

    /// Under JODIE's time projection a reply at `(node, t)` reads the
    /// node's last update time, which moves when an *unrelated* event
    /// commits the node's pending message: a reply cached before that
    /// event must not survive it.
    #[test]
    fn an_unrelated_event_committing_a_pending_message_invalidates_its_endpoints() {
        let model = model_with(DgnnConfig::preset(EncoderKind::Jodie, 8, 1.0), 7);
        let cached = Engine::from_model(&model, cached_config(), FaultHook::none());
        let plain = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let emb = Command::Emb {
            node: 0,
            t: Some(5.0),
        };
        for engine in [&cached, &plain] {
            ingest_events(engine, &[(0, 1, 1.0)]);
        }
        assert_eq!(cached.execute(emb.clone()), plain.execute(emb.clone()));
        for engine in [&cached, &plain] {
            ingest_events(engine, &[(2, 3, 2.0)]);
        }
        assert_eq!(
            cached.execute(emb.clone()),
            plain.execute(emb),
            "stale cached reply"
        );
    }

    #[test]
    fn cache_replays_bit_identically_and_events_invalidate_dependents() {
        let dir = test_dir("cache-events");
        let model = tiny_model();
        // The sixth WAL append (the first (4, 5, 6.0) below) fails.
        let plan = FaultPlan::new(0).with(
            FaultPoint::WalAppend,
            FaultKind::Permanent,
            Trigger::Nth { n: 6 },
        );
        let cached = Engine::from_model(&model, cached_config(), FaultHook::install(&plan));
        cached.open_wal(&dir, WalConfig::default()).unwrap();
        let plain = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let events = [(0u32, 1u32, 1.0f64), (1, 2, 2.0), (2, 3, 3.0)];
        ingest_events(&cached, &events);
        ingest_events(&plain, &events);
        let q = Command::Emb {
            node: 1,
            t: Some(3.0),
        };
        let first = cached.execute(q.clone());
        assert_eq!(
            first,
            plain.execute(q.clone()),
            "miss path is uncached path"
        );
        assert_eq!(
            cached.execute(q.clone()),
            first,
            "hit replays bit-identically"
        );
        let (hits, misses, _) = cached.cache_counters();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(cached.cache_len(), 1);

        // An event touching the queried node drops the entry; the next
        // query recomputes and still matches the uncached engine.
        ingest_events(&cached, &[(1, 4, 4.0)]);
        ingest_events(&plain, &[(1, 4, 4.0)]);
        let (_, _, invalidations) = cached.cache_counters();
        assert_eq!(invalidations, 1, "EVENT 1 4 must drop the node-1 entry");
        assert_eq!(cached.cache_len(), 0);
        assert_eq!(
            cached.execute(q.clone()),
            plain.execute(q.clone()),
            "post-invalidation recompute stays bit-identical"
        );

        // Every applied event empties the cache.
        ingest_events(&cached, &[(4, 5, 5.0)]);
        ingest_events(&plain, &[(4, 5, 5.0)]);
        assert_eq!(cached.cache_len(), 0, "an applied EVENT empties the cache");
        assert_eq!(cached.execute(q.clone()), plain.execute(q.clone()));
        assert_eq!(cached.cache_len(), 1);

        // A refused event mutates nothing, so it drops nothing: neither an
        // out-of-range one nor one whose WAL append fails.
        let refused = [(4, 99, 6.0), (4, 5, 6.0)];
        for (src, dst, t) in refused {
            let reply = cached.execute(Command::Event {
                src,
                dst,
                t,
                field: 0,
            });
            assert!(matches!(reply, Reply::Err { .. }), "{reply:?}");
            assert_eq!(cached.cache_len(), 1, "refused EVENT {src} {dst} {t}");
        }
        assert_eq!(cached.execute(q.clone()), plain.execute(q.clone()));
        let (hits, _, _) = cached.cache_counters();
        assert_eq!(hits, 2, "the entry survived both refusals");

        // Applied, the same event empties the cache, although it and the
        // pending message it commits touch only nodes 4 and 5, outside
        // node 1's neighbourhood at t = 3.0.
        ingest_events(&cached, &[(4, 5, 6.0)]);
        assert_eq!(cached.cache_len(), 0, "an applied EVENT empties the cache");
        let status = cached.execute(Command::Status).render();
        for field in [
            "cache=on",
            "cache_hits=2",
            "cache_misses=3",
            "cache_invalidations=3",
            "cache_entries=0",
        ] {
            assert!(status.contains(field), "missing {field} in {status}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query-only flood of distinct explicit times would add one entry
    /// per query without bound; the cache empties itself at its capacity.
    #[test]
    fn a_flood_of_distinct_times_never_holds_more_than_the_capacity() {
        let engine = Engine::from_model(&tiny_model(), cached_config(), FaultHook::none());
        ingest_events(&engine, &[(0, 1, 1.0)]);
        let mut most = 0;
        for i in 0..=crate::cache::CAPACITY {
            let reply = engine.execute(Command::Emb {
                node: 0,
                t: Some(2.0 + i as f64),
            });
            assert!(matches!(reply, Reply::Ok { .. }), "{reply:?}");
            most = most.max(engine.cache_len());
        }
        assert_eq!(most, crate::cache::CAPACITY);
        assert_eq!(engine.cache_len(), 1, "the full cache was emptied");
        let (_, misses, invalidations) = engine.cache_counters();
        assert_eq!(misses, crate::cache::CAPACITY as u64 + 1);
        assert_eq!(invalidations, crate::cache::CAPACITY as u64);
    }

    #[test]
    fn out_of_range_event_is_refused_before_wal_breaker_and_memory() {
        // Regression pin: a malformed EVENT (node id beyond the model's
        // universe) must be a pure no-op — typed ERR exec, nothing
        // appended to the WAL, no breaker feed, no chronology poisoning.
        let dir = test_dir("bad-event");
        let model = tiny_model();
        let hook = FaultHook::install(&FaultPlan::new(0));
        let engine = Engine::from_model(&model, EngineConfig::default(), hook.clone());
        engine.open_wal(&dir, WalConfig::default()).unwrap();
        for cmd in [
            Command::Event {
                src: 99,
                dst: 0,
                t: 1.0,
                field: 0,
            },
            Command::Event {
                src: 0,
                dst: 99,
                t: 1.0,
                field: 0,
            },
            Command::Event {
                src: 0,
                dst: 1,
                t: f64::NAN,
                field: 0,
            },
        ] {
            let reply = engine.execute(cmd);
            assert!(
                matches!(
                    reply,
                    Reply::Err {
                        kind: ErrKind::Exec,
                        ..
                    }
                ),
                "{reply:?}"
            );
        }
        // Refused before the WAL append: the fault point never fired,
        // the breaker saw nothing, no event was counted.
        assert_eq!(hook.hits(FaultPoint::WalAppend), 0);
        assert!(!engine.breaker_open());
        assert_eq!(engine.get(Stat::Events), 0);
        // A valid event still lands at index 0 (nothing half-ingested),
        // and recovery replays exactly one record — the WAL never saw the
        // malformed ones.
        let ok = engine.execute(Command::Event {
            src: 0,
            dst: 1,
            t: 1.0,
            field: 0,
        });
        assert_eq!(ok.render(), "OK v1 event 0");
        drop(engine);
        let recovered = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let report = recovered.open_wal(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.replayed, 1, "only the valid event was logged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 6-node model wired as `cfg`, with every parameter drawn from
    /// `seed` (JODIE's time projection set non-zero so it acts).
    fn model_with(cfg: DgnnConfig, seed: u64) -> ModelFile {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        DgnnEncoder::new(&mut store, &mut rng, ENCODER_NAME, 6, cfg.clone());
        LinkPredictor::new(&mut store, &mut rng, HEAD_NAME, cfg.dim);
        if let Some(w) = store.lookup("enc.jodie_w") {
            *store.value_mut(w) = Matrix::full(1, cfg.dim, 0.5);
        }
        ModelFile::new(cfg, 6, store, Vec::new())
    }

    /// A TGN model with one `NaN` in the first entry of each named bias.
    /// In the encoder's output bias it makes every embedding non-finite;
    /// in the link head's output bias it makes every logit so.
    fn nan_model(biases: &[&str]) -> ModelFile {
        let model = model_with(DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0), 0);
        let mut store = model.params;
        for &name in biases {
            let bias = store.lookup(name).expect("TGN encoder and link head");
            store.value_mut(bias).set(0, 0, f32::NAN);
        }
        ModelFile::new(model.encoder_config, model.num_nodes, store, Vec::new())
    }

    #[test]
    fn batched_queries_match_sequential_replies_and_breaker_arithmetic() {
        // The coalescing oracle at the engine level: a width-6 run with the
        // cache on must produce the same replies, breaker transitions and
        // reply accounting as six width-1 executions with the cache off.
        // Both inputs make every inference attempt fail, so the stream
        // walks through failure accumulation, the trip itself, shorted
        // requests, and failed probes.
        let cmds: Vec<Command> = [
            "EMB 1",
            "SCORE 0 2",
            "EMB 1",
            "EMB 99",
            "SCORE 1 2 2.5",
            "EMB 3",
        ]
        .iter()
        .map(|l| parse_line(l).unwrap())
        .collect();
        let infer_faults = FaultPlan::new(0).with(
            FaultPoint::ServeInfer,
            FaultKind::Permanent,
            Trigger::Every { k: 1 },
        );
        // The encoder-only NaN leaves the head finite: its ReLU would map
        // the NaN embedding to 0, so `SCORE` is degraded only because the
        // embedding rows are checked before the head runs.
        let encoder_nan = nan_model(&["enc.embed_attn.wo.bias"]);
        let both_nan = nan_model(&["enc.embed_attn.wo.bias", "pretext_head.1.bias"]);
        for (name, model, plan) in [
            ("serve.infer faults", tiny_model(), infer_faults),
            ("NaN weight", both_nan, FaultPlan::new(0)),
            ("encoder-only NaN weight", encoder_nan, FaultPlan::new(0)),
        ] {
            let mk = |cache: bool| {
                Engine::from_model(
                    &model,
                    EngineConfig {
                        cache,
                        breaker_threshold: 2,
                        breaker_probe_every: 2,
                    },
                    FaultHook::install(&plan),
                )
            };
            let batched = mk(true);
            let sequential = mk(false);
            let events = [(0u32, 1u32, 1.0f64), (1, 2, 2.0), (3, 4, 3.0)];
            ingest_events(&batched, &events);
            ingest_events(&sequential, &events);
            let batch_replies = batched.execute_query_batch(&cmds, &[]);
            let seq_replies: Vec<Reply> =
                cmds.iter().map(|c| sequential.execute(c.clone())).collect();
            assert_eq!(batch_replies, seq_replies, "{name}: width 6 == width 1");
            // Every in-range query is degraded; `EMB 99` is refused first.
            for (cmd, reply) in cmds.iter().zip(&batch_replies) {
                let out_of_range = *cmd == Command::Emb { node: 99, t: None };
                assert_eq!(
                    matches!(reply, Reply::Degraded { .. }),
                    !out_of_range,
                    "{name}: {cmd:?} -> {reply:?}"
                );
            }
            assert!(batched.breaker_trips() >= 1, "{name}: the breaker tripped");
            assert_eq!(
                batched.breaker_trips(),
                sequential.breaker_trips(),
                "{name}: breaker trips must not depend on batching"
            );
            assert_eq!(
                batched.breaker_open(),
                sequential.breaker_open(),
                "{name}: breaker transitions must not depend on batching"
            );
            assert_eq!(batched.get(Stat::Batches), 1);
            assert_eq!(sequential.get(Stat::Batches), 0);
            // Per-reply accounting matches the sequential engine's too.
            for stat in [Stat::Ok, Stat::Degraded, Stat::Errors] {
                assert_eq!(
                    batched.get(stat),
                    sequential.get(stat),
                    "{name}: {batch_replies:?}"
                );
            }
        }
    }

    /// A fresh autodiff tape. This crate never names the tape's type (a CI
    /// grep keeps it off the serving path), so the training loss's
    /// signature supplies it.
    fn fresh_tape<T: Default>(_loss: fn(&mut T, Var, Var) -> Var) -> T {
        T::default()
    }

    /// The reply the training path gives for `cmd` at `t` — pending
    /// messages applied on an autodiff tape, then `embed_many` and, for
    /// `SCORE`, `LinkPredictor::score` — from `encoder` over `graph`.
    fn tape_reply(
        epoch: &Epoch,
        encoder: &DgnnEncoder,
        graph: &DynamicGraph,
        cmd: &Command,
        t: Timestamp,
    ) -> Reply {
        let query = Query::of(cmd).expect("a query");
        let store = &epoch.store;
        let mut tape = fresh_tape(link_prediction_loss);
        let ctx = encoder.apply_pending(&mut tape, store, graph);
        let times = vec![t; query.nodes.len()];
        let z = encoder.embed_many(&mut tape, store, &ctx, graph, &query.nodes, &times);
        let out = if query.score {
            let z_src = tape.gather_rows(z, &[0]);
            let z_dst = tape.gather_rows(z, &[1]);
            epoch.head.score(&mut tape, store, z_src, z_dst)
        } else {
            z
        };
        Reply::Ok {
            version: epoch.version,
            body: render_floats(tape.value(out).data()),
        }
    }

    #[test]
    fn replies_equal_the_tape_forward_for_every_wiring() {
        let preset = |kind| DgnnConfig::preset(kind, 8, 2.0);
        let mut lstm = preset(EncoderKind::Tgn);
        lstm.mem = cpdg_dgnn::MemKind::Lstm;
        let mut mean = preset(EncoderKind::DyRep);
        mean.agg = cpdg_dgnn::AggKind::Mean;
        let mut mlp = preset(EncoderKind::Jodie);
        mlp.msg = cpdg_dgnn::MsgKind::Mlp;
        let wirings = [
            ("TGN", preset(EncoderKind::Tgn)),
            ("JODIE", preset(EncoderKind::Jodie)),
            ("DyRep", preset(EncoderKind::DyRep)),
            ("LSTM memory", lstm),
            ("mean aggregation", mean),
            ("MLP messages", mlp),
        ];
        // The self-loop gives node 3 two messages in one pending batch; the
        // equal timestamps put an event at its pending batch's time.
        let events = [
            (0u32, 1u32, 1.0f64),
            (1, 2, 2.0),
            (3, 3, 3.0),
            (0, 3, 4.0),
            (2, 3, 4.0),
            (0, 4, 5.5),
        ];
        for (name, cfg) in wirings {
            let model = model_with(cfg, 7);
            let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
            let (epoch, mut reference) = build_epoch(&model, 1).unwrap();
            let mut graph = DynamicGraph::empty(model.num_nodes);
            for &(src, dst, t) in &events {
                ingest_events(&engine, &[(src, dst, t)]);
                let idx = graph.push_event(src, dst, t, 0).unwrap();
                let mut tape = fresh_tape(link_prediction_loss);
                let ctx = reference.apply_pending(&mut tape, &epoch.store, &graph);
                reference.commit(&tape, ctx, &[*graph.event(idx)]);
                let state = engine.export_state();
                assert_eq!(state.memory.states(), reference.memory.states(), "{name}");
                assert_eq!(
                    state.cell_state,
                    reference.export_state().cell_state,
                    "{name}"
                );
                assert_eq!(state.pending, reference.export_state().pending, "{name}");

                // The event's endpoints are pending (dirty); node 5 is clean
                // until the last event.
                let queries = [
                    (format!("EMB {src}"), t),
                    (format!("EMB {dst} {}", t + 0.5), t + 0.5),
                    ("EMB 5".to_string(), t),
                    (format!("SCORE {src} 5"), t),
                    (format!("SCORE {dst} {src} {}", t + 3.0), t + 3.0),
                ];
                for (line, at) in queries {
                    let cmd = parse_line(&line).unwrap();
                    assert_eq!(
                        engine.execute(cmd.clone()),
                        tape_reply(&epoch, &reference, &graph, &cmd, at),
                        "{name}: {cmd:?} after event at t={t}"
                    );
                }
            }
        }
    }

    /// The body of an `OK` reply.
    fn ok_body(reply: Reply) -> String {
        match reply {
            Reply::Ok { body, .. } => body,
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn pending_states_are_rebuilt_after_every_state_or_weight_change() {
        let dir = test_dir("pending-invalidation");
        let cfg = DgnnConfig::preset(EncoderKind::DyRep, 8, 2.0);
        let model = model_with(cfg.clone(), 1);
        let other = model_with(cfg, 2);
        let other_path = dir.join("other.json");
        other.save(&other_path).unwrap();
        let events = [(0u32, 1u32, 1.0f64), (1, 2, 2.0), (2, 3, 3.0), (1, 3, 4.0)];
        let fresh = |model: &ModelFile, events: &[(u32, u32, f64)]| {
            let engine = Engine::from_model(model, EngineConfig::default(), FaultHook::none());
            ingest_events(&engine, events);
            engine
        };
        // Embeds the last event's endpoints and a neighbour of theirs.
        let probe = |engine: &Engine| -> Vec<String> {
            [1, 3, 2]
                .into_iter()
                .map(|node| ok_body(engine.execute(Command::Emb { node, t: None })))
                .collect()
        };

        // New weights: a reload and a promotion each drop the states the
        // old weights applied. The expected engine runs the same swap
        // without a query before it.
        for swap in ["reload", "promotion"] {
            let swap_in_other = |engine: &Engine| {
                if swap == "reload" {
                    let reply = engine.execute(Command::Reload {
                        path: other_path.display().to_string(),
                    });
                    assert!(matches!(reply, Reply::Ok { .. }), "{reply:?}");
                } else {
                    engine.promote_epoch(&other_path).unwrap();
                }
            };
            let engine = fresh(&model, &events);
            probe(&engine);
            swap_in_other(&engine);
            let expected = fresh(&model, &events);
            swap_in_other(&expected);
            assert_eq!(probe(&engine), probe(&expected), "{swap}");
        }

        // A flush commits the pending batch and leaves none.
        let engine = fresh(&model, &events);
        probe(&engine);
        engine.flush();
        let expected = fresh(&model, &events);
        expected.flush();
        assert_eq!(probe(&engine), probe(&expected), "flush");

        // A DyRep event at the pending batch's own timestamp: the states a
        // query applied before it are still the ones the event commits.
        let engine = fresh(&model, &events);
        probe(&engine);
        ingest_events(&engine, &[(3, 0, 4.0)]);
        let expected = fresh(&model, &[events.as_slice(), &[(3, 0, 4.0)]].concat());
        assert_eq!(probe(&engine), probe(&expected), "same-timestamp event");
        assert_eq!(
            engine.export_state().memory.states(),
            expected.export_state().memory.states()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_clears_the_cache_and_stays_bit_identical() {
        let dir = test_dir("cache-reload");
        let model = tiny_model();
        let next_path = dir.join("next.json");
        model.save(&next_path).unwrap();
        let cached = Engine::from_model(&model, cached_config(), FaultHook::none());
        let plain = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        let events = [(0u32, 1u32, 1.0f64), (1, 2, 2.0)];
        ingest_events(&cached, &events);
        ingest_events(&plain, &events);
        let q = Command::Emb {
            node: 1,
            t: Some(2.0),
        };
        assert_eq!(cached.execute(q.clone()), plain.execute(q.clone()));
        assert_eq!(cached.cache_len(), 1);
        let reload = Command::Reload {
            path: next_path.display().to_string(),
        };
        assert_eq!(
            cached.execute(reload.clone()).render(),
            plain.execute(reload).render()
        );
        assert_eq!(
            cached.cache_len(),
            0,
            "new parameters wholesale-invalidate the cache"
        );
        assert_eq!(
            cached.execute(q.clone()),
            plain.execute(q),
            "post-reload replies stay bit-identical (and stamp v2)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promotion_swaps_the_epoch_and_is_counted_apart_from_reloads() {
        let dir = test_dir("promote");
        let model = tiny_model();
        let path = dir.join("candidate.json");
        model.save(&path).unwrap();
        let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        ingest_events(&engine, &[(0, 1, 1.0), (1, 2, 2.0)]);

        assert_eq!(engine.promote_epoch(&path).unwrap(), 2);
        assert_eq!(engine.version(), 2);
        assert_eq!(
            engine.rollback_epoch(&path).unwrap(),
            3,
            "rollback still moves forward"
        );
        assert_eq!(engine.get(Stat::Reloads), 0, "neither swap is a reload");
        assert_eq!(engine.get(Stat::TrainerPromotions), 1);
        assert_eq!(engine.get(Stat::TrainerRollbacks), 1);

        let status = engine.execute(Command::Status).render();
        assert!(status.contains("trainer.promotions=1"), "{status}");
        assert!(status.contains("trainer.rollbacks=1"), "{status}");
        assert!(status.contains("trainer.serving_epoch=3"), "{status}");
        assert!(status.contains("reloads=0"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_fault_leaves_the_serving_epoch_untouched() {
        let dir = test_dir("promote-fault");
        let model = tiny_model();
        let path = dir.join("candidate.json");
        model.save(&path).unwrap();
        let plan = FaultPlan::new(5).with(
            FaultPoint::TrainerPromote,
            FaultKind::Transient,
            Trigger::Nth { n: 0 },
        );
        let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::install(&plan));
        let err = engine.promote_epoch(&path).unwrap_err();
        assert!(err.to_string().contains("trainer.promote"), "{err}");
        assert_eq!(
            engine.version(),
            1,
            "failed promotion keeps the old epoch live"
        );
        assert_eq!(engine.get(Stat::TrainerPromotions), 0);
        assert_eq!(
            engine.promote_epoch(&path).unwrap(),
            2,
            "transient fault clears; the retry promotes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_attributes_cache_clears_to_their_cause() {
        let dir = test_dir("clear-causes");
        let model = tiny_model();
        let path = dir.join("next.json");
        model.save(&path).unwrap();
        let engine = Engine::from_model(&model, cached_config(), FaultHook::none());
        ingest_events(&engine, &[(0, 1, 1.0)]);
        for _ in 0..2 {
            engine.execute(Command::Emb { node: 0, t: None });
        }
        engine.execute(Command::Reload {
            path: path.display().to_string(),
        });
        engine.promote_epoch(&path).unwrap();
        engine.flush();
        // The full STATUS and STATS layouts: every key, in order, with its
        // value (the STATUS reply counts as one more OK in STATS).
        assert_eq!(
            engine.execute(Command::Status).render(),
            "OK v3 epoch=3 queue_depth=0 breaker=closed breaker_trips=0 events=1 ok=4 \
             degraded=0 shed=0 errors=0 reloads=1 worker_panics=0 batches=0 cache=on \
             cache_hits=1 cache_misses=1 cache_invalidations=1 cache_entries=0 \
             cache_clear_reload=1 cache_clear_promotion=1 cache_clear_recovery=0 \
             cache_clear_flush=1 wal=0 wal_segments=0 wal_bytes=0 \
             wal_next_index=0 recovered_from_checkpoint=0 recovered_replayed=0 \
             recovered_truncated_bytes=0 trainer=off trainer.windows=0 trainer.candidates=0 \
             trainer.promotions=1 trainer.rollbacks=0 trainer.quarantined=0 \
             trainer.quarantined_bytes=0 trainer.last_reject=none trainer.training_epoch=0 \
             trainer.serving_epoch=3 scrub=off scrub.cycles=0 scrub.scanned=0 scrub.bytes=0 \
             scrub.corrupt=0 scrub.repaired=0 scrub.unrepairable=0 scrub.read_errors=0"
        );
        assert_eq!(
            engine.execute(Command::Stats).render(),
            "OK v3 events=1 ok=5 degraded=0 shed=0 errors=0 reloads=1 breaker=closed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_graph_returns_the_acknowledged_prefix() {
        let model = tiny_model();
        let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        ingest_events(&engine, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let snap = engine.snapshot_graph();
        assert_eq!(snap.events().len(), 3);
        assert_eq!(snap.events()[2].t, 3.0);
        ingest_events(&engine, &[(3, 4, 4.0)]);
        assert_eq!(
            snap.events().len(),
            3,
            "the snapshot is a point-in-time clone"
        );
    }

    #[test]
    fn events_since_returns_exactly_the_acknowledged_tail() {
        let model = tiny_model();
        let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
        ingest_events(&engine, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let tail = engine.events_since(1);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].src, tail[0].t), (1, 2.0));
        assert_eq!((tail[1].src, tail[1].t), (2, 3.0));
        assert!(engine.events_since(3).is_empty(), "caught up");
        assert!(engine.events_since(99).is_empty(), "past the end is empty");
        // Incrementally synced copies agree with a wholesale snapshot.
        let mut copy = cpdg_graph::DynamicGraph::empty(model.num_nodes);
        for e in engine.events_since(0) {
            copy.push_event(e.src, e.dst, e.t, e.field).unwrap();
        }
        ingest_events(&engine, &[(3, 4, 4.0)]);
        for e in engine.events_since(copy.num_events()) {
            copy.push_event(e.src, e.dst, e.t, e.field).unwrap();
        }
        assert_eq!(copy.events(), engine.snapshot_graph().events());
    }
}
