//! # cpdg-serve
//!
//! A resilient online serving subsystem for pre-trained CPDG models: load
//! a [`ModelFile`](cpdg_core::ModelFile), keep DGNN memory current from a
//! stream of edge events, and answer node-embedding / link-scoring queries
//! over a minimal line protocol — while staying predictable under
//! overload, slow requests, model failures, and live model swaps.
//!
//! The robustness machinery, by module:
//!
//! * [`queue`] — bounded admission with typed [`Overloaded`] shedding
//!   (distinguishing at-capacity from drain/shutdown via
//!   [`ShedReason`](queue::ShedReason)); producers never block, drain
//!   answers everything already admitted.
//! * [`cache`] — the temporal embedding cache: replies keyed by query
//!   signature, valid until the next applied `EVENT` (or reload,
//!   promotion, recovery, flush); cache-on replies are bit-identical to
//!   cache-off replies.
//! * [`breaker`] — a consecutive-failure [`CircuitBreaker`] over
//!   inference; while open, queries are served from the model's static
//!   pre-training embeddings (`DEGRADED` replies) with deterministic
//!   count-based probing to re-close.
//! * [`protocol`] — the total, panic-free line grammar (`EVENT`, `EMB`,
//!   `SCORE`, `RELOAD`, `STATS`, `STATUS`, `PING`) and self-describing
//!   replies (`OK v<version> …` / `DEGRADED v<version> …` /
//!   `ERR <kind> …`).
//! * [`engine`] — model state and execution: crash-consistent streamed
//!   ingestion (each `EVENT` is appended to a CRC-framed
//!   [write-ahead log](cpdg_core::Wal) *before* it mutates memory, and
//!   replayed on startup so a recovered engine is bit-identical to an
//!   uninterrupted one), forward-only passes (the training forward run
//!   on a [`cpdg_tensor::Eval`], entered through
//!   [`DgnnEncoder::infer_rows`](cpdg_dgnn::DgnnEncoder::infer_rows))
//!   that apply pending messages once per event, versioned hot reload
//!   that transplants live memory, and drain-time CRC-sealed
//!   checkpoints that truncate replayed WAL segments.
//! * [`server`] — the threaded TCP front door: per-connection lockstep
//!   (single-connection scripts are worker-count-deterministic), a
//!   *supervised* worker pool draining one admission queue (per-worker
//!   panics are caught, counted, fed to the breaker, and the worker
//!   restarts with bounded deterministic backoff), request coalescing (a worker drains
//!   up to `--batch N` contiguous queued queries into one
//!   [`Engine::execute_query_batch`](engine::Engine::execute_query_batch)
//!   call, the same FIFO query loop a single query takes), graceful drain.
//! * [`trainer`] — crash-safe streaming continual pre-training: a
//!   supervised [`TrainerRuntime`] holds out the newest batch of the
//!   engine's acknowledged stream, runs CPDG's pre-training step
//!   (Eq. 17) once per 200-event batch before it in a *private*
//!   parameter store, emits CRC-sealed
//!   candidate epochs, and promotes them through a validation gate
//!   (finite parameters, bounded held-out loss) into the same versioned
//!   hot-swap path as `RELOAD` — with quarantine for rejected candidates,
//!   a sealed promoted-epoch pointer for crash recovery, and automatic
//!   rollback if a fresh promotion trips the breaker inside its probation
//!   window.
//! * [`scrub`] — the self-healing artifact layer's serving half: a
//!   supervised background thread drives the deterministic
//!   [`Scrubber`](cpdg_core::Scrubber) over the WAL and epoch
//!   directories on a byte-budgeted cadence, re-verifying every sealed
//!   artifact's CRC against its `<name>.r1` replica, rewriting bad copies from good ones, quarantining
//!   unrepairable WAL segments, and adding each cycle's report to the
//!   `scrub.*` block of `STATUS` replies.
//! * [`supervisor`] — the one supervision loop both background threads
//!   (trainer and scrubber) run under: `catch_unwind` per cycle,
//!   deterministic backoff after a panic, and the `trainer=`/`scrub=`
//!   attach flags.
//!
//! Every serving count — requests, trainer and scrubber activity — is
//! kept exactly once, in the engine's counter table ([`Stat`]), which
//! `STATS` and `STATUS` render.
//!
//! Chaos integration: the engine threads a
//! [`FaultHook`](cpdg_core::FaultHook) through the serve-side fault
//! points — `serve.accept` (admission), `serve.infer` (query forward
//! pass), `serve.reload` (hot swap), `serve.worker` (worker panic),
//! `wal.append` / `wal.fsync` / `wal.rotate` (durable ingestion),
//! `wal.replay` (recovery), plus the self-healing layer's `scrub.read`
//! (scrubber artifact reads), `scrub.repair` (replica rewrites), and
//! `integrity.bitflip` (seeded byte corruption injected on sealed-copy
//! reads) — so the workspace `serve_suite`, `wal_suite` and
//! `scrub_suite` can assert that shedding, breaker trips, failed
//! reloads, crashes at any fault point, artifact corruption, and drain
//! leave served results and persisted state bit-identical to a
//! fault-free run.

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod breaker;
pub mod cache;
mod decimal;
pub mod engine;
pub mod protocol;
pub mod queue;
pub mod scrub;
pub mod server;
pub mod supervisor;
pub mod trainer;

pub use breaker::{Admittance, CircuitBreaker};
pub use cache::{CacheKey, ClearCause, EmbedCache};
pub use engine::{Engine, EngineConfig, Epoch, Stat, WalRecoveryReport};
pub use protocol::{parse_line, render_floats, Command, ErrKind, Reply};
pub use queue::{BoundedQueue, Overloaded, ShedReason};
pub use server::{Server, ServerConfig};
pub use supervisor::Supervisor;
pub use trainer::{
    read_promoted, write_promoted, CycleOutcome, PromotedEpoch, TrainerConfig, TrainerRuntime,
};
