//! Deterministic fault injection for the whole CPDG pipeline.
//!
//! The chaos harness turns "does the pipeline survive flaky I/O?" from a
//! production anecdote into a CI assertion. It has four pieces:
//!
//! * [`FaultPlan`] ([`fault`]) — a seedable description of *where* (named
//!   [`FaultPoint`]s: `storage.write`, `storage.read`, `loader.row`,
//!   `sampler.batch`, `memory.update`, `ckpt.save`, `ckpt.load`, the
//!   serving points `serve.accept`/`serve.infer`/`serve.reload`/
//!   `serve.worker`, and the durability points
//!   `wal.append`/`wal.fsync`/`wal.rotate`/`wal.replay`) and *when* (nth-hit,
//!   every-k, seeded probability) to raise typed transient or permanent
//!   faults. Plans serialise to JSON so a chaos run is reproducible from
//!   a `--chaos-plan` file.
//! * [`FaultHook`] ([`hook`]) — the lightweight handle threaded through
//!   the [`Storage`](crate::storage::Storage) trait (via
//!   [`ChaosStorage`]), the checkpoint manager
//!   ([`crate::checkpoint::CheckpointManager`]), ingestion, and the
//!   trainer loops. With no plan installed, [`FaultHook::check`] is a
//!   single `Option` test — a no-op on every hot path.
//! * [`RetryPolicy`] ([`retry`]) — bounded attempts with deterministic
//!   exponential backoff, applied to all storage and checkpoint I/O.
//!   Counters: `chaos.injected`, `retry.attempts`, `retry.gave_up`.
//! * [`ingest`] — chaos-aware JODIE ingestion: reads through the fault
//!   points, optionally injects malformed rows (which lenient loading
//!   quarantines), and enforces resource guards.
//!
//! **Determinism contract.** Every trigger decision is a pure function of
//! `(plan seed, fault point, hit index)`; no wall clock, no OS entropy.
//! Combined with the per-batch RNG reseeding of `pretrain` (PR 2), a run
//! that survives its faults — by retrying transients, resuming from a
//! checkpoint after a crash, or quarantining injected rows — produces
//! *bit-identical* final parameters and metrics to the fault-free run
//! with the same seed. The `chaos_suite` integration tests enforce this
//! as a recovery-correctness oracle.

pub mod fault;
pub mod hook;
pub mod ingest;
pub mod retry;

pub use fault::{FaultKind, FaultPlan, FaultPoint, FaultSpec, Trigger};
pub use hook::{ChaosStorage, Fault, FaultHook};
pub use ingest::load_jodie_chaos;
pub use retry::RetryPolicy;
