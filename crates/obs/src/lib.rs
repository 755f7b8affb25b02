//! # cpdg-obs
//!
//! Zero-dependency structured observability for the CPDG workspace.
//!
//! Four pieces, all process-wide and thread-safe:
//!
//! * **Structured logging** ([`log`], [`sinks`]) — leveled records with
//!   `key=value` fields dispatched to pluggable [`Sink`]s: human text on
//!   stderr (the default), JSONL to stderr or a file, and a capturable
//!   in-memory sink for tests ([`capture`]). Library crates log through
//!   the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`trace!`] macros
//!   instead of `println!`/`eprintln!` (enforced by clippy's
//!   `disallowed-macros` config at the workspace root).
//! * **Counters and histograms** ([`metrics`]) — named monotonic
//!   [`Counter`]s and log₂-bucketed [`Histogram`]s instrumenting the hot
//!   paths (matmul dispatches/flops, sampler queries, memory updates,
//!   checkpoint saves, guard interventions, EIE degradations; artifact
//!   integrity adds `integrity.crc_failures`, which counts every
//!   refused sealed file). Serving counts are per-engine and live in
//!   `cpdg-serve`'s counter table instead. Snapshots and deltas feed
//!   per-epoch metric records.
//! * **Span timers** ([`span`]) — RAII scope timers recording elapsed
//!   microseconds into a histogram on drop.
//! * **Run directories** ([`run`]) — the audit convention for training
//!   runs: `<dir>/run.json` (config, seed, dataset stats, wall-clock,
//!   counter totals) plus `<dir>/metrics.jsonl` with one
//!   record per pre-train/fine-tune epoch, fed by [`emit_metrics`] events
//!   flowing through the logging layer (targets prefixed `metrics.`).
//!
//! ```
//! let c = cpdg_obs::capture();
//! cpdg_obs::warn!("demo.target", "something odd"; attempts = 3u64);
//! cpdg_obs::counter!("demo.events").inc();
//! assert_eq!(c.records_for("demo.target").len(), 1);
//! ```
//!
//! The crate depends only on `std`, so every other crate in the workspace
//! (including `cpdg-tensor` at the bottom of the dependency graph) can use
//! it without cycles or new external dependencies.

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod json;
pub mod log;
pub mod metrics;
pub mod run;
pub mod sinks;
pub mod span;

pub use json::Json;
pub use log::{add_sink, emit_metrics, init, remove_sink, Level, LogFormat, Record, Sink, SinkId};
pub use metrics::{counter, counter_deltas, counters_snapshot, histogram, Counter, Histogram};
pub use run::RunDir;
pub use sinks::{capture, Capture, JsonStderrSink, MemorySink, TextStderrSink};
pub use span::{span, Span};
