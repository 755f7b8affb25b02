//! # cpdg
//!
//! Umbrella crate for the CPDG reproduction (ICDE 2024: *CPDG: A
//! Contrastive Pre-Training Method for Dynamic Graph Neural Networks*).
//! Re-exports the workspace crates under stable module names:
//!
//! * [`tensor`] — autodiff + neural-network substrate,
//! * [`graph`] — continuous-time dynamic graph store and datasets,
//! * [`dgnn`] — the DGNN encoder family (TGN / JODIE / DyRep),
//! * [`baselines`] — the paper's ten comparison methods,
//! * [`core`] — CPDG itself: samplers, contrastive pre-training, EIE
//!   fine-tuning, and one-call pipelines,
//! * [`serve`] — resilient online serving of pre-trained models (admission
//!   control, circuit breaking, hot reload, graceful drain),
//! * [`obs`] — structured logging, counters/span timers, and run-directory
//!   provenance (`run.json` + `metrics.jsonl`).
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use cpdg_baselines as baselines;
pub use cpdg_core as core;
pub use cpdg_dgnn as dgnn;
pub use cpdg_graph as graph;
pub use cpdg_obs as obs;
pub use cpdg_serve as serve;
pub use cpdg_tensor as tensor;
