//! # cpdg-dgnn
//!
//! The dynamic graph neural network encoder family of the CPDG paper
//! (§III-B): node memory, the exchangeable `f(·)` / `Msg(·)` / `Agg(·)` /
//! `Mem(·)` modules, the JODIE / DyRep / TGN presets of Table III, the
//! TGN-style deferred-message batch protocol, downstream heads, the
//! task-supervised temporal-link-prediction trainer (the paper's dynamic
//! baselines), and ranking metrics.
//!
//! ```no_run
//! use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor, TrainConfig};
//! use cpdg_dgnn::trainer::train_link_prediction;
//! use cpdg_graph::{generate, SyntheticConfig};
//! use cpdg_tensor::{optim::Adam, ParamStore};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let ds = generate(&SyntheticConfig::amazon_like(0).scaled(0.1));
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = DgnnConfig::preset(EncoderKind::Tgn, 32, 1000.0);
//! let mut enc = DgnnEncoder::new(&mut store, &mut rng, "tgn", ds.graph.num_nodes(), cfg);
//! let head = LinkPredictor::new(&mut store, &mut rng, "head", 32);
//! let mut opt = Adam::new(1e-3);
//! let losses = train_link_prediction(
//!     &mut enc, &head, &mut store, &mut opt, &ds.graph, &TrainConfig::default());
//! println!("losses: {losses:?}");
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod config;
pub mod deadline;
pub mod decoder;
pub mod encoder;
pub mod guard;
pub mod memory;
pub mod metrics;
pub mod step;
pub mod trainer;

pub use config::{AggKind, DgnnConfig, EmbedKind, EncoderKind, MemKind, MsgKind};
pub use deadline::{Deadline, DeadlineExceeded};
pub use decoder::{LinkPredictor, NodeClassifier};
pub use encoder::{BatchContext, DgnnEncoder, EncoderState, PendingStates};
pub use guard::{DivergenceReport, GuardConfig, StepVerdict, TrainGuard};
pub use memory::{Memory, MemorySnapshot};
pub use step::{train_step, Update};
pub use trainer::{EvalScores, NegativeSampler, TrainConfig};
