//! # cpdg-dgnn
//!
//! The dynamic graph neural network encoder family of the CPDG paper
//! (§III-B): node memory, the exchangeable `f(·)` / `Msg(·)` / `Agg(·)` /
//! `Mem(·)` modules, the JODIE / DyRep / TGN presets of Table III, the
//! TGN-style deferred-message batch protocol, downstream heads, the one
//! training step (`train_step`) and ranking metrics. The training loops
//! that run this encoder (CPDG pre-training, fine-tuning, continual
//! training) live in `cpdg-core`.
//!
//! ```no_run
//! use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
//! use cpdg_graph::{generate, SyntheticConfig};
//! use cpdg_tensor::{Eval, Forward, ParamStore};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let ds = generate(&SyntheticConfig::amazon_like(0).scaled(0.1));
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = DgnnConfig::preset(EncoderKind::Tgn, 32, 1000.0);
//! let mut enc = DgnnEncoder::new(&mut store, &mut rng, "tgn", ds.graph.num_nodes(), cfg);
//! let head = LinkPredictor::new(&mut store, &mut rng, "head", 32);
//! // Warm memory over the stream, then score its last edge forward-only.
//! enc.replay(&store, &ds.graph, 200);
//! let last = *ds.graph.events().last().unwrap();
//! let mut ev = Eval::new();
//! let ctx = enc.apply_pending(&mut ev, &store, &ds.graph);
//! let z_src = enc.embed_many(&mut ev, &store, &ctx, &ds.graph, &[last.src], &[last.t]);
//! let z_dst = enc.embed_many(&mut ev, &store, &ctx, &ds.graph, &[last.dst], &[last.t]);
//! let logit = head.score(&mut ev, &store, z_src, z_dst);
//! println!("logit: {}", ev.value(logit).get(0, 0));
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod config;
pub mod decoder;
pub mod encoder;
pub mod guard;
pub mod memory;
pub mod metrics;
pub mod step;

pub use config::{AggKind, DgnnConfig, EmbedKind, EncoderKind, MemKind, MsgKind};
pub use decoder::{LinkPredictor, NegativeSampler, NodeClassifier};
pub use encoder::{BatchContext, DgnnEncoder, EncoderState, PendingStates};
pub use guard::{DivergenceReport, GuardConfig, StepVerdict, TrainGuard};
pub use memory::{Memory, MemorySnapshot};
pub use step::{train_step, Update};
