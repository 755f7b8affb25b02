//! # cpdg-tensor
//!
//! A small, fully self-contained deep-learning substrate: dense `f32`
//! matrices, an arena-based reverse-mode autodiff tape and a forward-only
//! evaluator sharing its op code, the neural modules needed by dynamic
//! graph neural networks (linear/MLP/GRU/RNN/attention/time-encoding),
//! losses, and the Adam optimiser.
//!
//! It exists because the CPDG reproduction (ICDE 2024) needs contrastive
//! training of DGNN encoders, and no mature Rust GNN training stack exists;
//! everything here is CPU-only, deterministic under seeds, and verified by
//! finite-difference gradient checks.
//!
//! ## Quick tour
//!
//! ```
//! use cpdg_tensor::{Forward, Matrix, ParamStore, Tape};
//! use cpdg_tensor::nn::{Mlp, Activation};
//! use cpdg_tensor::optim::Adam;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(42);
//! let mlp = Mlp::new(&mut store, &mut rng, "net", &[2, 8, 1], Activation::Relu);
//! let mut opt = Adam::new(1e-2);
//!
//! // One tape for the loop: each step resets it and reuses its buffers.
//! let mut tape = Tape::new();
//! for _ in 0..50 {
//!     tape.reset();
//!     let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//!     let y = mlp.forward(&mut tape, &store, x);
//!     let loss = tape.bce_with_logits(y, Matrix::from_rows(&[&[1.0], &[0.0]]));
//!     let grads = tape.backward(loss);
//!     let pg = tape.param_grads(&grads);
//!     tape.recycle(grads);
//!     opt.step(&mut store, &pg);
//! }
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod forward;
pub mod loss;
pub mod matrix;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod param;
pub mod tape;
pub mod threading;

pub use forward::{Eval, Forward};
pub use matrix::Matrix;
pub use param::{ParamId, ParamStore, ShapeMismatch};
pub use tape::{Gradients, Tape, Var};
