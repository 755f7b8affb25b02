//! Neural-network building blocks. Each forward is written once, generic
//! over the [`Forward`] evaluator: it records on a [`Tape`](crate::Tape)
//! in training and runs forward-only on an [`Eval`](crate::Eval).

use crate::nn::init::xavier_uniform;
use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::{Forward, Matrix};
use rand::Rng;

pub mod attention;
pub mod gru;
pub mod init;
pub mod linear;
pub mod lstm;
pub mod mlp;
pub mod norm;
pub mod rnn;
pub mod time;

pub use attention::NeighborAttention;
pub use gru::GruCell;
pub use linear::Linear;
pub use lstm::LstmCell;
pub use mlp::{Activation, Mlp};
pub use norm::LayerNorm;
pub use rnn::RnnCell;
pub use time::TimeEncoder;

/// Registers one GRU or LSTM gate's `[W, U, b]` as `{name}.w_{g}`,
/// `{name}.u_{g}` and `{name}.b_{g}`, the bias filled with `bias_init`.
fn gate_params(
    store: &mut ParamStore,
    rng: &mut (impl Rng + ?Sized),
    name: &str,
    g: &str,
    in_dim: usize,
    hidden_dim: usize,
    bias_init: f32,
) -> [ParamId; 3] {
    [
        store.register(
            format!("{name}.w_{g}"),
            xavier_uniform(rng, in_dim, hidden_dim),
        ),
        store.register(
            format!("{name}.u_{g}"),
            xavier_uniform(rng, hidden_dim, hidden_dim),
        ),
        store.register(
            format!("{name}.b_{g}"),
            Matrix::full(1, hidden_dim, bias_init),
        ),
    ]
}

/// The recurrent pre-activation `x·W + h·U + b` of the RNN cell and of each
/// GRU and LSTM gate, the sum and the bias written into `x·W`'s buffer.
fn recurrent_pre<'s>(
    ev: &mut impl Forward<'s>,
    store: &'s ParamStore,
    [w, u, b]: [ParamId; 3],
    x: Var,
    h: Var,
) -> Var {
    let w = ev.param(store, w);
    let u = ev.param(store, u);
    let b = ev.param(store, b);
    let xw = ev.matmul(x, w);
    let hu = ev.matmul(h, u);
    let s = ev.add_in_place(xw, hu);
    ev.add_broadcast_row_in_place(s, b)
}
