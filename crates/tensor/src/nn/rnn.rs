//! Vanilla (Elman) RNN cell — the `Mem(·)` memory updater used by JODIE and
//! DyRep (paper Table III).

use crate::nn::init::xavier_uniform;
use crate::nn::recurrent_pre;
use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::{Forward, Matrix};
use rand::Rng;

/// `h' = tanh(x·W + h·U + b)`.
#[derive(Debug, Clone)]
pub struct RnnCell {
    w: ParamId,
    u: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden_dim: usize,
}

impl RnnCell {
    /// Registers a new cell under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        Self {
            w: store.register(format!("{name}.w"), xavier_uniform(rng, in_dim, hidden_dim)),
            u: store.register(
                format!("{name}.u"),
                xavier_uniform(rng, hidden_dim, hidden_dim),
            ),
            b: store.register(format!("{name}.b"), Matrix::zeros(1, hidden_dim)),
            in_dim,
            hidden_dim,
        }
    }

    /// One step: returns the next hidden state (`m × hidden_dim`).
    pub fn forward<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        x: Var,
        h: Var,
    ) -> Var {
        assert_eq!(
            ev.value(x).cols(),
            self.in_dim,
            "RnnCell: input width mismatch"
        );
        assert_eq!(
            ev.value(h).cols(),
            self.hidden_dim,
            "RnnCell: hidden width mismatch"
        );
        let pre = recurrent_pre(ev, store, [self.w, self.u, self.b], x, h);
        ev.tanh_in_place(pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_and_bound() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cell = RnnCell::new(&mut store, &mut rng, "rnn", 4, 3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(2, 4, 100.0));
        let h = tape.constant(Matrix::zeros(2, 3));
        let h2 = cell.forward(&mut tape, &store, x, h);
        assert_eq!(tape.value(h2).shape(), (2, 3));
        assert!(tape.value(h2).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn three_params_receive_gradient() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = RnnCell::new(&mut store, &mut rng, "rnn", 2, 2);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 2));
        let h = tape.constant(Matrix::full(1, 2, 0.3));
        let h2 = cell.forward(&mut tape, &store, x, h);
        let loss = tape.mean_all(h2);
        let grads = tape.backward(loss);
        assert_eq!(tape.param_grads(&grads).len(), 3);
    }

    #[test]
    fn recurrence_composes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cell = RnnCell::new(&mut store, &mut rng, "rnn", 2, 2);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 2));
        let mut h = tape.constant(Matrix::zeros(1, 2));
        for _ in 0..5 {
            h = cell.forward(&mut tape, &store, x, h);
        }
        assert!(tape.value(h).all_finite());
    }
}
