//! Layer normalisation: `y = γ ∘ (x − μ_row)/σ_row + β` with learnable
//! per-channel gain and bias.

use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::{Forward, Matrix};

/// A layer-norm module over `dim`-wide rows.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Registers a new module under `name` (γ = 1, β = 0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        Self {
            gamma: store.register(format!("{name}.gamma"), Matrix::ones(1, dim)),
            beta: store.register(format!("{name}.beta"), Matrix::zeros(1, dim)),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalises each row of `x` (`m × dim`).
    pub fn forward<'s>(&self, ev: &mut impl Forward<'s>, store: &'s ParamStore, x: Var) -> Var {
        assert_eq!(ev.value(x).cols(), self.dim, "LayerNorm: width mismatch");
        let normed = ev.normalize_rows(x, self.eps);
        let g = ev.param(store, self.gamma);
        let b = ev.param(store, self.beta);
        let scaled = ev.mul_broadcast_row(normed, g);
        ev.add_broadcast_row_in_place(scaled, b)
    }

    /// Channel width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn fresh_layernorm_standardises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[10.0, 10.0, 30.0, 30.0],
        ]));
        let y = ln.forward(&mut tape, &store, x);
        let v = tape.value(y);
        for r in 0..2 {
            let mean: f32 = v.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = v
                .row(r)
                .iter()
                .map(|&x| (x - mean) * (x - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gamma_beta_are_trainable() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[0.5, -0.5, 2.0]]));
        let y = ln.forward(&mut tape, &store, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        assert_eq!(tape.param_grads(&grads).len(), 2);
    }

    #[test]
    fn scale_invariance_of_input() {
        // LayerNorm output is invariant to a per-row affine rescale of x.
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 3);
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[10.0, 20.0, 30.0]]));
        let ya = ln.forward(&mut tape, &store, a);
        let yb = ln.forward(&mut tape, &store, b);
        assert!(tape.value(ya).max_abs_diff(tape.value(yb)) < 1e-4);
    }
}
