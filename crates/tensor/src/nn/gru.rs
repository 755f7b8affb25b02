//! Gated recurrent unit cell — the `Mem(·)` memory updater used by TGN
//! (paper Table III) and by the EIE-GRU fine-tuning fusion (Eq. 18).

use crate::nn::{gate_params, recurrent_pre};
use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::Forward;
use rand::Rng;

/// One GRU cell. Given input `x (m×in)` and hidden state `h (m×d)`:
///
/// ```text
/// z  = σ(x·Wz + h·Uz + bz)          update gate
/// r  = σ(x·Wr + h·Ur + br)          reset gate
/// n  = tanh(x·Wn + (r∘h)·Un + bn)   candidate
/// h' = (1−z)∘n + z∘h
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    /// `[W, U, b]` of the update, reset and candidate gates.
    gates: [[ParamId; 3]; 3],
    in_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a new cell under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let z = gate_params(store, rng, name, "z", in_dim, hidden_dim, 0.0);
        let r = gate_params(store, rng, name, "r", in_dim, hidden_dim, 0.0);
        let n = gate_params(store, rng, name, "n", in_dim, hidden_dim, 0.0);
        Self {
            gates: [z, r, n],
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
            "GruCell: input width mismatch"
        );
        assert_eq!(
            ev.value(h).cols(),
            self.hidden_dim,
            "GruCell: hidden width mismatch"
        );
        assert_eq!(
            ev.value(x).rows(),
            ev.value(h).rows(),
            "GruCell: batch mismatch"
        );

        let z_pre = recurrent_pre(ev, store, self.gates[0], x, h);
        let z = ev.sigmoid_in_place(z_pre);
        let r_pre = recurrent_pre(ev, store, self.gates[1], x, h);
        let r = ev.sigmoid_in_place(r_pre);
        let rh = ev.mul_in_place(r, h);
        let n_pre = recurrent_pre(ev, store, self.gates[2], x, rh);
        let n = ev.tanh_in_place(n_pre);

        // h' = (1−z)∘n + z∘h = n − z∘n + z∘h, each gate consumed by its
        // last reader.
        let zn = ev.mul(z, n);
        let zh = ev.mul_in_place(z, h);
        let n_minus_zn = ev.sub_in_place(n, zn);
        ev.add_in_place(n_minus_zn, zh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell(seed: u64, in_dim: usize, d: usize) -> (ParamStore, GruCell) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = GruCell::new(&mut store, &mut rng, "gru", in_dim, d);
        (store, cell)
    }

    #[test]
    fn output_shape() {
        let (store, cell) = cell(0, 4, 6);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(3, 4));
        let h = tape.constant(Matrix::zeros(3, 6));
        let h2 = cell.forward(&mut tape, &store, x, h);
        assert_eq!(tape.value(h2).shape(), (3, 6));
        assert!(tape.value(h2).all_finite());
    }

    #[test]
    fn output_bounded_by_tanh_gate_mix() {
        // From zero hidden state, |h'| ≤ 1: h' is a convex mix of tanh(..) and 0.
        let (store, cell) = cell(1, 3, 5);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(2, 3, 10.0));
        let h = tape.constant(Matrix::zeros(2, 5));
        let h2 = cell.forward(&mut tape, &store, x, h);
        assert!(tape.value(h2).data().iter().all(|&v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn state_changes_with_input() {
        let (store, cell) = cell(2, 2, 4);
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::zeros(1, 4));
        let x1 = tape.constant(Matrix::row_vec(vec![1.0, 0.0]));
        let x2 = tape.constant(Matrix::row_vec(vec![0.0, 1.0]));
        let h1 = cell.forward(&mut tape, &store, x1, h);
        let h2 = cell.forward(&mut tape, &store, x2, h);
        assert!(tape.value(h1).max_abs_diff(tape.value(h2)) > 1e-4);
    }

    #[test]
    fn all_nine_weight_tensors_get_gradient() {
        let (store, cell) = cell(3, 2, 3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 2));
        let h = tape.constant(Matrix::full(2, 3, 0.5));
        let h2 = cell.forward(&mut tape, &store, x, h);
        let loss = tape.mean_all(h2);
        let grads = tape.backward(loss);
        // 3 gates × (W, U, b) = 9 parameters.
        assert_eq!(tape.param_grads(&grads).len(), 9);
    }

    #[test]
    fn deterministic_under_seed() {
        let (s1, c1) = cell(9, 3, 3);
        let (s2, c2) = cell(9, 3, 3);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let x1 = t1.constant(Matrix::ones(1, 3));
        let h1 = t1.constant(Matrix::zeros(1, 3));
        let x2 = t2.constant(Matrix::ones(1, 3));
        let h2 = t2.constant(Matrix::zeros(1, 3));
        let o1 = c1.forward(&mut t1, &s1, x1, h1);
        let o2 = c2.forward(&mut t2, &s2, x2, h2);
        assert_eq!(t1.value(o1), t2.value(o2));
    }
}
