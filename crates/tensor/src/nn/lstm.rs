//! LSTM cell — the third `Mem(·)` memory-updater option the paper lists
//! (§III-B: "a time series function, such as RNN, LSTM and GRU").

use crate::nn::{gate_params, recurrent_pre};
use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::Forward;
use rand::Rng;

/// One LSTM cell. Given input `x (m×in)`, hidden `h (m×d)`, cell `c (m×d)`:
///
/// ```text
/// i  = σ(x·Wi + h·Ui + bi)      input gate
/// f  = σ(x·Wf + h·Uf + bf)      forget gate
/// o  = σ(x·Wo + h·Uo + bo)      output gate
/// g  = tanh(x·Wg + h·Ug + bg)   candidate
/// c' = f∘c + i∘g
/// h' = o∘tanh(c')
/// ```
///
/// The forget-gate bias is initialised to 1 (the standard trick that keeps
/// early memories alive).
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// `[W, U, b]` of the input, forget and output gates and the candidate.
    gates: [[ParamId; 3]; 4],
    in_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Registers a new cell under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let i = gate_params(store, rng, name, "i", in_dim, hidden_dim, 0.0);
        let f = gate_params(store, rng, name, "f", in_dim, hidden_dim, 1.0);
        let o = gate_params(store, rng, name, "o", in_dim, hidden_dim, 0.0);
        let g = gate_params(store, rng, name, "g", in_dim, hidden_dim, 0.0);
        Self {
            gates: [i, f, o, g],
            in_dim,
            hidden_dim,
        }
    }

    /// One step: returns `(h', c')`, each `m × hidden_dim`.
    pub fn forward<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        x: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var) {
        assert_eq!(
            ev.value(x).cols(),
            self.in_dim,
            "LstmCell: input width mismatch"
        );
        assert_eq!(
            ev.value(h).cols(),
            self.hidden_dim,
            "LstmCell: hidden width mismatch"
        );
        assert_eq!(
            ev.value(c).cols(),
            self.hidden_dim,
            "LstmCell: cell width mismatch"
        );
        let i_pre = recurrent_pre(ev, store, self.gates[0], x, h);
        let i = ev.sigmoid_in_place(i_pre);
        let f_pre = recurrent_pre(ev, store, self.gates[1], x, h);
        let f = ev.sigmoid_in_place(f_pre);
        let o_pre = recurrent_pre(ev, store, self.gates[2], x, h);
        let o = ev.sigmoid_in_place(o_pre);
        let g_pre = recurrent_pre(ev, store, self.gates[3], x, h);
        let g = ev.tanh_in_place(g_pre);
        let fc = ev.mul_in_place(f, c);
        let ig = ev.mul_in_place(i, g);
        let c_new = ev.add_in_place(fc, ig);
        // `c_new` is returned, so its `tanh` copies it.
        let tc = ev.tanh(c_new);
        let h_new = ev.mul_in_place(o, tc);
        (h_new, c_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell(seed: u64) -> (ParamStore, LstmCell) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4);
        (store, c)
    }

    #[test]
    fn shapes_and_bounds() {
        let (store, cell) = cell(0);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(2, 3, 5.0));
        let h = tape.constant(Matrix::zeros(2, 4));
        let c = tape.constant(Matrix::zeros(2, 4));
        let (h2, c2) = cell.forward(&mut tape, &store, x, h, c);
        assert_eq!(tape.value(h2).shape(), (2, 4));
        assert_eq!(tape.value(c2).shape(), (2, 4));
        // |h| ≤ 1 always (o·tanh(c')); from zero cell state |c'| ≤ 1 too.
        assert!(tape.value(h2).data().iter().all(|&v| v.abs() <= 1.0));
        assert!(tape.value(c2).data().iter().all(|&v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let (store, _) = cell(1);
        let bf = store.lookup("lstm.b_f").unwrap();
        assert!(store.value(bf).data().iter().all(|&v| v == 1.0));
        let bi = store.lookup("lstm.b_i").unwrap();
        assert!(store.value(bi).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn twelve_tensors_receive_gradient() {
        let (store, cell) = cell(2);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 3));
        let h = tape.constant(Matrix::full(2, 4, 0.2));
        let c = tape.constant(Matrix::full(2, 4, -0.1));
        let (h2, _) = cell.forward(&mut tape, &store, x, h, c);
        let loss = tape.mean_all(h2);
        let grads = tape.backward(loss);
        assert_eq!(tape.param_grads(&grads).len(), 12, "4 gates × (W,U,b)");
    }

    #[test]
    fn cell_state_carries_information() {
        let (store, cell) = cell(3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(1, 3));
        let h = tape.constant(Matrix::zeros(1, 4));
        let c_a = tape.constant(Matrix::full(1, 4, 0.9));
        let c_b = tape.constant(Matrix::full(1, 4, -0.9));
        let (ha, _) = cell.forward(&mut tape, &store, x, h, c_a);
        let (hb, _) = cell.forward(&mut tape, &store, x, h, c_b);
        assert!(tape.value(ha).max_abs_diff(tape.value(hb)) > 1e-4);
    }
}
