//! Learnable harmonic time encoding `φ(Δt) = cos(Δt·ω + b)` (paper Eq. 2,
//! following the generic time encoding of TGAT [10]).
//!
//! Frequencies are initialised log-spaced (`ω_i = 10^{−9i/d}`), the standard
//! TGAT scheme: the encoder starts with channels that resolve time scales
//! from "immediate" to "very old" and tunes them during training.

use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use crate::{Forward, Matrix};

/// Learnable time encoder mapping a column of time deltas (`m×1`) to
/// `m × dim` features.
#[derive(Debug, Clone)]
pub struct TimeEncoder {
    omega: ParamId,
    phase: ParamId,
    dim: usize,
}

impl TimeEncoder {
    /// Registers a new encoder under `name`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let mut omega = Matrix::zeros(1, dim);
        for (i, w) in omega.data_mut().iter_mut().enumerate() {
            *w = 10f32.powf(-9.0 * i as f32 / dim.max(1) as f32);
        }
        Self {
            omega: store.register(format!("{name}.omega"), omega),
            phase: store.register(format!("{name}.phase"), Matrix::zeros(1, dim)),
            dim,
        }
    }

    /// Encodes `dt` (`m×1`, seconds or any consistent unit) to `m × dim`.
    pub fn forward<'s>(&self, ev: &mut impl Forward<'s>, store: &'s ParamStore, dt: Var) -> Var {
        assert_eq!(ev.value(dt).cols(), 1, "TimeEncoder: dt must be m×1");
        let omega = ev.param(store, self.omega);
        let phase = ev.param(store, self.phase);
        let shifted = ev.affine(dt, omega, phase); // outer product: m×dim
        ev.cos_in_place(shifted)
    }

    /// Convenience: encodes plain deltas, taking them as the `m×1` input
    /// without a copy. Row `r` depends only on `dts[r]`, so it is
    /// bit-identical to encoding that delta alone.
    pub fn encode<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        dts: Vec<f32>,
    ) -> Var {
        let dt = ev.constant(Matrix::col_vec(dts));
        self.forward(ev, store, dt)
    }

    /// Output width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Eval, Tape};

    #[test]
    fn zero_delta_encodes_to_ones() {
        // cos(0·ω + 0) = 1 in every channel.
        let mut store = ParamStore::new();
        let enc = TimeEncoder::new(&mut store, "te", 8);
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, vec![0.0, 0.0]);
        assert_eq!(tape.value(out).shape(), (2, 8));
        assert!(tape
            .value(out)
            .data()
            .iter()
            .all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn output_bounded_and_distinct_for_distinct_deltas() {
        let mut store = ParamStore::new();
        let enc = TimeEncoder::new(&mut store, "te", 16);
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, vec![1.0, 1000.0]);
        let v = tape.value(out);
        assert!(v.data().iter().all(|&x| x.abs() <= 1.0));
        assert!(v.row_matrix(0).max_abs_diff(&v.row_matrix(1)) > 1e-3);
    }

    #[test]
    fn stacked_eval_matches_one_taped_slice_per_delta_bitwise() {
        let mut store = ParamStore::new();
        let enc = TimeEncoder::new(&mut store, "te", 8);
        let dts = [0.0, 0.75, 3.5, 1e4];
        let mut ev = Eval::new();
        let stacked = enc.encode(&mut ev, &store, dts.to_vec());
        for (r, &dt) in dts.iter().enumerate() {
            let mut tape = Tape::new();
            let one = enc.encode(&mut tape, &store, vec![dt]);
            assert_eq!(tape.value(one).row(0), ev.value(stacked).row(r), "dt={dt}");
        }
    }

    #[test]
    fn frequencies_are_trainable() {
        let mut store = ParamStore::new();
        let enc = TimeEncoder::new(&mut store, "te", 4);
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, vec![2.5]);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        assert_eq!(
            tape.param_grads(&grads).len(),
            2,
            "omega and phase both trainable"
        );
    }
}
