//! Arena-based reverse-mode autodiff tape.
//!
//! A [`Tape`] records one forward pass; variables are indices into the
//! arena ([`Var`]), so tape construction is allocation-light and the reverse
//! pass is a single backwards sweep over a `Vec` — no reference counting, no
//! interior mutability. A fresh tape is built for every mini-batch and
//! dropped afterwards; parameters persist in a [`ParamStore`] and are
//! *mounted* onto the tape with [`Forward::param`]. The ops themselves are
//! the provided methods of [`Forward`], shared with the forward-only
//! [`Eval`](crate::Eval).
//!
//! ```
//! use cpdg_tensor::{Forward, Matrix, ParamStore, Tape};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Matrix::from_rows(&[&[0.5], &[-0.25]]));
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv);           // 1x1
//! let loss = tape.mean_all(y);
//! let grads = tape.backward(loss);
//! assert!(grads.get(wv).is_some());
//! ```

use crate::forward::Forward;
use crate::matrix::Matrix;
use crate::ops::{LeafTransposes, Op, Record};
use crate::param::{ParamId, ParamStore};
use std::collections::HashMap;

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`]. Only
/// leaves (constants and mounted parameters) that the loss depends on have
/// an entry; op outputs never do.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the leaf `var`, if the loss depends on
    /// it; always `None` for an interior variable.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// One recorded forward pass: the [`Forward`] evaluator of training.
#[derive(Debug, Default)]
pub struct Tape {
    values: Vec<Matrix>,
    ops: Vec<Op>,
    /// ParamId → mounted Var, so mounting the same parameter twice reuses
    /// one node and its gradient accumulates correctly.
    mounts: HashMap<ParamId, Var>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward value of a variable.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.values[var.0]
    }

    /// [`Forward::gather_rows`], callable without the trait in scope.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        Forward::gather_rows(self, a, indices)
    }

    /// Runs the reverse pass from `loss` (must be `1×1`) and returns the
    /// gradients of the leaves (constants and mounted parameters). An op
    /// output's gradient is dropped once it has been propagated to its
    /// parents. The tape itself is unchanged and can be queried afterwards.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.values[loss.0].shape(),
            (1, 1),
            "backward: loss must be a 1×1 scalar"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.values.len()];
        grads[loss.0] = Some(Matrix::ones(1, 1));
        let mut transposes = LeafTransposes::new(&self.ops);
        for (i, op) in self.ops.iter().enumerate().rev() {
            if matches!(op, Op::Leaf) {
                continue;
            }
            let Some(g) = grads[i].take() else { continue };
            op.backward(
                &self.values,
                &self.values[i],
                &g,
                &mut grads,
                &mut transposes,
            );
        }
        Gradients { grads }
    }

    /// Collects `(ParamId, gradient)` pairs for every mounted parameter the
    /// loss depends on.
    pub fn param_grads(&self, grads: &Gradients) -> Vec<(ParamId, Matrix)> {
        let mut out: Vec<(ParamId, Matrix)> = self
            .mounts
            .iter()
            .filter_map(|(&id, &var)| grads.get(var).map(|g| (id, g.clone())))
            .collect();
        // Deterministic order for reproducible optimiser behaviour.
        out.sort_by_key(|(id, _)| id.index());
        out
    }
}

impl Record for Tape {
    const RECORDS: bool = true;

    fn push(&mut self, value: Matrix, op: impl FnOnce() -> Op) -> Var {
        let var = Var(self.values.len());
        self.values.push(value);
        self.ops.push(op());
        var
    }
}

impl<'s> Forward<'s> for Tape {
    fn value(&self, var: Var) -> &Matrix {
        &self.values[var.0]
    }

    /// A copy: the reverse pass reads every op's inputs, so none is
    /// consumed.
    fn take(&mut self, var: Var) -> Matrix {
        self.values[var.0].clone()
    }

    /// Mounts a copy of the parameter's value, so the store can be stepped
    /// while the tape lives. Mounting the same id twice returns the same
    /// variable, so its gradient accumulates in one place.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Var {
        if let Some(&var) = self.mounts.get(&id) {
            return var;
        }
        let var = self.push(store.value(id).clone(), || Op::Leaf);
        self.mounts.insert(id, var);
        var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(tape: &mut Tape, x: f32) -> Var {
        tape.constant(Matrix::from_vec(1, 1, vec![x]))
    }

    #[test]
    fn matmul_grad_hand_checked() {
        // loss = sum(A·B) with A = [[1,2]], B = [[3],[4]] → loss = 11
        // dA = [[3,4]] (row of Bᵀ), dB = [[1],[2]].
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        assert_eq!(tape.value(loss).get(0, 0), 11.0);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap(), &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(grads.get(b).unwrap(), &Matrix::from_rows(&[&[1.0], &[2.0]]));
    }

    #[test]
    fn sigmoid_grad_at_zero_is_quarter() {
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 0.0);
        let y = tape.sigmoid(x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert!((grads.get(x).unwrap().get(0, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn mul_product_rule() {
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 3.0);
        let y = scalar(&mut tape, 5.0);
        let z = tape.mul(x, y);
        let loss = tape.sum_all(z);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().get(0, 0), 5.0);
        assert_eq!(grads.get(y).unwrap().get(0, 0), 3.0);
    }

    #[test]
    fn reused_variable_accumulates_gradient() {
        // loss = x·x (elementwise on 1×1) → dloss/dx = 2x.
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 4.0);
        let z = tape.mul(x, x);
        let loss = tape.sum_all(z);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().get(0, 0), 8.0);
    }

    #[test]
    fn param_mount_dedup() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut tape = Tape::new();
        let w1 = tape.param(&store, w);
        let w2 = tape.param(&store, w);
        assert_eq!(w1, w2);
        // loss = w * w → grad 2w = 4.
        let z = tape.mul(w1, w2);
        let loss = tape.sum_all(z);
        let grads = tape.backward(loss);
        let pg = tape.param_grads(&grads);
        assert_eq!(pg.len(), 1);
        assert_eq!(pg[0].1.get(0, 0), 4.0);
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let g = tape.gather_rows(x, &[0, 0, 2]);
        let loss = tape.sum_all(g);
        let grads = tape.backward(loss);
        // Row 0 gathered twice → grad 2; row 1 never → 0; row 2 once → 1.
        assert_eq!(
            grads.get(x).unwrap(),
            &Matrix::from_rows(&[&[2.0], &[0.0], &[1.0]])
        );
    }

    #[test]
    fn stack_rows_routes_gradients() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::row_vec(vec![1.0, 2.0]));
        let b = tape.constant(Matrix::row_vec(vec![3.0, 4.0]));
        let s = tape.stack_rows(&[a, b]);
        assert_eq!(tape.value(s).shape(), (2, 2));
        let w = tape.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 10.0]]));
        let ws = tape.mul(s, w);
        let loss = tape.sum_all(ws);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap(), &Matrix::row_vec(vec![1.0, 0.0]));
        assert_eq!(grads.get(b).unwrap(), &Matrix::row_vec(vec![0.0, 10.0]));
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        // x = 0, y = 1 → loss = ln 2; grad = (σ(0) − 1) = −0.5.
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 0.0);
        let loss = tape.bce_with_logits(x, Matrix::from_vec(1, 1, vec![1.0]));
        assert!((tape.value(loss).get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
        let grads = tape.backward(loss);
        assert!((grads.get(x).unwrap().get(0, 0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn euclidean_rows_forward() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 1.0]]));
        let d = tape.euclidean_rows(a, b);
        assert!((tape.value(d).get(0, 0) - 5.0).abs() < 1e-3);
        assert!(tape.value(d).get(1, 0) < 1e-3);
        // Zero distance must still have a finite gradient.
        let loss = tape.sum_all(d);
        let grads = tape.backward(loss);
        assert!(grads.get(a).unwrap().all_finite());
    }

    #[test]
    fn constants_do_not_block_unrelated_grads() {
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 2.0);
        let _unused = scalar(&mut tape, 99.0);
        let y = tape.mul(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(_unused), None);
        assert_eq!(grads.get(x).unwrap().get(0, 0), 4.0);
    }

    #[test]
    fn only_leaves_keep_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![3.0]));
        let mut tape = Tape::new();
        let x = scalar(&mut tape, 2.0);
        let wv = tape.param(&store, w);
        let y = tape.mul(x, wv);
        let z = tape.tanh(y);
        let loss = tape.sum_all(z);
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_some() && grads.get(wv).is_some());
        for interior in [y, z, loss] {
            assert_eq!(grads.get(interior), None);
        }
    }

    #[test]
    #[should_panic(expected = "loss must be a 1×1 scalar")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 2));
        tape.backward(x);
    }
}
