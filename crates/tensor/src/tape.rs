//! Arena-based reverse-mode autodiff tape.
//!
//! A [`Tape`] records one forward pass; variables are indices into the
//! arena ([`Var`]), so tape construction is allocation-light and the reverse
//! pass is a single backwards sweep over a `Vec` — no reference counting, no
//! interior mutability. Parameters persist in a [`ParamStore`] and are
//! *mounted* onto the tape with [`Forward::param`]. The ops themselves are
//! the provided methods of [`Forward`], shared with the forward-only
//! [`Eval`](crate::Eval).
//!
//! ## One tape per training loop
//!
//! A training loop builds one tape and calls [`Tape::reset`] at the top of
//! every step. Reset forgets the recording but keeps its buffers: each op
//! of the next recording writes its value into the buffer its variable
//! slot held in the previous one, and the reverse pass takes every
//! gradient, delta and scratch transpose from a free list the tape owns,
//! to which [`Tape::recycle`] hands a finished pass's gradients back. A
//! step of the same shape as the last therefore writes every value into a
//! buffer the tape already holds, and takes most of its gradients from
//! the free list. The arithmetic is the fresh tape's, only the buffers
//! differ, so every value and gradient is bit-identical.
//!
//! Reuse does not raise the peak heap. Every buffer an op writes has
//! exactly the capacity it asks for: a slot buffer that does not is freed
//! and replaced, the old freed first. The free list hands out the
//! smallest idle buffer that holds a request, shrunk to it; when none
//! does, it gives idle buffers back, the largest first, until they free
//! at least the request. The slot buffers a recording does not reach are
//! dropped when its reverse pass starts.
//!
//! ```
//! use cpdg_tensor::{Forward, Matrix, ParamStore, Tape};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Matrix::from_rows(&[&[0.5], &[-0.25]]));
//!
//! let mut tape = Tape::new();
//! for _ in 0..2 {
//!     tape.reset();
//!     let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
//!     let wv = tape.param(&store, w);
//!     let y = tape.matmul(x, wv);           // 1x1
//!     let loss = tape.mean_all(y);
//!     let grads = tape.backward(loss);
//!     assert!(grads.get(wv).is_some());
//!     tape.recycle(grads);
//! }
//! ```

use crate::forward::Forward;
use crate::matrix::Matrix;
use crate::ops::{Op, Record, Sweep};
use crate::param::{ParamId, ParamStore};
use std::collections::{BTreeMap, HashMap};

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

/// Idle value buffers, keyed by capacity and then newest first: among
/// equal capacities the most recently freed is the likeliest in cache.
#[derive(Debug, Default)]
pub(crate) struct FreeList {
    bufs: BTreeMap<(usize, usize), Vec<f32>>,
    given: usize,
}

impl FreeList {
    /// A buffer of capacity exactly `len`: the smallest idle buffer that
    /// holds `len`, shrunk in place if it holds more. When none does, idle
    /// buffers are given back to the allocator, the largest first, until
    /// they free at least `len` or none is left, so the new allocation
    /// does not lift the bytes the list and its handed-out buffers hold
    /// above the most they have held in use at once.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        self.fitting(len).unwrap_or_else(|| {
            let mut freed = 0;
            while freed < len {
                let Some((_, buf)) = self.bufs.pop_last() else {
                    break;
                };
                freed += buf.capacity();
            }
            Vec::new()
        })
    }

    /// The smallest idle buffer that holds `len`, shrunk to capacity
    /// exactly `len`.
    fn fitting(&mut self, len: usize) -> Option<Vec<f32>> {
        let (&key, _) = self.bufs.range((len, 0)..).next()?;
        let mut buf = self.bufs.remove(&key).expect("a listed key");
        buf.truncate(len);
        buf.shrink_to(len);
        Some(buf)
    }

    /// Keeps `buf` for a later [`FreeList::take`].
    pub(crate) fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.given += 1;
            self.bufs
                .insert((buf.capacity(), usize::MAX - self.given), buf);
        }
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
    /// The previous recording's value buffers by variable slot, each taken
    /// by the op that writes that slot in this recording.
    spare: Vec<Vec<f32>>,
    /// Buffers for the reverse pass's gradients and deltas.
    free: FreeList,
    /// The gradient slots of the last pass handed back by
    /// [`Tape::recycle`], kept for the next.
    slots: Vec<Option<Matrix>>,
    /// Leaf transposes of the pass in progress.
    transposes: HashMap<Var, Matrix>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the recording for the next step, keeping its buffers: the
    /// value each variable slot held becomes the buffer the next
    /// recording's op at that slot writes into. Variables of the cleared
    /// recording must not be used afterwards.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.mounts.clear();
        self.spare.clear();
        self.spare
            .extend(self.values.drain(..).map(Matrix::into_data));
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
    /// output's gradient is handed back to the tape once it has been
    /// propagated to its parents. The recording is unchanged and can be
    /// queried afterwards; the slot buffers it did not reuse are dropped.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(
            self.values[loss.0].shape(),
            (1, 1),
            "backward: loss must be a 1×1 scalar"
        );
        self.spare.clear();
        let mut grads = std::mem::take(&mut self.slots);
        grads.reserve_exact(self.values.len());
        grads.resize_with(self.values.len(), || None);
        grads[loss.0] = Some(Matrix::full_into(1, 1, 1.0, self.free.take(1)));
        let mut sweep = Sweep {
            values: &self.values,
            ops: &self.ops,
            grads: &mut grads,
            free: &mut self.free,
            transposes: &mut self.transposes,
        };
        for (i, op) in self.ops.iter().enumerate().rev() {
            if matches!(op, Op::Leaf) {
                continue;
            }
            let Some(g) = sweep.grads[i].take() else {
                continue;
            };
            op.backward(&mut sweep, &self.values[i], &g);
            sweep.free.give(g.into_data());
        }
        for (_, t) in self.transposes.drain() {
            self.free.give(t.into_data());
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

    /// Hands the buffers of a finished pass's `grads` back to the tape,
    /// for the next [`Tape::backward`].
    pub fn recycle(&mut self, grads: Gradients) {
        let mut slots = grads.grads;
        for g in slots.drain(..).flatten() {
            self.free.give(g.into_data());
        }
        self.slots = slots;
    }
}

impl Record for Tape {
    const RECORDS: bool = true;

    /// The buffer this slot held in the previous recording.
    fn buffer(&mut self) -> Vec<f32> {
        self.spare
            .get_mut(self.values.len())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// A fitting idle buffer, else a new one. The idle buffers are kept
    /// for the reverse pass, since the scratch is handed back at once.
    fn scratch(&mut self, len: usize) -> Vec<f32> {
        self.free.fitting(len).unwrap_or_default()
    }

    fn release(&mut self, buf: Vec<f32>) {
        self.free.give(buf);
    }

    /// Also drops the slot's previous buffer if the op did not take it.
    fn push(&mut self, value: Matrix, op: impl FnOnce() -> Op) -> Var {
        let var = Var(self.values.len());
        if let Some(unused) = self.spare.get_mut(var.0) {
            *unused = Vec::new();
        }
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
        let buf = self.buffer();
        self.values[var.0].copy_into(buf)
    }

    /// Mounts a copy of the parameter's value, so the store can be stepped
    /// while the tape lives. Mounting the same id twice returns the same
    /// variable, so its gradient accumulates in one place.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Var {
        if let Some(&var) = self.mounts.get(&id) {
            return var;
        }
        let value = store.value(id).copy_into(self.buffer());
        let var = self.push(value, || Op::Leaf);
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
