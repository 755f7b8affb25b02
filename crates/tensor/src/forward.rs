//! One forward definition, two evaluators.
//!
//! Every op and every module forward is written once, generic over
//! [`Forward`], and runs under either evaluator:
//!
//! * [`Tape`](crate::Tape) records each op for the reverse pass and mounts
//!   parameters by copy, so the store can be stepped while the tape lives;
//! * [`Eval`] records nothing and mounts parameters by reference: the
//!   forward-only evaluator of serving, memory replay and evaluation.
//!
//! Each op's value is computed by one provided method of [`Forward`], so
//! the two evaluators produce the same bits by construction.
//!
//! ## Consuming ops
//!
//! A module often feeds an op's output to exactly one later op. The
//! `*_in_place` forms (`add_in_place`, the activations, …) write their
//! output into the buffer of their first input, which they consume through
//! [`Forward::take`]: an `Eval` moves the value out (reading that variable
//! again panics, naming it) and allocates one matrix fewer. A `Tape` keeps
//! every input, because its reverse pass reads them, so there a consuming
//! op computes into its own buffer just as its copying form does. Either
//! way the per-element arithmetic is the copying form's, so the bits do
//! not change. An op keeps a copying form only where a caller uses it
//! (`add`, `mul` and `tanh` on values read again; `sub`, `sigmoid` and
//! `relu` in training code); `cos_in_place` and
//! `add_broadcast_row_in_place` have none.
//!
//! [`Forward::mount`] is the borrowing counterpart of
//! [`Forward::constant`]: an `Eval` reads a value that outlives it in
//! place, as it reads parameters, and a `Tape` copies it.

use crate::matrix::Matrix;
use crate::ops::{relu, segment_attention, sigmoid, softplus, Op, Record, LN_EPS};
use crate::param::{ParamId, ParamStore};
use crate::tape::Var;
use std::ops::Range;

/// The op set, evaluated forward. `'s` is the lifetime of the
/// [`ParamStore`] the parameters are mounted from.
pub trait Forward<'s>: Record {
    /// Forward value of a variable.
    fn value(&self, var: Var) -> &Matrix;

    /// Mounts a trainable parameter.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Var;

    /// Hands back `var`'s value as an owned matrix, for an op to write its
    /// output into. A recording evaluator copies it, because its reverse
    /// pass reads every input; a forward-only one moves it out (copying a
    /// value it only borrows), after which reading `var` panics.
    fn take(&mut self, var: Var) -> Matrix;

    /// Records a constant (no gradient is propagated past it). The value
    /// is kept as it is, finite or not: the training guard turns a
    /// non-finite loss into a skipped step or a typed divergence report.
    fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, || Op::Leaf)
    }

    /// [`Forward::constant`] for a value `fill` writes into the buffer it
    /// is given: on a tape the one this variable's slot held in the
    /// previous recording, on a forward-only evaluator an empty `Vec`.
    fn constant_with(&mut self, fill: impl FnOnce(Vec<f32>) -> Matrix) -> Var {
        let v = fill(self.buffer());
        self.constant(v)
    }

    /// [`Forward::constant`] for a value that outlives the evaluator: a
    /// forward-only evaluator reads it in place, a recording one copies it.
    fn mount(&mut self, value: &'s Matrix) -> Var {
        let v = value.copy_into(self.buffer());
        self.constant(v)
    }

    /// Matrix product.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let buf = self.buffer();
        let v = self.value(a).matmul_into(self.value(b), buf);
        self.push(v, || Op::MatMul(a, b))
    }

    /// `x·w + b[1,n]`, the bias added in place into the product's fresh
    /// buffer: the same bits as [`Forward::matmul`] then
    /// [`Forward::add_broadcast_row_in_place`], with one matrix where they
    /// make two.
    fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        let buf = self.buffer();
        let mut v = self.value(x).matmul_into(self.value(w), buf);
        v.add_row_inplace(self.value(b));
        self.push(v, || Op::Affine(x, w, b))
    }

    /// Elementwise sum (same shapes).
    fn add(&mut self, a: Var, b: Var) -> Var {
        let v = zip_fresh(self, a, b, |x, y| x + y);
        self.push(v, || Op::Add(a, b))
    }

    /// [`Forward::add`] written into `a`'s buffer, consuming `a`
    /// ([`Forward::take`]); `b` must be another variable.
    fn add_in_place(&mut self, a: Var, b: Var) -> Var {
        let v = zip_consuming(self, a, b, |x, y| x + y);
        self.push(v, || Op::Add(a, b))
    }

    /// `a[m,n] + b[1,n]`, broadcasting `b` over rows (bias add), written
    /// into `a`'s buffer, consuming `a`.
    fn add_broadcast_row_in_place(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.take(a);
        v.add_row_inplace(self.value(b));
        self.push(v, || Op::AddBroadcastRow(a, b))
    }

    /// Elementwise difference.
    fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = zip_fresh(self, a, b, |x, y| x - y);
        self.push(v, || Op::Sub(a, b))
    }

    /// [`Forward::sub`] written into `a`'s buffer, consuming `a`; `b` must
    /// be another variable.
    fn sub_in_place(&mut self, a: Var, b: Var) -> Var {
        let v = zip_consuming(self, a, b, |x, y| x - y);
        self.push(v, || Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = zip_fresh(self, a, b, |x, y| x * y);
        self.push(v, || Op::Mul(a, b))
    }

    /// [`Forward::mul`] written into `a`'s buffer, consuming `a`; `b` must
    /// be another variable.
    fn mul_in_place(&mut self, a: Var, b: Var) -> Var {
        let v = zip_consuming(self, a, b, |x, y| x * y);
        self.push(v, || Op::Mul(a, b))
    }

    /// Scalar multiple.
    fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = map_fresh(self, a, |x| x * s);
        self.push(v, || Op::Scale(a, s))
    }

    /// Elementwise scalar addition.
    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = map_fresh(self, a, |x| x + s);
        self.push(v, || Op::AddScalar(a, s))
    }

    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, sigmoid);
        self.push(v, || Op::Sigmoid(a))
    }

    /// [`Forward::sigmoid`] written into `a`'s buffer, consuming `a`.
    fn sigmoid_in_place(&mut self, a: Var) -> Var {
        let v = map_consuming(self, a, sigmoid);
        self.push(v, || Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, f32::tanh);
        self.push(v, || Op::Tanh(a))
    }

    /// [`Forward::tanh`] written into `a`'s buffer, consuming `a`.
    fn tanh_in_place(&mut self, a: Var) -> Var {
        let v = map_consuming(self, a, f32::tanh);
        self.push(v, || Op::Tanh(a))
    }

    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, relu);
        self.push(v, || Op::Relu(a))
    }

    /// [`Forward::relu`] written into `a`'s buffer, consuming `a`.
    fn relu_in_place(&mut self, a: Var) -> Var {
        let v = map_consuming(self, a, relu);
        self.push(v, || Op::Relu(a))
    }

    /// Elementwise cosine, written into `a`'s buffer, consuming `a`.
    fn cos_in_place(&mut self, a: Var) -> Var {
        let v = map_consuming(self, a, f32::cos);
        self.push(v, || Op::Cos(a))
    }

    /// Elementwise square root (inputs are clamped at zero).
    fn sqrt(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, |x| x.max(0.0).sqrt());
        self.push(v, || Op::Sqrt(a))
    }

    /// `[a ‖ b]` column concatenation (same row counts).
    fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let buf = self.buffer();
        let v = self.value(a).hcat_into(self.value(b), buf);
        self.push(v, || Op::ConcatCols(a, b))
    }

    /// Segmented scaled dot-product attention: row `i` of `q` (`B × a`)
    /// attends over rows `segments[i]` of `k` (`N × a`) and `v` (`N × c`),
    /// producing `B × c`. Segments may overlap. Each row is bit-identical
    /// to `softmax(scale · q_i · k_segᵀ) · v_seg` taken for that row alone.
    ///
    /// # Panics
    /// Panics unless `segments` holds one non-empty in-range row range per
    /// row of `q`.
    fn segment_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        segments: &[Range<usize>],
        scale: f32,
    ) -> Var {
        let kt_buf = self.scratch(self.value(k).len());
        let kt = self.value(k).transpose_into(kt_buf);
        let out_buf = self.buffer();
        let (out, weights) = segment_attention(
            self.value(q),
            &kt,
            self.value(v),
            segments,
            scale,
            Self::RECORDS,
            out_buf,
        );
        self.release(kt.into_data());
        self.push(out, || Op::SegmentAttention {
            q,
            k,
            v,
            segments: segments.to_vec(),
            scale,
            weights,
        })
    }

    /// Gathers rows of `a` by index (indices may repeat).
    fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let buf = self.buffer();
        let v = self.value(a).gather_rows_into(indices, buf);
        self.push(v, || Op::GatherRows(a, indices.to_vec()))
    }

    /// Stacks matrices of equal width top to bottom: `[p₀; p₁; …]`.
    fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let buf = self.buffer();
        let rows: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::vstack_into(&rows, buf);
        self.push(v, || Op::StackRows(parts.to_vec()))
    }

    /// Segmented column-wise mean: row `i` of the `segments.len() × n`
    /// result is the mean of rows `segments[i]` of `a`, with
    /// [`Matrix::mean_rows`]'s arithmetic (sum in row order, then `× 1/len`;
    /// an empty segment gives a zero row). Segments may overlap;
    /// `&[0..rows]` is the plain column mean.
    fn mean_rows(&mut self, a: Var, segments: &[Range<usize>]) -> Var {
        let buf = self.buffer();
        let va = self.value(a);
        let mut v = Matrix::full_into(segments.len(), va.cols(), 0.0, buf);
        for (i, seg) in segments.iter().enumerate() {
            let out = v.row_mut(i);
            for r in seg.clone() {
                for (o, &x) in out.iter_mut().zip(va.row(r)) {
                    *o += x;
                }
            }
            if !seg.is_empty() {
                let inv = 1.0 / seg.len() as f32;
                out.iter_mut().for_each(|o| *o *= inv);
            }
        }
        self.push(v, || Op::MeanRows(a, segments.to_vec()))
    }

    /// Mean of all elements (`1×1`).
    fn mean_all(&mut self, a: Var) -> Var {
        let m = self.value(a).mean();
        let v = Matrix::full_into(1, 1, m, self.buffer());
        self.push(v, || Op::MeanAll(a))
    }

    /// Sum of all elements (`1×1`).
    fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let v = Matrix::full_into(1, 1, s, self.buffer());
        self.push(v, || Op::SumAll(a))
    }

    /// Row-wise squared Euclidean distance between same-shaped matrices,
    /// producing `m×1`.
    fn sq_dist_rows(&mut self, a: Var, b: Var) -> Var {
        let buf = self.buffer();
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sq_dist_rows: shape mismatch");
        let mut v = Matrix::full_into(va.rows(), 1, 0.0, buf);
        for r in 0..va.rows() {
            let d: f32 = va
                .row(r)
                .iter()
                .zip(vb.row(r).iter())
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum();
            v.set(r, 0, d);
        }
        self.push(v, || Op::SqDistRows(a, b))
    }

    /// Elementwise natural exponential.
    fn exp(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, f32::exp);
        self.push(v, || Op::Exp(a))
    }

    /// Elementwise natural logarithm (inputs are clamped at a tiny floor so
    /// the forward and backward stay finite).
    fn ln(&mut self, a: Var) -> Var {
        let v = map_fresh(self, a, |x| x.max(LN_EPS).ln());
        self.push(v, || Op::Ln(a))
    }

    /// Column-wise maximum producing `1×n` (max-pool readout).
    fn max_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        assert!(va.rows() >= 1, "max_rows: need at least one row");
        let mut v = Matrix::from_vec(1, va.cols(), va.row(0).to_vec());
        for r in 1..va.rows() {
            for c in 0..va.cols() {
                if va.get(r, c) > v.get(0, c) {
                    v.set(0, c, va.get(r, c));
                }
            }
        }
        self.push(v, || Op::MaxRows(a))
    }

    /// `a[m,n] ∘ b[1,n]`, broadcasting `b` over rows (per-channel gain).
    fn mul_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        let buf = self.buffer();
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(vb.rows(), 1, "mul_broadcast_row: rhs must be 1×n");
        assert_eq!(va.cols(), vb.cols(), "mul_broadcast_row: width mismatch");
        let mut v = va.copy_into(buf);
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            for (x, &y) in row.iter_mut().zip(vb.row(0).iter()) {
                *x *= y;
            }
        }
        self.push(v, || Op::MulBroadcastRow(a, b))
    }

    /// Row-wise standardisation `(x − μ_row)/sqrt(σ²_row + eps)` — the core
    /// of layer normalisation.
    fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let buf = self.buffer();
        let va = self.value(a);
        let n = va.cols().max(1) as f32;
        let mut v = va.copy_into(buf);
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let mu: f32 = row.iter().sum::<f32>() / n;
            let var: f32 = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f32>() / n;
            let sigma = (var + eps).sqrt();
            for x in row.iter_mut() {
                *x = (*x - mu) / sigma;
            }
        }
        self.push(v, || Op::NormalizeRows(a, eps))
    }

    /// Mean binary cross-entropy with logits against constant `targets`
    /// (same shape as the logits), computed in the numerically stable form
    /// `max(x,0) − x·y + log(1+e^{−|x|})`.
    fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let x = self.value(logits);
        assert_eq!(
            x.shape(),
            targets.shape(),
            "bce_with_logits: shape mismatch"
        );
        let n = x.len().max(1) as f32;
        let total: f32 = x
            .data()
            .iter()
            .zip(targets.data().iter())
            .map(|(&xi, &yi)| xi.max(0.0) - xi * yi + softplus(-xi.abs()))
            .sum();
        let v = Matrix::full_into(1, 1, total / n, self.buffer());
        self.push(v, || Op::BceWithLogits { logits, targets })
    }

    /// Euclidean (L2) distance between corresponding rows: `sqrt(sq_dist)`.
    fn euclidean_rows(&mut self, a: Var, b: Var) -> Var {
        let sq = self.sq_dist_rows(a, b);
        // Small epsilon keeps the sqrt backward finite at zero distance.
        let eps = self.add_scalar(sq, 1e-8);
        self.sqrt(eps)
    }
}

/// `f` over `a`'s value, written into the evaluator's
/// [`Record::buffer`]: the value of a copying op.
fn map_fresh<'s, F: Forward<'s> + ?Sized>(ev: &mut F, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
    let buf = ev.buffer();
    ev.value(a).map_into(f, buf)
}

/// [`map_fresh`] for an elementwise `f(a, b)`.
fn zip_fresh<'s, F: Forward<'s> + ?Sized>(
    ev: &mut F,
    a: Var,
    b: Var,
    f: impl Fn(f32, f32) -> f32,
) -> Matrix {
    let buf = ev.buffer();
    ev.value(a).zip_into(ev.value(b), f, buf)
}

/// `f` over `a`'s value, for a consuming op: written into `a`'s own
/// buffer when the evaluator gives it up ([`Forward::take`]). A recording
/// evaluator keeps every input for its reverse pass, so there `f` writes
/// the value the copying op would, rather than into a copy.
fn map_consuming<'s, F: Forward<'s> + ?Sized>(
    ev: &mut F,
    a: Var,
    f: impl Fn(f32) -> f32,
) -> Matrix {
    if F::RECORDS {
        return map_fresh(ev, a, f);
    }
    let mut v = ev.take(a);
    v.map_inplace(f);
    v
}

/// [`map_consuming`] for an elementwise `f(a, b)`; `b` must be another
/// variable.
fn zip_consuming<'s, F: Forward<'s> + ?Sized>(
    ev: &mut F,
    a: Var,
    b: Var,
    f: impl Fn(f32, f32) -> f32,
) -> Matrix {
    if F::RECORDS {
        return zip_fresh(ev, a, b, f);
    }
    let mut v = ev.take(a);
    v.zip_inplace(ev.value(b), f);
    v
}

/// The forward-only evaluator: the same op values as [`Tape`](crate::Tape),
/// with no op record, parameters and mounted values read in place, and
/// consumed values moved out.
#[derive(Debug, Default)]
pub struct Eval<'s> {
    values: Vec<Slot<'s>>,
}

/// One variable's value in an [`Eval`].
#[derive(Debug)]
enum Slot<'s> {
    Owned(Matrix),
    Borrowed(&'s Matrix),
    /// Moved out by [`Forward::take`].
    Taken,
}

impl Eval<'_> {
    /// An empty evaluator, with room for one pending application's or one
    /// serving query's values.
    pub fn new() -> Self {
        Self {
            values: Vec::with_capacity(64),
        }
    }
}

impl Record for Eval<'_> {
    const RECORDS: bool = false;

    fn buffer(&mut self) -> Vec<f32> {
        Vec::new()
    }

    fn scratch(&mut self, _len: usize) -> Vec<f32> {
        Vec::new()
    }

    fn release(&mut self, _buf: Vec<f32>) {}

    fn push(&mut self, value: Matrix, _op: impl FnOnce() -> Op) -> Var {
        self.values.push(Slot::Owned(value));
        Var(self.values.len() - 1)
    }
}

impl<'s> Forward<'s> for Eval<'s> {
    fn value(&self, var: Var) -> &Matrix {
        match &self.values[var.0] {
            Slot::Owned(m) => m,
            Slot::Borrowed(m) => m,
            Slot::Taken => panic!(
                "Eval: variable {} was moved out by a consuming op and cannot be read again",
                var.0
            ),
        }
    }

    /// Moves the value out; a borrowed one is copied. Either way the
    /// variable cannot be read again.
    fn take(&mut self, var: Var) -> Matrix {
        match std::mem::replace(&mut self.values[var.0], Slot::Taken) {
            Slot::Owned(m) => m,
            Slot::Borrowed(m) => m.clone(),
            Slot::Taken => panic!(
                "Eval: variable {} was moved out by a consuming op and cannot be taken again",
                var.0
            ),
        }
    }

    /// Borrows `value`: no copy.
    fn mount(&mut self, value: &'s Matrix) -> Var {
        self.values.push(Slot::Borrowed(value));
        Var(self.values.len() - 1)
    }

    /// Borrows the parameter's value from `store`: no copy.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Var {
        self.mount(store.value(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn eval_mounts_the_stores_own_value_and_records_no_op() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_rows(&[&[0.5, 1.0], &[-0.25, 2.0]]));
        let mut ev = Eval::new();
        let wv = ev.param(&store, w);
        assert!(
            std::ptr::eq(ev.value(wv), store.value(w)),
            "mounted by reference"
        );
        let x = ev.push(Matrix::from_rows(&[&[1.0, 2.0]]), || {
            panic!("Eval built an op")
        });
        let y = ev.matmul(x, wv);
        let mut tape = Tape::new();
        let (xt, wt) = (tape.constant(ev.value(x).clone()), tape.param(&store, w));
        let yt = tape.matmul(xt, wt);
        assert!(
            !std::ptr::eq(tape.value(wt), store.value(w)),
            "the tape mounts a copy"
        );
        assert_eq!(ev.value(y), tape.value(yt));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Values over several decades, signed zeros, an infinity and a NaN.
    fn awkward(rows: usize, cols: usize, seed: u32) -> Matrix {
        let special = [-0.0, 0.0, f32::INFINITY, f32::NAN, 1e-38, -88.5, 20.25];
        let data = (0..rows * cols)
            .map(|i| {
                let k = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                if i % 4 == 1 {
                    special[(k % 7) as usize]
                } else {
                    ((k >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 10f32.powi((k % 5) as i32 - 2)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    type Binary<F> = fn(&mut F, Var, Var) -> Var;
    type Unary<F> = fn(&mut F, Var) -> Var;

    /// Runs every consuming op and its copying form (or, for the ops that
    /// have none, the copying form's arithmetic on plain matrices) on `ev`
    /// over the same inputs, returning `(name, copying bits, consuming
    /// bits)`.
    fn consuming_pairs<'s, F: Forward<'s>>(ev: &mut F) -> Vec<(&'static str, Vec<u32>, Vec<u32>)> {
        let binary: [(&str, Binary<F>, Binary<F>); 3] = [
            ("add", F::add, F::add_in_place),
            ("sub", F::sub, F::sub_in_place),
            ("mul", F::mul, F::mul_in_place),
        ];
        let unary: [(&str, Unary<F>, Unary<F>); 3] = [
            ("sigmoid", F::sigmoid, F::sigmoid_in_place),
            ("tanh", F::tanh, F::tanh_in_place),
            ("relu", F::relu, F::relu_in_place),
        ];
        let mut out = Vec::new();
        for (name, copying, consuming) in binary {
            let [a, b, a2] = [1, 2, 1].map(|seed| ev.constant(awkward(3, 5, seed)));
            let want = copying(ev, a, b);
            let got = consuming(ev, a2, b);
            out.push((name, bits(ev.value(want)), bits(ev.value(got))));
        }
        for (name, copying, consuming) in unary {
            let [a, a2] = [3, 3].map(|seed| ev.constant(awkward(3, 5, seed)));
            let want = copying(ev, a);
            let got = consuming(ev, a2);
            out.push((name, bits(ev.value(want)), bits(ev.value(got))));
        }
        let a = ev.constant(awkward(3, 5, 3));
        let got = ev.cos_in_place(a);
        let want = awkward(3, 5, 3).map(f32::cos);
        out.push(("cos", bits(&want), bits(ev.value(got))));
        let [a, row] = [(3, 4), (1, 5)].map(|(rows, seed)| ev.constant(awkward(rows, 5, seed)));
        let got = ev.add_broadcast_row_in_place(a, row);
        let mut want = awkward(3, 5, 4);
        want.add_row_inplace(&awkward(1, 5, 5));
        out.push(("add_broadcast_row", bits(&want), bits(ev.value(got))));
        out
    }

    #[test]
    fn consuming_ops_match_their_copying_forms_bit_for_bit_on_both_evaluators() {
        let mut tape = Tape::new();
        let on_tape = consuming_pairs(&mut tape);
        let mut ev = Eval::new();
        let on_eval = consuming_pairs(&mut ev);
        assert_eq!(on_tape.len(), 8);
        for ((name, want, got), (_, eval_want, eval_got)) in on_tape.iter().zip(&on_eval) {
            assert_eq!(want, got, "{name} on the tape");
            assert_eq!(eval_want, eval_got, "{name} on the Eval");
            assert_eq!(want, eval_got, "{name}: Eval against tape");
        }
    }

    #[test]
    fn a_consuming_op_keeps_the_tape_input_and_its_gradient() {
        let x = awkward(2, 3, 7).map(|v| {
            if v.is_finite() {
                v.clamp(-3.0, 3.0)
            } else {
                0.5
            }
        });
        let grads = |consume: bool| {
            let mut tape = Tape::new();
            let a = tape.constant(x.clone());
            let y = if consume {
                tape.tanh_in_place(a)
            } else {
                tape.tanh(a)
            };
            assert_eq!(bits(tape.value(a)), bits(&x), "the tape keeps its input");
            let loss = tape.sum_all(y);
            bits(tape.backward(loss).get(a).unwrap())
        };
        assert_eq!(grads(true), grads(false));
    }

    #[test]
    #[should_panic(expected = "Eval: variable 0 was moved out by a consuming op")]
    fn reading_a_moved_out_eval_variable_panics_naming_it() {
        let mut ev = Eval::new();
        let a = ev.constant(Matrix::ones(2, 2));
        let _ = ev.sigmoid_in_place(a);
        ev.value(a);
    }

    #[test]
    fn eval_mounts_by_reference_and_takes_a_copy_of_what_it_borrows() {
        let m = Matrix::from_rows(&[&[1.5, -2.0]]);
        let mut ev = Eval::new();
        let a = ev.mount(&m);
        assert!(std::ptr::eq(ev.value(a), &m), "mounted by reference");
        assert_eq!(ev.take(a), m);
        let mut tape = Tape::new();
        let t = tape.mount(&m);
        assert!(!std::ptr::eq(tape.value(t), &m), "the tape mounts a copy");
        assert_eq!(tape.take(t), m);
        assert_eq!(tape.value(t), &m, "the tape's take copies");
    }

    #[test]
    fn affine_is_the_product_plus_the_broadcast_bias_bit_for_bit() {
        let x = Matrix::from_rows(&[&[0.1, -2.5, 3.0], &[1e-3, 7.25, -0.0]]);
        let w = Matrix::from_rows(&[&[0.3, -1.1], &[2.0, 0.7], &[-0.45, 1e-4]]);
        let b = Matrix::row_vec(vec![0.2, -3.3]);
        let mut tape = Tape::new();
        let [xt, wt, bt] = [&x, &w, &b].map(|m| tape.constant(m.clone()));
        let fused = tape.affine(xt, wt, bt);
        let product = tape.matmul(xt, wt);
        let unfused = tape.add_broadcast_row_in_place(product, bt);
        let mut ev = Eval::new();
        let [xe, we, be] = [&x, &w, &b].map(|m| ev.constant(m.clone()));
        let eval = ev.affine(xe, we, be);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tape.value(fused)), bits(tape.value(unfused)));
        assert_eq!(bits(ev.value(eval)), bits(tape.value(fused)));
    }
}
