//! Differentiable operations: the op set recorded on the tape and the
//! backward (vector-Jacobian product) rule for each.
//!
//! Forward evaluation lives in [`crate::Forward`]'s provided methods, shared
//! by both evaluators; this module owns the op metadata and the reverse
//! pass. The split keeps the
//! backward rules — the part most likely to harbour silent bugs — in one
//! place where the finite-difference tests in `tests` can cover them
//! exhaustively.

use crate::matrix::{axpy, refit, Matrix};
use crate::tape::{FreeList, Var};
use std::collections::HashMap;
use std::ops::Range;

/// Guard against division blow-ups in `sqrt` backward.
const SQRT_EPS: f32 = 1e-12;
/// Clamp floor for `ln` inputs.
pub(crate) const LN_EPS: f32 = 1e-12;

pub(crate) use recorded::{Op, Record};

/// Holds [`Op`] and [`Record`] nominally public, so that the public
/// [`crate::Forward`] may build on them, while nothing outside the crate
/// can name them (which also seals `Forward`).
mod recorded {
    use crate::matrix::Matrix;
    use crate::tape::Var;
    use std::ops::Range;

    /// One recorded operation. Variants hold the parent [`Var`]s plus any
    /// non-differentiable payload (indices, constants, targets).
    #[derive(Debug, Clone)]
    pub enum Op {
        /// Input: a constant or a mounted parameter. No parents.
        Leaf,
        /// `a · b`.
        MatMul(Var, Var),
        /// `x·w + b` with the `1×n` bias `b` broadcast over rows.
        Affine(Var, Var, Var),
        /// `a + b`, same shape.
        Add(Var, Var),
        /// `a[m,n] + b[1,n]` with `b` broadcast over rows.
        AddBroadcastRow(Var, Var),
        /// `a - b`, same shape.
        Sub(Var, Var),
        /// `a ∘ b` elementwise.
        Mul(Var, Var),
        /// `s · a`.
        Scale(Var, f32),
        /// `a + s` elementwise (the scalar is kept for Debug output).
        AddScalar(Var, #[allow(dead_code)] f32),
        /// Logistic sigmoid.
        Sigmoid(Var),
        /// Hyperbolic tangent.
        Tanh(Var),
        /// Rectified linear unit.
        Relu(Var),
        /// Elementwise cosine (time encodings).
        Cos(Var),
        /// Elementwise square root.
        Sqrt(Var),
        /// `[a ‖ b]` column concatenation.
        ConcatCols(Var, Var),
        /// Row gather (indices may repeat); backward is scatter-add.
        GatherRows(Var, Vec<usize>),
        /// Stack equal-width matrices top to bottom.
        StackRows(Vec<Var>),
        /// Row `i` is the column-wise mean of rows `segments[i]` of `a`.
        MeanRows(Var, Vec<Range<usize>>),
        /// Mean of all elements producing `1×1`.
        MeanAll(Var),
        /// Sum of all elements producing `1×1`.
        SumAll(Var),
        /// Row-wise squared Euclidean distance producing `m×1`.
        SqDistRows(Var, Var),
        /// Elementwise natural exponential.
        Exp(Var),
        /// Elementwise natural logarithm (inputs clamped at `LN_EPS`).
        Ln(Var),
        /// Column-wise maximum producing `1×n`; backward routes to the argmax
        /// row of each column (first occurrence on ties).
        MaxRows(Var),
        /// `a[m,n] ∘ b[1,n]` with `b` broadcast over rows.
        MulBroadcastRow(Var, Var),
        /// Row-wise standardisation `(x − μ_row) / sqrt(σ²_row + eps)`.
        NormalizeRows(Var, f32),
        /// Mean binary cross-entropy with logits against constant targets.
        BceWithLogits { logits: Var, targets: Matrix },
        /// Row `i` of `q` attends over rows `segments[i]` of `k`/`v`; the
        /// softmax weights of every segment, concatenated in segment order,
        /// are kept for the reverse pass.
        SegmentAttention {
            q: Var,
            k: Var,
            v: Var,
            segments: Vec<Range<usize>>,
            scale: f32,
            weights: Vec<f32>,
        },
    }

    /// How an evaluator keeps a computed value.
    pub trait Record {
        /// Whether the evaluator keeps ops for a reverse pass, and so the
        /// payloads (such as softmax weights) that only the reverse pass
        /// reads.
        const RECORDS: bool;

        /// The buffer the next variable's value is written into: on a
        /// tape the one that variable's slot held in the previous
        /// recording, on a forward-only evaluator an empty `Vec`, so the
        /// op allocates its value as a fresh matrix would.
        fn buffer(&mut self) -> Vec<f32>;

        /// A buffer for an op's scratch matrix of `len` values, handed
        /// back with [`Record::release`] once the op is done with it.
        fn scratch(&mut self, len: usize) -> Vec<f32>;

        /// Takes back a buffer from [`Record::scratch`].
        fn release(&mut self, buf: Vec<f32>);

        /// Stores `value` as a new variable. A recording evaluator also
        /// keeps `op()`; a forward-only one never builds it.
        fn push(&mut self, value: Matrix, op: impl FnOnce() -> Op) -> Var;
    }
}

/// The reverse pass in progress: the recording it runs over, the gradient
/// slots, and the tape's free list, from which every delta, gradient and
/// scratch transpose takes its buffer and to which each goes back once
/// spent.
pub(crate) struct Sweep<'t> {
    pub(crate) values: &'t [Matrix],
    pub(crate) ops: &'t [Op],
    pub(crate) grads: &'t mut [Option<Matrix>],
    pub(crate) free: &'t mut FreeList,
    /// Transposed leaf values for the `MatMul` rule `dA = G · Bᵀ`, built
    /// once per pass: a mounted weight feeds many products (one per
    /// neighbour row), and each would otherwise copy it into a fresh
    /// transpose.
    pub(crate) transposes: &'t mut HashMap<Var, Matrix>,
}

impl<'t> Sweep<'t> {
    /// Forward value of `var`.
    fn value(&self, var: Var) -> &'t Matrix {
        &self.values[var.index()]
    }

    /// A buffer for a delta of `len` values.
    fn buf(&mut self, len: usize) -> Vec<f32> {
        self.free.take(len)
    }

    /// Accumulates `delta` into the gradient slot for `var`, taking
    /// ownership on first touch and otherwise handing its buffer back.
    /// `delta` must have the value shape of `var`.
    fn acc(&mut self, var: Var, delta: Matrix) {
        match &mut self.grads[var.index()] {
            Some(g) => {
                g.add_assign(&delta);
                self.free.give(delta.into_data());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// [`Sweep::acc`] from a borrowed `delta`: copied only into an empty
    /// slot.
    fn acc_ref(&mut self, var: Var, delta: &Matrix) {
        match &mut self.grads[var.index()] {
            Some(g) => g.add_assign(delta),
            slot @ None => *slot = Some(delta.copy_into(self.free.take(delta.len()))),
        }
    }

    /// [`Sweep::acc`] of the block `src[rows, cols]`, read in place and
    /// copied only into an empty slot.
    fn acc_block(&mut self, var: Var, src: &Matrix, rows: Range<usize>, cols: Range<usize>) {
        let slot = &mut self.grads[var.index()];
        match slot {
            Some(g) => {
                for (dst_r, r) in rows.enumerate() {
                    for (d, &x) in g.row_mut(dst_r).iter_mut().zip(&src.row(r)[cols.clone()]) {
                        *d += x;
                    }
                }
            }
            None => {
                let (n_rows, n_cols) = (rows.len(), cols.len());
                let mut data = self.free.take(n_rows * n_cols);
                refit(&mut data, n_rows * n_cols);
                for r in rows {
                    data.extend_from_slice(&src.row(r)[cols.clone()]);
                }
                *slot = Some(Matrix::from_vec(n_rows, n_cols, data));
            }
        }
    }

    /// A zeroed matrix of `like`'s shape.
    fn zeros_like(&mut self, like: &Matrix) -> Matrix {
        Matrix::full_into(like.rows(), like.cols(), 0.0, self.buf(like.len()))
    }
}

/// `GatherRows` backward into an already-populated slot `g`: only the
/// gathered rows are touched. Each distinct source row's delta is built in
/// output order, `0.0 + g₁ + g₂ + …`, and added once. A scatter-add into a
/// zeroed source-sized matrix followed by `add_assign` forms the same sum
/// per gathered element, so the bits match. Repeated indices are grouped
/// by a stable sort, not a rescan.
fn scatter_add_rows(g: &mut Matrix, indices: &[usize], out_grad: &Matrix) {
    if indices.windows(2).all(|w| w[0] < w[1]) {
        // No repeats: every delta is a single `0.0 + g₁`.
        for (out_r, &src) in indices.iter().enumerate() {
            for (d, &x) in g.row_mut(src).iter_mut().zip(out_grad.row(out_r)) {
                *d += 0.0 + x;
            }
        }
        return;
    }
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_by_key(|&o| indices[o]);
    let mut delta = vec![0.0f32; out_grad.cols()];
    let mut i = 0;
    while i < order.len() {
        let src = indices[order[i]];
        delta.fill(0.0);
        while i < order.len() && indices[order[i]] == src {
            for (d, &x) in delta.iter_mut().zip(out_grad.row(order[i])) {
                *d += x;
            }
            i += 1;
        }
        for (d, &x) in g.row_mut(src).iter_mut().zip(&delta) {
            *d += x;
        }
    }
}

/// The `MatMul` rule for `a·b`: `dA = G·Bᵀ` (a leaf `B`'s transpose built
/// once per pass) and `dB = Aᵀ·G`.
fn matmul_backward(s: &mut Sweep, a: Var, b: Var, out_grad: &Matrix) {
    let (va, vb) = (s.value(a), s.value(b));
    let da_buf = s.buf(out_grad.rows() * vb.rows());
    let da = if matches!(s.ops[b.index()], Op::Leaf) {
        let free = &mut *s.free;
        let bt = s
            .transposes
            .entry(b)
            .or_insert_with(|| vb.transpose_into(free.take(vb.len())));
        out_grad.matmul_into(bt, da_buf)
    } else {
        let bt = vb.transpose_into(s.buf(vb.len()));
        let da = out_grad.matmul_into(&bt, da_buf);
        s.free.give(bt.into_data());
        da
    };
    s.acc(a, da);
    let db_buf = s.buf(va.cols() * out_grad.cols());
    s.acc(b, va.transpose_matmul_into(out_grad, db_buf));
}

/// Column sums of `g`, shaped `1×n`, written into `buf`: the gradient of
/// a bias row broadcast over `g`'s rows.
fn column_sums(g: &Matrix, buf: Vec<f32>) -> Matrix {
    let mut db = Matrix::full_into(1, g.cols(), 0.0, buf);
    for r in 0..g.rows() {
        for c in 0..g.cols() {
            db.data_mut()[c] += g.get(r, c);
        }
    }
    db
}

impl Op {
    /// Propagates `out_grad` (gradient of the loss w.r.t. this node's value)
    /// into the parents' gradient slots.
    pub(crate) fn backward(&self, s: &mut Sweep, out_value: &Matrix, out_grad: &Matrix) {
        let n = out_grad.len();
        match self {
            Op::Leaf => {}
            Op::MatMul(a, b) => matmul_backward(s, *a, *b, out_grad),
            Op::Affine(x, w, b) => {
                // The bias rule, then the product's, in the order the
                // unfused `add_broadcast_row_in_place(matmul(x, w), b)` ran them.
                let db = column_sums(out_grad, s.buf(out_grad.cols()));
                s.acc(*b, db);
                matmul_backward(s, *x, *w, out_grad);
            }
            Op::Add(a, b) => {
                s.acc_ref(*a, out_grad);
                s.acc_ref(*b, out_grad);
            }
            Op::AddBroadcastRow(a, b) => {
                s.acc_ref(*a, out_grad);
                let db = column_sums(out_grad, s.buf(out_grad.cols()));
                s.acc(*b, db);
            }
            Op::Sub(a, b) => {
                s.acc_ref(*a, out_grad);
                let db = out_grad.map_into(|x| -x, s.buf(n));
                s.acc(*b, db);
            }
            Op::Mul(a, b) => {
                let (va, vb) = (s.value(*a), s.value(*b));
                let da = out_grad.zip_into(vb, |g, y| g * y, s.buf(n));
                s.acc(*a, da);
                let db = out_grad.zip_into(va, |g, x| g * x, s.buf(n));
                s.acc(*b, db);
            }
            Op::Scale(a, k) => {
                let k = *k;
                let da = out_grad.map_into(|g| g * k, s.buf(n));
                s.acc(*a, da);
            }
            Op::AddScalar(a, _) => s.acc_ref(*a, out_grad),
            Op::Sigmoid(a) => {
                let da = out_grad.zip_into(out_value, |g, y| g * y * (1.0 - y), s.buf(n));
                s.acc(*a, da);
            }
            Op::Tanh(a) => {
                let da = out_grad.zip_into(out_value, |g, y| g * (1.0 - y * y), s.buf(n));
                s.acc(*a, da);
            }
            Op::Relu(a) => {
                let va = s.value(*a);
                let da = out_grad.zip_into(va, |g, x| if x > 0.0 { g } else { 0.0 }, s.buf(n));
                s.acc(*a, da);
            }
            Op::Cos(a) => {
                let va = s.value(*a);
                let da = out_grad.zip_into(va, |g, x| -g * x.sin(), s.buf(n));
                s.acc(*a, da);
            }
            Op::Sqrt(a) => {
                let da = out_grad.zip_into(out_value, |g, y| g * 0.5 / y.max(SQRT_EPS), s.buf(n));
                s.acc(*a, da);
            }
            Op::ConcatCols(a, b) => {
                let ca = s.value(*a).cols();
                let (rows, cols) = out_grad.shape();
                s.acc_block(*a, out_grad, 0..rows, 0..ca);
                s.acc_block(*b, out_grad, 0..rows, ca..cols);
            }
            Op::GatherRows(a, indices) => match &mut s.grads[a.index()] {
                Some(g) => scatter_add_rows(g, indices, out_grad),
                None => {
                    let mut da = s.zeros_like(s.value(*a));
                    for (out_r, &src_r) in indices.iter().enumerate() {
                        for (d, &x) in da.row_mut(src_r).iter_mut().zip(out_grad.row(out_r)) {
                            *d += x;
                        }
                    }
                    s.grads[a.index()] = Some(da);
                }
            },
            Op::StackRows(parts) => {
                let mut start = 0;
                for part in parts {
                    let end = start + s.value(*part).rows();
                    s.acc_block(*part, out_grad, start..end, 0..out_grad.cols());
                    start = end;
                }
            }
            Op::MeanRows(a, segments) => {
                let mut da = s.zeros_like(s.value(*a));
                for (i, seg) in segments.iter().enumerate() {
                    let m = seg.len() as f32;
                    for r in seg.clone() {
                        for (d, &g) in da.row_mut(r).iter_mut().zip(out_grad.row(i)) {
                            *d += g / m;
                        }
                    }
                }
                s.acc(*a, da);
            }
            Op::MeanAll(a) => {
                let va = s.value(*a);
                let g = out_grad.get(0, 0) / va.len().max(1) as f32;
                let da = Matrix::full_into(va.rows(), va.cols(), g, s.buf(va.len()));
                s.acc(*a, da);
            }
            Op::SumAll(a) => {
                let va = s.value(*a);
                let da =
                    Matrix::full_into(va.rows(), va.cols(), out_grad.get(0, 0), s.buf(va.len()));
                s.acc(*a, da);
            }
            Op::SqDistRows(a, b) => {
                let (va, vb) = (s.value(*a), s.value(*b));
                let mut da = s.zeros_like(va);
                let mut db = s.zeros_like(vb);
                for r in 0..va.rows() {
                    let g = out_grad.get(r, 0);
                    let ra = va.row(r);
                    let rb = vb.row(r);
                    let dra = da.row_mut(r);
                    for c in 0..ra.len() {
                        dra[c] = 2.0 * g * (ra[c] - rb[c]);
                    }
                    let drb = db.row_mut(r);
                    for c in 0..ra.len() {
                        drb[c] = -2.0 * g * (ra[c] - rb[c]);
                    }
                }
                s.acc(*a, da);
                s.acc(*b, db);
            }
            Op::Exp(a) => {
                let da = out_grad.zip_into(out_value, |g, y| g * y, s.buf(n));
                s.acc(*a, da);
            }
            Op::Ln(a) => {
                let va = s.value(*a);
                let da = out_grad.zip_into(va, |g, x| g / x.max(LN_EPS), s.buf(n));
                s.acc(*a, da);
            }
            Op::MaxRows(a) => {
                let va = s.value(*a);
                let mut da = s.zeros_like(va);
                for c in 0..va.cols() {
                    let mut best_r = 0;
                    for r in 1..va.rows() {
                        if va.get(r, c) > va.get(best_r, c) {
                            best_r = r;
                        }
                    }
                    da.set(best_r, c, out_grad.get(0, c));
                }
                s.acc(*a, da);
            }
            Op::MulBroadcastRow(a, b) => {
                let (va, vb) = (s.value(*a), s.value(*b));
                // da = g ∘ b broadcast over rows.
                let mut da = s.zeros_like(va);
                let mut db = Matrix::full_into(1, vb.cols(), 0.0, s.buf(vb.cols()));
                for r in 0..va.rows() {
                    for c in 0..va.cols() {
                        let g = out_grad.get(r, c);
                        da.set(r, c, g * vb.get(0, c));
                        db.data_mut()[c] += g * va.get(r, c);
                    }
                }
                s.acc(*a, da);
                s.acc(*b, db);
            }
            Op::NormalizeRows(a, eps) => {
                // With y = (x − μ)/σ per row:
                // dx = (1/σ)·(g − mean(g) − y·mean(g ∘ y)).
                let va = s.value(*a);
                let n = va.cols().max(1) as f32;
                let mut da = s.zeros_like(va);
                for r in 0..va.rows() {
                    let x = va.row(r);
                    let y = out_value.row(r);
                    let g = out_grad.row(r);
                    let mu: f32 = x.iter().sum::<f32>() / n;
                    let var: f32 = x.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / n;
                    let sigma = (var + eps).sqrt();
                    let g_mean: f32 = g.iter().sum::<f32>() / n;
                    let gy_mean: f32 = g
                        .iter()
                        .zip(y.iter())
                        .map(|(&gi, &yi)| gi * yi)
                        .sum::<f32>()
                        / n;
                    let dst = da.row_mut(r);
                    for c in 0..x.len() {
                        dst[c] = (g[c] - g_mean - y[c] * gy_mean) / sigma;
                    }
                }
                s.acc(*a, da);
            }
            Op::BceWithLogits { logits, targets } => {
                let x = s.value(*logits);
                let g = out_grad.get(0, 0) / x.len().max(1) as f32;
                // d/dx mean BCE = (σ(x) - y) / n.
                let dx = x.zip_into(targets, |xi, yi| g * (sigmoid(xi) - yi), s.buf(x.len()));
                s.acc(*logits, dx);
            }
            Op::SegmentAttention {
                q,
                k,
                v,
                segments,
                scale,
                weights,
            } => {
                let (vq, vk, vv) = (s.value(*q), s.value(*k), s.value(*v));
                let bufs = [vq, vk, vv].map(|x| s.buf(x.len()));
                let [dq, dk, dv] = segment_attention_backward(
                    vq, vk, vv, segments, *scale, weights, out_grad, bufs,
                );
                // The four products' flops, as the forward counts its two.
                cpdg_obs::counter!("matmul.flops")
                    .add(4 * (weights.len() * (vq.cols() + vv.cols())) as u64);
                s.acc(*q, dq);
                s.acc(*k, dk);
                s.acc(*v, dv);
            }
        }
    }
}

/// `[dQ, dK, dV]` of [`Op::SegmentAttention`] for the incoming gradient
/// `out_grad`, written into `bufs`, running the AVX2 instance of
/// [`segment_attention_backward_body`] where the CPU has AVX2.
#[allow(clippy::too_many_arguments)]
fn segment_attention_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
    bufs: [Vec<f32>; 3],
) -> [Matrix; 3] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, as checked on the line above.
        return unsafe {
            segment_attention_backward_avx2(q, k, v, segments, scale, weights, out_grad, bufs)
        };
    }
    segment_attention_backward_body(q, k, v, segments, scale, weights, out_grad, bufs)
}

/// [`segment_attention_backward_body`] compiled for AVX2: the same
/// operations in the same order, with no FMA, so the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn segment_attention_backward_avx2(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
    bufs: [Vec<f32>; 3],
) -> [Matrix; 3] {
    segment_attention_backward_body(q, k, v, segments, scale, weights, out_grad, bufs)
}

/// The segmented-attention backward, inlined into each instance: `dV`,
/// the softmax VJP (times the score scale), `dQ` and `dK`, each added in
/// place into one output-sized matrix, with one scratch row for the pass.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn segment_attention_backward_body(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
    [bq, bk, bv]: [Vec<f32>; 3],
) -> [Matrix; 3] {
    let zeros = |x: &Matrix, buf| Matrix::full_into(x.rows(), x.cols(), 0.0, buf);
    let (mut dq, mut dk, mut dv) = (zeros(q, bq), zeros(k, bk), zeros(v, bv));
    let longest = segments.iter().map(|seg| seg.len()).max().unwrap_or(0);
    let mut dscore = vec![0.0f32; longest];
    let mut offset = 0;
    for (i, seg) in segments.iter().enumerate() {
        let w = &weights[offset..offset + seg.len()];
        offset += seg.len();
        let g = out_grad.row(i);
        let ds = &mut dscore[..seg.len()];
        // Mixing: dV_j += w_j·g, dw_j = ⟨g, V_j⟩.
        for ((j, &wj), dsj) in seg.clone().zip(w).zip(ds.iter_mut()) {
            axpy(dv.row_mut(j), wj, g);
            *dsj = dot(g, v.row(j));
        }
        // Softmax, then the score scale: ds = s·w∘(dw − ⟨dw, w⟩).
        let inner = dot(ds, w);
        for (dsj, &wj) in ds.iter_mut().zip(w) {
            *dsj = wj * (*dsj - inner) * scale;
        }
        // Scores: dQ_i = Σ_j ds_j·K_j, dK_j += ds_j·Q_i.
        for (j, &dsj) in seg.clone().zip(ds.iter()) {
            axpy(dq.row_mut(i), dsj, k.row(j));
            axpy(dk.row_mut(j), dsj, q.row(i));
        }
    }
    [dq, dk, dv]
}

/// `⟨a, b⟩`, accumulated in index order.
#[inline(always)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Forward of [`Op::SegmentAttention`] on plain values, the keys given
/// transposed (`kt` is `kᵀ`) and the mix written into `out`: row `i` of
/// `q` scores rows `segments[i]` of `k` (`vec_matmul_block_into` over `kᵀ`),
/// scales by `scale`, takes the softmax and mixes the same rows of `v`
/// into output row `i`. Returns the `segments.len() × v.cols()` mix and,
/// when `keep_weights` is set, the softmax weights of every segment,
/// concatenated in segment order (empty otherwise). The scores of each
/// segment go through one scratch row. Each output row runs the products
/// of a lone `1 × a` query against its segment, so it is bit-identical to
/// attending that query alone, with or without the weights kept.
///
/// # Panics
/// Panics when `segments` does not hold one non-empty in-range row range
/// per row of `q`.
pub(crate) fn segment_attention(
    q: &Matrix,
    kt: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    keep_weights: bool,
    out: Vec<f32>,
) -> (Matrix, Vec<f32>) {
    assert_eq!(
        q.rows(),
        segments.len(),
        "segment_attention: one segment per query row"
    );
    assert_eq!(
        q.cols(),
        kt.rows(),
        "segment_attention: query and key widths differ"
    );
    assert_eq!(
        kt.cols(),
        v.rows(),
        "segment_attention: keys and values differ in rows"
    );
    let mut mixed = Matrix::full_into(segments.len(), v.cols(), 0.0, out);
    let mut weights = Vec::with_capacity(if keep_weights {
        segments.iter().map(|seg| seg.len()).sum()
    } else {
        0
    });
    let longest = segments.iter().map(|seg| seg.len()).max().unwrap_or(0);
    let mut scratch = vec![0.0f32; longest];
    for (i, seg) in segments.iter().enumerate() {
        assert!(
            !seg.is_empty(),
            "segment_attention: need at least one neighbour row (include the centre node itself)"
        );
        let w = &mut scratch[..seg.len()];
        w.fill(0.0);
        kt.vec_matmul_block_into(q.row(i), 0..q.cols(), seg.clone(), w);
        for x in w.iter_mut() {
            *x *= scale;
        }
        softmax_in_place(w);
        v.vec_matmul_block_into(w, seg.clone(), 0..v.cols(), mixed.row_mut(i));
        if keep_weights {
            weights.extend_from_slice(w);
        }
    }
    (mixed, weights)
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Softmax of one row, in place: `exp(x − max)` normalised by its sum (a
/// row whose sum underflows to zero is left unnormalised).
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Numerically stable `log(1 + e^x)`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense `GatherRows` backward into a populated slot that the sparse
    /// path replaced: a zeroed source-sized delta, scatter-added in output
    /// order, then added to the slot whole.
    fn dense_gather_backward(slot: &mut Matrix, indices: &[usize], out_grad: &Matrix) {
        let mut da = Matrix::zeros(slot.rows(), slot.cols());
        for (out_r, &src) in indices.iter().enumerate() {
            for (d, &x) in da.row_mut(src).iter_mut().zip(out_grad.row(out_r)) {
                *d += x;
            }
        }
        slot.add_assign(&da);
    }

    /// Values spread over six decades, so a change in summation order
    /// shows in the low bits; every seventh entry is `-0.0`.
    fn spread_matrix(rows: usize, cols: usize, mut state: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 33) as f32 / (1u64 << 31) as f32;
                if i % 7 == 3 {
                    -0.0
                } else {
                    (u - 0.5) * 10f32.powi((state >> 60) as i32 % 6 - 3)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn sparse_gather_backward_matches_dense_bitwise() {
        let cases: [&[usize]; 5] = [
            &[3, 0, 3, 3, 1, 0],
            &[5, 5, 5, 5],
            &[2, 4, 2],
            &[0, 2, 5],
            &[4],
        ];
        for (seed, indices) in cases.iter().enumerate() {
            let out_grad = spread_matrix(indices.len(), 5, 2 * seed as u64 + 1);
            // Populated slot; rows the gather does not touch hold no -0.0,
            // which the dense path's `+ 0.0` would have turned into +0.0.
            let mut populated = spread_matrix(6, 5, 2 * seed as u64 + 2);
            for r in (0..6).filter(|r| !indices.contains(r)) {
                populated.row_mut(r).iter_mut().for_each(|x| *x += 0.0);
            }
            let mut sparse = populated.clone();
            scatter_add_rows(&mut sparse, indices, &out_grad);
            let mut dense = populated;
            dense_gather_backward(&mut dense, indices, &out_grad);
            for (i, (s, d)) in sparse.data().iter().zip(dense.data()).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    d.to_bits(),
                    "{indices:?}: flat index {i}: {s} vs {d}"
                );
            }
        }
    }

    /// [`segment_attention`] over untransposed keys, into a fresh matrix.
    fn attend(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        segments: &[Range<usize>],
        scale: f32,
        keep_weights: bool,
    ) -> (Matrix, Vec<f32>) {
        segment_attention(
            q,
            &k.transpose(),
            v,
            segments,
            scale,
            keep_weights,
            Vec::new(),
        )
    }

    /// The segmented-attention backward as scalar index loops, each
    /// element summed in the order of the kernels' row updates.
    fn segment_attention_backward_reference(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        segments: &[Range<usize>],
        scale: f32,
        weights: &[f32],
        g: &Matrix,
    ) -> [Matrix; 3] {
        let [mut dq, mut dk, mut dv] = [q, k, v].map(|x| Matrix::zeros(x.rows(), x.cols()));
        let mut offset = 0;
        for (i, seg) in segments.iter().enumerate() {
            let w = &weights[offset..offset + seg.len()];
            offset += seg.len();
            let mut ds = vec![0.0f32; seg.len()];
            for (s, j) in seg.clone().enumerate() {
                for c in 0..v.cols() {
                    dv.set(j, c, dv.get(j, c) + w[s] * g.get(i, c));
                    ds[s] += g.get(i, c) * v.get(j, c);
                }
            }
            let mut inner = 0.0f32;
            for s in 0..seg.len() {
                inner += ds[s] * w[s];
            }
            for (s, j) in seg.clone().enumerate() {
                let d = w[s] * (ds[s] - inner) * scale;
                for c in 0..q.cols() {
                    dq.set(i, c, dq.get(i, c) + d * k.get(j, c));
                    dk.set(j, c, dk.get(j, c) + d * q.get(i, c));
                }
            }
        }
        [dq, dk, dv]
    }

    #[test]
    fn segment_attention_gradients_match_the_reference_bit_for_bit() {
        type Backward = fn(
            &Matrix,
            &Matrix,
            &Matrix,
            &[Range<usize>],
            f32,
            &[f32],
            &Matrix,
            [Vec<f32>; 3],
        ) -> [Matrix; 3];
        let mut instances: Vec<(&str, Backward)> =
            vec![("portable", segment_attention_backward_body)];
        if crate::matrix::avx2_instance_runs(
            "segment_attention_gradients_match_the_reference_bit_for_bit",
        ) {
            instances.push(("avx2", segment_attention_backward));
        }
        // Overlapping segments, so rows of dK and dV sum over several
        // queries; widths below, at and past one 8-lane vector.
        let segments = [0..3, 2..9, 5..6, 0..9, 7..9];
        for (seed, (qk_width, v_width)) in [(3, 5), (8, 16), (19, 33)].into_iter().enumerate() {
            let seed = 10 * seed as u64;
            let q = spread_matrix(segments.len(), qk_width, seed + 1);
            let k = spread_matrix(9, qk_width, seed + 2);
            let v = spread_matrix(9, v_width, seed + 3);
            let (_, weights) = attend(&q, &k, &v, &segments, 0.25, true);
            let g = spread_matrix(segments.len(), v_width, seed + 4);
            let want =
                segment_attention_backward_reference(&q, &k, &v, &segments, 0.25, &weights, &g);
            for &(name, backward) in &instances {
                let got = backward(
                    &q,
                    &k,
                    &v,
                    &segments,
                    0.25,
                    &weights,
                    &g,
                    Default::default(),
                );
                for (part, (got, want)) in ["dQ", "dK", "dV"].iter().zip(got.iter().zip(&want)) {
                    let (got, want): (Vec<u32>, Vec<u32>) = (
                        got.data().iter().map(|x| x.to_bits()).collect(),
                        want.data().iter().map(|x| x.to_bits()).collect(),
                    );
                    assert_eq!(got, want, "{name} {part} at widths {qk_width}/{v_width}");
                }
            }
        }
    }

    #[test]
    fn segment_attention_output_is_identical_with_and_without_weights() {
        let segments = [0..3, 2..9, 5..6, 0..9, 7..9];
        let q = spread_matrix(segments.len(), 8, 51);
        let k = spread_matrix(9, 8, 52);
        let v = spread_matrix(9, 11, 53);
        let (kept, weights) = attend(&q, &k, &v, &segments, 0.35, true);
        let (dropped, none) = attend(&q, &k, &v, &segments, 0.35, false);
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&kept), bits(&dropped));
        assert_eq!(weights.len(), 3 + 7 + 1 + 9 + 2);
        assert!(none.is_empty() && none.capacity() == 0, "no weights kept");
        // Each row equals its lone query's softmax(scale · q·kᵀ)·v.
        for (i, seg) in segments.iter().enumerate() {
            let block = |m: &Matrix| m.gather_rows(&seg.clone().collect::<Vec<_>>());
            let mut w = q.row_matrix(i).matmul(&block(&k).transpose());
            w.scale_inplace(0.35);
            softmax_in_place(w.data_mut());
            assert_eq!(bits(&w.matmul(&block(&v))), bits(&dropped.row_matrix(i)));
        }
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for &x in &[-50.0, -3.0, -0.5, 0.5, 3.0, 50.0] {
            let s = sigmoid(x);
            assert!(
                s.is_finite() && (0.0..=1.0).contains(&s),
                "sigmoid({x}) = {s}"
            );
            assert!((sigmoid(-x) - (1.0 - s)).abs() < 1e-6);
        }
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-5);
        }
        // And stays finite where the naive form overflows.
        assert!(softplus(200.0).is_finite());
        assert!((softplus(200.0) - 200.0).abs() < 1e-3);
    }
}
