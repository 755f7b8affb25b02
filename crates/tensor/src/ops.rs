//! Differentiable operations: the op set recorded on the tape and the
//! backward (vector-Jacobian product) rule for each.
//!
//! Forward evaluation lives in [`crate::Forward`]'s provided methods, shared
//! by both evaluators; this module owns the op metadata and the reverse
//! pass. The split keeps the
//! backward rules — the part most likely to harbour silent bugs — in one
//! place where the finite-difference tests in `tests` can cover them
//! exhaustively.

use crate::matrix::{axpy, Matrix};
use crate::tape::Var;
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

        /// Stores `value` as a new variable. A recording evaluator also
        /// keeps `op()`; a forward-only one never builds it.
        fn push(&mut self, value: Matrix, op: impl FnOnce() -> Op) -> Var;
    }
}

/// Transposed leaf values for the `MatMul` rule `dA = G · Bᵀ`, built once
/// per reverse pass: a mounted weight feeds many products (one per
/// neighbour row), and each would otherwise copy it into a fresh transpose.
pub(crate) struct LeafTransposes<'t> {
    ops: &'t [Op],
    cache: HashMap<Var, Matrix>,
}

impl<'t> LeafTransposes<'t> {
    pub(crate) fn new(ops: &'t [Op]) -> Self {
        Self {
            ops,
            cache: HashMap::new(),
        }
    }

    /// `values[var]ᵀ` if `var` is a leaf; `None` for an op output.
    fn get(&mut self, values: &[Matrix], var: Var) -> Option<&Matrix> {
        if !matches!(self.ops[var.index()], Op::Leaf) {
            return None;
        }
        Some(
            self.cache
                .entry(var)
                .or_insert_with(|| values[var.index()].transpose()),
        )
    }
}

/// Accumulates `delta` into the gradient slot for `var`, taking ownership
/// on first touch. `delta` must have the value shape of `var`.
fn acc(grads: &mut [Option<Matrix>], var: Var, delta: Matrix) {
    match &mut grads[var.index()] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// [`acc`] from a borrowed `delta`: cloned only into an empty slot.
fn acc_ref(grads: &mut [Option<Matrix>], var: Var, delta: &Matrix) {
    match &mut grads[var.index()] {
        Some(g) => g.add_assign(delta),
        slot @ None => *slot = Some(delta.clone()),
    }
}

/// [`acc`] of the block `src[rows, cols]`, read in place and copied only
/// into an empty slot.
fn acc_block(
    grads: &mut [Option<Matrix>],
    var: Var,
    src: &Matrix,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    let slot = &mut grads[var.index()];
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
            let mut data = Vec::with_capacity(n_rows * n_cols);
            for r in rows {
                data.extend_from_slice(&src.row(r)[cols.clone()]);
            }
            *slot = Some(Matrix::from_vec(n_rows, n_cols, data));
        }
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
fn matmul_backward(
    values: &[Matrix],
    a: Var,
    b: Var,
    out_grad: &Matrix,
    grads: &mut [Option<Matrix>],
    transposes: &mut LeafTransposes,
) {
    let da = match transposes.get(values, b) {
        Some(bt) => out_grad.matmul(bt),
        None => out_grad.matmul(&values[b.index()].transpose()),
    };
    acc(grads, a, da);
    acc(grads, b, values[a.index()].transpose_matmul(out_grad));
}

/// Column sums of `g`, shaped `1×n`: the gradient of a bias row broadcast
/// over `g`'s rows.
fn column_sums(g: &Matrix) -> Matrix {
    let mut db = Matrix::zeros(1, g.cols());
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
    pub(crate) fn backward(
        &self,
        values: &[Matrix],
        out_value: &Matrix,
        out_grad: &Matrix,
        grads: &mut [Option<Matrix>],
        transposes: &mut LeafTransposes,
    ) {
        match self {
            Op::Leaf => {}
            Op::MatMul(a, b) => matmul_backward(values, *a, *b, out_grad, grads, transposes),
            Op::Affine(x, w, b) => {
                // The bias rule, then the product's, in the order the
                // unfused `add_broadcast_row_in_place(matmul(x, w), b)` ran them.
                acc(grads, *b, column_sums(out_grad));
                matmul_backward(values, *x, *w, out_grad, grads, transposes);
            }
            Op::Add(a, b) => {
                acc_ref(grads, *a, out_grad);
                acc_ref(grads, *b, out_grad);
            }
            Op::AddBroadcastRow(a, b) => {
                acc_ref(grads, *a, out_grad);
                acc(grads, *b, column_sums(out_grad));
            }
            Op::Sub(a, b) => {
                acc(grads, *a, out_grad.clone());
                acc(grads, *b, out_grad.map(|x| -x));
            }
            Op::Mul(a, b) => {
                let va = &values[a.index()];
                let vb = &values[b.index()];
                acc(grads, *a, out_grad.zip(vb, |g, y| g * y));
                acc(grads, *b, out_grad.zip(va, |g, x| g * x));
            }
            Op::Scale(a, s) => {
                let s = *s;
                acc(grads, *a, out_grad.map(|g| g * s));
            }
            Op::AddScalar(a, _) => {
                acc_ref(grads, *a, out_grad);
            }
            Op::Sigmoid(a) => {
                acc(grads, *a, out_grad.zip(out_value, |g, y| g * y * (1.0 - y)));
            }
            Op::Tanh(a) => {
                acc(grads, *a, out_grad.zip(out_value, |g, y| g * (1.0 - y * y)));
            }
            Op::Relu(a) => {
                let va = &values[a.index()];
                acc(
                    grads,
                    *a,
                    out_grad.zip(va, |g, x| if x > 0.0 { g } else { 0.0 }),
                );
            }
            Op::Cos(a) => {
                let va = &values[a.index()];
                acc(grads, *a, out_grad.zip(va, |g, x| -g * x.sin()));
            }
            Op::Sqrt(a) => {
                acc(
                    grads,
                    *a,
                    out_grad.zip(out_value, |g, y| g * 0.5 / y.max(SQRT_EPS)),
                );
            }
            Op::ConcatCols(a, b) => {
                let ca = values[a.index()].cols();
                let (rows, cols) = out_grad.shape();
                acc_block(grads, *a, out_grad, 0..rows, 0..ca);
                acc_block(grads, *b, out_grad, 0..rows, ca..cols);
            }
            Op::GatherRows(a, indices) => match &mut grads[a.index()] {
                Some(g) => scatter_add_rows(g, indices, out_grad),
                slot @ None => {
                    let va = &values[a.index()];
                    let mut da = Matrix::zeros(va.rows(), va.cols());
                    for (out_r, &src_r) in indices.iter().enumerate() {
                        for (d, &x) in da.row_mut(src_r).iter_mut().zip(out_grad.row(out_r)) {
                            *d += x;
                        }
                    }
                    *slot = Some(da);
                }
            },
            Op::StackRows(parts) => {
                let mut start = 0;
                for part in parts {
                    let end = start + values[part.index()].rows();
                    acc_block(grads, *part, out_grad, start..end, 0..out_grad.cols());
                    start = end;
                }
            }
            Op::MeanRows(a, segments) => {
                let va = &values[a.index()];
                let mut da = Matrix::zeros(va.rows(), va.cols());
                for (i, seg) in segments.iter().enumerate() {
                    let m = seg.len() as f32;
                    for r in seg.clone() {
                        for (d, &g) in da.row_mut(r).iter_mut().zip(out_grad.row(i)) {
                            *d += g / m;
                        }
                    }
                }
                acc(grads, *a, da);
            }
            Op::MeanAll(a) => {
                let va = &values[a.index()];
                let n = va.len().max(1) as f32;
                let g = out_grad.get(0, 0) / n;
                acc(grads, *a, Matrix::full(va.rows(), va.cols(), g));
            }
            Op::SumAll(a) => {
                let va = &values[a.index()];
                let g = out_grad.get(0, 0);
                acc(grads, *a, Matrix::full(va.rows(), va.cols(), g));
            }
            Op::SqDistRows(a, b) => {
                let va = &values[a.index()];
                let vb = &values[b.index()];
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(vb.rows(), vb.cols());
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
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::Exp(a) => {
                acc(grads, *a, out_grad.zip(out_value, |g, y| g * y));
            }
            Op::Ln(a) => {
                let va = &values[a.index()];
                acc(grads, *a, out_grad.zip(va, |g, x| g / x.max(LN_EPS)));
            }
            Op::MaxRows(a) => {
                let va = &values[a.index()];
                let mut da = Matrix::zeros(va.rows(), va.cols());
                for c in 0..va.cols() {
                    let mut best_r = 0;
                    for r in 1..va.rows() {
                        if va.get(r, c) > va.get(best_r, c) {
                            best_r = r;
                        }
                    }
                    da.set(best_r, c, out_grad.get(0, c));
                }
                acc(grads, *a, da);
            }
            Op::MulBroadcastRow(a, b) => {
                let va = &values[a.index()];
                let vb = &values[b.index()];
                // da = g ∘ b broadcast over rows.
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(1, vb.cols());
                for r in 0..va.rows() {
                    for c in 0..va.cols() {
                        let g = out_grad.get(r, c);
                        da.set(r, c, g * vb.get(0, c));
                        db.data_mut()[c] += g * va.get(r, c);
                    }
                }
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::NormalizeRows(a, eps) => {
                // With y = (x − μ)/σ per row:
                // dx = (1/σ)·(g − mean(g) − y·mean(g ∘ y)).
                let va = &values[a.index()];
                let n = va.cols().max(1) as f32;
                let mut da = Matrix::zeros(va.rows(), va.cols());
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
                acc(grads, *a, da);
            }
            Op::BceWithLogits { logits, targets } => {
                let x = &values[logits.index()];
                let n = x.len().max(1) as f32;
                let g = out_grad.get(0, 0) / n;
                // d/dx mean BCE = (σ(x) - y) / n.
                let dx = x.zip(targets, |xi, yi| g * (sigmoid(xi) - yi));
                acc(grads, *logits, dx);
            }
            Op::SegmentAttention {
                q,
                k,
                v,
                segments,
                scale,
                weights,
            } => {
                let (vq, vk, vv) = (&values[q.index()], &values[k.index()], &values[v.index()]);
                let [dq, dk, dv] =
                    segment_attention_backward(vq, vk, vv, segments, *scale, weights, out_grad);
                // The four products' flops, as the forward counts its two.
                cpdg_obs::counter!("matmul.flops")
                    .add(4 * (weights.len() * (vq.cols() + vv.cols())) as u64);
                acc(grads, *q, dq);
                acc(grads, *k, dk);
                acc(grads, *v, dv);
            }
        }
    }
}

/// `[dQ, dK, dV]` of [`Op::SegmentAttention`] for the incoming gradient
/// `out_grad`, running the AVX2 instance of
/// [`segment_attention_backward_body`] where the CPU has AVX2.
fn segment_attention_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
) -> [Matrix; 3] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, as checked on the line above.
        return unsafe {
            segment_attention_backward_avx2(q, k, v, segments, scale, weights, out_grad)
        };
    }
    segment_attention_backward_body(q, k, v, segments, scale, weights, out_grad)
}

/// [`segment_attention_backward_body`] compiled for AVX2: the same
/// operations in the same order, with no FMA, so the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn segment_attention_backward_avx2(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
) -> [Matrix; 3] {
    segment_attention_backward_body(q, k, v, segments, scale, weights, out_grad)
}

/// The segmented-attention backward, inlined into each instance: `dV`,
/// the softmax VJP (times the score scale), `dQ` and `dK`, each added in
/// place into one output-sized matrix, with one scratch row for the pass.
#[inline(always)]
fn segment_attention_backward_body(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    weights: &[f32],
    out_grad: &Matrix,
) -> [Matrix; 3] {
    let [mut dq, mut dk, mut dv] = [q, k, v].map(|x| Matrix::zeros(x.rows(), x.cols()));
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

/// Forward of [`Op::SegmentAttention`] on plain values: row `i` of `q`
/// scores rows `segments[i]` of `k` (`vec_matmul_block_into` over `kᵀ`),
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
    k: &Matrix,
    v: &Matrix,
    segments: &[Range<usize>],
    scale: f32,
    keep_weights: bool,
) -> (Matrix, Vec<f32>) {
    assert_eq!(
        q.rows(),
        segments.len(),
        "segment_attention: one segment per query row"
    );
    assert_eq!(
        q.cols(),
        k.cols(),
        "segment_attention: query and key widths differ"
    );
    assert_eq!(
        k.rows(),
        v.rows(),
        "segment_attention: keys and values differ in rows"
    );
    let kt = k.transpose();
    let mut mixed = Matrix::zeros(segments.len(), v.cols());
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
        type Backward =
            fn(&Matrix, &Matrix, &Matrix, &[Range<usize>], f32, &[f32], &Matrix) -> [Matrix; 3];
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
            let (_, weights) = segment_attention(&q, &k, &v, &segments, 0.25, true);
            let g = spread_matrix(segments.len(), v_width, seed + 4);
            let want =
                segment_attention_backward_reference(&q, &k, &v, &segments, 0.25, &weights, &g);
            for &(name, backward) in &instances {
                let got = backward(&q, &k, &v, &segments, 0.25, &weights, &g);
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
        let (kept, weights) = segment_attention(&q, &k, &v, &segments, 0.35, true);
        let (dropped, none) = segment_attention(&q, &k, &v, &segments, 0.35, false);
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
