//! Dense row-major `f32` matrices.
//!
//! This is the storage layer underneath the autodiff tape: plain values with
//! no gradient tracking. All shapes in the CPDG stack are 2-D (a vector is a
//! `1×n` or `n×1` matrix), which keeps the op set small and fully testable.
//!
//! Both products, `a · b` and `aᵀ · b`, run one register-tiled kernel
//! ([`product_block`]). An `MR × NR` block of output accumulators lives in
//! locals while the inner index walks ascending from `+0`; each step adds
//! `MR` values of `a` times one `NR`-wide slice of a row of `b`, with no
//! per-term branch. Every output element therefore sums its terms in the
//! order of a naive ascending loop, whatever the tile or the depth block.
//! The naive loop's `a == 0` skip only matters where the element comes out
//! non-finite; such a product is recomputed with the skip.
//!
//! The kernel body is compiled twice, for the default target and for
//! AVX2, and each product runs the AVX2 instance where the CPU has it.
//! Neither enables FMA, so both give the same bits.

use std::fmt;
use std::ops::Range;

/// Height of the register tile (output rows accumulated together).
const MR: usize = 4;

/// Width of the register tile (output columns accumulated together).
const NR: usize = 16;

/// Depth block: the rows of `b` every row tile walks before the kernel
/// moves on, so that block of `b` stays in cache across the row tiles.
const KC: usize = 256;

/// `out += a · row`: the inner step of the skipping product loops.
#[inline(always)]
pub(crate) fn axpy(out: &mut [f32], a: f32, row: &[f32]) {
    for (o, &b) in out.iter_mut().zip(row) {
        *o += a * b;
    }
}

/// How a product block reads its left operand `a` (a row-major slice with
/// rows of the given length): the value that multiplies row `p` of `b`
/// into output row `i` is `a[i][p]` for `a · b` and `a[p][i]` for `aᵀ · b`.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    Rows(&'a [f32], usize),
    Cols(&'a [f32], usize),
}

impl Lhs<'_> {
    fn at(self, i: usize, p: usize) -> f32 {
        match self {
            Lhs::Rows(a, k) => a[i * k + p],
            Lhs::Cols(a, k) => a[p * k + i],
        }
    }
}

/// Computes `out[i][j] = Σₚ lhs(i, p) · b[p][j]` over `p` in `0..depth`
/// for every row `i` of `out` (`n` wide, overwritten), running the
/// AVX2 instance of [`product_block_body`] where the CPU has AVX2.
fn product_block(lhs: Lhs, depth: usize, b: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, as checked on the line above.
        return unsafe { product_block_avx2(lhs, depth, b, n, out) };
    }
    product_block_body(lhs, depth, b, n, out)
}

/// [`product_block_body`] compiled for AVX2: the same operations in the
/// same order, 8 lanes wide. No FMA is enabled, and Rust never fuses
/// `a * b + c`, so the bits equal the portable instance's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_block_avx2(lhs: Lhs, depth: usize, b: &[f32], n: usize, out: &mut [f32]) {
    product_block_body(lhs, depth, b, n, out)
}

/// The product kernel, inlined into each instance so that each compiles
/// for its own target features.
///
/// The fast pass adds every term, ascending from `+0`. Such an
/// accumulator is never `−0`, so adding `0 · x` for a finite `x` leaves it
/// unchanged: the pass differs from the skipping loop (`lhs(i, p) == 0`
/// terms left out) only where a skipped term is `0 · ±∞` or `0 · NaN`, and
/// that term makes the element NaN. One scan for non-finite output finds
/// every such product, which is then recomputed with the skip, so the
/// result is bit-identical to the skipping loop in every case.
#[inline(always)]
fn product_block_body(lhs: Lhs, depth: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    if depth == 0 {
        out.fill(0.0);
        return;
    }
    let rows = out.len() / n;
    for p0 in (0..depth).step_by(KC) {
        let ps = p0..(p0 + KC).min(depth);
        for i0 in (0..rows).step_by(MR) {
            match rows - i0 {
                1 => row_tile::<1>(lhs, i0, ps.clone(), b, n, out),
                2 => row_tile::<2>(lhs, i0, ps.clone(), b, n, out),
                3 => row_tile::<3>(lhs, i0, ps.clone(), b, n, out),
                _ => row_tile::<MR>(lhs, i0, ps.clone(), b, n, out),
            }
        }
    }
    if out.iter().all(|x| x.is_finite()) {
        return;
    }
    out.fill(0.0);
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for p in 0..depth {
            let av = lhs.at(i, p);
            if av != 0.0 {
                axpy(out_row, av, &b[p * n..(p + 1) * n]);
            }
        }
    }
}

/// Adds depth block `depth` of output rows `i0..i0 + R` across every column.
#[inline(always)]
fn row_tile<const R: usize>(
    lhs: Lhs,
    i0: usize,
    depth: Range<usize>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    match lhs {
        Lhs::Rows(a, k) => {
            let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..depth.end]);
            let col = |p: usize| -> [f32; R] { std::array::from_fn(|r| rows[r][p]) };
            col_tiles::<R>(col, depth, b, n, i0, out);
        }
        Lhs::Cols(a, k) => {
            let col = |p: usize| -> [f32; R] { a[p * k + i0..][..R].try_into().expect("R values") };
            col_tiles::<R>(col, depth, b, n, i0, out);
        }
    }
}

/// Walks the columns of one row tile in `NR`-wide tiles, then narrower
/// ones (8, 4, 1) for the tail; `a_col(p)` yields the tile's `R` values of
/// `a` for depth `p`.
#[inline(always)]
fn col_tiles<const R: usize>(
    a_col: impl Fn(usize) -> [f32; R] + Copy,
    depth: Range<usize>,
    b: &[f32],
    n: usize,
    i0: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        tile::<R, NR>(a_col, depth.clone(), b, n, (i0, j0), out);
        j0 += NR;
    }
    if j0 + 8 <= n {
        tile::<R, 8>(a_col, depth.clone(), b, n, (i0, j0), out);
        j0 += 8;
    }
    if j0 + 4 <= n {
        tile::<R, 4>(a_col, depth.clone(), b, n, (i0, j0), out);
        j0 += 4;
    }
    for j in j0..n {
        tile::<R, 1>(a_col, depth.clone(), b, n, (i0, j), out);
    }
}

/// The micro-kernel: adds `Σₚ a_col(p)[r] · b[p][j0 + c]` over `depth`,
/// ascending, to the `R × C` block of `out` at `(i0, j0)`, holding the
/// block in locals for the whole walk. The first depth block starts the
/// sums from `+0` rather than reading `out`, so `out` need not arrive
/// zeroed.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a_col: impl Fn(usize) -> [f32; R],
    depth: Range<usize>,
    b: &[f32],
    n: usize,
    (i0, j0): (usize, usize),
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; C]; R];
    if depth.start > 0 {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(i0 + r) * n + j0..][..C]);
        }
    }
    for p in depth {
        let b_row: &[f32; C] = b[p * n + j0..][..C].try_into().expect("C values");
        for (acc_row, av) in acc.iter_mut().zip(a_col(p)) {
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..C].copy_from_slice(acc_row);
    }
}

/// True when the CPU runs the AVX2 instances of the kernels; otherwise
/// says that `test` checks only the portable ones.
#[cfg(test)]
#[allow(clippy::disallowed_macros)]
pub(crate) fn avx2_instance_runs(test: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    eprintln!("{test}: the CPU lacks AVX2, so only the portable instance is checked");
    false
}

/// Empties `buf` for a kernel that pushes `len` values. A buffer whose
/// capacity is not exactly `len` is freed and replaced by one that is,
/// the old freed before the new is allocated; an empty `Vec` becomes one
/// allocation of exactly `len`, as a fresh matrix is. Swapping buffers
/// costs a free and a malloc, which are cheaper than shrinking one in
/// place with `realloc`.
pub fn refit(buf: &mut Vec<f32>, len: usize) {
    if buf.capacity() == len {
        buf.clear();
    } else {
        *buf = Vec::new();
        buf.reserve_exact(len);
    }
}

/// `buf` fitted as [`refit`] does, but holding `len` values for a kernel
/// that overwrites each: a reused buffer keeps its old values, so it is
/// not written at all, and a new one is zeroed as a fresh matrix is.
fn overwritable(mut buf: Vec<f32>, len: usize) -> Vec<f32> {
    if buf.capacity() != len {
        drop(buf);
        return vec![0.0; len];
    }
    buf.resize(len, 0.0);
    buf
}

/// Fills `buf`, fitted to `rows × n`, with `kernel` (which writes every
/// element) and counts the dispatch and its flops (`flops` = the
/// product's `m·k·n`).
fn run_product(
    rows: usize,
    n: usize,
    flops: usize,
    buf: Vec<f32>,
    kernel: impl FnOnce(&mut [f32]),
) -> Matrix {
    cpdg_obs::counter!("matmul.dispatches").inc();
    cpdg_obs::counter!("matmul.flops").add(2 * flops as u64);
    let mut out = Matrix::from_vec(rows, n, overwritable(buf, rows * n));
    kernel(&mut out.data);
    out
}

/// A dense row-major matrix of `f32`.
///
/// Every method that builds a new matrix has an `_into` form that writes
/// it into a given buffer, refit to exactly the matrix's length (see
/// `refit`), and the allocating method passes it an empty `Vec`: one
/// kernel per op, whoever owns the buffer.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        self.copy_into(Vec::new())
    }
}

impl Matrix {
    /// A `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// [`Matrix::full`] written into `buf`.
    pub fn full_into(rows: usize, cols: usize, value: f32, mut buf: Vec<f32>) -> Self {
        let len = rows * cols;
        if buf.capacity() != len {
            drop(buf);
            return Self::full(rows, cols, value);
        }
        buf.clear();
        buf.resize(len, value);
        Self {
            rows,
            cols,
            data: buf,
        }
    }

    /// A copy of `self` written into `buf`: [`Clone::clone`] with a given
    /// buffer.
    pub fn copy_into(&self, mut buf: Vec<f32>) -> Matrix {
        refit(&mut buf, self.data.len());
        buf.extend_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: buf,
        }
    }

    /// A `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        assert!(r > 0, "Matrix::from_rows: need at least one row");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A `1 × n` row vector.
    pub fn row_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(1, n, data)
    }

    /// A `n × 1` column vector.
    pub fn col_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(n, 1, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The row-major data, moved out.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a fresh `1 × cols` matrix.
    pub fn row_matrix(&self, r: usize) -> Matrix {
        Matrix::from_vec(1, self.cols, self.row(r).to_vec())
    }

    /// Overwrites row `r` with the contents of `src` (a slice of `cols` values).
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row: width mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Matrix product `self · rhs`. Each output element accumulates over
    /// the inner dimension in ascending order, bit-identical to a naive
    /// loop that skips the zero entries of `self`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_into(rhs, Vec::new())
    }

    /// [`Matrix::matmul`] written into `buf`.
    pub fn matmul_into(&self, rhs: &Matrix, buf: Vec<f32>) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} · {}x{} has mismatched inner dims",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let (a, b) = (&self.data, &rhs.data);
        run_product(m, n, m * k * n, buf, |out| {
            product_block(Lhs::Rows(a, k), k, b, n, out)
        })
    }

    /// `selfᵀ · rhs` without materialising the transpose. Bit-identical to
    /// `self.transpose().matmul(rhs)`, and counted as the same product.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        self.transpose_matmul_into(rhs, Vec::new())
    }

    /// [`Matrix::transpose_matmul`] written into `buf`.
    pub fn transpose_matmul_into(&self, rhs: &Matrix, buf: Vec<f32>) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul: ({}x{})ᵀ · {}x{} has mismatched inner dims",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let (a, b) = (&self.data, &rhs.data);
        run_product(k, n, m * k * n, buf, |out| {
            product_block(Lhs::Cols(a, k), m, b, n, out)
        })
    }

    /// `out += v · self[rows, cols]`: a row vector times a block of `self`,
    /// accumulated into the `cols.len()`-wide row `out` (`v.len()` must
    /// equal `rows.len()`). It runs [`Matrix::matmul`]'s accumulation
    /// (inner index ascending, zero entries of `v` skipped), so on a zeroed
    /// `out` each element is bit-identical to the matching element of
    /// `Matrix::row_vec(v).matmul(&block)`. Its flops are counted; as a
    /// dispatch it is not, being one step of a stacked pass rather than a
    /// product of its own.
    ///
    /// # Panics
    /// Panics if `v` and `rows`, or `out` and `cols`, disagree in length,
    /// or the block is out of range.
    pub fn vec_matmul_block_into(
        &self,
        v: &[f32],
        rows: Range<usize>,
        cols: Range<usize>,
        out: &mut [f32],
    ) {
        assert_eq!(
            v.len(),
            rows.len(),
            "vec_matmul_block: vector and block heights differ"
        );
        assert_eq!(
            out.len(),
            cols.len(),
            "vec_matmul_block: output and block widths differ"
        );
        assert!(
            rows.end <= self.rows && cols.end <= self.cols,
            "vec_matmul_block: block out of range"
        );
        cpdg_obs::counter!("matmul.flops").add(2 * (v.len() * cols.len()) as u64);
        for (r, &av) in rows.zip(v) {
            if av == 0.0 {
                continue;
            }
            axpy(out, av, &self.row(r)[cols.clone()]);
        }
    }

    /// Adds the `1 × cols` matrix `row` to every row of `self` (a bias
    /// add, broadcast over rows).
    ///
    /// # Panics
    /// Panics if `row` is not one row of `self`'s width.
    pub fn add_row_inplace(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "add_row_inplace: rhs must be 1×n");
        assert_eq!(self.cols, row.cols, "add_row_inplace: width mismatch");
        for out in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (x, &y) in out.iter_mut().zip(&row.data) {
                *x += y;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        self.transpose_into(Vec::new())
    }

    /// [`Matrix::transpose`] written into `buf`.
    pub fn transpose_into(&self, buf: Vec<f32>) -> Matrix {
        let data = overwritable(buf, self.data.len());
        let mut out = Matrix::from_vec(self.cols, self.rows, data);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a fresh matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        self.map_into(f, Vec::new())
    }

    /// [`Matrix::map`] written into `buf`.
    pub fn map_into(&self, f: impl Fn(f32) -> f32, mut buf: Vec<f32>) -> Matrix {
        refit(&mut buf, self.data.len());
        buf.extend(self.data.iter().map(|&x| f(x)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: buf,
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combine with another matrix of the same shape.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.zip_into(rhs, f, Vec::new())
    }

    /// [`Matrix::zip`] written into `buf`.
    pub fn zip_into(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32, mut buf: Vec<f32>) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        refit(&mut buf, self.data.len());
        buf.extend(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: buf,
        }
    }

    /// [`Matrix::zip`] written into `self`: `self[i] = f(self[i], rhs[i])`.
    pub fn zip_inplace(&mut self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// `self += rhs` elementwise.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self -= rhs` elementwise.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }

    /// `self *= s` elementwise.
    pub fn scale_inplace(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Column-wise mean, producing a `1 × cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        let inv = 1.0 / self.rows as f32;
        out.scale_inplace(inv);
        out
    }

    /// Column-wise maximum, producing a `1 × cols` row vector. Empty
    /// matrices yield zeros (mirrors [`Matrix::mean_rows`]).
    pub fn max_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        let mut out = Matrix::from_vec(1, self.cols, self.row(0).to_vec());
        for r in 1..self.rows {
            for c in 0..self.cols {
                if self.data[r * self.cols + c] > out.data[c] {
                    out.data[c] = self.data[r * self.cols + c];
                }
            }
        }
        out
    }

    /// Vertically stacks `mats` (all must share `cols`).
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        Matrix::vstack_into(mats, Vec::new())
    }

    /// [`Matrix::vstack`] written into `buf`.
    pub fn vstack_into(mats: &[&Matrix], mut data: Vec<f32>) -> Matrix {
        assert!(!mats.is_empty(), "vstack: empty input");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        refit(&mut data, rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontally concatenates two matrices with the same number of rows.
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        self.hcat_into(rhs, Vec::new())
    }

    /// [`Matrix::hcat`] written into `buf`.
    pub fn hcat_into(&self, rhs: &Matrix, mut data: Vec<f32>) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat: row mismatch");
        let cols = self.cols + rhs.cols;
        refit(&mut data, self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(rhs.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Gathers the listed rows into a fresh matrix (rows may repeat).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        self.gather_rows_into(indices, Vec::new())
    }

    /// [`Matrix::gather_rows`] written into `buf`.
    pub fn gather_rows_into(&self, indices: &[usize], mut data: Vec<f32>) -> Matrix {
        refit(&mut data, indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather_rows: row {} out of {}", i, self.rows);
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_hand_checked() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_rect_shapes() {
        let a = Matrix::ones(3, 5);
        let b = Matrix::ones(5, 2);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.data().iter().all(|&x| (x - 5.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "mismatched inner dims")]
    fn matmul_bad_dims_panics() {
        Matrix::ones(2, 3).matmul(&Matrix::ones(2, 3));
    }

    /// Naive triple-loop reference in the same `k`-ascending accumulation
    /// order as the production kernel (bitwise comparable).
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = a.data[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b.data[kk * n + j];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Deterministic pseudo-random fill without pulling in an RNG dep.
    fn lcg_matrix(rows: usize, cols: usize, mut state: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// [`lcg_matrix`] with about 30% of its entries exactly zero.
    fn sparse_matrix(rows: usize, cols: usize, state: u64) -> Matrix {
        let mut m = lcg_matrix(rows, cols, state);
        let mask = lcg_matrix(rows, cols, !state);
        for (x, &u) in m.data.iter_mut().zip(&mask.data) {
            if u < -0.2 {
                *x = 0.0;
            }
        }
        m
    }

    /// Element bits, so NaN payloads and signed zeros compare too.
    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    type Kernel = fn(Lhs, usize, &[f32], usize, &mut [f32]);

    /// The kernel instances this CPU runs: the portable body, called
    /// directly, and where the CPU has AVX2 the dispatched kernel, which
    /// then runs the AVX2 instance.
    fn instances(test: &str) -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", product_block_body)];
        if avx2_instance_runs(test) {
            kernels.push(("avx2", product_block));
        }
        kernels
    }

    /// `a · b` and `atᵀ · b` by `kernel`, where `at` is `aᵀ`, each written
    /// over stale NaNs: the kernel must overwrite every element.
    fn products_by(kernel: Kernel, a: &Matrix, at: &Matrix, b: &Matrix) -> [Matrix; 2] {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut ab = Matrix::full(m, n, f32::NAN);
        kernel(Lhs::Rows(&a.data, k), k, &b.data, n, &mut ab.data);
        let mut atb = Matrix::full(m, n, f32::NAN);
        kernel(Lhs::Cols(&at.data, m), k, &b.data, n, &mut atb.data);
        [ab, atb]
    }

    /// Checks `a · b` and `(aᵀ)ᵀ · b` against the skipping reference, bit
    /// for bit: through the public products and through each of
    /// `kernels`.
    fn assert_products_match_reference(
        kernels: &[(&str, Kernel)],
        a: &Matrix,
        b: &Matrix,
        ctx: &str,
    ) {
        let want = bits(&matmul_reference(a, b));
        let at = a.transpose();
        assert_eq!(bits(&a.matmul(b)), want, "a·b {ctx}");
        assert_eq!(bits(&at.transpose_matmul(b)), want, "aᵀ·b {ctx}");
        for &(name, kernel) in kernels {
            let [ab, atb] = products_by(kernel, a, &at, b);
            assert_eq!(bits(&ab), want, "{name} a·b {ctx}");
            assert_eq!(bits(&atb), want, "{name} aᵀ·b {ctx}");
        }
    }

    #[test]
    fn products_match_the_skipping_reference_bit_for_bit() {
        let kernels = instances("products_match_the_skipping_reference_bit_for_bit");
        // Row and column counts around the 4×16 register tile, depths
        // around the 256-deep block.
        for rows in 1..=9 {
            for n in [1, 15, 16, 17, 33, 48] {
                for k in [1, 7, 64, 300] {
                    let seed = (rows * 100_000 + n * 1000 + k) as u64;
                    let (a, b) = (sparse_matrix(rows, k, seed), lcg_matrix(k, n, seed + 1));
                    let ctx = format!("{rows}x{k}x{n}");
                    assert_products_match_reference(&kernels, &a, &b, &ctx);
                }
            }
        }
        // Larger shapes with ragged row and column tiles, several of them
        // past one or two depth blocks, and a 256³ square.
        let shapes = [
            (33, 17, 9),
            (64, 64, 64),
            (130, 70, 50),
            (40, 600, 33),
            (256, 256, 256),
            (33, 129, 65),
            (257, 3, 97),
            (9, 512, 9),
            (3, 300, 300),
        ];
        for &(m, k, n) in &shapes {
            let (a, b) = (sparse_matrix(m, k, 7), lcg_matrix(k, n, 8));
            assert_products_match_reference(&kernels, &a, &b, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn non_finite_terms_match_the_skipping_reference_bit_for_bit() {
        let kernels = instances("non_finite_terms_match_the_skipping_reference_bit_for_bit");
        for &(rows, k, n) in &[(1, 7, 16), (5, 64, 17), (9, 300, 33), (40, 600, 33)] {
            let a = sparse_matrix(rows, k, 3);
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                // Specials in rows of `b` that row 0 of `a` skips: the
                // reference keeps row 0 finite, an unskipped 0·special
                // would make it NaN.
                let mut b = lcg_matrix(k, n, 4);
                let skipped: Vec<usize> = (0..k).filter(|&p| a.get(0, p) == 0.0).collect();
                assert!(!skipped.is_empty(), "{rows}x{k}x{n}: row 0 needs a zero");
                for &p in &skipped {
                    b.set(p, p % n, special);
                }
                let want = matmul_reference(&a, &b);
                assert!(want.row(0).iter().all(|x| x.is_finite()));
                let ctx = format!("{rows}x{k}x{n} {special}");
                assert_products_match_reference(&kernels, &a, &b, &ctx);
            }
            let mut a_nan = a.clone();
            a_nan.set(rows - 1, k / 2, f32::NAN);
            let b = lcg_matrix(k, n, 4);
            let ctx = format!("{rows}x{k}x{n} NaN in a");
            assert_products_match_reference(&kernels, &a_nan, &b, &ctx);
        }
    }

    #[test]
    fn products_handle_degenerate_shapes() {
        let kernels = instances("products_handle_degenerate_shapes");
        for &(m, k, n) in &[(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, k);
            let c = a.matmul(&Matrix::zeros(k, n));
            assert_eq!(c, Matrix::zeros(m, n));
            let c = a.transpose_matmul(&Matrix::zeros(m, n));
            assert_eq!(c, Matrix::zeros(k, n));
            for &(name, kernel) in &kernels {
                let products = products_by(kernel, &a, &a.transpose(), &Matrix::zeros(k, n));
                let want = [Matrix::zeros(m, n), Matrix::zeros(m, n)];
                assert_eq!(products, want, "{name} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn mean_rows_is_column_mean() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        let m = a.mean_rows();
        assert_eq!(m, Matrix::row_vec(vec![2.0, 4.0]));
    }

    #[test]
    fn max_rows_is_column_max() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[5.0, 2.0]]);
        assert_eq!(a.max_rows(), Matrix::row_vec(vec![5.0, 9.0]));
        assert_eq!(Matrix::zeros(0, 2).max_rows(), Matrix::zeros(1, 2));
    }

    #[test]
    fn mean_rows_empty_is_zero() {
        let a = Matrix::zeros(0, 3);
        assert_eq!(a.mean_rows(), Matrix::zeros(1, 3));
    }

    #[test]
    fn hcat_widths_add() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.hcat(&b);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn vstack_heights_add() {
        let a = Matrix::row_vec(vec![1.0, 2.0]);
        let b = Matrix::row_vec(vec![3.0, 4.0]);
        let c = Matrix::vstack(&[&a, &b]);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn gather_rows_with_repeats() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(
            g,
            Matrix::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[3.0, 3.0]])
        );
    }

    #[test]
    fn sums_and_norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::row_vec(vec![1.0, -2.0]);
        assert_eq!(a.map(f32::abs), Matrix::row_vec(vec![1.0, 2.0]));
        let b = Matrix::row_vec(vec![10.0, 20.0]);
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::row_vec(vec![11.0, 18.0]));
    }

    #[test]
    fn add_sub_assign() {
        let mut a = Matrix::row_vec(vec![1.0, 2.0]);
        a.add_assign(&Matrix::row_vec(vec![3.0, 4.0]));
        assert_eq!(a, Matrix::row_vec(vec![4.0, 6.0]));
        a.sub_assign(&Matrix::row_vec(vec![1.0, 1.0]));
        assert_eq!(a, Matrix::row_vec(vec![3.0, 5.0]));
    }

    #[test]
    fn set_row_overwrites() {
        let mut a = Matrix::zeros(2, 2);
        a.set_row(1, &[7.0, 8.0]);
        assert_eq!(a.row(0), &[0.0, 0.0]);
        assert_eq!(a.row(1), &[7.0, 8.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::ones(1, 2);
        assert!(a.all_finite());
        a.set(0, 0, f32::NAN);
        assert!(!a.all_finite());
    }
}
