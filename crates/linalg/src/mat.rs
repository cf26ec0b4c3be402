//! Row-major dense `f64` matrix.

use crate::error::{LinalgError, Result};
use crate::rng::SplitMix64;

/// A dense, row-major matrix of `f64` values.
///
/// `Mat` is the workhorse type shared by the NMF topic model, the
/// embedding trainers, and the neural-network layers. It keeps one
/// contiguous `Vec<f64>`; the hot paths (matrix products, transpose)
/// route through the packed GEMM microkernel ([`crate::gemm`]) and
/// run across threads via `nd-par`, with fixed panel boundaries
/// and accumulation order so results are bit-for-bit
/// identical at any `NEWSDIFF_THREADS` setting.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadBuffer { shape: (rows, cols), len: data.len() });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadBuffer`] if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Mat::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::BadBuffer {
                    shape: (rows.len(), cols),
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Mat { rows: rows.len(), cols, data })
    }

    /// Creates a matrix where entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`,
    /// deterministically from `seed`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(lo + (hi - lo) * rng.next_f64());
        }
        Mat { rows, cols, data }
    }

    /// Creates a matrix with entries drawn from a normal distribution
    /// `N(mean, std^2)`, deterministically from `seed`.
    pub fn random_normal(rows: usize, cols: usize, mean: f64, std: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(mean + std * rng.next_gaussian());
        }
        Mat { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes to `rows x cols` in place and zero-fills, reusing the
    /// existing allocation whenever capacity allows.
    ///
    /// This is the backbone of the `*_into` scratch-reuse API: a
    /// workspace `Mat` starts as `Mat::zeros(0, 0)` and is re-shaped
    /// by every call that writes into it, so iteration loops allocate
    /// once on the first pass and never again.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics if `i >= rows` or `j >= cols`; out-of-bounds access is an
    /// internal logic error, never a data-dependent condition.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// Allocates; on hot paths prefer [`Mat::col_view`] (strided, no
    /// allocation) or [`Mat::copy_col_into`] (reusable buffer).
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_view(j).iter().collect()
    }

    /// Strided, non-allocating view of column `j`.
    #[inline]
    pub fn col_view(&self, j: usize) -> ColView<'_> {
        debug_assert!(j < self.cols || self.rows == 0);
        ColView { data: &self.data, cols: self.cols.max(1), j }
    }

    /// Copies column `j` into `out`, which must hold `rows` elements.
    pub fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rows);
        for (o, v) in out.iter_mut().zip(self.col_view(j).iter()) {
            *o = v;
        }
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix transpose.
    ///
    /// Processes the matrix in 32×32 blocks so both the source rows
    /// and destination rows stay cache-resident, and splits the
    /// destination rows across threads for large matrices.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Mat::transpose`] into a caller-provided scratch matrix
    /// (reshaped and overwritten). Iteration-hot call sites reuse
    /// `out` across calls so the transpose allocates only once.
    pub fn transpose_into(&self, out: &mut Mat) {
        const BLOCK: usize = 32;
        let (r, c) = (self.rows, self.cols);
        out.reset_zeroed(c, r);
        if r == 0 || c == 0 {
            return;
        }
        let src = &self.data;
        nd_par::par_for_rows(&mut out.data, r, BLOCK, r, |j0, block| {
            for i0 in (0..r).step_by(BLOCK) {
                let i_end = (i0 + BLOCK).min(r);
                for (jj, orow) in block.chunks_exact_mut(r).enumerate() {
                    let j = j0 + jj;
                    for (i, o) in orow[i0..i_end].iter_mut().enumerate() {
                        *o = src[(i0 + i) * c + j];
                    }
                }
            }
        });
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.matmul_unchecked(rhs))
    }

    /// Matrix product without the shape `Result`; for iteration-hot
    /// call sites that validate shapes once up front.
    ///
    /// Runs on the packed register-blocked kernel in [`crate::gemm`]
    /// using a thread-local packing scratch, so repeated calls do not
    /// re-allocate. Accumulation order per entry is fixed by the
    /// kernel's panel schedule, so any thread count produces
    /// identical bits.
    ///
    /// # Panics
    /// Debug-asserts `self.cols == rhs.rows`.
    pub fn matmul_unchecked(&self, rhs: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        crate::gemm::with_tls_scratch(|scratch| {
            self.matmul_unchecked_into(rhs, scratch, &mut out);
        });
        out
    }

    /// [`Mat::matmul_unchecked`] into caller-provided scratch:
    /// `scratch` holds the GEMM packing panels and `out` receives the
    /// product (reshaped and overwritten). Iteration loops reuse both
    /// across calls, eliminating per-call packing allocations.
    /// Bit-identical to the allocating version.
    ///
    /// # Panics
    /// Debug-asserts `self.cols == rhs.rows`.
    pub fn matmul_unchecked_into(
        &self,
        rhs: &Mat,
        scratch: &mut crate::gemm::GemmScratch,
        out: &mut Mat,
    ) {
        debug_assert_eq!(self.cols, rhs.rows, "matmul_unchecked_into shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.reset_zeroed(m, n);
        crate::gemm::gemm_into(m, k, n, &self.data, false, &rhs.data, false, false, scratch, &mut out.data);
    }

    /// `selfᵀ * rhs` without materializing the transpose, into
    /// caller-provided scratch (`out` reshaped and overwritten). The
    /// packed kernel absorbs the transposed orientation during panel
    /// packing, so this costs the same as a plain product.
    ///
    /// # Panics
    /// Debug-asserts `self.rows == rhs.rows`.
    pub fn transpose_matmul_into(
        &self,
        rhs: &Mat,
        scratch: &mut crate::gemm::GemmScratch,
        out: &mut Mat,
    ) {
        debug_assert_eq!(self.rows, rhs.rows, "transpose_matmul_into shape mismatch");
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.reset_zeroed(m, n);
        crate::gemm::gemm_into(m, k, n, &self.data, true, &rhs.data, false, false, scratch, &mut out.data);
    }

    /// `self * rhsᵀ` without materializing the transpose, into
    /// caller-provided scratch (`out` reshaped and overwritten).
    ///
    /// # Panics
    /// Debug-asserts `self.cols == rhs.cols`.
    pub fn matmul_transpose_into(
        &self,
        rhs: &Mat,
        scratch: &mut crate::gemm::GemmScratch,
        out: &mut Mat,
    ) {
        debug_assert_eq!(self.cols, rhs.cols, "matmul_transpose_into shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.reset_zeroed(m, n);
        crate::gemm::gemm_into(m, k, n, &self.data, false, &rhs.data, true, false, scratch, &mut out.data);
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Mat::matvec`] into a caller-provided scratch vector (resized
    /// and overwritten). Scan loops that apply the same matrix to many
    /// vectors — SVD power iteration, cosine scans — reuse `out`
    /// across calls instead of allocating a fresh result per query.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        out.resize(self.rows, 0.0);
        crate::gemm::matvec_into(self.rows, self.cols, &self.data, false, v, false, out);
        Ok(())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn add(&self, rhs: &Mat) -> Result<Mat> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn sub(&self, rhs: &Mat) -> Result<Mat> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn hadamard(&self, rhs: &Mat) -> Result<Mat> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Element-wise quotient with an epsilon guard on the denominator:
    /// `self[i] / (rhs[i] + eps)`. This is the exact form the NMF
    /// multiplicative updates need to avoid division by zero.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn div_eps(&self, rhs: &Mat, eps: f64) -> Result<Mat> {
        self.zip_with(rhs, "div_eps", |a, b| a / (b + eps))
    }

    fn zip_with(&self, rhs: &Mat, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Mat> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Mat { rows: self.rows, cols: self.cols, data })
    }

    /// In-place element-wise addition.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn add_assign(&mut self, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> Mat {
        self.map(|v| v * scalar)
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            // nd-lint: allow(fp-reduction-order) — serial sum in storage order; never parallelized.
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm `sqrt(sum of squared entries)`.
    pub fn frobenius_norm(&self) -> f64 {
        // nd-lint: allow(fp-reduction-order) — serial sum in storage order; never parallelized.
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius distance `||self - rhs||_F^2`, the NMF objective
    /// of paper Eq. (6).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn frobenius_dist_sq(&self, rhs: &Mat) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "frobenius_dist_sq",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum())
    }

    /// Index of the maximum entry in row `i` (ties resolve to the first).
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] when the matrix has zero columns.
    pub fn row_argmax(&self, i: usize) -> Result<usize> {
        if self.cols == 0 {
            return Err(LinalgError::Empty("row_argmax"));
        }
        let row = self.row(i);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        Ok(best)
    }

    /// Indices of the `k` largest entries of row `i`, descending by value.
    pub fn row_top_k(&self, i: usize, k: usize) -> Vec<usize> {
        let row = self.row(i);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        idx
    }

    /// Stacks two matrices vertically.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when column counts differ.
    pub fn vstack(&self, below: &Mat) -> Result<Mat> {
        if self.cols != below.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: below.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + below.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&below.data);
        Ok(Mat { rows: self.rows + below.rows, cols: self.cols, data })
    }

    /// Concatenates two matrices horizontally.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, right: &Mat) -> Result<Mat> {
        if self.rows != right.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: right.shape(),
            });
        }
        let cols = self.cols + right.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(right.row(i));
        }
        Ok(Mat { rows: self.rows, cols, data })
    }

    /// `A^T * A` without materializing the transpose.
    ///
    /// Routed through the packed GEMM kernel with `self` packed once
    /// per side (transposed for the left operand, plain for the
    /// right), using a thread-local packing scratch. The kernel's
    /// fixed panel schedule makes the result bit-for-bit independent
    /// of the thread count.
    pub fn gram(&self) -> Mat {
        let mut out = Mat::zeros(0, 0);
        crate::gemm::with_tls_scratch(|scratch| {
            self.gram_into(scratch, &mut out);
        });
        out
    }

    /// [`Mat::gram`] into caller-provided scratch (`out` reshaped and
    /// overwritten, `scratch` holding the packing panels).
    /// Iteration-hot call sites reuse both across calls; bit-identical
    /// to the allocating version.
    pub fn gram_into(&self, scratch: &mut crate::gemm::GemmScratch, out: &mut Mat) {
        let (r, c) = (self.rows, self.cols);
        out.reset_zeroed(c, c);
        crate::gemm::gemm_into(c, r, c, &self.data, true, &self.data, false, false, scratch, &mut out.data);
    }
}

/// Non-allocating, strided view of one matrix column.
///
/// Produced by [`Mat::col_view`]; replaces the allocating
/// [`Mat::col`] on hot paths (NMF objective, SVD orthonormalisation).
#[derive(Debug, Clone, Copy)]
pub struct ColView<'a> {
    data: &'a [f64],
    cols: usize,
    j: usize,
}

impl<'a> ColView<'a> {
    /// Number of entries (the matrix's row count).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.cols
    }

    /// `true` when the column has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry `i` of the column.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[i * self.cols + self.j]
    }

    /// Iterator over the column's entries, top to bottom.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.data.get(self.j..).unwrap_or(&[]).iter().step_by(self.cols).copied()
    }

    /// Dot product with another column view of equal length.
    pub fn dot(&self, other: &ColView<'_>) -> f64 {
        debug_assert_eq!(self.len(), other.len());
        self.iter().zip(other.iter()).map(|(a, b)| a * b).sum()
    }
}

impl std::fmt::Display for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:>10.4}")).collect();
            let ellipsis = if self.cols > 8 { " …" } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  … ({} more rows)", self.rows - show_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat2x3() -> Mat {
        Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = mat2x3();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(matches!(
            Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]),
            Err(LinalgError::BadBuffer { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Mat::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn from_rows_empty_is_0x0() {
        let m = Mat::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert!(m.is_empty());
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let m = mat2x3();
        let i3 = Mat::eye(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
        let i2 = Mat::eye(2);
        assert_eq!(i2.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = mat2x3();
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat2x3();
        let v = vec![1.0, 0.5, 2.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![1.0 + 1.0 + 6.0, 4.0 + 2.5 + 12.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = mat2x3();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let m = mat2x3();
        let s = m.add(&m).unwrap();
        assert_eq!(s.get(1, 1), 10.0);
        let d = m.sub(&m).unwrap();
        assert_eq!(d.sum(), 0.0);
        let h = m.hadamard(&m).unwrap();
        assert_eq!(h.get(1, 2), 36.0);
    }

    #[test]
    fn div_eps_guards_zero() {
        let num = Mat::filled(1, 2, 1.0);
        let den = Mat::from_vec(1, 2, vec![0.0, 2.0]).unwrap();
        let q = num.div_eps(&den, 1e-9).unwrap();
        assert!(q.get(0, 0).is_finite());
        assert!((q.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn frobenius_norm_and_distance() {
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        let z = Mat::zeros(1, 2);
        assert!((m.frobenius_dist_sq(&z).unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn row_argmax_and_top_k() {
        let m = mat2x3();
        assert_eq!(m.row_argmax(0).unwrap(), 2);
        assert_eq!(m.row_top_k(1, 2), vec![2, 1]);
    }

    #[test]
    fn row_argmax_ties_pick_first() {
        let m = Mat::from_vec(1, 3, vec![2.0, 2.0, 1.0]).unwrap();
        assert_eq!(m.row_argmax(0).unwrap(), 0);
    }

    #[test]
    fn stacking() {
        let m = mat2x3();
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(2), m.row(0));
        let h = m.hstack(&m).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(0, 3), 1.0);
        assert!(m.vstack(&Mat::zeros(1, 2)).is_err());
        assert!(m.hstack(&Mat::zeros(3, 1)).is_err());
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = mat2x3();
        let explicit = m.transpose().matmul(&m).unwrap();
        let g = m.gram();
        for (a, b) in g.as_slice().iter().zip(explicit.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn random_matrices_deterministic_by_seed() {
        let a = Mat::random_uniform(3, 3, -1.0, 1.0, 7);
        let b = Mat::random_uniform(3, 3, -1.0, 1.0, 7);
        let c = Mat::random_uniform(3, 3, -1.0, 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn random_normal_has_plausible_moments() {
        let m = Mat::random_normal(100, 100, 2.0, 0.5, 42);
        let mean = m.mean();
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn scale_multiplies_every_entry() {
        let doubled = mat2x3().scale(2.0);
        assert_eq!(doubled.get(0, 1), 4.0);
    }

    #[test]
    fn col_view_matches_allocating_col() {
        let m = mat2x3();
        let v = m.col_view(1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), 2.0);
        assert_eq!(v.iter().collect::<Vec<_>>(), m.col(1));
        let mut buf = vec![0.0; 2];
        m.copy_col_into(2, &mut buf);
        assert_eq!(buf, vec![3.0, 6.0]);
    }

    #[test]
    fn col_view_dot() {
        let m = mat2x3();
        let d = m.col_view(0).dot(&m.col_view(2));
        assert_eq!(d, 1.0 * 3.0 + 4.0 * 6.0);
    }

    #[test]
    fn large_matmul_matches_naive_reference() {
        // Big enough to cross the parallel/tiling thresholds.
        let a = Mat::random_uniform(70, 90, -1.0, 1.0, 1);
        let b = Mat::random_uniform(90, 80, -1.0, 1.0, 2);
        let fast = a.matmul(&b).unwrap();
        let mut naive = Mat::zeros(70, 80);
        for i in 0..70 {
            for j in 0..80 {
                let mut s = 0.0;
                for k in 0..90 {
                    s += a.get(i, k) * b.get(k, j);
                }
                naive.set(i, j, s);
            }
        }
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn large_transpose_round_trips() {
        let m = Mat::random_uniform(123, 77, -1.0, 1.0, 3);
        let t = m.transpose();
        assert_eq!(t.shape(), (77, 123));
        assert_eq!(t.transpose(), m);
        for i in 0..123 {
            for j in 0..77 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn into_variants_reuse_dirty_scratch_bitwise() {
        let a = Mat::random_uniform(33, 21, -1.0, 1.0, 9);
        let b = Mat::random_uniform(21, 17, -1.0, 1.0, 10);
        // Dirty, wrongly-shaped scratch must not leak into results.
        let mut scratch = crate::gemm::GemmScratch::new();
        let mut out = Mat::filled(2, 2, -3.0);
        a.matmul_unchecked_into(&b, &mut scratch, &mut out);
        assert_eq!(out, a.matmul_unchecked(&b));
        // Reusing the now-dirty packing scratch must be bit-identical.
        let mut out2 = Mat::filled(5, 1, 11.0);
        a.matmul_unchecked_into(&b, &mut scratch, &mut out2);
        assert_eq!(out, out2);

        let mut t = Mat::filled(1, 9, 4.0);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut g = Mat::filled(40, 2, 1.0);
        a.gram_into(&mut scratch, &mut g);
        assert_eq!(g, a.gram());

        let v: Vec<f64> = (0..21).map(|i| (i as f64).cos()).collect();
        let mut mv = vec![9.0; 3];
        a.matvec_into(&v, &mut mv).unwrap();
        assert_eq!(mv, a.matvec(&v).unwrap());
        // A second call must reuse the allocation, not grow it.
        let cap = mv.capacity();
        a.matvec_into(&v, &mut mv).unwrap();
        assert_eq!(cap, mv.capacity());
        // Shape errors still surface through the _into path.
        assert!(a.matvec_into(&[1.0], &mut mv).is_err());
    }

    #[test]
    fn reset_zeroed_reuses_capacity() {
        let mut m = Mat::filled(8, 8, 5.0);
        let ptr = m.as_slice().as_ptr();
        m.reset_zeroed(4, 6);
        assert_eq!(m.shape(), (4, 6));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(ptr, m.as_slice().as_ptr(), "smaller reshape must not reallocate");
    }

    #[test]
    fn matmul_unchecked_matches_matmul() {
        let a = Mat::random_uniform(9, 13, -2.0, 2.0, 4);
        let b = Mat::random_uniform(13, 6, -2.0, 2.0, 5);
        assert_eq!(a.matmul(&b).unwrap(), a.matmul_unchecked(&b));
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Mat::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("more rows"));
    }
}
