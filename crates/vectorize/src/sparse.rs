//! Compressed sparse row (CSR) matrix.
//!
//! Document-term matrices are overwhelmingly sparse (a news article
//! touches a few hundred of hundreds of thousands of vocabulary
//! terms), so the vectorizer stores weights in CSR and only densifies
//! on demand for the NMF solver.

use nd_linalg::Mat;

/// A sparse row: parallel `indices`/`values` arrays, indices strictly
/// ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRowView<'a> {
    indices: &'a [usize],
    values: &'a [f64],
}

impl<'a> SparseRowView<'a> {
    /// Column indices of the stored entries (ascending).
    pub fn indices(&self) -> &'a [usize] {
        self.indices
    }

    /// Values parallel to [`Self::indices`].
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Value at column `j` (`0.0` when not stored).
    pub fn get(&self, j: usize) -> f64 {
        match self.indices.binary_search(&j) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(col, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// ℓ² norm of the row.
    pub fn norm2(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Compressed sparse row matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(col, value)` lists.
    ///
    /// Entries within a row are sorted by column; duplicate columns in
    /// one row are summed. Zero values are dropped.
    pub fn from_rows(cols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for entries in rows {
            let mut sorted: Vec<(usize, f64)> = entries.clone();
            sorted.sort_by_key(|&(c, _)| c);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
            for (c, v) in sorted {
                debug_assert!(c < cols, "column {c} out of bounds (cols={cols})");
                match merged.last_mut() {
                    Some((lc, lv)) if *lc == c => *lv += v,
                    _ => merged.push((c, v)),
                }
            }
            for (c, v) in merged {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: rows.len(), cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// View of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows` (internal logic error).
    pub fn row(&self, i: usize) -> SparseRowView<'_> {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        SparseRowView { indices: &self.col_idx[lo..hi], values: &self.values[lo..hi] }
    }

    /// Entry at `(i, j)`; `0.0` when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).get(j)
    }

    /// Per-column count of rows containing each column — the document
    /// frequency vector `n_ij` of paper Eq. (2).
    pub fn column_document_frequency(&self) -> Vec<usize> {
        let mut df = vec![0usize; self.cols];
        for &c in &self.col_idx {
            df[c] += 1;
        }
        df
    }

    /// Applies `f(row, col, value) -> value` to every stored entry,
    /// returning a new matrix (zeros produced by `f` are kept stored;
    /// re-sparsification is not needed for the weighting pipeline).
    pub fn map_entries(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for i in 0..self.rows {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for k in lo..hi {
                out.values[k] = f(i, self.col_idx[k], self.values[k]);
            }
        }
        out
    }

    /// Scales each row to unit ℓ² norm (zero rows untouched) — the
    /// normalization of paper Eq. (4)–(5).
    pub fn normalize_rows_l2(&self) -> CsrMatrix {
        let mut out = self.clone();
        for i in 0..self.rows {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let norm: f64 = self.values[lo..hi].iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                for v in &mut out.values[lo..hi] {
                    *v /= norm;
                }
            }
        }
        out
    }

    /// Densifies to an `nd_linalg::Mat` (rows × cols).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i).iter() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Sparse × dense product `self * rhs` (rhs is `cols × k`).
    ///
    /// Output rows depend only on their own sparse row, so row blocks
    /// run in parallel with no synchronisation; per-row accumulation
    /// order is the stored (ascending-column) order regardless of
    /// thread count.
    ///
    /// # Panics
    /// Debug-asserts `rhs.rows() == self.cols()`.
    pub fn matmul_dense(&self, rhs: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.matmul_dense_into(rhs, &mut out);
        out
    }

    /// [`CsrMatrix::matmul_dense`] into a caller-provided scratch
    /// matrix (reshaped and overwritten). Iteration loops — NMF runs
    /// this product every update — reuse `out` across calls;
    /// bit-identical to the allocating version.
    pub fn matmul_dense_into(&self, rhs: &Mat, out: &mut Mat) {
        debug_assert_eq!(rhs.rows(), self.cols);
        let k = rhs.cols();
        out.reset_zeroed(self.rows, k);
        if self.rows == 0 || k == 0 {
            return;
        }
        let work_per_row = (self.nnz() / self.rows).saturating_mul(k).max(1);
        let rows_per_chunk = nd_par::auto_chunk_len(self.rows, 16);
        nd_par::par_for_rows(out.as_mut_slice(), k, rows_per_chunk, work_per_row, |i0, block| {
            for (bi, out_row) in block.chunks_exact_mut(k).enumerate() {
                for (j, v) in self.row(i0 + bi).iter() {
                    let rhs_row = rhs.row(j);
                    for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                        *o += v * b;
                    }
                }
            }
        });
    }

    /// Transposed sparse × dense product `self^T * rhs` (rhs is `rows × k`).
    ///
    /// Output rows are indexed by *column* of the sparse matrix, so a
    /// row-parallel scatter would race. Instead the output is sharded
    /// by column range — one shard per worker — and every worker
    /// scans the matrix once, binary-searching each sparse row for
    /// the sub-range of columns it owns. Contributions to any output
    /// row still arrive in ascending document order, exactly as in
    /// the serial loop, so results are bit-for-bit reproducible.
    pub fn transpose_matmul_dense(&self, rhs: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.transpose_matmul_dense_into(rhs, &mut out);
        out
    }

    /// [`CsrMatrix::transpose_matmul_dense`] into a caller-provided
    /// scratch matrix (reshaped and overwritten); bit-identical to the
    /// allocating version.
    pub fn transpose_matmul_dense_into(&self, rhs: &Mat, out: &mut Mat) {
        debug_assert_eq!(rhs.rows(), self.rows);
        let k = rhs.cols();
        out.reset_zeroed(self.cols, k);
        if self.cols == 0 || k == 0 {
            return;
        }
        // At most one shard per worker: each extra shard costs a full
        // pass over the row structure.
        let shard_rows = self.cols.div_ceil(nd_par::threads()).max(1);
        let work_per_row = (self.nnz() / self.cols).saturating_mul(k).max(1);
        nd_par::par_for_rows(out.as_mut_slice(), k, shard_rows, work_per_row, |c0, block| {
            let c_end = c0 + block.len() / k;
            for i in 0..self.rows {
                let row = self.row(i);
                let idx = row.indices();
                let lo = idx.partition_point(|&c| c < c0);
                let hi = idx.partition_point(|&c| c < c_end);
                if lo == hi {
                    continue;
                }
                let rhs_row = rhs.row(i);
                for (&col, &v) in idx[lo..hi].iter().zip(&row.values()[lo..hi]) {
                    let local = col - c0;
                    let out_row = &mut block[local * k..(local + 1) * k];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                        *o += v * b;
                    }
                }
            }
        });
    }

    /// Fused transposed product `rhs^T * self` (rhs is `rows × k`),
    /// written directly in `k × cols` layout — i.e. the transpose of
    /// [`CsrMatrix::transpose_matmul_dense_into`]'s result without
    /// materializing the `cols × k` intermediate or a transpose pass.
    /// NMF's H update consumes `(AᵀW)ᵀ` in exactly this layout.
    ///
    /// Output rows (one per rhs column) are sharded across workers;
    /// every worker streams the documents in ascending order, so each
    /// output entry accumulates its contributions in the same order as
    /// the unfused kernel — the two are bit-for-bit identical — and
    /// independently of the thread count.
    pub fn transpose_matmul_dense_t_into(&self, rhs: &Mat, out: &mut Mat) {
        debug_assert_eq!(rhs.rows(), self.rows);
        let k = rhs.cols();
        out.reset_zeroed(k, self.cols);
        if self.cols == 0 || k == 0 {
            return;
        }
        let cols = self.cols;
        let shard_rows = k.div_ceil(nd_par::threads()).max(1);
        let work_per_row = self.nnz().max(1);
        nd_par::par_for_rows(out.as_mut_slice(), cols, shard_rows, work_per_row, |t0, block| {
            for i in 0..self.rows {
                let row = self.row(i);
                if row.nnz() == 0 {
                    continue;
                }
                let rhs_row = rhs.row(i);
                for (local, out_row) in block.chunks_exact_mut(cols).enumerate() {
                    let w = rhs_row[t0 + local];
                    for (j, v) in row.iter() {
                        out_row[j] += v * w;
                    }
                }
            }
        });
    }

    /// Squared Frobenius norm of the sparse matrix.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

/// CSR matrices plug straight into the matrix-free algorithms in
/// `nd-linalg` (randomized SVD for LSA): `apply`/`apply_t` are the
/// existing deterministic SpMM kernels. The GEMM packing scratch is
/// unused — sparse products need no panel packing.
impl nd_linalg::MatOp for CsrMatrix {
    fn nrows(&self) -> usize {
        self.rows
    }

    fn ncols(&self) -> usize {
        self.cols
    }

    fn apply_into(&self, rhs: &Mat, _scratch: &mut nd_linalg::GemmScratch, out: &mut Mat) {
        self.matmul_dense_into(rhs, out);
    }

    fn apply_t_into(&self, rhs: &Mat, _scratch: &mut nd_linalg::GemmScratch, out: &mut Mat) {
        self.transpose_matmul_dense_into(rhs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_rows(3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn unsorted_and_duplicate_entries_merged() {
        let m = CsrMatrix::from_rows(4, &[vec![(3, 1.0), (1, 2.0), (3, 4.0)]]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 3), 5.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(0).indices(), &[1, 3]);
    }

    #[test]
    fn zero_values_dropped() {
        let m = CsrMatrix::from_rows(2, &[vec![(0, 0.0), (1, 1.0)]]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn document_frequency() {
        let m = CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (1, 1.0)], vec![(1, 2.0)], vec![(1, 1.0), (2, 1.0)]],
        );
        assert_eq!(m.column_document_frequency(), vec![1, 3, 1]);
    }

    #[test]
    fn normalize_rows() {
        let m = sample().normalize_rows_l2();
        let n0 = m.row(0).norm2();
        assert!((n0 - 1.0).abs() < 1e-12);
        assert!((m.row(1).norm2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_empty_row_safe() {
        let m = CsrMatrix::from_rows(2, &[vec![], vec![(0, 2.0)]]).normalize_rows_l2();
        assert_eq!(m.row(0).nnz(), 0);
        assert!((m.row(1).get(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 0), 0.0);
        assert_eq!(d.shape(), (2, 3));
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let m = sample();
        let rhs = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sparse_result = m.matmul_dense(&rhs);
        let dense_result = m.to_dense().matmul(&rhs).unwrap();
        assert_eq!(sparse_result, dense_result);
    }

    #[test]
    fn transpose_matmul_matches() {
        let m = sample();
        let rhs = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let got = m.transpose_matmul_dense(&rhs);
        let want = m.to_dense().transpose().matmul(&rhs).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn large_sparse_products_match_dense_reference() {
        // Deterministic pseudo-random sparse matrix large enough to
        // engage the parallel/sharded paths.
        let rows = 120;
        let cols = 90;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let row_lists: Vec<Vec<(usize, f64)>> = (0..rows)
            .map(|_| {
                (0..12)
                    .map(|_| {
                        let c = (next() % cols as u64) as usize;
                        let v = (next() % 100) as f64 / 10.0 - 5.0;
                        (c, v)
                    })
                    .collect()
            })
            .collect();
        let m = CsrMatrix::from_rows(cols, &row_lists);
        let rhs = Mat::from_fn(cols, 7, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let got = m.matmul_dense(&rhs);
        let want = m.to_dense().matmul(&rhs).unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }

        let rhs_t = Mat::from_fn(rows, 7, |i, j| ((i * 5 + j) % 11) as f64 - 5.0);
        let got_t = m.transpose_matmul_dense(&rhs_t);
        let want_t = m.to_dense().transpose().matmul(&rhs_t).unwrap();
        for (a, b) in got_t.as_slice().iter().zip(want_t.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fused_transposed_product_bit_identical_to_unfused() {
        let m = sample();
        let rhs = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut fused = Mat::zeros(0, 0);
        m.transpose_matmul_dense_t_into(&rhs, &mut fused);
        let unfused = m.transpose_matmul_dense(&rhs).transpose();
        assert_eq!(fused.shape(), (2, 3));
        for (a, b) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Larger pseudo-random case crossing the sharded path.
        let rows = 90;
        let cols = 70;
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let row_lists: Vec<Vec<(usize, f64)>> = (0..rows)
            .map(|_| {
                (0..9)
                    .map(|_| {
                        let c = (next() % cols as u64) as usize;
                        let v = (next() % 100) as f64 / 10.0 - 5.0;
                        (c, v)
                    })
                    .collect()
            })
            .collect();
        let big = CsrMatrix::from_rows(cols, &row_lists);
        let w = Mat::from_fn(rows, 8, |i, j| ((i * 3 + j) % 17) as f64 / 4.0 - 2.0);
        let mut fused_big = Mat::zeros(0, 0);
        big.transpose_matmul_dense_t_into(&w, &mut fused_big);
        let unfused_big = big.transpose_matmul_dense(&w).transpose();
        for (a, b) in fused_big.as_slice().iter().zip(unfused_big.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mat_op_applies_match_direct_kernels() {
        use nd_linalg::{GemmScratch, MatOp};
        let m = sample();
        let mut scratch = GemmScratch::new();
        assert_eq!(MatOp::nrows(&m), 2);
        assert_eq!(MatOp::ncols(&m), 3);

        let rhs = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut out = Mat::zeros(0, 0);
        m.apply_into(&rhs, &mut scratch, &mut out);
        assert_eq!(out, m.matmul_dense(&rhs));

        let rhs_t = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        m.apply_t_into(&rhs_t, &mut scratch, &mut out);
        assert_eq!(out, m.transpose_matmul_dense(&rhs_t));
    }

    #[test]
    fn frobenius() {
        let m = sample();
        assert_eq!(m.frobenius_norm_sq(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn map_entries_applies() {
        let m = sample().map_entries(|_, _, v| v * 10.0);
        assert_eq!(m.get(0, 2), 20.0);
    }
}
