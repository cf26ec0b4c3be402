//! Packed, register-blocked GEMM microkernel.
//!
//! This is the single dense-product engine for the workspace: every
//! `Mat` product (`matmul`, `transpose_matmul_into`, `gram_into`,
//! `matvec_into`) and the neural-layer backends route through
//! [`gemm_into`]. The design is a BLIS-style packed kernel, std-only
//! and `forbid(unsafe)`-clean:
//!
//! - **Packing.** A is repacked into MR-row micropanels
//!   (`apack[p*MR*k + kk*MR + r]`, k-major within a panel) and B into
//!   NR-column micropanels (`bpack[q*NR*k + kk*NR + c]`), both
//!   zero-padded at the ragged edge. Packing makes every microkernel
//!   read a contiguous streaming load and absorbs both transpose
//!   orientations for free.
//! - **Microkernel.** An MR×NR = 3×12 register tile accumulated in a
//!   local `[[f64; NR]; MR]`, k-unrolled ×4. With FMA available the
//!   `mul_add` calls compile to `vfmadd` on 256-bit vectors (see
//!   `.cargo/config.toml`); without it they lower to the plain
//!   multiply-add written in `fmadd`.
//! - **Determinism.** The KC-blocked depth loop is serial and outermost;
//!   within one depth block, threads split the output over fixed
//!   MC-row chunks (MC = 126 = 42 micropanels, so chunk boundaries are
//!   always panel-aligned regardless of thread count). Each output
//!   entry is written by exactly one thread per depth block, and its
//!   accumulation order — ascending depth blocks × the fixed in-kernel
//!   k order — never depends on `NEWSDIFF_THREADS`. Dispatch decisions
//!   that pick between code paths (naive vs packed, matvec) depend only
//!   on the operand shapes, never on thread count or data.
//!
//! Scratch: callers thread a [`GemmScratch`] through hot loops so the
//! packing buffers are allocated once and reused; [`with_tls_scratch`]
//! offers a thread-local fallback for `&self` call sites (inference).

use crate::mat::Mat;
use std::cell::RefCell;

/// Rows per A micropanel (register tile height).
pub const MR: usize = 3;
/// Columns per B micropanel (register tile width).
pub const NR: usize = 12;
/// Depth (k) block size; one A panel slice of a depth block is
/// `MR * KC * 8 = 6` KiB, one B panel slice is `NR * KC * 8 = 24` KiB —
/// both L1/L2 resident.
pub const KC: usize = 256;
/// Output rows per parallel chunk. Must be a multiple of `MR` so the
/// fixed chunk boundaries used by `nd-par` never split a micropanel:
/// 126 = 42 panels of 3 rows.
pub const MC: usize = 126;
/// Depth-loop unroll factor in the microkernel.
const KU: usize = 4;
/// Below this `m*n*k` element-op count the packed path's packing and
/// padding overhead is not worth it; a serial naive triple loop wins
/// and is trivially thread-count invariant. Shape-only cutoff, so the
/// path choice is deterministic.
const NAIVE_CUTOFF: usize = 64 * 64 * 64;

/// Reusable packing buffers for [`gemm_into`].
///
/// Holds the packed A and B panels between calls so hot loops (NMF
/// iterations, SVD power steps, training steps) never allocate. Buffers
/// only grow; contents are fully overwritten by each pack, so reuse
/// across different shapes is safe.
#[derive(Debug, Default)]
pub struct GemmScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        GemmScratch {
            apack: Vec::new(),
            bpack: Vec::new(),
        }
    }

    /// Returns the two packing buffers resized to at least the
    /// requested lengths. Contents are unspecified; the pack loops
    /// write every slot (including zero padding) before the kernel
    /// reads any.
    fn panels(&mut self, a_len: usize, b_len: usize) -> (&mut [f64], &mut [f64]) {
        if self.apack.len() < a_len {
            self.apack.resize(a_len, 0.0);
        }
        if self.bpack.len() < b_len {
            self.bpack.resize(b_len, 0.0);
        }
        (&mut self.apack[..a_len], &mut self.bpack[..b_len])
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// Runs `f` with a thread-local [`GemmScratch`], for `&self` call sites
/// that cannot hold one (e.g. inference paths). Falls back to a fresh
/// scratch if the thread-local is already borrowed (re-entrant call).
pub fn with_tls_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    TLS_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut GemmScratch::new()),
    })
}

/// Fused (or plain) multiply-add: `a * b + acc`.
///
/// `cfg!` is a compile-time constant, so the branch folds away: with
/// the `fma` target feature this is a single hardware `vfmadd`
/// (`mul_add` would otherwise call the slow libm softfloat fallback,
/// which is why the plain expression is kept for non-FMA builds).
#[inline(always)]
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// General matrix multiply on raw row-major slices:
/// `out (m×n) = op(A) · op(B)` (or `+=` when `accumulate`).
///
/// `op(A)` is logically m×k: stored m×k when `!a_trans`, stored k×m
/// when `a_trans` (and analogously `op(B)` is k×n, stored n×k when
/// `b_trans`). `out` must have exactly `m*n` elements; when
/// `accumulate` is false every entry is overwritten, so `out` need not
/// be zeroed. Panics via slice indexing if any operand is too short.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_trans: bool,
    b: &[f64],
    b_trans: bool,
    accumulate: bool,
    scratch: &mut GemmScratch,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), m * n, "gemm_into: out length mismatch");
    debug_assert!(a.len() >= m * k, "gemm_into: A too short");
    debug_assert!(b.len() >= k * n, "gemm_into: B too short");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    // n == 1: both storage orders of B are a contiguous length-k vector.
    if n == 1 && !a_trans {
        matvec_into(m, k, a, false, &b[..k], accumulate, out);
        return;
    }
    if n == 1 && a_trans {
        matvec_into(m, k, a, true, &b[..k], accumulate, out);
        return;
    }
    if m.saturating_mul(n).saturating_mul(k) <= NAIVE_CUTOFF {
        gemm_naive(m, k, n, a, a_trans, b, b_trans, accumulate, out);
        return;
    }
    gemm_packed(m, k, n, a, a_trans, b, b_trans, accumulate, scratch, out);
}

/// `out (m×1) = op(A) · x` (or `+=` when `accumulate`), where `op(A)`
/// is logically m×k. Row-parallel with the shared `vecops::dot` for the
/// non-transposed case; strided column dots for the transposed case.
/// Needs no packing scratch.
pub fn matvec_into(
    m: usize,
    k: usize,
    a: &[f64],
    a_trans: bool,
    x: &[f64],
    accumulate: bool,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), m, "matvec_into: out length mismatch");
    debug_assert!(x.len() >= k, "matvec_into: x too short");
    if m == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    if a_trans {
        // A stored k×m; out[i] = Σ_kk a[kk*m + i] * x[kk]. Strided column
        // reads, but each output is still an independent serial dot.
        let chunk = nd_par::auto_chunk_len(m, 64);
        nd_par::par_for_rows(out, 1, chunk, k, |i0, block| {
            for (off, o) in block.iter_mut().enumerate() {
                let i = i0 + off;
                let mut s = 0.0;
                for (kk, &xv) in x[..k].iter().enumerate() {
                    s = fmadd(a[kk * m + i], xv, s);
                }
                if accumulate {
                    *o += s;
                } else {
                    *o = s;
                }
            }
        });
    } else {
        let chunk = nd_par::auto_chunk_len(m, 64);
        nd_par::par_for_rows(out, 1, chunk, k, |i0, block| {
            for (off, o) in block.iter_mut().enumerate() {
                let i = i0 + off;
                let s = crate::vecops::dot(&a[i * k..i * k + k], &x[..k]);
                if accumulate {
                    *o += s;
                } else {
                    *o = s;
                }
            }
        });
    }
}

/// Serial reference triple loop, dot-ordered (`i`, `j`, ascending `kk`).
/// Used below the size cutoff and by the equivalence tests as the
/// ground truth. Serial, so trivially thread-count invariant.
#[allow(clippy::too_many_arguments)]
fn gemm_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_trans: bool,
    b: &[f64],
    b_trans: bool,
    accumulate: bool,
    out: &mut [f64],
) {
    for i in 0..m {
        let orow = &mut out[i * n..i * n + n];
        for (j, o) in orow.iter_mut().enumerate() {
            let mut s = 0.0;
            for kk in 0..k {
                let av = if a_trans { a[kk * m + i] } else { a[i * k + kk] };
                let bv = if b_trans { b[j * k + kk] } else { b[kk * n + j] };
                s = fmadd(av, bv, s);
            }
            if accumulate {
                *o += s;
            } else {
                *o = s;
            }
        }
    }
}

/// Packs `op(A)` (logical m×k) into MR-row micropanels:
/// `apack[p*MR*k + kk*MR + r] = op(A)[p*MR + r, kk]`, rows past `m`
/// zero-padded. Parallel over panels (disjoint writes; packed values
/// are independent of which worker writes them).
fn pack_a(apack: &mut [f64], a: &[f64], a_trans: bool, m: usize, k: usize) {
    let panel_len = MR * k;
    let panels = apack.len() / panel_len;
    let chunk = nd_par::auto_chunk_len(panels, 4);
    nd_par::par_for_rows(apack, panel_len, chunk, panel_len, |p0, block| {
        for (pi, panel) in block.chunks_exact_mut(panel_len).enumerate() {
            let p = p0 + pi;
            if a_trans {
                // A stored k×m: one source row per kk, contiguous in r.
                for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = &a[kk * m..kk * m + m];
                    for (r, d) in dst.iter_mut().enumerate() {
                        let row = p * MR + r;
                        *d = if row < m { src[row] } else { 0.0 };
                    }
                }
            } else {
                for r in 0..MR {
                    let row = p * MR + r;
                    if row < m {
                        let src = &a[row * k..row * k + k];
                        for (kk, &v) in src.iter().enumerate() {
                            panel[kk * MR + r] = v;
                        }
                    } else {
                        for kk in 0..k {
                            panel[kk * MR + r] = 0.0;
                        }
                    }
                }
            }
        }
    });
}

/// Packs `op(B)` (logical k×n) into NR-column micropanels:
/// `bpack[q*NR*k + kk*NR + c] = op(B)[kk, q*NR + c]`, columns past `n`
/// zero-padded. Parallel over panels.
fn pack_b(bpack: &mut [f64], b: &[f64], b_trans: bool, k: usize, n: usize) {
    let panel_len = NR * k;
    let panels = bpack.len() / panel_len;
    let chunk = nd_par::auto_chunk_len(panels, 2);
    nd_par::par_for_rows(bpack, panel_len, chunk, panel_len, |q0, block| {
        for (qi, panel) in block.chunks_exact_mut(panel_len).enumerate() {
            let q = q0 + qi;
            if b_trans {
                // B stored n×k: one source row per output column.
                for c in 0..NR {
                    let col = q * NR + c;
                    if col < n {
                        let src = &b[col * k..col * k + k];
                        for (kk, &v) in src.iter().enumerate() {
                            panel[kk * NR + c] = v;
                        }
                    } else {
                        for kk in 0..k {
                            panel[kk * NR + c] = 0.0;
                        }
                    }
                }
            } else {
                for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[kk * n..kk * n + n];
                    for (c, d) in dst.iter_mut().enumerate() {
                        let col = q * NR + c;
                        *d = if col < n { src[col] } else { 0.0 };
                    }
                }
            }
        }
    });
}

/// One MR×NR register tile over a depth slice of `kc` steps. The
/// accumulator lives in locals (returned by value) so the compiler
/// keeps the whole tile in registers; ×4 depth unroll feeds the FMA
/// pipes. Accumulation order over `kk` is fixed and serial.
#[inline]
fn microkernel(apanel: &[f64], bpanel: &[f64], kc: usize) -> [[f64; NR]; MR] {
    #[inline(always)]
    fn step(acc: &mut [[f64; NR]; MR], av: &[f64], bv: &[f64]) {
        let av = &av[..MR];
        let bv = &bv[..NR];
        for (accr, &ar) in acc.iter_mut().zip(av) {
            for (x, &bc) in accr.iter_mut().zip(bv) {
                *x = fmadd(ar, bc, *x);
            }
        }
    }

    let mut acc = [[0.0f64; NR]; MR];
    let mut kk = 0;
    while kk + KU <= kc {
        step(&mut acc, &apanel[kk * MR..], &bpanel[kk * NR..]);
        step(&mut acc, &apanel[(kk + 1) * MR..], &bpanel[(kk + 1) * NR..]);
        step(&mut acc, &apanel[(kk + 2) * MR..], &bpanel[(kk + 2) * NR..]);
        step(&mut acc, &apanel[(kk + 3) * MR..], &bpanel[(kk + 3) * NR..]);
        kk += KU;
    }
    while kk < kc {
        step(&mut acc, &apanel[kk * MR..], &bpanel[kk * NR..]);
        kk += 1;
    }
    acc
}

/// The packed path: pack both operands fully, then run a serial
/// KC-blocked depth loop; within each depth block, one `par_for_rows`
/// dispatch splits the output over MC-row (panel-aligned) chunks.
/// Per chunk, B panels are the outer loop (one 24 KiB panel slice stays
/// L1-hot while the chunk's A panels stream from L2).
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_trans: bool,
    b: &[f64],
    b_trans: bool,
    accumulate: bool,
    scratch: &mut GemmScratch,
    out: &mut [f64],
) {
    let mpanels = m.div_ceil(MR);
    let npanels = n.div_ceil(NR);
    let (apack, bpack) = scratch.panels(mpanels * MR * k, npanels * NR * k);
    pack_a(apack, a, a_trans, m, k);
    pack_b(bpack, b, b_trans, k, n);
    let apack = &*apack;
    let bpack = &*bpack;

    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        // First depth block stores (unless accumulating into existing
        // contents); later blocks always add. Each entry is visited
        // exactly once per depth block, so the per-entry accumulation
        // order is ascending k0 × the kernel's fixed kk order.
        let store = k0 == 0 && !accumulate;
        nd_par::par_for_rows(out, n, MC, n * kc, |i0, block| {
            let i_end = i0 + block.len() / n;
            // i0 is a multiple of MC (= 42 whole panels), so p_first is
            // panel-aligned for every chunk the dispatcher produces.
            let p_first = i0 / MR;
            let p_last = i_end.div_ceil(MR);
            for q in 0..npanels {
                let bbase = q * NR * k;
                let bpanel = &bpack[bbase + k0 * NR..bbase + (k0 + kc) * NR];
                let cmax = NR.min(n - q * NR);
                for p in p_first..p_last {
                    let abase = p * MR * k;
                    let apanel = &apack[abase + k0 * MR..abase + (k0 + kc) * MR];
                    let acc = microkernel(apanel, bpanel, kc);
                    let rmax = MR.min(i_end - p * MR);
                    for (r, accr) in acc.iter().enumerate().take(rmax) {
                        let row = p * MR + r;
                        let obase = (row - i0) * n + q * NR;
                        let orow = &mut block[obase..obase + cmax];
                        if store {
                            orow.copy_from_slice(&accr[..cmax]);
                        } else {
                            for (o, &v) in orow.iter_mut().zip(accr) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        });
    }
}

/// A linear operator exposing matrix-shaped products, so algorithms
/// like the randomized SVD can run on any representation — dense
/// [`Mat`] here, `CsrMatrix` in `nd-vectorize` — without densifying.
pub trait MatOp {
    /// Rows of the operator.
    fn nrows(&self) -> usize;
    /// Columns of the operator.
    fn ncols(&self) -> usize;
    /// `out = A · rhs` where `rhs` is `ncols × p`; `out` is reshaped to
    /// `nrows × p`. Implementations may ignore `scratch`.
    fn apply_into(&self, rhs: &Mat, scratch: &mut GemmScratch, out: &mut Mat);
    /// `out = Aᵀ · rhs` where `rhs` is `nrows × p`; `out` is reshaped to
    /// `ncols × p`. Implementations may ignore `scratch`.
    fn apply_t_into(&self, rhs: &Mat, scratch: &mut GemmScratch, out: &mut Mat);
}

impl MatOp for Mat {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn apply_into(&self, rhs: &Mat, scratch: &mut GemmScratch, out: &mut Mat) {
        debug_assert_eq!(self.cols(), rhs.rows(), "apply_into: dimension mismatch");
        self.matmul_unchecked_into(rhs, scratch, out);
    }

    fn apply_t_into(&self, rhs: &Mat, scratch: &mut GemmScratch, out: &mut Mat) {
        debug_assert_eq!(self.rows(), rhs.rows(), "apply_t_into: dimension mismatch");
        self.transpose_matmul_into(rhs, scratch, out);
    }
}
