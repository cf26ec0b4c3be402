//! Non-Negative Matrix Factorization — the paper's topic-model choice.
//!
//! Factorizes the weighted document-term matrix `A (n x m)` into
//! non-negative `W (n x k)` (document-topic) and `H (k x m)`
//! (topic-term) by minimizing the Frobenius objective of paper
//! Eq. (6)–(7) with the Lee–Seung multiplicative updates of Eq. (8):
//!
//! ```text
//! H <- H .* (WᵀA) ./ (WᵀWH)
//! W <- W .* (AHᵀ) ./ (WHHᵀ)
//! ```
//!
//! The update keeps factors non-negative by construction and is
//! guaranteed not to increase the objective; we iterate until the
//! relative objective improvement drops below `tol` or `max_iter` is
//! reached.
//!
//! Every temporary the iteration needs lives in an [`NmfScratch`]
//! workspace allocated once per `fit`: the loop body runs through the
//! `*_into` product APIs and performs no heap allocation after the
//! first iteration (enforced by `nd-lint`'s `hot-loop-alloc` rule).

use crate::model::TopicModel;
use nd_linalg::Mat;
use nd_vectorize::{CsrMatrix, Vocabulary};

/// NMF hyper-parameters.
#[derive(Debug, Clone)]
pub struct NmfConfig {
    /// Number of topics `k`.
    pub n_topics: usize,
    /// Maximum multiplicative-update iterations.
    pub max_iter: usize,
    /// Relative-improvement stopping tolerance.
    pub tol: f64,
    /// RNG seed for factor initialization.
    pub seed: u64,
}

impl Default for NmfConfig {
    fn default() -> Self {
        NmfConfig { n_topics: 10, max_iter: 200, tol: 1e-4, seed: 42 }
    }
}

/// The NMF solver.
#[derive(Debug, Clone)]
pub struct Nmf {
    config: NmfConfig,
}

/// Previous factors to warm-start a fit from (DESIGN.md §17).
///
/// The streaming pipeline folds one time slice at a time: documents
/// and vocabulary only ever *grow*, and the incremental DTM keeps
/// term ids stable, so the previous `W` rows / `H` columns are a
/// valid prefix of the new factor shapes. Rows/columns beyond the
/// warm prefix (new documents, new terms) get the usual scaled-
/// uniform random initialization from the fit seed.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// Previous document-topic factor (`n₀ × k`).
    pub doc_topic: &'a Mat,
    /// Previous topic-term factor (`k × m₀`).
    pub topic_term: &'a Mat,
}

/// Small constant guarding the multiplicative-update denominators.
const EPS: f64 = 1e-10;

/// Preallocated per-`fit` workspace: every matrix temporary the
/// multiplicative-update loop needs, allocated on the first iteration
/// and reshaped in place (`Mat::reset_zeroed`) on every subsequent
/// one. Shapes are fixed across the loop (`W: n×k`, `H: k×m`), so
/// after iteration one nothing here ever reallocates.
struct NmfScratch {
    /// `WᵀA` (k×m) — numerator of the H update, written directly in
    /// its consumed layout by the fused
    /// `CsrMatrix::transpose_matmul_dense_t_into` kernel (no `AᵀW`
    /// intermediate, no transpose pass).
    wta: Mat,
    /// `WᵀW` (k×k).
    wtw: Mat,
    /// `WᵀWH` (k×m) — denominator of the H update.
    wtwh: Mat,
    /// `Hᵀ` (m×k); needed by the sparse `AHᵀ` product, and its row j
    /// is the objective's contiguous copy of column j of H.
    ht: Mat,
    /// `AHᵀ` (n×k) — numerator of the W update.
    aht: Mat,
    /// `HHᵀ` (k×k) via `matmul_transpose_into` straight off `H`.
    hht: Mat,
    /// `WHHᵀ` (n×k) — denominator of the W update.
    whht: Mat,
    /// Packing panels shared by every dense GEMM in the loop.
    gemm: nd_linalg::GemmScratch,
}

impl NmfScratch {
    fn new() -> Self {
        let empty = || Mat::zeros(0, 0);
        NmfScratch {
            wta: empty(),
            wtw: empty(),
            wtwh: empty(),
            ht: empty(),
            aht: empty(),
            hht: empty(),
            whht: empty(),
            gemm: nd_linalg::GemmScratch::new(),
        }
    }
}

impl Nmf {
    /// Creates a solver with the given configuration.
    pub fn new(config: NmfConfig) -> Self {
        Nmf { config }
    }

    /// Convenience constructor for `k` topics with defaults.
    pub fn with_topics(n_topics: usize) -> Self {
        Nmf::new(NmfConfig { n_topics, ..NmfConfig::default() })
    }

    /// Fits the factorization to a weighted document-term matrix.
    ///
    /// `vocab` must be the vocabulary that produced `a`'s columns; it
    /// is cloned into the returned [`TopicModel`] for keyword decoding.
    pub fn fit(&self, a: &CsrMatrix, vocab: &Vocabulary) -> TopicModel {
        self.fit_warm(a, vocab, None)
    }

    /// Fits the factorization, optionally warm-starting from previous
    /// factors.
    ///
    /// When `warm` is given and its topic count matches the clamped
    /// `k`, the previous `W` rows and `H` columns seed the
    /// corresponding prefix of the new factors (floored at `EPS` so
    /// multiplicative updates cannot lock a copied zero); fresh rows
    /// and columns draw from the configured seed exactly as a cold
    /// fit would. A shape-incompatible warm start falls back to the
    /// cold initialization. With `warm = None` this IS the cold path:
    /// `fit` delegates here, bit for bit.
    pub fn fit_warm(
        &self,
        a: &CsrMatrix,
        vocab: &Vocabulary,
        warm: Option<WarmStart<'_>>,
    ) -> TopicModel {
        let (n, m) = (a.rows(), a.cols());
        let k = self.config.n_topics.max(1).min(n.max(1)).min(m.max(1));

        // Scaled uniform initialization: E[WH] matches E[A].
        let mean = if n * m > 0 {
            (a.frobenius_norm_sq() / (n * m) as f64).sqrt()
        } else {
            0.0
        };
        let scale = (mean / k as f64).sqrt().max(1e-3);
        let mut w = Mat::random_uniform(n, k, 0.1 * scale, scale, self.config.seed);
        let mut h = Mat::random_uniform(k, m, 0.1 * scale, scale, self.config.seed ^ 0xDEAD);
        if let Some(ws) = warm {
            if ws.doc_topic.cols() == k && ws.topic_term.rows() == k {
                let n0 = ws.doc_topic.rows().min(n);
                for i in 0..n0 {
                    for j in 0..k {
                        w.set(i, j, ws.doc_topic.get(i, j).max(EPS));
                    }
                }
                let m0 = ws.topic_term.cols().min(m);
                for t in 0..k {
                    for j in 0..m0 {
                        h.set(t, j, ws.topic_term.get(t, j).max(EPS));
                    }
                }
            }
        }

        let a_fro2 = a.frobenius_norm_sq();
        let mut prev_obj = f64::INFINITY;
        let mut iterations = 0;
        let mut s = NmfScratch::new();
        w.gram_into(&mut s.gemm, &mut s.wtw);
        h.transpose_into(&mut s.ht);
        h.matmul_transpose_into(&h, &mut s.gemm, &mut s.hht);
        let mut objective = objective_value(a, &w, &s, a_fro2);

        // Factor shapes are invariant across the whole loop (W is
        // n×k, H is k×m), so validate them once here and use the
        // unchecked product paths below — the iteration body stays
        // branch-free instead of unwrapping a `Result` per product.
        assert_eq!(w.shape(), (n, k), "W must be docs x topics");
        assert_eq!(h.shape(), (k, m), "H must be topics x terms");

        for it in 0..self.config.max_iter {
            iterations = it + 1;

            // H <- H .* (W^T A) ./ (W^T W H); s.wtw already holds WᵀW,
            // computed for the objective since W last changed.
            a.transpose_matmul_dense_t_into(&w, &mut s.wta); // fused (AᵀW)ᵀ, k x m
            s.wtw.matmul_unchecked_into(&h, &mut s.gemm, &mut s.wtwh);
            update_factor(&mut h, &s.wta, &s.wtwh);

            // W <- W .* (A H^T) ./ (W H H^T)
            h.transpose_into(&mut s.ht); // m x k, for the sparse product
            a.matmul_dense_into(&s.ht, &mut s.aht); // n x k
            h.matmul_transpose_into(&h, &mut s.gemm, &mut s.hht); // H Hᵀ, k x k
            w.matmul_unchecked_into(&s.hht, &mut s.gemm, &mut s.whht);
            update_factor(&mut w, &s.aht, &s.whht);

            // H has not changed since s.ht and s.hht were computed.
            w.gram_into(&mut s.gemm, &mut s.wtw); // k x k
            objective = objective_value(a, &w, &s, a_fro2);
            if prev_obj.is_finite() {
                let rel = (prev_obj - objective).abs() / prev_obj.max(EPS);
                if rel < self.config.tol {
                    break;
                }
            }
            prev_obj = objective;
        }

        TopicModel {
            doc_topic: w,
            topic_term: h,
            vocab: vocab.clone(),
            objective,
            iterations,
        }
    }
}

/// `x <- x .* num ./ den`, with epsilon-guarded division and a
/// non-negativity clamp against rounding. Element-wise and therefore
/// trivially row-parallel.
fn update_factor(x: &mut Mat, num: &Mat, den: &Mat) {
    debug_assert_eq!(x.shape(), num.shape());
    debug_assert_eq!(x.shape(), den.shape());
    let cols = x.cols().max(1);
    let rows = x.rows();
    let ns = num.as_slice();
    let ds = den.as_slice();
    let rows_per_chunk = nd_par::auto_chunk_len(rows, 64);
    nd_par::par_for_rows(x.as_mut_slice(), cols, rows_per_chunk, cols, |r0, block| {
        let off = r0 * cols;
        for (i, xv) in block.iter_mut().enumerate() {
            *xv *= ns[off + i] / (ds[off + i] + EPS);
            if *xv < 0.0 {
                *xv = 0.0;
            }
        }
    });
}

/// `||A - WH||_F^2` computed without densifying `A`:
/// `||A||² - 2·<A, WH> + ||WH||²`, with `<A, WH>` accumulated over the
/// sparse entries and `||WH||² = tr((WᵀW)(HHᵀ))`. Reads `Hᵀ`, `WᵀW`
/// and `HHᵀ` from the scratch workspace, which must hold them for the
/// current `W` and `H`.
fn objective_value(a: &CsrMatrix, w: &Mat, s: &NmfScratch, a_fro2: f64) -> f64 {
    // <A, WH>: document chunks run in parallel, partial sums combine
    // in chunk order so the value is reproducible at any thread count.
    let k = w.cols();
    let avg_nnz = a.nnz() / a.rows().max(1);
    // Fixed chunk length: reduction order must not move with the
    // thread count.
    let cross = nd_par::par_map_reduce(
        a.rows(),
        64,
        avg_nnz.saturating_mul(k).max(1),
        |range| {
            let mut c = 0.0;
            for i in range {
                let wrow = w.row(i);
                for (j, v) in a.row(i).iter() {
                    // Row j of Hᵀ is column j of H, contiguous.
                    let wh: f64 =
                        // nd-lint: allow(fp-reduction-order) — serial zip over one row; order fixed.
                        wrow.iter().zip(s.ht.row(j)).map(|(&wv, &hv)| wv * hv).sum();
                    c += v * wh;
                }
            }
            c
        },
        |x, y| x + y,
    )
    .unwrap_or(0.0);
    // ||WH||^2 = tr((W^T W)(H H^T))
    let mut wh_fro2 = 0.0;
    for i in 0..s.wtw.rows() {
        for j in 0..s.wtw.cols() {
            wh_fro2 += s.wtw.get(i, j) * s.hht.get(j, i);
        }
    }
    (a_fro2 - 2.0 * cross + wh_fro2).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_vectorize::{DtmBuilder, Weighting};

    fn planted_corpus() -> Vec<Vec<String>> {
        // Two clearly separated topics: politics and trade.
        let politics = ["brexit", "vote", "election", "party", "parliament"];
        let trade = ["tariff", "trade", "china", "import", "export"];
        let mut docs = Vec::new();
        for i in 0..20 {
            let pool: &[&str] = if i % 2 == 0 { &politics } else { &trade };
            let doc: Vec<String> = (0..12).map(|j| pool[(i + j) % pool.len()].to_string()).collect();
            docs.push(doc);
        }
        docs
    }

    fn fit_planted(seed: u64) -> TopicModel {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        Nmf::new(NmfConfig { n_topics: 2, max_iter: 300, tol: 1e-7, seed })
            .fit(&a, dtm.vocab())
    }

    #[test]
    fn factors_nonnegative() {
        let m = fit_planted(1);
        assert!(m.doc_topic.as_slice().iter().all(|&v| v >= 0.0));
        assert!(m.topic_term.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn recovers_planted_topics() {
        let m = fit_planted(7);
        let t0 = m.topic(0, 5).unwrap();
        let t1 = m.topic(1, 5).unwrap();
        let joint0 = t0.keywords.join(" ");
        let joint1 = t1.keywords.join(" ");
        // One topic should be politics-flavoured, the other trade-flavoured.
        let politics_hits = |s: &str| {
            ["brexit", "vote", "election", "party", "parliament"]
                .iter()
                .filter(|k| s.contains(*k))
                .count()
        };
        let trade_hits = |s: &str| {
            ["tariff", "trade", "china", "import", "export"]
                .iter()
                .filter(|k| s.contains(*k))
                .count()
        };
        let sep = (politics_hits(&joint0) >= 4 && trade_hits(&joint1) >= 4)
            || (politics_hits(&joint1) >= 4 && trade_hits(&joint0) >= 4);
        assert!(sep, "topics not separated:\n  t0: {joint0}\n  t1: {joint1}");
    }

    #[test]
    fn documents_assigned_to_correct_topics() {
        let m = fit_planted(3);
        // Even documents are politics, odd are trade; they should split
        // into two pure groups by dominant topic.
        let even_topic = m.dominant_topic(0).unwrap();
        let odd_topic = m.dominant_topic(1).unwrap();
        assert_ne!(even_topic, odd_topic);
        for d in 0..20 {
            let want = if d % 2 == 0 { even_topic } else { odd_topic };
            assert_eq!(m.dominant_topic(d), Some(want), "doc {d}");
        }
    }

    #[test]
    fn objective_decreases_with_more_iterations() {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        let short = Nmf::new(NmfConfig { n_topics: 2, max_iter: 2, tol: 0.0, seed: 5 })
            .fit(&a, dtm.vocab());
        let long = Nmf::new(NmfConfig { n_topics: 2, max_iter: 100, tol: 0.0, seed: 5 })
            .fit(&a, dtm.vocab());
        assert!(
            long.objective <= short.objective + 1e-9,
            "long {} vs short {}",
            long.objective,
            short.objective
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = fit_planted(11);
        let b = fit_planted(11);
        assert_eq!(a.doc_topic, b.doc_topic);
        assert_eq!(a.topic_term, b.topic_term);
    }

    #[test]
    fn k_clamped_to_matrix_dims() {
        let docs: Vec<Vec<String>> =
            vec![vec!["a".to_string(), "b".to_string()], vec!["b".to_string()]];
        let dtm = DtmBuilder::new().build(&docs);
        let a = dtm.weighted(Weighting::Tf);
        let m = Nmf::with_topics(50).fit(&a, dtm.vocab());
        assert!(m.n_topics() <= 2);
    }

    #[test]
    fn empty_matrix_does_not_panic() {
        let dtm = DtmBuilder::new().build(&[]);
        let a = dtm.weighted(Weighting::Tf);
        let m = Nmf::with_topics(3).fit(&a, dtm.vocab());
        assert_eq!(m.doc_topic.rows(), 0);
    }

    #[test]
    fn fit_warm_none_is_bitwise_the_cold_path() {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        let solver = Nmf::new(NmfConfig { n_topics: 2, max_iter: 40, tol: 1e-7, seed: 9 });
        let cold = solver.fit(&a, dtm.vocab());
        let warm_none = solver.fit_warm(&a, dtm.vocab(), None);
        assert_eq!(cold.doc_topic, warm_none.doc_topic);
        assert_eq!(cold.topic_term, warm_none.topic_term);
    }

    #[test]
    fn warm_start_refines_from_previous_factors() {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        let converged = Nmf::new(NmfConfig { n_topics: 2, max_iter: 300, tol: 1e-9, seed: 4 })
            .fit(&a, dtm.vocab());
        // A handful of warm iterations from the converged factors must
        // land (essentially) back at the converged objective; the same
        // budget from a cold start generally cannot.
        let refine = Nmf::new(NmfConfig { n_topics: 2, max_iter: 3, tol: 0.0, seed: 4 });
        let warm = refine.fit_warm(
            &a,
            dtm.vocab(),
            Some(WarmStart { doc_topic: &converged.doc_topic, topic_term: &converged.topic_term }),
        );
        assert!(
            warm.objective <= converged.objective * 1.001 + 1e-12,
            "warm refinement regressed: {} vs {}",
            warm.objective,
            converged.objective
        );
        assert!(warm.doc_topic.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn warm_start_handles_grown_corpus_and_vocab() {
        // Fit on a prefix, then warm-start on the grown matrix: prior
        // rows/cols seed the prefix, new ones draw fresh.
        let all = planted_corpus();
        let dtm_small = DtmBuilder::new().min_df(1).build(&all[..10]);
        let a_small = dtm_small.weighted(Weighting::TfIdfNormalized);
        let prev = Nmf::new(NmfConfig { n_topics: 2, max_iter: 200, tol: 1e-9, seed: 8 })
            .fit(&a_small, dtm_small.vocab());
        let dtm_full = DtmBuilder::new().min_df(1).build(&all);
        let a_full = dtm_full.weighted(Weighting::TfIdfNormalized);
        let solver = Nmf::new(NmfConfig { n_topics: 2, max_iter: 25, tol: 0.0, seed: 8 });
        let warm = solver.fit_warm(
            &a_full,
            dtm_full.vocab(),
            Some(WarmStart { doc_topic: &prev.doc_topic, topic_term: &prev.topic_term }),
        );
        assert_eq!(warm.doc_topic.rows(), a_full.rows());
        assert_eq!(warm.topic_term.cols(), a_full.cols());
        assert!(warm.objective.is_finite());
        // Determinism: the same warm start reproduces bit-identically.
        let again = solver.fit_warm(
            &a_full,
            dtm_full.vocab(),
            Some(WarmStart { doc_topic: &prev.doc_topic, topic_term: &prev.topic_term }),
        );
        assert_eq!(warm.doc_topic, again.doc_topic);
        assert_eq!(warm.topic_term, again.topic_term);
    }

    #[test]
    fn shape_mismatched_warm_start_falls_back_cold() {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        let solver = Nmf::new(NmfConfig { n_topics: 2, max_iter: 20, tol: 1e-7, seed: 6 });
        let cold = solver.fit(&a, dtm.vocab());
        let bad_w = Mat::zeros(5, 7); // wrong k
        let bad_h = Mat::zeros(7, 3);
        let fallback = solver.fit_warm(
            &a,
            dtm.vocab(),
            Some(WarmStart { doc_topic: &bad_w, topic_term: &bad_h }),
        );
        assert_eq!(cold.doc_topic, fallback.doc_topic);
        assert_eq!(cold.topic_term, fallback.topic_term);
    }

    #[test]
    fn reconstruction_error_small_for_separable_data() {
        let dtm = DtmBuilder::new().build(&planted_corpus());
        let a = dtm.weighted(Weighting::TfIdfNormalized);
        let m = Nmf::new(NmfConfig { n_topics: 2, max_iter: 500, tol: 1e-9, seed: 2 })
            .fit(&a, dtm.vocab());
        let rel = m.objective / a.frobenius_norm_sq();
        assert!(rel < 0.15, "relative reconstruction error {rel}");
    }
}
