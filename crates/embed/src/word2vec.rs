//! Word2Vec with negative sampling (Mikolov et al. 2013).
//!
//! Both architectures from the paper's §3.4 are implemented:
//!
//! * **CBOW** — the averaged context window predicts the center word;
//! * **Skip-gram** — the center word predicts each context word.
//!
//! Training uses negative sampling with the standard unigram^0.75
//! noise distribution, frequent-word subsampling, and a linearly
//! decaying learning rate. All randomness is seeded.
//!
//! # Parallel training and determinism
//!
//! Sentences are processed in fixed-size batches. Every sentence
//! derives its own RNG stream from `(seed, epoch, sentence index)`,
//! computes its gradient contributions against the parameter snapshot
//! taken at the start of its batch (mini-batch semantics rather than
//! Hogwild), and the contributions are applied in ascending sentence
//! order. Sentences within a batch run across threads via [`nd_par`],
//! but neither the derived randomness nor the apply order depends on
//! the thread count, so training is bit-for-bit reproducible at any
//! `NEWSDIFF_THREADS` setting. The learning-rate schedule decays over
//! *raw* token positions (prefix sums of sentence lengths), not over
//! stochastic post-subsampling counts, for the same reason.

use crate::vectors::WordVectors;
use nd_linalg::rng::SplitMix64;
use std::collections::{BTreeMap, HashMap};

/// Architecture selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Word2VecMode {
    /// Continuous bag-of-words.
    Cbow,
    /// Skip-gram.
    SkipGram,
}

/// Word2Vec hyper-parameters.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub learning_rate: f64,
    /// Words occurring fewer times are dropped from the vocabulary.
    pub min_count: usize,
    /// Subsampling threshold for frequent words (`0.0` disables; the
    /// classic value is `1e-3`..`1e-5`).
    pub subsample: f64,
    /// Architecture.
    pub mode: Word2VecMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dim: 100,
            window: 5,
            negative: 5,
            epochs: 5,
            learning_rate: 0.025,
            min_count: 2,
            subsample: 1e-3,
            mode: Word2VecMode::Cbow,
            seed: 42,
        }
    }
}

/// The Word2Vec trainer.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    config: Word2VecConfig,
}

const UNIGRAM_TABLE_SIZE: usize = 1 << 17;
const SIGMOID_CLAMP: f64 = 6.0;
/// Sentences per batch-synchronous update. Small enough that the
/// snapshot gradients stay close to sequential SGD, large enough to
/// amortise the parallel fan-out.
const BATCH_SENTENCES: usize = 8;

#[inline]
fn sigmoid(x: f64) -> f64 {
    let x = x.clamp(-SIGMOID_CLAMP, SIGMOID_CLAMP);
    1.0 / (1.0 + (-x).exp())
}

/// Derives the per-sentence RNG stream. A pure function of the seed,
/// epoch, and sentence index — independent of processing order, so
/// any scheduling of sentences across threads sees identical draws.
fn sentence_rng(seed: u64, epoch: usize, sent: usize) -> SplitMix64 {
    let key = seed
        ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sent as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    SplitMix64::new(key)
}

/// One sentence's gradient contributions: parallel row-id / delta
/// arrays for the input (`syn0`) and output (`syn1`) matrices, each
/// delta `dim` wide. Recorded in generation order and applied in the
/// same order.
#[derive(Default)]
struct SentGrad {
    rows0: Vec<u32>,
    delta0: Vec<f64>,
    rows1: Vec<u32>,
    delta1: Vec<f64>,
}

/// Adds each recorded delta row into `params` in recorded order.
fn apply_deltas(params: &mut [f64], dim: usize, rows: &[u32], deltas: &[f64]) {
    for (i, &r) in rows.iter().enumerate() {
        let row = &mut params[r as usize * dim..(r as usize + 1) * dim];
        for (p, &d) in row.iter_mut().zip(&deltas[i * dim..(i + 1) * dim]) {
            *p += d;
        }
    }
}

/// Reusable per-sentence workspace. One slot exists per batch lane
/// (`BATCH_SENTENCES` of them), allocated once per training run; every
/// temporary the gradient pass needs lives here, so the epoch loop
/// performs no per-sentence heap allocation once the slots have grown
/// to the corpus's working set.
struct SentScratch {
    /// The sentence's recorded gradient contributions.
    grad: SentGrad,
    /// Post-subsampling token ids.
    kept: Vec<u32>,
    /// Current context-window token ids.
    context: Vec<u32>,
    /// Hidden/predictor vector (`dim` wide).
    neu1: Vec<f64>,
    /// Gradient accumulator for the predictor (`dim` wide).
    gvec: Vec<f64>,
}

impl SentScratch {
    fn new(dim: usize) -> Self {
        SentScratch {
            grad: SentGrad::default(),
            kept: Vec::new(),
            context: Vec::new(),
            neu1: vec![0.0; dim],
            gvec: vec![0.0; dim],
        }
    }

    /// Clears the per-sentence state while keeping every allocation.
    fn clear(&mut self) {
        self.grad.rows0.clear();
        self.grad.delta0.clear();
        self.grad.rows1.clear();
        self.grad.delta1.clear();
        self.kept.clear();
        self.context.clear();
    }
}

impl Word2Vec {
    /// Creates a trainer with the given configuration.
    pub fn new(config: Word2VecConfig) -> Self {
        Word2Vec { config }
    }

    /// Trains on a corpus of token streams, returning the input-side
    /// word vectors.
    pub fn train(&self, corpus: &[Vec<String>]) -> WordVectors {
        self.train_from(corpus, None)
    }

    /// Online continuation (DESIGN.md §17): trains on `corpus` with
    /// known words resuming from `prev` and merges the result over
    /// `prev`, so words absent from this corpus keep their previous
    /// vectors. The streaming pipeline calls this once per time slice
    /// with a slice-scoped seed.
    pub fn train_continue(&self, corpus: &[Vec<String>], prev: &WordVectors) -> WordVectors {
        let trained = self.train_from(corpus, Some(prev));
        if prev.dim() != self.config.dim {
            // Dimension change: nothing to resume from or merge with.
            return trained;
        }
        let mut out = prev.clone();
        for (w, vec) in trained.iter() {
            out.insert(w, vec);
        }
        out
    }

    /// Trains on a corpus, optionally seeding input rows from prior
    /// vectors.
    ///
    /// The RNG consumption is independent of `init`: the full random
    /// initialization is drawn first (bit-identical to a cold run),
    /// then rows of words present in `init` are overwritten with the
    /// prior vectors. New-vocabulary rows therefore come from exactly
    /// the stream positions a cold run would give them, which is what
    /// makes warm continuation reproducible without replaying history.
    fn train_from(&self, corpus: &[Vec<String>], init: Option<&WordVectors>) -> WordVectors {
        let cfg = &self.config;
        // --- Vocabulary with counts. BTreeMap: the collect below
        // iterates it, and vocabulary order seeds everything
        // downstream (ids, init vectors, negative-sampling table).
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for doc in corpus {
            for tok in doc {
                *counts.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
        let mut vocab: Vec<(&str, usize)> = counts
            .iter()
            .filter(|(_, &c)| c >= cfg.min_count)
            .map(|(&w, &c)| (w, c))
            .collect();
        // Deterministic: count desc, then lexical.
        vocab.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let word_id: HashMap<&str, usize> =
            vocab.iter().enumerate().map(|(i, &(w, _))| (w, i)).collect();
        let v = vocab.len();
        if v == 0 {
            return WordVectors::new(cfg.dim);
        }
        let total_tokens: usize = vocab.iter().map(|&(_, c)| c).sum();

        // --- Unigram^0.75 table for negative sampling.
        // nd-lint: allow(fp-reduction-order) — serial sum over the sorted vocab; order fixed by construction.
        let pow_sum: f64 = vocab.iter().map(|&(_, c)| (c as f64).powf(0.75)).sum();
        // nd-lint: allow(hot-loop-alloc) — prologue, built once per training run.
        let mut table = Vec::with_capacity(UNIGRAM_TABLE_SIZE);
        {
            let mut i = 0usize;
            let mut cum = (vocab[0].1 as f64).powf(0.75) / pow_sum;
            for t in 0..UNIGRAM_TABLE_SIZE {
                table.push(i as u32);
                if (t as f64 + 1.0) / UNIGRAM_TABLE_SIZE as f64 > cum && i + 1 < v {
                    i += 1;
                    cum += (vocab[i].1 as f64).powf(0.75) / pow_sum;
                }
            }
        }

        // --- Parameter matrices: input (syn0) and output (syn1neg).
        let mut rng = SplitMix64::new(cfg.seed);
        let bound = 0.5 / cfg.dim as f64;
        let mut syn0: Vec<f64> =
            (0..v * cfg.dim).map(|_| rng.next_range(-bound, bound)).collect();
        if let Some(iv) = init.filter(|iv| iv.dim() == cfg.dim) {
            // Warm continuation: known words resume from their prior
            // vectors; unknown rows keep the fresh draws above.
            for (i, &(w, _)) in vocab.iter().enumerate() {
                if let Some(row) = iv.get(w) {
                    syn0[i * cfg.dim..(i + 1) * cfg.dim].copy_from_slice(row);
                }
            }
        }
        // nd-lint: allow(hot-loop-alloc) — prologue, built once per training run.
        let mut syn1: Vec<f64> = vec![0.0; v * cfg.dim];

        // --- Keep-probability for subsampling.
        let keep_prob: Vec<f64> = vocab
            .iter()
            .map(|&(_, c)| {
                if cfg.subsample <= 0.0 {
                    1.0
                } else {
                    let f = c as f64 / total_tokens as f64;
                    ((cfg.subsample / f).sqrt() + cfg.subsample / f).min(1.0)
                }
            })
            .collect();

        // --- Encode corpus as id streams.
        let encoded: Vec<Vec<u32>> = corpus
            .iter()
            .map(|doc| {
                doc.iter()
                    .filter_map(|t| word_id.get(t.as_str()).map(|&i| i as u32))
                    .collect()
            })
            .collect();

        // --- Training loop: deterministic batch-synchronous SGD.
        let total_steps = (cfg.epochs * total_tokens).max(1) as f64;
        // Raw-token prefix sums drive the linear learning-rate decay;
        // the schedule must not depend on stochastic subsampling
        // outcomes or on which thread reached a sentence first.
        // nd-lint: allow(hot-loop-alloc) — prologue, built once per training run.
        let mut sent_offsets = Vec::with_capacity(encoded.len());
        let mut acc = 0usize;
        for sent in &encoded {
            sent_offsets.push(acc);
            acc += sent.len();
        }
        let avg_len = total_tokens / encoded.len().max(1);
        let work_hint =
            avg_len.saturating_mul(cfg.dim).saturating_mul(cfg.negative + 2).max(1);

        // One scratch slot per batch lane, allocated once for the whole
        // run; every batch reuses them, so the epoch loop is free of
        // per-sentence heap traffic once the buffers have grown.
        let mut slots: Vec<SentScratch> = (0..BATCH_SENTENCES.min(encoded.len()))
            .map(|_| SentScratch::new(cfg.dim))
            .collect();

        for epoch in 0..cfg.epochs {
            let epoch_base = epoch * total_tokens;
            let mut batch_start = 0;
            while batch_start < encoded.len() {
                let batch_len = BATCH_SENTENCES.min(encoded.len() - batch_start);
                let syn0_ref = &syn0;
                let syn1_ref = &syn1;
                let encoded_ref = &encoded;
                let keep_prob_ref = &keep_prob;
                let table_ref = &table;
                // One row (= one scratch slot) per sentence: chunk
                // boundaries are fixed and each slot is written by
                // exactly one worker, whatever the thread count.
                nd_par::par_for_rows(&mut slots[..batch_len], 1, 1, work_hint, |bi, slot| {
                    let ws = &mut slot[0];
                    let si = batch_start + bi;
                    let tokens_before = epoch_base + sent_offsets[si];
                    let lr = (cfg.learning_rate
                        * (1.0 - tokens_before as f64 / (total_steps + 1.0)))
                        .max(cfg.learning_rate * 1e-4);
                    let mut srng = sentence_rng(cfg.seed, epoch, si);
                    sentence_gradients(
                        cfg,
                        &encoded_ref[si],
                        keep_prob_ref,
                        table_ref,
                        syn0_ref,
                        syn1_ref,
                        lr,
                        v,
                        &mut srng,
                        ws,
                    );
                });
                // Apply in ascending sentence order — the merge order
                // is part of the determinism contract.
                for ws in &slots[..batch_len] {
                    apply_deltas(&mut syn0, cfg.dim, &ws.grad.rows0, &ws.grad.delta0);
                    apply_deltas(&mut syn1, cfg.dim, &ws.grad.rows1, &ws.grad.delta1);
                }
                batch_start += batch_len;
            }
        }

        // --- Export input vectors.
        let mut out = WordVectors::new(cfg.dim);
        for (i, &(w, _)) in vocab.iter().enumerate() {
            out.insert(w, &syn0[i * cfg.dim..(i + 1) * cfg.dim]);
        }
        out
    }
}

/// Computes one sentence's gradient contributions against a frozen
/// parameter snapshot, writing them into `ws.grad`. Consumes the
/// sentence's private RNG stream for subsampling, window jitter, and
/// negative draws. All temporaries live in `ws`, so a warm slot does
/// no heap allocation.
#[allow(clippy::too_many_arguments)]
fn sentence_gradients(
    cfg: &Word2VecConfig,
    sent: &[u32],
    keep_prob: &[f64],
    table: &[u32],
    syn0: &[f64],
    syn1: &[f64],
    lr: f64,
    vocab_size: usize,
    rng: &mut SplitMix64,
    ws: &mut SentScratch,
) {
    let dim = cfg.dim;
    ws.clear();
    ws.kept.extend(
        sent.iter()
            .copied()
            .filter(|&id| keep_prob[id as usize] >= 1.0 || rng.next_f64() < keep_prob[id as usize]),
    );
    for pos in 0..ws.kept.len() {
        let center = ws.kept[pos];
        // Randomized effective window as in the reference
        // implementation.
        let b = rng.next_usize(cfg.window.max(1));
        let win = cfg.window - b;
        let lo = pos.saturating_sub(win);
        let hi = (pos + win).min(ws.kept.len().saturating_sub(1));
        ws.context.clear();
        for p in lo..=hi {
            if p != pos {
                ws.context.push(ws.kept[p]);
            }
        }
        if ws.context.is_empty() {
            continue;
        }
        match cfg.mode {
            Word2VecMode::Cbow => {
                // Average context -> predict center.
                ws.neu1.iter_mut().for_each(|x| *x = 0.0);
                for &c in &ws.context {
                    let row = &syn0[c as usize * dim..(c as usize + 1) * dim];
                    for (a, &b) in ws.neu1.iter_mut().zip(row) {
                        *a += b;
                    }
                }
                let inv = 1.0 / ws.context.len() as f64;
                ws.neu1.iter_mut().for_each(|x| *x *= inv);
                ws.gvec.iter_mut().for_each(|x| *x = 0.0);
                negative_grads(
                    &ws.neu1,
                    &mut ws.gvec,
                    syn1,
                    center,
                    table,
                    rng,
                    lr,
                    dim,
                    cfg.negative,
                    vocab_size,
                    &mut ws.grad,
                );
                for &c in &ws.context {
                    ws.grad.rows0.push(c);
                    ws.grad.delta0.extend_from_slice(&ws.gvec);
                }
            }
            Word2VecMode::SkipGram => {
                for ci in 0..ws.context.len() {
                    let ctx = ws.context[ci];
                    let row_start = ctx as usize * dim;
                    ws.neu1.copy_from_slice(&syn0[row_start..row_start + dim]);
                    ws.gvec.iter_mut().for_each(|x| *x = 0.0);
                    negative_grads(
                        &ws.neu1,
                        &mut ws.gvec,
                        syn1,
                        center,
                        table,
                        rng,
                        lr,
                        dim,
                        cfg.negative,
                        vocab_size,
                        &mut ws.grad,
                    );
                    ws.grad.rows0.push(ctx);
                    ws.grad.delta0.extend_from_slice(&ws.gvec);
                }
            }
        }
    }
}

/// One negative-sampling step against the snapshot: `hidden` is the
/// predictor vector, `grad` accumulates its gradient, and each output
/// row's update is *recorded* into `sg` instead of applied in place.
#[allow(clippy::too_many_arguments)]
fn negative_grads(
    hidden: &[f64],
    grad: &mut [f64],
    syn1: &[f64],
    target: u32,
    table: &[u32],
    rng: &mut SplitMix64,
    lr: f64,
    dim: usize,
    negative: usize,
    vocab_size: usize,
    sg: &mut SentGrad,
) {
    for k in 0..=negative {
        let (word, label) = if k == 0 {
            (target as usize, 1.0)
        } else {
            let mut w = table[rng.next_usize(table.len())] as usize;
            if w == target as usize {
                w = (w + 1 + rng.next_usize(vocab_size.saturating_sub(1).max(1))) % vocab_size;
            }
            (w, 0.0)
        };
        let out_row = &syn1[word * dim..(word + 1) * dim];
        let mut dot = 0.0;
        for (h, o) in hidden.iter().zip(out_row.iter()) {
            dot += h * o;
        }
        let g = (label - sigmoid(dot)) * lr;
        for (gr, &o) in grad.iter_mut().zip(out_row.iter()) {
            *gr += g * o;
        }
        sg.rows1.push(word as u32);
        sg.delta1.extend(hidden.iter().map(|&h| g * h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic corpus with two disjoint co-occurrence clusters.
    fn clustered_corpus(n_sent: usize) -> Vec<Vec<String>> {
        let cluster_a = ["king", "queen", "royal", "palace", "crown"];
        let cluster_b = ["tariff", "trade", "import", "export", "market"];
        let mut rng = SplitMix64::new(99);
        let mut corpus = Vec::new();
        for i in 0..n_sent {
            let pool: &[&str] = if i % 2 == 0 { &cluster_a } else { &cluster_b };
            let sent: Vec<String> =
                (0..12).map(|_| pool[rng.next_usize(pool.len())].to_string()).collect();
            corpus.push(sent);
        }
        corpus
    }

    fn train(mode: Word2VecMode, seed: u64) -> WordVectors {
        Word2Vec::new(Word2VecConfig {
            dim: 24,
            window: 4,
            negative: 5,
            epochs: 12,
            min_count: 1,
            subsample: 0.0,
            mode,
            seed,
            ..Default::default()
        })
        .train(&clustered_corpus(300))
    }

    fn check_clusters(wv: &WordVectors) {
        // Intra-cluster similarity must exceed inter-cluster.
        let intra = wv.similarity("king", "queen").unwrap();
        let inter = wv.similarity("king", "tariff").unwrap();
        assert!(
            intra > inter + 0.2,
            "intra {intra} should clearly exceed inter {inter}"
        );
    }

    #[test]
    fn cbow_learns_cooccurrence_structure() {
        check_clusters(&train(Word2VecMode::Cbow, 1));
    }

    #[test]
    fn skipgram_learns_cooccurrence_structure() {
        check_clusters(&train(Word2VecMode::SkipGram, 1));
    }

    #[test]
    fn most_similar_finds_cluster_mates() {
        let wv = train(Word2VecMode::Cbow, 2);
        let near: Vec<String> =
            wv.most_similar("trade", 3).into_iter().map(|(w, _)| w).collect();
        let trade_cluster = ["tariff", "import", "export", "market"];
        let hits = near.iter().filter(|w| trade_cluster.contains(&w.as_str())).count();
        assert!(hits >= 2, "neighbors of 'trade' were {near:?}");
    }

    #[test]
    fn min_count_prunes() {
        let mut corpus = clustered_corpus(50);
        corpus.push(vec!["hapaxword".to_string()]);
        let wv = Word2Vec::new(Word2VecConfig {
            dim: 8,
            epochs: 1,
            min_count: 2,
            ..Default::default()
        })
        .train(&corpus);
        assert!(!wv.contains("hapaxword"));
        assert!(wv.contains("king"));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = train(Word2VecMode::Cbow, 7);
        let b = train(Word2VecMode::Cbow, 7);
        assert_eq!(a.get("king"), b.get("king"));
    }

    #[test]
    fn parallel_training_is_bit_identical() {
        // The determinism contract: results do not depend on the
        // thread count. Other tests in this binary may race on the
        // env var, but by that same contract a mid-run change cannot
        // alter their values — only their parallelism.
        let run = |threads: &str| {
            std::env::set_var("NEWSDIFF_THREADS", threads);
            let wv = train(Word2VecMode::SkipGram, 13);
            std::env::remove_var("NEWSDIFF_THREADS");
            wv
        };
        let serial = run("1");
        let parallel = run("8");
        for (w, va) in serial.iter() {
            let vb = parallel.get(w).expect("same vocabulary");
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "word {w}");
            }
        }
    }

    #[test]
    fn continuation_resumes_and_retains_prior_vocabulary() {
        let corpus = clustered_corpus(120);
        let trainer = Word2Vec::new(Word2VecConfig {
            dim: 16,
            epochs: 3,
            min_count: 1,
            subsample: 0.0,
            seed: 21,
            ..Default::default()
        });
        let base = trainer.train(&corpus);
        // Continue on a disjoint mini-corpus: its words get vectors,
        // and every base word keeps one (untouched words bit-exact).
        let fresh: Vec<Vec<String>> = (0..20)
            .map(|_| ["brexit", "vote", "poll"].iter().map(|s| s.to_string()).collect())
            .collect();
        let cont = trainer.train_continue(&fresh, &base);
        assert!(cont.contains("brexit"));
        for (w, v) in base.iter() {
            let kept = cont.get(w).expect("prior word retained");
            for (a, b) in v.iter().zip(kept) {
                assert_eq!(a.to_bits(), b.to_bits(), "untouched word {w} drifted");
            }
        }
    }

    #[test]
    fn continuation_is_deterministic() {
        let corpus = clustered_corpus(80);
        let trainer = Word2Vec::new(Word2VecConfig {
            dim: 12,
            epochs: 2,
            min_count: 1,
            subsample: 0.0,
            seed: 33,
            ..Default::default()
        });
        let base = trainer.train(&corpus[..40]);
        let a = trainer.train_continue(&corpus[40..], &base);
        let b = trainer.train_continue(&corpus[40..], &base);
        for (w, va) in a.iter() {
            let vb = b.get(w).unwrap();
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "word {w}");
            }
        }
        // And training moved the resumed vectors: continuation is not
        // a no-op on words the new corpus contains.
        let moved = corpus[40..]
            .iter()
            .flatten()
            .any(|w| a.get(w).zip(base.get(w)).is_some_and(|(x, y)| x != y));
        assert!(moved, "continuation left every resumed vector untouched");
    }

    #[test]
    fn dimension_change_falls_back_to_cold_training() {
        let corpus = clustered_corpus(40);
        let base = Word2Vec::new(Word2VecConfig {
            dim: 8,
            epochs: 1,
            min_count: 1,
            ..Default::default()
        })
        .train(&corpus);
        let wide = Word2Vec::new(Word2VecConfig {
            dim: 16,
            epochs: 1,
            min_count: 1,
            ..Default::default()
        });
        let cont = wide.train_continue(&corpus, &base);
        assert_eq!(cont.dim(), 16);
        let cold = wide.train(&corpus);
        assert_eq!(cont.get("king"), cold.get("king"));
    }

    #[test]
    fn empty_corpus_gives_empty_table() {
        let wv = Word2Vec::new(Word2VecConfig::default()).train(&[]);
        assert!(wv.is_empty());
        assert_eq!(wv.dim(), 100);
    }

    #[test]
    fn vectors_finite() {
        let wv = train(Word2VecMode::SkipGram, 5);
        for (_, v) in wv.iter() {
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn sigmoid_bounds() {
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
