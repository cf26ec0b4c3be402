//! Cross-thread-count determinism suite.
//!
//! The `nd-par` contract is that every parallel kernel in the
//! workspace produces **bit-for-bit identical** results at any
//! `NEWSDIFF_THREADS` setting: fixed chunk boundaries, in-order
//! reductions, and per-element accumulation orders that do not move
//! with the schedule. These tests run each hot kernel at 1, 2, and 8
//! threads and compare raw `f64` bits.
//!
//! Tests in this binary serialise their env-var mutations through a
//! mutex; even if a mutation raced, the contract itself guarantees the
//! values could not change — only the parallelism would.

use nd_embed::{Word2Vec, Word2VecConfig, Word2VecMode};
use nd_events::{AnomalySource, Mabed, MabedConfig, SlicedCorpus, TimestampedDoc};
use nd_linalg::rng::SplitMix64;
use nd_linalg::Mat;
use nd_neural::layer::{Conv1d, Dense, Layer};
use nd_topics::plsi::{Plsi, PlsiConfig};
use nd_topics::{Nmf, NmfConfig};
use nd_vectorize::DtmBuilder;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The reference digests below were recorded from the `x86-64-v3`
/// build that `.cargo/config.toml` selects; other codegen may round
/// differently (fused vs. split multiply-add), so the pins only hold
/// where FMA is enabled.
const REFERENCE_BUILD: bool = cfg!(all(target_arch = "x86_64", target_feature = "fma"));

/// `Pipeline::new(PipelineConfig::small()).run()?.content_digest()`.
const BATCH_SMALL_DIGEST: u64 = 0x4713_d07c_0644_2a5b;

/// Head digest of `StreamPipeline::new(StreamConfig::small()).run(7)`.
const STREAM_SMALL_7_DIGEST: u64 = 0xd377_df0c_6c06_7387;

/// Runs `f` once per thread count and asserts every run returns the
/// same `Vec<f64>` bit-for-bit.
fn assert_bitwise_stable<F: Fn() -> Vec<f64>>(label: &str, f: F) {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        runs.push((threads, f()));
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    let (_, reference) = &runs[0];
    for (threads, run) in &runs[1..] {
        assert_eq!(reference.len(), run.len(), "{label}: length at {threads} threads");
        for (i, (a, b)) in reference.iter().zip(run).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: element {i} differs between 1 and {threads} threads ({a} vs {b})"
            );
        }
    }
}

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::new(seed);
    Mat::from_fn(rows, cols, |_, _| rng.next_range(-1.0, 1.0))
}

/// A small synthetic corpus with heavy term overlap, enough rows for
/// the parallel paths to engage.
fn corpus() -> Vec<Vec<String>> {
    let pools = [
        ["market", "trade", "tariff", "import", "export"],
        ["vote", "party", "poll", "seat", "ballot"],
        ["storm", "flood", "rain", "wind", "coast"],
    ];
    let mut rng = SplitMix64::new(7);
    (0..120)
        .map(|i| {
            let pool = &pools[i % pools.len()];
            (0..14).map(|_| pool[rng.next_usize(pool.len())].to_string()).collect()
        })
        .collect()
}

#[test]
fn dense_matmul_is_thread_count_invariant() {
    let a = random_mat(64, 96, 1);
    let b = random_mat(96, 48, 2);
    assert_bitwise_stable("matmul", || a.matmul(&b).unwrap().as_slice().to_vec());
}

/// Resizing `NEWSDIFF_THREADS` *between dispatches inside one process*
/// must neither change results nor wedge the worker pool: the pool
/// re-reads the setting per dispatch, growing lazily and masking
/// surplus workers when it shrinks.
#[test]
fn thread_resize_between_dispatches_is_invariant() {
    let _guard = ENV_LOCK.lock().unwrap();
    let a = random_mat(96, 80, 21);
    let b = random_mat(80, 64, 22);
    let kernel = || {
        let mut out = a.matmul(&b).unwrap().as_slice().to_vec();
        out.extend_from_slice(a.gram().as_slice());
        out
    };
    std::env::set_var("NEWSDIFF_THREADS", "1");
    let reference = kernel();
    // Grow, shrink, regrow — every dispatch sees a different pool
    // shape, none may see different bits.
    for threads in ["2", "8", "1", "4", "2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let run = kernel();
        assert_eq!(reference.len(), run.len());
        for (i, (x, y)) in reference.iter().zip(&run).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "resize: element {i} differs after resizing to {threads} threads ({x} vs {y})"
            );
        }
    }
    std::env::remove_var("NEWSDIFF_THREADS");
}

/// Shapes above the packed-kernel cutoff, spanning several KC depth
/// blocks and MC row panels — the paths where work is actually split
/// across the pool and the serial depth-block order is what keeps the
/// bits pinned.
#[test]
fn packed_gemm_is_thread_count_invariant() {
    let a = random_mat(600, 500, 41);
    let b = random_mat(500, 400, 42);
    assert_bitwise_stable("packed matmul", || a.matmul(&b).unwrap().as_slice().to_vec());
    assert_bitwise_stable("fused transpose products", || {
        let mut scratch = nd_linalg::GemmScratch::new();
        let mut atb = Mat::zeros(500, 500);
        a.transpose_matmul_into(&a, &mut scratch, &mut atb);
        let mut abt = Mat::zeros(600, 600);
        a.matmul_transpose_into(&a, &mut scratch, &mut abt);
        let mut gram = Mat::zeros(500, 500);
        a.gram_into(&mut scratch, &mut gram);
        let mut out = atb.as_slice().to_vec();
        out.extend_from_slice(abt.as_slice());
        out.extend_from_slice(gram.as_slice());
        out
    });
}

#[test]
fn lsa_fit_is_thread_count_invariant() {
    use nd_topics::lsa::{Lsa, LsaConfig};
    use nd_vectorize::Weighting;
    let dtm = DtmBuilder::new().build(&corpus());
    let a = dtm.weighted(Weighting::TfIdfNormalized);
    assert_bitwise_stable("lsa", || {
        let m = Lsa::new(LsaConfig { n_topics: 3, n_iter: 4, seed: 11 }).fit(&a, dtm.vocab());
        let mut out = m.doc_topic.as_slice().to_vec();
        out.extend_from_slice(m.topic_term.as_slice());
        out.push(m.objective);
        out
    });
}

#[test]
fn matvec_transpose_gram_are_thread_count_invariant() {
    let a = random_mat(120, 70, 3);
    let x: Vec<f64> = (0..70).map(|i| (i as f64).sin()).collect();
    assert_bitwise_stable("matvec", || a.matvec(&x).unwrap());
    assert_bitwise_stable("transpose", || a.transpose().as_slice().to_vec());
    assert_bitwise_stable("gram", || a.gram().as_slice().to_vec());
}

#[test]
fn sparse_products_are_thread_count_invariant() {
    let dtm = DtmBuilder::new().build(&corpus());
    let counts = dtm.counts();
    let rhs = random_mat(counts.cols(), 12, 4);
    let rhs_t = random_mat(counts.rows(), 12, 5);
    assert_bitwise_stable("csr * dense", || {
        counts.matmul_dense(&rhs).as_slice().to_vec()
    });
    assert_bitwise_stable("csr^T * dense", || {
        counts.transpose_matmul_dense(&rhs_t).as_slice().to_vec()
    });
}

#[test]
fn nmf_fit_is_thread_count_invariant() {
    let dtm = DtmBuilder::new().build(&corpus());
    assert_bitwise_stable("nmf", || {
        let m = Nmf::new(NmfConfig { n_topics: 3, max_iter: 5, tol: 0.0, seed: 11 })
            .fit(dtm.counts(), dtm.vocab());
        let mut out = m.doc_topic.as_slice().to_vec();
        out.extend_from_slice(m.topic_term.as_slice());
        out.push(m.objective);
        out
    });
}

#[test]
fn plsi_fit_is_thread_count_invariant() {
    let dtm = DtmBuilder::new().build(&corpus());
    assert_bitwise_stable("plsi", || {
        let m = Plsi::new(PlsiConfig { n_topics: 3, n_iter: 4, seed: 13 })
            .fit(dtm.counts(), dtm.vocab());
        let mut out = m.doc_topic.as_slice().to_vec();
        out.extend_from_slice(m.topic_term.as_slice());
        out.push(m.objective);
        out
    });
}

#[test]
fn word2vec_training_is_thread_count_invariant() {
    let docs = corpus();
    assert_bitwise_stable("word2vec", || {
        let wv = Word2Vec::new(Word2VecConfig {
            dim: 16,
            window: 3,
            negative: 4,
            epochs: 2,
            min_count: 1,
            subsample: 1e-3,
            mode: Word2VecMode::Cbow,
            seed: 17,
            ..Default::default()
        })
        .train(&docs);
        // Deterministic word order for the comparison.
        let mut words: Vec<&str> = wv.iter().map(|(w, _)| w).collect();
        words.sort_unstable();
        words.into_iter().flat_map(|w| wv.get(w).unwrap().to_vec()).collect()
    });
}

/// The sliced corpus backing the event-detection iteration tests:
/// three topical pools bursting in different slices.
fn timestamped_corpus() -> Vec<TimestampedDoc> {
    corpus()
        .into_iter()
        .enumerate()
        .map(|(i, tokens)| TimestampedDoc::new(1_000 + 60 * i as u64, tokens, i % 3))
        .collect()
}

/// `nd-lint`'s `nondet-hash-iter` rule exists because word iteration
/// order used to come from a `HashMap` and could differ between runs
/// (and between std versions). The corpus now stores words in a
/// `BTreeMap`; this pins the observable contract so a regression back
/// to hash order fails loudly rather than as a flaky eval.
#[test]
fn corpus_word_iteration_is_lexicographic() {
    let sliced = SlicedCorpus::build(&timestamped_corpus(), 600);
    let words: Vec<&str> = sliced.iter_words().map(|(w, _)| w).collect();
    assert!(!words.is_empty());
    let mut sorted = words.clone();
    sorted.sort_unstable();
    assert_eq!(words, sorted, "iter_words must yield lexicographic order");
}

/// Two detector runs over the same corpus in one process must emit
/// identical events — main words, related-word order, and weights to
/// the bit. Before the BTreeMap conversion the related-word candidate
/// loop iterated a `HashMap`, so equal-weight words could swap places
/// at the `max_related` cut between runs.
#[test]
fn mabed_events_are_identical_across_runs() {
    let sliced = SlicedCorpus::build(&timestamped_corpus(), 600);
    let detect = || {
        Mabed::new(MabedConfig {
            n_events: 5,
            min_word_docs: 2,
            source: AnomalySource::Presence,
            ..Default::default()
        })
        .detect(&sliced)
    };
    let (a, b) = (detect(), detect());
    assert!(!a.is_empty(), "corpus must produce at least one event");
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.iter().zip(&b) {
        assert_eq!(ea.main_word, eb.main_word);
        assert_eq!(ea.magnitude.to_bits(), eb.magnitude.to_bits());
        assert_eq!(ea.related.len(), eb.related.len());
        for ((wa, sa), (wb, sb)) in ea.related.iter().zip(&eb.related) {
            assert_eq!(wa, wb, "related-word order must be stable");
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}

/// `WordVectors::iter` now walks the insertion-order word list, and
/// trainers insert in sorted-vocabulary order — so iteration must
/// reproduce exactly, including vector bytes, across independent
/// trainings in one process.
#[test]
fn word_vector_iteration_is_stable_across_trainings() {
    let docs = corpus();
    let train = || {
        Word2Vec::new(Word2VecConfig {
            dim: 8,
            window: 2,
            negative: 3,
            epochs: 1,
            min_count: 1,
            seed: 31,
            ..Default::default()
        })
        .train(&docs)
    };
    let (wv_a, wv_b) = (train(), train());
    let flat = |wv: &nd_embed::WordVectors| -> Vec<(String, Vec<u64>)> {
        wv.iter()
            .map(|(w, v)| (w.to_string(), v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    assert!(!wv_a.is_empty());
    assert_eq!(flat(&wv_a), flat(&wv_b), "iteration order and vectors must be identical");
}

/// The staged pipeline's cache contract: a warm run replays every
/// artifact from disk (zero stage bodies execute) and reproduces the
/// cold run bit for bit — at any thread count, because replay never
/// touches the parallel kernels and the cold bodies are themselves
/// thread-count invariant (the tests above).
#[test]
fn pipeline_warm_runs_are_bit_identical_across_threads() {
    use newsdiff::core::pipeline::{Pipeline, PipelineConfig};
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = PipelineConfig::shared_run_dir();

    std::env::set_var("NEWSDIFF_THREADS", "1");
    let mut cold_cfg = PipelineConfig::small().with_cache_dir(&dir);
    cold_cfg.cache.force = true;
    let (cold, cold_report) =
        Pipeline::new(cold_cfg).run_with_report().expect("cold run");
    assert_eq!(
        cold_report.executed(),
        cold_report.stages.len(),
        "force must execute every stage body"
    );
    let cold_digest = cold.content_digest();
    if REFERENCE_BUILD {
        assert_eq!(
            cold_digest, BATCH_SMALL_DIGEST,
            "cold batch digest {cold_digest:016x} moved off the reference bits"
        );
    }

    for threads in ["1", "2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let (warm, report) = Pipeline::new(PipelineConfig::small().with_cache_dir(&dir))
            .run_with_report()
            .expect("warm run");
        let executed: Vec<&str> = report
            .stages
            .iter()
            .filter(|s| s.cache.executed())
            .map(|s| s.stage)
            .collect();
        assert!(executed.is_empty(), "warm run at {threads} threads executed {executed:?}");
        assert_eq!(
            warm.content_digest(),
            cold_digest,
            "warm output differs from cold at {threads} threads"
        );
    }
    std::env::remove_var("NEWSDIFF_THREADS");
}

/// Runs compared with each other cannot see a kernel change that moves
/// a bit on every run; this pins the uncached 7-slice stream head to
/// its recorded digest at 1 and 8 threads.
#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_feature = "fma")),
    ignore = "reference digest recorded from the x86-64-v3 (FMA) build"
)]
fn stream_head_digest_matches_reference_bits() {
    use newsdiff::core::incremental::{StreamConfig, StreamPipeline};
    let _guard = ENV_LOCK.lock().unwrap();
    for threads in ["1", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let (head, _) = StreamPipeline::new(StreamConfig::small()).run(7).expect("stream run");
        let digest = head.content_digest();
        assert_eq!(
            digest, STREAM_SMALL_7_DIGEST,
            "7-slice stream head digest {digest:016x} at {threads} threads moved off the \
             reference bits"
        );
    }
    std::env::remove_var("NEWSDIFF_THREADS");
}

#[test]
fn neural_layers_are_thread_count_invariant() {
    let input = random_mat(24, 40, 19);
    assert_bitwise_stable("dense fwd/bwd", || {
        let mut layer = Dense::new(40, 24, 23);
        let out = layer.forward(&input, true);
        let grad_in = layer.backward(&out);
        let mut v = out.as_slice().to_vec();
        v.extend_from_slice(grad_in.as_slice());
        v.extend_from_slice(layer.grads());
        v
    });
    assert_bitwise_stable("conv1d fwd/bwd", || {
        let mut layer = Conv1d::new(40, 5, 6, 29);
        let out = layer.forward(&input, true);
        let grad_in = layer.backward(&out);
        let mut v = out.as_slice().to_vec();
        v.extend_from_slice(grad_in.as_slice());
        v.extend_from_slice(layer.grads());
        v
    });
}

/// The pattern-mining subsystem returns integer supports and sorts on
/// total orders, so the *entire serialized catalog* — patterns, ranks,
/// co-occurrence pairs — must be byte-identical at any thread count.
/// The corpus is sized so both the PrefixSpan root fan-out and the
/// co-occurrence chunk merge actually cross nd-par's serial cutoff.
#[test]
fn pattern_mining_is_thread_count_invariant() {
    use nd_patterns::{cooccurrence, mine, MiningConfig, PatternCatalog, SequenceConfig};
    use nd_store::artifact::ByteWriter;
    use nd_synth::{generate_trajectories, TrajectoryConfig};

    let _guard = ENV_LOCK.lock().unwrap();
    let set = generate_trajectories(5_000, 0, 7, &TrajectoryConfig::default());
    let db = set.full_db(&SequenceConfig::default());
    let mining = MiningConfig::default();
    let catalog_bytes = || {
        let mined = mine(&db, &mining);
        let pairs = cooccurrence(&db, mining.threshold(db.len()) as usize);
        let catalog = PatternCatalog::build(db.len(), mined, pairs, 512);
        assert!(!catalog.patterns.is_empty(), "corpus must mine a non-trivial catalog");
        let mut w = ByteWriter::new();
        catalog.encode(&mut w);
        w.into_bytes()
    };
    std::env::set_var("NEWSDIFF_THREADS", "1");
    let reference = catalog_bytes();
    for threads in ["2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let run = catalog_bytes();
        assert!(
            run == reference,
            "pattern catalog bytes differ between 1 and {threads} threads \
             ({} vs {} bytes)",
            reference.len(),
            run.len()
        );
    }
    std::env::remove_var("NEWSDIFF_THREADS");
}
