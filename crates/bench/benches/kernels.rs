//! Criterion micro-benchmarks of the pipeline's hot kernels:
//! TF-IDF construction, one NMF iteration cycle, MABED corpus slicing
//! and detection, NewsTM preprocessing, Word2Vec training steps and
//! embedding cosine scans — plus serial-vs-parallel scaling groups for
//! every kernel routed through `nd-par` (`NEWSDIFF_THREADS` is re-read
//! per product, so each group member pins its own thread count).
//!
//! Set `ND_BENCH_JSON=BENCH_kernels.json` to append the measurements
//! as JSON when the run finishes.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nd_core::predict::NetworkKind;
use nd_embed::{Word2Vec, Word2VecConfig, Word2VecMode};
use nd_events::{AnomalySource, Mabed, MabedConfig, SlicedCorpus, TimestampedDoc};
use nd_linalg::rng::SplitMix64;
use nd_linalg::vecops::cosine;
use nd_linalg::Mat;
use nd_neural::{Conv1d, Dense, Layer, Trainer, TrainerConfig};
use nd_synth::{World, WorldConfig};
use nd_text::preprocess_topic_modeling;
use nd_topics::{Nmf, NmfConfig};
use nd_vectorize::{DtmBuilder, Weighting};
use std::hint::black_box;

/// Thread counts exercised by the scaling groups.
const THREAD_STEPS: [&str; 3] = ["1", "2", "4"];

/// Sample count for sub-10ms kernels: cheap iterations are noisy, so
/// they get more samples to stabilize the reported median and min.
const FAST_KERNEL_SAMPLES: usize = 40;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::new(seed);
    Mat::from_fn(rows, cols, |_, _| rng.next_range(-1.0, 1.0))
}

fn synth_docs(n: usize, vocab: usize, len: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..len).map(|_| format!("w{}", rng.next_usize(vocab))).collect())
        .collect()
}

fn bench_tfidf(c: &mut Criterion) {
    let docs = synth_docs(2_000, 3_000, 80, 1);
    c.bench_function("tfidf_build_2000x3000", |b| {
        b.iter(|| {
            let dtm = DtmBuilder::new().build(black_box(&docs));
            black_box(dtm.weighted(Weighting::TfIdfNormalized))
        })
    });
}

fn bench_nmf(c: &mut Criterion) {
    let docs = synth_docs(500, 800, 60, 2);
    let dtm = DtmBuilder::new().build(&docs);
    let a = dtm.weighted(Weighting::TfIdfNormalized);
    c.bench_function("nmf_10topics_20iters", |b| {
        b.iter(|| {
            let nmf = Nmf::new(NmfConfig { n_topics: 10, max_iter: 20, tol: 0.0, seed: 3 });
            black_box(nmf.fit(black_box(&a), dtm.vocab()))
        })
    });
}

/// The MABED benches' corpus: 5000 minute-spaced docs of 12 tokens
/// over a 400-word vocabulary, half of them mentioning.
fn mabed_docs() -> Vec<TimestampedDoc> {
    let mut rng = SplitMix64::new(4);
    (0..5_000)
        .map(|i| {
            let tokens =
                (0..12).map(|_| format!("w{}", rng.next_usize(400))).collect::<Vec<_>>();
            TimestampedDoc::new(i as u64 * 60, tokens, usize::from(rng.next_bool(0.5)))
        })
        .collect()
}

fn bench_sliced_corpus(c: &mut Criterion) {
    let docs = mabed_docs();
    c.bench_function("sliced_corpus_build_5000docs", |b| {
        b.iter(|| black_box(SlicedCorpus::build(black_box(&docs), 1_800)))
    });
}

fn bench_mabed(c: &mut Criterion) {
    let sliced = SlicedCorpus::build(&mabed_docs(), 1_800);
    c.bench_function("mabed_detect_5000docs", |b| {
        b.iter(|| {
            let mabed = Mabed::new(MabedConfig {
                n_events: 10,
                min_word_docs: 20,
                source: AnomalySource::Mentions,
                ..Default::default()
            });
            black_box(mabed.detect(black_box(&sliced)))
        })
    });
}

/// The NewsTM pipeline (entities, lemmas, stopword removal) over the
/// first 200 articles of the small synthetic world, as the preprocess
/// stage joins title and body.
fn bench_news_tm(c: &mut Criterion) {
    let world = World::generate(WorldConfig::small());
    let texts: Vec<String> =
        world.articles.iter().take(200).map(|a| format!("{}. {}", a.title, a.content)).collect();
    c.bench_function("preprocess_news_tm_200articles", |b| {
        b.iter(|| {
            for text in &texts {
                black_box(preprocess_topic_modeling(black_box(text)));
            }
        })
    });
}

fn bench_word2vec(c: &mut Criterion) {
    let corpus = synth_docs(300, 500, 15, 5);
    c.bench_function("word2vec_cbow_1epoch_dim64", |b| {
        b.iter(|| {
            let w2v = Word2Vec::new(Word2VecConfig {
                dim: 64,
                epochs: 1,
                min_count: 1,
                mode: Word2VecMode::Cbow,
                ..Default::default()
            });
            black_box(w2v.train(black_box(&corpus)))
        })
    });
}

fn bench_cosine(c: &mut Criterion) {
    let mut rng = SplitMix64::new(6);
    let a: Vec<f64> = (0..300).map(|_| rng.next_gaussian()).collect();
    let vectors: Vec<Vec<f64>> =
        (0..1_000).map(|_| (0..300).map(|_| rng.next_gaussian()).collect()).collect();
    c.bench_function("cosine_scan_1000x300", |b| {
        b.iter_batched(
            || (),
            |_| {
                let best = vectors
                    .iter()
                    .map(|v| cosine(black_box(&a), v))
                    .fold(f64::MIN, f64::max);
                black_box(best)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_matmul_scaling(c: &mut Criterion) {
    let a = random_mat(256, 256, 11);
    let b = random_mat(256, 256, 12);
    let mut g = c.benchmark_group("matmul_256x256");
    g.sample_size(FAST_KERNEL_SAMPLES);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| black_box(a.matmul(black_box(&b)).unwrap()));
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_matmul_1024_scaling(c: &mut Criterion) {
    let a = random_mat(1024, 1024, 22);
    let b = random_mat(1024, 1024, 23);
    let mut g = c.benchmark_group("matmul_1024x1024");
    // ~1 GFLOP per product: keep the sample count low.
    g.sample_size(5);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| black_box(a.matmul(black_box(&b)).unwrap()));
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

/// The packed GEMM kernel itself, with scratch and output buffers
/// reused across iterations (the steady-state shape of every `_into`
/// call site): measures the kernel, not the allocator.
fn bench_gemm_scaling(c: &mut Criterion) {
    for (size, samples) in [(256usize, FAST_KERNEL_SAMPLES), (512, 20), (1024, 5)] {
        let a = random_mat(size, size, 31);
        let b = random_mat(size, size, 32);
        let mut scratch = nd_linalg::GemmScratch::new();
        let mut out = Mat::zeros(size, size);
        let mut g = c.benchmark_group(&format!("gemm_{size}"));
        g.sample_size(samples);
        for t in THREAD_STEPS {
            g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
                std::env::set_var("NEWSDIFF_THREADS", t);
                bch.iter(|| {
                    a.matmul_unchecked_into(black_box(&b), &mut scratch, &mut out);
                    black_box(out.get(0, 0))
                });
            });
        }
        std::env::remove_var("NEWSDIFF_THREADS");
        g.finish();
    }
}

/// Matrix-free LSA fit: randomized SVD driven through the sparse
/// matrix's `MatOp` impl — sketch GEMMs plus SpMM, never densified.
fn bench_lsa_scaling(c: &mut Criterion) {
    use nd_topics::lsa::{Lsa, LsaConfig};
    let docs = synth_docs(2_000, 3_000, 80, 33);
    let dtm = DtmBuilder::new().build(&docs);
    let a = dtm.weighted(Weighting::TfIdfNormalized);
    let mut g = c.benchmark_group("lsa_fit_2000x3000_k20");
    g.sample_size(10);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| {
                let lsa = Lsa::new(LsaConfig { n_topics: 20, ..Default::default() });
                black_box(lsa.fit(black_box(&a), dtm.vocab()))
            });
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_cnn_epoch_scaling(c: &mut Criterion) {
    let mut rng = SplitMix64::new(24);
    let n = 500;
    let dim = 308;
    let mut x = Mat::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        for col in 0..dim {
            x.set(r, col, rng.next_gaussian());
        }
        y.push(rng.next_usize(3));
    }
    let mut g = c.benchmark_group("cnn_epoch_500x308");
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| {
                let kind = NetworkKind::Cnn1;
                let mut net = kind.build(dim, 42);
                let mut opt = kind.optimizer();
                let trainer = Trainer::new(TrainerConfig {
                    batch_size: 5_000,
                    max_epochs: 1,
                    early_stopping: None,
                    seed: 1,
                });
                black_box(trainer.fit(&mut net, black_box(&x), &y, opt.as_mut()))
            });
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_csr_scaling(c: &mut Criterion) {
    let docs = synth_docs(2_000, 3_000, 80, 13);
    let dtm = DtmBuilder::new().build(&docs);
    let a = dtm.weighted(Weighting::TfIdfNormalized);
    let rhs = random_mat(a.cols(), 32, 14);
    let rhs_t = random_mat(a.rows(), 32, 15);
    let mut g = c.benchmark_group("csr_products_2000x3000_k32");
    g.sample_size(FAST_KERNEL_SAMPLES);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("ax_threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| black_box(a.matmul_dense(black_box(&rhs))));
        });
        g.bench_with_input(BenchmarkId::new("atx_threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| black_box(a.transpose_matmul_dense(black_box(&rhs_t))));
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_nmf_scaling(c: &mut Criterion) {
    let docs = synth_docs(500, 800, 60, 16);
    let dtm = DtmBuilder::new().build(&docs);
    let a = dtm.weighted(Weighting::TfIdfNormalized);
    let mut g = c.benchmark_group("nmf_iteration_500x800_k10");
    g.sample_size(FAST_KERNEL_SAMPLES);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| {
                let nmf = Nmf::new(NmfConfig { n_topics: 10, max_iter: 1, tol: 0.0, seed: 3 });
                black_box(nmf.fit(black_box(&a), dtm.vocab()))
            });
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_word2vec_scaling(c: &mut Criterion) {
    let corpus = synth_docs(300, 500, 15, 17);
    let mut g = c.benchmark_group("word2vec_epoch_dim32");
    g.sample_size(FAST_KERNEL_SAMPLES);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            bch.iter(|| {
                let w2v = Word2Vec::new(Word2VecConfig {
                    dim: 32,
                    epochs: 1,
                    min_count: 1,
                    mode: Word2VecMode::Cbow,
                    ..Default::default()
                });
                black_box(w2v.train(black_box(&corpus)))
            });
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

fn bench_layers_scaling(c: &mut Criterion) {
    let dense_in = random_mat(64, 256, 18);
    let conv_in = random_mat(64, 300, 19);
    let mut g = c.benchmark_group("layers_fwd_bwd_batch64");
    g.sample_size(FAST_KERNEL_SAMPLES);
    for t in THREAD_STEPS {
        g.bench_with_input(BenchmarkId::new("dense_256x128_threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            let mut layer = Dense::new(256, 128, 20);
            bch.iter(|| {
                let out = layer.forward(black_box(&dense_in), true);
                black_box(layer.backward(&out))
            });
        });
        g.bench_with_input(BenchmarkId::new("conv1d_k5_f16_threads", t), &t, |bch, &t| {
            std::env::set_var("NEWSDIFF_THREADS", t);
            let mut layer = Conv1d::new(300, 5, 16, 21);
            bch.iter(|| {
                let out = layer.forward(black_box(&conv_in), true);
                black_box(layer.backward(&out))
            });
        });
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    g.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_tfidf, bench_nmf, bench_sliced_corpus, bench_mabed, bench_news_tm,
        bench_word2vec, bench_cosine,
        bench_matmul_scaling, bench_matmul_1024_scaling, bench_gemm_scaling,
        bench_lsa_scaling, bench_csr_scaling, bench_nmf_scaling,
        bench_word2vec_scaling, bench_layers_scaling, bench_cnn_epoch_scaling
);
criterion_main!(kernels);
