//! Benchmarks of the incremental stream DAG: folding every slice from
//! scratch versus folding only the newest slice on a cached prefix —
//! the number that justifies the streaming path's existence — and
//! folding it onto the previous head held in memory, as the serving
//! loop does, versus decoding that head from the cache.
//!
//! Generate the JSON dump for the CI table with:
//!
//! ```text
//! ND_BENCH_JSON=BENCH_incremental.json cargo bench -p nd-bench --bench incremental
//! ```
//!
//! All entries are table-only in `bench-compare` (no `threads/<t>`
//! names), so this file never gates hard — the `cold_full` /
//! `fold_one_slice` ratio is the number to eyeball: folding one slice
//! onto a warm prefix must sit well over 5x under the cold re-run
//! (the acceptance floor for the streaming subsystem). The gap from
//! `fold_one_slice` down to `fold_one_slice_from_memory` is the decode
//! of the previous head, and the copy a replayed `prev` gets, that a
//! served advance no longer pays.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nd_core::incremental::{fold_stages, StreamConfig, StreamPipeline};
use nd_synth::{FirehoseConfig, WorldConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Slices in the benchmark horizon.
const SLICES: usize = 10;

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndbench-incremental-{}-{tag}", std::process::id()))
}

/// A 10-day world in 24-hour slices: ten folds end to end, with the
/// fold budgets the streaming tests use.
fn config(dir: Option<&Path>) -> StreamConfig {
    let base = StreamConfig {
        firehose: FirehoseConfig {
            world: WorldConfig {
                days: SLICES as u64,
                n_users: 100,
                min_influencers: 10,
                ..WorldConfig::small()
            },
            slice_hours: 24,
        },
        refine_iters: 15,
        embed_dim: 8,
        embed_epochs: 1,
        ..StreamConfig::small()
    };
    match dir {
        Some(d) => base.with_cache_dir(d.to_path_buf()),
        None => base,
    }
}

/// Cold: no cache, all `6 × SLICES` fold bodies execute.
fn bench_cold_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    group.sample_size(3);
    group.bench_function("cold_full", |b| {
        b.iter(|| {
            let (state, report) =
                StreamPipeline::new(config(None)).run(SLICES).expect("cold run");
            assert_eq!(report.executed(), 6 * SLICES, "cold run must fold everything");
            black_box(state)
        })
    });
    group.finish();
}

/// The six head-slice artifact files of a populated cache.
fn head_artifact_paths(pipeline: &StreamPipeline) -> Vec<PathBuf> {
    fold_stages()
        .iter()
        .map(|stage| pipeline.artifact_path(stage.name(), SLICES - 1).expect("head artifact path"))
        .collect()
}

/// Incremental: the prefix is cached; each iteration deletes the six
/// head-slice artifacts and folds exactly that slice back — the
/// steady-state cost of one firehose arrival.
fn bench_fold_one_slice(c: &mut Criterion) {
    let dir = cache_dir("fold");
    std::fs::remove_dir_all(&dir).ok();
    let pipeline = StreamPipeline::new(config(Some(&dir)));
    pipeline.run(SLICES).expect("populate cache");
    let head_paths = head_artifact_paths(&pipeline);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("fold_one_slice", |b| {
        b.iter(|| {
            for p in &head_paths {
                std::fs::remove_file(p).expect("evict head artifact");
            }
            let (state, report) = pipeline.run(SLICES).expect("fold run");
            assert_eq!(
                report.executed(),
                6,
                "only the evicted head slice may fold: {report:?}"
            );
            black_box(state)
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The same eviction and fold, started from the slice-`SLICES - 2`
/// head state held in memory, as the serving loop's advance does: the
/// fold decodes nothing. Each iteration's copy of the held state is
/// cloned in setup, outside the timing.
fn bench_fold_one_slice_from_memory(c: &mut Criterion) {
    let dir = cache_dir("memory");
    std::fs::remove_dir_all(&dir).ok();
    let pipeline = StreamPipeline::new(config(Some(&dir)));
    pipeline.run(SLICES).expect("populate cache");
    let (held, _) = pipeline.run(SLICES - 1).expect("held head");
    let head_paths = head_artifact_paths(&pipeline);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("fold_one_slice_from_memory", |b| {
        b.iter_batched(
            || held.clone(),
            |held| {
                for p in &head_paths {
                    std::fs::remove_file(p).expect("evict head artifact");
                }
                let (state, report) =
                    pipeline.run_from(SLICES, Some(held)).expect("fold run");
                assert_eq!(
                    report.stages.len(),
                    6,
                    "only the evicted head slice may fold, nothing may replay: {report:?}"
                );
                state
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fully warm replay: six head decodes, zero folds, zero polls — the
/// cost of re-attaching a server to an up-to-date stream cache.
fn bench_warm_replay(c: &mut Criterion) {
    let dir = cache_dir("warm");
    std::fs::remove_dir_all(&dir).ok();
    let pipeline = StreamPipeline::new(config(Some(&dir)));
    pipeline.run(SLICES).expect("populate cache");
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("warm_replay", |b| {
        b.iter(|| {
            let (state, report) = pipeline.run(SLICES).expect("warm run");
            assert_eq!(report.executed(), 0, "warm replay must not fold");
            assert_eq!(report.slices_polled, 0, "warm replay must not poll");
            black_box(state)
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    name = incremental;
    config = Criterion::default();
    targets = bench_cold_full, bench_fold_one_slice, bench_fold_one_slice_from_memory,
        bench_warm_replay
);
criterion_main!(incremental);
