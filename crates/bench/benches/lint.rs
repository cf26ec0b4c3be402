//! Benchmarks of the nd-lint analyzer over the real workspace: a cold
//! full analysis (the one lex + parse + rules pass for every file,
//! then the global pass) and a warm incremental run (every file
//! replayed from the fingerprint cache, only the global pass
//! recomputed).
//!
//! Generate the JSON dump for the CI table from the workspace root
//! with (cargo runs benches from `crates/bench`, so the path must be
//! absolute):
//!
//! ```text
//! ND_BENCH_JSON=$PWD/BENCH_lint.json cargo bench -p nd-bench --bench lint
//! ```
//!
//! Table-only entries (no `threads/<t>` names) — the number to eyeball
//! is the cold/warm ratio: warm must sit well under cold, or the
//! incremental cache is not earning its keep.

use criterion::{criterion_group, criterion_main, Criterion};
use nd_lint::{analyze_workspace_with, AnalyzeOptions};
use std::hint::black_box;
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn cache_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndbench-lint-{}-{tag}.cache", std::process::id()))
}

/// Cold: no cache — every file is lexed, parsed, and analyzed.
fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint_full_workspace");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let opts = AnalyzeOptions { cache_path: None, changed_only: false };
            let (findings, stats) =
                analyze_workspace_with(workspace_root(), &opts).expect("cold lint");
            assert_eq!(stats.reparsed, stats.files_scanned);
            black_box(findings)
        })
    });
    group.finish();
}

/// Warm: fingerprint cache pre-populated — per-file records replay and
/// only the workspace-global pass recomputes.
fn bench_warm(c: &mut Criterion) {
    let cache = cache_path("warm");
    std::fs::remove_file(&cache).ok();
    let opts =
        AnalyzeOptions { cache_path: Some(cache.clone()), changed_only: false };
    analyze_workspace_with(workspace_root(), &opts).expect("populate cache");
    let mut group = c.benchmark_group("lint_full_workspace");
    group.sample_size(20);
    group.bench_function("warm", |b| {
        b.iter(|| {
            let (findings, stats) =
                analyze_workspace_with(workspace_root(), &opts).expect("warm lint");
            assert_eq!(stats.reparsed, 0, "warm bench must replay from cache");
            black_box(findings)
        })
    });
    group.finish();
    std::fs::remove_file(&cache).ok();
}

criterion_group!(benches, bench_cold, bench_warm);
criterion_main!(benches);
