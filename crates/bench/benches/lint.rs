//! Benchmark of the nd-lint analyzer over the real workspace: one cold
//! full analysis (the one lex + parse + rules pass for every file,
//! then the global pass).
//!
//! Generate the JSON dump for the CI table from the workspace root
//! with (cargo runs benches from `crates/bench`, so the path must be
//! absolute):
//!
//! ```text
//! ND_BENCH_JSON=$PWD/BENCH_lint.json cargo bench -p nd-bench --bench lint
//! ```
//!
//! Table-only entry (no `threads/<t>` names).

use criterion::{criterion_group, criterion_main, Criterion};
use nd_lint::analyze_workspace;
use std::hint::black_box;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Cold: every file is lexed, parsed, and analyzed.
fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint_full_workspace");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let (findings, _) = analyze_workspace(workspace_root()).expect("cold lint");
            black_box(findings)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold);
criterion_main!(benches);
