//! Fixture-driven end-to-end checks: every rule has one violating and
//! one clean fixture under `tests/fixtures/`, analyzed under a
//! virtual workspace path that places it in the rule's scope. The
//! fixtures are real Rust source the lexer and parser must survive,
//! but they are never compiled — `file_flow` is purely syntactic.

use nd_lint::flow::{file_flow, global_pass};

/// A path inside a determinism-scoped kernel crate.
const KERNEL: &str = "crates/neural/src/fixture.rs";
/// A path inside the panic-safety + lock-discipline serving tier.
const SERVE: &str = "crates/serve/src/fixture.rs";

/// Distinct rule names the per-file pass finds in `src` analyzed as
/// `path`.
fn rules(path: &str, src: &str) -> Vec<&'static str> {
    let mut r: Vec<&'static str> =
        file_flow(path, src).findings.into_iter().map(|f| f.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

/// Distinct rule names of the per-file findings plus the global pass
/// over this one file's summaries, for `src` analyzed as `path`.
fn flow_rules(path: &str, src: &str) -> Vec<&'static str> {
    let ff = file_flow(path, src);
    assert_eq!(ff.coverage.0, ff.coverage.1, "parser must cover {path} fully");
    let mut r: Vec<&'static str> = ff
        .findings
        .iter()
        .map(|f| f.rule)
        .chain(global_pass(&[&ff]).iter().map(|f| f.rule))
        .collect();
    r.sort_unstable();
    r.dedup();
    r
}

#[test]
fn nondet_time_fixture_pair() {
    let bad = include_str!("fixtures/nondet_time_bad.rs");
    let good = include_str!("fixtures/nondet_time_good.rs");
    assert_eq!(rules(KERNEL, bad), ["nondet-time"]);
    assert_eq!(rules(KERNEL, good), [] as [&str; 0]);
    // Out of scope: the serving tier may read clocks freely.
    assert_eq!(rules(SERVE, bad), [] as [&str; 0]);
}

#[test]
fn nondet_hash_iter_fixture_pair() {
    let bad = include_str!("fixtures/nondet_hash_iter_bad.rs");
    let good = include_str!("fixtures/nondet_hash_iter_good.rs");
    assert_eq!(rules(KERNEL, bad), ["nondet-hash-iter"]);
    assert_eq!(rules(KERNEL, good), [] as [&str; 0]);
}

#[test]
fn stray_spawn_scoping() {
    // The same source is a violation in a kernel crate and fine in
    // the crates that own threading.
    let src = include_str!("fixtures/stray_spawn.rs");
    assert_eq!(rules(KERNEL, src), ["stray-spawn"]);
    assert_eq!(rules("crates/par/src/fixture.rs", src), [] as [&str; 0]);
    assert_eq!(rules(SERVE, src), [] as [&str; 0]);
}

#[test]
fn panic_path_fixture_pair() {
    let bad = include_str!("fixtures/panic_path_bad.rs");
    let good = include_str!("fixtures/panic_path_good.rs");
    let found = file_flow(SERVE, bad).findings;
    assert_eq!(found.len(), 2, "one finding per panic site: {found:?}");
    assert!(found.iter().all(|f| f.rule == "panic-path"));
    assert_eq!(rules(SERVE, good), [] as [&str; 0]);
    // Out of scope: kernels signal logic errors however they like.
    assert_eq!(rules(KERNEL, bad), [] as [&str; 0]);
}

#[test]
fn unsafe_comment_fixture_pair() {
    let bad = include_str!("fixtures/unsafe_comment_bad.rs");
    let good = include_str!("fixtures/unsafe_comment_good.rs");
    // Workspace-wide rule: any src path is in scope.
    assert_eq!(rules(KERNEL, bad), ["unsafe-comment"]);
    assert_eq!(rules(SERVE, bad), ["unsafe-comment"]);
    assert_eq!(rules(KERNEL, good), [] as [&str; 0]);
}

#[test]
fn stage_io_fixture_pair() {
    let bad = include_str!("fixtures/stage_io_bad.rs");
    let good = include_str!("fixtures/stage_io_good.rs");
    let core = "crates/core/src/fixture.rs";
    assert_eq!(rules(core, bad), ["stage-io"]);
    assert_eq!(rules(core, good), [] as [&str; 0]);
    // Out of scope: nd-store itself owns the raw file I/O, and the
    // serving tier manages its own database directory.
    assert_eq!(rules("crates/store/src/fixture.rs", bad), [] as [&str; 0]);
    assert_eq!(rules(SERVE, bad), [] as [&str; 0]);
}

#[test]
fn lock_order_fixture_pair() {
    let bad = include_str!("fixtures/lock_order_bad.rs");
    let good = include_str!("fixtures/lock_order_good.rs");
    // Both facets fire: the a/b acquisition cycle and the guard held
    // across a blocking write.
    assert_eq!(flow_rules(SERVE, bad), ["lock-order"]);
    assert_eq!(flow_rules(SERVE, good), [] as [&str; 0]);
}

#[test]
fn result_dropped_fixture_pair() {
    let bad = include_str!("fixtures/result_dropped_bad.rs");
    let good = include_str!("fixtures/result_dropped_good.rs");
    assert_eq!(flow_rules(SERVE, bad), ["result-dropped"]);
    assert_eq!(flow_rules(SERVE, good), [] as [&str; 0]);
    // Out of scope: kernels may drop Results (they rarely have any).
    assert_eq!(flow_rules(KERNEL, bad), [] as [&str; 0]);
}

#[test]
fn fp_reduction_order_fixture_pair() {
    let bad = include_str!("fixtures/fp_reduction_order_bad.rs");
    let good = include_str!("fixtures/fp_reduction_order_good.rs");
    assert_eq!(flow_rules(KERNEL, bad), ["fp-reduction-order"]);
    assert_eq!(flow_rules(KERNEL, good), [] as [&str; 0]);
    // Out of scope: the serving tier never does kernel arithmetic.
    assert_eq!(flow_rules(SERVE, bad), [] as [&str; 0]);
}

#[test]
fn unbounded_growth_fixture_pair() {
    let bad = include_str!("fixtures/unbounded_growth_bad.rs");
    let good = include_str!("fixtures/unbounded_growth_good.rs");
    assert_eq!(flow_rules(SERVE, bad), ["unbounded-growth"]);
    assert_eq!(flow_rules(SERVE, good), [] as [&str; 0]);
    // Out of scope: batch-side code may buffer as it likes.
    assert_eq!(flow_rules(KERNEL, bad), [] as [&str; 0]);
}

#[test]
fn hot_loop_alloc_fixture_pair() {
    let bad = include_str!("fixtures/hot_loop_alloc_bad.rs");
    let good = include_str!("fixtures/hot_loop_alloc_good.rs");
    // In scope only under the exact hot-path file paths.
    const HOT: &str = "crates/embed/src/word2vec.rs";
    assert_eq!(rules(HOT, bad), ["hot-loop-alloc"]);
    assert_eq!(rules(HOT, good), [] as [&str; 0]);
    // Out of scope: the same allocations are fine anywhere else.
    assert_eq!(rules(KERNEL, bad), [] as [&str; 0]);
    assert_eq!(rules(SERVE, bad), [] as [&str; 0]);
}

#[test]
fn findings_carry_file_and_line() {
    let bad = include_str!("fixtures/nondet_time_bad.rs");
    let f = &file_flow(KERNEL, bad).findings[0];
    assert_eq!(f.file, KERNEL);
    assert_eq!(f.line, 5, "Instant::now() sits on line 5 of the fixture");
    let rendered = f.to_string();
    assert!(rendered.contains("crates/neural/src/fixture.rs:5"), "{rendered}");
    assert!(rendered.contains("[nondet-time]"), "{rendered}");
}

#[test]
fn suppression_comment_silences_one_site() {
    let bad = include_str!("fixtures/nondet_time_bad.rs");
    let suppressed =
        bad.replace("let t = Instant::now();", "let t = Instant::now(); // nd-lint: allow(nondet-time)");
    assert_eq!(rules(KERNEL, &suppressed), [] as [&str; 0]);
    // The wrong rule name suppresses nothing.
    let mismatched =
        bad.replace("let t = Instant::now();", "let t = Instant::now(); // nd-lint: allow(panic-path)");
    assert_eq!(rules(KERNEL, &mismatched), ["nondet-time"]);
}
