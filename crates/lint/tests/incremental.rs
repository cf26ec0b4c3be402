//! Incremental-mode contract: a warm run re-parses nothing, a run
//! after one edit re-parses exactly that file, and every run emits a
//! byte-identical report to a cold one — the cache is an accelerator,
//! never a source of truth.

use nd_lint::report::render_json;
use nd_lint::{analyze_workspace_with, AnalyzeOptions, Baseline};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serialises `NEWSDIFF_THREADS` mutations within this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const PUMP_BAD: &str = r#"
use std::sync::mpsc::Receiver;
pub fn pump(rx: &Receiver<u64>) -> Vec<u64> {
    let mut backlog = Vec::new();
    loop {
        let Ok(item) = rx.recv() else {
            return backlog;
        };
        backlog.push(item);
    }
}
"#;

const SUM_BAD: &str = r#"
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
"#;

const SUM_FIXED: &str = r#"
pub fn mean(xs: &[f64]) -> f64 {
    // nd-lint: allow(fp-reduction-order) — serial sum in slice order
    xs.iter().sum::<f64>() / xs.len() as f64
}
"#;

/// One suppression only a global finding uses, one only a local
/// finding uses, and one that silences nothing.
const QUIET: &str = r#"
pub fn persist_thing() -> Result<(), String> {
    Ok(())
}
pub fn teardown(tx: &std::sync::mpsc::Sender<u64>) {
    // nd-lint: allow(result-dropped) — teardown, nothing to report to
    let _ = persist_thing();
    // nd-lint: allow(result-dropped) — the receiver may be gone
    let _ = tx.send(1);
    // nd-lint: allow(panic-path)
    let _n = 1;
}
"#;

/// Builds a miniature two-crate workspace under a fresh temp dir.
fn scratch_workspace(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("nd-lint-incr-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (rel, src) in
        [("crates/serve/src/pump.rs", PUMP_BAD), ("crates/neural/src/sum.rs", SUM_BAD)]
    {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, src).unwrap();
    }
    root
}

fn opts(root: &std::path::Path) -> AnalyzeOptions {
    AnalyzeOptions {
        cache_path: Some(root.join("target/nd-lint.cache")),
        changed_only: false,
    }
}

#[test]
fn warm_run_reparses_nothing_and_reports_identically() {
    let root = scratch_workspace("warm");
    let (cold, cold_stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(cold_stats.files_scanned, 2);
    assert_eq!(cold_stats.reparsed, 2);
    assert_eq!(cold_stats.cached, 0);
    assert_eq!(cold.len(), 2, "one finding per planted violation: {cold:?}");

    let (warm, warm_stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(warm_stats.reparsed, 0);
    assert_eq!(warm_stats.cached, 2);
    assert_eq!(warm, cold, "findings must match exactly");

    let tag = |fs: &[nd_lint::Finding]| {
        fs.iter().map(|f| (f.clone(), false)).collect::<Vec<_>>()
    };
    assert_eq!(
        render_json(&tag(&warm), warm_stats.files_scanned),
        render_json(&tag(&cold), cold_stats.files_scanned),
        "warm and cold reports must be byte-identical"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn editing_one_file_reparses_only_that_file() {
    let root = scratch_workspace("edit");
    let (_, stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(stats.reparsed, 2);

    std::fs::write(root.join("crates/neural/src/sum.rs"), SUM_FIXED).unwrap();
    let (findings, stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(stats.reparsed, 1, "only the edited file re-parses");
    assert_eq!(stats.cached, 1);
    assert_eq!(findings.len(), 1, "the suppressed finding is gone: {findings:?}");
    assert_eq!(findings[0].rule, "unbounded-growth");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deleted_file_leaves_the_cache_on_full_runs() {
    let root = scratch_workspace("delete");
    analyze_workspace_with(&root, &opts(&root)).unwrap();
    std::fs::remove_file(root.join("crates/neural/src/sum.rs")).unwrap();
    let (findings, stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(stats.files_scanned, 1);
    assert_eq!(findings.len(), 1, "{findings:?}");
    // The cache must not resurrect the deleted file's record next run.
    let (_, stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
    assert_eq!(stats.cached, 1);
    assert_eq!(stats.reparsed, 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn changed_only_without_git_falls_back_to_full_workspace() {
    // The scratch dir is not a git repository, so `--changed` must
    // degrade to a full scan rather than an empty one.
    let root = scratch_workspace("nogit");
    let o = AnalyzeOptions {
        cache_path: None,
        changed_only: true,
    };
    let (findings, stats) = analyze_workspace_with(&root, &o).unwrap();
    assert_eq!(stats.files_scanned, 2);
    assert_eq!(findings.len(), 2, "{findings:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unused_suppressions_are_reported_identically_warm_and_cold() {
    let root = scratch_workspace("unused");
    std::fs::write(root.join("crates/serve/src/quiet.rs"), QUIET).unwrap();
    for run in ["cold", "warm"] {
        let (findings, stats) = analyze_workspace_with(&root, &opts(&root)).unwrap();
        assert_eq!(stats.reparsed, if run == "cold" { 3 } else { 0 }, "{run}");
        assert!(
            findings.iter().all(|f| f.file != "crates/serve/src/quiet.rs"),
            "{run}: both result-dropped findings are suppressed: {findings:?}"
        );
        assert_eq!(
            stats.unused_allows,
            [("crates/serve/src/quiet.rs".to_string(), 10, "panic-path")],
            "{run}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn workspace_report_is_thread_count_invariant() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let baseline =
        Baseline::parse(&std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default());
    let uncached = AnalyzeOptions { cache_path: None, changed_only: false };
    let _guard = ENV_LOCK.lock().unwrap();
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let (findings, stats) = analyze_workspace_with(root, &uncached).unwrap();
        let tagged: Vec<_> =
            findings.into_iter().map(|f| (f.clone(), baseline.covers(&f))).collect();
        reports.push((threads, render_json(&tagged, stats.files_scanned)));
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    let (_, reference) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(report, reference, "report at {threads} threads differs from 1 thread");
    }
}
