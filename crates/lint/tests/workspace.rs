//! Workspace-run contract: [`analyze_workspace`] merges per-file
//! findings, the global pass and every file's inline suppressions into
//! one report, and that report is byte-identical at any thread count.

use nd_lint::analyze_workspace;
use nd_lint::report::render_json;
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
        std::env::temp_dir().join(format!("nd-lint-ws-{}-{name}", std::process::id()));
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

#[test]
fn unused_suppressions_are_reported_across_the_workspace() {
    let root = scratch_workspace("unused");
    std::fs::write(root.join("crates/serve/src/quiet.rs"), QUIET).unwrap();
    let (findings, stats) = analyze_workspace(&root).unwrap();
    assert!(
        findings.iter().all(|f| f.file != "crates/serve/src/quiet.rs"),
        "both result-dropped findings are suppressed: {findings:?}"
    );
    assert_eq!(stats.unused_allows, [("crates/serve/src/quiet.rs".to_string(), 10, "panic-path")]);
    let planted: Vec<_> = findings.iter().map(|f| (f.file.as_str(), f.rule)).collect();
    assert_eq!(
        planted,
        [
            ("crates/neural/src/sum.rs", "fp-reduction-order"),
            ("crates/serve/src/pump.rs", "unbounded-growth"),
        ],
        "one finding per planted violation"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn workspace_report_is_thread_count_invariant() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let _guard = ENV_LOCK.lock().unwrap();
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("NEWSDIFF_THREADS", threads);
        let (findings, stats) = analyze_workspace(root).unwrap();
        reports.push((threads, render_json(&findings, stats.files_scanned)));
    }
    std::env::remove_var("NEWSDIFF_THREADS");
    let (_, reference) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(report, reference, "report at {threads} threads differs from 1 thread");
    }
}
