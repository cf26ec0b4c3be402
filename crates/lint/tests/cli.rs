//! Exit-status contract of the `nd-lint` binary, run with `--root` on
//! scratch workspaces: `1` under `--deny` for a finding or an unused
//! inline suppression, `0` for a clean tree, `2` for any argument
//! outside `--deny`, `--json` and `--root`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A serving-tier file with one `panic-path` finding.
const PANICKY: &str = "pub fn first(xs: &[u64]) -> u64 {\n    xs.first().copied().unwrap()\n}\n";

/// The same file with the site suppressed inline.
const SUPPRESSED: &str = "pub fn first(xs: &[u64]) -> u64 {\n    // nd-lint: allow(panic-path) — callers pass a non-empty slice\n    xs.first().copied().unwrap()\n}\n";

/// A suppression that silences nothing.
const UNUSED: &str =
    "pub fn first(xs: &[u64]) -> u64 {\n    // nd-lint: allow(panic-path)\n    xs.first().copied().unwrap_or(0)\n}\n";

/// A one-file workspace under a fresh temp dir.
fn workspace(name: &str, src: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("nd-lint-cli-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let file = root.join("crates/serve/src/first.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(&file, src).unwrap();
    root
}

/// Exit code of `nd-lint --root ROOT ARGS…`.
fn exit_code(root: &Path, args: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_nd-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run nd-lint")
        .status;
    status.code().expect("nd-lint exited by signal")
}

#[test]
fn deny_fails_on_a_finding_and_passes_once_it_is_suppressed_inline() {
    let root = workspace("finding", PANICKY);
    assert_eq!(exit_code(&root, &["--deny"]), 1);
    assert_eq!(exit_code(&root, &[]), 0, "without --deny a finding only warns");
    std::fs::write(root.join("crates/serve/src/first.rs"), SUPPRESSED).unwrap();
    assert_eq!(exit_code(&root, &["--deny", "--json"]), 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deny_fails_on_an_unused_suppression() {
    let root = workspace("unused", UNUSED);
    assert_eq!(exit_code(&root, &["--deny"]), 1);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn baseline_flags_are_usage_errors_and_lint_allow_is_not_read() {
    let root = workspace("flags", PANICKY);
    std::fs::write(root.join("lint.allow"), "panic-path crates/serve/src/first.rs\n").unwrap();
    assert_eq!(exit_code(&root, &["--allow", "lint.allow"]), 2);
    assert_eq!(exit_code(&root, &["--prune-baseline"]), 2);
    assert_eq!(exit_code(&root, &["--deny"]), 1, "a lint.allow file silences nothing");
    std::fs::remove_dir_all(&root).ok();
}
