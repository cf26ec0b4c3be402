//! `nd-lint` — workspace invariant analyzer.
//!
//! The paper's evaluation is reproducible because two invariants hold
//! everywhere: kernels are bit-for-bit deterministic at any thread
//! count (DESIGN.md §8) and the serving tier never lets a panic kill a
//! worker mid-request (DESIGN.md §9). Those invariants used to live in
//! prose and tests; this crate turns them into a CI gate that rejects
//! violating code before it merges, the way clippy rejects style
//! drift — but for rules clippy cannot express because they are
//! *project policy*, not Rust misuse.
//!
//! One analyzer, one pass per file: [`flow::file_flow`] lexes a file
//! once ([`lexer`]), parses it once ([`ast`]), and runs all eleven
//! rules' per-file parts on the result — the seven token rules of
//! [`rules`] over the parser's non-test token view, and the four flow
//! rules over the syntax tree and per-function CFGs with lock-guard
//! liveness ([`mod@cfg`]). A workspace-global pass
//! ([`flow::global_pass`]) then joins every file's function summaries
//! into the call and lock graphs for `lock-order` and `result-dropped`
//! (DESIGN.md §10, §15).
//!
//! Every run is one cold pass over the whole workspace
//! ([`analyze_workspace`]): files fan out through nd-par and merge in
//! file order, so the report is byte-identical at any thread count.
//! See `DESIGN.md` §10/§15 for the rule catalogue and the one
//! suppression mechanism, an inline `// nd-lint: allow(rule-name)`.
//!
//! Run it as `cargo run -p nd-lint -- --deny` (the CI form) or with
//! `--json` for the machine-readable report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cfg;
pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::{scope_for, FileScope, Finding, RULE_NAMES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workspace-relative source files the analyzer covers: every `.rs`
/// under the root `src/` and under each `crates/*/src/`. Tests,
/// benches, examples, and `vendor/` stubs are out of scope — they may
/// unwrap, spawn, and time things freely.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// What a run produced, beyond the findings themselves.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Files in scope this run.
    pub files_scanned: usize,
    /// Files whose AST did not cover every significant token:
    /// `(path, consumed, total)`. Parser bugs, surfaced loudly.
    pub coverage_gaps: Vec<(String, usize, usize)>,
    /// Inline suppressions that silenced no finding, local or global:
    /// `(path, line, rule)`.
    pub unused_allows: Vec<(String, u32, &'static str)>,
}

/// The analyzer's entry point: the one per-file pass over every
/// workspace source, then the workspace-global lock/result pass,
/// merged deterministically — the findings are identical at any
/// thread count. Reads the sources and writes no file.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, RunStats)> {
    let files = workspace_sources(root)?;

    // Read every file up front (serial, sorted order) so the parallel
    // phase is pure CPU.
    let mut rels: Vec<String> = Vec::with_capacity(files.len());
    let mut sources: Vec<String> = Vec::with_capacity(files.len());
    for path in &files {
        rels.push(rel_path(root, path));
        sources.push(std::fs::read_to_string(path)?);
    }

    // Files fan out through nd-par; run_chunks returns results in
    // ascending chunk order, so the merge is deterministic regardless
    // of thread count.
    let avg_bytes = sources.iter().map(String::len).sum::<usize>() / files.len().max(1);
    let flows: Vec<flow::FileFlow> = nd_par::run_chunks(
        files.len(),
        1,
        // Analysis is ~20x the cost of a memcpy per byte; scale the
        // work estimate so small workspaces still parallelize.
        avg_bytes.saturating_mul(20).max(1),
        |range| range.map(|i| flow::file_flow(&rels[i], &sources[i])).collect::<Vec<_>>(),
    )
    .into_iter()
    .flatten()
    .collect();

    let mut stats = RunStats { files_scanned: files.len(), ..RunStats::default() };
    for (rel, f) in rels.iter().zip(&flows) {
        let (consumed, total) = f.coverage;
        if consumed != total {
            stats.coverage_gaps.push((rel.clone(), consumed, total));
        }
    }

    // Workspace-global pass over every file's summaries. Its findings
    // obey the inline suppressions of the file they land in.
    let refs: Vec<&flow::FileFlow> = flows.iter().collect();
    let mut global = flow::global_pass(&refs);
    let mut allows: BTreeMap<&str, Vec<flow::Allow>> =
        rels.iter().zip(&flows).map(|(rel, f)| (rel.as_str(), f.allows.clone())).collect();
    global.retain(|f| !allows.get_mut(f.file.as_str()).is_some_and(|a| flow::suppress(a, f)));
    for (file, list) in &allows {
        for a in list.iter().filter(|a| !a.used) {
            stats.unused_allows.push((file.to_string(), a.line, a.rule));
        }
    }

    // Deterministic merge: every finding, sorted by site.
    let mut findings: Vec<Finding> =
        flows.iter().flat_map(|f| f.findings.iter().cloned()).collect();
    findings.extend(global);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();

    Ok((findings, stats))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}
