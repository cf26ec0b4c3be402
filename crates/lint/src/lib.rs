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
//! Analysis is incremental ([`cache`]: FNV-1a content fingerprints,
//! unchanged files replay their cached records) and parallel (files
//! fan out through nd-par with deterministic in-order merging), so a
//! warm run re-parses only what changed yet emits a byte-identical
//! report. See `DESIGN.md` §10/§15 for the rule catalogue, the
//! suppression syntax (`// nd-lint: allow(rule-name)`), and the
//! `lint.allow` baseline workflow.
//!
//! Run it as `cargo run -p nd-lint -- --deny` (the CI form) or with
//! `--json` / `--sarif FILE` for machine-readable reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod cfg;
pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;

pub use report::{AllowEntry, Baseline};
pub use rules::{scope_for, FileScope, Finding, RULE_NAMES};

use cache::{fnv1a64, Cache, FileRecord};
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

/// Files touched relative to `HEAD` (modified + untracked), as
/// workspace-relative forward-slash paths. `None` when git is
/// unavailable or errors — the caller falls back to the full
/// workspace.
pub fn git_changed_files(root: &Path) -> Option<Vec<String>> {
    let run = |args: &[&str]| -> Option<Vec<String>> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        Some(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(|l| l.trim().replace('\\', "/"))
                .filter(|l| !l.is_empty())
                .collect(),
        )
    };
    let mut files = run(&["diff", "--name-only", "HEAD"])?;
    files.extend(run(&["ls-files", "--others", "--exclude-standard"])?);
    files.sort();
    files.dedup();
    Some(files)
}

/// How [`analyze_workspace_with`] should run.
#[derive(Debug, Default, Clone)]
pub struct AnalyzeOptions {
    /// Incremental cache location; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Restrict analysis to git-changed files (pre-commit mode). Full
    /// workspace when git is unavailable.
    pub changed_only: bool,
}

/// What a run produced, beyond the findings themselves.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Files in scope this run.
    pub files_scanned: usize,
    /// Files analyzed fresh (cache miss or no cache).
    pub reparsed: usize,
    /// Files replayed from the incremental cache.
    pub cached: usize,
    /// Files whose AST did not cover every significant token:
    /// `(path, consumed, total)`. Parser bugs, surfaced loudly.
    pub coverage_gaps: Vec<(String, usize, usize)>,
    /// Inline suppressions that silenced no finding, local or global:
    /// `(path, line, rule)`. Meaningful only on full-workspace runs.
    pub unused_allows: Vec<(String, u32, &'static str)>,
}

/// Full analyzer entry point: the one per-file pass for every file
/// (parallel, cached), then the workspace-global lock/result pass,
/// merged deterministically — warm and cold runs are byte-identical.
pub fn analyze_workspace_with(
    root: &Path,
    opts: &AnalyzeOptions,
) -> std::io::Result<(Vec<Finding>, RunStats)> {
    let mut files = workspace_sources(root)?;
    if opts.changed_only {
        if let Some(changed) = git_changed_files(root) {
            files.retain(|p| {
                let rel = rel_path(root, p);
                changed.iter().any(|c| c == &rel)
            });
        }
    }

    // Read every file up front (serial, sorted order) so the parallel
    // phase is pure CPU.
    let mut rels: Vec<String> = Vec::with_capacity(files.len());
    let mut sources: Vec<String> = Vec::with_capacity(files.len());
    for path in &files {
        rels.push(rel_path(root, path));
        sources.push(std::fs::read_to_string(path)?);
    }

    let mut cache = match &opts.cache_path {
        Some(p) => Cache::load(p),
        None => Cache::default(),
    };

    // Partition into cache hits and files needing fresh analysis.
    let hashes: Vec<u64> = sources.iter().map(|s| fnv1a64(s.as_bytes())).collect();
    let mut records: Vec<Option<FileRecord>> = Vec::with_capacity(files.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    for i in 0..files.len() {
        match cache.entries.get(&rels[i]) {
            Some(rec) if rec.hash == hashes[i] => records.push(Some(rec.clone())),
            _ => {
                records.push(None);
                miss_idx.push(i);
            }
        }
    }

    // Fresh analysis fans out through nd-par; run_chunks returns
    // results in ascending chunk order, so the merge is deterministic
    // regardless of thread count.
    let rels_ref = &rels;
    let sources_ref = &sources;
    let miss_ref = &miss_idx;
    let avg_bytes = if miss_idx.is_empty() {
        0
    } else {
        miss_idx.iter().map(|&i| sources[i].len()).sum::<usize>() / miss_idx.len()
    };
    let fresh: Vec<FileRecord> = nd_par::run_chunks(
        miss_idx.len(),
        1,
        // Analysis is ~20x the cost of a memcpy per byte; scale the
        // work estimate so small workspaces still parallelize.
        avg_bytes.saturating_mul(20).max(1),
        |range| {
            let mut out = Vec::with_capacity(range.len());
            for w in range {
                let i = miss_ref[w];
                let rel = &rels_ref[i];
                let src = &sources_ref[i];
                out.push(FileRecord {
                    hash: fnv1a64(src.as_bytes()),
                    flow: flow::file_flow(rel, src),
                });
            }
            out
        },
    )
    .into_iter()
    .flatten()
    .collect();
    for (w, rec) in fresh.into_iter().enumerate() {
        records[miss_idx[w]] = Some(rec);
    }
    let records: Vec<FileRecord> =
        records.into_iter().map(|r| r.expect("every file analyzed")).collect();

    let mut stats = RunStats {
        files_scanned: files.len(),
        reparsed: miss_idx.len(),
        cached: files.len() - miss_ref.len(),
        ..RunStats::default()
    };
    for (i, rec) in records.iter().enumerate() {
        let (consumed, total) = rec.flow.coverage;
        if consumed != total {
            stats.coverage_gaps.push((rels[i].clone(), consumed, total));
        }
    }

    // Workspace-global pass over every file's summaries (cached or
    // fresh — the inputs are identical either way). Its findings obey
    // the inline suppressions of the file they land in.
    let flows: Vec<&flow::FileFlow> = records.iter().map(|r| &r.flow).collect();
    let mut global = flow::global_pass(&flows);
    let mut allows: BTreeMap<&str, Vec<flow::Allow>> =
        rels.iter().zip(&records).map(|(rel, r)| (rel.as_str(), r.flow.allows.clone())).collect();
    global.retain(|f| !allows.get_mut(f.file.as_str()).is_some_and(|a| flow::suppress(a, f)));
    for (file, list) in &allows {
        for a in list.iter().filter(|a| !a.used) {
            stats.unused_allows.push((file.to_string(), a.line, a.rule));
        }
    }

    // Deterministic merge: every finding, sorted by site.
    let mut findings: Vec<Finding> =
        records.iter().flat_map(|r| r.flow.findings.iter().cloned()).collect();
    findings.extend(global);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();

    // Persist the cache: update analyzed files, keep records for files
    // outside this run's scope (e.g. `--changed`), drop deleted files
    // only on full-workspace runs.
    if let Some(cache_path) = &opts.cache_path {
        for (i, rec) in records.iter().enumerate() {
            cache.entries.insert(rels[i].clone(), rec.clone());
        }
        if !opts.changed_only {
            let in_scope: std::collections::BTreeSet<&String> = rels.iter().collect();
            cache.entries.retain(|path, _| in_scope.contains(path));
        }
        if let Some(dir) = cache_path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        cache.save(cache_path)?;
    }

    Ok((findings, stats))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_is_full_uncached() {
        let o = AnalyzeOptions::default();
        assert!(o.cache_path.is_none());
        assert!(!o.changed_only);
    }
}
