//! Parser total-coverage check over the real workspace: every
//! significant token of every source file must be consumed by the
//! recursive-descent parser. A gap means the rules silently skipped
//! code — the analyzer's cardinal sin — so this fails loudly with the
//! exact file and token counts.

use nd_lint::ast::{parse_file, tokens};
use nd_lint::workspace_sources;
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint/tests/ → workspace root is two levels up from the
    // manifest dir.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn parser_covers_every_token_of_every_workspace_file() {
    let files = workspace_sources(workspace_root()).expect("workspace scan");
    assert!(
        files.len() > 50,
        "workspace scan found only {} files — wrong root?",
        files.len()
    );
    let mut gaps = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("readable source");
        let (toks, _) = tokens(&src);
        let (_, cov) = parse_file(&toks);
        if cov.consumed != cov.total {
            gaps.push(format!(
                "{}: {}/{} significant tokens covered",
                path.display(),
                cov.consumed,
                cov.total
            ));
        }
    }
    assert!(gaps.is_empty(), "parser coverage gaps:\n{}", gaps.join("\n"));
}

#[test]
fn sharded_serving_modules_are_in_lint_scope() {
    // The serving layer's newest modules hold the admission-control
    // and load-generation logic whose panic-path / unbounded-growth
    // guarantees the design leans on; pin them into the scan so a
    // future scope change can't silently exempt them.
    let files = workspace_sources(workspace_root()).expect("workspace scan");
    for needle in
        ["crates/serve/src/shard.rs", "crates/serve/src/loadgen.rs", "crates/serve/src/hist.rs"]
    {
        assert!(
            files.iter().any(|p| p.ends_with(needle)),
            "{needle} missing from nd-lint scope"
        );
    }
}

#[test]
fn streaming_modules_are_in_lint_scope() {
    // The incremental-recompute path (DESIGN.md §17) spans five
    // crates; pin every new module into the scan so the fold stages'
    // determinism / panic-path / hot-loop guarantees stay enforced.
    let files = workspace_sources(workspace_root()).expect("workspace scan");
    for needle in [
        "crates/synth/src/firehose.rs",
        "crates/vectorize/src/incremental.rs",
        "crates/events/src/window.rs",
        "crates/core/src/incremental.rs",
        "crates/serve/src/retrain.rs",
    ] {
        assert!(
            files.iter().any(|p| p.ends_with(needle)),
            "{needle} missing from nd-lint scope"
        );
    }
}

#[test]
fn every_function_gets_a_cfg() {
    // Weaker structural check: parsing + CFG construction never panics
    // and yields at least one function per non-trivial file.
    use nd_lint::ast::ItemKind;
    use nd_lint::cfg::build_flow;
    let files = workspace_sources(workspace_root()).expect("workspace scan");
    let mut fns = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path).expect("readable source");
        let (toks, _) = tokens(&src);
        let (parsed, _) = parse_file(&toks);
        for item in &parsed.items {
            if let ItemKind::Fn(f) = &item.kind {
                if build_flow(f, &toks, None).is_some() {
                    fns += 1;
                }
            }
        }
    }
    assert!(fns > 100, "expected hundreds of top-level fns, found {fns}");
}
