//! CLI entry point: `cargo run -p nd-lint -- [--deny] [--json] …`.
//!
//! Exit status: `0` when no finding is left (or `--deny` is absent),
//! `1` under `--deny` when findings — or inline suppressions that
//! silence nothing — remain, `2` on usage or I/O errors. Human output
//! goes to stderr so `--json` on stdout stays machine-clean for
//! `> lint_report.json`.

use nd_lint::{analyze_workspace, RULE_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    deny: bool,
    json: bool,
    root: PathBuf,
}

fn usage() -> String {
    format!(
        "nd-lint: workspace invariant analyzer\n\n\
         USAGE: nd-lint [--deny] [--json] [--root DIR]\n\n\
         \x20 --deny             exit non-zero on findings or unused suppressions\n\
         \x20 --json             print the machine-readable report to stdout\n\
         \x20 --root DIR         workspace root (default: current directory)\n\n\
         rules: {}\n\
         suppress one site: `// nd-lint: allow(rule-name)` on the line or the line above",
        RULE_NAMES.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { deny: false, json: false, root: PathBuf::from(".") };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let (findings, stats) = match analyze_workspace(&args.root) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("nd-lint: failed to scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    // A parser coverage gap means the rules silently skipped tokens
    // somewhere — that is an analyzer bug, never acceptable.
    for (file, consumed, total) in &stats.coverage_gaps {
        eprintln!(
            "nd-lint: error: parser covered {consumed}/{total} significant tokens of {file}"
        );
    }
    if !stats.coverage_gaps.is_empty() {
        return ExitCode::from(2);
    }

    let level = if args.deny { "error" } else { "warning" };
    let unused = &stats.unused_allows;
    for (file, line, rule) in unused {
        eprintln!(
            "nd-lint: {level}: unused suppression `allow({rule})` at {file}:{line} silences nothing — delete it"
        );
    }

    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!("nd-lint: {} file(s), {} finding(s)", stats.files_scanned, findings.len());

    if args.json {
        print!("{}", nd_lint::report::render_json(&findings, stats.files_scanned));
    }

    if args.deny && !findings.is_empty() {
        eprintln!("nd-lint: failing (--deny): fix the findings above, or suppress a verified-safe site with `// nd-lint: allow(rule)`");
        return ExitCode::from(1);
    }
    if args.deny && !unused.is_empty() {
        eprintln!(
            "nd-lint: failing (--deny): unused inline suppressions — delete the comments above"
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
