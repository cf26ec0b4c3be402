//! CLI entry point: `cargo run -p nd-lint -- [--deny] [--json] …`.
//!
//! Exit status: `0` when every finding is baselined (or `--deny` is
//! absent), `1` when active findings — or, under `--deny`, stale
//! baseline entries or unused inline suppressions — remain, `2` on
//! usage or I/O errors. Human output goes to stderr so `--json` on
//! stdout stays machine-clean for `> lint_report.json`.

use nd_lint::report::prune_baseline;
use nd_lint::{analyze_workspace, Baseline, RULE_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    deny: bool,
    json: bool,
    root: PathBuf,
    allow: Option<PathBuf>,
    prune_baseline: bool,
}

fn usage() -> String {
    format!(
        "nd-lint: workspace invariant analyzer\n\n\
         USAGE: nd-lint [--deny] [--json] [--root DIR] [--allow FILE]\n\
         \x20               [--prune-baseline]\n\n\
         \x20 --deny             exit non-zero on active findings or stale baseline entries\n\
         \x20 --json             print the machine-readable report to stdout\n\
         \x20 --root DIR         workspace root (default: current directory)\n\
         \x20 --allow FILE       baseline file (default: ROOT/lint.allow)\n\
         \x20 --prune-baseline   rewrite the baseline with stale entries removed\n\n\
         rules: {}\n\
         suppress one site: `// nd-lint: allow(rule-name)` on the line or the line above",
        RULE_NAMES.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        json: false,
        root: PathBuf::from("."),
        allow: None,
        prune_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--prune-baseline" => args.prune_baseline = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--allow" => {
                args.allow = Some(PathBuf::from(it.next().ok_or("--allow needs a file")?));
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

    let allow_path = args.allow.clone().unwrap_or_else(|| args.root.join("lint.allow"));
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let baseline = Baseline::parse(&allow_text);
    for problem in &baseline.problems {
        eprintln!("nd-lint: warning: {problem}");
    }

    let level = if args.deny { "error" } else { "warning" };
    let stale = baseline.stale(&findings);
    let unused = &stats.unused_allows;
    for (file, line, rule) in unused {
        eprintln!(
            "nd-lint: {level}: unused suppression `allow({rule})` at {file}:{line} silences nothing — delete it"
        );
    }
    if args.prune_baseline {
        let (new_text, pruned) = prune_baseline(&allow_text, &findings);
        if pruned > 0 {
            if let Err(e) = std::fs::write(&allow_path, &new_text) {
                eprintln!("nd-lint: failed to rewrite {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        }
        eprintln!(
            "nd-lint: pruned {pruned} stale baseline entr{} from {}",
            if pruned == 1 { "y" } else { "ies" },
            allow_path.display()
        );
    } else {
        for s in &stale {
            eprintln!(
                "nd-lint: {level}: stale baseline entry `{} {}{}` matches nothing — run --prune-baseline",
                s.rule,
                s.file,
                s.line.map(|l| format!(":{l}")).unwrap_or_default()
            );
        }
    }

    let tagged: Vec<_> =
        findings.into_iter().map(|f| (f.clone(), baseline.covers(&f))).collect();
    let active: Vec<_> = tagged.iter().filter(|(_, baselined)| !baselined).collect();

    for (f, _) in &active {
        eprintln!("{f}");
    }
    eprintln!(
        "nd-lint: {} file(s), {} finding(s), {} baselined, {} active",
        stats.files_scanned,
        tagged.len(),
        tagged.len() - active.len(),
        active.len()
    );

    if args.json {
        print!("{}", nd_lint::report::render_json(&tagged, stats.files_scanned));
    }

    let stale_fails = args.deny && !args.prune_baseline && !stale.is_empty();
    if args.deny && !active.is_empty() {
        eprintln!("nd-lint: failing (--deny): fix the findings above, suppress a verified-safe site with `// nd-lint: allow(rule)`, or baseline it in lint.allow");
        return ExitCode::from(1);
    }
    if stale_fails {
        eprintln!("nd-lint: failing (--deny): stale baseline entries — run `nd-lint --prune-baseline`");
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
