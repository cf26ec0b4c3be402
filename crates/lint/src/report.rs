//! Finding output (human + JSON) and the `lint.allow` baseline.
//!
//! The baseline grandfathers findings so the gate can be turned on
//! before the tree is fully clean: one entry per line, either
//! `rule path/to/file.rs` (whole file) or `rule path/to/file.rs:LINE`
//! (one site). `#` starts a comment. The goal state is an empty file —
//! every entry is debt with a name on it.

use crate::rules::{Finding, RULE_NAMES};

/// One parsed `lint.allow` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry silences.
    pub rule: String,
    /// Workspace-relative file the entry covers.
    pub file: String,
    /// Specific line, or `None` for the whole file.
    pub line: Option<u32>,
}

impl AllowEntry {
    /// Does this entry grandfather `f`? The one match rule for
    /// [`Baseline::covers`], [`Baseline::stale`] and [`prune_baseline`].
    pub fn covers(&self, f: &Finding) -> bool {
        self.rule == f.rule && self.file == f.file && self.line.is_none_or(|l| l == f.line)
    }
}

/// The parsed baseline plus any problems found while reading it.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Valid entries.
    pub entries: Vec<AllowEntry>,
    /// Human-readable parse problems (unknown rule, bad shape);
    /// reported as warnings, never fatal.
    pub problems: Vec<String>,
}

impl Baseline {
    /// Parses baseline text. Unknown rules and malformed lines land in
    /// `problems` so a typo cannot silently allow everything.
    pub fn parse(text: &str) -> Baseline {
        let mut baseline = Baseline::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(target), None) = (parts.next(), parts.next(), parts.next())
            else {
                baseline
                    .problems
                    .push(format!("lint.allow:{}: expected `rule path[:line]`", lineno + 1));
                continue;
            };
            if !RULE_NAMES.contains(&rule) {
                baseline
                    .problems
                    .push(format!("lint.allow:{}: unknown rule `{rule}`", lineno + 1));
                continue;
            }
            let (file, line_no) = match target.rsplit_once(':') {
                Some((f, l)) if l.chars().all(|c| c.is_ascii_digit()) && !l.is_empty() => {
                    (f.to_string(), l.parse::<u32>().ok())
                }
                _ => (target.to_string(), None),
            };
            baseline.entries.push(AllowEntry { rule: rule.to_string(), file, line: line_no });
        }
        baseline
    }

    /// Is `f` grandfathered by some entry?
    pub fn covers(&self, f: &Finding) -> bool {
        self.entries.iter().any(|e| e.covers(f))
    }

    /// Entries that matched no finding: stale debt worth deleting.
    pub fn stale<'a>(&'a self, findings: &[Finding]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| e.covers(f)))
            .collect()
    }
}

/// Rewrites baseline text with stale entries removed (`--prune-baseline`).
/// Comment-only and blank lines survive verbatim; an entry line
/// survives iff it still covers a current finding (its inline comment
/// rides along). Returns the new text and the pruned entry count.
pub fn prune_baseline(text: &str, findings: &[Finding]) -> (String, usize) {
    let mut out = String::with_capacity(text.len());
    let mut pruned = 0usize;
    for raw in text.lines() {
        let entry = raw.split('#').next().unwrap_or("").trim();
        if entry.is_empty() {
            out.push_str(raw);
            out.push('\n');
            continue;
        }
        // Re-parse this one line through the normal parser so the
        // live/stale decision matches `Baseline::covers` exactly.
        let one = Baseline::parse(raw);
        let live = one.entries.first().is_some_and(|e| findings.iter().any(|f| e.covers(f)));
        if live {
            out.push_str(raw);
            out.push('\n');
        } else {
            pruned += 1;
        }
    }
    (out, pruned)
}

/// Minimal JSON string escaping (the only JSON we emit is flat).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report consumed by CI
/// (`lint_report.json`).
pub fn render_json(findings: &[(Finding, bool)], files_scanned: usize) -> String {
    let active = findings.iter().filter(|(_, baselined)| !baselined).count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"total\": {},\n", findings.len()));
    out.push_str(&format!("  \"baselined\": {},\n", findings.len() - active));
    out.push_str(&format!("  \"active\": {active},\n"));
    out.push_str("  \"findings\": [");
    for (i, (f, baselined)) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"baselined\": {}, \"message\": \"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            baselined,
            esc(&f.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding { rule, file: file.to_string(), line, message: "m".to_string() }
    }

    #[test]
    fn baseline_parses_file_and_line_entries() {
        let b = Baseline::parse(
            "# comment\n\
             panic-path crates/serve/src/server.rs:42\n\
             nondet-time crates/neural/src/train.rs  # whole file\n",
        );
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        assert_eq!(b.entries.len(), 2);
        assert!(b.covers(&finding("panic-path", "crates/serve/src/server.rs", 42)));
        assert!(!b.covers(&finding("panic-path", "crates/serve/src/server.rs", 43)));
        assert!(b.covers(&finding("nondet-time", "crates/neural/src/train.rs", 7)));
        assert!(!b.covers(&finding("stray-spawn", "crates/neural/src/train.rs", 7)));
    }

    #[test]
    fn unknown_rules_are_problems_not_wildcards() {
        let b = Baseline::parse("not-a-rule crates/serve/src/server.rs\n");
        assert_eq!(b.entries.len(), 0);
        assert_eq!(b.problems.len(), 1);
    }

    #[test]
    fn stale_entries_surface() {
        let b = Baseline::parse("panic-path crates/serve/src/server.rs:42\n");
        let stale = b.stale(&[]);
        assert_eq!(stale.len(), 1);
        let live = b.stale(&[finding("panic-path", "crates/serve/src/server.rs", 42)]);
        assert!(live.is_empty());
    }

    #[test]
    fn prune_drops_stale_keeps_live_and_comments() {
        let text = "# debt ledger\n\
                    panic-path crates/serve/src/server.rs:42  # justified\n\
                    nondet-time crates/neural/src/train.rs\n\
                    \n\
                    hot-loop-alloc crates/topics/src/nmf.rs:7\n";
        let live = [finding("panic-path", "crates/serve/src/server.rs", 42)];
        let (pruned, n) = prune_baseline(text, &live);
        assert_eq!(n, 2);
        assert!(pruned.contains("# debt ledger"));
        assert!(pruned.contains("panic-path crates/serve/src/server.rs:42  # justified"));
        assert!(!pruned.contains("nondet-time"));
        assert!(!pruned.contains("hot-loop-alloc"));
        assert!(pruned.contains("\n\n"), "blank line survives");
    }

    #[test]
    fn json_escapes_and_counts() {
        let fs = vec![
            (finding("panic-path", "a.rs", 1), false),
            (finding("nondet-time", "b\"q.rs", 2), true),
        ];
        let json = render_json(&fs, 10);
        assert!(json.contains("\"active\": 1"));
        assert!(json.contains("\"baselined\": 1"));
        assert!(json.contains("b\\\"q.rs"));
    }
}
