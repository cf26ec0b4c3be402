//! The machine-readable report (`--json`, CI's `lint_report.json`).

use crate::rules::Finding;

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
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"total\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
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
    fn json_escapes_and_counts() {
        let fs = vec![finding("panic-path", "a.rs", 1), finding("nondet-time", "b\"q.rs", 2)];
        let json = render_json(&fs, 10);
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("b\\\"q.rs"));
    }
}
