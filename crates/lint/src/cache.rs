//! Incremental analysis cache.
//!
//! Mirrors the artifact-store's content-fingerprint discipline
//! (nd-store `NDART01`): each workspace file's analysis record is
//! keyed by the FNV-1a hash of its contents, so a warm run re-parses
//! only changed files and replays everything else from the cache. The
//! cached record is the *complete* product of the one per-file pass
//! ([`crate::flow::file_flow`]) — local findings, function summaries,
//! drop candidates, inline suppressions, parser coverage — which is
//! exactly the input the workspace-global pass needs; the global pass
//! itself is cheap and recomputed every run, so warm and cold runs emit
//! byte-identical reports.
//!
//! The on-disk format is a versioned line-oriented text file written
//! atomically (tmp + rename). The header embeds the rule list: adding
//! or renaming a rule invalidates every cached record at once. Any
//! parse problem discards the whole cache — it is a pure accelerator,
//! never a source of truth.

use crate::flow::{Allow, DropCandidate, FileFlow, FnSummary};
use crate::rules::{rule_name, Finding, RULE_NAMES};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Format version; bump when record semantics change.
const FORMAT: &str = "ndlint-cache 2";

/// FNV-1a 64-bit (same parameters as nd-store's artifact checksums).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One file's cached analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// FNV-1a of the file contents the record was computed from.
    pub hash: u64,
    /// The per-file pass's product (local findings, summaries,
    /// candidates, inline suppressions, coverage).
    pub flow: FileFlow,
}

/// The whole cache: workspace-relative path → record.
#[derive(Debug, Default)]
pub struct Cache {
    /// Records by file path.
    pub entries: BTreeMap<String, FileRecord>,
}

impl Cache {
    /// Loads a cache file; any error or version/rule mismatch yields
    /// an empty cache (a full re-analysis, never a wrong one).
    pub fn load(path: &Path) -> Cache {
        match std::fs::read_to_string(path) {
            Ok(text) => parse(&text).unwrap_or_default(),
            Err(_) => Cache::default(),
        }
    }

    /// Writes the cache atomically (`path.tmp` + rename).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(render(self).as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

// ---- escaping ----------------------------------------------------------
// Field separator is TAB, entry separator is `;`, subfield is `,`.
// Only free-text fields (finding messages) are escaped; lock ids, fn
// names and rule names are identifier paths by construction.

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            ';' => out.push_str("\\s"),
            ',' => out.push_str("\\c"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('s') => out.push(';'),
            Some('c') => out.push(','),
            other => {
                out.push('\\');
                if let Some(o) = other {
                    out.push(o);
                }
            }
        }
    }
    out
}

// ---- render ------------------------------------------------------------

fn render(cache: &Cache) -> String {
    let mut out = String::new();
    out.push_str(FORMAT);
    out.push('\n');
    out.push_str(&format!("rules {}\n", RULE_NAMES.join(",")));
    for (path, rec) in &cache.entries {
        out.push_str(&format!("F {:016x} {path}\n", rec.hash));
        for f in &rec.flow.findings {
            out.push_str(&format!("f {}\t{}\t{}\n", f.rule, f.line, esc(&f.message)));
        }
        for s in &rec.flow.summaries {
            out.push_str(&format!(
                "s {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.name,
                s.line,
                if s.returns_result { 1 } else { 0 },
                join(&s.acquires, |(l, n)| format!("{l},{n}")),
                join(&s.ordered, |(a, b, n)| format!("{a},{b},{n}")),
                join(&s.calls, |(c, m)| format!("{c},{}", u8::from(*m))),
                join(&s.calls_holding, |(l, c, m, n)| {
                    format!("{l},{c},{},{n}", u8::from(*m))
                }),
                join(&s.io_holding, |(l, c, n)| format!("{l},{c},{n}")),
                s.io_calls.join(";"),
            ));
        }
        for c in &rec.flow.candidates {
            out.push_str(&format!(
                "d {}\t{}\n",
                c.line,
                join(&c.calls, |(name, m)| format!("{name},{}", u8::from(*m)))
            ));
        }
        for a in &rec.flow.allows {
            out.push_str(&format!("a {}\t{}\t{}\n", a.line, a.rule, u8::from(a.used)));
        }
        out.push_str(&format!(
            "v {} {}\n",
            rec.flow.coverage.0, rec.flow.coverage.1
        ));
    }
    out
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(";")
}

// ---- parse -------------------------------------------------------------

fn parse(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT {
        return None;
    }
    if lines.next()? != format!("rules {}", RULE_NAMES.join(",")) {
        return None; // rule set changed — every record is stale
    }
    let mut cache = Cache::default();
    let mut cur: Option<(String, FileRecord)> = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "F" => {
                if let Some((path, rec)) = cur.take() {
                    cache.entries.insert(path, rec);
                }
                let (hash_hex, path) = rest.split_once(' ')?;
                let hash = u64::from_str_radix(hash_hex, 16).ok()?;
                cur = Some((path.to_string(), FileRecord { hash, flow: FileFlow::default() }));
            }
            "f" => {
                let file = cur.as_ref()?.0.clone();
                let rec = &mut cur.as_mut()?.1;
                let mut it = rest.split('\t');
                let rule = rule_name(it.next()?)?;
                let line_no: u32 = it.next()?.parse().ok()?;
                let message = unesc(it.next()?);
                rec.flow.findings.push(Finding { rule, file, line: line_no, message });
            }
            "s" => {
                let file = cur.as_ref()?.0.clone();
                let rec = &mut cur.as_mut()?.1;
                let mut it = rest.split('\t');
                let name = it.next()?.to_string();
                let line_no: u32 = it.next()?.parse().ok()?;
                let returns_result = it.next()? == "1";
                let acquires = split(it.next()?, |p| {
                    let (l, n) = p.rsplit_once(',')?;
                    Some((l.to_string(), n.parse().ok()?))
                })?;
                let ordered = split(it.next()?, |p| {
                    let mut q = p.split(',');
                    Some((
                        q.next()?.to_string(),
                        q.next()?.to_string(),
                        q.next()?.parse().ok()?,
                    ))
                })?;
                let calls = split(it.next()?, |p| {
                    let (c, m) = p.rsplit_once(',')?;
                    Some((c.to_string(), m == "1"))
                })?;
                let calls_holding = split(it.next()?, |p| {
                    let mut q = p.split(',');
                    Some((
                        q.next()?.to_string(),
                        q.next()?.to_string(),
                        q.next()? == "1",
                        q.next()?.parse().ok()?,
                    ))
                })?;
                let io_holding = split(it.next()?, |p| {
                    let mut q = p.split(',');
                    Some((
                        q.next()?.to_string(),
                        q.next()?.to_string(),
                        q.next()?.parse().ok()?,
                    ))
                })?;
                let io_calls: Vec<String> = it
                    .next()
                    .map(|s| {
                        s.split(';')
                            .filter(|p| !p.is_empty())
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                rec.flow.summaries.push(FnSummary {
                    name,
                    file,
                    line: line_no,
                    returns_result,
                    acquires,
                    ordered,
                    calls,
                    calls_holding,
                    io_holding,
                    io_calls,
                });
            }
            "d" => {
                let file = cur.as_ref()?.0.clone();
                let rec = &mut cur.as_mut()?.1;
                let (line_no, calls) = rest.split_once('\t')?;
                rec.flow.candidates.push(DropCandidate {
                    file,
                    line: line_no.parse().ok()?,
                    calls: calls
                        .split(';')
                        .filter(|p| !p.is_empty())
                        .map(|p| {
                            let (name, m) = p.split_once(',')?;
                            Some((name.to_string(), m == "1"))
                        })
                        .collect::<Option<Vec<_>>>()?,
                });
            }
            "a" => {
                let rec = &mut cur.as_mut()?.1;
                let mut it = rest.split('\t');
                let line = it.next()?.parse().ok()?;
                let rule = rule_name(it.next()?)?;
                rec.flow.allows.push(Allow { line, rule, used: it.next()? == "1" });
            }
            "v" => {
                let rec = &mut cur.as_mut()?.1;
                let (a, b) = rest.split_once(' ')?;
                rec.flow.coverage = (a.parse().ok()?, b.parse().ok()?);
            }
            _ => return None,
        }
    }
    if let Some((path, rec)) = cur.take() {
        cache.entries.insert(path, rec);
    }
    Some(cache)
}

fn split<T>(s: &str, f: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    s.split(';').filter(|p| !p.is_empty()).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::file_flow;

    #[test]
    fn fnv_matches_store_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"newsdiff"), fnv1a64(b"newsdifg"));
    }

    #[test]
    fn roundtrip_preserves_records_exactly() {
        let rel = "crates/serve/src/fixture.rs";
        let src = r#"
            impl S {
                fn f(&self, out: &mut TcpStream) -> Result<(), E> {
                    let g = self.state.lock().unwrap();
                    let _ = self.tx.send(1);
                    out.write_all(g.bytes())?;
                    Ok(())
                }
            }
            // nd-lint: allow(result-dropped) — best effort
        "#;
        let mut cache = Cache::default();
        cache.entries.insert(
            rel.to_string(),
            FileRecord { hash: fnv1a64(src.as_bytes()), flow: file_flow(rel, src) },
        );
        let dir = std::env::temp_dir().join("nd-lint-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cache");
        cache.save(&path).unwrap();
        let loaded = Cache::load(&path);
        assert_eq!(loaded.entries.len(), 1);
        let (orig, got) = (&cache.entries[rel], &loaded.entries[rel]);
        assert_eq!(orig.hash, got.hash);
        assert_eq!(orig.flow, got.flow);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_or_rule_mismatch_discards() {
        let dir = std::env::temp_dir().join("nd-lint-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.cache");
        std::fs::write(&path, "ndlint-cache 0\nrules x\n").unwrap();
        assert!(Cache::load(&path).entries.is_empty());
        std::fs::write(
            &path,
            format!("{FORMAT}\nrules not,the,same\nF 0000000000000000 a.rs\n"),
        )
        .unwrap();
        assert!(Cache::load(&path).entries.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_cache() {
        let c = Cache::load(Path::new("/nonexistent/nd-lint.cache"));
        assert!(c.entries.is_empty());
    }

    #[test]
    fn escaping_roundtrips_hostile_text() {
        let hostile = "a\tb;c,d\\e\nf";
        assert_eq!(unesc(&esc(hostile)), hostile);
    }
}
