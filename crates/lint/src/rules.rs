//! Rule names, path scopes, and the seven token rules.
//!
//! nd-lint has one analyzer: [`crate::flow::file_flow`] lexes and
//! parses each file once and runs every per-file rule on the result.
//! This module holds what every rule shares — [`RULE_NAMES`],
//! [`Finding`], the path-derived [`FileScope`] — and the seven rules
//! that are local token matches over the parser's non-test token view
//! (`TokenView`). The parse supplies the two facts a token match
//! cannot see: the bodies of `impl` blocks for `*Scratch` types and
//! the iterable of every `for` loop. No rule infers types or resolves
//! names; each is a heuristic tuned to this workspace's idioms, with
//! one escape hatch for what it cannot see: `// nd-lint: allow(rule)`
//! on the finding's line or the line above.
//!
//! | Rule                 | Scope ([`scope_for`])              | Catches |
//! |----------------------|------------------------------------|---------|
//! | `nondet-time`        | kernel crates                      | `Instant::now`, `SystemTime` |
//! | `nondet-hash-iter`   | kernel crates                      | iterating a `HashMap`/`HashSet` |
//! | `stray-spawn`        | everywhere but nd-par/nd-serve     | `thread::spawn` & friends |
//! | `panic-path`         | nd-serve, nd-core checkpoints      | `unwrap`/`expect`/`panic!`/`x[0]` |
//! | `unsafe-comment`     | whole workspace                    | `unsafe` without `// SAFETY:` |
//! | `hot-loop-alloc`     | the six training hot-path files    | `Vec::new` / `vec![` / `with_capacity` outside `*Scratch` impls |
//! | `stage-io`           | nd-core                            | raw `std::fs` / `File` / `OpenOptions` instead of nd-store |
//!
//! The other four rules (`lock-order`, `result-dropped`,
//! `fp-reduction-order`, `unbounded-growth`) need the tree itself and
//! live in [`crate::flow`]. Code in test-only items is skipped: tests
//! may unwrap, spawn, and time things.

use crate::ast::SigTok;
use crate::lexer::TokKind;

/// Crates whose numeric output must be bit-for-bit reproducible
/// (DESIGN.md §8): the determinism rules apply to their `src/` trees.
const KERNEL_CRATES: &[&str] = &["linalg", "topics", "events", "embed", "neural", "par", "patterns"];

/// Crates allowed to create threads (DESIGN.md §8–9): nd-par owns the
/// deterministic fan-out, nd-serve owns the server's thread pool.
const SPAWN_CRATES: &[&str] = &["par", "serve"];

/// Files whose inner loops are the training hot path (DESIGN.md §8):
/// per-iteration temporaries must live in a reused `*Scratch`
/// workspace, so heap allocation is denied file-wide except inside
/// `impl` blocks of types whose name contains `Scratch`.
const HOT_LOOP_FILES: &[&str] = &[
    "crates/linalg/src/gemm.rs",
    "crates/topics/src/nmf.rs",
    "crates/embed/src/word2vec.rs",
    "crates/neural/src/layer.rs",
    "crates/patterns/src/prefixspan.rs",
    "crates/vectorize/src/incremental.rs",
];

/// Every rule name, for `--help` and suppression validation.
pub const RULE_NAMES: &[&str] = &[
    "nondet-time",
    "nondet-hash-iter",
    "stray-spawn",
    "panic-path",
    "unsafe-comment",
    "hot-loop-alloc",
    "stage-io",
    "lock-order",
    "result-dropped",
    "fp-reduction-order",
    "unbounded-growth",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, from [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Which rule families apply to a file, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Determinism rules (`nondet-time`, `nondet-hash-iter`).
    pub determinism: bool,
    /// `stray-spawn` applies (false inside nd-par / nd-serve).
    pub spawn_check: bool,
    /// `panic-path` applies (serve request path, checkpoint I/O).
    pub panic_path: bool,
    /// `lock-order`'s I/O-under-guard check applies (serve path).
    pub lock_check: bool,
    /// `result-dropped` applies (serve request path, store I/O).
    pub error_flow: bool,
    /// `fp-reduction-order` applies (kernel crates).
    pub fp_order: bool,
    /// `unbounded-growth` applies (serve path).
    pub growth: bool,
    /// `hot-loop-alloc` applies (training hot-path files).
    pub hot_loop: bool,
    /// `stage-io` applies (nd-core pipeline/stage code).
    pub stage_io: bool,
}

/// Scope for a workspace-relative path like `crates/serve/src/server.rs`.
pub fn scope_for(rel: &str) -> FileScope {
    let rel = rel.replace('\\', "/");
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    FileScope {
        determinism: in_src && KERNEL_CRATES.contains(&crate_name),
        spawn_check: in_src && !SPAWN_CRATES.contains(&crate_name),
        panic_path: in_src
            && (crate_name == "serve" || rel == "crates/core/src/checkpoint.rs"),
        lock_check: in_src && crate_name == "serve",
        error_flow: in_src && (crate_name == "serve" || crate_name == "store"),
        fp_order: in_src && KERNEL_CRATES.contains(&crate_name),
        growth: in_src && crate_name == "serve",
        hot_loop: HOT_LOOP_FILES.contains(&rel.as_str()),
        stage_io: in_src && crate_name == "core",
    }
}

/// `name` as its interned [`RULE_NAMES`] entry, `None` for an unknown
/// rule.
pub(crate) fn rule_name(name: &str) -> Option<&'static str> {
    RULE_NAMES.iter().find(|&&r| r == name).copied()
}

/// The known rules an `// nd-lint: allow(rule, …)` comment names.
pub(crate) fn allowed_rules(comment: &str) -> Vec<&'static str> {
    let Some(idx) = comment.find("nd-lint:") else { return Vec::new() };
    let rest = &comment[idx + "nd-lint:".len()..];
    let Some(open) = rest.find("allow(") else { return Vec::new() };
    let args = &rest[open + "allow(".len()..];
    let Some(close) = args.find(')') else { return Vec::new() };
    args[..close].split(',').filter_map(|r| rule_name(r.trim())).collect()
}

/// The parser's non-test token view of one file: every significant
/// token outside test items, in source order, plus the two facts the
/// parse supplies, as positions in that order.
pub(crate) struct TokenView<'a> {
    sig: Vec<&'a SigTok>,
    /// Spans `[lo, hi)` of `impl` blocks for `*Scratch` types.
    scratch: Vec<(usize, usize)>,
    /// The last token of each `for` loop's iterable.
    for_iters: Vec<usize>,
}

impl<'a> TokenView<'a> {
    /// Drops the tokens of the `tests` spans from `toks` and maps the
    /// `scratch` spans and `for_iters` indices, which index `toks`,
    /// onto the remaining tokens.
    pub(crate) fn new(
        toks: &'a [SigTok],
        tests: &[(usize, usize)],
        scratch: &[(usize, usize)],
        for_iters: &[usize],
    ) -> Self {
        let mut in_test = vec![false; toks.len()];
        for &(lo, hi) in tests {
            in_test[lo..hi].fill(true);
        }
        let keep: Vec<usize> = (0..toks.len()).filter(|&i| !in_test[i]).collect();
        let at = |i: usize| keep.partition_point(|&k| k < i);
        TokenView {
            sig: keep.iter().map(|&i| &toks[i]).collect(),
            scratch: scratch.iter().map(|&(lo, hi)| (at(lo), at(hi))).collect(),
            for_iters: for_iters.iter().filter(|&&i| !in_test[i]).map(|&i| at(i)).collect(),
        }
    }
}

/// Runs the seven token rules that `scope` enables over `view`.
/// `comments` are the file's `(line, text)` comments, for the
/// `SAFETY:` lookup; suppression is the caller's business.
pub(crate) fn token_rules(
    rel: &str,
    scope: FileScope,
    view: &TokenView<'_>,
    comments: &[(u32, String)],
    out: &mut Vec<Finding>,
) {
    let sig = &view.sig;
    if scope.determinism {
        rule_nondet_time(rel, sig, out);
        rule_nondet_hash_iter(rel, sig, &view.for_iters, out);
    }
    if scope.spawn_check {
        rule_stray_spawn(rel, sig, out);
    }
    if scope.panic_path {
        rule_panic_path(rel, sig, out);
    }
    rule_unsafe_comment(rel, sig, comments, out);
    if scope.hot_loop {
        rule_hot_loop_alloc(rel, sig, &view.scratch, out);
    }
    if scope.stage_io {
        rule_stage_io(rel, sig, out);
    }
}

fn is(sig: &[&SigTok], i: usize, text: &str) -> bool {
    sig.get(i).is_some_and(|t| t.text == text)
}

// ---------------------------------------------------------------- D —

fn rule_nondet_time(rel: &str, sig: &[&SigTok], out: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        if sig[i].text == "SystemTime" {
            out.push(Finding {
                rule: "nondet-time",
                file: rel.to_string(),
                line: sig[i].line,
                message: "`SystemTime` in a kernel crate: wall-clock values are \
                          nondeterministic and must not reach numeric output"
                    .to_string(),
            });
        }
        if sig[i].text == "Instant" && is(sig, i + 1, ":") && is(sig, i + 2, ":") && is(sig, i + 3, "now")
        {
            out.push(Finding {
                rule: "nondet-time",
                file: rel.to_string(),
                line: sig[i].line,
                message: "`Instant::now()` in a kernel crate: wall-clock readings are \
                          nondeterministic; keep timing out of kernels or suppress if \
                          observability-only"
                    .to_string(),
            });
        }
    }
}

fn rule_nondet_hash_iter(
    rel: &str,
    sig: &[&SigTok],
    for_iters: &[usize],
    out: &mut Vec<Finding>,
) {
    let names = hash_bound_names(sig);
    if names.is_empty() {
        return;
    }
    let iter_methods =
        ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "into_keys", "into_values"];
    let flag = |t: &SigTok, out: &mut Vec<Finding>| {
        out.push(Finding {
            rule: "nondet-hash-iter",
            file: rel.to_string(),
            line: t.line,
            message: format!(
                "iteration over hash-ordered `{}`: HashMap/HashSet order is \
                 nondeterministic; use BTreeMap/BTreeSet or collect-and-sort",
                t.text
            ),
        });
    };
    // A field access `recv.name.iter()` only counts when `recv` is
    // `self`: the registry is file-global, so `other.name` may be an
    // unrelated (non-hash) field that merely shares the identifier.
    let self_or_bare = |i: usize| !is(sig, i.wrapping_sub(1), ".") || is(sig, i.wrapping_sub(2), "self");
    let hash_name = |i: usize| {
        sig[i].kind == TokKind::Ident && names.contains(&sig[i].text) && self_or_bare(i)
    };
    // name.iter() / self.name.keys() / …
    for i in 0..sig.len() {
        if hash_name(i)
            && is(sig, i + 1, ".")
            && sig.get(i + 2).is_some_and(|t| iter_methods.contains(&t.text.as_str()))
            && is(sig, i + 3, "(")
        {
            flag(sig[i], out);
        }
    }
    // for pat in name { / in &name { / in &mut name { — a bare map or
    // set as the iterable; method calls were handled above.
    for &i in for_iters {
        if hash_name(i) {
            flag(sig[i], out);
        }
    }
}

/// Identifiers syntactically bound to a `HashMap`/`HashSet` anywhere
/// in the file: `let x: HashMap<…>`, `let x = HashMap::new()`, struct
/// fields and fn params `x: &HashMap<…>`. File-global and
/// flow-insensitive by design.
fn hash_bound_names(sig: &[&SigTok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..sig.len() {
        if sig[i].text != "HashMap" && sig[i].text != "HashSet" {
            continue;
        }
        // Walk back over path/reference noise: `std :: collections ::`,
        // `&`, `mut`, lifetimes.
        let mut j = i;
        while j > 0 {
            let prev = &sig[j - 1];
            let skip = matches!(prev.text.as_str(), ":" | "&" | "mut" | "std" | "collections")
                || prev.kind == TokKind::Lifetime;
            if !skip {
                break;
            }
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        match sig[j - 1].text.as_str() {
            // `name : HashMap` — but the colon-skipping loop above also
            // eats the `:` itself, so check the ident directly.
            _ if sig[j - 1].kind == TokKind::Ident
                && sig[j - 1].text != "use"
                && j >= 2
                && sig[j - 2].text != "::" =>
            {
                // Reached `name` right before the (skipped) `:`/path —
                // only meaningful if a `:` actually separated them.
                let between_has_colon = sig[j..i].iter().any(|t| t.text == ":");
                if between_has_colon {
                    names.push(sig[j - 1].text.clone());
                }
            }
            // `let name = HashMap::new()` (require a let/mut two
            // back to avoid arbitrary reassignments).
            "=" if j >= 3
                && sig[j - 2].kind == TokKind::Ident
                && matches!(sig[j - 3].text.as_str(), "let" | "mut") =>
            {
                names.push(sig[j - 2].text.clone());
            }
            _ => {}
        }
    }
    names.sort();
    names.dedup();
    names
}

fn rule_stray_spawn(rel: &str, sig: &[&SigTok], out: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        let spawnish = sig[i].text == "spawn";
        if spawnish && is(sig, i + 1, "(") {
            out.push(Finding {
                rule: "stray-spawn",
                file: rel.to_string(),
                line: sig[i].line,
                message: "thread spawned outside nd-par/nd-serve: ad-hoc threads break \
                          the deterministic scheduling contract — route fan-out through \
                          nd-par"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- P —

fn rule_panic_path(rel: &str, sig: &[&SigTok], out: &mut Vec<Finding>) {
    let flag = |line: u32, what: &str, out: &mut Vec<Finding>| {
        out.push(Finding {
            rule: "panic-path",
            file: rel.to_string(),
            line,
            message: format!(
                "{what} on a no-panic path: a panic here kills a worker mid-request; \
                 return a structured error instead"
            ),
        });
    };
    for i in 0..sig.len() {
        // .unwrap( / .expect(
        if is(sig, i, ".")
            && sig.get(i + 1).is_some_and(|t| t.text == "unwrap" || t.text == "expect")
            && is(sig, i + 2, "(")
        {
            flag(sig[i + 1].line, &format!("`.{}()`", sig[i + 1].text), out);
        }
        // panic!/unreachable!/unimplemented!/todo!
        if sig[i].kind == TokKind::Ident
            && matches!(sig[i].text.as_str(), "panic" | "unreachable" | "unimplemented" | "todo")
            && is(sig, i + 1, "!")
        {
            flag(sig[i].line, &format!("`{}!`", sig[i].text), out);
        }
        // Unguarded literal index: expr[0] where expr ends in an ident
        // or closing bracket. Array literals ([0; 4], [0.0, 1.0]) do
        // not match because nothing indexable precedes them.
        if sig[i].text == "["
            && i > 0
            && (sig[i - 1].kind == TokKind::Ident || sig[i - 1].text == ")" || sig[i - 1].text == "]")
            && sig.get(i + 1).is_some_and(|t| t.kind == TokKind::NumLit)
            && is(sig, i + 2, "]")
        {
            flag(
                sig[i].line,
                &format!("literal index `[{}]` without a length guard", sig[i + 1].text),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------- U —

fn rule_unsafe_comment(
    rel: &str,
    sig: &[&SigTok],
    comments: &[(u32, String)],
    out: &mut Vec<Finding>,
) {
    for t in sig {
        if t.text != "unsafe" {
            continue;
        }
        let documented = comments
            .iter()
            .any(|(line, text)| line + 2 >= t.line && *line <= t.line && text.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: "unsafe-comment",
                file: rel.to_string(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment within the two lines \
                          above: every unsafe block must state why it is sound"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- H —

/// Flags heap allocations (`Vec::new()`, `vec![…]`, `*::with_capacity(…)`)
/// in the training hot-path files. Scratch workspaces are the escape
/// valve: anything inside an `impl` block for a type whose name
/// contains `Scratch` (the `scratch` spans) is exempt — that is where
/// buffers are *meant* to be created. `resize_with(n, Vec::new)` (no
/// call parens) and `.collect()` are not flagged.
fn rule_hot_loop_alloc(
    rel: &str,
    sig: &[&SigTok],
    scratch: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let exempted = |idx: usize| scratch.iter().any(|&(lo, hi)| (lo..hi).contains(&idx));
    let mut flag = |line: u32, what: &str| {
        out.push(Finding {
            rule: "hot-loop-alloc",
            file: rel.to_string(),
            line,
            message: format!(
                "{what} in a training hot-path file: per-iteration temporaries \
                 must live in a reused `*Scratch` workspace (or move the \
                 allocation into the scratch type's impl)"
            ),
        });
    };
    for i in 0..sig.len() {
        if exempted(i) {
            continue;
        }
        if sig[i].text == "Vec"
            && is(sig, i + 1, ":")
            && is(sig, i + 2, ":")
            && is(sig, i + 3, "new")
            && is(sig, i + 4, "(")
        {
            flag(sig[i].line, "`Vec::new()`");
        }
        if sig[i].kind == TokKind::Ident && sig[i].text == "vec" && is(sig, i + 1, "!") {
            flag(sig[i].line, "`vec![…]`");
        }
        if sig[i].kind == TokKind::Ident && sig[i].text == "with_capacity" && is(sig, i + 1, "(") {
            flag(sig[i].line, "`with_capacity(…)`");
        }
    }
}

// ---------------------------------------------------------------- S —

/// nd-core stage and pipeline code persists every byte through
/// nd-store (`ArtifactStore` frames with checksums and atomic
/// tmp+rename, `Database` with its WAL). Raw `std::fs` / `File` /
/// `OpenOptions` in this crate bypasses fingerprinting and crash
/// safety, and silently forks the cache format — route the I/O
/// through the store instead.
fn rule_stage_io(rel: &str, sig: &[&SigTok], out: &mut Vec<Finding>) {
    let mut flag = |line: u32, what: &str| {
        out.push(Finding {
            rule: "stage-io",
            file: rel.to_string(),
            line,
            message: format!(
                "{what} in nd-core: stage outputs must flow through nd-store \
                 (ArtifactStore / Database), not raw filesystem calls — direct \
                 I/O here bypasses fingerprints, checksums, and atomic rename"
            ),
        });
    };
    for i in 0..sig.len() {
        // `fs :: …` — std::fs::read, fs::write, use std::fs::…
        if sig[i].text == "fs"
            && sig[i].kind == TokKind::Ident
            && is(sig, i + 1, ":")
            && is(sig, i + 2, ":")
        {
            flag(sig[i].line, "`fs::` path");
        }
        // `File :: …` / `OpenOptions :: …` — direct handle creation.
        if (sig[i].text == "File" || sig[i].text == "OpenOptions")
            && is(sig, i + 1, ":")
            && is(sig, i + 2, ":")
        {
            flag(sig[i].line, &format!("`{}::`", sig[i].text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Findings of the one per-file pass.
    fn analyze(rel: &str, src: &str) -> Vec<Finding> {
        crate::flow::file_flow(rel, src).findings
    }

    const KERNEL: &str = "crates/events/src/x.rs";
    const SERVE: &str = "crates/serve/src/x.rs";

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn scope_mapping() {
        assert!(scope_for("crates/linalg/src/mat.rs").determinism);
        assert!(scope_for("crates/patterns/src/prefixspan.rs").determinism);
        assert!(!scope_for("crates/core/src/pipeline.rs").determinism);
        assert!(!scope_for("crates/par/src/lib.rs").spawn_check);
        assert!(!scope_for("crates/serve/src/server.rs").spawn_check);
        assert!(scope_for("crates/neural/src/train.rs").spawn_check);
        assert!(scope_for("crates/serve/src/server.rs").panic_path);
        assert!(scope_for("crates/core/src/checkpoint.rs").panic_path);
        assert!(!scope_for("crates/core/src/predict.rs").panic_path);
        assert!(scope_for("crates/serve/src/batcher.rs").lock_check);
        assert!(!scope_for("crates/linalg/src/mat.rs").lock_check);
        // Non-src files are never linted.
        assert!(!scope_for("crates/events/tests/proptests.rs").determinism);
    }

    #[test]
    fn hash_iteration_flagged_lookup_not() {
        let src = r#"
            fn f() {
                let mut counts: HashMap<String, usize> = HashMap::new();
                for (k, v) in &counts { body(k, v); }
                let hit = counts.get("x");
                let keys: Vec<_> = counts.keys().collect();
            }
        "#;
        let rules = rules_of(&analyze(KERNEL, src));
        assert_eq!(rules, ["nondet-hash-iter", "nondet-hash-iter"], "iter + keys, not get");
    }

    #[test]
    fn foreign_field_sharing_a_hash_name_is_clean() {
        // `keywords` is a HashSet param here, but `t.keywords` is a Vec
        // field on another type — only `self.keywords` may match.
        let src = r#"
            fn f(keywords: &HashSet<String>, topics: &[Topic]) -> Vec<String> {
                topics.iter().flat_map(|t| t.keywords.iter().cloned()).collect()
            }
            impl S {
                fn g(&self) -> usize { self.keywords.iter().count() }
            }
            struct S { keywords: HashSet<String> }
        "#;
        assert_eq!(rules_of(&analyze(KERNEL, src)), ["nondet-hash-iter"], "only self.keywords");
    }

    #[test]
    fn btreemap_is_clean() {
        let src = r#"
            fn f() {
                let mut counts: BTreeMap<String, usize> = BTreeMap::new();
                for (k, v) in &counts { body(k, v); }
            }
        "#;
        assert!(analyze(KERNEL, src).is_empty());
    }

    #[test]
    fn struct_field_hash_iteration_flagged() {
        let src = r#"
            struct S { words: HashMap<String, u32> }
            impl S {
                fn all(&self) -> Vec<u32> { self.words.values().cloned().collect() }
            }
        "#;
        assert_eq!(rules_of(&analyze(KERNEL, src)), ["nondet-hash-iter"]);
    }

    #[test]
    fn time_and_spawn_in_kernel() {
        let src = "fn f() { let t = Instant::now(); std::thread::spawn(|| {}); }";
        let mut rules = rules_of(&analyze(KERNEL, src));
        rules.sort();
        assert_eq!(rules, ["nondet-time", "stray-spawn"]);
        // Same code inside nd-par is fine for spawn, still flagged for time.
        assert_eq!(rules_of(&analyze("crates/par/src/lib.rs", src)), ["nondet-time"]);
    }

    #[test]
    fn panic_path_patterns() {
        let src = r#"
            fn f(xs: &[f64]) -> f64 {
                let a = xs.first().unwrap();
                let b = maybe().expect("present");
                if bad { panic!("boom"); }
                xs[0]
            }
        "#;
        let rules = rules_of(&analyze(SERVE, src));
        assert_eq!(rules, ["panic-path"; 4].to_vec());
        // unwrap_or_else / array literals / ident indices don't trip it.
        let clean = r#"
            fn g(m: &Mutex<u32>, xs: &[f64], i: usize) -> f64 {
                let v = m.lock().unwrap_or_else(PoisonError::into_inner);
                let arr = [0; 4];
                let row = [0.0, 1.0];
                xs[i] + *v as f64
            }
        "#;
        assert!(analyze(SERVE, clean).is_empty());
    }

    #[test]
    fn string_contents_never_trip_rules() {
        let src = r#"fn f() { let s = "please .unwrap() and panic!"; log(s); }"#;
        assert!(analyze(SERVE, src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = r#"
            fn real() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { maybe().unwrap(); let m: HashMap<u32, u32> = HashMap::new(); for x in &m {} }
            }
        "#;
        assert!(analyze(SERVE, src).is_empty());
        assert!(analyze(KERNEL, src).is_empty());
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "fn f() { let t = Instant::now(); // nd-lint: allow(nondet-time)\n}";
        assert!(analyze(KERNEL, src).is_empty());
        let src2 = "fn f() {\n    // timing is observability-only; nd-lint: allow(nondet-time)\n    let t = Instant::now();\n}";
        assert!(analyze(KERNEL, src2).is_empty());
        // Wrong rule name does not suppress.
        let src3 = "fn f() { let t = Instant::now(); // nd-lint: allow(panic-path)\n}";
        assert_eq!(rules_of(&analyze(KERNEL, src3)), ["nondet-time"]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_of(&analyze(KERNEL, bad)), ["unsafe-comment"]);
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(analyze(KERNEL, good).is_empty());
    }

    const HOT: &str = "crates/topics/src/nmf.rs";

    #[test]
    fn hot_loop_alloc_scope_is_exact_files() {
        assert!(scope_for("crates/topics/src/nmf.rs").hot_loop);
        assert!(scope_for("crates/embed/src/word2vec.rs").hot_loop);
        assert!(scope_for("crates/neural/src/layer.rs").hot_loop);
        assert!(scope_for("crates/patterns/src/prefixspan.rs").hot_loop);
        assert!(scope_for("crates/vectorize/src/incremental.rs").hot_loop);
        assert!(!scope_for("crates/vectorize/src/lib.rs").hot_loop);
        assert!(!scope_for("crates/patterns/src/cooccur.rs").hot_loop);
        assert!(!scope_for("crates/topics/src/plsi.rs").hot_loop);
        assert!(!scope_for(KERNEL).hot_loop);
    }

    #[test]
    fn hot_loop_alloc_flags_allocations() {
        let src = r#"
            fn step() {
                let a = Vec::new();
                let b = vec![0.0; 8];
                let c = Vec::with_capacity(8);
            }
        "#;
        assert_eq!(rules_of(&analyze(HOT, src)), ["hot-loop-alloc"; 3].to_vec());
        // Out of scope: same code elsewhere is clean.
        assert!(analyze(KERNEL, src).is_empty());
    }

    #[test]
    fn hot_loop_alloc_exempts_scratch_impls() {
        let src = r#"
            struct FitScratch { buf: Vec<f64> }
            impl FitScratch {
                fn new(n: usize) -> Self {
                    FitScratch { buf: vec![0.0; n] }
                }
                fn grow(&mut self) { self.buf = Vec::with_capacity(9); }
            }
            fn step(s: &mut FitScratch) { s.buf.clear(); }
        "#;
        assert!(analyze(HOT, src).is_empty());
    }

    #[test]
    fn hot_loop_alloc_ignores_fn_pointers_and_collect() {
        let src = r#"
            fn step(parts: &mut Vec<Vec<f64>>, n: usize) -> Vec<f64> {
                parts.resize_with(n, Vec::new);
                (0..n).map(|i| i as f64).collect()
            }
        "#;
        assert!(analyze(HOT, src).is_empty());
    }

    #[test]
    fn hot_loop_alloc_suppressible() {
        let src = "fn f() { let a = Vec::new(); // nd-lint: allow(hot-loop-alloc)\n}";
        assert!(analyze(HOT, src).is_empty());
    }

    const CORE: &str = "crates/core/src/stage.rs";

    #[test]
    fn stage_io_scope_is_core_src() {
        assert!(scope_for("crates/core/src/stage.rs").stage_io);
        assert!(scope_for("crates/core/src/pipeline.rs").stage_io);
        assert!(!scope_for("crates/store/src/artifact.rs").stage_io);
        assert!(!scope_for(SERVE).stage_io);
        assert!(!scope_for("tests/pipeline_cache.rs").stage_io);
    }

    #[test]
    fn stage_io_flags_raw_filesystem_calls() {
        let src = r#"
            fn run() {
                let bytes = std::fs::read("x.art");
                let f = File::create("y.art");
                let o = OpenOptions::new().write(true).open("z.art");
            }
        "#;
        assert_eq!(rules_of(&analyze(CORE, src)), ["stage-io"; 3].to_vec());
        // Same code outside nd-core is out of scope.
        assert!(analyze("crates/store/src/artifact.rs", src).is_empty());
    }

    #[test]
    fn stage_io_clean_store_usage_and_tests_pass() {
        let src = r#"
            fn run(store: &ArtifactStore) -> Result<()> {
                store.save("trending", fp, &payload)?;
                store.write_text("run_report.json", &json)?;
                Ok(())
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::fs::remove_dir_all("tmp").ok(); }
            }
        "#;
        assert!(analyze(CORE, src).is_empty());
        // A field named `fs` on some struct does not trip the path check.
        let field = "fn f(cfg: &Config) -> usize { cfg.fs.len() }";
        assert!(analyze(CORE, field).is_empty());
    }

    #[test]
    fn io_write_with_args_is_not_a_guard() {
        let src = r#"
            fn f(s: &mut TcpStream) {
                let n = s.write(buf);
                other.flush();
            }
        "#;
        assert!(analyze(SERVE, src).is_empty());
    }
}
