//! The one per-file pass and the workspace-global pass.
//!
//! [`file_flow`] runs every per-file rule on one file. It lexes the
//! file once, parses it once ([`crate::ast`]), and then:
//!
//! - runs the seven token rules of [`crate::rules`] over the parser's
//!   non-test token view, with the `impl …Scratch` bodies and `for`
//!   iterables the parse found;
//! - builds per-function CFGs with guard liveness ([`crate::cfg`]) and
//!   extracts a [`FnSummary`] per function (locks acquired,
//!   acquisition order, calls made while holding, blocking I/O);
//! - evaluates the local parts of the four flow rules:
//!   - `result-dropped` (serve + store): `let _ =` a fallible call,
//!     empty `Err(_) => {}` arms, and dead `.ok();` statements.
//!   - `fp-reduction-order` (kernel crates): float `.sum()`/`.product()`
//!     and mutable float accumulators over chunked iteration — both
//!     bypass nd-par's fixed reduction order and break bit-identity.
//!   - `unbounded-growth` (serve): collections growing inside
//!     `while`/`loop` (iteration count not tied to a finite input)
//!     with no observable bound in the function.
//!
//! One suppression filter and one sort then produce the file's
//! findings.
//!
//! [`global_pass`] then joins every file's summaries into the
//! workspace lock-acquisition graph: acquired-lock closures propagate
//! through the call graph, cycles (including self-reacquisition)
//! become `lock-order` findings, blocking I/O under a live guard —
//! direct or through a callee — is flagged in the serve path, and
//! `let _ =` candidates resolve against workspace functions that
//! return `Result`. The caller suppresses those findings with the
//! [`Allow`]s of the file they land in ([`suppress`]).

use crate::ast::{
    self, Arm, Block, Chain, FnItem, Item, ItemKind, SigTok, StmtKind, StructExpr,
    StructKind,
};
use crate::cfg::{build_flow, find_calls, Unit, GUARD_METHODS};
use crate::lexer::TokKind;
use crate::rules::{self, scope_for, FileScope, Finding, TokenView};
use std::collections::{BTreeMap, BTreeSet};

/// Blocking calls a lock guard must not be held across (`lock-order`).
/// All but [`TRANSITIVE_EXCEPT`] also propagate through the call graph.
const IO_CALLS: &[&str] = &[
    "write_response",
    "write_all",
    "write_fmt",
    "flush",
    "read_to_end",
    "read_exact",
    "read_line",
    "read_until",
    "persist",
    "join",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "sleep",
    "send_to",
    "sync_all",
];

/// The one [`IO_CALLS`] entry that stays direct-only: `Path::join`
/// would otherwise make half the workspace look blocking.
const TRANSITIVE_EXCEPT: &str = "join";

/// Callee names whose dropped return value is a dropped `Result`
/// regardless of workspace summaries (std / known-fallible surface).
const FALLIBLE_METHODS: &[&str] = &[
    "join",
    "send",
    "recv",
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "persist",
    "sync_all",
    "read_exact",
    "read_to_end",
    "set_read_timeout",
    "set_write_timeout",
    "set_nodelay",
    "set_nonblocking",
    "shutdown",
    "remove_file",
    "rename",
    "create_dir_all",
];

/// Method names that collide with the std prelude surface
/// (collections, iterators, channels, threads). A method call with one
/// of these names is almost always `Vec::drain`, `HashMap::get`,
/// `Sender::send`, … — never the workspace fn that happens to share
/// the name — so the global resolver refuses to bind them even when
/// the name is unique in the workspace. Free calls are unaffected.
const STD_METHODS: &[&str] = &[
    "append", "as_ref", "clear", "clone", "collect", "contains", "contains_key",
    "count", "drain", "entry", "extend", "filter", "find", "flush", "fold", "get",
    "get_mut", "insert", "into_iter", "is_empty", "iter", "iter_mut", "join", "keys",
    "len", "map", "max", "min", "next", "notify_all", "notify_one", "parse", "pop",
    "position", "push", "read", "recv", "remove", "replace", "reserve", "resize",
    "retain", "send", "sort", "sort_by", "split", "split_off", "sum", "swap", "take",
    "truncate", "values", "wait", "write",
];

/// Iterator adapters that split data into chunks: accumulating across
/// them in ad-hoc order is exactly what nd-par's in-order reduction
/// exists to prevent.
const CHUNK_SOURCES: &[&str] =
    &["chunks", "chunks_exact", "chunk_ranges", "par_chunks", "rchunks", "windows"];

/// Growth methods watched by `unbounded-growth`.
const GROW_METHODS: &[&str] =
    &["push", "push_back", "push_front", "extend", "extend_from_slice", "append", "insert"];

/// Methods that count as an observable bound on a collection.
const BOUND_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "truncate",
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "drain",
    "clear",
    "swap_remove",
    "split_off",
    "capacity",
];

/// What one function does with locks, calls, and I/O — the unit the
/// workspace-global pass joins over.
#[derive(Debug)]
pub struct FnSummary {
    /// Function name (unqualified).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Definition line.
    pub line: u32,
    /// Return type mentions `Result`.
    pub returns_result: bool,
    /// Locks acquired directly: `(lock_id, line)`.
    pub acquires: Vec<(String, u32)>,
    /// Acquisition-order edges observed directly:
    /// `(held, acquired, line)`.
    pub ordered: Vec<(String, String, u32)>,
    /// Callees (deduped): `(name, is_method)`.
    pub calls: Vec<(String, bool)>,
    /// Calls made while holding a lock:
    /// `(held_lock, callee, is_method, line)`.
    pub calls_holding: Vec<(String, String, bool, u32)>,
    /// Blocking I/O performed while holding a lock:
    /// `(lock, io_call, line)`.
    pub io_holding: Vec<(String, String, u32)>,
    /// Blocking I/O performed at all (deduped call names).
    pub io_calls: Vec<String>,
}

/// A `let _ = call(…)` site whose fallibility needs workspace
/// knowledge: resolved in [`global_pass`].
#[derive(Debug)]
pub struct DropCandidate {
    /// Workspace-relative file.
    pub file: String,
    /// Site line.
    pub line: u32,
    /// Callees in the discarded expression: `(name, is_method)`.
    pub calls: Vec<(String, bool)>,
}

/// One rule named by an `// nd-lint: allow(…)` comment outside test
/// items. It silences that rule's findings on the comment's line and
/// the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line of the comment.
    pub line: u32,
    /// The rule it names.
    pub rule: &'static str,
    /// It silenced a finding. [`file_flow`] marks the ones local
    /// findings use; [`suppress`] marks the rest as global findings use
    /// them.
    pub used: bool,
}

/// Whether some allow silences `f`; marks every one that does as used.
pub fn suppress(allows: &mut [Allow], f: &Finding) -> bool {
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
            a.used = true;
            hit = true;
        }
    }
    hit
}

/// Everything the per-file pass produces. A file's record depends
/// only on its own contents.
#[derive(Debug)]
pub struct FileFlow {
    /// Local findings of all eleven rules' per-file parts, suppressions
    /// already applied, sorted by line, rule and message.
    pub findings: Vec<Finding>,
    /// Per-function summaries for the global pass.
    pub summaries: Vec<FnSummary>,
    /// Unresolved `let _ =` sites.
    pub candidates: Vec<DropCandidate>,
    /// Inline suppressions, for the global findings that land in this
    /// file and for the unused-suppression report.
    pub allows: Vec<Allow>,
    /// Parser coverage: `(consumed, total)` significant tokens.
    pub coverage: (usize, usize),
}

/// The one per-file pass: lexes and parses `src` once, runs every
/// per-file rule that the scope of `rel` enables, then applies the
/// file's inline suppressions.
pub fn file_flow(rel: &str, src: &str) -> FileFlow {
    let scope = scope_for(rel);
    let (toks, comments) = ast::tokens(src);
    let (parsed, cov) = ast::parse_file(&toks);

    let mut fx = FileCx {
        rel,
        toks: &toks,
        scope,
        findings: Vec::new(),
        summaries: Vec::new(),
        candidates: Vec::new(),
        scratch: Vec::new(),
        for_iters: Vec::new(),
    };
    fx.walk_items(&parsed.items, None);
    let view = TokenView::new(&toks, &parsed.tests, &fx.scratch, &fx.for_iters);
    rules::token_rules(rel, scope, &view, &comments, &mut fx.findings);

    let in_test = |line: u32| {
        parsed.tests.iter().any(|&(lo, hi)| toks[lo].line <= line && line <= toks[hi - 1].line)
    };
    let mut allows: Vec<Allow> = Vec::new();
    for (line, text) in &comments {
        for rule in rules::allowed_rules(text) {
            let allow = Allow { line: *line, rule, used: false };
            if !in_test(*line) && !allows.contains(&allow) {
                allows.push(allow);
            }
        }
    }
    let mut findings = fx.findings;
    findings.retain(|f| !suppress(&mut allows, f));
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));

    FileFlow {
        findings,
        summaries: fx.summaries,
        candidates: fx.candidates,
        allows,
        coverage: (cov.consumed, cov.total),
    }
}

struct FileCx<'a> {
    rel: &'a str,
    toks: &'a [SigTok],
    scope: FileScope,
    findings: Vec<Finding>,
    summaries: Vec<FnSummary>,
    candidates: Vec<DropCandidate>,
    /// Token spans of `impl` blocks for `*Scratch` types
    /// (`hot-loop-alloc` exempts them).
    scratch: Vec<(usize, usize)>,
    /// The last token of each `for` loop's iterable
    /// (`nondet-hash-iter` checks it).
    for_iters: Vec<usize>,
}

impl<'a> FileCx<'a> {
    fn walk_items(&mut self, items: &[Item], self_ty: Option<&str>) {
        for item in items {
            if item.is_test {
                continue;
            }
            match &item.kind {
                ItemKind::Fn(f) => self.visit_fn(f, self_ty, item.line),
                ItemKind::Container { keyword, name, items } => {
                    let inner_ty =
                        if *keyword == "impl" { name.as_deref() } else { None };
                    if self.scope.hot_loop && inner_ty.is_some_and(|n| n.contains("Scratch")) {
                        self.scratch.push((item.lo, item.hi));
                    }
                    self.walk_items(items, inner_ty);
                }
                ItemKind::Other => {}
            }
        }
    }

    fn visit_fn(&mut self, f: &FnItem, self_ty: Option<&str>, line: u32) {
        let Some(body) = &f.body else { return };
        self.summarize(f, self_ty, line);
        if self.scope.determinism {
            let iters = &mut self.for_iters;
            walk_chains(body, &mut |chain| {
                chain.nested(&mut |s| {
                    if let StructKind::For { iter, .. } = &s.kind {
                        if iter.hi > iter.lo {
                            iters.push(iter.hi - 1);
                        }
                    }
                })
            });
        }
        if self.scope.error_flow {
            self.result_block(body);
        }
        if self.scope.fp_order {
            self.rule_fp_reduction(body);
        }
        if self.scope.growth {
            let mut scopes: Vec<GrowScope> = vec![GrowScope::default()];
            let evidence = self.bound_evidence(body);
            self.rule_growth_block(body, &mut scopes, &evidence);
        }
    }

    fn push(&mut self, rule: &'static str, line: u32, message: String) {
        self.findings.push(Finding {
            rule,
            file: self.rel.to_string(),
            line,
            message,
        });
    }

    // ---- summaries (locks / calls / io) --------------------------------

    fn summarize(&mut self, f: &FnItem, self_ty: Option<&str>, line: u32) {
        let Some(flow) = build_flow(f, self.toks, self_ty) else { return };
        let mut s = FnSummary {
            name: f.name.clone(),
            file: self.rel.to_string(),
            line,
            returns_result: f.returns_result,
            acquires: Vec::new(),
            ordered: Vec::new(),
            calls: Vec::new(),
            calls_holding: Vec::new(),
            io_holding: Vec::new(),
            io_calls: Vec::new(),
        };
        let mut calls_seen: BTreeSet<(String, bool)> = BTreeSet::new();
        let mut io_seen: BTreeSet<String> = BTreeSet::new();
        for blk in &flow.blocks {
            for u in &blk.units {
                let Unit::Eval(e) = *u else { continue };
                let ev = &flow.evals[e];
                let held = flow.held_locks(ev.held_before);
                let gens: Vec<(&str, usize, u32)> = ev
                    .gens
                    .iter()
                    .map(|&(g, tok)| {
                        (flow.guards[g].lock.as_str(), tok, flow.guards[g].line)
                    })
                    .collect();
                for &(lock, _, gline) in &gens {
                    s.acquires.push((lock.to_string(), gline));
                    for &h in &held {
                        s.ordered.push((h.to_string(), lock.to_string(), gline));
                    }
                }
                for (i, &(a, ta, _)) in gens.iter().enumerate() {
                    for &(b, tb, bline) in &gens[i + 1..] {
                        if ta < tb {
                            s.ordered.push((a.to_string(), b.to_string(), bline));
                        }
                    }
                }
                for c in find_calls(self.toks, &ev.toks) {
                    if GUARD_METHODS.contains(&c.name.as_str()) || c.name == "drop" {
                        continue;
                    }
                    if calls_seen.insert((c.name.clone(), c.is_method)) {
                        s.calls.push((c.name.clone(), c.is_method));
                    }
                    // Locks live at this call: held on entry plus any
                    // acquired earlier in the same statement.
                    let mut at_call: Vec<&str> = held.clone();
                    for &(lock, tok, _) in &gens {
                        if tok < c.tok {
                            at_call.push(lock);
                        }
                    }
                    at_call.sort_unstable();
                    at_call.dedup();
                    for &lock in &at_call {
                        s.calls_holding.push((
                            lock.to_string(),
                            c.name.clone(),
                            c.is_method,
                            c.line,
                        ));
                    }
                    if IO_CALLS.contains(&c.name.as_str()) {
                        if io_seen.insert(c.name.clone()) {
                            s.io_calls.push(c.name.clone());
                        }
                        for &lock in &at_call {
                            s.io_holding.push((
                                lock.to_string(),
                                c.name.clone(),
                                c.line,
                            ));
                        }
                    }
                }
            }
        }
        self.summaries.push(s);
    }

    // ---- result-dropped ------------------------------------------------

    fn result_block(&mut self, b: &Block) {
        let n = b.stmts.len();
        for (i, stmt) in b.stmts.iter().enumerate() {
            match &stmt.kind {
                StmtKind::Let(l) => {
                    if let Some(init) = &l.init {
                        if l.is_wild {
                            self.check_wild_let(init);
                        }
                        self.result_nested(init);
                    }
                    if let Some(els) = &l.else_block {
                        self.result_block(els);
                    }
                }
                StmtKind::Expr(chain) => {
                    // Dead `.ok();` — a value-position `.ok()` (last
                    // expression) is a conversion, not a drop.
                    if i + 1 < n {
                        self.check_ok_tail(chain);
                    }
                    self.result_nested(chain);
                }
                StmtKind::Item(item) => {
                    if let ItemKind::Fn(f) = &item.kind {
                        if let Some(inner) = &f.body {
                            if !item.is_test {
                                self.result_block(inner);
                            }
                        }
                    }
                }
                StmtKind::Empty => {}
            }
        }
    }

    fn result_nested(&mut self, chain: &Chain) {
        chain.nested(&mut |s| self.result_struct(s));
    }

    fn result_struct(&mut self, s: &StructExpr) {
        match &s.kind {
            StructKind::If { cond, then, els } => {
                self.result_nested(cond);
                self.result_block(then);
                if let Some(e) = els {
                    self.result_struct(e);
                }
            }
            StructKind::While { cond, body } => {
                self.result_nested(cond);
                self.result_block(body);
            }
            StructKind::For { iter, body, .. } => {
                self.result_nested(iter);
                self.result_block(body);
            }
            StructKind::Loop { body } => self.result_block(body),
            StructKind::Match { scrutinee, arms } => {
                self.result_nested(scrutinee);
                for arm in arms {
                    self.check_err_arm(arm);
                    self.result_nested(&arm.body);
                }
            }
            StructKind::Block { block, .. } => self.result_block(block),
        }
    }

    fn check_wild_let(&mut self, init: &Chain) {
        let mut flat = Vec::new();
        init.flat_tokens(&mut |i| flat.push(i));
        let calls = find_calls(self.toks, &flat);
        if calls.is_empty() {
            return;
        }
        let line = self.toks[flat[0]].line;
        if let Some(c) =
            calls.iter().find(|c| FALLIBLE_METHODS.contains(&c.name.as_str()))
        {
            self.push(
                "result-dropped",
                line,
                format!(
                    "`let _ =` discards the Result of `{}` — handle the error or match on it explicitly",
                    c.name
                ),
            );
            return;
        }
        // Workspace-defined callee? Resolved in the global pass.
        self.candidates.push(DropCandidate {
            file: self.rel.to_string(),
            line,
            calls: calls.into_iter().map(|c| (c.name, c.is_method)).collect(),
        });
    }

    fn check_ok_tail(&mut self, chain: &Chain) {
        let mut flat = Vec::new();
        chain.flat_tokens(&mut |i| flat.push(i));
        let n = flat.len();
        if n < 5 {
            return; // needs at least a call before the `.ok()`
        }
        let t = |w: usize| self.toks[flat[w]].text.as_str();
        if t(n - 4) == "." && t(n - 3) == "ok" && t(n - 2) == "(" && t(n - 1) == ")" {
            let has_call = find_calls(self.toks, &flat[..n - 4])
                .iter()
                .any(|c| !GUARD_METHODS.contains(&c.name.as_str()));
            if has_call {
                self.push(
                    "result-dropped",
                    self.toks[flat[0]].line,
                    "statement ends in `.ok()` — the error is silently discarded; handle it or `let _ =` with a justification".to_string(),
                );
            }
        }
    }

    fn check_err_arm(&mut self, arm: &Arm) {
        if !arm.pat_text.starts_with("Err") {
            return;
        }
        // A guard (`Err(e) if e.kind() == Interrupted => {}`) means the
        // author discriminated a specific error and chose to continue —
        // the EINTR-retry idiom, not swallowing.
        if arm.guard.is_some() {
            return;
        }
        let mut flat = Vec::new();
        arm.body.flat_tokens(&mut |i| flat.push(i));
        let texts: Vec<&str> =
            flat.iter().map(|&i| self.toks[i].text.as_str()).collect();
        let unit_body = texts == ["(", ")"];
        let mut empty_block = false;
        if texts.is_empty() {
            let mut blocks = 0usize;
            let mut empty = true;
            arm.body.nested(&mut |s| {
                blocks += 1;
                if let StructKind::Block { block, .. } = &s.kind {
                    if !block.stmts.is_empty() {
                        empty = false;
                    }
                } else {
                    empty = false;
                }
            });
            empty_block = blocks > 0 && empty;
        }
        if unit_body || empty_block {
            self.push(
                "result-dropped",
                arm.line,
                format!(
                    "`{} => {}` swallows the error — log, propagate, or count it",
                    arm.pat_text,
                    if unit_body { "()" } else { "{}" }
                ),
            );
        }
    }

    // ---- fp-reduction-order --------------------------------------------

    fn rule_fp_reduction(&mut self, body: &Block) {
        // Float-typed accumulators bound in this function.
        let mut accs: BTreeSet<String> = BTreeSet::new();
        collect_float_lets(self, body, &mut accs);
        self.fp_block(body, &accs, false);
    }

    fn fp_block(&mut self, b: &Block, accs: &BTreeSet<String>, in_chunk_loop: bool) {
        for stmt in &b.stmts {
            match &stmt.kind {
                StmtKind::Let(l) => {
                    if let Some(init) = &l.init {
                        self.fp_chain(init, accs, in_chunk_loop, Some(&l.ty_text));
                    }
                    if let Some(els) = &l.else_block {
                        self.fp_block(els, accs, in_chunk_loop);
                    }
                }
                StmtKind::Expr(chain) => {
                    self.fp_chain(chain, accs, in_chunk_loop, None);
                    if in_chunk_loop {
                        self.fp_accumulate(chain, accs);
                    }
                }
                StmtKind::Item(_) | StmtKind::Empty => {}
            }
        }
    }

    fn fp_chain(
        &mut self,
        chain: &Chain,
        accs: &BTreeSet<String>,
        in_chunk_loop: bool,
        let_ty: Option<&str>,
    ) {
        self.check_float_sum(chain, let_ty);
        chain.nested(&mut |s| self.fp_struct(s, accs, in_chunk_loop));
    }

    fn fp_struct(&mut self, s: &StructExpr, accs: &BTreeSet<String>, in_chunk: bool) {
        match &s.kind {
            StructKind::If { cond, then, els } => {
                self.fp_chain(cond, accs, in_chunk, None);
                self.fp_block(then, accs, in_chunk);
                if let Some(e) = els {
                    self.fp_struct(e, accs, in_chunk);
                }
            }
            StructKind::While { cond, body } => {
                self.fp_chain(cond, accs, in_chunk, None);
                self.fp_block(body, accs, in_chunk);
            }
            StructKind::For { iter, body, .. } => {
                self.fp_chain(iter, accs, in_chunk, None);
                let chunky = self.mentions_chunk_source(iter);
                self.fp_block(body, accs, in_chunk || chunky);
            }
            StructKind::Loop { body } => self.fp_block(body, accs, in_chunk),
            StructKind::Match { scrutinee, arms } => {
                self.fp_chain(scrutinee, accs, in_chunk, None);
                for arm in arms {
                    self.fp_chain(&arm.body, accs, in_chunk, None);
                }
            }
            StructKind::Block { block, .. } => self.fp_block(block, accs, in_chunk),
        }
    }

    fn mentions_chunk_source(&self, chain: &Chain) -> bool {
        let mut flat = Vec::new();
        chain.flat_tokens(&mut |i| flat.push(i));
        flat.windows(2).any(|w| {
            self.toks[w[0]].text == "."
                && CHUNK_SOURCES.contains(&self.toks[w[1]].text.as_str())
        })
    }

    /// `acc += …` / `acc = acc + …` where `acc` is float-typed, inside
    /// a loop over chunked data.
    fn fp_accumulate(&mut self, chain: &Chain, accs: &BTreeSet<String>) {
        let mut flat = Vec::new();
        chain.flat_tokens(&mut |i| flat.push(i));
        if flat.len() < 3 {
            return;
        }
        let t = |w: usize| self.toks[flat[w]].text.as_str();
        let name = t(0);
        if !accs.contains(name) {
            return;
        }
        let compound = t(1) == "+" && t(2) == "=";
        let rebind = flat.len() >= 4 && t(1) == "=" && t(2) == name && t(3) == "+";
        if compound || rebind {
            self.push(
                "fp-reduction-order",
                self.toks[flat[0]].line,
                format!(
                    "float accumulator `{name}` updated inside a loop over chunked data — reduction order is not fixed; use nd_par's in-order reduction or justify with `// nd-lint: allow(fp-reduction-order)`"
                ),
            );
        }
    }

    /// `.sum()` / `.product()` with float evidence in the statement.
    fn check_float_sum(&mut self, chain: &Chain, let_ty: Option<&str>) {
        let mut flat = Vec::new();
        chain.flat_tokens(&mut |i| flat.push(i));
        let float_stmt = flat.iter().any(|&i| is_float_token(&self.toks[i]))
            || let_ty.is_some_and(|t| t.contains("f32") || t.contains("f64"));
        if !float_stmt {
            return;
        }
        for w in 0..flat.len().saturating_sub(1) {
            if self.toks[flat[w]].text != "." {
                continue;
            }
            let name = self.toks[flat[w + 1]].text.as_str();
            if name != "sum" && name != "product" {
                continue;
            }
            // `.sum(` or `.sum::<f64>(` — anything else isn't a call.
            let after = flat.get(w + 2).map(|&i| self.toks[i].text.as_str());
            if !matches!(after, Some("(") | Some(":")) {
                continue;
            }
            self.push(
                "fp-reduction-order",
                self.toks[flat[w + 1]].line,
                format!(
                    "float `.{name}()` relies on iterator reduction order — use nd_par's in-order reduction (or an explicit serial loop with `// nd-lint: allow(fp-reduction-order)` justifying why order is fixed)"
                ),
            );
        }
    }

    // ---- unbounded-growth ----------------------------------------------

    /// Collection names with an observable bound somewhere in the
    /// function (`x.len()`, `x.pop()`, `x.truncate(n)`, …).
    fn bound_evidence(&self, body: &Block) -> BTreeSet<String> {
        let mut ev = BTreeSet::new();
        let mut visit = |chain: &Chain| {
            let mut flat = Vec::new();
            chain.flat_tokens(&mut |i| flat.push(i));
            for w in 0..flat.len().saturating_sub(2) {
                if self.toks[flat[w + 1]].text == "."
                    && self.toks[flat[w]].kind == TokKind::Ident
                    && BOUND_METHODS.contains(&self.toks[flat[w + 2]].text.as_str())
                {
                    ev.insert(self.toks[flat[w]].text.clone());
                }
            }
        };
        walk_chains(body, &mut visit);
        ev
    }

    fn rule_growth_block(
        &mut self,
        b: &Block,
        scopes: &mut Vec<GrowScope>,
        evidence: &BTreeSet<String>,
    ) {
        scopes.push(GrowScope::default());
        for stmt in &b.stmts {
            match &stmt.kind {
                StmtKind::Let(l) => {
                    if let Some(name) = &l.name {
                        scopes.last_mut().expect("scope pushed").names.insert(name.clone());
                    }
                    if let Some(init) = &l.init {
                        self.growth_nested(init, scopes, evidence);
                    }
                    if let Some(els) = &l.else_block {
                        self.rule_growth_block(els, scopes, evidence);
                    }
                }
                StmtKind::Expr(chain) => {
                    if in_loop(scopes) {
                        self.check_growth_site(chain, scopes, evidence);
                    }
                    self.growth_nested(chain, scopes, evidence);
                }
                StmtKind::Item(_) | StmtKind::Empty => {}
            }
        }
        scopes.pop();
    }

    fn growth_nested(
        &mut self,
        chain: &Chain,
        scopes: &mut Vec<GrowScope>,
        evidence: &BTreeSet<String>,
    ) {
        chain.nested(&mut |s| self.growth_struct(s, scopes, evidence));
    }

    fn growth_struct(
        &mut self,
        s: &StructExpr,
        scopes: &mut Vec<GrowScope>,
        evidence: &BTreeSet<String>,
    ) {
        match &s.kind {
            StructKind::If { cond, then, els } => {
                self.growth_nested(cond, scopes, evidence);
                self.rule_growth_block(then, scopes, evidence);
                if let Some(e) = els {
                    self.growth_struct(e, scopes, evidence);
                }
            }
            StructKind::While { cond, body } => {
                self.growth_nested(cond, scopes, evidence);
                scopes.push(GrowScope { unbounded_loop: true, names: BTreeSet::new() });
                self.rule_growth_block(body, scopes, evidence);
                scopes.pop();
            }
            StructKind::For { pat_text, iter, body } => {
                self.growth_nested(iter, scopes, evidence);
                // A `for` loop iterates a finite collection: growth in
                // its body is bounded by the input size, so it opens a
                // scope (for per-iteration names) but not an unbounded
                // iteration context.
                let mut sc = GrowScope { unbounded_loop: false, names: BTreeSet::new() };
                // The loop variable is per-iteration state.
                for part in pat_text.split(|c: char| !c.is_alphanumeric() && c != '_') {
                    if !part.is_empty() {
                        sc.names.insert(part.to_string());
                    }
                }
                scopes.push(sc);
                self.rule_growth_block(body, scopes, evidence);
                scopes.pop();
            }
            StructKind::Loop { body } => {
                scopes.push(GrowScope { unbounded_loop: true, names: BTreeSet::new() });
                self.rule_growth_block(body, scopes, evidence);
                scopes.pop();
            }
            StructKind::Match { scrutinee, arms } => {
                self.growth_nested(scrutinee, scopes, evidence);
                for arm in arms {
                    if in_loop(scopes) {
                        self.check_growth_site(&arm.body, scopes, evidence);
                    }
                    self.growth_nested(&arm.body, scopes, evidence);
                }
            }
            StructKind::Block { block, .. } => {
                self.rule_growth_block(block, scopes, evidence)
            }
        }
    }

    fn check_growth_site(
        &mut self,
        chain: &Chain,
        scopes: &[GrowScope],
        evidence: &BTreeSet<String>,
    ) {
        let mut flat = Vec::new();
        chain.flat_tokens(&mut |i| flat.push(i));
        for w in 0..flat.len().saturating_sub(3) {
            if self.toks[flat[w + 1]].text != "."
                || self.toks[flat[w]].kind != TokKind::Ident
            {
                continue;
            }
            let method = self.toks[flat[w + 2]].text.as_str();
            if !GROW_METHODS.contains(&method)
                || self.toks[flat[w + 3]].text != "("
            {
                continue;
            }
            let base = self.toks[flat[w]].text.as_str();
            if base == "self" {
                continue; // handled via the field name token instead
            }
            if evidence.contains(base) {
                continue;
            }
            if defined_inside_loop(scopes, base) {
                continue; // reset every iteration — bounded per pass
            }
            self.push(
                "unbounded-growth",
                self.toks[flat[w + 2]].line,
                format!(
                    "`{base}.{method}(…)` grows inside an unbounded `while`/`loop` with no observable bound on `{base}` in this function (no len check / truncate / pop / drain)"
                ),
            );
        }
    }
}

#[derive(Debug, Default)]
struct GrowScope {
    /// Opened by `while`/`loop` — iteration count not tied to any
    /// finite input. `for` scopes carry names only.
    unbounded_loop: bool,
    names: BTreeSet<String>,
}

fn in_loop(scopes: &[GrowScope]) -> bool {
    scopes.iter().any(|s| s.unbounded_loop)
}

/// Is `name` bound at or inside the outermost live unbounded loop?
/// Then it is per-iteration state of some enclosing loop, not
/// unbounded growth.
fn defined_inside_loop(scopes: &[GrowScope], name: &str) -> bool {
    let Some(outer) = scopes.iter().position(|s| s.unbounded_loop) else {
        return false;
    };
    scopes[outer..].iter().any(|s| s.names.contains(name))
}

fn is_float_token(t: &SigTok) -> bool {
    match t.kind {
        TokKind::NumLit => {
            t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64")
        }
        TokKind::Ident => t.text == "f32" || t.text == "f64",
        _ => false,
    }
}

fn collect_float_lets(cx: &FileCx<'_>, b: &Block, out: &mut BTreeSet<String>) {
    for stmt in &b.stmts {
        match &stmt.kind {
            StmtKind::Let(l) => {
                if let Some(name) = &l.name {
                    let ty_float =
                        l.ty_text.contains("f32") || l.ty_text.contains("f64");
                    let init_float = l.init.as_ref().is_some_and(|init| {
                        let mut any = false;
                        init.flat_tokens(&mut |i| any |= is_float_token(&cx.toks[i]));
                        any
                    });
                    if ty_float || init_float {
                        out.insert(name.clone());
                    }
                }
                if let Some(init) = &l.init {
                    each_nested_block(init, &mut |blk| collect_float_lets(cx, blk, out));
                }
                if let Some(els) = &l.else_block {
                    collect_float_lets(cx, els, out);
                }
            }
            StmtKind::Expr(chain) => {
                each_nested_block(chain, &mut |blk| collect_float_lets(cx, blk, out));
            }
            StmtKind::Item(_) | StmtKind::Empty => {}
        }
    }
}

/// Invokes `f` on the outermost blocks of the structured expressions
/// nested in `chain`; `f` recurses for the blocks inside those.
fn each_nested_block(chain: &Chain, f: &mut impl FnMut(&Block)) {
    chain.nested(&mut |s| each_struct_block(s, f));
}

fn each_struct_block(s: &StructExpr, f: &mut impl FnMut(&Block)) {
    match &s.kind {
        StructKind::If { cond, then, els } => {
            each_nested_block(cond, f);
            f(then);
            if let Some(e) = els {
                each_struct_block(e, f);
            }
        }
        StructKind::While { cond, body } => {
            each_nested_block(cond, f);
            f(body);
        }
        StructKind::For { iter, body, .. } => {
            each_nested_block(iter, f);
            f(body);
        }
        StructKind::Loop { body } => f(body),
        StructKind::Match { scrutinee, arms } => {
            each_nested_block(scrutinee, f);
            for arm in arms {
                each_nested_block(&arm.body, f);
            }
        }
        StructKind::Block { block, .. } => f(block),
    }
}

/// Invokes `visit` on every chain in the function body, recursing
/// through nested structured expressions.
fn walk_chains(b: &Block, visit: &mut impl FnMut(&Chain)) {
    for stmt in &b.stmts {
        match &stmt.kind {
            StmtKind::Let(l) => {
                if let Some(init) = &l.init {
                    walk_chain(init, visit);
                }
                if let Some(els) = &l.else_block {
                    walk_chains(els, visit);
                }
            }
            StmtKind::Expr(chain) => walk_chain(chain, visit),
            StmtKind::Item(item) => {
                if let ItemKind::Fn(f) = &item.kind {
                    if let Some(inner) = &f.body {
                        walk_chains(inner, visit);
                    }
                }
            }
            StmtKind::Empty => {}
        }
    }
}

fn walk_chain(chain: &Chain, visit: &mut impl FnMut(&Chain)) {
    visit(chain);
    chain.nested(&mut |s| walk_struct_chains(s, visit));
}

fn walk_struct_chains(s: &StructExpr, visit: &mut impl FnMut(&Chain)) {
    match &s.kind {
        StructKind::If { cond, then, els } => {
            walk_chain(cond, visit);
            walk_chains(then, visit);
            if let Some(e) = els {
                walk_struct_chains(e, visit);
            }
        }
        StructKind::While { cond, body } => {
            walk_chain(cond, visit);
            walk_chains(body, visit);
        }
        StructKind::For { iter, body, .. } => {
            walk_chain(iter, visit);
            walk_chains(body, visit);
        }
        StructKind::Loop { body } => walk_chains(body, visit),
        StructKind::Match { scrutinee, arms } => {
            walk_chain(scrutinee, visit);
            for arm in arms {
                walk_chain(&arm.body, visit);
            }
        }
        StructKind::Block { block, .. } => walk_chains(block, visit),
    }
}

// ---- global pass -------------------------------------------------------

/// Joins per-file summaries into workspace-global findings:
/// lock-order cycles, I/O (direct or transitive) under a live guard in
/// the serve path, and `let _ =` drops of workspace `Result` fns.
/// Sorted and deduplicated, not yet suppressed: the caller applies the
/// [`Allow`]s of each finding's file with [`suppress`].
pub fn global_pass(files: &[&FileFlow]) -> Vec<Finding> {
    let summaries: Vec<&FnSummary> =
        files.iter().flat_map(|f| f.summaries.iter()).collect();
    let mut findings = Vec::new();

    // -- call resolution --------------------------------------------------
    // Free calls resolve to every same-named fn; method calls only when
    // the name is unique in the workspace (receiver types are unknown)
    // AND not a std-prelude method name — `x.drain(..)` is `Vec::drain`
    // even if the workspace defines exactly one fn called `drain`.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in summaries.iter().enumerate() {
        by_name.entry(s.name.as_str()).or_default().push(i);
    }
    let resolve = |name: &str, is_method: bool| -> &[usize] {
        if is_method && STD_METHODS.contains(&name) {
            return &[];
        }
        match by_name.get(name) {
            Some(v) if !is_method || v.len() == 1 => v,
            _ => &[],
        }
    };

    // -- result-dropped resolution ----------------------------------------
    for file in files {
        for cand in &file.candidates {
            if let Some((name, _)) = cand.calls.iter().find(|(name, is_method)| {
                resolve(name, *is_method).iter().any(|&j| summaries[j].returns_result)
            }) {
                findings.push(Finding {
                    rule: "result-dropped",
                    file: cand.file.clone(),
                    line: cand.line,
                    message: format!(
                        "`let _ =` discards the Result of `{name}` (declared fallible in this workspace) — handle the error or match on it explicitly"
                    ),
                });
            }
        }
    }

    // -- acquired-locks and does-io closures over the call graph ---------
    let n = summaries.len();
    let mut lock_closure: Vec<BTreeSet<String>> = summaries
        .iter()
        .map(|s| s.acquires.iter().map(|(l, _)| l.clone()).collect())
        .collect();
    let mut io_closure: Vec<BTreeSet<String>> = summaries
        .iter()
        .map(|s| {
            s.io_calls
                .iter()
                .filter(|c| c.as_str() != TRANSITIVE_EXCEPT)
                .cloned()
                .collect()
        })
        .collect();
    for _ in 0..20 {
        let mut changed = false;
        for i in 0..n {
            for (callee, is_method) in summaries[i].calls.clone() {
                for &j in resolve(&callee, is_method) {
                    if i == j {
                        continue;
                    }
                    let (locks, ios) =
                        (lock_closure[j].clone(), io_closure[j].clone());
                    for l in locks {
                        changed |= lock_closure[i].insert(l);
                    }
                    for c in ios {
                        changed |= io_closure[i].insert(c);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // -- lock-order edges -------------------------------------------------
    // (held, acquired) → first witness site, smallest (file, line).
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut add_edge = |a: &str, b: &str, file: &str, line: u32, via: String| {
        let key = (a.to_string(), b.to_string());
        let val = (file.to_string(), line, via);
        match edges.get(&key) {
            Some(old) if (&old.0, old.1) <= (&val.0, val.1) => {}
            _ => {
                edges.insert(key, val);
            }
        }
    };
    for s in &summaries {
        for (held, acq, line) in &s.ordered {
            add_edge(held, acq, &s.file, *line, format!("in `{}`", s.name));
        }
        for (held, callee, is_method, line) in &s.calls_holding {
            for &j in resolve(callee, *is_method) {
                let locks = lock_closure[j].clone();
                for lock in locks {
                    add_edge(
                        held,
                        &lock,
                        &s.file,
                        *line,
                        format!("via call to `{callee}` from `{}`", s.name),
                    );
                }
            }
        }
    }

    // -- cycles -----------------------------------------------------------
    findings.extend(lock_cycles(&edges));

    // -- I/O under a live guard (serve path) ------------------------------
    for s in &summaries {
        if !scope_for(&s.file).lock_check {
            continue;
        }
        for (lock, io, line) in &s.io_holding {
            findings.push(Finding {
                rule: "lock-order",
                file: s.file.clone(),
                line: *line,
                message: format!(
                    "blocking call `{io}` while holding lock `{lock}` — release the guard (inner scope or explicit drop) before I/O"
                ),
            });
        }
        for (lock, callee, is_method, line) in &s.calls_holding {
            for &j in resolve(callee, *is_method) {
                if let Some(io) = io_closure[j].iter().next() {
                    findings.push(Finding {
                        rule: "lock-order",
                        file: s.file.clone(),
                        line: *line,
                        message: format!(
                            "call to `{callee}` performs blocking I/O (`{io}`) while lock `{lock}` is held — release the guard first"
                        ),
                    });
                }
            }
        }
    }

    // Dedup + deterministic order.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Finds cycles in the lock-order graph; one finding per cycle,
/// anchored at the smallest witness site.
fn lock_cycles(
    edges: &BTreeMap<(String, String), (String, u32, String)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Self-loops: re-acquiring a lock already held always deadlocks a
    // Mutex (and can deadlock an RwLock through a queued writer).
    for ((a, b), (file, line, via)) in edges {
        if a == b {
            findings.push(Finding {
                rule: "lock-order",
                file: file.clone(),
                line: *line,
                message: format!(
                    "lock `{a}` may be acquired while already held ({via}) — self-deadlock"
                ),
            });
        }
    }

    // Proper cycles: SCCs of size ≥ 2 over the edge relation.
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let nodes: Vec<&str> = nodes.into_iter().collect();
    let index: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        if a != b {
            adj[index[a.as_str()]].push(index[b.as_str()]);
        }
    }
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&i| nodes[i]).collect();
        names.sort_unstable();
        // Witness: the smallest-sited edge inside the component.
        let member: BTreeSet<&str> = names.iter().copied().collect();
        let mut cyc_edges: Vec<_> = edges
            .iter()
            .filter(|((a, b), _)| {
                a != b && member.contains(a.as_str()) && member.contains(b.as_str())
            })
            .collect();
        cyc_edges.sort_by_key(|(_, (file, line, _))| (file.clone(), *line));
        let detail: Vec<String> = cyc_edges
            .iter()
            .take(4)
            .map(|((a, b), (file, line, _))| format!("{a}→{b} at {file}:{line}"))
            .collect();
        let (file, line) = cyc_edges
            .first()
            .map(|(_, (f, l, _))| (f.clone(), *l))
            .unwrap_or_default();
        findings.push(Finding {
            rule: "lock-order",
            file,
            line,
            message: format!(
                "potential deadlock: locks {{{}}} form an acquisition cycle ({})",
                names.join(", "),
                detail.join("; ")
            ),
        });
    }
    findings
}

/// Tarjan's strongly-connected components, iterative, deterministic
/// (nodes visited in index order, which is sorted lock-name order).
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS: (node, child-iterator position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_under(rel: &str, src: &str) -> FileFlow {
        file_flow(rel, src)
    }

    const SERVE: &str = "crates/serve/src/fixture.rs";
    const STORE: &str = "crates/store/src/fixture.rs";
    const KERNEL: &str = "crates/neural/src/fixture.rs";

    #[test]
    fn result_dropped_let_wild_fallible_method() {
        let f = flow_under(
            SERVE,
            "fn f(tx: &Sender<u32>) { let _ = tx.send(1); }",
        );
        assert_eq!(f.findings.len(), 1, "{:?}", f.findings);
        assert_eq!(f.findings[0].rule, "result-dropped");
    }

    #[test]
    fn result_dropped_macro_write_is_fine() {
        let f = flow_under(
            SERVE,
            "fn f(buf: &mut String) { let _ = writeln!(buf, \"x\"); }",
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
        assert!(f.candidates.is_empty(), "macros are not calls");
    }

    #[test]
    fn result_dropped_empty_err_arm() {
        let f = flow_under(
            STORE,
            "fn f(r: Result<u32, E>) { match r { Ok(v) => use_it(v), Err(_) => {} } }",
        );
        assert_eq!(f.findings.len(), 1, "{:?}", f.findings);
        assert!(f.findings[0].message.contains("swallows"));
    }

    #[test]
    fn result_dropped_handled_err_arm_is_fine() {
        let f = flow_under(
            STORE,
            "fn f(r: Result<u32, E>) { match r { Ok(v) => use_it(v), Err(e) => log(e) } }",
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn result_dropped_dead_ok_tail() {
        let f = flow_under(
            SERVE,
            "fn f(s: &mut TcpStream) { s.set_nodelay(true).ok(); after(); }",
        );
        assert!(
            f.findings.iter().any(|x| x.message.contains(".ok()")),
            "{:?}",
            f.findings
        );
    }

    #[test]
    fn result_dropped_value_position_ok_is_fine() {
        let f = flow_under(
            SERVE,
            "fn f(s: &str) -> Option<u32> { s.parse::<u32>().ok() }",
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn result_dropped_workspace_fn_resolves_globally() {
        let lib = flow_under(STORE, "pub fn persist_thing() -> Result<(), E> { Ok(()) }");
        let user = flow_under(SERVE, "fn f() { let _ = persist_thing(); }");
        let findings = global_pass(&[&lib, &user]);
        assert!(
            findings.iter().any(|f| f.rule == "result-dropped"
                && f.message.contains("persist_thing")),
            "{findings:?}"
        );
    }

    #[test]
    fn fp_sum_with_floats_flagged_ints_fine() {
        let f = flow_under(
            KERNEL,
            "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }",
        );
        assert_eq!(f.findings.len(), 1, "{:?}", f.findings);
        assert_eq!(f.findings[0].rule, "fp-reduction-order");
        let ints = flow_under(
            KERNEL,
            "fn f(xs: &[usize]) -> usize { xs.iter().sum::<usize>() }",
        );
        assert!(ints.findings.is_empty(), "{:?}", ints.findings);
    }

    #[test]
    fn fp_accumulator_over_chunks_flagged() {
        let f = flow_under(
            KERNEL,
            r#"
            fn f(xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                for chunk in xs.chunks(64) {
                    acc += chunk[0];
                }
                acc
            }
            "#,
        );
        assert!(
            f.findings.iter().any(|x| x.rule == "fp-reduction-order"
                && x.message.contains("acc")),
            "{:?}",
            f.findings
        );
    }

    #[test]
    fn fp_accumulator_plain_loop_is_fine() {
        let f = flow_under(
            KERNEL,
            r#"
            fn f(xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                for x in xs.iter() {
                    acc += x;
                }
                acc
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn fp_allow_comment_suppresses() {
        let f = flow_under(
            KERNEL,
            r#"
            fn f(xs: &[f64]) -> f64 {
                // nd-lint: allow(fp-reduction-order) — serial, fixed order
                xs.iter().sum::<f64>()
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn growth_unbounded_push_in_loop_flagged() {
        let f = flow_under(
            SERVE,
            r#"
            fn f(rx: &Receiver<u32>) {
                let mut backlog = Vec::new();
                loop {
                    let Ok(item) = rx.recv() else { return };
                    backlog.push(item);
                }
            }
            "#,
        );
        assert_eq!(f.findings.len(), 1, "{:?}", f.findings);
        assert_eq!(f.findings[0].rule, "unbounded-growth");
    }

    #[test]
    fn growth_bounded_by_len_check_is_fine() {
        let f = flow_under(
            SERVE,
            r#"
            fn f(rx: &Receiver<u32>) {
                let mut backlog = Vec::new();
                loop {
                    let Ok(item) = rx.recv() else { return };
                    if backlog.len() < MAX {
                        backlog.push(item);
                    }
                }
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn growth_per_iteration_local_is_fine() {
        let f = flow_under(
            SERVE,
            r#"
            fn f(reqs: &[Req]) {
                for r in reqs {
                    let mut line = Vec::new();
                    line.push(r.id);
                    emit(line);
                }
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
    }

    #[test]
    fn lock_order_cycle_across_functions() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn ab(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.b.lock().unwrap();
                    use_them(g, h);
                }
                fn ba(&self) {
                    let h = self.b.lock().unwrap();
                    let g = self.a.lock().unwrap();
                    use_them(g, h);
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(
            findings.iter().any(|f| f.rule == "lock-order"
                && f.message.contains("acquisition cycle")),
            "{findings:?}"
        );
    }

    #[test]
    fn lock_order_consistent_order_is_fine() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn ab(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.b.lock().unwrap();
                    use_them(g, h);
                }
                fn ab2(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.b.lock().unwrap();
                    other(g, h);
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_order_cycle_through_call_graph() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn outer(&self) {
                    let g = self.a.lock().unwrap();
                    self.helper_b();
                    use_it(g);
                }
                fn helper_b(&self) {
                    let h = self.b.lock().unwrap();
                    use_it(h);
                }
                fn other(&self) {
                    let h = self.b.lock().unwrap();
                    let g = self.a.lock().unwrap();
                    use_them(g, h);
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(
            findings.iter().any(|f| f.message.contains("acquisition cycle")),
            "{findings:?}"
        );
    }

    #[test]
    fn lock_reacquire_is_self_deadlock() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn f(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.a.lock().unwrap();
                    use_them(g, h);
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(
            findings.iter().any(|f| f.message.contains("self-deadlock")),
            "{findings:?}"
        );
    }

    #[test]
    fn io_under_guard_direct_and_transitive() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn direct(&self, out: &mut TcpStream) {
                    let g = self.state.lock().unwrap();
                    out.write_all(g.bytes()).unwrap();
                }
                fn indirect(&self, out: &mut TcpStream) {
                    let g = self.state.lock().unwrap();
                    self.do_send(out);
                    use_it(g);
                }
                fn do_send(&self, out: &mut TcpStream) {
                    out.write_all(b"x").unwrap();
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        let direct = findings
            .iter()
            .any(|f| f.message.contains("blocking call `write_all`"));
        let transitive =
            findings.iter().any(|f| f.message.contains("call to `do_send`"));
        assert!(direct, "{findings:?}");
        assert!(transitive, "{findings:?}");
    }

    #[test]
    fn io_after_guard_dropped_is_fine() {
        let a = flow_under(
            SERVE,
            r#"
            impl S {
                fn f(&self, out: &mut TcpStream) {
                    let bytes = { let g = self.state.lock().unwrap(); g.bytes() };
                    out.write_all(&bytes).unwrap();
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn kernel_lock_cycles_found_outside_serve() {
        // Cycle detection is workspace-wide even though the I/O rule
        // is serve-scoped.
        let a = flow_under(
            "crates/store/src/fixture.rs",
            r#"
            impl S {
                fn ab(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.b.lock().unwrap();
                    use_them(g, h);
                }
                fn ba(&self) {
                    let h = self.b.lock().unwrap();
                    let g = self.a.lock().unwrap();
                    use_them(g, h);
                }
            }
            "#,
        );
        let findings = global_pass(&[&a]);
        assert!(
            findings.iter().any(|f| f.message.contains("acquisition cycle")),
            "{findings:?}"
        );
    }

    #[test]
    fn test_items_do_not_contribute_summaries() {
        let f = flow_under(
            SERVE,
            r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let _ = tx.send(1); }
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
        assert!(f.summaries.is_empty());
    }

    #[test]
    fn items_built_outside_tests_are_linted() {
        let time = "fn f() { let t = Instant::now(); }";
        let sum = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        for (src, rule) in [(time, "nondet-time"), (sum, "fp-reduction-order")] {
            for attr in ["#[cfg(not(test))]", "#[cfg(any(test, feature = \"x\"))]"] {
                let f = flow_under(KERNEL, &format!("{attr} {src}"));
                let rules: Vec<&str> = f.findings.iter().map(|x| x.rule).collect();
                assert_eq!(rules, [rule], "{attr} {src}");
            }
            let f = flow_under(KERNEL, &format!("#[cfg(all(test, unix))] {src}"));
            assert!(f.findings.is_empty(), "{:?}", f.findings);
        }
    }

    #[test]
    fn allows_record_whether_they_silenced_a_local_finding() {
        let f = flow_under(
            KERNEL,
            r#"
            fn f(xs: &[f64]) -> f64 {
                // nd-lint: allow(fp-reduction-order, panic-path, no-such-rule)
                xs.iter().sum::<f64>()
            }
            #[cfg(test)]
            mod tests {
                // nd-lint: allow(fp-reduction-order)
                fn t() {}
            }
            "#,
        );
        assert!(f.findings.is_empty(), "{:?}", f.findings);
        let allows: Vec<(u32, &str, bool)> =
            f.allows.iter().map(|a| (a.line, a.rule, a.used)).collect();
        assert_eq!(allows, [(3, "fp-reduction-order", true), (3, "panic-path", false)]);
    }

    #[test]
    fn suppress_marks_every_allow_covering_the_finding() {
        let mut allows = vec![
            Allow { line: 4, rule: "lock-order", used: false },
            Allow { line: 5, rule: "lock-order", used: false },
            Allow { line: 5, rule: "result-dropped", used: false },
        ];
        let f = Finding {
            rule: "lock-order",
            file: SERVE.to_string(),
            line: 5,
            message: String::new(),
        };
        assert!(suppress(&mut allows, &f));
        let used: Vec<bool> = allows.iter().map(|a| a.used).collect();
        assert_eq!(used, [true, true, false]);
        let other = Finding { line: 7, ..f };
        assert!(!suppress(&mut allows, &other));
    }

    #[test]
    fn coverage_reported() {
        let f = flow_under(SERVE, "fn f() { g(1); }");
        assert_eq!(f.coverage.0, f.coverage.1);
        assert!(f.coverage.1 > 0);
    }
}
