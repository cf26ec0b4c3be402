//! A lightweight recursive-descent parser over the lossless lexer.
//!
//! Every per-file rule reads this module's output. The token rules in
//! [`crate::rules`] read the significant tokens outside test items
//! ([`AstFile::tests`] marks them); the flow rules in [`crate::flow`]
//! need *structure*: which calls happen inside which loop, which guard
//! is live on which path, which function a `let _ =` discards. This
//! module turns the significant token stream into an
//! item/statement/expression tree that is exact where the rules need
//! precision (items, blocks, `if`/`match`/loop structure, `let`
//! bindings) and deliberately flat where they do not (expression
//! "chains" keep operands as raw token runs).
//!
//! Two properties the rest of the analyzer leans on:
//!
//! 1. **Total coverage.** The parser consumes tokens strictly left to
//!    right through a single `Parser::bump`; every significant token
//!    lands in exactly one node. [`Coverage`] records the guarantee
//!    and the round-trip test in `tests/ast_roundtrip.rs` asserts it
//!    over every file in the workspace — there are no silent skip
//!    regions where a rule could be blind.
//! 2. **Never fails.** Unknown constructs degrade to flat token runs
//!    ([`Part::Tok`]) instead of errors, the same recovery philosophy
//!    as the lexer: rules act only on shapes they recognize.

use crate::lexer::{lex, TokKind};

/// A significant token: text, kind, and 1-based line, with whitespace
/// and comments already filtered out.
#[derive(Debug, Clone)]
pub struct SigTok {
    /// Exact source text.
    pub text: String,
    /// Token class from the lexer.
    pub kind: TokKind,
    /// 1-based source line of the first byte.
    pub line: u32,
}

/// Lexes `src` once and splits it into its significant tokens and its
/// comments as `(line, text)` pairs (for `SAFETY:` and suppression
/// lookups). Whitespace is dropped.
pub fn tokens(src: &str) -> (Vec<SigTok>, Vec<(u32, String)>) {
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    for t in lex(src) {
        match t.kind {
            TokKind::Whitespace => {}
            TokKind::LineComment | TokKind::BlockComment => comments.push((t.line, t.text)),
            kind => toks.push(SigTok { text: t.text, kind, line: t.line }),
        }
    }
    (toks, comments)
}

/// One parsed file: a flat list of top-level items.
#[derive(Debug)]
pub struct AstFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Token spans `[lo, hi)` of every test-only item, nested ones
    /// included (attributes count as part of the item).
    pub tests: Vec<(usize, usize)>,
}

/// Proof object for the total-coverage guarantee: how many significant
/// tokens the file has and how many the parser consumed (always equal
/// by construction; the round-trip test re-checks it).
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// Significant tokens in the file.
    pub total: usize,
    /// Tokens consumed into the tree.
    pub consumed: usize,
}

/// A top-level or nested item with its token span `[lo, hi)`.
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// First token index.
    pub lo: usize,
    /// One past the last token index.
    pub hi: usize,
    /// Line of the first token.
    pub line: u32,
    /// Test-only: annotated `#[test]`, `#[cfg(test)]`, or
    /// `#[cfg(all(…, test, …))]` (rules skip the subtree).
    pub is_test: bool,
}

/// Item flavors the rules distinguish.
#[derive(Debug)]
pub enum ItemKind {
    /// A function with an optional body.
    Fn(FnItem),
    /// `impl` / `trait` / `mod` — a named container of nested items.
    Container {
        /// `impl`, `trait`, or `mod`.
        keyword: &'static str,
        /// Self type (impl), trait name, or module name.
        name: Option<String>,
        /// Nested items (empty for `mod x;`).
        items: Vec<Item>,
    },
    /// Everything else (`struct`, `use`, `static`, …) — opaque.
    Other,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Flattened return-type text (empty when none), e.g.
    /// `Result < Vec < f64 > , ServeError >`.
    pub ret_text: String,
    /// Return type mentions `Result`.
    pub returns_result: bool,
    /// Body, or `None` for declarations (`fn f();` in traits).
    pub body: Option<Block>,
}

/// `{ … }` — a sequence of statements.
#[derive(Debug)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Token index of the opening brace.
    pub lo: usize,
    /// One past the closing brace.
    pub hi: usize,
    /// Line of the opening brace.
    pub line: u32,
}

/// One statement.
#[derive(Debug)]
pub struct Stmt {
    /// Statement flavor.
    pub kind: StmtKind,
    /// First token index.
    pub lo: usize,
    /// One past the last token.
    pub hi: usize,
    /// Line of the first token.
    pub line: u32,
}

/// Statement flavors.
#[derive(Debug)]
pub enum StmtKind {
    /// `let pat [: ty] [= init] [else { … }];`
    Let(LetStmt),
    /// Expression statement (with or without trailing `;`).
    Expr(Chain),
    /// A nested item (`fn`, `use`, `const`, …).
    Item(Box<Item>),
    /// A bare `;`.
    Empty,
}

/// A `let` statement, decomposed.
#[derive(Debug)]
pub struct LetStmt {
    /// Bound name for simple patterns (`let [mut|ref] name …`),
    /// `None` for destructuring.
    pub name: Option<String>,
    /// The pattern is exactly `_`.
    pub is_wild: bool,
    /// Flattened type-annotation text (empty when none).
    pub ty_text: String,
    /// Initializer expression.
    pub init: Option<Chain>,
    /// `let … else { … }` diverging block.
    pub else_block: Option<Block>,
}

/// A flat expression: a run of parts in source order. Operators,
/// operands, and paths stay as raw tokens; parenthesized groups nest;
/// control-flow constructs embed as [`Part::Nested`].
#[derive(Debug)]
pub struct Chain {
    /// Parts in source order.
    pub parts: Vec<Part>,
    /// First token index (`== hi` for an empty chain).
    pub lo: usize,
    /// One past the last token.
    pub hi: usize,
    /// Line of the first token.
    pub line: u32,
}

/// One element of a [`Chain`].
#[derive(Debug)]
pub enum Part {
    /// A single significant token (index into the token slice).
    Tok(usize),
    /// `( … )` or `[ … ]` including both delimiters.
    Group {
        /// Opening delimiter token index.
        open: usize,
        /// Contents.
        parts: Vec<Part>,
        /// Closing delimiter token index (== `open` when unterminated).
        close: usize,
    },
    /// An embedded structured expression (`if`, `match`, a block, …).
    Nested(Box<StructExpr>),
}

/// A structured (control-flow) expression.
#[derive(Debug)]
pub struct StructExpr {
    /// Which construct.
    pub kind: StructKind,
    /// First token index.
    pub lo: usize,
    /// One past the last token.
    pub hi: usize,
    /// Line of the first token.
    pub line: u32,
}

/// Structured expression flavors.
#[derive(Debug)]
pub enum StructKind {
    /// `if cond { … } [else …]` (covers `if let`).
    If {
        /// Condition (struct literals cannot appear bare here, so the
        /// body brace is unambiguous).
        cond: Chain,
        /// Then-block.
        then: Block,
        /// `else` block or chained `else if`.
        els: Option<Box<StructExpr>>,
    },
    /// `while cond { … }` (covers `while let`).
    While {
        /// Condition.
        cond: Chain,
        /// Loop body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    For {
        /// Flattened pattern text.
        pat_text: String,
        /// Iterated expression.
        iter: Chain,
        /// Loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop {
        /// Loop body.
        body: Block,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinized expression.
        scrutinee: Chain,
        /// Match arms.
        arms: Vec<Arm>,
    },
    /// A bare or `unsafe` block (also absorbs struct literals and
    /// macro braces — harmless over-approximation).
    Block {
        /// The block.
        block: Block,
        /// Preceded by `unsafe`.
        is_unsafe: bool,
    },
}

/// One `pat [if guard] => body` match arm.
#[derive(Debug)]
pub struct Arm {
    /// Flattened pattern text, e.g. `Err ( _ )`.
    pub pat_text: String,
    /// Guard expression after `if`.
    pub guard: Option<Chain>,
    /// Arm body (a block body arrives as a one-part chain).
    pub body: Chain,
    /// Line of the pattern's first token.
    pub line: u32,
}

impl Chain {
    /// Visits every token index in this chain, recursing into groups
    /// but **not** into nested structured expressions (those are
    /// separate evaluation units).
    pub fn flat_tokens(&self, f: &mut impl FnMut(usize)) {
        fn walk(parts: &[Part], f: &mut impl FnMut(usize)) {
            for p in parts {
                match p {
                    Part::Tok(i) => f(*i),
                    Part::Group { open, parts, close } => {
                        f(*open);
                        walk(parts, f);
                        if close != open {
                            f(*close);
                        }
                    }
                    Part::Nested(_) => {}
                }
            }
        }
        walk(&self.parts, f);
    }

    /// Visits every nested structured expression, shallowly.
    pub fn nested(&self, f: &mut impl FnMut(&StructExpr)) {
        fn walk<'a>(parts: &'a [Part], f: &mut impl FnMut(&'a StructExpr)) {
            for p in parts {
                match p {
                    Part::Tok(_) => {}
                    Part::Group { parts, .. } => walk(parts, f),
                    Part::Nested(s) => f(s),
                }
            }
        }
        walk(&self.parts, f);
    }
}

/// Parses a file's significant tokens into an [`AstFile`].
pub fn parse_file(toks: &[SigTok]) -> (AstFile, Coverage) {
    let mut p = Parser { t: toks, pos: 0, consumed: 0, tests: Vec::new() };
    let items = p.parse_items(false);
    debug_assert_eq!(p.consumed, toks.len(), "parser must consume every token");
    (AstFile { items, tests: p.tests }, Coverage { total: toks.len(), consumed: p.consumed })
}

struct Parser<'a> {
    t: &'a [SigTok],
    pos: usize,
    consumed: usize,
    tests: Vec<(usize, usize)>,
}

/// Keywords that begin an item in statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "impl", "mod", "trait", "struct", "enum", "union", "use", "static", "const",
    "type", "macro_rules", "extern", "pub",
];

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.t.len()
    }

    fn txt(&self, ahead: usize) -> &str {
        self.t.get(self.pos + ahead).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn at(&self, s: &str) -> bool {
        self.txt(0) == s
    }

    fn line(&self) -> u32 {
        self.t.get(self.pos).map(|t| t.line).unwrap_or(0)
    }

    /// The single point where tokens are consumed: advances one token
    /// and counts it toward [`Coverage`].
    fn bump(&mut self) -> usize {
        debug_assert!(!self.eof(), "bump past EOF");
        let i = self.pos;
        self.pos += 1;
        self.consumed += 1;
        i
    }

    /// Consumes a balanced `open … close` region (both delimiters
    /// included), counting only this delimiter pair. The cursor must
    /// sit on `open`.
    fn consume_matched(&mut self, open: &str, close: &str) {
        debug_assert!(self.at(open));
        let mut depth = 0i32;
        while !self.eof() {
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    // ---------------------------------------------------- items ----

    /// Parses items until EOF (`until_close == false`) or an
    /// unconsumed `}` (`true`).
    fn parse_items(&mut self, until_close: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.eof() {
            if until_close && self.at("}") {
                break;
            }
            items.push(self.parse_item());
        }
        items
    }

    fn parse_item(&mut self) -> Item {
        let lo = self.pos;
        let line = self.line();
        let is_test = self.parse_attrs();
        // Visibility / qualifier modifiers before the defining keyword.
        loop {
            match self.txt(0) {
                "pub" => {
                    self.bump();
                    if self.at("(") {
                        self.consume_matched("(", ")");
                    }
                }
                "const" if self.txt(1) == "fn" => {
                    self.bump();
                }
                "unsafe" if matches!(self.txt(1), "fn" | "impl" | "trait" | "extern") => {
                    self.bump();
                }
                "async" | "default" => {
                    self.bump();
                }
                "extern" if self.t.get(self.pos + 1).is_some_and(|t| t.kind == TokKind::StrLit) => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
        let kind = match self.txt(0) {
            "fn" => ItemKind::Fn(self.parse_fn()),
            "impl" | "trait" | "mod" => self.parse_container(),
            "struct" | "enum" | "union" => {
                self.bump();
                // Head until `{ … }` (done) or `;` (done).
                while !self.eof() {
                    match self.txt(0) {
                        "{" => {
                            self.consume_matched("{", "}");
                            break;
                        }
                        ";" => {
                            self.bump();
                            break;
                        }
                        "(" => self.consume_matched("(", ")"),
                        "[" => self.consume_matched("[", "]"),
                        _ => {
                            self.bump();
                        }
                    }
                }
                ItemKind::Other
            }
            "use" | "static" | "const" | "type" => {
                while !self.eof() {
                    match self.txt(0) {
                        ";" => {
                            self.bump();
                            break;
                        }
                        "(" => self.consume_matched("(", ")"),
                        "[" => self.consume_matched("[", "]"),
                        "{" => self.consume_matched("{", "}"),
                        _ => {
                            self.bump();
                        }
                    }
                }
                ItemKind::Other
            }
            "macro_rules" => {
                self.bump();
                if self.at("!") {
                    self.bump();
                }
                if self.t.get(self.pos).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.bump();
                }
                match self.txt(0) {
                    "{" => self.consume_matched("{", "}"),
                    "(" => {
                        self.consume_matched("(", ")");
                        if self.at(";") {
                            self.bump();
                        }
                    }
                    _ => {}
                }
                ItemKind::Other
            }
            "extern" => {
                // `extern crate x;` or `extern { … }`.
                self.bump();
                while !self.eof() {
                    match self.txt(0) {
                        ";" => {
                            self.bump();
                            break;
                        }
                        "{" => {
                            self.consume_matched("{", "}");
                            break;
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                ItemKind::Other
            }
            _ => {
                // Recovery: consume one token so the parser advances.
                if !self.eof() {
                    self.bump();
                }
                ItemKind::Other
            }
        };
        if is_test {
            self.tests.push((lo, self.pos));
        }
        Item { kind, lo, hi: self.pos, line, is_test }
    }

    /// Consumes leading `#[…]` / `#![…]` attributes, returning whether
    /// any marks the item as test-only.
    fn parse_attrs(&mut self) -> bool {
        let mut is_test = false;
        while self.at("#") && (self.txt(1) == "[" || (self.txt(1) == "!" && self.txt(2) == "[")) {
            self.bump(); // #
            if self.at("!") {
                self.bump();
            }
            let body_lo = self.pos + 1;
            self.consume_matched("[", "]");
            let body: Vec<&str> =
                self.t[body_lo..self.pos.saturating_sub(1)].iter().map(|t| t.text.as_str()).collect();
            is_test |= test_only(&body);
        }
        is_test
    }

    fn parse_fn(&mut self) -> FnItem {
        self.bump(); // fn
        let name = if self.t.get(self.pos).is_some_and(|t| t.kind == TokKind::Ident) {
            self.t[self.bump()].text.clone()
        } else {
            String::new()
        };
        // Signature: consume until the body `{` or a terminating `;`,
        // capturing return-type tokens after a top-level `->`.
        let mut ret = String::new();
        let mut in_ret = false;
        loop {
            if self.eof() {
                return FnItem { name, returns_result: ret.contains("Result"), ret_text: ret, body: None };
            }
            match self.txt(0) {
                "{" => break,
                ";" => {
                    self.bump();
                    return FnItem {
                        name,
                        returns_result: ret.contains("Result"),
                        ret_text: ret,
                        body: None,
                    };
                }
                "(" => {
                    let lo = self.pos;
                    self.consume_matched("(", ")");
                    if in_ret {
                        for t in &self.t[lo..self.pos] {
                            ret.push_str(&t.text);
                            ret.push(' ');
                        }
                    }
                }
                "[" => self.consume_matched("[", "]"),
                "-" if self.txt(1) == ">" => {
                    self.bump();
                    self.bump();
                    in_ret = true;
                }
                "where" => {
                    in_ret = false;
                    self.bump();
                }
                _ => {
                    if in_ret {
                        ret.push_str(self.txt(0));
                        ret.push(' ');
                    }
                    self.bump();
                }
            }
        }
        let body = self.parse_block();
        FnItem { name, returns_result: ret.contains("Result"), ret_text: ret, body: Some(body) }
    }

    fn parse_container(&mut self) -> ItemKind {
        let keyword: &'static str = match self.txt(0) {
            "impl" => "impl",
            "trait" => "trait",
            _ => "mod",
        };
        self.bump();
        // Header until the body `{` or a `;` (mod declarations,
        // trait aliases). Generic `>` after `-` (fn-pointer returns in
        // bounds) must not end generics early, but since we only scan
        // for `{` / `;` at group depth 0, `<`/`>` need no tracking.
        let header_lo = self.pos;
        while !self.eof() && !self.at("{") && !self.at(";") {
            match self.txt(0) {
                "(" => self.consume_matched("(", ")"),
                "[" => self.consume_matched("[", "]"),
                _ => {
                    self.bump();
                }
            }
        }
        let name = container_name(&self.t[header_lo..self.pos]);
        if self.at(";") {
            self.bump();
            return ItemKind::Container { keyword, name, items: Vec::new() };
        }
        if self.at("{") {
            self.bump();
            let items = self.parse_items(true);
            if self.at("}") {
                self.bump();
            }
            return ItemKind::Container { keyword, name, items };
        }
        ItemKind::Container { keyword, name, items: Vec::new() }
    }

    // ----------------------------------------------- statements ----

    fn parse_block(&mut self) -> Block {
        debug_assert!(self.at("{"));
        let lo = self.pos;
        let line = self.line();
        self.bump(); // {
        let mut stmts = Vec::new();
        while !self.eof() && !self.at("}") {
            let before = self.pos;
            stmts.push(self.parse_stmt());
            if self.pos == before {
                // Recovery: a statement parse that cannot advance
                // (stray closer) is consumed as a bare token.
                let i = self.bump();
                stmts.push(Stmt {
                    kind: StmtKind::Expr(Chain {
                        parts: vec![Part::Tok(i)],
                        lo: i,
                        hi: i + 1,
                        line: self.t[i].line,
                    }),
                    lo: i,
                    hi: i + 1,
                    line: self.t[i].line,
                });
            }
        }
        if self.at("}") {
            self.bump();
        }
        Block { stmts, lo, hi: self.pos, line }
    }

    fn parse_stmt(&mut self) -> Stmt {
        let lo = self.pos;
        let line = self.line();
        // Attributes: `#[test]`-annotated statements become items.
        if self.at("#") && (self.txt(1) == "[" || (self.txt(1) == "!" && self.txt(2) == "[")) {
            let item = self.parse_item();
            return Stmt { lo, hi: self.pos, line, kind: StmtKind::Item(Box::new(item)) };
        }
        if self.at(";") {
            self.bump();
            return Stmt { kind: StmtKind::Empty, lo, hi: self.pos, line };
        }
        if self.at("let") {
            let letstmt = self.parse_let();
            return Stmt { kind: StmtKind::Let(letstmt), lo, hi: self.pos, line };
        }
        // `union` is contextual: only `union Name {` is the item form.
        let is_item_start = ITEM_KEYWORDS.contains(&self.txt(0))
            && (self.txt(0) != "union"
                || (self.t.get(self.pos + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && self.txt(2) == "{"));
        if is_item_start {
            let item = self.parse_item();
            return Stmt { lo, hi: self.pos, line, kind: StmtKind::Item(Box::new(item)) };
        }
        // Statement-position block constructs (`if`, `match`, a bare
        // block, …) terminate the statement at their closing brace —
        // mirroring Rust's own statement rule — unless a method chain
        // (`.` / `?`) continues the expression.
        if self.at_struct_start() {
            let s = self.parse_struct_expr();
            let s_lo = s.lo;
            let s_line = s.line;
            let mut parts = vec![Part::Nested(Box::new(s))];
            if self.at(".") || self.at("?") {
                let rest = self.parse_chain(&[";"], false);
                parts.extend(rest.parts);
            }
            if self.at(";") {
                self.bump();
            }
            let chain = Chain { parts, lo: s_lo, hi: self.pos, line: s_line };
            return Stmt { kind: StmtKind::Expr(chain), lo, hi: self.pos, line };
        }
        // Expression statement: a chain (structured constructs embed
        // as nested parts), then an optional `;`.
        let chain = self.parse_chain(&[";"], false);
        if self.at(";") {
            self.bump();
        }
        Stmt { kind: StmtKind::Expr(chain), lo, hi: self.pos, line }
    }

    fn parse_let(&mut self) -> LetStmt {
        self.bump(); // let
        // Pattern (+ optional type) until a top-level `=`, `;`, or
        // `else`. `==` cannot appear in pattern/type position, so a
        // bare `=` is the initializer.
        let pat_lo = self.pos;
        let mut colon_at: Option<usize> = None;
        loop {
            if self.eof() {
                break;
            }
            match self.txt(0) {
                "=" | ";" => break,
                "else" if self.txt(1) == "{" => break,
                "(" => self.consume_matched("(", ")"),
                "[" => self.consume_matched("[", "]"),
                "{" => self.consume_matched("{", "}"),
                ":" if colon_at.is_none() && self.txt(1) != ":" => {
                    colon_at = Some(self.pos);
                    self.bump();
                }
                ":" if self.txt(1) == ":" => {
                    self.bump();
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
        let pat_hi = colon_at.unwrap_or(self.pos);
        let pat_toks = &self.t[pat_lo..pat_hi];
        let ty_text = colon_at
            .map(|c| {
                self.t[c + 1..self.pos].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
            })
            .unwrap_or_default();
        let (name, is_wild) = simple_pat_name(pat_toks);
        let mut init = None;
        let mut else_block = None;
        if self.at("=") {
            self.bump();
            // A bare top-level `else` only occurs in `let … else`
            // (if-else consumes its own `else` inside the nested
            // expression), so it safely ends the initializer.
            init = Some(self.parse_chain(&[";", "else"], false));
            if self.at("else") && self.txt(1) == "{" {
                self.bump();
                else_block = Some(self.parse_block());
            }
        }
        if self.at(";") {
            self.bump();
        }
        LetStmt { name, is_wild, ty_text, init, else_block }
    }

    // ---------------------------------------------- expressions ----

    /// True when the cursor sits on a structured-expression opener.
    /// `for` followed by `<` is an HRTB (`dyn for<'a> Fn(…)`), not a
    /// loop.
    fn at_struct_start(&self) -> bool {
        match self.txt(0) {
            "if" | "while" | "loop" | "match" | "{" => true,
            "for" => self.txt(1) != "<",
            "unsafe" => self.txt(1) == "{",
            _ => false,
        }
    }

    /// Parses a flat expression run. Stops (without consuming) at any
    /// of `stops` at group depth 0, at `}` / `)` / `]` (enclosing
    /// closers), and — when `stop_at_arrow` — at a `=>`.
    fn parse_chain(&mut self, stops: &[&str], stop_at_arrow: bool) -> Chain {
        let lo = self.pos;
        let line = self.line();
        let mut parts = Vec::new();
        while !self.eof() {
            let t = self.txt(0);
            if stops.contains(&t) || matches!(t, "}" | ")" | "]") {
                break;
            }
            if stop_at_arrow && t == "=" && self.txt(1) == ">" {
                break;
            }
            match t {
                "(" => parts.push(self.parse_group("(", ")")),
                "[" => parts.push(self.parse_group("[", "]")),
                _ if self.at_struct_start() => {
                    let s = self.parse_struct_expr();
                    parts.push(Part::Nested(Box::new(s)));
                }
                _ => parts.push(Part::Tok(self.bump())),
            }
        }
        Chain { parts, lo, hi: self.pos, line }
    }

    /// Parses `( … )` / `[ … ]` with nested structure.
    fn parse_group(&mut self, _open: &str, close: &str) -> Part {
        let open_idx = self.bump();
        let mut parts = Vec::new();
        while !self.eof() && !self.at(close) {
            match self.txt(0) {
                "(" => parts.push(self.parse_group("(", ")")),
                "[" => parts.push(self.parse_group("[", "]")),
                _ if self.at_struct_start() => {
                    let s = self.parse_struct_expr();
                    parts.push(Part::Nested(Box::new(s)));
                }
                // Anything else — including a stray closer of the
                // *other* kind — is consumed to keep coverage total.
                _ => parts.push(Part::Tok(self.bump())),
            }
        }
        let close_idx = if self.at(close) { self.bump() } else { open_idx };
        Part::Group { open: open_idx, parts, close: close_idx }
    }

    fn parse_struct_expr(&mut self) -> StructExpr {
        let lo = self.pos;
        let line = self.line();
        let kind = match self.txt(0) {
            "if" => {
                self.bump();
                let cond = self.parse_chain(&["{"], false);
                let then = if self.at("{") {
                    self.parse_block()
                } else {
                    Block { stmts: Vec::new(), lo: self.pos, hi: self.pos, line }
                };
                let els = if self.at("else") {
                    self.bump();
                    if self.at("if") {
                        Some(Box::new(self.parse_struct_expr()))
                    } else if self.at("{") {
                        let b_lo = self.pos;
                        let b_line = self.line();
                        let block = self.parse_block();
                        Some(Box::new(StructExpr {
                            kind: StructKind::Block { block, is_unsafe: false },
                            lo: b_lo,
                            hi: self.pos,
                            line: b_line,
                        }))
                    } else {
                        None
                    }
                } else {
                    None
                };
                StructKind::If { cond, then, els }
            }
            "while" => {
                self.bump();
                let cond = self.parse_chain(&["{"], false);
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    Block { stmts: Vec::new(), lo: self.pos, hi: self.pos, line }
                };
                StructKind::While { cond, body }
            }
            "loop" => {
                self.bump();
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    Block { stmts: Vec::new(), lo: self.pos, hi: self.pos, line }
                };
                StructKind::Loop { body }
            }
            "for" => {
                self.bump();
                // Pattern until the top-level `in`.
                let pat_lo = self.pos;
                while !self.eof() && !self.at("in") && !self.at("{") {
                    match self.txt(0) {
                        "(" => self.consume_matched("(", ")"),
                        "[" => self.consume_matched("[", "]"),
                        _ => {
                            self.bump();
                        }
                    }
                }
                let pat_text: String = self.t[pat_lo..self.pos]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                if self.at("in") {
                    self.bump();
                }
                let iter = self.parse_chain(&["{"], false);
                let body = if self.at("{") {
                    self.parse_block()
                } else {
                    Block { stmts: Vec::new(), lo: self.pos, hi: self.pos, line }
                };
                StructKind::For { pat_text, iter, body }
            }
            "match" => {
                self.bump();
                let scrutinee = self.parse_chain(&["{"], false);
                let mut arms = Vec::new();
                if self.at("{") {
                    self.bump();
                    while !self.eof() && !self.at("}") {
                        let before = self.pos;
                        arms.push(self.parse_arm());
                        if self.pos == before {
                            self.bump();
                        }
                    }
                    if self.at("}") {
                        self.bump();
                    }
                }
                StructKind::Match { scrutinee, arms }
            }
            "unsafe" => {
                self.bump();
                let block = if self.at("{") {
                    self.parse_block()
                } else {
                    Block { stmts: Vec::new(), lo: self.pos, hi: self.pos, line }
                };
                StructKind::Block { block, is_unsafe: true }
            }
            _ => {
                // "{": bare block / struct literal / macro braces.
                let block = self.parse_block();
                StructKind::Block { block, is_unsafe: false }
            }
        };
        StructExpr { kind, lo, hi: self.pos, line }
    }

    fn parse_arm(&mut self) -> Arm {
        let line = self.line();
        // Pattern until a top-level `=>` or `if` guard.
        let pat_lo = self.pos;
        while !self.eof() {
            match self.txt(0) {
                "=" if self.txt(1) == ">" => break,
                "if" => break,
                "}" => break,
                "(" => self.consume_matched("(", ")"),
                "[" => self.consume_matched("[", "]"),
                "{" => self.consume_matched("{", "}"),
                _ => {
                    self.bump();
                }
            }
        }
        let pat_text: String =
            self.t[pat_lo..self.pos].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
        let guard = if self.at("if") {
            self.bump();
            Some(self.parse_chain(&[","], true))
        } else {
            None
        };
        if self.at("=") && self.txt(1) == ">" {
            self.bump();
            self.bump();
        }
        // A block-shaped body ends the arm at its closing brace (the
        // comma is optional after `=> { … }` — rustfmt omits it), so
        // the next arm's pattern is never swallowed. Expression
        // bodies run to the mandatory `,` or the match's `}`.
        let body = if self.at_struct_start() {
            let s = self.parse_struct_expr();
            let s_lo = s.lo;
            let s_line = s.line;
            let mut parts = vec![Part::Nested(Box::new(s))];
            if self.at(".") || self.at("?") {
                let rest = self.parse_chain(&[",", ";"], false);
                parts.extend(rest.parts);
            }
            Chain { parts, lo: s_lo, hi: self.pos, line: s_line }
        } else {
            self.parse_chain(&[",", ";"], false)
        };
        if self.at(",") {
            self.bump();
        }
        Arm { pat_text, guard, body, line }
    }
}

/// Whether an attribute body (the tokens inside `#[…]`) limits its
/// item to test builds: `test`, `cfg(test)`, or `cfg(all(…))` with a
/// top-level `test`. Items under `cfg(not(test))` or
/// `cfg(any(test, …))` also build outside tests, so rules see them.
fn test_only(body: &[&str]) -> bool {
    match body {
        ["test", ..] | ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ .., ")", ")"] => {
            let mut depth = 0i32;
            args.split(|&t| {
                match t {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                depth == 0 && t == ","
            })
            .any(|arg| arg == ["test"])
        }
        _ => false,
    }
}

/// Extracts the defining name from an `impl`/`trait`/`mod` header:
/// the last path segment after `for` when present (`impl Tr for Ty`),
/// otherwise the first path after the generics.
fn container_name(header: &[SigTok]) -> Option<String> {
    // Find the last top-level `for` not followed by `<` (HRTB).
    let mut start = 0usize;
    for (i, t) in header.iter().enumerate() {
        if t.text == "for" && header.get(i + 1).map(|n| n.text.as_str()) != Some("<") {
            start = i + 1;
        }
    }
    if start == 0 {
        // Skip leading generics `<…>`; `>` directly after `-` is a
        // fn-pointer return arrow, not a generics closer.
        let mut i = 0usize;
        if header.first().map(|t| t.text.as_str()) == Some("<") {
            let mut depth = 0i32;
            while i < header.len() {
                match header[i].text.as_str() {
                    "<" => depth += 1,
                    ">" if i > 0 && header[i - 1].text == "-" => {}
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        start = i;
    }
    // Last segment of the path that starts at `start`.
    let mut name = None;
    let mut i = start;
    while i < header.len() {
        let t = &header[i];
        if t.kind == TokKind::Ident {
            name = Some(t.text.clone());
            if header.get(i + 1).map(|n| n.text.as_str()) == Some(":")
                && header.get(i + 2).map(|n| n.text.as_str()) == Some(":")
            {
                i += 3;
                continue;
            }
            break;
        }
        if matches!(t.text.as_str(), "&" | "mut" | "dyn") || t.kind == TokKind::Lifetime {
            i += 1;
            continue;
        }
        break;
    }
    name
}

/// `let` pattern shape: `Some(name)` for `[ref] [mut] name`, wild
/// flag for `_`.
fn simple_pat_name(pat: &[SigTok]) -> (Option<String>, bool) {
    let core: Vec<&SigTok> =
        pat.iter().filter(|t| !matches!(t.text.as_str(), "ref" | "mut")).collect();
    match core.as_slice() {
        [t] if t.text == "_" => (None, true),
        [t] if t.kind == TokKind::Ident => (Some(t.text.clone()), false),
        _ => (None, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> AstFile {
        let (sig, _) = tokens(src);
        let (ast, cov) = parse_file(&sig);
        assert_eq!(cov.consumed, cov.total, "total coverage on:\n{src}");
        ast
    }

    fn only_fn(ast: &AstFile) -> &FnItem {
        for item in &ast.items {
            if let ItemKind::Fn(f) = &item.kind {
                return f;
            }
        }
        panic!("no fn item");
    }

    #[test]
    fn covers_every_token_of_varied_source() {
        let src = r#"
            use std::collections::BTreeMap;
            pub struct S { pub x: Vec<u8> }
            impl S {
                pub fn get(&self, i: usize) -> Option<&u8> { self.x.get(i) }
            }
            fn main() {
                let mut m: BTreeMap<String, u32> = BTreeMap::new();
                for (k, v) in &m { println!("{k} {v}"); }
                let r = if m.is_empty() { 0 } else { m.len() };
                match r { 0 => {}, n if n > 3 => { work(n); }, _ => () }
                'outer: loop { while r < 10 { break 'outer; } }
                let s = S { x: vec![1, 2] };
                let _ = s.x.iter().map(|b| *b as u32).sum::<u32>();
            }
        "#;
        parse(src);
    }

    #[test]
    fn fn_return_type_and_result_detection() {
        let ast = parse("fn f(a: u32) -> Result<Vec<f64>, Error> { todo!() }");
        let f = only_fn(&ast);
        assert_eq!(f.name, "f");
        assert!(f.returns_result);
        let ast2 = parse("fn g() -> io::Result<()>;");
        assert!(only_fn(&ast2).returns_result);
        let ast3 = parse("fn h(x: Result<u8, ()>) -> u8 { 0 }");
        assert!(!only_fn(&ast3).returns_result, "param Result is not a return Result");
    }

    #[test]
    fn let_decomposition() {
        let ast = parse("fn f() { let mut g = m.lock(); let _ = send(); let (a, b) = t; }");
        let f = only_fn(&ast);
        let body = f.body.as_ref().unwrap();
        let lets: Vec<&LetStmt> = body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Let(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lets.len(), 3);
        assert_eq!(lets[0].name.as_deref(), Some("g"));
        assert!(!lets[0].is_wild);
        assert!(lets[1].is_wild);
        assert_eq!(lets[2].name, None);
    }

    #[test]
    fn let_with_type_annotation_splits_ty() {
        let ast = parse("fn f() { let acc: f64 = 0.0; }");
        let f = only_fn(&ast);
        let StmtKind::Let(l) = &f.body.as_ref().unwrap().stmts[0].kind else { panic!() };
        assert_eq!(l.name.as_deref(), Some("acc"));
        assert_eq!(l.ty_text, "f64");
    }

    #[test]
    fn match_arms_and_guards() {
        let src = r#"
            fn f(r: Result<u8, E>) {
                match r {
                    Ok(v) if v > 1 => use_it(v),
                    Err(_) => {},
                    _ => other(),
                }
            }
        "#;
        let ast = parse(src);
        let f = only_fn(&ast);
        let StmtKind::Expr(chain) = &f.body.as_ref().unwrap().stmts[0].kind else { panic!() };
        let mut arms_seen = 0;
        chain.nested(&mut |s| {
            if let StructKind::Match { arms, .. } = &s.kind {
                arms_seen = arms.len();
                assert_eq!(arms[0].pat_text, "Ok ( v )");
                assert!(arms[0].guard.is_some());
                assert_eq!(arms[1].pat_text, "Err ( _ )");
                assert!(arms[1].guard.is_none());
            }
        });
        assert_eq!(arms_seen, 3);
    }

    #[test]
    fn range_patterns_do_not_confuse_the_arrow() {
        let src = "fn f(x: u8) -> u8 { match x { 1..=9 => 1, _ => 0 } }";
        let ast = parse(src);
        let f = only_fn(&ast);
        let StmtKind::Expr(chain) = &f.body.as_ref().unwrap().stmts[0].kind else { panic!() };
        chain.nested(&mut |s| {
            if let StructKind::Match { arms, .. } = &s.kind {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].pat_text, "1 . . = 9");
            }
        });
    }

    #[test]
    fn loops_nest_and_label() {
        let src = r#"
            fn f(xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                for c in xs.chunks(4) {
                    for v in c { acc += v; }
                }
                acc
            }
        "#;
        let ast = parse(src);
        let f = only_fn(&ast);
        let body = f.body.as_ref().unwrap();
        let StmtKind::Expr(chain) = &body.stmts[1].kind else { panic!() };
        let mut outer_seen = false;
        chain.nested(&mut |s| {
            if let StructKind::For { iter, body, .. } = &s.kind {
                outer_seen = true;
                let mut texts = Vec::new();
                iter.flat_tokens(&mut |_| texts.push(()));
                assert!(!texts.is_empty());
                // Inner for nested in body.
                let StmtKind::Expr(inner) = &body.stmts[0].kind else { panic!() };
                let mut inner_for = false;
                inner.nested(&mut |s2| {
                    inner_for |= matches!(s2.kind, StructKind::For { .. });
                });
                assert!(inner_for);
            }
        });
        assert!(outer_seen);
    }

    #[test]
    fn impl_and_trait_names_resolve() {
        let ast = parse(
            "impl<T: Ord> Registry<T> { fn a(&self) {} }\n\
             impl Display for Finding { fn fmt(&self) {} }\n\
             mod inner { fn b() {} }",
        );
        let names: Vec<(Option<&str>, usize)> = ast
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Container { name, items, .. } => Some((name.as_deref(), items.len())),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            [(Some("Registry"), 1), (Some("Finding"), 1), (Some("inner"), 1)]
        );
    }

    #[test]
    fn cfg_test_items_marked() {
        // Only attributes that limit an item to test builds mark it:
        // `cfg(not(test))`, `cfg(any(test, …))` and `cfg_attr(test, …)`
        // items also build outside tests.
        let ast = parse(
            "fn real() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n#[test]\nfn t2() {}\n\
             #[cfg(all(test, feature = \"x\"))] fn c() {}\n\
             #[cfg(not(test))] fn a() {}\n\
             #[cfg(any(test, feature = \"x\"))] fn b() {}\n\
             #[cfg(all(not(test), unix))] fn d() {}\n\
             #[cfg_attr(test, allow(dead_code))] fn e() {}",
        );
        let flags: Vec<bool> = ast.items.iter().map(|i| i.is_test).collect();
        assert_eq!(flags, [false, true, true, true, false, false, false, false]);
        assert_eq!(ast.tests.len(), 3);
    }

    #[test]
    fn let_else_and_question_mark_parse() {
        let src = r#"
            fn f() -> Result<u8, E> {
                let Some(x) = maybe() else { return Err(E); };
                let y = fallible()?;
                Ok(x + y)
            }
        "#;
        parse(src);
    }

    #[test]
    fn struct_literals_and_closures_stay_covered() {
        let src = r#"
            fn f() {
                let c = Config { depth: 3, names: vec!["a".into()] };
                let h = std::thread::spawn(move || { work(c) });
                let v: Vec<u32> = (0..4).map(|i| i * 2).filter(|x| *x > 1).collect();
            }
        "#;
        parse(src);
    }

    #[test]
    fn torture_inputs_terminate_with_full_coverage() {
        for src in [
            "fn f( {",
            "match {",
            "}}}",
            "fn f() { let = ; }",
            "impl for {}",
            "fn f() { x.do(|| { loop { if } }) }",
            "#![allow(dead_code)] fn f() {}",
        ] {
            let (sig, _) = tokens(src);
            let (_, cov) = parse_file(&sig);
            assert_eq!(cov.consumed, cov.total, "coverage on torture input {src:?}");
        }
    }
}
