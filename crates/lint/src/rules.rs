//! The rule engine: token-stream checks for the workspace's determinism
//! and robustness invariants, plus the `// lint: allow(<rule>) — <why>`
//! escape hatch.
//!
//! Every rule here pins an invariant an earlier PR established (see
//! DESIGN.md §12 for the rule-by-rule rationale). Rules work on the lexed
//! token stream from [`crate::lexer`], with `#[cfg(test)]` items masked
//! out, so string literals, comments, and doc-examples never trip them.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some `src/` (not `src/bin/`, not `main.rs`).
    Lib,
    /// Binary code: `src/main.rs` or `src/bin/*.rs`.
    Bin,
    /// Integration tests and benches: `tests/`, `benches/`.
    Test,
    /// Runnable examples: `examples/`.
    Example,
}

/// One structured finding: `file:line:col`, a stable rule id, a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Render as one JSON-lines record via `legodb_util::json`.
    pub fn to_json(&self) -> String {
        legodb_util::json::JsonObject::new()
            .str("path", &self.path)
            .u64("line", u64::from(self.line))
            .u64("col", u64::from(self.col))
            .str("rule", self.rule)
            .str("message", &self.message)
            .finish()
    }
}

/// Every enforceable rule id, in reporting order. The last three are the
/// flow-aware workspace rules ([`crate::callgraph`], DESIGN.md §17).
/// Two meta-rules sit outside this list and cannot themselves be
/// allowed: `allow-syntax` (malformed directives) and `allow-unused` (a
/// directive whose rule no longer fires on the line it excuses).
pub const RULES: &[&str] = &[
    "no-unwrap-in-lib",
    "float-total-cmp",
    "deterministic-collections",
    "no-ambient-authority",
    "parser-limit-guard",
    "crate-hygiene",
    "lock-order",
    "wal-before-apply",
    "guard-across-fsync",
];

/// Files whose `.max(..)` / `.min(..)` calls sit on float-typed cost
/// paths: computed-vs-computed comparisons there must use `total_cmp`
/// (constant clamps like `.max(0.0)` are exempt — `f64::max(NaN, c)` is
/// defined and the non-finite guard upstream already rejects NaN costs).
const COST_PATH_FILES: &[&str] = &[
    "crates/core/src/cost.rs",
    "crates/core/src/search.rs",
    "crates/optimizer/src/cost.rs",
    "crates/optimizer/src/estimate.rs",
    "crates/optimizer/src/optimize.rs",
];

/// Crates exempt from the clock and env half of `no-ambient-authority`:
/// `util` owns the clocks (governor, bench harness), `bench` measures
/// wall-clock by design.
const AMBIENT_EXEMPT_CRATES: &[&str] = &["util", "bench"];

/// Crates exempt from the filesystem and thread halves of
/// `no-ambient-authority`: only `util` — it owns the `fs::DirHandle`
/// capability type and `par::steal_map_catch`, the one spawn site, which
/// hands every worker its caller's fault plan. `bench` is deliberately
/// NOT here; its record writers route through util.
const FS_EXEMPT_CRATES: &[&str] = &["util"];

/// Crates whose parsers must route through `_with_limits` entry points.
const LIMIT_GUARDED_CRATES: &[&str] = &["xml", "schema", "xquery"];

/// One allow directive found in a file, tracked through the workspace
/// pass so stale directives can be reported (`allow-unused`).
#[derive(Debug, Clone)]
pub struct AllowSite {
    pub line: u32,
    pub col: u32,
    pub rule: String,
    /// Did any diagnostic actually get suppressed by this directive?
    pub used: bool,
    /// Directives inside `#[cfg(test)]`/`#[test]` regions are exempt
    /// from `allow-unused` — rules skip masked code, so an allow there
    /// can never be "used" in the first place.
    pub in_test: bool,
}

/// Tier-one output for one file: its per-file diagnostics, plus the
/// function facts and allow directives the workspace pass consumes.
pub struct AnalyzedFile {
    pub rel: String,
    pub kind: FileKind,
    /// Per-function facts for the call-graph rules.
    pub fns: Vec<crate::facts::FnFacts>,
    diags: Vec<Diagnostic>,
    allows: Vec<AllowSite>,
}

/// Analyze one source file: run every per-file rule and extract the
/// function facts ([`crate::facts`]) the workspace pass needs. `rel` is
/// the workspace-relative path with `/` separators (it scopes several
/// rules); `kind` is where the file sits.
pub fn check_file(rel: &str, kind: FileKind, src: &str) -> AnalyzedFile {
    let toks = lex(src);
    let mut check = FileCheck::new(rel, kind, &toks);
    check.mark_test_items();
    check.rule_no_unwrap_in_lib();
    check.rule_float_total_cmp();
    check.rule_deterministic_collections();
    check.rule_no_ambient_authority();
    check.rule_parser_limit_guard();
    check.rule_crate_hygiene();
    check.into_analyzed()
}

/// Tier two: run the workspace-level flow rules over every analyzed
/// file's facts ([`crate::callgraph`]), apply allow directives to their
/// findings, then report any directive that suppressed nothing
/// (`allow-unused`). Returns all diagnostics sorted by
/// (path, line, col, rule).
pub fn finish_workspace(mut files: Vec<AnalyzedFile>) -> Vec<Diagnostic> {
    let fns: Vec<crate::facts::FnFacts> =
        files.iter().flat_map(|f| f.fns.iter().cloned()).collect();
    let mut diags = Vec::new();
    for d in crate::callgraph::analyze(&fns) {
        // Same contract as per-file rules: an allow on the offending
        // line or the line above suppresses, and counts as used.
        let allowed = files.iter_mut().find(|f| f.rel == d.path).is_some_and(|f| {
            let mut hit = false;
            for a in f.allows.iter_mut() {
                if a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line) {
                    a.used = true;
                    hit = true;
                }
            }
            hit
        });
        if !allowed {
            diags.push(d);
        }
    }
    for f in &files {
        diags.extend(f.diags.iter().cloned());
        for a in &f.allows {
            if a.used || a.in_test {
                continue;
            }
            diags.push(Diagnostic {
                path: f.rel.clone(),
                line: a.line,
                col: a.col,
                rule: "allow-unused",
                message: format!(
                    "`lint: allow({})` suppresses nothing — the code it excused \
                     is gone or no longer trips the rule; delete the stale \
                     directive",
                    a.rule
                ),
            });
        }
    }
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    diags
}

/// Lint one source file in isolation: [`check_file`] plus a
/// single-file [`finish_workspace`]. Interprocedural rules see only
/// this file's functions.
pub fn lint_source(rel: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
    finish_workspace(vec![check_file(rel, kind, src)])
}

struct Allow {
    rule: String,
    col: u32,
    used: bool,
}

struct FileCheck<'a> {
    rel: &'a str,
    kind: FileKind,
    /// Code tokens only (comments stripped), for pattern matching.
    code: Vec<Tok<'a>>,
    /// Parallel to `code`: true if the token is inside a `#[cfg(test)]`
    /// or `#[test]` item.
    in_test: Vec<bool>,
    /// Allow directives by source line.
    allows: BTreeMap<u32, Vec<Allow>>,
    diags: Vec<Diagnostic>,
}

impl<'a> FileCheck<'a> {
    fn new(rel: &'a str, kind: FileKind, toks: &[Tok<'a>]) -> FileCheck<'a> {
        let mut code = Vec::with_capacity(toks.len());
        let mut comments = Vec::new();
        for t in toks {
            if t.is_comment() {
                comments.push(*t);
            } else {
                code.push(*t);
            }
        }
        let n = code.len();
        let mut fc = FileCheck {
            rel,
            kind,
            code,
            in_test: vec![false; n],
            allows: BTreeMap::new(),
            diags: Vec::new(),
        };
        fc.parse_allow_comments(&comments);
        fc
    }

    /// Crate name for paths like `crates/<name>/…`, if any.
    fn crate_name(&self) -> Option<&str> {
        self.rel.strip_prefix("crates/")?.split('/').next()
    }

    fn in_crate(&self, names: &[&str]) -> bool {
        self.crate_name().is_some_and(|c| names.contains(&c))
    }

    fn emit(&mut self, rule: &'static str, line: u32, col: u32, message: String) {
        if rule != "allow-syntax" && self.is_allowed(rule, line) {
            return;
        }
        self.diags.push(Diagnostic {
            path: self.rel.to_string(),
            line,
            col,
            rule,
            message,
        });
    }

    /// An allow on the offending line or the line above suppresses it.
    fn is_allowed(&mut self, rule: &str, line: u32) -> bool {
        for l in [line, line.saturating_sub(1)] {
            if let Some(entries) = self.allows.get_mut(&l) {
                for a in entries {
                    if a.rule == rule {
                        a.used = true;
                        return true;
                    }
                }
            }
        }
        false
    }

    // ---- allow directive parsing -----------------------------------

    /// `// lint: allow(rule-a, rule-b) — why this is sound`
    ///
    /// The reason is mandatory: an allow with no prose after the closing
    /// paren is itself a diagnostic (`allow-syntax`), as is an unknown
    /// rule id. The directive must sit on the offending line or the line
    /// directly above it.
    fn parse_allow_comments(&mut self, comments: &[Tok<'a>]) {
        for c in comments {
            // The directive must *start* the comment body (after the
            // `//`/`/*` sigil) — prose that merely mentions the syntax,
            // like this sentence, is not a directive.
            let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
            let Some(after) = body.strip_prefix("lint: allow(") else {
                continue;
            };
            let Some(close) = after.find(')') else {
                self.diags.push(Diagnostic {
                    path: self.rel.to_string(),
                    line: c.line,
                    col: c.col,
                    rule: "allow-syntax",
                    message: "unterminated `lint: allow(` directive".to_string(),
                });
                continue;
            };
            let rules_part = &after[..close];
            let reason = after[close + 1..]
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':', ' '])
                .trim();
            if reason.is_empty() {
                self.diags.push(Diagnostic {
                    path: self.rel.to_string(),
                    line: c.line,
                    col: c.col,
                    rule: "allow-syntax",
                    message: format!(
                        "`lint: allow({rules_part})` has no reason — write \
                         `// lint: allow({rules_part}) — <why this is sound>`"
                    ),
                });
                continue;
            }
            for rule in rules_part
                .split(',')
                .map(str::trim)
                .filter(|r| !r.is_empty())
            {
                if !RULES.contains(&rule) {
                    self.diags.push(Diagnostic {
                        path: self.rel.to_string(),
                        line: c.line,
                        col: c.col,
                        rule: "allow-syntax",
                        message: format!("unknown rule `{rule}` in lint: allow directive"),
                    });
                    continue;
                }
                self.allows.entry(c.line).or_default().push(Allow {
                    rule: rule.to_string(),
                    col: c.col,
                    used: false,
                });
            }
        }
    }

    // ---- #[cfg(test)] masking --------------------------------------

    /// Mark every token belonging to a `#[cfg(test)]`- or `#[test]`-
    /// gated item, so rules about *shipping* code skip test code that
    /// happens to live in a lib file.
    fn mark_test_items(&mut self) {
        let mut i = 0usize;
        while i < self.code.len() {
            if self.code[i].is_punct('#') && self.peek_punct(i + 1, '[') {
                let attr_end = self.matching_bracket(i + 1);
                let is_test_attr = self.attr_is_test(i + 2, attr_end);
                if is_test_attr {
                    let item_end = self.item_end(attr_end + 1);
                    for k in i..item_end.min(self.code.len()) {
                        self.in_test[k] = true;
                    }
                    i = item_end;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
            i += 1;
        }
    }

    fn peek_punct(&self, i: usize, c: char) -> bool {
        self.code.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// `i` points at `[`; return the index of its matching `]` (or the
    /// last index if unbalanced).
    fn matching_bracket(&self, i: usize) -> usize {
        let mut depth = 0i32;
        for k in i..self.code.len() {
            if self.code[k].is_punct('[') {
                depth += 1;
            } else if self.code[k].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Do the attribute tokens in `(start..end)` denote test-only code?
    /// Matches `#[test]`, `#[cfg(test)]`, and compositions like
    /// `#[cfg(all(test, unix))]`.
    fn attr_is_test(&self, start: usize, end: usize) -> bool {
        let toks = &self.code[start..end.min(self.code.len())];
        let Some(first) = toks.first() else {
            return false;
        };
        if first.is_ident("test") && toks.len() == 1 {
            return true;
        }
        if first.is_ident("cfg") {
            return toks.iter().any(|t| t.is_ident("test"));
        }
        false
    }

    /// Starting right after an attribute, find the index one past the end
    /// of the item it decorates: past the matching `}` of the first
    /// top-level `{`, or past the first top-level `;`.
    fn item_end(&self, mut i: usize) -> usize {
        // Skip any further attributes on the same item.
        while i < self.code.len() && self.code[i].is_punct('#') && self.peek_punct(i + 1, '[') {
            i = self.matching_bracket(i + 1) + 1;
        }
        let mut depth = 0i32;
        let mut entered_brace = false;
        while i < self.code.len() {
            let t = &self.code[i];
            if t.is_punct('{') {
                depth += 1;
                entered_brace = true;
            } else if t.is_punct('}') {
                depth -= 1;
                if entered_brace && depth == 0 {
                    return i + 1;
                }
            } else if t.is_punct(';') && depth == 0 {
                return i + 1;
            }
            i += 1;
        }
        self.code.len()
    }

    /// Code token at `i`, unless it is masked as test code.
    fn lib_tok(&self, i: usize) -> Option<&Tok<'a>> {
        if *self.in_test.get(i)? {
            None
        } else {
            self.code.get(i)
        }
    }

    // ---- rules ------------------------------------------------------

    /// `no-unwrap-in-lib`: no `.unwrap()` / `.expect(…)` in shipping
    /// library code — robustness demands typed errors (PR 2).
    fn rule_no_unwrap_in_lib(&mut self) {
        if self.kind != FileKind::Lib {
            return;
        }
        let mut hits = Vec::new();
        for i in 0..self.code.len() {
            let Some(t) = self.lib_tok(i) else { continue };
            if !(t.is_ident("unwrap") || t.is_ident("expect")) {
                continue;
            }
            let dotted = i > 0 && self.code[i - 1].is_punct('.');
            let called = self.peek_punct(i + 1, '(');
            if dotted && called {
                hits.push((t.line, t.col, t.text.to_string()));
            }
        }
        for (line, col, name) in hits {
            self.emit(
                "no-unwrap-in-lib",
                line,
                col,
                format!(
                    "`.{name}(…)` in library code can panic — return a typed error, \
                     or annotate `// lint: allow(no-unwrap-in-lib) — <why>`"
                ),
            );
        }
    }

    /// `float-total-cmp`: NaN-safe float ordering (PR 2's fix must not
    /// regress). Bans `partial_cmp` calls outright, and on cost-path
    /// files bans `.max(x)` / `.min(x)` between two *computed* floats
    /// (constant clamps like `.max(0.0)` stay legal).
    fn rule_float_total_cmp(&mut self) {
        if !matches!(self.kind, FileKind::Lib | FileKind::Bin) {
            return;
        }
        let mut hits = Vec::new();
        for i in 0..self.code.len() {
            let Some(t) = self.lib_tok(i) else { continue };
            // A `partial_cmp` *call or import* — `fn partial_cmp` (a
            // PartialOrd impl, which must exist) is exempt.
            if t.is_ident("partial_cmp") {
                let is_def = i > 0 && self.code[i - 1].is_ident("fn");
                if !is_def {
                    hits.push((
                        t.line,
                        t.col,
                        "`partial_cmp` returns None on NaN and poisons ordering — \
                         use `f64::total_cmp`"
                            .to_string(),
                    ));
                }
                continue;
            }
            if !COST_PATH_FILES.contains(&self.rel) {
                continue;
            }
            if (t.is_ident("max") || t.is_ident("min"))
                && i > 0
                && self.code[i - 1].is_punct('.')
                && self.peek_punct(i + 1, '(')
                && !self.max_min_arg_is_constant(i + 2)
            {
                hits.push((
                    t.line,
                    t.col,
                    format!(
                        "`.{}(…)` between computed floats on a cost path silently \
                         drops NaN — order with `total_cmp` or clamp against a \
                         constant",
                        t.text
                    ),
                ));
            }
        }
        for (line, col, msg) in hits {
            self.emit("float-total-cmp", line, col, msg);
        }
    }

    /// Is the first argument token at `i` a constant (numeric literal,
    /// possibly negated, or a `f64::CONST` path)? Constant clamps have
    /// defined NaN behavior and are allowed.
    fn max_min_arg_is_constant(&self, mut i: usize) -> bool {
        if self.peek_punct(i, '-') {
            i += 1;
        }
        match self.code.get(i) {
            Some(t) if t.kind == TokKind::Num => true,
            // `f64::MIN_POSITIVE` etc. — a const path (but not `f64::max`)
            Some(t) if t.is_ident("f64") || t.is_ident("f32") => {
                self.peek_punct(i + 1, ':')
                    && self.peek_punct(i + 2, ':')
                    && self.code.get(i + 3).is_some_and(|n| {
                        n.kind == TokKind::Ident && !n.is_ident("max") && !n.is_ident("min")
                    })
            }
            _ => false,
        }
    }

    /// `deterministic-collections`: no default-hasher `HashMap`/`HashSet`
    /// where iteration order feeds fingerprints (PR 3): all of
    /// `crates/pschema`, `crates/core/src/cost.rs`, and the column store
    /// (`crates/relational/src/column.rs`, PR 9), whose snapshots and
    /// storage stats must serialize identically across runs.
    fn rule_deterministic_collections(&mut self) {
        let scoped = self.rel.starts_with("crates/pschema/src/")
            || self.rel == "crates/core/src/cost.rs"
            || self.rel == "crates/relational/src/column.rs";
        if !scoped || self.kind != FileKind::Lib {
            return;
        }
        let mut hits = Vec::new();
        for i in 0..self.code.len() {
            let Some(t) = self.lib_tok(i) else { continue };
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                hits.push((t.line, t.col, t.text.to_string()));
            }
        }
        for (line, col, name) in hits {
            self.emit(
                "deterministic-collections",
                line,
                col,
                format!(
                    "`{name}` iteration order is hash-randomized and this file \
                     feeds fingerprints — use `BTreeMap`/`BTreeSet` or sort \
                     before iterating"
                ),
            );
        }
    }

    /// `no-ambient-authority`: no clocks or env reads outside
    /// `crates/util` and `crates/bench` — fault-injection decisions must
    /// be pure in (seed, site, key) and parallel must equal sequential;
    /// no thread starts (`thread::spawn` / `thread::scope` /
    /// `thread::Builder`) outside `crates/util`, whose
    /// `par::steal_map_catch` hands workers the caller's fault plan; and
    /// no direct filesystem access (`std::fs` / `File::` / `OpenOptions`)
    /// outside `crates/util`: durable code must be *handed* a
    /// `legodb_util::fs::DirHandle` capability, so crash-recovery
    /// failpoints stay the only I/O failure model.
    fn rule_no_ambient_authority(&mut self) {
        let clock_exempt = self.in_crate(AMBIENT_EXEMPT_CRATES);
        let fs_exempt = self.in_crate(FS_EXEMPT_CRATES);
        if self.kind == FileKind::Test || (clock_exempt && fs_exempt) {
            return;
        }
        let mut hits = Vec::new();
        for i in 0..self.code.len() {
            let Some(t) = self.lib_tok(i) else { continue };
            let path_call = |name: &str, members: &[&str]| -> bool {
                t.is_ident(name)
                    && self.peek_punct(i + 1, ':')
                    && self.peek_punct(i + 2, ':')
                    && self
                        .code
                        .get(i + 3)
                        .is_some_and(|m| members.iter().any(|w| m.is_ident(w)))
            };
            // The path segment right before token `i`, if `i` follows `::`.
            let prev_segment = |name: &str| -> bool {
                i >= 3
                    && self.peek_punct(i - 1, ':')
                    && self.peek_punct(i - 2, ':')
                    && self.code[i - 3].is_ident(name)
            };
            // `legodb_util::fs::DirHandle` is the sanctioned capability
            // path — an `fs` segment right after `legodb_util::` is fine.
            let sanctioned_fs = || prev_segment("legodb_util");
            // `std::fs::File`/`std::fs::OpenOptions` already flag at the
            // `fs` segment; don't double-report the same path.
            let via_fs_segment = || prev_segment("fs");
            let clock_hit = if clock_exempt {
                None
            } else if path_call("env", &["var", "var_os", "vars", "vars_os"]) {
                Some("`std::env::var` reads ambient environment")
            } else if path_call("SystemTime", &["now"]) || path_call("Instant", &["now"]) {
                Some("ambient clock reads break deterministic replay")
            } else {
                None
            };
            if let Some(what) = clock_hit {
                hits.push((
                    t.line,
                    t.col,
                    format!(
                        "{what} — only `crates/util` (governor/fault/bench) and \
                         `crates/bench` may touch ambient authority"
                    ),
                ));
                continue;
            }
            if !fs_exempt && path_call("thread", &["spawn", "scope", "Builder"]) {
                hits.push((
                    t.line,
                    t.col,
                    format!(
                        "`thread::{}` starts a thread outside the fault-isolated \
                         parallel map, so its work misses the caller's fault plan \
                         — only `crates/util` may start threads; use \
                         `legodb_util::steal_map_catch`",
                        self.code[i + 3].text
                    ),
                ));
                continue;
            }
            let fs_hit = if fs_exempt {
                None
            } else if t.is_ident("fs")
                && self.peek_punct(i + 1, ':')
                && self.peek_punct(i + 2, ':')
                && !sanctioned_fs()
            {
                Some("`fs::...` is ambient filesystem authority")
            } else if t.is_ident("File")
                && self.peek_punct(i + 1, ':')
                && self.peek_punct(i + 2, ':')
                && !via_fs_segment()
            {
                Some("`File::...` opens files directly")
            } else if t.is_ident("OpenOptions") && !via_fs_segment() {
                Some("`OpenOptions` opens files directly")
            } else {
                None
            };
            if let Some(what) = fs_hit {
                hits.push((
                    t.line,
                    t.col,
                    format!(
                        "{what} — only `crates/util` may touch the filesystem; \
                         take a `legodb_util::fs::DirHandle` capability instead"
                    ),
                ));
            }
        }
        for (line, col, msg) in hits {
            self.emit("no-ambient-authority", line, col, msg);
        }
    }

    /// `parser-limit-guard`: every `pub fn parse*` or `pub fn events*` in
    /// the parser crates must route through a `_with_limits` variant (PR
    /// 2's hard input limits must stay un-bypassable; the streaming-ingest
    /// event iterators are entry points just like the tree parsers).
    fn rule_parser_limit_guard(&mut self) {
        if self.kind != FileKind::Lib || !self.in_crate(LIMIT_GUARDED_CRATES) {
            return;
        }
        let mut hits = Vec::new();
        let mut i = 0usize;
        while i < self.code.len() {
            if self.lib_tok(i).is_none() || !self.code[i].is_ident("pub") {
                i += 1;
                continue;
            }
            // skip a `pub(crate)` / `pub(super)` qualifier
            let mut j = i + 1;
            if self.peek_punct(j, '(') {
                j = self.matching_paren(j) + 1;
            }
            if !self.code.get(j).is_some_and(|t| t.is_ident("fn")) {
                i += 1;
                continue;
            }
            let Some(name_tok) = self.code.get(j + 1).copied() else {
                break;
            };
            let name = name_tok.text;
            let guarded = name.starts_with("parse") || name.starts_with("events");
            if !guarded || name.ends_with("_with_limits") {
                i = j + 1;
                continue;
            }
            let (body_start, body_end) = self.fn_body(j + 1);
            let delegated = self.code[body_start..body_end].iter().any(|t| {
                t.kind == TokKind::Ident
                    && (t.text.ends_with("_with_limits") || t.text.contains("Limits"))
            });
            if !delegated {
                hits.push((name_tok.line, name_tok.col, name.to_string()));
            }
            i = body_end;
        }
        for (line, col, name) in hits {
            self.emit(
                "parser-limit-guard",
                line,
                col,
                format!(
                    "`pub fn {name}` does not route through a `_with_limits` \
                     variant — unlimited parser entry points regress the \
                     resource-limit guarantees"
                ),
            );
        }
    }

    /// `i` points at `(`; return the index of its matching `)`.
    fn matching_paren(&self, i: usize) -> usize {
        let mut depth = 0i32;
        for k in i..self.code.len() {
            if self.code[k].is_punct('(') {
                depth += 1;
            } else if self.code[k].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// From a fn's name token index, locate its `{ … }` body; returns
    /// `(start, end)` token indices (end exclusive). A bodyless trait
    /// method returns an empty range.
    fn fn_body(&self, name_idx: usize) -> (usize, usize) {
        let mut depth = 0i32;
        let mut i = name_idx;
        while i < self.code.len() {
            let t = &self.code[i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                // matching brace
                let mut bd = 0i32;
                for k in i..self.code.len() {
                    if self.code[k].is_punct('{') {
                        bd += 1;
                    } else if self.code[k].is_punct('}') {
                        bd -= 1;
                        if bd == 0 {
                            return (i + 1, k);
                        }
                    }
                }
                return (i + 1, self.code.len());
            } else if t.is_punct(';') && depth == 0 {
                return (i, i); // declaration without body
            }
            i += 1;
        }
        (i, i)
    }

    /// `crate-hygiene`: every crate root must carry
    /// `#![forbid(unsafe_code)]`.
    fn rule_crate_hygiene(&mut self) {
        if !is_crate_root(self.rel) {
            return;
        }
        let mut i = 0usize;
        while i + 7 < self.code.len() {
            if self.code[i].is_punct('#')
                && self.code[i + 1].is_punct('!')
                && self.code[i + 2].is_punct('[')
                && self.code[i + 3].is_ident("forbid")
                && self.code[i + 4].is_punct('(')
                && self.code[i + 5].is_ident("unsafe_code")
                && self.code[i + 6].is_punct(')')
                && self.code[i + 7].is_punct(']')
            {
                return;
            }
            i += 1;
        }
        self.emit(
            "crate-hygiene",
            1,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    fn into_analyzed(mut self) -> AnalyzedFile {
        // Function facts feed the workspace call-graph rules. Test and
        // example files are excluded wholesale: their functions are free
        // to take locks in adversarial orders (the runtime sanitizer's
        // own tests invert a pair on purpose).
        let fns = if matches!(self.kind, FileKind::Lib | FileKind::Bin) {
            let items = crate::parse::parse_items(&self.code, &self.in_test);
            crate::facts::extract(self.rel, &self.code, &self.in_test, &items)
        } else {
            Vec::new()
        };
        let test_lines: std::collections::BTreeSet<u32> = self
            .code
            .iter()
            .zip(&self.in_test)
            .filter(|(_, masked)| **masked)
            .map(|(t, _)| t.line)
            .collect();
        let mut allows = Vec::new();
        for (line, entries) in &self.allows {
            for a in entries {
                allows.push(AllowSite {
                    line: *line,
                    col: a.col,
                    rule: a.rule.clone(),
                    used: a.used,
                    // A directive sits on the offending line or the line
                    // above it, so either line being masked makes it a
                    // test-code directive.
                    in_test: test_lines.contains(line) || test_lines.contains(&(line + 1)),
                });
            }
        }
        self.diags
            .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        AnalyzedFile {
            rel: self.rel.to_string(),
            kind: self.kind,
            fns,
            diags: self.diags,
            allows,
        }
    }
}

/// Is this workspace-relative path a crate root (`lib.rs`, `main.rs`, or
/// a `src/bin/*.rs` binary root)?
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs")
                || rel.ends_with("/src/main.rs")
                || (rel.contains("/src/bin/") && rel.ends_with(".rs"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(rel: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(rel, FileKind::Lib, src)
    }

    #[test]
    fn unwrap_flagged_in_lib_but_not_in_cfg_test_mod() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let d = lint_lib("crates/core/src/engine.rs", src);
        let unwraps: Vec<_> = d.iter().filter(|d| d.rule == "no-unwrap-in-lib").collect();
        assert_eq!(unwraps.len(), 1, "{d:?}");
        assert_eq!(unwraps[0].line, 1);
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = "// .unwrap() in a comment\npub fn f() -> &'static str { \".unwrap()\" }\n";
        let d = lint_lib("crates/core/src/engine.rs", src);
        assert!(d.iter().all(|d| d.rule != "no-unwrap-in-lib"), "{d:?}");
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_errors() {
        let with_reason = "pub fn f(x: Option<u8>) -> u8 {\n    \
            // lint: allow(no-unwrap-in-lib) — checked two lines up\n    x.unwrap()\n}\n";
        let d = lint_lib("crates/core/src/engine.rs", with_reason);
        assert!(d.is_empty(), "{d:?}");

        let no_reason = "pub fn f(x: Option<u8>) -> u8 {\n    \
            // lint: allow(no-unwrap-in-lib)\n    x.unwrap()\n}\n";
        let d = lint_lib("crates/core/src/engine.rs", no_reason);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"), "{d:?}");
    }

    #[test]
    fn partial_cmp_impl_is_exempt_but_call_is_not() {
        let src = "impl PartialOrd for V { fn partial_cmp(&self, o: &V) -> Option<Ordering> \
                   { self.0.partial_cmp(&o.0) } }";
        let d = lint_lib("crates/relational/src/types.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "float-total-cmp").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
    }

    #[test]
    fn max_against_constant_is_fine_on_cost_paths() {
        let ok = "fn f(a: f64) -> f64 { a.max(0.0).max(f64::MIN_POSITIVE) }";
        assert!(lint_lib("crates/core/src/cost.rs", ok).is_empty());
        let bad = "fn f(a: f64, b: f64) -> f64 { a.max(b) }";
        let d = lint_lib("crates/core/src/cost.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-total-cmp");
        // outside the cost-path file list, computed max is not flagged
        assert!(lint_lib("crates/xml/src/tree.rs", bad).is_empty());
    }

    #[test]
    fn hashmap_flagged_only_in_fingerprint_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_lib("crates/pschema/src/shred.rs", src).len(), 1);
        assert_eq!(lint_lib("crates/core/src/cost.rs", src).len(), 1);
        assert!(lint_lib("crates/core/src/search.rs", src).is_empty());
    }

    #[test]
    fn ambient_authority_flagged_outside_util_and_bench() {
        let src = "fn f() { let _ = std::env::var(\"X\"); let _ = Instant::now(); }";
        let d = lint_lib("crates/core/src/engine.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(lint_lib("crates/util/src/governor.rs", src).is_empty());
        assert!(lint_lib("crates/bench/src/harness.rs", src).is_empty());
        assert!(lint_source("tests/pipeline.rs", FileKind::Test, src).is_empty());
    }

    #[test]
    fn filesystem_access_flagged_outside_util() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); \
                   let _ = File::open(\"y\"); \
                   let _ = OpenOptions::new().read(true); }";
        let d = lint_lib("crates/core/src/engine.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "no-ambient-authority"));
        assert!(d[0].message.contains("DirHandle"), "{:?}", d[0].message);
        // util owns the capability type, so it alone may touch std::fs
        assert!(lint_lib("crates/util/src/fs.rs", src).is_empty());
        // bench is clock-exempt but NOT fs-exempt
        let d = lint_lib("crates/bench/src/harness.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        // tests may use std::fs for scratch dirs
        assert!(lint_source("tests/robustness.rs", FileKind::Test, src).is_empty());
    }

    #[test]
    fn thread_starts_flagged_outside_util() {
        let src = "fn f() { std::thread::spawn(|| {}); \
                   std::thread::scope(|_| {}); \
                   let _ = thread::Builder::new(); }";
        let d = lint_lib("crates/core/src/search.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.message.contains("steal_map_catch")));
        // bench is clock-exempt but must run its threads through util too
        assert_eq!(lint_lib("crates/bench/src/harness.rs", src).len(), 3);
        assert!(lint_lib("crates/util/src/par.rs", src).is_empty());
        assert!(lint_source("tests/robustness.rs", FileKind::Test, src).is_empty());
    }

    #[test]
    fn dirhandle_capability_path_is_sanctioned() {
        let src = "use legodb_util::fs::DirHandle;\n\
                   fn f(d: &legodb_util::fs::DirHandle) { let _ = d.read(\"x\"); }";
        assert!(lint_lib("crates/relational/src/wal.rs", src).is_empty());
        // ...but a bare `fs::` path is still ambient
        let src = "use legodb_util::fs;\nfn f() { let _ = fs::DirHandle::open(\".\"); }";
        let d = lint_lib("crates/relational/src/wal.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn parser_limit_guard_requires_delegation() {
        let bad = "pub fn parse(input: &str) -> Result<Doc, E> { run(input) }";
        let d = lint_lib("crates/xml/src/parse.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "parser-limit-guard");
        let good = "pub fn parse(input: &str) -> Result<Doc, E> \
                    { parse_with_limits(input, &ParseLimits::default()) }\n\
                    pub fn parse_with_limits(input: &str, l: &ParseLimits) -> Result<Doc, E> \
                    { run(input, l) }";
        assert!(lint_lib("crates/xml/src/parse.rs", good).is_empty());
        // other crates are out of scope
        assert!(lint_lib("crates/imdb/src/gen.rs", bad).is_empty());
    }

    #[test]
    fn parser_limit_guard_covers_event_iterators() {
        // Streaming entry points are entry points: `pub fn events*` must
        // route through limits just like `pub fn parse*`.
        let bad = "pub fn events(input: &str) -> Events<'_> { Events::new(input) }";
        let d = lint_lib("crates/xml/src/events.rs", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "parser-limit-guard");
        assert!(d[0].message.contains("events"), "{:?}", d[0].message);
        let good = "pub fn events(input: &str) -> Events<'_> \
                    { events_with_limits(input, &ParseLimits::default()) }\n\
                    pub fn events_with_limits(input: &str, l: &ParseLimits) -> Events<'_> \
                    { Events::new(input, l) }";
        assert!(lint_lib("crates/xml/src/events.rs", good).is_empty());
    }

    #[test]
    fn crate_hygiene_wants_forbid_unsafe() {
        let d = lint_lib("crates/xml/src/lib.rs", "pub fn f() {}");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "crate-hygiene");
        assert!(lint_lib(
            "crates/xml/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        // non-roots don't need it
        assert!(lint_lib("crates/xml/src/parse.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// lint: allow(no-such-rule) — whatever\nfn f() {}\n";
        let d = lint_lib("crates/core/src/engine.rs", src);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"));
    }

    #[test]
    fn stale_allow_is_itself_a_diagnostic() {
        // The rule no longer fires on the excused line — the directive
        // is dead weight and must be deleted.
        let src = "// lint: allow(no-unwrap-in-lib) — was needed before the refactor\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let d = lint_lib("crates/core/src/engine.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "allow-unused");
        assert_eq!(d[0].line, 1);
        // ...while a directive that suppresses something stays silent.
        let used = "pub fn f(x: Option<u8>) -> u8 {\n    \
            // lint: allow(no-unwrap-in-lib) — checked two lines up\n    x.unwrap()\n}\n";
        assert!(lint_lib("crates/core/src/engine.rs", used).is_empty());
    }

    #[test]
    fn allow_inside_test_code_is_exempt_from_allow_unused() {
        // Rules skip masked code, so an allow there can never be used;
        // it must not be punished for that.
        let src = "#[cfg(test)]\nmod tests {\n    \
                   // lint: allow(no-unwrap-in-lib) — test scaffolding\n    \
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_lib("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn flow_rules_respect_allow_directives() {
        let src = "impl W { fn commit(&self) {\n    \
                   let inner = self.inner.write();\n    \
                   // lint: allow(guard-across-fsync) — single-writer WAL holds the seam\n    \
                   inner.log.sync();\n} }";
        let d = lint_lib("crates/relational/src/wal2.rs", src);
        assert!(d.is_empty(), "{d:?}");
        // Without the directive the rule fires through lint_source too.
        let bare = "impl W { fn commit(&self) {\n    \
                    let inner = self.inner.write();\n    inner.log.sync();\n} }";
        let d = lint_lib("crates/relational/src/wal2.rs", bare);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "guard-across-fsync");
    }

    #[test]
    fn test_files_contribute_no_flow_facts() {
        // Integration tests may invert lock orders on purpose (the
        // runtime sanitizer's own tests do); they are out of scope.
        let src = "fn helper() { let b = B.write(); let a = A.read(); }\n\
                   fn other() { let a = A.write(); let b = B.read(); }\n";
        assert!(lint_source("tests/locks.rs", FileKind::Test, src).is_empty());
        let d = lint_source("crates/core/src/locks.rs", FileKind::Lib, src);
        assert!(d.iter().any(|d| d.rule == "lock-order"), "{d:?}");
    }
}
