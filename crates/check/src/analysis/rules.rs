//! Rules R1–R9 over token trees.
//!
//! Two execution strategies, matched to what each rule needs:
//!
//! * **Linear token rules** (R1–R4, R6, R8, R9) scan the flat token stream
//!   with the `#[cfg(test)]` mask — they need operator fusion and
//!   literal-blanking but no block structure. R6 is a type ban: the
//!   identifiers `HashMap`/`HashSet` (and the seeded hashers behind them)
//!   may not appear in non-test code of the virtual-time stack, so there is
//!   no iteration order to audit.
//! * **The dataflow-lite rule** (R7 accounting) walks function bodies
//!   statement by statement, tracking `let` bindings, enclosing
//!   `if`/`while` conditions, preceding `assert!` guards, and the
//!   workspace-wide struct-field index, so it can tell an unsigned counter's
//!   bare `-=` from one a `debug_assert!` or a comparison protects.
//!
//! Every rule is heuristic by design: it must never panic on odd code, and
//! it errs toward flagging — the allowlist (with a written justification)
//! is the pressure valve, not a weaker rule.

use std::collections::HashMap;

use super::items::StructItem;
use super::tree::{linearize, LTok, Tok, Tree};
use crate::lint::{justified, Line, Violation};

/// R6 rule id.
pub const R6: &str = "det-hash-container";
/// R7 rule id.
pub const R7: &str = "unchecked-counter-sub";
/// R8 rule id.
pub const R8: &str = "atomic-ordering-audit";
/// R9 rule id.
pub const R9: &str = "float-cmp-totality";

/// Which rules apply to a workspace-relative path.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// R1: virtual-time stack (sim/core/gpu/cluster/llm/workload/telemetry
    /// and the bench harness, which is not carved out).
    pub sim_stack: bool,
    /// R2: lock-free channels.
    pub channels: bool,
    /// R3: per-request hot paths.
    pub hot_path: bool,
    /// R4: every crate's `src/`.
    pub library: bool,
    /// R6: the virtual-time stack minus the reference model
    /// `core/src/waitlist.rs` (it is compared against, never on a run's
    /// path, and is meant to be the naive implementation).
    pub hash_free: bool,
    /// R7: occupancy/accounting structs (core, cluster, gpu).
    pub accounting: bool,
    /// R8: atomic operations (channels, core).
    pub atomics: bool,
    /// R9: float comparisons feeding decisions.
    pub float_cmp: bool,
}

/// Computes the rule scopes for one file path.
pub fn scope_of(path: &str) -> Scope {
    let starts = |p: &str| path.starts_with(p);
    let core = starts("crates/core/src/");
    let cluster = starts("crates/cluster/src/");
    let gpu = starts("crates/gpu/src/");
    let sim = starts("crates/sim/src/");
    let workload = starts("crates/workload/src/");
    let llm = starts("crates/llm/src/");
    let sim_stack = sim
        || core
        || gpu
        || cluster
        || workload
        || llm
        || starts("crates/bench/src/")
        || starts("crates/telemetry/src/");
    Scope {
        sim_stack,
        channels: starts("crates/channels/src/"),
        hot_path: matches!(
            path,
            "crates/core/src/dispatcher.rs" | "crates/core/src/serve.rs"
        ) || cluster,
        library: starts("crates/") && path.contains("/src/"),
        hash_free: sim_stack && path != "crates/core/src/waitlist.rs",
        accounting: core || cluster || gpu || llm,
        atomics: starts("crates/channels/src/") || core,
        float_cmp: sim || core || cluster || workload || gpu || llm,
    }
}

// ---------------------------------------------------------------------------
// Struct-field index
// ---------------------------------------------------------------------------

/// What the rules know about one struct field.
#[derive(Clone, Copy, Debug, Default)]
pub struct FieldClass {
    /// Unsigned scalar counter/gauge (counter-ish name): `-=` can underflow.
    pub counter: bool,
    /// Map with unsigned counter values: `*map.get_mut(k) -= …` underflows.
    pub counter_map: bool,
}

impl FieldClass {
    fn merge(self, other: FieldClass) -> FieldClass {
        // Name collisions across structs resolve conservatively: a field
        // name that is a counter *anywhere* is treated so everywhere the
        // same-file index has no better answer.
        FieldClass {
            counter: self.counter || other.counter,
            counter_map: self.counter_map || other.counter_map,
        }
    }
}

/// Name fragments marking a field as an accounting counter/gauge.
const COUNTER_FRAGMENTS: &[&str] = &[
    "count",
    "outstanding",
    "inflight",
    "queued",
    "free",
    "used",
    "len",
    "resident",
    "running",
    "unplaced",
    "reserved",
    "blocks",
    "threads",
    "registers",
    "regs",
    "shmem",
    "slots",
    "occupancy",
    "credits",
    "budget",
    "seq",
    "per_sm",
];

const UNSIGNED: &[&str] = &["u8", "u16", "u32", "u64", "u128", "usize"];

fn classify_field(name: &str, ty: &str) -> FieldClass {
    let toks: Vec<&str> = ty.split_whitespace().collect();
    let unsigned_somewhere = toks.iter().any(|t| UNSIGNED.contains(t));
    let named = COUNTER_FRAGMENTS.iter().any(|f| name.contains(f));
    let is_map = toks
        .first()
        .is_some_and(|t| *t == "HashMap" || *t == "BTreeMap" || t.ends_with("Map"));
    FieldClass {
        counter: toks.len() == 1 && unsigned_somewhere && named,
        counter_map: is_map && unsigned_somewhere && named,
    }
}

/// Workspace-wide struct-field classification. Lookup prefers fields of
/// structs declared in the same file; unknown names fall back to the global
/// (conservatively merged) index, so cross-crate field accesses still
/// classify.
#[derive(Debug, Default)]
pub struct FieldIndex {
    per_file: HashMap<String, HashMap<String, FieldClass>>,
    global: HashMap<String, FieldClass>,
}

impl FieldIndex {
    /// Adds every field of `structs` (declared in `path`) to the index.
    pub fn add_structs(&mut self, path: &str, structs: &[StructItem]) {
        let file = self.per_file.entry(path.to_string()).or_default();
        for s in structs {
            for f in &s.fields {
                let c = classify_field(&f.name, &f.ty);
                let e = file.entry(f.name.clone()).or_default();
                *e = e.merge(c);
                let g = self.global.entry(f.name.clone()).or_default();
                *g = g.merge(c);
            }
        }
    }

    /// Classification of field `name` as seen from `path`.
    pub fn lookup(&self, path: &str, name: &str) -> FieldClass {
        if let Some(c) = self.per_file.get(path).and_then(|m| m.get(name)) {
            return *c;
        }
        self.global.get(name).copied().unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Linear token rules: R1–R4, R6, R8, R9
// ---------------------------------------------------------------------------

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn ordering_tag(ordering: &str) -> Option<&'static str> {
    match ordering {
        "Relaxed" => Some("relaxed:"),
        "Acquire" => Some("acquire:"),
        "Release" => Some("release:"),
        "AcqRel" => Some("acqrel:"),
        "SeqCst" => Some("seqcst:"),
        _ => None,
    }
}

fn seq(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(i + k).is_some_and(|t| t.text == *p))
}

/// Runs the token-stream rules over one file.
#[allow(clippy::too_many_lines)]
pub(crate) fn token_rules(
    path: &str,
    lines: &[Line],
    toks: &[Tok],
    mask: &[bool],
    scope: Scope,
    out: &mut Vec<Violation>,
) {
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };
    let in_test = |line: usize| mask.get(line).copied().unwrap_or(false);
    for (i, t) in toks.iter().enumerate() {
        // R1: wall clock in the virtual-time stack (applies in tests too —
        // a test that reads the host clock is as nondeterministic as the
        // code it checks).
        if scope.sim_stack && t.ident && (t.text == "Instant" || t.text == "SystemTime") {
            push(
                t.line,
                "no-wall-clock",
                "wall-clock time in the virtual-time simulation stack".into(),
            );
        }
        if in_test(t.line) {
            continue;
        }
        // R2: Relaxed in channels needs a written argument.
        if scope.channels
            && seq(toks, i, &["Ordering", "::", "Relaxed"])
            && !justified(lines, t.line, "relaxed:")
        {
            push(
                t.line,
                "relaxed-needs-justification",
                "Ordering::Relaxed without a `relaxed:` justification comment".into(),
            );
        }
        // R3: hot-path unwrap/bare expect.
        if scope.hot_path {
            if seq(toks, i, &[".", "unwrap", "(", ")"]) {
                push(
                    toks[i + 1].line,
                    "hot-path-unwrap",
                    "unwrap() on a request hot path; use expect() with an `invariant:` comment"
                        .into(),
                );
            }
            if seq(toks, i, &[".", "expect", "("])
                && !justified(lines, toks[i + 1].line, "invariant:")
            {
                push(
                    toks[i + 1].line,
                    "hot-path-unwrap",
                    "expect() on a request hot path without an `invariant:` comment".into(),
                );
            }
        }
        // R4: no sleeping in library code.
        if scope.library && seq(toks, i, &["thread", "::", "sleep"]) {
            push(
                t.line,
                "no-thread-sleep",
                "thread::sleep in library code; the stack is event-driven".into(),
            );
        }
        // R6: no seeded-hash container (or hasher) in the virtual-time
        // stack, used or merely named — `IdMap` and `BTreeMap` iterate in
        // key order, so same-seed runs agree across processes by
        // construction.
        if scope.hash_free
            && t.ident
            && matches!(
                t.text.as_str(),
                "HashMap" | "HashSet" | "RandomState" | "DefaultHasher"
            )
        {
            push(
                t.line,
                R6,
                format!(
                    "{} is per-process seeded; the virtual-time stack uses IdMap or BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }
        // R8: every atomic op needs a per-operation ordering justification.
        if scope.atomics
            && t.ident
            && ATOMIC_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            // Scan the argument region (to the matching close paren) for
            // Ordering::X mentions; no Ordering argument ⇒ not an atomic op
            // (e.g. `.load` of a config cache).
            let mut depth = 0i64;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    "Ordering" if seq(toks, j, &["Ordering", "::"]) => {
                        if let Some(ord) = toks.get(j + 2) {
                            let tag = ordering_tag(&ord.text);
                            // R2 already owns Relaxed-in-channels; R8 covers
                            // every other (file, ordering) pair so no op is
                            // double-reported.
                            let r2_owns = scope.channels && ord.text == "Relaxed";
                            if let (Some(tag), false) = (tag, r2_owns) {
                                let ok = justified(lines, ord.line, tag)
                                    || justified(lines, ord.line, "ordering:")
                                    || justified(lines, t.line, tag)
                                    || justified(lines, t.line, "ordering:");
                                if !ok {
                                    push(
                                        ord.line,
                                        R8,
                                        format!(
                                            "atomic `{}` with Ordering::{} lacks an adjacent `{}` (or `ordering:`) justification",
                                            t.text, ord.text, tag
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // R9: NaN-unsafe comparisons in decision code. `fn partial_cmp` is
        // a PartialOrd impl, not a use site.
        if scope.float_cmp
            && t.ident
            && t.text == "partial_cmp"
            && !(i > 0 && toks[i - 1].text == "fn")
        {
            let fwd_panics = toks[i..]
                .iter()
                .take_while(|x| x.text != ";")
                .take(40)
                .any(|x| x.ident && (x.text == "unwrap" || x.text == "expect"));
            let back_sorts = toks[..i]
                .iter()
                .rev()
                .take_while(|x| x.text != ";" && x.text != "{")
                .take(40)
                .any(|x| {
                    x.ident
                        && matches!(
                            x.text.as_str(),
                            "sort_by"
                                | "sort_unstable_by"
                                | "max_by"
                                | "min_by"
                                | "binary_search_by"
                        )
                });
            if fwd_panics || back_sorts {
                push(
                    t.line,
                    R9,
                    "NaN-unsafe partial_cmp in decision code; use f64::total_cmp or an integer key"
                        .into(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dataflow-lite walker: R7 accounting
// ---------------------------------------------------------------------------

/// One scanned token of a statement (delimiters included as plain tokens).
#[derive(Clone, Debug)]
struct S {
    t: String,
    line: usize,
    id: bool,
}

fn scan(trees: &[Tree]) -> Vec<S> {
    let mut l = Vec::new();
    linearize(trees, false, &mut l);
    l.into_iter()
        .map(|x| match x {
            LTok::T(t) => S {
                id: t.ident,
                t: t.text,
                line: t.line,
            },
            other => S {
                t: other.text().to_string(),
                line: other.line(),
                id: false,
            },
        })
        .collect()
}

/// Walks back from the operator/dot at `at` and collects the receiver chain
/// (outermost first), plus whether it was dereferenced (`*x`). Gives up
/// (empty chain) on anything but a plain `a.b.c` path — unknown receivers
/// are never flagged.
fn chain_back(s: &[S], at: usize) -> (Vec<String>, bool) {
    let mut chain = Vec::new();
    let mut j = at;
    loop {
        if j == 0 {
            chain.clear();
            break;
        }
        j -= 1;
        if s[j].id {
            chain.push(s[j].t.clone());
        } else {
            chain.clear();
            break;
        }
        if j == 0 {
            break;
        }
        if s[j - 1].t == "." {
            j -= 1;
            continue;
        }
        break;
    }
    let deref = !chain.is_empty() && j > 0 && s[j - 1].t == "*";
    chain.reverse();
    (chain, deref)
}

/// Per-function walker state for R7; only files in the `accounting` scope
/// are walked.
pub(crate) struct FnWalker<'a> {
    pub path: &'a str,
    pub fidx: &'a FieldIndex,
    pub out: &'a mut Vec<Violation>,
    conds: Vec<Vec<String>>,
    guards: Vec<Vec<String>>,
    /// `let` bindings in scope, innermost last, and whether each was
    /// initialised from a counter field (so `*name -= …` is a counter
    /// subtraction).
    binds: Vec<(String, bool)>,
}

impl<'a> FnWalker<'a> {
    pub fn new(path: &'a str, fidx: &'a FieldIndex, out: &'a mut Vec<Violation>) -> Self {
        FnWalker {
            path,
            fidx,
            out,
            conds: Vec::new(),
            guards: Vec::new(),
            binds: Vec::new(),
        }
    }

    /// Walks a function body. `walk_block` leaves the scope stacks as it
    /// found them, so one walker serves every fn of a file.
    pub fn walk_fn(&mut self, body: &[Tree]) {
        self.walk_block(body);
    }

    /// Whether the innermost binding of `name` refers to a counter.
    fn counter_ref(&self, name: &str) -> bool {
        self.binds
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .is_some_and(|&(_, counter)| counter)
    }

    /// Whether the RHS of a `let` (the scanned tokens after `=`) names a
    /// counter field.
    fn init_names_counter(&self, s: &[S], eq: usize) -> bool {
        s[eq + 1..].iter().any(|t| {
            let c = self.fidx.lookup(self.path, &t.t);
            t.id && (c.counter || c.counter_map)
        })
    }

    /// Extracts bindings from a control header containing `let`
    /// (`if let Some(r) = …`, `while let …`): pattern idents bind to the
    /// RHS classification.
    fn header_let_binds(&mut self, s: &[S]) {
        let Some(let_at) = s.iter().position(|t| t.t == "let") else {
            return;
        };
        let Some(eq_rel) = s[let_at..].iter().position(|t| t.t == "=") else {
            return;
        };
        let eq = let_at + eq_rel;
        let bind = self.init_names_counter(s, eq);
        for t in &s[let_at + 1..eq] {
            if t.id && t.t.starts_with(|c: char| c.is_ascii_lowercase()) && t.t != "mut" {
                self.binds.push((t.t.clone(), bind));
            }
        }
    }

    fn walk_block(&mut self, children: &[Tree]) {
        let stmts = super::tree::split_stmts(children);
        let base_binds = self.binds.len();
        let base_guards = self.guards.len();
        for stmt in &stmts {
            // Split a trailing `{}` group off: its statements are walked
            // recursively; everything before it is this statement's header.
            let (head, block) = match stmt.trees.last() {
                Some(Tree::Group {
                    delim: '{',
                    children,
                    ..
                }) => (&stmt.trees[..stmt.trees.len() - 1], Some(children)),
                _ => (stmt.trees, None),
            };
            let s = scan(head);
            self.check_sub(&s, &stmt.text);
            // Record guards and bindings *after* checking the statement
            // itself (a guard does not exempt its own line).
            let first = s.first().map(|t| t.t.as_str()).unwrap_or("");
            if first.starts_with("assert") || first.starts_with("debug_assert") {
                self.guards
                    .push(s.iter().filter(|t| t.id).map(|t| t.t.clone()).collect());
            }
            if first == "let" {
                let name = s
                    .iter()
                    .skip(1)
                    .find(|t| t.id && t.t != "mut")
                    .map(|t| t.t.clone());
                if let (Some(name), Some(eq)) = (name, s.iter().position(|t| t.t == "=")) {
                    let bind = self.init_names_counter(&s, eq);
                    self.binds.push((name, bind));
                }
            }
            if let Some(block) = block {
                let inner_binds = self.binds.len();
                let is_cond = first == "if"
                    || first == "while"
                    || (first == "else" && s.iter().any(|t| t.t == "if"));
                if s.iter().any(|t| t.t == "let") && first != "let" {
                    self.header_let_binds(&s);
                }
                if is_cond {
                    self.conds.push(s.iter().map(|t| t.t.clone()).collect());
                }
                self.walk_block(block);
                if is_cond {
                    self.conds.pop();
                }
                self.binds.truncate(inner_binds);
            }
        }
        self.binds.truncate(base_binds);
        self.guards.truncate(base_guards);
    }

    // -- R7 ---------------------------------------------------------------

    fn check_sub(&mut self, s: &[S], stmt_text: &str) {
        if stmt_text.contains("checked_sub") || stmt_text.contains("saturating_sub") {
            return;
        }
        for i in 0..s.len() {
            let sub_assign = s[i].t == "-=";
            // The `x = x - y` spelling of the same unchecked subtraction.
            let reassign = s[i].t == "=" && {
                let (chain, deref) = chain_back(s, i);
                !chain.is_empty() && rhs_repeats_lvalue(s, i, &chain, deref)
            };
            if !sub_assign && !reassign {
                continue;
            }
            let (chain, deref) = chain_back(s, i);
            let Some(comp) = chain.last().cloned() else {
                continue;
            };
            let is_counter = if deref {
                chain.len() == 1 && self.counter_ref(&comp)
            } else if chain.len() >= 2 {
                self.fidx.lookup(self.path, &comp).counter
            } else {
                false // bare locals are not struct accounting state
            };
            if !is_counter || self.sub_guarded(&comp) {
                continue;
            }
            self.out.push(Violation {
                file: self.path.to_string(),
                line: s[i].line + 1,
                rule: R7,
                message: format!(
                    "unchecked subtraction on unsigned counter `{}`; use checked_sub/saturating_sub \
                     or precede with a debug_assert naming `{comp}`",
                    chain.join(".")
                ),
            });
        }
    }

    /// Whether `comp` is protected by a preceding assert in this or an
    /// enclosing block, or by an enclosing comparison condition naming it.
    fn sub_guarded(&self, comp: &str) -> bool {
        if self.guards.iter().any(|g| g.iter().any(|t| t == comp)) {
            return true;
        }
        self.conds.iter().any(|c| {
            c.iter().any(|t| t == comp)
                && c.iter().any(|t| {
                    matches!(t.as_str(), ">" | ">=" | "!=" | "<" | "<=") || t == "checked_sub"
                })
        })
    }
}

/// Whether the tokens after the `=` at `eq` repeat the lvalue chain and then
/// subtract (`self.len = self.len - 1`).
fn rhs_repeats_lvalue(s: &[S], eq: usize, chain: &[String], deref: bool) -> bool {
    let mut expect: Vec<String> = Vec::new();
    if deref {
        expect.push("*".into());
    }
    for (k, c) in chain.iter().enumerate() {
        if k > 0 {
            expect.push(".".into());
        }
        expect.push(c.clone());
    }
    expect.push("-".into());
    s[eq + 1..]
        .iter()
        .take(expect.len())
        .map(|t| t.t.as_str())
        .eq(expect.iter().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_snippet(path: &str, src: &str) -> Vec<Violation> {
        crate::analysis::analyze_sources(&[(path.to_string(), src.to_string())], "").findings
    }

    const SCHED: &str = "crates/core/src/sched.rs";

    /// The rule ids `src` trips when it sits at `path`.
    fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
        analyze_snippet(path, src).iter().map(|v| v.rule).collect()
    }

    #[test]
    fn r1_wall_clock_in_the_virtual_time_stack_tests_included() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        for path in [
            "crates/core/src/x.rs",
            "crates/gpu/src/x.rs",
            "crates/cluster/src/router.rs",
            "crates/bench/src/bin/fig02.rs",
            // No carve-out for the harness.
            "crates/bench/src/sweep.rs",
        ] {
            assert_eq!(rules_at(path, src), ["no-wall-clock"], "{path}");
        }
        assert!(rules_at("crates/channels/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2_relaxed_needs_a_justification_on_its_statement() {
        const CH: &str = "crates/channels/src/x.rs";
        let flagged = [
            "fn f(a: &A) { a.load(Ordering::Relaxed); }\n",
            // The comment belongs to an earlier statement.
            "fn f(a: &A) {\n    // relaxed: justification\n    let y = 1;\n    a.load(Ordering::Relaxed);\n}\n",
        ];
        for src in flagged {
            assert_eq!(rules_at(CH, src), ["relaxed-needs-justification"], "{src}");
        }
        let clean = [
            "fn f(a: &A) { a.load(Ordering::Relaxed); } // relaxed: why\n",
            "fn f(a: &A) {\n    // relaxed: a long justification\n    // spanning two lines.\n    a.load(Ordering::Relaxed);\n}\n",
            // The flagged access is on a continuation line of the statement
            // the comment sits above.
            "fn f(a: &A) {\n    // relaxed: why this is fine\n    let v = a\n        .chained()\n        .load(Ordering::Relaxed);\n}\n",
            "#[cfg(test)]\nmod tests {\n    fn t(a: &A) { a.load(Ordering::Relaxed); }\n}\n",
        ];
        for src in clean {
            assert!(rules_at(CH, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn r3_hot_paths_take_no_unwrap_and_no_bare_expect() {
        let unwrap = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let bare = "fn f(x: Option<u8>) { x.expect(\"msg\"); }\n";
        let ok = "fn f(x: Option<u8>) {\n    // invariant: checked by caller\n    x.expect(\"msg\");\n}\n";
        for path in [
            "crates/core/src/dispatcher.rs",
            "crates/core/src/serve.rs",
            "crates/cluster/src/lib.rs",
            "crates/cluster/src/router.rs",
        ] {
            assert_eq!(rules_at(path, unwrap), ["hot-path-unwrap"], "{path}");
            assert_eq!(rules_at(path, bare), ["hot-path-unwrap"], "{path}");
            assert!(rules_at(path, ok).is_empty(), "{path}");
        }
        assert!(rules_at("crates/core/src/waitlist.rs", unwrap).is_empty());
    }

    #[test]
    fn r4_thread_sleep_banned_outside_tests() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        for path in ["crates/channels/src/x.rs", "crates/bench/src/x.rs"] {
            assert_eq!(rules_at(path, src), ["no-thread-sleep"], "{path}");
        }
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::sleep(d); }\n}\n";
        assert!(rules_at("crates/channels/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn r6_hash_containers_are_banned_by_name_in_the_virtual_time_stack() {
        let cases = [
            "struct S { index: HashMap<u64, u32> }\n",
            "fn f() { let seen: HashSet<u64> = Default::default(); go(seen); }\n",
            "use std::collections::HashMap;\n",
            "fn f() { let h = RandomState::new(); go(h); }\n",
        ];
        for src in cases {
            for path in [
                SCHED,
                "crates/sim/src/event.rs",
                "crates/gpu/src/engine.rs",
                "crates/cluster/src/router.rs",
                "crates/llm/src/engine.rs",
                "crates/workload/src/runner.rs",
                "crates/telemetry/src/export.rs",
                "crates/bench/src/sweep.rs",
            ] {
                assert_eq!(rules_at(path, src), [R6], "{path}: {src}");
            }
            // The reference model and crates outside the stack may hash;
            // so may tests, and a comment may say the word.
            for path in ["crates/core/src/waitlist.rs", "crates/compiler/src/dag.rs"] {
                assert!(rules_at(path, src).is_empty(), "{path}: {src}");
            }
            let gated = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n// a HashMap\n");
            assert!(rules_at(SCHED, &gated).is_empty(), "{gated}");
        }
    }

    const DISP: &str = "crates/core/src/dispatcher.rs";

    #[test]
    fn r7_flags_bare_counter_sub() {
        let src = "struct S { outstanding: u64 }\n\
            impl S {\n    fn f(&mut self) {\n        self.outstanding -= 1;\n    }\n}\n";
        let v: Vec<_> = analyze_snippet(DISP, src)
            .into_iter()
            .filter(|v| v.rule == R7)
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("outstanding"));
    }

    #[test]
    fn r7_debug_assert_before_sub_exempts() {
        let src = "struct S { outstanding: u64 }\n\
            impl S {\n    fn f(&mut self) {\n        debug_assert!(self.outstanding >= 1, \"underflow\");\n        self.outstanding -= 1;\n    }\n}\n";
        assert!(analyze_snippet(DISP, src).iter().all(|v| v.rule != R7));
    }

    #[test]
    fn r7_comparison_condition_exempts() {
        let src = "struct S { reserved: HashMap<u32, u64> }\n\
            impl S {\n    fn f(&mut self, k: u32) {\n        if let Some(r) = self.reserved.get_mut(&k) {\n            if *r > 0 {\n                *r -= 1;\n            }\n        }\n    }\n}\n";
        assert!(analyze_snippet(DISP, src).iter().all(|v| v.rule != R7));
    }

    #[test]
    fn r7_deref_of_counter_map_entry_is_flagged() {
        let src = "struct S { client_inflight: HashMap<u32, u64> }\n\
            impl S {\n    fn f(&mut self, c: u32) {\n        if let Some(n) = self.client_inflight.get_mut(&c) {\n            *n -= 1;\n        }\n    }\n}\n";
        let v: Vec<_> = analyze_snippet(DISP, src)
            .into_iter()
            .filter(|v| v.rule == R7)
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn r7_float_and_local_subs_are_exempt() {
        let src = "struct S { work_us: f64 }\n\
            impl S {\n    fn f(&mut self, d: f64) {\n        self.work_us -= d;\n        let mut left = 3;\n        left -= 1;\n        go(left);\n    }\n}\n";
        assert!(analyze_snippet(DISP, src).iter().all(|v| v.rule != R7));
    }

    #[test]
    fn r7_reassign_spelling_is_flagged() {
        let src = "struct S { len: usize }\n\
            impl S {\n    fn f(&mut self) {\n        self.len = self.len - 1;\n    }\n}\n";
        let v: Vec<_> = analyze_snippet(DISP, src)
            .into_iter()
            .filter(|v| v.rule == R7)
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");
    }

    const CHAN: &str = "crates/channels/src/spsc.rs";

    #[test]
    fn r8_untagged_acquire_is_flagged_and_tagged_is_clean() {
        let bad = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n";
        let v = analyze_snippet(CHAN, bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, R8);
        let good = "fn f(a: &AtomicU64) -> u64 {\n    // acquire: pairs with the tail store\n    a.load(Ordering::Acquire)\n}\n";
        assert!(analyze_snippet(CHAN, good).is_empty());
    }

    #[test]
    fn r8_checks_each_ordering_of_compare_exchange() {
        let src = "fn f(a: &AtomicU64) {\n    // acqrel: justification for the success half only\n    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n}\n";
        let v = analyze_snippet(CHAN, src);
        assert_eq!(v.len(), 1, "only the Acquire half is untagged: {v:?}");
        assert!(v[0].message.contains("Acquire"));
    }

    #[test]
    fn r8_relaxed_in_channels_is_r2_territory() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        let v = analyze_snippet(CHAN, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "relaxed-needs-justification");
    }

    #[test]
    fn r8_non_atomic_load_is_ignored() {
        let src = "fn f(c: &Cache) -> u64 { c.load(7) }\n";
        assert!(analyze_snippet(CHAN, src).is_empty());
    }

    #[test]
    fn r9_partial_cmp_unwrap_flagged_and_total_cmp_clean() {
        let path = "crates/sim/src/stats.rs";
        let bad = "fn sort(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let v = analyze_snippet(path, bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, R9);
        let good = "fn sort(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }\n";
        assert!(analyze_snippet(path, good).is_empty());
    }

    #[test]
    fn r9_partial_ord_impl_is_not_flagged() {
        let path = "crates/sim/src/event.rs";
        let src = "impl PartialOrd for K {\n    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\n";
        assert!(analyze_snippet(path, src).is_empty());
    }

    #[test]
    fn r9_max_by_with_unwrap_or_is_flagged() {
        let path = "crates/core/src/sched.rs";
        let src = "fn pick(v: &[f64]) -> Option<&f64> {\n    v.iter().max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))\n}\n";
        let v = analyze_snippet(path, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, R9);
    }
}
