//! Rules R1 and R3–R9: one pass over the flat token stream of each file.
//! (R2, `Relaxed` in the channels, is retired: R8 covers every ordering.)
//!
//! Every rule needs operator fusion, literal blanking and the `#[cfg(test)]`
//! mask and nothing more; the two that care about scope (R5: inside which
//! `fn`; R7: which asserts are still in scope) count brace depth as the pass
//! goes. Each rule is either a flat ban (R1, R4, R5, R6, R9) or a ban whose
//! exception is written at the site as a tagged comment found by
//! `lint::justified`: `invariant:` (R3), `sub:` (R7), the ordering tags
//! (R8). There is no second place to suppress a finding.
//!
//! The rules must never panic on odd code, and they err toward flagging.

use super::tree::{group_end, lex, seq, test_mask, Tok};
use crate::lint::{justified, tokenize, Violation};

/// R5 rule id.
pub const R5: &str = "trace-event-exhaustiveness";
/// R6 rule id.
pub const R6: &str = "det-hash-container";
/// R7 rule id.
pub const R7: &str = "unchecked-counter-sub";
/// R8 rule id.
pub const R8: &str = "atomic-ordering-audit";
/// R9 rule id.
pub const R9: &str = "float-cmp-totality";

/// Which rules apply to a workspace-relative path. Scopes are directories,
/// so splitting a file needs no edit here.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// R1: virtual-time stack (sim/core/gpu/cluster/baselines/llm/workload/
    /// telemetry and the bench harness, which is not carved out).
    pub sim_stack: bool,
    /// R3 and R7: the serving engines (core, cluster, baselines, gpu, llm)
    /// minus the reference model `core/src/waitlist.rs`.
    pub engine: bool,
    /// R4: every crate's `src/`.
    pub library: bool,
    /// R5: the functions of this file that must match every `TraceEvent`
    /// variant by name.
    pub exhaustive_fns: &'static [&'static str],
    /// R6: the virtual-time stack minus the reference model
    /// `core/src/waitlist.rs` (it is compared against, never on a run's
    /// path, and is meant to be the naive implementation).
    pub hash_free: bool,
    /// R8: every `Ordering::X` token (channels, core).
    pub atomics: bool,
    /// R9: float comparisons feeding decisions.
    pub float_cmp: bool,
}

/// Computes the rule scopes for one file path.
pub fn scope_of(path: &str) -> Scope {
    let starts = |p: &str| path.starts_with(p);
    let core = starts("crates/core/src/");
    let cluster = starts("crates/cluster/src/");
    let baselines = starts("crates/baselines/src/");
    let gpu = starts("crates/gpu/src/");
    let sim = starts("crates/sim/src/");
    let workload = starts("crates/workload/src/");
    let llm = starts("crates/llm/src/");
    let reference_model = path == "crates/core/src/waitlist.rs";
    let sim_stack = sim
        || core
        || gpu
        || cluster
        || baselines
        || workload
        || llm
        || starts("crates/bench/src/")
        || starts("crates/telemetry/src/");
    Scope {
        sim_stack,
        engine: (core || cluster || baselines || gpu || llm) && !reference_model,
        library: starts("crates/") && path.contains("/src/"),
        exhaustive_fns: match path {
            // The vocabulary table expands into both.
            "crates/telemetry/src/event.rs" => &["kind", "fmt"],
            "crates/telemetry/src/export.rs" => &["place", "chrome_trace_json"],
            _ => &[],
        },
        hash_free: sim_stack && !reference_model,
        atomics: starts("crates/channels/src/") || core,
        float_cmp: sim || core || cluster || baselines || workload || gpu || llm,
    }
}

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

/// Last path component of the place expression that ends just before `at`
/// (`k.running` → `running`, `self.per_sm[i]` → `per_sm`, `*free` → `free`),
/// stepping over trailing index and call groups. `None` when the expression
/// does not end in a name an assert could mention.
fn place_before(toks: &[Tok], at: usize) -> Option<&str> {
    let mut j = at;
    while j > 0 && matches!(toks[j - 1].text.as_str(), "]" | ")") {
        let mut depth = 0usize;
        while j > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                "]" | ")" => depth += 1,
                "[" | "(" => depth = depth.saturating_sub(1),
                _ => {}
            }
            if depth == 0 {
                break;
            }
        }
    }
    let t = toks.get(j.checked_sub(1)?)?;
    (t.ident && !t.text.starts_with(|c: char| c.is_ascii_digit())).then_some(t.text.as_str())
}

/// Runs every rule in scope at `path` over the file's token stream.
#[allow(clippy::too_many_lines)]
pub(crate) fn token_rules(path: &str, src: &str, out: &mut Vec<Violation>) {
    let scope = scope_of(path);
    let lines = &tokenize(src);
    let toks = &lex(lines);
    let mask = test_mask(toks);
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };
    // R7: the identifiers named by asserts so far, one frame per open brace,
    // so `asserted.len()` is also the brace depth.
    let mut asserted: Vec<Vec<&str>> = Vec::new();
    // R5: the function of `scope.exhaustive_fns` the pass is inside, and the
    // brace depth of its `fn` token.
    let mut exhaustive_at: Option<(&str, usize)> = None;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => asserted.push(Vec::new()),
            "}" => {
                asserted.pop();
                if exhaustive_at.is_some_and(|(_, depth)| depth == asserted.len()) {
                    exhaustive_at = None;
                }
            }
            _ => {}
        }
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
        if mask[i] {
            continue;
        }
        // R3: unwrap/bare expect in an engine.
        if scope.engine {
            if seq(toks, i, &[".", "unwrap", "(", ")"]) {
                push(
                    toks[i + 1].line,
                    "hot-path-unwrap",
                    "unwrap() in a serving engine; use expect() with an `invariant:` comment"
                        .into(),
                );
            }
            if seq(toks, i, &[".", "expect", "("])
                && !justified(lines, toks[i + 1].line, "invariant:")
            {
                push(
                    toks[i + 1].line,
                    "hot-path-unwrap",
                    "expect() in a serving engine without an `invariant:` comment".into(),
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
        // R5: no wildcard arm in the functions that consume every
        // `TraceEvent` variant. Without one, rustc itself rejects a variant
        // that lacks an arm; with one, the next variant someone adds is
        // silently swallowed, which is how observability gaps are born.
        if t.text == "fn" {
            if let Some(name) = scope.exhaustive_fns.iter().find(|n| seq(toks, i + 1, &[n])) {
                exhaustive_at = Some((name, asserted.len()));
            }
        }
        if let Some((name, _)) = exhaustive_at.filter(|_| seq(toks, i, &["_", "=>"])) {
            push(
                t.line,
                R5,
                format!("wildcard `_ =>` in {name}() swallows new TraceEvent variants"),
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
        // R7: in an engine a subtraction says why it cannot underflow —
        // an assert that names the subtracted place, earlier in this or an
        // enclosing block, or a `sub:` comment. `saturating_sub` is no
        // proof: it masks the underflow the assert would report.
        if scope.engine {
            let is_assert = t.text.starts_with("assert") || t.text.starts_with("debug_assert");
            if is_assert && seq(toks, i + 1, &["!", "("]) {
                if let Some(frame) = asserted.last_mut() {
                    let args = &toks[i + 2..group_end(toks, i + 2)];
                    frame.extend(args.iter().filter(|a| a.ident).map(|a| a.text.as_str()));
                }
            }
            let place = match t.text.as_str() {
                "-=" => Some(place_before(toks, i)),
                "saturating_sub" | "wrapping_sub" if i > 0 && toks[i - 1].text == "." => {
                    Some(place_before(toks, i - 1))
                }
                // `u64::saturating_sub(a, b)`: no receiver to name.
                "saturating_sub" | "wrapping_sub" => Some(None),
                _ => None,
            };
            if let Some(place) = place {
                let named = place.is_some_and(|p| asserted.iter().flatten().any(|name| *name == p));
                if !named && !justified(lines, t.line, "sub:") {
                    push(
                        t.line,
                        R7,
                        format!(
                            "`{}` on `{}` with no earlier assert naming it in scope and no `sub:` comment saying what bounds it",
                            t.text,
                            place.unwrap_or("<expression>")
                        ),
                    );
                }
            }
        }
        // R8: every ordering says why, wherever it is written — in an atomic
        // call's arguments or in a profile field a call reads later.
        if scope.atomics && seq(toks, i, &["Ordering", "::"]) {
            let ord = toks.get(i + 2).map_or("", |o| o.text.as_str());
            if let Some(tag) = ordering_tag(ord) {
                if !justified(lines, t.line, tag) {
                    push(
                        t.line,
                        R8,
                        format!("Ordering::{ord} lacks an adjacent `{tag}` justification"),
                    );
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_snippet(path: &str, src: &str) -> Vec<Violation> {
        crate::analysis::analyze_sources(&[(path.to_string(), src.to_string())]).findings
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
            "crates/baselines/src/triton.rs",
            "crates/bench/src/bin/fig02.rs",
            // No carve-out for the harness.
            "crates/bench/src/sweep.rs",
        ] {
            assert_eq!(rules_at(path, src), ["no-wall-clock"], "{path}");
        }
        assert!(rules_at("crates/channels/src/x.rs", src).is_empty());
    }

    // R2 is retired into R8; the test keeps the name it had under R2.
    #[test]
    fn r2_relaxed_needs_a_justification_on_its_statement() {
        const CH: &str = "crates/channels/src/x.rs";
        let flagged = [
            "fn f(a: &A) { a.load(Ordering::Relaxed); }\n",
            // The comment belongs to an earlier statement.
            "fn f(a: &A) {\n    // relaxed: justification\n    let y = 1;\n    a.load(Ordering::Relaxed);\n}\n",
            // A generic tag names no ordering.
            "fn f(a: &A) {\n    // ordering: why\n    a.load(Ordering::Relaxed);\n}\n",
        ];
        for src in flagged {
            assert_eq!(rules_at(CH, src), [R8], "{src}");
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
    fn r3_engines_take_no_unwrap_and_no_bare_expect() {
        let unwrap = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let bare = "fn f(x: Option<u8>) { x.expect(\"msg\"); }\n";
        let ok = "fn f(x: Option<u8>) {\n    // invariant: checked by caller\n    x.expect(\"msg\");\n}\n";
        for path in [
            "crates/core/src/dispatcher/mod.rs",
            "crates/core/src/dispatcher/streams.rs",
            "crates/cluster/src/router.rs",
            "crates/baselines/src/triton.rs",
            "crates/gpu/src/engine.rs",
            "crates/llm/src/engine.rs",
        ] {
            assert_eq!(rules_at(path, unwrap), ["hot-path-unwrap"], "{path}");
            assert_eq!(rules_at(path, bare), ["hot-path-unwrap"], "{path}");
            assert!(rules_at(path, ok).is_empty(), "{path}");
        }
        for path in ["crates/core/src/waitlist.rs", "crates/sim/src/event.rs"] {
            assert!(rules_at(path, unwrap).is_empty(), "{path}");
        }
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
                "crates/baselines/src/batching.rs",
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

    #[test]
    fn r5_no_wildcard_arm_where_every_variant_is_consumed() {
        const EVENT: &str = "crates/telemetry/src/event.rs";
        const EXPORT: &str = "crates/telemetry/src/export.rs";
        let kind = "impl TraceEvent {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            TraceEvent::A(_) => \"a\",\n            _ => \"rest\",\n        }\n    }\n}\n";
        let v = analyze_snippet(EVENT, kind);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (R5, 5));
        let render = "pub fn chrome_trace_json(log: &TraceLog) -> String {\n    for e in &log.events {\n        match &e.event {\n            TraceEvent::A(_) => a(),\n            _ => {}\n        }\n    }\n}\n";
        assert_eq!(rules_at(EXPORT, render), [R5]);
        // A file may hold more than one such function.
        let place = "fn place(e: &TraceEvent) -> Option<Track> {\n    match e {\n        TraceEvent::A(_) => None,\n        _ => None,\n    }\n}\n";
        assert_eq!(rules_at(EXPORT, &format!("{place}{render}")), [R5, R5]);
        // The ban is per function: a wildcard before, after, or in another
        // file is an ordinary match.
        let clean = [
            (EVENT, "fn other(x: u8) -> u8 { match x { 0 => 1, _ => 2 } }\nfn kind(e: &E) -> u8 { match e { E::A => 0 } }\nfn after(x: u8) -> u8 { match x { 0 => 1, _ => 2 } }\n"),
            (EXPORT, "fn pair_sm_spans(log: &TraceLog) { match e { A => {} _ => {} } }\n"),
            ("crates/telemetry/src/tracer.rs", kind),
        ];
        for (path, src) in clean {
            assert!(rules_at(path, src).is_empty(), "{path}: {src}");
        }
    }

    #[test]
    fn r7_a_subtraction_names_its_assert_or_says_why() {
        const OCC: &str = "crates/core/src/occupancy.rs";
        // Each flagged snippet holds exactly one subtraction.
        let flagged = [
            // Five subtractions on unsigned struct counters, of which the
            // dataflow walker this rule replaced flagged only the fifth: the
            // others have names outside its fragment list, an indexed
            // place, or a saturating_sub it counted as proof.
            "fn f(&mut self) { self.pending -= 1; }\n",
            "fn f(&mut self) { self.waiting_jobs -= 1; }\n",
            "fn f(&mut self, i: usize) { self.per_sm[i] -= 1; }\n",
            "fn f(&mut self) { self.outstanding = self.outstanding.saturating_sub(1); }\n",
            "fn f(&mut self) { self.outstanding -= 1; }\n",
            "fn f(a: u64, b: u64) -> u64 { a.wrapping_sub(b) }\n",
            // An assert that names a different field.
            "fn f(&mut self) {\n    debug_assert!(self.resident_blocks >= 1);\n    self.running -= 1;\n}\n",
            // An assert in a sibling block that has already closed.
            "fn f(&mut self) {\n    if self.check {\n        assert!(self.running >= 1);\n    }\n    self.running -= 1;\n}\n",
            // Floats get no pass: nothing says the type, so the site does.
            "fn f(&mut self, d: f64) { self.work_us -= d; }\n",
            // A `sub:` on the previous statement only.
            "fn f(&mut self) {\n    // sub: bounded by the line below\n    let n = 1;\n    self.running -= n;\n}\n",
            // A name in the assert's message string is not in its arguments.
            "fn f(&mut self) {\n    debug_assert!(true, \"running underflow\");\n    self.running -= 1;\n}\n",
            // No place an assert could name.
            "fn f(a: u64, b: u64) -> u64 { (a + b).saturating_sub(1) }\n",
            "fn f(p: &mut (u64, u64)) {\n    debug_assert!(p.0 > 0);\n    p.0 -= 1;\n}\n",
        ];
        for src in flagged {
            assert_eq!(rules_at(OCC, src), [R7], "{src}");
        }
        let clean = [
            // An assert naming the component, in the same block…
            "fn f(&mut self, k: &mut K, n: u32) {\n    debug_assert!(k.running >= n, \"underflow\");\n    k.running -= n;\n}\n",
            "fn f(&mut self, i: usize) {\n    assert!(self.per_sm[i] > 0);\n    self.per_sm[i] -= 1;\n}\n",
            "fn f(free: &mut u32) {\n    debug_assert_ne!(*free, 0);\n    *free -= 1;\n}\n",
            // …and in an enclosing one.
            "fn f(&mut self) {\n    debug_assert!(self.running >= 2);\n    for _ in 0..2 {\n        if self.on {\n            self.running -= 1;\n        }\n    }\n}\n",
            "fn f(&mut self) {\n    assert!(self.left >= 1);\n    self.left = self.left.saturating_sub(1);\n}\n",
            // Same-line and comment-above `sub:`.
            "fn f(&mut self, d: f64) { self.work_us -= d; } // sub: f64, may go negative\n",
            "fn f(&mut self) {\n    // sub: the loop runs at most `left` times,\n    // see the bound above.\n    self.left -= 1;\n}\n",
            // checked_sub returns the underflow to its caller.
            "fn f(a: u64, b: u64) -> Option<u64> { a.checked_sub(b) }\n",
        ];
        for src in clean {
            assert!(rules_at(OCC, src).is_empty(), "{src}");
        }
        // Out of scope: test code, the reference model, crates that are
        // not engines.
        let bare = flagged[0];
        let gated = format!("#[cfg(test)]\nmod tests {{\n    {bare}}}\n");
        assert!(rules_at(OCC, &gated).is_empty());
        for path in [
            "crates/core/src/waitlist.rs",
            "crates/workload/src/runner.rs",
            "crates/sim/src/event.rs",
        ] {
            assert!(rules_at(path, bare).is_empty(), "{path}");
        }
        for path in [
            "crates/cluster/src/router.rs",
            "crates/baselines/src/layered.rs",
            "crates/gpu/src/engine.rs",
            "crates/llm/src/kv.rs",
        ] {
            assert_eq!(rules_at(path, bare), [R7], "{path}");
        }
    }

    #[test]
    fn cfg_test_on_a_braceless_item_does_not_hide_the_next_fn() {
        // The line-oriented mask brace-counted from the attribute to the
        // close of the first `{…}` and so swallowed `prod` whole.
        let src = "#[cfg(test)]\nuse a::B;\nfn prod() { let t = std::thread::sleep; let m: HashMap<u8, u8> = HashMap::new(); }";
        let mut rules = rules_at("crates/core/src/x.rs", src);
        rules.dedup();
        assert_eq!(rules, [R6, "no-thread-sleep"]);
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
    fn r8_follows_an_ordering_into_a_profile_field() {
        let tagged = "const P: Ords = Ords {\n    // release: pairs with the scan\n    publish: Ordering::Release,\n};\n";
        assert!(analyze_snippet(CHAN, tagged).is_empty());
        let flagged = [
            "const P: Ords = Ords {\n    publish: Ordering::Release,\n};\n",
            // A tag belongs to its own field, not to the one below it.
            "const P: Ords = Ords {\n    // release: pairs with the scan\n    reset: Ordering::Release,\n    publish: Ordering::Release,\n};\n",
        ];
        for src in flagged {
            assert_eq!(rules_at(CHAN, src), [R8], "{src}");
        }
        let relaxed = "const P: Ords = Ords {\n    // relaxed: a distinct slot per claim\n    claim: Ordering::Relaxed,\n    scan: Ordering::Relaxed,\n};\n";
        assert_eq!(rules_at(CHAN, relaxed), [R8]);
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
