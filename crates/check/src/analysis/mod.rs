//! Syntax-aware source rules (R1–R9) over the whole workspace — the one
//! lint engine.
//!
//! On top of the [`crate::lint`] tokenizer, this module parses each
//! file into brace-aware token trees ([`tree`]), recognizes items
//! ([`items`]), indexes struct fields workspace-wide, and walks function
//! bodies with binding/guard/condition tracking ([`rules`]). That buys the
//! precision the accounting rule (R7) needs: a `-=` is only a finding if
//! its lvalue is an unsigned counter with no checked/guarded subtraction in
//! scope. Every other rule, the determinism rule (R6) included, is a scan
//! of the token stream.
//!
//! The entry points are [`analyze`] (filesystem) and [`analyze_sources`]
//! (pure, for tests and the [`selftest`] mutant harness). Findings can be
//! suppressed by `crates/check/analyze.allow` — one line per site with a
//! mandatory written justification; the file must stay sorted, and an entry
//! whose site no longer trips its rule fails the run (anti-staleness).

pub mod items;
pub mod rules;
pub mod selftest;
pub mod tree;

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;

use crate::lint::{self, test_mask, tokenize, Violation};
use items::{collect_items, Items};
use rules::{scope_of, FieldIndex, FnWalker};

/// Relative path of the allowlist file, `/`-separated.
pub const ALLOWLIST_PATH: &str = "crates/check/analyze.allow";

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
struct AllowEntry {
    /// Raw line, for sort checking and error messages.
    raw: String,
    /// 1-based line in the allowlist file.
    line: usize,
    rule: String,
    file: String,
    /// Substring that must occur on the finding's source line.
    needle: String,
}

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Rule findings that survived allowlist suppression.
    pub findings: Vec<Violation>,
    /// Allowlist hygiene problems: malformed, unsorted, or stale entries.
    pub problems: Vec<String>,
    /// Findings suppressed by the allowlist (for reporting).
    pub suppressed: usize,
}

impl Analysis {
    /// Whether the workspace is clean: no findings and no allowlist
    /// problems.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.problems.is_empty()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.findings {
            writeln!(f, "  {v}")?;
        }
        for p in &self.problems {
            writeln!(f, "  allowlist: {p}")?;
        }
        write!(
            f,
            "analyze: {} finding{}, {} allowlist problem{}, {} suppressed",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.problems.len(),
            if self.problems.len() == 1 { "" } else { "s" },
            self.suppressed,
        )
    }
}

/// Parses the allowlist. Format, one entry per line:
///
/// ```text
/// RULE FILE NEEDLE -- justification text
/// ```
///
/// `NEEDLE` is a whitespace-free substring that must appear on the flagged
/// source line. Blank lines and `#` comments are skipped. Problems are
/// appended rather than fatal so one bad line doesn't hide the rest.
fn parse_allowlist(src: &str, problems: &mut Vec<String>) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let Some((head, justification)) = t.split_once(" -- ") else {
            problems.push(format!(
                "{ALLOWLIST_PATH}:{line}: missing ` -- justification` separator"
            ));
            continue;
        };
        if justification.trim().len() < 10 {
            problems.push(format!(
                "{ALLOWLIST_PATH}:{line}: justification too short — write down *why* this site is safe"
            ));
            continue;
        }
        let parts: Vec<&str> = head.split_whitespace().collect();
        let [rule, file, needle] = parts[..] else {
            problems.push(format!(
                "{ALLOWLIST_PATH}:{line}: expected `RULE FILE NEEDLE -- justification`, got {} field(s)",
                parts.len()
            ));
            continue;
        };
        entries.push(AllowEntry {
            raw: t.to_string(),
            line,
            rule: rule.to_string(),
            file: file.to_string(),
            needle: needle.to_string(),
        });
    }
    for w in entries.windows(2) {
        if w[0].raw > w[1].raw {
            problems.push(format!(
                "{ALLOWLIST_PATH}:{}: entries must be byte-sorted (`{}` after `{}`)",
                w[1].line, w[1].raw, w[0].raw
            ));
        }
    }
    entries
}

/// Analyzes in-memory sources. `files` holds `(workspace-relative path,
/// source)` pairs; `allow` is the allowlist file content (empty for none).
///
/// Pass 1 indexes struct fields across every file so cross-file field
/// accesses classify; pass 2 runs the token rules and, over accounting
/// files, the per-function walker. Findings matching a live allowlist entry are suppressed;
/// allowlist entries matching nothing are reported stale.
#[must_use]
pub fn analyze_sources(files: &[(String, String)], allow: &str) -> Analysis {
    let mut problems = Vec::new();
    let entries = parse_allowlist(allow, &mut problems);

    // Pass 1: workspace-wide struct-field index.
    let mut fidx = FieldIndex::default();
    for (path, src) in files {
        let lines = tokenize(src);
        let trees = tree::parse(&lines);
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        fidx.add_structs(path, &items.structs);
    }

    // Pass 2: rules.
    let mut raw_findings = Vec::new();
    for (path, src) in files {
        let scope = scope_of(path);
        let lines = tokenize(src);
        let toks = tree::lex(&lines);
        let mask = test_mask(&lines);
        rules::token_rules(path, &lines, &toks, &mask, scope, &mut raw_findings);
        if scope.accounting {
            let trees = tree::parse(&lines);
            let mut items = Items::default();
            collect_items(&trees, false, &mut items);
            let mut walker = FnWalker::new(path, &fidx, &mut raw_findings);
            for f in items.fns.iter().filter(|f| !f.in_test) {
                if let Some(body) = f.body {
                    walker.walk_fn(body);
                }
            }
        }
    }

    // R5 needs the event/export pair side by side.
    let by_path: HashMap<&str, &str> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    if let (Some(ev), Some(ex)) = (
        by_path.get("crates/telemetry/src/event.rs"),
        by_path.get("crates/telemetry/src/export.rs"),
    ) {
        raw_findings.extend(lint::trace_event_exhaustiveness(ev, ex));
    }

    // Allowlist suppression with staleness accounting.
    let mut used = vec![false; entries.len()];
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for v in raw_findings {
        let src_line = by_path
            .get(v.file.as_str())
            .and_then(|s| s.lines().nth(v.line.saturating_sub(1)))
            .unwrap_or("");
        let hit = entries
            .iter()
            .position(|e| e.rule == v.rule && e.file == v.file && src_line.contains(&e.needle));
        if let Some(i) = hit {
            used[i] = true;
            suppressed += 1;
        } else {
            findings.push(v);
        }
    }
    for (e, used) in entries.iter().zip(&used) {
        if !used {
            problems.push(format!(
                "{ALLOWLIST_PATH}:{}: stale entry `{} {} {}` — the site no longer trips the rule; delete the entry",
                e.line, e.rule, e.file, e.needle
            ));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        findings,
        problems,
        suppressed,
    }
}

/// Loads every `crates/*/src/**/*.rs` under `root` as workspace-relative
/// `(path, source)` pairs, sorted by path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            lint::rs_files(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, std::fs::read_to_string(&p)?));
    }
    Ok(files)
}

/// Analyzes the workspace on disk, reading the allowlist if present.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let files = load_workspace(root)?;
    let allow = std::fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    Ok(analyze_sources(&files, &allow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // The CI gate in miniature: analyzing the enclosing workspace from
        // the crate's own manifest dir finds nothing and no allowlist entry
        // has gone stale.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let a = analyze(root).expect("workspace walk");
        assert!(a.ok(), "{a}");
    }

    #[test]
    fn allowlist_suppresses_matching_finding() {
        let files = [f(
            "crates/core/src/sched.rs",
            "struct S { clients: HashMap<u32, St> }\n",
        )];
        let dirty = analyze_sources(&files, "");
        assert_eq!(dirty.findings.len(), 1, "{dirty:?}");
        let allow = "det-hash-container crates/core/src/sched.rs clients: -- \
                     unit-test fixture justifying enough characters\n";
        let clean = analyze_sources(&files, allow);
        assert!(clean.ok(), "{clean}");
        assert_eq!(clean.suppressed, 1);
    }

    #[test]
    fn stale_allowlist_entry_is_a_problem() {
        let files = [f("crates/core/src/sched.rs", "fn ok() {}\n")];
        let allow = "det-hash-container crates/core/src/sched.rs nothing_here -- \
                     site was fixed but the entry lingers on\n";
        let a = analyze_sources(&files, allow);
        assert!(!a.ok());
        assert!(a.problems[0].contains("stale"), "{:?}", a.problems);
    }

    #[test]
    fn unsorted_allowlist_is_a_problem() {
        let files = [f(
            "crates/core/src/sched.rs",
            "struct S {\n    b: HashMap<u32, u32>,\n    a: HashMap<u32, u32>,\n}\n",
        )];
        let allow = "det-hash-container crates/core/src/sched.rs b: -- \
                     fixture entry for the sortedness check\n\
                     det-hash-container crates/core/src/sched.rs a: -- \
                     fixture entry for the sortedness check\n";
        let a = analyze_sources(&files, allow);
        assert!(
            a.problems.iter().any(|p| p.contains("byte-sorted")),
            "{:?}",
            a.problems
        );
    }

    #[test]
    fn malformed_and_unjustified_entries_are_problems() {
        let files = [f("crates/core/src/sched.rs", "fn ok() {}\n")];
        let a = analyze_sources(&files, "no separator here\nR6 f.rs needle -- short\n");
        assert_eq!(a.problems.len(), 2, "{:?}", a.problems);
        assert!(a.problems[0].contains("separator"));
        assert!(a.problems[1].contains("justification too short"));
    }

    #[test]
    fn cross_file_field_classification_via_global_index() {
        // `JobTable.outstanding` is declared in one file, debited from
        // another.
        let files = [
            f(
                "crates/core/src/tables.rs",
                "pub struct JobTable { pub outstanding: u64 }\n",
            ),
            f(
                "crates/core/src/sched.rs",
                "fn done(t: &mut JobTable) {\n    t.outstanding -= 1;\n}\n",
            ),
        ];
        let a = analyze_sources(&files, "");
        assert_eq!(a.findings.len(), 1, "{a:?}");
        assert_eq!(a.findings[0].rule, rules::R7);
    }

    #[test]
    fn r5_runs_when_both_telemetry_files_present() {
        let files = [
            f(
                "crates/telemetry/src/event.rs",
                "pub enum TraceEvent {\n    A,\n    B,\n}\nimpl TraceEvent {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            TraceEvent::A => \"a\",\n            TraceEvent::B => \"b\",\n        }\n    }\n}\n",
            ),
            f("crates/telemetry/src/export.rs", "fn export() { /* nothing */ }\n"),
        ];
        let a = analyze_sources(&files, "");
        assert_eq!(
            a.findings
                .iter()
                .filter(|v| v.rule == "trace-event-exhaustiveness")
                .count(),
            2,
            "{a:?}"
        );
    }
}
