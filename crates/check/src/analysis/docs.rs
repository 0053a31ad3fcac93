//! R10: the prose docs name only files that exist, and never by line.
//!
//! A doc that points at `dispatcher.rs:123` is wrong after the next edit to
//! that file, and one that names a deleted or moved file is wrong at once;
//! neither fails anything but this rule. Over the docs in
//! [`DOCS`](super::DOCS) it bans `file.rs:N` line anchors anywhere, and
//! requires every backticked path ending in `.rs`, `.md`, `.toml`, `.json` or
//! `.yml` outside a fenced block to resolve: as a path from the workspace
//! root, as one under `crates/`, or as the suffix of exactly one workspace
//! file. Generated `results/` paths are exempt.

use crate::lint::Violation;

/// R10 rule id.
pub const R10: &str = "doc-path";

/// File extensions whose backticked paths must resolve.
const EXTS: [&str; 5] = [".rs", ".md", ".toml", ".json", ".yml"];

/// Whether `c` can be part of a plain workspace path.
fn path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./-".contains(c)
}

/// Every `file.rs:N` anchor in `line`.
fn line_anchors(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices(".rs:").filter_map(move |(i, _)| {
        let start = line[..i].trim_end_matches(path_char).len();
        let after = &line[i + 4..];
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        (start < i && digits > 0).then(|| &line[start..i + 4 + digits])
    })
}

/// The workspace path an inline code span names, if it names one.
fn doc_path(span: &str) -> Option<&str> {
    let p = span.trim();
    let p = p.strip_prefix("./").unwrap_or(p);
    let name = p.rsplit('/').next()?;
    let checked = EXTS
        .iter()
        .any(|e| name.len() > e.len() && name.ends_with(e));
    let generated = p.starts_with("results/") || p.contains("/results/");
    (checked && p.chars().all(path_char) && !generated).then_some(p)
}

/// Whether `p` names a file of `files` (workspace-relative paths).
fn resolves(p: &str, files: &[&str]) -> bool {
    let under_crates = format!("crates/{p}");
    let suffix_of = |f: &&&str| {
        f.strip_suffix(p)
            .is_some_and(|head| head.is_empty() || head.ends_with('/'))
    };
    files.iter().any(|f| *f == p || *f == under_crates)
        || files.iter().filter(suffix_of).count() == 1
}

/// Runs R10 over the markdown `src` of the doc at `path`, resolving paths
/// against the workspace listing `files`.
pub(crate) fn doc_rules(path: &str, src: &str, files: &[&str], out: &mut Vec<Violation>) {
    let mut fenced = false;
    for (n, line) in src.lines().enumerate() {
        let mut push = |message: String| {
            out.push(Violation {
                file: path.to_string(),
                line: n + 1,
                rule: R10,
                message,
            });
        };
        for anchor in line_anchors(line) {
            push(format!(
                "line anchor `{anchor}`: name the item instead, line numbers rot"
            ));
        }
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            if let Some(p) = doc_path(span).filter(|p| !resolves(p, files)) {
                push(format!("`{p}` names no workspace file"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILES: [&str; 6] = [
        "README.md",
        "Cargo.toml",
        "crates/core/Cargo.toml",
        "crates/core/src/dispatcher/mod.rs",
        "crates/core/src/sched.rs",
        "crates/gpu/src/engine/mod.rs",
    ];

    fn findings(src: &str) -> Vec<String> {
        let mut out = Vec::new();
        doc_rules("DESIGN.md", src, &FILES, &mut out);
        out.into_iter().map(|v| v.message).collect()
    }

    #[test]
    fn resolving_paths_are_clean() {
        for line in [
            // From the root, under `crates/`, a unique suffix.
            "see `crates/core/src/sched.rs` and `README.md`",
            "see `core/src/sched.rs`, `./Cargo.toml`",
            "see `sched.rs` and `dispatcher/mod.rs`",
            // Generated output, a bare extension, a glob, other spans.
            "writes `results/trace_dump.json`; all `.rs` files; no `BENCH_*.json`",
            "`Dispatcher::new`, `cargo run -p paella-check`, `x.rs y.rs`",
        ] {
            assert!(findings(line).is_empty(), "{line}");
        }
    }

    #[test]
    fn dangling_and_ambiguous_paths_are_flagged() {
        for line in [
            "the deleted `check/src/atomic.rs`",
            "moved to `crates/core/src/dispatcher.rs`",
            // A name two files share points at neither.
            "the engine's `mod.rs`",
        ] {
            assert!(!findings(line).is_empty(), "{line}");
        }
        assert_eq!(findings("`a.rs` and `b.md`").len(), 2);
    }

    #[test]
    fn line_anchors_are_flagged_anywhere() {
        assert_eq!(
            findings("see sched.rs:120 and `crates/core/src/sched.rs:7`"),
            [
                "line anchor `sched.rs:120`: name the item instead, line numbers rot",
                "line anchor `crates/core/src/sched.rs:7`: name the item instead, line numbers rot",
            ]
        );
        assert_eq!(findings("```\nerror at src/x.rs:3:5\n```\n").len(), 1);
        // No file name, or no number: not an anchor.
        assert!(findings(".rs:12 and sched.rs: the scheduler").is_empty());
    }

    #[test]
    fn fenced_blocks_hold_no_paths() {
        assert!(findings("```sh\ncat `missing.rs`\n```\n").is_empty());
        assert_eq!(findings("```\n```\n`missing.rs`\n").len(), 1);
    }
}
