//! Source rules (R1–R9) over the whole workspace, and the doc rules (R10
//! paths and DESIGN.md sections, R11 items, [`docs`]) over its prose docs —
//! the one lint engine.
//!
//! The [`crate::lint`] tokenizer blanks literals and splits off comments,
//! `tree::lex` turns the code into a flat token stream, and
//! `rules::token_rules` makes one pass over it per file. There is no
//! parser above that and no classification of what a name means: each rule
//! is a ban on a token pattern within a directory scope, and where a ban has
//! exceptions the exception is a tagged comment at the site (`relaxed:`,
//! `invariant:`, `sub:`, the ordering tags), never an entry in a file
//! elsewhere.
//!
//! The entry points are [`analyze`] (filesystem) and [`analyze_sources`]
//! (pure, for tests and the [`selftest`] mutant harness).

pub mod docs;
pub mod rules;
pub mod selftest;
pub mod tree;

use std::fmt;
use std::io;
use std::path::Path;

use crate::lint::{self, Violation};

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Rule findings, sorted by file, line and rule.
    pub findings: Vec<Violation>,
}

impl Analysis {
    /// Whether the workspace is clean.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.findings {
            writeln!(f, "  {v}")?;
        }
        write!(
            f,
            "analyze: {} finding{}",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
        )
    }
}

/// The prose docs R10 checks. CHANGES.md is history: it names what was
/// true when each line was written, so it is not checked.
pub const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Whether `path` (workspace-relative) is a crate's library or binary
/// source, `crates/*/src/**/*.rs`: what R1–R9 check and R11 resolves against.
fn crate_source(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src" && path.ends_with(".rs")
}

/// Analyzes in-memory sources: `(workspace-relative path, source)` pairs.
/// Each of [`DOCS`] gets R10 and R11, resolved against every path listed and
/// everything the crate sources declare, and the crate sources get R1–R9.
/// R10's DESIGN.md section references are resolved in the docs and in the
/// comments of every `.rs` file.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    let mut decls = docs::Decls::default();
    for (path, src) in files {
        if crate_source(path) {
            decls.add_source(src);
        }
    }
    let design = files.iter().find(|(p, _)| p == "DESIGN.md");
    let sections = design.map_or(Vec::new(), |(_, src)| docs::design_sections(src));
    let mut findings = Vec::new();
    for (path, src) in files {
        if DOCS.contains(&path.as_str()) {
            docs::doc_rules(path, src, &paths, &decls, &mut findings);
            docs::section_refs(path, src.lines(), &sections, &mut findings);
        } else if path.ends_with(".rs") {
            if crate_source(path) {
                rules::token_rules(path, src, &mut findings);
            }
            if src.contains("DESIGN") {
                let lines = lint::tokenize(src);
                let comments = lines.iter().map(|l| l.comment.as_str());
                docs::section_refs(path, comments, &sections, &mut findings);
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis { findings }
}

/// Lists every file under `root` as workspace-relative `(path, source)`
/// pairs, sorted by path. Only `.rs` files and [`DOCS`] are read; every
/// other file is listed with empty source, for R10 to resolve paths against.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    lint::files_under(root, &mut paths)?;
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
        let src = if rel.ends_with(".rs") || DOCS.contains(&rel.as_str()) {
            std::fs::read_to_string(&p)?
        } else {
            String::new()
        };
        files.push((rel, src));
    }
    Ok(files)
}

/// Analyzes the workspace on disk.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_sources(&load_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_repo_itself_is_clean() {
        // The CI gate in miniature: analyzing the enclosing workspace from
        // the crate's own manifest dir finds nothing.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let a = analyze(root).expect("workspace walk");
        assert!(a.ok(), "{a}");
    }
}
