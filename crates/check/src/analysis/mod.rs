//! Source rules (R1–R9) over the whole workspace — the one lint engine.
//!
//! The [`crate::lint`] tokenizer blanks literals and splits off comments,
//! [`tree::lex`] turns the code into a flat token stream, and
//! [`rules::token_rules`] makes one pass over it per file. There is no
//! parser above that and no classification of what a name means: each rule
//! is a ban on a token pattern within a directory scope, and where a ban has
//! exceptions the exception is a tagged comment at the site (`relaxed:`,
//! `invariant:`, `sub:`, the ordering tags), never an entry in a file
//! elsewhere.
//!
//! The entry points are [`analyze`] (filesystem) and [`analyze_sources`]
//! (pure, for tests and the [`selftest`] mutant harness).

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

/// Analyzes in-memory sources: `(workspace-relative path, source)` pairs.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut findings = Vec::new();
    for (path, src) in files {
        rules::token_rules(path, src, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis { findings }
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
