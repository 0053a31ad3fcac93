//! R10: the prose docs name only files that exist, and never by line. R11:
//! the code items they name exist too.
//!
//! A doc that points at `dispatcher.rs:123` is wrong after the next edit to
//! that file, and one that names a deleted or moved file is wrong at once;
//! neither fails anything but this rule. Over the docs in
//! [`DOCS`](super::DOCS) it bans `file.rs:N` line anchors anywhere, and
//! requires every backticked path ending in `.rs`, `.md`, `.toml`, `.json` or
//! `.yml` outside a fenced block to resolve: as a path from the workspace
//! root, as one under `crates/`, or as the suffix of exactly one workspace
//! file. Generated `results/` paths are exempt.
//!
//! R11 reads the same spans for `Type::item` paths (the last two segments of
//! a path whose second to last starts upper-case). `Type` must be a struct,
//! enum, union, trait or type alias the workspace's non-test sources declare,
//! and `item` a fn, const, static, field or variant they declare — so a doc
//! naming a deleted or renamed one fails at once. Types of the standard
//! library in `STD_TYPES` are exempt, and so are placeholders: a one-letter
//! type (a generic parameter, `T::Ev`) and `Type::item` itself.

use std::collections::BTreeSet;

use super::tree::{group_end, lex, test_mask, Tok};
use crate::lint::{tokenize, Violation};

/// R10 rule id.
pub const R10: &str = "doc-path";

/// R11 rule id.
pub const R11: &str = "doc-item";

/// Standard-library types the docs name items of.
const STD_TYPES: [&str; 6] = ["Arc", "Box", "Option", "Ordering", "String", "Vec"];

/// What the workspace's non-test sources declare, by name.
#[derive(Debug, Default)]
pub(crate) struct Decls {
    /// Structs, enums, unions, traits and type aliases.
    types: BTreeSet<String>,
    /// Fns, consts, statics, fields and variants.
    items: BTreeSet<String>,
}

impl Decls {
    /// Adds what the Rust source `src` declares outside `#[cfg(test)]` items.
    pub(crate) fn add_source(&mut self, src: &str) {
        let toks = lex(&tokenize(src));
        let mask = test_mask(&toks);
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = toks.get(i + 1).filter(|n| n.ident && !mask[i]) else {
                continue;
            };
            match t.text.as_str() {
                "struct" | "enum" | "union" => {
                    self.types.insert(name.text.clone());
                    self.add_members(&toks, i + 2, t.text == "enum");
                }
                "trait" | "type" => {
                    self.types.insert(name.text.clone());
                }
                "fn" | "const" | "static" => {
                    self.items.insert(name.text.clone());
                }
                _ => {}
            }
        }
    }

    /// Adds the fields (and with `variants`, the variants) of the struct or
    /// enum whose body is the first `{…}` from `from`, unless a `;` or a
    /// tuple struct's `(` comes first.
    fn add_members(&mut self, toks: &[Tok], from: usize, variants: bool) {
        let Some(open) = (from..toks.len()).find(|&j| ["{", ";", "("].contains(&&*toks[j].text))
        else {
            return;
        };
        if toks[open].text != "{" {
            return;
        }
        let (mut depth, mut entry) = (0usize, true);
        for j in open..group_end(toks, open) {
            let t = &toks[j];
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 1 => entry = true,
                _ if t.ident && toks.get(j + 1).is_some_and(|n| n.text == ":") => {
                    self.items.insert(t.text.clone());
                }
                _ if t.ident && variants && entry && depth == 1 => {
                    self.items.insert(t.text.clone());
                    entry = false;
                }
                _ => {}
            }
        }
    }
}

/// Whether `c` can be part of a Rust identifier.
fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `Type::item` an inline code span names: of each `::` path, its last
/// two segments when the first of them starts upper-case. A `Type::{a, b}`
/// list names each of its items.
fn item_refs(span: &str) -> Vec<(&str, &str)> {
    let mut refs = Vec::new();
    for (i, _) in span.match_indices("::") {
        let ty = &span[span[..i].trim_end_matches(ident_char).len()..i];
        let rest = &span[i + 2..];
        let item = &rest[..rest.len() - rest.trim_start_matches(ident_char).len()];
        let last = !rest[item.len()..].starts_with("::");
        if !last || !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        if let Some(list) = rest.strip_prefix('{').and_then(|r| r.split_once('}')) {
            refs.extend(list.0.split(',').map(|item| (ty, item.trim())));
        } else if !item.is_empty() {
            refs.push((ty, item));
        }
    }
    refs
}

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

/// Runs R10 and R11 over the markdown `src` of the doc at `path`, resolving
/// paths against the workspace listing `files` and items against `decls`.
pub(crate) fn doc_rules(
    path: &str,
    src: &str,
    files: &[&str],
    decls: &Decls,
    out: &mut Vec<Violation>,
) {
    let mut fenced = false;
    for (n, line) in src.lines().enumerate() {
        let mut push = |rule, message: String| {
            out.push(Violation {
                file: path.to_string(),
                line: n + 1,
                rule,
                message,
            });
        };
        for anchor in line_anchors(line) {
            push(
                R10,
                format!("line anchor `{anchor}`: name the item instead, line numbers rot"),
            );
        }
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            if let Some(p) = doc_path(span).filter(|p| !resolves(p, files)) {
                push(R10, format!("`{p}` names no workspace file"));
            }
            for (ty, item) in item_refs(span) {
                let placeholder = (ty, item) == ("Type", "item") || ty.len() == 1;
                if placeholder || STD_TYPES.contains(&ty) {
                    continue;
                }
                if !decls.types.contains(ty) {
                    push(R11, format!("`{ty}::{item}`: no type `{ty}` is declared"));
                } else if !decls.items.contains(item) {
                    push(R11, format!("`{ty}::{item}`: no item `{item}` is declared"));
                }
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

    const SOURCE: &str = "
        pub struct Waitlist { pub ready: u32, next: (u8, u16) }
        pub enum Groups { Plain(Vec<u32>), #[allow(dead_code)] Traced { span: u8 }, Empty = 3 }
        pub trait Scheduler { fn pick(&mut self); }
        type Pool = Vec<u8>;
        impl Waitlist { pub const CAP: usize = 4; pub fn release(&mut self) {} }
        #[cfg(test)]
        mod tests { struct Fake { gone: u8 } fn release_quiet() {} }
    ";

    fn findings(src: &str) -> Vec<String> {
        let mut decls = Decls::default();
        decls.add_source(SOURCE);
        let mut out = Vec::new();
        doc_rules("DESIGN.md", src, &FILES, &decls, &mut out);
        out.into_iter().map(|v| v.message).collect()
    }

    #[test]
    fn declared_items_resolve() {
        for line in [
            // A fn, a const, fields, variants of every shape, a trait's fn.
            "`Waitlist::release`, `Waitlist::CAP`, `Waitlist::ready` and `Waitlist::next`",
            "`Groups::Plain`, `Groups::Traced { span }`, `Groups::Empty`, `Groups::span`",
            "`Scheduler::pick(&mut self)` on a `paella_core::Pool::release`",
            // A list, std types, the placeholder, module paths, no item.
            "`Waitlist::{ready, release}`; `Ordering::X`, `Vec::new`; `Type::item`, `T::Ev`",
            "`std::mem::take`, `crate::event`, `Waitlist::<u8>`, `u32::MAX`",
        ] {
            assert!(findings(line).is_empty(), "{line}: {:?}", findings(line));
        }
    }

    #[test]
    fn undeclared_types_and_items_are_flagged() {
        assert_eq!(
            findings("`Waitlist::release_quiet` and `Placement::add_node`"),
            [
                "`Waitlist::release_quiet`: no item `release_quiet` is declared",
                "`Placement::add_node`: no type `Placement` is declared",
            ]
        );
        // What only test code declares is not declared, a tuple struct has
        // no named fields, and a list names each of its items.
        assert_eq!(findings("`Fake::gone`, `Groups::Vec`").len(), 2);
        assert_eq!(findings("`Waitlist::{ready, gone}`").len(), 1);
        assert!(findings("```\n`Fake::gone`\n```\n").is_empty());
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
            "`Waitlist::release`, `cargo run -p paella-check`, `x.rs y.rs`",
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
