//! What the [`crate::analysis`] engine shares with its rules: the
//! comment/string-aware tokenizer, the `#[cfg(test)]` mask, justification
//! comments, the [`Violation`] record, and the one rule that needs two files
//! side by side (R5, `TraceEvent` exhaustiveness). Rules R1–R4 and R6–R9
//! live in [`crate::analysis::rules`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (`no-wall-clock`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One source line after tokenization: executable text with comments and
/// literal contents blanked, plus the concatenated comment text.
///
/// The [`crate::analysis`] engine lexes its token trees from the blanked
/// `code` text, so every rule agrees on what is and is not executable
/// source.
#[derive(Clone, Debug, Default)]
pub(crate) struct Line {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// Splits `content` into [`Line`]s, tracking block comments (nested), line
/// comments, string/char literals, and raw strings across line boundaries.
/// Literal *contents* are blanked so a pattern inside a string never
/// triggers a rule; comment text is collected separately so justification
/// tags can be searched.
pub(crate) fn tokenize(content: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = content.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if st == State::LineComment {
                st = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                match c {
                    '/' if next == Some('/') => {
                        st = State::LineComment;
                        i += 2;
                        continue;
                    }
                    '/' if next == Some('*') => {
                        st = State::Block(1);
                        i += 2;
                        continue;
                    }
                    '"' => {
                        st = State::Str;
                        cur.code.push('"');
                        i += 1;
                        continue;
                    }
                    'r' | 'b' => {
                        // Possible raw-string opener r"…", r#"…"#, br"…".
                        let prev_ident =
                            i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if !prev_ident && (c == 'r' || j > i + 1) && chars.get(j) == Some(&'"') {
                            st = State::RawStr(hashes);
                            cur.code.push('"');
                            i = j + 1;
                            continue;
                        }
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                    '\'' => {
                        // Char literal vs lifetime: 'x' / '\n' are literals;
                        // 'a (no closing quote right after) is a lifetime.
                        if next == Some('\\') {
                            st = State::Char;
                            cur.code.push('\'');
                            i += 2; // consume the backslash with the opener
                            continue;
                        }
                        if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                            cur.code.push_str("' '");
                            i += 3;
                            continue;
                        }
                        cur.code.push('\'');
                        i += 1;
                        continue;
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(d) => {
                if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        State::Code
                    } else {
                        State::Block(d - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::Block(d + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char, whatever it is
                } else if c == '"' {
                    st = State::Code;
                    cur.code.push('"');
                    i += 1;
                } else {
                    i += 1; // blank the contents
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = State::Code;
                        cur.code.push('"');
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = State::Code;
                    cur.code.push('\'');
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Marks the lines belonging to `#[cfg(test)]` items by brace counting from
/// the attribute to the close of the item it gates.
pub(crate) fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let start = i;
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        let end = j.min(lines.len() - 1);
        for m in &mut mask[start..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Whether line `idx` carries a justification `tag` — on the same line or in
/// the comment block above the statement containing it. The upward scan
/// tolerates the statement's own leading lines (a multi-line expression has
/// no `;`, `{`, or `}` before the flagged line) and stops at the first line
/// that ends an earlier statement or is blank.
pub(crate) fn justified(lines: &[Line], idx: usize, tag: &str) -> bool {
    if lines[idx].comment.contains(tag) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        if code.is_empty() {
            if l.comment.contains(tag) {
                return true;
            }
            if l.comment.trim().is_empty() {
                return false;
            }
        } else if code.contains(';') || code.contains('{') || code.contains('}') {
            return false;
        }
        // Otherwise: a statement-prefix code line — keep walking up.
    }
    false
}

/// Extracts the variant names of `pub enum TraceEvent` from a tokenized
/// source, with the 0-based line each was declared on.
fn trace_event_variants(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut in_enum = false;
    let mut opened = false;
    for (i, l) in lines.iter().enumerate() {
        if !in_enum {
            if l.code.contains("enum TraceEvent") {
                in_enum = true;
                depth = 0;
            } else {
                continue;
            }
        }
        // A variant declaration starts at depth 1 (its own braces, if any,
        // open *after* the name) — so test the depth entering the line.
        if opened && depth == 1 {
            let t = l.code.trim();
            if t.starts_with(|c: char| c.is_ascii_uppercase()) {
                let name: String = t
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                out.push((i, name));
            }
        }
        for ch in l.code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    out
}

/// The code lines of the first `fn {name}` body in a tokenized source
/// (0-based start line, concatenated per-line code), by brace counting.
fn fn_body(lines: &[Line], name: &str) -> Option<(usize, Vec<String>)> {
    let opener = format!("fn {name}(");
    let start = lines.iter().position(|l| l.code.contains(&opener))?;
    let mut depth = 0i64;
    let mut opened = false;
    let mut body = Vec::new();
    for l in &lines[start..] {
        for ch in l.code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        body.push(l.code.clone());
        if opened && depth <= 0 {
            break;
        }
    }
    Some((start, body))
}

/// **R5 `trace-event-exhaustiveness`** — every `TraceEvent` variant must be
/// handled explicitly on both consumption paths: the `kind()` hot match
/// (which `text_summary` and the flight recorder ride on) and the Chrome
/// exporter. A `_ =>` wildcard inside `kind()` is rejected outright — it
/// would silently swallow the next variant someone adds, which is exactly
/// how observability gaps are born.
pub fn trace_event_exhaustiveness(event_src: &str, export_src: &str) -> Vec<Violation> {
    const EVENT_FILE: &str = "crates/telemetry/src/event.rs";
    const EXPORT_FILE: &str = "crates/telemetry/src/export.rs";
    let event_lines = tokenize(event_src);
    let export_lines = tokenize(export_src);
    let variants = trace_event_variants(&event_lines);
    let mut out = Vec::new();
    if variants.is_empty() {
        out.push(Violation {
            file: EVENT_FILE.into(),
            line: 1,
            rule: "trace-event-exhaustiveness",
            message: "no `enum TraceEvent` variants found (parser out of sync?)".into(),
        });
        return out;
    }
    let Some((kind_line, kind_body)) = fn_body(&event_lines, "kind") else {
        out.push(Violation {
            file: EVENT_FILE.into(),
            line: 1,
            rule: "trace-event-exhaustiveness",
            message: "no `fn kind` hot match found".into(),
        });
        return out;
    };
    for (off, l) in kind_body.iter().enumerate() {
        if l.trim_start().starts_with("_ =>") {
            out.push(Violation {
                file: EVENT_FILE.into(),
                line: kind_line + off + 1,
                rule: "trace-event-exhaustiveness",
                message: "wildcard `_ =>` in the kind() hot match swallows new variants".into(),
            });
        }
    }
    let kind_code = kind_body.join("\n");
    let export_code: String = export_lines
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for (line, v) in &variants {
        let pat = format!("TraceEvent::{v}");
        if !kind_code.contains(&pat) {
            out.push(Violation {
                file: EVENT_FILE.into(),
                line: line + 1,
                rule: "trace-event-exhaustiveness",
                message: format!("variant {v} has no arm in the kind() hot match"),
            });
        }
        if !export_code.contains(&pat) {
            out.push(Violation {
                file: EXPORT_FILE.into(),
                line: line + 1,
                rule: "trace-event-exhaustiveness",
                message: format!("variant {v} is not handled by the Chrome exporter"),
            });
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`.
pub(crate) fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"Ordering::Relaxed // not code\"; // real comment\n";
        let lines = tokenize(src);
        assert!(!lines[0].code.contains("Relaxed"));
        assert!(!lines[0].code.contains("not code"));
        assert_eq!(lines[0].comment.trim(), "real comment");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        assert_eq!(
            codes(src)[0].split_whitespace().collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"thread::sleep \" inside\"#; sleep_not();\n";
        let c = &codes(src)[0];
        assert!(!c.contains("thread::sleep"));
        assert!(c.contains("sleep_not"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }\n";
        let c = &codes(src)[0];
        assert!(c.contains("<'a>"), "lifetime survives: {c}");
        // The quote chars inside the literals must not open a string state
        // that would swallow the rest of the line.
        assert!(c.contains('}'));
    }

    #[test]
    fn multiline_string_spans_lines() {
        let src = "let s = \"Instant\nSystemTime\"; done();\n";
        let cs = codes(src);
        assert!(!cs[0].contains("Instant"));
        assert!(!cs[1].contains("SystemTime"));
        assert!(cs[1].contains("done"));
    }

    #[test]
    fn test_mask_covers_cfg_test_module() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lines = tokenize(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn trace_event_lint_clean_on_real_sources() {
        let event_src = include_str!("../../telemetry/src/event.rs");
        let export_src = include_str!("../../telemetry/src/export.rs");
        let v = trace_event_exhaustiveness(event_src, export_src);
        assert!(
            v.is_empty(),
            "real sources flagged:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn trace_event_lint_catches_unhandled_variant_mutant() {
        // Self-test with teeth: graft a new variant into the *real* enum
        // without touching kind() or the exporter — the lint must flag both
        // consumption paths.
        let event_src = include_str!("../../telemetry/src/event.rs");
        let export_src = include_str!("../../telemetry/src/export.rs");
        let anchor = "}\n\nimpl TraceEvent {";
        assert!(event_src.contains(anchor), "event.rs layout changed");
        let mutated = event_src.replace(
            anchor,
            "    PhantomProbe {\n        x: u64,\n    },\n}\n\nimpl TraceEvent {",
        );
        let v = trace_event_exhaustiveness(&mutated, export_src);
        assert_eq!(v.len(), 2, "kind() + exporter both missing: {v:?}");
        assert!(v.iter().all(|x| x.message.contains("PhantomProbe")));
        assert!(v.iter().any(|x| x.message.contains("kind()")));
        assert!(v.iter().any(|x| x.message.contains("Chrome exporter")));
    }

    #[test]
    fn trace_event_lint_catches_wildcard_mutant() {
        // Replacing the last kind() arm with a wildcard must be flagged
        // twice: the swallow itself, and the variant it orphans.
        let event_src = include_str!("../../telemetry/src/event.rs");
        let export_src = include_str!("../../telemetry/src/export.rs");
        let arm = "TraceEvent::CounterSample { .. } => \"counter-sample\",";
        assert!(event_src.contains(arm), "kind() layout changed");
        let mutated = event_src.replace(arm, "_ => \"counter-sample\",");
        let v = trace_event_exhaustiveness(&mutated, export_src);
        assert!(
            v.iter().any(|x| x.message.contains("wildcard")),
            "wildcard not flagged: {v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.message.contains("CounterSample") && x.message.contains("kind()")),
            "orphaned variant not flagged: {v:?}"
        );
    }
}
