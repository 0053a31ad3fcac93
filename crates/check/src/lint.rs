//! What the [`crate::analysis`] engine shares with its rules: the
//! comment/string-aware tokenizer, justification comments, the
//! [`Violation`] record and the workspace file walk. The rules themselves live
//! in [`crate::analysis::rules`].

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
/// The [`crate::analysis`] engine lexes its token stream from the blanked
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

/// Whether line `idx` carries a justification `tag` — on the same line or in
/// the comment block above the statement containing it. The upward scan
/// tolerates the statement's own leading lines (a multi-line expression has
/// no `;`, `{`, or `}` before the flagged line) and stops at the first line
/// that is blank or ends an earlier statement or list item (a trailing `,`:
/// a struct field's tag does not cover the field below it).
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
        } else if code.contains(';')
            || code.contains('{')
            || code.contains('}')
            || code.ends_with(',')
        {
            return false;
        }
        // Otherwise: a statement-prefix code line — keep walking up.
    }
    false
}

/// Directories the file walk skips: version control, build output and
/// generated run output.
const SKIP_DIRS: [&str; 5] = [".git", ".bench_build", "out", "results", "target"];

/// Recursively collects every file under `dir`, skipping [`SKIP_DIRS`].
pub(crate) fn files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_dir() {
            out.push(path);
        } else if !path
            .file_name()
            .is_some_and(|n| SKIP_DIRS.iter().any(|s| n == *s))
        {
            files_under(&path, out)?;
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
}
