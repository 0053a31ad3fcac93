//! The token stream every rule runs over, and the one notion of test code.
//!
//! The engine has two layers and no parser above them:
//!
//! 1. the comment/string-aware line tokenizer in [`crate::lint`] blanks
//!    literals and splits comments from code, so a pattern inside a string
//!    can never trip a rule;
//! 2. [`lex`] turns each blanked code line into [`Tok`]s — identifiers and
//!    punctuation, with a small set of fused multi-char operators (`::`,
//!    `-=`, `=>`, …) so rules match on operators, not character pairs.
//!
//! [`test_mask`] marks the tokens of `#[cfg(test)]` items on that stream;
//! scope (brace depth, fn extent) is counted by the rules pass itself.

use crate::lint::Line;

/// One lexical token: an identifier/number or a punctuation string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// The token text (identifiers verbatim; operators possibly fused).
    pub text: String,
    /// 0-based source line.
    pub line: usize,
    /// Whether this is an identifier/number token.
    pub ident: bool,
}

/// Multi-char operators fused into single tokens, longest first. `>>`/`<<`
/// are deliberately absent: they would swallow nested-generic closers like
/// `Vec<Vec<u8>>`.
const FUSED: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "-=", "+=", "*=", "/=", "%=", "==", "!=", ">=", "<=",
    "&&", "||", "..", "&=", "|=", "^=",
];

/// Lexes blanked code lines into a flat token stream.
pub(crate) fn lex(lines: &[Line]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (ln, l) in lines.iter().enumerate() {
        let chars: Vec<char> = l.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: ln,
                    ident: true,
                });
                continue;
            }
            // Fused operators: longest match wins.
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            if let Some(op) = FUSED.iter().find(|op| rest.starts_with(**op)) {
                out.push(Tok {
                    text: (*op).to_string(),
                    line: ln,
                    ident: false,
                });
                i += op.len();
                continue;
            }
            out.push(Tok {
                text: c.to_string(),
                line: ln,
                ident: false,
            });
            i += 1;
        }
    }
    out
}

/// Whether the tokens at `i..` spell `pat`.
pub(crate) fn seq(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(i + k).is_some_and(|t| t.text == *p))
}

/// Index of the closer matching the opening delimiter at `open`, or the end
/// of input if it never closes.
pub(crate) fn group_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Marks, per token, what `#[cfg(test)]` gates. The attribute gates one
/// item, which ends at the first `;` at the attribute's depth or at the
/// close of the first `{…}` group, whichever comes first — so an attribute
/// on a braceless item (`use`, a gated `const`) never reaches the next one.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !seq(toks, i, &ATTR) {
            i += 1;
            continue;
        }
        let mut end = i + ATTR.len();
        while let Some(t) = toks.get(end) {
            match t.text.as_str() {
                ";" => break,
                "{" => {
                    end = group_end(toks, end);
                    break;
                }
                "(" | "[" => end = group_end(toks, end),
                _ => {}
            }
            end += 1;
        }
        let end = end.min(toks.len() - 1);
        mask[i..=end].fill(true);
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::tokenize;

    fn texts(src: &str) -> Vec<String> {
        lex(&tokenize(src)).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn fused_operators_lex_as_single_tokens() {
        assert_eq!(
            texts("a -= b; c::d => e == f\n"),
            ["a", "-=", "b", ";", "c", "::", "d", "=>", "e", "==", "f"]
        );
    }

    #[test]
    fn nested_generics_do_not_fuse_shift() {
        let texts = texts("let x: Vec<Vec<u8>> = v;\n");
        assert!(texts.contains(&">".to_string()), "closers stay single");
        assert!(!texts.contains(&">>".to_string()));
    }

    #[test]
    fn raw_strings_and_literals_are_opaque() {
        let f = texts("let s = r#\"HashMap { } ) \"#; h();\n").join(" ");
        assert!(!f.contains("HashMap"), "literal contents blanked: {f}");
        assert!(f.contains("h ( )"), "code after the literal survives: {f}");
    }

    #[test]
    fn cfg_test_gates_exactly_one_item() {
        // (source, identifiers that must be masked, identifiers that must not)
        let cases: [(&str, &[&str], &[&str]); 6] = [
            (
                "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
                &["tests", "t"],
                &["prod", "after"],
            ),
            (
                "#[cfg(test)]\nfn helper() { inner(); }\nfn after() {}\n",
                &["helper", "inner"],
                &["after"],
            ),
            // A braceless item: the attribute ends at its `;`.
            (
                "#[cfg(test)]\nuse a::B;\nfn prod() { body(); }\n",
                &["a", "B"],
                &["prod", "body"],
            ),
            (
                "#[cfg(test)]\nconst N: [u8; 2] = [0; 2];\nfn prod() { body(); }\n",
                &["N"],
                &["prod", "body"],
            ),
            (
                "#[cfg(test)]\ntype T = Vec<u8>;\nstatic S: u8 = 0;\n",
                &["T", "Vec"],
                &["S"],
            ),
            // A `;` inside the item's own parentheses does not end it.
            (
                "#[cfg(test)]\nfn f(x: [u8; 4]) { inner(); }\nfn after() {}\n",
                &["f", "inner"],
                &["after"],
            ),
        ];
        for (src, masked, clear) in cases {
            let toks = lex(&tokenize(src));
            let mask = test_mask(&toks);
            let is_masked = |name: &str| {
                let i = toks.iter().position(|t| t.text == name).expect(name);
                mask[i]
            };
            for name in masked {
                assert!(is_masked(name), "`{name}` should be test code in {src:?}");
            }
            for name in clear {
                assert!(!is_masked(name), "`{name}` leaked into the mask in {src:?}");
            }
        }
    }
}
