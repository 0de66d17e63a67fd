//! Source-file model: lexed tokens, `#[cfg(test)]` region exclusion and
//! suppression pragmas.
//!
//! # Pragma syntax
//!
//! ```text
//! // sim-lint: allow(lint-name): reason the suppression is sound
//! ```
//!
//! A pragma suppresses diagnostics of the named lint(s) on its own line and
//! on the line directly below it (so it works both trailing a statement and
//! on the line above one). The reason text after the closing parenthesis is
//! mandatory — an unexplained suppression is itself a violation (reported
//! by the always-on `pragma` meta lint, which cannot be suppressed).

use crate::lexer::{lex, Comment, TokKind, Token};

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Lint names listed inside `allow(...)`.
    pub lints: Vec<String>,
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// Justification text after the directive; required.
    pub reason: String,
}

impl Pragma {
    /// Whether the pragma covers `line`: its own line or the one below.
    pub fn covers(&self, line: u32) -> bool {
        self.line == line || self.line + 1 == line
    }
}

/// Ill-formed pragma found while parsing comments.
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// 1-based line of the offending comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// One lexed, region-annotated source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Directory name of the owning crate (`dram-sim`, `core`, …).
    pub crate_name: String,
    /// Workspace-relative path (`crates/dram-sim/src/channel.rs`).
    pub rel_path: String,
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is `true` when `tokens[i]` sits inside a
    /// `#[cfg(test)]` / `#[test]` item (or the whole file is test code).
    pub test_mask: Vec<bool>,
    /// Suppression pragmas found in comments.
    pub pragmas: Vec<Pragma>,
    /// Ill-formed pragmas (reported by the `pragma` meta lint).
    pub pragma_errors: Vec<PragmaError>,
}

impl SourceFile {
    /// Lexes and annotates one file. `force_test` marks the entire file as
    /// test code (integration tests, benches, examples).
    pub fn parse(crate_name: &str, rel_path: &str, text: &str, force_test: bool) -> Self {
        let lexed = lex(text);
        let test_mask = if force_test {
            vec![true; lexed.tokens.len()]
        } else {
            mark_test_regions(&lexed.tokens)
        };
        let (pragmas, pragma_errors) = parse_pragmas(&lexed.comments);
        SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            tokens: lexed.tokens,
            test_mask,
            pragmas,
            pragma_errors,
        }
    }

    /// Iterates `(index, token)` over non-test code tokens.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.test_mask[*i])
    }

    /// Whether a diagnostic of `lint` at `line` is suppressed by a pragma.
    pub fn suppresses(&self, lint: &str, line: u32) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.covers(line) && p.lints.iter().any(|l| l == lint))
    }
}

/// Marks tokens covered by `#[test]` / `#[cfg(test)]` items (attribute
/// through the end of the annotated item).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                // Skip any further attributes, then the item itself.
                let mut j = attr_end + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    let (e, _) = scan_attribute(tokens, j + 1);
                    j = e + 1;
                }
                let item_end = skip_item(tokens, j);
                for slot in mask.iter_mut().take(item_end + 1).skip(i) {
                    *slot = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// From the index of the opening `[`, returns (index of the matching `]`,
/// whether the attribute gates test-only code). `#[test]` and
/// `#[cfg(test)]`-style attributes count; `#[cfg(not(test))]` and
/// `#[cfg_attr(test, ...)]` do not.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = open;
    let mut idents: Vec<&str> = Vec::new();
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident => idents.push(tokens[j].text.as_str()),
            _ => {}
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (j.min(tokens.len().saturating_sub(1)), is_test)
}

/// From the first token of an item, returns the index of its final token:
/// the matching `}` of its first top-level brace block, or the first `;` at
/// top level (whichever comes first).
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut depth_paren = 0i32;
    let mut depth_bracket = 0i32;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') => depth_paren += 1,
            TokKind::Punct(')') => depth_paren -= 1,
            TokKind::Punct('[') => depth_bracket += 1,
            TokKind::Punct(']') => depth_bracket -= 1,
            TokKind::Punct(';') if depth_paren == 0 && depth_bracket == 0 => return j,
            TokKind::Punct('{') if depth_paren == 0 && depth_bracket == 0 => {
                let mut braces = 0i32;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokKind::Punct('{') => braces += 1,
                        TokKind::Punct('}') => {
                            braces -= 1;
                            if braces == 0 {
                                return j;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return tokens.len().saturating_sub(1);
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

fn parse_pragmas(comments: &[Comment]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Pragmas live in plain `//` comments only: doc comments (`///`,
        // `//!`) and block comments may *describe* the syntax without
        // activating it.
        if !c.text.starts_with("//") || c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(pos) = c.text.find("sim-lint:") else {
            continue;
        };
        let directive = c.text[pos + "sim-lint:".len()..].trim();
        let Some(rest) = directive.strip_prefix("allow(") else {
            errors.push(PragmaError {
                line: c.line,
                message: format!(
                    "unrecognized sim-lint directive `{directive}` (expected `allow(...)`)"
                ),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            errors.push(PragmaError {
                line: c.line,
                message: "unterminated sim-lint allow(...) pragma".to_string(),
            });
            continue;
        };
        let lints: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if lints.is_empty() {
            errors.push(PragmaError {
                line: c.line,
                message: "sim-lint allow(...) pragma names no lints".to_string(),
            });
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim()
            .to_string();
        if reason.is_empty() {
            errors.push(PragmaError {
                line: c.line,
                message: format!(
                    "sim-lint allow({}) pragma has no reason — append `: why this is sound`",
                    lints.join(", ")
                ),
            });
            continue;
        }
        pragmas.push(Pragma {
            lints,
            line: c.line,
            reason,
        });
    }
    (pragmas, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("demo", "crates/demo/src/lib.rs", src, false)
    }

    fn code_idents(f: &SourceFile) -> Vec<String> {
        f.code_tokens()
            .filter(|(_, t)| t.kind == TokKind::Ident)
            .map(|(_, t)| t.text.clone())
            .collect()
    }

    #[test]
    fn cfg_test_module_is_excluded() {
        let f = file(
            "pub fn live() { real(); }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n",
        );
        let ids = code_idents(&f);
        assert!(ids.contains(&"real".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn test_attribute_fn_is_excluded() {
        let f = file("#[test]\nfn t() { y.unwrap(); }\nfn live() { ok(); }\n");
        let ids = code_idents(&f);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_excluded() {
        let f = file("#[cfg(not(test))]\nfn live() { marker(); }\n");
        assert!(code_idents(&f).contains(&"marker".to_string()));
    }

    #[test]
    fn cfg_attr_test_is_not_excluded() {
        let f = file("#[cfg_attr(test, allow(dead_code))]\nfn live() { marker(); }\n");
        assert!(code_idents(&f).contains(&"marker".to_string()));
    }

    #[test]
    fn code_after_test_module_is_live_again() {
        let f = file(
            "#[cfg(test)]\nmod tests {\n    fn t() { hidden(); }\n}\n\
             pub fn live() { visible(); }\n",
        );
        let ids = code_idents(&f);
        assert!(!ids.contains(&"hidden".to_string()));
        assert!(ids.contains(&"visible".to_string()));
    }

    #[test]
    fn force_test_marks_everything() {
        let f = SourceFile::parse("demo", "crates/demo/tests/t.rs", "fn a() { b(); }", true);
        assert_eq!(f.code_tokens().count(), 0);
    }

    #[test]
    fn pragma_parses_with_reason() {
        let f = file("// sim-lint: allow(panic-reachability): validated at construction\nlet x;");
        assert_eq!(f.pragmas.len(), 1);
        assert!(f.pragma_errors.is_empty());
        assert_eq!(f.pragmas[0].lints, ["panic-reachability"]);
        assert!(f.suppresses("panic-reachability", 1));
        assert!(f.suppresses("panic-reachability", 2));
        assert!(!f.suppresses("panic-reachability", 3));
        assert!(!f.suppresses("metric-registry", 2));
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let f = file("// sim-lint: allow(panic-reachability)\nlet x;");
        assert!(f.pragmas.is_empty());
        assert_eq!(f.pragma_errors.len(), 1);
        assert!(f.pragma_errors[0].message.contains("no reason"));
    }

    #[test]
    fn file_level_form_is_an_error() {
        let f = file("// sim-lint: allow-file(cycle-arith): generated table\nx");
        assert!(f.pragmas.is_empty());
        assert_eq!(f.pragma_errors.len(), 1);
        assert!(f.pragma_errors[0].message.contains("expected `allow(...)`"));
        assert!(!f.suppresses("cycle-arith", 2));
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let f = file("// sim-lint: deny(x)\n");
        assert_eq!(f.pragma_errors.len(), 1);
    }

    #[test]
    fn doc_comments_describing_pragmas_are_inert() {
        let f = file(
            "//! sim-lint: a tool whose docs mention sim-lint: allow(x)\n\
             /// example: `// sim-lint: allow(lint-name): reason`\n\
             /* sim-lint: allow(whatever) */\nfn live() {}\n",
        );
        assert!(f.pragmas.is_empty());
        assert!(f.pragma_errors.is_empty());
    }
}
