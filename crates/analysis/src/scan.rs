//! Source discovery and per-file preprocessing shared by every lint:
//! walking the workspace, splitting comments from code tokens, masking
//! test regions, and collecting `analysis:allow` suppressions.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, Tok, Token};

/// Rust keywords: never a binding name, so never a lock guard (used
/// by the lock-discipline lint).
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// One `// analysis:allow(<lint>): <reason>` comment, parsed.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The lint name between the parentheses.
    pub lint: String,
    /// 1-based line the comment sits on; it suppresses findings on
    /// this line and the next.
    pub line: u32,
    /// The reason text after `):`. Mandatory; emptiness is itself a
    /// violation.
    pub reason: String,
    /// Set when the comment matched `analysis:allow(` but the rest was
    /// malformed (no closing paren / no `:` / empty reason).
    pub malformed: bool,
}

/// A lexed source file, preprocessed for the lint passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Comment-free token stream (what the lints scan).
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: true inside `#[test]` functions and
    /// `#[cfg(test)]` items, where the alloc and lock lints do not
    /// apply.
    pub mask: Vec<bool>,
    /// All comments, as (line, text) pairs (SAFETY rationale lives
    /// here).
    pub comments: Vec<(u32, String)>,
    /// Parsed `analysis:allow` comments.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes and preprocesses one file.
    #[must_use]
    pub fn parse(rel_path: &str, source: &str) -> Self {
        let all = lex(source);
        let mut tokens = Vec::with_capacity(all.len());
        let mut comments = Vec::new();
        for t in all {
            if let Some(text) = t.comment() {
                comments.push((t.line, text.to_owned()));
            } else {
                tokens.push(t);
            }
        }
        let mask = test_mask(&tokens);
        let suppressions = comments
            .iter()
            .filter_map(|(line, text)| parse_suppression(*line, text))
            .collect();
        SourceFile {
            rel_path: rel_path.to_owned(),
            tokens,
            mask,
            comments,
            suppressions,
        }
    }

    /// The nearest `SAFETY:` rationale in the `window` lines ending at
    /// `line`: the tail of the matching comment, with any directly
    /// following comment lines up to `line` appended.
    #[must_use]
    pub fn safety_rationale(&self, line: u32, window: u32) -> Option<String> {
        let lo = line.saturating_sub(window);
        let start = self
            .comments
            .iter()
            .rposition(|(l, text)| *l >= lo && *l <= line && text.contains("SAFETY:"))?;
        let (first_line, first_text) = &self.comments[start];
        let tail = first_text
            .split_once("SAFETY:")
            .map_or("", |(_, t)| t)
            .trim();
        let mut out = String::from(tail);
        let mut prev_line = *first_line;
        for (l, text) in &self.comments[start + 1..] {
            // Only the contiguous comment block that the SAFETY line
            // opens — stop at the first gap or at the code line.
            if *l != prev_line + 1 || *l > line {
                break;
            }
            let cont = text.trim_start_matches('/').trim();
            if !out.is_empty() && !cont.is_empty() {
                out.push(' ');
            }
            out.push_str(cont);
            prev_line = *l;
        }
        Some(out)
    }
}

/// Parses one comment as a suppression if it *starts* with the
/// `analysis:allow` marker (after the slashes). Prose that merely
/// mentions the syntax mid-sentence is not a suppression.
fn parse_suppression(line: u32, text: &str) -> Option<Suppression> {
    let after = text
        .trim_start_matches('/')
        .trim_start()
        .strip_prefix("analysis:allow")?;
    let malformed = |reason: &str| Suppression {
        lint: String::new(),
        line,
        reason: reason.to_owned(),
        malformed: true,
    };
    let Some(rest) = after.strip_prefix('(') else {
        return Some(malformed("missing `(`"));
    };
    let Some((lint, rest)) = rest.split_once(')') else {
        return Some(malformed("missing `)`"));
    };
    let Some(reason) = rest.trim_start().strip_prefix(':') else {
        return Some(malformed("missing `: <reason>`"));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Some(malformed("empty reason"));
    }
    Some(Suppression {
        lint: lint.trim().to_owned(),
        line,
        reason: reason.to_owned(),
        malformed: false,
    })
}

/// Marks tokens inside `#[test]` / `#[cfg(test)]` items. The mask is
/// attribute → (optional further attributes) → item body delimited by
/// braces, or through the `;` for bodiless items.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('!') {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        // Collect identifiers inside the attribute brackets.
        let mut depth = 0usize;
        let mut is_test = false;
        let mut negated = false;
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(id) = tokens[j].ident() {
                if id == "test" {
                    is_test = true;
                } else if id == "not" {
                    negated = true;
                }
            }
            j += 1;
        }
        if !is_test || negated {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then mask through the item.
        let mut k = j + 1;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut d = 0usize;
            k += 1;
            while k < tokens.len() {
                if tokens[k].is_punct('[') {
                    d += 1;
                } else if tokens[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // Scan the item signature: a `;` at bracket/paren depth 0 ends
        // a bodiless item; a `{` starts the body.
        let mut d = 0isize;
        let mut end = None;
        while k < tokens.len() {
            match &tokens[k].tok {
                Tok::Punct('(' | '[') => d += 1,
                Tok::Punct(')' | ']') => d -= 1,
                Tok::Punct(';') if d == 0 => {
                    end = Some(k);
                    break;
                }
                Tok::Punct('{') if d == 0 => {
                    let mut braces = 1usize;
                    k += 1;
                    while k < tokens.len() && braces > 0 {
                        if tokens[k].is_punct('{') {
                            braces += 1;
                        } else if tokens[k].is_punct('}') {
                            braces -= 1;
                        }
                        k += 1;
                    }
                    end = Some(k - 1);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end = end.unwrap_or(tokens.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Walks the workspace for `.rs` files, skipping build output, VCS
/// metadata, and this crate's lint fixtures (which contain planted
/// violations by design). Returns (workspace-relative path, contents)
/// pairs in sorted path order.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || is_fixture_dir(root, &path) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = fs::read_to_string(&path)?;
                files.push((rel, text));
            }
        }
    }
    files.sort();
    Ok(files)
}

fn is_fixture_dir(root: &Path, path: &Path) -> bool {
    path.strip_prefix(root)
        .map(|rel| rel == "crates/analysis/fixtures")
        .unwrap_or(false)
}
