//! Tokenizer with Python's indentation-based block structure.

use crate::value::PyError;

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Structure
    Newline,
    Indent,
    Dedent,
    // Literals / names
    Int(i64),
    Float(f64),
    Str(String),
    FStr(Vec<FPart>),
    Name(String),
    // Keywords
    Kw(&'static str),
    // Punctuation / operators
    Op(&'static str),
}

/// A piece of an f-string: literal text or an embedded expression source.
#[derive(Debug, Clone, PartialEq)]
pub enum FPart {
    Lit(String),
    Expr(String),
}

const KEYWORDS: &[&str] = &[
    "if", "elif", "else", "while", "for", "in", "def", "return", "break", "continue", "pass",
    "and", "or", "not", "True", "False", "None", "global", "import", "del", "lambda",
];

const OPS2PLUS: &[&str] = &[
    "**", "//", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
];
const OPS1: &[&str] = &[
    "+", "-", "*", "/", "%", "(", ")", "[", "]", "{", "}", ",", ":", ".", "=", "<", ">",
];

pub fn tokenize(src: &str) -> Result<Vec<Tok>, PyError> {
    let mut toks = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    // Bracket depth: newlines and indentation are ignored inside brackets.
    let mut bracket_depth = 0usize;

    for raw_line in src.lines() {
        // Measure indentation (spaces only; tabs count as 8).
        let mut indent = 0usize;
        let mut rest = raw_line;
        loop {
            if let Some(r) = rest.strip_prefix(' ') {
                indent += 1;
                rest = r;
            } else if let Some(r) = rest.strip_prefix('\t') {
                indent += 8;
                rest = r;
            } else {
                break;
            }
        }
        let trimmed = rest.trim_end();
        if bracket_depth == 0 {
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            // Emit INDENT/DEDENT.
            let cur = indents.last().copied().unwrap_or(0);
            if indent > cur {
                indents.push(indent);
                toks.push(Tok::Indent);
            } else if indent < cur {
                while indents.last().is_some_and(|&top| top > indent) {
                    indents.pop();
                    toks.push(Tok::Dedent);
                }
                if indents.last() != Some(&indent) {
                    return Err(PyError::new("IndentationError", "unindent does not match"));
                }
            }
        }
        tokenize_line(trimmed, &mut toks, &mut bracket_depth)?;
        if bracket_depth == 0 {
            toks.push(Tok::Newline);
        }
    }
    if bracket_depth != 0 {
        return Err(PyError::new("SyntaxError", "unclosed bracket"));
    }
    while indents.len() > 1 {
        indents.pop();
        toks.push(Tok::Dedent);
    }
    Ok(toks)
}

fn tokenize_line(
    line: &str,
    toks: &mut Vec<Tok>,
    bracket_depth: &mut usize,
) -> Result<(), PyError> {
    let b = line.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' => i += 1,
            b'#' => break,
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    if b[i] == b'.' || b[i] == b'e' || b[i] == b'E' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &line[start..i];
                if is_float {
                    toks.push(Tok::Float(text.parse().map_err(|_| {
                        PyError::new("SyntaxError", format!("bad float literal {text}"))
                    })?));
                } else {
                    toks.push(Tok::Int(text.parse().map_err(|_| {
                        PyError::new("SyntaxError", format!("bad int literal {text}"))
                    })?));
                }
            }
            b'"' | b'\'' => {
                let (s, ni) = lex_string(line, i)?;
                toks.push(Tok::Str(s));
                i = ni;
            }
            b'f' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'\'') => {
                let (s, ni) = lex_string(line, i + 1)?;
                toks.push(Tok::FStr(split_fstring(&s)?));
                i = ni;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &line[start..i];
                if let Some(kw) = KEYWORDS.iter().find(|k| **k == word) {
                    toks.push(Tok::Kw(kw));
                } else {
                    toks.push(Tok::Name(word.to_string()));
                }
            }
            _ => {
                // Byte-wise operator matching: string slicing here could
                // split a multibyte character and panic.
                let rest = &b[i..];
                if let Some(op) = OPS2PLUS.iter().find(|o| rest.starts_with(o.as_bytes())) {
                    toks.push(Tok::Op(op));
                    i += 2;
                } else if let Some(op) = OPS1.iter().find(|o| rest.starts_with(o.as_bytes())) {
                    match *op {
                        "(" | "[" | "{" => *bracket_depth += 1,
                        ")" | "]" | "}" => *bracket_depth = bracket_depth.saturating_sub(1),
                        _ => {}
                    }
                    toks.push(Tok::Op(op));
                    i += 1;
                } else {
                    // `i` sits on a character boundary (all prior arms
                    // consume whole characters), so this decode is safe.
                    let ch = line[i..].chars().next().unwrap_or('?');
                    return Err(PyError::new(
                        "SyntaxError",
                        format!("unexpected character {ch:?}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Lex a quoted string starting at `i` (which points at the quote).
fn lex_string(line: &str, i: usize) -> Result<(String, usize), PyError> {
    let b = line.as_bytes();
    let quote = b[i];
    let mut s = String::new();
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            q if q == quote => return Ok((s, j + 1)),
            b'\\' if j + 1 < b.len() => {
                if b[j + 1].is_ascii() {
                    s.push(match b[j + 1] {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'\\' => '\\',
                        b'\'' => '\'',
                        b'"' => '"',
                        b'0' => '\0',
                        other => other as char,
                    });
                    j += 2;
                } else {
                    // Backslash before a multibyte char: keep the char.
                    let c = line[j + 1..].chars().next().unwrap_or_default();
                    s.push(c);
                    j += 1 + c.len_utf8();
                }
            }
            _ => {
                let c = line[j..].chars().next().unwrap_or_default();
                s.push(c);
                j += c.len_utf8();
            }
        }
    }
    Err(PyError::new("SyntaxError", "unterminated string literal"))
}

/// Split f-string content into literal and `{expr}` parts.
fn split_fstring(s: &str) -> Result<Vec<crate::lexer::FPart>, PyError> {
    let mut parts = Vec::new();
    let mut lit = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                lit.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                lit.push('}');
            }
            '{' => {
                if !lit.is_empty() {
                    parts.push(FPart::Lit(std::mem::take(&mut lit)));
                }
                let mut expr = String::new();
                let mut depth = 1;
                for e in chars.by_ref() {
                    match e {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    expr.push(e);
                }
                if depth != 0 {
                    return Err(PyError::new("SyntaxError", "unterminated { in f-string"));
                }
                parts.push(FPart::Expr(expr));
            }
            '}' => return Err(PyError::new("SyntaxError", "single '}' in f-string")),
            _ => lit.push(c),
        }
    }
    if !lit.is_empty() {
        parts.push(FPart::Lit(lit));
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_assignment() {
        let t = tokenize("x = 1").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Name("x".into()),
                Tok::Op("="),
                Tok::Int(1),
                Tok::Newline
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let t = tokenize("if x:\n    y = 1\nz = 2").unwrap();
        assert!(t.contains(&Tok::Indent));
        assert!(t.contains(&Tok::Dedent));
    }

    #[test]
    fn nested_dedents() {
        let t = tokenize("if a:\n    if b:\n        c = 1\nd = 2").unwrap();
        let dedents = t.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn brackets_span_lines() {
        let t = tokenize("x = [1,\n     2,\n     3]").unwrap();
        let newlines = t.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn string_escapes() {
        let t = tokenize(r#"s = "a\nb""#).unwrap();
        assert!(matches!(&t[2], Tok::Str(s) if s == "a\nb"));
    }

    #[test]
    fn fstring_parts() {
        let t = tokenize(r#"s = f"n={n}!""#).unwrap();
        match &t[2] {
            Tok::FStr(parts) => {
                assert_eq!(parts.len(), 3);
                assert_eq!(parts[0], FPart::Lit("n=".into()));
                assert_eq!(parts[1], FPart::Expr("n".into()));
                assert_eq!(parts[2], FPart::Lit("!".into()));
            }
            other => panic!("expected fstring, got {other:?}"),
        }
    }

    #[test]
    fn comments_ignored() {
        let t = tokenize("x = 1  # set x\n# whole line\ny = 2").unwrap();
        let names = t.iter().filter(|t| matches!(t, Tok::Name(_))).count();
        assert_eq!(names, 2);
    }

    #[test]
    fn bad_indent_errors() {
        assert!(tokenize("if x:\n    y = 1\n  z = 2").is_err());
    }

    #[test]
    fn float_and_scientific() {
        let t = tokenize("x = 2.5e3").unwrap();
        assert!(matches!(t[2], Tok::Float(f) if f == 2500.0));
    }
}
