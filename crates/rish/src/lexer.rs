//! Tokenizer for the R subset.

use crate::value::RError;

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Num(f64),
    Str(String),
    Name(String),
    Kw(&'static str),
    Op(&'static str),
    Newline,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "for", "while", "in", "function", "TRUE", "FALSE", "NULL", "NA", "break", "next",
    "return", "repeat",
];

const OPS_MULTI: &[&str] = &["<-", "<=", ">=", "==", "!=", "%%", "%/%", "&&", "||"];
const OPS_ONE: &[&str] = &[
    "+", "-", "*", "/", "^", "(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "<", ">", "!", "&",
    "|",
];

pub fn tokenize(src: &str) -> Result<Vec<Tok>, RError> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' => i += 1,
            b'\n' => {
                toks.push(Tok::Newline);
                i += 1;
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'0'..=b'9' | b'.' if c != b'.' || b.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                toks.push(Tok::Num(text.parse().map_err(|_| {
                    RError::new(format!("unexpected numeric literal: {text}"))
                })?));
            }
            b'"' | b'\'' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= b.len() {
                        return Err(RError::new("unterminated string constant"));
                    }
                    if b[i] == quote {
                        i += 1;
                        break;
                    }
                    if b[i] == b'\\' && i + 1 < b.len() {
                        if b[i + 1].is_ascii() {
                            s.push(match b[i + 1] {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            i += 2;
                        } else {
                            let c = src[i + 1..].chars().next().unwrap_or_default();
                            s.push(c);
                            i += 1 + c.len_utf8();
                        }
                    } else {
                        let ch = src[i..].chars().next().unwrap_or_default();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                toks.push(Tok::Str(s));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                // R names may contain dots: `as.numeric`, `which.max`.
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                let word = &src[start..i];
                if let Some(kw) = KEYWORDS.iter().find(|k| **k == word) {
                    toks.push(Tok::Kw(kw));
                } else {
                    toks.push(Tok::Name(word.to_string()));
                }
            }
            _ => {
                let rest = &src[i..];
                if let Some(op) = OPS_MULTI.iter().find(|o| rest.starts_with(**o)) {
                    toks.push(Tok::Op(op));
                    i += op.len();
                } else if let Some(op) = OPS_ONE.iter().find(|o| rest.starts_with(**o)) {
                    toks.push(Tok::Op(op));
                    i += op.len();
                } else {
                    return Err(RError::new(format!(
                        "unexpected character '{}'",
                        rest.chars().next().unwrap_or_default()
                    )));
                }
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrows_and_ops() {
        let t = tokenize("x <- 1 + 2").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Name("x".into()),
                Tok::Op("<-"),
                Tok::Num(1.0),
                Tok::Op("+"),
                Tok::Num(2.0)
            ]
        );
    }

    #[test]
    fn dotted_names() {
        let t = tokenize("as.numeric(s)").unwrap();
        assert_eq!(t[0], Tok::Name("as.numeric".into()));
    }

    #[test]
    fn integer_division_ops() {
        let t = tokenize("7 %/% 2 %% 3").unwrap();
        assert!(t.contains(&Tok::Op("%/%")));
        assert!(t.contains(&Tok::Op("%%")));
    }

    #[test]
    fn comments_and_newlines() {
        let t = tokenize("x <- 1 # comment\ny <- 2").unwrap();
        assert!(t.contains(&Tok::Newline));
        assert!(!format!("{t:?}").contains("comment"));
    }

    #[test]
    fn leading_dot_number() {
        let t = tokenize("x <- .5").unwrap();
        assert!(t.contains(&Tok::Num(0.5)));
    }

    #[test]
    fn strings_both_quotes() {
        let t = tokenize(r#"c("a", 'b')"#).unwrap();
        assert!(t.contains(&Tok::Str("a".into())));
        assert!(t.contains(&Tok::Str("b".into())));
    }
}
