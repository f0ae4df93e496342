//! Tokenizer for the Swift subset.

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Kw(&'static str),
    Op(&'static str),
    /// `[ "template" ]` leaf bodies are lexed as ordinary brackets +
    /// strings; no special token needed.
    Eof,
}

/// A token with its source line (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub tok: Tok,
    pub line: usize,
}

const KEYWORDS: &[&str] = &[
    "int", "float", "string", "boolean", "void", "blob", "foreach", "in", "if", "else", "main",
    "true", "false", "app", "global", "import",
];

const OPS2: &[&str] = &["==", "!=", "<=", ">=", "&&", "||", "**", "=>"];
const OPS1: &[&str] = &[
    "+", "-", "*", "/", "%", "(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "<", ">", "!", "@",
    ".",
];

/// Lexer error (unterminated string, bad character).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub line: usize,
}

fn unterminated(line: usize) -> LexError {
    LexError {
        message: "unterminated string literal".into(),
        line,
    }
}

pub fn tokenize(src: &str) -> Result<Vec<Spanned>, LexError> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= b.len() {
                    return Err(LexError {
                        message: "unterminated block comment".into(),
                        line,
                    });
                }
                i += 2;
            }
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
                    // `[0:9]` must not lex `0:` as a float; '.' only counts
                    // when followed by a digit.
                    if b[i] == b'.' {
                        if b.get(i + 1).map(u8::is_ascii_digit) != Some(true) {
                            break;
                        }
                        is_float = true;
                    }
                    if b[i] == b'e' || b[i] == b'E' {
                        if !b
                            .get(i + 1)
                            .map(|d| d.is_ascii_digit() || *d == b'+' || *d == b'-')
                            .unwrap_or(false)
                        {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| LexError {
                        message: format!("bad float literal {text}"),
                        line,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| LexError {
                        message: format!("bad int literal {text}"),
                        line,
                    })?)
                };
                out.push(Spanned { tok, line });
            }
            b'"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= b.len() {
                        return Err(unterminated(line));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < b.len() => {
                            // Swift-level escapes; anything else keeps the
                            // backslash so Tcl escapes (including
                            // backslash-newline continuations) survive
                            // into leaf templates.
                            match b[i + 1] {
                                b'n' => {
                                    s.push('\n');
                                    i += 2;
                                }
                                b't' => {
                                    s.push('\t');
                                    i += 2;
                                }
                                b'\\' => {
                                    s.push('\\');
                                    i += 2;
                                }
                                b'"' => {
                                    s.push('"');
                                    i += 2;
                                }
                                other if other.is_ascii() => {
                                    s.push('\\');
                                    s.push(other as char);
                                    if other == b'\n' {
                                        line += 1;
                                    }
                                    i += 2;
                                }
                                _ => {
                                    // Multibyte char after the backslash:
                                    // keep both, consuming the whole char.
                                    s.push('\\');
                                    let Some(ch) = src[i + 1..].chars().next() else {
                                        return Err(unterminated(line));
                                    };
                                    s.push(ch);
                                    i += 1 + ch.len_utf8();
                                }
                            }
                        }
                        b'\n' => {
                            s.push('\n');
                            line += 1;
                            i += 1;
                        }
                        _ => {
                            let Some(ch) = src[i..].chars().next() else {
                                return Err(unterminated(line));
                            };
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                if let Some(kw) = KEYWORDS.iter().find(|k| **k == word) {
                    out.push(Spanned {
                        tok: Tok::Kw(kw),
                        line,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Ident(word.to_string()),
                        line,
                    });
                }
            }
            _ => {
                let rest = &src[i..];
                if let Some(op) = OPS2.iter().find(|o| rest.starts_with(**o)) {
                    out.push(Spanned {
                        tok: Tok::Op(op),
                        line,
                    });
                    i += 2;
                } else if let Some(op) = OPS1.iter().find(|o| rest.starts_with(**o)) {
                    out.push(Spanned {
                        tok: Tok::Op(op),
                        line,
                    });
                    i += 1;
                } else {
                    return Err(LexError {
                        message: match rest.chars().next() {
                            Some(c) => format!("unexpected character {c:?}"),
                            None => "unexpected end of input".to_string(),
                        },
                        line,
                    });
                }
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("int x = 5;"),
            vec![
                Tok::Kw("int"),
                Tok::Ident("x".into()),
                Tok::Op("="),
                Tok::Int(5),
                Tok::Op(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn range_does_not_eat_colon() {
        let t = toks("[0:9]");
        assert_eq!(
            t,
            vec![
                Tok::Op("["),
                Tok::Int(0),
                Tok::Op(":"),
                Tok::Int(9),
                Tok::Op("]"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn floats_and_scientific() {
        assert_eq!(toks("2.5")[0], Tok::Float(2.5));
        assert_eq!(toks("1e3")[0], Tok::Float(1000.0));
        assert_eq!(toks("7.")[0], Tok::Int(7)); // '.' not followed by digit
    }

    #[test]
    fn comments_all_styles() {
        let t = toks("1 // line\n2 # hash\n3 /* block\nmore */ 4");
        assert_eq!(
            t,
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Int(4), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\nb\"c""#)[0], Tok::Str("a\nb\"c".into()));
    }

    #[test]
    fn line_numbers_track() {
        let sp = tokenize("1\n2\n3").unwrap();
        assert_eq!(sp[0].line, 1);
        assert_eq!(sp[1].line, 2);
        assert_eq!(sp[2].line, 3);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("\"oops").is_err());
        assert!(tokenize("/* oops").is_err());
    }
}
