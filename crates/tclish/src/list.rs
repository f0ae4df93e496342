//! Tcl list parsing and formatting.
//!
//! Tcl lists are strings with quoting conventions; Turbine leans on them
//! heavily (rule input lists, container contents, argument vectors), and the
//! automatic Swift↔Tcl type conversion of §III.A produces and consumes
//! them. `format_list(parse_list(s))` preserves element boundaries for any
//! well-formed list, and `parse_list(format_list(v)) == v` for arbitrary
//! element strings — the property test in this module checks the latter.

use std::borrow::Cow;

use crate::error::TclError;

/// Split a Tcl list string into its elements.
pub fn parse_list(src: &str) -> Result<Vec<String>, TclError> {
    let mut out = Vec::new();
    for_each_element(src, |el| out.push(el.into_owned()))?;
    Ok(out)
}

/// Call `f` on each element of list `src` in order: a braced element, or
/// a bare one without backslashes, borrowed from `src`.
pub fn for_each_element<'a>(src: &'a str, mut f: impl FnMut(Cow<'a, str>)) -> Result<(), TclError> {
    let b = src.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        // Skip inter-element whitespace. Separators are ASCII whitespace
        // only, so multi-byte characters inside bare elements are safe.
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        match b[i] {
            b'{' => {
                let mut depth = 1usize;
                i += 1;
                let start = i;
                while i < b.len() && depth > 0 {
                    match b[i] {
                        b'\\' => i += 1,
                        b'{' => depth += 1,
                        b'}' => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                if depth != 0 {
                    return Err(TclError::new("unmatched open brace in list"));
                }
                f(Cow::Borrowed(&src[start..i - 1]));
                if i < b.len() && !b[i].is_ascii_whitespace() {
                    return Err(TclError::new(
                        "list element in braces followed by non-whitespace",
                    ));
                }
            }
            b'"' => {
                i += 1;
                let mut el = String::new();
                let mut closed = false;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            if b[i + 1].is_ascii() {
                                el.push(unescape_one(b[i + 1]));
                                i += 2;
                            } else {
                                // Backslash before a multibyte char: keep
                                // the char, consume it whole.
                                let c = next_char_at(src, i + 1);
                                el.push(c);
                                i += 1 + c.len_utf8();
                            }
                        }
                        b'"' => {
                            i += 1;
                            closed = true;
                            break;
                        }
                        _ => {
                            let c = next_char_at(src, i);
                            el.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                if !closed {
                    return Err(TclError::new("unmatched quote in list"));
                }
                f(Cow::Owned(el));
            }
            _ => {
                let start = i;
                while i < b.len() && !b[i].is_ascii_whitespace() && b[i] != b'\\' {
                    i += 1;
                }
                if i == b.len() || b[i] != b'\\' {
                    f(Cow::Borrowed(&src[start..i]));
                    continue;
                }
                let mut el = src[start..i].to_string();
                while i < b.len() && !b[i].is_ascii_whitespace() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        if b[i + 1].is_ascii() {
                            el.push(unescape_one(b[i + 1]));
                            i += 2;
                        } else {
                            let c = next_char_at(src, i + 1);
                            el.push(c);
                            i += 1 + c.len_utf8();
                        }
                    } else {
                        let c = next_char_at(src, i);
                        el.push(c);
                        i += c.len_utf8();
                    }
                }
                f(Cow::Owned(el));
            }
        }
    }
    Ok(())
}

/// The character starting at byte `i`. Callers stop only on char
/// boundaries before the end, so the replacement character never shows.
pub(crate) fn next_char_at(s: &str, i: usize) -> char {
    s.get(i..)
        .and_then(|s| s.chars().next())
        .unwrap_or(char::REPLACEMENT_CHARACTER)
}

fn unescape_one(c: u8) -> char {
    match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        other => other as char,
    }
}

/// Join elements into a canonical Tcl list string.
pub fn format_list<S: AsRef<str>>(elements: &[S]) -> String {
    let len: usize = elements.iter().map(|e| e.as_ref().len() + 1).sum();
    let mut out = String::with_capacity(len);
    for (i, el) in elements.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_element(&mut out, el.as_ref());
    }
    out
}

/// Append element `el` to `out`, quoted so `parse_list` recovers it
/// exactly.
pub(crate) fn push_element(out: &mut String, el: &str) {
    if el.is_empty() {
        out.push_str("{}");
        return;
    }
    let needs_quoting = el.chars().any(|c| {
        c.is_ascii_whitespace() || matches!(c, '{' | '}' | '[' | ']' | '$' | '"' | '\\' | ';')
    }) || el.starts_with('#');
    if !needs_quoting {
        out.push_str(el);
        return;
    }
    // Prefer brace quoting when braces balance and no backslash issues.
    if braces_balanced(el) && !el.contains('\\') {
        out.push('{');
        out.push_str(el);
        out.push('}');
        return;
    }
    // Fall back to backslash escaping.
    for c in el.chars() {
        match c {
            ' ' | '\t' | '{' | '}' | '[' | ']' | '$' | '"' | '\\' | ';' | '#' => {
                out.push('\\');
                out.push(c);
            }
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

fn braces_balanced(s: &str) -> bool {
    let mut depth = 0i64;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_split() {
        assert_eq!(parse_list("a b c").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn braced_elements_preserve_spaces() {
        assert_eq!(
            parse_list("{a b} c {d {e f}}").unwrap(),
            vec!["a b", "c", "d {e f}"]
        );
    }

    #[test]
    fn quoted_elements() {
        assert_eq!(parse_list("\"a b\" c").unwrap(), vec!["a b", "c"]);
    }

    #[test]
    fn empty_list() {
        assert_eq!(parse_list("").unwrap(), Vec::<String>::new());
        assert_eq!(parse_list("   ").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn empty_element_round_trips() {
        let l = format_list(&["", "x", ""]);
        assert_eq!(parse_list(&l).unwrap(), vec!["", "x", ""]);
    }

    #[test]
    fn special_chars_round_trip() {
        let cases = ["a b", "{", "}", "$v", "[x]", "a\\b", "a\nb", "#c", "a;b"];
        for c in cases {
            let l = format_list(&[c]);
            assert_eq!(parse_list(&l).unwrap(), vec![c], "case {c:?} as {l:?}");
        }
    }

    #[test]
    fn unbalanced_brace_is_error() {
        assert!(parse_list("{a").is_err());
    }

    proptest! {
        #[test]
        fn format_then_parse_round_trips(els in proptest::collection::vec(".*", 0..8)) {
            let formatted = format_list(&els);
            let parsed = parse_list(&formatted).unwrap();
            prop_assert_eq!(parsed, els);
        }

        #[test]
        fn ascii_specials_round_trip(els in proptest::collection::vec("[ -~]{0,12}", 0..6)) {
            let formatted = format_list(&els);
            let parsed = parse_list(&formatted).unwrap();
            prop_assert_eq!(parsed, els);
        }
    }
}
