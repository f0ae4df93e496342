//! Tcl script parser: splits a script into commands and each command into
//! words, recording where variable and command substitution must happen.
//!
//! Parsing is separated from evaluation so parsed scripts can be cached:
//! Turbine re-evaluates the same generated fragments for every task, and the
//! cache makes the hot path a walk over pre-tokenized words.

use crate::error::Exception;

/// Marker prefix a `{*}` word carries after parsing.
const EXPAND_MARKER: &str = "\u{1}EXPAND\u{1}";

/// One piece of a word, after tokenization but before substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Part {
    /// Literal text (no substitution).
    Lit(String),
    /// `$name` / `${name}` variable substitution.
    Var(String),
    /// `[script]` command substitution; holds the raw inner script.
    Script(String),
}

/// One word of a command: a sequence of parts concatenated after
/// substitution. A fully braced word is a single `Lit` part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    pub parts: Vec<Part>,
    /// True when the word came from `{...}`: control-flow commands use this
    /// to recover raw bodies, and it suppresses further substitution.
    pub braced: bool,
}

impl Word {
    /// If the word is a single literal, return it without evaluation.
    pub fn as_lit(&self) -> Option<&str> {
        match self.parts.as_slice() {
            [Part::Lit(s)] => Some(s),
            [] => Some(""),
            _ => None,
        }
    }

    /// Whether the word is `{*}`-expanded (its first part is the marker).
    pub(crate) fn expands(&self) -> bool {
        matches!(self.parts.first(), Some(Part::Lit(l)) if l == EXPAND_MARKER)
    }
}

/// The builtins a command can run without an argv (`set var ?value?`,
/// `incr var ?delta?`, `expr text`), when its name and variable (or
/// `expr` text) are literal and no word is `{*}`-expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Set,
    Incr,
    Expr,
    Generic,
}

/// The names of the shaped builtins, indexed by `Shape as usize`.
pub(crate) const SHAPED: [&str; 3] = ["set", "incr", "expr"];

fn shape_of(words: &[Word]) -> Shape {
    if words.iter().any(Word::expands) || words.get(1).and_then(Word::as_lit).is_none() {
        return Shape::Generic;
    }
    match (words[0].as_lit(), words.len()) {
        (Some("set"), 2 | 3) => Shape::Set,
        (Some("incr"), 2 | 3) => Shape::Incr,
        (Some("expr"), 2) => Shape::Expr,
        _ => Shape::Generic,
    }
}

/// A parsed command: one word per argument, `words[0]` is the command name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    pub words: Vec<Word>,
    /// Source text of the command, for error traces. Boxed: a cached
    /// script holds one per command, and `shape` takes the bytes saved.
    pub source: Box<str>,
    pub shape: Shape,
}

/// A fully parsed script.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    pub commands: Vec<Command>,
}

fn err<T>(msg: impl Into<String>) -> Result<T, Exception> {
    Err(Exception::error(msg))
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }
    fn starts(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

impl Script {
    /// Parse `src` once, for [`crate::Interp::eval_script`].
    pub fn parse(src: &str) -> Result<Script, crate::TclError> {
        parse_script(src).map_err(|e| match e {
            Exception::Error(e) => e,
            // The parser raises nothing but errors.
            other => crate::TclError::new(format!("{other:?}")),
        })
    }
}

/// Parse a full script into commands.
pub fn parse_script(src: &str) -> Result<Script, Exception> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
    };
    let mut commands = Vec::new();
    loop {
        skip_blank(&mut cur);
        if cur.peek().is_none() {
            break;
        }
        if cur.peek() == Some(b'#') {
            skip_comment(&mut cur);
            continue;
        }
        let start = cur.pos;
        let words = parse_command(&mut cur)?;
        let end = cur.pos;
        if !words.is_empty() {
            commands.push(Command {
                shape: shape_of(&words),
                words,
                source: src[start..end].trim().into(),
            });
        }
    }
    Ok(Script { commands })
}

/// Skip whitespace, command separators, and escaped newlines between
/// commands.
fn skip_blank(cur: &mut Cursor) {
    loop {
        match cur.peek() {
            Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') | Some(b';') => {
                cur.pos += 1;
            }
            Some(b'\\') if cur.src.get(cur.pos + 1) == Some(&b'\n') => {
                cur.pos += 2;
            }
            _ => return,
        }
    }
}

fn skip_comment(cur: &mut Cursor) {
    // A comment runs to end of line; a backslash-newline continues it.
    while let Some(c) = cur.bump() {
        if c == b'\\' && cur.peek() == Some(b'\n') {
            cur.pos += 1;
            continue;
        }
        if c == b'\n' {
            return;
        }
    }
}

/// Parse one command (words up to an unescaped newline or `;`).
fn parse_command(cur: &mut Cursor) -> Result<Vec<Word>, Exception> {
    let mut words = Vec::new();
    loop {
        // Skip intra-command whitespace.
        while matches!(cur.peek(), Some(b' ') | Some(b'\t')) {
            cur.pos += 1;
        }
        // Line continuation joins physical lines.
        if cur.peek() == Some(b'\\') && cur.src.get(cur.pos + 1) == Some(&b'\n') {
            cur.pos += 2;
            continue;
        }
        match cur.peek() {
            None | Some(b'\n') | Some(b';') | Some(b'\r') => {
                if matches!(cur.peek(), Some(b'\n') | Some(b';') | Some(b'\r')) {
                    cur.pos += 1;
                }
                return Ok(words);
            }
            _ => {}
        }
        words.push(parse_word(cur)?);
    }
}

fn parse_word(cur: &mut Cursor) -> Result<Word, Exception> {
    match cur.peek() {
        Some(b'{') if cur.starts("{*}") => {
            // `{*}` argument expansion marker: treat the remainder as a
            // normal word but flag it. The interpreter expands the
            // resulting list into multiple arguments.
            cur.pos += 3;
            let mut w = parse_word(cur)?;
            w.parts.insert(0, Part::Lit(EXPAND_MARKER.into()));
            Ok(w)
        }
        Some(b'{') => parse_braced(cur),
        Some(b'"') => parse_quoted(cur),
        _ => parse_bare(cur),
    }
}

fn parse_braced(cur: &mut Cursor) -> Result<Word, Exception> {
    debug_assert_eq!(cur.peek(), Some(b'{'));
    cur.pos += 1;
    let start = cur.pos;
    let mut depth = 1usize;
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                // A backslash protects the following char from brace
                // counting (Tcl rule); content is otherwise literal.
                cur.pos += 1;
            }
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let inner = &cur.src[start..cur.pos - 1];
                    let text = std::str::from_utf8(inner)
                        .map_err(|_| Exception::error("invalid utf8 in braces"))?;
                    return Ok(Word {
                        parts: vec![Part::Lit(unescape_brace_continuations(text))],
                        braced: true,
                    });
                }
            }
            _ => {}
        }
    }
    err("missing close-brace")
}

/// Inside braces, the only transformation Tcl applies is backslash-newline
/// (plus following whitespace) → single space.
fn unescape_brace_continuations(s: &str) -> String {
    if !s.contains("\\\n") {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\\' && chars.peek() == Some(&'\n') {
            chars.next();
            out.push(' ');
            while matches!(chars.peek(), Some(' ') | Some('\t')) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn parse_quoted(cur: &mut Cursor) -> Result<Word, Exception> {
    debug_assert_eq!(cur.peek(), Some(b'"'));
    cur.pos += 1;
    let mut parts = Vec::new();
    let mut lit = String::new();
    loop {
        match cur.peek() {
            None => return err("missing close-quote"),
            Some(b'"') => {
                cur.pos += 1;
                break;
            }
            Some(b'$') => {
                flush(&mut parts, &mut lit);
                parts.push(parse_var_ref(cur)?);
            }
            Some(b'[') => {
                flush(&mut parts, &mut lit);
                parts.push(parse_bracket(cur)?);
            }
            Some(b'\\') => {
                cur.pos += 1;
                lit.push_str(&backslash_subst(cur));
            }
            Some(_) => {
                lit.push(next_char(cur));
            }
        }
    }
    flush(&mut parts, &mut lit);
    Ok(Word {
        parts,
        braced: false,
    })
}

fn parse_bare(cur: &mut Cursor) -> Result<Word, Exception> {
    let mut parts = Vec::new();
    let mut lit = String::new();
    loop {
        match cur.peek() {
            None | Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') | Some(b';') => break,
            Some(b'$') => {
                flush(&mut parts, &mut lit);
                parts.push(parse_var_ref(cur)?);
            }
            Some(b'[') => {
                flush(&mut parts, &mut lit);
                parts.push(parse_bracket(cur)?);
            }
            Some(b'\\') => {
                if cur.src.get(cur.pos + 1) == Some(&b'\n') {
                    break; // line continuation: word ends here
                }
                cur.pos += 1;
                lit.push_str(&backslash_subst(cur));
            }
            Some(_) => {
                lit.push(next_char(cur));
            }
        }
    }
    flush(&mut parts, &mut lit);
    Ok(Word {
        parts,
        braced: false,
    })
}

fn next_char(cur: &mut Cursor) -> char {
    // Decode one UTF-8 char starting at pos, looking at no more than its
    // own (at most four) bytes: validating the rest of the script here
    // made parsing quadratic in script length.
    let rest = &cur.src[cur.pos..];
    let len = match rest.first() {
        Some(b) if *b < 0x80 => {
            cur.pos += 1;
            return *b as char;
        }
        Some(0xC0..=0xDF) => 2,
        Some(0xE0..=0xEF) => 3,
        Some(0xF0..=0xF7) => 4,
        _ => 1,
    };
    let c = rest
        .get(..len)
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|s| s.chars().next())
        .unwrap_or('?');
    cur.pos += c.len_utf8();
    c
}

fn flush(parts: &mut Vec<Part>, lit: &mut String) {
    if !lit.is_empty() {
        parts.push(Part::Lit(std::mem::take(lit)));
    }
}

/// Parse `$name`, `${name}`; a lone `$` is literal.
fn parse_var_ref(cur: &mut Cursor) -> Result<Part, Exception> {
    debug_assert_eq!(cur.peek(), Some(b'$'));
    cur.pos += 1;
    if cur.peek() == Some(b'{') {
        cur.pos += 1;
        let start = cur.pos;
        while let Some(c) = cur.peek() {
            if c == b'}' {
                let name = std::str::from_utf8(&cur.src[start..cur.pos])
                    .map_err(|_| Exception::error("invalid utf8 in variable name"))?;
                cur.pos += 1;
                return Ok(Part::Var(name.to_string()));
            }
            cur.pos += 1;
        }
        return err("missing close-brace for variable name");
    }
    let start = cur.pos;
    while let Some(c) = cur.peek() {
        let ok = c.is_ascii_alphanumeric() || c == b'_' || (c == b':' && cur.starts("::"));
        if !ok {
            break;
        }
        if c == b':' {
            cur.pos += 2;
        } else {
            cur.pos += 1;
        }
    }
    if cur.pos == start {
        return Ok(Part::Lit("$".to_string()));
    }
    let name = std::str::from_utf8(&cur.src[start..cur.pos])
        .map_err(|_| Exception::error("invalid utf8 in variable name"))?;
    Ok(Part::Var(name.to_string()))
}

/// Parse `[script]` with nesting.
fn parse_bracket(cur: &mut Cursor) -> Result<Part, Exception> {
    debug_assert_eq!(cur.peek(), Some(b'['));
    cur.pos += 1;
    let start = cur.pos;
    let mut depth = 1usize;
    let mut in_brace = 0usize;
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.pos += 1;
            }
            b'{' => in_brace += 1,
            b'}' if in_brace > 0 => in_brace -= 1,
            b'[' if in_brace == 0 => depth += 1,
            b']' if in_brace == 0 => {
                depth -= 1;
                if depth == 0 {
                    let inner = std::str::from_utf8(&cur.src[start..cur.pos - 1])
                        .map_err(|_| Exception::error("invalid utf8 in brackets"))?;
                    return Ok(Part::Script(inner.to_string()));
                }
            }
            _ => {}
        }
    }
    err("missing close-bracket")
}

/// Standard Tcl backslash substitution; cursor sits after the backslash.
fn backslash_subst(cur: &mut Cursor) -> String {
    let c = match cur.peek() {
        Some(c) => c,
        None => return "\\".to_string(),
    };
    cur.pos += 1;
    match c {
        b'n' => "\n".into(),
        b't' => "\t".into(),
        b'r' => "\r".into(),
        b'a' => "\x07".into(),
        b'b' => "\x08".into(),
        b'f' => "\x0c".into(),
        b'v' => "\x0b".into(),
        b'\n' => {
            while matches!(cur.peek(), Some(b' ') | Some(b'\t')) {
                cur.pos += 1;
            }
            " ".into()
        }
        b'x' => {
            let mut v: u32 = 0;
            let mut any = false;
            while let Some(h) = cur.peek() {
                if let Some(d) = (h as char).to_digit(16) {
                    v = (v << 4 | d) & 0xFF;
                    cur.pos += 1;
                    any = true;
                } else {
                    break;
                }
            }
            if any {
                char::from_u32(v).map(String::from).unwrap_or_default()
            } else {
                "x".into()
            }
        }
        b'u' => {
            let mut v: u32 = 0;
            let mut n = 0;
            while n < 4 {
                match cur.peek().and_then(|h| (h as char).to_digit(16)) {
                    Some(d) => {
                        v = v << 4 | d;
                        cur.pos += 1;
                        n += 1;
                    }
                    None => break,
                }
            }
            if n > 0 {
                char::from_u32(v).map(String::from).unwrap_or_default()
            } else {
                "u".into()
            }
        }
        other => {
            // Everything else (including \\ \" \$ \[ \] \{ \} \;) maps to
            // the character itself.
            cur.pos -= 1;
            let ch = next_char(cur);
            let _ = other;
            ch.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_of(src: &str) -> Vec<Word> {
        let s = parse_script(src).unwrap();
        assert_eq!(s.commands.len(), 1, "expected 1 command in {src:?}");
        s.commands[0].words.clone()
    }

    #[test]
    fn splits_commands_on_newline_and_semicolon() {
        let s = parse_script("set a 1\nset b 2; set c 3").unwrap();
        assert_eq!(s.commands.len(), 3);
    }

    #[test]
    fn braced_word_is_literal() {
        let w = words_of("set x {a $b [c]}");
        assert_eq!(w[2].as_lit(), Some("a $b [c]"));
        assert!(w[2].braced);
    }

    #[test]
    fn nested_braces_balance() {
        let w = words_of("proc f {x} { if {$x} { g } }");
        assert_eq!(w[3].as_lit(), Some(" if {$x} { g } "));
    }

    #[test]
    fn bare_word_with_var() {
        let w = words_of("puts pre$x/post");
        assert_eq!(
            w[1].parts,
            vec![
                Part::Lit("pre".into()),
                Part::Var("x".into()),
                Part::Lit("/post".into())
            ]
        );
    }

    #[test]
    fn braced_var_name() {
        let w = words_of("puts ${a b}");
        assert_eq!(w[1].parts, vec![Part::Var("a b".into())]);
    }

    #[test]
    fn namespace_var_name() {
        let w = words_of("puts $turbine::rank");
        assert_eq!(w[1].parts, vec![Part::Var("turbine::rank".into())]);
    }

    #[test]
    fn bracket_nesting() {
        let w = words_of("set x [f [g 1] 2]");
        assert_eq!(w[2].parts, vec![Part::Script("f [g 1] 2".into())]);
    }

    #[test]
    fn comments_skipped() {
        let s = parse_script("# a comment\nset a 1\n  # another\nset b 2").unwrap();
        assert_eq!(s.commands.len(), 2);
    }

    #[test]
    fn backslash_escapes_in_quotes() {
        let w = words_of(r#"puts "a\tb\n\$x""#);
        assert_eq!(w[1].parts, vec![Part::Lit("a\tb\n$x".into())]);
    }

    #[test]
    fn line_continuation_joins_words() {
        let s = parse_script("set a \\\n   5").unwrap();
        assert_eq!(s.commands.len(), 1);
        assert_eq!(s.commands[0].words.len(), 3);
    }

    #[test]
    fn unterminated_brace_is_error() {
        assert!(parse_script("set x {oops").is_err());
    }

    #[test]
    fn unterminated_bracket_is_error() {
        assert!(parse_script("set x [oops").is_err());
    }

    #[test]
    fn lone_dollar_is_literal() {
        let w = words_of("puts a$ b");
        assert_eq!(
            w[1].parts,
            vec![Part::Lit("a".into()), Part::Lit("$".into())]
        );
    }

    #[test]
    fn multibyte_chars_round_trip_in_every_word_kind() {
        // 2-, 3- and 4-byte UTF-8 sequences, bare, quoted, braced and
        // backslash-escaped.
        for ch in ["é", "日", "🦀"] {
            let w = words_of(&format!("cmd a{ch}b \"q {ch}{ch}\" {{b{ch}}} \\{ch}"));
            assert_eq!(w[1].as_lit(), Some(format!("a{ch}b").as_str()));
            assert_eq!(w[2].as_lit(), Some(format!("q {ch}{ch}").as_str()));
            assert_eq!(w[3].as_lit(), Some(format!("b{ch}").as_str()));
            assert_eq!(w[4].as_lit(), Some(ch));
        }
    }

    #[test]
    fn expand_marker_detected() {
        let w = words_of("cmd {*}$list");
        assert_eq!(w[1].parts[0], Part::Lit("\u{1}EXPAND\u{1}".into()));
    }
}
