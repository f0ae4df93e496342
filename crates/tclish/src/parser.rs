//! Tcl script parser: splits a script into commands and each command into
//! words, recording where variable and command substitution must happen.
//!
//! A parse lives on the text that holds it: a `[…]` substitution holds its
//! parsed commands, and a literal word holds the code its command runs it
//! as ([`Held`]) from the first run on. A text with no holder is parsed
//! each time it runs.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use crate::error::Exception;
use crate::expr::Compiled;

/// Marker prefix a `{*}` word carries after parsing.
const EXPAND_MARKER: &str = "\u{1}EXPAND\u{1}";

/// One piece of a word, after tokenization but before substitution.
#[derive(Debug, PartialEq, Eq)]
pub enum Part {
    /// Literal text (no substitution), shared with every value made
    /// from it.
    Lit(Arc<str>),
    /// `$name` / `${name}` variable substitution.
    Var(String),
    /// `[script]` command substitution; holds the parsed inner script.
    Script(Script),
}

/// One word of a command: a sequence of parts concatenated after
/// substitution. A braced word is a single `Lit` part.
#[derive(Debug, PartialEq, Eq)]
pub struct Word {
    pub parts: Vec<Part>,
    /// The code a command runs this word as, when the word is literal.
    pub(crate) held: Held,
}

impl Word {
    fn new(parts: Vec<Part>) -> Self {
        Word {
            parts,
            held: Held::default(),
        }
    }

    /// A literal word, such as one element of `switch`'s arm list.
    pub(crate) fn lit(text: &str) -> Self {
        Word::new(vec![Part::Lit(text.into())])
    }

    /// If the word is a single literal, return it without evaluation.
    pub fn as_lit(&self) -> Option<&str> {
        match self.parts.as_slice() {
            [Part::Lit(s)] => Some(s),
            [] => Some(""),
            _ => None,
        }
    }

    /// The text of a word that is one literal part, to share.
    pub(crate) fn lit_text(&self) -> Option<&Arc<str>> {
        match self.parts.as_slice() {
            [Part::Lit(s)] => Some(s),
            _ => None,
        }
    }

    /// Whether the word is `{*}`-expanded (its first part is the marker).
    pub(crate) fn expands(&self) -> bool {
        matches!(self.parts.first(), Some(Part::Lit(l)) if **l == *EXPAND_MARKER)
    }
}

/// What a literal word runs as: a script, an `expr`, or `switch`'s
/// pattern/body words.
#[derive(Debug)]
pub(crate) enum Code {
    Script(Script),
    Expr(Compiled),
    Arms(Vec<Word>),
}

/// A word's [`Code`], parsed at its first run and kept for every later
/// one. A `OnceLock`, so a parsed [`Script`] stays `Send + Sync` and one
/// parse can serve interpreters on many threads. It is derived from the
/// word's text, so equality ignores it.
#[derive(Debug, Default)]
pub(crate) struct Held(OnceLock<Box<Code>>);

impl Held {
    /// The code held, made by `parse` on first use. A parse error is
    /// returned and nothing is kept, so it recurs at every run.
    pub(crate) fn code(
        &self,
        parse: impl FnOnce() -> Result<Code, Exception>,
    ) -> Result<&Code, Exception> {
        if let Some(code) = self.0.get() {
            return Ok(code);
        }
        let code = Box::new(parse()?);
        Ok(self.0.get_or_init(|| code))
    }
}

impl PartialEq for Held {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Held {}

/// The holder of a command's argument `k`, given the command's words
/// (none when it was invoked by argv): word `k`, when that word is
/// literal and no word is `{*}`-expanded, so argv lines up with the words.
pub(crate) fn held(words: &[Word], k: usize) -> Option<&Held> {
    if words.iter().any(Word::expands) {
        return None;
    }
    let word = words.get(k)?;
    word.as_lit().map(|_| &word.held)
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
#[derive(Debug, PartialEq, Eq)]
pub struct Command {
    pub words: Vec<Word>,
    /// Source text of the command, for error traces. Boxed: a held
    /// script holds one per command, and `shape` takes the bytes saved.
    pub source: Box<str>,
    pub shape: Shape,
}

/// A fully parsed script.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Script {
    pub commands: Vec<Command>,
}

fn err<T>(msg: impl Into<String>) -> Result<T, Exception> {
    Err(Exception::error(msg))
}

/// A position in a script. As an iterator it yields the script's commands
/// from there on, parsed one at a time in source order: [`parse_script`]
/// collects them, [`crate::Interp::eval_once`] runs each before it parses
/// the next. A parse error is the last item. Slices of `src` begin and
/// end at ASCII delimiters, so on character boundaries.
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    /// Inside `[…]`: a `]` outside braces and quotes ends the script.
    nested: bool,
    /// The text of the literal part being read, once a backslash escape
    /// made it differ from the source; empty between parts. One buffer
    /// serves every word.
    lit: String,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            nested: false,
            lit: String::new(),
        }
    }
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }
    fn starts(&self, s: &str) -> bool {
        self.src.as_bytes()[self.pos..].starts_with(s.as_bytes())
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
    let commands = Cursor::new(src).collect::<Result<_, _>>()?;
    Ok(Script { commands })
}

/// Parse the commands of a `[…]` substitution, from `pos` just past its
/// `[` to the `]` that closes it. As in Tcl, that is the first `]` that
/// ends a command, so one inside a quoted or braced word does not count.
/// Returns the script and the position past the `]`.
pub(crate) fn command_subst(src: &str, pos: usize) -> Result<(Script, usize), Exception> {
    let mut cur = Cursor {
        src,
        pos,
        nested: true,
        lit: String::new(),
    };
    let commands = cur.by_ref().collect::<Result<_, _>>()?;
    match cur.peek() {
        Some(b']') => Ok((Script { commands }, cur.pos + 1)),
        _ => err("missing close-bracket"),
    }
}

impl Iterator for Cursor<'_> {
    type Item = Result<Command, Exception>;

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self;
        loop {
            skip_blank(cur);
            match cur.peek() {
                None => return None,
                Some(b']') if cur.nested => return None,
                Some(b'#') => {
                    skip_comment(cur);
                    continue;
                }
                Some(_) => {}
            }
            let start = cur.pos;
            let words = match parse_command(cur) {
                Ok(words) => words,
                Err(e) => {
                    cur.pos = cur.src.len();
                    return Some(Err(e));
                }
            };
            if !words.is_empty() {
                return Some(Ok(Command {
                    shape: shape_of(&words),
                    words,
                    source: cur.src[start..cur.pos].trim().into(),
                }));
            }
        }
    }
}

/// The words of `src` if it is one command of plain words: it holds no
/// byte that substitutes, quotes, groups, escapes, ends a command or
/// starts a comment, and no form feed or vertical tab, which Tcl counts
/// as space but this parser keeps inside a word. Words are split on
/// spaces and tabs, the only separators [`parse_command`] skips, and
/// each parses to itself.
pub(crate) fn plain_words(src: &str) -> Option<impl Iterator<Item = &str>> {
    let special = |b| {
        matches!(
            b,
            b'$' | b'[' | b']' | b'{' | b'}' | b'"' | b'\\' | b';' | b'#' | b'\n' | b'\r'
        ) || matches!(b, 0x0b | 0x0c)
    };
    (!src.bytes().any(special)).then(|| src.split([' ', '\t']).filter(|w| !w.is_empty()))
}

/// Skip whitespace, command separators, and escaped newlines between
/// commands.
fn skip_blank(cur: &mut Cursor) {
    loop {
        match cur.peek() {
            Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') | Some(b';') => {
                cur.pos += 1;
            }
            Some(b'\\') if cur.starts("\\\n") => {
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

/// Parse one command (words up to an unescaped newline or `;`, or inside
/// `[…]` up to the closing `]`, which is left for the caller).
fn parse_command(cur: &mut Cursor) -> Result<Vec<Word>, Exception> {
    let mut words = Vec::new();
    loop {
        // Skip intra-command whitespace.
        while matches!(cur.peek(), Some(b' ') | Some(b'\t')) {
            cur.pos += 1;
        }
        // Line continuation joins physical lines.
        if cur.starts("\\\n") {
            cur.pos += 2;
            continue;
        }
        match cur.peek() {
            None => return Ok(words),
            Some(b'\n') | Some(b';') | Some(b'\r') => {
                cur.pos += 1;
                return Ok(words);
            }
            Some(b']') if cur.nested => return Ok(words),
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
        Some(b'"') => {
            cur.pos += 1;
            quoted_parts(cur, true).map(Word::new)
        }
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
                    let text = &cur.src[start..cur.pos - 1];
                    return Ok(Word::lit(&unescape_brace_continuations(text)));
                }
            }
            _ => {}
        }
    }
    err("missing close-brace")
}

/// Inside braces, the only transformation Tcl applies is backslash-newline
/// (plus following whitespace) → single space.
fn unescape_brace_continuations(s: &str) -> Cow<'_, str> {
    if !s.contains("\\\n") {
        return Cow::Borrowed(s);
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
    Cow::Owned(out)
}

/// The parts of a quoted word, from just past its opening `"` through the
/// closing one; or, when not `quoted`, to the end of the text, where a
/// `"` is literal: what `subst` substitutes.
pub(crate) fn quoted_parts(cur: &mut Cursor, quoted: bool) -> Result<Vec<Part>, Exception> {
    let mut parts = Vec::new();
    // Where the literal text not yet in `cur.lit` starts.
    let mut start = cur.pos;
    loop {
        match cur.peek() {
            None if quoted => return err("missing close-quote"),
            None => break,
            Some(b'"') if quoted => break,
            Some(b'$') => {
                flush(&mut parts, cur, start);
                parts.push(parse_var_ref(cur)?);
                start = cur.pos;
            }
            Some(b'[') => {
                flush(&mut parts, cur, start);
                parts.push(parse_bracket(cur)?);
                start = cur.pos;
            }
            Some(b'\\') => {
                backslash_subst(cur, start);
                start = cur.pos;
            }
            Some(_) => {
                next_char(cur);
            }
        }
    }
    flush(&mut parts, cur, start);
    if quoted {
        cur.pos += 1;
    }
    Ok(parts)
}

fn parse_bare(cur: &mut Cursor) -> Result<Word, Exception> {
    let mut parts = Vec::new();
    let mut start = cur.pos;
    loop {
        match cur.peek() {
            None | Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') | Some(b';') => break,
            Some(b']') if cur.nested => break,
            Some(b'$') => {
                flush(&mut parts, cur, start);
                parts.push(parse_var_ref(cur)?);
                start = cur.pos;
            }
            Some(b'[') => {
                flush(&mut parts, cur, start);
                parts.push(parse_bracket(cur)?);
                start = cur.pos;
            }
            Some(b'\\') => {
                if cur.starts("\\\n") {
                    break; // line continuation: word ends here
                }
                backslash_subst(cur, start);
                start = cur.pos;
            }
            Some(_) => {
                next_char(cur);
            }
        }
    }
    flush(&mut parts, cur, start);
    Ok(Word::new(parts))
}

fn next_char(cur: &mut Cursor) -> char {
    // Decode one UTF-8 char starting at pos, looking at no more than its
    // own (at most four) bytes: validating the rest of the script here
    // made parsing quadratic in script length.
    let rest = &cur.src.as_bytes()[cur.pos..];
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

/// End the literal part being read, if any: the source from `start` on,
/// after what escapes put in `cur.lit`. Its text is allocated once,
/// straight from the source or the buffer, which is kept for the next.
fn flush(parts: &mut Vec<Part>, cur: &mut Cursor, start: usize) {
    let rest = &cur.src[start..cur.pos];
    if cur.lit.is_empty() {
        if !rest.is_empty() {
            parts.push(Part::Lit(rest.into()));
        }
        return;
    }
    cur.lit.push_str(rest);
    parts.push(Part::Lit(cur.lit.as_str().into()));
    cur.lit.clear();
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
                let name = cur.src[start..cur.pos].to_string();
                cur.pos += 1;
                return Ok(Part::Var(name));
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
        return Ok(Part::Lit("$".into()));
    }
    Ok(Part::Var(cur.src[start..cur.pos].to_string()))
}

/// Parse `[script]`: the nested commands up to the `]` that closes them.
fn parse_bracket(cur: &mut Cursor) -> Result<Part, Exception> {
    debug_assert_eq!(cur.peek(), Some(b'['));
    let (script, end) = command_subst(cur.src, cur.pos + 1)?;
    cur.pos = end;
    Ok(Part::Script(script))
}

/// Standard Tcl backslash substitution: the literal source from `start`,
/// then the escape's character, onto `cur.lit`. The cursor sits on the
/// backslash, and is left after the escape.
fn backslash_subst(cur: &mut Cursor, start: usize) {
    cur.lit.push_str(&cur.src[start..cur.pos]);
    cur.pos += 1;
    let Some(c) = cur.peek() else {
        cur.lit.push('\\');
        return;
    };
    cur.pos += 1;
    let ch = match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'a' => '\x07',
        b'b' => '\x08',
        b'f' => '\x0c',
        b'v' => '\x0b',
        b'\n' => {
            while matches!(cur.peek(), Some(b' ') | Some(b'\t')) {
                cur.pos += 1;
            }
            ' '
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
            if !any {
                'x'
            } else {
                match char::from_u32(v) {
                    Some(ch) => ch,
                    None => return,
                }
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
            if n == 0 {
                'u'
            } else {
                match char::from_u32(v) {
                    Some(ch) => ch,
                    None => return,
                }
            }
        }
        _ => {
            // Everything else (including \\ \" \$ \[ \] \{ \} \;) maps to
            // the character itself.
            cur.pos -= 1;
            next_char(cur)
        }
    };
    cur.lit.push(ch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_of(src: &str) -> Vec<Word> {
        let mut s = parse_script(src).unwrap();
        assert_eq!(s.commands.len(), 1, "expected 1 command in {src:?}");
        s.commands.remove(0).words
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
        let inner = parse_script("f [g 1] 2").unwrap();
        assert_eq!(w[2].parts, vec![Part::Script(inner)]);
    }

    #[test]
    fn a_close_bracket_in_a_quoted_or_braced_word_is_text() {
        for (src, inner) in [
            ("set x [string length \"a]b\"]", "string length \"a]b\""),
            ("set x [list {a]b} c]", "list {a]b} c"),
            ("set x [f a{b]", "f a{b"),
        ] {
            let w = words_of(src);
            let inner = parse_script(inner).unwrap();
            assert_eq!(w[2].parts, vec![Part::Script(inner)], "{src}");
        }
        assert!(parse_script("set x [f \"a]").is_err());
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
