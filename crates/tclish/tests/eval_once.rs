//! `Interp::eval_once` streams a text one command at a time and invokes a
//! single command of plain words without a parse tree; `Interp::eval`
//! parses the whole text first, at every call. On any text that parses,
//! both must give the same result or error, the same error trace, the
//! same output, the same `commands_executed` and the same variables.

use proptest::prelude::*;
use tclish::Interp;

/// Command names: shaped builtins, generic ones, an unknown one, and the
/// top-level control exceptions.
const NAMES: [&str; 13] = [
    "set", "incr", "expr", "list", "concat", "llength", "puts", "string", "nosuch", "return",
    "break", "continue", "error",
];

/// Words with no excluded byte. Some hold form feed, vertical tab or a
/// no-break space (a `trim` whitespace the parser keeps), or a `#` past a
/// word's start.
const PLAIN: [&str; 14] = [
    "a", "b", "l", "1", "-2", "0x10", "1.5", "length", "é", "x#y", "a\u{c}b", "\u{b}v", "w\u{a0}",
    "\u{c}",
];

/// Words that take the general path: each holds one or more of the
/// excluded bytes, balanced so the script parses.
const SPECIAL: [&str; 14] = [
    "$a",
    "$b",
    "${l}",
    "[set a]",
    "[incr b]",
    "[nosuch x]",
    "\"q $a\"",
    "{b r}",
    "{}",
    "\\;",
    "\\$x",
    "{*}{1 2}",
    "{*}$l",
    "\"\"",
];

const SEPARATORS: [&str; 3] = [" ", "\t", " \t "];
const TERMINATORS: [&str; 5] = ["\n", ";", " ; ", "\r\n", "\n# a comment [ {\n"];

fn pick(xs: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..xs.len()).prop_map(move |i| xs[i])
}

/// One command: a name, then up to four words joined by spaces and tabs,
/// with optional blanks around it.
fn command(word: BoxedStrategy<&'static str>) -> impl Strategy<Value = String> {
    (
        pick(&NAMES),
        proptest::collection::vec((pick(&SEPARATORS), word), 0..5),
        pick(&["", " ", "\t "]),
        pick(&["", " ", "\t"]),
    )
        .prop_map(|(name, words, lead, trail)| {
            let mut text = format!("{lead}{name}");
            for (sep, w) in words {
                text.push_str(sep);
                text.push_str(w);
            }
            text.push_str(trail);
            text
        })
}

fn plain_command() -> impl Strategy<Value = String> {
    command(pick(&PLAIN).boxed())
}

fn any_word() -> BoxedStrategy<&'static str> {
    (0..PLAIN.len() + SPECIAL.len())
        .prop_map(|i| match PLAIN.get(i) {
            Some(w) => *w,
            None => SPECIAL[i - PLAIN.len()],
        })
        .boxed()
}

/// One to four commands of any words, separated by newlines, `;`, CRLF
/// or a comment line.
fn script() -> impl Strategy<Value = String> {
    (
        command(any_word()),
        proptest::collection::vec((pick(&TERMINATORS), command(any_word())), 0..4),
    )
        .prop_map(|(first, rest)| {
            let mut text = first;
            for (end, cmd) in rest {
                text.push_str(end);
                text.push_str(&cmd);
            }
            text
        })
}

/// Everything `text` leaves observable, evaluated by `eval` or by
/// `eval_once` in an interpreter with `a`, `b` and `l` set.
fn observe(text: &str, once: bool) -> impl PartialEq + std::fmt::Debug {
    let mut interp = Interp::new();
    let out = interp.capture_output();
    interp.eval("set a 5; set b 2; set l {p q}").unwrap();
    let before = interp.commands_executed;
    let result = if once {
        interp.eval_once(text)
    } else {
        interp.eval(text)
    };
    let vars: Vec<_> = ["a", "b", "l", "x#y", "a\u{c}b", "é"]
        .iter()
        .map(|v| interp.get_var(v).ok())
        .collect();
    let output = out.borrow().clone();
    (result, interp.commands_executed - before, vars, output)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn a_plain_command_runs_as_eval_runs_it(text in plain_command()) {
        prop_assert_eq!(observe(&text, true), observe(&text, false), "{:?}", text);
    }

    #[test]
    fn a_script_streams_as_eval_runs_it(text in script()) {
        prop_assert_eq!(observe(&text, true), observe(&text, false), "{:?}", text);
    }
}

#[test]
fn each_excluded_byte_and_odd_space_matches_eval() {
    for text in [
        "set a $b",
        "set a [set b]",
        "set a ]",
        "set a {x y}",
        "set a }",
        "set a \"x y\"",
        "set a \\x41",
        "set a 1; set b 3",
        "# set a 9",
        "set a 1\nset b 3",
        "set a 1\rset b 3",
        "set a x\u{c}y",
        "set a\u{b}b 4",
        "\u{c}set a 1",
        "set a 1 \u{b}",
        "",
        " \t ",
        "return -code",
        "break",
        "continue",
        "return done",
        "set",
        "incr a b",
        "nosuch 1 2",
        "list {*}$l x",
    ] {
        assert_eq!(observe(text, true), observe(text, false), "{text:?}");
    }
}
