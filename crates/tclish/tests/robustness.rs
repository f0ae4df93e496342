//! The interpreter must never panic on arbitrary scripts: errors are
//! values (`TclError`), not crashes.

use proptest::prelude::*;
use tclish::Interp;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn eval_never_panics_on_arbitrary_input(src in ".{0,160}") {
        let mut interp = Interp::new();
        let _ = interp.eval(&src);
    }

    #[test]
    fn eval_never_panics_on_tclish_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("set"), Just("x"), Just("$x"), Just("${"), Just("}"),
                Just("{"), Just("["), Just("]"), Just("\""), Just("expr"),
                Just("puts"), Just("1"), Just("+"), Just(";"), Just("\\"),
                Just("foreach"), Just("proc"), Just("if"), Just("\n"),
                Just("{*}"), Just("list"), Just("switch"),
            ],
            0..30,
        )
    ) {
        let src: String = tokens.join(" ");
        let mut interp = Interp::new();
        let _ = interp.eval(&src);
    }

    // Multibyte characters and every operator byte: the tokenizer once
    // sliced a `&str` one byte past an operator's first byte.
    #[test]
    fn expr_never_panics(src in "[-+*/%()0-9a-z $.\\[\\]{}\"\\\\<>=!&|^~?:,éλ€😀]{0,60}") {
        let mut interp = Interp::new();
        let _ = interp.eval(&format!("expr {{{src}}}"));
        let _ = interp.eval(&format!("expr {src}"));
    }

    #[test]
    fn parse_list_never_panics(src in ".{0,120}") {
        let _ = tclish::parse_list(&src);
    }
}

/// A result over Tcl's value limit (2³¹−1 bytes, or elements of a list)
/// is Tcl's error, raised before anything is allocated. Each count here
/// once panicked with `capacity overflow` or an arithmetic overflow; none
/// is near the limit, so a regression panics rather than allocates.
#[test]
fn a_hostile_size_is_an_error_not_a_panic() {
    let bytes = "result exceeds max size for a Tcl value (2147483647 bytes)";
    let elements = "max length of a Tcl list (2147483647 elements) exceeded";
    let mut interp = Interp::new();
    for (src, want) in [
        ("string repeat ab 9223372036854775807", bytes),
        ("string repeat abcd 4611686018427387904", bytes),
        ("lrepeat 4611686018427387904 a", elements),
        ("lrepeat 2305843009213693952 a b", elements),
        ("format %99999999999999999999d 1", bytes),
        ("format %5.99999999999999999999s x", bytes),
    ] {
        assert_eq!(interp.eval(src).unwrap_err().message, want, "{src}");
    }
    // The interpreter is as it was.
    assert_eq!(interp.eval("string repeat ab 3").unwrap(), "ababab");
    assert_eq!(interp.eval("lrepeat 2 a {b c}").unwrap(), "a {b c} a {b c}");
    assert_eq!(
        interp.eval("format %5.2f|%-3s| 1.5 x").unwrap(),
        " 1.50|x  |"
    );
}
