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
