//! Mini-Python must return `PyError`, never panic, on arbitrary code.

use proptest::prelude::*;
use pythonish::Python;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn exec_never_panics_on_arbitrary_input(src in ".{0,160}") {
        let mut py = Python::new();
        let _ = py.exec(&src);
    }

    #[test]
    fn exec_never_panics_on_pythonic_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("def"), Just("f"), Just("("), Just(")"), Just(":"),
                Just("return"), Just("if"), Just("else"), Just("for"),
                Just("in"), Just("range"), Just("x"), Just("="), Just("1"),
                Just("+"), Just("["), Just("]"), Just("{"), Just("}"),
                Just("'s'"), Just("f'{x}'"), Just("\n"), Just("\n    "),
                Just("."), Just(","), Just("*"),
            ],
            0..30,
        )
    ) {
        let src: String = tokens.join(" ");
        let mut py = Python::new();
        let _ = py.exec(&src);
    }
}

const CORNERS: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
const BINARY_OPS: [&str; 14] = [
    "+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", ">", "<=", ">=", "in",
];

proptest! {
    // Corner integers through every binary operator: a value (ints wrap,
    // as `+ - * **` always did) or a `PyError`, never a panic or a hang.
    #[test]
    fn binary_operators_on_corner_ints_never_panic(
        op in 0..BINARY_OPS.len(),
        x in 0..CORNERS.len(),
        y in 0..CORNERS.len(),
    ) {
        let mut py = Python::new();
        py.set_global("x", pythonish::Value::Int(CORNERS[x]));
        py.set_global("y", pythonish::Value::Int(CORNERS[y]));
        let src = format!("x {} y", BINARY_OPS[op]);
        let _ = py.eval(&src);
        let _ = py.exec(&format!("z = -x\nw = abs(x)\nv = x {} y", BINARY_OPS[op]));
    }
}
