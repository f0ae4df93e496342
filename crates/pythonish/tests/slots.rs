//! Inside a `def`, assigned names live in slots resolved when `def` runs;
//! at module level every name is a global looked up by name. The same
//! straight-line statements must give the same values, output and errors
//! both ways.

use proptest::prelude::*;
use pythonish::Python;

/// `a`..`c` are assigned in the function; `g` only read there, so it
/// resolves to the global by name.
const NAMES: [&str; 4] = ["a", "b", "c", "g"];
const OPS: [&str; 9] = ["+", "-", "*", "//", "%", "**", "<", "==", "and"];
const AUG: [&str; 4] = ["+=", "-=", "*=", "%="];

fn pick(xs: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..xs.len()).prop_map(move |i| xs[i])
}

fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(&NAMES).prop_map(str::to_string),
        (-4i64..9).prop_map(|n| n.to_string())
    ]
}

fn expr() -> impl Strategy<Value = String> {
    prop_oneof![
        operand(),
        (operand(), pick(&OPS), operand()).prop_map(|(l, op, r)| format!("({l} {op} {r})")),
        (operand(), pick(&OPS), operand(), pick(&OPS), operand())
            .prop_map(|(a, p, b, q, c)| format!("{a} {p} {b} {q} {c}")),
        operand().prop_map(|x| format!("-{x}")),
    ]
}

fn stmt() -> impl Strategy<Value = String> {
    let target = || pick(&NAMES[..3]);
    prop_oneof![
        (target(), expr()).prop_map(|(t, e)| format!("{t} = {e}")),
        (target(), pick(&AUG), expr()).prop_map(|(t, op, e)| format!("{t} {op} {e}")),
        expr().prop_map(|e| format!("print({e})")),
        expr().prop_map(|e| format!("c = {e} if a < b else {e} * 2")),
    ]
}

fn outcome(py: &mut Python, code: &str, result: &str) -> (Result<String, String>, String) {
    let r = py
        .exec(code)
        .and_then(|()| py.eval(result))
        .map(|v| v.to_display())
        .map_err(|e| e.message);
    (r, py.take_output())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn module_and_function_locals_agree(
        init in proptest::collection::vec(-3i64..5, 3),
        stmts in proptest::collection::vec(stmt(), 1..8),
    ) {
        let setup = format!("a = {}\nb = {}\nc = {}\n", init[0], init[1], init[2]);
        let module = format!("g = 7\n{setup}{}\n", stmts.join("\n"));
        let body: String = setup
            .lines()
            .chain(stmts.iter().map(String::as_str))
            .map(|l| format!("    {l}\n"))
            .collect();
        let function = format!("g = 7\ndef f():\n{body}    return [a, b, c]\n");
        let at_module = outcome(&mut Python::new(), &module, "[a, b, c]");
        let in_def = outcome(&mut Python::new(), &function, "f()");
        prop_assert_eq!(at_module, in_def, "statements:\n{}", stmts.join("\n"));
    }
}
