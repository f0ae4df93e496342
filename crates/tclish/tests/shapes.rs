//! `set`, `incr` and `expr` with literal names run without an argv; the
//! same commands named through a variable (`$c_set ...`) always take
//! generic dispatch. Both must give identical results, output and error
//! messages, and a displaced builtin must win when the same text is
//! evaluated again (`Interp::eval` parses it at each call; `interp.rs`
//! checks a held parse).

use proptest::prelude::*;
use tclish::Interp;

#[derive(Debug, Clone)]
enum Cmd {
    Set(usize, &'static str),
    SetExpr(usize, String),
    Read(usize),
    Incr(usize, Option<&'static str>),
    Expr(String),
    Puts(usize),
    If(String, Vec<Cmd>, Vec<Cmd>),
    For(u8, Vec<Cmd>),
    While(u8, Vec<Cmd>),
}

const VARS: [&str; 3] = ["a", "b", "c"];
const VALUES: [&str; 10] = ["0", "1", "-7", "42", "x", "", "3.5", "0x10", " 8 ", "true"];
const DELTAS: [&str; 5] = ["1", "-3", "$a", "$b", "{}"];

fn pick(xs: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..xs.len()).prop_map(move |i| xs[i])
}

fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..VARS.len()).prop_map(|v| format!("${}", VARS[v])),
        (-3i64..10).prop_map(|n| n.to_string()),
        Just("\"x\"".to_string()),
    ]
}

fn expr_text() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        Just("+"),
        Just("-"),
        Just("*"),
        Just("/"),
        Just("%"),
        Just("<"),
        Just("=="),
        Just("eq"),
        Just("&&"),
        Just("||"),
    ];
    prop_oneof![
        operand(),
        (operand(), op, operand()).prop_map(|(l, op, r)| format!("{l} {op} {r}")),
        operand().prop_map(|x| format!("!{x}")),
    ]
}

fn cmd() -> impl Strategy<Value = Cmd> {
    let var = 0..VARS.len();
    let leaf = prop_oneof![
        (var.clone(), pick(&VALUES)).prop_map(|(v, x)| Cmd::Set(v, x)),
        (var.clone(), expr_text()).prop_map(|(v, e)| Cmd::SetExpr(v, e)),
        var.clone().prop_map(Cmd::Read),
        (var.clone(), proptest::option::of(pick(&DELTAS))).prop_map(|(v, d)| Cmd::Incr(v, d)),
        expr_text().prop_map(Cmd::Expr),
        var.prop_map(Cmd::Puts),
    ];
    leaf.prop_recursive(2, 24, 4, |inner| {
        let block = proptest::collection::vec(inner, 0..4);
        prop_oneof![
            (expr_text(), block.clone(), block.clone()).prop_map(|(c, t, e)| Cmd::If(c, t, e)),
            (0u8..4, block.clone()).prop_map(|(n, b)| Cmd::For(n, b)),
            (0u8..4, block).prop_map(|(n, b)| Cmd::While(n, b)),
        ]
    })
}

/// Render `cmds` with literal command names, or with every name read
/// from a `c_<name>` variable. Loop counters are per nesting depth and
/// never assigned by a body, so every loop ends.
fn render(cmds: &[Cmd], routed: bool, depth: usize) -> String {
    let name = |n: &str| {
        if routed {
            format!("$c_{n}")
        } else {
            n.to_string()
        }
    };
    let block = |b: &[Cmd]| render(b, routed, depth + 1);
    let lines: Vec<String> = cmds
        .iter()
        .map(|c| match c {
            Cmd::Set(v, x) => format!("{} {} {{{x}}}", name("set"), VARS[*v]),
            Cmd::SetExpr(v, e) => {
                format!("{} {} [{} {{{e}}}]", name("set"), VARS[*v], name("expr"))
            }
            Cmd::Read(v) => format!("{} {}", name("set"), VARS[*v]),
            Cmd::Incr(v, None) => format!("{} {}", name("incr"), VARS[*v]),
            Cmd::Incr(v, Some(d)) => format!("{} {} {d}", name("incr"), VARS[*v]),
            Cmd::Expr(e) => format!("{} {{{e}}}", name("expr")),
            Cmd::Puts(v) => format!("{} ${}", name("puts"), VARS[*v]),
            Cmd::If(cond, t, e) => {
                format!(
                    "{} {{{cond}}} {{{}}} else {{{}}}",
                    name("if"),
                    block(t),
                    block(e)
                )
            }
            Cmd::For(n, b) => format!(
                "{f} {{{set} k{depth} 0}} {{$k{depth} < {n}}} {{{incr} k{depth}}} {{{}}}",
                block(b),
                f = name("for"),
                set = name("set"),
                incr = name("incr"),
            ),
            Cmd::While(n, b) => format!(
                "{set} w{depth} 0; {w} {{$w{depth} < {n}}} {{{incr} w{depth}; {}}}",
                block(b),
                set = name("set"),
                w = name("while"),
                incr = name("incr"),
            ),
        })
        .collect();
    lines.join("\n")
}

const ROUTES: &str =
    "set c_set set; set c_incr incr; set c_expr expr; set c_if if; set c_for for; \
     set c_while while; set c_puts puts\n";

fn run(program: &str) -> (Result<String, String>, String) {
    let mut interp = Interp::new();
    let out = interp.capture_output();
    let result = interp.eval(program).map_err(|e| e.message);
    let printed = out.borrow().clone();
    (result, printed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn shaped_and_generic_dispatch_agree(
        init in proptest::collection::vec(pick(&VALUES), 3),
        cmds in proptest::collection::vec(cmd(), 1..8),
    ) {
        let setup: String = VARS
            .iter()
            .zip(&init)
            .map(|(v, x)| format!("set {v} {{{x}}}\n"))
            .collect();
        let literal = format!("{ROUTES}{setup}{}", render(&cmds, false, 0));
        let routed = format!("{ROUTES}{setup}{}", render(&cmds, true, 0));
        prop_assert_eq!(run(&literal), run(&routed), "literal:\n{}\nrouted:\n{}", literal, routed);
    }
}

/// Each way to displace a shaped builtin, applied after the script ran
/// once: the next evaluation of the same text, which `Interp::eval`
/// parses anew, must call the new command. (The held-parse case is
/// `interp.rs`'s `a_displaced_builtin_wins_over_a_held_parse`.)
#[test]
fn a_displaced_builtin_wins_over_a_cached_script() {
    let script = "set x 1; incr x; expr {$x * 10}";
    type Displace = fn(&mut Interp);
    let displacements: [(&str, Displace, Result<&str, &str>); 5] = [
        (
            "proc set",
            |i| {
                i.eval("proc set {args} { return S }").unwrap();
            },
            // x keeps the 2 of the first run.
            Ok("30"),
        ),
        (
            "proc incr",
            |i| {
                i.eval("proc incr {args} { return I }").unwrap();
            },
            Ok("10"),
        ),
        (
            "proc expr",
            |i| {
                i.eval("proc expr {args} { return E }").unwrap();
            },
            Ok("E"),
        ),
        (
            "register expr",
            |i| i.register("expr", |_, argv| Ok(format!("<{}>", argv[1]))),
            Ok("<$x * 10>"),
        ),
        (
            "rename incr",
            |i| {
                i.eval("rename incr {}").unwrap();
            },
            Err("invalid command name \"incr\""),
        ),
    ];
    for (what, displace, want) in displacements {
        let mut i = Interp::new();
        assert_eq!(i.eval(script).unwrap(), "20", "{what}: before");
        displace(&mut i);
        let got = i.eval(script).map_err(|e| e.message);
        assert_eq!(got.as_deref().map_err(String::as_str), want, "{what}");
    }
}

#[test]
fn a_builtin_displaced_mid_loop_is_obeyed_by_the_held_body() {
    let mut i = Interp::new();
    let got = i
        .eval(
            "set out {}
             for {set k 0} {$k < 3} {incr k} {
                 lappend out [expr {$k + 10}]
                 if {$k == 0} { proc expr {args} { return E } }
             }
             set out",
        )
        .unwrap();
    assert_eq!(got, "10 E E");
}

#[test]
fn integers_read_back_as_their_text() {
    let mut i = Interp::new();
    // An i64 from expr or incr is the same string a native command sees.
    assert_eq!(
        i.eval("set x [expr {6 * 7}]; string length $x").unwrap(),
        "2"
    );
    assert_eq!(i.eval("set y [incr x]; append y !").unwrap(), "43!");
    // i64::MIN's own text reads back as an integer.
    assert_eq!(
        i.eval("set m [expr {-9223372036854775807 - 1}]; expr {$m + 1}")
            .unwrap(),
        "-9223372036854775807"
    );
    assert_eq!(
        i.eval("set s -9223372036854775808; expr {$s + 1}").unwrap(),
        "-9223372036854775807"
    );
}
