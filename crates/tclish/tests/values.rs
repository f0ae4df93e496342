//! Value semantics while values share their text: a copy (`set y $x`, a
//! proc argument, a literal) is a reference, so a write through one name
//! must never show through another. Every expected value is Tcl's.

use tclish::Interp;

fn ev(interp: &mut Interp, src: &str) -> String {
    interp
        .eval(src)
        .unwrap_or_else(|e| panic!("{src}: {}", e.message))
}

#[test]
fn a_proc_that_changes_its_parameter_leaves_the_callers_variable() {
    let mut i = Interp::new();
    ev(&mut i, "proc bump {v} { incr v; return $v }");
    ev(&mut i, "proc grow {v} { append v def; return $v }");
    ev(&mut i, "proc push {v} { lappend v z; return $v }");
    assert_eq!(ev(&mut i, "set x 5; list [bump $x] $x"), "6 5");
    assert_eq!(ev(&mut i, "set s abc; list [grow $s] $s"), "abcdef abc");
    assert_eq!(
        ev(&mut i, "set l {a b}; list [push $l] $l"),
        "{a b z} {a b}"
    );
    // A literal argument, twice: the first call changed nothing it shares.
    assert_eq!(ev(&mut i, "grow xyz"), "xyzdef");
    assert_eq!(ev(&mut i, "grow xyz"), "xyzdef");
}

#[test]
fn a_copy_is_a_value_not_an_alias() {
    let mut i = Interp::new();
    assert_eq!(
        ev(&mut i, "set x hello; set y $x; append y z; list $x $y"),
        "hello helloz"
    );
    assert_eq!(
        ev(&mut i, "set x 41; set y $x; incr y; list $x $y"),
        "41 42"
    );
    assert_eq!(ev(&mut i, "set a 1; set b $a; set a 2; list $a $b"), "2 1");
    assert_eq!(
        ev(
            &mut i,
            "set p [string repeat ab 2]; set q $p; append p !; list $p $q"
        ),
        "abab! abab"
    );
}

#[test]
fn lappend_on_a_value_shared_with_a_literal() {
    let mut i = Interp::new();
    ev(
        &mut i,
        "proc fresh {} { set l {a b}; lappend l c; return $l }",
    );
    assert_eq!(ev(&mut i, "fresh"), "a b c");
    assert_eq!(ev(&mut i, "fresh"), "a b c");
    assert_eq!(
        ev(&mut i, "set m {x y}; set n $m; lappend n w; list $m $n"),
        "{x y} {x y w}"
    );
    let script = tclish::Script::parse("set k {1 2}; lappend k 3").unwrap();
    assert_eq!(i.eval_script(&script).unwrap(), "1 2 3");
    assert_eq!(i.eval_script(&script).unwrap(), "1 2 3");
}

#[test]
fn one_shot_words_keep_their_text_until_arithmetic_makes_it_canonical() {
    let mut i = Interp::new();
    ev(&mut i, "proc echo {args} { return $args }");
    ev(&mut i, "proc len {v} { string length $v }");
    ev(&mut i, "proc plus0 {v} { incr v 0 }");
    let words = "007 -0 +1 1e3 1234567890123456789 9999999999999999999 -9223372036854775808";
    assert_eq!(i.eval_once(&format!("echo {words}")).unwrap(), words);
    for (word, len) in [
        ("007", "3"),
        ("-0", "2"),
        ("+1", "2"),
        ("1e3", "3"),
        ("0", "1"),
    ] {
        assert_eq!(i.eval_once(&format!("len {word}")).unwrap(), len, "{word}");
    }
    for (word, canonical) in [
        ("007", "7"),
        ("-0", "0"),
        ("+1", "1"),
        ("1234567890123456789", "1234567890123456789"),
    ] {
        assert_eq!(
            i.eval_once(&format!("plus0 {word}")).unwrap(),
            canonical,
            "{word}"
        );
    }
    assert_eq!(
        i.eval_once("plus0 1e3").unwrap_err().message,
        "expected integer but got \"1e3\""
    );
    // As a whole text, not a plain one-command text, alike.
    assert_eq!(i.eval_once("echo 007 -0; # comment").unwrap(), "007 -0");
}

#[test]
fn expansion_splices_list_elements_as_words() {
    let mut i = Interp::new();
    ev(&mut i, "proc n {args} { llength $args }");
    ev(&mut i, "set l {a {b c} d}");
    assert_eq!(ev(&mut i, "n {*}$l"), "3");
    assert_eq!(ev(&mut i, "n x {*}$l {*}{} y"), "5");
    assert_eq!(ev(&mut i, "list {*}{1 2} 3"), "1 2 3");
    assert_eq!(ev(&mut i, "list {*}{007 -0 {b c}}"), "007 -0 {b c}");
    assert_eq!(
        ev(&mut i, "proc two {a b} { list $b $a }; two {*}{x y}"),
        "y x"
    );
}

#[test]
fn args_procs_collect_the_rest_as_a_list() {
    let mut i = Interp::new();
    ev(&mut i, "proc a {x args} { list $x $args }");
    assert_eq!(ev(&mut i, "a 1"), "1 {}");
    assert_eq!(ev(&mut i, "a 1 2 3"), "1 {2 3}");
    assert_eq!(ev(&mut i, "a 1 {b c}"), "1 {{b c}}");
    ev(&mut i, "proc d {x {y 7} args} { list $x $y $args }");
    assert_eq!(ev(&mut i, "d 1"), "1 7 {}");
    assert_eq!(ev(&mut i, "d 1 2 3 4"), "1 2 {3 4}");
    // A default is a value like any other: changing it changes no later call.
    ev(&mut i, "proc e {{v ab}} { append v c }");
    assert_eq!(ev(&mut i, "e"), "abc");
    assert_eq!(ev(&mut i, "e"), "abc");
}
