//! # tclish — an embeddable Tcl-subset interpreter
//!
//! Swift/T's compiler (STC) deliberately targets **Tcl**: Turbine code must
//! be a textual, easily readable format that can be shipped through the load
//! balancer and evaluated on another rank without invoking a C compiler
//! (Wozniak et al., CLUSTER 2015, §III.A). This crate supplies that target
//! language for the reproduction: a from-scratch Tcl interpreter covering
//! the subset the generated Turbine code and user leaf fragments need,
//! while remaining a genuine Tcl: every value is a string, `{}` defers
//! substitution, `[]` nests evaluation, and `proc`/`expr`/list commands
//! follow the standard semantics.
//!
//! The host (the Turbine worker or engine) embeds one [`Interp`] per rank,
//! registers native commands with [`Interp::register`], and evaluates code
//! fragments with [`Interp::eval`] — exactly the embedding pattern the paper
//! uses for Python and R interpreters as well.
//!
//! ```
//! use tclish::Interp;
//!
//! let mut interp = Interp::new();
//! interp.eval("proc triple {x} { return [expr {$x * 3}] }").unwrap();
//! assert_eq!(interp.eval("triple 14").unwrap(), "42");
//! ```

mod builtins;
mod error;
mod expr;
mod hash;
mod interp;
mod list;
mod parser;

pub use error::{Exception, TclError, TclResult};
pub use expr::{format_double, parse_number, Val};
pub use interp::{CommandFn, Interp, PackageInit};
pub use list::{for_each_element, format_list, parse_list};
pub use parser::Script;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(script: &str) -> String {
        Interp::new().eval(script).unwrap()
    }

    #[test]
    fn long_scripts_evaluate_in_linear_time() {
        // 64k one-command lines took minutes when every literal character
        // re-validated the rest of the source as UTF-8.
        let src = "set v bareword\n".repeat(64 * 1024);
        let t = std::time::Instant::now();
        assert_eq!(ev(&src), "bareword");
        assert!(t.elapsed().as_secs_f64() < 2.0, "took {:?}", t.elapsed());
    }

    #[test]
    fn a_script_parsed_once_evaluates_in_any_interpreter() {
        let script = Script::parse("proc twice {x} { expr {$x * 2} }\ntwice 21").unwrap();
        assert_eq!(Interp::new().eval_script(&script).unwrap(), "42");
        assert_eq!(Interp::new().eval_script(&script).unwrap(), "42");
        assert!(Script::parse("set x {oops").is_err());
    }

    #[test]
    fn arithmetic_via_expr() {
        assert_eq!(ev("expr {1 + 2 * 3}"), "7");
    }

    #[test]
    fn set_and_substitute() {
        assert_eq!(ev("set a 5; set b 6; expr {$a * $b}"), "30");
    }

    #[test]
    fn nested_command_substitution() {
        assert_eq!(ev("set x [expr {2 ** 8}]; expr {$x + 1}"), "257");
    }

    #[test]
    fn a_close_bracket_in_a_quoted_word_stays_inside_the_substitution() {
        assert_eq!(ev("set x [string length \"a]b\"]"), "3");
        assert_eq!(ev("expr {[string length \"a]b\"] + 1}"), "4");
    }

    #[test]
    fn proc_with_defaults_and_varargs() {
        let mut i = Interp::new();
        i.eval("proc f {a {b 10} args} { return [expr {$a + $b + [llength $args]}] }")
            .unwrap();
        assert_eq!(i.eval("f 1").unwrap(), "11");
        assert_eq!(i.eval("f 1 2").unwrap(), "3");
        assert_eq!(i.eval("f 1 2 x y z").unwrap(), "6");
    }

    #[test]
    fn while_loop_accumulates() {
        assert_eq!(
            ev("set s 0; set i 0; while {$i < 10} { incr s $i; incr i }; set s"),
            "45"
        );
    }

    #[test]
    fn foreach_multiple_vars() {
        assert_eq!(
            ev("set out {}; foreach {a b} {1 2 3 4} { lappend out [expr {$a+$b}] }; set out"),
            "3 7"
        );
    }

    #[test]
    fn string_is_preserved_in_braces() {
        assert_eq!(ev("set v {hello $world [danger]}"), "hello $world [danger]");
    }

    #[test]
    fn quotes_substitute() {
        assert_eq!(ev("set w Tcl; set v \"hi $w [expr {1+1}]\""), "hi Tcl 2");
    }

    #[test]
    fn error_propagates_and_catch_catches() {
        let mut i = Interp::new();
        assert!(i.eval("error boom").is_err());
        assert_eq!(i.eval("catch {error boom} msg").unwrap(), "1");
        assert_eq!(i.eval("set msg").unwrap(), "boom");
    }
}
