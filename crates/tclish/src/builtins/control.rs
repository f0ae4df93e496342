//! Core and control-flow commands: `set`, `proc`, `if`, `while`, `for`,
//! `foreach`, `expr`, `catch`, `error`, and friends.
//!
//! Control-flow commands receive their bodies as plain strings, because the
//! parser leaves braced words unsubstituted, and beside them the words
//! that hold the bodies' parses ([`held`]; a loop with none holds them
//! itself); they evaluate the bodies with full exception semantics,
//! exactly like Tcl's own C-coded commands.

use super::{arity, arity_range, int_arg, ok};
use crate::error::{Exception, TclResult};
use crate::interp::{Interp, Obj, ProcDef};
use crate::list::{for_each_element, format_list, parse_list};
use crate::parser::{held, Code, Held, Word};

pub fn register(i: &mut Interp) {
    i.register("set", cmd_set);
    i.register("unset", cmd_unset);
    i.register("incr", cmd_incr);
    i.register_code("expr", cmd_expr);
    i.register("eval", cmd_eval);
    i.register_code("if", cmd_if);
    i.register_code("while", cmd_while);
    i.register_code("for", cmd_for);
    i.register_code("foreach", cmd_foreach);
    i.register("break", |_, argv| {
        arity(argv, 1, "break")?;
        Err(Exception::Break)
    });
    i.register("continue", |_, argv| {
        arity(argv, 1, "continue")?;
        Err(Exception::Continue)
    });
    i.register("proc", cmd_proc);
    i.register("return", cmd_return);
    i.register("error", cmd_error);
    i.register_code("catch", cmd_catch);
    i.register("global", cmd_global);
    i.register("variable", cmd_variable);
    i.register("uplevel", cmd_uplevel);
    i.register("info", cmd_info);
    i.register("subst", cmd_subst);
    i.register("time", cmd_time);
    i.register("rename", cmd_rename);
    i.register_code("switch", cmd_switch);
    i.register("unknown_noop", |_, _| ok());
}

fn cmd_set(i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "set varName ?newValue?")?;
    if argv.len() == 3 {
        i.set_var(&argv[1], argv[2].clone());
        Ok(argv[2].clone())
    } else {
        i.get_var(&argv[1])
    }
}

fn cmd_unset(i: &mut Interp, argv: &[String]) -> TclResult {
    let mut idx = 1;
    let mut nocomplain = false;
    if argv.get(1).map(String::as_str) == Some("-nocomplain") {
        nocomplain = true;
        idx = 2;
    }
    for name in &argv[idx..] {
        let existed = i.unset_var(name);
        if !existed && !nocomplain {
            return Err(Exception::error(format!(
                "can't unset \"{name}\": no such variable"
            )));
        }
    }
    ok()
}

fn cmd_incr(i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "incr varName ?increment?")?;
    let delta = argv.get(2).map_or(Ok(1), |d| int_arg(d))?;
    Ok(i.incr(&argv[1], delta)?.to_string())
}

fn cmd_expr(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"expr arg ?arg ...?\"",
        ));
    }
    let val = match argv {
        [_, src] => i.expr_in(src, held(w, 1))?,
        _ => i.expr_in(&argv[1..].join(" "), None)?,
    };
    Ok(val.into())
}

fn cmd_eval(i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"eval arg ?arg ...?\"",
        ));
    }
    let src = argv[1..].join(" ");
    i.eval_internal(&src)
}

fn cmd_if(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    // if cond ?then? body ?elseif cond ?then? body?... ?else? body
    let mut idx = 1;
    loop {
        if idx >= argv.len() {
            return Err(Exception::error("wrong # args: no expression after \"if\""));
        }
        let cond = idx;
        idx += 1;
        if argv.get(idx).map(String::as_str) == Some("then") {
            idx += 1;
        }
        let body = argv
            .get(idx)
            .ok_or_else(|| Exception::error("wrong # args: no script after condition"))?;
        idx += 1;
        if i.expr_in(&argv[cond], held(w, cond))?.truthy()? {
            return i.run_obj(body, held(w, idx - 1));
        }
        match argv.get(idx).map(String::as_str) {
            Some("elseif") => {
                idx += 1;
                continue;
            }
            Some("else") => {
                let body = argv
                    .get(idx + 1)
                    .ok_or_else(|| Exception::error("wrong # args: no script after \"else\""))?;
                return i.run_obj(body, held(w, idx + 1));
            }
            // Bare trailing body acts as else (Tcl allows omitting "else").
            Some(b) if idx + 1 == argv.len() => return i.run_obj(b, held(w, idx)),
            None => return Ok(Obj::EMPTY),
            Some(other) => {
                return Err(Exception::error(format!(
                    "invalid \"if\" clause \"{other}\""
                )))
            }
        }
    }
}

fn cmd_while(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    arity(argv, 3, "while test command")?;
    let local: [Held; 2] = Default::default();
    let [test, body] = [1, 2].map(|k| held(w, k).unwrap_or(&local[k - 1]));
    while i.expr_in(&argv[1], Some(test))?.truthy()? {
        match i.run_obj(&argv[2], Some(body)) {
            Ok(_) => {}
            Err(Exception::Break) => break,
            Err(Exception::Continue) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Obj::EMPTY)
}

fn cmd_for(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    arity(argv, 5, "for start test next command")?;
    i.run_obj(&argv[1], held(w, 1))?;
    let local: [Held; 3] = Default::default();
    let [test, next, body] = [2, 3, 4].map(|k| held(w, k).unwrap_or(&local[k - 2]));
    while i.expr_in(&argv[2], Some(test))?.truthy()? {
        match i.run_obj(&argv[4], Some(body)) {
            Ok(_) => {}
            Err(Exception::Break) => break,
            Err(Exception::Continue) => {}
            Err(e) => return Err(e),
        }
        i.run_obj(&argv[3], Some(next))?;
    }
    Ok(Obj::EMPTY)
}

fn cmd_foreach(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    // foreach varList list ?varList list ...? body
    if argv.len() < 4 || !argv.len().is_multiple_of(2) {
        return Err(Exception::error(
            "wrong # args: should be \"foreach varList list ?varList list ...? command\"",
        ));
    }
    let body = &argv[argv.len() - 1];
    let local = Held::default();
    let code = held(w, argv.len() - 1).unwrap_or(&local);
    let pairs = &argv[1..argv.len() - 1];
    let mut groups: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    for chunk in pairs.chunks(2) {
        let vars = parse_list(&chunk[0]).map_err(Exception::from)?;
        if vars.is_empty() {
            return Err(Exception::error("foreach varlist is empty"));
        }
        let vals = parse_list(&chunk[1]).map_err(Exception::from)?;
        groups.push((vars, vals));
    }
    // Number of iterations: max over groups of ceil(len/vars).
    let iters = groups
        .iter()
        .map(|(vars, vals)| vals.len().div_ceil(vars.len()))
        .max()
        .unwrap_or(0);
    for it in 0..iters {
        for (vars, vals) in &groups {
            for (vi, var) in vars.iter().enumerate() {
                let idx = it * vars.len() + vi;
                let val = vals.get(idx).cloned().unwrap_or_default();
                i.set_var(var, val);
            }
        }
        match i.run_obj(body, Some(code)) {
            Ok(_) => {}
            Err(Exception::Break) => break,
            Err(Exception::Continue) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Obj::EMPTY)
}

fn cmd_proc(i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 4, "proc name args body")?;
    let params_list = parse_list(&argv[2]).map_err(Exception::from)?;
    let mut params = Vec::new();
    let mut varargs = false;
    for (pi, p) in params_list.iter().enumerate() {
        if p == "args" && pi == params_list.len() - 1 {
            varargs = true;
            break;
        }
        let spec = parse_list(p).map_err(Exception::from)?;
        match spec.as_slice() {
            [name] => params.push((name.as_str().into(), None)),
            [name, default] => params.push((name.as_str().into(), Some(Obj::word(default)))),
            _ => {
                return Err(Exception::error(format!(
                    "too many fields in argument specifier \"{p}\""
                )))
            }
        }
    }
    i.define_proc(
        &argv[1],
        ProcDef {
            params,
            varargs,
            body: argv[3].clone(),
            held: Held::default(),
        },
    );
    ok()
}

fn cmd_return(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 1, 2, "return ?value?")?;
    Err(Exception::Return(argv.get(1).cloned().unwrap_or_default()))
}

fn cmd_error(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "error message ?info?")?;
    Err(Exception::error(argv[1].clone()))
}

fn cmd_catch(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    arity_range(argv, 2, 3, "catch script ?resultVarName?")?;
    let (code, value) = match i.run_obj(&argv[1], held(w, 1)) {
        Ok(v) => (0i64, v),
        Err(e) => (e.code(), Obj::Own(e.result_value())),
    };
    if let Some(var) = argv.get(2) {
        i.set_obj(var, value);
    }
    Ok(Obj::Int(code))
}

fn cmd_global(i: &mut Interp, argv: &[String]) -> TclResult {
    for name in &argv[1..] {
        i.link_global(name);
    }
    ok()
}

fn cmd_variable(i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "variable name ?value?")?;
    i.link_global(&argv[1]);
    if let Some(v) = argv.get(2) {
        i.set_var(&argv[1], v.clone());
    }
    ok()
}

fn cmd_uplevel(i: &mut Interp, argv: &[String]) -> TclResult {
    // Supported forms: `uplevel script`, `uplevel 1 script`, `uplevel #0 script`.
    // Full frame manipulation isn't modeled; #0 evaluates against globals by
    // prefixing nothing (variables resolve in current frame), so we only
    // honour the common generated-code pattern of evaluating a script.
    let script = match argv.len() {
        2 => argv[1].clone(),
        _ => argv[2..].join(" "),
    };
    i.eval_internal(&script)
}

fn cmd_info(i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "info subcommand ?arg?")?;
    match argv[1].as_str() {
        "exists" => {
            arity(argv, 3, "info exists varName")?;
            Ok((i.var_exists(&argv[2]) as i64).to_string())
        }
        "procs" => Ok(format_list(&i.proc_names())),
        "commands" => Ok(format_list(&i.command_names())),
        "level" => Ok(i.level().to_string()),
        other => Err(Exception::error(format!(
            "unknown or unsupported subcommand \"info {other}\""
        ))),
    }
}

fn cmd_subst(i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 2, "subst string")?;
    i.subst(&argv[1])
}

fn cmd_time(i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "time script ?count?")?;
    let count = if argv.len() == 3 {
        int_arg(&argv[2])?.max(1) as u64
    } else {
        1
    };
    let held = Held::default();
    let start = std::time::Instant::now();
    for _ in 0..count {
        i.run_obj(&argv[1], Some(&held))?;
    }
    let per = start.elapsed().as_micros() as f64 / count as f64;
    Ok(format!("{per:.1} microseconds per iteration"))
}

fn cmd_switch(i: &mut Interp, argv: &[String], w: &[Word]) -> Result<Obj, Exception> {
    // switch ?-exact|-glob? ?--? string {pattern body ...}
    // or     switch ?opts? string pattern body ?pattern body ...?
    let mut idx = 1;
    let mut glob = false;
    while let Some(opt) = argv.get(idx) {
        match opt.as_str() {
            "-exact" => idx += 1,
            "-glob" => {
                glob = true;
                idx += 1;
            }
            "--" => {
                idx += 1;
                break;
            }
            _ => break,
        }
    }
    let value = argv
        .get(idx)
        .ok_or_else(|| Exception::error("wrong # args: switch needs a string"))?
        .clone();
    idx += 1;
    // Pattern/body pairs from either form, each with its holder. A literal
    // list word holds its arms, each a word that holds its own parse.
    let fresh: Vec<Word>;
    let pairs: Vec<(&str, Option<&Held>)> = if argv.len() == idx + 1 {
        let arms = || -> Result<Vec<Word>, Exception> {
            let mut arms = Vec::new();
            for_each_element(&argv[idx], |arm| arms.push(Word::lit(&arm)))?;
            Ok(arms)
        };
        let code = held(w, idx).map(|h| h.code(|| arms().map(Code::Arms)));
        let words = match code.transpose()? {
            Some(Code::Arms(words)) => words,
            _ => {
                fresh = arms()?;
                &fresh
            }
        };
        words
            .iter()
            .map(|w| (w.as_lit().unwrap_or_default(), Some(&w.held)))
            .collect()
    } else {
        (idx..argv.len())
            .map(|k| (argv[k].as_str(), held(w, k)))
            .collect()
    };
    if pairs.is_empty() || !pairs.len().is_multiple_of(2) {
        return Err(Exception::error(
            "extra switch pattern with no body (or empty switch)",
        ));
    }
    let mut i_pair = 0;
    while i_pair < pairs.len() {
        let pattern = pairs[i_pair].0;
        let matched = pattern == "default"
            || if glob {
                super::strings::glob_match(pattern, &value)
            } else {
                pattern == value
            };
        if matched {
            // `-` body falls through to the next body.
            let mut k = i_pair + 1;
            while pairs[k].0 == "-" {
                k += 2;
                if k >= pairs.len() {
                    return Err(Exception::error("no body specified for fall-through"));
                }
            }
            return i.run_obj(pairs[k].0, pairs[k].1);
        }
        i_pair += 2;
    }
    Ok(Obj::EMPTY)
}

fn cmd_rename(i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 3, "rename oldName newName")?;
    if argv[2].is_empty() {
        if !i.unregister(&argv[1]) {
            return Err(Exception::error(format!(
                "can't rename \"{}\": command doesn't exist",
                argv[1]
            )));
        }
        return ok();
    }
    Err(Exception::error(
        "rename to a new name is not supported; only deletion (rename cmd {})",
    ))
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn ev(s: &str) -> String {
        Interp::new().eval(s).unwrap()
    }

    #[test]
    fn if_elseif_else_chain() {
        let script = |x: i64| {
            format!("set x {x}; if {{$x < 0}} {{ set r neg }} elseif {{$x == 0}} {{ set r zero }} else {{ set r pos }}; set r")
        };
        assert_eq!(ev(&script(-5)), "neg");
        assert_eq!(ev(&script(0)), "zero");
        assert_eq!(ev(&script(3)), "pos");
    }

    #[test]
    fn if_without_else_returns_empty() {
        assert_eq!(ev("if {0} { set x 1 }"), "");
    }

    #[test]
    fn for_loop() {
        assert_eq!(
            ev("set s 0; for {set i 1} {$i <= 5} {incr i} { incr s $i }; set s"),
            "15"
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            ev("set s 0; for {set i 0} {$i < 10} {incr i} { if {$i == 3} continue; if {$i == 6} break; incr s $i }; set s"),
            "12" // 0+1+2+4+5
        );
    }

    #[test]
    fn foreach_parallel_lists() {
        assert_eq!(
            ev("set out {}; foreach a {1 2} b {10 20} { lappend out [expr {$a+$b}] }; set out"),
            "11 22"
        );
    }

    #[test]
    fn foreach_short_list_pads_empty() {
        assert_eq!(
            ev("set out {}; foreach {a b} {1 2 3} { lappend out $a-$b }; set out"),
            "1-2 3-"
        );
    }

    #[test]
    fn catch_return_code() {
        assert_eq!(ev("catch {set x 5}"), "0");
        assert_eq!(ev("catch {error oops}"), "1");
        assert_eq!(ev("catch {break}"), "3");
    }

    #[test]
    fn incr_defaults() {
        assert_eq!(ev("incr fresh"), "1");
        assert_eq!(ev("set x 5; incr x 10"), "15");
    }

    #[test]
    fn unset_and_info_exists() {
        assert_eq!(ev("set x 1; unset x; info exists x"), "0");
        assert_eq!(ev("unset -nocomplain nothere; info exists nothere"), "0");
        assert!(Interp::new().eval("unset nothere").is_err());
    }

    #[test]
    fn subst_substitutes() {
        assert_eq!(ev("set n 3; subst {n is $n}"), "n is 3");
        assert_eq!(ev("subst {n is [expr {1 + 2}]}"), "n is 3");
    }

    #[test]
    fn subst_replaces_backslash_sequences() {
        assert_eq!(ev("subst {a\\tb\\nc}"), "a\tb\nc");
        assert_eq!(ev("subst {é\\é \\u00e9t\\xe9}"), "éé été");
        assert_eq!(ev("subst {say \"hi\" \\\"}"), "say \"hi\" \"");
        let mut i = Interp::new();
        assert_eq!(i.subst("trailing \\").unwrap(), "trailing \\");
        assert_eq!(i.eval("subst a\\").unwrap(), "a\\");
    }

    #[test]
    fn info_commands_lists_procs_and_natives() {
        let mut i = Interp::new();
        i.register("native_x", |_, _| Ok(String::new()));
        i.eval("proc p {} {}").unwrap();
        let names = crate::parse_list(&i.eval("info commands").unwrap()).unwrap();
        for name in ["set", "if", "native_x", "p"] {
            assert!(names.iter().any(|n| n == name), "{name} in {names:?}");
        }
        i.eval("rename native_x {}; rename p {}").unwrap();
        let names = crate::parse_list(&i.eval("info commands").unwrap()).unwrap();
        assert!(
            !names.iter().any(|n| n == "native_x" || n == "p"),
            "{names:?}"
        );
    }

    #[test]
    fn variable_links_global() {
        assert_eq!(
            ev("proc f {} { variable counter 10; incr counter }; f; set counter"),
            "11"
        );
    }

    #[test]
    fn eval_concatenates() {
        assert_eq!(ev("eval set y 7; set y"), "7");
    }

    #[test]
    fn rename_deletes() {
        let mut i = Interp::new();
        i.eval("proc gone {} { return 1 }").unwrap();
        i.eval("rename gone {}").unwrap();
        assert!(i.eval("gone").is_err());
    }
}

#[cfg(test)]
mod switch_tests {
    use crate::interp::Interp;

    fn ev(s: &str) -> String {
        Interp::new().eval(s).unwrap()
    }

    #[test]
    fn switch_braced_pairs() {
        assert_eq!(
            ev("switch b { a {set r 1} b {set r 2} default {set r 9} }"),
            "2"
        );
        assert_eq!(ev("switch z { a {set r 1} default {set r 9} }"), "9");
    }

    #[test]
    fn switch_inline_pairs() {
        assert_eq!(ev("switch x a {set r 1} x {set r 7}"), "7");
    }

    #[test]
    fn switch_glob_mode() {
        assert_eq!(
            ev("switch -glob foo.txt {*.dat {set r d} *.txt {set r t}}"),
            "t"
        );
    }

    #[test]
    fn switch_fall_through() {
        assert_eq!(ev("switch a { a - b {set r ab} c {set r c} }"), "ab");
        assert_eq!(ev("switch b { a - b {set r ab} c {set r c} }"), "ab");
    }

    #[test]
    fn switch_no_match_returns_empty() {
        assert_eq!(ev("switch q { a {set r 1} }"), "");
    }
}
