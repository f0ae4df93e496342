//! List commands. Turbine containers, rule input lists, and argument
//! vectors are all Tcl lists, so these are on the hot path of generated
//! code.

use super::{arity, arity_range, index_arg, int_arg, list_elements, ok, value_bytes};
use crate::error::{Exception, TclResult};
use crate::interp::Interp;
use crate::list::{format_list, parse_list, push_element};
use crate::parser::Held;

pub fn register(i: &mut Interp) {
    i.register("list", cmd_list);
    i.register("llength", cmd_llength);
    i.register("lindex", cmd_lindex);
    i.register("lrange", cmd_lrange);
    i.register("lappend", cmd_lappend);
    i.register("linsert", cmd_linsert);
    i.register("lreverse", cmd_lreverse);
    i.register("lsort", cmd_lsort);
    i.register("lsearch", cmd_lsearch);
    i.register("concat", cmd_concat);
    i.register("lrepeat", cmd_lrepeat);
    i.register("lassign", cmd_lassign);
    i.register("lmap", cmd_lmap);
}

fn cmd_list(_i: &mut Interp, argv: &[String]) -> TclResult {
    Ok(format_list(&argv[1..]))
}

fn cmd_llength(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 2, "llength list")?;
    Ok(parse_list(&argv[1])
        .map_err(Exception::from)?
        .len()
        .to_string())
}

fn cmd_lindex(_i: &mut Interp, argv: &[String]) -> TclResult {
    // lindex list ?index ...? — multiple indices walk nested lists.
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"lindex list ?index ...?\"",
        ));
    }
    let mut cur = argv[1].clone();
    for idx_str in &argv[2..] {
        let els = parse_list(&cur).map_err(Exception::from)?;
        let idx = index_arg(idx_str, els.len())?;
        cur = if idx < 0 || idx as usize >= els.len() {
            String::new()
        } else {
            els[idx as usize].clone()
        };
    }
    Ok(cur)
}

fn cmd_lrange(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 4, "lrange list first last")?;
    let els = parse_list(&argv[1]).map_err(Exception::from)?;
    let a = index_arg(&argv[2], els.len())?.max(0) as usize;
    let b = index_arg(&argv[3], els.len())?;
    if b < 0 || a as i64 > b || a >= els.len() {
        return Ok(String::new());
    }
    let b = (b as usize).min(els.len() - 1);
    Ok(format_list(&els[a..=b]))
}

fn cmd_lappend(i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"lappend varName ?value ...?\"",
        ));
    }
    let mut cur = if i.var_exists(&argv[1]) {
        i.get_var(&argv[1])?
    } else {
        String::new()
    };
    for v in &argv[2..] {
        if !cur.is_empty() {
            cur.push(' ');
        }
        push_element(&mut cur, v);
    }
    i.set_var(&argv[1], cur.clone());
    Ok(cur)
}

fn cmd_linsert(_i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(Exception::error(
            "wrong # args: should be \"linsert list index ?element ...?\"",
        ));
    }
    let mut els = parse_list(&argv[1]).map_err(Exception::from)?;
    let idx = index_arg(&argv[2], els.len())?.clamp(0, els.len() as i64) as usize;
    for (off, v) in argv[3..].iter().enumerate() {
        els.insert(idx + off, v.clone());
    }
    Ok(format_list(&els))
}

fn cmd_lreverse(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 2, "lreverse list")?;
    let mut els = parse_list(&argv[1]).map_err(Exception::from)?;
    els.reverse();
    Ok(format_list(&els))
}

fn cmd_lsort(_i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"lsort ?options? list\"",
        ));
    }
    let mut integer = false;
    let mut real = false;
    let mut decreasing = false;
    let mut unique = false;
    for opt in &argv[1..argv.len() - 1] {
        match opt.as_str() {
            "-integer" => integer = true,
            "-real" => real = true,
            "-decreasing" => decreasing = true,
            "-increasing" => decreasing = false,
            "-unique" => unique = true,
            "-ascii" => {}
            other => {
                return Err(Exception::error(format!(
                    "unknown lsort option \"{other}\""
                )))
            }
        }
    }
    let mut els = parse_list(&argv[argv.len() - 1]).map_err(Exception::from)?;
    if integer {
        let mut keyed: Vec<(i64, String)> = Vec::with_capacity(els.len());
        for e in &els {
            keyed.push((int_arg(e)?, e.clone()));
        }
        keyed.sort_by_key(|(k, _)| *k);
        els = keyed.into_iter().map(|(_, e)| e).collect();
    } else if real {
        let mut keyed: Vec<(f64, String)> = Vec::with_capacity(els.len());
        for e in &els {
            let k = e
                .trim()
                .parse::<f64>()
                .map_err(|_| Exception::error(format!("expected number but got \"{e}\"")))?;
            keyed.push((k, e.clone()));
        }
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        els = keyed.into_iter().map(|(_, e)| e).collect();
    } else {
        els.sort();
    }
    if decreasing {
        els.reverse();
    }
    if unique {
        els.dedup();
    }
    Ok(format_list(&els))
}

fn cmd_lsearch(_i: &mut Interp, argv: &[String]) -> TclResult {
    // lsearch ?-exact|-glob? list pattern (default -glob, like Tcl).
    arity_range(argv, 3, 4, "lsearch ?mode? list pattern")?;
    let (mode, list, pattern) = if argv.len() == 4 {
        (argv[1].as_str(), &argv[2], &argv[3])
    } else {
        ("-glob", &argv[1], &argv[2])
    };
    let els = parse_list(list).map_err(Exception::from)?;
    let found = els.iter().position(|e| match mode {
        "-exact" => e == pattern,
        "-glob" => super::strings::glob_match(pattern, e),
        _ => false,
    });
    if argv.len() == 4 && !matches!(mode, "-exact" | "-glob") {
        return Err(Exception::error(format!("unknown lsearch mode \"{mode}\"")));
    }
    Ok(found.map(|p| p as i64).unwrap_or(-1).to_string())
}

fn cmd_concat(_i: &mut Interp, argv: &[String]) -> TclResult {
    // concat joins trimmed args with single spaces (list-aware enough for
    // generated code).
    let parts: Vec<&str> = argv[1..]
        .iter()
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .collect();
    Ok(parts.join(" "))
}

fn cmd_lrepeat(_i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(Exception::error(
            "wrong # args: should be \"lrepeat count ?value ...?\"",
        ));
    }
    let n = int_arg(&argv[1])?;
    if n < 0 {
        return Err(Exception::error("bad count: must be >= 0"));
    }
    let n = n as usize;
    list_elements(n.checked_mul(argv.len() - 2))?;
    // The list is `n` copies of the values' own list, space-separated.
    let once = format_list(&argv[2..]);
    let len = value_bytes(n.checked_mul(once.len() + 1))?;
    let mut out = String::with_capacity(len);
    for k in 0..n {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(&once);
    }
    Ok(out)
}

fn cmd_lassign(i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(Exception::error(
            "wrong # args: should be \"lassign list varName ?varName ...?\"",
        ));
    }
    let els = parse_list(&argv[1]).map_err(Exception::from)?;
    for (k, var) in argv[2..].iter().enumerate() {
        i.set_var(var, els.get(k).cloned().unwrap_or_default());
    }
    let rest = if els.len() > argv.len() - 2 {
        format_list(&els[argv.len() - 2..])
    } else {
        String::new()
    };
    Ok(rest)
}

fn cmd_lmap(i: &mut Interp, argv: &[String]) -> TclResult {
    arity(argv, 4, "lmap varName list body")?;
    let els = parse_list(&argv[2]).map_err(Exception::from)?;
    let mut out = Vec::with_capacity(els.len());
    let body = Held::default();
    for e in els {
        i.set_var(&argv[1], e);
        match i.run(&argv[3], Some(&body)) {
            Ok(v) => out.push(v),
            Err(Exception::Break) => break,
            Err(Exception::Continue) => continue,
            Err(e) => return Err(e),
        }
    }
    let _ = ok();
    Ok(format_list(&out))
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn ev(s: &str) -> String {
        Interp::new().eval(s).unwrap()
    }

    #[test]
    fn list_quotes_elements() {
        assert_eq!(ev("list a {b c} d"), "a {b c} d");
        assert_eq!(ev("llength [list a {b c} d]"), "3");
    }

    #[test]
    fn lindex_nested() {
        assert_eq!(ev("lindex {{a b} {c d}} 1 0"), "c");
        assert_eq!(ev("lindex {a b c} end"), "c");
        assert_eq!(ev("lindex {a b c} 99"), "");
    }

    #[test]
    fn lrange_clamps() {
        assert_eq!(ev("lrange {a b c d e} 1 3"), "b c d");
        assert_eq!(ev("lrange {a b c} 1 end"), "b c");
        assert_eq!(ev("lrange {a b c} 2 0"), "");
    }

    #[test]
    fn lappend_preserves_structure() {
        assert_eq!(ev("lappend l a {b c}; llength $l"), "2");
    }

    #[test]
    fn linsert_positions() {
        assert_eq!(ev("linsert {a c} 1 b"), "a b c");
        assert_eq!(ev("linsert {a b} end z"), "a z b");
        assert_eq!(ev("linsert {a b} 99 z"), "a b z");
    }

    #[test]
    fn lreverse_and_lrepeat() {
        assert_eq!(ev("lreverse {1 2 3}"), "3 2 1");
        assert_eq!(ev("lrepeat 3 x"), "x x x");
        assert_eq!(ev("lrepeat 2 a b"), "a b a b");
    }

    #[test]
    fn lsort_modes() {
        assert_eq!(ev("lsort {b a c}"), "a b c");
        assert_eq!(ev("lsort -integer {10 9 2}"), "2 9 10");
        assert_eq!(ev("lsort {10 9 2}"), "10 2 9"); // ascii
        assert_eq!(ev("lsort -real {1.5 0.5 1.0}"), "0.5 1.0 1.5");
        assert_eq!(ev("lsort -decreasing {a c b}"), "c b a");
        assert_eq!(ev("lsort -unique {a b a}"), "a b");
    }

    #[test]
    fn lsearch_modes() {
        assert_eq!(ev("lsearch {a b c} b"), "1");
        assert_eq!(ev("lsearch {a b c} z"), "-1");
        assert_eq!(ev("lsearch -exact {a* b} a*"), "0");
        assert_eq!(ev("lsearch {foo bar} b*"), "1");
    }

    #[test]
    fn lassign_returns_rest() {
        assert_eq!(ev("lassign {1 2 3 4} a b; list $a $b"), "1 2");
        assert_eq!(ev("lassign {1 2 3 4} a b"), "3 4");
        assert_eq!(ev("lassign {1} a b; set b"), "");
    }

    #[test]
    fn lmap_transforms() {
        assert_eq!(ev("lmap x {1 2 3} { expr {$x * $x} }"), "1 4 9");
    }

    #[test]
    fn concat_flattens() {
        assert_eq!(ev("concat {a b} {c d}"), "a b c d");
        assert_eq!(ev("concat a {} b"), "a b");
    }
}
