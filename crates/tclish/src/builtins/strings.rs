//! String commands: `string`, `append`, `format`, `split`, `join`.
//!
//! Swift/T's automatic type conversion between Swift values and Tcl is
//! "oriented toward string representations" (§III.A); these commands are
//! the workhorses of that conversion and of user Tcl fragments.

use super::{arity, arity_range, index_arg, int_arg, ok, value_bytes, MAX_VALUE};
use crate::error::{Exception, TclResult};
use crate::interp::Interp;
use crate::list::{format_list, parse_list};

pub fn register(i: &mut Interp) {
    i.register("string", cmd_string);
    i.register("append", cmd_append);
    i.register("format", cmd_format);
    i.register("split", cmd_split);
    i.register("join", cmd_join);
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

fn cmd_string(_i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(Exception::error(
            "wrong # args: should be \"string subcommand arg ?arg ...?\"",
        ));
    }
    let sub = argv[1].as_str();
    match sub {
        "length" => {
            arity(argv, 3, "string length string")?;
            Ok(argv[2].chars().count().to_string())
        }
        "index" => {
            arity(argv, 4, "string index string charIndex")?;
            let cs = chars(&argv[2]);
            let idx = index_arg(&argv[3], cs.len())?;
            if idx < 0 || idx as usize >= cs.len() {
                Ok(String::new())
            } else {
                Ok(cs[idx as usize].to_string())
            }
        }
        "range" => {
            arity(argv, 5, "string range string first last")?;
            let cs = chars(&argv[2]);
            let a = index_arg(&argv[3], cs.len())?.max(0) as usize;
            let b = index_arg(&argv[4], cs.len())?;
            if b < 0 || a as i64 > b {
                return Ok(String::new());
            }
            let b = (b as usize).min(cs.len().saturating_sub(1));
            Ok(cs[a..=b].iter().collect())
        }
        "tolower" => {
            arity(argv, 3, "string tolower string")?;
            Ok(argv[2].to_lowercase())
        }
        "toupper" => {
            arity(argv, 3, "string toupper string")?;
            Ok(argv[2].to_uppercase())
        }
        "totitle" => {
            arity(argv, 3, "string totitle string")?;
            let mut cs = argv[2].chars();
            Ok(match cs.next() {
                Some(f) => f.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase(),
                None => String::new(),
            })
        }
        "trim" | "trimleft" | "trimright" => {
            arity_range(argv, 3, 4, "string trim string ?chars?")?;
            let set: Vec<char> = argv
                .get(3)
                .map(|s| s.chars().collect())
                .unwrap_or_else(|| vec![' ', '\t', '\n', '\r']);
            let pred = |c: char| set.contains(&c);
            Ok(match sub {
                "trim" => argv[2].trim_matches(pred).to_string(),
                "trimleft" => argv[2].trim_start_matches(pred).to_string(),
                _ => argv[2].trim_end_matches(pred).to_string(),
            })
        }
        "repeat" => {
            arity(argv, 4, "string repeat string count")?;
            let n = int_arg(&argv[3])?.max(0) as usize;
            value_bytes(argv[2].len().checked_mul(n))?;
            Ok(argv[2].repeat(n))
        }
        "equal" => {
            arity(argv, 4, "string equal string1 string2")?;
            Ok(((argv[2] == argv[3]) as i64).to_string())
        }
        "compare" => {
            arity(argv, 4, "string compare string1 string2")?;
            Ok(match argv[2].cmp(&argv[3]) {
                std::cmp::Ordering::Less => "-1",
                std::cmp::Ordering::Equal => "0",
                std::cmp::Ordering::Greater => "1",
            }
            .to_string())
        }
        "first" => {
            arity_range(argv, 4, 5, "string first needle haystack ?startIndex?")?;
            let hay = chars(&argv[3]);
            let start = if let Some(s) = argv.get(4) {
                index_arg(s, hay.len())?.max(0) as usize
            } else {
                0
            };
            let hay_str: String = hay.get(start..).unwrap_or(&[]).iter().collect();
            Ok(match hay_str.find(argv[2].as_str()) {
                Some(byte_idx) => {
                    let char_idx = hay_str[..byte_idx].chars().count();
                    (start + char_idx) as i64
                }
                None => -1,
            }
            .to_string())
        }
        "last" => {
            arity(argv, 4, "string last needle haystack")?;
            Ok(match argv[3].rfind(argv[2].as_str()) {
                Some(byte_idx) => argv[3][..byte_idx].chars().count() as i64,
                None => -1,
            }
            .to_string())
        }
        "match" => {
            arity(argv, 4, "string match pattern string")?;
            Ok((glob_match(&argv[2], &argv[3]) as i64).to_string())
        }
        "map" => {
            arity(argv, 4, "string map mapping string")?;
            let mapping = parse_list(&argv[2]).map_err(Exception::from)?;
            if mapping.len() % 2 != 0 {
                return Err(Exception::error("string map mapping must have even length"));
            }
            let mut out = String::new();
            let src = argv[3].as_str();
            let mut pos = 0;
            'outer: while let Some(c) = src[pos..].chars().next() {
                for pair in mapping.chunks(2) {
                    let (k, v) = (&pair[0], &pair[1]);
                    if !k.is_empty() && src[pos..].starts_with(k.as_str()) {
                        out.push_str(v);
                        pos += k.len();
                        continue 'outer;
                    }
                }
                out.push(c);
                pos += c.len_utf8();
            }
            Ok(out)
        }
        "replace" => {
            arity_range(argv, 5, 6, "string replace string first last ?newstring?")?;
            let cs = chars(&argv[2]);
            let a = index_arg(&argv[3], cs.len())?.max(0) as usize;
            let b = index_arg(&argv[4], cs.len())?;
            if b < 0 || a as i64 > b || a >= cs.len() {
                return Ok(argv[2].clone());
            }
            let b = (b as usize).min(cs.len() - 1);
            let mut out: String = cs[..a].iter().collect();
            if let Some(new) = argv.get(5) {
                out.push_str(new);
            }
            out.extend(&cs[b + 1..]);
            Ok(out)
        }
        "is" => {
            arity_range(argv, 4, 5, "string is class ?-strict? string")?;
            let (class, value) = if argv[3] == "-strict" {
                (&argv[2], argv.get(4).map(String::as_str).unwrap_or(""))
            } else {
                (&argv[2], argv[3].as_str())
            };
            let res = match class.as_str() {
                "integer" => value.parse::<i64>().is_ok(),
                "double" => value.parse::<f64>().is_ok(),
                "digit" => !value.is_empty() && value.chars().all(|c| c.is_ascii_digit()),
                "alpha" => !value.is_empty() && value.chars().all(|c| c.is_alphabetic()),
                "alnum" => !value.is_empty() && value.chars().all(|c| c.is_alphanumeric()),
                "space" => !value.is_empty() && value.chars().all(|c| c.is_whitespace()),
                "boolean" => matches!(
                    value.to_ascii_lowercase().as_str(),
                    "0" | "1" | "true" | "false" | "yes" | "no" | "on" | "off"
                ),
                other => {
                    return Err(Exception::error(format!(
                        "unknown string class \"{other}\""
                    )))
                }
            };
            Ok((res as i64).to_string())
        }
        other => Err(Exception::error(format!(
            "unknown or unsupported subcommand \"string {other}\""
        ))),
    }
}

/// Tcl glob matching: `*`, `?`, `[a-z]` sets, backslash escapes.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('*') => {
                for skip in 0..=t.len() {
                    if inner(&p[1..], &t[skip..]) {
                        return true;
                    }
                }
                false
            }
            Some('?') => !t.is_empty() && inner(&p[1..], &t[1..]),
            Some('[') => {
                let close = match p.iter().position(|&c| c == ']') {
                    Some(idx) if idx > 0 => idx,
                    _ => return !t.is_empty() && t[0] == '[' && inner(&p[1..], &t[1..]),
                };
                let set = &p[1..close];
                let Some(&c) = t.first() else { return false };
                let mut matched = false;
                let mut k = 0;
                while k < set.len() {
                    if k + 2 < set.len() && set[k + 1] == '-' {
                        if set[k] <= c && c <= set[k + 2] {
                            matched = true;
                        }
                        k += 3;
                    } else {
                        if set[k] == c {
                            matched = true;
                        }
                        k += 1;
                    }
                }
                matched && inner(&p[close + 1..], &t[1..])
            }
            Some('\\') if p.len() > 1 => !t.is_empty() && t[0] == p[1] && inner(&p[2..], &t[1..]),
            Some(&c) => !t.is_empty() && t[0] == c && inner(&p[1..], &t[1..]),
        }
    }
    inner(&chars(pattern), &chars(text))
}

fn cmd_append(i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"append varName ?value ...?\"",
        ));
    }
    let mut cur = if i.var_exists(&argv[1]) {
        i.get_var(&argv[1])?
    } else {
        String::new()
    };
    for v in &argv[2..] {
        cur.push_str(v);
    }
    i.set_var(&argv[1], cur.clone());
    Ok(cur)
}

/// `format` with the printf subset STC-generated code and user fragments
/// use: %d %i %s %f %e %g %x %X %o %c %% with flags `-`/`0`, width, and
/// precision.
fn cmd_format(_i: &mut Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(
            "wrong # args: should be \"format formatString ?arg ...?\"",
        ));
    }
    format_impl(&argv[1], &argv[2..])
}

pub(crate) fn format_impl(fmt: &str, args: &[String]) -> TclResult {
    let mut out = String::new();
    let mut ai = 0usize;
    let cs: Vec<char> = fmt.chars().collect();
    let mut i = 0usize;
    while i < cs.len() {
        if cs[i] != '%' {
            out.push(cs[i]);
            i += 1;
            continue;
        }
        i += 1;
        if i >= cs.len() {
            return Err(Exception::error("format string ended in %"));
        }
        if cs[i] == '%' {
            out.push('%');
            i += 1;
            continue;
        }
        // Flags.
        let mut left = false;
        let mut zero = false;
        let mut plus = false;
        while i < cs.len() {
            match cs[i] {
                '-' => left = true,
                '0' => zero = true,
                '+' => plus = true,
                ' ' => {}
                _ => break,
            }
            i += 1;
        }
        let width = field_size(&cs, &mut i)?;
        let mut precision: Option<usize> = None;
        if i < cs.len() && cs[i] == '.' {
            i += 1;
            precision = Some(field_size(&cs, &mut i)?);
        }
        // Length modifiers: accepted and ignored.
        while i < cs.len() && matches!(cs[i], 'l' | 'h' | 'q' | 'L') {
            i += 1;
        }
        if i >= cs.len() {
            return Err(Exception::error("format string ended mid-specifier"));
        }
        let conv = cs[i];
        i += 1;
        let next_arg = |ai: &mut usize| -> Result<String, Exception> {
            let a = args
                .get(*ai)
                .cloned()
                .ok_or_else(|| Exception::error("not enough arguments for format string"))?;
            *ai += 1;
            Ok(a)
        };
        let body = match conv {
            'd' | 'i' => {
                let v = int_arg(&next_arg(&mut ai)?)?;
                let s = if plus && v >= 0 {
                    format!("+{v}")
                } else {
                    v.to_string()
                };
                pad_num(s, width, zero, left)
            }
            'u' => {
                let v = int_arg(&next_arg(&mut ai)?)?;
                pad_num((v as u64).to_string(), width, zero, left)
            }
            'x' => pad_num(
                format!("{:x}", int_arg(&next_arg(&mut ai)?)?),
                width,
                zero,
                left,
            ),
            'X' => pad_num(
                format!("{:X}", int_arg(&next_arg(&mut ai)?)?),
                width,
                zero,
                left,
            ),
            'o' => pad_num(
                format!("{:o}", int_arg(&next_arg(&mut ai)?)?),
                width,
                zero,
                left,
            ),
            'c' => {
                let v = int_arg(&next_arg(&mut ai)?)?;
                char::from_u32(v as u32)
                    .map(|c| c.to_string())
                    .unwrap_or_default()
            }
            'f' => {
                let v = dbl_arg(&next_arg(&mut ai)?)?;
                let p = precision.unwrap_or(6);
                pad_num(format!("{v:.p$}"), width, zero, left)
            }
            'e' => {
                let v = dbl_arg(&next_arg(&mut ai)?)?;
                let p = precision.unwrap_or(6);
                pad_num(format!("{v:.p$e}"), width, zero, left)
            }
            'g' => {
                let v = dbl_arg(&next_arg(&mut ai)?)?;
                pad_num(format_g(v, precision.unwrap_or(6)), width, zero, left)
            }
            's' => {
                let mut s = next_arg(&mut ai)?;
                if let Some(p) = precision {
                    s = s.chars().take(p).collect();
                }
                pad_str(s, width, left)
            }
            other => return Err(Exception::error(format!("bad field specifier \"{other}\""))),
        };
        out.push_str(&body);
    }
    Ok(out)
}

/// A field's width or precision: the decimal digits at `cs[*i..]`, 0 if
/// none; a size over Tcl's value limit is an error.
fn field_size(cs: &[char], i: &mut usize) -> Result<usize, Exception> {
    let mut n = Some(0usize);
    while let Some(d) = cs.get(*i).and_then(|c| c.to_digit(10)) {
        n = n
            .and_then(|n| n.checked_mul(10)?.checked_add(d as usize))
            .filter(|&n| n <= MAX_VALUE);
        *i += 1;
    }
    value_bytes(n)
}

fn dbl_arg(s: &str) -> Result<f64, Exception> {
    s.trim()
        .parse::<f64>()
        .map_err(|_| Exception::error(format!("expected floating-point number but got \"{s}\"")))
}

fn format_g(v: f64, precision: usize) -> String {
    // %g: shortest of %e / %f at given significant digits.
    let p = precision.max(1);
    if v == 0.0 {
        return "0".to_string();
    }
    let exp = v.abs().log10().floor() as i32;
    if exp < -4 || exp >= p as i32 {
        let s = format!("{:.*e}", p - 1, v);
        trim_g_zeros(&s)
    } else {
        let decimals = (p as i32 - 1 - exp).max(0) as usize;
        let s = format!("{v:.decimals$}");
        trim_g_zeros(&s)
    }
}

fn trim_g_zeros(s: &str) -> String {
    if let Some(e_pos) = s.find(['e', 'E']) {
        let (mant, exp) = s.split_at(e_pos);
        let mant = if mant.contains('.') {
            mant.trim_end_matches('0').trim_end_matches('.')
        } else {
            mant
        };
        format!("{mant}{exp}")
    } else if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s.to_string()
    }
}

fn pad_num(s: String, width: usize, zero: bool, left: bool) -> String {
    if s.len() >= width {
        return s;
    }
    let pad = width - s.len();
    if left {
        s + &" ".repeat(pad)
    } else if zero {
        // Sign stays in front of the zeros.
        if let Some(rest) = s.strip_prefix('-') {
            format!("-{}{}", "0".repeat(pad), rest)
        } else {
            "0".repeat(pad) + &s
        }
    } else {
        " ".repeat(pad) + &s
    }
}

fn pad_str(s: String, width: usize, left: bool) -> String {
    let len = s.chars().count();
    if len >= width {
        return s;
    }
    let pad = width - len;
    if left {
        s + &" ".repeat(pad)
    } else {
        " ".repeat(pad) + &s
    }
}

fn cmd_split(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "split string ?splitChars?")?;
    let seps: Vec<char> = argv
        .get(2)
        .map(|s| s.chars().collect())
        .unwrap_or_else(|| vec![' ', '\t', '\n', '\r']);
    if seps.is_empty() {
        let parts: Vec<String> = argv[1].chars().map(|c| c.to_string()).collect();
        return Ok(format_list(&parts));
    }
    let parts: Vec<String> = argv[1]
        .split(|c: char| seps.contains(&c))
        .map(str::to_string)
        .collect();
    Ok(format_list(&parts))
}

fn cmd_join(_i: &mut Interp, argv: &[String]) -> TclResult {
    arity_range(argv, 2, 3, "join list ?joinString?")?;
    let sep = argv.get(2).map(String::as_str).unwrap_or(" ");
    let els = parse_list(&argv[1]).map_err(Exception::from)?;
    let _ = ok();
    Ok(els.join(sep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    fn ev(s: &str) -> String {
        Interp::new().eval(s).unwrap()
    }

    #[test]
    fn length_index_range() {
        assert_eq!(ev("string length héllo"), "5");
        assert_eq!(ev("string index abcdef 2"), "c");
        assert_eq!(ev("string index abcdef end"), "f");
        assert_eq!(ev("string range abcdef 1 3"), "bcd");
        assert_eq!(ev("string range abcdef 3 end"), "def");
        assert_eq!(ev("string range abcdef 4 2"), "");
    }

    #[test]
    fn case_ops() {
        assert_eq!(ev("string toupper aBc"), "ABC");
        assert_eq!(ev("string tolower aBc"), "abc");
        assert_eq!(ev("string totitle hELLO"), "Hello");
    }

    #[test]
    fn trims() {
        assert_eq!(ev("string trim {  hi  }"), "hi");
        assert_eq!(ev("string trimleft xxabxx x"), "abxx");
        assert_eq!(ev("string trimright xxabxx x"), "xxab");
    }

    #[test]
    fn first_last_repeat() {
        assert_eq!(ev("string first lo hello"), "3");
        assert_eq!(ev("string first zz hello"), "-1");
        assert_eq!(ev("string last l hello"), "3");
        assert_eq!(ev("string repeat ab 3"), "ababab");
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*.dat", "file.dat"));
        assert!(glob_match("f?le", "file"));
        assert!(!glob_match("f?le", "fle"));
        assert!(glob_match("[a-c]x", "bx"));
        assert!(!glob_match("[a-c]x", "dx"));
        assert!(glob_match("*", ""));
        assert_eq!(ev("string match {f*.txt} foo.txt"), "1");
    }

    #[test]
    fn string_map() {
        assert_eq!(ev("string map {ab X c Y} abcab"), "XYX");
    }

    #[test]
    fn string_replace() {
        assert_eq!(ev("string replace abcde 1 3 XY"), "aXYe");
        assert_eq!(ev("string replace abcde 1 3"), "ae");
    }

    #[test]
    fn string_is() {
        assert_eq!(ev("string is integer 42"), "1");
        assert_eq!(ev("string is integer 4.2"), "0");
        assert_eq!(ev("string is double 4.2"), "1");
        assert_eq!(ev("string is alpha abc"), "1");
        assert_eq!(ev("string is alpha ab1"), "0");
    }

    #[test]
    fn append_builds_strings() {
        assert_eq!(ev("append s a b c; set s"), "abc");
        assert_eq!(ev("set s x; append s y; set s"), "xy");
    }

    #[test]
    fn format_integers() {
        assert_eq!(ev("format %d 42"), "42");
        assert_eq!(ev("format %5d 42"), "   42");
        assert_eq!(ev("format %-5d| 42"), "42   |");
        assert_eq!(ev("format %05d 42"), "00042");
        assert_eq!(ev("format %05d -42"), "-0042");
        assert_eq!(ev("format %x 255"), "ff");
        assert_eq!(ev("format %+d 7"), "+7");
    }

    #[test]
    fn format_floats_and_strings() {
        assert_eq!(ev("format %.2f 3.14159"), "3.14");
        assert_eq!(ev("format %8.2f 3.14159"), "    3.14");
        assert_eq!(
            ev("format %s|%10s|%-10s| a b c"),
            "a|         b|c         |"
        );
        assert_eq!(ev("format %.3s abcdef"), "abc");
        assert_eq!(ev("format %g 0.0001"), "0.0001");
        assert_eq!(ev("format %g 100000000"), "1e8");
        assert_eq!(ev("format %c 65"), "A");
        assert_eq!(ev("format 100%%"), "100%");
    }

    #[test]
    fn format_errors() {
        assert!(Interp::new().eval("format %d").is_err());
        assert!(Interp::new().eval("format %d notanint").is_err());
    }

    #[test]
    fn split_and_join() {
        assert_eq!(ev("split a,b,c ,"), "a b c");
        assert_eq!(ev("split {a b  c}"), "a b {} c");
        assert_eq!(ev("join {a b c} -"), "a-b-c");
        assert_eq!(ev("split abc {}"), "a b c");
    }
}
