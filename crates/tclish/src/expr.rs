//! The `expr` sublanguage: Tcl's infix expression evaluator.
//!
//! STC-generated Turbine code uses `expr` for every arithmetic and
//! relational Swift operation, and user Tcl fragments (§III.A) lean on it
//! for "certain arithmetical or string expressions easier to perform in Tcl
//! than in Swift". The evaluator parses to a small AST first so `&&`, `||`,
//! and `?:` can short-circuit, then evaluates with Tcl's numeric rules:
//! integers stay integers, any double operand promotes, `eq`/`ne` always
//! compare strings, and relational operators compare numerically when both
//! operands parse as numbers.

use crate::error::{Exception, TclResult};
use crate::list::next_char_at;
use crate::parser::{command_subst, Script};

/// Host services `expr` needs from the enclosing interpreter: variable
/// lookup, nested command evaluation, and the `rand()` stream.
pub trait ExprHost {
    /// Resolve `$name` to a number where its text is one.
    fn var_val(&mut self, name: &str) -> Result<Val, Exception>;
    /// Evaluate a `[script]` substitution.
    fn eval_script(&mut self, script: &Script) -> TclResult;
    /// Next value of the `rand()` function in `[0,1)`.
    fn next_rand(&mut self) -> f64;
}

/// A Tcl expression value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Int(i64),
    Dbl(f64),
    Str(String),
}

impl Val {
    /// Render with Tcl's conventions (doubles always show a fractional
    /// part or exponent).
    pub fn to_tcl_string(&self) -> String {
        match self {
            Val::Int(i) => i.to_string(),
            Val::Dbl(d) => format_double(*d),
            Val::Str(s) => s.clone(),
        }
    }

    /// Tcl's boolean coercion: `expr`'s `&& || ! ?:` and every
    /// `if`/`for`/`while` condition.
    pub(crate) fn truthy(&self) -> Result<bool, Exception> {
        match self {
            Val::Int(i) => Ok(*i != 0),
            Val::Dbl(d) => Ok(*d != 0.0),
            Val::Str(s) => match parse_number(s.trim()) {
                Some(n) => n.truthy(),
                None => match s.to_ascii_lowercase().as_str() {
                    "true" | "yes" | "on" => Ok(true),
                    "false" | "no" | "off" => Ok(false),
                    _ => Err(Exception::error(format!(
                        "expected boolean value but got \"{s}\""
                    ))),
                },
            },
        }
    }

    /// Try to view this value as a number (Tcl's "everything is a string"
    /// means string operands may still be numeric).
    fn coerce_num(&self) -> Option<Val> {
        match self {
            Val::Int(_) | Val::Dbl(_) => Some(self.clone()),
            Val::Str(s) => parse_number(s.trim()),
        }
    }
}

/// Format a double the way Tcl prints it: always distinguishable from an
/// integer.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        return "NaN".to_string();
    }
    if d.is_infinite() {
        return if d > 0.0 { "Inf" } else { "-Inf" }.to_string();
    }
    let s = format!("{d}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Parse a Tcl numeric literal: decimal/hex/octal-free integers, floats.
pub fn parse_number(s: &str) -> Option<Val> {
    if s.is_empty() {
        return None;
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16)
            .ok()
            .map(|v| Val::Int(if neg { -v } else { v }));
    }
    if body.chars().all(|c| c.is_ascii_digit()) && !body.is_empty() {
        // Parsed with its sign, so `i64::MIN`'s own text reads back.
        return s.parse::<i64>().ok().map(Val::Int);
    }
    // Floats, including 1., .5, 1e3, inf/nan excluded deliberately.
    if body
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        && body.chars().any(|c| c.is_ascii_digit())
    {
        return body
            .parse::<f64>()
            .ok()
            .map(|v| Val::Dbl(if neg { -v } else { v }));
    }
    None
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Ast {
    Lit(Val),
    Var(String),
    Cmd(Script),
    Unary(UnOp, Box<Ast>),
    Binary(BinOp, Box<Ast>, Box<Ast>),
    Ternary(Box<Ast>, Box<Ast>, Box<Ast>),
    Call(String, Vec<Ast>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnOp {
    Neg,
    Pos,
    Not,
    BitNot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Pow,
    Mul,
    Div,
    Rem,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqNum,
    NeNum,
    EqStr,
    NeStr,
    BitAnd,
    BitXor,
    BitOr,
    And,
    Or,
}

fn prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Pow => 12,
        Mul | Div | Rem => 11,
        Add | Sub => 10,
        Shl | Shr => 9,
        Lt | Gt | Le | Ge => 8,
        EqNum | NeNum => 7,
        EqStr | NeStr => 6,
        BitAnd => 5,
        BitXor => 4,
        BitOr => 3,
        And => 2,
        Or => 1,
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Tok {
    Val(Val),
    Var(String),
    Cmd(Script),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
    Question,
    Colon,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, Exception> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut toks = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' | b')' | b',' | b'?' | b':' => {
                toks.push(match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b',' => Tok::Comma,
                    b'?' => Tok::Question,
                    _ => Tok::Colon,
                });
                i += 1;
            }
            b'$' => {
                i += 1;
                let start = i;
                if i < b.len() && b[i] == b'{' {
                    i += 1;
                    let s = i;
                    while i < b.len() && b[i] != b'}' {
                        i += 1;
                    }
                    if i >= b.len() {
                        return Err(Exception::error("missing close-brace in expr variable"));
                    }
                    toks.push(Tok::Var(String::from_utf8_lossy(&b[s..i]).to_string()));
                    i += 1;
                } else {
                    while i < b.len()
                        && (b[i].is_ascii_alphanumeric()
                            || b[i] == b'_'
                            || (b[i] == b':' && i + 1 < b.len() && b[i + 1] == b':'))
                    {
                        if b[i] == b':' {
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    if i == start {
                        return Err(Exception::error("lone $ in expression"));
                    }
                    toks.push(Tok::Var(String::from_utf8_lossy(&b[start..i]).to_string()));
                }
            }
            b'[' => {
                let (script, end) = command_subst(src, i + 1)?;
                toks.push(Tok::Cmd(script));
                i = end;
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= b.len() {
                        return Err(Exception::error("missing close-quote in expression"));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < b.len() => {
                            let ch = next_char_at(src, i + 1);
                            s.push(match ch {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                            i += 1 + ch.len_utf8();
                        }
                        _ => {
                            let ch = next_char_at(src, i);
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push(Tok::Val(Val::Str(s)));
            }
            b'{' => {
                // Braced string literal inside expr (rare, but Tcl allows).
                let mut depth = 1;
                i += 1;
                let start = i;
                while i < b.len() && depth > 0 {
                    match b[i] {
                        b'{' => depth += 1,
                        b'}' => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                if depth != 0 {
                    return Err(Exception::error("missing close-brace in expression"));
                }
                toks.push(Tok::Val(Val::Str(
                    String::from_utf8_lossy(&b[start..i - 1]).to_string(),
                )));
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                let mut seen_e = false;
                while i < b.len() {
                    let d = b[i];
                    let ok = d.is_ascii_digit()
                        || d == b'.'
                        || d == b'x'
                        || d == b'X'
                        || (d | 0x20 == b'e' && !is_hex_literal(&b[start..i]))
                        || d.is_ascii_hexdigit() && is_hex_literal(&b[start..i])
                        || ((d == b'+' || d == b'-') && seen_e && matches!(b[i - 1] | 0x20, b'e'));
                    if !ok {
                        break;
                    }
                    if d | 0x20 == b'e' && !is_hex_literal(&b[start..i]) {
                        seen_e = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let v = parse_number(text)
                    .ok_or_else(|| Exception::error(format!("bad number \"{text}\"")))?;
                toks.push(Tok::Val(v));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = src[start..i].to_string();
                match word.as_str() {
                    "eq" => toks.push(Tok::Op("eq")),
                    "ne" => toks.push(Tok::Op("ne")),
                    "true" | "yes" | "on" => toks.push(Tok::Val(Val::Int(1))),
                    "false" | "no" | "off" => toks.push(Tok::Val(Val::Int(0))),
                    _ => toks.push(Tok::Ident(word)),
                }
            }
            _ => {
                // Multi-char operators first. Matched on bytes: `i` may
                // sit before a multibyte character, which is no operator.
                let two = b.get(i..i + 2);
                let op2 = ["**", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||"]
                    .iter()
                    .find(|o| Some(o.as_bytes()) == two);
                if let Some(o) = op2 {
                    toks.push(Tok::Op(o));
                    i += 2;
                } else {
                    let op1 = ["+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^"]
                        .iter()
                        .find(|o| o.as_bytes() == [c]);
                    match op1 {
                        Some(o) => {
                            toks.push(Tok::Op(o));
                            i += 1;
                        }
                        None => {
                            return Err(Exception::error(format!(
                                "unexpected character '{}' in expression",
                                next_char_at(src, i)
                            )))
                        }
                    }
                }
            }
        }
    }
    Ok(toks)
}

fn is_hex_literal(prefix: &[u8]) -> bool {
    prefix.len() >= 2 && prefix[0] == b'0' && (prefix[1] | 0x20) == b'x'
}

// ---------------------------------------------------------------------
// Parser (precedence climbing)
// ---------------------------------------------------------------------

struct Parser {
    toks: std::iter::Peekable<std::vec::IntoIter<Tok>>,
}

impl Parser {
    fn parse_expr(&mut self) -> Result<Ast, Exception> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Ast, Exception> {
        let cond = self.parse_binary(0)?;
        if self.toks.peek() == Some(&Tok::Question) {
            self.toks.next();
            let t = self.parse_ternary()?;
            if self.toks.next() != Some(Tok::Colon) {
                return Err(Exception::error("expected ':' in ?: expression"));
            }
            let f = self.parse_ternary()?;
            return Ok(Ast::Ternary(Box::new(cond), Box::new(t), Box::new(f)));
        }
        Ok(cond)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Ast, Exception> {
        let mut lhs = self.parse_unary()?;
        while let Some(Tok::Op(op)) = self.toks.peek() {
            let bop = match *op {
                "**" => BinOp::Pow,
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                "%" => BinOp::Rem,
                "+" => BinOp::Add,
                "-" => BinOp::Sub,
                "<<" => BinOp::Shl,
                ">>" => BinOp::Shr,
                "<" => BinOp::Lt,
                ">" => BinOp::Gt,
                "<=" => BinOp::Le,
                ">=" => BinOp::Ge,
                "==" => BinOp::EqNum,
                "!=" => BinOp::NeNum,
                "eq" => BinOp::EqStr,
                "ne" => BinOp::NeStr,
                "&" => BinOp::BitAnd,
                "^" => BinOp::BitXor,
                "|" => BinOp::BitOr,
                "&&" => BinOp::And,
                "||" => BinOp::Or,
                _ => break,
            };
            let p = prec(bop);
            if p < min_prec {
                break;
            }
            self.toks.next();
            // `**` is right-associative; everything else left.
            let next_min = if bop == BinOp::Pow { p } else { p + 1 };
            let rhs = self.parse_binary(next_min)?;
            lhs = Ast::Binary(bop, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Ast, Exception> {
        let op = match self.toks.peek() {
            Some(Tok::Op("-")) => UnOp::Neg,
            Some(Tok::Op("+")) => UnOp::Pos,
            Some(Tok::Op("!")) => UnOp::Not,
            Some(Tok::Op("~")) => UnOp::BitNot,
            _ => return self.parse_primary(),
        };
        self.toks.next();
        Ok(Ast::Unary(op, Box::new(self.parse_unary()?)))
    }

    fn parse_primary(&mut self) -> Result<Ast, Exception> {
        match self.toks.next() {
            Some(Tok::Val(v)) => Ok(Ast::Lit(v)),
            Some(Tok::Var(name)) => Ok(Ast::Var(name)),
            Some(Tok::Cmd(script)) => Ok(Ast::Cmd(script)),
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                if self.toks.next() != Some(Tok::RParen) {
                    return Err(Exception::error("expected ')'"));
                }
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.toks.peek() == Some(&Tok::LParen) {
                    self.toks.next();
                    let mut args = Vec::new();
                    if self.toks.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.toks.next() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                _ => return Err(Exception::error("expected ',' or ')'")),
                            }
                        }
                    } else {
                        self.toks.next();
                    }
                    Ok(Ast::Call(name, args))
                } else {
                    // Bare identifier: treat as a string literal (Tcl
                    // errors here, but being lenient aids generated code).
                    Ok(Ast::Lit(Val::Str(name)))
                }
            }
            other => Err(Exception::error(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

/// A parsed expression. It holds variable names and parsed `[script]`s,
/// never their values, so one compile serves any number of evaluations.
#[derive(Debug)]
pub(crate) struct Compiled(Ast);

/// Tokenize and parse an expression without evaluating it.
pub(crate) fn compile(src: &str) -> Result<Compiled, Exception> {
    let mut p = Parser {
        toks: tokenize(src)?.into_iter().peekable(),
    };
    let ast = p.parse_expr()?;
    if p.toks.peek().is_some() {
        return Err(Exception::error(format!(
            "trailing tokens in expression: \"{src}\""
        )));
    }
    Ok(Compiled(ast))
}

/// Evaluate a compiled expression against a host.
pub(crate) fn eval_compiled<H: ExprHost>(
    host: &mut H,
    compiled: &Compiled,
) -> Result<Val, Exception> {
    eval_ast(host, &compiled.0)
}

/// Compile and evaluate an expression string against a host: the
/// reference semantics every held compile must match.
pub fn eval_expr<H: ExprHost>(host: &mut H, src: &str) -> Result<Val, Exception> {
    eval_compiled(host, &compile(src)?)
}

fn eval_ast<H: ExprHost>(host: &mut H, ast: &Ast) -> Result<Val, Exception> {
    match ast {
        Ast::Lit(v) => Ok(v.clone()),
        Ast::Var(name) => host.var_val(name),
        Ast::Cmd(script) => {
            let s = host.eval_script(script)?;
            Ok(parse_number(&s).unwrap_or(Val::Str(s)))
        }
        Ast::Unary(op, inner) => {
            let v = eval_ast(host, inner)?;
            unary(*op, v)
        }
        Ast::Binary(op, l, r) => match op {
            BinOp::And => {
                let lv = eval_ast(host, l)?;
                if !lv.truthy()? {
                    return Ok(Val::Int(0));
                }
                let rv = eval_ast(host, r)?;
                Ok(Val::Int(rv.truthy()? as i64))
            }
            BinOp::Or => {
                let lv = eval_ast(host, l)?;
                if lv.truthy()? {
                    return Ok(Val::Int(1));
                }
                let rv = eval_ast(host, r)?;
                Ok(Val::Int(rv.truthy()? as i64))
            }
            _ => {
                let lv = eval_ast(host, l)?;
                let rv = eval_ast(host, r)?;
                binary(*op, lv, rv)
            }
        },
        Ast::Ternary(c, t, f) => {
            if eval_ast(host, c)?.truthy()? {
                eval_ast(host, t)
            } else {
                eval_ast(host, f)
            }
        }
        Ast::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_ast(host, a)?);
            }
            call_fn(host, name, vals)
        }
    }
}

fn unary(op: UnOp, v: Val) -> Result<Val, Exception> {
    let n = v
        .coerce_num()
        .ok_or_else(|| Exception::error(format!("can't use \"{}\" as operand", v.to_tcl_string())));
    match op {
        UnOp::Neg => match n? {
            Val::Int(i) => Ok(Val::Int(i.checked_neg().ok_or_else(overflow)?)),
            Val::Dbl(d) => Ok(Val::Dbl(-d)),
            _ => unreachable!(),
        },
        UnOp::Pos => n,
        UnOp::Not => Ok(Val::Int(!v.truthy()? as i64)),
        UnOp::BitNot => match n? {
            Val::Int(i) => Ok(Val::Int(!i)),
            _ => Err(Exception::error("~ requires integer operand")),
        },
    }
}

fn overflow() -> Exception {
    Exception::error("integer overflow")
}

/// Floor division (quotient rounded toward negative infinity) — Tcl's
/// integer `/`. Differs from Rust's `/` (truncating) and from euclidean
/// division when the divisor is negative.
pub(crate) fn floor_div(x: i64, y: i64) -> i64 {
    let q = x / y;
    if (x % y != 0) && ((x < 0) != (y < 0)) {
        q - 1
    } else {
        q
    }
}

/// Floor modulo (result takes the divisor's sign) — Tcl's integer `%`.
pub(crate) fn floor_mod(x: i64, y: i64) -> i64 {
    x - y * floor_div(x, y)
}

fn both_nums(l: &Val, r: &Val) -> Option<(Val, Val)> {
    Some((l.coerce_num()?, r.coerce_num()?))
}

fn as_f64(v: &Val) -> f64 {
    match v {
        Val::Int(i) => *i as f64,
        Val::Dbl(d) => *d,
        Val::Str(_) => f64::NAN,
    }
}

fn binary(op: BinOp, l: Val, r: Val) -> Result<Val, Exception> {
    use BinOp::*;
    match op {
        EqStr => return Ok(Val::Int((l.to_tcl_string() == r.to_tcl_string()) as i64)),
        NeStr => return Ok(Val::Int((l.to_tcl_string() != r.to_tcl_string()) as i64)),
        _ => {}
    }
    let nums = both_nums(&l, &r);
    match op {
        Lt | Gt | Le | Ge | EqNum | NeNum => {
            let ord = match nums {
                Some((a, b)) => as_f64(&a)
                    .partial_cmp(&as_f64(&b))
                    .unwrap_or(std::cmp::Ordering::Equal),
                None => l.to_tcl_string().cmp(&r.to_tcl_string()),
            };
            use std::cmp::Ordering::*;
            let res = match op {
                Lt => ord == Less,
                Gt => ord == Greater,
                Le => ord != Greater,
                Ge => ord != Less,
                EqNum => ord == Equal,
                NeNum => ord != Equal,
                _ => unreachable!(),
            };
            Ok(Val::Int(res as i64))
        }
        _ => {
            let (a, b) = nums.ok_or_else(|| {
                Exception::error(format!(
                    "can't use non-numeric operand in arithmetic: \"{}\" / \"{}\"",
                    l.to_tcl_string(),
                    r.to_tcl_string()
                ))
            })?;
            match (a, b) {
                (Val::Int(x), Val::Int(y)) => int_binary(op, x, y),
                (a, b) => dbl_binary(op, as_f64(&a), as_f64(&b)),
            }
        }
    }
}

fn int_binary(op: BinOp, x: i64, y: i64) -> Result<Val, Exception> {
    use BinOp::*;
    let v = match op {
        Add => x.checked_add(y).ok_or_else(overflow)?,
        Sub => x.checked_sub(y).ok_or_else(overflow)?,
        Mul => x.checked_mul(y).ok_or_else(overflow)?,
        Div => {
            if y == 0 {
                return Err(Exception::error("divide by zero"));
            }
            if x == i64::MIN && y == -1 {
                return Err(overflow());
            }
            // Tcl integer division floors toward negative infinity (the
            // result's remainder takes the divisor's sign).
            floor_div(x, y)
        }
        Rem => {
            if y == 0 {
                return Err(Exception::error("divide by zero"));
            }
            if x == i64::MIN && y == -1 {
                return Err(overflow());
            }
            floor_mod(x, y)
        }
        Pow => {
            if y < 0 {
                return dbl_binary(op, x as f64, y as f64);
            }
            let mut acc: i64 = 1;
            for _ in 0..y {
                acc = acc.checked_mul(x).ok_or_else(overflow)?;
            }
            acc
        }
        Shl => x.checked_shl(y as u32).ok_or_else(overflow)?,
        Shr => x >> y.clamp(0, 63),
        BitAnd => x & y,
        BitXor => x ^ y,
        BitOr => x | y,
        _ => unreachable!(),
    };
    Ok(Val::Int(v))
}

fn dbl_binary(op: BinOp, x: f64, y: f64) -> Result<Val, Exception> {
    use BinOp::*;
    let v = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => {
            if y == 0.0 {
                return Err(Exception::error("divide by zero"));
            }
            x / y
        }
        Rem => x % y,
        Pow => x.powf(y),
        Shl | Shr | BitAnd | BitXor | BitOr => {
            return Err(Exception::error("bit operations require integers"))
        }
        _ => unreachable!(),
    };
    Ok(Val::Dbl(v))
}

fn call_fn<H: ExprHost>(host: &mut H, name: &str, args: Vec<Val>) -> Result<Val, Exception> {
    let arity = |n: usize| -> Result<(), Exception> {
        if args.len() != n {
            Err(Exception::error(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    let num = |v: &Val| -> Result<Val, Exception> {
        v.coerce_num()
            .ok_or_else(|| Exception::error(format!("{name}(): non-numeric argument")))
    };
    let f = |v: &Val| -> Result<f64, Exception> { num(v).map(|n| as_f64(&n)) };

    match name {
        "abs" => {
            arity(1)?;
            match num(&args[0])? {
                Val::Int(i) => Ok(Val::Int(i.checked_abs().ok_or_else(overflow)?)),
                Val::Dbl(d) => Ok(Val::Dbl(d.abs())),
                _ => unreachable!(),
            }
        }
        "int" => {
            arity(1)?;
            Ok(Val::Int(f(&args[0])? as i64))
        }
        "round" => {
            arity(1)?;
            Ok(Val::Int(f(&args[0])?.round() as i64))
        }
        "min" | "max" => {
            let Some(first) = args.first() else {
                return Err(Exception::error(format!(
                    "{name}() needs at least one argument"
                )));
            };
            let mut best = num(first)?;
            for a in &args[1..] {
                let v = num(a)?;
                let (x, b) = (as_f64(&v), as_f64(&best));
                if (name == "min" && x < b) || (name == "max" && x > b) {
                    best = v;
                }
            }
            Ok(best)
        }
        "rand" => {
            arity(0)?;
            Ok(Val::Dbl(host.next_rand()))
        }
        _ => {
            if let Some((_, g)) = UNARY_FNS.iter().find(|(n, _)| *n == name) {
                arity(1)?;
                return Ok(Val::Dbl(g(f(&args[0])?)));
            }
            match BINARY_FNS.iter().find(|(n, _)| *n == name) {
                Some((_, g)) => {
                    arity(2)?;
                    Ok(Val::Dbl(g(f(&args[0])?, f(&args[1])?)))
                }
                None => Err(Exception::error(format!(
                    "unknown math function \"{name}\""
                ))),
            }
        }
    }
}

type F1 = fn(f64) -> f64;
type F2 = fn(f64, f64) -> f64;

/// The math functions from doubles to a double.
const UNARY_FNS: [(&str, F1); 11] = [
    ("double", |x| x),
    ("floor", f64::floor),
    ("ceil", f64::ceil),
    ("sqrt", f64::sqrt),
    ("exp", f64::exp),
    ("log", f64::ln),
    ("log10", f64::log10),
    ("sin", f64::sin),
    ("cos", f64::cos),
    ("tan", f64::tan),
    ("atan", f64::atan),
];

const BINARY_FNS: [(&str, F2); 4] = [
    ("atan2", f64::atan2),
    ("pow", f64::powf),
    ("fmod", |x, y| x % y),
    ("hypot", f64::hypot),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct FakeHost {
        vars: HashMap<String, String>,
        seed: u64,
    }

    impl FakeHost {
        fn new() -> Self {
            FakeHost {
                vars: HashMap::new(),
                seed: 1,
            }
        }
    }

    impl ExprHost for FakeHost {
        fn var_val(&mut self, name: &str) -> Result<Val, Exception> {
            let s = self.vars.get(name).cloned();
            let s = s.ok_or_else(|| Exception::error(format!("no such variable \"{name}\"")))?;
            Ok(parse_number(&s).unwrap_or(Val::Str(s)))
        }
        fn eval_script(&mut self, script: &Script) -> TclResult {
            Ok(format!("<{} commands>", script.commands.len()))
        }
        fn next_rand(&mut self) -> f64 {
            self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (self.seed >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn ev(src: &str) -> String {
        eval_expr(&mut FakeHost::new(), src)
            .unwrap()
            .to_tcl_string()
    }

    #[test]
    fn precedence() {
        assert_eq!(ev("1 + 2 * 3"), "7");
        assert_eq!(ev("(1 + 2) * 3"), "9");
        assert_eq!(ev("2 ** 3 ** 2"), "512"); // right assoc
        assert_eq!(ev("10 - 3 - 2"), "5"); // left assoc
    }

    #[test]
    fn int_vs_double() {
        assert_eq!(ev("7 / 2"), "3");
        assert_eq!(ev("7.0 / 2"), "3.5");
        assert_eq!(ev("1 + 1.5"), "2.5");
        assert_eq!(ev("4.0 / 2"), "2.0"); // double stays double
    }

    #[test]
    fn floor_division_like_tcl() {
        assert_eq!(ev("-7 / 2"), "-4");
        assert_eq!(ev("-7 % 2"), "1");
        // Negative divisors: floor, not euclidean — sign follows divisor.
        assert_eq!(ev("7 / -2"), "-4");
        assert_eq!(ev("7 % -2"), "-1");
        assert_eq!(ev("-7 / -2"), "3");
        assert_eq!(ev("-7 % -2"), "-1");
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev("3 < 4"), "1");
        assert_eq!(ev("3 >= 4"), "0");
        assert_eq!(ev("3 == 3.0"), "1");
        assert_eq!(ev("\"abc\" eq \"abc\""), "1");
        assert_eq!(ev("\"abc\" ne \"abd\""), "1");
        assert_eq!(ev("3 eq 3.0"), "0"); // string compare
    }

    #[test]
    fn logical_short_circuit() {
        // The RHS would error (divide by zero) if evaluated.
        assert_eq!(ev("0 && (1 / 0)"), "0");
        assert_eq!(ev("1 || (1 / 0)"), "1");
    }

    #[test]
    fn ternary() {
        assert_eq!(ev("1 < 2 ? 10 : 20"), "10");
        assert_eq!(ev("1 > 2 ? 10 : 20"), "20");
    }

    #[test]
    fn variables_resolve() {
        let mut h = FakeHost::new();
        h.vars.insert("x".into(), "21".into());
        assert_eq!(eval_expr(&mut h, "$x * 2").unwrap().to_tcl_string(), "42");
    }

    #[test]
    fn string_variables_compare() {
        let mut h = FakeHost::new();
        h.vars.insert("s".into(), "hello".into());
        assert_eq!(
            eval_expr(&mut h, "$s eq \"hello\"")
                .unwrap()
                .to_tcl_string(),
            "1"
        );
    }

    #[test]
    fn math_functions() {
        assert_eq!(ev("abs(-5)"), "5");
        assert_eq!(ev("int(3.9)"), "3");
        assert_eq!(ev("round(3.5)"), "4");
        assert_eq!(ev("max(1, 7, 3)"), "7");
        assert_eq!(ev("min(4, 2.5, 3)"), "2.5");
        assert_eq!(ev("sqrt(81)"), "9.0");
    }

    #[test]
    fn divide_by_zero_errors() {
        assert!(eval_expr(&mut FakeHost::new(), "1 / 0").is_err());
        assert!(eval_expr(&mut FakeHost::new(), "1 % 0").is_err());
    }

    #[test]
    fn overflow_errors() {
        assert!(eval_expr(&mut FakeHost::new(), "9223372036854775807 + 1").is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(ev("-3 + 1"), "-2");
        assert_eq!(ev("!0"), "1");
        assert_eq!(ev("!5"), "0");
        assert_eq!(ev("~0"), "-1");
        assert_eq!(ev("- - 5"), "5");
    }

    #[test]
    fn hex_literals() {
        assert_eq!(ev("0xff + 1"), "256");
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(ev("1e3 + 1"), "1001.0");
        assert_eq!(ev("2.5e-1 * 4"), "1.0");
    }

    #[test]
    fn bool_words() {
        assert_eq!(ev("true && true"), "1");
        assert_eq!(ev("false || off"), "0");
    }

    #[test]
    fn double_formatting_keeps_point() {
        assert_eq!(format_double(2.0), "2.0");
        assert_eq!(format_double(2.5), "2.5");
        // Rust's Display never uses scientific notation; the key invariant
        // is that a double's rendering is never mistaken for an integer.
        assert!(format_double(1e30).contains('.'));
        assert!(format_double(1e-30).contains('.'));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(eval_expr(&mut FakeHost::new(), "1 + 2 3").is_err());
    }
}

#[cfg(test)]
mod oracle_tests {
    //! Property test: `expr` against a Rust oracle implementing Tcl's
    //! integer semantics (floor division, euclidean modulo, checked
    //! overflow).

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Node {
        Lit(i32),
        Add(Box<Node>, Box<Node>),
        Sub(Box<Node>, Box<Node>),
        Mul(Box<Node>, Box<Node>),
        Div(Box<Node>, Box<Node>),
        Rem(Box<Node>, Box<Node>),
        Neg(Box<Node>),
    }

    fn node_strategy() -> impl Strategy<Value = Node> {
        let leaf = (-999i32..1000).prop_map(Node::Lit);
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Add(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Sub(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Mul(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Div(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Rem(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|a| Node::Neg(Box::new(a))),
            ]
        })
    }

    fn render(n: &Node) -> String {
        match n {
            Node::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            Node::Add(a, b) => format!("({} + {})", render(a), render(b)),
            Node::Sub(a, b) => format!("({} - {})", render(a), render(b)),
            Node::Mul(a, b) => format!("({} * {})", render(a), render(b)),
            Node::Div(a, b) => format!("({} / {})", render(a), render(b)),
            Node::Rem(a, b) => format!("({} % {})", render(a), render(b)),
            Node::Neg(a) => format!("(- {})", render(a)),
        }
    }

    /// Oracle evaluation; `None` means the expression must error (divide
    /// by zero or overflow).
    fn oracle(n: &Node) -> Option<i64> {
        Some(match n {
            Node::Lit(v) => *v as i64,
            Node::Add(a, b) => oracle(a)?.checked_add(oracle(b)?)?,
            Node::Sub(a, b) => oracle(a)?.checked_sub(oracle(b)?)?,
            Node::Mul(a, b) => oracle(a)?.checked_mul(oracle(b)?)?,
            Node::Div(a, b) => {
                let (x, y) = (oracle(a)?, oracle(b)?);
                if y == 0 || (x == i64::MIN && y == -1) {
                    return None;
                }
                floor_div(x, y)
            }
            Node::Rem(a, b) => {
                let (x, y) = (oracle(a)?, oracle(b)?);
                if y == 0 || (x == i64::MIN && y == -1) {
                    return None;
                }
                floor_mod(x, y)
            }
            Node::Neg(a) => oracle(a)?.checked_neg()?,
        })
    }

    struct NoHost;
    impl ExprHost for NoHost {
        fn var_val(&mut self, name: &str) -> Result<Val, Exception> {
            Err(Exception::error(format!("no var {name}")))
        }
        fn eval_script(&mut self, _script: &Script) -> TclResult {
            Err(Exception::error("no scripts"))
        }
        fn next_rand(&mut self) -> f64 {
            0.5
        }
    }

    proptest! {
        #[test]
        fn expr_matches_integer_oracle(node in node_strategy()) {
            let src = render(&node);
            let got = eval_expr(&mut NoHost, &src);
            match oracle(&node) {
                Some(v) => {
                    let got = got.unwrap_or_else(|e| {
                        panic!("expr errored on {src}: {e:?}")
                    });
                    prop_assert_eq!(got, Val::Int(v), "src: {}", src);
                }
                None => prop_assert!(got.is_err(), "src {} must error", src),
            }
            // Through an interpreter, by `Interp::expr` and by an `expr`
            // command whose word holds its compile, cold then warm: each
            // must equal a fresh parse.
            let mut interp = crate::Interp::new();
            interp.set_var("z", "0");
            let message = |e: Exception| match e {
                Exception::Error(e) => e.message,
                other => format!("{other:?}"),
            };
            for text in [src.clone(), format!("$z + {src}")] {
                let fresh = eval_expr(&mut interp, &text).map(|v| v.to_tcl_string());
                prop_assert_eq!(&interp.expr(&text), &fresh, "{}", text);
                let fresh = fresh.map_err(message);
                let held = crate::parser::Script::parse(&format!("expr {{{text}}}")).unwrap();
                for pass in ["cold", "warm"] {
                    let got = interp.eval_script(&held).map_err(|e| e.message);
                    prop_assert_eq!(&got, &fresh, "{} {}", pass, text);
                }
            }
        }
    }
}
