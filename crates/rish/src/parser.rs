//! Recursive-descent parser for the R subset. Everything is an expression.

use crate::lexer::{tokenize, Tok};
use crate::value::RError;

/// Function parameter with optional default.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub default: Option<Expr>,
}

#[derive(Debug, Clone)]
pub enum Expr {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
    Na,
    Name(String),
    Call(Box<Expr>, Vec<Expr>),
    Index(Box<Expr>, Box<Expr>),
    Unary(&'static str, Box<Expr>),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    Assign(String, Box<Expr>),
    AssignIndex(String, Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Option<Box<Expr>>),
    For(String, Box<Expr>, Box<Expr>),
    While(Box<Expr>, Box<Expr>),
    Repeat(Box<Expr>),
    Block(Vec<Expr>),
    Function(Vec<Param>, Box<Expr>),
    Break,
    Next,
    Return(Option<Box<Expr>>),
}

fn err<T>(msg: impl std::fmt::Display) -> Result<T, RError> {
    Err(RError::new(format!("syntax error: {msg}")))
}

/// Parse a program: expressions separated by newlines / `;`.
pub fn parse_program(src: &str) -> Result<Vec<Expr>, RError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    loop {
        p.skip_separators();
        if p.at_end() {
            break;
        }
        out.push(p.expr()?);
    }
    Ok(out)
}

/// Parse a single expression.
pub fn parse_expression(src: &str) -> Result<Expr, RError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.skip_separators();
    let e = p.expr()?;
    p.skip_separators();
    if !p.at_end() {
        return err(format!("trailing input at {:?}", p.peek()));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }
    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }
    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Op(o)) if *o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn expect_op(&mut self, op: &'static str) -> Result<(), RError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            err(format!("expected '{op}', found {:?}", self.peek()))
        }
    }
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Kw(k)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline)) {
            self.pos += 1;
        }
    }
    fn skip_separators(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline) | Some(Tok::Op(";"))) {
            self.pos += 1;
        }
    }

    // Precedence (low→high): assign, or, and, not, comparison, add, mul,
    // range, unary-, power, postfix.

    fn expr(&mut self) -> Result<Expr, RError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, RError> {
        let lhs = self.or_expr()?;
        if self.eat_op("<-") || self.eat_op("=") {
            self.skip_newlines();
            let rhs = self.assignment()?; // right-assoc
            return match lhs {
                Expr::Name(n) => Ok(Expr::Assign(n, Box::new(rhs))),
                Expr::Index(obj, idx) => match *obj {
                    Expr::Name(n) => Ok(Expr::AssignIndex(n, idx, Box::new(rhs))),
                    _ => err("invalid assignment target (only x[i] <- v supported)"),
                },
                _ => err("invalid assignment target"),
            };
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.and_expr()?;
        loop {
            let op = if self.eat_op("||") {
                "||"
            } else if self.eat_op("|") {
                "|"
            } else {
                break;
            };
            self.skip_newlines();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.not_expr()?;
        loop {
            let op = if self.eat_op("&&") {
                "&&"
            } else if self.eat_op("&") {
                "&"
            } else {
                break;
            };
            self.skip_newlines();
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, RError> {
        if self.eat_op("!") {
            self.skip_newlines();
            return Ok(Expr::Unary("!", Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, RError> {
        let lhs = self.additive()?;
        for op in ["==", "!=", "<=", ">=", "<", ">"] {
            if matches!(self.peek(), Some(Tok::Op(o)) if *o == op) {
                self.bump();
                self.skip_newlines();
                let rhs = self.additive()?;
                return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Op("+")) => "+",
                Some(Tok::Op("-")) => "-",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, RError> {
        let mut lhs = self.range()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Op("*")) => "*",
                Some(Tok::Op("/")) => "/",
                Some(Tok::Op("%%")) => "%%",
                Some(Tok::Op("%/%")) => "%/%",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let rhs = self.range()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn range(&mut self) -> Result<Expr, RError> {
        let lhs = self.unary()?;
        if self.eat_op(":") {
            self.skip_newlines();
            let rhs = self.unary()?;
            return Ok(Expr::Binary(":", Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, RError> {
        if self.eat_op("-") {
            self.skip_newlines();
            return Ok(Expr::Unary("-", Box::new(self.unary()?)));
        }
        if self.eat_op("+") {
            self.skip_newlines();
            return self.unary();
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, RError> {
        let base = self.postfix()?;
        if self.eat_op("^") {
            self.skip_newlines();
            let exp = self.unary()?; // right-assoc
            return Ok(Expr::Binary("^", Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn postfix(&mut self) -> Result<Expr, RError> {
        let mut e = self.atom()?;
        loop {
            if self.eat_op("(") {
                self.skip_newlines();
                let mut args = Vec::new();
                if !self.eat_op(")") {
                    loop {
                        args.push(self.expr()?);
                        self.skip_newlines();
                        if self.eat_op(")") {
                            break;
                        }
                        self.expect_op(",")?;
                        self.skip_newlines();
                    }
                }
                e = Expr::Call(Box::new(e), args);
            } else if self.eat_op("[") {
                self.skip_newlines();
                let idx = self.expr()?;
                self.skip_newlines();
                self.expect_op("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, RError> {
        match self.bump() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Name(n)) => Ok(Expr::Name(n)),
            Some(Tok::Kw("TRUE")) => Ok(Expr::Bool(true)),
            Some(Tok::Kw("FALSE")) => Ok(Expr::Bool(false)),
            Some(Tok::Kw("NULL")) => Ok(Expr::Null),
            Some(Tok::Kw("NA")) => Ok(Expr::Na),
            Some(Tok::Kw("break")) => Ok(Expr::Break),
            Some(Tok::Kw("next")) => Ok(Expr::Next),
            Some(Tok::Kw("return")) => {
                if self.eat_op("(") {
                    self.skip_newlines();
                    if self.eat_op(")") {
                        return Ok(Expr::Return(None));
                    }
                    let v = self.expr()?;
                    self.skip_newlines();
                    self.expect_op(")")?;
                    Ok(Expr::Return(Some(Box::new(v))))
                } else {
                    Ok(Expr::Return(None))
                }
            }
            Some(Tok::Kw("if")) => {
                self.expect_op("(")?;
                self.skip_newlines();
                let cond = self.expr()?;
                self.skip_newlines();
                self.expect_op(")")?;
                self.skip_newlines();
                let then = self.expr()?;
                // Allow `else` on the next line (more lenient than R's REPL).
                let save = self.pos;
                self.skip_separators();
                if self.eat_kw("else") {
                    self.skip_newlines();
                    let orelse = self.expr()?;
                    Ok(Expr::If(
                        Box::new(cond),
                        Box::new(then),
                        Some(Box::new(orelse)),
                    ))
                } else {
                    self.pos = save;
                    Ok(Expr::If(Box::new(cond), Box::new(then), None))
                }
            }
            Some(Tok::Kw("for")) => {
                self.expect_op("(")?;
                let var = match self.bump() {
                    Some(Tok::Name(n)) => n,
                    other => return err(format!("expected loop variable, got {other:?}")),
                };
                if !self.eat_kw("in") {
                    return err("expected 'in' in for(...)");
                }
                let seq = self.expr()?;
                self.expect_op(")")?;
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::For(var, Box::new(seq), Box::new(body)))
            }
            Some(Tok::Kw("while")) => {
                self.expect_op("(")?;
                self.skip_newlines();
                let cond = self.expr()?;
                self.skip_newlines();
                self.expect_op(")")?;
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::While(Box::new(cond), Box::new(body)))
            }
            Some(Tok::Kw("repeat")) => {
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::Repeat(Box::new(body)))
            }
            Some(Tok::Kw("function")) => {
                self.expect_op("(")?;
                self.skip_newlines();
                let mut params = Vec::new();
                if !self.eat_op(")") {
                    loop {
                        let name = match self.bump() {
                            Some(Tok::Name(n)) => n,
                            other => return err(format!("expected parameter name, got {other:?}")),
                        };
                        let default = if self.eat_op("=") {
                            Some(self.expr()?)
                        } else {
                            None
                        };
                        params.push(Param { name, default });
                        self.skip_newlines();
                        if self.eat_op(")") {
                            break;
                        }
                        self.expect_op(",")?;
                        self.skip_newlines();
                    }
                }
                self.skip_newlines();
                let body = self.expr()?;
                Ok(Expr::Function(params, Box::new(body)))
            }
            Some(Tok::Op("(")) => {
                self.skip_newlines();
                let e = self.expr()?;
                self.skip_newlines();
                self.expect_op(")")?;
                Ok(e)
            }
            Some(Tok::Op("{")) => {
                let mut body = Vec::new();
                loop {
                    self.skip_separators();
                    if self.eat_op("}") {
                        break;
                    }
                    if self.at_end() {
                        return err("missing '}'");
                    }
                    body.push(self.expr()?);
                }
                Ok(Expr::Block(body))
            }
            other => err(format!("unexpected token {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_forms() {
        assert!(matches!(
            parse_expression("x <- 1").unwrap(),
            Expr::Assign(..)
        ));
        assert!(matches!(
            parse_expression("x = 1").unwrap(),
            Expr::Assign(..)
        ));
        assert!(matches!(
            parse_expression("x[2] <- 5").unwrap(),
            Expr::AssignIndex(..)
        ));
    }

    #[test]
    fn range_precedence() {
        // 1:3+1 parses as (1:3)+1 in R.
        let e = parse_expression("1:3+1").unwrap();
        assert!(matches!(e, Expr::Binary("+", ..)));
        // 1:2*3 parses as (1:2)*3.
        let e = parse_expression("1:2*3").unwrap();
        assert!(matches!(e, Expr::Binary("*", ..)));
    }

    #[test]
    fn function_with_defaults() {
        let e = parse_expression("function(x, n = 2) x ^ n").unwrap();
        match e {
            Expr::Function(params, _) => {
                assert_eq!(params.len(), 2);
                assert!(params[1].default.is_some());
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn if_else_across_lines() {
        let prog = parse_program("if (x > 0) {\n  1\n} else {\n  2\n}").unwrap();
        assert_eq!(prog.len(), 1);
        assert!(matches!(&prog[0], Expr::If(_, _, Some(_))));
    }

    #[test]
    fn program_splits_statements() {
        let prog = parse_program("x <- 1\ny <- 2; z <- 3").unwrap();
        assert_eq!(prog.len(), 3);
    }

    #[test]
    fn call_args_span_lines() {
        let e = parse_expression("c(1,\n  2,\n  3)").unwrap();
        assert!(matches!(e, Expr::Call(_, args) if args.len() == 3));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("for x in 1:3").is_err());
        assert!(parse_expression("{ 1").is_err());
    }
}
