//! Recursive-descent parser producing the mini-Python AST.

use std::rc::Rc;

use crate::lexer::{tokenize, FPart, Tok};
use crate::value::PyError;

#[derive(Debug, Clone)]
pub enum Stmt {
    Expr(Expr),
    Assign(Target, Expr),
    AugAssign(Target, BinOp, Expr),
    If(Vec<(Expr, Vec<Stmt>)>, Option<Vec<Stmt>>),
    While(Expr, Vec<Stmt>),
    For(Target, Expr, Vec<Stmt>),
    Def(String, Vec<String>, Rc<Vec<Stmt>>),
    Return(Option<Expr>),
    Break,
    Continue,
    Pass,
    Global(Vec<String>),
    Import(String),
    Del(Target),
}

#[derive(Debug, Clone)]
pub enum Target {
    Name(String),
    /// A function's local, resolved to a slot of its frame when `def` ran.
    Local(usize, String),
    Index(Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    In,
}

// `symbol` indexes by discriminant: keep the variants in this order.
impl BinOp {
    pub fn symbol(self) -> &'static str {
        ["+", "-", "*", "/", "//", "%", "**"][self as usize]
    }
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        ["==", "!=", "<", ">", "<=", ">=", "in"][self as usize]
    }
}

#[derive(Debug, Clone)]
pub enum FStrPart {
    Lit(String),
    Expr(Box<Expr>),
}

#[derive(Debug, Clone)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    FStr(Vec<FStrPart>),
    Bool(bool),
    NoneLit,
    Name(String),
    /// A function's local, resolved to a slot of its frame when `def` ran.
    Local(usize, String),
    List(Vec<Expr>),
    Dict(Vec<(Expr, Expr)>),
    Neg(Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Compare(CmpOp, Box<Expr>, Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    Attr(Box<Expr>, String),
    Index(Box<Expr>, Box<Expr>),
    IfExp(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn err<T>(msg: impl std::fmt::Display) -> Result<T, PyError> {
    Err(PyError::new("SyntaxError", msg))
}

/// Parse a module (sequence of statements).
pub fn parse_module(src: &str) -> Result<Vec<Stmt>, PyError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        p.skip_newlines();
        if p.at_end() {
            break;
        }
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parse a single expression (the Swift/T leaf "result expression").
pub fn parse_expression(src: &str) -> Result<Expr, PyError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.skip_newlines();
    let e = p.expr()?;
    p.skip_newlines();
    if !p.at_end() {
        return err(format!("trailing tokens after expression: {:?}", p.peek()));
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
    fn expect_op(&mut self, op: &'static str) -> Result<(), PyError> {
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
    fn expect_newline(&mut self) -> Result<(), PyError> {
        match self.bump() {
            Some(Tok::Newline) | None => Ok(()),
            other => err(format!("expected end of line, found {other:?}")),
        }
    }

    // -- statements ----------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, PyError> {
        match self.peek() {
            Some(Tok::Kw("if")) => self.if_stmt(),
            Some(Tok::Kw("while")) => self.while_stmt(),
            Some(Tok::Kw("for")) => self.for_stmt(),
            Some(Tok::Kw("def")) => self.def_stmt(),
            _ => {
                let s = self.simple_stmt()?;
                self.expect_newline()?;
                Ok(s)
            }
        }
    }

    fn simple_stmt(&mut self) -> Result<Stmt, PyError> {
        match self.peek() {
            Some(Tok::Kw("return")) => {
                self.bump();
                if matches!(self.peek(), Some(Tok::Newline) | None) {
                    Ok(Stmt::Return(None))
                } else {
                    Ok(Stmt::Return(Some(self.expr()?)))
                }
            }
            Some(Tok::Kw("break")) => {
                self.bump();
                Ok(Stmt::Break)
            }
            Some(Tok::Kw("continue")) => {
                self.bump();
                Ok(Stmt::Continue)
            }
            Some(Tok::Kw("pass")) => {
                self.bump();
                Ok(Stmt::Pass)
            }
            Some(Tok::Kw("global")) => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    match self.bump() {
                        Some(Tok::Name(n)) => names.push(n),
                        other => return err(format!("expected name after global, got {other:?}")),
                    }
                    if !self.eat_op(",") {
                        break;
                    }
                }
                Ok(Stmt::Global(names))
            }
            Some(Tok::Kw("import")) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Name(n)) => Ok(Stmt::Import(n)),
                    other => err(format!("expected module name, got {other:?}")),
                }
            }
            Some(Tok::Kw("del")) => {
                self.bump();
                let e = self.expr()?;
                Ok(Stmt::Del(expr_to_target(e)?))
            }
            _ => {
                let e = self.expr()?;
                // Assignment forms.
                if self.eat_op("=") {
                    let rhs = self.expr()?;
                    return Ok(Stmt::Assign(expr_to_target(e)?, rhs));
                }
                for (aug, base) in [
                    ("+=", BinOp::Add),
                    ("-=", BinOp::Sub),
                    ("*=", BinOp::Mul),
                    ("/=", BinOp::Div),
                    ("%=", BinOp::Mod),
                ] {
                    if self.eat_op(aug) {
                        let rhs = self.expr()?;
                        return Ok(Stmt::AugAssign(expr_to_target(e)?, base, rhs));
                    }
                }
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parse `: suite` — either an inline simple statement or an indented
    /// block.
    fn suite(&mut self) -> Result<Vec<Stmt>, PyError> {
        self.expect_op(":")?;
        if !matches!(self.peek(), Some(Tok::Newline)) {
            let s = self.simple_stmt()?;
            self.expect_newline()?;
            return Ok(vec![s]);
        }
        self.bump(); // newline
        self.skip_newlines();
        if !matches!(self.peek(), Some(Tok::Indent)) {
            return err("expected an indented block");
        }
        self.bump();
        let mut stmts = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                Some(Tok::Dedent) => {
                    self.bump();
                    break;
                }
                None => break,
                _ => stmts.push(self.statement()?),
            }
        }
        Ok(stmts)
    }

    fn if_stmt(&mut self) -> Result<Stmt, PyError> {
        self.bump(); // if
        let mut arms = Vec::new();
        let cond = self.expr()?;
        let body = self.suite()?;
        arms.push((cond, body));
        let mut orelse = None;
        loop {
            self.skip_newlines();
            if self.eat_kw("elif") {
                let c = self.expr()?;
                let b = self.suite()?;
                arms.push((c, b));
            } else if self.eat_kw("else") {
                orelse = Some(self.suite()?);
                break;
            } else {
                break;
            }
        }
        Ok(Stmt::If(arms, orelse))
    }

    fn while_stmt(&mut self) -> Result<Stmt, PyError> {
        self.bump();
        let cond = self.expr()?;
        let body = self.suite()?;
        Ok(Stmt::While(cond, body))
    }

    fn for_stmt(&mut self) -> Result<Stmt, PyError> {
        self.bump();
        let var = match self.bump() {
            Some(Tok::Name(n)) => n,
            other => return err(format!("expected loop variable, got {other:?}")),
        };
        if !self.eat_kw("in") {
            return err("expected 'in' in for statement");
        }
        let iter = self.expr()?;
        let body = self.suite()?;
        Ok(Stmt::For(Target::Name(var), iter, body))
    }

    fn def_stmt(&mut self) -> Result<Stmt, PyError> {
        self.bump();
        let name = match self.bump() {
            Some(Tok::Name(n)) => n,
            other => return err(format!("expected function name, got {other:?}")),
        };
        self.expect_op("(")?;
        let mut params = Vec::new();
        if !self.eat_op(")") {
            loop {
                match self.bump() {
                    Some(Tok::Name(n)) => params.push(n),
                    other => return err(format!("expected parameter name, got {other:?}")),
                }
                if self.eat_op(")") {
                    break;
                }
                self.expect_op(",")?;
            }
        }
        let body = self.suite()?;
        Ok(Stmt::Def(name, params, Rc::new(body)))
    }

    // -- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, PyError> {
        // Conditional expression: `a if c else b`.
        let body = self.or_expr()?;
        if self.eat_kw("if") {
            let cond = self.or_expr()?;
            if !self.eat_kw("else") {
                return err("expected 'else' in conditional expression");
            }
            let orelse = self.expr()?;
            return Ok(Expr::IfExp(
                Box::new(cond),
                Box::new(body),
                Box::new(orelse),
            ));
        }
        Ok(body)
    }

    fn or_expr(&mut self) -> Result<Expr, PyError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, PyError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, PyError> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, PyError> {
        let lhs = self.arith()?;
        use CmpOp::*;
        for op in [Eq, Ne, Lt, Gt, Le, Ge] {
            if self.eat_op(op.symbol()) {
                let rhs = self.arith()?;
                return Ok(Expr::Compare(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        if self.eat_kw("in") {
            let rhs = self.arith()?;
            return Ok(Expr::Compare(CmpOp::In, Box::new(lhs), Box::new(rhs)));
        }
        if self.eat_kw("not") {
            if !self.eat_kw("in") {
                return err("expected 'in' after 'not' in comparison");
            }
            let rhs = self.arith()?;
            return Ok(Expr::Not(Box::new(Expr::Compare(
                CmpOp::In,
                Box::new(lhs),
                Box::new(rhs),
            ))));
        }
        Ok(lhs)
    }

    fn arith(&mut self) -> Result<Expr, PyError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Op("+")) => BinOp::Add,
                Some(Tok::Op("-")) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, PyError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Op("*")) => BinOp::Mul,
                Some(Tok::Op("/")) => BinOp::Div,
                Some(Tok::Op("//")) => BinOp::FloorDiv,
                Some(Tok::Op("%")) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, PyError> {
        if self.eat_op("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_op("+") {
            return self.unary();
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, PyError> {
        let base = self.postfix()?;
        if matches!(self.peek(), Some(Tok::Op("**"))) {
            self.bump();
            let exp = self.unary()?; // right-associative
            return Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn postfix(&mut self) -> Result<Expr, PyError> {
        let mut e = self.atom()?;
        loop {
            if self.eat_op("(") {
                let mut args = Vec::new();
                if !self.eat_op(")") {
                    loop {
                        args.push(self.expr()?);
                        if self.eat_op(")") {
                            break;
                        }
                        self.expect_op(",")?;
                    }
                }
                e = Expr::Call(Box::new(e), args);
            } else if self.eat_op("[") {
                let idx = self.expr()?;
                self.expect_op("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.eat_op(".") {
                match self.bump() {
                    Some(Tok::Name(n)) => e = Expr::Attr(Box::new(e), n),
                    other => return err(format!("expected attribute name, got {other:?}")),
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, PyError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Float(v)) => Ok(Expr::Float(v)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::FStr(parts)) => {
                let mut out = Vec::new();
                for p in parts {
                    match p {
                        FPart::Lit(l) => out.push(FStrPart::Lit(l)),
                        FPart::Expr(src) => {
                            out.push(FStrPart::Expr(Box::new(parse_expression(&src)?)))
                        }
                    }
                }
                Ok(Expr::FStr(out))
            }
            Some(Tok::Name(n)) => Ok(Expr::Name(n)),
            Some(Tok::Kw("True")) => Ok(Expr::Bool(true)),
            Some(Tok::Kw("False")) => Ok(Expr::Bool(false)),
            Some(Tok::Kw("None")) => Ok(Expr::NoneLit),
            Some(Tok::Op("(")) => {
                let e = self.expr()?;
                self.expect_op(")")?;
                Ok(e)
            }
            Some(Tok::Op("[")) => {
                let mut items = Vec::new();
                if !self.eat_op("]") {
                    loop {
                        items.push(self.expr()?);
                        if self.eat_op("]") {
                            break;
                        }
                        self.expect_op(",")?;
                        // Trailing comma.
                        if self.eat_op("]") {
                            break;
                        }
                    }
                }
                Ok(Expr::List(items))
            }
            Some(Tok::Op("{")) => {
                let mut items = Vec::new();
                if !self.eat_op("}") {
                    loop {
                        let k = self.expr()?;
                        self.expect_op(":")?;
                        let v = self.expr()?;
                        items.push((k, v));
                        if self.eat_op("}") {
                            break;
                        }
                        self.expect_op(",")?;
                        if self.eat_op("}") {
                            break;
                        }
                    }
                }
                Ok(Expr::Dict(items))
            }
            other => err(format!("unexpected token {other:?}")),
        }
    }
}

fn expr_to_target(e: Expr) -> Result<Target, PyError> {
    match e {
        Expr::Name(n) => Ok(Target::Name(n)),
        Expr::Index(obj, idx) => Ok(Target::Index(obj, idx)),
        other => err(format!("cannot assign to {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_module() {
        let m = parse_module("x = 1\ny = x + 2\n").unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn parses_def_with_suite() {
        let m = parse_module("def f(a, b):\n    c = a + b\n    return c\n").unwrap();
        assert!(matches!(&m[0], Stmt::Def(n, p, b) if n == "f" && p.len() == 2 && b.len() == 2));
    }

    #[test]
    fn parses_inline_suite() {
        let m = parse_module("if x: return 1\n").unwrap();
        assert!(matches!(&m[0], Stmt::If(arms, None) if arms.len() == 1));
    }

    #[test]
    fn parses_if_elif_else() {
        let m = parse_module("if a:\n  x = 1\nelif b:\n  x = 2\nelse:\n  x = 3\n").unwrap();
        assert!(matches!(&m[0], Stmt::If(arms, Some(_)) if arms.len() == 2));
    }

    #[test]
    fn parses_index_assignment() {
        let m = parse_module("a[0] = 5").unwrap();
        assert!(matches!(&m[0], Stmt::Assign(Target::Index(..), _)));
    }

    #[test]
    fn parses_conditional_expression() {
        let e = parse_expression("1 if x > 0 else 2").unwrap();
        assert!(matches!(e, Expr::IfExp(..)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expression("1 +").is_err());
        assert!(parse_module("def f(:\n  pass").is_err());
        assert!(parse_expression("1 2").is_err());
    }

    #[test]
    fn not_in_operator() {
        let e = parse_expression("x not in ys").unwrap();
        assert!(matches!(e, Expr::Not(_)));
    }
}
