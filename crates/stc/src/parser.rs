//! Recursive-descent parser for the Swift subset.

use crate::ast::*;
use crate::lexer::{tokenize, Spanned, Tok};

/// Parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }
    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }
    fn line(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].line
    }
    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].tok.clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }
    fn err<T>(&self, msg: impl std::fmt::Display) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.to_string(),
            line: self.line(),
        })
    }
    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Tok::Op(o) if *o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn expect_op(&mut self, op: &str) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            self.err(format!("expected '{op}', found {:?}", self.peek()))
        }
    }
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Kw(k) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(n) => Ok(n),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn peek_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw("int")
                | Tok::Kw("float")
                | Tok::Kw("string")
                | Tok::Kw("boolean")
                | Tok::Kw("void")
                | Tok::Kw("blob")
        )
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let base = match self.bump() {
            Tok::Kw("int") => Type::Int,
            Tok::Kw("float") => Type::Float,
            Tok::Kw("string") => Type::Str,
            Tok::Kw("boolean") => Type::Bool,
            Tok::Kw("void") => Type::Void,
            Tok::Kw("blob") => Type::Blob,
            other => return self.err(format!("expected a type, found {other:?}")),
        };
        if self.eat_op("[") {
            self.expect_op("]")?;
            return Ok(Type::Array(Box::new(base)));
        }
        Ok(base)
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                // Function definition starts with "(" (output list).
                Tok::Op("(") => {
                    prog.functions.push(self.func_def()?);
                }
                Tok::Kw("main") if matches!(self.peek2(), Tok::Op("{")) => {
                    self.bump();
                    self.expect_op("{")?;
                    while !self.eat_op("}") {
                        let s = self.stmt()?;
                        prog.main.push(s);
                    }
                }
                _ => {
                    let s = self.stmt()?;
                    prog.main.push(s);
                }
            }
        }
        Ok(prog)
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect_op("(")?;
        let mut params = Vec::new();
        if self.eat_op(")") {
            return Ok(params);
        }
        loop {
            let mut ty = self.ty()?;
            let name = self.ident()?;
            // Array brackets may follow the name: `int a[]`.
            if self.eat_op("[") {
                self.expect_op("]")?;
                ty = Type::Array(Box::new(ty));
            }
            params.push(Param { ty, name });
            if self.eat_op(")") {
                break;
            }
            self.expect_op(",")?;
        }
        Ok(params)
    }

    fn func_def(&mut self) -> Result<FuncDef, ParseError> {
        let line = self.line();
        let outputs = self.param_list()?;
        let name = self.ident()?;
        let inputs = self.param_list()?;
        // Composite body or Tcl leaf.
        if matches!(self.peek(), Tok::Op("{")) {
            self.bump();
            let mut body = Vec::new();
            while !self.eat_op("}") {
                body.push(self.stmt()?);
            }
            return Ok(FuncDef {
                name,
                outputs,
                inputs,
                body: FuncBody::Composite(body),
                line,
            });
        }
        // Leaf: optional "pkg" "version", then [ "template" ];
        let mut package = None;
        if let Tok::Str(_) = self.peek() {
            let pkg = match self.bump() {
                Tok::Str(s) => s,
                _ => unreachable!(),
            };
            let version = match self.bump() {
                Tok::Str(s) => s,
                other => {
                    return self.err(format!("expected package version string, found {other:?}"))
                }
            };
            package = Some((pkg, version));
        }
        self.expect_op("[")?;
        let template = match self.bump() {
            Tok::Str(s) => s,
            other => return self.err(format!("expected Tcl template string, found {other:?}")),
        };
        self.expect_op("]")?;
        self.expect_op(";")?;
        Ok(FuncDef {
            name,
            outputs,
            inputs,
            body: FuncBody::TclLeaf { package, template },
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_op("{")?;
        let mut body = Vec::new();
        while !self.eat_op("}") {
            body.push(self.stmt()?);
        }
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        if self.peek_type() {
            let mut ty = self.ty()?;
            let name = self.ident()?;
            // Swift also allows the array brackets after the name:
            // `int A[];`.
            if self.eat_op("[") {
                self.expect_op("]")?;
                ty = Type::Array(Box::new(ty));
            }
            let init = if self.eat_op("=") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_op(";")?;
            return Ok(Stmt::Decl {
                ty,
                name,
                init,
                line,
            });
        }
        if self.eat_kw("foreach") {
            let value_var = self.ident()?;
            let index_var = if self.eat_op(",") {
                Some(self.ident()?)
            } else {
                None
            };
            if !self.eat_kw("in") {
                return self.err("expected 'in' in foreach");
            }
            let iterable = self.iterable()?;
            let body = self.block()?;
            return Ok(Stmt::Foreach {
                value_var,
                index_var,
                iterable,
                body,
                line,
            });
        }
        if self.eat_kw("if") {
            self.expect_op("(")?;
            let cond = self.expr()?;
            self.expect_op(")")?;
            let then_branch = self.block()?;
            let else_branch = if self.eat_kw("else") {
                if matches!(self.peek(), Tok::Kw("if")) {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            });
        }
        // Assignment, multi-assignment, or call statement.
        let name = self.ident()?;
        if self.eat_op(",") {
            // a, b, ... = f(args);
            let mut targets = vec![name];
            loop {
                targets.push(self.ident()?);
                if !self.eat_op(",") {
                    break;
                }
            }
            self.expect_op("=")?;
            let fname = self.ident()?;
            let call = self.call_expr(fname, line)?;
            self.expect_op(";")?;
            return Ok(Stmt::MultiAssign {
                targets,
                call,
                line,
            });
        }
        if self.eat_op("[") {
            let idx = self.expr()?;
            self.expect_op("]")?;
            self.expect_op("=")?;
            let value = self.expr()?;
            self.expect_op(";")?;
            return Ok(Stmt::Assign {
                target: LValue::Index(name, idx),
                value,
                line,
            });
        }
        if self.eat_op("=") {
            let value = self.expr()?;
            self.expect_op(";")?;
            return Ok(Stmt::Assign {
                target: LValue::Var(name),
                value,
                line,
            });
        }
        if matches!(self.peek(), Tok::Op("(")) {
            let call = self.call_expr(name, line)?;
            self.expect_op(";")?;
            return Ok(Stmt::Call { call, line });
        }
        self.err(format!(
            "expected statement, found '{name}' then {:?}",
            self.peek()
        ))
    }

    fn iterable(&mut self) -> Result<Iterable, ParseError> {
        if self.eat_op("[") {
            let start = self.expr()?;
            self.expect_op(":")?;
            let end = self.expr()?;
            let step = if self.eat_op(":") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_op("]")?;
            return Ok(Iterable::Range(start, end, step));
        }
        Ok(Iterable::Array(self.expr()?))
    }

    fn call_expr(&mut self, name: String, line: usize) -> Result<CallExpr, ParseError> {
        self.expect_op("(")?;
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
        Ok(CallExpr { name, args, line })
    }

    // Expression precedence: || < && < cmp < add < mul < pow < unary < postfix.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Tok::Op("||")) {
            let line = self.line();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary("||", Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while matches!(self.peek(), Tok::Op("&&")) {
            let line = self.line();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary("&&", Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        for op in ["==", "!=", "<=", ">=", "<", ">"] {
            if matches!(self.peek(), Tok::Op(o) if *o == op) {
                let line = self.line();
                self.bump();
                let rhs = self.add_expr()?;
                return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs), line));
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Op("+") => "+",
                Tok::Op("-") => "-",
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.pow_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Op("*") => "*",
                Tok::Op("/") => "/",
                Tok::Op("%") => "%",
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.pow_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.unary_expr()?;
        if matches!(self.peek(), Tok::Op("**")) {
            let line = self.line();
            self.bump();
            let exp = self.pow_expr()?; // right-assoc
            return Ok(Expr::Binary("**", Box::new(base), Box::new(exp), line));
        }
        Ok(base)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Tok::Op("-")) {
            let line = self.line();
            self.bump();
            return Ok(Expr::Unary("-", Box::new(self.unary_expr()?), line));
        }
        if matches!(self.peek(), Tok::Op("!")) {
            let line = self.line();
            self.bump();
            return Ok(Expr::Unary("!", Box::new(self.unary_expr()?), line));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Str(s) => Ok(Expr::StrLit(s)),
            Tok::Kw("true") => Ok(Expr::BoolLit(true)),
            Tok::Kw("false") => Ok(Expr::BoolLit(false)),
            Tok::Op("(") => {
                let e = self.expr()?;
                self.expect_op(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if matches!(self.peek(), Tok::Op("(")) {
                    Ok(Expr::Call(self.call_expr(name, line)?))
                } else if self.eat_op("[") {
                    let idx = self.expr()?;
                    self.expect_op("]")?;
                    Ok(Expr::Index(name, Box::new(idx), line))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(ParseError {
                message: format!("expected expression, found {other:?}"),
                line,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_and_expressions() {
        let p = parse("int x = 1 + 2 * 3;\nfloat y;\ny = 2.5;").unwrap();
        assert_eq!(p.main.len(), 3);
        match &p.main[0] {
            Stmt::Decl { ty, name, init, .. } => {
                assert_eq!(*ty, Type::Int);
                assert_eq!(name, "x");
                assert!(matches!(init, Some(Expr::Binary("+", ..))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("int x = 1 + 2 * 3;").unwrap();
        match &p.main[0] {
            Stmt::Decl {
                init: Some(Expr::Binary("+", _, rhs, _)),
                ..
            } => assert!(matches!(**rhs, Expr::Binary("*", ..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn composite_function() {
        let p = parse("(int o) f (int a, int b) { o = a + b; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.outputs.len(), 1);
        assert_eq!(f.inputs.len(), 2);
        assert!(matches!(f.body, FuncBody::Composite(_)));
    }

    #[test]
    fn tcl_leaf_function() {
        let p = parse(r#"(int o) f (int i) "pkg" "1.0" [ "set <<o>> <<i>>" ];"#).unwrap();
        match &p.functions[0].body {
            FuncBody::TclLeaf { package, template } => {
                assert_eq!(package.as_ref().unwrap().0, "pkg");
                assert!(template.contains("<<o>>"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tcl_leaf_without_package() {
        let p = parse(r#"(int o) f (int i) [ "set <<o>> <<i>>" ];"#).unwrap();
        match &p.functions[0].body {
            FuncBody::TclLeaf { package, .. } => assert!(package.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn foreach_range_and_array() {
        let p = parse("foreach i in [0:9] { trace(i); }\nint A[]; foreach v, k in A { trace(v); }")
            .unwrap();
        assert!(matches!(
            &p.main[0],
            Stmt::Foreach {
                iterable: Iterable::Range(..),
                index_var: None,
                ..
            }
        ));
        assert!(matches!(
            &p.main[2],
            Stmt::Foreach {
                iterable: Iterable::Array(_),
                index_var: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn array_decl_and_index() {
        let p = parse("int A[];\nA[0] = 5;\nint x = A[0] + 1;").unwrap();
        assert!(matches!(
            &p.main[0],
            Stmt::Decl {
                ty: Type::Array(_),
                ..
            }
        ));
        assert!(matches!(
            &p.main[1],
            Stmt::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
    }

    #[test]
    fn if_else_chain() {
        let p = parse("if (x) { trace(1); } else if (y) { trace(2); } else { trace(3); }");
        // x,y undefined is a semantic error, not a parse error.
        assert!(p.is_ok());
    }

    #[test]
    fn main_block_sugar() {
        let p = parse("main { int x = 1; }").unwrap();
        assert_eq!(p.main.len(), 1);
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse("int x = ;\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("int x = 1;\nint y = @;\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
