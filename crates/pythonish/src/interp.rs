//! The mini-Python evaluator: scopes, builtins, methods, `math` module.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use crate::parser::{parse_expression, parse_module, BinOp, CmpOp, Expr, FStrPart, Stmt, Target};
use crate::value::{PyError, Value};

#[derive(Debug, Clone)]
struct FuncDef {
    params: Vec<Target>,
    body: Vec<Stmt>,
    slots: usize,
}

impl FuncDef {
    /// Resolve the function's locals to frame slots: its parameters and
    /// every name it assigns, except names in a `global` statement, which
    /// keep the lookup by name. An empty slot still falls back to globals.
    fn resolve(params: &[String], body: &[Stmt]) -> FuncDef {
        let (mut names, mut globals) = (params.to_vec(), HashSet::new());
        assigned(body, &mut names, &mut globals);
        let mut slots: HashMap<String, usize> = HashMap::new();
        for n in names.into_iter().filter(|n| !globals.contains(n)) {
            let next = slots.len();
            slots.entry(n).or_insert(next);
        }
        let mut params: Vec<Target> = params.iter().cloned().map(Target::Name).collect();
        params.iter_mut().for_each(|p| bind_target(p, &slots));
        let mut body = body.to_vec();
        bind_block(&mut body, &slots);
        FuncDef {
            params,
            body,
            slots: slots.len(),
        }
    }
}

/// The names a block assigns and the names its `global` statements
/// declare, not counting nested `def`s (their own scopes).
fn assigned(stmts: &[Stmt], names: &mut Vec<String>, globals: &mut HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign(Target::Name(n), _)
            | Stmt::AugAssign(Target::Name(n), ..)
            | Stmt::For(Target::Name(n), ..) => names.push(n.clone()),
            Stmt::Global(ns) => globals.extend(ns.iter().cloned()),
            _ => {}
        }
        match s {
            Stmt::If(arms, orelse) => {
                arms.iter().for_each(|(_, b)| assigned(b, names, globals));
                orelse.iter().for_each(|b| assigned(b, names, globals));
            }
            Stmt::While(_, b) | Stmt::For(_, _, b) => assigned(b, names, globals),
            _ => {}
        }
    }
}

fn bind_block(stmts: &mut [Stmt], slots: &HashMap<String, usize>) {
    for s in stmts {
        match s {
            Stmt::Expr(e) | Stmt::Return(Some(e)) => bind(e, slots),
            Stmt::Assign(t, e) | Stmt::AugAssign(t, _, e) => {
                bind_target(t, slots);
                bind(e, slots);
            }
            Stmt::Del(t) => bind_target(t, slots),
            Stmt::If(arms, orelse) => {
                for (c, b) in arms {
                    bind(c, slots);
                    bind_block(b, slots);
                }
                orelse.iter_mut().for_each(|b| bind_block(b, slots));
            }
            Stmt::While(c, b) => {
                bind(c, slots);
                bind_block(b, slots);
            }
            Stmt::For(t, e, b) => {
                bind_target(t, slots);
                bind(e, slots);
                bind_block(b, slots);
            }
            _ => {}
        }
    }
}

fn bind_target(t: &mut Target, slots: &HashMap<String, usize>) {
    match t {
        Target::Name(n) => {
            if let Some(&i) = slots.get(n.as_str()) {
                *t = Target::Local(i, std::mem::take(n));
            }
        }
        Target::Index(o, i) => {
            bind(o, slots);
            bind(i, slots);
        }
        Target::Local(..) => {}
    }
}

fn bind(e: &mut Expr, slots: &HashMap<String, usize>) {
    let mut sub: Vec<&mut Expr> = Vec::new();
    match e {
        Expr::Name(n) => {
            if let Some(&i) = slots.get(n.as_str()) {
                *e = Expr::Local(i, std::mem::take(n));
            }
        }
        Expr::FStr(parts) => sub.extend(parts.iter_mut().filter_map(|p| match p {
            FStrPart::Expr(x) => Some(x.as_mut()),
            FStrPart::Lit(_) => None,
        })),
        Expr::List(items) => sub.extend(items),
        Expr::Dict(items) => sub.extend(items.iter_mut().flat_map(|(k, v)| [k, v])),
        Expr::Neg(x) | Expr::Not(x) | Expr::Attr(x, _) => sub.push(x),
        Expr::Binary(_, l, r)
        | Expr::Compare(_, l, r)
        | Expr::And(l, r)
        | Expr::Or(l, r)
        | Expr::Index(l, r) => sub.extend([l, r].map(Box::as_mut)),
        Expr::Call(f, args) => sub.extend(std::iter::once(f.as_mut()).chain(args)),
        Expr::IfExp(c, t, f) => sub.extend([c, t, f].map(Box::as_mut)),
        _ => {}
    }
    sub.into_iter().for_each(|x| bind(x, slots));
}

/// `range(...)` as an iterator: it ends at `stop`, or where the next
/// value would overflow.
fn range(argv: &[Value]) -> Result<impl Iterator<Item = Value>, PyError> {
    let (start, stop, step) = match argv {
        [stop] => (0, int_of(stop)?, 1),
        [start, stop] => (int_of(start)?, int_of(stop)?, 1),
        [start, stop, step] => (int_of(start)?, int_of(stop)?, int_of(step)?),
        _ => return type_err("range() takes 1-3 arguments"),
    };
    if step == 0 {
        return Err(PyError::new("ValueError", "range() step must not be zero"));
    }
    Ok(
        std::iter::successors(Some(start), move |i| i.checked_add(step))
            .take_while(move |&i| if step > 0 { i < stop } else { i > stop })
            .map(Value::Int),
    )
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An embedded Python interpreter instance.
///
/// One instance per worker rank; whether it survives across leaf tasks is
/// the *retain vs. reinitialize* policy of §III.C — retained interpreters
/// keep `globals` (fast, but state leaks between tasks), reinitialized ones
/// are rebuilt with [`Python::new`] (clean, but pay setup per task).
pub struct Python {
    globals: HashMap<String, Value>,
    functions: HashMap<String, Rc<FuncDef>>,
    output: String,
    depth: usize,
}

impl Default for Python {
    fn default() -> Self {
        Self::new()
    }
}

fn type_err<T>(msg: impl std::fmt::Display) -> Result<T, PyError> {
    Err(PyError::new("TypeError", msg))
}

fn name_err<T>(name: &str) -> Result<T, PyError> {
    Err(PyError::new(
        "NameError",
        format!("name '{name}' is not defined"),
    ))
}

impl Python {
    /// A fresh interpreter with empty global state.
    pub fn new() -> Self {
        Python {
            globals: HashMap::new(),
            functions: HashMap::new(),
            output: String::new(),
            depth: 0,
        }
    }

    /// Execute a code fragment (statements). State persists on this
    /// instance until it is dropped/reinitialized.
    pub fn exec(&mut self, code: &str) -> Result<(), PyError> {
        let stmts = parse_module(code)?;
        let mut frame = None;
        match self.exec_block(&stmts, &mut frame)? {
            Flow::Normal => Ok(()),
            Flow::Return(_) => Ok(()),
            Flow::Break => Err(PyError::new("SyntaxError", "'break' outside loop")),
            Flow::Continue => Err(PyError::new("SyntaxError", "'continue' outside loop")),
        }
    }

    /// Evaluate an expression against current state.
    pub fn eval(&mut self, expr: &str) -> Result<Value, PyError> {
        let e = parse_expression(expr)?;
        let mut frame = None;
        self.eval_expr(&e, &mut frame)
    }

    /// The Swift/T leaf convention: execute `code`, then evaluate `expr`
    /// and return its `str()` form as the task result.
    pub fn run(&mut self, code: &str, expr: &str) -> Result<String, PyError> {
        self.exec(code)?;
        Ok(self.eval(expr)?.to_display())
    }

    /// Take everything `print` produced since the last call.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Set a global variable from the host (input marshaling).
    pub fn set_global(&mut self, name: &str, v: Value) {
        self.globals.insert(name.to_string(), v);
    }

    /// Read a global variable from the host (output marshaling).
    pub fn get_global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Number of global bindings (used to observe state retention).
    pub fn globals_len(&self) -> usize {
        self.globals.len()
    }

    // -- statements ------------------------------------------------------

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        frame: &mut Option<LocalFrame>,
    ) -> Result<Flow, PyError> {
        for s in stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Option<LocalFrame>) -> Result<Flow, PyError> {
        match stmt {
            Stmt::Expr(e) => {
                self.eval_expr(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign(t, e) => {
                let v = self.eval_expr(e, frame)?;
                self.assign(t, v, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::AugAssign(t, op, e) => {
                let cur = match t {
                    Target::Name(n) => self.load(None, n, frame)?,
                    Target::Local(i, n) => self.load(Some(*i), n, frame)?,
                    Target::Index(obj, idx) => {
                        let o = self.eval_expr(obj, frame)?;
                        let i = self.eval_expr(idx, frame)?;
                        index_get(&o, &i)?
                    }
                };
                let rhs = self.eval_expr(e, frame)?;
                let v = binary_op(*op, &cur, &rhs)?;
                self.assign(t, v, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::If(arms, orelse) => {
                for (cond, body) in arms {
                    if self.eval_expr(cond, frame)?.truthy() {
                        return self.exec_block(body, frame);
                    }
                }
                if let Some(body) = orelse {
                    return self.exec_block(body, frame);
                }
                Ok(Flow::Normal)
            }
            Stmt::While(cond, body) => {
                while self.eval_expr(cond, frame)?.truthy() {
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For(var, iter, body) => self.exec_for(var, iter, body, frame),
            Stmt::Def(name, params, body) => {
                let f = FuncDef::resolve(params, body);
                self.functions.insert(name.clone(), Rc::new(f));
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_expr(e, frame)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Global(names) => {
                if let Some(f) = frame {
                    for n in names {
                        f.global_decls.insert(n.clone());
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Import(module) => {
                // Only `math` exists; importing it is a no-op because the
                // module object is built in.
                if module == "math" {
                    Ok(Flow::Normal)
                } else {
                    Err(PyError::new(
                        "ImportError",
                        format!("no module named '{module}' in this embedded interpreter"),
                    ))
                }
            }
            Stmt::Del(t) => self.exec_del(t, frame),
        }
    }

    // Each nested call stacks `exec_stmt`: bulky arms live apart.

    fn exec_for(
        &mut self,
        var: &Target,
        iter: &Expr,
        body: &[Stmt],
        frame: &mut Option<LocalFrame>,
    ) -> Result<Flow, PyError> {
        for item in self.iter_of(iter, frame)? {
            self.assign(var, item, frame)?;
            match self.exec_block(body, frame)? {
                Flow::Break => break,
                Flow::Continue | Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_del(&mut self, t: &Target, frame: &mut Option<LocalFrame>) -> Result<Flow, PyError> {
        match t {
            Target::Name(n) | Target::Local(_, n) => {
                let removed = match (frame, t) {
                    (Some(f), Target::Local(i, _)) => {
                        f.slots.get_mut(*i).and_then(Option::take).is_some()
                    }
                    (Some(f), _) if !f.global_decls.contains(n) => f.locals.remove(n).is_some(),
                    _ => self.globals.remove(n).is_some(),
                };
                if !removed && self.globals.remove(n).is_none() {
                    return name_err(n);
                }
            }
            Target::Index(obj, idx) => {
                let o = self.eval_expr(obj, frame)?;
                let i = self.eval_expr(idx, frame)?;
                index_del(&o, &i)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn assign(
        &mut self,
        t: &Target,
        v: Value,
        frame: &mut Option<LocalFrame>,
    ) -> Result<(), PyError> {
        match t {
            Target::Name(n) => {
                self.store_name(n, v, frame);
                Ok(())
            }
            Target::Local(i, n) => {
                match frame.as_mut().and_then(|f| f.slots.get_mut(*i)) {
                    Some(slot) => *slot = Some(v),
                    None => self.store_name(n, v, frame),
                }
                Ok(())
            }
            Target::Index(obj, idx) => {
                let o = self.eval_expr(obj, frame)?;
                let i = self.eval_expr(idx, frame)?;
                index_set(&o, &i, v)
            }
        }
    }

    fn store_name(&mut self, name: &str, v: Value, frame: &mut Option<LocalFrame>) {
        match frame {
            Some(f) if !f.global_decls.contains(name) => {
                f.locals.insert(name.to_string(), v);
            }
            _ => {
                self.globals.insert(name.to_string(), v);
            }
        }
    }

    /// A function's slot or local, else a global.
    fn load(
        &self,
        slot: Option<usize>,
        name: &str,
        frame: &Option<LocalFrame>,
    ) -> Result<Value, PyError> {
        let local = frame.as_ref().and_then(|f| match slot {
            Some(i) => f.slots.get(i).and_then(Option::as_ref),
            None => f.locals.get(name),
        });
        match local.or_else(|| self.globals.get(name)) {
            Some(v) => Ok(v.clone()),
            None => name_err(name),
        }
    }

    /// What a `for` iterates: `range(...)` without building the list,
    /// unless a user function named `range` shadows the builtin.
    fn iter_of(
        &mut self,
        iter: &Expr,
        frame: &mut Option<LocalFrame>,
    ) -> Result<Box<dyn Iterator<Item = Value>>, PyError> {
        if let Expr::Call(callee, args) = iter {
            if let Expr::Name(n) | Expr::Local(_, n) = callee.as_ref() {
                if n == "range" && !self.functions.contains_key("range") {
                    return Ok(Box::new(range(&self.eval_args(args, frame)?)?));
                }
            }
        }
        Ok(Box::new(
            iterate(&self.eval_expr(iter, frame)?)?.into_iter(),
        ))
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        frame: &mut Option<LocalFrame>,
    ) -> Result<Vec<Value>, PyError> {
        args.iter().map(|a| self.eval_expr(a, frame)).collect()
    }

    // -- expressions -----------------------------------------------------

    fn eval_expr(&mut self, e: &Expr, frame: &mut Option<LocalFrame>) -> Result<Value, PyError> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::NoneLit => Ok(Value::None),
            Expr::Name(n) => self.load(None, n, frame),
            Expr::Local(i, n) => self.load(Some(*i), n, frame),
            Expr::FStr(_) | Expr::List(_) | Expr::Dict(_) => self.eval_display(e, frame),
            Expr::Neg(inner) => {
                let v = self.eval_expr(inner, frame)?;
                match v {
                    Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Bool(b) => Ok(Value::Int(-(b as i64))),
                    other => type_err(format!(
                        "bad operand type for unary -: '{}'",
                        other.type_name()
                    )),
                }
            }
            Expr::Not(inner) => Ok(Value::Bool(!self.eval_expr(inner, frame)?.truthy())),
            Expr::And(l, r) | Expr::Or(l, r) => {
                // `and` stops at a false left side, `or` at a true one.
                let lv = self.eval_expr(l, frame)?;
                if lv.truthy() == matches!(e, Expr::Or(..)) {
                    Ok(lv)
                } else {
                    self.eval_expr(r, frame)
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval_expr(l, frame)?;
                let rv = self.eval_expr(r, frame)?;
                binary_op(*op, &lv, &rv)
            }
            Expr::Compare(op, l, r) => {
                let lv = self.eval_expr(l, frame)?;
                let rv = self.eval_expr(r, frame)?;
                compare_op(*op, &lv, &rv)
            }
            Expr::IfExp(cond, t, f) => {
                if self.eval_expr(cond, frame)?.truthy() {
                    self.eval_expr(t, frame)
                } else {
                    self.eval_expr(f, frame)
                }
            }
            Expr::Index(obj, idx) => {
                let o = self.eval_expr(obj, frame)?;
                let i = self.eval_expr(idx, frame)?;
                index_get(&o, &i)
            }
            Expr::Attr(obj, attr) => {
                // Module constants (math.pi); method *values* are not
                // first-class — they must be called.
                if let Expr::Name(n) | Expr::Local(_, n) = obj.as_ref() {
                    if n == "math" {
                        return math_const(attr);
                    }
                }
                type_err(format!("attribute '{attr}' is only callable"))
            }
            Expr::Call(callee, args) => self.eval_call(callee, args, frame),
        }
    }

    // Each nested call stacks `eval_expr`: bulky arms live apart.

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        frame: &mut Option<LocalFrame>,
    ) -> Result<Value, PyError> {
        let argv = self.eval_args(args, frame)?;
        match callee {
            Expr::Name(n) | Expr::Local(_, n) => self.call_function(n, argv),
            Expr::Attr(obj, method) => {
                if let Expr::Name(n) | Expr::Local(_, n) = obj.as_ref() {
                    if n == "math" {
                        return math_call(method, &argv);
                    }
                }
                let target = self.eval_expr(obj, frame)?;
                self.call_method(&target, method, argv)
            }
            other => type_err(format!("{other:?} is not callable")),
        }
    }

    /// f-strings, lists and dicts.
    fn eval_display(&mut self, e: &Expr, frame: &mut Option<LocalFrame>) -> Result<Value, PyError> {
        match e {
            Expr::FStr(parts) => {
                let mut out = String::new();
                for p in parts {
                    match p {
                        FStrPart::Lit(l) => out.push_str(l),
                        FStrPart::Expr(e) => out.push_str(&self.eval_expr(e, frame)?.to_display()),
                    }
                }
                Ok(Value::str(out))
            }
            Expr::List(items) => {
                let mut v = Vec::with_capacity(items.len());
                for i in items {
                    v.push(self.eval_expr(i, frame)?);
                }
                Ok(Value::list(v))
            }
            Expr::Dict(items) => {
                let mut m = BTreeMap::new();
                for (k, v) in items {
                    let key = match self.eval_expr(k, frame)? {
                        Value::Str(s) => (*s).clone(),
                        other => other.to_display(),
                    };
                    m.insert(key, self.eval_expr(v, frame)?);
                }
                Ok(Value::Dict(Rc::new(std::cell::RefCell::new(m))))
            }
            other => type_err(format!("{other:?} is not a display")),
        }
    }

    fn call_function(&mut self, name: &str, argv: Vec<Value>) -> Result<Value, PyError> {
        if let Some(f) = self.functions.get(name).cloned() {
            if argv.len() != f.params.len() {
                return type_err(format!(
                    "{name}() takes {} arguments but {} were given",
                    f.params.len(),
                    argv.len()
                ));
            }
            if self.depth >= 200 {
                return Err(PyError::new(
                    "RecursionError",
                    "maximum recursion depth exceeded",
                ));
            }
            let mut inner = Some(LocalFrame {
                slots: vec![None; f.slots],
                locals: HashMap::new(),
                global_decls: HashSet::new(),
            });
            for (p, v) in f.params.iter().zip(argv) {
                self.assign(p, v, &mut inner)?;
            }
            self.depth += 1;
            let flow = self.exec_block(&f.body, &mut inner);
            self.depth -= 1;
            return match flow? {
                Flow::Return(v) => Ok(v),
                _ => Ok(Value::None),
            };
        }
        self.call_builtin(name, argv)
    }

    fn call_builtin(&mut self, name: &str, argv: Vec<Value>) -> Result<Value, PyError> {
        let n_args = argv.len();
        let want = |n: usize| -> Result<(), PyError> {
            if n_args != n {
                type_err(format!("{name}() takes {n} argument(s), got {n_args}"))
            } else {
                Ok(())
            }
        };
        match name {
            "print" => {
                let parts: Vec<String> = argv.iter().map(|v| v.to_display()).collect();
                self.output.push_str(&parts.join(" "));
                self.output.push('\n');
                Ok(Value::None)
            }
            "len" => {
                want(1)?;
                match &argv[0] {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::List(l) => Ok(Value::Int(l.borrow().len() as i64)),
                    Value::Dict(d) => Ok(Value::Int(d.borrow().len() as i64)),
                    other => type_err(format!(
                        "object of type '{}' has no len()",
                        other.type_name()
                    )),
                }
            }
            "range" => Ok(Value::list(range(&argv)?.collect())),
            "str" => {
                want(1)?;
                Ok(Value::str(argv[0].to_display()))
            }
            "repr" => {
                want(1)?;
                Ok(Value::str(argv[0].to_repr()))
            }
            "int" => {
                want(1)?;
                match &argv[0] {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Float(f) => Ok(Value::Int(*f as i64)),
                    Value::Bool(b) => Ok(Value::Int(*b as i64)),
                    Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                        PyError::new("ValueError", format!("invalid literal for int(): '{s}'"))
                    }),
                    other => type_err(format!("int() argument must not be {}", other.type_name())),
                }
            }
            "float" => {
                want(1)?;
                match &argv[0] {
                    Value::Float(f) => Ok(Value::Float(*f)),
                    Value::Int(i) => Ok(Value::Float(*i as f64)),
                    Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                        PyError::new("ValueError", format!("could not convert '{s}' to float"))
                    }),
                    other => type_err(format!(
                        "float() argument must not be {}",
                        other.type_name()
                    )),
                }
            }
            "bool" => {
                want(1)?;
                Ok(Value::Bool(argv[0].truthy()))
            }
            "abs" => {
                want(1)?;
                match &argv[0] {
                    Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    other => type_err(format!("bad operand for abs(): {}", other.type_name())),
                }
            }
            "round" => match n_args {
                1 => Ok(Value::Int(float_of(&argv[0])?.round() as i64)),
                2 => {
                    let nd = int_of(&argv[1])?;
                    let m = 10f64.powi(nd as i32);
                    Ok(Value::Float((float_of(&argv[0])? * m).round() / m))
                }
                _ => type_err("round() takes 1-2 arguments"),
            },
            "min" | "max" => {
                let items: Vec<Value> = if n_args == 1 {
                    iterate(&argv[0])?
                } else {
                    argv
                };
                if items.is_empty() {
                    return Err(PyError::new("ValueError", format!("{name}() arg is empty")));
                }
                let mut best = items[0].clone();
                for v in &items[1..] {
                    let take = match compare_op(CmpOp::Lt, v, &best)? {
                        Value::Bool(b) => {
                            if name == "min" {
                                b
                            } else {
                                !b && !v.py_eq(&best)
                            }
                        }
                        _ => false,
                    };
                    if take {
                        best = v.clone();
                    }
                }
                Ok(best)
            }
            "sum" => {
                want(1)?;
                let items = iterate(&argv[0])?;
                let mut acc = Value::Int(0);
                for v in items {
                    acc = binary_op(BinOp::Add, &acc, &v)?;
                }
                Ok(acc)
            }
            "sorted" => {
                want(1)?;
                let mut items = iterate(&argv[0])?;
                sort(&mut items)?;
                Ok(Value::list(items))
            }
            "list" => {
                want(1)?;
                Ok(Value::list(iterate(&argv[0])?))
            }
            "type" => {
                want(1)?;
                Ok(Value::str(format!("<class '{}'>", argv[0].type_name())))
            }
            _ => name_err(name),
        }
    }

    fn call_method(
        &mut self,
        target: &Value,
        method: &str,
        argv: Vec<Value>,
    ) -> Result<Value, PyError> {
        match target {
            Value::Str(s) => str_method(s, method, &argv),
            Value::List(l) => list_method(l, method, argv),
            Value::Dict(d) => dict_method(d, method, &argv),
            other => type_err(format!(
                "'{}' object has no method '{method}'",
                other.type_name()
            )),
        }
    }
}

/// A function call's variables: its resolved locals in `slots`; names
/// in a `global` statement by name, as in `locals` before the statement
/// runs.
struct LocalFrame {
    slots: Vec<Option<Value>>,
    locals: HashMap<String, Value>,
    global_decls: HashSet<String>,
}

fn int_of(v: &Value) -> Result<i64, PyError> {
    v.as_int()
        .ok_or_else(|| PyError::new("TypeError", format!("expected int, got {}", v.type_name())))
}

fn float_of(v: &Value) -> Result<f64, PyError> {
    v.as_number().ok_or_else(|| {
        PyError::new(
            "TypeError",
            format!("expected number, got {}", v.type_name()),
        )
    })
}

fn iterate(v: &Value) -> Result<Vec<Value>, PyError> {
    match v {
        Value::List(l) => Ok(l.borrow().clone()),
        Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
        Value::Dict(d) => Ok(d.borrow().keys().map(|k| Value::str(k.clone())).collect()),
        other => type_err(format!("'{}' object is not iterable", other.type_name())),
    }
}

/// `sorted()` and `list.sort()`: by `<`, failing with its first error.
fn sort(items: &mut [Value]) -> Result<(), PyError> {
    let mut fail = None;
    items.sort_by(|a, b| match compare_op(CmpOp::Lt, a, b) {
        Ok(Value::Bool(true)) => std::cmp::Ordering::Less,
        Ok(_) if a.py_eq(b) => std::cmp::Ordering::Equal,
        Ok(_) => std::cmp::Ordering::Greater,
        Err(e) => {
            fail = Some(e);
            std::cmp::Ordering::Equal
        }
    });
    fail.map_or(Ok(()), Err)
}

/// Python's `//`: quotient floored toward negative infinity (`%` then
/// takes the divisor's sign).
fn py_floor_div(x: i64, y: i64) -> i64 {
    let q = x.wrapping_div(y);
    if (x.wrapping_rem(y) != 0) && ((x < 0) != (y < 0)) {
        q - 1
    } else {
        q
    }
}

fn binary_op(op: BinOp, l: &Value, r: &Value) -> Result<Value, PyError> {
    use Value::*;
    // String/list structural operators first.
    match (op, l, r) {
        (BinOp::Add, Str(a), Str(b)) => return Ok(Value::str(format!("{a}{b}"))),
        (BinOp::Add, List(a), List(b)) => {
            let mut v = a.borrow().clone();
            v.extend(b.borrow().iter().cloned());
            return Ok(Value::list(v));
        }
        (BinOp::Mul, Str(a), Int(n)) | (BinOp::Mul, Int(n), Str(a)) => {
            return Ok(Value::str(a.repeat((*n).max(0) as usize)))
        }
        (BinOp::Mul, List(a), Int(n)) | (BinOp::Mul, Int(n), List(a)) => {
            let mut v = Vec::new();
            for _ in 0..(*n).max(0) {
                v.extend(a.borrow().iter().cloned());
            }
            return Ok(Value::list(v));
        }
        (BinOp::Mod, Str(_), _) => {
            return type_err("%-formatting is not supported; use f-strings");
        }
        _ => {}
    }
    // Numeric path.
    let (a, b) = match (l.as_number(), r.as_number()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return type_err(format!(
                "unsupported operand type(s) for {}: '{}' and '{}'",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))
        }
    };
    let both_int = l.as_int().is_some() && r.as_int().is_some();
    let (ia, ib) = (l.as_int().unwrap_or(0), r.as_int().unwrap_or(0));
    match op {
        BinOp::Add if both_int => Ok(Value::Int(ia.wrapping_add(ib))),
        BinOp::Sub if both_int => Ok(Value::Int(ia.wrapping_sub(ib))),
        BinOp::Mul if both_int => Ok(Value::Int(ia.wrapping_mul(ib))),
        BinOp::Add => Ok(Value::Float(a + b)),
        BinOp::Sub => Ok(Value::Float(a - b)),
        BinOp::Mul => Ok(Value::Float(a * b)),
        BinOp::Div => {
            if b == 0.0 {
                return Err(PyError::new("ZeroDivisionError", "division by zero"));
            }
            Ok(Value::Float(a / b))
        }
        BinOp::FloorDiv => {
            if b == 0.0 {
                return Err(PyError::new(
                    "ZeroDivisionError",
                    "integer division by zero",
                ));
            }
            if both_int {
                Ok(Value::Int(py_floor_div(ia, ib)))
            } else {
                Ok(Value::Float((a / b).floor()))
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Err(PyError::new("ZeroDivisionError", "modulo by zero"));
            }
            if both_int {
                Ok(Value::Int(
                    ia.wrapping_sub(ib.wrapping_mul(py_floor_div(ia, ib))),
                ))
            } else {
                Ok(Value::Float(a - b * (a / b).floor()))
            }
        }
        BinOp::Pow => {
            if both_int && ib >= 0 {
                // Square-and-multiply: the product of `ib` wrapping
                // multiplications, in O(log ib) of them.
                let (mut acc, mut base, mut e) = (1i64, ia, ib);
                while e > 0 {
                    if e & 1 == 1 {
                        acc = acc.wrapping_mul(base);
                    }
                    base = base.wrapping_mul(base);
                    e >>= 1;
                }
                Ok(Value::Int(acc))
            } else {
                Ok(Value::Float(a.powf(b)))
            }
        }
    }
}

fn compare_op(op: CmpOp, l: &Value, r: &Value) -> Result<Value, PyError> {
    if op == CmpOp::In {
        return match r {
            Value::List(items) => Ok(Value::Bool(items.borrow().iter().any(|v| v.py_eq(l)))),
            Value::Str(hay) => match l {
                Value::Str(needle) => Ok(Value::Bool(hay.contains(needle.as_str()))),
                other => type_err(format!(
                    "'in <string>' requires string, not {}",
                    other.type_name()
                )),
            },
            Value::Dict(d) => Ok(Value::Bool(d.borrow().contains_key(&l.to_display()))),
            other => type_err(format!(
                "argument of type '{}' is not iterable",
                other.type_name()
            )),
        };
    }
    if op == CmpOp::Eq {
        return Ok(Value::Bool(l.py_eq(r)));
    }
    if op == CmpOp::Ne {
        return Ok(Value::Bool(!l.py_eq(r)));
    }
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => {
            let (a, b) = match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return type_err(format!(
                        "'{}' not supported between '{}' and '{}'",
                        op.symbol(),
                        l.type_name(),
                        r.type_name()
                    ))
                }
            };
            a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
        }
    };
    use std::cmp::Ordering::*;
    Ok(Value::Bool(match op {
        CmpOp::Lt => ord == Less,
        CmpOp::Gt => ord == Greater,
        CmpOp::Le => ord != Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::Eq | CmpOp::Ne | CmpOp::In => false,
    }))
}

fn index_get(obj: &Value, idx: &Value) -> Result<Value, PyError> {
    match obj {
        Value::List(l) => {
            let l = l.borrow();
            let i = normalize_index(int_of(idx)?, l.len())?;
            Ok(l[i].clone())
        }
        Value::Str(s) => {
            let cs: Vec<char> = s.chars().collect();
            let i = normalize_index(int_of(idx)?, cs.len())?;
            Ok(Value::str(cs[i].to_string()))
        }
        Value::Dict(d) => {
            let key = idx.to_display();
            d.borrow()
                .get(&key)
                .cloned()
                .ok_or_else(|| PyError::new("KeyError", format!("'{key}'")))
        }
        other => type_err(format!(
            "'{}' object is not subscriptable",
            other.type_name()
        )),
    }
}

fn index_set(obj: &Value, idx: &Value, v: Value) -> Result<(), PyError> {
    match obj {
        Value::List(l) => {
            let mut l = l.borrow_mut();
            let len = l.len();
            let i = normalize_index(int_of(idx)?, len)?;
            l[i] = v;
            Ok(())
        }
        Value::Dict(d) => {
            d.borrow_mut().insert(idx.to_display(), v);
            Ok(())
        }
        other => type_err(format!(
            "'{}' object does not support item assignment",
            other.type_name()
        )),
    }
}

fn index_del(obj: &Value, idx: &Value) -> Result<(), PyError> {
    match obj {
        Value::List(l) => {
            let mut l = l.borrow_mut();
            let len = l.len();
            let i = normalize_index(int_of(idx)?, len)?;
            l.remove(i);
            Ok(())
        }
        Value::Dict(d) => {
            let key = idx.to_display();
            d.borrow_mut()
                .remove(&key)
                .map(|_| ())
                .ok_or_else(|| PyError::new("KeyError", format!("'{key}'")))
        }
        other => type_err(format!(
            "'{}' object doesn't support item deletion",
            other.type_name()
        )),
    }
}

fn normalize_index(i: i64, len: usize) -> Result<usize, PyError> {
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        return Err(PyError::new("IndexError", "index out of range"));
    }
    Ok(adjusted as usize)
}

fn math_const(name: &str) -> Result<Value, PyError> {
    match name {
        "pi" => Ok(Value::Float(std::f64::consts::PI)),
        "e" => Ok(Value::Float(std::f64::consts::E)),
        "tau" => Ok(Value::Float(std::f64::consts::TAU)),
        "inf" => Ok(Value::Float(f64::INFINITY)),
        "nan" => Ok(Value::Float(f64::NAN)),
        other => Err(PyError::new(
            "AttributeError",
            format!("module 'math' has no attribute '{other}'"),
        )),
    }
}

fn math_call(name: &str, argv: &[Value]) -> Result<Value, PyError> {
    let one = || -> Result<f64, PyError> {
        if argv.len() != 1 {
            return Err(PyError::new(
                "TypeError",
                format!("math.{name}() takes 1 argument"),
            ));
        }
        float_of(&argv[0])
    };
    match name {
        "sqrt" => Ok(Value::Float(one()?.sqrt())),
        "sin" => Ok(Value::Float(one()?.sin())),
        "cos" => Ok(Value::Float(one()?.cos())),
        "tan" => Ok(Value::Float(one()?.tan())),
        "exp" => Ok(Value::Float(one()?.exp())),
        "log" => match argv.len() {
            1 => Ok(Value::Float(float_of(&argv[0])?.ln())),
            2 => Ok(Value::Float(float_of(&argv[0])?.log(float_of(&argv[1])?))),
            _ => Err(PyError::new("TypeError", "math.log() takes 1-2 arguments")),
        },
        "log10" => Ok(Value::Float(one()?.log10())),
        "floor" => Ok(Value::Int(one()?.floor() as i64)),
        "ceil" => Ok(Value::Int(one()?.ceil() as i64)),
        "fabs" => Ok(Value::Float(one()?.abs())),
        "pow" => {
            if argv.len() != 2 {
                return Err(PyError::new("TypeError", "math.pow() takes 2 arguments"));
            }
            Ok(Value::Float(float_of(&argv[0])?.powf(float_of(&argv[1])?)))
        }
        "hypot" => {
            if argv.len() != 2 {
                return Err(PyError::new("TypeError", "math.hypot() takes 2 arguments"));
            }
            Ok(Value::Float(float_of(&argv[0])?.hypot(float_of(&argv[1])?)))
        }
        other => Err(PyError::new(
            "AttributeError",
            format!("module 'math' has no attribute '{other}'"),
        )),
    }
}

fn str_method(s: &Rc<String>, method: &str, argv: &[Value]) -> Result<Value, PyError> {
    let str_arg = |i: usize| -> Result<String, PyError> {
        match argv.get(i) {
            Some(Value::Str(v)) => Ok((**v).clone()),
            Some(other) => type_err(format!("expected str argument, got {}", other.type_name())),
            None => type_err("missing argument"),
        }
    };
    match method {
        "upper" => Ok(Value::str(s.to_uppercase())),
        "lower" => Ok(Value::str(s.to_lowercase())),
        "strip" => Ok(Value::str(s.trim().to_string())),
        "lstrip" => Ok(Value::str(s.trim_start().to_string())),
        "rstrip" => Ok(Value::str(s.trim_end().to_string())),
        "split" => {
            let parts: Vec<Value> = if argv.is_empty() {
                s.split_whitespace().map(Value::str).collect()
            } else {
                let sep = str_arg(0)?;
                s.split(sep.as_str()).map(Value::str).collect()
            };
            Ok(Value::list(parts))
        }
        "join" => {
            let items = match argv.first() {
                Some(v) => iterate(v)?,
                None => return type_err("join() takes one argument"),
            };
            let parts: Result<Vec<String>, PyError> = items
                .iter()
                .map(|v| match v {
                    Value::Str(x) => Ok((**x).clone()),
                    other => type_err(format!(
                        "sequence item: expected str, {} found",
                        other.type_name()
                    )),
                })
                .collect();
            Ok(Value::str(parts?.join(s.as_str())))
        }
        "replace" => Ok(Value::str(s.replace(&str_arg(0)?, &str_arg(1)?))),
        "startswith" => Ok(Value::Bool(s.starts_with(&str_arg(0)?))),
        "endswith" => Ok(Value::Bool(s.ends_with(&str_arg(0)?))),
        "find" => {
            let needle = str_arg(0)?;
            Ok(Value::Int(match s.find(&needle) {
                Some(b) => s[..b].chars().count() as i64,
                None => -1,
            }))
        }
        "count" => {
            let needle = str_arg(0)?;
            if needle.is_empty() {
                return Ok(Value::Int(s.chars().count() as i64 + 1));
            }
            Ok(Value::Int(s.matches(&needle).count() as i64))
        }
        "isdigit" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
        )),
        other => type_err(format!("'str' object has no method '{other}'")),
    }
}

fn list_method(
    l: &Rc<std::cell::RefCell<Vec<Value>>>,
    method: &str,
    argv: Vec<Value>,
) -> Result<Value, PyError> {
    match method {
        "append" => {
            let Ok([v]) = <[Value; 1]>::try_from(argv) else {
                return type_err("append() takes exactly one argument");
            };
            l.borrow_mut().push(v);
            Ok(Value::None)
        }
        "extend" => {
            if argv.len() != 1 {
                return type_err("extend() takes exactly one argument");
            }
            let items = iterate(&argv[0])?;
            l.borrow_mut().extend(items);
            Ok(Value::None)
        }
        "pop" => {
            let mut borrow = l.borrow_mut();
            let len = borrow.len();
            if len == 0 {
                return Err(PyError::new("IndexError", "pop from empty list"));
            }
            let i = if argv.is_empty() {
                len - 1
            } else {
                normalize_index(int_of(&argv[0])?, len)?
            };
            Ok(borrow.remove(i))
        }
        "insert" => {
            if argv.len() != 2 {
                return type_err("insert() takes exactly two arguments");
            }
            let mut borrow = l.borrow_mut();
            let len = borrow.len();
            let i = int_of(&argv[0])?.clamp(0, len as i64) as usize;
            borrow.insert(i, argv[1].clone());
            Ok(Value::None)
        }
        "index" => {
            if argv.len() != 1 {
                return type_err("index() takes exactly one argument");
            }
            l.borrow()
                .iter()
                .position(|v| v.py_eq(&argv[0]))
                .map(|p| Value::Int(p as i64))
                .ok_or_else(|| PyError::new("ValueError", "value not in list"))
        }
        "reverse" => {
            l.borrow_mut().reverse();
            Ok(Value::None)
        }
        "sort" => {
            let mut items = l.borrow().clone();
            sort(&mut items)?;
            *l.borrow_mut() = items;
            Ok(Value::None)
        }
        other => type_err(format!("'list' object has no method '{other}'")),
    }
}

fn dict_method(
    d: &Rc<std::cell::RefCell<BTreeMap<String, Value>>>,
    method: &str,
    argv: &[Value],
) -> Result<Value, PyError> {
    match method {
        "keys" => Ok(Value::list(
            d.borrow().keys().map(|k| Value::str(k.clone())).collect(),
        )),
        "values" => Ok(Value::list(d.borrow().values().cloned().collect())),
        "items" => Ok(Value::list(
            d.borrow()
                .iter()
                .map(|(k, v)| Value::list(vec![Value::str(k.clone()), v.clone()]))
                .collect(),
        )),
        "get" => {
            let key = argv
                .first()
                .map(|v| v.to_display())
                .ok_or_else(|| PyError::new("TypeError", "get() needs a key"))?;
            Ok(d.borrow()
                .get(&key)
                .cloned()
                .unwrap_or_else(|| argv.get(1).cloned().unwrap_or(Value::None)))
        }
        other => type_err(format!("'dict' object has no method '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: &str, expr: &str) -> String {
        Python::new().run(code, expr).unwrap()
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(run("", "7 // 2"), "3");
        assert_eq!(run("", "7 / 2"), "3.5");
        assert_eq!(run("", "-7 // 2"), "-4");
        assert_eq!(run("", "-7 % 3"), "2");
        assert_eq!(run("", "7 // -2"), "-4");
        assert_eq!(run("", "7 % -3"), "-2"); // sign follows divisor
        assert_eq!(run("", "2 ** 10"), "1024");
        assert_eq!(run("", "2 ** -1"), "0.5");
    }

    #[test]
    fn string_ops() {
        assert_eq!(run("", "'ab' + 'cd'"), "abcd");
        assert_eq!(run("", "'ab' * 3"), "ababab");
        assert_eq!(run("", "len('héllo')"), "5");
        assert_eq!(run("", "'HELLO'.lower()"), "hello");
        assert_eq!(run("", "'a,b,c'.split(',')"), "['a', 'b', 'c']");
        assert_eq!(run("", "'-'.join(['x', 'y'])"), "x-y");
    }

    #[test]
    fn fstrings() {
        assert_eq!(run("n = 5", "f'value is {n * 2}!'"), "value is 10!");
        assert_eq!(run("", "f'{{literal}}'"), "{literal}");
    }

    #[test]
    fn lists_and_dicts() {
        assert_eq!(run("a = [3, 1, 2]\na.sort()", "a"), "[1, 2, 3]");
        assert_eq!(run("a = [1]\na.append(2)", "a[-1]"), "2");
        assert_eq!(run("d = {'x': 1}\nd['y'] = 2", "d['y']"), "2");
        assert_eq!(run("d = {'x': 1}", "d.get('z', 9)"), "9");
        assert_eq!(run("", "sorted([3, 1, 2])"), "[1, 2, 3]");
    }

    #[test]
    fn loops_and_conditionals() {
        let code = r#"
total = 0
for i in range(10):
    if i % 2 == 0:
        total += i
"#;
        assert_eq!(run(code, "total"), "20");
        assert_eq!(run("x = 0\nwhile x < 5:\n    x += 1", "x"), "5");
    }

    #[test]
    fn functions_locals_and_globals() {
        let code = r#"
g = 0
def bump(n):
    global g
    g = g + n
    local = 99
    return local
r = bump(5)
"#;
        let mut py = Python::new();
        py.exec(code).unwrap();
        assert_eq!(py.eval("g").unwrap().to_display(), "5");
        assert_eq!(py.eval("r").unwrap().to_display(), "99");
        assert!(py.eval("local").is_err(), "locals must not leak");
    }

    #[test]
    fn math_module() {
        assert_eq!(run("import math", "math.sqrt(16)"), "4.0");
        assert_eq!(run("", "math.floor(3.7)"), "3");
        let pi = run("", "math.pi");
        assert!(pi.starts_with("3.14159"));
    }

    #[test]
    fn errors_have_python_flavor() {
        let mut py = Python::new();
        assert!(py
            .eval("nope")
            .unwrap_err()
            .message
            .starts_with("NameError"));
        assert!(py
            .eval("1 / 0")
            .unwrap_err()
            .message
            .starts_with("ZeroDivisionError"));
        assert!(py
            .eval("[1][5]")
            .unwrap_err()
            .message
            .starts_with("IndexError"));
        assert!(py
            .eval("{'a': 1}['b']")
            .unwrap_err()
            .message
            .starts_with("KeyError"));
        assert!(py
            .exec("def f(): return f()\nf()")
            .unwrap_err()
            .message
            .starts_with("RecursionError"));
    }

    #[test]
    fn print_captured() {
        let mut py = Python::new();
        py.exec("print('a', 1)\nprint(2.5)").unwrap();
        assert_eq!(py.take_output(), "a 1\n2.5\n");
        assert_eq!(py.take_output(), "");
    }

    #[test]
    fn membership_and_bool_logic() {
        assert_eq!(run("", "2 in [1, 2]"), "True");
        assert_eq!(run("", "'el' in 'hello'"), "True");
        assert_eq!(run("", "5 not in [1, 2]"), "True");
        assert_eq!(run("", "0 or 'fallback'"), "fallback");
        assert_eq!(run("", "1 and 2"), "2");
        assert_eq!(run("", "not []"), "True");
    }

    #[test]
    fn negative_indexing() {
        assert_eq!(run("a = [1, 2, 3]", "a[-1]"), "3");
        assert_eq!(run("", "'abc'[-2]"), "b");
    }

    #[test]
    fn host_marshaling() {
        let mut py = Python::new();
        py.set_global("inputs", Value::list(vec![Value::Int(1), Value::Int(2)]));
        py.exec("out = sum(inputs) * 10").unwrap();
        assert_eq!(py.get_global("out").unwrap().to_display(), "30");
    }

    #[test]
    fn conditional_expression() {
        assert_eq!(run("x = -4", "'neg' if x < 0 else 'pos'"), "neg");
    }

    #[test]
    fn range_stops_where_the_next_value_would_overflow() {
        let big = "range(9223372036854775800, 9223372036854775807, 10)";
        assert_eq!(run("", &format!("len({big})")), "1");
        assert_eq!(
            run(&format!("n = 0\nfor i in {big}:\n    n += 1"), "n"),
            "1"
        );
        let down = "range(-9223372036854775800, -9223372036854775807 - 1, -10)";
        assert_eq!(run("", &format!("len({down})")), "1");
    }

    #[test]
    fn a_loop_over_range_iterates_like_the_list() {
        let code = "def f(a, b, c):\n    out = []\n    for i in range(a, b, c):\n        out.append(i)\n    return out\n";
        let mut py = Python::new();
        py.exec(code).unwrap();
        for (args, want) in [
            ("0, 5, 2", "[0, 2, 4]"),
            ("5, 0, -2", "[5, 3, 1]"),
            ("3, 3, 1", "[]"),
        ] {
            assert_eq!(py.eval(&format!("f({args})")).unwrap().to_display(), want);
            assert_eq!(
                py.eval(&format!("list(range({args}))"))
                    .unwrap()
                    .to_display(),
                want
            );
        }
        assert!(py
            .eval("f(0, 5, 0)")
            .unwrap_err()
            .message
            .starts_with("ValueError"));
        // A user function named `range` shadows the builtin in loops too.
        py.exec("def range(n):\n    return [7]\n").unwrap();
        assert_eq!(
            py.eval("f(0, 5, 1)").unwrap_err().message,
            "TypeError: range() takes 1 arguments but 3 were given"
        );
    }

    #[test]
    fn floor_division_at_i64_min_wraps() {
        let min = "(-9223372036854775807 - 1)";
        assert_eq!(run("", &format!("{min} % -1")), "0");
        assert_eq!(run("", &format!("{min} // -1")), "-9223372036854775808");
        assert_eq!(run("", &format!("-{min}")), "-9223372036854775808");
        assert_eq!(run("", "2 ** 64"), "0");
        // 3 ** (2 ** 63 - 1) modulo 2 ** 64, read as a signed i64.
        assert_eq!(run("", "3 ** 9223372036854775807"), "-6148914691236517205");
    }

    #[test]
    fn global_names_keep_their_lookup_by_name() {
        let code = r#"
g = 1
def f(x):
    g = 10
    global g
    g = g + x
    return g
r = f(5)
"#;
        // Before `global g` runs, `g = 10` binds a local by name, which
        // later reads still find first; the store after it goes global.
        assert_eq!(run(code, "[r, g]"), "[10, 15]");
        // A local slot that was never assigned reads the global.
        assert_eq!(
            run(
                "t = 3\ndef h():\n    if False:\n        t = 0\n    return t\n",
                "h()"
            ),
            "3"
        );
    }

    #[test]
    fn del_statement() {
        let mut py = Python::new();
        py.exec("x = 1\ndel x").unwrap();
        assert!(py.eval("x").is_err());
        assert_eq!(run("a = [1, 2, 3]\ndel a[1]", "a"), "[1, 3]");
    }
}

#[cfg(test)]
mod oracle_tests {
    //! Property test: arithmetic matches Python 3 semantics (true
    //! division, floor division, euclidean-style modulo) via a Rust
    //! oracle.

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Node {
        Lit(i32),
        Add(Box<Node>, Box<Node>),
        Sub(Box<Node>, Box<Node>),
        Mul(Box<Node>, Box<Node>),
        FloorDiv(Box<Node>, Box<Node>),
        Mod(Box<Node>, Box<Node>),
    }

    fn node_strategy() -> impl Strategy<Value = Node> {
        let leaf = (-200i32..200).prop_map(Node::Lit);
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Add(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Sub(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Mul(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::FloorDiv(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Mod(Box::new(a), Box::new(b))),
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
            Node::FloorDiv(a, b) => format!("({} // {})", render(a), render(b)),
            Node::Mod(a, b) => format!("({} % {})", render(a), render(b)),
        }
    }

    /// CPython semantics for ints: // floors, % follows the divisor.
    /// `None` = must raise (ZeroDivisionError or overflow, which we treat
    /// as out of scope and skip).
    fn oracle(n: &Node) -> Result<Option<i64>, ()> {
        Ok(match n {
            Node::Lit(v) => Some(*v as i64),
            Node::Add(a, b) => match (oracle(a)?, oracle(b)?) {
                (Some(x), Some(y)) => Some(x.checked_add(y).ok_or(())?),
                _ => None,
            },
            Node::Sub(a, b) => match (oracle(a)?, oracle(b)?) {
                (Some(x), Some(y)) => Some(x.checked_sub(y).ok_or(())?),
                _ => None,
            },
            Node::Mul(a, b) => match (oracle(a)?, oracle(b)?) {
                (Some(x), Some(y)) => Some(x.checked_mul(y).ok_or(())?),
                _ => None,
            },
            Node::FloorDiv(a, b) => match (oracle(a)?, oracle(b)?) {
                (Some(_), Some(0)) => None,
                (Some(x), Some(y)) => Some(py_floor_div(x, y)),
                _ => None,
            },
            Node::Mod(a, b) => match (oracle(a)?, oracle(b)?) {
                (Some(_), Some(0)) => None,
                (Some(x), Some(y)) => Some(x - y * py_floor_div(x, y)),
                _ => None,
            },
        })
    }

    proptest! {
        #[test]
        fn arithmetic_matches_python_oracle(node in node_strategy()) {
            let Ok(expected) = oracle(&node) else {
                return Ok(()); // overflow: out of scope
            };
            let src = render(&node);
            let mut py = Python::new();
            match (py.eval(&src), expected) {
                (Ok(v), Some(e)) => {
                    prop_assert_eq!(v.to_display(), e.to_string(), "src: {}", src);
                }
                (Err(err), None) => {
                    prop_assert!(
                        err.message.contains("ZeroDivisionError"),
                        "src {}: wrong error {}",
                        src,
                        err.message
                    );
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "src {src}: got {got:?}, want {want:?}"
                    )));
                }
            }
        }
    }
}
