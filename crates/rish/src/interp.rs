//! The R evaluator: environments, vectorized operations, builtins.

use std::collections::HashMap;
use std::rc::Rc;

use crate::parser::{parse_expression, parse_program, Expr};
use crate::value::{RError, RFunction, RValue};

enum Flow {
    Value(RValue),
    Break,
    Next,
    Return(RValue),
}

/// An embedded R interpreter instance.
///
/// Like [`pythonish::Python`], one instance lives on each worker rank and
/// the retain/reinitialize policy of §III.C decides whether its global
/// environment survives between leaf tasks.
///
/// [`pythonish::Python`]: https://docs.rs/pythonish
pub struct R {
    globals: HashMap<String, RValue>,
    output: String,
    depth: usize,
    rng: u64,
}

impl Default for R {
    fn default() -> Self {
        Self::new()
    }
}

impl R {
    /// A fresh interpreter with an empty global environment.
    pub fn new() -> Self {
        R {
            globals: HashMap::new(),
            output: String::new(),
            depth: 0,
            rng: 0x853C49E6748FEA9B,
        }
    }

    /// Execute a code fragment; returns the value of the last expression.
    pub fn exec(&mut self, code: &str) -> Result<RValue, RError> {
        let prog = parse_program(code)?;
        let mut last = RValue::Null;
        let mut frame = None;
        for e in &prog {
            match self.eval_expr(e, &mut frame)? {
                Flow::Value(v) => last = v,
                Flow::Return(v) => return Ok(v),
                Flow::Break => return Err(RError::new("no loop for break")),
                Flow::Next => return Err(RError::new("no loop for next")),
            }
        }
        Ok(last)
    }

    /// Evaluate a single expression.
    pub fn eval(&mut self, expr: &str) -> Result<RValue, RError> {
        let e = parse_expression(expr)?;
        let mut frame = None;
        match self.eval_expr(&e, &mut frame)? {
            Flow::Value(v) | Flow::Return(v) => Ok(v),
            _ => Err(RError::new("no loop for break/next")),
        }
    }

    /// The Swift/T leaf convention: run `code`, then evaluate `expr` and
    /// return its display string.
    pub fn run(&mut self, code: &str, expr: &str) -> Result<String, RError> {
        if !code.trim().is_empty() {
            self.exec(code)?;
        }
        Ok(self.eval(expr)?.to_display())
    }

    /// Take accumulated `cat`/`print` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Host-side input marshaling.
    pub fn set_global(&mut self, name: &str, v: RValue) {
        self.globals.insert(name.to_string(), v);
    }

    /// Host-side output marshaling.
    pub fn get_global(&self, name: &str) -> Option<&RValue> {
        self.globals.get(name)
    }

    /// Number of global bindings (observes state retention in tests).
    pub fn globals_len(&self) -> usize {
        self.globals.len()
    }

    fn next_unif(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn load(&self, name: &str, frame: &Option<HashMap<String, RValue>>) -> Result<RValue, RError> {
        if let Some(f) = frame {
            if let Some(v) = f.get(name) {
                return Ok(v.clone());
            }
        }
        self.globals
            .get(name)
            .cloned()
            .ok_or_else(|| RError::new(format!("object '{name}' not found")))
    }

    fn store(&mut self, name: &str, v: RValue, frame: &mut Option<HashMap<String, RValue>>) {
        match frame {
            Some(f) => {
                f.insert(name.to_string(), v);
            }
            None => {
                self.globals.insert(name.to_string(), v);
            }
        }
    }

    fn eval_expr(
        &mut self,
        e: &Expr,
        frame: &mut Option<HashMap<String, RValue>>,
    ) -> Result<Flow, RError> {
        macro_rules! value {
            ($e:expr) => {
                match self.eval_expr($e, frame)? {
                    Flow::Value(v) => v,
                    other => return Ok(other),
                }
            };
        }
        match e {
            Expr::Num(v) => Ok(Flow::Value(RValue::scalar(*v))),
            Expr::Str(s) => Ok(Flow::Value(RValue::string(s.clone()))),
            Expr::Bool(b) => Ok(Flow::Value(RValue::Logical(vec![*b]))),
            Expr::Null => Ok(Flow::Value(RValue::Null)),
            Expr::Na => Ok(Flow::Value(RValue::Num(vec![f64::NAN]))),
            Expr::Name(n) => Ok(Flow::Value(self.load(n, frame)?)),
            Expr::Break => Ok(Flow::Break),
            Expr::Next => Ok(Flow::Next),
            Expr::Return(inner) => {
                let v = match inner {
                    Some(e) => value!(e),
                    None => RValue::Null,
                };
                Ok(Flow::Return(v))
            }
            Expr::Assign(name, rhs) => {
                let v = value!(rhs);
                self.store(name, v.clone(), frame);
                Ok(Flow::Value(RValue::Null))
            }
            Expr::AssignIndex(name, idx, rhs) => {
                let v = value!(rhs);
                let i = value!(idx).as_scalar()? as i64;
                let mut target = self.load(name, frame)?;
                assign_index(&mut target, i, &v)?;
                self.store(name, target, frame);
                Ok(Flow::Value(RValue::Null))
            }
            Expr::Block(body) => {
                let mut last = RValue::Null;
                for s in body {
                    last = value!(s);
                }
                Ok(Flow::Value(last))
            }
            Expr::If(cond, then, orelse) => {
                if value!(cond).as_condition()? {
                    self.eval_expr(then, frame)
                } else if let Some(o) = orelse {
                    self.eval_expr(o, frame)
                } else {
                    Ok(Flow::Value(RValue::Null))
                }
            }
            Expr::For(var, seq, body) => {
                let seq = value!(seq);
                let items: Vec<RValue> = match &seq {
                    RValue::Num(v) => v.iter().map(|&x| RValue::scalar(x)).collect(),
                    RValue::Str(v) => v.iter().map(|s| RValue::string(s.clone())).collect(),
                    RValue::Logical(v) => v.iter().map(|&b| RValue::Logical(vec![b])).collect(),
                    RValue::Null => vec![],
                    RValue::Function(_) => {
                        return Err(RError::new("invalid for() sequence: function"))
                    }
                };
                for item in items {
                    self.store(var, item, frame);
                    match self.eval_expr(body, frame)? {
                        Flow::Break => break,
                        Flow::Next | Flow::Value(_) => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Value(RValue::Null))
            }
            Expr::While(cond, body) => {
                loop {
                    if !value!(cond).as_condition()? {
                        break;
                    }
                    match self.eval_expr(body, frame)? {
                        Flow::Break => break,
                        Flow::Next | Flow::Value(_) => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Value(RValue::Null))
            }
            Expr::Repeat(body) => {
                let mut guard = 0u64;
                loop {
                    guard += 1;
                    if guard > 100_000_000 {
                        return Err(RError::new("repeat did not terminate"));
                    }
                    match self.eval_expr(body, frame)? {
                        Flow::Break => break,
                        Flow::Next | Flow::Value(_) => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Value(RValue::Null))
            }
            Expr::Function(params, body) => Ok(Flow::Value(RValue::Function(Rc::new(RFunction {
                params: params.clone(),
                body: (**body).clone(),
            })))),
            Expr::Unary(op, inner) => {
                let v = value!(inner);
                match *op {
                    "-" => Ok(Flow::Value(RValue::Num(
                        v.as_nums()?.iter().map(|x| -x).collect(),
                    ))),
                    "!" => {
                        let nums = v.as_nums()?;
                        Ok(Flow::Value(RValue::Logical(
                            nums.iter().map(|&x| x == 0.0).collect(),
                        )))
                    }
                    other => Err(RError::new(format!("unsupported unary {other}"))),
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = value!(l);
                let rv = value!(r);
                Ok(Flow::Value(binary_op(op, &lv, &rv)?))
            }
            Expr::Index(obj, idx) => {
                let o = value!(obj);
                let i = value!(idx);
                Ok(Flow::Value(index_get(&o, &i)?))
            }
            Expr::Call(callee, args) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(value!(a));
                }
                match callee.as_ref() {
                    Expr::Name(n) => Ok(Flow::Value(self.call(n, argv, frame)?)),
                    other => {
                        // Immediately-invoked function expressions.
                        let f = value!(other.clone().into_boxed().as_ref());
                        match f {
                            RValue::Function(func) => {
                                Ok(Flow::Value(self.call_closure(&func, argv)?))
                            }
                            _ => Err(RError::new("attempt to apply non-function")),
                        }
                    }
                }
            }
        }
    }

    fn call(
        &mut self,
        name: &str,
        argv: Vec<RValue>,
        frame: &Option<HashMap<String, RValue>>,
    ) -> Result<RValue, RError> {
        // User/closure bindings shadow builtins, as in R.
        let binding = if let Some(f) = frame {
            f.get(name)
                .cloned()
                .or_else(|| self.globals.get(name).cloned())
        } else {
            self.globals.get(name).cloned()
        };
        if let Some(RValue::Function(func)) = binding {
            return self.call_closure(&func, argv);
        }
        self.call_builtin(name, argv)
    }

    fn call_closure(&mut self, func: &RFunction, argv: Vec<RValue>) -> Result<RValue, RError> {
        if self.depth >= 200 {
            return Err(RError::new(
                "evaluation nested too deeply (infinite recursion?)",
            ));
        }
        let mut locals = HashMap::new();
        for (i, p) in func.params.iter().enumerate() {
            if let Some(v) = argv.get(i) {
                locals.insert(p.name.clone(), v.clone());
            } else if let Some(d) = &p.default {
                let mut empty = None;
                let v = match self.eval_expr(d, &mut empty)? {
                    Flow::Value(v) => v,
                    _ => RValue::Null,
                };
                locals.insert(p.name.clone(), v);
            } else {
                return Err(RError::new(format!(
                    "argument \"{}\" is missing, with no default",
                    p.name
                )));
            }
        }
        if argv.len() > func.params.len() {
            return Err(RError::new("unused arguments in call"));
        }
        let mut frame = Some(locals);
        self.depth += 1;
        let out = self.eval_expr(&func.body, &mut frame);
        self.depth -= 1;
        match out? {
            Flow::Value(v) | Flow::Return(v) => Ok(v),
            _ => Err(RError::new("no loop for break/next")),
        }
    }

    fn call_builtin(&mut self, name: &str, argv: Vec<RValue>) -> Result<RValue, RError> {
        let nums1 = |argv: &[RValue]| -> Result<Vec<f64>, RError> {
            argv.first()
                .ok_or_else(|| RError::new(format!("{name}: missing argument")))?
                .as_nums()
        };
        let map1 = |argv: &[RValue], f: fn(f64) -> f64| -> Result<RValue, RError> {
            Ok(RValue::Num(nums1(argv)?.into_iter().map(f).collect()))
        };
        match name {
            "c" => {
                // Concatenate with R's coercion: any string → character.
                if argv.iter().any(|v| matches!(v, RValue::Str(_))) {
                    let mut out = Vec::new();
                    for v in &argv {
                        out.extend(v.as_strings());
                    }
                    Ok(RValue::Str(out))
                } else {
                    let mut out = Vec::new();
                    for v in &argv {
                        out.extend(v.as_nums()?);
                    }
                    Ok(RValue::Num(out))
                }
            }
            "length" => Ok(RValue::scalar(
                argv.first().map(|v| v.len()).unwrap_or(0) as f64
            )),
            "sum" => {
                let mut acc = 0.0;
                for v in &argv {
                    acc += v.as_nums()?.iter().sum::<f64>();
                }
                Ok(RValue::scalar(acc))
            }
            "prod" => {
                let mut acc = 1.0;
                for v in &argv {
                    acc *= v.as_nums()?.iter().product::<f64>();
                }
                Ok(RValue::scalar(acc))
            }
            "mean" => {
                let v = nums1(&argv)?;
                if v.is_empty() {
                    return Ok(RValue::scalar(f64::NAN));
                }
                Ok(RValue::scalar(v.iter().sum::<f64>() / v.len() as f64))
            }
            "var" | "sd" => {
                let v = nums1(&argv)?;
                if v.len() < 2 {
                    return Ok(RValue::scalar(f64::NAN));
                }
                let m = v.iter().sum::<f64>() / v.len() as f64;
                let var = v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
                Ok(RValue::scalar(if name == "var" { var } else { var.sqrt() }))
            }
            "median" => {
                let mut v = nums1(&argv)?;
                if v.is_empty() {
                    return Ok(RValue::scalar(f64::NAN));
                }
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let n = v.len();
                Ok(RValue::scalar(if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                }))
            }
            "quantile" => {
                // quantile(x, p): type-7 (R default) single quantile.
                if argv.len() != 2 {
                    return Err(RError::new("quantile(x, p) needs two arguments"));
                }
                let mut v = argv[0].as_nums()?;
                let p = argv[1].as_scalar()?;
                if v.is_empty() || !(0.0..=1.0).contains(&p) {
                    return Err(RError::new("quantile: bad arguments"));
                }
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let h = (v.len() as f64 - 1.0) * p;
                let lo = h.floor() as usize;
                let hi = h.ceil() as usize;
                Ok(RValue::scalar(v[lo] + (h - lo as f64) * (v[hi] - v[lo])))
            }
            "min" => {
                let mut best = f64::INFINITY;
                for v in &argv {
                    for x in v.as_nums()? {
                        best = best.min(x);
                    }
                }
                Ok(RValue::scalar(best))
            }
            "max" => {
                let mut best = f64::NEG_INFINITY;
                for v in &argv {
                    for x in v.as_nums()? {
                        best = best.max(x);
                    }
                }
                Ok(RValue::scalar(best))
            }
            "sqrt" => map1(&argv, f64::sqrt),
            "abs" => map1(&argv, f64::abs),
            "exp" => map1(&argv, f64::exp),
            "log" => match argv.len() {
                1 => map1(&argv, f64::ln),
                2 => {
                    let base = argv[1].as_scalar()?;
                    Ok(RValue::Num(
                        argv[0].as_nums()?.iter().map(|x| x.log(base)).collect(),
                    ))
                }
                _ => Err(RError::new("log(x, base) takes 1-2 arguments")),
            },
            "floor" => map1(&argv, f64::floor),
            "ceiling" => map1(&argv, f64::ceil),
            "round" => match argv.len() {
                1 => map1(&argv, |x| x.round()),
                2 => {
                    let d = argv[1].as_scalar()?;
                    let m = 10f64.powi(d as i32);
                    Ok(RValue::Num(
                        argv[0]
                            .as_nums()?
                            .iter()
                            .map(|x| (x * m).round() / m)
                            .collect(),
                    ))
                }
                _ => Err(RError::new("round(x, digits) takes 1-2 arguments")),
            },
            "seq" => {
                let (from, to) = match argv.len() {
                    2 | 3 => (argv[0].as_scalar()?, argv[1].as_scalar()?),
                    _ => return Err(RError::new("seq(from, to, by) takes 2-3 arguments")),
                };
                let by = if argv.len() == 3 {
                    argv[2].as_scalar()?
                } else if to >= from {
                    1.0
                } else {
                    -1.0
                };
                if by == 0.0 {
                    return Err(RError::new("seq: by must be nonzero"));
                }
                let mut out = Vec::new();
                let mut x = from;
                let n = ((to - from) / by).floor() as i64;
                for k in 0..=n.max(0) {
                    x = from + by * k as f64;
                    out.push(x);
                }
                let _ = x;
                Ok(RValue::Num(out))
            }
            "rep" => {
                if argv.len() != 2 {
                    return Err(RError::new("rep(x, times) takes two arguments"));
                }
                let times = argv[1].as_scalar()? as usize;
                match &argv[0] {
                    RValue::Str(v) => {
                        let mut out = Vec::new();
                        for _ in 0..times {
                            out.extend(v.iter().cloned());
                        }
                        Ok(RValue::Str(out))
                    }
                    other => {
                        let v = other.as_nums()?;
                        let mut out = Vec::with_capacity(v.len() * times);
                        for _ in 0..times {
                            out.extend(&v);
                        }
                        Ok(RValue::Num(out))
                    }
                }
            }
            "rev" => match &argv[..] {
                [RValue::Str(v)] => Ok(RValue::Str(v.iter().rev().cloned().collect())),
                [v] => Ok(RValue::Num(v.as_nums()?.into_iter().rev().collect())),
                _ => Err(RError::new("rev(x) takes one argument")),
            },
            "sort" => {
                let mut v = nums1(&argv)?;
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                Ok(RValue::Num(v))
            }
            "which.max" | "which.min" => {
                let v = nums1(&argv)?;
                let cmp = |a: &(usize, &f64), b: &(usize, &f64)| {
                    a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal)
                };
                let best = if name == "which.max" {
                    v.iter().enumerate().max_by(cmp)
                } else {
                    v.iter().enumerate().min_by(cmp)
                };
                Ok(match best {
                    Some((idx, _)) => RValue::scalar((idx + 1) as f64),
                    None => RValue::Null,
                })
            }
            "numeric" => {
                let n = argv
                    .first()
                    .map(|v| v.as_scalar())
                    .transpose()?
                    .unwrap_or(0.0) as usize;
                Ok(RValue::Num(vec![0.0; n]))
            }
            "paste" | "paste0" => {
                let sep = if name == "paste" { " " } else { "" };
                // Element-wise paste with recycling, like R.
                let parts: Vec<Vec<String>> = argv.iter().map(|v| v.as_strings()).collect();
                let n = parts.iter().map(|p| p.len()).max().unwrap_or(0);
                if n == 0 {
                    return Ok(RValue::string(""));
                }
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let piece: Vec<&str> = parts
                        .iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| p[i % p.len()].as_str())
                        .collect();
                    out.push(piece.join(sep));
                }
                Ok(RValue::Str(out))
            }
            "nchar" => Ok(RValue::Num(
                argv.first()
                    .map(|v| v.as_strings())
                    .unwrap_or_default()
                    .iter()
                    .map(|s| s.chars().count() as f64)
                    .collect(),
            )),
            "toupper" => Ok(RValue::Str(
                argv[0]
                    .as_strings()
                    .iter()
                    .map(|s| s.to_uppercase())
                    .collect(),
            )),
            "tolower" => Ok(RValue::Str(
                argv[0]
                    .as_strings()
                    .iter()
                    .map(|s| s.to_lowercase())
                    .collect(),
            )),
            "as.numeric" | "as.double" => {
                let out: Result<Vec<f64>, RError> = argv[0]
                    .as_strings()
                    .iter()
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| RError::new(format!("NAs introduced: '{s}'")))
                    })
                    .collect();
                match &argv[0] {
                    RValue::Num(v) => Ok(RValue::Num(v.clone())),
                    RValue::Logical(v) => {
                        Ok(RValue::Num(v.iter().map(|&b| b as i64 as f64).collect()))
                    }
                    _ => Ok(RValue::Num(out?)),
                }
            }
            "as.character" => Ok(RValue::Str(argv[0].as_strings())),
            "as.integer" => Ok(RValue::Num(
                argv[0].as_nums()?.iter().map(|x| x.trunc()).collect(),
            )),
            "is.null" => Ok(RValue::Logical(vec![matches!(
                argv.first(),
                Some(RValue::Null)
            )])),
            "sapply" => {
                if argv.len() != 2 {
                    return Err(RError::new("sapply(x, f) takes two arguments"));
                }
                let f = match &argv[1] {
                    RValue::Function(f) => f.clone(),
                    _ => return Err(RError::new("sapply: second argument must be a function")),
                };
                let xs = argv[0].as_nums()?;
                let mut out = Vec::with_capacity(xs.len());
                for x in xs {
                    let r = self.call_closure(&f, vec![RValue::scalar(x)])?;
                    out.push(r.as_scalar()?);
                }
                Ok(RValue::Num(out))
            }
            "runif" => {
                let n = argv
                    .first()
                    .map(|v| v.as_scalar())
                    .transpose()?
                    .unwrap_or(1.0) as usize;
                Ok(RValue::Num((0..n).map(|_| self.next_unif()).collect()))
            }
            "set.seed" => {
                self.rng = argv
                    .first()
                    .map(|v| v.as_scalar())
                    .transpose()?
                    .unwrap_or(1.0) as u64
                    | 1;
                Ok(RValue::Null)
            }
            "cat" => {
                let parts: Vec<String> = argv.iter().flat_map(|v| v.as_strings()).collect();
                self.output.push_str(&parts.join(" "));
                Ok(RValue::Null)
            }
            "print" => {
                let v = argv.into_iter().next().unwrap_or(RValue::Null);
                self.output.push_str(&v.to_display());
                self.output.push('\n');
                Ok(v)
            }
            other => Err(RError::new(format!("could not find function \"{other}\""))),
        }
    }
}

/// Vectorized binary operation with recycling.
fn binary_op(op: &str, l: &RValue, r: &RValue) -> Result<RValue, RError> {
    // String equality comparisons.
    if matches!(l, RValue::Str(_)) || matches!(r, RValue::Str(_)) {
        let (a, b) = (l.as_strings(), r.as_strings());
        let n = a.len().max(b.len());
        if a.is_empty() || b.is_empty() {
            return Err(RError::new("comparison with empty vector"));
        }
        return match op {
            "==" => Ok(RValue::Logical(
                (0..n).map(|i| a[i % a.len()] == b[i % b.len()]).collect(),
            )),
            "!=" => Ok(RValue::Logical(
                (0..n).map(|i| a[i % a.len()] != b[i % b.len()]).collect(),
            )),
            _ => Err(RError::new(format!(
                "non-numeric argument to binary operator {op}"
            ))),
        };
    }
    let a = l.as_nums()?;
    let b = r.as_nums()?;
    if op == ":" {
        let from = l.as_scalar()?;
        let to = r.as_scalar()?;
        let mut out = Vec::new();
        if from <= to {
            let mut x = from;
            while x <= to + 1e-12 {
                out.push(x);
                x += 1.0;
            }
        } else {
            let mut x = from;
            while x >= to - 1e-12 {
                out.push(x);
                x -= 1.0;
            }
        }
        return Ok(RValue::Num(out));
    }
    if a.is_empty() || b.is_empty() {
        return Ok(RValue::Num(vec![]));
    }
    let n = a.len().max(b.len());
    let zip = |f: fn(f64, f64) -> f64| -> RValue {
        RValue::Num((0..n).map(|i| f(a[i % a.len()], b[i % b.len()])).collect())
    };
    let cmp = |f: fn(f64, f64) -> bool| -> RValue {
        RValue::Logical((0..n).map(|i| f(a[i % a.len()], b[i % b.len()])).collect())
    };
    Ok(match op {
        "+" => zip(|x, y| x + y),
        "-" => zip(|x, y| x - y),
        "*" => zip(|x, y| x * y),
        "/" => zip(|x, y| x / y),
        "^" => zip(|x, y| x.powf(y)),
        "%%" => zip(|x, y| x - y * (x / y).floor()),
        "%/%" => zip(|x, y| (x / y).floor()),
        "==" => cmp(|x, y| x == y),
        "!=" => cmp(|x, y| x != y),
        "<" => cmp(|x, y| x < y),
        ">" => cmp(|x, y| x > y),
        "<=" => cmp(|x, y| x <= y),
        ">=" => cmp(|x, y| x >= y),
        "&" | "&&" => cmp(|x, y| x != 0.0 && y != 0.0),
        "|" | "||" => cmp(|x, y| x != 0.0 || y != 0.0),
        other => return Err(RError::new(format!("unknown operator {other}"))),
    })
}

/// 1-based vector indexing; logical and vector indices supported.
fn index_get(obj: &RValue, idx: &RValue) -> Result<RValue, RError> {
    match idx {
        RValue::Logical(mask) => {
            let keep = |i: usize| mask[i % mask.len()];
            match obj {
                RValue::Num(v) => Ok(RValue::Num(
                    v.iter()
                        .enumerate()
                        .filter(|(i, _)| keep(*i))
                        .map(|(_, x)| *x)
                        .collect(),
                )),
                RValue::Str(v) => Ok(RValue::Str(
                    v.iter()
                        .enumerate()
                        .filter(|(i, _)| keep(*i))
                        .map(|(_, s)| s.clone())
                        .collect(),
                )),
                _ => Err(RError::new("cannot index this value")),
            }
        }
        _ => {
            let indices = idx.as_nums()?;
            let pick = |len: usize| -> Result<Vec<usize>, RError> {
                indices
                    .iter()
                    .map(|&i| {
                        let i = i as i64;
                        if i < 1 || i as usize > len {
                            Err(RError::new(format!("subscript out of bounds: {i}")))
                        } else {
                            Ok((i - 1) as usize)
                        }
                    })
                    .collect()
            };
            match obj {
                RValue::Num(v) => Ok(RValue::Num(
                    pick(v.len())?.into_iter().map(|i| v[i]).collect(),
                )),
                RValue::Str(v) => Ok(RValue::Str(
                    pick(v.len())?.into_iter().map(|i| v[i].clone()).collect(),
                )),
                RValue::Logical(v) => Ok(RValue::Logical(
                    pick(v.len())?.into_iter().map(|i| v[i]).collect(),
                )),
                _ => Err(RError::new("cannot index this value")),
            }
        }
    }
}

fn assign_index(target: &mut RValue, i: i64, v: &RValue) -> Result<(), RError> {
    if i < 1 {
        return Err(RError::new(format!("subscript out of bounds: {i}")));
    }
    let i = (i - 1) as usize;
    match target {
        RValue::Num(vec) => {
            let x = v.as_scalar()?;
            // R extends vectors on out-of-range assignment, padding with NA.
            if i >= vec.len() {
                vec.resize(i + 1, f64::NAN);
            }
            vec[i] = x;
            Ok(())
        }
        RValue::Str(vec) => {
            let s = v
                .as_strings()
                .into_iter()
                .next()
                .ok_or_else(|| RError::new("replacement has length zero"))?;
            if i >= vec.len() {
                vec.resize(i + 1, "NA".to_string());
            }
            vec[i] = s;
            Ok(())
        }
        _ => Err(RError::new("cannot assign into this value")),
    }
}

// Helper so the parser's Expr can be boxed inline above.
trait IntoBoxed {
    fn into_boxed(self) -> Box<Expr>;
}
impl IntoBoxed for Expr {
    fn into_boxed(self) -> Box<Expr> {
        Box::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: &str, expr: &str) -> String {
        R::new().run(code, expr).unwrap()
    }

    #[test]
    fn ranges_and_indexing() {
        assert_eq!(run("", "1:5"), "1 2 3 4 5");
        assert_eq!(run("", "5:1"), "5 4 3 2 1");
        assert_eq!(run("x <- c(10, 20, 30)", "x[2]"), "20");
        assert_eq!(run("x <- c(10, 20, 30)", "x[c(1, 3)]"), "10 30");
        assert_eq!(run("x <- 1:10", "x[x > 7]"), "8 9 10");
    }

    #[test]
    fn one_based_bounds() {
        let mut r = R::new();
        assert!(r.run("x <- c(1)", "x[0]").is_err());
        assert!(r.run("x <- c(1)", "x[2]").is_err());
    }

    #[test]
    fn index_assignment_extends() {
        assert_eq!(run("x <- c(1, 2)\nx[5] <- 9", "length(x)"), "5");
        assert_eq!(run("x <- c(1, 2)\nx[1] <- 7", "x[1]"), "7");
    }

    #[test]
    fn integer_ops() {
        assert_eq!(run("", "7 %/% 2"), "3");
        assert_eq!(run("", "7 %% 2"), "1");
        assert_eq!(run("", "-7 %% 3"), "2"); // R's modulo follows the divisor
        assert_eq!(run("", "2 ^ 10"), "1024");
    }

    #[test]
    fn control_flow() {
        let code = r#"
total <- 0
for (i in 1:10) {
  if (i %% 2 == 0) {
    total <- total + i
  }
}
"#;
        assert_eq!(run(code, "total"), "30");
        assert_eq!(run("x <- 0\nwhile (x < 5) x <- x + 1", "x"), "5");
    }

    #[test]
    fn break_and_next() {
        let code = r#"
s <- 0
for (i in 1:10) {
  if (i == 3) next
  if (i == 6) break
  s <- s + i
}
"#;
        assert_eq!(run(code, "s"), "12");
    }

    #[test]
    fn functions_with_defaults_and_recursion() {
        let code = r#"
powsum <- function(v, p = 2) sum(v ^ p)
fact <- function(n) if (n <= 1) 1 else n * fact(n - 1)
"#;
        let mut r = R::new();
        r.exec(code).unwrap();
        assert_eq!(r.eval("powsum(c(1, 2, 3))").unwrap().to_display(), "14");
        assert_eq!(r.eval("powsum(c(1, 2), 3)").unwrap().to_display(), "9");
        assert_eq!(r.eval("fact(6)").unwrap().to_display(), "720");
    }

    #[test]
    fn locals_do_not_leak() {
        let mut r = R::new();
        r.exec("f <- function() { tmp <- 42\n tmp }").unwrap();
        assert_eq!(r.eval("f()").unwrap().to_display(), "42");
        assert!(r.eval("tmp").is_err());
    }

    #[test]
    fn paste_family() {
        assert_eq!(run("", "paste('a', 'b')"), "a b");
        assert_eq!(run("", "paste0('x', 1:3)"), "x1 x2 x3");
    }

    #[test]
    fn stats_builtins() {
        assert_eq!(run("", "median(c(3, 1, 2))"), "2");
        assert_eq!(run("", "median(c(4, 1, 2, 3))"), "2.5");
        assert_eq!(run("", "quantile(1:5, 0.5)"), "3");
        assert_eq!(run("", "which.max(c(3, 9, 2))"), "2");
        // A NaN compares equal to everything: an answer, not a panic.
        assert!(R::new().run("", "which.max(c(3, 0/0, 9))").is_ok());
        assert!(R::new().run("", "which.min(c(0/0, 1))").is_ok());
        assert_eq!(run("", "which.min(numeric(0))"), run("", "NULL"));
        assert_eq!(run("", "var(c(1, 2, 3, 4))"), run("", "sd(c(1,2,3,4)) ^ 2"));
    }

    #[test]
    fn output_capture() {
        let mut r = R::new();
        r.exec("cat('hello', 'world')\nprint(1:3)").unwrap();
        assert_eq!(r.take_output(), "hello world1 2 3\n");
    }

    #[test]
    fn runif_is_deterministic_per_seed() {
        let mut r1 = R::new();
        let mut r2 = R::new();
        r1.exec("set.seed(7)").unwrap();
        r2.exec("set.seed(7)").unwrap();
        assert_eq!(
            r1.eval("runif(3)").unwrap().to_display(),
            r2.eval("runif(3)").unwrap().to_display()
        );
    }

    #[test]
    fn errors_are_r_flavored() {
        let mut r = R::new();
        assert!(r
            .eval("ghost")
            .unwrap_err()
            .message
            .contains("object 'ghost' not found"));
        assert!(r
            .eval("nofn(1)")
            .unwrap_err()
            .message
            .contains("could not find function"));
    }

    #[test]
    fn coercion() {
        assert_eq!(run("", "as.numeric('2.5') + 1"), "3.5");
        assert_eq!(run("", "as.character(c(1, 2))"), "1 2");
        assert_eq!(run("", "sum(c(TRUE, TRUE, FALSE))"), "2");
        assert_eq!(run("", "nchar(c('ab', 'abc'))"), "2 3");
    }
}
