//! The interpreter: frames, variables, command dispatch, substitution.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::builtins::{self, int_arg};
use crate::error::{Exception, TclError, TclResult};
use crate::expr::{self, parse_number, ExprHost, Val};
use crate::list;
use crate::parser::{self, Command, Part, Script, Shape, SHAPED};

/// A native command implementation. Receives the interpreter and the fully
/// substituted argument words (`argv[0]` is the command name).
pub type CommandFn = Rc<dyn Fn(&mut Interp, &[String]) -> TclResult>;

/// A user-defined `proc`.
#[derive(Clone)]
pub(crate) struct ProcDef {
    /// `(name, default)` pairs; a trailing `args` param collects the rest.
    pub params: Vec<(String, Option<String>)>,
    pub varargs: bool,
    pub body: Rc<str>,
}

/// The value of a variable or a command: an integer from `expr` or
/// `incr` stays an `i64` until something asks for its decimal text.
#[derive(Clone)]
enum Obj {
    Str(String),
    Int(i64),
}

impl Obj {
    fn into_string(self) -> String {
        match self {
            Obj::Str(s) => s,
            Obj::Int(i) => i.to_string(),
        }
    }
}

/// How a registered package initializes itself on `package require`.
#[derive(Clone)]
pub enum PackageInit {
    /// Evaluate a Tcl script (the "static package" of §IV: code bundled
    /// in-memory instead of thousands of small files on the FS).
    Script(Rc<str>),
    /// Run a native loader that registers commands.
    Native(Rc<dyn Fn(&mut Interp)>),
}

#[derive(Default)]
struct Frame {
    vars: HashMap<String, Obj>,
    /// Names in this frame linked to globals via `global`.
    global_links: std::collections::HashSet<String>,
}

enum Output {
    Stdout,
    Buffer(Rc<RefCell<String>>),
    Custom(Box<dyn FnMut(&str)>),
}

/// Capacity of each parse cache (scripts, expressions); reaching it
/// triggers a second-chance sweep instead of a wholesale clear, so hot
/// fragments (proc bodies, loop conditions, the leaf tasks a worker
/// evaluates in a loop) keep their trees.
const CACHE_CAP: usize = 4096;

/// Parse trees keyed by their source text, each with a second-chance bit:
/// set on a hit, cleared by the sweep that evicts entries not hit since
/// the last one.
struct ParseCache<T> {
    entries: HashMap<String, (Rc<T>, bool)>,
}

impl<T> ParseCache<T> {
    fn new() -> Self {
        ParseCache {
            entries: HashMap::new(),
        }
    }

    /// The cached tree for `text`, parsing it on a miss. Parse errors are
    /// returned, never cached.
    fn get_or_parse(
        &mut self,
        text: &str,
        parse: impl FnOnce(&str) -> Result<T, Exception>,
    ) -> Result<Rc<T>, Exception> {
        if let Some((tree, hot)) = self.entries.get_mut(text) {
            *hot = true;
            return Ok(tree.clone());
        }
        let tree = Rc::new(parse(text)?);
        if self.entries.len() >= CACHE_CAP {
            // A one-shot flood of unique texts cannot flush the fragments
            // a worker re-evaluates every task.
            self.entries
                .retain(|_, (_, hot)| std::mem::replace(hot, false));
            if self.entries.len() >= CACHE_CAP {
                // Every entry was hot: clear rather than grow unbounded.
                self.entries.clear();
            }
        }
        self.entries.insert(text.to_string(), (tree.clone(), false));
        Ok(tree)
    }
}

/// A Tcl interpreter instance.
///
/// Each Turbine worker/engine rank embeds one `Interp` — the paper's model
/// of treating script interpreters "as native code libraries" (§III.C).
pub struct Interp {
    frames: Vec<Frame>,
    commands: HashMap<String, CommandFn>,
    procs: HashMap<String, Rc<ProcDef>>,
    /// Bit `Shape as usize` is set once a proc, a `register` or a
    /// `rename … {}` has displaced that shaped builtin: its commands then
    /// take generic dispatch.
    displaced: u8,
    packages: HashMap<String, (String, PackageInit)>,
    provided: HashMap<String, String>,
    script_cache: ParseCache<Script>,
    expr_cache: ParseCache<expr::Compiled>,
    context: HashMap<TypeId, Box<dyn Any>>,
    output: Output,
    rand_state: u64,
    depth: usize,
    /// Statistics: number of commands dispatched (used by benches).
    pub commands_executed: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Create an interpreter with the standard command set registered.
    pub fn new() -> Self {
        let mut interp = Interp {
            frames: vec![Frame::default()],
            commands: HashMap::new(),
            procs: HashMap::new(),
            displaced: 0,
            packages: HashMap::new(),
            provided: HashMap::new(),
            script_cache: ParseCache::new(),
            expr_cache: ParseCache::new(),
            context: HashMap::new(),
            output: Output::Stdout,
            rand_state: 0x9E3779B97F4A7C15,
            depth: 0,
            commands_executed: 0,
        };
        builtins::register_all(&mut interp);
        // Registering the builtins themselves displaced nothing.
        interp.displaced = 0;
        interp
    }

    // -- embedding API ---------------------------------------------------

    /// Register (or replace) a native command.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut Interp, &[String]) -> TclResult + 'static,
    {
        self.displace(name);
        self.commands.insert(name.to_string(), Rc::new(f));
    }

    /// Remove a command; returns whether it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        self.displace(name);
        self.commands.remove(name).is_some() | self.procs.remove(name).is_some()
    }

    fn displace(&mut self, name: &str) {
        if let Some(bit) = SHAPED.iter().position(|s| *s == name) {
            self.displaced |= 1 << bit;
        }
    }

    /// True if a command or proc with this name exists.
    pub fn has_command(&self, name: &str) -> bool {
        self.procs.contains_key(name) || self.commands.contains_key(name)
    }

    /// Names of all user-defined procs.
    pub fn proc_names(&self) -> Vec<String> {
        self.procs.keys().cloned().collect()
    }

    /// Attach host state retrievable from native commands. Stored by type;
    /// wrap in `Rc<RefCell<..>>` if commands must mutate it.
    pub fn context_insert<T: 'static>(&mut self, value: T) {
        self.context.insert(TypeId::of::<T>(), Box::new(value));
    }

    /// Fetch host state by type (cloned out; use `Rc` types).
    pub fn context_get<T: 'static + Clone>(&self) -> Option<T> {
        self.context
            .get(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<T>())
            .cloned()
    }

    /// Register a loadable package (the analog of placing it on
    /// `TCLLIBPATH`).
    pub fn add_package(&mut self, name: &str, version: &str, init: PackageInit) {
        self.packages
            .insert(name.to_string(), (version.to_string(), init));
    }

    pub(crate) fn require_package(&mut self, name: &str) -> TclResult {
        if let Some(v) = self.provided.get(name) {
            return Ok(v.clone());
        }
        let (version, init) = self
            .packages
            .get(name)
            .cloned()
            .ok_or_else(|| Exception::error(format!("can't find package {name}")))?;
        // Mark provided before running init so recursive requires terminate.
        self.provided.insert(name.to_string(), version.clone());
        match init {
            PackageInit::Script(src) => {
                self.eval_internal(&src)?;
            }
            PackageInit::Native(f) => f(self),
        }
        Ok(version)
    }

    pub(crate) fn provide_package(&mut self, name: &str, version: &str) {
        self.provided.insert(name.to_string(), version.to_string());
    }

    /// Redirect `puts` into an internal buffer and return it.
    pub fn capture_output(&mut self) -> Rc<RefCell<String>> {
        let buf = Rc::new(RefCell::new(String::new()));
        self.output = Output::Buffer(buf.clone());
        buf
    }

    /// Route `puts` to a custom sink.
    pub fn set_output<F: FnMut(&str) + 'static>(&mut self, sink: F) {
        self.output = Output::Custom(Box::new(sink));
    }

    /// Write text to the interpreter's output sink (what `puts` uses).
    /// Host commands use this to merge embedded-interpreter output into
    /// the rank's stdout stream.
    pub fn write_output(&mut self, text: &str) {
        match &mut self.output {
            Output::Stdout => print!("{text}"),
            Output::Buffer(b) => b.borrow_mut().push_str(text),
            Output::Custom(f) => f(text),
        }
    }

    // -- variables --------------------------------------------------------

    fn frame_for<'n>(&self, name: &'n str) -> (usize, &'n str) {
        // Qualified names (`a::b`) and `::x` live in the global frame.
        if let Some(stripped) = name.strip_prefix("::") {
            if !stripped.contains("::") {
                return (0, stripped);
            }
            return (0, name);
        }
        if name.contains("::") {
            return (0, name);
        }
        let top = self.frames.len() - 1;
        if top > 0 && self.frames[top].global_links.contains(name) {
            return (0, name);
        }
        (top, name)
    }

    fn var(&self, name: &str) -> Result<&Obj, Exception> {
        let (fi, key) = self.frame_for(name);
        self.frames[fi]
            .vars
            .get(key)
            .ok_or_else(|| Exception::error(format!("can't read \"{name}\": no such variable")))
    }

    /// Read a variable.
    pub fn get_var(&mut self, name: &str) -> TclResult {
        self.var(name).map(|v| v.clone().into_string())
    }

    /// Write a variable.
    pub fn set_var(&mut self, name: &str, value: impl Into<String>) {
        self.set_obj(name, Obj::Str(value.into()));
    }

    /// Write a variable. Only a new variable allocates its key.
    fn set_obj(&mut self, name: &str, value: Obj) {
        let (fi, key) = self.frame_for(name);
        let vars = &mut self.frames[fi].vars;
        match vars.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                vars.insert(key.to_string(), value);
            }
        }
    }

    /// `incr name delta`: an unset variable counts as 0.
    pub(crate) fn incr(&mut self, name: &str, delta: i64) -> Result<i64, Exception> {
        let cur = match self.var(name) {
            Ok(Obj::Int(i)) => *i,
            Ok(Obj::Str(s)) => int_arg(s)?,
            Err(_) => 0,
        };
        let next = cur
            .checked_add(delta)
            .ok_or_else(|| Exception::error("integer overflow in incr"))?;
        self.set_obj(name, Obj::Int(next));
        Ok(next)
    }

    /// Remove a variable; true if it existed.
    pub fn unset_var(&mut self, name: &str) -> bool {
        let (fi, key) = self.frame_for(name);
        self.frames[fi].vars.remove(key).is_some()
    }

    /// Whether a variable is currently set.
    pub fn var_exists(&mut self, name: &str) -> bool {
        let (fi, key) = self.frame_for(name);
        self.frames[fi].vars.contains_key(key)
    }

    pub(crate) fn link_global(&mut self, name: &str) {
        let top = self.frames.len() - 1;
        if top > 0 {
            self.frames[top].global_links.insert(name.to_string());
        }
    }

    /// Current proc-call nesting level (0 = global).
    pub fn level(&self) -> usize {
        self.frames.len() - 1
    }

    // -- evaluation --------------------------------------------------------

    /// Evaluate a script; this is the embedding entry point.
    ///
    /// A top-level `return` yields its value; `break`/`continue` outside a
    /// loop are errors, as in Tcl.
    pub fn eval(&mut self, script: &str) -> Result<String, TclError> {
        Self::top_level(self.eval_internal(script))
    }

    /// [`Interp::eval`] for a script parsed ahead of time with
    /// [`Script::parse`]. The tree is plain data (`Send + Sync`), so one
    /// parse of a library can serve every interpreter in the process.
    pub fn eval_script(&mut self, script: &Script) -> Result<String, TclError> {
        Self::top_level(self.eval_parsed(script).map(Obj::into_string))
    }

    /// [`Interp::eval`] for a text that runs once, such as a shipped task
    /// or a program's main: it has `eval`'s results, errors, traces and
    /// top-level `return`/`break`/`continue`, but parses and runs one
    /// command at a time, as Tcl_EvalEx does, and caches no parse of it.
    /// So the commands before a syntax error have run when it is
    /// returned, where `eval` runs none. A single command of plain words
    /// is invoked without a parse tree. Command substitutions inside the
    /// text are evaluated as `eval` evaluates them.
    pub fn eval_once(&mut self, text: &str) -> Result<String, TclError> {
        Self::top_level(self.run_once(text).map(Obj::into_string))
    }

    fn run_once(&mut self, text: &str) -> Result<Obj, Exception> {
        if let Some(words) = parser::plain_words(text) {
            let argv: Vec<String> = words.map(str::to_string).collect();
            if argv.is_empty() {
                return Ok(Obj::Str(String::new()));
            }
            return self
                .invoke(&argv)
                .map(Obj::Str)
                .map_err(|e| annotate(e, text.trim()));
        }
        let mut result = Obj::Str(String::new());
        for cmd in parser::Commands::new(text) {
            let cmd = cmd?;
            result = self
                .eval_command(&cmd)
                .map_err(|e| annotate(e, &cmd.source))?;
        }
        Ok(result)
    }

    fn top_level(result: TclResult) -> Result<String, TclError> {
        match result {
            Ok(v) => Ok(v),
            Err(Exception::Return(v)) => Ok(v),
            Err(Exception::Error(e)) => Err(e),
            Err(Exception::Break) => Err(TclError::new("invoked \"break\" outside of a loop")),
            Err(Exception::Continue) => {
                Err(TclError::new("invoked \"continue\" outside of a loop"))
            }
        }
    }

    /// Evaluate with full exception semantics (for control-flow commands).
    pub fn eval_internal(&mut self, script: &str) -> TclResult {
        self.eval_obj(script).map(Obj::into_string)
    }

    fn eval_obj(&mut self, script: &str) -> Result<Obj, Exception> {
        let parsed = self
            .script_cache
            .get_or_parse(script, parser::parse_script)?;
        self.eval_parsed(&parsed)
    }

    fn eval_parsed(&mut self, script: &Script) -> Result<Obj, Exception> {
        let mut result = Obj::Str(String::new());
        for cmd in &script.commands {
            result = self
                .eval_command(cmd)
                .map_err(|e| annotate(e, &cmd.source))?;
        }
        Ok(result)
    }

    /// Every nested proc call stacks this frame, so the argv is built and
    /// the shaped builtins run in functions of their own.
    fn eval_command(&mut self, cmd: &Command) -> Result<Obj, Exception> {
        if cmd.shape != Shape::Generic && self.displaced & 1 << cmd.shape as u8 == 0 {
            return self.eval_shaped(cmd);
        }
        let argv = self.argv(cmd)?;
        if argv.is_empty() {
            return Ok(Obj::Str(String::new()));
        }
        self.invoke(&argv).map(Obj::Str)
    }

    fn argv(&mut self, cmd: &Command) -> Result<Vec<String>, Exception> {
        let mut argv: Vec<String> = Vec::with_capacity(cmd.words.len());
        for w in &cmd.words {
            if w.expands() {
                let text = self.subst_parts(&w.parts[1..])?.into_string();
                argv.extend(list::parse_list(&text).map_err(Exception::from)?);
            } else {
                argv.push(self.subst_parts(&w.parts)?.into_string());
            }
        }
        Ok(argv)
    }

    /// `set`, `incr` and `expr` as [`Shape`] classified them: the checks,
    /// results and errors of their commands in `builtins`, without an
    /// argv.
    #[inline(never)]
    fn eval_shaped(&mut self, cmd: &Command) -> Result<Obj, Exception> {
        self.commands_executed += 1;
        let (Some(name), arg) = (cmd.words[1].as_lit(), cmd.words.get(2)) else {
            return Err(Exception::error("unshaped command"));
        };
        match (cmd.shape, arg) {
            (Shape::Set, None) => self.var(name).cloned(),
            (Shape::Set, Some(w)) => {
                let value = self.subst_parts(&w.parts)?;
                self.set_obj(name, value.clone());
                Ok(value)
            }
            (Shape::Incr, _) => {
                let delta = match arg.map(|w| self.subst_parts(&w.parts)).transpose()? {
                    None => 1,
                    Some(Obj::Int(d)) => d,
                    Some(Obj::Str(s)) => int_arg(&s)?,
                };
                self.incr(name, delta).map(Obj::Int)
            }
            _ => match self.expr_val(name)? {
                Val::Int(i) => Ok(Obj::Int(i)),
                v => Ok(Obj::Str(v.to_tcl_string())),
            },
        }
    }

    fn subst_parts(&mut self, parts: &[Part]) -> Result<Obj, Exception> {
        match parts {
            [Part::Var(name)] => return self.var(name).cloned(),
            [Part::Script(src)] => return self.eval_obj(src),
            [Part::Lit(s)] => return Ok(Obj::Str(s.clone())),
            _ => {}
        }
        let mut out = String::new();
        for p in parts {
            match p {
                Part::Lit(s) => out.push_str(s),
                Part::Var(name) => out.push_str(&self.var(name)?.clone().into_string()),
                Part::Script(src) => out.push_str(&self.eval_obj(src)?.into_string()),
            }
        }
        Ok(Obj::Str(out))
    }

    /// Perform Tcl `subst`-style substitution on a string ($vars and
    /// `[commands]`), used by the `subst` command and string templating.
    pub fn subst(&mut self, text: &str) -> TclResult {
        // Reuse the quoted-word parser by wrapping in quotes after escaping
        // embedded quotes and backslashes minimally: simpler to scan here.
        let wrapped = format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""));
        let script = parser::parse_script(&format!("return {wrapped}"))?;
        match self.eval_parsed(&script) {
            Err(Exception::Return(v)) => Ok(v),
            Ok(v) => Ok(v.into_string()),
            Err(e) => Err(e),
        }
    }

    /// Invoke a command by argv. Dispatch order: procs, then natives.
    pub fn invoke(&mut self, argv: &[String]) -> TclResult {
        self.commands_executed += 1;
        let name = argv[0].as_str();
        if let Some(p) = self.procs.get(name).cloned() {
            return self.call_proc(name, &p, &argv[1..]);
        }
        if let Some(f) = self.commands.get(name).cloned() {
            return f(self, argv);
        }
        Err(Exception::error(format!("invalid command name \"{name}\"")))
    }

    pub(crate) fn define_proc(&mut self, name: &str, def: ProcDef) {
        self.displace(name);
        self.procs.insert(name.to_string(), Rc::new(def));
    }

    fn call_proc(&mut self, name: &str, p: &ProcDef, args: &[String]) -> TclResult {
        if self.depth >= 500 {
            return Err(Exception::error(format!(
                "too many nested proc calls (infinite recursion in \"{name}\"?)"
            )));
        }
        let mut frame = Frame::default();
        let required = p.params.iter().filter(|(_, d)| d.is_none()).count();
        if args.len() < required || (!p.varargs && args.len() > p.params.len()) {
            return Err(Exception::error(format!(
                "wrong # args: should be \"{name} {}\"",
                p.params
                    .iter()
                    .map(|(n, d)| if d.is_some() {
                        format!("?{n}?")
                    } else {
                        n.clone()
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
                    + if p.varargs { " ?arg ...?" } else { "" }
            )));
        }
        let mut ai = 0usize;
        for (pname, default) in &p.params {
            if ai < args.len() {
                frame.vars.insert(pname.clone(), Obj::Str(args[ai].clone()));
                ai += 1;
            } else if let Some(d) = default {
                frame.vars.insert(pname.clone(), Obj::Str(d.clone()));
            }
        }
        if p.varargs {
            let rest: Vec<&String> = args[ai.min(args.len())..].iter().collect();
            frame
                .vars
                .insert("args".to_string(), Obj::Str(list::format_list(&rest)));
        }
        self.frames.push(frame);
        self.depth += 1;
        let body = p.body.clone();
        let result = self.eval_obj(&body).map(Obj::into_string);
        self.depth -= 1;
        self.frames.pop();
        match result {
            Err(Exception::Return(v)) => Ok(v),
            Ok(v) => Ok(v),
            Err(e) => Err(e),
        }
    }

    /// Evaluate a Tcl expression string (the `expr` engine). Text with a
    /// `$` or `[` (a loop condition, a leaf reading its arguments) is
    /// compiled once per interpreter. Substitution-free text comes from a
    /// double substitution such as the engine library's `expr "$x $op $y"`,
    /// which arrives as `10 + 66`: it carries values, is seldom seen twice,
    /// and is evaluated directly rather than churning the cache.
    pub fn expr(&mut self, src: &str) -> TclResult {
        Ok(self.expr_val(src)?.to_tcl_string())
    }

    fn expr_val(&mut self, src: &str) -> Result<Val, Exception> {
        if src.contains(['$', '[']) {
            let compiled = self.expr_cache.get_or_parse(src, expr::compile)?;
            expr::eval_compiled(self, &compiled)
        } else {
            expr::eval_expr(self, src)
        }
    }

    /// Evaluate an expression as a boolean (for `if`/`while` conditions).
    pub fn expr_bool(&mut self, src: &str) -> Result<bool, Exception> {
        self.expr_val(src)?.truthy()
    }

    /// A loop's test: compiled on first use, then held for the loop.
    pub(crate) fn loop_test(
        &mut self,
        src: &str,
        held: &mut Option<Rc<expr::Compiled>>,
    ) -> Result<bool, Exception> {
        let test = match held {
            Some(t) => t.clone(),
            None if src.contains(['$', '[']) => held
                .insert(self.expr_cache.get_or_parse(src, expr::compile)?)
                .clone(),
            None => held.insert(Rc::new(expr::compile(src)?)).clone(),
        };
        expr::eval_compiled(self, &test)?.truthy()
    }

    /// A loop's body or step: parsed on first use, then held for the loop.
    pub(crate) fn loop_run(
        &mut self,
        src: &str,
        held: &mut Option<Rc<Script>>,
    ) -> Result<(), Exception> {
        let script = match held {
            Some(s) => s.clone(),
            None => held
                .insert(self.script_cache.get_or_parse(src, parser::parse_script)?)
                .clone(),
        };
        self.eval_parsed(&script).map(drop)
    }
}

impl ExprHost for Interp {
    fn var_val(&mut self, name: &str) -> Result<Val, Exception> {
        match self.var(name)? {
            Obj::Int(i) => Ok(Val::Int(*i)),
            Obj::Str(s) => Ok(parse_number(s).unwrap_or_else(|| Val::Str(s.clone()))),
        }
    }
    fn eval_script(&mut self, script: &str) -> TclResult {
        self.eval_internal(script)
    }
    fn next_rand(&mut self) -> f64 {
        // xorshift64*: deterministic per-interp stream for expr's rand().
        let mut x = self.rand_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rand_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Add the failing command's `source` to an error's trace.
fn annotate(e: Exception, source: &str) -> Exception {
    match e {
        Exception::Error(mut err) => {
            if err.trace.len() < 8 {
                err.trace.push(source.to_string());
            }
            Exception::Error(err)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached<T>(cache: &ParseCache<T>, text: &str) -> Rc<T> {
        cache.entries.get(text).expect("text is cached").0.clone()
    }

    #[test]
    fn script_cache_eviction_keeps_hot_fragments() {
        let mut i = Interp::new();
        // A "hot" fragment, evaluated repeatedly like a worker's leaf task.
        i.eval("set hot 1").unwrap();
        let hot_rc = cached(&i.script_cache, "set hot 1");
        // Flood the cache past capacity with unique one-shot scripts,
        // touching the hot fragment along the way so it carries its
        // second-chance bit into the sweep.
        for n in 0..CACHE_CAP + 10 {
            i.eval(&format!("set x{n} {n}")).unwrap();
            if n % 512 == 0 {
                i.eval("set hot 1").unwrap();
            }
        }
        assert!(
            i.script_cache.entries.len() < CACHE_CAP,
            "sweep must have evicted the cold flood"
        );
        assert!(
            Rc::ptr_eq(&cached(&i.script_cache, "set hot 1"), &hot_rc),
            "hot fragment keeps its original parse tree"
        );

        // The expression cache runs the same policy: a hot loop condition
        // keeps its compiled tree across a flood of distinct `$` texts.
        let mut i = Interp::new();
        i.eval("set k 1; expr {$k < 1000}").unwrap();
        let hot_rc = cached(&i.expr_cache, "$k < 1000");
        for n in 0..5000 {
            i.expr(&format!("$k + {n}")).unwrap();
            if n % 512 == 0 {
                i.expr("$k < 1000").unwrap();
            }
        }
        assert!(i.expr_cache.entries.len() < CACHE_CAP);
        assert!(Rc::ptr_eq(&cached(&i.expr_cache, "$k < 1000"), &hot_rc));

        // A double-substituted `expr "$x + $y"` reaches `expr` as
        // substitution-free text carrying values: it never enters.
        let mut i = Interp::new();
        for n in 0..10_000 {
            i.eval(&format!("set x {n}; expr \"$x + 66\"")).unwrap();
        }
        assert!(i.expr_cache.entries.is_empty());
    }

    #[test]
    fn a_cached_expression_reads_current_values() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set x 1; expr {$x + 1}").unwrap(), "2");
        assert_eq!(i.eval("set x 5; expr {$x + 1}").unwrap(), "6");
        assert_eq!(i.expr_cache.entries.len(), 1);
    }

    #[test]
    fn a_cached_expression_reruns_its_commands() {
        let mut i = Interp::new();
        i.eval("set n 0").unwrap();
        assert_eq!(i.eval("expr {[incr n] * 2}").unwrap(), "2");
        assert_eq!(i.eval("expr {[incr n] * 2}").unwrap(), "4");
        assert_eq!(i.eval("expr {[incr n] * 2}").unwrap(), "6");
        assert_eq!(i.eval("set n").unwrap(), "3");
    }

    #[test]
    fn a_loop_compiles_its_condition_and_body_once() {
        let mut i = Interp::new();
        i.eval("set acc 0; for {set k 0} {$k < 1000} {incr k} { set acc [expr {$acc + $k}] }")
            .unwrap();
        assert_eq!(i.eval("set acc").unwrap(), "499500");
        let mut texts: Vec<&str> = i.expr_cache.entries.keys().map(String::as_str).collect();
        texts.sort_unstable();
        assert_eq!(texts, ["$acc + $k", "$k < 1000"]);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let mut i = Interp::new();
        let first = i.eval("expr {$x +}").unwrap_err();
        let second = i.eval("expr {$x +}").unwrap_err();
        assert_eq!(first.message, second.message);
        assert!(i.expr_cache.entries.is_empty());
    }

    #[test]
    fn a_one_shot_text_runs_up_to_its_syntax_error() {
        let text = "set a 1\nset b {";
        let mut once = Interp::new();
        let err = once.eval_once(text).unwrap_err();
        assert_eq!(err.message, "missing close-brace");
        assert_eq!(once.get_var("a").unwrap(), "1");
        let mut whole = Interp::new();
        assert_eq!(whole.eval(text).unwrap_err(), err);
        assert!(!whole.var_exists("a"));
    }

    #[test]
    fn a_one_shot_text_adds_no_cache_entry() {
        let mut i = Interp::new();
        i.eval_once("set a 1; incr a 2\nproc p {x} { return $x }")
            .unwrap();
        assert_eq!(i.eval_once("set a").unwrap(), "3");
        assert!(i.script_cache.entries.is_empty());
        // A proc body comes back, so it is cached.
        assert_eq!(i.eval_once("p 7").unwrap(), "7");
        let texts: Vec<&str> = i.script_cache.entries.keys().map(String::as_str).collect();
        assert_eq!(texts, [" return $x "]);
    }

    #[test]
    fn multibyte_text_in_expr_is_an_error_not_a_panic() {
        let mut i = Interp::new();
        for (src, bad) in [
            ("expr {é}", 'é'),
            ("expr {1 +é}", 'é'),
            ("expr {$x +€}", '€'),
        ] {
            assert_eq!(
                i.eval(src).unwrap_err().message,
                format!("unexpected character '{bad}' in expression")
            );
        }
        // An escaped multibyte character inside quotes is kept whole.
        assert_eq!(i.eval("expr {\"\\é\"}").unwrap(), "é");
    }

    #[test]
    fn globals_vs_locals() {
        let mut i = Interp::new();
        i.eval("set g 1").unwrap();
        i.eval("proc f {} { global g; set l 2; return [expr {$g + $l}] }")
            .unwrap();
        assert_eq!(i.eval("f").unwrap(), "3");
        // Local `l` did not leak.
        assert!(i.eval("set l").is_err());
    }

    #[test]
    fn qualified_names_are_global() {
        let mut i = Interp::new();
        i.eval("proc f {} { set turbine::rank 7 }").unwrap();
        i.eval("f").unwrap();
        assert_eq!(i.eval("set turbine::rank").unwrap(), "7");
    }

    #[test]
    fn context_round_trip() {
        let mut i = Interp::new();
        i.context_insert(Rc::new(RefCell::new(41u32)));
        let c: Rc<RefCell<u32>> = i.context_get().unwrap();
        *c.borrow_mut() += 1;
        let c2: Rc<RefCell<u32>> = i.context_get().unwrap();
        assert_eq!(*c2.borrow(), 42);
    }

    #[test]
    fn native_command_dispatch() {
        let mut i = Interp::new();
        i.register("double_it", |_, argv| {
            let n: i64 = argv[1].parse().unwrap();
            Ok((n * 2).to_string())
        });
        assert_eq!(i.eval("double_it 21").unwrap(), "42");
    }

    #[test]
    fn package_require_runs_init_once() {
        let mut i = Interp::new();
        i.add_package(
            "mypkg",
            "1.0",
            PackageInit::Script(Rc::from("set ::loads [expr {[info exists ::loads] ? $::loads + 1 : 1}]; proc mypkg_f {} { return ok }")),
        );
        assert_eq!(i.eval("package require mypkg").unwrap(), "1.0");
        assert_eq!(i.eval("package require mypkg").unwrap(), "1.0");
        assert_eq!(i.eval("set ::loads").unwrap(), "1");
        assert_eq!(i.eval("mypkg_f").unwrap(), "ok");
    }

    #[test]
    fn missing_package_errors() {
        let mut i = Interp::new();
        assert!(i.eval("package require nope").is_err());
    }

    #[test]
    fn capture_output() {
        let mut i = Interp::new();
        let buf = i.capture_output();
        i.eval("puts hello; puts world").unwrap();
        assert_eq!(&*buf.borrow(), "hello\nworld\n");
    }

    #[test]
    fn infinite_recursion_is_caught() {
        let mut i = Interp::new();
        i.eval("proc f {} { f }").unwrap();
        let err = i.eval("f").unwrap_err();
        assert!(err.message.contains("recursion"), "{}", err.message);
    }

    #[test]
    fn expand_marker_expands_lists() {
        let mut i = Interp::new();
        i.eval("set l {1 2 3}").unwrap();
        assert_eq!(i.eval("llength $l").unwrap(), "3");
        assert_eq!(i.eval("expr {*}{1 + 2}").unwrap(), "3");
    }

    #[test]
    fn error_trace_accumulates() {
        let mut i = Interp::new();
        i.eval("proc inner {} { error deep }").unwrap();
        i.eval("proc outer {} { inner }").unwrap();
        let err = i.eval("outer").unwrap_err();
        assert_eq!(err.message, "deep");
        assert!(!err.trace.is_empty());
    }
}
