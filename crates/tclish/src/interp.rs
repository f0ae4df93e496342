//! The interpreter: frames, variables, command dispatch, substitution.
//!
//! A value's text is shared, not copied: a literal word holds its text
//! as an `Arc<str>`, a variable holds that same `Arc` (or an `i64`), and
//! `$x`, `set y $x` and binding a proc argument count references. A
//! command's result is a `String` until it is stored. A warm command call
//! allocates nothing itself: its argument vector, a native's argument
//! texts and a proc's frame are each recycled per nesting level.

use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use crate::builtins::{self, int_arg};
use crate::error::{Exception, TclError, TclResult};
use crate::expr::{self, parse_number, ExprHost, Val};
use crate::hash::{FxHashMap, FxHashSet};
use crate::list;
use crate::parser::{self, Code, Command, Held, Part, Script, Shape, Word, SHAPED};

/// A native command implementation. Receives the interpreter and the fully
/// substituted argument words (`argv[0]` is the command name).
pub type CommandFn = Rc<dyn Fn(&mut Interp, &[String]) -> TclResult>;

/// A builtin that runs code from its arguments (`if`, loops, `catch`,
/// `switch`, `expr`): beside the argv it receives the command's words,
/// which hold that code's parse, and it returns the code's value as is.
pub(crate) type CodeFn = fn(&mut Interp, &[String], &[Word]) -> Result<Obj, Exception>;

/// What a command name runs. Procs and natives share one table, so the
/// latest definition of a name is the one that runs, as in Tcl.
#[derive(Clone)]
enum Cmd {
    Argv(CommandFn),
    Code(CodeFn),
    Proc(Rc<ProcDef>),
}

/// A user-defined `proc`.
pub(crate) struct ProcDef {
    /// `(name, default)` pairs; a trailing `args` param collects the rest.
    pub params: Vec<(Arc<str>, Option<Obj>)>,
    pub varargs: bool,
    pub body: String,
    /// The body's parse, made at the first call.
    pub held: Held,
}

/// A value: shared text, an integer from `expr` or `incr` (or text that
/// is exactly an integer's decimal), or a command's result not yet
/// stored anywhere. A variable holds only the first two ([`Obj::shared`]).
#[derive(Clone)]
pub(crate) enum Obj {
    Str(Arc<str>),
    Int(i64),
    Own(String),
}

/// Argument texts longer than this are not kept for the next call.
const TEXT_KEEP: usize = 4096;

/// An argument vector, or a native's vector of argument texts, that grew
/// past this many slots is dropped, not kept for the next call: one
/// `{*}` of a large list leaves nothing large resident.
const ARGS_KEEP: usize = 32;

/// A frame whose variable table grew past this many slots is dropped.
const VARS_KEEP: usize = 64;

/// Spare frames kept for the next proc calls.
const SPARE_FRAMES: usize = 64;

impl Obj {
    pub(crate) const EMPTY: Obj = Obj::Own(String::new());

    pub(crate) fn into_string(self) -> String {
        match self {
            Obj::Str(s) => s.to_string(),
            Obj::Int(i) => i.to_string(),
            Obj::Own(s) => s,
        }
    }

    /// The value's text.
    pub(crate) fn text(&self) -> Cow<'_, str> {
        match self {
            Obj::Str(s) => Cow::Borrowed(s),
            Obj::Int(i) => Cow::Owned(i.to_string()),
            Obj::Own(s) => Cow::Borrowed(s),
        }
    }

    /// Append the value's text to `out`.
    fn push_to(&self, out: &mut String) {
        match self {
            Obj::Str(s) => out.push_str(s),
            Obj::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Obj::Own(s) => out.push_str(s),
        }
    }

    /// The value as a variable holds it: a result's text is shared from
    /// here on, or kept as the integer it spells.
    pub(crate) fn shared(self) -> Obj {
        match self {
            Obj::Own(s) => match canonical_int(&s) {
                Some(i) => Obj::Int(i),
                None => Obj::Str(s.into()),
            },
            other => other,
        }
    }

    /// A plain word or list element: the integer it spells, or its text.
    pub(crate) fn word(text: &str) -> Obj {
        match canonical_int(text) {
            Some(i) => Obj::Int(i),
            None => Obj::Str(text.into()),
        }
    }
}

impl From<Val> for Obj {
    fn from(v: Val) -> Obj {
        match v {
            Val::Int(i) => Obj::Int(i),
            v => Obj::Own(v.to_tcl_string()),
        }
    }
}

/// `i` when `s` is exactly `i`'s decimal text, so `Obj::Int(i)` prints
/// back byte-identical: `"007"`, `"-0"`, `"+1"` and `" 1"` stay text.
fn canonical_int(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    let digits = b.strip_prefix(b"-").unwrap_or(b);
    let canonical = match digits {
        [] => false,
        [b'0'] => digits.len() == b.len(),
        [b'0', ..] => false,
        _ => digits.len() <= 19 && digits.iter().all(u8::is_ascii_digit),
    };
    canonical.then(|| s.parse().ok()).flatten()
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
    vars: FxHashMap<Arc<str>, Obj>,
    /// Names in this frame linked to globals via `global`.
    global_links: FxHashSet<Box<str>>,
}

enum Output {
    Stdout,
    Buffer(Rc<RefCell<String>>),
}

/// A Tcl interpreter instance.
///
/// Each Turbine worker/engine rank embeds one `Interp` — the paper's model
/// of treating script interpreters "as native code libraries" (§III.C).
pub struct Interp {
    frames: Vec<Frame>,
    /// Cleared frames of returned proc calls, for the next calls.
    spare_frames: Vec<Frame>,
    /// Empty argument vectors of finished commands, one per nesting level.
    spare_argvs: Vec<Vec<Obj>>,
    /// Argument texts of finished native calls, one vector per nesting
    /// level; each string keeps its capacity for the next call's copy.
    spare_texts: Vec<Vec<String>>,
    commands: FxHashMap<Arc<str>, Cmd>,
    /// Bit `Shape as usize` is set once a proc, a `register` or a
    /// `rename … {}` has displaced that shaped builtin: its commands then
    /// take generic dispatch.
    displaced: u8,
    packages: HashMap<String, (String, PackageInit)>,
    provided: HashMap<String, String>,
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
            spare_frames: Vec::new(),
            spare_argvs: Vec::new(),
            spare_texts: Vec::new(),
            commands: FxHashMap::default(),
            displaced: 0,
            packages: HashMap::new(),
            provided: HashMap::new(),
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
        self.commands.insert(name.into(), Cmd::Argv(Rc::new(f)));
    }

    pub(crate) fn register_code(&mut self, name: &str, f: CodeFn) {
        self.commands.insert(name.into(), Cmd::Code(f));
    }

    /// Remove a command; returns whether it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        self.displace(name);
        self.commands.remove(name).is_some()
    }

    fn displace(&mut self, name: &str) {
        if let Some(bit) = SHAPED.iter().position(|s| *s == name) {
            self.displaced |= 1 << bit;
        }
    }

    /// Names of all user-defined procs.
    pub fn proc_names(&self) -> Vec<String> {
        self.commands
            .iter()
            .filter(|(_, c)| matches!(c, Cmd::Proc(_)))
            .map(|(k, _)| k.to_string())
            .collect()
    }

    /// Names of all commands, procs and natives, sorted.
    pub(crate) fn command_names(&self) -> Vec<&str> {
        let names: BTreeSet<&str> = self.commands.keys().map(|k| &**k).collect();
        names.into_iter().collect()
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

    /// Write text to the interpreter's output sink (what `puts` uses).
    /// Host commands use this to merge embedded-interpreter output into
    /// the rank's stdout stream.
    pub fn write_output(&mut self, text: &str) {
        match &mut self.output {
            Output::Stdout => print!("{text}"),
            Output::Buffer(b) => b.borrow_mut().push_str(text),
        }
    }

    // -- variables --------------------------------------------------------

    fn frame_for<'n>(&self, name: &'n str) -> (usize, &'n str) {
        // Qualified names (`a::b`) and `::x` live in the global frame.
        if name.as_bytes().contains(&b':') {
            if let Some(stripped) = name.strip_prefix("::") {
                let key = if stripped.contains("::") {
                    name
                } else {
                    stripped
                };
                return (0, key);
            }
            if name.contains("::") {
                return (0, name);
            }
        }
        let top = self.frames.len() - 1;
        let links = &self.frames[top].global_links;
        if top > 0 && !links.is_empty() && links.contains(name) {
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
        self.set_obj(name, Obj::Own(value.into()));
    }

    /// Write a variable.
    pub(crate) fn set_obj(&mut self, name: &str, value: Obj) {
        self.set_named(name, None, value);
    }

    /// Write a variable. Only a new variable takes a key: `text`, when
    /// that is the whole name, else a copy of the name.
    fn set_named(&mut self, name: &str, text: Option<&Arc<str>>, value: Obj) {
        let value = value.shared();
        let (fi, key) = self.frame_for(name);
        let vars = &mut self.frames[fi].vars;
        match vars.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                let key = match text {
                    Some(t) if t.len() == key.len() => t.clone(),
                    _ => key.into(),
                };
                vars.insert(key, value);
            }
        }
    }

    /// `incr name delta`: an unset variable counts as 0.
    pub(crate) fn incr(&mut self, name: &str, delta: i64) -> Result<i64, Exception> {
        self.incr_named(name, None, delta)
    }

    fn incr_named(
        &mut self,
        name: &str,
        text: Option<&Arc<str>>,
        delta: i64,
    ) -> Result<i64, Exception> {
        let cur = match self.var(name) {
            Ok(Obj::Int(i)) => *i,
            Ok(other) => int_arg(&other.text())?,
            Err(_) => 0,
        };
        let next = cur
            .checked_add(delta)
            .ok_or_else(|| Exception::error("integer overflow in incr"))?;
        self.set_named(name, text, Obj::Int(next));
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
            self.frames[top].global_links.insert(name.into());
        }
    }

    /// Current proc-call nesting level (0 = global).
    pub fn level(&self) -> usize {
        self.frames.len() - 1
    }

    // -- evaluation --------------------------------------------------------

    /// Evaluate a script; this is the embedding entry point. The whole
    /// text is parsed, then run, and the parse is not kept: an embedder
    /// that runs a text again holds [`Script::parse`] and calls
    /// [`Interp::eval_script`].
    ///
    /// A top-level `return` yields its value; `break`/`continue` outside a
    /// loop are errors, as in Tcl.
    pub fn eval(&mut self, script: &str) -> Result<String, TclError> {
        Self::top_level(self.eval_internal(script))
    }

    /// [`Interp::eval`] for a script parsed ahead of time with
    /// [`Script::parse`]. The tree is `Send + Sync`, so one parse of a
    /// library can serve every interpreter in the process.
    pub fn eval_script(&mut self, script: &Script) -> Result<String, TclError> {
        Self::top_level(self.eval_parsed(script).map(Obj::into_string))
    }

    /// [`Interp::eval`] for a text that runs once, such as a shipped task
    /// or a program's main: it has `eval`'s results, errors, traces and
    /// top-level `return`/`break`/`continue`, but parses and runs one
    /// command at a time, as Tcl_EvalEx does, and keeps no parse of it.
    /// So the commands before a syntax error have run when it is
    /// returned, where `eval` runs none. A single command of plain words
    /// is invoked without a parse tree, each word that spells an integer
    /// exactly as that integer. Command substitutions inside the text are
    /// evaluated as `eval` evaluates them.
    pub fn eval_once(&mut self, text: &str) -> Result<String, TclError> {
        Self::top_level(self.run_once(text).map(Obj::into_string))
    }

    fn run_once(&mut self, text: &str) -> Result<Obj, Exception> {
        if let Some(mut words) = parser::plain_words(text) {
            let Some(name) = words.next() else {
                return Ok(Obj::EMPTY);
            };
            let mut argv = self.spare_argvs.pop().unwrap_or_default();
            argv.push(Obj::Str(self.command_key(name)));
            argv.extend(words.map(Obj::word));
            let result = self.dispatch(&mut argv, &[]);
            self.recycle_argv(argv);
            return result.map_err(|e| annotate(e, text.trim()));
        }
        let mut result = Obj::EMPTY;
        for cmd in parser::Cursor::new(text) {
            let cmd = cmd?;
            result = self
                .eval_command(&cmd)
                .map_err(|e| annotate(e, &cmd.source))?;
        }
        Ok(result)
    }

    /// The text of command name `name`: the key it is registered under,
    /// shared, if it is one.
    fn command_key(&self, name: &str) -> Arc<str> {
        match self.commands.get_key_value(name) {
            Some((key, _)) => key.clone(),
            None => name.into(),
        }
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
        self.run(script, None)
    }

    /// Run `text` as a script, through the parse `held` keeps if given.
    pub(crate) fn run(&mut self, text: &str, held: Option<&Held>) -> TclResult {
        self.run_obj(text, held).map(Obj::into_string)
    }

    /// [`Interp::run`] without formatting the value.
    pub(crate) fn run_obj(&mut self, text: &str, held: Option<&Held>) -> Result<Obj, Exception> {
        let code = held.map(|h| h.code(|| parser::parse_script(text).map(Code::Script)));
        match code.transpose()? {
            Some(Code::Script(script)) => self.eval_parsed(script),
            // No holder, or a word another command held as other code.
            _ => self.eval_parsed(&parser::parse_script(text)?),
        }
    }

    fn eval_parsed(&mut self, script: &Script) -> Result<Obj, Exception> {
        let mut result = Obj::EMPTY;
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
        let mut argv = self.spare_argvs.pop().unwrap_or_default();
        let result = match self.argv(cmd, &mut argv) {
            Ok(()) if argv.is_empty() => Ok(Obj::EMPTY),
            Ok(()) => self.dispatch(&mut argv, &cmd.words),
            Err(e) => Err(e),
        };
        self.recycle_argv(argv);
        result
    }

    fn recycle_argv(&mut self, mut argv: Vec<Obj>) {
        if argv.capacity() <= ARGS_KEEP {
            argv.clear();
            self.spare_argvs.push(argv);
        }
    }

    fn argv(&mut self, cmd: &Command, argv: &mut Vec<Obj>) -> Result<(), Exception> {
        for w in &cmd.words {
            if w.expands() {
                let list = self.subst_parts(&w.parts[1..])?;
                list::for_each_element(&list.text(), |el| argv.push(Obj::word(&el)))?;
            } else {
                argv.push(self.subst_parts(&w.parts)?);
            }
        }
        Ok(())
    }

    /// `set`, `incr` and `expr` as [`Shape`] classified them: the checks,
    /// results and errors of their commands in `builtins`, without an
    /// argv.
    #[inline(never)]
    fn eval_shaped(&mut self, cmd: &Command) -> Result<Obj, Exception> {
        self.commands_executed += 1;
        let word = &cmd.words[1];
        let (Some(name), arg) = (word.as_lit(), cmd.words.get(2)) else {
            return Err(Exception::error("unshaped command"));
        };
        match (cmd.shape, arg) {
            (Shape::Set, None) => self.var(name).cloned(),
            (Shape::Set, Some(w)) => {
                let value = self.subst_parts(&w.parts)?.shared();
                self.set_named(name, word.lit_text(), value.clone());
                Ok(value)
            }
            (Shape::Incr, _) => {
                let delta = match arg.map(|w| self.subst_parts(&w.parts)).transpose()? {
                    None => 1,
                    Some(Obj::Int(d)) => d,
                    Some(other) => int_arg(&other.text())?,
                };
                self.incr_named(name, word.lit_text(), delta).map(Obj::Int)
            }
            _ => Ok(self.expr_in(name, Some(&word.held))?.into()),
        }
    }

    fn subst_parts(&mut self, parts: &[Part]) -> Result<Obj, Exception> {
        match parts {
            [Part::Var(name)] => self.var(name).cloned(),
            [Part::Script(script)] => self.eval_parsed(script),
            [Part::Lit(s)] => Ok(Obj::Str(s.clone())),
            _ => self.concat_parts(parts),
        }
    }

    fn concat_parts(&mut self, parts: &[Part]) -> Result<Obj, Exception> {
        let len = parts
            .iter()
            .map(|p| match p {
                Part::Lit(s) => s.len(),
                _ => 16,
            })
            .sum();
        let mut out = String::with_capacity(len);
        for p in parts {
            match p {
                Part::Lit(s) => out.push_str(s),
                Part::Var(name) => self.var(name)?.push_to(&mut out),
                Part::Script(script) => self.eval_parsed(script)?.push_to(&mut out),
            }
        }
        Ok(Obj::Own(out))
    }

    /// Perform Tcl `subst`-style substitution on a string: `$vars`,
    /// `[commands]` and backslash sequences, as inside a quoted word.
    pub fn subst(&mut self, text: &str) -> TclResult {
        let parts = parser::quoted_parts(&mut parser::Cursor::new(text), false)?;
        match self.subst_parts(&parts) {
            Err(Exception::Return(v)) => Ok(v),
            result => result.map(Obj::into_string),
        }
    }

    /// Run the command `argv` names. A proc takes its arguments out of
    /// `argv`.
    fn dispatch(&mut self, argv: &mut Vec<Obj>, words: &[Word]) -> Result<Obj, Exception> {
        self.commands_executed += 1;
        let cmd = {
            let name = argv[0].text();
            match self.commands.get(&*name) {
                Some(cmd) => cmd.clone(),
                None => return Err(Exception::error(format!("invalid command name \"{name}\""))),
            }
        };
        match cmd {
            Cmd::Proc(p) => self.call_proc(&p, argv),
            Cmd::Argv(f) => self.call_native(argv, |i, args| f(i, args).map(Obj::Own)),
            Cmd::Code(f) => self.call_native(argv, |i, args| f(i, args, words)),
        }
    }

    /// Call a native with `argv`'s texts, copied into strings kept from
    /// the last call at this nesting level.
    #[inline(never)]
    fn call_native(
        &mut self,
        argv: &[Obj],
        native: impl FnOnce(&mut Interp, &[String]) -> Result<Obj, Exception>,
    ) -> Result<Obj, Exception> {
        let mut texts = self.spare_texts.pop().unwrap_or_default();
        for (k, obj) in argv.iter().enumerate() {
            match texts.get_mut(k) {
                Some(t) => {
                    t.clear();
                    obj.push_to(t);
                }
                None => texts.push(obj.text().into_owned()),
            }
        }
        let result = native(self, &texts[..argv.len()]);
        if texts.capacity() <= ARGS_KEEP {
            for t in &mut texts {
                if t.capacity() > TEXT_KEEP {
                    *t = String::new();
                }
            }
            self.spare_texts.push(texts);
        }
        result
    }

    pub(crate) fn define_proc(&mut self, name: &str, def: ProcDef) {
        self.displace(name);
        self.commands.insert(name.into(), Cmd::Proc(Rc::new(def)));
    }

    fn call_proc(&mut self, p: &ProcDef, argv: &mut Vec<Obj>) -> Result<Obj, Exception> {
        if self.depth >= 500 {
            return Err(Exception::error(format!(
                "too many nested proc calls (infinite recursion in \"{}\"?)",
                argv[0].text()
            )));
        }
        let given = argv.len() - 1;
        let required = p.params.iter().filter(|(_, d)| d.is_none()).count();
        if given < required || (!p.varargs && given > p.params.len()) {
            return Err(proc_usage(&argv[0].text(), p));
        }
        let mut frame = self.spare_frames.pop().unwrap_or_default();
        bind_params(&mut frame, p, argv);
        self.frames.push(frame);
        self.depth += 1;
        let result = self.run_obj(&p.body, Some(&p.held));
        self.depth -= 1;
        if let Some(mut frame) = self.frames.pop() {
            if self.spare_frames.len() < SPARE_FRAMES && frame.vars.capacity() <= VARS_KEEP {
                frame.vars.clear();
                frame.global_links.clear();
                self.spare_frames.push(frame);
            }
        }
        match result {
            Err(Exception::Return(v)) => Ok(Obj::Own(v)),
            result => result,
        }
    }

    /// Evaluate a Tcl expression string (the `expr` engine). The text is
    /// compiled at each call and the compile is not kept: an `expr`
    /// command with a literal word holds its compile on that word.
    pub fn expr(&mut self, src: &str) -> TclResult {
        Ok(self.expr_in(src, None)?.to_tcl_string())
    }

    /// Evaluate `text` as an expression, through the compile `held` keeps
    /// if given.
    pub(crate) fn expr_in(&mut self, text: &str, held: Option<&Held>) -> Result<Val, Exception> {
        let code = held.map(|h| h.code(|| expr::compile(text).map(Code::Expr)));
        match code.transpose()? {
            Some(Code::Expr(compiled)) => expr::eval_compiled(self, compiled),
            _ => expr::eval_expr(self, text),
        }
    }
}

/// Bind a proc's parameters in `frame`, moving the arguments out of
/// `argv` (`argv[0]` is the proc's name), whose arity the caller checked.
fn bind_params(frame: &mut Frame, p: &ProcDef, argv: &mut Vec<Obj>) {
    let mut args = argv.drain(1..);
    for (name, default) in &p.params {
        if let Some(value) = args.next().or_else(|| default.clone()) {
            frame.vars.insert(name.clone(), value.shared());
        }
    }
    if p.varargs {
        let rest: Vec<Obj> = args.collect();
        let texts: Vec<Cow<str>> = rest.iter().map(Obj::text).collect();
        frame
            .vars
            .insert("args".into(), Obj::Own(list::format_list(&texts)).shared());
    }
}

#[inline(never)]
fn proc_usage(name: &str, p: &ProcDef) -> Exception {
    Exception::error(format!(
        "wrong # args: should be \"{name} {}\"",
        p.params
            .iter()
            .map(|(n, d)| if d.is_some() {
                format!("?{n}?")
            } else {
                n.to_string()
            })
            .collect::<Vec<_>>()
            .join(" ")
            + if p.varargs { " ?arg ...?" } else { "" }
    ))
}

impl ExprHost for Interp {
    fn var_val(&mut self, name: &str) -> Result<Val, Exception> {
        match self.var(name)? {
            Obj::Int(i) => Ok(Val::Int(*i)),
            other => {
                let s = other.text();
                Ok(parse_number(&s).unwrap_or_else(|| Val::Str(s.into_owned())))
            }
        }
    }
    fn eval_script(&mut self, script: &Script) -> TclResult {
        self.eval_parsed(script).map(Obj::into_string)
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

    #[test]
    fn an_integer_is_kept_only_when_its_text_is_canonical() {
        for i in [0, 7, -1, 10, -10, 1234567890, i64::MAX, i64::MIN] {
            assert_eq!(canonical_int(&i.to_string()), Some(i));
        }
        for s in [
            "",
            "-",
            "007",
            "-0",
            "+1",
            " 1",
            "1 ",
            "1e3",
            "0x10",
            "00",
            "9223372036854775808",
            "-9223372036854775809",
            "12345678901234567890",
        ] {
            assert_eq!(canonical_int(s), None, "{s:?}");
        }
    }

    #[test]
    fn a_large_splice_leaves_no_large_spare_resident() {
        let mut i = Interp::new();
        let script = "proc f {big} { set n [llength [list {*}$big]]; return $n }
            f [lrepeat 100000 x]";
        assert_eq!(i.eval(script).unwrap(), "100000");
        assert!(!i.spare_argvs.is_empty() && !i.spare_texts.is_empty());
        assert!(i.spare_argvs.iter().all(|a| a.capacity() <= ARGS_KEEP));
        assert!(i.spare_texts.iter().all(|t| t.capacity() <= ARGS_KEEP));
        let locals: String = (0..200).map(|k| format!("set v{k} {k}\n")).collect();
        i.eval(&format!("proc g {{}} {{ {locals} }}; g")).unwrap();
        assert!(i
            .spare_frames
            .iter()
            .all(|f| f.vars.capacity() <= VARS_KEEP));
    }

    #[test]
    fn procs_and_natives_share_one_table() {
        let mut i = Interp::new();
        i.eval("proc f {} { return proc }").unwrap();
        i.register("f", |_, _| Ok("native".into()));
        assert_eq!(i.eval("f").unwrap(), "native");
        i.eval("proc f {} { return proc }").unwrap();
        assert_eq!(i.eval("f").unwrap(), "proc");
        assert_eq!(i.proc_names(), ["f"]);
        assert!(i.unregister("f"));
        assert!(i.eval("f").is_err());
        assert!(!i.unregister("f"));
    }

    #[test]
    fn repeated_and_distinct_texts_each_run() {
        // A fragment evaluated again and again, like a worker's leaf task,
        // among a flood of distinct one-shot texts.
        let mut i = Interp::new();
        for n in 0..5000 {
            assert_eq!(i.eval(&format!("set x{n} {n}")).unwrap(), n.to_string());
            if n % 512 == 0 {
                assert_eq!(i.eval("incr hot").unwrap(), (n / 512 + 1).to_string());
            }
        }
        // A held loop condition among distinct `$` expressions.
        i.eval("set k 1").unwrap();
        for n in 0..5000 {
            assert_eq!(i.expr(&format!("$k + {n}")).unwrap(), (n + 1).to_string());
            if n % 512 == 0 {
                assert_eq!(
                    i.eval("while {$k < 1000} { incr k }; set k").unwrap(),
                    "1000"
                );
                i.eval("set k 1").unwrap();
            }
        }
        // A double-substituted `expr "$x + $y"` reaches `expr` as
        // substitution-free text carrying values.
        for n in 0..10_000 {
            let got = i.eval(&format!("set x {n}; expr \"$x + 66\"")).unwrap();
            assert_eq!(got, (n + 66).to_string());
        }
    }

    #[test]
    fn a_held_expression_reads_current_values() {
        let mut i = Interp::new();
        i.eval("proc f {} { expr {$::x + 1} }").unwrap();
        assert_eq!(i.eval("set x 1; f").unwrap(), "2");
        assert_eq!(i.eval("set x 5; f").unwrap(), "6");
    }

    #[test]
    fn a_held_expression_reruns_its_commands() {
        let mut i = Interp::new();
        i.eval("set n 0; proc f {} { expr {[incr ::n] * 2} }")
            .unwrap();
        assert_eq!(i.eval("f").unwrap(), "2");
        assert_eq!(i.eval("f").unwrap(), "4");
        assert_eq!(i.eval("f").unwrap(), "6");
        assert_eq!(i.eval("set n").unwrap(), "3");
    }

    #[test]
    fn a_loop_reruns_its_condition_and_body() {
        let mut i = Interp::new();
        i.eval("set acc 0; for {set k 0} {$k < 1000} {incr k} { set acc [expr {$acc + $k}] }")
            .unwrap();
        assert_eq!(i.eval("set acc").unwrap(), "499500");
        // The same loop with computed words holds its parses locally.
        i.eval("set t {$k < 1000}; set b {incr acc $k}; set acc 0")
            .unwrap();
        i.eval("for {set k 0} $t {incr k} $b").unwrap();
        assert_eq!(i.eval("set acc").unwrap(), "499500");
    }

    #[test]
    fn a_compile_error_recurs_at_every_run() {
        let mut i = Interp::new();
        i.eval("proc f {} { expr {$x +} }").unwrap();
        let first = i.eval("f").unwrap_err();
        let second = i.eval("f").unwrap_err();
        assert_eq!(first.message, second.message);
    }

    #[test]
    fn a_word_held_as_one_kind_of_code_runs_as_another() {
        // `$c` names `catch`, which runs the word as a script, then `expr`.
        let mut i = Interp::new();
        i.eval("proc f {c} { $c {1 + 2} }").unwrap();
        assert_eq!(i.eval("f catch").unwrap(), "1");
        assert_eq!(i.eval("f expr").unwrap(), "3");
        assert_eq!(i.eval("f catch").unwrap(), "1");
    }

    #[test]
    fn a_redefined_proc_runs_its_new_body() {
        let mut i = Interp::new();
        i.eval("proc f {} { return old }").unwrap();
        assert_eq!(i.eval("f").unwrap(), "old");
        i.eval("proc f {} { return new }").unwrap();
        assert_eq!(i.eval("f").unwrap(), "new");
    }

    #[test]
    fn a_proc_redefined_during_its_run_finishes_the_old_body() {
        let mut i = Interp::new();
        i.eval("proc f {} { proc f {} { return new }; set x [expr {1 + 1}]; return old$x }")
            .unwrap();
        assert_eq!(i.eval("f").unwrap(), "old2");
        assert_eq!(i.eval("f").unwrap(), "new");
    }

    #[test]
    fn a_body_with_a_syntax_error_fails_alike_at_every_call() {
        let mut i = Interp::new();
        i.eval("proc f {} { set a 1; set b \"oops }").unwrap();
        let first = i.eval("f").unwrap_err();
        assert_eq!(first.message, "missing close-quote");
        assert_eq!(i.eval("f").unwrap_err(), first);
        // Nothing before the error ran: the body is parsed whole.
        assert!(!i.var_exists("a"));
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
    fn a_displaced_builtin_wins_over_a_held_parse() {
        // Each way to displace a builtin, after a held script and a proc
        // body have run once and filled their words' slots.
        let displacements: [(&str, Result<&str, &str>); 6] = [
            ("proc set {args} { return S }", Ok("30")),
            ("proc expr {args} { return E }", Ok("E")),
            ("proc if {args} { return F }", Ok("F")),
            ("rename incr {}", Err("invalid command name \"incr\"")),
            ("rename for {}", Err("invalid command name \"for\"")),
            ("", Ok("<$x * 10>")),
        ];
        let text = "set x 1; incr x; for {} {0} {} {}; if {1} {expr {$x * 10}}";
        let held = Script::parse(text).unwrap();
        let proc = format!("proc p {{}} {{ global x; {text} }}");
        for (displace, want) in displacements {
            for in_proc in [false, true] {
                let mut i = Interp::new();
                i.eval(&proc).unwrap();
                let run = |i: &mut Interp| match in_proc {
                    true => i.eval("p"),
                    false => i.eval_script(&held),
                };
                assert_eq!(run(&mut i).unwrap(), "20", "{displace}: before");
                match displace {
                    "" => i.register("expr", |_, argv| Ok(format!("<{}>", argv[1]))),
                    _ => drop(i.eval(displace).unwrap()),
                }
                let got = run(&mut i).map_err(|e| e.message);
                assert_eq!(got.as_deref().map_err(String::as_str), want, "{displace}");
            }
        }
    }

    #[test]
    fn a_one_shot_text_defines_a_callable_proc() {
        let mut i = Interp::new();
        i.eval_once("set a 1; incr a 2\nproc p {x} { return $x }")
            .unwrap();
        assert_eq!(i.eval_once("set a").unwrap(), "3");
        assert_eq!(i.eval_once("p 7").unwrap(), "7");
        assert_eq!(i.eval_once("p 8").unwrap(), "8");
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
