//! Native-code libraries: the SWIG path of §III.B.
//!
//! In the paper, a C/C++/Fortran library is compiled as a loadable object,
//! SWIG generates Tcl bindings for its functions, and those bindings are
//! packaged so Swift leaf functions can call them (Fig. 3). Here the
//! "native code" is Rust: a [`NativeLibrary`] holds plain Rust functions,
//! and registering it creates the same runtime-visible artifact SWIG
//! would — a Tcl package whose commands call into native code, converting
//! simple types automatically and passing bulk data as blob handles.

use std::sync::Arc;

use blobutils::{Blob, BlobHandle};
use tclish::{Exception, Interp, PackageInit};

/// A value crossing the script↔native boundary. Mirrors the paper's rule
/// that "simple types (numbers, strings) must be used", plus blobs for
/// bulk binary data.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeArg {
    Int(i64),
    Float(f64),
    Str(String),
    Blob(Blob),
}

impl NativeArg {
    /// Numeric view (ints widen to f64).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            NativeArg::Int(i) => Ok(*i as f64),
            NativeArg::Float(f) => Ok(*f),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            NativeArg::Int(i) => Ok(*i),
            other => Err(format!("expected an integer, got {other:?}")),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            NativeArg::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// Blob view.
    pub fn as_blob(&self) -> Result<&Blob, String> {
        match self {
            NativeArg::Blob(b) => Ok(b),
            other => Err(format!("expected a blob, got {other:?}")),
        }
    }
}

type NativeFnImpl = Arc<dyn Fn(&[NativeArg]) -> Result<NativeArg, String> + Send + Sync>;

/// One exported native function.
#[derive(Clone)]
pub struct NativeFunction {
    /// Command name within the package (callable as `pkg::name`).
    pub name: String,
    func: NativeFnImpl,
}

/// A named, versioned collection of native functions — the analogue of
/// one SWIG-wrapped shared library packaged for Tcl.
#[derive(Clone)]
pub struct NativeLibrary {
    /// Package name (`package require <name>` in leaf templates).
    pub name: String,
    /// Package version.
    pub version: String,
    functions: Vec<NativeFunction>,
}

impl NativeLibrary {
    /// Start a library.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        NativeLibrary {
            name: name.into(),
            version: version.into(),
            functions: Vec::new(),
        }
    }

    /// Export a function (builder style).
    pub fn function<F>(mut self, name: impl Into<String>, f: F) -> Self
    where
        F: Fn(&[NativeArg]) -> Result<NativeArg, String> + Send + Sync + 'static,
    {
        self.functions.push(NativeFunction {
            name: name.into(),
            func: Arc::new(f),
        });
        self
    }

    /// Number of exported functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the library exports nothing.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Install this library into an interpreter as an in-memory package
    /// (the "static package" answer to the many-small-files problem, §IV).
    pub fn install(&self, interp: &mut Interp) {
        let lib = self.clone();
        interp.add_package(
            &self.name,
            &self.version,
            PackageInit::Native(std::rc::Rc::new(move |interp: &mut Interp| {
                for f in &lib.functions {
                    let func = f.func.clone();
                    let cmd_name = format!("{}::{}", lib.name, f.name);
                    interp.register(&cmd_name, move |interp, argv| {
                        call_native(interp, &func, &argv[1..], &argv[0])
                    });
                }
            })),
        );
    }
}

/// Bridge one invocation: parse Tcl words into [`NativeArg`]s (resolving
/// blob handles through the rank's registry), call the Rust function, and
/// convert the result back.
fn call_native(
    interp: &mut Interp,
    func: &NativeFnImpl,
    argv: &[String],
    cmd: &str,
) -> tclish::TclResult {
    let ctx: Option<turbine::SharedCtx> = interp.context_get();
    let mut args = Vec::with_capacity(argv.len());
    for a in argv {
        args.push(parse_arg(a, &ctx)?);
    }
    let result = func(&args).map_err(|e| Exception::error(format!("{cmd}: {e}")))?;
    match result {
        NativeArg::Int(i) => Ok(i.to_string()),
        NativeArg::Float(f) => Ok(tclish::format_double(f)),
        NativeArg::Str(s) => Ok(s),
        NativeArg::Blob(b) => {
            let ctx = ctx.ok_or_else(|| {
                Exception::error(format!("{cmd}: no blob registry in this interpreter"))
            })?;
            let c = ctx.borrow();
            let h = c.blobs.borrow_mut().insert(b);
            Ok(h.to_token())
        }
    }
}

fn parse_arg(word: &str, ctx: &Option<turbine::SharedCtx>) -> Result<NativeArg, Exception> {
    if let Ok(h) = BlobHandle::parse(word) {
        let ctx = ctx
            .as_ref()
            .ok_or_else(|| Exception::error("blob argument without a registry"))?;
        let c = ctx.borrow();
        let blobs = c.blobs.borrow();
        // A refcount bump: the native function reads the registry's buffer.
        let b = blobs
            .get(h)
            .map_err(|e| Exception::error(e.to_string()))?
            .clone();
        return Ok(NativeArg::Blob(b));
    }
    if let Ok(i) = word.parse::<i64>() {
        return Ok(NativeArg::Int(i));
    }
    if let Ok(f) = word.parse::<f64>() {
        return Ok(NativeArg::Float(f));
    }
    Ok(NativeArg::Str(word.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_functions() {
        let lib = NativeLibrary::new("m", "1.0")
            .function("one", |_| Ok(NativeArg::Int(1)))
            .function("two", |_| Ok(NativeArg::Int(2)));
        assert_eq!(lib.len(), 2);
        assert!(!lib.is_empty());
    }

    #[test]
    fn install_and_call_scalar() {
        let mut interp = Interp::new();
        NativeLibrary::new("m", "1.0")
            .function("add", |args| {
                Ok(NativeArg::Float(args[0].as_f64()? + args[1].as_f64()?))
            })
            .install(&mut interp);
        interp.eval("package require m").unwrap();
        assert_eq!(interp.eval("m::add 1.5 2").unwrap(), "3.5");
    }

    #[test]
    fn string_arguments_pass_through() {
        let mut interp = Interp::new();
        NativeLibrary::new("m", "1.0")
            .function("shout", |args| {
                Ok(NativeArg::Str(args[0].as_str()?.to_uppercase()))
            })
            .install(&mut interp);
        interp.eval("package require m").unwrap();
        assert_eq!(interp.eval("m::shout hello").unwrap(), "HELLO");
    }

    #[test]
    fn errors_become_tcl_errors() {
        let mut interp = Interp::new();
        NativeLibrary::new("m", "1.0")
            .function("fail", |_| Err("native boom".into()))
            .install(&mut interp);
        interp.eval("package require m").unwrap();
        let err = interp.eval("m::fail").unwrap_err();
        assert!(err.message.contains("native boom"));
    }

    #[test]
    fn package_not_loaded_until_required() {
        let mut interp = Interp::new();
        NativeLibrary::new("m", "1.0")
            .function("f", |_| Ok(NativeArg::Int(0)))
            .install(&mut interp);
        assert!(interp.eval("m::f").is_err());
        interp.eval("package require m").unwrap();
        assert!(interp.eval("m::f").is_ok());
    }
}
