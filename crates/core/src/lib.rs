//! # swiftt-core — the public API
//!
//! This crate is the front door of the reproduction of Wozniak et al.,
//! *"Toward Interlanguage Parallel Scripting for Distributed-Memory
//! Scientific Computing"* (CLUSTER 2015): compile a Swift dataflow script
//! with [`stc`], run it on a simulated distributed-memory machine with
//! [`turbine`]/[`adlb`]/[`mpisim`], and collect the output.
//!
//! ```
//! use swiftt_core::Runtime;
//!
//! let result = Runtime::new(4).run(r#"
//!     int x = 6;
//!     int y = x * 7;
//!     printf("the answer is %d", y);
//! "#).unwrap();
//! assert_eq!(result.stdout, "the answer is 42\n");
//! ```
//!
//! ## Interlanguage calls
//!
//! Every path from the paper is available from Swift source:
//!
//! * **Tcl fragments** (§III.A): leaf functions with `<<var>>` templates;
//! * **native code** (§III.B): register a [`NativeLibrary`] of Rust
//!   functions — the analogue of a SWIG-wrapped C/C++/Fortran library —
//!   and call them from leaf templates, including with [`blobutils`]
//!   blobs;
//! * **Python and R** (§III.C): the `python(code, expr)` and
//!   `r(code, expr)` builtins evaluate in embedded interpreters on
//!   workers, with a configurable retain/reinitialize state policy;
//! * **the shell**: `sh(cmd)` runs a command line and captures stdout.

mod native;
mod result;
mod runtime;

pub use native::{NativeArg, NativeFunction, NativeLibrary};
pub use result::{LatencyReport, RunResult, SwiftTError, TenantReport};
pub use runtime::Runtime;

// Re-export the pieces users commonly need alongside the runtime.
pub use adlb::{TenantQuota, TenantSpec, TenantStats};
pub use mpisim::{FaultPlan, LatencyStats, Point, RankTrace};
pub use stc::{compile, CompiledProgram};
pub use turbine::{InterpPolicy, RankOutput, Role, TurbineProgram};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_dataflow() {
        let r = Runtime::new(3)
            .run("printf(\"hello from swift\");")
            .unwrap();
        assert_eq!(r.stdout, "hello from swift\n");
    }

    #[test]
    fn compile_errors_are_reported() {
        let err = Runtime::new(3).run("int x = y;").unwrap_err();
        match err {
            SwiftTError::Compile(e) => assert!(e.message.contains("undefined")),
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_errors_are_reported() {
        let err = Runtime::new(3)
            .run("assert(1 == 2, \"math is broken\");")
            .unwrap_err();
        match err {
            SwiftTError::Runtime(msg) => assert!(msg.contains("math is broken"), "{msg}"),
            other => panic!("expected runtime error, got {other:?}"),
        }
    }
}
