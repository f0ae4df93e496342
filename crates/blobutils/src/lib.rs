//! # blobutils — bulk binary data for interlanguage dataflow
//!
//! Scientific users of native-code languages "desire to operate on bulk
//! data in arrays"; Swift/T handles pointers to byte arrays as a novel
//! type: **blob** (binary large object), treated like a string by the
//! runtime but with appropriate handling for binary data (Wozniak et al.,
//! CLUSTER 2015, §III.B). SWIG will not convert `void*` to `double*` by
//! itself — the paper's `blobutils` library bridges those "simple but
//! myriad interlanguage complexities". This crate is that library:
//!
//! * [`Blob`] — a shared, copy-on-write byte buffer with checked typed views
//!   (`f64`/`i64`/`i32` slices, UTF-8 strings),
//! * [`FortranArray`] — a column-major multidimensional `f64` array that
//!   round-trips through a self-describing blob encoding (the paper's
//!   "even multidimensional Fortran arrays"),
//! * [`BlobRegistry`] + handle strings — the SWIG-pointer-style indirection
//!   that lets a string-valued Tcl interpreter pass raw buffers between
//!   native functions without copying them through script values,
//! * [`register_blob_commands`] — the `blobutils_*` Tcl command set.

mod array;
mod blob;
mod registry;
mod tcl;

pub use array::FortranArray;
pub use blob::{Blob, BlobError};
pub use registry::{BlobHandle, BlobRegistry, SharedRegistry};
pub use tcl::register_blob_commands;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn end_to_end_tcl_blob_flow() {
        let mut interp = tclish::Interp::new();
        let reg: SharedRegistry = Rc::new(RefCell::new(BlobRegistry::new()));
        register_blob_commands(&mut interp, reg.clone());

        let script = r#"
            set b [blobutils_create_floats {1.0 2.0 3.0}]
            blobutils_set_float $b 1 20.0
            set s [blobutils_sum_floats $b]
            blobutils_release $b
            set s
        "#;
        assert_eq!(interp.eval(script).unwrap(), "24.0");
        assert_eq!(reg.borrow().len(), 0, "handle released");
    }
}
