//! Standard command set registration.

mod control;
mod io;
mod lists;
mod package;
mod strings;

use crate::error::{Exception, TclResult};
use crate::interp::Interp;

pub fn register_all(interp: &mut Interp) {
    control::register(interp);
    strings::register(interp);
    lists::register(interp);
    io::register(interp);
    package::register(interp);
}

/// Check exact argument count (argv includes the command name).
pub(crate) fn arity(argv: &[String], n: usize, usage: &str) -> Result<(), Exception> {
    if argv.len() != n {
        return Err(Exception::error(format!(
            "wrong # args: should be \"{usage}\""
        )));
    }
    Ok(())
}

/// Check an argument count range (inclusive); `max = usize::MAX` for open.
pub(crate) fn arity_range(
    argv: &[String],
    min: usize,
    max: usize,
    usage: &str,
) -> Result<(), Exception> {
    if argv.len() < min || argv.len() > max {
        return Err(Exception::error(format!(
            "wrong # args: should be \"{usage}\""
        )));
    }
    Ok(())
}

/// Parse an integer argument with a Tcl-style error.
pub(crate) fn int_arg(s: &str) -> Result<i64, Exception> {
    s.trim()
        .parse::<i64>()
        .map_err(|_| Exception::error(format!("expected integer but got \"{s}\"")))
}

/// Parse a Tcl index (`N`, `end`, `end-N`) against a length.
pub(crate) fn index_arg(s: &str, len: usize) -> Result<i64, Exception> {
    let s = s.trim();
    if s == "end" {
        return Ok(len as i64 - 1);
    }
    if let Some(rest) = s.strip_prefix("end-") {
        let off = int_arg(rest)?;
        return Ok(len as i64 - 1 - off);
    }
    if let Some(rest) = s.strip_prefix("end+") {
        let off = int_arg(rest)?;
        return Ok(len as i64 - 1 + off);
    }
    int_arg(s)
}

/// Tcl's limit on one value: 2³¹−1 bytes of text, or elements of a list.
pub(crate) const MAX_VALUE: usize = i32::MAX as usize;

/// A result's size in bytes (`None` when computing it overflowed), if
/// within [`MAX_VALUE`]; else Tcl's error, before anything is allocated.
pub(crate) fn value_bytes(n: Option<usize>) -> Result<usize, Exception> {
    n.filter(|&n| n <= MAX_VALUE).ok_or_else(|| {
        Exception::error(format!(
            "result exceeds max size for a Tcl value ({MAX_VALUE} bytes)"
        ))
    })
}

/// A list's length, as [`value_bytes`] checks a size.
pub(crate) fn list_elements(n: Option<usize>) -> Result<usize, Exception> {
    n.filter(|&n| n <= MAX_VALUE).ok_or_else(|| {
        Exception::error(format!(
            "max length of a Tcl list ({MAX_VALUE} elements) exceeded"
        ))
    })
}

/// The empty-string success result.
pub(crate) fn ok() -> TclResult {
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_up_to_the_value_limit_pass() {
        assert_eq!(value_bytes(Some(MAX_VALUE)).unwrap(), MAX_VALUE);
        assert_eq!(list_elements(Some(0)).unwrap(), 0);
        for n in [Some(MAX_VALUE + 1), None] {
            assert!(value_bytes(n).is_err());
            assert!(list_elements(n).is_err());
        }
    }
}
