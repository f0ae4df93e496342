//! Turbine's typed data model and its byte encodings.
//!
//! Swift/T variables are automatically converted to Tcl values, which "are
//! oriented toward string representations" (§III.A) — so every scalar
//! except blobs is encoded as its string form, and blobs are raw bytes
//! (§III.B). The ADLB data store ships these encodings opaquely.

use bytes::Bytes;

/// The Swift/Turbine data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurbineType {
    /// Pure synchronization datum, no payload.
    Void,
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    String,
    /// Binary large object (§III.B).
    Blob,
    /// Container (Swift array): subscript → member.
    Container,
}

impl TurbineType {
    /// The ADLB type tag for this type.
    pub fn tag(self) -> u8 {
        match self {
            TurbineType::Void => 0,
            TurbineType::Integer => 1,
            TurbineType::Float => 2,
            TurbineType::String => 3,
            TurbineType::Blob => 4,
            TurbineType::Container => adlb::TYPE_TAG_CONTAINER,
        }
    }

    /// Inverse of [`TurbineType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TurbineType::Void,
            1 => TurbineType::Integer,
            2 => TurbineType::Float,
            3 => TurbineType::String,
            4 => TurbineType::Blob,
            adlb::TYPE_TAG_CONTAINER => TurbineType::Container,
            _ => return None,
        })
    }

    /// The name used in Turbine code (`turbine::create <id> integer`).
    pub fn name(self) -> &'static str {
        match self {
            TurbineType::Void => "void",
            TurbineType::Integer => "integer",
            TurbineType::Float => "float",
            TurbineType::String => "string",
            TurbineType::Blob => "blob",
            TurbineType::Container => "container",
        }
    }

    /// Parse a Turbine code type name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "void" => TurbineType::Void,
            "integer" => TurbineType::Integer,
            "float" => TurbineType::Float,
            "string" => TurbineType::String,
            "blob" => TurbineType::Blob,
            "container" => TurbineType::Container,
            _ => return None,
        })
    }
}

/// Encode an integer for the store: its decimal digits, written
/// straight into the one allocation the value takes.
pub fn encode_integer(v: i64) -> Bytes {
    use std::io::Write;
    // `i64::MIN` is the longest, at 20 bytes.
    let mut digits = [0u8; 20];
    let mut rest = &mut digits[..];
    let _ = write!(rest, "{v}");
    let len = 20 - rest.len();
    Bytes::copy_from_slice(&digits[..len])
}

/// Encode a float for the store (Tcl form: always distinguishable from an
/// int).
pub fn encode_float(v: f64) -> Bytes {
    Bytes::from(tclish::format_double(v))
}

/// Encode a string for the store.
pub fn encode_string(v: &str) -> Bytes {
    Bytes::copy_from_slice(v.as_bytes())
}

/// Decode an integer payload.
pub fn decode_integer(b: &[u8]) -> Result<i64, String> {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.trim().parse::<i64>().ok())
        .ok_or_else(|| format!("datum is not an integer: {:?}", String::from_utf8_lossy(b)))
}

/// Decode a float payload.
pub fn decode_float(b: &[u8]) -> Result<f64, String> {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("datum is not a float: {:?}", String::from_utf8_lossy(b)))
}

/// Decode a string payload.
pub fn decode_string(b: &[u8]) -> Result<String, String> {
    String::from_utf8(b.to_vec()).map_err(|_| "datum is not valid UTF-8".to_string())
}

/// The interpreter state policy of §III.C: keep interpreter state across
/// leaf tasks, or rebuild per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpPolicy {
    /// Keep Python/R interpreter state between tasks (fast; state leaks
    /// are the programmer's to manage — "old interpreter state can also be
    /// used to store useful data if the programmer is careful").
    #[default]
    Retain,
    /// Tear down and reinitialize interpreters after every task (clean,
    /// slower).
    Reinitialize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for t in [
            TurbineType::Void,
            TurbineType::Integer,
            TurbineType::Float,
            TurbineType::String,
            TurbineType::Blob,
            TurbineType::Container,
        ] {
            assert_eq!(TurbineType::from_tag(t.tag()), Some(t));
            assert_eq!(TurbineType::from_name(t.name()), Some(t));
        }
        assert_eq!(TurbineType::from_tag(250), None);
        assert_eq!(TurbineType::from_name("goat"), None);
    }

    #[test]
    fn scalar_encodings() {
        assert_eq!(decode_integer(&encode_integer(-42)).unwrap(), -42);
        for v in [0, 7, -1, i64::MAX, i64::MIN] {
            assert_eq!(&encode_integer(v)[..], v.to_string().as_bytes());
        }
        assert_eq!(decode_float(&encode_float(2.5)).unwrap(), 2.5);
        assert_eq!(decode_float(&encode_float(2.0)).unwrap(), 2.0);
        assert_eq!(&encode_float(2.0)[..], b"2.0");
        assert_eq!(decode_string(&encode_string("héllo")).unwrap(), "héllo");
        assert!(decode_integer(b"xyz").is_err());
        assert!(decode_float(b"").is_err());
    }
}
