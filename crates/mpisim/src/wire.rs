//! The wire format: every layout declared once, both directions from it.
//!
//! ADLB and Turbine ship small, hand-laid-out binary messages (real ADLB
//! does the same with packed C structs). Every field stays explicit so the
//! protocol is inspectable, but each layout is written down once: a type
//! implements [`Wire`] — `put` and `get` side by side, or generated for an
//! enum by [`wire_enum!`](crate::wire_enum) from a declaration that lists
//! each variant's tag and fields in wire order — and a message is decoded
//! only through [`Wire::decode`] or [`WireReader::exact`], which both
//! require it to end where its layout ends.
//!
//! The conventions every layout shares:
//!
//! * integers are little-endian; a rank travels as a `u64`;
//! * byte strings, UTF-8 strings and sequences carry a `u32` length or
//!   count prefix; a decoder reserves room for at most 4096 items up
//!   front, however large a count claims to be;
//! * an `Option` and a `bool` are a `u8` flag, `0` or `1`; any other
//!   flag byte is an error;
//! * a byte field copies out of the arrival buffer unless its declaration
//!   says `as Aliased`, which makes it a zero-copy view into that buffer
//!   (a decoder started with [`WireReader::shared`]).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use bytes::Bytes;

/// Most items a decoder reserves room for before it has read them: a
/// hostile count costs at most this much memory up front.
const MAX_RESERVE: usize = 4096;

/// Bytes a writer leaves free behind a byte field it reserves for.
const TRAILER_ROOM: usize = 64;

/// Error produced when decoding a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the reader was trying to decode.
    pub context: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire decode error: {} at byte offset {}",
            self.context, self.offset
        )
    }
}

impl std::error::Error for WireError {}

/// A type with one wire layout, written once for both directions.
pub trait Wire: Sized {
    /// Append this value's layout.
    fn put(&self, w: &mut WireWriter);

    /// Read one value, leaving the reader just past it.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// The whole-message encoding of this value.
    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.put(&mut w);
        w.finish()
    }

    /// Decode a whole message from its arrival buffer, which must end
    /// where the layout ends. `as Aliased` fields are views into `buf`.
    fn decode(buf: &Bytes) -> Result<Self, WireError> {
        WireReader::shared(buf).exact(Self::get)
    }
}

/// A layout for `T` other than `T`'s own: a [`wire_enum!`](crate::wire_enum)
/// field declared `name: T as Codec` is written and read by `Codec`.
pub trait WireAs<T> {
    /// Append `v` in this layout.
    fn put_as(v: &T, w: &mut WireWriter);
    /// Read one `T` in this layout.
    fn get_as(r: &mut WireReader<'_>) -> Result<T, WireError>;
}

/// A byte field that is a zero-copy view into the arrival buffer instead
/// of a copy of it — for payloads the receiver hands on whole.
pub struct Aliased;

impl WireAs<Bytes> for Aliased {
    fn put_as(v: &Bytes, w: &mut WireWriter) {
        w.put_bytes(v);
    }

    fn get_as(r: &mut WireReader<'_>) -> Result<Bytes, WireError> {
        r.get_bytes_shared()
    }
}

/// An optional aliased byte field: the `Option` flag, then the view.
impl WireAs<Option<Bytes>> for Aliased {
    fn put_as(v: &Option<Bytes>, w: &mut WireWriter) {
        v.put(w);
    }

    fn get_as(r: &mut WireReader<'_>) -> Result<Option<Bytes>, WireError> {
        if r.get_flag("option flag")? {
            r.get_bytes_shared().map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Append-only message builder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte slice. A writer too small for it
    /// grows once, to fit it and a short trailer such as a seal's seq, so
    /// a large payload is not copied again by the growth behind it; a
    /// writer sized for its message is left as it is.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        if self.buf.capacity() - self.buf.len() < 4 + v.len() {
            self.buf.reserve(4 + v.len() + TRAILER_ROOM);
        }
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append any [`Wire`] value.
    pub fn put<T: Wire>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }

    /// Append a `u32` count and then each item: the layout of a `Vec<T>`,
    /// from any exactly-sized run of borrowed items.
    pub fn put_seq<'a, T, I>(&mut self, items: I) -> &mut Self
    where
        T: Wire + 'a,
        I: IntoIterator<Item = &'a T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_u32(items.len() as u32);
        for item in items {
            item.put(self);
        }
        self
    }

    /// Finish and take the assembled message.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish into a plain vector, for callers that append unframed
    /// bytes after the layout.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential message decoder over a byte slice.
///
/// When constructed with [`WireReader::shared`] the reader also holds a
/// handle on the arrival buffer, and [`WireReader::get_bytes_shared`]
/// returns zero-copy [`Bytes`] views into it instead of copies — the
/// payload fast path for large task bodies.
pub struct WireReader<'a> {
    buf: &'a [u8],
    /// The arrival buffer `buf` borrows from, when known; enables
    /// zero-copy slicing in [`WireReader::get_bytes_shared`].
    shared: Option<&'a Bytes>,
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            shared: None,
            pos: 0,
        }
    }

    /// Start decoding an arrival buffer; length-prefixed byte fields read
    /// via [`WireReader::get_bytes_shared`] alias `buf`'s allocation
    /// instead of copying out of it.
    pub fn shared(buf: &'a Bytes) -> Self {
        WireReader {
            buf,
            shared: Some(buf),
            pos: 0,
        }
    }

    /// Decode one whole value with `get`: the input must end exactly
    /// where the value does.
    pub fn exact<T>(
        mut self,
        get: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let v = get(&mut self)?;
        if self.pos != self.buf.len() {
            return Err(self.error("trailing bytes"));
        }
        Ok(v)
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next byte, without consuming it.
    pub fn peek_u8(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// An error about what sits at the current offset.
    pub fn error(&self, context: &'static str) -> WireError {
        WireError {
            context,
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(self.error(context))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N, context)?);
        Ok(a)
    }

    /// Decode a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Decode a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take_array("u32").map(u32::from_le_bytes)
    }

    /// Decode a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take_array("u64").map(u64::from_le_bytes)
    }

    /// Decode a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.take_array("i64").map(i64::from_le_bytes)
    }

    /// Decode a length-prefixed byte slice (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len, "bytes body")
    }

    /// Decode a length-prefixed byte field as owned [`Bytes`]. With a
    /// [`WireReader::shared`] reader this is zero-copy (a view of the
    /// arrival buffer); otherwise it copies.
    pub fn get_bytes_shared(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32()? as usize;
        let start = self.pos;
        let body = self.take(len, "bytes body")?;
        Ok(match self.shared {
            Some(owner) => owner.slice(start..start + len),
            None => Bytes::copy_from_slice(body),
        })
    }

    /// Decode a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let at = self.pos;
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError {
            context: "utf8 string",
            offset: at,
        })
    }

    /// Decode a `u32` count and then that many items with `get`: the
    /// layout of a `Vec<T>`, with room for at most 4096 items reserved
    /// before they are read.
    pub fn get_seq<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.get_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(MAX_RESERVE));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// A `u8` flag that must be `0` or `1`.
    fn get_flag(&mut self, context: &'static str) -> Result<bool, WireError> {
        let at = self.pos;
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                context,
                offset: at,
            }),
        }
    }
}

macro_rules! wire_int {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut WireWriter) {
                w.$put(*self);
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

wire_int! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    i64: put_i64, get_i64;
}

/// A rank (or any index) travels as a `u64`.
impl Wire for usize {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self as u64);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        usize::try_from(r.get_u64()?).map_err(|_| WireError {
            context: "usize",
            offset: at,
        })
    }
}

impl Wire for bool {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_flag("bool flag")
    }
}

impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        w.put_str(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str().map(str::to_string)
    }
}

/// A byte field copies out of the arrival buffer (see [`Aliased`]).
impl Wire for Bytes {
    fn put(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_bytes().map(Bytes::copy_from_slice)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        w.put_seq(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_seq(T::get)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        match self {
            None => {
                w.put_u8(0);
            }
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.get_flag("option flag")? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A map travels as a `u32` count of `(key, value)` pairs, in iteration
/// order: its bytes are deterministic only for at most one entry.
impl<K: Wire + Eq + Hash, V: Wire> Wire for HashMap<K, V> {
    fn put(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pairs = r.get_seq(<(K, V)>::get)?;
        Ok(pairs.into_iter().collect())
    }
}

/// A set travels as a `u32` count of members, in iteration order.
impl<T: Wire + Eq + Hash> Wire for HashSet<T> {
    fn put(&self, w: &mut WireWriter) {
        w.put_seq(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.get_seq(T::get)?.into_iter().collect())
    }
}

/// Declare an enum together with its wire tags, and implement [`Wire`]
/// for it from that one declaration.
///
/// Each variant is `tag => Variant`, optionally with one tuple field or
/// named fields, written in wire order. A variant is its `u8` tag and
/// then its fields, each in its type's own layout or, for a field
/// declared `name: T as Codec`, in `Codec`'s (see [`WireAs`]). Decoding
/// an unknown tag is an error at the tag's offset, naming the enum by the
/// string after its name.
///
/// ```
/// use mpisim::{Wire, wire_enum};
///
/// wire_enum! {
///     /// A shape.
///     #[derive(Debug, PartialEq)]
///     pub enum Shape: "shape" {
///         0 => Dot,
///         1 => Circle(u32),
///         /// A label at an optional place.
///         2 => Label { text: String, at: Option<u64> },
///     }
/// }
///
/// let label = Shape::Label { text: "hi".into(), at: None };
/// assert_eq!(&label.encode()[..], b"\x02\x02\x00\x00\x00hi\x00");
/// assert_eq!(Shape::decode(&label.encode()), Ok(label));
/// let err = Shape::decode(&bytes::Bytes::from_static(b"\x07")).unwrap_err();
/// assert_eq!((err.context, err.offset), ("unknown shape kind", 0));
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $what:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $var:ident
                $( ( $tty:ty $(as $tcodec:ty)? ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty $(as $fcodec:ty)? ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $var $( ($tty) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?,
            )*
        }

        impl $crate::Wire for $name {
            fn put(&self, w: &mut $crate::WireWriter) {
                match self {
                    $(
                        $crate::__wire!(pat $name $var v $( ($tty) )? $( { $($field)* } )?) => {
                            w.put_u8($tag);
                            $crate::__wire!(put w v $( ($tty $(as $tcodec)?) )?
                                $( { $( $field: $fty $(as $fcodec)? ),* } )?);
                        }
                    )*
                }
            }

            fn get(
                r: &mut $crate::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::WireError> {
                let at = r.offset();
                ::std::result::Result::Ok(match r.get_u8()? {
                    $(
                        $tag => $crate::__wire!(get r $name $var $( ($tty $(as $tcodec)?) )?
                            $( { $( $field: $fty $(as $fcodec)? ),* } )?),
                    )*
                    _ => {
                        return ::std::result::Result::Err($crate::WireError {
                            context: concat!("unknown ", $what, " kind"),
                            offset: at,
                        })
                    }
                })
            }
        }
    };
}

/// The per-variant and per-field pieces of [`wire_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __wire {
    (pat $name:ident $var:ident $v:ident) => { $name::$var };
    (pat $name:ident $var:ident $v:ident ($t:ty)) => { $name::$var($v) };
    (pat $name:ident $var:ident $v:ident { $($f:ident)* }) => { $name::$var { $($f),* } };

    (put $w:ident $v:ident) => {};
    (put $w:ident $v:ident ($($t:tt)*)) => { $crate::__wire!(field put $w $v, $($t)*) };
    (put $w:ident $v:ident { $($f:ident: $t:ty $(as $c:ty)?),* }) => {
        $( $crate::__wire!(field put $w $f, $t $(as $c)?); )*
    };

    (get $r:ident $name:ident $var:ident) => { $name::$var };
    (get $r:ident $name:ident $var:ident ($($t:tt)*)) => {
        $name::$var($crate::__wire!(field get $r, $($t)*))
    };
    (get $r:ident $name:ident $var:ident { $($f:ident: $t:ty $(as $c:ty)?),* }) => {
        $name::$var { $( $f: $crate::__wire!(field get $r, $t $(as $c)?) ),* }
    };

    (field put $w:ident $v:ident, $t:ty) => { <$t as $crate::Wire>::put($v, $w) };
    (field put $w:ident $v:ident, $t:ty as $c:ty) => { <$c as $crate::WireAs<$t>>::put_as($v, $w) };
    (field get $r:ident, $t:ty) => { <$t as $crate::Wire>::get($r)? };
    (field get $r:ident, $t:ty as $c:ty) => { <$c as $crate::WireAs<$t>>::get_as($r)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_byte_field_grows_its_writer_at_most_once() {
        // Sized for its message: never grown.
        let mut w = WireWriter::with_capacity(4 + 100 + 8);
        w.put_bytes(&[1; 100]).put_u64(9);
        assert_eq!(w.into_vec().capacity(), 112);
        // Too small: grown once, with room for the seq behind it.
        let mut w = WireWriter::new();
        w.put_u8(2).put_bytes(&[1; 100_000]);
        let cap = w.buf.capacity();
        w.put_u64(9);
        assert_eq!(w.buf.capacity(), cap);
    }

    #[test]
    fn round_trip_all_types() {
        let mut w = WireWriter::new();
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX - 1)
            .put_i64(-42)
            .put_str("héllo")
            .put_bytes(&[1, 2, 3]);
        let msg = w.finish();

        let mut r = WireReader::new(&msg);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_with_offset() {
        let mut w = WireWriter::new();
        w.put_u64(5);
        let msg = w.finish();
        let mut r = WireReader::new(&msg[..4]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.context, "u64");
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn shared_reader_aliases_arrival_buffer() {
        let mut w = WireWriter::new();
        w.put_u32(7).put_bytes(b"payload").put_u8(9);
        let msg = w.finish();
        let mut r = WireReader::shared(&msg);
        assert_eq!(r.get_u32().unwrap(), 7);
        let body = r.get_bytes_shared().unwrap();
        assert_eq!(&body[..], b"payload");
        // Zero-copy: the view points into the message allocation.
        assert_eq!(body.as_ptr() as usize, msg.as_ptr() as usize + 8);
        assert_eq!(r.get_u8().unwrap(), 9);

        // Unshared readers still produce (copied) owned bytes.
        let mut r2 = WireReader::new(&msg);
        r2.get_u32().unwrap();
        let copied = r2.get_bytes_shared().unwrap();
        assert_eq!(&copied[..], b"payload");
        assert_ne!(copied.as_ptr() as usize, msg.as_ptr() as usize + 8);
    }

    #[test]
    fn exact_decodes_refuse_trailing_bytes() {
        let msg = Bytes::from_static(&[1, 2]);
        let err = u8::decode(&msg).unwrap_err();
        assert_eq!((err.context, err.offset), ("trailing bytes", 1));
        assert_eq!(<(u8, u8)>::decode(&msg), Ok((1, 2)));
    }

    #[test]
    fn flags_are_zero_or_one() {
        for (byte, want) in [(0u8, Some(false)), (1, Some(true)), (2, None), (0xFF, None)] {
            assert_eq!(bool::decode(&Bytes::from(vec![byte])).ok(), want);
            let msg = Bytes::from(if byte == 1 { vec![1, 5] } else { vec![byte] });
            let opt = Option::<u8>::decode(&msg);
            assert_eq!(opt.ok().map(|o| o.is_some()), want, "flag {byte}");
        }
        let err = Option::<u8>::decode(&Bytes::from_static(&[9, 9, 2])).unwrap_err();
        assert_eq!((err.context, err.offset), ("option flag", 0));
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(String, Option<Bytes>)> = vec![
            ("a".into(), Some(Bytes::from_static(b"x"))),
            ("b".into(), None),
        ];
        assert_eq!(Vec::decode(&v.encode()), Ok(v));
        let m: HashMap<usize, Vec<u32>> = HashMap::from([(3, vec![1, 2])]);
        assert_eq!(HashMap::decode(&m.encode()), Ok(m));
        let s: HashSet<u64> = HashSet::from([9]);
        assert_eq!(HashSet::decode(&s.encode()), Ok(s));
    }

    /// The largest single allocation this thread has asked for, so a test
    /// can bound what a decoder reserved.
    mod largest_alloc {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        struct Probe;

        // SAFETY: every call is forwarded unchanged to the system
        // allocator; recording a size allocates nothing.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                LARGEST.with(|l| l.set(l.get().max(layout.size())));
                // SAFETY: the caller's guarantees for `layout` are
                // `System.alloc`'s.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `alloc` above, i.e. from
                // `System`, with this `layout`.
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;

        /// Run `f` and return the largest allocation it made.
        pub fn during(f: impl FnOnce()) -> usize {
            LARGEST.with(|l| l.set(0));
            f();
            LARGEST.with(|l| l.get())
        }
    }

    #[test]
    fn a_huge_count_reserves_no_more_than_the_cap() {
        let mut lying = u32::MAX.to_le_bytes().to_vec();
        lying.extend_from_slice(&[0; 64]);
        let lying = Bytes::from(lying);
        let cap = MAX_RESERVE * std::mem::size_of::<(u64, String)>();
        let largest = largest_alloc::during(|| {
            assert!(Vec::<u64>::decode(&lying).is_err());
            assert!(Vec::<(u64, String)>::decode(&lying).is_err());
            assert!(HashMap::<u64, String>::decode(&lying).is_err());
            assert!(HashSet::<u64>::decode(&lying).is_err());
        });
        assert!(largest <= cap, "reserved {largest} bytes, cap {cap}");
        assert!(largest > 0, "the probe sees allocations");
    }
}
