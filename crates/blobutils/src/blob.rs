//! The blob value type and its checked typed views.

use bytes::Bytes;

/// Error produced by a typed view whose shape does not fit the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobError {
    /// What went wrong, in user terms.
    pub message: String,
}

impl BlobError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        BlobError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob error: {}", self.message)
    }
}

impl std::error::Error for BlobError {}

/// A chunk of binary data, shared rather than copied.
///
/// The runtime ships blobs opaquely (like strings, "but with appropriate
/// handling for binary data"); producers and consumers agree on the layout
/// and use the typed constructors/views here. The bytes are one shared
/// [`Bytes`] buffer: cloning a blob, storing it and retrieving it pass
/// that buffer on without copying it, so a write ([`Blob::set_f64`])
/// copies first and never changes what another holder sees. All views
/// are copy-based and fully checked: no alignment traps, no `unsafe`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Blob {
    data: Bytes,
}

/// A blob of `values`, each laid out as the `N` bytes `le` gives.
fn encode<T, const N: usize>(values: &[T], le: impl Fn(&T) -> [u8; N]) -> Blob {
    let mut data = Vec::with_capacity(values.len() * N);
    for v in values {
        data.extend_from_slice(&le(v));
    }
    Blob::from_bytes(data)
}

/// The whole `N`-byte elements of `data`, in order.
fn elements<const N: usize>(data: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    data.as_chunks::<N>().0.iter().copied()
}

impl Blob {
    /// An empty blob.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap raw bytes.
    pub fn from_bytes(data: impl Into<Bytes>) -> Self {
        Blob { data: data.into() }
    }

    /// Encode a slice of doubles (little-endian), the most common
    /// scientific payload.
    pub fn from_f64s(values: &[f64]) -> Self {
        encode(values, |v| v.to_le_bytes())
    }

    /// Encode a slice of 64-bit integers.
    pub fn from_i64s(values: &[i64]) -> Self {
        encode(values, |v| v.to_le_bytes())
    }

    /// Encode a slice of 32-bit integers.
    pub fn from_i32s(values: &[i32]) -> Self {
        encode(values, |v| v.to_le_bytes())
    }

    /// Encode a UTF-8 string (no NUL terminator; lengths are explicit in
    /// this runtime, unlike C).
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(s: &str) -> Self {
        Blob::from_bytes(Bytes::copy_from_slice(s.as_bytes()))
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the blob holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The shared buffer itself, for the wire: no copy is made.
    pub fn into_shared(self) -> Bytes {
        self.data
    }

    fn check_multiple(&self, width: usize, ty: &str) -> Result<usize, BlobError> {
        if !self.data.len().is_multiple_of(width) {
            return Err(BlobError::new(format!(
                "blob of {} bytes is not a whole number of {ty} ({width}-byte) elements",
                self.data.len()
            )));
        }
        Ok(self.data.len() / width)
    }

    /// Decode as little-endian doubles.
    pub fn to_f64s(&self) -> Result<Vec<f64>, BlobError> {
        self.check_multiple(8, "f64")?;
        Ok(elements(&self.data).map(f64::from_le_bytes).collect())
    }

    /// Decode as little-endian 64-bit integers.
    pub fn to_i64s(&self) -> Result<Vec<i64>, BlobError> {
        self.check_multiple(8, "i64")?;
        Ok(elements(&self.data).map(i64::from_le_bytes).collect())
    }

    /// Decode as little-endian 32-bit integers.
    pub fn to_i32s(&self) -> Result<Vec<i32>, BlobError> {
        self.check_multiple(4, "i32")?;
        Ok(elements(&self.data).map(i32::from_le_bytes).collect())
    }

    /// Decode as UTF-8 text.
    pub fn to_utf8(&self) -> Result<String, BlobError> {
        String::from_utf8(self.data.to_vec()).map_err(|_| BlobError::new("blob is not valid UTF-8"))
    }

    /// The byte offset and the bytes of f64 element `i`.
    fn f64_slot(&self, i: usize) -> Result<(usize, [u8; 8]), BlobError> {
        let slot = i.checked_mul(8).and_then(|off| {
            let bytes = self.data.get(off..off.checked_add(8)?)?;
            Some((off, bytes.try_into().ok()?))
        });
        slot.ok_or_else(|| BlobError::new(format!("f64 index {i} out of range")))
    }

    /// Read one double at element index `i`.
    pub fn get_f64(&self, i: usize) -> Result<f64, BlobError> {
        self.f64_slot(i).map(|(_, b)| f64::from_le_bytes(b))
    }

    /// Write one double at element index `i`. The buffer may be shared —
    /// with a store still in its outbox, or with another handle retrieved
    /// from the same datum — so the write goes to a copy of it.
    pub fn set_f64(&mut self, i: usize, v: f64) -> Result<(), BlobError> {
        let (off, _) = self.f64_slot(i)?;
        let mut data = self.data.to_vec();
        data[off..off + 8].copy_from_slice(&v.to_le_bytes());
        self.data = Bytes::from(data);
        Ok(())
    }

    /// Number of f64 elements (errors if the size is not a multiple of 8).
    pub fn f64_len(&self) -> Result<usize, BlobError> {
        self.check_multiple(8, "f64")
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Self {
        Blob::from_bytes(v)
    }
}

impl From<Blob> for Bytes {
    fn from(b: Blob) -> Bytes {
        b.into_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f64_round_trip() {
        let vals = [0.0, -1.5, std::f64::consts::PI, f64::MAX];
        let b = Blob::from_f64s(&vals);
        assert_eq!(b.len(), 32);
        assert_eq!(b.to_f64s().unwrap(), vals);
    }

    #[test]
    fn i32_round_trip() {
        let vals = [i32::MIN, -1, 0, 1, i32::MAX];
        assert_eq!(Blob::from_i32s(&vals).to_i32s().unwrap(), vals);
    }

    #[test]
    fn misaligned_view_errors() {
        let b = Blob::from_bytes(vec![1, 2, 3]);
        assert!(b.to_f64s().is_err());
        assert!(b.to_i32s().is_err());
    }

    #[test]
    fn get_set_f64() {
        let mut b = Blob::from_f64s(&[1.0, 2.0]);
        b.set_f64(1, 9.5).unwrap();
        assert_eq!(b.get_f64(1).unwrap(), 9.5);
        assert!(b.get_f64(2).is_err());
        assert!(b.set_f64(2, 0.0).is_err());
    }

    #[test]
    fn clones_share_one_buffer_and_a_write_copies_it() {
        let a = Blob::from_f64s(&[1.0, 2.0]);
        let mut b = a.clone();
        assert_eq!(b.clone().into_shared().as_ptr(), a.as_bytes().as_ptr());
        b.set_f64(0, 7.0).unwrap();
        assert_eq!(a.to_f64s().unwrap(), [1.0, 2.0]);
        assert_eq!(b.to_f64s().unwrap(), [7.0, 2.0]);
    }

    #[test]
    fn string_round_trip() {
        let b = Blob::from_str("héllo");
        assert_eq!(b.to_utf8().unwrap(), "héllo");
        assert!(Blob::from_bytes(vec![0xFF, 0xFE]).to_utf8().is_err());
    }

    proptest! {
        #[test]
        fn f64_vec_round_trips(vals in proptest::collection::vec(-1e12f64..1e12, 0..64)) {
            let b = Blob::from_f64s(&vals);
            prop_assert_eq!(b.to_f64s().unwrap(), vals);
        }

        #[test]
        fn i64_vec_round_trips(vals in proptest::collection::vec(any::<i64>(), 0..64)) {
            let b = Blob::from_i64s(&vals);
            prop_assert_eq!(b.to_i64s().unwrap(), vals);
        }
    }
}
