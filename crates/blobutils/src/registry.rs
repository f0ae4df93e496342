//! Pointer-style blob handles.
//!
//! SWIG represents C pointers as opaque Tcl strings; Swift/T's blobutils
//! converts between those pointers and the runtime's blob type. Here the
//! analogue is a per-rank registry mapping handle strings (`blob#<id>`) to
//! [`Blob`]s, so Tcl code and "native" functions can exchange large
//! buffers by name without the bytes ever being copied through script
//! values.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::blob::{Blob, BlobError};

/// An opaque handle to a registered blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlobHandle(pub u64);

impl BlobHandle {
    /// Render as the Tcl-visible handle string.
    pub fn to_token(self) -> String {
        format!("blob#{}", self.0)
    }

    /// Parse a handle string.
    pub fn parse(token: &str) -> Result<Self, BlobError> {
        token
            .strip_prefix("blob#")
            .and_then(|id| id.parse::<u64>().ok())
            .map(BlobHandle)
            .ok_or_else(|| BlobError::new(format!("\"{token}\" is not a blob handle")))
    }
}

impl std::fmt::Display for BlobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

/// Owner of all live blobs on one rank.
#[derive(Default)]
pub struct BlobRegistry {
    blobs: HashMap<u64, Blob>,
    next: u64,
}

/// The registry as shared between an interpreter's commands (single-rank,
/// single-threaded, hence `Rc<RefCell<..>>`).
pub type SharedRegistry = Rc<RefCell<BlobRegistry>>;

impl BlobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a blob, returning its handle.
    pub fn insert(&mut self, blob: Blob) -> BlobHandle {
        let id = self.next;
        self.next += 1;
        self.blobs.insert(id, blob);
        BlobHandle(id)
    }

    /// Borrow a blob.
    pub fn get(&self, h: BlobHandle) -> Result<&Blob, BlobError> {
        self.blobs
            .get(&h.0)
            .ok_or_else(|| BlobError::new(format!("{h}: no such blob (already released?)")))
    }

    /// Mutably borrow a blob.
    pub fn get_mut(&mut self, h: BlobHandle) -> Result<&mut Blob, BlobError> {
        self.blobs
            .get_mut(&h.0)
            .ok_or_else(|| BlobError::new(format!("{h}: no such blob (already released?)")))
    }

    /// Remove and return a blob (freeing the "pointer").
    pub fn release(&mut self, h: BlobHandle) -> Result<Blob, BlobError> {
        self.blobs
            .remove(&h.0)
            .ok_or_else(|| BlobError::new(format!("{h}: no such blob (double release?)")))
    }

    /// Number of live blobs (leak detection in tests and task teardown).
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when no blobs are live.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total bytes held.
    pub fn bytes_held(&self) -> usize {
        self.blobs.values().map(Blob::len).sum()
    }

    /// Drop all blobs. A worker does this after every task, whatever its
    /// outcome and whichever §III.C interpreter policy is set: a handle
    /// lives only as long as the task that made it.
    pub fn clear(&mut self) {
        self.blobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_release() {
        let mut r = BlobRegistry::new();
        let h = r.insert(Blob::from_f64s(&[1.0, 2.0]));
        assert_eq!(r.get(h).unwrap().f64_len().unwrap(), 2);
        let b = r.release(h).unwrap();
        assert_eq!(b.to_f64s().unwrap(), vec![1.0, 2.0]);
        assert!(r.get(h).is_err());
        assert!(r.release(h).is_err());
    }

    #[test]
    fn handles_are_unique() {
        let mut r = BlobRegistry::new();
        let h1 = r.insert(Blob::new());
        let h2 = r.insert(Blob::new());
        assert_ne!(h1, h2);
    }

    #[test]
    fn token_round_trip() {
        let h = BlobHandle(42);
        assert_eq!(BlobHandle::parse(&h.to_token()).unwrap(), h);
        assert!(BlobHandle::parse("nonsense").is_err());
        assert!(BlobHandle::parse("blob#xyz").is_err());
    }

    #[test]
    fn accounting() {
        let mut r = BlobRegistry::new();
        r.insert(Blob::from_bytes(vec![0; 100]));
        r.insert(Blob::from_bytes(vec![0; 28]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.bytes_held(), 128);
        r.clear();
        assert!(r.is_empty());
    }
}
