//! The server-resident typed data store.
//!
//! Turbine's futures live here: a datum is created open, written exactly
//! once (single assignment — the property that makes Swift's implicit
//! concurrency safe), and closed; closing releases every subscriber.
//! Containers (Swift arrays) accumulate members and close when their
//! writer slot count drops to zero ([`DataStore::incr_writers`]), once
//! every scope that may still insert has given its slot back.
//!
//! A datum STC counted also carries its leaf reads still to come: each
//! [`DataStore::release`] takes some, and a closed datum with none left is
//! freed. An uncounted datum lives until the run ends.

use std::collections::HashMap;

use bytes::Bytes;
use mpisim::{wire_enum, Rank, Wire, WireError, WireReader, WireWriter};

/// Data-store error (double assignment, missing datum, type mismatch...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataError {
    /// What went wrong.
    pub message: String,
}

impl DataError {
    fn new(msg: impl Into<String>) -> Self {
        DataError {
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "data: {}", self.message)
    }
}

impl std::error::Error for DataError {}

wire_enum! {
    /// A datum's value: a scalar future or a container.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DatumValue: "datum value" {
        /// Not yet stored.
        0 => Unset,
        /// Scalar payload (int/float/string/blob — encoding is Turbine's
        /// concern; ADLB ships bytes).
        1 => Scalar(Bytes),
        /// Container members by subscript.
        2 => Container(HashMap<String, Bytes>),
    }
}

/// One typed future.
#[derive(Debug, Clone, PartialEq)]
pub struct Datum {
    /// Turbine type tag (opaque to ADLB).
    pub type_tag: u8,
    /// Current value.
    pub value: DatumValue,
    /// Whether the datum is closed (will never change again).
    pub closed: bool,
    /// Ranks to notify on close.
    pub subscribers: Vec<Rank>,
    /// Outstanding writer slots (containers): the datum closes when this
    /// drops to zero — Swift/T's slot counting for distributed loops that
    /// fill an array from many control tasks.
    pub write_refs: i64,
    /// Leaf reads still to come, as STC counted them; `None` for a datum
    /// nobody counted, which is never freed. A counted datum is freed once
    /// it is closed and this is zero.
    pub read_refs: Option<u32>,
}

/// On the wire the closed flag precedes the value.
impl Wire for Datum {
    fn put(&self, w: &mut WireWriter) {
        w.put(&self.type_tag)
            .put(&self.closed)
            .put(&self.value)
            .put(&self.subscribers)
            .put(&self.write_refs)
            .put(&self.read_refs);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Datum, WireError> {
        Ok(Datum {
            type_tag: Wire::get(r)?,
            closed: Wire::get(r)?,
            value: Wire::get(r)?,
            subscribers: Wire::get(r)?,
            write_refs: Wire::get(r)?,
            read_refs: Wire::get(r)?,
        })
    }
}

/// Type tag convention: containers use this tag, everything else is a
/// scalar. (Kept in ADLB so `create` can pick the right value shape.)
pub const TYPE_TAG_CONTAINER: u8 = 100;

/// The shard of the data store owned by one server.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DataStore {
    data: HashMap<u64, Datum>,
}

/// A shard travels as its `id → datum` map.
impl Wire for DataStore {
    fn put(&self, w: &mut WireWriter) {
        self.data.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<DataStore, WireError> {
        Ok(DataStore {
            data: Wire::get(r)?,
        })
    }
}

impl DataStore {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of datums resident.
    #[allow(dead_code)] // diagnostics / tests
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the shard is empty.
    #[allow(dead_code)] // diagnostics / tests
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterate over resident datums (checkpoint splitting).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&u64, &Datum)> {
        self.data.iter()
    }

    /// Install a datum wholesale (checkpoint splitting).
    pub(crate) fn insert_datum(&mut self, id: u64, d: Datum) {
        self.data.insert(id, d);
    }

    /// Absorb another shard (failover promotion). Ids are sharded across
    /// servers, so the two key sets are disjoint in practice; on a
    /// collision the absorbed shard wins (it is the authoritative replica
    /// of the dead primary).
    pub(crate) fn merge(&mut self, other: DataStore) {
        self.data.extend(other.data);
    }

    /// Whether datum `id` is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.data.contains_key(&id)
    }

    /// Datum `id`'s outstanding leaf reads (`None` when uncounted).
    pub fn read_refs(&self, id: u64) -> Result<Option<u32>, DataError> {
        match self.data.get(&id) {
            Some(d) => Ok(d.read_refs),
            None => Err(DataError::new(format!("<{id}> does not exist"))),
        }
    }

    /// Create a datum (idempotent creation is an error: ids are unique),
    /// counted with `read_refs` leaf reads to come or uncounted (`None`).
    pub fn create(
        &mut self,
        id: u64,
        type_tag: u8,
        read_refs: Option<u32>,
    ) -> Result<(), DataError> {
        if self.data.contains_key(&id) {
            return Err(DataError::new(format!("<{id}> already exists")));
        }
        let value = if type_tag == TYPE_TAG_CONTAINER {
            DatumValue::Container(HashMap::new())
        } else {
            DatumValue::Unset
        };
        self.data.insert(
            id,
            Datum {
                type_tag,
                value,
                closed: false,
                subscribers: Vec::new(),
                write_refs: 1,
                read_refs,
            },
        );
        Ok(())
    }

    /// Free datum `id` if it is closed and counted with no read to come.
    fn free_if_unread(&mut self, id: u64) {
        if self
            .data
            .get(&id)
            .is_some_and(|d| d.closed && d.read_refs == Some(0))
        {
            self.data.remove(&id);
        }
    }

    /// Take `n` leaf reads off datum `id`'s count, freeing it when it is
    /// closed and none is left. Releasing an uncounted datum changes
    /// nothing; a missing one is an error (and changes nothing either).
    pub fn release(&mut self, id: u64, n: u32) -> Result<(), DataError> {
        let d = self.get_mut(id)?;
        if let Some(refs) = &mut d.read_refs {
            *refs = refs.saturating_sub(n);
            self.free_if_unread(id);
        }
        Ok(())
    }

    fn get_mut(&mut self, id: u64) -> Result<&mut Datum, DataError> {
        self.data
            .get_mut(&id)
            .ok_or_else(|| DataError::new(format!("<{id}> does not exist")))
    }

    /// Whether the datum exists and is closed.
    pub fn exists_closed(&self, id: u64) -> bool {
        self.data.get(&id).map(|d| d.closed).unwrap_or(false)
    }

    /// Store a scalar value and close the datum. Returns the subscribers
    /// to notify. Double store is an error (single assignment).
    pub fn store(&mut self, id: u64, value: Bytes) -> Result<Vec<Rank>, DataError> {
        let d = self.get_mut(id)?;
        if d.closed {
            return Err(DataError::new(format!(
                "<{id}> double assignment (already closed)"
            )));
        }
        if matches!(d.value, DatumValue::Container(_)) {
            return Err(DataError::new(format!("<{id}> is a container; use insert")));
        }
        d.value = DatumValue::Scalar(value);
        d.closed = true;
        let subscribers = std::mem::take(&mut d.subscribers);
        self.free_if_unread(id);
        Ok(subscribers)
    }

    /// Read a scalar datum's value if closed.
    pub fn retrieve(&self, id: u64) -> Result<Option<Bytes>, DataError> {
        match self.data.get(&id) {
            None => Err(DataError::new(format!("<{id}> does not exist"))),
            Some(d) => match (&d.value, d.closed) {
                (DatumValue::Scalar(b), true) => Ok(Some(b.clone())),
                _ => Ok(None),
            },
        }
    }

    /// Subscribe `rank` to the close of `id`. Returns `true` if the datum
    /// is already closed (no notification will be sent).
    pub fn subscribe(&mut self, id: u64, rank: Rank) -> Result<bool, DataError> {
        let d = self.get_mut(id)?;
        if d.closed {
            return Ok(true);
        }
        d.subscribers.push(rank);
        Ok(false)
    }

    /// Insert a member into an open container.
    pub fn insert(&mut self, id: u64, key: &str, value: Bytes) -> Result<(), DataError> {
        let d = self.get_mut(id)?;
        if d.closed {
            return Err(DataError::new(format!(
                "<{id}>[{key}] insert into closed container"
            )));
        }
        match &mut d.value {
            DatumValue::Container(map) => {
                if map.contains_key(key) {
                    return Err(DataError::new(format!(
                        "<{id}>[{key}] double insert (single assignment)"
                    )));
                }
                map.insert(key.to_string(), value);
                Ok(())
            }
            _ => Err(DataError::new(format!("<{id}> is not a container"))),
        }
    }

    /// Look up a container member (present or not; no blocking here —
    /// Turbine arranges dataflow waits above this level).
    pub fn lookup(&self, id: u64, key: &str) -> Result<Option<Bytes>, DataError> {
        match self.data.get(&id) {
            None => Err(DataError::new(format!("<{id}> does not exist"))),
            Some(d) => match &d.value {
                DatumValue::Container(map) => Ok(map.get(key).cloned()),
                _ => Err(DataError::new(format!("<{id}> is not a container"))),
            },
        }
    }

    /// Enumerate a container's members, sorted by subscript.
    pub fn enumerate(&self, id: u64) -> Result<Vec<(String, Bytes)>, DataError> {
        match self.data.get(&id) {
            None => Err(DataError::new(format!("<{id}> does not exist"))),
            Some(d) => match &d.value {
                DatumValue::Container(map) => {
                    let mut out: Vec<(String, Bytes)> =
                        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    // Numeric subscripts sort numerically (Swift arrays).
                    out.sort_by(|a, b| match (a.0.parse::<i64>(), b.0.parse::<i64>()) {
                        (Ok(x), Ok(y)) => x.cmp(&y),
                        _ => a.0.cmp(&b.0),
                    });
                    Ok(out)
                }
                _ => Err(DataError::new(format!("<{id}> is not a container"))),
            },
        }
    }

    /// Adjust a container's writer slot count; a drop to zero closes the
    /// datum and returns the subscribers to notify.
    pub fn incr_writers(&mut self, id: u64, delta: i64) -> Result<Vec<Rank>, DataError> {
        let d = self.get_mut(id)?;
        if d.closed {
            if delta > 0 {
                return Err(DataError::new(format!(
                    "<{id}> cannot add writers to a closed datum"
                )));
            }
            return Ok(Vec::new());
        }
        // Refuse before touching anything: an error means nothing changed
        // (`Ledger::apply` logs no op for it).
        if d.write_refs + delta < 0 {
            return Err(DataError::new(format!("<{id}> writer count went negative")));
        }
        d.write_refs += delta;
        if d.write_refs == 0 {
            d.closed = true;
            let subscribers = std::mem::take(&mut d.subscribers);
            self.free_if_unread(id);
            return Ok(subscribers);
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_lifecycle() {
        let mut ds = DataStore::new();
        ds.create(1, 0, None).unwrap();
        assert_eq!(ds.retrieve(1).unwrap(), None);
        assert!(!ds.exists_closed(1));
        let subs = ds.store(1, Bytes::from_static(b"42")).unwrap();
        assert!(subs.is_empty());
        assert_eq!(ds.retrieve(1).unwrap().unwrap(), &b"42"[..]);
        assert!(ds.exists_closed(1));
    }

    #[test]
    fn double_assignment_rejected() {
        let mut ds = DataStore::new();
        ds.create(1, 0, None).unwrap();
        ds.store(1, Bytes::from_static(b"x")).unwrap();
        let err = ds.store(1, Bytes::from_static(b"y")).unwrap_err();
        assert!(err.message.contains("double assignment"));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut ds = DataStore::new();
        ds.create(1, 0, None).unwrap();
        assert!(ds.create(1, 0, None).is_err());
    }

    #[test]
    fn subscribe_before_and_after_close() {
        let mut ds = DataStore::new();
        ds.create(5, 0, None).unwrap();
        assert!(!ds.subscribe(5, 3).unwrap());
        assert!(!ds.subscribe(5, 7).unwrap());
        let subs = ds.store(5, Bytes::new()).unwrap();
        assert_eq!(subs, vec![3, 7]);
        // Late subscriber learns it is already closed.
        assert!(ds.subscribe(5, 9).unwrap());
    }

    #[test]
    fn container_lifecycle() {
        let mut ds = DataStore::new();
        ds.create(2, TYPE_TAG_CONTAINER, None).unwrap();
        ds.insert(2, "0", Bytes::from_static(b"a")).unwrap();
        ds.insert(2, "10", Bytes::from_static(b"b")).unwrap();
        ds.insert(2, "2", Bytes::from_static(b"c")).unwrap();
        assert_eq!(ds.lookup(2, "10").unwrap().unwrap(), &b"b"[..]);
        assert_eq!(ds.lookup(2, "99").unwrap(), None);
        let keys: Vec<String> = ds
            .enumerate(2)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec!["0", "2", "10"], "numeric subscript order");
        assert!(ds.subscribe(2, 4).is_ok());
        assert_eq!(ds.incr_writers(2, -1).unwrap(), vec![4], "the close");
        assert!(ds.exists_closed(2));
        assert!(ds.insert(2, "3", Bytes::new()).is_err());
        // A redundant close is tolerated and notifies nobody again.
        assert!(ds.incr_writers(2, -1).unwrap().is_empty());
        assert!(
            ds.incr_writers(2, 1).is_err(),
            "no writer joins a closed one"
        );
    }

    #[test]
    fn double_insert_rejected() {
        let mut ds = DataStore::new();
        ds.create(2, TYPE_TAG_CONTAINER, None).unwrap();
        ds.insert(2, "0", Bytes::from_static(b"a")).unwrap();
        assert!(ds.insert(2, "0", Bytes::from_static(b"b")).is_err());
    }

    #[test]
    fn type_confusion_rejected() {
        let mut ds = DataStore::new();
        ds.create(1, 0, None).unwrap();
        ds.create(2, TYPE_TAG_CONTAINER, None).unwrap();
        assert!(ds.insert(1, "0", Bytes::new()).is_err());
        assert!(ds.store(2, Bytes::new()).is_err());
        assert!(ds.lookup(1, "0").is_err());
    }

    #[test]
    fn missing_ids_error() {
        let mut ds = DataStore::new();
        assert!(ds.retrieve(9).is_err());
        assert!(ds.store(9, Bytes::new()).is_err());
        assert!(ds.subscribe(9, 0).is_err());
        assert!(ds.incr_writers(9, -1).is_err());
    }

    #[test]
    fn a_counted_datum_is_freed_after_its_last_read() {
        let mut ds = DataStore::new();
        ds.create(1, 0, Some(2)).unwrap();
        assert_eq!(ds.read_refs(1).unwrap(), Some(2));
        ds.store(1, Bytes::from_static(b"v")).unwrap();
        ds.release(1, 1).unwrap();
        assert_eq!(ds.retrieve(1).unwrap().unwrap(), &b"v"[..]);
        ds.release(1, 1).unwrap();
        assert!(!ds.contains(1), "closed with no read to come");
        assert!(
            ds.release(1, 1).is_err(),
            "a release of a freed datum misses"
        );
        assert!(ds.retrieve(1).is_err());
    }

    #[test]
    fn an_unread_datum_is_freed_when_it_closes() {
        let mut ds = DataStore::new();
        ds.create(1, 0, Some(0)).unwrap();
        assert!(ds.contains(1), "open datums stay");
        assert!(ds.store(1, Bytes::new()).unwrap().is_empty());
        assert!(!ds.contains(1));
        // A container closes by its writer count, its last slot included.
        ds.create(2, TYPE_TAG_CONTAINER, Some(0)).unwrap();
        ds.incr_writers(2, -1).unwrap();
        assert!(!ds.contains(2));
        ds.create(3, TYPE_TAG_CONTAINER, Some(0)).unwrap();
        ds.incr_writers(3, 1).unwrap();
        ds.incr_writers(3, -1).unwrap();
        assert!(ds.contains(3), "one writer left");
        ds.incr_writers(3, -1).unwrap();
        assert!(!ds.contains(3));
    }

    #[test]
    fn reads_released_before_the_close_free_at_the_close() {
        let mut ds = DataStore::new();
        ds.create(1, 0, Some(1)).unwrap();
        ds.release(1, 1).unwrap();
        assert!(ds.contains(1), "still open");
        ds.store(1, Bytes::from_static(b"v")).unwrap();
        assert!(!ds.contains(1));
        // Over-release saturates: the count never goes negative.
        ds.create(2, 0, Some(1)).unwrap();
        ds.store(2, Bytes::new()).unwrap();
        ds.release(2, 3).unwrap();
        assert!(!ds.contains(2));
    }

    #[test]
    fn an_uncounted_datum_is_never_freed() {
        let mut ds = DataStore::new();
        ds.create(1, 0, None).unwrap();
        ds.store(1, Bytes::from_static(b"v")).unwrap();
        let before = ds.clone();
        ds.release(1, 5).unwrap();
        assert_eq!(ds, before, "releasing an uncounted datum changes nothing");
        assert_eq!(ds.read_refs(1).unwrap(), None);
        assert!(ds.read_refs(9).is_err());
    }
}
