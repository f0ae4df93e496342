//! Wire protocol: every ADLB message, declared once with its tags and
//! field order (see [`mpisim::wire_enum!`]); the encoders and decoders are
//! generated from these declarations.

use bytes::Bytes;
use mpisim::{wire_enum, Aliased, Rank, Tag, Wire, WireAs, WireError, WireReader, WireWriter};

use crate::replica::{ReplOp, Xfer};

/// Control work (engine-to-engine dataflow bookkeeping).
pub const WORK_TYPE_CONTROL: u32 = 0;
/// Ordinary leaf tasks executed by workers.
pub const WORK_TYPE_WORK: u32 = 1;
/// Data-close notifications, delivered as targeted high-priority tasks.
pub const WORK_TYPE_NOTIFY: u32 = 2;

/// Message tags used by the ADLB protocol.
pub const TAG_REQ: Tag = 10;
pub const TAG_RESP: Tag = 11;
pub const TAG_SRV: Tag = 12;

/// A unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Work type (queue selector).
    pub work_type: u32,
    /// Submitting tenant (0 = the default single-program tenant). Carried
    /// on the wire so servers can account, schedule, and quota per tenant.
    pub tenant: u32,
    /// Higher runs first.
    pub priority: i32,
    /// Pinned destination rank, if any.
    pub target: Option<Rank>,
    /// Delivery attempts so far (0 for a fresh task). Incremented by the
    /// server each time the task is requeued after a failure.
    pub attempts: u32,
    /// Opaque payload (Turbine ships Tcl fragments here).
    pub payload: Bytes,
}

impl Task {
    /// A fresh (never-attempted) task of the default tenant.
    pub fn new(work_type: u32, priority: i32, target: Option<Rank>, payload: Bytes) -> Task {
        Task {
            work_type,
            tenant: 0,
            priority,
            target,
            attempts: 0,
            payload,
        }
    }

    /// Re-tag this task with a tenant (builder style).
    pub fn with_tenant(mut self, tenant: u32) -> Task {
        self.tenant = tenant;
        self
    }
}

/// The priority travels as an `i64` and the target as an `i64` where −1
/// means none. The payload is a view of the arrival buffer, not a copy.
impl Wire for Task {
    fn put(&self, w: &mut WireWriter) {
        w.put_u32(self.work_type)
            .put_u32(self.tenant)
            .put_i64(self.priority.into());
        OrMinusOne::put_as(&self.target, w);
        w.put_u32(self.attempts);
        Aliased::put_as(&self.payload, w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Task, WireError> {
        let (work_type, tenant) = (r.get_u32()?, r.get_u32()?);
        let at = r.offset();
        let priority = i32::try_from(r.get_i64()?).map_err(|_| WireError {
            context: "task priority",
            offset: at,
        })?;
        Ok(Task {
            work_type,
            tenant,
            priority,
            target: OrMinusOne::get_as(r)?,
            attempts: r.get_u32()?,
            payload: Aliased::get_as(r)?,
        })
    }
}

/// An `Option` as an `i64` where −1 means `None`: a task's target and a
/// `Get`'s tenant filter.
struct OrMinusOne;

impl<T: Copy + TryFrom<i64> + TryInto<i64>> WireAs<Option<T>> for OrMinusOne {
    fn put_as(v: &Option<T>, w: &mut WireWriter) {
        w.put_i64(v.and_then(|t| t.try_into().ok()).unwrap_or(-1));
    }

    fn get_as(r: &mut WireReader<'_>) -> Result<Option<T>, WireError> {
        let at = r.offset();
        match r.get_i64()? {
            -1 => Ok(None),
            t => T::try_from(t).map(Some).map_err(|_| WireError {
                context: "i64 option",
                offset: at,
            }),
        }
    }
}

/// The entries of a batch whose enum's batch forms have tags `BATCH` and
/// `OTHER`: a list of any variant but a batch of either form, so hostile
/// bytes cannot buy unbounded recursion (alternating the forms included).
struct Unnested<const BATCH: u8, const OTHER: u8 = BATCH>;

impl<T: Wire, const BATCH: u8, const OTHER: u8> WireAs<Vec<T>> for Unnested<BATCH, OTHER> {
    fn put_as(v: &Vec<T>, w: &mut WireWriter) {
        v.put(w);
    }

    fn get_as(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
        r.get_seq(|r| {
            if matches!(r.peek_u8(), Some(t) if t == BATCH || t == OTHER) {
                return Err(r.error("nested batch"));
            }
            T::get(r)
        })
    }
}

/// A client→server request or a server→client response as it travels:
/// the body, then the client's per-message sequence number. The server
/// deduplicates re-sent requests after a failover by `(client, seq)`; a
/// client matches a response's seq against its outstanding request and
/// drops anything else — a failover may re-send cached responses the
/// client already consumed, and those duplicates must not be mistaken
/// for the answer to a later request.
pub type Sealed<T> = (T, u64);

/// Encode a request or response with a client's per-message sequence
/// number behind it (see [`Sealed`]), in one buffer.
pub fn seal<T: Wire>(body: &T, seq: u64) -> Bytes {
    let mut w = WireWriter::new();
    w.put(body).put_u64(seq);
    w.finish()
}

/// [`seal`] for a body already encoded. The seq trails the body so cached
/// encodings (e.g. the client's repeated `Get`) can be reused
/// byte-for-byte.
pub fn seal_seq(body: &[u8], seq: u64) -> Bytes {
    let mut buf = Vec::with_capacity(body.len() + 8);
    buf.extend_from_slice(body);
    buf.extend_from_slice(&seq.to_le_bytes());
    Bytes::from(buf)
}

wire_enum! {
    /// Client → server requests.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request: "request" {
        0 => Put(Task),
        1 => Get {
            work_types: Vec<u32>,
            /// Prefetch hint: the server may deliver up to this many queued
            /// tasks in one [`Response::Deliver`]. Servers treat 0 as 1.
            max_tasks: u32,
            /// Restrict delivery to this tenant's tasks (`None` = any tenant).
            /// Engines get only their own program's control/notify traffic;
            /// workers serve the whole fleet.
            tenant: Option<u32> as OrMinusOne,
        },
        /// Client will issue no further requests; counts as permanently parked.
        2 => Finished,
        /// Create a datum; `reads` is the number of leaf reads STC counted
        /// for it (`None`: uncounted, never freed).
        3 => DataCreate {
            id: u64,
            type_tag: u8,
            reads: Option<u32>,
        },
        4 => DataStore { id: u64, value: Bytes },
        5 => DataRetrieve { id: u64 },
        6 => DataSubscribe {
            id: u64,
            rank: Rank,
            /// Write-behind form: answer only Ok/Error, and when the datum is
            /// already closed send `rank` its close notification right away
            /// instead of answering `Bool(true)`.
            notify_closed: bool,
        },
        7 => DataInsert { id: u64, key: String, value: Bytes },
        8 => DataLookup { id: u64, key: String },
        9 => DataEnumerate { id: u64 },
        11 => DataExists { id: u64 },
        12 => DataIncrWriters { id: u64, delta: i64 },
        /// Acknowledge the task most recently delivered to this client,
        /// releasing its lease. `ok: false` reports a contained task failure
        /// (`error` says why); the server retries or quarantines the task.
        /// `error` is empty on success.
        13 => TaskDone {
            ok: bool,
            error: String,
            /// One `(id, n)` per datum a successful task read `n` times.
            /// Only this server knows whether the ack completes the task,
            /// so they come off the counts here, and only then (a retry
            /// reads its inputs again); those of datums hosted elsewhere
            /// leave as a [`ServerMsg::Release`].
            reads: Vec<(u64, u32)>,
        },
        /// A worker's write-behind outbox for one home server: requests whose
        /// answer is only Ok/Error, applied in order as ONE request — one seq,
        /// one replication commit, one [`Response::Batch`] carrying a response
        /// per entry. Its writes belong to the task in hand: a write that fails
        /// turns the next `TaskDone { ok: true }` behind it into a failure
        /// carrying its error, so the retry/quarantine path belongs to the task
        /// that issued the write. Answered only when a write follows the last
        /// `TaskDone` (see [`Request::wants_reply`]). Batches of either form do
        /// not nest and never carry a `Get`.
        14 => Batch(Vec<Request> as Unnested<14, 15>),
        /// An engine's outbox: the entries of a [`Request::Batch`], but its
        /// writes belong to the client's program, never to a `TaskDone` beside
        /// them — so the writes of many prefetched tasks can share one. The
        /// server charges no failure to an ack; a batch holding a write is
        /// answered, and the client takes each error as the program's.
        15 => OwnedBatch(Vec<Request> as Unnested<14, 15>),
        /// Incremental stdout from a client (fire-and-forget). The server
        /// accumulates and replicates each client's stream so output produced
        /// before a rank death survives it.
        16 => Output {
            text: String,
            /// Tenant the output belongs to, so multi-tenant runs can hand
            /// each program its own stdout stream.
            tenant: u32,
        },
    }
}

impl Request {
    /// Whether the server answers this request. Acks and output are
    /// fire-and-forget; so is a worker's batch whose every write is
    /// followed by a `TaskDone` (which takes over the write's error), and
    /// an owned batch that holds no write. Client and server both decide by
    /// this one rule.
    pub fn wants_reply(&self) -> bool {
        match self {
            Request::TaskDone { .. } | Request::Output { .. } => false,
            Request::Batch(ops) => ops
                .iter()
                .rev()
                .take_while(|r| !matches!(r, Request::TaskDone { .. }))
                .any(Request::wants_reply),
            Request::OwnedBatch(ops) => ops.iter().any(Request::wants_reply),
            _ => true,
        }
    }
}

wire_enum! {
    /// Server → client responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response: "response" {
        0 => Ok,
        1 => Bool(bool),
        /// The value is a view of the arrival buffer, not a copy: a
        /// retrieved blob keeps the response's buffer.
        2 => MaybeBytes(Option<Bytes> as Aliased),
        3 => Pairs(Vec<(String, Bytes)>),
        /// Shutdown: no more work will ever arrive. Carries the (capped)
        /// quarantine reports of the responding server so clients can explain
        /// why some dataflow never completed, and — when the run was cut
        /// short by an unrecoverable server loss — the abort diagnosis.
        5 => NoMore {
            quarantined: Vec<String>,
            aborted: Option<String>,
        },
        6 => Error(String),
        /// The answer to a `Get`: the client leases every task and drains
        /// them locally; the acknowledgements ride its outbox on its next
        /// server trip.
        7 => Deliver(Vec<Task>),
        /// Admission backpressure: the server refused these puts because the
        /// submitting tenant is over its queued-task quota. The client keeps
        /// them in a deferred buffer and re-offers them later instead of the
        /// server's queue growing without bound.
        8 => Rejected(Vec<Task>),
        /// One response per entry of the [`Request::Batch`] it answers.
        9 => Batch(Vec<Response> as Unnested<9>),
    }
}

wire_enum! {
    /// Server ↔ server messages.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServerMsg: "server message" {
        /// Tasks moving to the server hosting their home: a forward, or
        /// (`steal`) the answer to a [`ServerMsg::StealReq`]. The message is
        /// the sender's write-ahead entry itself; see [`Xfer`]. An empty
        /// steal answer has `fseq` 0 and no tasks, and transfers nothing.
        0 => Xfer(Xfer),
        1 => StealReq {
            thief: Rank,
            work_types: Vec<u32>,
            /// How many clients are starved at the thief — a sizing hint; the
            /// victim donates at least this many tasks when it has them (and
            /// never less than half its eligible queue).
            need: u32,
        },
        /// Termination-detection poll from the master.
        3 => Check { round: u64 },
        4 => CheckResp {
            round: u64,
            quiescent: bool,
            epoch: u64,
            fwd_out: u64,
            fwd_in: u64,
        },
        /// Global shutdown, carrying the (capped) quarantine reports gathered
        /// by the master so every server can hand them to its clients.
        5 => Shutdown { reports: Vec<String> },
        /// Liveness beacon between servers (membership protocol). Any message
        /// counts as a heartbeat; this one exists for otherwise-idle servers.
        6 => Heartbeat,
        /// Write-through replication: state-changing ops a primary streams to
        /// the ring successors holding its replica ledger.
        7 => Repl { ops: Vec<ReplOp> },
        /// Receiver has durably applied transfer `fseq` from `origin`'s ledger
        /// toward home `dest`; the sender may retire the write-ahead entry.
        9 => XferAck { origin: Rank, dest: Rank, fseq: u64 },
        /// Sent as a server's very last message after global termination: every
        /// shutdown `NoMore` this server owed its clients precedes the `Bye`
        /// in its send stream, and sends complete in program order — so a
        /// delivered `Bye` is a receipt that those notices left too. Peers
        /// linger until every live peer says `Bye`; a peer that dies instead
        /// gets its replica promoted so its stranded clients still get their
        /// shutdown notices.
        10 => Bye,
        /// One bounded chunk of a full ledger streamed to a replica holder —
        /// when a server first gains the holder, or (re-replication) after a
        /// promotion absorbed a dead server's ledger. `data` covers bytes `[cursor, cursor + data.len())` of a `total`-byte
        /// serialized [`crate::Ledger`]; `sync_id` is monotonic per sender so a
        /// restarted sync supersedes any chunks of the previous one still in
        /// flight. The receiver acks each chunk with [`ServerMsg::SyncAck`]
        /// carrying its contiguous high-water, which is also the resume point:
        /// the sender may re-send from any acked cursor.
        11 => ReplSync {
            sync_id: u64,
            cursor: u64,
            total: u64,
            data: Bytes as Aliased,
        },
        /// Receiver holds the first `cursor` contiguous bytes of sync
        /// `sync_id`; the sender streams the next chunk from there (or retires
        /// the sync when `cursor == total`).
        12 => SyncAck { sync_id: u64, cursor: u64 },
        /// Leaf reads `(id, n)` of datums the receiver hosts, released by
        /// acks that completed their tasks at the sender (see
        /// [`Request::TaskDone`]). Sent once, never re-sent: a release
        /// lost to a death is a leak, never a second free.
        13 => Release { releases: Vec<(u64, u32)> },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(t: u32, p: i32, target: Option<Rank>) -> Task {
        Task {
            work_type: t,
            tenant: 3,
            priority: p,
            target,
            attempts: 2,
            payload: Bytes::from_static(b"payload \x00\xFF bytes"),
        }
    }

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Put(task(1, -5, Some(3))),
            Request::Put(task(0, i32::MAX, None)),
            Request::Get {
                work_types: vec![0, 1, 2],
                max_tasks: 1,
                tenant: None,
            },
            Request::Get {
                work_types: vec![1],
                max_tasks: 16,
                tenant: Some(2),
            },
            Request::Batch(vec![
                Request::DataCreate {
                    id: 7,
                    type_tag: 3,
                    reads: Some(2),
                },
                Request::Put(task(1, 3, None)),
                Request::TaskDone {
                    ok: false,
                    error: "boom".into(),
                    reads: vec![],
                },
            ]),
            Request::Batch(vec![]),
            Request::OwnedBatch(vec![
                Request::DataStore {
                    id: 3,
                    value: Bytes::from_static(b"v"),
                },
                Request::TaskDone {
                    ok: true,
                    error: String::new(),
                    reads: vec![],
                },
            ]),
            Request::Finished,
            Request::TaskDone {
                ok: true,
                error: String::new(),
                reads: vec![(7, 2), (u64::MAX, 1)],
            },
            Request::TaskDone {
                ok: false,
                error: "NameError: x is not defined".into(),
                reads: vec![],
            },
            Request::Output {
                text: "line one\nline two\n".into(),
                tenant: 2,
            },
            Request::DataCreate {
                id: 7,
                type_tag: 3,
                reads: None,
            },
            Request::DataStore {
                id: 9,
                value: Bytes::from_static(b"v"),
            },
            Request::DataRetrieve { id: u64::MAX },
            Request::DataSubscribe {
                id: 1,
                rank: 42,
                notify_closed: false,
            },
            Request::DataSubscribe {
                id: 1,
                rank: 42,
                notify_closed: true,
            },
            Request::DataInsert {
                id: 2,
                key: "k with spaces".into(),
                value: Bytes::new(),
            },
            Request::DataLookup {
                id: 2,
                key: "k".into(),
            },
            Request::DataEnumerate { id: 2 },
            Request::DataExists { id: 0 },
            Request::DataIncrWriters { id: 3, delta: -1 },
        ];
        for (i, c) in cases.into_iter().enumerate() {
            let seq = i as u64 + 1;
            let wire = seal(&c, seq);
            assert_eq!(Sealed::<Request>::decode(&wire).unwrap(), (c, seq));
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            Response::Ok,
            Response::Bool(true),
            Response::Bool(false),
            Response::MaybeBytes(None),
            Response::MaybeBytes(Some(Bytes::from_static(b"\x01\x02"))),
            Response::Pairs(vec![
                ("a".into(), Bytes::from_static(b"1")),
                ("b".into(), Bytes::new()),
            ]),
            Response::Deliver(vec![task(2, 0, Some(0))]),
            Response::Deliver(vec![task(1, 5, None), task(1, 4, None), task(1, 3, None)]),
            Response::Deliver(vec![]),
            Response::NoMore {
                quarantined: vec![],
                aborted: None,
            },
            Response::NoMore {
                quarantined: vec!["task failed 4 attempts: boom".into()],
                aborted: None,
            },
            Response::NoMore {
                quarantined: vec![],
                aborted: Some(
                    "server rank 3 died and its shard is unrecoverable \
                     (replication=1 keeps no replica; no checkpoint configured)"
                        .into(),
                ),
            },
            Response::Error("bad thing".into()),
            Response::Rejected(vec![task(1, 0, None).with_tenant(9)]),
            Response::Rejected(vec![]),
            Response::Batch(vec![
                Response::Ok,
                Response::Error("double assignment".into()),
                Response::Rejected(vec![task(1, 0, None)]),
            ]),
            Response::Batch(vec![]),
        ];
        for c in cases {
            assert_eq!(Response::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn batches_do_not_nest() {
        let forms: [fn(Vec<Request>) -> Request; 2] = [Request::Batch, Request::OwnedBatch];
        for outer in forms {
            for inner in forms {
                let wire = seal(&outer(vec![inner(vec![Request::Finished])]), 1);
                assert!(Sealed::<Request>::decode(&wire).is_err());
            }
        }
        let inner = Response::Batch(vec![Response::Ok]);
        assert!(Response::decode(&Response::Batch(vec![inner]).encode()).is_err());
    }

    #[test]
    fn a_batch_is_silent_only_when_acks_cover_every_write() {
        let done = || Request::TaskDone {
            ok: true,
            error: String::new(),
            reads: vec![(1, 1)],
        };
        let store = || Request::DataStore {
            id: 1,
            value: Bytes::new(),
        };
        let out = || Request::Output {
            text: "x".into(),
            tenant: 0,
        };
        assert!(!done().wants_reply());
        assert!(!out().wants_reply());
        assert!(!Request::Batch(vec![store(), done(), out()]).wants_reply());
        assert!(!Request::Batch(vec![done(), done()]).wants_reply());
        assert!(!Request::OwnedBatch(vec![done(), out()]).wants_reply());
        assert!(store().wants_reply());
        assert!(!Request::Batch(vec![store(), out(), done()]).wants_reply());
        assert!(!Request::Batch(vec![store(), done(), out()]).wants_reply());
        assert!(Request::Batch(vec![store(), done(), store()]).wants_reply());
        assert!(Request::Batch(vec![store(), out()]).wants_reply());
        assert!(!Request::Batch(vec![]).wants_reply());
        // An owned batch's writes are never an ack's: any write is answered.
        assert!(Request::OwnedBatch(vec![store(), out(), done()]).wants_reply());
        assert!(Request::OwnedBatch(vec![done(), store()]).wants_reply());
        assert!(!Request::OwnedBatch(vec![done(), out(), done()]).wants_reply());
        assert!(!Request::OwnedBatch(vec![]).wants_reply());
    }

    fn xfer(fseq: u64, steal: bool, tasks: Vec<Task>) -> Xfer {
        Xfer {
            origin: 9,
            dest: 8,
            fseq,
            steal,
            tasks,
            sent_to: None,
        }
    }

    #[test]
    fn server_msg_round_trips() {
        let cases = vec![
            ServerMsg::Xfer(xfer(4, false, vec![task(1, 2, Some(5))])),
            ServerMsg::StealReq {
                thief: 8,
                work_types: vec![1],
                need: 3,
            },
            ServerMsg::Xfer(xfer(2, true, vec![task(1, 0, None), task(1, 9, None)])),
            ServerMsg::Xfer(xfer(0, true, vec![])),
            ServerMsg::Check { round: 3 },
            ServerMsg::CheckResp {
                round: 3,
                quiescent: true,
                epoch: 77,
                fwd_out: 5,
                fwd_in: 5,
            },
            ServerMsg::Shutdown { reports: vec![] },
            ServerMsg::Shutdown {
                reports: vec!["task quarantined: boom".into()],
            },
            ServerMsg::Heartbeat,
            ServerMsg::XferAck {
                origin: 8,
                dest: 9,
                fseq: 11,
            },
            ServerMsg::Bye,
            ServerMsg::ReplSync {
                sync_id: 7,
                cursor: 4096,
                total: 9000,
                data: Bytes::from_static(b"chunk-of-ledger"),
            },
            ServerMsg::ReplSync {
                sync_id: 1,
                cursor: 0,
                total: 0,
                data: Bytes::new(),
            },
            ServerMsg::SyncAck {
                sync_id: 7,
                cursor: 4111,
            },
        ];
        for c in cases {
            assert_eq!(ServerMsg::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn truncated_messages_error() {
        let enc = seal(&Request::Put(task(1, 1, None)), 1);
        assert!(Sealed::<Request>::decode(&enc.slice(..enc.len() - 1)).is_err());
        assert!(Sealed::<Request>::decode(&Bytes::from_static(&[99])).is_err());
    }

    #[test]
    fn shared_decode_aliases_payloads() {
        // Decoding must hand back payloads that point into the wire
        // message's own allocation — the zero-copy receive path.
        let batch = Response::Deliver(vec![task(1, 0, None), task(1, 1, None)]);
        let wire = batch.encode();
        let lo = wire.as_ptr() as usize;
        let hi = lo + wire.len();
        match Response::decode(&wire).unwrap() {
            Response::Deliver(tasks) => {
                assert_eq!(tasks.len(), 2);
                for t in &tasks {
                    let p = t.payload.as_ptr() as usize;
                    assert!(p >= lo && p + t.payload.len() <= hi, "payload was copied");
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let sealed = seal(&Request::Put(task(1, 0, None)), 5);
        match Sealed::<Request>::decode(&sealed).unwrap() {
            (Request::Put(t), 5) => assert_eq!(&t.payload[..], &task(1, 0, None).payload[..]),
            other => panic!("wrong variant: {other:?}"),
        }
        // A retrieved value, a blob's bytes among them, too.
        let sealed = seal(&Response::MaybeBytes(Some(Bytes::from(vec![7u8; 64]))), 6);
        let lo = sealed.as_ptr() as usize;
        match Sealed::<Response>::decode(&sealed).unwrap() {
            (Response::MaybeBytes(Some(v)), 6) => {
                assert_eq!(v, vec![7u8; 64]);
                assert!(v.as_ptr() as usize >= lo && v.as_ptr() as usize + 64 <= lo + sealed.len());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
