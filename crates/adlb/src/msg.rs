//! Wire protocol: explicit binary encoding of every ADLB message.

use bytes::Bytes;
use mpisim::{Rank, Tag, WireError, WireReader, WireWriter};

use crate::replica::ReplOp;

/// Control work (engine-to-engine dataflow bookkeeping).
pub const WORK_TYPE_CONTROL: u32 = 0;
/// Ordinary leaf tasks executed by workers.
pub const WORK_TYPE_WORK: u32 = 1;
/// Data-close notifications, delivered as targeted high-priority tasks.
pub const WORK_TYPE_NOTIFY: u32 = 2;

/// Message tags used by the ADLB protocol (all below
/// [`mpisim::RESERVED_TAG_BASE`]).
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

    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        w.put_u32(self.work_type);
        w.put_u32(self.tenant);
        w.put_i64(self.priority as i64);
        w.put_i64(self.target.map(|t| t as i64).unwrap_or(-1));
        w.put_u32(self.attempts);
        w.put_bytes(&self.payload);
    }

    pub(crate) fn decode_from(r: &mut WireReader) -> Result<Task, WireError> {
        let work_type = r.get_u32()?;
        let tenant = r.get_u32()?;
        let priority = r.get_i64()? as i32;
        let target = match r.get_i64()? {
            -1 => None,
            t => Some(t as Rank),
        };
        let attempts = r.get_u32()?;
        // Zero-copy when the reader is backed by the arrival buffer: the
        // payload is a view of the wire message, not a copy of it.
        let payload = r.get_bytes_shared()?;
        Ok(Task {
            work_type,
            tenant,
            priority,
            target,
            attempts,
            payload,
        })
    }
}

pub(crate) fn encode_task_list<'a, I>(w: &mut WireWriter, tasks: I)
where
    I: IntoIterator<Item = &'a Task>,
    I::IntoIter: ExactSizeIterator,
{
    let tasks = tasks.into_iter();
    w.put_u32(tasks.len() as u32);
    for t in tasks {
        t.encode_into(w);
    }
}

pub(crate) fn decode_task_list(r: &mut WireReader) -> Result<Vec<Task>, WireError> {
    let n = r.get_u32()? as usize;
    let mut tasks = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        tasks.push(Task::decode_from(r)?);
    }
    Ok(tasks)
}

/// Append a client's per-message sequence number to an encoded request
/// body. Every client→server message on the wire is sealed this way; the
/// server deduplicates re-sent messages after a failover by
/// `(client, seq)`. The seq trails the body so cached encodings (e.g. the
/// client's repeated `Get`) can be reused byte-for-byte.
pub fn seal_seq(body: &[u8], seq: u64) -> Bytes {
    let mut buf = Vec::with_capacity(body.len() + 8);
    buf.extend_from_slice(body);
    buf.extend_from_slice(&seq.to_le_bytes());
    Bytes::from(buf)
}

/// Client → server requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Put(Task),
    /// A client's write-behind outbox for one home server: requests whose
    /// answer is only Ok/Error, applied in order as ONE request — one seq,
    /// one replication commit, one [`Response::Batch`] carrying a response
    /// per entry. A write that fails turns the next `TaskDone { ok: true }`
    /// behind it in the batch into a failure carrying its error, so the
    /// retry/quarantine path belongs to the task that issued the write.
    /// Batches do not nest and never carry a `Get`.
    Batch(Vec<Request>),
    Get {
        work_types: Vec<u32>,
        /// Prefetch hint: the server may deliver up to this many queued
        /// tasks in one [`Response::DeliverBatch`]. Servers treat 0 as 1.
        max_tasks: u32,
        /// Restrict delivery to this tenant's tasks (`None` = any tenant).
        /// Engines get only their own program's control/notify traffic;
        /// workers serve the whole fleet.
        tenant: Option<u32>,
    },
    /// Client will issue no further requests; counts as permanently parked.
    Finished,
    /// Acknowledge the task most recently delivered to this client,
    /// releasing its lease. `ok: false` reports a contained task failure
    /// (`error` says why); the server retries or quarantines the task.
    /// `error` is empty on success.
    TaskDone {
        ok: bool,
        error: String,
    },
    /// Incremental stdout from a client (fire-and-forget). The server
    /// accumulates and replicates each client's stream so output produced
    /// before a rank death survives it.
    Output {
        text: String,
        /// Tenant the output belongs to, so multi-tenant runs can hand
        /// each program its own stdout stream.
        tenant: u32,
    },
    DataCreate {
        id: u64,
        type_tag: u8,
    },
    DataStore {
        id: u64,
        value: Bytes,
    },
    DataRetrieve {
        id: u64,
    },
    DataSubscribe {
        id: u64,
        rank: Rank,
        /// Write-behind form: answer only Ok/Error, and when the datum is
        /// already closed send `rank` its close notification right away
        /// instead of answering `Bool(true)`.
        notify_closed: bool,
    },
    DataInsert {
        id: u64,
        key: String,
        value: Bytes,
    },
    DataLookup {
        id: u64,
        key: String,
    },
    DataEnumerate {
        id: u64,
    },
    DataClose {
        id: u64,
    },
    DataExists {
        id: u64,
    },
    DataIncrWriters {
        id: u64,
        delta: i64,
    },
}

/// Server → client responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ok,
    Bool(bool),
    MaybeBytes(Option<Bytes>),
    Pairs(Vec<(String, Bytes)>),
    DeliverTask(Task),
    /// Prefetch delivery: the client leases every task in the batch and
    /// drains them locally; the acknowledgements ride its outbox on its
    /// next server trip.
    DeliverBatch(Vec<Task>),
    /// Shutdown: no more work will ever arrive. Carries the (capped)
    /// quarantine reports of the responding server so clients can explain
    /// why some dataflow never completed, and — when the run was cut
    /// short by an unrecoverable server loss — the abort diagnosis.
    NoMore {
        quarantined: Vec<String>,
        aborted: Option<String>,
    },
    Error(String),
    /// Admission backpressure: the server refused these puts because the
    /// submitting tenant is over its queued-task quota. The client keeps
    /// them in a deferred buffer and re-offers them later instead of the
    /// server's queue growing without bound.
    Rejected(Vec<Task>),
    /// One response per entry of the [`Request::Batch`] it answers.
    Batch(Vec<Response>),
}

/// Server ↔ server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Move a task to the server owning its destination. `dest` is the
    /// *home* server the task belongs to (which may be dead — the message
    /// is then addressed to its promoted successor), `origin` the server
    /// whose transfer ledger carries the entry, and `fseq` the per-
    /// `(origin, dest)` write-ahead transfer sequence number used for
    /// exactly-once application across failovers.
    Forward {
        origin: Rank,
        dest: Rank,
        fseq: u64,
        task: Task,
    },
    StealReq {
        thief: Rank,
        work_types: Vec<u32>,
        /// How many clients are starved at the thief — a sizing hint; the
        /// victim donates at least this many tasks when it has them (and
        /// never less than half its eligible queue).
        need: u32,
    },
    /// Stolen tasks, shipped under the same write-ahead transfer protocol
    /// as [`ServerMsg::Forward`] (`fseq == 0` marks an empty response,
    /// which transfers nothing and is not replicated).
    StealResp {
        origin: Rank,
        dest: Rank,
        fseq: u64,
        tasks: Vec<Task>,
    },
    /// Termination-detection poll from the master.
    Check { round: u64 },
    CheckResp {
        round: u64,
        quiescent: bool,
        epoch: u64,
        fwd_out: u64,
        fwd_in: u64,
    },
    /// Global shutdown, carrying the (capped) quarantine reports gathered
    /// by the master so every server can hand them to its clients.
    Shutdown { reports: Vec<String> },
    /// Liveness beacon between servers (membership protocol). Any message
    /// counts as a heartbeat; this one exists for otherwise-idle servers.
    Heartbeat,
    /// Write-through replication: state-changing ops a primary streams to
    /// the ring successors holding its replica ledger.
    Repl { ops: Vec<ReplOp> },
    /// Receiver has durably applied transfer `fseq` from `origin`'s ledger
    /// toward home `dest`; the sender may retire the write-ahead entry.
    XferAck { origin: Rank, dest: Rank, fseq: u64 },
    /// Sent as a server's very last message after global termination: every
    /// shutdown `NoMore` this server owed its clients precedes the `Bye`
    /// in its send stream, and sends complete in program order — so a
    /// delivered `Bye` is a receipt that those notices left too. Peers
    /// linger until every live peer says `Bye`; a peer that dies instead
    /// gets its replica promoted so its stranded clients still get their
    /// shutdown notices.
    Bye,
    /// One bounded chunk of a full ledger streamed to a replica holder —
    /// when a server first gains the holder, or (re-replication) after a
    /// promotion absorbed a dead server's ledger. `data` covers bytes `[cursor, cursor + data.len())` of a `total`-byte
    /// serialized [`crate::Ledger`]; `sync_id` is monotonic per sender so a
    /// restarted sync supersedes any chunks of the previous one still in
    /// flight. The receiver acks each chunk with [`ServerMsg::SyncAck`]
    /// carrying its contiguous high-water, which is also the resume point:
    /// the sender may re-send from any acked cursor.
    ReplSync {
        sync_id: u64,
        cursor: u64,
        total: u64,
        data: Bytes,
    },
    /// Receiver holds the first `cursor` contiguous bytes of sync
    /// `sync_id`; the sender streams the next chunk from there (or retires
    /// the sync when `cursor == total`).
    SyncAck { sync_id: u64, cursor: u64 },
}

pub(crate) fn put_u32_list(w: &mut WireWriter, v: &[u32]) {
    w.put_u32(v.len() as u32);
    for x in v {
        w.put_u32(*x);
    }
}

pub(crate) fn get_u32_list(r: &mut WireReader) -> Result<Vec<u32>, WireError> {
    let n = r.get_u32()? as usize;
    (0..n).map(|_| r.get_u32()).collect()
}

pub(crate) fn put_str_list(w: &mut WireWriter, v: &[String]) {
    w.put_u32(v.len() as u32);
    for s in v {
        w.put_str(s);
    }
}

pub(crate) fn get_str_list(r: &mut WireReader) -> Result<Vec<String>, WireError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.get_str()?.to_string());
    }
    Ok(out)
}

impl Request {
    /// Serialize the request body. The wire form additionally carries the
    /// client's sequence number — see [`seal_seq`].
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Whether the server answers this request. Acks and output are
    /// fire-and-forget; so is a batch whose every write is followed by a
    /// `TaskDone` (which takes over the write's error). Client and server
    /// both decide by this one rule.
    pub fn wants_reply(&self) -> bool {
        match self {
            Request::TaskDone { .. } | Request::Output { .. } => false,
            Request::Batch(ops) => ops
                .iter()
                .rev()
                .take_while(|r| !matches!(r, Request::TaskDone { .. }))
                .any(|r| !matches!(r, Request::Output { .. })),
            _ => true,
        }
    }

    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            Request::Put(t) => {
                w.put_u8(0);
                t.encode_into(w);
            }
            Request::Get {
                work_types,
                max_tasks,
                tenant,
            } => {
                w.put_u8(1);
                put_u32_list(w, work_types);
                w.put_u32(*max_tasks);
                w.put_i64(tenant.map(|t| t as i64).unwrap_or(-1));
            }
            Request::Finished => {
                w.put_u8(2);
            }
            Request::DataCreate { id, type_tag } => {
                w.put_u8(3);
                w.put_u64(*id);
                w.put_u8(*type_tag);
            }
            Request::DataStore { id, value } => {
                w.put_u8(4);
                w.put_u64(*id);
                w.put_bytes(value);
            }
            Request::DataRetrieve { id } => {
                w.put_u8(5);
                w.put_u64(*id);
            }
            Request::DataSubscribe {
                id,
                rank,
                notify_closed,
            } => {
                w.put_u8(6);
                w.put_u64(*id);
                w.put_u64(*rank as u64);
                w.put_u8(*notify_closed as u8);
            }
            Request::DataInsert { id, key, value } => {
                w.put_u8(7);
                w.put_u64(*id);
                w.put_str(key);
                w.put_bytes(value);
            }
            Request::DataLookup { id, key } => {
                w.put_u8(8);
                w.put_u64(*id);
                w.put_str(key);
            }
            Request::DataEnumerate { id } => {
                w.put_u8(9);
                w.put_u64(*id);
            }
            Request::DataClose { id } => {
                w.put_u8(10);
                w.put_u64(*id);
            }
            Request::DataExists { id } => {
                w.put_u8(11);
                w.put_u64(*id);
            }
            Request::DataIncrWriters { id, delta } => {
                w.put_u8(12);
                w.put_u64(*id);
                w.put_i64(*delta);
            }
            Request::TaskDone { ok, error } => {
                w.put_u8(13);
                w.put_u8(*ok as u8);
                w.put_str(error);
            }
            Request::Batch(ops) => {
                w.put_u8(14);
                w.put_u32(ops.len() as u32);
                for op in ops {
                    op.encode_into(w);
                }
            }
            Request::Output { text, tenant } => {
                w.put_u8(16);
                w.put_str(text);
                w.put_u32(*tenant);
            }
        }
    }

    /// Deserialize a sealed wire message into `(request, seq)` (payload
    /// bytes copied out of `buf`). The live protocol paths use
    /// [`Request::decode_shared`]; this form decodes from a bare slice for
    /// tests and tooling.
    #[allow(dead_code)]
    pub fn decode(buf: &[u8]) -> Result<(Request, u64), WireError> {
        Self::decode_reader(WireReader::new(buf))
    }

    /// Deserialize a sealed wire message from an arrival buffer; task
    /// payloads alias `buf` (zero-copy) instead of being copied out of it.
    pub fn decode_shared(buf: &Bytes) -> Result<(Request, u64), WireError> {
        Self::decode_reader(WireReader::shared(buf))
    }

    fn decode_reader(mut r: WireReader) -> Result<(Request, u64), WireError> {
        let req = Self::decode_body(&mut r, true)?;
        let seq = r.get_u64()?;
        r.expect_end()?;
        Ok((req, seq))
    }

    /// `top` is false inside a batch, where a nested batch is malformed
    /// (hostile bytes must not buy unbounded recursion).
    fn decode_body(r: &mut WireReader, top: bool) -> Result<Request, WireError> {
        let req = match r.get_u8()? {
            0 => Request::Put(Task::decode_from(r)?),
            1 => Request::Get {
                work_types: get_u32_list(r)?,
                max_tasks: r.get_u32()?,
                tenant: match r.get_i64()? {
                    -1 => None,
                    t => Some(t as u32),
                },
            },
            2 => Request::Finished,
            3 => Request::DataCreate {
                id: r.get_u64()?,
                type_tag: r.get_u8()?,
            },
            4 => Request::DataStore {
                id: r.get_u64()?,
                value: Bytes::copy_from_slice(r.get_bytes()?),
            },
            5 => Request::DataRetrieve { id: r.get_u64()? },
            6 => Request::DataSubscribe {
                id: r.get_u64()?,
                rank: r.get_u64()? as Rank,
                notify_closed: r.get_u8()? != 0,
            },
            7 => Request::DataInsert {
                id: r.get_u64()?,
                key: r.get_str()?.to_string(),
                value: Bytes::copy_from_slice(r.get_bytes()?),
            },
            8 => Request::DataLookup {
                id: r.get_u64()?,
                key: r.get_str()?.to_string(),
            },
            9 => Request::DataEnumerate { id: r.get_u64()? },
            10 => Request::DataClose { id: r.get_u64()? },
            11 => Request::DataExists { id: r.get_u64()? },
            12 => Request::DataIncrWriters {
                id: r.get_u64()?,
                delta: r.get_i64()?,
            },
            13 => Request::TaskDone {
                ok: r.get_u8()? != 0,
                error: r.get_str()?.to_string(),
            },
            14 if top => {
                let n = r.get_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ops.push(Self::decode_body(r, false)?);
                }
                Request::Batch(ops)
            }
            16 => {
                let text = r.get_str()?.to_string();
                Request::Output {
                    text,
                    tenant: r.get_u32()?,
                }
            }
            _ => {
                return Err(WireError {
                    context: "unknown request kind",
                    offset: 0,
                })
            }
        };
        Ok(req)
    }
}

impl Response {
    /// Serialize for the wire.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.finish()
    }

    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            Response::Ok => {
                w.put_u8(0);
            }
            Response::Bool(b) => {
                w.put_u8(1);
                w.put_u8(*b as u8);
            }
            Response::MaybeBytes(opt) => {
                w.put_u8(2);
                match opt {
                    Some(b) => {
                        w.put_u8(1);
                        w.put_bytes(b);
                    }
                    None => {
                        w.put_u8(0);
                    }
                }
            }
            Response::Pairs(pairs) => {
                w.put_u8(3);
                w.put_u32(pairs.len() as u32);
                for (k, v) in pairs {
                    w.put_str(k);
                    w.put_bytes(v);
                }
            }
            Response::DeliverTask(t) => {
                w.put_u8(4);
                t.encode_into(w);
            }
            Response::NoMore {
                quarantined,
                aborted,
            } => {
                w.put_u8(5);
                put_str_list(w, quarantined);
                match aborted {
                    None => {
                        w.put_u8(0);
                    }
                    Some(a) => {
                        w.put_u8(1);
                        w.put_str(a);
                    }
                }
            }
            Response::Error(e) => {
                w.put_u8(6);
                w.put_str(e);
            }
            Response::DeliverBatch(tasks) => {
                w.put_u8(7);
                encode_task_list(w, tasks);
            }
            Response::Rejected(tasks) => {
                w.put_u8(8);
                encode_task_list(w, tasks);
            }
            Response::Batch(resps) => {
                w.put_u8(9);
                w.put_u32(resps.len() as u32);
                for r in resps {
                    r.encode_into(w);
                }
            }
        }
    }

    /// Deserialize from the wire (payload bytes copied out of `buf`).
    #[cfg(test)]
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        Self::decode_reader(WireReader::new(buf))
    }

    /// Deserialize from an arrival buffer; task payloads alias `buf`
    /// (zero-copy) instead of being copied out of it.
    #[cfg(test)]
    pub fn decode_shared(buf: &Bytes) -> Result<Response, WireError> {
        Self::decode_reader(WireReader::shared(buf))
    }

    /// Deserialize a sealed response from an arrival buffer into
    /// `(response, seq)`, where `seq` identifies the request it answers.
    /// Clients match the seq against their outstanding request and drop
    /// anything else — a failover may re-send cached responses the client
    /// already consumed, and those duplicates must not be mistaken for
    /// the answer to a later request.
    pub fn decode_sealed(buf: &Bytes) -> Result<(Response, u64), WireError> {
        let mut r = WireReader::shared(buf);
        let resp = Self::decode_body(&mut r, true)?;
        let seq = r.get_u64()?;
        r.expect_end()?;
        Ok((resp, seq))
    }

    #[cfg(test)]
    fn decode_reader(mut r: WireReader) -> Result<Response, WireError> {
        let resp = Self::decode_body(&mut r, true)?;
        r.expect_end()?;
        Ok(resp)
    }

    /// `top` is false inside a batch: batches do not nest.
    fn decode_body(r: &mut WireReader, top: bool) -> Result<Response, WireError> {
        let resp = match r.get_u8()? {
            0 => Response::Ok,
            1 => Response::Bool(r.get_u8()? != 0),
            2 => {
                if r.get_u8()? == 1 {
                    Response::MaybeBytes(Some(Bytes::copy_from_slice(r.get_bytes()?)))
                } else {
                    Response::MaybeBytes(None)
                }
            }
            3 => {
                let n = r.get_u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let k = r.get_str()?.to_string();
                    let v = Bytes::copy_from_slice(r.get_bytes()?);
                    pairs.push((k, v));
                }
                Response::Pairs(pairs)
            }
            4 => Response::DeliverTask(Task::decode_from(r)?),
            5 => {
                let quarantined = get_str_list(r)?;
                let aborted = match r.get_u8()? {
                    0 => None,
                    _ => Some(r.get_str()?.to_string()),
                };
                Response::NoMore {
                    quarantined,
                    aborted,
                }
            }
            6 => Response::Error(r.get_str()?.to_string()),
            7 => Response::DeliverBatch(decode_task_list(r)?),
            8 => Response::Rejected(decode_task_list(r)?),
            9 if top => {
                let n = r.get_u32()? as usize;
                let mut resps = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    resps.push(Self::decode_body(r, false)?);
                }
                Response::Batch(resps)
            }
            _ => {
                return Err(WireError {
                    context: "unknown response kind",
                    offset: 0,
                })
            }
        };
        Ok(resp)
    }
}

/// The wire form of [`ServerMsg::Repl`], from a borrowed batch: the
/// primary keeps its transaction buffer.
pub(crate) fn encode_repl(ops: &[ReplOp]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_u8(7);
    w.put_u32(ops.len() as u32);
    for op in ops {
        op.encode_into(&mut w);
    }
    w.finish()
}

impl ServerMsg {
    /// Serialize for the wire.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        match self {
            ServerMsg::Forward {
                origin,
                dest,
                fseq,
                task,
            } => {
                w.put_u8(0);
                w.put_u64(*origin as u64);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
                task.encode_into(&mut w);
            }
            ServerMsg::StealReq {
                thief,
                work_types,
                need,
            } => {
                w.put_u8(1);
                w.put_u64(*thief as u64);
                put_u32_list(&mut w, work_types);
                w.put_u32(*need);
            }
            ServerMsg::StealResp {
                origin,
                dest,
                fseq,
                tasks,
            } => {
                w.put_u8(2);
                w.put_u64(*origin as u64);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
                encode_task_list(&mut w, tasks);
            }
            ServerMsg::Check { round } => {
                w.put_u8(3);
                w.put_u64(*round);
            }
            ServerMsg::CheckResp {
                round,
                quiescent,
                epoch,
                fwd_out,
                fwd_in,
            } => {
                w.put_u8(4);
                w.put_u64(*round);
                w.put_u8(*quiescent as u8);
                w.put_u64(*epoch);
                w.put_u64(*fwd_out);
                w.put_u64(*fwd_in);
            }
            ServerMsg::Shutdown { reports } => {
                w.put_u8(5);
                put_str_list(&mut w, reports);
            }
            ServerMsg::Heartbeat => {
                w.put_u8(6);
            }
            ServerMsg::Repl { ops } => return encode_repl(ops),
            ServerMsg::XferAck { origin, dest, fseq } => {
                w.put_u8(9);
                w.put_u64(*origin as u64);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
            }
            ServerMsg::Bye => {
                w.put_u8(10);
            }
            ServerMsg::ReplSync {
                sync_id,
                cursor,
                total,
                data,
            } => {
                w.put_u8(11);
                w.put_u64(*sync_id);
                w.put_u64(*cursor);
                w.put_u64(*total);
                w.put_bytes(data);
            }
            ServerMsg::SyncAck { sync_id, cursor } => {
                w.put_u8(12);
                w.put_u64(*sync_id);
                w.put_u64(*cursor);
            }
        }
        w.finish()
    }

    /// Deserialize from the wire (payload bytes copied out of `buf`).
    /// The live protocol paths use [`ServerMsg::decode_shared`]; this form
    /// decodes from a bare slice for tests and tooling.
    #[allow(dead_code)]
    pub fn decode(buf: &[u8]) -> Result<ServerMsg, WireError> {
        Self::decode_reader(WireReader::new(buf))
    }

    /// Deserialize from an arrival buffer; task payloads alias `buf`
    /// (zero-copy) instead of being copied out of it.
    pub fn decode_shared(buf: &Bytes) -> Result<ServerMsg, WireError> {
        Self::decode_reader(WireReader::shared(buf))
    }

    fn decode_reader(mut r: WireReader) -> Result<ServerMsg, WireError> {
        let msg = match r.get_u8()? {
            0 => ServerMsg::Forward {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
                task: Task::decode_from(&mut r)?,
            },
            1 => ServerMsg::StealReq {
                thief: r.get_u64()? as Rank,
                work_types: get_u32_list(&mut r)?,
                need: r.get_u32()?,
            },
            2 => ServerMsg::StealResp {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
                tasks: decode_task_list(&mut r)?,
            },
            3 => ServerMsg::Check {
                round: r.get_u64()?,
            },
            4 => ServerMsg::CheckResp {
                round: r.get_u64()?,
                quiescent: r.get_u8()? != 0,
                epoch: r.get_u64()?,
                fwd_out: r.get_u64()?,
                fwd_in: r.get_u64()?,
            },
            5 => ServerMsg::Shutdown {
                reports: get_str_list(&mut r)?,
            },
            6 => ServerMsg::Heartbeat,
            7 => {
                let n = r.get_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ops.push(ReplOp::decode_from(&mut r)?);
                }
                ServerMsg::Repl { ops }
            }
            9 => ServerMsg::XferAck {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
            },
            10 => ServerMsg::Bye,
            11 => ServerMsg::ReplSync {
                sync_id: r.get_u64()?,
                cursor: r.get_u64()?,
                total: r.get_u64()?,
                data: r.get_bytes_shared()?,
            },
            12 => ServerMsg::SyncAck {
                sync_id: r.get_u64()?,
                cursor: r.get_u64()?,
            },
            _ => {
                return Err(WireError {
                    context: "unknown server message kind",
                    offset: 0,
                })
            }
        };
        r.expect_end()?;
        Ok(msg)
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
                Request::DataCreate { id: 7, type_tag: 3 },
                Request::Put(task(1, 3, None)),
                Request::TaskDone {
                    ok: false,
                    error: "boom".into(),
                },
            ]),
            Request::Batch(vec![]),
            Request::Finished,
            Request::TaskDone {
                ok: true,
                error: String::new(),
            },
            Request::TaskDone {
                ok: false,
                error: "NameError: x is not defined".into(),
            },
            Request::Output {
                text: "line one\nline two\n".into(),
                tenant: 2,
            },
            Request::DataCreate { id: 7, type_tag: 3 },
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
            Request::DataClose { id: 2 },
            Request::DataExists { id: 0 },
            Request::DataIncrWriters { id: 3, delta: -1 },
        ];
        for (i, c) in cases.into_iter().enumerate() {
            let seq = i as u64 + 1;
            let wire = seal_seq(&c.encode(), seq);
            assert_eq!(Request::decode(&wire).unwrap(), (c, seq));
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
            Response::DeliverTask(task(2, 0, Some(0))),
            Response::DeliverBatch(vec![task(1, 5, None), task(1, 4, None), task(1, 3, None)]),
            Response::DeliverBatch(vec![]),
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
        let inner = Request::Batch(vec![Request::Finished]);
        let wire = seal_seq(&Request::Batch(vec![inner]).encode(), 1);
        assert!(Request::decode(&wire).is_err());
        let inner = Response::Batch(vec![Response::Ok]);
        assert!(Response::decode(&Response::Batch(vec![inner]).encode()).is_err());
    }

    #[test]
    fn a_batch_is_silent_only_when_acks_cover_every_write() {
        let done = || Request::TaskDone {
            ok: true,
            error: String::new(),
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
        assert!(store().wants_reply());
        assert!(!Request::Batch(vec![store(), out(), done()]).wants_reply());
        assert!(!Request::Batch(vec![store(), done(), out()]).wants_reply());
        assert!(Request::Batch(vec![store(), done(), store()]).wants_reply());
        assert!(Request::Batch(vec![store(), out()]).wants_reply());
        assert!(!Request::Batch(vec![]).wants_reply());
    }

    #[test]
    fn server_msg_round_trips() {
        let cases = vec![
            ServerMsg::Forward {
                origin: 9,
                dest: 8,
                fseq: 4,
                task: task(1, 2, Some(5)),
            },
            ServerMsg::StealReq {
                thief: 8,
                work_types: vec![1],
                need: 3,
            },
            ServerMsg::StealResp {
                origin: 9,
                dest: 8,
                fseq: 2,
                tasks: vec![task(1, 0, None), task(1, 9, None)],
            },
            ServerMsg::StealResp {
                origin: 9,
                dest: 8,
                fseq: 0,
                tasks: vec![],
            },
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
        let enc = seal_seq(&Request::Put(task(1, 1, None)).encode(), 1);
        assert!(Request::decode(&enc[..enc.len() - 1]).is_err());
        assert!(Request::decode(&[99]).is_err());
    }

    #[test]
    fn shared_decode_aliases_payloads() {
        // decode_shared must hand back payloads that point into the wire
        // message's own allocation — the zero-copy receive path.
        let batch = Response::DeliverBatch(vec![task(1, 0, None), task(1, 1, None)]);
        let wire = batch.encode();
        let lo = wire.as_ptr() as usize;
        let hi = lo + wire.len();
        match Response::decode_shared(&wire).unwrap() {
            Response::DeliverBatch(tasks) => {
                assert_eq!(tasks.len(), 2);
                for t in &tasks {
                    let p = t.payload.as_ptr() as usize;
                    assert!(p >= lo && p + t.payload.len() <= hi, "payload was copied");
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // The copying decoder must NOT alias (callers may hold the payload
        // after the arrival buffer is gone — here both are owned, but the
        // contract is distinct allocations).
        let sealed = seal_seq(&Request::Put(task(1, 0, None)).encode(), 5);
        match Request::decode_shared(&sealed).unwrap() {
            (Request::Put(t), 5) => assert_eq!(&t.payload[..], &task(1, 0, None).payload[..]),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
