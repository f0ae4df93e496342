//! The recoverable state of a server and the op log that changes it.
//!
//! Every server owns one [`Ledger`] — its data shard, queued tasks, open
//! leases, per-client request bookkeeping, and write-ahead task transfers
//! — *and serves from it*: the live shard is the ledger, not a copy of
//! it. Each recoverable mutation is a [`ReplOp`] applied by
//! [`Ledger::apply`]; the same op is what the primary streams to the first
//! `R - 1` live ring successors ([`crate::Layout::successors`]) and
//! appends to its WAL, and the same `apply` is what those holders, a
//! chunked-sync replay and a WAL replay run. Ops are shipped *before* any
//! client-visible response leaves the server (write-through), so at
//! `R >= 2` a replica is always at least as new as anything a client has
//! observed. On a confirmed death the first live successor
//! [`Ledger::absorb`]s the dead server's ledger into its own and serves
//! the shard in its place.
//!
//! What is deliberately *not* in the ledger: parked `Get`s (clients
//! re-send them on failover), steal/backoff heuristics, fair-scheduler
//! deficits and tenant lease counts (recomputed), termination rounds, and
//! monitoring counters — all either reconstructible or harmless to lose.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use mpisim::{trace, wire_enum, Rank, Wire, WireError, WireReader, WireWriter};

#[cfg(test)]
use crate::datastore::TYPE_TAG_CONTAINER;
use crate::datastore::{DataError, DataStore};
use crate::msg::Task;
use crate::queue::WorkQueue;

wire_enum! {
    /// One state-changing operation against a server's [`Ledger`]: applied
    /// by the primary, then streamed to its replica holders and its WAL. The
    /// op stream from a primary is applied in order; each handler's ops are
    /// shipped in one [`ServerMsg::Repl`] batch, which the simulator delivers
    /// atomically — a kill can land between messages, never inside one.
    ///
    /// [`ServerMsg::Repl`]: crate::msg::ServerMsg::Repl
    #[derive(Debug, Clone, PartialEq)]
    pub enum ReplOp: "repl op" {
        /// Datum created ([`DataStore::create`]), with the leaf reads STC
        /// counted for it (`None`: uncounted, never freed).
        0 => Create {
            id: u64,
            type_tag: u8,
            reads: Option<u32>,
        },
        /// Scalar stored and closed. Drained subscribers are not carried
        /// here: their notify tasks are replicated as task ops in the same
        /// batch.
        1 => Store { id: u64, value: Bytes },
        /// Container member inserted.
        2 => Insert { id: u64, key: String, value: Bytes },
        /// Writer slot count adjusted (may close the datum).
        4 => IncrWriters { id: u64, delta: i64 },
        /// Rank subscribed to an open datum.
        5 => Subscribe { id: u64, rank: Rank },
        /// Tasks entered the work queue.
        6 => Push { tasks: Vec<Task> },
        /// Tasks left the work queue (delivery or donation). Always explicit —
        /// a [`ReplOp::LeaseOpen`] alone does *not* imply removal, because
        /// direct deliveries to a parked client never touch the queue.
        7 => Remove { tasks: Vec<Task> },
        /// Tasks leased to a client (delivered, awaiting ack).
        8 => LeaseOpen { client: Rank, tasks: Vec<Task> },
        /// The client's `n` oldest leases were acknowledged.
        9 => LeaseDrop { client: Rank, n: u32 },
        /// `client` was detected dead: permanently parked, leases dropped
        /// (its requeued tasks arrive as separate task ops). Tags 10 and
        /// 11 are retired: a lease ends only with its holder.
        12 => ClientDead { client: Rank },
        /// `client`'s request `seq` to home server `home` was fully
        /// processed; `resp` caches the encoded response when the request was
        /// awaited, so a promoted successor can answer a re-sent duplicate
        /// byte-for-byte.
        13 => SeqResp {
            home: Rank,
            client: Rank,
            seq: u64,
            resp: Option<Bytes>,
        },
        /// Streamed stdout from `client` on behalf of `tenant`.
        14 => Out {
            client: Rank,
            text: String,
            tenant: u32,
        },
        /// `client` reported it will issue no further requests.
        15 => ClientFinished { client: Rank },
        /// Write-ahead record of a task transfer toward home server `dest`
        /// (forward or steal donation), logged *before* the tasks are sent.
        16 => XferOut {
            dest: Rank,
            fseq: u64,
            steal: bool,
            tasks: Vec<Task>,
        },
        /// Transfer acknowledged by the receiver; the write-ahead entry is
        /// retired. `origin` is explicit because a promoted server also
        /// retires entries it inherited from the dead primary.
        17 => XferDone { origin: Rank, dest: Rank, fseq: u64 },
        /// The ledger owner applied transfer `fseq` from `origin`'s ledger
        /// toward home `dest` (`n` tasks; the tasks themselves ride in
        /// adjacent task ops of the same batch).
        18 => XferIn {
            origin: Rank,
            dest: Rank,
            fseq: u64,
            n: u64,
        },
        /// A task was quarantined with this report.
        19 => Quarantine { report: String },
        /// `n` leaf reads of a counted datum were released
        /// ([`DataStore::release`]); the datum is freed if that closes its
        /// count.
        20 => Release { id: u64, n: u32 },
    }
}

/// A write-ahead task transfer entry: `origin`'s ledger still owes the
/// tasks to home server `dest` until the receiver acknowledges `fseq`.
/// The entry is also the transfer's wire form ([`ServerMsg::Xfer`]).
///
/// [`ServerMsg::Xfer`]: crate::msg::ServerMsg::Xfer
#[derive(Debug, Clone)]
pub struct Xfer {
    /// Server whose ledger carries the entry (the original sender, which
    /// may be dead by the time the entry is re-driven).
    pub origin: Rank,
    /// Home server the tasks belong to (may itself be dead — the wire
    /// message is then addressed to its promoted successor).
    pub dest: Rank,
    /// Per-`(origin, dest)` transfer sequence number, from 1.
    pub fseq: u64,
    /// Whether the transfer answers a steal request: the receiver takes
    /// it as its steal's answer, not as a forward.
    pub steal: bool,
    /// The tasks in flight.
    pub tasks: Vec<Task>,
    /// Where the owning server last sent the wire message. Live-only —
    /// never encoded or compared: `None` on a replica, and on an entry
    /// inherited from a dead peer's ledger that was not yet re-driven.
    pub sent_to: Option<Rank>,
}

impl PartialEq for Xfer {
    fn eq(&self, o: &Self) -> bool {
        (self.origin, self.dest, self.fseq, self.steal) == (o.origin, o.dest, o.fseq, o.steal)
            && self.tasks == o.tasks
    }
}

/// `sent_to` is live-only: never encoded, and `None` when decoded.
impl Wire for Xfer {
    fn put(&self, w: &mut WireWriter) {
        w.put(&self.origin)
            .put(&self.dest)
            .put(&self.fseq)
            .put(&self.steal)
            .put(&self.tasks);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Xfer, WireError> {
        Ok(Xfer {
            origin: Wire::get(r)?,
            dest: Wire::get(r)?,
            fseq: Wire::get(r)?,
            steal: Wire::get(r)?,
            tasks: Wire::get(r)?,
            sent_to: None,
        })
    }
}

/// An in-flight task: delivered to a client, not yet acknowledged.
#[derive(Debug, Clone)]
pub struct Lease {
    /// The leased task.
    pub task: Task,
    /// When the server first accepted the task (µs on the holder's trace
    /// clock; 0 untraced). A trace annotation, never encoded or compared.
    pub accepted_us: u64,
}

impl PartialEq for Lease {
    fn eq(&self, other: &Self) -> bool {
        self.task == other.task
    }
}

/// What applying one [`ReplOp`] did that its primary must act on.
/// Replica holders and replays drop it.
#[derive(Debug, Default)]
pub struct Applied {
    /// Subscribers drained by a datum close, to be notified.
    pub subscribers: Vec<Rank>,
    /// Leases released (`LeaseDrop`) or dropped with their dead holder
    /// (`ClientDead`), oldest first.
    pub leases: Vec<Lease>,
    /// A data op the store refused. Nothing changed, so the op must not
    /// be logged: re-executing it after a failover yields the same error.
    pub error: Option<DataError>,
    /// The op freed its datum (closed with no leaf read to come).
    pub freed: bool,
}

/// The recoverable state of one ADLB server, in the representations the
/// server serves from. A server's own shard is one `Ledger`; it holds one
/// more per ring predecessor it backs. [`Ledger::apply`] is the only code
/// that mutates one op at a time — the primary's request handlers, the
/// replica holders, chunked-sync replay and WAL replay all go through it —
/// and [`Ledger::absorb`] is the only bulk merge.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// The data shard (futures and containers).
    pub store: DataStore,
    /// Queued tasks.
    pub queue: WorkQueue,
    /// Open leases per client, oldest first (clients acknowledge in
    /// delivery order).
    pub leases: HashMap<Rank, VecDeque<Lease>>,
    /// Request dedup high-water mark per `(home, client)`. A client
    /// numbers its requests in one sequence across all servers, so only
    /// the requests it addressed to one home arrive in seq order: once a
    /// server has promoted a dead home, that home's re-sent (older)
    /// requests and the client's direct (newer) ones interleave, and one
    /// mark per client would drop the former as duplicates.
    pub seqs: HashMap<(Rank, Rank), u64>,
    /// Cached encoded response for the last awaited request of each
    /// `(home, client)`.
    pub resps: HashMap<(Rank, Rank), (u64, Bytes)>,
    /// Accumulated stdout stream per `(client, tenant)`.
    pub outputs: HashMap<(Rank, u32), String>,
    /// Clients that are permanently parked (finished or dead).
    pub finished: HashSet<Rank>,
    /// Quarantine reports.
    pub quarantine: Vec<String>,
    /// Unacknowledged outbound task transfers.
    pub pending_xfers: Vec<Xfer>,
    /// Last used outbound transfer seq per destination home.
    pub next_fseq: HashMap<Rank, u64>,
    /// Applied inbound transfer high-water per `(dest home, origin)`.
    pub xfer_applied: HashMap<(Rank, Rank), u64>,
    /// Tasks forwarded/donated away (termination-detection flow counter).
    pub fwd_out: u64,
    /// Tasks received from peers (termination-detection flow counter).
    pub fwd_in: u64,
    /// How many dead peers' ledgers the owning server has absorbed into
    /// this state (its failover count). This is the replica freshness
    /// version: a copy is promotable only if its `merges` covers every
    /// promotion the holder has observed the owner perform, because the
    /// bulk absorbed during a promotion never flows through the
    /// incremental op stream — only a full (re)sync carries it. Comparing
    /// versions makes staleness a property of the data rather than of
    /// message arrival order.
    pub merges: u64,
}

/// Leases on `tasks`, opened now on this holder's trace clock.
fn leases_from_now(tasks: impl IntoIterator<Item = Task>) -> impl Iterator<Item = Lease> {
    let accepted_us = trace::now_us();
    tasks
        .into_iter()
        .map(move |task| Lease { task, accepted_us })
}

fn raise<K: std::hash::Hash + Eq>(marks: &mut HashMap<K, u64>, key: K, to: u64) {
    let hw = marks.entry(key).or_default();
    *hw = (*hw).max(to);
}

impl Ledger {
    /// Apply one op of `owner`'s op stream.
    pub fn apply(&mut self, owner: Rank, op: ReplOp) -> Applied {
        let mut out = Applied::default();
        let closed = |r: Result<Vec<Rank>, DataError>, out: &mut Applied| match r {
            Ok(subscribers) => out.subscribers = subscribers,
            Err(e) => out.error = Some(e),
        };
        let closes = match op {
            ReplOp::Store { id, .. }
            | ReplOp::IncrWriters { id, .. }
            | ReplOp::Release { id, .. } => Some(id),
            _ => None,
        };
        match op {
            ReplOp::Create {
                id,
                type_tag,
                reads,
            } => out.error = self.store.create(id, type_tag, reads).err(),
            ReplOp::Store { id, value } => closed(self.store.store(id, value), &mut out),
            ReplOp::Insert { id, key, value } => {
                out.error = self.store.insert(id, &key, value).err();
            }
            ReplOp::IncrWriters { id, delta } => {
                closed(self.store.incr_writers(id, delta), &mut out);
            }
            ReplOp::Subscribe { id, rank } => out.error = self.store.subscribe(id, rank).err(),
            ReplOp::Push { tasks } => {
                for t in tasks {
                    self.queue.push(t);
                }
            }
            ReplOp::Remove { tasks } => {
                for t in &tasks {
                    self.queue.remove(t);
                }
            }
            ReplOp::LeaseOpen { client, tasks } => {
                self.leases
                    .entry(client)
                    .or_default()
                    .extend(leases_from_now(tasks));
            }
            ReplOp::LeaseDrop { client, n } => {
                if let Some(deque) = self.leases.get_mut(&client) {
                    let n = (n as usize).min(deque.len());
                    out.leases.extend(deque.drain(..n));
                    if deque.is_empty() {
                        self.leases.remove(&client);
                    }
                }
            }
            ReplOp::ClientDead { client } => {
                self.finished.insert(client);
                out.leases = self.leases.remove(&client).unwrap_or_default().into();
            }
            ReplOp::SeqResp {
                home,
                client,
                seq,
                resp,
            } => {
                raise(&mut self.seqs, (home, client), seq);
                if let Some(bytes) = resp {
                    self.resps.insert((home, client), (seq, bytes));
                }
            }
            ReplOp::Out {
                client,
                text,
                tenant,
            } => self
                .outputs
                .entry((client, tenant))
                .or_default()
                .push_str(&text),
            ReplOp::ClientFinished { client } => {
                self.finished.insert(client);
            }
            ReplOp::XferOut {
                dest,
                fseq,
                steal,
                tasks,
            } => {
                raise(&mut self.next_fseq, dest, fseq);
                self.fwd_out += tasks.len() as u64;
                self.pending_xfers.push(Xfer {
                    origin: owner,
                    dest,
                    fseq,
                    steal,
                    tasks,
                    sent_to: None,
                });
            }
            ReplOp::XferDone { origin, dest, fseq } => {
                self.pending_xfers
                    .retain(|x| (x.origin, x.dest, x.fseq) != (origin, dest, fseq));
            }
            ReplOp::XferIn {
                origin,
                dest,
                fseq,
                n,
            } => {
                raise(&mut self.xfer_applied, (dest, origin), fseq);
                self.fwd_in += n;
            }
            ReplOp::Quarantine { report } => self.quarantine.push(report),
            ReplOp::Release { id, n } => out.error = self.store.release(id, n).err(),
        }
        out.freed = closes.is_some_and(|id| out.error.is_none() && !self.store.contains(id));
        out
    }

    /// Merge a recovered ledger into this one: a dead peer's replica at
    /// promotion, a shard restored from pfs, or this server's own slice at
    /// `--resume`. `homes` names the dead servers whose shards `other`
    /// carried (none on a resume, which takes over nobody): absorbing any
    /// bumps [`Ledger::merges`], because copies of this ledger taken
    /// before now are missing the bulk.
    ///
    /// Absorbed leases take this holder's trace clock: an accept stamp
    /// is local to the clock of whoever took the task.
    pub fn absorb(&mut self, other: Ledger, homes: &[Rank]) {
        if !homes.is_empty() {
            self.merges += 1;
        }
        self.store.merge(other.store);
        self.queue.absorb(other.queue);
        for (c, deque) in other.leases {
            self.leases
                .entry(c)
                .or_default()
                .extend(leases_from_now(deque.into_iter().map(|l| l.task)));
        }
        for (key, seq) in other.seqs {
            raise(&mut self.seqs, key, seq);
        }
        for (key, resp) in other.resps {
            if self.resps.get(&key).is_none_or(|mine| mine.0 < resp.0) {
                self.resps.insert(key, resp);
            }
        }
        for (key, text) in other.outputs {
            self.outputs.entry(key).or_default().push_str(&text);
        }
        self.finished.extend(other.finished);
        for q in other.quarantine {
            if !self.quarantine.contains(&q) {
                self.quarantine.push(q);
            }
        }
        // `sent_to` is cleared: the entries are this server's to re-drive.
        self.pending_xfers.extend(
            other
                .pending_xfers
                .into_iter()
                .map(|x| Xfer { sent_to: None, ..x }),
        );
        // `next_fseq` merges by max. A dead peer's counters number
        // transfers with origin = that peer, so this server's own
        // numbering (origin = me) does not strictly need them — but
        // folding them in keeps the checkpoint written after a promotion
        // a safe upper bound for ANY origin it covers: a whole-world
        // resume hands the merged counters back to the subsumed home,
        // whose fresh transfers must outnumber everything receivers have
        // durably applied from it. Gaps in a sender's fseq sequence are
        // harmless (receiver dedup is a high-water mark).
        for (dest, f) in other.next_fseq {
            raise(&mut self.next_fseq, dest, f);
        }
        for (key, f) in other.xfer_applied {
            raise(&mut self.xfer_applied, key, f);
        }
        self.fwd_out += other.fwd_out;
        self.fwd_in += other.fwd_in;
    }

    /// Give `client`'s newest leases the accept stamps of the queue
    /// entries they were delivered from (`accepted_us[i]` for the `i`-th
    /// newest-batch lease), so task-latency spans run accept → ack.
    pub(crate) fn backdate_leases(&mut self, client: Rank, accepted_us: &[u64]) {
        if let Some(deque) = self.leases.get_mut(&client) {
            let skip = deque.len().saturating_sub(accepted_us.len());
            for (lease, us) in deque.iter_mut().skip(skip).zip(accepted_us) {
                lease.accepted_us = *us;
            }
        }
    }
}

/// The full ledger, as a sync stream or checkpoint segment carries it:
/// the store, then the queue and the leases as task lists, then every
/// other map and counter in field order. Decoding rebuilds the queue by
/// pushing its tasks back in delivery order, and stamps leases and queue
/// entries as accepted now.
impl Wire for Ledger {
    fn put(&self, w: &mut WireWriter) {
        w.put(&self.store).put_seq(self.queue.tasks());
        w.put_u32(self.leases.len() as u32);
        for (client, deque) in &self.leases {
            w.put(client).put_seq(deque.iter().map(|l| &l.task));
        }
        w.put(&self.seqs)
            .put(&self.resps)
            .put(&self.outputs)
            .put(&self.finished)
            .put(&self.quarantine)
            .put(&self.pending_xfers)
            .put(&self.next_fseq)
            .put(&self.xfer_applied)
            .put(&self.fwd_out)
            .put(&self.fwd_in)
            .put(&self.merges);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Ledger, WireError> {
        let store = Wire::get(r)?;
        let mut queue = WorkQueue::default();
        for t in Vec::<Task>::get(r)? {
            queue.push(t);
        }
        let leases: HashMap<Rank, Vec<Task>> = Wire::get(r)?;
        let leases = leases
            .into_iter()
            .map(|(client, tasks)| (client, leases_from_now(tasks).collect()))
            .collect();
        Ok(Ledger {
            store,
            queue,
            leases,
            seqs: Wire::get(r)?,
            resps: Wire::get(r)?,
            outputs: Wire::get(r)?,
            finished: Wire::get(r)?,
            quarantine: Wire::get(r)?,
            pending_xfers: Wire::get(r)?,
            next_fseq: Wire::get(r)?,
            xfer_applied: Wire::get(r)?,
            fwd_out: Wire::get(r)?,
            fwd_in: Wire::get(r)?,
            merges: Wire::get(r)?,
        })
    }
}

impl ReplOp {
    /// Merge adjacent ops of one transaction that say the same thing
    /// about the same subject — per-ack `LeaseDrop`, per-task `Push`/`Remove`
    /// — so a batch logs (and ships, and replays) one op where its handler
    /// committed many.
    pub(crate) fn coalesce(ops: &mut Vec<ReplOp>) {
        ops.dedup_by(|next, prev| match (prev, next) {
            (ReplOp::LeaseDrop { client: a, n }, ReplOp::LeaseDrop { client: b, n: m })
                if a == b =>
            {
                *n += *m;
                true
            }
            (ReplOp::Push { tasks }, ReplOp::Push { tasks: more })
            | (ReplOp::Remove { tasks }, ReplOp::Remove { tasks: more }) => {
                tasks.append(more);
                true
            }
            _ => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(p: i32) -> Task {
        Task::new(1, p, None, Bytes::from_static(b"work"))
    }

    fn lease(p: i32) -> Lease {
        Lease {
            task: task(p),
            accepted_us: 7,
        }
    }

    /// Every field populated, through the same `apply` the server uses
    /// where an op exists for it.
    fn sample_ledger() -> Ledger {
        let mut l = Ledger::default();
        let ops = [
            ReplOp::Create {
                id: 3,
                type_tag: 0,
                reads: None,
            },
            ReplOp::Create {
                id: 10,
                type_tag: TYPE_TAG_CONTAINER,
                reads: None,
            },
            ReplOp::Create {
                id: 11,
                type_tag: 0,
                reads: Some(2),
            },
            ReplOp::Subscribe { id: 3, rank: 1 },
            ReplOp::Insert {
                id: 10,
                key: "0".into(),
                value: Bytes::from_static(b"member"),
            },
            ReplOp::Push {
                tasks: vec![
                    task(1),
                    task(2),
                    task(2),
                    Task::new(2, 9, Some(4), Bytes::from_static(b"pinned")).with_tenant(3),
                ],
            },
            ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(3), task(4)],
            },
            ReplOp::LeaseOpen {
                client: 2,
                tasks: vec![task(5)],
            },
            ReplOp::SeqResp {
                home: 8,
                client: 0,
                seq: 17,
                resp: Some(Bytes::from_static(b"resp")),
            },
            ReplOp::SeqResp {
                home: 9,
                client: 0,
                seq: 12,
                resp: None,
            },
            ReplOp::Out {
                client: 1,
                text: "line\n".into(),
                tenant: 0,
            },
            ReplOp::Out {
                client: 1,
                text: "tenant three\n".into(),
                tenant: 3,
            },
            ReplOp::ClientFinished { client: 4 },
            ReplOp::Quarantine {
                report: "bad task".into(),
            },
            ReplOp::XferOut {
                dest: 9,
                fseq: 2,
                steal: false,
                tasks: vec![task(5)],
            },
            ReplOp::XferIn {
                origin: 9,
                dest: 8,
                fseq: 4,
                n: 2,
            },
        ];
        for op in ops {
            assert!(l.apply(8, op).error.is_none());
        }
        l.merges = 1;
        l
    }

    #[test]
    fn ledger_round_trips() {
        let l = sample_ledger();
        assert_eq!(l.queue.len(), 4);
        let back = Ledger::decode(&l.encode()).unwrap();
        // Queue arrival numbering, accept stamps and lease clocks are the
        // decoder's own; equality is over the tasks.
        assert_eq!(back, l);
        // And it is not vacuous: one queued task fewer is a difference.
        let mut fewer = back.clone();
        assert!(fewer.queue.remove(&task(2)));
        assert_ne!(fewer, l);
    }

    #[test]
    fn decoded_queue_keeps_its_heads() {
        // Same-priority tasks leave a decoded ledger in the order they
        // entered the encoded one, so a replica seeded from a sync stream
        // still removes heap heads in step with its primary.
        let mut l = Ledger::default();
        let tagged = |i: u8| Task::new(1, 0, None, Bytes::from(vec![i]));
        l.apply(
            0,
            ReplOp::Push {
                tasks: (0..50).map(tagged).collect(),
            },
        );
        let mut back = Ledger::decode(&l.encode()).unwrap();
        for i in 0..50 {
            let head = back.queue.peek_untargeted(0, &[1]).unwrap().task.clone();
            assert_eq!(head, tagged(i));
            back.queue.remove(&head);
        }
    }

    #[test]
    fn ops_round_trip() {
        let cases = vec![
            ReplOp::Create {
                id: 1,
                type_tag: 0,
                reads: Some(3),
            },
            ReplOp::Store {
                id: 1,
                value: Bytes::from_static(b"v"),
            },
            ReplOp::Release { id: 1, n: 2 },
            ReplOp::Insert {
                id: 2,
                key: "7".into(),
                value: Bytes::new(),
            },
            ReplOp::IncrWriters { id: 2, delta: -1 },
            ReplOp::Subscribe { id: 1, rank: 3 },
            ReplOp::Push {
                tasks: vec![task(1)],
            },
            ReplOp::Remove {
                tasks: vec![task(1), task(2)],
            },
            ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(1)],
            },
            ReplOp::LeaseDrop { client: 0, n: 2 },
            ReplOp::ClientDead { client: 2 },
            ReplOp::SeqResp {
                home: 8,
                client: 0,
                seq: 9,
                resp: Some(Bytes::from_static(b"ok")),
            },
            ReplOp::SeqResp {
                home: 8,
                client: 0,
                seq: 10,
                resp: None,
            },
            ReplOp::Out {
                client: 1,
                text: "hello\n".into(),
                tenant: 2,
            },
            ReplOp::ClientFinished { client: 1 },
            ReplOp::XferOut {
                dest: 9,
                fseq: 1,
                steal: true,
                tasks: vec![task(8)],
            },
            ReplOp::XferDone {
                origin: 8,
                dest: 9,
                fseq: 1,
            },
            ReplOp::XferIn {
                origin: 9,
                dest: 8,
                fseq: 1,
                n: 4,
            },
            ReplOp::Quarantine {
                report: "poison".into(),
            },
        ];
        for c in cases {
            assert_eq!(ReplOp::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn apply_reports_what_the_primary_acts_on() {
        let mut l = Ledger::default();
        let owner = 8;
        // Data ops: a close hands back the drained subscribers; a refused
        // op says so and changes nothing.
        l.apply(
            owner,
            ReplOp::Create {
                id: 5,
                type_tag: 0,
                reads: None,
            },
        );
        l.apply(owner, ReplOp::Subscribe { id: 5, rank: 2 });
        let stored = l.apply(
            owner,
            ReplOp::Store {
                id: 5,
                value: Bytes::from_static(b"42"),
            },
        );
        assert_eq!(stored.subscribers, vec![2]);
        assert_eq!(l.store.retrieve(5).unwrap().unwrap(), &b"42"[..]);
        let before = l.clone();
        let again = l.apply(
            owner,
            ReplOp::Store {
                id: 5,
                value: Bytes::from_static(b"43"),
            },
        );
        assert!(again.error.unwrap().message.contains("double assignment"));
        let missing = l.apply(owner, ReplOp::IncrWriters { id: 6, delta: -1 });
        assert!(missing.error.is_some());
        l.apply(
            owner,
            ReplOp::Create {
                id: 6,
                type_tag: 0,
                reads: None,
            },
        );
        let before_neg = l.clone();
        assert!(l
            .apply(owner, ReplOp::IncrWriters { id: 6, delta: -2 })
            .error
            .is_some());
        assert_eq!(l, before_neg, "a refused op changes nothing");
        assert_eq!(before.store.len() + 1, l.store.len());
        // A counted datum is freed by the op that closes its count, and
        // only that op says so.
        let create = ReplOp::Create {
            id: 7,
            type_tag: 0,
            reads: Some(1),
        };
        assert!(!l.apply(owner, create).freed);
        let store = ReplOp::Store {
            id: 7,
            value: Bytes::from_static(b"7"),
        };
        assert!(!l.apply(owner, store).freed);
        assert!(l.apply(owner, ReplOp::Release { id: 7, n: 1 }).freed);
        assert!(!l.store.contains(7));
        let missed = l.apply(owner, ReplOp::Release { id: 7, n: 1 });
        assert!(missed.error.is_some() && !missed.freed);

        // Queue + lease ops: drops and a dead holder hand the leases back.
        l.apply(
            owner,
            ReplOp::Push {
                tasks: vec![task(1), task(2)],
            },
        );
        l.apply(
            owner,
            ReplOp::Remove {
                tasks: vec![task(1)],
            },
        );
        assert_eq!(l.queue.tasks(), vec![&task(2)]);
        l.apply(
            owner,
            ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(1), task(3), task(4)],
            },
        );
        let dropped = l.apply(owner, ReplOp::LeaseDrop { client: 0, n: 1 });
        assert_eq!(dropped.leases.len(), 1);
        assert_eq!(dropped.leases[0].task, task(1));
        let dead = l.apply(owner, ReplOp::ClientDead { client: 0 });
        let tasks: Vec<Task> = dead.leases.into_iter().map(|l| l.task).collect();
        assert_eq!(tasks, vec![task(3), task(4)]);
        assert!(l.finished.contains(&0) && l.leases.is_empty());

        // Request bookkeeping is per (home, client).
        for (home, seq, resp) in [(8, 3, Some("r")), (8, 5, None), (9, 4, Some("other home"))] {
            l.apply(
                owner,
                ReplOp::SeqResp {
                    home,
                    client: 0,
                    seq,
                    resp: resp.map(|r| Bytes::from_static(r.as_bytes())),
                },
            );
        }
        assert_eq!(l.seqs[&(8, 0)], 5);
        assert_eq!(l.resps[&(8, 0)].0, 3);
        assert_eq!(l.seqs[&(9, 0)], 4);

        // Transfers.
        l.apply(
            owner,
            ReplOp::XferOut {
                dest: 9,
                fseq: 1,
                steal: false,
                tasks: vec![task(7)],
            },
        );
        assert_eq!(l.pending_xfers.len(), 1);
        assert_eq!(l.pending_xfers[0].origin, owner);
        assert_eq!(l.fwd_out, 1);
        l.apply(
            owner,
            ReplOp::XferDone {
                origin: owner,
                dest: 9,
                fseq: 1,
            },
        );
        assert!(l.pending_xfers.is_empty());
        l.apply(
            owner,
            ReplOp::XferIn {
                origin: 9,
                dest: owner,
                fseq: 2,
                n: 3,
            },
        );
        assert_eq!(l.xfer_applied[&(owner, 9)], 2);
        assert_eq!(l.fwd_in, 3);
    }

    #[test]
    fn coalesce_merges_only_adjacent_like_ops() {
        let mut ops = vec![
            ReplOp::Remove {
                tasks: vec![task(1)],
            },
            ReplOp::Remove {
                tasks: vec![task(2)],
            },
            ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(1), task(2)],
            },
            ReplOp::LeaseDrop { client: 0, n: 1 },
            ReplOp::LeaseDrop { client: 0, n: 1 },
            ReplOp::LeaseDrop { client: 1, n: 1 },
            ReplOp::Push {
                tasks: vec![task(3)],
            },
            ReplOp::Push {
                tasks: vec![task(4)],
            },
            ReplOp::Push {
                tasks: vec![task(5)],
            },
        ];
        let mut whole = Ledger::default();
        whole.apply(
            0,
            ReplOp::Push {
                tasks: vec![task(1), task(2)],
            },
        );
        whole.apply(
            0,
            ReplOp::LeaseOpen {
                client: 1,
                tasks: vec![task(8)],
            },
        );
        let mut merged = whole.clone();
        for op in ops.clone() {
            whole.apply(0, op);
        }
        ReplOp::coalesce(&mut ops);
        assert_eq!(
            ops,
            vec![
                ReplOp::Remove {
                    tasks: vec![task(1), task(2)],
                },
                ReplOp::LeaseOpen {
                    client: 0,
                    tasks: vec![task(1), task(2)],
                },
                ReplOp::LeaseDrop { client: 0, n: 2 },
                ReplOp::LeaseDrop { client: 1, n: 1 },
                ReplOp::Push {
                    tasks: vec![task(3), task(4), task(5)],
                },
            ]
        );
        for op in ops {
            merged.apply(0, op);
        }
        assert_eq!(
            merged, whole,
            "the coalesced batch applies to the same state"
        );
    }

    #[test]
    fn absorb_merges_counters_by_max_and_appends_leases() {
        let mut mine = Ledger::default();
        mine.next_fseq.insert(9, 5);
        mine.next_fseq.insert(7, 1);
        mine.xfer_applied.insert((8, 9), 4);
        mine.quarantine.push("shared report".into());
        mine.quarantine.push("mine".into());
        mine.leases.insert(0, [lease(1)].into());
        mine.fwd_out = 2;
        mine.outputs.insert((1, 0), "a".into());
        mine.pending_xfers.push(Xfer {
            origin: 8,
            dest: 9,
            fseq: 5,
            steal: false,
            tasks: vec![task(1)],
            sent_to: Some(9),
        });

        let mut dead = Ledger::default();
        dead.next_fseq.insert(9, 3);
        dead.next_fseq.insert(6, 2);
        dead.xfer_applied.insert((8, 9), 6);
        dead.xfer_applied.insert((7, 9), 1);
        dead.quarantine.push("shared report".into());
        dead.quarantine.push("theirs".into());
        dead.leases.insert(0, [lease(2)].into());
        dead.leases.insert(3, [lease(3)].into());
        dead.fwd_out = 3;
        dead.fwd_in = 4;
        dead.outputs.insert((1, 0), "b".into());
        dead.finished.insert(5);
        dead.queue.push(task(7));
        dead.pending_xfers.push(Xfer {
            origin: 7,
            dest: 9,
            fseq: 3,
            steal: true,
            tasks: vec![task(2)],
            sent_to: Some(9),
        });

        mine.absorb(dead, &[7]);
        assert_eq!(mine.merges, 1);
        assert_eq!(mine.next_fseq, HashMap::from([(9, 5), (7, 1), (6, 2)]));
        assert_eq!(mine.xfer_applied, HashMap::from([((8, 9), 6), ((7, 9), 1)]));
        assert_eq!(mine.quarantine, ["shared report", "mine", "theirs"]);
        // Absorbed leases queue behind this server's own, oldest first.
        let held: Vec<i32> = mine.leases[&0].iter().map(|l| l.task.priority).collect();
        assert_eq!(held, [1, 2]);
        assert_eq!(mine.leases[&3][0].task, task(3));
        assert_eq!((mine.fwd_out, mine.fwd_in), (5, 4));
        assert_eq!(mine.outputs[&(1, 0)], "ab");
        assert!(mine.finished.contains(&5));
        assert_eq!(mine.queue.len(), 1);
        // Inherited transfers are this server's to re-drive; its own stay
        // where they were sent.
        let sent: Vec<_> = mine.pending_xfers.iter().map(|x| x.sent_to).collect();
        assert_eq!(sent, [Some(9), None]);

        // A resume takes over nobody: same merge, no version bump.
        let mut resumed = Ledger::default();
        resumed.absorb(mine.clone(), &[]);
        assert_eq!(resumed.merges, 0);
        assert_eq!(resumed.queue, mine.queue);
    }

    #[test]
    fn home_client_marks_survive_a_chain_of_two_promotions() {
        // Client 0 wrote to homes 6, 7 and 8 under one seq counter. Server
        // 6 dies and 7 promotes it; then 7 dies and 8 promotes *that*. A
        // re-sent old request to home 6 must still be recognised (and one
        // above its mark must not be mistaken for a duplicate because of
        // the client's newer writes to 7 or 8) — which one mark per client
        // on the wire could not express.
        let mark = |l: &mut Ledger, owner, home, seq, resp: &'static [u8]| {
            l.apply(
                owner,
                ReplOp::SeqResp {
                    home,
                    client: 0,
                    seq,
                    resp: Some(Bytes::from_static(resp)),
                },
            );
        };
        let (mut six, mut seven, mut eight) =
            (Ledger::default(), Ledger::default(), Ledger::default());
        mark(&mut six, 6, 6, 3, b"six@3");
        mark(&mut seven, 7, 7, 10, b"seven@10");
        mark(&mut eight, 8, 8, 20, b"eight@20");

        seven.absorb(six, &[6]);
        // Over a sync stream to its new holder, as after any promotion.
        let seven_at_eight = Ledger::decode(&seven.encode()).unwrap();
        assert_eq!(seven_at_eight, seven);
        // Server 7, now also serving home 6, answers a newer request to it.
        let mut seven_at_eight = seven_at_eight;
        mark(&mut seven_at_eight, 7, 6, 12, b"six@12");

        eight.absorb(seven_at_eight, &[7, 6]);
        assert_eq!(eight.merges, 1);
        assert_eq!(
            eight.seqs,
            HashMap::from([((6, 0), 12), ((7, 0), 10), ((8, 0), 20)])
        );
        assert_eq!(eight.resps[&(6, 0)], (12, Bytes::from_static(b"six@12")));
        assert_eq!(eight.resps[&(7, 0)], (10, Bytes::from_static(b"seven@10")));
        assert_eq!(eight.resps[&(8, 0)], (20, Bytes::from_static(b"eight@20")));
    }
}
