//! The shard store: this server's [`Ledger`] — the one home of its
//! recoverable state, changed only by committing a [`ReplOp`] — the
//! transaction buffer that ships each handler's ops to the replica
//! holders and the WAL before any of its sends leave, the write-behind
//! checkpoint sink, the cached responses that answer a re-sent request,
//! and the data operations served from the shard.

use std::time::Instant;

use bytes::Bytes;
use mpisim::{trace, Comm, Point, Rank, Tag, Wire};

use super::{Server, ServerStats, NOTIFY_PRIORITY, NOTIFY_VALUE_MAX};
use crate::checkpoint::{
    restore_home, split_for_home, split_history_for_home, CheckpointConfig, CheckpointSink,
    RespHistory,
};
use crate::datastore::DataError;
use crate::msg::{seal, Request, Response, ServerMsg, Task, TAG_RESP, TAG_SRV, WORK_TYPE_NOTIFY};
use crate::replica::{Applied, Ledger, ReplOp};

pub(super) struct Shard {
    comm: Comm,
    /// This server's recoverable state. Read freely; changed only through
    /// [`Shard::commit`] (one op) and [`Server::adopt`] (a recovered
    /// ledger).
    ledger: Ledger,
    /// Ops the message currently being handled committed, for the replica
    /// holders and the WAL; shipped before any buffered send leaves. Stays
    /// empty when neither consumer exists.
    tx_ops: Vec<ReplOp>,
    /// Outbound messages of the current handler, flushed after the ops.
    /// The client-visible response is always pushed last, so a mid-handler
    /// kill can lose the response but never a replicated effect that the
    /// response would have acknowledged.
    tx_sends: Vec<(Rank, Tag, Bytes)>,
    /// Write-behind WAL/checkpoint sink, present when the config enables
    /// the durable tier. While it holds unflushed ops, every outbound
    /// send is parked inside it (group commit): nothing observable may
    /// leave this rank before the state it reflects is durable.
    ckpt: Option<CheckpointSink>,
}

impl Shard {
    pub(super) fn new(comm: Comm, checkpoint: Option<&CheckpointConfig>) -> Shard {
        let ckpt = checkpoint.map(|c| CheckpointSink::new(c, comm.rank()));
        Shard {
            comm,
            ledger: Ledger::default(),
            tx_ops: Vec::new(),
            tx_sends: Vec::new(),
            ckpt,
        }
    }

    pub(super) fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Apply `op` to the ledger — the one way a handler changes
    /// recoverable state — and log it for the replica holders (when
    /// `replicated`) and the WAL when either exists. An op the store
    /// refused changed nothing and is not logged.
    pub(super) fn commit(&mut self, op: ReplOp, replicated: bool) -> Applied {
        let log = (replicated || self.ckpt.is_some()).then(|| op.clone());
        let applied = self.ledger.apply(self.comm.rank(), op);
        if applied.error.is_none() {
            self.tx_ops.extend(log);
        }
        applied
    }

    /// Buffer a send of the current handler; it leaves in `commit_tx`,
    /// after the handler's ops.
    pub(super) fn send(&mut self, rank: Rank, tag: Tag, bytes: Bytes) {
        self.tx_sends.push((rank, tag, bytes));
    }

    /// Ship the current handler's replication ops to `targets`, then
    /// flush its buffered sends. The order is the crash-consistency
    /// invariant: a kill can land between sends, so anything a peer or
    /// client is about to observe must already be on its way to the
    /// replicas. `flush_now` (shutdown or wind-down) makes the WAL
    /// durable at once instead of when the group commit is due.
    pub(super) fn commit_tx(&mut self, targets: &[Rank], stats: &mut ServerStats, flush_now: bool) {
        if !self.tx_ops.is_empty() {
            ReplOp::coalesce(&mut self.tx_ops);
            // The durable tier logs the same op stream the replicas get.
            if !targets.is_empty() {
                if let Some(sink) = &mut self.ckpt {
                    sink.log(&self.tx_ops);
                }
                stats.repl_ops += (self.tx_ops.len() * targets.len()) as u64;
                let repl = ServerMsg::Repl {
                    ops: std::mem::take(&mut self.tx_ops),
                };
                let msg = repl.encode();
                for &t in targets {
                    self.comm.send(t, TAG_SRV, msg.clone());
                }
                self.comm.fault_point(Point::OpsReplicated);
                // Keep the transaction buffer's capacity.
                if let ServerMsg::Repl { ops } = repl {
                    self.tx_ops = ops;
                }
            } else if let Some(sink) = &mut self.ckpt {
                // No replica holders: the batch has no other consumer.
                sink.log_owned(&mut self.tx_ops);
            }
            self.tx_ops.clear();
        }
        // Group commit: while ops sit unflushed in the WAL buffer, every
        // buffered send is held inside the sink — a response (or a task
        // transfer) must never be observable before the state it reflects
        // is durable, or a later restore-from-pfs would silently lose
        // effects another rank already acted on. With no buffered ops the
        // sends flow immediately (each client has at most one awaited
        // request in flight, so per-client response order is preserved).
        match &mut self.ckpt {
            Some(sink) if sink.buffered() > 0 => {
                sink.hold(&mut self.tx_sends);
                if sink.due_flush() || flush_now {
                    self.flush(false, stats);
                }
            }
            _ => {
                for (rank, tag, bytes) in std::mem::take(&mut self.tx_sends) {
                    self.comm.send(rank, tag, bytes);
                }
            }
        }
    }

    /// Flush the WAL buffer as one record, release every held send, and
    /// compact into a checkpoint segment when one is due (or forced —
    /// after a promotion, whose merged bulk never flows through the op
    /// stream, only a full snapshot captures it).
    pub(super) fn flush(&mut self, force_segment: bool, stats: &mut ServerStats) {
        let Some(sink) = &mut self.ckpt else {
            return;
        };
        let start_us = trace::now_us();
        let before = sink.records;
        let sends = sink.flush_wal();
        let wrote = sink.records > before;
        if force_segment || sink.due_segment() {
            sink.write_segment(&self.ledger);
        }
        stats.ckpt_records = sink.records;
        stats.ckpt_ops = sink.ops_logged;
        stats.ckpt_segments = sink.segments;
        stats.ckpt_bytes = sink.bytes_written;
        stats.ckpt_segment_bytes = sink.segment_bytes;
        for (rank, tag, bytes) in sends {
            self.comm.send(rank, tag, bytes);
        }
        if wrote || force_segment {
            trace::record_since(trace::KIND_CKPT_FLUSH, self.comm.rank() as u64, start_us);
        }
    }

    /// Flush whatever the WAL buffer holds (and the sends it holds back).
    pub(super) fn flush_buffered(&mut self, stats: &mut ServerStats) {
        if self.ckpt.as_ref().is_some_and(|c| c.buffered() > 0) {
            self.flush(false, stats);
        }
    }

    /// Make the post-promotion state durable and leave redirect
    /// tombstones: the dead homes' shards now live in this server's
    /// checkpoint, and a whole-world resume (or a later restore of THIS
    /// server) must find them there.
    pub(super) fn cover_homes(&mut self, homes: &[Rank], stats: &mut ServerStats) {
        if self.ckpt.is_none() {
            return;
        }
        self.flush(true, stats);
        if let Some(sink) = &mut self.ckpt {
            for &h in homes {
                sink.write_redirect(h);
            }
        }
    }

    pub(super) fn adopt_history(&mut self, history: RespHistory) {
        if let Some(sink) = &mut self.ckpt {
            sink.adopt_history(history);
        }
    }

    /// Exactly-once: answer a re-sent awaited request with its cached
    /// response verbatim, and drop a re-sent fire-and-forget request.
    /// Returns whether `seq` was handled so. After a whole-world resume
    /// the restarted client replays its request stream from seq 1 — every
    /// awaited request below the durable high-water is answered
    /// byte-for-byte from the checkpoint's response history, forcing the
    /// client down the same execution path until it passes the durable
    /// prefix.
    pub(super) fn replay(&mut self, home: Rank, source: Rank, seq: u64, awaited: bool) -> bool {
        let hw = self.ledger.seqs.get(&(home, source)).copied().unwrap_or(0);
        if seq > hw {
            return false;
        }
        let cached = match self.ledger.resps.get(&(home, source)) {
            Some((s, bytes)) if *s == seq => Some(bytes),
            _ => self.ckpt.as_ref().and_then(|c| c.durable_resp(source, seq)),
        };
        if let Some(bytes) = cached {
            self.tx_sends.push((source, TAG_RESP, bytes.clone()));
            return true;
        }
        // No response was ever recorded for this seq. Fire-and-forget
        // requests advance the high-water without response bytes and were
        // already applied — drop the duplicate. Anything else here is an
        // awaited request whose response is deliberately unreplicated
        // (reads, deterministic errors); the replaying client is blocked
        // on it, so re-execute it against the restored state.
        !awaited
    }

    /// Send pending transfer `entry` to `host`, its wire form being the
    /// entry itself, and remember where it went.
    pub(super) fn send_xfer(&mut self, entry: usize, host: Rank) {
        if let Some(x) = self.ledger.pending_xfers.get_mut(entry) {
            x.sent_to = Some(host);
            let wire = ServerMsg::Xfer(x.clone()).encode();
            self.send(host, TAG_SRV, wire);
        }
    }

    pub(super) fn backdate_leases(&mut self, rank: Rank, accepted_us: &[u64]) {
        self.ledger.backdate_leases(rank, accepted_us);
    }

    pub(super) fn take_ledger(&mut self) -> Ledger {
        std::mem::take(&mut self.ledger)
    }
}

impl Server {
    /// With `resume` configured, load this shard's durable state (following
    /// redirect tombstones to the covering checkpoint, then keeping only
    /// this home's slice) before serving. Unlike a promotion this neither
    /// counts a failover nor re-pushes cached responses unprompted: the
    /// restarted clients replay their request streams from seq 1 and pull
    /// every durable response through the dedup path instead.
    pub(super) fn resume_from_pfs(&mut self) {
        let Some(cfg) = self.config.checkpoint.clone().filter(|c| c.resume) else {
            return;
        };
        let me = self.comm.rank();
        let start_us = trace::now_us();
        let started = Instant::now();
        let mut client = cfg.fs.client();
        match restore_home(&mut client, me) {
            Ok(r) => {
                let owner = *r.via.last().unwrap_or(&me);
                let ledger = split_for_home(&r.ledger, &self.layout, me, owner);
                let history = split_history_for_home(&r.history, &self.layout, me);
                eprintln!(
                    "adlb server {me}: resumed shard from pfs checkpoint \
                     (LSN {}, {} datums, {} queued, {} clients with history)",
                    r.last_lsn,
                    ledger.store.len(),
                    ledger.queue.len(),
                    history.len(),
                );
                self.adopt(ledger, &[]);
                if let Some(sink) = &mut self.shard.ckpt {
                    sink.adopt_history(history);
                    sink.fast_forward(&r);
                }
                // Re-anchor the durable state under this home right away:
                // the covering checkpoint may sit in another server's
                // directory and will be superseded by its own resume.
                self.shard.flush(true, &mut self.stats);
                self.stats.pfs_restores += 1;
                let micros = started.elapsed().as_micros() as u64;
                self.stats.ckpt_restore_micros = self.stats.ckpt_restore_micros.max(micros);
                trace::record_since(trace::KIND_CKPT_RESTORE, me as u64, start_us);
            }
            Err(e) => eprintln!(
                "adlb server {me}: resume found no usable checkpoint ({e}); starting empty"
            ),
        }
    }

    /// Take a recovered ledger — a dead peer's replica, a shard restored
    /// from pfs, this server's own resumed slice — into the live state.
    /// `homes` are the dead servers it carried (see [`Ledger::absorb`]).
    pub(super) fn adopt(&mut self, ledger: Ledger, homes: &[Rank]) {
        self.sched.leases_adopted(&ledger);
        self.shard.ledger.absorb(ledger, homes);
    }

    /// Serve one data operation against the shard and return its response
    /// plus whether it changed replicated state.
    pub(super) fn apply_data(&mut self, req: Request) -> (Response, bool) {
        let read = |r: Result<Response, DataError>| {
            (r.unwrap_or_else(|e| Response::Error(e.message)), false)
        };
        let store = &self.shard.ledger.store;
        match req {
            Request::DataCreate {
                id,
                type_tag,
                reads,
            } => {
                let out = self.write(
                    id,
                    ReplOp::Create {
                        id,
                        type_tag,
                        reads,
                    },
                );
                let resident = self.shard.ledger.store.len() as u64;
                self.stats.data_peak = self.stats.data_peak.max(resident);
                out
            }
            Request::DataStore { id, value } => self.write(id, ReplOp::Store { id, value }),
            Request::DataInsert { id, key, value } => {
                self.write(id, ReplOp::Insert { id, key, value })
            }
            Request::DataIncrWriters { id, delta } => {
                self.write(id, ReplOp::IncrWriters { id, delta })
            }
            // Already closed: the write-behind form gets the close
            // notification it would otherwise have missed; the awaited
            // form is told so and nothing mutates.
            Request::DataSubscribe {
                id,
                rank,
                notify_closed,
            } if store.exists_closed(id) => {
                if notify_closed {
                    self.notify_all(id, vec![rank]);
                    (Response::Ok, true)
                } else {
                    (Response::Bool(true), false)
                }
            }
            Request::DataSubscribe {
                id,
                rank,
                notify_closed,
            } => match self.write(id, ReplOp::Subscribe { id, rank }) {
                (Response::Ok, _) if !notify_closed => (Response::Bool(false), true),
                other => other,
            },
            Request::DataRetrieve { id } => read(store.retrieve(id).map(Response::MaybeBytes)),
            Request::DataLookup { id, key } => {
                read(store.lookup(id, &key).map(Response::MaybeBytes))
            }
            Request::DataEnumerate { id } => read(store.enumerate(id).map(Response::Pairs)),
            Request::DataExists { id } => (Response::Bool(store.exists_closed(id)), false),
            _ => (Response::Error("not a data operation".to_string()), false),
        }
    }

    /// Take `n` leaf reads off datum `id`'s count, returning whether that
    /// changed replicated state. A datum another server hosts is added to
    /// that host's entry in `away` for [`Server::forward_releases`]. Never
    /// an error, so it can never fail the ack it rides behind: a release
    /// of a datum that is gone is counted as a miss; one of an uncounted
    /// datum, or of a lost shard (a leak), changes and logs nothing.
    pub(super) fn release(
        &mut self,
        id: u64,
        n: u32,
        away: &mut Vec<(Rank, Vec<(u64, u32)>)>,
    ) -> bool {
        let owner = self.layout.data_owner(id);
        if owner != self.comm.rank() {
            self.ensure_home(owner);
        }
        let host = self.failover.host_of(owner);
        if host != self.comm.rank() {
            match away.iter_mut().find(|(h, _)| *h == host) {
                Some((_, releases)) => releases.push((id, n)),
                None => away.push((host, vec![(id, n)])),
            }
            return false;
        }
        if self.failover.is_lost(owner) {
            return false;
        }
        match self.shard.ledger().store.read_refs(id) {
            Err(_) => self.stats.release_misses += u64::from(n),
            Ok(None) => {}
            Ok(Some(left)) => {
                self.stats.release_misses += u64::from(n.saturating_sub(left));
                self.commit(ReplOp::Release { id, n });
                return true;
            }
        }
        false
    }

    /// Send each host its releases from `away`, after this handler's ops
    /// (so a re-applied ack cannot release twice).
    pub(super) fn forward_releases(&mut self, away: Vec<(Rank, Vec<(u64, u32)>)>) {
        for (host, releases) in away {
            let msg = ServerMsg::Release { releases }.encode();
            self.shard.send(host, TAG_SRV, msg);
        }
    }

    /// Apply releases a peer forwarded. One for a datum this server no
    /// longer hosts (the peer routed it by an older view of the ring) is
    /// dropped: a leak, never a second free.
    pub(super) fn on_releases(&mut self, releases: Vec<(u64, u32)>) {
        let mut away = Vec::new();
        for (id, n) in releases {
            self.release(id, n, &mut away);
        }
    }

    /// Commit a data write to datum `id` and notify whoever its close
    /// released. A refused write changes and replicates nothing, so a
    /// re-execution after failover yields the same error.
    fn write(&mut self, id: u64, op: ReplOp) -> (Response, bool) {
        let applied = self.commit(op);
        match applied.error {
            Some(e) => (Response::Error(e.message), false),
            None => {
                self.notify_all(id, applied.subscribers);
                (Response::Ok, true)
            }
        }
    }

    /// Turn a datum close into targeted high-priority notification tasks,
    /// each tagged with the subscriber's tenant so multi-tenant latency
    /// attribution stays per-program.
    ///
    /// The payload is the id (8 bytes, little-endian), then — for a closed
    /// scalar of at most [`NOTIFY_VALUE_MAX`] bytes — a `1` flag byte and
    /// the value, so an empty (void) value is told apart from one not
    /// carried. Single assignment makes the value final; it is copied once
    /// here and shared by every subscriber's task.
    fn notify_all(&mut self, id: u64, subscribers: Vec<Rank>) {
        if subscribers.is_empty() {
            return;
        }
        let mut note = id.to_le_bytes().to_vec();
        if let Ok(Some(value)) = self.shard.ledger.store.retrieve(id) {
            if value.len() <= NOTIFY_VALUE_MAX {
                note.push(1);
                note.extend_from_slice(&value);
            }
        }
        let note = Bytes::from(note);
        for rank in subscribers {
            self.stats.notifications += 1;
            let task = Task::new(WORK_TYPE_NOTIFY, NOTIFY_PRIORITY, Some(rank), note.clone())
                .with_tenant(self.sched.tenant_of(rank));
            self.route_task(task);
        }
    }

    /// Buffer a response to a client's `Get` (or its terminal notice): a
    /// request to the client's own home. See [`Server::respond`].
    pub(super) fn send_response(&mut self, rank: Rank, seq: u64, resp: Response, replicate: bool) {
        self.respond(self.layout.server_of(rank), rank, seq, resp, replicate);
    }

    /// Buffer a response to a request addressed to `home`, sealed with the
    /// seq of the request it answers (the client drops responses whose
    /// seq is not its outstanding request — see [`crate::msg::Sealed`]).
    /// When `replicate` is set, also record the `(seq, sealed response)`
    /// pair locally and in the replica stream so a promoted successor can
    /// answer the client's re-send byte-for-byte — or push it unprompted
    /// at promotion, in case the client's copy died in the dead server's
    /// send queue.
    pub(super) fn respond(
        &mut self,
        home: Rank,
        rank: Rank,
        seq: u64,
        resp: Response,
        replicate: bool,
    ) {
        let bytes = seal(&resp, seq);
        if replicate {
            self.record_seq(home, rank, seq, Some(bytes.clone()));
        }
        self.term.unstrand(rank);
        self.shard.send(rank, TAG_RESP, bytes);
    }

    /// Mark `client`'s request `seq` to `home` fully processed (with its
    /// cached response, for awaited requests).
    pub(super) fn record_seq(&mut self, home: Rank, client: Rank, seq: u64, resp: Option<Bytes>) {
        self.commit(ReplOp::SeqResp {
            home,
            client,
            seq,
            resp,
        });
    }
}

/// The benign answer to a data op on a lost shard, so the program winds
/// down through the NoMore path instead of crashing on spurious data
/// errors: reads see "not ready", writes vanish.
pub(super) fn lost_shard_reply(req: &Request) -> Response {
    match req {
        Request::DataRetrieve { .. } | Request::DataLookup { .. } => Response::MaybeBytes(None),
        Request::DataSubscribe {
            notify_closed: false,
            ..
        }
        | Request::DataExists { .. } => Response::Bool(false),
        Request::DataEnumerate { .. } => Response::Pairs(Vec::new()),
        _ => Response::Ok,
    }
}

#[cfg(test)]
impl Shard {
    pub(super) fn tx_ops_capacity(&self) -> usize {
        self.tx_ops.capacity()
    }
}
