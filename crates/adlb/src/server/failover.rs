//! Failover: the peers confirmed dead, the replica ledgers this server
//! holds for its ring predecessors and the holders of its own, the
//! chunked full-ledger sync streams in both directions, and what a
//! survivor does when a peer dies — one recovery decision
//! ([`recovery_plan`]) and one executor ([`Server::handle_server_death`]).
//! A server learns a peer's death as a client does, from the transport's
//! liveness oracle ([`mpisim::Comm::is_alive`], the stand-in for MPI's
//! failure notification). An unrecoverable death winds the whole run
//! down with a diagnosis.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use mpisim::{trace, Point, Rank, Src, TagSel, Wire, WireReader};

use super::recovery::{diagnosis, recovery_plan, Death, Plan, Replica};
use super::Server;
use crate::checkpoint::restore_home;
use crate::layout::Layout;
use crate::msg::{ServerMsg, TAG_RESP, TAG_SRV};
use crate::replica::{Ledger, ReplOp};

/// An outbound sync stream unacked this long re-sends its current chunk:
/// a live receiver acks well within it, so a chunk or its ack was lost.
const SYNC_RESEND_AFTER: Duration = Duration::from_millis(10);

/// A full-ledger snapshot being streamed to one replica holder in
/// bounded chunks. `cursor` is the receiver-acknowledged high-water —
/// the resume point after any lost or superseded chunk.
struct OutSync {
    sync_id: u64,
    data: Bytes,
    cursor: usize,
    /// When the last chunk left; a stream stalled past
    /// [`SYNC_RESEND_AFTER`] re-sends from the acked cursor (duplicates
    /// are harmless — the receiver ignores non-contiguous chunks and
    /// re-acks).
    last_sent: Instant,
    /// When the stream started (µs on the trace clock), for the
    /// `repl_sync` span recorded when the final ack retires it.
    started_us: u64,
}

/// A full-ledger snapshot arriving from one primary. Incremental ops
/// from the same primary that land mid-stream postdate its base snapshot
/// (per-pair FIFO delivery), so they are buffered and replayed on top of
/// the decoded base instead of being applied to the soon-replaced old
/// replica.
#[derive(Default)]
struct InSync {
    sync_id: u64,
    total: u64,
    buf: Vec<u8>,
    ops: Vec<ReplOp>,
}

pub(super) struct Failover {
    layout: Layout,
    /// Every other server.
    peers: Vec<Rank>,
    /// Peers the oracle confirmed dead (permanent).
    dead: HashSet<Rank>,
    /// Replica ledgers this server holds for its ring predecessors.
    ledgers: HashMap<Rank, Ledger>,
    /// Current replica holders for *this* server's ledger.
    repl_targets: Vec<Rank>,
    /// Chunked full-ledger streams to (re)seeded replica holders.
    outbound_syncs: HashMap<Rank, OutSync>,
    /// Chunked full-ledger streams arriving from primaries.
    inbound_syncs: HashMap<Rank, InSync>,
    /// Monotonic id for this server's outbound syncs; a restarted sync
    /// supersedes chunks of the previous one still in flight.
    next_sync_id: u64,
    /// Minimum [`Ledger::merges`] a copy of each peer's ledger must carry
    /// to be promotable: the number of promotions this server has
    /// observed that peer perform. When a peer absorbs a dead server's
    /// shard, every copy of its ledger taken before that is missing the
    /// bulk import (write-through ops only cover mutations, not the
    /// merge itself) — such a copy must never be promoted, or the
    /// missing state would be lost silently and the run would hang on it.
    /// Version comparison rather than a boolean mark makes this immune to
    /// arrival order: a fresh resync that lands before this server even
    /// observes the triggering death still carries the higher version.
    required_merges: HashMap<Rank, u64>,
    /// Dead servers whose shard another survivor merged: `e → p` means
    /// peer `p` promoted (or was expected to promote) dead server `e`'s
    /// shard, so `e`'s fate now travels with `p`'s ledger. When `p` dies
    /// the chain resolves with it: it rides along on a fresh copy of
    /// `p`'s ledger, or is lost with a stale/absent one.
    subsumed: HashMap<Rank, Rank>,
    /// Homes whose shard was lost (died with no replica to promote).
    lost_homes: HashSet<Rank>,
    /// The shard-loss diagnosis once an unrecoverable peer death started
    /// the wind-down: every `Get` is answered `NoMore` carrying it (so
    /// clients fail the run instead of mistaking the wind-down for a
    /// clean finish), lost-shard data ops get benign defaults, and the
    /// server exits once its clients are accounted for.
    abort_reason: Option<String>,
    /// Set when a failover starts sync streams, taken into
    /// [`super::ServerStats::r_restore_micros`] when the last one
    /// completes; with its trace-clock twin for the `failover_recovery`
    /// span.
    r_restore_started: Option<(Instant, u64)>,
}

impl Failover {
    pub(super) fn new(layout: Layout, me: Rank) -> Failover {
        Failover {
            layout,
            peers: layout.server_ranks().filter(|r| *r != me).collect(),
            dead: HashSet::new(),
            ledgers: HashMap::new(),
            repl_targets: Vec::new(),
            outbound_syncs: HashMap::new(),
            inbound_syncs: HashMap::new(),
            next_sync_id: 0,
            required_merges: HashMap::new(),
            subsumed: HashMap::new(),
            lost_homes: HashSet::new(),
            abort_reason: None,
            r_restore_started: None,
        }
    }

    /// Where requests for home server `home` are currently served.
    pub(super) fn host_of(&self, home: Rank) -> Rank {
        self.layout.route(home, &self.dead)
    }

    pub(super) fn is_dead(&self, peer: Rank) -> bool {
        self.dead.contains(&peer)
    }

    /// Peers not confirmed dead, in rank order.
    pub(super) fn live_peers(&self) -> Vec<Rank> {
        let live = self.peers.iter().filter(|p| !self.dead.contains(p));
        live.copied().collect()
    }

    /// Record `peer`'s oracle-confirmed death; true if it is news.
    pub(super) fn mark_dead(&mut self, peer: Rank) -> bool {
        self.dead.insert(peer)
    }

    pub(super) fn targets(&self) -> &[Rank] {
        &self.repl_targets
    }

    /// Winding down after an unrecoverable peer death.
    pub(super) fn aborting(&self) -> bool {
        self.abort_reason.is_some()
    }

    pub(super) fn abort_reason(&self) -> Option<String> {
        self.abort_reason.clone()
    }

    pub(super) fn is_lost(&self, home: Rank) -> bool {
        self.lost_homes.contains(&home)
    }

    /// Past shutdown or into the wind-down, no op stream is shipped and
    /// no sync stream continues.
    pub(super) fn stop_replicating(&mut self) {
        self.repl_targets.clear();
        self.outbound_syncs.clear();
    }

    pub(super) fn take_replicas(&mut self) -> HashMap<Rank, Ledger> {
        std::mem::take(&mut self.ledgers)
    }

    /// Apply an incremental op batch from `source` — or buffer it when a
    /// sync stream from `source` is mid-flight (the ops postdate its base
    /// snapshot and replay on top once it lands).
    fn apply_repl_ops(&mut self, source: Rank, ops: Vec<ReplOp>) {
        if let Some(ins) = self.inbound_syncs.get_mut(&source) {
            ins.ops.extend(ops);
        } else {
            let ledger = self.ledgers.entry(source).or_default();
            for op in ops {
                ledger.apply(source, op);
            }
        }
    }
}

impl Server {
    /// The replica-holder side of the protocol, shared by the serving
    /// loop (before and after termination) and the drain of a dead
    /// peer's mailbox: op batches and sync chunks for the ledger this
    /// server holds for `source`, acks of its own outbound stream, and
    /// the goodbye. `live` is false for a dead peer's drained mailbox:
    /// nobody is left to ack, and its acks of our stream to it are moot.
    /// Anything else is handed back.
    pub(super) fn take_repl_traffic(
        &mut self,
        source: Rank,
        msg: ServerMsg,
        live: bool,
    ) -> Option<ServerMsg> {
        match msg {
            ServerMsg::Repl { ops } => {
                self.failover.apply_repl_ops(source, ops);
                self.comm.fault_point(Point::ReplicaUpdated);
            }
            ServerMsg::ReplSync {
                sync_id,
                cursor,
                total,
                data,
            } => self.absorb_sync_chunk(source, sync_id, cursor, total, &data, live),
            ServerMsg::SyncAck { sync_id, cursor } => {
                if live {
                    self.handle_sync_ack(source, sync_id, cursor);
                }
            }
            // A peer can finish (and say goodbye) before this server has
            // processed its own Shutdown, or die right after completing
            // its shutdown (its clients then already have their notices);
            // remember the receipt for the linger.
            ServerMsg::Bye => self.term.bye(source),
            other => return Some(other),
        }
        None
    }

    /// Recompute who holds this server's replica: the first `R - 1` live
    /// ring successors over the (possibly shrunken) ring. A holder seen
    /// for the first time is streamed the full ledger, in bounded
    /// [`ServerMsg::ReplSync`] chunks interleaved with normal service.
    /// `resync_all` — set after this server promoted a dead peer's shard
    /// into its own state — re-streams it to *every* holder, since their
    /// replicas predate the merge; with re-replication off that never
    /// happens and R stays degraded after a failover.
    pub(super) fn refresh_repl_targets(&mut self, resync_all: bool) {
        if self.config.replication < 2 || self.failover.aborting() || self.term.shutdown() {
            self.failover.stop_replicating();
            return;
        }
        let me = self.comm.rank();
        let want = self.config.replication - 1;
        let targets = self.layout.live_successors(me, want, &self.failover.dead);
        for &t in &targets {
            let first_seen = !self.failover.repl_targets.contains(&t);
            if first_seen || (resync_all && self.config.re_replicate) {
                self.start_sync(t);
            }
        }
        // Streams to ranks that rotated out of the holder set are moot.
        self.failover
            .outbound_syncs
            .retain(|t, _| targets.contains(t));
        self.failover.repl_targets = targets;
    }

    // -- chunked re-replication ------------------------------------------

    /// Begin (or restart) streaming this server's full ledger to `target`
    /// in bounded chunks. The first chunk leaves immediately — ahead of
    /// any op a later handler commits — so per-pair FIFO guarantees the
    /// receiver opens its buffering window before any post-snapshot op
    /// arrives; everything sent earlier lands on the old replica the base
    /// snapshot is about to replace (and is already included in it).
    fn start_sync(&mut self, target: Rank) {
        let data = self.shard.ledger().encode();
        let fo = &mut self.failover;
        fo.next_sync_id += 1;
        let sync = OutSync {
            sync_id: fo.next_sync_id,
            data,
            cursor: 0,
            last_sent: Instant::now(),
            started_us: trace::now_us(),
        };
        fo.outbound_syncs.insert(target, sync);
        self.send_sync_chunk(target);
    }

    /// Send the next bounded chunk of the outbound stream to `target`.
    fn send_sync_chunk(&mut self, target: Rank) {
        let Some(o) = self.failover.outbound_syncs.get_mut(&target) else {
            return;
        };
        o.last_sent = Instant::now();
        let end = (o.cursor + self.config.sync_chunk.max(1)).min(o.data.len());
        let msg = ServerMsg::ReplSync {
            sync_id: o.sync_id,
            cursor: o.cursor as u64,
            total: o.data.len() as u64,
            data: o.data.slice(o.cursor..end),
        };
        self.comm.send(target, TAG_SRV, msg.encode());
    }

    /// Re-drive outbound streams whose ack went missing (e.g. dropped by
    /// fault injection): past [`SYNC_RESEND_AFTER`], re-send the current
    /// chunk from the acked resume cursor.
    pub(super) fn nudge_syncs(&mut self) {
        let stalled: Vec<Rank> = self
            .failover
            .outbound_syncs
            .iter()
            .filter(|(_, o)| o.last_sent.elapsed() > SYNC_RESEND_AFTER)
            .map(|(r, _)| *r)
            .collect();
        for t in stalled {
            self.send_sync_chunk(t);
        }
    }

    /// A `SyncAck` advanced the receiver's contiguous high-water: stream
    /// the next chunk from there, or retire the sync when the whole
    /// ledger has landed. Retiring the last outstanding stream after a
    /// failover records the time-to-R-restored.
    fn handle_sync_ack(&mut self, source: Rank, sync_id: u64, cursor: u64) {
        let fo = &mut self.failover;
        let done = match fo.outbound_syncs.get_mut(&source) {
            Some(o) if o.sync_id == sync_id => {
                o.cursor = o.cursor.max(cursor as usize);
                o.cursor >= o.data.len()
            }
            // A stale ack for a superseded (or already retired) sync.
            _ => return,
        };
        if !done {
            self.send_sync_chunk(source);
            return;
        }
        // The sync counters report re-replication: with it off the one
        // seeding stream per holder stays out of them.
        let retired = fo.outbound_syncs.remove(&source);
        if let (Some(o), true) = (retired, self.config.re_replicate) {
            self.stats.repl_syncs += 1;
            self.stats.repl_sync_bytes += o.data.len() as u64;
            trace::record_since(trace::KIND_REPL_SYNC, source as u64, o.started_us);
        }
        self.comm.fault_point(Point::SyncRetired);
        let fo = &mut self.failover;
        if !fo.outbound_syncs.is_empty() {
            return;
        }
        if let Some((t0, t0_us)) = fo.r_restore_started.take() {
            let us = t0.elapsed().as_micros() as u64;
            self.stats.r_restore_micros += us;
            let failovers = self.stats.failovers;
            trace::record_since(trace::KIND_FAILOVER_RECOVERY, failovers, t0_us);
            eprintln!(
                "adlb server {}: replication factor restored ({us} µs after the death)",
                self.comm.rank()
            );
        }
    }

    /// Absorb one inbound sync chunk from `source`; with `ack` (live
    /// traffic — not a dead peer's drained mailbox) the contiguous
    /// high-water is acked back as the sender's resume cursor. The final
    /// chunk installs the decoded ledger.
    pub(super) fn absorb_sync_chunk(
        &mut self,
        source: Rank,
        sync_id: u64,
        cursor: u64,
        total: u64,
        data: &Bytes,
        ack: bool,
    ) {
        let fresh = || InSync {
            sync_id,
            total,
            ..InSync::default()
        };
        let ins = self
            .failover
            .inbound_syncs
            .entry(source)
            .or_insert_with(fresh);
        if ins.sync_id != sync_id {
            // A restarted sync supersedes the old one wholesale: its base
            // snapshot already includes everything the abandoned stream
            // and its buffered ops carried.
            *ins = fresh();
        }
        if cursor as usize == ins.buf.len() {
            ins.buf.extend_from_slice(data);
        }
        // Duplicated or out-of-order chunks fall through to the ack: the
        // contiguous high-water tells the sender where to resume.
        let have = ins.buf.len() as u64;
        let complete = have >= ins.total;
        if ack {
            let msg = ServerMsg::SyncAck {
                sync_id,
                cursor: have,
            };
            self.comm.send(source, TAG_SRV, msg.encode());
        }
        if complete {
            self.finish_inbound_sync(source);
        }
    }

    /// The last chunk landed: decode the base ledger, replay the ops
    /// buffered mid-stream on top (they postdate the base — FIFO), and
    /// install the result as `source`'s replica.
    fn finish_inbound_sync(&mut self, source: Rank) {
        let Some(ins) = self.failover.inbound_syncs.remove(&source) else {
            return;
        };
        match WireReader::new(&ins.buf).exact(Ledger::get) {
            Ok(mut ledger) => {
                for op in ins.ops {
                    ledger.apply(source, op);
                }
                self.failover.ledgers.insert(source, ledger);
                self.comm.fault_point(Point::ReplicaInstalled);
            }
            Err(e) => {
                // A corrupt base is worse than none: promoting the stale
                // replica it was replacing would silently lose the delta.
                // Drop it so a later death aborts loudly instead.
                self.failover.ledgers.remove(&source);
                self.protocol_error(format_args!(
                    "undecodable replica sync from rank {source}: {e:?}"
                ));
            }
        }
    }

    // -- server deaths -----------------------------------------------------

    /// A message implicates home server `home`, and its sender routed it
    /// here: in the sender's view every server from `home` round the ring
    /// to this one is dead. For each of them that died silently (the
    /// sender noticed before we did), confirm against the oracle and run
    /// the failover now, so the merged state — leases included — is in
    /// place before the message is served.
    pub(super) fn ensure_home(&mut self, home: Rank) {
        loop {
            let host = self.failover.host_of(home);
            if host == self.comm.rank()
                || self.comm.is_alive(host)
                || !self.failover.mark_dead(host)
            {
                return;
            }
            self.handle_server_death(host);
        }
    }

    /// A peer is confirmed dead: absorb any straggler replication traffic
    /// it sent before dying, decide how to recover its shard and carry
    /// the plan out, re-route in-flight transfers, and reshape the ring.
    /// Returns true when a deferred Shutdown was found (global
    /// termination raced the death).
    pub(super) fn handle_server_death(&mut self, d: Rank) -> bool {
        self.commit_tx();
        let me = self.comm.rank();
        eprintln!("adlb server {me}: server rank {d} died; starting failover");
        self.term.bump();
        // 1. Drain the dead peer's mailbox. Replication traffic still
        // queued there is part of its ledger's history and must be
        // applied *before* the merge; anything else is handled after the
        // failover reshaped the ring.
        let mut deferred = Vec::new();
        while let Some(m) = self.comm.try_recv(Src::Of(d), TagSel::Any) {
            if m.tag != TAG_SRV {
                continue;
            }
            match ServerMsg::decode(&m.data) {
                // A chunk the peer sent before dying can complete its
                // stream and make the fresh ledger promotable.
                Ok(msg) => deferred.extend(self.take_repl_traffic(d, msg, false)),
                Err(e) => {
                    self.protocol_error(format_args!("undecodable message from dead {d}: {e:?}"))
                }
            }
        }
        // 2. A steal outstanding against the dead victim will never be
        // answered; our sync stream to it is moot. An *incomplete* stream
        // FROM it means whatever ledger we hold predates the state it was
        // re-sending — promoting that would silently lose the delta, so
        // drop both and let the recovery decision see the truth.
        self.sched.forget_victim(d);
        let fo = &mut self.failover;
        fo.outbound_syncs.remove(&d);
        let sync_incomplete = fo.inbound_syncs.remove(&d).is_some();
        if sync_incomplete {
            fo.ledgers.remove(&d);
        }
        // 3. Abort any termination round in flight.
        self.term.abort_round();
        // 4. Recover the shard. Shards earlier subsumed into the dead
        // peer's ledger resolve with it now — they ride along on a
        // promotion of a fresh copy, are lost with a stale or absent one,
        // or travel on to the next promoter in the chain. Whatever the
        // plan, the first live successor adopts the dead peer's clients:
        // their re-routed requests land here, and a wind-down must
        // account for them before exiting.
        let promoter = fo.host_of(d);
        let successor = promoter == me;
        let chain: Vec<Rank> = fo
            .subsumed
            .iter()
            .filter(|&(_, p)| *p == d)
            .map(|(e, _)| *e)
            .collect();
        let covered: Vec<Rank> = std::iter::once(d).chain(chain.iter().copied()).collect();
        if successor {
            for &e in &covered {
                self.sched.adopt_clients(self.layout.clients_of(e));
                fo.subsumed.remove(&e);
            }
        }
        let required = fo.required_merges.remove(&d).unwrap_or(0);
        let replica = match fo.ledgers.get(&d) {
            _ if sync_incomplete => Replica::SyncIncomplete,
            Some(l) if l.merges < required => Replica::Stale,
            Some(_) => Replica::Fresh,
            None => Replica::Absent,
        };
        let plan = recovery_plan(Death {
            successor,
            replica,
            checkpoint: self.config.checkpoint.is_some(),
            replication: self.config.replication,
            shutdown: self.term.shutdown(),
        });
        // The successor takes whatever copy it held, promoted or (stale)
        // dropped.
        let held = if successor {
            fo.ledgers.remove(&d)
        } else {
            None
        };
        let promoted = match (plan, held) {
            (Plan::Promote, Some(ledger)) => {
                self.promote(d, &covered, ledger);
                true
            }
            (Plan::Restore(why), _) => self.try_pfs_restore(d, required, &chain, why),
            (Plan::WindDown(why), _) => {
                self.enter_abort(d, why, &chain);
                false
            }
            // Another survivor now serves the dead peer's shard, merging
            // it into its own ledger. Any copy of THAT peer's ledger
            // snapshotted before the merge no longer reflects its state:
            // the merge bulk never flows through write-through ops. Raise
            // the merge count a promotable copy must carry (its
            // post-promotion resync ships one; off re-replication,
            // nothing ever does) — and remember that the dead shard (plus
            // anything already riding with it) now travels inside the
            // promoter's ledger.
            (Plan::Subsume, _) => {
                *fo.required_merges.entry(promoter).or_insert(0) += 1;
                for &e in &covered {
                    fo.subsumed.insert(e, promoter);
                }
                false
            }
            _ => false,
        };
        // The merged bulk of a promotion never flows through the op
        // stream; only a full snapshot captures it. Anchor the merged
        // state durably now and leave redirect tombstones so any restore
        // of the dead homes finds it here.
        if promoted {
            self.shard.cover_homes(&covered, &mut self.stats);
        }
        // A peer that died mid-shutdown leaves clients whose `NoMore`
        // notices may have died with it (unfinished in the merged
        // replica). Keep the linger alive until each has been
        // re-answered or is itself confirmed dead.
        if successor && self.term.shutdown() {
            for c in self.layout.clients_of(d) {
                if !self.shard.ledger().finished.contains(&c) {
                    self.term.strand(c);
                }
            }
        }
        // 5. Reshape the ring: the dead peer may have been one of our
        // replica holders (a replacement gets our full ledger), and a
        // promotion must re-stream the merged state to every holder —
        // their replicas predate the merge. Any stream this starts is the
        // R-restoration clock: when the last one completes, this server's
        // shard is fully replicated again.
        self.refresh_repl_targets(promoted);
        let fo = &mut self.failover;
        if self.config.re_replicate
            && !fo.outbound_syncs.is_empty()
            && fo.r_restore_started.is_none()
        {
            fo.r_restore_started = Some((Instant::now(), trace::now_us()));
        }
        // 6. Handle what the dead peer had sent beyond replication.
        let mut shutdown = false;
        for msg in deferred {
            shutdown |= self.handle_server_msg(d, msg);
        }
        // 7. Re-drive write-ahead transfers that were addressed to the
        // dead peer (and any inherited from its ledger).
        self.redrive_pending_xfers();
        // 8. Merged work may satisfy parked clients right now.
        self.service_parked();
        self.commit_tx();
        self.comm.fault_point(Point::DeathHandled);
        shutdown
    }

    /// Absorb a dead peer's ledger into this server's own: this rank now
    /// serves the shards of `covered` (the dead peer and the chain it had
    /// subsumed), their queue, leases and clients.
    fn promote(&mut self, d: Rank, covered: &[Rank], ledger: Ledger) {
        self.stats.failovers += 1;
        trace::record_instant(trace::KIND_FAILOVER, d as u64);
        self.term.bump();
        eprintln!(
            "adlb server {}: promoting replica of server {d} ({} datums, {} queued, {} leased)",
            self.comm.rank(),
            ledger.store.len(),
            ledger.queue.len(),
            ledger.leases.values().map(|d| d.len()).sum::<usize>(),
        );
        // Re-send every cached response unprompted: the dead server may
        // have processed (and replicated) a request but died before the
        // response left, and the waiting client's retry could race this
        // server's own termination. Clients that did get the original
        // drop the duplicate by its sealed seq. Without this push, a
        // merged `ClientFinished` can satisfy quiescence and let the
        // survivor exit while the finished client still waits for the Ok
        // that died with its server.
        for ((_, c), (_, bytes)) in &ledger.resps {
            self.shard.send(*c, TAG_RESP, bytes.clone());
        }
        // Queued tasks and the rest of the bulk go in without ops: the
        // re-replication stream started right after the merge carries
        // them to every replica holder.
        self.adopt(ledger, covered);
    }

    /// No usable RAM replica for dead home `d` — the last line of defense
    /// is the durable tier. Restore the shard's latest checkpoint segment
    /// plus WAL tail and promote it exactly like a replica; on any
    /// failure (a stale checkpoint predating a failover `d` performed, or
    /// corruption) wind down with a diagnosis naming the shard, its
    /// subsumption chain, and the last durable LSN.
    fn try_pfs_restore(&mut self, d: Rank, required: u64, chain: &[Rank], why: &str) -> bool {
        let Some(cfg) = self.config.checkpoint.clone() else {
            self.enter_abort(d, why, chain);
            return false;
        };
        let start_us = trace::now_us();
        let started = Instant::now();
        let mut client = cfg.fs.client();
        let why = match restore_home(&mut client, d) {
            // A checkpoint whose merge count predates a promotion `d`
            // performed is missing the subsumed shard, exactly like a
            // stale replica — promoting it would silently lose state.
            Ok(r) if r.ledger.merges >= required => {
                eprintln!(
                    "adlb server {}: restoring shard of server {d} from pfs checkpoint \
                     (last durable LSN {}, {} datums, {} queued)",
                    self.comm.rank(),
                    r.last_lsn,
                    r.ledger.store.len(),
                    r.ledger.queue.len(),
                );
                self.shard.adopt_history(r.history);
                let covered: Vec<Rank> = std::iter::once(d).chain(chain.iter().copied()).collect();
                self.promote(d, &covered, r.ledger);
                self.stats.pfs_restores += 1;
                let micros = started.elapsed().as_micros() as u64;
                self.stats.ckpt_restore_micros = self.stats.ckpt_restore_micros.max(micros);
                trace::record_since(trace::KIND_CKPT_RESTORE, d as u64, start_us);
                return true;
            }
            Ok(r) => format!(
                "{why}, and its durable checkpoint (last durable LSN {}) \
                 predates an earlier failover it performed",
                r.last_lsn
            ),
            Err(e) => format!("{why}, and its checkpoint failed to restore: {e}"),
        };
        self.enter_abort(d, &why, chain);
        false
    }

    /// No replica to promote: the shard is lost, and with it the chain of
    /// shards subsumed into it. Record each as a lost home (data ops on it
    /// get benign defaults instead of parking forever) with its clients'
    /// streams marked truncated, then wind the run down.
    fn enter_abort(&mut self, d: Rank, why: &str, chain: &[Rank]) {
        for &e in std::iter::once(&d).chain(chain) {
            self.failover.lost_homes.insert(e);
            self.sched.mark_truncated(self.layout.clients_of(e));
        }
        self.wind_down(diagnosis(d, why, chain, self.config.checkpoint.is_some()));
    }

    /// Wind the run down with `report`: stay up, answer every `Get` with
    /// `NoMore` plus the diagnosis (a clean, attributable failure instead
    /// of a hang), and exit once every client is accounted for. The first
    /// time, the diagnosis goes to every live peer too, which winds down
    /// with it: a peer left serving would wait on check rounds and parked
    /// clients that a wound-down server no longer answers.
    pub(super) fn wind_down(&mut self, report: String) {
        if !self.failover.aborting() {
            self.failover.stop_replicating();
            eprintln!("adlb server {}: {report}; winding down", self.comm.rank());
            let note = ServerMsg::WindDown {
                diagnosis: report.clone(),
            }
            .encode();
            for p in self.failover.live_peers() {
                self.shard.send(p, TAG_SRV, note.clone());
            }
            self.failover.abort_reason = Some(report.clone());
            self.commit(ReplOp::Quarantine { report });
        }
        // Parked clients will never be served: tell them now.
        self.release_parked();
    }
}

#[cfg(test)]
impl Failover {
    pub(super) fn replica(&self, primary: Rank) -> Option<&Ledger> {
        self.ledgers.get(&primary)
    }
}
