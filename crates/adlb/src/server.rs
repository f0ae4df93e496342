//! The ADLB server loop.
//!
//! A server owns: the work queues for its clients, one shard of the data
//! store, the work-stealing policy, and (on the master server) the
//! termination-detection protocol. Everything is message-driven; the only
//! timer is a short receive timeout that paces steal attempts, heartbeats
//! and termination polls.
//!
//! Everything recoverable — the data shard, the queue, leases, request
//! dedup marks, write-ahead transfers — lives in one [`Ledger`] that the
//! handlers change only by `commit`ting a [`ReplOp`]; what is left on
//! [`Server`] is live-only. With `replication >= 2` the server streams
//! every committed op to its ring successors *before* any client-visible
//! response leaves this rank (write-through), holds their ledgers in
//! turn, and participates in the heartbeat membership protocol — see
//! [`crate::replica`] and [`crate::membership`]. When a peer dies, the
//! first live successor absorbs the dead peer's ledger into its own and
//! serves the shard in its place; the other servers re-route their
//! in-flight task transfers and carry on.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use mpisim::{trace, Comm, Rank, Src, TagSel, WireReader, WireWriter};

use crate::checkpoint::{
    restore_home, split_for_home, split_history_for_home, CheckpointConfig, CheckpointSink,
};
use crate::layout::Layout;
use crate::membership::Membership;
use crate::msg::{
    encode_repl, seal_seq, Request, Response, ServerMsg, Task, TAG_REQ, TAG_RESP, TAG_SRV,
    WORK_TYPE_NOTIFY, WORK_TYPE_WORK,
};
use crate::replica::{Applied, Ledger, ReplOp};
use crate::tenant::{TenantSched, TenantSpec, TenantStats};

/// How a server treats tasks whose holder died or reported failure.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Times a task may be re-run after its first attempt before it is
    /// quarantined. 0 means never retry.
    pub max_retries: u32,
    /// A lease older than this is revoked and its task requeued even
    /// though the holder still looks alive. On by default (30 s — far
    /// beyond any healthy task round trip, so it only fires on truly
    /// wedged holders); set `None` to trust liveness detection alone,
    /// which preserves exactly-once delivery for arbitrarily slow
    /// clients.
    pub lease_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            lease_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Receive timeout pacing idle actions (steals, termination polls).
const POLL_INTERVAL: Duration = Duration::from_micros(200);
/// How often an otherwise-idle server beacons liveness to its peers.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(1);
/// Peer silence beyond this marks it suspect; suspects are confirmed
/// against the transport's liveness oracle before failover starts.
const SUSPECT_AFTER: Duration = Duration::from_millis(10);
/// Priority of data-close notification tasks: above all user work, so
/// dataflow progress is never queued behind bulk tasks.
const NOTIFY_PRIORITY: i32 = i32::MAX;
/// Largest closed-scalar value a close notification carries. Anything
/// bigger (and every container) is announced by id alone, and the
/// subscriber reads it with a `retrieve` as before.
pub const NOTIFY_VALUE_MAX: usize = 1024;
/// Priority subtracted per accumulated attempt when a task is requeued,
/// so repeatedly failing work drifts behind fresh work instead of
/// hot-looping at the head of the queue.
const PRIORITY_PENALTY: i32 = 1;

/// Tunables for the server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Whether servers steal work from each other. Ablation E5 turns this
    /// off to measure what load balancing buys.
    pub steal_enabled: bool,
    /// Retry/requeue policy for failed tasks and dead clients.
    pub retry: RetryPolicy,
    /// Copies of each server's recoverable state, counting the primary.
    /// 1 disables replication (a dead server's shard is lost and every
    /// survivor winds the run down with a diagnosis); `R >= 2` survives
    /// `R - 1` server deaths with full failover.
    pub replication: usize,
    /// Post-failover re-replication: after this server promotes a dead
    /// peer's shard, re-stream its (now merged) ledger to every replica
    /// holder so `replication` live copies are restored mid-run. Off
    /// syncs first-seen holders only — R stays degraded after a failover
    /// and a second death of the promoted shard's holders loses it.
    pub re_replicate: bool,
    /// Payload bytes per [`crate::msg::ServerMsg::ReplSync`] chunk.
    /// Smaller chunks interleave more with normal service at the cost of
    /// more round trips.
    pub sync_chunk: usize,
    /// Durable checkpoint/WAL tier on the parallel filesystem. `None`
    /// (the default) keeps the pre-checkpoint behavior: losing every
    /// holder of a shard aborts the run. See [`CheckpointConfig`].
    pub checkpoint: Option<CheckpointConfig>,
    /// Declared tenants (weights and quotas) for multi-tenant runs.
    /// Empty keeps the single-program behavior: every task belongs to
    /// tenant 0, which is always admitted and always elected.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            steal_enabled: true,
            retry: RetryPolicy::default(),
            replication: 1,
            re_replicate: true,
            sync_chunk: 16 * 1024,
            checkpoint: None,
            tenants: Vec::new(),
        }
    }
}

/// Counters a server reports when it shuts down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Tasks accepted via put or forward.
    pub tasks_accepted: u64,
    /// Tasks handed to clients.
    pub tasks_delivered: u64,
    /// Steal requests this server sent.
    pub steals_attempted: u64,
    /// Steal requests that returned at least one task.
    pub steals_successful: u64,
    /// Tasks obtained by stealing.
    pub tasks_stolen: u64,
    /// Tasks donated to thieves.
    pub tasks_donated: u64,
    /// Data operations served.
    pub data_ops: u64,
    /// Close notifications generated.
    pub notifications: u64,
    /// Tasks requeued because their holder died mid-execution.
    pub tasks_requeued: u64,
    /// Tasks requeued after the holder reported a contained failure.
    pub tasks_retried: u64,
    /// Tasks dropped after exhausting their retry budget.
    pub tasks_quarantined: u64,
    /// Malformed or unexpected messages survived (not panicked on).
    pub protocol_errors: u64,
    /// Client ranks of this server observed to have died.
    pub ranks_failed: u64,
    /// Tasks delivered beyond the first of a `DeliverBatch` — round trips
    /// the prefetch pipeline saved clients.
    pub tasks_prefetched: u64,
    /// Dead-server shards this server promoted and took over.
    pub failovers: u64,
    /// Replication ops shipped to replica holders (write amplification:
    /// one op counted once per holder it was sent to).
    pub repl_ops: u64,
    /// Completed full-ledger sync streams (startup seeding plus
    /// post-failover re-replication). Counted, like the two fields
    /// below, only with re-replication on.
    pub repl_syncs: u64,
    /// Serialized ledger bytes acknowledged by sync receivers.
    pub repl_sync_bytes: u64,
    /// Microseconds from a confirmed server death until this server's
    /// last outstanding sync stream completed (its share of the
    /// replication factor restored), summed over this server's own
    /// failovers. Across servers this is a wall-clock window, not a
    /// volume: [`ServerStats::merge`] takes the max, never a sum.
    pub r_restore_micros: u64,
    /// WAL records flushed to the durable tier.
    pub ckpt_records: u64,
    /// Replication ops made durable (the records' contents).
    pub ckpt_ops: u64,
    /// Checkpoint segments written (WAL compactions).
    pub ckpt_segments: u64,
    /// Bytes written to the durable tier (WAL records plus segments).
    pub ckpt_bytes: u64,
    /// Shards restored from the durable tier (mid-run total-replica-loss
    /// recoveries plus whole-world resumes).
    pub pfs_restores: u64,
    /// Microseconds spent restoring shards from the durable tier. A
    /// wall-clock window like `r_restore_micros`: merged by max.
    pub ckpt_restore_micros: u64,
}

impl ServerStats {
    /// Fold `other` into `self`. Counters add; `r_restore_micros` is a
    /// duration, so the merged value is the max (the slowest server
    /// bounds the run's exposure window — summing it across servers
    /// would turn a duration into a meaningless total).
    ///
    /// The exhaustive destructuring is the point: adding a field to
    /// `ServerStats` without deciding how it aggregates is a compile
    /// error here, where the old hand-maintained list in
    /// `core::result::server_totals` silently dropped new fields.
    pub fn merge(&mut self, other: &ServerStats) {
        let ServerStats {
            tasks_accepted,
            tasks_delivered,
            steals_attempted,
            steals_successful,
            tasks_stolen,
            tasks_donated,
            data_ops,
            notifications,
            tasks_requeued,
            tasks_retried,
            tasks_quarantined,
            protocol_errors,
            ranks_failed,
            tasks_prefetched,
            failovers,
            repl_ops,
            repl_syncs,
            repl_sync_bytes,
            r_restore_micros,
            ckpt_records,
            ckpt_ops,
            ckpt_segments,
            ckpt_bytes,
            pfs_restores,
            ckpt_restore_micros,
        } = *other;
        self.tasks_accepted += tasks_accepted;
        self.tasks_delivered += tasks_delivered;
        self.steals_attempted += steals_attempted;
        self.steals_successful += steals_successful;
        self.tasks_stolen += tasks_stolen;
        self.tasks_donated += tasks_donated;
        self.data_ops += data_ops;
        self.notifications += notifications;
        self.tasks_requeued += tasks_requeued;
        self.tasks_retried += tasks_retried;
        self.tasks_quarantined += tasks_quarantined;
        self.protocol_errors += protocol_errors;
        self.ranks_failed += ranks_failed;
        self.tasks_prefetched += tasks_prefetched;
        self.failovers += failovers;
        self.repl_ops += repl_ops;
        self.repl_syncs += repl_syncs;
        self.repl_sync_bytes += repl_sync_bytes;
        self.r_restore_micros = self.r_restore_micros.max(r_restore_micros);
        self.ckpt_records += ckpt_records;
        self.ckpt_ops += ckpt_ops;
        self.ckpt_segments += ckpt_segments;
        self.ckpt_bytes += ckpt_bytes;
        self.pfs_restores += pfs_restores;
        self.ckpt_restore_micros = self.ckpt_restore_micros.max(ckpt_restore_micros);
    }
}

/// Everything a server hands back at shutdown: counters, the stdout
/// streams its clients uploaded, which streams are known-truncated
/// (their rank died mid-run), and the ledgers it ended with.
#[derive(Debug, Clone, Default)]
pub struct ServerOutcome {
    /// Monitoring counters.
    pub stats: ServerStats,
    /// Accumulated stdout per `(client rank, tenant)`, sorted.
    pub streams: Vec<(Rank, u32, String)>,
    /// Ranks whose stream may be missing output (the rank died, or its
    /// unreplicated stream died with its server).
    pub truncated: Vec<Rank>,
    /// Per-tenant admission/fairness counters, sorted by tenant id.
    pub tenant_rows: Vec<(u32, TenantStats)>,
    /// The server's own final ledger, moved out at exit — minus
    /// `outputs`, which were moved into `streams`.
    pub ledger: Ledger,
    /// The replica ledgers it held for its ring predecessors.
    pub replicas: HashMap<Rank, Ledger>,
}

/// A parked `Get`, waiting for matching work.
#[derive(Clone)]
struct Parked {
    rank: Rank,
    work_types: Vec<u32>,
    max_tasks: u32,
    /// Restrict untargeted deliveries to one tenant (a multi-tenant
    /// engine pulling only its own program's control tasks). Targeted
    /// tasks are always deliverable regardless.
    tenant: Option<u32>,
    /// The request's dedup seq — recorded (with the cached response) only
    /// when the `Get` is finally answered, so a re-sent copy of a parked
    /// `Get` after failover is processed fresh instead of dropped.
    seq: u64,
}

/// A full-ledger snapshot being streamed to one replica holder in
/// bounded chunks. `cursor` is the receiver-acknowledged high-water —
/// the resume point after any lost or superseded chunk.
struct OutSync {
    sync_id: u64,
    data: Bytes,
    cursor: usize,
    /// When the last chunk left; a stream stalled past the suspect
    /// window re-sends from the acked cursor (duplicates are harmless —
    /// the receiver ignores non-contiguous chunks and re-acks).
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
struct InSync {
    sync_id: u64,
    total: u64,
    buf: Vec<u8>,
    ops: Vec<ReplOp>,
}

struct Server {
    comm: Comm,
    layout: Layout,
    config: ServerConfig,
    /// This server's recoverable state. Read freely; changed only through
    /// [`Server::commit`] (one op) and [`Server::adopt`] (a recovered
    /// ledger).
    ledger: Ledger,
    /// Parked GET requests in arrival order.
    parked: Vec<Parked>,
    /// Clients this server is responsible for: its layout clients plus
    /// any adopted from dead peers.
    my_clients: HashSet<Rank>,
    /// Ranks whose stream is known-incomplete.
    truncated: HashSet<Rank>,
    /// Admission controller + weighted fair scheduler.
    tenants: TenantSched,
    /// Tenant each client last identified with (learned from
    /// tenant-filtered `Get`s); tags close notifications sent to it.
    client_tenants: HashMap<Rank, u32>,
    // -- replication -----------------------------------------------------
    /// Peer failure detector (empty with one server).
    membership: Membership,
    /// Replica ledgers this server holds for its ring predecessors.
    ledgers: HashMap<Rank, Ledger>,
    /// Current replica holders for *this* server's ledger.
    repl_targets: Vec<Rank>,
    /// Chunked full-ledger streams to (re)seeded replica holders.
    outbound_syncs: HashMap<Rank, OutSync>,
    /// Chunked full-ledger streams arriving from primaries.
    inbound_syncs: HashMap<Rank, InSync>,
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
    /// Monotonic id for this server's outbound syncs; a restarted sync
    /// supersedes chunks of the previous one still in flight.
    next_sync_id: u64,
    /// Set when a failover starts sync streams, taken into
    /// [`ServerStats::r_restore_micros`] when the last one completes.
    r_restore_started: Option<Instant>,
    /// Trace-clock twin of `r_restore_started`, for the
    /// `failover_recovery` span.
    r_restore_started_us: u64,
    /// Homes whose shard was lost (died with no replica to promote).
    lost_homes: HashSet<Rank>,
    /// Winding down after an unrecoverable peer death (replication=1):
    /// every `Get` is answered `NoMore`, lost-shard data ops get benign
    /// defaults, and the server exits once its clients are accounted for.
    aborting: bool,
    /// The shard-loss diagnosis, attached to every `NoMore` so clients
    /// can fail the run instead of mistaking the wind-down for a clean
    /// finish.
    abort_reason: Option<String>,
    /// Global termination has been decided and this server is in its
    /// post-shutdown linger: every remaining `Get` is answered `NoMore`,
    /// and a peer death no longer aborts anything — the run already
    /// completed; failover now only re-delivers shutdown notices.
    shutdown: bool,
    /// Peers whose `Bye` (final message after their shutdown notices) has
    /// arrived. The linger ends when every live peer has said goodbye.
    byes: HashSet<Rank>,
    /// Clients adopted from a peer that died mid-shutdown whose terminal
    /// notices cannot be proven delivered (not marked finished in the
    /// merged replica). The linger must answer each one's retried request
    /// before exiting — otherwise the retry lands in an exited rank's
    /// mailbox and the client waits forever, since exited ranks still
    /// read alive.
    stranded: HashSet<Rank>,
    last_heartbeat: Instant,
    // -- transaction buffer ----------------------------------------------
    /// Ops the message currently being handled committed, for the replica
    /// holders and the WAL; shipped before any buffered send leaves. Stays
    /// empty when neither consumer exists.
    tx_ops: Vec<ReplOp>,
    /// Outbound messages of the current handler, flushed after the ops.
    /// The client-visible response is always pushed last, so a mid-handler
    /// kill can lose the response but never a replicated effect that the
    /// response would have acknowledged.
    tx_sends: Vec<(Rank, mpisim::Tag, Bytes)>,
    // -- work stealing ---------------------------------------------------
    outstanding_steal: bool,
    steal_victim: Option<Rank>,
    /// When the outstanding steal request left (trace clock, µs).
    steal_started_us: u64,
    steal_victim_cursor: usize,
    /// Consecutive empty steal responses in the current sweep.
    empty_steal_streak: usize,
    /// Idle ticks to wait before sweeping victims again after a fully
    /// empty sweep. Prevents the empty-steal ping-pong from starving the
    /// termination detector while still retrying for late remote work.
    steal_backoff: u32,
    // -- termination detection (master only) -----------------------------
    epoch: u64,
    check_round: u64,
    check_members: Vec<Rank>,
    check_responses: HashMap<Rank, (bool, u64, u64, u64)>,
    check_in_flight: bool,
    prev_snapshot: Option<Vec<u64>>,
    stats: ServerStats,
    // -- durable tier ------------------------------------------------------
    /// Write-behind WAL/checkpoint sink, present when the config enables
    /// the durable tier. While it holds unflushed ops, every outbound
    /// send is parked inside it (group commit): nothing observable may
    /// leave this rank before the state it reflects is durable.
    ckpt: Option<CheckpointSink>,
}

/// Run the ADLB server loop on this rank until global termination,
/// returning the monitoring counters. See [`serve_ext`] for the full
/// outcome (streamed client stdout included).
pub fn serve(comm: Comm, layout: Layout, config: ServerConfig) -> ServerStats {
    serve_ext(comm, layout, config).stats
}

/// Run the ADLB server loop on this rank until global termination.
pub fn serve_ext(comm: Comm, layout: Layout, config: ServerConfig) -> ServerOutcome {
    assert!(layout.is_server(comm.rank()), "serve() on a client rank");
    Server::new(comm, layout, config).run()
}

impl Server {
    fn new(comm: Comm, layout: Layout, config: ServerConfig) -> Server {
        let me = comm.rank();
        let my_clients: HashSet<Rank> = layout.clients_of(me).into_iter().collect();
        let peers: Vec<Rank> = layout.server_ranks().filter(|r| *r != me).collect();
        let now = Instant::now();
        let mut s = Server {
            comm,
            layout,
            ledger: Ledger::default(),
            parked: Vec::new(),
            my_clients,
            truncated: HashSet::new(),
            tenants: TenantSched::new(&config.tenants),
            client_tenants: HashMap::new(),
            membership: Membership::new(peers, SUSPECT_AFTER, now),
            ledgers: HashMap::new(),
            repl_targets: Vec::new(),
            outbound_syncs: HashMap::new(),
            inbound_syncs: HashMap::new(),
            required_merges: HashMap::new(),
            subsumed: HashMap::new(),
            next_sync_id: 0,
            r_restore_started: None,
            r_restore_started_us: 0,
            abort_reason: None,
            shutdown: false,
            byes: HashSet::new(),
            stranded: HashSet::new(),
            lost_homes: HashSet::new(),
            aborting: false,
            last_heartbeat: now,
            tx_ops: Vec::new(),
            tx_sends: Vec::new(),
            outstanding_steal: false,
            steal_victim: None,
            steal_started_us: 0,
            steal_victim_cursor: 0,
            empty_steal_streak: 0,
            steal_backoff: 0,
            epoch: 0,
            check_round: 0,
            check_members: Vec::new(),
            check_responses: HashMap::new(),
            check_in_flight: false,
            prev_snapshot: None,
            stats: ServerStats::default(),
            ckpt: config
                .checkpoint
                .as_ref()
                .map(|c| CheckpointSink::new(c, me)),
            config,
        };
        // A resume loads the shard's durable state before the ring forms,
        // so the initial replica streams below carry the restored state
        // too.
        s.resume_from_pfs();
        s.refresh_repl_targets(false);
        s
    }

    fn run(&mut self) -> ServerOutcome {
        loop {
            // Drain the pipe without blocking first: an empty pipe is the
            // group-commit flush point — batching has nothing more to
            // gain and every held send is pure added latency — and only
            // then wait out the poll interval.
            let next = self.comm.try_recv(Src::Any, TagSel::Any).or_else(|| {
                if self.ckpt.as_ref().is_some_and(|s| s.buffered() > 0) {
                    self.ckpt_flush(false);
                }
                self.comm.recv_timeout(Src::Any, TagSel::Any, POLL_INTERVAL)
            });
            match next {
                // Shared decode: task payloads alias the arrival buffer
                // instead of being copied out of it (zero-copy receive).
                Some(m) if m.tag == TAG_REQ => {
                    match Request::decode_shared(&m.data) {
                        Ok((req, seq)) => self.handle_request(m.source, req, seq),
                        Err(e) => self.protocol_error(format_args!(
                            "undecodable request from rank {}: {e:?}",
                            m.source
                        )),
                    }
                    self.commit_tx();
                }
                Some(m) if m.tag == TAG_SRV => {
                    if self.membership.is_dead(m.source) {
                        // A straggler (e.g. fault-delayed) message from a
                        // peer whose ledger was already merged: applying it
                        // now would double-apply its effects.
                        continue;
                    }
                    self.membership.heard(m.source, Instant::now());
                    match ServerMsg::decode_shared(&m.data) {
                        Ok(msg) => {
                            let shutdown = self.handle_server_msg(m.source, msg);
                            self.commit_tx();
                            if shutdown {
                                return self.finish_run();
                            }
                        }
                        Err(e) => self.protocol_error(format_args!(
                            "undecodable server message from rank {}: {e:?}",
                            m.source
                        )),
                    }
                }
                Some(m) => self.protocol_error(format_args!(
                    "unexpected tag {} from rank {}",
                    m.tag, m.source
                )),
                None => {
                    if self.idle_actions() {
                        return self.finish_run();
                    }
                    self.commit_tx();
                }
            }
            self.maybe_heartbeat();
        }
    }

    /// Count and log a malformed or unexpected message instead of taking
    /// the whole server rank down with it. A confused peer is the peer's
    /// bug; this server must keep serving its other clients.
    fn protocol_error(&mut self, what: std::fmt::Arguments<'_>) {
        self.stats.protocol_errors += 1;
        eprintln!("adlb server {}: protocol error: {what}", self.comm.rank());
    }

    // -- write-through transaction buffer --------------------------------

    /// Ship the current handler's replication ops to the replica holders,
    /// then flush its buffered sends. The order is the crash-consistency
    /// invariant: a kill can land between sends, so anything a peer or
    /// client is about to observe must already be on its way to the
    /// replicas.
    fn commit_tx(&mut self) {
        if !self.tx_ops.is_empty() {
            ReplOp::coalesce(&mut self.tx_ops);
            // The durable tier logs the same op stream the replicas get.
            if !self.repl_targets.is_empty() {
                if let Some(sink) = &mut self.ckpt {
                    sink.log(&self.tx_ops);
                }
                self.stats.repl_ops += (self.tx_ops.len() * self.repl_targets.len()) as u64;
                let msg = encode_repl(&self.tx_ops);
                for &t in &self.repl_targets {
                    self.comm.send(t, TAG_SRV, msg.clone());
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
                if sink.due_flush() || self.shutdown || self.aborting {
                    self.ckpt_flush(false);
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
    fn ckpt_flush(&mut self, force_segment: bool) {
        let Some(mut sink) = self.ckpt.take() else {
            return;
        };
        let start_us = trace::now_us();
        let before = sink.records;
        let sends = sink.flush_wal();
        let wrote = sink.records > before;
        if force_segment || sink.due_segment() {
            sink.write_segment(&self.ledger);
        }
        self.stats.ckpt_records = sink.records;
        self.stats.ckpt_ops = sink.ops_logged;
        self.stats.ckpt_segments = sink.segments;
        self.stats.ckpt_bytes = sink.bytes_written;
        self.ckpt = Some(sink);
        for (rank, tag, bytes) in sends {
            self.comm.send(rank, tag, bytes);
        }
        if wrote || force_segment {
            trace::record_since(trace::KIND_CKPT_FLUSH, self.comm.rank() as u64, start_us);
        }
    }

    /// Make the post-promotion state durable and leave redirect
    /// tombstones: the dead homes' shards now live in this server's
    /// checkpoint, and a whole-world resume (or a later restore of THIS
    /// server) must find them there.
    fn ckpt_cover_homes(&mut self, homes: &[Rank]) {
        if self.ckpt.is_none() {
            return;
        }
        self.ckpt_flush(true);
        if let Some(sink) = &mut self.ckpt {
            for &h in homes {
                sink.write_redirect(h);
            }
        }
    }

    /// With `resume` configured, load this shard's durable state (following
    /// redirect tombstones to the covering checkpoint, then keeping only
    /// this home's slice) before serving. Unlike a promotion this neither
    /// counts a failover nor re-pushes cached responses unprompted: the
    /// restarted clients replay their request streams from seq 1 and pull
    /// every durable response through the dedup path instead.
    fn resume_from_pfs(&mut self) {
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
                if let Some(sink) = &mut self.ckpt {
                    sink.adopt_history(history);
                    sink.fast_forward(r.last_lsn, r.seg_no);
                }
                // Re-anchor the durable state under this home right away:
                // the covering checkpoint may sit in another server's
                // directory and will be superseded by its own resume.
                self.ckpt_flush(true);
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

    /// Apply `op` to this server's ledger — the one way a handler changes
    /// recoverable state — and log it for the replica holders and the WAL
    /// when either exists. An op the store refused changed nothing and is
    /// not logged.
    fn commit(&mut self, op: ReplOp) -> Applied {
        let log = (!self.repl_targets.is_empty() || self.ckpt.is_some()).then(|| op.clone());
        let applied = self.ledger.apply(self.comm.rank(), op);
        if applied.error.is_none() {
            self.tx_ops.extend(log);
        }
        applied
    }

    /// Take a recovered ledger — a dead peer's replica, a shard restored
    /// from pfs, this server's own resumed slice — into the live state.
    /// `homes` are the dead servers it carried (see [`Ledger::absorb`]).
    fn adopt(&mut self, ledger: Ledger, homes: &[Rank]) {
        for lease in ledger.leases.values().flatten() {
            self.tenants.lease_opened(lease.task.tenant);
        }
        self.ledger.absorb(ledger, homes);
    }

    /// Buffer a response, sealed with the seq of the request it answers
    /// (the client drops responses whose seq is not its outstanding
    /// request — see [`Response::decode_sealed`]). When `replicate` is
    /// set, also record the `(seq, sealed response)` pair locally and in
    /// the replica stream so a promoted successor can answer the client's
    /// re-send byte-for-byte — or push it unprompted at promotion, in
    /// case the client's copy died in the dead server's send queue.
    fn send_response(&mut self, rank: Rank, seq: u64, resp: Response, replicate: bool) {
        // Everything answered through here is a `Get` (or its terminal
        // notice): a request to the client's own home.
        self.respond(self.layout.server_of(rank), rank, seq, resp, replicate);
    }

    /// [`Server::send_response`] for a request addressed to `home`.
    fn respond(&mut self, home: Rank, rank: Rank, seq: u64, resp: Response, replicate: bool) {
        let bytes = seal_seq(&resp.encode(), seq);
        if replicate {
            self.record_seq(home, rank, seq, Some(bytes.clone()));
        }
        // Any answered round trip un-strands the client: it got the
        // response it was blocked on (see `linger`).
        self.stranded.remove(&rank);
        self.tx_sends.push((rank, TAG_RESP, bytes));
    }

    /// Mark `client`'s request `seq` to `home` fully processed (with its
    /// cached response, for awaited requests).
    fn record_seq(&mut self, home: Rank, client: Rank, seq: u64, resp: Option<Bytes>) {
        self.commit(ReplOp::SeqResp {
            home,
            client,
            seq,
            resp,
        });
    }

    fn quiescent(&self) -> bool {
        self.my_clients
            .iter()
            .all(|c| self.ledger.finished.contains(c) || self.parked.iter().any(|p| p.rank == *c))
            && self.ledger.queue.is_empty()
            && !self.outstanding_steal
            && self.ledger.leases.values().all(|d| d.is_empty())
            && self.ledger.pending_xfers.is_empty()
    }

    /// The current termination-detection owner: the first live server on
    /// the ring starting from the layout's first server.
    fn master(&self) -> Rank {
        self.layout
            .route(self.layout.first_server(), self.membership.dead())
    }

    /// Where requests for home server `home` are currently served.
    fn host_of(&self, home: Rank) -> Rank {
        self.layout.route(home, self.membership.dead())
    }

    // -- task routing ----------------------------------------------------

    /// Send a task toward its home: targeted tasks go to the server
    /// currently hosting the target's home; untargeted tasks stay here.
    fn route_task(&mut self, task: Task) {
        if let Some(target) = task.target {
            let home = self.layout.server_of(target);
            if self.host_of(home) != self.comm.rank() {
                self.send_xfer(home, vec![task], false);
                return;
            }
        }
        self.accept_task(task);
    }

    /// Ship tasks to the server hosting home `dest` under the write-ahead
    /// transfer protocol: log (and replicate) the transfer first, then
    /// send; the entry is retired by the receiver's ack and re-driven to
    /// the promoted successor if the receiver dies first.
    fn send_xfer(&mut self, dest: Rank, tasks: Vec<Task>, steal: bool) {
        debug_assert!(!tasks.is_empty());
        let fseq = self.ledger.next_fseq.get(&dest).copied().unwrap_or(0) + 1;
        let host = self.host_of(dest);
        let wire = xfer_wire(self.comm.rank(), dest, fseq, steal, &tasks);
        self.commit(ReplOp::XferOut {
            dest,
            fseq,
            steal,
            tasks,
        });
        if let Some(x) = self.ledger.pending_xfers.last_mut() {
            x.sent_to = Some(host);
        }
        self.tx_sends.push((host, TAG_SRV, wire));
    }

    /// Apply an inbound transfer exactly once (dedup by `(dest, origin)`
    /// high-water) and ack it. Returns whether the transfer was fresh.
    fn apply_xfer(
        &mut self,
        sender: Rank,
        origin: Rank,
        dest: Rank,
        fseq: u64,
        tasks: Vec<Task>,
    ) -> bool {
        let me = self.comm.rank();
        if dest != me {
            // Addressed to us for a home we don't know is dead yet?
            self.ensure_home(dest);
            if self.host_of(dest) != me {
                self.protocol_error(format_args!(
                    "transfer for home {dest} (origin {origin}) misrouted here"
                ));
                return false;
            }
        }
        let fresh = self.take_xfer_in(origin, dest, fseq, tasks);
        self.tx_sends.push((
            sender,
            TAG_SRV,
            ServerMsg::XferAck { origin, dest, fseq }.encode(),
        ));
        fresh
    }

    /// Accept the tasks of transfer `fseq` from `origin`'s ledger toward
    /// home `dest` unless they already were (dedup by `(dest, origin)`
    /// high-water). Returns whether the transfer was fresh.
    fn take_xfer_in(&mut self, origin: Rank, dest: Rank, fseq: u64, tasks: Vec<Task>) -> bool {
        let applied = self.ledger.xfer_applied.get(&(dest, origin));
        if fseq <= applied.copied().unwrap_or(0) {
            return false;
        }
        self.epoch += 1;
        self.commit(ReplOp::XferIn {
            origin,
            dest,
            fseq,
            n: tasks.len() as u64,
        });
        for t in tasks {
            self.accept_task(t);
        }
        true
    }

    /// Re-send every write-ahead entry whose last receiver died (or that
    /// was inherited from a dead peer and never re-driven). Entries whose
    /// new host is this server are applied locally — the dedup high-water
    /// (merged from the dead peer's ledger) decides whether the dead peer
    /// had already applied them.
    fn redrive_pending_xfers(&mut self) {
        let me = self.comm.rank();
        let mut mine = Vec::new();
        for i in 0..self.ledger.pending_xfers.len() {
            let x = &self.ledger.pending_xfers[i];
            if x.sent_to.is_some_and(|h| !self.membership.is_dead(h)) {
                continue;
            }
            let host = self.host_of(x.dest);
            if host == me {
                mine.push(x.clone());
            } else {
                let wire = xfer_wire(x.origin, x.dest, x.fseq, x.steal, &x.tasks);
                self.tx_sends.push((host, TAG_SRV, wire));
                self.ledger.pending_xfers[i].sent_to = Some(host);
            }
        }
        for x in mine {
            self.take_xfer_in(x.origin, x.dest, x.fseq, x.tasks);
            self.commit(ReplOp::XferDone {
                origin: x.origin,
                dest: x.dest,
                fseq: x.fseq,
            });
        }
    }

    /// Deliver to a parked client or enqueue locally.
    fn accept_task(&mut self, task: Task) {
        self.stats.tasks_accepted += 1;
        // A task targeted at a rank that already died (e.g. a forward that
        // raced the death sweep) must be rescued here, or it would sit in
        // the targeted queue forever and block termination.
        let task = match task.target {
            Some(t) if !self.comm.is_alive(t) => match self.retarget_for_dead(task, t) {
                Some(task) => task,
                None => return,
            },
            _ => task,
        };
        // New work ends any steal backoff: there may be more where this
        // came from.
        self.steal_backoff = 0;
        self.empty_steal_streak = 0;
        // An untargeted task can only bypass the queue straight to a
        // parked client when the tenant's lease cap allows another
        // in-flight task and the client's tenant filter matches; targeted
        // tasks always go to their rank.
        let direct_ok = task.target.is_some()
            || (self.tenants.can_lease(task.tenant) && {
                self.tenants.note_tenant(task.tenant);
                true
            });
        let slot = if direct_ok {
            self.parked.iter().position(|p| {
                p.work_types.contains(&task.work_type)
                    && match task.target {
                        Some(t) => p.rank == t,
                        None => p.tenant.is_none() || p.tenant == Some(task.tenant),
                    }
            })
        } else {
            None
        };
        match slot {
            Some(i) => {
                let p = self.parked.remove(i);
                self.stats.tasks_delivered += 1;
                self.tenants.stats_mut(task.tenant).delivered += 1;
                // Delivered straight to a parked client: the queue wait
                // is zero by construction; record it as such so queue-
                // wait percentiles cover every delivered task.
                let now_us = trace::now_us();
                trace::record(
                    trace::KIND_TASK_QUEUE,
                    self.stats.tasks_delivered,
                    now_us,
                    now_us,
                );
                self.open_leases(p.rank, std::slice::from_ref(&task), &[now_us]);
                self.send_response(p.rank, p.seq, Response::DeliverTask(task), true);
            }
            None => {
                let tenant = task.tenant;
                let untargeted = task.target.is_none();
                self.commit(ReplOp::Push { tasks: vec![task] });
                if untargeted {
                    let depth = self.ledger.queue.untargeted_of(tenant) as u64;
                    let row = self.tenants.stats_mut(tenant);
                    row.queue_peak = row.queue_peak.max(depth);
                }
            }
        }
    }

    /// Open a lease per task, in delivery order. Clients acknowledge in
    /// the same order, so releases always pop the front of the deque.
    /// `accepted_us[i]` is task `i`'s accept stamp on the trace clock.
    fn open_leases(&mut self, rank: Rank, tasks: &[Task], accepted_us: &[u64]) {
        for t in tasks {
            self.tenants.lease_opened(t.tenant);
        }
        self.commit(ReplOp::LeaseOpen {
            client: rank,
            tasks: tasks.to_vec(),
        });
        if trace::enabled() {
            self.ledger.backdate_leases(rank, accepted_us);
        }
    }

    /// Choose and dequeue the single best deliverable task for the parked
    /// request `p`, composing the targeted heaps with the fair scheduler:
    ///
    /// 1. Targeted work for `p.rank` competes on raw priority and wins
    ///    ties — it can only run there, and fairness never withholds it.
    /// 2. Untargeted work first elects a tenant by deficit round robin
    ///    over the tenants that have matching work, honor the request's
    ///    tenant filter, and are under their lease cap; that tenant's
    ///    best task is taken, so intra-tenant (priority desc, arrival
    ///    asc) order is preserved.
    ///
    /// With a single tenant the DRR always elects it and this reduces to
    /// the pre-tenant global-best pop. The choice only reads the queue
    /// (peeks at heap heads); the task then leaves it like any other
    /// recoverable change, as a committed `Remove`. Returns the task with
    /// its accept stamp (trace clock, µs).
    fn next_scheduled(&mut self, p: &Parked) -> Option<(Task, u64)> {
        let queue = &self.ledger.queue;
        let targeted = queue.peek_targeted(p.rank, &p.work_types);
        let eligible: Vec<u32> = match p.tenant {
            Some(t) => {
                if self.tenants.can_lease(t) && queue.peek_untargeted(t, &p.work_types).is_some() {
                    vec![t]
                } else {
                    Vec::new()
                }
            }
            None => queue
                .tenants_with_work(&p.work_types)
                .into_iter()
                .filter(|t| self.tenants.can_lease(*t))
                .collect(),
        };
        let best_untargeted_prio = eligible
            .iter()
            .filter_map(|t| queue.peek_untargeted(*t, &p.work_types))
            .map(|e| e.task.priority)
            .max();
        let head = match (targeted, best_untargeted_prio) {
            (Some(t), up) if up.is_none_or(|up| t.task.priority >= up) => t,
            _ => {
                let elected = self.tenants.elect(&eligible)?;
                if eligible.len() > 1 {
                    self.tenants.stats_mut(elected).delivered_contended += 1;
                }
                queue.peek_untargeted(elected, &p.work_types)?
            }
        };
        let (task, accepted_us) = (head.task.clone(), head.accepted_us);
        self.tenants.stats_mut(task.tenant).delivered += 1;
        self.commit(ReplOp::Remove {
            tasks: vec![task.clone()],
        });
        Some((task, accepted_us))
    }

    /// Answer a `Get` from the queue with up to `max_tasks` tasks, opening
    /// leases and caching the response under the request's seq.
    fn deliver_from_queue(&mut self, p: &Parked) -> bool {
        let cap = p.max_tasks.max(1) as usize;
        let mut batch = Vec::new();
        let mut accepted = Vec::new();
        while batch.len() < cap {
            let Some((task, us)) = self.next_scheduled(p) else {
                break;
            };
            batch.push(task);
            accepted.push(us);
        }
        if batch.is_empty() {
            return false;
        }
        if trace::enabled() {
            for (i, &us) in accepted.iter().enumerate() {
                trace::record_since(
                    trace::KIND_TASK_QUEUE,
                    self.stats.tasks_delivered + i as u64 + 1,
                    us,
                );
            }
        }
        self.stats.tasks_delivered += batch.len() as u64;
        self.stats.tasks_prefetched += batch.len() as u64 - 1;
        self.open_leases(p.rank, &batch, &accepted);
        let resp = if batch.len() == 1 {
            Response::DeliverTask(batch.remove(0))
        } else {
            Response::DeliverBatch(batch)
        };
        self.send_response(p.rank, p.seq, resp, true);
        true
    }

    /// After a promotion merged a dead peer's queue, parked clients may
    /// now be servable without any new task arriving.
    fn service_parked(&mut self) {
        let mut i = 0;
        while i < self.parked.len() {
            let p = self.parked[i].clone();
            if self.deliver_from_queue(&p) {
                self.parked.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// A failed task comes back: retry it with a priority penalty, or
    /// quarantine it once its budget is spent. `death` selects which
    /// counter records the requeue (holder died vs. reported failure);
    /// `error` is what ended this attempt.
    fn retry_or_quarantine(&mut self, mut task: Task, death: bool, error: &str) {
        task.attempts += 1;
        if task.attempts > self.config.retry.max_retries {
            self.stats.tasks_quarantined += 1;
            let report = format!(
                "task (work_type {}, tenant {}) quarantined after {} attempts; last error: {}",
                task.work_type, task.tenant, task.attempts, error
            );
            eprintln!("adlb server {}: {report}", self.comm.rank());
            self.commit(ReplOp::Quarantine { report });
            return;
        }
        if death {
            self.stats.tasks_requeued += 1;
        } else {
            self.stats.tasks_retried += 1;
        }
        let penalty = PRIORITY_PENALTY.saturating_mul(task.attempts as i32);
        task.priority = task.priority.saturating_sub(penalty);
        // A requeue is fresh activity for termination detection.
        self.epoch += 1;
        self.accept_task(task);
    }

    /// Prepare a task bound for (or held by) the dead rank `dead` for
    /// requeueing. A close notification for a dead rank is meaningless
    /// and dropped (`None`); other targeted tasks are untargeted so a
    /// survivor can run them.
    fn retarget_for_dead(&mut self, mut task: Task, dead: Rank) -> Option<Task> {
        if task.target == Some(dead) {
            if task.work_type == WORK_TYPE_NOTIFY {
                return None;
            }
            task.target = None;
        }
        Some(task)
    }

    /// Notice dead clients of this server: mark them permanently finished
    /// (they will never park again), requeue any task they held, and
    /// rescue tasks still queued with the dead rank as target.
    fn detect_dead_clients(&mut self) {
        let mine: Vec<Rank> = self
            .my_clients
            .iter()
            .copied()
            .filter(|r| !self.ledger.finished.contains(r) && !self.comm.is_alive(*r))
            .collect();
        for rank in mine {
            self.stats.ranks_failed += 1;
            self.epoch += 1;
            eprintln!(
                "adlb server {}: client rank {rank} died; requeueing its work",
                self.comm.rank()
            );
            self.truncated.insert(rank);
            self.parked.retain(|p| p.rank != rank);
            self.client_tenants.remove(&rank);
            // The dead rank's ENTIRE lease deque requeues: with prefetch a
            // client may die holding a whole undone batch, and every one
            // of those tasks must run somewhere else.
            for lease in self.commit(ReplOp::ClientDead { client: rank }).leases {
                self.tenants.lease_closed(lease.task.tenant);
                if let Some(task) = self.retarget_for_dead(lease.task, rank) {
                    self.retry_or_quarantine(task, true, &format!("holder rank {rank} died"));
                }
            }
            let mut stranded = Vec::new();
            while let Some(t) = self.ledger.queue.targeted_head(rank).cloned() {
                self.commit(ReplOp::Remove {
                    tasks: vec![t.clone()],
                });
                stranded.push(t);
            }
            for t in stranded {
                if let Some(t) = self.retarget_for_dead(t, rank) {
                    self.accept_task(t);
                }
            }
        }
    }

    /// Revoke leases older than the configured timeout (if any).
    fn check_lease_timeouts(&mut self) {
        let Some(timeout) = self.config.retry.lease_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<Rank> = self
            .ledger
            .leases
            .iter()
            .filter(|(_, d)| {
                d.front()
                    .is_some_and(|l| now.duration_since(l.since) > timeout)
            })
            .map(|(r, _)| *r)
            .collect();
        for rank in expired {
            // Revoke the rank's whole deque, not just the expired front:
            // acks are matched FIFO, so releasing later leases while the
            // front is requeued would misattribute every following ack.
            // The holder may still be alive and eventually ack; the
            // revocation turns that many acks into stale-ack credits so
            // they do not release newer leases.
            let revoked = self.commit(ReplOp::LeaseRevoke { client: rank }).leases;
            eprintln!(
                "adlb server {}: {} lease(s) on rank {rank} expired; requeueing",
                self.comm.rank(),
                revoked.len()
            );
            for lease in revoked {
                self.tenants.lease_closed(lease.task.tenant);
                self.retry_or_quarantine(
                    lease.task,
                    true,
                    &format!("lease on rank {rank} expired"),
                );
            }
        }
    }

    // -- client requests ---------------------------------------------------

    /// Put-side admission: an untargeted client put of a tenant over its
    /// `max_queued` quota is refused (`Err`) and NACKed back to the
    /// submitter. Targeted puts, control/notify tasks, and all
    /// server-internal paths (retries, forwards, steals) bypass
    /// admission — they are existing dataflow in flight, not new leaf
    /// demand, and control tasks in particular can only be consumed by
    /// the engine that produced them, so damming them behind a quota
    /// would deadlock a capped tenant against itself.
    fn admit_put(&mut self, task: Task) -> Result<Task, Task> {
        if task.target.is_some() || task.work_type != WORK_TYPE_WORK {
            return Ok(task);
        }
        let tenant = task.tenant;
        self.tenants.note_tenant(tenant);
        let queued = self.ledger.queue.untargeted_of(tenant);
        if self.tenants.admits(tenant, queued) {
            self.tenants.stats_mut(tenant).admitted += 1;
            Ok(task)
        } else {
            self.tenants.stats_mut(tenant).rejected += 1;
            Err(task)
        }
    }

    /// The data shard a request implicates (`None` for non-data ops,
    /// which belong to the sending client's home server). A batch is one
    /// home's outbox, so its first data op speaks for all of them.
    fn data_home(&self, req: &Request) -> Option<Rank> {
        match req {
            Request::DataCreate { id, .. }
            | Request::DataStore { id, .. }
            | Request::DataRetrieve { id }
            | Request::DataSubscribe { id, .. }
            | Request::DataInsert { id, .. }
            | Request::DataLookup { id, .. }
            | Request::DataEnumerate { id }
            | Request::DataClose { id }
            | Request::DataExists { id }
            | Request::DataIncrWriters { id, .. } => Some(self.layout.data_owner(*id)),
            Request::Batch(ops) => ops.iter().find_map(|r| self.data_home(r)),
            _ => None,
        }
    }

    /// A message implicates home server `home`, and its sender routed it
    /// here: in the sender's view every server from `home` round the ring
    /// to this one is dead. For each of them that died silently (the
    /// sender noticed before we did), confirm against the oracle and run
    /// the failover now, so the merged state — leases included — is in
    /// place before the message is served.
    fn ensure_home(&mut self, home: Rank) {
        loop {
            let host = self.host_of(home);
            if host == self.comm.rank()
                || self.comm.is_alive(host)
                || !self.membership.mark_dead(host)
            {
                return;
            }
            self.handle_server_death(host);
        }
    }

    fn handle_request(&mut self, source: Rank, req: Request, seq: u64) {
        let home = self
            .data_home(&req)
            .unwrap_or_else(|| self.layout.server_of(source));
        if home != self.comm.rank() {
            self.ensure_home(home);
        }
        // Exactly-once: a re-sent awaited request gets its cached response
        // verbatim; a re-sent fire-and-forget request is dropped. After a
        // whole-world resume the restarted client replays its request
        // stream from seq 1 — every awaited request below the durable
        // high-water is answered byte-for-byte from the checkpoint's
        // response history, forcing the client down the same execution
        // path until it passes the durable prefix.
        let hw = self.ledger.seqs.get(&(home, source)).copied().unwrap_or(0);
        if seq <= hw {
            if let Some((s, bytes)) = self.ledger.resps.get(&(home, source)) {
                if *s == seq {
                    let b = bytes.clone();
                    self.tx_sends.push((source, TAG_RESP, b));
                    return;
                }
            }
            if let Some(bytes) = self.ckpt.as_ref().and_then(|c| c.durable_resp(source, seq)) {
                let b = bytes.clone();
                self.tx_sends.push((source, TAG_RESP, b));
                return;
            }
            // No response was ever recorded for this seq. Fire-and-forget
            // requests advance the high-water without response bytes and
            // were already applied — drop the duplicate. Anything else
            // here is an awaited request whose response is deliberately
            // unreplicated (reads, deterministic errors); the replaying
            // client is blocked on it, so re-execute it against the
            // restored state.
            if !req.wants_reply() {
                return;
            }
        }
        self.epoch += 1;
        if let Request::Get {
            work_types,
            max_tasks,
            tenant,
        } = req
        {
            if self.aborting || self.shutdown {
                self.answer_no_more(source, seq);
                return;
            }
            if let Some(t) = tenant {
                // Remember which tenant this client identifies with so
                // close notifications targeted at it carry the tag.
                self.client_tenants.insert(source, t);
                self.tenants.note_tenant(t);
            }
            let p = Parked {
                rank: source,
                work_types,
                max_tasks,
                tenant,
                seq,
            };
            if !self.deliver_from_queue(&p) {
                self.parked.push(p);
                // An empty queue with parked clients is the steal
                // trigger; don't wait for the poll timeout.
                self.try_steal();
            }
            return;
        }
        let reply = req.wants_reply();
        let (resp, mutated) = match req {
            Request::Batch(ops) => self.apply_batch(source, ops),
            req => self.apply(source, req),
        };
        if reply {
            // Only a response that acknowledges a mutation is cached and
            // replicated: reads and failed ops changed nothing, so a
            // re-sent copy simply re-executes to the same answer.
            self.respond(home, source, seq, resp, mutated);
        } else {
            self.record_seq(home, source, seq, None);
        }
    }

    /// Apply a client's outbox: its entries in order, inside the caller's
    /// one transaction, collecting one response each.
    fn apply_batch(&mut self, source: Rank, ops: Vec<Request>) -> (Response, bool) {
        let mut resps = Vec::with_capacity(ops.len());
        let mut mutated = false;
        // The first write error since the last ack: it belongs to the
        // task whose `TaskDone` comes next.
        let mut failed: Option<String> = None;
        for mut op in ops {
            if let Request::TaskDone { ok, error } = &mut op {
                if let (true, Some(e)) = (*ok, failed.take()) {
                    (*ok, *error) = (false, e);
                }
            }
            let (resp, m) = self.apply(source, op);
            if let Response::Error(e) = &resp {
                failed.get_or_insert_with(|| e.clone());
            }
            mutated |= m;
            resps.push(resp);
        }
        (Response::Batch(resps), mutated)
    }

    /// Execute one request (anything but a `Get`, which parks, or a batch)
    /// and return its response plus whether it changed replicated state.
    fn apply(&mut self, source: Rank, req: Request) -> (Response, bool) {
        if let Some(h) = self.data_home(&req) {
            self.stats.data_ops += 1;
            // Lost shard (a data home died with no replica): answer
            // benignly so the program winds down through the NoMore path
            // instead of crashing on spurious data errors — reads see
            // "not ready", writes vanish.
            if self.lost_homes.contains(&h) {
                let resp = match req {
                    Request::DataRetrieve { .. } | Request::DataLookup { .. } => {
                        Response::MaybeBytes(None)
                    }
                    Request::DataSubscribe {
                        notify_closed: false,
                        ..
                    }
                    | Request::DataExists { .. } => Response::Bool(false),
                    Request::DataEnumerate { .. } => Response::Pairs(Vec::new()),
                    _ => Response::Ok,
                };
                return (resp, false);
            }
        }
        let read = |r: Result<Response, crate::datastore::DataError>| {
            (r.unwrap_or_else(|e| Response::Error(e.message)), false)
        };
        match req {
            Request::Batch(_) | Request::Get { .. } => (
                Response::Error("not a request a batch can carry".to_string()),
                false,
            ),
            Request::Put(task) => {
                if self.aborting {
                    // Winding down: accept and drop — the machine will
                    // never deliver it, and the client must not hang.
                    return (Response::Ok, false);
                }
                match self.admit_put(task) {
                    Ok(task) => {
                        self.route_task(task);
                        (Response::Ok, true)
                    }
                    // Nothing mutated: the rejection is not replicated,
                    // and a post-failover re-send re-runs admission. The
                    // client re-offers the task — admission is
                    // backpressure, never loss.
                    Err(task) => (Response::Rejected(vec![task]), false),
                }
            }
            Request::TaskDone { ok, error } => {
                self.handle_ack(source, ok, error);
                (Response::Ok, true)
            }
            Request::Output { text, tenant } => {
                self.commit(ReplOp::Out {
                    client: source,
                    text,
                    tenant,
                });
                (Response::Ok, true)
            }
            Request::Finished => {
                self.parked.retain(|p| p.rank != source);
                self.commit(ReplOp::ClientFinished { client: source });
                (Response::Ok, true)
            }
            Request::DataCreate { id, type_tag } => self.write(id, ReplOp::Create { id, type_tag }),
            Request::DataStore { id, value } => self.write(id, ReplOp::Store { id, value }),
            Request::DataInsert { id, key, value } => {
                self.write(id, ReplOp::Insert { id, key, value })
            }
            Request::DataClose { id } => self.write(id, ReplOp::CloseDatum { id }),
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
            } if self.ledger.store.exists_closed(id) => {
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
            Request::DataRetrieve { id } => {
                read(self.ledger.store.retrieve(id).map(Response::MaybeBytes))
            }
            Request::DataLookup { id, key } => {
                read(self.ledger.store.lookup(id, &key).map(Response::MaybeBytes))
            }
            Request::DataEnumerate { id } => {
                read(self.ledger.store.enumerate(id).map(Response::Pairs))
            }
            Request::DataExists { id } => {
                (Response::Bool(self.ledger.store.exists_closed(id)), false)
            }
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

    /// Terminal answer for a client's `Get` while winding down: `NoMore`
    /// with the diagnosis, and the client counts as permanently parked.
    fn answer_no_more(&mut self, source: Rank, seq: u64) {
        self.commit(ReplOp::ClientFinished { client: source });
        let quarantined = self.capped_reports();
        let aborted = self.abort_reason.clone();
        self.send_response(
            source,
            seq,
            Response::NoMore {
                quarantined,
                aborted,
            },
            true,
        );
    }

    /// One lease acknowledgement from `source`: it either consumes a
    /// stale-ack credit (the lease was already revoked and the task
    /// requeued) or releases the oldest open lease; a failed result feeds
    /// the retry/quarantine policy.
    fn handle_ack(&mut self, source: Rank, ok: bool, error: String) {
        if self.ledger.credits.contains_key(&source) {
            self.commit(ReplOp::CreditUse {
                client: source,
                n: 1,
            });
            return;
        }
        if self.ledger.leases.get(&source).is_none_or(|d| d.is_empty()) {
            // An adopted client acking a task its lost home leased:
            // nothing to release, nothing to report.
            if !self.aborting {
                self.protocol_error(format_args!("task ack from rank {source} with no lease"));
            }
            return;
        }
        let drop = ReplOp::LeaseDrop {
            client: source,
            n: 1,
        };
        for lease in self.commit(drop).leases {
            self.tenants.lease_closed(lease.task.tenant);
            // Accept → ack: the server-side view of task latency. The
            // high id bits carry (tenant + 1) so per-tenant percentiles
            // can be split out; the low bits keep the acking rank.
            trace::record_since(
                trace::KIND_TASK_LATENCY,
                ((lease.task.tenant as u64 + 1) << 32) | source as u64,
                lease.accepted_us,
            );
            if !ok {
                self.retry_or_quarantine(lease.task, false, &error);
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
        if let Ok(Some(value)) = self.ledger.store.retrieve(id) {
            if value.len() <= NOTIFY_VALUE_MAX {
                note.push(1);
                note.extend_from_slice(&value);
            }
        }
        let note = Bytes::from(note);
        for rank in subscribers {
            self.stats.notifications += 1;
            let tenant = self.client_tenants.get(&rank).copied().unwrap_or(0);
            let task = Task::new(WORK_TYPE_NOTIFY, NOTIFY_PRIORITY, Some(rank), note.clone())
                .with_tenant(tenant);
            self.route_task(task);
        }
    }

    // -- server messages ---------------------------------------------------

    /// Returns true when this server must shut down.
    fn handle_server_msg(&mut self, source: Rank, msg: ServerMsg) -> bool {
        match msg {
            ServerMsg::Forward {
                origin,
                dest,
                fseq,
                task,
            } => {
                self.apply_xfer(source, origin, dest, fseq, vec![task]);
            }
            ServerMsg::StealReq {
                thief,
                work_types,
                need,
            } => {
                let quota = self.ledger.queue.steal_quota(&work_types, need as usize);
                let mut tasks = Vec::with_capacity(quota);
                while tasks.len() < quota {
                    let Some(t) = self.ledger.queue.steal_head(&work_types).cloned() else {
                        break;
                    };
                    self.commit(ReplOp::Remove {
                        tasks: vec![t.clone()],
                    });
                    tasks.push(t);
                }
                if tasks.is_empty() {
                    // Empty steal traffic must not perturb the epoch or
                    // the transfer ledger, or the steal retry loop would
                    // keep termination detection from ever seeing two
                    // stable rounds. fseq 0 marks "nothing transferred".
                    self.tx_sends.push((
                        thief,
                        TAG_SRV,
                        ServerMsg::StealResp {
                            origin: self.comm.rank(),
                            dest: thief,
                            fseq: 0,
                            tasks: Vec::new(),
                        }
                        .encode(),
                    ));
                } else {
                    self.epoch += 1;
                    self.stats.tasks_donated += tasks.len() as u64;
                    self.send_xfer(thief, tasks, true);
                }
            }
            ServerMsg::StealResp {
                origin,
                dest,
                fseq,
                tasks,
            } => {
                let mine = dest == self.comm.rank();
                if mine && self.outstanding_steal {
                    self.outstanding_steal = false;
                    self.steal_victim = None;
                    // Steal round-trip, empty or not; id = victim rank.
                    trace::record_since(trace::KIND_STEAL, origin as u64, self.steal_started_us);
                    if fseq == 0 {
                        // Try the next victim on the next idle tick; after
                        // a fully empty sweep, back off.
                        self.steal_victim_cursor += 1;
                        self.empty_steal_streak += 1;
                        let live_victims = self.membership.live_peers().len();
                        if self.empty_steal_streak >= live_victims.max(1) {
                            self.empty_steal_streak = 0;
                            self.steal_backoff = 50;
                        }
                    }
                }
                if fseq != 0 {
                    let n = tasks.len() as u64;
                    let fresh = self.apply_xfer(source, origin, dest, fseq, tasks);
                    if fresh && mine {
                        self.empty_steal_streak = 0;
                        self.stats.steals_successful += 1;
                        self.stats.tasks_stolen += n;
                        // The victim clearly has work: if clients are
                        // still starved, go straight back for more instead
                        // of pacing the next attempt on the poll timeout.
                        self.try_steal();
                    }
                }
            }
            ServerMsg::XferAck { origin, dest, fseq } => {
                let pending = &self.ledger.pending_xfers;
                if pending
                    .iter()
                    .any(|x| (x.origin, x.dest, x.fseq) == (origin, dest, fseq))
                {
                    self.commit(ReplOp::XferDone { origin, dest, fseq });
                }
            }
            ServerMsg::Check { round } => {
                // Termination polls do not bump the epoch: they must not
                // mask real quiescence.
                let resp = ServerMsg::CheckResp {
                    round,
                    quiescent: self.quiescent(),
                    epoch: self.epoch,
                    fwd_out: self.ledger.fwd_out,
                    fwd_in: self.ledger.fwd_in,
                };
                self.tx_sends.push((source, TAG_SRV, resp.encode()));
            }
            ServerMsg::CheckResp {
                round,
                quiescent,
                epoch,
                fwd_out,
                fwd_in,
            } => {
                if round == self.check_round && self.check_members.contains(&source) {
                    self.check_responses
                        .insert(source, (quiescent, epoch, fwd_out, fwd_in));
                    if self.check_responses.len() == self.check_members.len() {
                        return self.evaluate_check_round();
                    }
                }
            }
            ServerMsg::Shutdown { reports } => {
                for report in reports {
                    if !self.ledger.quarantine.contains(&report) {
                        self.commit(ReplOp::Quarantine { report });
                    }
                }
                // Relay to every live peer before exiting: if the master
                // died mid-broadcast, whoever did hear it completes the
                // broadcast (exiting ranks still read as alive to the
                // oracle, so a promoted master could otherwise poll an
                // already-gone peer forever).
                let note = ServerMsg::Shutdown {
                    reports: self.capped_reports(),
                }
                .encode();
                for p in self.membership.live_peers() {
                    if p != source {
                        self.tx_sends.push((p, TAG_SRV, note.clone()));
                    }
                }
                return true;
            }
            other => {
                self.take_repl_traffic(source, other, true);
            }
        }
        false
    }

    /// The replica-holder side of the protocol, shared by the serving
    /// loop, the post-shutdown linger and the drain of a dead peer's
    /// mailbox: op batches and sync chunks for the ledger this server
    /// holds for `source`, acks of its own outbound stream, and the
    /// liveness/goodbye beacons. `live` is false for a dead peer's drained
    /// mailbox: nobody is left to ack, and its acks of our stream to it
    /// are moot. Anything else is handed back.
    fn take_repl_traffic(&mut self, source: Rank, msg: ServerMsg, live: bool) -> Option<ServerMsg> {
        match msg {
            ServerMsg::Repl { ops } => self.apply_repl_ops(source, ops),
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
            ServerMsg::Heartbeat => {}
            // A peer can finish (and say goodbye) before this server has
            // processed its own Shutdown, or die right after completing
            // its shutdown (its clients then already have their notices);
            // remember the receipt for the linger phase.
            ServerMsg::Bye => {
                self.byes.insert(source);
            }
            other => return Some(other),
        }
        None
    }

    // -- membership & failover ---------------------------------------------

    fn maybe_heartbeat(&mut self) {
        if self.layout.servers < 2 {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_heartbeat) < HEARTBEAT_INTERVAL {
            return;
        }
        self.last_heartbeat = now;
        let beat = ServerMsg::Heartbeat.encode();
        for p in self.membership.live_peers() {
            self.comm.send(p, TAG_SRV, beat.clone());
        }
    }

    /// Recompute who holds this server's replica: the first `R - 1` live
    /// ring successors over the (possibly shrunken) ring. A holder seen
    /// for the first time is streamed the full ledger, in bounded
    /// [`ServerMsg::ReplSync`] chunks interleaved with normal service.
    /// `resync_all` — set after this server promoted a dead peer's shard
    /// into its own state — re-streams it to *every* holder, since their
    /// replicas predate the merge; with re-replication off that never
    /// happens and R stays degraded after a failover.
    fn refresh_repl_targets(&mut self, resync_all: bool) {
        if self.config.replication < 2 || self.aborting || self.shutdown {
            self.repl_targets.clear();
            self.outbound_syncs.clear();
            return;
        }
        let me = self.comm.rank();
        let want = self.config.replication - 1;
        let targets = self
            .layout
            .live_successors(me, want, self.membership.dead());
        for &t in &targets {
            let first_seen = !self.repl_targets.contains(&t);
            if first_seen || (resync_all && self.config.re_replicate) {
                self.start_sync(t);
            }
        }
        // Streams to ranks that rotated out of the holder set are moot.
        self.outbound_syncs.retain(|t, _| targets.contains(t));
        self.repl_targets = targets;
    }

    // -- chunked re-replication ------------------------------------------

    /// Begin (or restart) streaming this server's full ledger to `target`
    /// in bounded chunks. The first chunk leaves immediately — ahead of
    /// any op a later handler commits — so per-pair FIFO guarantees the
    /// receiver opens its buffering window before any post-snapshot op
    /// arrives; everything sent earlier lands on the old replica the base
    /// snapshot is about to replace (and is already included in it).
    fn start_sync(&mut self, target: Rank) {
        let mut w = WireWriter::new();
        self.ledger.encode_into(&mut w);
        let data = w.finish();
        self.next_sync_id += 1;
        self.outbound_syncs.insert(
            target,
            OutSync {
                sync_id: self.next_sync_id,
                data,
                cursor: 0,
                last_sent: Instant::now(),
                started_us: trace::now_us(),
            },
        );
        self.send_sync_chunk(target);
    }

    /// Send the next bounded chunk of the outbound stream to `target`.
    fn send_sync_chunk(&mut self, target: Rank) {
        let Some(o) = self.outbound_syncs.get_mut(&target) else {
            return;
        };
        o.last_sent = Instant::now();
        let end = (o.cursor + self.config.sync_chunk.max(1)).min(o.data.len());
        let msg = ServerMsg::ReplSync {
            sync_id: o.sync_id,
            cursor: o.cursor as u64,
            total: o.data.len() as u64,
            data: o.data.slice(o.cursor..end),
        }
        .encode();
        self.comm.send(target, TAG_SRV, msg);
    }

    /// Re-drive outbound streams whose ack went missing (e.g. dropped by
    /// fault injection): past the suspect window, re-send the current
    /// chunk from the acked resume cursor.
    fn nudge_syncs(&mut self, now: Instant) {
        let stalled: Vec<Rank> = self
            .outbound_syncs
            .iter()
            .filter(|(_, o)| now.duration_since(o.last_sent) > SUSPECT_AFTER)
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
        let done = match self.outbound_syncs.get_mut(&source) {
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
        let retired = self.outbound_syncs.remove(&source);
        if let (Some(o), true) = (retired, self.config.re_replicate) {
            self.stats.repl_syncs += 1;
            self.stats.repl_sync_bytes += o.data.len() as u64;
            trace::record_since(trace::KIND_REPL_SYNC, source as u64, o.started_us);
        }
        if self.outbound_syncs.is_empty() {
            if let Some(t0) = self.r_restore_started.take() {
                let us = t0.elapsed().as_micros() as u64;
                self.stats.r_restore_micros += us;
                trace::record_since(
                    trace::KIND_FAILOVER_RECOVERY,
                    self.stats.failovers,
                    self.r_restore_started_us,
                );
                eprintln!(
                    "adlb server {}: replication factor restored ({us} µs after the death)",
                    self.comm.rank()
                );
            }
        }
    }

    /// Absorb one inbound sync chunk from `source`; with `ack` (live
    /// traffic — not a dead peer's drained mailbox) the contiguous
    /// high-water is acked back as the sender's resume cursor. The final
    /// chunk installs the decoded ledger.
    fn absorb_sync_chunk(
        &mut self,
        source: Rank,
        sync_id: u64,
        cursor: u64,
        total: u64,
        data: &Bytes,
        ack: bool,
    ) {
        let ins = self.inbound_syncs.entry(source).or_insert_with(|| InSync {
            sync_id,
            total,
            buf: Vec::new(),
            ops: Vec::new(),
        });
        if ins.sync_id != sync_id {
            // A restarted sync supersedes the old one wholesale: its base
            // snapshot already includes everything the abandoned stream
            // and its buffered ops carried.
            *ins = InSync {
                sync_id,
                total,
                buf: Vec::new(),
                ops: Vec::new(),
            };
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
            }
            .encode();
            self.comm.send(source, TAG_SRV, msg);
        }
        if complete {
            self.finish_inbound_sync(source);
        }
    }

    /// The last chunk landed: decode the base ledger, replay the ops
    /// buffered mid-stream on top (they postdate the base — FIFO), and
    /// install the result as `source`'s replica.
    fn finish_inbound_sync(&mut self, source: Rank) {
        let Some(ins) = self.inbound_syncs.remove(&source) else {
            return;
        };
        let mut r = WireReader::new(&ins.buf);
        match Ledger::decode_from(&mut r) {
            Ok(mut ledger) => {
                for op in ins.ops {
                    ledger.apply(source, op);
                }
                self.ledgers.insert(source, ledger);
            }
            Err(e) => {
                // A corrupt base is worse than none: promoting the stale
                // replica it was replacing would silently lose the delta.
                // Drop it so a later death aborts loudly instead.
                self.ledgers.remove(&source);
                self.protocol_error(format_args!(
                    "undecodable replica sync from rank {source}: {e:?}"
                ));
            }
        }
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

    /// A peer is confirmed dead: absorb any straggler replication traffic
    /// it sent before dying, promote its ledger if this server is the
    /// first live successor (or start winding down when there is no
    /// replica), re-route in-flight transfers, and reshape the ring.
    /// Returns true when a deferred Shutdown was found (global
    /// termination raced the death).
    fn handle_server_death(&mut self, d: Rank) -> bool {
        self.commit_tx();
        eprintln!(
            "adlb server {}: server rank {d} died; starting failover",
            self.comm.rank()
        );
        self.epoch += 1;
        // 1. Drain the dead peer's mailbox. Replication traffic still
        // queued there is part of its ledger's history and must be
        // applied *before* the merge; anything else is handled after the
        // failover reshaped the ring.
        let mut deferred = Vec::new();
        while let Some(m) = self.comm.try_recv(Src::Of(d), TagSel::Any) {
            if m.tag != TAG_SRV {
                continue;
            }
            match ServerMsg::decode_shared(&m.data) {
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
        // drop both and let the promotion decision below see the truth.
        if self.steal_victim == Some(d) {
            self.outstanding_steal = false;
            self.steal_victim = None;
        }
        self.outbound_syncs.remove(&d);
        let sync_incomplete = self.inbound_syncs.remove(&d).is_some();
        if sync_incomplete {
            self.ledgers.remove(&d);
        }
        // 3. Abort any termination round in flight: its member set is
        // stale, and a response from the dead peer will never come.
        self.check_in_flight = false;
        self.check_responses.clear();
        self.prev_snapshot = None;
        // 4. Promote or wind down. Either way the first live successor
        // adopts the dead peer's clients: their re-routed requests land
        // here, and the wind-down must account for them before exiting.
        let promoter = self.layout.route(d, self.membership.dead());
        let successor = promoter == self.comm.rank();
        // Shards earlier subsumed into the dead peer's ledger resolve
        // with it now — they ride along on a promotion of a fresh copy,
        // are lost with a stale or absent one, or travel on to the next
        // promoter in the chain.
        let chain: Vec<Rank> = self
            .subsumed
            .iter()
            .filter(|&(_, p)| *p == d)
            .map(|(e, _)| *e)
            .collect();
        if successor {
            for &e in std::iter::once(&d).chain(chain.iter()) {
                for c in self.layout.clients_of(e) {
                    self.my_clients.insert(c);
                }
                self.subsumed.remove(&e);
            }
        }
        let required = self.required_merges.remove(&d).unwrap_or(0);
        let mut promoted = false;
        if self.config.replication >= 2 {
            if successor {
                match self.ledgers.remove(&d) {
                    // A copy whose merge count predates a promotion the
                    // dead peer performed is missing that merge:
                    // promoting it would silently lose the subsumed shard
                    // and the run would hang on the lost tasks. Abort
                    // with the diagnosis instead — the flip side of
                    // re-replication, which ships a fresh copy (carrying
                    // the higher version) long before a well-gapped
                    // second death.
                    Some(ledger) if ledger.merges < required && !self.shutdown => {
                        promoted = self.try_pfs_restore(
                            d,
                            required,
                            &chain,
                            "the only replica here predates an earlier failover and was never refreshed",
                        );
                    }
                    Some(ledger) => {
                        self.promote(d, &chain, ledger);
                        promoted = true;
                    }
                    // After global termination nothing was lost — the run
                    // completed; retried requests get terminal answers.
                    None if self.shutdown => {}
                    None if sync_incomplete => {
                        promoted = self.try_pfs_restore(
                            d,
                            required,
                            &chain,
                            "it died before finishing its re-replication to this successor",
                        );
                    }
                    None => {
                        promoted = self.try_pfs_restore(
                            d,
                            required,
                            &chain,
                            "its replica never reached this successor",
                        );
                    }
                }
            } else if !self.shutdown {
                // Another survivor now serves the dead peer's shard,
                // merging it into its own ledger. Any copy of THAT
                // peer's ledger snapshotted before the merge no longer
                // reflects its state: the merge bulk never flows through
                // write-through ops. Raise the merge count a promotable
                // copy must carry (its post-promotion resync ships one;
                // off re-replication, nothing ever does) — and remember
                // that the dead shard (plus anything already riding with
                // it) now travels inside the promoter's ledger.
                *self.required_merges.entry(promoter).or_insert(0) += 1;
                for &e in std::iter::once(&d).chain(chain.iter()) {
                    self.subsumed.insert(e, promoter);
                }
            }
        } else if !self.shutdown {
            if self.config.checkpoint.is_some() {
                // The durable tier makes replication=1 survivable: the
                // successor restores the shard from pfs, and the others
                // track the subsumption exactly as the replicated path
                // does so later deaths route and adopt correctly.
                if successor {
                    promoted =
                        self.try_pfs_restore(d, required, &chain, "replication=1 keeps no replica");
                } else {
                    *self.required_merges.entry(promoter).or_insert(0) += 1;
                    for &e in std::iter::once(&d).chain(chain.iter()) {
                        self.subsumed.insert(e, promoter);
                    }
                }
            } else {
                self.enter_abort(d, "replication=1 keeps no replica", &chain);
            }
        }
        // The merged bulk of a promotion never flows through the op
        // stream; only a full snapshot captures it. Anchor the merged
        // state durably now and leave redirect tombstones so any restore
        // of the dead homes finds it here.
        if promoted {
            let covered: Vec<Rank> = std::iter::once(d).chain(chain.iter().copied()).collect();
            self.ckpt_cover_homes(&covered);
        }
        // A peer that died mid-shutdown leaves clients whose `NoMore`
        // notices may have died with it (unfinished in the merged
        // replica). Keep the linger alive until each has been
        // re-answered or is itself confirmed dead.
        if successor && self.shutdown {
            for c in self.layout.clients_of(d) {
                if !self.ledger.finished.contains(&c) {
                    self.stranded.insert(c);
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
        if self.config.re_replicate
            && !self.outbound_syncs.is_empty()
            && self.r_restore_started.is_none()
        {
            self.r_restore_started = Some(Instant::now());
            self.r_restore_started_us = trace::now_us();
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
        shutdown
    }

    /// Absorb a dead peer's ledger into this server's own: this rank now
    /// serves the dead peer's shard, queue, leases and clients.
    fn promote(&mut self, d: Rank, chain: &[Rank], ledger: Ledger) {
        self.stats.failovers += 1;
        trace::record_instant(trace::KIND_FAILOVER, d as u64);
        self.epoch += 1;
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
            self.tx_sends.push((*c, TAG_RESP, bytes.clone()));
        }
        // Queued tasks and the rest of the bulk go in without ops: the
        // re-replication stream started right after the merge carries
        // them to every replica holder.
        let covered: Vec<Rank> = std::iter::once(d).chain(chain.iter().copied()).collect();
        self.adopt(ledger, &covered);
    }

    /// No replica to promote: the shard is lost. Stay up, answer every
    /// `Get` with `NoMore` plus the diagnosis (a clean, attributable
    /// failure instead of a hang), give lost-shard data ops benign
    /// defaults, and exit once every client is accounted for.
    /// The chain of shards subsumed into an unrecoverable peer's ledger
    /// is lost with it: record each as a lost home (data ops on it get
    /// benign defaults instead of parking forever) with its clients'
    /// streams marked truncated.
    fn mark_chain_lost(&mut self, chain: &[Rank]) {
        for &e in chain {
            self.lost_homes.insert(e);
            for c in self.layout.clients_of(e) {
                self.truncated.insert(c);
            }
        }
    }

    /// No usable RAM replica for dead home `d` — the last line of defense
    /// is the durable tier. Restore the shard's latest checkpoint segment
    /// plus WAL tail and promote it exactly like a replica; on any
    /// failure (no checkpoint configured, a stale checkpoint predating a
    /// failover `d` performed, or corruption) fall through to the abort
    /// with a diagnosis naming the shard, its subsumption chain, and the
    /// last durable LSN.
    fn try_pfs_restore(&mut self, d: Rank, required: u64, chain: &[Rank], why: &str) -> bool {
        let Some(cfg) = self.config.checkpoint.clone() else {
            self.enter_abort(d, why, chain);
            self.mark_chain_lost(chain);
            return false;
        };
        let start_us = trace::now_us();
        let started = Instant::now();
        let mut client = cfg.fs.client();
        match restore_home(&mut client, d) {
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
                if let Some(sink) = &mut self.ckpt {
                    sink.adopt_history(r.history);
                }
                self.promote(d, chain, r.ledger);
                self.stats.pfs_restores += 1;
                let micros = started.elapsed().as_micros() as u64;
                self.stats.ckpt_restore_micros = self.stats.ckpt_restore_micros.max(micros);
                trace::record_since(trace::KIND_CKPT_RESTORE, d as u64, start_us);
                true
            }
            Ok(r) => {
                let msg = format!(
                    "{why}, and its durable checkpoint (last durable LSN {}) \
                     predates an earlier failover it performed",
                    r.last_lsn
                );
                self.enter_abort(d, &msg, chain);
                self.mark_chain_lost(chain);
                false
            }
            Err(e) => {
                let msg = format!("{why}, and its checkpoint failed to restore: {e}");
                self.enter_abort(d, &msg, chain);
                self.mark_chain_lost(chain);
                false
            }
        }
    }

    fn enter_abort(&mut self, d: Rank, why: &str, chain: &[Rank]) {
        self.lost_homes.insert(d);
        for c in self.layout.clients_of(d) {
            self.truncated.insert(c);
        }
        if !self.aborting {
            self.aborting = true;
            self.repl_targets.clear();
            self.outbound_syncs.clear();
            let chain_note = if chain.is_empty() {
                String::new()
            } else {
                let links: Vec<String> = chain.iter().map(|e| e.to_string()).collect();
                format!(
                    " (which had subsumed the shard{} of rank{} {})",
                    if chain.len() == 1 { "" } else { "s" },
                    if chain.len() == 1 { "" } else { "s" },
                    links.join(", ")
                )
            };
            let durable_note = if self.config.checkpoint.is_some() {
                // `why` already carries the last durable LSN when a
                // restore was attempted and failed.
                String::new()
            } else {
                "; no checkpoint configured".to_string()
            };
            let report = format!(
                "server rank {d} died and its shard{chain_note} is unrecoverable \
                 ({why}{durable_note}): queued tasks, leases and data futures on it are lost"
            );
            eprintln!("adlb server {}: {report}; winding down", self.comm.rank());
            self.abort_reason = Some(report.clone());
            self.commit(ReplOp::Quarantine { report });
        }
        // Parked clients will never be served: tell them now.
        for p in std::mem::take(&mut self.parked) {
            self.commit(ReplOp::ClientFinished { client: p.rank });
            let quarantined = self.capped_reports();
            let aborted = self.abort_reason.clone();
            self.send_response(
                p.rank,
                p.seq,
                Response::NoMore {
                    quarantined,
                    aborted,
                },
                true,
            );
        }
    }

    // -- idle actions ------------------------------------------------------

    /// Returns true when the server should exit (abort-mode drain done).
    fn idle_actions(&mut self) -> bool {
        // An idle tick bounds the group-commit latency: whatever the WAL
        // buffer holds (and whatever sends it is holding back) goes
        // durable now, at most one poll interval after commit.
        if self.ckpt.as_ref().is_some_and(|c| c.buffered() > 0) {
            self.ckpt_flush(false);
        }
        // Fault handling first: dead peers and clients must be noticed
        // (and their work requeued or adopted) before quiescence is
        // evaluated, or termination would wait forever on a rank that
        // will never park.
        let now = Instant::now();
        let comm = self.comm.clone();
        let newly_dead = self.membership.tick(now, |r| comm.is_alive(r));
        for d in newly_dead {
            if self.handle_server_death(d) {
                // A Shutdown was sitting in the dead peer's mailbox.
                return true;
            }
        }
        self.detect_dead_clients();
        self.check_lease_timeouts();
        self.nudge_syncs(now);
        if self.aborting {
            // Done when every client of ours is finished or dead; they
            // all reach `finished` through NoMore, Finished, or death.
            return self
                .my_clients
                .iter()
                .all(|c| self.ledger.finished.contains(c) || !self.comm.is_alive(*c));
        }
        // Termination check next: a fresh steal attempt would otherwise
        // mark this server non-quiescent on every tick.
        if self.comm.rank() == self.master()
            && !self.check_in_flight
            && self.quiescent()
            && self.start_check_round()
        {
            return true;
        }
        if self.steal_backoff > 0 {
            self.steal_backoff -= 1;
            return false;
        }
        self.try_steal();
        false
    }

    fn try_steal(&mut self) {
        if !self.config.steal_enabled
            || self.aborting
            || self.steal_backoff > 0
            || self.outstanding_steal
            || self.parked.is_empty()
            || !self.ledger.queue.is_empty()
        {
            return;
        }
        let others = self.membership.live_peers();
        if others.is_empty() {
            return;
        }
        // Union of work types our parked clients want.
        let mut types: Vec<u32> = Vec::new();
        for p in &self.parked {
            for t in &p.work_types {
                if !types.contains(t) {
                    types.push(*t);
                }
            }
        }
        let victim = others[self.steal_victim_cursor % others.len()];
        self.outstanding_steal = true;
        self.steal_victim = Some(victim);
        self.steal_started_us = trace::now_us();
        self.stats.steals_attempted += 1;
        self.tx_sends.push((
            victim,
            TAG_SRV,
            ServerMsg::StealReq {
                thief: self.comm.rank(),
                work_types: types,
                // Sizing hint: at least one task per starved client.
                need: self.parked.len() as u32,
            }
            .encode(),
        ));
    }

    /// Poll the live peers for a termination round. Returns true when the
    /// round decided termination immediately (no peers to wait for).
    fn start_check_round(&mut self) -> bool {
        self.check_round += 1;
        self.check_responses.clear();
        self.check_members = self.membership.live_peers();
        self.check_in_flight = true;
        for &r in &self.check_members.clone() {
            self.tx_sends.push((
                r,
                TAG_SRV,
                ServerMsg::Check {
                    round: self.check_round,
                }
                .encode(),
            ));
        }
        if self.check_members.is_empty() {
            // No peers to wait for (single server, or every peer dead):
            // decide now.
            return self.evaluate_check_round();
        }
        false
    }

    /// All responses for the current round are in; decide.
    fn evaluate_check_round(&mut self) -> bool {
        self.check_in_flight = false;
        let mut all_quiescent = self.quiescent();
        let mut fwd_out_sum = self.ledger.fwd_out;
        let mut fwd_in_sum = self.ledger.fwd_in;
        let mut snapshot: Vec<u64> = Vec::with_capacity(self.check_members.len() + 1);
        snapshot.push(self.epoch);
        for r in self.check_members.clone() {
            let (q, e, fo, fi) = self.check_responses[&r];
            all_quiescent &= q;
            fwd_out_sum += fo;
            fwd_in_sum += fi;
            snapshot.push(e);
        }
        let stable = self.prev_snapshot.as_deref() == Some(&snapshot[..]);
        self.prev_snapshot = Some(snapshot);
        if all_quiescent && fwd_out_sum == fwd_in_sum && stable {
            let note = ServerMsg::Shutdown {
                reports: self.capped_reports(),
            }
            .encode();
            for r in self.membership.live_peers() {
                self.tx_sends.push((r, TAG_SRV, note.clone()));
            }
            return true;
        }
        false
    }

    fn capped_reports(&self) -> Vec<String> {
        // Cap the reports shipped per message; the full list stays in
        // the ledger for post-mortem inspection.
        self.ledger.quarantine.iter().take(8).cloned().collect()
    }

    fn finish_run(&mut self) -> ServerOutcome {
        // Everything committed so far goes durable before the shutdown
        // notices start flowing (and the final stats snapshot is taken).
        self.ckpt_flush(false);
        // Shutdown notices first, *replicated before they leave*
        // (`commit_tx` ships the ops ahead of the sends): if this server
        // dies between the sends below, the promoted successor re-pushes
        // the cached notices to whoever missed theirs.
        let reports = self.capped_reports();
        for p in std::mem::take(&mut self.parked) {
            self.commit(ReplOp::ClientFinished { client: p.rank });
            let resp = Response::NoMore {
                quarantined: reports.clone(),
                aborted: self.abort_reason.clone(),
            };
            self.send_response(p.rank, p.seq, resp, true);
        }
        self.commit_tx();
        // Group commit would otherwise hold the NoMore notices until the
        // next idle tick — but there is none after linger returns (with no
        // live peers it returns immediately), so force the final flush.
        self.ckpt_flush(false);
        // Goodbye receipt last on every peer link: sends complete in
        // program order, so a delivered `Bye` proves the notices above
        // left too. Then stay up until every live peer's own `Bye`
        // arrives — a peer that dies mid-shutdown instead would strand
        // its parked clients with nobody left to answer their retries.
        let bye = ServerMsg::Bye.encode();
        for p in self.membership.live_peers() {
            self.comm.send(p, TAG_SRV, bye.clone());
        }
        self.shutdown = true;
        self.repl_targets.clear();
        self.outbound_syncs.clear();
        self.linger();
        let outputs = self.ledger.outputs.drain();
        let mut streams: Vec<(Rank, u32, String)> = outputs.map(|((r, t), s)| (r, t, s)).collect();
        streams.sort();
        let mut truncated: Vec<Rank> = self.truncated.iter().copied().collect();
        truncated.sort_unstable();
        ServerOutcome {
            stats: self.stats,
            streams,
            truncated,
            tenant_rows: self.tenants.stats_rows(),
            ledger: std::mem::take(&mut self.ledger),
            replicas: std::mem::take(&mut self.ledgers),
        }
    }

    /// Post-termination linger: wait for every live peer's `Bye`,
    /// meanwhile answering retried client requests terminally (their
    /// server may have died mid-shutdown) and running failover for peers
    /// that die instead of saying goodbye — promotion re-pushes the dead
    /// peer's replicated shutdown notices to its stranded clients.
    ///
    /// The linger also outlives any client left stranded by such a death
    /// (adopted but not provably notified): a stranded client is either
    /// blocked retrying its request — it probes its dead home every
    /// retry interval and re-sends here, where the answer un-strands it —
    /// or was itself killed, in which case the membership tick drops it.
    ///
    /// This always terminates: every server sends `Bye` *before* it
    /// starts waiting (no circular wait), an exited peer's `Bye` was its
    /// last completed send, and a killed peer is confirmed dead by the
    /// membership tick and dropped from the wait set.
    fn linger(&mut self) {
        loop {
            if self
                .membership
                .live_peers()
                .iter()
                .all(|p| self.byes.contains(p))
                && self.stranded.is_empty()
            {
                return;
            }
            match self.comm.recv_timeout(Src::Any, TagSel::Any, POLL_INTERVAL) {
                Some(m) if m.tag == TAG_REQ => {
                    // `shutdown` makes `Get` terminal (`NoMore`); dedup,
                    // cached-response replay and data ops work as usual
                    // over the merged state.
                    if let Ok((req, seq)) = Request::decode_shared(&m.data) {
                        self.handle_request(m.source, req, seq);
                    }
                    self.commit_tx();
                }
                Some(m) if m.tag == TAG_SRV => {
                    if self.membership.is_dead(m.source) {
                        continue;
                    }
                    self.membership.heard(m.source, Instant::now());
                    // A peer may still be restoring R when termination
                    // lands: keep its ledger fresh (in case it dies
                    // mid-linger) and keep acking so its stream retires
                    // cleanly. Anything else is pre-shutdown traffic whose
                    // effects no longer matter: termination required
                    // global quiescence, so no transfer, steal or check
                    // round can still be live.
                    if let Ok(msg) = ServerMsg::decode_shared(&m.data) {
                        self.take_repl_traffic(m.source, msg, true);
                    }
                }
                Some(_) => {}
                None => {
                    let now = Instant::now();
                    let comm = self.comm.clone();
                    let newly_dead = self.membership.tick(now, |r| comm.is_alive(r));
                    for d in newly_dead {
                        self.handle_server_death(d);
                    }
                    // A stranded client that was itself killed will never
                    // retry; stop waiting for it.
                    self.stranded.retain(|c| comm.is_alive(*c));
                    self.commit_tx();
                }
            }
        }
    }
}

/// The wire form of a write-ahead transfer: single non-steal tasks ride
/// the `Forward` variant, everything else a `StealResp`.
fn xfer_wire(origin: Rank, dest: Rank, fseq: u64, steal: bool, tasks: &[Task]) -> Bytes {
    if !steal && tasks.len() == 1 {
        ServerMsg::Forward {
            origin,
            dest,
            fseq,
            task: tasks[0].clone(),
        }
        .encode()
    } else {
        ServerMsg::StealResp {
            origin,
            dest,
            fseq,
            tasks: tasks.to_vec(),
        }
        .encode()
    }
}

#[cfg(test)]
mod ledger_tests;

#[cfg(test)]
mod stats_tests {
    use super::*;

    /// A stats value with every field distinct and nonzero, so a merge
    /// that drops or mis-routes any field changes an assertion below.
    fn distinct() -> ServerStats {
        // A struct literal (not `..Default::default()`) on purpose:
        // adding a `ServerStats` field without extending this test is a
        // compile error, which is the regression guard the issue asked
        // for — the old hand-maintained list silently dropped fields.
        ServerStats {
            tasks_accepted: 1,
            tasks_delivered: 2,
            steals_attempted: 3,
            steals_successful: 4,
            tasks_stolen: 5,
            tasks_donated: 6,
            data_ops: 7,
            notifications: 8,
            tasks_requeued: 9,
            tasks_retried: 10,
            tasks_quarantined: 11,
            protocol_errors: 12,
            ranks_failed: 13,
            tasks_prefetched: 14,
            failovers: 15,
            repl_ops: 16,
            repl_syncs: 17,
            repl_sync_bytes: 18,
            r_restore_micros: 19,
            ckpt_records: 20,
            ckpt_ops: 21,
            ckpt_segments: 22,
            ckpt_bytes: 23,
            pfs_restores: 24,
            ckpt_restore_micros: 25,
        }
    }

    #[test]
    fn merge_covers_every_field() {
        let mut total = ServerStats::default();
        total.merge(&distinct());
        assert_eq!(total, distinct());
        total.merge(&distinct());
        // Counters doubled; the recovery window is a duration and takes
        // the max, not the sum.
        let d = distinct();
        assert_eq!(total.tasks_accepted, 2 * d.tasks_accepted);
        assert_eq!(total.tasks_delivered, 2 * d.tasks_delivered);
        assert_eq!(total.steals_attempted, 2 * d.steals_attempted);
        assert_eq!(total.steals_successful, 2 * d.steals_successful);
        assert_eq!(total.tasks_stolen, 2 * d.tasks_stolen);
        assert_eq!(total.tasks_donated, 2 * d.tasks_donated);
        assert_eq!(total.data_ops, 2 * d.data_ops);
        assert_eq!(total.notifications, 2 * d.notifications);
        assert_eq!(total.tasks_requeued, 2 * d.tasks_requeued);
        assert_eq!(total.tasks_retried, 2 * d.tasks_retried);
        assert_eq!(total.tasks_quarantined, 2 * d.tasks_quarantined);
        assert_eq!(total.protocol_errors, 2 * d.protocol_errors);
        assert_eq!(total.ranks_failed, 2 * d.ranks_failed);
        assert_eq!(total.tasks_prefetched, 2 * d.tasks_prefetched);
        assert_eq!(total.failovers, 2 * d.failovers);
        assert_eq!(total.repl_ops, 2 * d.repl_ops);
        assert_eq!(total.repl_syncs, 2 * d.repl_syncs);
        assert_eq!(total.repl_sync_bytes, 2 * d.repl_sync_bytes);
        assert_eq!(total.r_restore_micros, d.r_restore_micros);
        assert_eq!(total.ckpt_records, 2 * d.ckpt_records);
        assert_eq!(total.ckpt_ops, 2 * d.ckpt_ops);
        assert_eq!(total.ckpt_segments, 2 * d.ckpt_segments);
        assert_eq!(total.ckpt_bytes, 2 * d.ckpt_bytes);
        assert_eq!(total.pfs_restores, 2 * d.pfs_restores);
        assert_eq!(total.ckpt_restore_micros, d.ckpt_restore_micros);
    }

    #[test]
    fn merge_takes_max_recovery_window() {
        let mut a = ServerStats {
            r_restore_micros: 500,
            ..Default::default()
        };
        let b = ServerStats {
            r_restore_micros: 200,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.r_restore_micros, 500, "a slower server must dominate");
        let mut c = ServerStats::default();
        c.merge(&a);
        assert_eq!(c.r_restore_micros, 500);
    }
}
