//! The ADLB server: a dispatcher over four components.
//!
//! A server owns the work queues for its clients, one shard of the data
//! store, the work-stealing policy, and (on the master server) the
//! termination-detection protocol. Everything is message-driven; the only
//! timer is a short receive timeout that paces steal attempts, the death
//! pass and termination polls. [`Server::run`] is the one serving loop; the
//! state it dispatches over lives in four components, each owning its
//! fields privately:
//!
//! * [`shard`] — the [`Ledger`] holding everything recoverable (the data
//!   shard, the queue, leases, request dedup marks, write-ahead
//!   transfers), changed only by committing a [`ReplOp`], plus the
//!   transaction buffer, the WAL sink and the cached-response replay;
//! * [`scheduler`] — parked `Get`s, tenants, routing, delivery, leases
//!   and stealing;
//! * [`failover`] — the dead peers, replica ledgers and their sync
//!   streams, and the one recovery decision for a dead peer;
//! * [`termination`] — the epoch, the check rounds, the terminal `NoMore`
//!   and the post-termination linger.
//!
//! With `replication >= 2` the server streams every committed op to its
//! ring successors *before* any client-visible response leaves this rank
//! (write-through) and holds their ledgers in turn — see
//! [`crate::replica`]. A server learns a peer's death from the
//! transport's liveness oracle, as a client does, on its idle ticks.
//! When a peer dies, the first live successor
//! absorbs the dead peer's ledger into its own and serves the shard in
//! its place; the other servers re-route their in-flight task transfers
//! and carry on.

use std::collections::HashMap;
use std::time::Duration;

use mpisim::{Comm, Point, Rank, Src, TagSel, Wire};

use crate::checkpoint::CheckpointConfig;
use crate::layout::Layout;
use crate::msg::{Request, Response, Sealed, ServerMsg, TAG_REQ, TAG_SRV};
use crate::replica::{Applied, Ledger, ReplOp};
use crate::tenant::{TenantSpec, TenantStats};

mod failover;
mod recovery;
mod scheduler;
mod shard;
mod termination;

use failover::Failover;
use scheduler::Scheduler;
use shard::{lost_shard_reply, Shard};
use termination::{Report, Termination};

/// Receive timeout pacing idle actions (steals, termination polls).
const POLL_INTERVAL: Duration = Duration::from_micros(200);
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
    /// Times a task whose holder died or reported failure may be re-run
    /// after its first attempt before it is quarantined. 0 means never
    /// retry. A lease ends only with its holder (a death or an ack), so
    /// a slow leaf is never started twice while it runs.
    pub max_retries: u32,
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
    /// Declared tenants (weights and quotas), one per program of the run.
    /// A tenant that shows up on the wire undeclared gets weight 1 and no
    /// quota, so with one tenant — declared or not — every task is
    /// admitted and that tenant is always elected.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            steal_enabled: true,
            max_retries: 3,
            replication: 1,
            re_replicate: true,
            sync_chunk: 16 * 1024,
            checkpoint: None,
            tenants: Vec::new(),
        }
    }
}

/// Declares [`ServerStats`] with each counter's merge rule beside it, so
/// adding a field without deciding how it aggregates is a compile error
/// (the old hand-maintained list in `core::result::server_totals`
/// silently dropped new fields). Counters `sum`; a wall-clock window
/// takes the `max` — the slowest server bounds the run's exposure, and
/// summing it across servers would turn a duration into a meaningless
/// total.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $field:ident: $merge:ident,)*) => {
        /// Counters a server reports when it shuts down.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl ServerStats {
            /// Fold `other` into `self`, field by field under its rule.
            pub fn merge(&mut self, other: &ServerStats) {
                use std::cmp::max;
                fn sum(a: u64, b: u64) -> u64 {
                    a + b
                }
                $(self.$field = $merge(self.$field, other.$field);)*
            }
        }
    };
}

server_stats! {
    /// Tasks accepted via put or forward.
    tasks_accepted: sum,
    /// Tasks handed to clients.
    tasks_delivered: sum,
    /// Steal requests this server sent.
    steals_attempted: sum,
    /// Steal requests that returned at least one task.
    steals_successful: sum,
    /// Tasks obtained by stealing.
    tasks_stolen: sum,
    /// Tasks donated to thieves.
    tasks_donated: sum,
    /// Data operations served.
    data_ops: sum,
    /// Close notifications generated.
    notifications: sum,
    /// Tasks requeued because their holder died mid-execution.
    tasks_requeued: sum,
    /// Tasks requeued after the holder reported a contained failure.
    tasks_retried: sum,
    /// Tasks dropped after exhausting their retry budget.
    tasks_quarantined: sum,
    /// Malformed or unexpected messages survived (not panicked on).
    protocol_errors: sum,
    /// Client ranks of this server observed to have died.
    ranks_failed: sum,
    /// Tasks delivered beyond the first of a `Deliver` — round trips the
    /// prefetch pipeline saved clients.
    tasks_prefetched: sum,
    /// Dead-server shards this server promoted and took over.
    failovers: sum,
    /// Replication ops shipped to replica holders (write amplification:
    /// one op counted once per holder it was sent to).
    repl_ops: sum,
    /// Completed full-ledger sync streams (startup seeding plus
    /// post-failover re-replication). Counted, like the two fields
    /// below, only with re-replication on.
    repl_syncs: sum,
    /// Serialized ledger bytes acknowledged by sync receivers.
    repl_sync_bytes: sum,
    /// Microseconds from a confirmed server death until this server's
    /// last outstanding sync stream completed (its share of the
    /// replication factor restored), summed over this server's own
    /// failovers. Across servers this is a wall-clock window, not a
    /// volume: [`ServerStats::merge`] takes the max, never a sum.
    r_restore_micros: max,
    /// WAL records flushed to the durable tier.
    ckpt_records: sum,
    /// Replication ops made durable (the records' contents).
    ckpt_ops: sum,
    /// Checkpoint segments written (WAL compactions).
    ckpt_segments: sum,
    /// Bytes written to the durable tier (WAL records plus segments).
    ckpt_bytes: sum,
    /// The segments' share of `ckpt_bytes` (the rest is WAL records).
    ckpt_segment_bytes: sum,
    /// Shards restored from the durable tier (mid-run total-replica-loss
    /// recoveries plus whole-world resumes).
    pfs_restores: sum,
    /// Microseconds spent restoring shards from the durable tier. A
    /// wall-clock window like `r_restore_micros`: merged by max.
    ckpt_restore_micros: max,
    /// Counted datums freed after their last leaf read (or closed with
    /// none to come).
    data_freed: sum,
    /// Counted datums still resident when the run ended: a read count
    /// too high, or a release lost to a death.
    data_unreleased: sum,
    /// Leaf reads released against a datum already freed (or never
    /// created): a read count too low.
    release_misses: sum,
    /// Most datums resident on one server at once, taken as each is
    /// created: what freeing after the last read and consumer-first
    /// scheduling keep bounded. A peak per server, merged by max.
    data_peak: max,
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

/// An ADLB server: a dispatcher over its four components. Each owns its
/// state privately; the handlers here and in the component modules reach
/// it only through the components' methods.
struct Server {
    comm: Comm,
    layout: Layout,
    config: ServerConfig,
    stats: ServerStats,
    shard: Shard,
    sched: Scheduler,
    failover: Failover,
    term: Termination,
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
        let mut s = Server {
            shard: Shard::new(comm.clone(), config.checkpoint.as_ref()),
            sched: Scheduler::new(layout.clients_of(me), &config.tenants),
            failover: Failover::new(layout, me),
            term: Termination::default(),
            stats: ServerStats::default(),
            comm,
            layout,
            config,
        };
        // A resume loads the shard's durable state before the ring forms,
        // so the initial replica streams below carry the restored state
        // too.
        s.resume_from_pfs();
        s.refresh_repl_targets(false);
        s
    }

    /// The one serving loop. Before termination it serves requests and
    /// peer messages and runs the idle actions; once termination is
    /// decided it turns into the linger: it keeps answering retried
    /// requests (terminally, for a `Get`) and keeping replicas fresh,
    /// runs no idle action beyond the death pass, and ends once every
    /// live peer said goodbye and no stranded client waits.
    fn run(&mut self) -> ServerOutcome {
        while !(self.term.shutdown() && self.term.linger_done(&self.failover.live_peers())) {
            // Drain the pipe without blocking first: an empty pipe is the
            // group-commit flush point — batching has nothing more to
            // gain and every held send is pure added latency — and only
            // then wait out the poll interval.
            let next = self.comm.try_recv(Src::Any, TagSel::Any).or_else(|| {
                self.shard.flush_buffered(&mut self.stats);
                self.comm.recv_timeout(Src::Any, TagSel::Any, POLL_INTERVAL)
            });
            let done = match next {
                // Shared decode: task payloads alias the arrival buffer
                // instead of being copied out of it (zero-copy receive).
                Some(m) if m.tag == TAG_REQ => {
                    match Sealed::<Request>::decode(&m.data) {
                        Ok((req, seq)) => self.handle_request(m.source, req, seq),
                        Err(e) => self.protocol_error(format_args!(
                            "undecodable request from rank {}: {e:?}",
                            m.source
                        )),
                    }
                    self.commit_tx();
                    self.comm.fault_point(Point::RequestApplied);
                    false
                }
                Some(m) if m.tag == TAG_SRV => {
                    if self.failover.is_dead(m.source) {
                        // A straggler (e.g. fault-delayed) message from a
                        // peer whose ledger was already merged: applying it
                        // now would double-apply its effects.
                        continue;
                    }
                    match ServerMsg::decode(&m.data) {
                        // After termination only replication traffic and
                        // goodbyes matter: a peer may still be restoring R
                        // (keep its replica fresh in case it dies
                        // mid-linger, and keep acking so its stream retires
                        // cleanly). Termination required global
                        // quiescence, so no transfer, steal or check round
                        // can still be live. A forwarded release is still
                        // applied: it left its sender before that sender's
                        // `Bye`, so the linger sees every one of them.
                        Ok(msg)
                            if self.term.shutdown()
                                && !matches!(msg, ServerMsg::Release { .. }) =>
                        {
                            self.take_repl_traffic(m.source, msg, true);
                            false
                        }
                        Ok(msg) => {
                            let shutdown = self.handle_server_msg(m.source, msg);
                            self.commit_tx();
                            shutdown
                        }
                        Err(e) => {
                            self.protocol_error(format_args!(
                                "undecodable server message from rank {}: {e:?}",
                                m.source
                            ));
                            false
                        }
                    }
                }
                Some(m) => {
                    self.protocol_error(format_args!(
                        "unexpected tag {} from rank {}",
                        m.tag, m.source
                    ));
                    false
                }
                None => self.idle_actions(),
            };
            if done {
                self.enter_shutdown();
            }
        }
        self.outcome()
    }

    /// Count and log a malformed or unexpected message instead of taking
    /// the whole server rank down with it. A confused peer is the peer's
    /// bug; this server must keep serving its other clients.
    fn protocol_error(&mut self, what: std::fmt::Arguments<'_>) {
        self.stats.protocol_errors += 1;
        eprintln!("adlb server {}: protocol error: {what}", self.comm.rank());
    }

    /// Apply `op` to this server's ledger and log it for the replica
    /// holders and the WAL (see [`Shard::commit`]).
    fn commit(&mut self, op: ReplOp) -> Applied {
        let applied = self.shard.commit(op, !self.failover.targets().is_empty());
        self.stats.data_freed += u64::from(applied.freed);
        applied
    }

    /// Ship the current handler's ops, then its sends (see
    /// [`Shard::commit_tx`]). Past termination or into a wind-down, the
    /// WAL goes durable at once.
    fn commit_tx(&mut self) {
        let flush_now = self.term.shutdown() || self.failover.aborting();
        self.shard
            .commit_tx(self.failover.targets(), &mut self.stats, flush_now);
    }

    /// The data shard a request implicates (`None` for non-data ops,
    /// which belong to the sending client's home server). A batch is one
    /// home's outbox, so its first data op speaks for all of them. An ack
    /// implicates none, though its reads may be of any shard's datums (see
    /// [`Server::release`]).
    fn data_home(&self, req: &Request) -> Option<Rank> {
        match req {
            Request::DataCreate { id, .. }
            | Request::DataStore { id, .. }
            | Request::DataRetrieve { id }
            | Request::DataSubscribe { id, .. }
            | Request::DataInsert { id, .. }
            | Request::DataLookup { id, .. }
            | Request::DataEnumerate { id }
            | Request::DataExists { id }
            | Request::DataIncrWriters { id, .. } => Some(self.layout.data_owner(*id)),
            Request::Batch(ops) | Request::OwnedBatch(ops) => {
                ops.iter().find_map(|r| self.data_home(r))
            }
            _ => None,
        }
    }

    fn handle_request(&mut self, source: Rank, req: Request, seq: u64) {
        let home = self
            .data_home(&req)
            .unwrap_or_else(|| self.layout.server_of(source));
        if home != self.comm.rank() {
            self.ensure_home(home);
        }
        if self.shard.replay(home, source, seq, req.wants_reply()) {
            return;
        }
        self.term.bump();
        let reply = req.wants_reply();
        let (resp, mutated) = match req {
            Request::Get { .. } if self.failover.aborting() || self.term.shutdown() => {
                self.answer_no_more(source, seq);
                return;
            }
            Request::Get {
                work_types,
                max_tasks,
                tenant,
            } => {
                self.handle_get(source, seq, work_types, max_tasks, tenant);
                return;
            }
            Request::Batch(ops) => self.apply_batch(source, ops, true),
            Request::OwnedBatch(ops) => self.apply_batch(source, ops, false),
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
    /// one transaction, collecting one response each. With `charge` (a
    /// worker's batch) a failed write fails the `TaskDone` behind it; an
    /// owned batch's writes are its program's, and only its answer says so.
    /// The acks' releases of datums hosted elsewhere leave after the
    /// batch's ops, one message per host.
    fn apply_batch(&mut self, source: Rank, ops: Vec<Request>, charge: bool) -> (Response, bool) {
        let mut resps = Vec::with_capacity(ops.len());
        let mut mutated = false;
        // The first write error since the last ack: it belongs to the
        // task whose `TaskDone` comes next.
        let mut failed: Option<String> = None;
        let mut away = Vec::new();
        for op in ops {
            let (resp, m) = match op {
                Request::TaskDone { ok, error, reads } => {
                    let (ok, error) = match failed.take() {
                        Some(e) if ok => (false, e),
                        _ => (ok, error),
                    };
                    self.handle_ack(source, ok, error, reads, &mut away);
                    (Response::Ok, true)
                }
                op => self.apply(source, op),
            };
            if let (true, Response::Error(e)) = (charge, &resp) {
                failed.get_or_insert_with(|| e.clone());
            }
            mutated |= m;
            resps.push(resp);
        }
        self.forward_releases(away);
        (Response::Batch(resps), mutated)
    }

    /// Execute one request (anything but a `Get`, which parks, or a batch)
    /// and return its response plus whether it changed replicated state.
    fn apply(&mut self, source: Rank, req: Request) -> (Response, bool) {
        if let Some(h) = self.data_home(&req) {
            self.stats.data_ops += 1;
            if self.failover.is_lost(h) {
                return (lost_shard_reply(&req), false);
            }
        }
        match req {
            Request::Batch(_) | Request::OwnedBatch(_) | Request::Get { .. } => (
                Response::Error("not a request a batch can carry".to_string()),
                false,
            ),
            Request::Put(_) if self.failover.aborting() => {
                // Winding down: accept and drop — the machine will never
                // deliver it, and the client must not hang.
                (Response::Ok, false)
            }
            Request::Put(task) => match self.admit_put(task) {
                Ok(task) => {
                    self.route_task(task);
                    (Response::Ok, true)
                }
                // Nothing mutated: the rejection is not replicated, and a
                // post-failover re-send re-runs admission. The client
                // re-offers the task — admission is backpressure, never
                // loss.
                Err(task) => (Response::Rejected(vec![task]), false),
            },
            Request::TaskDone { ok, error, reads } => {
                let mut away = Vec::new();
                self.handle_ack(source, ok, error, reads, &mut away);
                self.forward_releases(away);
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
                self.sched.unpark(source);
                self.commit(ReplOp::ClientFinished { client: source });
                (Response::Ok, true)
            }
            req => self.apply_data(req),
        }
    }

    /// Dispatch a peer's message. Returns true when this server must shut
    /// down.
    fn handle_server_msg(&mut self, source: Rank, msg: ServerMsg) -> bool {
        match msg {
            ServerMsg::Xfer(x) if x.steal => self.on_steal_resp(source, x),
            ServerMsg::Xfer(x) => {
                self.apply_xfer(source, x);
            }
            ServerMsg::StealReq {
                thief,
                work_types,
                need,
            } => self.on_steal_req(thief, work_types, need),
            ServerMsg::XferAck { origin, dest, fseq } => self.xfer_acked(origin, dest, fseq),
            ServerMsg::Release { releases } => self.on_releases(releases),
            ServerMsg::Check { round } => self.on_check(source, round),
            ServerMsg::CheckResp {
                round,
                quiescent,
                epoch,
                fwd_out,
                fwd_in,
            } => {
                let report = Report {
                    quiescent,
                    epoch,
                    fwd_out,
                    fwd_in,
                };
                return self.on_check_resp(source, round, report);
            }
            ServerMsg::Shutdown { reports } => {
                self.on_shutdown(source, reports);
                return true;
            }
            ServerMsg::WindDown { diagnosis } => self.wind_down(diagnosis),
            other => {
                self.take_repl_traffic(source, other, true);
            }
        }
        false
    }

    /// What an empty poll interval is for. Fault handling comes first:
    /// dead peers and clients must be noticed (and their work requeued or
    /// adopted) before quiescence is evaluated, or termination would wait
    /// forever on a rank that will never park. Returns true when the
    /// server should shut down: termination decided, a wind-down
    /// finished, or a Shutdown found in a dead peer's mailbox.
    fn idle_actions(&mut self) -> bool {
        // An idle tick bounds the group-commit latency: whatever the WAL
        // buffer holds (and whatever sends it is holding back) goes
        // durable now, at most one poll interval after commit.
        self.shard.flush_buffered(&mut self.stats);
        // The death pass: the oracle is asked once about each peer not
        // yet dead and each client of ours not yet finished. Every death
        // is marked before any is handled, so each failover routes round
        // all of them.
        let comm = self.comm.clone();
        let dead = |r: &Rank| !comm.is_alive(*r);
        let dead_peers: Vec<Rank> = self
            .failover
            .live_peers()
            .into_iter()
            .filter(dead)
            .collect();
        let ledger = self.shard.ledger();
        let dead_clients: Vec<Rank> = self.sched.unfinished(ledger).filter(dead).collect();
        for &d in &dead_peers {
            self.failover.mark_dead(d);
        }
        for d in dead_peers {
            if self.handle_server_death(d) && !self.term.shutdown() {
                return true;
            }
        }
        self.term.drop_dead_stranded(&dead_clients);
        if !self.term.shutdown() {
            self.clients_died(dead_clients);
            self.nudge_syncs();
            if self.failover.aborting() {
                // Done when every client of ours is finished, the dead
                // ones included.
                if self.sched.clients_done(self.shard.ledger()) {
                    return true;
                }
            } else if self.comm.rank() == self.failover.host_of(self.layout.first_server())
                && !self.term.in_flight()
                && self.sched.quiescent(self.shard.ledger())
                && self.start_check_round()
            {
                // The master — the first live server on the ring from the
                // layout's first — checks termination before stealing: a
                // fresh steal attempt would otherwise mark this server
                // non-quiescent on every tick.
                return true;
            } else if !self.sched.backing_off() {
                self.try_steal();
            }
        }
        self.commit_tx();
        false
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
            ckpt_segment_bytes: 24,
            pfs_restores: 25,
            ckpt_restore_micros: 26,
            data_freed: 27,
            data_unreleased: 28,
            release_misses: 29,
            data_peak: 30,
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
        assert_eq!(total.ckpt_segment_bytes, 2 * d.ckpt_segment_bytes);
        assert_eq!(total.pfs_restores, 2 * d.pfs_restores);
        assert_eq!(total.ckpt_restore_micros, d.ckpt_restore_micros);
        assert_eq!(total.data_freed, 2 * d.data_freed);
        assert_eq!(total.data_unreleased, 2 * d.data_unreleased);
        assert_eq!(total.release_misses, 2 * d.release_misses);
        assert_eq!(total.data_peak, d.data_peak, "a per-server peak");
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
