//! The scheduler: parked `Get`s, the tenant scheduler, task routing and
//! the write-ahead transfers between servers, delivery, leases (open,
//! ack, dead holder, retry or quarantine) and work stealing.

use std::collections::{HashMap, HashSet};

use mpisim::{trace, Rank, Wire};

use super::{Server, PRIORITY_PENALTY};
use crate::msg::{
    Response, ServerMsg, Task, TAG_SRV, WORK_TYPE_CONTROL, WORK_TYPE_NOTIFY, WORK_TYPE_WORK,
};
use crate::queue::WorkQueue;
use crate::replica::{Ledger, ReplOp, Xfer};
use crate::tenant::{TenantSched, TenantSpec, TenantStats};

mod steal;

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

#[derive(Default)]
pub(super) struct Scheduler {
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
}

impl Scheduler {
    pub(super) fn new(clients: Vec<Rank>, tenants: &[TenantSpec]) -> Scheduler {
        Scheduler {
            my_clients: clients.into_iter().collect(),
            tenants: TenantSched::new(tenants),
            ..Scheduler::default()
        }
    }

    /// Every client of ours is finished or parked, nothing is queued,
    /// leased, or in flight to or from a peer.
    pub(super) fn quiescent(&self, ledger: &Ledger) -> bool {
        self.my_clients
            .iter()
            .all(|c| ledger.finished.contains(c) || self.parked.iter().any(|p| p.rank == *c))
            && ledger.queue.is_empty()
            && !self.outstanding_steal
            && ledger.leases.values().all(|d| d.is_empty())
            && ledger.pending_xfers.is_empty()
    }

    /// Every client of ours reached `finished` (through NoMore, Finished or
    /// death).
    pub(super) fn clients_done(&self, ledger: &Ledger) -> bool {
        self.unfinished(ledger).next().is_none()
    }

    /// Clients of ours not yet `finished`.
    pub(super) fn unfinished<'a>(&'a self, ledger: &'a Ledger) -> impl Iterator<Item = Rank> + 'a {
        let mine = self.my_clients.iter().copied();
        mine.filter(|c| !ledger.finished.contains(c))
    }

    pub(super) fn adopt_clients(&mut self, clients: Vec<Rank>) {
        self.my_clients.extend(clients);
    }

    pub(super) fn mark_truncated(&mut self, clients: Vec<Rank>) {
        self.truncated.extend(clients);
    }

    /// A recovered ledger's leases count against their tenants' caps.
    pub(super) fn leases_adopted(&mut self, ledger: &Ledger) {
        for lease in ledger.leases.values().flatten() {
            self.tenants.lease_opened(lease.task.tenant);
        }
    }

    pub(super) fn unpark(&mut self, client: Rank) {
        self.parked.retain(|p| p.rank != client);
    }

    pub(super) fn tenant_of(&self, client: Rank) -> u32 {
        self.client_tenants.get(&client).copied().unwrap_or(0)
    }

    /// A steal outstanding against a dead victim will never be answered.
    pub(super) fn forget_victim(&mut self, dead: Rank) {
        if self.steal_victim == Some(dead) {
            self.outstanding_steal = false;
            self.steal_victim = None;
        }
    }

    /// Idle-tick pacing of steal retries: true while backing off.
    pub(super) fn backing_off(&mut self) -> bool {
        if self.steal_backoff == 0 {
            return false;
        }
        self.steal_backoff -= 1;
        true
    }

    pub(super) fn truncated(&self) -> Vec<Rank> {
        let mut truncated: Vec<Rank> = self.truncated.iter().copied().collect();
        truncated.sort_unstable();
        truncated
    }

    pub(super) fn tenant_rows(&self) -> Vec<(u32, TenantStats)> {
        self.tenants.stats_rows()
    }
}

impl Server {
    /// A client's `Get`: answer it from the queue, or park it until
    /// matching work arrives.
    pub(super) fn handle_get(
        &mut self,
        source: Rank,
        seq: u64,
        work_types: Vec<u32>,
        max_tasks: u32,
        tenant: Option<u32>,
    ) {
        if let Some(t) = tenant {
            // Remember which tenant this client identifies with so close
            // notifications targeted at it carry the tag.
            self.sched.client_tenants.insert(source, t);
            self.sched.tenants.note_tenant(t);
        }
        let p = Parked {
            rank: source,
            work_types,
            max_tasks,
            tenant,
            seq,
        };
        if !self.deliver_from_queue(&p) {
            self.sched.parked.push(p);
            // An empty queue with parked clients is the steal trigger;
            // don't wait for the poll timeout.
            self.try_steal();
        }
    }

    /// Leaf tasks left the queue: serve the parked engines whose control
    /// tasks they held back (see [`control_held`]), once none of their
    /// tenant's are left.
    fn release_held(&mut self) {
        let mut i = 0;
        while i < self.sched.parked.len() {
            let p = self.sched.parked[i].clone();
            if engine_get(&p)
                && !control_held(&self.shard.ledger().queue, &p)
                && self.deliver_from_queue(&p)
            {
                self.sched.parked.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Answer every parked client terminally: none of them will be served.
    pub(super) fn release_parked(&mut self) {
        for p in std::mem::take(&mut self.sched.parked) {
            self.answer_no_more(p.rank, p.seq);
        }
    }

    /// Send a task toward its home: targeted tasks go to the server
    /// currently hosting the target's home; untargeted tasks stay here.
    pub(super) fn route_task(&mut self, task: Task) {
        if let Some(target) = task.target {
            let home = self.layout.server_of(target);
            if self.failover.host_of(home) != self.comm.rank() {
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
        let ledger = self.shard.ledger();
        let fseq = ledger.next_fseq.get(&dest).copied().unwrap_or(0) + 1;
        self.commit(ReplOp::XferOut {
            dest,
            fseq,
            steal,
            tasks,
        });
        let last = self.shard.ledger().pending_xfers.len().wrapping_sub(1);
        self.shard.send_xfer(last, self.failover.host_of(dest));
    }

    /// Apply an inbound transfer exactly once (dedup by `(dest, origin)`
    /// high-water) and ack it. Returns whether the transfer was fresh.
    pub(super) fn apply_xfer(&mut self, sender: Rank, x: Xfer) -> bool {
        let (me, origin, dest, fseq) = (self.comm.rank(), x.origin, x.dest, x.fseq);
        if dest != me {
            // Addressed to us for a home we don't know is dead yet?
            self.ensure_home(dest);
            if self.failover.host_of(dest) != me {
                self.protocol_error(format_args!(
                    "transfer for home {dest} (origin {origin}) misrouted here"
                ));
                return false;
            }
        }
        let fresh = self.take_xfer_in(x);
        let ack = ServerMsg::XferAck { origin, dest, fseq }.encode();
        self.shard.send(sender, TAG_SRV, ack);
        fresh
    }

    /// Accept the tasks of transfer `x` unless they already were (dedup
    /// by `(dest, origin)` high-water). Returns whether it was fresh.
    fn take_xfer_in(&mut self, x: Xfer) -> bool {
        let applied = self.shard.ledger().xfer_applied.get(&(x.dest, x.origin));
        if x.fseq <= applied.copied().unwrap_or(0) {
            return false;
        }
        self.term.bump();
        self.commit(ReplOp::XferIn {
            origin: x.origin,
            dest: x.dest,
            fseq: x.fseq,
            n: x.tasks.len() as u64,
        });
        for t in x.tasks {
            self.accept_task(t);
        }
        true
    }

    /// A transfer's receiver acked it: retire the write-ahead entry.
    pub(super) fn xfer_acked(&mut self, origin: Rank, dest: Rank, fseq: u64) {
        let pending = &self.shard.ledger().pending_xfers;
        if pending
            .iter()
            .any(|x| (x.origin, x.dest, x.fseq) == (origin, dest, fseq))
        {
            self.commit(ReplOp::XferDone { origin, dest, fseq });
        }
    }

    /// Re-send every write-ahead entry whose last receiver died (or that
    /// was inherited from a dead peer and never re-driven). Entries whose
    /// new host is this server are applied locally — the dedup high-water
    /// (merged from the dead peer's ledger) decides whether the dead peer
    /// had already applied them.
    pub(super) fn redrive_pending_xfers(&mut self) {
        let me = self.comm.rank();
        let mut mine = Vec::new();
        for i in 0..self.shard.ledger().pending_xfers.len() {
            let x = &self.shard.ledger().pending_xfers[i];
            if x.sent_to.is_some_and(|h| !self.failover.is_dead(h)) {
                continue;
            }
            let host = self.failover.host_of(x.dest);
            if host == me {
                mine.push(x.clone());
            } else {
                self.shard.send_xfer(i, host);
            }
        }
        for x in mine {
            let (origin, dest, fseq) = (x.origin, x.dest, x.fseq);
            self.take_xfer_in(x);
            self.commit(ReplOp::XferDone { origin, dest, fseq });
        }
    }

    /// Deliver to a parked client or enqueue locally.
    fn accept_task(&mut self, task: Task) {
        self.stats.tasks_accepted += 1;
        // A task targeted at a rank that already died (e.g. a forward that
        // raced the death sweep) must be rescued here, or it would sit in
        // the targeted queue forever and block termination.
        let task = match task.target {
            Some(t) if !self.comm.is_alive(t) => match retarget_for_dead(task, t) {
                Some(task) => task,
                None => return,
            },
            _ => task,
        };
        let queue = &self.shard.ledger().queue;
        let sched = &mut self.sched;
        // New work ends any steal backoff: there may be more where this
        // came from.
        sched.steal_backoff = 0;
        sched.empty_steal_streak = 0;
        // An untargeted task can only bypass the queue straight to a
        // parked client when the tenant's lease cap allows another
        // in-flight task and the client's tenant filter matches; targeted
        // tasks always go to their rank.
        let direct_ok = task.target.is_some()
            || (sched.tenants.can_lease(task.tenant) && {
                sched.tenants.note_tenant(task.tenant);
                true
            });
        let slot = direct_ok
            .then(|| {
                sched.parked.iter().position(|p| {
                    p.work_types.contains(&task.work_type)
                        && match task.target {
                            Some(t) => p.rank == t,
                            None => p.tenant.is_none() || p.tenant == Some(task.tenant),
                        }
                        && !(task.work_type == WORK_TYPE_CONTROL && control_held(queue, p))
                })
            })
            .flatten();
        match slot {
            Some(i) => {
                let p = sched.parked.remove(i);
                sched.tenants.stats_mut(task.tenant).delivered += 1;
                self.stats.tasks_delivered += 1;
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
                self.send_response(p.rank, p.seq, Response::Deliver(vec![task]), true);
            }
            None => {
                let tenant = task.tenant;
                let untargeted = task.target.is_none();
                self.commit(ReplOp::Push { tasks: vec![task] });
                if untargeted {
                    let depth = self.shard.ledger().queue.untargeted_of(tenant) as u64;
                    let row = self.sched.tenants.stats_mut(tenant);
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
            self.sched.tenants.lease_opened(t.tenant);
        }
        self.commit(ReplOp::LeaseOpen {
            client: rank,
            tasks: tasks.to_vec(),
        });
        if trace::enabled() {
            self.shard.backdate_leases(rank, accepted_us);
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
    fn next_scheduled(&mut self, p: &Parked, work_types: &[u32]) -> Option<(Task, u64)> {
        let queue = &self.shard.ledger().queue;
        let tenants = &mut self.sched.tenants;
        let targeted = queue.peek_targeted(p.rank, work_types);
        let eligible: Vec<u32> = match p.tenant {
            Some(t) => {
                if tenants.can_lease(t) && queue.peek_untargeted(t, work_types).is_some() {
                    vec![t]
                } else {
                    Vec::new()
                }
            }
            None => queue
                .tenants_with_work(work_types)
                .into_iter()
                .filter(|t| tenants.can_lease(*t))
                .collect(),
        };
        let best_untargeted_prio = eligible
            .iter()
            .filter_map(|t| queue.peek_untargeted(*t, work_types))
            .map(|e| e.task.priority)
            .max();
        let head = match (targeted, best_untargeted_prio) {
            (Some(t), up) if up.is_none_or(|up| t.task.priority >= up) => t,
            _ => {
                let elected = tenants.elect(&eligible)?;
                if eligible.len() > 1 {
                    tenants.stats_mut(elected).delivered_contended += 1;
                }
                queue.peek_untargeted(elected, work_types)?
            }
        };
        let (task, accepted_us) = (head.task.clone(), head.accepted_us);
        tenants.stats_mut(task.tenant).delivered += 1;
        self.commit(ReplOp::Remove {
            tasks: vec![task.clone()],
        });
        Some((task, accepted_us))
    }

    /// Answer a `Get` from the queue with up to `max_tasks` tasks, opening
    /// leases and caching the response under the request's seq. A batch
    /// ends at its first control task: an engine runs it before it sees
    /// the notifications that arrive meanwhile, so a second one prefetched
    /// would make its producers ahead of the consumers those fire.
    /// Notifications outrank every control task, so they still fill the
    /// batch ahead of it.
    fn deliver_from_queue(&mut self, p: &Parked) -> bool {
        let unheld: Vec<u32>;
        let work_types = if control_held(&self.shard.ledger().queue, p) {
            unheld = p
                .work_types
                .iter()
                .copied()
                .filter(|t| *t != WORK_TYPE_CONTROL)
                .collect();
            &unheld[..]
        } else {
            &p.work_types[..]
        };
        let cap = p.max_tasks.max(1) as usize;
        let mut batch = Vec::new();
        let mut accepted = Vec::new();
        while batch.len() < cap {
            let Some((task, us)) = self.next_scheduled(p, work_types) else {
                break;
            };
            let control = task.work_type == WORK_TYPE_CONTROL;
            batch.push(task);
            accepted.push(us);
            if control {
                break;
            }
        }
        if batch.is_empty() {
            return false;
        }
        let leaves = batch.iter().any(|t| t.work_type == WORK_TYPE_WORK);
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
        self.send_response(p.rank, p.seq, Response::Deliver(batch), true);
        if leaves {
            self.release_held();
        }
        true
    }

    /// After a promotion merged a dead peer's queue, parked clients may
    /// now be servable without any new task arriving.
    pub(super) fn service_parked(&mut self) {
        // Taken out first: a delivery of leaf tasks may serve a held
        // engine from the list meanwhile (see `release_held`).
        for p in std::mem::take(&mut self.sched.parked) {
            if !self.deliver_from_queue(&p) {
                self.sched.parked.push(p);
            }
        }
    }

    /// A failed task comes back: retry it with a priority penalty, or
    /// quarantine it once its budget is spent. `death` selects which
    /// counter records the requeue (holder died vs. reported failure);
    /// `error` is what ended this attempt.
    fn retry_or_quarantine(&mut self, mut task: Task, death: bool, error: &str) {
        task.attempts += 1;
        if task.attempts > self.config.max_retries {
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
        self.term.bump();
        self.accept_task(task);
    }

    /// Clients of this server the death pass found dead: mark them
    /// permanently finished (they will never park again), requeue any task
    /// they held, and rescue tasks still queued with the dead rank as
    /// target.
    pub(super) fn clients_died(&mut self, dead: Vec<Rank>) {
        for rank in dead {
            self.stats.ranks_failed += 1;
            self.term.bump();
            eprintln!(
                "adlb server {}: client rank {rank} died; requeueing its work",
                self.comm.rank()
            );
            self.sched.truncated.insert(rank);
            self.sched.parked.retain(|p| p.rank != rank);
            self.sched.client_tenants.remove(&rank);
            // The dead rank's ENTIRE lease deque requeues: with prefetch a
            // client may die holding a whole undone batch, and every one
            // of those tasks must run somewhere else.
            for lease in self.commit(ReplOp::ClientDead { client: rank }).leases {
                self.sched.tenants.lease_closed(lease.task.tenant);
                if let Some(task) = retarget_for_dead(lease.task, rank) {
                    self.retry_or_quarantine(task, true, &format!("holder rank {rank} died"));
                }
            }
            let mut stranded = Vec::new();
            while let Some(t) = self.shard.ledger().queue.targeted_head(rank).cloned() {
                self.commit(ReplOp::Remove {
                    tasks: vec![t.clone()],
                });
                stranded.push(t);
            }
            for t in stranded {
                if let Some(t) = retarget_for_dead(t, rank) {
                    self.accept_task(t);
                }
            }
        }
    }

    /// Put-side admission: an untargeted client put of a tenant over its
    /// `max_queued` quota is refused (`Err`) and NACKed back to the
    /// submitter. Targeted puts, control/notify tasks, and all
    /// server-internal paths (retries, forwards, steals) bypass
    /// admission — they are existing dataflow in flight, not new leaf
    /// demand, and control tasks in particular can only be consumed by
    /// the engine that produced them, so damming them behind a quota
    /// would deadlock a capped tenant against itself.
    pub(super) fn admit_put(&mut self, task: Task) -> Result<Task, Task> {
        if task.target.is_some() || task.work_type != WORK_TYPE_WORK {
            return Ok(task);
        }
        let tenants = &mut self.sched.tenants;
        tenants.note_tenant(task.tenant);
        let queued = self.shard.ledger().queue.untargeted_of(task.tenant);
        if tenants.admits(task.tenant, queued) {
            tenants.stats_mut(task.tenant).admitted += 1;
            Ok(task)
        } else {
            tenants.stats_mut(task.tenant).rejected += 1;
            Err(task)
        }
    }

    /// One lease acknowledgement from `source`: it releases the oldest
    /// open lease; a failed result feeds the retry/quarantine policy. Only an ack that completes its task
    /// releases the task's `reads` (see [`Server::release`]); a task that
    /// runs again reads its inputs again.
    pub(super) fn handle_ack(
        &mut self,
        source: Rank,
        ok: bool,
        error: String,
        reads: Vec<(u64, u32)>,
        away: &mut Vec<(Rank, Vec<(u64, u32)>)>,
    ) {
        if self
            .shard
            .ledger()
            .leases
            .get(&source)
            .is_none_or(|d| d.is_empty())
        {
            // An adopted client acking a task its lost home leased:
            // nothing to release, nothing to report.
            if !self.failover.aborting() {
                self.protocol_error(format_args!("task ack from rank {source} with no lease"));
            }
            return;
        }
        let drop = ReplOp::LeaseDrop {
            client: source,
            n: 1,
        };
        for lease in self.commit(drop).leases {
            self.sched.tenants.lease_closed(lease.task.tenant);
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
        if ok {
            for (id, n) in reads {
                self.release(id, n, away);
            }
        }
    }
}

/// Whether `p` is an engine's `Get`: it takes control tasks and no leaf
/// tasks. A `Get` that takes leaf tasks drains the queue itself.
fn engine_get(p: &Parked) -> bool {
    p.work_types.contains(&WORK_TYPE_CONTROL) && !p.work_types.contains(&WORK_TYPE_WORK)
}

/// Leaf tasks of an engine's tenant, queued on its server, that hold back
/// its control tasks (see [`control_held`]): two worker batches, at the
/// 8 tasks a Turbine worker asks for per `Get` (`ClientConfig::batched`).
/// A worker holds one batch and finds the other queued while the engine
/// makes its next chunk, so it does not run dry before the chunk's first
/// puts arrive. Held until the queue was empty, a lone worker ran dry at
/// every chunk, parked, and took the chunk's first leaf alone: a third
/// more context switches, one more round trip and replicated delivery per
/// chunk, and `durable_bag` ran 2–9% slower with a wider spread.
const HOLD_LEAVES: usize = 16;

/// Whether the engine's `Get` `p` may not take a control task now:
/// [`HOLD_LEAVES`] or more leaf tasks of its tenant wait in `queue`. A
/// control task (a loop chunk, say) makes producers, and the leaves
/// already queued come first, so the data an engine creates stay about
/// one chunk ahead of the leaves that free them, however long its loop.
/// The queued leaves need no engine to run, so the hold always ends.
fn control_held(queue: &WorkQueue, p: &Parked) -> bool {
    engine_get(p) && queue.untargeted_of(p.tenant.unwrap_or(0)) >= HOLD_LEAVES
}

/// Prepare a task bound for (or held by) the dead rank `dead` for
/// requeueing. A close notification for a dead rank is meaningless and
/// dropped (`None`); other targeted tasks are untargeted so a survivor
/// can run them.
fn retarget_for_dead(mut task: Task, dead: Rank) -> Option<Task> {
    if task.target == Some(dead) {
        if task.work_type == WORK_TYPE_NOTIFY {
            return None;
        }
        task.target = None;
    }
    Some(task)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use bytes::Bytes;
    use mpisim::{Comm, Src, TagSel, Wire, World};

    use crate::layout::Layout;
    use crate::msg::{
        seal, Request, Response, Sealed, Task, TAG_REQ, TAG_RESP, WORK_TYPE_CONTROL,
        WORK_TYPE_NOTIFY, WORK_TYPE_WORK,
    };
    use crate::server::{serve, ServerConfig};

    use super::HOLD_LEAVES;

    /// A raw client of the one server, the world's last rank: `send` seals
    /// a request under the next seq, `answer` waits up to `wait` for the
    /// response to an awaited one.
    struct Raw {
        comm: Comm,
        server: usize,
        seq: u64,
    }

    impl Raw {
        fn send(&mut self, req: &Request) {
            self.seq += 1;
            self.comm.send(self.server, TAG_REQ, seal(req, self.seq));
        }

        fn answer(&self, wait: Duration) -> Option<Response> {
            let m = self
                .comm
                .recv_timeout(Src::Of(self.server), TagSel::Of(TAG_RESP), wait)?;
            Some(Sealed::<Response>::decode(&m.data).unwrap().0)
        }

        fn ask(&mut self, req: &Request) -> Response {
            self.send(req);
            self.answer(Duration::from_secs(10)).expect("an answer")
        }

        fn put(&mut self, work_type: u32, payload: &'static [u8]) {
            let task = Task::new(work_type, 0, None, Bytes::from_static(payload));
            assert_eq!(self.ask(&Request::Put(task)), Response::Ok);
        }

        /// Close datum `id` with this rank subscribed: one notification.
        fn notification(&mut self, id: u64) {
            let rank = self.comm.rank();
            let create = Request::DataCreate {
                id,
                type_tag: 0,
                reads: None,
            };
            let subscribe = Request::DataSubscribe {
                id,
                rank,
                notify_closed: false,
            };
            let store = Request::DataStore {
                id,
                value: Bytes::from_static(b"v"),
            };
            assert_eq!(self.ask(&create), Response::Ok);
            assert_eq!(self.ask(&subscribe), Response::Bool(false));
            assert_eq!(self.ask(&store), Response::Ok);
        }

        fn get_as_engine(&mut self) {
            self.send(&Request::Get {
                work_types: vec![WORK_TYPE_CONTROL, WORK_TYPE_NOTIFY],
                max_tasks: 8,
                tenant: None,
            });
        }

        /// Acknowledge `n` delivered tasks, then leave.
        fn finish(&mut self, n: usize) {
            let done = Request::TaskDone {
                ok: true,
                error: String::new(),
                reads: vec![],
            };
            for _ in 0..n {
                self.send(&done);
            }
            self.ask(&Request::Finished);
        }
    }

    /// Run `clients` raw clients against one server.
    fn with_server(clients: usize, body: impl Fn(Raw) + Sync) {
        let layout = Layout::new(clients + 1, 1);
        World::run(clients + 1, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
            } else {
                body(Raw {
                    comm,
                    server: clients,
                    seq: 0,
                });
            }
        });
    }

    /// Work types and payloads of a delivery, in order.
    fn delivered(resp: Response) -> Vec<(u32, Vec<u8>)> {
        let tasks = match resp {
            Response::Deliver(ts) => ts,
            other => panic!("not a delivery: {other:?}"),
        };
        tasks
            .into_iter()
            .map(|t| (t.work_type, t.payload.to_vec()))
            .collect()
    }

    #[test]
    fn an_engines_batch_ends_at_its_first_control_task() {
        with_server(1, |mut engine| {
            for c in [&b"c1"[..], b"c2", b"c3"] {
                engine.put(WORK_TYPE_CONTROL, c);
            }
            for id in 1..=3 {
                engine.notification(id);
            }
            engine.get_as_engine();
            let first = delivered(engine.answer(Duration::from_secs(10)).unwrap());
            let kinds: Vec<u32> = first.iter().map(|(wt, _)| *wt).collect();
            assert_eq!(
                kinds,
                [
                    WORK_TYPE_NOTIFY,
                    WORK_TYPE_NOTIFY,
                    WORK_TYPE_NOTIFY,
                    WORK_TYPE_CONTROL
                ],
                "the notifications, then one control task, of 8 asked for"
            );
            assert_eq!(first[3].1, b"c1");
            engine.get_as_engine();
            let second = delivered(engine.answer(Duration::from_secs(10)).unwrap());
            assert_eq!(second, [(WORK_TYPE_CONTROL, b"c2".to_vec())]);
            engine.get_as_engine();
            let third = delivered(engine.answer(Duration::from_secs(10)).unwrap());
            assert_eq!(third, [(WORK_TYPE_CONTROL, b"c3".to_vec())]);
            engine.finish(6);
        });
    }

    #[test]
    fn an_engine_gets_no_control_task_while_hold_leaves_tasks_wait() {
        // Rank 0 is an engine, rank 1 a worker that takes the leaves in
        // two batches, each after a go-ahead from the engine.
        const GO: u32 = 99;
        let half = HOLD_LEAVES / 2;
        with_server(2, |mut c| {
            if c.comm.rank() == 1 {
                for _ in 0..2 {
                    c.comm.recv(Src::Of(0), TagSel::Of(GO));
                    let leaves = c.ask(&Request::Get {
                        work_types: vec![WORK_TYPE_WORK],
                        max_tasks: half as u32,
                        tenant: None,
                    });
                    assert_eq!(
                        delivered(leaves),
                        vec![(WORK_TYPE_WORK, b"leaf".to_vec()); half]
                    );
                }
                c.finish(HOLD_LEAVES);
                return;
            }
            for _ in 0..HOLD_LEAVES {
                c.put(WORK_TYPE_WORK, b"leaf");
            }
            c.put(WORK_TYPE_CONTROL, b"chunk");
            c.notification(1);
            c.get_as_engine();
            let first = delivered(c.answer(Duration::from_secs(10)).unwrap());
            assert_eq!(
                first.iter().map(|(wt, _)| *wt).collect::<Vec<_>>(),
                [WORK_TYPE_NOTIFY],
                "a held engine still gets its notifications"
            );
            c.get_as_engine();
            // The worker asks only after GO, so all the leaves are still
            // queued: an answer now can only be the held control task. A
            // slow server can make this pass wrongly, never fail wrongly.
            assert!(
                c.answer(Duration::from_millis(100)).is_none(),
                "the control task waits while HOLD_LEAVES leaves do"
            );
            // Half the leaves go: the rest, fewer than HOLD_LEAVES, no
            // longer hold the chunk back.
            c.comm.send(1, GO, Bytes::new());
            let second = delivered(c.answer(Duration::from_secs(10)).unwrap());
            assert_eq!(second, [(WORK_TYPE_CONTROL, b"chunk".to_vec())]);
            c.comm.send(1, GO, Bytes::new());
            c.finish(2);
        });
    }
}
