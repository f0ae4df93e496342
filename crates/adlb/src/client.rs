//! The client-side API: what engines and workers call.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use mpisim::{trace, Comm, Point, Rank, Src, TagSel, Wire};

use crate::datastore::DataError;
use crate::layout::Layout;
use crate::msg::{seal, seal_seq, Request, Response, Sealed, Task, TAG_REQ, TAG_RESP};

/// How long an awaited request waits for its response before checking
/// whether the serving rank died. While the server is alive the client
/// just keeps waiting — the timeout is a liveness probe, not a deadline.
const RETRY_PROBE: Duration = Duration::from_millis(20);

/// Pause between re-offers of admission-rejected puts. Quota headroom
/// opens when the tenant's queued tasks are delivered, so a short wait
/// beats hammering the server.
const ADMISSION_BACKOFF: Duration = Duration::from_millis(2);

/// An outbox also leaves once it holds this many payload bytes, so a
/// 64 KiB blob store goes out at once instead of pinning memory.
const OUTBOX_BYTES: usize = 64 * 1024;

/// Client-side batching knobs for the pipelined wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Maximum tasks requested per `Get` round trip. Tasks beyond the
    /// first land in a local prefetch deque and are handed out with no
    /// further server traffic; their lease acknowledgements ride the
    /// outbox on the next server trip. 1 disables prefetch (one task per
    /// round trip).
    pub prefetch: u32,
    /// Write-behind capacity, in requests, of the per-server outbox.
    /// Requests whose answer is only Ok/Error (puts, creates, stores,
    /// inserts, writer-count changes, notifying subscribes) queue
    /// here and leave as one [`Request::Batch`] when the outbox fills or
    /// an awaited request (a read, a `get`, `finish`) is due; an error
    /// surfaces from a later call, [`AdlbClient::flush`] at the latest. 0
    /// or 1 (the default) keeps every request its own acknowledged round
    /// trip, which preserves the externally visible order interactive
    /// callers rely on. Everything is flushed before a client blocks, so
    /// it never parks while holding unsubmitted work.
    pub outbox: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            prefetch: 8,
            outbox: 0,
        }
    }
}

impl ClientConfig {
    /// PR 1 wire behavior: one task per round trip, every request
    /// awaited. The E5 ablation knob.
    pub fn unbatched() -> Self {
        ClientConfig {
            prefetch: 1,
            outbox: 0,
        }
    }

    /// Prefetching gets and write-behind outboxes: what Turbine runs on.
    pub fn batched() -> Self {
        ClientConfig {
            prefetch: 8,
            outbox: 64,
        }
    }
}

/// A client (engine or worker) handle onto the ADLB subsystem.
///
/// All operations are synchronous request/response with a server, exactly
/// like the real ADLB C API (`ADLB_Put`, `ADLB_Get`, `ADLB_Store`, ...).
/// Unlike the one-message-per-task PR 1 protocol, gets prefetch batches of
/// tasks, and writes, lease acknowledgements and stdout leave through a
/// write-behind outbox per server (see [`ClientConfig`]); `DESIGN.md`
/// documents the batched wire protocol.
///
/// ## Failover
///
/// Every request carries a per-client sequence number; servers replicate
/// a per-client high-water mark and the last awaited response, so the
/// protocol is exactly-once across server failures. When the server a
/// request targets dies mid-wait, the client re-routes to the dead
/// server's ring successor (which has promoted the replica), re-sends
/// any unconfirmed fire-and-forget messages, and repeats the request;
/// duplicates are dropped (or re-answered from the response cache) on
/// the server side.
pub struct AdlbClient {
    comm: Comm,
    layout: Layout,
    my_server: Rank,
    config: ClientConfig,
    shutdown_seen: bool,
    finished_sent: bool,
    /// A task was handed to the caller and its outcome not yet recorded.
    /// `get`/`finish` record success; [`AdlbClient::task_failed`] records
    /// a contained failure.
    handed_out: bool,
    /// Tasks delivered by the server but not yet handed to the caller.
    /// Invariant: the server's lease deque for this rank is exactly [the
    /// tasks whose acks sit unsent in the home outbox] + [the handed-out
    /// task if any], followed by this deque, so acks flushed in order
    /// always release the oldest lease first.
    prefetch: VecDeque<Task>,
    /// One ordered outbox per home server (indexed by server index):
    /// write-behind requests, lease acks and stdout not yet sent. Order
    /// across servers is kept where another rank could tell: a request
    /// that can wake one (a put, a store or close, an ack) is queued only
    /// after every *other* server's outbox has been flushed and answered,
    /// so nothing it releases can overtake a write it depends on.
    outbox: Vec<Vec<Request>>,
    /// Payload bytes queued per outbox (see [`OUTBOX_BYTES`]).
    outbox_bytes: Vec<usize>,
    /// Where the handed-out task's own entries start in the home outbox;
    /// a failed task discards its unsent writes from here on.
    task_mark: usize,
    /// Leaf reads the handed-out task made: one `(id, n)` per datum it
    /// read `n` times (see [`AdlbClient::note_read`]).
    reads: Vec<(u64, u32)>,
    /// First error a flushed write came back with, not yet reported.
    deferred_err: Option<DataError>,
    /// Whether this client's writes are its program's (an engine's) rather
    /// than the task's in hand (a worker's); see [`AdlbClient::own_writes`].
    owns_writes: bool,
    /// Tenant stamped onto every put and output this client ships.
    /// Engines set it to their program's tenant; workers set it to the
    /// tenant of the task they are executing, so child tasks are
    /// accounted to the right program.
    tenant: u32,
    /// When set, `get` only accepts untargeted tasks of this tenant
    /// (targeted tasks are always deliverable). Engines run with their
    /// own tenant here; workers leave it `None` and serve everyone.
    get_filter: Option<u32>,
    /// Cached encoding of the last `Get` request body; work types are
    /// almost always identical call-to-call, so this skips both the
    /// `to_vec` and the re-encode on the hot path (the 8-byte seq seal is
    /// appended per send).
    cached_get: Option<(Vec<u32>, Option<u32>, Bytes)>,
    /// Quarantine reports the server attached to its shutdown notice:
    /// tasks that exhausted their retry budget, with the error that
    /// killed the last attempt.
    quarantine_reports: Vec<String>,
    /// Set when the shutdown notice carried a shard-loss diagnosis: the
    /// run was aborted, not completed, and callers should fail loudly.
    abort_reason: Option<String>,
    next_id: u64,
    /// Last request sequence number used (seq 0 is never sent).
    next_seq: u64,
    /// Servers this client observed to be dead (its own view; each server
    /// asks the same liveness oracle on its idle ticks).
    dead: HashSet<Rank>,
    /// Sealed fire-and-forget messages (acks, output) sent to the home
    /// server since its last awaited response. If the home dies, these
    /// may not have reached the replica and are re-sent to the successor
    /// ahead of the repeated request; the server-side seq dedup drops the
    /// ones that did make it.
    unconfirmed: Vec<Bytes>,
}

impl AdlbClient {
    /// Create the handle for this rank with default batching.
    ///
    /// # Panics
    /// Panics if called on a server rank.
    pub fn new(comm: Comm, layout: Layout) -> Self {
        Self::with_config(comm, layout, ClientConfig::default())
    }

    /// Create the handle with explicit batching knobs.
    ///
    /// # Panics
    /// Panics if called on a server rank.
    pub fn with_config(comm: Comm, layout: Layout, config: ClientConfig) -> Self {
        let my_server = layout.server_of(comm.rank());
        AdlbClient {
            comm,
            layout,
            my_server,
            config,
            shutdown_seen: false,
            finished_sent: false,
            handed_out: false,
            prefetch: VecDeque::new(),
            outbox: vec![Vec::new(); layout.servers],
            outbox_bytes: vec![0; layout.servers],
            task_mark: 0,
            reads: Vec::new(),
            deferred_err: None,
            owns_writes: false,
            tenant: 0,
            get_filter: None,
            cached_get: None,
            quarantine_reports: Vec::new(),
            abort_reason: None,
            next_id: 0,
            next_seq: 0,
            dead: HashSet::new(),
            unconfirmed: Vec::new(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// The machine layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Set the tenant stamped onto subsequent puts and output. Workers
    /// call this before executing each task, with the task's tenant, so
    /// downstream puts inherit the right accounting.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
    }

    /// The tenant currently stamped onto puts and output.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Restrict `get` to untargeted tasks of one tenant (`None` serves
    /// every tenant). Targeted tasks — notifications pinned to this rank —
    /// are delivered regardless of the filter.
    pub fn set_get_filter(&mut self, tenant: Option<u32>) {
        if self.get_filter != tenant {
            self.get_filter = tenant;
            self.cached_get = None;
        }
    }

    /// Make this client's writes its program's own, as an engine's are:
    /// they leave in [`Request::OwnedBatch`]es beside the acks of many
    /// prefetched tasks, and a refused one is never a task's failure.
    pub fn own_writes(&mut self) {
        self.owns_writes = true;
    }

    /// Allocate a globally unique datum id (disjoint per client rank). A
    /// datum lives on its allocator's home server: the id is this
    /// client's next [`Layout::datum_id`].
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.layout.datum_id(self.comm.rank(), self.next_id);
        self.next_id += 1;
        id
    }

    /// Seal a request with the next sequence number.
    fn seal(&mut self, req: &Request) -> Bytes {
        self.next_seq += 1;
        seal(req, self.next_seq)
    }

    /// The rank currently serving home server `home`.
    fn host_of(&self, home: Rank) -> Rank {
        self.layout.route(home, &self.dead)
    }

    /// Send a sealed fire-and-forget message to the home server and
    /// remember it for re-send on failover.
    fn send_ff(&mut self, req: &Request) {
        let sealed = self.seal(req);
        self.unconfirmed.push(sealed.clone());
        let host = self.host_of(self.my_server);
        self.comm.send(host, TAG_REQ, sealed);
    }

    /// One awaited round trip against home server `home`, surviving the
    /// death of the rank serving it: on death, re-route to the ring
    /// successor, replay unconfirmed fire-and-forget traffic (home server
    /// only), and repeat the request under its original seq — the
    /// server-side dedup makes the retry exactly-once.
    ///
    /// Responses are received from any rank and matched by their sealed
    /// seq: after a failover the answer may arrive from the promoted
    /// successor rather than the rank the request was sent to (the
    /// successor pushes a dead server's cached responses unprompted), and
    /// stale duplicates of already-consumed responses must be dropped.
    /// `sent` is the fault point the request's first send reaches.
    fn exchange(&mut self, home: Rank, sealed: Bytes, seq: u64, sent: Option<Point>) -> Response {
        let mut host = self.host_of(home);
        self.comm.send(host, TAG_REQ, sealed.clone());
        if let Some(point) = sent {
            self.comm.fault_point(point);
        }
        loop {
            match self
                .comm
                .recv_timeout(Src::Any, TagSel::Of(TAG_RESP), RETRY_PROBE)
            {
                Some(m) => {
                    // A malformed response must not take the client rank
                    // down: log, drop, and keep waiting — the retry loop
                    // re-sends the request if nothing valid ever lands.
                    let Ok((resp, rseq)) = Sealed::<Response>::decode(&m.data) else {
                        eprintln!(
                            "adlb client {}: undecodable response from rank {}; dropped",
                            self.comm.rank(),
                            m.source
                        );
                        continue;
                    };
                    if rseq != seq {
                        // A re-sent copy of a response this client already
                        // consumed (failover duplicate): drop it.
                        continue;
                    }
                    if home == self.my_server {
                        // The response proves the serving rank processed
                        // (and replicated) everything we sent before this
                        // request — per-pair FIFO delivery.
                        self.unconfirmed.clear();
                    }
                    return resp;
                }
                None => {
                    if self.comm.is_alive(host) {
                        continue; // slow, not dead: keep waiting
                    }
                    self.dead.insert(host);
                    let next = self.host_of(home);
                    eprintln!(
                        "adlb client {}: server rank {host} died; retrying with rank {next}",
                        self.comm.rank()
                    );
                    if home == self.my_server {
                        for b in &self.unconfirmed {
                            self.comm.send(next, TAG_REQ, b.clone());
                        }
                    }
                    self.comm.send(next, TAG_REQ, sealed.clone());
                    host = next;
                }
            }
        }
    }

    /// Seal `req` and await its response from home server `home`.
    fn roundtrip(&mut self, home: Rank, req: &Request) -> Response {
        let sealed = self.seal(req);
        self.exchange(home, sealed, self.next_seq, None)
    }

    /// One acknowledged round trip for a request that cannot wait in an
    /// outbox (a read, `Finished`). Everything queued goes first, so the
    /// server observes this client's operations in program order and the
    /// client never blocks on a receive while holding an unsent ack.
    fn request(&mut self, home: Rank, req: &Request) -> Response {
        self.flush_all();
        self.roundtrip(home, req)
    }

    // -- the outbox --------------------------------------------------------

    /// Queue a write-behind request for `home`. `wakes` marks requests
    /// whose effect another rank can act on; every other server's outbox
    /// is flushed (and answered) before one is queued.
    fn defer(&mut self, home: Rank, req: Request, wakes: bool) {
        if wakes {
            self.flush_except(home);
        }
        let i = self.layout.server_index(home);
        self.outbox_bytes[i] += match &req {
            Request::Put(t) => t.payload.len(),
            Request::DataStore { value, .. } | Request::DataInsert { value, .. } => value.len(),
            _ => 0,
        };
        self.outbox[i].push(req);
        if self.outbox[i].len() >= self.config.outbox.max(1) || self.outbox_bytes[i] >= OUTBOX_BYTES
        {
            self.flush_home(home);
        }
    }

    /// Queue a lease ack or stdout for the home server. These never fill
    /// the outbox: they ride whatever leaves next.
    fn defer_quiet(&mut self, req: Request) {
        let i = self.layout.server_index(self.my_server);
        self.outbox[i].push(req);
    }

    fn flush_except(&mut self, home: Rank) {
        let layout = self.layout;
        for s in layout.server_ranks() {
            if s != home {
                self.flush_home(s);
            }
        }
    }

    fn flush_all(&mut self) {
        self.flush_except(self.my_server);
        self.flush_home(self.my_server);
    }

    /// Send `home`'s outbox as one request. Awaited — errors land in
    /// `deferred_err`, rejected puts are re-offered — unless it holds no
    /// write, or (a worker's) every write in it is followed by a `TaskDone`:
    /// then the server charges a failed write to that task and the batch is
    /// fire-and-forget.
    fn flush_home(&mut self, home: Rank) {
        let i = self.layout.server_index(home);
        if self.outbox[i].is_empty() {
            return;
        }
        let mut ops = std::mem::take(&mut self.outbox[i]);
        self.outbox_bytes[i] = 0;
        if home == self.my_server {
            self.task_mark = 0;
        }
        // A worker's errors before its last ack belong to tasks already
        // acked; every error of an owned batch is the program's.
        let acked = ops
            .iter()
            .rposition(|r| matches!(r, Request::TaskDone { .. }));
        let settled = acked.filter(|_| !self.owns_writes).map_or(0, |p| p + 1);
        let puts = ops.iter().filter(|r| matches!(r, Request::Put(_))).count();
        let acks = ops
            .iter()
            .filter(|r| matches!(r, Request::TaskDone { .. }))
            .count();
        let n = ops.len() as u64;
        let req = match (ops.len(), self.owns_writes) {
            (1, _) => ops.swap_remove(0),
            (_, true) => Request::OwnedBatch(ops),
            (_, false) => Request::Batch(ops),
        };
        if !req.wants_reply() {
            self.send_ff(&req);
            self.acks_sent(acks);
            return;
        }
        let t0 = trace::now_us();
        let resp = self.roundtrip(home, &req);
        if puts > 0 {
            trace::record_since(trace::KIND_TASK_PUT, puts as u64, t0);
        } else {
            trace::record_since(trace::KIND_DATA_OP, n, t0);
        }
        let resps = match resp {
            Response::Batch(resps) => resps,
            one => vec![one],
        };
        let rejected = self.absorb(resps, settled);
        self.acks_sent(acks);
        self.reoffer(rejected);
    }

    /// `n` acks just left: one [`Point::AckSent`] hit each.
    fn acks_sent(&self, n: usize) {
        for _ in 0..n {
            self.comm.fault_point(Point::AckSent);
        }
    }

    /// Digest the per-entry responses of a flushed outbox: remember the
    /// first error past `settled`, return the puts admission refused.
    fn absorb(&mut self, resps: Vec<Response>, settled: usize) -> Vec<Task> {
        let mut rejected = Vec::new();
        for (i, resp) in resps.into_iter().enumerate() {
            match resp {
                Response::Ok => {}
                Response::Rejected(mut tasks) => rejected.append(&mut tasks),
                Response::Error(message) => {
                    if i >= settled && self.deferred_err.is_none() {
                        self.deferred_err = Some(DataError { message });
                    }
                }
                other => eprintln!(
                    "adlb client {}: unexpected response {other:?} to a queued request",
                    self.comm.rank()
                ),
            }
        }
        rejected
    }

    /// Absorb admission backpressure: puts the server rejected for an
    /// over-quota tenant are held here and re-offered until the quota
    /// drains. The client stays mid-put (never parked), so termination
    /// detection keeps waiting on it — the work cannot be lost, only
    /// delayed.
    fn reoffer(&mut self, mut tasks: Vec<Task>) {
        while !tasks.is_empty() {
            std::thread::sleep(ADMISSION_BACKOFF);
            let req = Request::Batch(tasks.drain(..).map(Request::Put).collect());
            match self.roundtrip(self.my_server, &req) {
                Response::Batch(resps) => tasks = self.absorb(resps, 0),
                other => {
                    eprintln!(
                        "adlb client {}: put got unexpected response {other:?}; task may be lost",
                        self.comm.rank()
                    );
                    return;
                }
            }
        }
    }

    /// Report the first error a write that already left came back with,
    /// if no call has reported it yet. Engines check after every `get`,
    /// whose flush may have brought one back.
    pub fn take_deferred(&mut self) -> Result<(), DataError> {
        self.deferred_err.take().map_or(Ok(()), Err)
    }

    /// Send everything queued, wait for the answers, and report the first
    /// error a write-behind request came back with (with its original
    /// message). Engines call this after the program's main.
    pub fn flush(&mut self) -> Result<(), DataError> {
        self.flush_all();
        self.take_deferred()
    }

    /// End-of-task barrier for workers: writes queued for *other* servers
    /// are flushed and answered, so an error still belongs to the task
    /// that issued them. Writes for the home server stay queued and leave
    /// in one fire-and-forget batch with the task's ack — a failure among
    /// them fails that ack on the server.
    pub fn settle_task(&mut self) -> Result<(), DataError> {
        self.flush_except(self.my_server);
        self.take_deferred()
    }

    // -- work -------------------------------------------------------------

    /// Submit a task. `target` pins it to a rank; `priority` is
    /// higher-runs-first. With an outbox the task may wait there until
    /// the next flush point (outbox full, any awaited request, or
    /// [`AdlbClient::flush`]).
    pub fn put(&mut self, work_type: u32, priority: i32, target: Option<Rank>, payload: Vec<u8>) {
        let task =
            Task::new(work_type, priority, target, Bytes::from(payload)).with_tenant(self.tenant);
        self.defer(self.my_server, Request::Put(task), true);
    }

    // -- output streaming -------------------------------------------------

    /// Stream a chunk of this rank's stdout to the server tier, where it
    /// is accumulated (and replicated) per rank. It leaves with the next
    /// server trip; output shipped before a rank dies survives it — the
    /// run's report can include everything the dead rank managed to say.
    pub fn send_output(&mut self, text: &str) {
        if !text.is_empty() {
            self.defer_quiet(Request::Output {
                text: text.to_string(),
                tenant: self.tenant,
            });
        }
    }

    // -- leases -----------------------------------------------------------

    /// Record the outcome of the task currently handed to the caller, if
    /// any. The ack rides the outbox on the next server trip;
    /// non-overtaking delivery guarantees the server sees it after the
    /// task's own writes and before whatever request follows.
    fn resolve_delivered(&mut self, mut ok: bool, error: &str) {
        if !self.handed_out {
            return;
        }
        self.handed_out = false;
        // A worker's task is acked only once the tasks it put are admitted
        // (a rejected put is re-offered by an awaited flush) and its writes
        // on other servers are answered; an error among them fails it. An
        // engine's puts ride ahead of the ack in its owned batch, and its
        // errors stay the program's.
        let home = self.layout.server_index(self.my_server);
        if !self.owns_writes
            && self.outbox[home]
                .iter()
                .any(|r| matches!(r, Request::Put(_)))
        {
            self.flush_home(self.my_server);
        }
        self.flush_except(self.my_server);
        let mut error = error.to_string();
        if ok && !self.owns_writes {
            if let Some(e) = self.deferred_err.take() {
                (ok, error) = (false, e.message);
            }
        }
        // A successful ack carries the task's reads, whatever their homes:
        // only the home server learns whether the ack completes the task,
        // and releases them only then.
        let mut reads = std::mem::take(&mut self.reads);
        if !ok {
            reads.clear();
        }
        self.defer_quiet(Request::TaskDone { ok, error, reads });
    }

    /// Record that the task in hand read datum `id` (once per read, from
    /// its envelope or from the server alike). Once the task's successful
    /// ack has left, each read is released against the datum's count; a
    /// task that fails or dies releases nothing, so its retry still finds
    /// every input. Outside a task this does nothing.
    pub fn note_read(&mut self, id: u64) {
        if !self.handed_out {
            return;
        }
        match self.reads.iter_mut().find(|(r, _)| *r == id) {
            Some((_, n)) => *n += 1,
            None => self.reads.push((id, 1)),
        }
    }

    /// A task is now in the caller's hands.
    fn hand_out(&mut self, task: Task) -> Option<Task> {
        self.comm.fault_point(Point::TaskReceived);
        self.handed_out = true;
        self.task_mark = self.outbox[self.layout.server_index(self.my_server)].len();
        Some(task)
    }

    /// Report that the most recently delivered task failed in a contained
    /// way (its execution errored with `error` but this rank survives).
    /// The server will retry the task elsewhere or quarantine it per its
    /// [`crate::ServerConfig::max_retries`]. The task's unsent writes are discarded, and
    /// the failure ack flushes immediately so the retry starts without
    /// waiting for this client's next server trip.
    pub fn task_failed(&mut self, error: &str) {
        if !self.handed_out {
            return;
        }
        let home = self.layout.server_index(self.my_server);
        for (i, q) in self.outbox.iter_mut().enumerate() {
            if i == home {
                q.truncate(self.task_mark);
            } else {
                q.clear();
                self.outbox_bytes[i] = 0;
            }
        }
        self.deferred_err = None;
        self.resolve_delivered(false, error);
        self.flush_home(self.my_server);
    }

    /// Quarantine reports this client's server attached to its shutdown
    /// notice (empty before [`AdlbClient::get`] has returned `None`, and
    /// when no task was quarantined). Each entry describes one task that
    /// exhausted its retry budget and the error of its final attempt.
    pub fn quarantine_reports(&self) -> &[String] {
        &self.quarantine_reports
    }

    /// The shard-loss diagnosis from the server's shutdown notice, if the
    /// run was aborted by an unrecoverable server death (replication too
    /// low to promote a replica). `None` after a clean shutdown — and
    /// before [`AdlbClient::get`] has returned `None`.
    pub fn run_aborted(&self) -> Option<&str> {
        self.abort_reason.as_deref()
    }

    /// Encoded `Get` body for `work_types`, reusing the cached encoding
    /// when the types match the previous call (cloning [`Bytes`] is an
    /// `Arc` bump, not a copy).
    fn encoded_get(&mut self, work_types: &[u32]) -> Bytes {
        match &self.cached_get {
            Some((cached, filter, enc)) if cached == work_types && *filter == self.get_filter => {
                enc.clone()
            }
            _ => {
                let enc = Request::Get {
                    work_types: work_types.to_vec(),
                    max_tasks: self.config.prefetch.max(1),
                    tenant: self.get_filter,
                }
                .encode();
                self.cached_get = Some((work_types.to_vec(), self.get_filter, enc.clone()));
                enc
            }
        }
    }

    /// Block until a task of one of `work_types` is available, or global
    /// termination (`None`). Calling `get` acknowledges success of the
    /// previously delivered task; call [`AdlbClient::task_failed`] first
    /// if it failed.
    ///
    /// A prefetched task (from an earlier `Deliver`) is handed out
    /// with no server traffic at all; the accumulated acks leave with the
    /// outbox when the deque runs dry and the client returns to the
    /// server. Nothing stays queued across a blocking get.
    pub fn get(&mut self, work_types: &[u32]) -> Option<Task> {
        self.resolve_delivered(true, "");
        if let Some(t) = self.prefetch.pop_front() {
            return self.hand_out(t);
        }
        if self.shutdown_seen {
            return None;
        }
        loop {
            self.flush_all();
            let body = self.encoded_get(work_types);
            self.next_seq += 1;
            let sealed = seal_seq(&body, self.next_seq);
            // Zero-copy decode: task payloads alias the arrival buffer.
            let resp = self.exchange(self.my_server, sealed, self.next_seq, Some(Point::GetSent));
            match resp {
                Response::Deliver(tasks) => {
                    let mut it = tasks.into_iter();
                    if let Some(first) = it.next() {
                        self.prefetch.extend(it);
                        return self.hand_out(first);
                    }
                    // An empty delivery is a server bug; ask again.
                    eprintln!("adlb client {}: empty Deliver; retrying", self.comm.rank());
                }
                Response::NoMore {
                    quarantined,
                    aborted,
                } => {
                    self.shutdown_seen = true;
                    self.quarantine_reports = quarantined;
                    self.abort_reason = aborted;
                    return None;
                }
                other => {
                    // A confused server response must not take this rank
                    // down; log it and ask again.
                    eprintln!(
                        "adlb client {}: unexpected get response {other:?}; retrying",
                        self.comm.rank()
                    );
                }
            }
        }
    }

    /// Declare that this client will issue no further requests. Must be
    /// called by clients that stop calling [`AdlbClient::get`] before
    /// shutdown, or termination detection would wait on them forever.
    /// Awaited, so a server failover during the handshake is survived
    /// like any other request.
    pub fn finish(&mut self) {
        if self.shutdown_seen || self.finished_sent {
            return;
        }
        self.resolve_delivered(true, "");
        // Prefetched-but-unexecuted tasks are handed back as contained
        // failures so the server reruns them on a surviving client
        // instead of waiting forever on their leases.
        while self.prefetch.pop_front().is_some() {
            self.defer_quiet(Request::TaskDone {
                ok: false,
                error: "returned unexecuted: client finished".to_string(),
                reads: Vec::new(),
            });
        }
        self.finished_sent = true;
        match self.request(self.my_server, &Request::Finished) {
            Response::Ok | Response::NoMore { .. } => {}
            other => eprintln!(
                "adlb client {}: finish got unexpected response {other:?}",
                self.comm.rank()
            ),
        }
    }

    // -- data -------------------------------------------------------------

    /// A write: queued for `id`'s home server; reports whatever error is
    /// due (immediately its own when the outbox is off).
    fn write(&mut self, id: u64, req: Request, wakes: bool) -> Result<(), DataError> {
        self.defer(self.layout.data_owner(id), req, wakes);
        self.take_deferred()
    }

    /// A read: one awaited round trip behind `id`'s home outbox, so it
    /// observes this client's own earlier writes.
    fn read<T>(
        &mut self,
        id: u64,
        req: &Request,
        op: &str,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, DataError> {
        let t0 = trace::now_us();
        let resp = self.request(self.layout.data_owner(id), req);
        trace::record_since(trace::KIND_DATA_OP, id, t0);
        self.take_deferred()?;
        pick(resp).map_err(|resp| match resp {
            Response::Error(message) => DataError { message },
            other => DataError {
                message: format!("{op}: unexpected response {other:?}"),
            },
        })
    }

    /// Create a datum of the given Turbine type tag. It is never freed.
    pub fn create(&mut self, id: u64, type_tag: u8) -> Result<(), DataError> {
        let req = Request::DataCreate {
            id,
            type_tag,
            reads: None,
        };
        self.write(id, req, false)
    }

    /// Create a datum that `reads` leaf reads will consume: it is freed
    /// once it is closed and every one of them has been released.
    pub fn create_counted(&mut self, id: u64, type_tag: u8, reads: u32) -> Result<(), DataError> {
        let req = Request::DataCreate {
            id,
            type_tag,
            reads: Some(reads),
        };
        self.write(id, req, false)
    }

    /// Store a scalar value, closing the datum and releasing subscribers.
    pub fn store(&mut self, id: u64, value: impl Into<Bytes>) -> Result<(), DataError> {
        let value = value.into();
        self.write(id, Request::DataStore { id, value }, true)
    }

    /// Fetch a closed scalar's value (`None` while still open).
    pub fn retrieve(&mut self, id: u64) -> Result<Option<Bytes>, DataError> {
        self.read(id, &Request::DataRetrieve { id }, "retrieve", |r| match r {
            Response::MaybeBytes(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Subscribe `notify_rank` to the close of `id`. Returns `true` if the
    /// datum is already closed (no notification will arrive).
    pub fn subscribe(&mut self, id: u64, notify_rank: Rank) -> Result<bool, DataError> {
        let req = Request::DataSubscribe {
            id,
            rank: notify_rank,
            notify_closed: false,
        };
        self.read(id, &req, "subscribe", |r| match r {
            Response::Bool(closed) => Ok(closed),
            other => Err(other),
        })
    }

    /// Write-behind subscribe: `notify_rank` gets a close notification for
    /// `id` in every case — at once when the datum is already closed — so
    /// the caller need not wait to learn which.
    pub fn subscribe_notify(&mut self, id: u64, notify_rank: Rank) -> Result<(), DataError> {
        let req = Request::DataSubscribe {
            id,
            rank: notify_rank,
            notify_closed: true,
        };
        self.write(id, req, false)
    }

    /// Insert a member into an open container.
    pub fn insert(&mut self, id: u64, key: &str, value: Vec<u8>) -> Result<(), DataError> {
        let req = Request::DataInsert {
            id,
            key: key.to_string(),
            value: Bytes::from(value),
        };
        self.write(id, req, false)
    }

    /// Look up a container member.
    pub fn lookup(&mut self, id: u64, key: &str) -> Result<Option<Bytes>, DataError> {
        let req = Request::DataLookup {
            id,
            key: key.to_string(),
        };
        self.read(id, &req, "lookup", |r| match r {
            Response::MaybeBytes(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Enumerate a container's members in subscript order.
    pub fn enumerate(&mut self, id: u64) -> Result<Vec<(String, Bytes)>, DataError> {
        self.read(
            id,
            &Request::DataEnumerate { id },
            "enumerate",
            |r| match r {
                Response::Pairs(p) => Ok(p),
                other => Err(other),
            },
        )
    }

    /// Adjust a container's writer slot count (Swift/T slot counting); a
    /// drop to zero closes it, releasing subscribers. This is the only way
    /// to close a container.
    pub fn incr_writers(&mut self, id: u64, delta: i64) -> Result<(), DataError> {
        self.write(id, Request::DataIncrWriters { id, delta }, true)
    }

    /// Whether the datum exists and is closed.
    pub fn exists(&mut self, id: u64) -> Result<bool, DataError> {
        self.read(id, &Request::DataExists { id }, "exists", |r| match r {
            Response::Bool(b) => Ok(b),
            other => Err(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{WORK_TYPE_NOTIFY, WORK_TYPE_WORK};
    use crate::server::{serve, ServerConfig};
    use mpisim::World;

    fn with_runtime<T: Send>(
        size: usize,
        servers: usize,
        body: impl Fn(AdlbClient) -> T + Sync,
    ) -> Vec<Option<T>> {
        let layout = Layout::new(size, servers);
        World::run(size, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
                None
            } else {
                Some(body(AdlbClient::new(comm, layout)))
            }
        })
    }

    #[test]
    fn empty_world_terminates() {
        // Clients that immediately finish: termination must still fire.
        let out = with_runtime(4, 1, |mut c| {
            c.finish();
            true
        });
        assert_eq!(out.iter().flatten().count(), 3);
    }

    #[test]
    fn tasks_flow_from_putter_to_getter() {
        let out = with_runtime(3, 1, |mut c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.put(WORK_TYPE_WORK, 0, None, vec![i]);
                }
                c.finish();
                return 0u64;
            }
            let mut sum = 0u64;
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                sum += t.payload[0] as u64;
            }
            sum
        });
        let total: u64 = out.iter().flatten().sum();
        assert_eq!(total, (0..10).sum::<u64>());
    }

    #[test]
    fn targeted_task_reaches_only_target() {
        let out = with_runtime(4, 1, |mut c| {
            if c.rank() == 0 {
                c.put(WORK_TYPE_WORK, 0, Some(2), b"for-two".to_vec());
                c.finish();
                return None;
            }
            let mut got = None;
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                got = Some((c.rank(), t.payload.to_vec()));
            }
            got
        });
        let hits: Vec<_> = out.into_iter().flatten().flatten().collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn priorities_order_delivery() {
        // One submitter, one consumer: consumer must see high priority
        // first even though it was put last.
        let out = with_runtime(3, 1, |mut c| {
            if c.rank() == 0 {
                c.put(WORK_TYPE_WORK, 1, Some(1), b"low".to_vec());
                c.put(WORK_TYPE_WORK, 9, Some(1), b"high".to_vec());
                // Give the server a beat so both tasks are queued before
                // the consumer's first get.
                std::thread::sleep(std::time::Duration::from_millis(20));
                c.put(WORK_TYPE_WORK, 5, Some(1), b"mid".to_vec());
                c.finish();
                return vec![];
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut order = vec![];
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                order.push(String::from_utf8(t.payload.to_vec()).unwrap());
            }
            order
        });
        let order = &out[1].as_ref().unwrap()[..2];
        assert_eq!(order, &["high".to_string(), "low".to_string()]);
    }

    #[test]
    fn work_stealing_balances_across_servers() {
        // 2 servers; all work is put by a client of server 0, but a client
        // of server 1 must still receive tasks via stealing.
        let layout = Layout::new(4, 2);
        let out = World::run(4, move |comm| {
            if layout.is_server(comm.rank()) {
                let stats = serve(comm, layout, ServerConfig::default());
                return stats.tasks_donated + stats.tasks_stolen;
            }
            let mut c = AdlbClient::new(comm, layout);
            if c.rank() == 0 {
                // Client 0 is served by server 2 (0 % 2 == 0).
                for i in 0..20 {
                    c.put(WORK_TYPE_WORK, 0, None, vec![i]);
                }
                c.finish();
                return 0;
            }
            // Client 1 is served by server 3: no local puts at all.
            let mut count = 0u64;
            while c.get(&[WORK_TYPE_WORK]).is_some() {
                count += 1;
            }
            count
        });
        assert_eq!(out[1], 20, "all tasks must reach the stealing side");
        assert!(out[2] + out[3] > 0, "steal traffic must have occurred");
    }

    #[test]
    fn data_store_round_trip() {
        let out = with_runtime(2, 1, |mut c| {
            if c.rank() == 0 {
                let id = c.alloc_id();
                c.create(id, 0).unwrap();
                assert_eq!(c.retrieve(id).unwrap(), None);
                c.store(id, b"payload".to_vec()).unwrap();
                let v = c.retrieve(id).unwrap().unwrap();
                c.finish();
                return v.to_vec();
            }
            c.finish();
            vec![]
        });
        assert_eq!(out[0].as_ref().unwrap(), b"payload");
    }

    #[test]
    fn subscribe_produces_notify_task() {
        let out = with_runtime(3, 1, |mut c| {
            // Rank 1 subscribes, rank 0 stores; rank 1 gets a NOTIFY task.
            let id = 7u64; // fixed id shared by convention
            match c.rank() {
                0 => {
                    c.create(id, 0).unwrap();
                    // Let rank 1 subscribe first.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    c.store(id, b"v".to_vec()).unwrap();
                    c.finish();
                    u64::MAX
                }
                1 => {
                    // Retry subscribe until rank 0's create lands.
                    loop {
                        match c.subscribe(id, 1) {
                            Ok(false) => break,
                            Ok(true) => return id, // already closed
                            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                        }
                    }
                    let t = c.get(&[WORK_TYPE_NOTIFY]).expect("notify task");
                    let got = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                    while c.get(&[WORK_TYPE_NOTIFY]).is_some() {}
                    got
                }
                _ => {
                    c.finish();
                    u64::MAX
                }
            }
        });
        assert_eq!(out[1], Some(7));
    }

    #[test]
    fn double_store_is_reported() {
        let out = with_runtime(2, 1, |mut c| {
            if c.rank() == 0 {
                let id = c.alloc_id();
                c.create(id, 0).unwrap();
                c.store(id, b"a".to_vec()).unwrap();
                let err = c.store(id, b"b".to_vec()).unwrap_err();
                c.finish();
                return err.message;
            }
            c.finish();
            String::new()
        });
        assert!(out[0].as_ref().unwrap().contains("double assignment"));
    }

    #[test]
    fn containers_work_across_ranks() {
        let out = with_runtime(4, 2, |mut c| {
            let id = 42u64;
            if c.rank() == 0 {
                c.create(id, crate::datastore::TYPE_TAG_CONTAINER).unwrap();
                c.insert(id, "0", b"zero".to_vec()).unwrap();
                c.insert(id, "1", b"one".to_vec()).unwrap();
                // The creating scope's writer slot: giving it back closes.
                c.incr_writers(id, -1).unwrap();
                c.finish();
                return vec![];
            }
            // Wait until the container exists and is closed.
            while !c.exists(id).unwrap_or(false) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let pairs = c.enumerate(id).unwrap();
            c.finish();
            pairs.into_iter().map(|(k, _)| k).collect()
        });
        assert_eq!(out[1].as_ref().unwrap(), &["0", "1"]);
    }

    #[test]
    fn many_workers_drain_queue() {
        let n = 9;
        let out = with_runtime(n + 2, 2, move |mut c| {
            if c.rank() == 0 {
                for i in 0..200u32 {
                    c.put(
                        WORK_TYPE_WORK,
                        (i % 3) as i32,
                        None,
                        i.to_le_bytes().to_vec(),
                    );
                }
                c.finish();
                return 0u64;
            }
            let mut count = 0u64;
            while c.get(&[WORK_TYPE_WORK]).is_some() {
                count += 1;
            }
            count
        });
        let total: u64 = out.iter().flatten().sum();
        assert_eq!(total, 200);
    }

    /// Like `with_runtime`, with write-behind outboxes on.
    fn with_batched<T: Send>(
        size: usize,
        servers: usize,
        body: impl Fn(AdlbClient) -> T + Sync,
    ) -> Vec<Option<T>> {
        let layout = Layout::new(size, servers);
        World::run(size, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
                None
            } else {
                let config = ClientConfig::batched();
                Some(body(AdlbClient::with_config(comm, layout, config)))
            }
        })
    }

    #[test]
    fn queued_writes_are_visible_to_own_reads_and_errors_keep_their_message() {
        let out = with_batched(2, 1, |mut c| {
            let id = c.alloc_id();
            c.create(id, 0).unwrap();
            c.store(id, b"v".to_vec()).unwrap();
            // Nothing was sent yet; the read flushes first.
            let v = c.retrieve(id).unwrap().unwrap();
            // The second store is accepted into the outbox; its error
            // surfaces at the flush, word for word.
            c.store(id, b"w".to_vec()).unwrap();
            let err = c.flush().unwrap_err();
            c.flush().expect("an error is reported once");
            c.finish();
            (v.to_vec(), err.message)
        });
        let (v, err) = out[0].clone().unwrap();
        assert_eq!(v, b"v");
        assert!(err.contains("double assignment"), "{err}");
    }

    #[test]
    fn retired_kinds_are_protocol_errors_that_change_nothing() {
        // Kind 17 was a release that could travel without the ack deciding
        // it, kind 10 a container close beside the writer count. A server
        // must refuse both, count each, and touch no datum.
        let layout = Layout::new(2, 1);
        let out = World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                return Some(serve(comm, layout, ServerConfig::default()));
            }
            let send = |body: &[u8], seq| comm.send(1, TAG_REQ, seal_seq(body, seq));
            let ask = |req: &Request, seq| {
                send(&req.encode(), seq);
                let m = comm.recv(Src::Of(1), TagSel::Of(TAG_RESP));
                Sealed::<Response>::decode(&m.data).unwrap().0
            };
            let v = Bytes::from_static(b"v");
            let create = |id, type_tag, reads| Request::DataCreate {
                id,
                type_tag,
                reads,
            };
            assert_eq!(ask(&create(7, 0, Some(1)), 1), Response::Ok);
            let store = Request::DataStore {
                id: 7,
                value: v.clone(),
            };
            assert_eq!(ask(&store, 2), Response::Ok);
            // The old release of datum 7's one read: [17][id][n].
            send(
                &[&[17u8][..], &7u64.to_le_bytes(), &1u32.to_le_bytes()].concat(),
                3,
            );
            let container = create(8, crate::datastore::TYPE_TAG_CONTAINER, None);
            assert_eq!(ask(&container, 4), Response::Ok);
            // The old close of container 8: [10][id].
            send(&[&[10u8][..], &8u64.to_le_bytes()].concat(), 5);
            let read = ask(&Request::DataRetrieve { id: 7 }, 6);
            assert_eq!(read, Response::MaybeBytes(Some(v.clone())), "not freed");
            let open = ask(&Request::DataExists { id: 8 }, 7);
            assert_eq!(open, Response::Bool(false), "still open");
            let insert = Request::DataInsert {
                id: 8,
                key: "0".into(),
                value: v,
            };
            assert_eq!(ask(&insert, 8), Response::Ok);
            ask(&Request::Finished, 9);
            None
        });
        let stats = out[1].as_ref().unwrap();
        assert_eq!(stats.protocol_errors, 2);
        assert_eq!(stats.data_freed, 0);
    }

    #[test]
    fn a_resent_batch_is_applied_once_and_answered_verbatim() {
        // Drive the server with raw wire messages: the same sealed batch
        // twice (what a client does when its server dies mid-request and
        // the successor holds the replicated state). The second copy must
        // get the cached response byte for byte and change nothing.
        let layout = Layout::new(2, 1);
        World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
                return;
            }
            let ask = |req: &Request, seq: u64| {
                comm.send(1, TAG_REQ, seal(req, seq));
                if !req.wants_reply() {
                    return None;
                }
                let m = comm.recv(Src::Of(1), TagSel::Of(TAG_RESP));
                Some(m.data)
            };
            let value = Bytes::from_static(b"v");
            let batch = Request::Batch(vec![
                Request::DataCreate {
                    id: 7,
                    type_tag: 0,
                    reads: None,
                },
                Request::DataStore { id: 7, value },
                Request::DataCreate {
                    id: 7,
                    type_tag: 0,
                    reads: None,
                },
                Request::Put(Task::new(WORK_TYPE_WORK, 0, None, Bytes::from_static(b"t"))),
            ]);
            let first = ask(&batch, 1).unwrap();
            let again = ask(&batch, 1).unwrap();
            assert_eq!(first, again, "the cached response, verbatim");
            let (resp, seq) = Sealed::<Response>::decode(&first).unwrap();
            assert_eq!(seq, 1);
            match resp {
                Response::Batch(r) => {
                    assert_eq!(r.len(), 4);
                    assert_eq!(
                        (&r[0], &r[1], &r[3]),
                        (&Response::Ok, &Response::Ok, &Response::Ok)
                    );
                    assert!(matches!(&r[2], Response::Error(e) if e.contains("already exists")));
                }
                other => panic!("wrong response {other:?}"),
            }
            // Exactly one task came of the two copies.
            let get = Request::Get {
                work_types: vec![WORK_TYPE_WORK],
                max_tasks: 8,
                tenant: None,
            };
            let (resp, _) = Sealed::<Response>::decode(&ask(&get, 2).unwrap()).unwrap();
            assert!(
                matches!(&resp, Response::Deliver(t) if t.len() == 1),
                "{resp:?}"
            );
            // A failed write ahead of an ack fails that ack: the task is
            // retried, not lost, and the batch needs no answer.
            let done = Request::TaskDone {
                ok: true,
                error: String::new(),
                reads: vec![],
            };
            let dup = Request::DataCreate {
                id: 7,
                type_tag: 0,
                reads: None,
            };
            assert!(ask(&Request::Batch(vec![dup, done.clone()]), 3).is_none());
            let (resp, _) = Sealed::<Response>::decode(&ask(&get, 4).unwrap()).unwrap();
            match resp {
                Response::Deliver(t) => assert_eq!(t[0].attempts, 1, "the retry of the same task"),
                other => panic!("wrong response {other:?}"),
            }
            ask(&done, 5);
            ask(&Request::Finished, 6).unwrap();
        });
    }

    #[test]
    fn output_streams_accumulate_on_the_server() {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            if layout.is_server(comm.rank()) {
                let outcome = crate::server::serve_ext(comm, layout, ServerConfig::default());
                return outcome
                    .streams
                    .iter()
                    .map(|(r, _t, s)| format!("{r}:{s}"))
                    .collect::<Vec<_>>()
                    .join(" ");
            }
            let mut c = AdlbClient::new(comm, layout);
            c.send_output(&format!("hello from {}", c.rank()));
            c.send_output("!");
            c.finish();
            String::new()
        });
        assert_eq!(out[2], "0:hello from 0! 1:hello from 1!");
    }
}
