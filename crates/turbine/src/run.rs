//! Per-rank driver: role assignment, program startup, engine loop, output
//! collection.
//!
//! This is the analogue of `turbine::start`: given a compiled program
//! (preamble of proc definitions + a main body), each rank takes its role
//! from the layout (Fig. 2) and runs to global termination.

use std::cell::RefCell;
use std::rc::Rc;

use adlb::{AdlbClient, Layout, ServerConfig, ServerStats, TenantSpec, TenantStats};
use mpisim::{Comm, Rank};
use tclish::Interp;

use crate::commands::{self, Ctx, SharedCtx};
use crate::types::InterpPolicy;
use crate::worker;

/// The role a rank plays (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Evaluates Swift logic: rules, control actions.
    Engine,
    /// Executes leaf tasks.
    Worker,
    /// ADLB server: queues, data store, load balancing.
    Server,
}

/// Machine configuration for a run.
#[derive(Debug, Clone)]
pub struct TurbineConfig {
    /// Number of ADLB server ranks (at the top of the rank space).
    pub servers: usize,
    /// Number of engine ranks (at the bottom of the rank space). Engine 0
    /// evaluates the program's main body.
    pub engines: usize,
    /// §III.C interpreter policy on workers.
    pub policy: InterpPolicy,
    /// ADLB server tunables.
    pub server: ServerConfig,
    /// Client-side wire batching: get prefetch and write-behind outboxes. On by
    /// default; switch off (the E5 ablation) to recover the PR 1
    /// one-task-per-round-trip protocol.
    pub batching: bool,
}

impl Default for TurbineConfig {
    fn default() -> Self {
        TurbineConfig {
            servers: 1,
            engines: 1,
            policy: InterpPolicy::Retain,
            server: ServerConfig::default(),
            batching: true,
        }
    }
}

impl TurbineConfig {
    /// The ADLB client knobs implied by [`TurbineConfig::batching`]:
    /// prefetch batches of tasks and queue writes in the client's outbox
    /// when on, PR 1 wire behavior when off. Queued requests are always
    /// safe because every blocking client operation flushes them first.
    pub fn client_config(&self) -> adlb::ClientConfig {
        if self.batching {
            adlb::ClientConfig::batched()
        } else {
            adlb::ClientConfig::unbatched()
        }
    }
}

impl TurbineConfig {
    /// The ADLB layout for a world of `size` ranks.
    pub fn layout(&self, size: usize) -> Layout {
        Layout::new(size, self.servers)
    }

    /// The role of `rank` in a world of `size` ranks.
    pub fn role(&self, size: usize, rank: Rank) -> Role {
        let layout = self.layout(size);
        if layout.is_server(rank) {
            Role::Server
        } else if rank < self.engines {
            Role::Engine
        } else {
            Role::Worker
        }
    }

    /// Validate against a world size: need at least one engine, and a
    /// worker if any leaf tasks are to run.
    pub fn validate(&self, size: usize) {
        let clients = size - self.servers;
        assert!(self.engines >= 1, "need at least one engine");
        assert!(
            clients > self.engines,
            "need at least one worker rank (size {size}, servers {}, engines {})",
            self.servers,
            self.engines
        );
    }
}

/// A compiled Turbine program.
#[derive(Debug, Clone, Default)]
pub struct TurbineProgram {
    /// Proc definitions and package setup; evaluated on every engine and
    /// worker before any task runs.
    pub preamble: String,
    /// The program body; evaluated on engine 0 only.
    pub main: String,
    /// Program arguments, readable via `turbine::argv` / Swift `argv()`.
    pub args: Vec<(String, String)>,
}

/// What one rank reports after the run.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// The role this rank played.
    pub role: Role,
    /// Everything the rank's interpreter wrote via `puts` (and embedded
    /// interpreter output).
    pub stdout: String,
    /// Leaf tasks executed (workers).
    pub tasks_executed: u64,
    /// Leaf tasks that failed in a contained way (workers).
    pub tasks_failed: u64,
    /// Rules created (engines).
    pub rules_created: u64,
    /// Rules fired (engines).
    pub rules_fired: u64,
    /// Python/R interpreter initializations.
    pub interp_inits: u64,
    /// Server statistics (servers only).
    pub server_stats: Option<ServerStats>,
    /// Per-client stdout streams this rank accumulated (servers only),
    /// keyed by (client rank, tenant): everything each engine/worker
    /// shipped via the incremental output stream, which survives the
    /// producing rank's death.
    pub server_streams: Vec<(Rank, u32, String)>,
    /// Client ranks whose stream is known-incomplete — the rank died
    /// mid-run (servers only).
    pub truncated_streams: Vec<Rank>,
    /// Per-tenant scheduling/admission accounting (servers only; empty in
    /// single-tenant runs, which never register tenants).
    pub tenant_rows: Vec<(u32, TenantStats)>,
    /// The tenant this rank served exclusively (multi-tenant engines).
    pub tenant: Option<u32>,
    /// Per-tenant stdout captured locally on this rank (multi-tenant
    /// engines and workers). [`RankOutput::stdout`] is the concatenation
    /// in tenant order.
    pub tenant_stdout: Vec<(u32, String)>,
    /// The first program error this rank contained (multi-tenant runs
    /// isolate failures per tenant instead of panicking the world).
    pub program_error: Option<String>,
}

impl RankOutput {
    /// A zeroed report for `role`; callers fill in what they measured.
    pub fn empty(role: Role) -> Self {
        RankOutput {
            role,
            stdout: String::new(),
            tasks_executed: 0,
            tasks_failed: 0,
            rules_created: 0,
            rules_fired: 0,
            interp_inits: 0,
            server_stats: None,
            server_streams: Vec::new(),
            truncated_streams: Vec::new(),
            tenant_rows: Vec::new(),
            tenant: None,
            tenant_stdout: Vec::new(),
            program_error: None,
        }
    }
}

/// Ships the interpreter's captured stdout to the ADLB server tier in
/// increments: everything `puts` appended since the last ship goes out as
/// one fire-and-forget `Output` message. Called before each blocking
/// `get`, so a rank death can only lose the output of the task it was
/// actively running — everything earlier already lives on (and is
/// replicated by) its server.
pub struct OutputStreamer {
    buf: Rc<RefCell<String>>,
    shipped: usize,
}

impl OutputStreamer {
    /// Stream increments of `buf` (an [`Interp::capture_output`] buffer).
    pub fn new(buf: Rc<RefCell<String>>) -> Self {
        OutputStreamer { buf, shipped: 0 }
    }

    /// Ship whatever was appended since the last call.
    pub fn ship(&mut self, client: &mut AdlbClient) {
        let b = self.buf.borrow();
        if b.len() > self.shipped {
            client.send_output(&b[self.shipped..]);
            self.shipped = b.len();
        }
    }
}

/// Run one rank of the machine to global termination.
///
/// # Panics
/// Panics on Tcl errors in the program (poisoning the world so other
/// ranks fail fast rather than hanging).
pub fn run_rank(comm: Comm, config: &TurbineConfig, program: &TurbineProgram) -> RankOutput {
    run_rank_with(comm, config, program, |_| {})
}

/// Like [`run_rank`], with a hook that customizes each engine/worker
/// interpreter after the `turbine::*` commands are registered — this is
/// where the host attaches native libraries (the SWIG path of §III.B) and
/// extra in-memory Tcl packages.
pub fn run_rank_with(
    comm: Comm,
    config: &TurbineConfig,
    program: &TurbineProgram,
    setup: impl Fn(&mut Interp),
) -> RankOutput {
    let size = comm.size();
    config.validate(size);
    let rank = comm.rank();
    let role = config.role(size, rank);
    let layout = config.layout(size);

    if role == Role::Server {
        let outcome = adlb::serve_ext(comm, layout, config.server.clone());
        return RankOutput {
            server_stats: Some(outcome.stats),
            server_streams: outcome.streams,
            truncated_streams: outcome.truncated,
            tenant_rows: outcome.tenant_rows,
            ..RankOutput::empty(role)
        };
    }

    let client = AdlbClient::with_config(comm, layout, config.client_config());
    let ctx = Ctx::new(client, role == Role::Engine, config.policy);
    ctx.borrow_mut().args = program.args.iter().cloned().collect();
    // The runtime library plus the program's own definitions are an
    // in-memory "static package" (§IV): no filesystem involved.
    let (mut interp, buf, err) = build_interp(&ctx, config, size, &program.preamble, &setup);
    if let Some(e) = err {
        panic!("{e} on rank {rank}");
    }

    let mut stream = OutputStreamer::new(buf.clone());
    match role {
        Role::Engine => {
            if rank == 0 {
                interp
                    .eval(&program.main)
                    .and_then(|_| flush_writes(&ctx))
                    .unwrap_or_else(|e| panic!("program main failed: {e}"));
            }
            engine_loop(&mut interp, &ctx, &mut stream)
                .unwrap_or_else(|e| panic!("engine {rank} failed: {e}"));
        }
        Role::Worker => {
            worker::worker_loop(&mut interp, &ctx, &mut stream)
                .unwrap_or_else(|e| panic!("worker {rank} task failed: {e}"));
        }
        Role::Server => unreachable!(),
    }

    let c = ctx.borrow();
    let stdout = buf.borrow().clone();
    RankOutput {
        stdout,
        tasks_executed: c.tasks_executed,
        tasks_failed: c.tasks_failed,
        rules_created: c.engine.rules_created,
        rules_fired: c.engine.rules_fired,
        interp_inits: c.interp_inits,
        ..RankOutput::empty(role)
    }
}

/// Send everything the fragment just evaluated left in the client's
/// outbox; a write that failed surfaces here with its original message.
fn flush_writes(ctx: &SharedCtx) -> Result<(), tclish::TclError> {
    let flushed = ctx.borrow_mut().client.flush();
    flushed.map_err(|e| tclish::TclError::new(e.to_string()))
}

/// The engine's flush point, before each get: the fragments' writes and
/// stdout leave now and are answered, unless the get hands out a
/// prefetched task and nothing but acks and stdout is queued. So an
/// engine's write never rides ahead of its task's ack, where the server
/// would charge a refusal to the task and retry it (a retried notification
/// then succeeds) instead of the run failing here; the acks and stdout of
/// prefetched tasks that wrote nothing share one batch.
fn flush_before_get(ctx: &SharedCtx, stream: &mut OutputStreamer) -> Result<(), tclish::TclError> {
    if ctx.borrow().client.next_get_is_local() {
        return Ok(());
    }
    stream.ship(&mut ctx.borrow_mut().client);
    flush_writes(ctx)
}

/// Build one engine/worker interpreter: `turbine::*` commands, the host
/// `setup` hook, the runtime library, and `preamble`. A preamble error is
/// returned (not panicked) so multi-tenant callers can contain it to the
/// offending tenant.
fn build_interp(
    ctx: &SharedCtx,
    config: &TurbineConfig,
    size: usize,
    preamble: &str,
    setup: &impl Fn(&mut Interp),
) -> (Interp, Rc<RefCell<String>>, Option<String>) {
    let mut interp = Interp::new();
    let buf = interp.capture_output();
    commands::register(&mut interp, ctx.clone());
    setup(&mut interp);
    crate::library::load(&mut interp)
        .unwrap_or_else(|e| panic!("turbine library failed to load: {e}"));
    let mut err = None;
    if !preamble.is_empty() {
        if let Err(e) = interp.eval(preamble) {
            err = Some(format!("program preamble failed: {e}"));
        }
    }
    interp.set_var("turbine::n_engines", config.engines.to_string());
    interp.set_var(
        "turbine::n_workers",
        (size - config.servers - config.engines).to_string(),
    );
    (interp, buf, err)
}

/// Run one rank of a *multi-tenant* machine: `programs[i]` runs as tenant
/// `programs[i].0.id`, evaluated by engine rank `i`, over the shared
/// worker/server fleet. Requires exactly one engine per program.
///
/// Unlike [`run_rank`], program errors do not panic the world: each
/// tenant's failures are contained to its own tasks and reported in
/// [`RankOutput::program_error`], so one broken program cannot take its
/// neighbors down.
pub fn run_rank_tenants(
    comm: Comm,
    config: &TurbineConfig,
    programs: &[(TenantSpec, TurbineProgram)],
) -> RankOutput {
    run_rank_tenants_with(comm, config, programs, |_| {})
}

/// Like [`run_rank_tenants`], with the same interpreter-setup hook as
/// [`run_rank_with`].
pub fn run_rank_tenants_with(
    comm: Comm,
    config: &TurbineConfig,
    programs: &[(TenantSpec, TurbineProgram)],
    setup: impl Fn(&mut Interp),
) -> RankOutput {
    let size = comm.size();
    config.validate(size);
    assert!(
        config.engines == programs.len(),
        "multi-tenant runs need exactly one engine per program \
         ({} engines, {} programs)",
        config.engines,
        programs.len()
    );
    let rank = comm.rank();
    let role = config.role(size, rank);
    let layout = config.layout(size);

    if role == Role::Server {
        let mut server_cfg = config.server.clone();
        server_cfg.tenants = programs.iter().map(|(s, _)| s.clone()).collect();
        let outcome = adlb::serve_ext(comm, layout, server_cfg);
        return RankOutput {
            server_stats: Some(outcome.stats),
            server_streams: outcome.streams,
            truncated_streams: outcome.truncated,
            tenant_rows: outcome.tenant_rows,
            ..RankOutput::empty(role)
        };
    }

    let client = AdlbClient::with_config(comm, layout, config.client_config());
    let ctx = Ctx::new(client, role == Role::Engine, config.policy);

    match role {
        Role::Engine => {
            let (spec, program) = &programs[rank];
            let tenant = spec.id;
            {
                let mut c = ctx.borrow_mut();
                c.args = program.args.iter().cloned().collect();
                c.client.set_tenant(tenant);
                c.client.set_get_filter(Some(tenant));
            }
            let (mut interp, buf, mut error) =
                build_interp(&ctx, config, size, &program.preamble, &setup);
            let mut stream = OutputStreamer::new(buf.clone());
            // Every engine is rank 0 of its own tenant: it runs its
            // program's main. A failed main is contained — the engine
            // keeps serving its notifications to global termination so
            // the rest of the world is undisturbed.
            if error.is_none() {
                if let Err(e) = interp.eval(&program.main).and_then(|_| flush_writes(&ctx)) {
                    error = Some(format!("program main failed: {e}"));
                }
            }
            engine_loop_contained(&mut interp, &ctx, &mut stream, &mut error);
            let c = ctx.borrow();
            let stdout = buf.borrow().clone();
            RankOutput {
                stdout: stdout.clone(),
                rules_created: c.engine.rules_created,
                rules_fired: c.engine.rules_fired,
                interp_inits: c.interp_inits,
                tenant: Some(tenant),
                tenant_stdout: vec![(tenant, stdout)],
                program_error: error.map(|e| format!("tenant {} ({}): {e}", tenant, spec.name)),
                ..RankOutput::empty(role)
            }
        }
        Role::Worker => {
            let preambles: std::collections::HashMap<u32, (String, Vec<(String, String)>)> =
                programs
                    .iter()
                    .map(|(s, p)| (s.id, (p.preamble.clone(), p.args.clone())))
                    .collect();
            let mut first_err: Option<String> = None;
            let mut bufs: Vec<(u32, Rc<RefCell<String>>)> = Vec::new();
            let executed = {
                let mut build = |tenant: u32| {
                    let preamble = preambles
                        .get(&tenant)
                        .map(|(p, _)| p.as_str())
                        .unwrap_or("");
                    let (interp, buf, err) = build_interp(&ctx, config, size, preamble, &setup);
                    if let Some(e) = err {
                        if first_err.is_none() {
                            first_err = Some(format!("tenant {tenant}: {e}"));
                        }
                    }
                    bufs.push((tenant, buf.clone()));
                    (interp, OutputStreamer::new(buf))
                };
                let args_of = |tenant: u32| {
                    preambles
                        .get(&tenant)
                        .map(|(_, a)| a.iter().cloned().collect())
                        .unwrap_or_default()
                };
                worker::worker_loop_tenants(&ctx, &mut build, &args_of)
            };
            let _ = executed;
            bufs.sort_by_key(|(t, _)| *t);
            let tenant_stdout: Vec<(u32, String)> = bufs
                .into_iter()
                .map(|(t, b)| (t, b.borrow().clone()))
                .collect();
            let stdout = tenant_stdout
                .iter()
                .map(|(_, s)| s.as_str())
                .collect::<Vec<_>>()
                .join("");
            let c = ctx.borrow();
            RankOutput {
                stdout,
                tasks_executed: c.tasks_executed,
                tasks_failed: c.tasks_failed,
                interp_inits: c.interp_inits,
                tenant_stdout,
                program_error: first_err,
                ..RankOutput::empty(role)
            }
        }
        Role::Server => unreachable!(),
    }
}

/// The multi-tenant engine loop: like [`engine_loop`], but evaluation
/// errors are *contained* — recorded in `error` (first one wins) while
/// the engine keeps serving notifications and control tasks to global
/// termination, so one tenant's broken program cannot stall or abort its
/// neighbors. A dataflow deadlock at termination is only reported when no
/// earlier error explains it.
fn engine_loop_contained(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
    error: &mut Option<String>,
) {
    let note = |error: &mut Option<String>, e: String| {
        if error.is_none() {
            *error = Some(e);
        }
    };
    loop {
        loop {
            let action = ctx.borrow_mut().engine.ready.pop_front();
            match action {
                Some(a) => {
                    if let Err(e) = interp.eval(&a) {
                        note(error, format!("rule action failed: {e}"));
                    }
                }
                None => break,
            }
        }
        if let Err(e) = flush_before_get(ctx, stream) {
            note(error, format!("data operation failed: {e}"));
        }
        let task = ctx
            .borrow_mut()
            .client
            .get(&[adlb::WORK_TYPE_CONTROL, adlb::WORK_TYPE_NOTIFY]);
        match task {
            None => {
                let c = ctx.borrow();
                if let Some(reason) = c.client.run_aborted() {
                    note(error, format!("run aborted: {reason}"));
                    return;
                }
                let waiting = c.engine.rules_waiting();
                if waiting > 0 && error.is_none() {
                    let mut msg = format!(
                        "dataflow deadlock: {waiting} rule(s) never fired; \
                         some futures were never assigned"
                    );
                    for report in c.client.quarantine_reports() {
                        msg.push_str("\n  ");
                        msg.push_str(report);
                    }
                    *error = Some(msg);
                }
                return;
            }
            Some(t) if t.work_type == adlb::WORK_TYPE_NOTIFY => {
                if let Err(e) = ctx.borrow_mut().notified(&t.payload) {
                    note(error, e.to_string());
                }
            }
            Some(t) => match std::str::from_utf8(&t.payload) {
                Ok(code) => {
                    if let Err(e) = interp.eval(code) {
                        note(error, format!("control task failed: {e}"));
                    }
                }
                Err(_) => note(error, "non-UTF-8 control task".to_string()),
            },
        }
    }
}

/// The engine loop: drain locally ready actions, then take the next
/// control task or data-close notification until global termination.
///
/// Writes are flushed and answered before the next get (see
/// [`flush_before_get`]); the output produced so far streams to the
/// server tier with them.
pub fn engine_loop(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
) -> Result<(), tclish::TclError> {
    loop {
        // Drain everything ready to run on this engine.
        loop {
            let action = ctx.borrow_mut().engine.ready.pop_front();
            match action {
                Some(a) => {
                    interp.eval(&a)?;
                }
                None => break,
            }
        }
        // No write stays queued across a get: the fragments' writes (and
        // stdout) leave now, and a failed one ends the run here rather
        // than as a hang on a future that never closes.
        flush_before_get(ctx, stream)?;
        let task = ctx
            .borrow_mut()
            .client
            .get(&[adlb::WORK_TYPE_CONTROL, adlb::WORK_TYPE_NOTIFY]);
        match task {
            None => {
                let c = ctx.borrow();
                // An aborted run (a server died with no replica to
                // promote) may look "complete" to the engine — tasks
                // that died with the shard leave no unfired rule behind.
                // The shutdown notice carries the diagnosis; fail the
                // run with it instead of reporting partial output as
                // success.
                if let Some(reason) = c.client.run_aborted() {
                    return Err(tclish::TclError::new(format!("run aborted: {reason}")));
                }
                // Global termination with rules still waiting means their
                // input futures can never close: a dataflow deadlock in
                // the user program (e.g. reading a never-assigned
                // variable, or a task quarantined after repeated
                // failures). Report it like Swift/T does, with the
                // server's quarantine reports when there are any.
                let waiting = c.engine.rules_waiting();
                if waiting > 0 {
                    let mut msg = format!(
                        "dataflow deadlock: {waiting} rule(s) never fired; \
                         some futures were never assigned"
                    );
                    for report in c.client.quarantine_reports() {
                        msg.push_str("\n  ");
                        msg.push_str(report);
                    }
                    return Err(tclish::TclError::new(msg));
                }
                return Ok(());
            }
            Some(t) if t.work_type == adlb::WORK_TYPE_NOTIFY => {
                // A notification that does not decode names no datum: the
                // rules waiting on it could never fire, so the run fails
                // here rather than as a dataflow deadlock at the end.
                let notified = ctx.borrow_mut().notified(&t.payload);
                notified.map_err(|e| tclish::TclError::new(e.to_string()))?;
            }
            Some(t) => {
                let code = std::str::from_utf8(&t.payload)
                    .map_err(|_| tclish::TclError::new("non-UTF-8 control task"))?;
                interp.eval(code)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    /// Run a whole machine; returns concatenated stdout (rank order) and
    /// the per-rank outputs.
    pub fn run_machine(
        size: usize,
        config: TurbineConfig,
        program: TurbineProgram,
    ) -> (String, Vec<RankOutput>) {
        let outs = World::run(size, move |comm| run_rank(comm, &config, &program));
        let stdout = outs
            .iter()
            .map(|o| o.stdout.as_str())
            .collect::<Vec<_>>()
            .join("");
        (stdout, outs)
    }

    #[test]
    fn hello_world_from_main() {
        let (stdout, outs) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "puts {hello distributed world}".into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "hello distributed world\n");
        assert_eq!(outs[2].role, Role::Server);
    }

    #[test]
    fn work_task_runs_on_worker() {
        let (_, outs) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "turbine::spawn work 0 {puts {from worker}}".into(),
                args: Vec::new(),
            },
        );
        assert_eq!(outs[1].role, Role::Worker);
        assert_eq!(outs[1].stdout, "from worker\n");
        assert_eq!(outs[1].tasks_executed, 1);
    }

    #[test]
    fn dataflow_pipeline_end_to_end() {
        // x -> f(x) on a worker -> printed by a trace rule on the engine.
        let main = r#"
            set x [turbine::unique]; turbine::create $x integer
            set y [turbine::unique]; turbine::create $y integer
            turbine::rule [list $x] "swt:double_task $y $x" work
            turbine::rule [list $y] "swt:trace_body {integer} $y" control
            turbine::store_integer $x 21
        "#;
        let preamble = r#"
            proc swt:double_task {o i} {
                turbine::store_integer $o [expr {2 * [turbine::retrieve_integer $i]}]
            }
        "#;
        let (stdout, outs) = run_machine(
            4,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: preamble.into(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "trace: 42\n");
        let total_tasks: u64 = outs.iter().map(|o| o.tasks_executed).sum();
        assert_eq!(total_tasks, 1);
        assert!(outs[0].rules_fired >= 2);
    }

    #[test]
    fn range_foreach_distributes_chunks() {
        // Sum of squares over [1..32] via distributed chunks feeding a
        // container, printed when the container closes.
        let preamble = r#"
            proc loop_body {i idx c} {
                set t [turbine::unique]; turbine::create $t integer
                turbine::write_refcount_incr $c 1
                swt:container_deferred_insert $c $i $t integer
                turbine::rule {} "swt:square_task $t $i" work
            }
            proc swt:square_task {o i} {
                turbine::store_integer $o [expr {$i * $i}]
            }
            proc report {k v} { }
        "#;
        let main = r#"
            set c [turbine::unique]; turbine::create $c container
            swt:range_foreach loop_body [list $c] [list $c] 1 32 4
            turbine::container_close $c
            turbine::rule [list $c] "print_sum $c" control
            proc print_sum {c} {
                set total 0
                foreach v [turbine::container_values $c] { incr total $v }
                puts "sum=$total"
            }
        "#;
        let (stdout, outs) = run_machine(
            6,
            TurbineConfig {
                engines: 2,
                ..TurbineConfig::default()
            },
            TurbineProgram {
                preamble: preamble.into(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        // 1^2 + ... + 32^2 = 32*33*65/6 = 11440.
        assert_eq!(stdout, "sum=11440\n");
        let tasks: u64 = outs.iter().map(|o| o.tasks_executed).sum();
        assert_eq!(tasks, 32, "one leaf task per iteration");
    }

    #[test]
    fn multiple_workers_share_leaf_tasks() {
        let main = r#"
            for {set i 0} {$i < 40} {incr i} {
                # Enough work per task that one early worker cannot drain
                # the whole batch before the others have started.
                turbine::spawn work 0 "for {set k 0} {\$k < 2000} {incr k} {}; puts task-$i"
            }
        "#;
        let (stdout, outs) = run_machine(
            7,
            TurbineConfig {
                servers: 2,
                ..TurbineConfig::default()
            },
            TurbineProgram {
                preamble: String::new(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        let lines = stdout.lines().count();
        assert_eq!(lines, 40);
        let busy_workers = outs
            .iter()
            .filter(|o| o.role == Role::Worker && o.tasks_executed > 0)
            .count();
        assert!(
            busy_workers >= 2,
            "load balancing must involve more than one worker, got {busy_workers}"
        );
    }

    #[test]
    fn python_leaf_through_dataflow() {
        let main = r#"
            set code [turbine::unique]; turbine::create $code string
            set sexpr [turbine::unique]; turbine::create $sexpr string
            set out [turbine::unique]; turbine::create $out string
            swt:python $out $code $sexpr
            turbine::rule [list $out] "swt:trace_body {string} $out" control
            turbine::store_string $code {n = 10
result = sum(range(n))}
            turbine::store_string $sexpr {result}
        "#;
        let (stdout, _) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "trace: 45\n");
    }

    #[test]
    #[should_panic(expected = "program main failed")]
    fn main_error_panics_cleanly() {
        run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "no_such_command_anywhere".into(),
                args: Vec::new(),
            },
        );
    }

    #[test]
    fn two_tenants_isolate_procs_and_output() {
        // Both programs define a proc `who` with conflicting bodies and
        // run it on the shared workers: per-tenant interpreters must keep
        // the definitions apart, and every output line must be accounted
        // to the right tenant.
        use adlb::TenantSpec;
        let programs = vec![
            (
                TenantSpec::new(0, "alpha"),
                TurbineProgram {
                    preamble: "proc who {} { return alpha }".into(),
                    main: r#"
                        for {set i 0} {$i < 6} {incr i} {
                            turbine::spawn work 0 {puts [who]}
                        }
                    "#
                    .into(),
                    args: Vec::new(),
                },
            ),
            (
                TenantSpec::new(1, "beta").weight(2),
                TurbineProgram {
                    preamble: "proc who {} { return beta }".into(),
                    main: r#"
                        for {set i 0} {$i < 6} {incr i} {
                            turbine::spawn work 0 {puts [who]}
                        }
                    "#
                    .into(),
                    args: Vec::new(),
                },
            ),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(6, move |comm| run_rank_tenants(comm, &config, &programs));
        let mut per_tenant = [String::new(), String::new()];
        for o in &outs {
            assert!(o.program_error.is_none(), "{:?}", o.program_error);
            for (t, s) in &o.tenant_stdout {
                per_tenant[*t as usize].push_str(s);
            }
        }
        assert_eq!(per_tenant[0], "alpha\n".repeat(6));
        assert_eq!(per_tenant[1], "beta\n".repeat(6));
        // The server accounted both tenants.
        let rows = &outs[5].tenant_rows;
        assert_eq!(rows.len(), 2);
        for (_, r) in rows {
            assert!(r.delivered >= 6);
        }
    }

    #[test]
    fn tenant_failure_is_contained_to_its_program() {
        use adlb::TenantSpec;
        let programs = vec![
            (
                TenantSpec::new(0, "broken"),
                TurbineProgram {
                    preamble: String::new(),
                    main: "error {deliberate failure}".into(),
                    args: Vec::new(),
                },
            ),
            (
                TenantSpec::new(1, "healthy"),
                TurbineProgram {
                    preamble: String::new(),
                    main: "turbine::spawn work 0 {puts survived}".into(),
                    args: Vec::new(),
                },
            ),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(5, move |comm| run_rank_tenants(comm, &config, &programs));
        let broken = &outs[0];
        assert!(broken
            .program_error
            .as_deref()
            .is_some_and(|e| e.contains("deliberate failure")));
        let healthy: String = outs
            .iter()
            .flat_map(|o| o.tenant_stdout.iter())
            .filter(|(t, _)| *t == 1)
            .map(|(_, s)| s.clone())
            .collect();
        assert_eq!(healthy, "survived\n");
        assert!(outs[1].program_error.is_none());
    }

    /// Engine 0 waits on a future nobody stores while rank 1 sends it a
    /// 3-byte close notification. Returns the error the engine loop — the
    /// contained one or not — ended with.
    fn engine_meets_a_malformed_notification(contained: bool) -> Option<String> {
        let config = TurbineConfig::default();
        let layout = config.layout(3);
        let out = World::run(3, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                adlb::serve(comm, layout, ServerConfig::default());
                return None;
            }
            let mut client = AdlbClient::with_config(comm, layout, config.client_config());
            if rank == 1 {
                client.put(adlb::WORK_TYPE_NOTIFY, 0, Some(0), vec![1, 2, 3]);
                client.finish();
                return None;
            }
            let ctx = Ctx::new(client, true, config.policy);
            let (mut interp, buf, _) = build_interp(&ctx, &config, 3, "", &|_: &mut Interp| {});
            interp
                .eval("set x [turbine::unique]; turbine::create $x integer; turbine::rule [list $x] {puts never} control")
                .unwrap();
            let mut stream = OutputStreamer::new(buf);
            let error = if contained {
                let mut error = None;
                engine_loop_contained(&mut interp, &ctx, &mut stream, &mut error);
                error
            } else {
                engine_loop(&mut interp, &ctx, &mut stream)
                    .err()
                    .map(|e| e.message)
            };
            // The failed loop stopped serving; let the world wind down.
            ctx.borrow_mut().client.finish();
            Some(error)
        });
        out.into_iter().flatten().next().flatten()
    }

    #[test]
    fn a_malformed_notification_fails_the_engine_naming_its_length() {
        for contained in [false, true] {
            let err = engine_meets_a_malformed_notification(contained);
            assert_eq!(
                err.as_deref(),
                Some("malformed close notification (3 bytes)"),
                "contained: {contained}"
            );
        }
    }

    /// A worker stores w, x, y and z, each waited on by a rule on the
    /// engine. The rule x's notification fires stores x again and then
    /// runs `then`, while the notifications of y and z still wait in the
    /// prefetch (w's may have been handed to the parked engine alone).
    /// The refused store must fail the run however the engine's writes
    /// and acks are batched.
    fn engine_double_stores(then: &str) {
        let main = format!(
            r#"
            set w [turbine::unique]; turbine::create $w integer
            set x [turbine::unique]; turbine::create $x integer
            set y [turbine::unique]; turbine::create $y integer
            set z [turbine::unique]; turbine::create $z integer
            turbine::rule [list $w] "puts w" control
            turbine::rule [list $x] "turbine::store_integer $x 2{then}" control
            turbine::rule [list $y] "puts y" control
            turbine::rule [list $z] "puts z" control
            turbine::spawn work 0 "turbine::store_integer $w 1; turbine::store_integer $x 1; turbine::store_integer $y 1; turbine::store_integer $z 1"
            "#
        );
        run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main,
                args: Vec::new(),
            },
        );
    }

    #[test]
    #[should_panic(expected = "double assignment")]
    fn an_engines_own_double_assignment_still_fails_the_run() {
        engine_double_stores("");
    }

    #[test]
    #[should_panic(expected = "double assignment")]
    fn an_engines_double_assignment_before_a_put_still_fails_the_run() {
        engine_double_stores("; turbine::spawn work 0 {puts leaf}");
    }

    #[test]
    fn roles_assigned_as_documented() {
        let cfg = TurbineConfig {
            servers: 2,
            engines: 2,
            ..TurbineConfig::default()
        };
        assert_eq!(cfg.role(8, 0), Role::Engine);
        assert_eq!(cfg.role(8, 1), Role::Engine);
        assert_eq!(cfg.role(8, 2), Role::Worker);
        assert_eq!(cfg.role(8, 5), Role::Worker);
        assert_eq!(cfg.role(8, 6), Role::Server);
        assert_eq!(cfg.role(8, 7), Role::Server);
    }
}
