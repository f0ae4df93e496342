//! Per-rank driver: role assignment, program startup, engine loop, output
//! collection.
//!
//! This is the analogue of `turbine::start`: given compiled programs (each
//! a preamble of proc definitions + a main body), each rank takes its role
//! from the layout (Fig. 2) and runs to global termination. Every program
//! is a tenant of the world; a lone program is tenant 0 and owns every
//! engine, and N programs share the worker and server fleet with engine
//! rank `r` serving program `r mod N`.

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
    /// Number of engine ranks (at the bottom of the rank space), at least
    /// one per program. Engine `r` serves program `r mod N` and evaluates
    /// that program's main when `r < N`.
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

    /// Validate against a world size and a program count: need at least
    /// one program, an engine per program, and a worker if any leaf tasks
    /// are to run.
    pub fn validate(&self, size: usize, programs: usize) {
        let clients = size - self.servers;
        assert!(
            programs >= 1 && self.engines >= programs,
            "need at least one engine per program ({} engines, {programs} programs)",
            self.engines
        );
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
    /// The program body; evaluated once, by the engine whose rank is the
    /// program's position in the run.
    pub main: String,
    /// Program arguments, readable via `turbine::argv` / Swift `argv()`.
    pub args: Vec<(String, String)>,
}

/// What one rank reports after the run.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// The role this rank played.
    pub role: Role,
    /// Everything the rank's interpreters wrote via `puts` (and embedded
    /// interpreter output): [`RankOutput::tenant_stdout`] concatenated in
    /// tenant order.
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
    /// Per-tenant scheduling/admission accounting (servers only).
    pub tenant_rows: Vec<(u32, TenantStats)>,
    /// Per-tenant stdout captured locally on this rank (engines and
    /// workers), in tenant order.
    pub tenant_stdout: Vec<(u32, String)>,
    /// The first program error this rank contained, as `tenant <id>:
    /// <error>` (only when several programs share the world; a lone
    /// program's errors panic it instead).
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

/// Run one rank of a machine to global termination. `programs[i]` runs
/// as tenant `programs[i].0.id`; a lone program is
/// `[(TenantSpec::new(0, "main"), program)]`. Engine rank `r` serves
/// program `r % programs.len()` and evaluates its main only when
/// `r < programs.len()`; the workers and servers are shared by every
/// program.
///
/// `setup` customizes each engine/worker interpreter after the
/// `turbine::*` commands are registered — this is where the host attaches
/// native libraries (the SWIG path of §III.B) and extra in-memory Tcl
/// packages.
///
/// # Panics
/// A lone program's errors panic (poisoning the world so other ranks fail
/// fast rather than hanging). Beside other programs, each program's
/// failures are contained to its own tasks and reported in
/// [`RankOutput::program_error`], so one broken program cannot take its
/// neighbors down.
pub fn run_rank(
    comm: Comm,
    config: &TurbineConfig,
    programs: &[(TenantSpec, TurbineProgram)],
    setup: impl Fn(&mut Interp),
) -> RankOutput {
    let size = comm.size();
    config.validate(size, programs.len());
    let rank = comm.rank();
    let role = config.role(size, rank);
    let layout = config.layout(size);

    if role == Role::Server {
        let server = ServerConfig {
            tenants: programs.iter().map(|(s, _)| s.clone()).collect(),
            ..config.server.clone()
        };
        let outcome = adlb::serve_ext(comm, layout, server);
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
    // The runtime library plus a program's own definitions are an
    // in-memory "static package" (§IV): no filesystem involved.
    let build = |preamble: &str| build_interp(&ctx, config, size, preamble, &setup);
    let (tenant_stdout, program_error) = if role == Role::Engine {
        run_engine(&ctx, rank, programs, build)
    } else {
        let mut opened = Vec::new();
        let mut first_err = None;
        worker::worker_loop(&ctx, programs, &mut |tenant, preamble| {
            let (interp, buf, err) = build(preamble);
            if first_err.is_none() {
                first_err = err.map(|e| format!("tenant {tenant}: {e}"));
            }
            opened.push((tenant, buf.clone()));
            (interp, OutputStreamer::new(buf))
        });
        opened.sort_by_key(|(t, _)| *t);
        let stdout = opened.into_iter().map(|(t, b)| (t, b.take())).collect();
        (stdout, first_err)
    };
    let c = ctx.borrow();
    RankOutput {
        stdout: tenant_stdout.iter().map(|(_, s)| s.as_str()).collect(),
        tasks_executed: c.tasks_executed,
        tasks_failed: c.tasks_failed,
        rules_created: c.engine.rules_created,
        rules_fired: c.engine.rules_fired,
        interp_inits: c.interp_inits,
        tenant_stdout,
        program_error,
        ..RankOutput::empty(role)
    }
}

/// Drive engine `rank`: build the interpreter of the program it serves,
/// evaluate that program's main when this rank owns it, and serve
/// notifications and control tasks to global termination. Returns the
/// engine's stdout under its tenant and the error a shared sink contained.
fn run_engine(
    ctx: &SharedCtx,
    rank: Rank,
    programs: &[(TenantSpec, TurbineProgram)],
    build: impl Fn(&str) -> (Interp, Rc<RefCell<String>>, Option<String>),
) -> (Vec<(u32, String)>, Option<String>) {
    let (spec, program) = &programs[rank % programs.len()];
    {
        let mut c = ctx.borrow_mut();
        c.args = program.args.iter().cloned().collect();
        c.client.set_tenant(spec.id);
        c.client.set_get_filter(Some(spec.id));
    }
    let (mut interp, buf, preamble_err) = build(&program.preamble);
    let mut stream = OutputStreamer::new(buf.clone());
    let mut sink = ErrorSink::for_programs(programs.len());
    // A broken preamble skips main; a shared engine still serves its
    // notifications to termination so the rest of the world is undisturbed.
    let started = match preamble_err {
        Some(e) => sink.take(Err(e)),
        None if rank < programs.len() => sink.take(
            interp
                .eval_once(&program.main)
                .and_then(|_| flush_writes(ctx))
                .map_err(|e| format!("program main failed: {e}")),
        ),
        None => Ok(()),
    };
    let served = started.and_then(|()| engine_loop(&mut interp, ctx, &mut stream, &mut sink));
    if let Err(e) = served {
        panic!("engine {rank} failed: {e}");
    }
    let stdout = buf.take();
    let error = sink.first().map(|e| format!("tenant {}: {e}", spec.id));
    (vec![(spec.id, stdout)], error)
}

/// Send everything the fragment just evaluated left in the client's
/// outbox; a write that failed surfaces here with its original message.
fn flush_writes(ctx: &SharedCtx) -> Result<(), tclish::TclError> {
    let flushed = ctx.borrow_mut().client.flush();
    flushed.map_err(|e| tclish::TclError::new(e.to_string()))
}

/// Build one engine/worker interpreter: `turbine::*` commands, the host
/// `setup` hook, the runtime library, and `preamble`. A preamble error is
/// returned (not panicked) so it can be contained to the offending
/// program.
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
        if let Err(e) = interp.eval_once(preamble) {
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

/// Where an engine sends its program's errors, chosen from the program
/// count. A lone program fails fast: the error comes back out of
/// [`ErrorSink::take`] and the driver panics the world with it. Beside
/// other programs the first error is kept and the engine serves on to
/// global termination, so one broken program cannot stall or abort its
/// neighbors.
enum ErrorSink {
    Lone,
    Shared(Option<String>),
}

impl ErrorSink {
    fn for_programs(n: usize) -> Self {
        if n == 1 {
            ErrorSink::Lone
        } else {
            ErrorSink::Shared(None)
        }
    }

    /// Send `outcome` to the sink: an error ends a lone engine's loop, a
    /// shared sink records the first one and lets the loop carry on.
    fn take(&mut self, outcome: Result<(), String>) -> Result<(), String> {
        match (self, outcome) {
            (ErrorSink::Shared(first), Err(e)) => {
                first.get_or_insert(e);
                Ok(())
            }
            (_, outcome) => outcome,
        }
    }

    /// Whether no error has been recorded.
    fn is_clear(&self) -> bool {
        !matches!(self, ErrorSink::Shared(Some(_)))
    }

    /// The error a shared sink recorded.
    fn first(self) -> Option<String> {
        match self {
            ErrorSink::Shared(first) => first,
            ErrorSink::Lone => None,
        }
    }
}

/// The engine loop: drain locally ready actions, then take the next
/// control task or data-close notification until global termination.
/// Every error goes to `sink`, which decides whether it ends the loop.
///
/// The engine's writes are its program's (`AdlbClient::own_writes`): those
/// of every prefetched task wait in the outbox beside their acks and the
/// output produced so far, and leave in one answered batch when the get
/// next goes to the server. A write the server refused comes back in that
/// answer and is taken after the get, before the deadlock diagnosis.
fn engine_loop(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
    sink: &mut ErrorSink,
) -> Result<(), String> {
    loop {
        // Drain everything ready to run on this engine.
        loop {
            let action = ctx.borrow_mut().engine.ready.pop_front();
            let Some(a) = action else { break };
            let fired = interp.eval_once(&a).map(drop);
            sink.take(fired.map_err(|e| format!("rule action failed: {e}")))?;
        }
        let (task, refused) = {
            let c = &mut ctx.borrow_mut().client;
            stream.ship(c);
            let task = c.get(&[adlb::WORK_TYPE_CONTROL, adlb::WORK_TYPE_NOTIFY]);
            (task, c.take_deferred())
        };
        // A refused write ends the run here rather than as a hang on a
        // future that never closes, or as a deadlock it explains.
        sink.take(refused.map_err(|e| format!("data operation failed: {e}")))?;
        let Some(t) = task else {
            let c = ctx.borrow();
            // An aborted run (a server died with no replica to promote)
            // may look "complete" to the engine — tasks that died with the
            // shard leave no unfired rule behind. The shutdown notice
            // carries the diagnosis; fail the run with it instead of
            // reporting partial output as success.
            if let Some(reason) = c.client.run_aborted() {
                return sink.take(Err(format!("run aborted: {reason}")));
            }
            // Global termination with rules still waiting means their
            // input futures can never close: a dataflow deadlock in the
            // user program (e.g. reading a never-assigned variable, or a
            // task quarantined after repeated failures). Report it like
            // Swift/T does, with the server's quarantine reports when
            // there are any — unless an earlier error already explains it.
            let waiting = c.engine.rules_waiting();
            if waiting > 0 && sink.is_clear() {
                let mut msg = format!(
                    "dataflow deadlock: {waiting} rule(s) never fired; \
                     some futures were never assigned"
                );
                for report in c.client.quarantine_reports() {
                    msg.push_str("\n  ");
                    msg.push_str(report);
                }
                return sink.take(Err(msg));
            }
            return Ok(());
        };
        let outcome = if t.work_type == adlb::WORK_TYPE_NOTIFY {
            // A notification that does not decode names no datum: the
            // rules waiting on it could never fire, so it is an error here
            // rather than a dataflow deadlock at the end.
            let notified = ctx.borrow_mut().notified(&t.payload);
            notified.map_err(|e| e.to_string())
        } else {
            match std::str::from_utf8(&t.payload) {
                Ok(code) => interp
                    .eval_once(code)
                    .map(drop)
                    .map_err(|e| format!("control task failed: {e}")),
                Err(_) => Err("non-UTF-8 control task".to_string()),
            }
        };
        sink.take(outcome)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    fn program(preamble: &str, main: &str) -> TurbineProgram {
        TurbineProgram {
            preamble: preamble.into(),
            main: main.into(),
            args: Vec::new(),
        }
    }

    /// Run a whole machine on a lone program; returns concatenated stdout
    /// (rank order) and the per-rank outputs.
    pub fn run_machine(
        size: usize,
        config: TurbineConfig,
        program: TurbineProgram,
    ) -> (String, Vec<RankOutput>) {
        let programs = [(TenantSpec::new(0, "main"), program)];
        let outs = World::run(size, move |comm| run_rank(comm, &config, &programs, |_| {}));
        let stdout = outs
            .iter()
            .map(|o| o.stdout.as_str())
            .collect::<Vec<_>>()
            .join("");
        (stdout, outs)
    }

    #[test]
    fn hello_world_from_main() {
        let hello = program("", "puts {hello distributed world}");
        let (stdout, outs) = run_machine(3, TurbineConfig::default(), hello);
        assert_eq!(stdout, "hello distributed world\n");
        assert_eq!(outs[2].role, Role::Server);
    }

    #[test]
    fn work_task_runs_on_worker() {
        let spawn = program("", "turbine::spawn work 0 {puts {from worker}}");
        let (_, outs) = run_machine(3, TurbineConfig::default(), spawn);
        assert_eq!(outs[1].role, Role::Worker);
        assert_eq!(outs[1].stdout, "from worker\n");
        assert_eq!(outs[1].tasks_executed, 1);
    }

    /// x -> f(x) on a worker -> printed by a trace rule on the engine.
    fn doubling() -> TurbineProgram {
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
        program(preamble, main)
    }

    #[test]
    fn dataflow_pipeline_end_to_end() {
        let (stdout, outs) = run_machine(4, TurbineConfig::default(), doubling());
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
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let (stdout, outs) = run_machine(6, config, program(preamble, main));
        // 1^2 + ... + 32^2 = 32*33*65/6 = 11440.
        assert_eq!(stdout, "sum=11440\n");
        let tasks: u64 = outs.iter().map(|o| o.tasks_executed).sum();
        assert_eq!(tasks, 32, "one leaf task per iteration");
    }

    #[test]
    fn an_auto_chunk_is_at_most_range_chunk_max_iterations() {
        // One engine: n / 4 iterations per chunk, capped at 64. The body
        // makes no task, so the server sees only the chunks.
        for (n, chunks) in [(1_000, 16), (32, 4)] {
            let main = format!("swt:range_foreach body {{}} {{}} 1 {n} auto");
            let body = program("proc body {i idx} { puts $i }", &main);
            let (stdout, outs) = run_machine(3, TurbineConfig::default(), body);
            assert_eq!(stdout.lines().count(), n, "every iteration ran once");
            let stats = outs[2].server_stats.unwrap();
            assert_eq!(stats.tasks_accepted, chunks, "{n} iterations");
        }
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
        let config = TurbineConfig {
            servers: 2,
            ..TurbineConfig::default()
        };
        let (stdout, outs) = run_machine(7, config, program("", main));
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
        let (stdout, _) = run_machine(3, TurbineConfig::default(), program("", main));
        assert_eq!(stdout, "trace: 45\n");
    }

    #[test]
    #[should_panic(expected = "program main failed")]
    fn main_error_panics_cleanly() {
        let broken = program("", "no_such_command_anywhere");
        run_machine(3, TurbineConfig::default(), broken);
    }

    #[test]
    #[should_panic(expected = "program main failed: missing close-brace")]
    fn a_late_syntax_error_in_main_fails_the_run() {
        // Main streams: its first command has spawned a task by the time
        // the unclosed brace is parsed.
        let broken = program("", "turbine::spawn work 0 {puts early}\nset x {");
        run_machine(3, TurbineConfig::default(), broken);
    }

    /// Run `programs` as tenants 0, 1, ... on `size` ranks with an engine
    /// each.
    fn run_tenants(size: usize, programs: Vec<TurbineProgram>) -> Vec<RankOutput> {
        let config = TurbineConfig {
            engines: programs.len(),
            ..TurbineConfig::default()
        };
        let programs: Vec<_> = (0..)
            .zip(programs)
            .map(|(t, p)| (TenantSpec::new(t, &format!("t{t}")).weight(t + 1), p))
            .collect();
        World::run(size, move |comm| run_rank(comm, &config, &programs, |_| {}))
    }

    /// Tenant `t`'s stdout over every rank, in rank order.
    fn tenant_stdout(outs: &[RankOutput], t: u32) -> String {
        let own = outs.iter().flat_map(|o| &o.tenant_stdout);
        own.filter(|(id, _)| *id == t)
            .map(|(_, s)| s.as_str())
            .collect()
    }

    #[test]
    fn two_tenants_isolate_procs_and_output() {
        // Both programs define a proc `who` with conflicting bodies and
        // run it on the shared workers: per-tenant interpreters must keep
        // the definitions apart, and every output line must be accounted
        // to the right tenant.
        let spawn = r#"
            for {set i 0} {$i < 6} {incr i} {
                turbine::spawn work 0 {puts [who]}
            }
        "#;
        let outs = run_tenants(
            6,
            vec![
                program("proc who {} { return alpha }", spawn),
                program("proc who {} { return beta }", spawn),
            ],
        );
        for o in &outs {
            assert!(o.program_error.is_none(), "{:?}", o.program_error);
        }
        assert_eq!(tenant_stdout(&outs, 0), "alpha\n".repeat(6));
        assert_eq!(tenant_stdout(&outs, 1), "beta\n".repeat(6));
        // The server accounted both tenants.
        let rows = &outs[5].tenant_rows;
        assert_eq!(rows.len(), 2);
        for (_, r) in rows {
            assert!(r.delivered >= 6);
        }
    }

    #[test]
    fn tenant_failure_is_contained_to_its_program() {
        let outs = run_tenants(
            5,
            vec![
                program("", "error {deliberate failure}"),
                program("", "turbine::spawn work 0 {puts survived}"),
            ],
        );
        let broken = &outs[0];
        assert!(broken
            .program_error
            .as_deref()
            .is_some_and(|e| e.contains("deliberate failure")));
        assert_eq!(tenant_stdout(&outs, 1), "survived\n");
        assert!(outs[1].program_error.is_none());
    }

    /// What [`engine_world`]'s engine ended with: its loop's outcome, what
    /// its sink recorded, and its stdout.
    type EngineEnd = (Result<(), String>, Option<String>, String);

    /// A 3-rank world of engine 0, `peer` on rank 1 and the server. The
    /// engine evaluates `main` and serves to global termination under the
    /// sink of a run of `programs` programs. Returns how the engine ended
    /// and the server's stats.
    fn engine_world(
        programs: usize,
        main: &str,
        peer: impl Fn(Comm) + Sync,
    ) -> (EngineEnd, ServerStats) {
        let config = TurbineConfig::default();
        let layout = config.layout(3);
        let outs = World::run(3, |comm| match comm.rank() {
            0 => {
                let client = AdlbClient::with_config(comm, layout, config.client_config());
                let ctx = Ctx::new(client, true, config.policy);
                let (mut interp, buf, _) = build_interp(&ctx, &config, 3, "", &|_: &mut Interp| {});
                interp.eval(main).unwrap();
                let mut stream = OutputStreamer::new(buf.clone());
                let mut sink = ErrorSink::for_programs(programs);
                let ended = engine_loop(&mut interp, &ctx, &mut stream, &mut sink);
                // A loop that stopped early stopped serving; let the world
                // wind down.
                ctx.borrow_mut().client.finish();
                (Some((ended, sink.first(), buf.take())), None)
            }
            1 => {
                peer(comm);
                (None, None)
            }
            _ => (
                None,
                Some(adlb::serve(comm, layout, ServerConfig::default())),
            ),
        });
        let mut outs = outs.into_iter();
        let (engine, _) = outs.next().unwrap();
        let (_, stats) = outs.nth(1).unwrap();
        (engine.unwrap(), stats.unwrap())
    }

    #[test]
    fn a_malformed_notification_fails_the_engine_naming_its_length() {
        // Engine 0 waits on a future nobody stores while rank 1 sends it a
        // 3-byte close notification.
        let meet = |programs| {
            let main = "set x [turbine::unique]; turbine::create $x integer; turbine::rule [list $x] {puts never} control";
            let ((ended, recorded, _), _) = engine_world(programs, main, |comm| {
                let mut client = AdlbClient::new(comm, Layout::new(3, 1));
                client.put(adlb::WORK_TYPE_NOTIFY, 0, Some(0), vec![1, 2, 3]);
                client.finish();
            });
            (ended, recorded)
        };
        let err = "malformed close notification (3 bytes)".to_string();
        // Alone, the loop returns the error (the driver panics with it).
        assert_eq!(meet(1), (Err(err.clone()), None));
        // Shared, the sink records it and the loop serves on to
        // termination — where the unfired rule is not reported again.
        assert_eq!(meet(2), (Ok(()), Some(err)));
    }

    /// A worker stores w, x, y and z, each waited on by a rule on the
    /// engine. The rule x's notification fires stores x again and then
    /// runs `then`, while the notifications of y and z still wait in the
    /// prefetch (w's may have been handed to the parked engine alone).
    fn double_stores(then: &str) -> TurbineProgram {
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
        program("", &main)
    }

    #[test]
    #[should_panic(expected = "double assignment")]
    fn an_engines_own_double_assignment_still_fails_the_run() {
        run_machine(3, TurbineConfig::default(), double_stores(""));
    }

    #[test]
    #[should_panic(expected = "double assignment")]
    fn an_engines_double_assignment_before_a_put_still_fails_the_run() {
        let then = "; turbine::spawn work 0 {puts leaf}";
        run_machine(3, TurbineConfig::default(), double_stores(then));
    }

    #[test]
    fn prefetched_notifications_share_a_batch_and_a_refused_write_fails_no_lease() {
        // As in `double_stores`, w's notification may come alone, and x's,
        // y's and z's as one prefetched batch. The rules of x and z store a
        // fresh datum and y's stores y again, so y's refusal sits between
        // two good writes. z's rule prints only if it fired before the
        // answer to y's store came back: their writes left in one batch.
        let main = r#"
            foreach v {w x y z a b} { set $v [turbine::unique]; turbine::create [set $v] integer }
            turbine::rule [list $w] "puts w" control
            turbine::rule [list $x] "turbine::store_integer $a 1" control
            turbine::rule [list $y] "turbine::store_integer $y 2" control
            turbine::rule [list $z] "turbine::store_integer $b 3; puts z" control
            turbine::spawn work 0 "turbine::store_integer $w 1; turbine::store_integer $x 1; turbine::store_integer $y 1; turbine::store_integer $z 1"
        "#;
        let worker = |comm| {
            let programs = [(TenantSpec::new(0, "main"), TurbineProgram::default())];
            run_rank(comm, &TurbineConfig::default(), &programs, |_| {});
        };
        let ((ended, _, stdout), stats) = engine_world(1, main, worker);
        let err = ended.unwrap_err();
        assert!(err.contains("double assignment"), "{err}");
        assert_eq!(
            stdout, "w\nz\n",
            "z's rule fired before y's store was answered"
        );
        // The refusal was the program's: no notification was retried.
        assert_eq!(stats.tasks_retried, 0);
    }

    #[test]
    #[should_panic(expected = "double assignment")]
    fn a_double_assignment_in_the_last_rule_is_not_reported_as_a_deadlock() {
        // The refusal comes back with the get that then waits for global
        // termination, where the rule over y (never stored) would read as
        // a dataflow deadlock.
        let main = r#"
            set x [turbine::unique]; turbine::create $x integer
            set y [turbine::unique]; turbine::create $y integer
            turbine::rule [list $x] "turbine::store_integer $x 2" control
            turbine::rule [list $y] "puts never" control
            turbine::spawn work 0 "turbine::store_integer $x 1"
        "#;
        run_machine(3, TurbineConfig::default(), program("", main));
    }

    #[test]
    fn a_tenants_refused_write_is_its_own_and_its_neighbor_runs_as_if_alone() {
        let (solo, _) = run_machine(3, TurbineConfig::default(), doubling());
        let outs = run_tenants(5, vec![double_stores(""), doubling()]);
        let err = outs[0].program_error.clone().unwrap_or_default();
        assert!(
            err.starts_with("tenant 0: ") && err.contains("double assignment"),
            "{err}"
        );
        assert!(outs[1..].iter().all(|o| o.program_error.is_none()));
        assert_eq!(tenant_stdout(&outs, 1), solo);
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
