//! The runtime: configure a simulated machine, compile Swift, run it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use adlb::{merge_tenant_rows, TenantQuota, TenantSpec, TenantStats};
use mpisim::{FaultPlan, LatencyStats, World};
use pfs::{Pfs, PfsConfig};
use tclish::PackageInit;
use turbine::{InterpPolicy, TurbineConfig, TurbineProgram};

use crate::native::NativeLibrary;
use crate::result::{tenant_task_durations, LatencyReport, RunResult, SwiftTError, TenantReport};

/// One queued tenant program (see [`Runtime::submit`]).
#[derive(Clone)]
struct TenantJob {
    name: String,
    weight: u32,
    quota: Option<TenantQuota>,
    source: String,
}

/// A configured simulated machine that can run Swift programs.
///
/// Builder-style: pick rank counts and policies, register native
/// libraries and Tcl packages, then [`Runtime::run`]. The machine's
/// shape and tunables live in one [`TurbineConfig`]; only the
/// replication default and the checkpoint tier are resolved per run.
#[derive(Clone)]
pub struct Runtime {
    ranks: usize,
    config: TurbineConfig,
    replication: Option<usize>,
    checkpoint: Option<usize>,
    resume: bool,
    checkpoint_store: Option<Arc<Pfs>>,
    faults: FaultPlan,
    tracing: bool,
    natives: Vec<NativeLibrary>,
    tcl_packages: Vec<(String, String, String)>,
    args: Vec<(String, String)>,
    tenants: Vec<TenantJob>,
}

impl Runtime {
    /// A machine with `ranks` ranks: 1 engine, 1 ADLB server, and the rest
    /// workers — the paper's "vast majority of processes are workers"
    /// shape scaled down. A shape without an engine, a worker and a
    /// server fails the run with [`SwiftTError::Config`].
    pub fn new(ranks: usize) -> Self {
        Runtime {
            ranks,
            config: TurbineConfig::default(),
            replication: None,
            checkpoint: None,
            resume: false,
            checkpoint_store: None,
            faults: FaultPlan::new(),
            tracing: false,
            natives: Vec::new(),
            tcl_packages: Vec::new(),
            args: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// Set the number of ADLB servers.
    pub fn servers(mut self, n: usize) -> Self {
        self.config.servers = n;
        self
    }

    /// Set the number of engines. A run of N programs gets at least N;
    /// engine rank `r` serves program `r mod N`.
    pub fn engines(mut self, n: usize) -> Self {
        self.config.engines = n;
        self
    }

    /// Set the §III.C interpreter policy.
    pub fn policy(mut self, p: InterpPolicy) -> Self {
        self.config.policy = p;
        self
    }

    /// Enable/disable ADLB work stealing (ablation switch).
    pub fn work_stealing(mut self, on: bool) -> Self {
        self.config.server.steal_enabled = on;
        self
    }

    /// Enable/disable client-side wire batching — get prefetch and put
    /// pipelining (ablation switch E5). On by default; off recovers the
    /// PR 1 one-task-per-round-trip protocol.
    pub fn batching(mut self, on: bool) -> Self {
        self.config.batching = on;
        self
    }

    /// Copies of each ADLB server's recoverable state (data-store shard,
    /// queues, leases), counting the primary. With `r >= 2` the run
    /// survives the death of `r - 1` servers: a ring successor promotes
    /// the replica and serves the dead server's shard and clients. `1`
    /// disables replication (a dead server's shard is lost and the run
    /// winds down with a diagnosis). Default: 2 when the machine has more
    /// than one server, else 1. A run with `r` of 0 or above the server
    /// count fails with [`SwiftTError::Config`].
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = Some(r);
        self
    }

    /// Enable/disable post-failover re-replication (ablation switch).
    /// On (the default), a survivor that promotes a dead server's shard
    /// streams the missing replica state to the recomputed ring
    /// successors in bounded chunks, restoring the replication factor
    /// mid-run — so a later server death (after the sync completes) is
    /// also survivable. Off recovers the PR 3 behavior: the ring shrinks
    /// and R stays degraded until the run ends.
    pub fn re_replication(mut self, on: bool) -> Self {
        self.config.server.re_replicate = on;
        self
    }

    /// Enable the durable checkpoint/WAL tier: every server appends its
    /// shard mutations to a write-ahead log on the simulated parallel
    /// filesystem, flushed every `interval` logged operations and
    /// compacted into a checkpoint segment whenever the log written since
    /// the last segment has grown as large as that segment (so the tier's
    /// cost stays linear in the work done). While the tier is
    /// on, a shard that loses *all* its in-memory holders (even with
    /// `replication(1)`) is restored from the filesystem instead of
    /// aborting the run. `0` disables the tier; `1` flushes per logged op
    /// (the per-task-logging worst case). Default: off, unless
    /// [`Runtime::resume`] turns it on at the default interval.
    pub fn checkpoint(mut self, interval: usize) -> Self {
        self.checkpoint = Some(interval);
        self
    }

    /// Resume a previous run from its durable checkpoints: at startup
    /// every server restores its shard from the checkpoint store before
    /// serving (servers whose shard was subsumed into a peer's checkpoint
    /// follow the redirect and carve their part back out). Needs the
    /// checkpoint tier, which it turns on at the default interval unless
    /// [`Runtime::checkpoint`] set one (`checkpoint(0)` with resume fails
    /// with [`SwiftTError::Config`]), and a [`Runtime::checkpoint_store`]
    /// holding the previous run's state — with a fresh store this is a
    /// no-op and the run starts empty. Replayed client requests dedup
    /// against durably recorded responses, so effects are exactly-once
    /// across the two runs.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Use a specific [`Pfs`] instance as the checkpoint store instead of
    /// a fresh private one per run. This is how state crosses runs: keep
    /// the `Arc` (or serialize it with [`Pfs::dump`] / revive it with
    /// [`Pfs::restore`]) and hand it to the next run together with
    /// [`Runtime::resume`].
    pub fn checkpoint_store(mut self, fs: Arc<Pfs>) -> Self {
        self.checkpoint_store = Some(fs);
        self
    }

    /// Inject faults (rank kills, message drops/delays) from a
    /// [`FaultPlan`]. Ranks killed by the plan unwind quietly; the run
    /// completes on the survivors and reports the dead ranks in
    /// [`RunResult::killed_ranks`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enable task-lifecycle tracing. Every rank records lifecycle spans
    /// (put, queue wait, delivery, eval, rule firings, steals,
    /// replication syncs, failover recovery) on its own monotonic clock;
    /// the merged timeline lands in [`RunResult::traces`] with latency
    /// percentiles distilled into [`RunResult::latency`], and
    /// [`RunResult::write_trace`] exports Chrome trace-event JSON. Off
    /// (the default), recording is a no-op and costs nothing measurable.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Retry budget for failed or orphaned tasks: a task is requeued up to
    /// `k` times before the servers quarantine it.
    pub fn max_retries(mut self, k: u32) -> Self {
        self.config.server.max_retries = k;
        self
    }

    /// Register a native library (§III.B): its functions become callable
    /// from leaf templates after `package require <name>` — which the
    /// template's package declaration emits automatically.
    pub fn native_library(mut self, lib: NativeLibrary) -> Self {
        self.natives.push(lib);
        self
    }

    /// Register an in-memory Tcl package (§III.A third benefit: "existing
    /// components built in Tcl can easily be brought into Swift").
    pub fn tcl_package(
        mut self,
        name: impl Into<String>,
        version: impl Into<String>,
        source: impl Into<String>,
    ) -> Self {
        self.tcl_packages
            .push((name.into(), version.into(), source.into()));
        self
    }

    /// Pass a program argument, readable from Swift as `argv("key")` (the
    /// Swift/K-heritage argument interface).
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Queue a tenant program for a multi-tenant run: `name` labels it in
    /// reports, `weight` is its fair share under the servers' weighted
    /// round-robin (relative to the other tenants), and `quota` caps its
    /// queued tasks / in-flight leases (unlimited when `None`). Tenants
    /// run with [`Runtime::run_tenants`]; tenant `i` (in submission
    /// order) is served by engine rank `i` (and by every further engine
    /// `r` with `r mod N = i`) while the worker and server fleets are
    /// shared by everyone.
    pub fn submit(
        mut self,
        name: impl Into<String>,
        weight: u32,
        quota: Option<TenantQuota>,
        swift_source: impl Into<String>,
    ) -> Self {
        self.tenants.push(TenantJob {
            name: name.into(),
            weight,
            quota,
            source: swift_source.into(),
        });
        self
    }

    /// Number of worker ranks in this configuration (0 for a shape with
    /// none, which a run rejects).
    pub fn workers(&self) -> usize {
        self.ranks
            .saturating_sub(self.config.servers + self.config.engines)
    }

    /// Reject unsatisfiable machine shapes *before* any rank starts.
    /// `engines` is the effective engine count (the builder's, but at
    /// least one per program). A world needs an engine, a worker and a
    /// server, so fewer than 3 ranks fail one of the shape checks.
    fn validate_config(
        &self,
        engines: usize,
        programs: &[(TenantSpec, TurbineProgram)],
    ) -> Result<(), SwiftTError> {
        let fail = |m: String| Err(SwiftTError::Config(m));
        let servers = self.config.servers;
        if programs.is_empty() {
            return fail(
                "no tenant programs: submit() at least one before run_tenants()".to_string(),
            );
        }
        if servers == 0 {
            return fail(format!(
                "need at least one ADLB server (servers = 0, ranks = {}); \
                 checkpointing, data storage and scheduling all live on servers",
                self.ranks
            ));
        }
        if servers >= self.ranks {
            return fail(format!(
                "{servers} server(s) leave no client ranks in a world of {}",
                self.ranks
            ));
        }
        if engines == 0 {
            return fail("need at least one engine rank".to_string());
        }
        if self.ranks - servers <= engines {
            return fail(format!(
                "no worker ranks: {} ranks minus {servers} server(s) minus {engines} \
                 engine(s) leaves no one to execute leaf tasks",
                self.ranks
            ));
        }
        if let Some(r) = self.replication {
            if r == 0 {
                return fail("replication factor must be at least 1 (the primary)".to_string());
            }
            if r > servers {
                return fail(format!(
                    "replication {r} exceeds the server count {servers}: each copy \
                     needs its own server rank"
                ));
            }
        }
        if self.resume && self.checkpoint == Some(0) {
            return fail(
                "resume requires the checkpoint tier, which checkpoint(0) turns off: \
                 give an interval, or none for the default"
                    .to_string(),
            );
        }
        for (spec, _) in programs {
            if spec.quota.max_queued == Some(0) {
                return fail(format!(
                    "tenant \"{}\": max_queued quota of 0 would reject every put",
                    spec.name
                ));
            }
            if spec.quota.max_leases == Some(0) {
                return fail(format!(
                    "tenant \"{}\": max_leases quota of 0 could never deliver a task",
                    spec.name
                ));
            }
        }
        Ok(())
    }

    /// The configuration of one run on `engines` engines: the builder's,
    /// with the two settings that depend on others resolved — replication
    /// defaults to 2 whenever more than one server can hold a copy, and
    /// the checkpoint tier (on when an interval is set, or at the default
    /// interval when resuming) writes to the supplied store or to a fresh
    /// private one, so two runs never share a store by accident.
    fn turbine_config(&self, engines: usize) -> TurbineConfig {
        let mut config = self.config.clone();
        config.engines = engines;
        let default_replication = if config.servers > 1 { 2 } else { 1 };
        config.server.replication = self.replication.unwrap_or(default_replication);
        let interval = match self.checkpoint {
            Some(n) => n,
            None if self.resume => adlb::CHECKPOINT_DEFAULT_INTERVAL,
            None => 0,
        };
        config.server.checkpoint = (interval > 0).then(|| {
            let fs = self
                .checkpoint_store
                .clone()
                .unwrap_or_else(|| Arc::new(Pfs::new(PfsConfig::default())));
            adlb::CheckpointConfig::new(fs)
                .interval(interval)
                .resume(self.resume)
        });
        config
    }

    /// Compile and run Swift source on this machine, as a lone program:
    /// tenant 0, named "main", served by every engine.
    pub fn run(&self, swift_source: &str) -> Result<RunResult, SwiftTError> {
        let program = stc::compile(swift_source)?;
        self.run_turbine(TurbineProgram {
            preamble: program.preamble,
            main: program.main,
            args: self.args.clone(),
        })
    }

    /// Run already-compiled (or hand-written) Turbine code as a lone
    /// program.
    pub fn run_turbine(&self, program: TurbineProgram) -> Result<RunResult, SwiftTError> {
        self.run_programs(vec![(TenantSpec::new(0, "main"), program)])
    }

    /// Compile every program queued with [`Runtime::submit`] and run them
    /// concurrently over one shared machine: tenant `i` gets engine rank
    /// `i`, the servers schedule leaf work across tenants by weight and
    /// enforce each tenant's quota, and the workers execute everyone's
    /// tasks in per-tenant interpreters. Per-tenant output, accounting and
    /// latency land in [`RunResult::tenants`]; when several programs run,
    /// a tenant's program failure is contained there instead of failing
    /// the run.
    pub fn run_tenants(&self) -> Result<RunResult, SwiftTError> {
        let mut programs = Vec::with_capacity(self.tenants.len());
        for (i, job) in self.tenants.iter().enumerate() {
            let compiled = stc::compile(&job.source)?;
            let mut spec = TenantSpec::new(i as u32, &job.name).weight(job.weight);
            if let Some(q) = job.quota {
                spec = spec.quota(q);
            }
            programs.push((
                spec,
                TurbineProgram {
                    preamble: compiled.preamble,
                    main: compiled.main,
                    args: self.args.clone(),
                },
            ));
        }
        self.run_programs(programs)
    }

    /// Multi-tenant analogue of [`Runtime::run_turbine`]: run
    /// already-compiled programs, one per tenant.
    pub fn run_turbine_tenants(
        &self,
        programs: Vec<(TenantSpec, TurbineProgram)>,
    ) -> Result<RunResult, SwiftTError> {
        self.run_programs(programs)
    }

    /// The engine/worker interpreter setup hook: native libraries
    /// (§III.B) and in-memory Tcl packages.
    fn interp_setup(&self) -> impl Fn(&mut tclish::Interp) + '_ {
        move |interp: &mut tclish::Interp| {
            for lib in &self.natives {
                lib.install(interp);
            }
            for (name, version, source) in &self.tcl_packages {
                interp.add_package(
                    name,
                    version,
                    PackageInit::Script(std::rc::Rc::from(source.as_str())),
                );
            }
        }
    }

    /// The one run path: execute the world on `programs` and assemble the
    /// result, one [`TenantReport`] per program. The machine has the
    /// builder's engine count, but at least one engine per program.
    fn run_programs(
        &self,
        programs: Vec<(TenantSpec, TurbineProgram)>,
    ) -> Result<RunResult, SwiftTError> {
        let engines = self.config.engines.max(programs.len());
        self.validate_config(engines, &programs)?;
        let config = self.turbine_config(engines);
        let setup = self.interp_setup();
        let start = Instant::now();
        let world = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::run_faulty_traced(self.ranks, &self.faults, self.tracing, |comm| {
                turbine::run_rank(comm, &config, &programs, &setup)
            })
        }));
        let elapsed = start.elapsed();
        let outcome = world.map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "rank panicked".to_string());
            SwiftTError::Runtime(msg)
        })?;
        let per_rank = outcome.outputs;

        // Streams accumulated on the server tier, keyed by (rank, tenant),
        // recover what a killed rank shipped before dying; for survivors
        // the locally captured stdout is authoritative (and, fault free,
        // identical to the streamed copy). Tenant rows merge across
        // servers.
        let mut streamed: HashMap<(usize, u32), String> = HashMap::new();
        let mut truncated: Vec<usize> = Vec::new();
        let mut rows: Vec<(u32, TenantStats)> = Vec::new();
        for o in per_rank.iter().flatten() {
            for (r, t, s) in &o.server_streams {
                let e = streamed.entry((*r, *t)).or_default();
                if s.len() > e.len() {
                    s.clone_into(e);
                }
            }
            truncated.extend(o.truncated_streams.iter().copied());
            merge_tenant_rows(&mut rows, &o.tenant_rows);
        }
        truncated.sort_unstable();
        truncated.dedup();
        let contended_total: u64 = rows.iter().map(|(_, s)| s.delivered_contended).sum();

        let tenants: Vec<TenantReport> = programs
            .iter()
            .map(|(spec, _)| {
                // Each tenant's stdout in rank order.
                let stdout = per_rank
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, o)| match o {
                        Some(ro) => ro
                            .tenant_stdout
                            .iter()
                            .find(|(t, _)| *t == spec.id)
                            .map(|(_, s)| s.as_str()),
                        None => streamed.get(&(rank, spec.id)).map(String::as_str),
                    })
                    .collect();
                let stats = rows
                    .iter()
                    .find(|(t, _)| *t == spec.id)
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                let latency = self
                    .tracing
                    .then(|| {
                        LatencyStats::from_durations(tenant_task_durations(
                            &outcome.traces,
                            spec.id,
                        ))
                    })
                    .flatten();
                // The first error contained for this tenant, in rank order:
                // its main engine's comes first.
                let label = format!("tenant {}: ", spec.id);
                let error = per_rank
                    .iter()
                    .flatten()
                    .find_map(|o| o.program_error.clone().filter(|e| e.starts_with(&label)));
                TenantReport {
                    id: spec.id,
                    name: spec.name.clone(),
                    weight: spec.weight,
                    stdout,
                    stats,
                    share_of_delivered: (contended_total > 0)
                        .then(|| stats.delivered_contended as f64 / contended_total as f64),
                    latency,
                    error,
                }
            })
            .collect();
        Ok(RunResult {
            stdout: tenants.iter().map(|t| t.stdout.as_str()).collect(),
            outputs: per_rank.into_iter().flatten().collect(),
            elapsed,
            messages: outcome.stats.messages,
            bytes: outcome.stats.bytes,
            killed_ranks: outcome.killed,
            truncated_streams: truncated,
            roles: (0..self.ranks)
                .map(|r| config.role(self.ranks, r))
                .collect(),
            latency: self
                .tracing
                .then(|| LatencyReport::from_traces(&outcome.traces)),
            traces: outcome.traces,
            tenants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeArg, NativeLibrary};

    #[test]
    fn workers_count() {
        let rt = Runtime::new(10).servers(2).engines(2);
        assert_eq!(rt.workers(), 6);
        // A shape the run rejects has no workers rather than a negative count.
        assert_eq!(Runtime::new(3).servers(3).workers(), 0);
    }

    #[test]
    fn fewer_than_three_ranks_is_a_config_error() {
        for ranks in 0..3 {
            match Runtime::new(ranks).run(r#"printf("x");"#) {
                Err(SwiftTError::Config(_)) => {}
                other => panic!("{ranks} ranks: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn resume_turns_the_checkpoint_tier_on() {
        // A fresh store holds nothing to resume, so the run starts empty.
        let r = Runtime::new(3).resume(true).run(r#"printf("x");"#).unwrap();
        assert_eq!(r.stdout, "x\n");
        assert!(r.server_totals().ckpt_records > 0, "the tier logged");
        match Runtime::new(3)
            .checkpoint(0)
            .resume(true)
            .run(r#"printf("x");"#)
        {
            Err(SwiftTError::Config(m)) => assert!(m.contains("resume"), "{m}"),
            other => panic!("resume with the tier off: expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn native_library_from_swift_leaf() {
        // The paper's Fig. 3 flow: native function → Tcl binding →
        // Swift leaf function → Swift program.
        let lib = NativeLibrary::new("mathlib", "1.0").function("hypot", |args| {
            Ok(NativeArg::Float(args[0].as_f64()?.hypot(args[1].as_f64()?)))
        });
        let r = Runtime::new(3)
            .native_library(lib)
            .run(
                r#"
                (float o) hypot (float x, float y) "mathlib" "1.0" [
                    "set <<o>> [ mathlib::hypot <<x>> <<y>> ]"
                ];
                float h = hypot(3.0, 4.0);
                printf("h = %.1f", h);
            "#,
            )
            .unwrap();
        assert_eq!(r.stdout, "h = 5.0\n");
        // Two worker tasks: the hypot leaf and the printf.
        assert_eq!(r.total_tasks(), 2);
    }

    #[test]
    fn tcl_package_from_swift_leaf() {
        let r = Runtime::new(3)
            .tcl_package(
                "my_package",
                "1.0",
                "proc my_package::f {a b} { return [expr {$a * 100 + $b}] }",
            )
            .run(
                r#"
                (int o) f (int i, int j) "my_package" "1.0" [
                    "set <<o>> [ my_package::f <<i>> <<j>> ]"
                ];
                int v = f(4, 2);
                printf("%d", v);
            "#,
            )
            .unwrap();
        assert_eq!(r.stdout, "402\n");
    }

    #[test]
    fn reinitialize_policy_isolation() {
        // Two python() calls; under Reinitialize the second can't see the
        // first's state, so it must fail. Task errors are *contained*:
        // the NameError task is retried to the budget and quarantined
        // instead of crashing the worker rank — so the machine terminates
        // cleanly and the engine reports the never-satisfied printf as a
        // dataflow deadlock.
        // `b`'s code input depends on `a`, forcing task order a → b on the
        // single worker; only the retained interpreter still has `leak`.
        let src = r#"
            string a = python("leak = 5", "leak");
            string b = python(a, "leak + 1");
            printf("%s %s", a, b);
        "#;
        let retained = Runtime::new(3).policy(InterpPolicy::Retain).run(src);
        assert!(retained.is_ok(), "retain keeps state: {retained:?}");
        assert_eq!(retained.unwrap().stdout, "5 6\n");
        let reinit = Runtime::new(3).policy(InterpPolicy::Reinitialize).run(src);
        match reinit {
            Err(SwiftTError::Runtime(m)) => {
                assert!(m.contains("deadlock"), "quarantine leaves b unfilled: {m}")
            }
            other => panic!("expected dataflow deadlock under Reinitialize, got {other:?}"),
        }
    }
}
