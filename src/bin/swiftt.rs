//! `swiftt` — run a Swift dataflow script on a simulated machine.
//!
//! ```text
//! swiftt [OPTIONS] <script.swift>
//! swiftt --expr 'printf("hi");'
//! swiftt --tenant a:4:a.swift --tenant b:1:b.swift   # N programs, one world
//! swiftt --verify-checkpoint FILE                    # offline checkpoint fsck
//!
//! OPTIONS:
//!   -n, --ranks N        total ranks (default 8)
//!   -s, --servers N      ADLB servers (default 1)
//!   -e, --engines N      engines (default 1)
//!       --tenant SPEC    run SPEC = name:weight[:qN[,lM]]:script as one
//!                        tenant of a shared world (repeatable)
//!       --reinitialize   reinitialize Python/R interpreters per task
//!       --no-steal       disable ADLB work stealing
//!       --replication N  copies of each server's state (default: 2 when
//!                        servers > 1, else 1)
//!       --no-re-replication
//!                        keep R degraded after a failover instead of
//!                        re-replicating to new ring successors
//!       --checkpoint N   durable checkpoint/WAL tier, flushed every N ops
//!       --resume         restore the previous run's shards at startup
//!       --checkpoint-file PATH
//!                        persist the checkpoint store across processes
//!       --verify-checkpoint FILE
//!                        fsck a checkpoint image and exit (1 = corrupt)
//!       --faults SPEC    inject faults (kill:rank=R,at=POINT,n=N; drop:...)
//!       --max-retries K  requeue a failed task at most K times
//!       --emit-tcl       print the compiled Turbine code and exit
//!       --report         print the run report after program output
//!       --trace FILE     write a Chrome trace-event JSON timeline
//!   -h, --help           this text
//! ```
//!
//! This is the analogue of the real system's `swift-t` launcher: compile
//! with STC, then run the Turbine code on an engines/servers/workers
//! machine (paper Fig. 2).

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use swiftt::core::{FaultPlan, InterpPolicy, Runtime, SwiftTError, TenantQuota};
use swiftt::pfs::{Pfs, PfsConfig};

struct Options {
    ranks: usize,
    servers: usize,
    engines: usize,
    policy: InterpPolicy,
    steal: bool,
    replication: Option<usize>,
    re_replication: bool,
    checkpoint: Option<usize>,
    resume: bool,
    checkpoint_file: Option<String>,
    verify_checkpoint: Option<String>,
    faults: FaultPlan,
    max_retries: Option<u32>,
    emit_tcl: bool,
    report: bool,
    trace: Option<String>,
    args: Vec<(String, String)>,
    tenants: Vec<TenantArg>,
    source: Option<SourceSpec>,
    help: bool,
}

/// The one way `swiftt` writes stdout. When the reader goes away
/// (`swiftt ... | head`), the rest of stdout is dropped quietly and the
/// run goes on: its checkpoint image, trace and stderr report are still
/// written, and the exit status is the run's own. Any other write error
/// is reported on stderr and makes the exit status 1.
#[derive(Default)]
struct Stdout {
    closed: bool,
    failed: bool,
}

impl Stdout {
    fn print(&mut self, text: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        let mut out = std::io::stdout().lock();
        if let Err(e) = out.write_fmt(text).and_then(|()| out.flush()) {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("swiftt: cannot write stdout: {e}");
                self.failed = true;
            }
        }
    }
}

/// One `--tenant name:weight[:qN[,lM]]:script` argument.
struct TenantArg {
    name: String,
    weight: u32,
    quota: Option<TenantQuota>,
    script: String,
}

/// Parse the optional quota field of a tenant spec: `qN` caps queued
/// tasks, `lM` caps in-flight leases, `qN,lM` both.
fn parse_quota(field: &str) -> Option<TenantQuota> {
    let mut q = TenantQuota::default();
    for part in field.split(',') {
        let (kind, n) = part.split_at(1);
        let n: usize = n.parse().ok()?;
        match kind {
            "q" => q.max_queued = Some(n),
            "l" => q.max_leases = Some(n),
            _ => return None,
        }
    }
    Some(q)
}

fn parse_tenant(spec: &str) -> Result<TenantArg, String> {
    let bad = || format!("--tenant wants name:weight[:qN[,lM]]:script, got {spec}");
    let (name, rest) = spec.split_once(':').ok_or_else(bad)?;
    let (weight, rest) = rest.split_once(':').ok_or_else(bad)?;
    let weight: u32 = weight.parse().map_err(|_| bad())?;
    // The next field is a quota iff it parses as one; otherwise the rest
    // is the script path (which may itself contain colons).
    let (quota, script) = match rest.split_once(':') {
        Some((maybe_quota, path)) => match parse_quota(maybe_quota) {
            Some(q) => (Some(q), path.to_string()),
            None => (None, rest.to_string()),
        },
        None => (None, rest.to_string()),
    };
    if name.is_empty() || script.is_empty() {
        return Err(bad());
    }
    Ok(TenantArg {
        name: name.to_string(),
        weight,
        quota,
        script,
    })
}

enum SourceSpec {
    File(String),
    Expr(String),
}

const USAGE: &str = "\
usage: swiftt [OPTIONS] <script.swift>
       swiftt [OPTIONS] --expr '<swift code>'
       swiftt [OPTIONS] --tenant name:weight:script [--tenant ...]
       swiftt --verify-checkpoint FILE

options:
  -n, --ranks N        total ranks (default 8)
  -s, --servers N      ADLB servers (default 1)
  -e, --engines N      engines (default 1)
      --tenant SPEC    run SPEC as one tenant of a shared world
                       (repeatable; one engine rank per tenant). SPEC is
                       name:weight[:qN[,lM]]:script — weight is the
                       fair-share weight, qN caps queued tasks, lM caps
                       in-flight leases (admission backpressure). With
                       --report, prints per-tenant accounting rows.
      --reinitialize   reinitialize Python/R interpreters per task
      --no-steal       disable ADLB work stealing
      --replication N  copies of each ADLB server's state; N >= 2 lets a
                       run survive server deaths (default: 2 when
                       servers > 1, else 1)
      --no-re-replication
                       after a failover, keep running with a degraded
                       replication factor instead of streaming replica
                       state to the recomputed ring successors
      --checkpoint N   enable the durable checkpoint/WAL tier: servers
                       append shard mutations to a write-ahead log on the
                       simulated parallel filesystem, flushed every N
                       logged ops and compacted into segments. A shard
                       that loses every in-memory holder is then restored
                       from the filesystem instead of aborting the run.
      --resume         restore every server's shard from the checkpoint
                       store before serving — with --checkpoint-file this
                       restarts a previous process's run with exactly-once
                       effects (implies --checkpoint at the default
                       interval when not given)
      --checkpoint-file PATH
                       load the checkpoint store image from PATH at start
                       (if it exists) and write it back at exit, so
                       checkpoints survive the process
      --verify-checkpoint FILE
                       offline fsck: walk every shard of the checkpoint
                       image in FILE, verify segment/WAL checksums and
                       LSN continuity, print a per-shard summary, and
                       exit (0 = clean, 1 = corruption found)
      --faults SPEC    inject faults; SPEC is ';'-separated clauses:
                         kill:rank=R,at=POINT,n=N     kill R at its Nth hit of
                           POINT (send, recv, client.get_sent,
                           client.task_received, client.ack_sent,
                           server.request_applied, server.ops_replicated,
                           server.replica_updated, server.replica_installed,
                           server.sync_retired, server.death_handled,
                           server.termination_decided)
                         drop:from=A,to=B,nth=N       drop Nth A->B message
                         delay:from=A,to=B,nth=N,ms=M delay it by M ms
      --max-retries K  requeue a failed task at most K times (default 3)
      --arg K=V        program argument, readable as argv(\"K\")
      --emit-tcl       print the compiled Turbine code and exit
      --report         print the run report after program output
                       (with task-latency and queue-wait percentiles)
      --trace FILE     record task-lifecycle spans on every rank and
                       write the merged timeline as Chrome trace-event
                       JSON (chrome://tracing, ui.perfetto.dev)
  -h, --help           this text";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        ranks: 8,
        servers: 1,
        engines: 1,
        policy: InterpPolicy::Retain,
        steal: true,
        replication: None,
        re_replication: true,
        checkpoint: None,
        resume: false,
        checkpoint_file: None,
        verify_checkpoint: None,
        faults: FaultPlan::new(),
        max_retries: None,
        emit_tcl: false,
        report: false,
        trace: None,
        args: Vec::new(),
        tenants: Vec::new(),
        source: None,
        help: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|_| format!("{name} needs an integer"))
        };
        match a.as_str() {
            "-n" | "--ranks" => opts.ranks = num("--ranks")?,
            "-s" | "--servers" => opts.servers = num("--servers")?,
            "-e" | "--engines" => opts.engines = num("--engines")?,
            "--reinitialize" => opts.policy = InterpPolicy::Reinitialize,
            "--no-steal" => opts.steal = false,
            "--replication" => opts.replication = Some(num("--replication")?),
            "--no-re-replication" => opts.re_replication = false,
            "--checkpoint" => opts.checkpoint = Some(num("--checkpoint")?),
            "--resume" => opts.resume = true,
            "--checkpoint-file" => {
                opts.checkpoint_file = Some(args.next().ok_or("--checkpoint-file needs a path")?);
            }
            "--verify-checkpoint" => {
                opts.verify_checkpoint =
                    Some(args.next().ok_or("--verify-checkpoint needs a path")?);
            }
            "--tenant" => {
                let spec = args.next().ok_or("--tenant needs a spec")?;
                opts.tenants.push(parse_tenant(&spec)?);
            }
            "--faults" => {
                let spec = args.next().ok_or("--faults needs a spec")?;
                opts.faults = FaultPlan::parse(&spec).map_err(|e| format!("--faults: {e}"))?;
            }
            "--max-retries" => {
                opts.max_retries = Some(
                    args.next()
                        .ok_or("--max-retries needs a value")?
                        .parse()
                        .map_err(|_| "--max-retries needs an integer".to_string())?,
                );
            }
            "--emit-tcl" => opts.emit_tcl = true,
            "--report" => opts.report = true,
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a file path")?),
            "--arg" => {
                let kv = args.next().ok_or("--arg needs K=V")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--arg needs K=V, got {kv}"))?;
                opts.args.push((k.to_string(), v.to_string()));
            }
            "--expr" => {
                let code = args.next().ok_or("--expr needs swift code")?;
                opts.source = Some(SourceSpec::Expr(code));
            }
            "-h" | "--help" => {
                opts.help = true;
                return Ok(opts);
            }
            other if !other.starts_with('-') => {
                if opts.source.is_some() {
                    return Err("multiple scripts given".into());
                }
                opts.source = Some(SourceSpec::File(other.to_string()));
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut stdout = Stdout::default();
    let code = run_cli(&mut stdout);
    if stdout.failed {
        ExitCode::FAILURE
    } else {
        code
    }
}

fn run_cli(stdout: &mut Stdout) -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swiftt: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        stdout.print(format_args!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &opts.verify_checkpoint {
        return verify_checkpoint_image(path, stdout);
    }
    if !opts.tenants.is_empty() && opts.source.is_some() {
        eprintln!("swiftt: give either --tenant specs or a single script, not both");
        return ExitCode::from(2);
    }
    let source = if opts.tenants.is_empty() {
        match &opts.source {
            Some(SourceSpec::Expr(code)) => code.clone(),
            Some(SourceSpec::File(path)) => match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("swiftt: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            None => {
                eprintln!("swiftt: no script given\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        String::new()
    };

    if opts.emit_tcl {
        if !opts.tenants.is_empty() {
            eprintln!("swiftt: --emit-tcl takes a single script, not --tenant specs");
            return ExitCode::from(2);
        }
        return match stc::compile(&source) {
            Ok(p) => {
                stdout.print(format_args!("{}\n", p.listing()));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    // Shape and policy validation lives in the Runtime (SwiftTError::Config,
    // mapped to exit code 2 below). With --checkpoint-file the store
    // outlives this process: loaded here, written back at exit.
    let mut store = None;
    if let Some(path) = &opts.checkpoint_file {
        let fs = match std::fs::read(path).map(|image| Pfs::restore(PfsConfig::default(), &image)) {
            Ok(Ok(fs)) => fs,
            Ok(Err(e)) => {
                eprintln!("swiftt: bad checkpoint image {path}: {e}");
                return ExitCode::from(2);
            }
            // Missing or unreadable file: start fresh, write it at exit.
            Err(_) => Pfs::new(PfsConfig::default()),
        };
        store = Some(Arc::new(fs));
    }
    let mut rt = Runtime::new(opts.ranks)
        .servers(opts.servers)
        .engines(opts.engines)
        .policy(opts.policy)
        .work_stealing(opts.steal)
        .re_replication(opts.re_replication)
        .resume(opts.resume)
        // --report wants latency percentiles, which come from the trace.
        .tracing(opts.trace.is_some() || opts.report)
        .faults(opts.faults.clone());
    if let Some(r) = opts.replication {
        rt = rt.replication(r);
    }
    if let Some(n) = opts.checkpoint {
        rt = rt.checkpoint(n);
    }
    if let Some(fs) = &store {
        rt = rt.checkpoint_store(fs.clone());
    }
    if let Some(k) = opts.max_retries {
        rt = rt.max_retries(k);
    }
    for (k, v) in &opts.args {
        rt = rt.arg(k, v);
    }
    let run = if opts.tenants.is_empty() {
        rt.run(&source)
    } else {
        let mut ok = true;
        for t in &opts.tenants {
            match std::fs::read_to_string(&t.script) {
                Ok(src) => rt = rt.submit(&t.name, t.weight, t.quota, src),
                Err(e) => {
                    eprintln!("swiftt: cannot read {}: {e}", t.script);
                    ok = false;
                }
            }
        }
        if !ok {
            return ExitCode::from(2);
        }
        rt.run_tenants()
    };
    // Persist the checkpoint store whatever happened to the run — a world
    // that crashed mid-program is exactly what --resume restarts from.
    if let (Some(path), Some(fs)) = (&opts.checkpoint_file, &store) {
        if let Err(e) = std::fs::write(path, fs.dump()) {
            eprintln!("swiftt: cannot write checkpoint image {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match run {
        Ok(result) => {
            stdout.print(format_args!("{}", result.stdout));
            // A broken tenant never fails the run (containment); it is
            // reported here and in its --report row.
            for t in &result.tenants {
                if let Some(e) = &t.error {
                    eprintln!("swiftt: tenant {} failed (contained): {e}", t.name);
                }
            }
            if let Some(path) = &opts.trace {
                if let Err(e) = result.write_trace(std::path::Path::new(path)) {
                    eprintln!("swiftt: cannot write trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("swiftt: trace written to {path}");
            }
            if opts.report {
                let servers = result.server_totals();
                eprintln!("--- swiftt report ---------------------------");
                eprintln!("ranks              : {}", opts.ranks);
                eprintln!("leaf tasks         : {}", result.total_tasks());
                eprintln!("rules fired        : {}", result.total_rules_fired());
                eprintln!("busy workers       : {}", result.busy_workers());
                eprintln!(
                    "messages / bytes   : {} / {}",
                    result.messages, result.bytes
                );
                eprintln!("wall time          : {:?}", result.elapsed);
                eprintln!(
                    "peak RSS           : {}",
                    peak_rss_mb().map_or("unavailable".into(), |mb| format!("{mb:.1} MB"))
                );
                eprintln!(
                    "data freed         : {} ({} unreleased, {} release misses; {} resident at peak)",
                    servers.data_freed,
                    servers.data_unreleased,
                    servers.release_misses,
                    servers.data_peak
                );
                if let Some(lat) = &result.latency {
                    let line = |name: &str, s: &Option<swiftt::core::LatencyStats>| {
                        if let Some(s) = s {
                            eprintln!(
                                "{name}: p50 {}µs  p95 {}µs  p99 {}µs  max {}µs  (n={})",
                                s.p50_us, s.p95_us, s.p99_us, s.max_us, s.count
                            );
                        }
                    };
                    line("task latency       ", &lat.task_latency);
                    line("queue wait         ", &lat.queue_wait);
                    line("eval time          ", &lat.eval_time);
                    line("failover recovery  ", &lat.failover_recovery);
                    line("checkpoint flush   ", &lat.checkpoint_flush);
                    line("pfs restore        ", &lat.pfs_restore);
                }
                if !result.tenants.is_empty() {
                    eprintln!("--- tenants ---------------------------------");
                    for t in &result.tenants {
                        let share = t
                            .share_of_delivered
                            .map(|s| format!("{:.1}%", s * 100.0))
                            .unwrap_or_else(|| "-".to_string());
                        eprintln!(
                            "{} (weight {}): delivered {} (contended share {}), \
                             admitted {}, rejected {}, queue peak {}",
                            t.name,
                            t.weight,
                            t.stats.delivered,
                            share,
                            t.stats.admitted,
                            t.stats.rejected,
                            t.stats.queue_peak
                        );
                        if let Some(l) = &t.latency {
                            eprintln!(
                                "    task latency: p50 {}µs  p95 {}µs  max {}µs  (n={})",
                                l.p50_us, l.p95_us, l.max_us, l.count
                            );
                        }
                        if let Some(e) = &t.error {
                            eprintln!("    error (contained): {e}");
                        }
                    }
                }
                if servers.repl_ops > 0 {
                    eprintln!("replication ops    : {}", servers.repl_ops);
                }
                if servers.repl_syncs > 0 {
                    eprintln!(
                        "re-replicated bytes: {} ({} syncs)",
                        servers.repl_sync_bytes, servers.repl_syncs
                    );
                }
                if servers.r_restore_micros > 0 {
                    eprintln!(
                        "time-to-R-restored : {:?}",
                        std::time::Duration::from_micros(servers.r_restore_micros)
                    );
                }
                if servers.ckpt_records > 0 || servers.pfs_restores > 0 {
                    eprintln!(
                        "checkpoint flushes : {} ({} ops, {} segments, {} bytes: {} WAL + {} segment)",
                        servers.ckpt_records,
                        servers.ckpt_ops,
                        servers.ckpt_segments,
                        servers.ckpt_bytes,
                        servers.ckpt_bytes.saturating_sub(servers.ckpt_segment_bytes),
                        servers.ckpt_segment_bytes
                    );
                    eprintln!("pfs restores       : {}", servers.pfs_restores);
                    if servers.ckpt_restore_micros > 0 {
                        eprintln!(
                            "restore window     : {:?}",
                            std::time::Duration::from_micros(servers.ckpt_restore_micros)
                        );
                    }
                }
                if !result.killed_ranks.is_empty()
                    || result.total_tasks_failed() > 0
                    || servers.protocol_errors > 0
                    || servers.failovers > 0
                {
                    eprintln!("killed ranks       : {:?}", result.killed_ranks);
                    eprintln!("ranks failed (srv) : {}", servers.ranks_failed);
                    eprintln!("server failovers   : {}", servers.failovers);
                    eprintln!("tasks failed       : {}", result.total_tasks_failed());
                    eprintln!(
                        "requeued / retried : {} / {}",
                        servers.tasks_requeued, servers.tasks_retried
                    );
                    eprintln!("quarantined        : {}", servers.tasks_quarantined);
                    eprintln!("protocol errors    : {}", servers.protocol_errors);
                    if !result.truncated_streams.is_empty() {
                        eprintln!(
                            "truncated streams  : {:?} (output from these ranks is a prefix)",
                            result.truncated_streams
                        );
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(SwiftTError::Config(m)) => {
            eprintln!("swiftt: configuration error: {m}");
            ExitCode::from(2)
        }
        Err(SwiftTError::Compile(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        Err(SwiftTError::Runtime(m)) => {
            eprintln!("swiftt: runtime error: {m}");
            ExitCode::FAILURE
        }
    }
}

/// This process's peak resident set so far (`VmHWM`), in MB, where
/// `/proc/self/status` reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `--verify-checkpoint FILE`: offline fsck of a durable checkpoint
/// image (as written by `--checkpoint-file`). Read-only; exits 0 when
/// clean, 1 on corruption, 2 when the image itself cannot be loaded.
fn verify_checkpoint_image(path: &str, stdout: &mut Stdout) -> ExitCode {
    let image = match std::fs::read(path) {
        Ok(image) => image,
        Err(e) => {
            eprintln!("swiftt: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let fs = match Pfs::restore(PfsConfig::default(), &image) {
        Ok(fs) => Arc::new(fs),
        Err(e) => {
            eprintln!("swiftt: bad checkpoint image {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = swiftt::adlb::verify_checkpoint(&fs);
    if report.shards.is_empty() {
        stdout.print(format_args!("{path}: no checkpoint shards found\n"));
        return ExitCode::SUCCESS;
    }
    for s in &report.shards {
        if let Some(to) = s.redirect_to {
            stdout.print(format_args!("shard {}: redirected to rank {to}\n", s.home));
        } else {
            stdout.print(format_args!(
                "shard {}: segment {} ({} bytes, covers LSN {}), wal {} record(s) \
                 / {} op(s) ({} bytes), durable LSN {}\n",
                s.home,
                s.seg_no,
                s.segment_bytes,
                s.segment_lsn,
                s.wal_records,
                s.wal_ops,
                s.wal_bytes,
                s.last_lsn
            ));
        }
        for e in &s.errors {
            stdout.print(format_args!("shard {}: CORRUPT: {e}\n", s.home));
        }
    }
    if report.is_clean() {
        let n = report.shards.len();
        stdout.print(format_args!("{path}: clean ({n} shard(s))\n"));
        ExitCode::SUCCESS
    } else {
        stdout.print(format_args!("{path}: corruption detected\n"));
        ExitCode::FAILURE
    }
}
