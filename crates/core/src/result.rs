//! Run results and error types.

use std::time::Duration;

use mpisim::{trace, LatencyStats, RankTrace};
use turbine::{RankOutput, Role};

/// Why a run could not produce a result.
#[derive(Debug)]
pub enum SwiftTError {
    /// The machine configuration is unsatisfiable (replication beyond
    /// the server count, no workers, ...). Rejected before any rank
    /// starts; the CLI maps this to exit code 2.
    Config(String),
    /// The Swift source did not compile.
    Compile(stc::CompileError),
    /// A rank failed during execution (Tcl error, dataflow violation,
    /// double assignment, ...).
    Runtime(String),
}

impl std::fmt::Display for SwiftTError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwiftTError::Config(m) => write!(f, "configuration error: {m}"),
            SwiftTError::Compile(e) => write!(f, "{e}"),
            SwiftTError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for SwiftTError {}

impl From<stc::CompileError> for SwiftTError {
    fn from(e: stc::CompileError) -> Self {
        SwiftTError::Compile(e)
    }
}

/// The outcome of a successful run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// All `printf`/`puts`/embedded-interpreter output: each tenant's
    /// [`TenantReport::stdout`] in tenant order (a lone program is the
    /// only tenant).
    pub stdout: String,
    /// Per-rank details for the ranks that survived (killed ranks produce
    /// no output record).
    pub outputs: Vec<RankOutput>,
    /// Wall-clock duration of the whole world.
    pub elapsed: Duration,
    /// Point-to-point messages the run sent (from `mpisim`).
    pub messages: u64,
    /// Payload bytes the run sent.
    pub bytes: u64,
    /// Ranks killed by the configured fault plan, in rank order. Empty
    /// when no faults were injected (or none fired).
    pub killed_ranks: Vec<usize>,
    /// Killed ranks whose streamed output is known to be incomplete: the
    /// rank died with locally buffered output that never reached the
    /// server tier, so its contribution to `stdout` is a prefix.
    pub truncated_streams: Vec<usize>,
    /// The role each rank played, indexed by rank (killed ranks
    /// included — unlike `outputs`, which only covers survivors).
    pub roles: Vec<Role>,
    /// Per-rank lifecycle traces (empty unless the run had
    /// [`tracing`](crate::Runtime::tracing) enabled). Killed ranks'
    /// partial traces are included.
    pub traces: Vec<RankTrace>,
    /// Latency percentiles distilled from `traces`; `None` when tracing
    /// was off.
    pub latency: Option<LatencyReport>,
    /// One report per program, in the run's program order (a lone
    /// program is tenant 0, "main").
    pub tenants: Vec<TenantReport>,
}

/// One program's slice of a run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id, as stamped on the program's tasks and output.
    pub id: u32,
    /// Human-readable program name.
    pub name: String,
    /// Fair-share weight the servers scheduled it under.
    pub weight: u32,
    /// Everything this tenant's program printed, each rank's per-tenant
    /// stream in rank order (engines first).
    pub stdout: String,
    /// Admission/scheduling accounting merged across servers.
    pub stats: adlb::TenantStats,
    /// This tenant's fraction of all contended untargeted deliveries —
    /// the quantity weighted fair queuing controls. `None` when the run
    /// had no contended deliveries at all.
    pub share_of_delivered: Option<f64>,
    /// Task latency percentiles for this tenant's tasks (requires
    /// [`tracing`](crate::Runtime::tracing)).
    pub latency: Option<LatencyStats>,
    /// The program's contained failure, if it had one. Beside other
    /// programs a broken tenant never fails the run; it fails here. (A
    /// lone program's failure fails the run.)
    pub error: Option<String>,
}

/// Latency percentiles over one traced run. Each member is `None` when
/// the run recorded no spans of that kind (e.g. no failovers happened).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyReport {
    /// Task latency: server accepted the task → done/failed ack released
    /// its lease. Covers queue wait, delivery, and evaluation.
    pub task_latency: Option<LatencyStats>,
    /// Queue wait: server accepted the task → handed it to a worker.
    pub queue_wait: Option<LatencyStats>,
    /// Worker leaf-task evaluation time (successful tasks).
    pub eval_time: Option<LatencyStats>,
    /// Failover recovery window: server death confirmed → replication
    /// factor restored by re-replication.
    pub failover_recovery: Option<LatencyStats>,
    /// Checkpoint flush: WAL batch (or forced segment) written to the
    /// parallel file system. Only recorded with `--checkpoint` on.
    pub checkpoint_flush: Option<LatencyStats>,
    /// Shard restore from a durable checkpoint: segment read + WAL tail
    /// replay, during failover or `--resume` startup.
    pub pfs_restore: Option<LatencyStats>,
}

impl LatencyReport {
    /// Distill percentiles from merged per-rank traces.
    pub fn from_traces(traces: &[RankTrace]) -> LatencyReport {
        let stats = |kind| LatencyStats::from_durations(trace::durations_of(traces, kind));
        LatencyReport {
            task_latency: stats(trace::KIND_TASK_LATENCY),
            queue_wait: stats(trace::KIND_TASK_QUEUE),
            eval_time: stats(trace::KIND_TASK_EVAL),
            failover_recovery: stats(trace::KIND_FAILOVER_RECOVERY),
            checkpoint_flush: stats(trace::KIND_CKPT_FLUSH),
            pfs_restore: stats(trace::KIND_CKPT_RESTORE),
        }
    }
}

/// Task-latency durations for one tenant, filtered from the merged
/// traces. The server tags each task-latency span's correlation id with
/// `tenant + 1` in the high 32 bits, so per-tenant percentiles fall out
/// of the same trace stream the global report uses.
pub fn tenant_task_durations(traces: &[RankTrace], tenant: u32) -> Vec<u64> {
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == trace::KIND_TASK_LATENCY && (e.id >> 32) as u32 == tenant + 1)
        .map(|e| e.end_us - e.start_us)
        .collect()
}

impl RunResult {
    /// The report for tenant `id`.
    pub fn tenant(&self, id: u32) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Total leaf tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.outputs.iter().map(|o| o.tasks_executed).sum()
    }

    /// Total rules fired across all engines.
    pub fn total_rules_fired(&self) -> u64 {
        self.outputs.iter().map(|o| o.rules_fired).sum()
    }

    /// Total Python/R interpreter initializations.
    pub fn total_interp_inits(&self) -> u64 {
        self.outputs.iter().map(|o| o.interp_inits).sum()
    }

    /// Total leaf tasks that failed (contained eval errors) across all
    /// workers. Each retry of a task counts as another failure.
    pub fn total_tasks_failed(&self) -> u64 {
        self.outputs.iter().map(|o| o.tasks_failed).sum()
    }

    /// Number of workers that executed at least one task.
    pub fn busy_workers(&self) -> usize {
        self.outputs
            .iter()
            .filter(|o| o.role == Role::Worker && o.tasks_executed > 0)
            .count()
    }

    /// Aggregate server statistics via [`adlb::ServerStats::merge`]:
    /// counters sum element-wise, while `r_restore_micros` — a wall-clock
    /// window, not a volume — takes the max across servers. (A previous
    /// hand-maintained field list here summed the window and silently
    /// dropped newly added fields.)
    pub fn server_totals(&self) -> adlb::ServerStats {
        let mut total = adlb::ServerStats::default();
        for s in self.outputs.iter().filter_map(|o| o.server_stats.as_ref()) {
            total.merge(s);
        }
        total
    }

    /// Write this run's merged trace as Chrome trace-event JSON (load
    /// with `chrome://tracing` or <https://ui.perfetto.dev>). Rank
    /// timelines are labeled with their role. Writes an empty trace when
    /// tracing was disabled.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let roles: Vec<String> = self
            .roles
            .iter()
            .enumerate()
            .map(|(rank, role)| format!("rank {rank} ({role:?})").to_lowercase())
            .collect();
        trace::write_chrome_trace(path, &self.traces, &roles)
    }
}
