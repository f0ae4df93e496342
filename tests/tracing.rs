//! Task-lifecycle tracing as a test oracle.
//!
//! The trace is not just a debugging artifact: span counts must
//! *reconcile* with the runtime's independent counters (tasks executed,
//! rules fired, failovers), both fault-free and under fault injection —
//! a drift between the two means either the instrumentation or the
//! counter is lying. Latency percentiles carry their own structural
//! invariant: a task's queue wait (accept → deliver) is a prefix of its
//! latency (accept → ack) stamped by the same server clock, so queue-wait
//! order statistics can never exceed task-latency order statistics.

use std::process::Command;

use mpisim::trace;
use swiftt::core::{FaultPlan, Runtime};

const PROGRAM: &str = r#"foreach i in [0:39] { printf("task %d", i); }"#;

#[test]
fn untraced_run_records_nothing() {
    let r = Runtime::new(5).run(PROGRAM).expect("run");
    assert!(r.traces.is_empty(), "tracing off must record no events");
    assert!(r.latency.is_none());
    assert_eq!(r.total_tasks(), 40);
}

#[test]
fn trace_reconciles_with_counters_fault_free() {
    let r = Runtime::new(6).tracing(true).run(PROGRAM).expect("run");
    assert_eq!(r.traces.len(), 6, "one trace per rank");
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_TASK_EVAL),
        r.total_tasks(),
        "one eval span per executed task"
    );
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_RULE_FIRE),
        r.total_rules_fired(),
        "one rule_fire span per fired rule"
    );
    assert_eq!(trace::count_kind(&r.traces, trace::KIND_FAILOVER), 0);
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_FAILOVER_RECOVERY),
        0
    );
    // Every span is non-inverted even though ranks run on distinct clocks.
    for t in &r.traces {
        for e in &t.events {
            assert!(e.end_us >= e.start_us, "inverted span: {e:?}");
        }
    }
}

#[test]
fn histogram_sanity_queue_wait_below_task_latency() {
    let r = Runtime::new(6).tracing(true).run(PROGRAM).expect("run");
    let lat = r.latency.expect("traced run has a latency report");
    let task = lat.task_latency.expect("task latency recorded");
    let queue = lat.queue_wait.expect("queue wait recorded");
    assert_eq!(
        task.count, queue.count,
        "fault free, every delivered task is acked exactly once"
    );
    // Latency spans cover every delivered task — leaf *and* control-plane
    // (loop-split rules run on engines) — so the count dominates the
    // leaf-task counter.
    assert!(
        task.count >= r.total_tasks(),
        "{} < {}",
        task.count,
        r.total_tasks()
    );
    // Pointwise queue ≤ latency per task ⇒ the k-th order statistics
    // dominate ⇒ every percentile dominates.
    assert!(queue.p50_us <= task.p50_us, "{queue:?} vs {task:?}");
    assert!(queue.p95_us <= task.p95_us, "{queue:?} vs {task:?}");
    assert!(queue.p99_us <= task.p99_us, "{queue:?} vs {task:?}");
    assert!(queue.max_us <= task.max_us, "{queue:?} vs {task:?}");
    let eval = lat.eval_time.expect("eval time recorded");
    assert_eq!(eval.count, r.total_tasks());
}

#[test]
fn trace_reconciles_under_server_death() {
    // Rank layout for new(12).servers(4): engine 0, workers 1..=7,
    // servers 8..=11 (master 8). Kill the master mid-run: the trace must
    // still reconcile — eval spans count every executed task (including
    // requeued leases' reruns), the promotion shows up as exactly one
    // failover instant, and the re-replication that restores R records
    // one recovery window iff the stats say R was restored. 20 receives
    // is past the start-up heartbeats and the engine's first batches
    // (the master has accepted tasks) and about a third of what a
    // fault-free release run costs it (a kill still fires at 50 in 10 of
    // 10 runs, at 60 in 1 of 10).
    let plan = FaultPlan::new().kill_after_recvs(8, 20);
    let r = Runtime::new(12)
        .servers(4)
        .replication(2)
        .tracing(true)
        .faults(plan)
        .run(r#"foreach i in [0:79] { printf("task %d", i); }"#)
        .expect("run survives the dead server");
    assert_eq!(r.killed_ranks, vec![8]);
    let totals = r.server_totals();
    assert_eq!(totals.failovers, 1);
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_TASK_EVAL),
        r.total_tasks(),
        "eval spans reconcile under fault injection"
    );
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_FAILOVER),
        totals.failovers,
        "one failover instant per promotion"
    );
    // Ring recompute can oblige several survivors to re-replicate (the
    // promoted server's adopted shard AND shards whose replica lived on
    // the victim), so the exact oracle is per-server: one recovery span
    // per server that reports a completed restore.
    let restored_servers = r
        .outputs
        .iter()
        .filter_map(|o| o.server_stats.as_ref())
        .filter(|s| s.r_restore_micros > 0)
        .count() as u64;
    assert!(restored_servers >= 1, "re-replication must have completed");
    assert_eq!(
        trace::count_kind(&r.traces, trace::KIND_FAILOVER_RECOVERY),
        restored_servers,
        "one recovery window per server that restored R"
    );
    let rec = r
        .latency
        .expect("latency report")
        .failover_recovery
        .expect("recovery window measured");
    assert_eq!(rec.count, restored_servers);
    // The dead master's partial trace survives: it accepted tasks before
    // dying, so its rank slot must hold recorded events.
    assert!(
        !r.traces[8].events.is_empty(),
        "killed rank's partial trace must be preserved"
    );
}

#[test]
fn chrome_export_spans_match_task_count() {
    let r = Runtime::new(5).tracing(true).run(PROGRAM).expect("run");
    let dir = std::env::temp_dir().join(format!("swiftt-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.json");
    r.write_trace(&path).expect("write trace");
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(body.starts_with("{\"traceEvents\":["));
    assert!(body.trim_end().ends_with("]}"));
    assert_eq!(
        body.matches('{').count(),
        body.matches('}').count(),
        "balanced braces ⇒ structurally sound JSON for this writer"
    );
    // Rank timelines are labeled with their role.
    assert!(body.contains("rank 0 (engine)"));
    assert!(body.contains("(worker)"));
    assert!(body.contains("(server)"));
    let eval_spans = body.matches("\"name\":\"task_eval\"").count() as u64;
    assert_eq!(
        eval_spans,
        r.total_tasks(),
        "exported eval spans equal the executed-task count"
    );
}

#[test]
fn cli_trace_and_report_percentiles() {
    let dir = std::env::temp_dir().join(format!("swiftt-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:29] { printf("t%d", i); }"#,
            "-n",
            "6",
            "--report",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 30, "all tasks ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("task latency       : p50 "), "{stderr}");
    assert!(stderr.contains("queue wait         : p50 "), "{stderr}");
    assert!(stderr.contains("eval time          : p50 "), "{stderr}");
    let body = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(body.starts_with("{\"traceEvents\":["));
    assert_eq!(
        body.matches("\"name\":\"task_eval\"").count(),
        30,
        "one exported eval span per task"
    );
}
