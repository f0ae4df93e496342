//! F3 (fault-tolerance series) — what server-tier replication costs, and
//! what a failover costs.
//!
//! Series A sweeps the raw ADLB put/get pipeline (as in F2 series E) over
//! `replication = 1` vs `2` on a 2-server layout: replication is
//! write-through on the request path, so its price is one extra send per
//! mutating request per replica holder. Series B kills one server mid-run
//! at `replication = 2` and compares the makespan against the same
//! workload fault-free: the difference is the price of a failover
//! (suspect → confirm → promote → replay) as seen by the application.
//!
//! Writes `BENCH_f3.json`, a record of this figure; performance claims
//! cite the pinned benchmark (`benchmark/`) instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adlb::{serve_ext, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK};
use mpisim::{FaultPlan, Point, World};
use swiftt_bench::{banner, header, ms, rate, row, smoke, time_median, BenchReport, Json};

/// One submitter floods `tasks` tasks of `payload` bytes; `workers`
/// workers drain them through 2 servers at the given replication factor.
/// Returns (wall, total replication ops shipped).
fn pipeline(workers: usize, payload: usize, tasks: usize, replication: usize) -> (Duration, u64) {
    let servers = 2usize;
    let size = workers + 1 + servers;
    let layout = Layout::new(size, servers);
    let body = vec![0x61u8; payload];
    let config = ServerConfig {
        replication,
        ..ServerConfig::default()
    };
    let repl_ops = AtomicU64::new(0);
    let reps = if smoke() { 1 } else { 3 };
    let d = time_median(reps, || {
        let body = body.clone();
        let config = config.clone();
        let executed: Vec<u64> = World::run(size, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                return serve_ext(comm, layout, config.clone()).stats.repl_ops;
            }
            let mut client = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            if rank == 0 {
                for _ in 0..tasks {
                    client.put(WORK_TYPE_WORK, 0, None, body.clone());
                }
                client.finish();
                return 0;
            }
            let mut n = 0u64;
            while client.get(&[WORK_TYPE_WORK]).is_some() {
                n += 1;
            }
            n
        });
        // Server ranks returned repl_ops; worker ranks returned counts.
        let servers_ops: u64 = executed[workers + 1..].iter().sum();
        let done: u64 = executed[..workers + 1].iter().sum();
        assert_eq!(done, tasks as u64);
        repl_ops.store(servers_ops, Ordering::Relaxed);
    });
    (d, repl_ops.load(Ordering::Relaxed))
}

/// The F2-style workload with per-task think time (so the kill lands
/// mid-run), optionally killing the last server, which holds the first's
/// replica, once it applied `kill_updates` of its op batches. Returns
/// (wall, failovers observed).
fn faulted_run(tasks: u64, kill_updates: Option<u64>) -> (Duration, u64) {
    let workers = 4usize;
    let servers = 2usize;
    let size = workers + 1 + servers;
    let layout = Layout::new(size, servers);
    let victim = size - 1; // the non-master server
    let plan = match kill_updates {
        Some(n) => FaultPlan::new().kill_at(victim, Point::ReplicaUpdated, n),
        None => FaultPlan::new(),
    };
    let failovers = AtomicU64::new(0);
    let config = ServerConfig {
        replication: 2,
        ..ServerConfig::default()
    };
    let reps = if smoke() { 1 } else { 3 };
    let d = time_median(reps, || {
        let config = config.clone();
        let outcome = World::run_faulty(size, &plan, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                return serve_ext(comm, layout, config.clone()).stats.failovers;
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..tasks {
                    client.put(WORK_TYPE_WORK, 0, None, tid.to_le_bytes().to_vec());
                }
                client.finish();
                return 0;
            }
            let mut n = 0u64;
            while client.get(&[WORK_TYPE_WORK]).is_some() {
                n += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            n
        });
        let done: u64 = outcome
            .outputs
            .iter()
            .take(workers + 1)
            .map(|o| o.unwrap_or(0))
            .sum();
        assert_eq!(done, tasks, "every task executed despite the death");
        assert_eq!(
            outcome.killed.is_empty(),
            kill_updates.is_none(),
            "the scheduled kill must land mid-run"
        );
        let promoted: u64 = outcome
            .outputs
            .iter()
            .skip(workers + 1)
            .map(|o| o.unwrap_or(0))
            .sum();
        failovers.store(promoted, Ordering::Relaxed);
    });
    (d, failovers.load(Ordering::Relaxed))
}

fn main() {
    banner(
        "F3-FT",
        "server-tier replication: write-through overhead and failover cost",
        "R=2 pays one extra send per mutating request per replica; a failover costs suspicion + promotion, not the run",
    );

    let mut report = BenchReport::new("f3");
    let tasks = if smoke() { 300 } else { 2000 };

    println!();
    println!("series A: put/get pipeline, 2 servers, replication 1 vs 2 (wall)");
    header(
        "workers x payload",
        &["R", "makespan ms", "tasks/s", "repl ops"],
    );
    let worker_sweep: &[usize] = if smoke() { &[4] } else { &[2, 4, 8] };
    let payload_sweep: &[usize] = if smoke() { &[64] } else { &[64, 1024] };
    for &payload in payload_sweep {
        for &workers in worker_sweep {
            for replication in [1usize, 2] {
                let (d, repl_ops) = pipeline(workers, payload, tasks, replication);
                row(
                    &format!("{workers} x {payload}B"),
                    &[
                        replication.to_string(),
                        ms(d),
                        rate(tasks as u64, d),
                        repl_ops.to_string(),
                    ],
                );
                report.row(&[
                    ("series", Json::Str("replication_overhead".into())),
                    ("workers", Json::U64(workers as u64)),
                    ("servers", Json::U64(2)),
                    ("payload_bytes", Json::U64(payload as u64)),
                    ("tasks", Json::U64(tasks as u64)),
                    ("replication", Json::U64(replication as u64)),
                    ("repl_ops", Json::U64(repl_ops)),
                    ("wall_secs", Json::F64(d.as_secs_f64())),
                    ("tasks_per_sec", Json::F64(tasks as f64 / d.as_secs_f64())),
                ]);
            }
        }
    }

    println!();
    println!("series B: failover cost — kill the 2nd server mid-run at R=2 (wall)");
    header("schedule", &["makespan ms", "failovers", "overhead ms"]);
    let ft_tasks = if smoke() { 60 } else { 160 };
    let (clean, _) = faulted_run(ft_tasks, None);
    row("fault-free", &[ms(clean), "0".into(), "-".into()]);
    report.row(&[
        ("series", Json::Str("failover_recovery".into())),
        ("tasks", Json::U64(ft_tasks)),
        ("replication", Json::U64(2)),
        ("kill_replica_updates", Json::U64(0)),
        ("failovers", Json::U64(0)),
        ("wall_secs", Json::F64(clean.as_secs_f64())),
        ("recovery_overhead_secs", Json::F64(0.0)),
    ]);
    for kill_updates in [8u64, 40] {
        let (d, failovers) = faulted_run(ft_tasks, Some(kill_updates));
        let overhead = d.saturating_sub(clean);
        row(
            &format!("kill@{kill_updates} updates"),
            &[ms(d), failovers.to_string(), ms(overhead)],
        );
        report.row(&[
            ("series", Json::Str("failover_recovery".into())),
            ("tasks", Json::U64(ft_tasks)),
            ("replication", Json::U64(2)),
            ("kill_replica_updates", Json::U64(kill_updates)),
            ("failovers", Json::U64(failovers)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            ("recovery_overhead_secs", Json::F64(overhead.as_secs_f64())),
        ]);
    }

    println!();
    println!("shape check: series A's R=2 rows trail R=1 by the write-through");
    println!("amplification (repl ops > 0 only at R=2); series B completes every");
    println!("task with exactly one promotion and bounded overhead.");
    let path = report.write().expect("write BENCH_f3.json");
    println!("wrote {}", path.display());
}
