//! F4 (durability series) — what the pfs-backed checkpoint/WAL tier
//! costs while nothing fails.
//!
//! Series A sweeps the group-commit interval over the raw ADLB put/get
//! pipeline (as in F3 series A): `off` is the floor, `1` logs every op
//! as its own WAL record (one metadata op + one data op per request —
//! the paper's §IV small-file storm), larger intervals amortize the
//! flush across a batch. While a record is unflushed every outbound
//! send is held, so the interval directly trades durability lag against
//! request latency.
//!
//! Series B pins the per-task vs batched comparison at one workload:
//! the record count is the number of pfs round-trips paid, the byte
//! count the log volume, and the wall-clock gap the group-commit win.
//!
//! Writes `BENCH_f4.json`, a record of this figure; performance claims
//! cite the pinned benchmark (`benchmark/`) instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adlb::{
    serve_ext, AdlbClient, CheckpointConfig, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK,
};
use mpisim::World;
use pfs::{Pfs, PfsConfig};
use swiftt_bench::{banner, header, ms, rate, row, smoke, time_median, BenchReport, Json};

/// Aggregated checkpoint-tier counters from one run's server ranks.
#[derive(Clone, Copy, Default)]
struct CkptCost {
    records: u64,
    ops: u64,
    segments: u64,
    bytes: u64,
}

/// One submitter floods `tasks` tasks; `workers` workers drain them
/// through 2 servers, checkpointing every `interval` ops (`None` = tier
/// off). Returns (wall, checkpoint counters).
fn pipeline(workers: usize, tasks: usize, interval: Option<usize>) -> (Duration, CkptCost) {
    let servers = 2usize;
    let size = workers + 1 + servers;
    let layout = Layout::new(size, servers);
    let records = AtomicU64::new(0);
    let ops = AtomicU64::new(0);
    let segments = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let reps = if smoke() { 1 } else { 3 };
    let d = time_median(reps, || {
        // Fresh filesystem per rep: an accumulated WAL would make later
        // reps pay for earlier reps' compactions.
        let checkpoint = interval
            .map(|n| CheckpointConfig::new(Arc::new(Pfs::new(PfsConfig::default()))).interval(n));
        let config = ServerConfig {
            checkpoint,
            ..ServerConfig::default()
        };
        let executed: Vec<[u64; 4]> = World::run(size, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let s = serve_ext(comm, layout, config.clone()).stats;
                return [s.ckpt_records, s.ckpt_ops, s.ckpt_segments, s.ckpt_bytes];
            }
            let mut client = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            if rank == 0 {
                for _ in 0..tasks {
                    client.put(WORK_TYPE_WORK, 0, None, b"payload".to_vec());
                }
                client.finish();
                return [0, 0, 0, 0];
            }
            let mut n = 0u64;
            while client.get(&[WORK_TYPE_WORK]).is_some() {
                n += 1;
            }
            [n, 0, 0, 0]
        });
        let done: u64 = executed[..workers + 1].iter().map(|r| r[0]).sum();
        assert_eq!(done, tasks as u64);
        let mut total = [0u64; 4];
        for r in &executed[workers + 1..] {
            for (t, v) in total.iter_mut().zip(r) {
                *t += v;
            }
        }
        records.store(total[0], Ordering::Relaxed);
        ops.store(total[1], Ordering::Relaxed);
        segments.store(total[2], Ordering::Relaxed);
        bytes.store(total[3], Ordering::Relaxed);
    });
    let cost = CkptCost {
        records: records.load(Ordering::Relaxed),
        ops: ops.load(Ordering::Relaxed),
        segments: segments.load(Ordering::Relaxed),
        bytes: bytes.load(Ordering::Relaxed),
    };
    (d, cost)
}

fn interval_label(interval: Option<usize>) -> String {
    match interval {
        None => "off".into(),
        Some(n) => n.to_string(),
    }
}

fn main() {
    banner(
        "F4-CKPT",
        "durable checkpoint/WAL tier: group-commit interval vs throughput",
        "per-op logging storms the pfs metadata server; batching amortizes it to noise",
    );

    let mut report = BenchReport::new("f4");
    let tasks = if smoke() { 200 } else { 1500 };
    let workers = 4usize;

    println!();
    println!("series A: put/get pipeline, 2 servers, checkpoint interval sweep (wall)");
    header(
        "interval",
        &["makespan ms", "tasks/s", "wal records", "segments", "bytes"],
    );
    let sweep: &[Option<usize>] = if smoke() {
        &[None, Some(1), Some(64)]
    } else {
        &[None, Some(1), Some(8), Some(64), Some(256)]
    };
    let mut off_wall = None;
    let mut default_wall = None;
    for &interval in sweep {
        let (d, cost) = pipeline(workers, tasks, interval);
        match interval {
            None => off_wall = Some(d),
            Some(adlb::CHECKPOINT_DEFAULT_INTERVAL) => default_wall = Some(d),
            _ => {}
        }
        row(
            &interval_label(interval),
            &[
                ms(d),
                rate(tasks as u64, d),
                cost.records.to_string(),
                cost.segments.to_string(),
                cost.bytes.to_string(),
            ],
        );
        report.row(&[
            ("series", Json::Str("interval_sweep".into())),
            ("workers", Json::U64(workers as u64)),
            ("servers", Json::U64(2)),
            ("tasks", Json::U64(tasks as u64)),
            ("interval", Json::U64(interval.unwrap_or(0) as u64)),
            ("ckpt_records", Json::U64(cost.records)),
            ("ckpt_ops", Json::U64(cost.ops)),
            ("ckpt_segments", Json::U64(cost.segments)),
            ("ckpt_bytes", Json::U64(cost.bytes)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            ("tasks_per_sec", Json::F64(tasks as f64 / d.as_secs_f64())),
        ]);
    }

    println!();
    println!("series B: per-task logging (interval 1) vs group commit (default)");
    header("granularity", &["makespan ms", "wal records", "bytes"]);
    for (label, interval) in [
        ("per-task", 1usize),
        ("batched", adlb::CHECKPOINT_DEFAULT_INTERVAL),
    ] {
        let (d, cost) = pipeline(workers, tasks, Some(interval));
        row(
            label,
            &[ms(d), cost.records.to_string(), cost.bytes.to_string()],
        );
        report.row(&[
            ("series", Json::Str("logging_granularity".into())),
            ("granularity", Json::Str(label.into())),
            ("workers", Json::U64(workers as u64)),
            ("tasks", Json::U64(tasks as u64)),
            ("interval", Json::U64(interval as u64)),
            ("ckpt_records", Json::U64(cost.records)),
            ("ckpt_bytes", Json::U64(cost.bytes)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
        ]);
    }

    println!();
    println!("shape check: series A degrades monotonically as the interval shrinks");
    println!("(records ~ mutations/interval); the default interval should sit within");
    println!("~15% of the tier-off floor, while interval 1 pays a pfs round-trip per");
    println!("mutation batch of one.");
    if let (Some(off), Some(def)) = (off_wall, default_wall) {
        let overhead = (def.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
        println!(
            "default-interval overhead vs off: {overhead:+.1}% ({} vs {})",
            ms(def),
            ms(off)
        );
    }
    let path = report.write().expect("write BENCH_f4.json");
    println!("wrote {}", path.display());
}
