//! F2 — Fig. 2: the engine/server/worker architecture scales task
//! throughput.
//!
//! Swift/T's evaluation style (CCGrid'13 [2], Turbine [4]) reports task
//! rates against rank counts. Two regimes are shown:
//!
//! * **distribution scaling** (series A): per-task simulated cost; the
//!   virtual makespan — max per-worker assigned cost — must shrink with
//!   worker count. (Wall-clock speedup is meaningless on a 1-core CI
//!   host, so the assignment itself is the measurement.)
//! * **control-plane ceiling** (series B): zero-cost tasks; throughput is
//!   capped by the engine+server message path no matter how many workers
//!   listen — the task-rate ceiling the Turbine papers optimize. This is
//!   real serial work, so wall-clock is valid on any host.
//!
//! Series C and D vary the control side itself (servers, engines).

use std::time::Duration;

use swiftt_bench::{banner, header, ms, rate, row, smoke, time_median, BenchReport, Json};
use swiftt_core::{Role, Runtime};

/// Bag of `n` tasks; each prints `cost <units>` from its worker.
fn costed_bag(n: usize, cost: u64) -> String {
    format!(
        r#"
        (int o) work (int i) [
            "puts {{cost {cost}}}
             set <<o>> <<i>>"
        ];
        foreach i in [1:{n}] {{
            int s = work(i);
        }}
    "#
    )
}

fn worker_costs(r: &swiftt_core::RunResult) -> Vec<u64> {
    r.outputs
        .iter()
        .filter(|o| o.role == Role::Worker)
        .map(|o| {
            o.stdout
                .lines()
                .filter_map(|l| l.strip_prefix("cost "))
                .filter_map(|v| v.parse::<u64>().ok())
                .sum()
        })
        .collect()
}

/// Series E: raw ADLB control-plane throughput. One submitter floods
/// `tasks` tasks of `payload` bytes; `workers` workers drain them through
/// a single server. This isolates the put/get protocol cost — no
/// interpreter, no dataflow — so it is the direct measure of the wire
/// pipeline (and the acceptance gauge for batching changes).
fn adlb_throughput(workers: usize, payload: usize, tasks: usize, batching: bool) -> Duration {
    use adlb::{serve, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK};
    use mpisim::World;

    let size = workers + 2; // submitter + workers + server
    let layout = Layout::new(size, 1);
    let body = vec![0x61u8; payload];
    let reps = if smoke() { 1 } else { 3 };
    // Batched: prefetch + pipelined puts (the default wire protocol).
    // Unbatched: the PR 1 one-task-per-round-trip protocol (ablation E5).
    let config = if batching {
        ClientConfig::batched()
    } else {
        ClientConfig::unbatched()
    };
    time_median(reps, || {
        let body = body.clone();
        let executed: Vec<u64> = World::run(size, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve(comm, layout, ServerConfig::default());
                return 0u64;
            }
            let mut client = AdlbClient::with_config(comm, layout, config);
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
        assert_eq!(executed.iter().sum::<u64>(), tasks as u64);
    })
}

/// Run series E over worker and payload sweeps, printing the table and
/// appending machine-readable rows to `report`.
fn payload_series(report: &mut BenchReport) {
    let tasks = if smoke() { 300 } else { 2000 };

    println!();
    println!("series E: raw ADLB put/get pipeline (1 server, wall)");
    header("workers x payload", &["batching", "makespan ms", "tasks/s"]);
    let mut record = |workers: usize, payload: usize, batching: bool| {
        let d = adlb_throughput(workers, payload, tasks, batching);
        row(
            &format!("{workers} x {payload}B"),
            &[
                if batching { "on" } else { "off" }.to_string(),
                ms(d),
                rate(tasks as u64, d),
            ],
        );
        report.row(&[
            ("series", Json::Str("adlb_pipeline".into())),
            ("workers", Json::U64(workers as u64)),
            ("servers", Json::U64(1)),
            ("payload_bytes", Json::U64(payload as u64)),
            ("tasks", Json::U64(tasks as u64)),
            ("batching", Json::Bool(batching)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            ("tasks_per_sec", Json::F64(tasks as f64 / d.as_secs_f64())),
        ]);
    };
    for batching in [true, false] {
        for workers in [1usize, 2, 4, 8] {
            record(workers, 64, batching);
        }
        for payload in [1024usize, 16384] {
            record(8, payload, batching);
        }
    }
}

fn main() {
    banner(
        "F2",
        "task throughput vs machine shape (Fig. 2 architecture)",
        "work distribution scales with workers; trivial tasks expose the control-plane task-rate ceiling",
    );
    println!(
        "host parallelism: {} core(s)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let mut report = BenchReport::new("f2");

    let tasks = 192usize;
    let unit = 5u64;
    let program = costed_bag(tasks, unit);
    let total = tasks as u64 * unit;

    println!();
    println!("series A: work distribution, workers sweep (virtual units)");
    header("workers", &["virt makespan", "ideal", "imbalance", "busy"]);
    let worker_sweep: &[usize] = if smoke() {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    for &workers in worker_sweep {
        let rt = Runtime::new(workers + 2);
        let r = rt.run(&program).expect("run failed");
        let costs = worker_costs(&r);
        assert_eq!(costs.iter().sum::<u64>(), total);
        let makespan = *costs.iter().max().unwrap();
        let ideal = total.div_ceil(workers as u64);
        row(
            &workers.to_string(),
            &[
                makespan.to_string(),
                ideal.to_string(),
                format!("{:.2}x", makespan as f64 / ideal as f64),
                costs.iter().filter(|&&c| c > 0).count().to_string(),
            ],
        );
    }

    println!();
    println!("series B: zero-work tasks — control-plane task-rate ceiling (wall)");
    header("workers", &["makespan ms", "tasks/s"]);
    let noop_tasks = if smoke() { 120 } else { 600 };
    let noop = costed_bag(noop_tasks, 0);
    let b_sweep: &[usize] = if smoke() { &[4] } else { &[1, 4, 16] };
    for &workers in b_sweep {
        let rt = Runtime::new(workers + 2);
        let d = time_median(if smoke() { 1 } else { 3 }, || {
            rt.run(&noop).expect("run failed");
        });
        row(&workers.to_string(), &[ms(d), rate(noop_tasks as u64, d)]);
        report.row(&[
            ("series", Json::Str("turbine_ceiling".into())),
            ("workers", Json::U64(workers as u64)),
            ("servers", Json::U64(1)),
            ("tasks", Json::U64(noop_tasks as u64)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            (
                "tasks_per_sec",
                Json::F64(noop_tasks as f64 / d.as_secs_f64()),
            ),
        ]);
    }

    // Series F: lifecycle-tracing overhead on the control-plane ceiling.
    // The recorder must be cheap enough that a traced run keeps (nearly)
    // the untraced task rate; CI gates on this via SWIFTT_TRACE_GATE.
    println!();
    println!("series F: task-lifecycle tracing overhead (zero-work tasks, wall)");
    header(
        "tracing",
        &["makespan ms", "tasks/s", "lat p50 µs", "lat p99 µs"],
    );
    let f_workers = 4usize;
    let f_reps = if smoke() { 1 } else { 3 };
    let rt_off = Runtime::new(f_workers + 2);
    let rt_on = Runtime::new(f_workers + 2).tracing(true);
    let d_off = time_median(f_reps, || {
        rt_off.run(&noop).expect("run failed");
    });
    let mut traced_result = None;
    let d_on = time_median(f_reps, || {
        traced_result = Some(rt_on.run(&noop).expect("run failed"));
    });
    let traced = traced_result.expect("traced run ran");
    let lat = traced.latency.and_then(|l| l.task_latency);
    let (p50, p99) = lat.map_or((0, 0), |s| (s.p50_us, s.p99_us));
    row(
        "off",
        &[
            ms(d_off),
            rate(noop_tasks as u64, d_off),
            "-".into(),
            "-".into(),
        ],
    );
    row(
        "on",
        &[
            ms(d_on),
            rate(noop_tasks as u64, d_on),
            p50.to_string(),
            p99.to_string(),
        ],
    );
    for (tracing, d) in [(false, d_off), (true, d_on)] {
        let mut fields = vec![
            ("series", Json::Str("tracing_overhead".into())),
            ("workers", Json::U64(f_workers as u64)),
            ("tasks", Json::U64(noop_tasks as u64)),
            ("tracing", Json::Bool(tracing)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            (
                "tasks_per_sec",
                Json::F64(noop_tasks as f64 / d.as_secs_f64()),
            ),
        ];
        if tracing {
            if let Some(s) = lat {
                fields.push(("task_latency_p50_us", Json::U64(s.p50_us)));
                fields.push(("task_latency_p95_us", Json::U64(s.p95_us)));
                fields.push(("task_latency_p99_us", Json::U64(s.p99_us)));
            }
        }
        report.row(&fields);
    }
    // The trace doubles as a CI artifact: a Chrome-loadable timeline of
    // the ceiling workload, written next to the BENCH_*.json files.
    let trace_dir = std::env::var_os("SWIFTT_BENCH_DIR").map(std::path::PathBuf::from);
    if let Some(dir) = trace_dir {
        let path = dir.join("trace.json");
        traced.write_trace(&path).expect("write trace.json");
        println!("wrote {}", path.display());
    }
    assert_eq!(
        mpisim::trace::count_kind(&traced.traces, mpisim::trace::KIND_TASK_EVAL),
        traced.total_tasks(),
        "trace eval spans must reconcile with executed-task counter"
    );
    if std::env::var("SWIFTT_TRACE_GATE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        let ratio = d_off.as_secs_f64() / d_on.as_secs_f64();
        assert!(
            ratio >= 0.9,
            "traced throughput fell below 90% of untraced ({:.1}%)",
            ratio * 100.0
        );
        println!(
            "trace gate: traced run at {:.1}% of untraced throughput",
            ratio * 100.0
        );
    }

    payload_series(&mut report);

    if smoke() {
        let path = report.write().expect("write BENCH_f2.json");
        println!();
        println!("smoke mode: wrote {}", path.display());
        return;
    }

    println!();
    println!("series C: servers at 16 workers (distribution + steal traffic;");
    println!("tasks carry real wall cost so queues persist long enough to steal)");
    header("servers", &["virt makespan", "imbalance", "steals"]);
    // Instant tasks would drain at the submitting server before steal
    // requests find surplus; give each task a real busy-wait.
    let busy_program = format!(
        r#"
        (int o) work (int i) [
            "puts {{cost {unit}}}
             set acc 0
             for {{set k 0}} {{$k < 4000}} {{incr k}} {{ incr acc 1 }}
             set <<o>> <<i>>"
        ];
        foreach i in [1:{tasks}] {{
            int s = work(i);
        }}
    "#
    );
    for servers in [1usize, 2, 4] {
        let rt = Runtime::new(16 + 1 + servers).servers(servers);
        let r = rt.run(&busy_program).expect("run failed");
        let costs = worker_costs(&r);
        let makespan = *costs.iter().max().unwrap();
        let ideal = total.div_ceil(16);
        row(
            &servers.to_string(),
            &[
                makespan.to_string(),
                format!("{:.2}x", makespan as f64 / ideal as f64),
                r.server_totals().tasks_stolen.to_string(),
            ],
        );
    }

    println!();
    println!("series D: engines at 16 workers, 2 servers (control fan-out)");
    header("engines", &["virt makespan", "rules on e0", "rules on e1+"]);
    for engines in [1usize, 2, 4] {
        let rt = Runtime::new(16 + engines + 2).servers(2).engines(engines);
        let r = rt.run(&program).expect("run failed");
        let costs = worker_costs(&r);
        let makespan = *costs.iter().max().unwrap();
        let rules: Vec<u64> = r
            .outputs
            .iter()
            .filter(|o| o.role == Role::Engine)
            .map(|o| o.rules_created)
            .collect();
        row(
            &engines.to_string(),
            &[
                makespan.to_string(),
                rules[0].to_string(),
                rules[1..].iter().sum::<u64>().to_string(),
            ],
        );
    }
    println!();
    println!("shape check: series A tracks ideal until saturation; series B is flat-");
    println!("to-declining (control-bound); series D moves rule creation off engine 0.");
    let path = report.write().expect("write BENCH_f2.json");
    println!("wrote {}", path.display());
}
