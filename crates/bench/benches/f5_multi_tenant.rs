//! F5 (multi-tenancy series) — what sharing one world among N Swift
//! programs costs, and whether the deficit-round-robin scheduler
//! actually delivers the configured weighted shares.
//!
//! Series A holds the total task count and worker pool fixed and sweeps
//! the tenant count: 1 tenant is the dedicated-world floor, N tenants
//! split the same work across N submitters with equal weights. The
//! acceptance bar from the tenant-subsystem issue: 4-tenant aggregate
//! throughput stays within 20% of the single-tenant floor (admission
//! and fair-share election are per-request bookkeeping on the server's
//! hot path, so the gap measures exactly that overhead).
//!
//! Series B floods one server from four submitters with weights
//! 4:2:1:1 and reports each tenant's share of contended deliveries
//! (deliveries made while another tenant also had eligible work — the
//! only regime where "share" is defined) against the weight vector.
//!
//! Writes `BENCH_f5.json`, a record of this figure; performance claims
//! cite the pinned benchmark (`benchmark/`) instead.

use std::sync::Mutex;
use std::time::Duration;

use adlb::{
    merge_tenant_rows, serve_ext, AdlbClient, ClientConfig, Layout, ServerConfig, TenantSpec,
    TenantStats, WORK_TYPE_WORK,
};
use mpisim::World;
use swiftt_bench::{banner, header, ms, rate, row, smoke, time_median, BenchReport, Json};

/// One submitter per tenant floods `tasks_per_tenant` tasks; `workers`
/// workers drain everyone through one server scheduling by `weights`.
/// Returns (wall, merged per-tenant counters).
fn shared_world(
    weights: &[u32],
    tasks_per_tenant: &[usize],
    workers: usize,
) -> (Duration, Vec<(u32, TenantStats)>) {
    let tenants = weights.len();
    assert_eq!(tenants, tasks_per_tenant.len());
    let servers = 1usize;
    let size = tenants + workers + servers;
    let layout = Layout::new(size, servers);
    let specs: Vec<TenantSpec> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| TenantSpec::new(i as u32, &format!("t{i}")).weight(*w))
        .collect();
    let config = ServerConfig {
        tenants: specs,
        ..ServerConfig::default()
    };
    let total: usize = tasks_per_tenant.iter().sum();
    let rows = Mutex::new(Vec::new());
    let reps = if smoke() { 1 } else { 3 };
    let counts = tasks_per_tenant.to_vec();
    let d = time_median(reps, || {
        let config = config.clone();
        let counts = counts.clone();
        let executed: Vec<(u64, Vec<(u32, TenantStats)>)> = World::run(size, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let outcome = serve_ext(comm, layout, config.clone());
                return (0, outcome.tenant_rows);
            }
            let mut client = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            if rank < counts.len() {
                // Submitter rank i is tenant i.
                client.set_tenant(rank as u32);
                for _ in 0..counts[rank] {
                    client.put(WORK_TYPE_WORK, 0, None, b"payload".to_vec());
                }
                client.finish();
                return (0, Vec::new());
            }
            let mut n = 0u64;
            while client.get(&[WORK_TYPE_WORK]).is_some() {
                n += 1;
            }
            (n, Vec::new())
        });
        let done: u64 = executed.iter().map(|(n, _)| n).sum();
        assert_eq!(done, total as u64, "every tenant's tasks must run");
        let mut merged = Vec::new();
        for (_, r) in &executed {
            merge_tenant_rows(&mut merged, r);
        }
        *rows.lock().unwrap() = merged;
    });
    let rows = rows.into_inner().unwrap();
    (d, rows)
}

fn main() {
    banner(
        "F5-TENANTS",
        "multi-tenant worlds: admission overhead and weighted fair shares",
        "N programs share one server fleet; DRR election tracks the weight vector",
    );

    let mut report = BenchReport::new("f5");
    let total_tasks = if smoke() { 400 } else { 4000 };
    let workers = 4usize;

    println!();
    println!("series A: fixed work ({total_tasks} tasks), equal weights, tenant-count sweep");
    header("tenants", &["makespan ms", "agg tasks/s", "vs 1 tenant"]);
    let sweep: &[usize] = if smoke() { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut solo_rate = None;
    let mut four_rate = None;
    for &tenants in sweep {
        let weights = vec![1u32; tenants];
        let per = vec![total_tasks / tenants; tenants];
        let (d, _) = shared_world(&weights, &per, workers);
        let tput = total_tasks as f64 / d.as_secs_f64();
        if tenants == 1 {
            solo_rate = Some(tput);
        }
        if tenants == 4 {
            four_rate = Some(tput);
        }
        let vs = solo_rate
            .map(|s| format!("{:+.1}%", (tput / s - 1.0) * 100.0))
            .unwrap_or_default();
        row(
            &tenants.to_string(),
            &[ms(d), rate(total_tasks as u64, d), vs],
        );
        report.row(&[
            ("series", Json::Str("tenant_scaling".into())),
            ("tenants", Json::U64(tenants as u64)),
            ("workers", Json::U64(workers as u64)),
            ("tasks", Json::U64(total_tasks as u64)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
            ("tasks_per_sec", Json::F64(tput)),
        ]);
    }

    println!();
    println!("series B: four flooding tenants, weights 4:2:1:1, contended shares");
    header(
        "tenant",
        &["weight", "delivered", "contended", "share", "expected"],
    );
    let weights = [4u32, 2, 1, 1];
    let total_weight: u32 = weights.iter().sum();
    // Task counts proportional to the weights keep every queue
    // backlogged for the whole run — the contended regime.
    let scale = if smoke() { 40 } else { 400 };
    let per: Vec<usize> = weights.iter().map(|w| *w as usize * scale).collect();
    let (d, rows) = shared_world(&weights, &per, workers);
    let contended: u64 = rows.iter().map(|(_, s)| s.delivered_contended).sum();
    for (id, stats) in &rows {
        let share = if contended > 0 {
            stats.delivered_contended as f64 / contended as f64
        } else {
            0.0
        };
        let expected = weights[*id as usize] as f64 / total_weight as f64;
        row(
            &format!("t{id}"),
            &[
                weights[*id as usize].to_string(),
                stats.delivered.to_string(),
                stats.delivered_contended.to_string(),
                format!("{share:.3}"),
                format!("{expected:.3}"),
            ],
        );
        report.row(&[
            ("series", Json::Str("weighted_share".into())),
            ("tenant", Json::U64(*id as u64)),
            ("weight", Json::U64(weights[*id as usize] as u64)),
            ("delivered", Json::U64(stats.delivered)),
            ("delivered_contended", Json::U64(stats.delivered_contended)),
            ("share", Json::F64(share)),
            ("expected_share", Json::F64(expected)),
            ("wall_secs", Json::F64(d.as_secs_f64())),
        ]);
    }

    println!();
    println!("shape check: series A should be flat — tenant accounting is O(1) per");
    println!("request, so splitting the same work across 4 submitters must retain");
    println!(">=80% of single-tenant throughput. Series B shares should track the");
    println!("weight vector within ~15% relative.");
    if let (Some(solo), Some(four)) = (solo_rate, four_rate) {
        let retained = four / solo * 100.0;
        println!("4-tenant retention vs 1-tenant: {retained:.1}%");
        report.row(&[
            ("series", Json::Str("retention".into())),
            ("four_tenant_retention_pct", Json::F64(retained)),
        ]);
    }
    let path = report.write().expect("write BENCH_f5.json");
    println!("wrote {}", path.display());
}
