//! Multi-tenant end-to-end: N Swift programs sharing one simulated
//! machine, with weighted fair scheduling and admission quotas.
//!
//! The acceptance bar from the tenant-subsystem issue:
//!
//! * per-tenant output byte-identical to running each program solo;
//! * delivered-task shares within 15% of the configured weights under
//!   sustained contention;
//! * a quota-capped flooding tenant sees its puts rejected (counted in
//!   the report) without degrading a neighbor's p95 task latency by more
//!   than 2x;
//! * one tenant's program failure is contained to its report.

use swiftt::core::{Runtime, SwiftTError, TenantQuota, TenantSpec, TurbineProgram};

/// A program that prints `name` exactly `n` times, as `n` independent
/// leaf tasks. Every line is identical, so its stdout is deterministic
/// (byte-identical across runs and machine shapes) no matter which
/// workers execute the tasks or in what order.
fn spam(name: &str, n: usize) -> String {
    format!(
        r#"
        foreach i in [0:{}] {{
            printf("{}");
        }}
        "#,
        n - 1,
        name
    )
}

/// Like [`spam`], but each leaf task also spins `spin` Tcl loop
/// iterations before printing. Engines submit much faster than workers
/// can evaluate these, so the server-side queues stay backlogged — the
/// contended regime where fair-share scheduling and admission quotas are
/// actually exercised. Output stays deterministic: `n` identical lines.
fn slow_spam(name: &str, n: usize, spin: usize) -> String {
    format!(
        r#"
        (int o) slowline (int x) [ "for {{set k 0}} {{$k < {spin}}} {{incr k}} {{}}; puts {name}; set <<o>> <<x>>" ];
        foreach i in [0:{}] {{
            int v = slowline(i);
        }}
        "#,
        n - 1
    )
}

#[test]
fn four_tenants_match_solo_output_and_weighted_shares() {
    // Task counts proportional to the weights keep every tenant
    // backlogged for (roughly) the whole run, which is the regime where
    // DRR shares are measurable.
    let jobs: &[(&str, u32, usize)] = &[
        ("whale", 4, 240),
        ("shark", 2, 120),
        ("crab", 1, 60),
        ("krill", 1, 60),
    ];

    let mut rt = Runtime::new(8).servers(1);
    for (name, weight, n) in jobs {
        rt = rt.submit(*name, *weight, None, slow_spam(name, *n, 800));
    }
    let r = rt.run_tenants().unwrap();
    assert_eq!(r.tenants.len(), 4);

    // Byte-identical per-tenant output vs a solo run of the same source.
    for (i, (name, _, n)) in jobs.iter().enumerate() {
        let solo = Runtime::new(4)
            .run(&slow_spam(name, *n, 800))
            .unwrap()
            .stdout;
        let t = r.tenant(i as u32).unwrap();
        assert_eq!(t.name, *name);
        assert_eq!(
            t.stdout, solo,
            "tenant {name} output differs from its solo run"
        );
        assert!(t.error.is_none(), "tenant {name} failed: {:?}", t.error);
    }
    // The run-level stdout is the tenant-order concatenation.
    let concat: String = r.tenants.iter().map(|t| t.stdout.as_str()).collect();
    assert_eq!(r.stdout, concat);

    // Delivered shares track the weights. Only contended deliveries
    // count (when one tenant has the queues to itself, fairness is
    // undefined), and the 15% tolerance is relative to each weight.
    let total_weight: u32 = jobs.iter().map(|(_, w, _)| *w).sum();
    let contended: u64 = r.tenants.iter().map(|t| t.stats.delivered_contended).sum();
    assert!(
        contended >= 100,
        "not enough contended deliveries ({contended}) to measure shares"
    );
    for (i, (name, weight, _)) in jobs.iter().enumerate() {
        let t = r.tenant(i as u32).unwrap();
        let share = t
            .share_of_delivered
            .expect("contended run must report shares");
        let expected = *weight as f64 / total_weight as f64;
        assert!(
            (share - expected).abs() <= 0.15 * expected,
            "tenant {name}: share {share:.3} vs expected {expected:.3} (weight {weight})"
        );
    }
}

#[test]
fn quota_capped_flood_is_rejected_without_starving_neighbors() {
    // Slow leaf tasks make the worker pool the bottleneck: the flooding
    // engine submits far faster than its share drains, so its queue hits
    // the cap and puts bounce. The steady program is identical between
    // the solo baseline and the shared run, so the p95 comparison
    // isolates the flood's effect.
    let steady = slow_spam("steady", 80, 800);
    let flood = slow_spam("flood", 300, 800);

    // Baseline: the steady program running as the only tenant.
    let solo = Runtime::new(6)
        .servers(1)
        .tracing(true)
        .submit("steady", 4, None, steady.clone())
        .run_tenants()
        .unwrap();
    let solo_p95 = solo
        .tenant(0)
        .unwrap()
        .latency
        .expect("traced run has task latency")
        .p95_us;

    // Same program beside a flooding tenant whose queue is capped.
    let quota = TenantQuota {
        max_queued: Some(8),
        max_leases: None,
    };
    let r = Runtime::new(6)
        .servers(1)
        .tracing(true)
        .submit("steady", 4, None, steady)
        .submit("flood", 1, Some(quota), flood)
        .run_tenants()
        .unwrap();

    let fl = r.tenant(1).unwrap();
    assert!(
        fl.stats.rejected > 0,
        "flooding tenant should have had puts NACKed (stats: {:?})",
        fl.stats
    );
    // Backpressure, not loss: every flood line still comes out.
    assert_eq!(fl.stdout.lines().count(), 300);

    let st = r.tenant(0).unwrap();
    assert!(st.error.is_none());
    assert_eq!(st.stdout.lines().count(), 80);
    let shared_p95 = st.latency.expect("traced run has task latency").p95_us;
    // The quota + 4:1 weight split must keep the neighbor's tail latency
    // within 2x of its solo tail (small additive slack absorbs scheduler
    // noise on loaded CI machines).
    assert!(
        shared_p95 <= 2 * solo_p95 + 2_000,
        "steady p95 degraded from {solo_p95}us solo to {shared_p95}us beside the flood"
    );
}

#[test]
fn tenant_failure_is_contained_to_its_report() {
    let r = Runtime::new(6)
        .servers(1)
        .submit(
            "broken",
            1,
            None,
            "assert(1 == 2, \"tenant zero is broken\");",
        )
        .submit("healthy", 1, None, spam("healthy", 20))
        .run_tenants()
        .unwrap();
    let broken = r.tenant(0).unwrap();
    let healthy = r.tenant(1).unwrap();
    assert!(
        broken
            .error
            .as_deref()
            .is_some_and(|e| e.contains("tenant zero is broken")),
        "expected contained assertion failure, got {:?}",
        broken.error
    );
    assert!(healthy.error.is_none());
    assert_eq!(healthy.stdout.lines().count(), 20);
}

#[test]
fn nonsense_configs_are_rejected_up_front() {
    let config_err = |r: Result<swiftt::core::RunResult, SwiftTError>| match r {
        Err(SwiftTError::Config(m)) => m,
        other => panic!("expected a config error, got {other:?}"),
    };

    // Replication beyond the server count.
    let m = config_err(
        Runtime::new(6)
            .servers(2)
            .replication(3)
            .run("printf(\"x\");"),
    );
    assert!(m.contains("replication"), "{m}");

    // Server count that leaves no clients.
    let m = config_err(Runtime::new(4).servers(4).run("printf(\"x\");"));
    assert!(m.contains("server"), "{m}");

    // No workers left after engines + servers.
    let m = config_err(Runtime::new(4).servers(1).engines(3).run("printf(\"x\");"));
    assert!(m.contains("worker"), "{m}");

    // Resume with the checkpoint tier turned off.
    let m = config_err(
        Runtime::new(4)
            .checkpoint(0)
            .resume(true)
            .run("printf(\"x\");"),
    );
    assert!(m.contains("resume"), "{m}");

    // A tenant quota that could never admit or deliver anything.
    let q = TenantQuota {
        max_queued: Some(0),
        max_leases: None,
    };
    let m = config_err(
        Runtime::new(5)
            .submit("t", 1, Some(q), "printf(\"x\");")
            .run_tenants(),
    );
    assert!(m.contains("max_queued"), "{m}");

    // run_tenants with nothing submitted.
    let m = config_err(Runtime::new(5).run_tenants());
    assert!(m.contains("submit"), "{m}");
}

#[test]
fn a_lone_program_is_tenant_zero_of_the_one_run_path() {
    // `run` and a one-program `run_tenants` are the same run: the same
    // bytes out and one report, whether that program has one engine or
    // two (engine 1 then serves program 0 too).
    let src = spam("main", 24);
    for engines in [1, 2] {
        let rt = Runtime::new(6).engines(engines);
        let alone = rt.run(&src).unwrap();
        let submitted = rt
            .clone()
            .submit("main", 1, None, src.clone())
            .run_tenants()
            .unwrap();
        for r in [&alone, &submitted] {
            assert_eq!(r.stdout, "main\n".repeat(24), "engines({engines})");
            assert_eq!(r.tenants.len(), 1, "engines({engines})");
            let t = r.tenant(0).unwrap();
            assert_eq!(
                (t.name.as_str(), t.stdout.as_str()),
                ("main", r.stdout.as_str())
            );
            assert!(t.error.is_none());
        }
        assert_eq!(alone.stdout, submitted.stdout);
    }
}

#[test]
fn a_failing_main_fails_a_lone_run_and_is_contained_beside_a_neighbor() {
    let broken = || TurbineProgram {
        main: "error {main is broken}".into(),
        ..TurbineProgram::default()
    };
    match Runtime::new(5).run_turbine(broken()) {
        Err(SwiftTError::Runtime(m)) => {
            assert!(m.contains("program main failed: main is broken"), "{m}")
        }
        other => panic!("a lone failing main must fail the run, got {other:?}"),
    }
    let healthy = TurbineProgram {
        main: "turbine::spawn work 0 {puts survived}".into(),
        ..TurbineProgram::default()
    };
    let r = Runtime::new(5)
        .run_turbine_tenants(vec![
            (TenantSpec::new(0, "broken"), broken()),
            (TenantSpec::new(1, "healthy"), healthy),
        ])
        .unwrap();
    let err = r.tenant(0).unwrap().error.as_deref().unwrap_or_default();
    assert!(err.contains("program main failed: main is broken"), "{err}");
    assert!(r.tenant(1).unwrap().error.is_none());
    assert_eq!(r.tenant(1).unwrap().stdout, "survived\n");
    assert_eq!(r.stdout, "survived\n");
}
