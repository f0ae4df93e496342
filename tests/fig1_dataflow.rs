//! Experiment F1 (correctness side): the paper's Fig. 1 dataflow.
//!
//! §II.A shows this loop and its implied dataflow graph — ten independent
//! f→g pipelines that Swift "will construct and execute in parallel on any
//! available resources":
//!
//! ```swift
//! foreach i in [0:9] {
//!     int t = f(i);
//!     if (g(t) == 0) { printf("g(%i) == 0", t); }
//! }
//! ```
//!
//! These tests run the program end to end on a simulated machine and check
//! the dataflow semantics: every pipeline runs, g(t) is blocked only on
//! its own f(t), and the work spreads over multiple workers.

mod common;

use common::FreedExactly;
use swiftt::core::Runtime;

/// f(i) = 3*i + 1; g(t) = t % 4 — so g(f(i)) == 0 iff (3i+1) % 4 == 0,
/// i.e. i ∈ {1, 5, 9} in [0:9].
const FIG1: &str = r#"
    (int o) f (int i) [ "set <<o>> [ expr {3 * <<i>> + 1} ]" ];
    (int o) g (int t) [ "set <<o>> [ expr {<<t>> % 4} ]" ];

    foreach i in [0:9] {
        int t = f(i);
        if (g(t) == 0) {
            printf("g(%i) == 0", t);
        }
    }
"#;

#[test]
fn fig1_produces_exactly_the_matching_lines() {
    let r = Runtime::new(6).run(FIG1).unwrap().freed_exactly();
    let mut lines: Vec<&str> = r.stdout.lines().collect();
    lines.sort();
    // i ∈ {1,5,9} → t ∈ {4,16,28}.
    assert_eq!(lines, vec!["g(16) == 0", "g(28) == 0", "g(4) == 0"]);
}

#[test]
fn fig1_runs_one_f_and_one_g_per_iteration() {
    let r = Runtime::new(6).run(FIG1).unwrap().freed_exactly();
    // 10×f + 10×g leaf tasks + 3 printf tasks.
    assert_eq!(r.total_tasks(), 23);
}

#[test]
fn fig1_pipelines_spread_across_workers() {
    // 12 ranks: 1 engine, 1 server, 10 workers — with 20 leaf tasks the
    // load balancer must use more than one worker.
    let r = Runtime::new(12).run(FIG1).unwrap().freed_exactly();
    assert!(
        r.busy_workers() >= 2,
        "expected parallel pipelines, got {} busy workers",
        r.busy_workers()
    );
}

#[test]
fn fig1_statement_order_is_irrelevant() {
    // Same program with the declaration *after* its use site inside the
    // loop body would be a parse error in C; in Swift the dataflow order
    // rules. Here we reorder whole statements at top level instead.
    let reordered = r#"
        foreach i in [0:9] {
            int t = f(i);
            if (g(t) == 0) {
                printf("g(%i) == 0", t);
            }
        }

        (int o) f (int i) [ "set <<o>> [ expr {3 * <<i>> + 1} ]" ];
        (int o) g (int t) [ "set <<o>> [ expr {<<t>> % 4} ]" ];
    "#;
    let r = Runtime::new(6).run(reordered).unwrap().freed_exactly();
    assert_eq!(r.stdout.lines().count(), 3);
}

#[test]
fn fig1_wide_version_scales() {
    // Widen the loop to 128 pipelines; all 2×128 leaf tasks must complete
    // and the right count of matches appear: (3i+1)%4==0 ⇔ i ≡ 1 (mod 4),
    // 32 matches in [0:127].
    let wide = r#"
        (int o) f (int i) [ "set <<o>> [ expr {3 * <<i>> + 1} ]" ];
        (int o) g (int t) [ "set <<o>> [ expr {<<t>> % 4} ]" ];
        foreach i in [0:127] {
            int t = f(i);
            if (g(t) == 0) { printf("hit %i", t); }
        }
    "#;
    let r = Runtime::new(10)
        .servers(2)
        .run(wide)
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout.lines().count(), 32);
    assert_eq!(r.total_tasks(), 128 * 2 + 32);
}
