//! Recursive dataflow: composite functions that call themselves through
//! `if` branches. Each recursion level creates new futures and rules at
//! run time — the "pervasive, automatic concurrency" of §II.A applied to
//! a dynamic call tree.

mod common;

use common::FreedExactly;
use swiftt::core::Runtime;

#[test]
fn fibonacci_recursion() {
    let r = Runtime::new(4)
        .run(
            r#"
            (int o) fib (int n) {
                if (n < 2) { o = n; }
                else { o = fib(n - 1) + fib(n - 2); }
            }
            printf("%d", fib(12));
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "144\n");
}

#[test]
fn mutual_recursion() {
    let r = Runtime::new(4)
        .run(
            r#"
            (int o) is_even (int n) {
                if (n == 0) { o = 1; }
                else { o = is_odd(n - 1); }
            }
            (int o) is_odd (int n) {
                if (n == 0) { o = 0; }
                else { o = is_even(n - 1); }
            }
            printf("%d %d", is_even(10), is_odd(7));
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "1 1\n");
}

#[test]
fn recursive_tree_spawns_leaf_work() {
    // Binary recursion bottoming out in leaf tasks: the dynamic call tree
    // generates 2^depth leaves distributed over workers.
    let r = Runtime::new(8)
        .run(
            r#"
            (int o) unit (int x) [ "set <<o>> 1" ];
            (int o) count (int depth) {
                if (depth == 0) { o = unit(0); }
                else { o = count(depth - 1) + count(depth - 1); }
            }
            printf("%d", count(5));
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "32\n");
    let leaf_tasks = r.outputs.iter().map(|o| o.tasks_executed).sum::<u64>();
    // 32 unit leaves + 1 printf.
    assert_eq!(leaf_tasks, 33);
}

#[test]
fn ackermann_small() {
    // Deep recursion through nested ifs; ack(2, 3) = 9.
    let r = Runtime::new(4)
        .run(
            r#"
            (int o) ack (int m, int n) {
                if (m == 0) { o = n + 1; }
                else if (n == 0) { o = ack(m - 1, 1); }
                else { o = ack(m - 1, ack(m, n - 1)); }
            }
            printf("%d", ack(2, 3));
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "9\n");
}
