//! Heap allocations per leaf task of two benchmark-shaped programs, run
//! end to end through `Runtime`: the bag (`bag_tcl`'s one-command Tcl
//! leaves) and the f → g → + pipeline into an array
//! (`pipeline_dataflow`'s shape). Each is run at `N` tasks and at none;
//! the difference over `N` is what one more task costs, every rank
//! thread's work included and set-up, compile and shutdown excluded. A
//! dedicated test binary: the counting global allocator sees every rank
//! thread of the run and no other test's work.
//!
//! Run it in release too (`cargo test --release --test allocs_per_task`):
//! that is the build the benchmark measures.

mod common;

use common::FreedExactly;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swiftt_core::Runtime;

/// Bag leaf tasks.
const BAG: usize = 2_000;

/// Pipeline iterations (two leaf tasks each).
const PIPE: usize = 1_000;

/// Allocations per bag leaf task: 32.2–32.9 over 10 debug and 11
/// release runs; the bound is the highest plus 10%. 112.7 before Tcl
/// values shared their text and argv and frames were recycled.
const BAG_BOUND: f64 = 36.2;

/// Allocations per pipeline leaf task: 78.2–79.3, bound as for
/// [`BAG_BOUND`]. 245.5 before.
const PIPE_BOUND: f64 = 87.2;

/// Heap allocations (and reallocations) made so far, by every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller's for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Tcl package of the pipeline's checksum leaf, as the benchmark's.
const BENCHUTIL_TCL: &str = r#"
proc benchutil::sum {c} {
    set s 0
    foreach v [turbine::container_values $c] { incr s $v }
    return $s
}
"#;

/// Run `source` on the benchmark's machine (one engine, two workers, one
/// server, batching on); returns its stdout and the allocations it made.
fn allocs_of(source: &str) -> (String, u64) {
    let rt = Runtime::new(4)
        .servers(1)
        .batching(true)
        .replication(1)
        .tcl_package("benchutil", "1.0", BENCHUTIL_TCL);
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = rt.run(source).unwrap().freed_exactly().stdout;
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The bag at `n` tasks, every 500th printing a sample.
fn bag(n: usize) -> (String, u64) {
    allocs_of(&format!(
        r#"(int o) work (int i) [
    "set <<o>> [ expr {{<<i>> * 3 + 7}} ]
     if {{<<i>> % 500 == 0}} {{ puts \"sample <<i>> $<<o>>\" }}"
];
foreach i in [1:{n}] {{
    int s = work(i);
}}
"#
    ))
}

/// The pipeline at `n` iterations, checksummed by one leaf at the end.
fn pipeline(n: usize) -> (String, u64) {
    allocs_of(&format!(
        r#"(int o) f (int i) [ "set <<o>> [ expr {{5 * <<i>> + 11}} ]" ];
(int o) g (int t) [ "set <<o>> [ expr {{<<t>> % 7}} ]" ];
(int o) checksum (int a[]) "benchutil" "1.0" [ "set <<o>> [ benchutil::sum <<a>> ]" ];
int out[];
foreach i in [0:{last}] {{
    int t = f(i);
    int u = g(t);
    int v = u + t;
    out[i] = v;
}}
int c = checksum(out);
printf("checksum %d", c);
"#,
        last = n as i64 - 1
    ))
}

/// One test, so no other test's work lands in a run's count.
#[test]
fn a_leaf_task_stays_within_its_allocation_bound() {
    let (_, bag0) = bag(0);
    let (out, bag_n) = bag(BAG);
    assert_eq!(out.lines().count(), BAG / 500, "{out}");
    let bag_per_task = (bag_n - bag0) as f64 / BAG as f64;

    let (_, pipe0) = pipeline(0);
    let (out, pipe_n) = pipeline(PIPE);
    let sum: i64 = (0..PIPE as i64)
        .map(|i| (5 * i + 11) % 7 + 5 * i + 11)
        .sum();
    assert_eq!(out, format!("checksum {sum}\n"));
    let pipe_per_task = (pipe_n - pipe0) as f64 / (2 * PIPE) as f64;

    println!("allocations per leaf task: bag {bag_per_task:.1}, pipeline {pipe_per_task:.1}");
    assert!(
        bag_per_task <= BAG_BOUND,
        "{bag_per_task:.1} allocations per bag task (bound {BAG_BOUND})"
    );
    assert!(
        pipe_per_task <= PIPE_BOUND,
        "{pipe_per_task:.1} allocations per pipeline task (bound {PIPE_BOUND})"
    );
}
