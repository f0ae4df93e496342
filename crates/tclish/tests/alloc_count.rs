//! Heap allocations and dispatched commands per iteration of the Tcl
//! loop an `interlang_leaves` leaf runs: a proc whose `for` loop reads
//! its argument `$i`. A dedicated test binary, so the counting global
//! allocator sees no other test's work; the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tclish::Interp;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ITERS: u64 = 1_000;

/// The leaf body `stc` emits for `interlang_leaves`' Tcl rung.
const LEAF: &str = "proc leaf {i} {
    set acc 0
    for {set k 0} {$k < 1000} {incr k} { set acc [ expr {($acc + $k * $i) % 999983} ] }
    set a [ expr {$acc * 3 + $i} ]
}";

#[test]
fn the_leaf_loop_allocates_at_most_once_per_iteration() {
    let mut interp = Interp::new();
    interp.eval(LEAF).unwrap();
    // Warm the script and expression caches, as a worker's first task does.
    interp.eval("leaf 17").unwrap();
    let (before, cmds) = (ALLOCS.with(Cell::get), interp.commands_executed);
    let out = interp.eval("leaf 17").unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let cmds = interp.commands_executed - cmds;
    let expected = (0..1000i64).fold(0, |acc, k| (acc + k * 17) % 999_983) * 3 + 17;
    assert_eq!(out, expected.to_string());
    let per_iter = allocs as f64 / ITERS as f64;
    assert!(
        per_iter <= 1.0,
        "{allocs} allocations: {per_iter} per iteration"
    );
    // Shaped dispatch still counts every command the generic path did:
    // `leaf`, `set acc 0`, `for` and its `set k 0`, then per iteration the
    // body's `set` and `expr` and the step's `incr`, and the closing `set`
    // and `expr`.
    assert_eq!(cmds, 3 * ITERS + 6);
}
