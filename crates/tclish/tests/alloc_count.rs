//! Heap allocations and dispatched commands per iteration of the Tcl
//! loop an `interlang_leaves` leaf runs: a proc whose `for` loop reads
//! its argument `$i`; heap allocations per call of an engine-shaped
//! proc; and per iteration of the engine's range loop. A dedicated test binary, so the counting global allocator sees
//! no other test's work; the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tclish::{Interp, Script};

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
    // The first call parses the body and its loop, as a worker's first
    // task does.
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

/// An engine body in the shape of the library's `swt:scmp_body`: an `if`
/// on a braced test, `[…]` substitutions and `expr {![…]}`.
const SCMP: &str = "proc scmp {op a b} {
    set x [string trim $a]
    set y [string trim $b]
    if {$op == \"==\"} {
        set r [string equal $x $y]
    } else {
        set r [expr {![string equal $x $y]}]
    }
}";

/// Allocations per call of `SCMP`, both branches alike: 12 in debug and
/// in release builds (47 when every value was a copied `String` and
/// every call built its frame and argv afresh).
const SCMP_BOUND: f64 = 12.0;

#[test]
fn an_engine_shaped_proc_call_stays_within_its_allocation_bound() {
    let mut interp = Interp::new();
    interp.eval(SCMP).unwrap();
    // The calls are held, as an embedder that repeats a text holds it.
    let calls = [
        Script::parse("scmp == abc abd").unwrap(),
        Script::parse("scmp != abc abd").unwrap(),
    ];
    for call in &calls {
        interp.eval_script(call).unwrap();
    }
    let before = ALLOCS.with(Cell::get);
    for k in 0..ITERS as usize {
        let want = if k % 2 == 0 { "0" } else { "1" };
        assert_eq!(interp.eval_script(&calls[k % 2]).unwrap(), want);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let per_call = allocs as f64 / ITERS as f64;
    assert!(
        per_call <= SCMP_BOUND,
        "{allocs} allocations: {per_call} per call"
    );
}

/// The engine's `swt:range_chunk`: a `for` loop calling the loop body's
/// proc with `{*}$captured`, whose body calls a registered native with
/// `$var` arguments, as a loop body's `turbine::*` calls do.
const RANGE_CHUNK: &str = "proc range_chunk {bodyproc captured lo hi start} {
    for {set i $lo} {$i <= $hi} {incr i} {
        $bodyproc $i [expr {$i - $start}] {*}$captured
    }
}
proc body {v idx c} {
    sink $v $idx $c
}";

/// Allocations per iteration of `RANGE_CHUNK` once warm: 0 in debug and
/// in release builds. Argument vectors, texts and frames are recycled,
/// and the captured id is an integer.
const RANGE_BOUND: f64 = 0.0;

#[test]
fn a_range_chunk_iteration_allocates_nothing_once_warm() {
    let mut interp = Interp::new();
    interp.register("sink", |_, argv| {
        assert_eq!(argv.len(), 4);
        Ok(String::new())
    });
    interp.eval(RANGE_CHUNK).unwrap();
    let chunk = Script::parse(&format!("range_chunk body 77 1 {ITERS} 1")).unwrap();
    interp.eval_script(&chunk).unwrap();
    let (before, cmds) = (ALLOCS.with(Cell::get), interp.commands_executed);
    interp.eval_script(&chunk).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    // `range_chunk`, `for` and its `set`, then per iteration the test,
    // `incr`, the body's call, its `expr` and `sink`.
    assert_eq!(interp.commands_executed - cmds, 4 * ITERS + 3);
    let per_iter = allocs as f64 / ITERS as f64;
    assert!(
        per_iter <= RANGE_BOUND,
        "{allocs} allocations: {per_iter} per iteration"
    );
}
