//! Heap allocations per iteration of `walk()`, the Python loop an
//! `interlang_leaves` leaf runs. A dedicated test binary, so the counting
//! global allocator sees no other test's work; the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pythonish::Python;

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

/// The leaf code `interlang_leaves` ships with every Python task.
const WALK: &str = "def walk(s):\n    t = s\n    for j in range(1000):\n        t = (t * 31 + j) % 999979\n    return t\n";

#[test]
fn walk_allocates_at_most_once_per_iteration() {
    let mut py = Python::new();
    py.run(WALK, "walk(12345)").unwrap();
    // A whole task: define `walk` again, then call it.
    let before = ALLOCS.with(Cell::get);
    let out = py.run(WALK, "walk(12345)").unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let expected = (0..1000i64).fold(12345, |t, j| (t * 31 + j) % 999_979);
    assert_eq!(out, expected.to_string());
    let per_iter = allocs as f64 / ITERS as f64;
    assert!(
        per_iter <= 1.0,
        "{allocs} allocations: {per_iter} per iteration"
    );
}
