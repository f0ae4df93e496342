//! Peak live heap of runs whose Tcl texts each run once: the shipped leaf
//! calls of a bag (`swift:work_task <id> <id>`, fresh ids every task) and
//! the long main of a serial chain. Such texts are streamed by
//! `Interp::eval_once` and no parse of them is kept, so neither a
//! worker's parse of each shipped leaf nor the engine's parse of main
//! stays resident. A dedicated test binary: the counting global
//! allocator sees every rank thread of the run and no other test's work.

mod common;

use common::FreedExactly;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swiftt_core::Runtime;

/// Bag leaf tasks.
const BAG: usize = 8_000;

/// Chain hops.
const HOPS: usize = 4_000;

/// Peak live heap of the bag, above what was live before it. Measured
/// over 5 debug and 5 release runs: 1.01–1.04 MB; the bound is about
/// 1.65 × the highest. When every shipped text was parsed into the
/// cache the bag peaked at 8.1–8.3 MB.
const BAG_BOUND: u64 = 1_700_000;

/// Peak live heap of the chain, above what was live before it, its
/// compile included (`stc` alone peaks at 4.0 MB on it). Measured over 5
/// debug and 5 release runs: 4.50 MB; the bound is about 1.65 × that.
/// When the engine kept its parse of main the chain peaked at 16.2 MB.
const CHAIN_BOUND: u64 = 7_400_000;

/// Bytes live now, and the most ever live at once since [`peak_of`] last
/// reset it.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`, and the caller's for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `source` on the benchmark's machine (one engine, two workers, one
/// server, batching on); returns its stdout and the peak live heap above
/// what was live before the run.
fn peak_of(source: &str) -> (String, u64) {
    let rt = Runtime::new(4).servers(1).batching(true).replication(1);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    let out = rt.run(source).unwrap().freed_exactly().stdout;
    (out, PEAK_BYTES.load(Ordering::Relaxed) - live)
}

/// `BAG` leaf tasks of one command each, every thousandth printing a
/// sample; returns the peak.
fn bag() -> u64 {
    let source = format!(
        r#"(int o) work (int i) [
    "set <<o>> [ expr {{<<i>> * 3 + 7}} ]
     if {{<<i>> % 1000 == 0}} {{ puts \"sample <<i>> $<<o>>\" }}"
];
foreach i in [1:{BAG}] {{
    int s = work(i);
}}
"#
    );
    let (out, peak) = peak_of(&source);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort_unstable_by_key(|l| l.split(' ').nth(1).and_then(|i| i.parse::<usize>().ok()));
    let want: Vec<String> = (1..=BAG / 1000)
        .map(|k| format!("sample {} {}", k * 1000, k * 3000 + 7))
        .collect();
    assert_eq!(lines, want);
    peak
}

/// `HOPS` dependent statements, each a leaf task; returns the peak.
fn chain() -> u64 {
    let mut source =
        String::from("(int o) inc (int i) [ \"set <<o>> [ expr {(<<i>> * 5 + 3) % 1009} ]\" ];\n");
    source.push_str("int x0 = 1;\n");
    for k in 1..=HOPS {
        source.push_str(&format!("int x{k} = inc(x{});\n", k - 1));
    }
    source.push_str(&format!("printf(\"final %d\", x{HOPS});\n"));
    let (out, peak) = peak_of(&source);
    let fin = (0..HOPS).fold(1, |x, _| (x * 5 + 3) % 1009);
    assert_eq!(out, format!("final {fin}\n"));
    peak
}

/// One test, so no other test's work (or the backtrace of its panic)
/// lands in a run's peak.
#[test]
fn one_shot_texts_keep_no_parse_resident() {
    let (bag, chain) = (bag(), chain());
    assert!(
        bag <= BAG_BOUND,
        "{bag} bytes live at once in a {BAG}-task bag (bound {BAG_BOUND})"
    );
    assert!(
        chain <= CHAIN_BOUND,
        "{chain} bytes live at once in a {HOPS}-hop chain (bound {CHAIN_BOUND})"
    );
}
