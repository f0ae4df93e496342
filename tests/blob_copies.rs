//! Large heap allocations per iteration of the `blob_native` pipeline:
//! `wave` makes a 64 KiB blob, `axpy` reads it twice and makes another,
//! `bsum` reads that. Each blob should be made once and then passed on
//! as one shared buffer, from native result through the worker's registry
//! and the outbox to the store, and from the store's answer to the next
//! native call. A dedicated test binary: the counting global allocator
//! sees every rank thread of the run and no other test's work.
//!
//! The same allocator tracks the live bytes of those large allocations.
//! A blob is freed after its last leaf read, and a fired `axpy` or `bsum`
//! runs ahead of the `wave`s not yet started, so the live `w` and `z`
//! blobs stay a bounded number, whatever N is. Before that order they
//! numbered up to N: every `wave` ran before the first `axpy`.

mod common;

use common::FreedExactly;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swiftt_core::{NativeArg, NativeLibrary, Runtime};

/// Allocations at least this large are counted: half a blob.
const LARGE: usize = 32 * 1024;

/// f64 elements per blob: 64 KiB, as in the benchmark.
const ELEMS: usize = 8_192;

const ITERS: usize = 200;

/// Peak live bytes of large allocations, at `ITERS` and at 4 × `ITERS`
/// alike. Measured over 11 debug and 11 release runs: 2.1–3.9 MB at 200
/// iterations and 3.7–4.8 MB at 800, about 55 to 75 blobs; the bound is
/// 1.65 × the highest. When every `wave` ran first the peak grew with N:
/// 14.3 MB at 200 and 55.3 MB at 800, and 27.2 MB at 200 when the store
/// freed nothing.
const PEAK_BOUND: u64 = 8_000_000;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes of large allocations live now, and the most ever live at once
/// since [`run`] last reset it.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if size >= LARGE {
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }
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

fn kernels() -> NativeLibrary {
    NativeLibrary::new("bk", "1.0")
        .function("wave", |args| {
            let i = args[0].as_i64()?;
            let data: Vec<f64> = (0..ELEMS as i64)
                .map(|j| ((i * 7 + j * 13) % 1_024) as f64)
                .collect();
            Ok(NativeArg::Blob(blobutils::Blob::from_f64s(&data)))
        })
        .function("axpy", |args| {
            let a = args[0].as_f64()?;
            let x = args[1].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let y = args[2].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let out: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
            Ok(NativeArg::Blob(blobutils::Blob::from_f64s(&out)))
        })
        .function("bsum", |args| {
            let x = args[0].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            Ok(NativeArg::Int(x.iter().sum::<f64>() as i64))
        })
}

/// Run `n` iterations on the benchmark's machine (one engine, two
/// workers, one server, batching on); returns the large allocations made,
/// the sum of the printed sums, and the peak live bytes of large
/// allocations above what was live before the run.
fn run(n: usize) -> (u64, i64, u64) {
    let source = format!(
        r#"(blob o) wave (int i) "bk" "1.0" [ "set <<o>> [ bk::wave <<i>> ]" ];
(blob o) axpy (float a, blob x, blob y) "bk" "1.0" [ "set <<o>> [ bk::axpy <<a>> <<x>> <<y>> ]" ];
(int o) bsum (blob z) "bk" "1.0" [ "set <<o>> [ bk::bsum <<z>> ]" ];
foreach i in [1:{n}] {{
    blob w = wave(i);
    blob z = axpy(2.0, w, w);
    printf("%d", bsum(z));
}}
"#
    );
    let rt = Runtime::new(4)
        .servers(1)
        .batching(true)
        .replication(1)
        .native_library(kernels());
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    let out = rt.run(&source).unwrap().freed_exactly().stdout;
    let total = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - live;
    (
        total,
        out.lines().map(|l| l.parse::<i64>().unwrap()).sum(),
        peak,
    )
}

#[test]
fn each_blob_is_allocated_once_and_then_shared() {
    let (setup, _, _) = run(0);
    let (total, sum, peak) = run(ITERS);
    let want: i64 = (1..=ITERS as i64)
        .map(|i| {
            (0..ELEMS as i64)
                .map(|j| 3 * ((i * 7 + j * 13) % 1_024))
                .sum::<i64>()
        })
        .sum();
    assert_eq!(sum, want);
    let per_iter = total.saturating_sub(setup) as f64 / ITERS as f64;
    assert!(
        per_iter <= 22.0,
        "{per_iter} allocations of {LARGE} bytes or more per iteration ({total} at N={ITERS}, {setup} at N=0)"
    );
    let (_, _, long_peak) = run(4 * ITERS);
    for (n, peak) in [(ITERS, peak), (4 * ITERS, long_peak)] {
        assert!(
            peak <= PEAK_BOUND,
            "{peak} bytes live at once in allocations of {LARGE} bytes or more at N={n} (bound {PEAK_BOUND})"
        );
    }
}
