//! Large heap allocations per iteration of the `blob_native` pipeline:
//! `wave` makes a 64 KiB blob, `axpy` reads it twice and makes another,
//! `bsum` reads that. Each blob should be made once and then passed on
//! as one shared buffer, from native result through the worker's registry
//! and the outbox to the store, and from the store's answer to the next
//! native call. A dedicated test binary: the counting global allocator
//! sees every rank thread of the run and no other test's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swiftt_core::{NativeArg, NativeLibrary, Runtime};

/// Allocations at least this large are counted: half a blob.
const LARGE: usize = 32 * 1024;

/// f64 elements per blob: 64 KiB, as in the benchmark.
const ELEMS: usize = 8_192;

const ITERS: usize = 40;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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
/// workers, one server, batching on); returns the large allocations made
/// and the sum of the printed sums.
fn run(n: usize) -> (u64, i64) {
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
    let out = rt.run(&source).unwrap().stdout;
    let total = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    (total, out.lines().map(|l| l.parse::<i64>().unwrap()).sum())
}

#[test]
fn each_blob_is_allocated_once_and_then_shared() {
    let (setup, _) = run(0);
    let (total, sum) = run(ITERS);
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
}
