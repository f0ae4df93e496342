//! Fixing the host before anything is measured: one CPU, one allocator
//! arena, and reading peak memory afterwards.
//!
//! Why one CPU: with the 4 rank threads floating over 2 vCPUs the same
//! 5,000-task bag flipped between 0.43 s and 1.5 s from rep to rep (CPU
//! time ≈ wall in both modes: cross-CPU wake-ups, not work). Pinned, wall
//! time is total core-seconds across all ranks and repeats.
//!
//! Why one arena that never trims: with glibc's per-thread arenas the
//! blob workload's kernel time swung between 0.15 s and 0.97 s per rep at
//! constant user time, as rank threads freed each other's 64 KiB buffers
//! and the arenas shrank and regrew; with one untrimmed arena it repeats
//! within a few percent and peak RSS is the program's own footprint.

use std::os::raw::{c_int, c_ulong};

const WORD_BITS: usize = 8 * std::mem::size_of::<c_ulong>();
/// `cpu_set_t`: 1024 bits.
type CpuSet = [c_ulong; 1024 / WORD_BITS];

extern "C" {
    // std links libc on every Linux target, so these resolve without a
    // new dependency.
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// What the harness managed to fix, recorded in every report.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// All threads of this process (and its children) run on `cpu`.
    pub pinned: bool,
    pub cpu: usize,
    /// CPUs the process was allowed before pinning.
    pub nproc: usize,
    /// One malloc arena, no trimming (glibc only).
    pub malloc_fixed: bool,
}

/// Pin this process to the first CPU it is allowed and fix the allocator.
/// Must run before any thread is spawned: affinity is inherited by
/// threads and children created afterwards, not applied to existing ones.
pub fn fix() -> Host {
    let mut set: CpuSet = [0; 1024 / WORD_BITS];
    // SAFETY: `set` is a valid, writable cpu_set_t-sized buffer and the
    // size passed is its size; pid 0 means the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    let allowed: Vec<usize> = (0..1024)
        .filter(|i| set[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
        .collect();
    let mut host = Host {
        pinned: false,
        cpu: 0,
        nproc: allowed.len(),
        malloc_fixed: fix_malloc(),
    };
    if let (true, Some(&first)) = (got, allowed.first()) {
        let mut one: CpuSet = [0; 1024 / WORD_BITS];
        one[first / WORD_BITS] = 1 << (first % WORD_BITS);
        // SAFETY: `one` is a valid cpu_set_t-sized buffer of the size
        // passed; the call only reads it.
        host.pinned = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
        host.cpu = first;
    }
    host
}

#[cfg(target_env = "gnu")]
fn fix_malloc() -> bool {
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_TOP_PAD: c_int = -2;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: mallopt only sets allocator parameters; it is called once,
    // before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1) == 1
            // Never give freed memory back, so a rep does not re-fault
            // what the warm-up rep already touched.
            && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
            && mallopt(M_TOP_PAD, 64 << 20) == 1
            // Setting any threshold turns off glibc's adaptive mmap
            // threshold; keep buffers up to 16 MiB on the heap.
            && mallopt(M_MMAP_THRESHOLD, 16 << 20) == 1
    }
}

#[cfg(not(target_env = "gnu"))]
fn fix_malloc() -> bool {
    false
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
