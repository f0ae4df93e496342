//! Per-layer micro metrics: each crate measured from outside, by timing
//! calls into its public functions. None depends on the workload; every
//! one runs under the same one-CPU pin as the end-to-end reps, so its
//! microseconds are directly comparable to `breakdown.task_us`.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use adlb::{
    serve, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_NOTIFY, WORK_TYPE_WORK,
};
use blobutils::Blob;
use mpisim::{Src, TagSel, World};
use pfs::{Pfs, PfsConfig};
use tclish::Interp;
use turbine::engine::{ActionKind, EngineState};
use turbine::{Ctx, InterpPolicy};

use crate::spans::Spans;
use crate::workloads::{self, InterlangConsts, BLOB_ELEMS, LEAF_LOOP};

/// How much work each micro-bench does.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Wall time each timed loop runs for.
    pub each: Duration,
    /// Tasks through each raw-ADLB pipeline.
    pub pipeline_tasks: usize,
    /// 64 KiB data-store cycles: a count, not a time, because the store
    /// has no delete and every cycle leaves its datum behind.
    pub blob_cycles: u64,
}

/// Mean seconds per call: `f` is called in batches of `batch` until
/// `budget` has elapsed, so the clock is read rarely next to fast calls.
fn per_call(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        n += batch;
        if t.elapsed() >= budget {
            return t.elapsed().as_secs_f64() / n as f64;
        }
    }
}

const US: f64 = 1e6;
const BLOB_BYTES: usize = BLOB_ELEMS * 8;
/// Constants for the loop micro-benches; the loop bodies are the ones
/// `interlang_leaves` runs, the constants do not change their cost.
const LOOP_CONSTS: InterlangConsts = InterlangConsts {
    tcl_mul: 3,
    tcl_mod: 999_983,
    py_mul: 31,
    py_mod: 999_979,
    r_mod: 97,
};

/// Name, unit and the function that measures it.
type Bench<'a> = (&'static str, &'static str, &'a dyn Fn(Budget) -> f64);

/// Run every micro-bench, one harness span each: `(name, unit, value)`.
pub fn run_all(spans: &mut Spans, b: Budget) -> Vec<(&'static str, &'static str, f64)> {
    let benches: [Bench; 24] = [
        ("tclish.eval_distinct_us", "us", &tcl_eval_distinct),
        ("tclish.eval_repeat_us", "us", &tcl_eval_repeat),
        ("tclish.proc_call_us", "us", &tcl_proc_call),
        ("tclish.loop_iter_us", "us", &tcl_loop_iter),
        ("pythonish.run_small_us", "us", &py_run_small),
        ("pythonish.loop_iter_us", "us", &py_loop_iter),
        ("pythonish.init_us", "us", &py_init),
        ("rish.run_small_us", "us", &r_run_small),
        ("rish.vec_elem_us", "us", &r_vec_elem),
        ("rish.init_us", "us", &r_init),
        ("blobutils.f64_roundtrip_mb_s", "MB/s", &blob_roundtrip),
        ("native.call_us", "us", &native_call),
        ("native.blob_call_us", "us", &native_blob_call),
        ("mpisim.pingpong_rtt_us", "us", &mpi_pingpong),
        ("mpisim.stream_mb_s", "MB/s", &mpi_stream),
        ("mpisim.world_spawn_us", "us", &mpi_world_spawn),
        ("adlb.pipeline_tasks_per_s", "1/s", &|b| {
            adlb_pipeline(b, ClientConfig::default())
        }),
        ("adlb.pipeline_unbatched_tasks_per_s", "1/s", &|b| {
            adlb_pipeline(b, ClientConfig::unbatched())
        }),
        ("adlb.data_rtt_us", "us", &adlb_data_rtt),
        ("adlb.notify_rtt_us", "us", &adlb_notify_rtt),
        ("adlb.blob_store_mb_s", "MB/s", &adlb_blob_store),
        ("adlb.idle_shutdown_us", "us", &adlb_idle_shutdown),
        ("turbine.engine_rule_us", "us", &engine_rule),
        ("pfs.append_flush_us", "us", &pfs_append_flush),
    ];
    benches
        .into_iter()
        .map(|(name, unit, f)| (name, unit, spans.scope(name, |_| f(b)).0))
        .collect()
}

// ---- tclish ---------------------------------------------------------------

/// Leaf-shaped fragment, different text each call: what a worker sees,
/// since every shipped task carries its own argument values.
fn tcl_eval_distinct(b: Budget) -> f64 {
    let mut interp = Interp::new();
    let (mut spent, mut n, mut next) = (Duration::ZERO, 0u64, 0u64);
    while spent < b.each {
        // Text generation is the engine's cost, not the evaluator's.
        let texts: Vec<String> = (next..next + 4096)
            .map(|k| format!("set o [ expr {{{k} * 3 + 7}} ]"))
            .collect();
        next += 4096;
        let t = Instant::now();
        for s in &texts {
            black_box(interp.eval(s).expect("fragment evaluates"));
        }
        spent += t.elapsed();
        n += 4096;
    }
    spent.as_secs_f64() / n as f64 * US
}

/// The same text every call: the script-cache path.
fn tcl_eval_repeat(b: Budget) -> f64 {
    let mut interp = Interp::new();
    per_call(b.each, 64, || {
        black_box(
            interp
                .eval("set o [ expr {12345 * 3 + 7} ]")
                .expect("fragment evaluates"),
        );
    }) * US
}

fn tcl_proc_call(b: Budget) -> f64 {
    let mut interp = Interp::new();
    interp
        .eval("proc leaf {x y} { return [ expr {$x * 3 + $y} ] }")
        .expect("proc defines");
    per_call(b.each, 64, || {
        black_box(interp.eval("leaf 12345 7").expect("proc call evaluates"));
    }) * US
}

fn tcl_loop_iter(b: Budget) -> f64 {
    let mut interp = Interp::new();
    let frag = LOOP_CONSTS.tcl_fragment("17");
    per_call(b.each, 1, || {
        black_box(interp.eval(&frag).expect("loop evaluates"));
    }) / LEAF_LOOP as f64
        * US
}

// ---- pythonish / rish -----------------------------------------------------

fn py_run_small(b: Budget) -> f64 {
    let mut py = pythonish::Python::new();
    per_call(b.each, 64, || {
        black_box(py.run("x = 2", "x * 21").expect("python evaluates"));
    }) * US
}

fn py_loop_iter(b: Budget) -> f64 {
    let mut py = pythonish::Python::new();
    let code = LOOP_CONSTS.python_code();
    per_call(b.each, 1, || {
        black_box(py.run(&code, "walk(12345)").expect("python loop evaluates"));
    }) / LEAF_LOOP as f64
        * US
}

fn py_init(b: Budget) -> f64 {
    per_call(b.each, 8, || {
        black_box(
            pythonish::Python::new()
                .run("x = 1", "x")
                .expect("python starts"),
        );
    }) * US
}

fn r_run_small(b: Budget) -> f64 {
    let mut r = rish::R::new();
    per_call(b.each, 64, || {
        black_box(r.run("", "1 + 1").expect("R evaluates"));
    }) * US
}

fn r_vec_elem(b: Budget) -> f64 {
    let mut r = rish::R::new();
    let code = LOOP_CONSTS.r_code("12345");
    per_call(b.each, 1, || {
        black_box(r.run(&code, workloads::R_EXPR).expect("R vector evaluates"));
    }) / LEAF_LOOP as f64
        * US
}

fn r_init(b: Budget) -> f64 {
    per_call(b.each, 8, || {
        black_box(rish::R::new().run("x <- 1", "x").expect("R starts"));
    }) * US
}

// ---- blobutils / native ---------------------------------------------------

fn blob_roundtrip(b: Budget) -> f64 {
    let data: Vec<f64> = (0..BLOB_ELEMS).map(|i| i as f64).collect();
    let secs = per_call(b.each, 4, || {
        let blob = Blob::from_f64s(black_box(&data));
        black_box(blob.to_f64s().expect("whole f64s"));
    });
    BLOB_BYTES as f64 / secs / 1e6
}

fn native_call(b: Budget) -> f64 {
    let mut interp = Interp::new();
    workloads::native_library().install(&mut interp);
    interp.eval("package require bk").expect("package loads");
    per_call(b.each, 64, || {
        black_box(interp.eval("bk::mix 5").expect("native call evaluates"));
    }) * US
}

/// Run `client_body` on rank 0 of a 2-rank world whose other rank is an
/// ADLB server, and return what it measured.
fn with_server(client_body: impl Fn(AdlbClient) -> f64 + Sync) -> f64 {
    let layout = Layout::new(2, 1);
    let out = World::run(2, |comm| {
        if layout.is_server(comm.rank()) {
            serve(comm, layout, ServerConfig::default());
            return 0.0;
        }
        client_body(AdlbClient::new(comm, layout))
    });
    out[0]
}

/// `bk::axpy` over 64 KiB blobs through the Tcl binding: two handles
/// resolved in, one blob registered out, then released. Blob handles
/// need a rank's registry, hence the world.
fn native_blob_call(b: Budget) -> f64 {
    with_server(|client| {
        let ctx = Ctx::new(client, false, InterpPolicy::Retain);
        let mut interp = Interp::new();
        turbine::commands::register(&mut interp, ctx.clone());
        workloads::native_library().install(&mut interp);
        interp
            .eval(&format!(
                "package require bk; set w [ bk::wave 1 1 {BLOB_ELEMS} ]"
            ))
            .expect("blob created");
        let per = per_call(b.each, 4, || {
            black_box(
                interp
                    .eval("blobutils_release [ bk::axpy 2.0 $w $w ]")
                    .expect("blob call evaluates"),
            );
        });
        ctx.borrow_mut().client.finish();
        per * US
    })
}

// ---- mpisim ---------------------------------------------------------------

const TAG_DATA: u32 = 1;
const TAG_ACK: u32 = 2;
const TAG_STOP: u32 = 3;

fn mpi_pingpong(b: Budget) -> f64 {
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            let payload = vec![0x61u8; 64];
            let per = per_call(b.each, 256, || {
                comm.send(1, TAG_DATA, payload.clone());
                black_box(comm.recv(Src::Of(1), TagSel::Of(TAG_ACK)));
            });
            comm.send(1, TAG_STOP, Vec::new());
            return per;
        }
        loop {
            let m = comm.recv(Src::Of(0), TagSel::Any);
            if m.tag == TAG_STOP {
                return 0.0;
            }
            comm.send(0, TAG_ACK, m.data);
        }
    });
    out[0] * US
}

/// 64 KiB messages one way, a fresh buffer each, acknowledged every 32
/// so the receiver's mailbox stays bounded on one CPU.
fn mpi_stream(b: Budget) -> f64 {
    const WINDOW: usize = 32;
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            let payload = vec![0x61u8; BLOB_BYTES];
            let per_window = per_call(b.each, 1, || {
                for _ in 0..WINDOW {
                    comm.send(1, TAG_DATA, payload.clone());
                }
                comm.recv(Src::Of(1), TagSel::Of(TAG_ACK));
            });
            comm.send(1, TAG_STOP, Vec::new());
            return per_window / WINDOW as f64;
        }
        let mut seen = 0;
        loop {
            let m = comm.recv(Src::Of(0), TagSel::Any);
            if m.tag == TAG_STOP {
                return 0.0;
            }
            black_box(m.data.len());
            seen += 1;
            if seen % WINDOW == 0 {
                comm.send(0, TAG_ACK, Vec::new());
            }
        }
    });
    BLOB_BYTES as f64 / out[0] / 1e6
}

fn mpi_world_spawn(b: Budget) -> f64 {
    per_call(b.each, 1, || {
        black_box(World::run(4, |comm| comm.rank()));
    }) * US
}

// ---- adlb -----------------------------------------------------------------

/// Raw ADLB throughput: one submitter floods `tasks` 64-byte tasks, two
/// workers drain them through one server; no interpreter, no dataflow.
/// Timed as the whole world, like `Runtime::run`. This is the transport
/// ceiling ROADMAP item 2 compares the engine path against.
///
/// (`crates/bench/benches/f2_task_throughput.rs` has the same loop as
/// `adlb_throughput`; this PR may not edit it to share one copy.)
pub fn adlb_pipeline(b: Budget, config: ClientConfig) -> f64 {
    const WORKERS: usize = 2;
    let tasks = b.pipeline_tasks;
    let size = WORKERS + 2;
    let layout = Layout::new(size, 1);
    let t = Instant::now();
    let executed: Vec<u64> = World::run(size, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve(comm, layout, ServerConfig::default());
            return 0;
        }
        let mut client = AdlbClient::with_config(comm, layout, config);
        if rank == 0 {
            let body = vec![0x61u8; 64];
            for _ in 0..tasks {
                client.put(WORK_TYPE_WORK, 0, None, body.clone());
            }
            client.finish();
            return 0;
        }
        let mut n = 0;
        while client.get(&[WORK_TYPE_WORK]).is_some() {
            n += 1;
        }
        n
    });
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        executed.iter().sum::<u64>(),
        tasks as u64,
        "pipeline lost tasks"
    );
    tasks as f64 / secs
}

/// Mean round trip of create, store and retrieve on an 8-byte datum.
fn adlb_data_rtt(b: Budget) -> f64 {
    with_server(|mut client| {
        let per_cycle = per_call(b.each, 16, || {
            let id = client.alloc_id();
            client.create(id, 1).expect("create");
            client
                .store(id, 7u64.to_le_bytes().to_vec())
                .expect("store");
            black_box(client.retrieve(id).expect("retrieve"));
        });
        client.finish();
        per_cycle / 3.0 * US
    })
}

/// A creates and subscribes to a datum and hands its id to B as a
/// targeted task; B stores it; the clock stops when A's get returns the
/// close notification. One full subscribe→store→notify cycle, which is
/// what a rule waiting on a leaf's output costs the data store.
fn adlb_notify_rtt(b: Budget) -> f64 {
    const A: usize = 0;
    const B: usize = 1;
    let layout = Layout::new(3, 1);
    let out = World::run(3, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve(comm, layout, ServerConfig::default());
            return 0.0;
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == B {
            while let Some(task) = client.get(&[WORK_TYPE_WORK]) {
                let id = u64::from_le_bytes(task.payload[..8].try_into().expect("8-byte id"));
                client
                    .store(id, 7u64.to_le_bytes().to_vec())
                    .expect("store");
            }
            return 0.0;
        }
        let per = per_call(b.each, 16, || {
            let id = client.alloc_id();
            client.create(id, 1).expect("create");
            let closed = client.subscribe(id, A).expect("subscribe");
            assert!(!closed, "nobody has stored yet");
            client.put(WORK_TYPE_WORK, 0, Some(B), id.to_le_bytes().to_vec());
            black_box(
                client
                    .get(&[WORK_TYPE_NOTIFY])
                    .expect("notification arrives"),
            );
        });
        client.finish();
        per
    });
    out[A] * US
}

/// Store then retrieve a 64 KiB datum: payload bytes through the data
/// store per second, both directions counted.
fn adlb_blob_store(b: Budget) -> f64 {
    with_server(|mut client| {
        let payload = vec![0x61u8; BLOB_BYTES];
        let per = per_call(Duration::ZERO, b.blob_cycles, || {
            let id = client.alloc_id();
            client.create(id, 4).expect("create");
            client.store(id, payload.clone()).expect("store");
            black_box(client.retrieve(id).expect("retrieve"));
        });
        client.finish();
        2.0 * BLOB_BYTES as f64 / per / 1e6
    })
}

/// A 4-rank ADLB world whose clients finish at once — termination
/// detection and server linger — less the cost of spawning 4 ranks.
fn adlb_idle_shutdown(b: Budget) -> f64 {
    let layout = Layout::new(4, 1);
    let b = Budget {
        each: b.each / 2,
        ..b
    };
    let idle_world_us = per_call(b.each, 1, || {
        World::run(4, |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
            } else {
                AdlbClient::new(comm, layout).finish();
            }
        });
    }) * US;
    (idle_world_us - mpi_world_spawn(b)).max(0.0)
}

// ---- turbine / pfs --------------------------------------------------------

/// One rule with one input: `add_rule` then the `fire` that releases it.
fn engine_rule(b: Budget) -> f64 {
    let mut engine = EngineState::new();
    let mut id = 0u64;
    per_call(b.each, 64, || {
        id += 1;
        let d = engine.add_rule(
            HashSet::from([id]),
            "swift:work_task 1 2".to_string(),
            ActionKind::Work,
            0,
            None,
        );
        black_box(d);
        black_box(engine.fire(id));
    }) * US
}

/// A WAL-shaped 4 KiB append and its flush, in wall time (the simulated
/// filesystem's virtual clock is not a cost the host pays).
fn pfs_append_flush(b: Budget) -> f64 {
    let fs = std::sync::Arc::new(Pfs::new(PfsConfig::default()));
    let mut client = fs.client();
    client.create("/wal").expect("create");
    let record = vec![0x61u8; 4096];
    per_call(b.each, 1, || {
        // The in-memory file keeps what is flushed; start a new one
        // every 1 MiB, as compaction does, so the bench stays small.
        for _ in 0..256 {
            client.append("/wal", &record);
            black_box(client.flush("/wal").expect("flush"));
        }
        client.unlink("/wal").expect("unlink");
        client.create("/wal").expect("create");
    }) / 256.0
        * US
}

/// `blob_native`'s three leaves — wave, axpy, sum — through the native
/// library's Tcl binding in one bare interpreter, blobs released as a
/// finished pipeline's would be: mean microseconds per leaf task.
pub fn blob_leaf_floor_us(budget: Duration) -> f64 {
    with_server(|client| {
        let ctx = Ctx::new(client, false, InterpPolicy::Retain);
        let mut interp = Interp::new();
        turbine::commands::register(&mut interp, ctx.clone());
        workloads::native_library().install(&mut interp);
        interp.eval("package require bk").expect("package loads");
        let mut i = 0u64;
        let per_pipeline = per_call(budget, 1, || {
            i += 1;
            let script = format!(
                "set w [ bk::wave 7 {i} {BLOB_ELEMS} ]; set z [ bk::axpy 2.0 $w $w ]; set s [ bk::bsum $z ]; blobutils_release $w; blobutils_release $z"
            );
            black_box(interp.eval(&script).expect("blob leaves evaluate"));
        });
        ctx.borrow_mut().client.finish();
        per_pipeline / 3.0 * US
    })
}
