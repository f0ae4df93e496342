//! One workload, measured: set-up time, a discarded warm-up rep, timed
//! reps with tracing off, and (in a traced run) the per-layer metrics.
//!
//! Closed loop: one Swift program per rep, 2 workers that each ask for
//! the next task when the last is done. Every rep is checked against the
//! workload's oracle; a rep that errs or prints a wrong line counts all
//! its tasks as failed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpisim::trace;
use pfs::PfsStats;
use swiftt_core::{RunResult, TurbineProgram};
use tclish::Interp;

use crate::host;
use crate::json::Json;
use crate::micro::{self, Budget};
use crate::spans::Spans;
use crate::workloads::{self, Instance, LeafFloor, WORKERS};

/// End-to-end metrics, in reporting order. `BENCHMARK.json` fixes each
/// one's direction and bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("tasks_per_s", "1/s"),
    ("makespan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-workload layer metrics a traced run adds to the micro metrics.
pub const PER_WORKLOAD_LAYER: [(&str, &str); 30] = [
    ("stc.compile_us", "us"),
    ("stc.tcl_bytes", "B"),
    ("mpisim.msgs_per_task", "count"),
    ("mpisim.bytes_per_task", "B"),
    ("adlb.data_ops_per_task", "count"),
    ("adlb.notifications_per_task", "count"),
    ("adlb.repl_ops_per_task", "count"),
    ("adlb.ckpt_bytes_per_task", "B"),
    ("adlb.steals", "count"),
    ("adlb.retries", "count"),
    ("adlb.protocol_errors", "count"),
    ("adlb.queue_wait_p50_us", "us"),
    ("adlb.queue_wait_p95_us", "us"),
    ("adlb.task_latency_p50_us", "us"),
    ("adlb.task_latency_p95_us", "us"),
    ("adlb.ckpt_flush_p50_us", "us"),
    ("turbine.rules_per_task", "count"),
    ("turbine.interp_inits", "count"),
    ("turbine.eval_p50_us", "us"),
    ("turbine.eval_p95_us", "us"),
    ("turbine.worker_occupancy", "share"),
    ("pfs.bytes_written_per_task", "B"),
    ("pfs.metadata_ops_per_task", "count"),
    ("breakdown.task_us", "us"),
    ("breakdown.eval_us", "us"),
    ("breakdown.leaf_floor_us", "us"),
    ("breakdown.msg_floor_us", "us"),
    ("breakdown.rule_floor_us", "us"),
    ("breakdown.unattributed_us", "us"),
    ("trace.overhead_share", "share"),
];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the timed reps run for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Every N shrunk 20×, one rep: exercises every code path in
    /// seconds. The numbers mean nothing and `compare` rejects them.
    pub smoke: bool,
}

/// One metric's per-rep values, summarised. Seven or so samples support
/// no percentile above the median; the quartiles are there only to say
/// how far a run's own reps disagree.
#[derive(Clone, Copy)]
pub struct Sample {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Sample {
    fn of(values: &[f64]) -> Sample {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        // Linear interpolation between the two nearest order statistics.
        let at = |q: f64| match v.len() {
            0 => f64::NAN,
            n => {
                let pos = q * (n - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        };
        Sample {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            min: at(0.0),
            max: at(1.0),
            n: v.len(),
        }
    }

    fn one(value: f64) -> Sample {
        Sample::of(&[value])
    }
}

pub struct Outcome {
    pub correct: bool,
    /// Leaf tasks the timed reps should have run.
    pub attempted: u64,
    /// Of those, tasks that failed, went missing, or belong to a rep
    /// that erred or failed its oracle. `failed / attempted` is the
    /// benchmark's `failed_share`.
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, Sample)>,
}

/// What one rep produced.
struct Rep {
    makespan_s: f64,
    failed: u64,
    result: Option<RunResult>,
    pfs: Option<PfsStats>,
}

/// An untraced rep: `Runtime::run(source)`, wall-clocked — compile, rank
/// spawn, steady state, termination and teardown.
fn run_untraced(inst: &Instance, spans: &mut Spans) -> Rep {
    let (rt, store) = inst.runtime(false);
    let (result, makespan_s) = spans.scope("execute", |_| rt.run(&inst.source));
    finish_rep(
        inst,
        spans,
        result.map_err(|e| e.to_string()),
        makespan_s,
        store,
    )
}

/// A traced rep: `stc::compile` and `Runtime::run_turbine` called
/// separately so each gets a harness span; its makespan is their sum.
fn run_traced(inst: &Instance, spans: &mut Spans) -> Rep {
    let (rt, store) = inst.runtime(true);
    let (compiled, compile_s) = spans.scope("compile", |_| stc::compile(&inst.source));
    let program = match compiled {
        Ok(p) => p,
        Err(e) => return finish_rep(inst, spans, Err(e.to_string()), compile_s, store),
    };
    let (result, execute_s) = spans.scope("execute", |_| {
        rt.run_turbine(TurbineProgram {
            preamble: program.preamble,
            main: program.main,
            args: Vec::new(),
        })
    });
    finish_rep(
        inst,
        spans,
        result.map_err(|e| e.to_string()),
        compile_s + execute_s,
        store,
    )
}

fn finish_rep(
    inst: &Instance,
    spans: &mut Spans,
    result: Result<RunResult, String>,
    makespan_s: f64,
    store: Option<std::sync::Arc<pfs::Pfs>>,
) -> Rep {
    let (failed, _) = spans.scope("oracle", |_| match &result {
        Ok(r) => inst.failed_tasks(r),
        Err(e) => {
            eprintln!("benchmark: {} rep failed: {e}", inst.workload);
            inst.expected_tasks
        }
    });
    Rep {
        makespan_s,
        failed,
        result: result.ok(),
        pfs: store.map(|fs| fs.stats()),
    }
}

/// Median wall time of the N=0 variant: compile, spawn, preamble load
/// on every rank, termination detection and linger. Also checks that
/// the variant printed what it should.
fn measure_setup(inst: &Instance, runs: usize, spans: &mut Spans) -> Result<f64, String> {
    let (times, _) = spans.scope("setup", |_| {
        let mut times = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (rt, _) = inst.runtime(false);
            let t = Instant::now();
            let r = rt.run(&inst.setup_source).map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64());
            if !inst.setup_passes(&r) {
                return Err(format!("N=0 variant printed {:?}", r.stdout));
            }
        }
        Ok(times)
    });
    Ok(Sample::of(&times?).median)
}

/// Measure one workload as `cfg` asks. Also returns the harness's spans.
pub fn run(cfg: &Config) -> Result<(Outcome, Json), String> {
    let (name, full) = workloads::WORKLOADS
        .into_iter()
        .find(|(name, _)| *name == cfg.workload)
        .ok_or_else(|| format!("unknown workload \"{}\"", cfg.workload))?;
    let n = if cfg.smoke { full / 20 } else { full };
    let mut spans = Spans::new(name);
    let (outcome, _) = spans.scope("benchmark", |spans| {
        let workload_span = format!("workload:{name}");
        spans
            .scope(&workload_span, |spans| {
                let (inst, _) = spans.scope("generate", |_| workloads::generate(name, n, cfg.seed));
                if cfg.trace {
                    run_traced_flow(cfg, &inst, spans)
                } else {
                    run_timed_flow(cfg, &inst, spans)
                }
            })
            .0
    });
    Ok((outcome?, spans.to_json()))
}

/// `--trace 0`: the end-to-end metrics.
fn run_timed_flow(cfg: &Config, inst: &Instance, spans: &mut Spans) -> Result<Outcome, String> {
    let setup_s = measure_setup(inst, if cfg.smoke { 3 } else { 30 }, spans)?;
    // The first rep pays first-touch page faults (4× slower on the blob
    // workload) and lazy set-up users do not pay per task: discard it.
    let (warm, _) = spans.scope("warmup", |s| run_untraced(inst, s));
    let mut correct = warm.failed == 0;

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (mut makespans, mut rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let (rep, _) = spans.scope("rep", |s| run_untraced(inst, s));
        attempted += inst.expected_tasks;
        failed += rep.failed;
        correct &= rep.failed == 0;
        if let Some(r) = &rep.result {
            rates.push(r.total_tasks() as f64 / (rep.makespan_s - setup_s));
        }
        makespans.push(rep.makespan_s);
        if cfg.smoke || (makespans.len() >= 3 && start.elapsed() >= budget) {
            break;
        }
    }
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: END_TO_END
            .into_iter()
            .zip([
                Sample::of(&rates),
                Sample::of(&makespans),
                Sample::one(setup_s),
                Sample::one(rss),
            ])
            .map(|((name, unit), sample)| (name, unit, sample))
            .collect(),
    })
}

/// `--trace 1`: the per-layer metrics. Untraced and traced reps
/// alternate so both medians see the same host conditions; their ratio
/// is the tracing overhead.
fn run_traced_flow(cfg: &Config, inst: &Instance, spans: &mut Spans) -> Result<Outcome, String> {
    let setup_s = measure_setup(inst, if cfg.smoke { 2 } else { 10 }, spans)?;
    let (warm, _) = spans.scope("warmup", |s| run_untraced(inst, s));
    let mut correct = warm.failed == 0;

    let each = Duration::from_secs_f64(if cfg.smoke { 0.004 } else { cfg.seconds * 0.02 });
    let budget = Budget {
        each,
        pipeline_tasks: if cfg.smoke { 5_000 } else { 100_000 },
        blob_cycles: if cfg.smoke { 16 } else { 512 },
    };
    let (compile_us, _) = spans.scope("stc.compile_us", |_| compile_us(&inst.source, each));
    let tcl_bytes = stc::compile(&inst.source)
        .map(|p| p.preamble.len() + p.main.len())
        .map_err(|e| e.to_string())?;
    let micros = micro::run_all(spans, budget);
    let (leaf_floor_us, _) = spans.scope("breakdown.leaf_floor_us", |_| leaf_floor_us(inst, each));

    let rep_budget = Duration::from_secs_f64(cfg.seconds * 0.5);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last: Option<Rep> = None;
    loop {
        for with_trace in [false, true] {
            let (rep, _) = spans.scope(if with_trace { "rep:traced" } else { "rep" }, |s| {
                if with_trace {
                    run_traced(inst, s)
                } else {
                    run_untraced(inst, s)
                }
            });
            attempted += inst.expected_tasks;
            failed += rep.failed;
            correct &= rep.failed == 0;
            if with_trace {
                traced.push(rep.makespan_s);
                last = Some(rep);
            } else {
                plain.push(rep.makespan_s);
            }
        }
        if cfg.smoke || start.elapsed() >= rep_budget {
            break;
        }
    }
    let last = last.expect("at least one traced rep ran");
    let Some(r) = &last.result else {
        return Err("the traced rep returned an error; no layer metrics".to_string());
    };

    let micro_value = |name: &str| {
        micros
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, _, v)| *v)
    };
    let tasks = r.total_tasks().max(1) as f64;
    let st = r.server_totals();
    let lat = r.latency.unwrap_or_default();
    let p = |s: Option<mpisim::LatencyStats>, f: fn(&mpisim::LatencyStats) -> u64| {
        s.as_ref().map_or(0.0, |s| f(s) as f64)
    };
    let eval_total_us: u64 = trace::durations_of(&r.traces, trace::KIND_TASK_EVAL)
        .iter()
        .sum();
    let plain_s = Sample::of(&plain).median;
    let traced_s = Sample::of(&traced).median;
    let task_us = (plain_s - setup_s) / tasks * 1e6;
    let msgs_per_task = r.messages as f64 / tasks;
    let rules_per_task = r.total_rules_fired() as f64 / tasks;
    // A one-way message is half a ping-pong.
    let msg_floor_us = msgs_per_task * micro_value("mpisim.pingpong_rtt_us") / 2.0;
    let rule_floor_us = rules_per_task * micro_value("turbine.engine_rule_us");
    let pfs = last.pfs.unwrap_or_default();

    let per_workload: [f64; PER_WORKLOAD_LAYER.len()] = [
        compile_us,
        tcl_bytes as f64,
        msgs_per_task,
        r.bytes as f64 / tasks,
        st.data_ops as f64 / tasks,
        st.notifications as f64 / tasks,
        st.repl_ops as f64 / tasks,
        st.ckpt_bytes as f64 / tasks,
        st.steals_successful as f64,
        (st.tasks_requeued + st.tasks_retried) as f64,
        st.protocol_errors as f64,
        p(lat.queue_wait, |s| s.p50_us),
        p(lat.queue_wait, |s| s.p95_us),
        p(lat.task_latency, |s| s.p50_us),
        p(lat.task_latency, |s| s.p95_us),
        p(lat.checkpoint_flush, |s| s.p50_us),
        rules_per_task,
        r.total_interp_inits() as f64,
        p(lat.eval_time, |s| s.p50_us),
        p(lat.eval_time, |s| s.p95_us),
        // Under the one-CPU pin a span also counts time its thread sat
        // runnable, so this is occupancy, not CPU share.
        eval_total_us as f64 / (WORKERS as f64 * r.elapsed.as_secs_f64() * 1e6),
        pfs.bytes_written as f64 / tasks,
        pfs.metadata_ops as f64 / tasks,
        task_us,
        eval_total_us as f64 / tasks,
        leaf_floor_us,
        msg_floor_us,
        rule_floor_us,
        task_us - leaf_floor_us - msg_floor_us - rule_floor_us,
        (traced_s - plain_s) / plain_s,
    ];
    let mut metrics: Vec<(&'static str, &'static str, Sample)> = micros
        .iter()
        .map(|(name, unit, value)| (*name, *unit, Sample::one(*value)))
        .collect();
    metrics.extend(
        PER_WORKLOAD_LAYER
            .iter()
            .zip(per_workload)
            .map(|((name, unit), v)| (*name, *unit, Sample::one(v))),
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Mean `stc::compile` time of the workload's source.
fn compile_us(source: &str, budget: Duration) -> f64 {
    let t = Instant::now();
    let mut n = 0u32;
    loop {
        black_box(stc::compile(black_box(source)).expect("the reps already compiled this"));
        n += 1;
        if t.elapsed() >= budget {
            return t.elapsed().as_secs_f64() / n as f64 * 1e6;
        }
    }
}

/// The workload's own leaf fragments evaluated in bare interpreters with
/// the native library installed: mean microseconds per leaf task. What
/// the leaves would cost with no runtime around them.
fn leaf_floor_us(inst: &Instance, budget: Duration) -> f64 {
    // Walk the iteration space with a stride so a short budget still
    // samples arguments of every magnitude.
    let iters = (inst.expected_tasks as usize).max(1);
    let stride = (iters / 64).max(1);
    let t = Instant::now();
    let mut tasks = 0u64;
    match &inst.leaf_floor {
        LeafFloor::Tcl { fragment, per_iter } => {
            let mut interp = Interp::new();
            let mut i = 1;
            while t.elapsed() < budget {
                let frag = fragment.replace("@I@", &i.to_string());
                black_box(interp.eval(&frag).expect("leaf fragment evaluates"));
                tasks += per_iter;
                i = (i + stride) % iters + 1;
            }
        }
        LeafFloor::Interlang(c) => {
            let mut interp = Interp::new();
            workloads::native_library().install(&mut interp);
            interp.eval("package require bk").expect("package loads");
            let (mut py, mut r) = (pythonish::Python::new(), rish::R::new());
            let code = c.python_code();
            let mut i = 1;
            while t.elapsed() < budget {
                interp
                    .eval(&c.tcl_fragment(&i.to_string()))
                    .expect("tcl leaf evaluates");
                let b = interp.eval("bk::mix $a").expect("native leaf evaluates");
                let p = py
                    .run(&code, &format!("walk({b})"))
                    .expect("python leaf evaluates");
                black_box(
                    r.run(&c.r_code(&p), workloads::R_EXPR)
                        .expect("R leaf evaluates"),
                );
                tasks += 4;
                i = (i + stride) % iters + 1;
            }
        }
        LeafFloor::Blob => return micro::blob_leaf_floor_us(budget),
    }
    t.elapsed().as_secs_f64() / tasks as f64 * 1e6
}
