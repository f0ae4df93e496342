//! The worker: leaf-task executor with embedded interpreters.
//!
//! Workers are the vast majority of ranks (Fig. 2). Each one loops on
//! `ADLB_Get(WORK)`, evaluating each task's Tcl fragment in its embedded
//! interpreter. The per-task interpreter policy of §III.C (retain vs.
//! reinitialize Python/R state) is applied between tasks.
//!
//! Task failures are *contained*: an eval error (or an undecodable
//! payload) is reported to the ADLB server as a negative acknowledgement
//! — the server retries or quarantines the task per its `RetryPolicy` —
//! and the worker keeps serving. A failed task may have left the embedded
//! Python/R interpreters in an arbitrary state, so they are reinitialized
//! regardless of the configured §III.C policy.

use std::collections::HashMap;

use tclish::{Interp, TclError};

use crate::commands::SharedCtx;
use crate::run::OutputStreamer;
use crate::types::InterpPolicy;

/// Evaluate one leaf task in `interp`, containing failures: success
/// increments the counters and applies the §III.C policy; an error is
/// negatively acknowledged and forces an embedded-interpreter reset.
/// Returns whether the task succeeded.
fn execute_task(interp: &mut Interp, ctx: &SharedCtx, task: &adlb::Task, count: &mut u64) -> bool {
    // Zero-copy hot path: the payload is a view into the arrival
    // buffer; validate UTF-8 in place instead of cloning it.
    let eval_start = mpisim::trace::now_us();
    let outcome = match std::str::from_utf8(&task.payload) {
        Ok(code) => interp.eval(code).map(|_| ()),
        Err(_) => Err(TclError::new("worker received non-UTF-8 task payload")),
    };
    let mut c = ctx.borrow_mut();
    // A write the task queued may only fail now; the failure is the
    // task's all the same.
    let outcome = outcome.and_then(|()| {
        c.client
            .settle_task()
            .map_err(|e| TclError::new(e.to_string()))
    });
    match outcome {
        Ok(()) => {
            *count += 1;
            c.tasks_executed += 1;
            // One eval span per successful task: the trace-vs-counter
            // reconciliation oracle depends on this equality.
            mpisim::trace::record_since(mpisim::trace::KIND_TASK_EVAL, *count, eval_start);
            if c.policy == InterpPolicy::Reinitialize {
                // §III.C: clear interpreter state between tasks. The
                // next task that needs Python/R pays a fresh
                // initialization; blobs from the finished task are
                // released.
                c.python = None;
                c.r = None;
                c.blobs.borrow_mut().clear();
            }
            true
        }
        Err(e) => {
            c.tasks_failed += 1;
            eprintln!(
                "turbine worker {}: task failed (attempt {}): {e}",
                c.client.rank(),
                task.attempts + 1,
            );
            c.client.task_failed(&e.to_string());
            // The failed fragment may have left embedded interpreter
            // state half-mutated; force a clean slate.
            c.python = None;
            c.r = None;
            c.blobs.borrow_mut().clear();
            false
        }
    }
}

/// Run the worker loop until global termination. Returns the number of
/// tasks executed successfully. Each finished task's output streams to
/// the server tier before the next blocking get, so a later death of this
/// rank cannot lose it.
///
/// The `Result` is kept for API stability; task failures are contained
/// (counted in `Ctx::tasks_failed` and reported to the server), so this
/// never returns `Err`.
pub fn worker_loop(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
) -> Result<u64, TclError> {
    let mut count = 0u64;
    loop {
        stream.ship(&mut ctx.borrow_mut().client);
        let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_WORK]);
        let Some(task) = task else {
            return Ok(count);
        };
        execute_task(interp, ctx, &task, &mut count);
    }
}

/// The multi-tenant worker loop: one shared ADLB client serving every
/// tenant's leaf tasks, with a lazily created Tcl interpreter *per
/// tenant* (each loaded with that tenant's preamble) so programs cannot
/// observe each other's procs or globals. Embedded Python/R state and
/// blobs are cleared on every tenant switch regardless of the configured
/// §III.C policy — interpreter state is never shared across tenants.
///
/// `build` constructs the interpreter (plus its output streamer) for a
/// tenant on first use; `args_of` yields the tenant's program arguments,
/// installed into the shared context on each switch.
pub fn worker_loop_tenants(
    ctx: &SharedCtx,
    build: &mut dyn FnMut(u32) -> (Interp, OutputStreamer),
    args_of: &dyn Fn(u32) -> HashMap<String, String>,
) -> u64 {
    let mut interps: HashMap<u32, (Interp, OutputStreamer)> = HashMap::new();
    let mut last_tenant: Option<u32> = None;
    let mut count = 0u64;
    loop {
        // Ship every tenant's output increments under its own tag before
        // blocking, so a later death of this rank loses at most the task
        // in flight.
        for (t, (_interp, stream)) in interps.iter_mut() {
            let mut c = ctx.borrow_mut();
            c.client.set_tenant(*t);
            stream.ship(&mut c.client);
        }
        let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_WORK]);
        let Some(task) = task else {
            return count;
        };
        let tenant = task.tenant;
        if last_tenant != Some(tenant) {
            let mut c = ctx.borrow_mut();
            // Tenant switch: embedded interpreters and blobs must not
            // leak across programs, whatever the retain policy says.
            if last_tenant.is_some() {
                c.python = None;
                c.r = None;
                c.blobs.borrow_mut().clear();
            }
            c.args = args_of(tenant);
            c.client.set_tenant(tenant);
            last_tenant = Some(tenant);
        }
        let (interp, _stream) = interps.entry(tenant).or_insert_with(|| build(tenant));
        execute_task(interp, ctx, &task, &mut count);
    }
}

#[cfg(test)]
mod tests {
    use adlb::{AdlbClient, Layout};
    use mpisim::World;
    use tclish::Interp;

    use crate::commands::{self, Ctx};
    use crate::types::{InterpPolicy, TurbineType};

    /// 1 submitter + 1 worker + 1 server; submitter sends raw Tcl tasks.
    fn run_worker(tasks: &'static [&'static str], policy: InterpPolicy) -> (String, u64, u64) {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                for t in tasks {
                    client.put(adlb::WORK_TYPE_WORK, 0, Some(1), t.as_bytes().to_vec());
                }
                client.finish();
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, policy);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            crate::library::load(&mut interp).unwrap();
            let mut stream = crate::run::OutputStreamer::new(buf.clone());
            let n = super::worker_loop(&mut interp, &ctx, &mut stream).unwrap();
            let inits = ctx.borrow().interp_inits;
            let stdout = buf.borrow().clone();
            Some((stdout, n, inits))
        });
        out.into_iter().flatten().next().unwrap()
    }

    #[test]
    fn executes_tasks_in_order_for_same_source() {
        let (stdout, n, _) = run_worker(&["puts one", "puts two"], InterpPolicy::Retain);
        assert_eq!(n, 2);
        assert_eq!(stdout, "one\ntwo\n");
    }

    #[test]
    fn retain_keeps_python_state() {
        let (stdout, _, inits) = run_worker(
            &[
                "puts [python {x = 10} {x}]",
                "puts [python {x = x + 1} {x}]",
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(stdout, "10\n11\n");
        assert_eq!(inits, 1, "retained interpreter initializes once");
    }

    #[test]
    fn reinitialize_isolates_state() {
        let (stdout, _, inits) = run_worker(
            &["puts [python {x = 10} {x}]", "puts [catch {python {} {x}}]"],
            InterpPolicy::Reinitialize,
        );
        assert_eq!(stdout, "10\n1\n", "second task must not see x");
        assert_eq!(inits, 2, "one init per task under Reinitialize");
    }

    #[test]
    fn worker_rejects_rules() {
        let (stdout, _, _) = run_worker(
            &["puts [catch {turbine::rule {} {noop} control} msg]; puts $msg"],
            InterpPolicy::Retain,
        );
        assert!(stdout.contains("1"));
        assert!(stdout.contains("only run on an engine"));
    }

    #[test]
    fn task_errors_are_contained() {
        // A task that always errors must not kill the worker: it is
        // reported failed, retried to the server's budget, quarantined —
        // and a healthy task put afterwards still runs.
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let stats = adlb::serve(comm, layout, adlb::ServerConfig::default());
                return Some((stats.tasks_retried, stats.tasks_quarantined, 0));
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                client.put(adlb::WORK_TYPE_WORK, 9, Some(1), b"error kaboom".to_vec());
                client.put(adlb::WORK_TYPE_WORK, 0, Some(1), b"puts healthy".to_vec());
                client.finish();
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, InterpPolicy::Retain);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            let mut stream = crate::run::OutputStreamer::new(buf.clone());
            let n = super::worker_loop(&mut interp, &ctx, &mut stream)
                .expect("contained loop never errs");
            let failed = ctx.borrow().tasks_failed;
            assert_eq!(buf.borrow().as_str(), "healthy\n");
            Some((failed, n, 1))
        });
        // Default RetryPolicy: max_retries = 3, so the poison task fails
        // once fresh + 3 retries before quarantine.
        let (failed, executed, _) = out[1].unwrap();
        assert_eq!(failed, 4);
        assert_eq!(executed, 1);
        let (retried, quarantined, _) = out[2].unwrap();
        assert_eq!(retried, 3);
        assert_eq!(quarantined, 1);
    }

    /// A write-behind worker (rank 1) fed targeted Tcl tasks by rank 0,
    /// which first runs `prepare` on its own client. Returns the worker's
    /// stdout, its executed count, the server's stats and the quarantine
    /// reports the worker was handed at shutdown.
    fn run_batched_worker(
        prepare: fn(&mut AdlbClient),
        tasks: &'static [&'static str],
    ) -> (String, u64, adlb::ServerStats, Vec<String>) {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let stats = adlb::serve(comm, layout, adlb::ServerConfig::default());
                return (String::new(), 0, Some(stats), Vec::new());
            }
            let config = adlb::ClientConfig::batched();
            let mut client = AdlbClient::with_config(comm, layout, config);
            if rank == 0 {
                prepare(&mut client);
                for (i, t) in tasks.iter().enumerate() {
                    // Descending priority: the targeted tasks run in order.
                    client.put(
                        adlb::WORK_TYPE_WORK,
                        -(i as i32),
                        Some(1),
                        t.as_bytes().to_vec(),
                    );
                }
                client.finish();
                return (String::new(), 0, None, Vec::new());
            }
            let ctx = Ctx::new(client, false, InterpPolicy::Retain);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            let mut stream = crate::run::OutputStreamer::new(buf.clone());
            let n = super::worker_loop(&mut interp, &ctx, &mut stream).unwrap();
            let reports = ctx.borrow().client.quarantine_reports().to_vec();
            let stdout = buf.borrow().clone();
            (stdout, n, None, reports)
        });
        let (stdout, n, _, reports) = out[1].clone();
        (stdout, n, out[2].2.unwrap(), reports)
    }

    #[test]
    fn a_write_that_fails_behind_the_ack_fails_that_task_and_no_other() {
        // Datum 5 is already stored. The first task's store of it is only
        // queued when the task ends, and leaves in one fire-and-forget
        // batch with the task's ack: the server fails that ack, so the
        // retry budget and the quarantine report belong to this task —
        // while the task after it on the same worker is acked clean.
        let (stdout, _, stats, reports) = run_batched_worker(
            |c| {
                c.create(5, TurbineType::Integer.tag()).unwrap();
                c.store(5, crate::types::encode_integer(1).to_vec())
                    .unwrap();
                c.flush().unwrap();
            },
            &["turbine::store_integer 5 2", "puts healthy"],
        );
        assert_eq!(stdout, "healthy\n");
        assert_eq!((stats.tasks_retried, stats.tasks_quarantined), (3, 1));
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("double assignment"), "{reports:?}");
    }

    #[test]
    fn a_task_that_errs_leaves_none_of_its_queued_writes_behind() {
        // The first task queues a create and a store, then fails: both
        // are discarded with it (every attempt), so the datum never
        // exists for the task that looks afterwards.
        let (stdout, n, stats, _) = run_batched_worker(
            |_| {},
            &[
                "turbine::create 9 integer; turbine::store_integer 9 1; error boom",
                "puts [catch {turbine::retrieve_integer 9} msg]; puts $msg",
            ],
        );
        assert_eq!(stdout, "1\ndata: <9> does not exist\n");
        assert_eq!(n, 1);
        assert_eq!(stats.tasks_quarantined, 1);
    }

    #[test]
    fn failed_task_forces_interpreter_reset() {
        // Python state set by a task must not survive a later failed task
        // even under the Retain policy.
        let (stdout, _, _) = run_worker(
            &[
                "puts [python {x = 5} {x}]",
                "error boom",
                "puts [catch {python {} {x}}]",
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(stdout, "5\n1\n", "x must be gone after the failed task");
    }
}
