//! The worker: leaf-task executor with embedded interpreters.
//!
//! Workers are the vast majority of ranks (Fig. 2). Each one loops on
//! `ADLB_Get(WORK)`, evaluating each task's Tcl fragment in the embedded
//! interpreter of the task's program. The per-task interpreter policy of
//! §III.C (retain vs. reinitialize Python/R state) is applied between
//! tasks; blobs (§III.B) are released after every task under either.
//!
//! Task failures are *contained*: an eval error (or an undecodable
//! payload) is reported to the ADLB server as a negative acknowledgement
//! — the server retries or quarantines the task per its `ServerConfig::max_retries` —
//! and the worker keeps serving. A failed task may have left the embedded
//! Python/R interpreters in an arbitrary state, so they are reinitialized
//! regardless of the configured §III.C policy.

use std::collections::HashMap;

use adlb::TenantSpec;
use tclish::{Interp, TclError};

use crate::commands::SharedCtx;
use crate::engine::open_envelope;
use crate::run::{OutputStreamer, TurbineProgram};
use crate::types::InterpPolicy;

/// Evaluate one leaf task in `interp`, containing failures: success
/// increments the counters and applies the §III.C policy; an error is
/// negatively acknowledged and forces an embedded-interpreter reset.
/// Either way the task's blobs are released. Returns whether the task
/// succeeded.
fn execute_task(interp: &mut Interp, ctx: &SharedCtx, task: &adlb::Task, count: &mut u64) -> bool {
    // Zero-copy hot path: the payload is a view into the arrival
    // buffer; validate UTF-8 in place instead of cloning it. The input
    // values it carries answer this task's retrieves, and only this
    // task's: a retry is delivered with the same envelope.
    let eval_start = mpisim::trace::now_us();
    let outcome = match open_envelope(&task.payload) {
        Ok((inputs, fragment)) => {
            ctx.borrow_mut().inputs = inputs;
            match std::str::from_utf8(&fragment) {
                Ok(code) => interp.eval_once(code).map(|_| ()),
                Err(_) => Err(TclError::new("worker received non-UTF-8 task payload")),
            }
        }
        Err(e) => Err(TclError::new(e)),
    };
    let mut c = ctx.borrow_mut();
    c.inputs.clear();
    // Blobs belong to their task alone, whatever its outcome and the
    // §III.C policy; a store it queued holds its own share of the buffer.
    c.blobs.borrow_mut().clear();
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
                // initialization.
                c.python = None;
                c.r = None;
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
            false
        }
    }
}

/// A worker serving a program that is not in the run (no preamble, no
/// arguments). Every task's tenant comes from a program's spec, so this
/// only answers a hand-built put.
const NO_PROGRAM: &TurbineProgram = &TurbineProgram {
    preamble: String::new(),
    main: String::new(),
    args: Vec::new(),
};

/// Run the worker loop until global termination: one ADLB client serving
/// every program's leaf tasks, each evaluated in its tenant's own Tcl
/// interpreter so programs cannot observe each other's procs or globals.
/// `open(tenant, preamble)` builds that interpreter (plus its output
/// streamer) on the tenant's first task. Embedded Python/R state is
/// cleared on every tenant switch regardless of the configured §III.C
/// policy — interpreter state is never shared across tenants — and blobs
/// never outlive their task.
///
/// Task failures are contained (counted in `Ctx::tasks_failed` and
/// reported to the server). Each finished task's output streams to the
/// server tier under its tenant's tag before the next blocking get, so a
/// later death of this rank cannot lose it.
pub fn worker_loop(
    ctx: &SharedCtx,
    programs: &[(TenantSpec, TurbineProgram)],
    open: &mut dyn FnMut(u32, &str) -> (Interp, OutputStreamer),
) {
    // Per tenant: its interpreter, output stream and arguments.
    let mut interps: HashMap<u32, (Interp, OutputStreamer, HashMap<String, String>)> =
        HashMap::new();
    let mut current: Option<u32> = None;
    let mut count = 0u64;
    loop {
        for (t, (_, stream, _)) in interps.iter_mut() {
            let mut c = ctx.borrow_mut();
            c.client.set_tenant(*t);
            stream.ship(&mut c.client);
        }
        let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_WORK]);
        let Some(task) = task else {
            return;
        };
        let tenant = task.tenant;
        let (interp, _, args) = interps.entry(tenant).or_insert_with(|| {
            let program = programs
                .iter()
                .find(|(s, _)| s.id == tenant)
                .map_or(NO_PROGRAM, |(_, p)| p);
            let (interp, stream) = open(tenant, &program.preamble);
            (interp, stream, program.args.iter().cloned().collect())
        });
        {
            let mut c = ctx.borrow_mut();
            // Child tasks and output belong to the task's program.
            c.client.set_tenant(tenant);
            if current != Some(tenant) {
                // Tenant switch: embedded interpreters must not leak
                // across programs, whatever the retain policy says.
                if current.is_some() {
                    c.python = None;
                    c.r = None;
                }
                c.args = args.clone();
                current = Some(tenant);
            }
        }
        execute_task(interp, ctx, &task, &mut count);
    }
}

#[cfg(test)]
mod tests {
    use adlb::{AdlbClient, Layout};
    use mpisim::World;
    use tclish::Interp;

    use crate::commands::{self, Ctx, SharedCtx};
    use crate::engine::seal_envelope;
    use crate::run::OutputStreamer;
    use crate::types::{InterpPolicy, TurbineType};

    /// Serve leaf tasks on `ctx` to global termination in one lazily
    /// built interpreter; returns its stdout and the tasks executed.
    fn serve(ctx: &SharedCtx) -> (String, u64) {
        let mut out = None;
        super::worker_loop(ctx, &[], &mut |_, _| {
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            crate::library::load(&mut interp).unwrap();
            out = Some(buf.clone());
            (interp, OutputStreamer::new(buf))
        });
        let stdout = out.map(|b| b.take()).unwrap_or_default();
        (stdout, ctx.borrow().tasks_executed)
    }

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
            let ctx = Ctx::new(AdlbClient::new(comm, layout), false, policy);
            let (stdout, n) = serve(&ctx);
            let inits = ctx.borrow().interp_inits;
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
            let ctx = Ctx::new(AdlbClient::new(comm, layout), false, InterpPolicy::Retain);
            let (stdout, n) = serve(&ctx);
            let failed = ctx.borrow().tasks_failed;
            assert_eq!(stdout, "healthy\n");
            Some((failed, n, 1))
        });
        // Default `ServerConfig::max_retries` = 3, so the poison task fails
        // once fresh + 3 retries before quarantine.
        let (failed, executed, _) = out[1].unwrap();
        assert_eq!(failed, 4);
        assert_eq!(executed, 1);
        let (retried, quarantined, _) = out[2].unwrap();
        assert_eq!(retried, 3);
        assert_eq!(quarantined, 1);
    }

    /// A write-behind worker (rank 1) fed targeted Tcl tasks by rank 0,
    /// which first runs `prepare` on its own client, over `servers`
    /// servers. Returns the worker's stdout, its executed count, the
    /// servers' merged stats and the quarantine reports the worker was
    /// handed at shutdown.
    fn run_batched_worker(
        servers: usize,
        prepare: fn(&mut AdlbClient),
        tasks: &[Vec<u8>],
    ) -> (String, u64, adlb::ServerStats, Vec<String>) {
        let layout = Layout::new(2 + servers, servers);
        let out = World::run(2 + servers, move |comm| {
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
                    client.put(adlb::WORK_TYPE_WORK, -(i as i32), Some(1), t.clone());
                }
                client.finish();
                return (String::new(), 0, None, Vec::new());
            }
            let ctx = Ctx::new(client, false, InterpPolicy::Retain);
            let (stdout, n) = serve(&ctx);
            let reports = ctx.borrow().client.quarantine_reports().to_vec();
            (stdout, n, None, reports)
        });
        let mut stats = adlb::ServerStats::default();
        for s in out.iter().filter_map(|o| o.2.as_ref()) {
            stats.merge(s);
        }
        let (stdout, n, _, reports) = out[1].clone();
        (stdout, n, stats, reports)
    }

    fn bare(fragments: &[&str]) -> Vec<Vec<u8>> {
        fragments.iter().map(|f| f.as_bytes().to_vec()).collect()
    }

    #[test]
    fn carried_inputs_answer_only_their_own_task() {
        // Datum 77 exists nowhere: only the envelope can answer for it.
        // The task after it reads the same id without one and goes to the
        // server, which has never heard of it.
        let read = "puts [catch {turbine::retrieve_integer 77} msg]; puts $msg";
        let (stdout, n, _, _) = run_batched_worker(
            1,
            |_| {},
            &[seal_envelope(&[(77, b"7")], read), read.as_bytes().to_vec()],
        );
        assert_eq!(stdout, "0\n7\n1\ndata: <77> does not exist\n");
        assert_eq!(n, 2);
    }

    #[test]
    fn a_retried_task_still_carries_its_inputs() {
        let (stdout, n, stats, _) = run_batched_worker(
            1,
            |_| {},
            &[seal_envelope(
                &[(77, b"7"), (78, b"")],
                "if {![info exists ::tried]} { set ::tried 1; error first }\n\
                 puts [turbine::retrieve_string 77][turbine::retrieve_string 78]",
            )],
        );
        assert_eq!(stdout, "7\n");
        assert_eq!((n, stats.tasks_retried), (1, 1));
    }

    #[test]
    fn a_failed_attempt_releases_none_of_its_reads() {
        // Both inputs are counted with the task's one read each, and it
        // carries no envelope: every attempt reads them from the server.
        // The failed first attempt read them too but releases nothing,
        // on the worker's home server or (over two servers, for 78)
        // another, so the retry still finds both and alone frees them.
        for servers in [1, 2] {
            let (stdout, n, stats, _) = run_batched_worker(
                servers,
                |c| {
                    let tag = TurbineType::String.tag();
                    for (id, v) in [(77, "7"), (78, "")] {
                        c.create_counted(id, tag, 1).unwrap();
                        c.store(id, v.as_bytes().to_vec()).unwrap();
                    }
                    c.flush().unwrap();
                },
                &bare(&[
                    "set v [turbine::retrieve_string 77][turbine::retrieve_string 78]\n\
                     if {![info exists ::tried]} { set ::tried 1; error first }\n\
                     puts $v",
                ]),
            );
            assert_eq!(stdout, "7\n", "{servers} servers");
            assert_eq!((n, stats.tasks_retried), (1, 1));
            let freed = (stats.data_freed, stats.release_misses);
            assert_eq!(freed, (2, 0), "{servers} servers");
        }
    }

    #[test]
    fn a_malformed_envelope_is_a_contained_task_failure() {
        let mut truncated = seal_envelope(&[(77, b"seven")], "puts never");
        truncated.truncate(15);
        let (stdout, n, stats, reports) =
            run_batched_worker(1, |_| {}, &[truncated, b"puts healthy".to_vec()]);
        assert_eq!(stdout, "healthy\n");
        assert_eq!(n, 1);
        assert_eq!((stats.tasks_retried, stats.tasks_quarantined), (3, 1));
        assert!(
            reports[0].contains("malformed task envelope (15 bytes)"),
            "{reports:?}"
        );
    }

    #[test]
    fn a_write_that_fails_behind_the_ack_fails_that_task_and_no_other() {
        // Datum 5 is already stored. The first task's store of it is only
        // queued when the task ends, and leaves in one fire-and-forget
        // batch with the task's ack: the server fails that ack, so the
        // retry budget and the quarantine report belong to this task —
        // while the task after it on the same worker is acked clean.
        let (stdout, _, stats, reports) = run_batched_worker(
            1,
            |c| {
                c.create(5, TurbineType::Integer.tag()).unwrap();
                c.store(5, crate::types::encode_integer(1).to_vec())
                    .unwrap();
                c.flush().unwrap();
            },
            &bare(&["turbine::store_integer 5 2", "puts healthy"]),
        );
        assert_eq!(stdout, "healthy\n");
        assert_eq!((stats.tasks_retried, stats.tasks_quarantined), (3, 1));
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("double assignment"), "{reports:?}");
    }

    #[test]
    fn a_task_whose_ack_fails_behind_its_read_releases_nothing() {
        // Datum 6 is counted with the one leaf read this task makes. Its
        // store of the already-stored datum 5 fails the ack the release
        // rides behind, and the server drops the release with it: every
        // retry still finds 6 and fails on the double assignment alone.
        // The quarantined task never consumed its input, so 6 stays. Over
        // two servers 5 lives on the worker's home server, which alone
        // sees the ack fail, and 6 on the other.
        for servers in [1, 2] {
            let (stdout, _, stats, reports) = run_batched_worker(
                servers,
                |c| {
                    let tag = TurbineType::Integer.tag();
                    c.create(5, tag).unwrap();
                    c.store(5, crate::types::encode_integer(1).to_vec())
                        .unwrap();
                    c.create_counted(6, tag, 1).unwrap();
                    c.store(6, crate::types::encode_integer(6).to_vec())
                        .unwrap();
                    c.flush().unwrap();
                },
                &bare(&[
                    "turbine::retrieve_integer 6; turbine::store_integer 5 2",
                    "puts healthy",
                ]),
            );
            assert_eq!(stdout, "healthy\n");
            assert_eq!((stats.tasks_retried, stats.tasks_quarantined), (3, 1));
            assert!(reports[0].contains("double assignment"), "{reports:?}");
            assert_eq!(stats.release_misses, 0);
            let kept = (stats.data_freed, stats.data_unreleased);
            assert_eq!(kept, (0, 1), "{servers} servers");
        }
    }

    #[test]
    fn a_task_that_errs_leaves_none_of_its_queued_writes_behind() {
        // The first task queues a create and a store, then fails: both
        // are discarded with it (every attempt), so the datum never
        // exists for the task that looks afterwards.
        let (stdout, n, stats, _) = run_batched_worker(
            1,
            |_| {},
            &bare(&[
                "turbine::create 9 integer; turbine::store_integer 9 1; error boom",
                "puts [catch {turbine::retrieve_integer 9} msg]; puts $msg",
            ]),
        );
        assert_eq!(stdout, "1\ndata: <9> does not exist\n");
        assert_eq!(n, 1);
        assert_eq!(stats.tasks_quarantined, 1);
    }

    /// Like [`run_worker`], for blob lifetimes: the worker's stdout, the
    /// blobs its registry still holds after the run, and the quarantine
    /// reports it was handed.
    fn run_blob_worker(
        tasks: &'static [&'static str],
        policy: InterpPolicy,
    ) -> (String, usize, Vec<String>) {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for t in tasks {
                    client.put(adlb::WORK_TYPE_WORK, 0, Some(1), t.as_bytes().to_vec());
                }
                client.finish();
                return None;
            }
            let ctx = Ctx::new(client, false, policy);
            let (stdout, _) = serve(&ctx);
            let c = ctx.borrow();
            let live = c.blobs.borrow().len();
            Some((stdout, live, c.client.quarantine_reports().to_vec()))
        });
        out.into_iter().flatten().next().unwrap()
    }

    /// Makes a blob, keeps its handle in a global and reads it.
    const MAKE_BLOB: &str =
        "set ::h [blobutils_create_floats {1.0 2.0}]; puts [blobutils_sum_floats $::h]";
    /// Reads the handle the last task kept.
    const PEEK_BLOB: &str = "puts [catch {blobutils_size $::h} msg]; puts $msg";

    #[test]
    fn a_blob_lives_only_as_long_as_its_task_under_either_policy() {
        for policy in [InterpPolicy::Retain, InterpPolicy::Reinitialize] {
            let (stdout, live, _) = run_blob_worker(&[MAKE_BLOB, PEEK_BLOB], policy);
            assert_eq!(
                stdout, "3.0\n1\nblob error: blob#0: no such blob (already released?)\n",
                "{policy:?}"
            );
            assert_eq!(live, 0, "{policy:?}");
        }
    }

    #[test]
    fn a_failed_task_releases_its_blobs() {
        let (stdout, live, _) = run_blob_worker(
            &["set ::h [blobutils_zeroes 4]; error boom", PEEK_BLOB],
            InterpPolicy::Retain,
        );
        // The peek may run between the failed task's attempts: whichever
        // attempt's handle it finds is gone.
        assert!(stdout.starts_with("1\nblob error: blob#"), "{stdout}");
        assert!(
            stdout.ends_with(": no such blob (already released?)\n"),
            "{stdout}"
        );
        assert_eq!(live, 0);
    }

    #[test]
    fn a_handle_kept_past_its_task_fails_the_task_that_uses_it_not_the_rank() {
        let (stdout, live, reports) = run_blob_worker(
            &[MAKE_BLOB, "puts [blobutils_size $::h]", "puts healthy"],
            InterpPolicy::Retain,
        );
        assert_eq!(stdout, "3.0\nhealthy\n");
        assert_eq!(live, 0);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("blob#0: no such blob"), "{reports:?}");
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
