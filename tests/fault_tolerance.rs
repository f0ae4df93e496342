//! End-to-end fault tolerance: rank kills, message delays, and poison
//! tasks injected into full Swift programs running through the whole
//! stack (stc → turbine → adlb → mpisim).
//!
//! The invariant under test is the one argued in
//! `crates/adlb/tests/stress.rs`: a task's execution happens strictly
//! between the receive that delivered it and the acknowledgement the
//! next `get()` piggybacks, so a rank death either requeues an
//! unexecuted lease (runs elsewhere) or lands after the ack (never
//! reruns). At this level we observe it as: the run terminates, and no
//! surviving rank's output contains a duplicated task.

use std::process::Command;
use std::sync::Arc;

use swiftt::adlb::CHECKPOINT_DEFAULT_INTERVAL;
use swiftt::blobutils::Blob;
use swiftt::core::{FaultPlan, NativeArg, NativeLibrary, Point, Runtime, SwiftTError};
use swiftt::pfs::{Pfs, PfsConfig};

/// Sorted, deduplicated stdout lines (a killed rank's buffered output is
/// lost with it, so survivors' lines are what we can assert about).
fn unique_lines(stdout: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let before = lines.len();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), before, "duplicate output lines: {lines:?}");
    lines
}

/// The machine every run here uses: `ranks` ranks, `servers` of them ADLB
/// servers, configured by the CI fault-matrix cell the suite runs in. A
/// cell is four environment variables; unset, each leaves the runtime's
/// default. `SWIFTT_BATCHING` and `SWIFTT_REREPLICATION` turn their switch
/// off at `0`/`off`/`false`, `SWIFTT_REPLICATION` sets the factor (clamped
/// to the server count, so one cell fits every machine), and
/// `SWIFTT_CHECKPOINT` turns the durable tier on at `on` or an interval. A
/// test's own builder calls come after these, so they win.
fn machine(ranks: usize, servers: usize) -> Runtime {
    let cell = |name: &str| std::env::var(name).ok();
    let off = |v: String| matches!(v.as_str(), "0" | "off" | "false");
    let mut rt = Runtime::new(ranks).servers(servers);
    if let Some(v) = cell("SWIFTT_BATCHING") {
        rt = rt.batching(!off(v));
    }
    if let Some(r) = cell("SWIFTT_REPLICATION").and_then(|v| v.parse::<usize>().ok()) {
        rt = rt.replication(r.clamp(1, servers));
    }
    if let Some(v) = cell("SWIFTT_REREPLICATION") {
        rt = rt.re_replication(!off(v));
    }
    let interval = match cell("SWIFTT_CHECKPOINT").as_deref() {
        Some("on" | "true") => CHECKPOINT_DEFAULT_INTERVAL,
        v => v.and_then(|n| n.parse().ok()).unwrap_or(0),
    };
    if interval > 0 {
        rt = rt.checkpoint(interval);
    }
    rt
}

#[test]
fn early_worker_death_loses_no_tasks() {
    // Rank layout for machine(6, 1): engine 0, workers 1..=4, server 5. Kill
    // worker 2 once its first Get has left: it has executed nothing, so
    // every task must surface from the survivors.
    let plan = FaultPlan::new().kill_at(2, Point::GetSent, 1);
    let r = machine(6, 1)
        .faults(plan)
        .run(r#"foreach i in [0:19] { printf("task %d", i); }"#)
        .expect("run must survive the dead worker");
    assert_eq!(r.killed_ranks, vec![2]);
    assert_eq!(r.server_totals().ranks_failed, 1);
    assert_eq!(
        unique_lines(&r.stdout).len(),
        20,
        "all 20 tasks ran on survivors"
    );
}

#[test]
fn mid_run_worker_death_terminates_without_duplicates() {
    // Kill worker 3 as its fourth Get leaves: its executed tasks' output
    // and acks left in the outbox ahead of that Get, so nothing it did is
    // lost OR rerun: the assembled stdout holds all 200 tasks exactly once
    // even though the rank died. The tasks spin so every worker is dealt
    // batches: at 200 bare printf tasks worker 3 got none in 1 of 200
    // release runs, and a worker with no task has no mid-run moment.
    let plan = FaultPlan::new().kill_at(3, Point::GetSent, 4);
    let r = machine(6, 1)
        .faults(plan)
        .run(&spin_tasks(200))
        .expect("run must survive a mid-run worker death");
    assert_eq!(r.killed_ranks, vec![3], "the scheduled victim must die");
    assert_eq!(r.server_totals().ranks_failed, 1);
    let lines = unique_lines(&r.stdout);
    assert_eq!(
        lines.len(),
        200,
        "streamed output recovers the dead rank's executed tasks"
    );
    // The server tier cannot know the victim's last words arrived; its
    // stream is conservatively flagged as possibly-truncated.
    assert_eq!(r.truncated_streams, vec![3]);
}

#[test]
fn worker_death_with_batch_in_flight_loses_no_tasks() {
    // Batching is on by default, so a worker's first Get asks for a whole
    // batch. Kill worker 2 right after that Get is delivered, without
    // reading the answer: whatever the server leased to it (up to a full
    // prefetch batch) is in flight to a dead rank and must be requeued —
    // every task surfaces from the survivors exactly once.
    let plan = FaultPlan::new().kill_at(2, Point::GetSent, 1);
    let r = machine(6, 1)
        .faults(plan)
        .run(r#"foreach i in [0:39] { printf("task %d", i); }"#)
        .expect("run must survive the dead worker");
    assert_eq!(r.killed_ranks, vec![2]);
    assert_eq!(r.server_totals().ranks_failed, 1);
    assert_eq!(
        unique_lines(&r.stdout).len(),
        40,
        "victim executed nothing; all 40 tasks ran once on survivors"
    );
}

#[test]
fn batching_ablation_produces_identical_results() {
    // The E5 ablation knob: the same program under the batched pipeline
    // and under the PR 1 one-task-per-round-trip protocol must produce
    // the same task set.
    let src = r#"foreach i in [0:19] { printf("task %d", i); }"#;
    let batched = machine(5, 1).run(src).expect("batched run");
    let unbatched = machine(5, 1)
        .batching(false)
        .run(src)
        .expect("unbatched run");
    let mut a = unique_lines(&batched.stdout);
    let mut b = unique_lines(&unbatched.stdout);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a.len(), 20);
    assert_eq!(a, b, "batching must not change program output");
}

#[test]
fn delayed_messages_do_not_break_exactly_once() {
    // Delays reorder nothing (delivery is still per-pair FIFO) but
    // stretch the schedule; the run must still produce every task once.
    let plan = FaultPlan::new()
        .delay_nth(1, 4, 2, 30)
        .delay_nth(2, 4, 3, 20);
    let r = machine(5, 1)
        .faults(plan)
        .run(r#"foreach i in [0:19] { printf("task %d", i); }"#)
        .expect("delays must not break the run");
    assert!(r.killed_ranks.is_empty());
    assert_eq!(unique_lines(&r.stdout).len(), 20);
}

#[test]
fn poison_task_quarantined_with_bounded_retries() {
    // A task that fails deterministically (NameError in the embedded
    // Python) is retried to the configured budget, quarantined, and the
    // worker keeps running — so the machine shuts down cleanly and the
    // engine diagnoses the unfilled future instead of a rank crashing.
    let err = machine(4, 1)
        .max_retries(1)
        .run(
            r#"
            string x = python("", "name_that_is_not_defined");
            printf("never: %s", x);
        "#,
        )
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => {
            assert!(m.contains("deadlock"), "expected dataflow deadlock: {m}");
            assert!(
                m.contains("quarantined after 2 attempts"),
                "budget of 1 retry = 2 attempts: {m}"
            );
            assert!(
                m.contains("name_that_is_not_defined"),
                "original task error must surface: {m}"
            );
        }
        other => panic!("expected a runtime error, got {other:?}"),
    }
}

/// Rank layout for machine(8, 2): engine 0, workers 1..=5, servers
/// 6 (master) and 7. Run the same 120-task program fault-free and with
/// one server killed mid-run at replication 2; the output task set must
/// be identical (worker scheduling makes line *order* nondeterministic,
/// so we compare sorted lines).
fn assert_server_death_output_matches(victim: usize, point: Point, n: u64) {
    let src = r#"foreach i in [0:119] { printf("task %d", i); }"#;
    let clean = machine(8, 2)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new().kill_at(victim, point, n);
    let r = machine(8, 2)
        .replication(2)
        .faults(plan)
        .run(src)
        .unwrap_or_else(|e| {
            panic!("killing server {victim} at {point:?} {n} must not fail the run: {e}")
        });
    assert_eq!(
        r.killed_ranks,
        vec![victim],
        "the scheduled server victim must die"
    );
    assert_eq!(r.server_totals().failovers, 1, "a successor promoted");
    let mut got = unique_lines(&r.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "output after a server death must match the fault-free run"
    );
    assert!(
        r.truncated_streams.is_empty(),
        "no worker died, so no stream may be truncated: {:?}",
        r.truncated_streams
    );
}

#[test]
fn master_server_death_at_replication_2_output_matches_fault_free() {
    // Rank 6 is the master (first server on the ring): its successor
    // takes over the shard, the adopted clients, AND the termination
    // protocol. It serves every task here; it dies after its 10th and
    // its 40th client request.
    for n in [10, 40] {
        assert_server_death_output_matches(6, Point::RequestApplied, n);
    }
}

#[test]
fn second_server_death_at_replication_2_output_matches_fault_free() {
    // Rank 7's clients park and get nothing; it holds rank 6's replica,
    // and dies after applying rank 6's 10th and 40th op batch to it.
    for n in [10, 40] {
        assert_server_death_output_matches(7, Point::ReplicaUpdated, n);
    }
}

/// The benchmark's `pipeline_dataflow` at 200 wide: f → g → + into an
/// array, and a checksum leaf over it. Unlike the printing loops above,
/// every iteration sends the engine three close notifications, and
/// their acks share its answered batches with the writes the rules make.
const PIPELINE_SRC: &str = r#"
    (int o) f (int i) [ "set <<o>> [ expr {3 * <<i>> + 5} ]" ];
    (int o) g (int t) [ "set <<o>> [ expr {<<t>> % 7} ]" ];
    (int o) checksum (int a[]) [ "set <<o>> 0; foreach v [ turbine::container_values <<a>> ] { incr <<o>> $v }" ];
    int out[];
    foreach i in [0:199] { int t = f(i); int u = g(t); int v = u + t; out[i] = v; }
    printf("checksum %d", checksum(out));
"#;

#[test]
fn engine_home_death_mid_pipeline_at_replication_2_output_matches_fault_free() {
    // Rank 6 is the engine's home server and the master. It dies after
    // its 100th client request, early in the pipeline: the successor must
    // replay the engine's owned batches, acks and writes together,
    // exactly once.
    let rt = || machine(8, 2).replication(2);
    let clean = rt().run(PIPELINE_SRC).expect("fault-free run");
    assert_eq!(clean.stdout, "checksum 61298\n");
    let r = rt()
        .faults(FaultPlan::new().kill_at(6, Point::RequestApplied, 100))
        .run(PIPELINE_SRC)
        .expect("a server death at replication 2 must not fail the pipeline");
    assert_eq!(
        r.killed_ranks,
        vec![6],
        "the scheduled server victim must die"
    );
    assert_eq!(r.server_totals().failovers, 1, "a successor promoted");
    assert_eq!(r.stdout, clean.stdout);
}

/// `blob_native` at 80 wide with 4 KiB blobs: wave → axpy → bsum into an
/// array, and a checksum leaf over it. Each iteration's `w` (read twice by
/// `axpy`), `z` (read once by `bsum`) and `axpy`'s `2.0` are counted, so
/// the store frees them after their last successful read.
const BLOB_SRC: &str = r#"
    (blob o) wave (int i) "bk" "1.0" [ "set <<o>> [ bk::wave <<i>> ]" ];
    (blob o) axpy (float a, blob x, blob y) "bk" "1.0" [ "set <<o>> [ bk::axpy <<a>> <<x>> <<y>> ]" ];
    (int o) bsum (blob z) "bk" "1.0" [ "set <<o>> [ bk::bsum <<z>> ]" ];
    (int o) checksum (int a[]) [ "set <<o>> 0; foreach v [ turbine::container_values <<a>> ] { incr <<o>> $v }" ];
    int sums[];
    foreach i in [1:80] {
        blob w = wave(i);
        blob z = axpy(2.0, w, w);
        sums[i] = bsum(z);
    }
    printf("checksum %d", checksum(sums));
"#;

fn blob_kernels() -> NativeLibrary {
    NativeLibrary::new("bk", "1.0")
        .function("wave", |args| {
            let i = args[0].as_i64()?;
            let data: Vec<f64> = (0..512)
                .map(|j| ((i * 7 + j * 13) % 1_024) as f64)
                .collect();
            Ok(NativeArg::Blob(Blob::from_f64s(&data)))
        })
        .function("axpy", |args| {
            let a = args[0].as_f64()?;
            let x = args[1].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let y = args[2].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let out: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
            Ok(NativeArg::Blob(Blob::from_f64s(&out)))
        })
        .function("bsum", |args| {
            let x = args[0].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            Ok(NativeArg::Int(x.iter().sum::<f64>() as i64))
        })
}

/// Run [`BLOB_SRC`] on 8 ranks (engine 0, workers 1..=5, servers 6 and
/// 7) at replication 2 under `plan`, and check it against the fault-free
/// run: `victim` dead, no release that found its datum gone, and the same
/// output — which no task that lost an input could give: a freed datum
/// never comes back, so its reader would fail every retry, be
/// quarantined, and leave the checksum unprinted. (A retry can still fail
/// otherwise: when a worker dies between a store and the ack behind it,
/// the rerun task's store is a double assignment, read counts or not.)
fn assert_blob_pipeline_survives(plan: FaultPlan, victim: usize) {
    let rt = || machine(8, 2).replication(2).native_library(blob_kernels());
    let clean = rt().run(BLOB_SRC).expect("fault-free run");
    let totals = clean.server_totals();
    assert_eq!((totals.data_unreleased, totals.release_misses), (0, 0));
    assert!(
        totals.data_freed >= 3 * 80,
        "w, z and 2.0 of every iteration"
    );
    let r = rt()
        .faults(plan)
        .run(BLOB_SRC)
        .unwrap_or_else(|e| panic!("killing rank {victim} must not fail the run: {e}"));
    assert_eq!(
        r.killed_ranks,
        vec![victim],
        "the scheduled victim must die"
    );
    assert_eq!(r.stdout, clean.stdout);
    assert_eq!(r.server_totals().release_misses, 0);
}

#[test]
fn a_worker_death_around_its_task_ends_frees_no_input_early() {
    // Workers 2 and 4 run every task here; the others never get one.
    // Worker 2 dies as its 30th ack leaves, with the reads it releases.
    // Whatever was in flight when it died (acks still in its outbox, and
    // the releases with them), the retry still finds every input: a lost
    // release is a leak, not a free.
    assert_blob_pipeline_survives(FaultPlan::new().kill_at(2, Point::AckSent, 30), 2);
}

#[test]
fn a_server_death_mid_pipeline_frees_each_datum_once() {
    // Rank 7 holds half the blobs and the replica of rank 6's shard. It
    // dies after applying rank 6's 40th op batch. Its successor promotes
    // its ledger — read counts and frees included — and serves the
    // releases that follow.
    assert_blob_pipeline_survives(FaultPlan::new().kill_at(7, Point::ReplicaUpdated, 40), 7);
}

/// `n` printed tasks, each fed by a leaf that spins for a fraction of a
/// millisecond, so the run lasts long enough for every rank to take part.
fn spin_tasks(n: usize) -> String {
    format!(
        r#"(int o) spin (int i) [ "for {{set k 0}} {{$k < 400}} {{incr k}} {{}}; set <<o>> <<i>>" ];
        foreach i in [0:{}] {{ int j = spin(i); printf("task %d", j); }}"#,
        n - 1
    )
}

/// At replication 1 rank 7's three clients park on it and get nothing
/// (rank 6 serves every task). That third Get is the last request it
/// applies before termination can be decided, so a kill there always
/// lands mid-run.
const R1_KILL: (usize, Point, u64) = (7, Point::RequestApplied, 3);

#[test]
fn server_death_at_replication_1_fails_cleanly_not_hangs() {
    // A server death with replication disabled: the shard is lost, so
    // the run cannot complete — but it must end in a clean, attributable
    // error (the shard-loss diagnosis), never a hang. checkpoint(0) pins
    // the tier off even in a fault-matrix cell that turns it on: this
    // test is *about* the no-durability path.
    let (victim, point, n) = R1_KILL;
    let plan = FaultPlan::new().kill_at(victim, point, n);
    let err = machine(8, 2)
        .replication(1)
        .checkpoint(0)
        .faults(plan)
        .run(&spin_tasks(120))
        .expect_err("an unreplicated shard loss cannot complete the program");
    match err {
        SwiftTError::Runtime(m) => {
            assert!(
                m.contains("unrecoverable"),
                "error must carry the shard-loss diagnosis: {m}"
            );
            assert!(
                m.contains("server rank 7"),
                "diagnosis must name the lost shard's home: {m}"
            );
            assert!(
                m.contains("no checkpoint configured"),
                "diagnosis must say why nothing durable could help: {m}"
            );
        }
        other => panic!("expected a runtime error, got {other:?}"),
    }
}

/// Rank layout for machine(12, 4): engine 0, workers 1..=7, servers
/// 8..=11 (master 8). Kill two servers sequentially with a gap wide
/// enough that re-replication restores R between the deaths: after rank
/// 9 dies, its successor 10 merges the shard and streams fresh replica
/// state to the recomputed successors; by the time rank 11 dies the ring
/// is back at R=2, so the second failover is just as survivable as the
/// first. Victims 9 and 11 promote onto 10 and (wrapping) 8, so both
/// failover counters live on survivors and stay visible in the totals.
/// Rank 9 holds the master's replica and dies after applying its 10th op
/// batch; rank 11 holds rank 10's and dies once it installed the second
/// one, the merged state 10 streams after promoting 9's shard.
#[test]
fn two_sequential_server_deaths_with_re_replication_complete_the_program() {
    let src = &spin_tasks(300);
    let clean = machine(12, 4)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new()
        .kill_at(9, Point::ReplicaUpdated, 10)
        .kill_at(11, Point::ReplicaInstalled, 2);
    let r = machine(12, 4)
        .replication(2)
        .re_replication(true)
        .faults(plan)
        .run(src)
        .expect("both deaths land after R was restored, so the run must complete");
    assert_eq!(
        r.killed_ranks,
        vec![9, 11],
        "both scheduled server victims must die"
    );
    let totals = r.server_totals();
    assert_eq!(totals.failovers, 2, "each victim's successor promoted");
    assert!(totals.repl_syncs > 0, "re-replication streams completed");
    assert!(totals.repl_sync_bytes > 0, "sync streams carried state");
    assert!(
        totals.r_restore_micros > 0,
        "time-to-R-restored was measured"
    );
    let mut got = unique_lines(&r.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "output after two sequential server deaths must match the fault-free run"
    );
    assert!(
        r.truncated_streams.is_empty(),
        "no worker died, so no stream may be truncated: {:?}",
        r.truncated_streams
    );
}

/// The same two victims with re-replication disabled: R is never
/// restored after the first death, and rank 11 dies as soon as it has
/// handled rank 9's. The run must end in a clean, attributable error —
/// never a hang — unless it won the race and finished before the second
/// death mattered.
#[test]
fn two_sequential_server_deaths_without_re_replication_end_cleanly() {
    let plan = FaultPlan::new()
        .kill_at(9, Point::ReplicaUpdated, 10)
        .kill_at(11, Point::DeathHandled, 1);
    let r = machine(12, 4)
        .replication(2)
        .re_replication(false)
        .faults(plan)
        .run(&spin_tasks(300));
    match r {
        Ok(r) => {
            // Completed before the loss bit: output must still be clean,
            // and the first death at least must have landed mid-run.
            unique_lines(&r.stdout);
            assert_eq!(r.killed_ranks.first(), Some(&9), "{:?}", r.killed_ranks);
            assert!(r.server_totals().failovers >= 1);
        }
        Err(SwiftTError::Runtime(m)) => assert!(
            m.contains("unrecoverable"),
            "error must carry the shard-loss diagnosis: {m}"
        ),
        Err(other) => panic!("expected a runtime error, got {other:?}"),
    }
}

#[test]
fn server_death_at_replication_1_with_checkpoint_completes() {
    // The same schedule that is unrecoverable above, with the durable
    // tier on: the successor restores the dead server's shard from its
    // pfs checkpoint (there is no RAM replica at replication 1), and the
    // run completes with the fault-free output.
    let src = &spin_tasks(120);
    let clean = machine(8, 2)
        .replication(1)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let (victim, point, n) = R1_KILL;
    let plan = FaultPlan::new().kill_at(victim, point, n);
    let r = machine(8, 2)
        .replication(1)
        .checkpoint(8)
        .faults(plan)
        .run(src)
        .expect("the pfs checkpoint must make the unreplicated shard recoverable");
    assert_eq!(r.killed_ranks, vec![7]);
    let totals = r.server_totals();
    assert!(totals.pfs_restores >= 1, "the shard came back from pfs");
    assert!(totals.ckpt_records > 0, "the WAL was written");
    let mut got = unique_lines(&r.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "output after a pfs restore must match the fault-free run"
    );
}

/// Rank layout for machine(12, 4): servers 8..=11. Kill 9, then 10 —
/// with re-replication off, 10 holds the only RAM copy of the shard it
/// subsumed from 9, so 10's death loses every in-memory holder of that
/// shard. The durable tier must bring it back: 10's forced post-promotion
/// segment covers both homes, and the redirect tombstone left for 9
/// points the restorer at it. Rank 10 dies right after handling 9's
/// death, its promotion and that segment included.
#[test]
fn kill_all_shard_holders_restores_from_pfs_checkpoint() {
    let src = &spin_tasks(300);
    let clean = machine(12, 4)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new()
        .kill_at(9, Point::ReplicaUpdated, 10)
        .kill_at(10, Point::DeathHandled, 1);
    let r = machine(12, 4)
        .replication(2)
        .re_replication(false)
        .checkpoint(16)
        .faults(plan)
        .run(src)
        .expect("losing every RAM holder must fall back to the pfs checkpoint");
    assert_eq!(r.killed_ranks, vec![9, 10], "both scheduled victims died");
    let totals = r.server_totals();
    // Rank 10's own failover count (for subsuming rank 9) died with it;
    // survivor totals only see rank 11's restore-and-promote.
    assert!(totals.failovers >= 1, "the survivor failed over the shard");
    assert!(
        totals.pfs_restores >= 1,
        "at least the second failover had no RAM replica and restored from pfs"
    );
    let mut got = unique_lines(&r.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "output after a total-holder loss must match the fault-free run"
    );
}

/// Whole-world restartability: kill the entire server tier mid-run (the
/// clients then crash out on "all servers are dead" — the whole world is
/// gone), then relaunch the same program with `resume` against the same
/// checkpoint store. The restarted clients replay their request streams
/// from seq 1; requests at or below each shard's durable high-water are
/// answered byte-for-byte from the recorded response history (forcing the
/// same execution path, so the full program output reappears), and
/// everything past it runs fresh against the restored shards —
/// exactly-once server effects across the two runs.
#[test]
fn whole_world_kill_then_resume_completes_exactly_once() {
    let src = r#"foreach i in [0:59] { printf("task %d", i); }"#;
    let clean = machine(6, 1).run(src).expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();
    assert_eq!(want.len(), 60);

    let fs = Arc::new(Pfs::new(PfsConfig::default()));
    // Run 1: the lone server (rank 5) dies after its 20th client request,
    // with tasks queued, leased and acked, and every client then panics
    // out on total server loss. The world is gone.
    let r1 = machine(6, 1)
        .checkpoint(4)
        .checkpoint_store(fs.clone())
        .faults(FaultPlan::new().kill_at(5, Point::RequestApplied, 20))
        .run(src);
    match r1 {
        Err(SwiftTError::Runtime(m)) => assert!(
            m.contains("servers are dead"),
            "run 1 must crash out on total server loss: {m}"
        ),
        other => panic!("expected the whole world to go down, got {other:?}"),
    }
    let baseline = Arc::new(Pfs::new(PfsConfig::default())).dump().len();
    assert!(
        fs.dump().len() > baseline,
        "run 1 left durable checkpoint state behind"
    );

    // Run 2: same program, same store, resume. No faults.
    let r2 = machine(6, 1)
        .checkpoint(4)
        .checkpoint_store(fs.clone())
        .resume(true)
        .run(src)
        .expect("the resumed world must complete");
    assert!(r2.killed_ranks.is_empty());
    assert!(
        r2.server_totals().pfs_restores >= 1,
        "the server restored its shard before serving"
    );
    let mut got = unique_lines(&r2.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "the resumed run must produce the complete output, each task exactly once"
    );
}

/// Every checkpointed shard in `fs`'s image is clean and at rest holds a
/// WAL tail smaller than the segment under it: compaction is due as
/// soon as the tail reaches the segment's size. Returns the shards'
/// segment epochs.
fn assert_wal_within_segment(fs: &Arc<Pfs>) -> Vec<u64> {
    let report = swiftt::adlb::verify_checkpoint(fs);
    assert!(report.is_clean(), "{:?}", report.shards);
    let mut epochs = Vec::new();
    for shard in report.shards.iter().filter(|s| s.redirect_to.is_none()) {
        assert!(
            shard.wal_bytes < shard.segment_bytes,
            "home {}: a {}-byte WAL tail on a {}-byte segment",
            shard.home,
            shard.wal_bytes,
            shard.segment_bytes
        );
        epochs.push(shard.seg_no);
    }
    epochs
}

/// Resume keeps the compaction bound: a run cut off after its shard
/// compacted at least twice resumes from that image to the uninterrupted
/// output, and the resumed run's image still restores from one segment
/// plus a smaller tail.
#[test]
fn resume_after_repeated_compaction_keeps_the_wal_within_the_segment() {
    let src = r#"foreach i in [0:59] { printf("task %d", i); }"#;
    let clean = machine(6, 1).run(src).expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let fs = Arc::new(Pfs::new(PfsConfig::default()));
    let cut = machine(6, 1)
        .checkpoint(4)
        .checkpoint_store(fs.clone())
        .faults(FaultPlan::new().kill_at(5, Point::RequestApplied, 20))
        .run(src);
    assert!(cut.is_err(), "the lone server's death ends run 1");
    let epochs = assert_wal_within_segment(&fs);
    assert!(
        epochs.iter().all(|k| *k >= 2),
        "run 1 compacted at least twice before the cut: epochs {epochs:?}"
    );

    let resumed = machine(6, 1)
        .checkpoint(4)
        .checkpoint_store(fs.clone())
        .resume(true)
        .run(src)
        .expect("the resumed world must complete");
    assert!(resumed.server_totals().pfs_restores >= 1);
    let mut got = unique_lines(&resumed.stdout);
    got.sort_unstable();
    assert_eq!(
        got, want,
        "the resumed run's output is the uninterrupted run's"
    );
    let after = assert_wal_within_segment(&fs);
    assert!(
        after.iter().zip(&epochs).all(|(a, b)| a > b),
        "the resumed shard re-anchored in a later epoch: {epochs:?} -> {after:?}"
    );
}

#[test]
fn cli_faults_flag_reports_counters() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:9] { printf("t%d", i); }"#,
            "-n",
            "6",
            "--faults",
            "kill:rank=2,at=client.get_sent,n=1",
            "--max-retries",
            "5",
            "--report",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 10, "all tasks ran on survivors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("killed ranks       : [2]"), "{stderr}");
    assert!(stderr.contains("ranks failed (srv) : 1"), "{stderr}");
}

#[test]
fn cli_replication_flag_survives_server_death() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:99] { printf("t%d", i); }"#,
            "-n",
            "8",
            "-s",
            "2",
            "--replication",
            "2",
            "--faults",
            "kill:rank=7,at=server.replica_updated,n=10",
            "--report",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        100,
        "all tasks ran despite the dead server"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("killed ranks       : [7]"), "{stderr}");
    assert!(stderr.contains("server failovers   : 1"), "{stderr}");
    assert!(stderr.contains("replication ops    : "), "{stderr}");
}

#[test]
fn cli_report_shows_re_replication_metrics() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:149] { printf("t%d", i); }"#,
            "-n",
            "12",
            "-s",
            "4",
            "--replication",
            "2",
            "--faults",
            "kill:rank=9,at=server.replica_updated,n=10",
            "--report",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 150, "all tasks ran on survivors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("killed ranks       : [9]"), "{stderr}");
    assert!(stderr.contains("re-replicated bytes: "), "{stderr}");
    assert!(stderr.contains("time-to-R-restored : "), "{stderr}");
}

#[test]
fn cli_no_re_replication_flag_disables_syncs() {
    // One server death at replication 2 still completes (the replica
    // promotes), but with re-replication off no sync streams run, so the
    // report must not show sync metrics.
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:99] { printf("t%d", i); }"#,
            "-n",
            "12",
            "-s",
            "4",
            "--replication",
            "2",
            "--no-re-replication",
            "--faults",
            "kill:rank=9,at=server.replica_updated,n=10",
            "--report",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 100, "all tasks ran on survivors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("server failovers   : 1"), "{stderr}");
    assert!(!stderr.contains("re-replicated bytes"), "{stderr}");
    assert!(!stderr.contains("time-to-R-restored"), "{stderr}");
}

#[test]
fn cli_rejects_replication_above_server_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args(["--expr", "trace(1);", "-s", "1", "--replication", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replication"), "{stderr}");
    assert!(stderr.contains("configuration error"), "{stderr}");
}

#[test]
fn cli_checkpoint_file_resumes_across_processes() {
    // Process 1 loses its whole server tier mid-run (the world goes down
    // with it) but persists the checkpoint store image; process 2 resumes
    // from the image and must print the complete task set exactly once.
    let img = std::env::temp_dir().join(format!(
        "swiftt-ckpt-{}-{}.img",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let img_path = img.to_str().unwrap();
    let expr = r#"foreach i in [0:39] { printf("t%d", i); }"#;
    let out1 = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            expr,
            "-n",
            "6",
            "--checkpoint",
            "4",
            "--checkpoint-file",
            img_path,
            "--faults",
            "kill:rank=5,at=server.request_applied,n=15",
        ])
        .output()
        .unwrap();
    assert!(
        !out1.status.success(),
        "total server loss must fail the first process: {out1:?}"
    );
    let stderr1 = String::from_utf8_lossy(&out1.stderr);
    assert!(stderr1.contains("servers are dead"), "{stderr1}");
    assert!(
        std::fs::metadata(img_path).is_ok_and(|m| m.len() > 0),
        "process 1 must write the checkpoint image even though it crashed"
    );

    let out2 = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            expr,
            "-n",
            "6",
            "--resume",
            "--checkpoint-file",
            img_path,
            "--report",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(img_path);
    assert!(out2.status.success(), "{out2:?}");
    let stdout = String::from_utf8_lossy(&out2.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let before = lines.len();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), before, "duplicate output lines: {lines:?}");
    assert_eq!(lines.len(), 40, "the resumed process printed every task");
    let stderr = String::from_utf8_lossy(&out2.stderr);
    assert!(stderr.contains("pfs restores       : "), "{stderr}");
}

#[test]
fn cli_rejects_malformed_fault_spec() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args(["--expr", "trace(1);", "--faults", "explode:everything"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--faults"), "{stderr}");
}

/// Every fault point, hit once on a rank that reaches it on
/// machine(12, 4) at replication 2 (engine 0, worker 4 on the master 8,
/// which serves every task; rank 9 holds the master's replica): the
/// victim dies and the output set is the fault-free run's. A point whose
/// call site has gone never fires, and fails here.
#[test]
fn a_kill_at_each_fault_point_changes_no_output() {
    let src = &spin_tasks(120);
    let clean = machine(12, 4)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();
    for &point in Point::ALL {
        let (victim, rt) = match point {
            Point::Send | Point::GetSent | Point::TaskReceived | Point::AckSent => {
                (4, machine(12, 4))
            }
            Point::RequestApplied | Point::OpsReplicated => (8, machine(12, 4)),
            Point::Recv
            | Point::ReplicaUpdated
            | Point::ReplicaInstalled
            | Point::SyncRetired
            | Point::TerminationDecided => (9, machine(12, 4)),
            // Rank 10 promotes rank 9's shard first; with the checkpoint
            // tier on, its own death then restores from pfs.
            Point::DeathHandled => (10, machine(12, 4).re_replication(false).checkpoint(16)),
        };
        let mut plan = FaultPlan::new().kill_at(victim, point, 1);
        if point == Point::DeathHandled {
            plan = plan.kill_at(9, Point::ReplicaUpdated, 10);
        }
        let r = rt
            .replication(2)
            .faults(plan)
            .run(src)
            .unwrap_or_else(|e| panic!("{}: {e}", point.name()));
        assert!(
            r.killed_ranks.contains(&victim),
            "{}: rank {victim} must die, killed {:?}",
            point.name(),
            r.killed_ranks
        );
        let mut got = unique_lines(&r.stdout);
        got.sort_unstable();
        assert_eq!(got, want, "{}", point.name());
    }
}
