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

use swiftt::core::{FaultPlan, Runtime, SwiftTError};
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

#[test]
fn early_worker_death_loses_no_tasks() {
    // Rank layout for new(6): engine 0, workers 1..=4, server 5. Kill
    // worker 2 at its very first receive: it has executed nothing, so
    // every task must surface from the survivors.
    let plan = FaultPlan::new().kill_after_recvs(2, 0);
    let r = Runtime::new(6)
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
    // Kill worker 3 midway through its task stream. Its executed tasks'
    // output and acks left in one batch ahead of every receive it ever
    // blocked in (the kill lands on one), so nothing it did is lost OR
    // rerun: the assembled stdout holds all 200 tasks exactly once even
    // though the rank died. A worker receives once per prefetched batch
    // (its tasks carry their inputs): 16–18 times for its ~50 tasks in
    // release and debug builds alike (the largest receive count a kill
    // still fires at), so 4 receives is about a quarter of the way in,
    // with room for a worker dealt fewer batches than its share (a kill
    // at 6 missed once in about a hundred suite runs).
    let plan = FaultPlan::new().kill_after_recvs(3, 4);
    let r = Runtime::new(6)
        .faults(plan)
        .run(r#"foreach i in [0:199] { printf("task %d", i); }"#)
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
    // batch. Kill worker 2 right after that Get is delivered: whatever
    // the server leased to it (up to a full prefetch batch) is in flight
    // to a dead rank and must be requeued — every task surfaces from the
    // survivors exactly once.
    let plan = FaultPlan::new().kill_after_sends(2, 1);
    let r = Runtime::new(6)
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
    let batched = Runtime::new(5).run(src).expect("batched run");
    let unbatched = Runtime::new(5)
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
    let r = Runtime::new(5)
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
    let err = Runtime::new(4)
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

/// Rank layout for new(8).servers(2): engine 0, workers 1..=5, servers
/// 6 (master) and 7. Run the same 120-task program fault-free and with
/// one server killed mid-run at replication 2; the output task set must
/// be identical (worker scheduling makes line *order* nondeterministic,
/// so we compare sorted lines).
fn assert_server_death_output_matches(victim: usize, kill_recvs: u64) {
    let src = r#"foreach i in [0:119] { printf("task %d", i); }"#;
    let clean = Runtime::new(8)
        .servers(2)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new().kill_after_recvs(victim, kill_recvs);
    let r = Runtime::new(8)
        .servers(2)
        .replication(2)
        .faults(plan)
        .run(src)
        .unwrap_or_else(|e| {
            panic!("killing server {victim} at recv {kill_recvs} must not fail the run: {e}")
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
    // protocol.
    for kill_recvs in [10, 40] {
        assert_server_death_output_matches(6, kill_recvs);
    }
}

#[test]
fn second_server_death_at_replication_2_output_matches_fault_free() {
    for kill_recvs in [10, 40] {
        assert_server_death_output_matches(7, kill_recvs);
    }
}

/// The replication-1 death tests' program: the 120 printed tasks of the
/// tests above, each fed by a leaf that spins for a fraction of a
/// millisecond. Rank 7's receives are mostly rank 6's 1 ms heartbeats —
/// a clock — and the bare 120-task program (its tasks read no input from
/// the server) is over before rank 7's 15th receive in about half the
/// runs of a release build: a kill at receive 10 lands after termination
/// often enough to flake. With the spin, rank 7
/// receives ~100–150 messages in a release run, so receive 10 is early
/// in it (measured through `swiftt -n 8 -s 2 --replication 1 --faults
/// kill:rank=7,recvs=K`: mid-run in 10 of 10 runs up to K = 60).
const R1_DEATH_SRC: &str = r#"
    (int o) spin (int i) [ "for {set k 0} {$k < 400} {incr k} {}; set <<o>> <<i>>" ];
    foreach i in [0:119] { int j = spin(i); printf("task %d", j); }
"#;

#[test]
fn server_death_at_replication_1_fails_cleanly_not_hangs() {
    // A server death with replication disabled: the shard is lost, so
    // the run cannot complete — but it must end in a clean, attributable
    // error (the shard-loss diagnosis), never a hang. checkpoint(0) pins
    // the tier off even under SWIFTT_CHECKPOINT=on (the CI fault matrix):
    // this test is *about* the no-durability path.
    let plan = FaultPlan::new().kill_after_recvs(7, 10);
    let err = Runtime::new(8)
        .servers(2)
        .replication(1)
        .checkpoint(0)
        .faults(plan)
        .run(R1_DEATH_SRC)
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

/// The program of the sequential-death tests: 300 printed tasks, each fed
/// by a leaf that spins for a fraction of a millisecond. The second
/// victim of each schedule is a server with little traffic of its own —
/// its receives are mostly its peers' 1 ms heartbeats — so a receive
/// count on it is a clock, and without the spin an optimised build is
/// through the whole program (40 ms) before that clock reaches the
/// trigger: the kill silently never fires.
const SEQUENTIAL_DEATHS_SRC: &str = r#"
    (int o) spin (int i) [ "for {set k 0} {$k < 400} {incr k} {}; set <<o>> <<i>>" ];
    foreach i in [0:299] { int j = spin(i); printf("task %d", j); }
"#;

/// Rank layout for new(12).servers(4): engine 0, workers 1..=7, servers
/// 8..=11 (master 8). Kill two servers sequentially with a gap wide
/// enough that re-replication restores R between the deaths: after rank
/// 9 dies, its successor 10 merges the shard and streams fresh replica
/// state to the recomputed successors; by the time rank 11 dies the ring
/// is back at R=2, so the second failover is just as survivable as the
/// first. Victims 9 and 11 promote onto 10 and (wrapping) 8, so both
/// failover counters live on survivors and stay visible in the totals.
#[test]
fn two_sequential_server_deaths_with_re_replication_complete_the_program() {
    let src = SEQUENTIAL_DEATHS_SRC;
    let clean = Runtime::new(12)
        .servers(4)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new()
        .kill_after_recvs(9, 10)
        .kill_after_recvs(11, 50);
    let r = Runtime::new(12)
        .servers(4)
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

/// The same double-death schedule with re-replication disabled: R is
/// never restored after the first death, so the second death strands a
/// shard whose only fresh copy died with its holder. The run must end in
/// a clean, attributable error — never a hang — unless it won the race
/// and finished before the second death mattered.
#[test]
fn two_sequential_server_deaths_without_re_replication_end_cleanly() {
    let plan = FaultPlan::new()
        .kill_after_recvs(9, 10)
        .kill_after_recvs(11, 50);
    let r = Runtime::new(12)
        .servers(4)
        .replication(2)
        .re_replication(false)
        .faults(plan)
        .run(SEQUENTIAL_DEATHS_SRC);
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
    let src = R1_DEATH_SRC;
    let clean = Runtime::new(8)
        .servers(2)
        .replication(1)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new().kill_after_recvs(7, 10);
    let r = Runtime::new(8)
        .servers(2)
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

/// Rank layout for new(12).servers(4): servers 8..=11. Kill 9, then 10 —
/// with re-replication off, 10 holds the only RAM copy of the shard it
/// subsumed from 9, so 10's death loses every in-memory holder of that
/// shard. The durable tier must bring it back: 10's forced post-promotion
/// segment covers both homes, and the redirect tombstone left for 9
/// points the restorer at it.
#[test]
fn kill_all_shard_holders_restores_from_pfs_checkpoint() {
    let src = SEQUENTIAL_DEATHS_SRC;
    let clean = Runtime::new(12)
        .servers(4)
        .replication(2)
        .run(src)
        .expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();

    let plan = FaultPlan::new()
        .kill_after_recvs(9, 10)
        .kill_after_recvs(10, 80);
    let r = Runtime::new(12)
        .servers(4)
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
    let clean = Runtime::new(6).run(src).expect("fault-free run");
    let mut want: Vec<&str> = clean.stdout.lines().collect();
    want.sort_unstable();
    assert_eq!(want.len(), 60);

    let fs = Arc::new(Pfs::new(PfsConfig::default()));
    // Run 1: the lone server (rank 5) dies mid-stream — 20 of the ~55
    // receives a fault-free run costs it (a kill still fires at 50 in 10
    // of 10 runs, at 55 in 5 of 10), with tasks queued, leased and acked
    // — and every client then panics out on total server loss. The world
    // is gone.
    let r1 = Runtime::new(6)
        .checkpoint(4)
        .checkpoint_store(fs.clone())
        .faults(FaultPlan::new().kill_after_recvs(5, 20))
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
    let r2 = Runtime::new(6)
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

#[test]
fn cli_faults_flag_reports_counters() {
    let out = Command::new(env!("CARGO_BIN_EXE_swiftt"))
        .args([
            "--expr",
            r#"foreach i in [0:9] { printf("t%d", i); }"#,
            "-n",
            "6",
            "--faults",
            "kill:rank=2,recvs=0",
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
            "kill:rank=7,recvs=10",
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
            "kill:rank=9,recvs=10",
            "--report",
        ])
        // Pin the default on: the CI fault matrix sweeps this env knob,
        // and this test is about the metrics re-replication produces.
        .env("SWIFTT_REREPLICATION", "1")
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
            "kill:rank=9,recvs=10",
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
            "kill:rank=5,recvs=25",
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
