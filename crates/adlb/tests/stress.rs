//! Stress/invariant tests for ADLB: across random machine shapes, task
//! mixes, priorities, and targets, every task is delivered exactly once
//! and targeted tasks land only on their targets.

use std::collections::HashSet;

use adlb::{serve, AdlbClient, Layout, ServerConfig, WORK_TYPE_CONTROL, WORK_TYPE_WORK};
use mpisim::World;

/// Simple deterministic PRNG (so failures are reproducible from the seed).
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One randomized scenario: `submitters` clients put a random task mix;
/// the other clients consume until shutdown. Returns (delivered ids per
/// consumer rank, targeted assignments).
fn run_scenario(seed: u64) {
    let mut rng = Rng(seed | 1);
    let servers = 1 + rng.below(3) as usize;
    let consumers = 2 + rng.below(5) as usize;
    let submitters = 1 + rng.below(2) as usize;
    let clients = consumers + submitters;
    let size = clients + servers;
    let layout = Layout::new(size, servers);
    let tasks_per_submitter = 30 + rng.below(40) as usize;

    // Pre-generate the task plan so every rank agrees on expectations.
    let mut plan: Vec<(usize, u32, i32, Option<usize>, u64)> = Vec::new(); // (submitter, wt, prio, target, id)
    let mut id = 0u64;
    for s in 0..submitters {
        for _ in 0..tasks_per_submitter {
            let wt = if rng.below(4) == 0 {
                WORK_TYPE_CONTROL
            } else {
                WORK_TYPE_WORK
            };
            let prio = rng.below(10) as i32 - 5;
            // ~25% targeted at a random consumer.
            let target = if rng.below(4) == 0 {
                Some(submitters + rng.below(consumers as u64) as usize)
            } else {
                None
            };
            plan.push((s, wt, prio, target, id));
            id += 1;
        }
    }
    let total = plan.len();
    let plan_ref = &plan;

    let out = World::run(size, move |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve(comm, layout, ServerConfig::default());
            return Vec::new();
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank < submitters {
            for (s, wt, prio, target, tid) in plan_ref.iter() {
                if *s == rank {
                    client.put(*wt, *prio, *target, tid.to_le_bytes().to_vec());
                }
            }
            client.finish();
            return Vec::new();
        }
        // Consumer: accept both work types, record (id) pairs.
        let mut got = Vec::new();
        while let Some(t) = client.get(&[WORK_TYPE_WORK, WORK_TYPE_CONTROL]) {
            let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
            got.push(tid);
        }
        got
    });

    // Exactly-once delivery.
    let mut seen = HashSet::new();
    let mut count = 0;
    for (rank, got) in out.iter().enumerate() {
        for tid in got {
            assert!(
                seen.insert(*tid),
                "seed {seed}: task {tid} delivered twice (second at rank {rank})"
            );
            count += 1;
            // Targeted tasks land on their target.
            let (_, _, _, target, _) = plan_ref[*tid as usize];
            if let Some(t) = target {
                assert_eq!(
                    rank, t,
                    "seed {seed}: targeted task {tid} ran on {rank}, wanted {t}"
                );
            }
        }
    }
    assert_eq!(count, total, "seed {seed}: task count mismatch");
}

#[test]
fn randomized_delivery_exactly_once() {
    for seed in 1..=12u64 {
        run_scenario(seed * 7919);
    }
}

mod batch_fault_interaction {
    //! Batching × fault tolerance: a client that dies holding a prefetched
    //! batch must have every undone task of that batch requeued exactly
    //! once, and an acknowledged batch must never be requeued.

    use std::collections::HashMap;
    use std::sync::Mutex;

    use adlb::{serve, AdlbClient, Layout, ServerConfig, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, Point, World};

    const N_TASKS: u64 = 20;

    /// Ranks: 0 submitter, 1 victim, 2 survivor, 3 server. The submitter
    /// queues all tasks before the victim's first `Get` (so the server
    /// leases it a full prefetch batch of 8); the victim dies at the `n`th
    /// hit of `point`. Returns (tid → executing ranks, server stats).
    fn run_batch_death(point: Point, n: u64) -> (HashMap<u64, Vec<usize>>, adlb::ServerStats) {
        let layout = Layout::new(4, 1);
        let plan = FaultPlan::new().kill_at(1, point, n);
        let executed: Mutex<HashMap<u64, Vec<usize>>> = Mutex::new(HashMap::new());
        let outcome = World::run_faulty(4, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                return Some(serve(comm, layout, ServerConfig::default()));
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..N_TASKS {
                    client.put(WORK_TYPE_WORK, 0, None, tid.to_le_bytes().to_vec());
                }
                client.finish();
                return None;
            }
            // Victim waits for the queue to fill; the survivor starts
            // later still, so the victim's Get is the first one served.
            std::thread::sleep(std::time::Duration::from_millis(if rank == 1 {
                40
            } else {
                120
            }));
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                executed.lock().unwrap().entry(tid).or_default().push(rank);
            }
            None
        });
        assert_eq!(outcome.killed, vec![1], "only the victim dies");
        let stats = outcome
            .outputs
            .into_iter()
            .flatten()
            .flatten()
            .next()
            .expect("server stats");
        (executed.into_inner().unwrap(), stats)
    }

    #[test]
    fn dead_client_holding_prefetched_batch_requeues_every_task_once() {
        // The victim dies as its first Get leaves, with the whole delivery
        // of 8 undelivered, having executed nothing. Every task must run
        // exactly once, all on the survivor.
        let (executed, stats) = run_batch_death(Point::GetSent, 1);
        for tid in 0..N_TASKS {
            let ranks = executed.get(&tid).cloned().unwrap_or_default();
            assert_eq!(ranks, vec![2], "task {tid} ran {ranks:?}, want once on 2");
        }
        assert_eq!(stats.ranks_failed, 1);
        assert_eq!(
            stats.tasks_requeued, 8,
            "the full prefetched batch requeues, each task once"
        );
        assert!(stats.tasks_prefetched > 0, "batching was in play");
    }

    #[test]
    fn acked_batch_is_never_requeued_when_holder_dies() {
        // The victim drains its whole batch of 8 locally and dies as the
        // 8th ack leaves, in the one batch that carries them all. The acks land before death
        // detection (per-pair FIFO), so nothing requeues and the
        // remaining 12 tasks run exactly once on the survivor.
        let (executed, stats) = run_batch_death(Point::AckSent, 8);
        let mut victim_ran = 0;
        for tid in 0..N_TASKS {
            let ranks = executed.get(&tid).cloned().unwrap_or_default();
            assert_eq!(
                ranks.len(),
                1,
                "task {tid} ran {ranks:?}, want exactly once"
            );
            if ranks == [1] {
                victim_ran += 1;
            }
        }
        assert_eq!(victim_ran, 8, "victim drained its full prefetched batch");
        assert_eq!(stats.ranks_failed, 1);
        assert_eq!(
            stats.tasks_requeued, 0,
            "an acknowledged batch must not rerun"
        );
    }
}

mod fault_properties {
    //! Property: under random death schedules — consumers AND (when the
    //! machine has a replica to promote) one server — no task is lost,
    //! and no surviving rank ever executes a task twice. A task may run
    //! twice only when its *first* execution was on a rank that died.
    //!
    //! Why exactly-once holds for survivors: a consumer's protocol is a
    //! strict alternation of sends (TaskDone/Get) and receives
    //! (Deliver), and fault kills only fire at those message
    //! boundaries. A task's execution (here: recording its id) happens
    //! strictly between the receive that delivered it and the TaskDone
    //! send that acknowledges it, so a kill either lands before execution
    //! (server requeues the leased task; runs elsewhere exactly once) or
    //! after the ack (server releases the lease; never reruns it). A
    //! server death preserves this for live clients because every
    //! queue/lease/seq mutation is replicated to the ring successor
    //! *before* the response leaves, and retried requests are deduplicated
    //! by sequence number against the promoted replica.
    //!
    //! Why strict exactly-once is *unachievable* when an executor and its
    //! home server die together: the executor can run a task, flush the
    //! TaskDone ack, and die; if the home server then dies with that ack
    //! still unprocessed in its mailbox (a mailbox dies with its process),
    //! and the executor is dead too, no surviving witness of the execution
    //! exists. Any system must choose between re-running the task
    //! (at-least-once) or risking its loss; we re-run. The duplicate is
    //! confined to executions by ranks that died — survivors stay strict.

    use std::collections::HashMap;
    use std::sync::Mutex;

    use adlb::{serve, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, Point, World};
    use proptest::prelude::*;

    /// One death-schedule scenario. `kills` pairs a consumer index with a
    /// message count; the consumer dies at that point in its protocol.
    /// `prefetch` sets the consumers' batch depth (1 = the unbatched PR 1
    /// protocol) — exactly-once must hold at every depth, because a death
    /// mid-batch requeues the whole remaining lease deque.
    fn run_deaths(
        servers: usize,
        consumers: usize,
        total_tasks: usize,
        prefetch: u32,
        kills: &[(usize, u64, bool)], // (consumer idx, count, kill-on-send?)
        server_kill: Option<(usize, u64, bool)>, // (server idx, count, kill-on-send?)
    ) -> Result<(), TestCaseError> {
        let clients = consumers + 1; // rank 0 submits
        let size = clients + servers;
        let layout = Layout::new(size, servers);

        // Keep at least one consumer alive or the queue can never drain.
        let mut plan = FaultPlan::new();
        let mut victims = Vec::new();
        for &(idx, n, on_send) in kills {
            let victim = 1 + idx % (consumers - 1); // last consumer survives
            if victims.contains(&victim) {
                continue;
            }
            victims.push(victim);
            // `recv` counts from 1, so a consumer killed on receive always
            // completed at least one.
            plan = if on_send {
                plan.kill_at(victim, Point::Send, n + 1)
            } else {
                plan.kill_at(victim, Point::Recv, n.max(1))
            };
        }
        // At most one server victim, and only when a replica exists to
        // promote (replication = 2 needs servers >= 2 to survive it).
        if let Some((sidx, n, on_send)) = server_kill {
            if servers >= 2 {
                let victim = clients + sidx % servers;
                victims.push(victim);
                plan = if on_send {
                    plan.kill_at(victim, Point::Send, n.max(1))
                } else {
                    plan.kill_at(victim, Point::Recv, n.max(1))
                };
            }
        }

        // Every victim dies at most once, so a task can accumulate at most
        // `victims.len()` failed attempts; a roomy budget keeps the
        // quarantine path out of this test.
        let config = ServerConfig {
            max_retries: 16,
            replication: if servers > 1 { 2 } else { 1 },
            ..ServerConfig::default()
        };

        let executed: Mutex<HashMap<u64, Vec<usize>>> = Mutex::new(HashMap::new());
        let outcome = World::run_faulty(size, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve(comm, layout, config.clone());
                return;
            }
            let mut client = AdlbClient::with_config(
                comm,
                layout,
                ClientConfig {
                    prefetch,
                    ..ClientConfig::default()
                },
            );
            if rank == 0 {
                for tid in 0..total_tasks as u64 {
                    // ~1/4 targeted at some consumer (possibly a victim).
                    let target = if tid % 4 == 0 {
                        Some(1 + (tid as usize * 7) % consumers)
                    } else {
                        None
                    };
                    client.put(
                        WORK_TYPE_WORK,
                        (tid % 5) as i32,
                        target,
                        tid.to_le_bytes().to_vec(),
                    );
                }
                client.finish();
                return;
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                // "Execution": recorded between delivery and the ack that
                // the next get() piggybacks.
                executed.lock().unwrap().entry(tid).or_default().push(rank);
            }
        });

        // A schedule point past the victim's last message never fires;
        // whoever did die must be a scheduled victim.
        for k in &outcome.killed {
            prop_assert!(victims.contains(k), "unexpected dead rank {}", k);
        }
        let a_server_died = outcome.killed.iter().any(|&k| k >= clients);
        let executed = executed.into_inner().unwrap();
        for tid in 0..total_tasks as u64 {
            let execs = executed.get(&tid).cloned().unwrap_or_default();
            // Never lost.
            prop_assert!(!execs.is_empty(), "task {} was never executed", tid);
            // Exactly-once on survivors: at most one execution by a rank
            // that finished the run alive.
            let by_survivors = execs.iter().filter(|r| !outcome.killed.contains(r)).count();
            prop_assert!(
                by_survivors <= 1,
                "task {} executed {} times by survivors ({:?})",
                tid,
                by_survivors,
                execs
            );
            // With no server death the home server witnesses every ack
            // before it detects the client's death, so even executions by
            // dying clients are never repeated.
            if !a_server_died {
                prop_assert_eq!(
                    execs.len(),
                    1,
                    "task {} executed {:?} with all servers alive",
                    tid,
                    &execs
                );
            }
        }
        Ok(())
    }

    /// Regression: a consumer death combined with a master-server death
    /// (found by the property below at a higher case count). The dying
    /// consumer's final ack can perish in the dying master's mailbox with
    /// no surviving witness, so that one task may legitimately run again
    /// elsewhere — but nothing may be lost and survivors stay strict.
    #[test]
    fn consumer_and_master_server_death_loses_nothing() {
        for _ in 0..8 {
            run_deaths(
                2,
                5,
                47,
                6,
                &[(3, 2, false), (7, 23, false)],
                Some((0, 19, false)),
            )
            .unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        #[test]
        fn no_task_lost_or_duplicated_under_rank_death(
            servers in 1usize..3,
            consumers in 2usize..6,
            total in 20usize..60,
            prefetch in 1u32..12,
            kills in proptest::collection::vec(
                (0usize..8, 1u64..25, any::<bool>()),
                1..3,
            ),
            server_kill in proptest::option::of((0usize..4, 2u64..40, any::<bool>())),
        ) {
            run_deaths(servers, consumers, total, prefetch, &kills, server_kill)?;
        }
    }
}

mod outbox_ordering {
    //! Property: with write-behind outboxes over two servers, a task never
    //! observes an input its submitter wrote before putting it — whichever
    //! servers the datum and the task live on, and however the writes of
    //! different data interleave in the submitter's program.
    //!
    //! Why it holds: a put (like every request another rank can act on) is
    //! queued only after every *other* server's outbox has been flushed
    //! and answered, and within one server's outbox order is program
    //! order. So when the put becomes visible, the store it follows has
    //! been applied — on the put's own server earlier in the same batch,
    //! on any other server by an acknowledged flush.

    use adlb::{serve, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK};
    use mpisim::World;
    use proptest::prelude::*;

    /// Ranks 0 (submitter, home server 3), 1 and 2 (consumers, homes 4
    /// and 3). Item `k` is `create, store, put` of one datum; `homes[k]`
    /// picks its server, `picks` interleaves the items' steps.
    fn run_interleaving(homes: &[bool], picks: &[usize]) {
        let layout = Layout::new(5, 2);
        World::run(5, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve(comm, layout, ServerConfig::default());
                return;
            }
            let mut c = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            if rank != 0 {
                while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                    let id = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                    let v = c.retrieve(id).expect("input exists");
                    assert_eq!(v.as_deref(), Some(&id.to_le_bytes()[..]), "unwritten input");
                }
                return;
            }
            // Ids alternate servers: even ones live on 3, odd ones on 4.
            let ids: Vec<u64> = homes
                .iter()
                .enumerate()
                .map(|(k, odd)| 2 * k as u64 + *odd as u64)
                .collect();
            let mut step = vec![0; ids.len()];
            let mut live: Vec<usize> = (0..ids.len()).collect();
            for &p in picks {
                if live.is_empty() {
                    break;
                }
                let slot = p % live.len();
                let k = live[slot];
                let id = ids[k];
                match step[k] {
                    0 => c.create(id, 0).unwrap(),
                    1 => c.store(id, id.to_le_bytes().to_vec()).unwrap(),
                    _ => c.put(WORK_TYPE_WORK, 0, None, id.to_le_bytes().to_vec()),
                }
                step[k] += 1;
                if step[k] == 3 {
                    live.swap_remove(slot);
                }
            }
            c.finish();
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
        #[test]
        fn a_task_never_observes_an_unwritten_input(
            homes in proptest::collection::vec(any::<bool>(), 1..40),
            picks in proptest::collection::vec(0usize..64, 120),
        ) {
            run_interleaving(&homes, &picks);
        }
    }
}

#[test]
fn burst_submission_with_slow_consumers() {
    // One submitter floods; consumers inject think-time so queues build
    // and stealing has surplus to move.
    let layout = Layout::new(7, 2);
    let n = 400u64;
    let out = World::run(7, move |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve(comm, layout, ServerConfig::default());
            return 0u64;
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            for i in 0..n {
                client.put(
                    WORK_TYPE_WORK,
                    (i % 7) as i32,
                    None,
                    i.to_le_bytes().to_vec(),
                );
            }
            client.finish();
            return 0;
        }
        let mut sum = 0u64;
        while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
            sum += u64::from_le_bytes(t.payload[..8].try_into().unwrap());
            if sum.is_multiple_of(13) {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        sum
    });
    let total: u64 = out.iter().sum();
    assert_eq!(total, (0..n).sum::<u64>());
}

#[test]
fn priorities_respected_within_prefilled_queue() {
    // Fill the queue before any consumer asks; then a single consumer
    // must see priorities in non-increasing order.
    let layout = Layout::new(3, 1);
    let out = World::run(3, move |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve(comm, layout, ServerConfig::default());
            return Vec::new();
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            let mut rng = Rng(42);
            for _ in 0..60 {
                let prio = rng.below(100) as i32;
                client.put(WORK_TYPE_WORK, prio, Some(1), prio.to_le_bytes().to_vec());
            }
            client.finish();
            return Vec::new();
        }
        // Let the queue fill completely first.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let mut prios = Vec::new();
        while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
            prios.push(i32::from_le_bytes(t.payload[..4].try_into().unwrap()));
        }
        prios
    });
    let prios = &out[1];
    assert_eq!(prios.len(), 60);
    for w in prios.windows(2) {
        assert!(w[0] >= w[1], "priority inversion: {prios:?}");
    }
}

mod sequential_server_deaths {
    //! Property: TWO server deaths in sequence, separated by a
    //! configurable gap in the second victim's send stream. When the gap
    //! exceeds the post-failover re-replication time the run must
    //! complete with every task executed exactly once; when the second
    //! death lands before R is restored the shard may be unrecoverable —
    //! then the run must abort with a diagnosis delivered to the
    //! surviving clients. Either ending is clean; the property a hang
    //! would violate is simply that `World::run_faulty` returns at all.

    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Duration;

    use adlb::{serve_ext, AdlbClient, Layout, ServerConfig, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, Point, World};
    use proptest::prelude::*;

    fn run_two_deaths(first_sends: u64, gap_sends: u64) -> Result<(), TestCaseError> {
        // 3 servers (ranks 6..=8); rank 0 submits through its home
        // server 6, so victims 7 and 8 exercise steal/forward state and
        // the promoted-shard chain without beheading the submitter.
        let layout = Layout::new(9, 3);
        let plan = FaultPlan::new()
            .kill_at(7, Point::Send, first_sends.max(1))
            .kill_at(8, Point::Send, (first_sends + gap_sends).max(1));
        let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let config = ServerConfig {
            replication: 2,
            ..ServerConfig::default()
        };
        let total = 120u64;
        let outcome = World::run_faulty(9, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve_ext(comm, layout, config.clone());
                return Vec::new();
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..total {
                    let target = if tid % 6 == 0 {
                        Some(1 + (tid as usize) % 5)
                    } else {
                        None
                    };
                    client.put(
                        WORK_TYPE_WORK,
                        (tid % 3) as i32,
                        target,
                        tid.to_le_bytes().to_vec(),
                    );
                }
                client.finish();
                return client.quarantine_reports().to_vec();
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
                std::thread::sleep(Duration::from_micros(400));
            }
            client.quarantine_reports().to_vec()
        });
        // Only scheduled victims may die (a late point can miss).
        for k in &outcome.killed {
            prop_assert!([7usize, 8].contains(k), "unexpected dead rank {}", k);
        }
        let executed = executed.into_inner().unwrap();
        // Consumers all survive, so a duplicate execution anywhere is a
        // replication bug regardless of how the run ended.
        for (tid, n) in &executed {
            prop_assert!(*n <= 1, "task {} executed {} times", tid, n);
        }
        let reports: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
        if reports.is_empty() {
            // Completed: nothing may be lost.
            for tid in 0..total {
                prop_assert_eq!(
                    executed.get(&tid).copied().unwrap_or(0),
                    1,
                    "completed run lost task {}",
                    tid
                );
            }
        } else {
            // Aborted: the ending must carry the shard-loss diagnosis.
            prop_assert!(
                reports.iter().any(|r| r.contains("unrecoverable")),
                "abort without diagnosis: {:?}",
                reports
            );
        }
        Ok(())
    }

    #[test]
    fn wide_gap_survives_both_deaths() {
        // The gap dwarfs the sync time (R restores within ~1 ms of the
        // first death; 200 sends of an active server span far more), so
        // this specific schedule must COMPLETE, not merely end cleanly.
        run_two_deaths(4, 200).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]
        #[test]
        fn any_gap_ends_cleanly(
            first in 2u64..40,
            gap in 0u64..250,
        ) {
            run_two_deaths(first, gap)?;
        }
    }
}

/// WAL replay idempotence: a crashed writer's re-appended tail leaves the
/// log with duplicated and (after concatenating partial files) reordered
/// records. Replay must produce exactly the state of a live ledger that
/// applied the ops as they were committed (and the LSN of the clean log),
/// and replaying the messy log on top of an already-restored ledger must
/// change nothing.
mod wal_replay {
    use bytes::Bytes;
    use proptest::prelude::*;

    use adlb::{decode_wal, encode_wal_record, replay_wal_records, Ledger, ReplOp, Task};

    /// One synthetic mutation per index: deterministic ops covering the
    /// store, subscriber set, queue, leases, output stream, and response
    /// history. Invalid transitions (store before create, double close,
    /// removing a task that is not queued, dropping more leases than are
    /// open) are fine — `Ledger::apply` absorbs them identically on every
    /// replay, which is the property under test.
    fn op(i: u64) -> ReplOp {
        let id = i % 7;
        let client = (i % 5) as usize;
        // Few distinct tasks, so removals and drops often hit.
        let task = |k: u64| Task::new(1, (k % 3) as i32, None, Bytes::from(vec![(k % 4) as u8]));
        match i % 12 {
            8 => ReplOp::Push {
                tasks: vec![task(i), task(i / 12)],
            },
            9 => ReplOp::Remove {
                tasks: vec![task(i / 12)],
            },
            10 => ReplOp::LeaseOpen {
                client,
                tasks: vec![task(i)],
            },
            11 => ReplOp::LeaseDrop { client, n: 1 },
            // Every other create is counted, with 0 to 2 reads, so
            // releases take positive counts down and closes free.
            0 => ReplOp::Create {
                id,
                type_tag: 0,
                reads: (i % 24 == 12).then_some((i / 24 % 3) as u32),
            },
            7 if i % 24 == 7 => ReplOp::Release { id, n: 1 },
            1 => ReplOp::Store {
                id,
                value: Bytes::from(format!("v{i}")),
            },
            2 => ReplOp::Subscribe { id, rank: client },
            3 => ReplOp::IncrWriters { id, delta: -1 },
            4 => ReplOp::Out {
                client,
                text: format!("line {i}\n"),
                tenant: (i % 3) as u32,
            },
            5 => ReplOp::SeqResp {
                home: (i % 2) as usize,
                client,
                seq: i,
                resp: Some(Bytes::from(format!("r{i}"))),
            },
            6 => ReplOp::IncrWriters {
                id,
                delta: 1 - (i as i64 % 3),
            },
            _ => ReplOp::Quarantine {
                report: format!("q{i}"),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        #[test]
        fn replay_is_idempotent_under_duplicated_reordered_tail(
            n in 1usize..24,
            ops_per in 1usize..4,
            tail in 0usize..24,
            seed in 1u64..u64::MAX,
        ) {
            let records: Vec<(u64, Vec<ReplOp>)> = (0..n)
                .map(|k| {
                    let lsn = k as u64 + 1;
                    let ops = (0..ops_per).map(|j| op(lsn * 31 + j as u64)).collect();
                    (lsn, ops)
                })
                .collect();

            // The reference is the live ledger: each op applied as its
            // handler commits it, which the clean log must replay to.
            let mut live = Ledger::default();
            for op in records.iter().flat_map(|(_, ops)| ops.clone()) {
                live.apply(0, op);
            }
            let mut clean = Ledger::default();
            let clean_lsn = replay_wal_records(&mut clean, 0, 0, records.clone());
            prop_assert_eq!(clean_lsn, n as u64);
            prop_assert_eq!(&clean, &live);

            // Crashed-writer tail: duplicate every record from `tail` on,
            // then shuffle the whole log.
            let t = tail.min(n - 1);
            let mut messy = records.clone();
            messy.extend_from_slice(&records[t..]);
            let mut rng = super::Rng(seed | 1);
            for i in (1..messy.len()).rev() {
                messy.swap(i, rng.below(i as u64 + 1) as usize);
            }

            // Round-trip through the wire framing, as recovery does.
            let mut buf = Vec::new();
            for (lsn, ops) in &messy {
                buf.extend_from_slice(&encode_wal_record(*lsn, ops));
            }
            let decoded = decode_wal(&buf).expect("well-formed frames decode");
            let mut replayed = Ledger::default();
            let lsn = replay_wal_records(&mut replayed, 0, 0, decoded.clone());
            prop_assert_eq!(lsn, clean_lsn);
            prop_assert_eq!(&replayed, &clean);

            // Replaying the messy tail onto an already-restored ledger
            // (a second recovery attempt) is a no-op.
            let mut twice = clean.clone();
            let lsn2 = replay_wal_records(&mut twice, 0, clean_lsn, decoded);
            prop_assert_eq!(lsn2, clean_lsn);
            prop_assert_eq!(&twice, &clean);
        }
    }
}
