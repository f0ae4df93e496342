//! Server-tier failover tests at the ADLB layer: with `replication = 2`,
//! killing one server mid-run must not lose or duplicate any task, and
//! the run must terminate cleanly with the survivor serving both shards.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use adlb::{serve_ext, AdlbClient, ClientConfig, Layout, ServerConfig, WORK_TYPE_WORK};
use mpisim::{FaultPlan, Point, World};

fn replicated_config() -> ServerConfig {
    ServerConfig {
        replication: 2,
        ..ServerConfig::default()
    }
}

/// 2 servers, 4 clients; kill one server at the `n`th hit of `point`.
/// Returns (tid → execution count, survivor failover count, whether the
/// kill actually fired — a late schedule point can land past the victim's
/// final `Bye`, in which case it exits normally and nothing fails over).
fn run_server_death(
    victim_server: usize,
    point: Point,
    n: u64,
    total: u64,
) -> (HashMap<u64, u64>, u64, bool) {
    let layout = Layout::new(6, 2);
    let plan = FaultPlan::new().kill_at(victim_server, point, n);
    let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let outcome = World::run_faulty(6, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            return Some(serve_ext(comm, layout, replicated_config()).stats.failovers);
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            for tid in 0..total {
                // Mix of untargeted and targeted-at-a-consumer tasks so
                // both queues and the forward path are exercised.
                let target = if tid % 5 == 0 {
                    Some(1 + (tid as usize) % 3)
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
            return None;
        }
        while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
            let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
            *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
            // Think-time so the kill lands while work is still in flight.
            std::thread::sleep(Duration::from_micros(300));
        }
        None
    });
    let fired = !outcome.killed.is_empty();
    if fired {
        assert_eq!(outcome.killed, vec![victim_server]);
    }
    let failovers: u64 = outcome.outputs.into_iter().flatten().flatten().sum();
    (executed.into_inner().unwrap(), failovers, fired)
}

#[test]
fn killing_the_second_server_loses_nothing_at_replication_2() {
    // Rank 5 is the non-master server and holds rank 4's replica; kill it
    // after it applied rank 4's 1st, 5th and 20th op batch (early: barely
    // past startup; later: mid-delivery with leases and forwards in
    // flight).
    for kill_sends in [1, 5, 20] {
        let (executed, failovers, fired) =
            run_server_death(5, Point::ReplicaUpdated, kill_sends, 40);
        for tid in 0..40 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(
                n, 1,
                "kill_sends={kill_sends}: task {tid} executed {n} times"
            );
        }
        // At the late kill point the victim can die on or after its final
        // `Bye` — or finish before its 20th hit so the kill never fires —
        // in which case nothing was stranded and no promotion is needed.
        if !fired {
            assert_eq!(kill_sends, 60, "only the late kill point may miss");
            assert_eq!(
                failovers, 0,
                "kill_sends={kill_sends}: no kill, no promotion"
            );
        } else if kill_sends < 60 {
            assert_eq!(failovers, 1, "kill_sends={kill_sends}: survivor promoted");
        } else {
            assert!(
                failovers <= 1,
                "kill_sends={kill_sends}: at most one promotion"
            );
        }
    }
}

#[test]
fn killing_the_master_server_loses_nothing_at_replication_2() {
    // Rank 4 is the master (termination detection owner): its successor
    // must take over both the shard and the termination protocol. It dies
    // after its 1st, 5th and 20th client request.
    for kill_sends in [1, 5, 20] {
        let (executed, failovers, fired) =
            run_server_death(4, Point::RequestApplied, kill_sends, 40);
        for tid in 0..40 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(
                n, 1,
                "kill_sends={kill_sends}: task {tid} executed {n} times"
            );
        }
        if !fired {
            assert_eq!(kill_sends, 60, "only the late kill point may miss");
            assert_eq!(
                failovers, 0,
                "kill_sends={kill_sends}: no kill, no promotion"
            );
        } else if kill_sends < 60 {
            assert_eq!(failovers, 1, "kill_sends={kill_sends}: survivor promoted");
        } else {
            assert!(
                failovers <= 1,
                "kill_sends={kill_sends}: at most one promotion"
            );
        }
    }
}

#[test]
fn data_store_shard_survives_its_servers_death() {
    // A datum created and stored on the victim's shard must be readable
    // after failover, and a subscription parked on it must still fire.
    let layout = Layout::new(4, 2);
    // Servers are ranks 2 and 3. Kill rank 3 once it shipped its first
    // transaction's ops, the create/store batch, to its replica.
    let plan = FaultPlan::new().kill_at(3, Point::OpsReplicated, 1);
    let outcome = World::run_faulty(4, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve_ext(comm, layout, replicated_config());
            return None;
        }
        let mut c = AdlbClient::new(comm, layout);
        // Pick an id owned by server 3 (the victim).
        let id = (0..64u64)
            .find(|i| layout.data_owner(*i) == 3)
            .expect("an id owned by rank 3");
        if rank == 0 {
            c.create(id, 0).unwrap();
            c.store(id, b"replicated-value".to_vec()).unwrap();
            c.finish();
            return None;
        }
        // Rank 1: poll until the datum is closed (possibly across the
        // failover), then read it back.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !c.exists(id).unwrap_or(false) {
            assert!(std::time::Instant::now() < deadline, "datum never closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let v = c.retrieve(id).unwrap().expect("closed datum has a value");
        c.finish();
        Some(String::from_utf8(v.to_vec()).unwrap())
    });
    assert_eq!(outcome.killed, vec![3]);
    assert_eq!(
        outcome.outputs[1],
        Some(Some("replicated-value".to_string()))
    );
}

/// Twelve create/store/put triples through a write-behind client, every
/// id homed on `victim`, then an awaited flush.
fn outbox_client(c: &mut AdlbClient, victim: usize, layout: Layout) -> Result<(), String> {
    // Creates and stores are not idempotent (a second create or store of
    // an id is an error) and a put applied twice runs twice, so a batch
    // that is re-executed instead of answered from the cache shows.
    let ids = (0..64u64).filter(|i| layout.data_owner(*i) == victim);
    for (k, id) in ids.take(12).enumerate() {
        c.create(id, 0).map_err(|e| e.message)?;
        c.store(id, vec![k as u8]).map_err(|e| e.message)?;
        c.put(WORK_TYPE_WORK, 0, Some(1), vec![k as u8]);
    }
    c.flush().map_err(|e| e.message)
}

#[test]
fn batch_in_flight_survives_its_home_servers_death() {
    // Rank 0's home server (and the home of every id it writes) is rank
    // 2; rank 1 consumes through rank 3. The victim dies after each of
    // its first sends in turn, so across the sweep the death lands before
    // the batch arrives (the successor executes it fresh), between the
    // batch's replication and its response (the successor answers the
    // re-sent seq from the replicated cache), and after the response.
    // Every time: no error, every datum stored once, every task run once.
    let layout = Layout::new(4, 2);
    let victim = 2;
    for kill_sends in 1..=20 {
        let plan = FaultPlan::new().kill_at(victim, Point::Send, kill_sends);
        let outcome = World::run_faulty(4, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve_ext(comm, layout, replicated_config());
                return None;
            }
            let mut c = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            if rank == 0 {
                let wrote = outbox_client(&mut c, victim, layout);
                c.finish();
                return Some((wrote, Vec::new()));
            }
            let mut ran = Vec::new();
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                let k = t.payload[0];
                let id = (0..64u64)
                    .filter(|i| layout.data_owner(*i) == victim)
                    .nth(k as usize)
                    .unwrap();
                // The put never overtakes the store it was queued behind.
                let v = c
                    .retrieve(id)
                    .unwrap()
                    .expect("task saw an unwritten input");
                assert_eq!(&v[..], &[k]);
                ran.push(k);
            }
            Some((Ok(()), ran))
        });
        assert_eq!(outcome.killed, vec![victim], "kill_sends={kill_sends}");
        let (wrote, _) = outcome.outputs[0].clone().unwrap().unwrap();
        assert_eq!(wrote, Ok(()), "kill_sends={kill_sends}");
        let (_, mut ran) = outcome.outputs[1].clone().unwrap().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..12).collect::<Vec<u8>>(), "kill_sends={kill_sends}");
    }
}

#[test]
fn batch_below_the_durable_high_water_is_answered_not_rerun_on_resume() {
    // World 1: the lone server applies the client's batch, makes it (and
    // its response) durable, answers, and dies; the client walks away.
    // World 2 resumes from the same store and the client replays the same
    // requests: the batch's seq is below the durable high-water, so it is
    // answered from the response history — re-executing it against the
    // restored shard would fail every create.
    let layout = Layout::new(3, 1);
    let fs = std::sync::Arc::new(pfs::Pfs::new(pfs::PfsConfig::default()));
    let config = |resume: bool| ServerConfig {
        checkpoint: Some(
            adlb::CheckpointConfig::new(fs.clone())
                .interval(1)
                .resume(resume),
        ),
        ..ServerConfig::default()
    };
    let plan = FaultPlan::new().kill_at(2, Point::RequestApplied, 1);
    let outcome = World::run_faulty(3, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve_ext(comm, layout, config(false));
        } else if rank == 0 {
            let mut c = AdlbClient::with_config(comm, layout, ClientConfig::batched());
            outbox_client(&mut c, 2, layout).expect("first run");
        }
    });
    assert_eq!(outcome.killed, vec![2]);

    let out = World::run(3, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            let stats = serve_ext(comm, layout, config(true)).stats;
            assert_eq!(stats.pfs_restores, 1);
            return 0;
        }
        let mut c = AdlbClient::with_config(comm, layout, ClientConfig::batched());
        if rank == 0 {
            outbox_client(&mut c, 2, layout).expect("the replay is answered, not re-run");
            c.finish();
            return 0;
        }
        let mut ran = 0;
        while c.get(&[WORK_TYPE_WORK]).is_some() {
            ran += 1;
        }
        ran
    });
    assert_eq!(out[1], 12, "each put took effect once across both worlds");
}

#[test]
fn replication_1_server_death_fails_cleanly_not_hangs() {
    // Same scenario as the failover tests but with replication disabled:
    // the run must still terminate (no hang), clients must get a NoMore
    // with a diagnosis, and nobody may panic.
    let layout = Layout::new(6, 2);
    // Kill rank 5 after its first client request so the death lands
    // while work is still in flight, not during shutdown.
    let plan = FaultPlan::new().kill_at(5, Point::RequestApplied, 1);
    let outcome = World::run_faulty(6, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve_ext(comm, layout, ServerConfig::default());
            return Vec::new();
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            for tid in 0..80u64 {
                client.put(WORK_TYPE_WORK, 0, None, tid.to_le_bytes().to_vec());
            }
            client.finish();
            return client.quarantine_reports().to_vec();
        }
        while let Some(_t) = client.get(&[WORK_TYPE_WORK]) {
            std::thread::sleep(Duration::from_micros(300));
        }
        client.quarantine_reports().to_vec()
    });
    assert_eq!(outcome.killed, vec![5]);
    // At least one surviving client must have been told why the run was
    // cut short.
    let all_reports: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
    assert!(
        all_reports.iter().any(|r| r.contains("unrecoverable")),
        "no client saw the shard-loss diagnosis: {all_reports:?}"
    );
}

#[test]
fn output_streams_survive_a_server_death() {
    // Clients stream output through the victim server; after failover the
    // survivor must hold the replicated streams.
    let layout = Layout::new(4, 2);
    // Rank 3 dies once it replicated its first transaction: rank 1's
    // output.
    let plan = FaultPlan::new().kill_at(3, Point::OpsReplicated, 1);
    let outcome = World::run_faulty(4, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            let o = serve_ext(comm, layout, replicated_config());
            return o
                .streams
                .into_iter()
                .map(|(r, _t, s)| format!("{r}:{s}"))
                .collect::<Vec<_>>();
        }
        let mut c = AdlbClient::new(comm, layout);
        // Rank 1 is a client of server 3 (the victim): its stream must
        // survive on the successor.
        c.send_output(&format!("out-{rank};"));
        std::thread::sleep(Duration::from_millis(30));
        c.send_output(&format!("more-{rank};"));
        c.finish();
        Vec::new()
    });
    assert_eq!(outcome.killed, vec![3]);
    let survivor_streams: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
    assert!(
        survivor_streams.iter().any(|s| s.contains("out-1;")),
        "rank 1's early output lost: {survivor_streams:?}"
    );
}

mod re_replication {
    //! Post-failover re-replication: after a survivor promotes a dead
    //! server's shard, the recomputed ring successors receive streamed
    //! replica state in bounded chunks, restoring the replication factor
    //! mid-run — so a *second* server death (after the sync completes) is
    //! also survivable at `replication = 2`.

    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Duration;

    use adlb::{serve_ext, AdlbClient, Layout, ServerConfig, ServerStats, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, Point, World};

    /// 3 servers (ranks 6..=8), 1 submitter, 5 workers. Kill `kills` as
    /// (victim rank, point, nth hit). Returns (tid → execution count,
    /// summed survivor stats, every client's quarantine reports, killed).
    #[allow(clippy::type_complexity)]
    fn run_kills(
        kills: &[(usize, Point, u64)],
        total: u64,
        think: Duration,
        config: ServerConfig,
    ) -> (HashMap<u64, u64>, ServerStats, Vec<String>, Vec<usize>) {
        let layout = Layout::new(9, 3);
        let mut plan = FaultPlan::new();
        for &(victim, point, n) in kills {
            plan = plan.kill_at(victim, point, n);
        }
        let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let outcome = World::run_faulty(9, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let o = serve_ext(comm, layout, config.clone());
                return (Some(o.stats), Vec::new());
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..total {
                    let target = if tid % 7 == 0 {
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
                return (None, client.quarantine_reports().to_vec());
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
                std::thread::sleep(think);
            }
            (None, client.quarantine_reports().to_vec())
        });
        let mut stats = ServerStats::default();
        let mut reports = Vec::new();
        for o in outcome.outputs.into_iter().flatten() {
            if let Some(s) = o.0 {
                stats.failovers += s.failovers;
                stats.repl_syncs += s.repl_syncs;
                stats.repl_sync_bytes += s.repl_sync_bytes;
                stats.r_restore_micros += s.r_restore_micros;
                stats.tasks_requeued += s.tasks_requeued;
            }
            reports.extend(o.1);
        }
        (
            executed.into_inner().unwrap(),
            stats,
            reports,
            outcome.killed,
        )
    }

    #[test]
    fn second_server_death_survives_once_r_is_restored() {
        // Kill rank 7 once it installed its startup replica; rank 8 after
        // its 50th client request (it serves about 90 once it adopted 7's
        // clients), much later, past the point where 8 promoted 7's shard
        // and the post-promotion sync to the recomputed successors
        // completed. With R restored, the run
        // must survive BOTH deaths: every task exactly once and a
        // measured time-to-R-restored. (The first promotion's failover
        // counter dies with rank 8, so the surviving tier reports the
        // second promotion only.)
        let (executed, stats, reports, killed) = run_kills(
            &[
                (7, Point::ReplicaInstalled, 1),
                (8, Point::RequestApplied, 50),
            ],
            300,
            Duration::from_micros(800),
            ServerConfig {
                replication: 2,
                ..ServerConfig::default()
            },
        );
        assert_eq!(killed, vec![7, 8], "both kill points must fire");
        assert!(
            reports.is_empty(),
            "no shard may be lost with re-replication on: {reports:?}"
        );
        for tid in 0..300 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(n, 1, "task {tid} executed {n} times");
        }
        assert!(
            stats.failovers >= 1,
            "the survivor promoted the twice-failed-over shard"
        );
        assert!(stats.repl_syncs > 0, "chunked syncs completed");
        assert!(stats.repl_sync_bytes > 0);
        assert!(
            stats.r_restore_micros > 0,
            "time-to-R-restored was measured"
        );
    }

    #[test]
    fn tiny_chunks_stream_the_whole_replica() {
        // sync_chunk = 64 bytes forces every post-promotion sync through
        // many ReplSync/SyncAck round trips interleaved with live traffic;
        // fat payloads make the ledgers span several chunks. Correctness
        // must not depend on the chunk size.
        let payload = vec![0xabu8; 256];
        let layout = Layout::new(9, 3);
        // Rank 7 dies after its 10th send, inside its own 64-byte-chunk
        // stream to its replica holder: a message boundary on purpose.
        let plan = FaultPlan::new().kill_at(7, Point::Send, 10);
        let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let config = ServerConfig {
            replication: 2,
            sync_chunk: 64,
            ..ServerConfig::default()
        };
        let outcome = World::run_faulty(9, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                return Some(serve_ext(comm, layout, config.clone()).stats);
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..120u64 {
                    let mut body = tid.to_le_bytes().to_vec();
                    body.extend_from_slice(&payload);
                    client.put(WORK_TYPE_WORK, 0, None, body);
                }
                client.finish();
                return None;
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            None
        });
        assert_eq!(outcome.killed, vec![7]);
        for tid in 0..120 {
            let n = executed.lock().unwrap().get(&tid).copied().unwrap_or(0);
            assert_eq!(n, 1, "task {tid} executed {n} times");
        }
        let mut syncs = 0;
        let mut bytes = 0;
        let mut restore = 0;
        for s in outcome.outputs.into_iter().flatten().flatten() {
            syncs += s.repl_syncs;
            bytes += s.repl_sync_bytes;
            restore += s.r_restore_micros;
        }
        assert!(syncs > 0, "syncs completed");
        assert!(
            bytes > 3 * 64,
            "a fat ledger must cross several 64-byte chunks (got {bytes})"
        );
        assert!(restore > 0, "death-triggered sync was timed");
    }

    #[test]
    fn without_re_replication_a_second_death_aborts_cleanly() {
        // The ablation: same double-kill schedule, re-replication off. R
        // stays degraded after the first failover, so the second death
        // may lose a shard — the run must then terminate with a
        // diagnosis, not hang, and must never duplicate work on
        // survivors.
        let (executed, stats, reports, killed) = run_kills(
            &[
                (7, Point::ReplicaInstalled, 1),
                (8, Point::RequestApplied, 50),
            ],
            300,
            Duration::from_micros(800),
            ServerConfig {
                replication: 2,
                re_replicate: false,
                ..ServerConfig::default()
            },
        );
        assert_eq!(killed, vec![7, 8], "both kill points must fire");
        assert_eq!(stats.repl_syncs, 0, "no chunked syncs when disabled");
        for (tid, n) in &executed {
            assert!(*n <= 1, "task {tid} executed {n} times");
        }
        // Either the legacy write-through path happened to keep a full
        // copy alive (completion) or the shard was declared lost — both
        // are clean endings; silence (a hang) is the only failure.
        if !reports.is_empty() {
            assert!(
                reports.iter().any(|r| r.contains("unrecoverable")),
                "abort must carry the shard-loss diagnosis: {reports:?}"
            );
        } else {
            for tid in 0..300 {
                let n = executed.get(&tid).copied().unwrap_or(0);
                assert_eq!(n, 1, "completed run lost task {tid}");
            }
        }
    }
}
