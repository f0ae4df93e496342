//! What owning one recoverable-state type buys: after a fault-free run a
//! replica holder's copy of a peer's ledger *is* the peer's final ledger,
//! a restore from the durable tier *is* the live ledger at its last
//! flush — frees included — and a server nobody backs logs nothing at all.

use std::collections::HashMap;
use std::sync::Arc;

use mpisim::World;
use pfs::{Pfs, PfsConfig};

use super::*;
use crate::checkpoint::restore_home;
use crate::client::{AdlbClient, ClientConfig};
use crate::msg::{WORK_TYPE_NOTIFY, WORK_TYPE_WORK};

const TASKS: u64 = 40;
const CLIENTS: usize = 4;

fn payload(stage: u8, k: u64) -> Vec<u8> {
    let mut p = vec![stage];
    p.extend_from_slice(&k.to_le_bytes());
    p
}

/// A bag feeding a two-stage dataflow pipeline, through the real client:
/// rank 0 declares `x_k`, `y_k`, subscribes to `y_k` and puts leaf `f_k`
/// (every fifth one pinned to a worker); `f_k` stores `x_k` and puts
/// `g_k`; `g_k` reads `x_k`, stores `y_k`; rank 0 reads each `y_k` as its
/// close notification arrives. Ids alternate between data shards, so
/// every server sees data ops, forwards, notifications and stdout. Every
/// other `x_k` is counted with its one leaf read, so it is freed once
/// `g_k` is acked.
fn workload(mut c: AdlbClient) {
    let (x, y) = (|k: u64| 2 * k, |k: u64| 2 * k + 1);
    if c.rank() == 0 {
        for k in 0..TASKS {
            if k % 2 == 0 {
                c.create_counted(x(k), 0, 1).unwrap();
            } else {
                c.create(x(k), 0).unwrap();
            }
            c.create(y(k), 0).unwrap();
            c.subscribe_notify(y(k), 0).unwrap();
            let target = (k % 5 == 0).then(|| 1 + k as usize % (CLIENTS - 1));
            c.put(WORK_TYPE_WORK, (k % 3) as i32, target, payload(0, k));
        }
        for _ in 0..TASKS {
            let note = c.get(&[WORK_TYPE_NOTIFY]).expect("a close notification");
            let id = u64::from_le_bytes(note.payload[..8].try_into().unwrap());
            let v = c.retrieve(id).unwrap().expect("a notified datum is closed");
            c.send_output(&format!("<{id}>={}\n", v[0]));
        }
        c.finish();
        return;
    }
    while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
        let k = u64::from_le_bytes(t.payload[1..9].try_into().unwrap());
        if t.payload[0] == 0 {
            c.store(x(k), vec![k as u8]).unwrap();
            c.put(WORK_TYPE_WORK, 1, None, payload(1, k));
        } else {
            let v = c
                .retrieve(x(k))
                .unwrap()
                .expect("g_k runs after f_k stored x_k");
            c.note_read(x(k));
            c.store(y(k), vec![v[0] + 1]).unwrap();
            c.send_output(&format!("g{k}\n"));
        }
    }
}

/// What one server ended with: its own ledger (stdout put back where
/// `Server::outcome` moved it from), the replicas it held, and how much room
/// its transaction buffer ever needed.
struct Ended {
    own: Ledger,
    replicas: HashMap<Rank, Ledger>,
    tx_ops_capacity: usize,
    stats: ServerStats,
}

/// Every counted `x_k` was freed, exactly once, and nothing missed.
fn all_freed(ended: &HashMap<Rank, Ended>) -> bool {
    let mut total = ServerStats::default();
    for e in ended.values() {
        total.merge(&e.stats);
    }
    (
        total.data_freed,
        total.data_unreleased,
        total.release_misses,
    ) == (TASKS / 2, 0, 0)
}

fn run(servers: usize, config: &ServerConfig, client: ClientConfig) -> HashMap<Rank, Ended> {
    let size = servers + CLIENTS;
    let layout = Layout::new(size, servers);
    let ended = World::run(size, |comm| {
        if !layout.is_server(comm.rank()) {
            workload(AdlbClient::with_config(comm, layout, client));
            return None;
        }
        let rank = comm.rank();
        let mut server = Server::new(comm, layout, config.clone());
        let outcome = server.run();
        assert_eq!(outcome.stats.protocol_errors, 0);
        let mut own = outcome.ledger;
        for (client, tenant, text) in outcome.streams {
            own.outputs.insert((client, tenant), text);
        }
        // Not vacuous: the run went through this shard.
        assert!(own.store.len() as u64 >= TASKS / servers as u64);
        assert!(own.queue.is_empty() && own.leases.is_empty());
        let ended = Ended {
            own,
            replicas: outcome.replicas,
            tx_ops_capacity: server.shard.tx_ops_capacity(),
            stats: outcome.stats,
        };
        Some((rank, ended))
    });
    ended.into_iter().flatten().collect()
}

#[test]
fn a_replica_equals_its_primary() {
    for (servers, replication) in [(2, 2), (3, 2), (3, 3)] {
        for re_replicate in [true, false] {
            for client in [ClientConfig::batched(), ClientConfig::unbatched()] {
                let config = ServerConfig {
                    replication,
                    re_replicate,
                    ..ServerConfig::default()
                };
                let what = format!("{servers} servers, {config:?}, {client:?}");
                let ended = run(servers, &config, client);
                assert!(all_freed(&ended), "{what}");
                let layout = Layout::new(servers + CLIENTS, servers);
                for (p, primary) in &ended {
                    let holders = layout.successors(*p, replication - 1);
                    for (h, holder) in &ended {
                        match holder.replicas.get(p) {
                            Some(copy) if holders.contains(h) => {
                                assert!(*copy == primary.own, "{h}'s copy of {p}: {what}");
                            }
                            None if !holders.contains(h) => {}
                            held => panic!("{h} holds {p}: {}: {what}", held.is_some()),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_restore_equals_the_live_ledger() {
    for (servers, replication) in [(1, 1), (2, 1), (2, 2)] {
        for client in [ClientConfig::batched(), ClientConfig::unbatched()] {
            // Short records: the WAL outgrows each segment often enough
            // that the run ends several segments in.
            let fs = Arc::new(Pfs::new(PfsConfig::instant()));
            let checkpoint = CheckpointConfig::new(fs.clone()).interval(3);
            let config = ServerConfig {
                replication,
                checkpoint: Some(checkpoint),
                ..ServerConfig::default()
            };
            let ended = run(servers, &config, client);
            assert!(all_freed(&ended), "{servers} servers, {client:?}");
            for (home, server) in &ended {
                let restored = restore_home(&mut fs.client(), *home).unwrap();
                assert!(
                    restored.seg_no > 1,
                    "home {home} compacted {}",
                    restored.seg_no
                );
                assert!(
                    restored.ledger == server.own,
                    "home {home} of {servers} at replication {replication}, {client:?}"
                );
            }
        }
    }
}

#[test]
fn a_server_nobody_backs_logs_nothing() {
    // At replication 1 without a checkpoint no replica holder and no WAL
    // consumes the op stream, so the transaction buffer is never pushed
    // to: it ends the run without ever having allocated.
    for servers in [1, 2] {
        for client in [ClientConfig::batched(), ClientConfig::unbatched()] {
            let ended = run(servers, &ServerConfig::default(), client);
            assert_eq!(ended.len(), servers);
            for (rank, server) in &ended {
                assert_eq!(server.tx_ops_capacity, 0, "server {rank} of {servers}");
            }
        }
    }
    // The probe does see a logging server.
    let replicated = ServerConfig {
        replication: 2,
        ..ServerConfig::default()
    };
    for server in run(2, &replicated, ClientConfig::batched()).values() {
        assert!(server.tx_ops_capacity > 0);
    }
}

#[test]
fn a_sync_one_byte_too_long_drops_the_replica() {
    // Servers 1 and 2; server 2 receives a whole-ledger sync from 1 in one
    // chunk. A base that does not end where the ledger does is corrupt:
    // a protocol error, and no replica at all rather than a wrong one.
    let layout = Layout::new(3, 2);
    World::run(3, |comm| {
        if comm.rank() != 2 {
            return;
        }
        let mut server = Server::new(comm, layout, ServerConfig::default());
        let base = Ledger {
            fwd_in: 7,
            ..Ledger::default()
        };
        let good = base.encode();
        server.absorb_sync_chunk(1, 1, 0, good.len() as u64, &good, false);
        assert!(server.failover.replica(1) == Some(&base));
        let mut long = good.to_vec();
        long.push(0);
        server.absorb_sync_chunk(1, 2, 0, long.len() as u64, &long.into(), false);
        assert!(server.failover.replica(1).is_none());
        assert_eq!(server.stats.protocol_errors, 1);
    });
}
