//! The one recovery decision for a dead peer's shard: a pure function of
//! what the survivor knows, so every input combination is tested without
//! a world (see the table below). [`super::Server::handle_server_death`]
//! carries the plan out.

use mpisim::Rank;

/// What a survivor knows about a dead peer's shard when it decides how
/// to recover it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Death {
    /// This server is the dead peer's first live successor: its clients
    /// and shard are this server's to take over.
    pub(super) successor: bool,
    /// The copy of the dead peer's ledger held here.
    pub(super) replica: Replica,
    /// The durable tier is configured.
    pub(super) checkpoint: bool,
    pub(super) replication: usize,
    /// Global termination was already decided.
    pub(super) shutdown: bool,
}

/// The state of the replica a survivor holds for a dead peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Replica {
    /// Carries every merge the peer was seen to perform.
    Fresh,
    /// Predates a promotion the peer performed (`merges < required`):
    /// promoting it would silently lose the subsumed shard.
    Stale,
    Absent,
    /// The peer died mid-way through re-streaming it: whatever copy was
    /// held predates the state being re-sent, and was dropped.
    SyncIncomplete,
}

/// How a survivor recovers a dead peer's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Plan {
    /// Absorb the replica held here.
    Promote,
    /// Restore the shard from its pfs checkpoint; should that fail too,
    /// wind down with this diagnosis (plus the restore's failure).
    Restore(&'static str),
    /// The shard is lost: wind the run down with this diagnosis.
    WindDown(&'static str),
    /// Another survivor takes the shard over: record that it now travels
    /// in that survivor's ledger.
    Subsume,
    Nothing,
}

const NO_REPLICA: &str = "replication=1 keeps no replica";

/// The one recovery decision. After global termination nothing was lost
/// (the run completed), so only a replica already held here is taken
/// over: its cached terminal notices re-answer stranded clients. Before
/// it, a successor promotes a fresh replica or else falls back to the
/// durable tier; without one, the shard is lost. At replication 1 with no
/// checkpoint every survivor, not only the successor, winds down.
pub(super) fn recovery_plan(d: Death) -> Plan {
    let replicated = d.replication >= 2;
    let held = matches!(d.replica, Replica::Fresh | Replica::Stale);
    if d.shutdown {
        return if d.successor && replicated && held {
            Plan::Promote
        } else {
            Plan::Nothing
        };
    }
    if !d.successor {
        return if replicated || d.checkpoint {
            Plan::Subsume
        } else {
            Plan::WindDown(NO_REPLICA)
        };
    }
    let why = match d.replica {
        _ if !replicated => NO_REPLICA,
        Replica::Fresh => return Plan::Promote,
        Replica::Stale => {
            "the only replica here predates an earlier failover and was never refreshed"
        }
        Replica::SyncIncomplete => "it died before finishing its re-replication to this successor",
        Replica::Absent => "its replica never reached this successor",
    };
    if d.checkpoint {
        Plan::Restore(why)
    } else {
        Plan::WindDown(why)
    }
}

/// The shard-loss diagnosis every `NoMore` carries: which shard died, the
/// shards it had subsumed, and why nothing could restore it.
pub(super) fn diagnosis(d: Rank, why: &str, chain: &[Rank], checkpoint: bool) -> String {
    let chain_note = if chain.is_empty() {
        String::new()
    } else {
        let links: Vec<String> = chain.iter().map(|e| e.to_string()).collect();
        let s = if chain.len() == 1 { "" } else { "s" };
        format!(
            " (which had subsumed the shard{s} of rank{s} {})",
            links.join(", ")
        )
    };
    // With the durable tier, `why` already carries the last durable LSN
    // when a restore was attempted and failed.
    let durable_note = if checkpoint {
        ""
    } else {
        "; no checkpoint configured"
    };
    format!(
        "server rank {d} died and its shard{chain_note} is unrecoverable \
         ({why}{durable_note}): queued tasks, leases and data futures on it are lost"
    )
}

#[cfg(test)]
mod tests {
    //! The recovery decision, cell by cell: every combination of
    //! successor, replica state, checkpoint, replication and shutdown,
    //! with the plan and diagnosis each gets. The table is written out
    //! rather than derived, so a change to any cell has to change a line
    //! here.

    use super::*;

    const STALE: &str =
        "the only replica here predates an earlier failover and was never refreshed";
    const INCOMPLETE: &str = "it died before finishing its re-replication to this successor";
    const NEVER: &str = "its replica never reached this successor";

    use Plan::{Nothing, Promote, Restore, Subsume, WindDown};
    use Replica::{Absent, Fresh, Stale, SyncIncomplete};

    /// `(successor, replica, checkpoint, replication, shutdown) -> plan`.
    #[rustfmt::skip]
    const TABLE: &[(bool, Replica, bool, usize, bool, Plan)] = &[
        // R >= 2, the successor: promote a fresh copy; otherwise the durable
        // tier or the wind-down, each with its own diagnosis. After shutdown
        // any copy held is promoted (stale or not) and nothing else happens.
        (true, Fresh, false, 2, false, Promote),
        (true, Fresh, false, 2, true, Promote),
        (true, Fresh, true, 2, false, Promote),
        (true, Fresh, true, 2, true, Promote),
        (true, Stale, false, 2, false, WindDown(STALE)),
        (true, Stale, false, 2, true, Promote),
        (true, Stale, true, 2, false, Restore(STALE)),
        (true, Stale, true, 2, true, Promote),
        (true, Absent, false, 2, false, WindDown(NEVER)),
        (true, Absent, false, 2, true, Nothing),
        (true, Absent, true, 2, false, Restore(NEVER)),
        (true, Absent, true, 2, true, Nothing),
        (true, SyncIncomplete, false, 2, false, WindDown(INCOMPLETE)),
        (true, SyncIncomplete, false, 2, true, Nothing),
        (true, SyncIncomplete, true, 2, false, Restore(INCOMPLETE)),
        (true, SyncIncomplete, true, 2, true, Nothing),
        // R >= 2, another survivor: record the subsumption until shutdown.
        (false, Fresh, false, 2, false, Subsume),
        (false, Fresh, false, 2, true, Nothing),
        (false, Fresh, true, 2, false, Subsume),
        (false, Fresh, true, 2, true, Nothing),
        (false, Stale, false, 2, false, Subsume),
        (false, Stale, false, 2, true, Nothing),
        (false, Stale, true, 2, false, Subsume),
        (false, Stale, true, 2, true, Nothing),
        (false, Absent, false, 2, false, Subsume),
        (false, Absent, false, 2, true, Nothing),
        (false, Absent, true, 2, false, Subsume),
        (false, Absent, true, 2, true, Nothing),
        (false, SyncIncomplete, false, 2, false, Subsume),
        (false, SyncIncomplete, false, 2, true, Nothing),
        (false, SyncIncomplete, true, 2, false, Subsume),
        (false, SyncIncomplete, true, 2, true, Nothing),
        // R = 1: the replica plays no part. With a checkpoint the successor
        // restores and the others record the subsumption; without one every
        // survivor winds down. After shutdown nothing happens.
        (true, Fresh, false, 1, false, WindDown(NO_REPLICA)),
        (true, Fresh, false, 1, true, Nothing),
        (true, Fresh, true, 1, false, Restore(NO_REPLICA)),
        (true, Fresh, true, 1, true, Nothing),
        (true, Stale, false, 1, false, WindDown(NO_REPLICA)),
        (true, Stale, false, 1, true, Nothing),
        (true, Stale, true, 1, false, Restore(NO_REPLICA)),
        (true, Stale, true, 1, true, Nothing),
        (true, Absent, false, 1, false, WindDown(NO_REPLICA)),
        (true, Absent, false, 1, true, Nothing),
        (true, Absent, true, 1, false, Restore(NO_REPLICA)),
        (true, Absent, true, 1, true, Nothing),
        (true, SyncIncomplete, false, 1, false, WindDown(NO_REPLICA)),
        (true, SyncIncomplete, false, 1, true, Nothing),
        (true, SyncIncomplete, true, 1, false, Restore(NO_REPLICA)),
        (true, SyncIncomplete, true, 1, true, Nothing),
        (false, Fresh, false, 1, false, WindDown(NO_REPLICA)),
        (false, Fresh, false, 1, true, Nothing),
        (false, Fresh, true, 1, false, Subsume),
        (false, Fresh, true, 1, true, Nothing),
        (false, Stale, false, 1, false, WindDown(NO_REPLICA)),
        (false, Stale, false, 1, true, Nothing),
        (false, Stale, true, 1, false, Subsume),
        (false, Stale, true, 1, true, Nothing),
        (false, Absent, false, 1, false, WindDown(NO_REPLICA)),
        (false, Absent, false, 1, true, Nothing),
        (false, Absent, true, 1, false, Subsume),
        (false, Absent, true, 1, true, Nothing),
        (false, SyncIncomplete, false, 1, false, WindDown(NO_REPLICA)),
        (false, SyncIncomplete, false, 1, true, Nothing),
        (false, SyncIncomplete, true, 1, false, Subsume),
        (false, SyncIncomplete, true, 1, true, Nothing),
    ];

    #[test]
    fn every_cell_gets_its_plan() {
        assert_eq!(TABLE.len(), 2 * 4 * 2 * 2 * 2, "one row per combination");
        for &(successor, replica, checkpoint, replication, shutdown, want) in TABLE {
            let death = Death {
                successor,
                replica,
                checkpoint,
                replication,
                shutdown,
            };
            assert_eq!(recovery_plan(death), want, "{death:?}");
            // Any R >= 2 decides like R = 2.
            let r3 = Death {
                replication: 3,
                ..death
            };
            if replication == 2 {
                assert_eq!(recovery_plan(r3), want, "{r3:?}");
            }
        }
    }

    #[test]
    fn the_diagnosis_names_the_shard_its_chain_and_the_missing_tier() {
        assert_eq!(
            diagnosis(7, NO_REPLICA, &[], false),
            "server rank 7 died and its shard is unrecoverable (replication=1 keeps no replica; \
             no checkpoint configured): queued tasks, leases and data futures on it are lost"
        );
        assert_eq!(
            diagnosis(6, NEVER, &[5], false),
            "server rank 6 died and its shard (which had subsumed the shard of rank 5) is \
             unrecoverable (its replica never reached this successor; no checkpoint configured): \
             queued tasks, leases and data futures on it are lost"
        );
        // With the durable tier the failed restore explains itself.
        let why = format!("{STALE}, and its checkpoint failed to restore: gone");
        assert_eq!(
            diagnosis(6, &why, &[4, 5], true),
            format!(
                "server rank 6 died and its shard (which had subsumed the shards of ranks 4, 5) is \
                 unrecoverable ({why}): queued tasks, leases and data futures on it are lost"
            )
        );
    }
}
