//! Termination: the master's double-poll rounds that decide global
//! quiescence, the epoch of activity they compare, the one terminal
//! answer (`NoMore`) every parked client finally gets, and the
//! post-termination linger that outlives every peer's goodbye and every
//! stranded client.

use std::collections::{HashMap, HashSet};

use mpisim::{Point, Rank, Wire};

use super::{Server, ServerOutcome};
use crate::msg::{Response, ServerMsg, TAG_SRV};
use crate::replica::ReplOp;

/// One server's answer to a termination poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Report {
    pub(super) quiescent: bool,
    pub(super) epoch: u64,
    pub(super) fwd_out: u64,
    pub(super) fwd_in: u64,
}

#[derive(Default)]
pub(super) struct Termination {
    /// Activity counter: every fresh request, transfer, requeue, dead
    /// client and failover bumps it, so two rounds that see the same
    /// epochs everywhere saw no activity in between.
    epoch: u64,
    // -- check rounds (master only) ---------------------------------------
    round: u64,
    members: Vec<Rank>,
    responses: HashMap<Rank, Report>,
    in_flight: bool,
    prev_snapshot: Option<Vec<u64>>,
    // -- post-termination linger ------------------------------------------
    /// Global termination has been decided and this server is in its
    /// post-shutdown linger: every remaining `Get` is answered `NoMore`,
    /// and a peer death no longer aborts anything — the run already
    /// completed; failover now only re-delivers shutdown notices.
    shutdown: bool,
    /// Peers whose `Bye` (final message after their shutdown notices) has
    /// arrived. The linger ends when every live peer has said goodbye.
    byes: HashSet<Rank>,
    /// Clients adopted from a peer that died mid-shutdown whose terminal
    /// notices cannot be proven delivered (not marked finished in the
    /// merged replica). The linger must answer each one's retried request
    /// before exiting — otherwise the retry lands in an exited rank's
    /// mailbox and the client waits forever, since exited ranks still
    /// read alive.
    stranded: HashSet<Rank>,
}

impl Termination {
    pub(super) fn bump(&mut self) {
        self.epoch += 1;
    }

    pub(super) fn in_flight(&self) -> bool {
        self.in_flight
    }

    pub(super) fn start_round(&mut self, members: Vec<Rank>) -> u64 {
        self.round += 1;
        self.responses.clear();
        self.members = members;
        self.in_flight = true;
        self.round
    }

    /// Record `source`'s answer to `round`; true once every member of the
    /// current round has answered.
    pub(super) fn answer(&mut self, source: Rank, round: u64, report: Report) -> bool {
        if round != self.round || !self.members.contains(&source) {
            return false;
        }
        self.responses.insert(source, report);
        self.responses.len() == self.members.len()
    }

    /// Decide the round from every member's answer plus this server's own:
    /// shut down when everyone is quiescent, every forwarded task arrived,
    /// and no epoch moved since the previous round.
    pub(super) fn decide(&mut self, own: Report) -> bool {
        self.in_flight = false;
        let mut all_quiescent = own.quiescent;
        let (mut fwd_out, mut fwd_in) = (own.fwd_out, own.fwd_in);
        let mut snapshot = Vec::with_capacity(self.members.len() + 1);
        snapshot.push(own.epoch);
        for r in &self.members {
            let Some(a) = self.responses.get(r) else {
                all_quiescent = false;
                continue;
            };
            all_quiescent &= a.quiescent;
            fwd_out += a.fwd_out;
            fwd_in += a.fwd_in;
            snapshot.push(a.epoch);
        }
        let stable = self.prev_snapshot.as_deref() == Some(&snapshot[..]);
        self.prev_snapshot = Some(snapshot);
        all_quiescent && fwd_out == fwd_in && stable
    }

    /// Abandon the round in flight: its member set is stale, and a dead
    /// member's answer will never come.
    pub(super) fn abort_round(&mut self) {
        self.in_flight = false;
        self.responses.clear();
        self.prev_snapshot = None;
    }

    pub(super) fn shutdown(&self) -> bool {
        self.shutdown
    }

    pub(super) fn bye(&mut self, peer: Rank) {
        self.byes.insert(peer);
    }

    pub(super) fn strand(&mut self, client: Rank) {
        self.stranded.insert(client);
    }

    /// Any answered round trip un-strands the client: it got the response
    /// it was blocked on.
    pub(super) fn unstrand(&mut self, client: Rank) {
        self.stranded.remove(&client);
    }

    /// A stranded client that was itself killed will never retry; stop
    /// waiting for it.
    pub(super) fn drop_dead_stranded(&mut self, alive: impl Fn(Rank) -> bool) {
        self.stranded.retain(|c| alive(*c));
    }

    /// The linger ends once every live peer said goodbye and no adopted
    /// client still waits for an answer. This always comes: every server
    /// sends `Bye` *before* it starts waiting (no circular wait), an
    /// exited peer's `Bye` was its last completed send, and a killed peer
    /// is confirmed dead by the membership tick and dropped from the wait
    /// set.
    pub(super) fn linger_done(&self, live_peers: &[Rank]) -> bool {
        self.shutdown
            && live_peers.iter().all(|p| self.byes.contains(p))
            && self.stranded.is_empty()
    }
}

impl Server {
    /// This server's own answer to a termination poll.
    fn report(&self) -> Report {
        let ledger = self.shard.ledger();
        Report {
            quiescent: self.sched.quiescent(ledger),
            epoch: self.term.epoch,
            fwd_out: ledger.fwd_out,
            fwd_in: ledger.fwd_in,
        }
    }

    /// Poll the live peers for a termination round. Returns true when the
    /// round decided termination immediately (no peers to wait for).
    pub(super) fn start_check_round(&mut self) -> bool {
        let members = self.failover.live_peers();
        let round = self.term.start_round(members.clone());
        let check = ServerMsg::Check { round }.encode();
        for &r in &members {
            self.shard.send(r, TAG_SRV, check.clone());
        }
        // No peers to wait for (single server, or every peer dead): decide
        // now.
        members.is_empty() && self.evaluate_check_round()
    }

    /// All responses for the current round are in; decide, and broadcast
    /// the shutdown when it is time. Returns true on shutdown.
    fn evaluate_check_round(&mut self) -> bool {
        let own = self.report();
        let done = self.term.decide(own);
        if done {
            self.broadcast_shutdown(None);
        }
        done
    }

    /// A termination poll: answer it. Polls do not bump the epoch — they
    /// must not mask real quiescence.
    pub(super) fn on_check(&mut self, source: Rank, round: u64) {
        let r = self.report();
        let resp = ServerMsg::CheckResp {
            round,
            quiescent: r.quiescent,
            epoch: r.epoch,
            fwd_out: r.fwd_out,
            fwd_in: r.fwd_in,
        };
        self.shard.send(source, TAG_SRV, resp.encode());
    }

    /// A member's answer; returns true when it completed a round that
    /// decided termination.
    pub(super) fn on_check_resp(&mut self, source: Rank, round: u64, report: Report) -> bool {
        self.term.answer(source, round, report) && self.evaluate_check_round()
    }

    /// The master's shutdown notice: keep its quarantine reports, and relay
    /// it to every live peer before exiting. If the master died
    /// mid-broadcast, whoever did hear it completes the broadcast (exiting
    /// ranks still read as alive to the oracle, so a promoted master could
    /// otherwise poll an already-gone peer forever).
    pub(super) fn on_shutdown(&mut self, source: Rank, reports: Vec<String>) {
        for report in reports {
            if !self.shard.ledger().quarantine.contains(&report) {
                self.commit(ReplOp::Quarantine { report });
            }
        }
        self.broadcast_shutdown(Some(source));
    }

    /// Send the shutdown notice, with the quarantine reports, to every
    /// live peer but `except`.
    fn broadcast_shutdown(&mut self, except: Option<Rank>) {
        let note = ServerMsg::Shutdown {
            reports: self.capped_reports(),
        }
        .encode();
        for p in self.failover.live_peers() {
            if Some(p) != except {
                self.shard.send(p, TAG_SRV, note.clone());
            }
        }
    }

    pub(super) fn capped_reports(&self) -> Vec<String> {
        // Cap the reports shipped per message; the full list stays in
        // the ledger for post-mortem inspection.
        self.shard
            .ledger()
            .quarantine
            .iter()
            .take(8)
            .cloned()
            .collect()
    }

    /// The terminal answer to a client's `Get` — after termination, or
    /// while winding down: `NoMore` with the quarantine reports and any
    /// diagnosis, and the client counts as permanently parked.
    pub(super) fn answer_no_more(&mut self, client: Rank, seq: u64) {
        self.commit(ReplOp::ClientFinished { client });
        let resp = Response::NoMore {
            quarantined: self.capped_reports(),
            aborted: self.failover.abort_reason(),
        };
        self.send_response(client, seq, resp, true);
    }

    /// Global termination (or a finished wind-down): answer every parked
    /// client, say goodbye to every live peer, and turn the serving loop
    /// into the linger.
    pub(super) fn enter_shutdown(&mut self) {
        // Everything committed so far goes durable before the shutdown
        // notices start flowing.
        self.shard.flush(false, &mut self.stats);
        // Shutdown notices first, *replicated before they leave*
        // (`commit_tx` ships the ops ahead of the sends): if this server
        // dies between the sends below, the promoted successor re-pushes
        // the cached notices to whoever missed theirs.
        self.release_parked();
        self.commit_tx();
        // Group commit would otherwise hold the NoMore notices until the
        // next idle tick — but with no live peers the linger ends at once,
        // so force the final flush.
        self.shard.flush(false, &mut self.stats);
        // Goodbye receipt last on every peer link: sends complete in
        // program order, so a delivered `Bye` proves the notices above
        // left too. Then stay up until every live peer's own `Bye`
        // arrives — a peer that dies mid-shutdown instead would strand
        // its parked clients with nobody left to answer their retries.
        let bye = ServerMsg::Bye.encode();
        for p in self.failover.live_peers() {
            self.comm.send(p, TAG_SRV, bye.clone());
        }
        self.term.shutdown = true;
        self.failover.stop_replicating();
        self.comm.fault_point(Point::TerminationDecided);
    }

    /// What the server hands back once the linger ends.
    pub(super) fn outcome(&mut self) -> ServerOutcome {
        let mut ledger = self.shard.take_ledger();
        let mut streams: Vec<(Rank, u32, String)> = ledger
            .outputs
            .drain()
            .map(|((r, t), s)| (r, t, s))
            .collect();
        streams.sort();
        self.stats.data_unreleased = ledger
            .store
            .iter()
            .filter(|(_, d)| d.read_refs.is_some())
            .count() as u64;
        ServerOutcome {
            stats: self.stats,
            streams,
            truncated: self.sched.truncated(),
            tenant_rows: self.sched.tenant_rows(),
            ledger,
            replicas: self.failover.take_replicas(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEERS: [Rank; 2] = [5, 6];

    fn report(quiescent: bool, epoch: u64, fwd: (u64, u64)) -> Report {
        Report {
            quiescent,
            epoch,
            fwd_out: fwd.0,
            fwd_in: fwd.1,
        }
    }

    /// Runs one round: the master's own report, then each peer's.
    fn round(t: &mut Termination, own: Report, peers: [Report; 2]) -> bool {
        let n = t.start_round(PEERS.to_vec());
        assert!(t.in_flight());
        let complete: Vec<bool> = PEERS
            .iter()
            .zip(peers)
            .map(|(&p, r)| t.answer(p, n, r))
            .collect();
        assert_eq!(complete, [false, true], "complete only once all answered");
        let done = t.decide(own);
        assert!(!t.in_flight());
        done
    }

    #[test]
    fn two_quiet_balanced_unchanged_rounds_shut_down() {
        let quiet = report(true, 3, (2, 1));
        let peer = [report(true, 4, (0, 1)), report(true, 9, (0, 0))];
        let mut t = Termination::default();
        assert!(!round(&mut t, quiet, peer), "one round proves nothing");
        assert!(round(&mut t, quiet, peer));
    }

    #[test]
    fn any_one_failing_condition_keeps_going() {
        let quiet = report(true, 3, (2, 1));
        let peer = [report(true, 4, (0, 1)), report(true, 9, (0, 0))];
        let busy = [report(true, 4, (0, 1)), report(false, 9, (0, 0))];
        let in_flight = [report(true, 4, (0, 0)), report(true, 9, (0, 0))];
        let moved = [report(true, 4, (0, 1)), report(true, 10, (0, 0))];
        for (own, second) in [
            (report(false, 3, (2, 1)), peer),
            (quiet, busy),
            (quiet, in_flight),
            (quiet, moved),
            (report(true, 4, (2, 1)), peer),
        ] {
            let mut t = Termination::default();
            assert!(!round(&mut t, quiet, peer));
            assert!(!round(&mut t, own, second), "{own:?} {second:?}");
        }
        // A round abandoned for a death forgets the previous snapshot.
        let mut t = Termination::default();
        assert!(!round(&mut t, quiet, peer));
        t.abort_round();
        assert!(!round(&mut t, quiet, peer));
        assert!(round(&mut t, quiet, peer));
    }

    #[test]
    fn stale_or_foreign_answers_do_not_count() {
        let mut t = Termination::default();
        let n = t.start_round(PEERS.to_vec());
        let r = report(true, 0, (0, 0));
        assert!(!t.answer(5, n - 1, r));
        assert!(!t.answer(7, n, r));
        assert!(!t.answer(5, n, r));
        assert!(t.answer(6, n, r));
    }

    #[test]
    fn the_linger_waits_for_every_bye_and_every_stranded_client() {
        let mut t = Termination::default();
        assert!(!t.linger_done(&[]), "not before shutdown");
        t.shutdown = true;
        assert!(t.linger_done(&[]));
        assert!(!t.linger_done(&PEERS));
        t.bye(5);
        t.bye(6);
        assert!(t.linger_done(&PEERS));
        t.strand(2);
        assert!(!t.linger_done(&PEERS));
        t.drop_dead_stranded(|c| c != 2);
        assert!(t.linger_done(&PEERS));
        t.strand(3);
        t.unstrand(3);
        assert!(t.linger_done(&PEERS));
    }
}
