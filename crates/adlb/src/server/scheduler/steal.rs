//! Work stealing: a server whose queue is empty while clients are parked
//! asks a live peer for half its matching work, sweeping victims in turn
//! and backing off after a fully empty sweep.

use mpisim::{trace, Rank, Wire};

use crate::msg::{ServerMsg, TAG_SRV};
use crate::replica::{ReplOp, Xfer};
use crate::server::Server;

impl Server {
    /// A thief asks for up to `need` tasks of `work_types`: donate them
    /// under the write-ahead transfer protocol, or answer empty.
    pub(in crate::server) fn on_steal_req(&mut self, thief: Rank, work_types: Vec<u32>, need: u32) {
        let quota = self
            .shard
            .ledger()
            .queue
            .steal_quota(&work_types, need as usize);
        let mut tasks = Vec::with_capacity(quota);
        while tasks.len() < quota {
            let Some(t) = self.shard.ledger().queue.steal_head(&work_types).cloned() else {
                break;
            };
            self.commit(ReplOp::Remove {
                tasks: vec![t.clone()],
            });
            tasks.push(t);
        }
        if tasks.is_empty() {
            // Empty steal traffic must not perturb the epoch or the
            // transfer ledger, or the steal retry loop would keep
            // termination detection from ever seeing two stable rounds.
            // fseq 0 marks "nothing transferred".
            let empty = ServerMsg::Xfer(Xfer {
                origin: self.comm.rank(),
                dest: thief,
                fseq: 0,
                steal: true,
                tasks: Vec::new(),
                sent_to: None,
            });
            self.shard.send(thief, TAG_SRV, empty.encode());
        } else {
            self.term.bump();
            self.stats.tasks_donated += tasks.len() as u64;
            self.send_xfer(thief, tasks, true);
            self.release_held();
        }
    }

    /// A victim's answer to a steal: a transfer of the tasks it donated,
    /// or an empty one (`fseq` 0).
    pub(in crate::server) fn on_steal_resp(&mut self, source: Rank, x: Xfer) {
        let (mine, origin, fseq) = (x.dest == self.comm.rank(), x.origin, x.fseq);
        let sched = &mut self.sched;
        if mine && sched.outstanding_steal {
            sched.outstanding_steal = false;
            sched.steal_victim = None;
            // Steal round-trip, empty or not; id = victim rank.
            trace::record_since(trace::KIND_STEAL, origin as u64, sched.steal_started_us);
            if fseq == 0 {
                // Try the next victim on the next idle tick; after a fully
                // empty sweep, back off.
                sched.steal_victim_cursor += 1;
                sched.empty_steal_streak += 1;
                let live_victims = self.failover.live_peers().len();
                if sched.empty_steal_streak >= live_victims.max(1) {
                    sched.empty_steal_streak = 0;
                    sched.steal_backoff = 50;
                }
            }
        }
        if fseq != 0 {
            let n = x.tasks.len() as u64;
            let fresh = self.apply_xfer(source, x);
            if fresh && mine {
                self.sched.empty_steal_streak = 0;
                self.stats.steals_successful += 1;
                self.stats.tasks_stolen += n;
                // The victim clearly has work: if clients are still
                // starved, go straight back for more instead of pacing the
                // next attempt on the poll timeout.
                self.try_steal();
            }
        }
    }

    pub(in crate::server) fn try_steal(&mut self) {
        let sched = &mut self.sched;
        if !self.config.steal_enabled
            || self.failover.aborting()
            || sched.steal_backoff > 0
            || sched.outstanding_steal
            || sched.parked.is_empty()
            || !self.shard.ledger().queue.is_empty()
        {
            return;
        }
        let others = self.failover.live_peers();
        if others.is_empty() {
            return;
        }
        // Union of work types our parked clients want.
        let mut types: Vec<u32> = Vec::new();
        for t in sched.parked.iter().flat_map(|p| &p.work_types) {
            if !types.contains(t) {
                types.push(*t);
            }
        }
        let victim = others[sched.steal_victim_cursor % others.len()];
        sched.outstanding_steal = true;
        sched.steal_victim = Some(victim);
        sched.steal_started_us = trace::now_us();
        self.stats.steals_attempted += 1;
        let req = ServerMsg::StealReq {
            thief: self.comm.rank(),
            work_types: types,
            // Sizing hint: at least one task per starved client.
            need: sched.parked.len() as u32,
        };
        self.shard.send(victim, TAG_SRV, req.encode());
    }
}
