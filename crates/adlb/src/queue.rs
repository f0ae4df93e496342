//! Server-side work queues: per-type priority queues plus targeted queues.
//!
//! Untargeted heaps are keyed by `(tenant, work_type)` so the fair
//! scheduler ([`crate::tenant::TenantSched`]) can elect a tenant and take
//! that tenant's best task without disturbing the (priority desc, arrival
//! asc) order *within* any tenant. Targeted heaps stay keyed by
//! `(rank, work_type)` — a pinned task can only ever run on its target, so
//! tenant fairness never withholds it.
//!
//! The queue is part of a server's [`crate::Ledger`], so it has exactly
//! two mutators — [`WorkQueue::push`] and [`WorkQueue::remove`], the
//! bodies of `ReplOp::Push` and `ReplOp::Remove`. Everything a scheduler,
//! thief or dead-rank sweep does is a read-only choice of a heap *head*
//! followed by a `Remove` of that task by value, which is why removal by
//! value is still O(log n): the primary always removes a head, and a
//! replica that applied the same op stream has the same head.

use std::collections::{BinaryHeap, HashMap};

use mpisim::Rank;

use crate::msg::{Task, WORK_TYPE_WORK};

/// Heap entry ordered by (priority desc, arrival asc).
#[derive(Debug, Clone)]
pub struct Entry {
    seq: u64,
    /// Accept time on this server's clock (µs), for queue-wait tracing.
    /// 0 when tracing is disabled; never ordered on.
    pub accepted_us: u64,
    /// The queued task.
    pub task: Task,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.task.priority == other.task.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier arrival (lower seq).
        self.task
            .priority
            .cmp(&other.task.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// All queued work on one server.
#[derive(Debug, Default, Clone)]
pub struct WorkQueue {
    untargeted: HashMap<(u32, u32), BinaryHeap<Entry>>,
    targeted: HashMap<(Rank, u32), BinaryHeap<Entry>>,
    /// Untargeted *leaf work* (`WORK_TYPE_WORK`) count per tenant —
    /// the quantity admission quotas cap and queue peaks report.
    /// Control/notify tasks are internal dataflow: only the producing
    /// engine can consume them, so counting them against a quota would
    /// let a capped tenant deadlock itself.
    per_tenant: HashMap<u32, usize>,
    seq: u64,
    len: usize,
}

/// Two queues are equal when they hold the same multiset of tasks:
/// arrival numbering and accept stamps are local to a server's clock.
impl PartialEq for WorkQueue {
    fn eq(&self, other: &Self) -> bool {
        fn key(t: &Task) -> (u32, u32, i32, Option<Rank>, u32, &[u8]) {
            (
                t.work_type,
                t.tenant,
                t.priority,
                t.target,
                t.attempts,
                &t.payload,
            )
        }
        fn sorted(q: &WorkQueue) -> Vec<&Task> {
            let mut v = q.tasks();
            v.sort_by(|a, b| key(a).cmp(&key(b)));
            v
        }
        self.len == other.len && sorted(self) == sorted(other)
    }
}

impl WorkQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Untargeted leaf (`WORK_TYPE_WORK`) tasks queued for one tenant —
    /// the quantity quotas cap.
    pub fn untargeted_of(&self, tenant: u32) -> usize {
        self.per_tenant.get(&tenant).copied().unwrap_or(0)
    }

    /// Enqueue a task, stamping its accept time for queue-wait tracing.
    pub fn push(&mut self, task: Task) {
        let e = Entry {
            seq: self.seq,
            accepted_us: mpisim::trace::now_us(),
            task,
        };
        self.seq += 1;
        self.len += 1;
        match e.task.target {
            Some(r) => self
                .targeted
                .entry((r, e.task.work_type))
                .or_default()
                .push(e),
            None => {
                if e.task.work_type == WORK_TYPE_WORK {
                    *self.per_tenant.entry(e.task.tenant).or_default() += 1;
                }
                self.untargeted
                    .entry((e.task.tenant, e.task.work_type))
                    .or_default()
                    .push(e);
            }
        }
    }

    /// Remove one queued copy of `task`. It is looked for in the one heap
    /// it can be in: popped when it is that heap's head (every removal a
    /// primary makes, and so every one a replica in step with it applies),
    /// found by a scan of that heap otherwise. Returns whether a copy was
    /// queued.
    pub fn remove(&mut self, task: &Task) -> bool {
        fn take<K: std::hash::Hash + Eq>(
            heaps: &mut HashMap<K, BinaryHeap<Entry>>,
            key: K,
            task: &Task,
        ) -> bool {
            let Some(heap) = heaps.get_mut(&key) else {
                return false;
            };
            let found = if heap.peek().is_some_and(|e| e.task == *task) {
                heap.pop();
                true
            } else {
                let mut entries = std::mem::take(heap).into_vec();
                let at = entries.iter().position(|e| e.task == *task);
                if let Some(i) = at {
                    entries.swap_remove(i);
                }
                *heap = entries.into();
                at.is_some()
            };
            if heap.is_empty() {
                heaps.remove(&key);
            }
            found
        }
        let found = match task.target {
            Some(r) => take(&mut self.targeted, (r, task.work_type), task),
            None => take(&mut self.untargeted, (task.tenant, task.work_type), task),
        };
        if !found {
            return false;
        }
        self.len -= 1;
        if task.target.is_none() && task.work_type == WORK_TYPE_WORK {
            if let Some(c) = self.per_tenant.get_mut(&task.tenant) {
                *c -= 1;
                if *c == 0 {
                    self.per_tenant.remove(&task.tenant);
                }
            }
        }
        true
    }

    /// Move every task of `other` in (a promoted or restored shard's
    /// queue), each heap in its delivery order so FIFO within a priority
    /// survives the move.
    pub fn absorb(&mut self, other: WorkQueue) {
        let heaps = other
            .untargeted
            .into_values()
            .chain(other.targeted.into_values());
        for heap in heaps {
            for e in heap.into_sorted_vec().into_iter().rev() {
                self.push(e.task);
            }
        }
    }

    /// Every queued task, each heap in delivery order: re-pushing them in
    /// this order (a decoded snapshot) rebuilds heaps with the same heads.
    pub fn tasks(&self) -> Vec<&Task> {
        let mut out = Vec::with_capacity(self.len);
        for heap in self.untargeted.values().chain(self.targeted.values()) {
            let mut entries: Vec<&Entry> = heap.iter().collect();
            entries.sort_unstable_by(|a, b| b.cmp(a));
            out.extend(entries.into_iter().map(|e| &e.task));
        }
        out
    }

    /// Tenants that currently have untargeted work queued in any of the
    /// given types, sorted ascending (deterministic round-robin input).
    pub fn tenants_with_work(&self, work_types: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .untargeted
            .keys()
            .filter(|(_, wt)| work_types.contains(wt))
            .map(|(t, _)| *t)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Best head targeted at `rank` across `work_types`.
    pub fn peek_targeted(&self, rank: Rank, work_types: &[u32]) -> Option<&Entry> {
        work_types
            .iter()
            .filter_map(|wt| self.targeted.get(&(rank, *wt))?.peek())
            .max()
    }

    /// Best untargeted head of one tenant across `work_types`.
    pub fn peek_untargeted(&self, tenant: u32, work_types: &[u32]) -> Option<&Entry> {
        work_types
            .iter()
            .filter_map(|wt| self.untargeted.get(&(tenant, *wt))?.peek())
            .max()
    }

    /// A head targeted at `rank`, of any work type. Used when a rank dies:
    /// its pinned tasks must be dropped or retargeted, or they would sit
    /// in the queue forever and block termination.
    pub fn targeted_head(&self, rank: Rank) -> Option<&Task> {
        self.targeted
            .iter()
            .find(|((r, _), _)| *r == rank)
            .and_then(|(_, h)| h.peek())
            .map(|e| &e.task)
    }

    /// How many tasks a thief asking for `work_types` is given: half the
    /// untargeted tasks of those types (at least one if any exist), raised
    /// to the thief's `need` hint when more clients are starved than half
    /// covers.
    pub fn steal_quota(&self, work_types: &[u32], need: usize) -> usize {
        let available: usize = self
            .untargeted
            .iter()
            .filter(|((_, wt), _)| work_types.contains(wt))
            .map(|(_, h)| h.len())
            .sum();
        if available == 0 {
            return 0;
        }
        (available / 2).max(need.min(available)).max(1)
    }

    /// The next task to donate: the head of the largest untargeted heap of
    /// the given types (they queue longest), across all tenants — stolen
    /// tasks keep their tenant tag, so fairness is re-applied wherever
    /// they land.
    pub fn steal_head(&self, work_types: &[u32]) -> Option<&Task> {
        self.untargeted
            .iter()
            .filter(|((_, wt), _)| work_types.contains(wt))
            .max_by_key(|(_, h)| h.len())
            .and_then(|(_, h)| h.peek())
            .map(|e| &e.task)
    }
}

#[cfg(test)]
mod test_ops {
    //! What the server composes from the read-only peeks plus
    //! [`WorkQueue::remove`], for the tests below.

    use super::*;

    /// Tenant-blind delivery: the best task `rank` may run — targeted at
    /// it or untargeted of any tenant — with ties won by targeted.
    pub fn pop_for(q: &mut WorkQueue, rank: Rank, work_types: &[u32]) -> Option<Task> {
        let targeted = q.peek_targeted(rank, work_types);
        let untargeted = q
            .tenants_with_work(work_types)
            .into_iter()
            .filter_map(|t| q.peek_untargeted(t, work_types))
            .max();
        let head = match (targeted, untargeted) {
            (Some(t), Some(u)) if t.task.priority >= u.task.priority => t,
            (t, u) => u.or(t)?,
        };
        let task = head.task.clone();
        assert!(q.remove(&task));
        Some(task)
    }

    pub fn pop_untargeted(q: &mut WorkQueue, tenant: u32, work_types: &[u32]) -> Option<Task> {
        let task = q.peek_untargeted(tenant, work_types)?.task.clone();
        assert!(q.remove(&task));
        Some(task)
    }

    pub fn steal(q: &mut WorkQueue, work_types: &[u32], need: usize) -> Vec<Task> {
        (0..q.steal_quota(work_types, need))
            .map_while(|_| {
                let task = q.steal_head(work_types)?.clone();
                assert!(q.remove(&task));
                Some(task)
            })
            .collect()
    }

    pub fn drain_targeted(q: &mut WorkQueue, rank: Rank) -> Vec<Task> {
        std::iter::from_fn(|| {
            let task = q.targeted_head(rank)?.clone();
            assert!(q.remove(&task));
            Some(task)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_ops::*;
    use super::*;
    use bytes::Bytes;

    fn task(wt: u32, prio: i32, target: Option<Rank>, tag: u8) -> Task {
        Task::new(wt, prio, target, Bytes::from(vec![tag]))
    }

    #[test]
    fn priority_then_fifo() {
        let mut q = WorkQueue::new();
        q.push(task(1, 0, None, 1));
        q.push(task(1, 5, None, 2));
        q.push(task(1, 0, None, 3));
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 2);
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 1);
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 3);
        assert!(pop_for(&mut q, 0, &[1]).is_none());
    }

    #[test]
    fn work_types_are_separate() {
        let mut q = WorkQueue::new();
        q.push(task(0, 0, None, 1));
        q.push(task(1, 0, None, 2));
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 2);
        assert!(pop_for(&mut q, 0, &[1]).is_none());
        assert_eq!(pop_for(&mut q, 0, &[0]).unwrap().payload[0], 1);
    }

    #[test]
    fn targeted_only_to_target() {
        let mut q = WorkQueue::new();
        q.push(task(1, 0, Some(3), 1));
        assert!(pop_for(&mut q, 0, &[1]).is_none());
        assert_eq!(pop_for(&mut q, 3, &[1]).unwrap().payload[0], 1);
    }

    #[test]
    fn targeted_beats_untargeted_at_same_priority() {
        let mut q = WorkQueue::new();
        q.push(task(1, 0, None, 1));
        q.push(task(1, 0, Some(5), 2));
        assert_eq!(pop_for(&mut q, 5, &[1]).unwrap().payload[0], 2);
    }

    #[test]
    fn higher_priority_untargeted_beats_targeted() {
        let mut q = WorkQueue::new();
        q.push(task(1, 10, None, 1));
        q.push(task(1, 0, Some(5), 2));
        assert_eq!(pop_for(&mut q, 5, &[1]).unwrap().payload[0], 1);
    }

    #[test]
    fn steal_takes_half_untargeted_only() {
        let mut q = WorkQueue::new();
        for i in 0..10 {
            q.push(task(1, 0, None, i));
        }
        q.push(task(1, 0, Some(2), 99));
        let stolen = steal(&mut q, &[1], 1);
        assert_eq!(stolen.len(), 5);
        assert_eq!(q.len(), 6); // 5 untargeted + 1 targeted
        assert!(stolen.iter().all(|t| t.target.is_none()));
    }

    #[test]
    fn steal_from_empty_is_empty() {
        let mut q = WorkQueue::new();
        assert!(steal(&mut q, &[0, 1], 1).is_empty());
        q.push(task(1, 0, Some(4), 1));
        assert!(
            steal(&mut q, &[1], 1).is_empty(),
            "targeted tasks are not stealable"
        );
    }

    #[test]
    fn steal_single_task() {
        let mut q = WorkQueue::new();
        q.push(task(1, 0, None, 1));
        assert_eq!(steal(&mut q, &[1], 1).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_targeted_takes_all_types_for_rank() {
        let mut q = WorkQueue::new();
        q.push(task(0, 0, Some(2), 1));
        q.push(task(1, 5, Some(2), 2));
        q.push(task(1, 0, Some(3), 3));
        q.push(task(1, 0, None, 4));
        let drained = drain_targeted(&mut q, 2);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|t| t.target == Some(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(pop_for(&mut q, 3, &[1]).unwrap().payload[0], 3);
        assert_eq!(pop_for(&mut q, 9, &[1]).unwrap().payload[0], 4);
    }

    #[test]
    fn multi_type_get_prefers_best_priority() {
        let mut q = WorkQueue::new();
        q.push(task(0, 1, None, 1));
        q.push(task(1, 9, None, 2));
        assert_eq!(pop_for(&mut q, 0, &[0, 1]).unwrap().payload[0], 2);
        assert_eq!(pop_for(&mut q, 0, &[0, 1]).unwrap().payload[0], 1);
    }

    #[test]
    fn per_tenant_counts_track_untargeted_only() {
        let mut q = WorkQueue::new();
        q.push(task(1, 0, None, 1).with_tenant(7));
        q.push(task(1, 0, None, 2).with_tenant(7));
        q.push(task(1, 0, Some(3), 3).with_tenant(7));
        q.push(task(1, 0, None, 4)); // tenant 0
        assert_eq!(q.untargeted_of(7), 2);
        assert_eq!(q.untargeted_of(0), 1);
        assert_eq!(q.tenants_with_work(&[1]), vec![0, 7]);
        assert!(q.tenants_with_work(&[0]).is_empty());
        pop_untargeted(&mut q, 7, &[1]).unwrap();
        assert_eq!(q.untargeted_of(7), 1);
        let stolen = steal(&mut q, &[1], 4);
        assert!(!stolen.is_empty());
        assert_eq!(
            q.untargeted_of(7) + q.untargeted_of(0),
            2 - stolen.len().min(2)
        );
    }

    #[test]
    fn pop_untargeted_is_per_tenant_priority_order() {
        let mut q = WorkQueue::new();
        q.push(task(1, 1, None, 1).with_tenant(1));
        q.push(task(1, 9, None, 2).with_tenant(2));
        q.push(task(1, 5, None, 3).with_tenant(1));
        // Tenant 1's own best is the priority-5 task even though tenant 2
        // holds the global maximum.
        assert_eq!(pop_untargeted(&mut q, 1, &[1]).unwrap().payload[0], 3);
        assert_eq!(pop_untargeted(&mut q, 1, &[1]).unwrap().payload[0], 1);
        assert!(pop_untargeted(&mut q, 1, &[1]).is_none());
        assert_eq!(pop_untargeted(&mut q, 2, &[1]).unwrap().payload[0], 2);
    }

    #[test]
    fn pop_for_is_tenant_blind_global_best() {
        let mut q = WorkQueue::new();
        q.push(task(1, 1, None, 1).with_tenant(1));
        q.push(task(1, 9, None, 2).with_tenant(2));
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 2);
        assert_eq!(pop_for(&mut q, 0, &[1]).unwrap().payload[0], 1);
    }
}

#[cfg(test)]
mod queue_properties {
    //! Property test: the queue agrees with a naive model on delivery
    //! order (priority desc, FIFO within priority, targeted-only-to-
    //! target with ties won by targeted) under random interleavings of
    //! puts, gets, steals and removals by value of arbitrary (mostly
    //! non-head) tasks, and keeps its length and per-tenant quota counters
    //! in step with it.

    use super::test_ops::*;
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push {
            prio: i32,
            target: Option<Rank>,
            wt: u32,
            tenant: u32,
        },
        Pop {
            rank: Rank,
            wt: u32,
        },
        Steal {
            wt: u32,
            need: usize,
        },
        /// Remove the `pick`-th queued task (model order) by value.
        Remove {
            pick: usize,
        },
    }

    /// One queued task in the naive model.
    type Queued = (i32, u64, Option<Rank>, u32, u64, u32);

    fn task_of((prio, _, target, wt, id, tenant): Queued) -> Task {
        Task::new(wt, prio, target, Bytes::from(id.to_le_bytes().to_vec())).with_tenant(tenant)
    }

    fn push_strategy() -> impl Strategy<Value = Op> {
        (
            -3i32..4,
            prop_oneof![Just(None), (0usize..3).prop_map(Some)],
            0u32..2,
            0u32..3,
        )
            .prop_map(|(prio, target, wt, tenant)| Op::Push {
                prio,
                target,
                wt,
                tenant,
            })
    }

    fn pop_strategy() -> impl Strategy<Value = Op> {
        ((0usize..3), 0u32..2).prop_map(|(rank, wt)| Op::Pop { rank, wt })
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest's `prop_oneof!` is unweighted; repeating
        // arms gets the intended 4:4:1:1 push/pop/steal/remove mix.
        prop_oneof![
            push_strategy(),
            push_strategy(),
            push_strategy(),
            push_strategy(),
            pop_strategy(),
            pop_strategy(),
            pop_strategy(),
            pop_strategy(),
            ((0u32..2), 1usize..4).prop_map(|(wt, need)| Op::Steal { wt, need }),
            (0usize..64).prop_map(|pick| Op::Remove { pick }),
        ]
    }

    /// Naive reference: linear scan for the best candidate.
    fn model_pop(model: &mut Vec<Queued>, rank: Rank, wts: &[u32]) -> Option<u64> {
        let mut best: Option<usize> = None;
        for (idx, (prio, seq, target, wt, _id, _tenant)) in model.iter().enumerate() {
            if !wts.contains(wt) {
                continue;
            }
            if target.is_some() && *target != Some(rank) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let (bp, bs, bt, _, _, _) = model[b];
                    // Higher priority first; then targeted beats
                    // untargeted; then FIFO.
                    (*prio, target.is_some(), std::cmp::Reverse(*seq))
                        > (bp, bt.is_some(), std::cmp::Reverse(bs))
                }
            };
            if better {
                best = Some(idx);
            }
        }
        best.map(|b| model.remove(b).4)
    }

    proptest! {
        #[test]
        fn queue_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut q = WorkQueue::new();
            let mut model: Vec<Queued> = Vec::new();
            let mut seq = 0u64;
            let mut id = 0u64;
            for op in &ops {
                match op {
                    Op::Push { prio, target, wt, tenant } => {
                        model.push((*prio, seq, *target, *wt, id, *tenant));
                        q.push(task_of(model[model.len() - 1]));
                        seq += 1;
                        id += 1;
                    }
                    Op::Pop { rank, wt } => {
                        let wts = [*wt];
                        let got = pop_for(&mut q, *rank, &wts)
                            .map(|t| u64::from_le_bytes(t.payload[..8].try_into().unwrap()));
                        let want = model_pop(&mut model, *rank, &wts);
                        prop_assert_eq!(got, want);
                    }
                    Op::Steal { wt, need } => {
                        let stolen = steal(&mut q, &[*wt], *need);
                        // Steals only take untargeted tasks of the
                        // requested type; mirror the removals in the
                        // model by task identity so subsequent pops
                        // keep checking order.
                        for t in &stolen {
                            prop_assert!(t.target.is_none());
                            prop_assert_eq!(t.work_type, *wt);
                            let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                            let at = model.iter().position(|m| m.4 == tid);
                            prop_assert!(at.is_some(), "stole a task the model didn't hold");
                            if let Some(at) = at {
                                model.remove(at);
                            }
                        }
                    }
                    Op::Remove { pick } => {
                        if !model.is_empty() {
                            let gone = task_of(model.remove(pick % model.len()));
                            prop_assert!(q.remove(&gone), "a queued task was not found");
                            // Payloads are unique, so it is gone for good.
                            prop_assert!(!q.remove(&gone));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                for tenant in 0..3 {
                    let leaf_work = model
                        .iter()
                        .filter(|m| m.2.is_none() && m.3 == WORK_TYPE_WORK && m.5 == tenant)
                        .count();
                    prop_assert_eq!(q.untargeted_of(tenant), leaf_work);
                }
            }

            // Drain everything that remains through untenanted pops and
            // check the tail also respects the ordering invariant.
            loop {
                let mut popped_any = false;
                for rank in 0..3 {
                    for wt in 0..2 {
                        let wts = [wt];
                        if let Some(t) = pop_for(&mut q, rank, &wts) {
                            let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                            let want = model_pop(&mut model, rank, &wts);
                            prop_assert_eq!(Some(tid), want);
                            popped_any = true;
                        }
                    }
                }
                if !popped_any {
                    break;
                }
            }
            prop_assert!(model.is_empty());
        }
    }
}
