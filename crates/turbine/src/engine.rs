//! The engine: data-dependent rules and the control loop.
//!
//! An engine "carries out Swift logic, creating leaf tasks for execution"
//! (§II.B). Concretely: Turbine code calls `turbine::rule`, naming input
//! futures and an action; the engine subscribes to the unclosed inputs,
//! and when ADLB delivers the close notifications the action either runs
//! locally (control) or is put to ADLB for a worker (work).

use std::collections::{HashMap, HashSet, VecDeque};

use mpisim::{trace, Rank};

/// Dispatch class of a rule's action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Evaluate on this engine when ready.
    LocalControl,
    /// Put to ADLB as a distributable control task.
    DistributedControl,
    /// Put to ADLB as a worker (leaf) task.
    Work,
}

/// A not-yet-fireable rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Input futures still open.
    pub pending: HashSet<u64>,
    /// Tcl fragment to run when all inputs close.
    pub action: String,
    pub kind: ActionKind,
    pub priority: i32,
    pub target: Option<Rank>,
    /// Creation time (trace clock, µs; 0 untraced) — the `rule_fire`
    /// span covers the dataflow wait from creation to firing.
    pub created_us: u64,
}

/// Per-engine dataflow state.
#[derive(Default)]
pub struct EngineState {
    rules: HashMap<u64, Rule>,
    /// td id → rules waiting on it.
    waiting: HashMap<u64, Vec<u64>>,
    /// td ids this engine knows to be closed.
    closed_cache: HashSet<u64>,
    /// Actions ready to evaluate locally.
    pub ready: VecDeque<String>,
    next_rule_id: u64,
    /// Rules whose inputs were all closed at creation or that later fired.
    pub rules_fired: u64,
    /// Rules ever created.
    pub rules_created: u64,
}

/// What the caller must do with a newly created or fired rule's action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch {
    /// Nothing to do yet: the rule is waiting on inputs.
    Deferred,
    /// Action was queued for local evaluation.
    QueuedLocal,
    /// Action must be put to ADLB with `(work_type, priority, target)`.
    Put(u32, i32, Option<Rank>, String),
}

impl EngineState {
    /// New empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules currently waiting.
    pub fn rules_waiting(&self) -> usize {
        self.rules.len()
    }

    /// Whether this engine already knows `id` is closed.
    pub fn known_closed(&self, id: u64) -> bool {
        self.closed_cache.contains(&id)
    }

    /// Record that `id` is closed without a notification saying so (this
    /// engine stored it itself). Rules already waiting on it still fire
    /// from the server's notification.
    pub fn mark_closed(&mut self, id: u64) {
        self.closed_cache.insert(id);
    }

    /// Whether this engine already subscribed to `id` (has rules waiting).
    pub fn is_waiting_on(&self, id: u64) -> bool {
        self.waiting.contains_key(&id)
    }

    /// Record a rule. `unclosed` must be the subset of inputs that were
    /// not closed at creation time (the caller consulted
    /// [`EngineState::known_closed`] and the data store). Returns how to
    /// dispatch the action.
    pub fn add_rule(
        &mut self,
        unclosed: HashSet<u64>,
        action: String,
        kind: ActionKind,
        priority: i32,
        target: Option<Rank>,
    ) -> Dispatch {
        self.rules_created += 1;
        if unclosed.is_empty() {
            self.rules_fired += 1;
            // An already-satisfied rule fires with zero dataflow wait;
            // recording it keeps rule_fire spans == rules_fired.
            trace::record_instant(trace::KIND_RULE_FIRE, self.rules_created);
            return self.dispatch(action, kind, priority, target);
        }
        let rule_id = self.next_rule_id;
        self.next_rule_id += 1;
        for id in &unclosed {
            self.waiting.entry(*id).or_default().push(rule_id);
        }
        self.rules.insert(
            rule_id,
            Rule {
                pending: unclosed,
                action,
                kind,
                priority,
                target,
                created_us: trace::now_us(),
            },
        );
        Dispatch::Deferred
    }

    fn dispatch(
        &mut self,
        action: String,
        kind: ActionKind,
        priority: i32,
        target: Option<Rank>,
    ) -> Dispatch {
        match kind {
            ActionKind::LocalControl => {
                self.ready.push_back(action);
                Dispatch::QueuedLocal
            }
            ActionKind::DistributedControl => {
                Dispatch::Put(adlb::WORK_TYPE_CONTROL, priority, target, action)
            }
            ActionKind::Work => Dispatch::Put(adlb::WORK_TYPE_WORK, priority, target, action),
        }
    }

    /// Process a close notification for `id`: fire every rule whose last
    /// input this was. Returns the puts the caller must perform.
    pub fn fire(&mut self, id: u64) -> Vec<Dispatch> {
        self.closed_cache.insert(id);
        let Some(rule_ids) = self.waiting.remove(&id) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rid in rule_ids {
            // Take the rule out and re-insert if it still waits: one
            // lookup, and a waiting-list entry whose rule is gone (an
            // internal inconsistency that previously panicked the
            // engine) degrades to skipping the stale entry.
            let Some(mut rule) = self.rules.remove(&rid) else {
                continue;
            };
            rule.pending.remove(&id);
            if rule.pending.is_empty() {
                self.rules_fired += 1;
                trace::record_since(trace::KIND_RULE_FIRE, rid, rule.created_us);
                let d = self.dispatch(rule.action, rule.kind, rule.priority, rule.target);
                if !matches!(d, Dispatch::QueuedLocal) {
                    out.push(d);
                }
            } else {
                self.rules.insert(rid, rule);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> HashSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn immediate_rule_dispatches() {
        let mut e = EngineState::new();
        let d = e.add_rule(ids(&[]), "go".into(), ActionKind::LocalControl, 0, None);
        assert_eq!(d, Dispatch::QueuedLocal);
        assert_eq!(e.ready.pop_front().unwrap(), "go");
        assert_eq!(e.rules_fired, 1);
    }

    #[test]
    fn immediate_work_rule_puts() {
        let mut e = EngineState::new();
        let d = e.add_rule(ids(&[]), "task".into(), ActionKind::Work, 5, Some(3));
        assert_eq!(
            d,
            Dispatch::Put(adlb::WORK_TYPE_WORK, 5, Some(3), "task".into())
        );
    }

    #[test]
    fn rule_fires_when_last_input_closes() {
        let mut e = EngineState::new();
        let d = e.add_rule(ids(&[1, 2]), "go".into(), ActionKind::LocalControl, 0, None);
        assert_eq!(d, Dispatch::Deferred);
        assert!(e.fire(1).is_empty());
        assert!(e.ready.is_empty());
        assert!(e.fire(2).is_empty()); // local → ready, not Put
        assert_eq!(e.ready.pop_front().unwrap(), "go");
        assert_eq!(e.rules_waiting(), 0);
    }

    #[test]
    fn multiple_rules_on_one_input() {
        let mut e = EngineState::new();
        e.add_rule(ids(&[7]), "a".into(), ActionKind::LocalControl, 0, None);
        e.add_rule(ids(&[7]), "b".into(), ActionKind::Work, 1, None);
        let puts = e.fire(7);
        assert_eq!(puts.len(), 1, "work action returned as Put");
        assert_eq!(e.ready.len(), 1, "control action queued locally");
        assert_eq!(e.rules_fired, 2);
    }

    #[test]
    fn closed_cache_remembered() {
        let mut e = EngineState::new();
        e.fire(9);
        assert!(e.known_closed(9));
        assert!(!e.known_closed(10));
    }

    #[test]
    fn duplicate_input_in_rule_is_single_wait() {
        let mut e = EngineState::new();
        // HashSet input: {5} even if the Swift expression mentioned x twice.
        e.add_rule(ids(&[5, 5]), "go".into(), ActionKind::LocalControl, 0, None);
        e.fire(5);
        assert_eq!(e.ready.len(), 1);
    }

    #[test]
    fn fire_on_unwaited_id_is_noop() {
        let mut e = EngineState::new();
        assert!(e.fire(1234).is_empty());
    }
}
