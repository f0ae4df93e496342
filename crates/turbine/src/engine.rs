//! The engine: data-dependent rules and the control loop.
//!
//! An engine "carries out Swift logic, creating leaf tasks for execution"
//! (§II.B). Concretely: Turbine code calls `turbine::rule`, naming input
//! futures and an action; the engine subscribes to the unclosed inputs,
//! and when ADLB delivers the close notifications the action either runs
//! locally (control) or is put to ADLB for a worker (work).
//!
//! Futures are single-assignment, so whatever an engine learns about a
//! closed datum stays true. It remembers the closed ids it has seen — with
//! the value, when that is a scalar of at most [`adlb::NOTIFY_VALUE_MAX`]
//! bytes — from its own stores and from close notifications, which carry
//! such values. A remembered id needs no subscribe, a remembered value no
//! retrieve, and a work task takes the values of its inputs the engine
//! knows along in an envelope ahead of its Tcl fragment, so the worker
//! reads none of them from the server either.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use mpisim::{trace, Rank};

/// Most closed ids an engine remembers; past it the oldest is forgotten
/// first. A forgotten id costs a subscribe or a retrieve again, never an
/// error. Holds the four scalars per iteration of a 6,000-wide pipeline.
pub(crate) const KNOWN_MAX_IDS: usize = 32_768;
/// Most value bytes an engine remembers, under the same eviction order.
pub(crate) const KNOWN_MAX_BYTES: usize = 1 << 20;

/// First byte of a work payload that carries input values. No UTF-8 text
/// starts with it, so a bare Tcl fragment is never taken for an envelope.
const ENVELOPE: u8 = 0xFF;

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
    /// A work rule's inputs: the known values among them ride with its
    /// task. Empty for control rules.
    pub carry: Vec<u64>,
    /// Tcl fragment to run when all inputs close.
    pub action: String,
    pub kind: ActionKind,
    pub priority: i32,
    pub target: Option<Rank>,
    /// Creation time (trace clock, µs; 0 untraced) — the `rule_fire`
    /// span covers the dataflow wait from creation to firing.
    pub created_us: u64,
}

/// Closed ids an engine has seen, each with its value when that is a
/// scalar of at most [`adlb::NOTIFY_VALUE_MAX`] bytes. Bounded by
/// [`KNOWN_MAX_IDS`] and [`KNOWN_MAX_BYTES`], oldest forgotten first.
/// Values are owned copies: a view into an arrival buffer would keep a
/// whole delivered batch alive.
#[derive(Default)]
struct Known {
    values: HashMap<u64, Option<Box<[u8]>>>,
    /// Ids in the order they were learned: the eviction order.
    order: VecDeque<u64>,
    /// Value bytes held.
    bytes: usize,
}

impl Known {
    fn learn(&mut self, id: u64, value: Option<Vec<u8>>) {
        let value = value.filter(|v| v.len() <= adlb::NOTIFY_VALUE_MAX);
        match self.values.entry(id) {
            // Single assignment: a known value is final, so an entry only
            // ever goes from "closed" to "closed with this value".
            Entry::Occupied(mut e) => match value {
                Some(v) if e.get().is_none() => {
                    self.bytes += v.len();
                    e.insert(Some(v.into_boxed_slice()));
                }
                _ => return,
            },
            Entry::Vacant(e) => {
                self.bytes += value.as_ref().map_or(0, Vec::len);
                e.insert(value.map(Vec::into_boxed_slice));
                self.order.push_back(id);
            }
        }
        while self.order.len() > KNOWN_MAX_IDS || self.bytes > KNOWN_MAX_BYTES {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(Some(v)) = self.values.remove(&old) {
                self.bytes -= v.len();
            }
        }
    }
}

/// Per-engine dataflow state.
#[derive(Default)]
pub struct EngineState {
    rules: HashMap<u64, Rule>,
    /// td id → rules waiting on it.
    waiting: HashMap<u64, Vec<u64>>,
    /// Closed ids (and small values) this engine has seen.
    known: Known,
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
    /// Put `payload` to ADLB with `(work_type, priority, target)`: the
    /// action, behind an input envelope for a work task that carries any.
    Put(u32, i32, Option<Rank>, Vec<u8>),
}

/// A close notification whose payload does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MalformedNotification {
    /// Payload length in bytes.
    pub len: usize,
}

impl std::fmt::Display for MalformedNotification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed close notification ({} bytes)", self.len)
    }
}

impl std::error::Error for MalformedNotification {}

/// Decode a close notification: the datum id and, when the server carried
/// it, the closed value (the layout is `adlb`'s: id, then a `1` flag byte
/// and the value).
fn decode_notification(payload: &[u8]) -> Result<(u64, Option<&[u8]>), MalformedNotification> {
    let malformed = MalformedNotification { len: payload.len() };
    let Some((id, rest)) = payload.split_first_chunk::<8>() else {
        return Err(malformed);
    };
    let value = match rest {
        [] => None,
        [1, value @ ..] => Some(value),
        _ => return Err(malformed),
    };
    Ok((u64::from_le_bytes(*id), value))
}

/// A work payload that carries `inputs` ahead of `fragment`. Layout,
/// integers little-endian: the byte `0xFF`, a `u32` count, per input its
/// `u64` id, `u32` length and value bytes, then the fragment's text.
pub(crate) fn seal_envelope(inputs: &[(u64, &[u8])], fragment: &str) -> Vec<u8> {
    let size = 5 + inputs.iter().map(|(_, v)| 12 + v.len()).sum::<usize>() + fragment.len();
    let mut out = Vec::with_capacity(size);
    out.push(ENVELOPE);
    out.extend_from_slice(&(inputs.len() as u32).to_le_bytes());
    for (id, value) in inputs {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    out.extend_from_slice(fragment.as_bytes());
    out
}

/// Split a work payload into the input values it carries and its Tcl
/// fragment (see [`seal_envelope`]); a payload without the envelope byte
/// is a bare fragment. The parts are views into `payload`.
pub(crate) fn open_envelope(payload: &Bytes) -> Result<(Vec<(u64, Bytes)>, Bytes), String> {
    if payload.first() != Some(&ENVELOPE) {
        return Ok((Vec::new(), payload.clone()));
    }
    let mut c = Cursor {
        buf: payload,
        at: 1,
    };
    let mut parse = || {
        let count = c.u32()?;
        // A count is only as good as the bytes behind it.
        let mut inputs = Vec::with_capacity((count as usize).min(payload.len() / 12));
        for _ in 0..count {
            let id = c.u64()?;
            let len = c.u32()?;
            inputs.push((id, c.take(len as usize)?));
        }
        Some((inputs, c.take(payload.len() - c.at)?))
    };
    parse().ok_or_else(|| format!("malformed task envelope ({} bytes)", payload.len()))
}

/// Bounds-checked reads through an envelope.
struct Cursor<'a> {
    buf: &'a Bytes,
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<Bytes> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len())?;
        let field = self.buf.slice(self.at..end);
        self.at = end;
        Some(field)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?[..].try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?[..].try_into().ok()?))
    }
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
        self.known.values.contains_key(&id)
    }

    /// The value of closed scalar `id`, if this engine holds it.
    pub(crate) fn known_value(&self, id: u64) -> Option<&[u8]> {
        self.known.values.get(&id)?.as_deref()
    }

    /// Record that `id` is closed, with its value when known (this engine
    /// stored it, or a notification carried it). A value over
    /// [`adlb::NOTIFY_VALUE_MAX`] bytes is not kept. Rules already waiting
    /// on `id` still fire from the server's notification.
    pub(crate) fn remember(&mut self, id: u64, value: Option<Vec<u8>>) {
        self.known.learn(id, value);
    }

    /// Record a rule over `inputs` (duplicates allowed), as
    /// `turbine::rule` does. Returns the inputs the caller must subscribe
    /// to — open and not yet waited on — and how to dispatch the action.
    pub(crate) fn rule(
        &mut self,
        inputs: impl IntoIterator<Item = u64>,
        action: String,
        kind: ActionKind,
        priority: i32,
        target: Option<Rank>,
    ) -> (Vec<u64>, Dispatch) {
        let mut subscribe = Vec::new();
        let mut pending = HashSet::new();
        let mut carry = Vec::new();
        for id in inputs {
            if kind == ActionKind::Work {
                carry.push(id);
            }
            if self.known_closed(id) || !pending.insert(id) {
                continue;
            }
            if !self.waiting.contains_key(&id) {
                subscribe.push(id);
            }
        }
        let mut rule = Rule {
            pending,
            carry,
            action,
            kind,
            priority,
            target,
            created_us: 0,
        };
        self.rules_created += 1;
        if rule.pending.is_empty() {
            self.rules_fired += 1;
            // An already-satisfied rule fires with zero dataflow wait;
            // recording it keeps rule_fire spans == rules_fired.
            trace::record_instant(trace::KIND_RULE_FIRE, self.rules_created);
            return (subscribe, self.dispatch(rule));
        }
        let rule_id = self.next_rule_id;
        self.next_rule_id += 1;
        for id in &rule.pending {
            self.waiting.entry(*id).or_default().push(rule_id);
        }
        rule.created_us = trace::now_us();
        self.rules.insert(rule_id, rule);
        (subscribe, Dispatch::Deferred)
    }

    /// Record a rule whose open inputs are `unclosed` (the caller already
    /// consulted [`EngineState::known_closed`]) and return how to dispatch
    /// the action.
    pub fn add_rule(
        &mut self,
        unclosed: HashSet<u64>,
        action: String,
        kind: ActionKind,
        priority: i32,
        target: Option<Rank>,
    ) -> Dispatch {
        self.rule(unclosed, action, kind, priority, target).1
    }

    fn dispatch(&mut self, rule: Rule) -> Dispatch {
        match rule.kind {
            ActionKind::LocalControl => {
                self.ready.push_back(rule.action);
                Dispatch::QueuedLocal
            }
            ActionKind::DistributedControl => Dispatch::Put(
                adlb::WORK_TYPE_CONTROL,
                rule.priority,
                rule.target,
                rule.action.into_bytes(),
            ),
            ActionKind::Work => Dispatch::Put(
                adlb::WORK_TYPE_WORK,
                rule.priority,
                rule.target,
                self.seal_inputs(&rule.carry, rule.action),
            ),
        }
    }

    /// A work task's payload: `action` behind an envelope with the known
    /// values of `inputs`, or bare when this engine knows none.
    fn seal_inputs(&self, inputs: &[u64], action: String) -> Vec<u8> {
        let mut known: Vec<(u64, &[u8])> = Vec::new();
        for &id in inputs {
            if let Some(v) = self.known_value(id) {
                if !known.iter().any(|(k, _)| *k == id) {
                    known.push((id, v));
                }
            }
        }
        if known.is_empty() {
            return action.into_bytes();
        }
        seal_envelope(&known, &action)
    }

    /// Process a close notification for `id`: fire every rule whose last
    /// input this was. Returns the puts the caller must perform.
    pub fn fire(&mut self, id: u64) -> Vec<Dispatch> {
        self.remember(id, None);
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
                let d = self.dispatch(rule);
                if !matches!(d, Dispatch::QueuedLocal) {
                    out.push(d);
                }
            } else {
                self.rules.insert(rid, rule);
            }
        }
        out
    }

    /// Process one close-notification payload: remember what it says,
    /// then [`EngineState::fire`].
    pub(crate) fn notified(
        &mut self,
        payload: &[u8],
    ) -> Result<Vec<Dispatch>, MalformedNotification> {
        let (id, value) = decode_notification(payload)?;
        self.remember(id, value.map(<[u8]>::to_vec));
        Ok(self.fire(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> HashSet<u64> {
        v.iter().copied().collect()
    }

    fn note(id: u64, value: Option<&[u8]>) -> Vec<u8> {
        let mut p = id.to_le_bytes().to_vec();
        if let Some(v) = value {
            p.push(1);
            p.extend_from_slice(v);
        }
        p
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

    #[test]
    fn rule_subscribes_once_to_each_open_input() {
        let mut e = EngineState::new();
        e.remember(1, Some(b"5".to_vec()));
        let (subs, d) = e.rule([1, 2, 2, 3], "a".into(), ActionKind::LocalControl, 0, None);
        assert_eq!(
            subs,
            vec![2, 3],
            "known-closed 1 and the repeated 2 are skipped"
        );
        assert_eq!(d, Dispatch::Deferred);
        let (subs, _) = e.rule([3, 4], "b".into(), ActionKind::LocalControl, 0, None);
        assert_eq!(subs, vec![4], "3 is already waited on");
    }

    #[test]
    fn a_void_value_is_kept_and_told_apart_from_none() {
        let mut e = EngineState::new();
        e.remember(1, Some(b"".to_vec()));
        e.remember(2, None);
        assert_eq!(e.known_value(1), Some(&b""[..]));
        assert_eq!(e.known_value(2), None);
        assert!(e.known_closed(2));
    }

    #[test]
    fn a_known_value_is_final() {
        let mut e = EngineState::new();
        e.remember(1, None);
        e.remember(1, Some(b"first".to_vec()));
        e.remember(1, Some(b"second".to_vec()));
        e.fire(1);
        assert_eq!(e.known_value(1), Some(&b"first"[..]));
    }

    #[test]
    fn a_value_over_the_inline_limit_is_never_kept() {
        let mut e = EngineState::new();
        let big = vec![b'x'; adlb::NOTIFY_VALUE_MAX + 1];
        e.remember(1, Some(big));
        assert!(e.known_closed(1));
        assert_eq!(e.known_value(1), None);
        let edge = vec![b'y'; adlb::NOTIFY_VALUE_MAX];
        e.remember(2, Some(edge.clone()));
        assert_eq!(e.known_value(2), Some(&edge[..]));
    }

    #[test]
    fn the_oldest_ids_are_forgotten_past_the_bound() {
        let mut e = EngineState::new();
        for id in 0..(KNOWN_MAX_IDS as u64 + 10) {
            e.remember(id, Some(b"7".to_vec()));
        }
        assert_eq!(e.known.values.len(), KNOWN_MAX_IDS);
        assert!(!e.known_closed(9), "the first ten are gone");
        assert!(e.known_closed(10));
        assert_eq!(e.known_value(KNOWN_MAX_IDS as u64 + 9), Some(&b"7"[..]));
    }

    #[test]
    fn the_byte_budget_evicts_too() {
        let mut e = EngineState::new();
        let v = vec![0u8; adlb::NOTIFY_VALUE_MAX];
        let fits = KNOWN_MAX_BYTES / v.len();
        for id in 0..fits as u64 + 3 {
            e.remember(id, Some(v.clone()));
        }
        assert_eq!(e.known.values.len(), fits);
        assert!(!e.known_closed(2));
        assert!(e.known_closed(3));
    }

    #[test]
    fn ten_benchmark_pipelines_keep_the_map_at_its_bound() {
        // `pipeline_dataflow`'s engine traffic at 10× its 6,000
        // iterations: per iteration the engine stores i and puts f(i),
        // waits on t for g and on u and t for v = u + t, learns t and u
        // from notifications that carry them, then stores v. The map fills
        // to its bound and stays there, forgetting the oldest first.
        let mut e = EngineState::new();
        let iterations = 60_000u64;
        for i in 0..iterations {
            let (lv, t, u, v) = (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3);
            e.remember(lv, Some(i.to_string().into_bytes()));
            let (_, f) = e.rule([lv], "f".into(), ActionKind::Work, 0, None);
            assert!(matches!(f, Dispatch::Put(..)));
            e.rule([t], "g".into(), ActionKind::Work, 0, None);
            e.rule([u, t], "add".into(), ActionKind::LocalControl, 0, None);
            assert_eq!(e.notified(&note(t, Some(b"17"))).unwrap().len(), 1);
            e.notified(&note(u, Some(b"3"))).unwrap();
            assert_eq!(e.ready.pop_front().as_deref(), Some("add"));
            assert_eq!(e.known_value(t), Some(&b"17"[..]), "v = u + t reads t here");
            e.remember(v, Some(b"20".to_vec()));
            assert!(e.known.values.len() <= KNOWN_MAX_IDS);
        }
        assert_eq!(e.known.values.len(), KNOWN_MAX_IDS);
        assert_eq!(e.rules_waiting(), 0);
        assert!(!e.known_closed(0), "the first iteration is forgotten");
        assert!(e.known_closed(4 * iterations - 1));
    }

    #[test]
    fn a_work_rule_carries_the_inputs_the_engine_knows() {
        let mut e = EngineState::new();
        e.remember(5, Some(b"42".to_vec()));
        e.remember(6, None);
        let (subs, d) = e.rule([5, 6, 5, 7], "work".into(), ActionKind::Work, 0, None);
        assert_eq!(subs, vec![7]);
        assert_eq!(d, Dispatch::Deferred);
        let d = e.notified(&note(7, Some(b""))).unwrap();
        let Some(Dispatch::Put(wt, _, _, payload)) = d.into_iter().next() else {
            panic!("the rule puts its task");
        };
        assert_eq!(wt, adlb::WORK_TYPE_WORK);
        let (inputs, fragment) = open_envelope(&Bytes::from(payload)).unwrap();
        let inputs: Vec<(u64, Vec<u8>)> =
            inputs.into_iter().map(|(i, v)| (i, v.to_vec())).collect();
        assert_eq!(inputs, vec![(5, b"42".to_vec()), (7, Vec::new())]);
        assert_eq!(&fragment[..], b"work");
    }

    #[test]
    fn control_rules_and_unknown_inputs_stay_bare() {
        let mut e = EngineState::new();
        e.remember(5, Some(b"42".to_vec()));
        let (_, d) = e.rule([5], "ctl".into(), ActionKind::DistributedControl, 0, None);
        assert_eq!(
            d,
            Dispatch::Put(adlb::WORK_TYPE_CONTROL, 0, None, "ctl".into())
        );
        let (_, d) = e.rule([], "leaf".into(), ActionKind::Work, 0, None);
        assert_eq!(
            d,
            Dispatch::Put(adlb::WORK_TYPE_WORK, 0, None, "leaf".into())
        );
    }

    #[test]
    fn notifications_decode_with_and_without_a_value() {
        assert_eq!(decode_notification(&note(9, None)), Ok((9, None)));
        assert_eq!(
            decode_notification(&note(9, Some(b""))),
            Ok((9, Some(&b""[..])))
        );
        assert_eq!(
            decode_notification(&note(9, Some(b"hi"))),
            Ok((9, Some(&b"hi"[..])))
        );
        for bad in [
            &b""[..],
            &b"\x01\x02\x03"[..],
            &[0u8, 0, 0, 0, 0, 0, 0, 0, 2, 7][..],
        ] {
            let err = decode_notification(bad).unwrap_err();
            assert_eq!(err.len, bad.len());
            assert!(err.to_string().contains(&format!("({} bytes)", bad.len())));
        }
    }

    #[test]
    fn a_notification_fires_and_remembers_its_value() {
        let mut e = EngineState::new();
        e.add_rule(ids(&[3]), "go".into(), ActionKind::LocalControl, 0, None);
        assert!(e.notified(&note(3, Some(b"12"))).unwrap().is_empty());
        assert_eq!(e.ready.len(), 1);
        assert_eq!(e.known_value(3), Some(&b"12"[..]));
        assert!(e.notified(b"short").is_err());
    }

    #[test]
    fn envelopes_round_trip_and_bare_fragments_pass_through() {
        let sealed = seal_envelope(&[(1, b"a"), (u64::MAX, b"")], "puts hi");
        let (inputs, fragment) = open_envelope(&Bytes::from(sealed)).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!((inputs[0].0, &inputs[0].1[..]), (1, &b"a"[..]));
        assert_eq!((inputs[1].0, &inputs[1].1[..]), (u64::MAX, &b""[..]));
        assert_eq!(&fragment[..], b"puts hi");
        let bare = Bytes::from(b"puts plain".to_vec());
        let (inputs, fragment) = open_envelope(&bare).unwrap();
        assert!(inputs.is_empty());
        assert_eq!(fragment, bare);
    }

    #[test]
    fn every_truncated_or_inflated_envelope_is_an_error_not_a_panic() {
        let sealed = seal_envelope(&[(1, b"abc"), (2, b"de")], "x");
        // Cutting inside the header or a value is malformed; cutting only
        // the fragment is a shorter fragment.
        let fragment_at = sealed.len() - 1;
        for cut in 1..fragment_at {
            let err = open_envelope(&Bytes::from(sealed[..cut].to_vec())).unwrap_err();
            assert_eq!(err, format!("malformed task envelope ({cut} bytes)"));
        }
        let mut inflated = sealed.clone();
        inflated[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(open_envelope(&Bytes::from(inflated)).is_err());
        let mut long = sealed;
        long[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(open_envelope(&Bytes::from(long)).is_err());
    }
}
