//! Deterministic fault injection for the simulated MPI substrate.
//!
//! A [`FaultPlan`] scripts failures against a world before it launches:
//! kill rank R at the Nth hit of a named [`Point`], silently drop the Nth
//! message on a (from, to) pair, or delay it. Plans are plain data, so
//! every failure scenario is reproducible — the same plan against the
//! same program kills the same rank at the same protocol step every run.
//!
//! A kill models *fail-stop* process death at a moment the upper layers
//! (ADLB task leases, Turbine containment) can reason about: two points
//! are message boundaries that [`crate::Comm`] hits itself (`send`,
//! `recv`), the rest are protocol moments the upper layers name with
//! [`crate::Comm::fault_point`]. A point is counted in the rank's own
//! program order, so a kill aimed at "the third task received" does not
//! move when batching or routing changes how many messages carry the
//! work. Drops and delays stay message-level: they are about messages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::Rank;

/// Declares [`Point`] with each point's spec name beside it, so a name is
/// defined once and parsing, printing and the table test all read it.
macro_rules! points {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// A named moment of a rank's run that a kill can land on.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Point {
            $($(#[$doc])* $variant,)*
        }

        impl Point {
            /// Every point, in declaration order.
            pub const ALL: &'static [Point] = &[$(Point::$variant,)*];

            /// The point's name in a fault spec (`at=NAME`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Point::$variant => $name,)*
                }
            }
        }
    };
}

points! {
    /// A send was delivered (hit by [`crate::Comm::send`]; the kill
    /// fires after the message left).
    Send => "send",
    /// A receive completed (hit by [`crate::Comm`]'s receives). The kill
    /// lands on entry to the rank's next receive, consuming nothing.
    Recv => "recv",
    /// An ADLB client's `Get` left for its server; no answer read yet.
    GetSent => "client.get_sent",
    /// An ADLB client handed a delivered task to its caller, which has
    /// not run it yet.
    TaskReceived => "client.task_received",
    /// An ADLB client's task ack left for its server (one hit per ack,
    /// after the outbox carrying it was sent).
    AckSent => "client.ack_sent",
    /// An ADLB server applied a client request (a parked `Get` counts).
    RequestApplied => "server.request_applied",
    /// An ADLB server shipped one transaction's ops to its replicas.
    OpsReplicated => "server.ops_replicated",
    /// An ADLB server applied one batch of a peer's ops to the replica it
    /// holds: a clock of the primary's progress on the replica holder.
    ReplicaUpdated => "server.replica_updated",
    /// An ADLB server installed a full replica of a peer's ledger from a
    /// sync stream.
    ReplicaInstalled => "server.replica_installed",
    /// An ADLB server finished handling a peer's confirmed death: it
    /// promoted, restored or gave up the dead shard (or left it to the
    /// successor), made a promotion durable when a checkpoint tier is on,
    /// and reshaped the ring.
    DeathHandled => "server.death_handled",
    /// An ADLB server learned the run terminated and sent its shutdown
    /// notices and goodbyes: from here on it only lingers.
    TerminationDecided => "server.termination_decided",
}

impl Point {
    /// The point named `name` in a fault spec.
    pub fn from_name(name: &str) -> Option<Point> {
        Point::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// `Point::ALL`'s names, comma-separated, for error messages.
fn point_names() -> String {
    Point::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// One scripted failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill `rank` at the `n`-th (1-based) hit of `point`.
    KillAt {
        /// Victim rank.
        rank: Rank,
        /// The moment the kill lands on.
        point: Point,
        /// 1-based hit count of `point` on `rank` that triggers the kill.
        n: u64,
    },
    /// Silently drop the `nth` (1-based) message sent from `from` to `to`.
    DropNth {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// 1-based message index on the (from, to) pair.
        nth: u64,
    },
    /// Delay delivery of the `nth` (1-based) message from `from` to `to`.
    DelayNth {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// 1-based message index on the (from, to) pair.
        nth: u64,
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// A scripted, deterministic set of failures for one world run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The scripted actions.
    pub fn actions(&self) -> &[FaultAction] {
        &self.actions
    }

    /// Add an action.
    pub fn with(mut self, action: FaultAction) -> Self {
        self.actions.push(action);
        self
    }

    /// Kill `rank` at the `n`-th hit of `point`.
    pub fn kill_at(self, rank: Rank, point: Point, n: u64) -> Self {
        self.with(FaultAction::KillAt { rank, point, n })
    }

    /// Drop the `nth` message from `from` to `to`.
    pub fn drop_nth(self, from: Rank, to: Rank, nth: u64) -> Self {
        self.with(FaultAction::DropNth { from, to, nth })
    }

    /// Delay the `nth` message from `from` to `to` by `millis`.
    pub fn delay_nth(self, from: Rank, to: Rank, nth: u64, millis: u64) -> Self {
        self.with(FaultAction::DelayNth {
            from,
            to,
            nth,
            millis,
        })
    }

    /// Parse a CLI fault spec: `;`-separated actions of the form
    ///
    /// * `kill:rank=R,at=POINT,n=N` — kill R at the Nth (N ≥ 1) hit of
    ///   the point named POINT (see [`Point::name`])
    /// * `drop:from=A,to=B,nth=N` — drop the Nth A→B message
    /// * `delay:from=A,to=B,nth=N,ms=M` — delay the Nth A→B message
    ///
    /// Example: `--faults "kill:rank=2,at=client.task_received,n=3;drop:from=0,to=1,nth=3"`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, fields) = part
                .split_once(':')
                .ok_or_else(|| format!("fault action `{part}` is missing `kind:`"))?;
            let kind = kind.trim();
            let allowed: &[&str] = match kind {
                "kill" => &["rank", "at", "n"],
                "drop" => &["from", "to", "nth"],
                "delay" => &["from", "to", "nth", "ms"],
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            // A kill's errors name the points it could have meant.
            let hint = if kind == "kill" {
                format!(" (points: {})", point_names())
            } else {
                String::new()
            };
            let mut kv: HashMap<&str, &str> = HashMap::new();
            for field in fields.split(',') {
                let (k, v) = field
                    .trim()
                    .split_once('=')
                    .ok_or_else(|| format!("fault field `{field}` is not `key=value`{hint}"))?;
                let k = k.trim();
                if !allowed.contains(&k) {
                    return Err(format!(
                        "fault action `{part}` has no field `{k}=`; it takes {}{hint}",
                        allowed.join("=, ") + "="
                    ));
                }
                kv.insert(k, v.trim());
            }
            let text = |k: &str| -> Result<&str, String> {
                kv.get(k)
                    .copied()
                    .ok_or_else(|| format!("fault action `{part}` is missing `{k}=`{hint}"))
            };
            let num = |k: &str| -> Result<u64, String> {
                text(k)?
                    .parse()
                    .map_err(|_| format!("fault field `{k}` of `{part}` is not a number{hint}"))
            };
            plan = match kind {
                "kill" => {
                    let name = text("at")?;
                    let point = Point::from_name(name)
                        .ok_or_else(|| format!("unknown fault point `{name}`{hint}"))?;
                    let n = num("n")?;
                    if n == 0 {
                        return Err(format!(
                            "fault action `{part}` needs `n=` of 1 or more{hint}"
                        ));
                    }
                    plan.kill_at(num("rank")? as Rank, point, n)
                }
                "drop" => plan.drop_nth(num("from")? as Rank, num("to")? as Rank, num("nth")?),
                _ => plan.delay_nth(
                    num("from")? as Rank,
                    num("to")? as Rank,
                    num("nth")?,
                    num("ms")?,
                ),
            };
        }
        Ok(plan)
    }
}

/// Panic payload used to unwind a killed rank's thread. Distinct from a
/// real panic: the world does **not** poison when a rank dies this way,
/// so surviving ranks keep running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKilled {
    /// The rank that was killed.
    pub rank: Rank,
}

/// Per-world runtime state compiled from a [`FaultPlan`].
pub(crate) struct FaultState {
    enabled: bool,
    /// Per rank, per point: the least scripted kill count, if any.
    kills: Vec<[Option<u64>; Point::ALL.len()]>,
    /// Per rank, per point: hits so far. Only the rank's own thread
    /// writes its row.
    hits: Vec<[AtomicU64; Point::ALL.len()]>,
    /// (from, to) → sorted list of 1-based indices to drop.
    drops: HashMap<(Rank, Rank), Vec<u64>>,
    /// (from, to) → (1-based index, delay ms).
    delays: HashMap<(Rank, Rank), Vec<(u64, u64)>>,
    /// Per-(from, to) send counters; only maintained when drops or delays
    /// are scripted.
    pair_sends: Mutex<HashMap<(Rank, Rank), u64>>,
    alive: Vec<AtomicBool>,
}

/// What `before_send` told the sender to do.
pub(crate) struct SendVerdict {
    pub deliver: bool,
    pub delay_ms: Option<u64>,
}

impl FaultState {
    pub(crate) fn new(size: usize, plan: &FaultPlan) -> Self {
        let mut kills = vec![[None; Point::ALL.len()]; size];
        let mut drops: HashMap<(Rank, Rank), Vec<u64>> = HashMap::new();
        let mut delays: HashMap<(Rank, Rank), Vec<(u64, u64)>> = HashMap::new();
        for action in plan.actions() {
            match *action {
                FaultAction::KillAt { rank, point, n } => {
                    // Kills aimed at out-of-range ranks are inert.
                    if let Some(row) = kills.get_mut(rank) {
                        let slot = &mut row[point.index()];
                        *slot = Some(slot.map_or(n, |prev: u64| prev.min(n)));
                    }
                }
                FaultAction::DropNth { from, to, nth } => {
                    drops.entry((from, to)).or_default().push(nth);
                }
                FaultAction::DelayNth {
                    from,
                    to,
                    nth,
                    millis,
                } => {
                    delays.entry((from, to)).or_default().push((nth, millis));
                }
            }
        }
        FaultState {
            enabled: !plan.is_empty(),
            kills,
            hits: (0..size)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            drops,
            delays,
            pair_sends: Mutex::new(HashMap::new()),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Whether `rank` has not been killed.
    pub(crate) fn is_alive(&self, rank: Rank) -> bool {
        !self.enabled || self.alive[rank].load(Ordering::SeqCst)
    }

    /// Whether `rank`'s hits of `point` have reached a scripted kill.
    pub(crate) fn due(&self, rank: Rank, point: Point) -> bool {
        self.enabled
            && self.kills[rank][point.index()]
                .is_some_and(|n| self.hits[rank][point.index()].load(Ordering::Relaxed) >= n)
    }

    /// Count one hit of `point` on `rank`; true when it is the fatal one.
    pub(crate) fn hit(&self, rank: Rank, point: Point) -> bool {
        if !self.enabled {
            return false;
        }
        self.hits[rank][point.index()].fetch_add(1, Ordering::Relaxed);
        self.due(rank, point)
    }

    /// Decide the fate of a send from `from` to `to`.
    pub(crate) fn before_send(&self, from: Rank, to: Rank) -> SendVerdict {
        let mut verdict = SendVerdict {
            deliver: true,
            delay_ms: None,
        };
        let pair = (from, to);
        if self.enabled && (self.drops.contains_key(&pair) || self.delays.contains_key(&pair)) {
            let mut counts = self.pair_sends.lock();
            let c = counts.entry(pair).or_insert(0);
            *c += 1;
            let nth = *c;
            if self.drops.get(&pair).is_some_and(|v| v.contains(&nth)) {
                verdict.deliver = false;
            }
            verdict.delay_ms = self
                .delays
                .get(&pair)
                .and_then(|v| v.iter().find(|(i, _)| *i == nth))
                .map(|d| d.1);
        }
        verdict
    }

    /// Mark `rank` dead and unwind its thread with [`RankKilled`].
    pub(crate) fn kill(&self, rank: Rank) -> ! {
        self.alive[rank].store(false, Ordering::SeqCst);
        std::panic::panic_any(RankKilled { rank });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_each_kind() {
        let plan = FaultPlan::parse(
            "kill:rank=2,at=send,n=5; kill:rank=3,at=client.task_received,n=7;\
             drop:from=0,to=1,nth=2; delay:from=1,to=0,nth=3,ms=10",
        )
        .unwrap();
        assert_eq!(
            plan.actions(),
            &[
                FaultAction::KillAt {
                    rank: 2,
                    point: Point::Send,
                    n: 5
                },
                FaultAction::KillAt {
                    rank: 3,
                    point: Point::TaskReceived,
                    n: 7
                },
                FaultAction::DropNth {
                    from: 0,
                    to: 1,
                    nth: 2
                },
                FaultAction::DelayNth {
                    from: 1,
                    to: 0,
                    nth: 3,
                    millis: 10
                },
            ]
        );
        for &point in Point::ALL {
            let spec = format!("kill:rank=1,at={},n=1", point.name());
            assert_eq!(
                FaultPlan::parse(&spec).unwrap().actions(),
                &[FaultAction::KillAt {
                    rank: 1,
                    point,
                    n: 1
                }],
                "{spec}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("drop:from=0,to=1").is_err());
        assert!(FaultPlan::parse("explode:rank=1").is_err());
        assert!(FaultPlan::parse("kill:rank=x,at=send,n=1").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        // Every malformed kill names the points it could have meant.
        for spec in [
            "kill:rank=1",
            "kill:rank=1,at=client.nap,n=1",
            "kill:rank=1,n=3",
            "kill:rank=1,at=send",
            "kill:rank=1,at=send,n=0",
            "kill:rank=1,sends=2",
            "kill:rank=1,recvs=3",
            "kill:rank=1,at=recv,n=1,recvs=3",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                Point::ALL.iter().all(|p| err.contains(p.name())),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn kill_counts_take_the_minimum() {
        let plan = FaultPlan::new()
            .kill_at(0, Point::Send, 9)
            .kill_at(0, Point::Send, 4);
        let state = FaultState::new(2, &plan);
        assert_eq!(state.kills[0][Point::Send.index()], Some(4));
        assert!((1..4).all(|_| !state.hit(0, Point::Send)));
        assert!(state.hit(0, Point::Send));
        assert!(!state.due(1, Point::Send));
    }

    #[test]
    fn out_of_range_kills_are_inert() {
        let plan = FaultPlan::new().kill_at(99, Point::Send, 1);
        let state = FaultState::new(2, &plan);
        assert!(state.is_alive(0));
        assert!(state.is_alive(1));
    }
}
