//! World launch: run `n` ranks as scoped OS threads sharing mailboxes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::comm::Comm;
use crate::fault::{FaultPlan, FaultState, RankKilled};
use crate::mailbox::Mailbox;
use crate::trace::{self, RankTrace, Recorder};
use crate::Rank;

/// Aggregate traffic counters for a finished world, used by the benchmark
/// harness to report message volumes alongside wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Total point-to-point messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

pub(crate) struct Shared {
    pub mailboxes: Vec<Mailbox>,
    pub msg_count: AtomicU64,
    pub byte_count: AtomicU64,
    pub poisoned: AtomicBool,
    pub faults: FaultState,
}

impl Shared {
    fn new(size: usize, plan: &FaultPlan) -> Self {
        Shared {
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            msg_count: AtomicU64::new(0),
            byte_count: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            faults: FaultState::new(size, plan),
        }
    }

    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.poison();
        }
    }
}

/// Result of a world run that may have had ranks killed by fault
/// injection.
#[derive(Debug)]
pub struct FaultyOutcome<T> {
    /// Per-rank results; `None` for ranks killed by the fault plan.
    pub outputs: Vec<Option<T>>,
    /// Traffic counters (dropped messages are not counted).
    pub stats: WorldStats,
    /// Ranks that were killed, in rank order.
    pub killed: Vec<Rank>,
    /// Per-rank lifecycle traces, indexed by rank. Empty unless the run
    /// was launched with [`World::run_faulty_traced`] and tracing on.
    /// Killed ranks' partial traces are included: the world holds the
    /// recorders, so events survive the rank's unwind.
    pub traces: Vec<RankTrace>,
}

/// Entry point for launching a simulated MPI job.
pub struct World;

impl World {
    /// Run `size` ranks, each executing `body` on its own OS thread, and
    /// return the per-rank results indexed by rank.
    ///
    /// If any rank panics, the world is poisoned (waking blocked receivers)
    /// and the panic is propagated to the caller with the rank attached.
    pub fn run<T, F>(size: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        Self::run_with_stats(size, body).0
    }

    /// Like [`World::run`] but also returns traffic counters.
    ///
    /// # Panics
    /// Panics if a rank produced no result — impossible without a
    /// [`FaultPlan`], and this fault-free entry point runs without one.
    #[allow(clippy::expect_used)] // fault-free runs kill no ranks
    pub fn run_with_stats<T, F>(size: usize, body: F) -> (Vec<T>, WorldStats)
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        let outcome = Self::run_faulty(size, &FaultPlan::new(), body);
        (
            outcome
                .outputs
                .into_iter()
                .map(|s| s.expect("rank produced no result"))
                .collect(),
            outcome.stats,
        )
    }

    /// Run `size` ranks under a [`FaultPlan`]. Ranks killed by the plan
    /// unwind quietly at their scripted kill point: the world is *not*
    /// poisoned, surviving ranks keep running, and the killed rank's slot
    /// in `outputs` is `None`.
    ///
    /// A real (non-injected) panic on any rank still poisons the world
    /// and propagates, exactly as in [`World::run`].
    pub fn run_faulty<T, F>(size: usize, plan: &FaultPlan, body: F) -> FaultyOutcome<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        Self::run_faulty_traced(size, plan, false, body)
    }

    /// Like [`World::run_faulty`], with optional lifecycle tracing. When
    /// `tracing` is true, each rank thread gets a [`Recorder`] with its own
    /// clock epoch (captured on that thread — the per-rank monotonic clock)
    /// plus the offset from the world launch instant; the world keeps a
    /// handle to every recorder, so killed ranks' partial traces survive
    /// their unwind and land in [`FaultyOutcome::traces`] too.
    pub fn run_faulty_traced<T, F>(
        size: usize,
        plan: &FaultPlan,
        tracing: bool,
        body: F,
    ) -> FaultyOutcome<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(size > 0, "world size must be at least 1");
        silence_injected_kills();
        let shared = Arc::new(Shared::new(size, plan));
        let body = &body;
        let world_epoch = std::time::Instant::now();
        let recorders: Vec<std::sync::Mutex<Option<Arc<Recorder>>>> =
            (0..size).map(|_| std::sync::Mutex::new(None)).collect();
        let recorders = &recorders;

        let (outputs, killed) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        if tracing {
                            let offset = world_epoch.elapsed().as_micros() as u64;
                            let rec = Arc::new(Recorder::new(offset));
                            if let Ok(mut slot) = recorders[rank].lock() {
                                *slot = Some(Arc::clone(&rec));
                            }
                            trace::install(rec);
                        }
                        let comm = Comm::new(rank as Rank, shared.clone());
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm)));
                        trace::uninstall();
                        // An injected kill is an orderly fail-stop: the
                        // rest of the world keeps running. Anything else
                        // is a real failure that must tear the world down.
                        if let Err(p) = &out {
                            if !p.is::<RankKilled>() {
                                shared.poison();
                            }
                        }
                        (rank, out)
                    })
                })
                .collect();

            let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
            let mut killed: Vec<Rank> = Vec::new();
            // Prefer reporting the root-cause panic over the secondary
            // "recv on poisoned world" panics it induces in other ranks.
            let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
            let is_secondary = |p: &Box<dyn std::any::Any + Send>| {
                p.downcast_ref::<String>()
                    .map(|s| s.contains("poisoned world"))
                    .or_else(|| {
                        p.downcast_ref::<&str>()
                            .map(|s| s.contains("poisoned world"))
                    })
                    .unwrap_or(false)
            };
            for h in handles {
                match h.join() {
                    Ok((rank, Ok(v))) => slots[rank] = Some(v),
                    Ok((rank, Err(p))) if p.is::<RankKilled>() => killed.push(rank),
                    Ok((rank, Err(p))) => {
                        let secondary = is_secondary(&p);
                        match &first_panic {
                            None => first_panic = Some((rank, p)),
                            Some((_, prev)) if is_secondary(prev) && !secondary => {
                                first_panic = Some((rank, p));
                            }
                            _ => {}
                        }
                    }
                    Err(p) => {
                        if first_panic.is_none() {
                            first_panic = Some((usize::MAX, p));
                        }
                    }
                }
            }
            if let Some((rank, p)) = first_panic {
                eprintln!("mpisim: rank {rank} panicked; propagating");
                std::panic::resume_unwind(p);
            }
            killed.sort_unstable();
            (slots, killed)
        });

        let stats = WorldStats {
            messages: shared.msg_count.load(Ordering::Relaxed),
            bytes: shared.byte_count.load(Ordering::Relaxed),
        };
        let traces = if tracing {
            recorders
                .iter()
                .enumerate()
                .map(|(rank, slot)| {
                    slot.lock()
                        .ok()
                        .and_then(|mut s| s.take())
                        .map(|rec| rec.drain(rank))
                        .unwrap_or(RankTrace {
                            rank,
                            offset_us: 0,
                            events: Vec::new(),
                        })
                })
                .collect()
        } else {
            Vec::new()
        };
        FaultyOutcome {
            outputs,
            stats,
            killed,
            traces,
        }
    }
}

/// Keep scripted [`RankKilled`] unwinds out of stderr: they are orderly
/// fail-stops, not bugs, and the default panic hook's backtrace for them
/// drowns the output of fault-injection runs. Installed once, process
/// wide; every other panic still reaches the previous hook.
fn silence_injected_kills() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<RankKilled>() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point, Src, TagSel};

    #[test]
    fn results_are_indexed_by_rank() {
        let out = World::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (_, stats) = World::run_with_stats(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![0u8; 100]);
            } else {
                comm.recv(Src::Of(0), TagSel::Of(3));
            }
        });
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 100);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        World::run(3, |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
            // Other ranks block forever; poisoning must wake them so the
            // world tears down instead of hanging.
            let _ = comm.recv(Src::Any, TagSel::Any);
        });
    }

    #[test]
    fn killed_rank_does_not_poison_survivors() {
        // Rank 1 is killed after its first send; ranks 0 and 2 still
        // complete their own exchange.
        let plan = FaultPlan::new().kill_at(1, Point::Send, 1);
        let outcome = World::run_faulty(3, &plan, |comm| {
            match comm.rank() {
                0 => {
                    // Expect rank 1's single (pre-kill) message plus 2's.
                    let a = comm.recv(Src::Of(1), TagSel::Of(9));
                    let b = comm.recv(Src::Of(2), TagSel::Of(9));
                    (a.data.len() + b.data.len()) as u64
                }
                1 => {
                    comm.send(0, 9, vec![1u8; 3]);
                    // Never reached: the kill fires inside the send above.
                    comm.send(0, 9, vec![1u8; 100]);
                    0
                }
                _ => {
                    comm.send(0, 9, vec![2u8; 5]);
                    comm.rank() as u64
                }
            }
        });
        assert_eq!(outcome.killed, vec![1]);
        assert!(outcome.outputs[1].is_none());
        assert_eq!(outcome.outputs[0], Some(8));
        assert_eq!(outcome.outputs[2], Some(2));
    }

    #[test]
    fn a_recv_kill_fires_on_the_next_recv_entry() {
        // Rank 1 may complete exactly 2 receives; its third receive call
        // kills it without consuming anything.
        let plan = FaultPlan::new().kill_at(1, Point::Recv, 2);
        let outcome = World::run_faulty(2, &plan, |comm| {
            if comm.rank() == 0 {
                for _ in 0..3 {
                    comm.send(1, 4, vec![0u8; 1]);
                }
                0u64
            } else {
                loop {
                    comm.recv(Src::Of(0), TagSel::Of(4));
                }
            }
        });
        assert_eq!(outcome.killed, vec![1]);
        assert!(outcome.outputs[1].is_none());
    }

    #[test]
    fn dropped_message_never_arrives() {
        let plan = FaultPlan::new().drop_nth(0, 1, 2);
        let outcome = World::run_faulty(2, &plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1u8]);
                comm.send(1, 5, vec![2u8]); // dropped
                comm.send(1, 5, vec![3u8]);
                0
            } else {
                let a = comm.recv(Src::Of(0), TagSel::Of(5)).data[0];
                let b = comm.recv(Src::Of(0), TagSel::Of(5)).data[0];
                (a as i32) * 10 + b as i32
            }
        });
        assert!(outcome.killed.is_empty());
        assert_eq!(outcome.outputs[1], Some(13));
        // The dropped message is not counted in traffic stats.
        assert_eq!(outcome.stats.messages, 2);
    }

    #[test]
    fn sends_to_dead_ranks_are_dropped() {
        // Rank 1 dies right after its one send; rank 0's send to it must
        // not block or panic, and the world must still terminate.
        let plan = FaultPlan::new().kill_at(1, Point::Send, 1);
        let outcome = World::run_faulty(2, &plan, |comm| {
            if comm.rank() == 0 {
                comm.recv(Src::Of(1), TagSel::Any);
                // Give rank 1 a moment to finish dying so the send below
                // hits a dead destination.
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(1, 6, vec![0u8; 8]);
                assert!(!comm.is_alive(1));
                7
            } else {
                comm.send(0, 6, vec![0u8; 1]);
                comm.recv(Src::Any, TagSel::Any);
                0
            }
        });
        assert_eq!(outcome.killed, vec![1]);
        assert_eq!(outcome.outputs[0], Some(7));
    }

    #[test]
    fn a_named_point_kills_at_its_nth_hit_in_program_order() {
        // Rank 1 hits the point between sends: its second hit is fatal,
        // so exactly two messages reach rank 0, whatever else it sent.
        let plan = FaultPlan::new().kill_at(1, Point::TaskReceived, 2);
        let outcome = World::run_faulty(2, &plan, |comm| {
            if comm.rank() == 0 {
                let a = comm.recv(Src::Of(1), TagSel::Of(1)).data[0];
                let b = comm.recv(Src::Of(1), TagSel::Of(1)).data[0];
                return Some(a * 10 + b);
            }
            for i in 1..=3u8 {
                comm.send(0, 2, vec![0u8]);
                comm.send(0, 1, vec![i]);
                // Other points do not count toward this one.
                comm.fault_point(Point::AckSent);
                comm.fault_point(Point::TaskReceived);
            }
            None
        });
        assert_eq!(outcome.killed, vec![1]);
        assert_eq!(outcome.outputs[0], Some(Some(12)));
    }

    #[test]
    fn empty_plan_behaves_like_run() {
        let outcome = World::run_faulty(4, &FaultPlan::new(), |comm| comm.rank());
        assert!(outcome.killed.is_empty());
        assert_eq!(outcome.outputs, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert!(outcome.traces.is_empty());
    }

    #[test]
    fn traced_run_keeps_killed_rank_events() {
        use crate::trace::{self, KIND_TASK_EVAL};
        // Rank 1 records a span, then dies inside its first send. The
        // world holds the recorder, so the pre-kill span must survive.
        let plan = FaultPlan::new().kill_at(1, Point::Send, 1);
        let outcome = World::run_faulty_traced(2, &plan, true, |comm| {
            if comm.rank() == 1 {
                let t0 = trace::now_us();
                trace::record_since(KIND_TASK_EVAL, 7, t0);
                comm.send(0, 9, vec![0u8; 1]);
                comm.send(0, 9, vec![0u8; 1]); // never reached
            } else {
                comm.recv(Src::Of(1), TagSel::Of(9));
            }
            comm.rank()
        });
        assert_eq!(outcome.killed, vec![1]);
        assert_eq!(outcome.traces.len(), 2);
        let dead = &outcome.traces[1];
        assert_eq!(dead.rank, 1);
        assert_eq!(dead.events.len(), 1);
        assert_eq!(dead.events[0].kind, KIND_TASK_EVAL);
        assert_eq!(dead.events[0].id, 7);
        // Aligned timestamps are monotone on the shared timeline.
        assert!(dead.events[0].end_us >= dead.events[0].start_us);
    }
}
