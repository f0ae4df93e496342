//! Per-rank task-lifecycle tracing.
//!
//! The paper's Turbine/ADLB stack was tuned with MPE-style event logs; this
//! module is the reproduction's equivalent. Each rank owns a [`Recorder`]
//! with its **own monotonic clock** (an `Instant` captured on the rank's
//! thread at spawn — simulating per-node clocks that need not agree) plus a
//! recorded offset to the world launch instant. Merging applies the offset,
//! so merged traces are aligned exactly and span durations — both endpoints
//! stamped by the same rank clock — can never come out negative or inverted.
//!
//! Recording is allocation-light: events are fixed-size `Copy` structs
//! pushed onto a pre-grown vector. When no recorder is installed on the
//! current thread, [`now_us`] and [`record`] are no-ops (one thread-local
//! read), so disabled runs pay nothing measurable. Installation is
//! **thread-local**, not global, because many simulated worlds run
//! concurrently in one test process and tracing must not leak between them.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::Rank;

/// Client put (the awaited flush of an outbox that carries puts).
pub const KIND_TASK_PUT: u8 = 0;
/// Server-side queue wait: task accepted → handed to a worker.
pub const KIND_TASK_QUEUE: u8 = 1;
/// Server-side task latency: task accepted → done/ack released the lease.
pub const KIND_TASK_LATENCY: u8 = 2;
/// Worker leaf-task evaluation. One span per successfully executed task.
pub const KIND_TASK_EVAL: u8 = 3;
/// Engine rule firing. One span per `rules_fired`.
pub const KIND_RULE_FIRE: u8 = 4;
/// Client data-store operation round-trip.
pub const KIND_DATA_OP: u8 = 5;
/// Server steal round-trip: request sent → response absorbed.
pub const KIND_STEAL: u8 = 6;
/// Re-replication sync stream: first chunk sent → final ack retired it.
pub const KIND_REPL_SYNC: u8 = 7;
/// Failover promotion (instant). One per `failovers`.
pub const KIND_FAILOVER: u8 = 8;
/// Failover recovery window: death confirmed → replication factor restored.
pub const KIND_FAILOVER_RECOVERY: u8 = 9;
/// Checkpoint WAL flush / segment write to the parallel file system.
pub const KIND_CKPT_FLUSH: u8 = 10;
/// Shard restore from a durable checkpoint (failover or `--resume`).
pub const KIND_CKPT_RESTORE: u8 = 11;

/// Human-readable name for a span kind (Chrome trace event name).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_TASK_PUT => "task_put",
        KIND_TASK_QUEUE => "task_queue",
        KIND_TASK_LATENCY => "task_latency",
        KIND_TASK_EVAL => "task_eval",
        KIND_RULE_FIRE => "rule_fire",
        KIND_DATA_OP => "data_op",
        KIND_STEAL => "steal",
        KIND_REPL_SYNC => "repl_sync",
        KIND_FAILOVER => "failover",
        KIND_FAILOVER_RECOVERY => "failover_recovery",
        KIND_CKPT_FLUSH => "ckpt_flush",
        KIND_CKPT_RESTORE => "ckpt_restore",
        _ => "unknown",
    }
}

/// One recorded span, timestamps in microseconds on the recording rank's
/// own clock. Fixed-size and `Copy` so recording never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Correlation id (task seq, rule id, victim rank, ... — kind-specific).
    pub id: u64,
    /// Span start, µs since the recording rank's epoch.
    pub start_us: u64,
    /// Span end, µs since the recording rank's epoch (== start for instants).
    pub end_us: u64,
}

/// Per-rank event recorder with its own monotonic clock.
pub struct Recorder {
    /// This rank's clock epoch, captured on the rank's thread at spawn.
    epoch: Instant,
    /// µs between the world's launch instant and this rank's epoch;
    /// added back at merge time to align ranks on one timeline.
    offset_us: u64,
    /// Recorded events. One writer (the rank thread) in practice; the
    /// mutex only matters at drain time, so it is uncontended.
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// Create a recorder whose epoch is *now* on the calling thread, with
    /// the given offset from the world launch instant.
    pub fn new(offset_us: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            offset_us,
            events: Mutex::new(Vec::with_capacity(1024)),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn record(&self, ev: TraceEvent) {
        if let Ok(mut v) = self.events.lock() {
            v.push(ev);
        }
    }

    /// Drain all recorded events into a [`RankTrace`].
    pub fn drain(&self, rank: Rank) -> RankTrace {
        let events = self
            .events
            .lock()
            .map(|mut v| std::mem::take(&mut *v))
            .unwrap_or_default();
        RankTrace {
            rank,
            offset_us: self.offset_us,
            events,
        }
    }
}

/// All events one rank recorded, plus the clock offset that aligns them to
/// the world timeline (`world_ts = event_ts + offset_us`).
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: Rank,
    /// µs from world launch to this rank's clock epoch.
    pub offset_us: u64,
    /// Events, in record order, on the rank's own clock.
    pub events: Vec<TraceEvent>,
}

thread_local! {
    static RECORDER: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Install `rec` as the current thread's recorder. Called by the world
/// launcher on each rank thread when tracing is enabled.
pub fn install(rec: Arc<Recorder>) {
    RECORDER.with(|r| *r.borrow_mut() = Some(rec));
}

/// Remove the current thread's recorder (rank teardown).
pub fn uninstall() {
    RECORDER.with(|r| *r.borrow_mut() = None);
}

/// Whether the current thread is recording.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Current time in µs on this rank's clock, or 0 when tracing is disabled.
/// Use the returned stamp only to build spans fed back to [`record`].
pub fn now_us() -> u64 {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.now_us()))
}

/// Record a span `[start_us, end_us]` of `kind`. No-op when disabled.
pub fn record(kind: u8, id: u64, start_us: u64, end_us: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.record(TraceEvent {
                kind,
                id,
                start_us,
                end_us,
            });
        }
    });
}

/// Record an instantaneous event of `kind` at the current time.
pub fn record_instant(kind: u8, id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            let t = rec.now_us();
            rec.record(TraceEvent {
                kind,
                id,
                start_us: t,
                end_us: t,
            });
        }
    });
}

/// Record a span of `kind` that started at `start_us` and ends now.
/// No-op when disabled (callers stamp `start_us` with [`now_us`], which
/// returns 0 when disabled, so a recorder appearing mid-span is harmless:
/// recording is gated on *this* call, made by the same thread).
pub fn record_since(kind: u8, id: u64, start_us: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            let t = rec.now_us();
            rec.record(TraceEvent {
                kind,
                id,
                start_us: start_us.min(t),
                end_us: t,
            });
        }
    });
}

/// Count events of `kind` across merged traces (test-oracle helper).
pub fn count_kind(traces: &[RankTrace], kind: u8) -> u64 {
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == kind)
        .count() as u64
}

/// Durations (µs) of every span of `kind` across merged traces.
pub fn durations_of(traces: &[RankTrace], kind: u8) -> Vec<u64> {
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == kind)
        .map(|e| e.end_us - e.start_us)
        .collect()
}

/// Exact latency percentiles over a set of span durations, computed by the
/// nearest-rank method on the full sorted sample (the merged trace holds
/// every duration, so there is no need for lossy histogram buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of spans.
    pub count: u64,
    /// Median duration, µs.
    pub p50_us: u64,
    /// 95th-percentile duration, µs.
    pub p95_us: u64,
    /// 99th-percentile duration, µs.
    pub p99_us: u64,
    /// Maximum duration, µs.
    pub max_us: u64,
}

impl LatencyStats {
    /// Compute stats from a sample of durations; `None` when empty.
    pub fn from_durations(mut durations: Vec<u64>) -> Option<LatencyStats> {
        if durations.is_empty() {
            return None;
        }
        durations.sort_unstable();
        let n = durations.len();
        let pick = |p: usize| durations[((p * n).div_ceil(100)).clamp(1, n) - 1];
        Some(LatencyStats {
            count: n as u64,
            p50_us: pick(50),
            p95_us: pick(95),
            p99_us: pick(99),
            max_us: durations[n - 1],
        })
    }
}

/// Write merged traces as Chrome trace-event JSON (load with
/// `chrome://tracing` or <https://ui.perfetto.dev>). `role_names[rank]`
/// labels each rank's timeline; pass fewer names than ranks and the rest
/// fall back to `rank N`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    traces: &[RankTrace],
    role_names: &[String],
) -> io::Result<()> {
    let f = File::create(path)?;
    let mut w = BufWriter::new(f);
    write!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |w: &mut BufWriter<File>| -> io::Result<()> {
        if first {
            first = false;
        } else {
            write!(w, ",")?;
        }
        Ok(())
    };
    for t in traces {
        let name = role_names
            .get(t.rank)
            .cloned()
            .unwrap_or_else(|| format!("rank {}", t.rank));
        sep(&mut w)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.rank,
            escape(&name)
        )?;
    }
    for t in traces {
        for e in &t.events {
            let ts = e.start_us + t.offset_us;
            sep(&mut w)?;
            if e.start_us == e.end_us {
                write!(
                    w,
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\
                     \"ts\":{},\"s\":\"t\",\"args\":{{\"id\":{}}}}}",
                    t.rank,
                    kind_name(e.kind),
                    ts,
                    e.id
                )?;
            } else {
                write!(
                    w,
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"swiftt\",\"ts\":{},\"dur\":{},\"args\":{{\"id\":{}}}}}",
                    t.rank,
                    kind_name(e.kind),
                    ts,
                    e.end_us - e.start_us,
                    e.id
                )?;
            }
        }
    }
    writeln!(w, "]}}")?;
    w.flush()
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_a_no_op() {
        uninstall();
        assert!(!enabled());
        assert_eq!(now_us(), 0);
        record(KIND_TASK_EVAL, 1, 0, 5); // must not panic
    }

    #[test]
    fn install_record_drain() {
        let rec = Arc::new(Recorder::new(7));
        install(rec.clone());
        assert!(enabled());
        let t0 = now_us();
        record_since(KIND_TASK_EVAL, 42, t0);
        record_instant(KIND_FAILOVER, 3);
        uninstall();
        let trace = rec.drain(5);
        assert_eq!(trace.rank, 5);
        assert_eq!(trace.offset_us, 7);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, KIND_TASK_EVAL);
        assert_eq!(trace.events[0].id, 42);
        assert!(trace.events[0].end_us >= trace.events[0].start_us);
        assert_eq!(trace.events[1].start_us, trace.events[1].end_us);
    }

    #[test]
    fn recorder_does_not_leak_across_threads() {
        let rec = Arc::new(Recorder::new(0));
        install(rec.clone());
        std::thread::spawn(|| {
            assert!(!enabled());
            record(KIND_TASK_EVAL, 1, 0, 1);
        })
        .join()
        .unwrap();
        uninstall();
        assert!(rec.drain(0).events.is_empty());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = LatencyStats::from_durations((1..=100).collect()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        let one = LatencyStats::from_durations(vec![7]).unwrap();
        assert_eq!(
            (one.p50_us, one.p95_us, one.p99_us, one.max_us),
            (7, 7, 7, 7)
        );
        assert!(LatencyStats::from_durations(vec![]).is_none());
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let traces = vec![RankTrace {
            rank: 0,
            offset_us: 10,
            events: vec![
                TraceEvent {
                    kind: KIND_TASK_EVAL,
                    id: 1,
                    start_us: 5,
                    end_us: 9,
                },
                TraceEvent {
                    kind: KIND_FAILOVER,
                    id: 2,
                    start_us: 11,
                    end_us: 11,
                },
            ],
        }];
        let dir = std::env::temp_dir().join(format!("mpisim-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_chrome_trace(&path, &traces, &[String::from("rank 0 (worker)")]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"ts\":15")); // 5 + offset 10
        assert!(body.contains("\"dur\":4"));
        assert!(body.contains("\"ph\":\"i\""));
        assert!(body.contains("rank 0 (worker)"));
        assert!(body.trim_end().ends_with("]}"));
        // Balanced braces ⇒ structurally sound JSON for this writer.
        let opens = body.matches('{').count();
        let closes = body.matches('}').count();
        assert_eq!(opens, closes);
    }
}
