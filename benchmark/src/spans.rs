//! The harness's own spans: benchmark → workload → generate / compile /
//! execute / oracle, and one per micro-bench. Held in memory and written
//! out when the benchmark ends; spans inside the program are a later
//! change, so these sit around the calls into each crate.

use std::time::Instant;

use crate::json::Json;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

pub struct Spans {
    t0: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            t0: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (out, secs)
    }

    /// `[{name, start_us, end_us, parent, workload}]`; `parent` is an
    /// index into the same array, or null for the root.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(&s.name)),
                        ("start_us", Json::Int(s.start_us)),
                        ("end_us", Json::Int(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("workload", Json::str(&self.workload)),
                    ])
                })
                .collect(),
        )
    }
}
