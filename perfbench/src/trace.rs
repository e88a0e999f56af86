//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and a request identifier shared by all
//! spans of one unit of work (a rotation, a training step, a job). Spans
//! stay in memory while the benchmark runs and are written out once, at
//! the end. A disabled tracer records nothing and never reads the clock.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; spans opened before it is ended become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"request":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}
