//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a crate's
//! public functions: name, start, end, parent span and, for wire frames,
//! the frame id its spans share. Spans stay in memory and are written out
//! once, when the run ends. A span's self time is its duration minus the
//! part covered by its children.
//!
//! With tracing off the recorder drops every span, so the untraced run
//! pays one branch per call it would have spanned.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The wire frame this span belongs to; 0 when it belongs to none.
    pub frame: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True when the duration was measured by the program itself and read
    /// back through a public accessor, rather than timed around a call.
    pub from_program: bool,
}

/// Span sink shared by every thread of the run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Converts an instant taken during the run to run-relative ns.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// A fresh span id (ids are only ever compared, never ordered).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one span; returns its id so children can name it.
    pub fn record(&self, name: &'static str, parent: u64, frame: u64, start: u64, end: u64) -> u64 {
        self.push(name, parent, frame, start, end, false)
    }

    /// Records a span whose duration the program measured itself.
    pub fn record_from_program(
        &self,
        name: &'static str,
        parent: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        self.push(name, parent, 0, start, end, true)
    }

    fn push(
        &self,
        name: &'static str,
        parent: u64,
        frame: u64,
        start_ns: u64,
        end_ns: u64,
        from_program: bool,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.id();
        let span = Span { name, id, parent, frame, start_ns, end_ns, from_program };
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").push(span);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").clone()
    }
}

/// Per-name aggregate: count, total and self time in nanoseconds.
#[derive(Default, Debug, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, with self time = duration minus children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"frame\":{},\"start_ns\":{},\"end_ns\":{},\"from_program\":{}}}",
            s.name, s.id, s.parent, s.frame, s.start_ns, s.end_ns, s.from_program
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.record("build", 0, 0, 0, 100);
        t.record("graph.load", root, 0, 0, 30);
        t.record_from_program("core.pipeline", root, 30, 90);
        let agg = totals(&t.spans());
        assert_eq!(agg["build"].total_ns, 100);
        assert_eq!(agg["build"].self_ns, 10);
        assert_eq!(agg["graph.load"].self_ns, 30);
        assert_eq!(agg["core.pipeline"].count, 1);
    }

    #[test]
    fn an_untraced_run_keeps_no_spans() {
        let t = Tracer::new(false);
        assert_eq!(t.record("build", 0, 0, 0, 100), 0);
        assert!(t.spans().is_empty());
    }
}
