//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end and the span open on the same
//! thread when it began (its parent). Spans stay in memory until the run
//! ends, then go to a file; the per-layer table is computed from them.
//! The library itself carries no spans.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A span recorder. A disabled tracer runs the closures and records
/// nothing, which is what untraced runs use.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_if(true, name, f)
    }

    /// Runs `f`, recording a span only when `record` is set: the main
    /// loops alternate, so traced and untraced iterations of one run give
    /// the tracing overhead.
    pub fn span_if<R>(&self, record: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !(self.enabled && record) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Median duration of the spans named `name`, seconds (0 when none).
    pub fn median_s(&self, name: &str) -> f64 {
        stats::median(&self.durations(name)).unwrap_or(0.0)
    }

    /// The spans as a JSON array, in completion order.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || ());
            t.span_if(false, "skipped", || ());
        });
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 4), 4);
        assert!(t.durations("x").is_empty());
        assert_eq!(t.median_s("x"), 0.0);
    }
}
