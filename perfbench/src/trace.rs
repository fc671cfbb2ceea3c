//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around each public call into a layer, kept in memory, and
//! written out as JSON lines when the run ends. A disabled tracer records
//! nothing and only runs the closure.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::arith::{self_time, Span};

/// Span recorder; `Sync`, so worker threads record into the same trace.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent recording (the tracing overhead).
    cost_ns: AtomicU64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn charge(&self, since: Instant) {
        self.cost_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let t = Instant::now();
        let start = self.now();
        let mut spans = self.spans.lock().expect("trace poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end: start,
        });
        drop(spans);
        self.charge(t);
        id
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id (as the parent for nested spans).
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.open(name, parent);
        let out = f(Some(id));
        let t = Instant::now();
        let end = self.now();
        self.spans.lock().expect("trace poisoned")[id].end = end;
        self.charge(t);
        out
    }

    /// Seconds spent recording spans so far: what tracing added to the
    /// traced run.
    pub fn overhead_s(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Records a zero-length event under `parent`.
    pub fn event(&self, name: &str, parent: Option<usize>) {
        if self.on {
            self.open(name, parent);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace poisoned").clone()
    }

    /// Writes the trace as JSON lines, one span each, with its self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start\": {}, \
                 \"end\": {}, \"self\": {}}}",
                s.id,
                s.name,
                s.start,
                s.end,
                self_time(&spans, s.id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let inner = t.span("outer", None, |root| {
            t.event("tick", root);
            t.span("inner", root, |id| id)
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].start, spans[1].end);
        assert_eq!(inner, Some(2));
        assert!(spans[0].end >= spans[2].end);
        assert!(t.overhead_s() > 0.0);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, |id| id), None);
        off.event("tick", None);
        assert!(off.spans().is_empty());
        assert_eq!(off.overhead_s(), 0.0);
    }
}
