//! In-memory span recorder for the traced benchmark runs.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, parent span and run id. Spans and counters stay in memory while
//! the run executes and are written once, at the end, as JSON lines; the
//! self-time arithmetic happens over that file (`perfbench/stats.py`).
//!
//! Spans nest through a stack of open span ids, so a call made inside
//! another span's closure becomes its child. Every composition opens its
//! spans from one thread; the mutex only makes the recorder shareable with
//! the `'static` fused-source closure a streamed `Study` holds.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sequential id, unique within the run.
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `snapshot.decode`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// Shared span and counter recorder for one traced run.
#[derive(Clone)]
pub struct Tracer {
    run_id: Arc<str>,
    epoch: Instant,
    inner: Arc<Mutex<Inner>>,
}

impl Tracer {
    /// A recorder whose spans carry `run_id`.
    pub fn new(run_id: &str) -> Tracer {
        Tracer {
            run_id: Arc::from(run_id),
            epoch: Instant::now(),
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a traced call panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (id, parent) = {
            let mut inner = self.lock();
            let id = inner.next_id;
            inner.next_id += 1;
            let parent = inner.open.last().copied();
            inner.open.push(id);
            (id, parent)
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
        inner.spans.push(Span { id, parent, name, start_ns, end_ns });
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.lock().counters.entry(name).or_insert(0.0) += value;
    }

    /// Sets the counter `name` to `value`.
    pub fn set(&self, name: &'static str, value: f64) {
        self.lock().counters.insert(name, value);
    }

    /// The spans closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.lock().counters.clone()
    }

    /// Writes every span, then every counter, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &inner.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\":\"span\",\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &inner.counters {
            writeln!(
                out,
                "{{\"kind\":\"counter\",\"run\":\"{}\",\"name\":\"{name}\",\"value\":{}}}",
                self.run_id,
                json_number(*value)
            )?;
        }
        out.flush()
    }
}

/// A finite float as a JSON number (`null` for NaN and infinities).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_close_inner_first() {
        let t = Tracer::new("t");
        t.span("outer", || {
            t.span("inner", || ());
            t.span("sibling", || ());
        });
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "sibling", "outer"]);
        let outer = spans[2].id;
        assert_eq!(spans[0].parent, Some(outer));
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, None);
        assert!(spans[2].start_ns <= spans[0].start_ns && spans[1].end_ns <= spans[2].end_ns);
    }

    #[test]
    fn jsonl_has_one_line_per_span_and_counter() {
        let t = Tracer::new("run-1");
        t.span("a", || ());
        t.add("rows", 3.0);
        t.add("rows", 2.0);
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"a\"") && lines[0].contains("\"run\":\"run-1\""));
        assert!(lines[1].contains("\"value\":5.0"));
    }
}
