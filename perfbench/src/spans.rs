//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it; all
//! spans of one benchmark process share a run id. Spans are recorded
//! from the benchmark's own code around its calls into each layer, kept
//! in memory, and written out as JSON lines when the run ends. With
//! tracing off, [`Tracer::begin`]/[`Tracer::end`] only read the clock.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span id meaning "no parent".
pub const ROOT: u64 = 0;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
    end: Instant,
}

/// A span that has begun but not ended.
pub struct Open {
    /// The span's id, for use as a child's parent ([`ROOT`] when off).
    pub id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

/// Collects spans of one run.
pub struct Tracer {
    on: bool,
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, run_id: String) -> Self {
        Tracer {
            on,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn fresh_id(&self) -> u64 {
        if self.on {
            // Only uniqueness matters; the span list's mutex orders the
            // records themselves.
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Starts a span under `parent`.
    pub fn begin(&self, name: &str, parent: u64) -> Open {
        let name = if self.on { name.to_string() } else { String::new() };
        Open { id: self.fresh_id(), parent, name, start: Instant::now() }
    }

    /// Ends `open`, records it, and returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        if self.on {
            self.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start: open.start,
                end,
            });
        }
        end - open.start
    }

    /// Records a span whose bounds were taken elsewhere (for example a
    /// query timed from its due time to its reply).
    pub fn record(&self, name: &str, parent: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.fresh_id();
            self.push(Span { id, parent, name: name.to_string(), start, end });
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name, parent);
        let value = f();
        (value, self.end(open))
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list mutex poisoned").push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list mutex poisoned").len()
    }

    /// Writes every span as one JSON object per line: `run`, `id`,
    /// `parent` (null for a root span), `name`, `start_ns` and `end_ns`
    /// (nanoseconds since the tracer was created).
    ///
    /// # Errors
    ///
    /// When the directory or file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list mutex poisoned");
        let mut text = String::with_capacity(spans.len() * 96);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        for s in spans.iter() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                text,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id,
                s.id,
                s.name,
                ns(s.start),
                ns(s.end)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let t = Tracer::new(false, "r".into());
        let (v, d) = t.time("x", ROOT, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert_eq!(t.len(), 0);
        assert_eq!(t.begin("y", ROOT).id, ROOT);
    }

    #[test]
    fn children_name_their_parent() {
        let t = Tracer::new(true, "r".into());
        let outer = t.begin("outer", ROOT);
        let parent = outer.id;
        t.time("inner", parent, || ());
        t.end(outer);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[1].parent, ROOT);
    }
}
