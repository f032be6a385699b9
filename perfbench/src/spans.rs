//! The traced runs' span log: one span per timed call into a layer, with
//! its name, start, end and parent, kept in memory and written out as JSON
//! lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval.  `parent` is the index of the enclosing span in the
/// log (`None` for a root: a setup, a trial or a campaign pass).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call, e.g. `env.step_delta`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created; equal to `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An append-only in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` opened.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// The span `id`.
    pub fn span(&self, id: usize) -> Span {
        self.spans[id]
    }

    /// Total seconds of the direct children of `parent` named `name` —
    /// the layer's self time, since layer spans have no children.
    pub fn child_seconds(&self, parent: usize, name: &str) -> f64 {
        self.spans[parent..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of direct children of `parent` named `name` — the calls
    /// into that layer.
    pub fn child_count(&self, parent: usize, name: &str) -> usize {
        self.spans[parent..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .count()
    }

    /// The ids of the root spans named `name`, in order.
    pub fn roots<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent.is_none() && s.name == name)
            .map(|(id, _)| id)
    }

    /// Drops every recorded span; the clock keeps running.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the log as JSON lines: `{"id", "parent", "name", "start_ns",
    /// "end_ns"}`, `parent` null for roots.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
