//! In-memory spans recorded around the calls into each layer, with the
//! layer's counters read at the same boundaries.
//!
//! A span keeps its name, start, end, parent and iteration. Spans are
//! only appended while a run is measured and written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One closed or open span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The call the span wraps, e.g. `Execution::record`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The timed iteration the span belongs to.
    pub iteration: u64,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created (equal to `start`
    /// while the span is open).
    pub end: f64,
    /// Counters read when the span closed.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Span {
    /// Wall time of the span in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }

    /// A counter read at the span's end (0 when it was not read).
    #[must_use]
    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }
}

/// A span recorder that may be shared with worker threads.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, iteration: u64) -> SpanId {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            iteration,
            start,
            end: start,
            counts: BTreeMap::new(),
        });
        spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Attaches counters read at a span's end. Reading them after
    /// [`Tracer::close`] keeps the reading out of the span's time.
    pub fn count(&self, id: SpanId, counts: &[(&'static str, f64)]) {
        self.lock()[id].counts.extend(counts.iter().copied());
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Seconds of `spans[id]` not covered by any of its direct children.
/// Children may overlap one another (parallel workers); the covered part
/// is the union of their intervals clipped to the parent.
#[must_use]
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = parent.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (parent.end - parent.start) - covered
}

/// Renders spans as a JSON document with each span's self time.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"iteration\": {}, \
             \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"counts\": {{",
            s.name,
            s.iteration,
            s.start,
            s.end,
            self_time(spans, id)
        );
        for (i, (k, v)) in s.counts.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            iteration: 0,
            start,
            end,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("farm", None, 0.0, 10.0),
            span("shard", Some(0), 1.0, 4.0),
            // Overlaps the first shard (a second worker): 3..6 adds 2.
            span("shard", Some(0), 3.0, 6.0),
            // Nested inside the first shard: covered already.
            span("shard", Some(0), 2.0, 3.0),
            // Runs past the parent's end: clipped to 8..10.
            span("shard", Some(0), 8.0, 12.0),
            // A grandchild does not count against the farm directly.
            span("exec", Some(1), 1.0, 4.0),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 0.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let spans = vec![span("leaf", None, 2.0, 2.5)];
        assert!((self_time(&spans, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let tr = Tracer::new();
        let outer = tr.open("iteration", None, 3);
        let inner = tr.open("Execution::run", Some(outer), 3);
        tr.close(inner);
        tr.count(inner, &[("ticks", 7.0)]);
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].iteration, 3);
        assert_eq!(spans[1].count("ticks"), 7.0);
        assert_eq!(spans[1].count("absent"), 0.0);
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
        let doc = to_json("w", 1, &spans);
        assert!(doc.contains("\"name\": \"Execution::run\", \"parent\": 0"));
    }
}
