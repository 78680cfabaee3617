//! In-memory spans recorded around the calls the benchmark makes into
//! each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), the id of the request it belongs to, and the name of
//! its parent span within that request. Spans are kept in memory while
//! the traced slices run and written out once at the end
//! ([`Tracer::write_tsv`]). A layer's self time is its span minus the
//! part of it that its children cover ([`self_times`]).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.submit`.
    pub name: &'static str,
    /// The request this span belongs to; spans of one request share it.
    /// 0 when the span ran where no request context is known (a router
    /// worker thread).
    pub id: u64,
    /// Name of the span, within the same request, that caused this one.
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Softmax scores the span processed (0 when it processed none).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Most spans of one name [`Tracer::write_tsv`] writes out.
pub const MAX_WRITTEN_PER_NAME: usize = 10_000;

thread_local! {
    /// The request (id, parent span name) that spans recorded on this
    /// thread without an explicit parent belong to.
    static CONTEXT: Cell<Option<(u64, &'static str)>> = const { Cell::new(None) };
}

/// Runs `f` with spans recorded on this thread through
/// [`Tracer::record_in_context`] attributed to request `id` under the
/// parent span `parent`.
pub fn with_context<R>(id: u64, parent: &'static str, f: impl FnOnce() -> R) -> R {
    let previous = CONTEXT.with(|c| c.replace(Some((id, parent))));
    let out = f();
    CONTEXT.with(|c| c.set(previous));
    out
}

/// Spans a tracer keeps in memory; later spans are dropped (a traced
/// attention call records about 1,500 kernel spans, so a traced run
/// would otherwise hold millions).
pub const SPAN_BUDGET: usize = 500_000;

/// A span recorder shared by every thread of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span, or drops it once [`SPAN_BUDGET`] spans
    /// are kept; either way it costs the caller the same lock and clock
    /// reads.
    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < SPAN_BUDGET {
            spans.push(span);
        }
    }

    /// Records a span that started at `start` and ends now, under this
    /// thread's [`with_context`] request (or none).
    pub fn record_in_context(&self, name: &'static str, start: u64, work: u64) {
        let end = self.now();
        let (id, parent) = match CONTEXT.with(Cell::get) {
            Some((id, parent)) => (id, Some(parent)),
            None => (0, None),
        };
        self.record(Span {
            name,
            id,
            parent,
            start,
            end,
            work,
        });
    }

    /// Every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes the spans as tab-separated text, one per line: at most
    /// [`MAX_WRITTEN_PER_NAME`] of each name (a traced attention run
    /// records about a million kernel pushes), then one `# omitted` line
    /// per name that had more. Metrics are computed from every span in
    /// memory, not from the file.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns\twork")?;
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &spans {
            let n = written.entry(s.name).or_default();
            *n += 1;
            if *n > MAX_WRITTEN_PER_NAME {
                continue;
            }
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.id,
                s.parent.unwrap_or("-"),
                s.start,
                s.end,
                s.work
            )?;
        }
        for (name, n) in written {
            if n > MAX_WRITTEN_PER_NAME {
                writeln!(out, "# omitted\t{name}\t{}", n - MAX_WRITTEN_PER_NAME)?;
            }
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (spans of the same request
/// whose parent is its name), clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let parents: HashSet<&str> = spans.iter().filter_map(|s| s.parent).collect();
    let index: HashMap<(u64, &str), usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| parents.contains(s.name))
        .map(|(i, s)| ((s.id, s.name), i))
        .collect();
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&(s.id, p))) {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = children.remove(&i).unwrap_or_default();
            s.dur() - covered(s.start, s.end, kids)
        })
        .collect()
}

/// Length of the union of `intervals` inside `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let a = a.max(reach);
        let b = b.min(end);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start,
            end,
            work: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("outer", None, 0, 100),
            // Overlapping children count once: [10, 40) covers 30.
            span("a", Some("outer"), 10, 30),
            span("b", Some("outer"), 20, 40),
            // A child running past the parent is clipped: [90, 100).
            span("c", Some("outer"), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 30]);
    }

    #[test]
    fn children_of_other_requests_and_parents_do_not_count() {
        let mut other = span("a", Some("outer"), 0, 50);
        other.id = 8;
        let spans = [
            span("outer", None, 0, 100),
            other,
            span("b", Some("elsewhere"), 0, 50),
            span("c", None, 0, 50),
        ];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn nested_self_times_partition_the_root() {
        let spans = [
            span("request", None, 0, 1000),
            span("submit", Some("request"), 100, 400),
            span("encode", Some("submit"), 150, 250),
            span("reply", Some("request"), 400, 900),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![200, 200, 100, 500]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur());
    }

    #[test]
    fn spans_past_the_budget_are_dropped() {
        let tracer = Tracer::new();
        for i in 0..SPAN_BUDGET + 3 {
            tracer.record(span("s", None, i as u64, i as u64 + 1));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), SPAN_BUDGET);
        assert_eq!(spans.last().map(|s| s.start), Some(SPAN_BUDGET as u64 - 1));
    }

    #[test]
    fn context_attributes_spans_and_restores() {
        let tracer = Tracer::new();
        with_context(3, "call", || {
            let t0 = tracer.now();
            tracer.record_in_context("core.push", t0, 64);
        });
        let t0 = tracer.now();
        tracer.record_in_context("core.batch", t0, 8);
        let spans = tracer.spans();
        assert_eq!((spans[0].id, spans[0].parent), (3, Some("call")));
        assert_eq!((spans[1].id, spans[1].parent), (0, None));
        assert_eq!(spans[0].work, 64);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
