//! In-memory span recording around the benchmark's calls into the
//! simulator, and per-layer self time derived from the spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One timed call: name, start and end in nanoseconds since the
/// recorder's epoch, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span identifier, unique within the recorder.
    pub id: SpanId,
    /// Layer boundary the span times, e.g. `os.run`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The workload cell the span belongs to, on `runner.cell` spans.
    pub cell: Option<usize>,
}

/// Collects spans in memory. A disabled recorder only runs the closures,
/// so the untimed drives (the cycle-accurate check) share the code path.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record(name, parent, None, f)
    }

    /// A `runner.cell` span for workload cell `cell`.
    pub fn cell_span<R>(
        &self,
        cell: usize,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record("runner.cell", parent, Some(cell), f)
    }

    fn record<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<usize>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(Span {
                id,
                name,
                parent,
                start_ns,
                end_ns,
                cell,
            });
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Total self time per span name, in nanoseconds: each span's duration
/// minus the part of it that its children cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children
            .get_mut(&s.id)
            .map(|v| v.as_mut_slice())
            .unwrap_or(&mut []);
        let own = (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Total duration per span name, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// The spans as JSON lines, for writing out when the run ends.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"cell\":{}}}\n",
            s.id,
            s.name,
            null(s.parent),
            s.start_ns,
            s.end_ns,
            null(s.cell.map(|c| c as u64))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, parent: Option<SpanId>, s: u64, e: u64) -> Span {
        Span {
            id,
            name,
            parent,
            start_ns: s,
            end_ns: e,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 10..70 of 0..100.
        let spans = [
            span(1, "pass", None, 0, 100),
            span(2, "cell", Some(1), 10, 50),
            span(3, "cell", Some(1), 30, 70),
            span(4, "run", Some(2), 20, 40),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["pass"], 40);
        assert_eq!(t["cell"], 40 - 20 + 40);
        assert_eq!(t["run"], 20);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::disabled();
        assert_eq!(r.span("x", None, |_| 7), 7);
        assert!(r.take().is_empty());
    }
}
