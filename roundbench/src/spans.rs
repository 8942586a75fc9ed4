//! In-memory span tree with self time.
//!
//! The layer probe records one span per call into a layer function:
//! name, start, end and the span that caused it. Spans stay in memory
//! while the traced run measures and are written once, as JSONL, when it
//! ends. A span's *self time* is its duration minus the part of its
//! interval that its children cover; children may overlap each other (or
//! poke outside their parent), so the covered part is the length of the
//! union of the children's intervals clipped to the parent.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gossip.batch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanRecorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Total self time per span name, in seconds, in first-seen order.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        let secs = t as f64 * 1e-9;
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(entry) => entry.1 += secs,
            None => out.push((s.name, secs)),
        }
    }
    out
}

/// Total wall time per span name, in seconds.
pub fn wall_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .fold(0.0, |a, b| a + b)
}

/// One JSON line per span of round `round`: id, parent, name, start,
/// end and self time.
pub fn to_jsonl(spans: &[Span], round: usize) -> String {
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"round\":{round},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // root [0,100): children [10,40) and [30,60) overlap on [30,40),
        // so they cover 50 ns, not 60. A grandchild inside the first
        // child reduces only that child's self time.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 15, 25, Some(1)),
            // Sticks out past its parent: only [90,100) is covered.
            span("d", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 40]);
    }

    #[test]
    fn nested_and_disjoint_children_sum_to_the_parent() {
        let spans = vec![
            span("root", 0, 50, None),
            span("x", 0, 20, Some(0)),
            span("x", 20, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 20, 30]);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name.len(), 2);
        assert!((by_name[1].1 - 50e-9).abs() < 1e-15);
        assert!((wall_seconds(&spans, "x") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_writes_one_line_per_span() {
        let mut rec = SpanRecorder::new();
        let root = rec.open("root", None);
        rec.time("child", Some(root), || std::hint::black_box(1 + 1));
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = to_jsonl(spans, 3);
        assert_eq!(text.lines().count(), 2);
        let line = text.lines().nth(1).unwrap();
        assert!(line.starts_with("{\"round\":3,\"id\":1,\"parent\":0,\"name\":\"child\""));
    }
}
