//! The span recorder of the traced run. It lives in the benchmark only:
//! the benchmark opens a span around each call it makes into a layer's
//! public function, so the crates under test carry no tracing code.
//!
//! Every call is made from the benchmark's main thread, so one stack of
//! open spans is enough. Work a layer does on its own threads (flush
//! workers, batch workers) and the shortest-path lookups counted by
//! [`crate::traced_sp::TracedSp`] are too fine to record call by call;
//! they enter the trace as *aggregate* spans — one child carrying a
//! call count and the summed busy time — under the span they ran in.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation (a push, a
    /// trajectory, a query).
    pub op: u64,
    /// Calls folded into this span; 1 for an ordinary span.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times a traced stage repeats its recorded pass and the unrecorded
/// twin, alternating, so the overhead estimate has a fast sample of
/// each even when the box changes speed between two passes.
pub const TWIN_REPS: usize = 2;

/// Walls in seconds of a stage's recorded passes and of their
/// unrecorded twins.
#[derive(Default)]
pub struct Twins {
    pub traced_s: Vec<f64>,
    pub plain_s: Vec<f64>,
}

/// Handle of a span, open or closed.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// Per-name totals of a trace: the rows of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder; off, every method returns at once.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            calls: 1,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `calls` calls that together kept a layer busy for
    /// `busy_ns` as one child of the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        if let Some(&parent) = self.open.last() {
            self.attach(SpanId(Some(parent)), name, calls, busy_ns);
        }
    }

    /// [`Recorder::aggregate`] under a span that may already be closed:
    /// for work that ran inside `parent` but could only be timed on its
    /// own afterwards.
    pub fn attach(&mut self, parent: SpanId, name: &'static str, calls: u64, busy_ns: u64) {
        let Some(parent) = parent.0 else { return };
        if calls == 0 {
            return;
        }
        let Span { start_ns, op, .. } = self.spans[parent as usize];
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            op,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per-name totals with self time, ordered by name.
    pub fn rows(&self) -> Vec<Row> {
        rows_of(&self.spans)
    }

    /// The rows of what ran under each top-level span, keyed by that
    /// span's name; the top-level span itself is left out.
    pub fn rows_by_root(&self) -> BTreeMap<&'static str, Vec<Row>> {
        let self_ns = self_times(&self.spans);
        // A parent is always recorded before its children.
        let mut root = vec![0usize; self.spans.len()];
        let mut grouped: BTreeMap<&'static str, BTreeMap<&'static str, Row>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(parent) = s.parent else {
                root[i] = i;
                continue;
            };
            root[i] = root[parent as usize];
            add_to(
                grouped.entry(self.spans[root[i]].name).or_default(),
                s,
                self_ns[i],
            );
        }
        grouped
            .into_iter()
            .map(|(root, rows)| (root, rows.into_values().collect()))
            .collect()
    }

    /// Writes every span, then the per-name rows, as one JSON document.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  {}: {},", json::string(k), v);
        }
        out.push_str("  \"rows\": [\n");
        let rows = self.rows();
        for (i, r) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"calls\": {}, \"total_us\": {}, \"self_us\": {}}}{}",
                json::string(r.name),
                r.calls,
                json::number(r.total_ns as f64 / 1e3),
                json::number(r.self_ns as f64 / 1e3),
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"calls\": {}}}{}",
                json::string(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.end_ns as f64 / 1e3),
                s.op,
                s.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out)
    }
}

/// Self time is a span's duration minus what its children cover. The
/// children of one span never overlap (one thread, one stack), so their
/// durations simply add; an aggregate child that reports more busy time
/// than its parent lasted (work on several threads, or timed on its own
/// at another moment) cannot drive the parent's self time below zero.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, children)| s.duration_ns().saturating_sub(children))
        .collect()
}

fn add_to(rows: &mut BTreeMap<&'static str, Row>, s: &Span, self_ns: u64) {
    let row = rows.entry(s.name).or_insert(Row {
        name: s.name,
        calls: 0,
        total_ns: 0,
        self_ns: 0,
    });
    row.calls += s.calls;
    row.total_ns += s.duration_ns();
    row.self_ns += self_ns;
}

/// Per-name totals of `spans`, ordered by name.
pub fn rows_of(spans: &[Span]) -> Vec<Row> {
    let mut rows = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        add_to(&mut rows, s, self_ns);
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // root 0..100 holds a (10..40) and a second a (50..70); the
        // first a holds b (15..25).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        let rows = rows_of(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!((get("root").total_ns, get("root").self_ns), (100, 50));
        assert_eq!(
            (get("a").calls, get("a").total_ns, get("a").self_ns),
            (2, 50, 40)
        );
        assert_eq!((get("b").total_ns, get("b").self_ns), (10, 10));
        // Self times of a tree add up to the root's duration.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn an_aggregate_child_wider_than_its_parent_floors_self_time_at_zero() {
        let mut agg = span("sp", 0, 150, Some(0));
        agg.calls = 12;
        let rows = rows_of(&[span("flush", 0, 100, None), agg]);
        assert_eq!(rows[0].self_ns, 0);
        assert_eq!((rows[1].calls, rows[1].self_ns), (12, 150));
    }

    #[test]
    fn recorder_nests_spans_and_attaches_aggregates_to_the_open_span() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", 7);
        let inner = rec.enter("inner", 7);
        rec.exit(inner);
        rec.aggregate("sp", 3, 5);
        rec.aggregate("never", 0, 5);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[2].parent, spans[2].calls, spans[2].op),
            (Some(0), 3, 7)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn rows_are_grouped_under_their_top_level_span_and_attach_reaches_a_closed_span() {
        let mut rec = Recorder::new(true);
        let write = rec.enter("stage.write", 0);
        let flush = rec.enter("serve.flush", 0);
        rec.exit(flush);
        rec.exit(write);
        let read = rec.enter("stage.read", 0);
        let q = rec.enter("core.store.range", 3);
        rec.exit(q);
        rec.exit(read);
        rec.attach(flush, "matcher.match", 9, 1);
        let by_root = rec.rows_by_root();
        let names = |root: &str| by_root[root].iter().map(|r| r.name).collect::<Vec<_>>();
        assert_eq!(names("stage.write"), ["matcher.match", "serve.flush"]);
        assert_eq!(names("stage.read"), ["core.store.range"]);
        assert_eq!(by_root["stage.write"][0].calls, 9);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("x", 0);
        rec.aggregate("sp", 3, 5);
        rec.attach(id, "sp", 3, 5);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }
}
