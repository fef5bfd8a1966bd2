//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span is opened and closed
//! here, in the benchmark's own code, at a layer boundary (a child process,
//! a request, a library call). Spans are kept in memory and written once,
//! at the end, as Chrome-trace JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` indexes [`Tracer::spans`]; spans of one
/// operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (the same operations run either way, which
    /// is how the tracing overhead is measured).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans `f` opens through the tracer it is
    /// handed become children.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span that was timed elsewhere (a client thread, a child's
    /// own report) as a child of the span currently open here.
    pub fn record(&mut self, name: &str, op: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: self.open.last().copied(),
                op,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time (see [`self_times_ns`]).
    pub fn totals(&self) -> BTreeMap<String, NameTotal> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The whole trace as Chrome-trace JSON.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{},\"workload\":\"{workload}\"}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (children running in parallel are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("load", 10, 30, Some(0)),
            // Two parallel workers overlapping on 50..60: covered once.
            span("kernel", 40, 60, Some(0)),
            span("kernel", 50, 80, Some(0)),
            // A grandchild only reduces its own parent.
            span("profile", 42, 47, Some(2)),
            // A child that outlives its parent is clipped to it.
            span("late", 95, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![35, 20, 15, 30, 5, 35]);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.span("op", 7, |t| {
            t.span("inner", 7, |_| ());
            let now = t.now_ns();
            t.record("remote", 7, now, now + 5);
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "inner", "remote"]);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.totals()["op"].count, 1);
        let json = t.chrome_json("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 0, |_| 41 + 1), 42);
        assert!(t.spans().is_empty());
    }
}
