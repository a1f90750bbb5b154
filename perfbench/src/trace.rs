//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the request it belongs to (0 for work that serves no single
//! request). Spans stay in memory while the run measures and are written
//! out when it ends. All spans come from the generator thread, so a
//! parent's children never overlap and a span's self time is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(name, parent, request, f).0
    }

    /// Runs `f` inside a span and returns the span's duration in
    /// seconds with the result.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, self.spans[id].duration_ns() as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// The spans and their self-time table as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("write to String");
        }
        out.push_str("\n],\"self_time\":{");
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
            .expect("write to String");
        }
        out.push_str("\n}}\n");
        out
    }
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = table.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 70, Some(0)),
            span("leaf", 12, 30, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["child"],
            SelfTime {
                count: 2,
                total_ns: 50,
                self_ns: 32
            }
        );
        assert_eq!(
            t["leaf"],
            SelfTime {
                count: 1,
                total_ns: 18,
                self_ns: 18
            }
        );
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut tracer = Tracer::new(4);
        let root = tracer.open("root", None, 0);
        let v = tracer.span("call", Some(root), 7, || 41 + 1);
        tracer.close(root);
        assert_eq!(v, 42);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].request, 7);
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
        let json = tracer.to_json();
        assert!(json.contains("\"name\":\"call\""));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(tracer.durations_ns("call").len(), 1);
    }
}
