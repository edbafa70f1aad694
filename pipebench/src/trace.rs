//! Spans recorded from the benchmark's own code around each call into a
//! layer. Off by default: a disabled tracer records nothing and reads no
//! clock. Spans stay in memory and are written as JSON-lines at the end.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The operation (search, load, one lookup, ...) the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[id].end_ns = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from here on share its id.
    pub fn op(&self, name: &'static str) -> Guard<'_> {
        self.op.set(self.op.get() + 1);
        self.span(name)
    }

    /// Open a span named `layer.call`, nested in the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let start = self.now_ns();
        spans.push(Span {
            id,
            parent: self.stack.borrow().last().copied(),
            op: self.op.get(),
            name,
            start_ns: start,
            end_ns: start,
        });
        self.stack.borrow_mut().push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its direct children cover (children never overlap: one thread opens
/// them in turn).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
        *out.entry(layer(s.name).to_string()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Total seconds spent in spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64 / 1e9)
}

pub fn span_json(s: &Span) -> String {
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    format!(
        "{{\"kind\":\"span\",\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
        s.id, s.op, s.name, s.start_ns, s.end_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "op.load", 0, 100),
            span(1, Some(0), "pschema.shred", 10, 50),
            span(2, Some(0), "relational.insert_batch", 50, 90),
            span(3, Some(2), "relational.commit", 60, 80),
        ];
        let t = self_times(&spans);
        assert!((t["op"] - 20e-9).abs() < 1e-15);
        assert!((t["pschema"] - 40e-9).abs() < 1e-15);
        assert!((t["relational"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _op = t.op("op.lookup");
            let _s = t.span("xquery.translate");
        }
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        {
            let _op = t.op("op.lookup");
            let _s = t.span("xquery.translate");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
    }
}
