//! Spans recorded from the benchmark's side of each layer boundary: name,
//! start, end, the span that caused it, and the operation it belongs to.
//! Spans stay in memory; [`Trace::summary`] writes them out as a tree of
//! per-path medians when the run ends.

use crate::stats::{median_of, self_time};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, in nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// The operation (reproduction or replay) the span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next operation: later spans carry its id.
    pub fn next_op(&mut self) {
        debug_assert!(self.open.is_empty(), "operation changed inside a span");
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time a leaf call as one span.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Median duration in milliseconds of the spans called `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        median_of(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect(),
        )
    }

    /// Per operation, the summed duration in milliseconds of its spans
    /// called any of `names`: one value per operation that has at least one
    /// of them, in operation order.
    pub fn per_op_ms(&self, names: &[&str]) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for span in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
        {
            *by_op.entry(span.op).or_default() += span.duration_ns() as f64 / 1e6;
        }
        by_op.into_values().collect()
    }

    /// Self time of one span: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time(span.start_ns, span.end_ns, &children)
    }

    fn path(&self, mut id: usize) -> String {
        let mut names = vec![self.spans[id].name.as_str()];
        while let Some(parent) = self.spans[id].parent {
            names.push(self.spans[parent].name.as_str());
            id = parent;
        }
        names.reverse();
        names.join(" > ")
    }

    /// One line per span path: occurrences, median total and median self
    /// time in milliseconds, in first-seen order.
    pub fn summary(&self) -> String {
        let mut order: Vec<String> = Vec::new();
        let mut by_path: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for id in 0..self.spans.len() {
            let path = self.path(id);
            let entry = by_path.entry(path.clone()).or_insert_with(|| {
                order.push(path);
                (Vec::new(), Vec::new())
            });
            entry.0.push(self.spans[id].duration_ns() as f64 / 1e6);
            entry.1.push(self.self_ns(id) as f64 / 1e6);
        }
        let mut text = String::from("span path | count | median total ms | median self ms\n");
        for path in order {
            let (total, own) = by_path.remove(&path).expect("path recorded above");
            text.push_str(&format!(
                "{path} | {} | {:.3} | {:.3}\n",
                total.len(),
                median_of(total).unwrap_or(0.0),
                median_of(own).unwrap_or(0.0)
            ));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_ops_and_self_time() {
        let mut trace = Trace::new();
        trace.next_op();
        let outer = trace.enter("outer");
        trace.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        trace.exit(outer);
        assert_eq!(trace.spans[1].parent, Some(outer));
        assert_eq!(trace.spans[1].op, 1);
        let outer_ns = trace.spans[outer].duration_ns();
        let inner_ns = trace.spans[1].duration_ns();
        assert!(inner_ns >= 2_000_000);
        assert_eq!(trace.self_ns(outer), outer_ns - inner_ns);
        assert_eq!(trace.self_ns(1), inner_ns);
        assert!(trace.median_ms("inner").unwrap() >= 2.0);
        assert!(trace.summary().contains("outer > inner | 1 |"));
        trace.next_op();
        trace.time("inner", || ());
        let per_op = trace.per_op_ms(&["outer", "inner"]);
        assert_eq!(per_op.len(), 2);
        assert!(per_op[0] >= 4.0, "op 1 sums outer and inner: {per_op:?}");
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut trace = Trace::new();
        let a = trace.enter("a");
        let _b = trace.enter("b");
        trace.exit(a);
    }
}
