//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the program (`core.prepare`, `lp.warm_solve`, `runtime.run_epoch`, …)
//! and around each whole operation (`op`). Spans carry their name, start
//! and end (nanoseconds since the run began) and the span that caused
//! them; they stay in memory and are written out once, when the run
//! ends. A disabled tracer records nothing, so untraced runs pay only a
//! branch per call site.
//!
//! The layer of a span is its name up to the first `.`; `op` spans
//! belong to the benchmark itself (`bench`). A span's *self time* is its
//! duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::Stopwatch;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        let now = self.origin.ns();
        while let Some(top) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end_ns = now;
            }
            if top == id {
                break;
            }
        }
    }

    /// Renames a recorded span (a cold query that turned out to be
    /// rescued by another engine is re-labelled after the fact).
    pub fn rename(&mut self, open: Open, name: &'static str) {
        if let Some(span) = open.0.and_then(|id| self.spans.get_mut(id)) {
            span.name = name;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per layer (milliseconds) inside the `op` span whose
    /// duration is the median of all `op` spans, together with that
    /// op's duration. The self times sum to the op's duration exactly.
    pub fn median_op_breakdown(&self) -> (f64, BTreeMap<&'static str, f64>) {
        let mut ops: Vec<(u64, usize)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op")
            .map(|(i, s)| (s.duration_ns(), i))
            .collect();
        ops.sort_unstable();
        let Some(&(duration, root)) = ops.get(ops.len().saturating_sub(1) / 2) else {
            return (0.0, BTreeMap::new());
        };
        // Children time per span, then self time per layer over the
        // op's subtree (spans are recorded in start order, so every
        // descendant of `root` follows it).
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        let mut in_tree: Vec<usize> = vec![root];
        for (i, span) in self.spans.iter().enumerate().skip(root + 1) {
            if span.start_ns > self.spans.get(root).map_or(0, |r| r.end_ns) {
                break;
            }
            if let Some(parent) = span.parent {
                if in_tree.contains(&parent) {
                    in_tree.push(i);
                    *child_ns.entry(parent).or_insert(0) += span.duration_ns();
                }
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for i in in_tree {
            if let Some(span) = self.spans.get(i) {
                let own = span
                    .duration_ns()
                    .saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
                *layers.entry(span.layer()).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        (duration as f64 / 1e6, layers)
    }

    /// The spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
    /// "parent"}` per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_op() {
        let mut t = Tracer::new(true);
        let op = t.enter("op");
        let a = t.enter("core.prepare");
        let b = t.enter("lp.warm_solve");
        t.exit(b);
        t.exit(a);
        t.exit(op);
        let (total, layers) = t.median_op_breakdown();
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-9);
        assert!(layers.contains_key("core") && layers.contains_key("lp"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.enter("op");
        t.exit(op);
        assert!(t.spans().is_empty());
    }
}
