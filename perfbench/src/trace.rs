//! In-memory spans around the calls into each layer.
//!
//! A traced pass records one root span per operation (`op`) and one
//! child span per layer call made on the operation's behalf: name, start,
//! end, parent and operation id. Spans stay in memory; each operation's
//! per-layer self time (span duration minus the part its child spans
//! cover, less the clock cost of an empty span) is folded into a
//! best-over-passes table when the operation ends, and the last traced
//! pass is written out when the benchmark finishes. The root's self time
//! is the unattributed remainder: the benchmark's own glue plus the clock
//! reads of the child spans.

use crate::measure::BestTable;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`op` for the operation's root span).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span within the pass, if any.
    pub parent: Option<u32>,
    /// Corpus index of the operation the span belongs to.
    pub op: u32,
}

/// Name of every operation's root span.
pub const ROOT: &str = "op";

/// Span recorder plus the per-layer self-time tables it feeds.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_start: usize,
    op: u32,
    layers: Vec<(&'static str, BestTable)>,
    totals: BestTable,
    ops: usize,
    scratch: Vec<(&'static str, u64)>,
    /// Median duration of an empty span: the clock cost every recorded
    /// span carries, subtracted from each layer's self time.
    empty_span_ns: u64,
}

impl Tracer {
    /// A tracer for a corpus of `ops` operations.
    pub fn new(ops: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_start: 0,
            op: 0,
            layers: Vec::new(),
            totals: BestTable::new(ops),
            ops,
            scratch: Vec::new(),
            empty_span_ns: 0,
        }
        .calibrated()
    }

    /// Measures the empty-span cost on this host.
    fn calibrated(mut self) -> Self {
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| {
                self.span("calibration", || ());
                let s = self.spans.pop().expect("just recorded");
                s.end_ns - s.start_ns
            })
            .collect();
        samples.sort_unstable();
        self.empty_span_ns = samples[samples.len() / 2];
        self
    }

    /// Starts a traced pass (forgets the previous pass's spans).
    pub fn begin_pass(&mut self) {
        self.spans.clear();
    }

    /// Ends a traced pass.
    pub fn end_pass(&mut self) {
        for (_, table) in &mut self.layers {
            table.end_pass();
        }
        self.totals.end_pass();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len() as u32);
        self.spans.push(span);
        let start = self.now_ns();
        self.spans.last_mut().expect("just pushed").start_ns = start;
    }

    fn close_span(&mut self) {
        let end = self.now_ns();
        let i = self.open.pop().expect("a span is open") as usize;
        self.spans[i].end_ns = end;
    }

    /// Opens operation `op`'s root span.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op as u32;
        self.op_start = self.spans.len();
        self.open_span(ROOT);
    }

    /// Closes the root span and folds the operation's self times.
    pub fn end_op(&mut self) {
        self.close_span();
        let op_spans = &self.spans[self.op_start..];
        let root = op_spans[0];
        self.totals.record(
            self.op as usize,
            Duration::from_nanos(root.end_ns - root.start_ns),
            1.0,
        );
        let base = self.op_start as u32;
        self.scratch.clear();
        for (i, span) in op_spans.iter().enumerate() {
            let children: u64 = op_spans
                .iter()
                .filter(|s| s.parent == Some(base + i as u32))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let mut own = (span.end_ns - span.start_ns).saturating_sub(children);
            if span.name != ROOT {
                own = own.saturating_sub(self.empty_span_ns);
            }
            match self.scratch.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += own,
                None => self.scratch.push((span.name, own)),
            }
        }
        for k in 0..self.scratch.len() {
            let (name, ns) = self.scratch[k];
            let table = match self.layers.iter().position(|(n, _)| *n == name) {
                Some(i) => &mut self.layers[i].1,
                None => {
                    self.layers.push((name, BestTable::new(self.ops)));
                    &mut self.layers.last_mut().expect("just pushed").1
                }
            };
            table.record(self.op as usize, Duration::from_nanos(ns), 1.0);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name);
        let out = f();
        self.close_span();
        out
    }

    /// The best-over-passes traced time of every operation (its root
    /// span's duration), in µs.
    pub fn totals_us(&self) -> Vec<f64> {
        self.totals.estimates_us(false)
    }

    /// The best-over-passes self time of every operation that entered
    /// layer `name`, in µs (empty when no operation did).
    pub fn layer_us(&self, name: &str) -> Vec<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.estimates_us(false))
            .unwrap_or_default()
    }

    /// Operation `op`'s best self time in layer `name`, µs (0 when the
    /// operation never entered it).
    pub fn op_layer_us(&self, name: &str, op: usize) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, t)| t.get_us(op))
            .unwrap_or(0.0)
    }

    /// Sum over every layer except the root of operation `op`'s best
    /// self times, µs.
    pub fn op_layers_total_us(&self, op: usize) -> f64 {
        self.layers
            .iter()
            .filter(|(n, _)| *n != ROOT)
            .filter_map(|(_, t)| t.get_us(op))
            .sum()
    }

    /// Writes the last traced pass's spans as tab-separated
    /// `name start_ns end_ns parent op` lines (`-` for no parent).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(1);
        t.begin_pass();
        t.begin_op(0);
        t.span("outer", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.end_op();
        t.end_pass();
        let root = t.layer_us(ROOT)[0];
        let outer = t.layer_us("outer")[0];
        assert!(outer >= 2000.0);
        assert!(
            root < outer,
            "root self time {root} excludes its child {outer}"
        );
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.op_layers_total_us(0), outer);
    }
}
