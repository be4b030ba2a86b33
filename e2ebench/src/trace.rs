//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (generate/parse,
//! every solve or client call, and the replayed per-layer calls). They are
//! kept in memory and written out once the run ends, so recording costs
//! two clock reads per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one request (0 for set-up work).
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::starting_at(Instant::now())
    }

    /// A tracer whose clock starts at `origin`, so spans recorded on
    /// other threads merge onto one timeline (see [`Tracer::absorb`]).
    pub fn starting_at(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends the spans of `other` (same origin), keeping its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.durations_us(name))
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span run one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// One JSON object per line: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }

    /// The per-layer table: for every span name, the layer (crate) it
    /// belongs to, its count, total self time, median per-call time and
    /// the end-to-end metric it feeds.
    pub fn layer_table(&self, feeds: impl Fn(&str) -> &'static str) -> String {
        let self_ns = self.self_ns();
        let mut rows: BTreeMap<&'static str, (usize, u64, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += own;
            row.2.push(s.dur_ns() as f64 / 1e3);
        }
        let mut out = format!(
            "{:<24} {:<9} {:>7} {:>12} {:>14}  feeds\n",
            "span", "layer", "count", "self_ms", "per_call_us"
        );
        for (name, (count, own, durs)) in rows {
            let layer = name.split('.').next().unwrap_or(name);
            let _ = writeln!(
                out,
                "{:<24} {:<9} {:>7} {:>12.3} {:>14.2}  {}",
                name,
                layer,
                count,
                own as f64 / 1e6,
                stats::median(&durs),
                feeds(name)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.enter("request", 1);
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(own[0] + spans[1].dur_ns(), spans[0].dur_ns());
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
