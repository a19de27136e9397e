//! In-memory spans recorded around the benchmark's own calls into each
//! layer, with a per-layer self-time table. Nothing here instruments the
//! program: a span is the benchmark timing one public call it makes.
//!
//! Spans that replay a layer's work for a request after the timed phase
//! (plan, execute, registry, WAL, form apply) name the request's client span
//! as parent. A parent's self time is its duration minus the durations of
//! its children, clamped at zero: replayed children do not lie inside the
//! parent's interval, so they are credited by duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::quantile;

/// Spans written to the trace file at most; the table covers all of them.
const MAX_WRITTEN: usize = 100_000;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (operation) identifier shared by a request's spans.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span log with a common epoch.
pub struct Trace {
    epoch: Instant,
    /// Recorded spans, in insertion order.
    pub spans: Vec<Span>,
}

/// One row of the self-time table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Median self time, ns.
    pub self_p50_ns: f64,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::new() }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: duration minus children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Self times of the spans named `name`, in microseconds.
    pub fn self_us_of(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, v)| v as f64 / 1e3)
            .collect()
    }

    /// The per-layer self-time table, sorted by name.
    pub fn table(&self) -> Vec<LayerRow> {
        let selfs = self.self_times();
        let mut by: BTreeMap<&'static str, (u64, Vec<f64>)> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1.push(v as f64);
        }
        by.into_iter()
            .map(|(name, (total_ns, mut selfs))| {
                selfs.sort_by(f64::total_cmp);
                LayerRow {
                    name,
                    count: selfs.len(),
                    total_ns,
                    self_ns: selfs.iter().sum::<f64>() as u64,
                    self_p50_ns: quantile(&selfs, 0.5).unwrap_or(0.0),
                }
            })
            .collect()
    }

    /// Renders the table as aligned text lines.
    pub fn table_text(&self) -> String {
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_p50_us"
        );
        for r in self.table() {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.self_p50_ns / 1e3
            );
        }
        out
    }

    /// Writes `header` (as `#` comments), the self-time table, and up to
    /// [`MAX_WRITTEN`] spans as tab-separated
    /// `index name start_ns end_ns parent request` rows.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for line in header.lines().chain(self.table_text().lines()) {
            let _ = writeln!(out, "# {line}");
        }
        let written = self.spans.len().min(MAX_WRITTEN);
        let _ = writeln!(out, "# spans recorded {} written {written}", self.spans.len());
        out.push_str("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().take(written).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Trace::new(t0);
        let q = tr.push("runtime.query", at(0), at(100), None, 7);
        tr.push("engine.plan", at(200), at(210), Some(q), 7);
        tr.push("engine.execute", at(210), at(240), Some(q), 7);
        assert_eq!(tr.self_us_of("runtime.query"), vec![60.0]);
        assert_eq!(tr.self_us_of("engine.plan"), vec![10.0]);
        let table = tr.table();
        assert_eq!(table.len(), 3);
        assert_eq!(table.iter().map(|r| r.count).sum::<usize>(), 3);
    }
}
