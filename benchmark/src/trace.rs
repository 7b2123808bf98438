//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions (choosing-metrics §4): name, start, end,
//! the span that caused it, and the operation it belongs to. Spans stay
//! in memory and are written out once, at exit. A disabled tracer costs
//! one branch per call.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`core.filter`, `server.client.raw`, …); `op` is the
    /// root span of one operation.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the root span of one benchmark operation.
pub const ROOT: &str = "op";

/// In-memory span recorder for the single client thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost open span and returns its index.
    pub fn exit(&mut self) -> Option<u32> {
        if !self.on {
            return None;
        }
        let now = self.now();
        let i = self.open.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = now;
        Some(i)
    }

    /// Adds a span whose duration another process measured (the server's
    /// `timings` block) as a child of the closed span `parent`, starting
    /// `offset_ns` into it.
    pub fn add_child(&mut self, parent: u32, name: &'static str, offset_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent as usize];
        let start_ns = p.start_ns + offset_ns;
        self.spans.push(Span {
            name,
            op: p.op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Drops everything recorded so far (the warm pass is not reported).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear inside an open span");
        self.spans.clear();
    }

    /// Self time of every span in ms, grouped by name: the span's
    /// duration minus what its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            out.entry(s.name)
                .or_default()
                .push(s.dur().saturating_sub(*c) as f64 / 1e6);
        }
        out
    }

    /// Sum of the self times of every layer span ÷ sum of the root
    /// spans' durations: the share of traced end-to-end time that some
    /// named layer accounts for. The self time of a span named in
    /// `unattributed` (time spent waiting on another process) counts
    /// for nothing.
    pub fn coverage(&self, unattributed: &[&str]) -> f64 {
        let selfs = self.self_ms();
        let root: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == ROOT)
            .map(|s| s.dur() as f64 / 1e6)
            .sum();
        let layers: f64 = selfs
            .iter()
            .filter(|(n, _)| **n != ROOT && !unattributed.contains(n))
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum();
        if root > 0.0 {
            layers / root
        } else {
            0.0
        }
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_adds_up() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: ROOT,
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100_000_000,
            },
            Span {
                name: "a",
                op: 0,
                parent: Some(0),
                start_ns: 0,
                end_ns: 60_000_000,
            },
            Span {
                name: "b",
                op: 0,
                parent: Some(1),
                start_ns: 10_000_000,
                end_ns: 30_000_000,
            },
        ];
        let s = t.self_ms();
        assert_eq!(s["a"], vec![40.0]);
        assert_eq!(s["b"], vec![20.0]);
        assert_eq!(s[ROOT], vec![40.0]);
        assert!((t.coverage(&[]) - 0.6).abs() < 1e-12);
        assert!((t.coverage(&["a"]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a", 0);
        assert_eq!(t.exit(), None);
        assert!(t.self_ms().is_empty());
    }
}
