//! In-memory span recorder for the traced run.
//!
//! Each thread records into its own [`Recorder`] (no shared lock on the
//! timed path); recorders are merged into the [`Trace`] when the thread
//! ends, and the trace is written out as JSON lines when the benchmark
//! finishes. A disabled recorder records nothing, so the same call sites
//! serve the untraced end-to-end run.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a timed call into a layer, made from the benchmark's code.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the merged trace) of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (or batch, or build) identifier shared by related spans.
    pub req: u64,
}

/// Per-thread span buffer.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Nanoseconds since the trace origin (a common clock for all threads).
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record a finished span; returns its local index (a parent handle
    /// for spans recorded later on this recorder), or `None` when off.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as one span (a no-op wrapper when tracing is off).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, req);
        out
    }

    /// Open a span whose children are recorded before it ends; close it
    /// with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        let now = self.now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now();
        }
    }
}

/// All spans of one run.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn recorder(&self) -> Recorder {
        Recorder {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Fold a thread's spans in, rebasing their parent indices.
    pub fn merge(&mut self, rec: Recorder) {
        let base = self.spans.len();
        self.spans.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Quantile (µs) of the durations of spans named `name`; 0 if none.
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            stats::quantile(&d, q)
        }
    }

    /// Summed self time (seconds) per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let ns = stats::self_time(s.start_ns, s.end_ns, kids);
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Self time (seconds) of the spans named `name`; 0 if none.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Cost of recording one span (ns), measured by recording `n` empty ones.
pub fn span_cost_ns(n: usize) -> f64 {
    let trace = Trace::new(true);
    let mut rec = trace.recorder();
    let start = Instant::now();
    for i in 0..n {
        rec.time("probe", None, i as u64, || std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_attributes_children_across_merged_recorders() {
        let mut trace = Trace::new(true);
        let mut a = trace.recorder();
        let root = a.record("bundle", 0, 1_000, None, 1);
        a.record("msm.precompute", 100, 700, root, 1);
        a.record("offline.export", 700, 800, root, 1);
        // A second recorder merged first shifts the indices of the first.
        let mut b = trace.recorder();
        b.record("other", 0, 50, None, 2);
        trace.merge(b);
        trace.merge(a);
        let selfs = trace.self_seconds();
        assert!((selfs["bundle"] - 300e-9).abs() < 1e-15);
        assert!((selfs["msm.precompute"] - 600e-9).abs() < 1e-15);
        assert!((selfs["other"] - 50e-9).abs() < 1e-15);
        assert_eq!(trace.count("offline.export"), 1);
        assert_eq!(trace.quantile_us("msm.precompute", 0.5), 0.6);
        assert_eq!(trace.quantile_us("absent", 0.5), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut trace = Trace::new(false);
        let mut r = trace.recorder();
        assert_eq!(r.time("x", None, 0, || 7), 7);
        assert!(r.open("y", None, 0).is_none());
        trace.merge(r);
        assert_eq!(trace.len(), 0);
    }
}
