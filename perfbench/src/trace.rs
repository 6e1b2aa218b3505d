//! In-memory span tracer for the traced run.
//!
//! A span wraps one call into a library layer. Span names are
//! `"<layer>:<stage>"`; the layer is the part before the colon. Spans
//! nest, and each span's *self* time is its wall time minus the wall
//! time of the spans directly inside it, so summing self time by layer
//! attributes every traced nanosecond exactly once.
//!
//! When tracing is off, [`Tracer::span`] is a direct call: no clock
//! reads, no allocation. The untraced runs that produce the end-to-end
//! numbers therefore measure the library, not the tracer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a span was recorded: in set-up number `k`, or in an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup(u32),
    Op(u64),
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    pub depth: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub child_ns: u64,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }

    /// The layer: the part of the name before the colon.
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

/// Span recorder plus per-op counters, both kept in memory until the end
/// of the run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    phase: Phase,
    /// Open spans: (name, start, child time so far).
    stack: Vec<(&'static str, u64, u64)>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            phase: Phase::Setup(0),
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches tracing on or off between ops (the traced run alternates
    /// to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (`"<layer>:<stage>"`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = self.now_ns();
        self.stack.push((name, start, 0));
        let out = f(self);
        let end = self.now_ns();
        if let Some((name, start, child_ns)) = self.stack.pop() {
            if let Some(parent) = self.stack.last_mut() {
                parent.2 += end - start;
            }
            self.spans.push(Span {
                name,
                phase: self.phase,
                depth: self.stack.len() as u32,
                start_ns: start,
                end_ns: end,
                child_ns,
            });
        }
        out
    }

    /// Adds `v` to the counter `name` (traced ops and set-ups only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Mean self time per traced op of the spans named `name`, in seconds.
    fn op_self_s(&self, name: &str, traced_ops: u64) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && matches!(s.phase, Phase::Op(_)))
            .map(Span::self_ns)
            .sum();
        ns as f64 * 1e-9 / traced_ops.max(1) as f64
    }

    /// Median over set-ups of the summed self time of spans named `name`,
    /// in seconds (0 when no set-up recorded it).
    fn setup_self_s(&self, name: &str) -> f64 {
        let mut per_setup: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            // Set-up 0 is the untimed one.
            if let (true, Phase::Setup(k @ 1..)) = (s.name == name, s.phase) {
                *per_setup.entry(k).or_insert(0) += s.self_ns();
            }
        }
        let v: Vec<f64> = per_setup.values().map(|&ns| ns as f64 * 1e-9).collect();
        median(&v)
    }

    /// One time metric per span name: `<layer>.<stage>_s`. For spans
    /// recorded in ops it is the mean self time per traced op; for spans
    /// recorded only in set-up, the median over set-ups.
    pub fn time_metrics(&self, traced_ops: u64) -> BTreeMap<String, f64> {
        let mut in_ops: BTreeMap<&'static str, bool> = BTreeMap::new();
        for s in &self.spans {
            *in_ops.entry(s.name).or_insert(false) |= matches!(s.phase, Phase::Op(_));
        }
        in_ops
            .into_iter()
            .map(|(name, op)| {
                let v = if op {
                    self.op_self_s(name, traced_ops)
                } else {
                    self.setup_self_s(name)
                };
                (format!("{}_s", name.replace(':', ".")), v)
            })
            .collect()
    }

    /// Self time per layer over all op spans, in seconds.
    pub fn op_layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for s in &self.spans {
            if matches!(s.phase, Phase::Op(_)) {
                *by_layer.entry(s.layer()).or_insert(0.0) += s.self_ns() as f64 * 1e-9;
            }
        }
        by_layer
    }

    /// Wall time inside top-level op spans, in seconds.
    pub fn op_covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0 && matches!(s.phase, Phase::Op(_)))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every span as tab-separated text, one per line.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("phase\tindex\tdepth\tname\tstart_ns\tend_ns\tself_ns\n");
        for s in &self.spans {
            let (phase, index) = match s.phase {
                Phase::Setup(k) => ("setup", k as u64),
                Phase::Op(i) => ("op", i),
            };
            let _ = writeln!(
                out,
                "{phase}\t{index}\t{}\t{}\t{}\t{}\t{}",
                s.depth,
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        out
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (`pct` in 0..=100); 0 when empty.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}
