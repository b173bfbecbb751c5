//! Outside-in spans: recorded by the benchmark around its calls into the
//! crates, never inside them.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the step or RPC cycle it belongs to.
//! Spans stay in memory until the run ends and are then written to
//! `benchmark/out/trace_<workload>.json`. A layer's **self time** is its
//! span's duration minus the durations of its direct children.
//!
//! All spans open and close on the thread that drives the workload (the
//! decomposed training step and the serve client both run there), so one
//! stack of open spans is enough.

use crate::harness::{median, BENCH_DIR};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Step (or RPC-cycle) id shared by every span of one operation.
    pub op: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Off for the untraced arm: `open` returns at once and records
    /// nothing, which is what `bench.trace_overhead_x` compares against.
    pub enabled: bool,
    pub op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`None` when the tracer is off).
pub type Open = Option<usize>;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Self time of every span, in nanoseconds, indexed by span id.
    fn self_ns(&self) -> Vec<u64> {
        let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut own: Vec<u64> = self.spans.iter().map(duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(duration(s));
            }
        }
        own
    }

    /// Share (in percent) of a step that is self time of spans called one
    /// of `names`: taken per traced step, then the median over steps.
    pub fn share_pct(&self, names: &[&str]) -> f64 {
        // Per step: (self time in `names`, self time in all spans = the
        // step's duration).
        let mut by_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let (part, total) = by_op.entry(s.op).or_default();
            *total += ns;
            if names.contains(&s.name) {
                *part += ns;
            }
        }
        let per_step: Vec<f64> = by_op
            .values()
            .map(|&(part, total)| 100.0 * part as f64 / total.max(1) as f64)
            .collect();
        median(&per_step)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write `benchmark/out/trace_<workload>.json`.
    pub fn dump(&self, workload: &str) -> std::io::Result<()> {
        assert!(self.stack.is_empty(), "dump with spans still open");
        let dir = format!("{BENCH_DIR}/out");
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(format!("{dir}/trace_{workload}.json"))?;
        let mut w = std::io::BufWriter::new(file);
        write!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}
