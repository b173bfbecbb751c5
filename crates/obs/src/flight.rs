//! The per-step flight recorder: a fixed-capacity ring of step records
//! with online anomaly detection and a crash dump.
//!
//! Both trainers push one [`FlightRecord`] per step ([`flight_step`]):
//! the step's loss, wall time, communicated bytes, compression ratio,
//! and pool queue-depth peak. Records are cheap (one short mutex hold
//! per *step*, not per operation), so the recorder is always on while
//! metrics are.
//!
//! **Anomaly detection.** Per `source` key ("core.step", "dist.step" —
//! a distributed step nests its replicas' core steps, so streams must
//! not contaminate each other), EWMA estimators track loss mean and
//! variance, step-time mean, and compression-ratio mean. After a short
//! warm-up, a record trips
//! * `loss_spike` — loss z-score above [`LOSS_Z_THRESHOLD`] (the
//!   deviation floor keeps tiny-variance streams from firing on
//!   noise),
//! * `step_time` — step wall time above [`TIME_FACTOR`]× the EWMA mean,
//! * `ratio_collapse` — compression ratio below [`RATIO_FACTOR`]× an
//!   EWMA mean that had been ≥ 1.5 (a stream that never compressed
//!   can't collapse).
//!
//! Each trip bumps an `obs.anomaly.*` counter and marks the ring entry,
//! so a live `/metrics` scrape and a post-mortem dump both see it.
//!
//! **Dumps.** [`write_flight`] serializes the ring plus a full registry
//! snapshot (counters, gauges, and each name's statistics with its
//! quantiles and raw buckets) as JSON parseable by [`crate::json`].
//! [`flush_flight`] writes it to `EBTRAIN_FLIGHT=<path>` at normal exit
//! (fig binaries), [`install_panic_hook`] does the same on panic, and
//! the distributed collective dumps on poisoning — the last N steps
//! before a failure are exactly what a post-mortem needs.

use crate::hist::Quantiles;
use crate::trace::escape_json;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Default ring capacity (records, not bytes).
pub const DEFAULT_CAPACITY: usize = 512;

/// Anomaly flag: loss z-score spike.
pub const ANOMALY_LOSS_SPIKE: u8 = 1 << 0;
/// Anomaly flag: step-time regression.
pub const ANOMALY_STEP_TIME: u8 = 1 << 1;
/// Anomaly flag: compression-ratio collapse.
pub const ANOMALY_RATIO_COLLAPSE: u8 = 1 << 2;

/// Loss z-score threshold for `loss_spike`.
pub const LOSS_Z_THRESHOLD: f64 = 4.0;
/// Step-time multiple of the EWMA mean for `step_time`.
pub const TIME_FACTOR: f64 = 3.0;
/// Ratio fraction of the EWMA mean for `ratio_collapse`.
pub const RATIO_FACTOR: f64 = 0.5;
/// Records per source before detectors may fire.
const WARMUP: u64 = 5;
/// EWMA smoothing factor.
const ALPHA: f64 = 0.2;

/// One step's entry in the flight ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Detector stream key: `"core.step"` or `"dist.step"`.
    pub source: &'static str,
    /// Trainer iteration index.
    pub step: u64,
    pub loss: f64,
    /// Wall time of the step.
    pub step_nanos: u64,
    /// Collective payload bytes moved this step (0 for local training).
    pub comm_bytes: u64,
    /// Store (core) or comm (dist) compression ratio.
    pub compression_ratio: f64,
    /// High-water mark of `pool.queue_depth` during the step.
    pub queue_depth_peak: i64,
    /// OR of `ANOMALY_*` flags tripped by this record.
    pub anomalies: u8,
}

impl FlightRecord {
    /// Human-readable names of the tripped anomaly flags.
    pub fn anomaly_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.anomalies & ANOMALY_LOSS_SPIKE != 0 {
            out.push("loss_spike");
        }
        if self.anomalies & ANOMALY_STEP_TIME != 0 {
            out.push("step_time");
        }
        if self.anomalies & ANOMALY_RATIO_COLLAPSE != 0 {
            out.push("ratio_collapse");
        }
        out
    }
}

/// EWMA state for one source stream.
#[derive(Default)]
struct Detector {
    n: u64,
    loss_mean: f64,
    loss_var: f64,
    time_mean: f64,
    ratio_mean: f64,
}

impl Detector {
    /// Check `rec` against the learned baseline, then fold it in.
    /// Returns the tripped `ANOMALY_*` flags.
    fn observe(&mut self, rec: &FlightRecord) -> u8 {
        let mut flags = 0u8;
        let warm = self.n >= WARMUP;
        if warm && rec.loss.is_finite() {
            // Deviation floor: 5% of the mean keeps near-constant loss
            // streams from flagging measurement noise.
            let sigma = self.loss_var.max(0.0).sqrt();
            let floor = self.loss_mean.abs() * 0.05 + 1e-12;
            let z = (rec.loss - self.loss_mean) / sigma.max(floor);
            if z > LOSS_Z_THRESHOLD {
                flags |= ANOMALY_LOSS_SPIKE;
            }
        }
        if warm && self.time_mean > 0.0 && (rec.step_nanos as f64) > TIME_FACTOR * self.time_mean {
            flags |= ANOMALY_STEP_TIME;
        }
        if warm
            && self.ratio_mean >= 1.5
            && rec.compression_ratio.is_finite()
            && rec.compression_ratio < RATIO_FACTOR * self.ratio_mean
        {
            flags |= ANOMALY_RATIO_COLLAPSE;
        }

        if rec.loss.is_finite() {
            if self.n == 0 {
                self.loss_mean = rec.loss;
            } else {
                let d = rec.loss - self.loss_mean;
                self.loss_mean += ALPHA * d;
                self.loss_var = (1.0 - ALPHA) * (self.loss_var + ALPHA * d * d);
            }
        }
        let t = rec.step_nanos as f64;
        self.time_mean = if self.n == 0 {
            t
        } else {
            self.time_mean + ALPHA * (t - self.time_mean)
        };
        if rec.compression_ratio.is_finite() {
            self.ratio_mean = if self.n == 0 {
                rec.compression_ratio
            } else {
                self.ratio_mean + ALPHA * (rec.compression_ratio - self.ratio_mean)
            };
        }
        self.n += 1;
        flags
    }
}

struct FlightState {
    ring: VecDeque<FlightRecord>,
    capacity: usize,
    /// One detector per source stream. Sources are a closed set of
    /// static names, so a Vec beats a HashMap at this size.
    detectors: Vec<(&'static str, Detector)>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn state() -> &'static Mutex<FlightState> {
    static S: OnceLock<Mutex<FlightState>> = OnceLock::new();
    S.get_or_init(|| {
        Mutex::new(FlightState {
            ring: VecDeque::with_capacity(DEFAULT_CAPACITY),
            capacity: DEFAULT_CAPACITY,
            detectors: Vec::new(),
        })
    })
}

/// Record one training step. Runs the source's anomaly detectors,
/// bumps `obs.anomaly.*` counters for anything tripped, stores the
/// (flagged) record in the ring, and returns the tripped flags.
/// No-op (returns 0) while metrics are disabled.
pub fn flight_step(mut rec: FlightRecord) -> u8 {
    if !crate::metrics_enabled() {
        return 0;
    }
    let flags = {
        let mut s = lock(state());
        let det = match s.detectors.iter().position(|(k, _)| *k == rec.source) {
            Some(i) => &mut s.detectors[i].1,
            None => {
                s.detectors.push((rec.source, Detector::default()));
                &mut s.detectors.last_mut().expect("just pushed").1
            }
        };
        let flags = det.observe(&rec);
        rec.anomalies = flags;
        while s.ring.len() >= s.capacity {
            s.ring.pop_front();
        }
        s.ring.push_back(rec);
        flags
    };
    // Counters are bumped outside the flight lock (counter_add takes
    // the shard lock; keep the two disjoint).
    if flags & ANOMALY_LOSS_SPIKE != 0 {
        crate::counter_add("obs.anomaly.loss_spike", 1);
    }
    if flags & ANOMALY_STEP_TIME != 0 {
        crate::counter_add("obs.anomaly.step_time", 1);
    }
    if flags & ANOMALY_RATIO_COLLAPSE != 0 {
        crate::counter_add("obs.anomaly.ratio_collapse", 1);
    }
    flags
}

/// The ring's current contents, oldest first.
pub fn flight_records() -> Vec<FlightRecord> {
    lock(state()).ring.iter().copied().collect()
}

/// Resize the ring (oldest records drop if shrinking). Test hook.
pub fn set_flight_capacity(capacity: usize) {
    let mut s = lock(state());
    s.capacity = capacity.max(1);
    while s.ring.len() > s.capacity {
        s.ring.pop_front();
    }
}

/// Drop every record and detector state. Test isolation hook.
pub fn clear_flight() {
    let mut s = lock(state());
    s.ring.clear();
    s.detectors.clear();
}

/// JSON fragment for an `f64` (finite → number, else `null` — JSON has
/// no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize the flight ring plus a full registry snapshot as one JSON
/// object: `reason`, `steps` (ring, oldest first), `counters`,
/// `gauges`, and `spans` — one entry per recorded name (span or
/// [`crate::hist_record`] value) with its count, total/min/max nanos,
/// bytes, p50/p90/p99 and raw `[upper_bound, count]` buckets.
/// Parseable by [`crate::json::parse`]; `flight_check` validates it in
/// CI.
pub fn write_flight(w: &mut dyn Write, reason: &str) -> io::Result<()> {
    let records = flight_records();
    let snap = crate::snapshot();
    writeln!(w, "{{")?;
    writeln!(w, "\"reason\":\"{}\",", escape_json(reason))?;
    writeln!(w, "\"steps\":[")?;
    for (i, r) in records.iter().enumerate() {
        let names = r.anomaly_names();
        let anomalies = names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",");
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"source\":\"{}\",\"step\":{},\"loss\":{},\"step_nanos\":{},\"comm_bytes\":{},\"ratio\":{},\"queue_depth_peak\":{},\"anomalies\":[{}]}}{}",
            escape_json(r.source),
            r.step,
            json_f64(r.loss),
            r.step_nanos,
            r.comm_bytes,
            json_f64(r.compression_ratio),
            r.queue_depth_peak,
            anomalies,
            sep
        )?;
    }
    writeln!(w, "],")?;

    let counters: Vec<String> = snap
        .counters()
        .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
        .collect();
    writeln!(w, "\"counters\":{{{}}},", counters.join(","))?;
    let gauges: Vec<String> = snap
        .gauges()
        .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
        .collect();
    writeln!(w, "\"gauges\":{{{}}},", gauges.join(","))?;

    writeln!(w, "\"spans\":{{")?;
    let records: Vec<_> = snap.records().collect();
    for (i, (name, r)) in records.iter().enumerate() {
        let st = r.stats();
        let q = Quantiles::from_hist(&r.hist);
        let buckets = r
            .hist
            .buckets()
            .map(|(upper, count)| format!("[{upper},{count}]"))
            .collect::<Vec<_>>()
            .join(",");
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            w,
            "\"{}\":{{\"count\":{},\"total_nanos\":{},\"min_nanos\":{},\"max_nanos\":{},\"total_bytes\":{},\"p50_nanos\":{},\"p90_nanos\":{},\"p99_nanos\":{},\"buckets\":[{}]}}{}",
            escape_json(name),
            st.count,
            st.total_nanos,
            st.min_nanos,
            st.max_nanos,
            st.total_bytes,
            q.p50,
            q.p90,
            q.p99,
            buckets,
            sep
        )?;
    }
    writeln!(w, "}}")?;
    writeln!(w, "}}")
}

/// Write the flight dump to a file path (creating/truncating it).
fn write_flight_to(path: &Path, reason: &str) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_flight(&mut w, reason)?;
    w.flush()
}

fn flight_env_path() -> Option<PathBuf> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("EBTRAIN_FLIGHT").ok())
        .as_deref()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
}

/// Dump to the `EBTRAIN_FLIGHT` path if one is set; returns the path
/// written. Failure paths (panic hook, poisoned collective) call this
/// with their reason — errors go to stderr, never propagate.
pub fn dump_flight(reason: &str) -> Option<PathBuf> {
    let path = flight_env_path()?;
    match write_flight_to(&path, reason) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "[obs] failed to write flight dump to {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Write the flight dump to the `EBTRAIN_FLIGHT` path at normal exit
/// (fig binaries call this at the end of `main`, next to
/// [`crate::flush_trace`]).
pub fn flush_flight() -> Option<PathBuf> {
    dump_flight("flush")
}

/// Install a panic hook (once; chains the previous hook) that dumps
/// the flight ring to `EBTRAIN_FLIGHT` before unwinding continues —
/// the last N steps are on disk even when the process dies.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(path) = dump_flight("panic") {
                eprintln!("[obs] flight dump written to {}", path.display());
            }
            prev(info);
        }));
    });
}
