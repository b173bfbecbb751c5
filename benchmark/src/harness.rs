//! What every workload shares: the command line, the sizes of a run, the
//! statistics the metrics are made of, and the result line.
//!
//! `BENCHMARK.json` at the root of the checkout is the one list of
//! metric names and units. A run that produces a metric the file does
//! not declare, or misses one it does, is refused here — so a workload
//! cannot grow a private metric set.

use ebtrain_obs::json::{self, Value};
use std::time::Instant;

/// The benchmark's own directory (`benchmark/` of the checkout this
/// binary was built in; the driver builds and runs in the same checkout).
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
}

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
            aa: false,
        };
        let mut it = argv.skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => a.workload = value("a name")?,
                "--seed" => {
                    a.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    a.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => a.smoke = true,
                "--aa" => a.aa = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(a)
    }
}

/// Sizes of one run. A full run measures for `seconds` of wall time but
/// never fewer than `min_steps` steps per arm, so that every median has
/// over a hundred samples; the byte-valued metrics are taken over the
/// first `prefix` steps only, a fixed count, so that they repeat exactly
/// for one seed however many steps the window held.
#[derive(Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub min_steps: usize,
    pub prefix: usize,
    pub warmup: usize,
    pub setup_reps: usize,
    /// Refuse a percentile with fewer than ten samples beyond it.
    pub guard: bool,
    /// Divisor on the repetitions of the standalone layer probes.
    pub probe_div: usize,
}

impl Scale {
    /// `mult` scales the step counts: a serve step is four RPCs, shorter
    /// than a training step, so that workload takes five times as many.
    pub fn new(args: &Args, mult: usize) -> Scale {
        if args.smoke {
            // 1/20 of the counts; not a measurement, so no guard.
            Scale {
                seconds: args.seconds.min(1.0),
                min_steps: 6 * mult,
                prefix: 5 * mult,
                warmup: 2 * mult,
                setup_reps: 1,
                guard: false,
                probe_div: 10,
            }
        } else {
            Scale {
                seconds: args.seconds,
                min_steps: 110 * mult,
                prefix: 100 * mult,
                warmup: 5 * mult,
                setup_reps: 3,
                guard: true,
                probe_div: 1,
            }
        }
    }

    /// True while the measured window must go on.
    pub fn more(&self, window: Instant, steps_done: usize) -> bool {
        steps_done < self.min_steps || window.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a run hands back: metric values by name, and the operation
/// counts of the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (stderr only).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A value measured earlier in this run.
    pub fn get(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("{name} was not measured"))
    }

    /// Count one operation; `Err` counts as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Median (of a copy; the order of `v` is kept for the paired ratios).
pub fn median(v: &[f64]) -> f64 {
    percentile_unguarded(v, 0.5)
}

fn percentile_unguarded(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// The `q` percentile — refused (under `guard`) unless at least ten
/// samples lie beyond it, the rule of the `choosing-metrics` guide.
pub fn percentile(v: &[f64], q: f64, guard: bool) -> Result<f64, String> {
    if v.is_empty() {
        return Err("percentile of no samples".into());
    }
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    let beyond = v.len() - 1 - idx;
    if guard && beyond < 10 {
        return Err(format!(
            "p{:.0} of {} samples has only {beyond} beyond it (need 10)",
            q * 100.0,
            v.len()
        ));
    }
    Ok(percentile_unguarded(v, q))
}

/// Set up `reps` times, tearing each earlier set-up down before the
/// next, and keep the last: the median of the times is `setup_s`.
pub fn timed_set_up<T>(
    reps: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
    tear_down: impl Fn(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..reps {
        if let Some(earlier) = ready.take() {
            tear_down(earlier);
        }
        let t = Instant::now();
        ready = Some(set_up()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((ready.ok_or("no set-up repetitions")?, median(&times)))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

/// One declared metric of `BENCHMARK.json`.
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness needs.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

impl Declared {
    pub fn load() -> Result<Declared, String> {
        let path = format!("{BENCH_DIR}/../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("{path}: no array `{key}`"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("{path}: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(DeclaredMetric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// End-to-end metrics that repeat exactly for one seed
/// (`exact_for_a_seed` in `metrics.json`).
pub fn exact_for_a_seed() -> Result<Vec<String>, String> {
    let path = format!("{BENCH_DIR}/metrics.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no array `end_to_end`"))?;
    Ok(list
        .iter()
        .filter(|m| m.get("exact_for_a_seed") == Some(&Value::Bool(true)))
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect())
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, every declared metric of the
/// run's kind present and no other. Values print with all their digits.
pub fn result_line(declared: &[DeclaredMetric], out: &Outcome) -> Result<String, String> {
    for (name, _) in &out.metrics {
        if !declared.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let mut body = Vec::with_capacity(declared.len());
    for d in declared {
        let mut found = out.metrics.iter().filter(|(n, _)| *n == d.name);
        let (_, value) = found
            .next()
            .ok_or(format!("declared metric {} was not measured", d.name))?;
        if found.next().is_some() {
            return Err(format!("metric {} measured twice", d.name));
        }
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", d.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    ))
}
