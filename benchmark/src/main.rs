//! The repository's benchmark. One run is one workload:
//!
//! ```text
//! ebtrain-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all;
//! `--trace 1` is a separate run that records outside-in spans, times
//! the lower layers standalone and reports the per-layer metrics. The
//! last line of standard output is the result as one JSON object.
//! `--aa` runs every workload twice and compares the two; `--smoke`
//! (used by `cargo test`) shrinks a run to a twentieth. See `README.md`.

mod harness;
mod probes;
mod serve;
mod trace;
mod train;

use harness::{Args, Declared, Outcome, Scale};
use std::process::ExitCode;

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let spec = match args.workload.as_str() {
        "train_conv3x3" => Some(&train::CONV3X3),
        "train_conv1x1" => Some(&train::CONV1X1),
        "dist_ring_n2" => Some(&train::DIST_RING_N2),
        serve::NAME => None,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut out = match (spec, args.trace) {
        (Some(spec), false) => train::run(spec, args.seed, &Scale::new(args, 1)),
        (Some(spec), true) => train::run_traced(spec, args.seed, &Scale::new(args, 1)),
        (None, false) => serve::run(args.seed, &Scale::new(args, 5)),
        (None, true) => serve::run_traced(args.seed, &Scale::new(args, 5)),
    }?;
    if !args.trace {
        out.put("peak_rss_mib", harness::peak_rss_mib()?);
    }
    Ok(out)
}

/// `--aa`: every workload twice on this build with one seed, each run a
/// child process as the driver would start it. Prints both values, the
/// relative difference and the bound per metric; fails if a difference
/// exceeds its bound, or if a metric that `metrics.json` marks exact for
/// a seed differs at all. Two single runs are compared, not two medians:
/// a neighbour's burst on the machine fails it where the driver's
/// ten-run medians would hold.
fn self_check(args: &Args, declared: &Declared) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = |workload: &str| -> Result<Vec<f64>, String> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!("{workload}: run failed with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().ok_or("no result line")?;
        let json = ebtrain_obs::json::parse(line)?;
        if json.get("failed").and_then(|f| f.as_f64()) != Some(0.0) {
            return Err(format!("{workload}: operations failed: {line}"));
        }
        declared
            .end_to_end
            .iter()
            .map(|m| {
                json.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("{workload}: no value for {}", m.name))
            })
            .collect()
    };
    let exact = harness::exact_for_a_seed()?;
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse_by", "bound"
    );
    for workload in &declared.workloads {
        let (first, second) = (run(workload)?, run(workload)?);
        for ((m, a), b) in declared.end_to_end.iter().zip(first).zip(second) {
            let worse_by = match m.better.as_str() {
                "lower" => (b - a) / a,
                _ => (a - b) / a,
            };
            let bound = m.bound.unwrap_or(0.0);
            let is_exact = exact.contains(&m.name);
            let pass = if is_exact {
                a == b
            } else {
                worse_by.abs() <= bound
            };
            let verdict = match (pass, is_exact) {
                (true, true) => "  exact",
                (true, false) => "",
                (false, _) => "  FAIL",
            };
            ok &= pass;
            println!(
                "{workload:<16} {:<16} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.1}%{verdict}",
                m.name,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = Args::parse(std::env::args())?;
        // Numbers from an unoptimised build mean nothing. `--smoke` is
        // not a measurement and may run from `cargo test`'s profile.
        if cfg!(debug_assertions) && !args.smoke {
            return Err("refusing to measure a build with debug assertions; \
                        use `cargo run --release`"
                .into());
        }
        let declared = Declared::load()?;
        if args.aa {
            return self_check(&args, &declared);
        }
        if args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let out = run_workload(&args)?;
        for note in &out.notes {
            eprintln!("failed: {note}");
        }
        let metrics = match args.trace {
            false => &declared.end_to_end,
            true => &declared.per_layer,
        };
        println!("{}", harness::result_line(metrics, &out)?);
        Ok(true)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ebtrain-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
