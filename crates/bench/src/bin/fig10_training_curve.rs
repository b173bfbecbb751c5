//! **Figure 10** — baseline vs framework training curves, plus the
//! compression-ratio-vs-iteration series.
//!
//! Two runs from identical initialization and an identical data stream:
//! the baseline keeps raw activations; the framework compresses every
//! conv input with the Eq. 9 adaptive bounds. Expect near-overlapping
//! accuracy curves and a compression ratio that moves as the loss/
//! momentum statistics evolve (unstable early, stabilizing later —
//! exactly the behaviour the paper describes for the early phase).
//!
//! Substitution note: scaled AlexNet on SynthImageNet (see DESIGN.md §2);
//! W scaled from 1000 to 25 to match the shorter run.
//!
//! `--smoke` (also `EBTRAIN_SMOKE=1`) shrinks the run to a dozen
//! iterations for CI, which invokes it with `EBTRAIN_TRACE` and
//! `EBTRAIN_FLIGHT` set and validates the resulting chrome-trace with
//! `trace_check` and the flight-recorder dump with `flight_check`.
//! With `EBTRAIN_METRICS_ADDR` set, the run also self-probes the live
//! `/metrics` endpoint before exiting. The last framework step's
//! obs-registry delta (span times, entropy routing) is printed at the
//! end either way, along with `core.step` latency quantiles.

use ebtrain_bench::table::Table;
use ebtrain_bench::{env_flag, env_usize};
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{LrSchedule, Sgd, SgdConfig};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::train::{evaluate, train_step};
use ebtrain_dnn::zoo;
use ebtrain_obs::Snapshot;

/// One line per span (`name: count x total ms [bytes]`), then one per
/// counter, of every name under one of `prefixes`.
fn format_brief(delta: &Snapshot, prefixes: &[&str]) -> String {
    let wanted = |name: &str| prefixes.iter().any(|p| name.starts_with(p));
    let mut out = String::new();
    for (name, st) in delta.spans().filter(|(name, _)| wanted(name)) {
        out.push_str(&format!(
            "{name}: {}x {:.3} ms{}\n",
            st.count,
            st.total_nanos as f64 * 1e-6,
            if st.total_bytes > 0 {
                format!(" {} B", st.total_bytes)
            } else {
                String::new()
            }
        ));
    }
    for (name, v) in delta.counters().filter(|(name, _)| wanted(name)) {
        out.push_str(&format!("{name}: {v}\n"));
    }
    out
}

fn main() {
    // Panic-hook flight dump + optional EBTRAIN_METRICS_ADDR endpoint.
    let metrics_addr = ebtrain_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke") || env_flag("EBTRAIN_SMOKE");
    let (def_batch, def_iters, def_eval, def_w) = if smoke {
        (8, 12, 6, 4)
    } else {
        (16, 240, 24, 25)
    };
    let batch = env_usize("EBTRAIN_BATCH", def_batch);
    let iters = env_usize("EBTRAIN_ITERS", def_iters);
    let eval_every = env_usize("EBTRAIN_EVAL_EVERY", def_eval);
    let w = env_usize("EBTRAIN_W", def_w);
    let eval_n = if smoke { 32usize } else { 128usize };
    println!(
        "fig10_training_curve{}: tiny-alexnet batch={batch} iters={iters} W={w}",
        if smoke { " [smoke]" } else { "" }
    );

    let data = SynthImageNet::new(SynthConfig {
        classes: 10,
        image_hw: 32,
        noise: 0.25,
        seed: 77,
    });
    let head = SoftmaxCrossEntropy::new();
    let sgd = SgdConfig {
        lr: 0.02,
        momentum: 0.9,
        weight_decay: 1e-4,
        schedule: LrSchedule::Step {
            every: iters / 2,
            gamma: 0.1,
        },
    };
    let (vx, vl) = data.val_batch(0, eval_n);

    // Baseline run.
    eprintln!("[fig10] baseline run ...");
    let mut base_net = zoo::tiny_alexnet(10, 7);
    let mut base_opt = Sgd::new(sgd.clone());
    let mut base_store = RawStore::new();
    let plan = CompressionPlan::new();
    let mut base_acc: Vec<f64> = Vec::new();
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        train_step(
            &mut base_net,
            &head,
            &mut base_opt,
            &mut base_store,
            &plan,
            x,
            &labels,
            false,
        )
        .expect("baseline step");
        if (i + 1) % eval_every == 0 {
            let (_, c) = evaluate(&mut base_net, &head, vx.clone(), &vl).expect("eval");
            base_acc.push(c as f64 / eval_n as f64);
        }
    }

    // Framework run (identical init/data).
    eprintln!("[fig10] framework run ...");
    let net = zoo::tiny_alexnet(10, 7);
    let mut trainer = AdaptiveTrainer::new(
        net,
        sgd,
        FrameworkConfig {
            w_interval: w,
            ..FrameworkConfig::default()
        },
    );
    let mut comp_acc: Vec<f64> = Vec::new();
    let mut ratio_series: Vec<(usize, f64)> = Vec::new();
    let mut last_step = None;
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let before = (i + 1 == iters).then(ebtrain_obs::snapshot);
        let r = trainer.step(x, &labels).expect("framework step");
        last_step = before.map(|b| ebtrain_obs::snapshot().delta_since(&b));
        ratio_series.push((i, r.compression_ratio));
        if (i + 1) % eval_every == 0 {
            let (_, c) = trainer.evaluate(vx.clone(), &vl).expect("eval");
            comp_acc.push(c as f64 / eval_n as f64);
        }
    }

    let mut table = Table::new(&["iter", "baseline_acc", "framework_acc", "comp_ratio"]);
    for (p, (b, c)) in base_acc.iter().zip(&comp_acc).enumerate() {
        let it = (p + 1) * eval_every;
        // ratio averaged over the window ending at this eval point
        let lo = it.saturating_sub(eval_every);
        let window: Vec<f64> = ratio_series[lo..it].iter().map(|&(_, r)| r).collect();
        let ratio = window.iter().sum::<f64>() / window.len().max(1) as f64;
        table.row(vec![
            format!("{it}"),
            format!("{b:.3}"),
            format!("{c:.3}"),
            format!("{ratio:.1}x"),
        ]);
    }
    table.print("Fig 10: accuracy curves + compression ratio per iteration window");

    let m = trainer.store_metrics();
    println!(
        "\noverall conv-activation compression ratio: {:.1}x",
        m.compressible_ratio()
    );
    println!(
        "final baseline acc {:.3} vs framework acc {:.3} (delta {:+.3})",
        base_acc.last().unwrap_or(&0.0),
        comp_acc.last().unwrap_or(&0.0),
        comp_acc.last().unwrap_or(&0.0) - base_acc.last().unwrap_or(&0.0)
    );
    println!("\nPer-layer bounds at the last collection:");
    let mut plan_table = Table::new(&["layer", "eb", "R", "L_bar", "M_avg", "fallback"]);
    for e in trainer.plan_entries() {
        plan_table.row(vec![
            e.name.clone(),
            format!("{:.2e}", e.error_bound),
            format!("{:.2}", e.sparsity_r),
            format!("{:.2e}", e.l_bar),
            format!("{:.2e}", e.m_avg),
            format!("{}", e.fallback),
        ]);
    }
    plan_table.print("Fig 10 aux: adaptive per-layer error bounds");
    if let Some(delta) = last_step {
        println!(
            "\nLast framework step, obs-registry delta:\n{}",
            format_brief(
                &delta,
                &["core.", "sz.", "codec.", "encoding.", "membudget."]
            )
        );
    }
    let snap = ebtrain_obs::snapshot();
    if let Some(q) = snap.quantiles("core.step") {
        println!(
            "\ncore.step latency: p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms \
             over {} steps",
            q.p50 as f64 / 1e6,
            q.p90 as f64 / 1e6,
            q.p99 as f64 / 1e6,
            q.max as f64 / 1e6,
            snap.span_stats("core.step").count
        );
    }
    // CI self-probe: with EBTRAIN_METRICS_ADDR set, scrape the live
    // endpoint and hard-fail if the exposition does not parse — this is
    // the "/metrics serves parseable Prometheus text during a smoke
    // run" guarantee.
    if let Some(addr) = metrics_addr {
        let body = ebtrain_obs::serve::fetch(addr, "/metrics").expect("scrape /metrics");
        let series = ebtrain_obs::serve::parse_exposition(&body).expect("parse exposition");
        assert!(
            series
                .iter()
                .any(|(name, _)| name.starts_with("ebtrain_core_step_nanos_bucket")),
            "no core.step histogram series in /metrics"
        );
        println!(
            "\nmetrics endpoint http://{addr}/metrics OK: {} series parsed",
            series.len()
        );
    }
    println!(
        "\nPaper shape to check: the two accuracy curves nearly coincide \
         while conv and FC input activations are stored ~10x smaller; ratio \
         wobbles early then stabilizes."
    );
    ebtrain_obs::flush_trace();
    ebtrain_obs::flush_flight();
}
