//! Domain scenario 1: train a residual CNN end-to-end under the adaptive
//! compressed-activation framework and compare with an identical baseline
//! run — the workload the paper's Fig 10 studies.
//!
//! Run: `cargo run --release -p ebtrain-examples --bin train_compressed`
//! Env: `ITERS` (default 120), `BATCH` (default 16).

use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{LrSchedule, Sgd, SgdConfig};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::train::{evaluate, train_step};
use ebtrain_dnn::zoo;

fn env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let iters = env("ITERS", 120);
    let batch = env("BATCH", 16);
    let eval_n = 128;
    println!("training tiny-resnet on SynthImageNet: {iters} iters, batch {batch}");

    let data = SynthImageNet::new(SynthConfig {
        classes: 10,
        image_hw: 32,
        noise: 0.25,
        seed: 2024,
    });
    let head = SoftmaxCrossEntropy::new();
    let sgd = SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        schedule: LrSchedule::Step {
            every: iters / 2,
            gamma: 0.1,
        },
    };
    let (vx, vl) = data.val_batch(0, eval_n);

    // Baseline: raw activation storage.
    let mut net = zoo::tiny_resnet(10, 42);
    let mut opt = Sgd::new(sgd.clone());
    let mut store = RawStore::new();
    let plan = CompressionPlan::new();
    let mut base_peak = 0usize;
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let r = train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .expect("baseline step");
        base_peak = base_peak.max(r.peak_store_bytes);
    }
    let (_, base_correct) = evaluate(&mut net, &head, vx.clone(), &vl).expect("eval");

    // Framework: adaptive error-bounded compression (same init, same data).
    let net = zoo::tiny_resnet(10, 42);
    let mut trainer = AdaptiveTrainer::new(
        net,
        sgd,
        FrameworkConfig {
            w_interval: 20,
            ..FrameworkConfig::default()
        },
    );
    let mut fw_peak = 0usize;
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let r = trainer.step(x, &labels).expect("framework step");
        fw_peak = fw_peak.max(r.peak_store_bytes);
        if (i + 1) % 20 == 0 {
            println!(
                "  iter {:>4}: loss {:.3}, ratio {:.1}x, peak store {} KB",
                i + 1,
                r.loss,
                r.compression_ratio,
                r.peak_store_bytes / 1024
            );
        }
    }
    let (_, fw_correct) = trainer.evaluate(vx, &vl).expect("eval");

    println!("\n=== results ===");
    println!(
        "baseline : val acc {:.3}, peak activation store {} KB",
        base_correct as f64 / eval_n as f64,
        base_peak / 1024
    );
    println!(
        "framework: val acc {:.3}, peak activation store {} KB ({:.1}x less), conv+FC input ratio {:.1}x",
        fw_correct as f64 / eval_n as f64,
        fw_peak / 1024,
        base_peak as f64 / fw_peak.max(1) as f64,
        trainer.store_metrics().compressible_ratio()
    );
    println!(
        "accuracy delta: {:+.3} (paper reports <= 0.31% loss at 10-13.5x ratios)",
        (fw_correct as f64 - base_correct as f64) / eval_n as f64
    );
}
