//! Quickstart: the two things this workspace does, in ~60 lines.
//!
//! 1. Compress a float tensor under a strict absolute error bound and
//!    verify the contract.
//! 2. Train a small CNN with the paper's adaptive compressed-activation
//!    framework and watch memory shrink while accuracy behaves.
//!
//! Run: `cargo run --release -p ebtrain-examples --bin quickstart`

use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::optimizer::SgdConfig;
use ebtrain_dnn::zoo;
use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};

fn main() {
    // --- 1. Error-bounded lossy compression -----------------------------
    let data: Vec<f32> = (0..64 * 64)
        .map(|i| ((i % 64) as f32 * 0.1).sin() + ((i / 64) as f32 * 0.07).cos())
        .collect();
    let eb = 1e-3f32;
    let cfg = SzConfig::with_error_bound(eb);
    let buf = compress(&data, DataLayout::D2(64, 64), &cfg).expect("compress");
    let recon = decompress(&buf).expect("decompress");
    let max_err = data
        .iter()
        .zip(&recon)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "compressed 64x64 f32 tensor: {} -> {} bytes ({:.1}x), max |error| {:.2e} <= eb {eb:.0e}",
        buf.original_byte_len(),
        buf.compressed_byte_len(),
        buf.ratio(),
        max_err,
    );
    assert!(max_err <= eb, "the error bound is a hard contract");

    // --- 2. Memory-efficient training ------------------------------------
    let dataset = SynthImageNet::new(SynthConfig::default());
    let net = zoo::tiny_vgg(10, 7);
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig::default(),
        FrameworkConfig {
            w_interval: 10, // collect stats every 10 iterations (paper: 1000)
            ..FrameworkConfig::default()
        },
    );
    let batch = 16;
    for i in 0..30u64 {
        let (x, labels) = dataset.batch(i * batch as u64, batch);
        let r = trainer.step(x, &labels).expect("train step");
        if (i + 1) % 10 == 0 {
            println!(
                "iter {:>3}: loss {:.3}, batch acc {:.2}, conv+FC inputs compressed {:.1}x",
                r.iter + 1,
                r.loss,
                r.accuracy,
                r.compression_ratio
            );
        }
    }
    let m = trainer.store_metrics();
    println!(
        "overall: conv+FC input memory {:.1}x smaller ({} KB raw -> {} KB stored)",
        m.compressible_ratio(),
        m.compressible_raw_bytes / 1024,
        m.compressible_stored_bytes / 1024,
    );
    println!("\nper-layer adaptive error bounds chosen by the Eq. 9 controller:");
    for e in trainer.plan_entries() {
        println!(
            "  {:<8} eb {:.2e}  (R={:.2}, L̄={:.2e}, M̄={:.2e})",
            e.name, e.error_bound, e.sparsity_r, e.l_bar, e.m_avg
        );
    }
}
