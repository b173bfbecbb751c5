//! Domain scenario 4: the paper's §2.1 HPC motivation — deep learning
//! over *scientific simulation data* (not images), trained under the
//! compressed-activation framework.
//!
//! Task: classify power-law Fourier fields by spectral slope (a physics
//! property), single-channel 64×64 inputs. Smooth scientific inputs put
//! activations in the regime SZ-class compressors were designed for.
//!
//! Run: `cargo run --release -p ebtrain-examples --bin scientific_training`

use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::fields::{FieldConfig, SyntheticFields};
use ebtrain_dnn::network::NetworkBuilder;
use ebtrain_dnn::optimizer::SgdConfig;

fn main() {
    let fields = SyntheticFields::new(FieldConfig {
        classes: 4,
        size: 64,
        modes: 24,
        noise: 0.05,
        seed: 2026,
    });

    // Small single-channel CNN for 64x64 scalar fields.
    let mut b = NetworkBuilder::new("field-net", &[1, 64, 64], 12);
    b.conv(8, 3, 2, 1)
        .relu()
        .conv(16, 3, 2, 1)
        .relu()
        .conv(32, 3, 2, 1)
        .relu()
        .global_avgpool()
        .linear(4);
    let net = b.build();

    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig {
            lr: 0.05,
            ..SgdConfig::default()
        },
        FrameworkConfig {
            w_interval: 10,
            ..FrameworkConfig::default()
        },
    );

    let batch = 16usize;
    let iters = 80usize;
    println!("classifying spectral slopes of synthetic turbulence fields ({iters} iters)");
    for i in 0..iters {
        let (x, labels) = fields.batch((i * batch) as u64, batch);
        let r = trainer.step(x, &labels).expect("step");
        if (i + 1) % 20 == 0 {
            println!(
                "  iter {:>3}: loss {:.3}, batch acc {:.2}, conv+FC inputs {:.1}x smaller",
                i + 1,
                r.loss,
                r.accuracy,
                r.compression_ratio
            );
        }
    }
    // Held-out evaluation (indices far past the training stream).
    let (vx, vl) = fields.batch(1_000_000, 128);
    let (_, correct) = trainer.evaluate(vx, &vl).expect("eval");
    let m = trainer.store_metrics();
    println!(
        "\nheld-out accuracy: {:.3} (chance 0.25)",
        correct as f64 / 128.0
    );
    println!(
        "conv+FC input memory: {:.1}x smaller ({} KB -> {} KB cumulative)",
        m.compressible_ratio(),
        m.compressible_raw_bytes / 1024,
        m.compressible_stored_bytes / 1024
    );
    println!(
        "\nthe point: error-bounded compression is data-agnostic — the same \
         framework that compresses image-CNN activations handles scientific \
         fields, where image codecs like JPEG have no error story (paper §2.1)."
    );
}
