//! The training stack under the extended storage policies: the hybrid
//! compress-and-migrate store, alone and beneath checkpointing. (Codec
//! corruption and truncation live in `codec_conformance.rs`.)

use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::recompute::checkpointed_train_step;
use ebtrain_dnn::store::{ActivationStore, CompressedStore, RawStore};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use ebtrain_sz::SzConfig;

/// The hybrid compress+migrate policy must train exactly within the
/// error-bounded contract while leaving device memory empty.
#[test]
fn hybrid_store_trains_with_zero_device_residency_for_convs() {
    let data = SynthImageNet::new(SynthConfig {
        classes: 4,
        image_hw: 32,
        noise: 0.15,
        seed: 41,
    });
    let mut net = zoo::tiny_vgg(4, 3);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig {
        lr: 0.01,
        ..SgdConfig::default()
    });
    let mut store = CompressedStore::hybrid(SzConfig::with_error_bound(1e-3), 12.0e9);
    let plan = CompressionPlan::new();
    let mut last = f32::INFINITY;
    let mut first = None;
    for i in 0..8 {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .unwrap();
        if first.is_none() {
            first = Some(r.loss);
        }
        last = r.loss;
    }
    assert!(last < first.unwrap(), "hybrid store broke training");
    let m = store.metrics();
    assert!(
        m.compressible_ratio() > 1.5,
        "ratio {}",
        m.compressible_ratio()
    );
    assert!(m.simulated_transfer_nanos > 0);
    // Transfer volume is the compressed bytes, not the raw bytes: the
    // time charged must be well under raw/bandwidth.
    let raw_time_nanos = m.compressible_raw_bytes as f64 / 12.0e9 * 1e9 * 2.0;
    assert!(
        (m.simulated_transfer_nanos as f64) < raw_time_nanos,
        "hybrid transfers should be compressed-sized"
    );
}

/// Checkpointing composed with the hybrid store: the most aggressive
/// memory policy in the workspace still trains.
#[test]
fn checkpointing_over_hybrid_store_trains() {
    let data = SynthImageNet::new(SynthConfig {
        classes: 4,
        image_hw: 32,
        noise: 0.15,
        seed: 43,
    });
    let mut net = zoo::tiny_resnet(4, 5);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut store = CompressedStore::hybrid(SzConfig::with_error_bound(1e-3), 12.0e9);
    let plan = CompressionPlan::new();
    let mut raw_peak = 0usize;
    {
        // Reference: plain training peak with a raw store.
        let mut rnet = zoo::tiny_resnet(4, 5);
        let mut ropt = Sgd::new(SgdConfig::default());
        let mut rstore = RawStore::new();
        let (x, labels) = data.batch(0, 16);
        raw_peak = train_step(
            &mut rnet,
            &head,
            &mut ropt,
            &mut rstore,
            &plan,
            x,
            &labels,
            false,
        )
        .unwrap()
        .peak_store_bytes
        .max(raw_peak);
    }
    let mut peak = 0usize;
    let mut last = f32::INFINITY;
    for i in 0..4 {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = checkpointed_train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, 4, false, None,
        )
        .unwrap();
        peak = peak.max(r.peak_store_bytes);
        last = r.loss;
    }
    assert!(last.is_finite());
    assert!(
        peak < raw_peak / 2,
        "stacked policies peak {peak} not well under raw {raw_peak}"
    );
}
