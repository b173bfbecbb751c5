//! Cross-crate integration tests: the full training pipeline under every
//! storage policy, determinism, and the compression/accuracy contract.
//!
//! The long training trajectories (tens of iterations to a competence /
//! accuracy-parity bar) are `#[ignore]`d so the default suite stays
//! fast; CI runs them in a dedicated job with `EBTRAIN_FULL_E2E=1` via
//! `cargo test -- --ignored`. Each long test has a short smoke twin in
//! the default suite that pins the same invariants that can be checked
//! cheaply (bit-identity across exact policies, loss decrease,
//! compression ratio) without training to convergence.

use ebtrain_core::{AdaptiveTrainer, FrameworkConfig, ModelForm};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{ActivationStore, CompressedStore, RawStore};
use ebtrain_dnn::train::{evaluate, train_step};
use ebtrain_dnn::zoo;
use ebtrain_sz::SzConfig;

fn dataset() -> SynthImageNet {
    SynthImageNet::new(SynthConfig {
        classes: 4,
        image_hw: 32,
        noise: 0.15,
        seed: 11,
    })
}

/// Train `iters` iterations under a given store; return the per-step
/// loss trajectory and the final val correct count.
fn train_under(store: &mut dyn ActivationStore, iters: usize, seed: u64) -> (Vec<f32>, usize) {
    let data = dataset();
    let mut net = zoo::tiny_vgg(4, seed);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig {
        lr: 0.01,
        ..SgdConfig::default()
    });
    let plan = CompressionPlan::new();
    let mut losses = Vec::with_capacity(iters);
    for i in 0..iters {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = train_step(
            &mut net,
            &head,
            &mut opt,
            store,
            &plan,
            x,
            &labels,
            i % 8 == 0,
        )
        .expect("train step");
        losses.push(r.loss);
    }
    let (vx, vl) = data.val_batch(0, 128);
    let (_, correct) = evaluate(&mut net, &head, vx, &vl).expect("eval");
    (losses, correct)
}

/// Short twin of [`every_storage_policy_trains_to_competence`]: too few
/// iterations to demand competence, but the exact-policy bit-identity
/// and loss-decrease invariants hold from step one.
#[test]
fn every_storage_policy_smoke() {
    let iters = 6;
    let (base_losses, base) = train_under(&mut RawStore::new(), iters, 3);
    let (lossless_losses, lossless) = train_under(&mut CompressedStore::lossless(), iters, 3);
    let (migrated_losses, migrated) = train_under(&mut CompressedStore::pcie3(), iters, 3);
    let (compressed_losses, _) = train_under(
        &mut CompressedStore::new(SzConfig::with_error_bound(1e-3)),
        iters,
        3,
    );
    assert_eq!(base, lossless, "lossless must be bit-identical to raw");
    assert_eq!(base, migrated, "migration must be bit-identical to raw");
    assert_eq!(
        base_losses, lossless_losses,
        "lossless loss trajectory diverged"
    );
    assert_eq!(
        base_losses, migrated_losses,
        "migrated loss trajectory diverged"
    );
    for (name, losses) in [("raw", &base_losses), ("compressed", &compressed_losses)] {
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{name}: loss did not fall over {iters} steps: {losses:?}"
        );
    }
}

#[test]
#[ignore = "long trajectory (~40s); CI runs it under EBTRAIN_FULL_E2E=1 via --ignored"]
fn every_storage_policy_trains_to_competence() {
    let iters = 40;
    let (_, base) = train_under(&mut RawStore::new(), iters, 3);
    let (_, lossless) = train_under(&mut CompressedStore::lossless(), iters, 3);
    let (_, migrated) = train_under(&mut CompressedStore::pcie3(), iters, 3);
    let (_, compressed) = train_under(
        &mut CompressedStore::new(SzConfig::with_error_bound(1e-3)),
        iters,
        3,
    );
    // The toy task is easy: every policy must clear 75% (chance = 25%).
    for (name, correct) in [
        ("raw", base),
        ("lossless", lossless),
        ("migrated", migrated),
        ("compressed", compressed),
    ] {
        assert!(
            correct > 96,
            "{name}: {correct}/128 — policy broke training"
        );
    }
    // Bit-exact policies match the baseline exactly (same arithmetic).
    assert_eq!(base, lossless, "lossless must be bit-identical to raw");
    assert_eq!(base, migrated, "migration must be bit-identical to raw");
}

/// Short twin of
/// [`adaptive_framework_matches_baseline_accuracy_with_large_ratio`]:
/// enough steps to cross one `w_interval` boundary, pinning that the
/// framework trains (loss falls) and compresses conv activations well,
/// without the 50-iteration accuracy-parity run.
#[test]
fn adaptive_framework_smoke() {
    let data = dataset();
    let net = zoo::tiny_vgg(4, 7);
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig {
            lr: 0.01,
            ..SgdConfig::default()
        },
        FrameworkConfig {
            w_interval: 8,
            ..FrameworkConfig::default()
        },
    );
    let mut first = None;
    let mut last = 0.0;
    for i in 0..10 {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = trainer.step(x, &labels).expect("step");
        if first.is_none() {
            first = Some(r.loss);
        }
        last = r.loss;
    }
    assert!(
        last < first.unwrap(),
        "framework loss did not fall: {first:?} -> {last}"
    );
    let ratio = trainer.store_metrics().compressible_ratio();
    assert!(ratio > 2.0, "conv activation ratio only {ratio:.2}x");
}

#[test]
#[ignore = "long trajectory (~25s); CI runs it under EBTRAIN_FULL_E2E=1 via --ignored"]
fn adaptive_framework_matches_baseline_accuracy_with_large_ratio() {
    let data = dataset();
    let iters = 50;
    let (_, base) = train_under(&mut RawStore::new(), iters, 7);

    let net = zoo::tiny_vgg(4, 7);
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig {
            lr: 0.01,
            ..SgdConfig::default()
        },
        FrameworkConfig {
            w_interval: 8,
            ..FrameworkConfig::default()
        },
    );
    for i in 0..iters {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        trainer.step(x, &labels).expect("step");
    }
    let (vx, vl) = data.val_batch(0, 128);
    let (_, correct) = trainer.evaluate(vx, &vl).expect("eval");

    let base_acc = base as f64 / 128.0;
    let fw_acc = correct as f64 / 128.0;
    assert!(
        (base_acc - fw_acc).abs() < 0.08,
        "accuracy drift too large: baseline {base_acc:.3} vs framework {fw_acc:.3}"
    );
    let ratio = trainer.store_metrics().compressible_ratio();
    assert!(ratio > 2.0, "conv activation ratio only {ratio:.2}x");
}

/// Short twin of [`exact_clt_form_also_trains`]: a handful of steps is
/// enough to pin that the exact-CLT bound form wires up and compresses.
#[test]
fn exact_clt_form_smoke() {
    let data = dataset();
    let net = zoo::tiny_resnet(4, 5);
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig::default(),
        FrameworkConfig {
            w_interval: 4,
            model_form: ModelForm::ExactClt,
            ..FrameworkConfig::default()
        },
    );
    let mut first = None;
    let mut last = 0.0;
    for i in 0..5 {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = trainer.step(x, &labels).expect("step");
        if first.is_none() {
            first = Some(r.loss);
        }
        last = r.loss;
    }
    assert!(
        last < first.unwrap(),
        "loss must fall under exact-CLT bounds"
    );
    assert!(trainer.store_metrics().compressible_ratio() > 1.0);
}

#[test]
#[ignore = "long trajectory (~35s); CI runs it under EBTRAIN_FULL_E2E=1 via --ignored"]
fn exact_clt_form_also_trains() {
    let data = dataset();
    let net = zoo::tiny_resnet(4, 5);
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig::default(),
        FrameworkConfig {
            w_interval: 8,
            model_form: ModelForm::ExactClt,
            ..FrameworkConfig::default()
        },
    );
    let mut first = None;
    let mut last = 0.0;
    for i in 0..30 {
        let (x, labels) = data.batch((i * 16) as u64, 16);
        let r = trainer.step(x, &labels).expect("step");
        if first.is_none() {
            first = Some(r.loss);
        }
        last = r.loss;
    }
    assert!(
        last < first.unwrap(),
        "loss must fall under exact-CLT bounds"
    );
    assert!(trainer.store_metrics().compressible_ratio() > 1.0);
}

#[test]
fn training_is_deterministic_given_seeds() {
    let run = || {
        let data = dataset();
        let mut net = zoo::tiny_alexnet(4, 9);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut losses = Vec::new();
        for i in 0..10 {
            let (x, labels) = data.batch((i * 8) as u64, 8);
            let r = train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .expect("step");
            losses.push(r.loss);
        }
        losses
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

#[test]
fn store_is_fully_drained_every_iteration() {
    let data = dataset();
    let mut net = zoo::tiny_resnet(4, 2);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut store = CompressedStore::new(SzConfig::with_error_bound(1e-3));
    let plan = CompressionPlan::new();
    for i in 0..3 {
        let (x, labels) = data.batch((i * 8) as u64, 8);
        train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .expect("step");
        assert_eq!(
            store.current_bytes(),
            0,
            "leak: activations left in store after backward (iter {i})"
        );
    }
    assert!(store.peak_bytes() > 0);
}

#[test]
fn peak_memory_shrinks_under_compression() {
    let data = dataset();
    let measure = |store: &mut dyn ActivationStore| {
        let mut net = zoo::tiny_vgg(4, 3);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig::default());
        let plan = CompressionPlan::new();
        let (x, labels) = data.batch(0, 16);
        train_step(&mut net, &head, &mut opt, store, &plan, x, &labels, false)
            .expect("step")
            .peak_store_bytes
    };
    let raw_peak = measure(&mut RawStore::new());
    let comp_peak = measure(&mut CompressedStore::new(SzConfig::with_error_bound(1e-2)));
    assert!(
        comp_peak * 2 < raw_peak,
        "compressed peak {comp_peak} not well below raw peak {raw_peak}"
    );
}
