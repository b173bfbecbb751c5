//! Training step with modelled gradient noise injected between backward
//! and the optimizer update (the Fig 9 sweep mechanics).

use ebtrain_core::inject::inject_conv_gradient_noise;
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::Sgd;
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::train::{train_step_synced, GradSync, SyncAction};
use ebtrain_dnn::Result;
use ebtrain_tensor::Tensor;

/// Adds the noise once backward is done, then lets the local SGD step
/// run.
struct GradientNoise {
    fraction: f64,
    seed: u64,
}

impl GradSync for GradientNoise {
    fn finish(&mut self, net: &mut Network) -> Result<SyncAction> {
        if self.fraction > 0.0 {
            inject_conv_gradient_noise(net, self.fraction, self.seed);
        }
        Ok(SyncAction::LocalStep)
    }
}

/// One iteration with `N(0, (fraction·mean|G|)²)` noise added to every
/// conv weight gradient before the SGD update. `fraction = 0` is the
/// clean baseline (same code path, so timings stay comparable).
pub fn noisy_train_step(
    net: &mut Network,
    head: &SoftmaxCrossEntropy,
    opt: &mut Sgd,
    x: Tensor,
    labels: &[usize],
    fraction: f64,
    noise_seed: u64,
) -> Result<(f32, usize)> {
    let mut noise = GradientNoise {
        fraction,
        seed: noise_seed,
    };
    let r = train_step_synced(
        net,
        head,
        opt,
        &mut RawStore::new(),
        &CompressionPlan::new(),
        x,
        labels,
        false,
        Some(&mut noise),
    )?;
    Ok((r.loss, r.correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_data::{SynthConfig, SynthImageNet};
    use ebtrain_dnn::optimizer::SgdConfig;
    use ebtrain_dnn::train::train_step;
    use ebtrain_dnn::zoo;

    fn dataset() -> SynthImageNet {
        SynthImageNet::new(SynthConfig {
            classes: 4,
            image_hw: 32,
            noise: 0.1,
            seed: 3,
        })
    }

    /// Every parameter's bits, in layer order.
    fn param_bits(net: &Network) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_layers(&mut |layer| {
            for p in layer.params() {
                bits.extend(p.value.data().iter().map(|v| v.to_bits()));
            }
        });
        bits
    }

    /// Three steps of `tiny_vgg` at `fraction`: each step's loss bits and
    /// the final parameter bits.
    fn noisy_run(fraction: f64) -> (Vec<u32>, Vec<u32>) {
        let data = dataset();
        let mut net = zoo::tiny_vgg(4, 5);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig::default());
        let losses = (0..3)
            .map(|i| {
                let (x, labels) = data.batch(i * 8, 8);
                let (loss, _) =
                    noisy_train_step(&mut net, &head, &mut opt, x, &labels, fraction, i).unwrap();
                loss.to_bits()
            })
            .collect();
        assert_eq!(opt.iteration(), 3);
        (losses, param_bits(&net))
    }

    #[test]
    fn clean_noisy_step_is_the_plain_step() {
        let data = dataset();
        let mut net = zoo::tiny_vgg(4, 5);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig::default());
        let plan = CompressionPlan::new();
        let losses: Vec<u32> = (0..3)
            .map(|i| {
                let (x, labels) = data.batch(i * 8, 8);
                let mut store = RawStore::new();
                let r = train_step(
                    &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
                )
                .unwrap();
                r.loss.to_bits()
            })
            .collect();
        assert_eq!(noisy_run(0.0), (losses, param_bits(&net)));
    }

    #[test]
    fn noise_reaches_the_update() {
        let (clean_losses, clean_params) = noisy_run(0.0);
        let (noisy_losses, noisy_params) = noisy_run(0.05);
        // The first loss precedes any update; the noise shows after it.
        assert_eq!(clean_losses[0], noisy_losses[0]);
        assert!(noisy_losses.iter().all(|&b| f32::from_bits(b).is_finite()));
        assert_ne!(clean_params, noisy_params);
    }
}
