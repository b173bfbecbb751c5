//! Error-injection harness (the paper's §3 methodology).
//!
//! "For the purpose of theoretical analysis, we inject the error, rather
//! than actually compressing and decompressing activation data" — this
//! module provides exactly that: a store wrapper that perturbs the saved
//! compressible activations (conv and fully connected inputs) with the
//! modelled uniform error (Figs 6/8), and a gradient perturbation for the
//! training-curve sweep (Fig 9).

use ebtrain_dnn::layer::{LayerKind, SaveHint, Saved, SlotId};
use ebtrain_dnn::network::Network;
use ebtrain_dnn::store::{ActivationStore, StoreMetrics};
use ebtrain_tensor::ops::abs_mean;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Add i.i.d. `U(−eb, +eb)` error to every element (the modelled SZ
/// reconstruction error, §3.1). With `preserve_zeros`, exact zeros are
/// left untouched — modelling the paper's zero-filter fix (Fig 6b vs 6a).
pub fn uniform_activation_error<R: Rng>(
    data: &mut [f32],
    eb: f32,
    preserve_zeros: bool,
    rng: &mut R,
) {
    for v in data.iter_mut() {
        if preserve_zeros && *v == 0.0 {
            continue;
        }
        *v += rng.gen_range(-eb..=eb);
    }
}

/// Add i.i.d. `N(0, σ²)` error to every element (the modelled gradient
/// error, §3.3 / Fig 9).
pub fn normal_gradient_error<R: Rng>(data: &mut [f32], sigma: f32, rng: &mut R) {
    if sigma <= 0.0 {
        return;
    }
    let mut i = 0;
    while i < data.len() {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f32::consts::TAU * u2;
        data[i] += sigma * r * theta.cos();
        i += 1;
        if i < data.len() {
            data[i] += sigma * r * theta.sin();
            i += 1;
        }
    }
}

/// Perturb every conv layer's **weight gradient** with normal noise of
/// spread `fraction · mean|G|` — the Fig 9 sweep, where the legend's
/// `σ = 0.01 G` means "1% of the average gradient magnitude".
///
/// Returns the number of parameters perturbed.
pub fn inject_conv_gradient_noise(net: &mut Network, fraction: f64, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = 0usize;
    net.visit_layers_mut(&mut |layer| {
        if layer.kind() != LayerKind::Conv {
            return;
        }
        // params()[0] is the conv weight by construction.
        if let Some(weight) = layer.params_mut().into_iter().next() {
            let g_mean = abs_mean(weight.grad.data());
            let sigma = (fraction * g_mean) as f32;
            normal_gradient_error(weight.grad.data_mut(), sigma, &mut rng);
            touched += weight.grad.len();
        }
    });
    touched
}

/// Store wrapper that injects modelled compression error into compressible
/// (conv- and FC-input) slots instead of compressing them.
///
/// Everything else is delegated to the inner store; byte accounting
/// reflects raw storage, which is fine — the injection experiments study
/// error propagation, not memory.
pub struct InjectingStore<S: ActivationStore> {
    inner: S,
    eb: f32,
    preserve_zeros: bool,
    rng: StdRng,
    /// Count of perturbed tensors (test/debug visibility).
    pub injected_slots: usize,
}

impl<S: ActivationStore> InjectingStore<S> {
    /// Wrap `inner`, injecting `U(−eb, +eb)` into compressible slots.
    pub fn new(inner: S, eb: f32, preserve_zeros: bool, seed: u64) -> Self {
        InjectingStore {
            inner,
            eb,
            preserve_zeros,
            rng: StdRng::seed_from_u64(seed),
            injected_slots: 0,
        }
    }

    /// Change the injected bound (e.g. per-layer sweeps).
    pub fn set_error_bound(&mut self, eb: f32) {
        self.eb = eb;
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ActivationStore> ActivationStore for InjectingStore<S> {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        let value = match value {
            Saved::F32(mut t) if hint.compressible => {
                let eb = hint.error_bound.unwrap_or(self.eb);
                uniform_activation_error(t.data_mut(), eb, self.preserve_zeros, &mut self.rng);
                self.injected_slots += 1;
                Saved::F32(t)
            }
            other => other,
        };
        self.inner.save(slot, value, hint);
    }

    fn load(&mut self, slot: SlotId) -> ebtrain_dnn::Result<Saved> {
        self.inner.load(slot)
    }
    fn current_bytes(&self) -> usize {
        self.inner.current_bytes()
    }
    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }
    fn reset_peak(&mut self) {
        self.inner.reset_peak()
    }
    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
    fn reset_metrics(&mut self) {
        self.inner.reset_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{looks_uniform, moments};
    use ebtrain_dnn::store::RawStore;
    use ebtrain_tensor::Tensor;

    #[test]
    fn uniform_error_is_bounded_and_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = vec![1.0f32; 100_000];
        let mut data = orig.clone();
        uniform_activation_error(&mut data, 1e-2, false, &mut rng);
        let errors: Vec<f32> = data.iter().zip(&orig).map(|(a, b)| a - b).collect();
        assert!(errors.iter().all(|e| e.abs() <= 1e-2 + 1e-7));
        assert!(looks_uniform(&errors, -1e-2, 1e-2));
    }

    #[test]
    fn preserve_zeros_leaves_zeros() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut data = vec![0.0f32, 1.0, 0.0, 2.0, 0.0];
        uniform_activation_error(&mut data, 0.1, true, &mut rng);
        assert_eq!(data[0], 0.0);
        assert_eq!(data[2], 0.0);
        assert_eq!(data[4], 0.0);
        assert_ne!(data[1], 1.0);
    }

    #[test]
    fn normal_error_has_requested_sigma() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = vec![0.0f32; 200_000];
        normal_gradient_error(&mut data, 0.25, &mut rng);
        let m = moments(&data);
        assert!((m.std - 0.25).abs() < 0.005, "std {}", m.std);
        assert!(m.mean.abs() < 0.005);
        assert!(m.skewness.abs() < 0.05);
    }

    #[test]
    fn zero_sigma_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut data = vec![1.0f32; 16];
        normal_gradient_error(&mut data, 0.0, &mut rng);
        assert_eq!(data, vec![1.0f32; 16]);
    }

    #[test]
    fn injecting_store_perturbs_only_compressible_f32() {
        let mut store = InjectingStore::new(RawStore::new(), 0.05, false, 7);
        let t = Tensor::full(&[64], 1.0);
        store.save(
            SlotId(0, 0),
            Saved::F32(t.clone()),
            SaveHint {
                compressible: true,
                error_bound: None,
                codec: None,
            },
        );
        store.save(SlotId(1, 0), Saved::F32(t.clone()), SaveHint::raw());
        assert_eq!(store.injected_slots, 1);
        let perturbed = store.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        assert!(perturbed.data().iter().any(|&v| v != 1.0));
        assert!(perturbed.data().iter().all(|&v| (v - 1.0).abs() <= 0.05));
        let clean = store.load(SlotId(1, 0)).unwrap().into_f32().unwrap();
        assert_eq!(clean.data(), t.data());
    }

    #[test]
    fn linear_weight_gradient_error_follows_the_exact_clt_model() {
        // §3.2 for a fully connected layer, measured: dW = dYᵀ·X sums
        // one loss term per sample (P = 1), so U(−eb, +eb) on the saved
        // non-zero inputs must show up in dW with the exact-CLT spread.
        use crate::model::{predict_sigma, predict_sigma_exact, PAPER_A};
        use ebtrain_dnn::layer::{BackwardContext, CompressionPlan, ForwardContext, Layer};
        use ebtrain_dnn::layers::Linear;
        let (n, f, o, eb) = (8usize, 96usize, 12usize, 0.05f32);
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = Tensor::randn(&[n, f], 1.0, &mut rng);
        x.data_mut().iter_mut().for_each(|v| *v = v.max(0.0)); // post-ReLU: R ≈ ½
        let dy = Tensor::randn(&[n, o], 0.3, &mut rng);
        let plan = CompressionPlan::new();
        let mut fc = Linear::new(0, "fc", f, o, 9);
        let dw = |store: &mut dyn ActivationStore, fc: &mut Linear| {
            fc.params_mut()[0].grad.data_mut().fill(0.0);
            let mut fctx = ForwardContext {
                store,
                training: true,
                collect: true,
                plan: &plan,
            };
            fc.forward(x.clone(), &mut fctx).unwrap();
            let mut bctx = BackwardContext {
                store,
                collect: true,
                grad_ready: None,
            };
            fc.backward(dy.clone(), &mut bctx).unwrap();
            fc.params()[0].grad.data().to_vec()
        };
        let clean = dw(&mut RawStore::new(), &mut fc);
        let mut noisy = InjectingStore::new(RawStore::new(), eb, true, 17);
        let mut errors = Vec::new();
        for _ in 0..200 {
            let g = dw(&mut noisy, &mut fc);
            errors.extend(g.iter().zip(&clean).map(|(a, b)| a - b));
        }
        assert_eq!(noisy.injected_slots, 200);
        let measured = moments(&errors).std;
        let st = fc.conv_stats().unwrap();
        let exact = predict_sigma_exact(st.l_rms, n, 1, eb as f64, st.sparsity_r);
        let paper = predict_sigma(PAPER_A, st.l_bar, n, eb as f64, st.sparsity_r);
        println!(
            "linear dW error: measured σ {measured:.4e}, /exact-CLT {:.3}, /paper(a=0.32) {:.3}",
            measured / exact,
            measured / paper
        );
        assert!(
            (0.7..=1.4).contains(&(measured / exact)),
            "measured {measured:.4e} vs exact-CLT {exact:.4e}"
        );
    }

    #[test]
    fn conv_gradient_noise_touches_only_convs() {
        use ebtrain_dnn::network::NetworkBuilder;
        let mut b = NetworkBuilder::new("t", &[1, 8, 8], 1);
        b.conv(2, 3, 1, 1).relu().linear(4);
        let mut net = b.build();
        // put a known gradient everywhere
        for p in net.params_mut() {
            p.grad.data_mut().fill(1.0);
        }
        let touched = inject_conv_gradient_noise(&mut net, 0.5, 11);
        assert_eq!(touched, 2 * 3 * 3); // conv weight only (2 out x 1 in x 3x3)
                                        // linear grads untouched
        let mut saw_linear_untouched = false;
        net.visit_layers(&mut |layer| {
            if layer.kind() == LayerKind::Linear {
                let g = layer.params()[0].grad.data();
                if g.iter().all(|&v| v == 1.0) {
                    saw_linear_untouched = true;
                }
            }
        });
        assert!(saw_linear_untouched);
    }
}
