//! Cross-crate property tests on the compressor contracts, driven by
//! *realistic* activation tensors produced by actual network forward
//! passes (unit tests inside `ebtrain-sz` use synthetic data; these close
//! the loop with the real producer).

use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::{CompressionPlan, ForwardContext};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::zoo;
use ebtrain_imgcomp::JpegActConfig;
use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};
use ebtrain_tensor::Tensor;
use proptest::prelude::*;

/// Capture all compressible (conv- and FC-input) activations of a tiny net
/// on a real batch.
fn real_activations(seed: u64) -> Vec<Tensor> {
    use ebtrain_dnn::layer::{SaveHint, Saved, SlotId};
    use ebtrain_dnn::store::{ActivationStore, StoreMetrics};

    struct Grab {
        inner: RawStore,
        grabbed: Vec<Tensor>,
    }
    impl ActivationStore for Grab {
        fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
            if hint.compressible {
                if let Saved::F32(t) = &value {
                    self.grabbed.push(t.clone());
                }
            }
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

    let data = SynthImageNet::new(SynthConfig {
        classes: 4,
        image_hw: 32,
        noise: 0.2,
        seed,
    });
    let mut net = zoo::tiny_vgg(4, seed);
    let (x, _) = data.batch(0, 4);
    let mut store = Grab {
        inner: RawStore::new(),
        grabbed: Vec::new(),
    };
    let plan = CompressionPlan::new();
    let mut ctx = ForwardContext {
        store: &mut store,
        training: true,
        collect: false,
        plan: &plan,
    };
    net.forward(x, &mut ctx).expect("forward");
    store.grabbed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn error_bound_holds_on_real_activations(
        seed in 0u64..50,
        eb_exp in -4i32..-1,
    ) {
        let eb = 10f32.powi(eb_exp);
        for act in real_activations(seed) {
            let cfg = SzConfig::vanilla(eb);
            let buf = compress(act.data(), DataLayout::for_shape(act.shape()), &cfg).unwrap();
            let out = decompress(&buf).unwrap();
            for (x, y) in act.data().iter().zip(&out) {
                prop_assert!((x - y).abs() <= eb, "|{} - {}| > {}", x, y, eb);
            }
        }
    }

    #[test]
    fn zero_filter_preserves_relu_sparsity_structure(
        seed in 0u64..50,
    ) {
        let eb = 1e-2f32;
        for act in real_activations(seed) {
            // Both zero-preserving modes: the paper's filter on the
            // classic quantizer, and the dual-quant framework default.
            for cfg in [SzConfig::classic(eb), SzConfig::with_error_bound(eb)] {
                let buf = compress(act.data(), DataLayout::for_shape(act.shape()), &cfg).unwrap();
                let out = decompress(&buf).unwrap();
                for (x, y) in act.data().iter().zip(&out) {
                    if *x == 0.0 {
                        prop_assert_eq!(*y, 0.0, "zero perturbed by compression");
                    }
                }
            }
        }
    }

    #[test]
    fn sz_beats_lossless_beats_nothing_on_real_activations(
        seed in 0u64..20,
    ) {
        // The Table-1 ordering must hold on every real activation set:
        // error-bounded lossy > lossless > 1.
        let (mut raw, mut sz_b, mut ll_b) = (0usize, 0usize, 0usize);
        for act in real_activations(seed) {
            raw += act.byte_size();
            let eb = (0.01 * ebtrain_tensor::ops::abs_mean(act.data())) as f32;
            let cfg = SzConfig::with_error_bound(eb.max(1e-7));
            sz_b += compress(act.data(), DataLayout::for_shape(act.shape()), &cfg)
                .unwrap()
                .compressed_byte_len();
            ll_b += ebtrain_sz::lossless::compress(act.data()).len();
        }
        let sz_ratio = raw as f64 / sz_b as f64;
        let ll_ratio = raw as f64 / ll_b as f64;
        prop_assert!(sz_ratio > ll_ratio, "sz {} <= lossless {}", sz_ratio, ll_ratio);
        prop_assert!(ll_ratio > 1.0);
    }

    #[test]
    fn jpeg_act_roundtrips_on_real_activations(
        seed in 0u64..20,
        quality in 30u8..95,
    ) {
        for act in real_activations(seed) {
            let (n, c, h, w) = act.dims4();
            let buf = ebtrain_imgcomp::compress(
                act.data(), n * c, h, w, &JpegActConfig { quality },
            ).unwrap();
            let out = ebtrain_imgcomp::decompress(&buf).unwrap();
            prop_assert_eq!(out.len(), act.len());
            prop_assert!(out.iter().all(|v| v.is_finite()));
        }
    }
}
