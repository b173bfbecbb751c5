//! Fully connected layer (flattens its input per sample).
//!
//! `dW = dYᵀ·X` is linear in the saved input, so the input is parked as a
//! compressible slot under the controller's bound exactly like a
//! convolution's — the paper's §3.2 propagation analysis with one loss
//! term per sample.

use crate::layer::{
    BackwardContext, ConvLayerStats, ForwardContext, Layer, LayerId, LayerKind, Param, SlotId,
};
use crate::{DnnError, Result};
use ebtrain_tensor::{gemm_nn, gemm_nt, gemm_tn, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fully connected layer `y = x·Wᵀ + b`.
pub struct Linear {
    id: LayerId,
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    stats: ConvLayerStats,
    in_shape: Vec<usize>,
}

impl Linear {
    /// New FC layer with He-normal weights.
    pub fn new(
        id: LayerId,
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Linear {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / in_features as f32).sqrt();
        Linear {
            id,
            name: name.into(),
            in_features,
            out_features,
            weight: Param::new(
                Tensor::randn(&[out_features, in_features], std, &mut rng),
                true,
            ),
            bias: Param::new(Tensor::zeros(&[out_features]), false),
            stats: ConvLayerStats::default(),
            in_shape: Vec::new(),
        }
    }
}

impl Layer for Linear {
    fn id(&self) -> LayerId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let n = in_shape.first().copied().unwrap_or(0);
        let f: usize = in_shape[1..].iter().product();
        if f != self.in_features {
            return Err(DnnError::Build(format!(
                "{}: expected {} input features, got {f} (shape {in_shape:?})",
                self.name, self.in_features
            )));
        }
        Ok(vec![n, self.out_features])
    }

    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        let n = x.shape()[0];
        let f: usize = x.shape()[1..].iter().product();
        if f != self.in_features {
            return Err(DnnError::State(format!(
                "{}: feature mismatch {f} != {}",
                self.name, self.in_features
            )));
        }
        let mut y = Tensor::zeros(&[n, self.out_features]);
        gemm_nt(
            n,
            f,
            self.out_features,
            x.data(),
            self.weight.value.data(),
            y.data_mut(),
        );
        for row in y.data_mut().chunks_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(self.bias.value.data()) {
                *v += b;
            }
        }
        if ctx.training {
            self.in_shape = x.shape().to_vec();
            self.stats.save_input(self.id, x, ctx);
        }
        Ok(y)
    }

    fn backward(&mut self, dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor> {
        if ctx.collect {
            self.stats.collect_loss(&dy, 1);
        }
        let x = ctx.store.load(SlotId(self.id, 0))?.into_f32()?;
        let n = x.shape()[0];
        let f = self.in_features;
        let o = self.out_features;
        dy.expect_shape(&[n, o])?;
        // dW = dYᵀ · X
        gemm_tn(o, n, f, dy.data(), x.data(), self.weight.grad.data_mut());
        // db = column sums of dY
        for row in dy.data().chunks(o) {
            for (g, &v) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
        // dX = dY · W
        let mut dx = Tensor::zeros(&[n, f]);
        gemm_nn(n, o, f, dy.data(), self.weight.value.data(), dx.data_mut());
        dx.reshape_in_place(&self.in_shape)?;
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn conv_stats(&self) -> Option<ConvLayerStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{CompressionPlan, SaveHint, Saved};
    use crate::store::{ActivationStore, RawStore};

    fn contexts() -> (RawStore, CompressionPlan) {
        (RawStore::new(), CompressionPlan::new())
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut fc = Linear::new(0, "fc", 2, 2, 1);
        fc.weight.value = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap();
        fc.bias.value = Tensor::from_vec(&[2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(&[1, 2], vec![1., 1.]).unwrap();
        let (mut store, plan) = contexts();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = fc.forward(x, &mut ctx).unwrap();
        // y0 = 1*1+2*1+0.5 = 3.5 ; y1 = 3+4-0.5 = 6.5
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn flattens_nchw_input() {
        let fc = Linear::new(0, "fc", 2 * 3 * 3, 10, 1);
        assert_eq!(fc.out_shape(&[4, 2, 3, 3]).unwrap(), vec![4, 10]);
        assert!(fc.out_shape(&[4, 2, 3, 4]).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut fc = Linear::new(0, "fc", 3, 2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let (mut store, plan) = contexts();
        let mut fctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = fc.forward(x.clone(), &mut fctx).unwrap();
        let dy = Tensor::full(y.shape(), 1.0);
        let mut bctx = BackwardContext {
            store: &mut store,
            collect: false,
            grad_ready: None,
        };
        let dx = fc.backward(dy, &mut bctx).unwrap();
        let eps = 1e-2f32;
        // check a weight and an input entry by finite differences
        for &wi in &[0usize, 3, 5] {
            let orig = fc.weight.value.data()[wi];
            let mut run = |v: f32| {
                fc.weight.value.data_mut()[wi] = v;
                let (mut s, p) = contexts();
                let mut c = ForwardContext {
                    store: &mut s,
                    training: true,
                    collect: false,
                    plan: &p,
                };
                let out = fc.forward(x.clone(), &mut c).unwrap();
                out.data().iter().sum::<f32>()
            };
            let num = (run(orig + eps) - run(orig - eps)) / (2.0 * eps);
            fc.weight.value.data_mut()[wi] = orig;
            let ana = fc.weight.grad.data()[wi];
            assert!(
                (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "dW[{wi}] {num} vs {ana}"
            );
        }
        for &xi in &[0usize, 7, 11] {
            let mut run = |delta: f32| {
                let mut xp = x.clone();
                xp.data_mut()[xi] += delta;
                let (mut s, p) = contexts();
                let mut c = ForwardContext {
                    store: &mut s,
                    training: true,
                    collect: false,
                    plan: &p,
                };
                fc.forward(xp, &mut c).unwrap().data().iter().sum::<f32>()
            };
            let num = (run(eps) - run(-eps)) / (2.0 * eps);
            let ana = dx.data()[xi];
            assert!(
                (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "dx[{xi}] {num} vs {ana}"
            );
        }
    }

    #[test]
    fn input_is_saved_compressible_under_the_plan_bound() {
        use crate::store::CompressedStore;
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Tensor::randn(&[4, 64], 1.0, &mut rng);
        for v in x.data_mut().iter_mut().step_by(2) {
            *v = 0.0;
        }
        let mut fc = Linear::new(5, "fc", 64, 4, 1);
        let mut plan = CompressionPlan::new();
        plan.set(5, 0.05);
        let mut store = CompressedStore::new(ebtrain_sz::SzConfig::with_error_bound(1e-6));
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: true,
            plan: &plan,
        };
        let y = fc.forward(x.clone(), &mut ctx).unwrap();
        assert_eq!(
            store.metrics().compressible_raw_bytes,
            x.byte_size() as u64,
            "the whole input is a compressible slot"
        );
        // The slot comes back within the plan's bound, not the store's 1e-6.
        let back = store.load(SlotId(5, 0)).unwrap().into_f32().unwrap();
        let worst = x
            .data()
            .iter()
            .zip(back.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 0.05 && worst > 1e-4, "max |x - x̂| = {worst}");
        store.save(SlotId(5, 0), Saved::F32(back), SaveHint::raw());

        let mut bctx = BackwardContext {
            store: &mut store,
            collect: true,
            grad_ready: None,
        };
        fc.backward(Tensor::full(y.shape(), -0.5), &mut bctx)
            .unwrap();
        // The statistics the controller bounds a convolution with.
        let stats = fc.conv_stats().unwrap();
        assert_eq!(stats.last_error_bound, Some(0.05));
        assert_eq!((stats.batch_size, stats.act_elems_per_sample), (4, 64));
        assert_eq!(stats.out_positions_per_sample, 1);
        assert!((stats.sparsity_r - 0.5).abs() < 1e-9);
        assert!((stats.l_bar - 0.5).abs() < 1e-6 && (stats.l_rms - 0.5).abs() < 1e-6);
    }
}
