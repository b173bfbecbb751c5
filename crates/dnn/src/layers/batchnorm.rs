//! Batch normalization over NCHW channels.

use crate::layer::{
    BackwardContext, ForwardContext, Layer, LayerId, LayerKind, Param, SaveHint, Saved, SlotId,
};
use crate::{DnnError, Result};
use ebtrain_tensor::ops::{nchw_channel_mean, nchw_channel_var};
use ebtrain_tensor::Tensor;

/// Batch normalization with affine transform and running statistics.
pub struct BatchNorm2d {
    id: LayerId,
    name: String,
    channels: usize,
    eps: f64,
    /// Exponential-average factor for running stats.
    momentum: f64,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    /// Batch statistics captured at forward for backward.
    batch_mean: Vec<f64>,
    batch_var: Vec<f64>,
}

impl BatchNorm2d {
    /// New BN layer (γ=1, β=0, running stats at N(0,1)).
    pub fn new(id: LayerId, name: impl Into<String>, channels: usize) -> BatchNorm2d {
        BatchNorm2d {
            id,
            name: name.into(),
            channels,
            eps: 1e-5,
            momentum: 0.9,
            gamma: Param::new(Tensor::full(&[channels], 1.0), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            batch_mean: vec![0.0; channels],
            batch_var: vec![1.0; channels],
        }
    }
}

impl Layer for BatchNorm2d {
    fn id(&self) -> LayerId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> LayerKind {
        LayerKind::BatchNorm
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let [_, c, _, _] = *in_shape else {
            return Err(DnnError::Build(format!(
                "{}: batchnorm expects NCHW, got {in_shape:?}",
                self.name
            )));
        };
        if c != self.channels {
            return Err(DnnError::Build(format!(
                "{}: expected {} channels, got {c}",
                self.name, self.channels
            )));
        }
        Ok(in_shape.to_vec())
    }

    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        let (n, c, h, w) = x.dims4();
        if c != self.channels {
            return Err(DnnError::State(format!(
                "{}: channel mismatch {c} != {}",
                self.name, self.channels
            )));
        }
        let hw = h * w;
        let (mean, var) = if ctx.training {
            let mean = nchw_channel_mean(n, c, hw, x.data());
            let var = nchw_channel_var(n, c, hw, x.data(), &mean);
            for ch in 0..c {
                self.running_mean[ch] =
                    self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * mean[ch];
                self.running_var[ch] =
                    self.momentum * self.running_var[ch] + (1.0 - self.momentum) * var[ch];
            }
            self.batch_mean = mean.clone();
            self.batch_var = var.clone();
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let mut y = Tensor::zeros(x.shape());
        for b in 0..n {
            for ch in 0..c {
                let inv_std = 1.0 / (var[ch] + self.eps).sqrt();
                let g = self.gamma.value.data()[ch] as f64;
                let bt = self.beta.value.data()[ch] as f64;
                let off = (b * c + ch) * hw;
                for i in 0..hw {
                    let xhat = (x.data()[off + i] as f64 - mean[ch]) * inv_std;
                    y.data_mut()[off + i] = (g * xhat + bt) as f32;
                }
            }
        }
        if ctx.training {
            // The gradient is not linear in the saved input, so the §3.2
            // propagation argument does not cover it: the input stays raw.
            ctx.store
                .save(SlotId(self.id, 0), Saved::F32(x), SaveHint::raw());
        }
        Ok(y)
    }

    fn backward(&mut self, dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor> {
        let x = ctx.store.load(SlotId(self.id, 0))?.into_f32()?;
        let (n, c, h, w) = x.dims4();
        dy.expect_shape(x.shape())?;
        let hw = h * w;
        let m = (n * hw) as f64;
        let mut dx = Tensor::zeros(x.shape());
        for ch in 0..c {
            let mean = self.batch_mean[ch];
            let inv_std = 1.0 / (self.batch_var[ch] + self.eps).sqrt();
            let g = self.gamma.value.data()[ch] as f64;
            // Channel-wise reductions.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for b in 0..n {
                let off = (b * c + ch) * hw;
                for i in 0..hw {
                    let xhat = (x.data()[off + i] as f64 - mean) * inv_std;
                    let d = dy.data()[off + i] as f64;
                    sum_dy += d;
                    sum_dy_xhat += d * xhat;
                }
            }
            self.gamma.grad.data_mut()[ch] += sum_dy_xhat as f32;
            self.beta.grad.data_mut()[ch] += sum_dy as f32;
            // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
            let scale = g * inv_std / m;
            for b in 0..n {
                let off = (b * c + ch) * hw;
                for i in 0..hw {
                    let xhat = (x.data()[off + i] as f64 - mean) * inv_std;
                    let d = dy.data()[off + i] as f64;
                    dx.data_mut()[off + i] = (scale * (m * d - sum_dy - xhat * sum_dy_xhat)) as f32;
                }
            }
        }
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::CompressionPlan;
    use crate::store::{ActivationStore, RawStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_forward_normalizes_channels() {
        let mut bn = BatchNorm2d::new(0, "bn", 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[8, 2, 4, 4], 3.0, &mut rng);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = bn.forward(x, &mut ctx).unwrap();
        // per-channel mean ~0, var ~1
        let m = nchw_channel_mean(8, 2, 16, y.data());
        let v = nchw_channel_var(8, 2, 16, y.data(), &m);
        for ch in 0..2 {
            assert!(m[ch].abs() < 1e-5, "mean {}", m[ch]);
            assert!((v[ch] - 1.0).abs() < 1e-3, "var {}", v[ch]);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(0, "bn", 1);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        // train once on shifted data to move running stats
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        bn.forward(x, &mut ctx).unwrap();
        // eval: with running_mean≈1.0 (0.9*0 + 0.1*10) the constant input
        // normalizes to a non-zero constant different from train output 0
        let xe = Tensor::full(&[1, 1, 2, 2], 10.0);
        // drain the saved slot first so store stays clean
        let _ = store.load(SlotId(0, 0));
        let mut ectx = ForwardContext {
            store: &mut store,
            training: false,
            collect: false,
            plan: &plan,
        };
        let ye = bn.forward(xe, &mut ectx).unwrap();
        assert!(ye.data()[0] > 0.0, "eval output {}", ye.data()[0]);
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(0, "bn", 2);
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(&[3, 2, 2, 2], 1.0, &mut rng);
        // weight the outputs so the loss isn't invariant to normalization
        let wloss: Vec<f32> = (0..x.len())
            .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.3)
            .collect();
        let loss_of = |y: &Tensor| -> f32 { y.data().iter().zip(&wloss).map(|(a, b)| a * b).sum() };
        let plan = CompressionPlan::new();
        let mut store = RawStore::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = bn.forward(x.clone(), &mut ctx).unwrap();
        let _ = loss_of(&y);
        let dy = Tensor::from_vec(x.shape(), wloss.clone()).unwrap();
        let mut bctx = BackwardContext {
            store: &mut store,
            collect: false,
            grad_ready: None,
        };
        let dx = bn.backward(dy, &mut bctx).unwrap();

        let eps = 1e-2f32;
        for &xi in &[0usize, 5, 13, 21] {
            let mut run = |delta: f32| {
                let mut xp = x.clone();
                xp.data_mut()[xi] += delta;
                let mut s = RawStore::new();
                let mut c = ForwardContext {
                    store: &mut s,
                    training: true,
                    collect: false,
                    plan: &plan,
                };
                loss_of(&bn.forward(xp, &mut c).unwrap())
            };
            let num = (run(eps) - run(-eps)) / (2.0 * eps);
            let ana = dx.data()[xi];
            assert!(
                (num - ana).abs() < 5e-2 * ana.abs().max(1.0),
                "dx[{xi}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let bn = BatchNorm2d::new(0, "bn", 4);
        assert!(bn.out_shape(&[1, 3, 2, 2]).is_err());
        assert!(bn.out_shape(&[1, 4, 2, 2]).is_ok());
    }
}
