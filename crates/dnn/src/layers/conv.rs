//! 2-D convolution — the layer class the paper's framework was built
//! around, and with [`Linear`](super::Linear) one of the two whose saved
//! inputs it compresses.
//!
//! Data dependencies (paper Fig 4): the weight gradient needs the forward
//! input activation (`dW = dY ⋆ X`), so the input is parked in the
//! activation store with `compressible = true` and whatever error bound
//! the adaptive controller chose for this layer. The loss propagated to
//! the previous layer (`dX = W ⋆ dY`) touches only the weights, so
//! compression error enters training **exclusively** through `dW` — the
//! observation that makes the paper's §3.2 analysis tractable.

use crate::layer::{
    BackwardContext, ConvLayerStats, ForwardContext, Layer, LayerId, LayerKind, Param, SlotId,
};
use crate::{DnnError, Result};
use ebtrain_tensor::{col2im, gemm_nn, gemm_nt, gemm_tn, im2col, Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 2-D convolution with square stride/padding and optional bias.
pub struct Conv2d {
    id: LayerId,
    name: String,
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    stats: ConvLayerStats,
    /// Input shape recorded at forward for the backward pass.
    in_shape: Vec<usize>,
}

impl Conv2d {
    /// New conv layer with He-normal weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: LayerId,
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Conv2d {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_c * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        Conv2d {
            id,
            name: name.into(),
            in_c,
            out_c,
            kh: kernel,
            kw: kernel,
            stride,
            pad,
            weight: Param::new(
                Tensor::randn(&[out_c, in_c, kernel, kernel], std, &mut rng),
                true,
            ),
            bias: Param::new(Tensor::zeros(&[out_c]), false),
            stats: ConvLayerStats::default(),
            in_shape: Vec::new(),
        }
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_c: self.in_c,
            in_h,
            in_w,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Kernel spatial size (1 for the 1×1 convs the paper's §5.4 flags as
    /// compression-unfriendly).
    pub fn kernel(&self) -> usize {
        self.kh
    }
}

impl Layer for Conv2d {
    fn id(&self) -> LayerId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let [n, c, h, w] = *in_shape else {
            return Err(DnnError::Build(format!(
                "{}: conv expects NCHW input, got {in_shape:?}",
                self.name
            )));
        };
        if c != self.in_c {
            return Err(DnnError::Build(format!(
                "{}: expected {} input channels, got {c}",
                self.name, self.in_c
            )));
        }
        let geo = self.geometry(h, w);
        geo.validate()?;
        Ok(vec![n, self.out_c, geo.out_h(), geo.out_w()])
    }

    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        let (n, c, h, w) = x.dims4();
        if c != self.in_c {
            return Err(DnnError::State(format!(
                "{}: channel mismatch {c} != {}",
                self.name, self.in_c
            )));
        }
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        let mut y = Tensor::zeros(&[n, self.out_c, oh, ow]);
        let mut col = vec![0.0f32; rows * cols];
        let w2d = self.weight.value.data();
        let in_plane = c * h * w;
        let out_plane = self.out_c * oh * ow;
        for s in 0..n {
            im2col(&geo, &x.data()[s * in_plane..(s + 1) * in_plane], &mut col);
            let y_s = &mut y.data_mut()[s * out_plane..(s + 1) * out_plane];
            gemm_nn(self.out_c, rows, cols, w2d, &col, y_s);
            for oc in 0..self.out_c {
                let b = self.bias.value.data()[oc];
                if b != 0.0 {
                    for v in &mut y_s[oc * oh * ow..(oc + 1) * oh * ow] {
                        *v += b;
                    }
                }
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
            let (_, _, oh_b, ow_b) = dy.dims4();
            self.stats.collect_loss(&dy, oh_b * ow_b);
        }
        let x = ctx.store.load(SlotId(self.id, 0))?.into_f32()?;
        x.expect_shape(&self.in_shape)?;
        let (n, c, h, w) = x.dims4();
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        dy.expect_shape(&[n, self.out_c, oh, ow])?;

        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let mut col = vec![0.0f32; rows * cols];
        let mut dcol = vec![0.0f32; rows * cols];
        let in_plane = c * h * w;
        let out_plane = self.out_c * oh * ow;
        let w2d = self.weight.value.data().to_vec();
        for s in 0..n {
            let x_s = &x.data()[s * in_plane..(s + 1) * in_plane];
            let dy_s = &dy.data()[s * out_plane..(s + 1) * out_plane];
            // dW += dY_s · col(X_s)^T   — the error-carrying product.
            im2col(&geo, x_s, &mut col);
            gemm_nt(
                self.out_c,
                cols,
                rows,
                dy_s,
                &col,
                self.weight.grad.data_mut(),
            );
            // db += row sums of dY_s
            for oc in 0..self.out_c {
                self.bias.grad.data_mut()[oc] +=
                    dy_s[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
            }
            // dX_s = col2im(W^T · dY_s) — untouched by compression error.
            dcol.fill(0.0);
            gemm_tn(rows, self.out_c, cols, &w2d, dy_s, &mut dcol);
            col2im(
                &geo,
                &dcol,
                &mut dx.data_mut()[s * in_plane..(s + 1) * in_plane],
            );
        }
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
    use crate::layer::CompressionPlan;
    use crate::store::{ActivationStore, RawStore};

    fn run_forward(conv: &mut Conv2d, x: Tensor, store: &mut dyn ActivationStore) -> Tensor {
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store,
            training: true,
            collect: true,
            plan: &plan,
        };
        conv.forward(x, &mut ctx).unwrap()
    }

    fn run_backward(conv: &mut Conv2d, dy: Tensor, store: &mut dyn ActivationStore) -> Tensor {
        let mut ctx = BackwardContext {
            store,
            collect: true,
            grad_ready: None,
        };
        conv.backward(dy, &mut ctx).unwrap()
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv, 1 channel, weight = 1: y == x.
        let mut conv = Conv2d::new(0, "c", 1, 1, 1, 1, 0, 1);
        conv.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]).unwrap();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let mut store = RawStore::new();
        let y = run_forward(&mut conv, x.clone(), &mut store);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum-kernel over a 3x3 input, no pad: output = sum of all 9 = 45.
        let mut conv = Conv2d::new(0, "c", 1, 1, 3, 1, 0, 1);
        conv.weight.value = Tensor::full(&[1, 1, 3, 3], 1.0);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let mut store = RawStore::new();
        let y = run_forward(&mut conv, x, &mut store);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 45.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut conv = Conv2d::new(0, "c", 1, 2, 1, 1, 0, 1);
        conv.weight.value = Tensor::from_vec(&[2, 1, 1, 1], vec![0.0, 0.0]).unwrap();
        conv.bias.value = Tensor::from_vec(&[2], vec![3.0, -1.0]).unwrap();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let mut store = RawStore::new();
        let y = run_forward(&mut conv, x, &mut store);
        assert_eq!(&y.data()[0..4], &[3.0; 4]);
        assert_eq!(&y.data()[4..8], &[-1.0; 4]);
    }

    #[test]
    fn out_shape_matches_alexnet_conv1() {
        let conv = Conv2d::new(0, "conv1", 3, 96, 11, 4, 2, 1);
        let s = conv.out_shape(&[32, 3, 224, 224]).unwrap();
        assert_eq!(s, vec![32, 96, 55, 55]);
        assert!(conv.out_shape(&[32, 4, 224, 224]).is_err());
    }

    #[test]
    fn numerical_gradient_check_weights_and_input() {
        // Finite-difference check on a tiny conv: the canonical backward
        // correctness test.
        let mut conv = Conv2d::new(0, "c", 2, 3, 3, 1, 1, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let eps = 1e-2f32;

        // Analytic gradients with upstream dy = all ones (loss = sum(y)).
        let mut store = RawStore::new();
        let y = run_forward(&mut conv, x.clone(), &mut store);
        let dy = Tensor::full(y.shape(), 1.0);
        let dx = run_backward(&mut conv, dy, &mut store);
        let dw_analytic = conv.weight.grad.clone();

        // Numerical dL/dW for a few weight entries.
        for &wi in &[0usize, 5, 17, 31] {
            let orig = conv.weight.value.data()[wi];
            conv.weight.value.data_mut()[wi] = orig + eps;
            let mut s1 = RawStore::new();
            let yp = run_forward(&mut conv, x.clone(), &mut s1);
            let lp: f32 = yp.data().iter().sum();
            conv.weight.value.data_mut()[wi] = orig - eps;
            let mut s2 = RawStore::new();
            let ym = run_forward(&mut conv, x.clone(), &mut s2);
            let lm: f32 = ym.data().iter().sum();
            conv.weight.value.data_mut()[wi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw_analytic.data()[wi];
            assert!(
                (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "dW[{wi}]: numeric {num} vs analytic {ana}"
            );
        }

        // Numerical dL/dx for a few input entries.
        for &xi in &[0usize, 13, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut s1 = RawStore::new();
            let lp: f32 = run_forward(&mut conv, xp, &mut s1).data().iter().sum();
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let mut s2 = RawStore::new();
            let lm: f32 = run_forward(&mut conv, xm, &mut s2).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.data()[xi];
            assert!(
                (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                "dx[{xi}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn collect_refreshes_sparsity_and_lbar() {
        let mut conv = Conv2d::new(3, "c", 1, 1, 3, 1, 1, 7);
        let mut data = vec![0.0f32; 64];
        for v in data.iter_mut().take(16) {
            *v = 1.0;
        }
        let x = Tensor::from_vec(&[1, 1, 8, 8], data).unwrap();
        let mut store = RawStore::new();
        let y = run_forward(&mut conv, x, &mut store);
        let stats = conv.conv_stats().unwrap();
        assert!((stats.sparsity_r - 0.25).abs() < 1e-9);
        assert_eq!(stats.batch_size, 1);
        assert_eq!(stats.act_elems_per_sample, 64);
        let dy = Tensor::full(y.shape(), 0.5);
        run_backward(&mut conv, dy, &mut store);
        assert!((conv.conv_stats().unwrap().l_bar - 0.5).abs() < 1e-6);
    }

    #[test]
    fn inference_mode_saves_nothing() {
        let mut conv = Conv2d::new(0, "c", 1, 1, 3, 1, 1, 7);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: false,
            collect: false,
            plan: &plan,
        };
        conv.forward(x, &mut ctx).unwrap();
        assert_eq!(store.current_bytes(), 0);
    }
}
