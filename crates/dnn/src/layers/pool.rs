//! Max and average pooling.

use crate::layer::{
    BackwardContext, ForwardContext, Layer, LayerId, LayerKind, SaveHint, Saved, SlotId,
};
use crate::{DnnError, Result};
use ebtrain_tensor::Tensor;

fn pool_out_dim(in_d: usize, k: usize, stride: usize, pad: usize) -> usize {
    (in_d + 2 * pad).saturating_sub(k) / stride + 1
}

/// Bits per packed window offset: `⌈log₂ k²⌉` (2 for 2×2, 4 for 3×3).
fn offset_bits(k: usize) -> usize {
    (k * k).next_power_of_two().trailing_zeros() as usize
}

/// OR the `bits`-wide field `v` in at bit position `bit` of zeroed
/// `words`; a field may straddle two words (5-bit offsets of a 5×5 window).
fn put_bits(words: &mut [u64], bit: usize, bits: usize, v: u64) {
    if bits == 0 {
        return;
    }
    let (word, shift) = (bit / 64, bit % 64);
    words[word] |= v << shift;
    if shift + bits > 64 {
        words[word + 1] |= v >> (64 - shift);
    }
}

/// Read the `bits`-wide field at bit position `bit` (inverse of [`put_bits`]).
fn get_bits(words: &[u64], bit: usize, bits: usize) -> u64 {
    if bits == 0 {
        return 0;
    }
    let (word, shift) = (bit / 64, bit % 64);
    let mut v = words[word] >> shift;
    if shift + bits > 64 {
        v |= words[word + 1] << (64 - shift);
    }
    v & ((1u64 << bits) - 1)
}

/// Max pooling; saves each output's argmax as its offset `ky·k + kx`
/// inside the window, bit-packed at `⌈log₂ k²⌉` bits per *output* element.
pub struct MaxPool2d {
    id: LayerId,
    name: String,
    k: usize,
    stride: usize,
    pad: usize,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// New max-pool layer.
    pub fn new(id: LayerId, name: impl Into<String>, k: usize, stride: usize, pad: usize) -> Self {
        MaxPool2d {
            id,
            name: name.into(),
            k,
            stride,
            pad,
            in_shape: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn id(&self) -> LayerId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> LayerKind {
        LayerKind::MaxPool
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let [n, c, h, w] = *in_shape else {
            return Err(DnnError::Build(format!(
                "{}: pool expects NCHW, got {in_shape:?}",
                self.name
            )));
        };
        Ok(vec![
            n,
            c,
            pool_out_dim(h, self.k, self.stride, self.pad),
            pool_out_dim(w, self.k, self.stride, self.pad),
        ])
    }

    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        let (n, c, h, w) = x.dims4();
        let oh = pool_out_dim(h, self.k, self.stride, self.pad);
        let ow = pool_out_dim(w, self.k, self.stride, self.pad);
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        let bits = offset_bits(self.k);
        let len = n * c * oh * ow * bits;
        let mut words = vec![0u64; len.div_ceil(64)];
        let mut out = 0usize;
        for s in 0..n {
            for ch in 0..c {
                let plane_off = (s * c + ch) * h * w;
                let plane = &x.data()[plane_off..plane_off + h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = None;
                        for ky in 0..self.k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..self.k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let v = plane[iy as usize * w + ix as usize];
                                if v > best {
                                    best = v;
                                    best_off = Some(ky * self.k + kx);
                                }
                                // A window of only NaN/−∞ never updates
                                // `best`: its gradient goes to the first
                                // in-plane cell, not to a padding cell.
                                best_off.get_or_insert(ky * self.k + kx);
                            }
                        }
                        let Some(off) = best_off else {
                            return Err(DnnError::State(format!(
                                "{}: window ({oy}, {ox}) covers no cell of the {h}×{w} plane",
                                self.name
                            )));
                        };
                        *y.at4_mut(s, ch, oy, ox) = best;
                        put_bits(&mut words, out * bits, bits, off as u64);
                        out += 1;
                    }
                }
            }
        }
        if ctx.training {
            self.in_shape = x.shape().to_vec();
            ctx.store.save(
                SlotId(self.id, 0),
                Saved::Bits { words, len },
                SaveHint::raw(),
            );
        }
        Ok(y)
    }

    fn backward(&mut self, dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor> {
        let state = |what: String| DnnError::State(format!("{}: {what}", self.name));
        let Saved::Bits { words, len } = ctx.store.load(SlotId(self.id, 0))? else {
            return Err(state("expected a packed offset slot".into()));
        };
        let [n, c, h, w] = *self.in_shape.as_slice() else {
            return Err(state("backward before forward".into()));
        };
        let oh = pool_out_dim(h, self.k, self.stride, self.pad);
        let ow = pool_out_dim(w, self.k, self.stride, self.pad);
        dy.expect_shape(&[n, c, oh, ow])?;
        let bits = offset_bits(self.k);
        if len != dy.len() * bits || words.len() != len.div_ceil(64) {
            return Err(state(format!(
                "offset slot holds {len} bits in {} words, want {} outputs × {bits} bits",
                words.len(),
                dy.len()
            )));
        }
        let k = self.k;
        // Offset → (ky, kx), once; an offset past the table is ≥ k².
        let steps: Vec<(usize, usize)> = (0..k * k).map(|off| (off / k, off % k)).collect();
        // Window start + in-window step → in-plane coordinate, if any.
        let cell = |start: usize, step: usize, dim: usize| {
            (start * self.stride + step)
                .checked_sub(self.pad)
                .filter(|&i| i < dim)
        };
        let mut dx = Tensor::zeros(&self.in_shape);
        let (grad, dx_data) = (dy.data(), dx.data_mut());
        let mut i = 0usize;
        for plane in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let off = get_bits(&words, i * bits, bits) as usize;
                    let at = (steps.get(off))
                        .and_then(|&(ky, kx)| Some((cell(oy, ky, h)?, cell(ox, kx, w)?)));
                    let Some((iy, ix)) = at else {
                        return Err(state(format!(
                            "offset {off} of output ({oy}, {ox}) in plane {plane} is outside \
                             the {k}×{k} window or the {h}×{w} plane"
                        )));
                    };
                    dx_data[plane * h * w + iy * w + ix] += grad[i];
                    i += 1;
                }
            }
        }
        Ok(dx)
    }
}

/// Average pooling (set `k == input spatial size` for global average
/// pooling, or use [`AvgPool2d::global`]). Padding cells are excluded
/// from the divisor.
pub struct AvgPool2d {
    id: LayerId,
    name: String,
    k: usize,
    stride: usize,
    pad: usize,
    /// `k == 0` sentinel: global pooling (kernel = full spatial extent).
    global: bool,
    in_shape: Vec<usize>,
}

impl AvgPool2d {
    /// New average-pool layer.
    pub fn new(id: LayerId, name: impl Into<String>, k: usize, stride: usize, pad: usize) -> Self {
        AvgPool2d {
            id,
            name: name.into(),
            k,
            stride,
            pad,
            global: false,
            in_shape: Vec::new(),
        }
    }

    /// Global average pooling (output 1×1 per channel).
    pub fn global(id: LayerId, name: impl Into<String>) -> Self {
        AvgPool2d {
            id,
            name: name.into(),
            k: 0,
            stride: 1,
            pad: 0,
            global: true,
            in_shape: Vec::new(),
        }
    }

    fn kernel_for(&self, h: usize, w: usize) -> (usize, usize, usize, usize) {
        if self.global {
            (h, w, 1, 0)
        } else {
            (self.k, self.k, self.stride, self.pad)
        }
    }
}

impl Layer for AvgPool2d {
    fn id(&self) -> LayerId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> LayerKind {
        LayerKind::AvgPool
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let [n, c, h, w] = *in_shape else {
            return Err(DnnError::Build(format!(
                "{}: pool expects NCHW, got {in_shape:?}",
                self.name
            )));
        };
        let (kh, kw, s, p) = self.kernel_for(h, w);
        Ok(vec![
            n,
            c,
            pool_out_dim(h, kh, s, p),
            pool_out_dim(w, kw, s, p),
        ])
    }

    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        let (n, c, h, w) = x.dims4();
        let (kh, kw, stride, pad) = self.kernel_for(h, w);
        let oh = pool_out_dim(h, kh, stride, pad);
        let ow = pool_out_dim(w, kw, stride, pad);
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        for s in 0..n {
            for ch in 0..c {
                let plane_off = (s * c + ch) * h * w;
                let plane = &x.data()[plane_off..plane_off + h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        let mut count = 0usize;
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += plane[iy as usize * w + ix as usize];
                                count += 1;
                            }
                        }
                        *y.at4_mut(s, ch, oy, ox) = acc / count.max(1) as f32;
                    }
                }
            }
        }
        if ctx.training {
            self.in_shape = x.shape().to_vec();
        }
        Ok(y)
    }

    fn backward(&mut self, dy: Tensor, _ctx: &mut BackwardContext) -> Result<Tensor> {
        let [n, c, h, w] = *self.in_shape.as_slice() else {
            return Err(DnnError::State("avgpool backward before forward".into()));
        };
        let (kh, kw, stride, pad) = self.kernel_for(h, w);
        let oh = pool_out_dim(h, kh, stride, pad);
        let ow = pool_out_dim(w, kw, stride, pad);
        dy.expect_shape(&[n, c, oh, ow])?;
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        for s in 0..n {
            for ch in 0..c {
                let plane_off = (s * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Same valid-cell count as forward.
                        let mut cells: Vec<usize> = Vec::with_capacity(kh * kw);
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                cells.push(iy as usize * w + ix as usize);
                            }
                        }
                        let g = dy.at4(s, ch, oy, ox) / cells.len().max(1) as f32;
                        for idx in cells {
                            dx.data_mut()[plane_off + idx] += g;
                        }
                    }
                }
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::CompressionPlan;
    use crate::store::{ActivationStore, RawStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fctx<'a>(store: &'a mut RawStore, plan: &'a CompressionPlan) -> ForwardContext<'a> {
        ForwardContext {
            store,
            training: true,
            collect: false,
            plan,
        }
    }

    #[test]
    fn maxpool_2x2_known_values() {
        let mut pool = MaxPool2d::new(0, "p", 2, 2, 0);
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        )
        .unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(0, "p", 2, 2, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 3., 4.]).unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        let dx = pool
            .backward(Tensor::full(&[1, 1, 1, 1], 2.5), &mut bctx(&mut store))
            .unwrap();
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    fn bctx(store: &mut RawStore) -> BackwardContext<'_> {
        BackwardContext {
            store,
            collect: false,
            grad_ready: None,
        }
    }

    /// Forward a `[1, 1, 4, 4]` plane through `pool`, let `tamper` edit the
    /// saved slot, and return what backward makes of it.
    fn backward_over_tampered_slot(
        mut pool: MaxPool2d,
        tamper: impl FnOnce(&mut Vec<u64>, &mut usize),
    ) -> Result<Tensor> {
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        let Saved::Bits { mut words, mut len } = store.load(SlotId(0, 0)).unwrap() else {
            panic!("max-pool must save a packed slot");
        };
        tamper(&mut words, &mut len);
        store.save(SlotId(0, 0), Saved::Bits { words, len }, SaveHint::raw());
        pool.backward(Tensor::full(y.shape(), 1.0), &mut bctx(&mut store))
    }

    fn assert_state_error_naming_layer(r: Result<Tensor>, needle: &str) {
        match r {
            Err(DnnError::State(msg)) => {
                assert!(msg.starts_with("p: ") && msg.contains(needle), "{msg}")
            }
            other => panic!("want a State error about {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn packed_backward_matches_absolute_index_scatter() {
        let mut rng = StdRng::seed_from_u64(24);
        for k in [2usize, 3, 5] {
            for stride in [1, 2, k] {
                for pad in [0usize, 1] {
                    for (h, w) in [(8usize, 8usize), (9, 7)] {
                        // Small integers tie often; the second plane of
                        // every sample is negative-only.
                        let (n, c) = (2, 2);
                        let data: Vec<f32> = (0..n * c * h * w)
                            .map(|i| {
                                let v = rng.gen_range(0..4) as f32;
                                if (i / (h * w)) % 2 == 1 {
                                    v - 10.0
                                } else {
                                    v
                                }
                            })
                            .collect();
                        let x = Tensor::from_vec(&[n, c, h, w], data).unwrap();
                        let mut pool = MaxPool2d::new(0, "p", k, stride, pad);
                        let mut store = RawStore::new();
                        let plan = CompressionPlan::new();
                        let y = pool
                            .forward(x.clone(), &mut fctx(&mut store, &plan))
                            .unwrap();
                        let (oh, ow) = (y.shape()[2], y.shape()[3]);
                        let outputs = n * c * oh * ow;
                        assert_eq!(
                            store.current_bytes(),
                            (outputs * offset_bits(k)).div_ceil(64) * 8,
                            "slot size k={k} stride={stride} pad={pad} {h}x{w}"
                        );
                        let dy_data: Vec<f32> =
                            (0..outputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let dy = Tensor::from_vec(y.shape(), dy_data).unwrap();

                        // Reference: first strict maximum in scan order, as
                        // an absolute index, scattered in output order.
                        let mut want = vec![0.0f32; x.len()];
                        for (i, &g) in dy.data().iter().enumerate() {
                            let (plane, oy, ox) = (i / (oh * ow), i / ow % oh, i % ow);
                            let mut best: Option<(f32, usize)> = None;
                            for ky in 0..k {
                                for kx in 0..k {
                                    let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                                    if iy < pad || ix < pad || iy - pad >= h || ix - pad >= w {
                                        continue;
                                    }
                                    let idx = plane * h * w + (iy - pad) * w + ix - pad;
                                    if best.is_none_or(|(v, _)| x.data()[idx] > v) {
                                        best = Some((x.data()[idx], idx));
                                    }
                                }
                            }
                            assert_eq!(y.data()[i], best.unwrap().0);
                            want[best.unwrap().1] += g;
                        }
                        let dx = pool.backward(dy, &mut bctx(&mut store)).unwrap();
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(dx.data()),
                            bits(&want),
                            "k={k} stride={stride} pad={pad} {h}x{w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nan_and_neg_infinity_windows_route_to_an_in_plane_cell() {
        // pad > 0: window (0, 0) starts in the padding, so offset 0 is
        // not a cell of the plane; the first in-plane cell is (1, 1).
        for fill in [f32::NAN, f32::NEG_INFINITY] {
            let mut pool = MaxPool2d::new(0, "p", 3, 2, 1);
            let x = Tensor::full(&[1, 1, 4, 4], fill);
            let mut store = RawStore::new();
            let plan = CompressionPlan::new();
            let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
            assert!(y.data().iter().all(|&v| v == f32::NEG_INFINITY));
            let dx = pool
                .backward(Tensor::full(y.shape(), 1.0), &mut bctx(&mut store))
                .unwrap();
            // Windows start at −1 and 1 on both axes: first cells 0 and 1.
            let mut want = [0.0f32; 16];
            for cell in [0, 1, 4, 5] {
                want[cell] = 1.0;
            }
            assert_eq!(dx.data(), &want);
        }
    }

    #[test]
    fn window_without_an_input_cell_is_rejected_at_forward() {
        // pad ≥ k leaves window (0, 0) entirely in the padding.
        let mut pool = MaxPool2d::new(0, "p", 2, 2, 2);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let r = pool.forward(Tensor::zeros(&[1, 1, 4, 4]), &mut fctx(&mut store, &plan));
        assert_state_error_naming_layer(r, "covers no cell");
    }

    #[test]
    fn backward_rejects_a_slot_with_the_wrong_bit_count() {
        let r = backward_over_tampered_slot(MaxPool2d::new(0, "p", 2, 2, 0), |_, len| *len += 2);
        assert_state_error_naming_layer(r, "4 outputs × 2 bits");
    }

    #[test]
    fn backward_rejects_a_slot_with_the_wrong_word_count() {
        let r =
            backward_over_tampered_slot(MaxPool2d::new(0, "p", 2, 2, 0), |words, _| words.push(0));
        assert_state_error_naming_layer(r, "in 2 words");
    }

    #[test]
    fn backward_rejects_an_offset_outside_the_window() {
        // 3×3 offsets take 4 bits, so 9..=15 are encodable but invalid.
        let r = backward_over_tampered_slot(MaxPool2d::new(0, "p", 3, 1, 0), |words, _| {
            words[0] |= 0xF << 4
        });
        assert_state_error_naming_layer(r, "offset 15 of output (0, 1)");
    }

    #[test]
    fn backward_rejects_a_position_outside_the_plane() {
        // pad 1: offset 0 of window (0, 0) is the padding cell (−1, −1).
        let r = backward_over_tampered_slot(MaxPool2d::new(0, "p", 3, 2, 1), |words, _| {
            words[0] &= !0xF
        });
        assert_state_error_naming_layer(r, "offset 0 of output (0, 0)");
    }

    #[test]
    fn alexnet_overlapping_pool_shape() {
        let pool = MaxPool2d::new(0, "p", 3, 2, 0);
        assert_eq!(
            pool.out_shape(&[1, 96, 55, 55]).unwrap(),
            vec![1, 96, 27, 27]
        );
    }

    #[test]
    fn avgpool_averages_and_distributes() {
        let mut pool = AvgPool2d::new(0, "p", 2, 2, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        assert_eq!(y.data(), &[2.5]);
        let dx = pool
            .backward(Tensor::full(&[1, 1, 1, 1], 4.0), &mut bctx(&mut store))
            .unwrap();
        assert_eq!(dx.data(), &[1.0; 4]);
    }

    #[test]
    fn global_avgpool_reduces_to_1x1() {
        let mut pool = AvgPool2d::global(0, "gap");
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]).unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn padded_avgpool_excludes_pad_from_divisor() {
        // 1x1 input, k=3 pad=1: only the single valid cell counts.
        let mut pool = AvgPool2d::new(0, "p", 3, 1, 1);
        let x = Tensor::from_vec(&[1, 1, 1, 1], vec![6.0]).unwrap();
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let y = pool.forward(x, &mut fctx(&mut store, &plan)).unwrap();
        assert_eq!(y.data(), &[6.0]);
    }
}
