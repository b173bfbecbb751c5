//! The [`Layer`] trait and the execution contexts threaded through
//! forward/backward passes.

use crate::store::ActivationStore;
use crate::Result;
use ebtrain_codec::CodecId;
use ebtrain_tensor::Tensor;
use std::collections::HashMap;

/// Stable identifier of a layer inside one network (assigned pre-order at
/// build time, so the compression controller can address layers).
pub type LayerId = usize;

/// One saved tensor slot of a layer; layers may save several
/// (slot 0 = input activation by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub LayerId, pub u8);

/// Hints the activation store uses to pick a representation.
#[derive(Debug, Clone, Copy)]
pub struct SaveHint {
    /// True when the slot is a large float activation the framework may
    /// compress (the inputs of convolutions and fully connected layers).
    pub compressible: bool,
    /// Absolute error bound chosen by the adaptive controller for this
    /// layer this iteration; `None` falls back to the store default.
    pub error_bound: Option<f32>,
    /// Codec the plan routes this layer through; `None` falls back to
    /// the store's default backend.
    pub codec: Option<CodecId>,
}

impl SaveHint {
    /// Hint for non-compressible bookkeeping slots.
    pub fn raw() -> SaveHint {
        SaveHint {
            compressible: false,
            error_bound: None,
            codec: None,
        }
    }

    /// Compressible hint with an explicit bound and default codec.
    pub fn compressible(error_bound: Option<f32>) -> SaveHint {
        SaveHint {
            compressible: true,
            error_bound,
            codec: None,
        }
    }
}

/// A value a layer parks in the store between forward and backward.
#[derive(Debug, Clone)]
pub enum Saved {
    /// Dense float tensor (activation data).
    F32(Tensor),
    /// Bit-packed words: a boolean mask at 1 bit/element (ReLU sign,
    /// dropout) or max-pool window offsets at `⌈log₂ k²⌉` bits/output.
    Bits {
        /// Packed 64-bit words.
        words: Vec<u64>,
        /// Number of valid bits.
        len: usize,
    },
}

impl Saved {
    /// Device-memory footprint in bytes of this representation when raw.
    pub fn byte_size(&self) -> usize {
        match self {
            Saved::F32(t) => t.byte_size(),
            Saved::Bits { words, .. } => words.len() * 8,
        }
    }

    /// Unwrap a float tensor; error otherwise.
    pub fn into_f32(self) -> Result<Tensor> {
        match self {
            Saved::F32(t) => Ok(t),
            other => Err(crate::DnnError::State(format!(
                "expected F32 slot, got {other:?}"
            ))),
        }
    }
}

/// Pack a `x > 0`-style predicate over a slice into 64-bit words.
pub fn pack_bits(values: &[f32], pred: impl Fn(f32) -> bool) -> Saved {
    let mut words = vec![0u64; values.len().div_ceil(64)];
    for (i, &v) in values.iter().enumerate() {
        if pred(v) {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    Saved::Bits {
        words,
        len: values.len(),
    }
}

/// Read bit `i` of a packed mask.
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// One layer's storage policy: the controller's error bound and,
/// optionally, a codec routing choice.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerPolicy {
    /// Absolute error bound (re-picked every collection iteration).
    pub error_bound: Option<f32>,
    /// Compression backend for this layer (`None` = store default). Set
    /// once by whoever configures the run — e.g. route precision-
    /// sensitive layers to [`CodecId::LOSSLESS`] while conv activations
    /// keep the SZ default — and preserved across the controller's bound
    /// refreshes.
    pub codec: Option<CodecId>,
}

/// Per-layer storage policies chosen by the adaptive controller (paper
/// §4.3) plus static codec routing.
///
/// An empty plan means "store default for every layer" — which for the
/// compressed store is its fixed fallback bound and default backend, and
/// for the raw store is irrelevant. [`set`](CompressionPlan::set)
/// (the controller's per-iteration bound refresh) and
/// [`set_codec`](CompressionPlan::set_codec) (static routing) update
/// their own half of a layer's policy without clobbering the other.
#[derive(Debug, Clone, Default)]
pub struct CompressionPlan {
    per_layer: HashMap<LayerId, LayerPolicy>,
}

impl CompressionPlan {
    /// Empty plan (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the absolute error bound for one layer (codec choice, if any,
    /// is preserved).
    pub fn set(&mut self, layer: LayerId, eb: f32) {
        self.per_layer.entry(layer).or_default().error_bound = Some(eb);
    }

    /// Route one layer through a specific codec (bound, if any, is
    /// preserved).
    pub fn set_codec(&mut self, layer: LayerId, codec: CodecId) {
        self.per_layer.entry(layer).or_default().codec = Some(codec);
    }

    /// Bound for `layer`, if the controller chose one.
    pub fn get(&self, layer: LayerId) -> Option<f32> {
        self.per_layer.get(&layer).and_then(|p| p.error_bound)
    }

    /// Codec routing for `layer`, if one was chosen.
    pub fn codec_for(&self, layer: LayerId) -> Option<CodecId> {
        self.per_layer.get(&layer).and_then(|p| p.codec)
    }

    /// Full policy for `layer` (defaults when unset).
    pub fn policy(&self, layer: LayerId) -> LayerPolicy {
        self.per_layer.get(&layer).copied().unwrap_or_default()
    }

    /// Number of layers with an explicit policy.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// True when no explicit policies are set.
    pub fn is_empty(&self) -> bool {
        self.per_layer.is_empty()
    }
}

/// Context threaded through the forward pass.
pub struct ForwardContext<'a> {
    /// Where layers park activations until backward.
    pub store: &'a mut dyn ActivationStore,
    /// Training (save state, apply dropout) vs inference.
    pub training: bool,
    /// True on parameter-collection iterations (every `W` iters, §4.1):
    /// layers refresh their sparsity statistics.
    pub collect: bool,
    /// Per-layer error bounds from the adaptive controller.
    pub plan: &'a CompressionPlan,
}

/// Callback fired as backward retires each layer's gradients (see
/// [`BackwardContext::grad_ready`]).
pub type GradReadyFn<'a> = dyn FnMut(&dyn Layer) -> Result<()> + 'a;

/// Context threaded through the backward pass.
pub struct BackwardContext<'a> {
    /// Store to load saved activations from.
    pub store: &'a mut dyn ActivationStore,
    /// True on parameter-collection iterations: conv and fully connected
    /// layers refresh their upstream-loss statistics (`L̄` of Eq. 6).
    pub collect: bool,
    /// Invoked right after each layer's `backward` returns, i.e. the
    /// moment that layer's parameter gradients are final for this step.
    /// A bucketed gradient-sync driver (see `ebtrain-dist`) uses this to
    /// launch per-bucket collectives while the rest of backward is still
    /// running; `None` means no one is listening.
    pub grad_ready: Option<&'a mut GradReadyFn<'a>>,
}

/// A trainable parameter (weight or bias) with its gradient and momentum.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the last backward pass.
    pub grad: Tensor,
    /// SGD momentum buffer (`v` in Caffe's update rule). Its mean |·| is
    /// the `M̄` statistic the controller reads (paper Eq. 8).
    pub momentum: Tensor,
    /// Whether weight decay applies (true for weights, false for biases).
    pub weight_decay: bool,
}

impl Param {
    /// Fresh parameter with zeroed grad/momentum.
    pub fn new(value: Tensor, weight_decay: bool) -> Param {
        let shape = value.shape().to_vec();
        Param {
            value,
            grad: Tensor::zeros(&shape),
            momentum: Tensor::zeros(&shape),
            weight_decay,
        }
    }

    /// Mean absolute momentum (the `M̄` of paper Eq. 8).
    pub fn momentum_abs_mean(&self) -> f64 {
        ebtrain_tensor::ops::abs_mean(self.momentum.data())
    }
}

/// Broad layer classification (drives store policy and reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution — the layer class the paper compresses.
    Conv,
    /// Rectified linear unit.
    ReLU,
    /// Max pooling.
    MaxPool,
    /// Average pooling (incl. global).
    AvgPool,
    /// Fully connected.
    Linear,
    /// Batch normalization.
    BatchNorm,
    /// Local response normalization (AlexNet).
    Lrn,
    /// Dropout.
    Dropout,
}

/// Statistics a layer whose weight gradient is linear in its saved input
/// (`Conv2d`, `Linear`) exposes to the adaptive controller (paper §4.1
/// "parameter collection"). The name predates `Linear` joining the plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvLayerStats {
    /// Non-zero fraction `R` of the input activation (Eq. 7).
    pub sparsity_r: f64,
    /// Mean |upstream loss| `L̄` arriving in backward (Eq. 6).
    pub l_bar: f64,
    /// RMS of the upstream loss (`√E[L²]`) — drives the exact-CLT form of
    /// the propagation model (see `ebtrain-core::model`).
    pub l_rms: f64,
    /// Elements per sample in the input activation.
    pub act_elems_per_sample: usize,
    /// Loss terms each weight-gradient element sums over per sample:
    /// the output spatial positions `OH·OW` of a convolution, 1 for a
    /// fully connected layer.
    pub out_positions_per_sample: usize,
    /// Batch size observed at the last forward.
    pub batch_size: usize,
    /// Last error bound actually used to compress this layer's input.
    pub last_error_bound: Option<f32>,
}

impl ConvLayerStats {
    /// Forward half of a training step: record the input's geometry,
    /// refresh `R` on collection iterations (every `W`, §4.1), and park
    /// `x` as a compressible slot under the plan's bound for `id`.
    pub(crate) fn save_input(&mut self, id: LayerId, x: Tensor, ctx: &mut ForwardContext) {
        self.batch_size = x.shape()[0];
        self.act_elems_per_sample = x.len() / self.batch_size.max(1);
        if ctx.collect {
            self.sparsity_r = ebtrain_tensor::ops::nonzero_fraction(x.data());
        }
        self.last_error_bound = ctx.plan.get(id);
        ctx.store.save(
            SlotId(id, 0),
            Saved::F32(x),
            SaveHint {
                compressible: true,
                error_bound: self.last_error_bound,
                codec: ctx.plan.codec_for(id),
            },
        );
    }

    /// Backward half of a collection iteration: `L̄` and `L_rms` of the
    /// loss arriving at the layer, summed over `out_positions` terms per
    /// sample.
    pub(crate) fn collect_loss(&mut self, dy: &Tensor, out_positions: usize) {
        use ebtrain_tensor::ops;
        self.l_bar = ops::abs_mean(dy.data());
        self.l_rms = (ops::dot(dy.data(), dy.data()) / dy.len().max(1) as f64).sqrt();
        self.out_positions_per_sample = out_positions;
    }
}

/// The polymorphic layer interface.
///
/// `forward` consumes its input (mirroring a framework that owns
/// activations and may immediately compress or free them); `backward`
/// consumes the output gradient and returns the input gradient.
///
/// Layers are `Send` so whole networks can move to (or be borrowed
/// mutably from) worker threads — the data-parallel replica runner in
/// `ebtrain-dist` executes one network per pool thread. Layer state is
/// plain owned data, so every implementation satisfies this bound
/// automatically.
pub trait Layer: Send {
    /// Stable id inside the network.
    fn id(&self) -> LayerId;
    /// Human-readable name ("conv1", "fc6", ...).
    fn name(&self) -> &str;
    /// Classification.
    fn kind(&self) -> LayerKind;
    /// Output shape for a given input shape (build-time inference).
    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>>;
    /// Forward pass.
    fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor>;
    /// Backward pass.
    fn backward(&mut self, dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor>;
    /// Mutable access to trainable parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
    /// Shared access to trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
    /// Collected controller statistics, for the layers whose weight
    /// gradient is linear in the saved input (`Conv2d`, `Linear`) — the
    /// ones the adaptive plan bounds. Not a layer-kind test: use
    /// [`kind`](Layer::kind) for that.
    fn conv_stats(&self) -> Option<ConvLayerStats> {
        None
    }

    /// Reseed any internal randomness (dropout mask streams). No-op for
    /// deterministic layers. Data-parallel runners call this with a
    /// rank-dependent seed so replicas keep identical *parameters* but
    /// draw independent masks — without it, N replicas built from one
    /// builder seed would apply the same mask to every shard, which is
    /// not how per-device RNG behaves on real data-parallel stacks.
    fn reseed_stochastic(&mut self, _seed: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_bits_roundtrip() {
        let values = [1.0f32, -1.0, 0.0, 2.0, -3.0, 0.5, 0.0, -0.1, 4.0];
        let saved = pack_bits(&values, |v| v > 0.0);
        if let Saved::Bits { words, len } = &saved {
            assert_eq!(*len, 9);
            let expect = [true, false, false, true, false, true, false, false, true];
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(get_bit(words, i), *e, "bit {i}");
            }
        } else {
            panic!("wrong variant");
        }
        assert_eq!(saved.byte_size(), 8); // one word
    }

    #[test]
    fn pack_bits_crosses_word_boundary() {
        let values: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        if let Saved::Bits { words, len } = pack_bits(&values, |v| v > 0.0) {
            assert_eq!(len, 130);
            assert_eq!(words.len(), 3);
            for i in 0..130 {
                assert_eq!(get_bit(&words, i), i % 3 == 0, "bit {i}");
            }
        } else {
            panic!();
        }
    }

    #[test]
    fn compression_plan_set_get() {
        let mut plan = CompressionPlan::new();
        assert!(plan.is_empty());
        plan.set(3, 1e-3);
        plan.set(7, 5e-4);
        assert_eq!(plan.get(3), Some(1e-3));
        assert_eq!(plan.get(7), Some(5e-4));
        assert_eq!(plan.get(4), None);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn compression_plan_bound_and_codec_update_independently() {
        // The controller refreshes bounds every collection iteration;
        // the static codec routing must survive those refreshes (and
        // vice versa).
        let mut plan = CompressionPlan::new();
        plan.set_codec(3, CodecId::LOSSLESS);
        plan.set(3, 1e-3);
        plan.set(3, 5e-4); // controller refresh
        assert_eq!(plan.codec_for(3), Some(CodecId::LOSSLESS));
        assert_eq!(plan.get(3), Some(5e-4));
        plan.set_codec(3, CodecId::SZ);
        assert_eq!(plan.get(3), Some(5e-4), "codec change kept the bound");
        assert_eq!(plan.codec_for(4), None);
        let p = plan.policy(3);
        assert_eq!(p.error_bound, Some(5e-4));
        assert_eq!(p.codec, Some(CodecId::SZ));
        assert_eq!(plan.policy(9), LayerPolicy::default());
    }

    #[test]
    fn param_tracks_momentum_mean() {
        let mut p = Param::new(Tensor::zeros(&[4]), true);
        assert_eq!(p.momentum_abs_mean(), 0.0);
        p.momentum = Tensor::from_vec(&[4], vec![1.0, -3.0, 2.0, -2.0]).unwrap();
        assert!((p.momentum_abs_mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn saved_into_f32_type_checks() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(Saved::F32(t).into_f32().is_ok());
        assert!(pack_bits(&[1.0], |v| v > 0.0).into_f32().is_err());
    }
}
