//! Gradient checkpointing — the **recomputation** baseline class the
//! paper positions against (§2.1, "training deep nets with sublinear
//! memory cost", Chen et al.) and lists as an orthogonal method to
//! combine with compression (§6).
//!
//! The network's top-level nodes are split into `n_segments` segments.
//! The first forward pass stores **only each segment's input** (the
//! checkpoints); during backward, each segment is *re-forwarded* from its
//! checkpoint to regenerate the intra-segment activations just before
//! they are consumed. Memory falls from O(layers) to
//! O(segments + layers/segments) at the cost of one extra forward pass
//! (~33% more compute) — exactly the trade-off the paper criticizes for
//! convolution-heavy networks.
//!
//! Correctness requires deterministic layers (re-running forward must
//! reproduce the same activations). All layers here qualify except
//! [`Dropout`](crate::layers::Dropout), whose mask stream would advance;
//! use checkpointing with dropout-free architectures (e.g. ResNets).

use crate::layer::{BackwardContext, CompressionPlan, ForwardContext, Layer};
use crate::layers::SoftmaxCrossEntropy;
use crate::network::Network;
use crate::optimizer::Sgd;
use crate::store::{ActivationStore, NullStore};
use crate::train::{apply_sync_action, GradSync, NoSync, StepResult};
use crate::{DnnError, Result};
use ebtrain_tensor::Tensor;

/// Split `n` nodes into `k` contiguous segments (last absorbs remainder).
fn segment_bounds(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        bounds.push(start..start + len);
        start += len;
    }
    bounds
}

/// One training iteration with gradient checkpointing over `n_segments`
/// segments, storing each segment's activations in `store` — pass a
/// [`RawStore`](crate::store::RawStore) for the plain baseline. Any
/// storage policy composes with it, the paper's §6 point that
/// recomputation, migration and compression are orthogonal: pass a
/// [`CompressedStore`](crate::store::CompressedStore) to stack O(√n)
/// checkpointing *on top of* ~10× activation compression.
///
/// An optional [`GradSync`] driver observes the segmented backward
/// exactly like the plain path — `begin` before the first segment's
/// backward, `grad_ready` as each layer retires inside its segment,
/// `finish` after the last segment — so bucketed collectives overlap
/// with recomputation too.
///
/// Reports peak memory as (checkpoint bytes) + (largest per-segment
/// store peak).
#[allow(clippy::too_many_arguments)]
pub fn checkpointed_train_step(
    net: &mut Network,
    head: &SoftmaxCrossEntropy,
    opt: &mut Sgd,
    store: &mut dyn ActivationStore,
    plan: &CompressionPlan,
    x: Tensor,
    labels: &[usize],
    n_segments: usize,
    collect: bool,
    sync: Option<&mut dyn GradSync>,
) -> Result<StepResult> {
    let n_nodes = net.num_top_nodes();
    if n_nodes == 0 {
        return Err(DnnError::State("empty network".into()));
    }
    let batch = x.shape()[0];
    let segments = segment_bounds(n_nodes, n_segments);
    let mut no_sync = NoSync;
    let sync = sync.unwrap_or(&mut no_sync);

    // Phase 1: checkpoint-only forward (intra-segment saves discarded).
    let mut checkpoints: Vec<Tensor> = Vec::with_capacity(segments.len());
    let mut cur = x;
    {
        let mut null = NullStore;
        for seg in &segments {
            checkpoints.push(cur.clone());
            let mut fctx = ForwardContext {
                store: &mut null,
                training: true,
                collect: false,
                plan,
            };
            cur = net.forward_range(seg.clone(), cur, &mut fctx)?;
        }
    }
    let checkpoint_bytes: usize = checkpoints.iter().map(|t| t.byte_size()).sum();
    let logits = cur;
    let (loss, mut dy) = head.loss(&logits, labels)?;
    let correct = head.correct(&logits, labels);

    // Phase 2: per segment (reverse order): re-forward with real storage,
    // then backward through it. The store drains fully each segment.
    sync.begin(net)?;
    let mut max_segment_peak = 0usize;
    for (seg, ckpt) in segments.iter().zip(&checkpoints).rev() {
        store.reset_peak();
        {
            let mut fctx = ForwardContext {
                store,
                training: true,
                collect,
                plan,
            };
            net.forward_range(seg.clone(), ckpt.clone(), &mut fctx)?;
        }
        max_segment_peak = max_segment_peak.max(store.peak_bytes());
        {
            let mut on_ready = |layer: &dyn Layer| sync.grad_ready(layer);
            let mut bctx = BackwardContext {
                store,
                collect,
                grad_ready: Some(&mut on_ready),
            };
            dy = net.backward_range(seg.clone(), dy, &mut bctx)?;
        }
    }

    let action = sync.finish(net)?;
    apply_sync_action(net, opt, action);
    Ok(StepResult {
        loss,
        correct,
        batch,
        peak_store_bytes: checkpoint_bytes + max_segment_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SgdConfig;
    use crate::store::RawStore;
    use crate::train::train_step;
    use crate::zoo;
    use ebtrain_data::{SynthConfig, SynthImageNet};

    fn dataset() -> SynthImageNet {
        SynthImageNet::new(SynthConfig {
            classes: 4,
            image_hw: 32,
            noise: 0.15,
            seed: 21,
        })
    }

    #[test]
    fn segment_bounds_cover_exactly() {
        for (n, k) in [(10, 3), (7, 7), (5, 1), (4, 9), (1, 1)] {
            let b = segment_bounds(n, k);
            assert_eq!(b.first().unwrap().start, 0);
            assert_eq!(b.last().unwrap().end, n);
            for w in b.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn checkpointed_training_matches_plain_training_exactly() {
        // Deterministic net (no dropout): the recomputed activations are
        // bit-identical, so losses and parameter trajectories must match.
        let data = dataset();
        let head = SoftmaxCrossEntropy::new();

        let mut plain_net = zoo::tiny_resnet(4, 5);
        let mut plain_opt = Sgd::new(SgdConfig::default());
        let mut ckpt_net = zoo::tiny_resnet(4, 5);
        let mut ckpt_opt = Sgd::new(SgdConfig::default());
        let plan = CompressionPlan::new();

        for i in 0..3 {
            let (x, labels) = data.batch((i * 8) as u64, 8);
            let mut store = RawStore::new();
            let rp = train_step(
                &mut plain_net,
                &head,
                &mut plain_opt,
                &mut store,
                &plan,
                x.clone(),
                &labels,
                false,
            )
            .unwrap();
            let rc = checkpointed_train_step(
                &mut ckpt_net,
                &head,
                &mut ckpt_opt,
                &mut RawStore::new(),
                &plan,
                x,
                &labels,
                3,
                false,
                None,
            )
            .unwrap();
            assert_eq!(rp.loss, rc.loss, "iter {i}: losses diverged");
            assert_eq!(rp.correct, rc.correct);
        }
        // Parameters identical after 3 steps.
        let pp = plain_net.params_mut();
        let cp = ckpt_net.params_mut();
        for (a, b) in pp.iter().zip(cp.iter()) {
            assert_eq!(a.value.data(), b.value.data());
        }
    }

    #[test]
    fn checkpointing_reduces_peak_memory() {
        let data = dataset();
        let head = SoftmaxCrossEntropy::new();
        let plan = CompressionPlan::new();
        let (x, labels) = data.batch(0, 16);

        let mut net = zoo::tiny_resnet(4, 5);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = RawStore::new();
        let plain = train_step(
            &mut net,
            &head,
            &mut opt,
            &mut store,
            &plan,
            x.clone(),
            &labels,
            false,
        )
        .unwrap()
        .peak_store_bytes;

        let mut net = zoo::tiny_resnet(4, 5);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = RawStore::new();
        let ckpt = checkpointed_train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, 4, false, None,
        )
        .unwrap()
        .peak_store_bytes;

        assert!(
            (ckpt as f64) < plain as f64 * 0.8,
            "checkpointed peak {ckpt} not well below plain {plain}"
        );
    }

    #[test]
    fn checkpointing_composes_with_compression() {
        // §6's orthogonality claim end-to-end: recompute + compress
        // stacks both reductions and still trains to the same loss.
        use crate::store::CompressedStore;
        use ebtrain_sz::SzConfig;
        let data = dataset();
        let head = SoftmaxCrossEntropy::new();
        let plan = CompressionPlan::new();
        let (x, labels) = data.batch(0, 16);

        let mut net = zoo::tiny_resnet(4, 5);
        let mut opt = Sgd::new(SgdConfig::default());
        let ckpt_raw = checkpointed_train_step(
            &mut net,
            &head,
            &mut opt,
            &mut RawStore::new(),
            &plan,
            x.clone(),
            &labels,
            4,
            false,
            None,
        )
        .unwrap();

        let mut net = zoo::tiny_resnet(4, 5);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut comp = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        let ckpt_comp = checkpointed_train_step(
            &mut net, &head, &mut opt, &mut comp, &plan, x, &labels, 4, false, None,
        )
        .unwrap();

        assert!(
            ckpt_comp.peak_store_bytes < ckpt_raw.peak_store_bytes,
            "compressed checkpointing {} not below raw checkpointing {}",
            ckpt_comp.peak_store_bytes,
            ckpt_raw.peak_store_bytes
        );
        // Same forward math (phase-1 logits unaffected by storage policy).
        assert_eq!(ckpt_raw.loss, ckpt_comp.loss);
        assert!(comp.metrics().compressible_ratio() > 1.5);
    }

    #[test]
    fn single_segment_degenerates_to_plain_memory() {
        let data = dataset();
        let head = SoftmaxCrossEntropy::new();
        let plan = CompressionPlan::new();
        let (x, labels) = data.batch(0, 8);
        let mut net = zoo::tiny_resnet(4, 5);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = RawStore::new();
        let r = checkpointed_train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, 1, false, None,
        )
        .unwrap();
        assert!(r.loss.is_finite());
        assert!(r.peak_store_bytes > 0);
    }
}
