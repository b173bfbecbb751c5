//! Single-iteration training/eval helpers shared by examples, benches and
//! the adaptive framework in `ebtrain-core`.

use crate::layer::{BackwardContext, CompressionPlan, ForwardContext, Layer};
use crate::layers::SoftmaxCrossEntropy;
use crate::network::Network;
use crate::optimizer::Sgd;
use crate::recompute::checkpointed_train_step;
use crate::store::{ActivationStore, NullStore};
use crate::Result;
use ebtrain_tensor::Tensor;

/// What the training step must do after a [`GradSync`] driver finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAction {
    /// Gradients were averaged in place; run the local optimizer step as
    /// usual.
    LocalStep,
    /// The driver already applied the parameter update (e.g. a sharded
    /// optimizer that all-gathers updated params); skip the local
    /// optimizer step but still advance the iteration counter.
    StepApplied,
}

/// Gradient-synchronization driver a data-parallel runner injects into a
/// training step. It observes backward at **layer granularity**:
///
/// * [`begin`](GradSync::begin) fires before backward starts (reset
///   per-step bucket state);
/// * [`grad_ready`](GradSync::grad_ready) fires as each layer's
///   parameter gradients become final — a bucketed collective (see
///   `ebtrain-dist`) copies them out and launches per-bucket ring ops
///   that overlap with the remainder of backward;
/// * [`finish`](GradSync::finish) fires after backward completes, joins
///   whatever is still in flight, writes the reduced gradients (or
///   already-updated parameters) back, and tells the step how to
///   proceed via [`SyncAction`].
pub trait GradSync {
    /// Called before backward starts; reset per-step state.
    fn begin(&mut self, _net: &mut Network) -> Result<()> {
        Ok(())
    }
    /// Called as each layer's gradients are finalized by backward.
    fn grad_ready(&mut self, _layer: &dyn Layer) -> Result<()> {
        Ok(())
    }
    /// Called after backward; must leave the network ready for the
    /// returned [`SyncAction`].
    fn finish(&mut self, net: &mut Network) -> Result<SyncAction>;
}

/// The driver of a step that has none: gradients stay local.
pub(crate) struct NoSync;

impl GradSync for NoSync {
    fn finish(&mut self, _net: &mut Network) -> Result<SyncAction> {
        Ok(SyncAction::LocalStep)
    }
}

/// Apply the post-sync optimizer action: either the local SGD step or —
/// when the driver already updated parameters — just the counter
/// advance. Always clears gradients.
pub(crate) fn apply_sync_action(net: &mut Network, opt: &mut Sgd, action: SyncAction) {
    match action {
        SyncAction::LocalStep => opt.step(net.params_mut()),
        SyncAction::StepApplied => opt.advance(),
    }
    net.zero_grads();
}

/// Outcome of one training step.
#[derive(Debug, Clone, Copy)]
pub struct StepResult {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Argmax-correct predictions in the batch.
    pub correct: usize,
    /// Batch size.
    pub batch: usize,
    /// Peak activation-store bytes during the step.
    pub peak_store_bytes: usize,
}

/// Run one forward + backward + SGD update.
///
/// `collect` should be true every `W` iterations (the paper's parameter-
/// collection cadence); `plan` carries the controller's per-layer error
/// bounds (empty plan = store defaults).
#[allow(clippy::too_many_arguments)]
pub fn train_step(
    net: &mut Network,
    head: &SoftmaxCrossEntropy,
    opt: &mut Sgd,
    store: &mut dyn ActivationStore,
    plan: &CompressionPlan,
    x: Tensor,
    labels: &[usize],
    collect: bool,
) -> Result<StepResult> {
    train_step_synced(net, head, opt, store, plan, x, labels, collect, None)
}

/// [`train_step`] with an optional [`GradSync`] driver observing
/// backward at layer granularity (bucketed collectives) and finishing
/// before the optimizer step.
///
/// If the store dropped a payload during forward
/// ([`ActivationStore::step_dropped`]: a
/// [`BudgetedStore`](crate::store::BudgetedStore) under
/// [`ColdPolicy::DropForRecompute`](crate::store::ColdPolicy) whose budget
/// even compressed residency overflowed), backward cannot run. The step
/// then falls back to gradient checkpointing
/// ([`checkpointed_train_step`]) over `⌈√nodes⌉` segments from a
/// copy of the batch, re-running forward per segment so each segment's
/// smaller live set fits. The driver runs exactly once on either path, so
/// a data-parallel worker joins its collective whichever path its memory
/// pressure forced. The fallback's [`StepResult::peak_store_bytes`] is
/// its checkpoints plus the largest segment's peak.
#[allow(clippy::too_many_arguments)]
pub fn train_step_synced(
    net: &mut Network,
    head: &SoftmaxCrossEntropy,
    opt: &mut Sgd,
    store: &mut dyn ActivationStore,
    plan: &CompressionPlan,
    x: Tensor,
    labels: &[usize],
    collect: bool,
    sync: Option<&mut dyn GradSync>,
) -> Result<StepResult> {
    let batch = x.shape()[0];
    store.reset_peak();
    let x_again = store.begin_step().then(|| x.clone());
    let logits = {
        let mut fctx = ForwardContext {
            store,
            training: true,
            collect,
            plan,
        };
        net.forward(x, &mut fctx)?
    };
    if let Some(x) = x_again.filter(|_| store.step_dropped()) {
        let segments = (net.num_top_nodes() as f64).sqrt().ceil() as usize;
        return checkpointed_train_step(
            net, head, opt, store, plan, x, labels, segments, collect, sync,
        );
    }
    let (loss, dlogits) = head.loss(&logits, labels)?;
    let correct = head.correct(&logits, labels);
    let mut no_sync = NoSync;
    let sync = sync.unwrap_or(&mut no_sync);
    sync.begin(net)?;
    {
        let mut on_ready = |layer: &dyn Layer| sync.grad_ready(layer);
        let mut bctx = BackwardContext {
            store,
            collect,
            grad_ready: Some(&mut on_ready),
        };
        net.backward(dlogits, &mut bctx)?;
    }
    let action = sync.finish(net)?;
    let peak = store.peak_bytes();
    apply_sync_action(net, opt, action);
    Ok(StepResult {
        loss,
        correct,
        batch,
        peak_store_bytes: peak,
    })
}

/// Inference over one batch: `(mean loss, correct count)`.
pub fn evaluate(
    net: &mut Network,
    head: &SoftmaxCrossEntropy,
    x: Tensor,
    labels: &[usize],
) -> Result<(f32, usize)> {
    let plan = CompressionPlan::new();
    let mut store = NullStore;
    let mut ctx = ForwardContext {
        store: &mut store,
        training: false,
        collect: false,
        plan: &plan,
    };
    let logits = net.forward(x, &mut ctx)?;
    let (loss, _) = head.loss(&logits, labels)?;
    let correct = head.correct(&logits, labels);
    Ok((loss, correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::optimizer::SgdConfig;
    use crate::store::{
        BoundSpec, BudgetConfig, BudgetedStore, ColdPolicy, FarthestNextUse, RawStore,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tiny binary classification task: positive vs negative mean images.
    fn toy_batch(rng: &mut StdRng, n: usize) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(&[n, 1, 4, 4]);
        let mut labels = Vec::with_capacity(n);
        for s in 0..n {
            let label = rng.gen_range(0..2usize);
            let mean = if label == 0 { -1.0 } else { 1.0 };
            for i in 0..16 {
                let idx = s * 16 + i;
                x.data_mut()[idx] = mean + rng.gen_range(-0.3..0.3);
            }
            labels.push(label);
        }
        (x, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut b = NetworkBuilder::new("toy", &[1, 4, 4], seed);
        b.conv(4, 3, 1, 1).relu().linear(2);
        b.build()
    }

    #[test]
    fn training_reduces_loss_on_separable_task() {
        let mut net = toy_net(3);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            schedule: crate::optimizer::LrSchedule::Constant,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut first = None;
        let mut last = 0.0;
        for it in 0..60 {
            let (x, labels) = toy_batch(&mut rng, 16);
            let r = train_step(
                &mut net,
                &head,
                &mut opt,
                &mut store,
                &plan,
                x,
                &labels,
                it == 0,
            )
            .unwrap();
            if first.is_none() {
                first = Some(r.loss);
            }
            last = r.loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {} -> {last}",
            first.unwrap()
        );
        // Converged nets classify the toy task near-perfectly.
        let (x, labels) = toy_batch(&mut rng, 64);
        let (_, correct) = evaluate(&mut net, &head, x, &labels).unwrap();
        assert!(correct > 55, "correct {correct}/64");
    }

    #[test]
    fn step_reports_peak_store_bytes() {
        let mut net = toy_net(3);
        let head = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let (x, labels) = toy_batch(&mut rng, 8);
        let r = train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .unwrap();
        // conv input (8*16 floats) + relu mask + fc input must be > 0.
        assert!(r.peak_store_bytes > 8 * 16 * 4);
        assert_eq!(r.batch, 8);
    }

    #[test]
    fn budgeted_step_enforces_budget_and_still_learns() {
        // First measure the raw activation peak, then train under ~40% of
        // it: the arena must compress/evict to fit, every step.
        let head = SoftmaxCrossEntropy::new();
        let plan = CompressionPlan::new();
        let mut rng = StdRng::seed_from_u64(11);
        let raw_peak = {
            let mut net = toy_net(3);
            let mut opt = Sgd::new(SgdConfig::default());
            let mut store = RawStore::new();
            let (x, labels) = toy_batch(&mut rng, 16);
            train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .unwrap()
            .peak_store_bytes
        };
        let budget = raw_peak * 2 / 5;
        let mut net = toy_net(3);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            schedule: crate::optimizer::LrSchedule::Constant,
        });
        let mut store = BudgetedStore::with_budget(budget);
        let mut rng = StdRng::seed_from_u64(11);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let (x, labels) = toy_batch(&mut rng, 16);
            let r = train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .unwrap();
            assert!(
                r.peak_store_bytes <= budget,
                "peak {} > budget {budget}",
                r.peak_store_bytes
            );
            if first.is_none() {
                first = Some(r.loss);
            }
            last = r.loss;
        }
        assert!(
            last < first.unwrap() * 0.7,
            "loss {} -> {last} under budget",
            first.unwrap()
        );
        assert_eq!(store.arena_metrics().over_budget_events, 0);
    }

    /// A drop-for-recompute store whose budget holds any one of
    /// `toy_net(5)`'s slots but not the live set of a whole forward on the
    /// returned batch, so every plain forward drops a payload while the
    /// checkpointing fallback's segments fit. Entries stay raw or dead:
    /// the NaN bound makes the codec reject, so there is no warm tier.
    fn dropping_store() -> (BudgetedStore, Tensor, Vec<usize>) {
        let head = SoftmaxCrossEntropy::new();
        let (x, labels) = toy_batch(&mut StdRng::seed_from_u64(7), 32);
        let raw_peak = train_step(
            &mut toy_net(5),
            &head,
            &mut Sgd::new(SgdConfig::default()),
            &mut RawStore::new(),
            &CompressionPlan::new(),
            x.clone(),
            &labels,
            false,
        )
        .unwrap()
        .peak_store_bytes;
        let mut cfg = BudgetConfig::with_budget(raw_peak - raw_peak / 8);
        cfg.cold = ColdPolicy::DropForRecompute;
        cfg.bound = BoundSpec::Abs(f32::NAN);
        let store = BudgetedStore::new(cfg, Box::new(FarthestNextUse));
        (store, x, labels)
    }

    #[test]
    fn budgeted_step_falls_back_to_recompute_on_drop() {
        let (mut store, x, labels) = dropping_store();
        let mut net = toy_net(5);
        let mut opt = Sgd::new(SgdConfig::default());
        let r = train_step(
            &mut net,
            &SoftmaxCrossEntropy::new(),
            &mut opt,
            &mut store,
            &CompressionPlan::new(),
            x,
            &labels,
            false,
        )
        .unwrap();
        assert!(r.loss.is_finite());
        assert!(store.arena_metrics().drops > 0, "fallback never triggered");
    }

    /// Counts the driver's calls; the optimizer step stays local.
    #[derive(Default)]
    struct CountingSync {
        begins: usize,
        ready: usize,
        finishes: usize,
    }

    impl GradSync for CountingSync {
        fn begin(&mut self, _net: &mut Network) -> Result<()> {
            self.begins += 1;
            Ok(())
        }
        fn grad_ready(&mut self, _layer: &dyn Layer) -> Result<()> {
            self.ready += 1;
            Ok(())
        }
        fn finish(&mut self, _net: &mut Network) -> Result<SyncAction> {
            self.finishes += 1;
            Ok(SyncAction::LocalStep)
        }
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

    #[test]
    fn drop_fallback_drives_grad_sync_exactly_once() {
        let head = SoftmaxCrossEntropy::new();
        let plan = CompressionPlan::new();
        let step = |direct: bool| {
            let (mut store, x, labels) = dropping_store();
            let mut net = toy_net(5);
            let mut opt = Sgd::new(SgdConfig::default());
            let mut sync = CountingSync::default();
            let r = if direct {
                // ⌈√3⌉ = 2 segments, as the fallback picks for toy_net.
                checkpointed_train_step(
                    &mut net,
                    &head,
                    &mut opt,
                    &mut store,
                    &plan,
                    x,
                    &labels,
                    2,
                    false,
                    Some(&mut sync),
                )
            } else {
                train_step_synced(
                    &mut net,
                    &head,
                    &mut opt,
                    &mut store,
                    &plan,
                    x,
                    &labels,
                    false,
                    Some(&mut sync),
                )
            }
            .unwrap();
            let drops = store.arena_metrics().drops;
            (r, sync, param_bits(&net), drops)
        };
        let (r, sync, params, drops) = step(false);
        assert!(drops > 0, "fallback never triggered");
        assert_eq!((sync.begins, sync.finishes), (1, 1));
        let (expect, direct_sync, expect_params, direct_drops) = step(true);
        assert_eq!(direct_drops, 0, "the direct segments must fit");
        assert_eq!(sync.ready, direct_sync.ready);
        assert_eq!(r.loss.to_bits(), expect.loss.to_bits());
        assert_eq!(r.peak_store_bytes, expect.peak_store_bytes);
        assert_eq!(params, expect_params);
    }

    #[test]
    fn evaluate_leaves_no_state() {
        let mut net = toy_net(3);
        let head = SoftmaxCrossEntropy::new();
        let mut rng = StdRng::seed_from_u64(11);
        let (x, labels) = toy_batch(&mut rng, 4);
        let (loss, correct) = evaluate(&mut net, &head, x, &labels).unwrap();
        assert!(loss.is_finite());
        assert!(correct <= 4);
    }
}
