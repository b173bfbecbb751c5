//! The adaptive training framework (paper §4, Fig 7).
//!
//! [`AdaptiveTrainer`] owns the network, the SGD optimizer, the
//! compressed activation store and the per-layer compression plan, and
//! runs the paper's four-phase loop each iteration:
//!
//! * every `W` iterations it **collects** the semi-online parameters
//!   (activation sparsity `R` at forward, mean loss `L̄` at backward,
//!   mean momentum `M̄` from the optimizer state),
//! * re-**assesses** the acceptable gradient error `σ = f·M̄` (Eq. 8),
//! * re-**estimates** the error bound of each layer whose weight gradient
//!   is linear in its saved input (conv, fully connected) via Eq. 9, and
//! * **compresses** every such input activation with its own bound.

use crate::model;
use ebtrain_dnn::layer::{CompressionPlan, LayerId};
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{
    ActivationStore, BoundSpec, BudgetConfig, BudgetedStore, CodecId, CompressedStore,
    FarthestNextUse, StoreMetrics, SzCodec,
};
use ebtrain_dnn::train::{evaluate, train_step_synced, GradSync};
use ebtrain_dnn::Result;
use ebtrain_sz::SzConfig;
use ebtrain_tensor::Tensor;

/// Which form of the error-propagation model drives Eq. 9's inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelForm {
    /// Paper Eq. 6: `σ = a·L̄·√(N·R)·eb` with the empirical constant `a`.
    /// Faithful to the paper; `a` is calibrated to a concentrated
    /// late-training loss distribution.
    Paper,
    /// Exact-CLT extension: `σ = eb/√3 · L_rms · √(N·P·R)` — no empirical
    /// constant, needs the extra `L_rms` statistic (collected anyway).
    /// More conservative early in training when losses are diffuse.
    ExactClt,
}

/// Framework configuration (paper defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// Acceptable gradient error as a fraction of mean momentum
    /// (Eq. 8; paper default 1%).
    pub sigma_fraction: f64,
    /// Error-propagation coefficient `a` (Eq. 6; paper measured 0.32).
    pub a_coefficient: f64,
    /// Model form driving the bound estimator.
    pub model_form: ModelForm,
    /// Parameter-collection interval `W` (paper default 1000; scaled
    /// experiments use smaller values — see EXPERIMENTS.md).
    pub w_interval: usize,
    /// Bound used before statistics exist or when the model degenerates.
    pub fallback_eb: f32,
    /// Lower clamp on adaptive bounds.
    pub min_eb: f32,
    /// Upper clamp on adaptive bounds.
    pub max_eb: f32,
    /// The §4.4 zero-preserving decompression filter. Inert since the
    /// framework quantizer became dual-quantization, which reconstructs
    /// zeros exactly by construction (no filter pass exists to switch);
    /// kept so existing configurations still build. The filter itself
    /// lives on in `SzConfig::classic`, which `ablation_zero_filter`
    /// measures directly.
    pub zero_filter: bool,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            sigma_fraction: model::PAPER_SIGMA_FRACTION,
            a_coefficient: model::PAPER_A,
            model_form: ModelForm::Paper,
            w_interval: 1000,
            fallback_eb: 1e-4,
            min_eb: 1e-7,
            max_eb: 1e-1,
            zero_filter: true,
        }
    }
}

/// One conv or fully connected layer's controller decision at the last
/// collection point.
#[derive(Debug, Clone)]
pub struct LayerPlanEntry {
    /// Layer id.
    pub layer: LayerId,
    /// Layer name.
    pub name: String,
    /// Chosen absolute error bound.
    pub error_bound: f32,
    /// The σ target it was derived from (Eq. 8).
    pub sigma_target: f64,
    /// Collected sparsity `R`.
    pub sparsity_r: f64,
    /// Collected mean loss `L̄`.
    pub l_bar: f64,
    /// Collected mean momentum `M̄`.
    pub m_avg: f64,
    /// True when the model degenerated and the fallback bound was used.
    pub fallback: bool,
}

/// Per-iteration record (drives the Fig 10 curves).
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iter: usize,
    /// Training loss.
    pub loss: f32,
    /// Training batch accuracy.
    pub accuracy: f64,
    /// Compression ratio achieved on compressible (conv and FC input)
    /// activations *this iteration*.
    pub compression_ratio: f64,
    /// Peak activation-store bytes during the iteration.
    pub peak_store_bytes: usize,
    /// Whether this was a collection iteration.
    pub collected: bool,
}

/// The paper's framework: adaptive error-bounded compressed training.
pub struct AdaptiveTrainer {
    net: Network,
    head: SoftmaxCrossEntropy,
    opt: Sgd,
    /// The paper's compress-everything store, or the budget-enforcing
    /// one that compresses and evicts only under pressure.
    store: Box<dyn ActivationStore + Send>,
    plan: CompressionPlan,
    cfg: FrameworkConfig,
    plan_entries: Vec<LayerPlanEntry>,
    history: Vec<IterationRecord>,
    prev_raw: u64,
    prev_stored: u64,
}

impl AdaptiveTrainer {
    /// Wrap a network with the adaptive framework.
    pub fn new(net: Network, sgd: SgdConfig, cfg: FrameworkConfig) -> AdaptiveTrainer {
        let sz = SzConfig::with_error_bound(cfg.fallback_eb);
        AdaptiveTrainer {
            net,
            head: SoftmaxCrossEntropy::new(),
            opt: Sgd::new(sgd),
            store: Box::new(CompressedStore::new(sz)),
            plan: CompressionPlan::new(),
            cfg,
            plan_entries: Vec::new(),
            history: Vec::new(),
            prev_raw: 0,
            prev_stored: 0,
        }
    }

    /// Wrap a network with the adaptive framework **under an enforced
    /// device-memory budget**: activations live in a
    /// [`BudgetedStore`] (farthest-next-use eviction, prefetch-ahead
    /// backward) instead of the always-compress store, and the store's
    /// residency stays `≤ budget.budget_bytes` at every instant (a step
    /// that falls back to recompute reports its checkpoints on top; see
    /// [`train_step_synced`]). The controller's per-layer bounds still
    /// apply — they set the error bound entries compress under *when
    /// demoted*.
    pub fn new_budgeted(
        net: Network,
        sgd: SgdConfig,
        cfg: FrameworkConfig,
        mut budget: BudgetConfig,
    ) -> AdaptiveTrainer {
        let sz = SzConfig::with_error_bound(cfg.fallback_eb);
        budget.codec = std::sync::Arc::new(SzCodec::new(sz));
        budget.bound = BoundSpec::Abs(cfg.fallback_eb);
        AdaptiveTrainer {
            store: Box::new(BudgetedStore::new(budget, Box::new(FarthestNextUse))),
            ..Self::new(net, sgd, cfg)
        }
    }

    /// One adaptive training iteration.
    pub fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<IterationRecord> {
        self.step_synced(x, labels, None)
    }

    /// One adaptive training iteration with an optional [`GradSync`]
    /// driver observing backward. This is the seam a data-parallel
    /// runner (`ebtrain-dist`) threads its collective through: every
    /// replica owns a full `AdaptiveTrainer` (its own store — budgeted
    /// or not — its own controller state), and only gradient buckets
    /// (or, for a sharded optimizer, updated parameter shards) cross
    /// replica boundaries.
    pub fn step_synced(
        &mut self,
        x: Tensor,
        labels: &[usize],
        sync: Option<&mut dyn GradSync>,
    ) -> Result<IterationRecord> {
        let step_start = std::time::Instant::now();
        let step_span = ebtrain_obs::span!("core.step");
        let iter = self.opt.iteration();
        let collect = iter.is_multiple_of(self.cfg.w_interval.max(1));
        let r = train_step_synced(
            &mut self.net,
            &self.head,
            &mut self.opt,
            self.store.as_mut(),
            &self.plan,
            x,
            labels,
            collect,
            sync,
        )?;
        if collect {
            self.update_plan();
        }
        let m = self.store_metrics();
        // What this step's store peak was made of (one set of gauges per
        // process: with several trainers the last one to step shows).
        ebtrain_obs::gauge_set("dnn.store.peak.encoded_bytes", m.peak.encoded as i64);
        ebtrain_obs::gauge_set("dnn.store.peak.float_raw_bytes", m.peak.float_raw as i64);
        ebtrain_obs::gauge_set("dnn.store.peak.bits_bytes", m.peak.bits as i64);
        let d_raw = m.compressible_raw_bytes - self.prev_raw;
        let d_stored = m.compressible_stored_bytes - self.prev_stored;
        self.prev_raw = m.compressible_raw_bytes;
        self.prev_stored = m.compressible_stored_bytes;
        let record = IterationRecord {
            iter,
            loss: r.loss,
            accuracy: r.correct as f64 / r.batch.max(1) as f64,
            // Same honest contract as `StoreMetrics::compressible_ratio`:
            // full elision this iteration reports infinity, not 1.0.
            compression_ratio: if d_raw == 0 {
                1.0
            } else if d_stored == 0 {
                f64::INFINITY
            } else {
                d_raw as f64 / d_stored as f64
            },
            peak_store_bytes: r.peak_store_bytes,
            collected: collect,
        };
        self.history.push(record);
        drop(step_span);
        ebtrain_obs::flight_step(ebtrain_obs::FlightRecord {
            source: "core.step",
            step: iter as u64,
            loss: record.loss as f64,
            step_nanos: step_start.elapsed().as_nanos() as u64,
            comm_bytes: 0,
            compression_ratio: record.compression_ratio,
            queue_depth_peak: ebtrain_obs::gauge_peak_take("pool.queue_depth"),
            anomalies: 0,
        });
        Ok(record)
    }

    /// Phase 2 + 3: recompute the error bound of every layer that collects
    /// statistics (conv, fully connected) from the fresh ones.
    fn update_plan(&mut self) {
        let cfg = self.cfg.clone();
        let mut entries: Vec<LayerPlanEntry> = Vec::new();
        self.net.visit_layers_mut(&mut |layer| {
            let Some(stats) = layer.conv_stats() else {
                return;
            };
            let id = layer.id();
            let name = layer.name().to_string();
            // Weight momentum (params()[0] is the weight).
            let m_avg = layer
                .params()
                .first()
                .map(|p| p.momentum_abs_mean())
                .unwrap_or(0.0);
            let sigma = model::target_sigma(m_avg, cfg.sigma_fraction);
            let model_eb = match cfg.model_form {
                ModelForm::Paper => model::error_bound_for_sigma(
                    sigma,
                    cfg.a_coefficient,
                    stats.l_bar,
                    stats.batch_size.max(1),
                    stats.sparsity_r,
                ),
                ModelForm::ExactClt => model::error_bound_for_sigma_exact(
                    sigma,
                    stats.l_rms,
                    stats.batch_size.max(1),
                    stats.out_positions_per_sample.max(1),
                    stats.sparsity_r,
                ),
            };
            let (eb, fallback) = match model_eb {
                Some(eb) => ((eb as f32).clamp(cfg.min_eb, cfg.max_eb), false),
                None => (cfg.fallback_eb, true),
            };
            entries.push(LayerPlanEntry {
                layer: id,
                name,
                error_bound: eb,
                sigma_target: sigma,
                sparsity_r: stats.sparsity_r,
                l_bar: stats.l_bar,
                m_avg,
                fallback,
            });
        });
        for e in &entries {
            self.plan.set(e.layer, e.error_bound);
        }
        self.plan_entries = entries;
    }

    /// Route one layer's saved activations through a specific codec
    /// (e.g. [`CodecId::LOSSLESS`] for precision-sensitive layers while
    /// conv activations keep the SZ default). The controller's per-
    /// iteration bound refresh preserves this choice — `CompressionPlan`
    /// updates bounds and codecs independently.
    pub fn route_layer_codec(&mut self, layer: LayerId, codec: CodecId) {
        self.plan.set_codec(layer, codec);
    }

    /// Evaluate on a batch: `(loss, correct)`.
    pub fn evaluate(&mut self, x: Tensor, labels: &[usize]) -> Result<(f32, usize)> {
        evaluate(&mut self.net, &self.head, x, labels)
    }

    /// The controller's latest per-layer decisions.
    pub fn plan_entries(&self) -> &[LayerPlanEntry] {
        &self.plan_entries
    }

    /// Cumulative store metrics (compression ratios, codec time).
    pub fn store_metrics(&self) -> StoreMetrics {
        self.store.metrics()
    }

    /// Full iteration history.
    pub fn history(&self) -> &[IterationRecord] {
        &self.history
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.opt.iteration()
    }

    /// Network access (read).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Network access (mutable; e.g. for snapshot restore in sweeps).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Framework configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_data::{SynthConfig, SynthImageNet};
    use ebtrain_dnn::layer::LayerKind;
    use ebtrain_dnn::zoo;

    fn quick_cfg() -> FrameworkConfig {
        FrameworkConfig {
            w_interval: 4,
            ..FrameworkConfig::default()
        }
    }

    fn dataset() -> SynthImageNet {
        SynthImageNet::new(SynthConfig {
            classes: 4,
            image_hw: 32,
            noise: 0.1,
            seed: 5,
        })
    }

    #[test]
    fn trainer_runs_and_populates_plan() {
        let net = zoo::tiny_vgg(4, 1);
        let mut trainer = AdaptiveTrainer::new(net, SgdConfig::default(), quick_cfg());
        let data = dataset();
        for i in 0..6u64 {
            let (x, labels) = data.batch(i * 8, 8);
            let r = trainer.step(x, &labels).unwrap();
            assert!(r.loss.is_finite());
            assert!(r.compression_ratio >= 1.0, "ratio {}", r.compression_ratio);
        }
        // after ≥2 collection points the plan covers every conv layer
        // and every fully connected one, and nothing else
        let mut planned = Vec::new();
        trainer.network().visit_layers(&mut |layer| {
            if matches!(layer.kind(), LayerKind::Conv | LayerKind::Linear) {
                planned.push(layer.id());
            }
        });
        assert_eq!(planned.len(), 6 + 2, "tiny_vgg: six convs, two FCs");
        let entries: Vec<LayerId> = trainer.plan_entries().iter().map(|e| e.layer).collect();
        assert_eq!(entries, planned);
        // history recorded every iteration, collections flagged
        assert_eq!(trainer.history().len(), 6);
        assert!(trainer.history()[0].collected);
        assert!(trainer.history()[4].collected);
        assert!(!trainer.history()[1].collected);
    }

    #[test]
    fn linear_inputs_are_stored_within_the_controllers_bound() {
        use ebtrain_dnn::layer::{ForwardContext, SlotId};
        use ebtrain_dnn::store::RawStore;
        let mut trainer =
            AdaptiveTrainer::new(zoo::tiny_vgg(4, 1), SgdConfig::default(), quick_cfg());
        let data = dataset();
        for i in 0..5u64 {
            let (x, labels) = data.batch(i * 8, 8);
            trainer.step(x, &labels).unwrap();
        }
        // The controller's decisions, as a plan for a fresh pair of
        // identical nets: one forward parks x, the other x̂.
        let mut plan = CompressionPlan::new();
        let mut fcs = Vec::new();
        trainer.network().visit_layers(&mut |layer| {
            if layer.kind() == LayerKind::Linear {
                fcs.push(layer.id());
            }
        });
        for e in trainer.plan_entries() {
            assert!(e.error_bound >= trainer.config().min_eb);
            assert!(e.error_bound <= trainer.config().max_eb);
            plan.set(e.layer, e.error_bound);
        }
        let (x, _) = data.batch(64, 8);
        let mut exact = RawStore::new();
        let mut lossy = CompressedStore::new(SzConfig::with_error_bound(1e-7));
        for store in [&mut exact as &mut dyn ActivationStore, &mut lossy] {
            let mut ctx = ForwardContext {
                store,
                training: true,
                collect: false,
                plan: &plan,
            };
            zoo::tiny_vgg(4, 1).forward(x.clone(), &mut ctx).unwrap();
        }
        assert_eq!(fcs.len(), 2);
        for id in fcs {
            let eb = plan.get(id).expect("every Linear has a plan entry");
            let a = exact.load(SlotId(id, 0)).unwrap().into_f32().unwrap();
            let b = lossy.load(SlotId(id, 0)).unwrap().into_f32().unwrap();
            let worst = a
                .data()
                .iter()
                .zip(b.data())
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f32, f32::max);
            assert!(worst <= eb, "layer {id}: max |x - x̂| {worst} > eb {eb}");
            assert!(
                worst > eb / 100.0,
                "layer {id}: the slot was not stored lossily"
            );
        }
    }

    #[test]
    fn degenerate_sigma_falls_back_model_bounds_are_clamped() {
        // σ_fraction = 0 makes Eq. 8 degenerate for every layer: the
        // controller must fall back to the configured default bound.
        let net = zoo::tiny_vgg(4, 2);
        let mut trainer = AdaptiveTrainer::new(
            net,
            SgdConfig::default(),
            FrameworkConfig {
                sigma_fraction: 0.0,
                ..quick_cfg()
            },
        );
        let data = dataset();
        let (x, labels) = data.batch(0, 8);
        trainer.step(x, &labels).unwrap();
        assert!(!trainer.plan_entries().is_empty());
        assert!(trainer.plan_entries().iter().all(|e| e.fallback));
        let fb = trainer.config().fallback_eb;
        assert!(trainer.plan_entries().iter().all(|e| e.error_bound == fb));

        // With the paper's 1% fraction the model takes over (momentum is
        // non-zero after the first SGD step) and bounds stay clamped.
        let net = zoo::tiny_vgg(4, 2);
        let mut trainer = AdaptiveTrainer::new(net, SgdConfig::default(), quick_cfg());
        for i in 0..5u64 {
            let (x, labels) = data.batch(i * 8, 8);
            trainer.step(x, &labels).unwrap();
        }
        assert!(
            trainer.plan_entries().iter().any(|e| !e.fallback),
            "model should produce at least some non-fallback bounds"
        );
        for e in trainer.plan_entries() {
            assert!(e.error_bound >= trainer.config().min_eb);
            assert!(e.error_bound <= trainer.config().max_eb);
        }
    }

    #[test]
    fn compression_achieves_memory_reduction() {
        ebtrain_obs::set_metrics_enabled(true);
        let net = zoo::tiny_alexnet(4, 3);
        let mut trainer = AdaptiveTrainer::new(net, SgdConfig::default(), quick_cfg());
        let data = dataset();
        for i in 0..5u64 {
            let (x, labels) = data.batch(i * 8, 8);
            trainer.step(x, &labels).unwrap();
        }
        let m = trainer.store_metrics();
        assert!(
            m.compressible_ratio() > 2.0,
            "conv activation ratio {}",
            m.compressible_ratio()
        );
        assert!(m.compress_nanos > 0);
        assert!(m.decompress_nanos > 0);
        // The last step's peak, by kind: every float slot of this net is
        // an encoded conv or FC input, LRN's raw input aside.
        let last = trainer.history().last().unwrap();
        assert_eq!(m.peak.total(), last.peak_store_bytes as u64);
        assert!(m.peak.encoded > 0 && m.peak.bits > 0 && m.peak.float_raw > 0);
        // (Other tests' trainers set the same process-wide gauges.)
        assert!(ebtrain_obs::gauge_value("dnn.store.peak.encoded_bytes") > 0);
        assert!(ebtrain_obs::gauge_value("dnn.store.peak.bits_bytes") > 0);
    }

    #[test]
    fn exact_clt_model_produces_tighter_bounds_early() {
        // Early in training the loss is diffuse, so the exact model's
        // √(P)·L_rms denominator exceeds the paper form's a·L̄ — yielding
        // smaller (more conservative) bounds for the same σ target.
        let data = dataset();
        let run = |form: ModelForm| {
            let net = zoo::tiny_vgg(4, 2);
            let mut trainer = AdaptiveTrainer::new(
                net,
                SgdConfig::default(),
                FrameworkConfig {
                    model_form: form,
                    ..quick_cfg()
                },
            );
            for i in 0..5u64 {
                let (x, labels) = data.batch(i * 8, 8);
                trainer.step(x, &labels).unwrap();
            }
            trainer
                .plan_entries()
                .iter()
                .map(|e| e.error_bound as f64)
                .sum::<f64>()
                / trainer.plan_entries().len().max(1) as f64
        };
        let paper = run(ModelForm::Paper);
        let exact = run(ModelForm::ExactClt);
        assert!(
            exact < paper,
            "exact-CLT bounds ({exact:.2e}) should be tighter than paper-form ({paper:.2e}) early in training"
        );
        assert!(exact > 0.0);
    }

    #[test]
    fn budgeted_trainer_enforces_budget_end_to_end() {
        use ebtrain_dnn::layer::CompressionPlan;
        use ebtrain_dnn::optimizer::Sgd;
        use ebtrain_dnn::store::RawStore;
        use ebtrain_dnn::train::train_step;
        let data = dataset();
        // Raw activation peak of one step, to size the budget below it.
        let raw_peak = {
            let mut net = zoo::tiny_vgg(4, 9);
            let head = ebtrain_dnn::layers::SoftmaxCrossEntropy::new();
            let mut opt = Sgd::new(SgdConfig::default());
            let mut store = RawStore::new();
            let plan = CompressionPlan::new();
            let (x, labels) = data.batch(0, 8);
            train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .unwrap()
            .peak_store_bytes
        };
        let budget = raw_peak / 3;
        let net = zoo::tiny_vgg(4, 9);
        let mut trainer = AdaptiveTrainer::new_budgeted(
            net,
            SgdConfig::default(),
            quick_cfg(),
            BudgetConfig::with_budget(budget),
        );
        for i in 0..6u64 {
            let (x, labels) = data.batch(i * 8, 8);
            let r = trainer.step(x, &labels).unwrap();
            assert!(r.loss.is_finite());
            assert!(
                r.peak_store_bytes <= budget,
                "iter {i}: enforced peak {} > budget {budget}",
                r.peak_store_bytes
            );
        }
        // A budget below the raw peak must create pressure: demoted or
        // evicted slots hold fewer bytes than they were saved with.
        let ratio = trainer.store_metrics().compressible_ratio();
        assert!(ratio > 1.0, "no pressure response: ratio {ratio}");
        // The adaptive plan still populates (controller drives demotion
        // bounds).
        assert!(!trainer.plan_entries().is_empty());
    }

    #[test]
    fn training_still_converges_under_compression() {
        let net = zoo::tiny_vgg(4, 7);
        let mut trainer = AdaptiveTrainer::new(
            net,
            SgdConfig {
                lr: 0.02,
                ..SgdConfig::default()
            },
            quick_cfg(),
        );
        let data = dataset();
        let mut first = None;
        let mut last = 0.0f32;
        for i in 0..10u64 {
            let (x, labels) = data.batch(i * 16, 16);
            let r = trainer.step(x, &labels).unwrap();
            if first.is_none() {
                first = Some(r.loss);
            }
            last = r.loss;
        }
        assert!(
            last < first.unwrap(),
            "loss should fall: {} -> {last}",
            first.unwrap()
        );
    }

    /// FNV-1a over the bits of every parameter, in layer order.
    fn param_checksum(net: &Network) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        net.visit_layers(&mut |layer| {
            for p in layer.params() {
                for v in p.value.data() {
                    hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
                }
            }
        });
        hash
    }

    /// What six steps of one trainer leave behind: each step's loss bits
    /// and enforced peak, the steps whose forward dropped a payload, and
    /// [`param_checksum`] of the trained network.
    #[derive(Debug, PartialEq)]
    struct FrozenRun {
        losses: [u32; 6],
        peaks: [usize; 6],
        dropped: [bool; 6],
        params: u64,
    }

    fn frozen_run(mut trainer: AdaptiveTrainer) -> FrozenRun {
        let data = dataset();
        let mut run = FrozenRun {
            losses: [0; 6],
            peaks: [0; 6],
            dropped: [false; 6],
            params: 0,
        };
        for i in 0..6 {
            let (x, labels) = data.batch(i as u64 * 8, 8);
            let before = ebtrain_obs::snapshot();
            let r = trainer.step(x, &labels).unwrap();
            let drops = ebtrain_obs::snapshot()
                .delta_since(&before)
                .counter("membudget.drops");
            run.losses[i] = r.loss.to_bits();
            run.peaks[i] = r.peak_store_bytes;
            run.dropped[i] = drops > 0;
        }
        run.params = param_checksum(trainer.network());
        run
    }

    #[test]
    fn trainer_outputs_are_frozen() {
        // Losses, peaks and parameter bits of tiny_vgg under the three
        // store shapes a trainer runs: the unbudgeted compressed store, a
        // host-migrating budget at a third of the raw peak, and a
        // drop-for-recompute budget under which every forward drops a
        // payload and the step finishes through the checkpointing
        // fallback. A change to how a step drives its store must keep
        // every bit. Literals captured before the budgeted step became a
        // branch of the one training step.
        ebtrain_obs::set_metrics_enabled(true);
        let raw_peak = {
            let mut net = zoo::tiny_vgg(4, 1);
            let mut opt = Sgd::new(SgdConfig::default());
            let mut store = ebtrain_dnn::store::RawStore::new();
            let (x, labels) = dataset().batch(0, 8);
            ebtrain_dnn::train::train_step(
                &mut net,
                &SoftmaxCrossEntropy::new(),
                &mut opt,
                &mut store,
                &CompressionPlan::new(),
                x,
                &labels,
                false,
            )
            .unwrap()
            .peak_store_bytes
        };
        assert_eq!(raw_peak, 1_321_216);
        let budgeted = |budget: BudgetConfig| {
            AdaptiveTrainer::new_budgeted(
                zoo::tiny_vgg(4, 1),
                SgdConfig::default(),
                quick_cfg(),
                budget,
            )
        };
        let plain = frozen_run(AdaptiveTrainer::new(
            zoo::tiny_vgg(4, 1),
            SgdConfig::default(),
            quick_cfg(),
        ));
        let migrate = frozen_run(budgeted(BudgetConfig::with_budget(raw_peak / 3)));
        let mut drop = BudgetConfig::with_budget(raw_peak * 10 / 21);
        drop.cold = ebtrain_dnn::store::ColdPolicy::DropForRecompute;
        let drop = frozen_run(budgeted(drop));
        assert_eq!(
            plain,
            FrozenRun {
                losses: [
                    0x4011_1ec6,
                    0x3fc8_10e6,
                    0x3fa1_039d,
                    0x3f91_009e,
                    0x3f8e_885b,
                    0x3f8c_0c08
                ],
                peaks: [522_934, 316_031, 313_856, 312_110, 310_778, 258_326],
                dropped: [false; 6],
                params: 0x27bc_970f_dc61_087f,
            }
        );
        assert_eq!(
            migrate,
            FrozenRun {
                losses: [
                    0x4011_1ec6,
                    0x3fc8_10e6,
                    0x3fa1_03ab,
                    0x3f91_0085,
                    0x3f8e_8819,
                    0x3f8c_0c6f
                ],
                peaks: [403_827, 422_803, 421_786, 421_309, 420_777, 435_683],
                dropped: [false; 6],
                params: 0x79e2_4916_b689_c1d0,
            }
        );
        // The fallback's peak is its checkpoints plus the largest
        // segment's, hence above the budget the arena enforces.
        assert_eq!(
            drop,
            FrozenRun {
                losses: [
                    0x3fe3_f05a,
                    0x3fed_3a5d,
                    0x401b_c97c,
                    0x3f80_d1df,
                    0x3f7c_d6b0,
                    0x3fa5_4415
                ],
                peaks: [1_615_448, 1_597_017, 1_597_096, 1_597_015, 1_596_989, 1_591_717],
                dropped: [true; 6],
                params: 0x7258_396b_89f1_c917,
            }
        );
    }
}
