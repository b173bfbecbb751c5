//! [`DistributedTrainer`]: synchronous data-parallel training over the
//! ring collectives.
//!
//! Each of the `N` replicas is a full
//! [`AdaptiveTrainer`] — its own network
//! copy, SGD state, per-layer compression plan, and its own activation
//! store (optionally a [`BudgetedStore`](ebtrain_dnn::store::BudgetedStore)
//! via [`DistConfig::budget`], composing the PR-3 memory budget with
//! data parallelism: every worker's activation set independently honours
//! the device budget). A step shards the global batch, runs all replicas
//! concurrently on a dedicated persistent pool (one thread per rank),
//! and synchronizes through the [`GradSync`] seam with a per-rank
//! [`BucketedGradSync`]: the flat gradient is
//! partitioned into layer-aligned buckets and each bucket's tagged
//! collective launches **as backward retires it**, overlapping ring
//! communication with the remainder of backward. Because every
//! collective returns bit-identical buffers on every rank and each
//! replica applies the same update, **parameters stay in lock-step** —
//! quantization noise included. In ZeRO mode
//! ([`SyncConfig::zero_shard`]) each rank instead owns 1/N of the
//! optimizer state, updates its parameter shard, and the group
//! all-gathers updated parameters exactly.
//!
//! The σ-model hook: on every collection iteration (the framework's `W`
//! cadence) the trainer reads mean |momentum| (`M̄`, Eq. 8) off the
//! chief replica, the observed gradient RMS off the reduced gradient,
//! and re-picks the *communication* error bound via
//! [`comm_error_bound_for_sigma`] — globally from the full-gradient
//! RMS, then refined **per bucket** from each bucket's own RMS
//! ([`per_bucket_comm_bounds`]) — the same collect → assess → re-bound
//! loop the paper runs for activations, now steering the collective.

use crate::bucketed::{BucketedGradSync, SyncConfig};
use crate::collective::{Collective, CommStats};
use crate::ring::{CompressedRing, DenseRing};
use crate::{DistError, Result};
use ebtrain_core::framework::FrameworkConfig;
use ebtrain_core::{
    comm_error_bound_for_sigma, per_bucket_comm_bounds, target_sigma, AdaptiveTrainer,
};
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::SgdConfig;
use ebtrain_dnn::store::BudgetConfig;
use ebtrain_dnn::train::GradSync;
use ebtrain_dnn::DnnError;
use ebtrain_pool::WorkerPool;
use ebtrain_tensor::Tensor;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Gradient transport selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommMode {
    /// Exact dense-f32 ring (baseline).
    Dense,
    /// SZ-compressed ring segments.
    Compressed {
        /// Initial absolute error bound for gradient streams.
        error_bound: f32,
        /// Per-worker error-feedback residuals (recommended).
        error_feedback: bool,
        /// Re-pick the bound every collection iteration from observed
        /// gradient statistics (the σ-model hook); `false` keeps
        /// `error_bound` fixed.
        adaptive: bool,
    },
}

impl CommMode {
    /// Compressed mode with paper-style defaults: eb 1e-3, error
    /// feedback on, σ-adaptive on.
    pub fn compressed_default() -> CommMode {
        CommMode::Compressed {
            error_bound: 1e-3,
            error_feedback: true,
            adaptive: true,
        }
    }
}

/// Configuration of a distributed training group.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker replicas (threads).
    pub world: usize,
    /// Gradient transport.
    pub comm: CommMode,
    /// Per-replica adaptive-framework configuration (activation
    /// compression, collection cadence `W`).
    pub framework: FrameworkConfig,
    /// SGD hyper-parameters (identical on every replica).
    pub sgd: SgdConfig,
    /// When set, every replica stores activations in its own budgeted
    /// arena under this configuration (PR-3 composition).
    pub budget: Option<BudgetConfig>,
    /// Bucketed-sync knobs: backward overlap, ZeRO sharding, straggler
    /// deadline, modeled wire.
    pub sync: SyncConfig,
}

impl DistConfig {
    /// Config with `world` workers, the given transport, and framework /
    /// SGD / sync defaults.
    pub fn new(world: usize, comm: CommMode) -> DistConfig {
        DistConfig {
            world,
            comm,
            framework: FrameworkConfig::default(),
            sgd: SgdConfig::default(),
            budget: None,
            sync: SyncConfig::default(),
        }
    }
}

/// Aggregated outcome of one synchronous distributed step.
#[derive(Debug, Clone, Copy)]
pub struct DistStepRecord {
    /// Iteration number (0-based, lock-step across replicas).
    pub iter: usize,
    /// Mean training loss over the global batch.
    pub loss: f32,
    /// Training accuracy over the global batch.
    pub accuracy: f64,
    /// Largest per-replica peak activation-store residency.
    pub peak_store_bytes: usize,
    /// Communication of this step (payload / dense-equivalent bytes,
    /// messages).
    pub comm: CommStats,
    /// Error bound the gradient transport used this step (`None` for
    /// dense).
    pub comm_error_bound: Option<f32>,
    /// Whether this was a collection iteration.
    pub collected: bool,
    /// Largest per-rank sharded optimizer state (0 outside ZeRO mode).
    pub optimizer_shard_bytes: usize,
}

/// Synchronous data-parallel trainer; see the module docs.
pub struct DistributedTrainer {
    replicas: Vec<AdaptiveTrainer>,
    /// One bucketed synchronizer per rank (zipped with `replicas`).
    syncs: Vec<BucketedGradSync>,
    collective: Arc<dyn Collective>,
    /// Per-rank threads the replicas step on.
    pool: WorkerPool,
    world: usize,
    adaptive_comm: bool,
    error_feedback: bool,
    history: Vec<DistStepRecord>,
}

/// Mean |momentum| across all parameters of a network (the global `M̄`
/// the communication σ target uses).
fn momentum_abs_mean(net: &Network) -> f64 {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    net.visit_layers(&mut |layer| {
        for p in layer.params() {
            sum += p.momentum_abs_mean() * p.value.len() as f64;
            count += p.value.len();
        }
    });
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

impl DistributedTrainer {
    /// Build a group of `cfg.world` replicas. `build` constructs one
    /// network per rank and **must** return structurally identical
    /// networks (call the same zoo constructor with the same seed); the
    /// constructor broadcasts rank 0's parameters through the collective
    /// (exact on every transport — only gradient streams are lossy) so
    /// all replicas provably start from identical weights.
    pub fn new(cfg: DistConfig, build: impl FnMut(usize) -> Network) -> Result<DistributedTrainer> {
        let mut build = build;
        let world = cfg.world;
        if world == 0 {
            return Err(DistError::Config("world size must be >= 1".into()));
        }
        let (collective, adaptive_comm, error_feedback): (Arc<dyn Collective>, bool, bool) =
            match cfg.comm {
                CommMode::Dense => (Arc::new(DenseRing::new(world)), false, false),
                CommMode::Compressed {
                    error_bound,
                    error_feedback,
                    adaptive,
                } => (
                    Arc::new(CompressedRing::new(world, error_bound, error_feedback)),
                    adaptive,
                    error_feedback,
                ),
            };
        if cfg.sync.zero_shard && adaptive_comm {
            // With sharded optimizer state no rank holds the full
            // momentum vector, so the global M̄ statistic Eq. 8 needs is
            // simply not observable — reject instead of silently
            // steering the bound from an all-zeros momentum.
            return Err(DistError::Config(
                "ZeRO sharded optimizer is incompatible with the σ-adaptive comm bound \
                 (momentum lives in shards; pin the bound with adaptive: false)"
                    .into(),
            ));
        }
        collective.set_straggler_timeout(cfg.sync.straggler_timeout);
        collective.set_wire_mibps(cfg.sync.wire_mibps);
        let mut replicas = Vec::with_capacity(world);
        let mut param_count = None;
        for rank in 0..world {
            let mut net = build(rank);
            // Identical parameters, independent mask streams: real
            // data-parallel stacks give every device its own RNG state,
            // and correlated dropout across shards measurably distorts
            // gradient statistics.
            net.reseed_stochastic(rank as u64 + 1);
            match param_count {
                None => param_count = Some(net.param_count()),
                Some(c) if c == net.param_count() => {}
                Some(c) => {
                    return Err(DistError::Config(format!(
                        "replica {rank} has {} parameters, replica 0 has {c}",
                        net.param_count()
                    )))
                }
            }
            replicas.push(match &cfg.budget {
                Some(b) => AdaptiveTrainer::new_budgeted(
                    net,
                    cfg.sgd.clone(),
                    cfg.framework.clone(),
                    b.clone(),
                ),
                None => AdaptiveTrainer::new(net, cfg.sgd.clone(), cfg.framework.clone()),
            });
        }
        // The comm pool carries the in-flight bucket collectives. Its
        // threads mostly sleep in ring waits (or the modeled wire), so
        // over-provisioning beyond the core count is cheap and buys
        // overlap; joins inline-run queued tasks, so even a saturated
        // pool cannot deadlock (see `bucketed` module docs).
        let comm_pool = Arc::new(WorkerPool::new((world * 2).max(2)));
        let syncs = replicas
            .iter()
            .enumerate()
            .map(|(rank, t)| {
                BucketedGradSync::new(
                    rank,
                    Arc::clone(&collective),
                    Arc::clone(&comm_pool),
                    t.network(),
                    &cfg.sync,
                    cfg.sync.zero_shard.then(|| cfg.sgd.clone()),
                    rank == 0 && !cfg.sync.zero_shard,
                )
            })
            .collect::<Vec<_>>();
        let mut trainer = DistributedTrainer {
            replicas,
            syncs,
            collective,
            pool: WorkerPool::new(world),
            world,
            adaptive_comm,
            error_feedback,
            history: Vec::new(),
        };
        trainer.broadcast_params(0)?;
        Ok(trainer)
    }

    /// Broadcast `root`'s parameters to every replica through the
    /// collective — exact on every transport, so all replicas hold
    /// `root`'s values bit for bit.
    fn broadcast_params(&mut self, root: usize) -> Result<()> {
        if self.world <= 1 {
            return Ok(());
        }
        let collective = Arc::clone(&self.collective);
        self.on_every_rank(vec![(); self.world], |rank, trainer, _, ()| {
            let net = trainer.network_mut();
            let mut flat = Vec::new();
            net.flatten_params_into(&mut flat);
            collective.broadcast(rank, root, &mut flat)?;
            net.unflatten_params(&flat).map_err(DistError::Dnn)
        })?;
        Ok(())
    }

    /// Run `work` once per rank, concurrently on the rank pool, with that
    /// rank's replica, synchronizer and input. A rank that fails or
    /// panics aborts the collective first, so no peer stays blocked in
    /// the ring; the first failure in rank order is returned and a panic
    /// is re-raised.
    fn on_every_rank<I: Send, T: Send>(
        &mut self,
        inputs: Vec<I>,
        work: impl Fn(usize, &mut AdaptiveTrainer, &mut BucketedGradSync, I) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let mut outcomes: Vec<Option<Result<T>>> = (0..self.world).map(|_| None).collect();
        let (work, collective) = (&work, &self.collective);
        self.pool.scope(|s| {
            for (rank, (((trainer, sync), out), input)) in self
                .replicas
                .iter_mut()
                .zip(self.syncs.iter_mut())
                .zip(outcomes.iter_mut())
                .zip(inputs)
                .enumerate()
            {
                s.spawn(move || {
                    match catch_unwind(AssertUnwindSafe(|| work(rank, trainer, sync, input))) {
                        Ok(r) => {
                            if r.is_err() {
                                collective.abort();
                            }
                            *out = Some(r);
                        }
                        Err(panic) => {
                            collective.abort();
                            resume_unwind(panic);
                        }
                    }
                });
            }
        });
        outcomes.into_iter().map(|o| o.expect("rank ran")).collect()
    }

    /// One synchronous step over a global batch (must divide evenly by
    /// the world size). Shards the batch, steps every replica
    /// concurrently with the gradient collective in its sync hook, and
    /// aggregates the per-replica records.
    pub fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<DistStepRecord> {
        let (n, c, h, w) = x.dims4();
        if n == 0 || n % self.world != 0 {
            return Err(DistError::Config(format!(
                "global batch {n} not divisible by world size {}",
                self.world
            )));
        }
        if labels.len() != n {
            return Err(DistError::Config(format!(
                "{} labels for batch {n}",
                labels.len()
            )));
        }
        let shard = n / self.world;
        let plane = c * h * w;
        let shards = (0..self.world)
            .map(|widx| {
                let lo = widx * shard;
                let t = Tensor::from_vec(
                    &[shard, c, h, w],
                    x.data()[lo * plane..(lo + shard) * plane].to_vec(),
                )
                .map_err(|e| DistError::Dnn(DnnError::Tensor(e)))?;
                Ok((t, labels[lo..lo + shard].to_vec()))
            })
            .collect::<Result<Vec<_>>>()?;

        let stats_before = self.collective.stats();
        let step_start = std::time::Instant::now();
        let records = self.on_every_rank(shards, |_, trainer, sync, (sx, slabels)| {
            trainer
                .step_synced(sx, &slabels, Some(sync as &mut dyn GradSync))
                .map_err(DistError::Dnn)
        })?;

        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut peak = 0usize;
        for record in &records {
            loss_sum += record.loss as f64;
            acc_sum += record.accuracy;
            peak = peak.max(record.peak_store_bytes);
        }
        let (iter, collected) = (records[0].iter, records[0].collected);
        let comm = self.collective.stats().delta_since(&stats_before);
        // The "dist.step" stream is separate from the replicas'
        // "core.step" records (each replica also reported above).
        ebtrain_obs::flight_step(ebtrain_obs::FlightRecord {
            source: "dist.step",
            step: iter as u64,
            loss: loss_sum / self.world as f64,
            step_nanos: step_start.elapsed().as_nanos() as u64,
            comm_bytes: comm.payload_bytes,
            compression_ratio: comm.reduction_ratio(),
            queue_depth_peak: ebtrain_obs::gauge_peak_take("pool.queue_depth"),
            anomalies: 0,
        });
        // The bound the just-completed collectives actually encoded with
        // — captured before the σ-hook re-picks it for the *next* step.
        let used_eb = self.collective.error_bound();

        // The σ-model hook: on collection iterations, re-pick the
        // communication bound from M̄ (Eq. 8's σ target) and the observed
        // gradient RMS — globally, then refined per bucket from each
        // bucket's own RMS. (Unreachable in ZeRO mode: adaptive + ZeRO
        // is rejected at construction and the chief computes no summary.)
        if self.adaptive_comm && collected {
            if let Some(summary) = self.syncs[0].last_summary() {
                let m_avg = momentum_abs_mean(self.replicas[0].network());
                let fw = self.replicas[0].config();
                let (min_eb, max_eb) = (fw.min_eb, fw.max_eb);
                let sigma = target_sigma(m_avg, fw.sigma_fraction);
                if let Some(eb) =
                    comm_error_bound_for_sigma(sigma, summary.rms, self.error_feedback)
                {
                    let eb = (eb as f32).clamp(min_eb, max_eb);
                    self.collective.set_error_bound(eb);
                }
                let bucket_rms = self.syncs[0].last_bucket_rms();
                for (b, bound) in per_bucket_comm_bounds(sigma, bucket_rms, self.error_feedback)
                    .into_iter()
                    .enumerate()
                {
                    self.collective.set_bucket_error_bound(
                        b as u64,
                        bound.map(|e| (e as f32).clamp(min_eb, max_eb)),
                    );
                }
            }
        }

        let record = DistStepRecord {
            iter,
            loss: (loss_sum / self.world as f64) as f32,
            accuracy: acc_sum / self.world as f64,
            peak_store_bytes: peak,
            comm,
            comm_error_bound: used_eb,
            collected,
            optimizer_shard_bytes: self
                .syncs
                .iter()
                .map(|s| s.optimizer_shard_bytes())
                .max()
                .unwrap_or(0),
        };
        self.history.push(record);
        Ok(record)
    }

    /// Number of worker replicas.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// The chief replica (rank 0), e.g. for evaluation.
    pub fn chief(&self) -> &AdaptiveTrainer {
        &self.replicas[0]
    }

    /// Any replica (panics on out-of-range rank).
    pub fn replica(&self, rank: usize) -> &AdaptiveTrainer {
        &self.replicas[rank]
    }

    /// Evaluate a batch on the chief replica.
    pub fn evaluate(&mut self, x: Tensor, labels: &[usize]) -> Result<(f32, usize)> {
        self.replicas[0].evaluate(x, labels).map_err(DistError::Dnn)
    }

    /// Cumulative collective counters.
    pub fn comm_stats(&self) -> CommStats {
        self.collective.stats()
    }

    /// Current gradient-transport error bound (`None` for dense).
    pub fn comm_error_bound(&self) -> Option<f32> {
        self.collective.error_bound()
    }

    /// Transport name (reporting).
    pub fn comm_name(&self) -> &'static str {
        self.collective.name()
    }

    /// Number of gradient buckets each step synchronizes (identical on
    /// every rank).
    pub fn num_buckets(&self) -> usize {
        self.syncs[0].plan().num_buckets()
    }

    /// Per-step records so far.
    pub fn history(&self) -> &[DistStepRecord] {
        &self.history
    }

    /// Completed iterations (lock-step across replicas).
    pub fn iteration(&self) -> usize {
        self.replicas[0].iteration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_data::{SynthConfig, SynthImageNet};
    use ebtrain_dnn::network::NetworkBuilder;
    use ebtrain_dnn::zoo;

    fn dataset(seed: u64) -> SynthImageNet {
        SynthImageNet::new(SynthConfig {
            classes: 4,
            image_hw: 32,
            noise: 0.15,
            seed,
        })
    }

    /// BN/dropout-free net: per-shard math equals large-batch math.
    fn plain_net(seed: u64) -> Network {
        let mut b = NetworkBuilder::new("plain", &[3, 32, 32], seed);
        b.conv(8, 3, 1, 1)
            .relu()
            .maxpool(2, 2, 0)
            .conv(16, 3, 1, 1)
            .relu()
            .maxpool(2, 2, 0)
            .linear(4);
        b.build()
    }

    fn quick_fw() -> FrameworkConfig {
        FrameworkConfig {
            w_interval: 4,
            ..FrameworkConfig::default()
        }
    }

    #[test]
    fn dense_group_tracks_single_worker() {
        let data = dataset(51);
        // Single worker, batch 16, via the same AdaptiveTrainer path.
        let mut single = AdaptiveTrainer::new(plain_net(9), SgdConfig::default(), quick_fw());
        let mut cfg = DistConfig::new(2, CommMode::Dense);
        cfg.framework = quick_fw();
        let mut group = DistributedTrainer::new(cfg, |_| plain_net(9)).unwrap();
        for i in 0..3u64 {
            let (x, labels) = data.batch(i * 16, 16);
            let rs = single.step(x.clone(), &labels).unwrap();
            let rg = group.step(x, &labels).unwrap();
            assert!(
                (rs.loss - rg.loss).abs() < 1e-4,
                "iter {i}: {} vs {}",
                rs.loss,
                rg.loss
            );
        }
        let st = group.comm_stats();
        assert_eq!(st.payload_bytes, st.dense_equiv_bytes);
        assert!(st.phases >= 6, "2 phases per step expected: {st:?}");
    }

    #[test]
    fn compressed_replicas_stay_in_lockstep() {
        let data = dataset(7);
        let mut cfg = DistConfig::new(
            3,
            CommMode::Compressed {
                error_bound: 1e-3,
                error_feedback: true,
                adaptive: false,
            },
        );
        cfg.framework = quick_fw();
        let mut group = DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(4, 3)).unwrap();
        for i in 0..3u64 {
            let (x, labels) = data.batch(i * 12, 12);
            let r = group.step(x, &labels).unwrap();
            assert!(r.loss.is_finite());
            assert!(r.comm.payload_bytes > 0);
            assert!(r.comm.payload_bytes < r.comm.dense_equiv_bytes);
        }
        // Bit-identical parameters on every replica despite lossy comm.
        let mut reference: Vec<Vec<f32>> = Vec::new();
        group.replica(0).network().visit_layers(&mut |l| {
            for p in l.params() {
                reference.push(p.value.data().to_vec());
            }
        });
        for rank in 1..group.world_size() {
            let mut i = 0usize;
            group.replica(rank).network().visit_layers(&mut |l| {
                for p in l.params() {
                    assert_eq!(
                        p.value.data(),
                        reference[i].as_slice(),
                        "rank {rank} param {i} diverged"
                    );
                    i += 1;
                }
            });
        }
    }

    #[test]
    fn adaptive_comm_bound_engages_after_momentum_exists() {
        let data = dataset(13);
        let mut cfg = DistConfig::new(2, CommMode::compressed_default());
        cfg.framework = quick_fw();
        let init_eb = 1e-3f32;
        let mut group = DistributedTrainer::new(cfg, |_| plain_net(4)).unwrap();
        assert_eq!(group.comm_error_bound(), Some(init_eb));
        for i in 0..5u64 {
            let (x, labels) = data.batch(i * 8, 8);
            group.step(x, &labels).unwrap();
        }
        // The hook runs after the optimizer step, so momentum exists by
        // the first (iter-0) collection already: the σ target is live
        // from step 2 on.
        let eb = group.comm_error_bound().unwrap();
        assert!(eb > 0.0 && eb != init_eb, "σ hook never engaged: {eb}");
        // History records the bound each step's all_reduce actually
        // used: the first step encoded with the initial bound (the
        // re-pick only applies from the next step on).
        assert_eq!(group.history()[0].comm_error_bound, Some(init_eb));
        let (x, labels) = data.batch(100, 8);
        let r = group.step(x, &labels).unwrap();
        assert_eq!(
            r.comm_error_bound,
            Some(eb),
            "the re-picked bound applies to the next step"
        );
    }

    #[test]
    fn budgeted_replicas_enforce_budget_under_data_parallelism() {
        use ebtrain_dnn::layer::CompressionPlan;
        use ebtrain_dnn::layers::SoftmaxCrossEntropy;
        use ebtrain_dnn::optimizer::Sgd;
        use ebtrain_dnn::store::RawStore;
        use ebtrain_dnn::train::train_step;
        let data = dataset(31);
        // Per-shard raw activation peak, to size a budget below it.
        let raw_peak = {
            let mut net = zoo::tiny_vgg(4, 5);
            let head = SoftmaxCrossEntropy::new();
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
        let mut cfg = DistConfig::new(2, CommMode::compressed_default());
        cfg.framework = quick_fw();
        cfg.budget = Some(BudgetConfig::with_budget(budget));
        let mut group = DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(4, 5)).unwrap();
        for i in 0..4u64 {
            let (x, labels) = data.batch(i * 16, 16);
            let r = group.step(x, &labels).unwrap();
            assert!(
                r.peak_store_bytes <= budget,
                "iter {i}: peak {} > budget {budget}",
                r.peak_store_bytes
            );
        }
    }

    #[test]
    fn rejects_bad_configurations() {
        assert!(
            DistributedTrainer::new(DistConfig::new(0, CommMode::Dense), |_| plain_net(1)).is_err()
        );
        // Mismatched replicas.
        assert!(
            DistributedTrainer::new(DistConfig::new(2, CommMode::Dense), |rank| {
                if rank == 0 {
                    plain_net(1)
                } else {
                    zoo::tiny_vgg(4, 1)
                }
            })
            .is_err()
        );
        // Indivisible batch.
        let data = dataset(1);
        let mut group =
            DistributedTrainer::new(DistConfig::new(2, CommMode::Dense), |_| plain_net(1)).unwrap();
        let (x, labels) = data.batch(0, 9);
        assert!(group.step(x, &labels).is_err());
    }
}
