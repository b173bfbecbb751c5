//! [`BucketedGradSync`]: the bucket-granular, backward-overlapped
//! gradient synchronizer.
//!
//! One instance lives on each rank and plugs into the training loop
//! through the [`GradSync`] seam of `ebtrain-dnn`:
//!
//! * [`begin`](GradSync::begin) resets the per-step bucket state;
//! * [`grad_ready`](GradSync::grad_ready) fires as backward retires
//!   each layer — the layer's gradients are copied into the flat view
//!   at the offset its [`BucketPlan`] slot dictates, and the moment the
//!   *last* layer of a bucket retires, that bucket's collective is
//!   **launched asynchronously** on the shared comm pool (overlap
//!   mode), so ring hops for early (deep) buckets run while backward is
//!   still producing shallower layers' gradients;
//! * [`finish`](GradSync::finish) launches any stragglers (non-overlap
//!   mode launches everything here), joins the in-flight collectives in
//!   launch order — reporting the blocked time under the
//!   `dist.wait.nanos` registry counter (and a `dist.wait` span) — and
//!   either writes the averaged gradients back (classic all-reduce,
//!   [`SyncAction::LocalStep`]) or runs the **ZeRO-style sharded
//!   optimizer** and all-gathers updated parameters
//!   ([`SyncAction::StepApplied`]).
//!
//! # ZeRO-style sharded optimizer state
//!
//! In reduce-scatter-only mode each rank owns one ring segment of
//! every bucket (always segment `(rank + 1) % world` — the ring's
//! reduce-scatter invariant), keeps **momentum only for the owned
//! shards** (`~1/N` of the dense momentum footprint), applies the SGD
//! update to the owned parameter shard via
//! [`flat_sgd_update`] (bit-identical to the per-parameter
//! [`Sgd`](ebtrain_dnn::optimizer::Sgd) update), and all-gathers the
//! updated parameters **exactly** (dense f32, like the startup
//! broadcast) — so replicas remain bit-identical by construction even
//! on the lossy transport.
//!
//! # Why joining can't deadlock
//!
//! Every bucket task is, at any instant, either *running* on the comm
//! pool, *queued* (its rank's `finish` will inline-run it when joining
//! — `ebtrain-pool` handles claim queued work on join), or *not yet
//! submitted* (its rank's `finish` launches leftovers first). So every
//! task eventually runs, a blocked ring hop always gets its peer
//! message, and the worst case under pool saturation degrades to
//! non-overlapped serialization — never deadlock. A genuinely absent
//! peer is the straggler deadline's job
//! ([`Collective::set_straggler_timeout`]).

use crate::collective::{seg_ranges_at, Collective};
use crate::{DistError, Result};
use ebtrain_core::{summarize_gradient, GradSummary};
use ebtrain_dnn::bucket::BucketPlan;
use ebtrain_dnn::layer::Layer;
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::{flat_sgd_update, SgdConfig};
use ebtrain_dnn::train::{GradSync, SyncAction};
use ebtrain_dnn::DnnError;
use ebtrain_pool::{TaskHandle, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Target f32-gradient bytes per bucket.
const BUCKET_BYTES: usize = 256 * 1024;

/// Knobs of the bucketed synchronizer (one per group, identical on all
/// ranks).
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Launch each bucket's collective as soon as backward retires it
    /// (overlap with the rest of backward). `false` launches everything
    /// after backward — the non-overlapped baseline.
    pub overlap: bool,
    /// ZeRO-style mode: reduce-scatter only, shard the optimizer
    /// state, all-gather updated parameters exactly. Incompatible with
    /// the σ-adaptive comm bound (momentum lives in shards).
    pub zero_shard: bool,
    /// Bounded-staleness deadline: a rank waiting longer than this for
    /// a peer's message poisons the group and everyone gets a clean
    /// `Aborted`. `None` = wait forever.
    pub straggler_timeout: Option<Duration>,
    /// Modeled interconnect bandwidth (MiB/s): senders sleep
    /// `bytes / bandwidth` per message. `None` = off (in-memory handoff
    /// is free).
    pub wire_mibps: Option<f64>,
}

impl Default for SyncConfig {
    fn default() -> SyncConfig {
        SyncConfig {
            overlap: true,
            zero_shard: false,
            straggler_timeout: None,
            wire_mibps: None,
        }
    }
}

/// Result of one bucket's collective.
struct BucketDone {
    /// The bucket's values after the collective (averaged everywhere
    /// for all-reduce; summed in the owned segment for reduce-scatter).
    vals: Vec<f32>,
    /// Owned segment index (reduce-scatter mode only).
    owned: Option<usize>,
}

type BucketOutcome = std::result::Result<BucketDone, DistError>;

/// Sharded (ZeRO-style) optimizer state of one rank.
struct ZeroState {
    cfg: SgdConfig,
    iter: usize,
    /// Momentum for the owned segment of each bucket.
    momentum: Vec<Vec<f32>>,
    /// Weight-decay mask over the full flat parameter layout.
    decay: Vec<bool>,
    /// Scratch: the full flat parameter vector (reused across steps).
    flat_params: Vec<f32>,
    /// Bytes of optimizer state this rank actually holds.
    shard_bytes: usize,
}

/// Per-rank bucketed gradient synchronizer; see the module docs.
pub struct BucketedGradSync {
    rank: usize,
    world: usize,
    coll: Arc<dyn Collective>,
    pool: Arc<WorkerPool>,
    plan: Arc<BucketPlan>,
    overlap: bool,
    zero: Option<ZeroState>,
    want_summary: bool,
    // ---- per-step state ----
    flat: Vec<f32>,
    /// Per bucket: layers still to retire before launch.
    remaining: Vec<usize>,
    inflight: Vec<Option<TaskHandle<BucketOutcome>>>,
    launch_order: Vec<usize>,
    // ---- post-step observations (chief) ----
    last_summary: Option<GradSummary>,
    last_bucket_rms: Vec<f64>,
}

impl BucketedGradSync {
    /// Build the synchronizer for one rank. `plan` must be identical on
    /// every rank (it is — [`BucketPlan::build`] is deterministic over
    /// structurally identical networks). `zero_sgd` switches on the
    /// sharded-optimizer mode and must be `Some` iff
    /// [`SyncConfig::zero_shard`] is set; `want_summary` makes `finish`
    /// compute full and per-bucket gradient statistics (the chief rank
    /// feeds them to the σ-model).
    pub fn new(
        rank: usize,
        coll: Arc<dyn Collective>,
        pool: Arc<WorkerPool>,
        net: &Network,
        cfg: &SyncConfig,
        zero_sgd: Option<SgdConfig>,
        want_summary: bool,
    ) -> BucketedGradSync {
        let world = coll.world_size();
        let plan = Arc::new(BucketPlan::build(net, BUCKET_BYTES));
        debug_assert_eq!(cfg.zero_shard, zero_sgd.is_some());
        let zero = zero_sgd.map(|sgd| {
            let mut decay = Vec::with_capacity(plan.total_len());
            net.visit_layers(&mut |layer| {
                for p in layer.params() {
                    decay.extend(std::iter::repeat_n(p.weight_decay, p.value.len()));
                }
            });
            debug_assert_eq!(decay.len(), plan.total_len());
            // Owned segment per bucket is fixed by the ring schedule:
            // (rank + 1) % world — size the momentum shards up front.
            // Buckets segment on the whole-tensor map (`seg_ranges_at`),
            // so this rank's owned pieces tile exactly whole-tensor
            // segment (rank + 1) % world: ~1/N of the parameters.
            let momentum: Vec<Vec<f32>> = (0..plan.num_buckets())
                .map(|b| {
                    let br = plan.bucket_range(b);
                    let owned = if world <= 1 { 0 } else { (rank + 1) % world };
                    vec![
                        0.0;
                        seg_ranges_at(br.start, br.len(), plan.total_len(), world)[owned].len()
                    ]
                })
                .collect();
            let shard_bytes = momentum.iter().map(|m| m.len() * 4).sum();
            ZeroState {
                cfg: sgd,
                iter: 0,
                momentum,
                decay,
                flat_params: Vec::new(),
                shard_bytes,
            }
        });
        let nb = plan.num_buckets();
        BucketedGradSync {
            rank,
            world,
            coll,
            pool,
            plan,
            overlap: cfg.overlap,
            zero,
            want_summary,
            flat: Vec::new(),
            remaining: vec![0; nb],
            inflight: (0..nb).map(|_| None).collect(),
            launch_order: Vec::new(),
            last_summary: None,
            last_bucket_rms: Vec::new(),
        }
    }

    /// The bucket plan this rank synchronizes with.
    pub fn plan(&self) -> &BucketPlan {
        &self.plan
    }

    /// Bytes of sharded optimizer state this rank holds (0 outside ZeRO
    /// mode) — the number a budgeted activation store is *told about*
    /// but must never charge against the activation budget.
    pub fn optimizer_shard_bytes(&self) -> usize {
        self.zero.as_ref().map_or(0, |z| z.shard_bytes)
    }

    /// Full reduced-gradient summary of the last step (only when built
    /// with `want_summary`; `None` in ZeRO mode, where the full reduced
    /// gradient never materializes on one rank).
    pub fn last_summary(&self) -> Option<GradSummary> {
        self.last_summary
    }

    /// Per-bucket RMS of the last step's reduced gradient (same
    /// conditions as [`last_summary`](BucketedGradSync::last_summary)).
    pub fn last_bucket_rms(&self) -> &[f64] {
        &self.last_bucket_rms
    }

    /// Launch bucket `b`'s collective on the comm pool. Aligned entry
    /// points: the bucket inherits the whole-tensor segment map, so the
    /// dense reduction is bit-identical to a whole-tensor sync.
    fn launch(&mut self, b: usize) {
        let brange = self.plan.bucket_range(b);
        let start = brange.start;
        let total = self.plan.total_len();
        let mut vals = self.flat[brange].to_vec();
        let coll = Arc::clone(&self.coll);
        let rank = self.rank;
        let scatter_only = self.zero.is_some();
        let tag = b as u64;
        let handle = self.pool.submit(move || -> BucketOutcome {
            // Spanning the whole collective (hops included) puts one
            // `dist.collective` block per bucket in the trace timeline —
            // the overlap with backward is directly visible in Perfetto.
            let _span = ebtrain_obs::span!("dist.collective", bytes = vals.len() * 4);
            if scatter_only {
                let owned = coll.reduce_scatter_aligned(rank, &mut vals, tag, start, total)?;
                Ok(BucketDone {
                    vals,
                    owned: Some(owned),
                })
            } else {
                coll.all_reduce_aligned(rank, &mut vals, tag, start, total)?;
                Ok(BucketDone { vals, owned: None })
            }
        });
        self.inflight[b] = Some(handle);
        self.launch_order.push(b);
    }

    /// Sharded update of one bucket: average the owned segment, step
    /// SGD on the owned parameter shard, all-gather updated parameters
    /// exactly.
    fn zero_apply_bucket(&mut self, b: usize, mut grads: Vec<f32>, owned: usize) -> Result<()> {
        let brange = self.plan.bucket_range(b);
        let total = self.plan.total_len();
        let z = self.zero.as_mut().expect("zero mode");
        let o = seg_ranges_at(brange.start, brange.len(), total, self.world)[owned].clone();
        if !o.is_empty() {
            let inv = 1.0 / self.world as f32;
            for v in &mut grads[o.clone()] {
                *v *= inv;
            }
            let g = brange.start + o.start..brange.start + o.end;
            if z.momentum[b].len() != o.len() {
                z.momentum[b] = vec![0.0; o.len()];
            }
            flat_sgd_update(
                &z.cfg,
                z.iter,
                &mut z.flat_params[g.clone()],
                &grads[o.clone()],
                &mut z.momentum[b],
                &z.decay[g],
            );
        }
        let start = brange.start;
        self.coll.all_gather_exact_aligned(
            self.rank,
            owned,
            &mut z.flat_params[brange],
            b as u64,
            start,
            total,
        )
    }
}

impl GradSync for BucketedGradSync {
    fn begin(&mut self, _net: &mut Network) -> ebtrain_dnn::Result<()> {
        if self.inflight.iter().any(|h| h.is_some()) {
            return Err(DnnError::State(
                "bucketed sync: previous step's collectives still in flight".into(),
            ));
        }
        let total = self.plan.total_len();
        if self.flat.len() != total {
            self.flat = vec![0.0; total];
        }
        for (r, b) in self.remaining.iter_mut().zip(self.plan.buckets()) {
            *r = b.layers.len();
        }
        self.launch_order.clear();
        self.last_summary = None;
        self.last_bucket_rms.clear();
        Ok(())
    }

    fn grad_ready(&mut self, layer: &dyn Layer) -> ebtrain_dnn::Result<()> {
        let Some(slot) = self.plan.slot(layer.id()) else {
            return Ok(());
        };
        let mut off = slot.flat_offset;
        for p in layer.params() {
            let g = p.grad.data();
            self.flat[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        }
        debug_assert_eq!(off - slot.flat_offset, slot.len);
        let b = slot.bucket;
        self.remaining[b] = self.remaining[b]
            .checked_sub(1)
            .ok_or_else(|| DnnError::State(format!("bucket {b}: layer retired more than once")))?;
        if self.remaining[b] == 0 && self.overlap {
            self.launch(b);
        }
        Ok(())
    }

    fn finish(&mut self, net: &mut Network) -> ebtrain_dnn::Result<SyncAction> {
        // Launch everything not yet in flight (all buckets in
        // non-overlap mode; in overlap mode there should be none left —
        // but a layer that never fired is a hard error, not a silent
        // empty reduce).
        for b in 0..self.plan.num_buckets() {
            if self.inflight[b].is_none() {
                if self.remaining[b] != 0 {
                    return Err(DnnError::State(format!(
                        "bucket {b}: {} layer(s) never produced gradients",
                        self.remaining[b]
                    )));
                }
                self.launch(b);
            }
        }
        // ZeRO needs the current parameters before applying updates.
        if let Some(z) = self.zero.as_mut() {
            let mut flat_params = std::mem::take(&mut z.flat_params);
            net.flatten_params_into(&mut flat_params);
            z.flat_params = flat_params;
        }
        // Join in launch order; the blocked time is the non-overlapped
        // tail the phase breakdown reports as `wait`.
        let order = std::mem::take(&mut self.launch_order);
        let mut outcomes: Vec<Option<BucketDone>> =
            (0..self.plan.num_buckets()).map(|_| None).collect();
        let mut first_err: Option<DistError> = None;
        let mut waited = 0u64;
        {
            let _wait_span = ebtrain_obs::span!("dist.wait");
            for b in order {
                let handle = self.inflight[b].take().expect("launched above");
                let t0 = Instant::now();
                let out = handle.join();
                waited += t0.elapsed().as_nanos() as u64;
                match out {
                    Ok(done) => outcomes[b] = Some(done),
                    Err(e) => {
                        // Make sure peers blocked on later buckets get out.
                        self.coll.abort();
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }
        ebtrain_obs::counter_add("dist.wait.nanos", waited);
        if let Some(e) = first_err {
            return Err(DnnError::State(format!(
                "bucketed gradient sync failed: {e}"
            )));
        }
        if self.zero.is_some() {
            for (b, done) in outcomes.into_iter().enumerate() {
                let done = done.expect("joined above");
                let owned = done.owned.expect("reduce-scatter mode");
                self.zero_apply_bucket(b, done.vals, owned).map_err(|e| {
                    self.coll.abort();
                    DnnError::State(format!("sharded optimizer step failed: {e}"))
                })?;
            }
            let z = self.zero.as_mut().expect("zero mode");
            z.iter += 1;
            let flat_params = std::mem::take(&mut z.flat_params);
            net.unflatten_params(&flat_params)?;
            self.zero.as_mut().expect("zero mode").flat_params = flat_params;
            Ok(SyncAction::StepApplied)
        } else {
            for (b, done) in outcomes.into_iter().enumerate() {
                let done = done.expect("joined above");
                self.flat[self.plan.bucket_range(b)].copy_from_slice(&done.vals);
            }
            if self.want_summary {
                self.last_bucket_rms = (0..self.plan.num_buckets())
                    .map(|b| summarize_gradient(&self.flat[self.plan.bucket_range(b)]).rms)
                    .collect();
                self.last_summary = Some(summarize_gradient(&self.flat));
            }
            net.unflatten_grads(&self.flat)?;
            Ok(SyncAction::LocalStep)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::DenseRing;
    use ebtrain_dnn::zoo;

    /// Emulate what `Network::backward` does: retire layers in reverse
    /// visit order, calling `grad_ready` on each. `visit_layers` borrows
    /// `net` immutably while `sync` is a separate local, so a raw
    /// reborrow of `sync` inside the closure is alias-free.
    fn drive_backward(net: &Network, sync: &mut BucketedGradSync) {
        let mut ids = Vec::new();
        net.visit_layers(&mut |l| ids.push(l.id()));
        for &id in ids.iter().rev() {
            let mut err = None;
            // Split borrows: take sync out of scope of net's iteration.
            let sync_ptr: *mut BucketedGradSync = sync;
            net.visit_layers(&mut |l| {
                if l.id() == id && err.is_none() {
                    // SAFETY: visit_layers only borrows net; sync is a
                    // separate local. No aliasing.
                    let s = unsafe { &mut *sync_ptr };
                    if let Err(e) = s.grad_ready(l) {
                        err = Some(e);
                    }
                }
            });
            if let Some(e) = err {
                panic!("grad_ready failed: {e}");
            }
        }
    }

    #[test]
    fn single_rank_bucketed_sync_is_an_identity() {
        // world 1: collectives are no-ops; the bucketed path must hand
        // back exactly the gradients backward produced.
        let mut net = zoo::tiny_vgg(4, 3);
        let coll: Arc<dyn Collective> = Arc::new(DenseRing::new(1));
        let pool = Arc::new(WorkerPool::new(2));
        let cfg = SyncConfig::default();
        let mut sync = BucketedGradSync::new(0, coll, pool, &net, &cfg, None, true);
        assert!(sync.plan().num_buckets() > 1, "tiny_vgg should bucket");

        // Fake a backward pass: deposit known gradients, fire the hook
        // for every layer in reverse order, finish.
        sync.begin(&mut net).unwrap();
        let mut expect = Vec::new();
        {
            let mut seed = 0u32;
            for p in net.params_mut() {
                for g in p.grad.data_mut() {
                    seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                    *g = (seed >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                    expect.push(*g);
                }
            }
        }
        drive_backward(&net, &mut sync);
        let action = sync.finish(&mut net).unwrap();
        assert!(matches!(action, SyncAction::LocalStep));
        let mut got = Vec::new();
        net.flatten_grads_into(&mut got);
        assert_eq!(got, expect, "world-1 sync must be an identity");
        assert!(sync.last_summary().is_some());
        assert_eq!(sync.last_bucket_rms().len(), sync.plan().num_buckets());
    }

    #[test]
    fn seeded_straggler_never_deadlocks_overlapped_buckets() {
        // Deterministic straggler injection under the *overlapped* async
        // bucket path: one seeded-random rank delays its whole backward
        // past the straggler deadline while its peers' bucket
        // collectives are already in flight on the comm pool. The
        // deadline must poison the group — every rank's `finish`
        // surfaces a clean error and nobody deadlocks.
        use rand::{Rng, SeedableRng};
        let world = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xEB2021);
        let straggler = rng.gen_range(0..world);
        let delay = Duration::from_millis(rng.gen_range(250..400));
        let coll: Arc<dyn Collective> = Arc::new(DenseRing::new(world));
        coll.set_straggler_timeout(Some(Duration::from_millis(80)));
        let comm_pool = Arc::new(WorkerPool::new(world * 2));
        let driver = WorkerPool::new(world);
        let mut outcomes: Vec<Option<ebtrain_dnn::Result<SyncAction>>> =
            (0..world).map(|_| None).collect();
        let t0 = Instant::now();
        driver.scope(|s| {
            for (rank, out) in outcomes.iter_mut().enumerate() {
                let coll = Arc::clone(&coll);
                let comm_pool = Arc::clone(&comm_pool);
                s.spawn(move || {
                    let mut net = zoo::tiny_vgg(4, 3);
                    let mut sync = BucketedGradSync::new(
                        rank,
                        coll,
                        comm_pool,
                        &net,
                        &SyncConfig::default(), // overlap on
                        None,
                        false,
                    );
                    sync.begin(&mut net).unwrap();
                    if rank == straggler {
                        std::thread::sleep(delay);
                    }
                    drive_backward(&net, &mut sync);
                    *out = Some(sync.finish(&mut net));
                });
            }
        });
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "straggler handling must not degrade into a hang"
        );
        for (rank, o) in outcomes.iter().enumerate() {
            match o {
                Some(Err(e)) => {
                    let msg = format!("{e}");
                    assert!(
                        msg.contains("bucketed gradient sync failed"),
                        "rank {rank}: unexpected error: {msg}"
                    );
                }
                other => panic!("rank {rank} should have failed cleanly, got {other:?}"),
            }
        }
    }

    #[test]
    fn finish_rejects_missing_layers() {
        let mut net = zoo::tiny_vgg(4, 3);
        let coll: Arc<dyn Collective> = Arc::new(DenseRing::new(1));
        let pool = Arc::new(WorkerPool::new(1));
        let mut sync =
            BucketedGradSync::new(0, coll, pool, &net, &SyncConfig::default(), None, false);
        sync.begin(&mut net).unwrap();
        // No grad_ready calls at all: finish must fail loudly.
        assert!(sync.finish(&mut net).is_err());
    }
}
