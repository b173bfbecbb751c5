//! The three training workloads: `train_conv3x3`, `train_conv1x1` and
//! `dist_ring_n2`.
//!
//! Each has a **baseline arm** (`RawStore` training, or the dense ring)
//! and a **compressed arm** (`AdaptiveTrainer`, or the compressed ring),
//! built alike and stepped on the same pre-generated
//! batches in the order A-B-A-B, so that whatever drifts on the machine
//! during a run drifts under both arms and cancels in `slowdown_x`.
//!
//! The traced run composes the compressed step itself — forward, loss,
//! backward, optimizer — around a [`TimedStore`] that wraps the real
//! `CompressedStore` through the public `ActivationStore` trait, so the
//! spans lie around calls into the crates and never inside them.

use crate::harness::{median, ms_since, percentile, timed_set_up, Outcome, Scale, MIB};
use crate::probes::{self, ConvShape, Corpus, CorpusTensor};
use crate::trace::Tracer;
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dist::{CommMode, CommStats, DistConfig, DistributedTrainer};
use ebtrain_dnn::layer::{
    BackwardContext, CompressionPlan, ForwardContext, LayerKind, SaveHint, Saved, SlotId,
};
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::{Network, NetworkBuilder};
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{ActivationStore, CompressedStore, RawStore, StoreMetrics};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use ebtrain_sz::{DataLayout, SzConfig};
use ebtrain_tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;

/// Distinct batches generated in set-up; the window cycles through them.
const BATCH_POOL: usize = 32;
/// The controller's collection interval `W`.
const W_INTERVAL: usize = 25;
const CLASSES: usize = 10;
/// Initial weights are part of the workload, not of its inputs: every
/// seed trains the same network on different data.
const NET_SEED: u64 = 7;

/// What distinguishes the three workloads.
pub struct TrainSpec {
    pub name: &'static str,
    net: fn() -> Network,
    /// Samples per step (the global batch for `dist_ring_n2`).
    batch: usize,
    /// Rank threads; 1 = single-process training.
    world: usize,
}

/// `zoo::tiny_vgg`: 3×3 convolutions, GEMM dominates the step.
pub const CONV3X3: TrainSpec = TrainSpec {
    name: "train_conv3x3",
    net: || zoo::tiny_vgg(CLASSES, NET_SEED),
    batch: 8,
    world: 1,
};

/// One 3×3 stem and six 1×1 convolutions (the net of
/// `overhead_analysis`): the same activation volume over cheap compute,
/// so the codec dominates the step — the paper's unfavourable case.
pub const CONV1X1: TrainSpec = TrainSpec {
    name: "train_conv1x1",
    net: || {
        let mut b = NetworkBuilder::new("conv1x1-heavy", &[3, 32, 32], NET_SEED);
        b.conv(16, 3, 1, 1).relu();
        for _ in 0..6 {
            b.conv(16, 1, 1, 0).relu();
        }
        b.maxpool(2, 2, 0).linear(CLASSES);
        b.build()
    },
    batch: 8,
    world: 1,
};

/// Two rank threads (= `nproc`), `tiny_vgg`, four samples per replica,
/// bucketed and overlapped, no modelled wire.
pub const DIST_RING_N2: TrainSpec = TrainSpec {
    name: "dist_ring_n2",
    net: || zoo::tiny_vgg(CLASSES, NET_SEED),
    batch: 8,
    world: 2,
};

type Batch = (Tensor, Vec<usize>);

/// Every batch of the run, generated before anything is timed. The
/// dataset is part of the workload; the seed picks which of its samples
/// this run trains on.
fn generate_batches(seed: u64, batch: usize) -> Vec<Batch> {
    let data = SynthImageNet::new(SynthConfig {
        classes: CLASSES,
        image_hw: 32,
        noise: 0.2,
        seed: 31,
    });
    let first = (seed % (1 << 32)) * (BATCH_POOL * batch) as u64;
    (0..BATCH_POOL)
        .map(|i| data.batch(first + (i * batch) as u64, batch))
        .collect()
}

fn framework_config() -> FrameworkConfig {
    FrameworkConfig {
        w_interval: W_INTERVAL,
        ..FrameworkConfig::default()
    }
}

/// What one step of an arm reports.
struct StepOut {
    loss: f32,
    peak_store_bytes: usize,
    collected: bool,
    comm: CommStats,
}

/// One side of the A-B pair.
trait Arm {
    fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<StepOut, String>;
    /// Cumulative store counters of the arm that compresses.
    fn store_metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
    /// Checks after the window (replica identity); `Err` says what broke.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

/// `dnn::train::train_step` over a `RawStore`: the paper's baseline.
struct RawArm {
    net: Network,
    head: SoftmaxCrossEntropy,
    opt: Sgd,
    store: RawStore,
    plan: CompressionPlan,
}

impl RawArm {
    fn new(net: Network) -> RawArm {
        RawArm {
            net,
            head: SoftmaxCrossEntropy::new(),
            opt: Sgd::new(SgdConfig::default()),
            store: RawStore::new(),
            plan: CompressionPlan::new(),
        }
    }
}

impl Arm for RawArm {
    fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<StepOut, String> {
        let r = train_step(
            &mut self.net,
            &self.head,
            &mut self.opt,
            &mut self.store,
            &self.plan,
            x,
            labels,
            false,
        )
        .map_err(|e| e.to_string())?;
        Ok(StepOut {
            loss: r.loss,
            peak_store_bytes: r.peak_store_bytes,
            collected: false,
            comm: CommStats::default(),
        })
    }
}

impl Arm for AdaptiveTrainer {
    fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<StepOut, String> {
        let r = AdaptiveTrainer::step(self, x, labels).map_err(|e| e.to_string())?;
        Ok(StepOut {
            loss: r.loss,
            peak_store_bytes: r.peak_store_bytes,
            collected: r.collected,
            comm: CommStats::default(),
        })
    }
    fn store_metrics(&self) -> StoreMetrics {
        AdaptiveTrainer::store_metrics(self)
    }
}

impl Arm for DistributedTrainer {
    fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<StepOut, String> {
        let r = DistributedTrainer::step(self, x, labels).map_err(|e| e.to_string())?;
        Ok(StepOut {
            loss: r.loss,
            peak_store_bytes: r.peak_store_bytes,
            collected: r.collected,
            comm: r.comm,
        })
    }
    fn store_metrics(&self) -> StoreMetrics {
        self.chief().store_metrics()
    }
    /// Replicas must hold bit-identical parameters in every mode.
    fn verify(&self) -> Result<(), String> {
        let flat = |rank: usize| {
            let mut bits = Vec::new();
            self.replica(rank).network().visit_layers(&mut |layer| {
                for p in layer.params() {
                    bits.extend(p.value.data().iter().map(|v| v.to_bits()));
                }
            });
            bits
        };
        let chief = flat(0);
        for rank in 1..self.world_size() {
            if flat(rank) != chief {
                return Err(format!("{}: replica {rank} diverged", self.comm_name()));
            }
        }
        Ok(())
    }
}

fn dist_arm(spec: &TrainSpec, comm: CommMode) -> Result<DistributedTrainer, String> {
    let mut cfg = DistConfig::new(spec.world, comm);
    cfg.framework = framework_config();
    DistributedTrainer::new(cfg, |_| (spec.net)()).map_err(|e| e.to_string())
}

/// Both arms after warm-up, and the raw activation peak `mem_saving_x`
/// divides by.
struct Ready {
    batches: Vec<Batch>,
    base: Box<dyn Arm>,
    comp: Box<dyn Arm>,
    /// Raw-store peak of one replica's step, when the baseline arm does
    /// not measure it itself (both ring arms compress activations).
    raw_peak_bytes: Option<usize>,
}

/// Everything before the first measured step: batches, networks, arms,
/// and a warm-up that covers the iteration-0 σ collection.
fn set_up(spec: &TrainSpec, seed: u64, scale: &Scale, out: &mut Outcome) -> Result<Ready, String> {
    let batches = generate_batches(seed, spec.batch);
    let mut ready = if spec.world == 1 {
        Ready {
            batches,
            base: Box::new(RawArm::new((spec.net)())),
            comp: Box::new(AdaptiveTrainer::new(
                (spec.net)(),
                SgdConfig::default(),
                framework_config(),
            )),
            raw_peak_bytes: None,
        }
    } else {
        // One raw-store step of one replica's shard: what its activations
        // would occupy uncompressed.
        let shard = spec.batch / spec.world;
        let (x0, labels0) = generate_batches(seed, shard).swap_remove(0);
        let raw = RawArm::new((spec.net)()).step(x0, &labels0)?;
        Ready {
            batches,
            base: Box::new(dist_arm(spec, CommMode::Dense)?),
            comp: Box::new(dist_arm(spec, CommMode::compressed_default())?),
            raw_peak_bytes: Some(raw.peak_store_bytes),
        }
    };
    for i in 0..scale.warmup {
        let (x, labels) = &ready.batches[i % BATCH_POOL];
        out.op("warm-up baseline step", ready.base.step(x.clone(), labels));
        out.op(
            "warm-up compressed step",
            ready.comp.step(x.clone(), labels),
        );
    }
    Ok(ready)
}

fn mean(v: &[f32]) -> f64 {
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &TrainSpec, seed: u64, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut ready, setup_s) = timed_set_up(
        scale.setup_reps,
        || set_up(spec, seed, scale, &mut out),
        drop,
    )?;
    let store_before = ready.comp.store_metrics();

    let (mut base_ms, mut comp_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut base_loss, mut comp_loss) = (Vec::new(), Vec::new());
    let (mut base_peak, mut comp_peak) = (0usize, 0usize);
    let mut store_at_prefix = None;
    let window = Instant::now();
    let mut i = 0;
    while scale.more(window, i) {
        let (x, labels) = &ready.batches[(scale.warmup + i) % BATCH_POOL];
        let (xb, xc) = (x.clone(), x.clone());
        let t = Instant::now();
        let b = ready.base.step(xb, labels);
        let b_ms = ms_since(t);
        let t = Instant::now();
        let c = ready.comp.step(xc, labels);
        let c_ms = ms_since(t);
        let (b, c) = (out.op("baseline step", b), out.op("compressed step", c));
        i += 1;
        let (Some(b), Some(c)) = (b, c) else { continue };
        base_ms.push(b_ms);
        comp_ms.push(c_ms);
        ratios.push(c_ms / b_ms);
        // Byte-valued metrics come from the first `prefix` steps only: a
        // fixed count, so they repeat exactly for one seed.
        if i <= scale.prefix {
            base_peak = base_peak.max(b.peak_store_bytes);
            comp_peak = comp_peak.max(c.peak_store_bytes);
            base_loss.push(b.loss);
            comp_loss.push(c.loss);
            if i == scale.prefix {
                store_at_prefix = Some(ready.comp.store_metrics());
            }
        }
    }
    if comp_ms.is_empty() {
        return Err(format!("no step succeeded: {:?}", out.notes));
    }

    let store = store_at_prefix.ok_or("window ended before the fixed prefix")?;
    let raw_bytes = store.compressible_raw_bytes - store_before.compressible_raw_bytes;
    let stored_bytes = store.compressible_stored_bytes - store_before.compressible_stored_bytes;
    let raw_peak = ready.raw_peak_bytes.unwrap_or(base_peak);

    // Correctness, outside every timed span. Both arms memorise the
    // batch pool within the prefix, and their losses at any one step then
    // differ by tens of percent from seed to seed. So the check is on
    // the mean loss of the prefix, and only asks that the compressed arm
    // learns at all: a quarter of the baseline's progress below chance
    // level (2 % of chance is allowed to runs too short to learn).
    let chance = (CLASSES as f64).ln();
    let (lb, lc) = (mean(&base_loss), mean(&comp_loss));
    let allowed = lb + 0.75 * (chance - lb).max(0.0) + 0.02 * chance;
    out.check(lc <= allowed, || {
        format!(
            "compressed-arm mean loss {lc:.4} lags the baseline's {lb:.4} (allowed {allowed:.4})"
        )
    });
    out.check(comp_peak > 0 && stored_bytes > 0, || {
        "compressed arm stored nothing".into()
    });
    for arm in [&ready.base, &ready.comp] {
        let v = arm.verify();
        out.check(v.is_ok(), || v.unwrap_err());
    }

    out.put("setup_s", setup_s);
    out.put("step_ms", median(&comp_ms));
    out.put("raw_step_ms", median(&base_ms));
    out.put("slowdown_x", median(&ratios));
    out.put("peak_store_mib", comp_peak as f64 / MIB);
    out.put("mem_saving_x", raw_peak as f64 / comp_peak.max(1) as f64);
    out.put("ratio_x", raw_bytes as f64 / stored_bytes.max(1) as f64);
    eprintln!(
        "[{}] {} pairs; mean prefix loss: baseline {lb:.4}, compressed {lc:.4}",
        spec.name,
        comp_ms.len(),
    );
    Ok(out)
}

/// An `ActivationStore` that times the real `CompressedStore` from
/// outside: every `save` and `load` is one span.
struct TimedStore {
    inner: CompressedStore,
    tracer: Rc<RefCell<Tracer>>,
    /// Slots whose save was compressible, to name their load span.
    compressible: HashSet<SlotId>,
    /// While `Some`, compressible tensors are copied here: the replay
    /// corpus the lower layers are timed on afterwards.
    capture: Option<Vec<CorpusTensor>>,
    /// Bound used when the plan names none (the framework's fallback).
    fallback_eb: f32,
    saves: u64,
    saved_raw_bytes: u64,
}

impl ActivationStore for TimedStore {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        let name = if hint.compressible {
            self.compressible.insert(slot);
            self.saves += 1;
            self.saved_raw_bytes += value.byte_size() as u64;
            if let (Some(corpus), Saved::F32(t)) = (&mut self.capture, &value) {
                corpus.push(CorpusTensor {
                    data: t.data().to_vec(),
                    layout: DataLayout::for_shape(t.shape()),
                    eb: hint.error_bound.unwrap_or(self.fallback_eb),
                });
            }
            "store.save"
        } else {
            "store.save_raw"
        };
        let open = self.tracer.borrow_mut().open(name);
        self.inner.save(slot, value, hint);
        self.tracer.borrow_mut().close(open);
    }

    fn load(&mut self, slot: SlotId) -> ebtrain_dnn::Result<Saved> {
        let name = if self.compressible.remove(&slot) {
            "store.load"
        } else {
            "store.load_raw"
        };
        let open = self.tracer.borrow_mut().open(name);
        let r = self.inner.load(slot);
        self.tracer.borrow_mut().close(open);
        r
    }

    fn current_bytes(&self) -> usize {
        self.inner.current_bytes()
    }
    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }
    fn reset_peak(&mut self) {
        self.inner.reset_peak()
    }
    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
    fn reset_metrics(&mut self) {
        self.inner.reset_metrics()
    }
}

/// The compressed step composed by the benchmark from the public pieces
/// `AdaptiveTrainer::step` is made of, minus the controller.
struct Decomposed {
    net: Network,
    head: SoftmaxCrossEntropy,
    opt: Sgd,
    store: TimedStore,
    plan: CompressionPlan,
    tracer: Rc<RefCell<Tracer>>,
}

impl Decomposed {
    fn new(net: Network, tracer: Rc<RefCell<Tracer>>) -> Decomposed {
        let cfg = framework_config();
        // The store `AdaptiveTrainer::new` builds.
        let mut sz = SzConfig::with_error_bound(cfg.fallback_eb);
        sz.zero_filter = cfg.zero_filter;
        Decomposed {
            net,
            head: SoftmaxCrossEntropy::new(),
            opt: Sgd::new(SgdConfig::default()),
            store: TimedStore {
                inner: CompressedStore::new(sz),
                tracer: Rc::clone(&tracer),
                compressible: HashSet::new(),
                capture: None,
                fallback_eb: cfg.fallback_eb,
                saves: 0,
                saved_raw_bytes: 0,
            },
            plan: CompressionPlan::new(),
            tracer,
        }
    }

    /// Take the controller's current bounds from the framework arm, which
    /// trains the same network on the same batches.
    fn adopt_plan(&mut self, framework: &AdaptiveTrainer) {
        for e in framework.plan_entries() {
            self.plan.set(e.layer, e.error_bound);
        }
    }

    fn step(&mut self, x: Tensor, labels: &[usize]) -> Result<(), String> {
        let open = |name| self.tracer.borrow_mut().open(name);
        let close = |o| self.tracer.borrow_mut().close(o);
        let err = |e: ebtrain_dnn::DnnError| e.to_string();
        let step = open("step");
        self.store.reset_peak();

        let o = open("dnn.forward");
        let logits = self.net.forward(
            x,
            &mut ForwardContext {
                store: &mut self.store,
                training: true,
                collect: false,
                plan: &self.plan,
            },
        );
        close(o);
        let logits = logits.map_err(err)?;

        let o = open("dnn.loss");
        let loss = self.head.loss(&logits, labels);
        std::hint::black_box(self.head.correct(&logits, labels));
        close(o);
        let (_, dlogits) = loss.map_err(err)?;

        let o = open("dnn.backward");
        let back = self.net.backward(
            dlogits,
            &mut BackwardContext {
                store: &mut self.store,
                collect: false,
                grad_ready: None,
            },
        );
        close(o);
        back.map_err(err)?;

        let o = open("dnn.optimizer");
        self.opt.step(self.net.params_mut());
        self.net.zero_grads();
        close(o);
        close(step);
        Ok(())
    }
}

/// Convolution shapes of `net`, read from its public layer interface
/// after at least one forward pass.
fn conv_shapes(net: &Network, batch: usize) -> Vec<ConvShape> {
    let mut shapes = Vec::new();
    net.visit_layers(&mut |layer| {
        if layer.kind() != LayerKind::Conv {
            return;
        }
        let (Some(stats), Some(weight)) = (layer.conv_stats(), layer.params().first().copied())
        else {
            return;
        };
        let &[out_c, in_c, kh, _kw] = weight.value.shape() else {
            return;
        };
        let in_hw = ((stats.act_elems_per_sample / in_c.max(1)) as f64)
            .sqrt()
            .round() as usize;
        shapes.push(ConvShape {
            batch,
            in_c,
            out_c,
            in_hw,
            kernel: kh,
            out_positions: stats.out_positions_per_sample,
        });
    });
    shapes
}

/// Convolution shapes of `CONV3X3` — the control the tensor probe runs
/// on where a workload has no network of its own.
pub fn reference_conv_shapes(seed: u64) -> Result<Vec<ConvShape>, String> {
    let spec = &CONV3X3;
    let mut net = AdaptiveTrainer::new((spec.net)(), SgdConfig::default(), framework_config());
    let (x, labels) = generate_batches(seed, spec.batch).swap_remove(0);
    Arm::step(&mut net, x, &labels)?;
    Ok(conv_shapes(net.network(), spec.batch))
}

/// The traced run: every per-layer metric.
pub fn run_traced(spec: &TrainSpec, seed: u64, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    // One replica's view: its shard of the batch, its network.
    let shard = spec.batch / spec.world;
    let t = Instant::now();
    let batches = generate_batches(seed, shard);
    let batch_ms = ms_since(t) / BATCH_POOL as f64;
    let mut framework =
        AdaptiveTrainer::new((spec.net)(), SgdConfig::default(), framework_config());
    let mut decomposed = Decomposed::new((spec.net)(), Rc::clone(&tracer));
    // The whole group, for `dist_ring_n2` only.
    let global = (spec.world > 1).then(|| generate_batches(seed, spec.batch));
    let mut group = match spec.world {
        1 => None,
        _ => Some(dist_arm(spec, CommMode::compressed_default())?),
    };

    for i in 0..scale.warmup {
        let (x, labels) = &batches[i % BATCH_POOL];
        out.op(
            "warm-up framework step",
            Arm::step(&mut framework, x.clone(), labels),
        );
        decomposed.adopt_plan(&framework);
        // The last warm-up step's compressible tensors are the corpus.
        if i + 1 == scale.warmup {
            decomposed.store.capture = Some(Vec::new());
        }
        out.op(
            "warm-up decomposed step",
            decomposed.step(x.clone(), labels),
        );
        if let (Some(group), Some(global)) = (&mut group, &global) {
            let (x, labels) = &global[i % BATCH_POOL];
            out.op("warm-up group step", Arm::step(group, x.clone(), labels));
        }
    }
    let corpus = Corpus {
        tensors: decomposed.store.capture.take().unwrap_or_default(),
    };
    let (saves0, saved0) = (decomposed.store.saves, decomposed.store.saved_raw_bytes);

    // Window: framework step, decomposed step (traced on odd steps,
    // untraced on even ones), and the group's step where there is one.
    let (mut fw_normal, mut fw_collect) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms, mut group_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut comm = CommStats::default();
    let window = Instant::now();
    let mut i = 0;
    // The traced run spends the rest of its time in the layer probes.
    let trace_scale = Scale {
        seconds: scale.seconds * 0.6,
        min_steps: scale.min_steps / 2,
        ..*scale
    };
    while trace_scale.more(window, i) {
        let (x, labels) = &batches[(scale.warmup + i) % BATCH_POOL];
        let (xf, xd) = (x.clone(), x.clone());
        let t = Instant::now();
        let f = Arm::step(&mut framework, xf, labels);
        let f_ms = ms_since(t);
        if let Some(f) = out.op("framework step", f) {
            if f.collected {
                fw_collect.push(f_ms);
                decomposed.adopt_plan(&framework);
            } else {
                fw_normal.push(f_ms);
            }
        }
        let traced = i % 2 == 1;
        {
            let mut tr = tracer.borrow_mut();
            tr.enabled = traced;
            tr.op = i as u64;
        }
        let t = Instant::now();
        let d = decomposed.step(xd, labels);
        let d_ms = ms_since(t);
        tracer.borrow_mut().enabled = false;
        if out.op("decomposed step", d).is_some() {
            if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(d_ms);
        }
        if let (Some(group), Some(global)) = (&mut group, &global) {
            let (x, labels) = &global[(scale.warmup + i) % BATCH_POOL];
            let xg = x.clone();
            let t = Instant::now();
            let g = Arm::step(group, xg, labels);
            let g_ms = ms_since(t);
            if let Some(g) = out.op("group step", g) {
                group_ms.push(g_ms);
                comm.messages += g.comm.messages;
                comm.payload_bytes += g.comm.payload_bytes;
                comm.dense_equiv_bytes += g.comm.dense_equiv_bytes;
            }
        }
        i += 1;
    }
    if traced_ms.is_empty() || untraced_ms.is_empty() || fw_normal.is_empty() {
        return Err(format!("traced window too short: {:?}", out.notes));
    }
    let steps = i as f64;
    let tracer = tracer.borrow();
    tracer.dump(spec.name).map_err(|e| e.to_string())?;

    // Shares of the step, per traced step, then the median over steps.
    let traced_med = median(&traced_ms);
    // On `dist_ring_n2` the step that counts is the group's: the replica's
    // shares shrink by replica step / group step, and what the group step
    // takes beyond a lone replica's is the exposed synchronisation.
    let fw_med = median(&fw_normal);
    let (step_med, replica_scale, sync_pct) = match group_ms.is_empty() {
        true => (traced_med, 1.0, 0.0),
        false => {
            let g = median(&group_ms);
            (g, traced_med / g, 100.0 * (g - fw_med) / g)
        }
    };
    let forward = tracer.share_pct(&["dnn.forward"]) * replica_scale;
    let backward = tracer.share_pct(&["dnn.backward"]) * replica_scale;
    let loss = tracer.share_pct(&["dnn.loss"]) * replica_scale;
    let optimizer = tracer.share_pct(&["dnn.optimizer"]) * replica_scale;
    let save = tracer.share_pct(&["store.save", "store.save_raw"]) * replica_scale;
    let load = tracer.share_pct(&["store.load", "store.load_raw"]) * replica_scale;
    let attributed = forward + backward + loss + optimizer + save + load + sync_pct;
    out.check(spec.world > 1 || attributed >= 95.0, || {
        format!("named spans cover only {attributed:.1}% of the traced step")
    });

    out.put("bench.trace_overhead_x", traced_med / median(&untraced_ms));
    out.put("bench.attributed_pct", attributed);
    out.put("bench.traced_step_ms", step_med);
    out.put("data.batch_ms", batch_ms);
    let save_ms = tracer.durations_ms("store.save");
    let load_ms = tracer.durations_ms("store.load");
    out.put("store.save_p50_ms", median(&save_ms));
    out.put("store.save_p90_ms", percentile(&save_ms, 0.9, scale.guard)?);
    out.put("store.load_p50_ms", median(&load_ms));
    out.put("store.load_p90_ms", percentile(&load_ms, 0.9, scale.guard)?);
    let world = spec.world as f64;
    out.put(
        "store.saves_per_step",
        world * (decomposed.store.saves - saves0) as f64 / steps,
    );
    out.put(
        "store.saved_mib_per_step",
        world * (decomposed.store.saved_raw_bytes - saved0) as f64 / steps / MIB,
    );
    out.put("dnn.forward_pct", forward);
    out.put("dnn.backward_pct", backward);
    out.put("dnn.loss_pct", loss);
    out.put("dnn.optimizer_pct", optimizer);
    out.put("store.save_pct", save);
    out.put("store.load_pct", load);
    out.put("dist.sync_pct", sync_pct);
    out.put("serve.fetch_planes_pct", 0.0);
    out.put(
        "core.framework_overhead_pct",
        100.0 * (fw_med / median(&untraced_ms) - 1.0),
    );
    // What the σ collection adds to one step in `W`, spread over the `W`.
    let controller = match fw_collect.is_empty() {
        true => 0.0,
        false => 100.0 * (median(&fw_collect) - fw_med).max(0.0) / (W_INTERVAL as f64 * fw_med),
    };
    out.put("core.controller_pct", controller);
    let ebs: Vec<f64> = framework
        .plan_entries()
        .iter()
        .map(|e| e.error_bound as f64)
        .collect();
    out.put(
        "core.eb_median",
        if ebs.is_empty() { 0.0 } else { median(&ebs) },
    );
    let group_steps = group_ms.len().max(1) as f64;
    out.put(
        "wire.mib_per_step",
        comm.payload_bytes as f64 / group_steps / MIB,
    );
    out.put(
        "wire.dense_equiv_mib_per_step",
        comm.dense_equiv_bytes as f64 / group_steps / MIB,
    );
    out.put("dist.msgs_per_step", comm.messages as f64 / group_steps);
    out.put("serve.store_residual_pct", 0.0);
    out.put("serve.busy_count", 0.0);
    out.put("serve.overbudget_count", 0.0);

    let shapes = conv_shapes(framework.network(), shard);
    let grad_len = framework.network().param_count();
    drop(tracer);
    drop(group);
    probes::run(
        &corpus,
        &shapes,
        grad_len,
        probes::Schedule::Training,
        scale,
        &mut out,
    )?;
    eprintln!(
        "[{}] traced {} steps, untraced {}, framework {}+{} collect",
        spec.name,
        traced_ms.len(),
        untraced_ms.len(),
        fw_normal.len(),
        fw_collect.len()
    );
    Ok(out)
}
