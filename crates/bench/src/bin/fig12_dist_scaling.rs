//! **Figure 12 (new experiment)** — data-parallel scaling with
//! error-bounded gradient streams over the bucketed, backward-overlapped
//! collective.
//!
//! Weak-scaling study of `ebtrain-dist`: for 1→8 workers (each with its
//! own shard, replica, and activation store), train `tiny_vgg` with
//! three transports —
//!
//! * `dense` — exact f32 ring all-reduce (baseline),
//! * `sz` — SZ-compressed ring segments, error feedback on, backward-
//!   overlapped buckets,
//! * `sz-zero` — same compressed stream in ZeRO mode: reduce-scatter
//!   only, sharded optimizer state, exact parameter all-gather —
//!
//! measuring throughput (images/s), communication bytes per step (raw
//! dense-equivalent vs transmitted, and the reduction ratio), **per-
//! phase communication time** (encode / wire / decode / wait, read as
//! deltas of the `ebtrain-obs` registry: the `dist.encode`/`dist.decode`
//! spans and the `dist.wire.nanos`/`dist.wait.nanos` counters, beside
//! the ring's codec call counts `dist.codec.encodes`/`.decodes` — every
//! run hard-fails if the ring decodes more than the streams it
//! received, i.e. decodes a stream of its own), and
//! loss-trajectory parity of N=4 compressed training vs a single worker
//! on the same global batch.
//!
//! Every replica stores activations in a budgeted arena sized to half
//! its measured raw activation peak (one probe step), so tier
//! demotions — and therefore `membudget.*` spans and residency gauges —
//! engage in every arm; `EBTRAIN_BUDGET_MIB` overrides the size and
//! `EBTRAIN_BUDGET_MIB=0` turns budgeting off. Set
//! `EBTRAIN_TRACE=fig12.json` to get the whole run as a chrome-trace
//! timeline (sz/codec/membudget/pool/dist spans; buckets of the
//! overlapped collective show up as parallel `dist.collective` blocks).
//!
//! The interconnect is modeled (`EBTRAIN_WIRE_MIBPS`, default
//! 1.5 MiB/s in the full run, off in smoke — scaled to this box's
//! compute so the compute:comm ratio matches a bandwidth-bound
//! cluster): every send sleeps
//! `bytes / rate`, which is what makes the byte reduction visible as
//! step time on a single machine. The full run **asserts** the
//! paper-style claims: ≥4× communication reduction at eb=1e-3 on
//! `tiny_vgg` gradients, compressed step time ≤ dense at N≥4, and a
//! compressed N=4 loss curve that tracks the single worker.
//!
//! `--smoke` (also `EBTRAIN_SMOKE=1`): 1–2 workers, 3 iterations — CI
//! runs this on every push, once in the default overlap-on mode and
//! once with `--zero` (reduce-scatter + sharded optimizer). Knobs:
//! `--zero`/`EBTRAIN_ZERO` (compressed arm runs in ZeRO mode),
//! `--no-overlap`/`EBTRAIN_NO_OVERLAP` (launch buckets only at
//! backward's end), `EBTRAIN_WIRE_MIBPS` (modeled wire, 0 = off),
//! `EBTRAIN_EB` (comm bound, default 1e-3), `EBTRAIN_DIST_ITERS`
//! (timed iterations, default 10).

use ebtrain_bench::table::Table;
use ebtrain_bench::{env_f64, env_flag, env_usize, fmt_bytes};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dist::{CommMode, DistConfig, DistributedTrainer};
use ebtrain_dnn::store::BudgetConfig;
use ebtrain_dnn::zoo;
use std::time::Instant;

struct RunResult {
    images_per_sec: f64,
    median_step_ns: f64,
    payload_bytes_per_step: u64,
    dense_bytes_per_step: u64,
    /// Per-step phase nanos summed over ranks: (encode, wire, decode,
    /// wait), read from the obs registry delta over the timed window.
    phase_ns_per_step: [f64; 4],
    /// p99 of a *single* phase operation (one encode call, one modeled
    /// wire transmission, ...) from the registry histograms over the
    /// same window; 0 when the phase never ran.
    phase_p99_ns: [u64; 4],
    /// Ring codec calls per step summed over ranks: (encodes, decodes),
    /// the `dist.codec.*` counters over the same window.
    codec_ops_per_step: [f64; 2],
    losses: Vec<f32>,
}

struct RunSpec<'a> {
    data: &'a SynthImageNet,
    classes: usize,
    per_batch: usize,
    iters: usize,
    fw_interval: usize,
    seed: u64,
    overlap: bool,
    wire_mibps: Option<f64>,
    /// Per-replica activation-store budget in bytes; `None` = raw store.
    budget_bytes: Option<usize>,
}

fn run_training(spec: &RunSpec, world: usize, comm: CommMode, zero: bool) -> RunResult {
    // Each configuration is an independent run restarting step ids at 0;
    // reset the flight ring so a final EBTRAIN_FLIGHT dump describes one
    // coherent run instead of interleaving per-source step sequences.
    ebtrain_obs::flight::clear_flight();
    let mut cfg = DistConfig::new(world, comm);
    cfg.framework.w_interval = spec.fw_interval;
    cfg.sync.overlap = spec.overlap;
    cfg.sync.zero_shard = zero;
    cfg.sync.wire_mibps = spec.wire_mibps;
    cfg.budget = spec.budget_bytes.map(BudgetConfig::with_budget);
    let classes = spec.classes;
    let seed = spec.seed;
    let mut trainer =
        DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(classes, seed)).expect("build group");
    let global = spec.per_batch * world;
    // Warmup step (pool spin-up, first-touch allocations) outside the
    // timed window.
    let (x, labels) = spec.data.batch(0, global);
    trainer.step(x, &labels).expect("warmup step");
    let comm_before = trainer.comm_stats();
    let obs_before = ebtrain_obs::snapshot();
    let mut losses = Vec::with_capacity(spec.iters);
    let mut step_ns: Vec<f64> = Vec::with_capacity(spec.iters);
    let t_all = Instant::now();
    for i in 0..spec.iters {
        let (x, labels) = spec.data.batch(((i + 1) * global) as u64, global);
        let t0 = Instant::now();
        let r = trainer.step(x, &labels).expect("train step");
        step_ns.push(t0.elapsed().as_nanos() as f64);
        losses.push(r.loss);
    }
    let elapsed = t_all.elapsed().as_secs_f64();
    let comm = trainer.comm_stats().delta_since(&comm_before);
    // The per-phase times moved out of CommStats and into the obs
    // registry (PR 8); the delta over the timed window is scoped to
    // this run because arms execute sequentially.
    let obs = ebtrain_obs::snapshot().delta_since(&obs_before);
    step_ns.sort_by(|a, b| a.total_cmp(b));
    let per_step = |n: u64| n as f64 / spec.iters as f64;
    // Per-operation tail latency: the `dist.encode`/`dist.decode`/
    // `dist.wait` span histograms and the `dist.wire` value histogram
    // (the modeled nanos of each message; its *sum* stays pinned to the
    // `dist.wire.nanos` counter).
    let p99 = |name: &str| obs.quantiles(name).map_or(0, |q| q.p99);
    // `dist.decode` spans are the decodes of *received* streams. The
    // ring makes no other: its own streams' values come back from the
    // encoder (`Codec::compress_recon`). A decode counted at a codec
    // call site without such a span is that removal undone.
    let (decodes, received) = (
        obs.counter("dist.codec.decodes"),
        obs.span_stats("dist.decode").count,
    );
    assert!(
        decodes <= received,
        "ring made {decodes} codec decodes for {received} received streams (world {world}, {comm:?})"
    );
    RunResult {
        images_per_sec: (spec.iters * global) as f64 / elapsed,
        median_step_ns: step_ns[step_ns.len() / 2],
        payload_bytes_per_step: comm.payload_bytes / spec.iters as u64,
        dense_bytes_per_step: comm.dense_equiv_bytes / spec.iters as u64,
        phase_ns_per_step: [
            per_step(obs.nanos("dist.encode")),
            per_step(obs.counter("dist.wire.nanos")),
            per_step(obs.nanos("dist.decode")),
            per_step(obs.counter("dist.wait.nanos")),
        ],
        phase_p99_ns: [
            p99("dist.encode"),
            p99("dist.wire"),
            p99("dist.decode"),
            p99("dist.wait"),
        ],
        codec_ops_per_step: [
            per_step(obs.counter("dist.codec.encodes")),
            per_step(decodes),
        ],
        losses,
    }
}

fn mean_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len().min(b.len()).max(1);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .sum::<f64>()
        / n as f64
}

fn main() {
    ebtrain_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke") || env_flag("EBTRAIN_SMOKE");
    let zero_only = std::env::args().any(|a| a == "--zero") || env_flag("EBTRAIN_ZERO");
    let overlap = !std::env::args().any(|a| a == "--no-overlap") && !env_flag("EBTRAIN_NO_OVERLAP");
    let eb = env_f64("EBTRAIN_EB", 1e-3) as f32;
    let (classes, worlds, per_batch, iters): (usize, Vec<usize>, usize, usize) = if smoke {
        (4, vec![1, 2], 4, env_usize("EBTRAIN_DIST_ITERS", 3))
    } else {
        (10, vec![1, 2, 4, 8], 8, env_usize("EBTRAIN_DIST_ITERS", 10))
    };
    // The modeled interconnect. The paper's clusters are bandwidth-
    // bound: comm time rivals backward time. This box computes a step
    // orders of magnitude slower than a GPU node, so the modeled wire
    // is scaled down with it (1.5 MiB/s default) to land in the same
    // compute:comm ratio — otherwise the wire would vanish under
    // single-core compute and the transports would be indistinguishable.
    // Off in smoke so CI measures pure compute.
    let wire = env_f64("EBTRAIN_WIRE_MIBPS", if smoke { 0.0 } else { 1.5 });
    let wire_mibps = (wire > 0.0).then_some(wire);
    let data = SynthImageNet::new(SynthConfig {
        classes,
        image_hw: 32,
        noise: 0.2,
        seed: 47,
    });
    // Size every replica's budgeted activation store to half its raw
    // activation peak (one unbudgeted probe step measures it), so tier
    // demotions engage in all arms identically and the membudget layer
    // shows up in traces and reports. Applied uniformly, the store
    // overhead cancels out of every cross-transport comparison below.
    // EBTRAIN_BUDGET_MIB > 0 sets the size explicitly, = 0 disables.
    let budget_env = env_f64("EBTRAIN_BUDGET_MIB", -1.0);
    let budget_bytes = if budget_env == 0.0 {
        None
    } else if budget_env > 0.0 {
        Some((budget_env * (1u64 << 20) as f64) as usize)
    } else {
        eprintln!("[fig12] probing raw activation peak to size the replica store budget ...");
        let mut pcfg = DistConfig::new(1, CommMode::Dense);
        pcfg.framework.w_interval = 4;
        let mut probe =
            DistributedTrainer::new(pcfg, |_| zoo::tiny_vgg(classes, 7)).expect("probe group");
        let (x, labels) = data.batch(0, per_batch);
        let r = probe.step(x, &labels).expect("probe step");
        Some((r.peak_store_bytes / 2).max(1))
    };
    let spec = RunSpec {
        data: &data,
        classes,
        per_batch,
        iters,
        fw_interval: 4,
        seed: 7,
        overlap,
        wire_mibps,
        budget_bytes,
    };
    let compressed_mode = CommMode::Compressed {
        error_bound: eb,
        error_feedback: true,
        adaptive: false, // fixed bound: the headline claim is "at eb=1e-3"
    };
    // Transport arms: (label, mode, zero_shard). Smoke runs dense plus
    // *one* compressed arm (selected by --zero) so each CI invocation
    // exercises a distinct sync path; the full run measures all three.
    let arms: Vec<(&str, CommMode, bool)> = if smoke {
        vec![
            ("dense", CommMode::Dense, false),
            if zero_only {
                ("sz-zero", compressed_mode, true)
            } else {
                ("sz", compressed_mode, false)
            },
        ]
    } else {
        vec![
            ("dense", CommMode::Dense, false),
            ("sz", compressed_mode, false),
            ("sz-zero", compressed_mode, true),
        ]
    };
    println!(
        "fig12_dist_scaling{}: tiny-vgg/32px, per-worker batch {per_batch}, {iters} iters, \
         gradient eb {eb:.0e} (error feedback on), overlap {}, wire {}, store budget {}",
        if smoke { " [smoke]" } else { "" },
        if overlap { "on" } else { "off" },
        wire_mibps.map_or("off".into(), |w| format!("{w} MiB/s")),
        budget_bytes.map_or("off".into(), |b| fmt_bytes(b as u64)),
    );

    let mut table = Table::new(&[
        "workers",
        "transport",
        "img/s",
        "speedup",
        "comm_raw/step",
        "comm_sent/step",
        "reduction",
        "final_loss",
    ]);
    let mut phase_table = Table::new(&[
        "workers",
        "transport",
        "encode/step",
        "wire/step",
        "decode/step",
        "wait/step",
        "encodes/step",
        "decodes/step",
        "enc_p99",
        "wire_p99",
        "dec_p99",
        "wait_p99",
    ]);
    let mut base_dense_ips = None;
    let mut min_reduction: Option<f64> = None;
    // (world, label) -> median step ns, for the step-time claim below.
    let mut medians: Vec<(usize, &str, f64)> = Vec::new();
    for &world in &worlds {
        for &(mode_name, mode, zero) in &arms {
            eprintln!("[fig12] {world} worker(s), {mode_name} transport ...");
            let r = run_training(&spec, world, mode, zero);
            if world == 1 && mode_name == "dense" {
                base_dense_ips = Some(r.images_per_sec);
            }
            let reduction = if r.payload_bytes_per_step > 0 {
                r.dense_bytes_per_step as f64 / r.payload_bytes_per_step as f64
            } else {
                1.0
            };
            // The ≥4× claim is about the *gradient stream*: sz-zero's
            // parameter all-gather is deliberately exact (that is what
            // keeps replicas bit-identical on a lossy transport), so its
            // blended ratio is excluded by design.
            if world > 1 && mode_name == "sz" {
                min_reduction = Some(min_reduction.map_or(reduction, |m: f64| m.min(reduction)));
            }
            medians.push((world, mode_name, r.median_step_ns));
            table.row(vec![
                format!("{world}"),
                mode_name.into(),
                format!("{:.1}", r.images_per_sec),
                base_dense_ips
                    .map(|b| format!("{:.2}x", r.images_per_sec / b))
                    .unwrap_or_else(|| "-".into()),
                fmt_bytes(r.dense_bytes_per_step),
                fmt_bytes(r.payload_bytes_per_step),
                format!("{reduction:.1}x"),
                format!("{:.3}", r.losses.last().copied().unwrap_or(f32::NAN)),
            ]);
            let ms = |ns: f64| format!("{:.2}ms", ns / 1e6);
            // The mean columns are summed-over-ranks time per *step*;
            // the p99 columns are the tail of a single phase
            // *operation* from the registry histograms.
            phase_table.row(vec![
                format!("{world}"),
                mode_name.into(),
                ms(r.phase_ns_per_step[0]),
                ms(r.phase_ns_per_step[1]),
                ms(r.phase_ns_per_step[2]),
                ms(r.phase_ns_per_step[3]),
                format!("{:.1}", r.codec_ops_per_step[0]),
                format!("{:.1}", r.codec_ops_per_step[1]),
                ms(r.phase_p99_ns[0] as f64),
                ms(r.phase_p99_ns[1] as f64),
                ms(r.phase_p99_ns[2] as f64),
                ms(r.phase_p99_ns[3] as f64),
            ]);
        }
    }
    table.print("Fig 12: data-parallel scaling, dense vs error-bounded gradient streams");
    phase_table.print("Fig 12b: per-step communication phases (summed over ranks)");

    // Loss parity, two comparisons (see also tests/tests/dist_parity.rs):
    //
    // 1. compressed-N vs dense-N, identical world size: the replicas
    //    draw identical dropout-mask streams, so the per-iteration
    //    trajectory gap isolates the *compression* effect. The parity
    //    runs use the subsystem's proper operating point — the
    //    σ-adaptive bound with error feedback — rather than the fixed
    //    ratio-measurement bound: the paper's discipline is precisely
    //    that the bound must track the acceptable gradient error.
    // 2. compressed-N vs a single worker on the same global batch,
    //    compared on *evaluation* loss (dropout off): sharding changes
    //    the dropout-mask shapes, so per-iteration training losses
    //    differ by mask noise for any data-parallel run, dense included;
    //    the deterministic evaluation pass is the honest trajectory
    //    comparison.
    // The parity arms run a lower-variance regime than the scaling
    // table (4 classes, past the steep descent phase): during the steep
    // phase, per-run dropout noise moves a single evaluation point by
    // O(0.5) in either direction regardless of transport, which would
    // measure SGD noise, not the collective. (No modeled wire here —
    // parity is about values, not time.)
    let parity_world = if smoke { *worlds.last().unwrap() } else { 4 };
    let parity_iters = if smoke { iters } else { 30 };
    let parity_classes = 4usize;
    let pdata = SynthImageNet::new(SynthConfig {
        classes: parity_classes,
        image_hw: 32,
        noise: 0.2,
        seed: 48,
    });
    let seed = spec.seed;
    let run_parity = |world: usize, mode: CommMode| {
        ebtrain_obs::flight::clear_flight(); // fresh run, step ids restart at 0
        let mut cfg = DistConfig::new(world, mode);
        cfg.framework.w_interval = spec.fw_interval;
        cfg.sync.overlap = overlap;
        let mut t =
            DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(parity_classes, seed)).expect("group");
        let global = per_batch * 4; // same global batch for every arm
        let mut losses = Vec::new();
        for i in 0..parity_iters {
            let (x, labels) = pdata.batch((i * global) as u64, global);
            losses.push(t.step(x, &labels).expect("step").loss);
        }
        let (ex, elabels) = pdata.batch(1_000_000, 64);
        let (eval_loss, _) = t.evaluate(ex, &elabels).expect("eval");
        (losses, eval_loss, t.comm_error_bound())
    };
    eprintln!("[fig12] parity: {parity_world} workers, σ-adaptive sz transport ...");
    let (comp_losses, comp_eval, comp_eb) =
        run_parity(parity_world, CommMode::compressed_default());
    eprintln!("[fig12] parity: {parity_world} workers, dense ...");
    let (dense_losses, dense_eval, _) = run_parity(parity_world, CommMode::Dense);
    eprintln!("[fig12] parity: 1 worker, dense ...");
    let (single_losses, single_eval, _) = run_parity(1, CommMode::Dense);
    let compression_gap = mean_abs_diff(&comp_losses, &dense_losses);
    let single_train_gap = mean_abs_diff(&comp_losses, &single_losses);
    println!(
        "\nloss parity over {parity_iters} iters, global batch {} (σ-adaptive eb ended at {}):",
        per_batch * 4,
        comp_eb.map_or("-".into(), |e| format!("{e:.1e}")),
    );
    println!(
        "  compressed-N{parity_world} vs dense-N{parity_world} (same masks): \
         mean |Δtrain loss| = {compression_gap:.4}"
    );
    println!(
        "  compressed-N{parity_world} vs 1-worker: mean |Δtrain loss| = {single_train_gap:.4} \
         (includes dropout-shape noise); eval loss {comp_eval:.4} vs {single_eval:.4} \
         (dense-N{parity_world}: {dense_eval:.4})"
    );

    if !smoke {
        let min_reduction = min_reduction.expect("compressed runs measured");
        assert!(
            min_reduction >= 4.0,
            "communication reduction {min_reduction:.2}x below the 4x claim at eb={eb:e}"
        );
        // The step-time claim on the modeled wire: at N>=4 the
        // compressed gradient stream must be no slower than the dense
        // ring. `sz` only: sz-zero ships exact (dense) parameters in a
        // non-overlapped all-gather by design — its claim is the 1/N
        // optimizer memory, not step time.
        for &(world, name, ns) in &medians {
            if world < 4 || name != "sz" {
                continue;
            }
            let dense_ns = medians
                .iter()
                .find(|&&(w, n, _)| w == world && n == "dense")
                .map(|&(_, _, ns)| ns)
                .expect("dense arm ran");
            assert!(
                ns <= dense_ns,
                "{name} median step at N={world} ({:.1}ms) slower than dense ({:.1}ms)",
                ns / 1e6,
                dense_ns / 1e6
            );
        }
        assert!(
            compression_gap < 0.05,
            "σ-bounded compression changed the trajectory: mean |Δ| = {compression_gap}"
        );
        assert!(
            (comp_eval - single_eval).abs() < 0.25,
            "compressed N={parity_world} eval loss {comp_eval} diverged from single-worker \
             {single_eval}"
        );
        println!(
            "\nOK: >= {min_reduction:.1}x communication reduction at eb={eb:.0e}, \
             compressed step <= dense at N>=4, loss trajectory within tolerance."
        );
    }
    ebtrain_obs::flush_trace();
    ebtrain_obs::flush_flight();
}
