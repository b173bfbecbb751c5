//! Deterministic parity of distributed compressed training (ISSUE 4
//! acceptance): N=4 compressed ring all-reduce **with error feedback**
//! must match single-worker SGD on `tiny_alexnet`.
//!
//! Two comparisons, because data parallelism has two independent
//! deviation sources:
//!
//! * **Compression** — isolated by comparing compressed-N4 against
//!   dense-N4: both groups draw byte-identical dropout-mask streams
//!   (same per-layer seeds, same call counts, same shard shapes), so
//!   their per-iteration loss gap is purely the σ-bounded gradient
//!   quantization. Asserted *tight*.
//! * **Sharding** — dropout masks change shape when the batch splits
//!   4-way, so per-iteration training losses differ from the single
//!   worker's by mask noise even for the exact dense transport. The
//!   honest trajectory comparison is the deterministic evaluation pass
//!   (dropout off) plus a smoothed-trajectory bound. Asserted with a
//!   mask-noise-sized tolerance.

use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dist::{CommMode, DistConfig, DistributedTrainer};
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::SgdConfig;
use ebtrain_dnn::zoo;

const CLASSES: usize = 4;
const GLOBAL_BATCH: usize = 16;
const ITERS: usize = 24;
const NET_SEED: u64 = 11;

fn dataset() -> SynthImageNet {
    SynthImageNet::new(SynthConfig {
        classes: CLASSES,
        image_hw: 32,
        noise: 0.15,
        seed: 93,
    })
}

fn fw() -> FrameworkConfig {
    FrameworkConfig {
        w_interval: 4,
        ..FrameworkConfig::default()
    }
}

/// Train a distributed group; returns (per-iter losses, eval loss).
fn run_group(world: usize, comm: CommMode) -> (Vec<f32>, f32) {
    run_group_iters(world, comm, ITERS)
}

fn run_group_iters(world: usize, comm: CommMode, iters: usize) -> (Vec<f32>, f32) {
    let data = dataset();
    let mut cfg = DistConfig::new(world, comm);
    cfg.framework = fw();
    cfg.sgd = SgdConfig::default();
    let mut group = DistributedTrainer::new(cfg, |_| zoo::tiny_alexnet(CLASSES, NET_SEED)).unwrap();
    let mut losses = Vec::with_capacity(iters);
    for i in 0..iters {
        let (x, labels) = data.batch((i * GLOBAL_BATCH) as u64, GLOBAL_BATCH);
        losses.push(group.step(x, &labels).unwrap().loss);
    }
    let (ex, elabels) = data.batch(1_000_000, 64);
    let (eval_loss, _) = group.evaluate(ex, &elabels).unwrap();
    (losses, eval_loss)
}

/// Single-worker reference on the same global batch, same framework.
fn run_single() -> (Vec<f32>, f32) {
    let data = dataset();
    let mut trainer = AdaptiveTrainer::new(
        zoo::tiny_alexnet(CLASSES, NET_SEED),
        SgdConfig::default(),
        fw(),
    );
    let mut losses = Vec::with_capacity(ITERS);
    for i in 0..ITERS {
        let (x, labels) = data.batch((i * GLOBAL_BATCH) as u64, GLOBAL_BATCH);
        losses.push(trainer.step(x, &labels).unwrap().loss);
    }
    let (ex, elabels) = data.batch(1_000_000, 64);
    let (eval_loss, _) = trainer.evaluate(ex, &elabels).unwrap();
    (losses, eval_loss)
}

fn mean(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len().max(1) as f64
}

fn mean_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .sum::<f64>()
        / a.len().min(b.len()).max(1) as f64
}

/// Short twin of
/// [`n4_compressed_ring_with_error_feedback_matches_single_worker`]:
/// the compressed-vs-dense comparison is mask-for-mask identical, so
/// the tight compression-parity bound holds from the first step and a
/// few iterations pin it. The single-worker trajectory comparison needs
/// real training and stays in the full (ignored) test.
#[test]
fn n4_compressed_ring_matches_dense_smoke() {
    let (comp, comp_eval) = run_group_iters(4, CommMode::compressed_default(), 4);
    let (dense, dense_eval) = run_group_iters(4, CommMode::Dense, 4);
    let compression_gap = mean_abs_diff(&comp, &dense);
    assert!(
        compression_gap < 0.05,
        "σ-bounded gradient compression changed the N=4 trajectory: \
         mean |Δloss| = {compression_gap:.4}\ncompressed: {comp:?}\ndense: {dense:?}"
    );
    assert!(
        (comp_eval - dense_eval).abs() < 0.05,
        "eval loss gap vs dense-N4: {comp_eval} vs {dense_eval}"
    );
}

#[test]
#[ignore = "long trajectory (3 x 24-iter runs); CI runs it under EBTRAIN_FULL_E2E=1 via --ignored"]
fn n4_compressed_ring_with_error_feedback_matches_single_worker() {
    // σ-adaptive bound with error feedback: the subsystem's operating
    // point (the bound tracks 1% of mean momentum, Eq. 8).
    let (comp, comp_eval) = run_group(4, CommMode::compressed_default());
    let (dense, dense_eval) = run_group(4, CommMode::Dense);
    let (single, single_eval) = run_single();

    // (a) Compression effect, mask-for-mask identical runs: tight.
    let compression_gap = mean_abs_diff(&comp, &dense);
    assert!(
        compression_gap < 0.05,
        "σ-bounded gradient compression changed the N=4 trajectory: \
         mean |Δloss| = {compression_gap:.4}\ncompressed: {comp:?}\ndense: {dense:?}"
    );
    assert!(
        (comp_eval - dense_eval).abs() < 0.05,
        "eval loss gap vs dense-N4: {comp_eval} vs {dense_eval}"
    );

    // (b) Versus single-worker SGD: smoothed trajectory + deterministic
    // evaluation, with a dropout-mask-noise-sized tolerance.
    let late = ITERS - 8;
    let comp_late = mean(&comp[late..]);
    let single_late = mean(&single[late..]);
    assert!(
        (comp_late - single_late).abs() < 0.30,
        "late-window training loss diverged: N=4 compressed {comp_late:.4} vs single \
         {single_late:.4}\ncompressed: {comp:?}\nsingle: {single:?}"
    );
    assert!(
        (comp_eval - single_eval).abs() < 0.30,
        "eval loss diverged: N=4 compressed {comp_eval:.4} vs single {single_eval:.4}"
    );

    // (c) Both actually trained: late-window loss clearly below the
    // early window.
    let comp_early = mean(&comp[..4]);
    let single_early = mean(&single[..4]);
    assert!(
        comp_late < comp_early - 0.05,
        "compressed N=4 did not learn: {comp_early:.4} -> {comp_late:.4}"
    );
    assert!(
        single_late < single_early - 0.05,
        "single worker did not learn: {single_early:.4} -> {single_late:.4}"
    );
}

/// Flatten a network's parameters read-only (depth-first layer order —
/// the same layout as `flatten_params_into`).
fn flat_params(net: &Network) -> Vec<f32> {
    let mut out = Vec::new();
    net.visit_layers(&mut |l| {
        for p in l.params() {
            out.extend_from_slice(p.value.data());
        }
    });
    out
}

fn assert_bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: parameter count mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: parameter {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn replicas_stay_bit_identical_in_every_lockstep_mode() {
    // The bucketed-sync acceptance matrix: after *every* step, all
    // replicas must hold bit-identical parameters — for the dense
    // bucketed ring, the compressed ring with error feedback (pinned
    // bound), the compressed ring as `benchmark/` runs it (σ-adaptive
    // per-bucket bounds, error feedback on), and the ZeRO
    // sharded-optimizer mode (whose exact parameter all-gather is what
    // makes this hold on a lossy transport). On the compressed rows
    // this rests on `Codec::compress_recon ≡ decompress`: the segment
    // owner adopts the encoder's reconstruction, its peers decode.
    let init_eb = 1e-3f32;
    let fixed = CommMode::Compressed {
        error_bound: init_eb,
        error_feedback: true,
        adaptive: false,
    };
    // Bit-identity must hold after every step from the first; four
    // steps still cross the w_interval=4 collection boundary. The
    // adaptive row runs on: bounds are re-picked at the iteration-0 and
    // iteration-4 collections, so steps 5 and 6 encode under the second
    // re-pick.
    for (name, comm, zero, steps) in [
        ("dense", CommMode::Dense, false, 4u64),
        ("compressed+EF", fixed, false, 4),
        (
            "compressed+EF adaptive",
            CommMode::compressed_default(),
            false,
            7,
        ),
        ("zero/dense", CommMode::Dense, true, 4),
        ("zero/compressed", fixed, true, 4),
    ] {
        let data = dataset();
        let mut cfg = DistConfig::new(4, comm);
        cfg.framework = fw();
        cfg.sgd = SgdConfig::default();
        cfg.sync.zero_shard = zero;
        let mut group =
            DistributedTrainer::new(cfg, |_| zoo::tiny_alexnet(CLASSES, NET_SEED)).unwrap();
        for i in 0..steps {
            let (x, labels) = data.batch(i * GLOBAL_BATCH as u64, GLOBAL_BATCH);
            group.step(x, &labels).unwrap();
            let reference = flat_params(group.replica(0).network());
            for rank in 1..group.world_size() {
                assert_bitwise_eq(
                    &reference,
                    &flat_params(group.replica(rank).network()),
                    &format!("{name}: step {i}, rank {rank} vs chief"),
                );
            }
        }
        if comm == CommMode::compressed_default() {
            let bounds: Vec<Option<f32>> =
                group.history().iter().map(|r| r.comm_error_bound).collect();
            let after_second = &bounds[5..];
            assert!(
                after_second
                    .iter()
                    .all(|&b| b != Some(init_eb) && b != bounds[4]),
                "{name}: steps 5.. must encode under the iteration-4 re-pick: {bounds:?}"
            );
        }
    }
}

#[test]
fn zero_sharded_optimizer_matches_dense_local_sgd_bitwise() {
    // On the dense transport, the ZeRO mode must reproduce the classic
    // all-reduce + local-SGD trajectory *to the bit*: the owned-segment
    // sum has the same association order (aligned bucket segmentation),
    // the owner's `× 1/N` matches the all-reduce averaging, and
    // `flat_sgd_update` is pinned bit-identical to the per-parameter
    // optimizer. The activation bound is pinned (min = max = fallback)
    // because the σ controller reads *local* momentum — all zeros under
    // sharding — so adaptive bounds would legitimately differ between
    // the two groups; pinning isolates the sync + optimizer arithmetic.
    let mut fw_long = fw();
    fw_long.min_eb = fw_long.fallback_eb;
    fw_long.max_eb = fw_long.fallback_eb;
    let data = dataset();
    let mut groups: Vec<DistributedTrainer> = [false, true]
        .into_iter()
        .map(|zero| {
            let mut cfg = DistConfig::new(2, CommMode::Dense);
            cfg.framework = fw_long.clone();
            cfg.sgd = SgdConfig::default();
            cfg.sync.zero_shard = zero;
            DistributedTrainer::new(cfg, |_| zoo::tiny_alexnet(CLASSES, NET_SEED)).unwrap()
        })
        .collect();
    for i in 0..5u64 {
        let (x, labels) = data.batch(i * GLOBAL_BATCH as u64, GLOBAL_BATCH);
        let mut params = Vec::new();
        for group in groups.iter_mut() {
            group.step(x.clone(), &labels).unwrap();
            params.push(flat_params(group.replica(0).network()));
        }
        assert_bitwise_eq(
            &params[0],
            &params[1],
            &format!("step {i}: zero-sharded vs local SGD"),
        );
    }
}

#[test]
fn compressed_transport_actually_saves_bytes_on_real_gradients() {
    // The ratio claim on *real* (smooth, momentum-shaped) gradients —
    // the counterpart of the bench's eb=1e-3 measurement, kept here so
    // `cargo test` guards it too. Fixed bound, error feedback on.
    let data = dataset();
    let mut cfg = DistConfig::new(
        2,
        CommMode::Compressed {
            error_bound: 1e-3,
            error_feedback: true,
            adaptive: false,
        },
    );
    cfg.framework = fw();
    let mut group = DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(CLASSES, NET_SEED)).unwrap();
    // Delta over the training steps only: the one-time parameter
    // broadcast is deliberately exact (dense), so it would dilute the
    // gradient-stream ratio.
    let before = group.comm_stats();
    for i in 0..3u64 {
        let (x, labels) = data.batch(i * 8, 8);
        group.step(x, &labels).unwrap();
    }
    let st = group.comm_stats().delta_since(&before);
    assert!(
        st.reduction_ratio() >= 4.0,
        "expected >= 4x byte reduction on tiny_vgg gradients at eb=1e-3, got {:.2}x ({:?})",
        st.reduction_ratio(),
        st
    );
}
