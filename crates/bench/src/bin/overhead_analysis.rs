//! **§5.4 performance analysis** — framework overhead at equal batch
//! size, the batch-growth offset, the codec time breakdown, the
//! 1×1-kernel caveat the paper calls out, and the cost of the
//! observability layer itself (disabled / metrics / trace arms
//! on the 1 MiB dual-quant compress).

use ebtrain_bench::table::Table;
use ebtrain_bench::{env_usize, fmt_bytes};
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::{Network, NetworkBuilder};
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{ActivationStore, CompressedStore, RawStore, SlotBytes};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use std::time::Instant;

fn time_baseline(
    data: &SynthImageNet,
    mut net: Network,
    batch: usize,
    iters: usize,
) -> (f64, usize) {
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut store = RawStore::new();
    let plan = CompressionPlan::new();
    let mut peak = 0usize;
    let t0 = Instant::now();
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let r = train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .expect("step");
        peak = peak.max(r.peak_store_bytes);
    }
    (t0.elapsed().as_secs_f64(), peak)
}

fn time_framework(
    data: &SynthImageNet,
    net: Network,
    batch: usize,
    iters: usize,
) -> (f64, usize, f64, u64, u64, SlotBytes) {
    let mut trainer = AdaptiveTrainer::new(
        net,
        SgdConfig::default(),
        FrameworkConfig {
            w_interval: 16,
            ..FrameworkConfig::default()
        },
    );
    let mut peak = 0usize;
    let mut peak_made_of = SlotBytes::default();
    let t0 = Instant::now();
    for i in 0..iters {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let r = trainer.step(x, &labels).expect("step");
        if r.peak_store_bytes > peak {
            peak = r.peak_store_bytes;
            peak_made_of = trainer.store_metrics().peak;
        }
    }
    let total = t0.elapsed().as_secs_f64();
    let m = trainer.store_metrics();
    (
        total,
        peak,
        m.compressible_ratio(),
        m.compress_nanos,
        m.decompress_nanos,
        peak_made_of,
    )
}

/// Shares of the framework's peak held as codec streams / raw f32 /
/// bit-packed masks and pool offsets.
fn peak_shares(p: SlotBytes) -> String {
    let pct = |b: u64| 100.0 * b as f64 / p.total().max(1) as f64;
    format!(
        "{:.0}/{:.0}/{:.0}%",
        pct(p.encoded),
        pct(p.float_raw),
        pct(p.bits)
    )
}

/// A network dominated by 1×1 convolutions (cheap compute, same
/// activation volume — the paper's unfavourable case).
fn one_by_one_net(seed: u64) -> Network {
    let mut b = NetworkBuilder::new("conv1x1-heavy", &[3, 32, 32], seed);
    b.conv(16, 3, 1, 1).relu();
    for _ in 0..6 {
        b.conv(16, 1, 1, 0).relu();
    }
    b.maxpool(2, 2, 0).linear(10);
    b.build()
}

fn main() {
    let batch = env_usize("EBTRAIN_BATCH", 16);
    let iters = env_usize("EBTRAIN_ITERS", 20);
    println!("overhead_analysis: batch={batch} iters={iters}");
    let data = SynthImageNet::new(SynthConfig {
        classes: 10,
        image_hw: 32,
        noise: 0.2,
        seed: 31,
    });

    let mut table = Table::new(&[
        "network",
        "base_s/iter",
        "fw_s/iter",
        "overhead",
        "ratio",
        "codec_share",
        "peak_base",
        "peak_fw",
        "enc/f32/bits",
    ]);
    for name in ["tiny-alexnet", "tiny-vgg", "tiny-resnet"] {
        eprintln!("[overhead] {name} ...");
        let (tb, pb) = time_baseline(&data, zoo::by_name(name, 10, 7).unwrap(), batch, iters);
        let (tf, pf, ratio, cn, dn, made_of) =
            time_framework(&data, zoo::by_name(name, 10, 7).unwrap(), batch, iters);
        let codec = (cn + dn) as f64 * 1e-9;
        table.row(vec![
            name.to_string(),
            format!("{:.3}", tb / iters as f64),
            format!("{:.3}", tf / iters as f64),
            format!("{:+.1}%", (tf / tb - 1.0) * 100.0),
            format!("{ratio:.1}x"),
            format!("{:.0}%", codec / tf * 100.0),
            fmt_bytes(pb as u64),
            fmt_bytes(pf as u64),
            peak_shares(made_of),
        ]);
    }
    // 1x1-kernel caveat.
    {
        eprintln!("[overhead] 1x1-heavy ...");
        let (tb, pb) = time_baseline(&data, one_by_one_net(7), batch, iters);
        let (tf, pf, ratio, cn, dn, made_of) =
            time_framework(&data, one_by_one_net(7), batch, iters);
        let codec = (cn + dn) as f64 * 1e-9;
        table.row(vec![
            "conv1x1-heavy".into(),
            format!("{:.3}", tb / iters as f64),
            format!("{:.3}", tf / iters as f64),
            format!("{:+.1}%", (tf / tb - 1.0) * 100.0),
            format!("{ratio:.1}x"),
            format!("{:.0}%", codec / tf * 100.0),
            fmt_bytes(pb as u64),
            fmt_bytes(pf as u64),
            peak_shares(made_of),
        ]);
    }
    table.print("Overhead at equal batch size (paper: ~17%, worse for 1x1-kernel networks)");

    // Batch-growth offset: compare images/s at baseline batch vs the
    // framework at a memory-equivalent larger batch.
    {
        eprintln!("[overhead] batch growth offset ...");
        let (tb, pb) = time_baseline(&data, zoo::tiny_vgg(10, 7), batch, iters);
        let base_ips = (iters * batch) as f64 / tb;
        // grow batch until the framework's peak reaches the baseline's
        let mut grown = batch;
        let mut fw_ips = 0.0;
        let mut fw_peak = 0;
        for cand in [batch, batch * 3 / 2, batch * 2, batch * 3, batch * 4] {
            let (tf, pf, ..) = time_framework(&data, zoo::tiny_vgg(10, 7), cand, iters);
            if pf <= pb || cand == batch {
                grown = cand;
                fw_ips = (iters * cand) as f64 / tf;
                fw_peak = pf;
            } else {
                break;
            }
        }
        println!("\n== Batch growth offset (tiny-vgg) ==");
        println!(
            "baseline: batch {batch}, {base_ips:.1} img/s, peak {}",
            fmt_bytes(pb as u64)
        );
        println!(
            "framework: batch {grown}, {fw_ips:.1} img/s, peak {} ({:+.1}% throughput)",
            fmt_bytes(fw_peak as u64),
            (fw_ips / base_ips - 1.0) * 100.0
        );
    }

    // Recomputation baseline (gradient checkpointing, §2.1's other class).
    {
        eprintln!("[overhead] recomputation baseline ...");
        use ebtrain_dnn::recompute::checkpointed_train_step;
        let (tb, pb) = time_baseline(&data, zoo::tiny_resnet(10, 7), batch, iters);
        let head = SoftmaxCrossEntropy::new();
        let mut net = zoo::tiny_resnet(10, 7);
        let mut opt = Sgd::new(SgdConfig::default());
        let plan = CompressionPlan::new();
        let mut store = RawStore::new();
        let mut peak = 0usize;
        let t0 = Instant::now();
        for i in 0..iters {
            let (x, labels) = data.batch((i * batch) as u64, batch);
            let r = checkpointed_train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, 4, false, None,
            )
            .expect("step");
            peak = peak.max(r.peak_store_bytes);
        }
        let tr = t0.elapsed().as_secs_f64();
        println!("\n== Recomputation baseline (tiny-resnet, 4 segments) ==");
        println!(
            "baseline {:.3}s/iter peak {} | checkpointed {:.3}s/iter ({:+.1}%) peak {} ({:.1}x less)",
            tb / iters as f64,
            fmt_bytes(pb as u64),
            tr / iters as f64,
            (tr / tb - 1.0) * 100.0,
            fmt_bytes(peak as u64),
            pb as f64 / peak.max(1) as f64
        );
    }

    // Migration baseline comparison (Layrub-class, §5.4's 24.1% point).
    {
        eprintln!("[overhead] migration baseline ...");
        let head = SoftmaxCrossEntropy::new();
        let mut net = zoo::tiny_vgg(10, 7);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = CompressedStore::pcie3();
        let plan = CompressionPlan::new();
        let t0 = Instant::now();
        for i in 0..iters {
            let (x, labels) = data.batch((i * batch) as u64, batch);
            train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .expect("step");
        }
        let wall = t0.elapsed().as_secs_f64();
        let transfer = store.metrics().simulated_transfer_nanos as f64 * 1e-9;
        println!("\n== Migration baseline (tiny-vgg, PCIe3 model) ==");
        println!(
            "compute {wall:.2}s + simulated transfer {transfer:.2}s => {:.1}% overhead; device-resident activations ~0",
            transfer / wall * 100.0
        );
    }
    // Observability overhead: what does the always-compiled obs layer
    // cost? Three arms over the same 1 MiB dual-quant compress —
    // everything off, metrics registry on (the default; every span
    // feeds its histogram), full span tracing on — plus two
    // deterministic bounds: the measured per-call cost of a disabled
    // span (two relaxed atomic loads) and of an enabled span, each
    // times the spans one compress emits, must stay under 2% of the
    // compress itself. The direct product
    // sidesteps run-to-run noise that dwarfs a sub-percent delta in
    // median comparisons.
    {
        use ebtrain_obs as obs;
        use ebtrain_sz::{compress, DataLayout, SzConfig};
        eprintln!("[overhead] obs instrumentation (1 MiB dual-quant compress) ...");
        let layout = DataLayout::D3(64, 64, 64); // 262144 f32 = 1 MiB
        let input: Vec<f32> = (0..64 * 64 * 64)
            .map(|i| (((i as f32) * 0.013).sin() * 0.5).max(0.0))
            .collect();
        let cfg = SzConfig::with_error_bound(1e-3);
        let reps = env_usize("EBTRAIN_OBS_REPS", 15);
        let time_arm = |metrics: bool, trace: bool| -> f64 {
            obs::set_metrics_enabled(metrics);
            obs::set_trace_enabled(trace);
            let mut ns: Vec<f64> = (0..reps)
                .map(|_| {
                    if trace {
                        obs::clear_trace(); // bound buffer growth per rep
                    }
                    let t0 = Instant::now();
                    std::hint::black_box(compress(&input, layout, &cfg).unwrap());
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            ns.sort_by(|a, b| a.total_cmp(b));
            ns[ns.len() / 2]
        };
        let dis_med = time_arm(false, false);
        let met_med = time_arm(true, false);
        let tr_med = time_arm(true, true);
        obs::clear_trace();
        // Hand enablement back to the environment (`EBTRAIN_TRACE`).
        obs::set_trace_enabled(obs::trace_env_path().is_some());
        obs::set_metrics_enabled(true);

        // How many spans does one compress emit? Count via the registry.
        let before = obs::snapshot();
        std::hint::black_box(compress(&input, layout, &cfg).unwrap());
        let spans_per_compress: u64 = obs::snapshot()
            .delta_since(&before)
            .spans()
            .map(|(_, s)| s.count)
            .sum();

        // Per-call cost of a disabled span, measured in a tight loop.
        obs::set_metrics_enabled(false);
        let loops = 1_000_000u32;
        let t0 = Instant::now();
        for _ in 0..loops {
            let g = obs::span!("overhead.disabled_probe");
            std::hint::black_box(&g);
        }
        let per_span_ns = t0.elapsed().as_nanos() as f64 / loops as f64;
        obs::set_metrics_enabled(true);

        // Per-call cost of an enabled span — clock read, one shard-map
        // update, and the log-bucket increment — same tight loop, same
        // deterministic product.
        let t0 = Instant::now();
        for _ in 0..loops {
            let g = obs::span!("overhead.enabled_probe");
            std::hint::black_box(&g);
        }
        let per_enabled_span_ns = t0.elapsed().as_nanos() as f64 / loops as f64;

        let added_ns = per_span_ns * spans_per_compress as f64;
        let bound = added_ns / dis_med;
        let enabled_added_ns = per_enabled_span_ns * spans_per_compress as f64;
        let enabled_bound = enabled_added_ns / dis_med;
        println!("\n== Observability overhead (1 MiB dual-quant compress) ==");
        println!(
            "disabled {:.2}ms | metrics {:.2}ms ({:+.1}%) | trace {:.2}ms ({:+.1}%)",
            dis_med / 1e6,
            met_med / 1e6,
            (met_med / dis_med - 1.0) * 100.0,
            tr_med / 1e6,
            (tr_med / dis_med - 1.0) * 100.0,
        );
        println!(
            "disabled span: {per_span_ns:.1}ns/call x {spans_per_compress} spans/compress \
             = {:.1}us added = {:.3}% of the compress",
            added_ns / 1e3,
            bound * 100.0
        );
        println!(
            "enabled span: {per_enabled_span_ns:.1}ns/call x {spans_per_compress} \
             spans/compress = {:.1}us added = {:.3}% of the compress",
            enabled_added_ns / 1e3,
            enabled_bound * 100.0
        );
        assert!(
            bound < 0.02,
            "disabled-mode obs overhead {:.2}% breaches the 2% budget \
             ({per_span_ns:.1}ns/span x {spans_per_compress} spans vs {:.2}ms compress)",
            bound * 100.0,
            dis_med / 1e6
        );
        assert!(
            enabled_bound < 0.02,
            "enabled span overhead {:.2}% breaches the 2% budget \
             ({per_enabled_span_ns:.1}ns/span x {spans_per_compress} spans vs {:.2}ms compress)",
            enabled_bound * 100.0,
            dis_med / 1e6
        );
    }
    println!(
        "\nPaper shape to check: same-batch overhead is a modest constant \
         (paper ~17%), recovered by growing the batch into the freed \
         memory (paper: down to ~7%); 1x1-kernel networks fare worst; \
         migration pays interconnect time instead (paper cites 24.1% for \
         Layrub); the observability layer itself is sub-2% when disabled."
    );
    ebtrain_obs::flush_trace();
}
