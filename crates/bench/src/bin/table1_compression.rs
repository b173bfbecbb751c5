//! **Table 1** (+ §5.3 comparators) — per-network conv-activation size,
//! compression ratio, and accuracy deltas; with the lossless (~2×) and
//! JPEG-ACT (~7×) comparison points.
//!
//! Part A (ratios) uses the *full* architectures at 224²: a training-mode
//! forward pass harvests every conv layer's real input activation, and
//! each tensor is compressed three ways. The SZ bounds use the
//! framework's philosophy (1% of the layer's mean activation magnitude —
//! the Eq. 8/9 controller expressed against activation scale, since the
//! untrained full nets have no momentum history). Sizes are reported
//! scaled to the paper's batch 256 (activation bytes are linear in
//! batch).
//!
//! Part B (accuracy) trains the scaled variants baseline-vs-framework on
//! SynthImageNet and reports the accuracy delta (paper: ≤ 0.31% loss).

use ebtrain_bench::capture::capture_conv_activations;
use ebtrain_bench::table::Table;
use ebtrain_bench::{env_flag, env_usize, fmt_bytes};
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::train::{evaluate, train_step};
use ebtrain_dnn::zoo;
use ebtrain_imgcomp::JpegActConfig;
use ebtrain_sz::{DataLayout, SzConfig};
use ebtrain_tensor::ops::abs_mean;

fn main() {
    let report_batch = 256u64;
    let nets: Vec<&str> = if env_flag("EBTRAIN_FULL") {
        zoo::PAPER_NETWORKS.to_vec()
    } else {
        vec!["alexnet", "resnet18"]
    };
    println!(
        "table1_compression: nets={nets:?} (EBTRAIN_FULL=1 for all four), sizes scaled to batch {report_batch}"
    );

    let data = SynthImageNet::new(SynthConfig {
        classes: 1000,
        image_hw: 224,
        noise: 0.1,
        seed: 42,
    });

    // ---- Part A: compression ratios on real conv activations ----
    //
    // SZ bounds follow the framework's controller philosophy at two
    // conservativeness levels (1% and 5% of mean |activation|; the
    // adaptive controller's trained-regime bounds land around 5-30% —
    // see fig10's per-layer table). The `SZ@jpeg_err` column is the
    // matched-quality comparison: SZ configured with an error bound equal
    // to the *max* error JPEG-ACT actually committed — i.e. who wins at
    // equal worst-case damage.
    let mut table = Table::new(&[
        "network",
        "conv_act@256",
        "SZ(1%)",
        "SZ(5%)",
        "SZ@jpeg_err",
        "lossless",
        "jpeg-act(q75)",
        "jpeg_max_err/scale",
    ]);
    for name in &nets {
        eprintln!("[table1] {name}: forward + compressors ...");
        let mut net = zoo::by_name(name, 1000, 7).expect("zoo");
        let (x, _) = data.batch(0, 1);
        let acts = capture_conv_activations(&mut net, x).expect("capture");
        drop(net);
        let (mut raw, mut sz1, mut sz5, mut szj, mut ll_c, mut jp_c) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let mut worst_rel_jpeg = 0.0f64;
        for (_, _, act) in &acts {
            raw += act.byte_size() as u64;
            let scale = abs_mean(act.data()).max(1e-12);
            let layout = DataLayout::for_shape(act.shape());
            for (frac, acc) in [(0.01, &mut sz1), (0.05, &mut sz5)] {
                let cfg = SzConfig::classic((frac * scale) as f32);
                *acc += ebtrain_sz::compress(act.data(), layout, &cfg)
                    .expect("sz")
                    .compressed_byte_len() as u64;
            }
            ll_c += ebtrain_sz::lossless::compress(act.data()).len() as u64;
            let (n, c, h, w) = act.dims4();
            let jbuf =
                ebtrain_imgcomp::compress(act.data(), n * c, h, w, &JpegActConfig::default())
                    .expect("jpeg");
            jp_c += jbuf.compressed_byte_len() as u64;
            let jrec = ebtrain_imgcomp::decompress(&jbuf).expect("jpeg dec");
            let jmax = act
                .data()
                .iter()
                .zip(&jrec)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            worst_rel_jpeg = worst_rel_jpeg.max(jmax as f64 / scale);
            // Matched-quality SZ: bound = JPEG's committed max error.
            let cfg = SzConfig::classic(jmax.max(1e-7));
            szj += ebtrain_sz::compress(act.data(), layout, &cfg)
                .expect("sz")
                .compressed_byte_len() as u64;
        }
        table.row(vec![
            name.to_string(),
            fmt_bytes(raw * report_batch),
            format!("{:.1}x", raw as f64 / sz1 as f64),
            format!("{:.1}x", raw as f64 / sz5 as f64),
            format!("{:.1}x", raw as f64 / szj as f64),
            format!("{:.1}x", raw as f64 / ll_c as f64),
            format!("{:.1}x", raw as f64 / jp_c as f64),
            format!("{:.2}", worst_rel_jpeg),
        ]);
    }
    table.print("Table 1 (part A): conv activation sizes and compression ratios");
    println!(
        "note: jpeg-act's ratio comes with an *uncontrolled* max error \
         (last column, in units of the mean |activation|); at that same \
         worst-case error, the error-bounded compressor (SZ@jpeg_err) \
         compresses far harder — the paper's Table-1 ordering at matched \
         quality."
    );

    // ---- Part B: accuracy deltas on the scaled variants ----
    let iters = env_usize("EBTRAIN_ITERS", 150);
    let batch = env_usize("EBTRAIN_BATCH", 16);
    let eval_n = 128usize;
    let tiny = ["tiny-alexnet", "tiny-vgg", "tiny-resnet"];
    let sdata = SynthImageNet::new(SynthConfig {
        classes: 10,
        image_hw: 32,
        noise: 0.25,
        seed: 77,
    });
    let (vx, vl) = sdata.val_batch(0, eval_n);
    let head = SoftmaxCrossEntropy::new();
    let mut acc_table = Table::new(&[
        "network",
        "baseline_acc",
        "framework_acc",
        "delta",
        "conv_ratio",
    ]);
    for name in tiny {
        eprintln!("[table1] accuracy runs: {name} ...");
        // Baseline.
        let mut net = zoo::by_name(name, 10, 7).expect("zoo");
        let mut opt = Sgd::new(SgdConfig::default());
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        for i in 0..iters {
            let (x, labels) = sdata.batch((i * batch) as u64, batch);
            train_step(
                &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
            )
            .expect("baseline");
        }
        let (_, cb) = evaluate(&mut net, &head, vx.clone(), &vl).expect("eval");
        // Framework.
        let net = zoo::by_name(name, 10, 7).expect("zoo");
        let mut trainer = AdaptiveTrainer::new(
            net,
            SgdConfig::default(),
            FrameworkConfig {
                w_interval: 25,
                ..FrameworkConfig::default()
            },
        );
        for i in 0..iters {
            let (x, labels) = sdata.batch((i * batch) as u64, batch);
            trainer.step(x, &labels).expect("framework");
        }
        let (_, cc) = trainer.evaluate(vx.clone(), &vl).expect("eval");
        let (ab, ac) = (cb as f64 / eval_n as f64, cc as f64 / eval_n as f64);
        acc_table.row(vec![
            name.to_string(),
            format!("{ab:.3}"),
            format!("{ac:.3}"),
            format!("{:+.3}", ac - ab),
            format!("{:.1}x", trainer.store_metrics().compressible_ratio()),
        ]);
    }
    acc_table.print("Table 1 (part B): accuracy deltas under the framework (scaled variants)");
    println!(
        "\nPaper shape to check: SZ(ours) >> jpeg-act > lossless on every \
         network (paper: ~11-13.5x vs ~7x vs ~2x), and framework accuracy \
         within noise of baseline (paper: <= 0.31% loss)."
    );
}
