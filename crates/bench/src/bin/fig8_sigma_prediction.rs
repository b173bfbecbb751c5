//! **Figure 8** — measured vs predicted gradient-error σ across conv
//! layers of AlexNet and VGG-16.
//!
//! Method (paper §5.2): inject the modelled uniform activation error
//! (zeros preserved — the framework's operating mode), measure each conv
//! layer's gradient-error σ, and compare against the Eq. 6+7 prediction
//! `σ = a · L̄ · √(N·R) · eb`. Also reports the per-layer *fitted* `a`
//! (the paper measured a ≈ 0.32 on its loss distributions; the absolute
//! value depends on the loss-concentration structure of the task, the
//! *consistency across layers* is the claim under test).

use ebtrain_bench::grads::conv_grads;
use ebtrain_bench::table::Table;
use ebtrain_bench::{env_f64, env_flag, env_usize};
use ebtrain_core::inject::InjectingStore;
use ebtrain_core::model::{predict_sigma, predict_sigma_exact, PAPER_A};
use ebtrain_core::stats::moments;
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::zoo;

fn main() {
    let batch = env_usize("EBTRAIN_BATCH", 2);
    let eb = env_f64("EBTRAIN_EB", 1e-3);
    let nets: Vec<&str> = if env_flag("EBTRAIN_FULL") {
        vec!["alexnet", "vgg16"]
    } else {
        vec!["alexnet"]
    };
    println!(
        "fig8_sigma_prediction: nets={nets:?} batch={batch} eb={eb} (EBTRAIN_FULL=1 adds vgg16)"
    );

    let data = SynthImageNet::new(SynthConfig {
        classes: 1000,
        image_hw: 224,
        noise: 0.1,
        seed: 42,
    });
    let (x, labels) = data.batch(0, batch);

    for name in nets {
        eprintln!("[fig8] {name}: clean pass ...");
        let mut net = zoo::by_name(name, 1000, 7).expect("zoo");
        let mut raw = RawStore::new();
        let clean = conv_grads(&mut net, &mut raw, x.clone(), &labels).expect("clean step");
        eprintln!("[fig8] {name}: injected pass ...");
        let mut net2 = zoo::by_name(name, 1000, 7).expect("zoo");
        let mut inj = InjectingStore::new(RawStore::new(), eb as f32, true, 99);
        let noisy = conv_grads(&mut net2, &mut inj, x.clone(), &labels).expect("injected step");

        let mut table = Table::new(&[
            "layer",
            "L_bar",
            "L_rms",
            "P",
            "R",
            "sigma_measured",
            "pred_paper(a=0.32)",
            "pred_exactCLT",
            "exact/measured",
            "fitted_a",
        ]);
        let mut fitted: Vec<f64> = Vec::new();
        let mut exact_ratios: Vec<f64> = Vec::new();
        for (c, n) in clean.iter().zip(&noisy) {
            let err: Vec<f32> = n.grad.iter().zip(&c.grad).map(|(a, b)| a - b).collect();
            let measured = moments(&err).std;
            let s = &n.stats;
            let pred_paper = predict_sigma(PAPER_A, s.l_bar, s.batch_size, eb, s.sparsity_r);
            let pred_exact = predict_sigma_exact(
                s.l_rms,
                s.batch_size,
                s.out_positions_per_sample,
                eb,
                s.sparsity_r,
            );
            let denom = s.l_bar * (s.batch_size as f64 * s.sparsity_r).sqrt() * eb;
            let a_fit = if denom > 0.0 { measured / denom } else { 0.0 };
            fitted.push(a_fit);
            exact_ratios.push(pred_exact / measured.max(1e-30));
            table.row(vec![
                n.name.clone(),
                format!("{:.3e}", s.l_bar),
                format!("{:.3e}", s.l_rms),
                format!("{}", s.out_positions_per_sample),
                format!("{:.3}", s.sparsity_r),
                format!("{measured:.3e}"),
                format!("{pred_paper:.3e}"),
                format!("{pred_exact:.3e}"),
                format!("{:.2}", pred_exact / measured.max(1e-30)),
                format!("{a_fit:.2}"),
            ]);
        }
        table.print(&format!("Fig 8 ({name}): measured vs predicted sigma"));
        let mean_a = fitted.iter().sum::<f64>() / fitted.len().max(1) as f64;
        println!(
            "fitted paper-form a: mean {mean_a:.2} (paper measured 0.32 on \
             concentrated late-training ImageNet losses; on diffuse early- \
             training losses a absorbs a sqrt(P) geometry factor — see the \
             exact-CLT column, which predicts sigma without any constant)"
        );
        let mean_exact = exact_ratios.iter().sum::<f64>() / exact_ratios.len().max(1) as f64;
        println!("exact-CLT prediction / measured: mean {mean_exact:.2} (1.0 = perfect)");
    }
    println!(
        "\nPaper shape to check: a single model form tracks measured sigma \
         across all layers — the property that makes Eq. 9's inversion \
         usable as a controller. The exact-CLT column shows our substrate \
         achieves this without an empirical constant."
    );
}
