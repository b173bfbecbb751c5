//! **Figure 6** — distribution of the gradient error caused by uniformly
//! distributed activation error, (a) zeros perturbed vs (b) zeros
//! preserved.
//!
//! Method (paper §3.2): run the *same* batch through two weight-identical
//! AlexNets — one saving clean activations, one with modelled `U(−eb,+eb)`
//! error injected into every conv input at save time — and diff the conv
//! weight gradients. Because `dX` never touches saved activations, the
//! entire gradient difference is compression-error propagation, exactly
//! the quantity Eq. 4 models. Expect: normal shape, ±σ coverage ≈ 68.2%,
//! and σ(b) ≈ σ(a)·√R.

use ebtrain_bench::grads::conv_grads;
use ebtrain_bench::table::Table;
use ebtrain_bench::{env_f64, env_usize};
use ebtrain_core::inject::InjectingStore;
use ebtrain_core::stats::{fraction_within, looks_normal, moments};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::zoo;
use ebtrain_tensor::ops::nonzero_fraction;

fn main() {
    let batch = env_usize("EBTRAIN_BATCH", 2);
    let eb = env_f64("EBTRAIN_EB", 1e-3) as f32;
    println!("fig6_gradient_error: AlexNet, batch={batch}, injected eb={eb}");

    let data = SynthImageNet::new(SynthConfig {
        classes: 1000,
        image_hw: 224,
        noise: 0.1,
        seed: 42,
    });
    let (x, labels) = data.batch(0, batch);

    // Clean reference gradients (+ per-layer activation sparsity R).
    eprintln!("[fig6] clean pass ...");
    let mut net = zoo::alexnet(1000, 7);
    let mut raw = RawStore::new();
    let clean = conv_grads(&mut net, &mut raw, x.clone(), &labels).expect("clean step");
    let r_by_layer: Vec<(String, f64)> = {
        // Sparsity of each conv input, captured from the clean pass.
        let mut net = zoo::alexnet(1000, 7);
        ebtrain_bench::capture::capture_conv_activations(&mut net, x.clone())
            .expect("capture")
            .into_iter()
            .map(|(_, name, t)| (name, nonzero_fraction(t.data())))
            .collect()
    };

    let mut table = Table::new(&["layer", "R", "variant", "sigma", "within_1sig", "normal?"]);
    let mut sigmas: Vec<(String, f64, f64, f64)> = Vec::new(); // name, sig_a, sig_b, r
    for (preserve, tag) in [(false, "6a zeros perturbed"), (true, "6b zeros preserved")] {
        eprintln!("[fig6] injected pass ({tag}) ...");
        let mut net = zoo::alexnet(1000, 7);
        let mut store = InjectingStore::new(RawStore::new(), eb, preserve, 1234);
        let noisy = conv_grads(&mut net, &mut store, x.clone(), &labels).expect("injected step");
        for (i, (c, n)) in clean.iter().zip(&noisy).enumerate() {
            let name = &c.name;
            let err: Vec<f32> = n.grad.iter().zip(&c.grad).map(|(a, b)| a - b).collect();
            let m = moments(&err);
            let within = fraction_within(&err, m.mean, m.std);
            let r = r_by_layer[i].1;
            table.row(vec![
                name.clone(),
                format!("{r:.3}"),
                tag.split(' ').next().unwrap().to_string(),
                format!("{:.3e}", m.std),
                format!("{within:.3}"),
                if looks_normal(&err) {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]);
            if preserve {
                if let Some(e) = sigmas.iter_mut().find(|e| e.0 == *name) {
                    e.2 = m.std;
                }
            } else {
                sigmas.push((name.clone(), m.std, 0.0, r));
            }
        }
    }
    table.print("Fig 6: gradient error distributions");

    let mut check = Table::new(&["layer", "sigma_a", "sigma_b", "sigma_b/sigma_a", "sqrt(R)"]);
    for (name, a, b, r) in &sigmas {
        check.row(vec![
            name.clone(),
            format!("{a:.3e}"),
            format!("{b:.3e}"),
            format!("{:.3}", b / a),
            format!("{:.3}", r.sqrt()),
        ]);
    }
    check.print("Fig 6 check: zero preservation shrinks sigma by ~sqrt(R) (Eq. 7)");
    println!(
        "\nPaper shape to check: both variants normally distributed with \
         ~68.2% mass within +/-1 sigma; preserving zeros reduces sigma, \
         consistent with sigma' = sigma*sqrt(R)."
    );
}
