//! **Figure 2** — memory consumption of state-of-the-art networks:
//! weights vs activation data, showing activations dominate.
//!
//! Method: one training-mode forward pass per network measures the bytes
//! every layer parks for backward (the live activation set at the end of
//! forward, exactly what the baseline holds until backprop). Activation
//! memory scales linearly with batch, so per-sample measurements are
//! scaled to the paper's batch 32.
//!
//! Default runs AlexNet + ResNet-18 at the measurement batch size 1;
//! `EBTRAIN_FULL=1` adds VGG-16 and ResNet-50 (slow on one core).
//!
//! Doubles as the CI check on the max-pool slot format: the run fails
//! if any pool parks more than `⌈log₂ k²⌉` bits per output.

use ebtrain_bench::capture::CapturingStore;
use ebtrain_bench::table::Table;
use ebtrain_bench::{env_flag, env_usize, fmt_bytes};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::{CompressionPlan, ForwardContext, LayerKind, Saved, SlotId};
use ebtrain_dnn::store::{ActivationStore, RawStore};
use ebtrain_dnn::zoo;

/// Window of every max-pool in a zoo network: 2×2 in VGG-16, 3×3
/// (stride 2) in AlexNet and the ResNet stem.
fn pool_window(net: &str) -> usize {
    if net == "vgg16" {
        2
    } else {
        3
    }
}

fn main() {
    let report_batch = env_usize("EBTRAIN_BATCH", 32);
    let nets: Vec<&str> = if env_flag("EBTRAIN_FULL") {
        zoo::PAPER_NETWORKS.to_vec()
    } else {
        vec!["alexnet", "resnet18"]
    };
    println!(
        "fig2_memory: networks={nets:?} report_batch={report_batch} (set EBTRAIN_FULL=1 for all four)"
    );

    let data = SynthImageNet::new(SynthConfig {
        classes: 1000,
        image_hw: 224,
        noise: 0.1,
        seed: 42,
    });

    let mut table = Table::new(&[
        "network",
        "weights",
        "act/sample",
        &format!("act@batch{report_batch}"),
        "act/weights",
        "pool bits/output",
    ]);
    for name in nets {
        eprintln!("[fig2] forward pass: {name} ...");
        let mut net = zoo::by_name(name, 1000, 7).expect("zoo");
        let weights = net.weight_bytes();
        let (x, _) = data.batch(0, 1);
        let mut store = CapturingStore::new(RawStore::new());
        let plan = CompressionPlan::new();
        {
            let mut ctx = ForwardContext {
                store: &mut store,
                training: true,
                collect: false,
                plan: &plan,
            };
            net.forward(x, &mut ctx).expect("forward");
        }
        let act_per_sample = store.current_bytes();
        let act_at_batch = act_per_sample as u64 * report_batch as u64;

        // A pool's output is the input of the next conv/FC layer (ids
        // run in forward order), which the capturing store kept.
        let mut pools = Vec::new();
        net.visit_layers(&mut |layer| {
            if layer.kind() == LayerKind::MaxPool {
                pools.push((layer.id(), layer.name().to_string()));
            }
        });
        let window_bits = (pool_window(name).pow(2) as f64).log2().ceil();
        let mut worst_bits = 0.0f64;
        for (id, pool) in pools {
            let Saved::Bits { len, .. } = store.load(SlotId(id, 0)).expect("pool slot") else {
                panic!("{name}/{pool}: max-pool slot is not bit-packed");
            };
            let captured = &store.captured;
            let (_, out) = captured
                .iter()
                .find(|(next, _)| *next > id)
                .expect("a conv or FC layer follows every pool");
            let bits = len as f64 / out.len() as f64;
            assert!(
                bits <= window_bits,
                "{name}/{pool}: {bits} bits per output, a {k}×{k} window needs {window_bits}",
                k = pool_window(name)
            );
            worst_bits = worst_bits.max(bits);
        }
        table.row(vec![
            name.to_string(),
            fmt_bytes(weights as u64),
            fmt_bytes(act_per_sample as u64),
            fmt_bytes(act_at_batch),
            format!("{:.1}x", act_at_batch as f64 / weights as f64),
            format!("{worst_bits}"),
        ]);
    }
    table.print(&format!(
        "Fig 2: weight vs activation memory (batch {report_batch})"
    ));
    println!(
        "\nPaper shape to check: activation memory at training batch sizes \
         exceeds weight memory by a large factor on every CNN (the gap the \
         framework attacks)."
    );
}
