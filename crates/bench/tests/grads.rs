//! `ebtrain_bench::grads::conv_grads` reads the conv gradients and
//! statistics that a plain forward → loss → backward leaves, bit for bit.

use ebtrain_bench::grads::conv_grads;
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::{
    BackwardContext, CompressionPlan, ConvLayerStats, ForwardContext, LayerKind,
};
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::store::RawStore;
use ebtrain_dnn::zoo;

/// Every field of the statistics, as bits.
fn stats_bits(s: &ConvLayerStats) -> [u64; 7] {
    [
        s.sparsity_r.to_bits(),
        s.l_bar.to_bits(),
        s.l_rms.to_bits(),
        s.act_elems_per_sample as u64,
        s.out_positions_per_sample as u64,
        s.batch_size as u64,
        s.last_error_bound.map_or(u64::MAX, |e| e.to_bits() as u64),
    ]
}

#[test]
fn probe_reads_what_a_plain_backward_leaves() {
    let data = SynthImageNet::new(SynthConfig {
        classes: 4,
        image_hw: 32,
        noise: 0.1,
        seed: 3,
    });
    let (x, labels) = data.batch(0, 8);

    // The reference: forward, loss and backward by hand, then read.
    let mut net = zoo::tiny_vgg(4, 5);
    let mut store = RawStore::new();
    let plan = CompressionPlan::new();
    let logits = {
        let mut fctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: true,
            plan: &plan,
        };
        net.forward(x.clone(), &mut fctx).unwrap()
    };
    let (_, dlogits) = SoftmaxCrossEntropy::new().loss(&logits, &labels).unwrap();
    let mut bctx = BackwardContext {
        store: &mut store,
        collect: true,
        grad_ready: None,
    };
    net.backward(dlogits, &mut bctx).unwrap();
    let mut expect = Vec::new();
    net.visit_layers(&mut |layer| {
        if layer.kind() == LayerKind::Conv {
            let grad: Vec<u32> = layer.params()[0]
                .grad
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let stats = stats_bits(&layer.conv_stats().unwrap());
            expect.push((layer.name().to_string(), grad, stats));
        }
    });

    let got = conv_grads(&mut zoo::tiny_vgg(4, 5), &mut RawStore::new(), x, &labels).unwrap();
    let got: Vec<_> = got
        .iter()
        .map(|g| {
            let grad: Vec<u32> = g.grad.iter().map(|v| v.to_bits()).collect();
            (g.name.clone(), grad, stats_bits(&g.stats))
        })
        .collect();
    assert!(expect.len() >= 2, "tiny_vgg has {} convs", expect.len());
    assert_eq!(got, expect);
}
