//! Model zoo: the paper's four evaluation networks at full fidelity, plus
//! width/resolution-scaled variants for the CPU training-curve
//! experiments (see DESIGN.md §2 — memory/ratio experiments use the full
//! architectures; only the many-iteration accuracy experiments use the
//! tiny family).

use crate::network::{Network, NetworkBuilder};

/// ImageNet-style input shape.
const IMAGENET_INPUT: [usize; 3] = [3, 224, 224];
/// Scaled-experiment input shape (SynthImageNet).
const TINY_INPUT: [usize; 3] = [3, 32, 32];

/// AlexNet (single-tower variant; Krizhevsky et al. 2012): 5 conv + LRN +
/// 3 FC with dropout — the paper's 13.5× headline network.
pub fn alexnet(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("alexnet", &IMAGENET_INPUT, seed);
    b.conv(96, 11, 4, 2)
        .relu()
        .lrn()
        .maxpool(3, 2, 0)
        .conv(256, 5, 1, 2)
        .relu()
        .lrn()
        .maxpool(3, 2, 0)
        .conv(384, 3, 1, 1)
        .relu()
        .conv(384, 3, 1, 1)
        .relu()
        .conv(256, 3, 1, 1)
        .relu()
        .maxpool(3, 2, 0)
        .linear(4096)
        .relu()
        .dropout(0.5)
        .linear(4096)
        .relu()
        .dropout(0.5)
        .linear(classes);
    b.build()
}

/// VGG-16 (Simonyan & Zisserman 2014): 13 conv + 3 FC.
pub fn vgg16(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("vgg16", &IMAGENET_INPUT, seed);
    let stages: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (ch, reps) in stages {
        for _ in 0..reps {
            b.conv(ch, 3, 1, 1).relu();
        }
        b.maxpool(2, 2, 0);
    }
    b.linear(4096)
        .relu()
        .dropout(0.5)
        .linear(4096)
        .relu()
        .dropout(0.5)
        .linear(classes);
    b.build()
}

/// Basic residual block (ResNet-18/34 style): two 3×3 convs with BN,
/// projection shortcut on shape change.
fn basic_block(b: &mut NetworkBuilder, out_c: usize, stride: usize) {
    let in_c = b.shape()[0];
    let needs_proj = stride != 1 || in_c != out_c;
    b.residual(
        |bb| {
            bb.conv(out_c, 3, stride, 1)
                .batchnorm()
                .relu()
                .conv(out_c, 3, 1, 1)
                .batchnorm();
        },
        |bb| {
            if needs_proj {
                bb.conv(out_c, 1, stride, 0).batchnorm();
            }
        },
    );
    b.relu();
}

/// Bottleneck block (ResNet-50 style): 1×1 reduce, 3×3, 1×1 expand.
fn bottleneck_block(b: &mut NetworkBuilder, mid_c: usize, stride: usize) {
    let out_c = mid_c * 4;
    let in_c = b.shape()[0];
    let needs_proj = stride != 1 || in_c != out_c;
    b.residual(
        |bb| {
            bb.conv(mid_c, 1, 1, 0)
                .batchnorm()
                .relu()
                .conv(mid_c, 3, stride, 1)
                .batchnorm()
                .relu()
                .conv(out_c, 1, 1, 0)
                .batchnorm();
        },
        |bb| {
            if needs_proj {
                bb.conv(out_c, 1, stride, 0).batchnorm();
            }
        },
    );
    b.relu();
}

/// ResNet-18 (He et al. 2016).
pub fn resnet18(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("resnet18", &IMAGENET_INPUT, seed);
    b.conv(64, 7, 2, 3).batchnorm().relu().maxpool(3, 2, 1);
    let stages: [(usize, usize, usize); 4] = [(64, 2, 1), (128, 2, 2), (256, 2, 2), (512, 2, 2)];
    for (ch, reps, first_stride) in stages {
        basic_block(&mut b, ch, first_stride);
        for _ in 1..reps {
            basic_block(&mut b, ch, 1);
        }
    }
    b.global_avgpool().linear(classes);
    b.build()
}

/// ResNet-50 (He et al. 2016), bottleneck residuals.
pub fn resnet50(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("resnet50", &IMAGENET_INPUT, seed);
    b.conv(64, 7, 2, 3).batchnorm().relu().maxpool(3, 2, 1);
    let stages: [(usize, usize, usize); 4] = [(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)];
    for (mid, reps, first_stride) in stages {
        bottleneck_block(&mut b, mid, first_stride);
        for _ in 1..reps {
            bottleneck_block(&mut b, mid, 1);
        }
    }
    b.global_avgpool().linear(classes);
    b.build()
}

/// Scaled AlexNet for 32×32 inputs: same layer sequence (conv/LRN/pool/FC/
/// dropout pattern), reduced width — the Fig 9/10 training workhorse.
pub fn tiny_alexnet(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("tiny-alexnet", &TINY_INPUT, seed);
    b.conv(24, 3, 1, 1)
        .relu()
        .lrn()
        .maxpool(2, 2, 0)
        .conv(48, 3, 1, 1)
        .relu()
        .lrn()
        .maxpool(2, 2, 0)
        .conv(64, 3, 1, 1)
        .relu()
        .conv(64, 3, 1, 1)
        .relu()
        .conv(48, 3, 1, 1)
        .relu()
        .maxpool(2, 2, 0)
        .linear(256)
        .relu()
        .dropout(0.5)
        .linear(128)
        .relu()
        .dropout(0.5)
        .linear(classes);
    b.build()
}

/// Scaled VGG for 32×32 inputs (three conv stages).
pub fn tiny_vgg(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("tiny-vgg", &TINY_INPUT, seed);
    for (ch, reps) in [(16usize, 2usize), (32, 2), (64, 2)] {
        for _ in 0..reps {
            b.conv(ch, 3, 1, 1).relu();
        }
        b.maxpool(2, 2, 0);
    }
    b.linear(128).relu().dropout(0.5).linear(classes);
    b.build()
}

/// Scaled ResNet for 32×32 inputs (CIFAR-style stem, three stages of
/// basic blocks).
pub fn tiny_resnet(classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new("tiny-resnet", &TINY_INPUT, seed);
    b.conv(16, 3, 1, 1).batchnorm().relu();
    for (ch, first_stride) in [(16usize, 1usize), (32, 2), (64, 2)] {
        basic_block(&mut b, ch, first_stride);
        basic_block(&mut b, ch, 1);
    }
    b.global_avgpool().linear(classes);
    b.build()
}

/// Look up a full-fidelity network by its paper name.
pub fn by_name(name: &str, classes: usize, seed: u64) -> Option<Network> {
    match name {
        "alexnet" => Some(alexnet(classes, seed)),
        "vgg16" => Some(vgg16(classes, seed)),
        "resnet18" => Some(resnet18(classes, seed)),
        "resnet50" => Some(resnet50(classes, seed)),
        "tiny-alexnet" => Some(tiny_alexnet(classes, seed)),
        "tiny-vgg" => Some(tiny_vgg(classes, seed)),
        "tiny-resnet" => Some(tiny_resnet(classes, seed)),
        _ => None,
    }
}

/// The paper's four evaluation networks.
pub const PAPER_NETWORKS: [&str; 4] = ["alexnet", "vgg16", "resnet18", "resnet50"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{CompressionPlan, ForwardContext};
    use crate::store::{ActivationStore, CompressedStore, NullStore, RawStore, SlotBytes};
    use ebtrain_data::{SynthConfig, SynthImageNet};
    use ebtrain_sz::SzConfig;
    use ebtrain_tensor::Tensor;

    #[test]
    fn alexnet_parameter_count_matches_reference() {
        // Single-tower AlexNet ≈ 61M params (torchvision: 61,100,840 at
        // 1000 classes).
        let net = alexnet(1000, 1);
        let m = net.param_count();
        assert!((60_000_000..63_000_000).contains(&m), "alexnet params {m}");
        assert_eq!(net.conv_layer_ids().len(), 5);
    }

    #[test]
    fn resnet18_parameter_count_matches_reference() {
        // torchvision resnet18: 11,689,512.
        let net = resnet18(1000, 1);
        let m = net.param_count();
        assert!((11_000_000..12_500_000).contains(&m), "resnet18 params {m}");
        assert_eq!(net.conv_layer_ids().len(), 20); // 17 + 3 projections
    }

    #[test]
    fn resnet50_parameter_count_matches_reference() {
        // torchvision resnet50: 25,557,032.
        let net = resnet50(1000, 1);
        let m = net.param_count();
        assert!((24_500_000..27_000_000).contains(&m), "resnet50 params {m}");
        assert_eq!(net.conv_layer_ids().len(), 53); // 49 + 4 projections
    }

    #[test]
    fn tiny_networks_forward_on_32x32() {
        for name in ["tiny-alexnet", "tiny-vgg", "tiny-resnet"] {
            let mut net = by_name(name, 10, 3).unwrap();
            let x = Tensor::zeros(&[2, 3, 32, 32]);
            let plan = CompressionPlan::new();
            let mut store = NullStore;
            let mut ctx = ForwardContext {
                store: &mut store,
                training: false,
                collect: false,
                plan: &plan,
            };
            let y = net.forward(x, &mut ctx).unwrap();
            assert_eq!(y.shape(), &[2, 10], "{name}");
        }
    }

    #[test]
    fn tiny_vgg_batch8_raw_store_peak_is_pinned() {
        // The baseline of the benchmark's `mem_saving_x`: a slot-size
        // regression must fail here, not only there. Six conv inputs
        // (1,212,416 B) and two FC inputs (36,864 B) as f32; eight
        // ReLU/dropout masks at 1 bit (57,600 B) and three 2×2 pools'
        // offsets at 2 bits per output (14,336 B).
        let mut net = tiny_vgg(4, 1);
        let plan = CompressionPlan::new();
        let mut store = RawStore::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        net.forward(Tensor::zeros(&[8, 3, 32, 32]), &mut ctx)
            .unwrap();
        assert_eq!(store.peak_bytes(), 1_321_216);
        assert_eq!(
            store.metrics().peak,
            SlotBytes {
                encoded: 0,
                float_raw: 1_212_416 + 36_864,
                bits: 57_600 + 14_336,
            }
        );
    }

    #[test]
    fn tiny_vgg_batch8_compressed_store_peak_is_pinned() {
        // The other side of `mem_saving_x`: the same slots under the
        // framework store at its fallback bound. Every conv and FC input
        // is a codec stream; the masks and pool offsets are the raw
        // twin's bytes. Entropy tag 2 moved the encoded side from
        // 242,071 B (tag 1) to 242,087 B, tag 3 to 242,250 B (+163 B).
        let data = SynthImageNet::new(SynthConfig {
            classes: 4,
            image_hw: 32,
            noise: 0.15,
            seed: 7,
        });
        let (x, _) = data.batch(0, 8);
        let mut net = tiny_vgg(4, 1);
        let plan = CompressionPlan::new();
        let mut store = CompressedStore::new(SzConfig::with_error_bound(1e-2));
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        net.forward(x, &mut ctx).unwrap();
        assert_eq!(store.peak_bytes(), 314_186);
        assert_eq!(
            store.metrics().peak,
            SlotBytes {
                encoded: 242_250,
                float_raw: 0,
                bits: 57_600 + 14_336,
            }
        );
    }

    #[test]
    fn by_name_covers_paper_networks() {
        for name in PAPER_NETWORKS {
            assert!(by_name(name, 10, 1).is_some(), "{name}");
        }
        assert!(by_name("lenet", 10, 1).is_none());
    }

    #[test]
    fn vgg16_has_13_convs() {
        // Cheap structural check that avoids allocating the huge FC
        // weights twice: conv ids count on a single instance.
        let net = vgg16(10, 1);
        assert_eq!(net.conv_layer_ids().len(), 13);
    }
}
