//! Criterion micro-benchmarks: the compute kernels under the training
//! substrate (GEMM, im2col, full conv fwd/bwd, entropy stages) and the
//! SZ codec on steady-state training activations and on one of the
//! serve workload's classic-mode tensors.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebtrain_bench::capture::CapturingStore;
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::fields::{FieldConfig, SyntheticFields};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::Layer;
use ebtrain_dnn::layer::{BackwardContext, CompressionPlan, ForwardContext};
use ebtrain_dnn::layers::Conv2d;
use ebtrain_dnn::network::{Network, NetworkBuilder};
use ebtrain_dnn::optimizer::SgdConfig;
use ebtrain_dnn::store::RawStore;
use ebtrain_encoding::{huffman, lz, range, rans};
use ebtrain_sz::{self as sz, CompressedBuffer, DataLayout, SzConfig};
use ebtrain_tensor::{gemm, gemm_nn, im2col, Conv2dGeometry, GemmLayout, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut fill =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let mut group = c.benchmark_group("gemm");
    for n in [64usize, 128, 256] {
        let a = fill(n * n);
        let b = fill(n * n);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                gemm_nn(n, n, n, &a, &b, &mut out);
                out
            })
        });
    }
    // tiny_vgg's weight-gradient shapes `m×n×k` (out channels × in
    // channels·9 × output positions). `nt` is the weight gradient itself
    // (`dY·col(X)ᵀ`); `tn` is the same product with A stored transposed.
    for (m, n, k) in [
        (16usize, 144usize, 1024usize),
        (32, 288, 256),
        (64, 576, 64),
    ] {
        // Both layouts read `k·m` and `k·n` operands; only the order differs.
        let (a, b) = (fill(m * k), fill(n * k));
        group.throughput(Throughput::Elements((m * n * k) as u64));
        let shape = format!("{m}x{n}x{k}");
        for (name, layout) in [("nt", GemmLayout::NT), ("tn", GemmLayout::TN)] {
            group.bench_with_input(BenchmarkId::new(name, &shape), &shape, |bench, _| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    gemm(layout, m, k, n, &a, &b, &mut out);
                    out
                })
            });
        }
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let geo = Conv2dGeometry {
        in_c: 16,
        in_h: 32,
        in_w: 32,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let input = vec![1.0f32; geo.in_c * geo.in_h * geo.in_w];
    let mut out = vec![0.0f32; geo.col_rows() * geo.col_cols()];
    c.bench_function("im2col/16x32x32_k3", |b| {
        b.iter(|| im2col(&geo, &input, &mut out))
    });
}

fn bench_conv_layer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn(&[4, 16, 16, 16], 1.0, &mut rng);
    let mut group = c.benchmark_group("conv2d");
    group.bench_function("forward_b4_16c_16px_k3", |b| {
        let mut conv = Conv2d::new(0, "c", 16, 32, 3, 1, 1, 3);
        let plan = CompressionPlan::new();
        b.iter(|| {
            let mut store = RawStore::new();
            let mut ctx = ForwardContext {
                store: &mut store,
                training: false,
                collect: false,
                plan: &plan,
            };
            conv.forward(x.clone(), &mut ctx).unwrap()
        })
    });
    group.bench_function("fwd_bwd_b4_16c_16px_k3", |b| {
        let mut conv = Conv2d::new(0, "c", 16, 32, 3, 1, 1, 3);
        let plan = CompressionPlan::new();
        b.iter(|| {
            let mut store = RawStore::new();
            let y = {
                let mut ctx = ForwardContext {
                    store: &mut store,
                    training: true,
                    collect: false,
                    plan: &plan,
                };
                conv.forward(x.clone(), &mut ctx).unwrap()
            };
            let dy = Tensor::full(y.shape(), 0.1);
            let mut bctx = BackwardContext {
                store: &mut store,
                collect: false,
                grad_ready: None,
            };
            conv.backward(dy, &mut bctx).unwrap()
        })
    });
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // SZ-shaped code stream: dominant hit symbol + spread.
    let symbols: Vec<u32> = (0..100_000)
        .map(|_| {
            if rng.gen_bool(0.85) {
                32_768
            } else {
                32_768 + rng.gen_range(-200i32..200) as u32
            }
        })
        .collect();
    let mut group = c.benchmark_group("entropy");
    group.throughput(Throughput::Elements(symbols.len() as u64));
    group.bench_function("huffman_encode", |b| b.iter(|| huffman::encode(&symbols)));
    let enc = huffman::encode(&symbols);
    group.bench_function("huffman_decode", |b| {
        b.iter(|| huffman::decode(&enc).unwrap())
    });
    // The serve tensors' Huffman frames are rougher: ≈ 1.5 symbols per
    // table lookup, not the ≈ 3 of the stream above. A 55 % centre and a
    // Laplacian rest (mean distance 4) decode at that shape.
    let laplace: Vec<u32> = (0..100_000)
        .map(|_| {
            if rng.gen_bool(0.55) {
                return 32_768;
            }
            let d = 1 + (-rng.gen::<f64>().ln() * 4.0) as u32;
            if rng.gen_bool(0.5) {
                32_768 + d
            } else {
                32_768 - d
            }
        })
        .collect();
    let enc_laplace = huffman::encode(&laplace);
    group.bench_function("huffman_decode_laplace", |b| {
        b.iter(|| huffman::decode(&enc_laplace).unwrap())
    });
    group.throughput(Throughput::Bytes(enc.len() as u64));
    group.bench_function("lz_compress", |b| b.iter(|| lz::compress(&enc)));
    let packed = lz::compress(&enc);
    group.bench_function("lz_decompress", |b| {
        b.iter(|| lz::decompress(&packed).unwrap())
    });

    // The range family on one fixed deep symbol set: the quantization
    // codes of the gradient corpus at eb = 1e-3, in the ring's
    // 4096-symbol frames.
    let frames: Vec<Vec<u32>> = gradient_segments()
        .iter()
        .map(|seg| deep_codes(seg, 1e-3))
        .collect();
    let symbols: usize = frames.iter().map(Vec::len).sum();
    group.throughput(Throughput::Elements(symbols as u64));
    const CENTER: u32 = 32_768;
    type Encode = fn(&[u32], u32) -> Vec<u8>;
    type Decode = fn(&[u8], usize, u32) -> ebtrain_encoding::Result<Vec<u32>>;
    let coders: [(&str, Encode, Decode); 2] = [
        ("range", range::encode_block, range::decode_block),
        ("rans", rans::encode_block, rans::decode_block),
    ];
    for (name, encode, decode) in coders {
        group.bench_function(format!("{name}_encode"), |b| {
            b.iter(|| {
                for f in &frames {
                    black_box(encode(f, CENTER));
                }
            })
        });
        let coded: Vec<Vec<u8>> = frames.iter().map(|f| encode(f, CENTER)).collect();
        group.bench_function(format!("{name}_decode"), |b| {
            b.iter(|| {
                for (f, c) in frames.iter().zip(&coded) {
                    black_box(decode(c, f.len(), CENTER).expect("decode"));
                }
            })
        });
    }
    group.finish();
}

/// Gradient-like segments in the ring's 4096-element frames: seeded
/// Gaussian noise at per-segment scales from 1e-3 to 3e-2, every eighth
/// segment with a heavy-tailed spike in it.
fn gradient_segments() -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(29);
    (0..24)
        .map(|s| {
            let scale = [1e-3, 3e-3, 1e-2, 3e-2][s % 4];
            (0..4096)
                .map(|i| {
                    let (u, v): (f64, f64) = (rng.gen(), rng.gen());
                    let g = (-2.0 * (1.0 - u).ln()).sqrt() * (std::f64::consts::TAU * v).cos();
                    let spike = if s % 8 == 0 && i == 2048 { 40.0 } else { 1.0 };
                    (g * scale * spike) as f32
                })
                .collect()
        })
        .collect()
}

/// The dual quantizer's codes for `seg` at bound `eb` (1-D Lorenzo on
/// the integer grid, radius 32768), as the codec hands them to the
/// entropy stage.
fn deep_codes(seg: &[f32], eb: f64) -> Vec<u32> {
    let mut prev = 0i64;
    seg.iter()
        .map(|&x| {
            let q = (x as f64 / (2.0 * eb)).round() as i64;
            let code = (32_768 + q - prev).clamp(0, u32::MAX as i64) as u32;
            prev = q;
            code
        })
        .collect()
}

/// The `train_conv1x1` benchmark workload's network: one 3×3 stem and
/// six 1×1 convolutions, so the codec dominates its step.
fn conv1x1_net() -> Network {
    let mut b = NetworkBuilder::new("conv1x1-heavy", &[3, 32, 32], 7);
    b.conv(16, 3, 1, 1).relu();
    for _ in 0..6 {
        b.conv(16, 1, 1, 0).relu();
    }
    b.maxpool(2, 2, 0).linear(10);
    b.build()
}

/// What the compressed store encodes in one steady-state step of the
/// conv1x1 net: train it 30 steps under the adaptive controller, then
/// capture every compressible activation of one more forward pass with
/// the bound the plan gives its layer.
fn steady_state_corpus() -> Vec<(Vec<f32>, DataLayout, SzConfig)> {
    const BATCH: usize = 8;
    let data = SynthImageNet::new(SynthConfig {
        classes: 10,
        image_hw: 32,
        noise: 0.2,
        seed: 31,
    });
    let framework = FrameworkConfig {
        w_interval: 25,
        ..FrameworkConfig::default()
    };
    let mut trainer = AdaptiveTrainer::new(conv1x1_net(), SgdConfig::default(), framework);
    for step in 0..30 {
        let (x, labels) = data.batch(step * BATCH as u64, BATCH);
        trainer.step(x, &labels).expect("training step");
    }
    let bounds: HashMap<usize, f32> = trainer
        .plan_entries()
        .iter()
        .map(|e| (e.layer, e.error_bound))
        .collect();
    let mut store = CapturingStore::new(RawStore::new());
    let (x, _) = data.batch(30 * BATCH as u64, BATCH);
    let mut ctx = ForwardContext {
        store: &mut store,
        training: true,
        collect: false,
        plan: &CompressionPlan::new(),
    };
    trainer
        .network_mut()
        .forward(x, &mut ctx)
        .expect("capture pass");
    store
        .take()
        .into_iter()
        .map(|(layer, t)| {
            let eb = bounds[&layer];
            let layout = DataLayout::for_shape(t.shape());
            (t.data().to_vec(), layout, SzConfig::with_error_bound(eb))
        })
        .collect()
}

/// The SZ codec on [`steady_state_corpus`], serial and parallel: the
/// bounds the benchmark's replay corpus (captured at the iteration-0
/// fallback bound) does not reach.
fn bench_sz_kernels(c: &mut Criterion) {
    let corpus = steady_state_corpus();
    let elems: usize = corpus.iter().map(|(d, _, _)| d.len()).sum();
    let bounds: Vec<f32> = corpus.iter().map(|(_, _, cfg)| cfg.error_bound).collect();
    println!(
        "sz_kernels corpus: {} tensors, {elems} elements, bounds {bounds:?}",
        corpus.len()
    );
    let streams: Vec<CompressedBuffer> = corpus
        .iter()
        .map(|(d, layout, cfg)| sz::compress(d, *layout, cfg).expect("compress"))
        .collect();
    let mut group = c.benchmark_group("sz_kernels");
    group.throughput(Throughput::Bytes((elems * 4) as u64));
    type Compress = fn(&[f32], DataLayout, &SzConfig) -> sz::Result<CompressedBuffer>;
    type Decompress = fn(&CompressedBuffer) -> sz::Result<Vec<f32>>;
    let arms: [(&str, Compress, Decompress); 2] = [
        ("serial", sz::compress_serial, sz::decompress_serial),
        ("parallel", sz::compress, sz::decompress),
    ];
    for (name, compress, decompress) in arms {
        group.bench_function(format!("compress_{name}"), |b| {
            b.iter(|| {
                for (d, layout, cfg) in &corpus {
                    black_box(compress(d, *layout, cfg).expect("compress"));
                }
            })
        });
        group.bench_function(format!("decompress_{name}"), |b| {
            b.iter(|| {
                for s in &streams {
                    black_box(decompress(s).expect("decompress"));
                }
            })
        });
    }

    // The serve workload's first tensor: a ReLU'd 512² field stored as
    // D2(256, 1024) under the paper's classic mode (zero filter on). Its
    // rough field codes 63 of its 64 frames as rANS (entropy tag 3), so
    // the row mostly times rANS decode; reconstruction, the zero filter
    // and Huffman decode are a small share. The input stays sample 0 so
    // past numbers remain comparable.
    let fields = SyntheticFields::new(FieldConfig {
        size: 512,
        modes: 12,
        ..FieldConfig::default()
    });
    let field: Vec<f32> = fields.sample(0).0.into_iter().map(|v| v.max(0.0)).collect();
    let classic = sz::compress(&field, DataLayout::D2(256, 1024), &SzConfig::classic(1e-3))
        .expect("compress");
    group.throughput(Throughput::Bytes((field.len() * 4) as u64));
    for (name, _, decompress) in arms {
        group.bench_function(format!("decompress_classic_{name}"), |b| {
            b.iter(|| black_box(decompress(&classic).expect("decompress")))
        });
    }

    // The deep-alphabet corpus: gradient segments at the bounds the ring
    // codes them at, where the range family takes the frames.
    for eb in [1e-2f32, 1e-3, 1e-4] {
        let segs: Vec<(Vec<f32>, CompressedBuffer)> = gradient_segments()
            .into_iter()
            .map(|seg| {
                let cfg = SzConfig::with_error_bound(eb);
                let s =
                    sz::compress_serial(&seg, DataLayout::D1(seg.len()), &cfg).expect("compress");
                (seg, s)
            })
            .collect();
        let bytes: usize = segs.iter().map(|(seg, _)| seg.len() * 4).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        let cfg = SzConfig::with_error_bound(eb);
        group.bench_function(format!("deep_compress_eb{eb:e}"), |b| {
            b.iter(|| {
                for (seg, _) in &segs {
                    black_box(
                        sz::compress_serial(seg, DataLayout::D1(seg.len()), &cfg)
                            .expect("compress"),
                    );
                }
            })
        });
        group.bench_function(format!("deep_decompress_eb{eb:e}"), |b| {
            b.iter(|| {
                for (_, s) in &segs {
                    black_box(sz::decompress_serial(s).expect("decompress"));
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_gemm, bench_im2col, bench_conv_layer, bench_entropy, bench_sz_kernels
}
criterion_main!(benches);
