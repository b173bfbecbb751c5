//! Criterion micro-benchmarks: compressor throughput on activation-like
//! data (the codec cost that sets the §5.4 overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebtrain_imgcomp::JpegActConfig;
use ebtrain_sz::{
    compress, compress_serial, decompress, decompress_serial, DataLayout, EntropyBackend, SzConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ReLU-like activation volume: smooth positives with ~50% zeros.
fn activation_volume(c: usize, hw: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..c * hw * hw)
        .map(|i| {
            let y = (i / hw) % hw;
            let x = i % hw;
            let v =
                ((x as f32) * 0.13).sin() + ((y as f32) * 0.07).cos() + rng.gen_range(-0.2..0.2);
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn bench_sz(c: &mut Criterion) {
    let data = activation_volume(16, 32, 1);
    let bytes = (data.len() * 4) as u64;
    let layout = DataLayout::D3(16, 32, 32);
    let mut group = c.benchmark_group("sz");
    group.throughput(Throughput::Bytes(bytes));
    // Paper-mode (classic quantizer + zero filter) rows.
    for eb in [1e-2f32, 1e-3, 1e-4] {
        let cfg = SzConfig::classic(eb);
        group.bench_with_input(
            BenchmarkId::new("compress", format!("eb={eb:.0e}")),
            &cfg,
            |b, cfg| b.iter(|| compress(&data, layout, cfg).unwrap()),
        );
        let buf = compress(&data, layout, &cfg).unwrap();
        group.bench_with_input(
            BenchmarkId::new("decompress", format!("eb={eb:.0e}")),
            &buf,
            |b, buf| b.iter(|| decompress(buf).unwrap()),
        );
    }
    // Dual-quantization rows (the framework default): pre-quantization
    // is elementwise and the Lorenzo residual is integer-only, while the
    // classic encoder is latency-bound on a float divide/round inside
    // its prediction recurrence.
    for eb in [1e-2f32, 1e-3] {
        let cfg = SzConfig::with_error_bound(eb);
        group.bench_with_input(
            BenchmarkId::new("compress_dualquant", format!("eb={eb:.0e}")),
            &cfg,
            |b, cfg| b.iter(|| compress(&data, layout, cfg).unwrap()),
        );
        let buf = compress(&data, layout, &cfg).unwrap();
        group.bench_with_input(
            BenchmarkId::new("decompress_dualquant", format!("eb={eb:.0e}")),
            &buf,
            |b, buf| b.iter(|| decompress(buf).unwrap()),
        );
    }
    group.finish();
}

/// Entropy-backend axis of the Z2 frame body: the cost-model Auto
/// default against each stage forced via `SzConfig::entropy_backend`.
/// At eb = 1e-2 the wide histogram routes to the shared-codebook
/// Huffman stage (throughput case); at eb = 1e-4 the skewed histogram
/// routes to the codebook-free range coder (ratio case). Auto should
/// track the better forced row at each bound.
fn bench_sz_entropy(c: &mut Criterion) {
    let data = activation_volume(16, 32, 1);
    let bytes = (data.len() * 4) as u64;
    let layout = DataLayout::D3(16, 32, 32);
    let mut group = c.benchmark_group("sz_entropy");
    group.throughput(Throughput::Bytes(bytes));
    for eb in [1e-2f32, 1e-4] {
        for (name, backend) in [
            ("auto", EntropyBackend::Auto),
            ("huffman", EntropyBackend::Huffman),
            ("range", EntropyBackend::Range),
        ] {
            let mut cfg = SzConfig::with_error_bound(eb);
            cfg.entropy_backend = backend;
            group.bench_with_input(
                BenchmarkId::new(format!("compress_{name}"), format!("eb={eb:.0e}")),
                &cfg,
                |b, cfg| b.iter(|| compress(&data, layout, cfg).unwrap()),
            );
            let buf = compress(&data, layout, &cfg).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("decompress_{name}"), format!("eb={eb:.0e}")),
                &buf,
                |b, buf| b.iter(|| decompress(buf).unwrap()),
            );
        }
    }
    group.finish();
}

/// Chunk-parallel vs single-threaded paths of the framed sz codec, on the
/// 64 KiB reference volume and on a 1 MiB volume where thread fan-out has
/// more chunks to work with. Streams are bit-identical between the two
/// paths; only the execution strategy differs.
fn bench_sz_parallel(c: &mut Criterion) {
    for (label, channels, hw) in [("64KiB", 16usize, 32usize), ("1MiB", 64, 64)] {
        let data = activation_volume(channels, hw, 5);
        let bytes = (data.len() * 4) as u64;
        let layout = DataLayout::D3(channels, hw, hw);
        let cfg = SzConfig::with_error_bound(1e-2);
        let mut group = c.benchmark_group(format!("sz_pipeline/{label}"));
        group.throughput(Throughput::Bytes(bytes));
        group.bench_function("compress_serial", |b| {
            b.iter(|| compress_serial(&data, layout, &cfg).unwrap())
        });
        group.bench_function("compress_parallel", |b| {
            b.iter(|| compress(&data, layout, &cfg).unwrap())
        });
        let buf = compress(&data, layout, &cfg).unwrap();
        group.bench_function("decompress_serial", |b| {
            b.iter(|| decompress_serial(&buf).unwrap())
        });
        group.bench_function("decompress_parallel", |b| {
            b.iter(|| decompress(&buf).unwrap())
        });
        group.finish();
    }
}

fn bench_lossless(c: &mut Criterion) {
    let data = activation_volume(16, 32, 2);
    let bytes = (data.len() * 4) as u64;
    let mut group = c.benchmark_group("lossless");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("compress", |b| {
        b.iter(|| ebtrain_sz::lossless::compress(&data))
    });
    let packed = ebtrain_sz::lossless::compress(&data);
    group.bench_function("decompress", |b| {
        b.iter(|| ebtrain_sz::lossless::decompress(&packed).unwrap())
    });
    group.finish();
}

fn bench_jpeg_act(c: &mut Criterion) {
    let data = activation_volume(16, 32, 3);
    let bytes = (data.len() * 4) as u64;
    let mut group = c.benchmark_group("jpeg_act");
    group.throughput(Throughput::Bytes(bytes));
    let cfg = JpegActConfig::default();
    group.bench_function("compress", |b| {
        b.iter(|| ebtrain_imgcomp::compress(&data, 16, 32, 32, &cfg).unwrap())
    });
    let buf = ebtrain_imgcomp::compress(&data, 16, 32, 32, &cfg).unwrap();
    group.bench_function("decompress", |b| {
        b.iter(|| ebtrain_imgcomp::decompress(&buf).unwrap())
    });
    group.finish();
}

fn bench_zfp_like(c: &mut Criterion) {
    let data = activation_volume(16, 32, 4);
    let bytes = (data.len() * 4) as u64;
    let mut group = c.benchmark_group("zfp_like");
    group.throughput(Throughput::Bytes(bytes));
    let cfg = ebtrain_sz::zfp_like::ZfpLikeConfig { bits_per_value: 8 };
    group.bench_function("compress_8bpv", |b| {
        b.iter(|| ebtrain_sz::zfp_like::compress(&data, 16 * 32, 32, &cfg).unwrap())
    });
    let packed = ebtrain_sz::zfp_like::compress(&data, 16 * 32, 32, &cfg).unwrap();
    group.bench_function("decompress_8bpv", |b| {
        b.iter(|| ebtrain_sz::zfp_like::decompress(&packed).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Noise on a shared single-core box is one-sided (interruptions only
    // add time), so a larger sample pulls the median toward the true
    // cost; 60 keeps the whole target under a minute of measurement.
    config = Criterion::default().sample_size(60);
    targets = bench_sz, bench_sz_entropy, bench_sz_parallel, bench_lossless, bench_jpeg_act, bench_zfp_like
}
criterion_main!(benches);
