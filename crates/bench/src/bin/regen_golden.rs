//! Regenerate the *current-format* fixtures of the golden-stream corpus
//! under `tests/golden/`.
//!
//! The corpus pins wire-format back-compat **by bytes on disk**: the
//! conformance test (`tests/tests/golden_streams.rs`) decodes every
//! committed `.bin` through `CodecRegistry::decompress_any` and asserts
//! the reconstruction matches the committed `.vals` (f32 little-endian)
//! bit-for-bit. Fixtures fall in two classes:
//!
//! - **Frozen captures** (`z1_*`, `z2v2_*`): emitted once by a historical
//!   encoder (format 1 / format 2). This binary never rewrites them — a
//!   current encoder cannot re-produce those bytes, which is the point.
//! - **Current-format fixtures** (everything else): regenerated here so
//!   a deliberate format bump can refresh them in one command. A bump
//!   must *add* a frozen copy of the superseded format first.
//!
//! Run with `cargo run --release -p ebtrain-bench --bin regen_golden`.

use ebtrain_codec::{BoundSpec, ByteplaneCodec, Codec, LosslessCodec, SzCodec};
use ebtrain_sz::{compress, DataLayout, EntropyBackend, SzConfig};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn write_fixture(name: &str, bytes: &[u8], vals: &[f32]) {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    std::fs::write(dir.join(format!("{name}.bin")), bytes).expect("write .bin");
    let mut raw = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(dir.join(format!("{name}.vals")), raw).expect("write .vals");
    println!(
        "{name}: {} stream bytes, {} values",
        bytes.len(),
        vals.len()
    );
}

/// Deterministic smooth ramp (no RNG: fixtures must not depend on the
/// vendored rand stream).
fn ramp(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.17).sin() + 0.5 * (i as f32 * 0.031).cos())
        .collect()
}

/// ReLU-like plane data: smooth positives with zero runs — the skewed
/// histogram that drives per-chunk selection to the range backend.
fn relu_volume(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as f32 * 0.13).sin() + (i as f32 * 0.007).cos() - 0.3;
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn registry_decode(bytes: &[u8]) -> Vec<f32> {
    let (vals, _) = ebtrain_codec::CodecRegistry::standard()
        .decompress_any(bytes)
        .expect("fixture must decode");
    vals
}

fn main() {
    // --- Z3 range-tagged frames: skewed data, Auto selection picks the
    // range backend for every chunk of this volume.
    let data = relu_volume(16 * 16);
    let mut cfg = SzConfig::dual_quant(1e-2);
    cfg.chunk_planes = Some(4);
    let buf = compress(&data, DataLayout::D2(16, 16), &cfg).unwrap();
    write_fixture(
        "z3_range_dualquant",
        buf.as_bytes(),
        &registry_decode(buf.as_bytes()),
    );

    // --- Z3 with per-chunk tags forced to Huffman: the current-format
    // twin of the frozen z2v2 fixtures (tag byte present, value 0).
    let data = ramp(24 * 16);
    let mut cfg = SzConfig::classic(1e-3);
    cfg.entropy_backend = EntropyBackend::Huffman;
    cfg.chunk_planes = Some(8);
    let buf = compress(&data, DataLayout::D2(24, 16), &cfg).unwrap();
    write_fixture(
        "z3_huffman_classic",
        buf.as_bytes(),
        &registry_decode(buf.as_bytes()),
    );

    // --- Z3 heterogeneous body: half the planes skewed (range), half
    // noisy-smooth (huffman) — one stream, both tags. The noise is a
    // Weyl-style hash, not the rand crate: fixtures must stay bytewise
    // stable across RNG changes. It spreads residuals into the
    // mid-entropy/small-alphabet regime where the selection cost model
    // keeps Huffman.
    // Chunks must be big enough (4096 elems) that the noisy half's
    // codebook amortizes — per the selection cost model, small chunks
    // always prefer the codebook-free backend.
    let mut data: Vec<f32> = (0..8 * 512)
        .map(|i| {
            if i % 17 == 0 {
                1.0 + (i as f32 * 0.05).sin()
            } else {
                0.0
            }
        })
        .collect();
    data.extend((0..8 * 512).map(|i| {
        let x = i as f32;
        let noise = (i as u32).wrapping_mul(2_654_435_761) >> 20;
        (x * 0.91).sin() * 0.7 + (noise as f32 / 4096.0 - 0.5) * 0.2
    }));
    let mut cfg = SzConfig::dual_quant(1e-2);
    cfg.chunk_planes = Some(8);
    let buf = compress(&data, DataLayout::D2(16, 512), &cfg).unwrap();
    let tags: Vec<u8> = {
        let idx = ebtrain_sz::frame_index_of(buf.as_bytes()).unwrap();
        let bytes = buf.as_bytes();
        idx.entries().iter().map(|e| bytes[e.bytes.start]).collect()
    };
    assert!(
        tags.contains(&0) && tags.contains(&1),
        "mixed fixture must exercise both backends, got tags {tags:?}"
    );
    write_fixture(
        "z3_mixed_backends",
        buf.as_bytes(),
        &registry_decode(buf.as_bytes()),
    );

    // --- B1 byteplane (untagged legacy magic, format unchanged by the
    // entropy-stage work but pinned the same way).
    let data = ramp(128);
    let stream = ByteplaneCodec
        .compress(&data, DataLayout::D1(128), &BoundSpec::Abs(1e-3))
        .unwrap();
    write_fixture(
        "b1_byteplane",
        stream.body(),
        &registry_decode(stream.body()),
    );

    // --- Tagged containers (0xEBC0 + codec id + body).
    let data = relu_volume(12 * 32);
    let stream = SzCodec::dual_quant()
        .compress(&data, DataLayout::D2(12, 32), &BoundSpec::Abs(1e-2))
        .unwrap();
    write_fixture(
        "tagged_sz",
        stream.as_bytes(),
        &registry_decode(stream.as_bytes()),
    );

    let data = ramp(96);
    let stream = LosslessCodec
        .compress(&data, DataLayout::D1(96), &BoundSpec::Lossless)
        .unwrap();
    write_fixture(
        "tagged_lossless",
        stream.as_bytes(),
        &registry_decode(stream.as_bytes()),
    );

    println!("frozen captures (z1_*, z2v2_*) left untouched by design");
}
