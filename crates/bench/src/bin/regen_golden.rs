//! Regenerate the *current-format* fixtures of the golden-stream corpus
//! under `tests/golden/`.
//!
//! The corpus pins the wire format **by bytes on disk**: the conformance
//! test (`tests/tests/golden_streams.rs`) decodes every committed
//! `.bin` that has a `.vals` twin — bare `Z2` streams through the SZ
//! decoder, containers through `CodecRegistry::decompress_any` — and
//! asserts the reconstruction matches the committed `.vals` (f32
//! little-endian) bit-for-bit. Fixtures fall in three classes:
//!
//! - **Current-format fixtures** (`z3_*`, `tagged_*`): regenerated here
//!   so a deliberate format change can refresh them in one command.
//! - **The one superseded capture still written**, `z3t2_mixed_backends`:
//!   the mixed fixture as it was before entropy tag 3 took its skewed
//!   frames. Tag 2 is still a current layout; no current encoder routes
//!   that data to it, so this binary leaves it alone.
//! - **Reject fixtures** (`.bin` only: `z1_classic`, `z2v2_huffman_classic`,
//!   `tagged_sz_t1`): one stream per retired layout, which every decode
//!   entry point must refuse cleanly. This binary never touches them.
//!
//! A format change that supersedes a layout retires it behind a new
//! reject fixture instead of keeping it decodable.
//!
//! Run with `cargo run --release -p ebtrain-bench --bin regen_golden`.
//! With `--check` it writes nothing: it regenerates the current-format
//! fixtures in memory and exits non-zero unless every one matches the
//! committed `.bin` / `.vals` byte for byte.

use ebtrain_codec::{BoundSpec, ByteplaneCodec, Codec, LosslessCodec, SzCodec};
use ebtrain_sz::{compress, DataLayout, EntropyBackend, SzConfig};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A current-format fixture as this encoder emits it: the `.bin` stream
/// and the `.vals` bytes (little-endian f32s) it decodes to.
struct Fixture {
    name: &'static str,
    bin: Vec<u8>,
    vals: Vec<u8>,
}

fn fixture(name: &'static str, bytes: &[u8]) -> Fixture {
    // Bare `z3_*` streams are the SZ decoder's input; containers route.
    let vals = if bytes.starts_with(&[0xEB, 0xC0]) {
        ebtrain_codec::CodecRegistry::standard()
            .decompress_any(bytes)
            .map(|(vals, _)| vals)
    } else {
        ebtrain_sz::decompress_bytes(bytes)
    }
    .expect("fixture must decode");
    Fixture {
        name,
        bin: bytes.to_vec(),
        vals: vals.iter().flat_map(|v| v.to_le_bytes()).collect(),
    }
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

fn current_fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();

    // --- Z3 range-tagged frames: skewed data, Auto selection picks the
    // range backend for every chunk of this volume.
    let data = relu_volume(16 * 16);
    let mut cfg = SzConfig::with_error_bound(1e-2);
    cfg.chunk_planes = Some(4);
    let buf = compress(&data, DataLayout::D2(16, 16), &cfg).unwrap();
    out.push(fixture("z3_range_dualquant", buf.as_bytes()));

    // --- Z3 with per-chunk tags forced to Huffman: the current-format
    // twin of the retired z2v2 layout (tag byte present, value 0).
    let data = ramp(24 * 16);
    let mut cfg = SzConfig::classic(1e-3);
    cfg.entropy_backend = EntropyBackend::Huffman;
    cfg.chunk_planes = Some(8);
    let buf = compress(&data, DataLayout::D2(24, 16), &cfg).unwrap();
    out.push(fixture("z3_huffman_classic", buf.as_bytes()));

    // --- Z3 heterogeneous body: half the planes skewed (rANS), half
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
    let mut cfg = SzConfig::with_error_bound(1e-2);
    cfg.chunk_planes = Some(8);
    let buf = compress(&data, DataLayout::D2(16, 512), &cfg).unwrap();
    let tags: Vec<u8> = {
        let idx = ebtrain_sz::frame_index_of(buf.as_bytes()).unwrap();
        let bytes = buf.as_bytes();
        idx.entries().iter().map(|e| bytes[e.bytes.start]).collect()
    };
    assert!(
        tags.contains(&0) && tags.contains(&3),
        "mixed fixture must exercise both backends, got tags {tags:?}"
    );
    out.push(fixture("z3_mixed_backends", buf.as_bytes()));

    // --- Z3 rANS-tagged frames: a deep alphabet (noisy signal at a tight
    // bound), one full-size chunk, which Auto selection gives tag 3.
    let data: Vec<f32> = (0..8 * 512)
        .map(|i| {
            let noise = (i as u32).wrapping_mul(2_654_435_761) >> 20;
            (i as f32 * 0.37).sin() + (noise as f32 / 4096.0 - 0.5) * 0.05
        })
        .collect();
    let buf = compress(
        &data,
        DataLayout::D2(8, 512),
        &SzConfig::with_error_bound(1e-3),
    )
    .unwrap();
    let idx = ebtrain_sz::frame_index_of(buf.as_bytes()).unwrap();
    assert!(
        idx.entries()
            .iter()
            .all(|e| buf.as_bytes()[e.bytes.start] == 3),
        "rans fixture must be all tag 3"
    );
    out.push(fixture("z3_rans_dualquant", buf.as_bytes()));

    // --- Tagged containers (0xEBC0 + codec id + body).
    let data = ramp(128);
    let stream = ByteplaneCodec
        .compress(&data, DataLayout::D1(128), &BoundSpec::Abs(1e-3))
        .unwrap();
    out.push(fixture("tagged_byteplane", stream.as_bytes()));

    let data = relu_volume(12 * 32);
    let stream = SzCodec::dual_quant()
        .compress(&data, DataLayout::D2(12, 32), &BoundSpec::Abs(1e-2))
        .unwrap();
    out.push(fixture("tagged_sz", stream.as_bytes()));

    let data = ramp(96);
    let stream = LosslessCodec
        .compress(&data, DataLayout::D1(96), &BoundSpec::Lossless)
        .unwrap();
    out.push(fixture("tagged_lossless", stream.as_bytes()));
    out
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let dir = golden_dir();
    let mut stale = Vec::new();
    for f in current_fixtures() {
        let bin = dir.join(format!("{}.bin", f.name));
        let vals = dir.join(format!("{}.vals", f.name));
        if check {
            if std::fs::read(&bin).ok() != Some(f.bin) || std::fs::read(&vals).ok() != Some(f.vals)
            {
                stale.push(f.name);
            }
            continue;
        }
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&bin, &f.bin).expect("write .bin");
        std::fs::write(&vals, &f.vals).expect("write .vals");
        println!(
            "{}: {} stream bytes, {} values",
            f.name,
            f.bin.len(),
            f.vals.len() / 4
        );
    }
    if !check {
        println!(
            "reject fixtures (z1_classic, z2v2_huffman_classic, tagged_sz_t1) and z3t2_mixed_backends left untouched by design"
        );
    } else if stale.is_empty() {
        println!("every current-format fixture matches its generator byte for byte");
    } else {
        eprintln!("fixtures differ from what regen_golden emits: {stale:?}");
        std::process::exit(1);
    }
}
