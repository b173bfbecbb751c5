//! Golden-stream corpus: committed wire bytes must keep decoding to the
//! committed values, bit for bit — and retired layouts must keep being
//! refused.
//!
//! A current-format fixture is a `(<name>.bin, <name>.vals)` pair: the
//! exact compressed stream as some encoder emitted it, and the f32
//! little-endian reconstruction it decoded to at capture time. Bare
//! `z3_*` streams are `Z2` version 3 bodies; `tagged_*` are `0xEBC0`
//! containers. All but `z3t2_mixed_backends` (the mixed stream before
//! entropy tag 3 took its skewed frames) are regenerated by `cargo run
//! --release -p ebtrain-bench --bin regen_golden` after a deliberate
//! format change; `regen_golden --check` proves they still match their
//! generator.
//!
//! A reject fixture is a `.bin` alone: one stream per retired layout
//! (format 1, format 2, entropy tag 1), which every decode entry point
//! must refuse with an error, never a panic.

use ebtrain_codec::CodecRegistry;
use std::path::{Path, PathBuf};

/// One stream per retired layout, kept to be refused.
const REJECT_FIXTURES: [&str; 3] = ["z1_classic", "z2v2_huffman_classic", "tagged_sz_t1"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn read_bin(name: &str) -> Vec<u8> {
    std::fs::read(golden_dir().join(format!("{name}.bin")))
        .unwrap_or_else(|e| panic!("missing fixture {name}.bin: {e}"))
}

fn read_fixture(name: &str) -> (Vec<u8>, Vec<f32>) {
    let raw = std::fs::read(golden_dir().join(format!("{name}.vals")))
        .unwrap_or_else(|e| panic!("missing fixture {name}.vals: {e}"));
    assert_eq!(raw.len() % 4, 0, "{name}.vals is not whole f32s");
    let vals = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (read_bin(name), vals)
}

/// Decode `name` — a container through the registry, as a checkpoint
/// reader would; a bare `Z2` stream through the SZ decoder — and compare
/// bit patterns, NaN-safe and stricter than `==` on f32.
fn assert_decodes_exactly(name: &str) {
    let (bin, want) = read_fixture(name);
    let got = if bin.starts_with(&[0xEB, 0xC0]) {
        CodecRegistry::standard()
            .decompress_any(&bin)
            .map(|(values, _)| values)
    } else {
        ebtrain_sz::decompress_bytes(&bin)
    }
    .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
    assert_eq!(
        got.len(),
        want.len(),
        "fixture {name} decoded to the wrong length"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "fixture {name} diverges at value {i}: {g} != {w}"
        );
    }
}

/// Entropy-stage tags of every frame in a format-3 SZ stream.
fn frame_tags(bin: &[u8]) -> Vec<u8> {
    let index = ebtrain_sz::frame_index_of(bin).expect("fixture must have a frame index");
    index.entries().iter().map(|e| bin[e.bytes.start]).collect()
}

/// Every decode entry point refuses the reject fixture `name` with an
/// error, never a panic.
fn assert_rejected_by_every_entry_point(name: &str) {
    let bin = read_bin(name);
    assert!(
        CodecRegistry::standard().decompress_any(&bin).is_err(),
        "{name}: decompress_any"
    );
    assert!(
        ebtrain_sz::frame_index_of(&bin).is_err(),
        "{name}: frame_index_of"
    );
    assert!(
        ebtrain_sz::decompress_planes_bytes(&bin, 0..1).is_err(),
        "{name}: decompress_planes_bytes"
    );
    assert!(
        ebtrain_sz::declared_len(&bin).is_err(),
        "{name}: declared_len"
    );
    // A container's body reaches the SZ decoder, which refuses the
    // retired entropy tag in its frames.
    if let Some(body) = bin.strip_prefix(&[0xEB, 0xC0, 0x01]) {
        assert!(ebtrain_sz::decompress_bytes(body).is_err(), "{name}: body");
    }
}

#[test]
fn retired_format1_stream_is_rejected_by_every_entry_point() {
    assert_rejected_by_every_entry_point("z1_classic");
}

#[test]
fn retired_format2_stream_is_rejected_by_every_entry_point() {
    assert_rejected_by_every_entry_point("z2v2_huffman_classic");
}

#[test]
fn retired_tag1_stream_is_rejected_by_every_entry_point() {
    assert_rejected_by_every_entry_point("tagged_sz_t1");
}

#[test]
fn frozen_pre_rans_stream_decodes_byte_exactly() {
    assert_decodes_exactly("z3t2_mixed_backends");
}

#[test]
fn format3_streams_decode_byte_exactly() {
    assert_decodes_exactly("z3_range_dualquant");
    assert_decodes_exactly("z3_huffman_classic");
    assert_decodes_exactly("z3_mixed_backends");
    assert_decodes_exactly("z3_rans_dualquant");
}

#[test]
fn container_fixtures_decode_byte_exactly() {
    assert_decodes_exactly("tagged_byteplane");
    assert_decodes_exactly("tagged_sz");
    assert_decodes_exactly("tagged_lossless");
}

#[test]
fn format3_fixtures_carry_the_expected_entropy_tags() {
    let tag_set = |name: &str| {
        let bin = read_bin(name);
        // A tagged container wraps the Z2 stream in a 3-byte header.
        let body = if bin.starts_with(&[0xEB, 0xC0]) {
            &bin[3..]
        } else {
            &bin[..]
        };
        let mut tags = frame_tags(body);
        tags.sort_unstable();
        tags.dedup();
        tags
    };
    for (name, want) in [
        ("z3_range_dualquant", &[2][..]),
        ("z3_huffman_classic", &[0]),
        ("z3_mixed_backends", &[0, 3]),
        ("z3_rans_dualquant", &[3]),
        ("z3t2_mixed_backends", &[0, 2]),
        ("tagged_sz", &[2]),
        ("tagged_sz_t1", &[1]),
    ] {
        assert_eq!(tag_set(name), want, "{name}: entropy tags");
    }
}

/// The committed reconstructions double as an input corpus for the
/// encoder's routing: whichever entropy stage a chunk takes, the stream
/// decodes to the same values, serial and parallel encodes agree byte
/// for byte, and Auto is never materially larger than Huffman-only.
#[test]
fn routing_is_value_neutral_and_deterministic_on_the_corpus() {
    use ebtrain_sz::{compress, compress_serial, decompress, DataLayout, EntropyBackend, SzConfig};
    for name in [
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
        "z3t2_mixed_backends",
        "tagged_sz",
    ] {
        let (_, vals) = read_fixture(name);
        let layout = DataLayout::D1(vals.len());
        let encode = |backend: EntropyBackend| {
            let mut cfg = SzConfig::with_error_bound(1e-2);
            cfg.entropy_backend = backend;
            cfg.chunk_planes = Some(1);
            let par = compress(&vals, layout, &cfg).unwrap();
            let ser = compress_serial(&vals, layout, &cfg).unwrap();
            assert_eq!(par.as_bytes(), ser.as_bytes(), "{name}: serial != parallel");
            let bits: Vec<u32> = decompress(&par)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (par.compressed_byte_len(), bits)
        };
        let (auto_len, auto) = encode(EntropyBackend::Auto);
        let (huffman_len, huffman) = encode(EntropyBackend::Huffman);
        let (_, range) = encode(EntropyBackend::Range);
        let (_, rans) = encode(EntropyBackend::Rans);
        assert_eq!(auto, huffman, "{name}: huffman changed decoded values");
        assert_eq!(auto, range, "{name}: range changed decoded values");
        assert_eq!(auto, rans, "{name}: rans changed decoded values");
        assert!(
            auto_len * 100 <= huffman_len * 103,
            "{name}: auto {auto_len} B vs huffman-only {huffman_len} B"
        );
    }
}

/// The corpus is complete: every current-format `.bin` has a `.vals`
/// twin and every reject fixture has none, and nothing in the directory
/// escapes the suite above.
#[test]
fn corpus_is_paired_and_fully_covered() {
    let current = [
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
        "z3t2_mixed_backends",
        "tagged_byteplane",
        "tagged_sz",
        "tagged_lossless",
    ];
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        match path.extension().and_then(|e| e.to_str()) {
            Some("bin") => seen.push(stem),
            Some("vals") => assert!(
                current.contains(&stem.as_str()),
                "{stem}.vals belongs to no current-format fixture"
            ),
            _ => {}
        }
    }
    for stem in &seen {
        assert!(
            current.contains(&stem.as_str()) || REJECT_FIXTURES.contains(&stem.as_str()),
            "unlisted fixture {stem}: add it to golden_streams.rs"
        );
    }
    for name in current.iter().chain(&REJECT_FIXTURES) {
        assert!(seen.iter().any(|s| s == name), "fixture {name} is missing");
    }
    for name in current {
        read_fixture(name);
    }
}

/// Every single-byte truncation of every bare golden Z2 stream, through the
/// plane-range decoder (whole range and an interior one): a typed error,
/// never a panic, a hang, or a silently short result. The length walk
/// runs before any frame is decoded, so a cut anywhere — header,
/// codebook, a length prefix, a frame body — is caught on the caller.
#[test]
fn every_truncation_of_a_golden_z2_stream_fails_plane_decode_cleanly() {
    for name in [
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
        "z3t2_mixed_backends",
    ] {
        let (bin, want) = read_fixture(name);
        let index = ebtrain_sz::frame_index_of(&bin).expect("golden stream has an index");
        let planes = index.n_planes();
        let (all, stats) = ebtrain_sz::decompress_planes_bytes(&bin, 0..planes).unwrap();
        assert_eq!(stats.frames_decoded, index.entries().len(), "{name}");
        assert!(
            all.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: whole-range plane decode differs from the fixture"
        );
        for cut in 0..bin.len() {
            for range in [0..planes, planes / 3..planes / 2 + 1] {
                assert!(
                    ebtrain_sz::decompress_planes_bytes(&bin[..cut], range.clone()).is_err(),
                    "{name}: {cut}-byte prefix decoded planes {range:?}"
                );
            }
        }
    }
}
