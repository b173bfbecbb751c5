//! Golden-stream corpus: committed wire bytes must keep decoding to the
//! committed values, bit for bit, forever.
//!
//! Every fixture under `tests/golden/` is a `(<name>.bin, <name>.vals)`
//! pair: the exact compressed stream as some encoder emitted it, and the
//! f32 little-endian reconstruction it decoded to at capture time. The
//! `z1_*` / `z2v2_*` pairs were captured from *historical* encoders
//! (format 1 / format 2), the `*t1*` pairs from the last encoder that
//! wrote range frames as entropy tag 1, and `z3t2_*` from the last one
//! that routed every range-family frame to tag 2; no current code can
//! re-emit them — they pin back-compat. The rest are current-format and
//! regenerated by `cargo run --release -p ebtrain-bench --bin
//! regen_golden` after a deliberate format change (which must first
//! freeze the superseded format as a new fixture); `regen_golden
//! --check` proves they still match their generator.

use ebtrain_codec::CodecRegistry;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn read_fixture(name: &str) -> (Vec<u8>, Vec<f32>) {
    let dir = golden_dir();
    let bin = std::fs::read(dir.join(format!("{name}.bin")))
        .unwrap_or_else(|e| panic!("missing fixture {name}.bin: {e}"));
    let raw = std::fs::read(dir.join(format!("{name}.vals")))
        .unwrap_or_else(|e| panic!("missing fixture {name}.vals: {e}"));
    assert_eq!(raw.len() % 4, 0, "{name}.vals is not whole f32s");
    let vals = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (bin, vals)
}

/// Decode `name` through the registry (exercising stream sniffing, as a
/// checkpoint reader would) and compare bit patterns — NaN-safe and
/// stricter than `==` on f32.
fn assert_decodes_exactly(name: &str) {
    let (bin, want) = read_fixture(name);
    let (got, codec) = CodecRegistry::standard()
        .decompress_any(&bin)
        .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
    assert_eq!(
        got.len(),
        want.len(),
        "fixture {name} (codec {codec}) decoded to the wrong length"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "fixture {name} (codec {codec}) diverges at value {i}: {g} != {w}"
        );
    }
}

/// Entropy-stage tags of every frame in a format-3 SZ stream.
fn frame_tags(bin: &[u8]) -> Vec<u8> {
    let index = ebtrain_sz::frame_index_of(bin).expect("fixture must have a frame index");
    index.entries().iter().map(|e| bin[e.bytes.start]).collect()
}

#[test]
fn frozen_format1_stream_decodes_byte_exactly() {
    assert_decodes_exactly("z1_classic");
}

#[test]
fn frozen_format2_streams_decode_byte_exactly() {
    assert_decodes_exactly("z2v2_huffman_classic");
    assert_decodes_exactly("z2v2_huffman_dualquant");
}

#[test]
fn frozen_tag1_range_streams_decode_byte_exactly() {
    assert_decodes_exactly("z3t1_range_dualquant");
    assert_decodes_exactly("z3t1_mixed_backends");
    assert_decodes_exactly("tagged_sz_t1");
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
    assert_decodes_exactly("b1_byteplane");
    assert_decodes_exactly("tagged_sz");
    assert_decodes_exactly("tagged_lossless");
}

#[test]
fn format3_fixtures_carry_the_expected_entropy_tags() {
    let tag_set = |name: &str| {
        let (bin, _) = read_fixture(name);
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
        ("z3t1_range_dualquant", &[1]),
        ("z3t1_mixed_backends", &[0, 1]),
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
        "z2v2_huffman_classic",
        "z2v2_huffman_dualquant",
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
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

/// The corpus is complete: every `.bin` has a `.vals` twin and vice
/// versa, and nothing in the directory escapes the suite above.
#[test]
fn corpus_is_paired_and_fully_covered() {
    let known = [
        "z1_classic",
        "z2v2_huffman_classic",
        "z2v2_huffman_dualquant",
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
        "z3t1_range_dualquant",
        "z3t1_mixed_backends",
        "z3t2_mixed_backends",
        "b1_byteplane",
        "tagged_sz",
        "tagged_sz_t1",
        "tagged_lossless",
    ];
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "bin").unwrap_or(false) {
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            assert!(
                known.contains(&stem.as_str()),
                "unlisted fixture {stem}: add it to golden_streams.rs"
            );
            seen.push(stem);
        }
    }
    for name in known {
        assert!(seen.iter().any(|s| s == name), "fixture {name} is missing");
    }
}

/// Every single-byte truncation of every golden Z2 stream, through the
/// plane-range decoder (whole range and an interior one): a typed error,
/// never a panic, a hang, or a silently short result. The length walk
/// runs before any frame is decoded, so a cut anywhere — header,
/// codebook, a length prefix, a frame body — is caught on the caller.
#[test]
fn every_truncation_of_a_golden_z2_stream_fails_plane_decode_cleanly() {
    for name in [
        "z2v2_huffman_classic",
        "z2v2_huffman_dualquant",
        "z3_range_dualquant",
        "z3_huffman_classic",
        "z3_mixed_backends",
        "z3_rans_dualquant",
        "z3t1_range_dualquant",
        "z3t1_mixed_backends",
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
