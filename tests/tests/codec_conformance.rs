//! Generic conformance suite, run over **every** registered codec via
//! the registry — the contract that makes backend-agnostic consumers
//! safe to route anywhere:
//!
//! * roundtrip honours the codec's declared [`ErrorContract`] for every
//!   [`BoundSpec`] it supports, on dense, large-scale and sparse
//!   corpora (raw `f32` bit patterns too for the exact codecs), and the
//!   dual-quant default keeps zeros exact;
//! * truncated streams are rejected with errors, never panics;
//! * corrupted streams — every single-bit flip among them — never panic
//!   (garbage or error are both acceptable — integrity is the
//!   container's job, memory safety the codec's);
//! * [`Codec::compress_recon`] is `compress` + `decompress`, byte for
//!   byte and bit for bit, on every codec — the contract the compressed
//!   ring's bit-identical replicas rest on;
//! * a plane-range decode of a chunked SZ stream is bit-equal to the
//!   same window of the full decode and reads exactly the covering
//!   frames, whatever thread decodes which frame;
//! * only the tagged container parses: bare backend bodies are refused
//!   by [`TaggedStream::from_bytes`] + the registry, and tagged bytes
//!   survive a persist/reparse.

use ebtrain_codec::{
    BoundSpec, Codec, CodecId, CodecRegistry, ErrorContract, PlaneDecodeStats, SzCodec,
    TaggedStream,
};
use ebtrain_sz::{DataLayout, EntropyBackend, SzConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Every backend the suite exercises: the standard registry's four
/// (its SZ entry is the dual-quant framework default, held to the strict
/// `Absolute` contract), the classic SZ configurations (same wire id,
/// different encoder: paper mode and vanilla), and the entropy-backend
/// axis — SZ with each forced entropy stage, so truncation/corruption/
/// partial-decode runs cover range-tagged and huffman-tagged frames
/// regardless of what Auto would pick.
fn all_codecs() -> Vec<Arc<dyn Codec>> {
    let mut codecs: Vec<Arc<dyn Codec>> = CodecRegistry::standard().codecs().to_vec();
    codecs.push(Arc::new(SzCodec::classic()));
    codecs.push(Arc::new(SzCodec::vanilla()));
    let mut forced_range = SzConfig::with_error_bound(1e-3);
    forced_range.entropy_backend = EntropyBackend::Range;
    codecs.push(Arc::new(SzCodec::new(forced_range)));
    let mut forced_huffman = SzConfig::classic(1e-3);
    forced_huffman.entropy_backend = EntropyBackend::Huffman;
    codecs.push(Arc::new(SzCodec::new(forced_huffman)));
    codecs
}

/// Activation-shaped payload: smooth positives, zero runs, one spike.
fn payload(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut data: Vec<f32> = (0..n)
        .map(|i| {
            let v = (i as f32 * 0.017).sin() + 0.2;
            if v < 0.0 || rng.gen_bool(0.2) {
                0.0
            } else {
                v
            }
        })
        .collect();
    data[n / 2] = 37.5;
    data
}

/// Dense random field of `side × side` values, uniform in `[-scale, scale]`.
fn random_grid(seed: u64, side: usize, scale: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..side * side)
        .map(|_| rng.gen_range(-scale..scale))
        .collect()
}

/// Post-ReLU-like activations: smooth positive structure, ~60% exact
/// zeros — the sparsity pattern the zero filter exists for.
fn sparse_activations(seed: u64, side: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..side * side)
        .map(|i| {
            let (y, x) = ((i / side) as f32, (i % side) as f32);
            let v = (x * 0.11).sin() + (y * 0.07).cos() - 0.4 + rng.gen_range(-0.15..0.15);
            v.max(0.0)
        })
        .collect()
}

/// The roundtrip corpora: the activation payload, dense fields at unit
/// and ±300 scale, and sparse post-ReLU activations.
fn corpora() -> Vec<(&'static str, DataLayout, Vec<f32>)> {
    let grid = DataLayout::D2(64, 64);
    let layout = DataLayout::D3(8, 16, 16);
    vec![
        ("payload", layout, payload(layout.len())),
        ("dense", grid, random_grid(11, 64, 1.0)),
        ("dense_x300", grid, random_grid(12, 64, 300.0)),
        ("sparse_relu", grid, sparse_activations(13, 64)),
    ]
}

fn supported(codec: &dyn Codec, bounds: &[BoundSpec]) -> Vec<BoundSpec> {
    bounds
        .iter()
        .copied()
        .filter(|b| codec.supports(b))
        .collect()
}

fn bounds_for(codec: &dyn Codec) -> Vec<BoundSpec> {
    supported(
        codec,
        &[
            BoundSpec::Abs(1e-2),
            BoundSpec::Abs(1e-3),
            BoundSpec::Rel(1e-3),
            BoundSpec::Lossless,
        ],
    )
}

#[test]
fn every_codec_roundtrips_within_its_contract() {
    let registry = CodecRegistry::standard();
    // The framework default: dual-quantization also keeps zeros exact.
    let default_sz = registry.get(CodecId::SZ).unwrap().name();
    let mut rng = StdRng::seed_from_u64(17);
    let raw_bits: Vec<f32> = (0..4096).map(|_| f32::from_bits(rng.gen())).collect();
    for codec in all_codecs() {
        let name = codec.name();
        let mut cases = corpora();
        if codec.contract() == ErrorContract::Exact {
            // NaN payloads, infinities and subnormals pass through too.
            cases.push(("raw_bits", DataLayout::D2(64, 64), raw_bits.clone()));
        }
        let bounds = supported(
            codec.as_ref(),
            &[
                BoundSpec::Abs(1e-1),
                BoundSpec::Abs(1e-2),
                BoundSpec::Abs(1e-3),
                BoundSpec::Abs(1e-4),
                BoundSpec::Rel(1e-3),
                BoundSpec::Lossless,
            ],
        );
        for (corpus, layout, data) in &cases {
            for bound in &bounds {
                let what = format!("{name} [{bound:?}] {corpus}");
                let stream = codec
                    .compress(data, *layout, bound)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                // Decode through the registry router (id-based), not the
                // instance, to prove the wire id alone is enough.
                let (out, id) = registry.decompress_any(stream.as_bytes()).unwrap();
                assert_eq!(id, codec.id(), "{what}");
                assert_eq!(out.len(), data.len(), "{what}");
                let eb = bound.resolve_abs(data);
                match codec.contract() {
                    ErrorContract::Exact => {
                        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}");
                        }
                    }
                    ErrorContract::Absolute => {
                        let eb = eb.expect("lossy codec got a lossless bound");
                        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                            assert!((a - b).abs() <= eb, "{what} elem {i}: |{a} - {b}| > {eb}");
                            if name == default_sz && *a == 0.0 {
                                assert_eq!(*b, 0.0, "{what} elem {i}: zero perturbed");
                            }
                        }
                    }
                    ErrorContract::AbsoluteZeroSnap => {
                        let eb = eb.expect("lossy codec got a lossless bound");
                        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                            if *a == 0.0 {
                                assert_eq!(*b, 0.0, "{what} elem {i}: zero perturbed");
                            } else if a.abs() > 2.0 * eb {
                                assert!((a - b).abs() <= eb, "{what} elem {i}: |{a} - {b}| > {eb}");
                            } else {
                                assert!(
                                    (a - b).abs() <= 2.0 * eb,
                                    "{what} elem {i}: small value drifted past 2eb"
                                );
                            }
                        }
                    }
                    // No absolute promise (the paper's §2.2 point about
                    // fixed-rate coding); shape and determinism only.
                    ErrorContract::BlockRelative => {
                        let again = codec.compress(data, *layout, bound).unwrap();
                        assert_eq!(stream.as_bytes(), again.as_bytes(), "{what}");
                    }
                }
            }
        }
    }
}

/// Inputs that reach every branch of an encoder-side reconstruction:
/// outliers kept by their own bits (NaN payloads quiet and signalling,
/// ±Inf, values past the dual-quant grid clamp, jumps past the quantizer
/// radius), values coded on the grid (denormals, `-0.0`, smooth runs),
/// and constant planes — each as `n` elements.
fn recon_inputs(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let specials = [
        f32::from_bits(0x7fc1_2345), // quiet NaN, payload
        f32::from_bits(0xff80_0001), // signalling NaN, sign set
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,  // denormal
        -1e-42, // denormal
        -0.0,
        1e30, // |x| / 2eb beyond the grid clamp at every bound here
        f32::MAX,
        f32::MIN_POSITIVE,
    ];
    let mut mixed = payload(n.max(2));
    mixed.truncate(n);
    for (i, v) in mixed.iter_mut().enumerate() {
        match i % 11 {
            // One special every 11 elements, cycling through the list.
            0 => *v = specials[(i / 11) % specials.len()],
            // A ±900 jump: residual past radius · 2eb at eb = 1e-2.
            5 => *v = if (i / 11) % 2 == 0 { 900.0 } else { -900.0 },
            _ => {}
        }
    }
    vec![
        ("mixed", mixed),
        ("constant", vec![0.25; n]),
        ("zeros", vec![0.0; n]),
    ]
}

#[test]
fn compress_recon_is_compress_plus_decompress_bit_for_bit() {
    let layouts = [
        // 0- and 1-element tensors, every rank.
        DataLayout::D1(0),
        DataLayout::D2(0, 4),
        DataLayout::D3(0, 2, 2),
        DataLayout::D1(1),
        DataLayout::D2(1, 1),
        DataLayout::D3(1, 1, 1),
        // Single chunk.
        DataLayout::D1(777),
        DataLayout::D2(24, 24),
        DataLayout::D3(3, 10, 11),
        // Multi-chunk (SZ auto-chunking: several frames, parallel runs).
        DataLayout::D1(3 * 4096 + 17),
        DataLayout::D2(300, 41),
        DataLayout::D3(64, 16, 16),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for codec in all_codecs() {
        for bound in bounds_for(codec.as_ref()) {
            for layout in layouts {
                for (kind, data) in recon_inputs(layout.len()) {
                    let what = format!("{} [{bound:?}] {layout:?} {kind}", codec.name());
                    let plain = codec.compress(&data, layout, &bound);
                    let with_recon = codec.compress_recon(&data, layout, &bound);
                    let (stream, (rstream, recon)) = match (plain, with_recon) {
                        (Ok(s), Ok(r)) => (s, r),
                        // E.g. zfp-like on an empty tensor: both refuse.
                        (Err(_), Err(_)) => continue,
                        (p, r) => panic!(
                            "{what}: compress {:?} but compress_recon {:?}",
                            p.map(|_| ()),
                            r.map(|_| ())
                        ),
                    };
                    assert_eq!(stream.as_bytes(), rstream.as_bytes(), "{what}: bytes");
                    let decoded = codec.decompress(&stream).unwrap();
                    assert_eq!(bits(&decoded), bits(&recon), "{what}: values");
                }
            }
        }
    }
}

#[test]
fn framework_default_is_held_to_the_strict_contract() {
    // Dual-quantization verifies |x - x'| <= eb per element, so the
    // default reports `Absolute`; only the classic quantizer's zero
    // filter keeps the 2eb small-value relaxation.
    let default = CodecRegistry::standard().get(CodecId::SZ).unwrap();
    assert_eq!(default.contract(), ErrorContract::Absolute);
    for strict in [
        SzCodec::new(SzConfig::with_error_bound(1e-3)),
        SzCodec::dual_quant(),
        SzCodec::vanilla(),
    ] {
        assert_eq!(
            strict.contract(),
            ErrorContract::Absolute,
            "{}",
            strict.name()
        );
    }
    assert_eq!(
        SzCodec::classic().contract(),
        ErrorContract::AbsoluteZeroSnap
    );
}

#[test]
fn every_codec_rejects_truncations_without_panicking() {
    let registry = CodecRegistry::standard();
    let layout = DataLayout::D2(32, 32);
    let data = payload(layout.len());
    for codec in all_codecs() {
        let bound = bounds_for(codec.as_ref())[0];
        let stream = codec.compress(&data, layout, &bound).unwrap();
        let bytes = stream.as_bytes();
        for cut in 0..bytes.len() {
            let r = registry.decompress_any(&bytes[..cut]);
            match r {
                Err(_) => {}
                // A prefix that still decodes must at least not decode
                // to the full payload silently (no codec here frames
                // trailing garbage, so this is unreachable in practice;
                // the assert keeps it honest if a backend regresses).
                Ok((out, _)) => assert!(
                    out.len() < data.len(),
                    "{}: {cut}-byte prefix decoded the full payload",
                    codec.name()
                ),
            }
        }
    }
}

#[test]
fn every_codec_survives_corruption_without_panicking() {
    let registry = CodecRegistry::standard();
    let layout = DataLayout::D2(24, 24);
    let data = payload(layout.len());
    for codec in all_codecs() {
        let bound = bounds_for(codec.as_ref())[0];
        let stream = codec.compress(&data, layout, &bound).unwrap();
        let len = stream.as_bytes().len();
        // A multi-bit XOR every 7th byte, then every single-bit flip.
        let flips = (0..len)
            .step_by(7)
            .map(|pos| (pos, 0xA5))
            .chain((0..len * 8).map(|bit| (bit / 8, 1u8 << (bit % 8))));
        for (pos, mask) in flips {
            let mut evil = stream.as_bytes().to_vec();
            evil[pos] ^= mask;
            // Error or garbage both acceptable; panic/abort is not.
            let _ = registry.decompress_any(&evil);
        }
    }
}

#[test]
fn bare_streams_are_rejected_and_tagged_bytes_survive_reparse() {
    let registry = CodecRegistry::standard();
    let data = payload(512);

    // 1. Current bare Z2 bytes (written by `ebtrain_sz::compress`
    // directly, bypassing the container) do not route; the same body
    // in a container decodes to the native decoder's values.
    let buf = ebtrain_sz::compress(
        &data,
        DataLayout::D1(512),
        &ebtrain_sz::SzConfig::with_error_bound(1e-3),
    )
    .unwrap();
    assert!(TaggedStream::from_bytes(buf.as_bytes().to_vec()).is_err());
    assert!(registry.decompress_any(buf.as_bytes()).is_err());
    let wrapped = TaggedStream::tag(CodecId::SZ, buf.as_bytes().to_vec());
    let (routed, id) = registry.decompress_any(wrapped.as_bytes()).unwrap();
    assert_eq!(id, CodecId::SZ);
    assert_eq!(routed, ebtrain_sz::decompress(&buf).unwrap());

    // 2. Bare lossless ("L1") bytes do not route either.
    let l1 = ebtrain_sz::lossless::compress(&data);
    assert!(registry.decompress_any(&l1).is_err());

    // 3. A tagged stream survives a byte-level persist/reparse.
    let codec = SzCodec::classic();
    let tagged = codec
        .compress(&data, DataLayout::D1(512), &BoundSpec::Abs(1e-3))
        .unwrap();
    let reparsed = TaggedStream::from_bytes(tagged.as_bytes().to_vec()).unwrap();
    assert_eq!(reparsed, tagged);
    assert_eq!(
        codec.decompress(&reparsed).unwrap(),
        codec.decompress(&tagged).unwrap()
    );
}

#[test]
fn frame_capable_codecs_serve_partial_ranges_and_others_fall_back() {
    // 64 leading planes of 256 elements: the SZ auto-chunking yields 4
    // frames, so a 5-plane range must touch only one of them.
    let layout = DataLayout::D3(64, 16, 16);
    let data = payload(layout.len());
    for codec in all_codecs() {
        let bound = bounds_for(codec.as_ref())[0];
        let stream = codec.compress(&data, layout, &bound).unwrap();
        let full = codec.decompress(&stream).unwrap();
        let (part, stats) = codec.decompress_planes(&stream, layout, 4..9).unwrap();
        assert_eq!(part, full[4 * 256..9 * 256], "{}", codec.name());
        if codec.supports_frame_index() {
            assert!(
                stats.bytes_decoded < stats.bytes_total,
                "{}: frame index did not skip anything",
                codec.name()
            );
        } else {
            assert_eq!(
                stats.bytes_decoded,
                stats.bytes_total,
                "{}: fallback must account a whole decode",
                codec.name()
            );
        }
        // Out-of-bounds ranges are rejected everywhere.
        assert!(codec.decompress_planes(&stream, layout, 9..65).is_err());
    }
}

/// The standard registry's SZ configuration chunked at four planes per
/// frame (six independently coded frames), a sweep of ranges (empty at
/// both ends and inside, within one frame, exactly one frame, straddling
/// two and five, the tail, all): the values are the full decode's, bit
/// for bit, and the byte accounting is what a serial walk of the frame
/// index reads — the covering frames and nothing else — however the
/// decode is scheduled.
#[test]
fn plane_ranges_match_the_full_decode_and_read_only_covering_frames() {
    let layout = DataLayout::D3(24, 16, 16);
    let data = payload(layout.len());
    let standard = CodecRegistry::standard().get(CodecId::SZ).unwrap();
    let codec = SzCodec::new(SzConfig {
        chunk_planes: Some(4),
        ..SzConfig::with_error_bound(1e-3)
    });
    assert_eq!(codec.name(), standard.name(), "the registry's SZ encoder");
    assert!(codec.supports_frame_index());
    for bound in bounds_for(&codec) {
        let stream = codec.compress(&data, layout, &bound).unwrap();
        let full = codec.decompress(&stream).unwrap();
        let idx = ebtrain_sz::frame_index_of(stream.body()).unwrap();
        assert_eq!(idx.entries().len(), 6, "{}", codec.name());
        for range in [0..0, 7..7, 24..24, 5..6, 4..8, 3..5, 2..19, 20..24, 0..24] {
            let (part, stats) = codec
                .decompress_planes(&stream, layout, range.clone())
                .unwrap();
            let want = &full[range.start * 256..range.end * 256];
            assert!(
                part.len() == want.len()
                    && part
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} {bound:?} {range:?}: values differ from the full decode",
                codec.name()
            );
            let covered = idx.frames_covering(&range);
            let expect = PlaneDecodeStats {
                bytes_decoded: idx.entries()[covered.clone()]
                    .iter()
                    .map(|e| e.bytes.len())
                    .sum(),
                bytes_total: idx.frame_bytes_total(),
                partial: covered.len() < idx.entries().len(),
            };
            assert_eq!(stats, expect, "{} {bound:?} {range:?}", codec.name());
        }
    }
}
