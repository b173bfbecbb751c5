//! Property tests for the error-bound contract — the single most important
//! invariant in the whole system: the framework's accuracy argument (paper
//! §3) is built entirely on `|x − x'| ≤ eb`.

use ebtrain_sz::{compress, decompress, DataLayout, EntropyBackend, SzConfig};
use proptest::prelude::*;

/// The per-chunk entropy-backend axis: Auto selection plus every forced
/// backend, so every property covering the stream format also covers
/// huffman-, range- and rANS-tagged, and mixed frames.
fn backend_of(sel: u8) -> EntropyBackend {
    match sel % 4 {
        0 => EntropyBackend::Auto,
        1 => EntropyBackend::Huffman,
        2 => EntropyBackend::Range,
        _ => EntropyBackend::Rans,
    }
}

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        5 => (-1000.0f32..1000.0),
        2 => (-1.0f32..1.0),
        1 => Just(0.0f32),
        1 => (-1e-6f32..1e-6),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn error_bound_holds_vanilla_1d(
        data in prop::collection::vec(finite_f32(), 0..2000),
        eb_exp in -5i32..0,
    ) {
        let eb = 10f32.powi(eb_exp);
        let cfg = SzConfig::vanilla(eb);
        let buf = compress(&data, DataLayout::D1(data.len()), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        prop_assert_eq!(out.len(), data.len());
        for (x, y) in data.iter().zip(&out) {
            prop_assert!((x - y).abs() <= eb, "|{} - {}| > {}", x, y, eb);
        }
    }

    #[test]
    fn error_bound_holds_2d(
        rows in 1usize..40,
        cols in 1usize..40,
        seed in any::<u64>(),
        eb_exp in -4i32..0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let eb = 10f32.powi(eb_exp);
        let cfg = SzConfig::vanilla(eb);
        let buf = compress(&data, DataLayout::D2(rows, cols), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        for (x, y) in data.iter().zip(&out) {
            prop_assert!((x - y).abs() <= eb);
        }
    }

    #[test]
    fn zero_filter_contract(
        data in prop::collection::vec(finite_f32(), 0..2000),
        eb_exp in -4i32..0,
    ) {
        let eb = 10f32.powi(eb_exp);
        let cfg = SzConfig::classic(eb);
        let buf = compress(&data, DataLayout::D1(data.len()), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        for (x, y) in data.iter().zip(&out) {
            if *x == 0.0 {
                // exact zeros reconstruct exactly
                prop_assert_eq!(*y, 0.0);
            } else if x.abs() > 2.0 * eb {
                // large values keep the strict bound
                prop_assert!((x - y).abs() <= eb);
            } else {
                // small values: relaxed 2eb bound (may be snapped to zero)
                prop_assert!((x - y).abs() <= 2.0 * eb);
            }
        }
    }

    #[test]
    fn error_bound_holds_strictly_for_the_default(
        data in prop::collection::vec(finite_f32(), 0..2000),
        eb_exp in -5i32..0,
    ) {
        let eb = 10f32.powi(eb_exp);
        // The framework default is dual-quantization.
        let cfg = SzConfig::with_error_bound(eb);
        let buf = compress(&data, DataLayout::D1(data.len()), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        prop_assert_eq!(out.len(), data.len());
        for (x, y) in data.iter().zip(&out) {
            prop_assert!((x - y).abs() <= eb, "|{} - {}| > {}", x, y, eb);
            if *x == 0.0 {
                // inherent zero preservation of dual-quantization
                prop_assert_eq!(*y, 0.0);
            }
        }
    }

    #[test]
    fn ratio_is_always_reported_and_sane(
        data in prop::collection::vec(finite_f32(), 1..500),
    ) {
        let cfg = SzConfig::with_error_bound(1e-2);
        let buf = compress(&data, DataLayout::D1(data.len()), &cfg).unwrap();
        let r = buf.ratio();
        prop_assert!(r > 0.0 && r.is_finite());
        prop_assert_eq!(buf.original_byte_len(), data.len() * 4);
    }

    #[test]
    fn stream_roundtrips_through_bytes(
        data in prop::collection::vec(finite_f32(), 0..500),
    ) {
        let cfg = SzConfig::with_error_bound(1e-3);
        let buf = compress(&data, DataLayout::D1(data.len()), &cfg).unwrap();
        let rebuilt = ebtrain_sz::CompressedBuffer::from_bytes(buf.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(decompress(&rebuilt).unwrap(), decompress(&buf).unwrap());
    }

    #[test]
    fn parallel_and_serial_encodes_are_bit_identical(
        data in prop::collection::vec(finite_f32(), 0..20_000),
        chunk_planes in 1usize..6,
        dual in any::<bool>(),
        backend_sel in 0u8..4,
        eb_sel in 0u8..3,
        shape_sel in 0u8..3,
        w in 1usize..48,
        h in 1usize..8,
    ) {
        // Chunk geometry is a pure function of layout + config, and
        // per-chunk backend selection is a pure function of the chunk's
        // histogram — so thread fan-out must never show up in the bytes,
        // whatever the shape, bound, or entropy backend.
        let eb = [1e-2f32, 1e-3, 1e-4][eb_sel as usize];
        let mut cfg = if dual {
            SzConfig::with_error_bound(eb)
        } else {
            SzConfig::classic(eb)
        };
        cfg.entropy_backend = backend_of(backend_sel);
        cfg.chunk_planes = Some(chunk_planes); // deliberately tiny chunks
        let (layout, n) = match shape_sel {
            1 if data.len() >= w => (DataLayout::D2(data.len() / w, w), (data.len() / w) * w),
            2 if data.len() >= w * h => {
                let planes = data.len() / (w * h);
                (DataLayout::D3(planes, h, w), planes * h * w)
            }
            _ => (DataLayout::D1(data.len()), data.len()),
        };
        let data = &data[..n];
        let par = compress(data, layout, &cfg).unwrap();
        let ser = ebtrain_sz::compress_serial(data, layout, &cfg).unwrap();
        prop_assert_eq!(par.as_bytes(), ser.as_bytes());
        prop_assert_eq!(
            decompress(&par).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ebtrain_sz::decompress_serial(&ser).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn entropy_backend_never_changes_decoded_values(
        data in prop::collection::vec(finite_f32(), 1..8_000),
        chunk_planes in 1usize..5,
        dual in any::<bool>(),
        eb_sel in 0u8..3,
    ) {
        // Both entropy backends are lossless over the quantized symbols,
        // so Auto's per-chunk choice — and either forced override — must
        // reconstruct the identical values from the identical codes.
        let eb = [1e-2f32, 1e-3, 1e-4][eb_sel as usize];
        let layout = DataLayout::D1(data.len());
        let decode_bits = |backend: EntropyBackend| {
            let mut cfg = if dual {
                SzConfig::with_error_bound(eb)
            } else {
                SzConfig::classic(eb)
            };
            cfg.entropy_backend = backend;
            cfg.chunk_planes = Some(chunk_planes);
            let buf = compress(&data, layout, &cfg).unwrap();
            decompress(&buf).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let auto = decode_bits(EntropyBackend::Auto);
        prop_assert_eq!(&auto, &decode_bits(EntropyBackend::Huffman));
        prop_assert_eq!(&auto, &decode_bits(EntropyBackend::Range));
        prop_assert_eq!(&auto, &decode_bits(EntropyBackend::Rans));
    }

    #[test]
    fn auto_routing_stays_within_its_size_model(
        data in prop::collection::vec(-1.0f32..1.0, 4096..12_000),
        sparsity in 0u8..10,
        eb_sel in 0u8..3,
    ) {
        // On full-size chunks of in-range values (where a model of
        // asymptotic rates applies: no outlier escapes, no warm-up
        // dominated frames) Auto takes a chunk off Huffman only where
        // the range coder is modelled >= 15 % denser, so the stream may
        // not be materially larger than the Huffman-only one. No bound
        // is asserted against the range-only stream: the model is
        // order-0, and the range coder's run context can beat it on
        // run-structured chunks by more than the margin — bytes this
        // routing gives up, knowingly, for the faster coder.
        let eb = [1e-1f32, 1e-2, 1e-3][eb_sel as usize];
        // ReLU-like zero runs at `sparsity`/10, so skewed chunks occur.
        let data: Vec<f32> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| if (i / 7) % 10 < sparsity as usize { 0.0 } else { v })
            .collect();
        let layout = DataLayout::D1(data.len());
        let encode = |backend: EntropyBackend| {
            let mut cfg = SzConfig::with_error_bound(eb);
            cfg.entropy_backend = backend;
            compress(&data, layout, &cfg).unwrap().compressed_byte_len()
        };
        let (auto, huffman) = (encode(EntropyBackend::Auto), encode(EntropyBackend::Huffman));
        prop_assert!(auto * 100 <= huffman * 103, "auto {} vs huffman {}", auto, huffman);
    }

    #[test]
    fn plane_range_decode_matches_full_decode(
        d0 in 1usize..20,
        d1 in 1usize..12,
        d2 in 1usize..12,
        chunk_planes in 1usize..7,
        seed in any::<u64>(),
        range_seed in any::<u64>(),
        dual in any::<bool>(),
    ) {
        // `decompress_planes(r)` must be bit-identical to the matching
        // slice of a full decompress, for arbitrary ranges/geometries,
        // and must decode only the frames covering the range.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = d0 * d1 * d2;
        let data: Vec<f32> = (0..n)
            .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-5.0f32..5.0) })
            .collect();
        let mut cfg = if dual { SzConfig::with_error_bound(1e-2) } else { SzConfig::classic(1e-2) };
        cfg.chunk_planes = Some(chunk_planes);
        let buf = compress(&data, DataLayout::D3(d0, d1, d2), &cfg).unwrap();
        let full = decompress(&buf).unwrap();
        let idx = buf.frame_index().unwrap();
        let mut rrng = rand::rngs::StdRng::seed_from_u64(range_seed);
        let a = rrng.gen_range(0..=d0);
        let b = rrng.gen_range(a..=d0);
        let (part, stats) = buf.decompress_planes_with_stats(a..b).unwrap();
        let plane = d1 * d2;
        prop_assert_eq!(
            part.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            full[a * plane..b * plane].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let covered = idx.frames_covering(&(a..b));
        prop_assert_eq!(stats.frames_decoded, covered.len());
        prop_assert!(stats.frame_bytes_decoded <= stats.frame_bytes_total);
        if covered.len() < stats.frames_total {
            prop_assert!(stats.frame_bytes_decoded < stats.frame_bytes_total);
        }
    }

    #[test]
    fn truncated_streams_error_cleanly(
        rows in 2usize..24,
        cols in 2usize..24,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(rows.div_ceil(3)); // force multiple frames
        let buf = compress(&data, DataLayout::D2(rows, cols), &cfg).unwrap();
        let bytes = buf.as_bytes();
        // Chunk frames are length-prefixed and the stream end is strict,
        // so every strict prefix must be rejected with an error — and
        // must never panic.
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(ebtrain_sz::decompress_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_streams_never_panic(
        rows in 2usize..24,
        cols in 2usize..24,
        seed in any::<u64>(),
        victim_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(rows.div_ceil(3));
        let buf = compress(&data, DataLayout::D2(rows, cols), &cfg).unwrap();
        let mut bytes = buf.as_bytes().to_vec();
        let victim = ((bytes.len() as f64 * victim_frac) as usize).min(bytes.len() - 1);
        bytes[victim] ^= flip;
        // A bit flip may survive as (lossy-garbage) data, but decoding
        // must return — Ok with the advertised length, or a clean error.
        if let Ok(out) = ebtrain_sz::decompress_bytes(&bytes) {
            prop_assert_eq!(out.len(), data.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lossless_is_bit_exact(
        bits in prop::collection::vec(any::<u32>(), 0..2000),
    ) {
        let data: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        let out = ebtrain_sz::lossless::decompress(&ebtrain_sz::lossless::compress(&data)).unwrap();
        prop_assert_eq!(out.len(), data.len());
        for (a, b) in data.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
