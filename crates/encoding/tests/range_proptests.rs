//! Property tests for the adaptive binary range coder: every stream the
//! encoder can produce must decode back bit-for-bit, through both the
//! raw bit layer and the center-folded symbol layer, for arbitrary model
//! trajectories (the decoder reconstructs the model from the bits alone,
//! so any divergence compounds and surfaces as a mismatch). The block
//! layout is tag 2: coder bytes, then the raw mantissa bits stored
//! backward from the end, with no length field between them.
//!
//! The static rANS coder (entropy tag 3) codes the same symbols, so it is
//! held to the same extremes against tag 2, and to its own table checks.
//! The `#[ignore]`d deep sweep (every prefix and every bit flip over a
//! larger corpus) runs in CI's full-e2e job; the default run keeps a
//! small twin.

use ebtrain_encoding::bitio::BitWriter;
use ebtrain_encoding::range;
use ebtrain_encoding::{rans, CodecError};
use proptest::prelude::*;

/// Decode `bytes` as `n` symbols and require what every corrupt or
/// truncated block must give: an error, or exactly `n` symbols that are
/// not `want` — never a panic, never more than `n` symbols.
fn assert_rejected_or_wrong(bytes: &[u8], want: &[u32], center: u32) {
    if let Ok(got) = range::decode_block(bytes, want.len(), center) {
        assert_eq!(got.len(), want.len());
        assert_ne!(got, want, "a damaged block decoded to the original symbols");
    }
}

/// splitmix64: the byte pin's corpus must not move with the vendored
/// `rand` stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PIN_CENTER: u32 = 32_768;

/// The byte pin's corpus in 4096-symbol blocks (the codec's chunk size):
/// 1-D Lorenzo residuals of a smooth ramp (eb 1e-4) and of a ReLU-like
/// volume (eb 1e-3), then seeded Laplacian residuals of width 1, 16 and
/// 256, four blocks each.
fn pin_corpus() -> Vec<Vec<u32>> {
    let residuals = |xs: Vec<f64>, eb: f64| -> Vec<u32> {
        let mut prev = 0i64;
        xs.iter()
            .map(|&x| {
                let q = (x / (2.0 * eb)).round() as i64;
                let code = PIN_CENTER as i64 + q - prev;
                prev = q;
                code as u32
            })
            .collect()
    };
    let ramp = (0..16_384)
        .map(|i| (i as f64 * 0.017).sin() + 0.5 * (i as f64 * 0.0031).cos())
        .collect();
    let relu = (0..16_384)
        .map(|i| ((i as f64 * 0.013).sin() + (i as f64 * 0.0007).cos() - 0.3).max(0.0))
        .collect();
    let mut blocks: Vec<Vec<u32>> = [residuals(ramp, 1e-4), residuals(relu, 1e-3)]
        .concat()
        .chunks(4096)
        .map(<[u32]>::to_vec)
        .collect();
    let mut state = 0x5EED_u64;
    for width in [1.0f64, 16.0, 256.0] {
        for _ in 0..4 {
            blocks.push(
                (0..4096)
                    .map(|_| {
                        let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        let lap = -width * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-12).ln();
                        (PIN_CENTER as f64 + lap.round()) as u32
                    })
                    .collect(),
            );
        }
    }
    blocks
}

/// Moving raw bits out of the coder must not cost bytes. The literal is
/// the corpus's total under the tag-1 encoder (two modeled mantissa
/// bits, raw bits as ½ splits in the coder), captured before that
/// encoder was deleted. Tag 2 pays side-stream padding (under a byte per
/// block) and one fewer modeled bit: 0.8–1.0 % on the ramp, ReLU and
/// width-1 blocks, 0.04 % at width 16, nothing at 256 — 57,939 B in
/// all, so the bound is 0.4 %.
#[test]
fn tag2_bytes_stay_within_0_4_percent_of_frozen_tag1() {
    const TAG1_BYTES: usize = 57_727;
    let corpus = pin_corpus();
    let mut total = 0;
    for block in &corpus {
        let bytes = range::encode_block(block, PIN_CENTER);
        assert_eq!(
            range::decode_block(&bytes, block.len(), PIN_CENTER).unwrap(),
            *block
        );
        total += bytes.len();
    }
    assert!(
        total * 1000 <= TAG1_BYTES * 1004,
        "tag 2 {total} B vs tag 1 {TAG1_BYTES} B"
    );
}

#[test]
fn all_hit_and_no_hit_blocks_roundtrip() {
    for center in [0u32, 7, u32::MAX] {
        // All hits: no magnitudes, so no side stream.
        let hits = vec![center; 3000];
        let mut bytes = Vec::new();
        assert_eq!(range::encode_block_into(&hits, center, &mut bytes), 0);
        assert!(bytes.len() < 64, "{} bytes for 3000 hits", bytes.len());
        assert_eq!(
            range::decode_block(&bytes, hits.len(), center).unwrap(),
            hits
        );
        // No hits, with magnitudes up to 2^16 on either side.
        let misses: Vec<u32> = (1..3000u32)
            .map(|i| {
                let d = (i.wrapping_mul(2_654_435_761) >> 16).max(1);
                if i % 2 == 0 {
                    center.wrapping_add(d)
                } else {
                    center.wrapping_sub(d)
                }
            })
            .collect();
        let mut bytes = Vec::new();
        let side = range::encode_block_into(&misses, center, &mut bytes);
        assert!(side > 0 && side < bytes.len());
        assert_eq!(
            range::decode_block(&bytes, misses.len(), center).unwrap(),
            misses
        );
    }
}

#[test]
fn thirty_three_bit_magnitudes_roundtrip_at_the_extreme_centers() {
    // fold(u32::MAX, 0) = 2^33 - 2 and fold(0, u32::MAX) = 2^33 - 3: the
    // widest class, one modeled and 31 raw mantissa bits.
    let cases: [(u32, Vec<u32>); 2] = [
        (
            0,
            vec![u32::MAX, 0, 1 << 31, u32::MAX - 1, 0, (1 << 31) + 12_345],
        ),
        (u32::MAX, vec![0, u32::MAX, 1, (1 << 31) - 1, u32::MAX, 77]),
    ];
    for (center, codes) in cases {
        let bytes = range::encode_block(&codes, center);
        assert_eq!(
            range::decode_block(&bytes, codes.len(), center).unwrap(),
            codes
        );
        assert_rejected_or_wrong(&bytes[..bytes.len() - 1], &codes, center);
    }
}

#[test]
fn every_prefix_and_every_extension_of_a_block_is_rejected_or_wrong() {
    let center = 32_768u32;
    let codes: Vec<u32> = (0..600u32)
        .map(|i| match i % 5 {
            0 | 1 => center,
            2 => center + (i * 7919 % 900),
            3 => center - (i * 104_729 % 40),
            _ => center + 1,
        })
        .collect();
    let bytes = range::encode_block(&codes, center);
    for cut in 0..bytes.len() {
        assert_rejected_or_wrong(&bytes[..cut], &codes, center);
    }
    for extra in [0u8, 0x5A, 0xFF] {
        let mut longer = bytes.clone();
        longer.push(extra);
        assert!(range::decode_block(&longer, codes.len(), center).is_err());
    }
}

/// Decode `bytes` as a tag-3 block of `want.len()` symbols: an error, or
/// exactly that many symbols that are not `want`.
fn assert_rans_rejected_or_wrong(bytes: &[u8], want: &[u32], center: u32) {
    if let Ok(got) = rans::decode_block(bytes, want.len(), center) {
        assert_eq!(got.len(), want.len());
        assert_ne!(
            got, want,
            "a damaged rans block decoded to the original symbols"
        );
    }
}

/// Both range-family tags round-trip `codes` to the same symbols.
fn assert_tags_2_and_3_agree(codes: &[u32], center: u32) {
    let tag2 = range::encode_block(codes, center);
    let tag3 = rans::encode_block(codes, center);
    assert_eq!(
        range::decode_block(&tag2, codes.len(), center).unwrap(),
        codes
    );
    assert_eq!(
        rans::decode_block(&tag3, codes.len(), center).unwrap(),
        codes
    );
}

#[test]
fn tag3_matches_tag2_on_the_extremes() {
    for center in [0u32, 7, 32_768, u32::MAX] {
        // All hits, no hits, and the 33-bit magnitudes on either side.
        assert_tags_2_and_3_agree(&vec![center; 3000], center);
        let misses: Vec<u32> = (1..3000u32)
            .map(|i| {
                let d = (i.wrapping_mul(2_654_435_761) >> 16).max(1);
                if i % 2 == 0 {
                    center.wrapping_add(d)
                } else {
                    center.wrapping_sub(d)
                }
            })
            .collect();
        assert_tags_2_and_3_agree(&misses, center);
        assert_tags_2_and_3_agree(&[0, u32::MAX, center, 1 << 31, u32::MAX - 1, 0], center);
        assert_tags_2_and_3_agree(&[], center);
    }
}

/// A deep-alphabet block: seeded Laplacian residuals of `width` around
/// [`PIN_CENTER`], with every `hit_every`-th symbol a hit.
fn laplacian_block(n: usize, width: f64, hit_every: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            if i % hit_every == 0 {
                return PIN_CENTER;
            }
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let lap = -width * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-12).ln();
            (PIN_CENTER as f64 + lap.round()) as u32
        })
        .collect()
}

/// Every prefix and every one-byte extension of `codes`' tag-3 block is
/// rejected (or, for a prefix, decodes to other symbols); every single
/// bit flip decodes to an error or exactly `n` symbols, never a panic.
fn sweep_rans_block(codes: &[u32], center: u32) {
    let bytes = rans::encode_block(codes, center);
    assert_eq!(
        rans::decode_block(&bytes, codes.len(), center).unwrap(),
        codes
    );
    for cut in 0..bytes.len() {
        assert_rans_rejected_or_wrong(&bytes[..cut], codes, center);
    }
    for extra in [0u8, 0x5A, 0xFF] {
        let mut longer = bytes.clone();
        longer.push(extra);
        assert!(rans::decode_block(&longer, codes.len(), center).is_err());
    }
    let mut flipped = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
        if let Ok(got) = rans::decode_block(&flipped, codes.len(), center) {
            assert_eq!(got.len(), codes.len(), "flip {bit}");
        }
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
    }
}

#[test]
fn every_prefix_extension_and_bit_flip_of_a_rans_block_is_handled() {
    sweep_rans_block(&laplacian_block(600, 40.0, 5, 0xF1), PIN_CENTER);
}

#[test]
#[ignore = "deep sweep: every prefix and bit flip of 4096-symbol blocks; CI full-e2e"]
fn every_prefix_extension_and_bit_flip_of_deep_rans_blocks_is_handled() {
    for (i, width) in [1.0, 16.0, 256.0, 4096.0, 1e6].into_iter().enumerate() {
        for hit_every in [2, 7, 4096] {
            let block = laplacian_block(4096, width, hit_every, 0xDEE9 + i as u64);
            sweep_rans_block(&block, PIN_CENTER);
        }
    }
    for block in pin_corpus() {
        sweep_rans_block(&block, PIN_CENTER);
    }
}

/// A tag-3 table from its fields (see `ebtrain_encoding::rans`): the two
/// hit probabilities, `top`, the presence bits, and per used symbol its
/// 4-bit length field and stored mantissa bits; then 4 state bytes and
/// a few coder bytes, which no table check reaches.
fn crafted_table(p_hit: [u64; 2], top: u64, present: &[u64], freqs: &[(u64, u64, u32)]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(p_hit[0], 12);
    w.write_bits(p_hit[1], 12);
    w.write_bits(top, 7);
    for &bit in present {
        w.write_bits(bit, 1);
    }
    for &(len, mant, mant_bits) in freqs {
        w.write_bits(len, 4);
        w.write_bits(mant, mant_bits);
    }
    let mut bytes = w.finish();
    bytes.extend_from_slice(&[0x00, 0x80, 0x00, 0x00, 1, 2, 3]);
    bytes
}

#[test]
fn corrupt_rans_tables_are_rejected() {
    let decode = |bytes: &[u8]| rans::decode_block(bytes, 4, 100);
    // Anchor (field 13) plus 1024 (bit length 11, mantissa 000): valid.
    let ok = crafted_table([2048, 2048], 2, &[1], &[(13, 0, 0), (11, 0, 3)]);
    assert!(!matches!(decode(&ok), Err(CodecError::Corrupt(m)) if m.contains("table")));
    let cases: [(Vec<u8>, &str); 6] = [
        // Frequencies that leave the anchor nothing: 2048 + 2048.
        (
            crafted_table(
                [2048, 2048],
                3,
                &[1, 1],
                &[(13, 0, 0), (12, 0, 3), (12, 0, 3)],
            ),
            "rans frequencies do not sum to 4096",
        ),
        // Two fixed frequencies and no anchor.
        (
            crafted_table([2048, 2048], 2, &[1], &[(12, 0, 3), (12, 0, 3)]),
            "rans table without an anchor",
        ),
        // A used symbol whose frequency field is 0.
        (
            crafted_table([2048, 2048], 2, &[1], &[(13, 0, 0), (0, 0, 0)]),
            "rans used symbol with frequency 0",
        ),
        // A class index past the 65-symbol alphabet (top 66 ≤ 127).
        (
            crafted_table([2048, 2048], 66, &[0; 65], &[(13, 0, 0)]),
            "rans class index beyond the alphabet",
        ),
        // Hit probability 0 in either context; 4096 does not fit the
        // 12-bit field.
        (
            crafted_table([0, 2048], 1, &[], &[(13, 0, 0)]),
            "rans hit probability outside (0, 1)",
        ),
        (
            crafted_table([2048, 0], 1, &[], &[(13, 0, 0)]),
            "rans hit probability outside (0, 1)",
        ),
    ];
    for (bytes, want) in cases {
        assert_eq!(decode(&bytes), Err(CodecError::Corrupt(want)));
    }
}

/// A tag-3 block captured from the encoder that introduced the tag: it
/// still decodes, and only at its exact length.
#[test]
fn frozen_tag3_block_decodes_only_at_its_length() {
    let center = 1000u32;
    let codes = [
        center,
        center + 1,
        center - 1,
        center + 300,
        0,
        u32::MAX,
        center,
        center,
        center - 77,
        center + 5000,
    ];
    let bytes = [
        42, 184, 0, 131, 128, 8, 144, 128, 0, 0, 0, 1, 180, 104, 209, 163, 70, 136, 5, 228, 20,
        150, 38, 65, 109, 0, 196, 101, 46, 248, 255, 255, 231, 88,
    ];
    assert_eq!(
        rans::decode_block(&bytes, codes.len(), center).unwrap(),
        codes
    );
    assert_eq!(rans::encode_block(&codes, center), bytes);
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(rans::decode_block(&longer, codes.len(), center).is_err());
    assert!(rans::decode_block(&bytes[..bytes.len() - 1], codes.len(), center).is_err());
}

/// Quantization-code-shaped symbols: center-clustered, with occasional
/// outlier-marker zeros and full-range extremes.
fn symbol_stream(center: u32) -> impl Strategy<Value = Vec<u32>> {
    let near = center.saturating_sub(40)..center.saturating_add(40).max(1);
    prop_oneof![
        5 => prop::collection::vec(near, 0..3000),
        2 => prop::collection::vec(Just(center), 0..3000),
        1 => prop::collection::vec(any::<u32>(), 0..300),
        1 => prop::collection::vec(Just(0u32), 0..300),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symbol_blocks_roundtrip_at_any_center(
        center in prop_oneof![Just(0u32), Just(1u32), Just(512u32), Just(32_768u32), Just(u32::MAX), any::<u32>()],
        seed_codes in symbol_stream(512),
    ) {
        // Rebase the generated codes around the chosen center so the
        // stream still clusters where the model expects structure.
        let codes: Vec<u32> = seed_codes
            .iter()
            .map(|&c| center.wrapping_add(c.wrapping_sub(512)))
            .collect();
        let bytes = range::encode_block(&codes, center);
        let back = range::decode_block(&bytes, codes.len(), center).unwrap();
        prop_assert_eq!(back, codes);
    }

    #[test]
    fn truncated_symbol_streams_never_panic(
        codes in prop::collection::vec(0u32..100_000, 1..500),
        cut_num in 0u32..1000,
    ) {
        let center = 50_000u32;
        let bytes = range::encode_block(&codes, center);
        let cut = (cut_num as usize * bytes.len()) / 1000;
        // Truncation yields garbage symbols or an error — never a panic
        // or runaway allocation (the caller's n bounds every alloc).
        assert_rejected_or_wrong(&bytes[..cut], &codes, center);
    }

    #[test]
    fn rans_blocks_roundtrip_like_tag_2_at_any_center(
        center in prop_oneof![Just(0u32), Just(1u32), Just(512u32), Just(32_768u32), Just(u32::MAX), any::<u32>()],
        seed_codes in symbol_stream(512),
    ) {
        let codes: Vec<u32> = seed_codes
            .iter()
            .map(|&c| center.wrapping_add(c.wrapping_sub(512)))
            .collect();
        let bytes = rans::encode_block(&codes, center);
        prop_assert_eq!(rans::decode_block(&bytes, codes.len(), center).unwrap(), codes);
    }

    #[test]
    fn adversarial_bytes_never_panic_or_overrun(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        n in 0usize..300,
        center in prop_oneof![Just(0u32), Just(32_768u32), Just(u32::MAX)],
    ) {
        // Every layout: a typed error or exactly n symbols.
        let decoded = [
            range::decode_block(&bytes, n, center),
            rans::decode_block(&bytes, n, center),
        ];
        for symbols in decoded.into_iter().flatten() {
            prop_assert_eq!(symbols.len(), n);
        }
    }
}
