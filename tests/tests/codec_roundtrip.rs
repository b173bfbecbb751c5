//! Backend-level round-trip properties that the per-codec contracts in
//! `codec_conformance.rs` do not state, on dense random data and sparse
//! activation-like data (the regime the paper trains in):
//!
//! * `sz` chunk framing — the error contract holds across chunk
//!   boundaries, serial and parallel paths produce identical bytes, and
//!   truncated framed streams are rejected.
//! * `sz::zfp_like` — fixed rate with per-4×4-block *relative* error:
//!   no absolute bound exists (that is the paper's §2.2 argument for SZ),
//!   but error must stay within a block-scaled envelope and tighten as
//!   the bit budget grows.

use ebtrain_sz::zfp_like::{self, ZfpLikeConfig};
use ebtrain_sz::{
    compress, compress_serial, decompress, decompress_bytes, decompress_serial, DataLayout,
    SzConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIDE: usize = 64;

/// Dense random field, uniform in [-scale, scale].
fn random_grid(seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SIDE * SIDE)
        .map(|_| rng.gen_range(-scale..scale))
        .collect()
}

/// Post-ReLU-like activations: smooth positive structure, ~60% exact
/// zeros — the sparsity pattern the zero filter exists for.
fn sparse_activations(seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SIDE * SIDE)
        .map(|i| {
            let y = (i / SIDE) as f32;
            let x = (i % SIDE) as f32;
            let v = (x * 0.11).sin() + (y * 0.07).cos() - 0.4 + rng.gen_range(-0.15..0.15);
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn corpora() -> Vec<(&'static str, Vec<f32>)> {
    vec![
        ("dense_random", random_grid(11, 1.0)),
        ("dense_random_large_scale", random_grid(12, 300.0)),
        ("sparse_activations", sparse_activations(13)),
    ]
}

#[test]
fn sz_chunk_framed_streams_respect_contracts_and_determinism() {
    // The block-parallel container (DESIGN.md §3): force multi-chunk
    // streams for every quantization mode, check the error contract
    // holds across chunk boundaries, that serial and parallel paths
    // produce identical bytes, and that truncation is rejected cleanly.
    for (name, data) in corpora() {
        for base in [
            SzConfig::vanilla(1e-3),
            SzConfig::classic(1e-3),
            SzConfig::with_error_bound(1e-3),
        ] {
            let cfg = SzConfig {
                chunk_planes: Some(7), // SIDE=64 rows -> 10 chunks
                ..base
            };
            let layout = DataLayout::D2(SIDE, SIDE);
            let buf = compress(&data, layout, &cfg).unwrap();
            assert_eq!(buf.num_chunks(), SIDE.div_ceil(7), "{name}");
            let ser = compress_serial(&data, layout, &cfg).unwrap();
            assert_eq!(buf.as_bytes(), ser.as_bytes(), "{name}: nondeterministic");

            let eb = 1e-3f32;
            for out in [decompress(&buf).unwrap(), decompress_serial(&buf).unwrap()] {
                assert_eq!(out.len(), data.len());
                for (i, (x, y)) in data.iter().zip(&out).enumerate() {
                    let bound = if cfg.zero_filter { 2.0 * eb } else { eb };
                    assert!(
                        (x - y).abs() <= bound,
                        "{name} idx {i}: |{x} - {y}| > {bound}"
                    );
                }
            }

            let bytes = buf.as_bytes();
            for cut in [3, bytes.len() / 3, bytes.len() - 1] {
                assert!(
                    decompress_bytes(&bytes[..cut]).is_err(),
                    "{name}: prefix of {cut} bytes decoded"
                );
            }
        }
    }
}

/// Max reconstruction error per 4×4 block, paired with the block's
/// maximum magnitude (the scale fixed-rate error is relative to).
fn per_block_errors(data: &[f32], out: &[f32]) -> Vec<(f32, f32)> {
    let mut blocks = Vec::new();
    for by in (0..SIDE).step_by(4) {
        for bx in (0..SIDE).step_by(4) {
            let mut maxabs = 0.0f32;
            let mut maxerr = 0.0f32;
            for dy in 0..4 {
                for dx in 0..4 {
                    let i = (by + dy) * SIDE + bx + dx;
                    maxabs = maxabs.max(data[i].abs());
                    maxerr = maxerr.max((data[i] - out[i]).abs());
                }
            }
            blocks.push((maxabs, maxerr));
        }
    }
    blocks
}

#[test]
fn zfp_like_error_is_block_relative_and_tightens_with_rate() {
    for (name, data) in corpora() {
        let mut worst_by_bits = Vec::new();
        for bits in [8u32, 16, 24] {
            let cfg = ZfpLikeConfig {
                bits_per_value: bits,
            };
            let packed = zfp_like::compress(&data, SIDE, SIDE, &cfg).unwrap();
            let out = zfp_like::decompress(&packed).unwrap();
            assert_eq!(out.len(), data.len(), "{name} bits={bits}");

            // Fixed rate: stream size is set by the config, not the data.
            let expect_bits = (SIDE * SIDE) as u32 * bits;
            let actual_bits = (packed.len() * 8) as u32;
            assert!(
                actual_bits as f64 <= expect_bits as f64 * 1.2 + 1024.0,
                "{name} bits={bits}: {actual_bits} stream bits vs nominal {expect_bits}"
            );

            // Per-block relative envelope: dropping (24 - bits) low
            // negabinary planes of a 2^-20-quantized block perturbs by at
            // most ~2^(4-bits) of the block scale; x8 covers the two-level
            // S-transform growth and truncation direction. All-zero blocks
            // must be exact.
            let envelope = 8.0 * (2.0f32).powi(4 - bits as i32);
            let mut worst_rel = 0.0f32;
            for (bi, (maxabs, maxerr)) in per_block_errors(&data, &out).iter().enumerate() {
                if *maxabs == 0.0 {
                    assert_eq!(*maxerr, 0.0, "{name} bits={bits} zero block {bi} not exact");
                } else {
                    let rel = maxerr / maxabs;
                    assert!(
                        rel <= envelope,
                        "{name} bits={bits} block {bi}: rel err {rel} > {envelope}"
                    );
                    worst_rel = worst_rel.max(rel);
                }
            }
            worst_by_bits.push(worst_rel);
        }
        // More rate, less error — the defining fixed-rate trade.
        assert!(
            worst_by_bits[0] > worst_by_bits[1] && worst_by_bits[1] > worst_by_bits[2],
            "{name}: worst rel errors {worst_by_bits:?} not decreasing in rate"
        );
    }
}
