//! Lossless comparator (§5.3 baseline class, ~2× on activation data).
//!
//! Byte-plane shuffle + Huffman + LZ: exactly reconstructs every bit, so
//! its ratio is capped by the entropy of the mantissa bits — the paper's
//! motivation for going lossy in the first place.

use crate::{Result, SzError};
use ebtrain_encoding::{byteplane, huffman, lz, varint};

/// Magic prefix "L1".
const MAGIC: [u8; 2] = [0x4C, 0x31];

/// Losslessly compress an f32 buffer.
pub fn compress(data: &[f32]) -> Vec<u8> {
    let planes = byteplane::shuffle_f32(data);
    // Entropy-code the shuffled bytes (captures the skew of exponent
    // planes and of zero-heavy activation data), then LZ the result to
    // collapse residual run structure.
    let symbols: Vec<u32> = planes.iter().map(|&b| b as u32).collect();
    let entropy = huffman::encode(&symbols);
    let payload = lz::compress(&entropy);
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&MAGIC);
    varint::write_usize(&mut out, data.len());
    out.extend_from_slice(&payload);
    out
}

/// Element count a stream's header declares, read without decoding the
/// body (the validate-before-alloc probe for untrusted streams).
pub fn declared_len(bytes: &[u8]) -> Result<usize> {
    if bytes.len() < 2 || bytes[0..2] != MAGIC {
        return Err(SzError::Corrupt("bad lossless magic".into()));
    }
    let mut pos = 2usize;
    varint::read_usize(bytes, &mut pos).map_err(|e| SzError::Corrupt(e.to_string()))
}

/// Decompress a [`compress`] stream; bit-exact.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    if bytes.len() < 2 || bytes[0..2] != MAGIC {
        return Err(SzError::Corrupt("bad lossless magic".into()));
    }
    let mut pos = 2usize;
    let n = varint::read_usize(bytes, &mut pos).map_err(|e| SzError::Corrupt(e.to_string()))?;
    let entropy = lz::decompress(&bytes[pos..]).map_err(|e| SzError::Corrupt(e.to_string()))?;
    let symbols = huffman::decode(&entropy).map_err(|e| SzError::Corrupt(e.to_string()))?;
    // Checked: `n` is the stream's own claim.
    if Some(symbols.len()) != n.checked_mul(4) {
        return Err(SzError::Corrupt("plane length mismatch".into()));
    }
    let planes: Vec<u8> = symbols.into_iter().map(|s| s as u8).collect();
    byteplane::unshuffle_f32(&planes).ok_or_else(|| SzError::Corrupt("misaligned planes".into()))
}

/// Compression ratio achieved on `data` (convenience for benchmarks).
pub fn ratio(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    (data.len() * 4) as f64 / compress(data).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bit_exact_roundtrip() {
        let mut rng = StdRng::seed_from_u64(31);
        let data: Vec<f32> = (0..10_000)
            .map(|_| f32::from_bits(rng.gen::<u32>()))
            .collect();
        let out = decompress(&compress(&data)).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relu_sparse_activations_land_in_lossless_regime() {
        // ~50% zeros + smooth positives: expect roughly the 2x the paper
        // cites for lossless compressors on activation data.
        let mut rng = StdRng::seed_from_u64(32);
        let data: Vec<f32> = (0..100_000)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(0.0f32..3.0)
                }
            })
            .collect();
        let r = ratio(&data);
        assert!(r > 1.4 && r < 4.0, "ratio {r} outside lossless regime");
    }

    #[test]
    fn lz_stage_earns_its_place_on_activations() {
        // fig13's activation class: the LZ pass after Huffman must save
        // at least 5 % over Huffman alone on the same shuffled planes.
        let data: Vec<f32> = (0..2048)
            .map(|i| ((i as f32 * 0.013).sin() + 0.25).max(0.0))
            .collect();
        let symbols: Vec<u32> = byteplane::shuffle_f32(&data)
            .iter()
            .map(|&b| b as u32)
            .collect();
        let huffman_only = huffman::encode(&symbols).len();
        let full = compress(&data).len();
        assert!(
            full as f64 <= 0.95 * huffman_only as f64,
            "shuffle+Huffman+LZ {full} B vs Huffman-only {huffman_only} B"
        );
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn corrupt_rejected() {
        let c = compress(&[1.0, 2.0, 3.0]);
        assert!(decompress(&c[..c.len() - 1]).is_err());
        assert!(decompress(&[9, 9, 9]).is_err());
    }
}
