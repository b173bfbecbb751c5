//! The pluggable **entropy-stage seam**: one tag byte, two backends.
//!
//! Chunk-framed streams record, per frame, which entropy coder produced
//! the frame's payload:
//!
//! | tag | backend | payload |
//! |-----|---------|---------|
//! | `0` | [`huffman`] | table-less canonical-Huffman block (`varint n · varint bits_len · bits`) |
//! | `1` | [`range`], decode-only | adaptive binary range-coder bytes, raw mantissa bits inside the coder |
//! | `2` | [`range`] | range-coder bytes, then the raw mantissa bits as a side stream stored backward from the payload's end |
//!
//! Neither payload carries a trailing LZ pass: entropy-coded bytes are
//! near-incompressible on mid/high-entropy chunks, and the skewed chunks
//! where run collapsing would pay route to the range coder (whose
//! run-context bit model absorbs the runs). Format-2 streams predate the
//! tag byte; their bodies decode as the implicit Huffman tag with the
//! historical LZ wrapper, which the frame layer strips before reaching
//! this seam. Both backends are lossless over the symbol stream, so
//! per-chunk selection can never change decoded values — only the bytes
//! in between.

use crate::{huffman, range, CodecError, Result};

/// Per-frame entropy-stage tag (one byte on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntropyStageTag {
    /// Shared-codebook canonical Huffman (table-less block).
    Huffman = 0,
    /// The range coder's first layout (decode-only).
    RangeV1 = 1,
    /// Codebook-free adaptive binary range coder.
    Range = 2,
}

impl EntropyStageTag {
    /// Wire byte for this tag.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parse a wire byte; unknown tags are corruption, not a fallback.
    pub fn from_u8(b: u8) -> Result<EntropyStageTag> {
        match b {
            0 => Ok(EntropyStageTag::Huffman),
            1 => Ok(EntropyStageTag::RangeV1),
            2 => Ok(EntropyStageTag::Range),
            _ => Err(CodecError::Corrupt("unknown entropy-stage tag")),
        }
    }
}

/// Encode-side backend handle: borrows the shared codebook (Huffman) or
/// carries the fold center (range). One `encode_block` call appends the
/// full frame payload for its tag.
#[derive(Clone, Copy)]
pub enum EntropyEncoder<'a> {
    Huffman(&'a huffman::Codebook),
    Range { center: u32 },
}

impl EntropyEncoder<'_> {
    /// The tag this encoder writes.
    pub fn tag(&self) -> EntropyStageTag {
        match self {
            EntropyEncoder::Huffman(_) => EntropyStageTag::Huffman,
            EntropyEncoder::Range { .. } => EntropyStageTag::Range,
        }
    }

    /// Entropy-code one chunk's symbols, appending the frame payload to
    /// `out`. The per-frame backend choice and its payload bytes are
    /// counted in the metrics registry (`encoding.entropy.huffman` /
    /// `.range`, each with a `.bytes` twin, and `.range.raw_bytes`: what
    /// bypassed the coder), making the auto-selector's routing — and what
    /// it bought — observable per run.
    pub fn encode_block(&self, codes: &[u32], out: &mut Vec<u8>) {
        let start = out.len();
        let (frames, bytes) = match self {
            EntropyEncoder::Huffman(codebook) => {
                codebook.encode_block(codes, out);
                ("encoding.entropy.huffman", "encoding.entropy.huffman.bytes")
            }
            EntropyEncoder::Range { center } => {
                let raw = range::encode_block_into(codes, *center, out);
                ebtrain_obs::counter_add("encoding.entropy.range.raw_bytes", raw as u64);
                ("encoding.entropy.range", "encoding.entropy.range.bytes")
            }
        };
        ebtrain_obs::counter_add(frames, 1);
        ebtrain_obs::counter_add(bytes, (out.len() - start) as u64);
    }
}

/// Decode-side backend handle, symmetric to [`EntropyEncoder`].
#[derive(Clone, Copy)]
pub enum EntropyDecoder<'a> {
    Huffman(&'a huffman::Decoder),
    Range { center: u32 },
    RangeV1 { center: u32 },
}

impl EntropyDecoder<'_> {
    /// Decode a frame payload back to exactly `n` symbols. `n` comes
    /// from validated framing (the chunk layout), which bounds every
    /// allocation here; trailing payload bytes are corruption.
    pub fn decode_block(&self, payload: &[u8], n: usize) -> Result<Vec<u32>> {
        let codes = match *self {
            EntropyDecoder::Huffman(decoder) => {
                let mut pos = 0usize;
                let codes = decoder.decode_block(payload, &mut pos)?;
                if pos != payload.len() {
                    return Err(CodecError::Corrupt("trailing bytes in huffman block"));
                }
                codes
            }
            EntropyDecoder::Range { center } => range::decode_block(payload, n, center)?,
            EntropyDecoder::RangeV1 { center } => range::decode_block_v1(payload, n, center)?,
        };
        if codes.len() != n {
            return Err(CodecError::Corrupt("code count mismatch"));
        }
        Ok(codes)
    }
}

/// Shannon entropy (bits/symbol) of a `(symbol, count)` histogram — the
/// cheap estimate per-chunk backend selection keys on.
pub fn histogram_entropy(freqs: &[(u32, u64)]) -> f64 {
    let total: u64 = freqs.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut h = 0.0;
    for &(_, c) in freqs {
        if c > 0 {
            let p = c as f64 / total_f;
            h -= p * p.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip_and_reject_unknown() {
        for tag in [
            EntropyStageTag::Huffman,
            EntropyStageTag::RangeV1,
            EntropyStageTag::Range,
        ] {
            assert_eq!(EntropyStageTag::from_u8(tag.as_u8()).unwrap(), tag);
        }
        assert_eq!(EntropyStageTag::Range.as_u8(), 2);
        assert!(EntropyStageTag::from_u8(3).is_err());
        assert!(EntropyStageTag::from_u8(0xFF).is_err());
    }

    #[test]
    fn both_backends_roundtrip_the_same_symbols() {
        let center = 512u32;
        let codes: Vec<u32> = (0..3000)
            .map(|i| match i % 7 {
                0 => center + 2,
                1..=4 => center,
                5 => center - 3,
                _ => 0, // outlier marker
            })
            .collect();
        let freqs = huffman::count_freqs(&codes);
        let codebook = huffman::Codebook::from_freqs(&freqs);
        let mut table = Vec::new();
        codebook.serialize(&mut table);
        let mut tpos = 0usize;
        let decoder = huffman::Decoder::deserialize(&table, &mut tpos).unwrap();

        for (enc, dec) in [
            (
                EntropyEncoder::Huffman(&codebook),
                EntropyDecoder::Huffman(&decoder),
            ),
            (
                EntropyEncoder::Range { center },
                EntropyDecoder::Range { center },
            ),
        ] {
            let mut payload = Vec::new();
            enc.encode_block(&codes, &mut payload);
            let back = dec.decode_block(&payload, codes.len()).unwrap();
            assert_eq!(back, codes, "{:?} backend", enc.tag());
        }
    }

    #[test]
    fn wrong_symbol_count_is_corruption() {
        let mut payload = Vec::new();
        EntropyEncoder::Range { center: 10 }.encode_block(&[10, 10, 11], &mut payload);
        let dec = EntropyDecoder::Range { center: 10 };
        assert!(dec.decode_block(&payload, 3).is_ok());
        // Asking for more symbols than encoded either errs or returns
        // garbage — but with a count mismatch it must err, never panic.
        let _ = dec.decode_block(&payload, 4);
    }

    #[test]
    fn trailing_bytes_in_a_range_payload_are_corruption() {
        let codes: Vec<u32> = (0..400).map(|i| 1000 + (i * 37 % 300)).collect();
        let mut payload = Vec::new();
        EntropyEncoder::Range { center: 1000 }.encode_block(&codes, &mut payload);
        let dec = EntropyDecoder::Range { center: 1000 };
        assert_eq!(dec.decode_block(&payload, codes.len()).unwrap(), codes);
        for extra in [0u8, 0xFF] {
            let mut longer = payload.clone();
            longer.push(extra);
            assert!(dec.decode_block(&longer, codes.len()).is_err());
        }
    }

    #[test]
    fn entropy_estimate_matches_known_distributions() {
        assert_eq!(histogram_entropy(&[]), 0.0);
        assert_eq!(histogram_entropy(&[(5, 100)]), 0.0);
        let h = histogram_entropy(&[(0, 50), (1, 50)]);
        assert!((h - 1.0).abs() < 1e-12);
        let h = histogram_entropy(&[(0, 25), (1, 25), (2, 25), (3, 25)]);
        assert!((h - 2.0).abs() < 1e-12);
    }
}
