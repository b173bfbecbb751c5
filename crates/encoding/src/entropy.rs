//! The pluggable **entropy-stage seam**: one tag byte, three backends.
//!
//! Chunk-framed streams record, per frame, which entropy coder produced
//! the frame's payload:
//!
//! | tag | backend | payload |
//! |-----|---------|---------|
//! | `0` | [`huffman`] | table-less canonical-Huffman block (`varint n · varint bits_len · bits`) |
//! | `2` | [`range`] | range-coder bytes, then the raw mantissa bits as a side stream stored backward from the payload's end |
//! | `3` | [`rans`] | the frame's static two-context table, the rANS state and bytes, then tag 2's side stream |
//!
//! Tag `1` was the range coder's first layout (raw mantissa bits inside
//! the coder). It is retired: no encoder writes it, and the byte is
//! rejected like any other unknown tag.
//!
//! Tags 2 and 3 code the same symbols (hit flag, gamma class, top
//! mantissa bit; the bits below bypass the coder). Tag 2 adapts one
//! binary decision per modeled bit — about six per deep-alphabet symbol —
//! and needs no table; tag 3 spends a per-frame table (≈ 25 bytes on a
//! 4096-symbol gradient frame) to code a symbol in one or two table
//! steps. On symbols captured from the ring benchmark's range frames
//! (best of 7 on a shared 2-vCPU host) tag 2 encodes at ≈ 38 and decodes
//! at ≈ 48 ns/symbol, tag 3 at ≈ 18 and ≈ 13, for +0.6 % bytes.
//!
//! No payload carries a trailing LZ pass: entropy-coded bytes are
//! near-incompressible on mid/high-entropy chunks, and the skewed chunks
//! where run collapsing would pay route to the range coder (whose
//! run-context bit model absorbs the runs). Every backend is lossless
//! over the symbol stream, so per-chunk selection can never change
//! decoded values — only the bytes in between.

use crate::{huffman, range, rans, CodecError, Result};

/// Per-frame entropy-stage tag (one byte on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntropyStageTag {
    /// Shared-codebook canonical Huffman (table-less block).
    Huffman = 0,
    /// Codebook-free adaptive binary range coder.
    Range = 2,
    /// Static two-context rANS with a per-frame table.
    Rans = 3,
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
            2 => Ok(EntropyStageTag::Range),
            3 => Ok(EntropyStageTag::Rans),
            _ => Err(CodecError::Corrupt("unknown entropy-stage tag")),
        }
    }
}

/// Encode-side backend handle: borrows the shared codebook (Huffman) or
/// carries the fold center (range, rANS). One `encode_block` call
/// appends the full frame payload for its tag.
#[derive(Clone, Copy)]
pub enum EntropyEncoder<'a> {
    Huffman(&'a huffman::Codebook),
    Range { center: u32 },
    Rans { center: u32 },
}

impl EntropyEncoder<'_> {
    /// The tag this encoder writes.
    pub fn tag(&self) -> EntropyStageTag {
        match self {
            EntropyEncoder::Huffman(_) => EntropyStageTag::Huffman,
            EntropyEncoder::Range { .. } => EntropyStageTag::Range,
            EntropyEncoder::Rans { .. } => EntropyStageTag::Rans,
        }
    }

    /// Entropy-code one chunk's symbols, appending the frame payload to
    /// `out`. The per-frame backend choice and its payload bytes are
    /// counted in the metrics registry (`encoding.entropy.huffman` /
    /// `.range` / `.rans`, each with a `.bytes` twin, and `.range.raw_bytes`
    /// / `.rans.raw_bytes`: what bypassed the coder), making the
    /// auto-selector's routing — and what it bought — observable per run.
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
            EntropyEncoder::Rans { center } => {
                let raw = rans::encode_block_into(codes, *center, out);
                ebtrain_obs::counter_add("encoding.entropy.rans.raw_bytes", raw as u64);
                ("encoding.entropy.rans", "encoding.entropy.rans.bytes")
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
    Rans { center: u32 },
}

impl EntropyDecoder<'_> {
    /// Check, without decoding, that `payload` can hold `n` symbols:
    /// the Huffman block's own count and bitstream length, or the range
    /// family's symbols per byte ([`range::check_count`],
    /// [`rans::check_count`]). Every payload the encoder writes passes;
    /// [`decode_block`](Self::decode_block) checks the same before it
    /// reserves anything, so a caller that sizes one buffer for several
    /// frames can check them all first.
    pub fn check_count(&self, payload: &[u8], n: usize) -> Result<()> {
        match *self {
            EntropyDecoder::Huffman(_) => huffman::check_block(payload, n),
            EntropyDecoder::Range { .. } => range::check_count(payload, n),
            EntropyDecoder::Rans { .. } => rans::check_count(payload, n),
        }
    }

    /// Decode a frame payload back to exactly `n` symbols. A count the
    /// payload cannot hold is rejected (see
    /// [`check_count`](Self::check_count)) before anything is reserved;
    /// trailing payload bytes are corruption. Each
    /// decoded frame and its symbols are counted per backend
    /// (`encoding.entropy_decode.{huffman,range,rans}` and `.symbols`),
    /// so a scrape can say which coder the decode time went to.
    pub fn decode_block(&self, payload: &[u8], n: usize) -> Result<Vec<u32>> {
        let (codes, frames, symbols) = match *self {
            EntropyDecoder::Huffman(decoder) => {
                let mut pos = 0usize;
                let codes = decoder.decode_block(payload, &mut pos, n)?;
                if pos != payload.len() {
                    return Err(CodecError::Corrupt("trailing bytes in huffman block"));
                }
                (
                    codes,
                    "encoding.entropy_decode.huffman",
                    "encoding.entropy_decode.huffman.symbols",
                )
            }
            EntropyDecoder::Range { center } => (
                range::decode_block(payload, n, center)?,
                "encoding.entropy_decode.range",
                "encoding.entropy_decode.range.symbols",
            ),
            EntropyDecoder::Rans { center } => (
                rans::decode_block(payload, n, center)?,
                "encoding.entropy_decode.rans",
                "encoding.entropy_decode.rans.symbols",
            ),
        };
        ebtrain_obs::counter_add(frames, 1);
        ebtrain_obs::counter_add(symbols, n as u64);
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
            EntropyStageTag::Range,
            EntropyStageTag::Rans,
        ] {
            assert_eq!(EntropyStageTag::from_u8(tag.as_u8()).unwrap(), tag);
        }
        assert_eq!(EntropyStageTag::Range.as_u8(), 2);
        assert_eq!(EntropyStageTag::Rans.as_u8(), 3);
        // Tag 1 is the retired first range layout.
        assert!(EntropyStageTag::from_u8(1).is_err());
        assert!(EntropyStageTag::from_u8(4).is_err());
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
            (
                EntropyEncoder::Rans { center },
                EntropyDecoder::Rans { center },
            ),
        ] {
            let mut payload = Vec::new();
            enc.encode_block(&codes, &mut payload);
            let back = dec.decode_block(&payload, codes.len()).unwrap();
            assert_eq!(back, codes, "{:?} backend", enc.tag());
        }
    }

    /// The densest payloads the range family writes — a long run of
    /// hits, each near the coders' cheapest — stay inside the payload
    /// bound, and a count beyond it fails before anything is reserved.
    #[test]
    fn all_hit_blocks_pass_the_payload_bound() {
        let codes = vec![77u32; 1 << 20];
        for (enc, dec) in [
            (
                EntropyEncoder::Range { center: 77 },
                EntropyDecoder::Range { center: 77 },
            ),
            (
                EntropyEncoder::Rans { center: 77 },
                EntropyDecoder::Rans { center: 77 },
            ),
        ] {
            let mut payload = Vec::new();
            enc.encode_block(&codes, &mut payload);
            assert_eq!(dec.check_count(&payload, codes.len()), Ok(()));
            assert_eq!(dec.decode_block(&payload, codes.len()).unwrap(), codes);
            assert!(dec.check_count(&payload, usize::MAX).is_err());
            assert!(dec.decode_block(&payload, usize::MAX).is_err());
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
        for (enc, dec) in [
            (
                EntropyEncoder::Range { center: 1000 },
                EntropyDecoder::Range { center: 1000 },
            ),
            (
                EntropyEncoder::Rans { center: 1000 },
                EntropyDecoder::Rans { center: 1000 },
            ),
        ] {
            let mut payload = Vec::new();
            enc.encode_block(&codes, &mut payload);
            assert_eq!(dec.decode_block(&payload, codes.len()).unwrap(), codes);
            for extra in [0u8, 0xFF] {
                let mut longer = payload.clone();
                longer.push(extra);
                assert!(dec.decode_block(&longer, codes.len()).is_err());
            }
        }
    }

    #[test]
    fn a_huffman_block_claiming_more_symbols_than_its_frame_fails_first() {
        // 32 zero bytes decode as 256 one-bit codes, so a block claiming
        // 256 symbols is self-consistent; framed as 8 it claims 32× its
        // count. The count check must come before the decode sizes
        // anything from the block's own varint.
        let codebook = huffman::Codebook::from_freqs(&huffman::count_freqs(&[5, 5, 9]));
        let mut table = Vec::new();
        codebook.serialize(&mut table);
        let decoder = huffman::Decoder::deserialize(&table, &mut 0).unwrap();
        let mut block = Vec::new();
        crate::varint::write_usize(&mut block, 256);
        crate::varint::write_usize(&mut block, 32);
        block.extend_from_slice(&[0; 32]);
        let dec = EntropyDecoder::Huffman(&decoder);
        assert_eq!(dec.decode_block(&block, 256).unwrap().len(), 256);
        assert_eq!(
            dec.decode_block(&block, 8),
            Err(CodecError::Corrupt("huffman block count mismatch"))
        );
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
