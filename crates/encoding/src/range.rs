//! Codebook-free adaptive **binary range coder** — the second entropy
//! backend selectable per chunk frame (see [`crate::entropy`]).
//!
//! The coder keeps a 32-bit `[low, high]` interval and splits it at every
//! step by a 12-bit adaptive probability (carry-less renormalization: a
//! byte is emitted whenever the top bytes of `low` and `high` agree, as in
//! lpaq-family coders). No table is ever serialized: the probability
//! models start from 1/2 on both sides and adapt symmetrically, so the
//! decoder reconstructs the exact model trajectory from the bits alone.
//!
//! On top of the bit coder sits a symbol layer tuned to quantization
//! codes: values are folded (zigzag) around a caller-supplied *center*
//! (the quantizer's zero point, where Lorenzo-residual histograms peak)
//! and coded as a run-context "hit" flag plus an adaptive Elias-gamma
//! magnitude. Skewed histograms cost ~a saturated bit per element —
//! denser *and* cheaper than a 1-bit-minimum Huffman code — while wide
//! histograms (tight bounds) avoid deep-codebook and table-serialization
//! overhead entirely.
//!
//! The block layout is entropy **tag 2** ([`encode_block`]): it codes the
//! hit flag, the length class and the top mantissa bit; the near-uniform
//! bits below it bypass the coder (as CABAC's bypass bins do) into a side
//! stream stored backward from the payload's end, so no length field sits
//! between the two and a block without raw bits has no side bytes. The
//! coder's first layout, tag 1, coded those bits in place; it is retired
//! and its tag byte is rejected like any unknown tag.

use crate::{CodecError, Result};

/// Probability precision: models hold `P(bit = 1)` scaled to 12 bits.
const PROB_BITS: u32 = 12;
const PROB_ONE: u32 = 1 << PROB_BITS;
/// Adaptation rate: each update moves the estimate 1/32 toward the
/// observed bit. Fast enough to saturate within a chunk, slow enough not
/// to thrash on noisy symbols.
const ADAPT_SHIFT: u32 = 5;

/// Longest magnitude-class unary prefix: zigzagged u32 deltas span
/// `[0, 2^33)`, so the gamma bit-length never exceeds 33. Anything longer
/// in a stream is corruption.
const MAX_GAMMA_BITS: usize = 33;

/// Mantissa bits modeled adaptively, counted down from the leading one;
/// deeper bits of a Laplacian residual are near-uniform. A second modeled
/// bit (tag 1 had one) is worth 0.4–1 % on narrow blocks, ≤ 0.07 % of
/// the training benchmarks' ratio, and a coder step per symbol.
const MODELED_MANT_BITS: usize = 1;

/// One adaptive binary probability (12-bit, 1/32 update rate).
#[derive(Clone, Copy, Debug)]
pub struct BitModel {
    p: u16,
}

impl BitModel {
    /// Fresh model: both bits equally likely.
    pub fn new() -> BitModel {
        BitModel {
            p: (PROB_ONE / 2) as u16,
        }
    }

    #[inline(always)]
    fn update(&mut self, bit: u32) {
        if bit == 1 {
            self.p += ((PROB_ONE - self.p as u32) >> ADAPT_SHIFT) as u16;
        } else {
            self.p -= self.p >> ADAPT_SHIFT;
        }
    }
}

impl Default for BitModel {
    fn default() -> Self {
        BitModel::new()
    }
}

/// Interval split point for `P(bit = 1) = p / 4096` (the two-term form
/// keeps the 12-bit product inside u32).
#[inline(always)]
fn split(low: u32, high: u32, p: u32) -> u32 {
    let range = high - low;
    low + (range >> PROB_BITS) * p + (((range & (PROB_ONE - 1)) * p) >> PROB_BITS)
}

/// Encoder half of the bit coder.
pub struct RangeEncoder {
    low: u32,
    high: u32,
    out: Vec<u8>,
}

impl RangeEncoder {
    pub fn new() -> RangeEncoder {
        RangeEncoder {
            low: 0,
            high: u32::MAX,
            out: Vec::new(),
        }
    }

    /// Code one bit under `model`, then adapt the model.
    ///
    /// The encoder knows the bit before the interval does, and on wide
    /// alphabets it is a coin flip, so the model step (the same step as
    /// the decoder's `BitModel::update`, pinned by test) and the interval
    /// half are masked in rather than branched on. The decoder keeps its
    /// branches: there the bit is the *result* of a compare, and on the
    /// skewed chunks routed to this coder it predicts well.
    #[inline(always)]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: u32) {
        let p = model.p as u32;
        let mid = split(self.low, self.high, p);
        let one = ((bit == 1) as u32).wrapping_neg(); // all ones iff bit == 1
        let step = (((PROB_ONE - p) >> ADAPT_SHIFT) & one).wrapping_sub((p >> ADAPT_SHIFT) & !one);
        model.p = p.wrapping_add(step) as u16;
        self.narrow(mid, one);
    }

    /// Keep `[low, mid]` when `one` is all ones, `[mid + 1, high]` when
    /// it is zero, then shift out the bytes both ends agree on.
    #[inline(always)]
    fn narrow(&mut self, mid: u32, one: u32) {
        self.high = (mid & one) | (self.high & !one);
        self.low = (self.low & one) | ((mid + 1) & !one);
        while (self.low ^ self.high) & 0xFF00_0000 == 0 {
            self.out.push((self.high >> 24) as u8);
            self.low <<= 8;
            self.high = (self.high << 8) | 0xFF;
        }
    }

    /// Flush: emit a full codeword inside `[low, high]` so the decoder
    /// lands in the final interval regardless of zero padding.
    pub fn finish(mut self) -> Vec<u8> {
        self.out.extend_from_slice(&self.high.to_be_bytes());
        self.out
    }
}

impl Default for RangeEncoder {
    fn default() -> Self {
        RangeEncoder::new()
    }
}

/// Decoder half: mirrors the encoder's interval arithmetic exactly.
/// Reads past the end of the input yield zero bytes — framing above this
/// layer bounds the symbol count, so truncation surfaces as garbage
/// symbols caught by the caller's structural checks, never as a panic.
pub struct RangeDecoder<'a> {
    low: u32,
    high: u32,
    code: u32,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    pub fn new(bytes: &'a [u8]) -> RangeDecoder<'a> {
        let mut d = RangeDecoder {
            low: 0,
            high: u32::MAX,
            code: 0,
            bytes,
            pos: 0,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline(always)]
    fn next_byte(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decode one bit under `model`, then adapt the model.
    #[inline(always)]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> u32 {
        let mid = split(self.low, self.high, model.p as u32);
        let bit = (self.code <= mid) as u32;
        if bit == 1 {
            self.high = mid;
        } else {
            self.low = mid + 1;
        }
        model.update(bit);
        self.shift_in();
        bit
    }

    #[inline(always)]
    fn shift_in(&mut self) {
        while (self.low ^ self.high) & 0xFF00_0000 == 0 {
            self.low <<= 8;
            self.high = (self.high << 8) | 0xFF;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
    }
}

/// Adaptive model for center-folded quantization codes: a run-context hit
/// flag (was the previous symbol also the center?) plus an adaptive
/// Elias-gamma magnitude (unary length class, then mantissa bits, every
/// bit under its own adaptive probability).
pub struct SymbolModel {
    hit: [BitModel; 2],
    len: [BitModel; MAX_GAMMA_BITS + 1],
    mant: [BitModel; MAX_GAMMA_BITS],
    prev_hit: usize,
}

impl SymbolModel {
    pub fn new() -> SymbolModel {
        SymbolModel {
            hit: [BitModel::new(); 2],
            len: [BitModel::new(); MAX_GAMMA_BITS + 1],
            mant: [BitModel::new(); MAX_GAMMA_BITS],
            prev_hit: 1,
        }
    }
}

impl Default for SymbolModel {
    fn default() -> Self {
        SymbolModel::new()
    }
}

/// Fold `v` around `center`: 0 for the center itself, then alternating
/// above/below distances (the Laplacian-friendly zigzag). Branch-free:
/// on a wide alphabet the side of the center is a coin flip.
#[inline(always)]
pub(crate) fn fold(v: u32, center: u32) -> u64 {
    let d = v as i64 - center as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`fold`]; errors when the stream names a value outside u32.
#[inline(always)]
pub(crate) fn unfold(m: u64, center: u32) -> Result<u32> {
    // Odd m lies below the center: −(m/2) − 1 is m/2 with every bit flipped.
    let v = center as i64 + ((m >> 1) as i64 ^ -((m & 1) as i64));
    u32::try_from(v).map_err(|_| {
        CodecError::Corrupt(if v < 0 {
            "range symbol below zero"
        } else {
            "range symbol above u32"
        })
    })
}

/// Entropy-code a block of symbols around `center`. The symbol count is
/// *not* stored — framing above this layer carries it (the chunk layout
/// fixes it), exactly as the Huffman block stores only what the decoder
/// cannot derive.
pub fn encode_block(codes: &[u32], center: u32) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block_into(codes, center, &mut out);
    out
}

/// [`encode_block`], appending to `out` (a frame buffer the caller
/// reuses across chunks). Returns the side stream's share of the bytes.
pub fn encode_block_into(codes: &[u32], center: u32, out: &mut Vec<u8>) -> usize {
    // The chunks routed here — near-constant ones, and deep alphabets at
    // about a byte per symbol — rarely outgrow this reservation.
    out.reserve(codes.len() + 4);
    let mut enc = RangeEncoder {
        low: 0,
        high: u32::MAX,
        out: std::mem::take(out),
    };
    let mut model = SymbolModel::new();
    let mut side = SideWriter::default();
    for &v in codes {
        let m = fold(v, center);
        if m == 0 {
            enc.encode_bit(&mut model.hit[model.prev_hit], 1);
            model.prev_hit = 1;
        } else {
            enc.encode_bit(&mut model.hit[model.prev_hit], 0);
            model.prev_hit = 0;
            // Gamma: k = floor(log2(m)) as an adaptive unary class, then
            // the k mantissa bits below the leading one.
            let k = (63 - m.leading_zeros()) as usize;
            for i in 0..k {
                enc.encode_bit(&mut model.len[i], 1);
            }
            enc.encode_bit(&mut model.len[k], 0);
            let raw_below = k.saturating_sub(MODELED_MANT_BITS);
            for i in (raw_below..k).rev() {
                enc.encode_bit(&mut model.mant[i], ((m >> i) & 1) as u32);
            }
            side.put(m, raw_below);
        }
    }
    *out = enc.finish();
    side.append_reversed(out)
}

/// Tag 2's raw-bit writer (tag 3 shares it): bits MSB-first, symbol
/// after symbol, the last byte zero-padded.
#[derive(Default)]
pub(crate) struct SideWriter {
    /// Bits staged in the low end, fewer than 32 between calls.
    acc: u64,
    bits: usize,
    bytes: Vec<u8>,
}

impl SideWriter {
    /// Append the low `n ≤ 32` bits of `value`.
    #[inline(always)]
    pub(crate) fn put(&mut self, value: u64, n: usize) {
        self.acc = (self.acc << n) | (value & ((1 << n) - 1));
        self.bits += n;
        if self.bits >= 32 {
            self.bits -= 32;
            self.bytes
                .extend_from_slice(&((self.acc >> self.bits) as u32).to_be_bytes());
        }
    }

    /// Pad, append the stream to `out` backward, and return its length.
    pub(crate) fn append_reversed(mut self, out: &mut Vec<u8>) -> usize {
        while self.bits >= 8 {
            self.bits -= 8;
            self.bytes.push((self.acc >> self.bits) as u8);
        }
        if self.bits > 0 {
            self.bytes.push((self.acc << (8 - self.bits)) as u8);
        }
        out.extend(self.bytes.iter().rev());
        self.bytes.len()
    }
}

/// Tag 2's raw bits, read backward from the end of the payload: `n` bits
/// buffered in `acc`, `used` handed out. Past the payload's start they
/// read as zeros, which the length check then rejects.
#[derive(Default)]
pub(crate) struct SideStream {
    acc: u64,
    n: usize,
    used: usize,
}

impl SideStream {
    /// Bytes the bits handed out so far occupy.
    pub(crate) fn bytes_used(&self) -> usize {
        self.used.div_ceil(8)
    }

    /// Hand out the next `n ≤ 32` bits.
    #[inline(always)]
    pub(crate) fn take(&mut self, bytes: &[u8], n: usize) -> u64 {
        while self.n < n {
            // Side byte j is bytes[len − 1 − j]: four at once are one
            // little-endian load, while they lie inside the payload.
            let j = (self.used + self.n) / 8;
            if let Some(end) = bytes.len().checked_sub(j).filter(|&end| end >= 4) {
                let word = u32::from_le_bytes(bytes[end - 4..end].try_into().expect("4 bytes"));
                self.acc = (self.acc << 32) | word as u64;
                self.n += 32;
            } else {
                let i = bytes.len().checked_sub(j + 1);
                self.acc = (self.acc << 8) | i.map_or(0, |i| bytes[i]) as u64;
                self.n += 8;
            }
        }
        self.n -= n;
        self.used += n;
        (self.acc >> self.n) & ((1 << n) - 1)
    }
}

/// Reject a count of more symbols than the tag-2 payload `bytes` can
/// hold, before anything is sized from it; every payload the encoder
/// writes passes. A model's probability stays in `[31, 4065] / 4096`
/// (the 1/32 update stops there), so a decision keeps at most
/// `(1 + 4065/4096) / 2` of the interval even at the smallest width a
/// renormalised interval has, and costs more than 1/184 bit. The
/// interval starts 32 bits wide and gains 8 per byte the coder reads
/// after its first four; every symbol takes at least one decision, and
/// the coder reads at most the payload's bytes, so a payload holds fewer
/// than `8 · 184` symbols per byte.
pub fn check_count(bytes: &[u8], n: usize) -> Result<()> {
    if n > bytes.len().saturating_mul(8 * 184) {
        return Err(CodecError::Corrupt("range symbol count exceeds payload"));
    }
    Ok(())
}

/// Decode exactly `n` symbols coded by [`encode_block`] with the same
/// `center`. A count [`check_count`] refuses is rejected before the
/// output is reserved, and decoding stops once the coder has read past
/// the payload. Bytes the `n` symbols did not consume, or lacked, are
/// corruption.
pub fn decode_block(bytes: &[u8], n: usize, center: u32) -> Result<Vec<u32>> {
    check_count(bytes, n)?;
    let mut dec = RangeDecoder::new(bytes);
    let mut side = SideStream::default();
    let mut model = SymbolModel::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if dec.pos > bytes.len() {
            return Err(CodecError::Corrupt("range coder read past the payload"));
        }
        if dec.decode_bit(&mut model.hit[model.prev_hit]) == 1 {
            model.prev_hit = 1;
            out.push(center);
            continue;
        }
        model.prev_hit = 0;
        let mut k = 0usize;
        while dec.decode_bit(&mut model.len[k]) == 1 {
            k += 1;
            if k > MAX_GAMMA_BITS {
                return Err(CodecError::Corrupt("range gamma class overflow"));
            }
        }
        let mut m = 1u64;
        let raw_below = k.saturating_sub(MODELED_MANT_BITS);
        for i in (raw_below..k).rev() {
            m = (m << 1) | dec.decode_bit(&mut model.mant[i]) as u64;
        }
        m = (m << raw_below) | side.take(bytes, raw_below);
        out.push(unfold(m, center)?);
    }
    // The coder reads what its encoder wrote: the four flushed bytes up
    // front, then one per renormalisation, as the encoder shifted them.
    if dec.pos + side.bytes_used() != bytes.len() {
        return Err(CodecError::Corrupt("range payload length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_skewed_and_alternating() {
        let patterns: Vec<Vec<u32>> = vec![
            vec![1; 4000],
            vec![0; 4000],
            (0..4000).map(|i| (i % 2) as u32).collect(),
            (0..4000).map(|i| ((i * 7) % 5 == 0) as u32).collect(),
        ];
        for bits in patterns {
            let mut enc = RangeEncoder::new();
            let mut m = BitModel::new();
            for &b in &bits {
                enc.encode_bit(&mut m, b);
            }
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            let mut m = BitModel::new();
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(dec.decode_bit(&mut m), b, "bit {i}");
            }
        }
    }

    #[test]
    fn masked_encoder_step_matches_model_update_everywhere() {
        // Every probability state x both bits: the encoder's masked
        // model step must equal `BitModel::update`, or encoder and
        // decoder trajectories (and every tag-2 stream) diverge.
        for p in 1..PROB_ONE as u16 {
            for bit in [0u32, 1] {
                let mut want = BitModel { p };
                want.update(bit);
                let mut got = BitModel { p };
                RangeEncoder::new().encode_bit(&mut got, bit);
                assert_eq!(got.p, want.p, "p={p} bit={bit}");
            }
        }
    }

    #[test]
    fn skewed_bits_compress_far_below_raw() {
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for i in 0..32_768 {
            enc.encode_bit(&mut m, (i % 100 == 0) as u32);
        }
        let bytes = enc.finish();
        // 32768 bits at ~1% ones: an adaptive coder needs ~0.08 bpb.
        assert!(bytes.len() < 800, "got {} bytes", bytes.len());
    }

    #[test]
    fn symbol_block_roundtrip_extremes() {
        let center = 32_768u32;
        let blocks: Vec<Vec<u32>> = vec![
            vec![],
            vec![center],
            vec![0],
            vec![u32::MAX],
            vec![center; 5000],
            (0..5000u32).collect(),
            (0..5000)
                .map(|i| center.wrapping_add((i % 11) as u32) - 5)
                .collect(),
            vec![0, u32::MAX, center, center - 1, center + 1],
        ];
        for codes in blocks {
            let bytes = encode_block(&codes, center);
            let back = decode_block(&bytes, codes.len(), center).unwrap();
            assert_eq!(back, codes);
        }
    }

    #[test]
    fn center_zero_and_center_max_roundtrip() {
        for center in [0u32, 1, u32::MAX] {
            let codes: Vec<u32> = (0..200)
                .map(|i| center.wrapping_add(i).wrapping_sub(100))
                .collect();
            let bytes = encode_block(&codes, center);
            assert_eq!(decode_block(&bytes, codes.len(), center).unwrap(), codes);
        }
    }

    #[test]
    fn skewed_symbols_beat_one_bit_per_symbol() {
        let center = 32_768u32;
        let codes: Vec<u32> = (0..16_384)
            .map(|i| if i % 50 == 0 { center + 3 } else { center })
            .collect();
        let bytes = encode_block(&codes, center);
        assert!(
            bytes.len() * 8 < codes.len() / 2,
            "{} bytes for {} near-constant symbols",
            bytes.len(),
            codes.len()
        );
    }

    /// The coder's first layout (raw bits coded in place) is retired: its
    /// wire tag is refused before any payload byte reaches this decoder.
    #[test]
    fn retired_tag1_is_rejected_at_the_tag_byte() {
        use crate::entropy::EntropyStageTag;
        assert_eq!(
            EntropyStageTag::from_u8(1),
            Err(CodecError::Corrupt("unknown entropy-stage tag"))
        );
        assert_eq!(EntropyStageTag::from_u8(2), Ok(EntropyStageTag::Range));
    }

    #[test]
    fn raw_bits_bypass_the_coder() {
        // m = fold(8, 0) = 16: class 4, one modeled bit, three raw bits.
        let codes = [8u32; 8];
        let mut out = vec![0xAB];
        let side = encode_block_into(&codes, 0, &mut out);
        assert_eq!(side, 3, "8 symbols x 3 raw bits");
        assert_eq!(out[0], 0xAB, "appends after what the buffer held");
        assert_eq!(decode_block(&out[1..], codes.len(), 0).unwrap(), codes);
        // Hits and classes 0 and 1 (m = 1, 2, 3) have no raw bits, so no
        // side stream at all.
        assert_eq!(encode_block_into(&[5, 4, 6, 3], 5, &mut Vec::new()), 0);
    }

    #[test]
    fn truncated_payload_never_panics() {
        let center = 100u32;
        let codes: Vec<u32> = (0..500).map(|i| 90 + (i % 20) as u32).collect();
        let bytes = encode_block(&codes, center);
        for cut in 0..bytes.len() {
            // Must return (possibly wrong symbols or Err), never panic.
            let _ = decode_block(&bytes[..cut], codes.len(), center);
        }
    }
}
