//! Static two-context **rANS coder** — entropy-stage tag 3 (see
//! [`crate::entropy`]), for the deep-alphabet frames where the adaptive
//! binary range coder ([`crate::range`]) spends one decision on every
//! unary class bit.
//!
//! The symbols are tag 2's, merged into one alphabet: a code folded
//! around the center (see [`crate::range`]) is a *hit* (`m = 0`) or a
//! *miss* whose class symbol is gamma class 0 (`m = 1`) or the pair
//! (class k, top mantissa bit) for k = 1..=32 — 65 class symbols. The
//! mantissa bits below the top one go to tag 2's backward side stream,
//! unchanged. The model is static per frame and travels in the payload:
//! two contexts keyed on whether the previous symbol was a hit, each with
//! its own 12-bit hit probability, and one 12-bit class table both share.
//! A hit costs one rANS step (a binary split, no table); a miss costs that
//! step and one class step through a 4096-slot lookup. The coder is
//! ryg_rans' byte-wise one: a 32-bit state in `[2^23, 2^31)`, the encoder
//! running backward with reciprocal multiplies instead of divisions.
//!
//! Payload (`payload_len` bytes; no length field inside it):
//!
//! ```text
//! table      bit-packed MSB-first, zero-padded to a byte:
//!              p_hit[0]  12 bits  P(hit | previous symbol missed) · 4096
//!              p_hit[1]  12 bits  P(hit | previous symbol hit, or first)
//!              top        7 bits  highest used class symbol + 1 (0: none)
//!              present    top − 1 bits: symbols 0 ..= top − 2 used or not
//!              freq       per used symbol, ascending: a 4-bit field e,
//!                         1..=12: the frequency's bit length, followed
//!                         by its min(e − 1, 3) bits below the leading
//!                         one (the rest are zero); 13: the anchor, whose
//!                         frequency is 4096 minus the others'
//! state      4 bytes, big-endian: the encoder's final state
//! coder      the bytes renormalisation shifted out, in decode order
//! raw bits   tag 2's side stream, backward from the payload's end
//! ```
//!
//! The decoder rejects a hit probability of 0, a class index beyond the
//! alphabet, a used symbol whose frequency field is 0, a table without
//! exactly one anchor or whose frequencies leave the anchor nothing, a
//! final state other than the encoder's initial one, and a payload its
//! `n` symbols did not consume exactly.

use crate::bitio::{BitReader, BitWriter};
use crate::range::{fold, unfold, SideStream, SideWriter};
use crate::{CodecError, Result};

/// Every distribution sums to `2^SCALE_BITS`.
const SCALE_BITS: u32 = 12;
const M: u32 = 1 << SCALE_BITS;
const MASK: u32 = M - 1;
/// Bottom of the normalised state interval `[L, 2^31)`.
const RANS_L: u32 = 1 << 23;

/// Class symbols: gamma class 0, then (class k, top mantissa bit) for
/// k = 1..=32 (zigzagged u32 deltas stay below 2^33).
const CLASS_SYMBOLS: usize = 65;
/// A hit in the encoder's symbol buffer.
const HIT: u8 = u8::MAX;

/// Width of the table's `top` field (`top ≤ CLASS_SYMBOLS < 128`).
const TOP_BITS: u32 = 7;
/// Width of a frequency's length field, and its anchor value.
const FREQ_LEN_BITS: u32 = 4;
const FREQ_ANCHOR: u64 = 13;
/// Bits a stored frequency keeps below its leading one. Rounding to the
/// nearest such value costs a relative error ≤ 1/16 per entry, ≈ 0.001
/// bit per symbol against the 2–3 bits the table would spend on them.
const FREQ_MANT_BITS: u32 = 3;

/// A miss's class symbol and the number of raw mantissa bits below it.
#[inline(always)]
fn class_symbol(m: u64) -> (usize, usize) {
    let k = (63 - m.leading_zeros()) as usize;
    if k == 0 {
        (0, 0)
    } else {
        (2 * k - 1 + ((m >> (k - 1)) & 1) as usize, k - 1)
    }
}

/// Inverse of [`class_symbol`]: `m` without its raw bits, and their count.
#[inline(always)]
fn class_prefix(s: usize) -> (u64, usize) {
    if s == 0 {
        (1, 0)
    } else {
        (2 | ((s + 1) & 1) as u64, s.div_ceil(2) - 1)
    }
}

/// What a block's model is fitted to and priced on: per context (0: the
/// previous symbol missed; 1: it hit, or there is none) the symbol and
/// hit counts, the class histogram of the misses, and the raw bits.
#[derive(Clone, Debug)]
struct BlockStats {
    ctx_len: [u64; 2],
    ctx_hits: [u64; 2],
    class: [u64; CLASS_SYMBOLS],
    raw_bits: u64,
}

impl BlockStats {
    /// Count `codes`, which follow a symbol whose hit flag is `prev_hit`,
    /// handing `each` every folded code with its symbol ([`HIT`] or a
    /// class symbol) and raw-bit count (0 for a hit). Returns the last
    /// code's hit flag. Branch-free — hit or miss is a coin flip on the
    /// frames tag 3 takes — and the per-context counts are derived once at
    /// the end, so the loop's only memory updates are the class counts.
    #[inline(always)]
    fn scan(
        &mut self,
        codes: &[u32],
        center: u32,
        prev_hit: bool,
        mut each: impl FnMut(u64, u8, usize),
    ) -> bool {
        // Class counts, and the hits' in the extra slot.
        let mut class = [0u64; CLASS_SYMBOLS + 1];
        let (mut prev, mut hit_hit, mut raw_bits) = (prev_hit, 0u64, 0u64);
        for &v in codes {
            let m = fold(v, center);
            let hit = m == 0;
            hit_hit += (hit & prev) as u64;
            prev = hit;
            // A hit classifies as m = 1, which has no raw bits.
            let (s, raw) = class_symbol(m | hit as u64);
            let s = if hit { CLASS_SYMBOLS } else { s };
            class[s] += 1;
            raw_bits += raw as u64;
            each(m, if hit { HIT } else { s as u8 }, raw);
        }
        let hits = class[CLASS_SYMBOLS];
        for (total, &c) in self.class.iter_mut().zip(&class) {
            *total += c;
        }
        // The symbols after a hit: the first one if `prev_hit`, and one
        // per hit but the last code.
        let after_hit = prev_hit as u64 + hits - prev as u64;
        self.ctx_len[1] += after_hit;
        self.ctx_len[0] += codes.len() as u64 - after_hit;
        self.ctx_hits[1] += hit_hit;
        self.ctx_hits[0] += hits - hit_hit;
        self.raw_bits += raw_bits;
        prev
    }

    /// Σ count · log2(total / count) over the two hit/miss splits and the
    /// class histogram, plus the raw bits: the block's code length at its
    /// own exact probabilities, with no table.
    fn ideal_bits(&self) -> f64 {
        let entropy = |counts: &[u64]| {
            let total = counts.iter().sum::<u64>() as f64;
            counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| c as f64 * (total / c as f64).log2())
                .sum::<f64>()
        };
        (0..2)
            .map(|c| entropy(&[self.ctx_hits[c], self.ctx_len[c] - self.ctx_hits[c]]))
            .sum::<f64>()
            + entropy(&self.class)
            + self.raw_bits as f64
    }
}

impl Default for BlockStats {
    fn default() -> Self {
        BlockStats {
            ctx_len: [0; 2],
            ctx_hits: [0; 2],
            class: [0; CLASS_SYMBOLS],
            raw_bits: 0,
        }
    }
}

/// One frame's static model: per context the hit probability, and the
/// class table both contexts share (frequency 0: unused symbol).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Model {
    p_hit: [u32; 2],
    freq: [u32; CLASS_SYMBOLS],
    /// The used symbol whose frequency is implied (the most frequent).
    anchor: usize,
}

/// Round `f ∈ [1, 2048]` to the nearest frequency the table can store.
fn storable(f: u32) -> u32 {
    let len = 32 - f.leading_zeros();
    if len <= FREQ_MANT_BITS + 1 {
        return f;
    }
    let shift = len - 1 - FREQ_MANT_BITS;
    ((f + (1 << (shift - 1))) >> shift) << shift
}

/// The storable frequency just below the storable `f > 1`.
fn storable_below(f: u32) -> u32 {
    let len = 32 - f.leading_zeros();
    f - (1 << (len - 1).saturating_sub(FREQ_MANT_BITS))
}

impl Model {
    fn fit(st: &BlockStats) -> Model {
        let mut p_hit = [M / 2; 2];
        for (p, (&len, &hits)) in p_hit.iter_mut().zip(st.ctx_len.iter().zip(&st.ctx_hits)) {
            if let Some(q) = (hits * M as u64 + len / 2).checked_div(len) {
                *p = q.clamp(1, M as u64 - 1) as u32;
            }
        }
        let mut freq = [0u32; CLASS_SYMBOLS];
        let total: u64 = st.class.iter().sum();
        // The first most frequent symbol absorbs the rounding.
        let anchor = (0..CLASS_SYMBOLS)
            .rev()
            .max_by_key(|&s| st.class[s])
            .unwrap_or(0);
        if total > 0 {
            let mut rest = 0;
            for (s, &c) in st.class.iter().enumerate() {
                if c > 0 && s != anchor {
                    // No other symbol outweighs the anchor, so ≤ M / 2.
                    let scaled = (c * 2 * M as u64 + total) / (2 * total);
                    freq[s] = storable(scaled.max(1) as u32);
                    rest += freq[s];
                }
            }
            // Many flat entries rounded up can leave the anchor nothing:
            // trim the largest others until it keeps a slot.
            while rest >= M {
                let s = (0..CLASS_SYMBOLS)
                    .filter(|&s| s != anchor)
                    .max_by_key(|&s| freq[s])
                    .expect("rest > 0 has a contributor");
                let lower = storable_below(freq[s]);
                rest -= freq[s] - lower;
                freq[s] = lower;
            }
            freq[anchor] = M - rest;
        }
        Model {
            p_hit,
            freq,
            anchor,
        }
    }

    /// One past the highest used class symbol; 0 for a table of none.
    fn top(&self) -> usize {
        self.freq.iter().rposition(|&f| f > 0).map_or(0, |s| s + 1)
    }

    /// The length field and stored mantissa of a non-anchor frequency.
    fn freq_code(f: u32) -> (u32, u32, u32) {
        let len = 32 - f.leading_zeros();
        let mant_bits = (len - 1).min(FREQ_MANT_BITS);
        (
            len,
            mant_bits,
            (f >> (len - 1 - mant_bits)) & ((1 << mant_bits) - 1),
        )
    }

    fn table_bits(&self) -> usize {
        let top = self.top();
        let mut bits = 2 * SCALE_BITS + TOP_BITS + top.saturating_sub(1) as u32;
        for (s, &f) in self.freq.iter().enumerate() {
            if f > 0 {
                bits += FREQ_LEN_BITS;
                if s != self.anchor {
                    bits += Model::freq_code(f).1;
                }
            }
        }
        bits as usize
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut w = BitWriter::new();
        w.write_bits(self.p_hit[0] as u64, SCALE_BITS);
        w.write_bits(self.p_hit[1] as u64, SCALE_BITS);
        let top = self.top();
        w.write_bits(top as u64, TOP_BITS);
        for &f in self.freq.iter().take(top.saturating_sub(1)) {
            w.write_bits((f > 0) as u64, 1);
        }
        for (s, &f) in self.freq.iter().enumerate() {
            if f == 0 {
                continue;
            }
            if s == self.anchor {
                w.write_bits(FREQ_ANCHOR, FREQ_LEN_BITS);
            } else {
                let (len, mant_bits, mant) = Model::freq_code(f);
                w.write_bits(len as u64, FREQ_LEN_BITS);
                w.write_bits(mant as u64, mant_bits);
            }
        }
        out.extend_from_slice(&w.finish());
    }

    /// Parse and validate a table; returns it and its length in bytes.
    fn read(bytes: &[u8]) -> Result<(Model, usize)> {
        let mut r = BitReader::new(bytes);
        let mut p_hit = [0u32; 2];
        for p in &mut p_hit {
            *p = r.read_bits(SCALE_BITS)? as u32;
            if *p == 0 {
                return Err(CodecError::Corrupt("rans hit probability outside (0, 1)"));
            }
        }
        let top = r.read_bits(TOP_BITS)? as usize;
        if top > CLASS_SYMBOLS {
            return Err(CodecError::Corrupt("rans class index beyond the alphabet"));
        }
        let mut used = [false; CLASS_SYMBOLS];
        for u in used.iter_mut().take(top.saturating_sub(1)) {
            *u = r.read_bit()? == 1;
        }
        if top > 0 {
            used[top - 1] = true;
        }
        let mut freq = [0u32; CLASS_SYMBOLS];
        let (mut anchor, mut rest) = (None, 0u32);
        for s in (0..top).filter(|&s| used[s]) {
            match r.read_bits(FREQ_LEN_BITS)? {
                0 => return Err(CodecError::Corrupt("rans used symbol with frequency 0")),
                FREQ_ANCHOR if anchor.is_none() => anchor = Some(s),
                len @ 1..=12 => {
                    let len = len as u32;
                    let mant_bits = (len - 1).min(FREQ_MANT_BITS);
                    let mant = r.read_bits(mant_bits)? as u32;
                    freq[s] = ((1 << mant_bits) | mant) << (len - 1 - mant_bits);
                    rest += freq[s];
                }
                _ => return Err(CodecError::Corrupt("bad rans frequency code")),
            }
        }
        let anchor = match anchor {
            Some(a) if rest < M => {
                freq[a] = M - rest;
                a
            }
            Some(_) => return Err(CodecError::Corrupt("rans frequencies do not sum to 4096")),
            None if top == 0 => 0,
            None => return Err(CodecError::Corrupt("rans table without an anchor")),
        };
        let len = (bytes.len() * 8 - r.remaining_bits()).div_ceil(8);
        Ok((
            Model {
                p_hit,
                freq,
                anchor,
            },
            len,
        ))
    }

    /// Ideal code length of a block with statistics `st` under this
    /// model, in bits — what the coder spends, to within its final
    /// state's rounding.
    fn coded_bits(&self, st: &BlockStats) -> f64 {
        let cost = |count: u64, f: u32| count as f64 * (SCALE_BITS as f64 - (f as f64).log2());
        let mut bits = 0.0;
        for c in 0..2 {
            bits += cost(st.ctx_hits[c], self.p_hit[c]);
            bits += cost(st.ctx_len[c] - st.ctx_hits[c], M - self.p_hit[c]);
        }
        for (&count, &f) in st.class.iter().zip(&self.freq) {
            if count > 0 {
                bits += cost(count, f);
            }
        }
        bits
    }
}

/// Encoder half of one symbol (ryg_rans' `RansEncSymbol`): the state
/// bound past which renormalisation shifts a byte out, and the reciprocal
/// that turns `x / freq` into a multiply.
#[derive(Clone, Copy, Default)]
struct EncSymbol {
    x_max: u32,
    rcp_freq: u32,
    rcp_shift: u32,
    bias: u32,
    cmpl_freq: u32,
}

impl EncSymbol {
    fn new(start: u32, freq: u32) -> EncSymbol {
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * freq;
        let cmpl_freq = M - freq;
        if freq < 2 {
            // x·M + start through the general formula with q = x − 1.
            return EncSymbol {
                x_max,
                rcp_freq: u32::MAX,
                rcp_shift: 0,
                bias: start + M - 1,
                cmpl_freq,
            };
        }
        let shift = 32 - (freq - 1).leading_zeros(); // ⌈log2 freq⌉
        EncSymbol {
            x_max,
            rcp_freq: ((1u64 << (shift + 31)).div_ceil(freq as u64)) as u32,
            rcp_shift: shift - 1,
            bias: start,
            cmpl_freq,
        }
    }

    /// `x ← (x / freq)·M + x mod freq + start`, after shifting bytes out
    /// into `out`. Branch-free: whether a byte goes out is a coin flip on
    /// a deep alphabet.
    #[inline(always)]
    fn put(&self, x: &mut u32, out: &mut Shifted) {
        let v = *x;
        // x < 2^31 and x_max ≥ 2^19: at most two bytes go out.
        let n = (v >= self.x_max) as usize + (v as u64 >= (self.x_max as u64) << 8) as usize;
        out.buf[out.len..out.len + 2].copy_from_slice(&(v as u16).to_le_bytes());
        out.len += n;
        let v = v >> (8 * n);
        let q = ((v as u64 * self.rcp_freq as u64) >> 32) as u32 >> self.rcp_shift;
        *x = v + self.bias + q * self.cmpl_freq;
    }
}

/// The encoder's renormalisation bytes in the order they were shifted
/// out (the decoder reads them back to front), in a buffer sized for the
/// worst case of two bytes per step.
struct Shifted {
    buf: Vec<u8>,
    len: usize,
}

/// Entropy-code a block of symbols around `center` as a tag-3 payload,
/// appending it to `out`. Returns the side stream's share of the bytes.
/// The symbol count is not stored: framing carries it.
pub fn encode_block_into(codes: &[u32], center: u32, out: &mut Vec<u8>) -> usize {
    // Pass 1, forward: symbols, statistics and the raw bits.
    let mut syms = Vec::with_capacity(codes.len());
    let mut st = BlockStats::default();
    let mut side = SideWriter::default();
    st.scan(codes, center, true, |m, s, raw| {
        side.put(m, raw);
        syms.push(s);
    });
    let model = Model::fit(&st);
    model.write(out);

    // Pass 2, backward: the decoder pops the hit/miss split first, so the
    // encoder pushes a miss's class step before it.
    let mut class = [EncSymbol::default(); CLASS_SYMBOLS];
    let mut start = 0;
    for (e, &f) in class.iter_mut().zip(&model.freq) {
        if f > 0 {
            *e = EncSymbol::new(start, f);
            start += f;
        }
    }
    let hit = model.p_hit.map(|p| EncSymbol::new(0, p));
    let miss = model.p_hit.map(|p| EncSymbol::new(p, M - p));
    let mut rev = Shifted {
        buf: vec![0; 4 * codes.len() + 2],
        len: 0,
    };
    let mut x = RANS_L;
    for (i, &s) in syms.iter().enumerate().rev() {
        let ctx = if i == 0 {
            1
        } else {
            (syms[i - 1] == HIT) as usize
        };
        if s == HIT {
            hit[ctx].put(&mut x, &mut rev);
        } else {
            class[s as usize].put(&mut x, &mut rev);
            miss[ctx].put(&mut x, &mut rev);
        }
    }
    out.extend_from_slice(&x.to_be_bytes());
    out.extend(rev.buf[..rev.len].iter().rev());
    side.append_reversed(out)
}

/// [`encode_block_into`] into a fresh buffer.
pub fn encode_block(codes: &[u32], center: u32) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block_into(codes, center, &mut out);
    out
}

/// What [`price`] returns: the tag-3 payload's size, and the size it is
/// weighed against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Price {
    /// Tag-3 payload bytes: table and side stream exactly, coder bytes to
    /// within one.
    pub bytes: usize,
    /// The code length of the block's two halves, each at its own exact
    /// statistics, with no table: a model of the adaptive tag-2 coder,
    /// which tracks drift inside a frame that one static table cannot.
    /// On frames of ≥ 1024 symbols captured from the benchmarks, tag 2
    /// spends 0.99–1.02× this (10th–90th percentile).
    pub adaptive_bytes: f64,
}

/// Price `codes` as a tag-3 payload without coding it: one counting pass,
/// then the encoder's model fitted to the counts.
pub fn price(codes: &[u32], center: u32) -> Price {
    let (head, tail) = codes.split_at(codes.len() / 2);
    let mut first = BlockStats::default();
    let prev_hit = first.scan(head, center, true, |_, _, _| {});
    let mut whole = first.clone();
    whole.scan(tail, center, prev_hit, |_, _, _| {});
    let mut second = whole.clone();
    for c in 0..2 {
        second.ctx_len[c] -= first.ctx_len[c];
        second.ctx_hits[c] -= first.ctx_hits[c];
    }
    for (s, f) in second.class.iter_mut().zip(&first.class) {
        *s -= f;
    }
    second.raw_bits -= first.raw_bits;
    let model = Model::fit(&whole);
    Price {
        bytes: model.table_bits().div_ceil(8)
            + 4
            + (model.coded_bits(&whole) / 8.0).ceil() as usize
            + whole.raw_bits.div_ceil(8) as usize,
        adaptive_bytes: (first.ideal_bits() + second.ideal_bits()) / 8.0,
    }
}

/// Shift bytes in until the state is back in `[L, 2^31)`: after a step
/// it is at least 2^11, so at most two, and the count is selected rather
/// than branched on. Past the end of the payload the bytes read as zeros;
/// the length check rejects that.
#[inline(always)]
fn renorm(x: &mut u32, bytes: &[u8], pos: &mut usize) {
    let v = *x;
    let byte = |i: usize| bytes.get(i).copied().unwrap_or(0) as u32;
    let (b0, b1) = (byte(*pos), byte(*pos + 1));
    let (one, two) = (v < RANS_L, v < RANS_L >> 8);
    *x = if two {
        v << 16 | b0 << 8 | b1
    } else if one {
        v << 8 | b0
    } else {
        v
    };
    *pos += one as usize + two as usize;
}

/// Reject a count of more symbols than the tag-3 payload `bytes` can
/// hold, before anything is sized from it; every payload the encoder
/// writes passes. Every symbol takes a hit/miss step, which removes at
/// least `(4096 − p)·⌊x/4096⌋ > x/4099` from a state `x ≥ 2^23` (a hit
/// at the largest probability, `p = 4095`): more than 1/2842 bit. The
/// state falls from below 2^31 to 2^23 and gains 8 bits per byte read,
/// so a payload holds fewer than `8 · 2842` symbols per byte.
pub fn check_count(bytes: &[u8], n: usize) -> Result<()> {
    if n > bytes.len().saturating_mul(8 * 2842) {
        return Err(CodecError::Corrupt("rans symbol count exceeds payload"));
    }
    Ok(())
}

/// Decode exactly `n` symbols coded by [`encode_block_into`] with the
/// same `center`. A count [`check_count`] refuses is rejected before the
/// output is reserved, and decoding stops once the coder has read past
/// the payload; a corrupt table, a state the encoder could not have
/// left, or bytes the `n` symbols did not consume exactly are
/// corruption.
pub fn decode_block(bytes: &[u8], n: usize, center: u32) -> Result<Vec<u32>> {
    check_count(bytes, n)?;
    let (model, mut pos) = Model::read(bytes)?;
    let classes = model.top() > 0;
    // Slot → (symbol << 25 | freq << 12 | slot − start): freq ≤ 4096
    // takes 13 bits, the offset 12, the symbol the top 7.
    let mut slots = [0u32; M as usize];
    let mut start = 0usize;
    for (s, &f) in model.freq.iter().enumerate() {
        for (j, slot) in slots[start..start + f as usize].iter_mut().enumerate() {
            *slot = (s as u32) << 25 | f << 12 | j as u32;
        }
        start += f as usize;
    }
    let mut x = 0u32;
    for _ in 0..4 {
        x = (x << 8) | bytes.get(pos).copied().unwrap_or(0) as u32;
        pos += 1;
    }
    if !(RANS_L..1 << 31).contains(&x) {
        return Err(CodecError::Corrupt("rans state out of range"));
    }
    let mut side = SideStream::default();
    let mut out = Vec::with_capacity(n);
    let mut prev = 1usize;
    for _ in 0..n {
        if pos > bytes.len() {
            return Err(CodecError::Corrupt("rans coder read past the payload"));
        }
        let p = model.p_hit[prev];
        let slot = x & MASK;
        if slot < p {
            x = p * (x >> SCALE_BITS) + slot;
            renorm(&mut x, bytes, &mut pos);
            out.push(center);
            prev = 1;
            continue;
        }
        x = (M - p) * (x >> SCALE_BITS) + slot - p;
        renorm(&mut x, bytes, &mut pos);
        prev = 0;
        if !classes {
            return Err(CodecError::Corrupt("rans miss without a class table"));
        }
        let e = slots[(x & MASK) as usize];
        x = ((e >> 12) & 0x1FFF) * (x >> SCALE_BITS) + (e & MASK);
        renorm(&mut x, bytes, &mut pos);
        let (prefix, raw) = class_prefix((e >> 25) as usize);
        out.push(unfold((prefix << raw) | side.take(bytes, raw), center)?);
    }
    if x != RANS_L {
        return Err(CodecError::Corrupt("rans final state mismatch"));
    }
    if pos + side.bytes_used() != bytes.len() {
        return Err(CodecError::Corrupt("rans payload length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_symbols_cover_every_magnitude_once() {
        for m in (1u64..5000).chain([(1 << 33) - 3, (1 << 33) - 2, 1 << 32]) {
            let (s, raw) = class_symbol(m);
            assert!(s < CLASS_SYMBOLS, "m={m}");
            let (prefix, raw_back) = class_prefix(s);
            assert_eq!(raw, raw_back);
            assert_eq!(prefix, m >> raw, "m={m}");
        }
        assert_eq!(class_symbol((1 << 33) - 2).0, CLASS_SYMBOLS - 1);
    }

    #[test]
    fn reciprocal_step_matches_division() {
        // ryg_rans' reciprocal is exact for every state below 2^31.
        let xs = [RANS_L, RANS_L + 1, 1 << 30, (1 << 31) - 1, 123_456_789];
        for freq in 1..=M {
            let e = EncSymbol::new(M - freq, freq);
            for &x in &xs {
                if x >= e.x_max {
                    continue;
                }
                let mut got = x;
                let mut out = Shifted {
                    buf: vec![0; 2],
                    len: 0,
                };
                e.put(&mut got, &mut out);
                let want = ((x / freq) << SCALE_BITS) + x % freq + (M - freq);
                assert_eq!(got, want, "freq={freq} x={x}");
            }
        }
    }

    #[test]
    fn fitted_tables_sum_to_4096_and_store_exactly() {
        let shapes: [&[u64]; 5] = [
            &[1],
            &[5, 5, 5],
            &[1000, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            &[64; CLASS_SYMBOLS],
            &[9_999_999, 1, 0, 0, 7, 1],
        ];
        for shape in shapes {
            let mut st = BlockStats::default();
            st.class[..shape.len()].copy_from_slice(shape);
            st.ctx_len = [10, 3];
            st.ctx_hits = [0, 3];
            let model = Model::fit(&st);
            assert_eq!(model.freq.iter().sum::<u32>(), M, "{shape:?}");
            for (s, &c) in st.class.iter().enumerate() {
                assert_eq!(c > 0, model.freq[s] > 0, "{shape:?} symbol {s}");
            }
            assert_eq!(model.p_hit, [1, M - 1], "clamped away from 0 and 1");
            let mut bytes = Vec::new();
            model.write(&mut bytes);
            assert_eq!(bytes.len(), model.table_bits().div_ceil(8));
            assert_eq!(Model::read(&bytes).unwrap(), (model, bytes.len()));
        }
    }

    #[test]
    fn roundtrip_and_price_on_mixed_blocks() {
        let center = 32_768u32;
        let blocks: Vec<Vec<u32>> = vec![
            vec![],
            vec![center],
            vec![0],
            vec![u32::MAX],
            vec![center; 5000],
            (0..5000u32).collect(),
            (0..4096u32)
                .map(|i| center + (i.wrapping_mul(2_654_435_761) >> 22) - 512)
                .collect(),
            vec![0, u32::MAX, center, center - 1, center + 1],
        ];
        for codes in blocks {
            let bytes = encode_block(&codes, center);
            assert_eq!(decode_block(&bytes, codes.len(), center).unwrap(), codes);
            let priced = price(&codes, center);
            assert!(
                priced.bytes.abs_diff(bytes.len()) <= 1,
                "priced {priced:?}, coded {} B",
                bytes.len()
            );
            assert!(priced.adaptive_bytes <= priced.bytes as f64);
        }
    }

    #[test]
    fn raw_bits_share_tag_2s_side_stream() {
        // m = fold(8, 0) = 16: class 4, top mantissa bit 0, three raw bits.
        let codes = [8u32; 8];
        let mut out = vec![0xAB];
        assert_eq!(encode_block_into(&codes, 0, &mut out), 3);
        assert_eq!(out[0], 0xAB, "appends after what the buffer held");
        assert_eq!(decode_block(&out[1..], codes.len(), 0).unwrap(), codes);
    }
}
