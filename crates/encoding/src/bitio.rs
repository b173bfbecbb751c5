//! MSB-first bit-level I/O over in-memory byte buffers.

use crate::{CodecError, Result};

/// Accumulates bits MSB-first into a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits staged in the low end of `acc`, always < 32 between calls.
    /// Bits above `nbits` are stale; every extraction truncates them.
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh writer with room for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Append the low `n ≤ 32` bits of `value` (MSB of those bits first).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(value < (1u64 << n));
        // `nbits < 32` on entry, so `nbits + n ≤ 64` and one shift stages
        // everything; a whole 32-bit word then drains from just below
        // `nbits` — one flush per several short codes, not one per byte.
        self.acc = (self.acc << n) | value;
        self.nbits += n;
        if self.nbits >= 32 {
            self.nbits -= 32;
            self.bytes
                .extend_from_slice(&((self.acc >> self.nbits) as u32).to_be_bytes());
        }
    }

    /// Pad with zero bits to a byte boundary and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.bytes.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            self.bytes.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.bytes
    }
}

/// Bits the register holds after [`BitReader::refill_word`]: each refill
/// loads whole bytes while at least one more fits in 64 bits.
pub const LOADED_BITS: u32 = 56;

/// Reads bits MSB-first from a byte slice, through a 64-bit register
/// topped up eight bytes at a time — a peek is a shift, not a load, so a
/// table-driven decoder's per-symbol dependency chain is shift → table
/// lookup → shift.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into `acc`.
    next: usize,
    /// Upcoming bits, MSB-aligned; bits below `have` are zero or a
    /// preview of bytes not yet counted (identical when loaded again).
    acc: u64,
    have: u32,
    /// Bits consumed so far.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over `bytes`, starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            next: 0,
            acc: 0,
            have: 0,
            pos: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        if self.unloaded_bytes() >= 8 {
            self.refill_word();
        } else {
            while self.have <= 56 && self.next < self.bytes.len() {
                self.acc |= (self.bytes[self.next] as u64) << (56 - self.have);
                self.next += 1;
                self.have += 8;
            }
        }
    }

    /// Bytes of the buffer not yet loaded into the register. While at
    /// least eight remain, [`refill_word`](BitReader::refill_word) may
    /// run.
    #[inline(always)]
    pub fn unloaded_bytes(&self) -> usize {
        self.bytes.len() - self.next
    }

    /// Top the register up to at least [`LOADED_BITS`] bits of the buffer
    /// with one 8-byte load; the caller has checked
    /// [`unloaded_bytes`](BitReader::unloaded_bytes) ≥ 8. Those bits are
    /// real stream bits, so [`peek_loaded`](BitReader::peek_loaded) and
    /// [`take_loaded`](BitReader::take_loaded) may use up to
    /// `LOADED_BITS` of them with no refill and no end check.
    #[inline(always)]
    pub fn refill_word(&mut self) {
        let word: [u8; 8] = self.bytes[self.next..self.next + 8]
            .try_into()
            .expect("8-byte slice");
        self.acc |= u64::from_be_bytes(word) >> self.have;
        let whole = (63 - self.have) / 8;
        self.next += whole as usize;
        self.have += whole * 8;
    }

    /// The next `n` bits (1 ≤ n ≤ 32) of those already loaded.
    #[inline(always)]
    pub fn peek_loaded(&self, n: u32) -> u64 {
        debug_assert!((1..=32).contains(&n) && n <= self.have);
        self.acc >> (64 - n)
    }

    /// Consume `n` bits of those already loaded.
    #[inline(always)]
    pub fn take_loaded(&mut self, n: u32) {
        debug_assert!(n <= self.have);
        self.pos += n as usize;
        self.acc <<= n;
        self.have -= n;
    }

    /// Read `n ≤ 32` bits as the low bits of a `u64`.
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if n == 0 {
            return Ok(0);
        }
        let out = self.peek_bits(n);
        self.consume(n)?;
        Ok(out)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<u32> {
        Ok(self.read_bits(1)? as u32)
    }

    /// Peek the next `n` bits (1 ≤ n ≤ 32) without consuming them.
    ///
    /// Positions past the end of the buffer read as zero bits, which lets
    /// a table-driven decoder probe a full window near the end of a
    /// stream; pair with [`consume`](BitReader::consume), which *does*
    /// bounds-check, so over-reads surface as errors.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!((1..=32).contains(&n));
        if self.have < n {
            self.refill();
        }
        self.acc >> (64 - n)
    }

    /// Advance the cursor by `n ≤ 32` bits previously inspected via
    /// [`peek_bits`](BitReader::peek_bits).
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if self.pos + n as usize > self.bytes.len() * 8 {
            return Err(CodecError::UnexpectedEof);
        }
        self.advance(n);
        Ok(())
    }

    /// [`consume`](BitReader::consume) without the end-of-buffer check:
    /// past the end the reader keeps yielding zero bits, and
    /// [`overran`](BitReader::overran) tells afterwards whether any of
    /// them were consumed.
    #[inline]
    fn advance(&mut self, n: u32) {
        debug_assert!(n <= 32);
        if self.have < n {
            self.refill(); // consumed without a peek
        }
        self.pos += n as usize;
        self.acc <<= n;
        self.have = self.have.saturating_sub(n);
    }

    /// True once the cursor has moved past the end of the buffer.
    pub fn overran(&self) -> bool {
        self.pos > self.bytes.len() * 8
    }

    /// Bits remaining in the buffer (including trailing padding); zero
    /// once the cursor has [`overran`](BitReader::overran).
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0, 7);
        w.write_bits(0x1FFFF, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(7).unwrap(), 0);
        assert_eq!(r.read_bits(17).unwrap(), 0x1FFFF);
    }

    #[test]
    fn eof_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn peek_does_not_consume_and_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b101_1011_0101, 11);
        let bytes = w.finish(); // 2 bytes, 5 padding zero bits
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(11), 0b101_1011_0101);
        assert_eq!(r.peek_bits(11), 0b101_1011_0101, "peek must not advance");
        r.consume(3).unwrap();
        assert_eq!(r.peek_bits(8), 0b1011_0101);
        // Peeking past the end pads with zeros…
        r.consume(8).unwrap();
        assert_eq!(r.remaining_bits(), 5);
        assert_eq!(r.peek_bits(12), 0);
        // …but consuming past the end is an error.
        assert_eq!(r.consume(6), Err(CodecError::UnexpectedEof));
        assert!(r.consume(5).is_ok());
        // Unchecked advancing past the end keeps yielding zero bits and
        // is reported afterwards.
        assert!(!r.overran());
        r.advance(9);
        assert_eq!(r.peek_bits(7), 0);
        assert!(r.overran());
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn reader_matches_naive_bit_extraction() {
        // Random widths across the 8-byte refill, the bytewise tail and
        // the zero-padded end, checked against per-bit indexing.
        let bytes: Vec<u8> = (0..97u32).map(|i| (i * 151 + 13) as u8).collect();
        let bit = |i: usize| -> u64 {
            bytes
                .get(i / 8)
                .map_or(0, |b| (b >> (7 - i % 8)) as u64 & 1)
        };
        let mut state = 7u32;
        for peek_first in [true, false] {
            let mut r = BitReader::new(&bytes);
            let mut pos = 0usize;
            loop {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let n = (state >> 24) % 32 + 1;
                let want = (0..n as usize).fold(0u64, |v, k| (v << 1) | bit(pos + k));
                if peek_first {
                    assert_eq!(r.peek_bits(n), want, "peek {n} at bit {pos}");
                }
                if pos + n as usize > bytes.len() * 8 {
                    assert_eq!(r.consume(n), Err(CodecError::UnexpectedEof));
                    break;
                }
                if peek_first {
                    r.consume(n).unwrap();
                } else {
                    assert_eq!(r.read_bits(n).unwrap(), want, "read {n} at bit {pos}");
                }
                pos += n as usize;
                assert_eq!(r.remaining_bits(), bytes.len() * 8 - pos);
            }
        }
    }

    #[test]
    fn interleaved_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [1u64, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap() as u64, b);
        }
    }
}
