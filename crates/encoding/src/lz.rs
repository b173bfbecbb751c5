//! Greedy LZ77 block codec (LZ4-style token format).
//!
//! The last stage of three byte-oriented codecs: `sz::lossless`
//! (byte-plane shuffle + Huffman + LZ), `ByteplaneCodec` (shuffle + LZ)
//! and `imgcomp` (DCT + Huffman + LZ). Huffman output on skewed symbol
//! streams still holds long repeated byte patterns (runs of the dominant
//! code), which a small-window LZ pass collapses. The SZ stream body does
//! not use it.
//!
//! Format per sequence: `token(1B)` = `(lit_len:4 | match_len-4:4)`, with
//! 15 meaning "extended by 255-run bytes"; then literal bytes; then a
//! little-endian `u16` match offset (1..=65535) and the match-length
//! extension. The stream opens with a varint of the decompressed size and
//! ends on a literals-only sequence.

use crate::varint;
use crate::{CodecError, Result};

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_OFFSET: usize = 65_535;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_len_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_len_ext(bytes: &[u8], pos: &mut usize) -> Result<usize> {
    let mut total = 0usize;
    loop {
        let b = *bytes.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nib = literals.len().min(15) as u8;
    let match_nib = match m {
        Some((_, mlen)) => (mlen - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push((lit_nib << 4) | match_nib);
    if literals.len() >= 15 {
        write_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, mlen)) = m {
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if mlen - MIN_MATCH >= 15 {
            write_len_ext(out, mlen - MIN_MATCH - 15);
        }
    }
}

/// Compress `data`; always succeeds (worst case mildly expands).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    varint::write_usize(&mut out, n);
    if n == 0 {
        return out;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let h = hash4(&data[i..]);
        let cand = head[h];
        head[h] = i;
        let is_match = cand != usize::MAX
            && i - cand <= MAX_OFFSET
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH];
        if is_match {
            let mut mlen = MIN_MATCH;
            while i + mlen < n && data[cand + mlen] == data[i + mlen] {
                mlen += 1;
            }
            emit_sequence(&mut out, &data[anchor..i], Some((i - cand, mlen)));
            // Seed a hash inside the match so adjacent runs keep chaining.
            if i + mlen + MIN_MATCH <= n {
                let j = i + mlen - 2;
                if j + MIN_MATCH <= n {
                    head[hash4(&data[j..])] = j;
                }
            }
            i += mlen;
            anchor = i;
        } else {
            i += 1;
        }
    }
    emit_sequence(&mut out, &data[anchor..], None);
    out
}

/// Decompress a [`compress`] stream.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let n = varint::read_usize(bytes, &mut pos)?;
    // Cap the up-front reservation: a corrupt size claim should fail via
    // the overrun checks below, not by reserving the claimed bytes.
    let mut out = Vec::with_capacity(n.min(bytes.len().saturating_mul(256)));
    if n == 0 {
        return Ok(out);
    }
    loop {
        let token = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len_ext(bytes, &mut pos)?;
        }
        if pos + lit_len > bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        out.extend_from_slice(&bytes[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() >= n {
            if out.len() > n {
                return Err(CodecError::Corrupt("output overrun"));
            }
            return Ok(out);
        }
        if pos + 2 > bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let offset = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(CodecError::Corrupt("bad match offset"));
        }
        let mut mlen = (token & 0x0F) as usize + MIN_MATCH;
        if mlen - MIN_MATCH == 15 {
            mlen += read_len_ext(bytes, &mut pos)?;
        }
        if out.len() + mlen > n {
            return Err(CodecError::Corrupt("match overruns output"));
        }
        // Overlapping copies (offset < mlen) are the RLE case; copy bytewise.
        let start = out.len() - offset;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "roundtrip failed");
        c.len()
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0; 4]);
        roundtrip(b"abcdabcdabcdabcd");
    }

    #[test]
    fn long_zero_runs_collapse() {
        let data = vec![0u8; 1_000_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < 5_000, "1MB of zeros -> {} bytes", c.len());
    }

    #[test]
    fn repeated_pattern_collapses() {
        let data: Vec<u8> = (0..100_000).map(|i| (i % 13) as u8).collect();
        let c = roundtrip(&data);
        assert!(c < data.len() / 10, "pattern -> {c} bytes");
    }

    #[test]
    fn incompressible_random_expands_only_slightly() {
        let mut rng = StdRng::seed_from_u64(13);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() + data.len() / 16 + 64);
    }

    #[test]
    fn mixed_text_roundtrip() {
        let data = b"the quick brown fox jumps over the lazy dog, \
                     the quick brown fox jumps over the lazy dog, \
                     the quick brown fox jumps over the lazy dog!"
            .to_vec();
        let c = roundtrip(&data);
        assert!(c < data.len());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 7) as u8).collect();
        let c = compress(&data);
        assert!(decompress(&c[..c.len() / 2]).is_err());
        // Flip a byte in the body; must not panic (error or wrong data ok).
        let mut bad = c.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let _ = decompress(&bad);
    }

    #[test]
    fn overlapping_match_rle_semantics() {
        // "aaaaa..." forces offset-1 overlapping matches.
        let data = vec![b'a'; 300];
        roundtrip(&data);
    }
}
