//! Canonical, length-limited Huffman codec over sparse `u32` alphabets.
//!
//! The SZ-style compressor produces quantization codes drawn from a
//! potentially large alphabet (up to 2·radius symbols) but with extremely
//! skewed frequencies — the "prediction hit" code dominates. Only symbols
//! that actually occur are placed in the table; the table itself is
//! serialized as `(symbol, code length)` pairs, and codes are assigned
//! canonically so the decoder rebuilds the table from lengths alone.

use crate::bitio::{BitReader, BitWriter, LOADED_BITS};
use crate::varint;
use crate::{CodecError, Result};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Longest admissible code. 32 keeps codes inside the bit-I/O fast path;
/// the builder degrades frequencies until the bound holds.
const MAX_CODE_LEN: u8 = 32;

/// Compute code lengths for `(symbol, count)` pairs (all counts > 0).
fn build_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u8)> {
    assert!(!freqs.is_empty());
    if freqs.len() == 1 {
        return vec![(freqs[0].0, 1)];
    }
    let mut counts: Vec<u64> = freqs.iter().map(|&(_, c)| c).collect();
    loop {
        let lengths = huffman_lengths_once(&counts);
        let max = lengths.iter().copied().max().unwrap();
        if max <= MAX_CODE_LEN {
            return freqs
                .iter()
                .zip(&lengths)
                .map(|(&(s, _), &l)| (s, l))
                .collect();
        }
        // Flatten the distribution and retry; converges because counts
        // approach uniform (which yields ~log2(n) <= 32 for any sane n).
        for c in &mut counts {
            *c = (*c).div_ceil(2);
        }
    }
}

/// One round of Huffman tree construction; returns a length per input slot.
fn huffman_lengths_once(counts: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by weight; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = counts.len();
    // parent[i] for all 2n-1 tree slots; leaves are 0..n.
    let mut parent = vec![usize::MAX; 2 * n - 1];
    let mut heap: BinaryHeap<Node> = counts
        .iter()
        .enumerate()
        .map(|(id, &weight)| Node { weight, id })
        .collect();
    let mut next_id = n;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_id,
        });
        next_id += 1;
    }
    let root = next_id - 1;
    // Depth of each leaf = code length.
    let mut depth = vec![0u8; 2 * n - 1];
    for id in (0..2 * n - 1).rev() {
        if id == root {
            continue;
        }
        depth[id] = depth[parent[id]] + 1;
    }
    depth.truncate(n);
    depth
}

/// Canonical code assignment from `(symbol, length)` pairs.
///
/// Returns per-symbol `(code, length)` plus the sorted table used for
/// decoding. Sorting is `(length, symbol)` as in DEFLATE.
fn canonical_codes(lengths: &[(u32, u8)]) -> Vec<(u32, u64, u8)> {
    let mut sorted: Vec<(u32, u8)> = lengths.to_vec();
    sorted.sort_by_key(|&(sym, len)| (len, sym));
    let mut out = Vec::with_capacity(sorted.len());
    // u64: the first length may be up to 32, so the widening shift below
    // can be 32 bits — and overfull (corrupt) length tables may push the
    // accumulator past 2^len, which the decoder then detects and rejects.
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(sym, len) in &sorted {
        code <<= len - prev_len;
        out.push((sym, code, len));
        code += 1;
        prev_len = len;
    }
    out
}

/// Count symbol frequencies, returned sorted by symbol.
///
/// Quantization codes cluster around the quantizer's zero point, so the
/// common case is a narrow symbol span: one min/max pass, then a dense
/// counting array emitted in index order. Wide or tiny inputs fall back
/// to sort-and-run-length counting; both paths produce the identical
/// symbol-sorted histogram [`Codebook::from_freqs`] expects. Histograms
/// from independently-processed blocks can be combined with
/// [`merge_freqs`] before building one shared codebook.
pub fn count_freqs(symbols: &[u32]) -> Vec<(u32, u64)> {
    if symbols.is_empty() {
        return Vec::new();
    }
    let (mut min, mut max) = (u32::MAX, 0u32);
    for &s in symbols {
        min = min.min(s);
        max = max.max(s);
    }
    let span = (max - min) as usize + 1;
    // Cap the counting array at ~4× the input length (or 512 entries
    // for small blocks) so sparse alphabets don't zero-fill far more
    // memory than the sort would touch.
    if span <= symbols.len().saturating_mul(4).max(512) {
        // Four interleaved tables: the dominant symbol would otherwise
        // serialize every increment on one store-to-load forward.
        let mut counts = vec![[0u64; 4]; span];
        let mut quads = symbols.chunks_exact(4);
        for q in &mut quads {
            for lane in 0..4 {
                counts[(q[lane] - min) as usize][lane] += 1;
            }
        }
        for &s in quads.remainder() {
            counts[(s - min) as usize][0] += 1;
        }
        return counts
            .iter()
            .enumerate()
            .map(|(i, c)| (min + i as u32, c.iter().sum::<u64>()))
            .filter(|&(_, c)| c > 0)
            .collect();
    }
    let mut sorted = symbols.to_vec();
    sorted.sort_unstable();
    let mut freqs: Vec<(u32, u64)> = Vec::new();
    for &s in &sorted {
        match freqs.last_mut() {
            Some((sym, c)) if *sym == s => *c += 1,
            _ => freqs.push((s, 1)),
        }
    }
    freqs
}

/// Merge a symbol-sorted histogram into another (both stay sorted).
pub fn merge_freqs(into: &mut Vec<(u32, u64)>, other: &[(u32, u64)]) {
    let a = std::mem::take(into);
    let mut merged = Vec::with_capacity(a.len() + other.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < other.len() {
        match (a.get(i), other.get(j)) {
            (Some(&(sa, ca)), Some(&(sb, cb))) if sa == sb => {
                merged.push((sa, ca + cb));
                i += 1;
                j += 1;
            }
            (Some(&(sa, ca)), Some(&(sb, _))) if sa < sb => {
                merged.push((sa, ca));
                i += 1;
            }
            (Some(_), Some(&(sb, cb))) => {
                merged.push((sb, cb));
                j += 1;
            }
            (Some(&(sa, ca)), None) => {
                merged.push((sa, ca));
                i += 1;
            }
            (None, Some(&(sb, cb))) => {
                merged.push((sb, cb));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    *into = merged;
}

/// Symbol → `(code, length)` emission lookup.
enum EmitLut {
    /// Direct-indexed over `[min_sym, max_sym]` — always the case for
    /// quantization codes, which live within `2·radius`.
    Dense { min_sym: u32, table: Vec<(u64, u8)> },
    /// Fallback for pathologically wide, sparse alphabets.
    Sparse(HashMap<u32, (u64, u8)>),
}

/// A canonical Huffman code set shared by any number of encoded blocks
/// (cuSZ-style: one codebook per tensor, one bitstream per block).
pub struct Codebook {
    canon: Vec<(u32, u64, u8)>,
    emit: EmitLut,
}

impl Codebook {
    /// Build the canonical, length-limited code set for a symbol-sorted
    /// histogram (as produced by [`count_freqs`] / [`merge_freqs`]). An
    /// empty histogram yields an empty codebook, valid only for empty
    /// blocks.
    pub fn from_freqs(freqs: &[(u32, u64)]) -> Codebook {
        if freqs.is_empty() {
            return Codebook {
                canon: Vec::new(),
                emit: EmitLut::Sparse(HashMap::new()),
            };
        }
        let lengths = build_lengths(freqs);
        let canon = canonical_codes(&lengths);
        let min_sym = freqs.first().unwrap().0;
        let max_sym = freqs.last().unwrap().0;
        let span = (max_sym - min_sym) as usize + 1;
        let emit = if span <= (1usize << 17).max(4 * freqs.len()) {
            let mut table = vec![(0u64, 0u8); span];
            for &(sym, code, len) in &canon {
                table[(sym - min_sym) as usize] = (code, len);
            }
            EmitLut::Dense { min_sym, table }
        } else {
            let mut map = HashMap::with_capacity(canon.len());
            for &(sym, code, len) in &canon {
                map.insert(sym, (code, len));
            }
            EmitLut::Sparse(map)
        };
        Codebook { canon, emit }
    }

    /// Number of symbols in the codebook.
    pub fn len(&self) -> usize {
        self.canon.len()
    }

    /// True when built from an empty histogram.
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// Serialize as `varint table_len · (varint sym, u8 len)*` in
    /// canonical order, so [`Decoder::deserialize`] rebuilds identically.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        varint::write_usize(out, self.canon.len());
        for &(sym, _, len) in &self.canon {
            varint::write_u64(out, sym as u64);
            out.push(len);
        }
    }

    /// Append one block: `varint n_symbols · varint bits_len · bitstream`.
    ///
    /// Every symbol must be present in the histogram the codebook was
    /// built from.
    pub fn encode_block(&self, symbols: &[u32], out: &mut Vec<u8>) {
        varint::write_usize(out, symbols.len());
        self.emit_bits(symbols, out);
    }

    /// Append `varint bits_len · bitstream` for `symbols`.
    fn emit_bits(&self, symbols: &[u32], out: &mut Vec<u8>) {
        // Quantization codes average a few bits each; half a byte per
        // symbol covers the usual block without regrowth.
        let mut bw = BitWriter::with_capacity(symbols.len() / 2 + 8);
        match &self.emit {
            EmitLut::Dense { min_sym, table } => {
                for s in symbols {
                    debug_assert!(*s >= *min_sym, "symbol {s} not in codebook");
                    let (code, len) = table[(s - min_sym) as usize];
                    debug_assert!(len != 0, "symbol {s} not in codebook");
                    bw.write_bits(code, len as u32);
                }
            }
            EmitLut::Sparse(map) => {
                for s in symbols {
                    let (code, len) = map[s];
                    bw.write_bits(code, len as u32);
                }
            }
        }
        let bits = bw.finish();
        varint::write_usize(out, bits.len());
        out.extend_from_slice(&bits);
    }
}

/// Encode `symbols` into a self-describing byte stream.
///
/// Layout: `varint n_symbols · varint table_len · (varint sym, u8 len)* ·
/// varint bits_len · bitstream`. An empty input encodes to the minimal
/// 2-byte header. For many blocks sharing one table, use [`count_freqs`]
/// / [`Codebook`] / [`Decoder`] directly.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_usize(&mut out, symbols.len());
    if symbols.is_empty() {
        varint::write_usize(&mut out, 0);
        return out;
    }
    let codebook = Codebook::from_freqs(&count_freqs(symbols));
    codebook.serialize(&mut out);
    codebook.emit_bits(symbols, &mut out);
    out
}

/// Advance `pos` past a table serialized by [`Codebook::serialize`]
/// without building any decoding structures — for consumers that only
/// need to locate the data that follows (e.g. a frame index over a
/// container whose codebook sits between header and frames).
pub fn skip_serialized_codebook(bytes: &[u8], pos: &mut usize) -> Result<()> {
    let table_len = varint::read_usize(bytes, pos)?;
    if table_len > bytes.len().saturating_sub(*pos) / 2 {
        return Err(CodecError::Corrupt("table length exceeds stream"));
    }
    for _ in 0..table_len {
        let _sym = varint::read_u64(bytes, pos)?;
        let len = *bytes.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if len == 0 || len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("invalid code length"));
        }
    }
    Ok(())
}

/// Width of the table-driven decoder's lookup window. Every code of at
/// most this many bits decodes with a single peek + index; longer (rare,
/// deep-tail) codes fall through to the canonical first-code walk.
const PRIMARY_BITS: u32 = 11;

/// Most symbols one table slot decodes.
const SYMS_PER_SLOT: usize = 3;

/// Lookups the block loop makes per register refill: each consumes at
/// most `PRIMARY_BITS` of the ≥ `LOADED_BITS` a refill leaves.
const LOOKUPS_PER_REFILL: usize = 5;
const _: () = assert!(LOOKUPS_PER_REFILL as u32 * PRIMARY_BITS <= LOADED_BITS);

/// Output slots one refill group may write: every lookup stores a whole
/// symbol triple.
const GROUP_SLOTS: usize = LOOKUPS_PER_REFILL * SYMS_PER_SLOT;

/// One chain-array entry: what the peek → lookup → shift chain needs of
/// a table slot, in two bytes — `bits` (0..=11) in bits 0–3, `len0`
/// (0..=11) in bits 4–7, `count` (0..=3) in bits 8–9. The slot's
/// symbols sit in `Decoder::syms` at the same index, off the chain.
#[derive(Clone, Copy)]
struct Link(u16);

impl Link {
    fn new(bits: u32, len0: u32, count: u32) -> Link {
        Link((bits | (len0 << 4) | (count << 8)) as u16)
    }

    /// Bits the slot's `count` codes take together (≤ `primary_bits`).
    #[inline(always)]
    fn bits(self) -> u32 {
        (self.0 & 0xF) as u32
    }

    /// Code length of the slot's first symbol; 0 marks an overflow slot,
    /// whose window is the prefix of a code longer than `primary_bits`.
    #[inline(always)]
    fn len0(self) -> u32 {
        ((self.0 >> 4) & 0xF) as u32
    }

    /// Symbols the slot decodes: 1..=3, or 0 in an overflow slot.
    #[inline(always)]
    fn count(self) -> usize {
        (self.0 >> 8) as usize
    }
}

/// Prebuilt table-driven canonical decoder, reusable across any number
/// of blocks encoded against the same [`Codebook`]. Cheap to share
/// between threads (all state is read-only after construction).
pub struct Decoder {
    /// Flat `2^primary_bits` lookup, indexed by the next window of the
    /// stream: how many bits and codes the window's leading codes take.
    /// 2048 two-byte entries, 4 KiB: the only table the block loop's
    /// dependency chain reads.
    chain: Vec<Link>,
    /// The same slots' decoded symbols, up to three; entries from
    /// `count` on are filler the block loop writes ahead of its cursor
    /// and then overwrites.
    syms: Vec<[u32; SYMS_PER_SLOT]>,
    primary_bits: u32,
    /// Canonical first-code/first-index walk state for the overflow path.
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    count_per_len: Vec<usize>,
    symbols_in_order: Vec<u32>,
    max_len: u32,
}

impl Decoder {
    /// Read a table serialized by [`Codebook::serialize`] and build the
    /// decoding structures. An empty table yields a decoder valid only
    /// for empty blocks.
    pub fn deserialize(bytes: &[u8], pos: &mut usize) -> Result<Decoder> {
        let table_len = varint::read_usize(bytes, pos)?;
        // Each serialized table entry is at least 2 bytes; a corrupt
        // count past that cannot be satisfied, so reject before
        // reserving memory.
        if table_len > bytes.len().saturating_sub(*pos) / 2 {
            return Err(CodecError::Corrupt("table length exceeds stream"));
        }
        let mut table: Vec<(u32, u8)> = Vec::with_capacity(table_len);
        for _ in 0..table_len {
            let sym = varint::read_u64(bytes, pos)? as u32;
            let len = *bytes.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            if len == 0 || len > MAX_CODE_LEN {
                return Err(CodecError::Corrupt("invalid code length"));
            }
            table.push((sym, len));
        }
        if table.is_empty() {
            return Ok(Decoder {
                chain: Vec::new(),
                syms: Vec::new(),
                primary_bits: 0,
                first_code: Vec::new(),
                first_index: Vec::new(),
                count_per_len: Vec::new(),
                symbols_in_order: Vec::new(),
                max_len: 0,
            });
        }
        Decoder::build(&canonical_codes(&table))
    }

    /// True when built from an empty table.
    pub fn is_empty(&self) -> bool {
        self.symbols_in_order.is_empty()
    }

    /// Decode one block appended by [`Codebook::encode_block`], advancing
    /// `pos` past it. `expect` is the symbol count framing promises; a
    /// block that claims another is rejected before anything is sized
    /// from its own count.
    pub fn decode_block(&self, bytes: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u32>> {
        let n = varint::read_usize(bytes, pos)?;
        if n != expect {
            return Err(CodecError::Corrupt("huffman block count mismatch"));
        }
        self.decode_bits(n, bytes, pos)
    }

    /// Decode `n` symbols from the `varint bits_len · bitstream` at
    /// `pos`, advancing `pos` past it — the one decode loop behind both
    /// [`decode_block`](Self::decode_block) and [`decode`].
    fn decode_bits(&self, n: usize, bytes: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
        let bits = bitstream(n, bytes, pos)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.is_empty() {
            return Err(CodecError::Corrupt(
                "empty huffman table for non-empty data",
            ));
        }
        let mut br = BitReader::new(bits);
        let mut out = vec![0u32; n];
        let mut i = 0usize;
        // Refill groups: one 8-byte load tops the reader up to ≥ 56 real
        // bits, then up to five lookups of at most 11 bits each consume
        // them with no refill and no end check. The chain array alone
        // feeds the next peek; each lookup stores its slot's whole
        // symbol triple and advances by the slot's count. An overflow
        // slot takes the checked single-symbol path and ends the group.
        while i + GROUP_SLOTS <= n && br.unloaded_bytes() >= 8 {
            br.refill_word();
            for _ in 0..LOOKUPS_PER_REFILL {
                let w = br.peek_loaded(self.primary_bits) as usize;
                let link = self.chain[w];
                if link.count() == 0 {
                    out[i] = self.decode_symbol(&mut br)?;
                    i += 1;
                    break;
                }
                br.take_loaded(link.bits());
                out[i..i + SYMS_PER_SLOT].copy_from_slice(&self.syms[w]);
                i += link.count();
            }
        }
        // The tail — fewer than 15 slots or 8 unloaded bytes left — one
        // checked symbol at a time.
        for sym in &mut out[i..] {
            *sym = self.decode_symbol(&mut br)?;
        }
        // The block's one end check, kept as a backstop: the group loop
        // consumes only loaded bytes and the tail checks every symbol.
        if br.overran() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(out)
    }

    fn build(canon: &[(u32, u64, u8)]) -> Result<Decoder> {
        let max_len = canon.iter().map(|&(_, _, l)| l).max().unwrap() as u32;
        // A canonically-assigned code must fit in its own length; an
        // overfull (Kraft-violating) length table walks past that.
        for &(_, code, len) in canon {
            if code >= 1u64 << len {
                return Err(CodecError::Corrupt("overfull huffman code set"));
            }
        }
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0usize; max_len as usize + 2];
        let mut count_per_len = vec![0usize; max_len as usize + 1];
        for &(_, _, l) in canon {
            count_per_len[l as usize] += 1;
        }
        {
            let mut code = 0u64;
            let mut index = 0usize;
            for len in 1..=max_len as usize {
                first_code[len] = code;
                first_index[len] = index;
                code = (code + count_per_len[len] as u64) << 1;
                index += count_per_len[len];
            }
        }
        let primary_bits = max_len.min(PRIMARY_BITS);
        let mut chain = vec![Link(0); 1usize << primary_bits];
        let mut syms = vec![[0u32; SYMS_PER_SLOT]; chain.len()];
        for &(sym, code, len) in canon {
            let len = len as u32;
            if len <= primary_bits {
                // Fill every slot whose top `len` bits equal `code`.
                let base = (code as usize) << (primary_bits - len);
                let span = base..base + (1usize << (primary_bits - len));
                chain[span.clone()].fill(Link::new(len, len, 1));
                syms[span].iter_mut().for_each(|s| s[0] = sym);
            }
        }
        // Extend each slot with the two codes that follow its first one
        // inside the window. The slot at the window shifted past the
        // bits already taken starts with the next code — if that code
        // fits in the window's remaining real bits. Extension leaves
        // every slot's first symbol and `len0` as they were, so reading
        // them from an already-extended slot is sound. A code that does
        // not fit still lands in `syms` as filler.
        let mask = chain.len() - 1;
        let fits = |taken: u32, len: u32| len != 0 && taken + len <= primary_bits;
        for w in 0..chain.len() {
            let l0 = chain[w].len0();
            let w1 = (w << l0) & mask;
            let l1 = chain[w1].len0();
            let w2 = (w << (l0 + l1)) & mask;
            let l2 = chain[w2].len0();
            let fit2 = l0 != 0 && fits(l0, l1);
            let fit3 = fit2 && fits(l0 + l1, l2);
            syms[w][1] = syms[w1][0];
            syms[w][2] = syms[w2][0];
            chain[w] = Link::new(
                l0 + fit2 as u32 * l1 + fit3 as u32 * l2,
                l0,
                (l0 != 0) as u32 + fit2 as u32 + fit3 as u32,
            );
        }
        Ok(Decoder {
            chain,
            syms,
            primary_bits,
            first_code,
            first_index,
            count_per_len,
            symbols_in_order: canon.iter().map(|&(s, _, _)| s).collect(),
            max_len,
        })
    }

    /// Decode one symbol, checking the end of the stream: the table's
    /// first symbol, or the canonical walk for codes longer than
    /// `primary_bits`. The block decoder's path for overflow codes and
    /// for a block's last few symbols.
    #[inline]
    fn decode_symbol(&self, br: &mut BitReader<'_>) -> Result<u32> {
        let window = br.peek_bits(self.primary_bits) as usize;
        let len0 = self.chain[window].len0();
        if len0 != 0 {
            br.consume(len0)?;
            return Ok(self.syms[window][0]);
        }
        // Overflow (code deeper than the primary table): canonical
        // first-code walk over the remaining lengths, re-peeking the
        // widening window instead of pulling single bits.
        for len in (self.primary_bits + 1)..=self.max_len {
            let code = br.peek_bits(len);
            let offset = code.wrapping_sub(self.first_code[len as usize]);
            if self.count_per_len[len as usize] > 0
                && code >= self.first_code[len as usize]
                && (offset as usize) < self.count_per_len[len as usize]
            {
                br.consume(len)?;
                return Ok(self.symbols_in_order[self.first_index[len as usize] + offset as usize]);
            }
        }
        Err(CodecError::Corrupt("code longer than table max"))
    }
}

/// The `varint bits_len · bitstream` at `pos` holding `n` symbols: its
/// bitstream, with `pos` advanced past it. Every code is at least one
/// bit, so the bitstream bounds the symbol count; a corrupt count is
/// rejected here, before anything is sized from it.
fn bitstream<'a>(n: usize, bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let bits_len = varint::read_usize(bytes, pos)?;
    // Subtract rather than add: `*pos + bits_len` could wrap.
    if bits_len > bytes.len() - *pos {
        return Err(CodecError::UnexpectedEof);
    }
    if n > bits_len.saturating_mul(8) {
        return Err(CodecError::Corrupt("symbol count exceeds bitstream"));
    }
    *pos += bits_len;
    Ok(&bytes[*pos - bits_len..*pos])
}

/// Check, without decoding, that a block appended by
/// [`Codebook::encode_block`] claims `expect` symbols and that its
/// bitstream can hold them: what [`Decoder::decode_block`] checks before
/// it reserves its output.
pub fn check_block(bytes: &[u8], expect: usize) -> Result<()> {
    let mut pos = 0usize;
    if varint::read_usize(bytes, &mut pos)? != expect {
        return Err(CodecError::Corrupt("huffman block count mismatch"));
    }
    bitstream(expect, bytes, &mut pos).map(drop)
}

/// Decode a stream produced by [`encode`].
///
/// Table-driven: the canonical code set is expanded once into a flat
/// 11-bit lookup table of up to three symbols per slot, and the
/// bitstream goes through the same loop as a shared-codebook block.
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut pos = 0usize;
    let n = varint::read_usize(bytes, &mut pos)?;
    let decoder = Decoder::deserialize(bytes, &mut pos)?;
    // An empty input encodes no bitstream length at all.
    if n == 0 {
        return Ok(Vec::new());
    }
    decoder.decode_bits(n, bytes, &mut pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_empty_single_and_uniform() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u32>::new());
        assert_eq!(decode(&encode(&[42])).unwrap(), vec![42]);
        assert_eq!(
            decode(&encode(&[7, 7, 7, 7, 7])).unwrap(),
            vec![7, 7, 7, 7, 7]
        );
        let uniform: Vec<u32> = (0..256).collect();
        assert_eq!(decode(&encode(&uniform)).unwrap(), uniform);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut data = Vec::with_capacity(50_000);
        for _ in 0..50_000 {
            // 90% symbol 1000, remainder spread wide — the SZ shape.
            if rng.gen_bool(0.9) {
                data.push(1000u32);
            } else {
                data.push(rng.gen_range(0..4000));
            }
        }
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        // Skew means far under 2 bytes/symbol.
        assert!(
            enc.len() < data.len(),
            "enc {} data {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn compression_beats_raw_on_low_entropy() {
        let data = vec![3u32; 10_000];
        let enc = encode(&data);
        // 10k symbols at 1 bit ≈ 1.25 kB + header.
        assert!(enc.len() < 1400, "got {}", enc.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let data: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let enc = encode(&data);
        for cut in [1, enc.len() / 2, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn large_alphabet_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..65_536)).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn shared_codebook_blocks_roundtrip() {
        // Many blocks, one table — the cuSZ-style layout the sz codec
        // uses for its chunk frames.
        let mut rng = StdRng::seed_from_u64(21);
        let blocks: Vec<Vec<u32>> = (0..5)
            .map(|b| {
                (0..2000)
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            500
                        } else {
                            rng.gen_range(0..(b as u32 + 2) * 100)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut freqs = Vec::new();
        for b in &blocks {
            merge_freqs(&mut freqs, &count_freqs(b));
        }
        let codebook = Codebook::from_freqs(&freqs);
        let mut stream = Vec::new();
        codebook.serialize(&mut stream);
        for b in &blocks {
            codebook.encode_block(b, &mut stream);
        }
        codebook.encode_block(&[], &mut stream); // empty block is legal

        let mut pos = 0usize;
        let decoder = Decoder::deserialize(&stream, &mut pos).unwrap();
        for b in &blocks {
            assert_eq!(
                &decoder.decode_block(&stream, &mut pos, b.len()).unwrap(),
                b
            );
        }
        assert_eq!(
            decoder.decode_block(&stream, &mut pos, 0).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(pos, stream.len());
    }

    #[test]
    fn decode_block_rejects_wrapping_bits_len() {
        // A bits_len varint near u64::MAX must not wrap the bounds
        // check into a panicking slice.
        let cb = Codebook::from_freqs(&count_freqs(&[5, 5, 9]));
        let mut stream = Vec::new();
        cb.serialize(&mut stream);
        let mut pos = 0usize;
        let dec = Decoder::deserialize(&stream, &mut pos).unwrap();
        let mut block = Vec::new();
        varint::write_usize(&mut block, 1); // n_symbols
        varint::write_u64(&mut block, u64::MAX - 1); // bits_len
        let mut bpos = 0usize;
        assert!(dec.decode_block(&block, &mut bpos, 1).is_err());
    }

    #[test]
    fn decode_block_rejects_a_count_framing_did_not_promise() {
        // 32 zero bytes are 256 one-bit codes, so a block claiming 256
        // symbols passes the `8 · bits_len` bound; framed as 8 symbols it
        // claims 32× its count and must fail before any output is sized
        // from its own varint.
        let cb = Codebook::from_freqs(&count_freqs(&[5, 5, 9]));
        let mut stream = Vec::new();
        cb.serialize(&mut stream);
        let dec = Decoder::deserialize(&stream, &mut 0).unwrap();
        let mut block = Vec::new();
        cb.encode_block(&[5; 8], &mut block);
        assert_eq!(dec.decode_block(&block, &mut 0, 8).unwrap(), vec![5; 8]);
        let mut inflated = Vec::new();
        varint::write_usize(&mut inflated, 256);
        varint::write_usize(&mut inflated, 32);
        inflated.extend_from_slice(&[0; 32]);
        assert_eq!(
            dec.decode_block(&inflated, &mut 0, 8),
            Err(CodecError::Corrupt("huffman block count mismatch"))
        );
    }

    /// The single-symbol loop: one checked [`Decoder::decode_symbol`]
    /// per symbol, over the same block framing as `decode_block`.
    fn reference_decode_block(dec: &Decoder, bytes: &[u8]) -> Result<Vec<u32>> {
        let mut pos = 0usize;
        let n = varint::read_usize(bytes, &mut pos)?;
        let bits_len = varint::read_usize(bytes, &mut pos)?;
        if bits_len > bytes.len() - pos {
            return Err(CodecError::UnexpectedEof);
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        if dec.is_empty() || n > bits_len.saturating_mul(8) {
            return Err(CodecError::Corrupt("reference rejects"));
        }
        let mut br = BitReader::new(&bytes[pos..pos + bits_len]);
        (0..n).map(|_| dec.decode_symbol(&mut br)).collect()
    }

    /// Symbol blocks at the block loop's edges, drawn half from the most
    /// frequent symbol (runs of short codes, three to a table slot) and
    /// half uniformly from the alphabet (so rare, long codes occur often):
    /// - `n` around the 15 output slots one refill group may write, and
    ///   around three groups;
    /// - bitstreams of exactly 7, 8 and 9 bytes, where the group loop
    ///   needs 8 unloaded bytes to run at all;
    /// - where the top symbol's code is at most 3 bits, so a slot of them
    ///   holds three, and some code is longer than the table window: that
    ///   code as the first lookup of a refill group and as the fifth,
    ///   after twelve top symbols.
    fn edge_blocks(codebook: &Codebook, seed: u64) -> Vec<Vec<u32>> {
        let canon = &codebook.canon;
        let len_of = |sym: u32| canon.iter().find(|&&(s, _, _)| s == sym).unwrap().2 as usize;
        // The canonical order starts with a shortest code.
        let (top, top_len) = (canon[0].0, canon[0].2 as usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = |rng: &mut StdRng| match rng.gen_bool(0.5) {
            true => top,
            false => canon[rng.gen_range(0..canon.len())].0,
        };
        let mut blocks: Vec<Vec<u32>> = [0usize, 1, 2, 3, 4, 14, 15, 16, 17, 45, 46, 47, 3000]
            .iter()
            .map(|&n| (0..n).map(|_| draw(&mut rng)).collect())
            .collect();
        for bytes in [7usize, 8, 9] {
            // Fill to more than `bytes − 1` whole bytes without passing
            // `bytes`; a code that does not fit is replaced by the top
            // symbol's (at most 6 bits with ≤ 64 symbols, less than a byte).
            let (mut syms, mut bits) = (Vec::new(), 0usize);
            while bits <= 8 * (bytes - 1) {
                let mut sym = draw(&mut rng);
                if bits + len_of(sym) > 8 * bytes {
                    sym = top;
                }
                bits += len_of(sym);
                syms.push(sym);
            }
            blocks.push(syms);
        }
        if let Some(&(long, _, _)) = canon.iter().find(|&&(_, _, l)| l as u32 > PRIMARY_BITS) {
            if top_len <= 3 {
                let rest: Vec<u32> = (0..40).map(|_| draw(&mut rng)).collect();
                blocks.push([&[long][..], &rest].concat());
                blocks.push([&[top; 12][..], &[long], &rest].concat());
            }
        }
        blocks
    }

    /// Encode every [`edge_blocks`] block and hold the block decoder to
    /// the reference: the same symbols; `Err` on every truncation; on a
    /// block with bit `flip` flipped, the reference's answer — `Err` or
    /// exactly as many symbols as the block claims. Returns the longest
    /// code length.
    fn check_against_reference(freqs: &[(u32, u64)], seed: u64, flip: usize) -> u8 {
        let codebook = Codebook::from_freqs(freqs);
        let mut table = Vec::new();
        codebook.serialize(&mut table);
        let dec = Decoder::deserialize(&table, &mut 0).unwrap();
        for syms in edge_blocks(&codebook, seed) {
            let n = syms.len();
            let mut block = Vec::new();
            codebook.encode_block(&syms, &mut block);
            let mut pos = 0usize;
            assert_eq!(
                dec.decode_block(&block, &mut pos, n).unwrap(),
                syms,
                "n {n}"
            );
            assert_eq!(pos, block.len());
            assert_eq!(reference_decode_block(&dec, &block).unwrap(), syms);
            for cut in 0..block.len() {
                assert!(
                    dec.decode_block(&block[..cut], &mut 0, n).is_err(),
                    "n {n} cut {cut}"
                );
            }
            let mut bad = block.clone();
            let bit = flip % (bad.len() * 8);
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            let claimed = varint::read_usize(&bad, &mut 0);
            // Told the count the damaged block claims, the fast decoder
            // must agree with the reference.
            match (
                dec.decode_block(&bad, &mut 0, claimed.clone().unwrap_or(0)),
                reference_decode_block(&dec, &bad),
            ) {
                (Ok(fast), Ok(slow)) => {
                    assert_eq!(fast, slow, "n {n} flip {bit}");
                    assert_eq!(Ok(fast.len()), claimed);
                }
                (Err(_), Err(_)) => {}
                (fast, slow) => panic!("n {n} flip {bit}: {fast:?} vs reference {slow:?}"),
            }
        }
        codebook.canon.iter().map(|&(_, _, len)| len).max().unwrap()
    }

    #[test]
    fn edge_blocks_hit_the_byte_counts_and_long_code_positions() {
        let chain: Vec<(u32, u64)> = (0..48).map(|i| (1000 + i, 1u64 << i)).collect();
        let codebook = Codebook::from_freqs(&chain);
        let blocks = edge_blocks(&codebook, 5);
        let bitstream_bytes = |syms: &[u32]| {
            let mut block = Vec::new();
            codebook.encode_block(syms, &mut block);
            let mut pos = 0;
            varint::read_usize(&block, &mut pos).unwrap();
            varint::read_usize(&block, &mut pos).unwrap()
        };
        let lens: Vec<usize> = blocks[13..16].iter().map(|b| bitstream_bytes(b)).collect();
        assert_eq!(lens, [7, 8, 9]);
        assert_eq!(blocks.len(), 18, "both long-code blocks");
        let long = |sym: u32| {
            codebook
                .canon
                .iter()
                .any(|&(s, _, l)| s == sym && l as u32 > PRIMARY_BITS)
        };
        assert!(long(blocks[16][0]) && long(blocks[17][12]));
        assert!(bitstream_bytes(&blocks[16]) >= 8 && bitstream_bytes(&blocks[17]) >= 8);
    }

    #[test]
    fn multi_symbol_decode_matches_reference_on_32_bit_codes() {
        // Counts doubling per symbol make the Huffman tree a chain, cut
        // at the 32-bit length limit.
        let chain: Vec<(u32, u64)> = (0..48).map(|i| (1000 + i, 1u64 << i)).collect();
        assert_eq!(check_against_reference(&chain, 5, 12_345), MAX_CODE_LEN);
        // A one-symbol codebook: one-bit codes, and nothing for a 1 bit.
        assert_eq!(check_against_reference(&[(7, 9)], 6, 3), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random histograms whose counts span 2^0..2^47 (code lengths
        /// 1..=32, long codes beside short ones), one-symbol codebooks
        /// among them.
        #[test]
        fn multi_symbol_decode_matches_reference(
            exps in proptest::collection::vec(0u32..48, 1..40),
            one_symbol in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            flip in proptest::prelude::any::<usize>(),
        ) {
            let k = if one_symbol { 1 } else { exps.len() };
            let freqs: Vec<(u32, u64)> = exps[..k]
                .iter()
                .enumerate()
                .map(|(i, &e)| (3 * i as u32 + 40, 1u64 << e))
                .collect();
            check_against_reference(&freqs, seed, flip);
        }
    }

    #[test]
    fn merge_freqs_is_a_sorted_multiset_union() {
        let mut a = count_freqs(&[1, 1, 5, 9]);
        let b = count_freqs(&[0, 1, 9, 9, 12]);
        merge_freqs(&mut a, &b);
        assert_eq!(a, vec![(0, 1), (1, 3), (5, 1), (9, 3), (12, 1)]);
        let mut empty = Vec::new();
        merge_freqs(&mut empty, &a);
        assert_eq!(empty, a);
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let lengths = vec![(10u32, 2u8), (20, 2), (30, 3), (40, 3), (50, 3)];
        let canon = canonical_codes(&lengths);
        // All pairs prefix-free.
        for i in 0..canon.len() {
            for j in 0..canon.len() {
                if i == j {
                    continue;
                }
                let (_, ci, li) = canon[i];
                let (_, cj, lj) = canon[j];
                if li <= lj {
                    assert_ne!(ci, cj >> (lj - li), "prefix violation {i} {j}");
                }
            }
        }
    }
}
