//! The compression pipeline: chunk → predict → quantize → entropy-code.
//!
//! The stream is a **chunked container**: the volume is split into
//! plane-aligned chunks (see [`crate::blocks`]) that are predicted,
//! quantized and entropy-coded *independently*, each in a
//! self-delimiting length-prefixed frame. As in cuSZ, all chunks share
//! **one** Huffman codebook (histograms are gathered per chunk in
//! parallel, merged, and the code set built once), while each frame
//! carries its own outlier list and bitstream — so both [`compress`] and
//! [`decompress`] fan chunks out across threads without paying a
//! per-chunk table. Chunk boundaries depend only on the layout and
//! configuration, never on thread count, so parallel and serial encodes
//! are bit-identical (see [`compress_serial`]).
//!
//! The entropy stage is **pluggable per frame**: each frame body opens
//! with a one-byte entropy-stage tag selecting between the
//! shared-codebook Huffman block (tag 0), the codebook-free adaptive
//! binary range coder (tag 2, see [`ebtrain_encoding::range`]) and a
//! static rANS coder over the same symbols with a per-frame table (tag 3,
//! see [`ebtrain_encoding::rans`]). The encoder picks per chunk from the
//! symbol histogram ([`select_backend`]), or from the alphabet's size
//! alone where that already rules Huffman out ([`route`]). This one layout (`Z2` version
//! 3) is all the decoder reads; the byte layout, and the layouts retired
//! before it, are documented in `DESIGN.md` §3.

use crate::blocks::{auto_block_planes, chunk_count, chunk_layouts};
use crate::predictor::Predictor;
use crate::{DataLayout, EntropyBackend, QuantMode, Result, SzConfig, SzError};
use ebtrain_encoding::entropy::{self, EntropyDecoder, EntropyEncoder, EntropyStageTag};
use ebtrain_encoding::{huffman, rans, varint};
use rayon::prelude::*;

/// Integer-grid clamp for dual-quantization: keeps 3-D Lorenzo sums (7
/// terms) far from i64 overflow while covering any realistic value/eb
/// ratio. Values beyond the clamp become sentinel-0 grid points and are
/// stored as outliers.
pub(crate) const GRID_CLAMP: f64 = (1u64 << 40) as f64;

/// Chunk-framed stream magic: "Z2", followed by a format-version byte.
const MAGIC: [u8; 2] = [0x5A, 0x32];
/// The one format version written and read after [`MAGIC`].
const FORMAT_VERSION: u8 = 3;

/// An owned, self-describing compressed tensor.
///
/// This is the object an activation store holds in "device memory" in
/// place of the raw tensor; its [`compressed_byte_len`] is what the memory
/// accountant charges.
///
/// [`compressed_byte_len`]: CompressedBuffer::compressed_byte_len
#[derive(Debug, Clone)]
pub struct CompressedBuffer {
    bytes: Vec<u8>,
    original_len: usize,
    num_chunks: usize,
}

impl CompressedBuffer {
    /// Size of the compressed representation in bytes.
    pub fn compressed_byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Size of the original f32 data in bytes.
    pub fn original_byte_len(&self) -> usize {
        self.original_len * 4
    }

    /// Number of f32 elements in the original data.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Number of independently-coded chunk frames in the stream.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Compression ratio `original / compressed` (∞-safe: ≥ 0).
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 1.0;
        }
        self.original_byte_len() as f64 / self.bytes.len() as f64
    }

    /// Raw stream access (for persistence or the migration simulator).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the buffer, returning the raw stream without copying
    /// (the path container formats use to wrap the body).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Rebuild from a raw stream, validating the full header.
    ///
    /// ```
    /// use ebtrain_sz::{compress, decompress, CompressedBuffer, DataLayout, SzConfig};
    ///
    /// let data = vec![0.5f32; 64];
    /// let buf = compress(&data, DataLayout::D1(64), &SzConfig::with_error_bound(1e-3)).unwrap();
    /// let rebuilt = CompressedBuffer::from_bytes(buf.as_bytes().to_vec()).unwrap();
    /// assert_eq!(rebuilt.original_len(), 64);
    /// assert_eq!(decompress(&rebuilt).unwrap(), decompress(&buf).unwrap());
    /// assert!(CompressedBuffer::from_bytes(vec![1, 2, 3]).is_err());
    /// ```
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let header = parse_header(&bytes)?;
        Ok(CompressedBuffer {
            original_len: header.n,
            num_chunks: header.n_chunks,
            bytes,
        })
    }
}

/// Parsed stream header.
pub(crate) struct Header {
    pub(crate) n: usize,
    pub(crate) eb: f32,
    pub(crate) predictor: Predictor,
    pub(crate) layout: DataLayout,
    pub(crate) radius: i64,
    pub(crate) zero_filter: bool,
    pub(crate) quant_mode: QuantMode,
    /// Chunking parameter (leading-dimension slices per chunk).
    pub(crate) block_planes: usize,
    /// Number of chunk frames following the header.
    pub(crate) n_chunks: usize,
    /// Byte offset of the shared codebook; the frames follow it.
    pub(crate) body_off: usize,
}

pub(crate) fn corrupt(msg: &str) -> SzError {
    SzError::Corrupt(msg.to_string())
}

pub(crate) fn rd_usize(bytes: &[u8], pos: &mut usize) -> Result<usize> {
    varint::read_usize(bytes, pos).map_err(|e| SzError::Corrupt(e.to_string()))
}

/// Parse a `Z2` version-3 header; everything after `body_off` is payload.
/// Any other magic or version — the retired ones included — is rejected.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header> {
    if !bytes.starts_with(&MAGIC) {
        return Err(corrupt("bad magic"));
    }
    if bytes.get(2) != Some(&FORMAT_VERSION) {
        return Err(corrupt("unsupported format version"));
    }
    let mut pos = 3usize;
    let n = rd_usize(bytes, &mut pos)?;
    if pos + 4 > bytes.len() {
        return Err(corrupt("truncated header"));
    }
    let eb = f32::from_bits(u32::from_le_bytes([
        bytes[pos],
        bytes[pos + 1],
        bytes[pos + 2],
        bytes[pos + 3],
    ]));
    pos += 4;
    let predictor = Predictor::from_tag(*bytes.get(pos).ok_or_else(|| corrupt("eof"))?)
        .ok_or_else(|| corrupt("bad predictor tag"))?;
    pos += 1;
    let ndims = *bytes.get(pos).ok_or_else(|| corrupt("eof"))?;
    pos += 1;
    let layout = match ndims {
        1 => DataLayout::D1(rd_usize(bytes, &mut pos)?),
        2 => {
            let a = rd_usize(bytes, &mut pos)?;
            let b = rd_usize(bytes, &mut pos)?;
            DataLayout::D2(a, b)
        }
        3 => {
            let a = rd_usize(bytes, &mut pos)?;
            let b = rd_usize(bytes, &mut pos)?;
            let c = rd_usize(bytes, &mut pos)?;
            DataLayout::D3(a, b, c)
        }
        _ => return Err(corrupt("bad layout dims")),
    };
    // checked: the dims come from the untrusted stream.
    if layout.checked_len() != Some(n) {
        return Err(corrupt("layout/len mismatch"));
    }
    let radius = varint::read_u64(bytes, &mut pos).map_err(|e| SzError::Corrupt(e.to_string()))?;
    // The encoder writes a u32 radius; anything wider is corrupt (and
    // would make the `code - radius` arithmetic below overflow-prone).
    if radius == 0 || radius > u32::MAX as u64 {
        return Err(corrupt("bad radius"));
    }
    let radius = radius as i64;
    let zero_filter = *bytes.get(pos).ok_or_else(|| corrupt("eof"))? != 0;
    pos += 1;
    let quant_mode = QuantMode::from_tag(*bytes.get(pos).ok_or_else(|| corrupt("eof"))?)
        .ok_or_else(|| corrupt("bad quant mode"))?;
    pos += 1;
    let block_planes = rd_usize(bytes, &mut pos)?;
    if block_planes == 0 {
        return Err(corrupt("zero block_planes"));
    }
    let n_chunks = rd_usize(bytes, &mut pos)?;
    // Computed arithmetically — materializing the chunk list before the
    // count is validated would let a ~30-byte header drive an unbounded
    // allocation.
    if n_chunks != chunk_count(layout, block_planes) {
        return Err(corrupt("chunk count does not match geometry"));
    }
    // Every frame costs at least one length byte, so the stream bounds
    // the chunk count.
    if n_chunks > bytes.len() - pos {
        return Err(corrupt("chunk count exceeds stream"));
    }
    Ok(Header {
        n,
        eb,
        predictor,
        layout,
        radius,
        zero_filter,
        quant_mode,
        block_planes,
        n_chunks,
        body_off: pos,
    })
}

// Phase-1 kernel: the specialized per-(predictor, layout) quantize
// loops live in `quantize.rs` (bit-equivalent to the generic
// per-element `predict()` path, pinned by test).
use crate::quantize::{quantize_chunk, Quantized};

/// Entropy-code one quantized chunk and append it to `out` as a
/// length-prefixed frame: `varint frame_len · tag(1B) · varint n_outliers
/// · u32le outlier bits · varint payload_len · payload`, where the payload
/// is what `backend.encode_block` emits (tag 0: the chunk's table-less
/// shared-codebook Huffman block; tag 2: range-coder bytes, then the raw
/// mantissa bits stored backward; tag 3: the rANS table, state and bytes,
/// then the same raw bits). `scratch` is reused across chunks: the
/// payload is coded into it first (both length prefixes need its size),
/// the frame head behind it, and the two halves are copied out in order.
fn encode_frame(
    codes: &[u32],
    outliers: &[u32],
    backend: &EntropyEncoder<'_>,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    scratch.clear();
    backend.encode_block(codes, scratch);
    let payload_len = scratch.len();
    scratch.push(backend.tag().as_u8());
    varint::write_usize(scratch, outliers.len());
    for o in outliers {
        scratch.extend_from_slice(&o.to_le_bytes());
    }
    varint::write_usize(scratch, payload_len);
    varint::write_usize(out, scratch.len());
    out.extend_from_slice(&scratch[payload_len..]);
    out.extend_from_slice(&scratch[..payload_len]);
}

/// Per-chunk entropy-backend selection from the symbol histogram — a
/// pure function of the chunk's codes, so serial and parallel encodes
/// (and bucket-wise re-encodes of the same chunk) always agree.
///
/// Size model: both backends land near the histogram's Shannon entropy
/// `H`. Huffman pays its length-limit/integer-bit loss (~0.3 bit/symbol)
/// but never less than its one-bit-per-symbol floor, plus ~3 bytes per
/// codebook entry; the adaptive range coder pays only its model warm-up
/// (~0.1 bit/symbol). The shared codebook is charged to every chunk —
/// measured, not principled: one codebook over chunks of different
/// layers codes well above `H + 0.3`, and the per-chunk charge is what
/// compensates. The range coder spends one binary decision per modeled
/// bit (hit flag, length class, top mantissa bit; the deeper mantissa
/// bits bypass it since entropy tag 2). On the narrow alphabets Huffman
/// serves well that is still a sixth of Huffman's speed (≈ 160 against
/// ≈ 1000 MiB/s on 64 Ki Laplacian codes); on wide ones the bypass cut
/// its time per symbol by a third. So the range family takes the frame
/// only where it is modelled at least 15 % denser: near-constant chunks
/// (below the one-bit floor) and deep alphabets (eb → 0). The margin
/// predates the bypass and tag 3 and was not re-tuned with them.
///
/// Within the range family, tag 3 (static rANS) codes the same symbols
/// in one table step per hit and two per miss instead of ≈ 6 binary
/// decisions per deep symbol. It pays for a per-frame table and cannot
/// follow drift inside the frame, so it takes the frame only where its
/// exact price is within 3 % of a model of tag 2's bytes: the ideal code
/// length of the frame's two halves, each at its own statistics. On
/// captured range frames that keeps 88 % of the ring's symbols and 86 %
/// of `train_conv1x1`'s on tag 3 for +0.4 % and +0.7 % bytes, where
/// taking every frame costs +0.6 % and +1.1 %. Near-constant and tiny
/// frames, where the table and the 4-byte state are a large share, stay
/// on tag 2.
fn select_backend(freqs: &[(u32, u64)], codes: &[u32], center: u32) -> EntropyStageTag {
    let h = entropy::histogram_entropy(freqs);
    if huffman_wins(codes.len(), freqs.len(), h) {
        return EntropyStageTag::Huffman;
    }
    range_family(codes, center)
}

/// The size model of [`select_backend`]: whether Huffman takes a chunk of
/// `n` symbols, `distinct` of them distinct, at histogram entropy `h`.
/// Huffman's side grows at most 0.85× as fast as the range side's as `h`
/// rises, so if Huffman loses at some `h` it loses at every smaller one.
fn huffman_wins(n: usize, distinct: usize, h: f64) -> bool {
    let n_f = n as f64;
    let est_range_bits = n_f * (h + 0.1);
    let est_huffman_bits = n_f * (h + 0.3).max(1.0) + distinct as f64 * 24.0;
    est_range_bits >= 0.85 * est_huffman_bits
}

/// A chunk's entropy stage under `backend`, with its histogram when that
/// stage is Huffman (the only one that reads it). Counting the histogram
/// is the costly part of routing a deep chunk (a sort), so an `Auto`
/// chunk first asks whether its alphabet alone rules Huffman out: the
/// entropy of `d` distinct symbols is at most `log2 d`, and if Huffman
/// loses there (plus a slack far above the rounding of either side) it
/// loses at the chunk's real entropy, so [`select_backend`] would pick
/// the range family too.
fn route(
    codes: &[u32],
    backend: EntropyBackend,
    center: u32,
) -> (EntropyStageTag, Option<Vec<(u32, u64)>>) {
    let tag = match backend {
        EntropyBackend::Range => EntropyStageTag::Range,
        EntropyBackend::Rans => EntropyStageTag::Rans,
        EntropyBackend::Auto if huffman_ruled_out(codes) => range_family(codes, center),
        EntropyBackend::Auto | EntropyBackend::Huffman => {
            let freqs = huffman::count_freqs(codes);
            let tag = match backend {
                EntropyBackend::Auto => select_backend(&freqs, codes, center),
                _ => EntropyStageTag::Huffman,
            };
            if tag == EntropyStageTag::Huffman {
                return (tag, Some(freqs));
            }
            tag
        }
    };
    (tag, None)
}

/// Whether the alphabet of `codes` alone rules Huffman out (see
/// [`route`]).
fn huffman_ruled_out(codes: &[u32]) -> bool {
    distinct_symbols(codes).is_some_and(|d| !huffman_wins(codes.len(), d, (d as f64).log2() + 1e-3))
}

/// How many distinct values `codes` holds, counted on a bitmap where that
/// is cheaper than the histogram: they span more values than there are
/// codes (a histogram then zero-fills or sorts more entries than it
/// counts), and at most 2^16. `None` elsewhere.
fn distinct_symbols(codes: &[u32]) -> Option<usize> {
    let (min, max) = codes
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let span = max.checked_sub(min)? as usize + 1;
    if span <= codes.len() || span > 1 << 16 {
        return None;
    }
    let mut seen = [0u64; (1 << 16) / 64];
    for &c in codes {
        let i = (c - min) as usize;
        seen[i / 64] |= 1 << (i % 64);
    }
    Some(seen.iter().map(|w| w.count_ones() as usize).sum())
}

/// Tag 2 or tag 3 for a chunk Huffman does not take.
fn range_family(codes: &[u32], center: u32) -> EntropyStageTag {
    let price = rans::price(codes, center);
    if price.bytes as f64 <= 1.03 * price.adaptive_bytes {
        EntropyStageTag::Rans
    } else {
        EntropyStageTag::Range
    }
}

/// One frame body, parsed but not decoded: its entropy backend, its
/// outliers (little-endian `f32` bits) and its payload, which
/// [`parse_frame`] has checked can hold the chunk's `layout.len()` codes.
pub(crate) struct Frame<'a> {
    layout: DataLayout,
    backend: EntropyDecoder<'a>,
    outliers: &'a [u8],
    payload: &'a [u8],
}

/// Parse one frame body of chunk `layout`: the tag, the outliers and
/// the payload, whose symbol count is then bounded by what the payload
/// can hold (`EntropyDecoder::check_count`), so a caller may size output
/// for the frame from `layout` alone. Huffman payloads decode against
/// the stream's shared `decoder`. The frame is exact: bytes after the
/// payload are corruption.
pub(crate) fn parse_frame<'a>(
    frame: &'a [u8],
    layout: DataLayout,
    header: &Header,
    decoder: &'a huffman::Decoder,
) -> Result<Frame<'a>> {
    let n = layout.len();
    let tag = *frame
        .first()
        .ok_or_else(|| corrupt("missing entropy tag"))?;
    let tag = EntropyStageTag::from_u8(tag).map_err(|e| SzError::Corrupt(e.to_string()))?;
    let mut pos = 1usize;
    let n_outliers = rd_usize(frame, &mut pos)?;
    // Divide rather than multiply: a huge claimed count must not wrap
    // the bounds arithmetic (and must fail before any reservation).
    if n_outliers > n || n_outliers > (frame.len() - pos) / 4 {
        return Err(corrupt("truncated outliers"));
    }
    let outliers = &frame[pos..pos + 4 * n_outliers];
    pos += 4 * n_outliers;
    let payload_len = rd_usize(frame, &mut pos)?;
    // Subtract rather than add: `pos + payload_len` could wrap.
    if payload_len > frame.len() - pos {
        return Err(corrupt("truncated payload"));
    }
    if payload_len != frame.len() - pos {
        return Err(corrupt("trailing bytes in chunk frame"));
    }
    let payload = &frame[pos..];
    // The fold center is the quantizer's zero point; the header already
    // validated `radius <= u32::MAX`.
    let center = header.radius as u32;
    let backend = match tag {
        EntropyStageTag::Huffman => EntropyDecoder::Huffman(decoder),
        EntropyStageTag::Range => EntropyDecoder::Range { center },
        EntropyStageTag::Rans => EntropyDecoder::Rans { center },
    };
    backend
        .check_count(payload, n)
        .map_err(|e| SzError::Corrupt(e.to_string()))?;
    Ok(Frame {
        layout,
        backend,
        outliers,
        payload,
    })
}

impl Frame<'_> {
    /// Values the frame decodes to: its chunk's element count.
    pub(crate) fn len(&self) -> usize {
        self.layout.len()
    }
}

/// Decode a parsed frame into `out`, its chunk's `layout.len()` values.
pub(crate) fn decode_frame(frame: &Frame<'_>, header: &Header, out: &mut [f32]) -> Result<()> {
    let n = frame.layout.len();
    let entropy_span = ebtrain_obs::span!("sz.entropy_decode", bytes = n * 4);
    let codes = frame
        .backend
        .decode_block(frame.payload, n)
        .map_err(|e| SzError::Corrupt(e.to_string()))?;
    drop(entropy_span);
    if codes.len() != n {
        return Err(corrupt("code count mismatch"));
    }

    let _span = ebtrain_obs::span!("sz.reconstruct", bytes = n * 4);
    let outliers: Vec<f32> = frame
        .outliers
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect();
    let eb = header.eb;
    let two_eb = 2.0 * eb;
    let (radius, predictor, layout) = (header.radius, header.predictor, frame.layout);
    // Specialized per-(predictor, layout) reconstruction loops — same
    // stencils, same operand order, no per-element div/mod or dispatch
    // (see `reconstruct.rs`).
    match header.quant_mode {
        QuantMode::Classic => crate::reconstruct::reconstruct_classic(
            &codes, &outliers, predictor, layout, radius, two_eb, out,
        )?,
        QuantMode::DualQuant => crate::reconstruct::reconstruct_dual(
            &codes, &outliers, predictor, layout, radius, two_eb, out,
        )?,
    }
    if header.zero_filter && header.quant_mode == QuantMode::Classic {
        // Paper §4.4: values that landed within the error bound of zero are
        // snapped back, so compressed runs of zeros stay exactly zero. A
        // dual-quant value is `q·2eb`: exactly zero or at least 2eb away
        // from it, so there is nothing for the pass to do. A select, not a
        // conditional store: the compare is data-dependent on ReLU output
        // and a branch there does not vectorize.
        for v in out.iter_mut() {
            *v = if v.abs() <= eb { 0.0 } else { *v };
        }
    }
    Ok(())
}

/// Deterministic integer-grid mapping `round(x / 2eb)` shared by encoder
/// and decoder (the decoder recomputes grid values of outliers from their
/// exact bytes); `None` for non-finite values and beyond [`GRID_CLAMP`].
///
/// `f64::round` is a libm call on baseline x86-64, and it sat on every
/// element the encoder touches. Inside the clamp the same
/// half-away-from-zero rounding is one add and a truncation: adding the
/// largest double below 0.5 carries exact halves over and nothing
/// smaller (`tests::grid_of_matches_libm_round` pins the equivalence at
/// every boundary).
#[inline]
pub(crate) fn grid_of(x: f32, two_eb: f32) -> Option<i64> {
    let (q, in_range) = grid_point(x, two_eb);
    in_range.then_some(q)
}

/// [`grid_of`] without the branch, for loops that vectorize: the grid
/// point (0 where there is none) and whether there is one.
///
/// The truncation goes through the float's bits, not an `as i64` cast:
/// Rust's cast saturates, and x86 lowers a saturating vector cast one
/// element at a time. Adding 2^52 to `a ∈ [0, 2^52)` rounds it to the
/// nearest integer `m`, which then sits in the low mantissa bits; `m`
/// minus one where it rounded up is `a`'s floor.
#[inline(always)]
pub(crate) fn grid_point(x: f32, two_eb: f32) -> (i64, bool) {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let r = x as f64 / two_eb as f64;
    // `|round(r)| < GRID_CLAMP` exactly; NaN and ±inf fail the compare.
    let in_range = r.abs() < GRID_CLAMP - 0.5;
    // |r + 0.5⁻·sign(r)|, exactly: round-to-nearest is sign-symmetric.
    let a = r.abs() + 0.499_999_999_999_999_94;
    let shifted = a + TWO_52;
    let nearest = shifted.to_bits() as i64 - TWO_52.to_bits() as i64;
    let floor = nearest - (shifted - TWO_52 > a) as i64;
    let q = if r < 0.0 { -floor } else { floor };
    (if in_range { q } else { 0 }, in_range)
}

/// The f32 a dual-quant grid point reconstructs to. The encoder's bound
/// check, the decoder and the encoder-side reconstruction of
/// [`compress_recon`] all evaluate this one expression, so what the
/// encoder verified (and hands back) is what the decoder produces.
#[inline]
pub(crate) fn grid_value(q: i64, two_eb: f32) -> f32 {
    (q as f64 * two_eb as f64) as f32
}

/// Phase-1 output of one thread's contiguous run of chunks: codes and
/// outliers flat across the run, per chunk its `(code count, outlier
/// count, selected backend)`, the merged histogram of the chunks that
/// routed to Huffman (their share of the shared codebook), and — only
/// when the caller asked for it — the run's reconstruction.
#[derive(Default)]
struct QuantizedRun {
    q: Quantized,
    chunks: Vec<(usize, usize, EntropyStageTag)>,
    huffman_freqs: Vec<(u32, u64)>,
    recon: Vec<f32>,
}

/// `recon`, when given, receives the values [`decompress`] would return
/// for the stream being built (dual-quant only — the caller routes).
/// With `None` nothing below does any extra work.
fn compress_impl(
    data: &[f32],
    layout: DataLayout,
    config: &SzConfig,
    parallel: bool,
    recon: Option<&mut Vec<f32>>,
) -> Result<CompressedBuffer> {
    config.validate()?;
    if layout.len() != data.len() {
        return Err(SzError::LayoutMismatch {
            layout: layout.len(),
            data: data.len(),
        });
    }
    let n = data.len();
    let _span = ebtrain_obs::span!("sz.compress", bytes = n * 4);
    let predictor = config
        .predictor
        .unwrap_or_else(|| Predictor::for_layout(&layout));
    let block_planes = config
        .chunk_planes
        .unwrap_or_else(|| auto_block_planes(&layout))
        .max(1);
    let chunks = chunk_layouts(layout, block_planes);
    // One contiguous run of chunks per thread, so each thread allocates
    // its buffers once instead of once per chunk. Chunk boundaries — and
    // therefore the bytes — do not depend on how runs are cut.
    let threads = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let runs: Vec<&[(usize, DataLayout)]> = chunks
        .chunks(chunks.len().div_ceil(threads).max(1))
        .collect();

    // Phase 1 (parallel): predict + quantize each chunk, histogram its
    // codes, and select its entropy backend — a pure function of the
    // chunk's codes, so thread count never changes the choice.
    let want_recon = recon.is_some();
    debug_assert!(!want_recon || config.quant_mode == QuantMode::DualQuant);
    let quantize_run = |run: &&[(usize, DataLayout)]| {
        let mut r = QuantizedRun::default();
        let run_len = run.iter().map(|(_, cl)| cl.len()).sum();
        r.q.codes.reserve(run_len);
        if want_recon {
            r.recon.reserve(run_len);
        }
        for &(off, cl) in run.iter() {
            let _span = ebtrain_obs::span!("sz.quantize", bytes = cl.len() * 4);
            let (c0, o0) = (r.q.codes.len(), r.q.outliers.len());
            let chunk = &data[off..off + cl.len()];
            quantize_chunk(chunk, cl, predictor, config, &mut r.q);
            if want_recon {
                r.q.push_dual_recon(chunk, 2.0 * config.error_bound, &mut r.recon);
            }
            let codes = &r.q.codes[c0..];
            let (tag, freqs) = route(codes, config.entropy_backend, crate::RADIUS);
            if let Some(freqs) = freqs {
                huffman::merge_freqs(&mut r.huffman_freqs, &freqs);
            }
            r.chunks.push((cl.len(), r.q.outliers.len() - o0, tag));
        }
        r
    };
    let quantized: Vec<QuantizedRun> = if runs.len() > 1 {
        runs.par_iter().map(quantize_run).collect()
    } else {
        runs.iter().map(quantize_run).collect()
    };
    if let Some(out) = recon {
        out.clear();
        out.reserve(n);
        for r in &quantized {
            out.extend_from_slice(&r.recon);
        }
    }

    // Phase 2 (serial, cheap): merge the histograms of Huffman-routed
    // chunks and build the single shared codebook, exactly as cuSZ
    // builds one codebook per tensor. Range-routed chunks are
    // codebook-free; when every chunk routes to range the serialized
    // table is empty.
    let mut freqs: Vec<(u32, u64)> = Vec::new();
    for r in &quantized {
        huffman::merge_freqs(&mut freqs, &r.huffman_freqs);
    }
    let codebook = huffman::Codebook::from_freqs(&freqs);

    // Phase 3 (parallel): emit each chunk's frame under its selected
    // backend (Huffman: bare shared-codebook bitstream; range: adaptive
    // coder). Neither gets an LZ pass since format version 3.
    let emit_run = |r: &QuantizedRun| {
        let mut frames = Vec::with_capacity(r.q.codes.len() / 2);
        let mut scratch = Vec::new();
        let (mut c, mut o) = (0usize, 0usize);
        for &(n_codes, n_outliers, tag) in &r.chunks {
            let _span = ebtrain_obs::span!("sz.entropy", bytes = n_codes * 4);
            let center = crate::RADIUS;
            let backend = match tag {
                EntropyStageTag::Huffman => EntropyEncoder::Huffman(&codebook),
                EntropyStageTag::Rans => EntropyEncoder::Rans { center },
                _ => EntropyEncoder::Range { center },
            };
            let (codes, outliers) = (&r.q.codes[c..c + n_codes], &r.q.outliers[o..o + n_outliers]);
            encode_frame(codes, outliers, &backend, &mut scratch, &mut frames);
            c += n_codes;
            o += n_outliers;
        }
        frames
    };
    let frames: Vec<Vec<u8>> = if quantized.len() > 1 {
        quantized.par_iter().map(emit_run).collect()
    } else {
        quantized.iter().map(emit_run).collect()
    };

    let frames_len: usize = frames.iter().map(|f| f.len()).sum();
    let mut bytes = Vec::with_capacity(frames_len + 3 * codebook.len() + 64);
    bytes.extend_from_slice(&MAGIC);
    bytes.push(FORMAT_VERSION);
    varint::write_usize(&mut bytes, n);
    bytes.extend_from_slice(&config.error_bound.to_bits().to_le_bytes());
    bytes.push(predictor.tag());
    match layout {
        DataLayout::D1(a) => {
            bytes.push(1);
            varint::write_usize(&mut bytes, a);
        }
        DataLayout::D2(a, b) => {
            bytes.push(2);
            varint::write_usize(&mut bytes, a);
            varint::write_usize(&mut bytes, b);
        }
        DataLayout::D3(a, b, c) => {
            bytes.push(3);
            varint::write_usize(&mut bytes, a);
            varint::write_usize(&mut bytes, b);
            varint::write_usize(&mut bytes, c);
        }
    }
    varint::write_u64(&mut bytes, crate::RADIUS as u64);
    bytes.push(config.zero_filter as u8);
    bytes.push(config.quant_mode.tag());
    varint::write_usize(&mut bytes, block_planes);
    varint::write_usize(&mut bytes, chunks.len());
    codebook.serialize(&mut bytes);
    for run in &frames {
        bytes.extend_from_slice(run);
    }

    Ok(CompressedBuffer {
        bytes,
        original_len: n,
        num_chunks: chunks.len(),
    })
}

/// Compress `data` under `layout` with `config`.
///
/// The volume is split into independently-coded chunks (see
/// [`crate::blocks`]) that are compressed in parallel across threads; the
/// resulting stream is identical to [`compress_serial`]'s. See the crate
/// docs for the error contract. `data` may contain any finite or
/// non-finite values; non-finite values are stored bit-exact as outliers.
///
/// ```
/// use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};
///
/// let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
/// let buf = compress(&data, DataLayout::D2(16, 16), &SzConfig::with_error_bound(1e-3)).unwrap();
/// assert!(buf.compressed_byte_len() < buf.original_byte_len());
/// let out = decompress(&buf).unwrap();
/// assert!(data.iter().zip(&out).all(|(x, y)| (x - y).abs() <= 1e-3));
/// ```
pub fn compress(data: &[f32], layout: DataLayout, config: &SzConfig) -> Result<CompressedBuffer> {
    compress_impl(data, layout, config, true, None)
}

/// Single-threaded [`compress`]: same chunking, same bytes, no thread
/// fan-out. The reference implementation for determinism tests and the
/// serial baseline in the throughput benchmarks.
pub fn compress_serial(
    data: &[f32],
    layout: DataLayout,
    config: &SzConfig,
) -> Result<CompressedBuffer> {
    compress_impl(data, layout, config, false, None)
}

/// [`compress`] that also hands back the reconstruction it already knows.
///
/// Contract: the stream's bytes equal [`compress`]'s, and the values
/// equal `decompress(&stream)` **bit for bit** (NaN payloads included).
/// A dual-quant encoder holds both ingredients the moment it quantizes —
/// a coded element reconstructs to its grid point times `2eb`, an
/// outlier to its own bits — so no entropy decode is needed; consumers
/// that want `x − x̂` right after encoding (error feedback, an owner
/// adopting what its peers will decode) skip a whole decompress. The
/// classic quantizer has no such shortcut here and really decodes.
///
/// ```
/// use ebtrain_sz::{compress, compress_recon, decompress, DataLayout, SzConfig};
///
/// let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
/// let cfg = SzConfig::with_error_bound(1e-3);
/// let (buf, recon) = compress_recon(&data, DataLayout::D1(256), &cfg).unwrap();
/// assert_eq!(buf.as_bytes(), compress(&data, DataLayout::D1(256), &cfg).unwrap().as_bytes());
/// assert_eq!(recon, decompress(&buf).unwrap());
/// ```
pub fn compress_recon(
    data: &[f32],
    layout: DataLayout,
    config: &SzConfig,
) -> Result<(CompressedBuffer, Vec<f32>)> {
    match config.quant_mode {
        QuantMode::DualQuant => {
            let mut recon = Vec::new();
            let buf = compress_impl(data, layout, config, true, Some(&mut recon))?;
            Ok((buf, recon))
        }
        QuantMode::Classic => {
            let buf = compress(data, layout, config)?;
            let recon = decompress(&buf)?;
            Ok((buf, recon))
        }
    }
}

/// Decompress a [`CompressedBuffer`] back to f32 values.
///
/// ```
/// use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};
///
/// let data = vec![1.0f32, 2.0, 3.0, 4.0];
/// let buf = compress(&data, DataLayout::D1(4), &SzConfig::with_error_bound(1e-4)).unwrap();
/// let out = decompress(&buf).unwrap();
/// assert!(data.iter().zip(&out).all(|(x, y)| (x - y).abs() <= 1e-4));
/// ```
pub fn decompress(buffer: &CompressedBuffer) -> Result<Vec<f32>> {
    decompress_impl(&buffer.bytes, true)
}

/// Single-threaded [`decompress`] (the serial baseline in benchmarks).
pub fn decompress_serial(buffer: &CompressedBuffer) -> Result<Vec<f32>> {
    decompress_impl(&buffer.bytes, false)
}

/// Decompress a raw stream.
pub fn decompress_bytes(bytes: &[u8]) -> Result<Vec<f32>> {
    decompress_impl(bytes, true)
}

/// Element count a stream's header declares, read without decoding the
/// body. The validate-before-alloc hook for consumers handed untrusted
/// streams: the header's count is self-consistent with its layout but
/// otherwise unbounded, so callers must reject a count that disagrees
/// with what they were told to expect *before* sizing any decode
/// buffer from it.
pub fn declared_len(bytes: &[u8]) -> Result<usize> {
    parse_header(bytes).map(|h| h.n)
}

/// The layout a stream's header declares (what its frames index), read
/// without decoding the body.
pub fn declared_layout(bytes: &[u8]) -> Result<DataLayout> {
    parse_header(bytes).map(|h| h.layout)
}

/// A full decode: the whole-plane-range case of [`crate::frames`]' one
/// decoder.
fn decompress_impl(bytes: &[u8], parallel: bool) -> Result<Vec<f32>> {
    let _span = ebtrain_obs::span!("sz.decompress", bytes = bytes.len());
    crate::frames::decode(bytes, None, parallel).map(|(values, _)| values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{predict, predict_i64};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn smooth_volume(a: usize, b: usize, c: usize) -> Vec<f32> {
        (0..a * b * c)
            .map(|idx| {
                let i = (idx / (b * c)) as f32;
                let j = ((idx / c) % b) as f32;
                let k = (idx % c) as f32;
                (0.3 * i).sin() + (0.2 * j).cos() * 0.5 + 0.1 * k
            })
            .collect()
    }

    #[test]
    fn roundtrip_honours_error_bound() {
        let data = smooth_volume(4, 16, 16);
        for eb in [1e-2f32, 1e-3, 1e-4] {
            let cfg = SzConfig::vanilla(eb);
            let buf = compress(&data, DataLayout::D3(4, 16, 16), &cfg).unwrap();
            let out = decompress(&buf).unwrap();
            assert_eq!(out.len(), data.len());
            for (i, (x, y)) in data.iter().zip(&out).enumerate() {
                assert!((x - y).abs() <= eb, "idx {i}: |{x} - {y}| > {eb}");
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_volume(8, 32, 32);
        let cfg = SzConfig::vanilla(1e-3);
        let buf = compress(&data, DataLayout::D3(8, 32, 32), &cfg).unwrap();
        assert!(buf.ratio() > 4.0, "ratio {}", buf.ratio());
    }

    #[test]
    fn sparse_relu_like_data_compresses_very_well() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..64 * 64)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    0.0
                } else {
                    rng.gen_range(0.0f32..2.0)
                }
            })
            .collect();
        let cfg = SzConfig::with_error_bound(1e-2);
        let buf = compress(&data, DataLayout::D2(64, 64), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        // The framework default: exact zeros stay exact, everything
        // else within the strict bound.
        for (x, y) in data.iter().zip(&out) {
            if *x == 0.0 {
                assert_eq!(*y, 0.0);
            }
            assert!((x - y).abs() <= 1e-2);
        }
        assert!(buf.ratio() > 2.0, "ratio {}", buf.ratio());
    }

    #[test]
    fn zero_filter_restores_exact_zeros() {
        // A nonzero ramp followed by a long run of zeros: without the
        // filter the zeros reconstruct to within ±eb of 0 but generally
        // not exactly 0 (the pathology the paper fixes).
        let mut data = vec![0.0f32; 256];
        for (i, v) in data.iter_mut().take(32).enumerate() {
            *v = 0.37 + i as f32 * 0.013;
        }
        let eb = 1e-3f32;
        let vanilla = compress(&data, DataLayout::D1(256), &SzConfig::vanilla(eb)).unwrap();
        let out_v = decompress(&vanilla).unwrap();
        let filtered = compress(&data, DataLayout::D1(256), &SzConfig::classic(eb)).unwrap();
        let out_f = decompress(&filtered).unwrap();
        let nz_vanilla = out_v[32..].iter().filter(|&&v| v != 0.0).count();
        let nz_filtered = out_f[32..].iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nz_filtered, 0, "filter must re-zero the zero run");
        // The vanilla path is allowed to (and in practice does) leak noise.
        assert!(nz_vanilla >= nz_filtered);
        // Either way, the bound holds on the nonzero prefix.
        for (x, y) in data[..32].iter().zip(&out_f[..32]) {
            assert!((x - y).abs() <= eb);
        }
    }

    #[test]
    fn outliers_are_bit_exact() {
        // Huge jumps exceed the quantizer radius and must round-trip exactly.
        let mut data = vec![0.0f32; 100];
        data[10] = 1e20;
        data[20] = -4e19;
        data[30] = f32::INFINITY;
        data[40] = f32::NAN;
        let cfg = SzConfig::vanilla(1e-6);
        let buf = compress(&data, DataLayout::D1(100), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        assert_eq!(out[10], 1e20);
        assert_eq!(out[20], -4e19);
        assert_eq!(out[30], f32::INFINITY);
        assert!(out[40].is_nan());
    }

    #[test]
    fn empty_input_roundtrips() {
        let cfg = SzConfig::with_error_bound(1e-3);
        let buf = compress(&[], DataLayout::D1(0), &cfg).unwrap();
        assert_eq!(buf.num_chunks(), 0);
        assert_eq!(decompress(&buf).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn layout_mismatch_rejected() {
        let cfg = SzConfig::with_error_bound(1e-3);
        assert!(matches!(
            compress(&[1.0, 2.0], DataLayout::D1(3), &cfg),
            Err(SzError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data = smooth_volume(2, 8, 8);
        let cfg = SzConfig::with_error_bound(1e-3);
        let buf = compress(&data, DataLayout::D3(2, 8, 8), &cfg).unwrap();
        let bytes = buf.as_bytes();
        assert!(decompress_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(decompress_bytes(&[]).is_err());
        assert!(decompress_bytes(&[0x00, 0x01, 0x02]).is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        // Chunk frames are length-prefixed and the stream end is strict,
        // so *any* strict prefix must fail cleanly.
        let data = smooth_volume(16, 32, 32);
        let cfg = SzConfig::with_error_bound(1e-2);
        let buf = compress(&data, DataLayout::D3(16, 32, 32), &cfg).unwrap();
        assert!(buf.num_chunks() > 1, "want a multi-chunk stream");
        let bytes = buf.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                decompress_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn crafted_wrapping_frame_length_errors_not_panics() {
        // A frame-length varint near usize::MAX makes naive `pos + len`
        // bounds arithmetic wrap; the decoder must reject, not panic.
        let data = smooth_volume(16, 32, 32);
        let cfg = SzConfig::with_error_bound(1e-2);
        let buf = compress(&data, DataLayout::D3(16, 32, 32), &cfg).unwrap();
        let bytes = buf.as_bytes();
        let header = parse_header(bytes).unwrap();
        let mut pos = header.body_off;
        ebtrain_encoding::huffman::Decoder::deserialize(bytes, &mut pos).unwrap();
        // `pos` now sits on the first frame_len varint; replace it.
        let mut evil = bytes[..pos].to_vec();
        varint::write_u64(&mut evil, u64::MAX - 16);
        evil.extend_from_slice(&bytes[pos..]);
        assert!(decompress_bytes(&evil).is_err());
    }

    /// A version-3 header up to `n_chunks`: `dims` under a classic
    /// quantizer, `n` elements claimed.
    fn crafted_header(n: usize, dims: &[usize], quant_mode: u8, block_planes: usize) -> Vec<u8> {
        let mut evil = MAGIC.to_vec();
        evil.push(FORMAT_VERSION);
        varint::write_usize(&mut evil, n);
        evil.extend_from_slice(&1e-3f32.to_bits().to_le_bytes());
        evil.push(dims.len() as u8); // Lorenzo predictor of that rank
        evil.push(dims.len() as u8); // ndims
        for &d in dims {
            varint::write_usize(&mut evil, d);
        }
        varint::write_u64(&mut evil, 32_768); // radius
        evil.push(0); // zero_filter
        evil.push(quant_mode);
        varint::write_usize(&mut evil, block_planes);
        evil
    }

    fn corrupt_message(bytes: &[u8]) -> String {
        match decompress_bytes(bytes) {
            Err(SzError::Corrupt(msg)) => msg,
            other => panic!("want a corruption error, got {other:?}"),
        }
    }

    #[test]
    fn crafted_huge_header_claims_error_before_allocating() {
        // ~30 bytes claiming a petabyte-scale volume must fail cheaply
        // (chunk count is validated arithmetically and against the
        // stream length, never materialized first).
        let huge = 1usize << 40;
        let mut evil = crafted_header(huge * 2, &[huge, 2], 0, 1);
        varint::write_usize(&mut evil, huge); // n_chunks (matches geometry)
        assert_eq!(corrupt_message(&evil), "chunk count exceeds stream");
        assert!(CompressedBuffer::from_bytes(evil).is_err());
    }

    #[test]
    fn crafted_overflowing_layout_dims_error_not_panic() {
        // Three 2^22 dims multiply to 2^66: checked_len must reject the
        // header instead of overflow-panicking in debug builds.
        let d = 1usize << 22;
        let mut evil = crafted_header(7, &[d, d, d], 0, 1);
        varint::write_usize(&mut evil, 1); // n_chunks
        assert_eq!(corrupt_message(&evil), "layout/len mismatch");
    }

    #[test]
    fn crafted_dual_quant_grid_blowup_is_garbage_not_panic() {
        // A well-framed dual-quant stream whose code sequence no real
        // encoder would emit: every code is u32::MAX, so the Lorenzo2
        // grid grows ~3x per element and overflows i64 within one chunk.
        // The decoder must return (any values), never overflow-panic.
        use ebtrain_encoding::huffman::{count_freqs, Codebook};
        let (h, w) = (64usize, 64usize);
        let codes = vec![u32::MAX; h * w];
        let codebook = Codebook::from_freqs(&count_freqs(&codes));
        let mut payload = Vec::new();
        codebook.encode_block(&codes, &mut payload);

        let mut evil = crafted_header(h * w, &[h, w], 1, h); // dual, one chunk
        varint::write_usize(&mut evil, 1); // n_chunks
        codebook.serialize(&mut evil);
        let mut frame = vec![EntropyStageTag::Huffman.as_u8()];
        varint::write_usize(&mut frame, 0); // n_outliers
        varint::write_usize(&mut frame, payload.len());
        frame.extend_from_slice(&payload);
        varint::write_usize(&mut evil, frame.len());
        evil.extend_from_slice(&frame);

        let out = decompress_bytes(&evil).unwrap();
        assert_eq!(out.len(), h * w);
    }

    #[test]
    fn crafted_outlier_count_overflow_errors_not_panics() {
        // One frame whose outlier count, times 4, would wrap — under a
        // header whose element count is as large, so only the
        // frame-length check stands between the count and an allocation.
        let huge = 1usize << 62;
        let mut evil = crafted_header(huge, &[huge], 0, huge);
        varint::write_usize(&mut evil, 1); // n_chunks
        huffman::Codebook::from_freqs(&[]).serialize(&mut evil);
        let mut frame = vec![EntropyStageTag::Huffman.as_u8()];
        varint::write_usize(&mut frame, huge); // n_outliers
        varint::write_usize(&mut evil, frame.len());
        evil.extend_from_slice(&frame);
        assert_eq!(corrupt_message(&evil), "truncated outliers");
    }

    /// A one-frame stream under `D1(2^62)` (one chunk of 2^62 elements)
    /// whose frame is entropy tag `tag` with no outliers and `payload`.
    fn crafted_2_62_element_frame(tag: EntropyStageTag, payload: &[u8]) -> Vec<u8> {
        let huge = 1usize << 62;
        let mut evil = crafted_header(huge, &[huge], 0, huge);
        varint::write_usize(&mut evil, 1); // n_chunks
        huffman::Codebook::from_freqs(&[]).serialize(&mut evil);
        let mut frame = vec![tag.as_u8()];
        varint::write_usize(&mut frame, 0); // n_outliers
        varint::write_usize(&mut frame, payload.len());
        frame.extend_from_slice(payload);
        varint::write_usize(&mut evil, frame.len());
        evil.extend_from_slice(&frame);
        evil
    }

    #[test]
    fn crafted_range_frame_claiming_2_62_elements_errors_not_panics() {
        // The range coder stores no count, so only the payload bounds the
        // frame's: before the bound, reserving 2^62 codes panicked.
        let evil = crafted_2_62_element_frame(EntropyStageTag::Range, &[0; 4]);
        assert_eq!(
            corrupt_message(&evil),
            "corrupt stream: range symbol count exceeds payload"
        );
    }

    #[test]
    fn crafted_rans_frame_claiming_2_62_elements_errors_not_panics() {
        // A valid rANS table (both hit probabilities 4095/4096, no class
        // symbols) and the final state 2^23: every hit decodes, so only
        // the payload bound stops the count.
        let mut table = ebtrain_encoding::bitio::BitWriter::new();
        table.write_bits(4095, 12);
        table.write_bits(4095, 12);
        table.write_bits(0, 7); // top
        let mut payload = table.finish();
        payload.extend_from_slice(&(1u32 << 23).to_be_bytes());
        let evil = crafted_2_62_element_frame(EntropyStageTag::Rans, &payload);
        assert_eq!(
            corrupt_message(&evil),
            "corrupt stream: rans symbol count exceeds payload"
        );
    }

    #[test]
    fn retired_z1_stream_is_rejected_at_the_magic() {
        // A format-1 stream as the pre-framing encoder wrote it (sin ramp,
        // D2(4, 6), eb = 1e-2): refused at its magic like any unknown one.
        const RETIRED_Z1: &[u8] = &[
            0x5a, 0x31, 0x18, 0x0a, 0xd7, 0x23, 0x3c, 0x02, 0x02, 0x04, 0x06, 0x80, 0x80, 0x02,
            0x01, 0x00, 0x00, 0x52, 0x4f, 0xf0, 0x40, 0x18, 0x10, 0xf8, 0xff, 0x01, 0x03, 0xfa,
            0xff, 0x01, 0x03, 0x87, 0x80, 0x02, 0x03, 0xff, 0xff, 0x01, 0x04, 0x80, 0x80, 0x02,
            0x04, 0x81, 0x80, 0x02, 0x04, 0x82, 0x80, 0x02, 0x04, 0x88, 0x80, 0x02, 0x04, 0x89,
            0x80, 0x02, 0x04, 0xab, 0x80, 0x02, 0x04, 0xd7, 0xff, 0x01, 0x05, 0xf7, 0xff, 0x01,
            0x05, 0xf9, 0xff, 0x01, 0x05, 0xfb, 0xff, 0x01, 0x05, 0xfc, 0xff, 0x01, 0x05, 0xfd,
            0xff, 0x01, 0x05, 0x0c, 0x7a, 0xb4, 0x96, 0x74, 0x9e, 0x6e, 0x40, 0x00, 0xeb, 0xfe,
            0x68, 0x80,
        ];
        assert_eq!(corrupt_message(RETIRED_Z1), "bad magic");
        assert!(declared_len(RETIRED_Z1).is_err());
        assert!(CompressedBuffer::from_bytes(RETIRED_Z1.to_vec()).is_err());
        // Format 2 shares the magic and is refused at the version byte.
        let mut v2 = crafted_header(24, &[4, 6], 0, 4);
        v2[2] = 2;
        assert_eq!(corrupt_message(&v2), "unsupported format version");
    }

    #[test]
    fn from_bytes_validates_and_preserves_metadata() {
        let data = smooth_volume(2, 8, 8);
        let cfg = SzConfig::with_error_bound(1e-3);
        let buf = compress(&data, DataLayout::D3(2, 8, 8), &cfg).unwrap();
        let rebuilt = CompressedBuffer::from_bytes(buf.as_bytes().to_vec()).unwrap();
        assert_eq!(rebuilt.original_len(), data.len());
        assert_eq!(rebuilt.num_chunks(), buf.num_chunks());
        assert_eq!(decompress(&rebuilt).unwrap(), decompress(&buf).unwrap());
        assert!(CompressedBuffer::from_bytes(vec![1, 2, 3]).is_err());
    }

    #[test]
    fn parallel_and_serial_bytes_are_identical() {
        let data = smooth_volume(16, 32, 32);
        for cfg in [
            SzConfig::classic(1e-2),
            SzConfig::vanilla(1e-3),
            SzConfig::with_error_bound(1e-3),
        ] {
            let par = compress(&data, DataLayout::D3(16, 32, 32), &cfg).unwrap();
            let ser = compress_serial(&data, DataLayout::D3(16, 32, 32), &cfg).unwrap();
            assert!(par.num_chunks() > 1);
            assert_eq!(par.as_bytes(), ser.as_bytes());
            assert_eq!(decompress(&par).unwrap(), decompress_serial(&ser).unwrap());
        }
    }

    #[test]
    fn chunk_planes_config_controls_frame_count() {
        let data = smooth_volume(12, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(4);
        let buf = compress(&data, DataLayout::D3(12, 8, 8), &cfg).unwrap();
        assert_eq!(buf.num_chunks(), 3);
        cfg.chunk_planes = Some(100);
        let one = compress(&data, DataLayout::D3(12, 8, 8), &cfg).unwrap();
        assert_eq!(one.num_chunks(), 1);
    }

    #[test]
    fn tighter_bound_means_lower_ratio() {
        let data = smooth_volume(4, 32, 32);
        let loose = compress(&data, DataLayout::D3(4, 32, 32), &SzConfig::vanilla(1e-2)).unwrap();
        let tight = compress(&data, DataLayout::D3(4, 32, 32), &SzConfig::vanilla(1e-5)).unwrap();
        assert!(
            loose.ratio() > tight.ratio(),
            "loose {} tight {}",
            loose.ratio(),
            tight.ratio()
        );
    }

    #[test]
    fn dual_quant_roundtrip_honours_error_bound() {
        let data = smooth_volume(4, 16, 16);
        for eb in [1e-2f32, 1e-3, 1e-4] {
            let cfg = SzConfig::with_error_bound(eb);
            let buf = compress(&data, DataLayout::D3(4, 16, 16), &cfg).unwrap();
            let out = decompress(&buf).unwrap();
            for (i, (x, y)) in data.iter().zip(&out).enumerate() {
                assert!((x - y).abs() <= eb, "idx {i}: |{x} - {y}| > {eb}");
            }
        }
    }

    #[test]
    fn dual_quant_preserves_zeros_without_filter() {
        // The inherent-zero-preservation property: q = round(0/2eb) = 0,
        // reconstructs exactly — no §4.4 filter needed.
        let mut data = vec![0.0f32; 256];
        for (i, v) in data.iter_mut().take(32).enumerate() {
            *v = 0.37 + i as f32 * 0.013;
        }
        let cfg = SzConfig::with_error_bound(1e-3);
        assert!(!cfg.zero_filter);
        let buf = compress(&data, DataLayout::D1(256), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        for (i, v) in out.iter().enumerate().skip(32) {
            assert_eq!(*v, 0.0, "zero at {i} perturbed to {v}");
        }
    }

    #[test]
    fn dual_quant_handles_outliers_and_nonfinite() {
        let mut data = vec![0.25f32; 64];
        data[5] = 1e30; // beyond the grid clamp -> bit-exact outlier
        data[9] = f32::NAN;
        data[11] = -4e20;
        let cfg = SzConfig::with_error_bound(1e-4);
        let buf = compress(&data, DataLayout::D1(64), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        assert_eq!(out[5], 1e30);
        assert!(out[9].is_nan());
        assert_eq!(out[11], -4e20);
        for (i, (x, y)) in data.iter().zip(&out).enumerate() {
            if x.is_finite() && x.abs() < 1e6 {
                assert!((x - y).abs() <= 1e-4, "idx {i}");
            }
        }
    }

    #[test]
    fn dual_quant_large_value_small_bound_stays_exact() {
        // f32 reconstruction rounding would violate the bound here; the
        // encoder must demote these points to bit-exact outliers.
        let data = vec![1.0e6f32, 1.0e6 + 0.5, -2.0e6, 0.0];
        let cfg = SzConfig::with_error_bound(1e-6);
        let buf = compress(&data, DataLayout::D1(4), &cfg).unwrap();
        let out = decompress(&buf).unwrap();
        for (x, y) in data.iter().zip(&out) {
            assert!((x - y).abs() <= 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn dual_quant_ratio_comparable_to_classic() {
        let data = smooth_volume(8, 32, 32);
        let classic = compress(&data, DataLayout::D3(8, 32, 32), &SzConfig::vanilla(1e-3)).unwrap();
        let dual = compress(
            &data,
            DataLayout::D3(8, 32, 32),
            &SzConfig::with_error_bound(1e-3),
        )
        .unwrap();
        let (rc, rd) = (classic.ratio(), dual.ratio());
        assert!(
            rd > rc * 0.5 && rd < rc * 2.5,
            "classic {rc:.1} vs dual {rd:.1}"
        );
    }

    #[test]
    fn specialized_reconstruct_matches_generic() {
        // The specialized per-(predictor, layout) loops in `reconstruct.rs`
        // must replay the generic stencils element-for-element — including
        // forced predictor/layout mismatches (e.g. Lorenzo3 over a 2-D
        // layout), where the generic decomposition degenerates.
        let mut rng = StdRng::seed_from_u64(99);
        let layouts = [
            DataLayout::D1(513),
            DataLayout::D2(21, 17),
            DataLayout::D3(5, 9, 11),
        ];
        for layout in layouts {
            for predictor in [
                Predictor::Lorenzo1,
                Predictor::Lorenzo2,
                Predictor::Lorenzo3,
            ] {
                for quant_mode in [QuantMode::Classic, QuantMode::DualQuant] {
                    let n = layout.len();
                    let data: Vec<f32> = (0..n)
                        .map(|_| {
                            if rng.gen_bool(0.3) {
                                0.0
                            } else {
                                rng.gen_range(-4.0f32..4.0)
                            }
                        })
                        .collect();
                    let mut cfg = SzConfig::vanilla(1e-3);
                    cfg.predictor = Some(predictor);
                    cfg.quant_mode = quant_mode;
                    let (codes, outliers) =
                        crate::quantize::quantize_chunk_owned(&data, layout, predictor, &cfg);
                    let outliers_f: Vec<f32> =
                        outliers.iter().map(|&b| f32::from_bits(b)).collect();
                    let radius = crate::RADIUS as i64;
                    let two_eb = 2.0 * cfg.error_bound;
                    // Generic reference: per-element predict()/predict_i64().
                    let reference = match quant_mode {
                        QuantMode::Classic => classic_reference(
                            &codes,
                            &outliers_f,
                            predictor,
                            layout,
                            radius,
                            two_eb,
                        ),
                        QuantMode::DualQuant => {
                            let mut reference = vec![0.0f32; n];
                            let mut oi = outliers_f.iter();
                            let mut grid = vec![0i64; n];
                            for idx in 0..n {
                                if codes[idx] == 0 {
                                    let x = *oi.next().unwrap();
                                    reference[idx] = x;
                                    grid[idx] = grid_of(x, two_eb).unwrap_or(0);
                                } else {
                                    let pred = predict_i64(predictor, &layout, &grid, idx);
                                    let q = pred.wrapping_add(codes[idx] as i64 - radius);
                                    grid[idx] = q;
                                    reference[idx] = (q as f64 * two_eb as f64) as f32;
                                }
                            }
                            reference
                        }
                    };
                    let mut specialized = vec![0.0f32; n];
                    match quant_mode {
                        QuantMode::Classic => crate::reconstruct::reconstruct_classic(
                            &codes,
                            &outliers_f,
                            predictor,
                            layout,
                            radius,
                            two_eb,
                            &mut specialized,
                        ),
                        QuantMode::DualQuant => crate::reconstruct::reconstruct_dual(
                            &codes,
                            &outliers_f,
                            predictor,
                            layout,
                            radius,
                            two_eb,
                            &mut specialized,
                        ),
                    }
                    .unwrap();
                    for (i, (a, b)) in reference.iter().zip(&specialized).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "{layout:?}/{predictor:?}/{quant_mode:?} idx {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// The generic per-element classic decoder: `predict()` over the
    /// values decoded so far, outliers taken in element order.
    fn classic_reference(
        codes: &[u32],
        outliers: &[f32],
        predictor: Predictor,
        layout: DataLayout,
        radius: i64,
        two_eb: f32,
    ) -> Vec<f32> {
        let mut reference = vec![0.0f32; codes.len()];
        let mut oi = outliers.iter();
        for (idx, &code) in codes.iter().enumerate() {
            reference[idx] = if code == 0 {
                *oi.next().unwrap()
            } else {
                let q = code as i64 - radius;
                predict(predictor, &layout, &reference, idx) + q as f32 * two_eb
            };
        }
        reference
    }

    #[test]
    fn classic_row_groups_match_generic_bit_for_bit() {
        // The Grid2 wavefront decodes rows in skewed groups with one
        // outlier cursor per row. Widths below, at and above the group
        // size, row counts that leave 0, 1 and 2 rows after the groups
        // (and 1-row chunks), and outliers of every kind in several rows
        // of the one chunk: NaN, ±Inf and jumps beyond the radius.
        let mut rng = StdRng::seed_from_u64(41);
        for w in [1usize, 2, 3, 4, 17, 1024] {
            for rows in 1..=9usize {
                let layout = DataLayout::D2(rows, w);
                let mut data: Vec<f32> = (0..rows * w)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            0.0
                        } else {
                            rng.gen_range(-4.0f32..4.0)
                        }
                    })
                    .collect();
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e9, -0.0];
                for (r, x) in (0..rows).step_by(2).zip(specials.iter().cycle()) {
                    data[r * w + (r * 7) % w] = *x;
                    data[r * w + w - 1] = -3e8;
                }
                let cfg = SzConfig::classic(1e-3);
                let (codes, outliers) =
                    crate::quantize::quantize_chunk_owned(&data, layout, Predictor::Lorenzo2, &cfg);
                let outliers: Vec<f32> = outliers.iter().map(|&b| f32::from_bits(b)).collect();
                let radius = crate::RADIUS as i64;
                let two_eb = 2.0 * cfg.error_bound;
                let reference = classic_reference(
                    &codes,
                    &outliers,
                    Predictor::Lorenzo2,
                    layout,
                    radius,
                    two_eb,
                );
                let decode = |outliers: &[f32]| {
                    let mut got = vec![0.0f32; codes.len()];
                    crate::reconstruct::reconstruct_classic(
                        &codes,
                        outliers,
                        Predictor::Lorenzo2,
                        layout,
                        radius,
                        two_eb,
                        &mut got,
                    )
                    .map(|()| got)
                };
                let got = decode(&outliers).unwrap();
                assert_eq!(bits(&got), bits(&reference), "{layout:?}");
                // One outlier short: a typed error, whichever row is short.
                if let Some(less) = outliers.len().checked_sub(1) {
                    assert!(
                        matches!(decode(&outliers[..less]), Err(SzError::Corrupt(_))),
                        "{layout:?}"
                    );
                }
            }
        }
        // Zero codes in the rows below row 0 and no outliers at all.
        let codes = [7u32, 0, 0, 9, 9, 0];
        let got = crate::reconstruct::reconstruct_classic(
            &codes,
            &[],
            Predictor::Lorenzo2,
            DataLayout::D2(3, 2),
            8,
            2e-3,
            &mut [0.0; 6],
        );
        assert!(matches!(got, Err(SzError::Corrupt(_))));
    }

    #[test]
    fn zero_filter_select_matches_the_branchy_loop() {
        // The filter snaps |v| <= eb to +0.0. Values at exactly ±eb, one
        // ulp either side, ±0.0, NaN and ±Inf reach the decoder's output
        // as exact outliers (each sits between two 1e9 jumps), beside a
        // random stretch that takes the ordinary quantized path.
        let eb = 1e-3f32;
        let specials = [
            eb,
            -eb,
            f32::from_bits(eb.to_bits() + 1),
            f32::from_bits(eb.to_bits() - 1),
            -f32::from_bits(eb.to_bits() + 1),
            -f32::from_bits(eb.to_bits() - 1),
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut data: Vec<f32> = specials.iter().flat_map(|&x| [1e9, x]).collect();
        let mut rng = StdRng::seed_from_u64(43);
        data.extend((0..500).map(|_| rng.gen_range(-0.004f32..0.004).max(0.0)));
        let layout = DataLayout::D1(data.len());
        // The two configurations write the same body; only the header's
        // filter flag differs.
        let vanilla =
            decompress(&compress(&data, layout, &SzConfig::vanilla(eb)).unwrap()).unwrap();
        let filtered =
            decompress(&compress(&data, layout, &SzConfig::classic(eb)).unwrap()).unwrap();
        let mut reference = vanilla.clone();
        for v in &mut reference {
            if v.abs() <= eb {
                *v = 0.0;
            }
        }
        assert_eq!(bits(&filtered), bits(&reference));
        for (k, x) in specials.iter().enumerate() {
            let (before, after) = (vanilla[2 * k + 1], filtered[2 * k + 1]);
            assert_eq!(
                before.to_bits(),
                x.to_bits(),
                "special {k} is an exact outlier"
            );
            let snapped = x.abs() <= eb;
            assert_eq!(
                after.to_bits(),
                if snapped { 0 } else { x.to_bits() },
                "special {k}"
            );
        }
        assert!(filtered.iter().skip(2 * specials.len()).any(|&v| v == 0.0));
    }

    /// Histogram of `n` codes: `centre` of them on the quantizer's zero
    /// point, the rest a two-sided geometric tail (ratio `decay`) out to
    /// `±reach` — the shape Lorenzo residuals take.
    fn residual_histogram(n: u64, centre: f64, decay: f64, reach: u32) -> Vec<(u32, u64)> {
        let mid = 32_768u32;
        let tail = n - (n as f64 * centre) as u64;
        let norm: f64 = 2.0 * (1..=reach).map(|k| decay.powi(k as i32)).sum::<f64>();
        let mut freqs = vec![(mid, n - tail)];
        for k in 1..=reach {
            let c = ((tail as f64 * decay.powi(k as i32) / norm) as u64).max(1);
            freqs.push((mid - k, c));
            freqs.push((mid + k, c));
        }
        freqs.sort_unstable();
        freqs
    }

    /// A chunk with histogram `freqs`, its symbols spread by a fixed hash
    /// (so the hit contexts see no runs the histogram does not imply).
    fn spread(freqs: &[(u32, u64)]) -> Vec<u32> {
        let mut codes: Vec<u32> = freqs
            .iter()
            .flat_map(|&(s, c)| std::iter::repeat_n(s, c as usize))
            .collect();
        let mut keyed: Vec<(u64, u32)> = codes
            .iter()
            .enumerate()
            .map(|(i, &s)| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32, s))
            .collect();
        keyed.sort_unstable();
        codes.clear();
        codes.extend(keyed.iter().map(|&(_, s)| s));
        codes
    }

    #[test]
    fn routing_prices_the_range_coder_at_its_speed() {
        let route = |freqs: &[(u32, u64)]| select_backend(freqs, &spread(freqs), 32_768);
        // ReLU-like chunks — half to two-thirds on the centre symbol, a
        // Laplacian rest — used to go to the range coder on the dominant
        // symbol alone; the model keeps them on Huffman.
        for centre in [0.50, 0.60, 0.65] {
            let freqs = residual_histogram(4096, centre, 0.5, 10);
            assert_eq!(route(&freqs), EntropyStageTag::Huffman, "centre {centre}");
        }
        // Near-constant chunks sit below Huffman's one-bit floor.
        for centre in [0.90, 0.97] {
            let freqs = residual_histogram(4096, centre, 0.5, 6);
            assert_eq!(route(&freqs), EntropyStageTag::Range, "centre {centre}");
        }
        // Tight bounds (fig13's eb = 1e-4 class): hundreds of symbols,
        // the codebook charge dominates, and the rANS table is a small
        // share of a deep frame.
        let wide = residual_histogram(4096, 0.02, 0.99, 300);
        assert_eq!(route(&wide), EntropyStageTag::Rans);
        // A tiny deep chunk cannot carry the table: it stays on tag 2.
        let tiny = residual_histogram(64, 0.02, 0.99, 24);
        assert_eq!(route(&tiny), EntropyStageTag::Range);
        // Degenerate inputs keep the default.
        assert_eq!(select_backend(&[], &[], 32_768), EntropyStageTag::Huffman);
    }

    /// `route` skips the histogram only where that changes no choice: on
    /// every chunk it picks what `select_backend` picks from the full
    /// histogram, and hands the histogram back exactly for Huffman frames.
    /// Flat alphabets of `d` symbols sit at the largest entropy `d` allows,
    /// where the shortcut's bound is tight, and the sweep over `d` crosses
    /// the Huffman/range boundary at every size that has one.
    #[test]
    fn routing_without_the_histogram_agrees_with_it() {
        let center = 32_768u32;
        let mut chunks: Vec<Vec<u32>> = vec![vec![], vec![center], vec![0, u32::MAX]];
        // `d` symbols `stride` apart: at stride 61 the span outgrows the
        // chunk, where the bitmap counts `d`, up to its 2^16 limit.
        for n in [1u32, 16, 100, 1000, 4096] {
            for stride in [1, 61] {
                for d in 1..=n.min(1075) {
                    let flat = (0..n).map(|i| center - d / 2 * stride + i % d * stride);
                    chunks.push(flat.collect());
                }
            }
        }
        for (centre, decay, reach) in [(0.6, 0.5, 10), (0.02, 0.99, 300), (0.0, 0.999, 3000)] {
            chunks.push(spread(&residual_histogram(4096, centre, decay, reach)));
        }
        let mut ruled_out = 0;
        for codes in &chunks {
            let freqs = huffman::count_freqs(codes);
            let want = select_backend(&freqs, codes, center);
            let huffman = want == EntropyStageTag::Huffman;
            let case = format!("n={} d={}", codes.len(), freqs.len());
            assert_eq!(
                route(codes, EntropyBackend::Auto, center),
                (want, huffman.then(|| freqs.clone())),
                "{case}"
            );
            if huffman_ruled_out(codes) {
                assert!(!huffman, "{case}");
                ruled_out += 1;
            }
            assert_eq!(
                route(codes, EntropyBackend::Huffman, center),
                (EntropyStageTag::Huffman, Some(freqs)),
                "{case}"
            );
            for (backend, tag) in [
                (EntropyBackend::Range, EntropyStageTag::Range),
                (EntropyBackend::Rans, EntropyStageTag::Rans),
            ] {
                assert_eq!(route(codes, backend, center), (tag, None), "{case}");
            }
        }
        assert!(ruled_out > 100, "the shortcut took only {ruled_out} chunks");
    }

    #[test]
    fn grid_of_matches_libm_round() {
        // The reference `grid_of`: libm's half-away-from-zero `round`.
        let reference = |x: f32, two_eb: f32| {
            let q = (x as f64 / two_eb as f64).round();
            (x.is_finite() && q.is_finite() && q.abs() < GRID_CLAMP).then_some(q as i64)
        };
        let mut rng = StdRng::seed_from_u64(41);
        for two_eb in [2e-1f32, 0.1, 2e-3, 2e-6, 1.0, 3.0, 1e-30, f32::MAX] {
            // Specials; the clamp edge and exact halves (small and large)
            // with their neighbours, both signs; random values and bits.
            let mut xs = vec![0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let halves = [0u32, 1, 2, 3, 7, 100, 4095, 1 << 20, (1 << 23) + 1]
                .map(|k| ((k as f64 + 0.5) * two_eb as f64) as f32);
            for edge in halves.into_iter().chain([GRID_CLAMP as f32 * two_eb]) {
                for ulps in -2i32..=2 {
                    let x = f32::from_bits((edge.to_bits() as i32 + ulps) as u32);
                    xs.extend([x, -x]);
                }
            }
            xs.extend((0..20_000).map(|_| rng.gen_range(-4.0f32..4.0)));
            xs.extend((0..2_000).map(|_| f32::from_bits(rng.gen::<u32>())));
            for x in xs {
                assert_eq!(grid_of(x, two_eb), reference(x, two_eb), "{x:e}/{two_eb:e}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn compress_recon_is_total_over_quant_modes() {
        // Dual-quant reconstructs on the encoder side, classic really
        // decodes; either way the contract is the same.
        let data = smooth_volume(16, 32, 32);
        let layout = DataLayout::D3(16, 32, 32);
        for cfg in [
            SzConfig::with_error_bound(1e-3),
            SzConfig::classic(1e-2),
            SzConfig::vanilla(1e-3),
        ] {
            let (buf, recon) = compress_recon(&data, layout, &cfg).unwrap();
            assert!(buf.num_chunks() > 1);
            assert_eq!(
                buf.as_bytes(),
                compress(&data, layout, &cfg).unwrap().as_bytes()
            );
            assert_eq!(bits(&recon), bits(&decompress(&buf).unwrap()));
        }
        assert!(
            compress_recon(&data, DataLayout::D1(3), &SzConfig::with_error_bound(1e-3)).is_err()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The `compress_recon` contract over arbitrary bit patterns (NaN
        /// payloads, ±Inf, denormals, values past the grid clamp and
        /// jumps past the radius all occur), every layout rank, forced
        /// multi-chunk geometry and the whole range of bounds the
        /// controller can pick: same bytes as `compress`, same values as
        /// `decompress`, serial == parallel.
        #[test]
        fn encoder_side_reconstruction_equals_the_decoder(
            raw in prop::collection::vec(any::<u32>(), 0..600),
            d1 in 1usize..7,
            d2 in 1usize..7,
            rank in 1usize..4,
            wild_every in 1usize..9,
            eb_log10 in -7.0f64..-1.0,
            chunk_planes in 1usize..5,
            backend in 0u8..4,
        ) {
            let eb = 10f64.powf(eb_log10) as f32;
            // Mostly smooth values a few bins apart (coded), every
            // `wild_every`-th an arbitrary bit pattern (escaped or not).
            let value = |i: usize, b: u32| {
                if i.is_multiple_of(wild_every) {
                    f32::from_bits(b)
                } else {
                    ((i as f32 * 0.37).sin() * 40.0 + (b % 7) as f32) * eb
                }
            };
            let layout = match rank {
                1 => DataLayout::D1(raw.len()),
                2 => DataLayout::D2(raw.len() / d2, d2),
                _ => DataLayout::D3(raw.len() / (d1 * d2), d1, d2),
            };
            let cells = raw.iter().take(layout.len()).enumerate();
            let data: Vec<f32> = cells.map(|(i, &b)| value(i, b)).collect();
            let mut cfg = SzConfig::with_error_bound(eb);
            cfg.chunk_planes = Some(chunk_planes);
            cfg.entropy_backend = match backend {
                0 => EntropyBackend::Auto,
                1 => EntropyBackend::Huffman,
                2 => EntropyBackend::Range,
                _ => EntropyBackend::Rans,
            };
            let plain = compress(&data, layout, &cfg).unwrap();
            let (buf, recon) = compress_recon(&data, layout, &cfg).unwrap();
            prop_assert_eq!(buf.as_bytes(), plain.as_bytes());
            prop_assert_eq!(bits(&recon), bits(&decompress(&plain).unwrap()));
            let mut serial = Vec::new();
            let ser = compress_impl(&data, layout, &cfg, false, Some(&mut serial)).unwrap();
            prop_assert_eq!(ser.as_bytes(), plain.as_bytes());
            prop_assert_eq!(bits(&serial), bits(&recon));
        }
    }

    #[test]
    fn random_data_still_bounded() {
        let mut rng = StdRng::seed_from_u64(77);
        let data: Vec<f32> = (0..10_000)
            .map(|_| rng.gen_range(-100.0f32..100.0))
            .collect();
        let eb = 0.5f32;
        let buf = compress(&data, DataLayout::D1(10_000), &SzConfig::vanilla(eb)).unwrap();
        let out = decompress(&buf).unwrap();
        for (x, y) in data.iter().zip(&out) {
            assert!((x - y).abs() <= eb);
        }
    }
}
