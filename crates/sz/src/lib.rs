//! # ebtrain-sz
//!
//! A from-scratch, CPU implementation of an **SZ/cuSZ-style error-bounded
//! lossy compressor** for `f32` tensors — the compression substrate of the
//! paper's training framework (the paper uses cuSZ on GPU; the algorithmic
//! pipeline reproduced here is the same, see `DESIGN.md` §2).
//!
//! Pipeline (absolute-error-bound mode):
//!
//! 0. **Chunking** — the volume is split into plane-aligned blocks that
//!    compress independently and are written as self-delimiting frames,
//!    so both directions run block-parallel across threads (cuSZ's
//!    architectural core; see [`blocks`] and `DESIGN.md` §3). Chunk
//!    geometry depends only on layout and configuration, so parallel and
//!    serial encodes are bit-identical.
//! 1. **Lorenzo prediction** on *reconstructed* neighbours (1-D, 2-D or
//!    3-D), so encoder and decoder walk identical state.
//! 2. **Linear-scaling quantization** of the prediction residual with bin
//!    width `2·eb`: `q = round((x − pred) / 2eb)`, giving the uniform
//!    `[−eb, +eb]` reconstruction-error distribution the paper's §3.1
//!    analysis relies on.
//! 3. Residuals outside the quantizer radius become **outliers**, stored
//!    bit-exact (so pathological values cost space, never accuracy).
//! 4. **Per-chunk entropy stage** over the quantization codes: a
//!    shared-codebook canonical Huffman block or the codebook-free
//!    adaptive range coder, picked per chunk by a size model (see
//!    [`EntropyBackend`]).
//!
//! The quantizer comes in two [`QuantMode`]s. The framework default
//! ([`SzConfig::with_error_bound`]) is cuSZ's **dual-quantization**:
//! values are first snapped to the integer grid `round(x / 2eb)` and
//! Lorenzo runs on exact integers, so step 2's divide leaves the
//! prediction recurrence (about twice the classic quantizer's
//! throughput) and original zeros reconstruct exactly. The paper-mode
//! figures use [`SzConfig::classic`]: Lorenzo on reconstructed floats plus
//! the paper's §4.4 [`SzConfig::zero_filter`], which snaps decompressed
//! values with magnitude ≤ eb back to zero so post-ReLU zero runs are
//! not smeared into ±eb noise. [`lossless`] is the lossless comparator
//! (byte-plane shuffle + Huffman + LZ) for the ~2× baseline of §5.3.
//!
//! # Error contract
//!
//! Dual-quantization and classic quantization with `zero_filter` **off**:
//! every reconstructed value differs from its original by at most `eb`
//! (outliers are exact); dual-quantization additionally reconstructs
//! original zeros exactly. Classic quantization with `zero_filter`
//! **on**: original zeros reconstruct *exactly*, values with `|x| > 2eb`
//! still honour `eb`, and small non-zero values (`|x| ≤ 2eb`) may be
//! zeroed, i.e. their error is at most `2eb`. Both contracts are enforced
//! by property tests.

pub mod blocks;
mod codec;
mod frames;
pub mod lossless;
mod predictor;
mod quantize;
mod reconstruct;
pub mod zfp_like;

pub use codec::{
    compress, compress_recon, compress_serial, declared_layout, declared_len, decompress,
    decompress_bytes, decompress_serial, CompressedBuffer,
};
pub use frames::{
    decompress_planes_bytes, frame_index_of, FrameEntry, FrameIndex, RangeDecodeStats,
};
pub use predictor::Predictor;

/// Errors from compression/decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum SzError {
    /// Error bound must be a finite positive number.
    BadErrorBound(f32),
    /// Layout dims do not multiply to the data length.
    LayoutMismatch {
        /// Elements implied by the layout.
        layout: usize,
        /// Actual data length.
        data: usize,
    },
    /// The compressed stream is structurally invalid.
    Corrupt(String),
    /// The requested operation is outside this codec's capabilities
    /// (e.g. a lossless bound asked of a lossy backend).
    Unsupported(String),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::BadErrorBound(eb) => write!(f, "invalid error bound {eb}"),
            SzError::LayoutMismatch { layout, data } => {
                write!(f, "layout implies {layout} elements, data has {data}")
            }
            SzError::Corrupt(msg) => write!(f, "corrupt sz stream: {msg}"),
            SzError::Unsupported(msg) => write!(f, "unsupported codec operation: {msg}"),
        }
    }
}

impl std::error::Error for SzError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SzError>;

/// Logical layout of the flat buffer, which selects the Lorenzo variant.
///
/// For an NCHW activation tensor the natural choice is
/// `D3 { d0: n*c, d1: h, d2: w }` (each channel plane predicted in 2-D,
/// with inter-plane prediction along `d0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLayout {
    /// Flat sequence; 1-D Lorenzo (previous element).
    D1(usize),
    /// `rows × cols` grid; 2-D Lorenzo.
    D2(usize, usize),
    /// `d0 × d1 × d2` volume; 3-D Lorenzo.
    D3(usize, usize, usize),
}

impl DataLayout {
    /// Total element count implied by the layout.
    pub fn len(&self) -> usize {
        match *self {
            DataLayout::D1(n) => n,
            DataLayout::D2(h, w) => h * w,
            DataLayout::D3(a, b, c) => a * b * c,
        }
    }

    /// [`len`](DataLayout::len) without the overflow hazard: `None` when
    /// the dims do not multiply within `usize`. Decoders must use this on
    /// layouts read from untrusted streams.
    pub fn checked_len(&self) -> Option<usize> {
        match *self {
            DataLayout::D1(n) => Some(n),
            DataLayout::D2(h, w) => h.checked_mul(w),
            DataLayout::D3(a, b, c) => a.checked_mul(b)?.checked_mul(c),
        }
    }

    /// True for a zero-element layout.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements per leading-dimension "plane" — the granularity of
    /// [`CompressedBuffer::decompress_planes`](crate::CompressedBuffer::decompress_planes)
    /// ranges: a row for `D2`, a `d1 × d2` plane for `D3`, and a
    /// 4096-element run for `D1` (matching the chunk geometry in
    /// [`blocks`]).
    pub fn plane_elems(&self) -> usize {
        match *self {
            DataLayout::D1(_) => 4096,
            DataLayout::D2(_, w) => w,
            DataLayout::D3(_, b, c) => b * c,
        }
    }

    /// Number of planes the layout splits into (the final `D1` plane may
    /// be partial).
    pub fn plane_count(&self) -> usize {
        match *self {
            DataLayout::D1(n) => n.div_ceil(4096),
            DataLayout::D2(h, _) => h,
            DataLayout::D3(a, _, _) => a,
        }
    }

    /// Best-fitting layout for an NCHW shape `[n, c, h, w]` (or fewer dims).
    pub fn for_shape(shape: &[usize]) -> DataLayout {
        match *shape {
            [] => DataLayout::D1(0),
            [n] => DataLayout::D1(n),
            [h, w] => DataLayout::D2(h, w),
            [c, h, w] => DataLayout::D3(c, h, w),
            [n, c, h, w] => DataLayout::D3(n * c, h, w),
            _ => DataLayout::D1(shape.iter().product()),
        }
    }
}

/// Quantization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Classic SZ: Lorenzo prediction on *reconstructed floats*,
    /// linear-scaling quantization of the residual. Runs of zeros after
    /// non-zero data reconstruct to ±eb noise — the pathology the paper's
    /// §4.4 zero filter fixes.
    Classic,
    /// cuSZ's dual-quantization (the framework default): values are
    /// pre-quantized to the integer grid `q = round(x / 2eb)` and Lorenzo
    /// runs on the integers. All arithmetic is exact, original zeros map
    /// to `q = 0` and reconstruct *exactly*, and the contract stays the
    /// strict `|x − x̂| ≤ eb`: a grid point is at most `eb` from its
    /// value (so `|x| ≤ eb` lands on 0 with error ≤ eb, never the zero
    /// filter's 2eb), and the encoder verifies every reconstruction,
    /// demoting the rest to bit-exact outliers.
    #[default]
    DualQuant,
}

impl QuantMode {
    /// Wire tag.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            QuantMode::Classic => 0,
            QuantMode::DualQuant => 1,
        }
    }

    /// Inverse of [`tag`](QuantMode::tag).
    pub(crate) fn from_tag(tag: u8) -> Option<QuantMode> {
        match tag {
            0 => Some(QuantMode::Classic),
            1 => Some(QuantMode::DualQuant),
            _ => None,
        }
    }
}

/// Entropy-stage backend policy for chunk frames (the format-3
/// per-frame tag byte; see `DESIGN.md` §3).
///
/// Selection is an *encoder* policy: any setting decodes any stream,
/// because each frame carries its own tag, and both backends are
/// lossless over the quantized symbols — the choice never changes
/// decoded values, only the bytes in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyBackend {
    /// Pick per chunk from the symbol histogram's modelled sizes. The
    /// range coder makes one binary decision per modeled bit and is several
    /// times slower than Huffman, so the range family takes a chunk only
    /// where it is modelled ≥ 15 % denser: near-constant chunks (Huffman
    /// cannot go below one bit per symbol) and very wide alphabets (deep
    /// codebooks). Everything else keeps shared-codebook Huffman. Of the
    /// range family's chunks, static rANS (tag 3) takes those whose exact
    /// price, table included, is within 3 % of a model of the adaptive
    /// coder's bytes (the ideal code length of the chunk's two halves):
    /// ≈ 18 against ≈ 38 ns/symbol to encode and ≈ 13 against ≈ 48 to
    /// decode on captured deep gradient frames. Near-constant and tiny
    /// chunks, and chunks whose statistics drift, stay on the table-free
    /// adaptive coder (tag 2).
    #[default]
    Auto,
    /// Force shared-codebook canonical Huffman for every chunk.
    Huffman,
    /// Force the codebook-free adaptive binary range coder.
    Range,
    /// Force the static rANS coder (tests and benches).
    Rans,
}

/// Quantizer radius: residuals with `|q| ≥ RADIUS` become outliers
/// (16-bit code space, matching SZ defaults). Every stream's header
/// records it, and the decoder reads it from there.
pub(crate) const RADIUS: u32 = 32_768;

/// Compressor configuration (absolute-error-bound mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzConfig {
    /// Absolute error bound `eb`: every value reconstructs within ±eb
    /// (see the crate docs for the `zero_filter` refinement).
    pub error_bound: f32,
    /// Paper §4.4: snap `|x'| ≤ eb` back to exactly 0 on decompression.
    /// Meaningful for [`QuantMode::Classic`] only: a dual-quant
    /// reconstruction is either exactly 0 or at least `2eb` away from
    /// it, so the decoder skips the pass for dual-quant streams.
    pub zero_filter: bool,
    /// Lorenzo predictor dimensionality; `None` derives it from layout.
    pub predictor: Option<Predictor>,
    /// Quantization strategy (classic SZ vs cuSZ dual-quantization).
    pub quant_mode: QuantMode,
    /// Leading-dimension slices per independently-coded chunk (the
    /// block-parallel grain; see [`blocks`]). `None` picks a size
    /// automatically (~4096 elements per chunk). Chunk geometry is part
    /// of the stream, but the decoder reads it from the header — any
    /// setting decodes any stream.
    pub chunk_planes: Option<usize>,
    /// Per-chunk entropy-stage policy (see [`EntropyBackend`]).
    pub entropy_backend: EntropyBackend,
}

impl SzConfig {
    /// The framework default at absolute error bound `eb`:
    /// dual-quantization, zero filter off (zeros are exact by
    /// construction), strict `|x − x̂| ≤ eb`. Every training, collective
    /// and at-rest path compresses with this.
    pub fn with_error_bound(eb: f32) -> Self {
        SzConfig {
            error_bound: eb,
            zero_filter: false,
            predictor: None,
            quant_mode: QuantMode::DualQuant,
            chunk_planes: None,
            entropy_backend: EntropyBackend::Auto,
        }
    }

    /// Paper mode: the classic quantizer with the §4.4 zero filter **on**
    /// (the 2eb small-value contract). What the paper-figure binaries
    /// and the classic golden fixtures pin.
    pub fn classic(eb: f32) -> Self {
        SzConfig {
            quant_mode: QuantMode::Classic,
            zero_filter: true,
            ..Self::with_error_bound(eb)
        }
    }

    /// Vanilla SZ: the classic quantizer with the zero filter disabled.
    pub fn vanilla(eb: f32) -> Self {
        SzConfig {
            zero_filter: false,
            ..Self::classic(eb)
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if !self.error_bound.is_finite() || self.error_bound <= 0.0 {
            return Err(SzError::BadErrorBound(self.error_bound));
        }
        if self.chunk_planes == Some(0) {
            return Err(SzError::Corrupt("chunk_planes must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_for_shape_maps_nchw_to_3d() {
        assert_eq!(DataLayout::for_shape(&[10]), DataLayout::D1(10));
        assert_eq!(DataLayout::for_shape(&[4, 5]), DataLayout::D2(4, 5));
        assert_eq!(DataLayout::for_shape(&[2, 4, 5]), DataLayout::D3(2, 4, 5));
        assert_eq!(
            DataLayout::for_shape(&[8, 3, 4, 5]),
            DataLayout::D3(24, 4, 5)
        );
        assert_eq!(DataLayout::for_shape(&[2, 2, 2, 2, 2]), DataLayout::D1(32));
    }

    #[test]
    fn config_validation() {
        assert!(SzConfig::with_error_bound(1e-3).validate().is_ok());
        assert!(SzConfig::with_error_bound(0.0).validate().is_err());
        assert!(SzConfig::with_error_bound(-1.0).validate().is_err());
        assert!(SzConfig::with_error_bound(f32::NAN).validate().is_err());
        let mut c = SzConfig::with_error_bound(1e-3);
        c.chunk_planes = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_dual_quant_and_classic_is_paper_mode() {
        let d = SzConfig::with_error_bound(1e-4);
        assert_eq!(d.quant_mode, QuantMode::DualQuant);
        assert!(!d.zero_filter);
        assert_eq!(d.entropy_backend, EntropyBackend::Auto);
        let c = SzConfig::classic(1e-4);
        assert_eq!(c.quant_mode, QuantMode::Classic);
        assert!(c.zero_filter);
        let v = SzConfig::vanilla(1e-4);
        assert_eq!(v.quant_mode, QuantMode::Classic);
        assert!(!v.zero_filter);
    }

    #[test]
    fn quant_mode_tags_roundtrip() {
        for m in [QuantMode::Classic, QuantMode::DualQuant] {
            assert_eq!(QuantMode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(QuantMode::from_tag(9), None);
    }
}
