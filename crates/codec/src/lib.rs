//! # ebtrain-codec
//!
//! The **backend-agnostic codec abstraction**: every compression consumer
//! in the workspace (`dnn`'s activation stores, `membudget`'s tiered
//! arena, `dist`'s compressed ring) speaks [`Codec`] + [`TaggedStream`]
//! instead of hard-coding one backend. The paper's core claim
//! (conf_ppopp_JinLST21) is that *error-bounded lossy compression* — not
//! one specific codec — is the right tool for training-memory and
//! communication reduction, and it explicitly compares SZ-style
//! prediction+quantization against ZFP-style transform coding and
//! lossless baselines. This crate is the seam that makes those
//! comparisons (and per-layer routing between them) first-class.
//!
//! Three pieces (DESIGN.md §8):
//!
//! * [`Codec`] — `compress(&[f32], DataLayout, &BoundSpec)` →
//!   [`TaggedStream`], `decompress`,
//!   [`compress_recon`](Codec::compress_recon) (the stream *and* the
//!   values a decoder would produce from it, without decoding where the
//!   encoder already knows them), plus **capability probes**:
//!   [`supports_frame_index`](Codec::supports_frame_index),
//!   [`decompress_planes`](Codec::decompress_planes) (with a documented
//!   whole-decode fallback for codecs without random access) for
//!   consumers that fetch plane ranges (the budgeted arena, serve).
//! * [`BoundSpec`] — unified absolute / value-range-relative / lossless
//!   bound semantics; each backend resolves the spec against the data
//!   (and [`Codec::contract`] states what the roundtrip then honours).
//! * [`CodecRegistry`] + [`TaggedStream`] — a self-describing container
//!   (`0xEB 0xC0` magic + one-byte codec id + body) whose
//!   [`from_bytes`](TaggedStream::from_bytes) routes to the right
//!   decoder. Only the container parses: a bare backend body is
//!   rejected like any unknown magic. The id names a decoder, not a
//!   stream revision — the SZ body carries its own format version and
//!   per-frame entropy-stage tags (DESIGN.md §3), and the SZ decoder
//!   reads exactly one of each layout it has ever written: `Z2`
//!   version 3 with tags 0, 2 and 3.
//!
//! Errors are [`ebtrain_sz::SzError`] across all backends (the ZFP-like
//! and lossless backends already used it), so consumers keep their error
//! plumbing.

mod adapters;
mod registry;
mod stream;

pub use adapters::{ByteplaneCodec, LosslessCodec, SzCodec, ZfpLikeCodec};
pub use registry::CodecRegistry;
pub use stream::TaggedStream;

use ebtrain_sz::{DataLayout, SzError};
use std::ops::Range;

/// Crate-wide result alias (errors are [`SzError`] across all backends).
pub type Result<T> = std::result::Result<T, SzError>;

pub(crate) fn corrupt(msg: &str) -> SzError {
    SzError::Corrupt(msg.to_string())
}

/// Stable one-byte codec identifier — the routing key of the
/// [`TaggedStream`] container and the [`CodecRegistry`].
///
/// Assignment rules (DESIGN.md §8): ids are **wire format**, never reuse
/// or renumber a released id; `0` is reserved as invalid; `1..=15` are
/// claimed by in-tree backends; downstream experiments should pick from
/// `16..=254`. All `SzCodec` configurations share one id because the SZ
/// stream header already self-describes its quantization mode — the id
/// names a *decoder*, not an encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodecId(pub u8);

impl CodecId {
    /// SZ-style prediction + quantization (`ebtrain-sz`, any config —
    /// including any per-frame entropy stage: the Z2 v3 frame tag is
    /// read by the SZ decoder, not routed on here).
    pub const SZ: CodecId = CodecId(1);
    /// ZFP-style fixed-rate transform coding (`ebtrain_sz::zfp_like`).
    pub const ZFP_LIKE: CodecId = CodecId(2);
    /// Lossless byte-plane + entropy comparator (`ebtrain_sz::lossless`).
    pub const LOSSLESS: CodecId = CodecId(3);
    /// Byte-plane shuffle + LZ, bit-exact (`ebtrain_encoding::byteplane`).
    pub const BYTEPLANE: CodecId = CodecId(4);
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec#{}", self.0)
    }
}

/// Unified error-bound request, resolved per backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundSpec {
    /// Absolute bound: every reconstructed value within ±eb (per the
    /// codec's [`contract`](Codec::contract) refinements).
    Abs(f32),
    /// Value-range-relative bound: resolved to
    /// `eb = rel · (max − min)` over the finite values of the payload
    /// (the SZ community's `REL` mode).
    Rel(f32),
    /// Bit-exact reconstruction required. Lossy codecs reject this
    /// (lossless ones accept any spec — exceeding the contract is free).
    Lossless,
}

impl BoundSpec {
    /// Resolve to an absolute bound against `data`; `None` for
    /// [`Lossless`](BoundSpec::Lossless).
    pub fn resolve_abs(&self, data: &[f32]) -> Option<f32> {
        match *self {
            BoundSpec::Abs(eb) => Some(eb),
            BoundSpec::Rel(rel) => {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &v in data {
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                let range = if hi > lo { hi - lo } else { 0.0 };
                Some((rel * range).max(f32::MIN_POSITIVE))
            }
            BoundSpec::Lossless => None,
        }
    }
}

/// What a codec's roundtrip promises for a resolved absolute bound `eb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorContract {
    /// Every value within ±eb.
    Absolute,
    /// Exact zeros reconstruct exactly, `|x| > 2eb` within ±eb, small
    /// non-zeros within ±2eb (classic SZ with the paper's zero filter).
    AbsoluteZeroSnap,
    /// Per-block *relative* error only — absolute error is unbounded
    /// when a block's dynamic range is large (ZFP fixed-rate; the
    /// paper's §2.2 disqualifier, kept honest here).
    BlockRelative,
    /// Bit-exact.
    Exact,
}

/// Byte-access accounting of a [`Codec::decompress_planes`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneDecodeStats {
    /// Payload bytes the call actually decoded.
    pub bytes_decoded: usize,
    /// Total payload bytes of the stream.
    pub bytes_total: usize,
    /// True when the codec served the range without a whole-stream
    /// decode (i.e. the frame index did real work).
    pub partial: bool,
}

/// A compression backend.
///
/// Implementations are cheap immutable configuration holders shared as
/// `Arc<dyn Codec>`; all state lives in the streams. `compress` must
/// produce a stream `decompress` accepts, and the roundtrip must honour
/// [`contract`](Codec::contract) for every [`BoundSpec`] that
/// [`supports`](Codec::supports) approves — the cross-backend
/// conformance suite (`tests/tests/codec_conformance.rs`) pins this for
/// every codec in [`CodecRegistry::standard`].
pub trait Codec: Send + Sync {
    /// Stable wire id (see [`CodecId`]).
    fn id(&self) -> CodecId;

    /// Human-readable backend name ("sz", "zfp-like", ...).
    fn name(&self) -> &'static str;

    /// Error contract of the roundtrip.
    fn contract(&self) -> ErrorContract;

    /// Whether this codec can honour `bound` at all.
    fn supports(&self, bound: &BoundSpec) -> bool {
        let _ = bound;
        true
    }

    /// Compress `data` (interpreted under `layout`) within `bound`.
    fn compress(&self, data: &[f32], layout: DataLayout, bound: &BoundSpec)
        -> Result<TaggedStream>;

    /// Decompress a stream produced by this codec (routed here by
    /// [`TaggedStream::codec_id`]).
    fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>>;

    /// [`compress`](Codec::compress) that also hands back the
    /// reconstruction. **Contract:** the stream's bytes equal
    /// `compress(data, layout, bound)`'s and the values equal
    /// `decompress(&stream)` bit for bit (NaN payloads included) — so a
    /// consumer that needs `x̂` right after encoding (the compressed
    /// ring's error-feedback residual and its all-gather owner) may use
    /// them **in place of** a decode, and what it holds is exactly what
    /// every peer decoding the stream will hold. The default is
    /// literally `compress` + `decompress`, correct for every backend;
    /// a codec whose encoder already knows `x̂` (SZ dual-quant)
    /// overrides it to skip the decode. The conformance suite pins the
    /// contract for every registered codec.
    fn compress_recon(
        &self,
        data: &[f32],
        layout: DataLayout,
        bound: &BoundSpec,
    ) -> Result<(TaggedStream, Vec<f32>)> {
        let stream = self.compress(data, layout, bound)?;
        let recon = self.decompress(&stream)?;
        Ok((stream, recon))
    }

    /// Element count the stream's own header declares, read **without**
    /// decoding the body — the validate-before-alloc hook for consumers
    /// decoding untrusted streams (the serve daemon's store path). A
    /// stream header is free to claim any count, and decoders size
    /// buffers from it, so such consumers must reject a claim that
    /// disagrees with what they were told to expect *before* calling
    /// [`decompress`](Codec::decompress). `Ok(None)` means the codec
    /// cannot tell without a full decode; `Err` means the header does
    /// not even parse. All in-tree codecs answer `Some`.
    fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        let _ = stream;
        Ok(None)
    }

    /// True when streams from this codec carry a frame index, i.e.
    /// [`decompress_planes`](Codec::decompress_planes) can decode a plane
    /// range *without* touching the rest of the stream.
    fn supports_frame_index(&self) -> bool {
        false
    }

    /// Decode only the leading-dimension planes in `planes` of `layout`
    /// (plane units per [`DataLayout::plane_elems`]). The default is the
    /// documented whole-decode fallback: decompress everything, slice
    /// the requested window, and report `bytes_decoded == bytes_total`
    /// so callers' byte accounting stays honest. Codecs with a frame
    /// index override this to decode only the covering frames.
    ///
    /// Planes are always those of the caller's `layout`. Self-describing
    /// streams (SZ) index their frames by their own header's layout, so
    /// they take the frame path only when that layout is the caller's.
    fn decompress_planes(
        &self,
        stream: &TaggedStream,
        layout: DataLayout,
        planes: Range<usize>,
    ) -> Result<(Vec<f32>, PlaneDecodeStats)> {
        decode_planes_whole(self, stream, layout, planes)
    }
}

/// The whole-decode plane fallback of [`Codec::decompress_planes`]: the
/// window `planes` of `layout` sliced from a full decode.
pub(crate) fn decode_planes_whole<C: Codec + ?Sized>(
    codec: &C,
    stream: &TaggedStream,
    layout: DataLayout,
    planes: Range<usize>,
) -> Result<(Vec<f32>, PlaneDecodeStats)> {
    let pe = layout.plane_elems();
    let np = layout.plane_count();
    if planes.start > planes.end || planes.end > np {
        return Err(corrupt("plane range out of bounds"));
    }
    let full = codec.decompress(stream)?;
    if full.len() != layout.len() {
        return Err(corrupt("stream length does not match caller layout"));
    }
    // Clamp both ends: the final D1 plane may be partial.
    let lo = (planes.start * pe).min(full.len());
    let hi = (planes.end * pe).min(full.len());
    let body = stream.body().len();
    Ok((
        full[lo..hi].to_vec(),
        PlaneDecodeStats {
            bytes_decoded: body,
            bytes_total: body,
            partial: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_spec_resolves_relative_against_range() {
        let data = [0.0f32, 2.0, -2.0, f32::NAN];
        assert_eq!(BoundSpec::Abs(0.5).resolve_abs(&data), Some(0.5));
        assert_eq!(BoundSpec::Rel(0.01).resolve_abs(&data), Some(0.04));
        assert_eq!(BoundSpec::Lossless.resolve_abs(&data), None);
        // Constant data: resolved bound stays positive (codec-valid).
        let eb = BoundSpec::Rel(0.01).resolve_abs(&[3.0, 3.0]).unwrap();
        assert!(eb > 0.0);
    }

    #[test]
    fn codec_ids_are_stable() {
        assert_eq!(CodecId::SZ, CodecId(1));
        assert_eq!(CodecId::ZFP_LIKE, CodecId(2));
        assert_eq!(CodecId::LOSSLESS, CodecId(3));
        assert_eq!(CodecId::BYTEPLANE, CodecId(4));
    }
}
