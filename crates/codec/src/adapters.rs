//! [`Codec`] adapters over the in-tree backends.

use crate::stream::TaggedStream;
use crate::{
    corrupt, decode_planes_whole, BoundSpec, Codec, CodecId, ErrorContract, PlaneDecodeStats,
    Result,
};
use ebtrain_encoding::{byteplane, lz, varint};
use ebtrain_sz::{zfp_like, DataLayout, EntropyBackend, QuantMode, SzConfig, SzError};
use std::ops::Range;

/// The SZ-style prediction + quantization backend (`ebtrain-sz`).
///
/// All configurations share [`CodecId::SZ`] — the stream header carries
/// the quantization mode, predictor and error bound, so one decoder
/// serves every encoder configuration. The `error_bound` of the base
/// config is a placeholder: every [`compress`](Codec::compress) resolves
/// the caller's [`BoundSpec`] instead.
#[derive(Debug, Clone)]
pub struct SzCodec {
    base: SzConfig,
}

impl SzCodec {
    /// Adapter over an explicit base configuration (chunking,
    /// zero filter, quantization mode; the error bound is overridden per
    /// call).
    pub fn new(base: SzConfig) -> SzCodec {
        SzCodec { base }
    }

    /// Paper mode: classic quantization + §4.4 zero filter (the 2eb
    /// small-value contract, [`ErrorContract::AbsoluteZeroSnap`]).
    pub fn classic() -> SzCodec {
        SzCodec::new(SzConfig::classic(1e-3))
    }

    /// Vanilla SZ: classic quantization, no zero filter (strict ±eb).
    pub fn vanilla() -> SzCodec {
        SzCodec::new(SzConfig::vanilla(1e-3))
    }

    /// The framework default: cuSZ-style dual-quantization (zeros exact
    /// by construction, strict ±eb) — what the trainer, the compressed
    /// ring and the budgeted arena's at-rest encode use.
    pub fn dual_quant() -> SzCodec {
        SzCodec::new(SzConfig::with_error_bound(1e-3))
    }

    /// The base configuration.
    pub fn config(&self) -> &SzConfig {
        &self.base
    }

    fn cfg_for(&self, data: &[f32], bound: &BoundSpec) -> Result<SzConfig> {
        let eb = bound
            .resolve_abs(data)
            .ok_or_else(|| SzError::Unsupported("sz cannot encode losslessly".into()))?;
        Ok(SzConfig {
            error_bound: eb,
            ..self.base
        })
    }
}

impl Codec for SzCodec {
    fn id(&self) -> CodecId {
        CodecId::SZ
    }

    fn name(&self) -> &'static str {
        // A forced entropy stage gets its own name so bench/matrix rows
        // for the forced axes never collide with the Auto default. (The
        // zero filter is inert under dual-quantization, so it does not
        // split those names.)
        match (
            self.base.quant_mode,
            self.base.zero_filter,
            self.base.entropy_backend,
        ) {
            (QuantMode::DualQuant, _, EntropyBackend::Auto) => "sz-dualquant",
            (QuantMode::DualQuant, _, EntropyBackend::Huffman) => "sz-dualquant-huffman",
            (QuantMode::DualQuant, _, EntropyBackend::Range) => "sz-dualquant-range",
            (QuantMode::DualQuant, _, EntropyBackend::Rans) => "sz-dualquant-rans",
            (QuantMode::Classic, true, EntropyBackend::Auto) => "sz",
            (QuantMode::Classic, true, EntropyBackend::Huffman) => "sz-huffman",
            (QuantMode::Classic, true, EntropyBackend::Range) => "sz-range",
            (QuantMode::Classic, true, EntropyBackend::Rans) => "sz-rans",
            (QuantMode::Classic, false, EntropyBackend::Auto) => "sz-vanilla",
            (QuantMode::Classic, false, EntropyBackend::Huffman) => "sz-vanilla-huffman",
            (QuantMode::Classic, false, EntropyBackend::Range) => "sz-vanilla-range",
            (QuantMode::Classic, false, EntropyBackend::Rans) => "sz-vanilla-rans",
        }
    }

    fn contract(&self) -> ErrorContract {
        // Only the classic quantizer's zero filter relaxes small values
        // to 2eb; dual-quantization verifies `|x − x̂| ≤ eb` per element
        // (or stores the value exactly) and its decoder skips the filter.
        if self.base.zero_filter && self.base.quant_mode == QuantMode::Classic {
            ErrorContract::AbsoluteZeroSnap
        } else {
            ErrorContract::Absolute
        }
    }

    fn supports(&self, bound: &BoundSpec) -> bool {
        !matches!(bound, BoundSpec::Lossless)
    }

    fn compress(
        &self,
        data: &[f32],
        layout: DataLayout,
        bound: &BoundSpec,
    ) -> Result<TaggedStream> {
        let _span = ebtrain_obs::span!("codec.compress", bytes = data.len() * 4);
        let cfg = self.cfg_for(data, bound)?;
        let buf = ebtrain_sz::compress(data, layout, &cfg)?;
        Ok(TaggedStream::tag(CodecId::SZ, buf.into_bytes()))
    }

    /// Dual-quant hands back the reconstruction its quantizer already
    /// holds — one `codec.compress`, no decode. The classic
    /// configurations really decode, inside
    /// [`ebtrain_sz::compress_recon`].
    fn compress_recon(
        &self,
        data: &[f32],
        layout: DataLayout,
        bound: &BoundSpec,
    ) -> Result<(TaggedStream, Vec<f32>)> {
        let _span = ebtrain_obs::span!("codec.compress", bytes = data.len() * 4);
        let cfg = self.cfg_for(data, bound)?;
        let (buf, recon) = ebtrain_sz::compress_recon(data, layout, &cfg)?;
        Ok((TaggedStream::tag(CodecId::SZ, buf.into_bytes()), recon))
    }

    fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>> {
        let _span = ebtrain_obs::span!("codec.decompress", bytes = stream.compressed_byte_len());
        ebtrain_sz::decompress_bytes(stream.body())
    }

    fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        ebtrain_sz::declared_len(stream.body()).map(Some)
    }

    fn supports_frame_index(&self) -> bool {
        true
    }

    /// Only the frames covering `planes` are decoded (Z2 frame index,
    /// DESIGN.md §3), straight off the borrowed body (no stream copy).
    /// The frames index the header's layout; a stream compressed under
    /// another layout of the same length takes the whole-decode
    /// fallback, so `planes` always mean the caller's `layout`.
    fn decompress_planes(
        &self,
        stream: &TaggedStream,
        layout: DataLayout,
        planes: Range<usize>,
    ) -> Result<(Vec<f32>, PlaneDecodeStats)> {
        if ebtrain_sz::declared_layout(stream.body())? != layout {
            return decode_planes_whole(self, stream, layout, planes);
        }
        let _span = ebtrain_obs::span!("codec.decompress", bytes = stream.compressed_byte_len());
        let (vals, st) = ebtrain_sz::decompress_planes_bytes(stream.body(), planes)?;
        Ok((
            vals,
            PlaneDecodeStats {
                bytes_decoded: st.frame_bytes_decoded,
                bytes_total: st.frame_bytes_total,
                partial: st.frames_decoded < st.frames_total,
            },
        ))
    }
}

/// The ZFP-style fixed-rate transform coder (`ebtrain_sz::zfp_like`).
///
/// Fixed-rate mode cannot honour an absolute bound (the paper's §2.2
/// disqualifier); the adapter maps the requested bound to a bits/value
/// rate against the data's magnitude and reports
/// [`ErrorContract::BlockRelative`] — consumers that need a guaranteed
/// bound must not route here, and the conformance suite asserts shape
/// and determinism rather than a bound for this contract.
#[derive(Debug, Clone, Default)]
pub struct ZfpLikeCodec;

impl ZfpLikeCodec {
    /// Bits/value the adapter picks for `bound` over `data`.
    fn bits_for(data: &[f32], bound: &BoundSpec) -> Option<u32> {
        match *bound {
            BoundSpec::Abs(eb) => {
                if !(eb.is_finite() && eb > 0.0) {
                    return None;
                }
                let mag = data
                    .iter()
                    .filter(|v| v.is_finite())
                    .fold(0.0f32, |m, &v| m.max(v.abs()));
                if mag <= 0.0 {
                    return Some(2);
                }
                // Saturating: `mag / eb` overflows to +inf for huge
                // magnitudes and the cast pins that to `i64::MAX`.
                let bits = ((mag / eb).log2().ceil() as i64).saturating_add(2);
                Some(bits.clamp(2, 24) as u32)
            }
            BoundSpec::Rel(rel) => {
                if !(rel.is_finite() && rel > 0.0) {
                    return None;
                }
                let bits = ((-rel.log2()).ceil() as i64) + 2;
                Some(bits.clamp(2, 24) as u32)
            }
            BoundSpec::Lossless => None,
        }
    }

    /// 2-D geometry the block coder runs over: `D2` as-is, `D3(a,b,c)`
    /// flattened to `(a·b) × c`, `D1(n)` as a single row.
    fn geometry(layout: DataLayout) -> (usize, usize) {
        match layout {
            DataLayout::D1(n) => (1, n),
            DataLayout::D2(h, w) => (h, w),
            DataLayout::D3(a, b, c) => (a * b, c),
        }
    }
}

impl Codec for ZfpLikeCodec {
    fn id(&self) -> CodecId {
        CodecId::ZFP_LIKE
    }

    fn name(&self) -> &'static str {
        "zfp-like"
    }

    fn contract(&self) -> ErrorContract {
        ErrorContract::BlockRelative
    }

    fn supports(&self, bound: &BoundSpec) -> bool {
        !matches!(bound, BoundSpec::Lossless)
    }

    fn compress(
        &self,
        data: &[f32],
        layout: DataLayout,
        bound: &BoundSpec,
    ) -> Result<TaggedStream> {
        let _span = ebtrain_obs::span!("codec.compress", bytes = data.len() * 4);
        if data.is_empty() {
            return Err(corrupt("zfp-like cannot encode an empty tensor"));
        }
        let bits = Self::bits_for(data, bound)
            .ok_or_else(|| SzError::Unsupported("zfp-like cannot honour this bound".into()))?;
        let (h, w) = Self::geometry(layout);
        let body = zfp_like::compress(
            data,
            h,
            w,
            &zfp_like::ZfpLikeConfig {
                bits_per_value: bits,
            },
        )?;
        Ok(TaggedStream::tag(CodecId::ZFP_LIKE, body))
    }

    fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>> {
        let _span = ebtrain_obs::span!("codec.decompress", bytes = stream.compressed_byte_len());
        zfp_like::decompress(stream.body())
    }

    fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        zfp_like::declared_len(stream.body()).map(Some)
    }
}

/// The lossless comparator (`ebtrain_sz::lossless`): byte-plane
/// shuffle, then Huffman and LZ — bit-exact. Accepts every
/// [`BoundSpec`], since exceeding a lossy contract is free.
#[derive(Debug, Clone, Default)]
pub struct LosslessCodec;

impl Codec for LosslessCodec {
    fn id(&self) -> CodecId {
        CodecId::LOSSLESS
    }

    fn name(&self) -> &'static str {
        "lossless"
    }

    fn contract(&self) -> ErrorContract {
        ErrorContract::Exact
    }

    fn compress(
        &self,
        data: &[f32],
        _layout: DataLayout,
        _bound: &BoundSpec,
    ) -> Result<TaggedStream> {
        let _span = ebtrain_obs::span!("codec.compress", bytes = data.len() * 4);
        Ok(TaggedStream::tag(
            CodecId::LOSSLESS,
            ebtrain_sz::lossless::compress(data),
        ))
    }

    fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>> {
        let _span = ebtrain_obs::span!("codec.decompress", bytes = stream.compressed_byte_len());
        ebtrain_sz::lossless::decompress(stream.body())
    }

    fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        ebtrain_sz::lossless::declared_len(stream.body()).map(Some)
    }
}

/// Byte-plane magic "B1" (this backend gained a framed container of its
/// own when it became registry-addressable).
const MAGIC_B1: [u8; 2] = [0x42, 0x31];

/// Byte-plane shuffle + LZ (`ebtrain_encoding::byteplane`), bit-exact.
///
/// The cheapest lossless option: no entropy stage, just the transpose
/// that turns shared exponent bytes into LZ-friendly runs. Lower ratio
/// than [`LosslessCodec`], much faster — the right warm-tier choice when
/// decode latency dominates.
#[derive(Debug, Clone, Default)]
pub struct ByteplaneCodec;

impl Codec for ByteplaneCodec {
    fn id(&self) -> CodecId {
        CodecId::BYTEPLANE
    }

    fn name(&self) -> &'static str {
        "byteplane"
    }

    fn contract(&self) -> ErrorContract {
        ErrorContract::Exact
    }

    fn compress(
        &self,
        data: &[f32],
        _layout: DataLayout,
        _bound: &BoundSpec,
    ) -> Result<TaggedStream> {
        let _span = ebtrain_obs::span!("codec.compress", bytes = data.len() * 4);
        let payload = lz::compress(&byteplane::shuffle_f32(data));
        let mut body = Vec::with_capacity(payload.len() + 12);
        body.extend_from_slice(&MAGIC_B1);
        varint::write_usize(&mut body, data.len());
        body.extend_from_slice(&payload);
        Ok(TaggedStream::tag(CodecId::BYTEPLANE, body))
    }

    fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>> {
        let _span = ebtrain_obs::span!("codec.decompress", bytes = stream.compressed_byte_len());
        let body = stream.body();
        if body.len() < 2 || body[0..2] != MAGIC_B1 {
            return Err(corrupt("bad byteplane magic"));
        }
        let mut pos = 2usize;
        let n = varint::read_usize(body, &mut pos).map_err(|e| SzError::Corrupt(e.to_string()))?;
        let shuffled = lz::decompress(&body[pos..]).map_err(|e| SzError::Corrupt(e.to_string()))?;
        if shuffled.len() != n.checked_mul(4).ok_or_else(|| corrupt("length overflow"))? {
            return Err(corrupt("byteplane length mismatch"));
        }
        byteplane::unshuffle_f32(&shuffled).ok_or_else(|| corrupt("misaligned planes"))
    }

    fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        let body = stream.body();
        if body.len() < 2 || body[0..2] != MAGIC_B1 {
            return Err(corrupt("bad byteplane magic"));
        }
        let mut pos = 2usize;
        varint::read_usize(body, &mut pos)
            .map(Some)
            .map_err(|e| SzError::Corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codec;

    fn activationish(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let v = (i as f32 * 0.013).sin() + 0.2;
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn sz_adapter_roundtrips_and_tags() {
        let data = activationish(4096);
        let c = SzCodec::vanilla();
        let s = c
            .compress(&data, DataLayout::D2(64, 64), &BoundSpec::Abs(1e-3))
            .unwrap();
        assert_eq!(s.codec_id(), CodecId::SZ);
        let out = c.decompress(&s).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-3);
        }
        // The tagged bytes reparse and still decode.
        let reparsed = TaggedStream::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(c.decompress(&reparsed).unwrap(), out);
    }

    #[test]
    fn sz_adapter_names_are_unique_per_configuration() {
        // Bench summaries key rows by name: no two (quantizer, filter,
        // entropy stage) combinations that behave differently may share
        // one. (The filter is inert under dual-quant, so it is one name.)
        let mut names = std::collections::BTreeSet::new();
        for base in [
            SzConfig::classic(1e-3),
            SzConfig::vanilla(1e-3),
            SzConfig::with_error_bound(1e-3),
        ] {
            for entropy_backend in [
                EntropyBackend::Auto,
                EntropyBackend::Huffman,
                EntropyBackend::Range,
                EntropyBackend::Rans,
            ] {
                let codec = SzCodec::new(SzConfig {
                    entropy_backend,
                    ..base
                });
                assert!(names.insert(codec.name()), "duplicate {}", codec.name());
            }
        }
    }

    #[test]
    fn sz_adapter_partial_decode_skips_frames() {
        let data = activationish(16 * 64);
        let c = SzCodec::new({
            let mut cfg = SzConfig::vanilla(1e-3);
            cfg.chunk_planes = Some(2);
            cfg
        });
        let layout = DataLayout::D3(16, 8, 8);
        let s = c.compress(&data, layout, &BoundSpec::Abs(1e-3)).unwrap();
        let full = c.decompress(&s).unwrap();
        let (part, stats) = c.decompress_planes(&s, layout, 4..8).unwrap();
        assert_eq!(part, full[4 * 64..8 * 64]);
        assert!(stats.partial);
        assert!(stats.bytes_decoded < stats.bytes_total);
    }

    #[test]
    fn sz_adapter_planes_follow_the_callers_layout() {
        let data = activationish(64 * 256);
        let c = SzCodec::dual_quant();
        let asked = DataLayout::D2(64, 256);
        for held in [asked, DataLayout::D2(256, 64), DataLayout::D1(64 * 256)] {
            let s = c.compress(&data, held, &BoundSpec::Abs(1e-3)).unwrap();
            let full = c.decompress(&s).unwrap();
            let (part, stats) = c.decompress_planes(&s, asked, 8..16).unwrap();
            assert_eq!(part, full[8 * 256..16 * 256], "{held:?}");
            // Only the header's own layout can use the frame index.
            assert_eq!(stats.bytes_decoded == stats.bytes_total, held != asked);
            assert!(c.decompress_planes(&s, asked, 8..65).is_err());
        }
    }

    #[test]
    fn sz_adapter_resolves_relative_bounds() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).cos() * 10.0).collect();
        let c = SzCodec::vanilla();
        let s = c
            .compress(&data, DataLayout::D1(1000), &BoundSpec::Rel(1e-3))
            .unwrap();
        let out = c.decompress(&s).unwrap();
        let range = 20.0f32; // cos spans [-10, 10]
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-3 * range * 1.01);
        }
        assert!(!c.supports(&BoundSpec::Lossless));
        assert!(c
            .compress(&data, DataLayout::D1(1000), &BoundSpec::Lossless)
            .is_err());
    }

    #[test]
    fn zfp_adapter_roundtrips_all_layouts() {
        for layout in [
            DataLayout::D1(300),
            DataLayout::D2(17, 23),
            DataLayout::D3(3, 10, 11),
        ] {
            let data = activationish(layout.len());
            let c = ZfpLikeCodec;
            let s = c.compress(&data, layout, &BoundSpec::Abs(1e-3)).unwrap();
            assert_eq!(s.codec_id(), CodecId::ZFP_LIKE);
            let out = c.decompress(&s).unwrap();
            assert_eq!(out.len(), data.len());
            // Block-relative contract: on this well-scaled data the
            // adapter's rate choice should land near the requested bound.
            for (a, b) in data.iter().zip(&out) {
                assert!((a - b).abs() <= 0.05, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lossless_adapters_are_bit_exact() {
        let mut data = activationish(2048);
        data[7] = f32::NAN;
        data[9] = 1e30;
        for codec in [
            Box::new(LosslessCodec) as Box<dyn Codec>,
            Box::new(ByteplaneCodec),
        ] {
            let s = codec
                .compress(&data, DataLayout::D1(2048), &BoundSpec::Lossless)
                .unwrap();
            let out = codec.decompress(&s).unwrap();
            for (a, b) in data.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", codec.name());
            }
            assert_eq!(codec.contract(), ErrorContract::Exact);
        }
    }

    #[test]
    fn default_plane_fallback_slices_whole_decode() {
        let data = activationish(64 * 16);
        let c = ByteplaneCodec;
        let layout = DataLayout::D3(16, 8, 8);
        let s = c.compress(&data, layout, &BoundSpec::Lossless).unwrap();
        let (part, stats) = c.decompress_planes(&s, layout, 2..5).unwrap();
        assert_eq!(part, data[2 * 64..5 * 64]);
        assert!(!stats.partial);
        assert_eq!(stats.bytes_decoded, stats.bytes_total);
        assert!(c.decompress_planes(&s, layout, 2..17).is_err());
        assert!(!c.supports_frame_index());
    }
}
