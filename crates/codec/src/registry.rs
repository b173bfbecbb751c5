//! [`CodecRegistry`]: stable codec ids → implementations.

use crate::adapters::{ByteplaneCodec, LosslessCodec, SzCodec, ZfpLikeCodec};
use crate::{Codec, CodecId, Result, TaggedStream};
use ebtrain_sz::SzError;
use std::sync::Arc;

/// Maps [`CodecId`]s to shared codec instances; the decode router for
/// self-describing streams.
///
/// Cloning is cheap (the instances are `Arc`-shared). Registering a
/// codec whose id is already present replaces the previous instance —
/// that is how a consumer swaps, e.g., the default SZ configuration for
/// a custom-chunked one while keeping the wire id stable.
#[derive(Clone)]
pub struct CodecRegistry {
    entries: Vec<Arc<dyn Codec>>,
}

impl CodecRegistry {
    /// Registry with no codecs.
    pub fn empty() -> CodecRegistry {
        CodecRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard in-tree backends: SZ (the dual-quant framework
    /// default; its decoder reads every SZ stream), ZFP-like, lossless,
    /// byte-plane.
    pub fn standard() -> CodecRegistry {
        let mut r = CodecRegistry::empty();
        r.register(Arc::new(SzCodec::dual_quant()));
        r.register(Arc::new(ZfpLikeCodec));
        r.register(Arc::new(LosslessCodec));
        r.register(Arc::new(ByteplaneCodec));
        r
    }

    /// Add (or replace, by id) a codec.
    pub fn register(&mut self, codec: Arc<dyn Codec>) {
        if let Some(slot) = self.entries.iter_mut().find(|c| c.id() == codec.id()) {
            *slot = codec;
        } else {
            self.entries.push(codec);
        }
    }

    /// Look up a codec by id.
    pub fn get(&self, id: CodecId) -> Option<Arc<dyn Codec>> {
        self.entries.iter().find(|c| c.id() == id).cloned()
    }

    /// All registered codecs, in registration order.
    pub fn codecs(&self) -> &[Arc<dyn Codec>] {
        &self.entries
    }

    /// Element count the stream's own header declares, read without
    /// decoding the body (routed to [`Codec::declared_elems`]). Consumers
    /// decoding **untrusted** streams call this first and reject a count
    /// that disagrees with their expectation — the header's claim is what
    /// sizes decode buffers, so checking after
    /// [`decompress`](CodecRegistry::decompress) is too late.
    pub fn declared_elems(&self, stream: &TaggedStream) -> Result<Option<usize>> {
        let codec = self.get(stream.codec_id()).ok_or_else(|| {
            SzError::Corrupt(format!("no codec registered for {}", stream.codec_id()))
        })?;
        codec.declared_elems(stream)
    }

    /// Route a parsed stream to its decoder.
    pub fn decompress(&self, stream: &TaggedStream) -> Result<Vec<f32>> {
        let codec = self.get(stream.codec_id()).ok_or_else(|| {
            SzError::Corrupt(format!("no codec registered for {}", stream.codec_id()))
        })?;
        codec.decompress(stream)
    }

    /// Parse a tagged container's raw bytes and decode them — the one-call
    /// path for persisted/foreign streams.
    pub fn decompress_any(&self, bytes: &[u8]) -> Result<(Vec<f32>, CodecId)> {
        let stream = TaggedStream::from_bytes(bytes.to_vec())?;
        let id = stream.codec_id();
        Ok((self.decompress(&stream)?, id))
    }
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|c| (c.id().0, c.name())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundSpec;
    use ebtrain_sz::DataLayout;

    #[test]
    fn standard_registry_routes_every_backend() {
        let reg = CodecRegistry::standard();
        assert_eq!(reg.codecs().len(), 4);
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.02).sin()).collect();
        for codec in reg.codecs() {
            let bound = if codec.supports(&BoundSpec::Abs(1e-2)) {
                BoundSpec::Abs(1e-2)
            } else {
                BoundSpec::Lossless
            };
            let s = codec
                .compress(&data, DataLayout::D2(32, 16), &bound)
                .unwrap();
            let (out, id) = reg.decompress_any(s.as_bytes()).unwrap();
            assert_eq!(id, codec.id());
            assert_eq!(out.len(), data.len());
        }
    }

    #[test]
    fn register_replaces_by_id() {
        let mut reg = CodecRegistry::standard();
        let n = reg.codecs().len();
        assert_eq!(reg.get(CodecId::SZ).unwrap().name(), "sz-dualquant");
        reg.register(Arc::new(SzCodec::classic()));
        assert_eq!(reg.codecs().len(), n, "same id must replace, not grow");
        assert_eq!(reg.get(CodecId::SZ).unwrap().name(), "sz");
    }

    #[test]
    fn unknown_id_is_an_error_not_a_panic() {
        let reg = CodecRegistry::empty();
        let s = TaggedStream::tag(CodecId(200), vec![1, 2, 3]);
        assert!(reg.decompress(&s).is_err());
        assert!(reg.decompress_any(&[0xFF, 0xFE, 0xFD]).is_err());
    }
}
