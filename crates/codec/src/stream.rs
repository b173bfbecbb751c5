//! The self-describing [`TaggedStream`] container.
//!
//! Wire format: `0xEB 0xC0` magic, one [`CodecId`] byte, then the
//! backend's own byte stream verbatim. [`TaggedStream::from_bytes`]
//! accepts nothing else: a bare backend stream (an untagged `Z2`, `L1`,
//! `F1` or `B1` body) is rejected like any unknown magic, so every stream
//! reaches its decoder through one routing byte.

use crate::{corrupt, CodecId, Result};

/// Container magic: `0xEB 0xC0` ("EB-trained Codec").
const MAGIC: [u8; 2] = [0xEB, 0xC0];
/// Magic plus the codec id byte; the body follows.
const HEADER_LEN: usize = 3;

/// An owned, self-describing compressed stream: codec id + body.
///
/// This is what every backend-agnostic consumer holds in place of a
/// backend-specific buffer type; [`codec_id`](TaggedStream::codec_id)
/// routes it back to its decoder (directly or through a
/// [`CodecRegistry`](crate::CodecRegistry)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedStream {
    bytes: Vec<u8>,
    codec_id: CodecId,
}

impl TaggedStream {
    /// Wrap a backend body in the tagged container.
    pub fn tag(codec_id: CodecId, body: Vec<u8>) -> TaggedStream {
        let mut bytes = Vec::with_capacity(body.len() + HEADER_LEN);
        bytes.extend_from_slice(&MAGIC);
        bytes.push(codec_id.0);
        bytes.extend_from_slice(&body);
        TaggedStream { bytes, codec_id }
    }

    /// Parse a tagged container; anything without the container magic
    /// is rejected.
    ///
    /// ```
    /// use ebtrain_codec::{CodecId, TaggedStream};
    ///
    /// let tagged = TaggedStream::tag(CodecId::SZ, vec![1, 2, 3]);
    /// let parsed = TaggedStream::from_bytes(tagged.as_bytes().to_vec()).unwrap();
    /// assert_eq!(parsed.codec_id(), CodecId::SZ);
    /// assert_eq!(parsed.body(), &[1, 2, 3]);
    /// // A bare SZ body ("Z2" magic) is not a container:
    /// assert!(TaggedStream::from_bytes(vec![0x5A, 0x32, 0x03]).is_err());
    /// assert!(TaggedStream::from_bytes(vec![0, 1]).is_err());
    /// ```
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TaggedStream> {
        if !bytes.starts_with(&MAGIC) {
            return Err(corrupt("unrecognized stream magic"));
        }
        let id = *bytes
            .get(2)
            .ok_or_else(|| corrupt("tagged stream missing codec id"))?;
        if id == 0 {
            return Err(corrupt("codec id 0 is reserved"));
        }
        Ok(TaggedStream {
            bytes,
            codec_id: CodecId(id),
        })
    }

    /// The codec this stream routes to.
    pub fn codec_id(&self) -> CodecId {
        self.codec_id
    }

    /// The backend's own byte stream (container tag stripped).
    pub fn body(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }

    /// Full wire bytes (tag included) — for persistence or transport.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wire size in bytes (what memory/communication accountants charge).
    pub fn compressed_byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Consume the stream into its full wire bytes (tag included) — the
    /// zero-copy hand-off for transports that own their send buffer
    /// (the serve daemon's response writer).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_and_parse_roundtrip() {
        let s = TaggedStream::tag(CodecId(9), vec![7; 40]);
        assert_eq!(s.compressed_byte_len(), 43);
        let p = TaggedStream::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(p.codec_id(), CodecId(9));
        assert_eq!(p.body(), &[7u8; 40][..]);
        assert_eq!(p, s);
    }

    #[test]
    fn bare_backend_magics_are_rejected() {
        for magic in [
            [0x5A, 0x31],
            [0x5A, 0x32],
            [0x4C, 0x31],
            [0x46, 0x31],
            [0x42, 0x31],
        ] {
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&[3, 1, 2]);
            assert!(TaggedStream::from_bytes(bytes).is_err(), "{magic:?}");
        }
    }

    #[test]
    fn junk_and_reserved_ids_rejected() {
        assert!(TaggedStream::from_bytes(vec![]).is_err());
        assert!(TaggedStream::from_bytes(vec![0x00]).is_err());
        assert!(TaggedStream::from_bytes(vec![0x00, 0x01, 0x02]).is_err());
        assert!(TaggedStream::from_bytes(vec![0xEB]).is_err());
        assert!(TaggedStream::from_bytes(vec![0xEB, 0xC0]).is_err());
        assert!(TaggedStream::from_bytes(vec![0xEB, 0xC0, 0x00]).is_err());
    }
}
