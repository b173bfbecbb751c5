//! # ebtrain-encoding
//!
//! Lossless coding primitives shared by the compressors in this workspace:
//!
//! * [`bitio`] — MSB-first bit reader/writer over byte buffers.
//! * [`huffman`] — canonical, length-limited Huffman codec over `u32`
//!   symbol alphabets (quantization codes in `ebtrain-sz`, RLE tokens in
//!   `ebtrain-imgcomp`), with a table-driven decoder and a
//!   shared-codebook/many-blocks API (`Codebook` / `Decoder`) for
//!   block-parallel formats.
//! * [`lz`] — an LZ4-style greedy byte compressor, used as the final
//!   lossless stage (SZ applies a general-purpose lossless pass after
//!   Huffman; cuSZ relies on Huffman + run collapsing — both are modelled
//!   by Huffman→LZ here).
//! * [`range`] — codebook-free adaptive binary range coder (bit
//!   predictor + carry-less renormalization), the second entropy backend
//!   for chunk-framed streams.
//! * [`rans`] — static two-context rANS coder over the range coder's
//!   symbols, with a per-frame table: the deep-alphabet backend.
//! * [`entropy`] — the entropy-stage seam over [`huffman`], [`range`] and
//!   [`rans`]:
//!   the per-frame tag byte, encode/decode backend handles, and the
//!   histogram-entropy estimate that drives per-chunk selection.
//! * [`varint`] — LEB128 unsigned varints for headers and run lengths.
//! * [`byteplane`] — byte-plane (de)shuffle of `f32` buffers, the classic
//!   transform that makes IEEE-754 streams compressible losslessly.
//!
//! Everything is dependency-free, deterministic, and round-trip tested
//! (unit + property tests).

pub mod bitio;
pub mod byteplane;
pub mod entropy;
pub mod huffman;
pub mod lz;
pub mod range;
pub mod rans;
pub mod varint;

/// Errors surfaced while decoding a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input bytes/bits.
    UnexpectedEof,
    /// Structurally invalid stream (bad header, impossible code, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of stream"),
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CodecError>;
