//! # ebtrain-serve — the multi-tenant compressed-tensor daemon
//!
//! A dependency-free `std::net` TCP daemon that stores and serves
//! error-bounded compressed tensors for many tenants at once, each
//! under a **hard byte budget**. It composes the rest of the
//! workspace instead of re-implementing it:
//!
//! * tensors travel as self-describing [`TaggedStream`]s and are
//!   decoded through the [`CodecRegistry`](ebtrain_codec::CodecRegistry),
//!   so any registered backend works on the wire;
//! * each tenant's state is a
//!   [`BudgetedArena`](ebtrain_membudget::BudgetedArena), whose
//!   `resident ≤ budget` invariant (transients included) **is** the
//!   per-tenant guarantee — tenants cannot push each other over
//!   budget;
//! * RPCs execute on an [`ebtrain_pool::WorkerPool`] (inline-claim
//!   join, so saturation can never deadlock a session thread);
//! * every RPC runs under an `ebtrain-obs` span (`serve.store`,
//!   `serve.fetch`, …), feeding the workspace-wide latency histograms
//!   and the `/metrics` endpoint for free.
//!
//! Admission control answers with **typed errors, never a hang**:
//! queue depth past its ceiling is [`ErrorCode::Busy`]; a store no
//! budget can hold — after the tiered cross-tenant eviction pass — is
//! [`ErrorCode::OverBudget`], with nothing stored and no residual
//! accounting.
//!
//! Wire protocol: see [`frame`] and DESIGN.md §10. Scaling numbers:
//! the `fig14_serve_scaling` bench in `ebtrain-bench`.
//!
//! ```
//! use ebtrain_serve::{ServeClient, ServeConfig, ServeDaemon};
//! use ebtrain_sz::DataLayout;
//!
//! let daemon = ServeDaemon::spawn(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(daemon.addr()).unwrap();
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! client.store_f32(7, 1, &data, DataLayout::D1(4096), 1e-3).unwrap();
//! let (got, layout) = client.fetch(7, 1).unwrap();
//! assert_eq!(layout, DataLayout::D1(4096));
//! assert!(got.iter().zip(&data).all(|(a, b)| (a - b).abs() <= 1e-3 + 1e-6));
//! daemon.shutdown();
//! ```

pub mod client;
pub mod daemon;
pub mod frame;
mod tenant;

pub use client::{ClientError, ClientResult, ServeClient};
pub use daemon::{ServeConfig, ServeDaemon};
pub use frame::{ErrorCode, FrameError, RequestTag};
pub use tenant::TenantStats;

// The types a daemon embedder needs from downstairs, re-exported so
// callers don't take direct deps for the common path.
pub use ebtrain_codec::{BoundSpec, TaggedStream};
pub use ebtrain_membudget::{ColdPolicy, Tier};
pub use ebtrain_sz::DataLayout;

/// A typed server-side RPC failure: the wire [`ErrorCode`] plus a
/// human-readable message (the error response's payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Wire error code.
    pub code: ErrorCode,
    /// UTF-8 message carried in the response payload.
    pub message: String,
}

impl ServeError {
    /// Build a typed error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServeError {
        ServeError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// Parse and fully decode an untrusted stream of `layout.len()` values
/// (either end of the wire). The header's count is checked before any
/// decode: a mismatch is `Malformed`, a parse or decode failure `Codec`.
pub(crate) fn decode_checked(
    registry: &ebtrain_codec::CodecRegistry,
    bytes: Vec<u8>,
    layout: DataLayout,
) -> Result<(TaggedStream, Vec<f32>), ServeError> {
    let codec = |e| ServeError::new(ErrorCode::Codec, format!("tensor stream: {e}"));
    let mismatch = |what, n| {
        let msg = format!("stream {what} {n} elems, layout declares {}", layout.len());
        ServeError::new(ErrorCode::Malformed, msg)
    };
    let stream = TaggedStream::from_bytes(bytes).map_err(codec)?;
    match registry.declared_elems(&stream).map_err(codec)? {
        Some(n) if n != layout.len() => return Err(mismatch("header declares", n)),
        _ => {}
    }
    let data = registry.decompress(&stream).map_err(codec)?;
    if data.len() != layout.len() {
        return Err(mismatch("decodes to", data.len()));
    }
    Ok((stream, data))
}

/// Wire byte for the tier a store landed in (the store response body).
pub fn tier_to_byte(tier: Tier) -> u8 {
    match tier {
        Tier::Hot => 0,
        Tier::Warm => 1,
        Tier::Cold => 2,
        Tier::Dropped => 3,
    }
}

/// Decode a tier byte; `None` for unassigned values.
pub fn tier_from_byte(b: u8) -> Option<Tier> {
    match b {
        0 => Some(Tier::Hot),
        1 => Some(Tier::Warm),
        2 => Some(Tier::Cold),
        3 => Some(Tier::Dropped),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_bytes_roundtrip() {
        for t in [Tier::Hot, Tier::Warm, Tier::Cold, Tier::Dropped] {
            assert_eq!(tier_from_byte(tier_to_byte(t)), Some(t));
        }
        assert_eq!(tier_from_byte(9), None);
    }
}
