//! # ebtrain-membudget
//!
//! A **budgeted activation memory manager**: the subsystem that turns the
//! repo's passive after-the-fact byte accounting (`dnn::memsim`,
//! `StoreMetrics`) into an *enforced* device-memory constraint with a
//! policy behind it — the paper's actual operating regime, where a fixed
//! V100 capacity must hold the live activation set of a batch that does
//! not fit raw.
//!
//! The centrepiece is [`BudgetedArena`]: a key-value store of activation
//! payloads under a **hard byte budget**, with three residency tiers:
//!
//! * **hot** — raw `f32` (or opaque byte) payloads, full fidelity, full
//!   cost;
//! * **warm** — compressed through the arena's configured
//!   [`Codec`](ebtrain_codec::Codec) (SZ by default; any registered
//!   backend via [`BudgetConfig::codec`] or per-entry overrides), held
//!   as a self-describing [`TaggedStream`](ebtrain_codec::TaggedStream)
//!   and paying only the compressed bytes;
//! * **cold** — off-device: either *evicted to host* over a simulated
//!   interconnect (vDNN-style, charged transfer time at
//!   [`HOST_LINK_BPS`], zero device bytes) or *dropped for recompute*
//!   (gradient-checkpointing style, the entry must be regenerated by
//!   re-running forward).
//!
//! Internally an entry is a payload (raw `f32`, bytes, a stream, or
//! `f32` values beside the stream they decode from) in a place (device,
//! prefetch in flight, host, or dropped); the tier is derived from the
//! pair. Pressure moves entries down the ladder one step at a time (a
//! device `f32` payload compresses to warm when that shrinks it, values
//! beside a stream drop to the stream alone; anything else leaves the
//! device through the one cold path) under a pluggable
//! [`EvictionPolicy`] — [`Lru`] or [`FarthestNextUse`] driven by the
//! known backward-pass schedule — and the
//! [`prefetch`](BudgetedArena::load) pipeline moves them back up
//! *ahead of demand*: while the caller runs the current layer's gradient
//! kernel, the shared persistent worker pool (`ebtrain-pool`, also the
//! substrate of `ebtrain-dist`'s replica runner) decompresses the next
//! scheduled entries so the backward pass pays decode latency at most
//! once — and pays no per-decode thread-spawn cost. Very large warm
//! entries can also be read *partially*:
//! [`BudgetedArena::fetch_planes`] decodes only the stream frames
//! covering a requested plane range when the entry's codec supports a
//! frame index (the Z2 frame index, DESIGN.md §3; codecs without one
//! fall back to a whole decode and say so in the byte counters).
//!
//! The invariant the whole crate is built around (and property-tests):
//! **device-resident bytes never exceed the budget, at any point between
//! two public calls** — the arena frees before it charges, skips
//! prefetch rather than over-commit, and sends payloads cold when even
//! their compressed form cannot fit. `tests/frozen.rs` pins one call
//! script's every residency level, counter and read-back bit under three
//! policy/cold-tier configurations, so a representation change that
//! keeps it green moved no charge, tier or byte.
//!
//! Consumed by `ebtrain-dnn`'s `BudgetedStore` (an
//! [`ActivationStore`](../ebtrain_dnn/store/trait.ActivationStore.html)
//! over this arena) and by the `fig11_budgeted_batch` experiment binary;
//! the design rationale lives in `DESIGN.md` §6.

mod arena;
mod policy;

pub use arena::{
    ArenaMetrics, BudgetConfig, BudgetedArena, ColdPolicy, Fetched, Stored, Tier, HOST_LINK_BPS,
};
pub use policy::{Candidate, EvictionPolicy, FarthestNextUse, Lru};

use ebtrain_sz::SzError;

/// Errors surfaced by arena loads.
#[derive(Debug, Clone, PartialEq)]
pub enum MembudgetError {
    /// No entry under that key (never inserted, or already loaded).
    Missing,
    /// The entry was dropped under [`ColdPolicy::DropForRecompute`]; the
    /// caller must regenerate it (re-run forward).
    Dropped,
    /// The compressed payload failed to decode.
    Codec(SzError),
}

impl std::fmt::Display for MembudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembudgetError::Missing => write!(f, "no entry under key"),
            MembudgetError::Dropped => write!(f, "entry dropped for recompute"),
            MembudgetError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for MembudgetError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MembudgetError>;
