//! # ebtrain-dist
//!
//! **Data-parallel compressed training**: N shared-nothing worker
//! replicas on a persistent thread pool (`ebtrain-pool`), synchronizing
//! gradients through an in-memory [`Collective`] — with the headline
//! implementation being a **chunked ring all-reduce whose segments
//! travel as Z2 SZ-compressed streams**.
//!
//! The paper (conf_ppopp_JinLST21) compresses *stashed activations* with
//! an error bound chosen so the induced gradient noise stays below an
//! acceptable σ (Eq. 8/9). This crate applies the same discipline to the
//! other tensor that dominates scale-out training: the **gradient on the
//! communication path**. The σ-model hook
//! ([`comm_error_bound_for_sigma`](ebtrain_core::model::comm_error_bound_for_sigma))
//! picks the collective's error bound from observed gradient statistics
//! exactly the way the activation controller picks per-layer bounds, and
//! per-worker **error-feedback residuals** keep the bounded quantization
//! error from biasing convergence (the classic EF-SGD construction:
//! whatever the codec rounded away this step is re-injected next step).
//!
//! Module map:
//!
//! * [`collective`] — the [`Collective`] trait (`broadcast`,
//!   `all_reduce`, and the tagged window forms `*_aligned` every bucket
//!   collective uses), communication-byte accounting, and the ring
//!   segment geometry (aligned to Z2 `D1` planes);
//! * [`ring`] — the tag-keyed mailbox/barrier machinery and **one** ring
//!   schedule, [`ring::Ring`], over a [`ring::Hop`]: [`DenseRing`] is the
//!   ring over the identity hop (exact f32 baseline), [`CompressedRing`]
//!   the ring over the codec hop (SZ-compressed segments + per-bucket
//!   error feedback; **segment-only encode** — each rank compresses
//!   exactly the segments it forwards);
//! * [`bucketed`] — [`bucketed::BucketedGradSync`]: the per-rank
//!   driver that partitions the flat gradient into layer-aligned
//!   buckets ([`ebtrain_dnn::BucketPlan`]), launches one tagged
//!   collective per bucket as backward retires it (overlapping ring
//!   communication with the rest of backward), and optionally runs the
//!   ZeRO-style sharded optimizer (reduce-scatter + owned-shard SGD +
//!   exact parameter all-gather);
//! * [`trainer`] — [`trainer::DistributedTrainer`]: one
//!   [`AdaptiveTrainer`](ebtrain_core::AdaptiveTrainer) per replica
//!   (each with its own activation store — optionally a budgeted one, so
//!   the PR-3 memory manager composes with data parallelism), stepping
//!   in lock-step on the worker pool.
//!
//! Design notes and the error-feedback math live in `DESIGN.md` §7; the
//! scaling experiment is `fig12_dist_scaling` in `ebtrain-bench`.

pub mod bucketed;
pub mod collective;
pub mod ring;
pub mod trainer;

pub use bucketed::{BucketedGradSync, SyncConfig};
pub use collective::{seg_ranges, Collective, CommStats, SEG_ALIGN};
pub use ring::{CompressedRing, DenseRing};
pub use trainer::{CommMode, DistConfig, DistStepRecord, DistributedTrainer};

/// Errors surfaced by collectives and the distributed trainer.
#[derive(Debug)]
pub enum DistError {
    /// Invalid configuration (world size, batch not divisible, ...).
    Config(String),
    /// The collective was poisoned — some rank failed or panicked and
    /// every blocked peer was released with this error.
    Aborted(String),
    /// Codec failure on the communication path.
    Sz(ebtrain_sz::SzError),
    /// Propagated training-substrate error.
    Dnn(ebtrain_dnn::DnnError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Config(m) => write!(f, "dist config error: {m}"),
            DistError::Aborted(m) => write!(f, "collective aborted: {m}"),
            DistError::Sz(e) => write!(f, "codec error on comm path: {e}"),
            DistError::Dnn(e) => write!(f, "training error: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ebtrain_sz::SzError> for DistError {
    fn from(e: ebtrain_sz::SzError) -> Self {
        DistError::Sz(e)
    }
}

impl From<ebtrain_dnn::DnnError> for DistError {
    fn from(e: ebtrain_dnn::DnnError) -> Self {
        DistError::Dnn(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DistError>;
