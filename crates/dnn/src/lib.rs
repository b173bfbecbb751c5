//! # ebtrain-dnn
//!
//! CPU DNN training substrate for the `ebtrain` workspace — the stand-in
//! for the Caffe/TensorFlow + cuDNN stack the paper ran on (see
//! `DESIGN.md` §2 for the substitution argument).
//!
//! The crate reproduces, exactly, the dataflow the paper's framework
//! hooks into (paper Fig 1/4):
//!
//! * every layer's forward pass **saves the tensors it will need in
//!   backward** through an [`store::ActivationStore`] — the abstraction
//!   under which raw storage (baseline), SZ lossy compression (the
//!   paper's framework), lossless compression, and host migration
//!   (vDNN-class baseline) are interchangeable policies;
//! * a convolution's *weight gradient* needs its forward **input
//!   activation** (`dW = dY ⋆ X`), while the loss propagated to the
//!   previous layer needs only the weights (`dX = W ⋆ dY`) — which is why
//!   compressing activations perturbs `dW` but not the backward chain
//!   itself, the observation the paper's §3.2 error analysis starts from
//!   (a fully connected layer's `dW = dYᵀ·X` is the same case with one
//!   loss term per sample, so its input is compressed the same way);
//! * SGD-with-momentum keeps a per-parameter momentum buffer whose mean
//!   magnitude is the `M̄` statistic of the paper's Eq. 8.
//!
//! Layer inventory: [`layers::Conv2d`], [`layers::ReLU`],
//! [`layers::MaxPool2d`], [`layers::AvgPool2d`], [`layers::Linear`],
//! [`layers::BatchNorm2d`], [`layers::Lrn`], [`layers::Dropout`], and the
//! [`layers::SoftmaxCrossEntropy`] head — enough to build the paper's four
//! evaluation networks faithfully ([`zoo`]).
//!
//! [`memsim`] adds the device-memory capacity / interconnect model used
//! by the batch-size-scaling experiments (paper Fig 11).

pub mod bucket;
pub mod layer;
pub mod layers;
pub mod memsim;
pub mod network;
pub mod optimizer;
pub mod recompute;
pub mod store;
pub mod train;
pub mod zoo;

pub use bucket::{Bucket, BucketPlan, LayerSlot};
pub use layer::{
    BackwardContext, CompressionPlan, ConvLayerStats, ForwardContext, Layer, LayerId, LayerKind,
    Param, SaveHint, Saved, SlotId,
};
pub use network::{Network, Node};
pub use optimizer::{flat_sgd_update, LrSchedule, Sgd, SgdConfig};
pub use store::{ActivationStore, CompressedStore, NullStore, RawStore, StoreMetrics};
pub use train::{evaluate, train_step, train_step_synced, GradSync, StepResult, SyncAction};

/// Errors from network construction and execution.
#[derive(Debug)]
pub enum DnnError {
    /// Propagated tensor error (shape mismatch etc.).
    Tensor(ebtrain_tensor::TensorError),
    /// Propagated compressor error.
    Sz(ebtrain_sz::SzError),
    /// Network wiring problem.
    Build(String),
    /// Runtime state problem (missing saved activation, ...).
    State(String),
}

impl std::fmt::Display for DnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnnError::Tensor(e) => write!(f, "tensor error: {e}"),
            DnnError::Sz(e) => write!(f, "compressor error: {e}"),
            DnnError::Build(m) => write!(f, "network build error: {m}"),
            DnnError::State(m) => write!(f, "network state error: {m}"),
        }
    }
}

impl std::error::Error for DnnError {}

impl From<ebtrain_tensor::TensorError> for DnnError {
    fn from(e: ebtrain_tensor::TensorError) -> Self {
        DnnError::Tensor(e)
    }
}

impl From<ebtrain_sz::SzError> for DnnError {
    fn from(e: ebtrain_sz::SzError) -> Self {
        DnnError::Sz(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DnnError>;
