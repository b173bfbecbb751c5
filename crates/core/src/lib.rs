//! # ebtrain-core
//!
//! The paper's contribution: a **memory-efficient DNN training framework
//! via error-bounded lossy compression** (Jin, Li, Song, Tao — PPoPP'21).
//!
//! The framework's per-iteration loop (paper Fig 7) has four phases, all
//! implemented here on top of the `ebtrain-dnn` substrate:
//!
//! 1. **Parameter collection** ([`framework`]) — every `W` iterations,
//!    gather each conv and fully connected layer's activation sparsity
//!    `R`, its mean upstream loss magnitude `L̄`, and the mean momentum
//!    magnitude `M̄` of its weights.
//! 2. **Gradient assessment** ([`model::target_sigma`], Eq. 8) — the
//!    acceptable gradient-error spread is `σ = 0.01 · M̄`.
//! 3. **Activation assessment** ([`model::error_bound_for_sigma`],
//!    Eq. 9) — invert the propagation model
//!    `σ ≈ a · L̄ · √(N·R) · eb` (Eqs. 6–7, `a = 0.32`) to get the
//!    largest safe absolute error bound per layer.
//! 4. **Adaptive compression** — hand the per-layer bounds to the
//!    [`CompressedStore`](ebtrain_dnn::CompressedStore) so every conv
//!    and FC input activation is compressed with *its own* bound this
//!    phase of training.
//!
//! [`inject`] reproduces the paper's analysis methodology (§3): inject
//! modelled errors instead of actually compressing, and watch how they
//! propagate — uniform error into activations (Fig 6/8), normal error
//! into gradients (Fig 9). [`stats`] has the distribution tooling the
//! figures need.

pub mod framework;
pub mod inject;
pub mod model;
pub mod stats;

pub use framework::{AdaptiveTrainer, FrameworkConfig, IterationRecord, LayerPlanEntry, ModelForm};
pub use model::{
    comm_error_bound_for_sigma, error_bound_for_sigma, error_bound_for_sigma_exact,
    per_bucket_comm_bounds, predict_sigma, predict_sigma_exact, target_sigma, PAPER_A,
    PAPER_SIGMA_FRACTION,
};
pub use stats::{summarize_gradient, GradSummary};
