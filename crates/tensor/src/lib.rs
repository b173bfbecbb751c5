//! # ebtrain-tensor
//!
//! Dense row-major `f32` tensor substrate for the `ebtrain` workspace.
//!
//! The training framework in the paper stores and compresses *activation
//! tensors* (NCHW layout); everything in this crate exists to make the
//! forward/backward convolution pipeline and the compressor's input
//! representation explicit and fast on a CPU:
//!
//! * [`Tensor`] — shape + contiguous `Vec<f32>` storage, with NCHW helpers.
//! * [`mod@gemm`] — register-tiled, rayon-parallel matrix multiply (all
//!   transpose combinations through one kernel, with an AVX-512 arm), the
//!   workhorse behind `im2col`-based convolution.
//! * [`mod@im2col`] — lowering of convolution windows to matrix columns and the
//!   inverse scatter (`col2im`) used by the input-gradient pass.
//! * [`ops`] — parallel elementwise / reduction kernels shared by layers and
//!   by the statistics collector of the adaptive compression controller.
//!
//! Parallelism follows the rayon guidance in the HPC coding guides: data
//! parallel `par_chunks_mut` over independent output blocks, no shared
//! mutable state.

pub mod gemm;
pub mod im2col;
pub mod ops;
mod tensor;

pub use gemm::{gemm, gemm_nn, gemm_nt, gemm_tn, GemmLayout};
pub use im2col::{col2im, im2col, Conv2dGeometry};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors (or a tensor and an expected shape) disagree.
    ShapeMismatch {
        /// What the operation expected.
        expected: Vec<usize>,
        /// What it got.
        got: Vec<usize>,
    },
    /// A reshape changed the total number of elements.
    BadReshape {
        /// Element count of the source tensor.
        from: usize,
        /// Element count implied by the requested shape.
        to: usize,
    },
    /// Convolution geometry does not produce a positive output size.
    BadGeometry(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            TensorError::BadReshape { from, to } => {
                write!(f, "reshape changes element count: {from} -> {to}")
            }
            TensorError::BadGeometry(msg) => write!(f, "bad conv geometry: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
