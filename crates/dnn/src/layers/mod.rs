//! Layer implementations.
//!
//! Each layer follows the same discipline: forward consumes its input,
//! parks whatever backward will need in the [`ActivationStore`], and
//! backward loads it back. The inputs of `Conv2d` and `Linear` — the
//! layers whose weight gradient is linear in the saved input, the case
//! the paper's error-propagation analysis covers — are saved with
//! `compressible = true` under the controller's per-layer bound;
//! everything else is saved in compact exact form (bit-packed masks,
//! max-pool window offsets at `⌈log₂ k²⌉` bits per output, raw
//! batch-norm/LRN inputs).
//!
//! [`ActivationStore`]: crate::store::ActivationStore

mod batchnorm;
mod conv;
mod dropout;
mod linear;
mod lrn;
mod pool;
mod relu;
mod softmax;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use linear::Linear;
pub use lrn::Lrn;
pub use pool::{AvgPool2d, MaxPool2d};
pub use relu::ReLU;
pub use softmax::SoftmaxCrossEntropy;
