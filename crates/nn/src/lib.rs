//! ReLU neural networks for the Charon reproduction.
//!
//! A [`Network`] is a sequence of [`Layer`]s: affine transformations
//! (`y = W x + b`), element-wise ReLU activations, and max-pooling layers
//! expressed as index groups. Both fully-connected and convolutional layers
//! are represented as affine transformations, following the paper (§2.1);
//! the [`conv`] module lowers a convolution specification into an
//! [`AffineLayer`].
//!
//! The crate also provides exact input gradients via backpropagation
//! ([`Network::gradient`]; a loop that needs the value and the gradient
//! at the same points reuses one [`Trace`] through [`Network::forward`]
//! and [`Network::backward`]), a softmax cross-entropy SGD trainer ([`train`]),
//! a plain-text serialization format ([`serialize`]), and the example
//! networks used in the paper's figures ([`samples`]).
//!
//! # API invariants
//!
//! * Layer shapes always chain: constructors check that each layer's
//!   input dimension equals the previous layer's output dimension, so a
//!   built [`Network`] can evaluate any input of `input_dim()` length.
//! * Evaluation is pure and deterministic; `classify` breaks score ties
//!   toward the lower class index. The first [`Network::forward`] builds
//!   and keeps the transpose of every affine layer's weights for the
//!   forward kernel; it changes no result, and equality and `Debug`
//!   ignore it.
//! * Weights loaded through [`serialize`] may contain any parseable
//!   float, including NaN — structural validation happens at parse time,
//!   *numeric* validation (rejecting non-finite weights) is the
//!   verifier's job, so a malformed model surfaces as a data error
//!   rather than a crash deep inside a transformer.
//!
//! # Examples
//!
//! ```
//! use nn::samples;
//!
//! // The XOR network from Figure 3 of the paper.
//! let net = samples::xor_network();
//! assert_eq!(net.classify(&[0.0, 0.0]), 0);
//! assert_eq!(net.classify(&[1.0, 0.0]), 1);
//! assert_eq!(net.classify(&[0.0, 1.0]), 1);
//! assert_eq!(net.classify(&[1.0, 1.0]), 0);
//! ```

#![warn(missing_docs)]

mod batch;
mod grad;
mod layer;
mod network;
mod trace;

pub mod conv;
pub mod samples;
pub mod serialize;
pub mod train;

pub use batch::BatchTrace;
pub use layer::{AffineLayer, Layer, MaxPoolLayer};
pub use network::{margin, Network, Transposed};
pub use trace::Trace;

/// Error produced when assembling or deserializing a network fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Two adjacent layers have incompatible dimensions.
    ShapeMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Dimension produced by the preceding layer.
        expected: usize,
        /// Dimension the offending layer consumes.
        actual: usize,
    },
    /// A serialized network could not be parsed.
    Parse(String),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer} consumes dimension {actual} but receives {expected}"
            ),
            NetworkError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for NetworkError {}
