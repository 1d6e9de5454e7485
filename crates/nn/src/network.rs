use std::fmt;
use std::sync::OnceLock;

use tensor::Matrix;

use crate::{Layer, NetworkError, Trace};

/// A feed-forward ReLU network `N : R^n -> R^m`.
///
/// The network is a validated sequence of [`Layer`]s. Outputs are
/// interpreted as per-class scores; [`Network::classify`] returns the index
/// of the maximal score.
///
/// # Examples
///
/// ```
/// use nn::{AffineLayer, Layer, Network};
/// use tensor::Matrix;
///
/// // N(x) = ReLU(x) followed by a 2-class readout.
/// let net = Network::new(1, vec![
///     Layer::Affine(AffineLayer::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0])),
///     Layer::Relu,
///     Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.0, 0.0])),
/// ])?;
/// assert_eq!(net.classify(&[2.0]), 0);
/// assert_eq!(net.classify(&[-2.0]), 1);
/// # Ok::<(), nn::NetworkError>(())
/// ```
#[derive(Clone)]
pub struct Network {
    input_dim: usize,
    output_dim: usize,
    layers: Vec<Layer>,
    /// `Wᵀ` of every affine layer (`None` for the other layers), one copy
    /// per layer for both kernels that read it: the concrete forward pass
    /// ([`tensor::Backend::matvec_wt`]) and the zonotope generator product
    /// ([`tensor::Backend::matmul_transb_wt`], reached through
    /// [`Network::transposed`]). Built on the first call that asks for it,
    /// and only where the active kernel arm reads it, so a network that
    /// never runs one, or runs on another arm, pays nothing; made once per
    /// network, not per trace or per thread. Layers are immutable after
    /// [`Network::new`] (training builds a new network), so the copy
    /// never goes stale. Equality and `Debug` ignore it.
    transposed: OnceLock<Box<[Option<Transposed>]>>,
}

/// The transpose of one affine layer's weights, as [`Network::transposed`]
/// hands it out: `input_dim × output_dim`, row-major.
///
/// The values start on a 64-byte boundary, so on a layer whose width is
/// a multiple of eight every row of `Wᵀ` does too, and the `avx512`
/// kernels' 8-wide loads never straddle two cache lines.
pub struct Transposed {
    /// `Wᵀ` from `buf[start]` on; `start` is the first 64-byte boundary
    /// of the buffer, which never reallocates.
    buf: Vec<f64>,
    start: usize,
    /// Every weight is finite, so the kernel may skip zero inputs.
    pub(crate) finite: bool,
}

impl Transposed {
    /// The transpose of `weights`.
    fn new(weights: &Matrix) -> Self {
        let (rows, cols) = (weights.rows(), weights.cols());
        let w = weights.as_slice();
        Transposed::aligned(
            (0..rows * cols).map(|e| w[(e % rows) * cols + e / rows]),
            rows * cols,
            w.iter().all(|v| v.is_finite()),
        )
    }

    /// `len` values from `values`, stored from a 64-byte boundary.
    fn aligned(values: impl Iterator<Item = f64>, len: usize, finite: bool) -> Self {
        // Seven spare values cover any 8-byte-aligned start.
        let mut buf: Vec<f64> = Vec::with_capacity(len + 7);
        let start = buf.as_ptr().align_offset(64).min(7);
        buf.resize(start, 0.0);
        buf.extend(values.take(len));
        Transposed { buf, start, finite }
    }

    /// `Wᵀ`, `input_dim × output_dim` row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.start..]
    }
}

/// A clone is aligned afresh: its buffer is a new allocation.
impl Clone for Transposed {
    fn clone(&self) -> Self {
        let values = self.as_slice();
        Transposed::aligned(values.iter().copied(), values.len(), self.finite)
    }
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.input_dim == other.input_dim
            && self.output_dim == other.output_dim
            && self.layers == other.layers
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("input_dim", &self.input_dim)
            .field("output_dim", &self.output_dim)
            .field("layers", &self.layers)
            .finish()
    }
}

impl Network {
    /// Creates a network, validating that adjacent layer shapes agree.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ShapeMismatch`] if some layer consumes a
    /// different dimension than the preceding layer produces.
    pub fn new(input_dim: usize, layers: Vec<Layer>) -> Result<Self, NetworkError> {
        let mut dim = input_dim;
        for (idx, layer) in layers.iter().enumerate() {
            if let Some(required) = layer.required_input_dim() {
                if required != dim {
                    return Err(NetworkError::ShapeMismatch {
                        layer: idx,
                        expected: dim,
                        actual: required,
                    });
                }
            }
            dim = layer.output_dim(dim);
        }
        Ok(Network {
            input_dim,
            output_dim: dim,
            layers,
            transposed: OnceLock::new(),
        })
    }

    /// The transposed weights per layer (`None` for the layers that are
    /// not affine), built on the first call; `None` when the active
    /// kernel arm does not read them ([`tensor::Backend::reads_transpose`]).
    /// The forward pass and the checked zonotope propagation
    /// (`domains::propagate_checked_ws`) read the same copy.
    pub fn transposed(&self) -> Option<&[Option<Transposed>]> {
        if !tensor::kernels::active().reads_transpose() {
            return None;
        }
        let per_layer = self.transposed.get_or_init(|| {
            self.layers
                .iter()
                .map(|layer| match layer {
                    Layer::Affine(a) => Some(Transposed::new(&a.weights)),
                    Layer::Relu | Layer::MaxPool(_) => None,
                })
                .collect()
        });
        Some(per_layer)
    }

    /// Dimension of the input space.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Dimension of the output space (number of classes).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The layers of the network, in application order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of affine layers (the paper's notion of depth).
    pub fn depth(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, Layer::Affine(_)))
            .count()
    }

    /// Total number of neurons across intermediate representations.
    pub fn neuron_count(&self) -> usize {
        let mut dim = self.input_dim;
        let mut total = 0;
        for layer in &self.layers {
            dim = layer.output_dim(dim);
            total += dim;
        }
        total
    }

    /// Whether every weight and bias in the network is finite.
    ///
    /// A network with NaN or infinite parameters poisons both concrete
    /// evaluation and every abstract transformer, so verifiers reject
    /// such models up front instead of producing unsound verdicts.
    pub fn params_finite(&self) -> bool {
        self.layers.iter().all(|layer| match layer {
            Layer::Affine(a) => {
                a.weights.as_slice().iter().all(|w| w.is_finite())
                    && a.bias.iter().all(|b| b.is_finite())
            }
            Layer::Relu | Layer::MaxPool(_) => true,
        })
    }

    /// Evaluates the network on an input point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        let mut trace = self.eval_trace(x);
        trace.pop().expect("trace holds the input")
    }

    /// Evaluates the network, returning the vector after every layer.
    ///
    /// `result[0]` is the input itself and `result[i + 1]` is the output of
    /// layer `i`. A loop that evaluates many points should reuse one
    /// [`Trace`] through [`Network::forward`] instead.
    pub fn eval_trace(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut trace = Trace::new();
        self.forward(x, &mut trace);
        trace.acts
    }

    /// Returns the class (index of the highest score) assigned to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or the network has no output.
    pub fn classify(&self, x: &[f64]) -> usize {
        tensor::ops::argmax(&self.eval(x))
    }

    /// The robustness objective of the paper (Eq. 2):
    /// `F(x) = N(x)_K - max_{j != K} N(x)_j`.
    ///
    /// `F(x) <= 0` means `x` is an adversarial counterexample for target
    /// class `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or the network has fewer
    /// than two outputs.
    pub fn objective(&self, x: &[f64], target: usize) -> f64 {
        let mut trace = Trace::new();
        self.forward(x, &mut trace);
        trace.objective(target)
    }

    /// An upper bound on the network's Lipschitz constant (L2 operator
    /// norm), computed as the product of per-layer bounds.
    ///
    /// ReLU and max-pool are 1-Lipschitz; affine layers contribute their
    /// spectral norm (estimated by power iteration).
    pub fn lipschitz_bound(&self) -> f64 {
        let mut bound = 1.0;
        for layer in &self.layers {
            if let Layer::Affine(a) = layer {
                bound *= tensor::linalg::spectral_norm(&a.weights, 60).max(f64::MIN_POSITIVE);
            }
        }
        bound
    }
}

/// Score margin of class `target` over the best other class:
/// `y_target - max_{j != target} y_j`.
///
/// # Panics
///
/// Panics if `target >= y.len()` or `y.len() < 2`.
pub fn margin(y: &[f64], target: usize) -> f64 {
    assert!(target < y.len(), "target class out of range");
    assert!(y.len() >= 2, "margin requires at least two classes");
    let best_other = y
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != target)
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    y[target] - best_other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AffineLayer;
    use tensor::Matrix;

    fn example_2_2() -> Network {
        // The two-layer network from Example 2.2 of the paper.
        Network::new(
            1,
            vec![
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0], &[2.0]]),
                    vec![-1.0, 1.0],
                )),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[2.0, 1.0], &[-1.0, 1.0]]),
                    vec![1.0, 2.0],
                )),
            ],
        )
        .unwrap()
    }

    #[test]
    fn example_2_2_outputs() {
        let net = example_2_2();
        // The paper prints N(0) = [1 3], but its own closed form
        // [a+1, a+2] with a = ReLU(2*0+1) = 1 gives [2 3]; the class is 1
        // either way.
        assert_eq!(net.eval(&[0.0]), vec![2.0, 3.0]);
        assert_eq!(net.classify(&[0.0]), 1);
        // N(2) = [8, 6]: not robust at x = 2 for class 1.
        assert_eq!(net.eval(&[2.0]), vec![8.0, 6.0]);
        assert_eq!(net.classify(&[2.0]), 0);
    }

    #[test]
    fn objective_sign_tracks_robustness() {
        let net = example_2_2();
        assert!(net.objective(&[0.0], 1) > 0.0);
        assert!(net.objective(&[2.0], 1) < 0.0);
    }

    #[test]
    fn shape_mismatch_detected() {
        let err = Network::new(
            3,
            vec![Layer::Affine(AffineLayer::new(
                Matrix::zeros(2, 2),
                vec![0.0; 2],
            ))],
        )
        .unwrap_err();
        assert!(matches!(err, NetworkError::ShapeMismatch { layer: 0, .. }));
    }

    #[test]
    fn eval_trace_layers() {
        let net = example_2_2();
        let trace = net.eval_trace(&[0.0]);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0], vec![0.0]);
        assert_eq!(trace[1], vec![-1.0, 1.0]);
        assert_eq!(trace[2], vec![0.0, 1.0]);
        assert_eq!(trace[3], vec![2.0, 3.0]);
    }

    #[test]
    fn the_transposed_copy_is_invisible_to_equality_and_debug() {
        let net = example_2_2();
        let fresh = net.clone();
        let debug = format!("{net:?}");
        net.eval(&[0.5]);
        // Only an arm that reads the copy makes it.
        assert_eq!(net.transposed.get().is_some(), tensor::kernels::active().reads_transpose());
        assert_eq!(net, fresh);
        assert_eq!(net, net.clone());
        assert_eq!(format!("{net:?}"), debug);
        assert!(!debug.contains("transposed"), "{debug}");
    }

    #[test]
    fn the_transposed_copy_is_the_transpose_from_a_64_byte_boundary() {
        let w = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64 - 0.5);
        let t = Transposed::new(&w);
        for copy in [&t, &t.clone()] {
            assert_eq!(copy.as_slice(), w.transpose().as_slice());
            assert_eq!(copy.as_slice().as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn margin_known_values() {
        assert_eq!(margin(&[3.0, 1.0, 2.0], 0), 1.0);
        assert_eq!(margin(&[3.0, 1.0, 2.0], 1), -2.0);
    }

    #[test]
    fn depth_and_neuron_count() {
        let net = example_2_2();
        assert_eq!(net.depth(), 2);
        assert_eq!(net.neuron_count(), 2 + 2 + 2);
    }

    #[test]
    fn lipschitz_bound_is_positive_and_bounds_behavior() {
        let net = example_2_2();
        let m = net.lipschitz_bound();
        assert!(m > 0.0);
        // |N(x1) - N(x2)| <= M |x1 - x2| on a few sampled pairs.
        for (a, b) in [(0.0, 0.5), (-1.0, 1.0), (0.3, 0.31)] {
            let ya = net.eval(&[a]);
            let yb = net.eval(&[b]);
            let dy = tensor::ops::distance(&ya, &yb);
            assert!(dy <= m * (a - b).abs() + 1e-9, "{dy} > {m} * |{a}-{b}|");
        }
    }
}
