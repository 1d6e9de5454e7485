use tensor::Matrix;

/// An affine transformation `y = W x + b`.
///
/// Fully-connected layers are affine directly; convolutional layers are
/// lowered to this form by [`crate::conv::Conv2d::to_affine`], following the
/// paper's observation (§2.1) that both can be expressed as affine maps.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineLayer {
    /// Weight matrix with shape `output_dim x input_dim`.
    pub weights: Matrix,
    /// Bias vector with length `output_dim`.
    pub bias: Vec<f64>,
}

impl AffineLayer {
    /// Creates an affine layer.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(
            bias.len(),
            weights.rows(),
            "bias length must equal weight rows"
        );
        AffineLayer { weights, bias }
    }

    /// Input dimension consumed by the layer.
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension produced by the layer.
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Applies the layer: `W x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.apply_into(x, &mut y);
        y
    }

    /// [`AffineLayer::apply`] into a reusable buffer (resized to
    /// `output_dim()`). The product and the bias add stay two steps, so
    /// the rounding is that of `matvec` followed by `+ b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut Vec<f64>) {
        y.resize(self.output_dim(), 0.0);
        self.weights.matvec_into(x, y);
        for (yi, bi) in y.iter_mut().zip(self.bias.iter()) {
            *yi += bi;
        }
    }
}

/// A max-pooling layer expressed as disjoint index groups.
///
/// Output neuron `i` is `max` over the input indices in `groups[i]`. The
/// index-group representation is layout-agnostic: [`crate::conv`] builds the
/// groups for 2-D spatial pooling, and abstract transformers can consume the
/// groups without knowing about image shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolLayer {
    /// Input dimension the layer consumes.
    pub input_dim: usize,
    /// For each output neuron, the input indices pooled into it.
    pub groups: Vec<Vec<usize>>,
}

impl MaxPoolLayer {
    /// Creates a max-pooling layer from index groups.
    ///
    /// # Panics
    ///
    /// Panics if any group is empty or references an index `>= input_dim`.
    pub fn new(input_dim: usize, groups: Vec<Vec<usize>>) -> Self {
        for group in &groups {
            assert!(!group.is_empty(), "empty max-pool group");
            for &idx in group {
                assert!(idx < input_dim, "max-pool index {idx} out of range");
            }
        }
        MaxPoolLayer { input_dim, groups }
    }

    /// Output dimension produced by the layer.
    pub fn output_dim(&self) -> usize {
        self.groups.len()
    }

    /// Applies the layer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.apply_into(x, &mut y);
        y
    }

    /// [`MaxPoolLayer::apply`] into a reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim`.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim, "max-pool dimension mismatch");
        y.clear();
        y.extend(
            self.groups
                .iter()
                .map(|g| g.iter().map(|&i| x[i]).fold(f64::NEG_INFINITY, f64::max)),
        );
    }
}

/// One layer of a [`crate::Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Affine transformation `y = W x + b`.
    Affine(AffineLayer),
    /// Element-wise rectified linear unit `y_i = max(x_i, 0)`.
    Relu,
    /// Max pooling over index groups.
    MaxPool(MaxPoolLayer),
}

impl Layer {
    /// Output dimension given the dimension of the incoming vector.
    ///
    /// `Relu` preserves dimension; the other layers have fixed shapes.
    pub fn output_dim(&self, input_dim: usize) -> usize {
        match self {
            Layer::Affine(a) => a.output_dim(),
            Layer::Relu => input_dim,
            Layer::MaxPool(p) => p.output_dim(),
        }
    }

    /// Dimension the layer consumes, if it is fixed by the layer itself.
    pub fn required_input_dim(&self) -> Option<usize> {
        match self {
            Layer::Affine(a) => Some(a.input_dim()),
            Layer::Relu => None,
            Layer::MaxPool(p) => Some(p.input_dim),
        }
    }

    /// Applies the layer to a concrete vector.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.apply_into(x, &mut y);
        y
    }

    /// [`Layer::apply`] into a reusable buffer: no allocation once `y`
    /// has the capacity of the layer's output.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut Vec<f64>) {
        match self {
            Layer::Affine(a) => a.apply_into(x, y),
            Layer::Relu => {
                y.clear();
                y.extend(x.iter().map(|v| v.max(0.0)));
            }
            Layer::MaxPool(p) => p.apply_into(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_apply() {
        let l = AffineLayer::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]),
            vec![1.0, 0.5],
        );
        assert_eq!(l.apply(&[1.0, 1.0]), vec![4.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn affine_bias_mismatch_panics() {
        AffineLayer::new(Matrix::zeros(2, 2), vec![0.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Layer::Relu.apply(&[-1.0, 0.0, 2.5]), vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn maxpool_groups() {
        let p = MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.apply(&[1.0, 5.0, -2.0, -3.0]), vec![5.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn maxpool_bad_index_panics() {
        MaxPoolLayer::new(2, vec![vec![0, 2]]);
    }

    #[test]
    fn layer_output_dims() {
        let affine = Layer::Affine(AffineLayer::new(Matrix::zeros(3, 2), vec![0.0; 3]));
        assert_eq!(affine.output_dim(2), 3);
        assert_eq!(Layer::Relu.output_dim(7), 7);
        let pool = Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]]));
        assert_eq!(pool.output_dim(4), 2);
    }
}
