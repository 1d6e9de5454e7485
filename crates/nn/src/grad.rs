//! Backpropagation: exact input gradients for piecewise-linear networks.

use crate::{Network, Trace};

impl Network {
    /// Gradient of the scalar `seed . N(x)` with respect to the input `x`.
    ///
    /// `seed` weights the output components; passing a one-hot vector gives
    /// the gradient of a single output score. At ReLU kinks (pre-activation
    /// exactly zero) the subgradient `0` is used; at max-pool ties the
    /// lowest-index winner receives the gradient. One [`Network::forward`]
    /// plus one [`Network::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or
    /// `seed.len() != self.output_dim()`.
    pub fn gradient(&self, x: &[f64], seed: &[f64]) -> Vec<f64> {
        let mut trace = Trace::new();
        self.forward(x, &mut trace);
        self.backward(&mut trace, seed);
        std::mem::take(&mut trace.grads[0])
    }

    /// Gradient of the robustness objective `F` (Eq. 2) at `x` for class
    /// `target`.
    ///
    /// `F(x) = N(x)_target - N(x)_j*` where `j*` is the strongest other
    /// class at `x`; the gradient seeds `+1` at `target` and `-1` at `j*`.
    /// One [`Network::forward`] plus one [`Network::objective_backward`].
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()`.
    pub fn objective_gradient(&self, x: &[f64], target: usize) -> Vec<f64> {
        let mut trace = Trace::new();
        self.forward(x, &mut trace);
        self.objective_backward(&mut trace, target);
        std::mem::take(&mut trace.grads[0])
    }
}

#[cfg(test)]
mod tests {
    use crate::{AffineLayer, Layer, MaxPoolLayer, Network};
    use tensor::Matrix;

    fn finite_difference(net: &Network, x: &[f64], seed: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += h;
                xm[i] -= h;
                let fp = tensor::ops::dot(seed, &net.eval(&xp));
                let fm = tensor::ops::dot(seed, &net.eval(&xm));
                (fp - fm) / (2.0 * h)
            })
            .collect()
    }

    fn small_net() -> Network {
        Network::new(
            3,
            vec![
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[
                        &[0.5, -1.0, 0.25],
                        &[1.5, 0.75, -0.5],
                        &[-0.25, 0.5, 1.0],
                        &[2.0, -0.3, 0.1],
                    ]),
                    vec![0.1, -0.2, 0.3, 0.0],
                )),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, -1.0, 0.5, 0.2], &[0.3, 0.7, -0.9, 1.1]]),
                    vec![0.0, 0.5],
                )),
            ],
        )
        .unwrap()
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let net = small_net();
        let x = vec![0.3, -0.7, 0.9];
        for seed in [vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, -1.5]] {
            let g = net.gradient(&x, &seed);
            let fd = finite_difference(&net, &x, &seed);
            for (a, b) in g.iter().zip(fd.iter()) {
                assert!((a - b).abs() < 1e-4, "analytic {a} vs fd {b}");
            }
        }
    }

    #[test]
    fn objective_gradient_matches_finite_difference() {
        let net = small_net();
        // Pick a point where no ReLU pre-activation is near its kink, so
        // the finite difference sees a single linear piece.
        let x = (0..50)
            .map(|i| {
                let t = i as f64 * 0.071;
                vec![t.sin() * 0.8, (t * 1.7).cos() * 0.8, (t * 0.9).sin() * 0.8]
            })
            .find(|x| {
                let trace = net.eval_trace(x);
                trace[1].iter().all(|pre| pre.abs() > 0.05)
            })
            .expect("some probe point avoids all kinks");
        let g = net.objective_gradient(&x, 0);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let fd = (net.objective(&xp, 0) - net.objective(&xm, 0)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "analytic {} vs fd {fd}", g[i]);
        }
    }

    #[test]
    fn maxpool_gradient_routes_to_winner() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.0, 0.0])),
            ],
        )
        .unwrap();
        let g = net.gradient(&[1.0, 5.0, -2.0, -3.0], &[1.0, 1.0]);
        assert_eq!(g, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_blocks_gradient_for_inactive_units() {
        let net = Network::new(
            1,
            vec![
                Layer::Affine(AffineLayer::new(Matrix::from_rows(&[&[1.0]]), vec![-10.0])),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0], &[-1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        // Pre-activation is x - 10 < 0 at x = 0, so gradient is zero.
        assert_eq!(net.gradient(&[0.0], &[1.0, 0.0]), vec![0.0]);
    }
}
