//! Symbolic interval propagation and interval gradient analysis.
//!
//! This module implements the analysis core of ReluVal (Wang et al.,
//! USENIX Security 2018), which the paper uses as a baseline:
//!
//! * [`SymbolicInterval`] tracks, for every neuron, *linear* lower and
//!   upper bounding functions of the network inputs, concretizing only at
//!   unstable ReLUs. This is substantially tighter than plain intervals
//!   because input dependencies cancel symbolically.
//! * [`gradient_bounds`] computes interval bounds on `∂ y_out / ∂ x_i`
//!   over an input region by interval backpropagation with `[0, 1]` masks
//!   at unstable ReLUs. It powers ReluVal's "smear" split heuristic and
//!   Charon's "influence" feature (§6).

use nn::{AffineLayer, Layer, MaxPoolLayer, Network};
use tensor::Matrix;

use crate::{AbstractElement, Bounds};

/// A linear function of the network inputs: `coeffs . x + constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFn {
    /// Coefficients, one per input dimension.
    pub coeffs: Vec<f64>,
    /// Constant offset.
    pub constant: f64,
}

impl LinearFn {
    /// The zero function over `dim` inputs.
    pub fn zero(dim: usize) -> Self {
        LinearFn {
            coeffs: vec![0.0; dim],
            constant: 0.0,
        }
    }

    /// The constant function `c`.
    pub fn constant(dim: usize, c: f64) -> Self {
        LinearFn {
            coeffs: vec![0.0; dim],
            constant: c,
        }
    }

    /// The coordinate projection `x_i`.
    pub fn coordinate(dim: usize, i: usize) -> Self {
        let mut f = LinearFn::zero(dim);
        f.coeffs[i] = 1.0;
        f
    }

    /// Minimum of the function over a box.
    pub fn min_over(&self, region: &Bounds) -> f64 {
        let mut v = self.constant;
        for (i, c) in self.coeffs.iter().enumerate() {
            v += if *c >= 0.0 {
                c * region.lower()[i]
            } else {
                c * region.upper()[i]
            };
        }
        v
    }

    /// Maximum of the function over a box.
    pub fn max_over(&self, region: &Bounds) -> f64 {
        let mut v = self.constant;
        for (i, c) in self.coeffs.iter().enumerate() {
            v += if *c >= 0.0 {
                c * region.upper()[i]
            } else {
                c * region.lower()[i]
            };
        }
        v
    }

    /// Pointwise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the functions have different input dimensions.
    pub fn sub(&self, other: &LinearFn) -> LinearFn {
        assert_eq!(self.coeffs.len(), other.coeffs.len(), "dimension mismatch");
        LinearFn {
            coeffs: tensor::ops::sub(&self.coeffs, &other.coeffs),
            constant: self.constant - other.constant,
        }
    }
}

/// A symbolic interval: per-neuron linear lower/upper bounding functions
/// of the inputs, valid over a fixed input region.
#[derive(Debug, Clone)]
pub struct SymbolicInterval {
    region: Bounds,
    lower: Vec<LinearFn>,
    upper: Vec<LinearFn>,
}

impl SymbolicInterval {
    /// The identity symbolic interval over an input region.
    pub fn from_region(region: &Bounds) -> Self {
        let dim = region.dim();
        let coords: Vec<LinearFn> = (0..dim).map(|i| LinearFn::coordinate(dim, i)).collect();
        SymbolicInterval {
            region: region.clone(),
            lower: coords.clone(),
            upper: coords,
        }
    }

    /// The input region the bounds are valid over.
    pub fn region(&self) -> &Bounds {
        &self.region
    }

    /// Number of neurons currently tracked.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Concrete bounds of neuron `i`.
    pub fn concrete_bounds(&self, i: usize) -> (f64, f64) {
        (
            self.lower[i].min_over(&self.region),
            self.upper[i].max_over(&self.region),
        )
    }

    /// Concrete bounds of every neuron as a box.
    pub fn bounds(&self) -> Bounds {
        let mut lo = Vec::with_capacity(self.dim());
        let mut hi = Vec::with_capacity(self.dim());
        for i in 0..self.dim() {
            let (l, u) = self.concrete_bounds(i);
            lo.push(l);
            hi.push(u);
        }
        Bounds::new(lo, hi)
    }

    /// Symbolic affine transformer: exact on the linear bounding
    /// functions, choosing lower/upper rows by weight sign.
    pub fn affine(&self, layer: &AffineLayer) -> Self {
        assert_eq!(self.dim(), layer.input_dim(), "affine dimension mismatch");
        let in_dim = self.region.dim();
        let mut lower = Vec::with_capacity(layer.output_dim());
        let mut upper = Vec::with_capacity(layer.output_dim());
        for r in 0..layer.output_dim() {
            let mut lo = LinearFn::constant(in_dim, layer.bias[r]);
            let mut hi = LinearFn::constant(in_dim, layer.bias[r]);
            for (c, w) in layer.weights.row(r).iter().enumerate() {
                if *w == 0.0 {
                    continue;
                }
                let (src_lo, src_hi) = if *w > 0.0 {
                    (&self.lower[c], &self.upper[c])
                } else {
                    (&self.upper[c], &self.lower[c])
                };
                tensor::ops::axpy(*w, &src_lo.coeffs, &mut lo.coeffs);
                lo.constant += w * src_lo.constant;
                tensor::ops::axpy(*w, &src_hi.coeffs, &mut hi.coeffs);
                hi.constant += w * src_hi.constant;
            }
            lower.push(lo);
            upper.push(hi);
        }
        SymbolicInterval {
            region: self.region.clone(),
            lower,
            upper,
        }
    }

    /// Symbolic ReLU transformer with ReluVal's concretization rules.
    pub fn relu(&self) -> Self {
        let in_dim = self.region.dim();
        let mut out = self.clone();
        for i in 0..self.dim() {
            let lo_min = self.lower[i].min_over(&self.region);
            let up_max = self.upper[i].max_over(&self.region);
            if up_max <= 0.0 {
                out.lower[i] = LinearFn::zero(in_dim);
                out.upper[i] = LinearFn::zero(in_dim);
            } else if lo_min >= 0.0 {
                // Stable active: keep both equations.
            } else {
                // Unstable: the lower equation is replaced by zero. The
                // upper equation is kept if it is provably non-negative,
                // otherwise concretized to its maximum.
                out.lower[i] = LinearFn::zero(in_dim);
                if self.upper[i].min_over(&self.region) < 0.0 {
                    out.upper[i] = LinearFn::constant(in_dim, up_max);
                }
            }
        }
        out
    }

    /// Symbolic max-pool transformer: passes a dominant input through,
    /// otherwise concretizes to the interval hull of the group maxima.
    pub fn max_pool(&self, layer: &MaxPoolLayer) -> Self {
        assert_eq!(self.dim(), layer.input_dim, "max-pool dimension mismatch");
        let in_dim = self.region.dim();
        let concrete = self.bounds();
        let mut lower = Vec::with_capacity(layer.output_dim());
        let mut upper = Vec::with_capacity(layer.output_dim());
        for group in &layer.groups {
            let dominant = group.iter().copied().find(|&cand| {
                group
                    .iter()
                    .all(|&o| o == cand || concrete.lower()[cand] >= concrete.upper()[o])
            });
            match dominant {
                Some(idx) => {
                    lower.push(self.lower[idx].clone());
                    upper.push(self.upper[idx].clone());
                }
                None => {
                    let lo = group
                        .iter()
                        .map(|&i| concrete.lower()[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let hi = group
                        .iter()
                        .map(|&i| concrete.upper()[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    lower.push(LinearFn::constant(in_dim, lo));
                    upper.push(LinearFn::constant(in_dim, hi));
                }
            }
        }
        SymbolicInterval {
            region: self.region.clone(),
            lower,
            upper,
        }
    }

    /// Sound lower bound on the margin `min_{x in region, j != target}
    /// (y_target(x) - y_j(x))`, evaluated symbolically so that shared
    /// input dependencies cancel.
    pub fn margin_lower_bound(&self, target: usize) -> f64 {
        assert!(target < self.dim(), "target class out of range");
        let mut worst = f64::INFINITY;
        for j in 0..self.dim() {
            if j == target {
                continue;
            }
            let diff = self.lower[target].sub(&self.upper[j]);
            worst = crate::min_or_nan(worst, diff.min_over(&self.region));
        }
        worst
    }
}

/// Propagates a symbolic interval through a whole network.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()`.
pub fn propagate_symbolic(net: &Network, region: &Bounds) -> SymbolicInterval {
    assert_eq!(region.dim(), net.input_dim(), "region dimension mismatch");
    let mut s = SymbolicInterval::from_region(region);
    for layer in net.layers() {
        s = match layer {
            Layer::Affine(a) => s.affine(a),
            Layer::Relu => s.relu(),
            Layer::MaxPool(p) => s.max_pool(p),
        };
    }
    s
}

/// Interval bounds on the partial derivatives `∂ y_output / ∂ x_i` of a
/// network over an input region.
///
/// Unstable ReLUs contribute a `[0, 1]` mask; max-pool routing uncertainty
/// widens the interval towards zero. The result is a vector of
/// `(lo, hi)` pairs, one per input dimension.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()` or
/// `output >= net.output_dim()`.
pub fn gradient_bounds(net: &Network, region: &Bounds, output: usize) -> Vec<(f64, f64)> {
    assert!(output < net.output_dim(), "output index out of range");
    // Forward pass: concrete bounds before each layer (used for masks).
    let mut pre_bounds: Vec<Bounds> = Vec::with_capacity(net.layers().len() + 1);
    let mut current = crate::Interval::from_bounds(region);
    pre_bounds.push(region.clone());
    for layer in net.layers() {
        current = match layer {
            Layer::Affine(a) => current.affine(a),
            Layer::Relu => current.relu(),
            Layer::MaxPool(p) => current.max_pool(p),
        };
        pre_bounds.push(current.bounds());
    }

    // Backward pass with interval arithmetic.
    let mut glo = vec![0.0; net.output_dim()];
    let mut ghi = vec![0.0; net.output_dim()];
    glo[output] = 1.0;
    ghi[output] = 1.0;

    for (idx, layer) in net.layers().iter().enumerate().rev() {
        match layer {
            Layer::Affine(a) => {
                let (lo, hi) = interval_matvec_transpose(&a.weights, &glo, &ghi);
                glo = lo;
                ghi = hi;
            }
            Layer::Relu => {
                // The bounds entering this ReLU are the outputs of the
                // previous layer: pre_bounds[idx].
                let pre = &pre_bounds[idx];
                for i in 0..glo.len() {
                    let (l, u) = (pre.lower()[i], pre.upper()[i]);
                    if u <= 0.0 {
                        glo[i] = 0.0;
                        ghi[i] = 0.0;
                    } else if l < 0.0 {
                        // Mask in [0, 1]: interval product with [g].
                        glo[i] = glo[i].min(0.0);
                        ghi[i] = ghi[i].max(0.0);
                    }
                }
            }
            Layer::MaxPool(p) => {
                let mut nlo = vec![0.0; p.input_dim];
                let mut nhi = vec![0.0; p.input_dim];
                for (out_idx, group) in p.groups.iter().enumerate() {
                    for &i in group {
                        if group.len() == 1 {
                            nlo[i] = glo[out_idx];
                            nhi[i] = ghi[out_idx];
                        } else {
                            // The input may or may not be the winner.
                            nlo[i] = glo[out_idx].min(0.0);
                            nhi[i] = ghi[out_idx].max(0.0);
                        }
                    }
                }
                glo = nlo;
                ghi = nhi;
            }
        }
    }
    glo.into_iter().zip(ghi).collect()
}

fn interval_matvec_transpose(w: &Matrix, glo: &[f64], ghi: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![0.0; w.cols()];
    let mut hi = vec![0.0; w.cols()];
    for r in 0..w.rows() {
        let (gl, gh) = (glo[r], ghi[r]);
        for (c, wv) in w.row(r).iter().enumerate() {
            if *wv >= 0.0 {
                lo[c] += wv * gl;
                hi[c] += wv * gh;
            } else {
                lo[c] += wv * gh;
                hi[c] += wv * gl;
            }
        }
    }
    (lo, hi)
}

/// The "smear" values used by ReluVal's split heuristic: per input
/// dimension, `width_i * max_out max(|grad_lo|, |grad_hi|)`.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()`.
pub fn smear_values(net: &Network, region: &Bounds) -> Vec<f64> {
    let widths = region.widths();
    let mut smear = vec![0.0f64; region.dim()];
    for out in 0..net.output_dim() {
        let grads = gradient_bounds(net, region, out);
        for (i, (lo, hi)) in grads.iter().enumerate() {
            let mag = lo.abs().max(hi.abs());
            smear[i] = smear[i].max(widths[i] * mag);
        }
    }
    smear
}

/// The input dimension with the greatest influence on output `target`
/// over `region`: `argmax_i width_i * max(|grad bounds|)`.
///
/// Used by Charon's partition policy (§6) as the alternative to splitting
/// the longest dimension.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()` or `target` is out of
/// range.
pub fn influence_dim(net: &Network, region: &Bounds, target: usize) -> usize {
    let widths = region.widths();
    let grads = gradient_bounds(net, region, target);
    let scores: Vec<f64> = grads
        .iter()
        .zip(widths.iter())
        .map(|((lo, hi), w)| w * lo.abs().max(hi.abs()))
        .collect();
    tensor::ops::argmax(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Through the identity, `y0 - y1` is `∞ - ∞` over the region while
    /// `y0 - y2` is `+∞`: the margin is NaN, not `+∞`.
    #[test]
    fn a_nan_class_term_makes_the_margin_nan() {
        let net = Network::new(
            3,
            vec![Layer::Affine(AffineLayer::new(
                tensor::Matrix::identity(3),
                vec![0.0; 3],
            ))],
        )
        .unwrap();
        let region = Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        );
        assert!(propagate_symbolic(&net, &region)
            .margin_lower_bound(0)
            .is_nan());
    }

    #[test]
    fn identity_symbolic_interval() {
        let region = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0]);
        let s = SymbolicInterval::from_region(&region);
        assert_eq!(s.bounds(), region);
    }

    #[test]
    fn symbolic_affine_cancels_dependencies() {
        // y = x - x == 0: symbolic intervals prove it exactly, plain
        // intervals cannot.
        let layer = AffineLayer::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.0]);
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // Feed the same input twice via a duplicating first layer.
        let dup = AffineLayer::new(Matrix::from_rows(&[&[1.0], &[1.0]]), vec![0.0, 0.0]);
        let region1 = Bounds::new(vec![0.0], vec![1.0]);
        let s = SymbolicInterval::from_region(&region1)
            .affine(&dup)
            .affine(&layer);
        let (lo, hi) = s.concrete_bounds(0);
        assert_eq!((lo, hi), (0.0, 0.0));
        // Plain interval gives [-1, 1].
        let i = crate::AbstractElement::affine(
            &crate::AbstractElement::affine(
                &<crate::Interval as crate::AbstractElement>::from_bounds(&region1),
                &dup,
            ),
            &layer,
        );
        let b = crate::AbstractElement::bounds(&i);
        assert_eq!((b.lower()[0], b.upper()[0]), (-1.0, 1.0));
        let _ = region;
    }

    #[test]
    fn symbolic_verifies_xor_property() {
        // Example 3.1's property is provable with one bisection in
        // ReluVal-style analysis; here just check soundness of bounds.
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let s = propagate_symbolic(&net, &region);
        let mut rng = StdRng::seed_from_u64(3);
        let b = s.bounds();
        for _ in 0..200 {
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..y.len() {
                assert!(y[i] >= b.lower()[i] - 1e-9 && y[i] <= b.upper()[i] + 1e-9);
            }
        }
    }

    #[test]
    fn gradient_bounds_linear_network_exact() {
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[2.0, -3.0], &[0.5, 1.0]]),
            vec![0.0; 2],
        );
        let net = Network::new(2, vec![Layer::Affine(layer)]).unwrap();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let g0 = gradient_bounds(&net, &region, 0);
        assert_eq!(g0, vec![(2.0, 2.0), (-3.0, -3.0)]);
    }

    #[test]
    fn gradient_bounds_contain_sampled_gradients() {
        let net = nn::train::random_mlp(3, &[8, 8], 2, 21);
        let region = Bounds::linf_ball(&[0.0, 0.2, -0.3], 0.3, None);
        let gb = gradient_bounds(&net, &region, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seed = vec![0.0; 2];
        seed[0] = 1.0;
        for _ in 0..100 {
            let x = region.sample(&mut rng);
            let g = net.gradient(&x, &seed);
            for (i, gi) in g.iter().enumerate() {
                assert!(
                    *gi >= gb[i].0 - 1e-9 && *gi <= gb[i].1 + 1e-9,
                    "gradient {gi} outside [{}, {}]",
                    gb[i].0,
                    gb[i].1
                );
            }
        }
    }

    #[test]
    fn smear_prefers_influential_dimension() {
        // Output depends strongly on x0, weakly on x1.
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[10.0, 0.1], &[-10.0, 0.1]]),
            vec![0.0; 2],
        );
        let net = Network::new(2, vec![Layer::Affine(layer)]).unwrap();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let smear = smear_values(&net, &region);
        assert!(smear[0] > smear[1]);
        assert_eq!(influence_dim(&net, &region, 0), 0);
    }

    proptest! {
        /// Symbolic interval propagation is sound on random networks, and
        /// its margin bound never exceeds the true margin.
        #[test]
        fn symbolic_propagation_is_sound(seed in 0u64..30) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
            let net = nn::train::random_mlp(3, &[7, 7], 3, seed);
            let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, 0.25, None);
            let s = propagate_symbolic(&net, &region);
            let b = s.bounds();
            for _ in 0..25 {
                let x = region.sample(&mut rng);
                let y = net.eval(&x);
                for i in 0..y.len() {
                    prop_assert!(y[i] >= b.lower()[i] - 1e-9);
                    prop_assert!(y[i] <= b.upper()[i] + 1e-9);
                }
                for t in 0..3 {
                    prop_assert!(s.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                }
            }
        }

        /// Symbolic bounds are never looser than plain interval bounds on
        /// affine-only networks (where both are exact the test is
        /// equality; after ReLU concretization symbolic falls back to
        /// intervals, so we only require containment of the truth).
        #[test]
        fn symbolic_affine_no_looser_than_interval(seed in 0u64..20) {
            let net = nn::train::random_mlp(4, &[6], 3, seed);
            let region = Bounds::linf_ball(&[0.1; 4], 0.2, None);
            let s = propagate_symbolic(&net, &region);
            let i = crate::propagate(
                &net,
                <crate::Interval as crate::AbstractElement>::from_bounds(&region),
            );
            let sb = s.bounds();
            let ib = crate::AbstractElement::bounds(&i);
            for k in 0..3 {
                prop_assert!(sb.lower()[k] >= ib.lower()[k] - 1e-9);
                prop_assert!(sb.upper()[k] <= ib.upper()[k] + 1e-9);
            }
        }
    }
}
