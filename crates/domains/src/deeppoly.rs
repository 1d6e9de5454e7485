//! A DeepPoly-style relational domain with back-substitution.
//!
//! The paper's future-work section (§9) proposes exploring "a broader set
//! of abstract domains"; this module adds the polyhedral-lite domain of
//! Singh et al. (POPL 2019), which was the natural next domain in the
//! ELINA family Charon built on. Every neuron carries *two* linear
//! bounding expressions over the previous layer (a lower and an upper
//! relational constraint); concrete bounds are obtained by substituting
//! these expressions backwards layer by layer until the input box is
//! reached.
//!
//! Compared to the zonotope domain, DeepPoly's ReLU relaxation keeps a
//! per-neuron choice of lower bound (`y >= 0` or `y >= x`, whichever has
//! smaller relaxation area) and its back-substitution recovers exact
//! affine dependencies across layers.

use nn::{AffineLayer, Layer, MaxPoolLayer, Network};

use crate::{AbstractElement, Bounds};

/// Linear expression over the neurons of one layer: `coeffs . h + constant`.
#[derive(Debug, Clone, PartialEq)]
struct Expr {
    coeffs: Vec<f64>,
    constant: f64,
}

impl Expr {
    fn constant(dim: usize, c: f64) -> Self {
        Expr {
            coeffs: vec![0.0; dim],
            constant: c,
        }
    }

    fn unit(dim: usize, i: usize, scale: f64) -> Self {
        let mut e = Expr::constant(dim, 0.0);
        e.coeffs[i] = scale;
        e
    }
}

/// The relational constraints one analyzed layer imposes on the previous
/// one, in the densest representation the layer kind allows.
///
/// Affine layers share one weight matrix between the lower and upper
/// relation (they are exact), and ReLU layers are diagonal — per-neuron
/// slopes instead of `dim` dense unit expressions. Both make the
/// back-substitution step a row-slice kernel rather than a walk over
/// `O(dim²)` mostly-zero coefficients.
#[derive(Debug, Clone)]
enum LayerRelation {
    /// `h_out = W h_prev + b`, exact in both directions.
    Affine { weights: tensor::Matrix, bias: Vec<f64> },
    /// Per-neuron bounds `lower_slope_i · x_i <= y_i <= upper_slope_i · x_i
    /// + upper_const_i`.
    Relu {
        lower_slope: Vec<f64>,
        upper_slope: Vec<f64>,
        upper_const: Vec<f64>,
    },
    /// General per-neuron expression pairs (max-pool).
    General {
        lower_expr: Vec<Expr>,
        upper_expr: Vec<Expr>,
    },
}

/// Relational bounds of one analyzed layer: the relation to the *previous*
/// layer, plus cached concrete bounds.
#[derive(Debug, Clone)]
struct LayerBounds {
    relation: LayerRelation,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

/// The DeepPoly analysis state for a whole network.
#[derive(Debug, Clone)]
pub struct DeepPoly {
    region: Bounds,
    layers: Vec<LayerBounds>,
}

impl DeepPoly {
    /// Analyzes a network over an input region.
    ///
    /// # Panics
    ///
    /// Panics if `region.dim() != net.input_dim()`.
    pub fn analyze(net: &Network, region: &Bounds) -> Self {
        assert_eq!(
            region.dim(),
            net.input_dim(),
            "region dimension must match network input"
        );
        let mut state = DeepPoly {
            region: region.clone(),
            layers: Vec::with_capacity(net.layers().len()),
        };
        // A plain interval analysis runs alongside; its bounds are
        // intersected into the cached concrete bounds at every layer.
        let mut boxes = crate::Interval::from_bounds(region);
        for layer in net.layers() {
            match layer {
                Layer::Affine(a) => {
                    boxes = crate::AbstractElement::affine(&boxes, a);
                    state.push_affine(a, &crate::AbstractElement::bounds(&boxes));
                }
                Layer::Relu => {
                    boxes = crate::AbstractElement::relu(boxes);
                    state.push_relu(&crate::AbstractElement::bounds(&boxes));
                }
                Layer::MaxPool(p) => {
                    boxes = crate::AbstractElement::max_pool(&boxes, p);
                    state.push_max_pool(p, &crate::AbstractElement::bounds(&boxes));
                }
            }
        }
        state
    }

    /// Dimension of the most recently analyzed layer.
    fn current_dim(&self) -> usize {
        self.layers
            .last()
            .map_or(self.region.dim(), |l| l.lower.len())
    }

    /// Concrete output bounds of the network.
    pub fn bounds(&self) -> Bounds {
        match self.layers.last() {
            Some(l) => Bounds::new(l.lower.clone(), l.upper.clone()),
            None => self.region.clone(),
        }
    }

    /// Sound lower bound on the margin `min_{x, j != target}
    /// (y_target - y_j)`, computed by back-substituting the difference
    /// expression (so correlations between the two scores cancel).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range or no layers were analyzed.
    pub fn margin_lower_bound(&self, target: usize) -> f64 {
        let dim = self.current_dim();
        assert!(target < dim, "target class out of range");
        let mut worst = f64::INFINITY;
        for j in 0..dim {
            if j == target {
                continue;
            }
            let mut diff = Expr::constant(dim, 0.0);
            diff.coeffs[target] = 1.0;
            diff.coeffs[j] = -1.0;
            let relational = self.lower_bound_of(diff, self.layers.len());
            // The cached (box-intersected) bounds give an independent
            // sound bound; take the tighter of the two.
            let boxed = match self.layers.last() {
                Some(l) => l.lower[target] - l.upper[j],
                None => f64::NEG_INFINITY,
            };
            worst = crate::min_or_nan(worst, crate::max_or_nan(relational, boxed));
        }
        worst
    }

    /// Back-substitutes `expr` (over the outputs of layer `upto - 1`)
    /// down to the input box and returns a sound lower bound.
    ///
    /// For a lower bound, positive coefficients pull in each neuron's
    /// lower relation, negative ones its upper.
    fn lower_bound_of(&self, mut expr: Expr, upto: usize) -> f64 {
        for idx in (0..upto).rev() {
            expr = match &self.layers[idx].relation {
                LayerRelation::Affine { weights, bias } => {
                    // Both relations are the exact affine map, so the
                    // substitution is one transposed matvec (row slices,
                    // zero coefficients skipped) plus the bias dot.
                    let coeffs = weights.matvec_transpose(&expr.coeffs);
                    let mut constant = expr.constant;
                    for (c, b) in expr.coeffs.iter().zip(bias.iter()) {
                        if *c != 0.0 {
                            constant += c * b;
                        }
                    }
                    Expr { coeffs, constant }
                }
                LayerRelation::Relu {
                    lower_slope,
                    upper_slope,
                    upper_const,
                } => {
                    // Diagonal relation: coordinate i of the new
                    // expression depends only on coordinate i.
                    let mut coeffs = expr.coeffs;
                    let mut constant = expr.constant;
                    for (i, c) in coeffs.iter_mut().enumerate() {
                        if *c == 0.0 {
                            continue;
                        }
                        if *c > 0.0 {
                            *c *= lower_slope[i];
                        } else {
                            constant += *c * upper_const[i];
                            *c *= upper_slope[i];
                        }
                    }
                    Expr { coeffs, constant }
                }
                LayerRelation::General {
                    lower_expr,
                    upper_expr,
                } => {
                    let prev_dim = lower_expr
                        .first()
                        .map_or(self.region.dim(), |e| e.coeffs.len());
                    let mut next = Expr::constant(prev_dim, expr.constant);
                    for (i, &c) in expr.coeffs.iter().enumerate() {
                        if c == 0.0 {
                            continue;
                        }
                        let source = if c > 0.0 {
                            &lower_expr[i]
                        } else {
                            &upper_expr[i]
                        };
                        tensor::ops::axpy(c, &source.coeffs, &mut next.coeffs);
                        next.constant += c * source.constant;
                    }
                    next
                }
            };
        }
        // Evaluate the final expression over the input box.
        let mut v = expr.constant;
        for (i, c) in expr.coeffs.iter().enumerate() {
            v += if *c >= 0.0 {
                c * self.region.lower()[i]
            } else {
                c * self.region.upper()[i]
            };
        }
        v
    }

    /// Concrete bounds of neuron `i` of the latest layer via
    /// back-substitution.
    fn concrete_bounds_of_neuron(&self, i: usize) -> (f64, f64) {
        let dim = self.current_dim();
        let lo = self.lower_bound_of(Expr::unit(dim, i, 1.0), self.layers.len());
        let hi = -self.lower_bound_of(Expr::unit(dim, i, -1.0), self.layers.len());
        (lo, hi)
    }

    fn push_affine(&mut self, a: &AffineLayer, box_bounds: &Bounds) {
        assert_eq!(
            self.current_dim(),
            a.input_dim(),
            "affine dimension mismatch"
        );
        let out = a.output_dim();
        self.layers.push(LayerBounds {
            relation: LayerRelation::Affine {
                weights: a.weights.clone(),
                bias: a.bias.clone(),
            },
            lower: vec![0.0; out],
            upper: vec![0.0; out],
        });
        self.refresh_concrete(box_bounds);
    }

    fn push_relu(&mut self, box_bounds: &Bounds) {
        let dim = self.current_dim();
        let (pre_lo, pre_hi) = match self.layers.last() {
            Some(l) => (l.lower.clone(), l.upper.clone()),
            None => (self.region.lower().to_vec(), self.region.upper().to_vec()),
        };
        let mut lower_slope = vec![0.0; dim];
        let mut upper_slope = vec![0.0; dim];
        let mut upper_const = vec![0.0; dim];
        for i in 0..dim {
            let (l, u) = (pre_lo[i], pre_hi[i]);
            if u <= 0.0 {
                // Dead neuron: y = 0 in both directions.
            } else if l >= 0.0 {
                lower_slope[i] = 1.0;
                upper_slope[i] = 1.0;
            } else {
                // Upper: the chord y <= u (x - l) / (u - l).
                let slope = u / (u - l);
                upper_slope[i] = slope;
                upper_const[i] = -slope * l;
                // Lower: y >= λ x with λ chosen to minimize relaxation
                // area (DeepPoly's heuristic): λ = 1 when u > -l else 0.
                lower_slope[i] = if u > -l { 1.0 } else { 0.0 };
            }
        }
        self.layers.push(LayerBounds {
            relation: LayerRelation::Relu {
                lower_slope,
                upper_slope,
                upper_const,
            },
            lower: vec![0.0; dim],
            upper: vec![0.0; dim],
        });
        self.refresh_concrete(box_bounds);
    }

    fn push_max_pool(&mut self, p: &MaxPoolLayer, box_bounds: &Bounds) {
        assert_eq!(
            self.current_dim(),
            p.input_dim,
            "max-pool dimension mismatch"
        );
        let in_dim = p.input_dim;
        let (pre_lo, pre_hi) = match self.layers.last() {
            Some(l) => (l.lower.clone(), l.upper.clone()),
            None => (self.region.lower().to_vec(), self.region.upper().to_vec()),
        };
        let mut lower_expr = Vec::with_capacity(p.output_dim());
        let mut upper_expr = Vec::with_capacity(p.output_dim());
        for group in &p.groups {
            let dominant = group.iter().copied().find(|&cand| {
                group
                    .iter()
                    .all(|&o| o == cand || pre_lo[cand] >= pre_hi[o])
            });
            match dominant {
                Some(idx) => {
                    lower_expr.push(Expr::unit(in_dim, idx, 1.0));
                    upper_expr.push(Expr::unit(in_dim, idx, 1.0));
                }
                None => {
                    // Lower: the max is at least any single input; pick
                    // the one with the greatest lower bound to stay
                    // relational. Upper: concrete hull.
                    let best = group
                        .iter()
                        .copied()
                        .max_by(|&a, &b| pre_lo[a].total_cmp(&pre_lo[b]))
                        .expect("non-empty pool group");
                    lower_expr.push(Expr::unit(in_dim, best, 1.0));
                    let hi = group
                        .iter()
                        .map(|&i| pre_hi[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    upper_expr.push(Expr::constant(in_dim, hi));
                }
            }
        }
        self.layers.push(LayerBounds {
            lower: vec![0.0; lower_expr.len()],
            upper: vec![0.0; upper_expr.len()],
            relation: LayerRelation::General {
                lower_expr,
                upper_expr,
            },
        });
        self.refresh_concrete(box_bounds);
    }

    /// Recomputes the cached concrete bounds of the latest layer by
    /// back-substitution, intersected with `box_bounds` (plain interval
    /// propagation of the same layer) so the domain is never looser than
    /// the box domain.
    fn refresh_concrete(&mut self, box_bounds: &Bounds) {
        let dim = self.current_dim();
        let mut lower = Vec::with_capacity(dim);
        let mut upper = Vec::with_capacity(dim);
        for i in 0..dim {
            let (l, u) = self.concrete_bounds_of_neuron(i);
            lower.push(l.max(box_bounds.lower()[i]));
            upper.push(u.min(box_bounds.upper()[i]));
        }
        let last = self.layers.last_mut().expect("refresh after push");
        last.lower = lower;
        last.upper = upper;
    }
}

/// Convenience: does DeepPoly verify that every point of `region` is
/// classified as `target`?
pub fn verifies(net: &Network, region: &Bounds, target: usize) -> bool {
    DeepPoly::analyze(net, region).margin_lower_bound(target) > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Through a lone ReLU, `y0 - y1` is `∞ - ∞` on both the relational
    /// and the boxed bound while `y0 - y2` is `+∞`: the margin is NaN, so
    /// the region is not proved.
    #[test]
    fn a_nan_class_term_makes_the_margin_nan() {
        let net = Network::new(3, vec![Layer::Relu]).unwrap();
        let region = Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        );
        assert!(DeepPoly::analyze(&net, &region)
            .margin_lower_bound(0)
            .is_nan());
    }

    /// An identity layer on that region makes interval bounds of
    /// `0 · ∞`: the analysis reports them as NaN bounds and a NaN margin
    /// instead of panicking.
    #[test]
    fn a_zero_times_infinity_bound_is_reported_not_a_panic() {
        let identity = AffineLayer::new(tensor::Matrix::identity(3), vec![0.0; 3]);
        let net = Network::new(3, vec![Layer::Affine(identity)]).unwrap();
        let region = Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        );
        let dp = DeepPoly::analyze(&net, &region);
        assert!(dp.bounds().has_nan());
        assert!(dp.margin_lower_bound(0).is_nan());
        assert!(!verifies(&net, &region, 0));
    }

    #[test]
    fn exact_on_affine_networks() {
        let layer = AffineLayer::new(
            tensor::Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]),
            vec![0.5, -1.0],
        );
        let net = Network::new(2, vec![Layer::Affine(layer)]).unwrap();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let dp = DeepPoly::analyze(&net, &region);
        let b = dp.bounds();
        assert!((b.lower()[0] - (-0.5)).abs() < 1e-12);
        assert!((b.upper()[0] - 1.5).abs() < 1e-12);
        assert!((b.lower()[1] - (-1.0)).abs() < 1e-12);
        assert!((b.upper()[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cancellation_across_layers() {
        // y = h1 - h2 where h1 = x, h2 = x: DeepPoly proves y == 0.
        let dup = AffineLayer::new(tensor::Matrix::from_rows(&[&[1.0], &[1.0]]), vec![0.0; 2]);
        let diff = AffineLayer::new(tensor::Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.0]);
        let net = Network::new(1, vec![Layer::Affine(dup), Layer::Affine(diff)]).unwrap();
        let region = Bounds::new(vec![-5.0], vec![5.0]);
        let b = DeepPoly::analyze(&net, &region).bounds();
        assert!(b.lower()[0].abs() < 1e-12 && b.upper()[0].abs() < 1e-12);
    }

    #[test]
    fn verifies_example_2_2() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![1.0]);
        assert!(verifies(&net, &region, 1));
    }

    #[test]
    fn does_not_verify_falsifiable_property() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![2.0]);
        assert!(!verifies(&net, &region, 1));
    }

    #[test]
    fn verifies_example_2_3() {
        let net = samples::example_2_3_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(verifies(&net, &region, 1));
    }

    #[test]
    fn relu_bounds_contain_truth() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.1, 0.2], vec![0.9, 0.8]);
        let dp = DeepPoly::analyze(&net, &region);
        let b = dp.bounds();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..y.len() {
                assert!(y[i] >= b.lower()[i] - 1e-9 && y[i] <= b.upper()[i] + 1e-9);
            }
        }
    }

    #[test]
    fn handles_maxpool() {
        let pool = nn::conv::max_pool_groups(nn::conv::Shape3::new(1, 2, 2), 2);
        let head = AffineLayer::new(tensor::Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0; 2]);
        let net = Network::new(4, vec![Layer::MaxPool(pool), Layer::Affine(head)]).unwrap();
        let region = Bounds::new(vec![0.0; 4], vec![1.0; 4]);
        let dp = DeepPoly::analyze(&net, &region);
        let b = dp.bounds();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..2 {
                assert!(y[i] >= b.lower()[i] - 1e-9 && y[i] <= b.upper()[i] + 1e-9);
            }
        }
    }

    proptest! {
        /// Soundness on random deeper networks, including margins.
        #[test]
        fn deeppoly_sound_on_random_mlps(seed in 0u64..30) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdd);
            let net = nn::train::random_mlp(3, &[6, 6], 3, seed);
            let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, 0.25, None);
            let dp = DeepPoly::analyze(&net, &region);
            let b = dp.bounds();
            for _ in 0..25 {
                let x = region.sample(&mut rng);
                let y = net.eval(&x);
                for i in 0..y.len() {
                    prop_assert!(y[i] >= b.lower()[i] - 1e-9);
                    prop_assert!(y[i] <= b.upper()[i] + 1e-9);
                }
                for t in 0..3 {
                    prop_assert!(dp.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                }
            }
        }

        /// DeepPoly is never looser than the plain interval domain.
        #[test]
        fn deeppoly_no_looser_than_interval(seed in 0u64..20) {
            let net = nn::train::random_mlp(4, &[8, 8], 3, seed);
            let region = Bounds::linf_ball(&[0.1; 4], 0.2, None);
            let dp = DeepPoly::analyze(&net, &region).bounds();
            let iv = crate::propagate(
                &net,
                <crate::Interval as crate::AbstractElement>::from_bounds(&region),
            );
            let ib = crate::AbstractElement::bounds(&iv);
            for k in 0..3 {
                prop_assert!(dp.lower()[k] >= ib.lower()[k] - 1e-9);
                prop_assert!(dp.upper()[k] <= ib.upper()[k] + 1e-9);
            }
        }
    }
}
