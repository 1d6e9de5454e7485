use nn::{AffineLayer, MaxPoolLayer};

use crate::{AbstractElement, Bounds, ReluCoordOps, Workspace};

/// The interval (box) abstract domain.
///
/// Each coordinate is tracked independently as a `[lo, hi]` range. All
/// transformers are the standard interval-arithmetic ones; they are cheap
/// but non-relational.
///
/// # Examples
///
/// ```
/// use domains::{AbstractElement, Bounds, Interval};
///
/// let e = Interval::from_bounds(&Bounds::new(vec![-1.0], vec![1.0]));
/// let r = e.relu();
/// assert_eq!(r.bounds().lower(), &[0.0]);
/// assert_eq!(r.bounds().upper(), &[1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Interval {
    /// Per-coordinate lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Per-coordinate upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Shared kernel for [`AbstractElement::affine`] /
    /// [`AbstractElement::affine_ws`]: writes the output bounds of
    /// `W x + b` into caller-provided buffers, one row-slice pass per
    /// output neuron (no per-element index bounds checks).
    fn affine_into(&self, layer: &AffineLayer, lower: &mut [f64], upper: &mut [f64]) {
        for (r, (lo_out, hi_out)) in lower.iter_mut().zip(upper.iter_mut()).enumerate() {
            let mut lo = layer.bias[r];
            let mut hi = layer.bias[r];
            for ((w, l), u) in layer
                .weights
                .row(r)
                .iter()
                .zip(self.lower.iter())
                .zip(self.upper.iter())
            {
                if *w >= 0.0 {
                    lo += w * l;
                    hi += w * u;
                } else {
                    lo += w * u;
                    hi += w * l;
                }
            }
            *lo_out = lo;
            *hi_out = hi;
        }
    }
}

impl AbstractElement for Interval {
    fn from_bounds(bounds: &Bounds) -> Self {
        Interval {
            lower: bounds.lower().to_vec(),
            upper: bounds.upper().to_vec(),
        }
    }

    fn dim(&self) -> usize {
        self.lower.len()
    }

    fn bounds(&self) -> Bounds {
        Bounds::new(self.lower.clone(), self.upper.clone())
    }

    fn affine(&self, layer: &AffineLayer) -> Self {
        assert_eq!(self.dim(), layer.input_dim(), "affine dimension mismatch");
        let out = layer.output_dim();
        let mut lower = vec![0.0; out];
        let mut upper = vec![0.0; out];
        self.affine_into(layer, &mut lower, &mut upper);
        Interval { lower, upper }
    }

    fn affine_ws(&self, layer: &AffineLayer, _wt: Option<&nn::Transposed>, ws: &mut Workspace) -> Self {
        assert_eq!(self.dim(), layer.input_dim(), "affine dimension mismatch");
        let out = layer.output_dim();
        let mut lower = ws.take(out);
        let mut upper = ws.take(out);
        self.affine_into(layer, &mut lower, &mut upper);
        Interval { lower, upper }
    }

    fn recycle(self, ws: &mut Workspace) {
        ws.give(self.lower);
        ws.give(self.upper);
    }

    fn relu(mut self) -> Self {
        for v in self.lower.iter_mut().chain(self.upper.iter_mut()) {
            *v = v.max(0.0);
        }
        self
    }

    fn max_pool(&self, layer: &MaxPoolLayer) -> Self {
        assert_eq!(self.dim(), layer.input_dim, "max-pool dimension mismatch");
        let lower = layer
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&i| self.lower[i])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let upper = layer
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&i| self.upper[i])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        Interval { lower, upper }
    }

    fn margin_lower_bound(&self, target: usize) -> f64 {
        assert!(target < self.dim(), "target class out of range");
        let mut worst = f64::INFINITY;
        for j in 0..self.dim() {
            if j != target {
                worst = crate::min_or_nan(worst, self.lower[target] - self.upper[j]);
            }
        }
        worst
    }

    fn is_poisoned(&self) -> bool {
        tensor::ops::has_nan(&self.lower) || tensor::ops::has_nan(&self.upper)
    }
}

impl ReluCoordOps for Interval {
    fn coord_bounds(&self, i: usize) -> (f64, f64) {
        (self.lower[i], self.upper[i])
    }

    fn project_zero(&mut self, i: usize) {
        self.lower[i] = 0.0;
        self.upper[i] = 0.0;
    }

    fn relax_relu_coord(&mut self, i: usize, lo: f64, _hi: f64) {
        debug_assert!(lo < 0.0, "relaxation is only for unstable coordinates");
        self.lower[i] = 0.0;
        // Upper bound is unchanged: relu(x) <= max(x, 0) = upper.
        self.upper[i] = self.upper[i].max(0.0);
    }

    fn meet_coord_nonneg(&self, i: usize) -> Option<Self> {
        if self.upper[i] < 0.0 {
            return None;
        }
        let mut out = self.clone();
        out.lower[i] = out.lower[i].max(0.0);
        Some(out)
    }

    fn meet_coord_nonpos(&self, i: usize) -> Option<Self> {
        if self.lower[i] > 0.0 {
            return None;
        }
        let mut out = self.clone();
        out.upper[i] = out.upper[i].min(0.0);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Matrix;

    /// `y0 - y1` is `∞ - ∞` while `y0 - y2` is `+∞`: the NaN term makes
    /// the margin NaN instead of being skipped by `f64::min`, although no
    /// bound is NaN.
    #[test]
    fn a_nan_class_term_makes_the_margin_nan() {
        let e = Interval::from_bounds(&Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        ));
        assert!(!e.is_poisoned());
        assert!(e.margin_lower_bound(0).is_nan());
        assert_eq!(e.margin_lower_bound(2), f64::NEG_INFINITY);
    }

    #[test]
    fn affine_interval_bounds() {
        let layer = AffineLayer::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.5]);
        let e = Interval::from_bounds(&Bounds::new(vec![0.0, 0.0], vec![1.0, 2.0]));
        let out = e.affine(&layer);
        assert_eq!(out.lower(), &[-1.5]);
        assert_eq!(out.upper(), &[1.5]);
    }

    #[test]
    fn relu_clamps_lower() {
        let e = Interval::from_bounds(&Bounds::new(vec![-3.0, 1.0], vec![-1.0, 2.0]));
        let r = e.relu();
        assert_eq!(r.lower(), &[0.0, 1.0]);
        assert_eq!(r.upper(), &[0.0, 2.0]);
    }

    #[test]
    fn maxpool_interval() {
        let layer = MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]]);
        let e = Interval::from_bounds(&Bounds::new(
            vec![0.0, -1.0, 2.0, 3.0],
            vec![1.0, 5.0, 4.0, 3.5],
        ));
        let out = e.max_pool(&layer);
        assert_eq!(out.lower(), &[0.0, 3.0]);
        assert_eq!(out.upper(), &[5.0, 4.0]);
    }

    #[test]
    fn margin_lower_bound_boxes() {
        let e = Interval::from_bounds(&Bounds::new(vec![2.0, 0.0, -1.0], vec![3.0, 1.0, 0.5]));
        // target 0: min(2 - 1, 2 - 0.5) = 1.0
        assert_eq!(e.margin_lower_bound(0), 1.0);
        // target 1: 0 - 3 = -3
        assert_eq!(e.margin_lower_bound(1), -3.0);
    }

    #[test]
    fn meet_nonneg_empty_when_fully_negative() {
        let e = Interval::from_bounds(&Bounds::new(vec![-2.0], vec![-1.0]));
        assert!(e.meet_coord_nonneg(0).is_none());
        assert!(e.meet_coord_nonpos(0).is_some());
    }

    proptest! {
        /// Soundness: propagating the XOR network's input box through the
        /// interval transformers over-approximates concrete execution.
        #[test]
        fn interval_propagation_is_sound(seed in 0u64..200) {
            let net = samples::xor_network();
            let region = Bounds::new(vec![0.2, 0.1], vec![0.9, 0.8]);
            let out = crate::propagate(&net, Interval::from_bounds(&region));
            let mut rng = StdRng::seed_from_u64(seed);
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            let b = out.bounds();
            for i in 0..y.len() {
                prop_assert!(y[i] >= b.lower()[i] - 1e-9);
                prop_assert!(y[i] <= b.upper()[i] + 1e-9);
            }
        }
    }
}
