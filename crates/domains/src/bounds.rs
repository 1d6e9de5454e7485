use rand::Rng;

/// An axis-aligned box `[lower_1, upper_1] x ... x [lower_n, upper_n]`.
///
/// Boxes describe the input regions of robustness properties and the
/// concretization bounds of abstract elements.
///
/// # Examples
///
/// ```
/// use domains::Bounds;
///
/// let b = Bounds::new(vec![0.0, 0.0], vec![1.0, 2.0]);
/// assert_eq!(b.dim(), 2);
/// assert_eq!(b.center(), vec![0.5, 1.0]);
/// assert_eq!(b.widths(), vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Creates a box from per-dimension lower and upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or if some
    /// `lower[i] > upper[i]`.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        for (l, u) in lower.iter().zip(upper.iter()) {
            assert!(l <= u, "lower bound {l} exceeds upper bound {u}");
        }
        Bounds { lower, upper }
    }

    /// Creates the degenerate box containing exactly `point`.
    pub fn point(point: &[f64]) -> Self {
        Bounds {
            lower: point.to_vec(),
            upper: point.to_vec(),
        }
    }

    /// Creates the L∞ ball of radius `eps` around `center`, optionally
    /// clipped to `[clip_lo, clip_hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `eps < 0`.
    pub fn linf_ball(center: &[f64], eps: f64, clip: Option<(f64, f64)>) -> Self {
        assert!(eps >= 0.0, "radius must be non-negative");
        let (lo, hi) = clip.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
        let lower = center.iter().map(|c| (c - eps).max(lo)).collect();
        let upper = center.iter().map(|c| (c + eps).min(hi)).collect();
        Bounds::new(lower, upper)
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Per-dimension lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Per-dimension upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// The center point of the box.
    pub fn center(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| 0.5 * (l + u))
            .collect()
    }

    /// Per-dimension widths `upper - lower`.
    pub fn widths(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| u - l)
            .collect()
    }

    /// The L2 diameter of the box (Definition 5.1): the distance between
    /// opposite corners.
    pub fn diameter(&self) -> f64 {
        self.widths().iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Mean width across dimensions (a featurization input in §6).
    pub fn mean_width(&self) -> f64 {
        if self.dim() == 0 {
            return 0.0;
        }
        self.widths().iter().sum::<f64>() / self.dim() as f64
    }

    /// Index of the widest dimension. Ties resolve to the lowest index.
    ///
    /// # Panics
    ///
    /// Panics if the box is zero-dimensional.
    pub fn longest_dim(&self) -> usize {
        tensor::ops::argmax(&self.widths())
    }

    /// Whether any bound is NaN.
    ///
    /// NaN bounds cannot arise through [`Bounds::new`] (the order check
    /// rejects them), but they can slip in through [`Bounds::point`] or
    /// arithmetic on already-poisoned data; such a box poisons every
    /// comparison made against it.
    pub fn has_nan(&self) -> bool {
        self.lower.iter().chain(self.upper.iter()).any(|v| v.is_nan())
    }

    /// Whether every bound is finite (no NaN, no ±∞).
    pub fn is_finite(&self) -> bool {
        self.lower
            .iter()
            .chain(self.upper.iter())
            .all(|v| v.is_finite())
    }

    /// Whether `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.lower.iter().zip(self.upper.iter()))
                .all(|(v, (l, u))| *v >= *l && *v <= *u)
    }

    /// Splits the box into two along dimension `dim` at position `at`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `at` is outside the open
    /// interval `(lower[dim], upper[dim])`.
    pub fn split_at(&self, dim: usize, at: f64) -> (Bounds, Bounds) {
        assert!(dim < self.dim(), "split dimension out of range");
        assert!(
            at > self.lower[dim] && at < self.upper[dim],
            "split point {at} not strictly inside [{}, {}]",
            self.lower[dim],
            self.upper[dim]
        );
        let mut left = self.clone();
        let mut right = self.clone();
        left.upper[dim] = at;
        right.lower[dim] = at;
        (left, right)
    }

    /// Splits the box in half along its widest dimension.
    ///
    /// # Panics
    ///
    /// Panics if every dimension has zero width.
    pub fn bisect(&self) -> (Bounds, Bounds) {
        let dim = self.longest_dim();
        let mid = 0.5 * (self.lower[dim] + self.upper[dim]);
        self.split_at(dim, mid)
    }

    /// Samples a uniform point inside the box.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| if l == u { *l } else { rng.gen_range(*l..=*u) })
            .collect()
    }

    /// Clamps `x` into the box in place.
    pub fn clamp(&self, x: &mut [f64]) {
        tensor::ops::clamp_box(x, &self.lower, &self.upper);
    }

    /// The smallest box containing both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn join(&self, other: &Bounds) -> Bounds {
        assert_eq!(self.dim(), other.dim(), "join dimension mismatch");
        Bounds {
            lower: self
                .lower
                .iter()
                .zip(other.lower.iter())
                .map(|(a, b)| a.min(*b))
                .collect(),
            upper: self
                .upper
                .iter()
                .zip(other.upper.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diameter_is_corner_distance() {
        let b = Bounds::new(vec![0.0, 0.0], vec![3.0, 4.0]);
        assert_eq!(b.diameter(), 5.0);
    }

    #[test]
    fn linf_ball_with_clip() {
        let b = Bounds::linf_ball(&[0.9, 0.1], 0.2, Some((0.0, 1.0)));
        let expect_lo = [0.7, 0.0];
        let expect_hi = [1.0, 0.30000000000000004];
        for i in 0..2 {
            assert!((b.lower()[i] - expect_lo[i]).abs() < 1e-12);
            assert!((b.upper()[i] - expect_hi[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn split_partitions_box() {
        let b = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let (l, r) = b.split_at(0, 0.25);
        assert_eq!(l.upper()[0], 0.25);
        assert_eq!(r.lower()[0], 0.25);
        assert_eq!(l.lower()[1], 0.0);
        assert_eq!(r.upper()[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "not strictly inside")]
    fn split_at_boundary_panics() {
        Bounds::new(vec![0.0], vec![1.0]).split_at(0, 1.0);
    }

    #[test]
    fn bisect_halves_widest() {
        let b = Bounds::new(vec![0.0, 0.0], vec![1.0, 4.0]);
        let (l, r) = b.bisect();
        assert_eq!(l.upper()[1], 2.0);
        assert_eq!(r.lower()[1], 2.0);
    }

    #[test]
    fn contains_boundary_points() {
        let b = Bounds::new(vec![0.0], vec![1.0]);
        assert!(b.contains(&[0.0]));
        assert!(b.contains(&[1.0]));
        assert!(!b.contains(&[1.0001]));
        assert!(!b.contains(&[0.5, 0.5]));
    }

    #[test]
    fn join_covers_both() {
        let a = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Bounds::new(vec![-1.0, 0.5], vec![0.5, 2.0]);
        let j = a.join(&b);
        assert_eq!(j, Bounds::new(vec![-1.0, 0.0], vec![1.0, 2.0]));
    }

    proptest! {
        #[test]
        fn samples_lie_inside(seed in 0u64..100) {
            let b = Bounds::new(vec![-2.0, 1.0, 0.0], vec![-1.0, 4.0, 0.0]);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = b.sample(&mut rng);
            prop_assert!(b.contains(&x));
        }

        #[test]
        fn bisect_shrinks_diameter(
            lo in proptest::collection::vec(-5.0f64..0.0, 3),
            w in proptest::collection::vec(0.1f64..5.0, 3),
        ) {
            let hi: Vec<f64> = lo.iter().zip(w.iter()).map(|(l, w)| l + w).collect();
            let b = Bounds::new(lo, hi);
            let (l, r) = b.bisect();
            // Assumption 1 of the paper: both halves strictly smaller.
            prop_assert!(l.diameter() < b.diameter());
            prop_assert!(r.diameter() < b.diameter());
        }
    }
}
