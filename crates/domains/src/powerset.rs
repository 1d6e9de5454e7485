use nn::{AffineLayer, MaxPoolLayer};

use crate::{all_finite, project_nonpositive, AbstractElement, Bounds, ReluCoordOps, Workspace};

/// The bounded powerset domain: a disjunction of at most `budget` base
/// elements.
///
/// This implements the paper's "bounded powerset" domains (§2.3): the ReLU
/// transformer performs *case splitting* on unstable neurons — each
/// disjunct is intersected with `x_i >= 0` (identity case) and `x_i <= 0`
/// (projection-to-zero case) — for as long as the disjunct budget allows,
/// and falls back to the base domain's single-element ReLU relaxation for
/// the remaining unstable neurons.
///
/// Splitting targets the unstable neurons with the widest straddling range
/// first, which is where the relaxation would lose the most precision.
///
/// # Examples
///
/// ```
/// use domains::{propagate, AbstractElement, Bounds, Powerset, Zonotope};
/// use nn::samples;
///
/// // Example 2.3 of the paper: verified by powerset-of-zonotopes.
/// let net = samples::example_2_3_network();
/// let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// let element = Powerset::<Zonotope>::with_budget(&region, 2);
/// let out = propagate(&net, element);
/// assert!(out.margin_lower_bound(1) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Powerset<D> {
    disjuncts: Vec<D>,
    budget: usize,
}

impl<D: ReluCoordOps> Powerset<D> {
    /// Creates a powerset element abstracting `bounds` with the given
    /// disjunct budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn with_budget(bounds: &Bounds, budget: usize) -> Self {
        assert!(budget > 0, "disjunct budget must be positive");
        Powerset {
            disjuncts: vec![D::from_bounds(bounds)],
            budget,
        }
    }

    /// The current disjuncts.
    pub fn disjuncts(&self) -> &[D] {
        &self.disjuncts
    }

    /// The disjunct budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether the element holds its budget of disjuncts. Its ReLU can
    /// then no longer split, nor drop a disjunct, so it stays full and
    /// each disjunct evolves alone.
    pub(crate) fn is_full(&self) -> bool {
        self.disjuncts.len() == self.budget
    }

    /// The disjuncts, in element order.
    pub(crate) fn into_disjuncts(self) -> Vec<D> {
        self.disjuncts
    }

    /// `d` as a one-disjunct element with budget 1. Its ReLU is the
    /// no-split ReLU a full element runs on each disjunct
    /// ([`ReluCoordOps::relax_and_project`], with the same checks), so
    /// it evolves `d` bit for bit as a full element would.
    pub(crate) fn alone(d: D) -> Self {
        Powerset {
            disjuncts: vec![d],
            budget: 1,
        }
    }

    /// Collects the unstable coordinates `(i, lo, hi)` of the cached
    /// bounds into `out`, widest straddle first. Ties keep index order,
    /// and the in-place sort never allocates.
    fn split_order(lower: &[f64], upper: &[f64], out: &mut Vec<(usize, f64, f64)>) {
        out.clear();
        out.extend(
            lower
                .iter()
                .zip(upper.iter())
                .enumerate()
                .filter(|(_, (lo, hi))| **lo < 0.0 && **hi > 0.0)
                .map(|(i, (lo, hi))| (i, *lo, *hi)),
        );
        let straddle = |&(_, lo, hi): &(usize, f64, f64)| hi.min(-lo);
        out.sort_unstable_by(|a, b| straddle(b).total_cmp(&straddle(a)).then(a.0.cmp(&b.0)));
    }

    /// Walks `order` on a disjunct that may still split: the first
    /// coordinate whose meets are both non-empty splits `d` into two
    /// disjuncts pushed onto `current`. Returns `None` then, or when `d`
    /// turns out empty; otherwise `d` with every coordinate of `order`
    /// resolved.
    ///
    /// `lower`/`upper` hold the bounds of `d`. Resolving one coordinate
    /// leaves the others' bounds unchanged (the [`ReluCoordOps`] column
    /// contract); a one-sided meet may move every coordinate, so the
    /// bounds are recomputed after it.
    fn split_first(
        mut d: D,
        order: &[(usize, f64, f64)],
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
        current: &mut Vec<D>,
    ) -> Option<D> {
        for &(i, _, _) in order {
            let (lo, hi) = (lower[i], upper[i]);
            if hi <= 0.0 {
                d.project_zero(i);
                continue;
            }
            if lo >= 0.0 {
                continue;
            }
            // Case split: x_i <= 0 branch projects to zero, x_i >= 0
            // branch keeps the coordinate.
            let neg = d.meet_coord_nonpos(i).map(|mut m| {
                m.project_zero(i);
                m
            });
            let pos = d.meet_coord_nonneg(i);
            match (neg, pos) {
                (Some(n), Some(p)) => {
                    current.push(n);
                    current.push(p);
                    return None;
                }
                (Some(mut only), None) | (None, Some(mut only)) => {
                    // One side empty: finish this coordinate on the
                    // surviving branch and keep going.
                    let (l2, h2) = only.coord_bounds(i);
                    if h2 <= 0.0 {
                        only.project_zero(i);
                    } else if l2 < 0.0 {
                        only.relax_relu_coord(i, l2, h2);
                    }
                    d = only;
                    d.coord_bounds_into(lower, upper);
                }
                // Disjunct is empty; drop it.
                (None, None) => return None,
            }
        }
        Some(d)
    }

    /// The ReLU of every disjunct: [`AbstractElement::relu`], or with
    /// `checked` [`AbstractElement::relu_checked`].
    ///
    /// The check reads the bounds each disjunct's ReLU computes first.
    /// Finite bounds mean the disjunct holds no NaN, and relaxing and
    /// projecting it creates none ([`ReluCoordOps`], "Finite-bounds
    /// contract"). So only a disjunct of the input with a non-finite bound
    /// is scanned, and the output is scanned only when such a disjunct,
    /// or a meet of the split path, went into it.
    fn relu_disjuncts(self, checked: bool) -> Option<Self> {
        let dim = self.dim();
        let budget = self.budget;
        let mut current = self.disjuncts;
        // `current[..inputs]` are the input's disjuncts not yet popped;
        // the disjuncts of a split are pushed above them.
        let mut inputs = current.len();
        let mut scan_output = false;
        // Process each disjunct in place. Splitting is global across the
        // element: we stop splitting once the total number of disjuncts
        // reaches the budget.
        let mut result: Vec<D> = Vec::new();
        let (mut lower, mut upper) = (Vec::with_capacity(dim), Vec::with_capacity(dim));
        let mut order = Vec::with_capacity(dim);
        while let Some(mut d) = current.pop() {
            d.coord_bounds_into(&mut lower, &mut upper);
            if checked && !all_finite(&lower, &upper) {
                if current.len() < inputs && d.is_poisoned() {
                    return None;
                }
                scan_output = true;
            }
            inputs = inputs.min(current.len());
            Self::split_order(&lower, &upper, &mut order);
            let live = current.len() + result.len() + 1;
            if live < budget && !order.is_empty() {
                scan_output = true;
                match Self::split_first(d, &order, &mut lower, &mut upper, &mut current) {
                    Some(resolved) => d = resolved,
                    None => continue,
                }
                // All coordinates resolved. Project the non-positive
                // ones that were not in the unstable order (stable ones,
                // and those a one-sided meet made non-positive).
                d.coord_bounds_into(&mut lower, &mut upper);
                project_nonpositive(&mut d, &lower, &upper);
            } else {
                // No split is possible (or, with no unstable coordinate,
                // needed): relax every unstable coordinate, widest
                // straddle first as above, and project the non-positive
                // ones.
                d.relax_and_project(&order, &mut lower, &mut upper);
            }
            result.push(d);
        }
        assert!(!result.is_empty(), "powerset relu emptied all disjuncts");
        if checked && scan_output && result.iter().any(AbstractElement::is_poisoned) {
            return None;
        }
        Some(Powerset {
            disjuncts: result,
            budget,
        })
    }
}

impl<D: ReluCoordOps> AbstractElement for Powerset<D> {
    fn from_bounds(bounds: &Bounds) -> Self {
        // Default budget of 2 disjuncts; use `with_budget` to configure.
        Powerset::with_budget(bounds, 2)
    }

    fn dim(&self) -> usize {
        self.disjuncts.first().map_or(0, AbstractElement::dim)
    }

    fn bounds(&self) -> Bounds {
        let mut iter = self.disjuncts.iter().map(AbstractElement::bounds);
        let first = iter.next().expect("powerset is never empty");
        iter.fold(first, |acc, b| acc.join(&b))
    }

    fn affine(&self, layer: &AffineLayer) -> Self {
        Powerset {
            disjuncts: self.disjuncts.iter().map(|d| d.affine(layer)).collect(),
            budget: self.budget,
        }
    }

    fn affine_ws(&self, layer: &AffineLayer, wt: Option<&nn::Transposed>, ws: &mut Workspace) -> Self {
        Powerset {
            disjuncts: self
                .disjuncts
                .iter()
                .map(|d| d.affine_ws(layer, wt, ws))
                .collect(),
            budget: self.budget,
        }
    }

    fn recycle(self, ws: &mut Workspace) {
        for d in self.disjuncts {
            d.recycle(ws);
        }
    }

    fn relu(self) -> Self {
        self.relu_disjuncts(false)
            .expect("an unchecked ReLU always returns an element")
    }

    fn relu_checked(self) -> Option<Self> {
        self.relu_disjuncts(true)
    }

    fn max_pool(&self, layer: &MaxPoolLayer) -> Self {
        Powerset {
            disjuncts: self.disjuncts.iter().map(|d| d.max_pool(layer)).collect(),
            budget: self.budget,
        }
    }

    fn margin_lower_bound(&self, target: usize) -> f64 {
        self.disjuncts
            .iter()
            .map(|d| d.margin_lower_bound(target))
            .fold(f64::INFINITY, crate::min_or_nan)
    }

    fn is_poisoned(&self) -> bool {
        self.disjuncts.iter().any(|d| d.is_poisoned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{propagate, Interval, Zonotope};
    use nn::samples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_box(dim: usize) -> Bounds {
        Bounds::new(vec![0.0; dim], vec![1.0; dim])
    }

    /// A disjunct whose margin is NaN makes the powerset's margin NaN,
    /// instead of being skipped by the fold.
    #[test]
    fn a_nan_disjunct_margin_makes_the_margin_nan() {
        let region = Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        );
        for margin in [
            Powerset::<Interval>::with_budget(&region, 2).margin_lower_bound(0),
            Powerset::<Zonotope>::with_budget(&region, 2).margin_lower_bound(0),
        ] {
            assert!(margin.is_nan(), "margin {margin}");
        }
    }

    /// The same `∞ - ∞` lower bound in a disjunct survives the join of
    /// the disjuncts' bounds instead of being skipped or panicking.
    #[test]
    fn an_infinite_centre_and_radius_poison_the_joined_bounds() {
        let region = Bounds::new(vec![0.0, 1.0], vec![f64::INFINITY, 2.0]);
        let mut p = Powerset::<Zonotope>::with_budget(&region, 2);
        p.disjuncts.push(Zonotope::from_bounds(&Bounds::new(vec![-1.0, 1.0], vec![0.0, 2.0])));
        let b = p.bounds();
        assert!(b.has_nan());
        assert!(b.lower()[0].is_nan(), "{b:?}");
        assert_eq!((b.upper()[0], b.lower()[1], b.upper()[1]), (f64::INFINITY, 1.0, 2.0));
    }

    #[test]
    fn powerset_zonotope_verifies_example_2_3() {
        let net = samples::example_2_3_network();
        let element = Powerset::<Zonotope>::with_budget(&unit_box(2), 2);
        let out = propagate(&net, element);
        assert!(out.margin_lower_bound(1) > 0.0);
    }

    #[test]
    fn powerset_interval_tighter_than_plain_interval() {
        let net = samples::example_2_3_network();
        let plain = propagate(&net, Interval::from_bounds(&unit_box(2)));
        let split = propagate(&net, Powerset::<Interval>::with_budget(&unit_box(2), 8));
        assert!(split.margin_lower_bound(1) >= plain.margin_lower_bound(1));
    }

    #[test]
    fn budget_is_respected() {
        let net = nn::train::random_mlp(4, &[12, 12], 3, 9);
        let region = Bounds::linf_ball(&[0.1, -0.2, 0.3, 0.0], 0.5, None);
        for budget in [1, 2, 4] {
            let out = propagate(&net, Powerset::<Zonotope>::with_budget(&region, budget));
            assert!(
                out.disjuncts().len() <= budget,
                "{} disjuncts exceed budget {budget}",
                out.disjuncts().len()
            );
        }
    }

    #[test]
    fn budget_one_matches_base_domain() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let base = propagate(&net, Zonotope::from_bounds(&region));
        let ps = propagate(&net, Powerset::<Zonotope>::with_budget(&region, 1));
        assert_eq!(ps.disjuncts().len(), 1);
        assert!(
            (ps.margin_lower_bound(1) - base.margin_lower_bound(1)).abs() < 1e-12,
            "budget-1 powerset should degenerate to the base domain"
        );
    }

    proptest! {
        /// Soundness: powerset propagation over-approximates concrete
        /// execution on random networks, for both base domains.
        #[test]
        fn powerset_propagation_is_sound(seed in 0u64..30) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            let net = nn::train::random_mlp(3, &[6, 6], 3, seed);
            let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, 0.3, None);

            let zps = propagate(&net, Powerset::<Zonotope>::with_budget(&region, 4));
            let ips = propagate(&net, Powerset::<Interval>::with_budget(&region, 4));
            let zb = zps.bounds();
            let ib = ips.bounds();
            for _ in 0..25 {
                let x = region.sample(&mut rng);
                let y = net.eval(&x);
                for i in 0..y.len() {
                    prop_assert!(y[i] >= zb.lower()[i] - 1e-9 && y[i] <= zb.upper()[i] + 1e-9);
                    prop_assert!(y[i] >= ib.lower()[i] - 1e-9 && y[i] <= ib.upper()[i] + 1e-9);
                }
                for t in 0..3 {
                    prop_assert!(zps.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                    prop_assert!(ips.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                }
            }
        }
    }
}
