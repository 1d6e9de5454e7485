//! Bit-exact equivalence suite for the row-major ReLU transformers.
//!
//! `Zonotope::relu` and `Powerset::relu` rewrite every unstable column in
//! one bulk pass over the generator rows. The references below are the
//! per-coordinate forms they replace, written against the public
//! per-coordinate `ReluCoordOps` methods only: bounds re-read coordinate
//! by coordinate, one relaxation or projection at a time. The bulk forms
//! must produce the same disjuncts, the same generator rows in the same
//! order, and the same bits (compared with `to_bits`, not a tolerance),
//! for budgets 1, 2, 4 and 8 over both base domains, and over a test
//! domain whose meets move other coordinates (`OneSided`), which is the
//! case where the powerset must re-read its cached bounds.

mod common;

use common::{bits, ExactRepr};
use domains::{AbstractElement, Bounds, Interval, Powerset, ReluCoordOps, Zonotope};
use nn::{AffineLayer, Layer, Network};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

/// The per-coordinate `Zonotope::relu`: coordinates in index order,
/// bounds re-read before each one, zero generator rows pruned at the end.
fn reference_zonotope_relu(z: &Zonotope) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut out = z.clone();
    for i in 0..out.dim() {
        let (lo, hi) = out.coord_bounds(i);
        if hi <= 0.0 {
            out.project_zero(i);
        } else if lo < 0.0 {
            out.relax_relu_coord(i, lo, hi);
        }
    }
    let rows = out
        .generator_rows()
        .filter(|g| g.iter().any(|v| *v != 0.0))
        .map(bits)
        .collect();
    (bits(out.center()), rows)
}

/// Unstable coordinates of `d`, widest straddle first (stable sort, so
/// ties keep index order).
fn reference_split_order<D: ReluCoordOps>(d: &D) -> Vec<usize> {
    let mut unstable: Vec<(usize, f64)> = (0..d.dim())
        .filter_map(|i| {
            let (lo, hi) = d.coord_bounds(i);
            (lo < 0.0 && hi > 0.0).then(|| (i, hi.min(-lo)))
        })
        .collect();
    unstable.sort_by(|a, b| b.1.total_cmp(&a.1));
    unstable.into_iter().map(|(i, _)| i).collect()
}

/// The per-coordinate `Powerset::relu`: every disjunct is walked
/// coordinate by coordinate, splitting while the budget allows and
/// relaxing one coordinate at a time once it does not.
fn reference_powerset_relu<D: ReluCoordOps>(disjuncts: &[D], budget: usize) -> Vec<D> {
    let mut current = disjuncts.to_vec();
    let mut result: Vec<D> = Vec::new();
    while let Some(mut d) = current.pop() {
        let order = reference_split_order(&d);
        let mut split_done = false;
        for &i in &order {
            let (lo, hi) = d.coord_bounds(i);
            if hi <= 0.0 {
                d.project_zero(i);
                continue;
            }
            if lo >= 0.0 {
                continue;
            }
            let live = current.len() + result.len() + 1;
            if live < budget {
                let neg = d.meet_coord_nonpos(i).map(|mut m| {
                    m.project_zero(i);
                    m
                });
                let pos = d.meet_coord_nonneg(i);
                match (neg, pos) {
                    (Some(n), Some(p)) => {
                        current.push(n);
                        current.push(p);
                        split_done = true;
                        break;
                    }
                    (Some(mut only), None) | (None, Some(mut only)) => {
                        let (l2, h2) = only.coord_bounds(i);
                        if h2 <= 0.0 {
                            only.project_zero(i);
                        } else if l2 < 0.0 {
                            only.relax_relu_coord(i, l2, h2);
                        }
                        d = only;
                    }
                    (None, None) => {
                        split_done = true;
                        break;
                    }
                }
            } else {
                d.relax_relu_coord(i, lo, hi);
            }
        }
        if !split_done {
            for i in 0..d.dim() {
                let (lo, hi) = d.coord_bounds(i);
                if hi <= 0.0 && (lo != 0.0 || hi != 0.0) {
                    d.project_zero(i);
                }
            }
            result.push(d);
        }
    }
    result
}

/// A base domain whose meets move other coordinates, to drive the
/// powerset through one-sided meets that invalidate its cached bounds.
///
/// It is an interval whose `x_i >= 0` half is always reported empty,
/// while its `x_i <= 0` half also halves every other coordinate's width
/// from above, often making a later unstable coordinate non-positive.
/// Not a sound domain: it only has to behave the same under the bulk and
/// the per-coordinate ReLU.
#[derive(Debug, Clone)]
struct OneSided(Interval);

impl AbstractElement for OneSided {
    fn from_bounds(bounds: &Bounds) -> Self {
        OneSided(Interval::from_bounds(bounds))
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn bounds(&self) -> Bounds {
        self.0.bounds()
    }
    fn affine(&self, layer: &AffineLayer) -> Self {
        OneSided(self.0.affine(layer))
    }
    fn relu(self) -> Self {
        OneSided(self.0.relu())
    }
    fn max_pool(&self, layer: &nn::MaxPoolLayer) -> Self {
        OneSided(self.0.max_pool(layer))
    }
    fn margin_lower_bound(&self, target: usize) -> f64 {
        self.0.margin_lower_bound(target)
    }
}

impl ReluCoordOps for OneSided {
    fn coord_bounds(&self, i: usize) -> (f64, f64) {
        self.0.coord_bounds(i)
    }
    fn project_zero(&mut self, i: usize) {
        self.0.project_zero(i);
    }
    fn relax_relu_coord(&mut self, i: usize, lo: f64, hi: f64) {
        self.0.relax_relu_coord(i, lo, hi);
    }
    fn meet_coord_nonneg(&self, _i: usize) -> Option<Self> {
        None
    }
    fn meet_coord_nonpos(&self, i: usize) -> Option<Self> {
        let (lower, upper) = (self.0.lower(), self.0.upper());
        let upper = (0..self.dim())
            .map(|j| {
                if j == i {
                    upper[j].min(0.0)
                } else {
                    lower[j] + 0.5 * (upper[j] - lower[j])
                }
            })
            .collect();
        Some(OneSided(Interval::from_bounds(&Bounds::new(
            lower.to_vec(),
            upper,
        ))))
    }
}

impl ExactRepr for OneSided {
    fn repr(&self) -> Vec<u64> {
        self.0.repr()
    }
}

/// Propagates `Powerset<D>` through `net` and checks every ReLU layer
/// against the per-coordinate reference on the same input. Returns how
/// many ReLU layers produced more disjuncts than they received.
fn check_powerset<D: ReluCoordOps + ExactRepr>(
    net: &Network,
    region: &Bounds,
    budget: usize,
) -> usize {
    let mut element = Powerset::<D>::with_budget(region, budget);
    let mut splits = 0;
    for (k, layer) in net.layers().iter().enumerate() {
        element = match layer {
            Layer::Affine(a) => element.affine(a),
            Layer::MaxPool(p) => element.max_pool(p),
            Layer::Relu => {
                let expected = reference_powerset_relu(element.disjuncts(), budget);
                let before = element.disjuncts().len();
                let got = element.relu();
                assert_eq!(
                    got.disjuncts().len(),
                    expected.len(),
                    "layer {k}, budget {budget}: disjunct count"
                );
                for (j, (g, e)) in got.disjuncts().iter().zip(expected.iter()).enumerate() {
                    assert!(
                        g.repr() == e.repr(),
                        "layer {k}, budget {budget}, disjunct {j}: bits differ"
                    );
                }
                splits += usize::from(got.disjuncts().len() > before);
                got
            }
        };
    }
    splits
}

/// Propagates a plain zonotope through `net`, checking every ReLU layer
/// against the per-coordinate reference.
fn check_zonotope(net: &Network, region: &Bounds) {
    let mut z = Zonotope::from_bounds(region);
    for (k, layer) in net.layers().iter().enumerate() {
        z = match layer {
            Layer::Affine(a) => z.affine(a),
            Layer::MaxPool(p) => z.max_pool(p),
            Layer::Relu => {
                let (center, rows) = reference_zonotope_relu(&z);
                let got = z.relu();
                assert_eq!(bits(got.center()), center, "layer {k}: centre bits");
                assert_eq!(got.num_generators(), rows.len(), "layer {k}: row count");
                for (r, (g, e)) in got.generator_rows().zip(rows.iter()).enumerate() {
                    assert_eq!(&bits(g), e, "layer {k}: generator row {r}");
                }
                got
            }
        };
    }
}

fn random_case(seed: u64, widths: &[usize], eps: f64) -> (Network, Bounds) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let input = 2 + (seed % 4) as usize;
    let net = nn::train::random_mlp(input, widths, 3, seed);
    let center: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (net, Bounds::linf_ball(&center, eps, None))
}

proptest! {
    /// Random MLPs, narrow to wide regions: the plain zonotope and the
    /// powerset over both base domains at every budget match the
    /// per-coordinate references bit for bit.
    #[test]
    fn relu_matches_per_coordinate_reference(
        seed in 0u64..10_000,
        w1 in 3usize..24,
        w2 in 3usize..24,
        eps_idx in 0usize..4,
    ) {
        let eps = [0.02, 0.1, 0.3, 1.0][eps_idx];
        let (net, region) = random_case(seed, &[w1, w2, 8], eps);
        check_zonotope(&net, &region);
        for budget in [1, 2, 4, 8] {
            check_powerset::<Zonotope>(&net, &region, budget);
            check_powerset::<Interval>(&net, &region, budget);
            check_powerset::<OneSided>(&net, &region, budget);
        }
    }
}

/// The suite must exercise splitting, not only the bulk relaxation: on a
/// fixed wide case, budgets above one split at some ReLU layer.
#[test]
fn budgets_above_one_split() {
    let (net, region) = random_case(3, &[16, 16, 8], 0.5);
    check_zonotope(&net, &region);
    assert_eq!(check_powerset::<Zonotope>(&net, &region, 1), 0);
    for budget in [2, 4, 8] {
        assert!(check_powerset::<Zonotope>(&net, &region, budget) > 0);
        assert!(check_powerset::<Interval>(&net, &region, budget) > 0);
    }
}

/// `ulp` of 3.0: the spacing of doubles in [2, 4).
const U: f64 = f64::EPSILON * 2.0;

/// An affine layer over a 13-dimensional unit box `[-1, 1]^13` whose
/// outputs force the powerset through its one-sided-meet path.
///
/// Outputs 0 and 1 are `3·x0 + 0.75u·(x1 + … + x12) - (3 + 11u)`. The
/// radius sum rounds up at each of its twelve tiny terms, so the
/// coordinate reads as unstable (upper bound `u`), while the half-space
/// meet `x >= 0`, which sums the tiny terms exactly, finds it empty:
/// only the `x <= 0` branch survives. Output 2 is unstable with a
/// straddle below `u`, so it is split on after both one-sided meets.
/// Outputs 3 and 4 are stable (positive and negative).
fn one_sided_layer() -> AffineLayer {
    let tiny = 0.75 * U;
    let mut rows = Vec::new();
    for _ in 0..2 {
        let mut row = vec![3.0];
        row.extend(std::iter::repeat_n(tiny, 12));
        rows.push(row);
    }
    let mut split = vec![0.0; 13];
    split[0] = 1.0 + f64::EPSILON;
    rows.push(split);
    let mut pos = vec![0.0; 13];
    pos[1] = 0.5;
    rows.push(pos.clone());
    rows.push(pos);
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let bias = vec![-(3.0 + 11.0 * U), -(3.0 + 11.0 * U), -1.0, 2.0, -2.0];
    AffineLayer::new(Matrix::from_rows(&refs), bias)
}

#[test]
fn one_sided_meets_match_the_reference() {
    let region = Bounds::new(vec![-1.0; 13], vec![1.0; 13]);
    let layer = one_sided_layer();
    let z = Zonotope::from_bounds(&region).affine(&layer);

    // The construction does what it claims: coordinate 0 is unstable by
    // its bounds, yet only its non-positive half-space is non-empty.
    let (lo, hi) = z.coord_bounds(0);
    assert!(lo < 0.0 && hi > 0.0, "coordinate 0 must read as unstable");
    assert!(z.meet_coord_nonneg(0).is_none());
    assert!(z.meet_coord_nonpos(0).is_some());
    let (lo, hi) = z.coord_bounds(2);
    assert!(lo < 0.0 && hi > 0.0 && hi < U);

    // A second layer maps the ReLU output back to straddling values, so
    // the next ReLU relaxes and splits the surviving disjuncts again.
    let back = AffineLayer::new(
        Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.25 }),
        vec![-0.5; 5],
    );
    let net = Network::new(
        13,
        vec![
            Layer::Affine(layer),
            Layer::Relu,
            Layer::Affine(back),
            Layer::Relu,
        ],
    )
    .expect("shapes are consistent");
    check_zonotope(&net, &region);
    for budget in [1, 2, 4, 8] {
        check_powerset::<Zonotope>(&net, &region, budget);
        check_powerset::<Interval>(&net, &region, budget);
        check_powerset::<OneSided>(&net, &region, budget);
    }
}

/// Stable-negative coordinates are projected with exact zero writes, and
/// a region on which nothing straddles leaves the powerset unsplit.
#[test]
fn stable_layers_match_the_reference() {
    let region = Bounds::new(vec![1.0, -3.0, 0.0], vec![2.0, -1.0, 0.0]);
    let net = Network::new(3, vec![Layer::Relu]).expect("shapes are consistent");
    check_zonotope(&net, &region);
    for budget in [1, 2, 4, 8] {
        assert_eq!(check_powerset::<Zonotope>(&net, &region, budget), 0);
        assert_eq!(check_powerset::<Interval>(&net, &region, budget), 0);
    }
}

/// The default `ReluCoordOps::relax_and_project`, which the zonotope's
/// fused pass replaces: the relaxations one coordinate at a time, a second
/// bounds pass, then one projection per non-positive coordinate.
fn reference_relax_and_project(z: &mut Zonotope, order: &[(usize, f64, f64)]) {
    for &(i, lo, hi) in order {
        z.relax_relu_coord(i, lo, hi);
    }
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    z.coord_bounds_into(&mut lower, &mut upper);
    for i in 0..z.dim() {
        if upper[i] <= 0.0 && (lower[i] != 0.0 || upper[i] != 0.0) {
            z.project_zero(i);
        }
    }
}

/// Runs the fused step and the reference on copies of `z` and compares
/// the results bit for bit.
fn check_relax_and_project(z: &Zonotope, order: &[(usize, f64, f64)]) {
    let mut expected = z.clone();
    reference_relax_and_project(&mut expected, order);
    let mut got = z.clone();
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    got.coord_bounds_into(&mut lower, &mut upper);
    got.relax_and_project(order, &mut lower, &mut upper);
    assert_eq!(got.repr(), expected.repr(), "order {order:?}");
}

/// A zonotope of dimension `dim` with `gens` generator rows, drawn from
/// `rng`: an affine image of a box, with some all-zero columns (constant
/// coordinates, some of them exactly zero) and some tiny entries.
fn random_zonotope(rng: &mut StdRng, dim: usize, gens: usize) -> Zonotope {
    let region = Bounds::new(vec![-1.0; gens], vec![1.0; gens]);
    let zero_column: Vec<bool> = (0..dim).map(|_| rng.gen_bool(0.2)).collect();
    let weights = Matrix::from_fn(dim, gens, |r, _| {
        if zero_column[r] || rng.gen_bool(0.1) {
            0.0
        } else if rng.gen_bool(0.1) {
            rng.gen_range(-1e-300..1e-300)
        } else {
            rng.gen_range(-1.0..1.0)
        }
    });
    let bias = (0..dim)
        .map(|r| match rng.gen_range(0..4) {
            0 if zero_column[r] => 0.0,
            1 => -rng.gen_range(0.0..3.0),
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect();
    Zonotope::from_bounds(&region).affine(&AffineLayer::new(weights, bias))
}

/// The unstable coordinates of `z` with their bounds, in a random order.
fn shuffled_unstable(rng: &mut StdRng, z: &Zonotope) -> Vec<(usize, f64, f64)> {
    let mut order: Vec<(usize, f64, f64)> = (0..z.dim())
        .filter_map(|i| {
            let (lo, hi) = z.coord_bounds(i);
            (lo < 0.0 && hi > 0.0).then_some((i, lo, hi))
        })
        .collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.gen_range(0..=k));
    }
    order
}

proptest! {
    /// The zonotope's fused relax-and-project pass matches the default
    /// sequence bit for bit on random zonotopes and random relaxation
    /// orders.
    #[test]
    fn fused_relax_and_project_matches_the_default(
        seed in 0u64..10_000,
        dim in 1usize..24,
        gens in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let z = random_zonotope(&mut rng, dim, gens);
        let order = shuffled_unstable(&mut rng, &z);
        check_relax_and_project(&z, &order);
        // The same element with no unstable coordinate to relax: the
        // pass only projects.
        check_relax_and_project(&z, &[]);
    }
}

/// Relaxation bounds far wider than a column's own bounds drive the rare
/// branches: a relaxed column that comes out non-positive, which must be
/// projected after the relaxation, one that stays positive only by its
/// fresh row, and a λ that underflows to zero, which turns every entry of
/// the column into a signed zero.
#[test]
fn fused_relax_and_project_matches_on_constructed_columns() {
    // Column 0 lies in [-5, -3], so relaxing it with (-1, 1) gives
    // λ = 0.5 and upper bound 0.5·(-4 + 1) + 0.25 + 0.25 = -1: it must be
    // projected after the relaxation. Relaxing it with (-4, 1) instead
    // gives λ = 0.2, μ = 0.4 and upper bound 0.2·(-4 + 1) + 0.4 + 0.4 =
    // 0.2, positive only by the fresh row's |μ|. With (-1, 0.1), λ = 1/11
    // and the upper bound is λ·(-3 + 1) < 0, though the column's unscaled
    // radius would make it positive. Column 1 straddles zero
    // and gets λ = 1e-300 / (1e-300 + 1e300), which underflows to 0, so
    // its entries become +0.0 or -0.0 by their sign. Column 2 is stable
    // negative and projected by its entry bounds; column 3 is a constant
    // exactly zero and left alone.
    let layer = AffineLayer::new(
        Matrix::from_rows(&[&[1.0, 0.0], &[-0.5, 0.25], &[0.5, 0.5], &[0.0, 0.0]]),
        vec![-4.0, 0.1, -2.0, 0.0],
    );
    let z = Zonotope::from_bounds(&Bounds::new(vec![-1.0; 2], vec![1.0; 2])).affine(&layer);
    let relaxed = (0, -1.0, 1.0);
    let kept = (0, -4.0, 1.0);
    let narrow = (0, -1.0, 0.1);
    let underflow = (1, -1e300, 1e-300);
    assert_eq!(1e-300 / (1e-300 - -1e300), 0.0, "λ must underflow");
    for order in [
        vec![relaxed],
        vec![kept],
        vec![narrow],
        vec![underflow],
        vec![relaxed, underflow],
        vec![underflow, kept],
    ] {
        check_relax_and_project(&z, &order);
    }

    // Each case really takes its branch: the column is projected after
    // the relaxation with (-1, 1) and (-1, 0.1), stays positive with
    // (-4, 1), and the underflowing λ leaves signed zeros.
    for (relaxation, kept_positive) in [(relaxed, false), (narrow, false), (kept, true)] {
        let mut out = z.clone();
        reference_relax_and_project(&mut out, &[relaxation]);
        assert_eq!(out.coord_bounds(0).1 > 0.0, kept_positive, "{relaxation:?}");
    }
    let mut zeroed = z.clone();
    reference_relax_and_project(&mut zeroed, &[underflow]);
    let column: Vec<f64> = zeroed.generator_rows().map(|g| g[1]).collect();
    assert!(column.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
    assert!(column.iter().any(|v| v.to_bits() == 0));
}
