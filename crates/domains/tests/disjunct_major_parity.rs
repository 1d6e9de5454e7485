//! Parity of the disjunct-major powerset analysis.
//!
//! `analyze_margin_checked_ws` propagates a powerset layer by layer until
//! it holds its budget of disjuncts, then finishes the disjuncts one at a
//! time and stops at the first that does not prove the margin. The
//! reference is the layer-major analysis: `propagate_checked_ws` on the
//! whole element, then its `margin_lower_bound`. On every input:
//!
//! * a proved reference gives `Proved` with the same margin bits;
//! * an inconclusive reference gives `Inconclusive` with a margin ≤ 0
//!   and at least the reference's;
//! * a poisoned reference gives `Poisoned`, or `Inconclusive` when a
//!   disjunct with no NaN finished with a margin ≤ 0 before the poisoned
//!   one ran.
//!
//! The networks get NaN, ±∞ and overflow-sized weights and biases, and
//! the regions infinite bounds, for (I, 2), (Z, 2) and (Z, 3).

use domains::{
    analyze_margin_checked_ws, propagate, propagate_checked_ws, AbstractElement, AnalysisOutcome,
    BaseDomain, Bounds, DomainChoice, Interval, Powerset, ReluCoordOps, Workspace, Zonotope,
};
use nn::{AffineLayer, Layer, Network};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

/// How one comparison ended, for the sweep's coverage count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Proved,
    Inconclusive,
    Poisoned,
    /// The reference poisoned, the disjunct-major analysis stopped first.
    StoppedBeforePoison,
}

/// The layer-major analysis the disjunct-major one replaces.
fn reference<D: ReluCoordOps>(
    net: &Network,
    region: &Bounds,
    target: usize,
    budget: usize,
    ws: &mut Workspace,
) -> (AnalysisOutcome, f64) {
    if region.has_nan() {
        return (AnalysisOutcome::Poisoned, f64::NAN);
    }
    match propagate_checked_ws(net, Powerset::<D>::with_budget(region, budget), ws) {
        None => (AnalysisOutcome::Poisoned, f64::NAN),
        Some(e) => {
            let margin = e.margin_lower_bound(target);
            if margin.is_nan() {
                (AnalysisOutcome::Poisoned, f64::NAN)
            } else if margin > 0.0 {
                (AnalysisOutcome::Proved, margin)
            } else {
                (AnalysisOutcome::Inconclusive, margin)
            }
        }
    }
}

/// Runs both analyses of `(base, budget)` and asserts the parity
/// contract of the module docs.
fn check<D: ReluCoordOps>(
    net: &Network,
    region: &Bounds,
    target: usize,
    budget: usize,
    base: BaseDomain,
    ws: &mut Workspace,
) -> Case {
    let (expected, reference_margin) = reference::<D>(net, region, target, budget, ws);
    let choice = DomainChoice::powerset(base, budget);
    let (got, margin) = analyze_margin_checked_ws(net, region, target, choice, ws);
    assert!(ws.layer_seconds().len() <= net.layers().len());
    match (expected, got) {
        (AnalysisOutcome::Proved, AnalysisOutcome::Proved) => {
            assert_eq!(margin.to_bits(), reference_margin.to_bits(), "{choice}: proved margin");
            Case::Proved
        }
        (AnalysisOutcome::Inconclusive, AnalysisOutcome::Inconclusive) => {
            assert!(
                margin <= 0.0 && margin >= reference_margin,
                "{choice}: margin {margin}, reference {reference_margin}"
            );
            Case::Inconclusive
        }
        (AnalysisOutcome::Poisoned, AnalysisOutcome::Poisoned) => {
            assert!(margin.is_nan(), "{choice}: poisoned margin {margin}");
            Case::Poisoned
        }
        (AnalysisOutcome::Poisoned, AnalysisOutcome::Inconclusive) => {
            // A disjunct without NaN must have finished with this margin:
            // the unchecked propagation computes the same bits for it.
            assert!(margin <= 0.0, "{choice}: margin {margin}");
            let all = propagate(net, Powerset::<D>::with_budget(region, budget));
            assert!(
                all.disjuncts().iter().any(|d| !d.is_poisoned()
                    && d.margin_lower_bound(target).to_bits() == margin.to_bits()),
                "{choice}: no clean disjunct ends with margin {margin}"
            );
            Case::StoppedBeforePoison
        }
        (expected, got) => panic!("{choice}: reference {expected:?}, disjunct-major {got:?}"),
    }
}

/// Checks (I, 2), (Z, 2) and (Z, 3).
fn check_all(net: &Network, region: &Bounds, target: usize, ws: &mut Workspace) -> [Case; 3] {
    [
        check::<Interval>(net, region, target, 2, BaseDomain::Interval, ws),
        check::<Zonotope>(net, region, target, 2, BaseDomain::Zonotope, ws),
        check::<Zonotope>(net, region, target, 3, BaseDomain::Zonotope, ws),
    ]
}

const BAD: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e200,
    -1e200,
    1e308,
];

/// Writes a value of `BAD` into `count` random weights or biases of the
/// affine layers of `net`.
fn inject(net: &Network, rng: &mut StdRng, count: usize) -> Network {
    let mut layers = net.layers().to_vec();
    let affine: Vec<usize> = (0..layers.len())
        .filter(|&k| matches!(layers[k], Layer::Affine(_)))
        .collect();
    for _ in 0..count {
        let k = affine[rng.gen_range(0..affine.len())];
        let value = BAD[rng.gen_range(0..BAD.len())];
        if let Layer::Affine(a) = &mut layers[k] {
            if rng.gen_bool(0.2) {
                let r = rng.gen_range(0..a.bias.len());
                a.bias[r] = value;
            } else {
                let w = a.weights.as_mut_slice();
                let at = rng.gen_range(0..w.len());
                w[at] = value;
            }
        }
    }
    Network::new(net.input_dim(), layers).expect("injection keeps the shapes")
}

/// One parity case: a random MLP, with or without injected values, on a
/// region around a random centre (one upper bound +∞ for some seeds),
/// for the class the clean network gives the centre. Returns how each
/// domain ended.
fn parity_case(seed: u64, ws: &mut Workspace) -> [Case; 3] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd15c);
    let input = rng.gen_range(2..6);
    let widths: Vec<usize> = (0..rng.gen_range(1..5))
        .map(|_| rng.gen_range(3..16))
        .collect();
    let net = nn::train::random_mlp(input, &widths, 3, seed);
    let center: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let target = net.classify(&center);
    let injections = [0, 0, 1, 2, 4][(seed % 5) as usize];
    let net = if injections > 0 {
        inject(&net, &mut rng, injections)
    } else {
        net
    };
    let eps = [0.02, 0.1, 0.3, 1.0][rng.gen_range(0..4)];
    let ball = Bounds::linf_ball(&center, eps, None);
    let region = if seed.is_multiple_of(7) {
        let mut upper = ball.upper().to_vec();
        upper[rng.gen_range(0..input)] = f64::INFINITY;
        Bounds::new(ball.lower().to_vec(), upper)
    } else {
        ball
    };
    check_all(&net, &region, target, ws)
}

proptest! {
    /// Random networks, clean and injected, random regions: the
    /// disjunct-major analysis keeps the layer-major outcome and every
    /// proved margin's bits.
    #[test]
    fn disjunct_major_matches_the_layer_major_reference(seed in 0u64..100_000) {
        parity_case(seed, &mut Workspace::new());
    }
}

/// The suite must see proved, inconclusive and poisoned results for every
/// domain, or it proves nothing.
#[test]
fn the_sweep_sees_every_outcome() {
    let mut ws = Workspace::new();
    let mut seen = [[0usize; 3]; 3];
    for seed in 0..300 {
        for (counts, case) in seen.iter_mut().zip(parity_case(seed, &mut ws)) {
            match case {
                Case::Proved => counts[0] += 1,
                Case::Inconclusive => counts[1] += 1,
                Case::Poisoned | Case::StoppedBeforePoison => counts[2] += 1,
            }
        }
    }
    for counts in seen {
        assert!(counts.iter().all(|&c| c >= 10), "proved, inconclusive, poisoned: {seen:?}");
    }
}

/// `h = relu(x, -x)` on one input, then `y = W h` for the given 2×2
/// `W`, then `z = (10 · y0, y1)`, then the identity on `z`.
fn split_then_scale(w: [f64; 4]) -> Network {
    let dense = |rows: usize, cols: usize, w: &[f64]| {
        Layer::Affine(AffineLayer::new(
            Matrix::from_fn(rows, cols, |r, c| w[r * cols + c]),
            vec![0.0; rows],
        ))
    };
    Network::new(
        1,
        vec![
            dense(2, 1, &[1.0, -1.0]),
            Layer::Relu,
            dense(2, 2, &w),
            dense(2, 2, &[10.0, 0.0, 0.0, 1.0]),
            dense(2, 2, &[1.0, 0.0, 0.0, 1.0]),
        ],
    )
    .expect("shapes are consistent")
}

/// The directed case of the contract change: a later disjunct that would
/// overflow to NaN no longer makes the result `Poisoned` once an earlier
/// one has failed.
///
/// On `x ∈ [-1, 1]`, the ReLU of `h = relu(x, -x)` splits on `h0`, which
/// fills the (Z, 2) element: its first disjunct is the `x ≥ 0` branch,
/// `h = (x, 0)`, and its second the `x ≤ 0` branch, `h = (0, -x)`. The
/// output is `(10 · 1e308 · h1, h0)`. On the first disjunct that is
/// `(0, x)`, a margin of exactly -1 for class 0. On the second,
/// `10 · 1e308` overflows to +∞, and the identity layer's `0 · ∞` turns
/// the element NaN. Layer-major propagation reaches the NaN and reports
/// `Poisoned`; the disjunct-major analysis stops at the first disjunct.
#[test]
fn an_earlier_failing_disjunct_stops_before_a_later_poisoned_one() {
    let net = split_then_scale([0.0, 1e308, 1.0, 0.0]);
    let region = Bounds::new(vec![-1.0], vec![1.0]);
    let mut ws = Workspace::new();

    let layer_major =
        propagate_checked_ws(&net, Powerset::<Zonotope>::with_budget(&region, 2), &mut ws);
    assert!(layer_major.is_none(), "the layer-major propagation must poison");
    let all = propagate(&net, Powerset::<Zonotope>::with_budget(&region, 2));
    assert_eq!(all.disjuncts().len(), 2);
    assert_eq!(all.disjuncts().iter().filter(|d| d.is_poisoned()).count(), 1);

    let choice = DomainChoice::powerset(BaseDomain::Zonotope, 2);
    let (outcome, margin) = analyze_margin_checked_ws(&net, &region, 0, choice, &mut ws);
    assert_eq!(outcome, AnalysisOutcome::Inconclusive);
    assert_eq!(margin, -1.0);
    assert_eq!(ws.layer_seconds().len(), net.layers().len());
    assert_eq!(check_all(&net, &region, 0, &mut ws)[1], Case::StoppedBeforePoison);
}

/// With the overflow on `h0` instead, the first disjunct is the poisoned
/// one: the analysis reports `Poisoned`, as the layer-major one does,
/// because no disjunct has failed before it.
#[test]
fn a_poisoned_first_disjunct_still_poisons() {
    let net = split_then_scale([1e308, 0.0, 0.0, 1.0]);
    let region = Bounds::new(vec![-1.0], vec![1.0]);
    let choice = DomainChoice::powerset(BaseDomain::Zonotope, 2);
    let (outcome, margin) = analyze_margin_checked_ws(&net, &region, 0, choice, &mut Workspace::new());
    assert_eq!(outcome, AnalysisOutcome::Poisoned);
    assert!(margin.is_nan());
}
