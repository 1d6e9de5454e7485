//! Poison parity of the checked propagation.
//!
//! `propagate_checked_ws` checks each intermediate element once: a ReLU
//! checks its own input and output (`relu_checked`, which the zonotope
//! and the powerset read off the bounds they compute anyway), and every
//! other element is scanned after the layer that made it unless a ReLU
//! follows. The reference below is the loop that scans after every layer.
//! Both must agree on every input: the same `None`, or the same element
//! bit for bit. The networks get NaN, ±∞ and overflow-sized weights and
//! biases, and the regions infinite bounds, so that both outcomes and
//! every check site are exercised, for I, Z, (I, 2), (Z, 2) and (Z, 3).

mod common;

use common::ExactRepr;
use domains::{
    analyze_margin_checked_ws, propagate_checked_ws, AbstractElement, AnalysisOutcome, Bounds,
    DomainChoice, Interval, Powerset, Workspace, Zonotope,
};
use nn::{AffineLayer, Layer, MaxPoolLayer, Network};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

/// The checked propagation with a scan after every layer: the element,
/// or the index of the first poisoned one (0 for the input, `k + 1` for
/// the output of layer `k`).
fn reference_checked<E: AbstractElement>(net: &Network, element: E) -> Result<E, usize> {
    if element.is_poisoned() {
        return Err(0);
    }
    let mut current = element;
    for (k, layer) in net.layers().iter().enumerate() {
        current = match layer {
            Layer::Affine(a) => current.affine(a),
            Layer::Relu => current.relu(),
            Layer::MaxPool(p) => current.max_pool(p),
        };
        if current.is_poisoned() {
            return Err(k + 1);
        }
    }
    Ok(current)
}

/// Propagates `element` both ways and asserts parity, including the layer
/// at which the poison is found. Returns whether the element came out
/// poisoned.
fn check<E: AbstractElement + ExactRepr>(net: &Network, element: E, ws: &mut Workspace) -> bool {
    let expected = reference_checked(net, element.clone());
    let got = propagate_checked_ws(net, element, ws);
    match (&got, &expected) {
        (None, Err(poisoned)) => {
            // A poisoned element handed to a ReLU is found by that ReLU's
            // own input check, one layer later than the reference's scan.
            let by_relu = matches!(net.layers().get(*poisoned), Some(Layer::Relu));
            assert_eq!(
                ws.layer_seconds().len(),
                poisoned + usize::from(by_relu),
                "poison found at another layer"
            );
            true
        }
        (Some(g), Ok(e)) => {
            assert_eq!(g.repr(), e.repr(), "elements differ");
            assert_eq!(ws.layer_seconds().len(), net.layers().len());
            false
        }
        _ => panic!(
            "checked propagation poisoned: {}, reference: {}",
            got.is_none(),
            expected.is_err()
        ),
    }
}

/// Checks every domain of the parity suite: I, Z, (I, 2), (Z, 2) and
/// (Z, 3). Returns which came out poisoned.
fn check_all_domains(net: &Network, region: &Bounds, ws: &mut Workspace) -> [bool; 5] {
    [
        check(net, Interval::from_bounds(region), ws),
        check(net, Zonotope::from_bounds(region), ws),
        check(net, Powerset::<Interval>::with_budget(region, 2), ws),
        check(net, Powerset::<Zonotope>::with_budget(region, 2), ws),
        check(net, Powerset::<Zonotope>::with_budget(region, 3), ws),
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

/// A region around a random centre; with `infinite`, one coordinate's
/// upper bound is +∞.
fn region(rng: &mut StdRng, dim: usize, eps: f64, infinite: bool) -> Bounds {
    let center: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ball = Bounds::linf_ball(&center, eps, None);
    if !infinite {
        return ball;
    }
    let mut upper = ball.upper().to_vec();
    upper[rng.gen_range(0..dim)] = f64::INFINITY;
    Bounds::new(ball.lower().to_vec(), upper)
}

/// A convolution-style network with max-pool layers, one of them feeding
/// a ReLU directly: affine, ReLU, max-pool, affine, max-pool, ReLU,
/// affine.
fn maxpool_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = |rows: usize, cols: usize| {
        AffineLayer::new(
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0)),
            (0..rows).map(|_| rng.gen_range(-0.5..0.5)).collect(),
        )
    };
    let pairs = |n: usize| (0..n / 2).map(|g| vec![2 * g, 2 * g + 1]).collect();
    Network::new(
        4,
        vec![
            Layer::Affine(dense(12, 4)),
            Layer::Relu,
            Layer::MaxPool(MaxPoolLayer::new(12, pairs(12))),
            Layer::Affine(dense(8, 6)),
            Layer::MaxPool(MaxPoolLayer::new(8, pairs(8))),
            Layer::Relu,
            Layer::Affine(dense(3, 4)),
        ],
    )
    .expect("shapes are consistent")
}

/// One parity case: a random MLP or the max-pool network, ending in an
/// affine layer or a ReLU (whose own check is then the last one), with or
/// without injected values, on a narrow or wide region. Returns which
/// domains came out poisoned.
fn parity_case(seed: u64, ws: &mut Workspace) -> [bool; 5] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7e);
    let net = if seed.is_multiple_of(3) {
        maxpool_network(seed)
    } else {
        let input = rng.gen_range(2..6);
        let widths: Vec<usize> = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(3..16))
            .collect();
        nn::train::random_mlp(input, &widths, 3, seed)
    };
    let net = if seed % 4 < 2 {
        let mut layers = net.layers().to_vec();
        layers.push(Layer::Relu);
        Network::new(net.input_dim(), layers).expect("a ReLU keeps the shape")
    } else {
        net
    };
    let injections = [0, 1, 1, 2, 4][(seed % 5) as usize];
    let net = if injections > 0 {
        inject(&net, &mut rng, injections)
    } else {
        net
    };
    let eps = [0.05, 0.3, 1.0][rng.gen_range(0..3)];
    let region = region(&mut rng, net.input_dim(), eps, seed.is_multiple_of(7));
    check_all_domains(&net, &region, ws)
}

proptest! {
    /// Random networks, clean and injected, random regions: the checked
    /// propagation and the scan-every-layer reference agree.
    #[test]
    fn checked_propagation_matches_the_scan_every_layer_reference(seed in 0u64..100_000) {
        parity_case(seed, &mut Workspace::new());
    }
}

/// The suite must see both outcomes for every domain, or it proves
/// nothing: over a fixed sweep, clean and poisoned results both occur.
#[test]
fn the_sweep_sees_both_outcomes() {
    let mut ws = Workspace::new();
    let mut poisoned = [0usize; 5];
    let cases = 300;
    for seed in 0..cases {
        for (count, p) in poisoned.iter_mut().zip(parity_case(seed, &mut ws)) {
            *count += usize::from(p);
        }
    }
    for count in poisoned {
        assert!(
            (20..=cases as usize - 100).contains(&count),
            "{count} of {cases} poisoned per domain: {poisoned:?}"
        );
    }
}

/// Poison reaching a ReLU is caught by the ReLU's own check on each path:
/// a NaN weight in the first affine layer (found by the ReLU after it), in
/// the last one (scanned after it) and an affine output that overflows to
/// ±∞ and turns into NaN one layer later (∞ - ∞).
#[test]
fn each_check_site_reports_poison() {
    let base = nn::train::random_mlp(3, &[6, 6], 3, 1);
    // Far enough from the origin that 1e308-sized weights overflow.
    let region = Bounds::linf_ball(&[0.9, 0.8, 0.7], 0.05, None);
    let mut ws = Workspace::new();
    let with = |layer: usize, value: f64| {
        let mut layers = base.layers().to_vec();
        if let Layer::Affine(a) = &mut layers[layer] {
            a.weights.as_mut_slice().fill(value);
        }
        Network::new(3, layers).expect("shapes are consistent")
    };
    let last = base.layers().len() - 1;
    for (net, what) in [
        (with(0, f64::NAN), "NaN before a ReLU"),
        (with(last, f64::NAN), "NaN in the last layer"),
        (with(0, 1e308), "overflow before a ReLU"),
    ] {
        assert_eq!(
            check_all_domains(&net, &region, &mut ws),
            [true; 5],
            "{what}"
        );
    }
    assert_eq!(
        check_all_domains(&base, &region, &mut ws),
        [false; 5],
        "clean network"
    );
}

/// A class term that is NaN makes the margin NaN, so the analysis reports
/// `Poisoned` instead of proving the region. On `[∞, 0, -1]..[∞, ∞, 0]`
/// through a lone ReLU, `y0 - y1` is `∞ - ∞` while `y0 - y2` is `+∞`; no
/// element holds a NaN, so only the margin can report it (and the ReLU
/// takes its non-finite-bounds path).
#[test]
fn a_nan_class_term_poisons_the_analysis() {
    let relu = Network::new(3, vec![Layer::Relu]).expect("shapes are consistent");
    let inf = f64::INFINITY;
    let region = Bounds::new(vec![inf, 0.0, -1.0], vec![inf, inf, 0.0]);
    let mut ws = Workspace::new();
    for choice in [
        DomainChoice::interval(),
        DomainChoice::zonotope(),
        DomainChoice::powerset(domains::BaseDomain::Interval, 2),
        DomainChoice::powerset(domains::BaseDomain::Zonotope, 2),
    ] {
        let (outcome, margin) = analyze_margin_checked_ws(&relu, &region, 0, choice, &mut ws);
        assert_eq!(outcome, AnalysisOutcome::Poisoned, "{choice}");
        assert!(margin.is_nan(), "{choice}: margin {margin}");
    }
}
