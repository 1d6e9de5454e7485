//! Cross-tool consistency: the four tools must never contradict each
//! other on the same property, and their characteristic strengths and
//! weaknesses from the paper must be visible.

use std::time::Duration;

use baselines::ai2::Ai2;
use baselines::reluplex::Reluplex;
use baselines::reluval::{ReluVal, ReluValConfig};
use baselines::ToolVerdict;
use charon::{RobustnessProperty, Verdict, Verifier};
use domains::Bounds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BUDGET: Duration = Duration::from_secs(6);

/// ReluVal cannot falsify, so on a refutable property it bisects until a
/// budget runs out. A node budget ends those runs after the same work on
/// every machine (a few thousand regions take well under a second) with
/// the same `Timeout` verdict the wall clock gave; `BUDGET` stays as the
/// backstop.
fn reluval() -> ReluVal {
    ReluVal::new(ReluValConfig {
        max_nodes: 5_000,
        ..ReluValConfig::default()
    })
}

/// Enumerate all tool verdicts on one property.
fn all_verdicts(net: &nn::Network, prop: &RobustnessProperty) -> Vec<(String, ToolVerdict)> {
    let charon = {
        let mut v = Verifier::default();
        v.config_mut().timeout = BUDGET;
        match v.verify(net, prop) {
            Verdict::Verified => ToolVerdict::Verified,
            Verdict::Refuted(c) => ToolVerdict::Falsified(c.point),
            Verdict::ResourceLimit => ToolVerdict::Timeout,
        }
    };
    vec![
        ("charon".into(), charon),
        ("ai2-z".into(), Ai2::zonotope().analyze(net, prop, BUDGET)),
        (
            "ai2-b64".into(),
            Ai2::bounded64().analyze(net, prop, BUDGET),
        ),
        (
            "reluval".into(),
            reluval().analyze(net, prop, BUDGET),
        ),
        (
            "reluplex".into(),
            Reluplex::default().analyze(net, prop, BUDGET),
        ),
    ]
}

#[test]
fn no_tool_pair_contradicts() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..8 {
        let net = nn::train::random_mlp(3, &[7], 3, trial);
        let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let eps = rng.gen_range(0.05..0.5);
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, eps, None), net.classify(&center));
        let verdicts = all_verdicts(&net, &prop);
        let verified: Vec<&str> = verdicts
            .iter()
            .filter(|(_, v)| *v == ToolVerdict::Verified)
            .map(|(n, _)| n.as_str())
            .collect();
        let falsified: Vec<&str> = verdicts
            .iter()
            .filter(|(_, v)| matches!(v, ToolVerdict::Falsified(_)))
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(
            verified.is_empty() || falsified.is_empty(),
            "trial {trial}: contradiction — verified by {verified:?}, falsified by {falsified:?}"
        );
        // Every reported counterexample must be concrete and valid.
        for (name, v) in &verdicts {
            if let ToolVerdict::Falsified(x) = v {
                assert!(
                    prop.region().contains(x),
                    "{name} counterexample outside region"
                );
                assert!(
                    nn::margin(&net.eval(x), prop.target()) <= 1e-9,
                    "{name} returned a non-violating counterexample"
                );
            }
        }
    }
}

#[test]
fn ai2_never_falsifies_reluval_never_falsifies() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..5 {
        let net = nn::train::random_mlp(2, &[5], 2, trial + 100);
        let center: Vec<f64> = (0..2).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, 0.7, None), net.classify(&center));
        assert!(!matches!(
            Ai2::zonotope().analyze(&net, &prop, BUDGET),
            ToolVerdict::Falsified(_)
        ));
        assert!(!matches!(
            reluval().analyze(&net, &prop, BUDGET),
            ToolVerdict::Falsified(_)
        ));
    }
}

#[test]
fn powerset_dominates_plain_zonotope_ai2() {
    // AI2-Bounded64 must verify everything AI2-Zonotope verifies (it is
    // strictly more precise).
    let mut rng = StdRng::seed_from_u64(31);
    for trial in 0..6 {
        let net = nn::train::random_mlp(3, &[8], 3, trial + 50);
        let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let eps = rng.gen_range(0.05..0.3);
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, eps, None), net.classify(&center));
        let plain = Ai2::zonotope().analyze(&net, &prop, BUDGET);
        let powerset = Ai2::bounded64().analyze(&net, &prop, BUDGET);
        if plain == ToolVerdict::Verified {
            assert_eq!(
                powerset,
                ToolVerdict::Verified,
                "trial {trial}: powerset lost precision vs plain zonotope"
            );
        }
    }
}

#[test]
fn charon_decides_what_ai2_cannot() {
    // Example 3.1: AI2 with a fixed interval domain cannot verify the
    // XOR property (needs splitting), Charon can. (Our λ-relaxation
    // zonotope happens to be tight enough to verify this one directly —
    // it is tighter than the paper's split-then-join transformer — so
    // the interval domain provides the "too coarse" contrast.)
    let net = nn::samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let ai2 = Ai2::new(domains::DomainChoice::interval()).analyze(&net, &prop, BUDGET);
    assert_eq!(
        ai2,
        ToolVerdict::Unknown,
        "interval domain should be too coarse"
    );
    assert!(Verifier::default().verify(&net, &prop).is_verified());
}
