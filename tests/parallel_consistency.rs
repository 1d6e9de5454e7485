//! The parallel verifier must agree with the sequential one on every
//! decidable problem, across policies and thread counts.

use std::sync::Arc;
use std::time::Duration;

use charon::parallel::ParallelVerifier;
use charon::policy::{DomainSelection, FixedPolicy, LinearPolicy};
use charon::{RobustnessProperty, TraceEvent, TraceSink, Verdict, Verifier, VerifierConfig};
use domains::{Bounds, DomainChoice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config() -> VerifierConfig {
    VerifierConfig {
        timeout: Duration::from_secs(20),
        ..VerifierConfig::default()
    }
}

#[test]
fn parallel_matches_sequential_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for trial in 0..6 {
        let net = nn::train::random_mlp(3, &[7], 3, trial);
        let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let eps = rng.gen_range(0.1..0.5);
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, eps, None), net.classify(&center));
        let sequential =
            Verifier::new(Arc::new(LinearPolicy::default()), config()).verify(&net, &prop);
        for threads in [1, 2, 4] {
            let parallel =
                ParallelVerifier::new(Arc::new(LinearPolicy::default()), config(), threads)
                    .verify(&net, &prop);
            // Verdict *kind* must match; the specific counterexample may
            // differ between schedules.
            assert_eq!(
                sequential.is_verified(),
                parallel.is_verified(),
                "trial {trial}, {threads} threads: {sequential:?} vs {parallel:?}"
            );
            assert_eq!(sequential.is_refuted(), parallel.is_refuted());
            if let Verdict::Refuted(cex) = &parallel {
                assert!(prop.region().contains(&cex.point));
                assert!(net.objective(&cex.point, prop.target()) <= 1e-9);
            }
        }
    }
}

#[test]
fn parallel_works_with_every_fixed_selection() {
    let net = nn::samples::example_2_3_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
    for selection in [
        DomainSelection::Abstract(DomainChoice::zonotope()),
        DomainSelection::Abstract(DomainChoice::interval()),
        DomainSelection::DeepPoly,
        DomainSelection::Solver { node_budget: 100 },
    ] {
        let policy = Arc::new(FixedPolicy::with_selection(selection));
        let verdict = ParallelVerifier::new(policy, config(), 3).verify(&net, &prop);
        assert!(
            verdict.is_verified(),
            "selection {selection} failed: {verdict:?}"
        );
    }
}

/// Scheduler stress: a refinement-heavy run (interval-only policy forces
/// many splits) must reach the same verdict and explore exactly the same
/// number of regions as the sequential engine, with more workers than
/// regions-per-deque (so workers actually steal). The split tree is
/// deterministic given the policy, so `regions` accounting is
/// schedule-independent.
#[test]
fn thread_counts_match_sequential_region_accounting() {
    let net = nn::samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let policy = || Arc::new(FixedPolicy::new(DomainChoice::interval()));
    let sequential = Verifier::new(policy(), config())
        .try_verify_run(&net, &prop)
        .unwrap();
    assert_eq!(sequential.verdict, Verdict::Verified);
    assert!(sequential.stats.regions > 4, "need a multi-region baseline");

    for threads in [1, 2, 4, 8] {
        let run = ParallelVerifier::new(policy(), config(), threads)
            .try_verify_run(&net, &prop)
            .unwrap();
        assert_eq!(run.verdict, Verdict::Verified, "{threads} threads");
        assert_eq!(
            run.stats.regions, sequential.stats.regions,
            "{threads} threads explored a different region count"
        );
        assert_eq!(
            run.stats.verified_regions,
            sequential.stats.verified_regions
        );
        // One worker has nobody to steal from.
        if threads == 1 {
            assert_eq!(run.stats.metrics.steals, 0);
        }
    }
}

/// One worker is the sequential verifier, region for region: the same
/// verdict and region count, the same witness on a refutable property,
/// and the same checkpoint worklist, in order, when a region cap stops
/// the run.
#[test]
fn one_worker_matches_the_sequential_verifier() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for trial in 0..6 {
        let net = nn::train::random_mlp(3, &[7], 3, trial);
        let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let eps = rng.gen_range(0.1..0.5);
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, eps, None), net.classify(&center));
        let seq = Verifier::new(Arc::new(LinearPolicy::default()), config())
            .try_verify_run(&net, &prop)
            .unwrap();
        let one = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config(), 1)
            .try_verify_run(&net, &prop)
            .unwrap();
        // `Verdict` equality includes the witness point of a refutation.
        assert_eq!(seq.verdict, one.verdict, "trial {trial}");
        assert_eq!(seq.stats.regions, one.stats.regions, "trial {trial}");
    }

    let net = nn::samples::xor_network();
    let refutable = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
    let seq = Verifier::default().verify(&net, &refutable);
    let one = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config(), 1)
        .verify(&net, &refutable);
    assert!(seq.is_refuted());
    assert_eq!(seq, one, "one worker found a different witness");

    let robust = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let capped = VerifierConfig {
        max_regions: 3,
        ..config()
    };
    let policy = || Arc::new(FixedPolicy::new(DomainChoice::interval()));
    let seq = Verifier::new(policy(), capped.clone())
        .try_verify_run(&net, &robust)
        .unwrap();
    let one = ParallelVerifier::new(policy(), capped, 1)
        .try_verify_run(&net, &robust)
        .unwrap();
    assert_eq!(seq.verdict, Verdict::ResourceLimit);
    assert_eq!(one.verdict, Verdict::ResourceLimit);
    assert_eq!(seq.stats.regions, 3);
    assert_eq!(one.stats.regions, 3);
    let (seq, one) = (seq.checkpoint.unwrap(), one.checkpoint.unwrap());
    assert!(!seq.pending.is_empty());
    assert_eq!(seq.pending, one.pending, "checkpoint worklists differ");
}

/// Records the ordinal of every `RegionPopped` event.
#[derive(Default)]
struct OrdinalSink(std::sync::Mutex<Vec<usize>>);

impl TraceSink for OrdinalSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::RegionPopped { ordinal, .. } = event {
            self.0.lock().unwrap().push(*ordinal);
        }
    }
}

/// Every region a multi-worker run processes gets its own ordinal: the
/// `RegionPopped` ordinals are exactly `0..regions`, with no duplicate
/// from two regions in flight at once. A region cap is met exactly, not
/// overshot by workers that were mid-step when it was reached.
#[test]
fn parallel_ordinals_are_unique_and_region_cap_is_exact() {
    let net = nn::train::random_mlp(4, &[16, 16], 3, 7);
    let center = [0.1, -0.2, 0.3, 0.0];
    let prop = RobustnessProperty::new(
        Bounds::linf_ball(&center, 0.02, None),
        net.classify(&center),
    );
    let policy = || Arc::new(FixedPolicy::new(DomainChoice::interval()));
    for threads in [2, 4] {
        let sink = Arc::new(OrdinalSink::default());
        let run = ParallelVerifier::new(policy(), config(), threads)
            .with_trace(Arc::clone(&sink) as _)
            .try_verify_run(&net, &prop)
            .unwrap();
        assert!(run.stats.regions > 20, "need a multi-region run");
        let mut ordinals = sink.0.lock().unwrap().clone();
        ordinals.sort_unstable();
        let expected: Vec<usize> = (0..run.stats.regions).collect();
        assert_eq!(ordinals, expected, "{threads} threads");

        let cap = run.stats.regions / 2;
        let capped = ParallelVerifier::new(
            policy(),
            VerifierConfig {
                max_regions: cap,
                ..config()
            },
            threads,
        )
        .try_verify_run(&net, &prop)
        .unwrap();
        assert_eq!(capped.verdict, Verdict::ResourceLimit, "{threads} threads");
        assert_eq!(capped.stats.regions, cap, "{threads} threads overshot the cap");
    }
}

/// The paper's own workload: brightening properties on a trained zoo
/// network (Fig. 6). On every property of the slice that the sequential
/// verifier decides after splitting, a 2-thread run must reach the same
/// decisive verdict. Split children warm-start their attack from the
/// parent's `x*`, so this also checks that the warm search decides the
/// same way whichever worker runs a region.
#[test]
fn zoo_brightening_slice_agrees_sequential_and_two_threads() {
    use data::properties::brightening_suite;
    use data::zoo::{build, ZooConfig, ZooNetwork};

    let zoo = ZooConfig {
        train_size: 200,
        train: nn::train::TrainConfig {
            epochs: 25,
            ..nn::train::TrainConfig::default()
        },
        cache_dir: None,
        ..ZooConfig::default()
    };
    let (net, _) = build(ZooNetwork::Mnist3x32, &zoo);
    let eval = ZooNetwork::Mnist3x32.dataset(60, 101);
    let suite = brightening_suite(&net, &eval, &[0.75, 0.6, 0.45], 15);
    let budget = VerifierConfig {
        max_regions: 60,
        ..config()
    };
    let mut multi_region = 0;
    for (i, b) in suite.iter().enumerate() {
        let seq = Verifier::new(Arc::new(LinearPolicy::default()), budget.clone())
            .try_verify_run(&net, &b.property)
            .unwrap();
        if seq.stats.regions == 1 || seq.verdict == Verdict::ResourceLimit {
            continue;
        }
        multi_region += 1;
        let par = ParallelVerifier::new(Arc::new(LinearPolicy::default()), budget.clone(), 2)
            .try_verify_run(&net, &b.property)
            .unwrap();
        assert!(
            par.verdict.is_verified() == seq.verdict.is_verified()
                && par.verdict.is_refuted() == seq.verdict.is_refuted(),
            "property {i}: sequential {:?} in {} regions, 2 threads {:?} in {}",
            seq.verdict,
            seq.stats.regions,
            par.verdict,
            par.stats.regions
        );
        if let Verdict::Refuted(cex) = &par.verdict {
            assert!(b.property.region().contains(&cex.point));
        }
    }
    assert!(
        multi_region >= 2,
        "the slice must hold decisive multi-region properties, found {multi_region}"
    );
}
