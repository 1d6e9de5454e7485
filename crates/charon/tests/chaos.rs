//! Chaos suite: deterministic fault injection against the verifiers.
//!
//! Each test drives the sequential and parallel engines with a
//! [`FaultPlan`] and checks the acceptance properties of the failure
//! model: no injection aborts the process, no injection flips a verdict
//! (a fault degrades precision or pauses the run, never fabricates
//! `Verified`/`Refuted`), and cancelled runs resume from their checkpoint
//! to the baseline verdict.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Once};

use charon::faults::{FaultPlan, FaultSite};
use charon::parallel::ParallelVerifier;
use charon::policy::{FixedPolicy, LinearPolicy, Policy};
use charon::{
    BudgetKind, RobustnessProperty, TraceEvent, TraceSink, Verdict, Verifier, VerifierConfig,
    VerifyError,
};
use domains::{Bounds, DomainChoice};
use nn::{samples, Network};

/// Suppresses the default panic printout for panics this suite injects on
/// purpose, keeping real failures loud.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("injected fault") || message.contains("chaos policy") {
                return;
            }
            previous(info);
        }));
    });
}

/// The benchmark cases: (name, network, property) with both verdicts
/// represented.
fn cases() -> Vec<(&'static str, Network, RobustnessProperty)> {
    vec![
        (
            "xor-robust",
            samples::xor_network(),
            RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1),
        ),
        (
            "xor-refuted",
            samples::xor_network(),
            RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1),
        ),
        (
            "example-2-3",
            samples::example_2_3_network(),
            RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1),
        ),
    ]
}

/// Verdict equality up to the concrete counterexample point: faults may
/// legitimately change *which* δ-counterexample is found, never whether
/// one is found.
fn same_kind(a: &Verdict, b: &Verdict) -> bool {
    matches!(
        (a, b),
        (Verdict::Verified, Verdict::Verified)
            | (Verdict::Refuted(_), Verdict::Refuted(_))
            | (Verdict::ResourceLimit, Verdict::ResourceLimit)
    )
}

fn check_refutation(net: &Network, prop: &RobustnessProperty, verdict: &Verdict) {
    if let Verdict::Refuted(cex) = verdict {
        assert!(
            prop.region().contains(&cex.point),
            "counterexample escaped the region: {cex:?}"
        );
        assert!(cex.point.iter().all(|v| v.is_finite()));
        assert!(cex.objective.is_finite());
        assert_eq!(cex.objective, net.objective(&cex.point, prop.target()));
    }
}

#[test]
fn every_injection_site_preserves_the_verdict() {
    quiet_injected_panics();
    let sites = [
        FaultSite::WorkerPanic,
        FaultSite::AttackNan,
        FaultSite::TransformerNan,
        FaultSite::Delay,
    ];
    for (name, net, prop) in cases() {
        let baseline = Verifier::default().verify(&net, &prop);
        for site in sites {
            for region_index in [0, 1, 3] {
                let plan = Arc::new(FaultPlan::new().inject(site, region_index));
                let config = VerifierConfig {
                    faults: Some(Arc::clone(&plan)),
                    ..VerifierConfig::default()
                };

                let seq = Verifier::new(Arc::new(LinearPolicy::default()), config.clone())
                    .verify(&net, &prop);
                assert!(
                    same_kind(&seq, &baseline),
                    "{name}: sequential verdict flipped under {site:?}@{region_index}: \
                     {seq:?} vs baseline {baseline:?}"
                );
                check_refutation(&net, &prop, &seq);

                let par_plan = Arc::new(FaultPlan::new().inject(site, region_index));
                let par_config = VerifierConfig {
                    faults: Some(Arc::clone(&par_plan)),
                    ..VerifierConfig::default()
                };
                let par = ParallelVerifier::new(
                    Arc::new(LinearPolicy::default()),
                    par_config,
                    3,
                )
                .verify(&net, &prop);
                assert!(
                    same_kind(&par, &baseline),
                    "{name}: parallel verdict flipped under {site:?}@{region_index}: \
                     {par:?} vs baseline {baseline:?}"
                );
                check_refutation(&net, &prop, &par);

                // Region 0 always exists, so injections at stages every
                // step reaches must fire. (TransformerNan sits at the
                // analysis stage, which a region already refuted at the
                // δ-check legitimately skips.)
                if region_index == 0 && site != FaultSite::TransformerNan {
                    assert!(plan.all_fired(), "{name}: {site:?}@0 never fired");
                }
            }
        }
    }
}

/// Regression for counterexample validation: a poisoned attack claiming a
/// `-∞` objective at a NaN point must never surface as a refutation.
#[test]
fn poisoned_attack_cannot_fabricate_a_refutation() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);

    for threads in [0usize, 3] {
        let config = VerifierConfig {
            faults: Some(Arc::new(FaultPlan::new().inject(FaultSite::AttackNan, 0))),
            ..VerifierConfig::default()
        };
        let verdict = if threads == 0 {
            Verifier::new(Arc::new(LinearPolicy::default()), config).verify(&net, &prop)
        } else {
            ParallelVerifier::new(Arc::new(LinearPolicy::default()), config, threads)
                .verify(&net, &prop)
        };
        assert_eq!(
            verdict,
            Verdict::Verified,
            "bogus NaN counterexample leaked through validation (threads={threads})"
        );
    }
}

/// A mid-run cancellation fault pauses the run with a checkpoint; resuming
/// reaches the baseline verdict without revisiting verified regions.
#[test]
fn cancel_fault_checkpoints_and_resume_reaches_baseline() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let policy = || -> Arc<dyn Policy> { Arc::new(FixedPolicy::new(DomainChoice::interval())) };

    // Baseline: uninjected sequential run.
    let baseline = Verifier::with_policy(policy())
        .try_verify_run(&net, &prop)
        .unwrap();
    assert_eq!(baseline.verdict, Verdict::Verified);
    assert!(baseline.stats.regions > 2, "need a multi-region baseline");

    // Sequential: cancel while processing region 2.
    let config = VerifierConfig {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        faults: Some(Arc::new(FaultPlan::new().inject(FaultSite::Cancel, 2))),
        ..VerifierConfig::default()
    };
    let interrupted = Verifier::new(policy(), config)
        .try_verify_run(&net, &prop)
        .unwrap();
    assert_eq!(interrupted.verdict, Verdict::ResourceLimit);
    assert_eq!(interrupted.limit, Some(BudgetKind::Cancelled));
    let ckpt = interrupted.checkpoint.expect("cancelled run checkpoints");

    let resumed = Verifier::with_policy(policy()).resume(&net, &ckpt).unwrap();
    assert_eq!(resumed.verdict, baseline.verdict);
    assert_eq!(
        interrupted.stats.regions + resumed.stats.regions,
        baseline.stats.regions,
        "resume revisited already-verified regions"
    );

    // Parallel: same story, minus the exact region accounting (scheduling
    // may differ), resumed on the parallel engine too.
    let par_config = VerifierConfig {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        faults: Some(Arc::new(FaultPlan::new().inject(FaultSite::Cancel, 1))),
        ..VerifierConfig::default()
    };
    let par = ParallelVerifier::new(policy(), par_config, 3);
    let interrupted = par.try_verify_run(&net, &prop).unwrap();
    assert_eq!(interrupted.verdict, Verdict::ResourceLimit);
    assert_eq!(interrupted.limit, Some(BudgetKind::Cancelled));
    let ckpt = interrupted.checkpoint.expect("cancelled run checkpoints");
    let clean = ParallelVerifier::new(policy(), VerifierConfig::default(), 3);
    let resumed = clean.resume(&net, &ckpt).unwrap();
    assert_eq!(resumed.verdict, Verdict::Verified);
}

/// A policy whose every decision panics: the degradation ladder must
/// absorb the panic on *every* region and still decide the property on
/// the interval fallback.
#[test]
fn panicking_policy_degrades_to_interval_and_survives() {
    quiet_injected_panics();
    struct PanicPolicy;
    impl Policy for PanicPolicy {
        fn choose_domain(
            &self,
            _ctx: &charon::policy::PolicyContext<'_>,
        ) -> charon::policy::DomainSelection {
            panic!("chaos policy: choose_domain");
        }
        fn choose_split(&self, _ctx: &charon::policy::PolicyContext<'_>) -> charon::policy::SplitPlan {
            panic!("chaos policy: choose_split");
        }
    }

    for (name, net, prop) in cases() {
        let baseline =
            Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())))
                .verify(&net, &prop);
        let seq = Verifier::with_policy(Arc::new(PanicPolicy)).verify(&net, &prop);
        assert!(
            same_kind(&seq, &baseline),
            "{name}: panicking policy changed the verdict: {seq:?} vs {baseline:?}"
        );
        let par = ParallelVerifier::new(Arc::new(PanicPolicy), VerifierConfig::default(), 3)
            .verify(&net, &prop);
        assert!(
            same_kind(&par, &baseline),
            "{name}: panicking policy changed the parallel verdict: {par:?} vs {baseline:?}"
        );
    }
}

/// Several faults at once: a panic, a poisoned transformer, a poisoned
/// attack, and a straggler in the same run still converge to the
/// baseline verdict.
#[test]
fn fault_storm_converges_to_baseline() {
    quiet_injected_panics();
    for (name, net, prop) in cases() {
        let baseline = Verifier::default().verify(&net, &prop);
        let plan = Arc::new(
            FaultPlan::new()
                .inject(FaultSite::WorkerPanic, 0)
                .inject(FaultSite::AttackNan, 1)
                .inject(FaultSite::TransformerNan, 2)
                .inject(FaultSite::Delay, 3),
        );
        let config = VerifierConfig {
            faults: Some(Arc::clone(&plan)),
            ..VerifierConfig::default()
        };
        let seq = Verifier::new(Arc::new(LinearPolicy::default()), config.clone())
            .verify(&net, &prop);
        assert!(
            same_kind(&seq, &baseline),
            "{name}: fault storm flipped sequential verdict: {seq:?} vs {baseline:?}"
        );

        let par_plan = Arc::new(
            FaultPlan::new()
                .inject(FaultSite::WorkerPanic, 0)
                .inject(FaultSite::AttackNan, 1)
                .inject(FaultSite::TransformerNan, 2)
                .inject(FaultSite::Delay, 3),
        );
        let par_config = VerifierConfig {
            faults: Some(par_plan),
            ..VerifierConfig::default()
        };
        let par = ParallelVerifier::new(Arc::new(LinearPolicy::default()), par_config, 3)
            .verify(&net, &prop);
        assert!(
            same_kind(&par, &baseline),
            "{name}: fault storm flipped parallel verdict: {par:?} vs {baseline:?}"
        );
    }
}

/// The acceptance scenario: a run that times out mid-search checkpoints,
/// and resuming verifies a property that a fresh, fully budgeted run also
/// verifies — revisiting no already-verified region.
#[test]
fn timed_out_run_resumes_to_verified() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let verifier = Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));

    // Fresh run with an ample budget: the reference.
    let fresh = verifier.try_verify_run(&net, &prop).unwrap();
    assert_eq!(fresh.verdict, Verdict::Verified);

    // Same verifier, starved region budget: must stop with a checkpoint.
    let mut starved = verifier.clone();
    starved.config_mut().max_regions = 1;
    let first = starved.try_verify_run(&net, &prop).unwrap();
    assert_eq!(first.verdict, Verdict::ResourceLimit);
    assert_eq!(first.limit, Some(BudgetKind::Regions));
    let ckpt = first.checkpoint.expect("starved run checkpoints");

    // Round-trip the checkpoint through its text format, as the CLI does.
    let ckpt = charon::Checkpoint::from_text(&ckpt.to_text()).unwrap();

    let resumed = verifier.resume(&net, &ckpt).unwrap();
    assert_eq!(resumed.verdict, Verdict::Verified);
    assert_eq!(
        first.stats.regions + resumed.stats.regions,
        fresh.stats.regions,
        "resume revisited already-verified regions"
    );
}

/// Every injected fault must leave a footprint in the trace: a
/// `fault_triggered` event with the site name, observable through a
/// [`charon::SummarySink`] attached to the verifier.
#[test]
fn injected_faults_emit_fault_triggered_events() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    for site in [
        FaultSite::WorkerPanic,
        FaultSite::AttackNan,
        FaultSite::TransformerNan,
        FaultSite::Delay,
    ] {
        let sink = Arc::new(charon::SummarySink::new());
        let config = VerifierConfig {
            faults: Some(Arc::new(FaultPlan::new().inject(site, 0))),
            ..VerifierConfig::default()
        };
        let verifier = Verifier::new(Arc::new(LinearPolicy::default()), config)
            .with_trace(Arc::clone(&sink) as _);
        verifier
            .try_verify_run(&net, &prop)
            .expect("injection must degrade, not abort");
        let summary = sink.snapshot();
        assert!(
            summary.faults >= 1,
            "no fault_triggered event for {site:?}: {summary:?}"
        );
        assert!(summary.verdicts == 1, "run must still end in a verdict");
    }
}

/// Idle workers must park on the scheduler condvar, never spin: a
/// straggler fault holding the only region forces the other worker idle,
/// and the merged metrics must account for that idle time as parks. A
/// run with zero pending work must conclude instantly without parking.
#[test]
fn idle_workers_park_instead_of_spinning() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let config = VerifierConfig {
        faults: Some(Arc::new(FaultPlan::new().inject(FaultSite::Delay, 0))),
        ..VerifierConfig::default()
    };
    let run = ParallelVerifier::new(
        Arc::new(FixedPolicy::new(DomainChoice::interval())),
        config,
        2,
    )
    .try_verify_run(&net, &prop)
    .unwrap();
    assert_eq!(run.verdict, Verdict::Verified);
    let m = &run.stats.metrics;
    // While one worker sleeps 25ms inside the injected delay, the other
    // has an empty worklist and exactly one region in flight: its only
    // legal move is a (timed, bounded) condvar park.
    assert!(m.parks >= 1, "idle worker never parked: {m:?}");
    assert!(m.idle_seconds > 0.0, "parks recorded no idle time: {m:?}");
    // Every park is histogrammed; idle time is accounted, not spun away.
    assert_eq!(m.idle_hist.total(), m.parks, "park accounting leak: {m:?}");

    // Zero work: resuming an already-drained checkpoint must observe the
    // drained worklist on the first pop and exit — no parks at all.
    let ckpt = charon::Checkpoint {
        target: 1,
        pending: vec![],
        regions_done: 3,
    };
    let run = ParallelVerifier::new(
        Arc::new(LinearPolicy::default()),
        VerifierConfig::default(),
        4,
    )
    .resume(&net, &ckpt)
    .unwrap();
    assert_eq!(run.verdict, Verdict::Verified);
    assert_eq!(run.stats.regions, 0);
    assert_eq!(
        run.stats.metrics.parks, 0,
        "zero-work run parked instead of exiting: {:?}",
        run.stats.metrics
    );
}

/// Regression test for the stale-counter bug: the checkpoint written by
/// an interrupted parallel run must count regions from the *merged*
/// worker stats, including workers that panicked and degraded, not from
/// a driver-side counter that can lag behind worker exits.
#[test]
fn parallel_checkpoint_counts_match_merged_worker_stats() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let policy: Arc<dyn Policy> = Arc::new(FixedPolicy::new(DomainChoice::interval()));
    let config = VerifierConfig {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        faults: Some(Arc::new(
            FaultPlan::new()
                .inject(FaultSite::WorkerPanic, 0)
                .inject(FaultSite::Cancel, 2),
        )),
        ..VerifierConfig::default()
    };
    let run = ParallelVerifier::new(policy, config, 2)
        .try_verify_run(&net, &prop)
        .unwrap();
    assert_eq!(run.verdict, Verdict::ResourceLimit);
    let ckpt = run.checkpoint.expect("cancelled run checkpoints");
    assert_eq!(
        ckpt.regions_done, run.stats.regions,
        "checkpoint progress disagrees with merged worker stats"
    );
}

/// A trace sink that panics when the driver reports a popped region.
struct PanickingSink;

impl TraceSink for PanickingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &TraceEvent) {
        if matches!(event, TraceEvent::RegionPopped { .. }) {
            panic!("injected fault: trace sink");
        }
    }
}

/// A panic in the region driver itself, outside the per-region
/// isolation boundary, is an engine error at every worker count: never
/// a process abort, and never a hang while the other workers wait for
/// the region the panicking worker held.
#[test]
fn driver_panic_is_a_worker_panic_error() {
    quiet_injected_panics();
    let net = samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    for threads in [1, 3] {
        let started = std::time::Instant::now();
        let run = ParallelVerifier::new(
            Arc::new(LinearPolicy::default()),
            VerifierConfig::default(),
            threads,
        )
        .with_trace(Arc::new(PanickingSink))
        .try_verify_run(&net, &prop);
        match run {
            Err(VerifyError::WorkerPanic { message }) => {
                assert!(message.contains("trace sink"), "message: {message}");
            }
            other => panic!("{threads} threads: expected a worker panic, got {other:?}"),
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{threads} threads: the run hung after the panic"
        );
    }
}
