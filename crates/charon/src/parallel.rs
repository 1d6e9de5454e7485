//! Multi-threaded region solving.
//!
//! The original implementation runs independent abstract-interpretation
//! calls on as many threads as the host provides (§6). A
//! [`ParallelVerifier`] runs the [`crate::Verifier`]'s own region driver
//! on several workers: they pop regions from one work-stealing
//! scheduler (per-worker deques), run counterexample search and abstract
//! interpretation, and push split sub-regions back. The first
//! δ-counterexample found aborts the whole run.
//!
//! Fault tolerance, budgets, checkpoints and certificates are the
//! sequential verifier's: every region step is panic-isolated with an
//! interval-domain retry, and budget-limited runs drain the worklist into
//! a [`Checkpoint`] for [`ParallelVerifier::resume`].

use std::sync::Arc;

use domains::Workspace;
use nn::Network;

use crate::checkpoint::Checkpoint;
use crate::error::VerifyError;
use crate::policy::Policy;
use crate::telemetry::SharedSink;
use crate::verify::{Verdict, Verifier, VerifierConfig, VerifyRun};
use crate::RobustnessProperty;

/// A [`Verifier`] run on several worker threads.
///
/// Semantics match the sequential verifier (same soundness and
/// δ-completeness); only scheduling differs, so which δ-counterexample is
/// reported may vary between runs. With one thread the run is the
/// sequential verifier's, region for region.
#[derive(Clone)]
pub struct ParallelVerifier {
    verifier: Verifier,
    threads: usize,
}

impl ParallelVerifier {
    /// Creates a parallel verifier.
    ///
    /// `threads = 0` selects the number of available CPUs.
    pub fn new(policy: Arc<dyn Policy>, config: VerifierConfig, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            threads
        };
        ParallelVerifier {
            verifier: Verifier::new(policy, config),
            threads,
        }
    }

    /// Attaches a trace sink shared by all workers; events from different
    /// workers interleave at event granularity. The default sink is
    /// [`crate::telemetry::NullSink`] (tracing off, zero overhead).
    #[must_use]
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.verifier = self.verifier.with_trace(sink);
        self
    }

    /// Number of worker threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Verifies a property using all worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the property's region dimension differs from the
    /// network's input dimension, the target class is out of range, or
    /// the engine fails irrecoverably (see
    /// [`ParallelVerifier::try_verify_run`] for the non-panicking API).
    pub fn verify(&self, net: &Network, property: &RobustnessProperty) -> Verdict {
        self.verifier.verify_on(net, property, self.threads).0
    }

    /// Parallel analogue of [`crate::Verifier::try_verify_run`].
    ///
    /// # Errors
    ///
    /// As the sequential variant: structured [`VerifyError`]s for
    /// malformed inputs and irrecoverable engine failures.
    pub fn try_verify_run(
        &self,
        net: &Network,
        property: &RobustnessProperty,
    ) -> Result<VerifyRun, VerifyError> {
        self.verifier
            .run_on(net, property, &mut Workspace::new(), self.threads)
    }

    /// Continues an interrupted run from a [`Checkpoint`] (see
    /// [`crate::Verifier::resume`]).
    ///
    /// # Errors
    ///
    /// As [`ParallelVerifier::try_verify_run`].
    pub fn resume(&self, net: &Network, checkpoint: &Checkpoint) -> Result<VerifyRun, VerifyError> {
        self.verifier
            .resume_on(net, checkpoint, &mut Workspace::new(), self.threads)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::policy::{FixedPolicy, LinearPolicy};
    use crate::BudgetKind;
    use domains::{Bounds, DomainChoice};
    use nn::samples;

    fn default_parallel(threads: usize) -> ParallelVerifier {
        ParallelVerifier::new(
            Arc::new(LinearPolicy::default()),
            VerifierConfig::default(),
            threads,
        )
    }

    #[test]
    fn parallel_verifies_xor_property() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        assert_eq!(default_parallel(4).verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn parallel_refutes_unit_square() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        match default_parallel(4).verify(&net, &prop) {
            Verdict::Refuted(cex) => {
                assert!(prop.region().contains(&cex.point));
                assert!(cex.objective <= 1e-9);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_on_examples() {
        let cases = [
            (samples::example_2_2_network(), vec![-1.0], vec![1.0], true),
            (samples::example_2_2_network(), vec![-1.0], vec![2.0], false),
        ];
        for (net, lo, hi, expect_verified) in cases {
            let prop = RobustnessProperty::new(Bounds::new(lo, hi), 1);
            let par = default_parallel(3).verify(&net, &prop);
            let seq = crate::Verifier::default().verify(&net, &prop);
            assert_eq!(par.is_verified(), expect_verified);
            assert_eq!(seq.is_verified(), expect_verified);
        }
    }

    #[test]
    fn single_thread_parallel_works() {
        let net = samples::example_2_3_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        assert_eq!(default_parallel(1).verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn parallel_budget_run_checkpoints_and_resumes() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let config = VerifierConfig {
            max_regions: 1,
            ..VerifierConfig::default()
        };
        let limited = ParallelVerifier::new(
            Arc::new(FixedPolicy::new(DomainChoice::interval())),
            config.clone(),
            2,
        );
        let first = limited.try_verify_run(&net, &prop).unwrap();
        assert_eq!(first.verdict, Verdict::ResourceLimit);
        assert_eq!(first.limit, Some(BudgetKind::Regions));
        let ckpt = first.checkpoint.expect("budget run checkpoints");
        assert!(!ckpt.pending.is_empty());

        let full = ParallelVerifier::new(
            Arc::new(FixedPolicy::new(DomainChoice::interval())),
            VerifierConfig::default(),
            2,
        );
        let resumed = full.resume(&net, &ckpt).unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
    }

    #[test]
    fn lapsed_budget_with_drained_worklist_reports_verified() {
        // A worklist that completes exactly as the deadline lapses (here:
        // resuming a checkpoint whose pending set is already empty under a
        // zero timeout) is a finished proof, not a resource limit.
        let net = samples::xor_network();
        let ckpt = Checkpoint {
            target: 1,
            pending: vec![],
            regions_done: 7,
        };
        let config = VerifierConfig {
            timeout: Duration::ZERO,
            ..VerifierConfig::default()
        };
        let verifier = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config, 2);
        let run = verifier.resume(&net, &ckpt).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        assert!(run.checkpoint.is_none());
        assert!(run.limit.is_none());
    }

    #[test]
    fn resource_limited_refutable_run_never_resumes_to_verified() {
        // Budget-starve a refutable property so workers race budgets
        // against the refutation; whatever interleaving happens, chasing
        // checkpoints must end in Refuted, never flip to Verified.
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        for seed in 0..4 {
            let starved = ParallelVerifier::new(
                Arc::new(FixedPolicy::new(DomainChoice::interval())),
                VerifierConfig {
                    max_regions: 1,
                    counterexample_search: false,
                    seed,
                    ..VerifierConfig::default()
                },
                4,
            );
            let full = ParallelVerifier::new(
                Arc::new(FixedPolicy::new(DomainChoice::interval())),
                VerifierConfig::default(),
                4,
            );
            let mut run = starved.try_verify_run(&net, &prop).unwrap();
            let mut hops = 0;
            loop {
                match run.verdict {
                    Verdict::Refuted(ref cex) => {
                        assert!(prop.region().contains(&cex.point));
                        break;
                    }
                    Verdict::ResourceLimit => {
                        let ckpt = run.checkpoint.expect("budget runs checkpoint");
                        run = full.resume(&net, &ckpt).unwrap();
                    }
                    Verdict::Verified => panic!("verdict flip on refutable property (seed {seed})"),
                }
                hops += 1;
                assert!(hops < 8, "resume chain did not converge");
            }
        }
    }

    #[test]
    fn parallel_merged_certificate_passes_audit() {
        let net = samples::xor_network();
        let config = VerifierConfig {
            certificates: true,
            ..VerifierConfig::default()
        };
        let verifier = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config, 4);

        // Verified: worker-interleaved records assemble into one tree.
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let run = verifier.try_verify_run(&net, &prop).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        let certificate = run.certificate.expect("parallel run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the merged certificate");
        assert!(report.verified);
        assert_eq!(report.leaves, run.stats.verified_regions);

        // Refuted: the witness certificate audits, whichever worker won.
        let broken = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        let run = verifier.try_verify_run(&net, &broken).unwrap();
        assert!(run.verdict.is_refuted());
        let certificate = run.certificate.expect("refuted parallel run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the witness");
        assert!(!report.verified);
    }

    #[test]
    fn parallel_collects_aggregate_stats() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let run = default_parallel(3).try_verify_run(&net, &prop).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        assert!(run.stats.regions >= 1);
        assert!(run.stats.analyze_calls >= 1);
    }
}
