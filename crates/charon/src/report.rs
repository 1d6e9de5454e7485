//! Certified-accuracy reports: batch verification over a labelled set.
//!
//! The headline metric of the robustness literature is *certified
//! accuracy at ε*: the fraction of test points that are (a) classified
//! correctly and (b) provably stable under every L∞ perturbation of
//! radius ε. This module turns the verifier into that measurement tool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use domains::Bounds;
use nn::Network;

use crate::policy::{LinearPolicy, Policy};
use crate::verify::{Verdict, Verifier, VerifierConfig};
use crate::RobustnessProperty;

/// Outcome of one point in a certification run.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// Misclassified even without perturbation; not counted as certified.
    Misclassified,
    /// Correct and provably stable on the ε-ball.
    Certified,
    /// Correct at the center but a perturbation flips the class.
    Vulnerable(Vec<f64>),
    /// The verifier ran out of budget.
    Undecided,
}

/// Aggregate result of [`certify`].
#[derive(Debug, Clone)]
pub struct CertificationReport {
    /// Per-point outcomes, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// The ε used.
    pub epsilon: f64,
    /// Total verification wall-clock time.
    pub elapsed: Duration,
}

impl CertificationReport {
    fn count(&self, f: impl Fn(&PointOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(o)).count()
    }

    /// Points correct and certified robust.
    pub fn certified(&self) -> usize {
        self.count(|o| matches!(o, PointOutcome::Certified))
    }

    /// Points with a concrete adversarial example.
    pub fn vulnerable(&self) -> usize {
        self.count(|o| matches!(o, PointOutcome::Vulnerable(_)))
    }

    /// Points misclassified without any perturbation.
    pub fn misclassified(&self) -> usize {
        self.count(|o| matches!(o, PointOutcome::Misclassified))
    }

    /// Points the verifier could not decide within budget.
    pub fn undecided(&self) -> usize {
        self.count(|o| matches!(o, PointOutcome::Undecided))
    }

    /// Certified accuracy: certified points over all points.
    pub fn certified_accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.certified() as f64 / self.outcomes.len() as f64
    }

    /// Standard (unperturbed) accuracy implied by the outcomes.
    pub fn clean_accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        (self.outcomes.len() - self.misclassified()) as f64 / self.outcomes.len() as f64
    }
}

/// Configuration of a certification run.
#[derive(Clone)]
pub struct CertifyConfig {
    /// Per-point verifier configuration (timeout applies per point).
    pub verifier: VerifierConfig,
    /// Policy used by every verifier instance.
    pub policy: Arc<dyn Policy>,
    /// Worker threads (0 = all CPUs).
    pub threads: usize,
    /// Input clipping range for the ε-balls (e.g. `(0.0, 1.0)` for
    /// images), or `None` for unclipped balls.
    pub clip: Option<(f64, f64)>,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            verifier: VerifierConfig {
                timeout: Duration::from_secs(5),
                ..VerifierConfig::default()
            },
            policy: Arc::new(LinearPolicy::default()),
            threads: 0,
            clip: Some((0.0, 1.0)),
        }
    }
}

/// Certifies ε-robustness of `net` on a labelled point set.
///
/// # Panics
///
/// Panics if `points` and `labels` lengths differ, any point dimension
/// mismatches the network, or `epsilon < 0`.
pub fn certify(
    net: &Network,
    points: &[Vec<f64>],
    labels: &[usize],
    epsilon: f64,
    config: &CertifyConfig,
) -> CertificationReport {
    assert_eq!(points.len(), labels.len(), "points/labels length mismatch");
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let start = std::time::Instant::now();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        config.threads
    };

    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<PointOutcome>>> = Mutex::new(vec![None; points.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(points.len().max(1)) {
            let next = &next;
            let outcomes = &outcomes;
            let config = config.clone();
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= points.len() {
                    return;
                }
                let point = &points[idx];
                let label = labels[idx];
                let outcome = if net.classify(point) != label {
                    PointOutcome::Misclassified
                } else {
                    let region = Bounds::linf_ball(point, epsilon, config.clip);
                    let property = RobustnessProperty::new(region, label);
                    let verifier =
                        Verifier::new(Arc::clone(&config.policy), config.verifier.clone());
                    match verifier.verify(net, &property) {
                        Verdict::Verified => PointOutcome::Certified,
                        Verdict::Refuted(cex) => PointOutcome::Vulnerable(cex.point),
                        Verdict::ResourceLimit => PointOutcome::Undecided,
                    }
                };
                outcomes.lock().unwrap()[idx] = Some(outcome);
            });
        }
    });

    CertificationReport {
        outcomes: outcomes
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|o| o.expect("every point processed"))
            .collect(),
        epsilon,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    fn xor_points() -> (Vec<Vec<f64>>, Vec<usize>) {
        (
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
                vec![0.5, 0.5],
            ],
            vec![0, 1, 1, 0, 1],
        )
    }

    #[test]
    fn certifies_xor_at_small_epsilon() {
        let net = samples::xor_network();
        let (points, labels) = xor_points();
        let report = certify(&net, &points, &labels, 0.05, &CertifyConfig::default());
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.misclassified(), 0);
        assert_eq!(report.undecided(), 0);
        assert_eq!(report.certified(), 5, "outcomes: {:?}", report.outcomes);
        assert!((report.certified_accuracy() - 1.0).abs() < 1e-12);
        assert!((report.clean_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_epsilon_produces_vulnerable_points() {
        let net = samples::xor_network();
        let (points, labels) = xor_points();
        // ε = 0.6 lets the center point reach differently-classified
        // corners.
        let report = certify(&net, &points, &labels, 0.6, &CertifyConfig::default());
        assert!(report.vulnerable() > 0, "outcomes: {:?}", report.outcomes);
        assert!(report.certified_accuracy() < 1.0);
        // Every vulnerable point carries a valid counterexample.
        for (point, outcome) in points.iter().zip(report.outcomes.iter()) {
            if let PointOutcome::Vulnerable(cex) = outcome {
                let region = Bounds::linf_ball(point, 0.6, Some((0.0, 1.0)));
                assert!(region.contains(cex));
            }
        }
    }

    #[test]
    fn misclassified_points_are_not_certified() {
        let net = samples::xor_network();
        let points = vec![vec![0.0, 0.0]];
        let labels = vec![1]; // wrong label on purpose
        let report = certify(&net, &points, &labels, 0.01, &CertifyConfig::default());
        assert_eq!(report.misclassified(), 1);
        assert_eq!(report.certified(), 0);
        assert_eq!(report.clean_accuracy(), 0.0);
    }

    #[test]
    fn epsilon_zero_degenerates_to_clean_accuracy() {
        let net = samples::xor_network();
        let (points, labels) = xor_points();
        let report = certify(&net, &points, &labels, 0.0, &CertifyConfig::default());
        assert_eq!(report.certified_accuracy(), report.clean_accuracy());
    }
}
