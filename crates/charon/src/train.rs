//! The training phase (§4.2): learning policy parameters θ with Bayesian
//! optimization.
//!
//! Given a corpus of training problems, the objective scores a candidate
//! θ by running the verifier on every problem with a per-problem time
//! limit `t` and summing costs: solve time for solved problems, `p · t`
//! for unsolved ones (the paper uses `p = 2`). Bayesian optimization
//! maximizes the negated total cost.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bayesopt::{BayesOpt, BayesOptConfig};
use nn::Network;

use crate::policy::{LinearPolicy, NUM_PARAMS};
use crate::verify::{Verdict, Verifier, VerifierConfig};
use crate::RobustnessProperty;

/// A training problem: a network plus a robustness property over it.
#[derive(Debug, Clone)]
pub struct TrainingProblem {
    /// The network.
    pub net: Network,
    /// The property to verify or refute.
    pub property: RobustnessProperty,
}

/// Configuration of the policy-training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Per-problem time limit `t`.
    pub time_limit: Duration,
    /// Penalty factor `p` for unsolved problems (the paper uses 2).
    pub penalty: f64,
    /// Bayesian-optimization settings.
    pub bayesopt: BayesOptConfig,
    /// Worker threads for evaluating the training set (0 = all CPUs).
    pub threads: usize,
    /// Verifier configuration template (timeout is overwritten by
    /// `time_limit`).
    pub verifier: VerifierConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            time_limit: Duration::from_millis(500),
            penalty: 2.0,
            bayesopt: BayesOptConfig {
                iterations: 20,
                initial_design: 8,
                ..BayesOptConfig::default()
            },
            threads: 0,
            verifier: VerifierConfig::default(),
            seed: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The learned policy.
    pub policy: LinearPolicy,
    /// Objective value of the learned policy (negated total cost, in
    /// seconds).
    pub score: f64,
    /// Objective value of the default (hand-initialized) policy, for
    /// comparison.
    pub baseline_score: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
}

/// Scores a policy on the training corpus: `-Σ cost(s)` where `cost` is
/// solve time for solved problems and `penalty * time_limit` otherwise.
pub fn score_policy(
    policy: &LinearPolicy,
    problems: &[TrainingProblem],
    config: &TrainConfig,
) -> f64 {
    let mut verifier_config = config.verifier.clone();
    verifier_config.timeout = config.time_limit;
    let policy = Arc::new(policy.clone());
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        config.threads
    };

    let next = AtomicUsize::new(0);
    let total_cost = Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(problems.len().max(1)) {
            let next = &next;
            let total_cost = &total_cost;
            let policy = Arc::clone(&policy);
            let verifier_config = verifier_config.clone();
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= problems.len() {
                    return;
                }
                let problem = &problems[idx];
                let verifier = Verifier::new(
                    policy.clone() as Arc<dyn crate::policy::Policy>,
                    verifier_config.clone(),
                );
                let start = std::time::Instant::now();
                let verdict = verifier.verify(&problem.net, &problem.property);
                let elapsed = start.elapsed();
                let cost = match verdict {
                    Verdict::Verified | Verdict::Refuted(_) => elapsed.as_secs_f64(),
                    Verdict::ResourceLimit => config.penalty * config.time_limit.as_secs_f64(),
                };
                *total_cost.lock().unwrap() += cost;
            });
        }
    });

    -total_cost.into_inner().unwrap()
}

/// Learns a verification policy from training problems using Bayesian
/// optimization over the θ parameter space.
///
/// # Panics
///
/// Panics if `problems` is empty.
pub fn train_policy(problems: &[TrainingProblem], config: &TrainConfig) -> TrainOutcome {
    assert!(!problems.is_empty(), "need at least one training problem");

    let baseline = LinearPolicy::default();
    let baseline_score = score_policy(&baseline, problems, config);

    let evaluations = AtomicUsize::new(0);
    let bounds = vec![(-1.0, 1.0); NUM_PARAMS];
    let optimizer = BayesOpt::new(bounds, config.bayesopt.clone(), config.seed);
    let result = optimizer.run(|params| {
        evaluations.fetch_add(1, Ordering::Relaxed);
        let policy = LinearPolicy::from_params(params.to_vec());
        score_policy(&policy, problems, config)
    });

    // Keep whichever of {learned, hand-initialized} scores better; on a
    // tie prefer the hand-initialized policy (it generalizes by
    // construction, while tied BO parameters are arbitrary).
    let (policy, score) = if result.best_value > baseline_score {
        (
            LinearPolicy::from_params(result.best_input.clone()),
            result.best_value,
        )
    } else {
        (baseline, baseline_score)
    };

    TrainOutcome {
        policy,
        score,
        baseline_score,
        evaluations: evaluations.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domains::Bounds;
    use nn::samples;

    fn tiny_corpus() -> Vec<TrainingProblem> {
        vec![
            TrainingProblem {
                net: samples::xor_network(),
                property: RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1),
            },
            TrainingProblem {
                net: samples::example_2_2_network(),
                property: RobustnessProperty::new(Bounds::new(vec![-1.0], vec![1.0]), 1),
            },
            TrainingProblem {
                net: samples::example_2_3_network(),
                property: RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1),
            },
        ]
    }

    #[test]
    fn score_is_negative_cost() {
        let config = TrainConfig::default();
        let score = score_policy(&LinearPolicy::default(), &tiny_corpus(), &config);
        assert!(score <= 0.0);
        // All three problems are easy: cost must be far below the penalty
        // ceiling 3 * p * t.
        let ceiling = 3.0 * config.penalty * config.time_limit.as_secs_f64();
        assert!(score > -ceiling, "score {score} at penalty ceiling");
    }

    #[test]
    fn training_improves_or_matches_baseline() {
        let config = TrainConfig {
            bayesopt: BayesOptConfig {
                iterations: 3,
                initial_design: 3,
                ..BayesOptConfig::default()
            },
            ..TrainConfig::default()
        };
        let outcome = train_policy(&tiny_corpus(), &config);
        assert!(outcome.score >= outcome.baseline_score);
        assert!(outcome.evaluations >= 6);
        // The learned policy still verifies the corpus.
        let verifier = Verifier::with_policy(Arc::new(outcome.policy));
        for p in tiny_corpus() {
            assert!(verifier.verify(&p.net, &p.property).is_verified());
        }
    }
}
