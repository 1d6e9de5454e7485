//! ReluVal: symbolic interval analysis with iterative bisection.
//!
//! ReluVal propagates symbolic intervals (see [`domains::symbolic`])
//! through the network; when the analysis is inconclusive it bisects the
//! input region along the dimension with the largest *smear* value (region
//! width times gradient-bound magnitude) and recurses. The strategy is
//! hand-crafted and static — this is exactly the "abstraction refinement
//! without learning or counterexample search" baseline of §7.2.
//!
//! ReluVal cannot produce counterexamples: on falsifiable properties it
//! keeps splitting until the timeout (matching §7.3, where it falsifies
//! zero benchmarks).

use std::time::{Duration, Instant};

use charon::RobustnessProperty;
use domains::symbolic::{propagate_symbolic, smear_values};
use domains::Bounds;
use nn::{Layer, Network};

use crate::ToolVerdict;

/// Configuration of the ReluVal baseline.
#[derive(Debug, Clone)]
pub struct ReluValConfig {
    /// Maximum bisection depth before giving up on a branch.
    pub max_depth: usize,
    /// Bisection-node budget: the most regions one analysis propagates
    /// before it returns [`ToolVerdict::Timeout`], as the wall-clock
    /// budget does. A work budget makes a run that cannot finish stop at
    /// the same point on every machine. Unbounded by default.
    pub max_nodes: usize,
}

impl Default for ReluValConfig {
    fn default() -> Self {
        ReluValConfig {
            max_depth: 40,
            max_nodes: usize::MAX,
        }
    }
}

/// The ReluVal analyzer.
#[derive(Debug, Clone, Default)]
pub struct ReluVal {
    config: ReluValConfig,
}

impl ReluVal {
    /// Creates a ReluVal instance with the given configuration.
    pub fn new(config: ReluValConfig) -> Self {
        ReluVal { config }
    }

    /// Analyzes a property with a wall-clock budget (and the node budget
    /// of [`ReluValConfig::max_nodes`]); whichever runs out first ends
    /// the analysis with [`ToolVerdict::Timeout`].
    ///
    /// Returns [`ToolVerdict::Unsupported`] for networks containing
    /// max-pooling layers (like the original tool, which handles only
    /// fully-connected ReLU networks).
    pub fn analyze(
        &self,
        net: &Network,
        property: &RobustnessProperty,
        timeout: Duration,
    ) -> ToolVerdict {
        if net.layers().iter().any(|l| matches!(l, Layer::MaxPool(_))) {
            return ToolVerdict::Unsupported;
        }
        let deadline = Instant::now() + timeout;
        let target = property.target();
        let mut stack: Vec<(Bounds, usize)> = vec![(property.region().clone(), 0)];
        let mut exhausted_depth = false;
        let mut nodes = 0;

        while let Some((region, depth)) = stack.pop() {
            if nodes >= self.config.max_nodes || Instant::now() >= deadline {
                return ToolVerdict::Timeout;
            }
            nodes += 1;
            let sym = propagate_symbolic(net, &region);
            if sym.margin_lower_bound(target) > 0.0 {
                continue;
            }
            if depth >= self.config.max_depth {
                exhausted_depth = true;
                continue;
            }
            // Split on the highest-smear dimension (ReluVal's heuristic);
            // fall back to the widest dimension when the smear signal is
            // degenerate.
            let smear = smear_values(net, &region);
            let widths = region.widths();
            let mut dim = tensor::ops::argmax(&smear);
            if widths[dim] <= 0.0 || smear[dim] <= 0.0 {
                dim = region.longest_dim();
            }
            if widths[dim] <= f64::EPSILON {
                // Cannot split further; treat as an undecidable leaf.
                exhausted_depth = true;
                continue;
            }
            let mid = 0.5 * (region.lower()[dim] + region.upper()[dim]);
            let (a, b) = region.split_at(dim, mid);
            stack.push((a, depth + 1));
            stack.push((b, depth + 1));
        }

        if exhausted_depth {
            ToolVerdict::Unknown
        } else {
            ToolVerdict::Verified
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    const BUDGET: Duration = Duration::from_secs(10);

    #[test]
    fn verifies_xor_example_3_1() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        assert_eq!(
            ReluVal::default().analyze(&net, &prop, BUDGET),
            ToolVerdict::Verified
        );
    }

    #[test]
    fn verifies_example_2_2() {
        let net = samples::example_2_2_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![-1.0], vec![1.0]), 1);
        assert_eq!(
            ReluVal::default().analyze(&net, &prop, BUDGET),
            ToolVerdict::Verified
        );
    }

    #[test]
    fn cannot_falsify_only_times_out_or_exhausts() {
        let net = samples::example_2_2_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![-1.0], vec![2.0]), 1);
        let verdict = ReluVal::new(ReluValConfig {
            max_depth: 10,
            ..ReluValConfig::default()
        })
        .analyze(&net, &prop, Duration::from_millis(500));
        assert!(
            matches!(verdict, ToolVerdict::Unknown | ToolVerdict::Timeout),
            "ReluVal must not decide a falsifiable property: {verdict:?}"
        );
    }

    #[test]
    fn node_budget_ends_a_refutable_run_with_timeout() {
        let net = samples::example_2_2_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![-1.0], vec![2.0]), 1);
        let budgeted = ReluVal::new(ReluValConfig {
            max_nodes: 50,
            ..ReluValConfig::default()
        });
        // The wall clock is far away; only the node budget can stop it.
        let verdict = budgeted.analyze(&net, &prop, Duration::from_secs(3600));
        assert_eq!(verdict, ToolVerdict::Timeout);
        // The budget does not touch a property that verifies within it.
        let robust = RobustnessProperty::new(Bounds::new(vec![-1.0], vec![1.0]), 1);
        assert_eq!(
            budgeted.analyze(&net, &robust, Duration::from_secs(3600)),
            ToolVerdict::Verified
        );
    }

    #[test]
    fn rejects_maxpool_networks() {
        let pool = nn::conv::max_pool_groups(nn::conv::Shape3::new(1, 2, 2), 2);
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(pool),
                Layer::Affine(nn::AffineLayer::new(
                    tensor::Matrix::from_rows(&[&[1.0], &[-1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0; 4], vec![1.0; 4]), 0);
        assert_eq!(
            ReluVal::default().analyze(&net, &prop, BUDGET),
            ToolVerdict::Unsupported
        );
    }

    #[test]
    fn verifies_example_2_3_via_splitting() {
        let net = samples::example_2_3_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        assert_eq!(
            ReluVal::default().analyze(&net, &prop, BUDGET),
            ToolVerdict::Verified
        );
    }
}
