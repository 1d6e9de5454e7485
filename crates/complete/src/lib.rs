//! A complete decision procedure for local robustness of fully-connected
//! ReLU networks: LP relaxation plus ReLU case splitting.
//!
//! The paper's conclusion (§9) observes that "one can view solver-based
//! techniques as a perfectly precise abstract domain" and proposes letting
//! the verification policy *learn when to apply solvers*. This crate is
//! that solver, factored out of the Reluplex baseline so that both
//! `baselines::reluplex` (as a standalone tool) and `charon` (as a
//! policy-selectable exact domain) can use it:
//!
//! 1. Every neuron becomes an LP variable; interval analysis provides
//!    finite bounds and fixes stable ReLUs.
//! 2. For each rival class `j != K`, the procedure searches for a point
//!    with `y_j >= y_K` by depth-first case splitting on the unstable
//!    ReLUs, pruning branches whose *triangle relaxation* LP already
//!    proves `max(y_j - y_K) < 0` or is infeasible.
//! 3. A fully-fixed feasible leaf yields an exact LP solution, which is a
//!    concrete counterexample.
//!
//! The procedure is sound and complete but exponential in the number of
//! unstable neurons. The [`refine`] module reuses the same LP encoding
//! for *bound refinement* (tightening pre-activation intervals before an
//! abstract domain runs), the paper's "combine solvers and numerical
//! domains" idea.
//!
//! # Examples
//!
//! ```
//! use complete::{CompleteSolver, Decision};
//! use domains::Bounds;
//!
//! let net = nn::samples::example_2_2_network();
//! let solver = CompleteSolver::default();
//! let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
//! // Robust on [-1, 1]:
//! assert!(matches!(
//!     solver.decide(&net, &Bounds::new(vec![-1.0], vec![1.0]), 1, deadline),
//!     Decision::Proved
//! ));
//! // Violated on [-1, 2]:
//! assert!(matches!(
//!     solver.decide(&net, &Bounds::new(vec![-1.0], vec![2.0]), 1, deadline),
//!     Decision::Violated(_)
//! ));
//! ```

pub mod refine;

use std::time::Instant;

use domains::{AbstractElement, Bounds, Interval};
use lp::{Constraint, LpOutcome, LpProblem};
use nn::{Layer, Network};

/// Result of the complete decision procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The property holds: every point in the region is classified as the
    /// target class.
    Proved,
    /// A concrete counterexample (a point with non-positive margin).
    Violated(Vec<f64>),
    /// The node or time budget ran out before a decision.
    Budget,
}

/// Configuration of the complete solver.
#[derive(Debug, Clone)]
pub struct CompleteSolver {
    /// Maximum number of search nodes (LP solves) per rival class.
    pub max_nodes: usize,
    /// Numerical tolerance for pruning (`min(y_K - y_j) > tol` prunes).
    pub tolerance: f64,
}

impl Default for CompleteSolver {
    fn default() -> Self {
        CompleteSolver {
            max_nodes: 100_000,
            tolerance: 1e-9,
        }
    }
}

/// Whether the solver supports this architecture (no max-pooling).
pub fn supports(net: &Network) -> bool {
    !net.layers().iter().any(|l| matches!(l, Layer::MaxPool(_)))
}

impl CompleteSolver {
    /// Creates a solver with a node budget per rival class.
    pub fn with_node_budget(max_nodes: usize) -> Self {
        CompleteSolver {
            max_nodes,
            ..CompleteSolver::default()
        }
    }

    /// Decides whether every point of `region` is classified as `target`.
    ///
    /// # Panics
    ///
    /// Panics if the network contains max-pooling layers (check
    /// [`supports`] first), if dimensions mismatch, or if `target` is out
    /// of range.
    pub fn decide(
        &self,
        net: &Network,
        region: &Bounds,
        target: usize,
        deadline: Instant,
    ) -> Decision {
        assert!(supports(net), "max-pooling not supported; call supports()");
        assert!(target < net.output_dim(), "target class out of range");
        assert_eq!(region.dim(), net.input_dim(), "region dimension mismatch");
        let encoding = encode(net, region);

        for rival in 0..net.output_dim() {
            if rival == target {
                continue;
            }
            match self.search_rival(net, region, &encoding, target, rival, deadline) {
                RivalOutcome::NoViolation => continue,
                RivalOutcome::Falsified(x) => return Decision::Violated(x),
                RivalOutcome::Budget => return Decision::Budget,
            }
        }
        Decision::Proved
    }

    /// DFS over ReLU phases, looking for `y_rival >= y_target`.
    fn search_rival(
        &self,
        net: &Network,
        region: &Bounds,
        enc: &Encoding,
        target: usize,
        rival: usize,
        deadline: Instant,
    ) -> RivalOutcome {
        let mut stack: Vec<Vec<Phase>> = vec![vec![Phase::Undecided; enc.unstable.len()]];
        let mut nodes = 0usize;

        while let Some(phases) = stack.pop() {
            if Instant::now() >= deadline {
                return RivalOutcome::Budget;
            }
            nodes += 1;
            if nodes > self.max_nodes {
                return RivalOutcome::Budget;
            }

            let problem = build_lp(enc, &phases, target, rival);
            match problem.solve_until(deadline) {
                LpOutcome::Infeasible => continue,
                LpOutcome::IterationLimit => {
                    // Either the deadline passed mid-solve or the LP is
                    // numerically stuck; both end the search for this
                    // rival without a proof.
                    return RivalOutcome::Budget;
                }
                LpOutcome::Optimal { x, value } => {
                    if value > self.tolerance {
                        // min(y_target - y_rival) > 0: no violation here.
                        continue;
                    }
                    match pick_undecided(enc, &phases) {
                        Some(split) => push_branches(&mut stack, &phases, split),
                        None => {
                            // Exact leaf: the LP point is a real input.
                            let mut input: Vec<f64> = x[..net.input_dim()].to_vec();
                            region.clamp(&mut input);
                            let margin = net.objective(&input, target);
                            if margin <= 0.0 {
                                return RivalOutcome::Falsified(input);
                            }
                            // Tolerance artifact; not a real violation.
                            continue;
                        }
                    }
                }
            }
        }
        RivalOutcome::NoViolation
    }
}

enum RivalOutcome {
    NoViolation,
    Falsified(Vec<f64>),
    Budget,
}

/// Phase assignment for one unstable ReLU during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Undecided,
    Active,
    Inactive,
}

/// LP encoding of a network over an input region.
struct Encoding {
    /// Total number of LP variables.
    num_vars: usize,
    /// Per-variable finite bounds.
    bounds: Vec<(f64, f64)>,
    /// Constraints shared by every branch (affine equalities, stable
    /// ReLU equalities), stored sparsely.
    base: Vec<SparseEq>,
    /// Unstable ReLU connections `(z_var, a_var, z_lo, z_hi)`.
    unstable: Vec<(usize, usize, f64, f64)>,
    /// Variable indices of the output block.
    outputs: Vec<usize>,
}

/// A sparse linear equality `sum entries . x = rhs`.
struct SparseEq {
    entries: Vec<(usize, f64)>,
    rhs: f64,
}

impl SparseEq {
    fn densify(&self, num_vars: usize) -> Constraint {
        let mut coeffs = vec![0.0; num_vars];
        for &(i, v) in &self.entries {
            coeffs[i] = v;
        }
        Constraint::eq(coeffs, self.rhs)
    }
}

/// Chooses the undecided ReLU with the widest zero straddle.
fn pick_undecided(enc: &Encoding, phases: &[Phase]) -> Option<usize> {
    phases
        .iter()
        .enumerate()
        .filter(|(_, p)| **p == Phase::Undecided)
        .max_by(|(a, _), (b, _)| {
            let wa = enc.unstable[*a].3.min(-enc.unstable[*a].2);
            let wb = enc.unstable[*b].3.min(-enc.unstable[*b].2);
            wa.total_cmp(&wb)
        })
        .map(|(i, _)| i)
}

fn push_branches(stack: &mut Vec<Vec<Phase>>, phases: &[Phase], split: usize) {
    let mut active = phases.to_vec();
    active[split] = Phase::Active;
    let mut inactive = phases.to_vec();
    inactive[split] = Phase::Inactive;
    stack.push(active);
    stack.push(inactive);
}

/// Builds the LP variable layout and base constraints for a network.
fn encode(net: &Network, region: &Bounds) -> Encoding {
    let mut bounds: Vec<(f64, f64)> = region
        .lower()
        .iter()
        .zip(region.upper().iter())
        .map(|(l, u)| (*l, *u))
        .collect();
    let mut base: Vec<SparseEq> = Vec::new();
    let mut unstable: Vec<(usize, usize, f64, f64)> = Vec::new();

    // `current` holds the variable indices of the live block; `interval`
    // tracks its concrete bounds for stability analysis.
    let mut current: Vec<usize> = (0..net.input_dim()).collect();
    let mut interval = Interval::from_bounds(region);

    for layer in net.layers() {
        match layer {
            Layer::Affine(a) => {
                let next_interval = interval.affine(a);
                let nb = next_interval.bounds();
                let first = bounds.len();
                for r in 0..a.output_dim() {
                    bounds.push((nb.lower()[r], nb.upper()[r]));
                }
                // z_r - sum_c W[r][c] * prev_c = b_r
                for r in 0..a.output_dim() {
                    let mut entries: Vec<(usize, f64)> = vec![(first + r, 1.0)];
                    for (c, w) in a.weights.row(r).iter().enumerate() {
                        if *w != 0.0 {
                            entries.push((current[c], -*w));
                        }
                    }
                    base.push(SparseEq {
                        entries,
                        rhs: a.bias[r],
                    });
                }
                current = (first..first + a.output_dim()).collect();
                interval = next_interval;
            }
            Layer::Relu => {
                let pre = interval.bounds();
                let first = bounds.len();
                for (slot, &z_var) in current.iter().enumerate() {
                    let (l, u) = (pre.lower()[slot], pre.upper()[slot]);
                    let a_var = first + slot;
                    if u <= 0.0 {
                        bounds.push((0.0, 0.0));
                    } else if l >= 0.0 {
                        bounds.push((l, u));
                        // a = z
                        base.push(SparseEq {
                            entries: vec![(a_var, 1.0), (z_var, -1.0)],
                            rhs: 0.0,
                        });
                    } else {
                        bounds.push((0.0, u));
                        unstable.push((z_var, a_var, l, u));
                    }
                }
                current = (first..first + current.len()).collect();
                interval = interval.relu();
            }
            Layer::MaxPool(_) => unreachable!("max-pool rejected before encoding"),
        }
    }

    Encoding {
        num_vars: bounds.len(),
        bounds,
        base,
        unstable,
        outputs: current,
    }
}

/// Builds the LP for a specific phase assignment and rival class.
fn build_lp(enc: &Encoding, phases: &[Phase], target: usize, rival: usize) -> LpProblem {
    let n = enc.num_vars;
    let mut p = LpProblem::new(n);
    for (v, (lo, hi)) in enc.bounds.iter().enumerate() {
        p.set_bounds(v, *lo, *hi);
    }
    for c in &enc.base {
        p.add_constraint(c.densify(n));
    }
    for (slot, &(z, a, l, u)) in enc.unstable.iter().enumerate() {
        match phases[slot] {
            Phase::Active => {
                let mut coeffs = vec![0.0; n];
                coeffs[a] = 1.0;
                coeffs[z] = -1.0;
                p.add_constraint(Constraint::eq(coeffs, 0.0));
                // z >= 0
                let mut coeffs = vec![0.0; n];
                coeffs[z] = 1.0;
                p.add_constraint(Constraint::ge(coeffs, 0.0));
            }
            Phase::Inactive => {
                // a = 0
                let mut coeffs = vec![0.0; n];
                coeffs[a] = 1.0;
                p.add_constraint(Constraint::eq(coeffs, 0.0));
                // z <= 0
                let mut coeffs = vec![0.0; n];
                coeffs[z] = 1.0;
                p.add_constraint(Constraint::le(coeffs, 0.0));
            }
            Phase::Undecided => {
                // Triangle relaxation: a >= z, a >= 0 (bound), and
                // (u - l) a - u z <= -u l.
                let mut coeffs = vec![0.0; n];
                coeffs[a] = 1.0;
                coeffs[z] = -1.0;
                p.add_constraint(Constraint::ge(coeffs, 0.0));
                let mut coeffs = vec![0.0; n];
                coeffs[a] = u - l;
                coeffs[z] = -u;
                p.add_constraint(Constraint::le(coeffs, -u * l));
            }
        }
    }
    // Violation search: y_rival >= y_target, i.e. y_target - y_rival <= 0.
    let mut coeffs = vec![0.0; n];
    coeffs[enc.outputs[target]] = 1.0;
    coeffs[enc.outputs[rival]] = -1.0;
    p.add_constraint(Constraint::le(coeffs.clone(), 0.0));
    // Objective: minimize y_target - y_rival (most violating point).
    p.set_objective(coeffs);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn proves_xor_example_3_1() {
        let net = nn::samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        assert_eq!(
            CompleteSolver::default().decide(&net, &region, 1, far_deadline()),
            Decision::Proved
        );
    }

    #[test]
    fn violates_xor_unit_square() {
        let net = nn::samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        match CompleteSolver::default().decide(&net, &region, 1, far_deadline()) {
            Decision::Violated(x) => {
                assert!(region.contains(&x));
                assert!(net.objective(&x, 1) <= 0.0);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn proves_example_2_3() {
        let net = nn::samples::example_2_3_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(
            CompleteSolver::default().decide(&net, &region, 1, far_deadline()),
            Decision::Proved
        );
    }

    #[test]
    fn budget_zero_nodes() {
        let net = nn::samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let solver = CompleteSolver::with_node_budget(0);
        assert_eq!(
            solver.decide(&net, &region, 1, far_deadline()),
            Decision::Budget
        );
    }

    #[test]
    fn expired_deadline_returns_budget() {
        let net = nn::samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(
            CompleteSolver::default().decide(&net, &region, 1, past),
            Decision::Budget
        );
    }

    #[test]
    fn supports_rejects_maxpool() {
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
        assert!(!supports(&net));
        assert!(supports(&nn::samples::xor_network()));
    }

    #[test]
    fn agrees_with_exhaustive_sampling_on_random_nets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for seed in 0..5 {
            let net = nn::train::random_mlp(2, &[5], 2, seed);
            let center = [rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3)];
            let target = net.classify(&center);
            let region = Bounds::linf_ball(&center, 0.4, None);
            let decision = CompleteSolver::default().decide(&net, &region, target, far_deadline());
            // Dense grid sampling as an (incomplete) oracle.
            let mut sample_violation = false;
            for i in 0..=30 {
                for j in 0..=30 {
                    let x = [
                        region.lower()[0]
                            + (region.upper()[0] - region.lower()[0]) * i as f64 / 30.0,
                        region.lower()[1]
                            + (region.upper()[1] - region.lower()[1]) * j as f64 / 30.0,
                    ];
                    if net.classify(&x) != target {
                        sample_violation = true;
                    }
                }
            }
            match decision {
                Decision::Proved => assert!(
                    !sample_violation,
                    "seed {seed}: proved but grid found a violation"
                ),
                Decision::Violated(_) => {}
                Decision::Budget => panic!("seed {seed}: tiny net hit budget"),
            }
        }
    }
}
