//! Verification policies: how to choose abstract domains and region splits.
//!
//! A policy `π_θ = (π^α_θ, π^I_θ)` (§4.1) maps the current verification
//! context to (a) an abstract domain and (b) a splitting hyperplane. The
//! learned [`LinearPolicy`] follows Eq. 3: a selection function applied to
//! `θ · ρ(ι)` where `ρ` is the featurization of §6. The hand-crafted
//! [`FixedPolicy`] serves as the ablation baseline of RQ3.

use domains::{symbolic, BaseDomain, Bounds, DomainChoice};
use nn::Network;
use tensor::Matrix;

/// Everything a policy may inspect when making a decision: the network,
/// the property, and the result of counterexample search.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    /// The network under analysis.
    pub net: &'a Network,
    /// The current input region.
    pub region: &'a Bounds,
    /// The target class of the property.
    pub target: usize,
    /// The minimizer of the robustness objective over the region (`x*`).
    pub x_star: &'a [f64],
    /// The objective value `F(x*)`.
    pub objective: f64,
}

/// A split decision: cut the region with the hyperplane `x_dim = at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitPlan {
    /// Dimension to split along.
    pub dim: usize,
    /// Position of the splitting hyperplane.
    pub at: f64,
}

/// The analysis a domain policy can select for a region.
///
/// Besides the paper's interval/zonotope powerset lattice, two extensions
/// from §9 are selectable: the DeepPoly back-substitution domain
/// ("a broader set of abstract domains") and the complete LP-based solver
/// viewed as "a perfectly precise abstract domain" with a node budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainSelection {
    /// One of the classic domains: intervals/zonotopes with a disjunct
    /// budget.
    Abstract(DomainChoice),
    /// The DeepPoly back-substitution domain.
    DeepPoly,
    /// The zonotope domain with LP-refined pre-activation bounds
    /// (RefineZono-style; the §9 "combine solvers and numerical domains"
    /// idea).
    RefinedZonotope {
        /// Maximum number of refined neurons per ReLU layer.
        lp_per_layer: usize,
    },
    /// The complete solver, bounded by a search-node budget.
    Solver {
        /// Maximum number of case-split nodes to explore.
        node_budget: usize,
    },
}

impl std::fmt::Display for DomainSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainSelection::Abstract(c) => write!(f, "{c}"),
            DomainSelection::DeepPoly => write!(f, "(DP, 1)"),
            DomainSelection::RefinedZonotope { lp_per_layer } => {
                write!(f, "(RZ, {lp_per_layer})")
            }
            DomainSelection::Solver { node_budget } => write!(f, "(LP, {node_budget})"),
        }
    }
}

/// A verification policy: chooses abstract domains (π^α) and region
/// splits (π^I).
pub trait Policy: Send + Sync {
    /// The domain policy π^α: which analysis to try on this region.
    fn choose_domain(&self, ctx: &PolicyContext<'_>) -> DomainSelection;

    /// The partition policy π^I: how to split the region in two.
    ///
    /// Implementations must satisfy Assumption 1: both halves strictly
    /// smaller in diameter (i.e. the split plane stays away from the
    /// region boundary).
    fn choose_split(&self, ctx: &PolicyContext<'_>) -> SplitPlan;
}

/// The featurization function ρ of §6. Produces the five features:
///
/// 1. distance between the region center and `x*`,
/// 2. the objective value `F(x*)`,
/// 3. the gradient magnitude of the network objective at `x*`,
/// 4. the mean width of the region,
/// 5. a constant bias term.
pub fn featurize(ctx: &PolicyContext<'_>) -> [f64; NUM_FEATURES] {
    let center = ctx.region.center();
    let dist = tensor::ops::distance(&center, ctx.x_star);
    let grad = ctx.net.objective_gradient(ctx.x_star, ctx.target);
    [
        dist,
        ctx.objective,
        tensor::ops::norm2(&grad),
        ctx.region.mean_width(),
        1.0,
    ]
}

/// Number of features produced by [`featurize`].
pub const NUM_FEATURES: usize = 5;

/// Rows of θ consumed by the domain selection function φ^α.
pub const DOMAIN_OUTPUTS: usize = 2;

/// Rows of θ consumed by the partition selection function φ^I.
pub const PARTITION_OUTPUTS: usize = 3;

/// Total number of learnable parameters of a [`LinearPolicy`].
pub const NUM_PARAMS: usize = (DOMAIN_OUTPUTS + PARTITION_OUTPUTS) * NUM_FEATURES;

/// Disjunct budgets selectable by φ^α, in selection order.
const DISJUNCT_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// Case-split node budget when the policy selects the complete solver.
const SOLVER_NODE_BUDGET: usize = 64;

/// Per-layer LP budget when the policy selects the refined zonotope.
const REFINE_LP_BUDGET: usize = 8;

/// Fraction of the region width kept clear of the boundary when placing a
/// split plane (enforces Assumption 1).
const SPLIT_MARGIN: f64 = 0.05;

/// The learned linear policy of Eq. 3: `φ(θ ρ(ι))`.
///
/// `θ` is a `(DOMAIN_OUTPUTS + PARTITION_OUTPUTS) x NUM_FEATURES` matrix;
/// [`train`](crate::train) fits it with Bayesian optimization.
#[derive(Debug, Clone)]
pub struct LinearPolicy {
    theta: Vec<f64>,
}

impl LinearPolicy {
    /// Creates a policy from a flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != NUM_PARAMS`.
    pub fn from_params(params: Vec<f64>) -> Self {
        assert_eq!(params.len(), NUM_PARAMS, "bad parameter vector length");
        LinearPolicy { theta: params }
    }

    /// The flat parameter vector (row-major θ).
    pub fn params(&self) -> &[f64] {
        &self.theta
    }

    /// A reasonable hand-initialized starting point: prefers zonotopes
    /// with a small disjunct budget and splits the longest dimension at
    /// the midpoint.
    pub fn default_params() -> Vec<f64> {
        let mut theta = vec![0.0; NUM_PARAMS];
        // Domain row 0 (base selection): bias towards zonotope (>= 0.5).
        theta[4] = 0.8;
        // Domain row 1 (disjuncts): bias towards 2 disjuncts.
        theta[NUM_FEATURES + 4] = 0.3;
        // Partition rows 0/1 (longest vs influence): slight preference
        // for the longest dimension.
        theta[2 * NUM_FEATURES + 4] = 0.6;
        theta[3 * NUM_FEATURES + 4] = 0.4;
        // Partition row 2 (offset): bisection (0 => midpoint).
        theta[4 * NUM_FEATURES + 4] = 0.0;
        theta
    }

    /// Serializes the policy parameters to a one-line-per-value text
    /// format with an identifying header.
    pub fn to_text(&self) -> String {
        let mut out = String::from("charon-policy 1\n");
        for v in &self.theta {
            out.push_str(&format!("{v:?}\n"));
        }
        out
    }

    /// Parses a policy saved by [`LinearPolicy::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message if the header or the parameter count is wrong.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("charon-policy 1") {
            return Err("bad header (expected 'charon-policy 1')".into());
        }
        let params: Result<Vec<f64>, _> = lines.map(|l| l.parse::<f64>()).collect();
        let params = params.map_err(|e| format!("bad parameter: {e}"))?;
        if params.len() != NUM_PARAMS {
            return Err(format!(
                "expected {NUM_PARAMS} parameters, got {}",
                params.len()
            ));
        }
        Ok(LinearPolicy::from_params(params))
    }

    fn theta_matrix(&self) -> Matrix {
        Matrix::from_vec(
            DOMAIN_OUTPUTS + PARTITION_OUTPUTS,
            NUM_FEATURES,
            self.theta.clone(),
        )
    }

    fn raw_outputs(&self, ctx: &PolicyContext<'_>) -> Vec<f64> {
        let feats = featurize(ctx);
        self.theta_matrix().matvec(&feats)
    }
}

impl Default for LinearPolicy {
    fn default() -> Self {
        LinearPolicy::from_params(Self::default_params())
    }
}

impl Policy for LinearPolicy {
    fn choose_domain(&self, ctx: &PolicyContext<'_>) -> DomainSelection {
        let out = self.raw_outputs(ctx);
        // φ^α: clip and discretize (§6). The [0, 1] range is carved into
        // interval / zonotope / DeepPoly / solver bands; the §9 extension
        // domains occupy the top of the range so that the paper's
        // original policy space is a sub-space of this one.
        let selector = out[0].clamp(0.0, 1.0);
        if selector >= 0.97 {
            return DomainSelection::Solver {
                node_budget: SOLVER_NODE_BUDGET,
            };
        }
        if selector >= 0.93 {
            return DomainSelection::RefinedZonotope {
                lp_per_layer: REFINE_LP_BUDGET,
            };
        }
        if selector >= 0.85 {
            return DomainSelection::DeepPoly;
        }
        let base = if selector < 0.35 {
            BaseDomain::Interval
        } else {
            BaseDomain::Zonotope
        };
        let level = (out[1].clamp(0.0, 1.0) * (DISJUNCT_LEVELS.len() as f64 - 1e-9)) as usize;
        DomainSelection::Abstract(DomainChoice::powerset(
            base,
            DISJUNCT_LEVELS[level.min(DISJUNCT_LEVELS.len() - 1)],
        ))
    }

    fn choose_split(&self, ctx: &PolicyContext<'_>) -> SplitPlan {
        let out = self.raw_outputs(ctx);
        let (a, b, offset_raw) = (
            out[DOMAIN_OUTPUTS],
            out[DOMAIN_OUTPUTS + 1],
            out[DOMAIN_OUTPUTS + 2],
        );
        // φ^I: pick between the longest dimension and the most influential
        // dimension (§6), whichever of the two scores is larger.
        let dim = if a >= b {
            ctx.region.longest_dim()
        } else {
            symbolic::influence_dim(ctx.net, ctx.region, ctx.target)
        };
        // The offset is a ratio of the distance from the region center to
        // x*: 0 bisects, 1 passes through x*.
        let ratio = offset_raw.clamp(0.0, 1.0);
        let center = ctx.region.center();
        let desired = center[dim] + ratio * (ctx.x_star[dim] - center[dim]);
        SplitPlan {
            dim,
            at: clamp_split(ctx.region, dim, desired),
        }
    }
}

/// Clamps a proposed split position away from the region boundary so that
/// both halves strictly shrink (Assumption 1). Falls back to the midpoint
/// for degenerate widths.
pub fn clamp_split(region: &Bounds, dim: usize, desired: f64) -> f64 {
    let lo = region.lower()[dim];
    let hi = region.upper()[dim];
    let width = hi - lo;
    if width <= 0.0 {
        return lo;
    }
    let margin = SPLIT_MARGIN * width;
    desired.clamp(lo + margin, hi - margin)
}

/// Partitions a region into `n` disjoint shards by repeated bisection of
/// the longest dimension (midpoint splits, so Assumption 1 holds for
/// every shard: each is strictly smaller than the original in diameter
/// whenever any dimension has positive width).
///
/// The shards cover the region exactly — their union is the input and
/// their interiors are disjoint — so a property verified on every shard
/// is verified on the whole region, and a counterexample in any shard is
/// a counterexample for the whole region. This is the decomposition the
/// coordinator tier uses to fan a property out across shard-worker
/// nodes.
///
/// `n == 0` is treated as 1. When `n` is not a power of two the widest
/// shards are bisected preferentially, so shard volumes differ by at
/// most a factor of two.
pub fn shard_region(region: &Bounds, n: usize) -> Vec<Bounds> {
    let mut shards = vec![region.clone()];
    while shards.len() < n.max(1) {
        // Split the shard with the longest edge; ties go to the earliest,
        // keeping the decomposition deterministic.
        let (widest, _) = shards
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let d = b.longest_dim();
                (i, b.upper()[d] - b.lower()[d])
            })
            .fold((0, f64::NEG_INFINITY), |best, cand| {
                if cand.1 > best.1 {
                    cand
                } else {
                    best
                }
            });
        let shard = shards.swap_remove(widest);
        let dim = shard.longest_dim();
        let mid = 0.5 * (shard.lower()[dim] + shard.upper()[dim]);
        if !(shard.lower()[dim] < mid && mid < shard.upper()[dim]) {
            // Degenerate (zero-width or sub-ulp) region: cannot split
            // further, return what we have.
            shards.push(shard);
            break;
        }
        let (left, right) = shard.split_at(dim, mid);
        shards.push(left);
        shards.push(right);
    }
    shards
}

/// A hand-crafted policy: fixed analysis selection, bisection of the
/// longest dimension. This is the "no learning" ablation baseline (RQ3)
/// and also mirrors how AI2 must be driven with a user-chosen domain.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    /// Analysis used for every region.
    pub selection: DomainSelection,
    /// If true, split the most influential dimension instead of the
    /// longest one.
    pub split_influence: bool,
}

impl FixedPolicy {
    /// Fixed policy using the given classic abstract domain and
    /// longest-dimension bisection.
    pub fn new(domain: DomainChoice) -> Self {
        FixedPolicy {
            selection: DomainSelection::Abstract(domain),
            split_influence: false,
        }
    }

    /// Fixed policy using an arbitrary [`DomainSelection`].
    pub fn with_selection(selection: DomainSelection) -> Self {
        FixedPolicy {
            selection,
            split_influence: false,
        }
    }
}

impl Policy for FixedPolicy {
    fn choose_domain(&self, _ctx: &PolicyContext<'_>) -> DomainSelection {
        self.selection
    }

    fn choose_split(&self, ctx: &PolicyContext<'_>) -> SplitPlan {
        let dim = if self.split_influence {
            symbolic::influence_dim(ctx.net, ctx.region, ctx.target)
        } else {
            ctx.region.longest_dim()
        };
        let mid = 0.5 * (ctx.region.lower()[dim] + ctx.region.upper()[dim]);
        SplitPlan {
            dim,
            at: clamp_split(ctx.region, dim, mid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    fn ctx_for<'a>(net: &'a Network, region: &'a Bounds, x_star: &'a [f64]) -> PolicyContext<'a> {
        PolicyContext {
            net,
            region,
            target: 1,
            x_star,
            objective: net.objective(x_star, 1),
        }
    }

    #[test]
    fn featurize_produces_expected_shape() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let x_star = vec![0.5, 0.5];
        let f = featurize(&ctx_for(&net, &region, &x_star));
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f[0], 0.0, "x* at center => zero distance");
        assert!((f[3] - 0.4).abs() < 1e-12, "mean width");
        assert_eq!(f[4], 1.0, "bias");
    }

    #[test]
    fn default_policy_chooses_zonotope() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let x_star = vec![0.5, 0.5];
        let policy = LinearPolicy::default();
        let choice = policy.choose_domain(&ctx_for(&net, &region, &x_star));
        match choice {
            DomainSelection::Abstract(c) => {
                assert_eq!(c.base, BaseDomain::Zonotope);
                assert!(c.disjuncts >= 1);
            }
            other => panic!("default policy should pick a classic domain, got {other}"),
        }
    }

    #[test]
    fn split_respects_assumption_1() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // x* at the very corner: the raw split would hit the boundary.
        let x_star = vec![1.0, 1.0];
        let mut params = LinearPolicy::default_params();
        // Force offset ratio 1 (split through x*).
        params[4 * NUM_FEATURES + 4] = 10.0;
        let policy = LinearPolicy::from_params(params);
        let plan = policy.choose_split(&ctx_for(&net, &region, &x_star));
        let (l, r) = region.split_at(plan.dim, plan.at);
        assert!(l.diameter() < region.diameter());
        assert!(r.diameter() < region.diameter());
    }

    #[test]
    fn policy_text_roundtrip() {
        let policy = LinearPolicy::default();
        let parsed = LinearPolicy::from_text(&policy.to_text()).unwrap();
        assert_eq!(parsed.params(), policy.params());
        assert!(LinearPolicy::from_text("charon-policy 1\n1.0\n").is_err());
        assert!(LinearPolicy::from_text("junk").is_err());
    }

    #[test]
    fn fixed_policy_bisects() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![2.0, 1.0]);
        let x_star = vec![0.3, 0.3];
        let policy = FixedPolicy::new(DomainChoice::zonotope());
        let plan = policy.choose_split(&ctx_for(&net, &region, &x_star));
        assert_eq!(plan.dim, 0, "longest dimension");
        assert!((plan.at - 1.0).abs() < 1e-12, "midpoint");
    }

    #[test]
    fn extension_domains_selectable() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let x_star = vec![0.5, 0.5];
        // Sweep the base-domain output band via its bias weight.
        let select_with = |bias: f64| {
            let mut params = LinearPolicy::default_params();
            params[4] = bias;
            LinearPolicy::from_params(params).choose_domain(&ctx_for(&net, &region, &x_star))
        };
        assert!(matches!(
            select_with(0.1),
            DomainSelection::Abstract(c) if c.base == BaseDomain::Interval
        ));
        assert!(matches!(
            select_with(0.5),
            DomainSelection::Abstract(c) if c.base == BaseDomain::Zonotope
        ));
        assert_eq!(select_with(0.9), DomainSelection::DeepPoly);
        assert!(matches!(
            select_with(0.95),
            DomainSelection::RefinedZonotope { .. }
        ));
        assert!(matches!(select_with(5.0), DomainSelection::Solver { .. }));
    }

    #[test]
    fn clamp_split_margins() {
        let region = Bounds::new(vec![0.0], vec![1.0]);
        assert_eq!(clamp_split(&region, 0, -5.0), 0.05);
        assert_eq!(clamp_split(&region, 0, 5.0), 0.95);
        assert_eq!(clamp_split(&region, 0, 0.5), 0.5);
    }

    #[test]
    fn shard_region_partitions_exactly() {
        let region = Bounds::new(vec![0.0, 0.0], vec![4.0, 1.0]);
        for n in [1usize, 2, 3, 4, 5, 8] {
            let shards = shard_region(&region, n);
            assert_eq!(shards.len(), n, "requested {n} shards");
            // Total volume is preserved (the shards tile the region).
            let volume = |b: &Bounds| {
                b.lower()
                    .iter()
                    .zip(b.upper())
                    .map(|(l, u)| u - l)
                    .product::<f64>()
            };
            let total: f64 = shards.iter().map(volume).sum();
            assert!((total - 4.0).abs() < 1e-9, "n={n}: total volume {total}");
            // Every shard stays inside the region and strictly shrinks.
            for shard in &shards {
                assert!(region.contains(&shard.center()));
                if n > 1 {
                    assert!(shard.diameter() < region.diameter());
                }
            }
            // Shard interiors are pairwise disjoint: centers of one shard
            // are not contained in any other.
            for (i, a) in shards.iter().enumerate() {
                for (j, b) in shards.iter().enumerate() {
                    if i != j {
                        assert!(!b.contains(&a.center()), "shards {i} and {j} overlap");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_region_handles_degenerate_inputs() {
        // A zero-width region cannot be split: best effort, no panic.
        let point = Bounds::new(vec![0.5, 0.5], vec![0.5, 0.5]);
        assert_eq!(shard_region(&point, 4).len(), 1);
        // n = 0 is treated as 1.
        let region = Bounds::new(vec![0.0], vec![1.0]);
        assert_eq!(shard_region(&region, 0).len(), 1);
    }

    #[test]
    fn disjunct_levels_cover_selection_range() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let x_star = vec![0.5, 0.5];
        // Sweep the disjunct output via the bias weight.
        let mut seen = std::collections::HashSet::new();
        for bias in [-1.0, 0.1, 0.3, 0.6, 0.9, 2.0] {
            let mut params = LinearPolicy::default_params();
            params[NUM_FEATURES + 4] = bias;
            let p = LinearPolicy::from_params(params);
            if let DomainSelection::Abstract(c) = p.choose_domain(&ctx_for(&net, &region, &x_star))
            {
                seen.insert(c.disjuncts);
            }
        }
        assert!(seen.contains(&1) && seen.contains(&8), "seen {seen:?}");
    }
}
