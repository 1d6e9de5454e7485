//! Gradient-based adversarial counterexample search.
//!
//! Implements the optimization side of the paper (§3): minimizing the
//! robustness objective `F(x) = N(x)_K - max_{j != K} N(x)_j` (Eq. 2) over
//! an input region using projected gradient descent ([`pgd`]) with random
//! restarts ([`Minimizer`]), plus the fast gradient sign method
//! ([`fgsm_step`]) as a cheap alternative direction.
//!
//! A point with `F(x) <= 0` is a true adversarial counterexample; points
//! with `F(x) <= δ` are the δ-counterexamples of Definition 5.3.
//!
//! # API invariants
//!
//! * [`Minimizer::minimize`] always returns a point inside the given
//!   region (every step is projected back onto the box), and never
//!   reports an objective it did not evaluate at that point.
//! * The search is deterministic for a fixed seed and restart count.
//! * The minimizer itself does not filter non-finite objectives; the
//!   verifier treats a NaN objective as a poisoned attack (never as a
//!   refutation) and falls back to abstraction — see the failure model
//!   in the `charon` crate docs.
//! * [`Minimizer::minimize_from`] warm-starts the search from an
//!   incumbent (the best point of an enclosing region): PGD from the
//!   incumbent plus one coordinate sweep, no FGSM run and no random
//!   restarts. Without an incumbent it is [`Minimizer::minimize`] bit for
//!   bit.
//! * Every [`Minimizer`] search measures itself: its result carries one
//!   [`PhaseStat`] per phase that ran (center probe, FGSM, coordinate
//!   descent, PGD restarts; or warm PGD and coordinate descent) with
//!   evaluation counts, best objective, and wall time, held inline in
//!   [`AttackResult::phases`] so recording them allocates nothing. The
//!   cost is one clock read per phase.
//! * A PGD step costs one forward and one backward pass: the forward
//!   pass that evaluates `F` at the new iterate ([`nn::Network::forward`])
//!   is the trace the next gradient reads. The buffers are reused across
//!   steps, sweeps and the phases of one search, so [`pgd`] and
//!   [`coordinate_descent`] allocate a fixed number of times per call
//!   whatever the step or sweep count. `evals` still counts one per
//!   objective and one per gradient, and the search visits the same
//!   points, bit for bit, as when every gradient re-evaluated the
//!   network.
//!
//! # Examples
//!
//! ```
//! use attack::Minimizer;
//! use domains::Bounds;
//! use nn::samples;
//!
//! let net = samples::example_2_2_network();
//! // On [-1, 2] the property "class 1" is falsifiable (N(2) = [8, 6]).
//! let region = Bounds::new(vec![-1.0], vec![2.0]);
//! let result = Minimizer::new(1).with_restarts(8).minimize(&net, &region, 1);
//! assert!(result.objective <= 0.0, "PGD should find the violation");
//! ```

use domains::Bounds;
use nn::{BatchTrace, Network, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Matrix;

#[cfg(test)]
mod reference;

/// Replaces a NaN objective value with `+∞` so it can never be accepted
/// as a best-so-far or trip a `<= δ` refutation check. Networks with
/// poisoned parameters evaluate to NaN everywhere; the sentinel makes
/// every optimizer in this crate report "attack found nothing" instead
/// of returning a NaN that compares false with everything downstream.
fn sanitize_objective(f: f64) -> f64 {
    if f.is_nan() {
        f64::INFINITY
    } else {
        f
    }
}

/// Whether a gradient is usable for a descent step. Non-finite entries
/// (NaN or ±∞ from poisoned numerics) would teleport the iterate out of
/// the region or poison it outright.
fn gradient_is_finite(g: &[f64]) -> bool {
    g.iter().all(|v| v.is_finite())
}

/// Evaluation buffers one search reuses across its phases: the forward
/// traces the gradients are read from, and PGD's iterate and best point.
#[derive(Default)]
struct Scratch {
    trace: Trace,
    batch: BatchTrace,
    x: Vec<f64>,
    best: Vec<f64>,
}

/// Result of an optimization run: the best point found and its objective
/// value.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// The minimizing point `x*` (always inside the search region).
    pub point: Vec<f64>,
    /// The objective value `F(x*)`.
    pub objective: f64,
    /// Number of gradient evaluations performed.
    pub evals: usize,
    /// The phases of a [`Minimizer`] search that ran, in execution order.
    /// Empty for the single-run helpers ([`pgd`], [`pgd_batch`],
    /// [`coordinate_descent`]).
    pub phases: Phases,
}

/// Every phase name a [`Minimizer`] search can report, in a fixed order:
/// `warm` (PGD from an incumbent), then the cold search's `center`,
/// `fgsm`, `coordinate` and `restarts`. A cold search runs the last four
/// in that order; a warm one runs `warm` then `coordinate`.
pub const PHASES: [&str; 5] = ["warm", "center", "fgsm", "coordinate", "restarts"];

/// Timing and outcome of one attack phase of a [`Minimizer`] search.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Phase name, one of [`PHASES`].
    pub phase: &'static str,
    /// Gradient/objective evaluations this phase contributed.
    pub evals: usize,
    /// Best objective over the whole minimization *after* this phase.
    pub best_objective: f64,
    /// Wall-clock seconds of this phase.
    pub seconds: f64,
}

/// The phases one [`Minimizer`] search ran, in execution order.
///
/// Held inline (at most [`Phases::MAX`] entries), so recording them on
/// every search allocates nothing. A search that early-exits on a found
/// counterexample records only the phases that actually ran. Derefs to a
/// slice of [`PhaseStat`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    stats: [PhaseStat; Phases::MAX],
    len: usize,
}

impl Phases {
    /// The most phases one search runs (the cold search's four).
    pub const MAX: usize = 4;

    fn push(&mut self, stat: PhaseStat) {
        self.stats[self.len] = stat;
        self.len += 1;
    }
}

impl std::ops::Deref for Phases {
    type Target = [PhaseStat];

    fn deref(&self) -> &[PhaseStat] {
        &self.stats[..self.len]
    }
}

/// Configuration for projected gradient descent.
#[derive(Debug, Clone)]
pub struct PgdConfig {
    /// Number of gradient steps per run.
    pub steps: usize,
    /// Initial step size as a fraction of the mean region width.
    pub step_fraction: f64,
    /// Multiplicative step decay applied when a step fails to improve.
    pub decay: f64,
}

impl Default for PgdConfig {
    fn default() -> Self {
        PgdConfig {
            steps: 60,
            step_fraction: 0.25,
            decay: 0.7,
        }
    }
}

/// Runs projected gradient descent on the robustness objective from a
/// given starting point, returning the best point visited.
///
/// Early-exits as soon as the objective becomes non-positive (a true
/// counterexample has been found).
///
/// # Panics
///
/// Panics if `start` is not inside `region`, or dimensions mismatch.
pub fn pgd(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
) -> AttackResult {
    pgd_in(net, region, target, start, config, &mut Scratch::default())
}

/// [`pgd`] on caller-owned buffers. Each step runs one backward pass
/// through the trace of the forward pass that evaluated the current
/// iterate, then one forward pass at the next iterate.
fn pgd_in(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
    scratch: &mut Scratch,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    let Scratch { trace, x, best, .. } = scratch;
    x.clear();
    x.extend_from_slice(start);
    best.clone_from(x);
    net.forward(x, trace);
    let mut best_f = sanitize_objective(trace.objective(target));
    let mut evals = 1;
    let mut step = config.step_fraction * region.mean_width().max(1e-12);

    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        let g = net.objective_backward(trace, target);
        evals += 1;
        if !gradient_is_finite(g) {
            break;
        }
        let norm = tensor::ops::norm2(g);
        if norm < 1e-12 {
            break;
        }
        // Descend: x <- Proj(x - step * g / |g|)
        for (xi, gi) in x.iter_mut().zip(g.iter()) {
            *xi -= step * gi / norm;
        }
        region.clamp(x);
        net.forward(x, trace);
        let f = sanitize_objective(trace.objective(target));
        evals += 1;
        if f < best_f {
            best_f = f;
            best.copy_from_slice(x);
        } else {
            step *= config.decay;
            if step < 1e-12 {
                break;
            }
        }
    }
    AttackResult {
        point: best.clone(),
        objective: best_f,
        evals,
        phases: Phases::default(),
    }
}

/// Greedy coordinate descent: repeatedly moves single coordinates to
/// whichever region boundary decreases the objective most. Effective on
/// brightening-attack regions, where most coordinates are frozen and the
/// optimum tends to sit on a corner of the free sub-box.
///
/// # Panics
///
/// Panics if `start` is not inside `region`.
pub fn coordinate_descent(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    sweeps: usize,
) -> AttackResult {
    coordinate_descent_in(net, region, target, start, sweeps, &mut Scratch::default())
}

/// [`coordinate_descent`] evaluating through a caller-owned trace.
fn coordinate_descent_in(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    sweeps: usize,
    scratch: &mut Scratch,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    let trace = &mut scratch.trace;
    let mut x = start.to_vec();
    net.forward(&x, trace);
    let mut best_f = sanitize_objective(trace.objective(target));
    let mut evals = 1;
    let free: Vec<usize> = region
        .widths()
        .iter()
        .enumerate()
        .filter(|(_, w)| **w > 0.0)
        .map(|(i, _)| i)
        .collect();

    for _ in 0..sweeps {
        if best_f <= 0.0 {
            break;
        }
        let mut improved = false;
        for &i in &free {
            let original = x[i];
            let mut local_best = best_f;
            let mut local_val = original;
            for candidate in [region.lower()[i], region.upper()[i]] {
                if candidate == original {
                    continue;
                }
                x[i] = candidate;
                net.forward(&x, trace);
                let f = sanitize_objective(trace.objective(target));
                evals += 1;
                if f < local_best {
                    local_best = f;
                    local_val = candidate;
                }
            }
            x[i] = local_val;
            if local_best < best_f {
                best_f = local_best;
                improved = true;
            }
            if best_f <= 0.0 {
                break;
            }
        }
        if !improved {
            break;
        }
    }
    AttackResult {
        point: x,
        objective: best_f,
        evals,
        phases: Phases::default(),
    }
}

/// Projected gradient descent on a batch of starting points in lockstep.
///
/// Each row of `starts` is one restart. Every descent iteration runs one
/// blocked backward pass ([`Network::objective_backward_batch`]) through
/// the trace of the previous blocked forward pass
/// ([`Network::forward_batch`]) instead of one matrix-vector product per
/// point per layer, so the per-layer weight matrix is read once per
/// iteration for all restarts. Rows retire independently (zero or
/// poisoned gradient, step underflow), and the whole batch stops as soon
/// as any row reaches a non-positive objective — matching the sequential
/// restart loop, which never ran later restarts after a success.
///
/// Returns the best point across all rows (earliest row wins ties).
///
/// # Panics
///
/// Panics if any row of `starts` lies outside `region`, or dimensions
/// mismatch.
pub fn pgd_batch(
    net: &Network,
    region: &Bounds,
    target: usize,
    starts: &Matrix,
    config: &PgdConfig,
) -> AttackResult {
    pgd_batch_in(net, region, target, starts, config, &mut Scratch::default())
}

/// [`pgd_batch`] on a caller-owned batch trace. The forward pass that
/// evaluates a step's iterates is the trace the next step's gradient
/// reads, as long as no row retired in between; after a retirement the
/// live rows are repacked and evaluated afresh, so every row keeps the
/// batch position (and so the kernel tiling) it always had.
fn pgd_batch_in(
    net: &Network,
    region: &Bounds,
    target: usize,
    starts: &Matrix,
    config: &PgdConfig,
    scratch: &mut Scratch,
) -> AttackResult {
    assert!(starts.rows() > 0, "batch must contain at least one start");
    for start in starts.rows_iter() {
        assert!(region.contains(start), "start point must lie in the region");
    }
    let n = starts.cols();
    let base_step = config.step_fraction * region.mean_width().max(1e-12);
    let trace = &mut scratch.batch;

    let mut xs = starts.clone();
    let mut best = starts.clone();
    let mut best_f: Vec<f64> = net
        .forward_batch(starts, trace)
        .rows_iter()
        .map(|y| sanitize_objective(nn::margin(y, target)))
        .collect();
    let mut evals = starts.rows();
    let mut step = vec![base_step; starts.rows()];
    let mut active = vec![true; starts.rows()];
    // `packed` is the batch the trace was evaluated on and `traced` its
    // row ids.
    let mut packed = starts.clone();
    let mut traced: Vec<usize> = (0..starts.rows()).collect();
    let mut live = Vec::with_capacity(starts.rows());

    'outer: for _ in 0..config.steps {
        if best_f.iter().any(|f| *f <= 0.0) {
            break;
        }
        // Compact the live rows so retired restarts stop consuming
        // kernel work, then scatter the results back by row id.
        live.clear();
        live.extend((0..xs.rows()).filter(|&r| active[r]));
        if live.is_empty() {
            break;
        }
        if live != traced {
            packed.reset(0, n);
            for &r in &live {
                packed.push_row(xs.row(r));
            }
            net.forward_batch(&packed, trace);
            traced.clone_from(&live);
        }
        let gs = net.objective_backward_batch(trace, target);
        evals += live.len();
        for ((&r, g), x) in live.iter().zip(gs.rows_iter()).zip(packed.rows_iter_mut()) {
            if !gradient_is_finite(g) {
                active[r] = false;
                continue;
            }
            let norm = tensor::ops::norm2(g);
            if norm < 1e-12 {
                active[r] = false;
                continue;
            }
            for (xi, gi) in x.iter_mut().zip(g.iter()) {
                *xi -= step[r] * gi / norm;
            }
            region.clamp(x);
            xs.row_mut(r).copy_from_slice(x);
        }
        let ys = net.forward_batch(&packed, trace);
        for (&r, y) in live.iter().zip(ys.rows_iter()) {
            if !active[r] {
                continue;
            }
            evals += 1;
            let f = sanitize_objective(nn::margin(y, target));
            if f < best_f[r] {
                best_f[r] = f;
                best.row_mut(r).copy_from_slice(xs.row(r));
                if f <= 0.0 {
                    break 'outer;
                }
            } else {
                step[r] *= config.decay;
                if step[r] < 1e-12 {
                    active[r] = false;
                }
            }
        }
    }

    let winner = (0..best_f.len())
        .reduce(|a, b| if best_f[b] < best_f[a] { b } else { a })
        .expect("batch is non-empty");
    AttackResult {
        point: best.row(winner).to_vec(),
        objective: best_f[winner],
        evals,
        phases: Phases::default(),
    }
}

/// One fast-gradient-sign step from `start`: moves to the corner of the
/// region indicated by the sign of the objective gradient.
///
/// # Panics
///
/// Panics if `start` is not inside `region`.
pub fn fgsm_step(net: &Network, region: &Bounds, target: usize, start: &[f64]) -> Vec<f64> {
    fgsm_step_in(net, region, target, start, &mut Scratch::default())
}

/// [`fgsm_step`] evaluating through a caller-owned trace.
fn fgsm_step_in(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    scratch: &mut Scratch,
) -> Vec<f64> {
    assert!(region.contains(start), "start point must lie in the region");
    let trace = &mut scratch.trace;
    net.forward(start, trace);
    let g = net.objective_backward(trace, target);
    if !gradient_is_finite(g) {
        // A poisoned gradient gives no usable direction; stay put.
        return start.to_vec();
    }
    let mut x: Vec<f64> = start
        .iter()
        .zip(g.iter())
        .zip(region.widths().iter())
        .map(|((xi, gi), w)| xi - w * gi.signum())
        .collect();
    region.clamp(&mut x);
    x
}

/// Multi-restart minimizer for the robustness objective (the `Minimize`
/// call at line 2 of Algorithm 1).
///
/// A cold search runs PGD from the region center and from a number of
/// random starting points (plus one FGSM-seeded run and a coordinate
/// sweep), keeping the best result. A search seeded with an incumbent
/// (the best point of an enclosing region) runs PGD from the incumbent
/// and the coordinate sweep only.
#[derive(Debug, Clone)]
pub struct Minimizer {
    /// PGD configuration shared by all restarts.
    pub config: PgdConfig,
    /// Number of random restarts in addition to the center start.
    pub restarts: usize,
    seed: u64,
}

impl Minimizer {
    /// Creates a minimizer with default configuration and the given RNG
    /// seed.
    pub fn new(seed: u64) -> Self {
        Minimizer {
            config: PgdConfig::default(),
            restarts: 3,
            seed,
        }
    }

    /// Sets the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the PGD configuration.
    pub fn with_config(mut self, config: PgdConfig) -> Self {
        self.config = config;
        self
    }

    /// Minimizes `F` over `region` with a cold search, returning the best
    /// point found.
    ///
    /// If the network evaluates to NaN on every visited point (poisoned
    /// parameters), the returned objective is `+∞` — a sentinel meaning
    /// "the attack could not evaluate the network", which no δ-check can
    /// mistake for a refutation.
    ///
    /// # Panics
    ///
    /// Panics if `region.dim() != net.input_dim()` or `target` is out of
    /// range.
    pub fn minimize(&self, net: &Network, region: &Bounds, target: usize) -> AttackResult {
        self.minimize_from(net, region, target, None)
    }

    /// Minimizes `F` over `region`, warm-started from `incumbent` when one
    /// is given.
    ///
    /// * `None` is the cold search of [`Minimizer::minimize`], bit for
    ///   bit: center PGD, FGSM-seeded PGD, a coordinate sweep from the
    ///   center, then the batched random restarts.
    /// * `Some(x)` runs PGD from `x` clamped into `region` (the `warm`
    ///   phase; a non-finite coordinate starts at the center instead),
    ///   then the coordinate sweep from the center. It draws no random
    ///   numbers.
    ///
    /// Either way the returned point lies inside `region`, and the
    /// result's [`AttackResult::phases`] lists the phases that ran with
    /// their evaluations, best objective and wall time.
    ///
    /// # Panics
    ///
    /// As [`Minimizer::minimize`], and if the incumbent's length differs
    /// from `region.dim()`.
    pub fn minimize_from(
        &self,
        net: &Network,
        region: &Bounds,
        target: usize,
        incumbent: Option<&[f64]>,
    ) -> AttackResult {
        let mut phases = Phases::default();
        let mut scratch = Scratch::default();
        let mut result = self.search(net, region, target, incumbent, &mut phases, &mut scratch);
        result.phases = phases;
        result
    }

    /// The phase driver behind [`Minimizer::minimize_from`]: runs the
    /// phases and records a [`PhaseStat`] for each one that ran.
    fn search(
        &self,
        net: &Network,
        region: &Bounds,
        target: usize,
        incumbent: Option<&[f64]>,
        phases: &mut Phases,
        scratch: &mut Scratch,
    ) -> AttackResult {
        // One clock read per phase boundary: each phase's seconds run
        // from the end of the previous one.
        let mut clock = std::time::Instant::now();
        let mut record = |phase: &'static str, evals: usize, best_objective: f64| {
            let now = std::time::Instant::now();
            phases.push(PhaseStat {
                phase,
                evals,
                best_objective,
                seconds: (now - clock).as_secs_f64(),
            });
            clock = now;
        };

        let center = region.center();
        let mut best = match incumbent {
            Some(x) => {
                // Warm start: descend from the incumbent projected into
                // this region.
                assert_eq!(x.len(), region.dim(), "incumbent dimension mismatch");
                let mut start: Vec<f64> = x
                    .iter()
                    .zip(&center)
                    .map(|(v, c)| if v.is_finite() { *v } else { *c })
                    .collect();
                region.clamp(&mut start);
                let best = pgd_in(net, region, target, &start, &self.config, scratch);
                record("warm", best.evals, best.objective);
                best
            }
            None => {
                let best = pgd_in(net, region, target, &center, &self.config, scratch);
                record("center", best.evals, best.objective);
                if best.objective <= 0.0 {
                    return best;
                }
                // FGSM-seeded run: jump to the steepest corner, then refine.
                let corner = fgsm_step_in(net, region, target, &center, scratch);
                let run = pgd_in(net, region, target, &corner, &self.config, scratch);
                let before = best.evals;
                let best = merge(best, run);
                record("fgsm", best.evals - before, best.objective);
                best
            }
        };
        if best.objective <= 0.0 {
            return best;
        }

        // One coordinate-descent pass: box-shaped regions (like the
        // brightening attacks of §7.1) often hide their minima in
        // corners that gradient steps orbit around.
        let run = coordinate_descent_in(net, region, target, &center, 2, scratch);
        let before = best.evals;
        best = merge(best, run);
        record("coordinate", best.evals - before, best.objective);
        if best.objective <= 0.0 || incumbent.is_some() {
            return best;
        }

        // Random restarts run as one lockstep batch: a single blocked
        // forward/backward per descent iteration covers every restart.
        if self.restarts > 0 {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut starts = Matrix::zeros(0, region.dim());
            for _ in 0..self.restarts {
                starts.push_row(&region.sample(&mut rng));
            }
            let run = pgd_batch_in(net, region, target, &starts, &self.config, scratch);
            let before = best.evals;
            best = merge(best, run);
            record("restarts", best.evals - before, best.objective);
        }
        best
    }
}

fn merge(a: AttackResult, b: AttackResult) -> AttackResult {
    let evals = a.evals + b.evals;
    let mut best = if b.objective < a.objective { b } else { a };
    best.evals = evals;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    #[test]
    fn finds_counterexample_on_falsifiable_region() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![2.0]);
        let result = Minimizer::new(1).minimize(&net, &region, 1);
        assert!(result.objective <= 0.0);
        assert!(region.contains(&result.point));
        // The found point really is misclassified.
        assert_ne!(net.classify(&result.point), 1);
    }

    #[test]
    fn reports_positive_objective_on_robust_region() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![1.0]);
        let result = Minimizer::new(2).minimize(&net, &region, 1);
        assert!(
            result.objective > 0.0,
            "region is robust; F must stay positive"
        );
        assert!(region.contains(&result.point));
    }

    #[test]
    fn xor_property_resists_attack() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let result = Minimizer::new(3)
            .with_restarts(5)
            .minimize(&net, &region, 1);
        assert!(result.objective > 0.0);
    }

    #[test]
    fn xor_falsified_on_wider_region() {
        let net = samples::xor_network();
        // [0, 1]^2 contains [0,0] and [1,1], both class 0.
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let result = Minimizer::new(4)
            .with_restarts(5)
            .minimize(&net, &region, 1);
        assert!(result.objective <= 0.0);
        assert_ne!(net.classify(&result.point), 1);
    }

    #[test]
    fn pgd_point_stays_in_region() {
        let net = nn::train::random_mlp(4, &[10], 3, 17);
        let region = Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.3, None);
        let result = Minimizer::new(5).minimize(&net, &region, 0);
        assert!(region.contains(&result.point));
        assert_eq!(result.objective, net.objective(&result.point, 0));
    }

    #[test]
    fn fgsm_step_moves_to_region() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let x = fgsm_step(&net, &region, 1, &region.center());
        assert!(region.contains(&x));
    }

    #[test]
    fn coordinate_descent_reaches_corner_violation() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let result = coordinate_descent(&net, &region, 1, &[0.5, 0.5], 5);
        // The corners (0,0) and (1,1) violate; coordinate moves reach one.
        assert!(result.objective <= 0.0, "objective {}", result.objective);
    }

    #[test]
    fn coordinate_descent_respects_frozen_dims() {
        let net = samples::xor_network();
        // Freeze x1 at 0.6: only x0 may move.
        let region = Bounds::new(vec![0.0, 0.6], vec![1.0, 0.6]);
        let result = coordinate_descent(&net, &region, 1, &[0.5, 0.6], 5);
        assert_eq!(result.point[1], 0.6);
        assert!(region.contains(&result.point));
    }

    #[test]
    fn minimizer_is_deterministic() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        let a = Minimizer::new(9).minimize(&net, &region, 1);
        let b = Minimizer::new(9).minimize(&net, &region, 1);
        assert_eq!(a.point, b.point);
        assert_eq!(a.objective, b.objective);
    }

    fn poisoned_network() -> Network {
        // A single affine layer with a NaN weight: every evaluation and
        // every gradient of this network is NaN.
        Network::new(
            1,
            vec![nn::Layer::Affine(nn::AffineLayer::new(
                tensor::Matrix::from_rows(&[&[f64::NAN], &[1.0]]),
                vec![0.0, 0.0],
            ))],
        )
        .unwrap()
    }

    #[test]
    fn poisoned_network_reports_infinite_objective_not_nan() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let result = Minimizer::new(1).with_restarts(2).minimize(&net, &region, 0);
        assert!(
            result.objective.is_infinite() && result.objective > 0.0,
            "poisoned objective must surface as +inf, got {}",
            result.objective
        );
        assert!(region.contains(&result.point));
        assert!(result.point.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn poisoned_network_with_incumbent_reports_infinity_at_a_finite_point() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let result = Minimizer::new(1).minimize_from(&net, &region, 0, Some(&[0.75]));
        assert!(
            result.objective.is_infinite() && result.objective > 0.0,
            "poisoned objective must surface as +inf, got {}",
            result.objective
        );
        assert!(region.contains(&result.point));
        assert!(result.point.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn minimize_from_without_incumbent_is_the_cold_search_bit_for_bit() {
        let xor = samples::xor_network();
        let mlp = nn::train::random_mlp(4, &[10], 3, 17);
        let cases = [
            (&xor, Bounds::new(vec![0.1, 0.1], vec![0.9, 0.9]), 1),
            (&xor, Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1),
            (
                &mlp,
                Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.3, None),
                0,
            ),
        ];
        for (net, region, target) in &cases {
            let minimizer = Minimizer::new(7).with_restarts(4);
            let cold = minimizer.minimize(net, region, *target);
            let from = minimizer.minimize_from(net, region, *target, None);
            assert_eq!(from.point, cold.point);
            assert_eq!(from.objective.to_bits(), cold.objective.to_bits());
            assert_eq!(from.evals, cold.evals);
            let names = |r: &AttackResult| r.phases.iter().map(|p| p.phase).collect::<Vec<_>>();
            assert_eq!(names(&from), names(&cold));
            assert_eq!(from.phases[0].phase, "center");
            let total: usize = from.phases.iter().map(|p| p.evals).sum();
            assert_eq!(total, cold.evals);
        }
    }

    #[test]
    fn incumbent_outside_the_region_is_clamped_and_the_result_stays_inside() {
        let net = nn::train::random_mlp(4, &[10], 3, 17);
        let region = Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.1, None);
        // Far outside on every axis, one coordinate non-finite.
        let incumbent = [5.0, -5.0, f64::NAN, 0.9];
        let minimizer = Minimizer::new(3);
        let result = minimizer.minimize_from(&net, &region, 0, Some(&incumbent));
        assert!(region.contains(&result.point), "point {:?}", result.point);
        assert_eq!(result.objective, net.objective(&result.point, 0));
        let phases: Vec<&str> = result.phases.iter().map(|p| p.phase).collect();
        if result.objective > 0.0 {
            assert_eq!(phases, ["warm", "coordinate"]);
        } else {
            assert_eq!(phases[0], "warm");
        }
        let again = minimizer.minimize_from(&net, &region, 0, Some(&incumbent));
        assert_eq!(again.point, result.point);
        assert_eq!(again.evals, result.evals);
    }

    #[test]
    fn warm_search_starts_from_the_incumbent() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // (1, 1) is a violating corner: a warm start there refutes at
        // once, with the single evaluation of its starting point.
        let result = Minimizer::new(0).minimize_from(&net, &region, 1, Some(&[1.0, 1.0]));
        assert!(result.objective <= 0.0);
        assert_eq!(result.point, vec![1.0, 1.0]);
        assert_eq!(result.evals, 1);
    }

    #[test]
    fn fgsm_stays_put_on_poisoned_gradient() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let x = fgsm_step(&net, &region, 0, &[0.25]);
        assert_eq!(x, vec![0.25]);
    }

    #[test]
    fn batched_pgd_agrees_with_sequential_per_start() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.05, 0.05], vec![0.95, 0.95]);
        let starts = [
            vec![0.1, 0.2],
            vec![0.8, 0.85],
            vec![0.5, 0.4],
            vec![0.25, 0.9],
        ];
        let rows: Vec<&[f64]> = starts.iter().map(Vec::as_slice).collect();
        let batch = pgd_batch(
            &net,
            &region,
            1,
            &tensor::Matrix::from_rows(&rows),
            &PgdConfig::default(),
        );
        // The batch's best can only match or beat every individual
        // sequential run it subsumes (it stops early once any row finds a
        // violation, which only happens when a sequential run would too).
        let sequential_best = starts
            .iter()
            .map(|s| pgd(&net, &region, 1, s, &PgdConfig::default()).objective)
            .fold(f64::INFINITY, f64::min);
        assert!(region.contains(&batch.point));
        assert_eq!(batch.objective, net.objective(&batch.point, 1));
        if sequential_best <= 0.0 {
            assert!(batch.objective <= 0.0);
        }
    }

    #[test]
    fn batched_pgd_single_row_matches_plain_pgd() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let start = [0.8, 0.8];
        let plain = pgd(&net, &region, 1, &start, &PgdConfig::default());
        let batch = pgd_batch(
            &net,
            &region,
            1,
            &tensor::Matrix::from_rows(&[&start]),
            &PgdConfig::default(),
        );
        assert_eq!(batch.point, plain.point);
        assert_eq!(batch.objective, plain.objective);
    }

    #[test]
    fn batched_pgd_poisoned_network_reports_infinity() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let batch = pgd_batch(
            &net,
            &region,
            0,
            &tensor::Matrix::from_rows(&[&[0.25], &[0.75]]),
            &PgdConfig::default(),
        );
        assert!(batch.objective.is_infinite() && batch.objective > 0.0);
        assert!(batch.point.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn degenerate_point_region() {
        let net = samples::xor_network();
        let region = Bounds::point(&[0.5, 0.5]);
        let result = Minimizer::new(11).minimize(&net, &region, 1);
        assert_eq!(result.point, vec![0.5, 0.5]);
    }
}
