//! Abstract domains and sound transformers for ReLU networks.
//!
//! This crate replaces the ELINA library used by the original Charon tool.
//! It provides:
//!
//! * [`Bounds`] — axis-aligned boxes describing input regions,
//! * the [`AbstractElement`] trait — abstract values propagated through a
//!   network,
//! * [`Interval`] — the box domain,
//! * [`Zonotope`] — center-symmetric polytopes with the λ-relaxation ReLU
//!   transformer,
//! * [`Powerset`] — bounded disjunctions of either base domain, with
//!   ReLU case splitting (the paper's "bounded powerset" domains),
//! * [`deeppoly`] — a DeepPoly-style back-substitution domain (the
//!   "broader set of abstract domains" extension proposed in §9),
//! * [`symbolic`] — ReluVal-style symbolic interval propagation and
//!   interval gradient analysis (used both by the ReluVal baseline and by
//!   Charon's "influence" split heuristic).
//!
//! The top-level entry points are [`propagate`], which pushes an abstract
//! element through a network, and [`analyze`], which checks a robustness
//! property under a [`DomainChoice`]. The verifier's hot path uses their
//! checked, workspace-backed forms, [`propagate_checked_ws`] and
//! [`analyze_margin_checked_ws`].
//!
//! # Soundness
//!
//! Every transformer over-approximates its concrete counterpart: if
//! `x ∈ γ(a)` then `layer(x) ∈ γ(transform(a))`. The property tests in this
//! crate check this by sampling concrete points.
//!
//! # Workspace ownership
//!
//! The `_ws` entry points ([`propagate_checked_ws`],
//! [`analyze_margin_checked_ws`], and the per-element `affine_ws` methods)
//! thread a [`Workspace`] of reusable scratch buffers through the
//! propagation loop so the hot path allocates nothing in steady state. The
//! ownership rules:
//!
//! * A [`Workspace`] belongs to exactly one thread (it is deliberately not
//!   shared); parallel verifiers keep one workspace per worker.
//! * Buffers are *borrowed* from the workspace by the `_ws` constructors
//!   and must be handed back with `recycle` once the element is dead —
//!   dropping an element instead of recycling it is safe but forfeits the
//!   reuse. The propagation loops in this crate always recycle.
//! * Apart from the last propagation's per-layer times (below), a
//!   workspace never holds live data between calls: any buffer handed
//!   out is fully overwritten before use, so workspaces may be reused
//!   across unrelated networks and properties.
//!
//! # Numeric failure model
//!
//! The checked entry points guard every layer transition against NaN
//! poisoning: [`analyze_margin_checked_ws`] returns
//! [`AnalysisOutcome::Poisoned`] instead of silently propagating NaN
//! bounds, and the verifier reacts by retrying the region on the
//! interval domain. A NaN class term makes the margin NaN, and so
//! `Poisoned`, too. A powerset analysis stops at the first disjunct that
//! cannot prove the margin, so a disjunct after it that would turn NaN
//! never runs, and the result is `Inconclusive` (see
//! [`analyze_margin_checked_ws`]).
//!
//! Every intermediate element is checked once, and most checks cost no
//! scan: a ReLU checks its own input and output
//! ([`AbstractElement::relu_checked`]), and the zonotope and powerset
//! ReLUs read the check off the coordinate bounds they compute anyway.
//! Finite bounds mean the element holds no NaN and the ReLU creates none
//! (the finite-bounds contract of [`ReluCoordOps`]). Only a non-finite
//! bound, a powerset split (its meets), the last layer and a max-pool
//! that no ReLU follows lead to a scan of the generators.
//!
//! # Per-layer time
//!
//! There is one checked propagation, and it always measures itself: each
//! call records the wall-clock seconds of every layer into the
//! workspace's [`Workspace::layer_seconds`] buffer (one clock read per
//! layer). Callers that report per-layer time read the buffer after the
//! call; callers that do not simply ignore it. A layer's seconds include
//! its poisoning check, so an affine layer followed by a ReLU no longer
//! carries the scan of its output it used to.
//!
//! # Examples
//!
//! ```
//! use domains::{analyze, Bounds, DomainChoice};
//! use nn::samples;
//!
//! let net = samples::example_2_2_network();
//! // Example 2.2: robust on [-1, 1] for class 1.
//! let region = Bounds::new(vec![-1.0], vec![1.0]);
//! assert!(analyze(&net, &region, 1, DomainChoice::zonotope()));
//! ```

#![warn(missing_docs)]
// Numeric kernels in this crate co-index several arrays at once; index
// loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

mod bounds;
mod interval;
mod powerset;
mod zonotope;

pub mod deeppoly;
pub mod symbolic;

pub use bounds::Bounds;
pub use interval::Interval;
pub use powerset::Powerset;
pub use zonotope::Zonotope;

use nn::{Layer, Network};

/// A scratch arena of reusable `f64` buffers.
///
/// Region-level verification propagates thousands of abstract elements
/// through the same network; without reuse every affine layer allocates a
/// fresh center vector and generator matrix. A `Workspace` recycles those
/// heap buffers across layers (and across regions, when the caller keeps
/// one workspace per worker).
///
/// Ownership rules (see DESIGN.md "Performance architecture"):
///
/// * `take(len)` hands out a buffer of exactly `len` elements with
///   **unspecified contents** — callers must overwrite every element
///   (the `*_into` tensor kernels do).
/// * `give(buf)` returns a buffer to the pool; the buffer must no longer
///   be referenced anywhere else.
/// * A workspace is single-threaded state: parallel verifiers keep one
///   workspace per worker, never share one across threads.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    layer_seconds: Vec<f64>,
}

impl Workspace {
    /// Maximum number of buffers retained in the pool; beyond this,
    /// returned buffers are simply dropped.
    ///
    /// Buffers made outside the pool (a zonotope's `from_bounds`, the
    /// meets' clones, a ReLU's row growth) are recycled into it too, so
    /// the pool fills to its bound: at 64 it held 2.7–3.4 MB per worker. Eight holds the working set of an affine step on a
    /// `(Z, 3)` element (three disjuncts of two buffers each). On the
    /// Fig. 6 e2ebench workloads (2-vCPU AVX-512 Xeon, 8 s runs), caps of
    /// 4, 8 and 16 read the same throughput; 8 read 5.1 MB peak heap on
    /// `fig6-nocex-par2` against 5.6 MB at 16 and 7.5 MB at 32.
    const MAX_POOLED: usize = 8;

    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a buffer of exactly `len` elements with unspecified
    /// contents. Prefers a pooled buffer whose capacity already fits.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        if self.pool.is_empty() {
            return vec![0.0; len];
        }
        let idx = self
            .pool
            .iter()
            .position(|v| v.capacity() >= len)
            .unwrap_or_else(|| {
                // No buffer fits: grow the largest one instead of a
                // small one, so capacity converges on the working set.
                let mut best = 0;
                for (i, v) in self.pool.iter().enumerate() {
                    if v.capacity() > self.pool[best].capacity() {
                        best = i;
                    }
                }
                best
            });
        // Every caller overwrites the whole buffer, yet handing out a
        // reused buffer with its old contents measured about 3 % slower
        // end to end on the Fig. 6 engine workloads (2-vCPU AVX-512 Xeon)
        // than zeroing it here, so it is zeroed.
        let mut v = self.pool.swap_remove(idx);
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, v: Vec<f64>) {
        if v.capacity() > 0 && self.pool.len() < Self::MAX_POOLED {
            self.pool.push(v);
        }
    }

    /// Number of buffers currently pooled (diagnostics / tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Wall-clock seconds per layer of the last checked propagation run
    /// through this workspace ([`propagate_checked_ws`]), in layer order.
    pub fn layer_seconds(&self) -> &[f64] {
        &self.layer_seconds
    }

    /// Empties [`Workspace::layer_seconds`], for callers that run an
    /// analysis without a per-layer breakdown and must not report the
    /// previous propagation's times.
    pub fn clear_layer_seconds(&mut self) {
        self.layer_seconds.clear();
    }
}

/// An abstract value that can be propagated through a ReLU network.
///
/// Implementations must be *sound*: the concretization of the result of
/// each transformer contains the image of the concretization of the input.
pub trait AbstractElement: Clone + std::fmt::Debug + Sized {
    /// Abstracts an axis-aligned box.
    fn from_bounds(bounds: &Bounds) -> Self;

    /// Dimension of the space the element lives in.
    fn dim(&self) -> usize;

    /// Tightest box containing the concretization.
    fn bounds(&self) -> Bounds;

    /// Abstract affine transformer for `y = W x + b`.
    fn affine(&self, layer: &nn::AffineLayer) -> Self;

    /// [`AbstractElement::affine`] writing into scratch buffers from `ws`.
    ///
    /// `wt` is the layer's transposed weights where the caller holds them
    /// ([`nn::Network::transposed`]); a domain may read them for a faster
    /// product. Must compute bit-identical results to `affine`, with or
    /// without `wt`; the default simply delegates. Domains that override
    /// this take their output buffers from the workspace instead of
    /// allocating.
    fn affine_ws(
        &self,
        layer: &nn::AffineLayer,
        _wt: Option<&nn::Transposed>,
        _ws: &mut Workspace,
    ) -> Self {
        self.affine(layer)
    }

    /// Returns the element's heap buffers to `ws` for reuse.
    ///
    /// The default drops the element. Callers must only recycle elements
    /// they own exclusively (no outstanding clones sharing buffers —
    /// which `Clone` on `Vec<f64>`-backed domains never produces).
    fn recycle(self, _ws: &mut Workspace) {}

    /// Abstract ReLU transformer (applied to every coordinate).
    ///
    /// Consumes the element: the transformers rewrite its buffers in
    /// place, so propagation never copies the pre-activation element.
    /// Callers that still need the input clone it first.
    fn relu(self) -> Self;

    /// Abstract max-pool transformer.
    fn max_pool(&self, layer: &nn::MaxPoolLayer) -> Self;

    /// A sound lower bound on `min over the element of (y_target - y_j)`
    /// for the worst `j != target`.
    ///
    /// If this is positive, every concrete point abstracted by the element
    /// is classified as `target`.
    fn margin_lower_bound(&self, target: usize) -> f64;

    /// Whether the element's numeric representation contains NaN.
    ///
    /// A poisoned element no longer over-approximates anything: NaN
    /// compares false with everything, so transformers and the margin
    /// check silently lose soundness. Verifiers must treat a poisoned
    /// element as "analysis failed", never as "inconclusive". Infinite
    /// bounds are *not* poison — they are a sound (if useless)
    /// over-approximation.
    fn is_poisoned(&self) -> bool {
        false
    }

    /// [`AbstractElement::relu`] with the poisoning check of its input
    /// and of its output: `None` when either is poisoned, otherwise the
    /// element `relu` returns, bit for bit.
    ///
    /// The default scans the input, runs `relu` and scans the output.
    /// Domains whose ReLU already computes every coordinate's bounds
    /// override it to read the check off those bounds instead (see
    /// [`ReluCoordOps`], "Finite-bounds contract").
    fn relu_checked(self) -> Option<Self> {
        if self.is_poisoned() {
            return None;
        }
        let out = self.relu();
        (!out.is_poisoned()).then_some(out)
    }
}

/// `a.min(b)`, except that a NaN operand makes the result NaN.
///
/// `f64::min` returns the other operand when one is NaN, so a margin
/// folded with it would silently skip a poisoned class term.
pub(crate) fn min_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

/// `a.max(b)`, except that a NaN operand makes the result NaN.
pub(crate) fn max_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Propagates an abstract element through every layer of a network.
///
/// # Panics
///
/// Panics if `element.dim() != net.input_dim()`.
pub fn propagate<E: AbstractElement>(net: &Network, element: E) -> E {
    assert_eq!(
        element.dim(),
        net.input_dim(),
        "element dimension must match network input"
    );
    let mut current = element;
    for layer in net.layers() {
        current = match layer {
            Layer::Affine(a) => current.affine(a),
            Layer::Relu => current.relu(),
            Layer::MaxPool(p) => current.max_pool(p),
        };
    }
    current
}

/// Propagates an abstract element through a network with a per-layer
/// poisoning check, recycling buffers through a scratch [`Workspace`].
///
/// Affine layers use [`AbstractElement::affine_ws`], handed the network's
/// transposed weights where the active kernel arm reads them
/// ([`nn::Network::transposed`]), and each intermediate element's buffers
/// are recycled as soon as the next layer's output exists; ReLU layers
/// rewrite the element they are handed in place.
/// Returns `None` as soon as any intermediate element contains NaN (see
/// [`AbstractElement::is_poisoned`]); the result of further propagation
/// would be meaningless.
///
/// Every intermediate element is checked once. A ReLU layer runs
/// [`AbstractElement::relu_checked`], which checks its own input and
/// output, so the element an affine or max-pool layer hands to a ReLU is
/// not scanned a second time; every other element is scanned after the
/// layer that made it. The result is the same, `None` or the element
/// bit for bit, as scanning after every layer.
///
/// Every call times its layers: afterwards [`Workspace::layer_seconds`]
/// holds the wall-clock seconds of each layer transformer (plus its
/// poisoning check) in layer order, covering only the layers that ran on
/// an early poisoning exit (poison in an element headed into a ReLU is
/// found, and timed, by that ReLU). The buffer is the workspace's own,
/// so the timing allocates nothing in steady state.
///
/// Produces bit-identical elements to [`propagate`].
///
/// # Panics
///
/// Panics if `element.dim() != net.input_dim()`.
pub fn propagate_checked_ws<E: AbstractElement>(
    net: &Network,
    element: E,
    ws: &mut Workspace,
) -> Option<E> {
    ws.layer_seconds.clear();
    checked_layers(net, 0, element, ws, |_| false).map(|(e, _)| e)
}

/// The checked step of [`propagate_checked_ws`] over layers `from..` of
/// `net`: stops after the first layer whose output satisfies `stop`, and
/// returns that output with the index of the next layer (the number of
/// layers when every one ran), or `None` on poisoning.
///
/// Each layer's seconds are added to its entry of
/// [`Workspace::layer_seconds`], which is pushed when the entry does not
/// exist yet, so propagating several elements in turn from the same
/// layer sums their times. `from` must not exceed the buffer's length.
///
/// The input is scanned only when `from` is 0 and no ReLU comes first.
/// Elsewhere the step that made it has checked it already, unless layer
/// `from` is a ReLU, whose own input check then finds the poison.
///
/// # Panics
///
/// Panics if `from` is 0 and `element.dim() != net.input_dim()`.
fn checked_layers<E: AbstractElement>(
    net: &Network,
    from: usize,
    element: E,
    ws: &mut Workspace,
    stop: impl Fn(&E) -> bool,
) -> Option<(E, usize)> {
    use std::time::Instant;
    let layers = net.layers();
    let feeds_relu = |k: usize| matches!(layers.get(k), Some(Layer::Relu));
    if from == 0 {
        assert_eq!(
            element.dim(),
            net.input_dim(),
            "element dimension must match network input"
        );
        if !feeds_relu(0) && element.is_poisoned() {
            return None;
        }
    }
    let transposed = net.transposed();
    let mut current = element;
    let mut start = Instant::now();
    for (k, layer) in layers.iter().enumerate().skip(from) {
        let next = match layer {
            Layer::Affine(a) => {
                let next = current.affine_ws(a, transposed.and_then(|t| t[k].as_ref()), ws);
                current.recycle(ws);
                Some(next)
            }
            Layer::Relu => current.relu_checked(),
            Layer::MaxPool(p) => {
                let next = current.max_pool(p);
                current.recycle(ws);
                Some(next)
            }
        };
        // A ReLU has checked its own output, and an element headed into
        // a ReLU is left to that ReLU's input check.
        let next = next.filter(|e| {
            matches!(layer, Layer::Relu) || feeds_relu(k + 1) || !e.is_poisoned()
        });
        let end = Instant::now();
        let seconds = (end - start).as_secs_f64();
        match ws.layer_seconds.get_mut(k) {
            Some(total) => *total += seconds,
            None => ws.layer_seconds.push(seconds),
        }
        start = end;
        current = next?;
        if stop(&current) {
            return Some((current, k + 1));
        }
    }
    Some((current, layers.len()))
}

/// The base abstract domains selectable by a verification policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseDomain {
    /// The interval (box) domain.
    Interval,
    /// The zonotope domain.
    Zonotope,
}

impl std::fmt::Display for BaseDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaseDomain::Interval => write!(f, "I"),
            BaseDomain::Zonotope => write!(f, "Z"),
        }
    }
}

/// An abstract-domain selection: a base domain plus a disjunct budget.
///
/// This mirrors the output of the paper's selection function φ^α (§4.1):
/// `(Z, 2)` is the powerset of zonotopes with at most two disjuncts and
/// `(I, 1)` is the plain interval domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainChoice {
    /// Base abstract domain.
    pub base: BaseDomain,
    /// Maximum number of disjuncts (1 = no disjunction).
    pub disjuncts: usize,
}

impl DomainChoice {
    /// The plain interval domain `(I, 1)`.
    pub fn interval() -> Self {
        DomainChoice {
            base: BaseDomain::Interval,
            disjuncts: 1,
        }
    }

    /// The plain zonotope domain `(Z, 1)`.
    pub fn zonotope() -> Self {
        DomainChoice {
            base: BaseDomain::Zonotope,
            disjuncts: 1,
        }
    }

    /// A bounded powerset domain over `base` with at most `disjuncts`
    /// disjuncts.
    ///
    /// # Panics
    ///
    /// Panics if `disjuncts == 0`.
    pub fn powerset(base: BaseDomain, disjuncts: usize) -> Self {
        assert!(disjuncts > 0, "disjunct budget must be positive");
        DomainChoice { base, disjuncts }
    }

    /// A rough relative cost estimate used by training-time featurization.
    pub fn cost_weight(&self) -> f64 {
        let base = match self.base {
            BaseDomain::Interval => 1.0,
            BaseDomain::Zonotope => 4.0,
        };
        base * self.disjuncts as f64
    }
}

impl std::fmt::Display for DomainChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.base, self.disjuncts)
    }
}

/// Result of a guarded abstract analysis ([`analyze_margin_checked_ws`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// The abstraction proves every point of the region is classified as
    /// the target class.
    Proved,
    /// The abstraction is too coarse to decide; the region may still be
    /// safe.
    Inconclusive,
    /// NaN appeared inside the abstract computation; the result carries
    /// no information and the caller must degrade (e.g. retry on a
    /// coarser domain) rather than treat it as inconclusive.
    Poisoned,
}

/// Attempts to verify a robustness property `(region, target)` of `net`
/// using the given abstract domain.
///
/// Returns `true` if the abstract analysis proves that every point in
/// `region` is classified as `target`. A `false` result is inconclusive
/// (the abstraction may simply be too coarse). Callers that need to
/// distinguish "too coarse" from "numerically poisoned", or want the
/// margin, should use [`analyze_margin_checked_ws`].
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()` or
/// `target >= net.output_dim()`.
pub fn analyze(net: &Network, region: &Bounds, target: usize, choice: DomainChoice) -> bool {
    analyze_margin_checked_ws(net, region, target, choice, &mut Workspace::new()).0
        == AnalysisOutcome::Proved
}

/// [`analyze`] with NaN-poisoning detection, the derived margin and a
/// caller-provided scratch [`Workspace`], so repeated analyses (worklist
/// verification) reuse heap buffers across regions.
///
/// Every intermediate element and the final margin bound are checked for
/// NaN, and [`AnalysisOutcome::Poisoned`] is reported instead of silently
/// comparing NaN against zero. The second component is a margin: positive
/// exactly when the outcome is [`AnalysisOutcome::Proved`], non-positive
/// when [`AnalysisOutcome::Inconclusive`], and NaN when
/// [`AnalysisOutcome::Poisoned`] (or when the region itself contains
/// NaN). A proved margin is the value of
/// [`AbstractElement::margin_lower_bound`] on the propagated element, bit
/// for bit; proof-certificate emission records it per verified leaf so an
/// auditor can cross-check the claim.
///
/// # Powersets: disjunct-major
///
/// A powerset proves the region only if every disjunct proves the margin.
/// Once the element holds its budget of disjuncts, its ReLU can no longer
/// split, so each disjunct evolves alone. From that layer on, the
/// disjuncts are finished one at a time, in element order, through the
/// same checked step (each as a one-disjunct element with budget 1, whose
/// ReLU is the full element's no-split ReLU of that disjunct, bit for
/// bit), and the analysis stops at the first one that does not prove its
/// margin; the rest never run. Two consequences:
///
/// * the margin returned with [`AnalysisOutcome::Inconclusive`] is the
///   first failing disjunct's: it is ≤ 0, and at least the margin of the
///   whole element;
/// * a disjunct that would turn NaN after an earlier one has finished
///   with a margin ≤ 0 (and no NaN) is never run, so the result is
///   `Inconclusive` where running every disjunct would give `Poisoned`.
///   That is sound: the earlier disjunct has already shown the region
///   cannot be proved with this domain.
///
/// [`AnalysisOutcome::Proved`] needs every disjunct, and their margins are
/// folded in element order as [`AbstractElement::margin_lower_bound`]
/// folds them, so a proved margin keeps its bits.
///
/// The propagation is timed per layer into [`Workspace::layer_seconds`]
/// (see [`propagate_checked_ws`]), each layer's seconds summed over the
/// disjuncts that ran it; the buffer is empty when the region contains
/// NaN and nothing ran.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()` or
/// `target >= net.output_dim()`.
pub fn analyze_margin_checked_ws(
    net: &Network,
    region: &Bounds,
    target: usize,
    choice: DomainChoice,
    ws: &mut Workspace,
) -> (AnalysisOutcome, f64) {
    assert!(target < net.output_dim(), "target class out of range");
    if region.has_nan() {
        ws.layer_seconds.clear();
        return (AnalysisOutcome::Poisoned, f64::NAN);
    }
    match (choice.base, choice.disjuncts) {
        (BaseDomain::Interval, 1) => margin_outcome(
            propagate_checked_ws(net, Interval::from_bounds(region), ws),
            target,
            ws,
        ),
        (BaseDomain::Zonotope, 1) => margin_outcome(
            propagate_checked_ws(net, Zonotope::from_bounds(region), ws),
            target,
            ws,
        ),
        (BaseDomain::Interval, k) => analyze_powerset::<Interval>(net, region, target, k, ws),
        (BaseDomain::Zonotope, k) => analyze_powerset::<Zonotope>(net, region, target, k, ws),
    }
}

/// The disjunct-major powerset analysis of [`analyze_margin_checked_ws`]:
/// the whole element up to the layer that fills it, then each disjunct
/// alone until the first that does not prove the margin.
fn analyze_powerset<D: ReluCoordOps>(
    net: &Network,
    region: &Bounds,
    target: usize,
    budget: usize,
    ws: &mut Workspace,
) -> (AnalysisOutcome, f64) {
    let element = Powerset::<D>::with_budget(region, budget);
    ws.layer_seconds.clear();
    let Some((element, next)) = checked_layers(net, 0, element, ws, Powerset::is_full) else {
        return (AnalysisOutcome::Poisoned, f64::NAN);
    };
    let mut margin = f64::INFINITY;
    let mut disjuncts = element.into_disjuncts().into_iter();
    while let Some(d) = disjuncts.next() {
        let alone = checked_layers(net, next, Powerset::alone(d), ws, |_| false);
        let (outcome, m) = margin_outcome(alone.map(|(e, _)| e), target, ws);
        if outcome != AnalysisOutcome::Proved {
            disjuncts.for_each(|rest| rest.recycle(ws));
            return (outcome, m);
        }
        margin = min_or_nan(margin, m);
    }
    (AnalysisOutcome::Proved, margin)
}

fn margin_outcome<E: AbstractElement>(
    element: Option<E>,
    target: usize,
    ws: &mut Workspace,
) -> (AnalysisOutcome, f64) {
    match element {
        None => (AnalysisOutcome::Poisoned, f64::NAN),
        Some(e) => {
            let margin = e.margin_lower_bound(target);
            e.recycle(ws);
            if margin.is_nan() {
                (AnalysisOutcome::Poisoned, f64::NAN)
            } else if margin > 0.0 {
                (AnalysisOutcome::Proved, margin)
            } else {
                (AnalysisOutcome::Inconclusive, margin)
            }
        }
    }
}

/// Operations on a single coordinate of an abstract element, used by the
/// powerset domain to perform ReLU case splitting.
///
/// This trait is an implementation detail of [`Powerset`] but is exposed so
/// downstream code can implement new base domains.
///
/// # Column contract
///
/// The powerset ReLU caches the bounds of every coordinate once and keeps
/// using them while it rewrites other coordinates. That is sound, and the
/// result bit-identical to re-reading the bounds, because every update
/// here is local to one coordinate:
///
/// * [`project_zero`](ReluCoordOps::project_zero) and
///   [`relax_relu_coord`](ReluCoordOps::relax_relu_coord) change only
///   coordinate `i` (for a zonotope: the centre entry and generator
///   column `i`);
/// * any generator row they append is zero outside column `i`.
///
/// So after either call, [`coord_bounds`](ReluCoordOps::coord_bounds) of
/// every coordinate `j != i` returns the same bits as before. The meets
/// carry no such promise: they may move every coordinate.
///
/// # Finite-bounds contract
///
/// The checked powerset ReLU ([`AbstractElement::relu_checked`] on
/// [`Powerset`]) reads the poisoning check off the bounds it computes
/// anyway, so every implementation must make two promises:
///
/// * if every bound [`coord_bounds_into`](ReluCoordOps::coord_bounds_into)
///   returns is finite, the element holds no NaN;
/// * relaxing coordinates with finite bounds `lo < 0 < hi` and projecting
///   coordinates to zero never creates a NaN.
///
/// Both base domains keep them. An interval's bounds are its
/// representation. A zonotope coordinate's radius is a sum of `|v|` over
/// its generator column, which is NaN exactly when the column holds a
/// NaN (and a NaN centre makes both bounds NaN); its relaxation scales a
/// column by `λ = hi / (hi - lo) ∈ [0, 1]` and adds finite terms.
pub trait ReluCoordOps: AbstractElement {
    /// Concrete bounds of coordinate `i`.
    fn coord_bounds(&self, i: usize) -> (f64, f64);

    /// Concrete bounds of every coordinate, written into `lower` and
    /// `upper` (both resized to [`AbstractElement::dim`]).
    ///
    /// Must equal [`coord_bounds`](ReluCoordOps::coord_bounds) at every
    /// coordinate. The default calls it once per coordinate; domains with
    /// a cheaper bulk pass override it.
    fn coord_bounds_into(&self, lower: &mut Vec<f64>, upper: &mut Vec<f64>) {
        lower.clear();
        upper.clear();
        for i in 0..self.dim() {
            let (lo, hi) = self.coord_bounds(i);
            lower.push(lo);
            upper.push(hi);
        }
    }

    /// Sets coordinate `i` to exactly zero (the negative ReLU case).
    fn project_zero(&mut self, i: usize);

    /// Applies the single-coordinate ReLU relaxation to an unstable
    /// coordinate `i` with pre-activation bounds `(lo, hi)`.
    fn relax_relu_coord(&mut self, i: usize, lo: f64, hi: f64);

    /// The ReLU of an element that will not be split: relaxes every
    /// `(i, lo, hi)` of `order` (distinct coordinates, `lo < 0 < hi`), in
    /// that order, then projects to zero every coordinate whose bounds
    /// *after* the relaxations are non-positive and not both exactly
    /// zero.
    ///
    /// On entry `lower`/`upper` hold the element's bounds
    /// ([`coord_bounds_into`](ReluCoordOps::coord_bounds_into)); on return
    /// their contents are unspecified. The default is that sequence
    /// spelled out: the per-coordinate relaxations, a second bounds pass,
    /// then one projection per non-positive coordinate. Domains with a
    /// fused pass override it and must produce the same element bit for
    /// bit. The column contract is what makes a fused pass possible: the
    /// bounds of every coordinate outside `order` are the same after the
    /// relaxations as on entry.
    fn relax_and_project(
        &mut self,
        order: &[(usize, f64, f64)],
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
    ) {
        for &(i, lo, hi) in order {
            self.relax_relu_coord(i, lo, hi);
        }
        self.coord_bounds_into(lower, upper);
        project_nonpositive(self, lower, upper);
    }

    /// Restricts the element to `x_i >= 0`, returning `None` if the result
    /// is empty. The result must over-approximate `γ(self) ∩ {x_i >= 0}`.
    fn meet_coord_nonneg(&self, i: usize) -> Option<Self>;

    /// Restricts the element to `x_i <= 0`, returning `None` if the result
    /// is empty. The result must over-approximate `γ(self) ∩ {x_i <= 0}`.
    fn meet_coord_nonpos(&self, i: usize) -> Option<Self>;
}

/// Projects to zero every coordinate of `d` whose bounds in
/// `lower`/`upper` are non-positive and not both exactly zero (those
/// already are).
pub(crate) fn project_nonpositive<D: ReluCoordOps>(d: &mut D, lower: &[f64], upper: &[f64]) {
    for (i, (&lo, &hi)) in lower.iter().zip(upper).enumerate() {
        if hi <= 0.0 && (lo != 0.0 || hi != 0.0) {
            d.project_zero(i);
        }
    }
}

/// Whether every bound in `lower` and `upper` is finite.
pub(crate) fn all_finite(lower: &[f64], upper: &[f64]) -> bool {
    lower.iter().chain(upper).all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// However many buffers come back, the pool keeps at most
    /// `MAX_POOLED`, and it still hands each one out again.
    #[test]
    fn the_pool_never_holds_more_than_its_bound() {
        let mut ws = Workspace::new();
        for len in 1..=4 * Workspace::MAX_POOLED {
            ws.give(vec![1.0; len]);
            assert!(ws.pooled() <= Workspace::MAX_POOLED, "{} pooled", ws.pooled());
        }
        assert_eq!(ws.pooled(), Workspace::MAX_POOLED);
        let taken: Vec<Vec<f64>> = (0..Workspace::MAX_POOLED).map(|_| ws.take(3)).collect();
        assert_eq!(ws.pooled(), 0);
        assert!(taken.iter().all(|v| v.len() == 3 && v.iter().all(|&x| x == 0.0)));
        for v in taken {
            ws.give(v);
        }
        ws.give(vec![0.0; 5]);
        assert_eq!(ws.pooled(), Workspace::MAX_POOLED);
    }
}
