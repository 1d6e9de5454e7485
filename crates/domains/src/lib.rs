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
//! The checked entry points guard every layer transition against NaN/Inf
//! poisoning: [`analyze_margin_checked_ws`] returns
//! [`AnalysisOutcome::Poisoned`] instead of silently propagating
//! non-finite bounds, and the verifier reacts by retrying the region on
//! the interval domain.
//!
//! # Per-layer time
//!
//! There is one checked propagation, and it always measures itself: each
//! call records the wall-clock seconds of every layer into the
//! workspace's [`Workspace::layer_seconds`] buffer (one clock read per
//! layer). Callers that report per-layer time read the buffer after the
//! call; callers that do not simply ignore it.
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
    const MAX_POOLED: usize = 64;

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
    /// Must compute bit-identical results to `affine`; the default simply
    /// delegates. Domains that override this take their output buffers
    /// from the workspace instead of allocating.
    fn affine_ws(&self, layer: &nn::AffineLayer, _ws: &mut Workspace) -> Self {
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
/// Affine layers use [`AbstractElement::affine_ws`] and each intermediate
/// element's buffers are recycled as soon as the next layer's output
/// exists; ReLU layers rewrite the element they are handed in place.
/// Returns `None` as soon as any intermediate element contains NaN (see
/// [`AbstractElement::is_poisoned`]); the result of further propagation
/// would be meaningless.
///
/// Every call times its layers: afterwards [`Workspace::layer_seconds`]
/// holds the wall-clock seconds of each layer transformer (plus its
/// poisoning check) in layer order, covering only the layers that ran on
/// an early poisoning exit. The buffer is the workspace's own, so the
/// timing allocates nothing in steady state.
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
    use std::time::Instant;
    assert_eq!(
        element.dim(),
        net.input_dim(),
        "element dimension must match network input"
    );
    ws.layer_seconds.clear();
    if element.is_poisoned() {
        return None;
    }
    let mut current = element;
    let mut start = Instant::now();
    for layer in net.layers() {
        current = match layer {
            Layer::Affine(a) => {
                let next = current.affine_ws(a, ws);
                current.recycle(ws);
                next
            }
            Layer::Relu => current.relu(),
            Layer::MaxPool(p) => {
                let next = current.max_pool(p);
                current.recycle(ws);
                next
            }
        };
        let poisoned = current.is_poisoned();
        let end = Instant::now();
        ws.layer_seconds.push((end - start).as_secs_f64());
        start = end;
        if poisoned {
            return None;
        }
    }
    Some(current)
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
/// comparing NaN against zero. The second component is the value of
/// [`AbstractElement::margin_lower_bound`] on the propagated element: it
/// is positive exactly when the outcome is [`AnalysisOutcome::Proved`],
/// non-positive when [`AnalysisOutcome::Inconclusive`], and NaN when
/// [`AnalysisOutcome::Poisoned`] (or when the region itself contains
/// NaN). Proof-certificate emission records this margin per verified
/// leaf so an auditor can cross-check the claim.
///
/// The propagation is timed per layer into [`Workspace::layer_seconds`]
/// (see [`propagate_checked_ws`]); the buffer is empty when the region
/// contains NaN and nothing ran.
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
        (BaseDomain::Interval, k) => {
            let element = Powerset::<Interval>::with_budget(region, k);
            margin_outcome(propagate_checked_ws(net, element, ws), target, ws)
        }
        (BaseDomain::Zonotope, k) => {
            let element = Powerset::<Zonotope>::with_budget(region, k);
            margin_outcome(propagate_checked_ws(net, element, ws), target, ws)
        }
    }
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

    /// Applies [`relax_relu_coord`](ReluCoordOps::relax_relu_coord) to
    /// every `(i, lo, hi)` of `coords`, in the given order (the
    /// coordinates are distinct).
    ///
    /// Must produce the same element, bit for bit, as the per-coordinate
    /// calls. The default makes them; domains with a cheaper bulk pass
    /// override it.
    fn relax_relu_coords(&mut self, coords: &[(usize, f64, f64)]) {
        for &(i, lo, hi) in coords {
            self.relax_relu_coord(i, lo, hi);
        }
    }

    /// Restricts the element to `x_i >= 0`, returning `None` if the result
    /// is empty. The result must over-approximate `γ(self) ∩ {x_i >= 0}`.
    fn meet_coord_nonneg(&self, i: usize) -> Option<Self>;

    /// Restricts the element to `x_i <= 0`, returning `None` if the result
    /// is empty. The result must over-approximate `γ(self) ∩ {x_i <= 0}`.
    fn meet_coord_nonpos(&self, i: usize) -> Option<Self>;
}
