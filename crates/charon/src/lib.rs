//! Charon: a sound and δ-complete decision procedure for neural-network
//! robustness, combining gradient-based counterexample search with
//! abstraction-based proof search.
//!
//! This crate is the paper's primary contribution (Algorithm 1 plus the
//! learned verification policy of §4):
//!
//! * [`RobustnessProperty`] — a property `(I, K)`: every input in the
//!   region `I` must be classified as `K`.
//! * [`Verifier`] — the `Verify` procedure: alternate projected gradient
//!   descent (falsification) with abstract interpretation (verification),
//!   splitting the input region under the guidance of a
//!   [`policy::Policy`] when neither succeeds.
//! * [`policy`] — verification policies: the learned [`policy::LinearPolicy`]
//!   `π_θ = (π^α_θ, π^I_θ)` of Eq. 3 and a hand-crafted baseline for
//!   ablations.
//! * [`train`] — the training phase (§4.2): Bayesian optimization of the
//!   policy parameters θ against a corpus of training problems.
//! * [`parallel`] — the same region driver on several worker threads,
//!   mirroring the parallelization described in §6.
//! * [`report`] — certified-accuracy measurement over labelled point sets
//!   (the standard deployment-facing metric).
//!
//! # Guarantees
//!
//! The verifier is *sound*: `Verdict::Verified` implies every point of the
//! region is classified as the target class (assuming the abstract domains
//! are sound, which this workspace tests extensively). It is *δ-complete*
//! (Theorem 5.4): if the property is not verified within the resource
//! budget, the result is either a δ-counterexample (a point whose score
//! margin is at most δ, Definition 5.3) or an explicit resource-limit
//! verdict.
//!
//! # Failure model
//!
//! Engine faults are isolated per region: a panicking or NaN-poisoned
//! region step is retried once on the interval domain, and only a second
//! failure aborts the run with a structured [`VerifyError`] (via the
//! `Result`-based [`Verifier::try_verify_run`] API). Budget-limited runs
//! emit a [`Checkpoint`] from which [`Verifier::resume`] continues without
//! revisiting verified regions. The [`faults`] module provides the
//! deterministic fault-injection harness used by the chaos tests.
//!
//! # Certified verdicts
//!
//! With [`VerifierConfig::certificates`] set, fresh decisive runs emit a
//! proof [`Certificate`] (re-exported from the `cert` crate): the full
//! region split tree with per-leaf domains and margins for `Verified`,
//! the validated witness point for `Refuted`. The artifact can be saved,
//! shipped, and re-checked by the *independent* [`cert::audit`] checker —
//! which shares no transformer code with this crate and replays every
//! leaf with directed (outward) rounding — via `charon-cli audit`.
//!
//! # Observability
//!
//! The [`telemetry`] module provides structured tracing and metrics:
//! attach a [`telemetry::TraceSink`] with [`Verifier::with_trace`] (e.g.
//! a [`telemetry::JsonlSink`] writing one JSON object per event), read
//! per-phase [`telemetry::Metrics`] from any completed run via
//! [`VerifyRun::metrics`], and render them with
//! [`telemetry::RunReport`]. The default sink is
//! [`telemetry::NullSink`]: tracing disabled, zero overhead — metrics
//! counters are always on.
//!
//! # Examples
//!
//! ```
//! use charon::{RobustnessProperty, Verifier, Verdict};
//! use domains::Bounds;
//! use nn::samples;
//!
//! let net = samples::xor_network();
//! // Example 3.1: all of [0.3, 0.7]^2 must be classified 1.
//! let property = RobustnessProperty::new(
//!     Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]),
//!     1,
//! );
//! let verifier = Verifier::default();
//! assert!(matches!(verifier.verify(&net, &property), Verdict::Verified));
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod error;
mod property;
mod sched;
mod verify;

pub mod deadline;
pub mod faults;
pub mod json;
pub mod parallel;
pub mod policy;
pub mod report;
pub mod telemetry;
pub mod train;

pub use checkpoint::Checkpoint;
pub use error::{BudgetKind, VerifyError};
pub use property::RobustnessProperty;
pub use telemetry::{
    JsonlSink, Metrics, NullSink, OverloadStats, RunReport, SummarySink, TraceEvent,
    TraceSink,
};
pub use verify::{
    verdict_supersedes, Counterexample, Verdict, Verifier, VerifierConfig, VerifyRun,
    VerifyStats,
};

pub use cert::{
    audit, AuditError, AuditOptions, AuditReport, CertError, CertVerdict, Certificate,
    Node as CertNode,
};
