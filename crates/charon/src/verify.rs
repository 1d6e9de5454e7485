//! The `Verify` procedure (Algorithm 1) with the δ-complete modification
//! (Eq. 4), hardened against engine faults.
//!
//! Fault tolerance is layered around the per-region work (see
//! `DESIGN.md`, "Failure model & degradation ladder"):
//!
//! 1. every region step runs under [`std::panic::catch_unwind`];
//! 2. a panicking or NaN-poisoned step is retried once on the coarsest
//!    (interval) domain, trading precision for survival;
//! 3. if the retry also fails, the run — not the process — dies with a
//!    structured [`VerifyError`];
//! 4. budget-limited runs emit a [`Checkpoint`] from which
//!    [`Verifier::resume`] continues without revisiting verified regions.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use attack::Minimizer;
use cert::{CertVerdict, Certificate, LeafRecord, SplitRecord};
use domains::{
    analyze_margin_checked_ws, AnalysisOutcome, Bounds, DomainChoice, Workspace,
};
use nn::Network;

use crate::checkpoint::Checkpoint;
use crate::error::{panic_message, BudgetKind, VerifyError};
use crate::faults::{FaultPlan, FaultSite};
use crate::policy::{DomainSelection, LinearPolicy, Policy, PolicyContext};
use crate::sched::{Region, Scheduler};
use crate::telemetry::{emit, Metrics, SharedSink, TraceEvent, TraceSink};
use crate::RobustnessProperty;

/// A δ-counterexample (Definition 5.3): a point whose score margin for the
/// target class is strictly below δ.
///
/// Acceptance uses the *directed upper bound* `F_up(point) < δ` (see
/// [`cert::objective_upper`]), the same check the independent certificate
/// auditor replays — so a witness the verifier reports can never be
/// rejected by a later `charon-cli audit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The input point, always inside the property's region.
    pub point: Vec<f64>,
    /// The round-to-nearest objective value `F(point)`; strictly below δ,
    /// and `< 0` for a true counterexample.
    pub objective: f64,
}

impl Counterexample {
    /// Whether this is a true counterexample (misclassification), not
    /// merely a δ-near-violation. Exact ties (`F(x*) == 0`) do not count.
    pub fn is_true_violation(&self) -> bool {
        self.objective < 0.0
    }
}

/// Result of running the verifier on a property.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every point in the region is classified as the target class.
    Verified,
    /// A δ-counterexample was found.
    Refuted(Counterexample),
    /// The time or region budget was exhausted before a decision.
    ResourceLimit,
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// Whether the verdict is [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted(_))
    }

    /// The verdict's stable `snake_case` name: the one spelling trace
    /// events, run reports and the service's wire lines all use.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Verified => "verified",
            Verdict::Refuted(_) => "refuted",
            Verdict::ResourceLimit => "resource_limit",
        }
    }
}

/// Configuration of the [`Verifier`].
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// The δ of the δ-complete check `F(x*) <= δ` (Eq. 4).
    pub delta: f64,
    /// Wall-clock budget for one property.
    pub timeout: Duration,
    /// Maximum number of regions processed (safety cap, counts towards
    /// `ResourceLimit`).
    pub max_regions: usize,
    /// Random restarts for the counterexample search of a region without
    /// a parent. Split children that their domain cannot prove attack
    /// warm from the parent's `x*` and run no restarts.
    pub restarts: usize,
    /// Base RNG seed (kept fixed for reproducibility).
    pub seed: u64,
    /// If false, skip gradient-based counterexample search entirely (the
    /// RQ2 ablation); refutation then only happens through the δ-check at
    /// region centers.
    pub counterexample_search: bool,
    /// If true, regions whose center margin already exceeds the network's
    /// Lipschitz bound times the region radius are verified without any
    /// abstract interpretation (a FastLin-style pre-filter; an extension
    /// beyond the paper, off by default).
    pub lipschitz_prefilter: bool,
    /// Cooperative cancellation flag: when set (by e.g. the server for a
    /// cancelled job), the verifier stops at the next region boundary
    /// with [`Verdict::ResourceLimit`].
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Deterministic fault-injection schedule, for chaos testing only.
    /// Production configurations leave this `None`.
    pub faults: Option<Arc<FaultPlan>>,
    /// If true, fresh (non-resumed) runs that reach a decisive verdict
    /// emit a proof [`Certificate`] in [`VerifyRun::certificate`]: the
    /// full split tree with per-leaf domains and margins for `Verified`,
    /// the validated witness for `Refuted`. Off by default.
    pub certificates: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            delta: 1e-9,
            timeout: Duration::from_secs(60),
            max_regions: 200_000,
            restarts: 2,
            seed: 0,
            counterexample_search: true,
            lipschitz_prefilter: false,
            cancel: None,
            faults: None,
            certificates: false,
        }
    }
}

/// Statistics collected during one verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyStats {
    /// Regions popped from the worklist.
    pub regions: usize,
    /// Regions discharged by abstract interpretation.
    pub verified_regions: usize,
    /// Abstract-interpretation calls.
    pub analyze_calls: usize,
    /// Gradient-based minimization runs.
    pub attacks: usize,
    /// Region splits performed.
    pub splits: usize,
    /// Deepest recursion depth reached.
    pub max_depth: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Uses of each abstract domain, keyed by `(base, disjuncts)` display
    /// string.
    pub domain_uses: Vec<(String, usize)>,
    /// Per-phase timing and latency metrics (always on; merged across
    /// workers at join in parallel runs).
    pub metrics: Metrics,
}

impl VerifyStats {
    /// Adds another worker's counters into this one.
    pub(crate) fn absorb(&mut self, other: &VerifyStats) {
        self.regions += other.regions;
        self.verified_regions += other.verified_regions;
        self.analyze_calls += other.analyze_calls;
        self.attacks += other.attacks;
        self.splits += other.splits;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.metrics.merge(&other.metrics);
        for (key, count) in &other.domain_uses {
            if let Some(entry) = self.domain_uses.iter_mut().find(|(k, _)| k == key) {
                entry.1 += count;
            } else {
                self.domain_uses.push((key.clone(), *count));
            }
        }
    }

    fn record_domain(&mut self, choice: DomainSelection) {
        let key = choice.to_string();
        if let Some(entry) = self.domain_uses.iter_mut().find(|(k, _)| *k == key) {
            entry.1 += 1;
        } else {
            self.domain_uses.push((key, 1));
        }
    }
}

/// Outcome of a completed (possibly budget-limited) verification run.
///
/// `ResourceLimit` verdicts carry the budget class that was hit and a
/// [`Checkpoint`] of the unexplored worklist, so callers can report *why*
/// the run stopped and resume it later.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// The verdict (all three classic variants are `Ok` outcomes).
    pub verdict: Verdict,
    /// Statistics for this run only (a resumed run restarts from zero).
    pub stats: VerifyStats,
    /// For [`Verdict::ResourceLimit`]: the undecided remainder of the
    /// worklist, suitable for [`Verifier::resume`].
    pub checkpoint: Option<Checkpoint>,
    /// For [`Verdict::ResourceLimit`]: which budget stopped the run.
    pub limit: Option<BudgetKind>,
    /// The proof certificate, when [`VerifierConfig::certificates`] is set
    /// and the run was fresh (not resumed) and decisive. `None` for
    /// resource-limited runs and whenever emission was not requested.
    pub certificate: Option<Certificate>,
}

impl VerifyRun {
    /// The run's per-phase engine metrics (merged across all workers for
    /// parallel runs). See [`crate::telemetry::RunReport`] for a rendered
    /// view.
    pub fn metrics(&self) -> &Metrics {
        &self.stats.metrics
    }
}

/// The Charon verifier: Algorithm 1 driven by a verification policy.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone)]
pub struct Verifier {
    policy: Arc<dyn Policy>,
    config: VerifierConfig,
    trace: SharedSink,
}

impl std::fmt::Debug for Verifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verifier")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            policy: Arc::new(LinearPolicy::default()),
            config: VerifierConfig::default(),
            trace: crate::telemetry::null_sink(),
        }
    }
}

impl Verifier {
    /// Creates a verifier with an explicit policy and configuration.
    pub fn new(policy: Arc<dyn Policy>, config: VerifierConfig) -> Self {
        Verifier {
            policy,
            config,
            trace: crate::telemetry::null_sink(),
        }
    }

    /// Creates a verifier with the given policy and default configuration.
    pub fn with_policy(policy: Arc<dyn Policy>) -> Self {
        Verifier {
            policy,
            config: VerifierConfig::default(),
            trace: crate::telemetry::null_sink(),
        }
    }

    /// Attaches a trace sink; subsequent runs emit
    /// [`crate::telemetry::TraceEvent`]s into it. The default sink is
    /// [`crate::telemetry::NullSink`] (tracing off, zero overhead).
    #[must_use]
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.trace = sink;
        self
    }

    /// The verifier's configuration.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut VerifierConfig {
        &mut self.config
    }

    /// Runs Algorithm 1 on a property.
    ///
    /// # Panics
    ///
    /// Panics if the property's region dimension differs from the
    /// network's input dimension, the target class is out of range, or the
    /// engine fails irrecoverably (see [`Verifier::try_verify_run`] for
    /// the non-panicking API).
    pub fn verify(&self, net: &Network, property: &RobustnessProperty) -> Verdict {
        self.verify_with_stats(net, property).0
    }

    /// Runs Algorithm 1, also returning run statistics.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Verifier::verify`].
    pub fn verify_with_stats(
        &self,
        net: &Network,
        property: &RobustnessProperty,
    ) -> (Verdict, VerifyStats) {
        self.verify_on(net, property, 1)
    }

    /// Runs Algorithm 1, separating verdicts from engine failures.
    ///
    /// All three [`Verdict`] variants are `Ok` outcomes; budget-limited
    /// runs additionally carry a [`Checkpoint`] and the [`BudgetKind`]
    /// that was hit.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::MalformedModel`] for structurally unusable
    /// inputs, [`VerifyError::WorkerPanic`] if a region step panicked and
    /// the interval retry panicked too, and
    /// [`VerifyError::NonFinitePoisoning`] if NaN poisoned both the
    /// selected domain and the interval fallback.
    pub fn try_verify_run(
        &self,
        net: &Network,
        property: &RobustnessProperty,
    ) -> Result<VerifyRun, VerifyError> {
        let mut ws = Workspace::new();
        self.try_verify_run_ws(net, property, &mut ws)
    }

    /// As [`Verifier::try_verify_run`], but propagating through a
    /// caller-owned [`Workspace`] scratch arena.
    ///
    /// Long-lived callers that verify many properties back to back (the
    /// verification server's worker pool, batch certification) keep one
    /// arena per worker thread so layer buffers recycle across *jobs*,
    /// not just across the regions of one run.
    ///
    /// # Errors
    ///
    /// As [`Verifier::try_verify_run`].
    pub fn try_verify_run_ws(
        &self,
        net: &Network,
        property: &RobustnessProperty,
        ws: &mut Workspace,
    ) -> Result<VerifyRun, VerifyError> {
        self.run_on(net, property, ws, 1)
    }

    /// Continues an interrupted run from a [`Checkpoint`], processing only
    /// the regions the earlier run left undecided.
    ///
    /// Budgets (timeout, region cap) start afresh for the resumed run;
    /// `checkpoint.regions_done` is informational. With identical
    /// configuration and seeds the union of the interrupted run's regions
    /// and the resumed run's regions equals a fresh uninterrupted run.
    ///
    /// # Errors
    ///
    /// As [`Verifier::try_verify_run`].
    pub fn resume(&self, net: &Network, checkpoint: &Checkpoint) -> Result<VerifyRun, VerifyError> {
        let mut ws = Workspace::new();
        self.resume_ws(net, checkpoint, &mut ws)
    }

    /// As [`Verifier::resume`], but propagating through a caller-owned
    /// [`Workspace`] scratch arena (see [`Verifier::try_verify_run_ws`]).
    ///
    /// # Errors
    ///
    /// As [`Verifier::try_verify_run`].
    pub fn resume_ws(
        &self,
        net: &Network,
        checkpoint: &Checkpoint,
        ws: &mut Workspace,
    ) -> Result<VerifyRun, VerifyError> {
        self.resume_on(net, checkpoint, ws, 1)
    }

    /// Checks a property's shape, runs it on `threads` workers and turns
    /// an engine failure into a panic: the body of the panicking `verify`
    /// entry points of this type and [`crate::parallel::ParallelVerifier`].
    pub(crate) fn verify_on(
        &self,
        net: &Network,
        property: &RobustnessProperty,
        threads: usize,
    ) -> (Verdict, VerifyStats) {
        assert_eq!(
            property.region().dim(),
            net.input_dim(),
            "region dimension must match network input"
        );
        assert!(
            property.target() < net.output_dim(),
            "target class out of range"
        );
        match self.run_on(net, property, &mut Workspace::new(), threads) {
            Ok(run) => (run.verdict, run.stats),
            Err(e) => panic!("verification engine failure: {e}"),
        }
    }

    /// A fresh run of `property` on `threads` workers.
    pub(crate) fn run_on(
        &self,
        net: &Network,
        property: &RobustnessProperty,
        ws: &mut Workspace,
        threads: usize,
    ) -> Result<VerifyRun, VerifyError> {
        validate_problem(net, property.region(), property.target())?;
        let cert_root = self.config.certificates.then(|| property.region().clone());
        self.run_worklist(
            net,
            property.target(),
            vec![(property.region().clone(), 0)],
            cert_root,
            ws,
            threads,
        )
    }

    /// A resumed run of `checkpoint` on `threads` workers.
    pub(crate) fn resume_on(
        &self,
        net: &Network,
        checkpoint: &Checkpoint,
        ws: &mut Workspace,
        threads: usize,
    ) -> Result<VerifyRun, VerifyError> {
        if checkpoint.target >= net.output_dim() {
            return Err(VerifyError::MalformedModel {
                reason: format!(
                    "checkpoint target class {} out of range for {} outputs",
                    checkpoint.target,
                    net.output_dim()
                ),
            });
        }
        for (region, _) in &checkpoint.pending {
            validate_problem(net, region, checkpoint.target)?;
        }
        // A resumed run cannot account for the regions the interrupted run
        // already discharged, so it never emits a certificate.
        let pending = checkpoint.pending.clone();
        self.run_worklist(net, checkpoint.target, pending, None, ws, threads)
    }

    /// The region driver behind every entry point: Algorithm 1's worklist
    /// loop on `threads` workers sharing one [`Scheduler`].
    ///
    /// One worker runs inline on the caller's thread and workspace; more
    /// run in a thread scope with worker 0 on the caller's thread.
    /// `cert_root` is `Some(root region)` when this is a fresh single-root
    /// run that should emit a proof certificate; resumed runs pass `None`.
    fn run_worklist(
        &self,
        net: &Network,
        target: usize,
        initial: Vec<(Bounds, usize)>,
        cert_root: Option<Bounds>,
        ws: &mut Workspace,
        threads: usize,
    ) -> Result<VerifyRun, VerifyError> {
        let start = Instant::now();
        let deadline = start + self.config.timeout;
        // The objective F is a difference of two M-Lipschitz outputs, so
        // it is 2M-Lipschitz; computed once per verification run.
        let objective_lipschitz = if self.config.lipschitz_prefilter {
            2.0 * net.lipschitz_bound()
        } else {
            f64::INFINITY
        };
        let recording = cert_root.is_some();
        let state = RunState {
            sched: Scheduler::new(threads, initial),
            claimed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            found: Mutex::new(None),
            error: Mutex::new(None),
            merged: Mutex::new((VerifyStats::default(), cert_root.map(CertRecorder::new))),
        };
        let worker = |id: usize, ws: &mut Workspace| {
            let minimizer = Minimizer::new(self.config.seed.wrapping_add(id as u64))
                .with_restarts(self.config.restarts);
            let env = StepEnv {
                net,
                target,
                minimizer: &minimizer,
                policy: self.policy.as_ref(),
                config: &self.config,
                deadline,
                objective_lipschitz,
                trace: self.trace.as_ref(),
            };
            let mut stats = VerifyStats::default();
            let mut records = recording.then(CertRecorder::default);
            let looped = catch_unwind(AssertUnwindSafe(|| {
                worker_loop(id, &env, &state, &mut stats, &mut records, ws);
            }));
            if let Err(payload) = looped {
                // Region steps are panic-isolated, so this is a bug in the
                // driver itself (or in a trace sink): an engine error that
                // stops every worker, not a process abort.
                state.record_error(VerifyError::WorkerPanic {
                    message: panic_message(payload.as_ref()),
                });
            }
            // The run already reports a caught panic as an error; a
            // poisoned slot must not turn it into a second panic.
            let mut merged = state.merged.lock().unwrap_or_else(PoisonError::into_inner);
            merged.0.absorb(&stats);
            if let (Some(total), Some(records)) = (&mut merged.1, records) {
                total.absorb(records);
            }
        };
        if threads <= 1 {
            worker(0, ws);
        } else {
            std::thread::scope(|scope| {
                for id in 1..threads {
                    let worker = &worker;
                    // Each extra worker recycles buffers in its own arena,
                    // never across threads.
                    scope.spawn(move || worker(id, &mut Workspace::new()));
                }
                worker(0, ws);
            });
        }

        let RunState {
            sched,
            found,
            error,
            merged,
            ..
        } = state;
        let (error, found) = (
            error.into_inner().unwrap_or_else(PoisonError::into_inner),
            found.into_inner().unwrap_or_else(PoisonError::into_inner),
        );
        let (verdict, limit) = match (error, found) {
            // A validated refutation outranks a late engine error: the
            // counterexample is real regardless of what broke elsewhere.
            (Some(_), Some((Verdict::Refuted(cex), _))) => (Verdict::Refuted(cex), None),
            (Some(e), _) => return Err(e),
            // A budget that lapsed while the last regions were in flight,
            // all of which then verified, stopped a completed run.
            (None, Some((Verdict::ResourceLimit, _))) if sched.drained() => {
                (Verdict::Verified, None)
            }
            (None, Some((verdict, limit))) => (verdict, limit),
            (None, None) => (Verdict::Verified, None),
        };
        let (mut stats, recorder) = merged.into_inner().unwrap_or_else(PoisonError::into_inner);
        stats.elapsed = start.elapsed();
        // The checkpoint counts regions from the *merged* worker stats,
        // which absorb every worker on every exit path.
        let checkpoint = matches!(verdict, Verdict::ResourceLimit).then(|| Checkpoint {
            target,
            pending: sched.into_pending(),
            regions_done: stats.regions,
        });
        if let Some(ckpt) = &checkpoint {
            emit(self.trace.as_ref(), || TraceEvent::CheckpointSaved {
                pending: ckpt.pending.len(),
                regions_done: ckpt.regions_done,
            });
        }
        emit(self.trace.as_ref(), || TraceEvent::Verdict {
            verdict: verdict.name().to_string(),
            regions: stats.regions,
            seconds: stats.elapsed.as_secs_f64(),
        });
        let certificate =
            recorder.and_then(|rec| rec.finish(net, target, self.config.delta, &verdict));
        Ok(VerifyRun {
            verdict,
            stats,
            checkpoint,
            limit,
            certificate,
        })
    }
}

/// The engine's record-and-stop verdict preference rule: whether an
/// `incoming` verdict should replace the `current` one.
///
/// First writer wins, with one exception: a validated refutation replaces
/// an already-recorded `ResourceLimit`. A worker (or shard node) mid-step
/// when another hits a budget may still find a real counterexample;
/// dropping it would checkpoint a worklist without the refuted region,
/// and resuming that checkpoint could flip the verdict to `Verified`.
///
/// This single rule is shared by the region driver and the coordinator
/// tier's cross-node shard merge, so the two scheduling layers cannot
/// drift apart semantically.
pub fn verdict_supersedes(current: Option<&Verdict>, incoming: &Verdict) -> bool {
    match current {
        None => true,
        Some(Verdict::ResourceLimit) => matches!(incoming, Verdict::Refuted(_)),
        Some(_) => false,
    }
}

/// State shared by every worker of one run.
struct RunState {
    sched: Scheduler,
    /// Regions popped so far. A region's claim is its trace ordinal (when
    /// no fault plan numbers regions) and its place under the region cap.
    claimed: AtomicUsize,
    stop: AtomicBool,
    found: Mutex<Option<(Verdict, Option<BudgetKind>)>>,
    error: Mutex<Option<VerifyError>>,
    /// Worker stats and certificate records, merged as each worker exits.
    merged: Mutex<(VerifyStats, Option<CertRecorder>)>,
}

impl RunState {
    /// Records a verdict and tells everyone to stop, following
    /// [`verdict_supersedes`].
    fn record_and_stop(&self, verdict: Verdict, limit: Option<BudgetKind>) {
        let mut slot = self.found.lock().unwrap_or_else(PoisonError::into_inner);
        if verdict_supersedes(slot.as_ref().map(|(v, _)| v), &verdict) {
            *slot = Some((verdict, limit));
        }
        self.halt();
    }

    /// Records an engine error (first writer wins) and stops the run.
    fn record_error(&self, e: VerifyError) {
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(e);
        }
        self.halt();
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        // Parked workers observe `stop` only when awake; wake them so the
        // run winds down promptly instead of after a park slice.
        self.sched.wake_all();
    }
}

/// The budget that stops a run before its next region, if any. `claimed`
/// is the number of regions popped before it.
fn lapsed_budget(config: &VerifierConfig, deadline: Instant, claimed: usize) -> Option<BudgetKind> {
    if Instant::now() >= deadline {
        Some(BudgetKind::Timeout)
    } else if claimed >= config.max_regions {
        Some(BudgetKind::Regions)
    } else if config
        .cancel
        .as_ref()
        .is_some_and(|flag| flag.load(Ordering::Relaxed))
    {
        Some(BudgetKind::Cancelled)
    } else {
        None
    }
}

/// Fires an injected cancellation due at region `ordinal`, if any.
fn injected_cancel(env: &StepEnv<'_>, ordinal: usize) -> Option<BudgetKind> {
    let plan = env.config.faults.as_ref()?;
    if !plan.fire(FaultSite::Cancel, ordinal) {
        return None;
    }
    emit(env.trace, || TraceEvent::FaultTriggered {
        site: FaultSite::Cancel.as_str().to_string(),
        ordinal,
    });
    if let Some(flag) = &env.config.cancel {
        flag.store(true, Ordering::Relaxed);
    }
    Some(BudgetKind::Cancelled)
}

/// One worker: pop (or steal) regions, run the guarded step, push splits
/// back onto its own deque, until the worklist drains or the run stops.
fn worker_loop(
    id: usize,
    env: &StepEnv<'_>,
    state: &RunState,
    stats: &mut VerifyStats,
    records: &mut Option<CertRecorder>,
    ws: &mut Workspace,
) {
    let config = env.config;
    while !state.stop.load(Ordering::Acquire) {
        let Some(region) = state.sched.try_pop(id, &mut stats.metrics) else {
            // Every deque is empty: finished if nothing is in flight,
            // otherwise park until an in-flight region splits (the
            // scheduler wakes us) or a park slice elapses (so deadlines
            // and external cancellation stay observed).
            if state.sched.drained() {
                return;
            }
            let claimed = state.claimed.load(Ordering::Relaxed);
            if let Some(kind) = lapsed_budget(config, env.deadline, claimed) {
                state.record_and_stop(Verdict::ResourceLimit, Some(kind));
                return;
            }
            let wait = env.deadline.saturating_duration_since(Instant::now());
            state.sched.park(wait, &mut stats.metrics, || {
                state.stop.load(Ordering::Acquire)
            });
            continue;
        };
        // One claim per pop: two regions in flight never share an
        // ordinal, and exactly `max_regions` regions run.
        let claimed = state.claimed.fetch_add(1, Ordering::Relaxed);
        let ordinal = match &config.faults {
            Some(plan) => plan.next_region(),
            None => claimed,
        };
        if let Some(kind) =
            lapsed_budget(config, env.deadline, claimed).or_else(|| injected_cancel(env, ordinal))
        {
            // Re-queue without completing: the region stays in the task
            // count and lands in the checkpoint.
            state.sched.requeue(id, region);
            state.record_and_stop(Verdict::ResourceLimit, Some(kind));
            return;
        }
        let depth = region.depth;
        emit(env.trace, || TraceEvent::RegionPopped { ordinal, depth });
        stats.regions += 1;
        stats.max_depth = stats.max_depth.max(depth);
        let incumbent = region.incumbent.as_deref();
        match guarded_region_step(env, &region.bounds, incumbent, ordinal, stats, ws) {
            Ok(RegionOutcome::Verified { domain, margin }) => {
                stats.verified_regions += 1;
                if let Some(rec) = records {
                    rec.leaf(&region.bounds, domain, margin);
                }
                state.sched.complete_one();
            }
            Ok(RegionOutcome::Refuted(cex)) => {
                state.record_and_stop(Verdict::Refuted(cex), None);
                state.sched.complete_one();
            }
            Ok(RegionOutcome::Split {
                left,
                right,
                dim,
                at,
                incumbent,
            }) => {
                emit(env.trace, || TraceEvent::RegionPushed { depth: depth + 1 });
                emit(env.trace, || TraceEvent::RegionPushed { depth: depth + 1 });
                if let Some(rec) = records {
                    rec.split(&region.bounds, dim, at);
                }
                // Both children inherit the parent's x*. They enter the
                // worklist before the parent completes, so the drained
                // signal never dips mid-split.
                let child = |bounds| Region {
                    bounds,
                    depth: depth + 1,
                    incumbent: incumbent.clone(),
                };
                state.sched.push_split(id, child(left), child(right));
                state.sched.complete_one();
            }
            Ok(RegionOutcome::Unsplittable) => {
                // Undecidable at f64 precision: an honest resource limit,
                // never a fabricated refutation. Keep the region in the
                // worklist so the checkpoint records it.
                state.sched.requeue(id, region);
                state.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::NumericPrecision));
            }
            Err(e) => {
                state.record_error(e);
                state.sched.complete_one();
            }
        }
    }
}

/// Collects the flat leaf/split records of one run and assembles them
/// into a [`Certificate`] once the verdict is known.
///
/// The driver keeps one per worker and merges them under the run's lock
/// like [`VerifyStats`].
#[derive(Debug, Default)]
pub(crate) struct CertRecorder {
    root: Option<Bounds>,
    leaves: Vec<LeafRecord>,
    splits: Vec<SplitRecord>,
}

impl CertRecorder {
    pub(crate) fn new(root: Bounds) -> Self {
        CertRecorder {
            root: Some(root),
            leaves: Vec::new(),
            splits: Vec::new(),
        }
    }

    pub(crate) fn leaf(&mut self, region: &Bounds, domain: String, margin: f64) {
        // The certificate format requires a finite non-negative margin;
        // the audit replay is authoritative, so clamping here never makes
        // an unsound claim pass (a bogus leaf still fails its replay).
        let margin = if margin.is_finite() { margin.max(0.0) } else { 0.0 };
        self.leaves.push(LeafRecord {
            region: region.clone(),
            domain,
            margin,
        });
    }

    pub(crate) fn split(&mut self, region: &Bounds, dim: usize, at: f64) {
        self.splits.push(SplitRecord {
            region: region.clone(),
            dim,
            at,
        });
    }

    /// Folds another worker's records into this one.
    pub(crate) fn absorb(&mut self, other: CertRecorder) {
        self.leaves.extend(other.leaves);
        self.splits.extend(other.splits);
    }

    /// Builds the certificate for a decisive verdict; `None` for
    /// resource-limited runs or if the records do not tile the root
    /// (best-effort emission, never a panic).
    pub(crate) fn finish(
        self,
        net: &Network,
        target: usize,
        delta: f64,
        verdict: &Verdict,
    ) -> Option<Certificate> {
        let root = self.root?;
        let net_hash = nn::serialize::content_hash(net);
        match verdict {
            Verdict::Verified => Certificate::assemble_verified(
                net_hash,
                target,
                delta,
                root,
                &self.leaves,
                &self.splits,
            ),
            Verdict::Refuted(cex) => Some(Certificate {
                net_hash,
                target,
                delta,
                root,
                verdict: CertVerdict::Refuted {
                    witness: cex.point.clone(),
                    objective: cex.objective,
                },
            }),
            Verdict::ResourceLimit => None,
        }
    }
}

/// Checks that a (network, region, target) triple is structurally usable.
pub(crate) fn validate_problem(
    net: &Network,
    region: &Bounds,
    target: usize,
) -> Result<(), VerifyError> {
    if region.dim() != net.input_dim() {
        return Err(VerifyError::MalformedModel {
            reason: format!(
                "region dimension {} does not match network input dimension {}",
                region.dim(),
                net.input_dim()
            ),
        });
    }
    if target >= net.output_dim() {
        return Err(VerifyError::MalformedModel {
            reason: format!(
                "target class {target} out of range for {} outputs",
                net.output_dim()
            ),
        });
    }
    if !region.is_finite() {
        return Err(VerifyError::MalformedModel {
            reason: "property region has non-finite bounds".to_string(),
        });
    }
    if !net.params_finite() {
        return Err(VerifyError::MalformedModel {
            reason: "network has non-finite parameters".to_string(),
        });
    }
    Ok(())
}

/// Everything a region step needs; one per worker.
pub(crate) struct StepEnv<'a> {
    pub net: &'a Network,
    pub target: usize,
    pub minimizer: &'a Minimizer,
    pub policy: &'a dyn Policy,
    pub config: &'a VerifierConfig,
    pub deadline: Instant,
    pub objective_lipschitz: f64,
    pub trace: &'a dyn TraceSink,
}

/// What processing one region concluded.
#[derive(Debug)]
pub(crate) enum RegionOutcome {
    /// The region was proved safe; carries the discharging domain's
    /// display name and its certified margin lower bound (`> 0`, except
    /// for complete-solver proofs which report `0.0` and lean on the
    /// auditor's replay), for certificate leaf records.
    Verified { domain: String, margin: f64 },
    /// A validated δ-counterexample was found inside the region.
    Refuted(Counterexample),
    /// Undecided; recurse on the two halves. `dim`/`at` describe the cut
    /// (for certificate split records); `incumbent` is the finite `x*` the
    /// policy split on, which both children analyze on and warm-start
    /// their attacks from (`None` from the coarse retry, and with
    /// counterexample search off).
    Split {
        left: Bounds,
        right: Bounds,
        dim: usize,
        at: f64,
        incumbent: Option<Arc<[f64]>>,
    },
    /// Undecided and numerically unsplittable: the driver must report
    /// [`Verdict::ResourceLimit`] (never a fabricated refutation).
    Unsplittable,
}

/// Result of one *attempt* at a region step, before the degradation
/// ladder is applied.
enum StepResult {
    Outcome(RegionOutcome),
    /// NaN reached the named stage; the caller retries on intervals.
    Poisoned(&'static str),
}

/// Runs a region step under panic isolation with the degradation ladder:
/// a panicking or poisoned full-precision step is retried once on the
/// coarsest (interval) domain; only a second failure aborts the run.
///
/// `ws` is the worker's scratch arena. It only ever holds buffers whose
/// contents are overwritten before use, so unwinding mid-step cannot
/// leave observable state behind (`AssertUnwindSafe` is justified).
pub(crate) fn guarded_region_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    incumbent: Option<&[f64]>,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> Result<RegionOutcome, VerifyError> {
    let first = catch_unwind(AssertUnwindSafe(|| {
        region_step(env, region, incumbent, ordinal, stats, ws)
    }));
    match first {
        Ok(StepResult::Outcome(outcome)) => Ok(outcome),
        Ok(StepResult::Poisoned(_)) | Err(_) => {
            let retry = catch_unwind(AssertUnwindSafe(|| {
                coarse_region_step(env, region, ordinal, stats, ws)
            }));
            match retry {
                Ok(StepResult::Outcome(outcome)) => Ok(outcome),
                Ok(StepResult::Poisoned(stage)) => Err(VerifyError::NonFinitePoisoning { stage }),
                Err(payload) => Err(VerifyError::WorkerPanic {
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
    }
}

/// One full-precision region step (Algorithm 1 lines 2-12). May panic;
/// always called through [`guarded_region_step`]. `incumbent` is the
/// parent's `x*` for a split child (see [`attack_and_analyze`]).
fn region_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    incumbent: Option<&[f64]>,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> StepResult {
    if let Some(plan) = &env.config.faults {
        if plan.fire(FaultSite::WorkerPanic, ordinal) {
            emit(env.trace, || TraceEvent::FaultTriggered {
                site: FaultSite::WorkerPanic.as_str().to_string(),
                ordinal,
            });
            panic!("injected fault: worker panic at region {ordinal}");
        }
        if plan.fire(FaultSite::Delay, ordinal) {
            emit(env.trace, || TraceEvent::FaultTriggered {
                site: FaultSite::Delay.as_str().to_string(),
                ordinal,
            });
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    match attack_and_analyze(env, region, incumbent, ordinal, stats, ws) {
        ControlFlow::Break(decided) => decided,
        ControlFlow::Continue((x_star, objective)) => {
            split_step(env, region, x_star, objective, ordinal, stats)
        }
    }
}

/// Runs the attack and the analysis of a region in the order its kind
/// calls for; breaks with a decision, or continues with the attack's
/// finite `(x*, F(x*))` for the split.
///
/// Regions without an incumbent (property roots, resumed checkpoint
/// regions, children of the coarse retry, and every region when
/// counterexample search is off) keep Algorithm 1's order: attack, then
/// analyze. A split child analyzes first, with the parent's `x*` clamped
/// into it as the policy's context, and attacks only if the domain
/// cannot prove it. Either way every region that splits was attacked, so
/// δ-completeness holds and the split is placed on the region's own `x*`.
fn attack_and_analyze(
    env: &StepEnv<'_>,
    region: &Bounds,
    incumbent: Option<&[f64]>,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> ControlFlow<StepResult, (Vec<f64>, f64)> {
    if let Some((x0, f0)) = child_context(env, region, incumbent) {
        delta_check(env, region, &x0, f0)?;
        analyze_step(env, region, &x0, f0, ordinal, stats, ws)?;
        return attack_step(env, region, incumbent, ordinal, stats);
    }
    let (x_star, objective) = attack_step(env, region, incumbent, ordinal, stats)?;
    analyze_step(env, region, &x_star, objective, ordinal, stats, ws)?;
    ControlFlow::Continue((x_star, objective))
}

/// A split child's analysis context: the incumbent clamped into the
/// region and `F` there. `None` without an incumbent, or when `F` is
/// non-finite there (the region then runs Algorithm 1's order, whose
/// numeric guard handles it).
fn child_context(
    env: &StepEnv<'_>,
    region: &Bounds,
    incumbent: Option<&[f64]>,
) -> Option<(Vec<f64>, f64)> {
    let mut x0 = incumbent?.to_vec();
    region.clamp(&mut x0);
    let f0 = env.net.objective(&x0, env.target);
    f0.is_finite().then_some((x0, f0))
}

/// Line 3 (Eq. 4): F(x) < δ refutes — but only counterexamples that
/// survive validation (finite, clamped in-region, margin re-checked with
/// a directed upper bound) are ever reported. The `<=` here is a cheap
/// gate only: validation is strict, so a tie cannot slip through.
fn delta_check(
    env: &StepEnv<'_>,
    region: &Bounds,
    x: &[f64],
    objective: f64,
) -> ControlFlow<StepResult> {
    if objective <= env.config.delta {
        if let Some(cex) =
            validated_counterexample(env.net, region, env.target, x, env.config.delta)
        {
            return ControlFlow::Break(StepResult::Outcome(RegionOutcome::Refuted(cex)));
        }
    }
    ControlFlow::Continue(())
}

/// Lines 2-3: x* <- Minimize(I, F), warm-started from the parent's x* on
/// a split child, then the δ-check. Continues with a finite
/// `(x*, F(x*))`; with counterexample search off, the region center.
fn attack_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    incumbent: Option<&[f64]>,
    ordinal: usize,
    stats: &mut VerifyStats,
) -> ControlFlow<StepResult, (Vec<f64>, f64)> {
    let config = env.config;
    let net = env.net;
    let target = env.target;
    let (mut x_star, mut objective) = if config.counterexample_search {
        stats.attacks += 1;
        let attack_start = Instant::now();
        let result = env.minimizer.minimize_from(net, region, target, incumbent);
        stats
            .metrics
            .record_attack(attack_start.elapsed().as_secs_f64(), &result.phases);
        for p in result.phases.iter() {
            emit(env.trace, || TraceEvent::Attack {
                ordinal,
                phase: p.phase.to_string(),
                evals: p.evals,
                best_objective: p.best_objective,
                seconds: p.seconds,
            });
        }
        (result.point, result.objective)
    } else {
        let center = region.center();
        let f = net.objective(&center, target);
        (center, f)
    };
    if let Some(plan) = &config.faults {
        if plan.fire(FaultSite::AttackNan, ordinal) {
            emit(env.trace, || TraceEvent::FaultTriggered {
                site: FaultSite::AttackNan.as_str().to_string(),
                ordinal,
            });
            // A poisoned gradient run claiming an impossible objective:
            // the validation below must reject it.
            x_star = vec![f64::NAN; region.dim()];
            objective = f64::NEG_INFINITY;
        }
    }
    delta_check(env, region, &x_star, objective)?;

    // Numeric guard: a non-finite attack result must not reach the policy
    // featurization. Degrade to the region center; if even that evaluates
    // non-finite, the network itself is emitting NaN on this region.
    if !objective.is_finite() || x_star.iter().any(|v| !v.is_finite()) {
        let center = region.center();
        let f = net.objective(&center, target);
        if !f.is_finite() {
            return ControlFlow::Break(StepResult::Poisoned("attack"));
        }
        x_star = center;
        objective = f;
        delta_check(env, region, &x_star, objective)?;
    }
    ControlFlow::Continue((x_star, objective))
}

/// Lines 4-7: the Lipschitz pre-filter, the exact path for degenerate
/// regions, then the policy's domain on context `(x, F(x))` with the
/// interval retry as the first rung of the degradation ladder. Breaks
/// with a decision or poisoning; continues if the region is undecided.
fn analyze_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    x: &[f64],
    objective: f64,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> ControlFlow<StepResult> {
    let config = env.config;
    let net = env.net;
    let target = env.target;
    let decided = |outcome| ControlFlow::Break(StepResult::Outcome(outcome));

    // Lipschitz pre-filter: if the center margin dominates the worst-case
    // change across the region, the region is safe.
    if config.lipschitz_prefilter {
        let center = region.center();
        let center_margin = net.objective(&center, target);
        let slack = center_margin - env.objective_lipschitz * 0.5 * region.diameter();
        if slack > 0.0 {
            return decided(RegionOutcome::Verified {
                domain: "lipschitz".to_string(),
                margin: slack,
            });
        }
    }

    // Degenerate regions are decided exactly by the interval domain (the
    // box is a point along every zero-width axis).
    if region.widths().iter().all(|w| *w <= f64::EPSILON) {
        stats.analyze_calls += 1;
        return match timed_interval_analysis(env, region, ordinal, stats, ws) {
            (AnalysisOutcome::Proved, margin) => decided(RegionOutcome::Verified {
                domain: DomainChoice::interval().to_string(),
                margin,
            }),
            (AnalysisOutcome::Poisoned, _) => {
                ControlFlow::Break(StepResult::Poisoned("transformer"))
            }
            (AnalysisOutcome::Inconclusive, _) => {
                // Exact analysis failed on a point region: its center is a
                // true counterexample (modulo validation).
                match validated_counterexample(net, region, target, &region.center(), config.delta)
                {
                    Some(cex) => decided(RegionOutcome::Refuted(cex)),
                    None => decided(RegionOutcome::Unsplittable),
                }
            }
        };
    }

    // Lines 5-7: pick a domain and try to prove the region.
    let ctx = PolicyContext {
        net,
        region,
        target,
        x_star: x,
        objective,
    };
    let policy_start = Instant::now();
    let choice = env.policy.choose_domain(&ctx);
    stats
        .metrics
        .record_policy(policy_start.elapsed().as_secs_f64());
    stats.analyze_calls += 1;
    stats.record_domain(choice);
    let forced_nan = config
        .faults
        .as_ref()
        .is_some_and(|plan| plan.fire(FaultSite::TransformerNan, ordinal));
    if forced_nan {
        emit(env.trace, || TraceEvent::FaultTriggered {
            site: FaultSite::TransformerNan.as_str().to_string(),
            ordinal,
        });
    }
    let propagation_start = Instant::now();
    // Selections that do not run the checked propagation leave no
    // per-layer times behind, never the previous region's.
    ws.clear_layer_seconds();
    let selection = if forced_nan {
        SelectionResult::Poisoned
    } else {
        run_selection(net, region, target, choice, env.deadline, ws)
    };
    record_propagation(
        env,
        stats,
        ws,
        ordinal,
        choice,
        propagation_start,
        selection_name(&selection),
    );
    match selection {
        SelectionResult::Verified { margin } => {
            return decided(RegionOutcome::Verified {
                domain: choice.to_string(),
                margin,
            })
        }
        SelectionResult::Violated(point) => {
            if let Some(cex) = validated_counterexample(net, region, target, &point, config.delta) {
                return decided(RegionOutcome::Refuted(cex));
            }
            // The solver's witness did not validate; treat as
            // inconclusive and fall through to the split.
        }
        SelectionResult::Poisoned => {
            // First rung of the degradation ladder: retry this region on
            // the interval domain before splitting or giving up.
            stats.analyze_calls += 1;
            match timed_interval_analysis(env, region, ordinal, stats, ws) {
                (AnalysisOutcome::Proved, margin) => {
                    return decided(RegionOutcome::Verified {
                        domain: DomainChoice::interval().to_string(),
                        margin,
                    })
                }
                (AnalysisOutcome::Poisoned, _) => {
                    return ControlFlow::Break(StepResult::Poisoned("transformer"))
                }
                (AnalysisOutcome::Inconclusive, _) => {}
            }
        }
        SelectionResult::Inconclusive => {}
    }
    ControlFlow::Continue(())
}

/// Lines 8-12: split the undecided region on its attack's `x*` and
/// recurse on both halves, which inherit that `x*` as their incumbent.
fn split_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    x_star: Vec<f64>,
    objective: f64,
    ordinal: usize,
    stats: &mut VerifyStats,
) -> StepResult {
    let ctx = PolicyContext {
        net: env.net,
        region,
        target: env.target,
        x_star: &x_star,
        objective,
    };
    let policy_start = Instant::now();
    let plan = env.policy.choose_split(&ctx);
    stats
        .metrics
        .record_policy(policy_start.elapsed().as_secs_f64());
    let at = crate::policy::clamp_split(region, plan.dim, plan.at);
    let (dim, at) = if at > region.lower()[plan.dim] && at < region.upper()[plan.dim] {
        (plan.dim, at)
    } else {
        // Zero-width split dimension: fall back to the widest dimension.
        let dim = region.longest_dim();
        (dim, 0.5 * (region.lower()[dim] + region.upper()[dim]))
    };
    if at <= region.lower()[dim] || at >= region.upper()[dim] {
        return StepResult::Outcome(RegionOutcome::Unsplittable);
    }
    stats.splits += 1;
    emit(env.trace, || TraceEvent::Bisection {
        ordinal,
        dim,
        at,
        objective,
    });
    let (a, b) = region.split_at(dim, at);
    StepResult::Outcome(RegionOutcome::Split {
        left: a,
        right: b,
        dim,
        at,
        // After the attack's numeric guard, x* is finite.
        incumbent: env.config.counterexample_search.then(|| Arc::from(x_star)),
    })
}

/// Interval analysis with metrics timing and a `Propagation` trace event
/// — the shared instrumentation for the degenerate-region path and the
/// degradation ladder's interval retry.
fn timed_interval_analysis(
    env: &StepEnv<'_>,
    region: &Bounds,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> (AnalysisOutcome, f64) {
    let start = Instant::now();
    let choice = DomainChoice::interval();
    let (outcome, margin) = analyze_margin_checked_ws(env.net, region, env.target, choice, ws);
    record_propagation(
        env,
        stats,
        ws,
        ordinal,
        DomainSelection::Abstract(choice),
        start,
        outcome_name(outcome),
    );
    (outcome, margin)
}

/// Records one propagation that began at `start` and ended with
/// `outcome`: its time, outcome and per-layer seconds (left in `ws` by the
/// checked propagation) go into the metrics and, when tracing, into a
/// `Propagation` event built from the same numbers.
fn record_propagation(
    env: &StepEnv<'_>,
    stats: &mut VerifyStats,
    ws: &Workspace,
    ordinal: usize,
    choice: DomainSelection,
    start: Instant,
    outcome: &'static str,
) {
    let seconds = start.elapsed().as_secs_f64();
    let metrics = &mut stats.metrics;
    metrics.record_propagation(seconds, outcome == "proved");
    metrics.record_layers(env.net.layers(), ws.layer_seconds());
    emit(env.trace, || TraceEvent::Propagation {
        ordinal,
        domain: choice.to_string(),
        seconds,
        outcome: outcome.to_string(),
        layer_seconds: ws.layer_seconds().to_vec(),
    });
}

/// Stable name of an [`AnalysisOutcome`], as used in trace events.
fn outcome_name(outcome: AnalysisOutcome) -> &'static str {
    match outcome {
        AnalysisOutcome::Proved => "proved",
        AnalysisOutcome::Inconclusive => "inconclusive",
        AnalysisOutcome::Poisoned => "poisoned",
    }
}

/// Stable name of a [`SelectionResult`], as used in trace events.
fn selection_name(selection: &SelectionResult) -> &'static str {
    match selection {
        SelectionResult::Verified { .. } => "proved",
        SelectionResult::Violated(_) => "violated",
        SelectionResult::Inconclusive => "inconclusive",
        SelectionResult::Poisoned => "poisoned",
    }
}

/// The coarse retry: interval analysis plus a midpoint split, with no
/// attack, no policy, and no faults. Used after a panic or poisoning.
fn coarse_region_step(
    env: &StepEnv<'_>,
    region: &Bounds,
    ordinal: usize,
    stats: &mut VerifyStats,
    ws: &mut Workspace,
) -> StepResult {
    stats.analyze_calls += 1;
    match timed_interval_analysis(env, region, ordinal, stats, ws) {
        (AnalysisOutcome::Proved, margin) => StepResult::Outcome(RegionOutcome::Verified {
            domain: DomainChoice::interval().to_string(),
            margin,
        }),
        (AnalysisOutcome::Poisoned, _) => StepResult::Poisoned("transformer"),
        (AnalysisOutcome::Inconclusive, _) => {
            // Cheap δ-check at the center before splitting.
            if let Some(cex) = validated_counterexample(
                env.net,
                region,
                env.target,
                &region.center(),
                env.config.delta,
            ) {
                return StepResult::Outcome(RegionOutcome::Refuted(cex));
            }
            let dim = region.longest_dim();
            let mid = 0.5 * (region.lower()[dim] + region.upper()[dim]);
            if mid > region.lower()[dim] && mid < region.upper()[dim] {
                stats.splits += 1;
                let (a, b) = region.split_at(dim, mid);
                StepResult::Outcome(RegionOutcome::Split {
                    left: a,
                    right: b,
                    dim,
                    at: mid,
                    incumbent: None,
                })
            } else {
                StepResult::Outcome(RegionOutcome::Unsplittable)
            }
        }
    }
}

/// Validates a claimed counterexample before it is reported: the point
/// must be finite, is clamped into the region, and the objective is
/// recomputed from scratch with a *directed upper bound* that must land
/// strictly below δ — the exact check the certificate auditor replays.
///
/// Strictness matters: `F_up(x*) == δ` ties and non-finite objectives are
/// rejected, so the verifier never reports a witness that
/// `charon-cli audit` (which applies the same `F_up(x*) < δ` rule with
/// outward rounding) would later refuse.
///
/// This is the sole path by which a [`Counterexample`] is constructed, so
/// a poisoned attack or solver can never fabricate a refutation.
pub(crate) fn validated_counterexample(
    net: &Network,
    region: &Bounds,
    target: usize,
    candidate: &[f64],
    delta: f64,
) -> Option<Counterexample> {
    if candidate.len() != region.dim() || candidate.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut point = candidate.to_vec();
    region.clamp(&mut point);
    let objective = net.objective(&point, target);
    // NaN fails both comparisons, so a poisoned evaluation cannot refute.
    // `objective_upper` dominates the round-to-nearest objective, so the
    // reported `objective` also satisfies `objective < delta`.
    if objective.is_finite() && cert::objective_upper(net, &point, target) < delta {
        Some(Counterexample { point, objective })
    } else {
        None
    }
}

/// Outcome of running one policy-selected analysis on a region.
pub(crate) enum SelectionResult {
    /// The region was proved safe; `margin` is the analysis's certified
    /// lower bound on the objective (`0.0` when the proving method does
    /// not expose one, e.g. the complete solver).
    Verified { margin: f64 },
    /// The (complete) analysis produced a concrete counterexample.
    Violated(Vec<f64>),
    /// The analysis could not decide the region.
    Inconclusive,
    /// NaN poisoned the analysis; the result is meaningless.
    Poisoned,
}

/// Dispatches a [`DomainSelection`] on a region. The deadline bounds the
/// complete solver; the abstract domains run to completion (they are fast
/// relative to a region budget).
///
/// Abstract-domain selections run the checked propagation, which leaves
/// its per-layer seconds in `ws` ([`Workspace::layer_seconds`]).
pub(crate) fn run_selection(
    net: &Network,
    region: &Bounds,
    target: usize,
    choice: DomainSelection,
    deadline: Instant,
    ws: &mut Workspace,
) -> SelectionResult {
    let from_outcome = |(outcome, margin): (AnalysisOutcome, f64)| match outcome {
        AnalysisOutcome::Proved => SelectionResult::Verified { margin },
        AnalysisOutcome::Inconclusive => SelectionResult::Inconclusive,
        AnalysisOutcome::Poisoned => SelectionResult::Poisoned,
    };
    match choice {
        DomainSelection::Abstract(c) => {
            from_outcome(analyze_margin_checked_ws(net, region, target, c, ws))
        }
        DomainSelection::DeepPoly => {
            // DeepPoly's margin comparison is NaN-safe (NaN reads as
            // "not verified"), so a poisoned run is merely inconclusive.
            let margin =
                domains::deeppoly::DeepPoly::analyze(net, region).margin_lower_bound(target);
            if margin > 0.0 {
                SelectionResult::Verified { margin }
            } else {
                SelectionResult::Inconclusive
            }
        }
        DomainSelection::RefinedZonotope { lp_per_layer } => {
            if !complete::supports(net) {
                // Architectures the LP cannot encode use the plain domain.
                return from_outcome(analyze_margin_checked_ws(
                    net,
                    region,
                    target,
                    DomainChoice::zonotope(),
                    ws,
                ));
            }
            let Some(refined) =
                complete::refine::refined_relu_bounds(net, region, deadline, lp_per_layer)
            else {
                return SelectionResult::Inconclusive;
            };
            // Propagate a zonotope, meeting each ReLU input with the
            // LP-refined box (sound: both over-approximate the truth).
            // Superseded elements are recycled into the worker workspace;
            // the ReLU rewrites the element it is handed in place.
            use domains::AbstractElement as _;
            let mut element = domains::Zonotope::from_bounds(region);
            let transposed = net.transposed();
            let mut relu_idx = 0;
            for (k, layer) in net.layers().iter().enumerate() {
                element = match layer {
                    nn::Layer::Affine(a) => {
                        let next = element.affine_ws(a, transposed.and_then(|t| t[k].as_ref()), ws);
                        element.recycle(ws);
                        next
                    }
                    nn::Layer::Relu => {
                        if let Some(met) = element.meet_box(&refined.relu_inputs[relu_idx]) {
                            std::mem::replace(&mut element, met).recycle(ws);
                        }
                        relu_idx += 1;
                        element.relu()
                    }
                    nn::Layer::MaxPool(p) => {
                        let next = element.max_pool(p);
                        element.recycle(ws);
                        next
                    }
                };
            }
            let margin = element.margin_lower_bound(target);
            let poisoned = element.is_poisoned();
            element.recycle(ws);
            if poisoned || margin.is_nan() {
                SelectionResult::Poisoned
            } else if margin > 0.0 {
                SelectionResult::Verified { margin }
            } else {
                SelectionResult::Inconclusive
            }
        }
        DomainSelection::Solver { node_budget } => {
            if !complete::supports(net) {
                // Fall back to the strongest classic domain for
                // architectures the solver cannot encode.
                return from_outcome(analyze_margin_checked_ws(
                    net,
                    region,
                    target,
                    DomainChoice::zonotope(),
                    ws,
                ));
            }
            let solver = complete::CompleteSolver::with_node_budget(node_budget);
            match solver.decide(net, region, target, deadline) {
                complete::Decision::Proved => SelectionResult::Verified { margin: 0.0 },
                complete::Decision::Violated(x) => SelectionResult::Violated(x),
                complete::Decision::Budget => SelectionResult::Inconclusive,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedPolicy;
    use domains::DomainChoice;
    use nn::samples;

    fn property(lo: Vec<f64>, hi: Vec<f64>, target: usize) -> RobustnessProperty {
        RobustnessProperty::new(Bounds::new(lo, hi), target)
    }

    #[test]
    fn verifies_xor_example_3_1() {
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let (verdict, stats) = Verifier::default().verify_with_stats(&net, &prop);
        assert_eq!(verdict, Verdict::Verified);
        assert!(stats.regions >= 1);
        assert!(stats.analyze_calls >= 1);
    }

    #[test]
    fn refutes_xor_on_unit_square() {
        let net = samples::xor_network();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        match Verifier::default().verify(&net, &prop) {
            Verdict::Refuted(cex) => {
                assert!(prop.region().contains(&cex.point));
                assert!(cex.objective <= 1e-9);
                assert!(cex.is_true_violation());
                assert_ne!(net.classify(&cex.point), 1);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn verifies_example_2_2() {
        let net = samples::example_2_2_network();
        let prop = property(vec![-1.0], vec![1.0], 1);
        assert_eq!(Verifier::default().verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn refutes_example_2_2_extended() {
        let net = samples::example_2_2_network();
        let prop = property(vec![-1.0], vec![2.0], 1);
        assert!(Verifier::default().verify(&net, &prop).is_refuted());
    }

    #[test]
    fn verifies_example_2_3_needing_disjunction_or_split() {
        let net = samples::example_2_3_network();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        assert_eq!(Verifier::default().verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn interval_only_policy_needs_more_splits_than_zonotope() {
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let zono = Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::zonotope())));
        let intv = Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
        let (vz, sz) = zono.verify_with_stats(&net, &prop);
        let (vi, si) = intv.verify_with_stats(&net, &prop);
        assert_eq!(vz, Verdict::Verified);
        assert_eq!(vi, Verdict::Verified);
        assert!(
            si.splits >= sz.splits,
            "intervals ({}) should need at least as many splits as zonotopes ({})",
            si.splits,
            sz.splits
        );
    }

    #[test]
    fn ablation_without_counterexample_search_still_sound() {
        let net = samples::xor_network();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        let mut verifier = Verifier::default();
        verifier.config_mut().counterexample_search = false;
        // Must still refute (via δ-checks at region centers), though it
        // may take more work.
        let verdict = verifier.verify(&net, &prop);
        match verdict {
            Verdict::Refuted(cex) => assert!(cex.objective <= 1e-9),
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reports_resource_limit() {
        let net = nn::train::random_mlp(6, &[24, 24, 24], 4, 3);
        let prop = property(vec![-1.0; 6], vec![1.0; 6], 0);
        let mut verifier = Verifier::default();
        verifier.config_mut().timeout = Duration::from_millis(1);
        // Either it instantly refutes (possible: random net may
        // misclassify the center) or it hits the budget; both are
        // acceptable, but Verified in 1 ms on [-1,1]^6 would be suspect.
        let verdict = verifier.verify(&net, &prop);
        assert!(
            !verdict.is_verified(),
            "unexpected instant verification: {verdict:?}"
        );
    }

    #[test]
    fn stats_track_domain_usage() {
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let (_, stats) = Verifier::default().verify_with_stats(&net, &prop);
        let total: usize = stats.domain_uses.iter().map(|(_, c)| c).sum();
        assert_eq!(total, stats.analyze_calls);
    }

    #[test]
    fn solver_domain_policy_verifies_and_refutes() {
        /// A policy that always asks for the complete solver.
        struct SolverPolicy;
        impl crate::policy::Policy for SolverPolicy {
            fn choose_domain(&self, _ctx: &crate::policy::PolicyContext<'_>) -> DomainSelection {
                DomainSelection::Solver { node_budget: 1000 }
            }
            fn choose_split(
                &self,
                ctx: &crate::policy::PolicyContext<'_>,
            ) -> crate::policy::SplitPlan {
                let dim = ctx.region.longest_dim();
                crate::policy::SplitPlan {
                    dim,
                    at: 0.5 * (ctx.region.lower()[dim] + ctx.region.upper()[dim]),
                }
            }
        }
        let verifier = Verifier::with_policy(Arc::new(SolverPolicy));
        let net = samples::xor_network();
        let robust = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        assert_eq!(verifier.verify(&net, &robust), Verdict::Verified);
        let broken = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        assert!(verifier.verify(&net, &broken).is_refuted());
    }

    #[test]
    fn refined_zonotope_policy_verifies() {
        struct RefinedPolicy;
        impl crate::policy::Policy for RefinedPolicy {
            fn choose_domain(&self, _ctx: &crate::policy::PolicyContext<'_>) -> DomainSelection {
                DomainSelection::RefinedZonotope { lp_per_layer: 8 }
            }
            fn choose_split(
                &self,
                ctx: &crate::policy::PolicyContext<'_>,
            ) -> crate::policy::SplitPlan {
                let dim = ctx.region.longest_dim();
                crate::policy::SplitPlan {
                    dim,
                    at: 0.5 * (ctx.region.lower()[dim] + ctx.region.upper()[dim]),
                }
            }
        }
        let verifier = Verifier::with_policy(Arc::new(RefinedPolicy));
        let net = samples::example_2_3_network();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        assert_eq!(verifier.verify(&net, &prop), Verdict::Verified);
        // Refutation still flows through the δ-check.
        let net2 = samples::example_2_2_network();
        let broken = property(vec![-1.0], vec![2.0], 1);
        assert!(verifier.verify(&net2, &broken).is_refuted());
    }

    #[test]
    fn deeppoly_policy_verifies() {
        struct DeepPolyPolicy;
        impl crate::policy::Policy for DeepPolyPolicy {
            fn choose_domain(&self, _ctx: &crate::policy::PolicyContext<'_>) -> DomainSelection {
                DomainSelection::DeepPoly
            }
            fn choose_split(
                &self,
                ctx: &crate::policy::PolicyContext<'_>,
            ) -> crate::policy::SplitPlan {
                let dim = ctx.region.longest_dim();
                crate::policy::SplitPlan {
                    dim,
                    at: 0.5 * (ctx.region.lower()[dim] + ctx.region.upper()[dim]),
                }
            }
        }
        let verifier = Verifier::with_policy(Arc::new(DeepPolyPolicy));
        let net = samples::example_2_3_network();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        assert_eq!(verifier.verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn lipschitz_prefilter_sound_and_helps_on_tiny_regions() {
        let net = samples::xor_network();
        // A tiny region far from any decision boundary.
        let prop = property(vec![0.49, 0.49], vec![0.51, 0.51], 1);
        let mut with = Verifier::default();
        with.config_mut().lipschitz_prefilter = true;
        let (v1, s1) = with.verify_with_stats(&net, &prop);
        assert_eq!(v1, Verdict::Verified);
        // The prefilter discharges the region without any analyze call.
        assert_eq!(s1.analyze_calls, 0, "stats: {s1:?}");

        // Still sound on falsifiable properties.
        let broken = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        assert!(with.verify(&net, &broken).is_refuted());
    }

    #[test]
    fn delta_counterexample_on_near_violation() {
        // Build a property whose margin dips to exactly ~0.1 somewhere and
        // use δ = 0.2: the verifier must refute with a δ-counterexample
        // that is not a true violation.
        let net = samples::xor_network();
        // On [0.3, 0.7]^2 the margin minimum is 0.2 (at the corners).
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let mut verifier = Verifier::default();
        verifier.config_mut().delta = 0.25;
        match verifier.verify(&net, &prop) {
            Verdict::Refuted(cex) => {
                assert!(cex.objective <= 0.25);
                assert!(!cex.is_true_violation());
            }
            other => panic!("expected δ-refutation, got {other:?}"),
        }
    }

    #[test]
    fn try_verify_run_rejects_malformed_problems() {
        let net = samples::xor_network();
        let verifier = Verifier::default();
        // Dimension mismatch.
        let bad_dim = property(vec![0.0], vec![1.0], 1);
        assert!(matches!(
            verifier.try_verify_run(&net, &bad_dim),
            Err(VerifyError::MalformedModel { .. })
        ));
        // Target class out of range.
        let bad_target = property(vec![0.0, 0.0], vec![1.0, 1.0], 9);
        assert!(matches!(
            verifier.try_verify_run(&net, &bad_target),
            Err(VerifyError::MalformedModel { .. })
        ));
        // Non-finite region.
        let bad_region = property(vec![0.0, 0.0], vec![f64::INFINITY, 1.0], 1);
        assert!(matches!(
            verifier.try_verify_run(&net, &bad_region),
            Err(VerifyError::MalformedModel { .. })
        ));
    }

    #[test]
    fn try_verify_run_rejects_nan_weights() {
        let layers = vec![
            nn::Layer::Affine(nn::AffineLayer::new(
                tensor::Matrix::from_rows(&[&[f64::NAN, 1.0], &[1.0, 0.0]]),
                vec![0.0, 0.0],
            )),
        ];
        let net = Network::new(2, layers).unwrap();
        let prop = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        match Verifier::default().try_verify_run(&net, &prop) {
            Err(VerifyError::MalformedModel { reason }) => {
                assert!(reason.contains("non-finite"), "reason: {reason}");
            }
            other => panic!("expected malformed model, got {other:?}"),
        }
    }

    #[test]
    fn budget_limited_run_carries_checkpoint_and_resume_finishes() {
        // Interval-only policy so the property needs several splits.
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let fresh =
            Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
        let full = fresh.try_verify_run(&net, &prop).unwrap();
        assert_eq!(full.verdict, Verdict::Verified);
        assert!(
            full.stats.regions > 2,
            "need a multi-region run for this test, got {}",
            full.stats.regions
        );

        let mut limited = fresh.clone();
        limited.config_mut().max_regions = 2;
        let first = limited.try_verify_run(&net, &prop).unwrap();
        assert_eq!(first.verdict, Verdict::ResourceLimit);
        assert_eq!(first.limit, Some(BudgetKind::Regions));
        let ckpt = first.checkpoint.expect("budget-limited run checkpoints");
        assert!(!ckpt.pending.is_empty());
        assert_eq!(first.stats.regions, 2);

        // Resume with the original budget: reaches the fresh verdict and
        // revisits no already-verified region (exact region-count split).
        let resumed = fresh.resume(&net, &ckpt).unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
        assert_eq!(
            first.stats.regions + resumed.stats.regions,
            full.stats.regions,
            "resume must not revisit already-verified regions"
        );
    }

    #[test]
    fn checkpoint_survives_text_roundtrip_mid_run() {
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let verifier =
            Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
        let mut limited = verifier.clone();
        limited.config_mut().max_regions = 1;
        let first = limited.try_verify_run(&net, &prop).unwrap();
        let ckpt = first.checkpoint.expect("checkpoint");
        let reloaded = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(reloaded, ckpt);
        let resumed = verifier.resume(&net, &reloaded).unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
    }

    #[test]
    fn strict_witness_semantics_reject_ties_and_non_finite_objectives() {
        // A network whose objective is identically zero: every point is an
        // exact tie `F(x*) == 0 == δ`, and none of them may validate — the
        // auditor's strict `F_up(x*) < δ` check could never confirm one.
        let tie = Network::new(
            1,
            vec![nn::Layer::Affine(nn::AffineLayer::new(
                tensor::Matrix::from_rows(&[&[1.0], &[1.0]]),
                vec![0.0, 0.0],
            ))],
        )
        .unwrap();
        let region = Bounds::new(vec![-1.0], vec![1.0]);
        assert!(validated_counterexample(&tie, &region, 0, &[0.5], 0.0).is_none());
        assert!(validated_counterexample(&tie, &region, 0, &[0.0], 0.0).is_none());

        // An objective that overflows to -inf "refutes" numerically but
        // must be rejected: non-finite objectives are never witnesses.
        let overflow = Network::new(
            1,
            vec![nn::Layer::Affine(nn::AffineLayer::new(
                tensor::Matrix::from_rows(&[&[0.0], &[1e308]]),
                vec![0.0, 0.0],
            ))],
        )
        .unwrap();
        let wide = Bounds::new(vec![0.0], vec![10.0]);
        assert!(!overflow.objective(&[10.0], 0).is_finite());
        assert!(validated_counterexample(&overflow, &wide, 0, &[10.0], 1e-9).is_none());
    }

    #[test]
    fn emitted_certificates_always_satisfy_the_independent_auditor() {
        let net = samples::xor_network();
        let mut verifier = Verifier::default();
        verifier.config_mut().certificates = true;

        // Verified property: the split tree replays cleanly under the
        // auditor's directed-rounding checker.
        let robust = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let run = verifier.try_verify_run(&net, &robust).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        let certificate = run.certificate.expect("verified run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the emitted certificate");
        assert!(report.verified);
        assert_eq!(report.leaves, run.stats.verified_regions);

        // Refuted property: the witness passes the same strict directed
        // re-evaluation the verifier used to accept it (satellite of the
        // strict-semantics change: the two can never disagree).
        let broken = property(vec![0.0, 0.0], vec![1.0, 1.0], 1);
        let run = verifier.try_verify_run(&net, &broken).unwrap();
        assert!(run.verdict.is_refuted());
        let certificate = run.certificate.expect("refuted run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the witness");
        assert!(!report.verified);

        // And the emitted artifact round-trips through the text format.
        let reparsed = Certificate::from_text(&certificate.to_text()).unwrap();
        assert_eq!(reparsed, certificate);
    }

    #[test]
    fn no_certificate_without_opt_in_or_for_limited_and_resumed_runs() {
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let run = Verifier::default().try_verify_run(&net, &prop).unwrap();
        assert!(run.certificate.is_none(), "emission is opt-in");

        let mut limited =
            Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
        limited.config_mut().certificates = true;
        limited.config_mut().max_regions = 2;
        let first = limited.try_verify_run(&net, &prop).unwrap();
        assert_eq!(first.verdict, Verdict::ResourceLimit);
        assert!(first.certificate.is_none(), "limited runs cannot certify");

        let mut full = limited.clone();
        full.config_mut().max_regions = 200_000;
        let resumed = full.resume(&net, &first.checkpoint.unwrap()).unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
        assert!(resumed.certificate.is_none(), "resumed runs cannot certify");
    }

    #[test]
    fn refutation_outranks_recorded_resource_limit() {
        let state = RunState {
            sched: Scheduler::new(1, Vec::new()),
            claimed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            found: Mutex::new(None),
            error: Mutex::new(None),
            merged: Mutex::new((VerifyStats::default(), None)),
        };
        let cex = Counterexample {
            point: vec![0.0, 0.0],
            objective: 0.0,
        };

        // A worker mid-step when the budget lapses may still validate a
        // counterexample; it must replace the budget verdict.
        state.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Timeout));
        state.record_and_stop(Verdict::Refuted(cex.clone()), None);
        assert_eq!(
            *state.found.lock().unwrap(),
            Some((Verdict::Refuted(cex.clone()), None))
        );

        // A later budget verdict never downgrades the refutation, and a
        // second refutation does not replace the first.
        state.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Regions));
        state.record_and_stop(
            Verdict::Refuted(Counterexample {
                point: vec![1.0, 1.0],
                objective: -1.0,
            }),
            None,
        );
        assert_eq!(*state.found.lock().unwrap(), Some((Verdict::Refuted(cex), None)));
        assert!(state.stop.load(Ordering::Acquire));
    }

    /// `(ordinal, depth)` per popped region, and per region ordinal the
    /// steps it ran in order: attack phases by name, propagations by
    /// outcome, and `split` for a bisection.
    #[derive(Default)]
    struct PhaseLog {
        pops: Vec<(usize, usize)>,
        steps: Vec<(usize, String)>,
    }

    #[derive(Default)]
    struct PhaseSink(std::sync::Mutex<PhaseLog>);

    impl TraceSink for PhaseSink {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&self, event: &TraceEvent) {
            let mut log = self.0.lock().unwrap();
            let step = match event {
                TraceEvent::RegionPopped { ordinal, depth } => {
                    log.pops.push((*ordinal, *depth));
                    return;
                }
                TraceEvent::Attack { ordinal, phase, .. } => (*ordinal, phase.clone()),
                TraceEvent::Propagation {
                    ordinal, outcome, ..
                } => (*ordinal, outcome.clone()),
                TraceEvent::Bisection { ordinal, .. } => (*ordinal, "split".to_string()),
                _ => return,
            };
            log.steps.push(step);
        }
    }

    const COLD: [&str; 4] = ["center", "fgsm", "coordinate", "restarts"];

    impl PhaseSink {
        /// The steps region `ordinal` ran, in order.
        fn steps(&self, ordinal: usize) -> Vec<String> {
            let log = self.0.lock().unwrap();
            let steps = log.steps.iter().filter(|(o, _)| *o == ordinal);
            steps.map(|(_, s)| s.clone()).collect()
        }

        /// Checks the order of every popped region of a robust property
        /// (no refutation): a region either runs the cold search before
        /// any propagation, or is a split child that the domain proves
        /// without attacking, or that attacks warm after an inconclusive
        /// propagation. Every split follows an attack. Returns the
        /// `(ordinal, depth)` of the regions that ran the cold search.
        fn cold_regions(&self) -> Vec<(usize, usize)> {
            let pops = self.0.lock().unwrap().pops.clone();
            assert!(!pops.is_empty());
            let mut cold = Vec::new();
            for (ordinal, depth) in pops {
                let ran = self.steps(ordinal);
                let at = format!("region {ordinal} at depth {depth}: {ran:?}");
                if ran.starts_with(&COLD.map(String::from)) {
                    cold.push((ordinal, depth));
                } else {
                    assert!(
                        ran == ["proved"] || ran == ["inconclusive", "warm", "coordinate", "split"],
                        "{at}"
                    );
                }
                let attacked = ran.iter().any(|s| s == "warm" || s == "center");
                assert!(attacked || !ran.iter().any(|s| s == "split"), "{at}");
            }
            cold
        }
    }

    #[test]
    fn roots_run_the_cold_search_and_split_children_warm_start() {
        // Interval-only policy: the robust XOR property needs several
        // splits, and no region refutes, so every phase runs to the end.
        let net = samples::xor_network();
        let prop = property(vec![0.3, 0.3], vec![0.7, 0.7], 1);
        let verifier = Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
        let sink = Arc::new(PhaseSink::default());
        let run = verifier
            .clone()
            .with_trace(Arc::clone(&sink) as SharedSink)
            .try_verify_run(&net, &prop)
            .unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        assert!(run.stats.splits > 0, "need a split tree");
        assert_eq!(sink.cold_regions(), vec![(0, 0)]);
        // Both kinds of child occur: proved unattacked, and split again.
        assert!(run.stats.attacks > 1);
        assert!(run.stats.attacks < run.stats.regions);

        // A checkpoint keeps no incumbents: each resumed region runs the
        // cold search once, deep as it is, and its children analyze first.
        let mut limited = verifier.clone();
        limited.config_mut().max_regions = 2;
        let ckpt = limited
            .try_verify_run(&net, &prop)
            .unwrap()
            .checkpoint
            .unwrap();
        assert!(ckpt.pending.iter().all(|(_, depth)| *depth > 0));
        let sink = Arc::new(PhaseSink::default());
        let resumed = verifier
            .with_trace(Arc::clone(&sink) as SharedSink)
            .resume(&net, &ckpt)
            .unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
        assert!(resumed.stats.splits > 0, "need warm children after resume");
        assert_eq!(sink.cold_regions().len(), ckpt.pending.len());
    }

    /// A fixed-domain policy that records the `(x*, F(x*))` context of
    /// each domain and split decision.
    struct RecordingPolicy {
        inner: FixedPolicy,
        domain: Mutex<Vec<(Vec<f64>, f64)>>,
        split: Mutex<Vec<(Vec<f64>, f64)>>,
    }

    impl RecordingPolicy {
        fn new(choice: DomainChoice) -> Self {
            RecordingPolicy {
                inner: FixedPolicy::new(choice),
                domain: Mutex::new(Vec::new()),
                split: Mutex::new(Vec::new()),
            }
        }
    }

    impl Policy for RecordingPolicy {
        fn choose_domain(&self, ctx: &PolicyContext<'_>) -> DomainSelection {
            self.domain.lock().unwrap().push((ctx.x_star.to_vec(), ctx.objective));
            self.inner.choose_domain(ctx)
        }

        fn choose_split(&self, ctx: &PolicyContext<'_>) -> crate::policy::SplitPlan {
            self.split.lock().unwrap().push((ctx.x_star.to_vec(), ctx.objective));
            self.inner.choose_split(ctx)
        }
    }

    /// Runs one guarded step of `region` on the XOR network (target 1) as
    /// region 0, with `fault` injected there; returns the outcome, the
    /// step's stats and the steps it traced.
    fn xor_step(
        policy: &dyn Policy,
        fault: Option<FaultSite>,
        region: &Bounds,
        incumbent: Option<&[f64]>,
    ) -> (Result<RegionOutcome, VerifyError>, VerifyStats, Vec<String>) {
        let net = samples::xor_network();
        let config = VerifierConfig {
            faults: fault.map(|site| Arc::new(FaultPlan::new().inject(site, 0))),
            ..VerifierConfig::default()
        };
        let minimizer = Minimizer::new(0).with_restarts(config.restarts);
        let sink = PhaseSink::default();
        let env = StepEnv {
            net: &net,
            target: 1,
            minimizer: &minimizer,
            policy,
            config: &config,
            deadline: Instant::now() + Duration::from_secs(60),
            objective_lipschitz: f64::INFINITY,
            trace: &sink,
        };
        let mut stats = VerifyStats::default();
        let outcome =
            guarded_region_step(&env, region, incumbent, 0, &mut stats, &mut Workspace::new());
        let steps = sink.steps(0);
        (outcome, stats, steps)
    }

    // On the XOR network, F = 2s - 1 for s = x0 + x1 <= 1 and 3 - 2s
    // above. Intervals cannot prove [0.3, 0.5] x [0.3, 0.7] (s up to 1.2)
    // but prove [0.3, 0.4]^2 (s at most 0.8).

    #[test]
    fn split_child_chooses_its_domain_on_the_clamped_incumbent_and_splits_on_its_own_attack() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.5, 0.7]);
        let incumbent = [0.7, 0.7];
        let policy = RecordingPolicy::new(DomainChoice::interval());
        let (outcome, stats, steps) = xor_step(&policy, None, &region, Some(&incumbent));
        let clamped = vec![0.5, 0.7];
        assert_eq!(
            *policy.domain.lock().unwrap(),
            vec![(clamped.clone(), net.objective(&clamped, 1))]
        );
        assert_eq!(steps, ["inconclusive", "warm", "coordinate", "split"]);
        assert_eq!(stats.attacks, 1);

        // The split sees the child's own warm attack, and hands its x*
        // down to both grandchildren.
        let attack = Minimizer::new(0)
            .with_restarts(VerifierConfig::default().restarts)
            .minimize_from(&net, &region, 1, Some(&incumbent));
        assert_eq!(
            *policy.split.lock().unwrap(),
            vec![(attack.point.clone(), attack.objective)]
        );
        match outcome {
            Ok(RegionOutcome::Split {
                incumbent: Some(x), ..
            }) => assert_eq!(&*x, attack.point.as_slice()),
            other => panic!("expected a split with an incumbent, got {other:?}"),
        }

        // A child the domain proves is never attacked.
        let proved = Bounds::new(vec![0.3, 0.3], vec![0.4, 0.4]);
        let policy = RecordingPolicy::new(DomainChoice::interval());
        let (outcome, stats, steps) = xor_step(&policy, None, &proved, Some(&incumbent));
        assert!(matches!(outcome, Ok(RegionOutcome::Verified { .. })));
        assert_eq!(steps, ["proved"]);
        assert_eq!(stats.attacks, 0);
        let clamped = vec![0.4, 0.4];
        assert_eq!(
            *policy.domain.lock().unwrap(),
            vec![(clamped.clone(), net.objective(&clamped, 1))]
        );
        assert!(policy.split.lock().unwrap().is_empty());
    }

    #[test]
    fn a_validating_clamped_incumbent_refutes_a_child_without_an_attack() {
        let region = Bounds::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let policy = RecordingPolicy::new(DomainChoice::interval());
        let (outcome, stats, steps) = xor_step(&policy, None, &region, Some(&[0.2, -0.3]));
        match outcome {
            Ok(RegionOutcome::Refuted(cex)) => {
                assert_eq!(cex.point, vec![0.2, 0.0]);
                assert!(cex.is_true_violation());
            }
            other => panic!("expected a refutation, got {other:?}"),
        }
        assert!(steps.is_empty(), "ran {steps:?}");
        assert_eq!((stats.attacks, stats.analyze_calls), (0, 0));
        assert!(policy.domain.lock().unwrap().is_empty());
    }

    #[test]
    fn a_poisoned_child_propagation_takes_the_interval_retry_then_attacks_and_splits() {
        let region = Bounds::new(vec![0.3, 0.3], vec![0.5, 0.7]);
        let policy = RecordingPolicy::new(DomainChoice::zonotope());
        let (outcome, stats, steps) = xor_step(
            &policy,
            Some(FaultSite::TransformerNan),
            &region,
            Some(&[0.7, 0.7]),
        );
        assert!(matches!(outcome, Ok(RegionOutcome::Split { .. })), "{outcome:?}");
        assert_eq!(
            steps,
            ["poisoned", "inconclusive", "warm", "coordinate", "split"]
        );
        assert_eq!((stats.attacks, stats.analyze_calls), (1, 2));
    }

    #[test]
    fn a_poisoned_child_attack_splits_on_the_center() {
        let region = Bounds::new(vec![0.3, 0.3], vec![0.5, 0.7]);
        let policy = RecordingPolicy::new(DomainChoice::interval());
        let (outcome, _, steps) =
            xor_step(&policy, Some(FaultSite::AttackNan), &region, Some(&[0.7, 0.7]));
        assert_eq!(steps, ["inconclusive", "warm", "coordinate", "split"]);
        let center = region.center();
        assert_eq!(policy.split.lock().unwrap()[0].0, center);
        match outcome {
            Ok(RegionOutcome::Split {
                incumbent: Some(x), ..
            }) => assert_eq!(&*x, center.as_slice()),
            other => panic!("expected a split with an incumbent, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_parent_attack_hands_its_children_a_finite_incumbent() {
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let policy = FixedPolicy::new(DomainChoice::interval());
        let (outcome, _, _) = xor_step(&policy, Some(FaultSite::AttackNan), &region, None);
        match outcome {
            Ok(RegionOutcome::Split {
                incumbent: Some(x), ..
            }) => {
                // The numeric guard replaced the NaN x* with the center.
                assert_eq!(&*x, region.center().as_slice());
            }
            other => panic!("expected a split with an incumbent, got {other:?}"),
        }
    }

    #[test]
    fn validated_counterexample_rejects_nan_and_out_of_region() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // NaN point: rejected outright.
        assert!(validated_counterexample(&net, &region, 1, &[f64::NAN, 0.5], 1e-9).is_none());
        // Wrong arity: rejected.
        assert!(validated_counterexample(&net, &region, 1, &[0.5], 1e-9).is_none());
        // A genuine violation (corner of the unit square) is accepted and
        // clamped into the region even if slightly outside.
        let cex = validated_counterexample(&net, &region, 1, &[-0.1, -0.1], 1e-9)
            .expect("corner violates");
        assert!(region.contains(&cex.point));
        assert!(cex.objective <= 1e-9);
        // A point with a healthy positive margin does not validate.
        assert!(validated_counterexample(&net, &region, 1, &[0.5, 0.5], 1e-9).is_none());
    }
}
