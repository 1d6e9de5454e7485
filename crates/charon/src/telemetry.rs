//! Structured tracing, metrics, and run reports for the verifier.
//!
//! Charon's verdict is the output of an opaque interleaving of PGD
//! attacks, abstract propagation, and policy-driven bisection; a slow or
//! timed-out run gives no insight into *where* the time or precision went
//! unless the engine reports it. This module is that reporting layer, in
//! three tiers:
//!
//! 1. **Events** — a typed [`TraceEvent`] stream emitted from the region
//!    step, the region driver, the attack phases, and the domains'
//!    propagation loop. Events flow into a [`TraceSink`]:
//!    [`NullSink`] (the default; every emission site is guarded by
//!    [`TraceSink::enabled`], so disabled tracing does no formatting and
//!    no allocation), [`JsonlSink`] (one JSON object per line,
//!    machine-readable; the `charon-cli trace` subcommand reads it back),
//!    or [`SummarySink`] (in-memory aggregation).
//! 2. **Metrics** — always-on [`Metrics`] counters and per-phase wall
//!    times (attack / propagation / policy), broken down further by
//!    attack phase and by layer kind, with histogram buckets for per-call
//!    latencies. Parallel workers each keep their own `Metrics`; the
//!    driver merges them at join, so the totals in [`crate::VerifyRun`]
//!    cover every worker including ones that exited on the degradation
//!    ladder.
//!
//! Measurement is always on and there is one measured code path: the
//! attack and the propagation time themselves on every call, and the
//! engine folds those times into [`Metrics`]. A sink only decides whether
//! the same measurements are also built into [`TraceEvent`]s, so the sum
//! of a traced run's `Attack` and `Propagation` event seconds matches its
//! metrics rows.
//! 3. **Reports** — a [`RunReport`] renders the merged metrics as a
//!    per-phase time-breakdown table with regions-per-second and domain
//!    precision statistics (printed by `charon-cli verify --report`).
//!
//! JSON is hand-rolled: the workspace deliberately has no serde_json (it
//! builds offline without crates.io), so [`TraceEvent::to_json`],
//! [`TraceEvent::from_json`] and [`Metrics::to_json`] build on the shared
//! flat-object codec in [`crate::json`] (also used by the verification
//! server's wire protocol) and round-trip the one schema this module
//! needs exactly.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::{parse_flat_object, ObjectBuilder};

/// One structured event from the verification engine.
///
/// Every variant serializes to a single flat JSON object whose `"event"`
/// key names the variant in `snake_case`; [`TraceEvent::from_json`]
/// round-trips the output of [`TraceEvent::to_json`] exactly (including
/// non-finite floats, which are encoded as the strings `"inf"`, `"-inf"`
/// and `"nan"`).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A sub-region was pushed onto the worklist.
    RegionPushed {
        /// Bisection depth of the pushed region.
        depth: usize,
    },
    /// A region was popped from the worklist for processing.
    RegionPopped {
        /// Fault-plan/step ordinal of the region (a per-run sequence
        /// number; parallel workers share one counter).
        ordinal: usize,
        /// Bisection depth of the region.
        depth: usize,
    },
    /// The policy decided how to bisect an undecided region.
    Bisection {
        /// Ordinal of the region being split.
        ordinal: usize,
        /// Axis chosen by the split policy π^I.
        dim: usize,
        /// Split position along that axis (after clamping).
        at: f64,
        /// The attack objective `F(x*)` that fed the policy's
        /// featurization (its score input).
        objective: f64,
    },
    /// One abstract-interpretation call finished.
    Propagation {
        /// Ordinal of the region analyzed.
        ordinal: usize,
        /// Display string of the selected domain (e.g. `(Z, 2)`,
        /// `deeppoly`, `solver`).
        domain: String,
        /// Total wall-clock seconds for the call.
        seconds: f64,
        /// Outcome: `proved`, `inconclusive`, `violated`, or `poisoned`.
        outcome: String,
        /// Per-layer wall-clock seconds, in layer order (empty when the
        /// selection has no per-layer instrumentation). The same numbers
        /// feed the per-layer-kind rows of [`Metrics`].
        layer_seconds: Vec<f64>,
    },
    /// One attack phase finished: center PGD, FGSM-seeded PGD, coordinate
    /// descent or the batched random-restart PGD on a region without an
    /// incumbent; warm PGD from the parent's `x*`, then coordinate
    /// descent, on a split child that its domain did not prove.
    Attack {
        /// Ordinal of the region attacked.
        ordinal: usize,
        /// Phase name, one of [`attack::PHASES`]: `warm`, `center`,
        /// `fgsm`, `coordinate` or `restarts`. Each phase has its own
        /// [`Metrics::attack_phase_seconds`] row.
        phase: String,
        /// Gradient/objective evaluations spent in this phase.
        evals: usize,
        /// Best objective seen so far after this phase.
        best_objective: f64,
        /// Wall-clock seconds of this phase.
        seconds: f64,
    },
    /// The run reached a verdict.
    Verdict {
        /// `verified`, `refuted`, or `resource_limit`.
        verdict: String,
        /// Regions processed by the run.
        regions: usize,
        /// Total wall-clock seconds.
        seconds: f64,
    },
    /// A budget-limited run captured its undecided worklist.
    CheckpointSaved {
        /// Number of pending (undecided) regions in the checkpoint.
        pending: usize,
        /// Regions fully processed before the budget lapsed.
        regions_done: usize,
    },
    /// A deterministic fault-injection site fired (chaos testing only).
    FaultTriggered {
        /// The fault site, e.g. `worker_panic` or `attack_nan`.
        site: String,
        /// Region ordinal at which the fault fired.
        ordinal: usize,
    },
}

impl TraceEvent {
    /// The `snake_case` name of the variant, as used in the JSON `event`
    /// key.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RegionPushed { .. } => "region_pushed",
            TraceEvent::RegionPopped { .. } => "region_popped",
            TraceEvent::Bisection { .. } => "bisection",
            TraceEvent::Propagation { .. } => "propagation",
            TraceEvent::Attack { .. } => "attack",
            TraceEvent::Verdict { .. } => "verdict",
            TraceEvent::CheckpointSaved { .. } => "checkpoint_saved",
            TraceEvent::FaultTriggered { .. } => "fault_triggered",
        }
    }

    /// Serializes the event as one flat JSON object (no trailing
    /// newline). Counters serialize as JSON integers, not `0.0`-style
    /// floats.
    pub fn to_json(&self) -> String {
        let b = ObjectBuilder::new().str("event", self.kind());
        let int = |v: &usize| *v as u64;
        match self {
            TraceEvent::RegionPushed { depth } => b.int("depth", int(depth)),
            TraceEvent::RegionPopped { ordinal, depth } => {
                b.int("ordinal", int(ordinal)).int("depth", int(depth))
            }
            TraceEvent::Bisection {
                ordinal,
                dim,
                at,
                objective,
            } => b
                .int("ordinal", int(ordinal))
                .int("dim", int(dim))
                .num("at", *at)
                .num("objective", *objective),
            TraceEvent::Propagation {
                ordinal,
                domain,
                seconds,
                outcome,
                layer_seconds,
            } => b
                .int("ordinal", int(ordinal))
                .str("domain", domain)
                .num("seconds", *seconds)
                .str("outcome", outcome)
                .arr("layer_seconds", layer_seconds),
            TraceEvent::Attack {
                ordinal,
                phase,
                evals,
                best_objective,
                seconds,
            } => b
                .int("ordinal", int(ordinal))
                .str("phase", phase)
                .int("evals", int(evals))
                .num("best_objective", *best_objective)
                .num("seconds", *seconds),
            TraceEvent::Verdict {
                verdict,
                regions,
                seconds,
            } => b
                .str("verdict", verdict)
                .int("regions", int(regions))
                .num("seconds", *seconds),
            TraceEvent::CheckpointSaved {
                pending,
                regions_done,
            } => b
                .int("pending", int(pending))
                .int("regions_done", int(regions_done)),
            TraceEvent::FaultTriggered { site, ordinal } => {
                b.str("site", site).int("ordinal", int(ordinal))
            }
        }
        .build()
    }

    /// Parses one flat JSON object produced by [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem: not an
    /// object, unknown event kind, missing or mistyped field.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let fields = parse_flat_object(line)?;
        let kind = fields.str_field("event")?;
        match kind.as_str() {
            "region_pushed" => Ok(TraceEvent::RegionPushed {
                depth: fields.usize_field("depth")?,
            }),
            "region_popped" => Ok(TraceEvent::RegionPopped {
                ordinal: fields.usize_field("ordinal")?,
                depth: fields.usize_field("depth")?,
            }),
            "bisection" => Ok(TraceEvent::Bisection {
                ordinal: fields.usize_field("ordinal")?,
                dim: fields.usize_field("dim")?,
                at: fields.f64_field("at")?,
                objective: fields.f64_field("objective")?,
            }),
            "propagation" => Ok(TraceEvent::Propagation {
                ordinal: fields.usize_field("ordinal")?,
                domain: fields.str_field("domain")?,
                seconds: fields.f64_field("seconds")?,
                outcome: fields.str_field("outcome")?,
                layer_seconds: fields.arr_field("layer_seconds")?,
            }),
            "attack" => Ok(TraceEvent::Attack {
                ordinal: fields.usize_field("ordinal")?,
                phase: fields.str_field("phase")?,
                evals: fields.usize_field("evals")?,
                best_objective: fields.f64_field("best_objective")?,
                seconds: fields.f64_field("seconds")?,
            }),
            "verdict" => Ok(TraceEvent::Verdict {
                verdict: fields.str_field("verdict")?,
                regions: fields.usize_field("regions")?,
                seconds: fields.f64_field("seconds")?,
            }),
            "checkpoint_saved" => Ok(TraceEvent::CheckpointSaved {
                pending: fields.usize_field("pending")?,
                regions_done: fields.usize_field("regions_done")?,
            }),
            "fault_triggered" => Ok(TraceEvent::FaultTriggered {
                site: fields.str_field("site")?,
                ordinal: fields.usize_field("ordinal")?,
            }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// Implementations must be `Send + Sync`: a multi-worker run shares one
/// sink across worker threads, so `record` must accept
/// concurrent calls (events from different workers interleave at event
/// granularity).
///
/// Emission sites guard event *construction* behind [`TraceSink::enabled`]
/// — when it returns `false` no event is built at all, which is what
/// makes [`NullSink`] free.
pub trait TraceSink: Send + Sync {
    /// Whether callers should construct and record events at all.
    ///
    /// Defaults to `true`; [`NullSink`] overrides it to `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: &TraceEvent);
}

/// Builds an event lazily and records it only if the sink is enabled.
///
/// This is the emission guard used throughout the verifier: with a
/// [`NullSink`] the closure never runs, so tracing costs one virtual call
/// per site and nothing else (no formatting, no allocation).
#[inline]
pub fn emit<F: FnOnce() -> TraceEvent>(sink: &dyn TraceSink, build: F) {
    if sink.enabled() {
        sink.record(&build());
    }
}

/// The default sink: tracing disabled, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// Writes one JSON object per event to an underlying writer (JSON Lines).
///
/// Concurrent `record` calls serialize on an internal lock, so lines from
/// parallel workers never interleave mid-line. The writer is flushed when
/// the sink is dropped (and on every [`JsonlSink::flush`] call).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner).flush()
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // A full trace disk or broken pipe must never fail the
        // verification run; drop the event instead.
        let _ = writeln!(w, "{}", event.to_json());
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.lock().unwrap_or_else(PoisonError::into_inner).flush();
    }
}

/// In-memory aggregate of an event stream.
///
/// [`TraceSummary::merge`] is associative (and commutative up to
/// floating-point rounding of the second totals), so per-worker summaries
/// can be combined in any grouping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events absorbed.
    pub events: u64,
    /// `RegionPushed` events.
    pub regions_pushed: u64,
    /// `RegionPopped` events.
    pub regions_popped: u64,
    /// `Bisection` events.
    pub bisections: u64,
    /// `Propagation` events.
    pub propagations: u64,
    /// Summed `Propagation` seconds.
    pub propagation_seconds: f64,
    /// `Attack` events (one per attack phase).
    pub attack_phases: u64,
    /// Summed `Attack` seconds.
    pub attack_seconds: f64,
    /// Minimum `best_objective` over all `Attack` events (`+inf` when
    /// none were seen).
    pub best_objective: f64,
    /// `Verdict` events.
    pub verdicts: u64,
    /// `CheckpointSaved` events.
    pub checkpoints: u64,
    /// `FaultTriggered` events.
    pub faults: u64,
    /// Maximum depth over region push/pop events.
    pub max_depth: usize,
}

impl TraceSummary {
    /// Creates an empty summary (identity element of [`merge`]).
    ///
    /// [`merge`]: TraceSummary::merge
    pub fn new() -> Self {
        TraceSummary {
            best_objective: f64::INFINITY,
            ..TraceSummary::default()
        }
    }

    /// Folds one event into the summary.
    pub fn absorb(&mut self, event: &TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::RegionPushed { depth } => {
                self.regions_pushed += 1;
                self.max_depth = self.max_depth.max(*depth);
            }
            TraceEvent::RegionPopped { depth, .. } => {
                self.regions_popped += 1;
                self.max_depth = self.max_depth.max(*depth);
            }
            TraceEvent::Bisection { .. } => self.bisections += 1,
            TraceEvent::Propagation { seconds, .. } => {
                self.propagations += 1;
                self.propagation_seconds += seconds;
            }
            TraceEvent::Attack {
                seconds,
                best_objective,
                ..
            } => {
                self.attack_phases += 1;
                self.attack_seconds += seconds;
                if *best_objective < self.best_objective {
                    self.best_objective = *best_objective;
                }
            }
            TraceEvent::Verdict { .. } => self.verdicts += 1,
            TraceEvent::CheckpointSaved { .. } => self.checkpoints += 1,
            TraceEvent::FaultTriggered { .. } => self.faults += 1,
        }
    }

    /// Adds another summary into this one.
    pub fn merge(&mut self, other: &TraceSummary) {
        self.events += other.events;
        self.regions_pushed += other.regions_pushed;
        self.regions_popped += other.regions_popped;
        self.bisections += other.bisections;
        self.propagations += other.propagations;
        self.propagation_seconds += other.propagation_seconds;
        self.attack_phases += other.attack_phases;
        self.attack_seconds += other.attack_seconds;
        if other.best_objective < self.best_objective {
            self.best_objective = other.best_objective;
        }
        self.verdicts += other.verdicts;
        self.checkpoints += other.checkpoints;
        self.faults += other.faults;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// A [`TraceSink`] that aggregates events into a [`TraceSummary`].
#[derive(Debug, Default)]
pub struct SummarySink {
    summary: Mutex<TraceSummary>,
}

impl SummarySink {
    /// Creates an empty summary sink.
    pub fn new() -> Self {
        SummarySink {
            summary: Mutex::new(TraceSummary::new()),
        }
    }

    /// A snapshot of the aggregate so far.
    pub fn snapshot(&self) -> TraceSummary {
        self.summary.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl TraceSink for SummarySink {
    fn record(&self, event: &TraceEvent) {
        self.summary.lock().unwrap_or_else(PoisonError::into_inner).absorb(event);
    }
}

/// A shareable trace sink handle, as stored on the verifiers.
pub type SharedSink = Arc<dyn TraceSink>;

/// Returns the default disabled sink.
pub fn null_sink() -> SharedSink {
    Arc::new(NullSink)
}

/// Fixed log-scale latency histogram (per-call seconds).
///
/// Bucket upper bounds run `1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s`
/// with a final overflow bucket, matching the range from a single interval
/// propagation on a toy network up to a solver call against a deadline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; Self::BUCKETS],
}

impl Histogram {
    /// Number of buckets, including the overflow bucket.
    pub const BUCKETS: usize = 9;

    /// Upper bounds (exclusive) of each non-overflow bucket, in seconds.
    pub const BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Counts one observation of `seconds`.
    pub fn observe(&mut self, seconds: f64) {
        let idx = Self::BOUNDS
            .iter()
            .position(|b| seconds < *b)
            .unwrap_or(Self::BUCKETS - 1);
        self.counts[idx] += 1;
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The per-bucket counts (index `BUCKETS - 1` is overflow).
    pub fn counts(&self) -> &[u64; Self::BUCKETS] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Human-readable label of bucket `idx`, e.g. `<1ms` or `>=10s`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Self::BUCKETS`.
    pub fn label(idx: usize) -> &'static str {
        const LABELS: [&str; Histogram::BUCKETS] = [
            "<1us", "<10us", "<100us", "<1ms", "<10ms", "<100ms", "<1s", "<10s", ">=10s",
        ];
        LABELS[idx]
    }
}

/// Overload-resilience counters for a service tier: how much offered
/// work the tier refused or abandoned to protect the goodput of the
/// work it kept.
///
/// Both the single-node daemon and the coordinator render these through
/// [`OverloadStats::fields`], so the `stats` surface uses identical key
/// names in every tier — the "Overload triage" runbook in
/// `docs/OPERATIONS.md` reads them without caring which tier answered.
/// Rows from several nodes merge by summation (the `breaker_open` gauge
/// sums too: "how many breakers are open across the fleet").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Submissions refused by the sojourn-time shed controller (each
    /// was answered with a `busy` response, never admitted).
    pub shed: u64,
    /// Admitted jobs answered `deadline_expired` because their client
    /// deadline ran out before a worker could usefully start them.
    pub deadline_expired: u64,
    /// Circuit breakers currently open (gauge; zero on tiers without
    /// breakers, i.e. everything below the coordinator).
    pub breaker_open: u64,
    /// Cumulative breaker trips since the tier started.
    pub breaker_opens: u64,
}

impl OverloadStats {
    /// Sums another tier's counters into this one.
    pub fn merge(&mut self, other: &OverloadStats) {
        self.shed += other.shed;
        self.deadline_expired += other.deadline_expired;
        self.breaker_open += other.breaker_open;
        self.breaker_opens += other.breaker_opens;
    }

    /// Appends the counters to a flat stats object under their
    /// canonical key names.
    pub fn fields(&self, b: ObjectBuilder) -> ObjectBuilder {
        b.int("shed", self.shed)
            .int("deadline_expired", self.deadline_expired)
            .int("breaker_open", self.breaker_open)
            .int("breaker_opens", self.breaker_opens)
    }
}

/// Per-run engine metrics: phase counters, wall times, and latency
/// histograms.
///
/// One `Metrics` lives in each worker's [`crate::VerifyStats`];
/// `VerifyStats::absorb` merges them at join, so the totals surfaced in
/// [`crate::VerifyRun`] cover every worker — including workers that
/// exited early on the degradation ladder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Attack (minimization) calls.
    pub attack_calls: u64,
    /// Wall-clock seconds in the attack phase.
    pub attack_seconds: f64,
    /// Abstract-interpretation / solver calls on the main path.
    pub propagation_calls: u64,
    /// Wall-clock seconds in propagation (including degradation
    /// retries).
    pub propagation_seconds: f64,
    /// Policy decisions (domain selection + split planning).
    pub policy_calls: u64,
    /// Wall-clock seconds deciding domains and splits.
    pub policy_seconds: f64,
    /// Per-call attack latency distribution.
    pub attack_hist: Histogram,
    /// Per-call propagation latency distribution.
    pub propagation_hist: Histogram,
    /// Propagation calls that proved their region (precision numerator).
    pub propagation_proved: u64,
    /// Successful steal operations by the work-stealing scheduler.
    pub steals: u64,
    /// Regions moved between worker deques by those steals.
    pub stolen_regions: u64,
    /// Times a worker parked on the scheduler condvar for lack of work.
    pub parks: u64,
    /// Wall-clock seconds spent parked (scheduler idle time).
    pub idle_seconds: f64,
    /// Per-park idle latency distribution; a regression that starves
    /// workers shows up here as a shift toward the long buckets.
    pub idle_hist: Histogram,
    /// Wall-clock seconds per attack phase, indexed like
    /// [`attack::PHASES`]: warm, center, fgsm, coordinate, restarts.
    /// Together they cover `attack_seconds` less the call overhead.
    pub attack_phase_seconds: [f64; 5],
    /// Per-layer propagation seconds folded by layer kind, indexed like
    /// [`LAYER_KINDS`]: affine, relu, maxpool. Selections without
    /// per-layer instrumentation (DeepPoly, the LP-refined zonotope, the
    /// complete solver) count in `propagation_seconds` only.
    pub layer_kind_seconds: [f64; 3],
}

/// Names of the layer kinds of [`Metrics::layer_kind_seconds`], in index
/// order.
pub const LAYER_KINDS: [&str; 3] = ["affine", "relu", "maxpool"];

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds another worker's metrics into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.attack_calls += other.attack_calls;
        self.attack_seconds += other.attack_seconds;
        self.propagation_calls += other.propagation_calls;
        self.propagation_seconds += other.propagation_seconds;
        self.policy_calls += other.policy_calls;
        self.policy_seconds += other.policy_seconds;
        self.attack_hist.merge(&other.attack_hist);
        self.propagation_hist.merge(&other.propagation_hist);
        self.propagation_proved += other.propagation_proved;
        self.steals += other.steals;
        self.stolen_regions += other.stolen_regions;
        self.parks += other.parks;
        self.idle_seconds += other.idle_seconds;
        self.idle_hist.merge(&other.idle_hist);
        for (a, b) in self
            .attack_phase_seconds
            .iter_mut()
            .zip(&other.attack_phase_seconds)
        {
            *a += b;
        }
        for (a, b) in self
            .layer_kind_seconds
            .iter_mut()
            .zip(&other.layer_kind_seconds)
        {
            *a += b;
        }
    }

    /// Records one attack call of `seconds` and the phases it ran.
    pub fn record_attack(&mut self, seconds: f64, phases: &[attack::PhaseStat]) {
        self.attack_calls += 1;
        self.attack_seconds += seconds;
        self.attack_hist.observe(seconds);
        for p in phases {
            if let Some(i) = attack::PHASES.iter().position(|name| *name == p.phase) {
                self.attack_phase_seconds[i] += p.seconds;
            }
        }
    }

    /// Records one propagation call and whether it proved its region.
    pub fn record_propagation(&mut self, seconds: f64, proved: bool) {
        self.propagation_calls += 1;
        self.propagation_seconds += seconds;
        self.propagation_hist.observe(seconds);
        if proved {
            self.propagation_proved += 1;
        }
    }

    /// Folds one propagation's per-layer seconds (in layer order, as in
    /// [`domains::Workspace::layer_seconds`]) into the per-kind rows.
    pub fn record_layers(&mut self, layers: &[nn::Layer], seconds: &[f64]) {
        for (layer, s) in layers.iter().zip(seconds) {
            let kind = match layer {
                nn::Layer::Affine(_) => 0,
                nn::Layer::Relu => 1,
                nn::Layer::MaxPool(_) => 2,
            };
            self.layer_kind_seconds[kind] += s;
        }
    }

    /// Records one policy decision.
    pub fn record_policy(&mut self, seconds: f64) {
        self.policy_calls += 1;
        self.policy_seconds += seconds;
    }

    /// Records one successful steal moving `regions` regions.
    pub fn record_steal(&mut self, regions: u64) {
        self.steals += 1;
        self.stolen_regions += regions;
    }

    /// Records one condvar park of `seconds` idle time.
    pub fn record_park(&mut self, seconds: f64) {
        self.parks += 1;
        self.idle_seconds += seconds;
        self.idle_hist.observe(seconds);
    }

    /// Serializes the metrics as one flat JSON object (hand-rolled; the
    /// workspace has no serde_json). Used by the bench binaries to embed
    /// phase attribution in their BENCH files.
    ///
    /// Per-phase attack seconds travel as `attack_<phase>_seconds` and
    /// per-kind layer seconds as `propagation_<kind>_seconds`.
    pub fn to_json(&self) -> String {
        let mut b = ObjectBuilder::new()
            .int("attack_calls", self.attack_calls)
            .num("attack_seconds", self.attack_seconds)
            .int("propagation_calls", self.propagation_calls)
            .num("propagation_seconds", self.propagation_seconds)
            .int("policy_calls", self.policy_calls)
            .num("policy_seconds", self.policy_seconds)
            .int("propagation_proved", self.propagation_proved)
            .int("steals", self.steals)
            .int("stolen_regions", self.stolen_regions)
            .int("parks", self.parks)
            .num("idle_seconds", self.idle_seconds);
        for (phase, seconds) in attack::PHASES.iter().zip(self.attack_phase_seconds) {
            b = b.num(&format!("attack_{phase}_seconds"), seconds);
        }
        for (kind, seconds) in LAYER_KINDS.iter().zip(self.layer_kind_seconds) {
            b = b.num(&format!("propagation_{kind}_seconds"), seconds);
        }
        b.build()
    }
}

/// A rendered per-run report: phase breakdown, throughput, and domain
/// precision.
///
/// Built from a completed [`crate::VerifyRun`] and rendered as a
/// fixed-width text table (`charon-cli verify --report`).
#[derive(Debug, Clone)]
pub struct RunReport {
    verdict: &'static str,
    regions: usize,
    splits: usize,
    max_depth: usize,
    elapsed_seconds: f64,
    metrics: Metrics,
    domain_uses: Vec<(String, usize)>,
}

impl RunReport {
    /// Builds a report from a completed run.
    pub fn from_run(run: &crate::VerifyRun) -> Self {
        RunReport {
            verdict: run.verdict.name(),
            regions: run.stats.regions,
            splits: run.stats.splits,
            max_depth: run.stats.max_depth,
            elapsed_seconds: run.stats.elapsed.as_secs_f64(),
            metrics: run.stats.metrics.clone(),
            domain_uses: run.stats.domain_uses.clone(),
        }
    }

    /// Renders the report as a fixed-width text table.
    pub fn render(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        out.push_str(&format!(
            "run report: {} in {:.3}s ({} regions, {} splits, max depth {})\n",
            self.verdict, self.elapsed_seconds, self.regions, self.splits, self.max_depth
        ));
        let rps = if self.elapsed_seconds > 0.0 {
            self.regions as f64 / self.elapsed_seconds
        } else {
            0.0
        };
        out.push_str(&format!("  throughput: {rps:.1} regions/s\n"));

        // Per-phase breakdown. "other" is everything the phases do not
        // cover: worklist bookkeeping, validation, checkpointing.
        let accounted = m.attack_seconds + m.propagation_seconds + m.policy_seconds;
        let other = (self.elapsed_seconds - accounted).max(0.0);
        out.push_str("  phase          calls      seconds   share\n");
        // Indented rows break a phase down by attack phase or layer kind.
        let mut row = |name: &str, calls: &str, seconds: f64| {
            let share = if self.elapsed_seconds > 0.0 {
                100.0 * seconds / self.elapsed_seconds
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {name:<12} {calls:>7} {seconds:>12.6} {share:>6.1}%\n"
            ));
        };
        row("attack", &m.attack_calls.to_string(), m.attack_seconds);
        for (phase, seconds) in attack::PHASES.iter().zip(m.attack_phase_seconds) {
            row(&format!("  {phase}"), "", seconds);
        }
        row(
            "propagation",
            &m.propagation_calls.to_string(),
            m.propagation_seconds,
        );
        for (kind, seconds) in LAYER_KINDS.iter().zip(m.layer_kind_seconds) {
            row(&format!("  {kind}"), "", seconds);
        }
        row("policy", &m.policy_calls.to_string(), m.policy_seconds);
        row("other", "0", other);

        if m.attack_seconds + m.propagation_seconds > 0.0 {
            out.push_str(&format!(
                "  attack/propagation split: {:.0}% / {:.0}%\n",
                100.0 * m.attack_seconds / (m.attack_seconds + m.propagation_seconds),
                100.0 * m.propagation_seconds / (m.attack_seconds + m.propagation_seconds),
            ));
        }
        if m.propagation_calls > 0 {
            out.push_str(&format!(
                "  domain precision: {}/{} propagations proved their region ({:.1}%)\n",
                m.propagation_proved,
                m.propagation_calls,
                100.0 * m.propagation_proved as f64 / m.propagation_calls as f64,
            ));
        }
        for (domain, count) in &self.domain_uses {
            out.push_str(&format!("  domain {domain}: {count} calls\n"));
        }
        if m.propagation_hist.total() > 0 {
            out.push_str("  propagation latency:");
            for (i, c) in m.propagation_hist.counts().iter().enumerate() {
                if *c > 0 {
                    out.push_str(&format!(" {}={c}", Histogram::label(i)));
                }
            }
            out.push('\n');
        }
        if m.steals > 0 || m.parks > 0 {
            out.push_str(&format!(
                "  scheduler: {} steals ({} regions moved), {} parks, {:.6}s idle\n",
                m.steals, m.stolen_regions, m.parks, m.idle_seconds
            ));
            if m.idle_hist.total() > 0 {
                out.push_str("  park latency:");
                for (i, c) in m.idle_hist.counts().iter().enumerate() {
                    if *c > 0 {
                        out.push_str(&format!(" {}={c}", Histogram::label(i)));
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RegionPushed { depth: 1 },
            TraceEvent::RegionPopped {
                ordinal: 0,
                depth: 1,
            },
            TraceEvent::Bisection {
                ordinal: 0,
                dim: 3,
                at: 0.125,
                objective: 0.5,
            },
            TraceEvent::Propagation {
                ordinal: 0,
                domain: "(Z, 2)".to_string(),
                seconds: 0.25,
                outcome: "proved".to_string(),
                layer_seconds: vec![0.125, 0.0625, 0.0625],
            },
            TraceEvent::Propagation {
                ordinal: 1,
                domain: "deeppoly".to_string(),
                seconds: 0.5,
                outcome: "inconclusive".to_string(),
                layer_seconds: vec![],
            },
            TraceEvent::Attack {
                ordinal: 0,
                phase: "restarts".to_string(),
                evals: 42,
                best_objective: -0.75,
                seconds: 0.125,
            },
            TraceEvent::Attack {
                ordinal: 1,
                phase: "center".to_string(),
                evals: 7,
                best_objective: f64::INFINITY,
                seconds: 0.25,
            },
            TraceEvent::Verdict {
                verdict: "refuted".to_string(),
                regions: 2,
                seconds: 1.5,
            },
            TraceEvent::CheckpointSaved {
                pending: 4,
                regions_done: 9,
            },
            TraceEvent::FaultTriggered {
                site: "worker_panic".to_string(),
                ordinal: 3,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for event in sample_events() {
            let json = event.to_json();
            let parsed = TraceEvent::from_json(&json)
                .unwrap_or_else(|e| panic!("parse failed for {json}: {e}"));
            assert_eq!(parsed, event, "round-trip mismatch for {json}");
        }
    }

    #[test]
    fn event_json_bytes_are_pinned() {
        // One event of each kind and its exact bytes: trace readers
        // (`charon-cli trace`, the e2ebench span sink) parse this JSONL
        // schema, so the encoding must not drift.
        let pinned = [
            (
                TraceEvent::RegionPushed { depth: 1 },
                r#"{"event": "region_pushed", "depth": 1}"#,
            ),
            (
                TraceEvent::RegionPopped {
                    ordinal: 0,
                    depth: 1,
                },
                r#"{"event": "region_popped", "ordinal": 0, "depth": 1}"#,
            ),
            (
                TraceEvent::Bisection {
                    ordinal: 0,
                    dim: 3,
                    at: 0.125,
                    objective: f64::NEG_INFINITY,
                },
                r#"{"event": "bisection", "ordinal": 0, "dim": 3, "at": 0.125, "objective": "-inf"}"#,
            ),
            (
                TraceEvent::Propagation {
                    ordinal: 0,
                    domain: "(Z, 2)".to_string(),
                    seconds: 0.25,
                    outcome: "proved".to_string(),
                    layer_seconds: vec![0.125, 1e-7, f64::NAN],
                },
                r#"{"event": "propagation", "ordinal": 0, "domain": "(Z, 2)", "seconds": 0.25, "outcome": "proved", "layer_seconds": [0.125, 1e-7, "nan"]}"#,
            ),
            (
                TraceEvent::Attack {
                    ordinal: 12,
                    phase: "warm".to_string(),
                    evals: 42,
                    best_objective: -0.75,
                    seconds: 3e-5,
                },
                r#"{"event": "attack", "ordinal": 12, "phase": "warm", "evals": 42, "best_objective": -0.75, "seconds": 3e-5}"#,
            ),
            (
                TraceEvent::Verdict {
                    verdict: "refuted".to_string(),
                    regions: 2,
                    seconds: 1.5,
                },
                r#"{"event": "verdict", "verdict": "refuted", "regions": 2, "seconds": 1.5}"#,
            ),
            (
                TraceEvent::CheckpointSaved {
                    pending: 4,
                    regions_done: 9,
                },
                r#"{"event": "checkpoint_saved", "pending": 4, "regions_done": 9}"#,
            ),
            (
                TraceEvent::FaultTriggered {
                    site: "worker_\"panic\"".to_string(),
                    ordinal: 3,
                },
                r#"{"event": "fault_triggered", "site": "worker_\"panic\"", "ordinal": 3}"#,
            ),
        ];
        for (event, json) in pinned {
            assert_eq!(event.to_json(), json);
        }
    }

    #[test]
    fn json_objects_carry_the_event_key_first() {
        for event in sample_events() {
            let json = event.to_json();
            assert!(
                json.starts_with(&format!("{{\"event\": \"{}\"", event.kind())),
                "bad prefix: {json}"
            );
            assert!(json.ends_with('}'));
        }
    }

    #[test]
    fn non_finite_floats_survive_the_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let event = TraceEvent::Attack {
                ordinal: 0,
                phase: "center".to_string(),
                evals: 1,
                best_objective: v,
                seconds: 0.0,
            };
            let parsed = TraceEvent::from_json(&event.to_json()).unwrap();
            assert_eq!(parsed, event);
        }
        // NaN compares unequal to itself; check the field directly.
        let event = TraceEvent::Bisection {
            ordinal: 0,
            dim: 0,
            at: f64::NAN,
            objective: 0.0,
        };
        match TraceEvent::from_json(&event.to_json()).unwrap() {
            TraceEvent::Bisection { at, .. } => assert!(at.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn strings_with_quotes_and_escapes_round_trip() {
        let event = TraceEvent::Propagation {
            ordinal: 0,
            domain: "weird \"name\"\\with\nescapes".to_string(),
            seconds: 1.0,
            outcome: "proved".to_string(),
            layer_seconds: vec![],
        };
        assert_eq!(TraceEvent::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"event\": \"no_such_event\"}",
            "{\"event\": \"region_pushed\"}",
            "{\"event\": \"region_pushed\", \"depth\": -1}",
            "{\"event\": \"region_pushed\", \"depth\": 1.5}",
            "{\"event\": \"region_pushed\", \"depth\": \"deep\"}",
            "{\"event\": \"region_pushed\", \"depth\": 1} trailing",
        ] {
            assert!(
                TraceEvent::from_json(bad).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        // emit() must not invoke the builder when disabled.
        let mut built = false;
        emit(&NullSink, || {
            built = true;
            TraceEvent::RegionPushed { depth: 0 }
        });
        assert!(!built, "emit built an event for a disabled sink");
    }

    #[test]
    fn jsonl_sink_writes_one_valid_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        for event in sample_events() {
            sink.record(&event);
        }
        let text = String::from_utf8(sink.writer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, event) in lines.iter().zip(sample_events()) {
            assert_eq!(TraceEvent::from_json(line).unwrap(), event);
        }
    }

    #[test]
    fn summary_sink_aggregates() {
        let sink = SummarySink::new();
        for event in sample_events() {
            sink.record(&event);
        }
        let s = sink.snapshot();
        assert_eq!(s.events, sample_events().len() as u64);
        assert_eq!(s.regions_pushed, 1);
        assert_eq!(s.regions_popped, 1);
        assert_eq!(s.bisections, 1);
        assert_eq!(s.propagations, 2);
        assert_eq!(s.propagation_seconds, 0.75);
        assert_eq!(s.attack_phases, 2);
        assert_eq!(s.attack_seconds, 0.375);
        assert_eq!(s.best_objective, -0.75);
        assert_eq!(s.verdicts, 1);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.faults, 1);
        assert_eq!(s.max_depth, 1);
    }

    #[test]
    fn summary_merge_is_associative() {
        // Power-of-two seconds are exact in f64, so + is associative on
        // them and the assertion below is an equality, not a tolerance.
        let events = sample_events();
        let chunks: Vec<TraceSummary> = events
            .chunks(2)
            .map(|chunk| {
                let mut s = TraceSummary::new();
                for e in chunk {
                    s.absorb(e);
                }
                s
            })
            .collect();

        // Left fold: ((a + b) + c) + ...
        let mut left = TraceSummary::new();
        for c in &chunks {
            left.merge(c);
        }
        // Right fold: a + (b + (c + ...))
        let mut right = TraceSummary::new();
        for c in chunks.iter().rev() {
            let mut acc = c.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left, right);

        // Identity element.
        let mut with_identity = left.clone();
        with_identity.merge(&TraceSummary::new());
        assert_eq!(with_identity, left);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = Histogram::new();
        h.observe(5e-7); // <1us
        h.observe(5e-4); // <1ms
        h.observe(0.5); // <1s
        h.observe(1e9); // overflow
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.counts()[6], 1);
        assert_eq!(h.counts()[Histogram::BUCKETS - 1], 1);

        let mut other = Histogram::new();
        other.observe(5e-7);
        h.merge(&other);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(Histogram::label(0), "<1us");
        assert_eq!(Histogram::label(Histogram::BUCKETS - 1), ">=10s");
    }

    #[test]
    fn metrics_merge_sums_counters_and_histograms() {
        let mut a = Metrics::new();
        a.record_attack(0.25, &[]);
        a.record_propagation(0.5, true);
        a.record_policy(0.125);
        let mut b = Metrics::new();
        b.record_attack(0.75, &[]);
        b.record_propagation(0.25, false);
        a.merge(&b);
        assert_eq!(a.attack_calls, 2);
        assert_eq!(a.attack_seconds, 1.0);
        assert_eq!(a.propagation_calls, 2);
        assert_eq!(a.propagation_seconds, 0.75);
        assert_eq!(a.propagation_proved, 1);
        assert_eq!(a.policy_calls, 1);
        assert_eq!(a.attack_hist.total(), 2);
        assert_eq!(a.propagation_hist.total(), 2);
    }

    #[test]
    fn metrics_json_is_flat_and_parseable() {
        let mut m = Metrics::new();
        m.record_attack(0.5, &[]);
        m.record_propagation(0.25, true);
        let json = m.to_json();
        let fields = parse_flat_object(&json).expect("metrics JSON parses");
        assert_eq!(fields.f64_field("attack_seconds").unwrap(), 0.5);
        assert_eq!(fields.usize_field("propagation_calls").unwrap(), 1);
        assert_eq!(fields.usize_field("propagation_proved").unwrap(), 1);
    }

    #[test]
    fn attack_phase_and_layer_kind_rows_merge_serialize_and_render() {
        let stat = |phase, seconds| attack::PhaseStat {
            phase,
            evals: 1,
            best_objective: 1.0,
            seconds,
        };
        // XOR's layers: affine, relu, affine.
        let net = nn::samples::xor_network();
        let mut a = Metrics::new();
        a.record_attack(0.5, &[stat("warm", 0.25), stat("coordinate", 0.125)]);
        a.record_layers(net.layers(), &[0.5, 0.25, 0.125]);
        let mut b = Metrics::new();
        b.record_attack(1.0, &[stat("center", 0.5), stat("warm", 0.25)]);
        // A propagation that stopped after its first layer.
        b.record_layers(net.layers(), &[0.25]);
        a.merge(&b);
        assert_eq!(a.attack_phase_seconds, [0.5, 0.5, 0.0, 0.125, 0.0]);
        assert_eq!(a.layer_kind_seconds, [0.875, 0.25, 0.0]);

        let fields = parse_flat_object(&a.to_json()).expect("metrics JSON parses");
        assert_eq!(fields.f64_field("attack_warm_seconds").unwrap(), 0.5);
        assert_eq!(fields.f64_field("attack_restarts_seconds").unwrap(), 0.0);
        assert_eq!(
            fields.f64_field("propagation_affine_seconds").unwrap(),
            0.875
        );
        assert_eq!(
            fields.f64_field("propagation_maxpool_seconds").unwrap(),
            0.0
        );

        let run = crate::VerifyRun {
            verdict: crate::Verdict::Verified,
            stats: crate::VerifyStats {
                metrics: a,
                ..crate::VerifyStats::default()
            },
            checkpoint: None,
            limit: None,
            certificate: None,
        };
        let text = RunReport::from_run(&run).render();
        for row in ["warm", "center", "fgsm", "coordinate", "restarts"] {
            assert!(text.contains(&format!("\n    {row} ")), "report: {text}");
        }
        for row in ["affine", "relu", "maxpool"] {
            assert!(text.contains(&format!("\n    {row} ")), "report: {text}");
        }
    }

    #[test]
    fn scheduler_counters_merge_serialize_and_render() {
        let mut a = Metrics::new();
        a.record_steal(3);
        a.record_park(0.002);
        let mut b = Metrics::new();
        b.record_steal(1);
        b.record_park(0.0004);
        b.record_park(0.02);
        a.merge(&b);
        assert_eq!(a.steals, 2);
        assert_eq!(a.stolen_regions, 4);
        assert_eq!(a.parks, 3);
        assert!((a.idle_seconds - 0.0224).abs() < 1e-12);
        assert_eq!(a.idle_hist.total(), 3);

        let fields = parse_flat_object(&a.to_json()).expect("metrics JSON parses");
        assert_eq!(fields.usize_field("steals").unwrap(), 2);
        assert_eq!(fields.usize_field("stolen_regions").unwrap(), 4);
        assert_eq!(fields.usize_field("parks").unwrap(), 3);
        assert!(fields.f64_field("idle_seconds").unwrap() > 0.0);

        let stats = crate::VerifyStats {
            metrics: a,
            ..crate::VerifyStats::default()
        };
        let run = crate::VerifyRun {
            verdict: crate::Verdict::Verified,
            stats,
            checkpoint: None,
            limit: None,
            certificate: None,
        };
        let text = RunReport::from_run(&run).render();
        assert!(
            text.contains("scheduler: 2 steals (4 regions moved), 3 parks"),
            "report: {text}"
        );
        assert!(text.contains("park latency:"), "report: {text}");
    }

    #[test]
    fn run_report_renders_phases_and_throughput() {
        let mut stats = crate::VerifyStats {
            regions: 10,
            splits: 4,
            max_depth: 3,
            elapsed: std::time::Duration::from_secs(2),
            ..crate::VerifyStats::default()
        };
        stats.metrics.record_attack(0.5, &[]);
        stats.metrics.record_propagation(1.0, true);
        stats.metrics.record_policy(0.1);
        stats.domain_uses.push(("(Z, 1)".to_string(), 7));
        let run = crate::VerifyRun {
            verdict: crate::Verdict::Verified,
            stats,
            checkpoint: None,
            limit: None,
            certificate: None,
        };
        let text = RunReport::from_run(&run).render();
        assert!(text.contains("verified"), "report: {text}");
        assert!(text.contains("5.0 regions/s"), "report: {text}");
        assert!(text.contains("attack"), "report: {text}");
        assert!(text.contains("propagation"), "report: {text}");
        assert!(text.contains("policy"), "report: {text}");
        assert!(text.contains("other"), "report: {text}");
        assert!(text.contains("domain (Z, 1): 7 calls"), "report: {text}");
        assert!(
            text.contains("1/1 propagations proved their region (100.0%)"),
            "report: {text}"
        );
    }
}
