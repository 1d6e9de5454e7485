//! Benchmark-side tracing for the engine workloads.
//!
//! [`SpanSink`] is a [`TraceSink`] attached with `with_trace`: every
//! property is a root span opened and closed by the benchmark around the
//! verifier call, and each attack phase and propagation the engine
//! reports becomes a child span. The engine reports an event when the
//! work ends, with its duration, so a child span ends when the event
//! arrives and starts that many seconds earlier. [`TimedPolicy`] wraps
//! the policy to add `policy.domain` and `policy.split` child spans.
//!
//! Spans stay in memory until [`SpanSink::write_jsonl`].

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use charon::policy::{DomainSelection, Policy, PolicyContext, SplitPlan};
use charon::{TraceEvent, TraceSink};

use crate::slice::LayerKind;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by a property's spans: `<workload>/<property index>`.
    pub trace: String,
    /// Unique within the sink.
    pub id: u64,
    /// The root span's id, for child spans.
    pub parent: Option<u64>,
    /// `property`, `attack.<phase>`, `domains.propagate`,
    /// `policy.domain` or `policy.split`.
    pub name: String,
    /// The thread the span ran on (a small per-sink number).
    pub lane: usize,
    /// Seconds since the sink was created.
    pub start: f64,
    /// Seconds since the sink was created.
    pub end: f64,
}

#[derive(Default)]
struct State {
    next_id: u64,
    root: Option<(u64, String)>,
    kinds: Vec<LayerKind>,
    lanes: HashMap<ThreadId, usize>,
    /// Attack phases reported but not yet placed, per thread: when the
    /// first arrived and each phase's name and seconds.
    pending: HashMap<ThreadId, (Instant, Vec<(String, f64)>)>,
    spans: Vec<Span>,
    counts: Counts,
}

impl State {
    fn push(
        &mut self,
        epoch: Instant,
        thread: ThreadId,
        name: String,
        start: Instant,
        end: Instant,
    ) {
        let Some((parent, trace)) = self.root.clone() else {
            return;
        };
        let lanes = self.lanes.len();
        let lane = *self.lanes.entry(thread).or_insert(lanes);
        let id = self.next_id;
        self.next_id += 1;
        let seconds = |at: Instant| at.saturating_duration_since(epoch).as_secs_f64();
        self.spans.push(Span {
            trace,
            id,
            parent: Some(parent),
            name,
            lane,
            start: seconds(start),
            end: seconds(end),
        });
    }

    /// Places a thread's pending attack phases. The engine reports all
    /// phases of one attack together when the attack returns, in the
    /// order they ran, so they are laid end to end, the last one ending
    /// when the first report arrived.
    fn flush(&mut self, epoch: Instant, thread: ThreadId) {
        let Some((arrived, phases)) = self.pending.remove(&thread) else {
            return;
        };
        let total: f64 = phases.iter().map(|(_, s)| s).sum();
        let mut at = ago(arrived, total);
        for (name, seconds) in phases {
            let end = at + std::time::Duration::from_secs_f64(seconds.max(0.0));
            self.push(epoch, thread, name, at, end);
            at = end;
        }
    }

    fn flush_all(&mut self, epoch: Instant) {
        let threads: Vec<ThreadId> = self.pending.keys().copied().collect();
        for thread in threads {
            self.flush(epoch, thread);
        }
    }
}

/// Counts and per-kind seconds gathered from the events themselves.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Objective/gradient evaluations over all attack phases.
    pub attack_evals: u64,
    /// Per-layer propagation seconds folded by layer kind.
    pub affine_s: f64,
    /// As `affine_s`, for ReLU layers.
    pub relu_s: f64,
    /// As `affine_s`, for max-pool layers.
    pub maxpool_s: f64,
}

/// An in-memory span recorder (see the module docs).
pub struct SpanSink {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl SpanSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span sink lock poisoned by a panicking recorder")
    }

    fn seconds(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens the root span of one property; child spans recorded until
    /// [`SpanSink::end_property`] attach to it. `kinds` are the layer
    /// kinds of the property's network.
    pub fn begin_property(&self, trace: String, kinds: Vec<LayerKind>) {
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.root = Some((id, trace));
        state.kinds = kinds;
    }

    /// Closes the open root span, which ran from `start` to `end` on the
    /// benchmark's own thread.
    pub fn end_property(&self, start: Instant, end: Instant) {
        let (start, end) = (self.seconds(start), self.seconds(end));
        let mut state = self.lock();
        state.flush_all(self.epoch);
        let Some((id, trace)) = state.root.take() else {
            return;
        };
        state.spans.push(Span {
            trace,
            id,
            parent: None,
            name: "property".to_string(),
            lane: usize::MAX,
            start,
            end,
        });
    }

    fn child(&self, name: String, start: Instant, end: Instant) {
        let thread = std::thread::current().id();
        let mut state = self.lock();
        state.flush(self.epoch, thread);
        state.push(self.epoch, thread, name, start, end);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Event-derived counts.
    pub fn counts(&self) -> Counts {
        self.lock().counts.clone()
    }

    /// Writes the spans as JSON Lines.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.lock().spans.iter() {
            let mut b = charon::json::ObjectBuilder::new()
                .str("trace", &span.trace)
                .int("id", span.id)
                .str("name", &span.name)
                .num("start_s", span.start)
                .num("end_s", span.end);
            if let Some(parent) = span.parent {
                b = b.int("parent", parent).int("lane", span.lane as u64);
            }
            writeln!(out, "{}", b.build())?;
        }
        out.flush()
    }
}

fn ago(now: Instant, seconds: f64) -> Instant {
    now.checked_sub(std::time::Duration::from_secs_f64(seconds.max(0.0)))
        .unwrap_or(now)
}

impl TraceSink for SpanSink {
    fn record(&self, event: &TraceEvent) {
        let now = Instant::now();
        let thread = std::thread::current().id();
        let mut state = self.lock();
        match event {
            TraceEvent::Attack {
                phase,
                evals,
                seconds,
                ..
            } => {
                state.counts.attack_evals += *evals as u64;
                state
                    .pending
                    .entry(thread)
                    .or_insert_with(|| (now, Vec::new()))
                    .1
                    .push((format!("attack.{phase}"), *seconds));
            }
            TraceEvent::Propagation {
                seconds,
                layer_seconds,
                ..
            } => {
                state.flush(self.epoch, thread);
                let layers = state.kinds.len();
                for (i, s) in layer_seconds.iter().enumerate() {
                    // Powerset domains report one pass per disjunct.
                    let kind = if layers == 0 {
                        LayerKind::Affine
                    } else {
                        state.kinds[i % layers]
                    };
                    let counts = &mut state.counts;
                    match kind {
                        LayerKind::Affine => counts.affine_s += s,
                        LayerKind::Relu => counts.relu_s += s,
                        LayerKind::MaxPool => counts.maxpool_s += s,
                    }
                }
                state.push(
                    self.epoch,
                    thread,
                    "domains.propagate".to_string(),
                    ago(now, *seconds),
                    now,
                );
            }
            _ => state.flush(self.epoch, thread),
        }
    }
}

/// A policy decorator that records `policy.domain` and `policy.split`
/// child spans around the wrapped policy's decisions.
pub struct TimedPolicy {
    inner: Arc<dyn Policy>,
    sink: Arc<SpanSink>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Arc<dyn Policy>, sink: Arc<SpanSink>) -> Self {
        TimedPolicy { inner, sink }
    }
}

impl Policy for TimedPolicy {
    fn choose_domain(&self, ctx: &PolicyContext<'_>) -> DomainSelection {
        let start = Instant::now();
        let choice = self.inner.choose_domain(ctx);
        self.sink
            .child("policy.domain".to_string(), start, Instant::now());
        choice
    }

    fn choose_split(&self, ctx: &PolicyContext<'_>) -> SplitPlan {
        let start = Instant::now();
        let plan = self.inner.choose_split(ctx);
        self.sink
            .child("policy.split".to_string(), start, Instant::now());
        plan
    }
}

/// Where a traced pass's time went, summed over its properties.
///
/// Capacity is each property's wall time times the worker threads; the
/// layer busy times, the scheduler's idle time and the driver's self
/// time (capacity not covered by any child span, less idle) account for
/// it, and `gap` is what remains: time counted twice by overlapping
/// spans.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Σ property wall seconds.
    pub wall: f64,
    /// `wall × threads`.
    pub capacity: f64,
    /// Busy seconds per attack phase: center, fgsm, coordinate, restarts.
    pub attack_phases: [f64; 4],
    /// Σ attack spans.
    pub attack: f64,
    /// Σ propagation spans.
    pub domains: f64,
    /// Σ `policy.domain` spans.
    pub policy_domain: f64,
    /// Σ `policy.split` spans.
    pub policy_split: f64,
    /// Root self time: capacity not covered by children, less idle.
    pub driver_self: f64,
    /// `capacity − (attack + domains + policy + idle + driver_self)`.
    pub gap: f64,
}

const PHASES: [&str; 4] = ["center", "fgsm", "coordinate", "restarts"];

/// Length of the union of `intervals`.
fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Folds spans into a [`Breakdown`]; `idle` is the scheduler's parked
/// time over the same properties.
pub fn breakdown(spans: &[Span], threads: usize, idle: f64) -> Breakdown {
    let mut out = Breakdown::default();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent.is_some()) {
        let d = span.end - span.start;
        match span.name.as_str() {
            "domains.propagate" => out.domains += d,
            "policy.domain" => out.policy_domain += d,
            "policy.split" => out.policy_split += d,
            name => {
                if let Some(phase) = name.strip_prefix("attack.") {
                    out.attack += d;
                    if let Some(i) = PHASES.iter().position(|p| *p == phase) {
                        out.attack_phases[i] += d;
                    }
                }
            }
        }
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    let mut uncovered = 0.0;
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let wall = root.end - root.start;
        out.wall += wall;
        out.capacity += wall * threads as f64;
        let mut lanes: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for child in children.get(&root.id).into_iter().flatten() {
            lanes
                .entry(child.lane)
                .or_default()
                .push((child.start.max(root.start), child.end.min(root.end)));
        }
        let covered: f64 = lanes.values_mut().map(|v| union_length(v)).sum();
        uncovered += wall * threads as f64 - covered;
    }
    out.driver_self = (uncovered - idle).max(0.0);
    out.gap = out.capacity
        - (out.attack
            + out.domains
            + out.policy_domain
            + out.policy_split
            + idle
            + out.driver_self);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, lane: usize, start: f64, end: f64) -> Span {
        Span {
            trace: "w/0".to_string(),
            id,
            parent,
            name: name.to_string(),
            lane,
            start,
            end,
        }
    }

    #[test]
    fn layers_and_self_time_account_for_wall() {
        let spans = vec![
            span(1, Some(0), "attack.center", 0, 0.0, 0.4),
            span(2, Some(0), "domains.propagate", 0, 0.5, 0.8),
            span(3, Some(0), "policy.split", 0, 0.8, 0.9),
            span(0, None, "property", usize::MAX, 0.0, 1.0),
        ];
        let b = breakdown(&spans, 1, 0.0);
        assert!((b.wall - 1.0).abs() < 1e-12);
        assert!((b.attack - 0.4).abs() < 1e-12);
        assert!((b.driver_self - 0.2).abs() < 1e-12);
        assert!(b.gap.abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_show_as_gap() {
        let spans = vec![
            span(1, Some(0), "attack.fgsm", 0, 0.0, 0.6),
            span(2, Some(0), "domains.propagate", 0, 0.5, 1.0),
            span(0, None, "property", usize::MAX, 0.0, 1.0),
        ];
        let b = breakdown(&spans, 1, 0.0);
        assert!((b.gap + 0.1).abs() < 1e-12, "gap {}", b.gap);
    }
}
