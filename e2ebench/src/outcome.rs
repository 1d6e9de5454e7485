//! What one pass over the slice produced.

use charon::Metrics;

/// A property's verdict class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Proved robust.
    Verified,
    /// A validated δ-counterexample.
    Refuted,
    /// Region budget exhausted (or no verdict at all).
    Limited,
}

impl Decision {
    /// One-letter code used in the expected-verdict file.
    pub fn letter(self) -> char {
        match self {
            Decision::Verified => 'V',
            Decision::Refuted => 'R',
            Decision::Limited => 'L',
        }
    }

    /// Inverse of [`Decision::letter`].
    pub fn from_letter(c: char) -> Option<Decision> {
        match c {
            'V' => Some(Decision::Verified),
            'R' => Some(Decision::Refuted),
            'L' => Some(Decision::Limited),
            _ => None,
        }
    }

    /// Whether this is a decisive verdict.
    pub fn decided(self) -> bool {
        self != Decision::Limited
    }
}

/// One property's result within a pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The verdict class.
    pub decision: Decision,
    /// The counterexample point of a refutation.
    pub witness: Option<Vec<f64>>,
    /// Regions the engine processed (as reported by the engine or reply).
    pub regions: usize,
    /// Time to verdict: the verifier call, or the latency the client saw.
    pub wall_s: f64,
    /// Why this attempt counts as failed: an engine error, a non-verdict
    /// response, or the safety timeout firing.
    pub failure: Option<String>,
    /// Served from the result cache (serve workload).
    pub cached: bool,
    /// The reply's `elapsed_ms` (service workloads).
    pub server_ms: f64,
}

impl Outcome {
    /// A failed attempt with no verdict.
    pub fn failed(reason: String, wall_s: f64) -> Outcome {
        Outcome {
            decision: Decision::Limited,
            witness: None,
            regions: 0,
            wall_s,
            failure: Some(reason),
            cached: false,
            server_ms: 0.0,
        }
    }
}

/// Service-side counters read from `stats` after a pass.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Result-cache hits.
    pub cache_hits: f64,
    /// Result-cache misses.
    pub cache_misses: f64,
    /// Model-registry hits.
    pub registry_hits: f64,
    /// Model-registry misses.
    pub registry_misses: f64,
    /// Journal records appended.
    pub journal_appends: f64,
    /// Submissions refused (full queue, shed, draining).
    pub rejected: f64,
    /// Worker threads executing verifications.
    pub workers: f64,
    /// Shards the coordinator dispatched.
    pub shards_dispatched: f64,
    /// Shards dispatched again after a node failure.
    pub redispatched: f64,
    /// Σ node idle seconds reported by the coordinator.
    pub node_idle_s: f64,
    /// Shards completed per node.
    pub node_completed: Vec<f64>,
}

/// One pass over the slice.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Results in visiting order, with the property index of each.
    pub results: Vec<(usize, Outcome)>,
    /// Wall seconds from the first call or request to the last reply.
    pub wall_s: f64,
    /// Engine metrics merged over the pass (from `stats` for services).
    pub metrics: Metrics,
    /// Σ region splits (engine workloads).
    pub splits: usize,
    /// Deepest split depth (engine workloads).
    pub max_depth: usize,
    /// Service-side counters (service workloads).
    pub service: ServiceStats,
    /// Seconds to start the service and connect its clients (service
    /// workloads).
    pub setup_s: f64,
}

impl Pass {
    /// The decision per property of the slice, for a pass that visits
    /// each property once (the last visit wins for repeated ones).
    pub fn decisions(&self, props: usize) -> Vec<Decision> {
        let mut out = vec![Decision::Limited; props];
        for (i, outcome) in &self.results {
            out[*i] = outcome.decision;
        }
        out
    }

    /// Decisive verdicts in the pass.
    pub fn solved(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, o)| o.decision.decided())
            .count()
    }

    /// Σ regions over the pass.
    pub fn regions(&self) -> usize {
        self.results.iter().map(|(_, o)| o.regions).sum()
    }

    /// Time-to-verdict samples in milliseconds.
    pub fn ttv_ms(&self) -> Vec<f64> {
        self.results.iter().map(|(_, o)| o.wall_s * 1e3).collect()
    }
}
