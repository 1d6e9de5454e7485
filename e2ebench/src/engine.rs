//! The engine workloads: the slice through `charon::Verifier` and
//! `charon::parallel::ParallelVerifier`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use charon::parallel::ParallelVerifier;
use charon::policy::{LinearPolicy, Policy};
use charon::{
    BudgetKind, Certificate, Metrics, Verdict, Verifier, VerifierConfig, VerifyError, VerifyRun,
};

use crate::outcome::{Decision, Outcome, Pass};
use crate::slice::{Slice, SliceSpec};
use crate::trace::{SpanSink, TimedPolicy};

/// The per-property wall-clock limit. Work is bounded by the region
/// budget; this only guards against a hang and must never fire (a
/// property that hits it counts as failed).
pub const SAFETY_TIMEOUT: Duration = Duration::from_secs(60);

/// The verifier configuration every engine workload shares.
pub fn config(spec: &SliceSpec, seed: u64, cex: bool) -> VerifierConfig {
    VerifierConfig {
        timeout: SAFETY_TIMEOUT,
        max_regions: spec.budget,
        seed,
        counterexample_search: cex,
        ..VerifierConfig::default()
    }
}

/// A sequential or parallel verifier.
#[derive(Clone)]
pub enum Driver {
    /// `charon::Verifier`.
    Seq(Verifier),
    /// `charon::parallel::ParallelVerifier`.
    Par(ParallelVerifier),
}

impl Driver {
    /// Builds a driver over `policy`; `threads == 0` means sequential.
    pub fn new(policy: Arc<dyn Policy>, config: VerifierConfig, threads: usize) -> Driver {
        if threads == 0 {
            Driver::Seq(Verifier::new(policy, config))
        } else {
            Driver::Par(ParallelVerifier::new(policy, config, threads))
        }
    }

    /// The default `LinearPolicy` driver.
    pub fn linear(config: VerifierConfig, threads: usize) -> Driver {
        Driver::new(Arc::new(LinearPolicy::default()), config, threads)
    }

    /// A traced copy of this driver's configuration: spans go to `sink`
    /// and the policy is wrapped in [`TimedPolicy`].
    pub fn traced(config: VerifierConfig, threads: usize, sink: &Arc<SpanSink>) -> Driver {
        let policy: Arc<dyn Policy> = Arc::new(TimedPolicy::new(
            Arc::new(LinearPolicy::default()),
            Arc::clone(sink),
        ));
        let shared: charon::telemetry::SharedSink = Arc::clone(sink) as _;
        match Driver::new(policy, config, threads) {
            Driver::Seq(v) => Driver::Seq(v.with_trace(shared)),
            Driver::Par(v) => Driver::Par(v.with_trace(shared)),
        }
    }

    /// Worker threads that run regions (1 for sequential).
    pub fn threads(&self) -> usize {
        match self {
            Driver::Seq(_) => 1,
            Driver::Par(v) => v.threads(),
        }
    }

    fn run(
        &self,
        net: &nn::Network,
        property: &charon::RobustnessProperty,
    ) -> Result<VerifyRun, VerifyError> {
        match self {
            Driver::Seq(v) => v.try_verify_run(net, property),
            Driver::Par(v) => v.try_verify_run(net, property),
        }
    }
}

/// Runs `order` through `driver`. With `sink`, each property is a root
/// span labelled `<workload>/<index>`. Certificates, when the driver
/// emits them, are returned per property index.
pub fn pass(
    driver: &Driver,
    slice: &Slice,
    order: &[usize],
    sink: Option<(&SpanSink, &str)>,
) -> (Pass, Vec<Option<Certificate>>) {
    let mut out = Pass {
        metrics: Metrics::new(),
        ..Pass::default()
    };
    let mut certs = vec![None; slice.props.len()];
    let started = Instant::now();
    for &i in order {
        let prop = &slice.props[i];
        let net = &slice.nets[prop.net];
        if let Some((sink, workload)) = sink {
            sink.begin_property(format!("{workload}/{i}"), net.layer_kinds());
        }
        let t0 = Instant::now();
        let run = driver.run(&net.net, &prop.property);
        let t1 = Instant::now();
        if let Some((sink, _)) = sink {
            sink.end_property(t0, t1);
        }
        let wall_s = (t1 - t0).as_secs_f64();
        let outcome = match run {
            Ok(run) => {
                out.metrics.merge(&run.stats.metrics);
                out.splits += run.stats.splits;
                out.max_depth = out.max_depth.max(run.stats.max_depth);
                certs[i] = run.certificate;
                let (decision, witness) = match run.verdict {
                    Verdict::Verified => (Decision::Verified, None),
                    Verdict::Refuted(cex) => (Decision::Refuted, Some(cex.point)),
                    Verdict::ResourceLimit => (Decision::Limited, None),
                };
                Outcome {
                    decision,
                    witness,
                    regions: run.stats.regions,
                    wall_s,
                    failure: (run.limit == Some(BudgetKind::Timeout))
                        .then(|| "safety timeout fired".to_string()),
                    cached: false,
                    server_ms: 0.0,
                }
            }
            Err(e) => Outcome::failed(format!("engine error: {e}"), wall_s),
        };
        out.results.push((i, outcome));
    }
    out.wall_s = started.elapsed().as_secs_f64();
    (out, certs)
}
