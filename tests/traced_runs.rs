//! Attaching a trace sink changes what the verifier reports, never what it
//! computes: a traced run emits the same certificate as an untraced one,
//! and its trace events carry the same measurements as its always-on
//! metrics.

use std::sync::{Arc, Mutex, OnceLock};

use charon::policy::FixedPolicy;
use charon::telemetry::LAYER_KINDS;
use charon::{
    Metrics, NullSink, RobustnessProperty, SummarySink, TraceEvent, TraceSink, Verdict, Verifier,
    VerifyRun,
};
use data::zoo::{build, ZooConfig, ZooNetwork};
use domains::{Bounds, DomainChoice};
use nn::{Layer, Network};

/// A Fig. 6 brightening property: mnist-3x32, evaluation image 0,
/// τ = 0.7.
fn zoo_property() -> &'static (Network, RobustnessProperty) {
    static FIXTURE: OnceLock<(Network, RobustnessProperty)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // The network `charon-cli prop --zoo mnist-3x32` builds.
        let zoo = ZooConfig {
            cache_dir: None,
            ..ZooConfig::default()
        };
        let (net, _) = build(ZooNetwork::Mnist3x32, &zoo);
        let eval = ZooNetwork::Mnist3x32.dataset(1, 0xe4a1);
        let image = &eval.images[0];
        let property = RobustnessProperty::new(
            data::properties::brightening_region(image, 0.7),
            net.classify(image),
        );
        (net, property)
    })
}

fn run(sink: Arc<dyn TraceSink>) -> VerifyRun {
    let (net, property) = zoo_property();
    let mut verifier = Verifier::default().with_trace(sink);
    verifier.config_mut().certificates = true;
    verifier.try_verify_run(net, property).unwrap()
}

#[test]
fn traced_and_untraced_runs_emit_byte_identical_certificates() {
    let untraced = run(Arc::new(NullSink));
    let traced = run(Arc::new(SummarySink::new()));
    assert_eq!(untraced.verdict, Verdict::Verified);
    let untraced = untraced
        .certificate
        .expect("verified run emits a certificate");
    let traced = traced
        .certificate
        .expect("verified run emits a certificate");
    assert_eq!(traced.to_text(), untraced.to_text());
}

/// Records every event.
#[derive(Default)]
struct Recorder(Mutex<Vec<TraceEvent>>);

impl TraceSink for Recorder {
    fn record(&self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

fn assert_close(event_sum: f64, metric: f64, row: &str) {
    let scale = event_sum.abs().max(metric.abs()).max(f64::MIN_POSITIVE);
    assert!(
        (event_sum - metric).abs() <= 1e-12 * scale,
        "{row}: events sum to {event_sum}, metrics say {metric}"
    );
}

/// Checks one traced run: per attack phase and per layer kind, the trace
/// events' seconds sum to the run's metrics row. Returns the metrics.
fn assert_events_match_metrics(
    net: &Network,
    verifier: Verifier,
    property: &RobustnessProperty,
) -> Metrics {
    let recorder = Arc::new(Recorder::default());
    let traced = verifier
        .with_trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .try_verify_run(net, property)
        .unwrap();
    let metrics = traced.metrics();
    let events = recorder.0.lock().unwrap();

    let mut phases = [0.0; 5];
    let mut kinds = [0.0; 3];
    for event in events.iter() {
        match event {
            TraceEvent::Attack { phase, seconds, .. } => {
                let i = attack::PHASES
                    .iter()
                    .position(|p| p == phase)
                    .unwrap_or_else(|| panic!("unknown phase {phase}"));
                phases[i] += seconds;
            }
            TraceEvent::Propagation { layer_seconds, .. } => {
                assert!(layer_seconds.len() <= net.layers().len());
                for (layer, s) in net.layers().iter().zip(layer_seconds) {
                    let kind = match layer {
                        Layer::Affine(_) => 0,
                        Layer::Relu => 1,
                        Layer::MaxPool(_) => 2,
                    };
                    kinds[kind] += s;
                }
            }
            _ => {}
        }
    }
    for (i, phase) in attack::PHASES.iter().enumerate() {
        assert_close(phases[i], metrics.attack_phase_seconds[i], phase);
    }
    for (i, kind) in LAYER_KINDS.iter().enumerate() {
        assert_close(kinds[i], metrics.layer_kind_seconds[i], kind);
    }
    // The run attacked and propagated, so the rows are live.
    assert!(metrics.attack_phase_seconds.iter().sum::<f64>() > 0.0);
    assert!(metrics.layer_kind_seconds[0] > 0.0, "affine row is empty");
    metrics.clone()
}

#[test]
fn trace_events_sum_to_the_metrics_rows() {
    // The zoo property: one region, the cold search's four phases.
    let (net, property) = zoo_property();
    assert_events_match_metrics(net, Verifier::default(), property);

    // XOR on the interval domain splits repeatedly, so split children
    // run the warm phase too.
    let xor = nn::samples::xor_network();
    let property = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let interval = Verifier::with_policy(Arc::new(FixedPolicy::new(DomainChoice::interval())));
    let metrics = assert_events_match_metrics(&xor, interval, &property);
    assert!(metrics.attack_phase_seconds[0] > 0.0, "warm row is empty");
}
