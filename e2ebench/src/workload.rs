//! One benchmark run: prepare, set up, warm up, time passes, check,
//! optionally trace, and report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::engine::{self, Driver};
use crate::gate::{self, AuditSummary, Gate};
use crate::outcome::{Decision, Pass};
use crate::service::{self, Service};
use crate::slice::{self, Slice, SliceSpec};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, SpanSink};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `charon::Verifier`, counterexample search on, one property at a time.
    Fig6Seq,
    /// `ParallelVerifier` with 2 threads, counterexample search off.
    Fig6NocexPar2,
    /// `server::Server` with 2 workers and a journal; 2 closed-loop
    /// clients replay each property 3 times.
    ServeRepeat,
    /// `server::Coordinator` over two nodes, 2 shards per job; 1 client.
    Cluster2Node,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Seq,
        Workload::Fig6NocexPar2,
        Workload::ServeRepeat,
        Workload::Cluster2Node,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Seq => "fig6-seq",
            Workload::Fig6NocexPar2 => "fig6-nocex-par2",
            Workload::ServeRepeat => "serve-repeat",
            Workload::Cluster2Node => "cluster-2node",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine_threads(self) -> Option<usize> {
        match self {
            Workload::Fig6Seq => Some(0),
            Workload::Fig6NocexPar2 => Some(2),
            _ => None,
        }
    }
}

/// Closed-loop clients of the serve workload (the host's 2 vCPUs).
const SERVE_CLIENTS: usize = 2;
/// Times the serve workload sends each property.
const SERVE_REPLAYS: usize = 3;

/// Everything a run needs to know.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the attack seed sent to the engine, the order the
    /// slice is visited in, and the request interleaving.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from an extra traced run.
    pub trace: bool,
    /// The slice and its region budget.
    pub spec: SliceSpec,
    /// The benchmark's working directory (zoo cache, slice files,
    /// sockets, journals, span files).
    pub work: PathBuf,
    /// Expected-verdict file, checked when the spec is the default one.
    pub expected: Option<PathBuf>,
    /// Setup repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Run exactly this many timed passes instead of filling `seconds`.
    pub passes: Option<usize>,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `snake_case` name, `<module>.<metric>` for layers.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Attempts: timed requests plus checked and traced properties.
    pub attempted: usize,
    /// Failed attempts plus gate failures.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced passes).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (only with `trace`).
    pub per_layer: Vec<Metric>,
    /// The timed passes.
    pub passes: Vec<Pass>,
    /// Decisions of the certified check pass, per property.
    pub check: Vec<Decision>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

/// What a setup repetition leaves ready to run.
enum Ready {
    Engine(Slice, Driver),
    Service(Service, Vec<server::Client>),
}

fn setup(opts: &RunOptions, dir: &Path, tag: &str) -> Result<Ready, String> {
    match opts.workload.engine_threads() {
        Some(threads) => {
            let slice = Slice::load(dir)?;
            let cex = opts.workload == Workload::Fig6Seq;
            let driver = Driver::linear(engine::config(&opts.spec, opts.seed, cex), threads);
            Ok(Ready::Engine(slice, driver))
        }
        None => {
            let props = slice::load_properties(dir)?;
            std::hint::black_box(&props);
            let (service, clients) = start_service(opts, tag)?;
            Ok(Ready::Service(service, clients))
        }
    }
}

fn start_service(opts: &RunOptions, tag: &str) -> Result<(Service, Vec<server::Client>), String> {
    let sockets = Path::new(&opts.work);
    let (service, clients) = match opts.workload {
        Workload::ServeRepeat => (Service::serve(sockets, tag), SERVE_CLIENTS),
        _ => (Service::cluster(sockets, tag), 1),
    };
    let service = service.map_err(|e| format!("start service: {e}"))?;
    let clients = service.connect(clients)?;
    Ok((service, clients))
}

/// One service pass: start, send `requests`, read stats, drain.
fn service_pass(
    opts: &RunOptions,
    tag: &str,
    requests: &[(usize, server::VerifyRequest)],
    gate: &mut Gate,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let (service, mut clients) = start_service(opts, tag)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut pass = service::closed_loop(&mut clients, requests);
    pass.setup_s = setup_s;
    drop(clients);
    let (stats, metrics) = service.stats()?;
    pass.service = stats;
    pass.metrics = metrics;
    if let Err(e) = service.shutdown() {
        gate.other(format!("{tag}: {e}"));
    }
    Ok(pass)
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Preparation, setup or service start failures (a run that cannot
/// produce numbers at all). Correctness problems are not errors: they
/// land in [`RunResult::failures`].
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let workload = opts.workload;
    let name = workload.name();
    let dir = slice::prepare(&opts.work, &opts.spec).map_err(|e| format!("prepare: {e}"))?;
    let slice = Slice::load(&dir)?;
    let n = slice.props.len();
    let order = slice::order(n, opts.seed);
    let net_paths: Vec<PathBuf> = slice.nets.iter().map(|net| net.path.clone()).collect();
    let mut gate = Gate::default();
    let mut notes = Vec::new();

    // Setup, repeated; the engine workloads keep the last one.
    let mut setup_samples = Vec::new();
    let mut ready = None;
    for rep in 0..opts.setup_reps.max(1) {
        let t0 = Instant::now();
        let r = setup(opts, &dir, &format!("setup{rep}"))?;
        setup_samples.push(t0.elapsed().as_secs_f64());
        match r {
            Ready::Engine(..) => ready = Some(r),
            Ready::Service(service, clients) => {
                drop(clients);
                if let Err(e) = service.shutdown() {
                    gate.other(format!("setup{rep}: {e}"));
                }
            }
        }
    }
    let engine = match ready {
        Some(Ready::Engine(slice, driver)) => Some((slice, driver)),
        _ => None,
    };

    let replays = if workload == Workload::ServeRepeat {
        SERVE_REPLAYS
    } else {
        1
    };
    let warmup = slice.warmup();

    // Warm-up: one property per network, untimed.
    match &engine {
        Some((s, driver)) => {
            engine::pass(driver, s, &warmup, None);
        }
        None => {
            let requests =
                service::requests(&slice.props, &net_paths, &opts.spec, opts.seed, &warmup, 1);
            service_pass(opts, "warmup", &requests, &mut gate)?;
        }
    }

    // Timed passes.
    let requests = service::requests(
        &slice.props,
        &net_paths,
        &opts.spec,
        opts.seed,
        &order,
        replays,
    );
    let mut passes: Vec<Pass> = Vec::new();
    let mut peaks = Vec::new();
    let timed = Instant::now();
    let mut last = 0.0;
    loop {
        let done = passes.len();
        let more = match opts.passes {
            Some(p) => done < p,
            None => done == 0 || timed.elapsed().as_secs_f64() + last <= opts.seconds,
        };
        if !more {
            break;
        }
        crate::alloc::reset_peak();
        let t0 = Instant::now();
        // Each pass adds a setup sample, so the samples spread over the
        // whole run.
        let pass = match &engine {
            Some((s, driver)) => {
                let t = Instant::now();
                std::hint::black_box(setup(opts, &dir, "")?);
                setup_samples.push(t.elapsed().as_secs_f64());
                // A sequential pass runs on one CPU; rotating it over the
                // CPUs lets each property's best time come from the least
                // contended one instead of wherever the scheduler left it.
                if driver.threads() == 1 {
                    crate::affinity::pin(done);
                }
                let pass = engine::pass(driver, s, &order, None).0;
                crate::affinity::unpin();
                pass
            }
            None => {
                let pass = service_pass(opts, &format!("pass{done}"), &requests, &mut gate)?;
                setup_samples.push(pass.setup_s);
                pass
            }
        };
        last = t0.elapsed().as_secs_f64();
        peaks.push(crate::alloc::peak_bytes() as f64 / 1e6);
        passes.push(pass);
    }
    let timed_s = timed.elapsed().as_secs_f64();

    // Check pass: fig6-seq at attack seed 0 with certificates, audited;
    // it is also the reference every workload's verdicts are compared
    // with. A fixed seed keeps its certificates, and so the audit cache,
    // the same across runs.
    let mut check_config = engine::config(&opts.spec, 0, true);
    check_config.certificates = true;
    let natural: Vec<usize> = (0..n).collect();
    let (check, certs) = engine::pass(&Driver::linear(check_config, 0), &slice, &natural, None);
    let audit = gate::audit(&mut gate, &slice, &check, &certs, &opts.work.join("audits"));
    let reference = check.decisions(n);
    gate.witnesses(&slice, "check", &check);
    if opts.spec == SliceSpec::default() {
        if let Some(path) = &opts.expected {
            match gate::read_expected(path, &slice)? {
                Some(expected) => {
                    gate.no_flips(&slice, "check vs expected", &check, &expected);
                    for (k, pass) in passes.iter().enumerate() {
                        gate.no_flips(&slice, &format!("pass {k} vs expected"), pass, &expected);
                    }
                }
                None => notes.push(format!("no expected-verdict file at {}", path.display())),
            }
        }
    }
    for (k, pass) in passes.iter().enumerate() {
        let what = format!("{name} pass {k}");
        gate.witnesses(&slice, &what, pass);
        gate.no_flips(&slice, &what, pass, &reference);
        if matches!(workload, Workload::Fig6Seq | Workload::ServeRepeat) && k > 0 {
            gate.identical(&slice, &what, &passes[0], pass);
        }
    }

    // Traced run (engine workloads only).
    let mut traced = None;
    if opts.trace {
        if let Some(threads) = workload.engine_threads() {
            let sink = Arc::new(SpanSink::default());
            let cex = workload == Workload::Fig6Seq;
            let driver = Driver::traced(engine::config(&opts.spec, opts.seed, cex), threads, &sink);
            let (pass, _) = engine::pass(&driver, &slice, &order, Some((&sink, name)));
            gate.witnesses(&slice, "traced", &pass);
            gate.no_flips(&slice, "traced", &pass, &reference);
            if workload == Workload::Fig6Seq {
                gate.identical(&slice, "traced vs pass 0", &passes[0], &pass);
            }
            let spans_path = opts.work.join(format!("trace-{name}-s{}.jsonl", opts.seed));
            sink.write_jsonl(&spans_path)
                .map_err(|e| format!("{}: {e}", spans_path.display()))?;
            notes.push(format!("spans written to {}", spans_path.display()));
            let threads = driver.threads();
            let b = trace::breakdown(&sink.spans(), threads, pass.metrics.idle_seconds);
            traced = Some((pass, sink.counts(), b, threads));
        }
    }

    // Tally.
    let mut attempted = check.results.len();
    let mut failures: Vec<String> = Vec::new();
    let all_passes = passes
        .iter()
        .chain(traced.iter().map(|t| &t.0))
        .chain([&check]);
    for pass in all_passes {
        for (i, outcome) in &pass.results {
            if let Some(reason) = &outcome.failure {
                failures.push(format!("{}: {reason}", slice.label(*i)));
            }
        }
    }
    attempted += passes.iter().map(|p| p.results.len()).sum::<usize>();
    attempted += traced.as_ref().map_or(0, |t| t.0.results.len());
    failures.extend(gate.failures);
    notes.extend(gate.notes);

    // End-to-end metrics. Every pass sends the same requests and does
    // the same work, so a request's time varies between passes only
    // through interference from outside the process, which only ever adds
    // time: each request counts with its best time over the passes.
    let samples = passes[0].results.len();
    let best: Vec<f64> = (0..samples)
        .map(|j| {
            passes
                .iter()
                .map(|p| p.results[j].1.wall_s * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // A closed loop of `clients` completes `clients` requests per mean
    // time to verdict (Little's law).
    let clients = if workload == Workload::ServeRepeat {
        SERVE_CLIENTS as f64
    } else {
        1.0
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let end_to_end = vec![
        metric(
            "throughput_qps",
            clients * samples as f64 / (best.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric("ttv_p50_ms", percentile(&best, 0.5), "ms"),
        metric("ttv_p90_ms", percentile(&best, 0.9), "ms"),
        metric("solved", per_pass(&|p| p.solved() as f64), "count"),
        metric("peak_heap_mb", median(&peaks), "MB"),
        metric("setup_s", median(&setup_samples), "s"),
    ];
    notes.push(format!(
        "{name}: {} passes in {timed_s:.2} s, {samples} samples per pass (p90 leaves {} above), {} properties, region budget {}; pass seconds {:?}",
        passes.len(),
        samples - (0.9 * samples as f64).ceil() as usize,
        n,
        opts.spec.budget,
        passes.iter().map(|p| (p.wall_s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "{name}: regions per pass {}, solved {} of {}, setup samples {}",
        passes[0].regions(),
        passes[0].solved(),
        samples,
        setup_samples.len()
    ));

    let per_layer = if opts.trace {
        layers(workload, &passes, traced.as_ref(), &audit, &mut notes)
    } else {
        Vec::new()
    };
    Ok(RunResult {
        attempted,
        failed: failures.len(),
        failures,
        end_to_end,
        per_layer,
        passes,
        check: reference,
        notes,
    })
}

type Traced = (Pass, trace::Counts, trace::Breakdown, usize);

fn layers(
    workload: Workload,
    passes: &[Pass],
    traced: Option<&Traced>,
    audit: &AuditSummary,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let last = passes.last().expect("at least one timed pass");
    // Engine-side numbers: the traced pass for engine workloads, the
    // service's `stats` after the last pass otherwise.
    let (pass, capacity) = match traced {
        Some((pass, _, b, _)) => (pass, b.capacity),
        None => (last, last.service.workers * last.wall_s),
    };
    let m = &pass.metrics;
    let refuted = pass
        .results
        .iter()
        .filter(|(_, o)| o.decision == Decision::Refuted && !o.cached)
        .count() as f64;
    let computed = pass.results.iter().filter(|(_, o)| !o.cached);
    let regions: f64 = computed.clone().map(|(_, o)| o.regions as f64).sum();
    let limited = computed
        .filter(|(_, o)| o.decision == Decision::Limited)
        .count() as f64;
    let (attack_s, domains_s) = match traced {
        Some((_, _, b, _)) => (b.attack, b.domains),
        None => (m.attack_seconds, m.propagation_seconds),
    };
    let zero = trace::Breakdown::default();
    let counts = traced.map(|t| t.1.clone()).unwrap_or_default();
    let b = traced.map_or(&zero, |t| &t.2);

    let mut out = vec![
        metric("attack.calls", m.attack_calls as f64, "count"),
        metric("attack.busy_s", attack_s, "s"),
        metric("attack.share", ratio(attack_s, capacity), "ratio"),
        metric("attack.evals", counts.attack_evals as f64, "count"),
        metric("attack.center_s", b.attack_phases[0], "s"),
        metric("attack.fgsm_s", b.attack_phases[1], "s"),
        metric("attack.coordinate_s", b.attack_phases[2], "s"),
        metric("attack.restarts_s", b.attack_phases[3], "s"),
        metric(
            "attack.refute_ratio",
            ratio(refuted, m.attack_calls as f64),
            "ratio",
        ),
        metric("domains.calls", m.propagation_calls as f64, "count"),
        metric("domains.busy_s", domains_s, "s"),
        metric("domains.share", ratio(domains_s, capacity), "ratio"),
        metric(
            "domains.proved_ratio",
            ratio(m.propagation_proved as f64, m.propagation_calls as f64),
            "ratio",
        ),
        metric("domains.affine_s", counts.affine_s, "s"),
        metric("domains.relu_s", counts.relu_s, "s"),
        metric("domains.maxpool_s", counts.maxpool_s, "s"),
        metric("policy.calls", m.policy_calls as f64, "count"),
        metric("policy.domain_s", b.policy_domain, "s"),
        metric("policy.split_s", b.policy_split, "s"),
        metric("charon.regions", regions, "count"),
        metric("charon.splits", pass.splits as f64, "count"),
        metric("charon.max_depth", pass.max_depth as f64, "count"),
        metric("charon.budget_exhausted", limited, "count"),
        metric("charon.driver_self_s", b.driver_self, "s"),
        metric("sched.steals", m.steals as f64, "count"),
        metric("sched.stolen_regions", m.stolen_regions as f64, "count"),
        metric("sched.parks", m.parks as f64, "count"),
        metric("sched.idle_s", m.idle_seconds, "s"),
        metric(
            "sched.utilization",
            if traced.is_some() {
                1.0 - ratio(m.idle_seconds, capacity)
            } else {
                0.0
            },
            "ratio",
        ),
    ];

    // Service tiers: reply fields pooled over the timed passes, counters
    // from the last pass's `stats`.
    let replies = || passes.iter().flat_map(|p| p.results.iter().map(|(_, o)| o));
    let wait: Vec<f64> = replies().map(|o| o.wall_s * 1e3 - o.server_ms).collect();
    let hit: Vec<f64> = replies()
        .filter(|o| o.cached)
        .map(|o| o.server_ms)
        .collect();
    let compute: Vec<f64> = replies()
        .filter(|o| !o.cached)
        .map(|o| o.server_ms)
        .collect();
    let s = &last.service;
    let serve = workload == Workload::ServeRepeat;
    let cluster = workload == Workload::Cluster2Node;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    out.extend([
        metric(
            "server.wait_ms_p50",
            only(serve, percentile(&wait, 0.5)),
            "ms",
        ),
        metric(
            "server.wait_ms_p90",
            only(serve, percentile(&wait, 0.9)),
            "ms",
        ),
        metric(
            "server.hit_ms_p50",
            only(serve, percentile(&hit, 0.5)),
            "ms",
        ),
        metric(
            "server.compute_ms_p90",
            only(serve, percentile(&compute, 0.9)),
            "ms",
        ),
        metric(
            "server.cache_hit_ratio",
            only(serve, ratio(s.cache_hits, s.cache_hits + s.cache_misses)),
            "ratio",
        ),
        metric(
            "server.registry_hits",
            only(serve, s.registry_hits),
            "count",
        ),
        metric(
            "server.registry_misses",
            only(serve, s.registry_misses),
            "count",
        ),
        metric(
            "server.journal_appends",
            only(serve, s.journal_appends),
            "count",
        ),
        metric("server.rejected", only(serve, s.rejected), "count"),
    ]);
    let jobs = last.results.len() as f64;
    let (lo, hi) = s
        .node_completed
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
            (lo.min(c), hi.max(c))
        });
    out.extend([
        metric(
            "cluster.shards_dispatched",
            only(cluster, s.shards_dispatched),
            "count",
        ),
        metric(
            "cluster.shards_per_job",
            only(cluster, ratio(s.shards_dispatched, jobs)),
            "ratio",
        ),
        metric(
            "cluster.redispatched",
            only(cluster, s.redispatched),
            "count",
        ),
        metric(
            "cluster.regions_per_job",
            only(cluster, ratio(regions, jobs)),
            "count",
        ),
        metric("cluster.node_idle_s", only(cluster, s.node_idle_s), "s"),
        metric(
            "cluster.node_balance",
            only(cluster, ratio(lo, hi)),
            "ratio",
        ),
        metric(
            "cluster.wait_ms_p50",
            only(cluster, percentile(&wait, 0.5)),
            "ms",
        ),
    ]);

    let untraced_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = traced.map_or(0.0, |t| ratio(t.0.wall_s, untraced_wall));
    out.extend([
        metric("cert.audited", audit.audited as f64, "count"),
        metric("cert.unconfirmed", audit.unconfirmed as f64, "count"),
        metric("cert.rejected", audit.rejected as f64, "count"),
        metric("cert.audit_s", audit.seconds, "s"),
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("trace.gap_s", b.gap, "s"),
    ]);

    if let Some((pass, _, b, threads)) = traced {
        let idle = pass.metrics.idle_seconds;
        let policy = b.policy_domain + b.policy_split;
        let pct = |v: f64| 100.0 * ratio(v, b.capacity);
        notes.push(format!(
            "traced pass: wall {:.3} s x {threads} thread(s) = {:.3} s; attack {:.3} s ({:.1}%) + domains {:.3} s ({:.1}%) + policy {:.3} s ({:.1}%) + sched idle {:.3} s ({:.1}%) + driver self {:.3} s ({:.1}%); remaining gap {:.6} s ({:.2}%)",
            b.wall,
            b.capacity,
            b.attack,
            pct(b.attack),
            b.domains,
            pct(b.domains),
            policy,
            pct(policy),
            idle,
            pct(idle),
            b.driver_self,
            pct(b.driver_self),
            b.gap,
            pct(b.gap),
        ));
        notes.push(format!(
            "traced pass: {:.3} s against untraced median {:.3} s (overhead ratio {:.4})",
            pass.wall_s, untraced_wall, overhead
        ));
    }
    out
}
