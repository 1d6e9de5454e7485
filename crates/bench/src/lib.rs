//! Shared harness for the experiment binaries.
//!
//! Each figure of the paper's evaluation (§7) has a binary in `src/bin/`
//! that builds benchmark suites from the [`data`] crate, drives the tools
//! through the uniform [`Tool`] interface, and prints the table/series the
//! paper reports. Scale knobs are environment variables so the default run
//! finishes in minutes while `CHARON_BENCH_PROPS`/`CHARON_BENCH_TIMEOUT_MS`
//! can push towards paper-sized runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use baselines::ai2::Ai2;
use baselines::reluplex::Reluplex;
use baselines::reluval::ReluVal;
use baselines::ToolVerdict;
use charon::policy::{FixedPolicy, LinearPolicy, Policy};
use charon::{Verdict, Verifier, VerifierConfig};
use data::properties::{brightening_suite, Benchmark};
use data::zoo::{build, ZooConfig, ZooNetwork};
use nn::Network;

/// Benchmark-scale configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Properties per network (paper: ~100; default here: 10).
    pub props_per_network: usize,
    /// Per-benchmark time limit (paper: 1000 s; default here: 1 s).
    pub timeout: Duration,
    /// Worker threads for running benchmarks in parallel.
    pub threads: usize,
    /// Seed for everything.
    pub seed: u64,
}

impl Scale {
    /// Reads the scale from `CHARON_BENCH_PROPS`,
    /// `CHARON_BENCH_TIMEOUT_MS`, `CHARON_BENCH_THREADS`, and
    /// `CHARON_BENCH_SEED`.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| -> u64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Scale {
            props_per_network: get("CHARON_BENCH_PROPS", 10) as usize,
            timeout: Duration::from_millis(get("CHARON_BENCH_TIMEOUT_MS", 1000)),
            threads: get("CHARON_BENCH_THREADS", 0) as usize,
            seed: get("CHARON_BENCH_SEED", 0),
        }
    }

    /// Resolved thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// The tools under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolKind {
    /// Charon with the default (hand-initialized) linear policy.
    Charon,
    /// Charon with counterexample search disabled (RQ2 ablation).
    CharonNoCex,
    /// Charon with a fixed plain-zonotope domain (RQ3 ablation).
    CharonFixedZonotope,
    /// Charon with a fixed interval domain (RQ3 ablation).
    CharonFixedInterval,
    /// Charon with a fixed DeepPoly domain (§9 extension ablation).
    CharonDeepPoly,
    /// Charon with the Lipschitz pre-filter enabled (extension ablation).
    CharonLipschitz,
    /// AI2 with the plain zonotope domain.
    Ai2Zonotope,
    /// AI2 with the 64-disjunct powerset of zonotopes.
    Ai2Bounded64,
    /// ReluVal (symbolic intervals + bisection).
    ReluVal,
    /// The Reluplex-style complete solver.
    Reluplex,
}

impl ToolKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ToolKind::Charon => "Charon",
            ToolKind::CharonNoCex => "Charon-NoCex",
            ToolKind::CharonFixedZonotope => "Charon-FixedZ",
            ToolKind::CharonFixedInterval => "Charon-FixedI",
            ToolKind::CharonDeepPoly => "Charon-DeepPoly",
            ToolKind::CharonLipschitz => "Charon-Lipschitz",
            ToolKind::Ai2Zonotope => "AI2-Zonotope",
            ToolKind::Ai2Bounded64 => "AI2-Bounded64",
            ToolKind::ReluVal => "ReluVal",
            ToolKind::Reluplex => "Reluplex",
        }
    }
}

/// A tool instance ready to run benchmarks.
#[derive(Clone)]
pub struct Tool {
    kind: ToolKind,
    policy: Arc<dyn Policy>,
}

impl Tool {
    /// Creates a tool of the given kind with Charon's default policy
    /// where applicable.
    pub fn new(kind: ToolKind) -> Self {
        Tool {
            kind,
            policy: Arc::new(LinearPolicy::default()),
        }
    }

    /// Creates a Charon tool with an explicit (e.g. learned) policy.
    pub fn charon_with_policy(policy: Arc<dyn Policy>) -> Self {
        Tool {
            kind: ToolKind::Charon,
            policy,
        }
    }

    /// The tool's kind.
    pub fn kind(&self) -> ToolKind {
        self.kind
    }

    /// Runs the tool on one benchmark with a timeout, returning the
    /// verdict and elapsed wall-clock time. Charon variants also surface
    /// the engine's per-phase [`charon::Metrics`]; baselines report
    /// `None`.
    pub fn run(&self, net: &Network, benchmark: &Benchmark, timeout: Duration) -> ToolRun {
        let start = Instant::now();
        let (verdict, metrics) = match self.kind {
            ToolKind::Charon => self.run_charon(net, benchmark, timeout, true, None),
            ToolKind::CharonNoCex => self.run_charon(net, benchmark, timeout, false, None),
            ToolKind::CharonFixedZonotope => self.run_charon(
                net,
                benchmark,
                timeout,
                true,
                Some(domains::DomainChoice::zonotope()),
            ),
            ToolKind::CharonFixedInterval => self.run_charon(
                net,
                benchmark,
                timeout,
                true,
                Some(domains::DomainChoice::interval()),
            ),
            ToolKind::CharonLipschitz => {
                let config = VerifierConfig {
                    timeout,
                    lipschitz_prefilter: true,
                    ..VerifierConfig::default()
                };
                let verifier = Verifier::new(Arc::clone(&self.policy), config);
                run_verifier(&verifier, net, benchmark)
            }
            ToolKind::CharonDeepPoly => {
                let config = VerifierConfig {
                    timeout,
                    ..VerifierConfig::default()
                };
                let policy = Arc::new(charon::policy::FixedPolicy::with_selection(
                    charon::policy::DomainSelection::DeepPoly,
                ));
                run_verifier(&Verifier::new(policy, config), net, benchmark)
            }
            ToolKind::Ai2Zonotope => {
                (Ai2::zonotope().analyze(net, &benchmark.property, timeout), None)
            }
            ToolKind::Ai2Bounded64 => {
                (Ai2::bounded64().analyze(net, &benchmark.property, timeout), None)
            }
            ToolKind::ReluVal => (ReluVal::default().analyze(net, &benchmark.property, timeout), None),
            ToolKind::Reluplex => {
                (Reluplex::default().analyze(net, &benchmark.property, timeout), None)
            }
        };
        ToolRun {
            verdict,
            elapsed: start.elapsed(),
            metrics,
        }
    }

    fn run_charon(
        &self,
        net: &Network,
        benchmark: &Benchmark,
        timeout: Duration,
        cex_search: bool,
        fixed_domain: Option<domains::DomainChoice>,
    ) -> (ToolVerdict, Option<charon::Metrics>) {
        let config = VerifierConfig {
            timeout,
            counterexample_search: cex_search,
            ..VerifierConfig::default()
        };
        let policy: Arc<dyn Policy> = match fixed_domain {
            Some(choice) => Arc::new(FixedPolicy::new(choice)),
            None => Arc::clone(&self.policy),
        };
        run_verifier(&Verifier::new(policy, config), net, benchmark)
    }
}

/// Drives one verifier run and maps the outcome to the uniform tool
/// verdict, keeping the engine metrics alongside. An engine failure is a
/// non-answer for comparison purposes, not a harness abort.
fn run_verifier(
    verifier: &Verifier,
    net: &Network,
    benchmark: &Benchmark,
) -> (ToolVerdict, Option<charon::Metrics>) {
    match verifier.try_verify_run(net, &benchmark.property) {
        Ok(run) => {
            let verdict = match run.verdict {
                Verdict::Verified => ToolVerdict::Verified,
                Verdict::Refuted(cex) => ToolVerdict::Falsified(cex.point),
                Verdict::ResourceLimit => ToolVerdict::Timeout,
            };
            (verdict, Some(run.stats.metrics))
        }
        Err(_) => (ToolVerdict::Unknown, None),
    }
}

/// One benchmark execution result.
#[derive(Debug, Clone)]
pub struct ToolRun {
    /// The tool's verdict.
    pub verdict: ToolVerdict,
    /// Wall-clock time taken.
    pub elapsed: Duration,
    /// Engine metrics for Charon variants, `None` for baselines.
    pub metrics: Option<charon::Metrics>,
}

/// A network with its benchmark suite.
pub struct NetworkSuite {
    /// Which zoo network this is.
    pub which: ZooNetwork,
    /// The trained network.
    pub net: Network,
    /// Held-out accuracy (for reporting).
    pub accuracy: f64,
    /// The generated benchmarks.
    pub benchmarks: Vec<Benchmark>,
}

/// Builds the benchmark suite for one zoo network, following §7.1:
/// brightening attacks at several thresholds over correctly-classified
/// evaluation images.
pub fn build_suite(which: ZooNetwork, scale: &Scale) -> NetworkSuite {
    let config = ZooConfig {
        seed: scale.seed,
        ..ZooConfig::default()
    };
    let (net, accuracy) = build(which, &config);
    let eval = which.dataset(200, scale.seed.wrapping_add(101));
    let taus = [0.75, 0.6, 0.45];
    let benchmarks = brightening_suite(&net, &eval, &taus, scale.props_per_network);
    NetworkSuite {
        which,
        net,
        accuracy,
        benchmarks,
    }
}

/// Runs one tool over a whole suite in parallel, returning per-benchmark
/// results in order.
pub fn run_suite(tool: &Tool, suite: &NetworkSuite, scale: &Scale) -> Vec<ToolRun> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<ToolRun>>> = Mutex::new(vec![None; suite.benchmarks.len()]);
    let threads = scale.effective_threads().min(suite.benchmarks.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let results = &results;
            let tool = tool.clone();
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= suite.benchmarks.len() {
                    return;
                }
                let run = tool.run(&suite.net, &suite.benchmarks[idx], scale.timeout);
                results.lock().unwrap()[idx] = Some(run);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("all benchmarks processed"))
        .collect()
}

/// Aggregated outcome counts for one tool on one suite.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Benchmarks verified.
    pub verified: usize,
    /// Benchmarks falsified.
    pub falsified: usize,
    /// Benchmarks that hit the time budget.
    pub timeout: usize,
    /// Benchmarks finished without a decision.
    pub unknown: usize,
    /// Benchmarks the tool does not support.
    pub unsupported: usize,
    /// Total time across all benchmarks.
    pub total_time: Duration,
    /// Total time across *solved* benchmarks only.
    pub solved_time: Duration,
}

impl Summary {
    /// Builds a summary from raw runs.
    pub fn from_runs(runs: &[ToolRun]) -> Self {
        let mut s = Summary::default();
        for run in runs {
            s.total_time += run.elapsed;
            match &run.verdict {
                ToolVerdict::Verified => {
                    s.verified += 1;
                    s.solved_time += run.elapsed;
                }
                ToolVerdict::Falsified(_) => {
                    s.falsified += 1;
                    s.solved_time += run.elapsed;
                }
                ToolVerdict::Timeout => s.timeout += 1,
                ToolVerdict::Unknown => s.unknown += 1,
                ToolVerdict::Unsupported => s.unsupported += 1,
            }
        }
        s
    }

    /// Number of solved (decided) benchmarks.
    pub fn solved(&self) -> usize {
        self.verified + self.falsified
    }

    /// Total number of benchmarks.
    pub fn total(&self) -> usize {
        self.solved() + self.timeout + self.unknown + self.unsupported
    }
}

/// Prints a cactus series (the Figures 7–14 format): for the k-th fastest
/// solved benchmark, the cumulative time spent so far.
pub fn print_cactus(label: &str, runs: &[ToolRun]) {
    let mut times: Vec<f64> = runs
        .iter()
        .filter(|r| r.verdict.is_decided())
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    let mut cumulative = 0.0;
    print!("  {label:<14} ");
    if times.is_empty() {
        println!("(no benchmarks solved)");
        return;
    }
    let series: Vec<String> = times
        .iter()
        .map(|t| {
            cumulative += t;
            format!("{cumulative:.2}")
        })
        .collect();
    println!(
        "solved={:<3} cumulative_s=[{}]",
        times.len(),
        series.join(", ")
    );
}

/// Writes per-benchmark results as CSV (`tool,index,verdict,seconds`)
/// under `bench_out/<name>.csv`, creating the directory as needed.
/// Returns the path written, or `None` if writing failed (benchmarks
/// should not abort over a read-only filesystem).
pub fn write_csv(name: &str, rows: &[(String, usize, &ToolRun)]) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("bench_out");
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::from("tool,benchmark,verdict,seconds\n");
    for (tool, idx, run) in rows {
        out.push_str(&format!(
            "{tool},{idx},{},{:.6}\n",
            run.verdict,
            run.elapsed.as_secs_f64()
        ));
    }
    std::fs::write(&path, out).ok()?;
    Some(path)
}

/// Prints a summary row (the Figure 6 format).
pub fn print_summary_row(label: &str, summary: &Summary) {
    let total = summary.total().max(1) as f64;
    println!(
        "  {label:<14} verified={:>3} ({:>5.1}%)  falsified={:>3} ({:>5.1}%)  timeout={:>3} ({:>5.1}%)  unknown={:>3} ({:>5.1}%)  solved_time={:.2}s",
        summary.verified,
        100.0 * summary.verified as f64 / total,
        summary.falsified,
        100.0 * summary.falsified as f64 / total,
        summary.timeout,
        100.0 * summary.timeout as f64 / total,
        summary.unknown,
        100.0 * summary.unknown as f64 / total,
        summary.solved_time.as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            props_per_network: 3,
            timeout: Duration::from_millis(800),
            threads: 2,
            seed: 0,
        }
    }

    #[test]
    fn suite_builds_with_requested_size() {
        let suite = build_suite(ZooNetwork::Mnist3x32, &tiny_scale());
        assert_eq!(suite.benchmarks.len(), 3);
        assert!(suite.accuracy > 0.7);
    }

    #[test]
    fn charon_and_ai2_run_on_suite() {
        let scale = tiny_scale();
        let suite = build_suite(ZooNetwork::Mnist3x32, &scale);
        let charon_runs = run_suite(&Tool::new(ToolKind::Charon), &suite, &scale);
        let ai2_runs = run_suite(&Tool::new(ToolKind::Ai2Zonotope), &suite, &scale);
        assert_eq!(charon_runs.len(), 3);
        assert_eq!(ai2_runs.len(), 3);
        // Charon is δ-complete: it never reports Unknown.
        let s = Summary::from_runs(&charon_runs);
        assert_eq!(s.unknown, 0);
        // AI2 never falsifies.
        let a = Summary::from_runs(&ai2_runs);
        assert_eq!(a.falsified, 0);
    }

    #[test]
    fn summary_counts_add_up() {
        let runs = vec![
            ToolRun {
                verdict: ToolVerdict::Verified,
                elapsed: Duration::from_millis(10),
                metrics: None,
            },
            ToolRun {
                verdict: ToolVerdict::Falsified(vec![]),
                elapsed: Duration::from_millis(20),
                metrics: None,
            },
            ToolRun {
                verdict: ToolVerdict::Timeout,
                elapsed: Duration::from_millis(30),
                metrics: None,
            },
        ];
        let s = Summary::from_runs(&runs);
        assert_eq!(s.solved(), 2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.solved_time, Duration::from_millis(30));
        assert_eq!(s.total_time, Duration::from_millis(60));
    }

    #[test]
    fn write_csv_emits_rows() {
        let runs = [
            ToolRun {
                verdict: ToolVerdict::Verified,
                elapsed: Duration::from_millis(5),
                metrics: None,
            },
            ToolRun {
                verdict: ToolVerdict::Timeout,
                elapsed: Duration::from_millis(7),
                metrics: None,
            },
        ];
        let rows: Vec<(String, usize, &ToolRun)> = runs
            .iter()
            .enumerate()
            .map(|(i, r)| ("tool/net".to_string(), i, r))
            .collect();
        if let Some(path) = write_csv("test-csv", &rows) {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with("tool,benchmark,verdict,seconds"));
            assert!(text.contains("tool/net,0,verified,0.005"));
            assert!(text.contains("tool/net,1,timeout,0.007"));
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_env();
        assert!(s.props_per_network >= 1);
        assert!(s.timeout >= Duration::from_millis(1));
    }
}
