//! Implementation of the `charon-cli` command-line tool.
//!
//! The binary is a thin wrapper over [`run`], which parses an argument
//! vector and executes one of the subcommands:
//!
//! ```text
//! charon-cli verify  --network NET (--property PROP | --resume CKPT) [--timeout-ms N]
//!                    [--delta D] [--policy FILE] [--parallel N] [--checkpoint FILE]
//!                    [--no-cex] [--stats] [--report] [--trace-out FILE]
//!                    [--cert-out FILE]
//! charon-cli audit   --network NET --cert FILE
//! charon-cli attack  --network NET --property PROP [--restarts N] [--seed N]
//! charon-cli train   [--seed N] [--time-limit-ms N] --out FILE
//! charon-cli info    --network NET
//! charon-cli example --out-network NET --out-property PROP
//! charon-cli prop    --zoo NAME --image N --tau T --out-network NET --out-property PROP
//! charon-cli certify --zoo NAME --eps E [--points N] [--timeout-ms N]
//! charon-cli trace   --in FILE
//! charon-cli serve   --addr ADDR [--workers N] [--queue N] [--cache N]
//!                    [--shed-target-ms N] [--shed-interval-ms N]
//!                    [--reply-margin-ms N] [--journal FILE | --no-journal]
//! charon-cli serve   --addr ADDR --coordinator --nodes ADDR,ADDR[,...]
//!                    [--shards N] [--conns-per-node N] [--retry-budget N]
//!                    [--node-grace-ms N] [--breaker-threshold N]
//!                    [--breaker-cooldown-ms N] [--journal FILE | --no-journal]
//! charon-cli node    --addr ADDR [--workers N] [--reply-margin-ms N]
//!                    [--journal FILE]
//! charon-cli submit  --addr ADDR (--network NET --property PROP | --query ID
//!                    | --stats | --drain | --ping) [--id N] [--retries N]
//!                    [--priority N] [--deadline-ms N] [--timeout-ms N]
//!                    [--delta D] [--restarts N] [--seed N] [--no-cex] [--checkpoint FILE]
//!                    [--cert-out FILE]
//! ```
//!
//! Networks use the `nn::serialize` plain-text format and properties the
//! `charon-prop` format (see [`charon::RobustnessProperty::from_text`]).
//! Exit codes from `verify` and `submit`: 0 = verified, 1 = refuted,
//! 2 = resource limit, 64 = usage error, 65 = unreadable/malformed input
//! data (`EX_DATAERR`), 69 = daemon unavailable (`EX_UNAVAILABLE`:
//! connection refused, queue full, draining, or the retry budget ran
//! out on such a transient condition), 70 = internal engine failure
//! (`EX_SOFTWARE`), including a `poisoned` quarantine verdict.
//!
//! `verify --cert-out FILE` records a proof certificate (`charon-cert`
//! format, see the [`cert`] crate) for a decisive verdict: the full
//! region split tree with per-leaf domains and margins for `verified`,
//! or the concrete witness input for `refuted`. `audit` independently
//! re-checks such a certificate against the network using
//! directed-rounding arithmetic that shares no code with the search.
//! Its exit codes: 0 = certificate checks out (for a verified *or* a
//! refuted claim), 1 = certificate rejected (tampered, unsound, or for
//! a different network — the typed reason is printed), 65 = the
//! certificate or network file cannot be read, 64 = usage error.
//!
//! `serve` runs the [`server`] daemon in the foreground until a client
//! drains it; `submit` is the matching one-shot client. An address is
//! either `unix:/path/to.sock` (or a bare path) or `tcp:host:port`.
//!
//! The daemon is crash-only: on a Unix-socket address it journals every
//! accepted job to `<socket>.wal` by default (override with `--journal
//! FILE`, opt out with `--no-journal`; TCP daemons journal only when
//! `--journal` is given) and replays unfinished jobs after a restart.
//! `submit` picks a fresh job id per invocation unless `--id` pins one,
//! submits with the idempotent `ack` handshake, and retries transient
//! failures (connection refused, `busy` refusals, draining, journal
//! write errors) up to `--retries N` (default 3) times with capped
//! exponential backoff — waiting at least the server's `retry_after_ms`
//! hint, and stopping early once `--deadline-ms` is spent — before
//! giving up with exit code 69. A job that
//! repeatedly kills workers comes back as a `poisoned` verdict carrying
//! the panic diagnostic (exit code 70). `submit --query ID` asks a
//! daemon for the stored outcome of a previously submitted job.
//!
//! Interrupted `verify` runs can persist their worklist with
//! `--checkpoint FILE` and continue later with `--resume FILE`.
//!
//! `serve --coordinator` runs the multi-node tier (see
//! `docs/PROTOCOL.md` and `docs/OPERATIONS.md`): each accepted job's
//! input region is split into shards dispatched across the `--nodes`
//! pool, shard verdicts merge with record-and-stop semantics, dead
//! nodes are detected by read deadline and their shards re-dispatched
//! within `--retry-budget`, beyond which the shard is quarantined and
//! the job delivered as `poisoned`. `node` starts a shard-worker
//! daemon (a plain daemon that also answers `shard` requests). Each
//! node carries a circuit breaker: `--breaker-threshold` consecutive
//! dispatch failures route shards around it until a half-open probe
//! (after `--breaker-cooldown-ms`) finds it healthy again.
//!
//! Overload: `serve --shed-target-ms N` arms the sojourn-time shed
//! controller — once queue latency stays above the target for
//! `--shed-interval-ms`, new low-priority submissions are refused with
//! `busy` + `retry_after_ms` until latency recovers. Jobs carrying
//! `--deadline-ms` are answered `deadline_expired` without touching a
//! worker once the deadline is spent, and workers clamp the verification
//! budget to the remaining deadline minus `--reply-margin-ms`.
//!
//! Observability: `verify --report` prints a per-phase run report (see
//! [`charon::RunReport`]), `verify --trace-out FILE` streams one JSON
//! event per line (see [`charon::telemetry`]), and `trace --in FILE`
//! validates and summarizes such a trace file.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use charon::policy::LinearPolicy;
use charon::{Checkpoint, RobustnessProperty, Verdict, VerifierConfig, VerifyError, VerifyRun};

/// Exit status of a CLI invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// Verified / success.
    Success,
    /// Property refuted.
    Refuted,
    /// Budget exhausted.
    ResourceLimit,
    /// Bad usage (unknown flags, missing arguments).
    UsageError,
    /// Input data could not be loaded or is malformed (`EX_DATAERR`).
    DataError,
    /// The daemon could not take the job: connection refused, queue
    /// full, or draining (`EX_UNAVAILABLE`).
    Unavailable,
    /// The verification engine itself failed (`EX_SOFTWARE`).
    EngineError,
}

impl ExitCode {
    /// Numeric process exit code.
    pub fn code(self) -> i32 {
        match self {
            ExitCode::Success => 0,
            ExitCode::Refuted => 1,
            ExitCode::ResourceLimit => 2,
            ExitCode::UsageError => 64,
            ExitCode::DataError => 65,
            ExitCode::Unavailable => 69,
            ExitCode::EngineError => 70,
        }
    }
}

/// A classified CLI failure, mapped to a distinct exit code so scripts
/// can tell "you called it wrong" from "your file is broken" from "the
/// tool is broken".
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// Bad invocation: unknown command, missing flag, unparsable value.
    Usage(String),
    /// Unreadable or malformed input data (network, property, policy,
    /// checkpoint files).
    Data(String),
    /// The daemon refused or cannot be reached (connect failure, queue
    /// full, draining).
    Unavailable(String),
    /// Internal engine failure (worker panic, numeric poisoning).
    Engine(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<VerifyError> for CliError {
    fn from(e: VerifyError) -> Self {
        match e {
            // A structurally unusable model is a data problem, not an
            // engine bug.
            VerifyError::MalformedModel { .. } => CliError::Data(e.to_string()),
            _ => CliError::Engine(e.to_string()),
        }
    }
}

/// Parsed command-line flags: `--key value` pairs plus the subcommand.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses an argument vector (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message if no subcommand is present or a `--flag`
    /// is missing its value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut iter = argv.iter();
        let command = iter.next().ok_or_else(usage)?.clone();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {arg:?}\n{}",
                    usage()
                ));
            };
            // Boolean switches take no value.
            if matches!(
                name,
                "no-cex" | "help" | "stats" | "report" | "drain" | "ping" | "no-journal"
                    | "coordinator"
            ) {
                switches.push(name.to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value\n{}", usage()))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args {
            command,
            flags,
            switches,
        })
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The value of a required flag.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}\n{}", usage()))
    }

    /// Whether a boolean switch was passed.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses a numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name} expects an integer, got {v:?}")),
        }
    }

    /// Parses a float flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name} expects a number, got {v:?}")),
        }
    }
}

fn usage() -> String {
    "usage:\n  charon-cli verify  --network NET (--property PROP | --resume CKPT) [--timeout-ms N] [--delta D] [--policy FILE] [--parallel N] [--checkpoint FILE] [--no-cex] [--stats] [--report] [--trace-out FILE] [--cert-out FILE]\n  charon-cli audit   --network NET --cert FILE\n  charon-cli attack  --network NET --property PROP [--restarts N] [--seed N]\n  charon-cli train   [--seed N] [--time-limit-ms N] --out FILE\n  charon-cli info    --network NET\n  charon-cli example --out-network NET --out-property PROP\n  charon-cli prop    --zoo NAME --image N --tau T --out-network NET --out-property PROP\n  charon-cli certify --zoo NAME --eps E [--points N] [--timeout-ms N]\n  charon-cli trace   --in FILE\n  charon-cli serve   --addr ADDR [--workers N] [--queue N] [--cache N] [--shed-target-ms N] [--shed-interval-ms N] [--reply-margin-ms N] [--journal FILE | --no-journal] [--fault-kill-job ID] [--fault-worker-kill ORD]\n  charon-cli serve   --addr ADDR --coordinator --nodes ADDR,ADDR[,...] [--shards N] [--conns-per-node N] [--retry-budget N] [--node-grace-ms N] [--breaker-threshold N] [--breaker-cooldown-ms N] [--journal FILE | --no-journal] [--fault-node-kill ORD] [--fault-shard-drop ORD]\n  charon-cli node    --addr ADDR [--workers N] [--reply-margin-ms N] [--journal FILE] [--fault-shard-stall ORD --fault-shard-stall-ms MS]\n  charon-cli submit  --addr ADDR (--network NET --property PROP | --query ID | --stats | --drain | --ping) [--id N] [--retries N] [--priority N] [--deadline-ms N] [--timeout-ms N] [--delta D] [--restarts N] [--seed N] [--no-cex] [--checkpoint FILE] [--cert-out FILE]\n\nserve journals accepted jobs to <socket>.wal on Unix addresses unless --no-journal; --journal FILE overrides the path (and is required for durability on tcp: addresses). --fault-kill-job / --fault-worker-kill schedule deterministic worker panics for chaos testing only.\nserve --coordinator shards each job's input region across the listed nodes and merges shard verdicts; a node is a daemon started with `charon-cli node` (journal off by default: shards are the coordinator's to re-dispatch). --breaker-threshold consecutive dispatch failures trip a node's circuit breaker and route shards around it until a half-open probe after --breaker-cooldown-ms succeeds. --fault-node-kill / --fault-shard-drop / --fault-shard-stall schedule deterministic cluster faults for chaos testing only.\nserve --shed-target-ms arms adaptive load shedding: sustained queue latency above the target refuses new low-priority submissions with `busy` + retry_after_ms. submit --deadline-ms propagates an end-to-end deadline: expired jobs are answered deadline_expired without running, and workers clamp their budget to the remaining deadline minus --reply-margin-ms.\nsubmit retries transient failures (connect refused, busy, draining, journal errors) --retries times with capped exponential backoff, honoring the server's retry_after_ms hint and stopping once --deadline-ms is spent; exit 69 = retryable/unavailable, 70 = engine failure or poisoned job.\nverify --cert-out records a proof certificate for a decisive verdict (submit --cert-out asks the daemon to do the same over the wire); audit independently re-checks one with directed rounding (exit 0 = certificate ok, 1 = rejected, 65 = unreadable).".to_string()
}

/// Executes a CLI invocation, writing human-readable output to `out`.
pub fn run(argv: &[String], out: &mut impl std::io::Write) -> ExitCode {
    match run_inner(argv, out) {
        Ok(code) => code,
        Err(e) => {
            let (msg, code) = match e {
                CliError::Usage(msg) => (msg, ExitCode::UsageError),
                CliError::Data(msg) => (msg, ExitCode::DataError),
                CliError::Unavailable(msg) => (msg, ExitCode::Unavailable),
                CliError::Engine(msg) => (msg, ExitCode::EngineError),
            };
            let _ = writeln!(out, "error: {msg}");
            code
        }
    }
}

fn run_inner(argv: &[String], out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let args = Args::parse(argv)?;
    if args.switch("help") {
        writeln!(out, "{}", usage()).map_err(|e| e.to_string())?;
        return Ok(ExitCode::Success);
    }
    match args.command.as_str() {
        "verify" => cmd_verify(&args, out),
        "audit" => cmd_audit(&args, out),
        "attack" => cmd_attack(&args, out),
        "train" => cmd_train(&args, out),
        "info" => cmd_info(&args, out),
        "example" => cmd_example(&args, out),
        "prop" => cmd_prop(&args, out),
        "certify" => cmd_certify(&args, out),
        "trace" => cmd_trace(&args, out),
        "serve" => cmd_serve(&args, out),
        "node" => cmd_node(&args, out),
        "submit" => cmd_submit(&args, out),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

fn load_network(path: &str) -> Result<nn::Network, CliError> {
    nn::serialize::load(Path::new(path)).map_err(|e| CliError::Data(format!("cannot load network: {e}")))
}

fn load_property(path: &str) -> Result<RobustnessProperty, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("cannot read {path}: {e}")))?;
    RobustnessProperty::from_text(&text)
        .map_err(|e| CliError::Data(format!("cannot load property: {e}")))
}

fn cmd_verify(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    if args.get("resume").is_some() && args.get("property").is_some() {
        return Err(CliError::Usage(format!(
            "--resume and --property are mutually exclusive; a checkpoint already fixes the property\n{}",
            usage()
        )));
    }
    let net = load_network(args.require("network")?)?;
    let mut config = VerifierConfig {
        timeout: Duration::from_millis(args.get_u64("timeout-ms", 60_000)?),
        delta: args.get_f64("delta", 1e-9)?,
        counterexample_search: !args.switch("no-cex"),
        certificates: args.get("cert-out").is_some(),
        ..VerifierConfig::default()
    };
    config.seed = args.get_u64("seed", 0)?;

    let policy: Arc<dyn charon::policy::Policy> = match args.get("policy") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Data(format!("cannot read {path}: {e}")))?;
            Arc::new(LinearPolicy::from_text(&text).map_err(CliError::Data)?)
        }
        None => Arc::new(LinearPolicy::default()),
    };

    let threads = args.get_u64("parallel", 1)? as usize;
    let resume_from = match args.get("resume") {
        Some(path) => Some(
            Checkpoint::load(Path::new(path))
                .map_err(|e| CliError::Data(format!("cannot load checkpoint: {e}")))?,
        ),
        None => None,
    };

    // One sink shared by every worker; `None` leaves the default
    // NullSink in place (tracing off, zero overhead).
    let jsonl = match args.get("trace-out") {
        Some(path) => Some(Arc::new(charon::JsonlSink::create(Path::new(path)).map_err(
            |e| CliError::Data(format!("cannot create trace file {path}: {e}")),
        )?)),
        None => None,
    };
    let sink: Option<charon::telemetry::SharedSink> =
        jsonl.as_ref().map(|s| Arc::clone(s) as _);

    let mut verifier = charon::parallel::ParallelVerifier::new(policy, config, threads.max(1));
    if let Some(sink) = sink {
        verifier = verifier.with_trace(sink);
    }
    let run: VerifyRun = match &resume_from {
        Some(ckpt) => verifier.resume(&net, ckpt)?,
        None => verifier.try_verify_run(&net, &load_property(args.require("property")?)?)?,
    };

    if let (Some(sink), Some(path)) = (&jsonl, args.get("trace-out")) {
        sink.flush()
            .map_err(|e| CliError::Data(format!("cannot write trace file {path}: {e}")))?;
        writeln!(out, "trace written to {path}").map_err(|e| e.to_string())?;
    }

    if args.switch("report") {
        write!(out, "{}", charon::RunReport::from_run(&run).render())
            .map_err(|e| e.to_string())?;
    }

    if args.switch("stats") {
        let stats = &run.stats;
        writeln!(
            out,
            "stats: regions={} splits={} analyze_calls={} attacks={} max_depth={} elapsed={:?}",
            stats.regions,
            stats.splits,
            stats.analyze_calls,
            stats.attacks,
            stats.max_depth,
            stats.elapsed
        )
        .map_err(|e| e.to_string())?;
        for (domain, count) in &stats.domain_uses {
            writeln!(out, "stats: domain {domain} used {count}x").map_err(|e| e.to_string())?;
        }
    }

    if let Some(path) = args.get("cert-out") {
        match &run.certificate {
            Some(cert) => {
                cert.save(Path::new(path)).map_err(|e| {
                    CliError::Data(format!("cannot write certificate {path}: {e}"))
                })?;
                writeln!(out, "certificate written to {path}").map_err(|e| e.to_string())?;
            }
            // Resource-limit and resumed runs cannot account for the
            // whole split tree, so there is nothing sound to emit.
            None => {
                writeln!(out, "no certificate available").map_err(|e| e.to_string())?;
            }
        }
    }

    match run.verdict {
        Verdict::Verified => {
            writeln!(out, "verified").map_err(|e| e.to_string())?;
            Ok(ExitCode::Success)
        }
        Verdict::Refuted(cex) => {
            writeln!(out, "refuted: F = {:.6} at {:?}", cex.objective, cex.point)
                .map_err(|e| e.to_string())?;
            Ok(ExitCode::Refuted)
        }
        Verdict::ResourceLimit => {
            match run.limit {
                Some(kind) => writeln!(out, "resource limit reached ({kind})"),
                None => writeln!(out, "resource limit reached"),
            }
            .map_err(|e| e.to_string())?;
            if let Some(path) = args.get("checkpoint") {
                match &run.checkpoint {
                    Some(ckpt) => {
                        ckpt.save(Path::new(path)).map_err(|e| {
                            CliError::Data(format!("cannot write checkpoint {path}: {e}"))
                        })?;
                        writeln!(
                            out,
                            "checkpoint written to {path} ({} pending regions)",
                            ckpt.pending.len()
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    None => {
                        writeln!(out, "no checkpoint available").map_err(|e| e.to_string())?;
                    }
                }
            }
            Ok(ExitCode::ResourceLimit)
        }
    }
}

/// Independently re-checks a stored proof certificate against a network.
///
/// Replays every leaf of the split tree (or the refutation witness)
/// with outward-rounded interval arithmetic, so a pass means the
/// verdict holds even if the original search's floats misbehaved. A
/// certificate that fails to parse, checksum, or replay is *rejected*
/// (exit code 1) with the typed reason; only genuinely unreadable
/// files are data errors (65).
fn cmd_audit(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let net = load_network(args.require("network")?)?;
    let path = args.require("cert")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("cannot read certificate {path}: {e}")))?;
    let parsed = cert::Certificate::from_text(&text);
    let outcome = parsed
        .map_err(cert::AuditError::Cert)
        .and_then(|c| cert::audit(&c, &net, &cert::AuditOptions::default()));
    match outcome {
        Ok(report) => {
            let claim = if report.verified { "verified" } else { "refuted" };
            writeln!(
                out,
                "certificate ok: {claim} ({} leaves, {} splits, {} refined regions)",
                report.leaves, report.splits, report.refined_regions
            )
            .map_err(|e| e.to_string())?;
            Ok(ExitCode::Success)
        }
        Err(e) => {
            writeln!(out, "certificate rejected: {e}").map_err(|e| e.to_string())?;
            Ok(ExitCode::Refuted)
        }
    }
}

fn cmd_attack(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let net = load_network(args.require("network")?)?;
    let property = load_property(args.require("property")?)?;
    let restarts = args.get_u64("restarts", 8)? as usize;
    let seed = args.get_u64("seed", 0)?;
    let result = attack::Minimizer::new(seed)
        .with_restarts(restarts)
        .minimize(&net, property.region(), property.target());
    writeln!(
        out,
        "best objective F = {:.6} at {:?} ({} evaluations)",
        result.objective, result.point, result.evals
    )
    .map_err(|e| e.to_string())?;
    if result.objective <= 0.0 {
        writeln!(out, "counterexample found").map_err(|e| e.to_string())?;
        Ok(ExitCode::Refuted)
    } else {
        writeln!(out, "no counterexample found").map_err(|e| e.to_string())?;
        Ok(ExitCode::Success)
    }
}

fn cmd_train(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let seed = args.get_u64("seed", 0)?;
    let out_path = args.require("out")?;
    let (net, acc) = data::acas::build_network(seed);
    writeln!(out, "trained ACAS-like network (accuracy {acc:.2})").map_err(|e| e.to_string())?;
    let problems = data::acas::training_properties(&net, seed);
    let config = charon::train::TrainConfig {
        time_limit: Duration::from_millis(args.get_u64("time-limit-ms", 300)?),
        seed,
        ..charon::train::TrainConfig::default()
    };
    let outcome = charon::train::train_policy(&problems, &config);
    writeln!(
        out,
        "learned policy score {:.3}s (default {:.3}s, {} evaluations)",
        outcome.score, outcome.baseline_score, outcome.evaluations
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(out_path, outcome.policy.to_text())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(out, "policy written to {out_path}").map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

fn cmd_info(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let net = load_network(args.require("network")?)?;
    writeln!(out, "inputs:   {}", net.input_dim()).map_err(|e| e.to_string())?;
    writeln!(out, "outputs:  {}", net.output_dim()).map_err(|e| e.to_string())?;
    writeln!(out, "depth:    {} affine layers", net.depth()).map_err(|e| e.to_string())?;
    writeln!(out, "neurons:  {}", net.neuron_count()).map_err(|e| e.to_string())?;
    writeln!(out, "lipschitz <= {:.4}", net.lipschitz_bound()).map_err(|e| e.to_string())?;
    for (i, layer) in net.layers().iter().enumerate() {
        let desc = match layer {
            nn::Layer::Affine(a) => format!("affine {}x{}", a.output_dim(), a.input_dim()),
            nn::Layer::Relu => "relu".to_string(),
            nn::Layer::MaxPool(p) => format!("maxpool -> {}", p.output_dim()),
        };
        writeln!(out, "layer {i}: {desc}").map_err(|e| e.to_string())?;
    }
    Ok(ExitCode::Success)
}

/// Writes the paper's XOR network and Example 3.1 property to disk so
/// users can try the tool immediately.
fn cmd_example(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let net_path = args.require("out-network")?;
    let prop_path = args.require("out-property")?;
    let net = nn::samples::xor_network();
    nn::serialize::save(&net, Path::new(net_path))
        .map_err(|e| format!("cannot write {net_path}: {e}"))?;
    let property = RobustnessProperty::new(domains::Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    std::fs::write(prop_path, property.to_text())
        .map_err(|e| format!("cannot write {prop_path}: {e}"))?;
    writeln!(out, "wrote {net_path} and {prop_path}").map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Builds a zoo network, generates a brightening-attack property for one
/// of its evaluation images, and writes both to disk.
fn cmd_prop(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let zoo_name = args.require("zoo")?;
    let which = data::zoo::ZooNetwork::ALL
        .into_iter()
        .find(|n| n.name() == zoo_name)
        .ok_or_else(|| {
            let names: Vec<&str> = data::zoo::ZooNetwork::ALL
                .iter()
                .map(|n| n.name())
                .collect();
            format!("unknown zoo network {zoo_name:?}; choose one of {names:?}")
        })?;
    let image_idx = args.get_u64("image", 0)? as usize;
    let tau = args.get_f64("tau", 0.6)?;
    let net_path = args.require("out-network")?;
    let prop_path = args.require("out-property")?;

    let config = data::zoo::ZooConfig::default();
    let (net, acc) = data::zoo::build(which, &config);
    writeln!(out, "built {} (test accuracy {acc:.2})", which.name()).map_err(|e| e.to_string())?;
    let eval = which.dataset(image_idx + 1, 0xe4a1);
    let image = eval
        .images
        .get(image_idx)
        .ok_or_else(|| format!("image index {image_idx} out of range"))?;
    let property = RobustnessProperty::new(
        data::properties::brightening_region(image, tau),
        net.classify(image),
    );
    nn::serialize::save(&net, Path::new(net_path))
        .map_err(|e| format!("cannot write {net_path}: {e}"))?;
    std::fs::write(prop_path, property.to_text())
        .map_err(|e| format!("cannot write {prop_path}: {e}"))?;
    writeln!(
        out,
        "wrote {net_path} and {prop_path} (target class {}, {} free pixels)",
        property.target(),
        property
            .region()
            .widths()
            .iter()
            .filter(|w| **w > 0.0)
            .count()
    )
    .map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Certified-accuracy measurement over a zoo network's evaluation set.
fn cmd_certify(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let zoo_name = args.require("zoo")?;
    let which = data::zoo::ZooNetwork::ALL
        .into_iter()
        .find(|n| n.name() == zoo_name)
        .ok_or_else(|| format!("unknown zoo network {zoo_name:?}"))?;
    let eps = args.get_f64("eps", 0.02)?;
    let n_points = args.get_u64("points", 20)? as usize;
    let timeout = Duration::from_millis(args.get_u64("timeout-ms", 2000)?);

    let (net, acc) = data::zoo::build(which, &data::zoo::ZooConfig::default());
    writeln!(out, "network {} (test accuracy {acc:.2})", which.name())
        .map_err(|e| e.to_string())?;
    let eval = which.dataset(n_points, 0xce47);

    let config = charon::report::CertifyConfig {
        verifier: VerifierConfig {
            timeout,
            ..VerifierConfig::default()
        },
        ..charon::report::CertifyConfig::default()
    };
    let report = charon::report::certify(&net, &eval.images, &eval.labels, eps, &config);
    writeln!(
        out,
        "epsilon {eps}: certified {}/{} ({:.1}%), vulnerable {}, misclassified {}, undecided {} ({:?})",
        report.certified(),
        report.outcomes.len(),
        100.0 * report.certified_accuracy(),
        report.vulnerable(),
        report.misclassified(),
        report.undecided(),
        report.elapsed
    )
    .map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Validates a JSONL trace file (as written by `verify --trace-out`) and
/// prints per-event-kind counts plus an aggregate summary.
///
/// Any line that fails schema validation is a data error (exit 65) naming
/// the file and line number, which makes this the CI check that traces
/// stay parseable.
fn cmd_trace(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let path = args.require("in")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("cannot read {path}: {e}")))?;
    let mut summary = charon::telemetry::TraceSummary::new();
    let mut kinds: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = charon::TraceEvent::from_json(line)
            .map_err(|e| CliError::Data(format!("{path}:{}: {e}", idx + 1)))?;
        *kinds.entry(event.kind()).or_insert(0) += 1;
        summary.absorb(&event);
    }
    writeln!(out, "{}: {} events", path, summary.events).map_err(|e| e.to_string())?;
    for (kind, count) in &kinds {
        writeln!(out, "  {kind}: {count}").map_err(|e| e.to_string())?;
    }
    if summary.propagations > 0 {
        writeln!(
            out,
            "  propagation time: {:.6}s over {} calls",
            summary.propagation_seconds, summary.propagations
        )
        .map_err(|e| e.to_string())?;
    }
    if summary.attack_phases > 0 {
        writeln!(
            out,
            "  attack time: {:.6}s over {} phases (best objective {})",
            summary.attack_seconds, summary.attack_phases, summary.best_objective
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "  max depth: {}", summary.max_depth).map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Runs the verification daemon in the foreground. Returns once a
/// client drains it (`submit --drain`).
/// The journal path for a daemon: `--journal FILE` wins, `--no-journal`
/// disables, and a Unix-socket daemon otherwise defaults to durability
/// at `<socket>.wal`. TCP daemons have no filesystem anchor to derive a
/// default from, so they journal only on request.
fn journal_path(
    args: &Args,
    addr: &server::ServerAddr,
) -> Result<Option<std::path::PathBuf>, CliError> {
    if args.switch("no-journal") {
        if args.get("journal").is_some() {
            return Err(CliError::Usage(format!(
                "--journal and --no-journal are mutually exclusive\n{}",
                usage()
            )));
        }
        return Ok(None);
    }
    Ok(match (args.get("journal"), addr) {
        (Some(path), _) => Some(std::path::PathBuf::from(path)),
        (None, server::ServerAddr::Unix(sock)) => {
            let mut wal = sock.as_os_str().to_owned();
            wal.push(".wal");
            Some(std::path::PathBuf::from(wal))
        }
        (None, _) => None,
    })
}

/// Chaos-test fault schedule from the `--fault-*` flags, `None` when no
/// fault flag was passed (the production configuration).
fn fault_plan(args: &Args) -> Result<Option<Arc<server::ServerFaultPlan>>, CliError> {
    let mut builder = server::ServerFaultPlanBuilder::new();
    let mut any = false;
    if args.get("fault-kill-job").is_some() {
        builder = builder.kill_job(args.get_u64("fault-kill-job", 0).map_err(CliError::Usage)?);
        any = true;
    }
    if args.get("fault-worker-kill").is_some() {
        let ordinal = args.get_u64("fault-worker-kill", 0).map_err(CliError::Usage)? as usize;
        builder = builder.kill_worker_at_pop(ordinal);
        any = true;
    }
    if args.get("fault-node-kill").is_some() {
        let ordinal = args.get_u64("fault-node-kill", 0).map_err(CliError::Usage)? as usize;
        builder = builder.kill_node_at_dispatch(ordinal);
        any = true;
    }
    if args.get("fault-shard-drop").is_some() {
        let ordinal = args.get_u64("fault-shard-drop", 0).map_err(CliError::Usage)? as usize;
        builder = builder.drop_shard_result(ordinal);
        any = true;
    }
    if args.get("fault-shard-stall").is_some() {
        let ordinal = args.get_u64("fault-shard-stall", 0).map_err(CliError::Usage)? as usize;
        let millis = args
            .get_u64("fault-shard-stall-ms", 30_000)
            .map_err(CliError::Usage)?;
        builder = builder.stall_shard(ordinal, millis);
        any = true;
    }
    Ok(any.then(|| Arc::new(builder.build())))
}

fn cmd_serve(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    if args.switch("coordinator") {
        return cmd_serve_coordinator(args, out);
    }
    let addr = server::ServerAddr::parse(args.require("addr")?).map_err(CliError::Usage)?;
    let journal = journal_path(args, &addr)?;
    let journal_banner = match &journal {
        Some(path) => format!("journaling to {}", path.display()),
        None => "journal disabled (a crash loses queued jobs)".to_string(),
    };
    let defaults = server::ServerConfig::default();
    let config = server::ServerConfig {
        addr,
        workers: args.get_u64("workers", 2)? as usize,
        queue_capacity: args.get_u64("queue", 64)? as usize,
        cache_capacity: args.get_u64("cache", 256)? as usize,
        // Adaptive load shedding is opt-in: without --shed-target-ms
        // the only admission bound is the queue capacity.
        shed_target: match args.get("shed-target-ms") {
            Some(_) => Some(Duration::from_millis(args.get_u64("shed-target-ms", 0)?)),
            None => None,
        },
        shed_interval: Duration::from_millis(
            args.get_u64("shed-interval-ms", defaults.shed_interval.as_millis() as u64)?,
        ),
        reply_margin: Duration::from_millis(
            args.get_u64("reply-margin-ms", defaults.reply_margin.as_millis() as u64)?,
        ),
        journal,
        faults: fault_plan(args)?,
        ..defaults
    };
    let handle = server::Server::start(config)
        .map_err(|e| CliError::Unavailable(format!("cannot start daemon: {e}")))?;
    writeln!(out, "listening on {}", handle.addr()).map_err(|e| e.to_string())?;
    writeln!(out, "{journal_banner}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    handle.join();
    writeln!(out, "daemon drained, shutting down").map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Runs the cluster coordinator in the foreground: shards each accepted
/// job's input region across `--nodes` and merges the shard verdicts.
/// Returns once a client drains it.
fn cmd_serve_coordinator(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let addr = server::ServerAddr::parse(args.require("addr")?).map_err(CliError::Usage)?;
    let nodes = args
        .require("nodes")?
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| server::ServerAddr::parse(part.trim()).map_err(CliError::Usage))
        .collect::<Result<Vec<_>, _>>()?;
    if nodes.is_empty() {
        return Err(CliError::Usage(format!(
            "--nodes needs at least one node address\n{}",
            usage()
        )));
    }
    let journal = journal_path(args, &addr)?;
    let journal_banner = match &journal {
        Some(path) => format!("journaling to {}", path.display()),
        None => "journal disabled (a crash loses accepted jobs)".to_string(),
    };
    let config = server::CoordinatorConfig {
        addr,
        nodes,
        shards: args.get_u64("shards", 0)? as usize,
        connections_per_node: args.get_u64("conns-per-node", 2)? as usize,
        retry_budget: args.get_u64("retry-budget", 2)? as u32,
        node_grace: Duration::from_millis(args.get_u64("node-grace-ms", 10_000)?),
        breaker_threshold: args.get_u64("breaker-threshold", 3)? as u32,
        breaker_cooldown: Duration::from_millis(args.get_u64("breaker-cooldown-ms", 5_000)?),
        journal,
        faults: fault_plan(args)?,
    };
    let nodes_banner = config
        .nodes
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let handle = server::Coordinator::start(config)
        .map_err(|e| CliError::Unavailable(format!("cannot start coordinator: {e}")))?;
    writeln!(out, "coordinating on {}", handle.addr()).map_err(|e| e.to_string())?;
    writeln!(out, "nodes: {nodes_banner}").map_err(|e| e.to_string())?;
    writeln!(out, "{journal_banner}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    handle.join();
    writeln!(out, "coordinator drained, shutting down").map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Runs a shard-worker node in the foreground: a plain daemon tuned for
/// cluster duty. Shard requests are executed synchronously and are the
/// coordinator's responsibility to re-dispatch, so the node journals
/// only when `--journal FILE` is given explicitly.
fn cmd_node(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let addr = server::ServerAddr::parse(args.require("addr")?).map_err(CliError::Usage)?;
    let journal = args.get("journal").map(std::path::PathBuf::from);
    let defaults = server::ServerConfig::default();
    let config = server::ServerConfig {
        addr,
        workers: args.get_u64("workers", 2)? as usize,
        reply_margin: Duration::from_millis(
            args.get_u64("reply-margin-ms", defaults.reply_margin.as_millis() as u64)?,
        ),
        journal,
        faults: fault_plan(args)?,
        ..defaults
    };
    let handle = server::Server::start(config)
        .map_err(|e| CliError::Unavailable(format!("cannot start node: {e}")))?;
    writeln!(out, "node listening on {}", handle.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    handle.join();
    writeln!(out, "node drained, shutting down").map_err(|e| e.to_string())?;
    Ok(ExitCode::Success)
}

/// Any transport failure talking to the daemon is an availability
/// problem, not a data or engine problem.
fn io_unavailable(e: std::io::Error) -> CliError {
    CliError::Unavailable(format!("daemon connection failed: {e}"))
}

/// Connects once, without retry, for the control requests (`--ping`,
/// `--stats`, `--drain`, `--query`): they are status reads or explicit
/// shutdowns, so an unreachable daemon is itself the answer.
fn control_client(addr: &server::ServerAddr) -> Result<server::Client, CliError> {
    server::Client::connect(addr)
        .map_err(|e| CliError::Unavailable(format!("cannot connect to {addr}: {e}")))
}

/// One-shot client for a running daemon: submits a verify job over the
/// reliable path (idempotent id, retry with backoff), or sends the
/// matching control request for `--query` / `--stats` / `--drain` /
/// `--ping`.
fn cmd_submit(args: &Args, out: &mut impl std::io::Write) -> Result<ExitCode, CliError> {
    let addr = server::ServerAddr::parse(args.require("addr")?).map_err(CliError::Usage)?;

    if args.switch("ping") {
        let mut client = control_client(&addr)?;
        let reply = client
            .request("{\"request\": \"ping\"}")
            .map_err(io_unavailable)?;
        let protocol = reply.usize_field("protocol").map_err(CliError::Engine)?;
        writeln!(out, "pong (protocol {protocol})").map_err(|e| e.to_string())?;
        return Ok(ExitCode::Success);
    }

    if args.switch("stats") {
        let mut client = control_client(&addr)?;
        let reply = client
            .request("{\"request\": \"stats\"}")
            .map_err(io_unavailable)?;
        // Render every counter on its own `name: value` line so shell
        // scripts can grep a single field.
        for key in [
            "protocol",
            "workers",
            "queue_depth",
            "queue_capacity",
            "draining",
            "accepted",
            "completed",
            "checkpointed",
            "unstarted",
            "rejected_full",
            "rejected_draining",
            "errored",
            "shed",
            "deadline_expired",
            "breaker_open",
            "breaker_opens",
            "replayed",
            "requeued",
            "quarantined",
            "worker_deaths",
            "duplicates",
            "journal_errors",
            "journal_enabled",
            "journal_appends",
            "results_entries",
            "cache_entries",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "registry_models",
            "registry_hits",
            "registry_misses",
            "attack_calls",
            "propagation_calls",
            "policy_calls",
        ] {
            let value = reply.usize_field(key).map_err(CliError::Engine)?;
            writeln!(out, "{key}: {value}").map_err(|e| e.to_string())?;
        }
        let hit_rate = reply.f64_field("cache_hit_rate").map_err(CliError::Engine)?;
        writeln!(out, "cache_hit_rate: {hit_rate:.3}").map_err(|e| e.to_string())?;
        return Ok(ExitCode::Success);
    }

    if args.switch("drain") {
        let mut client = control_client(&addr)?;
        let reply = client
            .request("{\"request\": \"drain\"}")
            .map_err(io_unavailable)?;
        let lost = reply.f64_field("lost").map_err(CliError::Engine)? as i64;
        writeln!(
            out,
            "drained: accepted={} completed={} checkpointed={} unstarted={} lost={lost}",
            reply.usize_field("accepted").map_err(CliError::Engine)?,
            reply.usize_field("completed").map_err(CliError::Engine)?,
            reply.usize_field("checkpointed").map_err(CliError::Engine)?,
            reply.usize_field("unstarted").map_err(CliError::Engine)?,
        )
        .map_err(|e| e.to_string())?;
        return if lost == 0 {
            Ok(ExitCode::Success)
        } else {
            Err(CliError::Engine(format!("daemon lost {lost} job(s) during drain")))
        };
    }

    if args.get("query").is_some() {
        let id = args.get_u64("query", 0)?;
        let mut client = control_client(&addr)?;
        let reply = client
            .request(&server::VerifyRequest::query_line(id))
            .map_err(io_unavailable)?;
        return match reply.str_field("response").map_err(CliError::Engine)?.as_str() {
            "pending" => {
                writeln!(out, "job {id} is pending (queued or in flight)")
                    .map_err(|e| e.to_string())?;
                Ok(ExitCode::Success)
            }
            "unknown" => Err(CliError::Unavailable(format!(
                "job {id} is unknown to the daemon; resubmit it"
            ))),
            _ => render_terminal(&reply, args, out),
        };
    }

    let prop_path = args.require("property")?;
    let property = std::fs::read_to_string(prop_path)
        .map_err(|e| CliError::Data(format!("cannot read {prop_path}: {e}")))?;
    let request = server::VerifyRequest {
        // A fresh default id per invocation keeps the daemon's
        // idempotency window from conflating two unrelated submissions
        // that both omitted --id.
        id: match args.get("id") {
            Some(_) => args.get_u64("id", 0)?,
            None => unique_job_id(),
        },
        network: args.require("network")?.to_string(),
        property,
        priority: args.get_f64("priority", 0.0)? as i64,
        deadline_ms: match args.get("deadline-ms") {
            Some(_) => Some(args.get_u64("deadline-ms", 0)?),
            None => None,
        },
        timeout_ms: args.get_u64("timeout-ms", server::protocol::DEFAULT_TIMEOUT_MS)?,
        delta: args.get_f64("delta", 1e-9)?,
        max_regions: args.get_u64("max-regions", 200_000)? as usize,
        restarts: args.get_u64("restarts", 2)? as usize,
        seed: args.get_u64("seed", 0)?,
        cex_search: !args.switch("no-cex"),
        cert: args.get("cert-out").is_some(),
        ack: true,
    };
    let policy = server::RetryPolicy {
        max_attempts: (args.get_u64("retries", 3)? as u32).saturating_add(1),
        ..server::RetryPolicy::default()
    };
    let reply = server::submit_reliable(&addr, &request, &policy).map_err(|e| match e {
        server::ClientError::Io(err) => io_unavailable(err),
        server::ClientError::Protocol(msg) => {
            CliError::Engine(format!("daemon protocol error: {msg}"))
        }
        exhausted @ server::ClientError::RetriesExhausted { .. } => {
            CliError::Unavailable(exhausted.to_string())
        }
    })?;
    render_terminal(&reply, args, out)
}

/// A practically-unique default job id: epoch nanoseconds mixed with the
/// process id, so concurrent clients that both omit `--id` do not
/// collide in the daemon's idempotency window. Ids travel as JSON
/// numbers (`f64` on the wire), so the value is masked into the 53-bit
/// range that round-trips exactly.
fn unique_job_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    ((nanos ^ (u64::from(std::process::id()) << 40)) & ((1 << 53) - 1)) | 1
}

/// Writes the `cert` field of a decisive daemon verdict to the path the
/// user gave with `--cert-out`. A daemon that computed the verdict
/// without certification (a pre-v4 daemon, a cache hit on an
/// uncertified entry, or a resource-limited shard merge) omits the
/// field; that is reported, not an error — the verdict itself stands.
fn write_submitted_cert(
    reply: &charon::json::Fields,
    args: &Args,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let Some(path) = args.get("cert-out") else {
        return Ok(());
    };
    match reply.opt_str("cert").map_err(CliError::Engine)? {
        Some(text) => {
            std::fs::write(path, text)
                .map_err(|e| CliError::Data(format!("cannot write certificate {path}: {e}")))?;
            writeln!(out, "certificate written to {path}").map_err(|e| e.to_string())?;
        }
        None => {
            writeln!(out, "no certificate available").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Renders a terminal daemon response (`verdict`, `checkpointed`,
/// `unstarted`, or a non-retryable `error`) and maps it to an exit code.
fn render_terminal(
    reply: &charon::json::Fields,
    args: &Args,
    out: &mut impl std::io::Write,
) -> Result<ExitCode, CliError> {
    match reply.str_field("response").map_err(CliError::Engine)?.as_str() {
        "verdict" => {
            let cached = reply.opt_usize("cached").map_err(CliError::Engine)?.unwrap_or(0);
            let provenance = if cached != 0 { " (cached)" } else { "" };
            match reply.str_field("verdict").map_err(CliError::Engine)?.as_str() {
                "verified" => {
                    writeln!(out, "verified{provenance}").map_err(|e| e.to_string())?;
                    write_submitted_cert(reply, args, out)?;
                    Ok(ExitCode::Success)
                }
                "refuted" => {
                    let objective = reply.opt_f64("objective").map_err(CliError::Engine)?;
                    let point = reply
                        .opt("counterexample")
                        .map(|_| reply.arr_field("counterexample"))
                        .transpose()
                        .map_err(CliError::Engine)?;
                    match (objective, point) {
                        (Some(objective), Some(point)) => writeln!(
                            out,
                            "refuted{provenance}: F = {objective:.6} at {point:?}"
                        ),
                        _ => writeln!(out, "refuted{provenance}"),
                    }
                    .map_err(|e| e.to_string())?;
                    write_submitted_cert(reply, args, out)?;
                    Ok(ExitCode::Refuted)
                }
                "resource_limit" => {
                    match reply.opt_str("limit").map_err(CliError::Engine)? {
                        Some(kind) => writeln!(out, "resource limit reached ({kind})"),
                        None => writeln!(out, "resource limit reached"),
                    }
                    .map_err(|e| e.to_string())?;
                    Ok(ExitCode::ResourceLimit)
                }
                "poisoned" => {
                    let attempts = reply
                        .opt_usize("attempts")
                        .map_err(CliError::Engine)?
                        .unwrap_or(0);
                    let diagnostic = reply
                        .opt_str("diagnostic")
                        .map_err(CliError::Engine)?
                        .unwrap_or_default();
                    writeln!(
                        out,
                        "poisoned: job quarantined after killing {attempts} worker(s): {diagnostic}"
                    )
                    .map_err(|e| e.to_string())?;
                    Ok(ExitCode::EngineError)
                }
                other => Err(CliError::Engine(format!("unknown verdict {other:?}"))),
            }
        }
        "checkpointed" => {
            let regions = reply.usize_field("regions_done").map_err(CliError::Engine)?;
            writeln!(
                out,
                "daemon drained mid-run after {regions} regions; job is resumable"
            )
            .map_err(|e| e.to_string())?;
            if let Some(path) = args.get("checkpoint") {
                let text = reply.str_field("checkpoint").map_err(CliError::Engine)?;
                std::fs::write(path, text)
                    .map_err(|e| CliError::Data(format!("cannot write checkpoint {path}: {e}")))?;
                writeln!(out, "checkpoint written to {path}").map_err(|e| e.to_string())?;
            }
            Ok(ExitCode::ResourceLimit)
        }
        "unstarted" => {
            writeln!(out, "daemon drained before the job started; resubmit it elsewhere")
                .map_err(|e| e.to_string())?;
            Ok(ExitCode::Unavailable)
        }
        // Normally absorbed by submit_reliable's retry loop; reaching
        // here means every retry was refused (or the deadline ran out).
        "busy" => {
            let hint = reply
                .opt_usize("retry_after_ms")
                .map_err(CliError::Engine)?
                .unwrap_or(0);
            Err(CliError::Unavailable(format!(
                "server is shedding load; retry in {hint} ms"
            )))
        }
        "error" => {
            let code = reply.str_field("error").map_err(CliError::Engine)?;
            let message = reply
                .opt_str("message")
                .map_err(CliError::Engine)?
                .unwrap_or_default();
            let rendered = format!("{code}: {message}");
            match code.as_str() {
                "queue_full" | "draining" | "journal_error" => {
                    Err(CliError::Unavailable(rendered))
                }
                "bad_request" | "model_error" | "deadline_expired" => {
                    Err(CliError::Data(rendered))
                }
                _ => Err(CliError::Engine(rendered)),
            }
        }
        other => Err(CliError::Engine(format!("unknown response kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn run_capture(parts: &[&str]) -> (ExitCode, String) {
        let mut buf = Vec::new();
        let code = run(&argv(parts), &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "charon-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn usage_error_on_unknown_command() {
        let (code, output) = run_capture(&["frobnicate"]);
        assert_eq!(code, ExitCode::UsageError);
        assert!(output.contains("unknown command"));
    }

    #[test]
    fn usage_error_on_missing_flag_value() {
        let (code, output) = run_capture(&["verify", "--network"]);
        assert_eq!(code, ExitCode::UsageError);
        assert!(output.contains("needs a value"));
    }

    #[test]
    fn example_then_verify_roundtrip() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("robust.prop");
        let (code, _) = run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success);

        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("verified"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn verify_refutes_wide_property() {
        let dir = temp_dir();
        let net_path = dir.join("xor.net");
        let prop_path = dir.join("wide.prop");
        nn::serialize::save(&nn::samples::xor_network(), &net_path).unwrap();
        let property =
            RobustnessProperty::new(domains::Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        std::fs::write(&prop_path, property.to_text()).unwrap();

        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net_path.to_str().unwrap(),
            "--property",
            prop_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Refuted, "output: {output}");
        assert!(output.contains("refuted"));

        // The attack subcommand finds the same violation.
        let (code, output) = run_capture(&[
            "attack",
            "--network",
            net_path.to_str().unwrap(),
            "--property",
            prop_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Refuted, "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn info_describes_network() {
        let dir = temp_dir();
        let net_path = dir.join("xor.net");
        nn::serialize::save(&nn::samples::xor_network(), &net_path).unwrap();
        let (code, output) = run_capture(&["info", "--network", net_path.to_str().unwrap()]);
        assert_eq!(code, ExitCode::Success);
        assert!(output.contains("inputs:   2"));
        assert!(output.contains("affine 2x2"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn parallel_flag_accepted() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, _) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--parallel",
            "3",
        ]);
        assert_eq!(code, ExitCode::Success);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prop_subcommand_generates_verifiable_files() {
        let dir = temp_dir();
        let net = dir.join("zoo.net");
        let prop = dir.join("zoo.prop");
        let (code, output) = run_capture(&[
            "prop",
            "--zoo",
            "mnist-3x32",
            "--image",
            "1",
            "--tau",
            "0.9",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        // The generated pair loads and verifies/refutes without error.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--timeout-ms",
            "5000",
        ]);
        assert_ne!(code, ExitCode::UsageError, "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prop_rejects_unknown_zoo() {
        let (code, output) = run_capture(&[
            "prop",
            "--zoo",
            "bogus",
            "--out-network",
            "/tmp/x",
            "--out-property",
            "/tmp/y",
        ]);
        assert_eq!(code, ExitCode::UsageError);
        assert!(output.contains("unknown zoo network"));
    }

    #[test]
    fn stats_switch_prints_counters() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--stats",
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("stats: regions="), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn report_switch_prints_phase_breakdown() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--report",
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("run report: verified"), "output: {output}");
        assert!(output.contains("regions/s"), "output: {output}");
        assert!(output.contains("propagation"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_out_then_trace_in_roundtrips() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let trace = dir.join("run.jsonl");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("trace written to"), "output: {output}");

        // Every line the verifier wrote must round-trip through the
        // schema validator, and the stream must contain a verdict.
        let (code, output) = run_capture(&["trace", "--in", trace.to_str().unwrap()]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("verdict: 1"), "output: {output}");
        assert!(output.contains("region_popped"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_trace_file_is_a_data_error() {
        let dir = temp_dir();
        let trace = dir.join("bad.jsonl");
        std::fs::write(&trace, "{\"event\":\"region_popped\",\"ordinal\":0,\"depth\":0}\nnot json\n")
            .unwrap();
        let (code, output) = run_capture(&["trace", "--in", trace.to_str().unwrap()]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        // The diagnostic names the offending line.
        assert!(output.contains(":2:"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn certify_subcommand_reports_accuracy() {
        let (code, output) = run_capture(&[
            "certify",
            "--zoo",
            "mnist-3x32",
            "--eps",
            "0.01",
            "--points",
            "5",
            "--timeout-ms",
            "3000",
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("certified"), "output: {output}");
    }

    #[test]
    fn help_switch() {
        let (code, output) = run_capture(&["verify", "--help"]);
        assert_eq!(code, ExitCode::Success);
        assert!(output.contains("usage"));
    }

    #[test]
    fn missing_network_file_is_a_data_error() {
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            "/nonexistent/net.txt",
            "--property",
            "/nonexistent/p.prop",
        ]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        // One-line diagnostic naming the failure.
        assert!(output.starts_with("error: cannot load network:"), "output: {output}");
        assert_eq!(output.lines().count(), 1, "output: {output}");
    }

    #[test]
    fn malformed_network_file_is_a_data_error() {
        let dir = temp_dir();
        let net_path = dir.join("broken.net");
        std::fs::write(&net_path, "charon-net 1\ninput 2\naffine 2 2\n1 0\n").unwrap();
        let (code, output) = run_capture(&[
            "info",
            "--network",
            net_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        assert!(output.contains("cannot load network"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn nan_weights_are_a_data_error_not_an_engine_crash() {
        // The file parses (NaN is a valid float token) but the verifier's
        // problem validation must reject it as a malformed model.
        let dir = temp_dir();
        let net_path = dir.join("nan.net");
        let prop_path = dir.join("p.prop");
        std::fs::write(
            &net_path,
            "charon-net 1\ninput 2\naffine 2 2\nNaN 1\n1 0\n0 0\nend\n",
        )
        .unwrap();
        let property =
            RobustnessProperty::new(domains::Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        std::fs::write(&prop_path, property.to_text()).unwrap();
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net_path.to_str().unwrap(),
            "--property",
            prop_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        assert!(output.contains("non-finite"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_then_resume_reaches_a_verdict() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let ckpt = dir.join("run.ckpt");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);

        // A zero timeout trips the budget check before the first region,
        // so the whole worklist lands in the checkpoint.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--timeout-ms",
            "0",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::ResourceLimit, "output: {output}");
        assert!(output.contains("resource limit reached (timeout)"), "output: {output}");
        assert!(output.contains("checkpoint written"), "output: {output}");
        assert!(ckpt.exists());

        // Resuming with a sane budget finishes the proof.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("verified"), "output: {output}");

        // The parallel engine accepts the same checkpoint.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
            "--parallel",
            "2",
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cert_emission_and_audit_round_trip_for_both_verdicts() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let cert_path = dir.join("proof.cert");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);

        // Verified: emit a certificate and let the auditor confirm it.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--cert-out",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("certificate written to"), "output: {output}");
        let (code, output) = run_capture(&[
            "audit",
            "--network",
            net.to_str().unwrap(),
            "--cert",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("certificate ok: verified"), "output: {output}");

        // Refuted: the unit square contains inputs classified 0, so the
        // certificate carries a witness instead of a split tree.
        let refuted_prop = dir.join("wide.prop");
        let property =
            RobustnessProperty::new(domains::Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        std::fs::write(&refuted_prop, property.to_text()).unwrap();
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            refuted_prop.to_str().unwrap(),
            "--cert-out",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Refuted, "output: {output}");
        assert!(output.contains("certificate written to"), "output: {output}");
        let (code, output) = run_capture(&[
            "audit",
            "--network",
            net.to_str().unwrap(),
            "--cert",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("certificate ok: refuted"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn audit_rejects_a_corrupted_certificate() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let cert_path = dir.join("proof.cert");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--cert-out",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");

        // Flip one byte in the body; the checksum must catch it and the
        // audit must exit nonzero with the typed rejection.
        let mut bytes = std::fs::read(&cert_path).unwrap();
        let pos = bytes
            .iter()
            .position(|b| b.is_ascii_digit() && *b != b'0')
            .expect("certificate has a nonzero digit");
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        std::fs::write(&cert_path, &bytes).unwrap();
        let (code, output) = run_capture(&[
            "audit",
            "--network",
            net.to_str().unwrap(),
            "--cert",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Refuted, "output: {output}");
        assert!(output.contains("certificate rejected"), "output: {output}");

        // A missing certificate file is a data error, not a rejection.
        let (code, output) = run_capture(&[
            "audit",
            "--network",
            net.to_str().unwrap(),
            "--cert",
            dir.join("nope.cert").to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn limited_run_with_cert_out_reports_no_certificate() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let cert_path = dir.join("proof.cert");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
            "--timeout-ms",
            "0",
            "--cert-out",
            cert_path.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::ResourceLimit, "output: {output}");
        assert!(output.contains("no certificate available"), "output: {output}");
        assert!(!cert_path.exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_and_property_are_mutually_exclusive() {
        // Silently ignoring the property file would let a user resume
        // against the wrong checkpoint without any warning.
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            "/nonexistent/net.txt",
            "--property",
            "/nonexistent/p.prop",
            "--resume",
            "/nonexistent/run.ckpt",
        ]);
        assert_eq!(code, ExitCode::UsageError, "output: {output}");
        assert!(output.contains("mutually exclusive"), "output: {output}");
    }

    #[test]
    fn malformed_checkpoint_is_a_data_error() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        let ckpt = dir.join("bad.ckpt");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);
        std::fs::write(&ckpt, "not a checkpoint\n").unwrap();
        let (code, output) = run_capture(&[
            "verify",
            "--network",
            net.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::DataError, "output: {output}");
        assert!(output.contains("cannot load checkpoint"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let codes = [
            ExitCode::Success,
            ExitCode::Refuted,
            ExitCode::ResourceLimit,
            ExitCode::UsageError,
            ExitCode::DataError,
            ExitCode::Unavailable,
            ExitCode::EngineError,
        ];
        assert_eq!(
            codes.map(ExitCode::code),
            [0, 1, 2, 64, 65, 69, 70],
            "exit codes are a published interface"
        );
    }

    #[test]
    fn unique_job_ids_round_trip_as_json_numbers() {
        let a = unique_job_id();
        std::thread::sleep(std::time::Duration::from_micros(10));
        let b = unique_job_id();
        for id in [a, b] {
            assert!(id > 0, "id must be nonzero");
            assert!(id < (1 << 53), "id must be f64-exact, got {id}");
            assert_eq!(id as f64 as u64, id, "id must survive the wire format");
        }
        assert_ne!(a, b, "successive invocations must not collide");
    }

    #[test]
    fn serve_rejects_contradictory_journal_flags() {
        let (code, output) = run_capture(&[
            "serve",
            "--addr",
            "/tmp/never-bound.sock",
            "--journal",
            "/tmp/never-written.wal",
            "--no-journal",
        ]);
        assert_eq!(code, ExitCode::UsageError, "output: {output}");
        assert!(output.contains("mutually exclusive"), "output: {output}");
    }

    #[test]
    fn submit_to_missing_daemon_is_unavailable() {
        let dir = temp_dir();
        let sock = dir.join("nobody-home.sock");
        let (code, output) = run_capture(&[
            "submit",
            "--addr",
            sock.to_str().unwrap(),
            "--ping",
        ]);
        assert_eq!(code, ExitCode::Unavailable, "output: {output}");
        assert!(output.contains("cannot connect"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn submit_rejects_bad_address_scheme() {
        let (code, output) = run_capture(&["submit", "--addr", "ftp:example.com:21", "--ping"]);
        assert_eq!(code, ExitCode::UsageError, "output: {output}");
    }

    #[test]
    fn serve_then_submit_full_lifecycle() {
        let dir = temp_dir();
        let sock = dir.join("daemon.sock");
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);

        // The daemon runs in the foreground until drained, so host it on
        // a helper thread and drive it with `submit` from this one.
        let sock_str = sock.to_str().unwrap().to_string();
        let daemon = std::thread::spawn({
            let sock_str = sock_str.clone();
            move || run_capture(&["serve", "--addr", &sock_str, "--workers", "1"])
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() {
            assert!(std::time::Instant::now() < deadline, "daemon never bound");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // First submission computes, the duplicate must be served from
        // the result cache.
        for expect_cached in [false, true] {
            let (code, output) = run_capture(&[
                "submit",
                "--addr",
                &sock_str,
                "--network",
                net.to_str().unwrap(),
                "--property",
                prop.to_str().unwrap(),
            ]);
            assert_eq!(code, ExitCode::Success, "output: {output}");
            assert_eq!(
                output.contains("(cached)"),
                expect_cached,
                "output: {output}"
            );
        }

        let (code, output) = run_capture(&["submit", "--addr", &sock_str, "--stats"]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("cache_hits: 1"), "output: {output}");
        assert!(output.contains("completed: 2"), "output: {output}");

        let (code, output) = run_capture(&["submit", "--addr", &sock_str, "--drain"]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("lost=0"), "output: {output}");

        let (code, output) = daemon.join().unwrap();
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("listening on"), "output: {output}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn coordinator_with_two_nodes_full_lifecycle() {
        let dir = temp_dir();
        let net = dir.join("xor.net");
        let prop = dir.join("p.prop");
        run_capture(&[
            "example",
            "--out-network",
            net.to_str().unwrap(),
            "--out-property",
            prop.to_str().unwrap(),
        ]);

        // Two shard-worker nodes plus the coordinator, each in the
        // foreground on its own thread.
        let node_socks: Vec<String> = (0..2)
            .map(|i| dir.join(format!("node{i}.sock")).to_str().unwrap().to_string())
            .collect();
        let nodes: Vec<_> = node_socks
            .iter()
            .map(|sock| {
                let sock = sock.clone();
                std::thread::spawn(move || {
                    run_capture(&["node", "--addr", &sock, "--workers", "1"])
                })
            })
            .collect();
        let coord_sock = dir.join("coord.sock").to_str().unwrap().to_string();
        let coordinator = std::thread::spawn({
            let coord_sock = coord_sock.clone();
            let nodes = node_socks.join(",");
            move || {
                run_capture(&[
                    "serve",
                    "--addr",
                    &coord_sock,
                    "--coordinator",
                    "--nodes",
                    &nodes,
                    "--shards",
                    "4",
                ])
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !std::path::Path::new(&coord_sock).exists() {
            assert!(std::time::Instant::now() < deadline, "coordinator never bound");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let (code, output) = run_capture(&[
            "submit",
            "--addr",
            &coord_sock,
            "--network",
            net.to_str().unwrap(),
            "--property",
            prop.to_str().unwrap(),
        ]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("verified"), "output: {output}");

        let (code, output) = run_capture(&["submit", "--addr", &coord_sock, "--stats"]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("completed: 1"), "output: {output}");

        let (code, output) = run_capture(&["submit", "--addr", &coord_sock, "--drain"]);
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("lost=0"), "output: {output}");
        let (code, output) = coordinator.join().unwrap();
        assert_eq!(code, ExitCode::Success, "output: {output}");
        assert!(output.contains("coordinating on"), "output: {output}");

        for (node, sock) in nodes.into_iter().zip(&node_socks) {
            let (code, output) = run_capture(&["submit", "--addr", sock, "--drain"]);
            assert_eq!(code, ExitCode::Success, "output: {output}");
            let (code, output) = node.join().unwrap();
            assert_eq!(code, ExitCode::Success, "output: {output}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
