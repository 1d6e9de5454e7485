//! Verification-as-a-service: a crash-only, persistent job-queue daemon
//! serving robustness queries over a Unix or TCP socket.
//!
//! A running verification farm amortizes everything a one-shot CLI run
//! pays per query: model deserialization (the [`registry`] shares each
//! network by content hash), scratch-arena allocation (each worker
//! thread reuses one [`domains::Workspace`] across jobs via
//! [`charon::Verifier::try_verify_run_ws`]), and the verification itself
//! (the [`cache`] memoizes decisive verdicts keyed by network hash +
//! property + configuration). The protocol is newline-delimited flat
//! JSON ([`protocol`]), reusing the workspace codec in [`charon::json`].
//!
//! # Lifecycle guarantees
//!
//! * **Admission control** — a full [`queue::JobQueue`] answers `busy`
//!   (with a `retry_after_ms` hint derived from the queue drain rate)
//!   immediately; the daemon never buffers unbounded work. With a shed
//!   target configured, a CoDel-style sojourn controller
//!   ([`overload::SojournController`]) additionally sheds new
//!   low-priority work whenever queue latency has exceeded the target
//!   for a full control interval, holding the latency of admitted jobs
//!   near the target instead of letting it grow to the full queue
//!   depth.
//! * **Deadline propagation** — a `deadline_ms` on the request travels
//!   with the job: expired jobs are answered `deadline_expired` at
//!   dequeue without starting the verifier, and live jobs clamp the
//!   verifier budget to the remaining deadline minus
//!   [`ServerConfig::reply_margin`] ([`charon::deadline`]), so the
//!   anytime degradation ladder absorbs deadline pressure instead of a
//!   hard kill.
//! * **Crash-only durability** — with a [`journal::Journal`] configured,
//!   every accepted job is fsync'd to a CRC-framed write-ahead log
//!   *before* its acceptance is acknowledged, and every state transition
//!   (started, checkpointed, completed) is appended as it happens. After
//!   any process death — including `SIGKILL` — restarting on the same
//!   journal re-enqueues unstarted jobs, resumes checkpointed ones via
//!   the `charon-ckpt` path, retains recent terminal results for
//!   idempotent `query` re-delivery, and compacts the log.
//! * **Worker supervision** — each worker thread runs under a
//!   supervisor that detects its death, re-queues the orphaned job with
//!   a bounded retry budget, and respawns the worker with a fresh
//!   scratch arena. A job that kills workers [`ServerConfig::retry_budget`]
//!   times is quarantined as a typed `poisoned` verdict carrying the
//!   panic diagnostic instead of crash-looping the fleet.
//! * **Graceful drain** — a `drain` request stops admission, reports
//!   every still-queued job back to its submitter as `unstarted`,
//!   cancels in-flight jobs cooperatively so they return `charon-ckpt`
//!   checkpoints, and only then shuts down. The drain summary proves
//!   the accounting: `accepted == completed + checkpointed + unstarted`.
//! * **Observability** — `stats` reports queue depth, cache hit rate,
//!   registry sharing, recovery counters, and per-phase latency
//!   histograms merged across all workers (the same
//!   [`charon::telemetry::Metrics`] the CLI's `--report` renders).
//!
//! ```no_run
//! use server::{Client, Server, ServerAddr, ServerConfig};
//!
//! let config = ServerConfig {
//!     addr: ServerAddr::parse("unix:/tmp/charon.sock").unwrap(),
//!     journal: Some("/tmp/charon.wal".into()),
//!     ..ServerConfig::default()
//! };
//! let handle = Server::start(config).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let pong = client.request("{\"request\": \"ping\"}").unwrap();
//! assert_eq!(pong.str_field("response").unwrap(), "pong");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod faults;
mod front;
pub mod journal;
pub mod net;
pub mod overload;
pub mod protocol;
pub mod queue;
pub mod registry;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use client::{connect_retry, submit_reliable, Client, ClientError, RetryPolicy};
pub use cluster::{Coordinator, CoordinatorConfig, CoordinatorHandle, MergeState};
pub use faults::{ServerFaultPlan, ServerFaultPlanBuilder};
pub use front::RESULTS_CAPACITY;
pub use net::{ServerAddr, Stream};
pub use overload::{BreakerState, CircuitBreaker, SojournController};
pub use protocol::{Request, ShardRequest, ShardResult, VerifyRequest, PROTOCOL_VERSION};
pub use queue::{JobQueue, RejectReason};
pub use registry::ModelRegistry;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use charon::json::ObjectBuilder;
use charon::telemetry::{Histogram, Metrics};
use charon::{
    BudgetKind, Checkpoint, RobustnessProperty, Verdict, Verifier, VerifierConfig, VerifyError,
    VerifyRun,
};
use domains::Workspace;
use nn::Network;

use front::{Front, Reply, Tally, Tier};
use journal::{Record, RecoveredJob};
use net::Listener;
use protocol::{
    checkpointed_response, error_response, poisoned_response, unstarted_response, verdict_response,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub addr: ServerAddr,
    /// Worker threads driving verifications (each owns one reused
    /// scratch arena and runs under a supervisor).
    pub workers: usize,
    /// Maximum queued (admitted but not started) jobs.
    pub queue_capacity: usize,
    /// Maximum memoized verdicts in the LRU result cache.
    pub cache_capacity: usize,
    /// Write-ahead journal path. `None` (the default) disables
    /// durability: a crash loses queued and in-flight jobs, exactly the
    /// pre-journal behavior.
    pub journal: Option<PathBuf>,
    /// Worker deaths a single job may cause before it is quarantined
    /// with a `poisoned` verdict (journal-replayed `started` records
    /// count toward the same budget).
    pub retry_budget: u32,
    /// Per-connection read timeout. When it fires on a connection with
    /// no queued or in-flight jobs, the connection is closed; otherwise
    /// the daemon keeps waiting for the next request.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout, so one stalled client cannot wedge
    /// a worker mid-response.
    pub write_timeout: Option<Duration>,
    /// Queue-sojourn target for the CoDel-style shed controller. When
    /// dequeues observe sojourn above this for a full
    /// [`ServerConfig::shed_interval`], new low-priority submissions
    /// are answered `busy` until latency is back under the target.
    /// `None` (the default) disables shedding; the bounded queue alone
    /// provides backpressure.
    pub shed_target: Option<Duration>,
    /// How long queue sojourn must stay above the target before the
    /// controller starts shedding (hysteresis against transient
    /// bursts).
    pub shed_interval: Duration,
    /// Wall-clock reserve subtracted from a job's remaining deadline
    /// before it becomes verifier budget, covering result
    /// serialization and the reply write. A job whose remaining
    /// deadline is within the margin is answered `deadline_expired`
    /// without starting.
    pub reply_margin: Duration,
    /// Deterministic service-level fault injection (tests only).
    pub faults: Option<Arc<ServerFaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: ServerAddr::Unix(std::env::temp_dir().join("charon-server.sock")),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            journal: None,
            retry_budget: 2,
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(10)),
            shed_target: None,
            shed_interval: Duration::from_millis(100),
            reply_margin: Duration::from_millis(50),
            faults: None,
        }
    }
}

/// One admitted verification job.
#[derive(Clone)]
struct Job {
    id: u64,
    request: VerifyRequest,
    accepted_at: Instant,
    cancel: Arc<AtomicBool>,
    reply: Reply,
    /// Execution attempts begun, across process lives.
    attempts: u32,
    /// Worker deaths attributed to this job (quarantine at
    /// `retry_budget`).
    kills: u32,
    /// Resume point recovered from the journal, if any.
    checkpoint: Option<String>,
}

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    checkpointed: AtomicU64,
    unstarted: AtomicU64,
    rejected_full: AtomicU64,
    shed: AtomicU64,
    errored: AtomicU64,
    deadline_expired: AtomicU64,
    /// Wall-clock nanoseconds workers spent executing jobs, paired with
    /// `serviced` to expose the average service time the
    /// `retry_after_ms` estimator divides by.
    service_ns: AtomicU64,
    serviced: AtomicU64,
    requeued: AtomicU64,
    quarantined: AtomicU64,
    worker_deaths: AtomicU64,
    shards_executed: AtomicU64,
    shards_refuted: AtomicU64,
    shards_limited: AtomicU64,
}

/// Why a node did not run a job or shard to a verdict.
enum Refusal {
    /// The deadline left no verification budget after the reply margin.
    Expired,
    /// A typed failure: the `error` code and its message.
    Failed(&'static str, String),
}

/// A verification ready to run: the shared model, the parsed property
/// and the verifier configuration with the clamped budget.
struct Prepared {
    net_hash: u64,
    net: Arc<Network>,
    property: RobustnessProperty,
    config: VerifierConfig,
}

impl Prepared {
    /// Runs the verification (resuming `checkpoint` when given),
    /// mapping an engine error to its `error` code.
    fn run(self, checkpoint: Option<&str>, ws: &mut Workspace) -> Result<VerifyRun, Refusal> {
        let mut verifier = Verifier::default();
        *verifier.config_mut() = self.config;
        let run = match checkpoint {
            Some(text) => Checkpoint::from_text(text)
                .and_then(|checkpoint| verifier.resume_ws(&self.net, &checkpoint, ws)),
            None => verifier.try_verify_run_ws(&self.net, &self.property, ws),
        };
        run.map_err(|error| {
            let code = match &error {
                VerifyError::MalformedModel { .. } => "model_error",
                _ => "engine_error",
            };
            Refusal::Failed(code, error.to_string())
        })
    }
}

/// The daemon tier: a bounded priority queue drained by supervised
/// workers, a verdict cache, the model registry and the shed
/// controller. It is also the shard executor of a cluster node.
struct Shared {
    front: Front,
    registry: ModelRegistry,
    queue: JobQueue<Job>,
    cache: Mutex<ResultCache>,
    metrics: Mutex<Metrics>,
    job_hist: Mutex<Histogram>,
    counters: Counters,
    /// Cancellation flags of jobs currently being verified.
    inflight: Mutex<Vec<(u64, Arc<AtomicBool>)>>,
    workers: usize,
    retry_budget: u32,
    /// Sojourn-time shed controller (admission + dequeue feed it);
    /// absent when no shed target is configured.
    shed: Option<SojournController>,
    /// Reply-delivery reserve subtracted from remaining deadlines.
    reply_margin: Duration,
}

impl Shared {
    fn new(config: &ServerConfig, front: Front) -> Self {
        Shared {
            front,
            registry: ModelRegistry::new(),
            queue: JobQueue::new(config.queue_capacity),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: Mutex::new(Metrics::new()),
            job_hist: Mutex::new(Histogram::new()),
            counters: Counters::default(),
            inflight: Mutex::new(Vec::new()),
            workers: config.workers,
            retry_budget: config.retry_budget.max(1),
            shed: config
                .shed_target
                .map(|target| SojournController::new(target, config.shed_interval)),
            reply_margin: config.reply_margin,
        }
    }

    /// Observed mean service time (a moderate default until the first
    /// job completes).
    fn avg_service(&self) -> Duration {
        let serviced = self.counters.serviced.load(Ordering::Relaxed);
        match self
            .counters
            .service_ns
            .load(Ordering::Relaxed)
            .checked_div(serviced)
        {
            Some(mean_ns) => Duration::from_nanos(mean_ns),
            // Cold estimator: assume a moderate job until we've seen one.
            None => Duration::from_millis(100),
        }
    }

    /// Estimated queue sojourn a new arrival would face right now, from
    /// the queue depth and drain rate (unclamped, unlike the retry
    /// hint).
    fn queue_delay_estimate(&self) -> Duration {
        self.avg_service()
            .mul_f64(self.queue.len() as f64 / self.workers.max(1) as f64)
    }

    /// How long a refused client should wait before retrying, from the
    /// observed queue depth and average service time.
    fn retry_hint_ms(&self) -> u64 {
        overload::retry_after_ms(self.queue.len(), self.workers, self.avg_service())
    }

    /// The verification budget `request` has left: its `timeout_ms`,
    /// clamped to the remaining deadline (counted from `since`) minus
    /// the reply margin; `None` once the deadline leaves nothing.
    fn budget(&self, request: &VerifyRequest, since: Instant) -> Option<Duration> {
        let budget = Duration::from_millis(request.timeout_ms);
        match request.deadline_ms {
            Some(deadline_ms) => charon::deadline::clamp_budget(
                budget,
                charon::deadline::remaining_ms(deadline_ms, since.elapsed()),
                self.reply_margin,
            ),
            None => Some(budget),
        }
    }

    /// Everything a job and a shard share before the verifier runs:
    /// the budget clamp, the model load, the property parse and the
    /// verifier configuration.
    fn prepare(
        &self,
        request: &VerifyRequest,
        since: Instant,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<Prepared, Refusal> {
        let timeout = self.budget(request, since).ok_or(Refusal::Expired)?;
        let (net_hash, net) = self
            .registry
            .load(&request.network)
            .map_err(|message| Refusal::Failed("model_error", message))?;
        let property = RobustnessProperty::from_text(&request.property)
            .map_err(|message| Refusal::Failed("bad_request", format!("property: {message}")))?;
        let config = VerifierConfig {
            delta: request.delta,
            timeout,
            max_regions: request.max_regions,
            restarts: request.restarts,
            seed: request.seed,
            counterexample_search: request.cex_search,
            certificates: request.cert,
            lipschitz_prefilter: false,
            cancel,
            faults: None,
        };
        Ok(Prepared {
            net_hash,
            net,
            property,
            config,
        })
    }

    /// Counts a job that ends without a verdict and renders its error.
    fn refuse_job(&self, id: u64, refusal: Refusal) -> String {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        match refusal {
            Refusal::Expired => {
                self.counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                error_response(
                    Some(id),
                    "deadline_expired",
                    "job spent its deadline in the queue",
                )
            }
            Refusal::Failed(code, message) => {
                self.counters.errored.fetch_add(1, Ordering::Relaxed);
                error_response(Some(id), code, &message)
            }
        }
    }
}

impl Tier for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// Re-enqueues a replayed job (resuming from its last checkpoint),
    /// or quarantines it when it was already in flight through
    /// `retry_budget` process deaths instead of giving it another chance
    /// to take the daemon down.
    fn resume(&self, recovered: RecoveredJob) {
        let id = recovered.request.id;
        if recovered.starts >= self.retry_budget {
            let response = poisoned_response(
                id,
                &format!(
                    "job was in flight during {} process deaths; quarantined on replay",
                    recovered.starts
                ),
                recovered.starts,
            );
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
            self.front.deliver(id, &Reply::Recovered, &response);
            return;
        }
        let priority = recovered.request.priority;
        let job = Job {
            id,
            request: recovered.request,
            accepted_at: Instant::now(),
            cancel: Arc::new(AtomicBool::new(false)),
            reply: Reply::Recovered,
            attempts: recovered.starts,
            kills: recovered.starts,
            checkpoint: recovered.checkpoint,
        };
        // `requeue`, not `push`: replayed jobs were admitted by a
        // previous life and must not bounce off the capacity check.
        if let Err((job, _)) = self.queue.requeue(priority, job) {
            self.counters.unstarted.fetch_add(1, Ordering::Relaxed);
            self.front
                .deliver(job.id, &job.reply, &unstarted_response(job.id));
        }
    }

    /// Sheds, accepts, then enqueues. Every admitted job is guaranteed a
    /// terminal response — by this process or, with a journal, by the
    /// next one.
    fn submit(&self, request: VerifyRequest, reply: Reply) {
        let id = request.id;
        // The shed controller runs after deduplication (a retry of a job
        // we already hold must be answered, not shed) and before the
        // journal (a shed submission was never accepted, so nothing is
        // persisted). High-priority work rides through: shedding
        // protects the latency of the queue by refusing the newest
        // low-priority arrivals.
        //
        // The refusal is additionally gated on the *estimated* delay a
        // new arrival would face: while the tripped controller waits for
        // the backlog to drain, admission resumes as soon as the queue
        // is short enough again — without this, a drained-empty queue
        // produces no dequeue observations and the latch would shed
        // forever.
        if let Some(shed) = &self.shed {
            if request.priority <= 0
                && shed.should_shed()
                && self.queue_delay_estimate() >= shed.target()
            {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                let busy = protocol::busy_response(id, self.retry_hint_ms(), "shed");
                front::send_line(&reply, &busy);
                return;
            }
        }
        if !self.front.accept(&request, &reply) {
            return;
        }
        let priority = request.priority;
        let job = Job {
            id,
            request,
            accepted_at: Instant::now(),
            cancel: Arc::new(AtomicBool::new(false)),
            reply,
            attempts: 0,
            kills: 0,
            checkpoint: None,
        };
        match self.queue.push(priority, job) {
            Ok(()) => {
                self.front.counters.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err((job, reason)) => {
                let response = match reason {
                    // A full queue is the `busy` surface (protocol ≥ 5):
                    // the refusal carries how long the queue needs to
                    // drain, so clients back off usefully instead of
                    // guessing.
                    RejectReason::Full => {
                        self.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
                        protocol::busy_response(job.id, self.retry_hint_ms(), "queue_full")
                    }
                    RejectReason::Closed => self.front.draining_response(job.id),
                };
                self.front.deliver(job.id, &job.reply, &response);
            }
        }
    }

    fn node_request(&self, request: Request, scratch: &mut Option<Workspace>) -> String {
        match request {
            Request::Shard(shard) => {
                execute_shard(self, &shard, scratch.get_or_insert_with(Workspace::new))
            }
            Request::NodeHello => protocol::node_hello_response(self.workers),
            // `node_stats`, the only other kind the front-end forwards.
            _ => protocol::node_stats_response(
                self.counters.shards_executed.load(Ordering::Relaxed),
                self.counters.shards_refuted.load(Ordering::Relaxed),
                self.counters.shards_limited.load(Ordering::Relaxed),
            ),
        }
    }

    /// Reports every still-queued job back to its submitter as
    /// unstarted and cancels in-flight jobs so they return checkpoints.
    /// The cancel flags are re-signalled each round because a worker
    /// may pop a job and only register it in `inflight` moments later.
    fn stop_work(&self) {
        for job in self.queue.close_and_drain() {
            self.counters.unstarted.fetch_add(1, Ordering::Relaxed);
            self.front
                .deliver(job.id, &job.reply, &unstarted_response(job.id));
        }
        for (_, cancel) in self.inflight.lock().unwrap().iter() {
            cancel.store(true, Ordering::SeqCst);
        }
    }

    fn tally(&self) -> Tally {
        let counters = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let cache = self.cache.lock().unwrap();
        Tally {
            workers: self.workers as u64,
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            completed: load(&counters.completed),
            checkpointed: load(&counters.checkpointed),
            unstarted: load(&counters.unstarted),
            rejected_full: load(&counters.rejected_full),
            errored: load(&counters.errored),
            // A single-node daemon has no breakers, so those read zero.
            overload: charon::telemetry::OverloadStats {
                shed: load(&counters.shed),
                deadline_expired: load(&counters.deadline_expired),
                breaker_open: 0,
                breaker_opens: 0,
            },
            requeued: load(&counters.requeued),
            quarantined: load(&counters.quarantined),
            worker_deaths: load(&counters.worker_deaths),
            cache_entries: cache.len() as u64,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_hit_rate: cache.hit_rate(),
            registry_models: self.registry.len() as u64,
            registry_hits: self.registry.hits(),
            registry_misses: self.registry.misses(),
            metrics: self.metrics.lock().unwrap().clone(),
        }
    }

    /// The latency histograms merged across all workers.
    fn stats_tail(&self, tally: &Tally, b: ObjectBuilder) -> ObjectBuilder {
        let to_f64 = |counts: &[u64]| -> Vec<f64> { counts.iter().map(|&c| c as f64).collect() };
        let job_hist = self.job_hist.lock().unwrap().clone();
        b.arr("job_latency_hist", &to_f64(job_hist.counts()))
            .arr(
                "attack_latency_hist",
                &to_f64(tally.metrics.attack_hist.counts()),
            )
            .arr(
                "propagation_latency_hist",
                &to_f64(tally.metrics.propagation_hist.counts()),
            )
    }
}

/// A running daemon.
pub struct Server;

/// Handle to a started daemon: its bound address plus the thread handles
/// [`ServerHandle::join`] waits on.
pub struct ServerHandle {
    addr: ServerAddr,
    listener: JoinHandle<()>,
    supervisors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on (for TCP port 0, the
    /// kernel-assigned port).
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Blocks until the daemon has drained and shut down.
    pub fn join(self) {
        let _ = self.listener.join();
        for supervisor in self.supervisors {
            let _ = supervisor.join();
        }
    }
}

impl Server {
    /// Opens the journal (replaying and compacting any existing one),
    /// binds the listener, and starts the supervised worker pool;
    /// returns immediately. The daemon runs until a client sends
    /// `drain`.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or a journal open/replay error (a
    /// *corrupt* journal refuses to start rather than silently dropping
    /// jobs; a torn final record is expected crash damage and is fine).
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let (front, replay) =
            Front::open("daemon", config.journal.as_deref(), config.faults.clone())?;
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr(&config.addr);
        let shared = Arc::new(Shared::new(&config, front));

        let mut supervisors = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            supervisors.push(std::thread::spawn(move || supervisor_loop(&shared)));
        }
        let listener = front::serve(
            shared,
            replay,
            listener,
            addr.clone(),
            config.read_timeout,
            config.write_timeout,
        );
        Ok(ServerHandle {
            addr,
            listener,
            supervisors,
        })
    }
}

/// Extracts a human-readable panic message from a worker's payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker died with a non-string panic payload".to_string()
    }
}

/// Runs one worker under supervision: spawn it, wait for it to die or
/// exit cleanly, recover its orphaned job, and respawn. The job the
/// dead worker held is re-queued (capacity-exempt) unless it has spent
/// its retry budget, in which case it is quarantined with a `poisoned`
/// verdict carrying the panic diagnostic.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        let slot: Arc<Mutex<Option<Job>>> = Arc::new(Mutex::new(None));
        let worker_shared = Arc::clone(shared);
        let worker_slot = Arc::clone(&slot);
        let worker = std::thread::Builder::new()
            .name("charon-worker".to_string())
            .spawn(move || worker_loop(&worker_shared, &worker_slot))
            .expect("spawn worker thread");
        let payload = match worker.join() {
            Ok(()) => return, // Clean exit: the queue is closed and empty.
            Err(payload) => payload,
        };
        let diagnostic = panic_text(payload.as_ref());
        shared.counters.worker_deaths.fetch_add(1, Ordering::Relaxed);
        let orphan = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(mut job) = orphan {
            shared
                .inflight
                .lock()
                .unwrap()
                .retain(|(id, _)| *id != job.id);
            job.kills += 1;
            if job.kills >= shared.retry_budget {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                let response = poisoned_response(job.id, &diagnostic, job.kills);
                shared.front.deliver(job.id, &job.reply, &response);
            } else {
                shared.counters.requeued.fetch_add(1, Ordering::Relaxed);
                let priority = job.request.priority;
                if let Err((job, _)) = shared.queue.requeue(priority, job) {
                    // Draining: the job goes back to its submitter
                    // unstarted, like everything else still queued.
                    shared.counters.unstarted.fetch_add(1, Ordering::Relaxed);
                    shared
                        .front
                        .deliver(job.id, &job.reply, &unstarted_response(job.id));
                }
            }
        }
        // Loop: respawn the worker (with a fresh Workspace) and keep
        // serving.
    }
}

fn worker_loop(shared: &Arc<Shared>, slot: &Mutex<Option<Job>>) {
    // The tentpole of the service hot path: one scratch arena per
    // worker, reused across every job this thread ever runs. A respawn
    // after a death starts from a fresh arena, so a panic can never
    // leak a poisoned scratch state into the next job.
    let mut ws = Workspace::new();
    while let Some(mut job) = shared.queue.pop() {
        // Feed the shed controller the queue sojourn this dequeue
        // observed (first attempts only: a requeued orphan's
        // `accepted_at` includes execution time, not queue latency).
        if let (Some(shed), 0) = (&shared.shed, job.attempts) {
            shed.observe(job.accepted_at.elapsed(), Instant::now());
        }
        // A job whose deadline ran out while queued is answered here,
        // without registering in-flight state or starting the verifier:
        // under overload, workers must not burn time on answers nobody
        // is waiting for.
        if shared.budget(&job.request, job.accepted_at).is_none() {
            let response = shared.refuse_job(job.id, Refusal::Expired);
            shared.front.deliver(job.id, &job.reply, &response);
            continue;
        }
        job.attempts += 1;
        // Park a copy where the supervisor can recover it if this thread
        // dies anywhere below.
        *slot.lock().unwrap() = Some(job.clone());
        shared
            .inflight
            .lock()
            .unwrap()
            .push((job.id, Arc::clone(&job.cancel)));
        shared.front.journal_transition(&Record::Started {
            id: job.id,
            attempt: job.attempts,
        });
        if let Some(plan) = &shared.front.faults {
            if plan.worker_must_die(job.id) {
                panic!("injected worker kill (job {})", job.id);
            }
        }
        let started = Instant::now();
        let response = execute_job(shared, &job, &mut ws);
        // Service-time accounting drives the `retry_after_ms` drain-rate
        // estimate handed to refused clients.
        shared
            .counters
            .service_ns
            .fetch_add(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        shared.counters.serviced.fetch_add(1, Ordering::Relaxed);
        shared
            .inflight
            .lock()
            .unwrap()
            .retain(|(id, _)| *id != job.id);
        *slot.lock().unwrap() = None;
        shared.front.deliver(job.id, &job.reply, &response);
    }
}

/// Runs one admitted job to a terminal response line, updating counters
/// and telemetry.
fn execute_job(shared: &Shared, job: &Job, ws: &mut Workspace) -> String {
    let start = Instant::now();
    let counters = &shared.counters;
    let request = &job.request;

    // The budget is clamped to the remaining client deadline minus the
    // reply margin, so the verifier's anytime ladder absorbs the
    // pressure. The dequeue path already filtered jobs that expired in
    // the queue; this re-check closes the race against the clock.
    let prepared = match shared.prepare(request, job.accepted_at, Some(Arc::clone(&job.cancel))) {
        Ok(prepared) => prepared,
        Err(refusal) => return shared.refuse_job(job.id, refusal),
    };
    let net_hash = prepared.net_hash;
    let key = CacheKey {
        net_hash,
        property: prepared.property.to_text(),
        config: request.config_key(),
    };
    if let Some(hit) = shared.cache.lock().unwrap().get(&key) {
        counters.completed.fetch_add(1, Ordering::Relaxed);
        let elapsed = start.elapsed();
        shared
            .job_hist
            .lock()
            .unwrap()
            .observe(elapsed.as_secs_f64());
        let mut b = verdict_response(job.id, &hit.verdict)
            .int("cached", 1)
            .int("computed_by", hit.computed_by)
            .num("compute_ms", hit.compute_seconds * 1e3)
            .str("net_hash", &format!("{net_hash:016x}"))
            .int("regions", hit.regions as u64)
            .num("elapsed_ms", elapsed.as_secs_f64() * 1e3);
        if request.cert {
            if let Some(cert) = &hit.cert {
                b = b.str("cert", cert);
            }
        }
        return b.build();
    }

    // A journal-replayed checkpoint resumes the interrupted search
    // instead of re-verifying from scratch.
    let run = match prepared.run(job.checkpoint.as_deref(), ws) {
        Ok(run) => run,
        Err(refusal) => return shared.refuse_job(job.id, refusal),
    };

    let elapsed = start.elapsed();
    shared.metrics.lock().unwrap().merge(&run.stats.metrics);
    shared
        .job_hist
        .lock()
        .unwrap()
        .observe(elapsed.as_secs_f64());

    // Certificates are delivery provenance: cached alongside the
    // verdict (so the next certifying submitter is served from memory)
    // and attached to the response only when the job asked for one.
    let cert_text = run.certificate.as_ref().map(|cert| cert.to_text());
    if run.verdict == Verdict::ResourceLimit {
        let drain_cancelled = matches!(run.limit, Some(BudgetKind::Cancelled))
            && shared.front.draining.load(Ordering::SeqCst);
        if let (true, Some(checkpoint)) = (drain_cancelled, &run.checkpoint) {
            counters.checkpointed.fetch_add(1, Ordering::Relaxed);
            // The checkpoint record lands before the completed record, so
            // a crash in between replays the job from the checkpoint
            // instead of from scratch.
            shared.front.journal_transition(&Record::Checkpointed {
                id: job.id,
                regions_done: checkpoint.regions_done,
                checkpoint: checkpoint.to_text(),
            });
            return checkpointed_response(job.id, &checkpoint.to_text(), checkpoint.regions_done);
        }
    } else {
        shared.cache.lock().unwrap().insert(
            key,
            CachedResult {
                verdict: run.verdict.clone(),
                computed_by: job.id,
                regions: run.stats.regions,
                compute_seconds: elapsed.as_secs_f64(),
                cert: cert_text.clone(),
            },
        );
    }
    counters.completed.fetch_add(1, Ordering::Relaxed);
    let mut b = verdict_response(job.id, &run.verdict)
        .int("cached", 0)
        .str("net_hash", &format!("{net_hash:016x}"))
        .int("regions", run.stats.regions as u64)
        .num("elapsed_ms", elapsed.as_secs_f64() * 1e3);
    if let Some(cert) = &cert_text {
        b = b.str("cert", cert);
    }
    if let Some(kind) = run.limit {
        b = b.str("limit", &kind.to_string());
    }
    b.build()
}

/// Runs one coordinator-dispatched shard synchronously to a
/// `shard_result` (or `error`) response line.
///
/// A shard bypasses the queue, journal, and result cache on purpose:
/// the coordinator owns durability (it journals the parent job and the
/// dispatch), owns retry (an orphaned shard is re-dispatched), and a
/// shard's sub-region is too specific for the verdict cache to earn its
/// keep. The node is a stateless executor.
fn execute_shard(shared: &Shared, shard: &ShardRequest, ws: &mut Workspace) -> String {
    let start = Instant::now();
    let counters = &shared.counters;
    counters.shards_executed.fetch_add(1, Ordering::Relaxed);
    // Chaos hook: a stalled node holds the shard (and its connection)
    // without answering, exactly like a wedged NIC or a GC'd VM — the
    // coordinator's read deadline and circuit breaker must cover it.
    if let Some(plan) = &shared.front.faults {
        plan.maybe_stall_shard();
    }
    // The dispatch carries the remaining client deadline; what is left
    // after the reply margin bounds this shard's verification budget.
    let id = shard.request.id;
    let run = shared
        .prepare(&shard.request, Instant::now(), None)
        .and_then(|prepared| prepared.run(None, ws));
    let run = match run {
        Ok(run) => run,
        Err(Refusal::Expired) => {
            counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
            return error_response(
                Some(id),
                "deadline_expired",
                "shard arrived with its deadline spent",
            );
        }
        Err(Refusal::Failed(code, message)) => return error_response(Some(id), code, &message),
    };
    shared.metrics.lock().unwrap().merge(&run.stats.metrics);
    match run.verdict {
        Verdict::Verified => {}
        Verdict::Refuted(_) => {
            counters.shards_refuted.fetch_add(1, Ordering::Relaxed);
        }
        Verdict::ResourceLimit => {
            counters.shards_limited.fetch_add(1, Ordering::Relaxed);
        }
    }
    ShardResult::from_run(id, shard.shard, &run, start.elapsed().as_secs_f64()).to_line()
}
