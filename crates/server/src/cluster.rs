//! Sharded multi-node verification: a coordinator that splits one
//! property's input region into shards and fans them out to a pool of
//! shard-worker daemons ("nodes") over the v3 wire protocol.
//!
//! The coordinator runs the same front-end as a single-node daemon (the
//! private `front` module: admission, `ack` de-duplication, journal,
//! delivery, `query`, `stats`, `drain`, `ping`), so the CLI and
//! [`crate::submit_reliable`] work against it unchanged. Behind the
//! front-end, each submitted property's region is split by
//! [`charon::policy::shard_region`] into `shards` sub-regions; each
//! shard travels as a self-contained `shard` request (the property text
//! is rewritten to the shard's sub-region, so a node is a stateless
//! executor) and comes back as a `shard_result`.
//!
//! # Merge semantics
//!
//! Shard verdicts merge with the same record-and-stop preference rule
//! as the engine's region driver (via [`charon::verdict_supersedes`]):
//! the first validated refutation wins and is delivered immediately —
//! still-queued shards of that job are cancelled, in-flight ones finish
//! within their own budget and are discarded; all shards `Verified`
//! means the whole region is `Verified`; otherwise the job is a
//! `resource_limit` carrying a checkpoint merged from every limited
//! shard's resumable remainder. [`MergeState`] implements this rule as
//! a pure value so the property test can drive it through arbitrary
//! interleavings, duplicates included.
//!
//! # Fault model
//!
//! A node that dies mid-shard (crash, `kill -9`, network partition) is
//! detected by the per-shard read deadline (the shard's own budget plus
//! [`CoordinatorConfig::node_grace`]); the orphaned shard is re-queued
//! and re-dispatched — to any node — with a bounded retry budget. A
//! shard that kills [`CoordinatorConfig::retry_budget`] node connections
//! is quarantined, poisoning its job with a `poisoned` verdict (the same
//! semantics the single-node supervisor applies to poison jobs). A node
//! that is merely *unreachable* (connect refused) costs the shard
//! nothing: the dispatcher backs off and the shard drifts to another
//! node. Shard dispatches are journaled (`shard_dispatched` records)
//! for post-crash audit only. On restart the journal replay restores
//! stored results (so `query` and `ack` resubmissions are answered
//! again), and every accepted-but-unanswered job is re-sharded from
//! scratch, dispatched anew and counted in `stats.replayed`; its
//! verdict is stored for `query`. A job's merge state lives only until
//! its verdict is delivered, and terminal responses are kept in the
//! same bounded store as the daemon's.
//!
//! On top of per-dispatch detection, each node carries a
//! [`crate::overload::CircuitBreaker`] shared by all of its
//! dispatchers: [`CoordinatorConfig::breaker_threshold`] *consecutive*
//! dispatch failures trip it, after which the node's dispatchers take
//! no tasks (shards drift to healthy nodes via the normal re-dispatch
//! machinery) until a cooldown elapses and a single `node_hello`
//! half-open probe succeeds. This turns the cost of a stalled or dying
//! node from "one read deadline per dispatched shard, forever" into
//! "`threshold` read deadlines, once".
//!
//! Client deadlines propagate through dispatch (protocol ≥ 5): each
//! shard request carries the client's remaining `deadline_ms`, a task
//! whose deadline is already spent expires its job instead of being
//! dispatched, and nodes clamp their verification budget to what the
//! deadline leaves.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use charon::json::ObjectBuilder;
use charon::policy::shard_region;
use charon::telemetry::OverloadStats;
use charon::verdict_supersedes;
use charon::{Checkpoint, RobustnessProperty, Verdict};
use domains::Workspace;

use crate::client::Client;
use crate::faults::ServerFaultPlan;
use crate::front::{self, send_line, Front, Reply, Tally, Tier};
use crate::journal::{Record, RecoveredJob};
use crate::net::{Listener, ServerAddr};
use crate::overload::{BreakerState, CircuitBreaker};
use crate::protocol::{
    error_response, poisoned_response, verdict_response, Request, ShardRequest, ShardResult,
    VerifyRequest, PROTOCOL_VERSION,
};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Where the coordinator front-end listens.
    pub addr: ServerAddr,
    /// The shard-worker daemons to dispatch to (at least one).
    pub nodes: Vec<ServerAddr>,
    /// Shards per submitted job; `0` defaults to `2 × nodes.len()` so
    /// every node has work and a straggler shard cannot serialize the
    /// whole job.
    pub shards: usize,
    /// Dispatcher connections per node (each owns one connection and
    /// runs one shard at a time on it).
    pub connections_per_node: usize,
    /// Node-connection deaths one shard may cause before it is
    /// quarantined and its job poisoned.
    pub retry_budget: u32,
    /// Slack added to a shard's own timeout to form the read deadline
    /// after which the node is presumed dead; also the handshake and
    /// heartbeat timeout.
    pub node_grace: Duration,
    /// Write-ahead journal path (`None` disables durability).
    pub journal: Option<PathBuf>,
    /// Consecutive dispatch failures (timeouts, dead connections,
    /// malformed answers) that trip a node's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker refuses work before admitting one
    /// half-open `node_hello` probe.
    pub breaker_cooldown: Duration,
    /// Deterministic cluster fault injection (tests only).
    pub faults: Option<Arc<ServerFaultPlan>>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: ServerAddr::Unix(std::env::temp_dir().join("charon-coordinator.sock")),
            nodes: Vec::new(),
            shards: 0,
            connections_per_node: 2,
            retry_budget: 2,
            node_grace: Duration::from_secs(10),
            journal: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
            faults: None,
        }
    }
}

/// Pure merge of shard results into one job verdict — the cluster-side
/// mirror of [`charon::parallel`]'s record-and-stop rule, factored out
/// so the merge property test can drive it directly.
///
/// Each shard holds at most one [`ShardResult`]. The first result wins
/// unless a later duplicate *supersedes* it under [`verdict_supersedes`]
/// (a refutation always replaces a resource limit, nothing replaces a
/// decisive verdict), and then it replaces the stored result as a
/// whole — so duplicate deliveries from re-dispatch are idempotent and
/// a late refutation still flips an inconclusive shard.
#[derive(Debug, Clone)]
pub struct MergeState {
    results: Vec<Option<ShardResult>>,
}

impl MergeState {
    /// Starts an empty merge over `shards` shards (at least one).
    pub fn new(shards: usize) -> MergeState {
        MergeState {
            results: vec![None; shards.max(1)],
        }
    }

    /// Number of shards being merged.
    pub fn shards(&self) -> usize {
        self.results.len()
    }

    /// Records one shard result (duplicates welcome). Returns whether
    /// the result changed the shard's resolved state.
    ///
    /// # Errors
    ///
    /// Returns a message for an out-of-range shard index.
    pub fn record(&mut self, result: &ShardResult) -> Result<bool, String> {
        let shards = self.results.len();
        let Some(slot) = self.results.get_mut(result.shard) else {
            return Err(format!(
                "shard index {} out of range (job has {shards} shards)",
                result.shard
            ));
        };
        if !verdict_supersedes(slot.as_ref().map(|stored| &stored.verdict), &result.verdict) {
            return Ok(false);
        }
        *slot = Some(result.clone());
        Ok(true)
    }

    /// The stored results, in shard order, skipping unresolved shards.
    fn stored(&self) -> impl Iterator<Item = &ShardResult> {
        self.results.iter().flatten()
    }

    /// The first refuted shard's result, if any shard refuted.
    fn refuted(&self) -> Option<&ShardResult> {
        self.stored().find(|result| result.verdict.is_refuted())
    }

    /// Whether every shard has a resolved verdict.
    pub fn complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// The job-level verdict: a refutation as soon as one exists;
    /// otherwise, once every shard is resolved, `Verified` iff all
    /// shards verified, else `ResourceLimit`. `None` while undecided.
    pub fn verdict(&self) -> Option<Verdict> {
        if let Some(refuted) = self.refuted() {
            return Some(refuted.verdict.clone());
        }
        if !self.complete() {
            return None;
        }
        if self.stored().all(|result| result.verdict.is_verified()) {
            Some(Verdict::Verified)
        } else {
            Some(Verdict::ResourceLimit)
        }
    }

    /// Regions processed across all shards (latest result per shard).
    pub fn regions(&self) -> usize {
        self.stored().map(|result| result.regions).sum()
    }

    /// The first recorded budget-limit kind, for the response line.
    pub fn limit(&self) -> Option<&str> {
        self.stored().find_map(|result| result.limit.as_deref())
    }

    /// Merges every limited shard's resumable remainder into one
    /// checkpoint for the whole property (`None` when no shard left
    /// one, or none of them parsed).
    pub fn merged_checkpoint(&self) -> Option<Checkpoint> {
        let mut merged: Option<Checkpoint> = None;
        for text in self.stored().filter_map(|result| result.checkpoint.as_deref()) {
            let Ok(ckpt) = Checkpoint::from_text(text) else {
                continue;
            };
            match &mut merged {
                None => merged = Some(ckpt),
                Some(acc) => {
                    let _ = acc.merge(ckpt);
                }
            }
        }
        merged
    }

    /// Merges per-shard proof certificates into one certificate for the
    /// whole property, rooted at `root` (the job's input region).
    ///
    /// * For a job-level refutation, the winning shard's witness
    ///   certificate is re-rooted at the whole region — sound, because
    ///   the witness lies inside the shard's sub-region and therefore
    ///   inside the root.
    /// * For a job-level `Verified`, every shard must have delivered a
    ///   sub-certificate; they are concatenated under the deterministic
    ///   shard split tree ([`charon::policy::shard_region`] bisections)
    ///   via [`charon::Certificate::merge_shards`].
    ///
    /// Returns `None` when certificates were not requested, a shard
    /// skipped its sub-certificate, a part fails to parse, or the
    /// verdict is not decisive — best-effort, like everything else on
    /// the `cert` surface.
    pub fn merged_certificate(&self, root: &domains::Bounds) -> Option<String> {
        if let Some(refuted) = self.refuted() {
            let mut cert = charon::Certificate::from_text(refuted.cert.as_deref()?).ok()?;
            cert.root = root.clone();
            return Some(cert.to_text());
        }
        if !matches!(self.verdict(), Some(Verdict::Verified)) {
            return None;
        }
        let parts: Option<Vec<charon::Certificate>> = self
            .stored()
            .map(|result| charon::Certificate::from_text(result.cert.as_deref()?).ok())
            .collect();
        let merged = charon::Certificate::merge_shards(root, &parts?).ok()?;
        Some(merged.to_text())
    }
}

/// Per-node shard accounting for the coordinator's `stats`: how many
/// shards a node was handed, how many it finished, how many had to be
/// re-dispatched elsewhere after the node died or dropped them, and how
/// long the node's dispatchers sat idle waiting for work.
#[derive(Debug, Clone, Default, PartialEq)]
struct NodeRow {
    /// Node identity (its address as the coordinator dials it).
    name: String,
    /// Shards dispatched to this node.
    dispatched: u64,
    /// Shards the node completed with a usable result.
    completed: u64,
    /// Shards taken back from this node and re-dispatched (node death,
    /// timeout, or an injected shard drop).
    redispatched: u64,
    /// Wall-clock seconds the node's dispatchers spent idle.
    idle_seconds: f64,
}

/// One queued unit of dispatch work.
struct ShardTask {
    /// The wire request dispatched to a node.
    dispatch: ShardRequest,
    /// When the coordinator accepted the parent job: the epoch the
    /// client deadline counts down from.
    accepted_at: Instant,
    /// The client's end-to-end deadline, if it sent one. The *remaining*
    /// portion is stamped into the shard's `deadline_ms` at dispatch
    /// time.
    deadline_ms: Option<u64>,
    /// Node-connection deaths this shard has caused so far.
    kills: u32,
}

/// Coordinator-side state of one undelivered job. It leaves the job map
/// at delivery, so a result for a job that is not in the map is a
/// straggler.
struct JobState {
    merge: MergeState,
    reply: Reply,
    accepted_at: Instant,
    /// The job's whole input region, kept when the submission requested
    /// a certificate so shard sub-certificates can be merged under it.
    cert_root: Option<domains::Bounds>,
    /// Set when a shard of this job was quarantined: the diagnostic and
    /// the kill count, delivered as a `poisoned` verdict unless a
    /// refutation wins first.
    poison: Option<(String, u32)>,
}

#[derive(Default)]
struct ClusterCounters {
    completed: AtomicU64,
    errored: AtomicU64,
    node_failures: AtomicU64,
    deadline_expired: AtomicU64,
    shards_dispatched: AtomicU64,
    shards_completed: AtomicU64,
    shards_redispatched: AtomicU64,
    shards_quarantined: AtomicU64,
}

/// The coordinator tier: sharding, the shard queue its dispatchers
/// drain, the per-job merges and the per-node breakers.
struct ClusterShared {
    front: Front,
    nodes: Vec<ServerAddr>,
    shards_per_job: usize,
    retry_budget: u32,
    node_grace: Duration,
    queue: Mutex<VecDeque<ShardTask>>,
    /// Wakes dispatchers when shard tasks are enqueued (or at shutdown).
    work: Condvar,
    jobs: Mutex<HashMap<u64, JobState>>,
    counters: ClusterCounters,
    node_rows: Mutex<Vec<NodeRow>>,
    /// One circuit breaker per node, keyed by the node's display name
    /// and shared by all of that node's dispatchers.
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
}

impl ClusterShared {
    fn new(config: &CoordinatorConfig, front: Front) -> ClusterShared {
        ClusterShared {
            front,
            nodes: config.nodes.clone(),
            shards_per_job: if config.shards == 0 {
                config.nodes.len() * 2
            } else {
                config.shards
            },
            retry_budget: config.retry_budget.max(1),
            node_grace: config.node_grace,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            counters: ClusterCounters::default(),
            node_rows: Mutex::new(Vec::new()),
            breakers: Mutex::new(
                config
                    .nodes
                    .iter()
                    .map(|node| {
                        let breaker =
                            CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
                        (node.to_string(), breaker)
                    })
                    .collect(),
            ),
        }
    }

    /// Folds a delta row into the per-node telemetry table.
    fn note_node(&self, row: &NodeRow) {
        let mut rows = self.node_rows.lock().unwrap();
        match rows.iter_mut().find(|r| r.name == row.name) {
            Some(existing) => {
                existing.dispatched += row.dispatched;
                existing.completed += row.completed;
                existing.redispatched += row.redispatched;
                existing.idle_seconds += row.idle_seconds;
            }
            None => rows.push(row.clone()),
        }
    }

    /// Shards an accepted job's region and queues every shard.
    fn enqueue(&self, request: VerifyRequest, property: &RobustnessProperty, reply: Reply) {
        let accepted_at = Instant::now();
        let regions = shard_region(property.region(), self.shards_per_job);
        let tasks: Vec<ShardTask> = regions
            .into_iter()
            .enumerate()
            .map(|(index, bounds)| ShardTask {
                dispatch: ShardRequest {
                    shard: index,
                    request: VerifyRequest {
                        property: property.with_region(bounds).to_text(),
                        // Stamped with the *remaining* deadline at dispatch.
                        deadline_ms: None,
                        // Perturb the seed per shard so shards do not run
                        // identical attack schedules on adjacent regions.
                        seed: request
                            .seed
                            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9)),
                        // `ack` is a client contract; shard lines never
                        // carry it.
                        ack: false,
                        ..request.clone()
                    },
                },
                accepted_at,
                deadline_ms: request.deadline_ms,
                kills: 0,
            })
            .collect();
        self.jobs.lock().unwrap().insert(
            request.id,
            JobState {
                merge: MergeState::new(tasks.len()),
                reply,
                accepted_at,
                cert_root: request.cert.then(|| property.region().clone()),
                poison: None,
            },
        );
        self.queue.lock().unwrap().extend(tasks);
        self.work.notify_all();
    }

    /// Settles job `id`: `decide` sees the job under the jobs lock and
    /// returns its terminal response, or `None` to leave it running. A
    /// decided job leaves the map — so its stragglers find nothing — and
    /// is delivered once the lock is released.
    fn settle(&self, id: u64, decide: impl FnOnce(&mut JobState) -> Option<String>) {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(response) = jobs.get_mut(&id).and_then(decide) else {
            return;
        };
        let job = jobs.remove(&id).expect("a decided job is in the map");
        drop(jobs);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.front.deliver(id, &job.reply, &response);
    }

    /// The job's verdict line, once the merge has decided it. A
    /// refutation wins over a quarantined shard's poison.
    fn verdict_response(&self, id: u64, job: &JobState) -> Option<String> {
        let verdict = job.merge.verdict()?;
        if let (false, Some((diagnostic, attempts))) = (verdict.is_refuted(), &job.poison) {
            self.counters.errored.fetch_add(1, Ordering::Relaxed);
            return Some(poisoned_response(id, diagnostic, *attempts));
        }
        let mut b = verdict_response(id, &verdict)
            .int("cached", 0)
            .int("shards", job.merge.shards() as u64)
            .int("regions", job.merge.regions() as u64)
            .num("elapsed_ms", job.accepted_at.elapsed().as_secs_f64() * 1e3);
        if verdict == Verdict::ResourceLimit {
            if let Some(kind) = job.merge.limit() {
                b = b.str("limit", kind);
            }
            if let Some(ckpt) = job.merge.merged_checkpoint() {
                b = b
                    .int("regions_done", ckpt.regions_done as u64)
                    .str("checkpoint", &ckpt.to_text());
            }
        } else if let Some(cert) = job
            .cert_root
            .as_ref()
            .and_then(|root| job.merge.merged_certificate(root))
        {
            b = b.str("cert", &cert);
        }
        Some(b.build())
    }
}

impl Tier for ClusterShared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// A recovered job is re-sharded from scratch: shard dispatches are
    /// advisory history, and a shard result from the previous life is
    /// gone with its connection.
    fn resume(&self, job: RecoveredJob) {
        let request = job.request;
        match RobustnessProperty::from_text(&request.property) {
            Ok(property) => self.enqueue(request, &property, Reply::Recovered),
            Err(message) => {
                // Admission parsed it once; only a hand-edited journal
                // gets here.
                self.counters.errored.fetch_add(1, Ordering::Relaxed);
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                let error = error_response(Some(request.id), "bad_request", &message);
                self.front.deliver(request.id, &Reply::Recovered, &error);
            }
        }
    }

    /// Parses the property, accepts, then shards and queues. A property
    /// that does not parse is the submitter's problem, not an accepted
    /// job.
    fn submit(&self, request: VerifyRequest, reply: Reply) {
        let property = match RobustnessProperty::from_text(&request.property) {
            Ok(property) => property,
            Err(message) => {
                self.counters.errored.fetch_add(1, Ordering::Relaxed);
                let message = format!("property: {message}");
                let error = error_response(Some(request.id), "bad_request", &message);
                send_line(&reply, &error);
                return;
            }
        };
        if !self.front.accept(&request, &reply) {
            return;
        }
        self.front.counters.accepted.fetch_add(1, Ordering::Relaxed);
        self.enqueue(request, &property, reply);
    }

    fn node_request(&self, _: Request, _: &mut Option<Workspace>) -> String {
        let message = "this is a coordinator, not a shard node";
        error_response(None, "bad_request", message)
    }

    /// Nothing to stop: the coordinator has no partial-work story of its
    /// own — shards in flight complete on their nodes — so a drain that
    /// returns `lost=0` proves no accepted job went unanswered.
    fn stop_work(&self) {}

    fn stopped(&self) {
        self.work.notify_all();
    }

    /// The single-node counter surface (so `charon-cli submit --stats`
    /// renders unchanged); counters with no coordinator analogue read
    /// zero.
    fn tally(&self) -> Tally {
        let counters = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (breaker_open, breaker_opens) = {
            let breakers = self.breakers.lock().unwrap();
            (
                breakers
                    .values()
                    .filter(|breaker| breaker.is_routing_around())
                    .count() as u64,
                breakers.values().map(CircuitBreaker::opens).sum(),
            )
        };
        Tally {
            workers: self.nodes.len() as u64,
            queue_depth: self.queue.lock().unwrap().len() as u64,
            completed: load(&counters.completed),
            errored: load(&counters.errored),
            overload: OverloadStats {
                // The coordinator queue is unbounded and never sheds;
                // admission pressure is absorbed by the nodes' own shed
                // controllers.
                shed: 0,
                deadline_expired: load(&counters.deadline_expired),
                breaker_open,
                breaker_opens,
            },
            requeued: load(&counters.shards_redispatched),
            quarantined: load(&counters.shards_quarantined),
            worker_deaths: load(&counters.node_failures),
            ..Tally::default()
        }
    }

    /// The cluster extras and the per-node table as parallel arrays.
    fn stats_tail(&self, _: &Tally, b: ObjectBuilder) -> ObjectBuilder {
        let counters = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let b = b
            .int("nodes", self.nodes.len() as u64)
            .int("shards_dispatched", load(&counters.shards_dispatched))
            .int("shards_completed", load(&counters.shards_completed))
            .int("shards_redispatched", load(&counters.shards_redispatched))
            .int("shards_quarantined", load(&counters.shards_quarantined))
            .int("node_failures", load(&counters.node_failures));
        let rows = self.node_rows.lock().unwrap().clone();
        if rows.is_empty() {
            return b;
        }
        let column = |f: fn(&NodeRow) -> f64| rows.iter().map(f).collect::<Vec<_>>();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        b.str("node_names", &names.join(","))
            .arr("node_dispatched", &column(|r| r.dispatched as f64))
            .arr("node_completed", &column(|r| r.completed as f64))
            .arr("node_redispatched", &column(|r| r.redispatched as f64))
            .arr("node_idle_seconds", &column(|r| r.idle_seconds))
    }
}

/// The coordinator daemon.
pub struct Coordinator;

/// Handle to a started coordinator.
pub struct CoordinatorHandle {
    addr: ServerAddr,
    listener: JoinHandle<()>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The address the front-end is listening on.
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Blocks until the coordinator has drained and shut down.
    pub fn join(self) {
        let _ = self.listener.join();
        for dispatcher in self.dispatchers {
            let _ = dispatcher.join();
        }
    }
}

impl Coordinator {
    /// Opens the journal (re-sharding the jobs it recovers), binds the
    /// front-end listener, and starts `connections_per_node` dispatcher
    /// threads per node; returns immediately. Runs until a client sends
    /// `drain`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an empty node list, plus bind and
    /// journal open/replay errors.
    pub fn start(config: CoordinatorConfig) -> std::io::Result<CoordinatorHandle> {
        if config.nodes.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "coordinator needs at least one node (--nodes)",
            ));
        }
        let journal = config.journal.as_deref();
        let (front, replay) = Front::open("coordinator", journal, config.faults.clone())?;
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr(&config.addr);
        let shared = Arc::new(ClusterShared::new(&config, front));

        let mut dispatchers = Vec::new();
        for node in &config.nodes {
            for _ in 0..config.connections_per_node.max(1) {
                let shared = Arc::clone(&shared);
                let node = node.clone();
                dispatchers.push(std::thread::spawn(move || dispatcher_loop(&shared, &node)));
            }
        }
        let write_timeout = Some(Duration::from_secs(10));
        let listener = front::serve(shared, replay, listener, addr.clone(), None, write_timeout);
        Ok(CoordinatorHandle {
            addr,
            listener,
            dispatchers,
        })
    }
}

/// Connects (or reuses) this dispatcher's node connection, performing
/// the `node_hello` version handshake on a fresh connection.
fn ensure_client<'a>(
    client: &'a mut Option<Client>,
    node: &ServerAddr,
    grace: Duration,
) -> std::io::Result<&'a mut Client> {
    if client.is_none() {
        let mut fresh = Client::connect(node)?;
        fresh.set_timeouts(Some(grace), Some(grace))?;
        let hello = fresh.request("{\"request\": \"node_hello\"}")?;
        let compatible = hello
            .str_field("response")
            .is_ok_and(|kind| kind == "node_hello")
            && hello
                .usize_field("protocol")
                .is_ok_and(|version| version as u64 >= PROTOCOL_VERSION);
        if !compatible {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("node {node} does not speak protocol {PROTOCOL_VERSION}"),
            ));
        }
        *client = Some(fresh);
    }
    Ok(client.as_mut().expect("just ensured"))
}

/// One dispatcher: owns one connection to one node, pulls shard tasks,
/// dispatches them, and feeds results (or failures) back into the
/// merge. Idle dispatchers heartbeat their node with `ping`.
fn dispatcher_loop(shared: &ClusterShared, node: &ServerAddr) {
    let node_name = node.to_string();
    let mut client: Option<Client> = None;
    loop {
        if shared.front.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Route around an open breaker: this node's dispatchers take no
        // tasks (queued shards drift to healthy nodes) until a half-open
        // `node_hello` probe succeeds.
        if !breaker_admits(shared, node, &node_name, &mut client) {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        // Block on the work condvar until a task arrives; a 2 s timeout
        // doubles as the heartbeat cadence while idle.
        let waited = Instant::now();
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.front.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                let (guard, timeout) = shared
                    .work
                    .wait_timeout(queue, Duration::from_secs(2))
                    .unwrap();
                queue = guard;
                if timeout.timed_out() {
                    break None;
                }
            }
        };
        let idle = waited.elapsed();
        let Some(task) = task else {
            // Heartbeat: a dead node is noticed while idle, not first
            // discovered by the next dispatched shard.
            if let Some(c) = client.as_mut() {
                let alive = c
                    .request("{\"request\": \"ping\"}")
                    .ok()
                    .and_then(|pong| pong.str_field("response").ok())
                    .is_some_and(|kind| kind == "pong");
                if !alive {
                    client = None;
                    shared.counters.node_failures.fetch_add(1, Ordering::Relaxed);
                    // A dead heartbeat counts toward the breaker, so a
                    // node that dies while idle trips it before any
                    // shard is wasted probing it. (A *successful* ping
                    // is deliberately not counted as breaker success: a
                    // stalled node often still answers pings.)
                    breaker_note(shared, &node_name, false);
                }
            }
            shared.note_node(&NodeRow {
                name: node_name.clone(),
                idle_seconds: idle.as_secs_f64(),
                ..NodeRow::default()
            });
            continue;
        };
        // Flush the time spent waiting into the node's telemetry row.
        if !idle.is_zero() {
            shared.note_node(&NodeRow {
                name: node_name.clone(),
                idle_seconds: idle.as_secs_f64(),
                ..NodeRow::default()
            });
        }
        dispatch_one(shared, node, &node_name, &mut client, task);
    }
}

/// Dispatches one shard task on this dispatcher's connection and
/// routes the outcome (result, node death, or unreachable node).
fn dispatch_one(
    shared: &ClusterShared,
    node: &ServerAddr,
    node_name: &str,
    client: &mut Option<Client>,
    mut task: ShardTask,
) {
    let id = task.dispatch.request.id;
    // A job already delivered (a refutation won, or an error ended it)
    // cancels its still-queued shards.
    if !shared.jobs.lock().unwrap().contains_key(&id) {
        return;
    }
    // Deadline propagation: stamp the client's *remaining* deadline on
    // the shard at dispatch time, so the node can clamp its budget to
    // what is actually left. A task whose deadline is already spent
    // expires the whole job instead of burning a node slot on an answer
    // nobody is waiting for.
    if let Some(deadline_ms) = task.deadline_ms {
        let remaining = charon::deadline::remaining_ms(deadline_ms, task.accepted_at.elapsed());
        if remaining == 0 {
            expire_job(shared, id);
            return;
        }
        task.dispatch.request.deadline_ms = Some(remaining);
    }
    // An unreachable node costs the shard nothing: back off and requeue
    // so another node's dispatcher picks it up. It does count toward the
    // node's breaker, though — enough refused connects trip it.
    let connection = match ensure_client(client, node, shared.node_grace) {
        Ok(connection) => connection,
        Err(_) => {
            shared.counters.node_failures.fetch_add(1, Ordering::Relaxed);
            breaker_note(shared, node_name, false);
            shared.queue.lock().unwrap().push_back(task);
            shared.work.notify_one();
            std::thread::sleep(Duration::from_millis(100));
            return;
        }
    };

    shared
        .counters
        .shards_dispatched
        .fetch_add(1, Ordering::Relaxed);
    if task.kills > 0 {
        shared
            .counters
            .shards_redispatched
            .fetch_add(1, Ordering::Relaxed);
    }
    shared.note_node(&NodeRow {
        name: node_name.to_string(),
        dispatched: 1,
        redispatched: u64::from(task.kills > 0),
        ..NodeRow::default()
    });
    shared.front.journal_transition(&Record::ShardDispatched {
        id,
        shard: task.dispatch.shard,
        node: node_name.to_string(),
    });

    // Injected node kill: sever the connection at this dispatch, as if
    // the node died with the shard in flight.
    if let Some(plan) = &shared.front.faults {
        if plan.node_kill.check() {
            *client = None;
            breaker_note(shared, node_name, false);
            shard_failed(shared, task, node_name, "injected node kill at dispatch");
            return;
        }
    }

    // The read deadline is the shard's effective budget plus grace: a
    // node that blows through it is presumed dead (or stalled, which
    // costs the same). A propagated deadline tightens it, because the
    // node clamps its verification budget to the deadline anyway.
    let shard = &task.dispatch.request;
    let budget_ms = shard.timeout_ms.min(shard.deadline_ms.unwrap_or(u64::MAX));
    let deadline = Duration::from_millis(budget_ms) + shared.node_grace;
    let _ = connection.set_timeouts(Some(deadline), Some(shared.node_grace));
    let response = connection
        .send(&task.dispatch.to_line())
        .and_then(|()| connection.recv());
    let fields = match response {
        Ok(fields) => fields,
        Err(_) => {
            *client = None;
            breaker_note(shared, node_name, false);
            shard_failed(shared, task, node_name, "node connection died mid-shard");
            return;
        }
    };

    // Injected result drop: the shard completed but its result is lost.
    // The node *answered*, so its breaker records a success.
    if let Some(plan) = &shared.front.faults {
        if plan.shard_drop.check() {
            breaker_note(shared, node_name, true);
            shard_failed(shared, task, node_name, "injected shard result drop");
            return;
        }
    }

    match fields.str_field("response").as_deref() {
        Ok("shard_result") => match ShardResult::from_fields(&fields) {
            Ok(result) => {
                breaker_note(shared, node_name, true);
                record_result(shared, node_name, &result);
            }
            Err(_) => {
                *client = None;
                breaker_note(shared, node_name, false);
                shard_failed(shared, task, node_name, "malformed shard_result from node");
            }
        },
        Ok("error") => {
            // The node answered in protocol: healthy as far as the
            // breaker is concerned, even though the job ends in error.
            breaker_note(shared, node_name, true);
            // A typed node error (model missing on that host, malformed
            // property) is not transient: it ends the whole job.
            let code = fields
                .str_field("error")
                .unwrap_or_else(|_| "engine_error".to_string());
            let message = fields
                .opt_str("message")
                .ok()
                .flatten()
                .unwrap_or_else(|| "node reported an error".to_string());
            shared.counters.errored.fetch_add(1, Ordering::Relaxed);
            shared.settle(id, |_| Some(error_response(Some(id), &code, &message)));
        }
        _ => {
            *client = None;
            breaker_note(shared, node_name, false);
            shard_failed(shared, task, node_name, "unexpected response kind from node");
        }
    }
}

/// Records one dispatch outcome against a node's circuit breaker.
fn breaker_note(shared: &ClusterShared, node_name: &str, ok: bool) {
    let mut breakers = shared.breakers.lock().unwrap();
    if let Some(breaker) = breakers.get_mut(node_name) {
        if ok {
            breaker.record_success();
        } else {
            breaker.record_failure(Instant::now());
        }
    }
}

/// Gate at the top of a dispatcher iteration: `true` when this node may
/// take work. While the node's breaker is open, exactly one dispatcher
/// wins the half-open probe after the cooldown (a fresh connection plus
/// `node_hello` handshake) and reports its outcome; everyone else backs
/// off without touching the queue.
fn breaker_admits(
    shared: &ClusterShared,
    node: &ServerAddr,
    node_name: &str,
    client: &mut Option<Client>,
) -> bool {
    let owns_probe = {
        let mut breakers = shared.breakers.lock().unwrap();
        let Some(breaker) = breakers.get_mut(node_name) else {
            return true;
        };
        match breaker.state() {
            BreakerState::Closed => return true,
            // Open pre-cooldown, or another dispatcher owns the probe.
            _ => breaker.try_probe(Instant::now()),
        }
    };
    if !owns_probe {
        return false;
    }
    *client = None;
    let healthy = ensure_client(client, node, shared.node_grace).is_ok();
    if !healthy {
        *client = None;
    }
    breaker_note(shared, node_name, healthy);
    healthy
}

/// Answers a job whose client deadline was spent before its shards
/// could even be dispatched.
fn expire_job(shared: &ClusterShared, id: u64) {
    shared.settle(id, |_| {
        shared
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        Some(error_response(
            Some(id),
            "deadline_expired",
            "job spent its deadline before its shards could be dispatched",
        ))
    });
}

/// Feeds one received shard result into its job's merge and delivers
/// the job verdict if it is now decided.
fn record_result(shared: &ClusterShared, node_name: &str, result: &ShardResult) {
    shared
        .counters
        .shards_completed
        .fetch_add(1, Ordering::Relaxed);
    shared.note_node(&NodeRow {
        name: node_name.to_string(),
        completed: 1,
        ..NodeRow::default()
    });
    // A job missing from the map was already delivered (or never known
    // to this process): the result is a straggler. An out-of-protocol
    // result is dropped; the retry path covers it.
    shared.settle(result.id, |job| {
        job.merge.record(result).ok()?;
        shared.verdict_response(result.id, job)
    });
}

/// Handles a shard whose dispatch failed after it was counted: requeue
/// within the retry budget, quarantine (and poison the job) beyond it.
fn shard_failed(shared: &ClusterShared, mut task: ShardTask, node_name: &str, why: &str) {
    shared.counters.node_failures.fetch_add(1, Ordering::Relaxed);
    task.kills += 1;
    if task.kills < shared.retry_budget {
        shared.queue.lock().unwrap().push_back(task);
        shared.work.notify_one();
        return;
    }
    shared
        .counters
        .shards_quarantined
        .fetch_add(1, Ordering::Relaxed);
    let (id, shard) = (task.dispatch.request.id, task.dispatch.shard);
    let diagnostic = format!(
        "shard {shard} of job {id} killed {} node connection(s) (last on {node_name}): {why}; quarantined",
        task.kills
    );
    // Resolve the shard so the job can settle; the poison marker wins
    // over the synthetic resource limit at delivery time.
    let synthetic = ShardResult {
        id,
        shard,
        verdict: Verdict::ResourceLimit,
        regions: 0,
        seconds: 0.0,
        limit: Some("quarantined".to_string()),
        checkpoint: None,
        cert: None,
    };
    shared.settle(id, |job| {
        job.poison = Some((diagnostic, task.kills));
        let _ = job.merge.record(&synthetic);
        shared.verdict_response(id, job)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon::Counterexample;

    fn result(shard: usize, verdict: Verdict) -> ShardResult {
        ShardResult {
            id: 1,
            shard,
            limit: (verdict == Verdict::ResourceLimit).then(|| "timeout".to_string()),
            verdict,
            regions: 10,
            seconds: 0.1,
            checkpoint: None,
            cert: None,
        }
    }

    fn refuted() -> Verdict {
        Verdict::Refuted(Counterexample {
            point: vec![0.5, 0.5],
            objective: -0.5,
        })
    }

    #[test]
    fn all_verified_merges_to_verified() {
        let mut merge = MergeState::new(3);
        for shard in 0..3 {
            assert!(merge.verdict().is_none(), "undecided before shard {shard}");
            merge.record(&result(shard, Verdict::Verified)).unwrap();
        }
        assert!(matches!(merge.verdict(), Some(Verdict::Verified)));
        assert_eq!(merge.regions(), 30);
    }

    #[test]
    fn one_refutation_wins_immediately_and_late() {
        // Immediately: a refutation decides before the merge completes.
        let mut merge = MergeState::new(3);
        merge.record(&result(1, refuted())).unwrap();
        assert!(matches!(merge.verdict(), Some(Verdict::Refuted(_))));

        // Late: a refutation supersedes the same shard's earlier
        // resource limit (record-and-stop preference).
        let mut merge = MergeState::new(2);
        merge.record(&result(0, Verdict::Verified)).unwrap();
        merge.record(&result(1, Verdict::ResourceLimit)).unwrap();
        assert!(matches!(merge.verdict(), Some(Verdict::ResourceLimit)));
        merge.record(&result(1, refuted())).unwrap();
        let Some(Verdict::Refuted(cex)) = merge.verdict() else {
            panic!("late refutation must supersede the limit");
        };
        assert_eq!(cex.point, vec![0.5, 0.5]);
    }

    #[test]
    fn duplicates_do_not_unresolve_or_flip_decisive_verdicts() {
        let mut merge = MergeState::new(2);
        merge.record(&result(0, Verdict::Verified)).unwrap();
        // A duplicate delivery of the same shard changes nothing.
        assert!(!merge.record(&result(0, Verdict::Verified)).unwrap());
        assert!(!merge.record(&result(0, Verdict::ResourceLimit)).unwrap());
        merge.record(&result(1, Verdict::Verified)).unwrap();
        assert!(matches!(merge.verdict(), Some(Verdict::Verified)));
    }

    #[test]
    fn limited_shards_merge_their_checkpoints() {
        let ckpt = Checkpoint {
            target: 2,
            pending: vec![(domains::Bounds::new(vec![0.0], vec![1.0]), 3)],
            regions_done: 7,
        };
        let mut limited = result(0, Verdict::ResourceLimit);
        limited.checkpoint = Some(ckpt.to_text());
        let mut merge = MergeState::new(2);
        merge.record(&limited).unwrap();
        let mut second = limited.clone();
        second.shard = 1;
        merge.record(&second).unwrap();
        let merged = merge.merged_checkpoint().unwrap();
        assert_eq!(merged.pending.len(), 2);
        assert_eq!(merged.regions_done, 14);
        assert_eq!(merge.limit(), Some("timeout"));
    }

    #[test]
    fn merged_certificate_tiles_the_root_and_rewrites_witness_roots() {
        use charon::{CertVerdict, Certificate};

        // shard_region bisects the longest dimension at its midpoint.
        let root = domains::Bounds::new(vec![0.0, 0.0], vec![2.0, 1.0]);
        let shards = shard_region(&root, 2);
        let part = |region: &domains::Bounds| {
            Certificate {
                net_hash: 11,
                target: 0,
                delta: 1e-9,
                root: region.clone(),
                verdict: CertVerdict::Verified {
                    tree: vec![charon::CertNode::Leaf {
                        domain: "I".to_string(),
                        margin: 0.25,
                    }],
                },
            }
            .to_text()
        };
        let mut merge = MergeState::new(2);
        for (i, region) in shards.iter().enumerate() {
            let mut shard = result(i, Verdict::Verified);
            shard.cert = Some(part(region));
            merge.record(&shard).unwrap();
        }
        let merged = merge.merged_certificate(&root).expect("merges");
        let merged = Certificate::from_text(&merged).expect("parses");
        assert_eq!(merged.root, root);
        assert!(matches!(merged.verdict, CertVerdict::Verified { ref tree } if tree.len() == 3));

        // A refutation's witness certificate is re-rooted at the job's
        // whole region.
        let witness = Certificate {
            net_hash: 11,
            target: 0,
            delta: 1e-9,
            root: shards[1].clone(),
            verdict: CertVerdict::Refuted {
                witness: vec![1.5, 0.5],
                objective: -0.25,
            },
        };
        let mut merge = MergeState::new(2);
        let mut refuted = result(1, refuted());
        refuted.cert = Some(witness.to_text());
        merge.record(&refuted).unwrap();
        let rerooted = merge.merged_certificate(&root).expect("re-roots");
        let rerooted = Certificate::from_text(&rerooted).expect("parses");
        assert_eq!(rerooted.root, root);
        assert!(matches!(rerooted.verdict, CertVerdict::Refuted { .. }));

        // A missing sub-certificate makes the verified merge best-effort
        // None instead of an unsound partial proof.
        let mut merge = MergeState::new(2);
        let mut with = result(0, Verdict::Verified);
        with.cert = Some(part(&shards[0]));
        merge.record(&with).unwrap();
        merge.record(&result(1, Verdict::Verified)).unwrap();
        assert!(merge.merged_certificate(&root).is_none());
    }

    #[test]
    fn record_rejects_out_of_protocol_results() {
        let mut merge = MergeState::new(2);
        assert!(merge.record(&result(5, Verdict::Verified)).is_err(), "range");
    }

    #[test]
    fn delivery_drops_the_job_state_and_stores_the_verdict() {
        let config = CoordinatorConfig {
            nodes: vec![ServerAddr::Tcp("127.0.0.1:9".to_string())],
            shards: 2,
            ..CoordinatorConfig::default()
        };
        let (front, _) = Front::open("coordinator", None, None).unwrap();
        let shared = ClusterShared::new(&config, front);
        let property = RobustnessProperty::new(domains::Bounds::new(vec![0.0], vec![1.0]), 0);
        let request = VerifyRequest {
            id: 1,
            property: property.to_text(),
            ..VerifyRequest::default()
        };
        shared.submit(request, Reply::Recovered);
        assert_eq!(shared.jobs.lock().unwrap().len(), 1);
        assert_eq!(shared.queue.lock().unwrap().len(), 2, "one task per shard");

        record_result(&shared, "n0", &result(0, Verdict::Verified));
        let jobs = || shared.jobs.lock().unwrap().len();
        assert_eq!(jobs(), 1, "undecided until every shard");
        record_result(&shared, "n1", &result(1, Verdict::Verified));
        assert_eq!(jobs(), 0, "delivered jobs leave the map");
        // A straggler for the delivered job is a no-op.
        record_result(&shared, "n0", &result(0, refuted()));
        assert_eq!(jobs(), 0);

        let stored = charon::json::parse_flat_object(&shared.front.query(1)).unwrap();
        assert_eq!(stored.str_field("verdict").unwrap(), "verified");
        assert_eq!(shared.tally().completed, 1);
    }

    #[test]
    fn coordinator_refuses_an_empty_node_list() {
        match Coordinator::start(CoordinatorConfig::default()) {
            Ok(_) => panic!("an empty node list must be rejected"),
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        }
    }
}
