//! The service front-end shared by the daemon ([`crate::Server`]) and
//! the coordinator ([`crate::Coordinator`]).
//!
//! Both tiers speak the same client protocol and make the same
//! delivery promise, so everything between the socket and a tier's
//! work queue lives here once:
//!
//! * the write-ahead journal handle (load-bearing `accepted` records,
//!   best-effort transitions);
//! * admission — refusal while draining, `ack` de-duplication, and the
//!   durable acceptance that precedes the acknowledgement;
//! * delivery of terminal responses, the bounded results store that
//!   answers `query`, and the outstanding-job count a drain waits on;
//! * journal replay of stored results and live jobs;
//! * the accept loop and the per-connection request loop (bounded
//!   reads, idle-timeout reaping, `ping`, `query`, `stats`, `drain`).
//!
//! What a tier adds — the daemon's queue, workers and cache, the
//! coordinator's sharding, dispatchers and merge — sits behind the
//! [`Tier`] hooks.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use charon::json::ObjectBuilder;
use charon::telemetry::{Metrics, OverloadStats};
use domains::Workspace;

use crate::faults::ServerFaultPlan;
use crate::journal::{Journal, Record, RecoveredJob, Replay};
use crate::net::{read_line_bounded, Listener, ServerAddr, Stream, DEFAULT_MAX_LINE_BYTES};
use crate::protocol::{
    accepted_response, error_response, pending_response, pong_response, unknown_response, Request,
    VerifyRequest, PROTOCOL_VERSION,
};

/// Terminal results kept in memory for idempotent `query` re-delivery
/// and `ack` de-duplication; older ones age out (a `query` for them
/// answers `unknown`).
pub const RESULTS_CAPACITY: usize = 1024;

/// Where a job's responses go.
#[derive(Clone)]
pub(crate) enum Reply {
    /// The live submitting connection.
    Socket(Arc<Mutex<Stream>>),
    /// A journal-replayed job whose original connection died with the
    /// previous process; the terminal response is stored for `query`.
    Recovered,
}

pub(crate) fn send_line(reply: &Reply, line: &str) {
    // The client may be gone; a failed response write must not take the
    // service down (Rust already ignores SIGPIPE).
    let Reply::Socket(sock) = reply else { return };
    let mut writer = sock.lock().unwrap();
    let _ = writer.write_all(line.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

/// Whether a terminal response line is *retryable* (`busy`, or a
/// queue-full-class error): those must not be replayed to a
/// deduplicated resubmission as if they were the job's verdict.
fn is_retryable_response(line: &str) -> bool {
    let Ok(fields) = charon::json::parse_flat_object(line) else {
        return false;
    };
    match fields.str_field("response").as_deref() {
        Ok("busy") => true,
        Ok("error") => fields
            .str_field("error")
            .is_ok_and(|code| crate::client::is_retryable_error_code(&code)),
        _ => false,
    }
}

/// Bounded store of terminal responses by job id, answering `query` and
/// deduplicated resubmissions.
#[derive(Default)]
struct ResultsStore {
    map: HashMap<u64, String>,
    order: VecDeque<u64>,
}

impl ResultsStore {
    fn insert(&mut self, id: u64, line: String) {
        if self.map.insert(id, line).is_none() {
            self.order.push_back(id);
            while self.order.len() > RESULTS_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// Counters the front-end itself moves. `accepted` is bumped by the
/// tier once a job is really queued (a daemon answers a full queue
/// `busy` after the acceptance record is already journaled).
#[derive(Default)]
pub(crate) struct FrontCounters {
    pub(crate) accepted: AtomicU64,
    rejected_draining: AtomicU64,
    duplicates: AtomicU64,
    journal_errors: AtomicU64,
    replayed: AtomicU64,
}

/// A tier's own numbers, in the shape the `stats` and `drained`
/// responses render. Counters a tier has no analogue for stay zero, so
/// every tier exposes the same key set.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) workers: u64,
    pub(crate) queue_depth: u64,
    pub(crate) queue_capacity: u64,
    pub(crate) completed: u64,
    pub(crate) checkpointed: u64,
    pub(crate) unstarted: u64,
    pub(crate) rejected_full: u64,
    pub(crate) errored: u64,
    pub(crate) overload: OverloadStats,
    pub(crate) requeued: u64,
    pub(crate) quarantined: u64,
    pub(crate) worker_deaths: u64,
    pub(crate) cache_entries: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) cache_hit_rate: f64,
    pub(crate) registry_models: u64,
    pub(crate) registry_hits: u64,
    pub(crate) registry_misses: u64,
    pub(crate) metrics: Metrics,
}

/// What a service tier plugs into the front-end.
pub(crate) trait Tier: Send + Sync + 'static {
    /// The shared front-end state.
    fn front(&self) -> &Front;
    /// Re-admits a journal-replayed job, already counted accepted,
    /// replayed and outstanding; its responses go to
    /// [`Reply::Recovered`].
    fn resume(&self, job: RecoveredJob);
    /// Admits a submission that passed the drain gate and `ack`
    /// de-duplication: the tier's own checks, then [`Front::accept`],
    /// then its queue.
    fn submit(&self, request: VerifyRequest, reply: Reply);
    /// Answers a cluster-internal request (`shard`, `node_hello`,
    /// `node_stats`); `scratch` is this connection's reusable arena.
    fn node_request(&self, request: Request, scratch: &mut Option<Workspace>) -> String;
    /// Stops the tier's work during a drain; called before every wait
    /// round, so it must be idempotent.
    fn stop_work(&self);
    /// Wakes the tier's own threads once the front-end has shut down.
    fn stopped(&self) {}
    /// The tier's counters for `stats` and `drained`.
    fn tally(&self) -> Tally;
    /// Appends the tier-specific tail of the `stats` response.
    fn stats_tail(&self, tally: &Tally, b: ObjectBuilder) -> ObjectBuilder;
}

/// The front-end state one tier holds.
pub(crate) struct Front {
    /// How refusals name this service (`daemon` or `coordinator`).
    role: &'static str,
    journal: Option<Mutex<Journal>>,
    results: Mutex<ResultsStore>,
    /// Ids of admitted jobs that are not yet terminal.
    live: Mutex<HashSet<u64>>,
    /// Admitted jobs that have not yet reached a terminal response.
    /// Drain waits on this.
    outstanding: Mutex<i64>,
    idle: Condvar,
    pub(crate) draining: AtomicBool,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: FrontCounters,
    /// Deterministic service-level fault injection (tests only).
    pub(crate) faults: Option<Arc<ServerFaultPlan>>,
}

impl Front {
    /// Opens the journal at `journal` (replaying and compacting it) and
    /// returns the front-end plus what replay recovered, for [`serve`].
    pub(crate) fn open(
        role: &'static str,
        journal: Option<&Path>,
        faults: Option<Arc<ServerFaultPlan>>,
    ) -> std::io::Result<(Front, Replay)> {
        let (journal, replay) = match journal {
            Some(path) => {
                let (journal, replay) = Journal::open(path, faults.clone())?;
                (Some(Mutex::new(journal)), replay)
            }
            None => (None, Replay::default()),
        };
        let front = Front {
            role,
            journal,
            results: Mutex::new(ResultsStore::default()),
            live: Mutex::new(HashSet::new()),
            outstanding: Mutex::new(0),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters: FrontCounters::default(),
            faults,
        };
        Ok((front, replay))
    }

    /// Appends a load-bearing record; the caller decides what an error
    /// means (admission refuses the job on failure).
    fn journal_append(&self, record: &Record) -> std::io::Result<()> {
        match &self.journal {
            Some(journal) => journal.lock().unwrap().append(record),
            None => Ok(()),
        }
    }

    /// Appends a best-effort state-transition record; failures are
    /// counted but do not stop the job (replay just redoes more work).
    pub(crate) fn journal_transition(&self, record: &Record) {
        if self.journal_append(record).is_err() {
            self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one admitted job outstanding and live.
    fn admit(&self, id: u64) {
        *self.outstanding.lock().unwrap() += 1;
        self.live.lock().unwrap().insert(id);
    }

    /// The refusal sent while draining.
    pub(crate) fn draining_response(&self, id: u64) -> String {
        let message = format!("{} is draining; resubmit later", self.role);
        error_response(Some(id), "draining", &message)
    }

    /// Answers what the front-end can answer on its own: a submission
    /// while draining is refused, and an `ack` resubmission of an id
    /// that is live or stored (a retry whose ack or verdict was lost in
    /// a crash) is re-answered instead of run twice. Returns whether
    /// the submission was answered here.
    fn answered(&self, request: &VerifyRequest, reply: &Reply) -> bool {
        let id = request.id;
        if self.draining.load(Ordering::SeqCst) {
            self.counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            send_line(reply, &self.draining_response(id));
            return true;
        }
        if !request.ack {
            return false;
        }
        let response = if self.live.lock().unwrap().contains(&id) {
            accepted_response(id, true)
        } else {
            match self.results.lock().unwrap().map.get(&id) {
                Some(stored) => stored.clone(),
                None => return false,
            }
        };
        self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        send_line(reply, &response);
        true
    }

    /// Accepts a submission: the `accepted` record is load-bearing — it
    /// must be on disk before the client hears anything, otherwise a
    /// crash between ack and disk would silently lose an acknowledged
    /// job. The job is then counted outstanding (before the tier makes
    /// it runnable, so a drain never observes an admitted-but-uncounted
    /// job) and, in `ack` mode, acknowledged (before it is runnable, so
    /// the ack always precedes the verdict on the wire). Returns `false`
    /// after answering `journal_error` when the record could not be
    /// written.
    pub(crate) fn accept(&self, request: &VerifyRequest, reply: &Reply) -> bool {
        let id = request.id;
        if let Err(e) = self.journal_append(&Record::Accepted {
            id,
            request: request.clone(),
        }) {
            self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
            let message = format!("journal append: {e}");
            send_line(reply, &error_response(Some(id), "journal_error", &message));
            return false;
        }
        self.admit(id);
        if request.ack {
            send_line(reply, &accepted_response(id, false));
        }
        true
    }

    /// Delivers a terminal response for an admitted job: journals the
    /// completion, stores it for `query`, releases the id, writes it to
    /// the submitter if the connection is still there, and settles the
    /// drain accounting.
    pub(crate) fn deliver(&self, id: u64, reply: &Reply, response: &str) {
        self.journal_transition(&Record::Completed {
            id,
            response: response.to_string(),
        });
        if !is_retryable_response(response) {
            self.results
                .lock()
                .unwrap()
                .insert(id, response.to_string());
        }
        self.live.lock().unwrap().remove(&id);
        send_line(reply, response);
        *self.outstanding.lock().unwrap() -= 1;
        self.idle.notify_all();
    }

    /// The `query` answer: the stored terminal response, `pending` for
    /// a live job, `unknown` otherwise.
    pub(crate) fn query(&self, id: u64) -> String {
        let stored = self.results.lock().unwrap().map.get(&id).cloned();
        match stored {
            Some(line) => line,
            None if self.live.lock().unwrap().contains(&id) => pending_response(id),
            None => unknown_response(id),
        }
    }

    /// Runs `each_round` until every admitted job is terminal.
    fn wait_drained(&self, mut each_round: impl FnMut()) {
        loop {
            each_round();
            let outstanding = self.outstanding.lock().unwrap();
            if *outstanding <= 0 {
                break;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(outstanding, Duration::from_millis(10))
                .unwrap();
            if *guard <= 0 {
                break;
            }
        }
    }

    /// The drain summary: `accepted == completed + checkpointed +
    /// unstarted` proves no admitted job went unanswered (`lost` is the
    /// difference).
    fn drained_response(&self, tally: &Tally) -> String {
        let accepted = self.counters.accepted.load(Ordering::Relaxed);
        let answered = tally.completed + tally.checkpointed + tally.unstarted;
        ObjectBuilder::new()
            .str("response", "drained")
            .int("accepted", accepted)
            .int("completed", tally.completed)
            .int("checkpointed", tally.checkpointed)
            .int("unstarted", tally.unstarted)
            .int("replayed", self.counters.replayed.load(Ordering::Relaxed))
            .int("requeued", tally.requeued)
            .int("quarantined", tally.quarantined)
            .num("lost", (accepted as i64 - answered as i64) as f64)
            .build()
    }

    /// The `stats` response: the key set every tier shares, then the
    /// tier's tail.
    fn stats_response(&self, tier: &impl Tier) -> String {
        let t = tier.tally();
        let c = &self.counters;
        let (journal_enabled, journal_appends) = match &self.journal {
            Some(journal) => (1, journal.lock().unwrap().appends()),
            None => (0, 0),
        };
        let b = ObjectBuilder::new()
            .str("response", "stats")
            .int("protocol", PROTOCOL_VERSION)
            .int("workers", t.workers)
            .int("queue_depth", t.queue_depth)
            .int("queue_capacity", t.queue_capacity)
            .int("draining", u64::from(self.draining.load(Ordering::SeqCst)))
            .int("accepted", c.accepted.load(Ordering::Relaxed))
            .int("completed", t.completed)
            .int("checkpointed", t.checkpointed)
            .int("unstarted", t.unstarted)
            .int("rejected_full", t.rejected_full)
            .int(
                "rejected_draining",
                c.rejected_draining.load(Ordering::Relaxed),
            )
            .int("errored", t.errored);
        let b = t
            .overload
            .fields(b)
            .int("replayed", c.replayed.load(Ordering::Relaxed))
            .int("requeued", t.requeued)
            .int("quarantined", t.quarantined)
            .int("worker_deaths", t.worker_deaths)
            .int("duplicates", c.duplicates.load(Ordering::Relaxed))
            .int("journal_errors", c.journal_errors.load(Ordering::Relaxed))
            .int("journal_enabled", journal_enabled)
            .int("journal_appends", journal_appends)
            .int(
                "results_entries",
                self.results.lock().unwrap().map.len() as u64,
            )
            .int("cache_entries", t.cache_entries)
            .int("cache_hits", t.cache_hits)
            .int("cache_misses", t.cache_misses)
            .int("cache_evictions", t.cache_evictions)
            .num("cache_hit_rate", t.cache_hit_rate)
            .int("registry_models", t.registry_models)
            .int("registry_hits", t.registry_hits)
            .int("registry_misses", t.registry_misses)
            .int("attack_calls", t.metrics.attack_calls)
            .num("attack_seconds", t.metrics.attack_seconds)
            .int("propagation_calls", t.metrics.propagation_calls)
            .num("propagation_seconds", t.metrics.propagation_seconds)
            .int("policy_calls", t.metrics.policy_calls)
            .num("policy_seconds", t.metrics.policy_seconds);
        tier.stats_tail(&t, b).build()
    }
}

/// Re-admits what the journal replay recovered — stored results become
/// queryable, live jobs go back to the tier — then runs the accept loop
/// on its own thread until a `drain` shuts the front-end down.
pub(crate) fn serve<T: Tier>(
    tier: Arc<T>,
    replay: Replay,
    listener: Listener,
    addr: ServerAddr,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> JoinHandle<()> {
    let front = tier.front();
    {
        let mut results = front.results.lock().unwrap();
        for (id, response) in replay.results {
            if !is_retryable_response(&response) {
                results.insert(id, response);
            }
        }
    }
    for job in replay.live {
        front.counters.accepted.fetch_add(1, Ordering::Relaxed);
        front.counters.replayed.fetch_add(1, Ordering::Relaxed);
        front.admit(job.request.id);
        tier.resume(job);
    }
    std::thread::spawn(move || {
        let front = tier.front();
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if front.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Some(plan) = &front.faults {
                        if plan.conn_drop.check() {
                            stream.shutdown();
                            continue;
                        }
                    }
                    let _ = stream.set_read_timeout(read_timeout);
                    let _ = stream.set_write_timeout(write_timeout);
                    let tier = Arc::clone(&tier);
                    let addr = addr.clone();
                    std::thread::spawn(move || connection_loop(tier.as_ref(), stream, &addr));
                }
                Err(_) => {
                    if front.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        if let ServerAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
    })
}

fn connection_loop(tier: &impl Tier, stream: Stream, addr: &ServerAddr) {
    let front = tier.front();
    let sock: Arc<Mutex<Stream>> = match stream.try_clone() {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(_) => return,
    };
    let reply = Reply::Socket(Arc::clone(&sock));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Shard requests (cluster tier) execute synchronously on this
    // connection thread; the scratch arena is created on first use so
    // plain clients pay nothing for it.
    let mut scratch: Option<Workspace> = None;
    loop {
        line.clear();
        match read_line_bounded(&mut reader, &mut line, DEFAULT_MAX_LINE_BYTES) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                send_line(&reply, &error_response(None, "bad_request", &e.to_string()));
                return;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle-timeout policy: close only if no queued or
                // in-flight job still holds this connection's reply
                // handle; otherwise keep waiting for the next request.
                // Two references are the connection's own (`sock` plus
                // the clone inside `reply`); anything beyond that is a
                // job that still owes this client a response.
                if Arc::strong_count(&sock) <= 2 {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = match Request::parse(trimmed) {
            Err(e) => error_response(None, "bad_request", &e),
            Ok(Request::Ping) => pong_response(),
            Ok(Request::Stats) => front.stats_response(tier),
            Ok(Request::Query { id }) => front.query(id),
            Ok(Request::Verify(request)) => {
                if !front.answered(&request, &reply) {
                    tier.submit(request, reply.clone());
                }
                continue;
            }
            Ok(Request::Drain) => {
                // Stop admission, stop the tier's work, and wait for
                // the accounting to balance.
                front.draining.store(true, Ordering::SeqCst);
                front.wait_drained(|| tier.stop_work());
                // Write the summary before waking the listener: once the
                // listener exits, the hosting process may exit, killing
                // this thread. The response must already be on the wire
                // by then.
                send_line(&reply, &front.drained_response(&tier.tally()));
                front.shutdown.store(true, Ordering::SeqCst);
                tier.stopped();
                let _ = Stream::connect(addr);
                return;
            }
            Ok(other) => tier.node_request(other, &mut scratch),
        };
        send_line(&reply, &response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_store_keeps_the_most_recent_capacity_entries() {
        let mut store = ResultsStore::default();
        for id in 0..(RESULTS_CAPACITY as u64 + 10) {
            store.insert(id, format!("line {id}"));
        }
        // Re-inserting a stored id neither duplicates nor evicts.
        store.insert(RESULTS_CAPACITY as u64, "again".to_string());
        assert_eq!(store.map.len(), RESULTS_CAPACITY);
        assert!(!store.map.contains_key(&9), "oldest entries age out");
        assert_eq!(store.map[&10], "line 10");
    }

    #[test]
    fn only_verdict_class_responses_are_stored() {
        assert!(is_retryable_response(&crate::protocol::busy_response(
            1, 5, "shed"
        )));
        let draining = error_response(Some(1), "draining", "resubmit later");
        assert!(is_retryable_response(&draining));
        let expired = error_response(Some(1), "deadline_expired", "late");
        assert!(!is_retryable_response(&expired));
        assert!(!is_retryable_response(&unknown_response(1)));
    }
}
