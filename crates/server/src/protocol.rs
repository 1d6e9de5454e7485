//! The daemon's wire protocol: one flat JSON object per line, using the
//! workspace's hand-rolled codec ([`charon::json`]) in both directions.
//!
//! Requests carry a `"request"` discriminator, responses a `"response"`
//! discriminator; verify responses echo the client-chosen `"id"` so
//! pipelined submissions can be matched up out of order. Multi-line
//! payloads (the `charon-prop` property text, `charon-ckpt` checkpoint
//! text) travel as JSON strings with escaped newlines.
//!
//! ```text
//! → {"request": "verify", "id": 1, "network": "/tmp/net.txt", "property": "charon-prop 1\n..."}
//! ← {"response": "verdict", "id": 1, "verdict": "verified", "cached": 0, ...}
//! ```

use charon::json::{parse_flat_object, Fields, ObjectBuilder};
use charon::{Checkpoint, Counterexample, Verdict, VerifyRun};

/// Protocol version, echoed by `ping` and `stats` responses.
///
/// Version 2 added the crash-only surface: the `ack` submission flag
/// (journaled-acceptance acknowledgement + duplicate-id detection), the
/// `query` request, and the `accepted` / `pending` / `unknown` /
/// `poisoned` responses. Version 3 adds the cluster surface: the
/// `shard` / `node_hello` / `node_stats` requests and the
/// `shard_result` / `node_hello` / `node_stats` responses used between
/// a coordinator and its shard-worker nodes. Version 4 adds certified
/// verdicts: the optional `cert` flag on `verify` and `shard` requests,
/// and the optional `cert` field (a `charon-cert 1` text) on `verdict`
/// and `shard_result` responses. Version 5 adds the overload surface:
/// `deadline_ms` on `shard` requests (it already existed on `verify`)
/// so the remaining client deadline travels with every dispatch, and
/// the `busy` response — the server's refusal to queue a submission
/// (queue at capacity, or the sojourn-time shed controller firing)
/// carrying a `retry_after_ms` hint derived from the observed queue
/// drain rate. Older clients are unaffected: every new behavior is
/// opt-in, and a v4 client simply never sees `busy` semantics it can't
/// handle (it retries on any error it recognizes).
pub const PROTOCOL_VERSION: u64 = 5;

/// Every request discriminator the daemon understands, in the order
/// they joined the protocol. `scripts/ci.sh` greps `docs/PROTOCOL.md`
/// for each entry, so adding a kind here without documenting it fails
/// CI. Keep each list on one line — the CI extraction is line-oriented.
pub const REQUEST_KINDS: &[&str] = &["verify", "query", "stats", "drain", "ping", "shard", "node_hello", "node_stats"];

/// Every response discriminator the daemon emits (same CI contract as
/// [`REQUEST_KINDS`]).
pub const RESPONSE_KINDS: &[&str] = &["verdict", "error", "checkpointed", "unstarted", "accepted", "pending", "unknown", "pong", "drained", "shard_result", "node_hello", "node_stats", "busy"];

/// Default per-job verification wall-clock budget (ms) when the request
/// does not set one.
pub const DEFAULT_TIMEOUT_MS: u64 = 10_000;

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a verification job.
    Verify(VerifyRequest),
    /// Look up the stored terminal result for a job id (idempotent
    /// re-delivery after a reconnect or a daemon restart).
    Query {
        /// The job id to look up.
        id: u64,
    },
    /// Report queue/cache/latency statistics.
    Stats,
    /// Gracefully drain and shut down the daemon.
    Drain,
    /// Liveness probe.
    Ping,
    /// Execute one shard of a coordinator-split job synchronously on
    /// this connection (cluster tier, protocol ≥ 3).
    Shard(ShardRequest),
    /// Version/capability negotiation from a coordinator to a node.
    NodeHello,
    /// Report a node's shard-execution counters.
    NodeStats,
}

/// A verification job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// Client-chosen id echoed in every response for this job.
    pub id: u64,
    /// Path (on the daemon's filesystem) of the `charon-net` file.
    pub network: String,
    /// Inline `charon-prop 1` property text.
    pub property: String,
    /// Scheduling priority; higher runs earlier (default 0).
    pub priority: i64,
    /// Optional deadline in ms from admission; a job still queued (or
    /// not finished) past it completes with `deadline_expired`.
    pub deadline_ms: Option<u64>,
    /// Verification wall-clock budget in ms.
    pub timeout_ms: u64,
    /// δ of the δ-complete check.
    pub delta: f64,
    /// Region-count budget.
    pub max_regions: usize,
    /// Random restarts per counterexample search.
    pub restarts: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Whether gradient-based counterexample search is enabled.
    pub cex_search: bool,
    /// Opt into crash-only semantics: the daemon journals the job and
    /// sends an `accepted` acknowledgement before the verdict, and a
    /// duplicate id (a retry of a submission whose ack was lost) is
    /// deduplicated instead of re-verified. Defaults off so version-1
    /// clients see the original fire-and-wait behavior.
    pub ack: bool,
    /// Request a proof certificate (`charon-cert 1` text in the
    /// verdict response's `cert` field) for a decisive verdict.
    /// Defaults off: certificates cost extra memory per region and
    /// bulk on the wire. Like `ack`, this changes the delivery
    /// payload, never the verdict, so it is excluded from
    /// [`VerifyRequest::config_key`] — a cache hit computed without
    /// certification simply answers without a `cert` field.
    pub cert: bool,
}

impl VerifyRequest {
    /// Fingerprint of the verdict-relevant verifier configuration, used
    /// as the third component of the result-cache key.
    ///
    /// Budgets (`timeout_ms`, `max_regions`, `deadline_ms`) are
    /// deliberately excluded: only decisive verdicts are cached, and a
    /// decisive verdict is sound under any budget. Parameters that can
    /// change *which* decisive verdict is reached (δ, the restart count,
    /// the seed, the search switch) are all included.
    pub fn config_key(&self) -> String {
        format!(
            "delta={:016x};restarts={};seed={};cex={}",
            self.delta.to_bits(),
            self.restarts,
            self.seed,
            u8::from(self.cex_search)
        )
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field; the server
    /// reports it back as a `bad_request` error response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_flat_object(line)?;
        match fields.str_field("request")?.as_str() {
            "verify" => Ok(Request::Verify(VerifyRequest::from_fields(&fields)?)),
            "query" => Ok(Request::Query {
                id: fields.usize_field("id")? as u64,
            }),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "ping" => Ok(Request::Ping),
            "shard" => Ok(Request::Shard(ShardRequest::from_fields(&fields)?)),
            "node_hello" => Ok(Request::NodeHello),
            "node_stats" => Ok(Request::NodeStats),
            other => Err(format!("unknown request kind {other:?}")),
        }
    }
}

impl VerifyRequest {
    fn from_fields(fields: &Fields) -> Result<VerifyRequest, String> {
        let timeout_ms = fields
            .opt_usize("timeout_ms")?
            .map_or(DEFAULT_TIMEOUT_MS, |v| v as u64);
        if timeout_ms == 0 {
            return Err("timeout_ms must be positive".to_string());
        }
        Ok(VerifyRequest {
            id: fields.opt_usize("id")?.unwrap_or(0) as u64,
            network: fields.str_field("network")?,
            property: fields.str_field("property")?,
            priority: fields.opt_f64("priority")?.map_or(0, |v| v as i64),
            deadline_ms: fields.opt_usize("deadline_ms")?.map(|v| v as u64),
            timeout_ms,
            delta: fields.opt_f64("delta")?.unwrap_or(1e-9),
            max_regions: fields.opt_usize("max_regions")?.unwrap_or(200_000),
            restarts: fields.opt_usize("restarts")?.unwrap_or(2),
            seed: fields.opt_usize("seed")?.unwrap_or(0) as u64,
            cex_search: fields.opt_usize("cex_search")? != Some(0),
            ack: fields.opt_usize("ack")? == Some(1),
            cert: fields.opt_usize("cert")? == Some(1),
        })
    }

    /// Renders this request back to its wire form (used by clients).
    pub fn to_line(&self) -> String {
        self.render(None)
    }

    /// The one field codec behind `verify` and `shard` lines: a shard
    /// line carries its index after the id and no priority (a node runs
    /// one shard at a time on the dispatching connection).
    fn render(&self, shard: Option<usize>) -> String {
        let kind = if shard.is_some() { "shard" } else { "verify" };
        let mut b = ObjectBuilder::new().str("request", kind).int("id", self.id);
        if let Some(index) = shard {
            b = b.int("shard", index as u64);
        }
        b = b
            .str("network", &self.network)
            .str("property", &self.property);
        if shard.is_none() {
            b = b.num("priority", self.priority as f64);
        }
        b = b
            .int("timeout_ms", self.timeout_ms)
            .num("delta", self.delta)
            .int("max_regions", self.max_regions as u64)
            .int("restarts", self.restarts as u64)
            .int("seed", self.seed)
            .int("cex_search", u64::from(self.cex_search));
        if let Some(deadline) = self.deadline_ms {
            b = b.int("deadline_ms", deadline);
        }
        if self.ack {
            b = b.int("ack", 1);
        }
        if self.cert {
            b = b.int("cert", 1);
        }
        b.build()
    }

    /// Renders the `query` request for this job's id.
    pub fn query_line(id: u64) -> String {
        ObjectBuilder::new()
            .str("request", "query")
            .int("id", id)
            .build()
    }
}

impl Default for VerifyRequest {
    fn default() -> Self {
        VerifyRequest {
            id: 0,
            network: String::new(),
            property: String::new(),
            priority: 0,
            deadline_ms: None,
            timeout_ms: DEFAULT_TIMEOUT_MS,
            delta: 1e-9,
            max_regions: 200_000,
            restarts: 2,
            seed: 0,
            cex_search: true,
            ack: false,
            cert: false,
        }
    }
}

/// One shard of a coordinator-split verification job: the job's
/// request with the shard's sub-region, plus the shard index.
///
/// The property text already carries the shard's sub-region (the
/// coordinator rewrites the region with
/// `RobustnessProperty::with_region` before dispatch), so a node
/// executes a shard exactly like a stand-alone verification — it does
/// not know or care that the region is a fragment. On the wire a shard
/// uses the `verify` field codec; its `deadline_ms` is the client's
/// *remaining* deadline at dispatch time (protocol ≥ 5), and its `seed`
/// is perturbed per shard so shards do not run identical attack
/// schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Shard index within the job (0-based, unique per job).
    pub shard: usize,
    /// The job's request fields for this shard; `id` is the
    /// coordinator-side job id.
    pub request: VerifyRequest,
}

impl ShardRequest {
    fn from_fields(fields: &Fields) -> Result<ShardRequest, String> {
        // A shard always names its job.
        fields.usize_field("id")?;
        Ok(ShardRequest {
            shard: fields.usize_field("shard")?,
            request: VerifyRequest::from_fields(fields)?,
        })
    }

    /// Renders this shard back to its wire form (used by the
    /// coordinator's dispatchers).
    pub fn to_line(&self) -> String {
        self.request.render(Some(self.shard))
    }
}

/// A node's answer to a [`ShardRequest`]: the shard's verdict plus the
/// evidence the coordinator needs to merge it (the witness inside a
/// refutation, a resumable checkpoint for resource limits).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The job id echoed from the shard request.
    pub id: u64,
    /// The shard index echoed from the shard request.
    pub shard: usize,
    /// The shard's verdict; a refutation carries its counterexample.
    pub verdict: Verdict,
    /// Regions the node processed while deciding this shard.
    pub regions: usize,
    /// Node-side wall-clock seconds spent on this shard.
    pub seconds: f64,
    /// Which budget stopped the shard, in [`charon::BudgetKind`]'s
    /// display form (`"timeout"`, `"region budget"`, `"cancelled"`,
    /// `"numeric precision floor"`; resource-limit only).
    pub limit: Option<String>,
    /// `charon-ckpt 1` text of the undecided remainder (resource-limit
    /// shards only; may be absent if nothing was pending).
    pub checkpoint: Option<String>,
    /// `charon-cert 1` text of this shard's sub-certificate (only when
    /// the shard request set `cert` and the shard was decisive).
    pub cert: Option<String>,
}

impl ShardResult {
    /// The result of shard `shard` of job `id` from the node's finished
    /// run, which took `seconds`.
    pub fn from_run(id: u64, shard: usize, run: &VerifyRun, seconds: f64) -> ShardResult {
        ShardResult {
            id,
            shard,
            verdict: run.verdict.clone(),
            regions: run.stats.regions,
            seconds,
            limit: run.limit.map(|kind| kind.to_string()),
            checkpoint: run.checkpoint.as_ref().map(Checkpoint::to_text),
            cert: run.certificate.as_ref().map(|cert| cert.to_text()),
        }
    }

    /// Parses a `shard_result` response line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn parse(line: &str) -> Result<ShardResult, String> {
        let fields = parse_flat_object(line)?;
        if fields.str_field("response")? != "shard_result" {
            return Err("not a shard_result response".to_string());
        }
        ShardResult::from_fields(&fields)
    }

    /// Re-types the fields of a parsed `shard_result` response: the one
    /// place the wire's verdict names turn back into a [`Verdict`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field, including a
    /// `refuted` verdict without its `objective` or `counterexample`.
    pub fn from_fields(fields: &Fields) -> Result<ShardResult, String> {
        let verdict = match fields.str_field("verdict")?.as_str() {
            "verified" => Verdict::Verified,
            "refuted" => Verdict::Refuted(Counterexample {
                point: fields.arr_field("counterexample")?,
                objective: fields.f64_field("objective")?,
            }),
            "resource_limit" => Verdict::ResourceLimit,
            other => return Err(format!("unknown shard verdict {other:?}")),
        };
        Ok(ShardResult {
            id: fields.usize_field("id")? as u64,
            shard: fields.usize_field("shard")?,
            verdict,
            regions: fields.opt_usize("regions")?.unwrap_or(0),
            seconds: fields.opt_f64("seconds")?.unwrap_or(0.0),
            limit: fields.opt_str("limit")?,
            checkpoint: fields.opt_str("checkpoint")?,
            cert: fields.opt_str("cert")?,
        })
    }

    /// Renders this result to its wire form (used by nodes).
    pub fn to_line(&self) -> String {
        let b = ObjectBuilder::new()
            .str("response", "shard_result")
            .int("id", self.id)
            .int("shard", self.shard as u64);
        let mut b = verdict_fields(b, &self.verdict)
            .int("regions", self.regions as u64)
            .num("seconds", self.seconds);
        if let Some(limit) = &self.limit {
            b = b.str("limit", limit);
        }
        if let Some(checkpoint) = &self.checkpoint {
            b = b.str("checkpoint", checkpoint);
        }
        if let Some(cert) = &self.cert {
            b = b.str("cert", cert);
        }
        b.build()
    }
}

/// Appends the keys that depend on the verdict: its name and, for a
/// refutation, the witness's `objective` and `counterexample`. Every
/// `verdict` line except `poisoned` and every `shard_result` line write
/// these keys here.
pub(crate) fn verdict_fields(b: ObjectBuilder, verdict: &Verdict) -> ObjectBuilder {
    let b = b.str("verdict", verdict.name());
    match verdict {
        Verdict::Refuted(cex) => b
            .num("objective", cex.objective)
            .arr("counterexample", &cex.point),
        _ => b,
    }
}

/// Starts a `verdict` response for job `id` with its verdict keys.
pub(crate) fn verdict_response(id: u64, verdict: &Verdict) -> ObjectBuilder {
    let b = ObjectBuilder::new().str("response", "verdict").int("id", id);
    verdict_fields(b, verdict)
}

/// Builds a node's answer to `node_hello`: the protocol version it
/// speaks and how many verification workers it runs. A coordinator
/// refuses nodes whose protocol is older than its own.
pub fn node_hello_response(workers: usize) -> String {
    ObjectBuilder::new()
        .str("response", "node_hello")
        .int("protocol", PROTOCOL_VERSION)
        .int("workers", workers as u64)
        .build()
}

/// Builds a node's `node_stats` response from its shard counters.
pub fn node_stats_response(executed: u64, refuted: u64, limited: u64) -> String {
    ObjectBuilder::new()
        .str("response", "node_stats")
        .int("protocol", PROTOCOL_VERSION)
        .int("shards_executed", executed)
        .int("shards_refuted", refuted)
        .int("shards_limited", limited)
        .build()
}

/// Builds an error response. `code` is machine-readable (`queue_full`,
/// `draining`, `bad_request`, `model_error`, `engine_error`,
/// `deadline_expired`); `message` is for humans.
pub fn error_response(id: Option<u64>, code: &str, message: &str) -> String {
    let mut b = ObjectBuilder::new().str("response", "error");
    if let Some(id) = id {
        b = b.int("id", id);
    }
    b.str("error", code).str("message", message).build()
}

/// Builds the response for a job interrupted by a drain: the submitter
/// receives the `charon-ckpt` text to resume from.
pub fn checkpointed_response(id: u64, checkpoint_text: &str, regions_done: usize) -> String {
    ObjectBuilder::new()
        .str("response", "checkpointed")
        .int("id", id)
        .int("regions_done", regions_done as u64)
        .str("checkpoint", checkpoint_text)
        .build()
}

/// Builds the response for a job that was still queued when the daemon
/// drained: never started, safe to resubmit elsewhere.
pub fn unstarted_response(id: u64) -> String {
    ObjectBuilder::new()
        .str("response", "unstarted")
        .int("id", id)
        .build()
}

/// Builds the acknowledgement sent once an `ack`-mode submission has
/// been journaled and enqueued. `duplicate` marks a resubmission of an
/// id the daemon already holds live (the verdict will arrive on the
/// original owner's connection; this submitter should poll `query`).
pub fn accepted_response(id: u64, duplicate: bool) -> String {
    let mut b = ObjectBuilder::new().str("response", "accepted").int("id", id);
    if duplicate {
        b = b.int("duplicate", 1);
    }
    b.build()
}

/// Builds the `query` response for a job that is known but not yet
/// terminal.
pub fn pending_response(id: u64) -> String {
    ObjectBuilder::new()
        .str("response", "pending")
        .int("id", id)
        .build()
}

/// Builds the `query` response for a job id the daemon has no record
/// of (never accepted here, or its result aged out of retention).
pub fn unknown_response(id: u64) -> String {
    ObjectBuilder::new()
        .str("response", "unknown")
        .int("id", id)
        .build()
}

/// Builds the quarantine verdict for a poison job: one that killed its
/// worker more times than the retry budget allows. The panic diagnostic
/// travels to the submitter instead of crash-looping the fleet.
pub fn poisoned_response(id: u64, diagnostic: &str, attempts: u32) -> String {
    ObjectBuilder::new()
        .str("response", "verdict")
        .int("id", id)
        .str("verdict", "poisoned")
        .int("attempts", u64::from(attempts))
        .str("diagnostic", diagnostic)
        .build()
}

/// Builds the overload refusal (protocol ≥ 5): the daemon declined to
/// queue this submission and the client should retry no sooner than
/// `retry_after_ms` from now. `reason` is machine-readable —
/// `"queue_full"` (bounded queue at capacity) or `"shed"` (the
/// sojourn-time controller is holding queue latency at its target).
/// Unlike an `error` response, `busy` is always retryable and always
/// carries a server-computed backoff hint.
pub fn busy_response(id: u64, retry_after_ms: u64, reason: &str) -> String {
    ObjectBuilder::new()
        .str("response", "busy")
        .int("id", id)
        .int("retry_after_ms", retry_after_ms)
        .str("reason", reason)
        .build()
}

/// Builds the `ping` response.
pub fn pong_response() -> String {
    ObjectBuilder::new()
        .str("response", "pong")
        .int("protocol", PROTOCOL_VERSION)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_request_round_trips_through_wire_form() {
        let request = VerifyRequest {
            id: 7,
            network: "/tmp/a.net".to_string(),
            property: "charon-prop 1\ntarget 3\nend\n".to_string(),
            priority: -2,
            deadline_ms: Some(1500),
            timeout_ms: 250,
            delta: 1e-6,
            max_regions: 1000,
            restarts: 5,
            seed: 99,
            cex_search: false,
            ack: true,
            cert: true,
        };
        match Request::parse(&request.to_line()).unwrap() {
            Request::Verify(parsed) => assert_eq!(parsed, request),
            other => panic!("expected verify, got {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_in_missing_optionals() {
        let line = "{\"request\": \"verify\", \"network\": \"n\", \"property\": \"p\"}";
        match Request::parse(line).unwrap() {
            Request::Verify(v) => {
                assert_eq!(v.id, 0);
                assert_eq!(v.priority, 0);
                assert_eq!(v.deadline_ms, None);
                assert_eq!(v.timeout_ms, DEFAULT_TIMEOUT_MS);
                assert!(v.cex_search);
            }
            other => panic!("expected verify, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(Request::parse("{\"request\": \"stats\"}").unwrap(), Request::Stats);
        assert_eq!(Request::parse("{\"request\": \"drain\"}").unwrap(), Request::Drain);
        assert_eq!(Request::parse("{\"request\": \"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("{\"request\": \"query\", \"id\": 12}").unwrap(),
            Request::Query { id: 12 }
        );
        assert!(Request::parse("{\"request\": \"query\"}").is_err(), "query needs an id");
        assert!(Request::parse("{\"request\": \"explode\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"request\": \"verify\"}").is_err(), "missing fields");
    }

    #[test]
    fn ack_flag_round_trips_and_defaults_off() {
        let mut request = VerifyRequest {
            network: "n".to_string(),
            property: "p".to_string(),
            ..VerifyRequest::default()
        };
        assert!(!request.ack);
        assert!(!request.to_line().contains("\"ack\""), "off the wire when unset");
        request.ack = true;
        match Request::parse(&request.to_line()).unwrap() {
            Request::Verify(parsed) => assert!(parsed.ack),
            other => panic!("expected verify, got {other:?}"),
        }
        // `ack` changes delivery, never the verdict: same cache key.
        let mut plain = request.clone();
        plain.ack = false;
        assert_eq!(request.config_key(), plain.config_key());
    }

    #[test]
    fn cert_flag_round_trips_and_defaults_off() {
        let mut request = VerifyRequest {
            network: "n".to_string(),
            property: "p".to_string(),
            ..VerifyRequest::default()
        };
        assert!(!request.cert);
        assert!(!request.to_line().contains("\"cert\""), "off the wire when unset");
        request.cert = true;
        match Request::parse(&request.to_line()).unwrap() {
            Request::Verify(parsed) => assert!(parsed.cert),
            other => panic!("expected verify, got {other:?}"),
        }
        // Like `ack`, `cert` changes the payload, never the verdict.
        let mut plain = request.clone();
        plain.cert = false;
        assert_eq!(request.config_key(), plain.config_key());
    }

    #[test]
    fn shard_request_round_trips_through_wire_form() {
        let shard = ShardRequest {
            shard: 3,
            request: VerifyRequest {
                id: 41,
                network: "/tmp/a.net".to_string(),
                property: "charon-prop 1\ntarget 2\nend\n".to_string(),
                timeout_ms: 800,
                deadline_ms: Some(650),
                delta: 1e-6,
                max_regions: 4096,
                restarts: 3,
                seed: 12345,
                cex_search: false,
                cert: true,
                ..VerifyRequest::default()
            },
        };
        match Request::parse(&shard.to_line()).unwrap() {
            Request::Shard(parsed) => assert_eq!(parsed, shard),
            other => panic!("expected shard, got {other:?}"),
        }
        // deadline_ms stays off the wire when unset (v4 nodes parse it).
        let mut unbounded = shard.clone();
        unbounded.request.deadline_ms = None;
        assert!(!unbounded.to_line().contains("deadline_ms"));
        match Request::parse(&unbounded.to_line()).unwrap() {
            Request::Shard(parsed) => assert_eq!(parsed.request.deadline_ms, None),
            other => panic!("expected shard, got {other:?}"),
        }
        assert_eq!(
            Request::parse("{\"request\": \"node_hello\"}").unwrap(),
            Request::NodeHello
        );
        assert_eq!(
            Request::parse("{\"request\": \"node_stats\"}").unwrap(),
            Request::NodeStats
        );
        assert!(
            Request::parse("{\"request\": \"shard\", \"id\": 1}").is_err(),
            "shard needs its payload fields"
        );
    }

    #[test]
    fn verify_and_shard_lines_share_one_codec_with_pinned_bytes() {
        let shard = ShardRequest {
            shard: 3,
            request: VerifyRequest {
                id: 41,
                network: "/tmp/a.net".to_string(),
                property: "charon-prop 1\ntarget 2\nend\n".to_string(),
                timeout_ms: 800,
                deadline_ms: Some(650),
                delta: 1e-6,
                max_regions: 4096,
                restarts: 3,
                seed: 12345,
                cex_search: false,
                cert: true,
                ..VerifyRequest::default()
            },
        };
        assert_eq!(
            shard.to_line(),
            r#"{"request": "shard", "id": 41, "shard": 3, "network": "/tmp/a.net", "property": "charon-prop 1\ntarget 2\nend\n", "timeout_ms": 800, "delta": 1e-6, "max_regions": 4096, "restarts": 3, "seed": 12345, "cex_search": 0, "deadline_ms": 650, "cert": 1}"#
        );
        let verify = VerifyRequest {
            id: 7,
            network: "n".to_string(),
            property: "p".to_string(),
            priority: -2,
            deadline_ms: Some(5),
            ack: true,
            cert: true,
            ..VerifyRequest::default()
        };
        assert_eq!(
            verify.to_line(),
            r#"{"request": "verify", "id": 7, "network": "n", "property": "p", "priority": -2.0, "timeout_ms": 10000, "delta": 1e-9, "max_regions": 200000, "restarts": 2, "seed": 0, "cex_search": 1, "deadline_ms": 5, "ack": 1, "cert": 1}"#
        );
    }

    #[test]
    fn shard_result_round_trips_every_verdict_shape() {
        let verified = ShardResult {
            id: 9,
            shard: 0,
            verdict: Verdict::Verified,
            regions: 120,
            seconds: 0.25,
            limit: None,
            checkpoint: None,
            cert: None,
        };
        assert_eq!(ShardResult::parse(&verified.to_line()).unwrap(), verified);

        // Certificate text embeds newlines too; same wire escape rules.
        let certified = ShardResult {
            cert: Some("charon-cert 1\nnet 0000000000000009\nend\n".to_string()),
            ..verified.clone()
        };
        assert_eq!(ShardResult::parse(&certified.to_line()).unwrap(), certified);

        let refuted = ShardResult {
            verdict: Verdict::Refuted(Counterexample {
                point: vec![0.25, -1.5, 3.0],
                objective: -0.125,
            }),
            ..verified.clone()
        };
        assert_eq!(ShardResult::parse(&refuted.to_line()).unwrap(), refuted);

        // Checkpoint text embeds newlines; they must survive the wire.
        let limited = ShardResult {
            verdict: Verdict::ResourceLimit,
            limit: Some("timeout".to_string()),
            checkpoint: Some("charon-ckpt 1\ntarget 2\ndim 1\ndone 4\nend\n".to_string()),
            ..verified.clone()
        };
        assert_eq!(ShardResult::parse(&limited.to_line()).unwrap(), limited);

        assert!(ShardResult::parse(&pong_response()).is_err(), "wrong kind");
        let bogus = limited.to_line().replace("resource_limit", "maybe");
        assert!(ShardResult::parse(&bogus).is_err(), "unknown verdict");
    }

    #[test]
    fn refuted_shard_result_needs_its_witness() {
        let line = |extra: &str| {
            format!(
                r#"{{"response": "shard_result", "id": 7, "shard": 0, "verdict": "refuted"{extra}}}"#
            )
        };
        let whole = line(r#", "objective": -0.125, "counterexample": [0.25, -1.5]"#);
        let Verdict::Refuted(cex) = ShardResult::parse(&whole).unwrap().verdict else {
            panic!("a refuted line parses to a refutation");
        };
        assert_eq!(cex.point, vec![0.25, -1.5]);
        assert_eq!(cex.objective, -0.125);
        for partial in [
            line(r#", "objective": -0.125"#),
            line(r#", "counterexample": [0.25, -1.5]"#),
            line(""),
        ] {
            assert!(ShardResult::parse(&partial).is_err(), "accepted {partial}");
        }
    }

    #[test]
    fn kind_inventories_cover_every_parse_arm() {
        // Every REQUEST_KINDS entry must be accepted by the parser (with
        // a payload where one is required)...
        for kind in REQUEST_KINDS {
            let line = format!("{{\"request\": \"{kind}\"}}");
            match Request::parse(&line) {
                Ok(_) => {}
                // Payload-bearing kinds fail on a *missing field*, never
                // on an unknown discriminator.
                Err(e) => assert!(
                    !e.contains("unknown request kind"),
                    "{kind}: listed but unrecognized: {e}"
                ),
            }
        }
        // ...and node_hello/node_stats responses advertise the protocol
        // version so coordinators can refuse stale nodes.
        let hello = charon::json::parse_flat_object(&node_hello_response(2)).unwrap();
        assert_eq!(hello.usize_field("protocol").unwrap() as u64, PROTOCOL_VERSION);
        assert_eq!(hello.usize_field("workers").unwrap(), 2);
        let stats = charon::json::parse_flat_object(&node_stats_response(5, 1, 2)).unwrap();
        assert_eq!(stats.usize_field("shards_executed").unwrap(), 5);
        assert_eq!(stats.usize_field("shards_refuted").unwrap(), 1);
        assert_eq!(stats.usize_field("shards_limited").unwrap(), 2);
    }

    #[test]
    fn busy_response_carries_retry_hint_and_reason() {
        let line = busy_response(17, 120, "shed");
        let fields = charon::json::parse_flat_object(&line).unwrap();
        assert_eq!(fields.str_field("response").unwrap(), "busy");
        assert_eq!(fields.usize_field("id").unwrap(), 17);
        assert_eq!(fields.usize_field("retry_after_ms").unwrap(), 120);
        assert_eq!(fields.str_field("reason").unwrap(), "shed");
        assert!(RESPONSE_KINDS.contains(&"busy"), "busy is in the kind inventory");
    }

    #[test]
    fn poisoned_response_carries_the_diagnostic() {
        let line = poisoned_response(4, "worker died: boom", 2);
        let fields = charon::json::parse_flat_object(&line).unwrap();
        assert_eq!(fields.str_field("verdict").unwrap(), "poisoned");
        assert_eq!(fields.usize_field("attempts").unwrap(), 2);
        assert_eq!(fields.str_field("diagnostic").unwrap(), "worker died: boom");
    }

    #[test]
    fn config_key_excludes_budgets_but_pins_delta_and_seed() {
        let base = VerifyRequest {
            network: "n".to_string(),
            property: "p".to_string(),
            ..VerifyRequest::default()
        };
        let budget_only = VerifyRequest {
            timeout_ms: 1,
            max_regions: 7,
            deadline_ms: Some(5),
            ..base.clone()
        };
        assert_eq!(base.config_key(), budget_only.config_key());
        let different_delta = VerifyRequest {
            delta: 0.5,
            ..base.clone()
        };
        assert_ne!(base.config_key(), different_delta.config_key());
        let different_seed = VerifyRequest { seed: 1, ..base };
        assert_ne!(different_seed.config_key(), different_delta.config_key());
    }
}
