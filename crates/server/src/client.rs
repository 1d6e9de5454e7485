//! A blocking client for the daemon protocol, shared by `charon-cli
//! submit`, the load generator, and the integration tests.
//!
//! Two layers:
//!
//! * [`Client`] — one connection, one request/response at a time, with a
//!   bounded line reader and optional socket timeouts.
//! * [`submit_reliable`] — the crash-only submission path: forces the
//!   `ack` flag so the job id is idempotent, retries connection-refused
//!   / `busy` / draining / journal-error with capped exponential
//!   backoff and deterministic jitter, reconnects and re-queries after a
//!   dropped connection, and returns a typed
//!   [`ClientError::RetriesExhausted`] when the budget runs out.
//!
//! An overloaded server's `busy` refusal carries a `retry_after_ms`
//! hint derived from its queue drain rate; [`submit_reliable`] honors
//! it (waiting at least that long before the next attempt) and stops
//! retrying outright once the request's own `deadline_ms` is spent —
//! there is no point winning admission for an answer nobody can use.

use std::io::{BufReader, Write};
use std::time::{Duration, Instant};

use charon::json::{parse_flat_object, Fields};

use crate::net::{read_line_bounded, ServerAddr, Stream, DEFAULT_MAX_LINE_BYTES};
use crate::protocol::VerifyRequest;

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to the daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying connect error.
    pub fn connect(addr: &ServerAddr) -> std::io::Result<Client> {
        let stream = Stream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sets socket read/write timeouts (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Returns the underlying setsockopt error.
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.writer.set_read_timeout(read)?;
        self.writer.set_write_timeout(write)
    }

    /// Sends one request line (the newline is appended here).
    ///
    /// # Errors
    ///
    /// Returns the underlying write error.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next response object. An EOF or a malformed line maps
    /// to [`std::io::ErrorKind::UnexpectedEof`] / `InvalidData`; a line
    /// over the cap is `InvalidData` without unbounded buffering.
    ///
    /// # Errors
    ///
    /// Returns the underlying read or parse failure.
    pub fn recv(&mut self) -> std::io::Result<Fields> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = read_line_bounded(&mut self.reader, &mut line, DEFAULT_MAX_LINE_BYTES)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return parse_flat_object(&line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed response: {e}"),
                )
            });
        }
    }

    /// Sends one request line and reads one response object.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn request(&mut self, line: &str) -> std::io::Result<Fields> {
        self.send(line)?;
        self.recv()
    }
}

/// Backoff schedule for [`submit_reliable`] and [`connect_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Zero behaves as one.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles per attempt thereafter.
    pub base: Duration,
    /// Ceiling on the (pre-jitter) delay.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream, so tests and repeated
    /// client runs do not thundering-herd in lockstep.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x9e37_79b9,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt number `attempt` (1-based over retries):
    /// `min(base · 2^(attempt-1), cap)` plus up to 50% jitter drawn from
    /// the xorshift stream in `state`.
    pub fn delay(&self, attempt: u32, state: &mut u64) -> Duration {
        let base_ms = self.base.as_millis() as u64;
        let cap_ms = self.cap.as_millis() as u64;
        let exp = attempt.saturating_sub(1).min(20);
        let raw = base_ms.saturating_mul(1_u64 << exp).min(cap_ms);
        // xorshift64: cheap, deterministic, and good enough to decorrelate.
        let mut x = *state | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        let jitter = if raw == 0 { 0 } else { x % (raw / 2 + 1) };
        Duration::from_millis(raw + jitter)
    }
}

/// Why a reliable submission ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// A non-retryable transport failure (e.g. a malformed response).
    Io(std::io::Error),
    /// The daemon answered with something the protocol does not allow.
    Protocol(String),
    /// Every attempt failed with a retryable condition; `last` describes
    /// the final one.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
        /// The server's last `retry_after_ms` hint, if the final failure
        /// was a `busy` refusal — callers queueing their own retry can
        /// start from the server's estimate instead of guessing.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::RetriesExhausted {
                attempts,
                last,
                retry_after_ms,
            } => {
                write!(f, "retries exhausted after {attempts} attempts (last: {last})")?;
                if let Some(hint) = retry_after_ms {
                    write!(f, " (server suggests retrying in {hint} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Connects with retry/backoff (connection refused, socket not yet
/// bound, daemon restarting).
///
/// # Errors
///
/// Returns [`ClientError::RetriesExhausted`] once the budget runs out.
pub fn connect_retry(addr: &ServerAddr, policy: &RetryPolicy) -> Result<Client, ClientError> {
    let attempts = policy.max_attempts.max(1);
    let mut state = policy.seed;
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(policy.delay(attempt, &mut state));
        }
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => last = format!("connect to {addr}: {e}"),
        }
    }
    Err(ClientError::RetriesExhausted {
        attempts,
        last,
        retry_after_ms: None,
    })
}

/// Error codes the daemon marks as transient: the same submission may
/// succeed after backoff.
pub fn is_retryable_error_code(code: &str) -> bool {
    matches!(code, "queue_full" | "draining" | "journal_error")
}

enum Attempt {
    Terminal(Fields),
    Retry {
        why: String,
        /// Server-supplied backoff hint (`busy` responses only).
        retry_after: Option<u64>,
    },
}

fn retry(why: String) -> Attempt {
    Attempt::Retry {
        why,
        retry_after: None,
    }
}

/// Submits `request` with crash-only semantics and blocks until a
/// terminal response for its id arrives, surviving daemon restarts,
/// dropped connections, full queues, and lost acknowledgements.
///
/// The `ack` flag is forced on, making the client-chosen id idempotent:
/// a retried submission that raced a crash is deduplicated or answered
/// from the daemon's stored results rather than re-verified.
///
/// Terminal responses (`verdict` — including `poisoned`,
/// `checkpointed`, `unstarted`, and non-retryable `error`s) are
/// returned as-is for the caller to interpret.
///
/// # Errors
///
/// [`ClientError::RetriesExhausted`] when every attempt failed with a
/// retryable condition; [`ClientError::Protocol`] for responses outside
/// the protocol.
pub fn submit_reliable(
    addr: &ServerAddr,
    request: &VerifyRequest,
    policy: &RetryPolicy,
) -> Result<Fields, ClientError> {
    let mut request = request.clone();
    request.ack = true;
    let attempts = policy.max_attempts.max(1);
    let mut state = policy.seed ^ request.id;
    let mut last = String::from("never attempted");
    let mut hint: Option<u64> = None;
    let started = Instant::now();
    let mut made = 0;
    for attempt in 0..attempts {
        if attempt > 0 {
            // The next wait is the larger of our own backoff schedule
            // and the server's `retry_after_ms` hint: retrying sooner
            // than the server's queue can drain just burns an attempt.
            let mut delay = policy.delay(attempt, &mut state);
            if let Some(hint_ms) = hint {
                delay = delay.max(Duration::from_millis(hint_ms));
            }
            // A deadline the server can no longer meet is a deadline we
            // should not keep spending attempts on.
            if let Some(deadline_ms) = request.deadline_ms {
                let remaining = charon::deadline::remaining_ms(deadline_ms, started.elapsed());
                if Duration::from_millis(remaining) <= delay {
                    last = format!("deadline of {deadline_ms} ms spent while backing off ({last})");
                    break;
                }
            }
            std::thread::sleep(delay);
        }
        made = attempt + 1;
        match submit_once(addr, &request) {
            Ok(Attempt::Terminal(fields)) => return Ok(fields),
            Ok(Attempt::Retry { why, retry_after }) => {
                last = why;
                hint = retry_after;
            }
            Err(ClientError::Io(e)) => {
                last = format!("i/o: {e}");
                hint = None;
            }
            Err(fatal) => return Err(fatal),
        }
    }
    Err(ClientError::RetriesExhausted {
        attempts: made,
        last,
        retry_after_ms: hint,
    })
}

fn submit_once(addr: &ServerAddr, request: &VerifyRequest) -> Result<Attempt, ClientError> {
    let mut client = Client::connect(addr)?;
    client.send(&request.to_line())?;
    let first = client.recv()?;
    let kind = first
        .str_field("response")
        .map_err(ClientError::Protocol)?;
    match kind.as_str() {
        "accepted" => {
            if first.opt("duplicate").is_some() {
                // Another connection (possibly a dead one) owns delivery;
                // poll the stored-results side channel.
                poll_query(&mut client, request)
            } else {
                wait_terminal(&mut client, request.id)
            }
        }
        _ => classify_terminal(first, request.id),
    }
}

/// Waits on the submitting connection for the terminal response.
fn wait_terminal(client: &mut Client, id: u64) -> Result<Attempt, ClientError> {
    loop {
        let fields = client.recv()?;
        let for_id = fields.opt("id").is_none()
            || fields.usize_field("id").map(|v| v as u64) == Ok(id);
        if !for_id {
            continue;
        }
        let kind = fields
            .str_field("response")
            .map_err(ClientError::Protocol)?;
        if kind == "accepted" {
            continue;
        }
        return classify_terminal(fields, id);
    }
}

/// Polls `query` until the stored terminal result appears. Budget: the
/// job's own verification timeout plus slack — a result that has not
/// landed by then means this attempt should restart from submission.
fn poll_query(client: &mut Client, request: &VerifyRequest) -> Result<Attempt, ClientError> {
    let budget = Duration::from_millis(request.timeout_ms.saturating_mul(2).saturating_add(5_000));
    let start = Instant::now();
    loop {
        let fields = client.request(&VerifyRequest::query_line(request.id))?;
        let kind = fields
            .str_field("response")
            .map_err(ClientError::Protocol)?;
        match kind.as_str() {
            "pending" => {
                if start.elapsed() > budget {
                    return Ok(retry(format!(
                        "job {} still pending after {budget:?}",
                        request.id
                    )));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            // The daemon restarted without the job (journal off, or the
            // accepted record never hit disk): resubmit.
            "unknown" => {
                return Ok(retry(format!("job {} unknown to the daemon", request.id)))
            }
            _ => return classify_terminal(fields, request.id),
        }
    }
}

fn classify_terminal(fields: Fields, id: u64) -> Result<Attempt, ClientError> {
    let kind = fields
        .str_field("response")
        .map_err(ClientError::Protocol)?;
    match kind.as_str() {
        "verdict" | "checkpointed" | "unstarted" => Ok(Attempt::Terminal(fields)),
        // An overloaded server refused to queue the job; back off for at
        // least the server's drain-rate estimate, then resubmit.
        "busy" => {
            let retry_after = fields.opt_usize("retry_after_ms").ok().flatten().map(|v| v as u64);
            let reason = fields
                .opt_str("reason")
                .ok()
                .flatten()
                .unwrap_or_else(|| "overloaded".to_string());
            Ok(Attempt::Retry {
                why: format!("job {id}: busy ({reason})"),
                retry_after,
            })
        }
        "error" => {
            let code = fields.str_field("error").map_err(ClientError::Protocol)?;
            if is_retryable_error_code(&code) {
                let message = fields.opt_str("message").ok().flatten().unwrap_or_default();
                Ok(retry(format!("job {id}: {code}: {message}")))
            } else {
                Ok(Attempt::Terminal(fields))
            }
        }
        other => Err(ClientError::Protocol(format!(
            "unexpected response kind {other:?} for job {id}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(800),
            seed: 7,
        };
        let mut state = policy.seed;
        let mut previous_raw = 0;
        for attempt in 1..8 {
            let raw = (100_u64 << (attempt - 1)).min(800);
            let delay = policy.delay(attempt, &mut state).as_millis() as u64;
            assert!(delay >= raw, "attempt {attempt}: jitter only adds");
            assert!(delay <= raw + raw / 2, "attempt {attempt}: jitter bounded at 50%");
            assert!(raw >= previous_raw, "schedule is monotone until the cap");
            previous_raw = raw;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (policy.seed, policy.seed);
        for attempt in 1..5 {
            assert_eq!(policy.delay(attempt, &mut a), policy.delay(attempt, &mut b));
        }
        let mut c = policy.seed ^ 1;
        let distinct = (1..5).any(|attempt| {
            policy.delay(attempt, &mut a) != policy.delay(attempt, &mut c)
        });
        assert!(distinct, "different seeds must decorrelate");
    }

    #[test]
    fn retryable_codes_are_exactly_the_transient_ones() {
        for code in ["queue_full", "draining", "journal_error"] {
            assert!(is_retryable_error_code(code), "{code}");
        }
        for code in ["bad_request", "model_error", "engine_error", "deadline_expired"] {
            assert!(!is_retryable_error_code(code), "{code}");
        }
    }

    #[test]
    fn connect_retry_reports_exhaustion_with_the_last_error() {
        let addr = ServerAddr::Unix(std::env::temp_dir().join("charon-no-such-daemon.sock"));
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        match connect_retry(&addr, &policy) {
            Err(ClientError::RetriesExhausted {
                attempts,
                last,
                retry_after_ms,
            }) => {
                assert_eq!(attempts, 2);
                assert!(last.contains("connect"), "{last}");
                assert_eq!(retry_after_ms, None, "connect failures carry no hint");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
