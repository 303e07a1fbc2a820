//! Client side of the wire protocol: connect, submit with bounded
//! backpressure retry, and result collection.
//!
//! One [`Client`] owns one TCP connection and issues strictly
//! alternating request/response frames, which is all the protocol
//! needs — sweeps submit every point first (cheap: `accepted` comes back
//! before any simulation runs) and then collect results in order with
//! blocking `result` requests.
//!
//! Backpressure retry is governed by a [`RetryPolicy`]: jittered
//! exponential backoff seeded deterministically (so chaos tests
//! reproduce byte-for-byte), honoring the daemon's `retry_after_ms`
//! hint as a floor, and **bounded** by an attempt cap and/or a total
//! deadline — exhaustion surfaces as a structured
//! [`ClientError::Exhausted`] instead of the old unbounded
//! sleep-forever loop. Connection-level healing (reconnect,
//! resubmission, partial-sweep resume) lives one layer up in
//! [`crate::resilient`].

use crate::json::{escape, Value};
use crate::wire::{extract_fragment, read_frame, write_frame};
use dtn_experiments::jobs::PointJob;
use dtn_sim::SimRng;
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Sub-stream salt for the retry-jitter RNG, in the same address-space
/// convention as the simulator's fault salts (`dtn-core::faults`).
const JITTER_SALT: u64 = 0xFA01_7000_0001_0000;

/// Outcome of a successful submit: the job's content address and
/// whether the daemon served it straight from the result cache.
#[derive(Clone, Debug)]
pub struct SubmitTicket {
    /// Content-addressed job id (also the cache key).
    pub job_id: String,
    /// True when the result already existed — no work was queued.
    pub cached: bool,
}

/// Structured client-side failure. `Display` renders the same messages
/// callers used to get as bare strings, so `e.to_string()` call sites
/// keep working.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed mid-exchange (send, receive, or the
    /// daemon closing the socket). These are the retriable-by-reconnect
    /// errors the resilient client heals.
    Transport(io::Error),
    /// The daemon rejected the request for a non-retriable reason
    /// (validation failure, unknown job, explicit error response).
    Rejected(String),
    /// Backpressure retries ran out: the daemon kept answering
    /// `queue_full` until the attempt cap or deadline was exhausted.
    Exhausted {
        /// Submit attempts made before giving up.
        attempts: u32,
        /// Wall time spent retrying.
        elapsed: Duration,
        /// The daemon's last rejection reason.
        last_reason: String,
    },
    /// The daemon does not know the referenced job id — it restarted
    /// and lost its job table. Healable by resubmitting (submission is
    /// idempotent), unlike a genuine [`ClientError::Rejected`].
    UnknownJob(String),
    /// A `dtnfedd` coordinator in degraded (quorum-lost) mode reports
    /// this point's owning shard unreachable. Per-point, not fatal to
    /// the sweep: [`crate::ResilientClient::collect_available`] records
    /// the point as missing and drains the rest.
    Unreachable(String),
    /// The daemon answered with a frame the protocol does not allow
    /// here (bad JSON, missing fields, unexpected type).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::Rejected(reason) => write!(f, "daemon rejected the job: {reason}"),
            ClientError::Exhausted {
                attempts,
                elapsed,
                last_reason,
            } => write!(
                f,
                "submit retries exhausted after {attempts} attempts in {:.1}s (last reason: {last_reason})",
                elapsed.as_secs_f64()
            ),
            ClientError::UnknownJob(msg) => {
                write!(f, "daemon does not know this job (did it restart?): {msg}")
            }
            ClientError::Unreachable(msg) => {
                write!(f, "point owned by an unreachable shard (degraded federation): {msg}")
            }
            ClientError::Protocol(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True for errors a reconnect could plausibly heal (the connection
    /// died). Rejections, protocol violations, and exhausted retries
    /// are final: repeating them on a fresh socket changes nothing.
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Transport(_))
    }
}

/// Bounded, jittered, deterministic backoff for `queue_full` retries.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retry at most this many times after the first attempt
    /// (`None` = unbounded; pair it with a deadline).
    pub max_retries: Option<u32>,
    /// Give up once this much wall time has elapsed across retries.
    pub deadline: Option<Duration>,
    /// First backoff step, before jitter.
    pub base_ms: u64,
    /// Backoff ceiling, before the daemon's `retry_after_ms` floor.
    pub max_ms: u64,
    /// Seed for the jitter RNG sub-stream; equal seeds replay the same
    /// backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: Some(32),
            deadline: None,
            base_ms: 50,
            max_ms: 5_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based), given the
    /// daemon's `retry_after_ms` hint: exponential from `base_ms`,
    /// capped at `max_ms`, floored at the hint, with uniform jitter in
    /// `[step/2, step]` so a herd of clients doesn't resynchronize.
    pub fn backoff(&self, attempt: u32, retry_after_ms: u64, rng: &mut SimRng) -> Duration {
        let step = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_ms)
            .max(retry_after_ms.min(self.max_ms));
        Duration::from_millis(rng.range_inclusive(step / 2, step).max(1))
    }

    /// The jitter RNG for this policy (a dedicated sub-stream, so
    /// sharing a seed with a simulation cannot correlate the streams).
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.seed).derive(JITTER_SALT)
    }
}

/// Classify a daemon `error` response. A `bad_frame` rejection means
/// the request bytes were damaged **in flight** — the daemon also hangs
/// up after sending it — so it maps to [`ClientError::Transport`]:
/// resubmitting the (idempotent) request on a fresh connection is the
/// correct recovery, exactly as for a severed socket. Everything else
/// is a genuine rejection.
fn daemon_error(response: &Value) -> ClientError {
    let message = response
        .get("message")
        .and_then(Value::as_str)
        .unwrap_or("unspecified daemon error")
        .to_string();
    match response.get("code").and_then(Value::as_str) {
        Some("bad_frame") => {
            ClientError::Transport(io::Error::new(io::ErrorKind::InvalidData, message))
        }
        Some("unknown_job") => ClientError::UnknownJob(message),
        Some("unreachable") => ClientError::Unreachable(message),
        _ => ClientError::Rejected(message),
    }
}

/// A backpressure answer: the daemon (or the `dtnfedd` coordinator)
/// turned the submit away but invited a retry. The retriable reasons
/// are `queue_full` (bounded queue at capacity), `draining` (worker
/// being drained from a federation), `degraded` (coordinator below
/// quorum), and `no_workers` (coordinator momentarily has no routable
/// shard) — all transient states a bounded retry rides out.
#[derive(Clone, Debug)]
pub struct Backpressure {
    /// The daemon's floor on when to come back.
    pub retry_after_ms: u64,
    /// Which transient state caused the rejection.
    pub reason: String,
}

/// A connection to a `dtnsimd` daemon (or a `dtnfedd` coordinator —
/// the coordinator speaks the same client-facing protocol, so every
/// method here works unchanged against a federation).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7700`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is strict request/response with small frames;
        // Nagle only adds latency here.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn request(&mut self, payload: &str) -> Result<Value, ClientError> {
        let raw = self.request_raw(payload)?;
        Value::parse(&raw).map_err(|e| ClientError::Protocol(format!("bad response: {e}")))
    }

    /// Set (or clear) the socket read timeout. A request that times out
    /// leaves the connection desynchronized — the response may still
    /// arrive later — so after any timeout error the connection must be
    /// discarded, not reused. The coordinator's hedging path uses this
    /// to bound a blocking `result wait:true` at the hedge deadline.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Raw request/response, returning the response frame verbatim.
    /// Result fragments must be sliced out of this exact string, so the
    /// typed [`Client::request`] path (which re-parses) cannot serve
    /// them. Crate-visible: the coordinator relays worker frames
    /// verbatim through this.
    pub(crate) fn request_raw(&mut self, payload: &str) -> Result<String, ClientError> {
        write_frame(&mut self.stream, payload).map_err(ClientError::Transport)?;
        read_frame(&mut self.stream)
            .map_err(ClientError::Transport)?
            .ok_or_else(|| {
                ClientError::Transport(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "daemon closed the connection",
                ))
            })
    }

    /// One submit round-trip: `Ok(Ok(ticket))` on admission,
    /// `Ok(Err(backpressure))` on a retriable rejection (`queue_full`,
    /// `draining`, `degraded`, `no_workers` — retry is the caller's
    /// decision), any other answer an error.
    pub fn submit_once(
        &mut self,
        job: &PointJob,
    ) -> Result<Result<SubmitTicket, Backpressure>, ClientError> {
        let payload = format!(
            "{{\"type\":\"submit\",\"job\":{}}}",
            job.to_canonical_json()
        );
        let response = self.request(&payload)?;
        match response.get("type").and_then(Value::as_str) {
            Some("accepted") => Ok(Ok(SubmitTicket {
                job_id: response
                    .get("job_id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ClientError::Protocol("accepted without job_id".into()))?
                    .to_string(),
                cached: response
                    .get("cached")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            })),
            Some("rejected") => {
                let reason = response
                    .get("reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified");
                if reason == "unreachable" {
                    return Err(ClientError::Unreachable(reason.to_string()));
                }
                if !matches!(
                    reason,
                    "queue_full" | "draining" | "degraded" | "no_workers"
                ) {
                    return Err(ClientError::Rejected(reason.to_string()));
                }
                Ok(Err(Backpressure {
                    retry_after_ms: response
                        .get("retry_after_ms")
                        .and_then(Value::as_u64)
                        .unwrap_or(250),
                    reason: reason.to_string(),
                }))
            }
            Some("error") => Err(daemon_error(&response)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response type {other:?}"
            ))),
        }
    }

    /// Submit a job under `policy`: retriable rejections (`queue_full`,
    /// `draining`, `degraded`, `no_workers`) are retried with jittered
    /// exponential backoff — honoring the daemon's `retry_after_ms`
    /// hint as a *floor*, never an exact wait — until admitted, the
    /// attempt cap is hit, or the deadline passes.
    pub fn submit_with_policy(
        &mut self,
        job: &PointJob,
        policy: &RetryPolicy,
    ) -> Result<SubmitTicket, ClientError> {
        let started = Instant::now();
        let mut rng = policy.rng();
        let mut attempts = 0u32;
        loop {
            match self.submit_once(job)? {
                Ok(ticket) => return Ok(ticket),
                Err(backpressure) => {
                    let capped = policy.max_retries.is_some_and(|cap| attempts >= cap);
                    let overdue = policy.deadline.is_some_and(|d| started.elapsed() >= d);
                    if capped || overdue {
                        return Err(ClientError::Exhausted {
                            attempts: attempts + 1,
                            elapsed: started.elapsed(),
                            last_reason: backpressure.reason,
                        });
                    }
                    std::thread::sleep(policy.backoff(
                        attempts,
                        backpressure.retry_after_ms,
                        &mut rng,
                    ));
                    attempts += 1;
                }
            }
        }
    }

    /// Submit a job under the default [`RetryPolicy`]. Kept as the
    /// simple string-error entry point for existing callers.
    pub fn submit(&mut self, job: &PointJob) -> Result<SubmitTicket, String> {
        self.submit_with_policy(job, &RetryPolicy::default())
            .map_err(|e| e.to_string())
    }

    /// Block until `job_id` resolves and return its verbatim result
    /// fragment plus the daemon's `cached` flag.
    pub fn fetch_fragment(&mut self, job_id: &str) -> Result<(String, bool), String> {
        self.fetch_fragment_checked(job_id)
            .map_err(|e| e.to_string())
    }

    /// [`Client::fetch_fragment`] with the structured error type, so the
    /// resilient layer can distinguish transport failures (heal) from
    /// rejections (fail).
    pub fn fetch_fragment_checked(&mut self, job_id: &str) -> Result<(String, bool), ClientError> {
        let raw = self.request_raw(&format!(
            "{{\"type\":\"result\",\"job_id\":\"{}\",\"wait\":true}}",
            escape(job_id)
        ))?;
        let Some(fragment) = extract_fragment(&raw) else {
            let parsed = Value::parse(&raw)
                .map_err(|e| ClientError::Protocol(format!("bad response: {e}")))?;
            if parsed.get("type").and_then(Value::as_str) == Some("error") {
                return Err(daemon_error(&parsed));
            }
            return Err(ClientError::Protocol(format!(
                "no fragment in response {raw}"
            )));
        };
        let cached = Value::parse(&raw)
            .ok()
            .and_then(|v| v.get("cached").and_then(Value::as_bool))
            .unwrap_or(false);
        Ok((fragment.to_string(), cached))
    }

    /// Cancel a queued job; `Ok(true)` if it was actually cancelled.
    pub fn cancel(&mut self, job_id: &str) -> Result<bool, String> {
        let response = self
            .request(&format!(
                "{{\"type\":\"cancel\",\"job_id\":\"{}\"}}",
                escape(job_id)
            ))
            .map_err(|e| e.to_string())?;
        response
            .get("cancelled")
            .and_then(Value::as_bool)
            .ok_or_else(|| "malformed cancel response".to_string())
    }

    /// Fetch the daemon's stats document, verbatim.
    pub fn stats_raw(&mut self) -> Result<String, String> {
        self.request_raw("{\"type\":\"stats\"}")
            .map_err(|e| e.to_string())
    }

    /// Ask the daemon to shut down; returns how many admitted jobs it is
    /// still draining.
    pub fn shutdown(&mut self) -> Result<u64, String> {
        let response = self
            .request("{\"type\":\"shutdown\"}")
            .map_err(|e| e.to_string())?;
        response
            .get("draining")
            .and_then(Value::as_u64)
            .ok_or_else(|| "malformed shutdown response".to_string())
    }
}

/// `stats` members that follow wall time or load rather than the work
/// served. `--daemon-stats --canonical` masks them at any depth (so a
/// coordinator's per-shard probe counts too).
pub const VOLATILE_STATS: &[&str] = &[
    // Load at the instant of the request.
    "queue_depth",
    "running",
    "inflight",
    // Timers: journal flushes fire on a time window, the janitor and the
    // relay cache's refetches ride the cron clock, heartbeat probes and
    // the p99-derived hedge deadline ride wall time.
    "journal_flushes",
    "cache_expired",
    "cache_evictions",
    "cache_bytes",
    "relay_hits",
    "relay_misses",
    "relay_entries",
    "probes_ok",
    "probes_failed",
    "hedge_deadline_ms",
    // Wall-clock measurements.
    "uptime_secs",
    "worker_busy_secs",
    "worker_utilization",
    "latency",
];

/// Render a daemon's or coordinator's `stats` reply as the
/// `dtnsim --daemon-stats` document: the reply's own members, in reply
/// order, one per line, with `type` naming the role (`daemon_stats` or
/// `coordinator_stats`). With `canonical`, every member named in
/// [`VOLATILE_STATS`] reads `0` (a number) or `null` (anything else), so
/// two deployments that served the same work print the same bytes.
pub fn stats_document(raw: &str, canonical: bool) -> Result<String, String> {
    let reply = Value::parse(raw).map_err(|e| format!("unparseable stats reply: {e}"))?;
    let (Value::Obj(members), Some("stats")) = (&reply, reply.get("type").and_then(Value::as_str))
    else {
        return Err(format!("unexpected stats reply: {raw}"));
    };
    let kind = match reply.get("role").and_then(Value::as_str) {
        Some("coordinator") => "coordinator_stats",
        _ => "daemon_stats",
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "  \"" } else { ",\n  \"" });
        out.push_str(&escape(key));
        out.push_str("\": ");
        if key == "type" {
            out.push_str(&format!("\"{kind}\""));
        } else {
            write_member(&mut out, key, value, canonical);
        }
    }
    out.push_str("\n}\n");
    Ok(out)
}

/// One member's value, masked when `canonical` names it volatile.
fn write_member(out: &mut String, key: &str, value: &Value, canonical: bool) {
    match value {
        _ if !canonical || !VOLATILE_STATS.contains(&key) => write_json(out, value, canonical),
        Value::Num(_) => out.push('0'),
        _ => out.push_str("null"),
    }
}

/// `value` as compact JSON; numbers keep their source text.
fn write_json(out: &mut String, value: &Value, canonical: bool) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item, canonical);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                write_member(out, key, member, canonical);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_document_prints_every_member_in_reply_order() {
        let raw = "{\"type\":\"stats\",\"engine\":\"e\\\"1\",\"workers\":2,\"queue_depth\":3,\
                   \"journal_errors\":4,\"uptime_secs\":1.5,\
                   \"latency\":{\"sim\":{\"count\":1,\"p50\":0.25}}}";
        assert_eq!(
            stats_document(raw, false).unwrap(),
            "{\n  \"type\": \"daemon_stats\",\n  \"engine\": \"e\\\"1\",\n  \"workers\": 2,\n  \
             \"queue_depth\": 3,\n  \"journal_errors\": 4,\n  \"uptime_secs\": 1.5,\n  \
             \"latency\": {\"sim\":{\"count\":1,\"p50\":0.25}}\n}\n"
        );
        assert_eq!(
            stats_document(raw, true).unwrap(),
            "{\n  \"type\": \"daemon_stats\",\n  \"engine\": \"e\\\"1\",\n  \"workers\": 2,\n  \
             \"queue_depth\": 0,\n  \"journal_errors\": 4,\n  \"uptime_secs\": 0,\n  \
             \"latency\": null\n}\n"
        );
        for bad in ["not json", "{\"type\":\"error\"}", "[1]"] {
            assert!(stats_document(bad, false).is_err(), "{bad}");
        }
    }

    #[test]
    fn canonical_stats_mask_shard_probe_counts_too() {
        let raw = "{\"type\":\"stats\",\"role\":\"coordinator\",\"degraded\":false,\
                   \"probes_ok\":9,\"shards\":[{\"addr\":\"a:1\",\"state\":\"alive\",\
                   \"completed\":5,\"probes_ok\":7,\"probes_failed\":1}]}";
        let doc = stats_document(raw, true).unwrap();
        assert_eq!(
            doc,
            "{\n  \"type\": \"coordinator_stats\",\n  \"role\": \"coordinator\",\n  \
             \"degraded\": false,\n  \"probes_ok\": 0,\n  \"shards\": [{\"addr\":\"a:1\",\
             \"state\":\"alive\",\"completed\":5,\"probes_ok\":0,\"probes_failed\":0}]\n}\n"
        );
        assert!(Value::parse(&doc).is_ok());
    }

    #[test]
    fn backoff_is_exponential_jittered_and_floored() {
        let policy = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let mut rng = policy.rng();
        // Attempt 0: step = max(base=50, hint=0) → sleep in [25, 50].
        let d0 = policy.backoff(0, 0, &mut rng).as_millis() as u64;
        assert!((25..=50).contains(&d0), "got {d0}");
        // Attempt 4: step = 50 << 4 = 800 → [400, 800].
        let d4 = policy.backoff(4, 0, &mut rng).as_millis() as u64;
        assert!((400..=800).contains(&d4), "got {d4}");
        // The daemon's hint floors the step.
        let hinted = policy.backoff(0, 300, &mut rng).as_millis() as u64;
        assert!((150..=300).contains(&hinted), "got {hinted}");
        // The ceiling holds even for huge attempts and hints.
        let capped = policy.backoff(30, 60_000, &mut rng).as_millis() as u64;
        assert!(capped <= policy.max_ms, "got {capped}");
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let schedule = |p: &RetryPolicy| {
            let mut rng = p.rng();
            (0..8)
                .map(|a| p.backoff(a, 100, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(&policy), schedule(&policy));
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(schedule(&policy), schedule(&other));
    }

    #[test]
    fn errors_render_stable_messages() {
        let e = ClientError::Exhausted {
            attempts: 33,
            elapsed: Duration::from_millis(1500),
            last_reason: "queue_full".into(),
        };
        assert_eq!(
            e.to_string(),
            "submit retries exhausted after 33 attempts in 1.5s (last reason: queue_full)"
        );
        assert!(!e.is_transport());
        assert!(ClientError::Transport(io::Error::other("boom")).is_transport());
    }
}
