//! The self-healing client: transparent reconnect, idempotent
//! resubmission, and partial-sweep resume on top of [`crate::client`].
//!
//! The whole design leans on one property of the service: **submission
//! is idempotent**. A job's identity is its content address
//! ([`crate::job_key`]), the daemon dedups in-flight submissions against
//! that key, and the result cache replays finished fragments verbatim —
//! so resubmitting a job after a severed connection is free when the
//! daemon still has it and merely re-queues deterministic work when it
//! doesn't (e.g. after a `kill -9` that lost the in-memory queue).
//! Results are bit-identical either way, which is what lets a sweep
//! survive *any* fault schedule and still produce a byte-identical
//! report.
//!
//! [`ResilientClient::collect_fragments`] therefore tracks, per grid
//! point, whether its fragment has been fetched yet. Job tickets
//! survive reconnects — a severed connection loses no daemon state, so
//! the client keeps fetching against the ids it already holds — and
//! only an `unknown_job` answer (the daemon restarted and lost its job
//! table) invalidates the outstanding tickets and triggers
//! resubmission of **only the still-missing points**. Points already
//! collected are never re-requested, and points the restarted daemon
//! finds in its recovered journal come back instantly from cache.
//!
//! Liveness accounting matters under sustained chaos: a fault schedule
//! can sever every few frames forever, so "consecutive failures" must
//! not mean "consecutive severed connections". Every completed
//! round-trip (a submit or a fetch) counts as progress and resets the
//! outage budget; the [`ResilientClient::with_max_reconnect_attempts`]
//! cap therefore bounds consecutive **zero-round-trip** connections —
//! the signature of a daemon that is actually down — rather than
//! capping how long a noisy link may take.
//!
//! [`ResilientClient::sweep_grid`] is the one remote robustness sweep:
//! the HTTP gateway's runner and `dtnsim --connect --robustness` both
//! collect, decode and assemble a grid through it, so their reports
//! cannot drift apart.

use crate::client::{Client, ClientError, RetryPolicy};
use crate::json::Value;
use dtn_experiments::jobs::PointJob;
use dtn_experiments::{
    assemble_grid_report, FederationStats, GridPoint, Mobility, PointOutcome, ShardStat,
    SweepConfig, SweepReport,
};
use dtn_sim::SimRng;
use std::time::Instant;

/// Sub-stream salt for reconnect-backoff jitter (distinct from the
/// submit-retry stream so the two schedules cannot correlate).
const RECONNECT_SALT: u64 = 0xFA01_7000_0001_0040;

/// Per-point progress callback: `(index, fragment, cached)`, invoked
/// exactly once per point as it completes.
pub type PointSink<'a> = &'a mut dyn FnMut(usize, &str, bool);

/// What the healing layer had to do to finish a sweep. All zero on a
/// fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealStats {
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
    /// Jobs re-submitted on a fresh connection (idempotent: equal keys,
    /// equal results).
    pub resubmits: u64,
    /// Fragments whose fetch was retried after a severed connection.
    pub refetches: u64,
}

/// A robustness grid run through the service by
/// [`ResilientClient::sweep_grid`].
pub struct RemoteGrid {
    /// The report over the points that came back, with the
    /// coordinator's attribution when the upstream is one.
    pub report: SweepReport,
    /// Grid indices a degraded coordinator reported unreachable.
    pub missing: Vec<usize>,
    /// Points the upstream served from its result cache.
    pub cached: usize,
}

/// A [`Client`] wrapper that survives severed connections, daemon
/// restarts, and backpressure storms, and resumes partial sweeps.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    /// Give up after this many consecutive failed reconnect attempts
    /// (a down daemon should fail the sweep, not hang it forever).
    max_reconnect_attempts: u32,
    client: Option<Client>,
    stats: HealStats,
}

impl ResilientClient {
    /// A healing client for the daemon at `addr`. `policy` governs both
    /// submit backpressure retries and reconnect backoff; its `seed`
    /// makes every sleep in the healing schedule reproducible.
    pub fn new(addr: &str, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr: addr.to_string(),
            policy,
            max_reconnect_attempts: 60,
            client: None,
            stats: HealStats::default(),
        }
    }

    /// Override the consecutive-reconnect-failure cap (default 60).
    pub fn with_max_reconnect_attempts(mut self, attempts: u32) -> ResilientClient {
        self.max_reconnect_attempts = attempts.max(1);
        self
    }

    /// Counters describing the healing work done so far.
    pub fn heal_stats(&self) -> HealStats {
        self.stats
    }

    /// The retry policy this client heals under.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Drop the current connection (the next operation reconnects).
    fn sever(&mut self) {
        self.client = None;
    }

    /// Get a live connection, dialing with jittered backoff if needed.
    /// `healing` marks reconnects after a failure (counted) as opposed
    /// to the sweep's initial dial (not a heal).
    fn ensure_connected(&mut self, rng: &mut SimRng, healing: bool) -> Result<(), ClientError> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.max_reconnect_attempts {
            match Client::connect(&self.addr) {
                Ok(client) => {
                    self.client = Some(client);
                    if healing {
                        self.stats.reconnects += 1;
                    }
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
            std::thread::sleep(self.policy.backoff(attempt, 0, rng));
        }
        Err(ClientError::Transport(last.unwrap_or_else(|| {
            std::io::Error::other("no connect attempts made")
        })))
    }

    /// Run every job and return its `(fragment, cached)` pair, in job
    /// order, healing through any transport failure along the way. The
    /// fragments are the daemon's verbatim wire bytes — identical to a
    /// fault-free run by the idempotency argument in the module docs.
    pub fn collect_fragments(
        &mut self,
        jobs: &[PointJob],
    ) -> Result<Vec<(String, bool)>, ClientError> {
        let collected = self.collect_inner(jobs, false, None)?;
        Ok(collected
            .into_iter()
            .map(|f| f.expect("partial=false never leaves holes"))
            .collect())
    }

    /// Like [`ResilientClient::collect_fragments`], but a point whose
    /// owning shard a degraded coordinator reports
    /// [`ClientError::Unreachable`] is recorded as `None` instead of
    /// failing the sweep — the federation's "drain what's reachable,
    /// report what's missing" partial-sweep mode. Against a plain
    /// daemon (which never answers `unreachable`) this is identical to
    /// `collect_fragments`.
    pub fn collect_available(
        &mut self,
        jobs: &[PointJob],
    ) -> Result<Vec<Option<(String, bool)>>, ClientError> {
        self.collect_inner(jobs, true, None)
    }

    /// Like [`ResilientClient::collect_available`], but `on_point` fires
    /// the moment each fragment arrives — `(index, fragment, cached)` in
    /// completion order — so a caller (the HTTP gateway's chunked
    /// stream) can deliver results incrementally. The callback sees each
    /// point exactly once: progress survives healing, so a refetched
    /// connection never re-announces an already-collected fragment.
    pub fn collect_available_with(
        &mut self,
        jobs: &[PointJob],
        on_point: PointSink<'_>,
    ) -> Result<Vec<Option<(String, bool)>>, ClientError> {
        self.collect_inner(jobs, true, Some(on_point))
    }

    fn collect_inner(
        &mut self,
        jobs: &[PointJob],
        partial: bool,
        mut on_point: Option<PointSink<'_>>,
    ) -> Result<Vec<Option<(String, bool)>>, ClientError> {
        let started = Instant::now();
        let mut rng = SimRng::new(self.policy.seed).derive(RECONNECT_SALT);
        let mut fragments: Vec<Option<(String, bool)>> = vec![None; jobs.len()];
        // Tickets held per point. They outlive connections (a severed
        // socket loses no daemon state) and are invalidated only when
        // the daemon answers `unknown_job` — it restarted and lost its
        // job table — at which point still-missing points resubmit.
        let mut job_ids: Vec<Option<String>> = vec![None; jobs.len()];
        let mut ever_submitted: Vec<bool> = vec![false; jobs.len()];
        let mut fetch_tried: Vec<bool> = vec![false; jobs.len()];
        // Points a degraded coordinator declared unreachable (partial
        // mode only): skipped by later passes, `None` in the result.
        let mut unreachable: Vec<bool> = vec![false; jobs.len()];
        let mut healing = false;
        let mut attempts_this_outage = 0u32;
        // Completed round-trips (submits + fetches). Any round-trip
        // proves the daemon is reachable through the chaos, so the
        // outage budget only counts connections that achieved nothing.
        let mut round_trips = 0u64;

        while fragments
            .iter()
            .zip(&unreachable)
            .any(|(f, &skip)| f.is_none() && !skip)
        {
            if let Some(deadline) = self.policy.deadline {
                if started.elapsed() >= deadline {
                    return Err(ClientError::Exhausted {
                        attempts: self.stats.reconnects as u32 + 1,
                        elapsed: started.elapsed(),
                        last_reason: "sweep deadline exceeded while healing".into(),
                    });
                }
            }
            self.ensure_connected(&mut rng, healing)?;
            let round_trips_before = round_trips;
            match self.sweep_pass(
                jobs,
                &mut fragments,
                &mut job_ids,
                &mut ever_submitted,
                &mut fetch_tried,
                &mut round_trips,
                partial.then_some(&mut unreachable),
                &mut on_point,
            ) {
                // Ok may still leave points missing (stale tickets were
                // invalidated after a daemon restart): loop again on the
                // same healthy connection and resubmit them.
                Ok(()) => {
                    healing = false;
                    attempts_this_outage = 0;
                }
                Err(e) if e.is_transport() => {
                    // The connection died mid-sweep: drop it and heal.
                    // Collected fragments and valid tickets are kept —
                    // that is the partial-sweep resume. A connection
                    // that completed *any* round-trip before dying was
                    // talking to a live daemon, so it is not a strike
                    // against the consecutive-dead-connection budget.
                    if round_trips > round_trips_before {
                        attempts_this_outage = 0;
                    }
                    attempts_this_outage += 1;
                    if attempts_this_outage > self.max_reconnect_attempts {
                        return Err(e);
                    }
                    self.sever();
                    healing = true;
                    std::thread::sleep(self.policy.backoff(
                        attempts_this_outage.saturating_sub(1),
                        0,
                        &mut rng,
                    ));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(fragments)
    }

    /// One pass over the grid on the current connection: submit every
    /// missing point that has no live ticket, then fetch every missing
    /// fragment in order. Returns on the first transport error so the
    /// caller can heal, and returns `Ok` early — after invalidating all
    /// outstanding tickets — when the daemon answers `unknown_job`
    /// (it restarted); either way all progress stays recorded in
    /// `fragments`/`job_ids`.
    #[allow(clippy::too_many_arguments)]
    fn sweep_pass(
        &mut self,
        jobs: &[PointJob],
        fragments: &mut [Option<(String, bool)>],
        job_ids: &mut [Option<String>],
        ever_submitted: &mut [bool],
        fetch_tried: &mut [bool],
        round_trips: &mut u64,
        mut unreachable: Option<&mut Vec<bool>>,
        on_point: &mut Option<PointSink<'_>>,
    ) -> Result<(), ClientError> {
        let policy = self.policy;
        let client = self.client.as_mut().expect("ensure_connected ran");
        // Submit-all-first keeps the daemon's queue saturated while the
        // client blocks on in-order fetches, exactly like the plain
        // sweep path.
        for (i, job) in jobs.iter().enumerate() {
            if fragments[i].is_some() || job_ids[i].is_some() {
                continue;
            }
            if unreachable.as_ref().is_some_and(|u| u[i]) {
                continue;
            }
            let ticket = match client.submit_with_policy(job, &policy) {
                Ok(ticket) => ticket,
                Err(ClientError::Unreachable(_)) if unreachable.is_some() => {
                    // Partial-sweep mode: the degraded coordinator will
                    // not take this point; record it missing, keep
                    // draining the reachable ones.
                    *round_trips += 1;
                    if let Some(u) = unreachable.as_mut() {
                        u[i] = true;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            *round_trips += 1;
            if ever_submitted[i] {
                self.stats.resubmits += 1;
            }
            ever_submitted[i] = true;
            job_ids[i] = Some(ticket.job_id);
        }
        for i in 0..jobs.len() {
            if fragments[i].is_some() || unreachable.as_ref().is_some_and(|u| u[i]) {
                continue;
            }
            let id = job_ids[i].clone().expect("submitted above");
            if fetch_tried[i] {
                self.stats.refetches += 1;
            }
            fetch_tried[i] = true;
            match client.fetch_fragment_checked(&id) {
                Ok(pair) => {
                    *round_trips += 1;
                    if let Some(cb) = on_point.as_deref_mut() {
                        cb(i, &pair.0, pair.1);
                    }
                    fragments[i] = Some(pair);
                }
                Err(ClientError::Unreachable(_)) if unreachable.is_some() => {
                    *round_trips += 1;
                    if let Some(u) = unreachable.as_mut() {
                        u[i] = true;
                    }
                    job_ids[i] = None;
                }
                Err(ClientError::UnknownJob(_)) => {
                    // The daemon restarted: every outstanding ticket
                    // died with its job table, not just this one.
                    *round_trips += 1;
                    for (j, fragment) in fragments.iter().enumerate() {
                        if fragment.is_none() {
                            job_ids[j] = None;
                        }
                    }
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Run a robustness grid through the upstream and assemble its
    /// report: collect every point (a degraded coordinator's
    /// unreachable ones come back missing), decode the fragments,
    /// assemble the report over the points that arrived, and attach the
    /// federation attribution. `on_point` sees each fragment as it
    /// lands. The HTTP gateway and `dtnsim --connect` both run remote
    /// grids through here, so they assemble the same bytes.
    pub fn sweep_grid(
        &mut self,
        mobility: Mobility,
        cfg: &SweepConfig,
        points: &[GridPoint],
        on_point: PointSink<'_>,
    ) -> Result<RemoteGrid, String> {
        let started = Instant::now();
        let jobs: Vec<PointJob> = points.iter().map(|p| p.job.clone()).collect();
        let pairs = self
            .collect_available_with(&jobs, on_point)
            .map_err(|e| e.to_string())?;
        let mut missing = Vec::new();
        let mut cached = 0;
        let (mut kept_points, mut kept_outcomes) = (Vec::new(), Vec::new());
        for (i, (point, pair)) in points.iter().zip(pairs).enumerate() {
            let Some((fragment, hit)) = pair else {
                missing.push(i);
                continue;
            };
            cached += usize::from(hit);
            let outcome = PointOutcome::from_wire_json(&fragment)
                .map_err(|e| format!("malformed fragment: {e}"))?;
            kept_points.push(point.clone());
            kept_outcomes.push(outcome);
        }
        let mut report = assemble_grid_report(
            mobility,
            cfg,
            &kept_points,
            &kept_outcomes,
            started.elapsed().as_secs_f64(),
        );
        report.federation = self.federation_stats(missing.len() as u64);
        Ok(RemoteGrid {
            report,
            missing,
            cached,
        })
    }

    /// If the upstream is a `dtnfedd` coordinator, its stats as a
    /// report's federation attribution; a plain daemon (no
    /// `role:"coordinator"` in its stats) yields `None`. Best-effort: a
    /// finished sweep never fails over its attribution fetch.
    pub fn federation_stats(&mut self, missing_points: u64) -> Option<FederationStats> {
        let v = Value::parse(&self.stats_raw().ok()?).ok()?;
        if v.get("role").and_then(Value::as_str) != Some("coordinator") {
            return None;
        }
        let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let text = |s: &Value, key: &str| {
            s.get(key)
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let shards = v
            .get("shards")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|s| ShardStat {
                addr: text(s, "addr"),
                state: text(s, "state"),
                completed: s.get("completed").and_then(Value::as_u64).unwrap_or(0),
            })
            .collect();
        Some(FederationStats {
            workers: num("workers"),
            routable_workers: num("routable_workers"),
            degraded: v.get("degraded").and_then(Value::as_bool).unwrap_or(false),
            failovers: num("failovers"),
            hedges: num("hedges"),
            redispatches: num("redispatches"),
            missing_points,
            shards,
        })
    }

    /// Fetch the daemon's stats document (healing the connection first
    /// if needed, but not retrying the request itself — stats are not
    /// idempotent-critical).
    pub fn stats_raw(&mut self) -> Result<String, ClientError> {
        let mut rng = SimRng::new(self.policy.seed).derive(RECONNECT_SALT ^ 1);
        self.ensure_connected(&mut rng, false)?;
        let client = self.client.as_mut().expect("just connected");
        match client.stats_raw() {
            Ok(s) => Ok(s),
            Err(e) => {
                self.sever();
                Err(ClientError::Protocol(e))
            }
        }
    }

    /// Ask the daemon to shut down (no healing: if the connection is
    /// already gone, the daemon may be too, and that counts as down).
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let mut rng = SimRng::new(self.policy.seed).derive(RECONNECT_SALT ^ 2);
        self.ensure_connected(&mut rng, false)?;
        let client = self.client.as_mut().expect("just connected");
        client.shutdown().map_err(ClientError::Protocol)
    }
}
