//! Per-point job units: one (protocol, mobility, load) sweep point as a
//! self-contained, serializable description plus its supervised executor.
//!
//! Every experiment driver in this crate ultimately runs the same shape
//! of work — `replications` supervised simulation runs of one protocol at
//! one load on one mobility source — but before this module each driver
//! in-lined its own copy of the loop. [`PointJob`] extracts that unit:
//!
//! * the **description** carries everything the run depends on (protocol
//!   spec, mobility spec, seeds, buffer, transmission time, fault plan,
//!   watchdog policy) and nothing it doesn't, and serializes to a
//!   canonical JSON line ([`PointJob::to_canonical_json`]) that doubles
//!   as the content-address of the result in the `dtn-service` cache;
//! * the **executor** ([`PointJob::run`]) is the shared replication
//!   path — [`ReplicationPlan::run`] on the job's root seed, traces and
//!   [`SimConfig`] — so a job run here is bit-identical to the same point
//!   run by the sweep runner, the robustness grid, or `dtnsim`, which is
//!   what makes cached results indistinguishable from fresh ones.
//!
//! [`PointOutcome`] is the result side: per-replication [`RunOutcome`]s
//! and attempt counts (the same tokens the robustness checkpoints use,
//! with `f64`s as IEEE-754 bit patterns so a JSON round-trip is
//! bit-exact) plus any audit violations.

use crate::runner::{point_root_seed, Replication, ReplicationPlan, SweepConfig, Traces};
use crate::scenarios::Mobility;
use crate::TraceCache;
use dtn_epidemic::{
    protocols, ChurnMode, ChurnPlan, FaultPlan, GilbertElliott, NullProbe, RunMetrics, SimConfig,
};
use dtn_sim::{JobOutcome, SimDuration, SimRng, SimTime, Threads, Watchdog};
use std::sync::Arc;

/// A test seam for the supervisor itself: called as every replication
/// attempt starts, before it simulates, with `(point key, replication,
/// attempt)`; free to panic (exercising bounded retry) or sleep
/// (exercising the hard deadline). Production callers pass `None`.
pub type InjectHook = Arc<dyn Fn(&str, usize, u32) + Send + Sync>;

/// One supervised replication outcome, as stored in checkpoints, shipped
/// over the service wire, and folded into reports.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// The replication finished, possibly after salted retries.
    Ok(RunMetrics),
    /// Every attempt panicked; the final panic message is kept.
    Panicked(String),
    /// The replication outlived the watchdog's hard deadline and was
    /// abandoned without poisoning its siblings.
    TimedOut,
}

/// An `f64` as its IEEE-754 bit pattern in hex — survives a JSON
/// round-trip bit-exactly, which decimal rendering cannot guarantee.
pub fn f64_hex(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// Parse an [`f64_hex`] token back to the exact `f64`.
pub fn parse_f64_hex(tok: &str) -> Result<f64, String> {
    let hex = tok
        .trim()
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted hex f64, got {tok:?}"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits {hex:?}: {e}"))
}

/// One replication outcome as a token: a fixed-order JSON array for a
/// success, `{"panic":…}` for an isolated panic, or `{"timeout":true}`
/// for an abandoned attempt. Floats travel as bit patterns, so
/// [`outcome_from_json`] reproduces the outcome bit-exactly.
pub fn outcome_to_json(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::TimedOut => "{\"timeout\":true}".to_string(),
        RunOutcome::Panicked(msg) => {
            format!("{{\"panic\":\"{}\"}}", crate::report::json_escape(msg))
        }
        RunOutcome::Ok(m) => format!(
            "[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]",
            m.total_bundles,
            m.delivered,
            f64_hex(m.delivery_ratio),
            m.completion_time
                .map(|t| t.as_millis().to_string())
                .unwrap_or_else(|| "null".into()),
            f64_hex(m.avg_buffer_occupancy),
            f64_hex(m.peak_buffer_occupancy),
            f64_hex(m.avg_duplication_rate),
            m.contacts_processed,
            m.bundle_transmissions,
            m.ack_records_sent,
            m.evictions,
            m.expirations,
            m.rejections,
            m.immunity_purges,
            m.transfer_losses,
            m.payload_bytes_sent,
            m.control_bytes_sent,
            m.signaling_bytes,
            m.false_positive_transmissions,
            m.contacts_skipped,
            m.sessions_truncated,
            m.ack_losses,
            m.churn_wipes,
            m.churn_drops,
            m.end_time.as_millis(),
        ),
    }
}

/// Parse one [`outcome_to_json`] token.
pub fn outcome_from_json(tok: &str) -> Result<RunOutcome, String> {
    let tok = tok.trim();
    if tok == "{\"timeout\":true}" {
        return Ok(RunOutcome::TimedOut);
    }
    if let Some(rest) = tok.strip_prefix("{\"panic\":") {
        let (msg, rest) = parse_json_string(rest)?;
        if rest != "}" {
            return Err(format!("bad panic token {tok:?}"));
        }
        return Ok(RunOutcome::Panicked(msg));
    }
    let body = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("expected array token, got {tok:?}"))?;
    let fields: Vec<&str> = body.split(',').collect();
    if fields.len() != 25 {
        return Err(format!("expected 25 fields, got {}", fields.len()));
    }
    let int = |i: usize| -> Result<u64, String> {
        fields[i]
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("field {i}: {e}"))
    };
    let completion_time = match fields[3].trim() {
        "null" => None,
        ms => Some(SimTime::from_millis(
            ms.parse::<u64>().map_err(|e| format!("field 3: {e}"))?,
        )),
    };
    Ok(RunOutcome::Ok(RunMetrics {
        total_bundles: int(0)? as u32,
        delivered: int(1)? as u32,
        delivery_ratio: parse_f64_hex(fields[2])?,
        completion_time,
        avg_buffer_occupancy: parse_f64_hex(fields[4])?,
        peak_buffer_occupancy: parse_f64_hex(fields[5])?,
        avg_duplication_rate: parse_f64_hex(fields[6])?,
        contacts_processed: int(7)?,
        bundle_transmissions: int(8)?,
        ack_records_sent: int(9)?,
        evictions: int(10)?,
        expirations: int(11)?,
        rejections: int(12)?,
        immunity_purges: int(13)?,
        transfer_losses: int(14)?,
        payload_bytes_sent: int(15)?,
        control_bytes_sent: int(16)?,
        signaling_bytes: int(17)?,
        false_positive_transmissions: int(18)?,
        contacts_skipped: int(19)?,
        sessions_truncated: int(20)?,
        ack_losses: int(21)?,
        churn_wipes: int(22)?,
        churn_drops: int(23)?,
        end_time: SimTime::from_millis(int(24)?),
    }))
}

/// One self-contained sweep point: everything a run depends on, nothing
/// it doesn't. Two jobs with equal canonical JSON produce bit-identical
/// [`PointOutcome`]s on any machine running the same engine version —
/// the contract the `dtn-service` result cache is built on.
#[derive(Clone, Debug, PartialEq)]
pub struct PointJob {
    /// Canonical protocol spec (see [`protocols::from_spec`]).
    pub protocol: String,
    /// Built-in mobility source.
    pub mobility: Mobility,
    /// Bundles per flow.
    pub load: u32,
    /// Replications to run.
    pub replications: usize,
    /// Seed of the root RNG every replication stream derives from. The
    /// sweep convention is `base_seed ^ (load << 32)`; the single-run
    /// convention is the raw CLI seed.
    pub root_seed: u64,
    /// Scenario seed handed to the mobility generator (the sweep's
    /// `base_seed`; equal to [`PointJob::root_seed`] for single runs).
    pub trace_seed: u64,
    /// Relay-buffer capacity.
    pub buffer_capacity: usize,
    /// Per-bundle transmission time in seconds (already resolved against
    /// the scenario's regime — jobs carry no "default" indirection).
    pub tx_time_secs: u64,
    /// I.i.d. per-transmission loss probability.
    pub transfer_loss: f64,
    /// Fault-injection plan.
    pub faults: FaultPlan,
    /// Panic-retry budget per replication.
    pub retries: u32,
    /// Hard per-replication deadline in seconds (`None` = none).
    pub point_timeout_secs: Option<u64>,
    /// Attach the invariant auditor in `Record` mode.
    pub audit: bool,
}

/// The supervised result of one [`PointJob`]: per-replication outcomes
/// and attempt counts in replication order, audit violations
/// (`"rep {i}: {violation}"`), and how many successful replications
/// exceeded the watchdog's soft deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct PointOutcome {
    /// One outcome per replication, in replication order.
    pub outcomes: Vec<RunOutcome>,
    /// Attempts made per replication (≥ 1 each).
    pub attempts: Vec<u32>,
    /// Audit violations, formatted `"rep {i}: {violation}"`.
    pub violations: Vec<String>,
    /// Successful replications that exceeded the soft deadline.
    pub slow: usize,
}

impl PointJob {
    /// The job for one (protocol, load) point under a sweep
    /// configuration, using the sweep seeding convention
    /// (`root = base_seed ^ (load << 32)`, trace seed = `base_seed`) —
    /// bit-compatible with the sweep runner and the robustness grid.
    pub fn from_sweep(
        protocol_spec: impl Into<String>,
        mobility: Mobility,
        load: u32,
        cfg: &SweepConfig,
    ) -> PointJob {
        PointJob {
            protocol: protocol_spec.into(),
            mobility,
            load,
            replications: cfg.replications,
            root_seed: point_root_seed(cfg.base_seed, load),
            trace_seed: cfg.base_seed,
            buffer_capacity: cfg.buffer_capacity,
            tx_time_secs: cfg.tx_time_secs.unwrap_or_else(|| mobility.tx_time_secs()),
            transfer_loss: 0.0,
            faults: cfg.faults.clone(),
            retries: cfg.retries,
            point_timeout_secs: cfg.point_timeout_secs,
            audit: cfg.audit,
        }
    }

    /// Validate every field that could make the run nonsensical; returns
    /// a description of the first offending field. Service daemons call
    /// this at submission time so bad jobs are rejected at the door.
    pub fn validate(&self) -> Result<(), String> {
        protocols::from_spec(&self.protocol)?;
        if self.load == 0 || self.replications == 0 || self.buffer_capacity == 0 {
            return Err("load, replications and buffer_capacity must be positive".into());
        }
        if self.tx_time_secs == 0 {
            return Err("tx_time_secs must be positive".into());
        }
        if self.point_timeout_secs == Some(0) {
            return Err("point_timeout_secs must be at least 1".into());
        }
        dtn_epidemic::validate_probability("transfer_loss", self.transfer_loss)?;
        self.faults.validate()
    }

    /// Run every replication of this point under watchdog supervision.
    /// Seeding is the canonical convention, so the outcomes are
    /// bit-identical to the in-process runners' for the same fields.
    pub fn run(&self, threads: Threads, cache: &TraceCache) -> Result<PointOutcome, String> {
        self.run_hooked(threads, cache, None)
    }

    /// [`PointJob::run`] with an optional [`InjectHook`] (and the point
    /// key handed to it) called as every replication attempt starts.
    pub(crate) fn run_hooked(
        &self,
        threads: Threads,
        cache: &TraceCache,
        inject: Option<(InjectHook, String)>,
    ) -> Result<PointOutcome, String> {
        self.validate()?;
        let plan = ReplicationPlan {
            root: SimRng::new(self.root_seed),
            load: self.load,
            replications: self.replications,
            traces: Traces::Scenario {
                mobility: self.mobility,
                seed: self.trace_seed,
                cache: cache.clone(),
            },
            config: SimConfig {
                buffer_capacity: self.buffer_capacity,
                tx_time: SimDuration::from_secs(self.tx_time_secs),
                transfer_loss_prob: self.transfer_loss,
                faults: self.faults.clone(),
                ..SimConfig::paper_defaults(protocols::from_spec(&self.protocol)?)
            },
        };
        let watchdog = Watchdog::new(self.retries, self.point_timeout_secs);
        let hook = move |r: &Replication<'_>| {
            if let Some((hook, key)) = &inject {
                hook(key, r.rep, r.attempt);
            }
        };
        Ok(if self.audit {
            let results = plan.run(threads, watchdog, move |r| {
                hook(r);
                r.audit_probe()
            });
            PointOutcome::from_supervised(results, |_, _, audit| audit.violation_strings())
        } else {
            let results = plan.run(threads, watchdog, move |r| {
                hook(r);
                NullProbe
            });
            PointOutcome::from_supervised(results, |_, _, _| Vec::new())
        })
    }

    /// The job as one canonical JSON line: fixed key order, no
    /// whitespace, floats as IEEE-754 bit patterns. Equal jobs render to
    /// equal strings, so this rendering *is* the job's cache identity
    /// (the service layer hashes it together with the engine version).
    pub fn to_canonical_json(&self) -> String {
        let faults = &self.faults;
        let burst = match &faults.burst {
            None => "null".to_string(),
            Some(b) => format!(
                "{{\"loss_good\":{},\"loss_bad\":{},\"p_good_to_bad\":{},\"p_bad_to_good\":{}}}",
                f64_hex(b.loss_good),
                f64_hex(b.loss_bad),
                f64_hex(b.p_good_to_bad),
                f64_hex(b.p_bad_to_good),
            ),
        };
        let churn = match &faults.churn {
            None => "null".to_string(),
            Some(c) => format!(
                "{{\"mean_up_secs\":{},\"mean_down_secs\":{},\"mode\":\"{}\"}}",
                f64_hex(c.mean_up_secs),
                f64_hex(c.mean_down_secs),
                match c.mode {
                    ChurnMode::Crash => "crash",
                    ChurnMode::DutyCycle => "duty",
                },
            ),
        };
        format!(
            "{{\"protocol\":\"{}\",\"mobility\":\"{}\",\"load\":{},\"replications\":{},\
             \"root_seed\":{},\"trace_seed\":{},\"buffer\":{},\"tx_time_secs\":{},\
             \"transfer_loss\":{},\"faults\":{{\"truncation_prob\":{},\"ack_loss_prob\":{},\
             \"burst\":{},\"churn\":{}}},\"retries\":{},\"point_timeout_secs\":{},\"audit\":{}}}",
            crate::report::json_escape(&self.protocol),
            crate::report::json_escape(&self.mobility.spec()),
            self.load,
            self.replications,
            self.root_seed,
            self.trace_seed,
            self.buffer_capacity,
            self.tx_time_secs,
            f64_hex(self.transfer_loss),
            f64_hex(faults.truncation_prob),
            f64_hex(faults.ack_loss_prob),
            burst,
            churn,
            self.retries,
            self.point_timeout_secs
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into()),
            self.audit,
        )
    }
}

impl PointOutcome {
    /// Fold supervised replication results (see [`ReplicationPlan::run`])
    /// into a point outcome. `violations` turns each finished
    /// replication's `(rep, metrics, probe)` into its audit findings,
    /// which are recorded as `"rep {rep}: {violation}"`; callers that
    /// want more from their probes can take it here too.
    pub fn from_supervised<P>(
        results: Vec<JobOutcome<(RunMetrics, P)>>,
        mut violations: impl FnMut(usize, &RunMetrics, P) -> Vec<String>,
    ) -> PointOutcome {
        let mut out = PointOutcome {
            outcomes: Vec::with_capacity(results.len()),
            attempts: Vec::with_capacity(results.len()),
            violations: Vec::new(),
            slow: 0,
        };
        for (rep, result) in results.into_iter().enumerate() {
            out.attempts.push(result.attempts());
            out.outcomes.push(match result {
                JobOutcome::Ok {
                    value: (m, probe),
                    slow,
                    ..
                } => {
                    out.slow += usize::from(slow);
                    for v in violations(rep, &m, probe) {
                        out.violations.push(format!("rep {rep}: {v}"));
                    }
                    RunOutcome::Ok(m)
                }
                JobOutcome::Panicked { message, .. } => RunOutcome::Panicked(message),
                JobOutcome::TimedOut { .. } => RunOutcome::TimedOut,
            });
        }
        out
    }

    /// The point result as one JSON line — the service wire/cache
    /// format. Outcome tokens are the checkpoint tokens (bit-exact
    /// floats), so [`PointOutcome::from_wire_json`] reproduces the
    /// outcome bit-identically.
    pub fn to_wire_json(&self) -> String {
        let attempts: Vec<String> = self.attempts.iter().map(|a| a.to_string()).collect();
        let mut runs = String::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                runs.push(',');
            }
            runs.push_str(&outcome_to_json(o));
        }
        let mut violations = String::new();
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                violations.push(',');
            }
            violations.push('"');
            violations.push_str(&crate::report::json_escape(v));
            violations.push('"');
        }
        format!(
            "{{\"attempts\":[{}],\"slow\":{},\"runs\":[{}],\"violations\":[{}]}}",
            attempts.join(","),
            self.slow,
            runs,
            violations
        )
    }

    /// Parse a [`PointOutcome::to_wire_json`] line.
    pub fn from_wire_json(s: &str) -> Result<PointOutcome, String> {
        let rest = s
            .trim()
            .strip_prefix("{\"attempts\":[")
            .ok_or_else(|| format!("bad point outcome {s:?}"))?;
        let (attempts, rest) = rest
            .split_once("],\"slow\":")
            .ok_or_else(|| format!("bad point outcome {s:?}"))?;
        let attempts: Vec<u32> = attempts
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|e| format!("bad attempt count {t:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let (slow, rest) = rest
            .split_once(",\"runs\":[")
            .ok_or_else(|| format!("bad point outcome {s:?}"))?;
        let slow: usize = slow
            .trim()
            .parse()
            .map_err(|e| format!("bad slow count {slow:?}: {e}"))?;
        let (runs, rest) = rest
            .split_once("],\"violations\":[")
            .ok_or_else(|| format!("bad point outcome {s:?}"))?;
        let violations_body = rest
            .strip_suffix("]}")
            .ok_or_else(|| format!("bad point outcome {s:?}"))?;
        let mut outcomes = Vec::new();
        for tok in split_top_level(runs) {
            outcomes.push(outcome_from_json(tok)?);
        }
        if attempts.len() != outcomes.len() {
            return Err(format!(
                "point outcome has {} attempt counts for {} runs",
                attempts.len(),
                outcomes.len()
            ));
        }
        let violations = parse_string_array(violations_body)?;
        Ok(PointOutcome {
            outcomes,
            attempts,
            violations,
            slow,
        })
    }
}

/// Split a comma-joined sequence of outcome tokens at bracket depth 0,
/// skipping over quoted strings (panic messages may hold any bracket or
/// comma). Unbalanced closers never underflow: the token they end up in
/// fails to parse instead.
pub(crate) fn split_top_level(body: &str) -> Vec<&str> {
    let mut toks = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                toks.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !body[start..].trim().is_empty() {
        toks.push(&body[start..]);
    }
    toks
}

/// Parse a JSON array *body* (no surrounding brackets) of escaped
/// strings.
fn parse_string_array(body: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches([',', ' ', '\t', '\n']);
        if rest.is_empty() {
            return Ok(out);
        }
        let (s, after) =
            parse_json_string(rest).map_err(|e| format!("{e} in string array {body:?}"))?;
        out.push(s);
        rest = after;
    }
}

/// Parse the JSON string literal opening `s`, decoding its escapes (the
/// inverse of `report::json_escape`); returns the string and whatever
/// follows its closing quote.
fn parse_json_string(s: &str) -> Result<(String, &str), String> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        other => return Err(format!("expected a string, got {other:?}")),
    }
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => {
                let Some((_, e)) = chars.next() else {
                    return Err(format!("dangling escape in {s:?}"));
                };
                match e {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return Err(format!("bad \\u escape in {s:?}"));
                            };
                            code = code * 16
                                + h.to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit {h:?} in {s:?}"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("bad escape \\{other} in {s:?}")),
                }
            }
            c => out.push(c),
        }
    }
    Err(format!("unterminated string in {s:?}"))
}

/// Construct a fault plan for tests and examples exercising every field.
#[doc(hidden)]
pub fn exercise_fault_plan() -> FaultPlan {
    FaultPlan {
        truncation_prob: 0.25,
        ack_loss_prob: 0.125,
        burst: Some(GilbertElliott {
            loss_good: 0.02,
            loss_bad: 0.6,
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.25,
        }),
        churn: Some(ChurnPlan {
            mean_up_secs: 40_000.0,
            mean_down_secs: 10_000.0,
            mode: ChurnMode::Crash,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{point_sim_config, run_point_checked_cached};
    use dtn_epidemic::protocols;

    #[test]
    fn job_run_matches_the_sweep_runner_bit_exactly() {
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 3,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let cache = TraceCache::new();
        let direct = run_point_checked_cached(
            &protocols::immunity_epidemic(),
            Mobility::Interval(2000),
            5,
            &cfg,
            &cache,
        );
        let job = PointJob::from_sweep("immunity", Mobility::Interval(2000), 5, &cfg);
        let shared = TraceCache::new();
        let out = job.run(Threads::Sequential, &shared).unwrap();
        assert_eq!(out.outcomes.len(), direct.len());
        for (o, d) in out.outcomes.iter().zip(&direct) {
            assert_eq!(
                o,
                &RunOutcome::Ok(*d.as_ref().unwrap()),
                "job diverged from runner"
            );
        }
        assert_eq!(out.attempts, vec![1, 1, 1]);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn canonical_json_is_stable_and_distinguishes_jobs() {
        let cfg = SweepConfig::default();
        let a = PointJob::from_sweep("pure", Mobility::Trace, 10, &cfg);
        let b = PointJob::from_sweep("pure", Mobility::Trace, 10, &cfg);
        assert_eq!(a.to_canonical_json(), b.to_canonical_json());
        let c = PointJob::from_sweep("pure", Mobility::Trace, 15, &cfg);
        assert_ne!(a.to_canonical_json(), c.to_canonical_json());
        let mut d = a.clone();
        d.faults = exercise_fault_plan();
        assert_ne!(a.to_canonical_json(), d.to_canonical_json());
        // Spec strings that parse to the same protocol but differ
        // textually are *different* cache identities by design —
        // canonicalization happens at the spec level.
        let e = PointJob {
            protocol: "pq=1,1".into(),
            ..a.clone()
        };
        assert_ne!(a.to_canonical_json(), e.to_canonical_json());
    }

    #[test]
    fn point_outcome_wire_round_trips_bit_exactly() {
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 2,
            threads: Threads::Sequential,
            audit: true,
            ..SweepConfig::default()
        };
        let job = PointJob::from_sweep("cumulative", Mobility::Interval(2000), 5, &cfg);
        let cache = TraceCache::new();
        let out = job.run(Threads::Sequential, &cache).unwrap();
        let wire = out.to_wire_json();
        let back = PointOutcome::from_wire_json(&wire).unwrap();
        assert_eq!(back, out);
        // Mixed outcomes (panic + timeout + violations with specials).
        let mixed = PointOutcome {
            outcomes: vec![
                out.outcomes[0].clone(),
                RunOutcome::Panicked("boom".into()),
                RunOutcome::TimedOut,
                RunOutcome::Panicked("line1\nline2".into()),
                RunOutcome::Panicked(
                    "called `Result::unwrap()` on an `Err` value: \"a\\b\" [x], {y}".into(),
                ),
            ],
            attempts: vec![1, 3, 2, 1, 2],
            violations: vec!["rep 0: a \"quoted\"\nviolation".into()],
            slow: 1,
        };
        let back = PointOutcome::from_wire_json(&mixed.to_wire_json()).unwrap();
        assert_eq!(back, mixed);
    }

    #[test]
    fn validation_rejects_bad_jobs() {
        let cfg = SweepConfig::default();
        let good = PointJob::from_sweep("pure", Mobility::Trace, 10, &cfg);
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.protocol = "gossip".into();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.load = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.transfer_loss = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.faults.truncation_prob = -0.1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn job_sim_config_matches_point_sim_config() {
        // The job's inline SimConfig must track the runner's constants;
        // this pins them against silent drift.
        let cfg = SweepConfig::default();
        let runner_cfg =
            point_sim_config(&protocols::pure_epidemic(), Mobility::Interval(400), &cfg);
        assert_eq!(runner_cfg.ack_slot_cost, 0.1);
        assert_eq!(runner_cfg.transfer_loss_prob, 0.0);
        assert_eq!(runner_cfg.bundle_bytes, 10_000_000);
        assert_eq!(runner_cfg.ack_record_bytes, 16);
        let job = PointJob::from_sweep("pure", Mobility::Interval(400), 5, &cfg);
        assert_eq!(job.tx_time_secs, 10, "interval regime resolved");
        assert_eq!(job.transfer_loss, 0.0);
    }
}
