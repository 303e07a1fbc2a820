//! The unified run/sweep report.
//!
//! [`SweepReport`] is the one document a run or sweep produces, whether
//! `dtnsim` ran it locally, through a daemon or through the HTTP
//! gateway: one structured aggregate holding the workload description,
//! wall-clock and per-sweep timings, trace-cache hit/miss counters, peak
//! RSS (Linux), per-point metric summaries with log-bucketed delay
//! histograms, and any probe-derived distribution the caller attaches.
//! [`to_json`] renders all of it; [`to_canonical_json`] masks the
//! machine-dependent fields so two runs of the same work compare byte
//! for byte.
//!
//! [`RunManifest`] is the companion header for `dtnsim --trace` captures:
//! one JSON line recording the configuration, seed, git revision and
//! wall-clock so a JSONL event stream is self-describing.
//!
//! [`to_json`]: SweepReport::to_json
//! [`to_canonical_json`]: SweepReport::to_canonical_json

use dtn_epidemic::RunMetrics;
use dtn_sim::json::escape;
use dtn_sim::Histogram;
use std::fmt::Write as _;
use std::path::Path;

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
/// `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Best-effort git revision of the working tree: walks up from the
/// current directory to the first `.git`, reads `HEAD` and follows one
/// level of ref indirection. `None` outside a repository.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(refname) => std::fs::read_to_string(git.join(refname.trim()))
                    .ok()?
                    .trim()
                    .to_string(),
                None => head.to_string(),
            };
            return (!rev.is_empty()).then_some(rev);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Seconds since the Unix epoch (wall clock, for manifests).
pub fn unix_time_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Render an `f64` as a JSON token (`null` for non-finite values).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Render an optional quantity as a JSON token.
fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

/// The self-describing first line of a `dtnsim --trace` capture: run
/// configuration, seeds, git revision and wall-clock. Parsers looking for
/// events skip it — it carries no `"ev"` key.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// The producing tool (e.g. `"dtnsim"`).
    pub tool: String,
    /// Protocol display name.
    pub protocol: String,
    /// Mobility label (scenario name or trace-file path).
    pub mobility: String,
    /// The load k (bundles per flow).
    pub load: u32,
    /// Number of replications in the capture.
    pub replications: usize,
    /// Root seed every replication derives from.
    pub seed: u64,
    /// Relay-buffer capacity.
    pub buffer_capacity: usize,
    /// Per-bundle transmission time in seconds.
    pub tx_time_secs: u64,
    /// Git revision of the producing tree, when discoverable.
    pub git_rev: Option<String>,
    /// Wall-clock seconds since the Unix epoch at capture time.
    pub unix_time_secs: u64,
}

impl RunManifest {
    /// The manifest as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"manifest\":\"{}\",\"protocol\":\"{}\",\"mobility\":\"{}\",\
             \"load\":{},\"replications\":{},\"seed\":{},\"buffer\":{},\
             \"tx_time_secs\":{},\"git_rev\":{},\"unix_time\":{}}}",
            escape(&self.tool),
            escape(&self.protocol),
            escape(&self.mobility),
            self.load,
            self.replications,
            self.seed,
            self.buffer_capacity,
            self.tx_time_secs,
            self.git_rev
                .as_deref()
                .map(|r| format!("\"{}\"", escape(r)))
                .unwrap_or_else(|| "null".into()),
            self.unix_time_secs,
        )
    }
}

/// Wall-clock timing of one sweep (or any labelled phase of a run).
#[derive(Clone, Debug)]
pub struct SweepTiming {
    /// What was timed (e.g. `"Pure epidemic @ trace"`).
    pub label: String,
    /// Elapsed wall-clock seconds.
    pub wall_secs: f64,
}

/// Wall-clock phase breakdown of one point's computation: where the
/// time went between mobility preparation, the protocol loop, and
/// report assembly. Purely observational — masked to `null` by
/// [`SweepReport::to_canonical_json`], so local runs (which record it)
/// and daemon-assembled reports (which do not) stay byte-identical
/// under the canonical rendering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointTiming {
    /// Seconds spent obtaining mobility input (trace-cache lookup or
    /// synthetic-trace generation) before the protocol loop ran.
    pub trace_secs: f64,
    /// Seconds spent in the protocol simulation loop across all
    /// replications of the point.
    pub sim_secs: f64,
    /// Seconds spent folding raw metrics into the report aggregates.
    pub assemble_secs: f64,
}

/// Aggregated results at one (protocol, mobility, load) point.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// Protocol display name.
    pub protocol: String,
    /// Mobility label.
    pub mobility: String,
    /// The load k.
    pub load: u32,
    /// Replications aggregated.
    pub runs: usize,
    /// Replications that missed the horizon (no completion).
    pub failures: usize,
    /// Replications that panicked and were isolated (checked runs only).
    pub panics: usize,
    /// Replications abandoned at the watchdog's hard deadline
    /// (supervised runs only; each also counts as a failure).
    pub timed_out: usize,
    /// Extra attempts beyond each replication's first, summed across the
    /// point (supervised runs only; 0 when nothing was retried).
    pub retries: u64,
    /// Contacts skipped because a churned endpoint was down (summed).
    pub contacts_skipped: u64,
    /// Contact sessions truncated by fault injection (summed).
    pub sessions_truncated: u64,
    /// Immunity-table transfers lost to control-plane faults (summed).
    pub ack_losses: u64,
    /// Crash-churn cold restarts that wiped node state (summed).
    pub churn_wipes: u64,
    /// Summary-digest bytes sent during anti-entropy (summed; a subset
    /// of control bytes — exact vectors and Bloom digests both count).
    pub signaling_bytes: u64,
    /// Transmissions triggered by Bloom false positives (summed; always
    /// 0 for exact-summary protocols).
    pub false_positive_transmissions: u64,
    /// Mean delivery ratio across replications.
    pub delivery_ratio_mean: f64,
    /// Mean time-weighted buffer occupancy.
    pub buffer_occupancy_mean: f64,
    /// Mean duplication rate.
    pub duplication_rate_mean: f64,
    /// Log-bucketed delivery-delay histogram (seconds; successful
    /// replications only — the paper records no delay for failed runs).
    pub delay_hist: Histogram,
    /// Wall-clock phase breakdown, when the driver recorded one
    /// (volatile; canonical rendering masks it to `null`).
    pub timing: Option<PointTiming>,
}

/// A named distribution attached to the report (probe-derived:
/// inter-contact gaps, bundles per contact, …).
#[derive(Clone, Debug)]
pub struct NamedHistogram {
    /// Metric name (used as the JSON key).
    pub name: String,
    /// The distribution.
    pub hist: Histogram,
}

/// One worker shard's contribution to a federated sweep, as reported by
/// the `dtnfedd` coordinator's stats document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Worker daemon address.
    pub addr: String,
    /// Health state at report time (`alive`/`suspect`/`dead`/`draining`).
    pub state: String,
    /// Points whose result was served through this shard.
    pub completed: u64,
}

/// What the federation did to complete a sweep routed through a
/// `dtnfedd` coordinator: shard attribution plus the failover/hedge
/// counters. Absent (`None` on [`SweepReport::federation`]) for local
/// and single-daemon runs, and **masked out** by
/// [`SweepReport::to_canonical_json`] — a federated sweep must stay
/// byte-identical in canonical form to a single-daemon run of the same
/// work, whatever healing the fabric had to do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Registered worker shards.
    pub workers: u64,
    /// Shards routable (alive or suspect) at report time.
    pub routable_workers: u64,
    /// Whether the coordinator was in degraded (quorum-lost) mode.
    pub degraded: bool,
    /// Points moved off a dead or unreachable shard.
    pub failovers: u64,
    /// Straggler points dispatched to a second shard.
    pub hedges: u64,
    /// Job re-submissions of any kind (failover + hedge + error retry).
    pub redispatches: u64,
    /// Points the degraded coordinator reported unreachable (0 on a
    /// completed sweep; > 0 only in partial-sweep mode).
    pub missing_points: u64,
    /// Per-shard attribution.
    pub shards: Vec<ShardStat>,
}

/// The unified report: one structured aggregate for everything a run or
/// sweep produces. See the module docs for the rationale.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Human description of the workload.
    pub workload: String,
    /// Total wall-clock seconds (set by [`SweepReport::finish`]).
    pub wall_secs: f64,
    /// Individual `simulate` invocations aggregated.
    pub simulation_runs: u64,
    /// Complete protocol sweeps aggregated.
    pub sweeps: u64,
    /// Total contact sessions processed.
    pub contacts_processed: u64,
    /// Total bundle transmissions.
    pub bundle_transmissions: u64,
    /// Trace-cache hits across the run.
    pub trace_cache_hits: u64,
    /// Trace-cache misses across the run.
    pub trace_cache_misses: u64,
    /// Peak resident set size in bytes (Linux; `None` elsewhere).
    pub peak_rss_bytes: Option<u64>,
    /// Invariant violations reported by audited runs, capped at
    /// [`SweepReport::MAX_VIOLATIONS`] entries; [`total_violations`]
    /// keeps the true count.
    ///
    /// [`total_violations`]: SweepReport::total_violations
    pub violations: Vec<String>,
    /// Every audit violation seen, including those beyond the retention
    /// cap.
    pub total_violations: u64,
    /// Per-sweep wall timings.
    pub timings: Vec<SweepTiming>,
    /// Per-point aggregates with delay histograms.
    pub points: Vec<PointReport>,
    /// Extra probe-derived distributions.
    pub histograms: Vec<NamedHistogram>,
    /// Federation attribution when the sweep ran through a `dtnfedd`
    /// coordinator (`None` for local and single-daemon runs; masked by
    /// the canonical rendering).
    pub federation: Option<FederationStats>,
}

impl SweepReport {
    /// An empty report for the given workload description.
    pub fn new(workload: impl Into<String>) -> SweepReport {
        SweepReport {
            workload: workload.into(),
            ..SweepReport::default()
        }
    }

    /// Fold one point's raw replication metrics into the report: global
    /// counters plus a [`PointReport`] with its delay histogram.
    pub fn record_point(&mut self, protocol: &str, mobility: &str, load: u32, runs: &[RunMetrics]) {
        let mut delay_hist = Histogram::new();
        let mut delivery = 0.0;
        let mut occupancy = 0.0;
        let mut duplication = 0.0;
        let mut failures = 0usize;
        let mut contacts_skipped = 0u64;
        let mut sessions_truncated = 0u64;
        let mut ack_losses = 0u64;
        let mut churn_wipes = 0u64;
        let mut signaling_bytes = 0u64;
        let mut false_positive_transmissions = 0u64;
        for m in runs {
            self.simulation_runs += 1;
            self.contacts_processed += m.contacts_processed;
            self.bundle_transmissions += m.bundle_transmissions;
            delivery += m.delivery_ratio;
            occupancy += m.avg_buffer_occupancy;
            duplication += m.avg_duplication_rate;
            contacts_skipped += m.contacts_skipped;
            sessions_truncated += m.sessions_truncated;
            ack_losses += m.ack_losses;
            churn_wipes += m.churn_wipes;
            signaling_bytes += m.signaling_bytes;
            false_positive_transmissions += m.false_positive_transmissions;
            match m.delay_secs() {
                Some(d) => delay_hist.record(d),
                None => failures += 1,
            }
        }
        let n = runs.len().max(1) as f64;
        self.points.push(PointReport {
            protocol: protocol.to_string(),
            mobility: mobility.to_string(),
            load,
            runs: runs.len(),
            failures,
            panics: 0,
            timed_out: 0,
            retries: 0,
            contacts_skipped,
            sessions_truncated,
            ack_losses,
            churn_wipes,
            signaling_bytes,
            false_positive_transmissions,
            delivery_ratio_mean: delivery / n,
            buffer_occupancy_mean: occupancy / n,
            duplication_rate_mean: duplication / n,
            delay_hist,
            timing: None,
        });
    }

    /// Attach a wall-clock phase breakdown to the most recently recorded
    /// point (no-op before the first `record_point`).
    pub fn record_point_timing(&mut self, timing: PointTiming) {
        if let Some(point) = self.points.last_mut() {
            point.timing = Some(timing);
        }
    }

    /// Retention cap for [`SweepReport::violations`]. A pathological
    /// audited run could otherwise grow the report without bound.
    pub const MAX_VIOLATIONS: usize = 256;

    /// Record one audit violation, keeping at most
    /// [`Self::MAX_VIOLATIONS`] entries while counting every one.
    pub fn record_violation(&mut self, violation: impl Into<String>) {
        self.total_violations += 1;
        if self.violations.len() < Self::MAX_VIOLATIONS {
            self.violations.push(violation.into());
        }
    }

    /// Count one finished sweep and record its wall timing.
    pub fn record_sweep(&mut self, label: impl Into<String>, wall_secs: f64) {
        self.sweeps += 1;
        self.timings.push(SweepTiming {
            label: label.into(),
            wall_secs,
        });
    }

    /// Record trace-cache counters (pass `cache.stats()`).
    pub fn record_cache(&mut self, (hits, misses): (u64, u64)) {
        self.trace_cache_hits = hits;
        self.trace_cache_misses = misses;
    }

    /// Attach a named probe-derived distribution.
    pub fn attach_histogram(&mut self, name: impl Into<String>, hist: Histogram) {
        self.histograms.push(NamedHistogram {
            name: name.into(),
            hist,
        });
    }

    /// Close the report: total wall-clock and peak RSS.
    pub fn finish(&mut self, wall_secs: f64) {
        self.wall_secs = wall_secs;
        self.peak_rss_bytes = peak_rss_bytes();
    }

    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&self.workload));
        let _ = writeln!(out, "  \"wall_secs\": {:.3},", self.wall_secs);
        let _ = writeln!(out, "  \"simulation_runs\": {},", self.simulation_runs);
        let _ = writeln!(out, "  \"sweeps\": {},", self.sweeps);
        let _ = writeln!(
            out,
            "  \"contacts_processed\": {},",
            self.contacts_processed
        );
        let _ = writeln!(
            out,
            "  \"bundle_transmissions\": {},",
            self.bundle_transmissions
        );
        let _ = writeln!(out, "  \"trace_cache_hits\": {},", self.trace_cache_hits);
        let _ = writeln!(
            out,
            "  \"trace_cache_misses\": {},",
            self.trace_cache_misses
        );
        let _ = writeln!(
            out,
            "  \"peak_rss_bytes\": {},",
            json_opt_u64(self.peak_rss_bytes)
        );
        let _ = writeln!(
            out,
            "  \"federation\": {},",
            federation_json(self.federation.as_ref())
        );
        let _ = writeln!(out, "  \"total_violations\": {},", self.total_violations);
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\"", escape(v));
        }
        out.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"sweep_timings\": [");
        for (i, t) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"label\": \"{}\", \"wall_secs\": {:.3}}}",
                escape(&t.label),
                t.wall_secs
            );
        }
        out.push_str(if self.timings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"protocol\": \"{}\", \"mobility\": \"{}\", \"load\": {}, \
                 \"runs\": {}, \"failures\": {}, \"panics\": {}, \"timed_out\": {}, \
                 \"retries\": {}, \"delivery_ratio\": {}, \
                 \"buffer_occupancy\": {}, \"duplication_rate\": {}, \"delay_s\": {}, \
                 \"signaling_bytes\": {}, \"false_positive_transmissions\": {}, \
                 \"faults\": {{\"contacts_skipped\": {}, \"sessions_truncated\": {}, \
                 \"ack_losses\": {}, \"churn_wipes\": {}}}, \"timing\": {}}}",
                escape(&p.protocol),
                escape(&p.mobility),
                p.load,
                p.runs,
                p.failures,
                p.panics,
                p.timed_out,
                p.retries,
                json_f64(p.delivery_ratio_mean),
                json_f64(p.buffer_occupancy_mean),
                json_f64(p.duplication_rate_mean),
                hist_json(&p.delay_hist),
                p.signaling_bytes,
                p.false_positive_transmissions,
                p.contacts_skipped,
                p.sessions_truncated,
                p.ack_losses,
                p.churn_wipes,
                timing_json(p.timing.as_ref()),
            );
        }
        out.push_str(if self.points.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape(&h.name), hist_json(&h.hist));
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }

    /// Render the report as JSON with every wall-clock- and
    /// machine-dependent field masked to a fixed value: `wall_secs` and
    /// all per-sweep timings become 0, `peak_rss_bytes` becomes `null`,
    /// the trace-cache counters become 0, the federation attribution
    /// becomes `null`, and each point's phase-timing breakdown becomes
    /// `null`.
    ///
    /// What survives is exactly the deterministic content — workload,
    /// per-point aggregates, violations, histograms — so two runs of the
    /// same work are **byte-identical** here regardless of machine,
    /// thread count, or whether results came from the `dtn-service`
    /// cache. The service integration tests and the CI `service-matrix`
    /// job compare this rendering with `cmp`.
    pub fn to_canonical_json(&self) -> String {
        let mut canon = self.clone();
        canon.wall_secs = 0.0;
        canon.trace_cache_hits = 0;
        canon.trace_cache_misses = 0;
        canon.peak_rss_bytes = None;
        // Federation attribution records *how* the fabric completed the
        // sweep (failovers, hedges, shard split) — operational, not
        // result content — so it masks out: a federated sweep is
        // byte-identical here to a single-daemon run of the same work.
        canon.federation = None;
        for t in &mut canon.timings {
            t.wall_secs = 0.0;
        }
        for p in &mut canon.points {
            p.timing = None;
        }
        canon.to_json()
    }

    /// Write the JSON rendering to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Federation attribution as JSON (`null` for non-federated runs).
fn federation_json(f: Option<&FederationStats>) -> String {
    let Some(f) = f else { return "null".into() };
    let mut shards = String::from("[");
    for (i, s) in f.shards.iter().enumerate() {
        if i > 0 {
            shards.push_str(", ");
        }
        let _ = write!(
            shards,
            "{{\"addr\": \"{}\", \"state\": \"{}\", \"completed\": {}}}",
            escape(&s.addr),
            escape(&s.state),
            s.completed
        );
    }
    shards.push(']');
    format!(
        "{{\"workers\": {}, \"routable_workers\": {}, \"degraded\": {}, \
         \"failovers\": {}, \"hedges\": {}, \"redispatches\": {}, \
         \"missing_points\": {}, \"shards\": {shards}}}",
        f.workers,
        f.routable_workers,
        f.degraded,
        f.failovers,
        f.hedges,
        f.redispatches,
        f.missing_points,
    )
}

/// One point's phase-timing breakdown as JSON (`null` when absent).
fn timing_json(t: Option<&PointTiming>) -> String {
    match t {
        None => "null".to_string(),
        Some(t) => format!(
            "{{\"trace_secs\": {:.6}, \"sim_secs\": {:.6}, \"assemble_secs\": {:.6}}}",
            t.trace_secs, t.sim_secs, t.assemble_secs
        ),
    }
}

/// One histogram as a compact JSON object: count, moments, quantiles.
fn hist_json(h: &Histogram) -> String {
    let q = |q: f64| h.quantile(q).map(json_f64).unwrap_or_else(|| "null".into());
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        h.count(),
        if h.is_empty() {
            "null".into()
        } else {
            json_f64(h.mean())
        },
        q(0.5),
        q(0.9),
        q(0.99),
        if h.is_empty() {
            "null".into()
        } else {
            json_f64(h.max())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_keeps_legacy_keys() {
        let mut r = SweepReport::new("smoke");
        r.record_sweep("only", 0.5);
        r.finish(1.0);
        let json = r.to_json();
        for key in [
            "\"workload\"",
            "\"wall_secs\"",
            "\"simulation_runs\"",
            "\"sweeps\"",
            "\"contacts_processed\"",
            "\"bundle_transmissions\"",
            "\"trace_cache_hits\"",
            "\"trace_cache_misses\"",
            "\"peak_rss_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn record_point_accumulates_counters_and_histogram() {
        let mut r = SweepReport::new("w");
        let m: Vec<RunMetrics> = crate::runner::run_point_checked_cached(
            &dtn_epidemic::protocols::pure_epidemic(),
            crate::Mobility::Trace,
            5,
            &crate::SweepConfig {
                loads: vec![5],
                replications: 2,
                threads: dtn_sim::Threads::Sequential,
                ..Default::default()
            },
            &crate::TraceCache::new(),
        )
        .into_iter()
        .map(Result::unwrap)
        .collect();
        r.record_point("Pure epidemic", "trace", 5, &m);
        assert_eq!(r.simulation_runs, 2);
        assert!(r.contacts_processed > 0);
        let p = &r.points[0];
        assert_eq!(p.runs, 2);
        assert_eq!(p.failures + p.delay_hist.count() as usize, 2);
        let json = r.to_json();
        assert!(json.contains("\"delay_s\""), "{json}");
    }

    #[test]
    fn manifest_line_is_parseable_and_skipped_by_event_parser() {
        let m = RunManifest {
            tool: "dtnsim".into(),
            protocol: "Pure epidemic".into(),
            mobility: "trace".into(),
            load: 25,
            replications: 10,
            seed: 1,
            buffer_capacity: 10,
            tx_time_secs: 100,
            git_rev: Some("abc123".into()),
            unix_time_secs: 1_722_000_000,
        };
        let line = m.to_jsonl();
        assert!(line.starts_with("{\"manifest\":\"dtnsim\""), "{line}");
        assert_eq!(dtn_epidemic::Event::parse_jsonl(&line), None);
    }

    #[test]
    fn canonical_json_masks_only_the_volatile_fields() {
        let build = |wall: f64, cache: (u64, u64)| {
            let mut r = SweepReport::new("canon");
            r.record_sweep("cell @ trace", wall / 2.0);
            r.record_violation("k rep 0: v");
            r.record_cache(cache);
            r.record_point("Pure epidemic", "trace", 1, &[]);
            r.record_point_timing(PointTiming {
                trace_secs: wall / 4.0,
                sim_secs: wall / 2.0,
                assemble_secs: wall / 8.0,
            });
            r.finish(wall);
            r
        };
        let a = build(1.0, (10, 2));
        let b = build(7.5, (0, 12));
        assert_ne!(a.to_json(), b.to_json(), "volatile fields must differ");
        assert!(a.to_json().contains("\"timing\": {\"trace_secs\":"));
        assert_eq!(a.to_canonical_json(), b.to_canonical_json());
        assert!(a.to_canonical_json().contains("\"timing\": null"));
        // Deterministic content still distinguishes reports.
        let mut c = build(1.0, (10, 2));
        c.record_violation("k rep 1: other");
        assert_ne!(a.to_canonical_json(), c.to_canonical_json());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn unix_time_and_rss_are_sane() {
        assert!(unix_time_secs() > 1_700_000_000, "clock after Nov 2023");
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
