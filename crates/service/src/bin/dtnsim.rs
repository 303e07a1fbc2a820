//! `dtnsim` — run one (protocol, mobility, load) experiment from the
//! command line, locally or against a `dtnsimd` daemon.
//!
//! ```text
//! dtnsim [OPTIONS]
//!
//!   --protocol NAME    pure | pq[=P,Q] | ttl[=SECS] | dynttl[=MULT] |
//!                      ec | ecttl | immunity | cumulative |
//!                      bloom[=FP] | bloomimm[=FP]           (default: pure)
//!   --list-protocols   print the canonical protocol spec table and exit
//!   --mobility NAME    trace | rwp | geom-rwp | interval=SECS | FILE.trace
//!                      (default: trace)
//!   --load K           bundles per flow                     (default: 25)
//!   --reps N           replications                         (default: 10)
//!   --seed S           root seed                            (default: 1)
//!   --buffer B         relay-buffer capacity                (default: 10)
//!   --tx-time SECS     per-bundle transmission time
//!                      (default: the scenario's regime)
//!   --stats            also report the contact trace's statistical summary
//!   --trace PATH       capture the typed event stream as JSONL (manifest
//!                      line first, then one JSON object per event)
//!   --series PATH      write sampled occupancy/duplication/delivery
//!                      curves as CSV
//!   --canonical        print the report with volatile fields (wall-clock,
//!                      cache counters, RSS) masked — byte-comparable
//!                      across machines and across local/daemon runs
//!   -v, --verbose      extra stderr diagnostics
//!   -q, --quiet        errors only on stderr
//!
//! daemon client mode:
//!   --connect HOST:PORT
//!                      submit the run (or --robustness sweep) to a
//!                      dtnsimd daemon as content-addressed point jobs and
//!                      reassemble the same report locally; repeated
//!                      submissions are served from the daemon's result
//!                      cache bit-identically. The client self-heals:
//!                      severed connections reconnect with jittered
//!                      backoff, missing points are idempotently
//!                      resubmitted, and already-collected points are
//!                      never re-fetched (partial-sweep resume)
//!   --connect http://HOST:PORT
//!                      same submission through a daemon's HTTP/JSON
//!                      gateway (`--gateway-port`): POST the sweep spec,
//!                      stream per-point results over chunked
//!                      transfer-encoding, and print the gateway-assembled
//!                      report verbatim (byte-identical to the wire-client
//!                      and local reports under --canonical). Robustness
//!                      sweeps only; stats/shutdown stay wire-only
//!   --max-retries N    cap queue-full submit retries per point
//!                      (default 32; 0 = unbounded)
//!   --retry-deadline SECS
//!                      total wall-clock budget for backpressure retries
//!                      and reconnect healing (default: none)
//!   --daemon-stats     print the daemon's operational stats as a stable,
//!                      documented JSON document and exit (requires
//!                      --connect; see `render_daemon_stats` for the
//!                      shape). With --canonical, load-dependent values
//!                      (queue depth, running count, uptime, utilization,
//!                      latency snapshots) are masked to fixed values so
//!                      two equally-loaded daemons compare byte-identical
//!   --daemon-shutdown  ask the daemon to drain, persist its cache, and
//!                      exit (requires --connect)
//!
//! supervision and auditing:
//!   --audit            attach the runtime invariant auditor to every
//!                      replication; violations land in the report's
//!                      "violations" array (normally empty)
//!   --retries N        retry a panicking replication up to N times on a
//!                      fresh salted RNG stream before recording it as a
//!                      failure (default: 0)
//!   --point-timeout S  hard per-replication deadline in seconds; a
//!                      replication still running at the deadline is
//!                      abandoned and reported as timed out instead of
//!                      hanging the run
//!   --slow-point-secs S
//!                      log a stderr line when one point's simulation
//!                      phase exceeds S wall seconds (robustness mode;
//!                      observational only, never changes results)
//!
//! fault injection (all deterministic under --seed):
//!   --loss P           i.i.d. per-transmission loss probability
//!   --burst G,B,GB,BG  Gilbert–Elliott bursty loss: good/bad-state loss
//!                      probabilities and the two transition probabilities
//!   --truncate P       probability a contact session is cut short
//!   --ack-loss P       probability one immunity-table transfer is lost
//!   --churn UP,DOWN[,crash|duty]
//!                      mean up/down dwell times in seconds; `crash`
//!                      (default) wipes volatile state on restart, `duty`
//!                      preserves it
//!
//! robustness preset:
//!   --robustness       sweep all protocols over the churn x loss grid
//!                      (uses --load/--reps/--seed; ignores the single-run
//!                      fault flags above)
//!   --checkpoint PATH  append each finished grid point to a resumable
//!                      JSONL checkpoint (local mode only)
//!   --resume           reload a compatible checkpoint and simulate only
//!                      the missing points (local mode only)
//! ```
//!
//! stdout carries exactly one machine-readable JSON report (the unified
//! `SweepReport` schema); all human-facing progress goes to stderr.
//!
//! Example:
//!
//! ```text
//! dtnsim --protocol ttl=300 --mobility interval=2000 --load 40 \
//!        --trace run.jsonl --series run.csv > report.json
//! dtnsim --connect 127.0.0.1:7700 --robustness --load 25 > report.json
//! ```

use dtn_epidemic::{
    protocols, ChurnMode, ChurnPlan, FanoutProbe, FaultPlan, GilbertElliott, JsonlProbe, NullProbe,
    ProtocolConfig, RunMetrics, SimConfig, TimeSeriesProbe,
};
use dtn_experiments::jobs::PointJob;
use dtn_experiments::runner::aggregate_point;
use dtn_experiments::{
    assemble_grid_report, grid_point_jobs, record_supervised_point, run_robustness,
    FederationStats, Mobility, PointOutcome, ReplicationPlan, Reporter, RunManifest, RunOutcome,
    ShardStat, SweepConfig, SweepReport, TraceCache, Traces, Verbosity,
};
use dtn_mobility::{read_trace_file, LazyTrace, TraceSummary};
use dtn_service::httpd::{self, ConnectTarget};
use dtn_service::{Client, ResilientClient, RetryPolicy};
use dtn_sim::{Histogram, SimDuration, SimRng, Threads, Watchdog};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Where contacts come from: a built-in scenario or a trace file, loaded
/// once and shared by every replication.
enum Source {
    Builtin(Mobility),
    File(std::path::PathBuf, Arc<LazyTrace>),
}

impl Source {
    /// The run's trace source: built-in scenarios are generated per
    /// replication through `cache`; a file trace is handed out as is.
    fn traces(&self, seed: u64, cache: &TraceCache) -> Traces {
        match self {
            Source::Builtin(mobility) => Traces::Scenario {
                mobility: *mobility,
                seed,
                cache: cache.clone(),
            },
            Source::File(_, trace) => Traces::Fixed(Arc::clone(trace)),
        }
    }

    fn default_tx_time(&self) -> u64 {
        match self {
            Source::Builtin(m) => m.tx_time_secs(),
            Source::File(..) => 100,
        }
    }

    fn label(&self) -> String {
        match self {
            Source::Builtin(m) => m.label(),
            Source::File(path, _) => path.display().to_string(),
        }
    }
}

fn parse_mobility(spec: &str) -> Result<Source, String> {
    match Mobility::parse(spec) {
        Ok(m) => Ok(Source::Builtin(m)),
        Err(parse_err) => {
            let path = std::path::PathBuf::from(spec);
            if path.exists() {
                let trace = read_trace_file(&path).map_err(|e| format!("loading {spec}: {e}"))?;
                let trace = LazyTrace::complete(Arc::new(trace));
                Ok(Source::File(path, Arc::new(trace)))
            } else {
                Err(format!("{parse_err}, or a trace file path"))
            }
        }
    }
}

struct Args {
    protocol: ProtocolConfig,
    /// The raw `--protocol` spec — the job identity sent to a daemon.
    protocol_spec: String,
    source: Source,
    load: u32,
    reps: usize,
    seed: u64,
    buffer: usize,
    tx_time: Option<u64>,
    stats: bool,
    trace_out: Option<std::path::PathBuf>,
    series_out: Option<std::path::PathBuf>,
    verbosity: Verbosity,
    loss: f64,
    faults: FaultPlan,
    robustness: bool,
    checkpoint: Option<std::path::PathBuf>,
    resume: bool,
    audit: bool,
    retries: u32,
    point_timeout: Option<u64>,
    connect: Option<String>,
    canonical: bool,
    daemon_stats: bool,
    daemon_shutdown: bool,
    slow_point_secs: Option<f64>,
    max_retries: Option<u32>,
    retry_deadline_secs: Option<f64>,
}

/// Parse `--burst G,B,GB,BG` into a Gilbert–Elliott channel.
fn parse_burst(spec: &str) -> Result<GilbertElliott, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [g, b, gb, bg] = parts.as_slice() else {
        return Err(format!("--burst wants GOOD,BAD,GB,BG — got {spec:?}"));
    };
    let p = |s: &str| {
        s.parse::<f64>()
            .map_err(|e| format!("bad probability {s:?}: {e}"))
    };
    Ok(GilbertElliott {
        loss_good: p(g)?,
        loss_bad: p(b)?,
        p_good_to_bad: p(gb)?,
        p_bad_to_good: p(bg)?,
    })
}

/// Parse `--churn UP,DOWN[,crash|duty]` into a churn plan.
fn parse_churn(spec: &str) -> Result<ChurnPlan, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let (up, down, mode) = match parts.as_slice() {
        [up, down] => (*up, *down, ChurnMode::Crash),
        [up, down, "crash"] => (*up, *down, ChurnMode::Crash),
        [up, down, "duty"] => (*up, *down, ChurnMode::DutyCycle),
        _ => return Err(format!("--churn wants UP,DOWN[,crash|duty] — got {spec:?}")),
    };
    let secs = |s: &str| {
        s.parse::<f64>()
            .map_err(|e| format!("bad dwell time {s:?}: {e}"))
    };
    Ok(ChurnPlan {
        mean_up_secs: secs(up)?,
        mean_down_secs: secs(down)?,
        mode,
    })
}

fn list_protocols() -> ! {
    // The canonical table: spec strings feed straight back into
    // `--protocol` and are the identities the daemon caches on.
    println!("spec         protocol");
    for (spec, proto) in protocols::ALL_SPECS.iter().zip(protocols::spec_protocols()) {
        println!("{spec:<12} {}", proto.name);
    }
    std::process::exit(0);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        protocol: protocols::pure_epidemic(),
        protocol_spec: "pure".to_string(),
        source: Source::Builtin(Mobility::Trace),
        load: 25,
        reps: 10,
        seed: 1,
        buffer: 10,
        tx_time: None,
        stats: false,
        trace_out: None,
        series_out: None,
        verbosity: Verbosity::Normal,
        loss: 0.0,
        faults: FaultPlan::default(),
        robustness: false,
        checkpoint: None,
        resume: false,
        audit: false,
        retries: 0,
        point_timeout: None,
        connect: None,
        canonical: false,
        daemon_stats: false,
        daemon_shutdown: false,
        slow_point_secs: None,
        max_retries: Some(32),
        retry_deadline_secs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--protocol" => {
                args.protocol_spec = value("--protocol")?;
                args.protocol = protocols::from_spec(&args.protocol_spec)?;
            }
            "--list-protocols" => list_protocols(),
            "--mobility" => args.source = parse_mobility(&value("--mobility")?)?,
            "--load" => {
                args.load = value("--load")?
                    .parse()
                    .map_err(|e| format!("bad load: {e}"))?
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad reps: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--buffer" => {
                args.buffer = value("--buffer")?
                    .parse()
                    .map_err(|e| format!("bad buffer: {e}"))?
            }
            "--tx-time" => {
                args.tx_time = Some(
                    value("--tx-time")?
                        .parse()
                        .map_err(|e| format!("bad tx-time: {e}"))?,
                )
            }
            "--stats" => args.stats = true,
            "--trace" => args.trace_out = Some(value("--trace")?.into()),
            "--series" => args.series_out = Some(value("--series")?.into()),
            "--loss" => {
                args.loss = value("--loss")?
                    .parse()
                    .map_err(|e| format!("bad loss: {e}"))?
            }
            "--truncate" => {
                args.faults.truncation_prob = value("--truncate")?
                    .parse()
                    .map_err(|e| format!("bad truncate: {e}"))?
            }
            "--ack-loss" => {
                args.faults.ack_loss_prob = value("--ack-loss")?
                    .parse()
                    .map_err(|e| format!("bad ack-loss: {e}"))?
            }
            "--burst" => args.faults.burst = Some(parse_burst(&value("--burst")?)?),
            "--churn" => args.faults.churn = Some(parse_churn(&value("--churn")?)?),
            "--robustness" => args.robustness = true,
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?.into()),
            "--resume" => args.resume = true,
            "--audit" => args.audit = true,
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("bad retries: {e}"))?
            }
            "--point-timeout" => {
                args.point_timeout = Some(
                    value("--point-timeout")?
                        .parse()
                        .map_err(|e| format!("bad point-timeout: {e}"))?,
                )
            }
            "--connect" => args.connect = Some(value("--connect")?),
            "--max-retries" => {
                let n: u32 = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("bad max-retries: {e}"))?;
                args.max_retries = (n > 0).then_some(n);
            }
            "--retry-deadline" => {
                let secs: f64 = value("--retry-deadline")?
                    .parse()
                    .map_err(|e| format!("bad retry-deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--retry-deadline must be a positive number".into());
                }
                args.retry_deadline_secs = Some(secs);
            }
            "--slow-point-secs" => {
                let secs: f64 = value("--slow-point-secs")?
                    .parse()
                    .map_err(|e| format!("bad slow-point-secs: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--slow-point-secs must be a positive number".into());
                }
                args.slow_point_secs = Some(secs);
            }
            "--canonical" => args.canonical = true,
            "--daemon-stats" => args.daemon_stats = true,
            "--daemon-shutdown" => args.daemon_shutdown = true,
            "-v" | "--verbose" => args.verbosity = Verbosity::Verbose,
            "-q" | "--quiet" => args.verbosity = Verbosity::Quiet,
            "--help" | "-h" => {
                println!(
                    "usage: dtnsim [--protocol NAME] [--list-protocols] [--mobility NAME] \
                     [--load K] [--reps N] [--seed S] [--buffer B] [--tx-time SECS] [--stats] \
                     [--trace PATH] [--series PATH] [--canonical] [--audit] [--retries N] \
                     [--point-timeout SECS] [--slow-point-secs SECS] \
                     [--loss P] [--burst G,B,GB,BG] \
                     [--truncate P] [--ack-loss P] [--churn UP,DOWN[,crash|duty]] \
                     [--robustness [--checkpoint PATH] [--resume]] \
                     [--connect HOST:PORT|http://HOST:PORT [--max-retries N] \
                     [--retry-deadline SECS] [--daemon-stats | --daemon-shutdown]] [-v | -q]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.load == 0 || args.reps == 0 || args.buffer == 0 {
        return Err("load, reps and buffer must be positive".into());
    }
    dtn_epidemic::validate_probability("transfer_loss_prob", args.loss)?;
    args.faults.validate()?;
    if args.resume && args.checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    if args.point_timeout == Some(0) {
        return Err("--point-timeout must be at least 1 second".into());
    }
    if (args.daemon_stats || args.daemon_shutdown) && args.connect.is_none() {
        return Err("--daemon-stats/--daemon-shutdown require --connect HOST:PORT".into());
    }
    if args.connect.is_some() {
        if args.stats || args.trace_out.is_some() || args.series_out.is_some() {
            return Err(
                "--stats/--trace/--series capture in-process state and are local-only; \
                 drop them or drop --connect"
                    .into(),
            );
        }
        if args.checkpoint.is_some() || args.resume {
            return Err("--checkpoint/--resume are local-only (the daemon's result \
                 cache already makes re-runs incremental)"
                .into());
        }
    }
    Ok(args)
}

fn print_report(report: &SweepReport, canonical: bool) {
    if canonical {
        print!("{}", report.to_canonical_json());
    } else {
        print!("{}", report.to_json());
    }
}

/// Re-render a daemon `stats` reply as the stable, documented
/// `--daemon-stats` document: one JSON object, one key per line, in the
/// fixed order below regardless of daemon version. Numbers are copied
/// verbatim from the reply (u64 counters survive losslessly); keys a
/// (newer or older) daemon does not send render as `0` / `null` rather
/// than failing, so the shape itself never varies.
///
/// ```text
/// {
///   "type": "daemon_stats",       constant
///   "engine": "...",              daemon's engine version string
///   "workers": N,                 worker-pool size (configuration)
///   "queue_capacity": N,          bounded-queue size (configuration)
///   "queue_depth": N,             jobs queued right now        [volatile]
///   "running": N,                 jobs running right now       [volatile]
///   "submitted": N,               admitted jobs, lifetime
///   "completed": N,               finished jobs, lifetime
///   "failed": N,                  failed jobs (errors + panics)
///   "failed_errors": N,           ... of which job-level errors
///   "failed_panics": N,           ... of which worker-caught panics
///   "cancelled": N,               jobs cancelled while queued
///   "rejected": N,                rejected submits (all reasons)
///   "rejected_queue_full": N,     ... of which queue-full sheds
///   "rejected_shutdown": N,       ... of which during drain
///   "replication_panics": N,      panicking replications inside jobs
///   "replication_timeouts": N,    timed-out replications inside jobs
///   "bad_frames": N,              frames rejected by length/CRC checks
///   "shed_queue_deadline": N,     jobs shed past the queue-wait deadline
///   "journal_salvaged": N,        journal records recovered at startup
///   "journal_discarded": N,       journal records lost to damage
///   "stale_tmp_removed": N,       orphaned .tmp files cleaned at startup
///   "journal_flushes": N,         journal flushes so far        [volatile]
///   "cache_hits": N,              result-cache hits, lifetime
///   "cache_misses": N,            result-cache misses, lifetime
///   "cache_entries": N,           result-cache size now
///   "cache_expired": N,           janitor TTL expiries         [volatile]
///   "cache_evictions": N,         janitor LRU evictions        [volatile]
///   "cache_bytes": N,             resident result bytes now    [volatile]
///   "uptime_secs": F,                                          [volatile]
///   "worker_busy_secs": F,                                     [volatile]
///   "worker_utilization": F,      busy / (uptime x workers)    [volatile]
///   "latency": {...} | null       per-phase histogram snapshots [volatile]
/// }
/// ```
///
/// With `canonical`, the `[volatile]` fields are masked (numbers to `0`,
/// `latency` to `null`) so two daemons that served the same jobs print
/// byte-identical documents — the form the service tests compare.
fn render_daemon_stats(raw: &str, canonical: bool) -> Result<String, String> {
    use dtn_service::json::Value;
    let v = Value::parse(raw).map_err(|e| format!("unparseable stats reply: {e}"))?;
    if v.get("type").and_then(Value::as_str) != Some("stats") {
        return Err(format!("unexpected stats reply: {raw}"));
    }
    let num = |key: &str| match v.get(key) {
        Some(Value::Num(n)) => n.clone(),
        _ => "0".to_string(),
    };
    let volatile_num = |key: &str| {
        if canonical {
            "0".to_string()
        } else {
            num(key)
        }
    };
    // Snapshot sub-objects re-render in fixed key order too (the daemon
    // sends them ordered, but the parser's maps do not preserve it).
    let snapshot = |snap: Option<&Value>| -> String {
        let Some(snap) = snap else {
            return "null".to_string();
        };
        let field = |key: &str| match snap.get(key) {
            Some(Value::Num(n)) => n.clone(),
            _ => "0".to_string(),
        };
        format!(
            "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            field("count"),
            field("sum"),
            field("mean"),
            field("p50"),
            field("p90"),
            field("p99"),
        )
    };
    let latency = match v.get("latency") {
        Some(lat) if !canonical => {
            let phases = [
                "frame_decode",
                "request",
                "queue_wait",
                "cache_probe",
                "sim",
                "serialize",
                "write",
            ];
            let body: Vec<String> = phases
                .iter()
                .map(|p| format!("    \"{p}\": {}", snapshot(lat.get(p))))
                .collect();
            format!("{{\n{}\n  }}", body.join(",\n"))
        }
        _ => "null".to_string(),
    };
    let engine = v.get("engine").and_then(Value::as_str).unwrap_or("unknown");
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"type\": \"daemon_stats\",\n  \"engine\": \"{}\",",
        dtn_service::json::escape(engine)
    );
    for key in ["workers", "queue_capacity"] {
        let _ = writeln!(out, "  \"{key}\": {},", num(key));
    }
    for key in ["queue_depth", "running"] {
        let _ = writeln!(out, "  \"{key}\": {},", volatile_num(key));
    }
    for key in [
        "submitted",
        "completed",
        "failed",
        "failed_errors",
        "failed_panics",
        "cancelled",
        "rejected",
        "rejected_queue_full",
        "rejected_shutdown",
        "replication_panics",
        "replication_timeouts",
        "bad_frames",
        "shed_queue_deadline",
        "journal_salvaged",
        "journal_discarded",
        "stale_tmp_removed",
    ] {
        let _ = writeln!(out, "  \"{key}\": {},", num(key));
    }
    // Flush count is timing-dependent (the time-based window fires on
    // its own clock), so it masks with the volatile group.
    let _ = writeln!(
        out,
        "  \"journal_flushes\": {},",
        volatile_num("journal_flushes")
    );
    for key in ["cache_hits", "cache_misses", "cache_entries"] {
        let _ = writeln!(out, "  \"{key}\": {},", num(key));
    }
    // Janitor activity rides the cron clock, not the served work, so
    // the eviction counters and resident-byte gauge mask as volatile.
    for key in ["cache_expired", "cache_evictions", "cache_bytes"] {
        let _ = writeln!(out, "  \"{key}\": {},", volatile_num(key));
    }
    for key in ["uptime_secs", "worker_busy_secs", "worker_utilization"] {
        let _ = writeln!(out, "  \"{key}\": {},", volatile_num(key));
    }
    let _ = writeln!(out, "  \"latency\": {latency}");
    out.push_str("}\n");
    Ok(out)
}

/// Re-render a `dtnfedd` coordinator `stats` reply (detected by its
/// `role:"coordinator"` member) as a stable document, mirroring
/// [`render_daemon_stats`]: fixed key order, volatile fields masked
/// under `canonical` so two coordinators that served the same sweep
/// print byte-identical documents.
fn render_coordinator_stats(raw: &str, canonical: bool) -> Result<String, String> {
    use dtn_service::json::Value;
    let v = Value::parse(raw).map_err(|e| format!("unparseable stats reply: {e}"))?;
    let num = |key: &str| match v.get(key) {
        Some(Value::Num(n)) => n.clone(),
        _ => "0".to_string(),
    };
    let volatile_num = |key: &str| {
        if canonical {
            "0".to_string()
        } else {
            num(key)
        }
    };
    let engine = v.get("engine").and_then(Value::as_str).unwrap_or("unknown");
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"type\": \"coordinator_stats\",\n  \"engine\": \"{}\",",
        dtn_service::json::escape(engine)
    );
    for key in ["workers", "routable_workers"] {
        let _ = writeln!(out, "  \"{key}\": {},", num(key));
    }
    let _ = writeln!(
        out,
        "  \"degraded\": {},",
        v.get("degraded").and_then(Value::as_bool).unwrap_or(false)
    );
    for key in [
        "submitted",
        "completed",
        "failovers",
        "hedges",
        "redispatches",
        "rejected_no_workers",
        "rejected_unreachable",
    ] {
        let _ = writeln!(out, "  \"{key}\": {},", num(key));
    }
    // Probe counts, the hedge deadline, in-flight jobs, uptime, and the
    // relay cache (refetch traffic and janitor sweeps both ride wall
    // clocks) all track wall time, not served work: they mask with the
    // volatile group.
    for key in [
        "inflight",
        "probes_ok",
        "probes_failed",
        "relay_hits",
        "relay_misses",
        "relay_entries",
        "cache_expired",
        "cache_evictions",
        "cache_bytes",
        "hedge_deadline_ms",
        "uptime_secs",
    ] {
        let _ = writeln!(out, "  \"{key}\": {},", volatile_num(key));
    }
    out.push_str("  \"shards\": [");
    let shards = v.get("shards").and_then(Value::as_array);
    for (i, shard) in shards.into_iter().flatten().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let addr = shard.get("addr").and_then(Value::as_str).unwrap_or("?");
        let state = shard.get("state").and_then(Value::as_str).unwrap_or("?");
        let completed = match shard.get("completed") {
            Some(Value::Num(n)) => n.clone(),
            _ => "0".to_string(),
        };
        let _ = write!(
            out,
            "\n    {{\"addr\": \"{}\", \"state\": \"{}\", \"completed\": {}}}",
            dtn_service::json::escape(addr),
            dtn_service::json::escape(state),
            completed,
        );
    }
    out.push_str(if shards.is_some_and(|s| !s.is_empty()) {
        "\n  ]\n"
    } else {
        "]\n"
    });
    out.push_str("}\n");
    Ok(out)
}

/// The `--robustness` mode: sweep all protocols over the fault grid.
fn run_robustness_mode(args: &Args, log: &Reporter) -> ExitCode {
    let Source::Builtin(mobility) = args.source else {
        log.error(
            "dtnsim: --robustness needs a built-in mobility (trace, rwp, geom-rwp, interval=SECS)",
        );
        return ExitCode::FAILURE;
    };
    let cfg = robustness_config(args);
    match run_robustness(
        mobility,
        &cfg,
        args.checkpoint.as_deref(),
        args.resume,
        log,
        None,
    ) {
        Ok(report) => {
            print_report(&report, args.canonical);
            ExitCode::SUCCESS
        }
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            ExitCode::FAILURE
        }
    }
}

fn robustness_config(args: &Args) -> SweepConfig {
    SweepConfig {
        loads: vec![args.load],
        replications: args.reps,
        base_seed: args.seed,
        buffer_capacity: args.buffer,
        tx_time_secs: args.tx_time,
        retries: args.retries,
        point_timeout_secs: args.point_timeout,
        audit: args.audit,
        slow_point_secs: args.slow_point_secs,
        ..SweepConfig::default()
    }
}

fn connect(addr: &str, log: &Reporter) -> Result<Client, ExitCode> {
    Client::connect(addr).map_err(|e| {
        log.error(format!("dtnsim: cannot connect to daemon at {addr}: {e}"));
        ExitCode::FAILURE
    })
}

/// The healing policy for sweep submission: bounded backpressure retry,
/// seeded from `--seed` so the whole retry/reconnect schedule is
/// reproducible.
fn retry_policy(args: &Args) -> RetryPolicy {
    RetryPolicy {
        max_retries: args.max_retries,
        deadline: args
            .retry_deadline_secs
            .map(std::time::Duration::from_secs_f64),
        seed: args.seed,
        ..RetryPolicy::default()
    }
}

/// Submit jobs in order, then collect results in the same order, through
/// the self-healing client: the daemon parallelizes across its workers;
/// submission is cheap (admit or cache-hit, never simulate); severed
/// connections reconnect and resume with only the missing points.
fn submit_and_collect(
    client: &mut ResilientClient,
    jobs: &[PointJob],
    log: &Reporter,
) -> Result<(Vec<Option<PointOutcome>>, usize), String> {
    // `collect_available` is `collect_fragments` against a plain
    // daemon; against a degraded coordinator it records per-point
    // `unreachable` answers as `None` (partial-sweep mode) instead of
    // failing the run.
    let pairs = client.collect_available(jobs).map_err(|e| e.to_string())?;
    let cached = pairs
        .iter()
        .filter(|p| matches!(p, Some((_, true))))
        .count();
    log.info(format!(
        "daemon cache: {cached}/{} points served from cache",
        jobs.len()
    ));
    let heal = client.heal_stats();
    if heal.reconnects > 0 {
        log.info(format!(
            "healed through faults: {} reconnects, {} resubmits, {} refetches",
            heal.reconnects, heal.resubmits, heal.refetches
        ));
    }
    let outcomes = pairs
        .iter()
        .map(|pair| {
            pair.as_ref()
                .map(|(fragment, _)| PointOutcome::from_wire_json(fragment))
                .transpose()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((outcomes, cached))
}

/// If `addr` is a `dtnfedd` coordinator, fetch its stats and turn them
/// into the report's federation attribution; a plain daemon (no
/// `role:"coordinator"` in its stats) yields `None`. Best-effort — a
/// completed sweep never fails over its attribution fetch.
fn federation_stats(client: &mut ResilientClient, missing_points: u64) -> Option<FederationStats> {
    use dtn_service::json::Value;
    let raw = client.stats_raw().ok()?;
    let v = Value::parse(&raw).ok()?;
    if v.get("role").and_then(Value::as_str) != Some("coordinator") {
        return None;
    }
    let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let shards = v
        .get("shards")
        .and_then(Value::as_array)
        .map(|entries| {
            entries
                .iter()
                .map(|s| ShardStat {
                    addr: s
                        .get("addr")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    state: s
                        .get("state")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    completed: s.get("completed").and_then(Value::as_u64).unwrap_or(0),
                })
                .collect()
        })
        .unwrap_or_default();
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

/// Client mode for the robustness grid: same jobs, same order, same
/// report assembly — only the execution happens daemon-side.
fn run_robustness_client(args: &Args, addr: &str, log: &Reporter) -> ExitCode {
    let Source::Builtin(mobility) = args.source else {
        log.error("dtnsim: --robustness needs a built-in mobility");
        return ExitCode::FAILURE;
    };
    let cfg = robustness_config(args);
    let points = match grid_point_jobs(mobility, &cfg) {
        Ok(points) => points,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let mut client = ResilientClient::new(addr, retry_policy(args));
    let started = Instant::now();
    let jobs: Vec<PointJob> = points.iter().map(|gp| gp.job.clone()).collect();
    let (outcomes, _) = match submit_and_collect(&mut client, &jobs, log) {
        Ok(r) => r,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    // Partial-sweep mode: a degraded coordinator reported some points
    // unreachable. Assemble the report from what drained, name what is
    // missing, and exit non-zero — the report is honest, not complete.
    let missing: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.is_none().then_some(i))
        .collect();
    for &i in &missing {
        let job = &jobs[i];
        log.error(format!(
            "dtnsim: point missing (unreachable shard): {} @ {} load {}",
            job.protocol,
            job.mobility.label(),
            job.load
        ));
    }
    let (kept_points, kept_outcomes): (Vec<_>, Vec<_>) = points
        .iter()
        .cloned()
        .zip(outcomes)
        .filter_map(|(p, o)| o.map(|o| (p, o)))
        .unzip();
    let mut report = assemble_grid_report(
        mobility,
        &cfg,
        &kept_points,
        &kept_outcomes,
        started.elapsed().as_secs_f64(),
    );
    report.federation = federation_stats(&mut client, missing.len() as u64);
    print_report(&report, args.canonical);
    if missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        log.error(format!(
            "dtnsim: partial sweep: {}/{} points missing",
            missing.len(),
            jobs.len()
        ));
        ExitCode::from(3)
    }
}

/// Client mode for `--connect http://host:port`: the same robustness
/// sweep, submitted through a daemon's HTTP/JSON gateway. The gateway
/// runs the wire client on our behalf, streams each point's result back
/// over chunked transfer-encoding as it lands, and finishes with the
/// assembled report, which prints verbatim — a canonical gateway run is
/// byte-identical to canonical wire-client and local runs.
fn run_gateway_client(args: &Args, gateway: &str, log: &Reporter) -> ExitCode {
    use dtn_service::json::Value;
    use std::io::{BufRead as _, Read as _, Write as _};
    let Source::Builtin(mobility) = args.source else {
        log.error("dtnsim: --robustness needs a built-in mobility");
        return ExitCode::FAILURE;
    };
    // The POST body mirrors `robustness_config` field for field, so the
    // gateway derives the identical job grid (and therefore the same
    // content-addressed sweep id a repeated submission collapses onto).
    let mut spec = format!(
        "{{\"mobility\":\"{}\",\"load\":{},\"reps\":{},\"seed\":{},\"buffer\":{},\"retries\":{}",
        mobility.spec(),
        args.load,
        args.reps,
        args.seed,
        args.buffer,
        args.retries
    );
    if let Some(tx) = args.tx_time {
        let _ = write!(spec, ",\"tx_time\":{tx}");
    }
    if let Some(t) = args.point_timeout {
        let _ = write!(spec, ",\"point_timeout\":{t}");
    }
    if args.audit {
        spec.push_str(",\"audit\":true");
    }
    spec.push('}');
    let response = match httpd::http_request(
        gateway,
        "POST",
        "/v1/sweeps",
        Some(("application/json", spec.as_bytes())),
    ) {
        Ok(r) => r,
        Err(e) => {
            log.error(format!(
                "dtnsim: cannot reach gateway at http://{gateway}: {e}"
            ));
            return ExitCode::FAILURE;
        }
    };
    let body = String::from_utf8_lossy(&response.body).into_owned();
    let doc = Value::parse(body.trim()).ok();
    let member = |key: &str| {
        doc.as_ref()
            .and_then(|d| d.get(key).and_then(Value::as_str).map(str::to_string))
    };
    match response.status {
        200 | 202 => {}
        429 => {
            let after = response.header("retry-after").unwrap_or("?").to_string();
            log.error(format!(
                "dtnsim: gateway backpressure ({}); retry after {after}s",
                member("reason").unwrap_or_else(|| "queue full".into())
            ));
            return ExitCode::FAILURE;
        }
        503 => {
            log.error(format!(
                "dtnsim: federation degraded below quorum: {}",
                member("detail").unwrap_or_default()
            ));
            return ExitCode::FAILURE;
        }
        status => {
            log.error(format!(
                "dtnsim: gateway refused the sweep ({status}): {}",
                body.trim()
            ));
            return ExitCode::FAILURE;
        }
    }
    let Some(id) = member("id") else {
        log.error(format!(
            "dtnsim: gateway reply has no sweep id: {}",
            body.trim()
        ));
        return ExitCode::FAILURE;
    };
    log.info(format!("gateway accepted sweep {id}"));
    let path = format!(
        "/v1/sweeps/{id}/stream{}",
        if args.canonical { "?canonical=1" } else { "" }
    );
    let stream = match httpd::http_open(gateway, "GET", &path, None) {
        Ok((200, _, reader)) => reader,
        Ok((status, _, _)) => {
            log.error(format!("dtnsim: gateway stream refused ({status})"));
            return ExitCode::FAILURE;
        }
        Err(e) => {
            log.error(format!("dtnsim: gateway stream failed: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let mut lines = std::io::BufReader::new(stream);
    let mut line = String::new();
    let mut done = 0u64;
    let mut cached = 0u64;
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) => {
                log.error("dtnsim: gateway stream ended without a report");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
            Err(e) => {
                log.error(format!("dtnsim: gateway stream died: {e}"));
                return ExitCode::FAILURE;
            }
        }
        let Ok(event) = Value::parse(line.trim()) else {
            log.error(format!("dtnsim: unparseable stream line: {}", line.trim()));
            return ExitCode::FAILURE;
        };
        match event.get("type").and_then(Value::as_str) {
            Some("point") => {
                done += 1;
                if event.get("cached").and_then(Value::as_bool) == Some(true) {
                    cached += 1;
                }
            }
            Some("report") => {
                let missing = event.get("missing").and_then(Value::as_u64).unwrap_or(0);
                let bytes = event.get("bytes").and_then(Value::as_u64).unwrap_or(0);
                log.info(format!(
                    "gateway cache: {cached}/{done} points served from cache"
                ));
                // The header names the exact byte count; everything
                // after it is the report, forwarded verbatim. The count
                // comes from the network, so the buffer grows with the
                // bytes that actually arrive instead of trusting it.
                let mut report = Vec::new();
                match (&mut lines).take(bytes).read_to_end(&mut report) {
                    Ok(n) if n as u64 == bytes => {}
                    Ok(n) => {
                        log.error(format!(
                            "dtnsim: torn report stream: {n} of {bytes} bytes arrived"
                        ));
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        log.error(format!("dtnsim: torn report stream: {e}"));
                        return ExitCode::FAILURE;
                    }
                }
                let stdout = std::io::stdout();
                let mut out = stdout.lock();
                if out.write_all(&report).and_then(|()| out.flush()).is_err() {
                    return ExitCode::FAILURE;
                }
                return if missing == 0 {
                    ExitCode::SUCCESS
                } else {
                    log.error(format!("dtnsim: partial sweep: {missing} points missing"));
                    ExitCode::from(3)
                };
            }
            Some("error") => {
                let status = event
                    .get("status")
                    .and_then(Value::as_str)
                    .unwrap_or("failed");
                let detail = event.get("error").and_then(Value::as_str).unwrap_or("");
                log.error(format!("dtnsim: gateway sweep {status}: {detail}"));
                return ExitCode::FAILURE;
            }
            // Forward compatibility: skip event types this client does
            // not know.
            _ => {}
        }
    }
}

/// Client mode for a single (protocol, mobility, load) run.
fn run_single_client(args: &Args, addr: &str, log: &Reporter) -> ExitCode {
    let Source::Builtin(mobility) = args.source else {
        log.error(
            "dtnsim: --connect needs a built-in mobility (trace, rwp, geom-rwp, interval=SECS); \
             the daemon cannot see local trace files",
        );
        return ExitCode::FAILURE;
    };
    // Single-run convention: the trace seed and RNG root are both
    // `--seed`, exactly as the local path below sets them.
    let job = PointJob {
        protocol: args.protocol_spec.clone(),
        mobility,
        load: args.load,
        replications: args.reps,
        root_seed: args.seed,
        trace_seed: args.seed,
        buffer_capacity: args.buffer,
        tx_time_secs: args.tx_time.unwrap_or_else(|| mobility.tx_time_secs()),
        transfer_loss: args.loss,
        faults: args.faults.clone(),
        retries: args.retries,
        point_timeout_secs: args.point_timeout,
        audit: args.audit,
    };
    let mut client = ResilientClient::new(addr, retry_policy(args));
    let started = Instant::now();
    let (outcomes, _) = match submit_and_collect(&mut client, std::slice::from_ref(&job), log) {
        Ok(r) => r,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let Some(outcome) = &outcomes[0] else {
        log.error("dtnsim: the point is unreachable (degraded federation, quorum lost)");
        return ExitCode::from(3);
    };
    let wall = started.elapsed().as_secs_f64();

    let mut report = single_run_report(args, &mobility.label(), outcome, wall);
    report.record_cache((0, 0));
    report.finish(wall);
    report.federation = federation_stats(&mut client, 0);
    print_report(&report, args.canonical);
    ExitCode::SUCCESS
}

/// The report of one single-point run, up to its sweep record — shared
/// by the local and the daemon path so both print the same bytes.
fn single_run_report(args: &Args, label: &str, outcome: &PointOutcome, wall: f64) -> SweepReport {
    let mut report = SweepReport::new(format!(
        "dtnsim: {} @ {} load {} x {} replications",
        args.protocol.name, label, args.load, args.reps
    ));
    record_supervised_point(
        &mut report,
        args.protocol.name,
        label,
        args.load,
        &outcome.outcomes,
        &outcome.attempts,
    );
    for v in &outcome.violations {
        report.record_violation(v.clone());
    }
    report.record_sweep(format!("{} @ {}", args.protocol.name, label), wall);
    report
}

/// One successful replication's event capture and sampled curves.
type Capture = (usize, String, TimeSeriesProbe);

/// Run the local single point through the shared replication path, with
/// the JSONL + series probes when `probed` and the auditor when `audit`.
/// The probes are monomorphized in, so the un-probed, un-audited run is
/// the plain `simulate` path.
fn run_local(
    plan: ReplicationPlan,
    watchdog: Watchdog,
    probed: bool,
    audit: bool,
) -> (PointOutcome, Vec<Capture>) {
    let threads = Threads::Auto;
    let mut captures = Vec::new();
    let mut capture = |rep, m: &RunMetrics, jsonl: JsonlProbe, mut series: TimeSeriesProbe| {
        series.finish(m.end_time);
        captures.push((rep, jsonl.into_jsonl(), series));
    };
    let outcome = match (probed, audit) {
        (false, false) => {
            PointOutcome::from_supervised(plan.run(threads, watchdog, |_| NullProbe), |_, _, _| {
                Vec::new()
            })
        }
        (false, true) => PointOutcome::from_supervised(
            plan.run(threads, watchdog, |r| r.audit_probe()),
            |_, _, auditor| auditor.violation_strings(),
        ),
        (true, false) => PointOutcome::from_supervised(
            plan.run(threads, watchdog, |r| (JsonlProbe::new(), r.series_probe())),
            |rep, m, (jsonl, series)| {
                capture(rep, m, jsonl, series);
                Vec::new()
            },
        ),
        (true, true) => PointOutcome::from_supervised(
            plan.run(threads, watchdog, |r| {
                FanoutProbe::new((JsonlProbe::new(), r.series_probe()), r.audit_probe())
            }),
            |rep, m, probe| {
                let ((jsonl, series), auditor) = probe.into_parts();
                capture(rep, m, jsonl, series);
                auditor.violation_strings()
            },
        ),
    };
    (outcome, captures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtnsim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let log = Reporter::new(args.verbosity);

    if let Some(raw_addr) = &args.connect {
        // `http://host:port` selects the gateway client; bare
        // `host:port` the wire client; anything else is a typed error.
        let wire = match httpd::parse_connect_target(raw_addr) {
            Ok(ConnectTarget::Wire(addr)) => addr,
            Ok(ConnectTarget::Http(gateway)) => {
                if args.daemon_stats || args.daemon_shutdown {
                    log.error(
                        "dtnsim: --daemon-stats/--daemon-shutdown speak the wire protocol; \
                         connect to the daemon's host:port, not the gateway URL",
                    );
                    return ExitCode::FAILURE;
                }
                if !args.robustness {
                    log.error(
                        "dtnsim: the gateway serves --robustness sweeps; for a single run \
                         connect to the daemon's host:port",
                    );
                    return ExitCode::FAILURE;
                }
                return run_gateway_client(&args, &gateway, &log);
            }
            Err(e) => {
                log.error(format!("dtnsim: {e}"));
                return ExitCode::FAILURE;
            }
        };
        let addr = wire.as_str();
        if args.daemon_stats {
            let mut client = match connect(addr, &log) {
                Ok(c) => c,
                Err(code) => return code,
            };
            let rendered = client.stats_raw().and_then(|raw| {
                use dtn_service::json::Value;
                let coordinator = Value::parse(&raw)
                    .ok()
                    .is_some_and(|v| v.get("role").and_then(Value::as_str) == Some("coordinator"));
                if coordinator {
                    render_coordinator_stats(&raw, args.canonical)
                } else {
                    render_daemon_stats(&raw, args.canonical)
                }
            });
            return match rendered {
                Ok(stats) => {
                    print!("{stats}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    log.error(format!("dtnsim: {e}"));
                    ExitCode::FAILURE
                }
            };
        }
        if args.daemon_shutdown {
            let mut client = match connect(addr, &log) {
                Ok(c) => c,
                Err(code) => return code,
            };
            return match client.shutdown() {
                Ok(draining) => {
                    log.info(format!(
                        "daemon is shutting down, draining {draining} admitted job(s)"
                    ));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    log.error(format!("dtnsim: {e}"));
                    ExitCode::FAILURE
                }
            };
        }
        return if args.robustness {
            run_robustness_client(&args, addr, &log)
        } else {
            run_single_client(&args, addr, &log)
        };
    }

    if args.robustness {
        return run_robustness_mode(&args, &log);
    }

    let cache = TraceCache::new();
    let tx_time = args
        .tx_time
        .unwrap_or_else(|| args.source.default_tx_time());
    let plan = ReplicationPlan {
        root: SimRng::new(args.seed),
        load: args.load,
        replications: args.reps,
        traces: args.source.traces(args.seed, &cache),
        config: SimConfig {
            buffer_capacity: args.buffer,
            tx_time: SimDuration::from_secs(tx_time),
            transfer_loss_prob: args.loss,
            faults: args.faults.clone(),
            ..SimConfig::paper_defaults(args.protocol.clone())
        },
    };
    let label = args.source.label();

    log.info(format!(
        "protocol {:?} | mobility {} | load {} | buffer {} | tx {} s | {} replications",
        args.protocol.name, label, args.load, args.buffer, tx_time, args.reps
    ));

    if args.stats {
        log.info(format!(
            "\ncontact-trace summary:\n{}",
            TraceSummary::of(&plan.traces.get(0).to_trace()).to_text()
        ));
    }

    let probed = args.trace_out.is_some() || args.series_out.is_some();
    // Start every replication's trace up front so the report's phase
    // breakdown can separate mobility preparation (the generators' eager
    // pre-pass) from the protocol loop, which generates the windows it
    // reads. A file trace is already loaded, so its trace phase is just
    // handing it out.
    let trace_started = Instant::now();
    for rep in 0..args.reps {
        let _ = plan.traces.get(rep as u64);
    }
    let trace_secs = trace_started.elapsed().as_secs_f64();
    let started = Instant::now();
    let watchdog = Watchdog::new(args.retries, args.point_timeout);
    let (outcome, captures) = run_local(plan, watchdog, probed, args.audit);
    let wall = started.elapsed().as_secs_f64();
    for (rep, o) in outcome.outcomes.iter().enumerate() {
        match o {
            RunOutcome::Ok(_) => {}
            RunOutcome::Panicked(message) => {
                log.error(format!("replication {rep} panicked: {message}"));
            }
            RunOutcome::TimedOut => log.error(format!(
                "replication {rep} exceeded --point-timeout and was abandoned"
            )),
        }
    }
    let runs: Vec<RunMetrics> = outcome
        .outcomes
        .iter()
        .filter_map(|o| match o {
            RunOutcome::Ok(m) => Some(*m),
            _ => None,
        })
        .collect();

    // Event capture: manifest line, then each replication's events behind
    // a `{"rep":i}` marker. Replications land in index order, so the file
    // is byte-identical for a fixed seed regardless of the thread policy
    // (the manifest's wall-clock is the only non-deterministic line).
    if let Some(path) = &args.trace_out {
        let manifest = RunManifest {
            tool: "dtnsim".into(),
            protocol: args.protocol.name.into(),
            mobility: label.clone(),
            load: args.load,
            replications: args.reps,
            seed: args.seed,
            buffer_capacity: args.buffer,
            tx_time_secs: tx_time,
            git_rev: dtn_experiments::git_rev(),
            unix_time_secs: dtn_experiments::unix_time_secs(),
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", manifest.to_jsonl());
        let mut events = 0usize;
        for (rep, jsonl, _) in &captures {
            let _ = writeln!(out, "{{\"rep\":{rep}}}");
            out.push_str(jsonl);
            events += jsonl.lines().count();
        }
        if let Err(e) = std::fs::write(path, &out) {
            log.error(format!("dtnsim: cannot write {}: {e}", path.display()));
            return ExitCode::FAILURE;
        }
        log.debug(format!(
            "wrote {} events for {} replications to {}",
            events,
            args.reps,
            path.display()
        ));
    }

    // Time-series CSV: one row per (replication, sample).
    if let Some(path) = &args.series_out {
        let mut csv = String::from("rep,t_secs,occupancy,duplication,delivered,transmissions\n");
        for (rep, _, probe) in &captures {
            for s in &probe.samples {
                let _ = writeln!(
                    csv,
                    "{},{},{:.6},{:.6},{},{}",
                    rep,
                    s.t.as_secs(),
                    s.occupancy,
                    s.duplication,
                    s.delivered,
                    s.transmissions
                );
            }
        }
        if let Err(e) = std::fs::write(path, &csv) {
            log.error(format!("dtnsim: cannot write {}: {e}", path.display()));
            return ExitCode::FAILURE;
        }
        log.debug(format!("wrote series CSV to {}", path.display()));
    }
    let mut gap_hist = Histogram::new();
    let mut bundles_hist = Histogram::new();
    for (_, _, probe) in &captures {
        gap_hist.merge(&probe.contact_gap);
        bundles_hist.merge(&probe.bundles_per_contact);
    }

    if args.audit {
        match outcome.violations.len() {
            0 => log.info("audit: clean — no invariant violations"),
            n => log.error(format!("audit: {n} invariant violation(s) detected")),
        }
    }

    let point = aggregate_point(args.load, &runs);
    log.info(format!("results over {} replications:", args.reps));
    log.info(format!(
        "  delivery ratio      {:.1} % ± {:.1}",
        100.0 * point.delivery_ratio.mean,
        100.0 * point.delivery_ratio.ci95_half_width()
    ));
    match point.delay_s.n {
        0 => log.info("  delay               no run completed within the horizon"),
        _ => log.info(format!(
            "  delay               {:.0} s over {} completed runs ({} failed)",
            point.delay_s.mean, point.delay_s.n, point.failures
        )),
    }
    log.info(format!(
        "  buffer occupancy    {:.1} %",
        100.0 * point.buffer_occupancy.mean
    ));
    log.info(format!(
        "  duplication rate    {:.1} %",
        100.0 * point.duplication_rate.mean
    ));
    log.info(format!(
        "  transmissions       {:.0}",
        point.transmissions.mean
    ));
    log.info(format!(
        "  immunity records    {:.0}",
        point.ack_records.mean
    ));
    if probed && !gap_hist.is_empty() {
        log.debug(format!(
            "  inter-contact gap   p50 {:.0} s, p90 {:.0} s over {} gaps",
            gap_hist.quantile(0.5).unwrap_or(0.0),
            gap_hist.quantile(0.9).unwrap_or(0.0),
            gap_hist.count()
        ));
    }

    // The machine-readable report is the only thing on stdout.
    let assemble_started = Instant::now();
    let mut report = single_run_report(&args, &label, &outcome, wall);
    report.record_cache(cache.stats());
    if !gap_hist.is_empty() {
        report.attach_histogram("inter_contact_gap_s", gap_hist);
    }
    if !bundles_hist.is_empty() {
        report.attach_histogram("bundles_per_contact", bundles_hist);
    }
    report.record_point_timing(dtn_experiments::PointTiming {
        trace_secs,
        sim_secs: wall,
        assemble_secs: assemble_started.elapsed().as_secs_f64(),
    });
    report.finish(wall);
    print_report(&report, args.canonical);
    ExitCode::SUCCESS
}
