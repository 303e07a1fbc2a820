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
//!   --daemon-stats     print the daemon's (or coordinator's) `stats`
//!                      reply as JSON, one member per line in reply order,
//!                      and exit (requires --connect). With --canonical,
//!                      the members that follow wall time or load (queue
//!                      depth, uptime, utilization, latency snapshots,
//!                      probe counts, …; `VOLATILE_STATS`) are masked, so
//!                      two daemons that served the same work compare
//!                      byte-identical
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
    protocols, ChurnMode, ChurnPlan, FaultPlan, GilbertElliott, JsonlProbe, NullProbe,
    ProtocolConfig, RunMetrics, SimConfig, TimeSeriesProbe,
};
use dtn_experiments::jobs::PointJob;
use dtn_experiments::runner::aggregate_point;
use dtn_experiments::{
    grid_point_jobs, record_supervised_point, run_robustness, Mobility, PointOutcome,
    ReplicationPlan, Reporter, RunManifest, RunOutcome, SweepConfig, SweepReport, TraceCache,
    Traces, Verbosity,
};
use dtn_mobility::{read_trace_file, LazyTrace, TraceSummary};
use dtn_service::httpd::{self, ConnectTarget, SweepSpec};
use dtn_service::{stats_document, Client, HealStats, ResilientClient, RetryPolicy};
use dtn_sim::{Histogram, SimDuration, SimRng, Threads, Watchdog};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    protocol: ProtocolConfig,
    /// The raw `--protocol` spec — the job identity sent to a daemon.
    protocol_spec: String,
    /// Scenario, load, replications, seed, buffer, tx time and
    /// supervision: the gateway's sweep spec, with its defaults.
    spec: SweepSpec,
    /// A trace file named by `--mobility`, loaded once and shared by
    /// every replication; it replaces `spec.mobility`.
    trace_file: Option<(std::path::PathBuf, Arc<LazyTrace>)>,
    stats: bool,
    trace_out: Option<std::path::PathBuf>,
    series_out: Option<std::path::PathBuf>,
    verbosity: Verbosity,
    loss: f64,
    faults: FaultPlan,
    robustness: bool,
    checkpoint: Option<std::path::PathBuf>,
    resume: bool,
    connect: Option<String>,
    canonical: bool,
    daemon_stats: bool,
    daemon_shutdown: bool,
    slow_point_secs: Option<f64>,
    max_retries: Option<u32>,
    retry_deadline_secs: Option<f64>,
}

impl Args {
    /// `--mobility`: a built-in scenario, or else a trace file path.
    fn set_mobility(&mut self, spec: &str) -> Result<(), String> {
        self.trace_file = None;
        match Mobility::parse(spec) {
            Ok(m) => self.spec.mobility = m,
            Err(parse_err) => {
                let path = std::path::PathBuf::from(spec);
                if !path.exists() {
                    return Err(format!("{parse_err}, or a trace file path"));
                }
                let trace = read_trace_file(&path).map_err(|e| format!("loading {spec}: {e}"))?;
                let trace = LazyTrace::complete(Arc::new(trace));
                self.trace_file = Some((path, Arc::new(trace)));
            }
        }
        Ok(())
    }

    /// The run's trace source: built-in scenarios are generated per
    /// replication through `cache`; a file trace is handed out as is.
    fn traces(&self, cache: &TraceCache) -> Traces {
        match &self.trace_file {
            Some((_, trace)) => Traces::Fixed(Arc::clone(trace)),
            None => Traces::Scenario {
                mobility: self.spec.mobility,
                seed: self.spec.seed,
                cache: cache.clone(),
            },
        }
    }

    /// `--tx-time`, else the scenario's regime (100 s for a trace file).
    fn tx_time(&self) -> u64 {
        let default = match self.trace_file {
            Some(_) => 100,
            None => self.spec.mobility.tx_time_secs(),
        };
        self.spec.tx_time.unwrap_or(default)
    }

    fn label(&self) -> String {
        match &self.trace_file {
            Some((path, _)) => path.display().to_string(),
            None => self.spec.mobility.label(),
        }
    }
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
        spec: SweepSpec::new(Mobility::Trace),
        trace_file: None,
        stats: false,
        trace_out: None,
        series_out: None,
        verbosity: Verbosity::Normal,
        loss: 0.0,
        faults: FaultPlan::default(),
        robustness: false,
        checkpoint: None,
        resume: false,
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
            "--mobility" => args.set_mobility(&value("--mobility")?)?,
            "--load" => {
                args.spec.load = value("--load")?
                    .parse()
                    .map_err(|e| format!("bad load: {e}"))?
            }
            "--reps" => {
                args.spec.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad reps: {e}"))?
            }
            "--seed" => {
                args.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--buffer" => {
                args.spec.buffer = value("--buffer")?
                    .parse()
                    .map_err(|e| format!("bad buffer: {e}"))?
            }
            "--tx-time" => {
                args.spec.tx_time = Some(
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
            "--audit" => args.spec.audit = true,
            "--retries" => {
                args.spec.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("bad retries: {e}"))?
            }
            "--point-timeout" => {
                args.spec.point_timeout = Some(
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
    args.spec.validate()?;
    dtn_epidemic::validate_probability("transfer_loss_prob", args.loss)?;
    args.faults.validate()?;
    if args.resume && args.checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    if (args.daemon_stats || args.daemon_shutdown) && args.connect.is_none() {
        return Err("--daemon-stats/--daemon-shutdown require --connect HOST:PORT".into());
    }
    if args.trace_file.is_some() && (args.robustness || args.connect.is_some()) {
        return Err("--robustness and --connect need a built-in mobility \
                    (trace, rwp, geom-rwp, interval=SECS); a daemon cannot see local trace files"
            .into());
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

/// The `--robustness` mode: sweep all protocols over the fault grid.
fn run_robustness_mode(args: &Args, log: &Reporter) -> ExitCode {
    let cfg = SweepConfig {
        slow_point_secs: args.slow_point_secs,
        ..args.spec.sweep_config()
    };
    match run_robustness(
        args.spec.mobility,
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
        seed: args.spec.seed,
        ..RetryPolicy::default()
    }
}

/// What collecting points from the daemon took: its cache hits, and the
/// healing a faulty link needed.
fn log_collection(log: &Reporter, cached: usize, points: usize, heal: HealStats) {
    log.info(format!(
        "daemon cache: {cached}/{points} points served from cache"
    ));
    if heal.reconnects > 0 {
        log.info(format!(
            "healed through faults: {} reconnects, {} resubmits, {} refetches",
            heal.reconnects, heal.resubmits, heal.refetches
        ));
    }
}

/// Client mode for the robustness grid: the gateway's remote sweep, run
/// from here — same jobs, same order, same report assembly.
fn run_robustness_client(args: &Args, addr: &str, log: &Reporter) -> ExitCode {
    let cfg = args.spec.sweep_config();
    let points = match grid_point_jobs(args.spec.mobility, &cfg) {
        Ok(points) => points,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let mut client = ResilientClient::new(addr, retry_policy(args));
    let grid = match client.sweep_grid(args.spec.mobility, &cfg, &points, &mut |_, _, _| {}) {
        Ok(grid) => grid,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    log_collection(log, grid.cached, points.len(), client.heal_stats());
    // Partial-sweep mode: a degraded coordinator reported some points
    // unreachable. The report holds what drained; name what is missing
    // and exit non-zero — the report is honest, not complete.
    for &i in &grid.missing {
        let job = &points[i].job;
        log.error(format!(
            "dtnsim: point missing (unreachable shard): {} @ {} load {}",
            job.protocol,
            job.mobility.label(),
            job.load
        ));
    }
    print_report(&grid.report, args.canonical);
    if grid.missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        log.error(format!(
            "dtnsim: partial sweep: {}/{} points missing",
            grid.missing.len(),
            points.len()
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
    // The gateway parses the body back into the same spec, so it derives
    // the identical job grid (and the same content-addressed sweep id a
    // repeated submission collapses onto).
    let spec = args.spec.to_json();
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
    let spec = &args.spec;
    // Single-run convention: the trace seed and RNG root are both
    // `--seed`, exactly as the local path below sets them.
    let job = PointJob {
        protocol: args.protocol_spec.clone(),
        mobility: spec.mobility,
        load: spec.load,
        replications: spec.reps,
        root_seed: spec.seed,
        trace_seed: spec.seed,
        buffer_capacity: spec.buffer,
        tx_time_secs: args.tx_time(),
        transfer_loss: args.loss,
        faults: args.faults.clone(),
        retries: spec.retries,
        point_timeout_secs: spec.point_timeout,
        audit: spec.audit,
    };
    let mut client = ResilientClient::new(addr, retry_policy(args));
    let started = Instant::now();
    let pair = match client.collect_available(std::slice::from_ref(&job)) {
        Ok(mut pairs) => pairs.pop().flatten(),
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let cached = pair.as_ref().is_some_and(|(_, cached)| *cached);
    log_collection(log, usize::from(cached), 1, client.heal_stats());
    let Some((fragment, _)) = pair else {
        log.error("dtnsim: the point is unreachable (degraded federation, quorum lost)");
        return ExitCode::from(3);
    };
    let outcome = match PointOutcome::from_wire_json(&fragment) {
        Ok(outcome) => outcome,
        Err(e) => {
            log.error(format!("dtnsim: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed().as_secs_f64();

    let mut report = single_run_report(args, &spec.mobility.label(), &outcome, wall);
    report.record_cache((0, 0));
    report.finish(wall);
    report.federation = client.federation_stats(0);
    print_report(&report, args.canonical);
    ExitCode::SUCCESS
}

/// The report of one single-point run, up to its sweep record — shared
/// by the local and the daemon path so both print the same bytes.
fn single_run_report(args: &Args, label: &str, outcome: &PointOutcome, wall: f64) -> SweepReport {
    let mut report = SweepReport::new(format!(
        "dtnsim: {} @ {} load {} x {} replications",
        args.protocol.name, label, args.spec.load, args.spec.reps
    ));
    record_supervised_point(
        &mut report,
        args.protocol.name,
        label,
        args.spec.load,
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
                ((JsonlProbe::new(), r.series_probe()), r.audit_probe())
            }),
            |rep, m, ((jsonl, series), auditor)| {
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
            return match client
                .stats_raw()
                .and_then(|raw| stats_document(&raw, args.canonical))
            {
                Ok(doc) => {
                    print!("{doc}");
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
    let tx_time = args.tx_time();
    let spec = &args.spec;
    let plan = ReplicationPlan {
        root: SimRng::new(spec.seed),
        load: spec.load,
        replications: spec.reps,
        traces: args.traces(&cache),
        config: SimConfig {
            buffer_capacity: spec.buffer,
            tx_time: SimDuration::from_secs(tx_time),
            transfer_loss_prob: args.loss,
            faults: args.faults.clone(),
            ..SimConfig::paper_defaults(args.protocol.clone())
        },
    };
    let label = args.label();

    log.info(format!(
        "protocol {:?} | mobility {} | load {} | buffer {} | tx {} s | {} replications",
        args.protocol.name, label, spec.load, spec.buffer, tx_time, spec.reps
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
    for rep in 0..spec.reps {
        let _ = plan.traces.get(rep as u64);
    }
    let trace_secs = trace_started.elapsed().as_secs_f64();
    let started = Instant::now();
    let watchdog = Watchdog::new(spec.retries, spec.point_timeout);
    let (outcome, captures) = run_local(plan, watchdog, probed, spec.audit);
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
            load: spec.load,
            replications: spec.reps,
            seed: spec.seed,
            buffer_capacity: spec.buffer,
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
            spec.reps,
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

    if spec.audit {
        match outcome.violations.len() {
            0 => log.info("audit: clean — no invariant violations"),
            n => log.error(format!("audit: {n} invariant violation(s) detected")),
        }
    }

    let point = aggregate_point(spec.load, &runs);
    log.info(format!("results over {} replications:", spec.reps));
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
