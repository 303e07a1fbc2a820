//! The `service-sweep` workload: a closed loop with one HTTP client and
//! one sweep outstanding, through gateway → coordinator → two worker
//! daemons, all spawned in process through the public service APIs.
//!
//! Each iteration POSTs a fresh-seed robustness grid (8 paper protocols ×
//! 6 fault cells on `rwp`) to the *cold* gateway and drains its
//! `?canonical=1` stream, then POSTs the same spec to a second, *replay*
//! gateway in front of the same coordinator. The replay gateway has never
//! seen the spec, so it submits every point again and the federation's
//! result cache serves them all; the cold gateway would have answered
//! from its own in-memory sweep table instead.
//!
//! Correctness: every streamed report must equal the report assembled in
//! process from the same spec (`assemble_grid_report(..)
//! .to_canonical_json()`), and every replayed point must say `cached`.

use crate::layers::Layers;
use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::{iteration_seeds, median, quantile};
use crate::RunCtx;
use dtn_epidemic::{protocols, RunMetrics};
use dtn_experiments::jobs::RunOutcome;
use dtn_experiments::{
    aggregate_point, assemble_grid_report, grid_point_jobs, point_sim_config, GridPoint, Mobility,
    PointOutcome, SweepConfig, TraceCache,
};
use dtn_service::httpd::{http_open, http_request};
use dtn_service::json::Value;
use dtn_service::{
    job_key, Client, Coordinator, CoordinatorConfig, Daemon, DaemonConfig, Gateway, GatewayConfig,
    Membership,
};
use dtn_sim::telemetry::{self, HistogramSnapshot};
use dtn_sim::{SimRng, Threads};
use std::io::{BufRead, BufReader, Read};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bundles per flow in every sweep.
const LOAD: u32 = 5;
/// Replications per grid point.
const REPS: usize = 4;
/// Grid points per sweep: 6 fault cells × 8 paper protocols × 1 load.
const POINTS: usize = 48;
/// Iterations (one cold sweep plus one cached replay) per second of
/// `--seconds`; one run takes 0.4–0.8 × that long on a 2-core host.
const ITERATIONS_PER_SECOND: f64 = 4.0;

/// The POST body of the sweep seeded with `seed`.
pub fn spec_body(seed: u64) -> String {
    format!("{{\"mobility\":\"rwp\",\"load\":{LOAD},\"reps\":{REPS},\"seed\":{seed}}}")
}

/// The sweep configuration the gateway derives from [`spec_body`].
fn sweep_config(seed: u64) -> SweepConfig {
    SweepConfig {
        loads: vec![LOAD],
        replications: REPS,
        base_seed: seed,
        buffer_capacity: 10,
        ..SweepConfig::default()
    }
}

/// Gateways, coordinator and workers of one run.
struct Stack {
    workers: Vec<Daemon>,
    worker_addrs: Vec<String>,
    coordinator: Coordinator,
    coordinator_addr: String,
    cold: Gateway,
    replay: Gateway,
}

impl Stack {
    /// Spawn everything and wait until both gateways answer `/healthz`.
    fn spawn() -> Result<Stack, String> {
        let workers: Vec<Daemon> = (0..2)
            .map(|_| {
                Daemon::spawn(DaemonConfig {
                    workers: 1,
                    job_threads: Threads::Sequential,
                    ..DaemonConfig::default()
                })
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("worker bind: {e}"))?;
        let worker_addrs: Vec<String> =
            workers.iter().map(|d| d.local_addr().to_string()).collect();
        let coordinator = Coordinator::spawn(CoordinatorConfig {
            workers: worker_addrs.clone(),
            seed: 23,
            ..CoordinatorConfig::default()
        })
        .map_err(|e| format!("coordinator bind: {e}"))?;
        let coordinator_addr = coordinator.local_addr().to_string();
        let gateway = |seed| {
            Gateway::spawn(GatewayConfig {
                seed,
                ..GatewayConfig::new(&coordinator_addr)
            })
            .map_err(|e| format!("gateway bind: {e}"))
        };
        let stack = Stack {
            cold: gateway(41)?,
            replay: gateway(43)?,
            workers,
            worker_addrs,
            coordinator,
            coordinator_addr,
        };
        for gw in [stack.cold_addr(), stack.replay_addr()] {
            wait_healthy(&gw)?;
        }
        Ok(stack)
    }

    fn cold_addr(&self) -> String {
        self.cold.local_addr().to_string()
    }

    fn replay_addr(&self) -> String {
        self.replay.local_addr().to_string()
    }

    /// Shut everything down and wait for it.
    fn stop(self) {
        self.cold.shutdown();
        self.replay.shutdown();
        self.coordinator.request_shutdown();
        let _ = self.coordinator.join();
        for worker in self.workers {
            worker.request_shutdown();
            let _ = worker.join();
        }
    }
}

fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = http_request(addr, "GET", "/healthz", None) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("gateway {addr} never answered /healthz"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One sweep as the client saw it.
struct Sweep {
    started: Instant,
    posted: Instant,
    first_point: Instant,
    done: Instant,
    points: usize,
    cached_points: usize,
    report: Vec<u8>,
}

impl Sweep {
    /// POST to the last report byte, in milliseconds.
    fn total_ms(&self) -> f64 {
        (self.done - self.started).as_secs_f64() * 1e3
    }

    /// Record the sweep and its two gateway phases as spans.
    fn trace(&self, tracer: &mut Tracer, name: &'static str, point: u64) {
        let id = tracer.leaf(name, point, self.started, self.done);
        tracer.child(id, "gateway.post", point, self.started, self.posted);
        tracer.child(id, "gateway.stream", point, self.posted, self.done);
    }
}

/// The error, if any, of comparing a streamed report with the one
/// computed in process.
fn report_mismatch(expected: &[u8], streamed: &[u8], what: &str) -> Option<String> {
    (expected != streamed).then(|| {
        format!(
            "{what}: streamed report ({} bytes) differs from the in-process one ({} bytes)",
            streamed.len(),
            expected.len()
        )
    })
}

/// POST `body` to `gateway` and drain the canonical stream to the last
/// report byte.
fn sweep(gateway: &str, body: &str) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let r = http_request(
        gateway,
        "POST",
        "/v1/sweeps",
        Some(("application/json", body.as_bytes())),
    )
    .map_err(|e| format!("POST /v1/sweeps: {e}"))?;
    let posted = Instant::now();
    let reply = String::from_utf8_lossy(&r.body);
    if r.status != 202 && r.status != 200 {
        return Err(format!(
            "POST /v1/sweeps answered {}: {}",
            r.status,
            reply.trim()
        ));
    }
    let id = Value::parse(reply.trim())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .ok_or_else(|| format!("POST reply carries no id: {reply}"))?;
    let (status, _, reader) = http_open(
        gateway,
        "GET",
        &format!("/v1/sweeps/{id}/stream?canonical=1"),
        None,
    )
    .map_err(|e| format!("GET stream: {e}"))?;
    if status != 200 {
        return Err(format!("stream answered {status}"));
    }
    let mut lines = BufReader::new(reader);
    let (mut points, mut cached_points, mut first_point) = (0usize, 0usize, None);
    loop {
        let mut line = String::new();
        if lines
            .read_line(&mut line)
            .map_err(|e| format!("stream read: {e}"))?
            == 0
        {
            return Err("stream ended without a report".into());
        }
        if line.starts_with("{\"type\":\"point\"") {
            points += 1;
            cached_points += usize::from(line.contains("\"cached\":true,"));
            first_point.get_or_insert_with(Instant::now);
            continue;
        }
        let head = Value::parse(line.trim_end()).map_err(|e| format!("stream line: {e}"))?;
        if head.get("type").and_then(Value::as_str) != Some("report") {
            return Err(format!("sweep failed: {}", line.trim_end()));
        }
        if head.get("missing").and_then(Value::as_u64) != Some(0) {
            return Err(format!("sweep has missing points: {}", line.trim_end()));
        }
        let bytes = head.get("bytes").and_then(Value::as_u64).unwrap_or(0) as usize;
        let mut report = vec![0u8; bytes];
        lines
            .read_exact(&mut report)
            .map_err(|e| format!("report body: {e}"))?;
        let done = Instant::now();
        return Ok(Sweep {
            started: t0,
            posted,
            first_point: first_point.unwrap_or(done),
            done,
            points,
            cached_points,
            report,
        });
    }
}

/// The canonical report of the sweep seeded with `seed`, computed in
/// process through `PointJob::run` — or, in a traced run, one layer call
/// at a time on the same seeding convention (the report comparison
/// guards that copy), with the experiments-layer calls timed too.
fn reference_report(
    seed: u64,
    traced: Option<(&mut Layers, &mut Tracer, &mut Probes)>,
) -> Result<String, String> {
    let cfg = sweep_config(seed);
    let points = grid_point_jobs(Mobility::Rwp, &cfg)?;
    let cache = Arc::new(TraceCache::new());
    let Some((layers, tracer, probes)) = traced else {
        let outcomes = points
            .iter()
            .map(|gp| gp.job.run(Threads::Sequential, &cache))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(
            assemble_grid_report(Mobility::Rwp, &cfg, &points, &outcomes, 0.0).to_canonical_json(),
        );
    };
    tracer.begin("reference", seed);
    let mut outcomes = Vec::with_capacity(points.len());
    for gp in &points {
        outcomes.push(traced_point(gp, &cfg, &cache, layers, tracer, probes)?);
    }
    let t0 = Instant::now();
    let report = assemble_grid_report(Mobility::Rwp, &cfg, &points, &outcomes, 0.0);
    std::hint::black_box(report.to_json());
    let canonical = report.to_canonical_json();
    let t1 = Instant::now();
    tracer.leaf("experiments.report", seed, t0, t1);
    probes.report_ms.push((t1 - t0).as_secs_f64() * 1e3);
    probes.report_bytes = canonical.len();
    layers.absorb_caches(std::slice::from_ref(&*cache));
    tracer.end();
    Ok(canonical)
}

/// One grid point, replicated through [`Layers`], plus the job codec and
/// content-address timings.
fn traced_point(
    gp: &GridPoint,
    cfg: &SweepConfig,
    cache: &TraceCache,
    layers: &mut Layers,
    tracer: &mut Tracer,
    probes: &mut Probes,
) -> Result<PointOutcome, String> {
    let job = &gp.job;
    let point = layers.next_point;
    layers.next_point += 1;
    tracer.begin("point", point);
    let protocol = protocols::from_spec(&job.protocol)?;
    let index = protocols::ALL_SPECS
        .iter()
        .position(|s| *s == job.protocol)
        .ok_or_else(|| format!("{} is not a preset", job.protocol))?;
    let cell_cfg = SweepConfig {
        faults: job.faults.clone(),
        ..cfg.clone()
    };
    let sim_config = point_sim_config(&protocol, job.mobility, &cell_cfg);
    let root = SimRng::new(job.root_seed);
    let runs: Vec<RunMetrics> = (0..job.replications as u64)
        .map(|rep| {
            let trace = layers.build_trace(tracer, point, job.mobility, job.trace_seed, rep, cache);
            layers.replicate(
                tracer,
                point,
                &trace,
                job.load,
                &root,
                rep,
                &sim_config,
                index,
            )
        })
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(aggregate_point(job.load, &runs));
    let t1 = Instant::now();
    tracer.leaf("experiments.aggregate", point, t0, t1);
    layers.aggregate_us.push((t1 - t0).as_secs_f64() * 1e6);

    let outcome = PointOutcome {
        outcomes: runs.into_iter().map(RunOutcome::Ok).collect(),
        attempts: vec![1; job.replications],
        violations: Vec::new(),
        slow: 0,
    };
    let t0 = Instant::now();
    let canonical = job.to_canonical_json();
    let decoded = PointOutcome::from_wire_json(&outcome.to_wire_json())?;
    let t1 = Instant::now();
    let key = job_key(&canonical);
    let t2 = Instant::now();
    tracer.leaf("experiments.job_codec", point, t0, t1);
    tracer.leaf("service.job_key", point, t1, t2);
    std::hint::black_box(key);
    probes.codec_us.push((t1 - t0).as_secs_f64() * 1e6);
    probes.job_key_us.push((t2 - t1).as_secs_f64() * 1e6);
    tracer.end();
    if decoded != outcome {
        return Err(format!("{}: the wire codec did not round-trip", gp.key));
    }
    Ok(outcome)
}

/// Service-side measurements of a traced run.
#[derive(Default)]
struct Probes {
    report_ms: Vec<f64>,
    report_bytes: usize,
    codec_us: Vec<f64>,
    job_key_us: Vec<f64>,
    post_ms: Vec<f64>,
    first_point_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    cached_stream_ms: Vec<f64>,
    via_coordinator_us: Vec<f64>,
    direct_us: Vec<f64>,
    sim_s_cold: f64,
    sim_s_cached: f64,
    cold_s: f64,
    cached_s: f64,
}

/// Daemon latency histograms in the process-global registry, by the
/// metric-name stem they report under and its unit scale.
const HISTOGRAMS: [(&str, &str, f64); 6] = [
    ("dtnsimd_queue_wait_seconds", "queue_wait_ms", 1e3),
    ("dtnsimd_sim_seconds", "sim_ms", 1e3),
    ("dtnsimd_serialize_seconds", "serialize_us", 1e6),
    ("dtnsimd_write_seconds", "write_us", 1e6),
    ("dtnsimd_frame_decode_seconds", "frame_decode_us", 1e6),
    ("dtnsimd_cache_probe_seconds", "cache_probe_us", 1e6),
];

fn histogram(name: &'static str) -> HistogramSnapshot {
    // Registration dedups on (name, labels): this re-attaches to the
    // series the daemons record into.
    telemetry::global().histogram(name, "", &[]).snapshot()
}

/// `after − before` bucket by bucket (both from one monotone series).
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .map(|&(lo, hi, n)| {
            let prior = before.buckets.iter().find(|b| b.0 == lo).map_or(0, |b| b.2);
            (lo, hi, n - prior)
        })
        .filter(|b| b.2 > 0)
        .collect();
    HistogramSnapshot {
        buckets,
        underflow: after.underflow - before.underflow,
        count: after.count - before.count,
        sum: after.sum - before.sum,
    }
}

/// The stats reply of the daemon or coordinator at `addr`.
fn stats(addr: &str) -> Result<Value, String> {
    let raw = Client::connect(addr)
        .map_err(|e| format!("stats connect {addr}: {e}"))?
        .stats_raw()?;
    Value::parse(&raw)
}

/// Per-worker counters from the stats RPC: hits, misses, bytes, busy seconds.
fn worker_counters(addrs: &[String]) -> Result<Vec<[f64; 4]>, String> {
    addrs
        .iter()
        .map(|a| {
            let v = stats(a)?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("stats reply lacks {k}"))
            };
            Ok([
                num("cache_hits")?,
                num("cache_misses")?,
                num("cache_bytes")?,
                num("worker_busy_secs")?,
            ])
        })
        .collect()
}

/// Points completed per shard, from the coordinator's stats.
fn shard_points(coordinator: &str) -> Result<Vec<f64>, String> {
    let v = stats(coordinator)?;
    let shards = v
        .get("shards")
        .and_then(Value::as_array)
        .ok_or("coordinator stats lack shards")?;
    Ok(shards
        .iter()
        .map(|s| s.get("completed").and_then(Value::as_f64).unwrap_or(0.0))
        .collect())
}

/// Spawn a stack and push one warm-up sweep through it.
fn set_up(k: u64) -> Result<Stack, String> {
    let stack = Stack::spawn()?;
    let body = format!(
        "{{\"mobility\":\"interval=2000\",\"load\":2,\"reps\":1,\"seed\":{}}}",
        0x5E7_0000 + k
    );
    sweep(&stack.cold_addr(), &body)?;
    Ok(stack)
}

/// Timed loop results.
#[derive(Default)]
struct Loop {
    cold_ms: Vec<f64>,
    cached_ms: Vec<f64>,
}

/// The closed loop over `seeds`. With `traced`, every call is also timed
/// into spans and the per-layer probes run outside the timed windows.
fn timed_loop(
    stack: &Stack,
    seeds: &[u64],
    outcome: &mut Outcome,
    mut traced: Option<(&mut Layers, &mut Tracer, &mut Probes)>,
) -> Loop {
    let mut out = Loop::default();
    let (cold_gw, replay_gw) = (stack.cold_addr(), stack.replay_addr());
    let ring = {
        let mut m = Membership::new(CoordinatorConfig::default().virtual_nodes, 2, 4);
        for addr in &stack.worker_addrs {
            m.add(addr);
        }
        m
    };
    let mut clients = if traced.is_some() {
        let connect = |a: &str| Client::connect(a).ok();
        let mut all = vec![connect(&stack.coordinator_addr)];
        all.extend(stack.worker_addrs.iter().map(|a| connect(a)));
        all
    } else {
        Vec::new()
    };
    for (i, &seed) in seeds.iter().enumerate() {
        let body = spec_body(seed);
        let sim_before = traced
            .as_ref()
            .map(|_| histogram("dtnsimd_sim_seconds").sum);
        let cold = match sweep(&cold_gw, &body) {
            Ok(s) => s,
            Err(e) => {
                outcome.check(Some(format!("cold sweep {i}: {e}")));
                continue;
            }
        };
        let sim_mid = traced
            .as_ref()
            .map(|_| histogram("dtnsimd_sim_seconds").sum);
        outcome.check(
            (cold.points != POINTS)
                .then(|| format!("cold sweep {i} streamed {} of {POINTS} points", cold.points)),
        );
        out.cold_ms.push(cold.total_ms());

        let cached = sweep(&replay_gw, &body);
        let sim_after = traced
            .as_ref()
            .map(|_| histogram("dtnsimd_sim_seconds").sum);
        match &cached {
            Ok(c) => {
                out.cached_ms.push(c.total_ms());
                outcome.check(
                    (c.cached_points != POINTS).then(|| {
                        format!("replay {i}: {} of {POINTS} points cached", c.cached_points)
                    }),
                );
                outcome.check(
                    (c.report != cold.report)
                        .then(|| format!("replay {i}: report differs from the cold sweep's")),
                );
            }
            Err(e) => outcome.check(Some(format!("replay {i}: {e}"))),
        }

        // Correctness against the in-process computation, outside the
        // timed windows.
        let reference = reference_report(
            seed,
            traced
                .as_mut()
                .map(|(l, t, p)| (&mut **l, &mut **t, &mut **p)),
        );
        outcome.check(match reference {
            Ok(r) => report_mismatch(r.as_bytes(), &cold.report, &format!("sweep {i}")),
            Err(e) => Some(format!("sweep {i}: in-process reference failed: {e}")),
        });

        if let Some((_, tracer, probes)) = traced.as_mut() {
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            cold.trace(tracer, "sweep.cold", seed);
            probes.post_ms.push(ms(cold.started, cold.posted));
            probes
                .first_point_ms
                .push(ms(cold.started, cold.first_point));
            probes.stream_ms.push(ms(cold.posted, cold.done));
            probes.cold_s += cold.total_ms() / 1e3;
            if let (Some(b), Some(m), Some(a)) = (sim_before, sim_mid, sim_after) {
                probes.sim_s_cold += m - b;
                probes.sim_s_cached += a - m;
            }
            if let Ok(c) = &cached {
                c.trace(tracer, "sweep.cached", seed);
                probes.cached_stream_ms.push(ms(c.posted, c.done));
                probes.cached_s += c.total_ms() / 1e3;
            }
            // One cached point fetched through the coordinator and
            // straight from the worker that owns it.
            let gp =
                &grid_point_jobs(Mobility::Rwp, &sweep_config(seed)).expect("grid")[i % POINTS];
            let owner = ring
                .route(&job_key(&gp.job.to_canonical_json()))
                .expect("two live shards");
            let fetch = |client: &mut Option<Client>| -> Option<(f64, bool)> {
                let c = client.as_mut()?;
                let t0 = Instant::now();
                let ticket = c.submit(&gp.job).ok()?;
                c.fetch_fragment(&ticket.job_id).ok()?;
                Some((t0.elapsed().as_secs_f64() * 1e6, ticket.cached))
            };
            match (fetch(&mut clients[0]), fetch(&mut clients[1 + owner])) {
                (Some((via, _)), Some((direct, true))) => {
                    probes.via_coordinator_us.push(via);
                    probes.direct_us.push(direct);
                    outcome.check(None);
                }
                other => outcome.check(Some(format!(
                    "sweep {i}: cached-point probe failed: {other:?}"
                ))),
            }
        }
    }
    out
}

/// Run `service-sweep` and fill `outcome`.
pub fn run(ctx: &RunCtx, outcome: &mut Outcome) {
    let iterations = ((ctx.seconds as f64 * ITERATIONS_PER_SECOND).round() as usize).max(2);
    let seeds = iteration_seeds(ctx.seed, iterations);

    let mut setup = Vec::new();
    let mut stack = None;
    for k in 0..crate::SETUP_REPEATS {
        let t0 = if k == 0 { ctx.started } else { Instant::now() };
        match set_up(k as u64) {
            Ok(s) => {
                setup.push(t0.elapsed().as_secs_f64());
                if let Some(previous) = stack.replace(s) {
                    Stack::stop(previous);
                }
            }
            Err(e) => {
                outcome.check(Some(format!("set-up: {e}")));
                return;
            }
        }
    }
    outcome.set("setup_s", median(&setup));
    let stack = stack.expect("at least one set-up");

    let plain = timed_loop(&stack, &seeds, outcome, None);
    // Cold work completed per second of cold sweep time.
    let cold_points = (plain.cold_ms.len() * POINTS) as f64;
    let cold_s = plain.cold_ms.iter().sum::<f64>() / 1e3;
    outcome.set("runs_per_s", cold_points * REPS as f64 / cold_s);
    outcome.set("points_per_s", cold_points / cold_s);
    outcome.set("sweep_ms_p50", median(&plain.cold_ms));
    outcome.set("sweep_ms_p90", quantile(&plain.cold_ms, 0.9));
    outcome.set("cached_sweep_ms_p50", median(&plain.cached_ms));
    outcome.set("cached_sweep_ms_p90", quantile(&plain.cached_ms, 0.9));
    let rss = dtn_experiments::peak_rss_bytes().unwrap_or(0) as f64;
    outcome.set("peak_rss_mb", rss / (1024.0 * 1024.0));
    eprintln!(
        "perfbench: {} cold sweeps, {} cached replays",
        plain.cold_ms.len(),
        plain.cached_ms.len()
    );
    stack.stop();

    if ctx.traced {
        traced_run(ctx, &seeds, &plain, outcome);
    }
}

/// The traced half: a fresh stack, the same seeds, spans and probes.
fn traced_run(ctx: &RunCtx, seeds: &[u64], plain: &Loop, outcome: &mut Outcome) {
    let stack = match set_up(crate::SETUP_REPEATS as u64) {
        Ok(s) => s,
        Err(e) => return outcome.check(Some(format!("traced set-up: {e}"))),
    };
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(ctx.started);
    let mut probes = Probes::default();
    let hist_before: Vec<HistogramSnapshot> = HISTOGRAMS.iter().map(|h| histogram(h.0)).collect();
    let workers_before = worker_counters(&stack.worker_addrs);
    let shards_before = shard_points(&stack.coordinator_addr);
    let started = Instant::now();

    let traced = timed_loop(
        &stack,
        seeds,
        outcome,
        Some((&mut layers, &mut tracer, &mut probes)),
    );

    let wall_s = started.elapsed().as_secs_f64();
    for ((name, stem, scale), before) in HISTOGRAMS.iter().zip(&hist_before) {
        let delta = histogram_delta(before, &histogram(name));
        outcome.set(
            format!("daemon.{stem}_p50"),
            delta.quantile(0.5).unwrap_or(0.0) * scale,
        );
        outcome.set(
            format!("daemon.{stem}_p90"),
            delta.quantile(0.9).unwrap_or(0.0) * scale,
        );
    }
    match (workers_before, worker_counters(&stack.worker_addrs)) {
        (Ok(before), Ok(after)) => {
            let sum = |i: usize| {
                after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a[i] - b[i])
                    .sum::<f64>()
            };
            let (hits, misses) = (sum(0), sum(1));
            outcome.set("daemon.cache_hits", hits);
            outcome.set("daemon.cache_misses", misses);
            outcome.set("daemon.cache_hit_ratio", hits / (hits + misses).max(1.0));
            outcome.set(
                "daemon.cache_bytes",
                after.iter().map(|a| a[2]).sum::<f64>(),
            );
            outcome.set(
                "daemon.worker_utilization",
                sum(3) / (wall_s * after.len() as f64),
            );
        }
        (Err(e), _) | (_, Err(e)) => outcome.check(Some(format!("worker stats: {e}"))),
    }
    match (shards_before, shard_points(&stack.coordinator_addr)) {
        (Ok(before), Ok(after)) if after.len() == 2 => {
            let points: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            outcome.set("coordinator.points.w0", points[0]);
            outcome.set("coordinator.points.w1", points[1]);
            let mean = (points[0] + points[1]) / 2.0;
            outcome.set(
                "coordinator.load_skew",
                points[0].max(points[1]) / mean.max(1.0),
            );
        }
        other => outcome.check(Some(format!("coordinator stats: {:?}", other.1))),
    }
    stack.stop();

    layers.report(&tracer, &["reference"], outcome);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    outcome.set(
        "daemon.sim_share_cold",
        ratio(probes.sim_s_cold, probes.cold_s),
    );
    outcome.set(
        "daemon.sim_share_cached",
        ratio(probes.sim_s_cached, probes.cached_s),
    );
    outcome.set("experiments.report_json_ms", median(&probes.report_ms));
    outcome.set("experiments.report_bytes", probes.report_bytes as f64);
    outcome.set("experiments.job_codec_us", median(&probes.codec_us));
    outcome.set("service.job_key_us", median(&probes.job_key_us));
    outcome.set("gateway.post_ms", median(&probes.post_ms));
    outcome.set("gateway.first_point_ms", median(&probes.first_point_ms));
    outcome.set("gateway.stream_ms", median(&probes.stream_ms));
    outcome.set("gateway.cached_stream_ms", median(&probes.cached_stream_ms));
    outcome.set(
        "coordinator.hop_ms",
        (median(&probes.via_coordinator_us) - median(&probes.direct_us)) / 1e3,
    );
    outcome.set("wire.cached_round_trip_us", median(&probes.direct_us));

    let timed = |l: &Loop| (l.cold_ms.iter().sum::<f64>() + l.cached_ms.iter().sum::<f64>()) / 1e3;
    outcome.set(
        "trace_overhead_pct",
        (timed(&traced) / timed(plain) - 1.0) * 100.0,
    );
    if let Err(e) = tracer.write_jsonl(&ctx.spans_path) {
        eprintln!("perfbench: cannot write {}: {e}", ctx.spans_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gateway_and_the_reference_agree_and_corruption_is_caught() {
        let stack = Stack::spawn().expect("stack");
        let body = spec_body(9);
        let cold = sweep(&stack.cold_addr(), &body).expect("cold sweep");
        assert_eq!(cold.points, POINTS);
        let reference = reference_report(9, None).expect("reference");
        assert_eq!(reference.as_bytes(), cold.report.as_slice());
        let mut layers = Layers::default();
        let mut tracer = Tracer::new(Instant::now());
        let mut probes = Probes::default();
        let traced =
            reference_report(9, Some((&mut layers, &mut tracer, &mut probes))).expect("traced");
        assert_eq!(
            traced, reference,
            "the traced copy of the seeding convention holds"
        );
        let replay = sweep(&stack.replay_addr(), &body).expect("replay");
        assert_eq!(replay.cached_points, POINTS);
        assert_eq!(replay.report, cold.report);

        let mut outcome = Outcome::default();
        timed_loop(&stack, &[9, 10], &mut outcome, None);
        assert!(outcome.correct(), "{:?}", outcome.errors);
        stack.stop();

        // A corrupted report byte fails the check the loop applies.
        outcome.check(report_mismatch(reference.as_bytes(), &cold.report, "clean"));
        assert!(outcome.correct());
        let mut corrupted = cold.report.clone();
        let middle = corrupted.len() / 2;
        corrupted[middle] ^= 1;
        outcome.check(report_mismatch(
            reference.as_bytes(),
            &corrupted,
            "corrupted",
        ));
        assert!(!outcome.correct());
    }

    #[test]
    fn sweep_specs_are_a_function_of_the_seed() {
        let a: Vec<String> = iteration_seeds(4, 3).into_iter().map(spec_body).collect();
        let b: Vec<String> = iteration_seeds(4, 3).into_iter().map(spec_body).collect();
        assert_eq!(a, b);
        assert_ne!(
            a,
            iteration_seeds(5, 3)
                .into_iter()
                .map(spec_body)
                .collect::<Vec<_>>()
        );
    }
}
