//! Integration tests for the HTTP/JSON gateway subsystem: the bounded
//! HTTP parser under hostile input (fuzz, slowloris, oversized frames),
//! the chunked sweep-streaming protocol, the upstream-state → HTTP
//! status mapping, the janitor's cache budget, and the headline
//! contract — a gateway-streamed canonical report is **byte-identical**
//! to wire-client and local runs, including with a worker `kill -9`'d
//! mid-sweep.

use dtn_experiments::jobs::PointJob;
use dtn_experiments::{
    assemble_grid_report, grid_point_jobs, Mobility, PointOutcome, SweepConfig, TraceCache,
};
use dtn_service::httpd::{self, read_request, Handler, HttpLimits, HttpServer};
use dtn_service::json::Value;
use dtn_service::{
    Client, Coordinator, CoordinatorConfig, Daemon, DaemonConfig, Gateway, GatewayConfig,
    ResilientClient, RetryPolicy,
};
use dtn_sim::Threads;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// The `SweepConfig` the gateway derives from a spec with only
/// `mobility`/`load`/`reps`/`seed` set — defaults must match
/// `parse_sweep_spec` so the grids (and the content-addressed sweep
/// ids) line up.
fn gateway_grid_cfg(load: u32, reps: usize, seed: u64) -> SweepConfig {
    SweepConfig {
        loads: vec![load],
        replications: reps,
        base_seed: seed,
        buffer_capacity: 10,
        ..SweepConfig::default()
    }
}

fn spec_json(load: u32, reps: usize, seed: u64) -> String {
    format!("{{\"mobility\":\"interval=2000\",\"load\":{load},\"reps\":{reps},\"seed\":{seed}}}")
}

fn worker_daemon() -> Daemon {
    Daemon::spawn(DaemonConfig {
        workers: 2,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind")
}

fn gateway_for(upstream: &str, seed: u64) -> Gateway {
    Gateway::spawn(GatewayConfig {
        seed,
        ..GatewayConfig::new(upstream)
    })
    .expect("gateway should bind")
}

fn post_sweep(gateway: &str, spec: &str) -> (u16, String, Option<String>) {
    let r = httpd::http_request(
        gateway,
        "POST",
        "/v1/sweeps",
        Some(("application/json", spec.as_bytes())),
    )
    .expect("POST /v1/sweeps");
    let body = String::from_utf8_lossy(&r.body).into_owned();
    let id = Value::parse(body.trim())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string));
    (r.status, body, id)
}

/// Everything one `GET /v1/sweeps/{id}/stream` delivers.
struct StreamEnd {
    /// `(index, cached, verbatim outcome bytes)` per point line.
    points: Vec<(usize, bool, String)>,
    missing: u64,
    report: Vec<u8>,
}

fn stream_sweep(gateway: &str, id: &str, canonical: bool) -> Result<StreamEnd, String> {
    let path = format!(
        "/v1/sweeps/{id}/stream{}",
        if canonical { "?canonical=1" } else { "" }
    );
    let (status, _, reader) =
        httpd::http_open(gateway, "GET", &path, None).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("stream answered {status}"));
    }
    let mut lines = BufReader::new(reader);
    let mut points = Vec::new();
    loop {
        let mut line = String::new();
        if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("stream ended without a terminal line".to_string());
        }
        let trimmed = line.trim_end_matches('\n');
        let v = Value::parse(trimmed).map_err(|e| format!("bad stream line {trimmed:?}: {e}"))?;
        match v.get("type").and_then(Value::as_str) {
            Some("point") => {
                let index = v.get("index").and_then(Value::as_u64).expect("index") as usize;
                let cached = v.get("cached").and_then(Value::as_bool).expect("cached");
                // `outcome` is the last member: slice its bytes
                // verbatim rather than re-encoding through a parser.
                let marker = "\"outcome\":";
                let at = trimmed.find(marker).ok_or("no outcome member")?;
                let fragment = trimmed[at + marker.len()..trimmed.len() - 1].to_string();
                points.push((index, cached, fragment));
            }
            Some("report") => {
                let missing = v.get("missing").and_then(Value::as_u64).unwrap_or(0);
                let bytes = v.get("bytes").and_then(Value::as_u64).unwrap_or(0) as usize;
                let mut report = vec![0u8; bytes];
                lines.read_exact(&mut report).map_err(|e| e.to_string())?;
                return Ok(StreamEnd {
                    points,
                    missing,
                    report,
                });
            }
            Some("error") => return Err(format!("terminal error: {trimmed}")),
            _ => {}
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtn_gw_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir
}

fn wait_for_file(path: &Path, what: &str) -> String {
    for _ in 0..600 {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                return text;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("{what} never appeared at {}", path.display());
}

// ---------------------------------------------------------------------
// Parser hardening: fuzz, torn bodies, oversized frames, slowloris
// ---------------------------------------------------------------------

proptest! {
    /// The bounded parser must never panic, whatever bytes arrive.
    #[test]
    fn http_parser_never_panics_on_arbitrary_bytes(
        words in proptest::collection::vec(0u32..256, 0..2048)
    ) {
        let bytes: Vec<u8> = words.iter().map(|w| *w as u8).collect();
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_request(&mut cursor, &HttpLimits::default());
    }

    /// Every prefix of a valid chunked request either parses to the
    /// complete body or errors — never panics, never invents bytes.
    #[test]
    fn torn_chunked_requests_error_instead_of_truncating(cut in 0usize..90) {
        let full: &[u8] =
            b"POST /v1/sweeps HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let cut = cut.min(full.len());
        let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
        if let Ok(req) = read_request(&mut cursor, &HttpLimits::default()) {
            prop_assert_eq!(req.body, b"wikipedia".to_vec());
        }
    }
}

#[test]
fn oversized_heads_and_bodies_get_431_and_413_over_the_wire() {
    let handler: Arc<Handler> = Arc::new(|_req, resp| {
        let _ = resp.send("200 OK", "text/plain", &[], b"fine");
    });
    let server = HttpServer::spawn(
        0,
        "gw-test-limits",
        HttpLimits {
            max_head_bytes: 256,
            max_body_bytes: 64,
            ..HttpLimits::default()
        },
        handler,
    )
    .expect("bind");
    let addr = server.local_addr();

    let exchange = |payload: &[u8]| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(payload).expect("write");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };
    let huge_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(1024));
    assert!(
        exchange(huge_header.as_bytes()).starts_with("HTTP/1.1 431"),
        "oversized head must answer 431"
    );
    let huge_body = format!(
        "POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n{}",
        "b".repeat(999)
    );
    assert!(
        exchange(huge_body.as_bytes()).starts_with("HTTP/1.1 413"),
        "oversized body must answer 413"
    );
    server.shutdown();
}

#[test]
fn slowloris_connections_are_cut_by_the_read_deadline() {
    let handler: Arc<Handler> = Arc::new(|_req, resp| {
        let _ = resp.send("200 OK", "text/plain", &[], b"fine");
    });
    let server = HttpServer::spawn(
        0,
        "gw-test-slow",
        HttpLimits {
            read_deadline: Duration::from_millis(400),
            ..HttpLimits::default()
        },
        handler,
    )
    .expect("bind");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Dribble a partial request line and stall — the server must cut
    // the connection at its deadline instead of pinning the thread.
    s.write_all(b"GET / HT").expect("write");
    let started = Instant::now();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "connection survived {elapsed:?} past a 400 ms deadline"
    );
    if !out.is_empty() {
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// The headline contract: gateway == wire == local, byte for byte
// ---------------------------------------------------------------------

#[test]
fn gateway_sweep_streams_verbatim_fragments_and_a_report_byte_identical_to_local() {
    let daemon = worker_daemon();
    let gateway = gateway_for(&daemon.local_addr().to_string(), 7);
    let gw = gateway.local_addr().to_string();

    let cfg = gateway_grid_cfg(5, 1, 1);
    let mobility = Mobility::Interval(2000);
    let points = grid_point_jobs(mobility, &cfg).expect("grid");

    // Local ground truth: fragments and the assembled canonical report.
    let cache = TraceCache::new();
    let outcomes: Vec<PointOutcome> = points
        .iter()
        .map(|p| p.job.run(Threads::Sequential, &cache).expect("local run"))
        .collect();
    let local_fragments: Vec<String> = outcomes.iter().map(|o| o.to_wire_json()).collect();
    let local_report =
        assemble_grid_report(mobility, &cfg, &points, &outcomes, 0.0).to_canonical_json();

    let (status, body, id) = post_sweep(&gw, &spec_json(5, 1, 1));
    assert_eq!(status, 202, "fresh submit must be accepted: {body}");
    let id = id.expect("submit reply carries the sweep id");

    let end = stream_sweep(&gw, &id, true).expect("stream");
    assert_eq!(end.missing, 0);
    assert_eq!(end.points.len(), points.len(), "one line per point");
    for (index, _cached, fragment) in &end.points {
        assert_eq!(
            fragment, &local_fragments[*index],
            "streamed outcome {index} must be the daemon's verbatim fragment"
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&end.report),
        local_report,
        "gateway-assembled canonical report must equal the local one"
    );

    // Idempotent resubmission: the spec's content address collapses
    // onto the finished sweep (200, status done), and a re-stream
    // replays the identical bytes — all points now cache hits.
    let (status, body, id2) = post_sweep(&gw, &spec_json(5, 1, 1));
    assert_eq!(status, 200, "resubmit must reuse the sweep: {body}");
    assert_eq!(id2.as_deref(), Some(id.as_str()));
    assert!(body.contains("\"status\":\"done\""), "{body}");
    let replay = stream_sweep(&gw, &id, true).expect("re-stream");
    assert_eq!(
        replay.report, end.report,
        "replayed report must be byte-identical"
    );

    // Status document and protocol table round out the read API.
    let doc = httpd::http_request(&gw, "GET", &format!("/v1/sweeps/{id}"), None).expect("status");
    assert_eq!(doc.status, 200);
    let doc_body = String::from_utf8_lossy(&doc.body).into_owned();
    assert!(doc_body.contains("\"status\":\"done\""), "{doc_body}");
    let protos = httpd::http_request(&gw, "GET", "/v1/protocols", None).expect("protocols");
    assert!(String::from_utf8_lossy(&protos.body).contains("\"spec\":\"pure\""));

    gateway.shutdown();
    daemon.request_shutdown();
    daemon.join().expect("join");
}

#[test]
fn gateway_fronts_a_federation_and_survives_a_kill_nine_worker() {
    let dir = tmp_dir("kill9");
    let bin = env!("CARGO_BIN_EXE_dtnsimd");
    let spawn_worker = |addr_file: &Path| {
        std::process::Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--job-threads",
                "1",
            ])
            .arg("--addr-file")
            .arg(addr_file)
            .spawn()
            .expect("spawn dtnsimd")
    };
    let mut children: Vec<std::process::Child> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for i in 0..3 {
        let addr_file = dir.join(format!("w{i}.addr"));
        children.push(spawn_worker(&addr_file));
        addrs.push(wait_for_file(&addr_file, "worker address"));
    }
    let coordinator = Coordinator::spawn(CoordinatorConfig {
        workers: addrs.clone(),
        heartbeat_interval_ms: 100,
        probe_timeout_ms: 1_000,
        suspect_after: 2,
        dead_after: 4,
        seed: 11,
        ..CoordinatorConfig::default()
    })
    .expect("coordinator should bind");
    let fed_addr = coordinator.local_addr().to_string();
    let gateway = gateway_for(&fed_addr, 13);
    let gw = gateway.local_addr().to_string();

    // Heavy enough that the sweep is mid-flight when the kill lands.
    let (load, reps, seed) = (100u32, 10usize, 3u64);
    let (status, body, id) = post_sweep(&gw, &spec_json(load, reps, seed));
    assert_eq!(status, 202, "{body}");
    let id = id.expect("sweep id");

    // Stream in a thread; kill one worker once a few points landed.
    let stream_gw = gw.clone();
    let stream_id = id.clone();
    let streamer = std::thread::spawn(move || stream_sweep(&stream_gw, &stream_id, true));
    loop {
        let doc = httpd::http_request(&gw, "GET", &format!("/v1/sweeps/{id}"), None)
            .expect("status")
            .body;
        let doc = String::from_utf8_lossy(&doc).into_owned();
        let done = Value::parse(doc.trim())
            .ok()
            .and_then(|v| v.get("done").and_then(Value::as_u64))
            .unwrap_or(0);
        if done >= 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    children[0].kill().expect("kill -9 a worker");
    let _ = children[0].wait();

    let end = streamer.join().expect("streamer").expect("stream");
    assert_eq!(
        end.missing, 0,
        "failover must rescue the dead shard's points"
    );

    // Byte-identity after healing: a wire client collecting the same
    // grid (mostly from the surviving shards' caches) assembles the
    // identical canonical report.
    let cfg = gateway_grid_cfg(load, reps, seed);
    let mobility = Mobility::Interval(2000);
    let points = grid_point_jobs(mobility, &cfg).expect("grid");
    let jobs: Vec<PointJob> = points.iter().map(|p| p.job.clone()).collect();
    let mut wire = ResilientClient::new(
        &fed_addr,
        RetryPolicy {
            seed: 21,
            ..RetryPolicy::default()
        },
    );
    let pairs = wire.collect_available(&jobs).expect("wire sweep");
    let outcomes: Vec<PointOutcome> = pairs
        .iter()
        .map(|p| {
            let (fragment, _) = p.as_ref().expect("every point reachable");
            PointOutcome::from_wire_json(fragment).expect("fragment decodes")
        })
        .collect();
    let wire_report =
        assemble_grid_report(mobility, &cfg, &points, &outcomes, 0.0).to_canonical_json();
    assert_eq!(
        String::from_utf8_lossy(&end.report),
        wire_report,
        "gateway report through a kill -9 must match the wire client's"
    );

    gateway.shutdown();
    coordinator.request_shutdown();
    let _ = coordinator.join();
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Upstream state → HTTP status mapping
// ---------------------------------------------------------------------

#[test]
fn backpressure_maps_to_429_with_the_daemons_retry_after_hint() {
    // No workers and a one-slot queue: pre-filling the slot makes the
    // admission probe's rejection deterministic.
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 0,
        queue_capacity: 1,
        retry_after_ms: 1_700,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let addr = daemon.local_addr().to_string();
    let filler = PointJob::from_sweep(
        "ec",
        Mobility::Interval(2000),
        5,
        &gateway_grid_cfg(5, 1, 1),
    );
    let mut wire = Client::connect(&addr).expect("connect");
    wire.submit_once(&filler)
        .expect("submit")
        .expect("the first job must be admitted");

    let gateway = gateway_for(&addr, 0);
    let gw = gateway.local_addr().to_string();
    let r = httpd::http_request(
        &gw,
        "POST",
        "/v1/sweeps",
        Some(("application/json", spec_json(5, 1, 1).as_bytes())),
    )
    .expect("POST");
    assert_eq!(r.status, 429, "{}", String::from_utf8_lossy(&r.body));
    let retry_after: u64 = r
        .header("retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("integer seconds");
    assert!(retry_after >= 1, "rounded up from 1700 ms");
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(body.contains("\"retry_after_ms\":1700"), "{body}");

    gateway.shutdown();
    drop(daemon);
}

#[test]
fn dead_upstreams_bad_specs_and_unknown_routes_map_to_502_400_404_405() {
    // Port 9 (discard) is never listening on loopback.
    let gateway = gateway_for("127.0.0.1:9", 0);
    let gw = gateway.local_addr().to_string();

    let (status, body, _) = post_sweep(&gw, &spec_json(5, 1, 1));
    assert_eq!(status, 502, "dead upstream must answer 502: {body}");

    let (status, body, _) = post_sweep(&gw, "{\"load\":5}");
    assert_eq!(status, 400, "missing mobility must answer 400: {body}");
    assert!(body.contains("mobility"), "{body}");
    let (status, body, _) = post_sweep(&gw, "not json");
    assert_eq!(status, 400, "{body}");

    let r = httpd::http_request(&gw, "GET", "/v1/sweeps/deadbeef", None).expect("GET");
    assert_eq!(r.status, 404, "unknown sweep must answer 404");
    let r = httpd::http_request(&gw, "GET", "/nope", None).expect("GET");
    assert_eq!(r.status, 404);
    let r = httpd::http_request(&gw, "PUT", "/v1/sweeps", None).expect("PUT");
    assert_eq!(r.status, 405, "wrong method on a known route is 405");

    // The sidecar routes ride the same server, same text shape.
    let health = httpd::http_request(&gw, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.body, b"ok\n");
    let metrics = httpd::http_request(&gw, "GET", "/metrics", None).expect("metrics");
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(String::from_utf8_lossy(&metrics.body).contains("# TYPE"));

    gateway.shutdown();
}

#[test]
fn a_deeply_nested_body_is_a_400_and_the_gateway_keeps_serving() {
    let gateway = gateway_for("127.0.0.1:9", 0);
    let gw = gateway.local_addr().to_string();

    // 100k open brackets: a parser that recursed once per level would
    // overflow the connection thread's stack and abort the process.
    let (status, body, _) = post_sweep(&gw, &"[".repeat(100_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");

    let protos = httpd::http_request(&gw, "GET", "/v1/protocols", None).expect("protocols");
    assert_eq!(protos.status, 200);
    assert!(String::from_utf8_lossy(&protos.body).contains("\"spec\":\"pure\""));
    gateway.shutdown();
}

// ---------------------------------------------------------------------
// Janitor: byte budget, eviction counters, cold-restart survivors
// ---------------------------------------------------------------------

#[test]
fn the_janitor_bounds_the_cache_and_survivors_replay_verbatim_after_restart() {
    let dir = tmp_dir("janitor");
    let cache_path = dir.join("cache.jsonl");
    let cfg = gateway_grid_cfg(5, 2, 1);
    let jobs: Vec<PointJob> = ["pure", "ttl=300", "immunity", "ec", "ecttl", "dynttl"]
        .iter()
        .flat_map(|spec| {
            [5u32, 8]
                .iter()
                .map(|load| PointJob::from_sweep(*spec, Mobility::Interval(2000), *load, &cfg))
        })
        .collect();
    let local_cache = TraceCache::new();
    let local: Vec<String> = jobs
        .iter()
        .map(|j| {
            j.run(Threads::Sequential, &local_cache)
                .expect("local run")
                .to_wire_json()
        })
        .collect();
    // Budget three fragments: inserting twelve forces evictions.
    let budget = (local[0].len() * 3) as u64;

    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        cache_path: Some(cache_path.clone()),
        cache_max_bytes: Some(budget),
        janitor_interval_secs: 0.05,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let addr = daemon.local_addr().to_string();
    let mut client = ResilientClient::new(
        &addr,
        RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        },
    );
    let pairs = client.collect_available(&jobs).expect("sweep");
    assert_eq!(pairs.len(), jobs.len());

    // The janitor must pull the resident set back under budget and
    // count its work in the stats frame.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut evictions, mut bytes) = (0u64, u64::MAX);
    while Instant::now() < deadline {
        let raw = client.stats_raw().expect("stats");
        let v = Value::parse(&raw).expect("stats parse");
        let get = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        evictions = get("cache_evictions");
        bytes = get("cache_bytes");
        if evictions >= 1 && bytes <= budget {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        evictions >= 1,
        "twelve fragments into a three-fragment budget must evict"
    );
    assert!(
        bytes <= budget,
        "cache_bytes {bytes} must settle under the {budget} budget"
    );

    daemon.request_shutdown();
    daemon.join().expect("join");

    // Cold restart on the compacted journal: every surviving entry
    // replays its exact bytes; evicted ones recompute.
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        cache_path: Some(cache_path),
        ..DaemonConfig::default()
    })
    .expect("daemon restart");
    let mut wire = Client::connect(&daemon.local_addr().to_string()).expect("connect");
    let mut survivors = 0usize;
    for (job, want) in jobs.iter().zip(&local) {
        let ticket = wire.submit(job).expect("resubmit");
        if ticket.cached {
            survivors += 1;
            let (fragment, cached) = wire.fetch_fragment(&ticket.job_id).expect("fetch");
            assert!(cached);
            assert_eq!(&fragment, want, "survivor must replay byte-identically");
        }
    }
    assert!(
        survivors >= 1,
        "at least the most recent entries must survive"
    );
    assert!(
        survivors < jobs.len(),
        "evictions must actually have removed entries"
    );
    daemon.request_shutdown();
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The dtnsim CLI end to end: --connect auto-selection and byte-identity
// ---------------------------------------------------------------------

#[test]
fn dtnsim_rejects_malformed_connect_addresses_with_a_typed_error() {
    let bin = env!("CARGO_BIN_EXE_dtnsim");
    let cases = [
        ("ftp://h:1", "unsupported scheme"),
        ("https://h:1", "https is not supported"),
        ("http://h:1/path", "no path"),
        ("http://h:0", "port 0"),
        ("nocolon", "expected host:port"),
    ];
    for (addr, needle) in cases {
        let out = std::process::Command::new(bin)
            .args(["--connect", addr, "--robustness"])
            .output()
            .expect("run dtnsim");
        assert!(!out.status.success(), "{addr} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("invalid connect address") && err.contains(needle),
            "{addr}: stderr {err:?} must name the problem ({needle})"
        );
    }
}

#[test]
fn dtnsim_over_http_prints_the_same_canonical_report_as_a_local_run() {
    let daemon = worker_daemon();
    let gateway = gateway_for(&daemon.local_addr().to_string(), 5);
    let gw = gateway.local_addr().to_string();
    let bin = env!("CARGO_BIN_EXE_dtnsim");
    let sweep_args = [
        "--robustness",
        "--mobility",
        "interval=2000",
        "--load",
        "5",
        "--reps",
        "1",
        "--seed",
        "1",
        "--canonical",
        "-q",
    ];

    let local = std::process::Command::new(bin)
        .args(sweep_args)
        .output()
        .expect("local run");
    assert!(
        local.status.success(),
        "{}",
        String::from_utf8_lossy(&local.stderr)
    );

    let url = format!("http://{gw}");
    let via_http = std::process::Command::new(bin)
        .args(["--connect", &url])
        .args(sweep_args)
        .output()
        .expect("gateway run");
    assert!(
        via_http.status.success(),
        "{}",
        String::from_utf8_lossy(&via_http.stderr)
    );
    assert_eq!(
        via_http.stdout, local.stdout,
        "gateway-streamed canonical report must be byte-identical to the local run"
    );

    // Wire-only controls must refuse the gateway URL, with guidance.
    let stats = std::process::Command::new(bin)
        .args(["--connect", &url, "--daemon-stats"])
        .output()
        .expect("stats over gateway");
    assert!(!stats.status.success());
    assert!(
        String::from_utf8_lossy(&stats.stderr).contains("wire protocol"),
        "stats over http must point at the wire address"
    );

    gateway.shutdown();
    daemon.request_shutdown();
    daemon.join().expect("join");
}
