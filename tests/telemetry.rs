//! End-to-end test for the operational telemetry surface: a real
//! `Daemon` plus a real `MetricsServer` on loopback, scraped over raw
//! TCP exactly the way Prometheus would.
//!
//! The contract under test:
//!
//! 1. `GET /metrics` serves Prometheus text format (version 0.0.4) with
//!    the documented `dtnsimd_*` families present from the first scrape;
//! 2. counters and histogram counts are monotone across scrapes and
//!    move when jobs actually flow through the daemon (fresh run, cache
//!    hit, rejection);
//! 3. `GET /healthz` answers 200 and unknown paths answer 404 without
//!    disturbing the metrics endpoint.

use dtn_experiments::jobs::PointJob;
use dtn_experiments::{Mobility, SweepConfig};
use dtn_service::{Client, Daemon, DaemonConfig, MetricsServer};
use dtn_sim::Threads;
use std::io::{Read, Write};
use std::net::TcpStream;

fn test_config() -> SweepConfig {
    SweepConfig {
        loads: vec![5],
        replications: 2,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

/// Issue one HTTP/1.0 request and return (status line, body).
fn http_get(addr: &std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics server");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response should have a header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Value of one exact series (`name` or `name{labels}`) in a scrape.
fn series_value(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|line| line.strip_prefix(series)?.trim_start().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("series {series} missing from scrape:\n{body}"))
}

#[test]
fn metrics_endpoint_serves_live_monotone_daemon_telemetry() {
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let server = MetricsServer::spawn(0).expect("metrics server should bind");
    let addr = server.local_addr();

    // First scrape: all documented families are present before any job
    // has run, each with HELP/TYPE headers.
    let (status, before) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "scrape status: {status}");
    for family in [
        "# TYPE dtnsimd_connections_total counter",
        "# TYPE dtnsimd_jobs_total counter",
        "# TYPE dtnsimd_rejections_total counter",
        "# TYPE dtnsimd_cache_total counter",
        "# TYPE dtnsimd_queue_depth gauge",
        "# TYPE dtnsimd_inflight_jobs gauge",
        "# TYPE dtnsimd_worker_utilization gauge",
        "# TYPE dtnsimd_trace_cache_entries gauge",
        "# TYPE dtnsimd_trace_cache_bytes gauge",
        "# TYPE dtnsimd_queue_wait_seconds histogram",
        "# TYPE dtnsimd_sim_seconds histogram",
        "# TYPE dtnsimd_serialize_seconds histogram",
        "# TYPE dtnsimd_frame_decode_seconds histogram",
        "dtnsimd_cache_total{result=\"hit\"}",
        "dtnsimd_cache_total{result=\"miss\"}",
        "dtnsimd_sim_seconds_bucket{le=\"+Inf\"}",
    ] {
        assert!(
            before.contains(family),
            "want {family} in scrape:\n{before}"
        );
    }
    let completed_before = series_value(&before, "dtnsimd_jobs_total{outcome=\"completed\"}");
    let cached_before = series_value(&before, "dtnsimd_jobs_total{outcome=\"cached\"}");
    let hits_before = series_value(&before, "dtnsimd_cache_total{result=\"hit\"}");
    let sim_count_before = series_value(&before, "dtnsimd_sim_seconds_count");
    let wait_count_before = series_value(&before, "dtnsimd_queue_wait_seconds_count");

    // Drive one fresh job through the daemon, then replay it from the
    // result cache.
    let job = PointJob::from_sweep("pure", Mobility::Interval(2000), 5, &test_config());
    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
    let ticket = client.submit(&job).expect("submit");
    assert!(!ticket.cached);
    let _ = client.fetch_fragment(&ticket.job_id).expect("fetch");
    let replay = client.submit(&job).expect("resubmit");
    assert!(replay.cached, "second submission should be a cache hit");

    let (_, after) = http_get(&addr, "/metrics");
    let completed_after = series_value(&after, "dtnsimd_jobs_total{outcome=\"completed\"}");
    let cached_after = series_value(&after, "dtnsimd_jobs_total{outcome=\"cached\"}");
    let hits_after = series_value(&after, "dtnsimd_cache_total{result=\"hit\"}");
    let sim_count_after = series_value(&after, "dtnsimd_sim_seconds_count");
    let wait_count_after = series_value(&after, "dtnsimd_queue_wait_seconds_count");
    assert!(
        completed_after >= completed_before + 1.0,
        "fresh job must advance jobs_total{{outcome=completed}}: {completed_before} -> {completed_after}"
    );
    assert!(
        cached_after >= cached_before + 1.0,
        "replay must advance jobs_total{{outcome=cached}}: {cached_before} -> {cached_after}"
    );
    assert!(
        hits_after >= hits_before + 1.0,
        "replay must advance cache_total{{result=hit}}: {hits_before} -> {hits_after}"
    );
    assert!(
        sim_count_after >= sim_count_before + 1.0,
        "fresh job must record a sim-phase sample: {sim_count_before} -> {sim_count_after}"
    );
    assert!(
        wait_count_after >= wait_count_before + 1.0,
        "fresh job must record a queue-wait sample: {wait_count_before} -> {wait_count_after}"
    );
    // The fresh job's traces stay in the daemon's trace cache.
    assert!(series_value(&after, "dtnsimd_trace_cache_entries") >= 1.0);
    assert!(series_value(&after, "dtnsimd_trace_cache_bytes") > 0.0);
    let utilization = series_value(&after, "dtnsimd_worker_utilization");
    assert!(
        (0.0..=1.0).contains(&utilization),
        "worker utilization must stay a fraction, got {utilization}"
    );

    // The sidecar endpoints must not disturb scraping.
    let (health_status, health_body) = http_get(&addr, "/healthz");
    assert!(
        health_status.contains("200"),
        "healthz status: {health_status}"
    );
    assert_eq!(health_body, "ok\n");
    let (missing_status, _) = http_get(&addr, "/nope");
    assert!(
        missing_status.contains("404"),
        "unknown path: {missing_status}"
    );
    let (_, last) = http_get(&addr, "/metrics");
    assert!(
        series_value(&last, "dtnsimd_jobs_total{outcome=\"completed\"}") >= completed_after,
        "counters must be monotone across scrapes"
    );

    server.shutdown();
    daemon.request_shutdown();
    daemon.join().expect("daemon join");
}
