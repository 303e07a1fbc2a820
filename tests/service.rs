//! End-to-end tests for the simulation service: a real `Daemon` on a
//! loopback socket, driven through the real `Client`.
//!
//! The contract under test, in order of importance:
//!
//! 1. a job executed by the daemon returns **byte-identical** wire
//!    fragments to the same job executed in-process;
//! 2. resubmitting a job is served from the content-addressed cache —
//!    `cached: true`, same bytes, no recomputation;
//! 3. the bounded queue rejects with explicit backpressure instead of
//!    growing, and queued jobs can be cancelled;
//! 4. shutdown drains admitted jobs and persists the cache index, and a
//!    fresh daemon serves from the persisted index.

use dtn_experiments::jobs::PointJob;
use dtn_experiments::{Mobility, SweepConfig, TraceCache};
use dtn_service::wire::{read_frame, write_frame};
use dtn_service::{Client, Daemon, DaemonConfig};
use dtn_sim::Threads;
use std::net::TcpStream;

fn test_config() -> SweepConfig {
    SweepConfig {
        loads: vec![5],
        replications: 2,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

fn test_jobs() -> Vec<PointJob> {
    let cfg = test_config();
    ["pure", "ttl=300", "immunity"]
        .iter()
        .map(|spec| PointJob::from_sweep(*spec, Mobility::Interval(2000), 5, &cfg))
        .collect()
}

fn spawn_daemon(config: DaemonConfig) -> (Daemon, String) {
    let daemon = Daemon::spawn(config).expect("daemon should bind");
    let addr = daemon.local_addr().to_string();
    (daemon, addr)
}

#[test]
fn daemon_results_are_bit_identical_to_local_runs_and_cache_hits_replay_them() {
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 2,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    });
    let jobs = test_jobs();

    // Local ground truth, computed entirely in-process.
    let local_cache = TraceCache::new();
    let local: Vec<String> = jobs
        .iter()
        .map(|j| {
            j.run(Threads::Sequential, &local_cache)
                .expect("local run")
                .to_wire_json()
        })
        .collect();

    let mut client = Client::connect(&addr).expect("connect");
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit(j).expect("submit"))
        .collect();
    assert!(
        tickets.iter().all(|t| !t.cached),
        "first submission must actually compute"
    );
    for (ticket, local_fragment) in tickets.iter().zip(&local) {
        let (fragment, cached) = client.fetch_fragment(&ticket.job_id).expect("fetch");
        assert!(!cached);
        assert_eq!(
            &fragment, local_fragment,
            "daemon result must be byte-identical to the local run"
        );
    }

    // Resubmission: every point is a cache hit replaying the same bytes.
    for (job, local_fragment) in jobs.iter().zip(&local) {
        let ticket = client.submit(job).expect("resubmit");
        assert!(ticket.cached, "resubmission must be served from cache");
        let (fragment, cached) = client.fetch_fragment(&ticket.job_id).expect("refetch");
        assert!(cached);
        assert_eq!(&fragment, local_fragment, "cache hit must replay bytes");
    }

    daemon.request_shutdown();
    daemon.join().expect("join");
}

#[test]
fn the_queue_rejects_beyond_capacity_and_queued_jobs_are_cancellable() {
    // No workers: admitted jobs sit in the queue forever, which makes
    // the capacity bound and cancellation deterministic to observe.
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 0,
        queue_capacity: 2,
        retry_after_ms: 7,
        ..DaemonConfig::default()
    });
    let cfg = test_config();
    let jobs: Vec<PointJob> = ["pure", "ec", "cumulative"]
        .iter()
        .map(|spec| PointJob::from_sweep(*spec, Mobility::Interval(2000), 5, &cfg))
        .collect();

    // Raw frames: Client::submit would (correctly) sleep out the
    // backpressure, but this test wants to see the rejection itself.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut submit = |job: &PointJob| -> String {
        let payload = format!(
            "{{\"type\":\"submit\",\"job\":{}}}",
            job.to_canonical_json()
        );
        write_frame(&mut stream, &payload).expect("send");
        read_frame(&mut stream).expect("recv").expect("response")
    };

    let first = submit(&jobs[0]);
    let second = submit(&jobs[1]);
    assert!(first.contains("\"type\":\"accepted\""), "got {first}");
    assert!(second.contains("\"type\":\"accepted\""), "got {second}");

    let third = submit(&jobs[2]);
    assert!(
        third.contains("\"type\":\"rejected\"") && third.contains("\"reason\":\"queue_full\""),
        "a submit beyond capacity must be rejected with backpressure, got {third}"
    );
    // The hint is dynamic — queue depth × observed mean sim time — but
    // always floored at the configured retry_after_ms.
    let hint: u64 = third
        .split("\"retry_after_ms\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no retry_after_ms in {third}"));
    assert!(
        hint >= 7 && third.contains("\"queue_depth\":2"),
        "the rejection must carry the floored retry hint and depth, got {third}"
    );

    // Duplicate of an already-queued job piggybacks instead of taking a
    // second slot (or a rejection).
    let dup = submit(&jobs[0]);
    assert!(dup.contains("\"type\":\"accepted\""), "got {dup}");

    // Cancel one queued job; its slot frees once a worker would pop it,
    // but its state flips immediately.
    let key = jobs[1].to_canonical_json();
    let key = dtn_service::job_key(&key);
    let mut client = Client::connect(&addr).expect("connect client");
    assert!(client.cancel(&key).expect("cancel"), "queued job cancels");
    assert!(
        !client.cancel(&key).expect("second cancel"),
        "cancelling twice is a no-op"
    );
    let err = client
        .fetch_fragment(&key)
        .expect_err("cancelled jobs have no result");
    assert!(err.contains("cancelled"), "got {err}");

    daemon.request_shutdown();
    daemon.join().expect("join");
}

#[test]
fn shutdown_drains_admitted_jobs_and_persists_the_cache_for_the_next_daemon() {
    let dir = std::env::temp_dir().join(format!("dtn_service_it_{}", std::process::id()));
    let cache_path = dir.join("cache.jsonl");
    let job = test_jobs().remove(0);

    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        cache_path: Some(cache_path.clone()),
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let ticket = client.submit(&job).expect("submit");
    // Shutdown immediately after admission: the daemon must still
    // finish the job and serve its result on this connection.
    client.shutdown().expect("shutdown");
    let (fragment, _) = client
        .fetch_fragment(&ticket.job_id)
        .expect("admitted jobs drain through shutdown");
    daemon.join().expect("join persists the cache");
    assert!(cache_path.exists(), "cache index must be persisted");

    // Next incarnation: same job is a hit before any worker runs it.
    let (daemon2, addr2) = spawn_daemon(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        cache_path: Some(cache_path.clone()),
        ..DaemonConfig::default()
    });
    let mut client2 = Client::connect(&addr2).expect("connect");
    let ticket2 = client2.submit(&job).expect("resubmit");
    assert!(
        ticket2.cached,
        "a persisted result must be served from cache by a fresh daemon"
    );
    let (fragment2, cached2) = client2.fetch_fragment(&ticket2.job_id).expect("fetch");
    assert!(cached2);
    assert_eq!(
        fragment2, fragment,
        "results must survive persistence byte-identically"
    );
    daemon2.request_shutdown();
    daemon2.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reflect_submissions_hits_and_rejections() {
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    });
    let job = test_jobs().remove(0);
    let mut client = Client::connect(&addr).expect("connect");
    let first = client.submit(&job).expect("submit");
    client.fetch_fragment(&first.job_id).expect("fetch");
    let second = client.submit(&job).expect("resubmit");
    assert!(second.cached);

    let stats = client.stats_raw().expect("stats");
    for expected in [
        "\"submitted\":2",
        "\"completed\":1",
        "\"cache_hits\":1",
        "\"cache_misses\":1",
        "\"cache_entries\":1",
        "\"rejected\":0",
    ] {
        assert!(stats.contains(expected), "want {expected} in {stats}");
    }

    daemon.request_shutdown();
    daemon.join().expect("join");
}

#[test]
fn stats_split_replication_panics_cancels_and_queue_sheds() {
    // Replication panics: "pq=2,1" parses as a protocol spec, so the job
    // passes PointJob::validate at the daemon's door, but
    // ProtocolConfig::validate panics inside every replication ("P out
    // of range"). The watchdog isolates each one as RunOutcome::Panicked
    // and the job itself still completes — the daemon must count them
    // under replication_panics, NOT under failed/failed_panics.
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    });
    let cfg = test_config();
    let panicking = PointJob::from_sweep("pq=2,1", Mobility::Interval(2000), 5, &cfg);
    let mut client = Client::connect(&addr).expect("connect");
    let ticket = client.submit(&panicking).expect("submit");
    assert!(!ticket.cached);
    let (fragment, _) = client.fetch_fragment(&ticket.job_id).expect("fetch");
    assert!(
        fragment.contains("\"panic\":"),
        "every replication should have panicked, got {fragment}"
    );
    let stats = client.stats_raw().expect("stats");
    for expected in [
        "\"completed\":1",
        "\"failed\":0",
        "\"failed_errors\":0",
        "\"failed_panics\":0",
        "\"cancelled\":0",
        &format!("\"replication_panics\":{}", cfg.replications),
        "\"replication_timeouts\":0",
    ] {
        assert!(stats.contains(expected), "want {expected} in {stats}");
    }
    daemon.request_shutdown();
    daemon.join().expect("join");

    // Cancels and queue sheds on a worker-less daemon, where both are
    // deterministic to provoke; then a post-shutdown submit, which must
    // land in rejected_shutdown rather than rejected_queue_full.
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 0,
        queue_capacity: 1,
        ..DaemonConfig::default()
    });
    let jobs = test_jobs();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut submit = |job: &PointJob| -> String {
        let payload = format!(
            "{{\"type\":\"submit\",\"job\":{}}}",
            job.to_canonical_json()
        );
        write_frame(&mut stream, &payload).expect("send");
        read_frame(&mut stream).expect("recv").expect("response")
    };
    assert!(submit(&jobs[0]).contains("\"type\":\"accepted\""));
    assert!(submit(&jobs[1]).contains("\"reason\":\"queue_full\""));
    let key = dtn_service::job_key(&jobs[0].to_canonical_json());
    let mut client = Client::connect(&addr).expect("connect client");
    assert!(client.cancel(&key).expect("cancel"));
    daemon.request_shutdown();
    let drained = submit(&jobs[2]);
    assert!(
        drained.contains("\"reason\":\"shutting_down\""),
        "a submit during drain must be refused as shutting_down, got {drained}"
    );
    let stats = client.stats_raw().expect("stats");
    for expected in [
        "\"cancelled\":1",
        "\"rejected\":2",
        "\"rejected_queue_full\":1",
        "\"rejected_shutdown\":1",
        "\"failed_panics\":0",
        "\"replication_panics\":0",
    ] {
        assert!(stats.contains(expected), "want {expected} in {stats}");
    }
    daemon.join().expect("join");
}

#[test]
fn invalid_jobs_and_unknown_requests_get_structured_errors() {
    let (daemon, addr) = spawn_daemon(DaemonConfig {
        workers: 0,
        ..DaemonConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut roundtrip = |payload: &str| -> String {
        write_frame(&mut stream, payload).expect("send");
        read_frame(&mut stream).expect("recv").expect("response")
    };

    let mut bad_job = test_jobs().remove(0);
    bad_job.replications = 0;
    let response = roundtrip(&format!(
        "{{\"type\":\"submit\",\"job\":{}}}",
        bad_job.to_canonical_json()
    ));
    assert!(
        response.contains("\"type\":\"error\"") && response.contains("invalid job"),
        "got {response}"
    );

    for (payload, want) in [
        ("{\"type\":\"mystery\"}", "unknown request type"),
        ("not json at all", "bad request"),
        (
            "{\"type\":\"status\",\"job_id\":\"nope\"}",
            "\"state\":\"unknown\"",
        ),
        ("{\"type\":\"result\",\"job_id\":\"nope\"}", "unknown job"),
    ] {
        let response = roundtrip(payload);
        assert!(response.contains(want), "want {want:?} in {response}");
    }

    daemon.request_shutdown();
    daemon.join().expect("join");
}
