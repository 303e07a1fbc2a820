//! Chaos tests for the `dtnfedd` federation: a coordinator fronting
//! `dtnsimd` workers must be transparent to the client under failover,
//! hedging, and wire faults.
//!
//! The headline contract (the acceptance test): a 3-worker federated
//! sweep with one worker `kill -9`'d mid-run AND one coordinator↔worker
//! link behind the fault proxy completes with a report **byte-identical**
//! (canonical form) to a clean local run, with `failovers ≥ 1` and zero
//! lost or duplicated points.

use dtn_experiments::jobs::{PointJob, PointOutcome};
use dtn_experiments::{record_supervised_point, Mobility, SweepConfig, SweepReport, TraceCache};
use dtn_service::json::Value;
use dtn_service::{
    job_key, Client, Coordinator, CoordinatorConfig, Daemon, DaemonConfig, FaultProxy, Membership,
    ProxyPlan, ResilientClient, RetryPolicy,
};
use dtn_sim::Threads;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fed_cfg(replications: usize) -> SweepConfig {
    SweepConfig {
        loads: vec![5],
        replications,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

fn fed_jobs(specs: &[&str], loads: &[u32], replications: usize) -> Vec<PointJob> {
    let cfg = fed_cfg(replications);
    loads
        .iter()
        .flat_map(|load| {
            specs
                .iter()
                .map(|spec| PointJob::from_sweep(*spec, Mobility::Interval(2000), *load, &cfg))
        })
        .collect()
}

/// Ground truth: the same jobs run fully in-process.
fn local_fragments(jobs: &[PointJob]) -> Vec<String> {
    let cache = TraceCache::new();
    jobs.iter()
        .map(|j| {
            j.run(Threads::Sequential, &cache)
                .expect("local run")
                .to_wire_json()
        })
        .collect()
}

/// Assemble outcomes into a report exactly the same way for both sides
/// of a comparison, so `to_canonical_json` equality is outcome equality.
fn canonical_report(jobs: &[PointJob], outcomes: &[PointOutcome]) -> String {
    let mut report = SweepReport::new("federation sweep");
    for (job, out) in jobs.iter().zip(outcomes) {
        record_supervised_point(
            &mut report,
            &job.protocol,
            &job.mobility.label(),
            job.load,
            &out.outcomes,
            &out.attempts,
        );
        for v in &out.violations {
            report.record_violation(v.clone());
        }
    }
    report.record_sweep("federation", 0.0);
    report.record_cache((0, 0));
    report.finish(0.0);
    report.to_canonical_json()
}

/// The shard each job's key routes to when every worker is alive —
/// the same ring the coordinator builds from the same worker list.
fn predicted_owners(jobs: &[PointJob], workers: &[String], virtual_nodes: usize) -> Vec<usize> {
    let mut m = Membership::new(virtual_nodes, 2, 4);
    for addr in workers {
        m.add(addr);
    }
    jobs.iter()
        .map(|j| {
            m.route(&job_key(&j.to_canonical_json()))
                .expect("three live shards")
        })
        .collect()
}

fn stat_u64(stats_raw: &str, key: &str) -> u64 {
    Value::parse(stats_raw)
        .expect("stats must parse")
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats reply missing {key}: {stats_raw}"))
}

fn stat_bool(stats_raw: &str, key: &str) -> bool {
    Value::parse(stats_raw)
        .expect("stats must parse")
        .get(key)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("stats reply missing {key}: {stats_raw}"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtn_fed_{tag}_{}", std::process::id()));
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
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("{what} never appeared at {}", path.display());
}

fn spawn_worker_daemon() -> Daemon {
    Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("worker daemon should bind")
}

// ---------------------------------------------------------------------
// Transparency: federated == local, and the cache stays shard-local.
// ---------------------------------------------------------------------

#[test]
fn federated_sweep_is_byte_identical_to_a_local_run() {
    let workers: Vec<Daemon> = (0..3).map(|_| spawn_worker_daemon()).collect();
    let addrs: Vec<String> = workers.iter().map(|d| d.local_addr().to_string()).collect();
    let coordinator = Coordinator::spawn(CoordinatorConfig {
        workers: addrs.clone(),
        heartbeat_interval_ms: 100,
        seed: 41,
        ..CoordinatorConfig::default()
    })
    .expect("coordinator should bind");
    let fed_addr = coordinator.local_addr().to_string();

    let jobs = fed_jobs(&["pure", "ttl=300", "immunity"], &[5, 8], 2);
    let local = local_fragments(&jobs);
    let mut client = ResilientClient::new(
        &fed_addr,
        RetryPolicy {
            seed: 3,
            ..RetryPolicy::default()
        },
    );
    let pairs = client.collect_fragments(&jobs).expect("federated sweep");
    for (i, ((fragment, _), want)) in pairs.iter().zip(&local).enumerate() {
        assert_eq!(
            fragment, want,
            "fragment {i} differs through the federation"
        );
    }

    // A second sweep of the same grid must come back entirely from the
    // workers' caches: consistent hashing re-routed every job to the
    // shard that already computed it.
    let mut again = ResilientClient::new(
        &fed_addr,
        RetryPolicy {
            seed: 4,
            ..RetryPolicy::default()
        },
    );
    let cached_pairs = again.collect_fragments(&jobs).expect("cached sweep");
    for (i, ((fragment, cached), want)) in cached_pairs.iter().zip(&local).enumerate() {
        assert_eq!(fragment, want, "cached fragment {i} differs");
        assert!(
            cached,
            "fragment {i} recomputed — routing was not cache-stable"
        );
    }

    let stats = Client::connect(&fed_addr)
        .expect("stats connection")
        .stats_raw()
        .expect("stats");
    assert_eq!(stat_u64(&stats, "workers"), 3);
    assert_eq!(stat_u64(&stats, "routable_workers"), 3);
    assert_eq!(stat_u64(&stats, "completed"), jobs.len() as u64);
    assert_eq!(
        stat_u64(&stats, "failovers"),
        0,
        "clean run failed over: {stats}"
    );
    assert!(!stat_bool(&stats, "degraded"));
    // Every point is attributed to some shard, none double-counted.
    let parsed = Value::parse(&stats).expect("stats parse");
    let per_shard: u64 = parsed
        .get("shards")
        .and_then(Value::as_array)
        .expect("shards array")
        .iter()
        .map(|s| s.get("completed").and_then(Value::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(per_shard, jobs.len() as u64);

    coordinator.request_shutdown();
    coordinator.join().expect("coordinator join");
    for worker in workers {
        worker.request_shutdown();
        worker.join().expect("worker join");
    }
}

// ---------------------------------------------------------------------
// The acceptance test: kill -9 one worker mid-sweep behind wire faults.
// ---------------------------------------------------------------------

#[test]
fn kill_nine_a_worker_mid_federated_sweep_and_the_report_matches_a_clean_run() {
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
    let mut worker_addrs: Vec<String> = Vec::new();
    for i in 0..3 {
        let addr_file = dir.join(format!("addr{i}"));
        children.push(spawn_worker(&addr_file));
        worker_addrs.push(wait_for_file(&addr_file, "worker address"));
    }

    // Worker 2 sits behind the fault proxy: drops, truncation, and
    // severed connections on its coordinator link, reproducible by
    // seed. Four grace frames keep heartbeat probes (2-frame
    // connections) clean while the long-lived job connections take the
    // damage.
    let plan = ProxyPlan::parse("drop=0.05,trunc=0.04,sever=0.1,frames=4,seed=2024").expect("plan");
    let mut proxy = FaultProxy::spawn("127.0.0.1:0", &worker_addrs[2], plan).expect("proxy");
    let fed_workers = vec![
        worker_addrs[0].clone(),
        worker_addrs[1].clone(),
        proxy.local_addr().to_string(),
    ];

    let coordinator = Coordinator::spawn(CoordinatorConfig {
        workers: fed_workers.clone(),
        heartbeat_interval_ms: 100,
        probe_timeout_ms: 1_000,
        suspect_after: 2,
        dead_after: 4,
        seed: 9,
        ..CoordinatorConfig::default()
    })
    .expect("coordinator should bind");
    let fed_addr = coordinator.local_addr().to_string();

    // Heavy enough that the sweep is still mid-flight when the kill
    // lands (hundreds of ms per point, one worker thread per daemon).
    let jobs = fed_jobs(
        &["pure", "ttl=300", "immunity", "ec", "ecttl", "dynttl"],
        &[600, 1000],
        200,
    );
    let local = local_fragments(&jobs);

    // Kill the un-proxied worker that owns the most points, so the dead
    // shard is guaranteed to strand work for failover to rescue.
    let owners = predicted_owners(
        &jobs,
        &fed_workers,
        CoordinatorConfig::default().virtual_nodes,
    );
    let owned = |shard: usize| owners.iter().filter(|&&o| o == shard).count();
    let kill_index = if owned(0) >= owned(1) { 0 } else { 1 };
    assert!(
        owned(kill_index) >= 1,
        "degenerate ring: shard {kill_index} owns nothing of {owners:?}"
    );

    let collector = {
        let jobs = jobs.clone();
        let fed_addr = fed_addr.clone();
        std::thread::spawn(move || {
            let mut client = ResilientClient::new(
                &fed_addr,
                RetryPolicy {
                    seed: 11,
                    ..RetryPolicy::default()
                },
            );
            client.collect_fragments(&jobs)
        })
    };

    // Wait until the sweep is demonstrably mid-flight, then kill -9.
    let mut stats_client = Client::connect(&fed_addr).expect("stats connection");
    for attempt in 0.. {
        let completed = stat_u64(&stats_client.stats_raw().expect("stats"), "completed");
        if completed >= 1 {
            assert!(
                (completed as usize) < jobs.len(),
                "sweep finished before the kill; make the points heavier"
            );
            break;
        }
        assert!(attempt < 1200, "no point completed within 2 minutes");
        std::thread::sleep(Duration::from_millis(10));
    }
    children[kill_index].kill().expect("kill -9 the worker");
    let _ = children[kill_index].wait();

    let pairs = collector
        .join()
        .expect("collector thread")
        .expect("the sweep must survive kill -9 plus wire faults");

    // Byte identity, fragment by fragment and as an assembled report —
    // zero lost points, zero duplicated points.
    assert_eq!(pairs.len(), jobs.len());
    for (i, ((fragment, _), want)) in pairs.iter().zip(&local).enumerate() {
        assert_eq!(fragment, want, "fragment {i} differs from the clean run");
    }
    let fed_outcomes: Vec<PointOutcome> = pairs
        .iter()
        .map(|(f, _)| PointOutcome::from_wire_json(f).expect("decode"))
        .collect();
    let local_outcomes: Vec<PointOutcome> = local
        .iter()
        .map(|f| PointOutcome::from_wire_json(f).expect("decode"))
        .collect();
    assert_eq!(
        canonical_report(&jobs, &fed_outcomes),
        canonical_report(&jobs, &local_outcomes),
        "the federated sweep's report must be byte-identical to a clean run"
    );

    let stats = stats_client.stats_raw().expect("stats");
    assert!(
        stat_u64(&stats, "failovers") >= 1,
        "the dead shard's points never failed over: {stats}"
    );
    assert_eq!(
        stat_u64(&stats, "completed"),
        jobs.len() as u64,
        "first-completion accounting must count each point exactly once: {stats}"
    );
    assert_eq!(stat_u64(&stats, "routable_workers"), 2, "got {stats}");
    assert!(
        !stat_bool(&stats, "degraded"),
        "2 of 3 routable is still quorum: {stats}"
    );
    let counters = proxy.counters();
    let injected = counters.dropped + counters.truncated + counters.severed + counters.corrupted;
    assert!(
        injected > 0,
        "the fault plan never fired — the proxied link proved nothing: {counters:?}"
    );

    coordinator.request_shutdown();
    coordinator.join().expect("coordinator join");
    proxy.shutdown();
    for (i, child) in children.iter_mut().enumerate() {
        if i != kill_index {
            child.kill().expect("stop worker");
            let _ = child.wait();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Quorum loss: drain what's reachable, report what's missing.
// ---------------------------------------------------------------------

#[test]
fn quorum_loss_drains_reachable_points_and_reports_the_rest_missing() {
    let worker_a = spawn_worker_daemon();
    let worker_b = spawn_worker_daemon();
    let addrs = vec![
        worker_a.local_addr().to_string(),
        worker_b.local_addr().to_string(),
    ];
    // quorum 0.6 of 2 workers: losing either one degrades the federation.
    let coordinator = Coordinator::spawn(CoordinatorConfig {
        workers: addrs.clone(),
        heartbeat_interval_ms: 100,
        suspect_after: 1,
        dead_after: 2,
        quorum: 0.6,
        seed: 17,
        ..CoordinatorConfig::default()
    })
    .expect("coordinator should bind");
    let fed_addr = coordinator.local_addr().to_string();

    // Run the grid once while both workers are up, so every point is
    // tracked on its ring owner.
    let jobs = fed_jobs(&["pure", "ttl=300", "immunity", "ttl=600"], &[5, 8, 11], 2);
    let local = local_fragments(&jobs);
    let mut warm = ResilientClient::new(
        &fed_addr,
        RetryPolicy {
            seed: 5,
            ..RetryPolicy::default()
        },
    );
    let full = warm
        .collect_fragments(&jobs)
        .expect("clean federated sweep");
    assert_eq!(full.len(), jobs.len());

    // Kill worker B (cleanly — in-process daemons can't be kill -9'd)
    // and wait for the prober to declare it dead and lose quorum.
    let owners = predicted_owners(&jobs, &addrs, CoordinatorConfig::default().virtual_nodes);
    worker_b.request_shutdown();
    worker_b.join().expect("worker b join");
    let mut stats_client = Client::connect(&fed_addr).expect("stats connection");
    for attempt in 0.. {
        let stats = stats_client.stats_raw().expect("stats");
        if stat_u64(&stats, "routable_workers") == 1 && stat_bool(&stats, "degraded") {
            break;
        }
        assert!(attempt < 600, "quorum loss never detected: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Partial-sweep mode: exactly the points owned by the dead shard
    // come back missing; everything reachable drains from cache.
    let mut partial = ResilientClient::new(
        &fed_addr,
        RetryPolicy {
            seed: 6,
            ..RetryPolicy::default()
        },
    );
    let available = partial
        .collect_available(&jobs)
        .expect("degraded sweep must drain, not hang");
    let mut missing = 0u64;
    for (i, slot) in available.iter().enumerate() {
        match slot {
            Some((fragment, _)) => {
                assert_eq!(
                    owners[i], 0,
                    "point {i} drained but its owner was the dead shard"
                );
                assert_eq!(fragment, &local[i], "reachable fragment {i} differs");
            }
            None => {
                assert_eq!(
                    owners[i], 1,
                    "point {i} reported missing but its owner is alive"
                );
                missing += 1;
            }
        }
    }
    assert!(
        missing >= 1,
        "no point was owned by the dead shard — the grid is too small to prove degradation"
    );
    let stats = stats_client.stats_raw().expect("stats");
    assert!(
        stat_u64(&stats, "rejected_unreachable") >= missing,
        "unreachable rejections must be counted: {stats}"
    );
    assert_eq!(
        stat_u64(&stats, "failovers"),
        0,
        "degraded mode must not re-spread work onto the survivor: {stats}"
    );

    coordinator.request_shutdown();
    coordinator.join().expect("coordinator join");
    worker_a.request_shutdown();
    worker_a.join().expect("worker a join");
}
