//! Chaos tests for the service layer: the wire protocol under mangled
//! bytes, the daemon under garbage and overload, the client under a
//! deterministic fault-injection proxy, and the whole stack under
//! `kill -9`.
//!
//! The headline contract (the last test): with drops, truncation, and
//! severed connections on the wire AND the daemon killed -9 mid-sweep,
//! the restarted daemon recovers its cache journal (≥ 1 record
//! salvaged) and the self-healing client still assembles a final report
//! **byte-identical** to a clean, fully local run.

use dtn_experiments::jobs::{PointJob, PointOutcome, RunOutcome};
use dtn_experiments::robustness::{point_from_line, point_to_line};
use dtn_experiments::{record_supervised_point, Mobility, SweepConfig, SweepReport, TraceCache};
use dtn_service::json::Value;
use dtn_service::wire::{read_frame, write_frame};
use dtn_service::{
    Client, Daemon, DaemonConfig, FaultProxy, ProxyPlan, ResilientClient, RetryPolicy,
};
use dtn_sim::Threads;
use proptest::prelude::*;
use std::io::{Cursor, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

fn chaos_cfg() -> SweepConfig {
    SweepConfig {
        loads: vec![5],
        replications: 2,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

fn chaos_jobs(specs: &[&str], loads: &[u32]) -> Vec<PointJob> {
    let cfg = chaos_cfg();
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
    let mut report = SweepReport::new("chaos sweep");
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
    report.record_sweep("chaos", 0.0);
    report.record_cache((0, 0));
    report.finish(0.0);
    report.to_canonical_json()
}

fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload).expect("Vec write");
    bytes
}

fn stat_u64(stats_raw: &str, key: &str) -> u64 {
    Value::parse(stats_raw)
        .expect("stats must parse")
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats reply missing {key}: {stats_raw}"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtn_chaos_{tag}_{}", std::process::id()));
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

// ---------------------------------------------------------------------
// Wire decoding under mangled bytes (property tests).
// ---------------------------------------------------------------------

proptest! {
    /// A well-formed frame round-trips; the same frame with ANY single
    /// byte changed is rejected — header, CRC, or payload, no byte is
    /// unguarded.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        payload in ".*",
        idx_raw in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let frame = frame_bytes(&payload);
        let ok = read_frame(&mut Cursor::new(&frame)).expect("clean frame");
        prop_assert_eq!(ok.as_deref(), Some(payload.as_str()));

        let mut bad = frame.clone();
        let idx = idx_raw % bad.len();
        bad[idx] ^= mask as u8;
        let res = read_frame(&mut Cursor::new(&bad));
        prop_assert!(res.is_err(), "corrupt byte {} accepted: {:?}", idx, res);
    }

    /// A frame cut short at any point errors (or reads as clean EOF at
    /// exactly zero bytes) — it never hangs and never yields a value.
    #[test]
    fn truncated_frames_never_yield_values(
        payload in ".*",
        cut_raw in 0usize..1_000_000,
    ) {
        let frame = frame_bytes(&payload);
        let cut = cut_raw % frame.len(); // strict prefix
        let res = read_frame(&mut Cursor::new(&frame[..cut]));
        if cut == 0 {
            prop_assert!(matches!(res, Ok(None)), "empty read must be clean EOF");
        } else {
            prop_assert!(res.is_err(), "torn frame at {} accepted: {:?}", cut, res);
        }
    }

    /// Arbitrary garbage bytes never panic the reader, and an absurd
    /// length prefix is rejected up front instead of allocating.
    #[test]
    fn garbage_never_panics_the_reader(
        bytes in prop::collection::vec(0u32..256, 0..64),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = read_frame(&mut Cursor::new(&bytes)); // any Result is fine; panics are not

        let mut oversized = u32::MAX.to_be_bytes().to_vec();
        oversized.extend_from_slice(&[0; 4]);
        oversized.extend_from_slice(&bytes);
        let res = read_frame(&mut Cursor::new(&oversized));
        prop_assert!(res.is_err(), "64 GiB length prefix must be rejected");
    }
}

// ---------------------------------------------------------------------
// Checkpoint and fragment decoding under mangled bytes (property tests).
// ---------------------------------------------------------------------

/// A point with every outcome kind — a real run, a panic whose message
/// is `msg`, a timeout — and a violation quoting `msg`, as a checkpoint
/// line and as a wire fragment.
fn encoded_point(msg: &str) -> (PointOutcome, String, String) {
    static RUN: OnceLock<RunOutcome> = OnceLock::new();
    let run = RUN.get_or_init(|| {
        let job = &chaos_jobs(&["immunity"], &[5])[0];
        let out = job
            .run(Threads::Sequential, &TraceCache::new())
            .expect("run");
        out.outcomes[0].clone()
    });
    let point = PointOutcome {
        outcomes: vec![
            run.clone(),
            RunOutcome::Panicked(msg.to_string()),
            RunOutcome::TimedOut,
        ],
        attempts: vec![1, 3, 2],
        violations: vec![format!("rep 0: {msg}")],
        slow: 1,
    };
    let line = point_to_line(msg, &point);
    let fragment = point.to_wire_json();
    (point, line, fragment)
}

/// Feed `text` to both decoders: any `Result` is fine, a panic is not.
fn decode_both(text: &str) {
    let _ = point_from_line(text);
    let _ = PointOutcome::from_wire_json(text);
}

/// `text` with the byte at `idx_raw % len` xor-ed by `mask`, read back
/// lossily (the decoders take `&str`).
fn corrupt(text: &str, idx_raw: usize, mask: u32) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let idx = idx_raw % bytes.len();
    bytes[idx] ^= mask as u8;
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Both encodings decode back to the point, and every strict prefix
    /// of either — a torn checkpoint tail, a short fragment — is an
    /// error, never a shorter point.
    #[test]
    fn torn_checkpoint_lines_and_fragments_are_errors(msg in ".*") {
        let (point, line, fragment) = encoded_point(&msg);
        let (key, back) = point_from_line(&line).expect("clean line");
        prop_assert_eq!(key, msg);
        // `slow` is not checkpointed.
        prop_assert_eq!(back, PointOutcome { slow: 0, ..point.clone() });
        prop_assert_eq!(PointOutcome::from_wire_json(&fragment).expect("clean fragment"), point);
        let prefixes = |text: &str| {
            (0..text.len())
                .filter(|&cut| text.is_char_boundary(cut))
                .map(|cut| text[..cut].to_string())
                .collect::<Vec<_>>()
        };
        for torn in prefixes(&line) {
            prop_assert!(point_from_line(&torn).is_err(), "torn line {:?} decoded", torn);
        }
        for torn in prefixes(&fragment) {
            prop_assert!(
                PointOutcome::from_wire_json(&torn).is_err(),
                "torn fragment {:?} decoded",
                torn
            );
        }
    }

    /// Any single corrupted byte in a checkpoint line or fragment
    /// decodes or errors; it never panics the decoder.
    #[test]
    fn corrupted_checkpoint_lines_and_fragments_never_panic(
        msg in ".*",
        idx_raw in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let (_, line, fragment) = encoded_point(&msg);
        decode_both(&corrupt(&line, idx_raw, mask));
        decode_both(&corrupt(&fragment, idx_raw, mask));
    }

    /// Garbage never panics the decoders.
    #[test]
    fn garbage_never_panics_the_checkpoint_and_fragment_decoders(
        bytes in prop::collection::vec(0u32..256, 0..256),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_both(&String::from_utf8_lossy(&bytes));
    }
}

// ---------------------------------------------------------------------
// Daemon ingress hardening.
// ---------------------------------------------------------------------

#[test]
fn daemon_rejects_corrupt_frames_with_structured_error_and_stays_up() {
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let addr = daemon.local_addr().to_string();

    // A frame with a valid length but a flipped payload byte.
    let mut bad = frame_bytes("{\"type\":\"stats\"}");
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    stream.write_all(&bad).expect("send corrupt frame");
    let reply = read_frame(&mut stream)
        .expect("structured reply, not a slammed socket")
        .expect("a frame");
    assert!(
        reply.contains("\"code\":\"bad_frame\""),
        "want a structured bad_frame rejection, got {reply}"
    );
    // After the rejection the daemon hangs up on this connection…
    assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));

    // …and an absurd length prefix is likewise rejected.
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    let mut oversized = u32::MAX.to_be_bytes().to_vec();
    oversized.extend_from_slice(&[0; 4]);
    stream.write_all(&oversized).expect("send oversized header");
    let reply = read_frame(&mut stream).expect("reply").expect("a frame");
    assert!(reply.contains("\"code\":\"bad_frame\""), "got {reply}");

    // The daemon itself is unharmed and counted both rejections.
    let mut client = Client::connect(&addr).expect("connect client");
    let stats = client.stats_raw().expect("stats");
    assert_eq!(stat_u64(&stats, "bad_frames"), 2);
    daemon.request_shutdown();
    daemon.join().expect("clean shutdown");
}

#[test]
fn daemon_answers_a_deeply_nested_frame_with_an_error_and_stays_up() {
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let addr = daemon.local_addr().to_string();

    // A CRC-valid frame of 100k open brackets: a parser that recursed
    // once per level would overflow the connection thread's stack and
    // abort the whole process.
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    stream
        .write_all(&frame_bytes(&"[".repeat(100_000)))
        .expect("send nested frame");
    let reply = read_frame(&mut stream)
        .expect("structured reply, not a dead daemon")
        .expect("a frame");
    let reply = Value::parse(&reply).expect("the error reply parses");
    assert_eq!(reply.get("type").and_then(Value::as_str), Some("error"));
    let message = reply.get("message").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("nesting deeper than"), "{message}");

    let mut client = Client::connect(&addr).expect("connect client");
    let stats = client.stats_raw().expect("stats after the nested frame");
    assert_eq!(
        stat_u64(&stats, "bad_frames"),
        0,
        "the frame itself was valid"
    );
    daemon.request_shutdown();
    daemon.join().expect("clean shutdown");
}

#[test]
fn daemon_starts_clean_over_a_corrupted_journal() {
    let dir = tmp_dir("badjournal");
    let cache = dir.join("cache.jsonl");
    std::fs::write(&cache, "this is not a journal\n\u{0}\u{1}\u{2} garbage\n").expect("write");
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        cache_path: Some(cache),
        ..DaemonConfig::default()
    })
    .expect("a corrupt journal must not stop startup");
    let addr = daemon.local_addr().to_string();

    // The damage is visible in telemetry, and the daemon works normally.
    let jobs = chaos_jobs(&["pure"], &[5]);
    let mut client = Client::connect(&addr).expect("connect");
    let ticket = client.submit(&jobs[0]).expect("submit");
    let (fragment, _) = client.fetch_fragment(&ticket.job_id).expect("fetch");
    assert_eq!(fragment, local_fragments(&jobs)[0]);
    let stats = client.stats_raw().expect("stats");
    assert_eq!(stat_u64(&stats, "journal_salvaged"), 0);
    assert!(stat_u64(&stats, "journal_discarded") >= 1);
    daemon.request_shutdown();
    daemon.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_deadline_sheds_overdue_jobs_instead_of_running_them_late() {
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 1,
        job_threads: Threads::Sequential,
        queue_deadline_ms: Some(1),
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let addr = daemon.local_addr().to_string();
    // Head of the queue: a deliberately heavy point (~100ms even in a
    // release build, orders of magnitude over the 1ms deadline), so the
    // light jobs queued behind it are guaranteed to wait out theirs.
    let heavy_cfg = SweepConfig {
        loads: vec![1000],
        replications: 100,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    };
    let mut jobs = vec![PointJob::from_sweep(
        "pure",
        Mobility::Interval(2000),
        1000,
        &heavy_cfg,
    )];
    jobs.extend(chaos_jobs(&["ttl=300", "immunity"], &[5]));

    let mut client = Client::connect(&addr).expect("connect");
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit(j).expect("submit"))
        .collect();
    // With one worker, whichever jobs sit behind the first claim wait
    // out the 1ms deadline and must be shed with an honest failure.
    let mut shed = 0;
    let mut completed = 0;
    for ticket in &tickets {
        match client.fetch_fragment(&ticket.job_id) {
            Ok(_) => completed += 1,
            Err(e) => {
                assert!(
                    e.contains("shed_queue_deadline"),
                    "unexpected failure kind: {e}"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(shed + completed, jobs.len());
    assert!(shed >= 1, "expected the queued tail to shed, got {shed}");
    let stats = client.stats_raw().expect("stats");
    assert_eq!(stat_u64(&stats, "shed_queue_deadline"), shed as u64);
    daemon.request_shutdown();
    daemon.join().expect("clean shutdown");
}

// ---------------------------------------------------------------------
// The self-healing client under the fault proxy.
// ---------------------------------------------------------------------

#[test]
fn proxy_faulted_sweep_is_byte_identical_to_a_clean_run() {
    let daemon = Daemon::spawn(DaemonConfig {
        workers: 2,
        job_threads: Threads::Sequential,
        ..DaemonConfig::default()
    })
    .expect("daemon should bind");
    let plan = ProxyPlan::parse(
        "drop=0.08,trunc=0.05,sever=0.08,corrupt=0.05,delay=0.2,delay_ms=1,seed=90210",
    )
    .expect("plan");
    let mut proxy =
        FaultProxy::spawn("127.0.0.1:0", &daemon.local_addr().to_string(), plan).expect("proxy");

    let jobs = chaos_jobs(&["pure", "ttl=300", "immunity"], &[5]);
    let mut client = ResilientClient::new(
        &proxy.local_addr().to_string(),
        RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        },
    );
    let pairs = client
        .collect_fragments(&jobs)
        .expect("the sweep must heal through every injected fault");

    let local = local_fragments(&jobs);
    for (i, ((fragment, _), want)) in pairs.iter().zip(&local).enumerate() {
        assert_eq!(
            fragment, want,
            "fragment {i} differs between faulted and clean runs"
        );
    }
    let counters = proxy.counters();
    let injected = counters.dropped + counters.truncated + counters.severed + counters.corrupted;
    assert!(
        injected > 0,
        "the fault plan never fired — the test proved nothing: {counters:?}"
    );
    assert!(
        client.heal_stats().reconnects > 0,
        "faults were injected but the client never had to heal: {counters:?}"
    );
    proxy.shutdown();
    daemon.request_shutdown();
    daemon.join().expect("clean shutdown");
}

// ---------------------------------------------------------------------
// The acceptance test: kill -9 mid-sweep, recover, byte-identical report.
// ---------------------------------------------------------------------

#[test]
fn kill_nine_mid_sweep_recovers_the_journal_and_the_report_matches_a_clean_run() {
    let dir = tmp_dir("kill9");
    let cache = dir.join("cache.jsonl");
    let bin = env!("CARGO_BIN_EXE_dtnsimd");
    let spawn_daemon = |addr_file: &Path| {
        std::process::Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--job-threads",
                "1",
                "--journal-flush-entries",
                "1",
                "--cache",
            ])
            .arg(&cache)
            .arg("--addr-file")
            .arg(addr_file)
            .spawn()
            .expect("spawn dtnsimd")
    };

    let addr_file_1 = dir.join("addr1");
    let mut child = spawn_daemon(&addr_file_1);
    let addr_1 = wait_for_file(&addr_file_1, "daemon 1 address");

    // Drops + truncation + severed connections, reproducible by seed;
    // four grace frames let the first submits land so work starts.
    let plan =
        ProxyPlan::parse("drop=0.05,trunc=0.04,sever=0.06,frames=4,seed=1702").expect("plan");
    let proxy = FaultProxy::spawn("127.0.0.1:0", &addr_1, plan).expect("proxy");
    let proxy_addr = proxy.local_addr().to_string();

    let jobs = chaos_jobs(&["pure", "ttl=300", "immunity"], &[5, 8]);
    let collector = {
        let jobs = jobs.clone();
        std::thread::spawn(move || {
            let mut client = ResilientClient::new(
                &proxy_addr,
                RetryPolicy {
                    seed: 11,
                    ..RetryPolicy::default()
                },
            );
            client
                .collect_fragments(&jobs)
                .map(|pairs| (pairs, client.heal_stats()))
        })
    };

    // Wait for at least one journaled result (flush_entries=1 journals
    // every insert), then kill -9: everything in memory is gone, the
    // journal keeps what was flushed.
    for attempt in 0.. {
        let lines = std::fs::read_to_string(&cache)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(attempt < 1200, "no journal record within 2 minutes");
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().expect("kill -9 the daemon");
    let _ = child.wait();

    // Restart on a fresh port with the same journal, and point the
    // proxy at the new incarnation — the client heals through all of it.
    let addr_file_2 = dir.join("addr2");
    let mut child2 = spawn_daemon(&addr_file_2);
    let addr_2 = wait_for_file(&addr_file_2, "daemon 2 address");
    proxy.set_upstream(&addr_2);

    let (pairs, heal) = collector
        .join()
        .expect("collector thread")
        .expect("the sweep must survive kill -9 plus wire faults");

    // Byte identity, fragment by fragment and as an assembled report.
    let local = local_fragments(&jobs);
    for (i, ((fragment, _), want)) in pairs.iter().zip(&local).enumerate() {
        assert_eq!(fragment, want, "fragment {i} differs from the clean run");
    }
    let daemon_outcomes: Vec<PointOutcome> = pairs
        .iter()
        .map(|(f, _)| PointOutcome::from_wire_json(f).expect("decode"))
        .collect();
    let local_outcomes: Vec<PointOutcome> = local
        .iter()
        .map(|f| PointOutcome::from_wire_json(f).expect("decode"))
        .collect();
    assert_eq!(
        canonical_report(&jobs, &daemon_outcomes),
        canonical_report(&jobs, &local_outcomes),
        "the recovered sweep's report must be byte-identical to a clean run"
    );
    eprintln!(
        "chaos: healed with {} reconnects, {} resubmits, {} refetches",
        heal.reconnects, heal.resubmits, heal.refetches
    );

    // The restarted daemon must report the salvage in its telemetry.
    let mut client = Client::connect(&addr_2).expect("connect daemon 2 directly");
    let stats = client.stats_raw().expect("stats");
    assert!(
        stat_u64(&stats, "journal_salvaged") >= 1,
        "recovery must salvage at least one flush window: {stats}"
    );
    client.shutdown().expect("shutdown daemon 2");
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
