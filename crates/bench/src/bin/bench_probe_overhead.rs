//! Probe-overhead guards: the invariant auditor stays cheap, and a
//! disabled telemetry span costs nothing.
//!
//! The simulator's hot path is generic over a [`Probe`]; production runs
//! use [`NullProbe`], whose `ENABLED = false` constant dead-codes every
//! event emission at monomorphization time. That path's speed is gated by
//! perfbench's `figure-grid` workload against the parent commit; this
//! binary keeps the two guards perfbench does not measure:
//!
//! * the audited pass times the full [`AuditProbe`] ledger (Record mode)
//!   over a figure-style workload and fails when its throughput drops
//!   below `1 - AUDIT_ALLOWANCE` of the NullProbe rate measured in the
//!   same process, so the invariant auditor stays cheap enough to leave
//!   on in sweeps;
//! * the span stanza applies the same contract to the telemetry layer's
//!   [`Span`] guard: a tight loop with one `Span::<NullClock>` per
//!   iteration must run within `SPAN_ALLOWANCE` of the bare loop's rate
//!   (loose because sub-ns ops sit inside timer noise). The enabled
//!   `Span::<MonotonicClock>` cost is reported for context.
//!
//! Each side takes the best of `PASSES` timed passes. The JSON verdict
//! goes to stdout; a guard failure exits 1.

use dtn_epidemic::protocols;
use dtn_experiments::{run_point, run_point_checked_cached, Mobility, SweepConfig, TraceCache};
use dtn_sim::{AtomicHistogram, Clock, MonotonicClock, NullClock, Span, Threads};
use std::time::Instant;

const LOADS: [u32; 5] = [10, 20, 30, 40, 50];
const REPLICATIONS: usize = 5;
const MOBILITIES: [Mobility; 2] = [Mobility::Trace, Mobility::Rwp];

/// Timed passes per guarded side, best-of (shared CI runners are noisy).
const PASSES: usize = 5;
/// The audited rate may fall this far below the NullProbe rate.
const AUDIT_ALLOWANCE: f64 = 0.25;
/// The NullClock span loop may fall this far below the bare loop.
const SPAN_ALLOWANCE: f64 = 0.25;

fn sweep_config() -> SweepConfig {
    SweepConfig {
        loads: LOADS.to_vec(),
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

/// One timed pass over the workload with NullProbe (the plain `simulate`
/// path). Returns (contacts, wall seconds).
fn timed_pass(cfg: &SweepConfig, cache: &TraceCache) -> (u64, f64) {
    let protocols = protocols::all_protocols();
    let start = Instant::now();
    let mut contacts = 0u64;
    for mobility in MOBILITIES {
        for protocol in &protocols {
            for &load in &cfg.loads {
                let results = run_point_checked_cached(protocol, mobility, load, cfg, cache);
                for r in &results {
                    contacts += r
                        .as_ref()
                        .expect("bench replication failed")
                        .contacts_processed;
                }
                std::hint::black_box(dtn_experiments::aggregate_point_checked(load, &results));
            }
        }
    }
    (contacts, start.elapsed().as_secs_f64())
}

/// The same workload through the conservation auditor. The run doubles
/// as an audit smoke test: any invariant violation aborts the bench.
fn audited_pass(cfg: &SweepConfig, cache: &TraceCache) -> (u64, u64, f64) {
    let protocols = protocols::all_protocols();
    let start = Instant::now();
    let mut contacts = 0u64;
    let mut events = 0u64;
    for mobility in MOBILITIES {
        for protocol in &protocols {
            for &load in &cfg.loads {
                for outcome in run_point(protocol, mobility, load, cfg, cache, |r| r.audit_probe())
                {
                    let (m, probe) = outcome.value().expect("bench replication failed");
                    assert!(
                        probe.is_clean(),
                        "bench workload tripped the auditor: {:?}",
                        probe.violations()
                    );
                    contacts += m.contacts_processed;
                    events += probe.events_seen();
                }
            }
        }
    }
    (contacts, events, start.elapsed().as_secs_f64())
}

const SPAN_ITERS: u64 = 10_000_000;

/// ns/op of a trivial accumulate loop with one [`Span`] guard per
/// iteration. Under [`NullClock`] the guard must monomorphize away, so
/// this should time identically to [`bare_span_pass`].
fn span_pass<C: Clock>(hist: &AtomicHistogram) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..SPAN_ITERS {
        let _span = Span::<C>::start(hist);
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / SPAN_ITERS as f64
}

/// The same loop with no guard at all: the zero-cost baseline.
fn bare_span_pass() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..SPAN_ITERS {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / SPAN_ITERS as f64
}

fn main() {
    let cfg = sweep_config();
    let cache = TraceCache::new();
    // Warm-up: populate the trace cache and fault in the binary.
    let _ = timed_pass(&cfg, &cache);

    let mut best = 0.0f64;
    for pass in 0..PASSES {
        let (contacts, wall) = timed_pass(&cfg, &cache);
        let rate = contacts as f64 / wall;
        eprintln!(
            "pass {}/{PASSES}: {contacts} contacts in {wall:.3} s = {rate:.0} contacts/s",
            pass + 1
        );
        best = best.max(rate);
    }

    let mut audit_best = 0.0f64;
    let mut audit_events = 0u64;
    for _ in 0..PASSES {
        let (a_contacts, a_events, a_wall) = audited_pass(&cfg, &cache);
        audit_best = audit_best.max(a_contacts as f64 / a_wall);
        audit_events = a_events;
    }

    let hist = AtomicHistogram::new();
    let mut bare_ns = f64::INFINITY;
    let mut null_ns = f64::INFINITY;
    let mut mono_ns = f64::INFINITY;
    for _ in 0..PASSES {
        bare_ns = bare_ns.min(bare_span_pass());
        null_ns = null_ns.min(span_pass::<NullClock>(&hist));
        mono_ns = mono_ns.min(span_pass::<MonotonicClock>(&hist));
    }
    // ns/op deltas at this scale sit inside timer noise; guard on the
    // ratio of loop rates instead.
    let span_ratio = bare_ns / null_ns;
    let span_ok = span_ratio >= 1.0 - SPAN_ALLOWANCE;

    let audit_ratio = audit_best / best;
    let audit_ok = audit_ratio >= 1.0 - AUDIT_ALLOWANCE;
    let verdict = |ok: bool| if ok { "ok" } else { "REGRESSION" };
    println!(
        concat!(
            "{{\n",
            "  \"null_probe_contacts_per_sec\": {:.0},\n",
            "  \"audit_probe_contacts_per_sec\": {:.0},\n",
            "  \"audit_probe_events\": {},\n",
            "  \"audit_ratio\": {:.4},\n",
            "  \"audit_verdict\": \"{}\",\n",
            "  \"span_bare_ns_per_op\": {:.3},\n",
            "  \"span_null_ns_per_op\": {:.3},\n",
            "  \"span_monotonic_ns_per_op\": {:.3},\n",
            "  \"span_ratio\": {:.4},\n",
            "  \"span_verdict\": \"{}\"\n",
            "}}"
        ),
        best,
        audit_best,
        audit_events,
        audit_ratio,
        verdict(audit_ok),
        bare_ns,
        null_ns,
        mono_ns,
        span_ratio,
        verdict(span_ok),
    );
    if !audit_ok {
        eprintln!(
            "bench_probe_overhead: audited path at {:.1}% of the NullProbe rate (allowed floor {:.1}%)",
            100.0 * audit_ratio,
            100.0 * (1.0 - AUDIT_ALLOWANCE)
        );
        std::process::exit(1);
    }
    if !span_ok {
        eprintln!(
            "bench_probe_overhead: NullClock span loop at {:.1}% of the bare loop (allowed floor {:.1}%)",
            100.0 * span_ratio,
            100.0 * (1.0 - SPAN_ALLOWANCE)
        );
        std::process::exit(1);
    }
}
