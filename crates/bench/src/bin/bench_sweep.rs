//! Reproducible sweep-throughput harness: `cargo run --release --bin
//! bench_sweep` runs a fixed figure-style workload (every protocol of the
//! study — the eight paper protocols plus the Bloom summary-exchange
//! family — over the same mobility sources and load axis) and writes
//! `BENCH_sweep.json` with contacts/sec, sweeps/sec, and peak RSS. The
//! JSON is the repo's performance trajectory: re-run after a hot-path
//! change and compare against the committed numbers (CI's perf-guard job
//! does exactly that and fails on a >25% regression).
//!
//! The file is rendered through the unified [`SweepReport`] pipeline, so
//! alongside the legacy top-level counters it now carries per-sweep wall
//! timings, per-point metric aggregates and delivery-delay histograms.

use dtn_epidemic::{protocols, ProtocolConfig, RunMetrics};
use dtn_experiments::{
    aggregate_point, run_point_checked_cached, Mobility, SweepConfig, SweepReport, TraceCache,
};
use dtn_sim::Threads;
use std::time::Instant;

/// The fixed workload: the paper's eight protocols plus the four Bloom
/// summary-exchange variants, two mobility regimes, five load levels,
/// five replications each — shaped like a figure regeneration, scaled to
/// finish in seconds.
const LOADS: [u32; 5] = [10, 20, 30, 40, 50];
const REPLICATIONS: usize = 5;
const MOBILITIES: [Mobility; 2] = [Mobility::Trace, Mobility::Rwp];

fn sweep_config() -> SweepConfig {
    SweepConfig {
        loads: LOADS.to_vec(),
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

/// Every replication's metrics at one point (a failed replication aborts
/// the bench).
fn run_point(
    protocol: &ProtocolConfig,
    mobility: Mobility,
    load: u32,
    cfg: &SweepConfig,
    cache: &TraceCache,
) -> Vec<RunMetrics> {
    run_point_checked_cached(protocol, mobility, load, cfg, cache)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{} replication failed: {e}", protocol.name)))
        .collect()
}

fn main() {
    let cfg = sweep_config();
    let protocols = protocols::all_protocols();
    // `BENCH_UNCACHED=1` approximates the pre-caching baseline: no trace
    // is shared between points, so every point regenerates its traces
    // (the fixed trace dataset once per point, the other scenarios once
    // per replication).
    let uncached = std::env::var_os("BENCH_UNCACHED").is_some();

    // One warm-up pass so one-time costs (page faults, lazy init) don't
    // skew the timed pass.
    let _ = run_point(
        &protocols[0],
        Mobility::Trace,
        LOADS[0],
        &cfg,
        &TraceCache::new(),
    );

    let bloom = protocols::bloom_protocols();
    let mut report = SweepReport::new(format!(
        "{} protocols x {} mobilities x loads {:?} x {} replications, sequential; \
         plus a {}-variant bloom-family stanza outside the timed window",
        protocols.len(),
        MOBILITIES.len(),
        LOADS,
        REPLICATIONS,
        bloom.len(),
    ));

    let start = Instant::now();
    // A figure compares protocols under identical mobility, so all sweeps
    // of one workload share a single trace cache — exactly how
    // `build_figure` wires it.
    let cache = TraceCache::new();
    let point_cache = || {
        if uncached {
            TraceCache::new()
        } else {
            cache.clone()
        }
    };
    for mobility in MOBILITIES {
        for protocol in &protocols {
            let sweep_started = Instant::now();
            for &load in &cfg.loads {
                let metrics = run_point(protocol, mobility, load, &cfg, &point_cache());
                report.record_point(protocol.name, &mobility.label(), load, &metrics);
                // Aggregation is part of the sweep path; include its cost.
                std::hint::black_box(aggregate_point(load, &metrics));
            }
            report.record_sweep(
                format!("{} @ {}", protocol.name, mobility.label()),
                sweep_started.elapsed().as_secs_f64(),
            );
        }
    }
    report.finish(start.elapsed().as_secs_f64());

    // Bloom-family sweep-grid stanza: the four Bloom summary-exchange
    // variants over the same mobility × load grid. Recorded after
    // `finish` freezes the headline numerators, so the legacy
    // contacts/sec stays comparable with the committed history while the
    // points carry the new signaling_bytes / false_positive_transmissions
    // counters.
    for mobility in MOBILITIES {
        for protocol in &bloom {
            let sweep_started = Instant::now();
            for &load in &cfg.loads {
                let metrics = run_point(protocol, mobility, load, &cfg, &point_cache());
                report.record_point(protocol.name, &mobility.label(), load, &metrics);
                std::hint::black_box(aggregate_point(load, &metrics));
            }
            report.record_sweep(
                format!("{} @ {} [bloom stanza]", protocol.name, mobility.label()),
                sweep_started.elapsed().as_secs_f64(),
            );
        }
    }
    report.record_cache(cache.stats());

    let json = report.to_json();
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".into());
    if let Err(e) = std::fs::write(&out, &json) {
        print!("{json}");
        eprintln!("bench_sweep: cannot write {out}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out}");
}
