//! The sweep runner: load sweeps × replications, fanned out over cores.
//!
//! Every figure in the paper is a sweep over the load axis
//! `k ∈ {5, 10, …, 50}` with ten replications per point, a fresh random
//! source/destination pair per replication, and metrics averaged per
//! point. [`run_sweep`] produces exactly that for one
//! (protocol, mobility) pair; figures are assembled from several sweeps.
//!
//! This module also owns the one replication path every experiment shares. A
//! [`ReplicationPlan`] holds what a point's replications have in common
//! (root RNG, load, traces, [`SimConfig`]); [`ReplicationPlan::run`] runs
//! them through [`par_map_supervised`], and each attempt turns
//! (root, replication, attempt) into its canonical streams in exactly one
//! place. Sweeps, [`PointJob`](crate::PointJob)s, `dtnsim`, the loss
//! ablation and the benches all go through it, so the same point is
//! bit-identical whichever of them runs it (the Poisson steady-state study
//! keeps its own loop, on the same streams).

use crate::scenarios::Mobility;
use dtn_epidemic::{
    simulate_stream, simulate_stream_probed, AuditMode, AuditProbe, FaultPlan, NullProbe, Probe,
    ProtocolConfig, RunMetrics, SimConfig, TimeSeriesProbe, Workload,
};
use dtn_mobility::{LazyTrace, TraceCache};
use dtn_sim::{
    par_map_supervised, JobOutcome, SimDuration, SimRng, Summary, Threads, Watchdog, Welford,
};
use std::sync::Arc;

/// Sweep-level configuration (defaults are the paper's).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The load (bundle-count) axis; paper: 5, 10, …, 50.
    pub loads: Vec<u32>,
    /// Replications per point; paper: 10.
    pub replications: usize,
    /// Root seed; every replication's randomness derives from it.
    pub base_seed: u64,
    /// Worker-thread policy.
    pub threads: Threads,
    /// Relay-buffer capacity (paper: 10).
    pub buffer_capacity: usize,
    /// Per-bundle transmission time override in seconds. `None` uses the
    /// scenario's own regime ([`Mobility::tx_time_secs`]): 100 s on the
    /// trace and RWP, 10 s in the interval scenarios.
    pub tx_time_secs: Option<u64>,
    /// Fault-injection plan applied to every replication (default: none;
    /// an all-zero plan leaves runs bit-identical to a plan-free build).
    pub faults: FaultPlan,
    /// How many times a panicking replication is retried on a fresh
    /// salted RNG stream before being recorded as a failure (0 = one
    /// attempt, no retries — the pre-watchdog behaviour).
    pub retries: u32,
    /// Hard per-replication deadline in seconds. A replication still
    /// running when it expires is abandoned and recorded as timed out
    /// instead of hanging the sweep. `None` disables the deadline.
    pub point_timeout_secs: Option<u64>,
    /// Attach an [`AuditProbe`] in `Record` mode to every replication and
    /// surface any invariant violations in the report. Probes never
    /// perturb the simulation, so audited metrics are bit-identical to
    /// un-audited ones.
    pub audit: bool,
    /// Log a reporter line when one point's simulation phase exceeds
    /// this many wall seconds (`None` disables the check). Purely
    /// observational — never perturbs results or the job identity.
    pub slow_point_secs: Option<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            loads: (1..=10).map(|i| i * 5).collect(),
            replications: 10,
            base_seed: 0xD7_2012,
            threads: Threads::Auto,
            buffer_capacity: 10,
            tx_time_secs: None,
            faults: FaultPlan::default(),
            retries: 0,
            point_timeout_secs: None,
            audit: false,
            slow_point_secs: None,
        }
    }
}

impl SweepConfig {
    /// A cheap variant for smoke tests and benches: fewer loads and
    /// replications.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            loads: vec![10, 30, 50],
            replications: 3,
            ..SweepConfig::default()
        }
    }
}

/// Aggregated results at one load level.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The load k.
    pub load: u32,
    /// Delivery-ratio statistics across replications.
    pub delivery_ratio: Summary,
    /// Delay statistics across *successful* replications (completion time
    /// in seconds). The paper records no delay for failed runs.
    pub delay_s: Summary,
    /// Replications that failed to deliver everything within the horizon,
    /// plus any panicked replications (each panic also counts here — a
    /// crashed run certainly did not finish delivering).
    pub failures: usize,
    /// Replications that panicked and were isolated by the checked
    /// runner instead of aborting the sweep (0 on the unchecked path).
    pub panics: usize,
    /// Buffer-occupancy statistics.
    pub buffer_occupancy: Summary,
    /// Duplication-rate statistics.
    pub duplication_rate: Summary,
    /// Immunity records transmitted (signaling overhead).
    pub ack_records: Summary,
    /// Bundle payload transmissions.
    pub transmissions: Summary,
    /// Summary-digest bytes sent during anti-entropy (exact vectors and
    /// Bloom digests alike; a subset of control bytes).
    pub signaling_bytes: Summary,
    /// Transmissions triggered by Bloom false positives (identically 0
    /// for exact-summary protocols).
    pub false_positive_transmissions: Summary,
}

/// A full sweep for one protocol on one mobility source.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The protocol's display name.
    pub protocol: &'static str,
    /// The mobility label.
    pub mobility: String,
    /// One aggregate per load level, in load order.
    pub points: Vec<PointResult>,
}

impl SweepResult {
    /// Mean of a per-point statistic across all loads (the aggregation
    /// used by the paper's Table II).
    pub fn grand_mean<F: Fn(&PointResult) -> f64>(&self, f: F) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(f).sum::<f64>() / self.points.len() as f64
    }
}

/// Salt namespace for retry attempts — far above the `rep * 2 (+ 1)`
/// stream indices the canonical attempt-0 derivation uses, so a retried
/// replication walks a genuinely fresh path (replaying the exact seed
/// that just panicked would panic again deterministically).
pub(crate) const RETRY_SALT: u64 = 0x57AC_0000;

/// Where a point's replications get their contact traces.
#[derive(Clone, Debug)]
pub enum Traces {
    /// A built-in scenario: replication `rep` runs on
    /// `mobility.lazy(seed, rep)`, shared through `cache` and generated
    /// as far as its replications read it.
    Scenario {
        /// The mobility source.
        mobility: Mobility,
        /// Scenario seed handed to the generator.
        seed: u64,
        /// Shared build-once store.
        cache: TraceCache,
    },
    /// One loaded trace shared by every replication (a trace file,
    /// wrapped once with [`LazyTrace::complete`]).
    Fixed(Arc<LazyTrace>),
}

impl Traces {
    /// The trace replication `rep` runs on. A scenario's trace is only
    /// started here (its generator's pre-pass); reading it generates it.
    pub fn get(&self, rep: u64) -> Arc<LazyTrace> {
        match self {
            Traces::Scenario {
                mobility,
                seed,
                cache,
            } => mobility.lazy_cached(*seed, rep, cache),
            Traces::Fixed(trace) => Arc::clone(trace),
        }
    }
}

/// One replication attempt as a probe factory sees it, just before the
/// simulation starts.
pub struct Replication<'a> {
    /// Replication index within the point.
    pub rep: usize,
    /// Attempt number (0 unless the watchdog is retrying a panic).
    pub attempt: u32,
    /// The contact trace the attempt runs on.
    pub trace: &'a LazyTrace,
    /// The attempt's workload.
    pub workload: &'a Workload,
    /// The configuration it runs under.
    pub config: &'a SimConfig,
}

impl Replication<'_> {
    /// An invariant auditor in `Record` mode for this attempt.
    pub fn audit_probe(&self) -> AuditProbe {
        AuditProbe::new(
            self.workload,
            self.config,
            self.trace.node_count(),
            AuditMode::Record,
        )
    }

    /// A level-curve recorder for this attempt, sampling every
    /// `horizon / 256` (at least every second). Call
    /// [`TimeSeriesProbe::finish`] with the run's end time afterwards.
    pub fn series_probe(&self) -> TimeSeriesProbe {
        let interval = SimDuration::from_millis((self.trace.horizon().as_millis() / 256).max(1000));
        TimeSeriesProbe::for_config(self.trace.node_count(), self.config, interval)
    }
}

/// Everything one point's replications share. [`ReplicationPlan::run`]
/// is the only code that turns it into simulations.
#[derive(Clone, Debug)]
pub struct ReplicationPlan {
    /// Root RNG every replication's streams derive from.
    pub root: SimRng,
    /// Bundles in the single random flow.
    pub load: u32,
    /// Replications to run.
    pub replications: usize,
    /// Where each replication's trace comes from.
    pub traces: Traces,
    /// The configuration every replication runs under.
    pub config: SimConfig,
}

impl ReplicationPlan {
    /// Run every replication under `watchdog` supervision, attaching the
    /// probe `probe` builds for each attempt, and return each one's
    /// metrics and probe in replication order.
    ///
    /// Each attempt runs on its `replication_streams`. Probes never
    /// perturb a run, and with [`NullProbe`] this is the plain `simulate`
    /// path, so every caller gets bit-identical metrics.
    pub fn run<P, F>(
        self,
        threads: Threads,
        watchdog: Watchdog,
        probe: F,
    ) -> Vec<JobOutcome<(RunMetrics, P)>>
    where
        P: Probe + Send + 'static,
        F: Fn(&Replication<'_>) -> P + Send + Sync + 'static,
    {
        par_map_supervised(threads, self.replications, watchdog, move |rep, attempt| {
            let trace = self.traces.get(rep as u64);
            let (mut wl_rng, sim_rng) = replication_streams(&self.root, rep, attempt);
            let workload = Workload::single_random_flow(self.load, trace.node_count(), &mut wl_rng);
            let mut probe = probe(&Replication {
                rep,
                attempt,
                trace: &trace,
                workload: &workload,
                config: &self.config,
            });
            // A disabled probe observes nothing, so run the engine crate's
            // own un-probed instance — the machine code every `simulate`
            // caller gets — rather than a second copy of the engine
            // monomorphized here, which measured ~5 % slower on
            // perfbench's figure-grid workload (2-core Xeon host). Lazy
            // and materialized traces share that one instance: both are
            // read through the same `ContactStream` type.
            let contacts = trace.stream();
            let metrics = if P::ENABLED {
                simulate_stream_probed(contacts, &workload, &self.config, sim_rng, &mut probe)
            } else {
                simulate_stream(contacts, &workload, &self.config, sim_rng)
            };
            (metrics, probe)
        })
    }
}

/// The canonical `(workload, simulation)` streams of attempt `attempt`
/// of replication `rep` under `root`: `root.derive(2 rep + 1)` and
/// `root.derive(2 rep)` on the first attempt, the same indices under
/// `root.derive(RETRY_SALT | attempt)` on a retry. This is the seeding
/// convention every figure, job and CLI run relies on; no other code in
/// the workspace derives replication streams.
pub(crate) fn replication_streams(root: &SimRng, rep: usize, attempt: u32) -> (SimRng, SimRng) {
    let salted;
    let stream = match attempt {
        0 => root,
        n => {
            salted = root.derive(RETRY_SALT | u64::from(n));
            &salted
        }
    };
    let rep = 2 * rep as u64;
    (stream.derive(rep + 1), stream.derive(rep))
}

/// The root seed of one sweep point: `base_seed ^ (load << 32)`, so
/// (protocol, load, replication) never collides across sweeps while
/// staying deterministic.
pub(crate) fn point_root_seed(base_seed: u64, load: u32) -> u64 {
    base_seed ^ (load as u64) << 32
}

/// The [`SimConfig`] a sweep point runs under (the paper's constants plus
/// the sweep's overrides).
pub fn point_sim_config(
    protocol: &ProtocolConfig,
    mobility: Mobility,
    cfg: &SweepConfig,
) -> SimConfig {
    SimConfig {
        buffer_capacity: cfg.buffer_capacity,
        tx_time: SimDuration::from_secs(
            cfg.tx_time_secs.unwrap_or_else(|| mobility.tx_time_secs()),
        ),
        faults: cfg.faults.clone(),
        ..SimConfig::paper_defaults(protocol.clone())
    }
}

/// Run every replication of one (protocol, mobility, load) sweep point
/// with a probe from `probe` attached to each, under the sweep's thread
/// policy and watchdog, with traces shared through `cache`. Traced,
/// series and audited points are this call with a different probe.
pub fn run_point<P, F>(
    protocol: &ProtocolConfig,
    mobility: Mobility,
    load: u32,
    cfg: &SweepConfig,
    cache: &TraceCache,
    probe: F,
) -> Vec<JobOutcome<(RunMetrics, P)>>
where
    P: Probe + Send + 'static,
    F: Fn(&Replication<'_>) -> P + Send + Sync + 'static,
{
    let plan = ReplicationPlan {
        root: SimRng::new(point_root_seed(cfg.base_seed, load)),
        load,
        replications: cfg.replications,
        traces: Traces::Scenario {
            mobility,
            seed: cfg.base_seed,
            cache: cache.clone(),
        },
        config: point_sim_config(protocol, mobility, cfg),
    };
    plan.run(
        cfg.threads,
        Watchdog::new(cfg.retries, cfg.point_timeout_secs),
        probe,
    )
}

/// Un-probed [`run_point`] with each replication's outcome as
/// `Ok(metrics)` or `Err(why it has none)`, in replication order: a
/// diverging replication cannot take the sweep down with it.
pub fn run_point_checked_cached(
    protocol: &ProtocolConfig,
    mobility: Mobility,
    load: u32,
    cfg: &SweepConfig,
    cache: &TraceCache,
) -> Vec<Result<RunMetrics, String>> {
    run_point(protocol, mobility, load, cfg, cache, |_| NullProbe)
        .into_iter()
        .map(|o| o.into_result().map(|(m, _)| m))
        .collect()
}

/// Aggregate checked replication outcomes into a [`PointResult`]: the
/// metric summaries cover the successful replications, while each panic
/// is counted both in [`PointResult::panics`] and (as a non-delivering
/// replication) in [`PointResult::failures`].
pub fn aggregate_point_checked(load: u32, results: &[Result<RunMetrics, String>]) -> PointResult {
    let ok: Vec<RunMetrics> = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .collect();
    let panics = results.len() - ok.len();
    let mut point = aggregate_point(load, &ok);
    point.failures += panics;
    point.panics = panics;
    point
}

/// Aggregate raw replication metrics into a [`PointResult`].
pub fn aggregate_point(load: u32, runs: &[RunMetrics]) -> PointResult {
    let mut delivery = Welford::new();
    let mut delay = Welford::new();
    let mut buffer = Welford::new();
    let mut duplication = Welford::new();
    let mut acks = Welford::new();
    let mut tx = Welford::new();
    let mut signaling = Welford::new();
    let mut false_pos = Welford::new();
    let mut failures = 0usize;
    for m in runs {
        delivery.push(m.delivery_ratio);
        match m.delay_secs() {
            Some(d) => delay.push(d),
            None => failures += 1,
        }
        buffer.push(m.avg_buffer_occupancy);
        duplication.push(m.avg_duplication_rate);
        acks.push(m.ack_records_sent as f64);
        tx.push(m.bundle_transmissions as f64);
        signaling.push(m.signaling_bytes as f64);
        false_pos.push(m.false_positive_transmissions as f64);
    }
    PointResult {
        load,
        delivery_ratio: delivery.summary(),
        delay_s: delay.summary(),
        failures,
        panics: 0,
        buffer_occupancy: buffer.summary(),
        duplication_rate: duplication.summary(),
        ack_records: acks.summary(),
        transmissions: tx.summary(),
        signaling_bytes: signaling.summary(),
        false_positive_transmissions: false_pos.summary(),
    }
}

/// Run the full load sweep for one protocol on one mobility source.
///
/// Internally shares one [`TraceCache`] across the sweep's points —
/// every load level replays the same per-replication traces. Callers
/// running *several* sweeps under the same mobility (a figure) should
/// pass one cache to [`run_sweep_cached`] instead.
pub fn run_sweep(protocol: &ProtocolConfig, mobility: Mobility, cfg: &SweepConfig) -> SweepResult {
    run_sweep_cached(protocol, mobility, cfg, &TraceCache::new())
}

/// [`run_sweep`] with trace generation deduplicated through a shared,
/// possibly cross-sweep [`TraceCache`].
pub fn run_sweep_cached(
    protocol: &ProtocolConfig,
    mobility: Mobility,
    cfg: &SweepConfig,
    cache: &TraceCache,
) -> SweepResult {
    let points = cfg
        .loads
        .iter()
        .map(|&load| {
            aggregate_point_checked(
                load,
                &run_point_checked_cached(protocol, mobility, load, cfg, cache),
            )
        })
        .collect();
    SweepResult {
        protocol: protocol.name,
        mobility: mobility.label(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_epidemic::protocols;

    fn tiny() -> SweepConfig {
        SweepConfig {
            loads: vec![5],
            replications: 3,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_produces_one_point_per_load() {
        let cfg = SweepConfig {
            loads: vec![5, 10],
            replications: 2,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let result = run_sweep(&protocols::pure_epidemic(), Mobility::Trace, &cfg);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].load, 5);
        assert_eq!(result.points[1].load, 10);
        assert_eq!(result.protocol, "Pure epidemic");
    }

    #[test]
    fn sweep_is_deterministic_and_thread_invariant() {
        let cfg_seq = tiny();
        let mut cfg_par = tiny();
        cfg_par.threads = Threads::Auto;
        let a = run_sweep(&protocols::pure_epidemic(), Mobility::Rwp, &cfg_seq);
        let b = run_sweep(&protocols::pure_epidemic(), Mobility::Rwp, &cfg_par);
        assert_eq!(
            a.points[0].delivery_ratio.mean,
            b.points[0].delivery_ratio.mean
        );
        assert_eq!(a.points[0].delay_s.mean, b.points[0].delay_s.mean);
    }

    #[test]
    fn pure_epidemic_delivers_well_on_trace_at_low_load() {
        let result = run_sweep(&protocols::pure_epidemic(), Mobility::Trace, &tiny());
        let p = &result.points[0];
        assert!(
            p.delivery_ratio.mean > 0.9,
            "delivery at load 5: {}",
            p.delivery_ratio.mean
        );
    }

    #[test]
    fn aggregate_separates_failures_from_delays() {
        let runs: Vec<RunMetrics> = run_point_checked_cached(
            &protocols::ttl_epidemic(dtn_sim::SimDuration::from_secs(50)),
            Mobility::Trace,
            50,
            &tiny(),
            &TraceCache::new(),
        )
        .into_iter()
        .map(Result::unwrap)
        .collect();
        let point = aggregate_point(50, &runs);
        // With a 50 s TTL on a sparse trace, at least some replication
        // fails; the delay summary must then have fewer samples than the
        // replication count.
        assert_eq!(point.delivery_ratio.n as usize, runs.len());
        assert_eq!(point.delay_s.n as usize + point.failures, runs.len());
    }

    #[test]
    fn traced_and_series_runs_match_the_plain_runner() {
        let cfg = tiny();
        let cache = TraceCache::new();
        let proto = protocols::immunity_epidemic();
        let plain = run_point_checked_cached(&proto, Mobility::Trace, 5, &cfg, &cache);
        let traced: Vec<(RunMetrics, String)> =
            run_point(&proto, Mobility::Trace, 5, &cfg, &cache, |_| {
                dtn_epidemic::JsonlProbe::new()
            })
            .into_iter()
            .map(|o| o.value().map(|(m, p)| (m, p.into_jsonl())).unwrap())
            .collect();
        let series: Vec<(RunMetrics, TimeSeriesProbe)> =
            run_point(&proto, Mobility::Trace, 5, &cfg, &cache, |r| {
                r.series_probe()
            })
            .into_iter()
            .map(|o| {
                let (m, mut probe) = o.value().unwrap();
                probe.finish(m.end_time);
                (m, probe)
            })
            .collect();
        assert_eq!(plain.len(), traced.len());
        for (p, (t, jsonl)) in plain.iter().zip(&traced) {
            assert_eq!(
                p.as_ref().unwrap(),
                t,
                "probe must not perturb the simulation"
            );
            assert!(!jsonl.is_empty(), "events were captured");
        }
        for (p, (s, probe)) in plain.iter().zip(&series) {
            let p = p.as_ref().unwrap();
            assert_eq!(p, s);
            assert!(!probe.samples.is_empty(), "curves were sampled");
            assert_eq!(probe.delay.count(), u64::from(p.delivered));
        }
    }

    #[test]
    fn a_load_5_run_leaves_its_trace_mostly_ungenerated() {
        let cfg = SweepConfig {
            replications: 1,
            ..tiny()
        };
        let cache = TraceCache::new();
        run_point_checked_cached(&protocols::pure_epidemic(), Mobility::Rwp, 5, &cfg, &cache)
            .into_iter()
            .for_each(|r| assert!(r.is_ok()));
        // Less than the finished trace's `Vec` held when traces were
        // generated whole: ~6.1k contacts in a capacity of 8192.
        let finished = 8192 * std::mem::size_of::<dtn_mobility::Contact>();
        assert!(
            cache.bytes() < finished,
            "{} bytes after one pure load-5 run",
            cache.bytes()
        );
        // Read to the horizon (as a run that never delivers reads it),
        // the trace drops its generator: only published contacts stay.
        let trace = Mobility::Rwp.lazy_cached(cfg.base_seed, 0, &cache);
        assert!(!trace.is_complete());
        trace.stream().for_each(drop);
        assert!(trace.is_complete());
        assert_eq!(
            cache.bytes(),
            std::mem::size_of::<dtn_mobility::LazyTrace>()
                + trace.published_contacts() * std::mem::size_of::<dtn_mobility::Contact>()
        );
    }

    #[test]
    fn grand_mean_averages_points() {
        let cfg = SweepConfig {
            loads: vec![5, 10],
            replications: 2,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let r = run_sweep(&protocols::pure_epidemic(), Mobility::Trace, &cfg);
        let manual = (r.points[0].delivery_ratio.mean + r.points[1].delivery_ratio.mean) / 2.0;
        assert!((r.grand_mean(|p| p.delivery_ratio.mean) - manual).abs() < 1e-12);
    }
}
