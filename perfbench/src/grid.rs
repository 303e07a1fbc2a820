//! The in-process workloads, `figure-grid` and `cold-mobility`.
//!
//! One iteration is a cold pass over the grid with fresh trace caches
//! (one per mobility, shared by every protocol and load the way
//! `build_figure` shares it) followed by a cached pass replaying the same
//! grid against the now-warm caches. The timed unit, a *sweep*, is one
//! protocol across every mobility and load of the grid. The untraced pass
//! runs every point through the public `run_point_checked_cached` +
//! `aggregate_point_checked` pair that `run_sweep_cached` is made of, so
//! every replication's `RunMetrics` can be folded into the digest. The
//! traced pass drives the layers one call at a time and must reproduce
//! that digest bit for bit.

use crate::layers::Layers;
use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::{iteration_seeds, median, quantile, Digest};
use crate::RunCtx;
use dtn_epidemic::{
    protocols, simulate_probed, AuditMode, AuditProbe, ProtocolConfig, RunMetrics, Workload,
};
use dtn_experiments::{
    aggregate_point_checked, point_sim_config, run_point_checked_cached, Mobility, SweepConfig,
    TraceCache,
};
use dtn_sim::{SimRng, Threads};
use std::time::Instant;

/// One in-process workload: a protocol × mobility × load × replication grid.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Indices into `protocols::ALL_SPECS`.
    pub protocols: Vec<usize>,
    /// Mobility sources; each gets its own trace cache per iteration.
    pub mobilities: Vec<Mobility>,
    /// The load axis.
    pub loads: Vec<u32>,
    /// Replications per point.
    pub reps: usize,
    /// Iterations per second of `--seconds`: the quota is fixed by
    /// `--seconds` alone, sized so one run takes 0.7–1.2 × that long on a
    /// 2-core host (depending on how busy its other tenants are), and a
    /// faster program simply finishes sooner.
    pub iterations_per_second: f64,
}

/// `figure-grid`: every protocol × {trace, rwp} × loads 5..50 × the
/// paper's ten replications — what `repro` runs to regenerate a figure.
pub fn figure_grid() -> Grid {
    Grid {
        protocols: (0..protocols::ALL_SPECS.len()).collect(),
        mobilities: vec![Mobility::Trace, Mobility::Rwp],
        loads: (1..=10).map(|i| i * 5).collect(),
        reps: 10,
        iterations_per_second: 0.55,
    }
}

/// `cold-mobility`: pure epidemic at a low load over all five mobility
/// generators, a fresh seed every iteration, so every trace is a miss.
pub fn cold_mobility() -> Grid {
    Grid {
        protocols: vec![0],
        mobilities: vec![
            Mobility::Trace,
            Mobility::Rwp,
            Mobility::GeometricRwp,
            Mobility::Interval(400),
            Mobility::Interval(2000),
        ],
        loads: vec![5],
        reps: 10,
        iterations_per_second: 9.0,
    }
}

impl Grid {
    /// Iterations one run performs for `--seconds`.
    pub fn iterations(&self, seconds: u64) -> usize {
        ((seconds as f64 * self.iterations_per_second).round() as usize).max(2)
    }

    fn config(&self, base_seed: u64) -> SweepConfig {
        SweepConfig {
            loads: self.loads.clone(),
            replications: self.reps,
            base_seed,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        }
    }

    fn points_per_pass(&self) -> usize {
        self.protocols.len() * self.mobilities.len() * self.loads.len()
    }
}

/// Every protocol preset, in `ALL_SPECS` order.
fn presets() -> Vec<ProtocolConfig> {
    protocols::ALL_SPECS
        .iter()
        .map(|spec| protocols::from_spec(spec).expect("ALL_SPECS entries parse"))
        .collect()
}

/// One pass over the grid: its sweep times, digest and failures.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each sweep (one protocol across every mobility and
    /// load of the grid), in milliseconds.
    pub sweeps_ms: Vec<f64>,
    /// Digest of every replication's metrics, in grid order.
    pub digest: Digest,
    /// Failed replications (panics), one line each.
    pub errors: Vec<String>,
}

/// The untraced pass: public runner calls only. Protocols are the outer
/// loop, so each protocol's sweep is one timed unit; the first sweep of
/// a cold pass fills the caches every later sweep reads.
pub fn plain_pass(
    grid: &Grid,
    presets: &[ProtocolConfig],
    base_seed: u64,
    caches: &[TraceCache],
) -> Pass {
    let cfg = grid.config(base_seed);
    let mut pass = Pass::default();
    for &p in &grid.protocols {
        let started = Instant::now();
        for (&mobility, cache) in grid.mobilities.iter().zip(caches) {
            for &load in &grid.loads {
                let results = run_point_checked_cached(&presets[p], mobility, load, &cfg, cache);
                for (rep, r) in results.iter().enumerate() {
                    match r {
                        Ok(m) => pass.digest.metrics(m),
                        Err(e) => pass.errors.push(format!(
                            "{} @ {} load {load} rep {rep} panicked: {e}",
                            protocols::ALL_SPECS[p],
                            mobility.spec()
                        )),
                    }
                }
                std::hint::black_box(aggregate_point_checked(load, &results));
            }
        }
        pass.sweeps_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    pass
}

/// The traced pass: the same grid, one layer call at a time, repeating
/// the runner's seeding convention (`root = base_seed ^ load << 32`,
/// workload on `root.derive(2 rep + 1)`, simulation on
/// `root.derive(2 rep)`). The digest comparison guards this copy.
pub fn traced_pass(
    grid: &Grid,
    presets: &[ProtocolConfig],
    base_seed: u64,
    caches: &[TraceCache],
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Pass {
    let cfg = grid.config(base_seed);
    let mut pass = Pass::default();
    for &p in &grid.protocols {
        let started = Instant::now();
        tracer.begin("sweep", layers.next_point);
        for (&mobility, cache) in grid.mobilities.iter().zip(caches) {
            for &load in &grid.loads {
                let point = layers.next_point;
                layers.next_point += 1;
                tracer.begin("point", point);
                let root = SimRng::new(base_seed ^ (load as u64) << 32);
                let sim_config = point_sim_config(&presets[p], mobility, &cfg);
                let results: Vec<Result<RunMetrics, String>> = (0..grid.reps as u64)
                    .map(|rep| {
                        let trace =
                            layers.build_trace(tracer, point, mobility, base_seed, rep, cache);
                        let m = layers.replicate(
                            tracer,
                            point,
                            &trace,
                            load,
                            &root,
                            rep,
                            &sim_config,
                            p,
                        );
                        pass.digest.metrics(&m);
                        Ok(m)
                    })
                    .collect();
                let t0 = Instant::now();
                std::hint::black_box(aggregate_point_checked(load, &results));
                let t1 = Instant::now();
                tracer.leaf("experiments.aggregate", point, t0, t1);
                layers.aggregate_us.push((t1 - t0).as_secs_f64() * 1e6);
                tracer.end();
            }
        }
        tracer.end();
        pass.sweeps_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    pass
}

/// One point per protocol and mobility (highest load, replication 0)
/// under the invariant auditor in `Record` mode; returns the violations.
fn audit(grid: &Grid, presets: &[ProtocolConfig], base_seed: u64) -> Vec<String> {
    let cfg = grid.config(base_seed);
    let load = *grid.loads.last().expect("a load axis");
    let mut found = Vec::new();
    for &mobility in &grid.mobilities {
        let trace = mobility.build(base_seed, 0);
        for &p in &grid.protocols {
            let root = SimRng::new(base_seed ^ (load as u64) << 32);
            let workload =
                Workload::single_random_flow(load, trace.node_count(), &mut root.derive(1));
            let sim_config = point_sim_config(&presets[p], mobility, &cfg);
            let mut probe = AuditProbe::new(
                &workload,
                &sim_config,
                trace.node_count(),
                AuditMode::Record,
            );
            simulate_probed(&trace, &workload, &sim_config, root.derive(0), &mut probe);
            for v in probe.violation_strings() {
                found.push(format!(
                    "{} @ {}: {v}",
                    protocols::ALL_SPECS[p],
                    mobility.spec()
                ));
            }
        }
    }
    found
}

/// Set-up: the grid at one replication with fresh caches, so code and
/// allocator are warm before the first timed pass.
fn warm_up(grid: &Grid, presets: &[ProtocolConfig], seed: u64) {
    let small = Grid {
        reps: 1,
        ..grid.clone()
    };
    let caches: Vec<TraceCache> = small.mobilities.iter().map(|_| TraceCache::new()).collect();
    std::hint::black_box(plain_pass(&small, presets, seed, &caches));
}

/// The timed loop of one mode: per-iteration cold and cached passes.
struct Loop {
    /// Every sweep of every cold pass, in milliseconds.
    cold_ms: Vec<f64>,
    /// Every sweep of every cached pass, in milliseconds.
    cached_ms: Vec<f64>,
    digest: Digest,
}

impl Loop {
    /// The whole timed window in seconds.
    fn total_s(&self) -> f64 {
        (self.cold_ms.iter().sum::<f64>() + self.cached_ms.iter().sum::<f64>()) / 1e3
    }
}

fn timed_loop(
    grid: &Grid,
    presets: &[ProtocolConfig],
    seeds: &[u64],
    outcome: &mut Outcome,
    mut traced: Option<(&mut Layers, &mut Tracer)>,
) -> Loop {
    let mut out = Loop {
        cold_ms: Vec::new(),
        cached_ms: Vec::new(),
        digest: Digest::default(),
    };
    for (i, &base_seed) in seeds.iter().enumerate() {
        let caches: Vec<TraceCache> = grid.mobilities.iter().map(|_| TraceCache::new()).collect();
        let mut passes = Vec::with_capacity(2);
        for name in ["pass.cold", "pass.cached"] {
            let pass = match traced.as_mut() {
                None => plain_pass(grid, presets, base_seed, &caches),
                Some((layers, tracer)) => {
                    tracer.begin(name, i as u64);
                    let pass = traced_pass(grid, presets, base_seed, &caches, layers, tracer);
                    tracer.end();
                    pass
                }
            };
            let error = (!pass.errors.is_empty()).then(|| pass.errors.join("; "));
            outcome.check(error);
            passes.push(pass);
        }
        let (cold, cached) = (&passes[0], &passes[1]);
        if cold.digest != cached.digest {
            outcome.check(Some(format!(
                "iteration {i}: the cached replay diverged from the cold pass"
            )));
        }
        out.digest.bytes(&cold.digest.0.to_le_bytes());
        out.cold_ms.extend(&cold.sweeps_ms);
        out.cached_ms.extend(&cached.sweeps_ms);
        if let Some((layers, _)) = traced.as_mut() {
            layers.absorb_caches(&caches);
        }
    }
    out
}

/// The error, if any, of comparing the traced run's digest with the
/// untraced one's.
fn digest_mismatch(untraced: Digest, traced: Digest) -> Option<String> {
    (untraced != traced).then(|| {
        format!(
            "traced digest {:016x} differs from untraced {:016x}",
            traced.0, untraced.0
        )
    })
}

/// Run one in-process workload and fill `outcome`.
pub fn run(grid: &Grid, ctx: &RunCtx, outcome: &mut Outcome) {
    let (seed, started) = (ctx.seed, ctx.started);
    let presets = presets();
    let seeds = iteration_seeds(seed, grid.iterations(ctx.seconds));

    // The first set-up sample counts from process start.
    let mut setup = Vec::new();
    for k in 0..crate::SETUP_REPEATS as u64 {
        let t0 = Instant::now();
        warm_up(grid, &presets, seed ^ k);
        let from = if k == 0 { started } else { t0 };
        setup.push(from.elapsed().as_secs_f64());
    }
    outcome.set("setup_s", median(&setup));

    // Correctness outside the timed window: the auditor.
    let violations = audit(grid, &presets, seeds[0]);
    outcome.check(
        (!violations.is_empty()).then(|| format!("audit violations: {}", violations.join("; "))),
    );

    let plain = timed_loop(grid, &presets, &seeds, outcome, None);
    // Rates over the whole timed window: the grid a researcher waits on.
    let points = (2 * seeds.len() * grid.points_per_pass()) as f64;
    outcome.set("runs_per_s", points * grid.reps as f64 / plain.total_s());
    outcome.set("points_per_s", points / plain.total_s());
    outcome.set("sweep_ms_p50", median(&plain.cold_ms));
    outcome.set("sweep_ms_p90", quantile(&plain.cold_ms, 0.9));
    outcome.set("cached_sweep_ms_p50", median(&plain.cached_ms));
    outcome.set("cached_sweep_ms_p90", quantile(&plain.cached_ms, 0.9));
    let rss = dtn_experiments::peak_rss_bytes().unwrap_or(0) as f64;
    outcome.set("peak_rss_mb", rss / (1024.0 * 1024.0));
    eprintln!(
        "perfbench: {} iterations, digest {:016x}",
        seeds.len(),
        plain.digest.0
    );

    if ctx.traced {
        let mut layers = Layers::default();
        let mut tracer = Tracer::new(started);
        let traced_loop = timed_loop(
            grid,
            &presets,
            &seeds,
            outcome,
            Some((&mut layers, &mut tracer)),
        );
        outcome.check(digest_mismatch(plain.digest, traced_loop.digest));
        layers.report(&tracer, &["pass.cold", "pass.cached"], outcome);
        outcome.set(
            "trace_overhead_pct",
            (traced_loop.total_s() / plain.total_s() - 1.0) * 100.0,
        );
        if let Err(e) = tracer.write_jsonl(&ctx.spans_path) {
            eprintln!("perfbench: cannot write {}: {e}", ctx.spans_path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(grid: Grid) -> Grid {
        Grid {
            loads: vec![grid.loads[0], grid.loads[grid.loads.len() - 1]],
            reps: 2,
            ..grid
        }
    }

    #[test]
    fn traced_pass_reproduces_the_plain_digest() {
        for grid in [tiny(figure_grid()), tiny(cold_mobility())] {
            let presets = presets();
            let caches = || {
                grid.mobilities
                    .iter()
                    .map(|_| TraceCache::new())
                    .collect::<Vec<_>>()
            };
            let plain = plain_pass(&grid, &presets, 11, &caches());
            let mut layers = Layers::default();
            let mut tracer = Tracer::new(Instant::now());
            let traced = traced_pass(&grid, &presets, 11, &caches(), &mut layers, &mut tracer);
            assert_eq!(plain.digest, traced.digest);
            assert!(plain.errors.is_empty());
            let other = plain_pass(&grid, &presets, 12, &caches());
            assert_ne!(plain.digest, other.digest, "the seed drives the inputs");
        }
    }

    #[test]
    fn a_corrupted_digest_fails_the_run() {
        let grid = Grid {
            iterations_per_second: 1.0,
            ..tiny(cold_mobility())
        };
        let presets = presets();
        let seeds = iteration_seeds(3, 2);
        let mut outcome = Outcome::default();
        let good = timed_loop(&grid, &presets, &seeds, &mut outcome, None);
        assert!(outcome.correct());
        let again = timed_loop(&grid, &presets, &seeds, &mut outcome, None);
        assert_eq!(good.digest, again.digest, "same seed, same digest");
        outcome.check(digest_mismatch(good.digest, again.digest));
        assert!(outcome.correct());
        let mut corrupted = good.digest;
        corrupted.bytes(b"x");
        outcome.check(digest_mismatch(good.digest, corrupted));
        assert!(!outcome.correct());
    }

    #[test]
    fn the_auditor_finds_no_violations() {
        let grid = tiny(figure_grid());
        assert!(audit(&grid, &presets(), 5).is_empty());
    }
}
