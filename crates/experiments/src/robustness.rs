//! The robustness preset: every protocol swept across a churn × loss
//! fault grid, with panic isolation and checkpoint/resume.
//!
//! The paper evaluates its eight protocols on clean channels; this module
//! asks how the level comparison holds up when the environment degrades.
//! [`fault_grid`] spans three churn regimes (none, duty-cycle, crash) by
//! two channel regimes (clean, lossy — bursty Gilbert–Elliott loss plus
//! session truncation and anti-packet loss), and [`run_robustness`] runs
//! all eight protocols over every cell, producing one [`SweepReport`]
//! whose per-point fault counters make the degradation measurable.
//!
//! A full grid is 6 cells × 8 protocols × loads × replications — long
//! enough that losing it to a crash or an eviction hurts. The driver
//! therefore runs every point through the panic-isolating executor
//! (one diverging replication becomes a recorded failure, not an abort)
//! and, when given a checkpoint path, appends each finished point to a
//! JSONL checkpoint that `--resume` replays: already-completed points are
//! loaded bit-exactly (floats travel as IEEE-754 bit patterns, never
//! through decimal) and only the remainder is simulated.
//!
//! The unit of work is a [`PointJob`] (see [`crate::jobs`]):
//! [`grid_point_jobs`] enumerates the grid as self-contained jobs, the
//! local driver runs them in place, and a `dtnsim --connect` client ships
//! the very same jobs to a `dtnsimd` daemon and reassembles the report
//! with [`assemble_grid_report`] — canonically identical either way.

use crate::jobs::{outcome_from_json, outcome_to_json, split_top_level, PointJob, PointOutcome};
use crate::runner::SweepConfig;
use crate::scenarios::Mobility;
use crate::{Reporter, SweepReport, TraceCache};
use dtn_epidemic::{protocols, ChurnMode, ChurnPlan, FaultPlan, GilbertElliott, RunMetrics};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

pub use crate::jobs::{InjectHook, RunOutcome};

/// One cell of the robustness grid: a label and its fault plan.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// Stable cell label (embedded in the report's mobility column and
    /// the checkpoint key).
    pub label: &'static str,
    /// The plan every replication in this cell runs under.
    pub plan: FaultPlan,
}

/// The default churn × loss grid: `{none, duty, crash}` ×
/// `{clean, lossy}`.
///
/// Churn cells give nodes exponential up/down dwell times with mean
/// 40 000 s up and 10 000 s down (an 80 % duty cycle, long enough that
/// several contacts fall inside one outage). Lossy cells combine a
/// bursty Gilbert–Elliott channel (2 % good-state / 60 % bad-state loss,
/// mean burst length 4 transmissions), 25 % session truncation and 25 %
/// anti-packet loss.
pub fn fault_grid() -> Vec<FaultCell> {
    let churn = |mode| ChurnPlan {
        mean_up_secs: 40_000.0,
        mean_down_secs: 10_000.0,
        mode,
    };
    let lossy = || FaultPlan {
        truncation_prob: 0.25,
        ack_loss_prob: 0.25,
        burst: Some(GilbertElliott {
            loss_good: 0.02,
            loss_bad: 0.6,
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.25,
        }),
        churn: None,
    };
    vec![
        FaultCell {
            label: "churn=none,loss=clean",
            plan: FaultPlan::none(),
        },
        FaultCell {
            label: "churn=none,loss=lossy",
            plan: lossy(),
        },
        FaultCell {
            label: "churn=duty,loss=clean",
            plan: FaultPlan {
                churn: Some(churn(ChurnMode::DutyCycle)),
                ..FaultPlan::none()
            },
        },
        FaultCell {
            label: "churn=duty,loss=lossy",
            plan: FaultPlan {
                churn: Some(churn(ChurnMode::DutyCycle)),
                ..lossy()
            },
        },
        FaultCell {
            label: "churn=crash,loss=clean",
            plan: FaultPlan {
                churn: Some(churn(ChurnMode::Crash)),
                ..FaultPlan::none()
            },
        },
        FaultCell {
            label: "churn=crash,loss=lossy",
            plan: FaultPlan {
                churn: Some(churn(ChurnMode::Crash)),
                ..lossy()
            },
        },
    ]
}

/// Checkpoint key of one grid point.
pub fn point_key(cell: &str, protocol: &str, load: u32) -> String {
    format!("{cell}|{protocol}|{load}")
}

/// One grid point with its full identity: display labels, the
/// checkpoint key, and the self-contained [`PointJob`] that computes it.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// The fault-grid cell label.
    pub cell_label: &'static str,
    /// The protocol's display name (report column).
    pub protocol_name: &'static str,
    /// The protocol's canonical spec string (wire/cache identity).
    pub protocol_spec: &'static str,
    /// Bundles per flow.
    pub load: u32,
    /// Checkpoint key (`"{cell}|{protocol}|{load}"`).
    pub key: String,
    /// The job computing this point.
    pub job: PointJob,
}

/// Enumerate the robustness grid as self-contained jobs, in canonical
/// order (cells outer, protocols middle, loads inner) — the order
/// [`run_robustness`] executes and [`assemble_grid_report`] expects.
pub fn grid_point_jobs(mobility: Mobility, cfg: &SweepConfig) -> Result<Vec<GridPoint>, String> {
    let grid = fault_grid();
    let protos = protocols::all_protocols();
    let mut points = Vec::with_capacity(grid.len() * protos.len() * cfg.loads.len());
    for cell in &grid {
        let mut cell_cfg = cfg.clone();
        cell_cfg.faults = cell.plan.clone();
        cell_cfg.faults.validate()?;
        for (spec, proto) in protocols::ALL_SPECS.iter().zip(&protos) {
            for &load in &cfg.loads {
                points.push(GridPoint {
                    cell_label: cell.label,
                    protocol_name: proto.name,
                    protocol_spec: spec,
                    load,
                    key: point_key(cell.label, proto.name, load),
                    job: PointJob::from_sweep(*spec, mobility, load, &cell_cfg),
                });
            }
        }
    }
    Ok(points)
}

/// One finished point as a checkpoint line (no trailing newline): the
/// key, the per-replication attempt counts, then the outcome tokens.
fn point_to_line(key: &str, outcomes: &[RunOutcome], attempts: &[u32]) -> String {
    let mut runs = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            runs.push(',');
        }
        runs.push_str(&outcome_to_json(o));
    }
    let attempts: Vec<String> = attempts.iter().map(|a| a.to_string()).collect();
    format!(
        "{{\"point\":\"{}\",\"attempts\":[{}],\"runs\":[{}]}}",
        crate::report::json_escape(key),
        attempts.join(","),
        runs
    )
}

type PointLine = (String, Vec<RunOutcome>, Vec<u32>);
/// Finished points keyed by checkpoint key: (outcomes, attempt counts).
type DoneMap = HashMap<String, (Vec<RunOutcome>, Vec<u32>)>;

fn point_from_line(line: &str) -> Result<PointLine, String> {
    let rest = line
        .trim()
        .strip_prefix("{\"point\":\"")
        .ok_or_else(|| format!("bad checkpoint line {line:?}"))?;
    let (key, rest) = rest
        .split_once("\",\"attempts\":[")
        .ok_or_else(|| format!("bad checkpoint line {line:?}"))?;
    let (attempts, rest) = rest
        .split_once("],\"runs\":[")
        .ok_or_else(|| format!("bad checkpoint line {line:?}"))?;
    let attempts: Vec<u32> = attempts
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim()
                .parse::<u32>()
                .map_err(|e| format!("bad attempt count {t:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let body = rest
        .strip_suffix("]}")
        .ok_or_else(|| format!("bad checkpoint line {line:?}"))?;
    let outcomes = split_top_level(body)
        .into_iter()
        .map(outcome_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if attempts.len() != outcomes.len() {
        return Err(format!(
            "checkpoint point {key:?} has {} attempt counts for {} runs",
            attempts.len(),
            outcomes.len()
        ));
    }
    Ok((key.to_string(), outcomes, attempts))
}

/// The manifest (first) line of a checkpoint file. The watchdog
/// configuration is part of it: retried replications run on salted RNG
/// streams and timed-out replications carry no metrics, so resuming
/// under a different supervision policy would silently mix
/// incomparable results.
fn manifest_line(mobility: Mobility, cfg: &SweepConfig) -> String {
    format!(
        "{{\"ckpt\":\"robustness\",\"mobility\":\"{}\",\"base_seed\":{},\"replications\":{},\
         \"loads\":{:?},\"retries\":{},\"timeout_secs\":{}}}",
        crate::report::json_escape(&mobility.label()),
        cfg.base_seed,
        cfg.replications,
        cfg.loads,
        cfg.retries,
        cfg.point_timeout_secs
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into()),
    )
}

/// Parse a checkpoint file written by a previous [`run_robustness`] call.
/// The manifest must match the current configuration — resuming under a
/// different seed or replication count would silently mix incompatible
/// results, so a mismatch is an error.
fn load_checkpoint(path: &Path, mobility: Mobility, cfg: &SweepConfig) -> Result<DoneMap, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let manifest = lines.next().ok_or("checkpoint is empty")?;
    let expected = manifest_line(mobility, cfg);
    if manifest.trim() != expected {
        return Err(format!(
            "checkpoint manifest mismatch\n  found:    {manifest}\n  expected: {expected}\n\
             (resume requires the same mobility, seed, replications and loads)"
        ));
    }
    let mut done = HashMap::new();
    for line in lines {
        let (key, outcomes, attempts) = point_from_line(line)?;
        if outcomes.len() != cfg.replications {
            return Err(format!(
                "checkpoint point {key:?} has {} outcomes, expected {}",
                outcomes.len(),
                cfg.replications
            ));
        }
        done.insert(key, (outcomes, attempts));
    }
    Ok(done)
}

/// The workload description of a robustness report — shared verbatim by
/// the local driver and the service client so assembled reports match.
fn grid_workload(mobility: Mobility, cfg: &SweepConfig) -> String {
    format!(
        "robustness grid: {} cells x {} protocols x {} loads x {} replications @ {}",
        fault_grid().len(),
        protocols::all_protocols().len(),
        cfg.loads.len(),
        cfg.replications,
        mobility.label(),
    )
}

/// Run the full robustness preset: every protocol in
/// [`protocols::all_protocols`] across every [`fault_grid`] cell and every
/// `cfg.loads` level, with `cfg.faults` ignored in favour of each cell's
/// plan. Returns one [`SweepReport`] whose point labels fold the cell into
/// the mobility column (`"trace/churn=crash,loss=lossy"`).
///
/// `checkpoint` enables crash tolerance: each finished point is appended
/// (and flushed) to the file, and `resume` reloads any compatible previous
/// checkpoint so only missing points are simulated. A resumed run's report
/// aggregates are bit-identical to an uninterrupted run's.
///
/// `inject` is the supervisor's test seam (production callers pass
/// `None`): an [`InjectHook`] called as every replication attempt starts,
/// so tests can make the supervisor itself misbehave on demand — panic on
/// chosen attempts to exercise bounded retry, or sleep past the hard
/// deadline to exercise timeout isolation — while everything else stays
/// the production code path.
pub fn run_robustness(
    mobility: Mobility,
    cfg: &SweepConfig,
    checkpoint: Option<&Path>,
    resume: bool,
    log: &Reporter,
    inject: Option<InjectHook>,
) -> Result<SweepReport, String> {
    let points = grid_point_jobs(mobility, cfg)?;

    let mut done: DoneMap = HashMap::new();
    if resume {
        let path = checkpoint.ok_or("--resume requires --checkpoint PATH")?;
        if path.exists() {
            done = load_checkpoint(path, mobility, cfg)?;
            log.info(format!(
                "resumed {} finished points from {}",
                done.len(),
                path.display()
            ));
        }
    }

    let mut ckpt_file = match checkpoint {
        Some(path) => {
            let fresh = !resume || !path.exists();
            let mut opts = std::fs::OpenOptions::new();
            if fresh {
                opts.write(true).create(true).truncate(true);
            } else {
                opts.append(true);
            }
            let mut f = opts
                .open(path)
                .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
            if fresh {
                writeln!(f, "{}", manifest_line(mobility, cfg))
                    .map_err(|e| format!("checkpoint write failed: {e}"))?;
            }
            Some(f)
        }
        None => None,
    };

    let started = std::time::Instant::now();
    let mut cache = TraceCache::new();
    // Hit/miss counters accumulated across memory-guard cache sheds.
    let mut cache_base = (0u64, 0u64);
    let mut report = SweepReport::new(grid_workload(mobility, cfg));

    let mut cell_started = std::time::Instant::now();
    for (i, gp) in points.iter().enumerate() {
        let key = &gp.key;
        // Phase breakdown of a freshly computed point (None when the
        // point was replayed from a checkpoint): trace preparation vs
        // protocol loop vs report assembly.
        let mut phase_secs = None;
        let (outcomes, attempts, violations) = match done.remove(key) {
            Some((outcomes, attempts)) => (outcomes, attempts, Vec::new()),
            None => {
                // Warm the trace cache for every replication first so
                // the mobility cost is measurable separately from the
                // protocol loop (the job's own lookups then all hit).
                let trace_started = std::time::Instant::now();
                for rep in 0..cfg.replications {
                    let _ = mobility.build_cached(cfg.base_seed, rep as u64, &cache);
                }
                let trace_secs = trace_started.elapsed().as_secs_f64();
                let sim_started = std::time::Instant::now();
                let hook = inject.clone().map(|hook| (hook, key.clone()));
                let out = gp.job.run_hooked(cfg.threads, &cache, hook)?;
                let sim_secs = sim_started.elapsed().as_secs_f64();
                phase_secs = Some((trace_secs, sim_secs));
                if let Some(threshold) = cfg.slow_point_secs {
                    if sim_secs > threshold {
                        log.info(format!(
                            "slow point {key}: simulation phase took {sim_secs:.3}s \
                             (threshold {threshold}s)"
                        ));
                    }
                }
                if out.slow > 0 {
                    log.debug(format!(
                        "{key}: {} replication(s) exceeded the soft deadline",
                        out.slow
                    ));
                }
                if let Some(f) = ckpt_file.as_mut() {
                    writeln!(f, "{}", point_to_line(key, &out.outcomes, &out.attempts))
                        .and_then(|()| f.flush())
                        .map_err(|e| format!("checkpoint write failed: {e}"))?;
                }
                let violations = out
                    .violations
                    .iter()
                    .map(|v| format!("{key} {v}"))
                    .collect();
                (out.outcomes, out.attempts, violations)
            }
        };
        let assemble_started = std::time::Instant::now();
        for v in violations {
            report.record_violation(v);
        }
        let mobility_label = format!("{}/{}", mobility.label(), gp.cell_label);
        record_supervised_point(
            &mut report,
            gp.protocol_name,
            &mobility_label,
            gp.load,
            &outcomes,
            &attempts,
        );
        if let Some((trace_secs, sim_secs)) = phase_secs {
            report.record_point_timing(crate::report::PointTiming {
                trace_secs,
                sim_secs,
                assemble_secs: assemble_started.elapsed().as_secs_f64(),
            });
        }
        if let Some(budget) = cfg.memory_budget_bytes {
            let over = crate::report::current_rss_bytes().is_some_and(|rss| rss > budget);
            if over {
                let (hits, misses) = cache.stats();
                cache_base.0 += hits;
                cache_base.1 += misses;
                cache = TraceCache::new();
                report.memory_degradations += 1;
                log.info(format!(
                    "memory budget exceeded after {key}; trace cache shed, \
                     continuing cache-cold (checkpoint already flushed)"
                ));
            }
        }
        let cell_done = points
            .get(i + 1)
            .map_or(true, |next| next.cell_label != gp.cell_label);
        if cell_done {
            report.record_sweep(
                format!("{} @ {}", gp.cell_label, mobility.label()),
                cell_started.elapsed().as_secs_f64(),
            );
            log.info(format!("cell {} done", gp.cell_label));
            cell_started = std::time::Instant::now();
        }
    }

    let (hits, misses) = cache.stats();
    report.record_cache((cache_base.0 + hits, cache_base.1 + misses));
    report.finish(started.elapsed().as_secs_f64());
    Ok(report)
}

/// Assemble the robustness [`SweepReport`] from per-point outcomes in
/// [`grid_point_jobs`] order — the client-side counterpart of
/// [`run_robustness`]. Workload string, point records, violation
/// formatting and per-cell sweep records all match the local driver, so
/// a report assembled from service-fetched fragments is canonically
/// identical ([`SweepReport::to_canonical_json`]) to a local run's.
///
/// Wall-clock-dependent fields (cell timings, cache counters) are filled
/// with zeros: a client has no meaningful per-cell timing, and the
/// canonical rendering masks them anyway.
pub fn assemble_grid_report(
    mobility: Mobility,
    cfg: &SweepConfig,
    points: &[GridPoint],
    outcomes: &[PointOutcome],
    wall_secs: f64,
) -> SweepReport {
    assert_eq!(
        points.len(),
        outcomes.len(),
        "one outcome per grid point, in grid order"
    );
    let mut report = SweepReport::new(grid_workload(mobility, cfg));
    for (i, (gp, out)) in points.iter().zip(outcomes).enumerate() {
        for v in &out.violations {
            report.record_violation(format!("{} {v}", gp.key));
        }
        let mobility_label = format!("{}/{}", mobility.label(), gp.cell_label);
        record_supervised_point(
            &mut report,
            gp.protocol_name,
            &mobility_label,
            gp.load,
            &out.outcomes,
            &out.attempts,
        );
        let cell_done = points
            .get(i + 1)
            .map_or(true, |next| next.cell_label != gp.cell_label);
        if cell_done {
            report.record_sweep(format!("{} @ {}", gp.cell_label, mobility.label()), 0.0);
        }
    }
    report.record_cache((0, 0));
    report.finish(wall_secs);
    report
}

/// Fold one point's supervised outcomes into the report: metric
/// aggregates cover the completed replications, panicked and timed-out
/// replications each count as a failure, and retries (attempts beyond
/// each replication's first) are summed.
pub fn record_supervised_point(
    report: &mut SweepReport,
    protocol: &str,
    mobility: &str,
    load: u32,
    outcomes: &[RunOutcome],
    attempts: &[u32],
) {
    let ok: Vec<RunMetrics> = outcomes
        .iter()
        .filter_map(|o| match o {
            RunOutcome::Ok(m) => Some(*m),
            _ => None,
        })
        .collect();
    let panics = outcomes
        .iter()
        .filter(|o| matches!(o, RunOutcome::Panicked(_)))
        .count();
    let timed_out = outcomes
        .iter()
        .filter(|o| matches!(o, RunOutcome::TimedOut))
        .count();
    report.record_point(protocol, mobility, load, &ok);
    let point = report
        .points
        .last_mut()
        .expect("record_point pushed a point");
    point.panics = panics;
    point.timed_out = timed_out;
    point.failures += panics + timed_out;
    point.retries = attempts
        .iter()
        .map(|&a| u64::from(a.saturating_sub(1)))
        .sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::point_sim_config;
    use dtn_epidemic::{simulate, Workload};
    use dtn_sim::{SimRng, Threads};

    fn m(seed: u64) -> RunMetrics {
        let trace = Mobility::Interval(2000).build(seed, 0);
        let mut wl = SimRng::new(seed ^ 0xABC);
        let workload = Workload::single_random_flow(5, trace.node_count(), &mut wl);
        let cfg = point_sim_config(
            &protocols::immunity_epidemic(),
            Mobility::Interval(2000),
            &SweepConfig::default(),
        );
        simulate(&trace, &workload, &cfg, SimRng::new(seed))
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        for seed in [1, 2, 99] {
            let metrics = m(seed);
            let token = outcome_to_json(&RunOutcome::Ok(metrics));
            let back = outcome_from_json(&token).unwrap();
            assert_eq!(back, RunOutcome::Ok(metrics), "seed {seed}");
        }
        let panic = RunOutcome::Panicked("boom at rep 3".into());
        assert_eq!(outcome_from_json(&outcome_to_json(&panic)).unwrap(), panic);
        let timeout = RunOutcome::TimedOut;
        assert_eq!(
            outcome_from_json(&outcome_to_json(&timeout)).unwrap(),
            timeout
        );
    }

    #[test]
    fn point_line_round_trips_mixed_outcomes() {
        let outcomes = vec![
            RunOutcome::Ok(m(4)),
            RunOutcome::Panicked("deliberate".to_string()),
            RunOutcome::TimedOut,
            RunOutcome::Ok(m(5)),
            RunOutcome::Panicked("unexpected ']' in input".to_string()),
        ];
        let attempts = vec![1, 3, 2, 1, 2];
        let line = point_to_line("cell|Proto|25", &outcomes, &attempts);
        let (key, back, back_attempts) = point_from_line(&line).unwrap();
        assert_eq!(key, "cell|Proto|25");
        assert_eq!(back, outcomes);
        assert_eq!(back_attempts, attempts);
    }

    #[test]
    fn corrupted_point_line_is_an_error_not_a_panic() {
        for line in [
            "{\"point\":\"k\",\"attempts\":[],\"runs\":[]]}",
            "{\"point\":\"k\",\"attempts\":[1],\"runs\":[}]}",
            "{\"point\":\"k\",\"attempts\":[1],\"runs\":[{\"panic\":\"x]}",
        ] {
            assert!(point_from_line(line).is_err(), "{line} parsed");
        }
    }

    #[test]
    fn memory_guard_degrades_without_changing_results() {
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 1,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let mut tight = cfg.clone();
        tight.memory_budget_bytes = Some(1); // any live process is over this
        let log = Reporter::new(crate::Verbosity::Quiet);
        let clean =
            run_robustness(Mobility::Interval(2000), &cfg, None, false, &log, None).unwrap();
        let degraded =
            run_robustness(Mobility::Interval(2000), &tight, None, false, &log, None).unwrap();
        assert!(degraded.memory_degradations > 0, "guard never fired");
        assert_eq!(clean.points.len(), degraded.points.len());
        for (a, b) in clean.points.iter().zip(&degraded.points) {
            assert_eq!(
                a.delivery_ratio_mean.to_bits(),
                b.delivery_ratio_mean.to_bits(),
                "cache shedding must not change results"
            );
            assert_eq!(a.failures, b.failures);
        }
        // Shedding the cache costs extra trace builds, never correctness.
        assert!(degraded.trace_cache_misses >= clean.trace_cache_misses);
    }

    #[test]
    fn grid_has_six_distinct_cells() {
        let grid = fault_grid();
        assert_eq!(grid.len(), 6);
        let labels: std::collections::HashSet<_> = grid.iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), 6);
        assert!(grid[0].plan.is_none(), "first cell is the clean baseline");
        for c in &grid {
            c.plan.validate().unwrap();
        }
    }

    #[test]
    fn assembled_report_is_canonically_identical_to_local_run() {
        // The service client's path: enumerate jobs, run each in
        // isolation, reassemble — must match the local driver
        // canonically (wall-clock and cache counters masked).
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 1,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let log = Reporter::new(crate::Verbosity::Quiet);
        let local =
            run_robustness(Mobility::Interval(2000), &cfg, None, false, &log, None).unwrap();

        let points = grid_point_jobs(Mobility::Interval(2000), &cfg).unwrap();
        let cache = TraceCache::new();
        let outcomes: Vec<PointOutcome> = points
            .iter()
            .map(|gp| gp.job.run(Threads::Sequential, &cache).unwrap())
            .collect();
        let assembled =
            assemble_grid_report(Mobility::Interval(2000), &cfg, &points, &outcomes, 0.0);
        assert_eq!(
            local.to_canonical_json(),
            assembled.to_canonical_json(),
            "assembled report diverged from the local driver"
        );
    }

    #[test]
    fn checkpoint_resume_reproduces_the_fresh_report() {
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 2,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let log = Reporter::new(crate::Verbosity::Quiet);
        let dir = std::env::temp_dir().join(format!("robustness_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("grid.ckpt");

        let fresh = run_robustness(
            Mobility::Interval(2000),
            &cfg,
            Some(&ckpt),
            false,
            &log,
            None,
        )
        .unwrap();
        // Drop the last few checkpoint lines to fake an interrupted run.
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let keep: Vec<&str> = text.lines().take(text.lines().count() - 3).collect();
        std::fs::write(&ckpt, format!("{}\n", keep.join("\n"))).unwrap();

        let resumed = run_robustness(
            Mobility::Interval(2000),
            &cfg,
            Some(&ckpt),
            true,
            &log,
            None,
        )
        .unwrap();
        assert_eq!(fresh.points.len(), resumed.points.len());
        for (a, b) in fresh.points.iter().zip(&resumed.points) {
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.mobility, b.mobility);
            assert_eq!(a.load, b.load);
            assert_eq!(
                a.delivery_ratio_mean.to_bits(),
                b.delivery_ratio_mean.to_bits()
            );
            assert_eq!(a.failures, b.failures);
            assert_eq!(a.contacts_skipped, b.contacts_skipped);
            assert_eq!(a.sessions_truncated, b.sessions_truncated);
            assert_eq!(a.ack_losses, b.ack_losses);
            assert_eq!(a.churn_wipes, b.churn_wipes);
        }
        // A fully-complete checkpoint resumes without re-simulating.
        let resumed2 = run_robustness(
            Mobility::Interval(2000),
            &cfg,
            Some(&ckpt),
            true,
            &log,
            None,
        )
        .unwrap();
        assert_eq!(resumed2.points.len(), fresh.points.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_mismatch_is_rejected_on_resume() {
        let cfg = SweepConfig {
            loads: vec![5],
            replications: 1,
            threads: Threads::Sequential,
            ..SweepConfig::default()
        };
        let log = Reporter::new(crate::Verbosity::Quiet);
        let dir = std::env::temp_dir().join(format!("robustness_ckpt_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("grid.ckpt");
        std::fs::write(
            &ckpt,
            "{\"ckpt\":\"robustness\",\"mobility\":\"interval(2000s)\",\"base_seed\":999,\
             \"replications\":1,\"loads\":[5]}\n",
        )
        .unwrap();
        let err = run_robustness(
            Mobility::Interval(2000),
            &cfg,
            Some(&ckpt),
            true,
            &log,
            None,
        )
        .expect_err("mismatched manifest must be rejected");
        assert!(err.contains("mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
