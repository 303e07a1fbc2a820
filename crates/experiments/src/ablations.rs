//! Ablation studies: one policy axis varied at a time.
//!
//! Section IV of the paper names the parameter grids it explored — P and
//! Q in {0.1, 0.5, 1}, fixed TTLs of 50–200 s plus the 300 s evaluation
//! default — and DESIGN.md records the reproduction decisions this
//! repository had to make (the full-buffer rule, the EC threshold, the
//! immunity-record buffer cost). Each driver here isolates one of those
//! axes and reports the paper's metrics across it, so every choice's
//! sensitivity is measurable rather than asserted. `repro ablations`
//! regenerates all of them.

use crate::output::TextTable;
use crate::runner::{
    aggregate_point_checked, replication_streams, run_sweep, ReplicationPlan, SweepConfig,
    SweepResult, Traces,
};
use crate::scenarios::Mobility;
use dtn_epidemic::{
    protocols, EvictionPolicy, LifetimePolicy, NullProbe, ProtocolConfig, RunMetrics, SimConfig,
};
use dtn_mobility::{TraceCache, TraceSummary};
use dtn_sim::{SimDuration, SimRng, Watchdog};

fn metric_row(label: String, sweep: &SweepResult) -> Vec<String> {
    let pct = |x: f64| format!("{:.1}", 100.0 * x);
    let delay = {
        let delays: Vec<f64> = sweep
            .points
            .iter()
            .filter(|p| p.delay_s.n > 0)
            .map(|p| p.delay_s.mean)
            .collect();
        if delays.is_empty() {
            "-".to_string()
        } else {
            format!("{:.0}", delays.iter().sum::<f64>() / delays.len() as f64)
        }
    };
    vec![
        label,
        pct(sweep.grand_mean(|p| p.delivery_ratio.mean)),
        delay,
        pct(sweep.grand_mean(|p| p.buffer_occupancy.mean)),
        pct(sweep.grand_mean(|p| p.duplication_rate.mean)),
        format!("{:.0}", sweep.grand_mean(|p| p.transmissions.mean)),
    ]
}

fn metric_headers(axis: &str) -> Vec<String> {
    vec![
        axis.into(),
        "Delivery %".into(),
        "Delay s".into(),
        "Buffer %".into(),
        "Duplication %".into(),
        "Transmissions".into(),
    ]
}

fn sweep_rows(
    variants: Vec<(String, ProtocolConfig)>,
    mobility: Mobility,
    cfg: &SweepConfig,
) -> Vec<Vec<String>> {
    variants
        .into_iter()
        .map(|(label, protocol)| metric_row(label, &run_sweep(&protocol, mobility, cfg)))
        .collect()
}

/// Fixed-TTL sweep (Section IV's 50/100/150/200 grid plus the 300 s
/// default) on the trace.
pub fn ttl_sweep_table(cfg: &SweepConfig) -> TextTable {
    let variants = [50u64, 100, 150, 200, 300]
        .into_iter()
        .map(|ttl| {
            (
                format!("TTL = {ttl} s"),
                protocols::ttl_epidemic(SimDuration::from_secs(ttl)),
            )
        })
        .collect();
    TextTable {
        id: "ablation_ttl",
        title: "Fixed-TTL sensitivity on the trace (Section IV grid)".into(),
        headers: metric_headers("TTL"),
        rows: sweep_rows(variants, Mobility::Trace, cfg),
    }
}

/// P–Q grid (Section IV: 0.1, 0.5, 1) on the trace.
pub fn pq_sweep_table(cfg: &SweepConfig) -> TextTable {
    let grid = [0.1, 0.5, 1.0];
    let variants = grid
        .into_iter()
        .flat_map(|p| {
            grid.into_iter()
                .map(move |q| (format!("P={p}, Q={q}"), protocols::pq_epidemic(p, q)))
        })
        .collect();
    TextTable {
        id: "ablation_pq",
        title: "P-Q transmission-probability grid on the trace".into(),
        headers: metric_headers("P, Q"),
        rows: sweep_rows(variants, Mobility::Trace, cfg),
    }
}

/// Full-buffer rule ablation — the reproduction decision DESIGN.md
/// documents (the paper never states the rule for non-EC protocols).
pub fn eviction_table(cfg: &SweepConfig) -> TextTable {
    let variants = [
        ("reject new", EvictionPolicy::RejectNew),
        ("drop oldest", EvictionPolicy::DropOldest),
        ("highest EC", EvictionPolicy::HighestEc),
        (
            "highest EC (min 8)",
            EvictionPolicy::HighestEcMin { min_ec: 8 },
        ),
    ]
    .into_iter()
    .map(|(label, eviction)| {
        let mut protocol = protocols::pure_epidemic();
        protocol.eviction = eviction;
        (label.to_string(), protocol)
    })
    .collect();
    TextTable {
        id: "ablation_eviction",
        title: "Full-buffer rule under pure epidemic on the trace".into(),
        headers: metric_headers("Eviction"),
        rows: sweep_rows(variants, Mobility::Trace, cfg),
    }
}

/// EC+TTL threshold sensitivity (Algorithm 2 fixes 8) on the RWP model.
pub fn ec_threshold_table(cfg: &SweepConfig) -> TextTable {
    let variants = [2u32, 4, 8, 16, 32]
        .into_iter()
        .map(|threshold| {
            let mut protocol = protocols::ec_ttl_epidemic();
            protocol.lifetime = LifetimePolicy::EcTtl {
                threshold,
                base: SimDuration::from_secs(300),
                decay: SimDuration::from_secs(100),
            };
            protocol.eviction = EvictionPolicy::HighestEcMin { min_ec: threshold };
            (format!("threshold = {threshold}"), protocol)
        })
        .collect();
    TextTable {
        id: "ablation_ec_threshold",
        title: "EC+TTL threshold sensitivity under RWP".into(),
        headers: metric_headers("EC threshold"),
        rows: sweep_rows(variants, Mobility::Rwp, cfg),
    }
}

/// Dynamic-TTL multiplier sensitivity (Algorithm 1 fixes 2.0) on the
/// trace.
pub fn dynttl_multiplier_table(cfg: &SweepConfig) -> TextTable {
    let variants = [0.5, 1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|multiplier| {
            let mut protocol = protocols::dynamic_ttl_epidemic();
            protocol.lifetime = LifetimePolicy::DynamicTtl { multiplier };
            (format!("multiplier = {multiplier}"), protocol)
        })
        .collect();
    TextTable {
        id: "ablation_dynttl",
        title: "Dynamic-TTL interval-multiplier sensitivity on the trace".into(),
        headers: metric_headers("Multiplier"),
        rows: sweep_rows(variants, Mobility::Trace, cfg),
    }
}

/// Mobility-model comparison: the statistical anatomy of each contact
/// source plus one protocol's outcome on it — including the classic
/// geometric RWP the paper avoids (its reference \[19\]'s pathologies).
pub fn mobility_table(cfg: &SweepConfig) -> TextTable {
    let mut rows = Vec::new();
    for mobility in [
        Mobility::Trace,
        Mobility::Rwp,
        Mobility::GeometricRwp,
        Mobility::Interval(400),
        Mobility::Interval(2000),
    ] {
        let trace = mobility.build(cfg.base_seed, 0);
        let summary = TraceSummary::of(&trace);
        let sweep = run_sweep(&protocols::immunity_epidemic(), mobility, cfg);
        rows.push(vec![
            mobility.label(),
            format!("{}", summary.contacts),
            format!("{:.0}", summary.mean_duration_s),
            format!("{:.0}", summary.mean_pair_gap_s),
            format!("{:.0}", 100.0 * summary.pair_gaps_over_1h),
            summary
                .gap_tail_exponent
                .map(|a| format!("{a:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", 100.0 * sweep.grand_mean(|p| p.delivery_ratio.mean)),
        ]);
    }
    TextTable {
        id: "mobility_models",
        title: "Contact anatomy of every mobility source (+ immunity-protocol delivery)".into(),
        headers: vec![
            "Scenario".into(),
            "Contacts".into(),
            "Mean dur s".into(),
            "Mean gap s".into(),
            "Gaps>1h %".into(),
            "Tail α".into(),
            "Delivery %".into(),
        ],
        rows,
    }
}

/// Transfer-loss sensitivity: epidemic redundancy vs lossy links (the
/// paper assumes loss-free links; this probes how much that assumption
/// carries).
pub fn loss_table(cfg: &SweepConfig) -> TextTable {
    let mut rows = Vec::new();
    let cache = TraceCache::new();
    for loss in [0.0, 0.1, 0.25, 0.5, 0.75] {
        // The study's own root (not the sweep's per-load one), shared by
        // every loss level so the runs pair up across rows.
        let plan = ReplicationPlan {
            root: SimRng::new(cfg.base_seed ^ 0x1055),
            load: 25,
            replications: cfg.replications,
            traces: Traces::Scenario {
                mobility: Mobility::Trace,
                seed: cfg.base_seed,
                cache: cache.clone(),
            },
            config: SimConfig {
                transfer_loss_prob: loss,
                ..SimConfig::paper_defaults(protocols::pure_epidemic())
            },
        };
        let runs: Vec<Result<RunMetrics, String>> = plan
            .run(
                cfg.threads,
                Watchdog::new(cfg.retries, cfg.point_timeout_secs),
                |_| NullProbe,
            )
            .into_iter()
            .map(|o| o.into_result().map(|(m, _)| m))
            .collect();
        let point = aggregate_point_checked(25, &runs);
        rows.push(vec![
            format!("loss = {loss}"),
            format!("{:.1}", 100.0 * point.delivery_ratio.mean),
            format!("{:.0}", point.transmissions.mean),
        ]);
    }
    TextTable {
        id: "ablation_loss",
        title: "Transfer-loss sensitivity of pure epidemic on the trace (load 25)".into(),
        headers: vec![
            "Loss probability".into(),
            "Delivery %".into(),
            "Transmissions".into(),
        ],
        rows,
    }
}

/// Ack-propagation ablation: epidemic vs destination-only dissemination
/// of immunity knowledge — the two readings the paper's §II-B and §III
/// give (DESIGN.md §4).
pub fn ack_propagation_table(cfg: &SweepConfig) -> TextTable {
    let mut rows = Vec::new();
    for (scheme_name, base) in [
        ("per-bundle", protocols::immunity_epidemic()),
        ("cumulative", protocols::cumulative_immunity_epidemic()),
    ] {
        for (prop_name, propagation) in [
            ("epidemic", dtn_epidemic::AckPropagation::Epidemic),
            (
                "destination-only",
                dtn_epidemic::AckPropagation::DestinationOnly,
            ),
        ] {
            let mut protocol = base.clone();
            protocol.ack_propagation = propagation;
            let sweep = run_sweep(&protocol, Mobility::Trace, cfg);
            rows.push(vec![
                format!("{scheme_name} / {prop_name}"),
                format!("{:.1}", 100.0 * sweep.grand_mean(|p| p.delivery_ratio.mean)),
                format!(
                    "{:.1}",
                    100.0 * sweep.grand_mean(|p| p.buffer_occupancy.mean)
                ),
                format!("{:.0}", sweep.grand_mean(|p| p.ack_records.mean)),
            ]);
        }
    }
    TextTable {
        id: "ablation_ack_propagation",
        title: "Immunity-table dissemination mode on the trace".into(),
        headers: vec![
            "Scheme / propagation".into(),
            "Delivery %".into(),
            "Buffer %".into(),
            "Ack records".into(),
        ],
        rows,
    }
}

/// Steady-state traffic: protocols under Poisson flow arrivals instead of
/// the paper's everything-at-t-0 burst — the operating regime a deployed
/// DTN actually sees.
pub fn steady_state_table(cfg: &SweepConfig) -> TextTable {
    let mut rows = Vec::new();
    for (name, protocol) in [
        ("Pure epidemic", protocols::pure_epidemic()),
        (
            "Epidemic with dynamic TTL",
            protocols::dynamic_ttl_epidemic(),
        ),
        ("Epidemic with EC+TTL", protocols::ec_ttl_epidemic()),
        ("Epidemic with immunity", protocols::immunity_epidemic()),
        (
            "Epidemic with cumulative immunity",
            protocols::cumulative_immunity_epidemic(),
        ),
    ] {
        // A multi-flow workload, so this study keeps its own loop over
        // the shared replication streams instead of a `ReplicationPlan`.
        let mut runs = Vec::new();
        let root = SimRng::new(cfg.base_seed ^ 0x57EA);
        for rep in 0..cfg.replications {
            let trace = Mobility::Trace.build(cfg.base_seed, rep as u64);
            let (mut wl_rng, sim_rng) = replication_streams(&root, rep, 0);
            // One 4-bundle flow arriving every ~30 000 s on average over
            // the first 80 % of the horizon.
            let workload = dtn_epidemic::Workload::poisson_flows(
                1.0 / 30_000.0,
                dtn_sim::SimTime::from_secs(420_000),
                4,
                trace.node_count(),
                &mut wl_rng,
            );
            let config = SimConfig::paper_defaults(protocol.clone());
            runs.push(dtn_epidemic::simulate(&trace, &workload, &config, sim_rng));
        }
        let point = crate::runner::aggregate_point(0, &runs);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", 100.0 * point.delivery_ratio.mean),
            format!("{:.1}", 100.0 * point.buffer_occupancy.mean),
            format!("{:.1}", 100.0 * point.duplication_rate.mean),
            format!("{:.0}", point.ack_records.mean),
        ]);
    }
    TextTable {
        id: "steady_state",
        title: "Steady-state Poisson traffic on the trace (multi-flow extension)".into(),
        headers: vec![
            "Protocol".into(),
            "Delivery %".into(),
            "Buffer %".into(),
            "Duplication %".into(),
            "Ack records".into(),
        ],
        rows,
    }
}

/// Every ablation table.
pub fn all_ablations(cfg: &SweepConfig) -> Vec<TextTable> {
    vec![
        ttl_sweep_table(cfg),
        pq_sweep_table(cfg),
        eviction_table(cfg),
        ec_threshold_table(cfg),
        dynttl_multiplier_table(cfg),
        loss_table(cfg),
        ack_propagation_table(cfg),
        steady_state_table(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::Threads;

    fn smoke() -> SweepConfig {
        SweepConfig {
            loads: vec![20],
            replications: 2,
            threads: Threads::Auto,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn every_ablation_produces_well_formed_rows() {
        for table in all_ablations(&smoke()) {
            assert!(!table.rows.is_empty(), "{} empty", table.id);
            for row in &table.rows {
                assert_eq!(row.len(), table.headers.len(), "{} ragged", table.id);
            }
        }
    }

    #[test]
    fn ttl_sweep_longer_ttl_not_worse() {
        // Longer constant TTLs keep copies longer; delivery must be
        // non-decreasing (modulo noise) from 50 s to 300 s.
        let t = ttl_sweep_table(&smoke());
        let first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(
            last >= first - 5.0,
            "TTL 300 delivery ({last}) should not trail TTL 50 ({first})"
        );
    }

    #[test]
    fn pq_grid_has_nine_cells() {
        assert_eq!(pq_sweep_table(&smoke()).rows.len(), 9);
    }

    #[test]
    fn loss_table_shows_monotone_degradation() {
        let t = loss_table(&smoke());
        let first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(last <= first, "75% loss should not beat loss-free");
    }

    #[test]
    fn ack_propagation_table_has_four_rows() {
        let t = ack_propagation_table(&smoke());
        assert_eq!(t.rows.len(), 4);
        // Destination-only sends fewer ack records than epidemic for the
        // same scheme.
        let epi: f64 = t.rows[0][3].parse().unwrap();
        let dst: f64 = t.rows[1][3].parse().unwrap();
        assert!(dst <= epi, "dest-only {dst} vs epidemic {epi}");
    }

    #[test]
    fn steady_state_table_runs_all_protocols() {
        let t = steady_state_table(&smoke());
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let delivery: f64 = row[1].parse().unwrap();
            assert!((0.0..=100.0).contains(&delivery));
        }
    }

    #[test]
    fn mobility_table_covers_all_sources() {
        let t = mobility_table(&smoke());
        assert_eq!(t.rows.len(), 5);
        let labels: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(labels.contains(&"geom-rwp"));
    }
}
