//! Fault-injection guarantees, end to end:
//!
//! 1. **Zero-rate plans are free** — a `FaultPlan` whose every rate is
//!    zero (even with an all-zero Gilbert–Elliott channel attached)
//!    produces metrics bit-identical to no plan at all, so the fault
//!    layer cannot silently perturb the paper's clean-channel results.
//! 2. **Monotonicity** — delivery ratio is statistically non-increasing
//!    in channel loss.
//! 3. **Thread invariance** — a faulted point is bit-identical across
//!    `Sequential`, `Fixed(2)` and `Auto` scheduling.
//! 4. **Panic isolation** — one deliberately panicking replication is
//!    recorded as a failure; the others survive.

use std::num::NonZeroUsize;

use dtn_epidemic::{
    protocols, simulate, ChurnMode, ChurnPlan, FaultPlan, GilbertElliott, NullProbe, RunMetrics,
    Workload,
};
use dtn_experiments::runner::{
    aggregate_point_checked, point_sim_config, run_point, run_point_checked_cached,
};
use dtn_experiments::{Mobility, SweepConfig, TraceCache};
use dtn_sim::{SimRng, Threads};

/// Every replication's metrics at one point (all must succeed).
fn plain_point(
    protocol: &dtn_epidemic::ProtocolConfig,
    mobility: Mobility,
    load: u32,
    cfg: &SweepConfig,
    cache: &TraceCache,
) -> Vec<RunMetrics> {
    run_point_checked_cached(protocol, mobility, load, cfg, cache)
        .into_iter()
        .map(Result::unwrap)
        .collect()
}

fn aggressive_plan() -> FaultPlan {
    FaultPlan {
        truncation_prob: 0.4,
        ack_loss_prob: 0.4,
        burst: Some(GilbertElliott {
            loss_good: 0.05,
            loss_bad: 0.7,
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
        }),
        churn: Some(ChurnPlan {
            mean_up_secs: 20_000.0,
            mean_down_secs: 10_000.0,
            mode: ChurnMode::Crash,
        }),
    }
}

fn cfg_with(faults: FaultPlan, threads: Threads) -> SweepConfig {
    SweepConfig {
        loads: vec![10],
        replications: 4,
        threads,
        faults,
        ..SweepConfig::default()
    }
}

/// Property 1: an all-zero plan — including a present-but-inert GE
/// channel — leaves every metric bit-identical to the default (no-plan)
/// configuration, for every protocol family.
#[test]
fn zero_rate_plan_is_bit_identical_to_no_plan() {
    let zero_plan = FaultPlan {
        truncation_prob: 0.0,
        ack_loss_prob: 0.0,
        burst: Some(GilbertElliott {
            loss_good: 0.0,
            loss_bad: 0.0,
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
        }),
        churn: None,
    };
    let cache = TraceCache::new();
    for protocol in protocols::all_protocols() {
        let name = protocol.name;
        let clean = cfg_with(FaultPlan::default(), Threads::Sequential);
        let zeroed = cfg_with(zero_plan.clone(), Threads::Sequential);
        let a = plain_point(&protocol, Mobility::Trace, 10, &clean, &cache);
        let b = plain_point(&protocol, Mobility::Trace, 10, &zeroed, &cache);
        assert_eq!(a, b, "zero-rate plan perturbed {name}");
    }
}

/// Property 2: delivery ratio is non-increasing in i.i.d. loss, judged on
/// the mean over several replications (any single pair of seeds can
/// invert, the average must not).
#[test]
fn delivery_is_monotonically_non_increasing_in_loss() {
    let mean_delivery = |loss: f64| {
        let trace = Mobility::Trace.build(31, 0);
        let mut config = point_sim_config(
            &protocols::pure_epidemic(),
            Mobility::Trace,
            &SweepConfig::default(),
        );
        config.transfer_loss_prob = loss;
        let mut total = 0.0;
        let seeds = 24u64;
        for seed in 0..seeds {
            let mut wl_rng = SimRng::new(1000 + seed);
            let workload = Workload::single_random_flow(20, trace.node_count(), &mut wl_rng);
            total += simulate(&trace, &workload, &config, SimRng::new(seed)).delivery_ratio;
        }
        total / seeds as f64
    };
    let clean = mean_delivery(0.0);
    let noisy = mean_delivery(0.3);
    let hostile = mean_delivery(0.7);
    // Adjacent levels get a small sampling-noise allowance (the loss
    // draws shift the whole RNG stream, so runs aren't paired); the
    // extreme comparison must be a clear, strict drop.
    assert!(
        clean >= noisy - 0.05 && noisy >= hostile - 0.05,
        "delivery not monotone: {clean} vs {noisy} vs {hostile}"
    );
    assert!(
        clean > hostile + 0.05,
        "70% loss should visibly hurt delivery: {clean} vs {hostile}"
    );
}

/// Property 3: the same faulted point is bit-identical no matter how its
/// replications are scheduled across threads.
#[test]
fn faulted_point_is_thread_invariant() {
    let cache = TraceCache::new();
    let runs = |threads| {
        let cfg = cfg_with(aggressive_plan(), threads);
        plain_point(
            &protocols::immunity_epidemic(),
            Mobility::Trace,
            10,
            &cfg,
            &cache,
        )
    };
    let sequential = runs(Threads::Sequential);
    for threads in [Threads::Fixed(NonZeroUsize::new(2).unwrap()), Threads::Auto] {
        assert_eq!(
            sequential,
            runs(threads),
            "faulted point diverged under {threads:?}"
        );
    }
}

/// The aggressive preset actually exercises every fault channel: the new
/// counters are nonzero, so the earlier properties aren't passing
/// vacuously.
#[test]
fn aggressive_plan_trips_every_fault_counter() {
    let cache = TraceCache::new();
    let cfg = cfg_with(aggressive_plan(), Threads::Sequential);
    let runs = plain_point(
        &protocols::immunity_epidemic(),
        Mobility::Trace,
        10,
        &cfg,
        &cache,
    );
    let sum = |f: fn(&dtn_epidemic::RunMetrics) -> u64| runs.iter().map(f).sum::<u64>();
    assert!(sum(|m| m.contacts_skipped) > 0, "no contacts skipped");
    assert!(sum(|m| m.sessions_truncated) > 0, "no sessions truncated");
    assert!(sum(|m| m.ack_losses) > 0, "no ack losses");
    assert!(sum(|m| m.churn_wipes) > 0, "no churn wipes");
    assert!(sum(|m| m.transfer_losses) > 0, "no bursty transfer losses");
}

/// Acceptance criterion: a sweep point with one deliberately panicking
/// replication completes, records the panic in `PointResult` (as both a
/// panic and a failure), and keeps the three surviving results.
#[test]
fn panicking_replication_is_isolated_and_recorded() {
    let cache = TraceCache::new();
    let cfg = cfg_with(FaultPlan::default(), Threads::Auto);
    let outcomes: Vec<Result<RunMetrics, String>> = run_point(
        &protocols::pure_epidemic(),
        Mobility::Trace,
        10,
        &cfg,
        &cache,
        |r| {
            if r.rep == 1 {
                panic!("deliberate test panic in replication {}", r.rep);
            }
            NullProbe
        },
    )
    .into_iter()
    .map(|o| o.into_result().map(|(m, _)| m))
    .collect();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[1]
        .as_ref()
        .is_err_and(|e| e.contains("deliberate test panic")));
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 3);

    let point = aggregate_point_checked(10, &outcomes);
    assert_eq!(point.panics, 1);
    assert!(point.failures >= 1, "the panic counts as a failure");
    assert_eq!(point.delivery_ratio.n, 3, "survivors were aggregated");

    // And the surviving replications are bit-identical to a panic-free
    // run of the same point.
    let clean = plain_point(
        &protocols::pure_epidemic(),
        Mobility::Trace,
        10,
        &cfg,
        &cache,
    );
    for (i, o) in outcomes.iter().enumerate() {
        if let Ok(m) = o {
            assert_eq!(m, &clean[i], "survivor {i} diverged from the clean run");
        }
    }
}
