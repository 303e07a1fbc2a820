//! Differential oracle suite: the deliberately naive scalar reference
//! simulator must agree **bit-for-bit** with the optimized engine on
//! randomized small scenarios, for every protocol family, with and
//! without fault injection.
//!
//! The engine's summary vectors are bitsets, its buffers are indexed,
//! its immunity tables are merged incrementally; the oracle recomputes
//! everything from scalar first principles each session. Any divergence
//! in `RunMetrics` therefore localizes a bug to one of the optimized
//! structures (or to the oracle's reading of the paper — either way a
//! finding).

use dtn_epidemic::{
    protocols, simulate, simulate_oracle, ChurnMode, ChurnPlan, FaultPlan, GilbertElliott,
    SimConfig, Workload,
};
use dtn_mobility::{Contact, ContactTrace, NodeId};
use dtn_sim::{SimDuration, SimRng, SimTime};

/// Scenarios per fault arm. The issue's acceptance floor is 20; we run a
/// few extra because small traces are cheap for both simulators.
const SCENARIOS: u64 = 24;

/// Build a small random trace: 5–8 nodes, a 40 000–80 000 s horizon, and
/// 12–40 random contacts of 200–2 000 s each. Short enough that the
/// oracle's quadratic bookkeeping is instant, long enough that multi-hop
/// relaying, TTL expiry (default 300 s bundles under `ttl_epidemic`) and
/// buffer contention all occur.
fn random_trace(rng: &mut SimRng) -> ContactTrace {
    let nodes = 5 + rng.below(4) as u16;
    let horizon_secs = 40_000 + rng.below(40_001);
    let contact_count = 12 + rng.below(29);
    let mut contacts = Vec::new();
    for _ in 0..contact_count {
        let a = rng.below(u64::from(nodes)) as u16;
        let mut b = rng.below(u64::from(nodes)) as u16;
        while b == a {
            b = rng.below(u64::from(nodes)) as u16;
        }
        let start = rng.below(horizon_secs - 2_000);
        let duration = 200 + rng.below(1_801);
        contacts.push(Contact::new(
            NodeId(a),
            NodeId(b),
            SimTime::from_secs(start),
            SimTime::from_secs(start + duration),
        ));
    }
    ContactTrace::new(nodes as usize, SimTime::from_secs(horizon_secs), contacts)
        .expect("random trace construction obeys the invariants")
}

/// An aggressive plan exercising every fault channel at once, so the
/// differential check covers the injector's interleaving with sessions.
fn faulted_plan() -> FaultPlan {
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

/// Assert engine/oracle equality on one scenario for all eight paper
/// protocols plus the Bloom summary-exchange family, each configured by
/// `tweak` on top of the paper defaults. Both simulators receive clones
/// of the *same* RNG so their draw sequences are directly comparable.
fn assert_oracle_agrees(
    trace: &ContactTrace,
    workload: &Workload,
    setup: &SimRng,
    tweak: impl Fn(&mut SimConfig),
    what: &str,
) {
    for protocol in protocols::all_protocols()
        .into_iter()
        .chain(protocols::bloom_protocols())
    {
        let name = protocol.name;
        let mut config = SimConfig::paper_defaults(protocol);
        tweak(&mut config);
        let sim_rng = setup.derive(2);
        let engine = simulate(trace, workload, &config, sim_rng.clone());
        let oracle = simulate_oracle(trace, workload, &config, sim_rng);
        assert_eq!(
            engine, oracle,
            "oracle diverged from engine: {what}, protocol {name}"
        );
    }
}

/// Run `SCENARIOS` randomized scenarios under one fault plan.
fn differential_sweep(plan: FaultPlan, transfer_loss: f64, tag: &str) {
    for scenario in 0..SCENARIOS {
        let mut setup = SimRng::new(0xD1FF ^ (scenario << 8));
        let trace = random_trace(&mut setup);
        let load = 3 + setup.below(8) as u32;
        let mut wl_rng = setup.derive(1);
        let workload = Workload::single_random_flow(load, trace.node_count(), &mut wl_rng);
        let tweak = |config: &mut SimConfig| {
            config.faults = plan.clone();
            config.transfer_loss_prob = transfer_loss;
        };
        let what = format!("scenario {scenario} ({tag})");
        assert_oracle_agrees(&trace, &workload, &setup, tweak, &what);
    }
}

/// Scenarios per fault arm of [`multi_word_sweep`]; each runs three loads.
const MULTI_WORD_SCENARIOS: u64 = 2;

/// Loads past one 64-bit summary word (65), past two (130) and past the
/// 512-bit inline block (600), so the engine's multi-word possession
/// bitsets meet the oracle's flat scans. Transmissions take 2 s, so one
/// contact carries hundreds of bundles, and relay buffers hold half the
/// load, so eviction still bites.
fn multi_word_sweep(plan: FaultPlan, tag: &str) {
    for scenario in 0..MULTI_WORD_SCENARIOS {
        let mut setup = SimRng::new(0x3A11 ^ (scenario << 8));
        let trace = random_trace(&mut setup);
        for load in [65u32, 130, 600] {
            let mut wl_rng = setup.derive(u64::from(load));
            let workload = Workload::single_random_flow(load, trace.node_count(), &mut wl_rng);
            let tweak = |config: &mut SimConfig| {
                config.faults = plan.clone();
                config.tx_time = SimDuration::from_secs(2);
                config.buffer_capacity = load as usize / 2;
            };
            let what = format!("scenario {scenario} load {load} ({tag})");
            assert_oracle_agrees(&trace, &workload, &setup, tweak, &what);
        }
    }
}

/// Clean channel: the pure data-path structures (summary vectors,
/// buffers, immunity tables, TTL policies) agree on every scenario.
#[test]
fn oracle_matches_engine_on_clean_random_scenarios() {
    differential_sweep(FaultPlan::default(), 0.0, "clean");
}

/// Full fault plan: truncation, ack loss, bursty loss and crash churn
/// interleave identically in both simulators.
#[test]
fn oracle_matches_engine_under_aggressive_faults() {
    differential_sweep(faulted_plan(), 0.0, "faulted");
}

/// Summary vectors spanning several words and spilling past the inline
/// block agree with the oracle on a clean channel.
#[test]
fn oracle_matches_engine_past_one_summary_word() {
    multi_word_sweep(FaultPlan::default(), "clean");
}

/// The same multi-word loads under the full fault plan.
#[test]
fn oracle_matches_engine_past_one_summary_word_under_faults() {
    multi_word_sweep(faulted_plan(), "faulted");
}

/// I.i.d. transfer loss layered on top of the fault plan: the loss draw
/// ordering inside a session is part of the contract too.
#[test]
fn oracle_matches_engine_with_transfer_loss_and_faults() {
    differential_sweep(faulted_plan(), 0.1, "faulted+loss");
}

/// Degenerate shapes the random generator is unlikely to hit: a
/// contact-free trace (nothing can be delivered) and a two-node trace
/// with one long contact (everything deliverable in one session).
#[test]
fn oracle_matches_engine_on_degenerate_traces() {
    let empty = ContactTrace::new(4, SimTime::from_secs(10_000), Vec::new()).unwrap();
    let pair = ContactTrace::new(
        2,
        SimTime::from_secs(10_000),
        vec![Contact::new(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(100),
            SimTime::from_secs(5_100),
        )],
    )
    .unwrap();
    for trace in [&empty, &pair] {
        let mut wl_rng = SimRng::new(77);
        let workload = Workload::single_random_flow(4, trace.node_count(), &mut wl_rng);
        for protocol in protocols::all_protocols()
            .into_iter()
            .chain(protocols::bloom_protocols())
        {
            let name = protocol.name;
            let config = SimConfig::paper_defaults(protocol);
            let engine = simulate(trace, &workload, &config, SimRng::new(3));
            let oracle = simulate_oracle(trace, &workload, &config, SimRng::new(3));
            assert_eq!(engine, oracle, "degenerate trace diverged under {name}");
        }
    }
}
