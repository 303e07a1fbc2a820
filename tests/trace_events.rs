//! Event-stream fidelity: the typed probe events are a *complete* record
//! of a run, and capturing them perturbs nothing.
//!
//! Two properties anchor the telemetry layer:
//!
//! 1. **Replay bit-equality** — folding a captured event stream back
//!    through [`replay_metrics`] reconstructs the run's [`RunMetrics`]
//!    exactly (`PartialEq` over every counter and time-weighted average,
//!    i.e. float bits included). An event variant that under- or
//!    over-reports any collector mutation fails this.
//! 2. **Thread-policy byte-determinism** — the concatenated JSONL capture
//!    of a multi-replication point is byte-identical under `Sequential`,
//!    `Fixed(2)` and `Auto` scheduling, so traces are diffable artifacts.

use std::num::NonZeroUsize;

use dtn_epidemic::{
    protocols, replay_jsonl, replay_metrics, simulate, simulate_probed, ChurnMode, ChurnPlan,
    Event, FaultPlan, GilbertElliott, MemoryProbe, SimConfig, Workload,
};
use dtn_experiments::{run_point, Mobility, SweepConfig, TraceCache};
use dtn_sim::{SimRng, Threads};

fn scenario_config(protocol: dtn_epidemic::ProtocolConfig) -> SimConfig {
    SimConfig {
        transfer_loss_prob: 0.05,
        ..SimConfig::paper_defaults(protocol)
    }
}

/// An aggressive everything-on fault preset: crash churn, bursty loss,
/// session truncation and anti-packet loss all active at once.
fn faulty_config(protocol: dtn_epidemic::ProtocolConfig) -> SimConfig {
    let mut config = scenario_config(protocol);
    config.faults = FaultPlan {
        truncation_prob: 0.5,
        ack_loss_prob: 0.5,
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
    };
    config
}

/// Every protocol family, run with a capturing probe: the captured stream
/// must replay to the exact `RunMetrics` the live collector produced.
#[test]
fn captured_events_replay_to_bit_identical_metrics() {
    for protocol in protocols::all_protocols() {
        let name = protocol.name;
        let config = scenario_config(protocol);
        let trace = Mobility::Trace.build(7, 0);
        let mut wl_rng = SimRng::new(11);
        let workload = Workload::single_random_flow(20, trace.node_count(), &mut wl_rng);

        let mut probe = MemoryProbe::default();
        let live = simulate_probed(&trace, &workload, &config, SimRng::new(42), &mut probe);
        let replayed = replay_metrics(
            probe.events.iter().copied(),
            &workload,
            &config,
            trace.node_count(),
            live.end_time,
        );
        assert_eq!(live, replayed, "replay diverged for {name}");

        // And the un-probed run is unperturbed by the capture.
        let plain = simulate(&trace, &workload, &config, SimRng::new(42));
        assert_eq!(live, plain, "probe perturbed the simulation for {name}");
    }
}

/// The JSONL serialization loses nothing: parse the text stream back and
/// replay it to the same metrics.
#[test]
fn jsonl_round_trip_replays_to_bit_identical_metrics() {
    let config = scenario_config(protocols::immunity_epidemic());
    let trace = Mobility::Rwp.build(3, 1);
    let mut wl_rng = SimRng::new(5);
    let workload = Workload::single_random_flow(15, trace.node_count(), &mut wl_rng);

    let mut probe = dtn_epidemic::JsonlProbe::new();
    let live = simulate_probed(&trace, &workload, &config, SimRng::new(9), &mut probe);
    let jsonl = probe.into_jsonl();
    assert!(!jsonl.is_empty());

    let replayed = replay_jsonl(
        &jsonl,
        &workload,
        &config,
        trace.node_count(),
        live.end_time,
    );
    assert_eq!(live, replayed);
}

/// Fault-injected runs replay just as exactly: with crash churn, bursty
/// loss, truncation and ack loss all active, the fault events must mirror
/// every collector mutation — including the churn wipes' per-copy drops
/// and immunity resets — for both the in-memory and JSONL paths.
#[test]
fn faulted_runs_replay_to_bit_identical_metrics() {
    for protocol in [
        protocols::pure_epidemic(),
        protocols::immunity_epidemic(),
        protocols::cumulative_immunity_epidemic(),
    ] {
        let name = protocol.name;
        let config = faulty_config(protocol);
        let trace = Mobility::Trace.build(13, 0);
        let mut wl_rng = SimRng::new(17);
        let workload = Workload::single_random_flow(20, trace.node_count(), &mut wl_rng);

        let mut probe = MemoryProbe::default();
        let live = simulate_probed(&trace, &workload, &config, SimRng::new(23), &mut probe);
        let fault_events = probe
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::FaultDown { .. }
                        | Event::FaultUp { .. }
                        | Event::ContactSkipped { .. }
                        | Event::SessionTruncated { .. }
                        | Event::AckLost { .. }
                )
            })
            .count();
        assert!(fault_events > 0, "no fault events captured for {name}");
        let replayed = replay_metrics(
            probe.events.iter().copied(),
            &workload,
            &config,
            trace.node_count(),
            live.end_time,
        );
        assert_eq!(live, replayed, "faulted replay diverged for {name}");

        let mut jsonl_probe = dtn_epidemic::JsonlProbe::new();
        let live2 = simulate_probed(
            &trace,
            &workload,
            &config,
            SimRng::new(23),
            &mut jsonl_probe,
        );
        assert_eq!(live, live2, "JSONL probe perturbed the faulted run");
        let replayed2 = replay_jsonl(
            &jsonl_probe.into_jsonl(),
            &workload,
            &config,
            trace.node_count(),
            live.end_time,
        );
        assert_eq!(live, replayed2, "faulted JSONL replay diverged for {name}");
    }
}

/// A multi-replication traced point produces the byte-identical event
/// stream no matter how the replications are scheduled.
#[test]
fn event_stream_is_byte_identical_across_thread_policies() {
    let capture = |threads: Threads| {
        let cfg = SweepConfig {
            loads: vec![10],
            replications: 4,
            threads,
            ..SweepConfig::default()
        };
        let cache = TraceCache::new();
        let runs = run_point(
            &protocols::cumulative_immunity_epidemic(),
            Mobility::Trace,
            10,
            &cfg,
            &cache,
            |_| dtn_epidemic::JsonlProbe::new(),
        );
        runs.into_iter()
            .map(|o| o.value().expect("replication failed").1.into_jsonl())
            .collect::<String>()
    };

    let sequential = capture(Threads::Sequential);
    assert!(!sequential.is_empty());
    for threads in [Threads::Fixed(NonZeroUsize::new(2).unwrap()), Threads::Auto] {
        assert_eq!(
            sequential,
            capture(threads),
            "event stream diverged under {threads:?}"
        );
    }
}
