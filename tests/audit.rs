//! End-to-end audit guarantees:
//!
//! 1. **Clean engine** — a `Strict`-mode [`AuditProbe`] rides along every
//!    protocol family across the whole PR-3 churn × loss fault grid and
//!    never fires (strict mode panics on the first violation, so merely
//!    completing is the assertion), while the audited metrics stay
//!    bit-identical to the un-probed run.
//! 2. **Composability** — the auditor fans out with other probes as a
//!    `(A, B)` pair without stealing their event stream.
//! 3. **Sensitivity** — a deliberately corrupted event stream trips every
//!    [`Violation`] variant at least once, so the clean-engine property
//!    isn't passing vacuously.

use std::mem::discriminant;

use dtn_epidemic::{
    protocols, simulate, simulate_probed, AuditMode, AuditProbe, CountingProbe, DropReason, Event,
    Probe, SimConfig, Violation, Workload,
};
use dtn_experiments::runner::point_sim_config;
use dtn_experiments::{fault_grid, Mobility, SweepConfig};
use dtn_mobility::NodeId;
use dtn_sim::{SimDuration, SimRng};

/// Property 1: the optimized engine upholds every conservation invariant
/// for all eight paper protocols plus the Bloom summary-exchange family
/// in all six fault-grid cells. Auditing must also be a pure observer —
/// metrics with and without the probe agree bit for bit.
#[test]
fn strict_audit_is_clean_for_every_protocol_across_the_fault_grid() {
    let mobility = Mobility::Interval(2000);
    let trace = mobility.build(41, 0);
    for cell in fault_grid() {
        for protocol in protocols::all_protocols()
            .into_iter()
            .chain(protocols::bloom_protocols())
        {
            let name = protocol.name;
            let cfg = SweepConfig {
                faults: cell.plan.clone(),
                ..SweepConfig::default()
            };
            let config = point_sim_config(&protocol, mobility, &cfg);
            let mut wl_rng = SimRng::new(7);
            let workload = Workload::single_random_flow(8, trace.node_count(), &mut wl_rng);
            let mut probe =
                AuditProbe::new(&workload, &config, trace.node_count(), AuditMode::Strict);
            let audited = simulate_probed(&trace, &workload, &config, SimRng::new(11), &mut probe);
            assert!(probe.is_clean());
            assert!(
                probe.events_seen() > 0,
                "audit saw no events for {name} in cell {}",
                cell.label
            );
            let plain = simulate(&trace, &workload, &config, SimRng::new(11));
            assert_eq!(
                audited, plain,
                "auditing perturbed {name} in cell {}",
                cell.label
            );
        }
    }
}

/// Property 2: the auditor composes with an arbitrary second sink as a
/// `(A, B)` pair — both arms observe the full event stream.
#[test]
fn audit_composes_with_other_probes_via_fanout() {
    let trace = Mobility::Trace.build(31, 0);
    let config = SimConfig::paper_defaults(protocols::immunity_epidemic());
    let mut wl_rng = SimRng::new(3);
    let workload = Workload::single_random_flow(10, trace.node_count(), &mut wl_rng);
    let audit = AuditProbe::new(&workload, &config, trace.node_count(), AuditMode::Record);
    let mut fanout = (CountingProbe::default(), audit);
    simulate_probed(&trace, &workload, &config, SimRng::new(5), &mut fanout);
    let (counter, audit) = fanout;
    assert!(counter.events > 0, "the run produced no events at all");
    assert_eq!(
        counter.events,
        audit.events_seen(),
        "the fanout arms saw different streams"
    );
    assert!(audit.is_clean(), "{:?}", audit.violations());
}

/// The corruption fixture from the auditor's unit tests: one flow of five
/// bundles from node 0 to node 3 on a four-node scenario.
fn corrupt_probe(config: &SimConfig) -> AuditProbe {
    let workload = Workload::single_flow(NodeId(0), NodeId(3), 5, 4);
    AuditProbe::new(&workload, config, 4, AuditMode::Record)
}

fn store(node: u32, seq: u32, t: u64) -> Event {
    Event::Store {
        flow: 0,
        seq,
        node,
        t,
    }
}

/// Property 3: feeding the auditor a hand-corrupted event stream trips
/// every [`Violation`] variant at least once, in a deterministic order.
#[test]
fn corrupted_stream_trips_every_violation_variant() {
    // Seven of the eight variants on a capacity-2 pure-epidemic fixture.
    let mut config = SimConfig::paper_defaults(protocols::pure_epidemic());
    config.buffer_capacity = 2;
    let mut p = corrupt_probe(&config);
    p.record(&store(0, 0, 0)); // origin injection: clean
    p.record(&store(1, 0, 10)); // relay copy: clean
    p.record(&store(1, 0, 11)); // DoubleStore
    p.record(&store(1, 1, 12)); // occupancy 2: clean
    p.record(&store(1, 2, 13)); // occupancy 3 > 2: OverCapacity
    p.record(&Event::Drop {
        flow: 0,
        seq: 3,
        node: 2,
        t: 14,
        reason: DropReason::Evicted,
    }); // DropWithoutCopy
    p.record(&Event::Deliver {
        flow: 0,
        seq: 0,
        node: 2,
        t: 15,
        done: 20,
    }); // MisroutedDeliver (destination is 3)
    p.record(&Event::Deliver {
        flow: 0,
        seq: 0,
        node: 3,
        t: 25,
        done: 30,
    }); // DuplicateDeliver
    p.record(&Event::AckPurge {
        flow: 0,
        seq: 1,
        node: 1,
        t: 35,
    }); // PurgeUndelivered (bundle 1 was never delivered)
    p.record(&Event::Transmit {
        flow: 0,
        seq: 4,
        from: 2,
        to: 1,
        t: 40,
        done: 45,
        lost: false,
    }); // TransmitWithoutCopy
    let mut seen: Vec<Violation> = p.violations().to_vec();

    // The eighth — TransmitExpired — needs the fixed-TTL expiry mirror.
    let ttl_config =
        SimConfig::paper_defaults(protocols::ttl_epidemic(SimDuration::from_secs(300)));
    let mut p = corrupt_probe(&ttl_config);
    p.record(&store(1, 0, 0)); // relay copy, expires at t = 300 000 ms
    p.record(&Event::Transmit {
        flow: 0,
        seq: 0,
        from: 1,
        to: 2,
        t: 400_000,
        done: 400_100,
        lost: false,
    }); // TransmitExpired
    seen.extend(p.violations().iter().cloned());

    let expected = [
        Violation::DoubleStore {
            node: 1,
            flow: 0,
            seq: 0,
            t: 11,
        },
        Violation::OverCapacity {
            node: 1,
            t: 13,
            stored: 3,
            capacity: 2,
        },
        Violation::DropWithoutCopy {
            node: 2,
            flow: 0,
            seq: 3,
            t: 14,
        },
        Violation::MisroutedDeliver {
            flow: 0,
            seq: 0,
            node: 2,
            expected: 3,
            t: 15,
        },
        Violation::DuplicateDeliver {
            flow: 0,
            seq: 0,
            node: 3,
            t: 25,
        },
        Violation::PurgeUndelivered {
            node: 1,
            flow: 0,
            seq: 1,
            t: 35,
        },
        Violation::TransmitWithoutCopy {
            from: 2,
            to: 1,
            flow: 0,
            seq: 4,
            t: 40,
        },
        Violation::TransmitExpired {
            from: 1,
            flow: 0,
            seq: 0,
            t: 400_000,
            expired_at: 300_000,
        },
    ];
    assert_eq!(seen, expected);
    // Belt and braces: all eight enum variants really are distinct here.
    let variants: std::collections::HashSet<_> = seen.iter().map(discriminant).collect();
    assert_eq!(variants.len(), 8, "some variant went untested");
}
