//! The per-replication simulation driver.
//!
//! [`simulate`] wires a [`ContactTrace`], a [`Workload`] and a
//! [`SimConfig`] into the `dtn-sim` engine and runs to completion;
//! [`simulate_stream`] does the same from a [`ContactStream`], the reader a
//! lazily generated trace hands out, and is the one run loop both share:
//!
//! * every contact becomes a `Contact` event at its start time, handled by
//!   [`crate::session::run_contact`]; the sorted contacts stream through
//!   the engine in place rather than being copied into its queue, and a
//!   lazy trace is generated only as far as the run reads it;
//! * flow creation events inject origin copies at sources;
//! * copy expiry is event-driven: whenever a node's earliest finite expiry
//!   changes, an `ExpiryCheck` is (re)scheduled, so the time-weighted
//!   metrics see drops at the instant they happen rather than at the next
//!   contact;
//! * the run ends when every bundle has been delivered (the paper: "once
//!   the destination received all bundles, the simulation ends") or at the
//!   trace horizon, whichever comes first. A run that reaches the horizon
//!   undelivered is a failed transmission and records no delay.

use crate::buffer::StoredBundle;
use crate::bundle::BundleId;
use crate::bundle::Workload;
use crate::faults::FaultInjector;
use crate::immunity::ImmunityStore;
use crate::metrics::{DropReason, MetricsCollector, RunMetrics};
use crate::node::Node;
use crate::policy::AckScheme;
use crate::probe::{Event, NullProbe, Probe};
use crate::session::{run_contact, SessionCtx, SessionScratch, SimConfig};
use dtn_mobility::{Contact, ContactStream, ContactTrace, NodeId};
use dtn_sim::{Engine, Flow, Handler, Scheduler, SimRng, SimTime};

/// Simulation events.
#[derive(Clone, Copy, Debug)]
enum Ev<'a> {
    /// Inject flow `f`'s bundles at its source.
    CreateFlow(u32),
    /// Process a contact of the trace.
    Contact(&'a Contact),
    /// Purge expired copies on a node and reschedule.
    ExpiryCheck(u16),
    /// Churn fault injection: the node goes down.
    NodeDown(u16),
    /// Churn fault injection: the node comes back up (crash semantics
    /// wipe its volatile state here).
    NodeUp(u16),
}

struct Sim<'a, P: Probe = NullProbe> {
    workload: &'a Workload,
    config: &'a SimConfig,
    nodes: Vec<Node>,
    metrics: MetricsCollector,
    rng: SimRng,
    /// Earliest pending `ExpiryCheck` per node, to avoid flooding the
    /// queue with duplicates.
    scheduled_expiry: Vec<Option<SimTime>>,
    /// Session scratch allocations, reused across every contact.
    scratch: SessionScratch,
    /// Scratch for expiry purges.
    purged: Vec<BundleId>,
    /// Event observer (monomorphized; `NullProbe` costs nothing).
    probe: &'a mut P,
    /// Fault injection state (disabled and draw-free without a plan).
    faults: FaultInjector,
}

impl<P: Probe> Sim<'_, P> {
    /// Purge expired copies of `node_idx` at `now`, feeding the metrics.
    fn purge_node(&mut self, node_idx: usize, now: SimTime) {
        self.purged.clear();
        self.nodes[node_idx].purge_expired_into(now, &mut self.purged);
        for &id in &self.purged {
            let idx = self.workload.bundle_index(id);
            self.nodes[node_idx].bits.clear_copy(idx);
            self.metrics
                .on_drop(idx, node_idx, now, DropReason::Expired);
            if P::ENABLED {
                self.probe.record(&Event::Drop {
                    flow: id.flow.0,
                    seq: id.seq,
                    node: node_idx as u32,
                    t: now.as_millis(),
                    reason: DropReason::Expired,
                });
            }
        }
    }

    /// Cold-restart a crashed node: relay buffer, immunity table and
    /// encounter history are volatile and wiped; the origin store and the
    /// delivery trackers model persistent application state and survive.
    fn crash_wipe(&mut self, node_idx: usize, now: SimTime) {
        self.metrics.churn_wipes += 1;
        self.purged.clear();
        self.nodes[node_idx]
            .buffer
            .purge_if_into(|_| true, &mut self.purged);
        for &id in &self.purged {
            let idx = self.workload.bundle_index(id);
            self.nodes[node_idx].bits.clear_copy(idx);
            self.metrics.on_drop(idx, node_idx, now, DropReason::Churn);
            if P::ENABLED {
                self.probe.record(&Event::Drop {
                    flow: id.flow.0,
                    seq: id.seq,
                    node: node_idx as u32,
                    t: now.as_millis(),
                    reason: DropReason::Churn,
                });
            }
        }
        self.nodes[node_idx].last_encounter = None;
        self.nodes[node_idx].last_interval = None;
        if let Some(store) = self.nodes[node_idx].immunity.as_mut() {
            store.reset();
            self.metrics.set_ack_records(node_idx, 0, now);
            if P::ENABLED {
                self.probe.record(&Event::ImmunityMerge {
                    node: node_idx as u32,
                    sent: 0,
                    records: 0,
                    t: now.as_millis(),
                });
            }
        }
    }

    /// Ensure an `ExpiryCheck` is pending at the node's earliest expiry.
    fn reschedule_expiry(&mut self, node_idx: usize, sched: &mut Scheduler<'_, Ev<'_>>) {
        if let Some(t) = self.nodes[node_idx].earliest_expiry() {
            let already_pending =
                matches!(self.scheduled_expiry[node_idx], Some(existing) if existing <= t);
            if !already_pending {
                self.scheduled_expiry[node_idx] = Some(t);
                sched.schedule_at(t.max(sched.now()), Ev::ExpiryCheck(node_idx as u16));
            }
        }
    }
}

impl<'c, P: Probe> Handler<Ev<'c>> for Sim<'_, P> {
    fn handle(&mut self, now: SimTime, event: Ev<'c>, sched: &mut Scheduler<'_, Ev<'c>>) -> Flow {
        match event {
            Ev::CreateFlow(f) => {
                let flow = self.workload.flows()[f as usize];
                let src = flow.src.index();
                // Origin copies are immortal: TTLs "begin to reduce" only
                // once a bundle is transmitted into a relay buffer
                // (Section II-B), so the application's own send queue never
                // times out. Immunity purges still apply to it.
                let expires_at = SimTime::MAX;
                for seq in 0..flow.count {
                    let id = crate::bundle::BundleId { flow: flow.id, seq };
                    self.nodes[src].origin.insert(
                        StoredBundle {
                            id,
                            ec: 0,
                            stored_at: now,
                            expires_at,
                        },
                        crate::policy::EvictionPolicy::RejectNew,
                    );
                    let idx = self.workload.bundle_index(id);
                    self.nodes[src].bits.set_copy(idx);
                    self.metrics.on_store(idx, src, now);
                    if P::ENABLED {
                        self.probe.record(&Event::Store {
                            flow: id.flow.0,
                            seq: id.seq,
                            node: src as u32,
                            t: now.as_millis(),
                        });
                    }
                }
                self.reschedule_expiry(src, sched);
                Flow::Continue
            }
            Ev::Contact(contact) => {
                let (ai, bi) = (contact.a.index(), contact.b.index());
                if !(self.faults.is_up(ai) && self.faults.is_up(bi)) {
                    self.metrics.contacts_skipped += 1;
                    if P::ENABLED {
                        self.probe.record(&Event::ContactSkipped {
                            a: ai as u32,
                            b: bi as u32,
                            t: now.as_millis(),
                        });
                    }
                    return Flow::Continue;
                }
                let (na, nb) = two_mut(&mut self.nodes, ai, bi);
                let mut ctx = SessionCtx {
                    config: self.config,
                    workload: self.workload,
                    metrics: &mut self.metrics,
                    rng: &mut self.rng,
                    scratch: &mut self.scratch,
                    probe: &mut *self.probe,
                    faults: &mut self.faults,
                };
                run_contact(na, nb, contact, &mut ctx);
                self.reschedule_expiry(ai, sched);
                self.reschedule_expiry(bi, sched);
                if self.metrics.all_delivered() {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            }
            Ev::ExpiryCheck(n) => {
                let node_idx = n as usize;
                self.scheduled_expiry[node_idx] = None;
                self.purge_node(node_idx, now);
                self.reschedule_expiry(node_idx, sched);
                Flow::Continue
            }
            Ev::NodeDown(n) => {
                self.faults.set_up(n as usize, false);
                if P::ENABLED {
                    self.probe.record(&Event::FaultDown {
                        node: n as u32,
                        t: now.as_millis(),
                    });
                }
                Flow::Continue
            }
            Ev::NodeUp(n) => {
                self.faults.set_up(n as usize, true);
                let wiped = self.faults.wipes_on_restart();
                if wiped {
                    self.crash_wipe(n as usize, now);
                }
                if P::ENABLED {
                    self.probe.record(&Event::FaultUp {
                        node: n as u32,
                        t: now.as_millis(),
                        wiped,
                    });
                }
                Flow::Continue
            }
        }
    }
}

/// Split two distinct mutable references out of a slice.
fn two_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i != j, "aliasing two_mut indices");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Run one replication and return its metrics.
///
/// Identical `(trace, workload, config, rng seed)` inputs produce
/// bit-identical results; the experiment harness relies on this.
pub fn simulate(
    trace: &ContactTrace,
    workload: &Workload,
    config: &SimConfig,
    rng: SimRng,
) -> RunMetrics {
    simulate_stream(trace.stream(), workload, config, rng)
}

/// [`simulate`] with an event observer attached.
///
/// The probe is monomorphized into the simulation loop: `simulate` itself
/// is this function with [`NullProbe`], whose `ENABLED = false` makes
/// every emission site dead code — the un-instrumented build is
/// bit-identical (results *and* machine code) to the pre-probe simulator.
/// Events are emitted in the exact order the metrics collector is fed, so
/// [`crate::probe::replay_metrics`] over the captured stream reproduces
/// this function's return value bit for bit.
pub fn simulate_probed<P: Probe>(
    trace: &ContactTrace,
    workload: &Workload,
    config: &SimConfig,
    rng: SimRng,
    probe: &mut P,
) -> RunMetrics {
    simulate_stream_probed(trace.stream(), workload, config, rng, probe)
}

/// [`simulate`] over a stream of the trace's contacts: a lazy trace is
/// generated only as far as the run reads it. Same results as
/// [`simulate`] on the whole trace.
pub fn simulate_stream(
    contacts: ContactStream<'_>,
    workload: &Workload,
    config: &SimConfig,
    rng: SimRng,
) -> RunMetrics {
    simulate_stream_probed(contacts, workload, config, rng, &mut NullProbe)
}

/// [`simulate_probed`] over a stream of the trace's contacts.
pub fn simulate_stream_probed<P: Probe>(
    contacts: ContactStream<'_>,
    workload: &Workload,
    config: &SimConfig,
    rng: SimRng,
    probe: &mut P,
) -> RunMetrics {
    config.protocol.validate();
    config
        .validate()
        .unwrap_or_else(|err| panic!("invalid SimConfig: {err}"));
    // The injector derives its private RNG streams from (a copy of) the
    // replication seed before the base rng moves into the simulator; with
    // an all-zero plan this is a draw-free no-op and the base stream is
    // untouched, keeping un-faulted runs bit-identical to older builds.
    let faults = FaultInjector::for_run(
        &config.faults,
        contacts.node_count(),
        contacts.horizon(),
        &rng,
    );
    run_replication(contacts, workload, config, rng, probe, faults)
}

/// The run itself, with the fault injector already built.
fn run_replication<P: Probe>(
    contacts: ContactStream<'_>,
    workload: &Workload,
    config: &SimConfig,
    rng: SimRng,
    probe: &mut P,
    faults: FaultInjector,
) -> RunMetrics {
    let node_count = contacts.node_count();
    let horizon = contacts.horizon();
    let immunity_template = match config.protocol.ack {
        AckScheme::None => None,
        AckScheme::PerBundle => Some(ImmunityStore::per_bundle()),
        AckScheme::Cumulative => Some(ImmunityStore::cumulative()),
    };
    let mut nodes: Vec<Node> = (0..node_count as u16)
        .map(|id| {
            Node::new(
                NodeId(id),
                config.buffer_capacity,
                immunity_template.clone(),
            )
        })
        .collect();
    // Enable the possession planes and precompute the candidate-split
    // lookup tables: the session hot path then runs its word-parallel
    // struct-of-arrays form instead of walking records.
    for node in &mut nodes {
        node.bits.init(workload.total_bundles());
    }
    let mut scratch = SessionScratch::default();
    scratch.prepare(workload, node_count);

    let mut metrics = MetricsCollector::new(
        node_count,
        config.buffer_capacity,
        workload.total_bundles(),
        config.ack_slot_cost,
    );
    metrics.start(SimTime::ZERO);

    let mut engine =
        Engine::with_capacity(horizon, workload.flows().len() + faults.schedule().len());
    // Churn transitions are scheduled first: equal-time events fire in
    // scheduling order, and the contact stream ranks after everything
    // scheduled before the run, so a node going down at t also kills a
    // contact starting at t.
    for tr in faults.schedule() {
        let ev = if tr.up {
            Ev::NodeUp(tr.node)
        } else {
            Ev::NodeDown(tr.node)
        };
        engine.schedule(tr.at, ev);
    }
    for (i, flow) in workload.flows().iter().enumerate() {
        engine.schedule(flow.created_at, Ev::CreateFlow(i as u32));
    }
    let mut sim = Sim {
        workload,
        config,
        nodes,
        metrics,
        rng,
        scheduled_expiry: vec![None; node_count],
        scratch,
        purged: Vec::new(),
        probe,
        faults,
    };
    // The contacts are sorted by start time, so they stream through the
    // run loop in place; a run that completes early never reads (nor, on
    // a lazy trace, generates) the rest.
    engine.run_stream(contacts.map(|c| (c.start, Ev::Contact(c))), &mut sim);

    let end = sim.metrics.completion_time().unwrap_or(horizon);
    sim.metrics.finish(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Workload;
    use crate::faults::{ChurnMode, ChurnTransition};
    use crate::probe::MemoryProbe;
    use crate::protocols;
    use dtn_mobility::{parse_trace_str, NodeId};
    use dtn_sim::SimDuration;

    fn two_hop_trace() -> ContactTrace {
        // 0 meets 1 at t=100 (400 s); 1 meets 2 at t=1000 (400 s).
        parse_trace_str("% nodes 3\n% horizon 10000\n0 1 100 500\n1 2 1000 1400\n").unwrap()
    }

    fn cfg(p: crate::policy::ProtocolConfig) -> SimConfig {
        SimConfig::paper_defaults(p)
    }

    #[test]
    fn pure_epidemic_delivers_over_two_hops() {
        let trace = two_hop_trace();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 3, 3);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.delivered, 3);
        assert_eq!(m.delivery_ratio, 1.0);
        // Node 1 received 3 bundles in contact 1 (capacity ⌊400/100⌋ = 4);
        // it forwards them in contact 2; third transfer completes at
        // 1000 + 300 = 1300.
        assert_eq!(m.completion_time, Some(SimTime::from_secs(1300)));
        assert_eq!(m.bundle_transmissions, 6);
    }

    #[test]
    fn capacity_limits_transfers_per_contact() {
        // One 250 s contact: ⌊250/100⌋ = 2 bundles max.
        let trace = parse_trace_str("% nodes 2\n% horizon 10000\n0 1 100 350\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 5, 2);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.delivered, 2);
        assert!((m.delivery_ratio - 0.4).abs() < 1e-12);
        assert_eq!(m.completion_time, None, "not all bundles arrived");
    }

    #[test]
    fn paper_worked_example_three_bundles_in_314s() {
        // Section IV: nodes 3 and 9 meet for 314 s -> 3 bundles.
        let trace = parse_trace_str("% nodes 10\n% horizon 524162\n3 9 3568 3882\n").unwrap();
        let w = Workload::single_flow(NodeId(3), NodeId(9), 10, 10);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.delivered, 3);
        assert_eq!(m.bundle_transmissions, 3);
    }

    #[test]
    fn direct_contact_delivers_and_records_slot_times() {
        let trace = parse_trace_str("% nodes 2\n% horizon 10000\n0 1 0 1000\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 3, 2);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.delivered, 3);
        // Slots complete at 100, 200, 300.
        assert_eq!(m.completion_time, Some(SimTime::from_secs(300)));
    }

    #[test]
    fn fixed_ttl_expires_relay_copies_but_not_origin_copies() {
        // TTLs start ticking when a bundle is stored in a *relay* buffer
        // (Section II-B); the source's own send queue never times out.
        // Source 0 hands 4 copies to relay 1 at t=5000; relay copies
        // expire at 5700 (renewed... no further transmission), long before
        // the destination would have been reachable.
        let trace = parse_trace_str("% nodes 3\n% horizon 10000\n0 1 5000 5400\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 4, 3);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::ttl_epidemic(SimDuration::from_secs(300))),
            SimRng::new(1),
        );
        assert_eq!(m.delivered, 0);
        assert_eq!(m.bundle_transmissions, 4, "all four copies relayed to 1");
        assert_eq!(m.expirations, 4, "all four relay copies expired");
    }

    #[test]
    fn dynamic_ttl_outlives_fixed_ttl_across_long_gaps() {
        // Relay 1's encounter gap is 1000 s. Fixed TTL 300 kills its relay
        // copy before it meets the destination; dynamic TTL (2 × its last
        // 1000 s interval) keeps the copy alive.
        let trace = parse_trace_str(
            "% nodes 4\n% horizon 99999\n1 3 0 100\n0 1 1000 1200\n1 2 2000 2200\n",
        )
        .unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 1, 4);
        let fixed = simulate(
            &trace,
            &w,
            &cfg(protocols::ttl_epidemic(SimDuration::from_secs(300))),
            SimRng::new(1),
        );
        assert_eq!(fixed.delivered, 0, "fixed-TTL relay copy expired at 1500");
        let dynamic = simulate(
            &trace,
            &w,
            &cfg(protocols::dynamic_ttl_epidemic()),
            SimRng::new(1),
        );
        assert_eq!(dynamic.delivered, 1, "dynamic TTL = 2×1000 s survived");
    }

    #[test]
    fn fixed_ttl_renews_on_transmission() {
        // 0->1 at t=100; 1 meets 2 at t=550. Receiver TTL from store time
        // (t=100 + 300 = 400) would expire before 550... so use contacts
        // closer together: 0-1 at 100..300, 1-2 at 350..550. Copy stored at
        // 100 expires 400 > 350: delivered.
        let trace =
            parse_trace_str("% nodes 3\n% horizon 10000\n0 1 100 300\n1 2 350 550\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 1, 3);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::ttl_epidemic(SimDuration::from_secs(300))),
            SimRng::new(1),
        );
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn immunity_purges_relay_copies_mid_flow() {
        // 0 hands both bundles to relay 1 (t=0..300, 3 slots). 1 delivers
        // only seq 0 to destination 2 (t=400..500, 1 slot). When 1 meets 2
        // again (t=600..700), the ack exchange runs *before* the transfer:
        // 1 merges 2's immunity table, purges its now-delivered seq-0
        // copy, then delivers seq 1 — at which point the run completes.
        let trace =
            parse_trace_str("% nodes 3\n% horizon 99999\n0 1 0 300\n1 2 400 500\n1 2 600 700\n")
                .unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 2, 3);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::immunity_epidemic()),
            SimRng::new(1),
        );
        assert_eq!(m.delivered, 2);
        assert_eq!(m.immunity_purges, 1, "relay copy of seq 0 purged at node 1");
        assert!(m.ack_records_sent > 0);
        assert_eq!(m.completion_time, Some(SimTime::from_secs(700)));
    }

    #[test]
    fn pq_zero_q_never_relays() {
        // With q = 0 relays never forward; only source-destination contacts
        // deliver. Source never meets destination here -> nothing arrives.
        let trace =
            parse_trace_str("% nodes 3\n% horizon 9999\n0 1 0 500\n1 2 600 1100\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 2, 3);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::pq_epidemic(1.0, 0.0)),
            SimRng::new(1),
        );
        assert_eq!(m.delivered, 0);
        // Source still pushed copies to the relay.
        assert_eq!(m.bundle_transmissions, 2);
    }

    #[test]
    fn pq_zero_p_never_sends_from_source() {
        let trace = parse_trace_str("% nodes 2\n% horizon 9999\n0 1 0 1000\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 2, 2);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::pq_epidemic(0.0, 1.0)),
            SimRng::new(1),
        );
        assert_eq!(m.delivered, 0);
        assert_eq!(m.bundle_transmissions, 0);
    }

    #[test]
    fn ec_eviction_replaces_highest_ec_when_full() {
        // Buffer capacity 2 at relays. Source sends 3 bundles to relay 1;
        // third insert evicts one. Use small capacity to force it.
        let trace = parse_trace_str("% nodes 3\n% horizon 9999\n0 1 0 1000\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 3, 3);
        let mut config = cfg(protocols::ec_epidemic());
        config.buffer_capacity = 2;
        let m = simulate(&trace, &w, &config, SimRng::new(1));
        assert_eq!(m.evictions, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = dtn_mobility::HaggleParams {
            horizon: SimTime::from_secs(100_000),
            ..Default::default()
        }
        .generate(&mut SimRng::new(42));
        let w = Workload::single_flow(NodeId(0), NodeId(5), 10, 12);
        let run = || {
            simulate(
                &trace,
                &w,
                &cfg(protocols::pq_epidemic(0.5, 0.5)),
                SimRng::new(7),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stops_at_horizon_without_completion() {
        let trace = parse_trace_str("% nodes 3\n% horizon 1000\n0 1 0 150\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 1, 3);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.delivered, 0);
        assert_eq!(m.end_time, SimTime::from_secs(1000));
    }

    #[test]
    fn destination_only_propagation_purges_less() {
        // Under destination-only dissemination, relays never re-share
        // immunity knowledge, so fewer copies get purged and the
        // signaling meter charges fewer records.
        let trace = dtn_mobility::HaggleParams {
            horizon: SimTime::from_secs(400_000),
            ..Default::default()
        }
        .generate(&mut SimRng::new(41));
        let w = Workload::single_flow(NodeId(0), NodeId(5), 20, trace.node_count());
        let run = |propagation| {
            let mut config = cfg(protocols::immunity_epidemic());
            config.protocol.ack_propagation = propagation;
            simulate(&trace, &w, &config, SimRng::new(3))
        };
        let epidemic = run(crate::policy::AckPropagation::Epidemic);
        let dest_only = run(crate::policy::AckPropagation::DestinationOnly);
        assert!(
            dest_only.ack_records_sent < epidemic.ack_records_sent,
            "dest-only sent {} records vs epidemic {}",
            dest_only.ack_records_sent,
            epidemic.ack_records_sent
        );
        // Propagation mode is a buffer policy, not a routing change:
        // delivery stays intact either way.
        assert_eq!(dest_only.delivered, epidemic.delivered);
    }

    #[test]
    fn byte_accounting_tracks_transmissions_and_control() {
        let trace =
            parse_trace_str("% nodes 3\n% horizon 99999\n0 1 0 300\n1 2 400 500\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 2, 3);
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::immunity_epidemic()),
            SimRng::new(1),
        );
        let config = cfg(protocols::immunity_epidemic());
        assert_eq!(
            m.payload_bytes_sent,
            m.bundle_transmissions * config.bundle_bytes
        );
        // Three transfer phases advertised a 2-bundle (1-byte) summary
        // vector each (the fourth phase found no capacity left and never
        // advertised), plus any immunity records.
        assert!(m.control_bytes_sent >= 3, "{}", m.control_bytes_sent);
        assert!(m.control_overhead_ratio() > 0.0);
        assert!(m.control_overhead_ratio() < 0.01, "control ≪ payload");
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let trace = parse_trace_str("% nodes 2\n% horizon 10000\n0 1 0 1000\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 5, 2);
        let mut config = cfg(protocols::pure_epidemic());
        config.transfer_loss_prob = 1.0;
        let m = simulate(&trace, &w, &config, SimRng::new(1));
        assert_eq!(m.delivered, 0);
        assert_eq!(m.transfer_losses, m.bundle_transmissions);
        assert!(m.bundle_transmissions > 0, "transmissions were attempted");
    }

    #[test]
    fn partial_loss_degrades_but_does_not_kill_delivery() {
        let trace = dtn_mobility::HaggleParams {
            horizon: SimTime::from_secs(300_000),
            ..Default::default()
        }
        .generate(&mut SimRng::new(31));
        let w = Workload::single_flow(NodeId(0), NodeId(5), 10, trace.node_count());
        let run = |loss: f64| {
            let mut config = cfg(protocols::pure_epidemic());
            config.transfer_loss_prob = loss;
            simulate(&trace, &w, &config, SimRng::new(2))
        };
        let clean = run(0.0);
        let lossy = run(0.4);
        assert_eq!(clean.transfer_losses, 0);
        assert!(lossy.transfer_losses > 0);
        // Epidemic redundancy absorbs moderate loss: delivery may drop
        // but must not vanish.
        assert!(lossy.delivered > 0);
        assert!(lossy.delivered <= clean.delivered + 2);
    }

    #[test]
    fn poisson_workload_runs_end_to_end() {
        // Staggered flow arrivals exercise mid-simulation CreateFlow
        // events: bundles join while earlier flows are already circulating.
        let trace = dtn_mobility::HaggleParams {
            horizon: SimTime::from_secs(200_000),
            ..Default::default()
        }
        .generate(&mut SimRng::new(21));
        let mut wl_rng = SimRng::new(22);
        let w = Workload::poisson_flows(
            2e-4,
            SimTime::from_secs(100_000),
            4,
            trace.node_count(),
            &mut wl_rng,
        );
        assert!(w.flows().len() >= 2, "want several staggered flows");
        let m = simulate(
            &trace,
            &w,
            &cfg(protocols::immunity_epidemic()),
            SimRng::new(23),
        );
        assert!(m.delivered > 0, "some staggered traffic must arrive");
        assert!(m.delivered <= m.total_bundles);
    }

    fn flip(secs: u64, node: u16, up: bool) -> ChurnTransition {
        ChurnTransition {
            at: SimTime::from_secs(secs),
            node,
            up,
        }
    }

    /// Pure epidemic under a hand-written duty-cycle churn schedule; the
    /// metrics and the probe stream.
    fn run_with_churn(
        trace: &ContactTrace,
        w: &Workload,
        schedule: Vec<ChurnTransition>,
    ) -> (RunMetrics, Vec<Event>) {
        let faults =
            FaultInjector::with_churn_schedule(ChurnMode::DutyCycle, trace.node_count(), schedule);
        let mut probe = MemoryProbe::default();
        let config = cfg(protocols::pure_epidemic());
        let m = run_replication(
            trace.stream(),
            w,
            &config,
            SimRng::new(1),
            &mut probe,
            faults,
        );
        (m, probe.events)
    }

    #[test]
    fn node_down_at_a_contact_start_skips_the_contact() {
        // Churn flips are scheduled before the run and the contact stream
        // ranks after them, so node 1 is already down when its contact
        // starting at the same instant fires.
        let trace = parse_trace_str("% nodes 2\n% horizon 10000\n0 1 100 500\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 1, 2);
        let (m, events) = run_with_churn(&trace, &w, vec![flip(100, 1, false), flip(600, 1, true)]);
        assert_eq!(m.contacts_skipped, 1);
        assert_eq!(m.contacts_processed, 0);
        assert_eq!(m.delivered, 0);
        let at_100: Vec<Event> = events
            .into_iter()
            .filter(|e| e.time_ms() == 100_000)
            .collect();
        assert!(
            matches!(
                at_100[..],
                [
                    Event::FaultDown { node: 1, .. },
                    Event::ContactSkipped { a: 0, b: 1, .. }
                ]
            ),
            "{at_100:?}"
        );
    }

    #[test]
    fn expiry_due_at_a_contact_start_fires_after_the_contact() {
        // Relay 1's copy is stored at t = 100 and expires at 100 + 300 =
        // 400, exactly when 1 meets the destination. The pending
        // ExpiryCheck was scheduled during the run, so the contact fires
        // first and its own expiry purge drops the copy after the session
        // has begun.
        let trace =
            parse_trace_str("% nodes 3\n% horizon 10000\n0 1 100 300\n1 2 400 600\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(2), 1, 3);
        let config = cfg(protocols::ttl_epidemic(SimDuration::from_secs(300)));
        let mut probe = MemoryProbe::default();
        let m = simulate_probed(&trace, &w, &config, SimRng::new(1), &mut probe);
        assert_eq!(m.expirations, 1);
        assert_eq!(m.delivered, 0);
        let at_400: Vec<Event> = probe
            .events
            .into_iter()
            .filter(|e| e.time_ms() == 400_000)
            .collect();
        assert!(
            matches!(
                at_400[..],
                [
                    Event::ContactBegin { a: 1, b: 2, .. },
                    Event::Drop {
                        node: 1,
                        reason: DropReason::Expired,
                        ..
                    },
                    ..
                ]
            ),
            "{at_400:?}"
        );
    }

    #[test]
    fn zero_contact_trace_runs_to_the_horizon() {
        let trace = parse_trace_str("% nodes 3\n% horizon 5000\n").unwrap();
        assert!(trace.is_empty());
        let w = Workload::single_flow(NodeId(0), NodeId(2), 2, 3);
        let m = simulate(&trace, &w, &cfg(protocols::pure_epidemic()), SimRng::new(1));
        assert_eq!(m.contacts_processed, 0);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.completion_time, None);
        assert_eq!(m.end_time, SimTime::from_secs(5000));
    }

    #[test]
    fn churn_flip_then_flow_arrival_then_contact_at_time_zero() {
        // All three sources at t = 0 fire in (time, seq) order: churn flips
        // are scheduled first, flow arrivals next, and the contact stream
        // ranks after everything scheduled before the run.
        let trace = parse_trace_str("% nodes 3\n% horizon 10000\n0 1 0 300\n").unwrap();
        let w = Workload::single_flow(NodeId(0), NodeId(1), 1, 3);
        let (m, events) = run_with_churn(&trace, &w, vec![flip(0, 1, false)]);
        assert!(
            matches!(
                events[..],
                [
                    Event::FaultDown { node: 1, t: 0 },
                    Event::Store { node: 0, t: 0, .. },
                    Event::ContactSkipped { a: 0, b: 1, t: 0 }
                ]
            ),
            "{events:?}"
        );
        assert_eq!(m.contacts_skipped, 1);
    }

    #[test]
    fn two_mut_splits_correctly() {
        let mut v = vec![1, 2, 3, 4];
        {
            let (a, b) = two_mut(&mut v, 0, 3);
            std::mem::swap(a, b);
        }
        assert_eq!(v, vec![4, 2, 3, 1]);
        {
            let (a, b) = two_mut(&mut v, 2, 1);
            *a += 10;
            *b += 100;
        }
        assert_eq!(v, vec![4, 102, 13, 1]);
    }

    #[test]
    #[should_panic(expected = "aliasing")]
    fn two_mut_rejects_aliasing() {
        let mut v = vec![1, 2];
        let _ = two_mut(&mut v, 1, 1);
    }
}
