//! Per-layer attribution for traced runs: one replication driven a layer
//! at a time (mobility → workload → engine), with spans around each call
//! and the counts each layer reports.

use crate::metrics::{Outcome, MODEL_LABELS, PROTOCOL_LABELS};
use crate::spans::Tracer;
use crate::stats::median;
use dtn_epidemic::{simulate_probed, Event, Probe, RunMetrics, SimConfig, Workload};
use dtn_experiments::{Mobility, TraceCache};
use dtn_mobility::ContactTrace;
use dtn_sim::{EventQueue, SimRng};
use std::sync::Arc;
use std::time::Instant;

/// A probe timing the engine's contact sessions: the gap between each
/// `ContactBegin` and its `ContactEnd`.
#[derive(Debug, Default)]
pub struct SessionClock {
    begun: Option<Instant>,
    /// Nanoseconds spent inside sessions.
    pub ns: u64,
    /// Sessions timed.
    pub sessions: u64,
}

impl Probe for SessionClock {
    fn record(&mut self, event: &Event) {
        match event {
            Event::ContactBegin { .. } => self.begun = Some(Instant::now()),
            Event::ContactEnd { .. } => {
                if let Some(begun) = self.begun.take() {
                    self.ns += begun.elapsed().as_nanos() as u64;
                    self.sessions += 1;
                }
            }
            _ => {}
        }
    }
}

fn model_index(mobility: Mobility) -> usize {
    match mobility {
        Mobility::Trace => 0,
        Mobility::Rwp => 1,
        Mobility::GeometricRwp => 2,
        Mobility::Interval(_) => 3,
    }
}

/// Engine counters summed over every traced replication.
#[derive(Debug, Default)]
struct Totals {
    contacts: u64,
    transmissions: u64,
    signaling_bytes: u64,
    ack_records: u64,
    drops: u64,
    false_positive_tx: u64,
    skipped: u64,
    truncated: u64,
    ack_lost: u64,
    churn_wipes: u64,
    delivered: u64,
}

impl Totals {
    fn add(&mut self, m: &RunMetrics) {
        self.contacts += m.contacts_processed;
        self.transmissions += m.bundle_transmissions;
        self.signaling_bytes += m.signaling_bytes;
        self.ack_records += m.ack_records_sent;
        self.drops += m.evictions + m.expirations + m.immunity_purges + m.churn_drops;
        self.false_positive_tx += m.false_positive_transmissions;
        self.skipped += m.contacts_skipped;
        self.truncated += m.sessions_truncated;
        self.ack_lost += m.ack_losses;
        self.churn_wipes += m.churn_wipes;
        self.delivered += u64::from(m.delivered);
    }
}

/// Everything a traced run accumulates below the request level.
#[derive(Debug, Default)]
pub struct Layers {
    /// Id of the next point (one load level of one sweep).
    pub next_point: u64,
    gen_ms: [Vec<f64>; 4],
    trace_contacts: [u64; 4],
    traces: [u64; 4],
    cache_hits: u64,
    cache_misses: u64,
    queue_ns: u64,
    queue_ops: u64,
    workload_us: Vec<f64>,
    simulate_us: [Vec<f64>; 12],
    simulate_ns: u64,
    session_ns: u64,
    sessions: u64,
    totals: Totals,
    /// Per-point `aggregate_point*` times in microseconds.
    pub aggregate_us: Vec<f64>,
}

impl Layers {
    /// Fetch one replication's trace through `cache`, timing the call. A
    /// miss also records the generation time, the trace size, and a replay
    /// of the trace's contact starts through the event queue.
    pub fn build_trace(
        &mut self,
        tracer: &mut Tracer,
        point: u64,
        mobility: Mobility,
        trace_seed: u64,
        rep: u64,
        cache: &TraceCache,
    ) -> Arc<ContactTrace> {
        let misses = cache.stats().1;
        let t0 = Instant::now();
        let trace = mobility.build_cached(trace_seed, rep, cache);
        let t1 = Instant::now();
        tracer.leaf("mobility", point, t0, t1);
        if cache.stats().1 > misses {
            let model = model_index(mobility);
            self.gen_ms[model].push((t1 - t0).as_secs_f64() * 1e3);
            self.trace_contacts[model] += trace.contacts().len() as u64;
            self.traces[model] += 1;
            self.replay_event_queue(tracer, point, &trace);
        }
        trace
    }

    /// Schedule every contact start of `trace` into an `EventQueue`, then
    /// drain it: the substrate cost the engine pays per trace event.
    fn replay_event_queue(&mut self, tracer: &mut Tracer, point: u64, trace: &ContactTrace) {
        let t0 = Instant::now();
        let mut queue = EventQueue::with_capacity(trace.contacts().len());
        for (i, c) in trace.contacts().iter().enumerate() {
            queue.schedule(c.start, i as u32);
        }
        let mut checksum = 0u32;
        while let Some((_, i)) = queue.pop() {
            checksum ^= i;
        }
        std::hint::black_box(checksum);
        let t1 = Instant::now();
        tracer.leaf("probe.event_queue", point, t0, t1);
        self.queue_ns += (t1 - t0).as_nanos() as u64;
        self.queue_ops += 2 * trace.contacts().len() as u64;
    }

    /// Build the workload and simulate one replication on the canonical
    /// streams of `root` (workload on `derive(2 rep + 1)`, simulation on
    /// `derive(2 rep)`).
    #[allow(clippy::too_many_arguments)]
    pub fn replicate(
        &mut self,
        tracer: &mut Tracer,
        point: u64,
        trace: &ContactTrace,
        load: u32,
        root: &SimRng,
        rep: u64,
        sim_config: &SimConfig,
        protocol: usize,
    ) -> RunMetrics {
        let mut wl_rng = root.derive(rep * 2 + 1);
        let sim_rng = root.derive(rep * 2);
        let t0 = Instant::now();
        let workload = Workload::single_random_flow(load, trace.node_count(), &mut wl_rng);
        let t1 = Instant::now();
        tracer.leaf("workload", point, t0, t1);
        self.workload_us.push((t1 - t0).as_secs_f64() * 1e6);

        let mut clock = SessionClock::default();
        tracer.begin("engine", point);
        let t0 = Instant::now();
        let m = simulate_probed(trace, &workload, sim_config, sim_rng, &mut clock);
        let ns = t0.elapsed().as_nanos() as u64;
        tracer.aggregate("session", point, clock.ns);
        tracer.end();
        self.simulate_us[protocol].push(ns as f64 * 1e-3);
        self.simulate_ns += ns;
        self.session_ns += clock.ns;
        self.sessions += clock.sessions;
        self.totals.add(&m);
        m
    }

    /// Fold trace-cache counters into the totals.
    pub fn absorb_caches(&mut self, caches: &[TraceCache]) {
        for cache in caches {
            let (hits, misses) = cache.stats();
            self.cache_hits += hits;
            self.cache_misses += misses;
        }
    }

    /// Write the layer metrics. Shares are self time over the wall time
    /// of the spans named in `roots`, less the event-queue replay (a probe
    /// the untraced run does not pay).
    pub fn report(&self, tracer: &Tracer, roots: &[&str], outcome: &mut Outcome) {
        let own = tracer.self_ms();
        let own_ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let wall: f64 = roots.iter().map(|r| tracer.total_ms(r)).sum::<f64>()
            - tracer.total_ms("probe.event_queue");
        let share = |ms: f64| if wall > 0.0 { ms / wall } else { 0.0 };
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };

        for (i, model) in MODEL_LABELS.iter().enumerate() {
            outcome.set(format!("mobility.gen_ms.{model}"), median(&self.gen_ms[i]));
            outcome.set(
                format!("mobility.contacts_per_trace.{model}"),
                ratio(self.trace_contacts[i], self.traces[i]),
            );
        }
        outcome.set("mobility.cache_hits", self.cache_hits as f64);
        outcome.set("mobility.cache_misses", self.cache_misses as f64);
        outcome.set(
            "mobility.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        outcome.set("mobility.share", share(own_ms("mobility")));
        outcome.set("workload.build_us", median(&self.workload_us));
        for (i, proto) in PROTOCOL_LABELS.iter().enumerate() {
            outcome.set(
                format!("engine.simulate_us.{proto}"),
                median(&self.simulate_us[i]),
            );
        }
        let t = &self.totals;
        outcome.set("engine.ns_per_contact", ratio(self.simulate_ns, t.contacts));
        for (name, v) in [
            ("engine.contacts", t.contacts),
            ("engine.transmissions", t.transmissions),
            ("engine.signaling_bytes", t.signaling_bytes),
            ("engine.ack_records", t.ack_records),
            ("engine.drops", t.drops),
            ("engine.false_positive_tx", t.false_positive_tx),
            ("engine.faults.skipped", t.skipped),
            ("engine.faults.truncated", t.truncated),
            ("engine.faults.ack_lost", t.ack_lost),
            ("engine.faults.churn_wipes", t.churn_wipes),
        ] {
            outcome.set(name, v as f64);
        }
        outcome.set(
            "engine.useful_tx_ratio",
            ratio(t.delivered, t.transmissions),
        );
        outcome.set("engine.share", share(own_ms("engine") + own_ms("session")));
        outcome.set("engine.outside_session_ms", own_ms("engine"));
        outcome.set("session.self_ms", own_ms("session"));
        outcome.set(
            "session.us_per_contact",
            ratio(self.session_ns, self.sessions) * 1e-3,
        );
        outcome.set(
            "sim.event_queue_ns_per_op",
            ratio(self.queue_ns, self.queue_ops),
        );
        outcome.set("experiments.aggregate_us", median(&self.aggregate_us));
    }
}
