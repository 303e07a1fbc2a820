//! Zero-overhead event tracing for the simulation hot path.
//!
//! The paper's whole evaluation is built on *levels over time* — buffer
//! occupancy and duplication are time-weighted signals — but a frozen
//! [`RunMetrics`](crate::metrics::RunMetrics) can only say what the mean
//! was, never *when* a buffer saturated or *why* delivery stalled. This
//! module adds per-event visibility without touching the hot path's cost
//! model:
//!
//! * [`Probe`] is a **monomorphized** observer trait threaded through
//!   [`simulate_probed`](crate::simulation::simulate_probed) and
//!   [`SessionCtx`](crate::session::SessionCtx) as a generic parameter
//!   (never `dyn`). Every emission site is guarded by the associated
//!   constant `Probe::ENABLED`, so with [`NullProbe`] the branch is
//!   `if false` and the event — including the construction of its
//!   arguments — is dead code the optimizer deletes. The instrumented
//!   simulator with `NullProbe` compiles to the same machine code as the
//!   pre-probe simulator. perfbench's `figure-grid` workload runs that
//!   path, and CI's perf gate holds it to the parent commit's speed.
//! * [`Event`] is the typed event vocabulary: contact begin/end, stores,
//!   drops (with reason), transmissions, deliveries, immunity merges and
//!   ack-driven purges. The stream is *complete*: [`replay_metrics`]
//!   reconstructs a bit-identical `RunMetrics` from the events alone,
//!   which is also how the event schema is tested.
//! * Concrete sinks: [`MemoryProbe`] (a `Vec<Event>`), [`CountingProbe`]
//!   (overhead measurements), [`JsonlProbe`] (one JSON object per line,
//!   deterministic field order — byte-identical for a fixed seed no matter
//!   how replications are scheduled), and [`TimeSeriesProbe`] (sampled
//!   occupancy/duplication/delivery curves plus log-bucketed histograms
//!   of delay, inter-contact gaps and per-contact bundle counts).

use crate::bundle::{BundleId, FlowId, Workload};
use crate::metrics::{DropReason, MetricsCollector, RunMetrics};
use crate::session::SimConfig;
use dtn_sim::json::Value;
use dtn_sim::{Histogram, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One typed simulation event. Times are absolute simulation clock
/// readings in milliseconds (`SimTime::as_millis`), node fields are dense
/// node indices, bundles are `(flow, seq)` pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A contact session started (mirrors `contacts_processed`).
    ContactBegin {
        /// Lower-ID endpoint.
        a: u32,
        /// Higher-ID endpoint.
        b: u32,
        /// Session start (ms).
        t: u64,
    },
    /// A contact session finished its transfer phases.
    ContactEnd {
        /// Lower-ID endpoint.
        a: u32,
        /// Higher-ID endpoint.
        b: u32,
        /// Session start (ms) — the engine processes contacts at their
        /// start time; the end marker shares that timestamp.
        t: u64,
        /// Transfer slots consumed by both phases together.
        slots_used: u64,
        /// Summary advertisement bytes charged during the session (an
        /// exact vector's bitmap or a Bloom digest's wire size).
        control_bytes: u64,
        /// Transmissions the session suppressed because a Bloom digest
        /// falsely claimed possession (always 0 under exact summaries).
        false_positives: u64,
    },
    /// A copy was stored (origin injection or relay store).
    Store {
        /// Flow id.
        flow: u32,
        /// Sequence number within the flow.
        seq: u32,
        /// Storing node.
        node: u32,
        /// Store time (ms).
        t: u64,
    },
    /// A stored copy left a node for `reason` (TTL expiry or eviction;
    /// immunity purges are the dedicated [`Event::AckPurge`]).
    Drop {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Node that dropped the copy.
        node: u32,
        /// Drop time (ms).
        t: u64,
        /// Why the copy left.
        reason: DropReason,
    },
    /// An incoming copy was refused (full buffer under `RejectNew`, or a
    /// zero-TTL dead-on-arrival store).
    Reject {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Refusing node.
        node: u32,
        /// Rejection time (ms).
        t: u64,
    },
    /// One bundle transmission occupied a transfer slot.
    Transmit {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Session start (ms).
        t: u64,
        /// When the transfer slot completed (ms).
        done: u64,
        /// True when failure injection lost the transfer in flight.
        lost: bool,
    },
    /// A bundle reached its destination for the first time.
    Deliver {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Destination node.
        node: u32,
        /// Session start (ms).
        t: u64,
        /// Slot completion time (ms) — the delay metric's timestamp.
        done: u64,
    },
    /// A node's immunity table changed size: `sent` records were metered
    /// onto the wire (0 when the node did not share) and the table now
    /// holds `records` records after merge/purge/delivery.
    ImmunityMerge {
        /// The node whose table changed.
        node: u32,
        /// Records this node transmitted in the exchange.
        sent: u64,
        /// Records the node stores after the update.
        records: u64,
        /// Exchange time (ms).
        t: u64,
    },
    /// A stored copy was purged because the immunity table now covers it.
    AckPurge {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Purging node.
        node: u32,
        /// Purge time (ms).
        t: u64,
    },
    /// A node went down (churn fault injection).
    FaultDown {
        /// The churned node.
        node: u32,
        /// Down time (ms).
        t: u64,
    },
    /// A node came back up (churn fault injection).
    FaultUp {
        /// The restarting node.
        node: u32,
        /// Restart time (ms).
        t: u64,
        /// True when crash semantics wiped the node's volatile state
        /// (the wipe's individual drops are their own [`Event::Drop`]s
        /// with [`DropReason::Churn`]).
        wiped: bool,
    },
    /// A contact was skipped entirely because an endpoint was down.
    ContactSkipped {
        /// Lower-ID endpoint.
        a: u32,
        /// Higher-ID endpoint.
        b: u32,
        /// The missed contact's start (ms).
        t: u64,
    },
    /// A contact session was truncated mid-exchange: `slots_lost`
    /// transfer slots of its capacity were forfeited.
    SessionTruncated {
        /// Lower-ID endpoint.
        a: u32,
        /// Higher-ID endpoint.
        b: u32,
        /// Session start (ms).
        t: u64,
        /// Capacity slots lost to the truncation.
        slots_lost: u64,
    },
    /// One direction of an immunity-table exchange was lost in flight
    /// (control-plane fault injection). The sender's signaling cost was
    /// still charged — it cannot know the reception failed.
    AckLost {
        /// The node whose shared table was lost.
        from: u32,
        /// The node that never received it.
        to: u32,
        /// Exchange time (ms).
        t: u64,
    },
}

impl Event {
    /// The event's simulation timestamp in milliseconds.
    pub fn time_ms(&self) -> u64 {
        match *self {
            Event::ContactBegin { t, .. }
            | Event::ContactEnd { t, .. }
            | Event::Store { t, .. }
            | Event::Drop { t, .. }
            | Event::Reject { t, .. }
            | Event::Transmit { t, .. }
            | Event::Deliver { t, .. }
            | Event::ImmunityMerge { t, .. }
            | Event::AckPurge { t, .. }
            | Event::FaultDown { t, .. }
            | Event::FaultUp { t, .. }
            | Event::ContactSkipped { t, .. }
            | Event::SessionTruncated { t, .. }
            | Event::AckLost { t, .. } => t,
        }
    }

    /// Append this event as one JSON line (`{...}\n`). Field order is
    /// fixed, integers only — the encoding is byte-deterministic.
    pub fn write_jsonl(&self, out: &mut String) {
        match *self {
            Event::ContactBegin { a, b, t } => {
                writeln!(
                    out,
                    "{{\"ev\":\"contact_begin\",\"t\":{t},\"a\":{a},\"b\":{b}}}"
                )
            }
            Event::ContactEnd {
                a,
                b,
                t,
                slots_used,
                control_bytes,
                false_positives,
            } => writeln!(
                out,
                "{{\"ev\":\"contact_end\",\"t\":{t},\"a\":{a},\"b\":{b},\
                 \"slots_used\":{slots_used},\"control_bytes\":{control_bytes},\
                 \"false_positives\":{false_positives}}}"
            ),
            Event::Store { flow, seq, node, t } => writeln!(
                out,
                "{{\"ev\":\"store\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\"node\":{node}}}"
            ),
            Event::Drop {
                flow,
                seq,
                node,
                t,
                reason,
            } => {
                let reason = match reason {
                    DropReason::Expired => "expired",
                    DropReason::Evicted => "evicted",
                    DropReason::Immunized => "immunized",
                    DropReason::Churn => "churn",
                };
                writeln!(
                    out,
                    "{{\"ev\":\"drop\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\
                     \"node\":{node},\"reason\":\"{reason}\"}}"
                )
            }
            Event::Reject { flow, seq, node, t } => writeln!(
                out,
                "{{\"ev\":\"reject\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\"node\":{node}}}"
            ),
            Event::Transmit {
                flow,
                seq,
                from,
                to,
                t,
                done,
                lost,
            } => writeln!(
                out,
                "{{\"ev\":\"transmit\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\
                 \"from\":{from},\"to\":{to},\"done\":{done},\"lost\":{lost}}}"
            ),
            Event::Deliver {
                flow,
                seq,
                node,
                t,
                done,
            } => writeln!(
                out,
                "{{\"ev\":\"deliver\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\
                 \"node\":{node},\"done\":{done}}}"
            ),
            Event::ImmunityMerge {
                node,
                sent,
                records,
                t,
            } => writeln!(
                out,
                "{{\"ev\":\"immunity_merge\",\"t\":{t},\"node\":{node},\
                 \"sent\":{sent},\"records\":{records}}}"
            ),
            Event::AckPurge { flow, seq, node, t } => writeln!(
                out,
                "{{\"ev\":\"ack_purge\",\"t\":{t},\"flow\":{flow},\"seq\":{seq},\"node\":{node}}}"
            ),
            Event::FaultDown { node, t } => {
                writeln!(out, "{{\"ev\":\"fault_down\",\"t\":{t},\"node\":{node}}}")
            }
            Event::FaultUp { node, t, wiped } => writeln!(
                out,
                "{{\"ev\":\"fault_up\",\"t\":{t},\"node\":{node},\"wiped\":{wiped}}}"
            ),
            Event::ContactSkipped { a, b, t } => {
                writeln!(
                    out,
                    "{{\"ev\":\"contact_skipped\",\"t\":{t},\"a\":{a},\"b\":{b}}}"
                )
            }
            Event::SessionTruncated {
                a,
                b,
                t,
                slots_lost,
            } => writeln!(
                out,
                "{{\"ev\":\"session_truncated\",\"t\":{t},\"a\":{a},\"b\":{b},\
                 \"slots_lost\":{slots_lost}}}"
            ),
            Event::AckLost { from, to, t } => writeln!(
                out,
                "{{\"ev\":\"ack_lost\",\"t\":{t},\"from\":{from},\"to\":{to}}}"
            ),
        }
        .expect("String writes are infallible");
    }

    /// One event rendered as its JSON line (without trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s.pop();
        s
    }

    /// Parse one JSON line produced by [`Event::write_jsonl`]. Returns
    /// `None` for manifest/separator lines and anything else that is not
    /// an event record.
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let doc = Value::parse(line).ok()?;
        let u64_ = |key: &str| doc.get(key)?.as_u64();
        let u32_ = |key: &str| doc.get(key)?.as_u32();
        let bool_ = |key: &str| doc.get(key)?.as_bool();
        let t = u64_("t")?;
        match doc.get("ev")?.as_str()? {
            "contact_begin" => Some(Event::ContactBegin {
                a: u32_("a")?,
                b: u32_("b")?,
                t,
            }),
            "contact_end" => Some(Event::ContactEnd {
                a: u32_("a")?,
                b: u32_("b")?,
                t,
                slots_used: u64_("slots_used")?,
                control_bytes: u64_("control_bytes")?,
                false_positives: u64_("false_positives")?,
            }),
            "store" => Some(Event::Store {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                node: u32_("node")?,
                t,
            }),
            "drop" => Some(Event::Drop {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                node: u32_("node")?,
                t,
                reason: match doc.get("reason")?.as_str()? {
                    "expired" => DropReason::Expired,
                    "evicted" => DropReason::Evicted,
                    "immunized" => DropReason::Immunized,
                    "churn" => DropReason::Churn,
                    _ => return None,
                },
            }),
            "reject" => Some(Event::Reject {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                node: u32_("node")?,
                t,
            }),
            "transmit" => Some(Event::Transmit {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                from: u32_("from")?,
                to: u32_("to")?,
                t,
                done: u64_("done")?,
                lost: bool_("lost")?,
            }),
            "deliver" => Some(Event::Deliver {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                node: u32_("node")?,
                t,
                done: u64_("done")?,
            }),
            "immunity_merge" => Some(Event::ImmunityMerge {
                node: u32_("node")?,
                sent: u64_("sent")?,
                records: u64_("records")?,
                t,
            }),
            "ack_purge" => Some(Event::AckPurge {
                flow: u32_("flow")?,
                seq: u32_("seq")?,
                node: u32_("node")?,
                t,
            }),
            "fault_down" => Some(Event::FaultDown {
                node: u32_("node")?,
                t,
            }),
            "fault_up" => Some(Event::FaultUp {
                node: u32_("node")?,
                t,
                wiped: bool_("wiped")?,
            }),
            "contact_skipped" => Some(Event::ContactSkipped {
                a: u32_("a")?,
                b: u32_("b")?,
                t,
            }),
            "session_truncated" => Some(Event::SessionTruncated {
                a: u32_("a")?,
                b: u32_("b")?,
                t,
                slots_lost: u64_("slots_lost")?,
            }),
            "ack_lost" => Some(Event::AckLost {
                from: u32_("from")?,
                to: u32_("to")?,
                t,
            }),
            _ => None,
        }
    }

    /// The bundle this event concerns, if any.
    pub fn bundle(&self) -> Option<BundleId> {
        match *self {
            Event::Store { flow, seq, .. }
            | Event::Drop { flow, seq, .. }
            | Event::Reject { flow, seq, .. }
            | Event::Transmit { flow, seq, .. }
            | Event::Deliver { flow, seq, .. }
            | Event::AckPurge { flow, seq, .. } => Some(BundleId {
                flow: FlowId(flow),
                seq,
            }),
            _ => None,
        }
    }
}

/// A simulation observer. The trait is designed for *monomorphization*:
/// it is a generic parameter of the simulation driver, never a trait
/// object, and every emission site checks the compile-time [`ENABLED`]
/// flag first, so a disabled probe costs literally nothing — neither the
/// call nor the construction of the event's arguments survives into the
/// optimized build.
///
/// [`ENABLED`]: Probe::ENABLED
pub trait Probe {
    /// Compile-time switch: when `false`, emission sites are dead code.
    const ENABLED: bool = true;

    /// Observe one event. Called in strict simulation order (the order the
    /// metrics collector itself is fed), which is what makes event streams
    /// replayable into bit-identical metrics.
    fn record(&mut self, event: &Event);
}

/// The disabled probe: `ENABLED = false`, so every instrumented call site
/// compiles away and `simulate` is bit-identical (and equally fast) to the
/// un-instrumented simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// Buffers every event in memory (tests, replay harnesses).
#[derive(Clone, Debug, Default)]
pub struct MemoryProbe {
    /// The captured stream, in emission order.
    pub events: Vec<Event>,
}

impl Probe for MemoryProbe {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Counts events without storing them — the cheapest *enabled* probe, used
/// by the overhead guard to price the instrumentation itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingProbe {
    /// Events observed.
    pub events: u64,
}

impl Probe for CountingProbe {
    #[inline]
    fn record(&mut self, _event: &Event) {
        self.events += 1;
    }
}

/// Streams events as JSON lines into an in-memory buffer. One probe
/// instance observes one replication; the caller owns writing buffers to
/// disk (in replication order, so the file is byte-identical no matter
/// how the replications were scheduled across threads).
#[derive(Clone, Debug, Default)]
pub struct JsonlProbe {
    buf: String,
}

impl JsonlProbe {
    /// An empty probe.
    pub fn new() -> JsonlProbe {
        JsonlProbe::default()
    }

    /// The JSONL captured so far (one `{...}\n` per event).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consume the probe, returning its JSONL buffer.
    pub fn into_jsonl(self) -> String {
        self.buf
    }
}

impl Probe for JsonlProbe {
    fn record(&mut self, event: &Event) {
        event.write_jsonl(&mut self.buf);
    }
}

/// Fan one event stream out to two probes. `ENABLED` is the OR of the
/// parts, and each part is still guarded by its own flag, so pairing with
/// [`NullProbe`] adds nothing.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, event: &Event) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

/// One sample of the time-series telemetry curves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesSample {
    /// Sample instant.
    pub t: SimTime,
    /// Global buffer occupancy: `(stored copies + record cost) / (nodes ×
    /// capacity)` — the instantaneous version of the paper's occupancy
    /// level, aggregated over all nodes.
    pub occupancy: f64,
    /// Instantaneous duplication over undelivered, extant bundles.
    pub duplication: f64,
    /// Bundles delivered so far.
    pub delivered: u32,
    /// Bundle transmissions so far.
    pub transmissions: u64,
}

/// Records sampled level curves and distribution histograms from the event
/// stream: occupancy/duplication/delivered over time, plus log-bucketed
/// histograms of delivery delay, per-node inter-contact gaps, and bundles
/// moved per contact.
#[derive(Clone, Debug)]
pub struct TimeSeriesProbe {
    node_count: usize,
    capacity: usize,
    ack_slot_cost: f64,
    interval: SimDuration,
    next_sample: SimTime,

    stored: u64,
    records_per_node: Vec<u64>,
    records_total: u64,
    delivered: u32,
    transmissions: u64,
    bundles: HashMap<(u32, u32), BundleLevel>,
    live_copy_sum: u64,
    live_bundle_count: u32,
    last_contact: Vec<Option<SimTime>>,

    /// The sampled curves, in time order.
    pub samples: Vec<SeriesSample>,
    /// Delivery-delay histogram (slot completion time, seconds — the
    /// paper's workloads inject at t = 0, so completion *is* delay).
    pub delay: Histogram,
    /// Per-node inter-contact gap histogram (seconds).
    pub contact_gap: Histogram,
    /// Bundles moved per contact session.
    pub bundles_per_contact: Histogram,
}

#[derive(Clone, Copy, Debug, Default)]
struct BundleLevel {
    copies: u32,
    delivered: bool,
}

impl TimeSeriesProbe {
    /// A probe for a run over `node_count` nodes of the given relay
    /// capacity, sampling the level curves every `interval`.
    pub fn new(
        node_count: usize,
        capacity: usize,
        ack_slot_cost: f64,
        interval: SimDuration,
    ) -> TimeSeriesProbe {
        TimeSeriesProbe {
            node_count,
            capacity,
            ack_slot_cost,
            interval: if interval.is_zero() {
                SimDuration::from_secs(1)
            } else {
                interval
            },
            next_sample: SimTime::ZERO,
            stored: 0,
            records_per_node: vec![0; node_count],
            records_total: 0,
            delivered: 0,
            transmissions: 0,
            bundles: HashMap::new(),
            live_copy_sum: 0,
            live_bundle_count: 0,
            last_contact: vec![None; node_count],
            samples: Vec::new(),
            delay: Histogram::new(),
            contact_gap: Histogram::new(),
            bundles_per_contact: Histogram::new(),
        }
    }

    /// A probe sized for `config` (paper ack-slot cost and capacity).
    pub fn for_config(node_count: usize, config: &SimConfig, interval: SimDuration) -> Self {
        TimeSeriesProbe::new(
            node_count,
            config.buffer_capacity,
            config.ack_slot_cost,
            interval,
        )
    }

    fn level_sample(&self, t: SimTime) -> SeriesSample {
        let used = self.stored as f64 + self.ack_slot_cost * self.records_total as f64;
        let occupancy = used / (self.node_count as f64 * self.capacity as f64).max(1.0);
        let duplication = if self.live_bundle_count == 0 {
            0.0
        } else {
            self.live_copy_sum as f64 / (self.node_count as f64 * self.live_bundle_count as f64)
        };
        SeriesSample {
            t,
            occupancy,
            duplication,
            delivered: self.delivered,
            transmissions: self.transmissions,
        }
    }

    /// Emit samples for every interval boundary at or before `t` (the
    /// curves are piecewise-constant: the pre-event level holds up to and
    /// including the boundary).
    fn sample_up_to(&mut self, t: SimTime) {
        while self.next_sample <= t {
            let s = self.level_sample(self.next_sample);
            self.samples.push(s);
            self.next_sample += self.interval;
        }
    }

    /// Close the run: emit the trailing samples through `end`.
    pub fn finish(&mut self, end: SimTime) {
        self.sample_up_to(end);
    }

    fn on_store(&mut self, flow: u32, seq: u32) {
        self.stored += 1;
        let level = self.bundles.entry((flow, seq)).or_default();
        level.copies += 1;
        if !level.delivered {
            if level.copies == 1 {
                self.live_bundle_count += 1;
            }
            self.live_copy_sum += 1;
        }
    }

    fn on_drop(&mut self, flow: u32, seq: u32) {
        self.stored = self.stored.saturating_sub(1);
        if let Some(level) = self.bundles.get_mut(&(flow, seq)) {
            level.copies = level.copies.saturating_sub(1);
            if !level.delivered {
                self.live_copy_sum = self.live_copy_sum.saturating_sub(1);
                if level.copies == 0 {
                    self.live_bundle_count = self.live_bundle_count.saturating_sub(1);
                }
            }
        }
    }
}

impl Probe for TimeSeriesProbe {
    fn record(&mut self, event: &Event) {
        self.sample_up_to(SimTime::from_millis(event.time_ms()));
        match *event {
            Event::ContactBegin { a, b, t } => {
                let t = SimTime::from_millis(t);
                for node in [a as usize, b as usize] {
                    if let Some(slot) = self.last_contact.get_mut(node) {
                        if let Some(prev) = *slot {
                            self.contact_gap
                                .record(t.saturating_since(prev).as_secs_f64());
                        }
                        *slot = Some(t);
                    }
                }
            }
            Event::ContactEnd { slots_used, .. } => {
                self.bundles_per_contact.record(slots_used as f64);
            }
            Event::Store { flow, seq, .. } => self.on_store(flow, seq),
            Event::Drop { flow, seq, .. } | Event::AckPurge { flow, seq, .. } => {
                self.on_drop(flow, seq)
            }
            Event::Reject { .. } => {}
            Event::Transmit { lost, .. } => {
                self.transmissions += 1;
                let _ = lost;
            }
            Event::Deliver {
                flow, seq, done, ..
            } => {
                self.delivered += 1;
                self.delay.record(SimTime::from_millis(done).as_secs_f64());
                let level = self.bundles.entry((flow, seq)).or_default();
                if !level.delivered {
                    level.delivered = true;
                    if level.copies > 0 {
                        self.live_copy_sum = self.live_copy_sum.saturating_sub(level.copies as u64);
                        self.live_bundle_count = self.live_bundle_count.saturating_sub(1);
                    }
                }
            }
            Event::ImmunityMerge { node, records, .. } => {
                if let Some(slot) = self.records_per_node.get_mut(node as usize) {
                    self.records_total = self.records_total - *slot + records;
                    *slot = records;
                }
            }
            // Fault markers carry no level information of their own: a
            // crash wipe's buffer/immunity effects arrive as their own
            // Drop and ImmunityMerge events.
            Event::FaultDown { .. }
            | Event::FaultUp { .. }
            | Event::ContactSkipped { .. }
            | Event::SessionTruncated { .. }
            | Event::AckLost { .. } => {}
        }
    }
}

/// Rebuild a [`RunMetrics`] from a captured event stream.
///
/// The event vocabulary mirrors every mutation of the live
/// [`MetricsCollector`] in emission order, so feeding the events back
/// through a fresh collector reproduces the original metrics **bit for
/// bit** — including the time-weighted occupancy and duplication signals,
/// whose values depend on the exact update order. `end` is the original
/// run's observation end (`RunMetrics::end_time`).
pub fn replay_metrics(
    events: impl IntoIterator<Item = Event>,
    workload: &Workload,
    config: &SimConfig,
    node_count: usize,
    end: SimTime,
) -> RunMetrics {
    let mut metrics = MetricsCollector::new(
        node_count,
        config.buffer_capacity,
        workload.total_bundles(),
        config.ack_slot_cost,
    );
    metrics.start(SimTime::ZERO);
    let idx = |flow: u32, seq: u32| {
        workload.bundle_index(BundleId {
            flow: FlowId(flow),
            seq,
        })
    };
    for event in events {
        match event {
            Event::ContactBegin { .. } => metrics.contacts_processed += 1,
            Event::ContactEnd {
                control_bytes,
                false_positives,
                ..
            } => {
                metrics.control_bytes_sent += control_bytes;
                metrics.signaling_bytes += control_bytes;
                metrics.false_positive_transmissions += false_positives;
            }
            Event::Store { flow, seq, node, t } => {
                metrics.on_store(idx(flow, seq), node as usize, SimTime::from_millis(t))
            }
            Event::Drop {
                flow,
                seq,
                node,
                t,
                reason,
            } => metrics.on_drop(
                idx(flow, seq),
                node as usize,
                SimTime::from_millis(t),
                reason,
            ),
            Event::Reject { .. } => metrics.rejections += 1,
            Event::Transmit { lost, .. } => {
                metrics.bundle_transmissions += 1;
                metrics.payload_bytes_sent += config.bundle_bytes;
                if lost {
                    metrics.transfer_losses += 1;
                }
            }
            Event::Deliver {
                flow, seq, t, done, ..
            } => metrics.on_deliver(
                idx(flow, seq),
                SimTime::from_millis(t),
                SimTime::from_millis(done),
            ),
            Event::ImmunityMerge {
                node,
                sent,
                records,
                t,
            } => {
                metrics.ack_records_sent += sent;
                metrics.control_bytes_sent += sent * config.ack_record_bytes;
                metrics.set_ack_records(node as usize, records, SimTime::from_millis(t));
            }
            Event::AckPurge { flow, seq, node, t } => metrics.on_drop(
                idx(flow, seq),
                node as usize,
                SimTime::from_millis(t),
                DropReason::Immunized,
            ),
            Event::FaultDown { .. } => {}
            Event::FaultUp { wiped, .. } => {
                if wiped {
                    metrics.churn_wipes += 1;
                }
            }
            Event::ContactSkipped { .. } => metrics.contacts_skipped += 1,
            Event::SessionTruncated { .. } => metrics.sessions_truncated += 1,
            Event::AckLost { .. } => metrics.ack_losses += 1,
        }
    }
    metrics.finish(end)
}

/// Parse a JSONL capture (ignoring non-event lines such as manifests) and
/// replay it into a [`RunMetrics`]; see [`replay_metrics`].
pub fn replay_jsonl(
    jsonl: &str,
    workload: &Workload,
    config: &SimConfig,
    node_count: usize,
    end: SimTime,
) -> RunMetrics {
    replay_metrics(
        jsonl.lines().filter_map(Event::parse_jsonl),
        workload,
        config,
        node_count,
        end,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = [
            Event::ContactBegin { a: 1, b: 2, t: 100 },
            Event::ContactEnd {
                a: 1,
                b: 2,
                t: 100,
                slots_used: 3,
                control_bytes: 17,
                false_positives: 2,
            },
            Event::Store {
                flow: 0,
                seq: 4,
                node: 2,
                t: 100,
            },
            Event::Drop {
                flow: 0,
                seq: 4,
                node: 2,
                t: 200,
                reason: DropReason::Evicted,
            },
            Event::Reject {
                flow: 1,
                seq: 0,
                node: 9,
                t: 250,
            },
            Event::Transmit {
                flow: 0,
                seq: 4,
                from: 1,
                to: 2,
                t: 100,
                done: 200_000,
                lost: true,
            },
            Event::Deliver {
                flow: 0,
                seq: 4,
                node: 2,
                t: 100,
                done: 200_000,
            },
            Event::ImmunityMerge {
                node: 2,
                sent: 5,
                records: 9,
                t: 300,
            },
            Event::AckPurge {
                flow: 0,
                seq: 4,
                node: 2,
                t: 300,
            },
            Event::Drop {
                flow: 2,
                seq: 1,
                node: 4,
                t: 350,
                reason: DropReason::Churn,
            },
            Event::FaultDown { node: 3, t: 400 },
            Event::FaultUp {
                node: 3,
                t: 500,
                wiped: true,
            },
            Event::ContactSkipped { a: 1, b: 3, t: 450 },
            Event::SessionTruncated {
                a: 1,
                b: 2,
                t: 600,
                slots_lost: 2,
            },
            Event::AckLost {
                from: 2,
                to: 1,
                t: 700,
            },
        ];
        for ev in events {
            let line = ev.to_jsonl();
            assert_eq!(Event::parse_jsonl(&line), Some(ev), "line: {line}");
            // An id past u32 is refused, not wrapped back into range.
            for key in ["a", "b", "flow", "seq", "node", "from", "to"] {
                let field = format!("\"{key}\":");
                let Some(at) = line.find(&field).map(|i| i + field.len()) else {
                    continue;
                };
                let digits = line[at..].find([',', '}']).expect("field ends");
                let id: u64 = line[at..at + digits].parse().expect("an id");
                let widened = format!("{}{}{}", &line[..at], id + (1 << 32), &line[at + digits..]);
                assert_eq!(Event::parse_jsonl(&widened), None, "{widened}");
            }
        }
    }

    #[test]
    fn a_faulted_trace_from_the_previous_reader_round_trips() {
        // A faulted `dtnsim --trace` capture written before the probe
        // decoded through `dtn_sim::json`, trimmed to its manifest, rep
        // markers and one line per event shape.
        let fixture = include_str!("../../../tests/fixtures/faulted_trace.jsonl");
        let mut events = 0;
        for line in fixture.lines() {
            match Event::parse_jsonl(line) {
                Some(ev) => {
                    assert_eq!(ev.to_jsonl(), line);
                    events += 1;
                }
                None => assert!(!line.contains("\"ev\""), "event line refused: {line}"),
            }
        }
        assert_eq!(events, 15, "every event line decodes");
    }

    #[test]
    fn parse_rejects_non_event_lines() {
        assert_eq!(Event::parse_jsonl("{\"manifest\":true}"), None);
        assert_eq!(Event::parse_jsonl(""), None);
        assert_eq!(Event::parse_jsonl("not json"), None);
    }

    // Compile-time proof that disabledness propagates through composition:
    // these are constant expressions, so a wrong `ENABLED` breaks the build.
    const _: () = assert!(!NullProbe::ENABLED);
    const _: () = assert!(!<(NullProbe, NullProbe) as Probe>::ENABLED);
    const _: () = assert!(<(NullProbe, MemoryProbe) as Probe>::ENABLED);

    #[test]
    fn pair_probe_fans_out() {
        let mut pair = (MemoryProbe::default(), CountingProbe::default());
        let ev = Event::ContactBegin { a: 0, b: 1, t: 5 };
        pair.record(&ev);
        assert_eq!(pair.0.events, vec![ev]);
        assert_eq!(pair.1.events, 1);
    }

    #[test]
    fn time_series_probe_samples_levels() {
        // 2 nodes, capacity 10: one store at t=0, dropped at t=30.
        let mut probe = TimeSeriesProbe::new(2, 10, 0.0, SimDuration::from_secs(10));
        probe.record(&Event::Store {
            flow: 0,
            seq: 0,
            node: 0,
            t: 0,
        });
        probe.record(&Event::Drop {
            flow: 0,
            seq: 0,
            node: 0,
            t: 30_000,
            reason: DropReason::Expired,
        });
        probe.finish(SimTime::from_secs(50));
        let occ: Vec<f64> = probe.samples.iter().map(|s| s.occupancy).collect();
        // t=0 sampled before the store lands; t=10,20,30 hold 1/20; the
        // drop zeroes the level for t=40,50.
        assert_eq!(occ.len(), 6);
        assert_eq!(occ[0], 0.0);
        assert!((occ[1] - 0.05).abs() < 1e-12);
        assert!((occ[3] - 0.05).abs() < 1e-12, "level holds through t=30");
        assert_eq!(occ[4], 0.0);
    }

    #[test]
    fn time_series_probe_histograms() {
        let mut probe = TimeSeriesProbe::new(4, 10, 0.0, SimDuration::from_secs(1000));
        probe.record(&Event::ContactBegin { a: 0, b: 1, t: 0 });
        probe.record(&Event::ContactEnd {
            a: 0,
            b: 1,
            t: 0,
            slots_used: 2,
            control_bytes: 1,
            false_positives: 0,
        });
        probe.record(&Event::ContactBegin {
            a: 0,
            b: 2,
            t: 40_000,
        });
        probe.record(&Event::Deliver {
            flow: 0,
            seq: 0,
            node: 1,
            t: 0,
            done: 100_000,
        });
        assert_eq!(probe.contact_gap.count(), 1, "one 40 s gap for node 0");
        let gap = probe.contact_gap.quantile(0.5).unwrap();
        assert!((38.0..=42.0).contains(&gap), "gap ≈ 40 s, got {gap}");
        assert_eq!(probe.bundles_per_contact.count(), 1);
        assert_eq!(probe.delay.count(), 1);
        assert!((probe.delay.mean() - 100.0).abs() < 1e-9);
    }
}
