//! Online conservation auditing of the simulation event stream.
//!
//! The probe layer (§9) proves the event stream is *complete* — replaying
//! it reconstructs `RunMetrics` bit for bit — but completeness says
//! nothing about *correctness*: a bookkeeping bug that double-stores a
//! copy or purges an undelivered bundle replays just as faithfully. This
//! module closes that gap with an [`AuditProbe`]: a [`Probe`] sink that
//! maintains an independent shadow ledger from the typed events alone and
//! checks the protocol semantics' conservation invariants online:
//!
//! * **capacity** — a node's relay occupancy never exceeds the configured
//!   buffer capacity (evictions are emitted *before* the store that
//!   caused them, so the bound holds at every instant, not just between
//!   contacts);
//! * **copy conservation** — every `Store` targets a node that does not
//!   already hold the bundle, and every `Drop`/`AckPurge` removes a copy
//!   that exists; together these force each store to be matched by
//!   exactly one removal or by end-of-run residency;
//! * **delivery uniqueness** — at most one `Deliver` per bundle, and only
//!   at the bundle's flow destination;
//! * **immunity soundness** — `AckPurge` only ever removes copies of
//!   bundles that have actually been delivered (both immunity encodings
//!   certify deliveries, never predictions);
//! * **TTL honesty** — under the fixed-TTL policy the ledger mirrors
//!   every copy's expiry (store time + TTL, renewed on transmission) and
//!   flags any transmission of a copy that should already have expired.
//!   The dynamic/EC TTL policies depend on state the event vocabulary
//!   does not carry (interval estimates, encounter counts); those paths
//!   are covered by the differential oracle (`crate::oracle`) instead.
//!
//! A violation either aborts the run immediately ([`AuditMode::Strict`],
//! a panic that the sweep layer's `catch_unwind` isolation turns into a
//! recorded point failure) or is appended to a bounded in-memory report
//! ([`AuditMode::Record`]) that the experiment harness surfaces in
//! `SweepReport`. Compose the auditor with any other sink by pairing
//! them: `(A, B)` is itself a [`Probe`](crate::probe::Probe).

use crate::bundle::Workload;
use crate::metrics::DropReason;
use crate::policy::LifetimePolicy;
use crate::probe::{Event, Probe};
use crate::session::SimConfig;
use std::fmt;

/// How the auditor reacts to an invariant violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// Panic on the first violation with its [`Violation`] rendering —
    /// the replication dies immediately and the parallel sweep's panic
    /// isolation records it as a failed point.
    Strict,
    /// Keep running and collect violations (bounded) for the report.
    Record,
}

/// One detected invariant violation. All times are simulation
/// milliseconds, nodes are dense indices, bundles are `(flow, seq)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A relay store pushed a node's occupancy past the configured
    /// capacity.
    OverCapacity {
        /// The overfull node.
        node: u32,
        /// When the store landed (ms).
        t: u64,
        /// Relay copies resident after the store.
        stored: u32,
        /// The configured relay capacity.
        capacity: u32,
    },
    /// A `Store` arrived for a bundle the node already holds.
    DoubleStore {
        /// The storing node.
        node: u32,
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Store time (ms).
        t: u64,
    },
    /// A `Drop` or `AckPurge` removed a copy the ledger never saw stored.
    DropWithoutCopy {
        /// The dropping node.
        node: u32,
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Drop time (ms).
        t: u64,
    },
    /// A bundle was delivered more than once.
    DuplicateDeliver {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// The (repeat) delivering node.
        node: u32,
        /// Delivery time (ms).
        t: u64,
    },
    /// A bundle was "delivered" at a node that is not its destination.
    MisroutedDeliver {
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// The node that claimed the delivery.
        node: u32,
        /// The flow's actual destination.
        expected: u32,
        /// Delivery time (ms).
        t: u64,
    },
    /// An immunity purge removed a copy of a bundle that was never
    /// delivered — immunity tables certify deliveries, so covering an
    /// undelivered bundle means the ack bookkeeping is corrupt.
    PurgeUndelivered {
        /// The purging node.
        node: u32,
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Purge time (ms).
        t: u64,
    },
    /// A node transmitted a bundle it does not hold.
    TransmitWithoutCopy {
        /// The claimed sender.
        from: u32,
        /// The receiver.
        to: u32,
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Transmission time (ms).
        t: u64,
    },
    /// Under the fixed-TTL policy, a copy was transmitted after its
    /// mirrored expiry had already passed.
    TransmitExpired {
        /// The sender holding the stale copy.
        from: u32,
        /// Flow id.
        flow: u32,
        /// Sequence number.
        seq: u32,
        /// Transmission time (ms).
        t: u64,
        /// When the ledger says the copy expired (ms).
        expired_at: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::OverCapacity {
                node,
                t,
                stored,
                capacity,
            } => write!(
                f,
                "over capacity: node {node} holds {stored} relay copies (capacity {capacity}) at t={t}ms"
            ),
            Violation::DoubleStore { node, flow, seq, t } => write!(
                f,
                "double store: node {node} stored b{flow}.{seq} twice at t={t}ms"
            ),
            Violation::DropWithoutCopy { node, flow, seq, t } => write!(
                f,
                "drop without copy: node {node} dropped unheld b{flow}.{seq} at t={t}ms"
            ),
            Violation::DuplicateDeliver { flow, seq, node, t } => write!(
                f,
                "duplicate deliver: b{flow}.{seq} delivered again at node {node} at t={t}ms"
            ),
            Violation::MisroutedDeliver {
                flow,
                seq,
                node,
                expected,
                t,
            } => write!(
                f,
                "misrouted deliver: b{flow}.{seq} delivered at node {node}, destination is {expected}, at t={t}ms"
            ),
            Violation::PurgeUndelivered { node, flow, seq, t } => write!(
                f,
                "purge of undelivered bundle: node {node} ack-purged b{flow}.{seq} before any delivery at t={t}ms"
            ),
            Violation::TransmitWithoutCopy {
                from,
                to,
                flow,
                seq,
                t,
            } => write!(
                f,
                "transmit without copy: node {from} sent unheld b{flow}.{seq} to {to} at t={t}ms"
            ),
            Violation::TransmitExpired {
                from,
                flow,
                seq,
                t,
                expired_at,
            } => write!(
                f,
                "transmit of expired copy: node {from} sent b{flow}.{seq} at t={t}ms, expired at t={expired_at}ms"
            ),
        }
    }
}

/// Cap on violations retained in [`AuditMode::Record`] — a systematically
/// broken run would otherwise grow the report without bound. The total
/// count keeps counting past the cap.
const MAX_RECORDED: usize = 64;

/// A [`Probe`] that audits the event stream online against the
/// conservation invariants listed in the module docs.
///
/// The ledger is flat (`Vec<bool>` residency bitmaps indexed by
/// `node × bundle`, per-node occupancy counters, a per-copy expiry mirror
/// under fixed TTL), so auditing stays within the probe-overhead budget
/// the bench harness enforces.
#[derive(Clone, Debug)]
pub struct AuditProbe {
    mode: AuditMode,
    total: usize,
    capacity: u32,
    /// Per flow: source node index.
    flow_src: Vec<u32>,
    /// Per flow: destination node index.
    flow_dst: Vec<u32>,
    /// Per flow: dense index of its first bundle.
    flow_offsets: Vec<u32>,
    /// Fixed-TTL mirror duration (ms); `None` for every other policy.
    fixed_ttl_ms: Option<u64>,
    /// `node × total + idx` → node currently holds a copy.
    resident: Vec<bool>,
    /// `node × total + idx` → the resident copy is an origin-store copy
    /// (exempt from relay capacity).
    origin_here: Vec<bool>,
    /// Per bundle: some store has ever happened (the first one is the
    /// origin injection at the flow source).
    ever_stored: Vec<bool>,
    /// Per bundle: delivered at its destination.
    delivered: Vec<bool>,
    /// Per node: resident relay copies.
    relay_occ: Vec<u32>,
    /// `node × total + idx` → mirrored expiry (ms; `u64::MAX` = never).
    expiry_ms: Vec<u64>,
    /// A `Drop{Expired}` that may legally precede a `Transmit` of the
    /// same copy in the next event (the EC-TTL "discard immediately"
    /// path removes the sender copy before the transmit is emitted).
    pending_expired: Option<(u32, usize)>,
    violations: Vec<Violation>,
    total_violations: u64,
    events_seen: u64,
}

impl AuditProbe {
    /// Build an auditor for one run. `workload` and `config` supply the
    /// static facts the ledger needs (flow endpoints, capacity, the
    /// lifetime policy); `node_count` sizes the residency bitmaps.
    pub fn new(
        workload: &Workload,
        config: &SimConfig,
        node_count: usize,
        mode: AuditMode,
    ) -> AuditProbe {
        let total = workload.total_bundles() as usize;
        let mut flow_src = Vec::with_capacity(workload.flows().len());
        let mut flow_dst = Vec::with_capacity(workload.flows().len());
        let mut flow_offsets = Vec::with_capacity(workload.flows().len());
        let mut offset = 0u32;
        for f in workload.flows() {
            flow_src.push(f.src.index() as u32);
            flow_dst.push(f.dst.index() as u32);
            flow_offsets.push(offset);
            offset += f.count;
        }
        let fixed_ttl_ms = match config.protocol.lifetime {
            LifetimePolicy::FixedTtl { ttl } => Some(ttl.as_millis()),
            _ => None,
        };
        AuditProbe {
            mode,
            total,
            capacity: config.buffer_capacity as u32,
            flow_src,
            flow_dst,
            flow_offsets,
            fixed_ttl_ms,
            resident: vec![false; node_count * total],
            origin_here: vec![false; node_count * total],
            ever_stored: vec![false; total],
            delivered: vec![false; total],
            relay_occ: vec![0; node_count],
            expiry_ms: vec![u64::MAX; node_count * total],
            pending_expired: None,
            violations: Vec::new(),
            total_violations: 0,
            events_seen: 0,
        }
    }

    /// The violations retained so far (at most [`struct@AuditProbe`]'s
    /// internal cap; see [`AuditProbe::total_violations`] for the full
    /// count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any past the retention cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Events audited so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Render every retained violation for the report pipeline.
    pub fn violation_strings(&self) -> Vec<String> {
        self.violations.iter().map(|v| v.to_string()).collect()
    }

    fn flag(&mut self, v: Violation) {
        if self.mode == AuditMode::Strict {
            panic!("audit violation: {v}");
        }
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(v);
        }
    }

    #[inline]
    fn idx(&self, flow: u32, seq: u32) -> usize {
        (self.flow_offsets[flow as usize] + seq) as usize
    }

    #[inline]
    fn key(&self, node: u32, idx: usize) -> usize {
        node as usize * self.total + idx
    }

    fn on_store(&mut self, flow: u32, seq: u32, node: u32, t: u64) {
        let idx = self.idx(flow, seq);
        let key = self.key(node, idx);
        if self.resident[key] {
            self.flag(Violation::DoubleStore { node, flow, seq, t });
            return;
        }
        // The very first store of a bundle is its origin injection at the
        // flow source; every later store (even one back at the source,
        // after an immunity purge emptied its send queue) is a relay
        // store and counts against capacity.
        let is_origin = !self.ever_stored[idx] && node == self.flow_src[flow as usize];
        self.resident[key] = true;
        self.origin_here[key] = is_origin;
        self.ever_stored[idx] = true;
        if is_origin {
            self.expiry_ms[key] = u64::MAX;
        } else {
            self.relay_occ[node as usize] += 1;
            self.expiry_ms[key] = match self.fixed_ttl_ms {
                Some(ttl) => t.saturating_add(ttl),
                None => u64::MAX,
            };
            if self.relay_occ[node as usize] > self.capacity {
                let stored = self.relay_occ[node as usize];
                let capacity = self.capacity;
                self.flag(Violation::OverCapacity {
                    node,
                    t,
                    stored,
                    capacity,
                });
            }
        }
    }

    /// Shared removal bookkeeping for `Drop` and `AckPurge`. Returns
    /// `true` when the ledger actually held the copy.
    fn on_remove(&mut self, flow: u32, seq: u32, node: u32, t: u64) -> bool {
        let idx = self.idx(flow, seq);
        let key = self.key(node, idx);
        if !self.resident[key] {
            self.flag(Violation::DropWithoutCopy { node, flow, seq, t });
            return false;
        }
        self.resident[key] = false;
        self.expiry_ms[key] = u64::MAX;
        if self.origin_here[key] {
            self.origin_here[key] = false;
        } else {
            self.relay_occ[node as usize] -= 1;
        }
        true
    }

    fn on_transmit(&mut self, flow: u32, seq: u32, from: u32, to: u32, t: u64) {
        let idx = self.idx(flow, seq);
        let key = self.key(from, idx);
        if !self.resident[key] {
            // The EC-TTL zero-TTL path drops the sender copy (emitting
            // Drop{Expired}) immediately before the Transmit event; that
            // exact sequence is legal.
            if self.pending_expired != Some((from, idx)) {
                self.flag(Violation::TransmitWithoutCopy {
                    from,
                    to,
                    flow,
                    seq,
                    t,
                });
            }
            return;
        }
        if !self.origin_here[key] {
            let expiry = self.expiry_ms[key];
            if expiry <= t {
                self.flag(Violation::TransmitExpired {
                    from,
                    flow,
                    seq,
                    t,
                    expired_at: expiry,
                });
            }
            // Fixed TTL renews the (relay) sender copy on transmission.
            if let Some(ttl) = self.fixed_ttl_ms {
                self.expiry_ms[key] = t.saturating_add(ttl);
            }
        }
    }

    fn on_deliver(&mut self, flow: u32, seq: u32, node: u32, t: u64) {
        let idx = self.idx(flow, seq);
        if self.delivered[idx] {
            self.flag(Violation::DuplicateDeliver { flow, seq, node, t });
            return;
        }
        if node != self.flow_dst[flow as usize] {
            let expected = self.flow_dst[flow as usize];
            self.flag(Violation::MisroutedDeliver {
                flow,
                seq,
                node,
                expected,
                t,
            });
        }
        self.delivered[idx] = true;
    }

    fn on_ack_purge(&mut self, flow: u32, seq: u32, node: u32, t: u64) {
        let idx = self.idx(flow, seq);
        if !self.delivered[idx] {
            self.flag(Violation::PurgeUndelivered { node, flow, seq, t });
        }
        self.on_remove(flow, seq, node, t);
    }
}

impl Probe for AuditProbe {
    fn record(&mut self, event: &Event) {
        self.events_seen += 1;
        // The one-event grace slot for Drop{Expired}→Transmit expires
        // with the very next event.
        let pending = self.pending_expired.take();
        match *event {
            Event::Store { flow, seq, node, t } => self.on_store(flow, seq, node, t),
            Event::Drop {
                flow,
                seq,
                node,
                t,
                reason,
            } => {
                let held = self.on_remove(flow, seq, node, t);
                if held && reason == DropReason::Expired {
                    let idx = self.idx(flow, seq);
                    self.pending_expired = Some((node, idx));
                }
            }
            Event::Transmit {
                flow,
                seq,
                from,
                to,
                t,
                ..
            } => {
                self.pending_expired = pending;
                self.on_transmit(flow, seq, from, to, t);
                self.pending_expired = None;
            }
            Event::Deliver {
                flow, seq, node, t, ..
            } => self.on_deliver(flow, seq, node, t),
            Event::AckPurge { flow, seq, node, t } => self.on_ack_purge(flow, seq, node, t),
            Event::ContactBegin { .. }
            | Event::ContactEnd { .. }
            | Event::Reject { .. }
            | Event::ImmunityMerge { .. }
            | Event::FaultDown { .. }
            | Event::FaultUp { .. }
            | Event::ContactSkipped { .. }
            | Event::SessionTruncated { .. }
            | Event::AckLost { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Workload;
    use crate::protocols;
    use dtn_mobility::NodeId;
    use dtn_sim::SimDuration;

    fn probe(mode: AuditMode) -> AuditProbe {
        let workload = Workload::single_flow(NodeId(0), NodeId(3), 5, 4);
        let config = SimConfig::paper_defaults(protocols::pure_epidemic());
        AuditProbe::new(&workload, &config, 4, mode)
    }

    fn store(node: u32, seq: u32, t: u64) -> Event {
        Event::Store {
            flow: 0,
            seq,
            node,
            t,
        }
    }

    #[test]
    fn clean_store_drop_cycle_is_clean() {
        let mut p = probe(AuditMode::Record);
        p.record(&store(0, 0, 0)); // origin injection at the source
        p.record(&store(1, 0, 10)); // relay copy
        p.record(&Event::Drop {
            flow: 0,
            seq: 0,
            node: 1,
            t: 20,
            reason: DropReason::Evicted,
        });
        assert!(p.is_clean(), "{:?}", p.violations());
        assert_eq!(p.events_seen(), 3);
    }

    #[test]
    fn double_store_is_flagged() {
        let mut p = probe(AuditMode::Record);
        p.record(&store(1, 0, 0));
        p.record(&store(1, 0, 5));
        assert_eq!(p.total_violations(), 1);
        assert!(matches!(
            p.violations()[0],
            Violation::DoubleStore { node: 1, .. }
        ));
    }

    #[test]
    fn over_capacity_counts_only_relay_copies() {
        let workload = Workload::single_flow(NodeId(0), NodeId(3), 5, 4);
        let mut config = SimConfig::paper_defaults(protocols::pure_epidemic());
        config.buffer_capacity = 2;
        let mut p = AuditProbe::new(&workload, &config, 4, AuditMode::Record);
        // Origin copies at the source never count against capacity.
        for seq in 0..5 {
            p.record(&store(0, seq, 0));
        }
        assert!(p.is_clean());
        // Three relay copies on node 1 exceed capacity 2.
        for seq in 0..3 {
            p.record(&store(1, seq, 10));
        }
        assert_eq!(p.total_violations(), 1);
        assert!(matches!(
            p.violations()[0],
            Violation::OverCapacity {
                node: 1,
                stored: 3,
                capacity: 2,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "audit violation: drop without copy")]
    fn strict_mode_panics_with_the_violation() {
        let mut p = probe(AuditMode::Strict);
        p.record(&Event::Drop {
            flow: 0,
            seq: 0,
            node: 2,
            t: 0,
            reason: DropReason::Expired,
        });
    }

    #[test]
    fn expired_drop_excuses_the_next_transmit_only() {
        let mut p = probe(AuditMode::Record);
        p.record(&store(1, 0, 0));
        p.record(&Event::Drop {
            flow: 0,
            seq: 0,
            node: 1,
            t: 50,
            reason: DropReason::Expired,
        });
        // The EC-TTL discard-then-transmit sequence: legal.
        p.record(&Event::Transmit {
            flow: 0,
            seq: 0,
            from: 1,
            to: 2,
            t: 50,
            done: 100,
            lost: false,
        });
        assert!(p.is_clean(), "{:?}", p.violations());
        // A second transmit without the copy is not excused.
        p.record(&Event::Transmit {
            flow: 0,
            seq: 0,
            from: 1,
            to: 2,
            t: 60,
            done: 110,
            lost: false,
        });
        assert_eq!(p.total_violations(), 1);
        assert!(matches!(
            p.violations()[0],
            Violation::TransmitWithoutCopy { from: 1, .. }
        ));
    }

    #[test]
    fn fixed_ttl_mirror_flags_stale_transmissions() {
        let workload = Workload::single_flow(NodeId(0), NodeId(3), 2, 4);
        let config =
            SimConfig::paper_defaults(protocols::ttl_epidemic(SimDuration::from_secs(300)));
        let mut p = AuditProbe::new(&workload, &config, 4, AuditMode::Record);
        p.record(&store(1, 0, 0)); // relay copy, expires at 300_000 ms
        p.record(&Event::Transmit {
            flow: 0,
            seq: 0,
            from: 1,
            to: 2,
            t: 200_000,
            done: 300_000,
            lost: false,
        });
        assert!(p.is_clean(), "renewed before expiry");
        // Renewal moved expiry to 500_000; a transmit at 600_000 is stale.
        p.record(&Event::Transmit {
            flow: 0,
            seq: 0,
            from: 1,
            to: 2,
            t: 600_000,
            done: 700_000,
            lost: false,
        });
        assert_eq!(p.total_violations(), 1);
        assert!(matches!(
            p.violations()[0],
            Violation::TransmitExpired {
                expired_at: 500_000,
                ..
            }
        ));
    }

    #[test]
    fn purge_of_undelivered_bundle_is_flagged() {
        let mut p = probe(AuditMode::Record);
        p.record(&store(1, 0, 0));
        p.record(&Event::AckPurge {
            flow: 0,
            seq: 0,
            node: 1,
            t: 10,
        });
        assert_eq!(p.total_violations(), 1);
        assert!(matches!(
            p.violations()[0],
            Violation::PurgeUndelivered { node: 1, .. }
        ));
        // After a real delivery the purge of another copy is legal.
        p.record(&store(2, 1, 20));
        p.record(&Event::Deliver {
            flow: 0,
            seq: 1,
            node: 3,
            t: 30,
            done: 40,
        });
        p.record(&Event::AckPurge {
            flow: 0,
            seq: 1,
            node: 2,
            t: 50,
        });
        assert_eq!(p.total_violations(), 1, "no new violation");
    }

    #[test]
    fn deliver_checks_destination_and_uniqueness() {
        let mut p = probe(AuditMode::Record);
        p.record(&Event::Deliver {
            flow: 0,
            seq: 0,
            node: 2,
            t: 0,
            done: 10,
        });
        assert!(matches!(
            p.violations()[0],
            Violation::MisroutedDeliver {
                node: 2,
                expected: 3,
                ..
            }
        ));
        p.record(&Event::Deliver {
            flow: 0,
            seq: 0,
            node: 3,
            t: 20,
            done: 30,
        });
        assert_eq!(p.total_violations(), 2);
        assert!(matches!(
            p.violations()[1],
            Violation::DuplicateDeliver { .. }
        ));
    }

    #[test]
    fn record_mode_caps_retention_but_keeps_counting() {
        let mut p = probe(AuditMode::Record);
        for i in 0..200u64 {
            p.record(&Event::Drop {
                flow: 0,
                seq: 0,
                node: 1,
                t: i,
                reason: DropReason::Evicted,
            });
        }
        assert_eq!(p.total_violations(), 200);
        assert_eq!(p.violations().len(), MAX_RECORDED);
        assert_eq!(p.violation_strings().len(), MAX_RECORDED);
    }
}
