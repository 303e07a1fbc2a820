//! The contact model.
//!
//! Every mobility source in this repository — the CRAWDAD-style trace
//! parser, the synthetic Haggle generator, both random-waypoint models and
//! the controlled-interval scenarios — reduces to the same artifact: a
//! [`ContactTrace`], a validated, start-time-sorted sequence of
//! [`Contact`]s. The epidemic simulator consumes only this artifact, which
//! is precisely the paper's "unified framework" premise: identical protocol
//! code runs over every mobility model.

use crate::lazy::ContactStream;
use dtn_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a mobile node (an iMote device, a zebra collar, a student's
/// phone…). Dense small integers; the paper's scenarios use 12–20 nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One rendezvous: nodes `a` and `b` are within transmission range from
/// `start` until `end` (exclusive of `end`). Stored with `a < b`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Contact {
    /// The lower-numbered endpoint (the paper's collision-avoidance rule
    /// gives this node the first transmission slot).
    pub a: NodeId,
    /// The higher-numbered endpoint.
    pub b: NodeId,
    /// When the nodes come into range.
    pub start: SimTime,
    /// When the nodes move apart.
    pub end: SimTime,
}

impl Contact {
    /// Construct a contact, normalizing endpoint order. Panics if the
    /// endpoints coincide or the interval is empty/inverted — every
    /// generator in this crate upholds these invariants, so violating them
    /// is a bug, not an input error (the trace *parser* reports such lines
    /// as [`super::trace_io::TraceError`]s instead of panicking).
    pub fn new(x: NodeId, y: NodeId, start: SimTime, end: SimTime) -> Contact {
        assert!(x != y, "self-contact {x}");
        assert!(start < end, "empty contact interval: {start}..{end}");
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        Contact { a, b, start, end }
    }

    /// The rendezvous duration — the quantity that bounds how many bundles
    /// the pair can exchange.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// True if `n` participates in this contact.
    #[inline]
    pub fn involves(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }

    /// The other endpoint of the contact (panics if `n` is not an endpoint).
    pub fn peer_of(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else if self.b == n {
            self.a
        } else {
            panic!("{n} is not part of contact {self:?}")
        }
    }
}

/// A validated contact sequence plus the node universe it ranges over.
///
/// Invariants (checked at construction):
/// * contacts are sorted by `(start, a, b)`;
/// * every endpoint is `< node_count`;
/// * no contact extends past `horizon`.
#[derive(Clone, Debug)]
pub struct ContactTrace {
    node_count: usize,
    horizon: SimTime,
    contacts: Vec<Contact>,
}

/// Violations detected by [`ContactTrace::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceInvariantError {
    /// A contact references a node id outside `0..node_count`.
    NodeOutOfRange {
        /// The offending contact index.
        index: usize,
        /// The offending node id.
        node: NodeId,
        /// The configured universe size.
        node_count: usize,
    },
    /// A contact ends after the declared horizon.
    PastHorizon {
        /// The offending contact index.
        index: usize,
        /// The contact's end time.
        end: SimTime,
        /// The declared horizon.
        horizon: SimTime,
    },
    /// Fewer than two nodes — no contact is possible.
    TooFewNodes,
}

impl fmt::Display for TraceInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceInvariantError::NodeOutOfRange {
                index,
                node,
                node_count,
            } => write!(
                f,
                "contact #{index} references {node} outside universe of {node_count} nodes"
            ),
            TraceInvariantError::PastHorizon {
                index,
                end,
                horizon,
            } => {
                write!(f, "contact #{index} ends at {end}, past horizon {horizon}")
            }
            TraceInvariantError::TooFewNodes => write!(f, "a trace needs at least two nodes"),
        }
    }
}

impl std::error::Error for TraceInvariantError {}

impl ContactTrace {
    /// Validate and canonicalize (sort) a contact list.
    pub fn new(
        node_count: usize,
        horizon: SimTime,
        mut contacts: Vec<Contact>,
    ) -> Result<ContactTrace, TraceInvariantError> {
        if node_count < 2 {
            return Err(TraceInvariantError::TooFewNodes);
        }
        for (index, c) in contacts.iter().enumerate() {
            for node in [c.a, c.b] {
                if node.index() >= node_count {
                    return Err(TraceInvariantError::NodeOutOfRange {
                        index,
                        node,
                        node_count,
                    });
                }
            }
            if c.end > horizon {
                return Err(TraceInvariantError::PastHorizon {
                    index,
                    end: c.end,
                    horizon,
                });
            }
        }
        sort_contacts(&mut contacts);
        Ok(ContactTrace {
            node_count,
            horizon,
            contacts,
        })
    }

    /// A reader over the contacts, the form the simulator consumes.
    pub fn stream(&self) -> ContactStream<'_> {
        ContactStream::of(self)
    }

    /// Number of nodes in the universe.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All node ids, `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u16).map(NodeId)
    }

    /// The observation horizon (the paper's trace ends at 524 162 s; a run
    /// that has not delivered by then is recorded as a failure).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The sorted contact sequence.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Number of contacts.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// True when there are no contacts at all.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// How many contacts each node participates in.
    pub fn encounter_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.node_count];
        for c in &self.contacts {
            counts[c.a.index()] += 1;
            counts[c.b.index()] += 1;
        }
        counts
    }

    /// Per-node inter-contact gaps: for each node, the spans between the
    /// start of one of its contacts and the end of its previous one. This is
    /// the "encounter interval" driving the dynamic-TTL enhancement
    /// (Algorithm 1) and Fig. 14's sensitivity study.
    pub fn intercontact_gaps(&self) -> Vec<Vec<SimDuration>> {
        let mut last_end: Vec<Option<SimTime>> = vec![None; self.node_count];
        let mut gaps: Vec<Vec<SimDuration>> = vec![Vec::new(); self.node_count];
        for c in &self.contacts {
            for n in [c.a, c.b] {
                if let Some(prev) = last_end[n.index()] {
                    gaps[n.index()].push(c.start.saturating_since(prev));
                }
                let e = &mut last_end[n.index()];
                *e = Some(match *e {
                    Some(prev) => prev.max(c.end),
                    None => c.end,
                });
            }
        }
        gaps
    }

    /// Mean inter-contact gap across all nodes (0 when no node meets twice).
    pub fn mean_intercontact_gap(&self) -> SimDuration {
        let gaps = self.intercontact_gaps();
        let mut sum: u128 = 0;
        let mut n: u64 = 0;
        for g in gaps.iter().flatten() {
            sum += g.as_millis() as u128;
            n += 1;
        }
        if n == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis((sum / n as u128) as u64)
        }
    }

    /// Mean contact duration (0 for an empty trace).
    pub fn mean_contact_duration(&self) -> SimDuration {
        if self.contacts.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self
            .contacts
            .iter()
            .map(|c| c.duration().as_millis() as u128)
            .sum();
        SimDuration::from_millis((sum / self.contacts.len() as u128) as u64)
    }

    /// True when every pair of nodes is joined by some multi-hop space-time
    /// path starting at or after `from` — i.e. a bundle created at `from`
    /// *could* reach any destination from any source given infinite
    /// resources. Used by scenario generators to avoid degenerate
    /// replications and by tests as an upper-bound oracle.
    pub fn is_temporally_connected(&self, from: SimTime) -> bool {
        (0..self.node_count).all(|src| {
            let reached = self.temporal_reachability(NodeId(src as u16), from);
            reached.iter().all(|&r| r)
        })
    }

    /// The set of nodes reachable from `src` via space-time paths whose
    /// contacts start at or after `from` (a node relays a bundle on any
    /// contact that *starts* after the contact on which it received it;
    /// within one contact's interval both directions count — matching the
    /// simulator's within-contact exchange semantics).
    pub fn temporal_reachability(&self, src: NodeId, from: SimTime) -> Vec<bool> {
        let mut infected_at: Vec<Option<SimTime>> = vec![None; self.node_count];
        infected_at[src.index()] = Some(from);
        // Contacts are start-sorted; one forward pass suffices because a
        // relay can only use contacts starting no earlier than when it got
        // the bundle.
        for c in &self.contacts {
            if c.start < from {
                continue;
            }
            let ia = infected_at[c.a.index()];
            let ib = infected_at[c.b.index()];
            let a_can_send = matches!(ia, Some(t) if t <= c.start);
            let b_can_send = matches!(ib, Some(t) if t <= c.start);
            if a_can_send && infected_at[c.b.index()].is_none() {
                infected_at[c.b.index()] = Some(c.start);
            }
            if b_can_send && infected_at[c.a.index()].is_none() {
                infected_at[c.a.index()] = Some(c.start);
            }
        }
        infected_at.iter().map(|t| t.is_some()).collect()
    }

    /// Contact-count histogram per unordered pair — the raw material for
    /// comparing a synthetic trace against the real dataset's statistics.
    pub fn pair_contact_counts(&self) -> BTreeMap<(NodeId, NodeId), usize> {
        let mut map = BTreeMap::new();
        for c in &self.contacts {
            *map.entry((c.a, c.b)).or_insert(0) += 1;
        }
        map
    }
}

/// Put contacts in trace order, `(start, a, b)`: the one sort every trace
/// and every lazily generated window goes through.
pub(crate) fn sort_contacts(contacts: &mut [Contact]) {
    contacts.sort_by_key(|c| (c.start, c.a, c.b));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn contact(a: u16, b: u16, start: u64, end: u64) -> Contact {
        Contact::new(NodeId(a), NodeId(b), t(start), t(end))
    }

    #[test]
    fn contact_normalizes_order() {
        let c = contact(5, 2, 10, 20);
        assert_eq!(c.a, NodeId(2));
        assert_eq!(c.b, NodeId(5));
        assert_eq!(c.duration(), SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn self_contact_panics() {
        contact(3, 3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "empty contact interval")]
    fn inverted_interval_panics() {
        contact(0, 1, 10, 10);
    }

    #[test]
    fn peer_of_and_involves() {
        let c = contact(1, 4, 0, 5);
        assert!(c.involves(NodeId(1)));
        assert!(c.involves(NodeId(4)));
        assert!(!c.involves(NodeId(2)));
        assert_eq!(c.peer_of(NodeId(1)), NodeId(4));
        assert_eq!(c.peer_of(NodeId(4)), NodeId(1));
    }

    #[test]
    fn trace_sorts_contacts() {
        let trace = ContactTrace::new(
            3,
            t(100),
            vec![
                contact(0, 1, 50, 60),
                contact(1, 2, 10, 20),
                contact(0, 2, 10, 15),
            ],
        )
        .unwrap();
        let starts: Vec<u64> = trace.contacts().iter().map(|c| c.start.as_secs()).collect();
        assert_eq!(starts, vec![10, 10, 50]);
        // Equal starts tie-break by (a, b).
        assert_eq!(trace.contacts()[0].b, NodeId(2));
    }

    #[test]
    fn trace_rejects_out_of_range_nodes() {
        let err = ContactTrace::new(2, t(100), vec![contact(0, 5, 0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            TraceInvariantError::NodeOutOfRange {
                node: NodeId(5),
                ..
            }
        ));
    }

    #[test]
    fn trace_rejects_past_horizon() {
        let err = ContactTrace::new(2, t(100), vec![contact(0, 1, 90, 110)]).unwrap_err();
        assert!(matches!(err, TraceInvariantError::PastHorizon { .. }));
    }

    #[test]
    fn trace_rejects_tiny_universe() {
        assert_eq!(
            ContactTrace::new(1, t(10), vec![]).unwrap_err(),
            TraceInvariantError::TooFewNodes
        );
    }

    #[test]
    fn encounter_counts() {
        let trace = ContactTrace::new(
            4,
            t(100),
            vec![
                contact(0, 1, 0, 5),
                contact(0, 2, 10, 15),
                contact(0, 3, 20, 25),
            ],
        )
        .unwrap();
        assert_eq!(trace.encounter_counts(), vec![3, 1, 1, 1]);
    }

    #[test]
    fn intercontact_gaps_per_node() {
        let trace = ContactTrace::new(
            3,
            t(1_000),
            vec![
                contact(0, 1, 0, 10),
                contact(0, 2, 110, 120),
                contact(0, 1, 620, 640),
            ],
        )
        .unwrap();
        let gaps = trace.intercontact_gaps();
        // Node 0: end 10 -> start 110 (gap 100), end 120 -> start 620 (gap 500).
        assert_eq!(
            gaps[0],
            vec![SimDuration::from_secs(100), SimDuration::from_secs(500)]
        );
        // Node 1: end 10 -> start 620.
        assert_eq!(gaps[1], vec![SimDuration::from_secs(610)]);
        assert!(gaps[2].is_empty());
        // Mean over {100, 500, 610}.
        assert_eq!(
            trace.mean_intercontact_gap(),
            SimDuration::from_millis(403_333)
        );
    }

    #[test]
    fn mean_contact_duration() {
        let trace = ContactTrace::new(
            2,
            t(1_000),
            vec![contact(0, 1, 0, 100), contact(0, 1, 200, 500)],
        )
        .unwrap();
        assert_eq!(trace.mean_contact_duration(), SimDuration::from_secs(200));
        let empty = ContactTrace::new(2, t(10), vec![]).unwrap();
        assert_eq!(empty.mean_contact_duration(), SimDuration::ZERO);
    }

    #[test]
    fn temporal_reachability_respects_time_order() {
        // 0 meets 1 at t=100, 1 meets 2 at t=50: a bundle born at t=0 on
        // node 0 reaches 1 but NOT 2 (the 1-2 contact predates 1's copy).
        let trace = ContactTrace::new(
            3,
            t(1_000),
            vec![contact(1, 2, 50, 60), contact(0, 1, 100, 110)],
        )
        .unwrap();
        let reach = trace.temporal_reachability(NodeId(0), SimTime::ZERO);
        assert_eq!(reach, vec![true, true, false]);
        assert!(!trace.is_temporally_connected(SimTime::ZERO));
    }

    #[test]
    fn temporal_reachability_chains_forward() {
        let trace = ContactTrace::new(
            4,
            t(1_000),
            vec![
                contact(0, 1, 10, 20),
                contact(1, 2, 30, 40),
                contact(2, 3, 50, 60),
            ],
        )
        .unwrap();
        let reach = trace.temporal_reachability(NodeId(0), SimTime::ZERO);
        assert_eq!(reach, vec![true, true, true, true]);
    }

    #[test]
    fn temporal_reachability_ignores_contacts_before_from() {
        let trace = ContactTrace::new(2, t(1_000), vec![contact(0, 1, 10, 20)]).unwrap();
        let reach = trace.temporal_reachability(NodeId(0), t(30));
        assert_eq!(reach, vec![true, false]);
    }

    #[test]
    fn pair_counts() {
        let trace = ContactTrace::new(
            3,
            t(1_000),
            vec![
                contact(0, 1, 0, 5),
                contact(1, 0, 10, 15),
                contact(1, 2, 20, 25),
            ],
        )
        .unwrap();
        let counts = trace.pair_contact_counts();
        assert_eq!(counts[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(counts[&(NodeId(1), NodeId(2))], 1);
    }
}
