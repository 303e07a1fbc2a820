//! Access-point association logs → contact traces.
//!
//! Besides the Haggle encounter records, the paper points at CRAWDAD's
//! Dartmouth campus dataset (its reference \[17\]) as a mobility source its
//! simulator can consume. That dataset is not pairwise encounters but
//! *AP association logs*: per-device records of which wireless access
//! point the device was attached to, over time. The standard reduction —
//! which this module implements — treats two devices as "in contact"
//! while they are simultaneously associated to the same AP, exactly the
//! co-location semantics of the subscriber-point model.
//!
//! ## Format
//!
//! ```text
//! # comments and blank lines are ignored
//! % horizon 100000        (optional; default: the last event time)
//! % cap 500               (optional: clamp each contact to this many seconds)
//! <time_s> <node_id> <ap_name>
//! <time_s> <node_id> OFF
//! ```
//!
//! Each record says: at `time_s`, `node_id` associated to `ap_name`
//! (implicitly leaving its previous AP), or went offline (`OFF`). Events
//! per node must be time-ordered; AP names are arbitrary tokens.

use crate::contact::ContactTrace;
use crate::subscriber::{co_location_contacts, Visit};
use crate::trace_io::TraceError;
use dtn_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::io::BufRead;

fn malformed(line: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// Parse an association log into a contact trace.
pub fn parse_association_log<R: BufRead>(reader: R) -> Result<ContactTrace, TraceError> {
    let mut ap_ids: HashMap<String, u32> = HashMap::new();
    // Per node: currently-open association (ap index, since).
    let mut open: HashMap<u16, (u32, SimTime)> = HashMap::new();
    let mut last_event: HashMap<u16, SimTime> = HashMap::new();
    let mut visits: Vec<Visit> = Vec::new();
    let mut declared_horizon: Option<SimTime> = None;
    let mut cap: Option<SimDuration> = None;
    let mut max_node: u16 = 0;
    let mut max_time = SimTime::ZERO;

    let close = |node: u16,
                 at: SimTime,
                 open: &mut HashMap<u16, (u32, SimTime)>,
                 visits: &mut Vec<Visit>| {
        if let Some((ap, since)) = open.remove(&node) {
            if at > since {
                visits.push(Visit {
                    node: crate::NodeId(node),
                    point: ap,
                    arrive: since,
                    depart: at,
                });
            }
        }
    };

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let body = line.trim();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        if let Some(directive) = body.strip_prefix('%') {
            let mut parts = directive.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("horizon"), Some(v)) => {
                    let secs: f64 = v
                        .parse()
                        .map_err(|_| malformed(line_no, format!("bad horizon {v:?}")))?;
                    declared_horizon = Some(SimTime::from_secs_f64(secs));
                }
                (Some("cap"), Some(v)) => {
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| malformed(line_no, format!("bad cap {v:?}")))?;
                    cap = Some(SimDuration::from_secs(secs));
                }
                (Some(other), _) => {
                    return Err(malformed(line_no, format!("unknown directive %{other}")))
                }
                (None, _) => return Err(malformed(line_no, "empty directive")),
            }
            continue;
        }

        let mut fields = body.split_whitespace();
        let time_raw = fields
            .next()
            .ok_or_else(|| malformed(line_no, "missing <time>"))?;
        let node_raw = fields
            .next()
            .ok_or_else(|| malformed(line_no, "missing <node_id>"))?;
        let ap_raw = fields
            .next()
            .ok_or_else(|| malformed(line_no, "missing <ap_name>"))?;

        let secs: f64 = time_raw
            .parse()
            .map_err(|_| malformed(line_no, format!("bad time {time_raw:?}")))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(malformed(line_no, format!("bad time {time_raw:?}")));
        }
        let t = SimTime::from_secs_f64(secs);
        let node: u16 = node_raw
            .parse()
            .map_err(|_| malformed(line_no, format!("bad node id {node_raw:?}")))?;
        if let Some(&prev) = last_event.get(&node) {
            if t < prev {
                return Err(malformed(
                    line_no,
                    format!("events for node {node} out of order ({t} after {prev})"),
                ));
            }
        }
        last_event.insert(node, t);
        max_node = max_node.max(node);
        max_time = max_time.max(t);

        // Any event terminates the node's previous association.
        close(node, t, &mut open, &mut visits);
        if ap_raw != "OFF" {
            let next_id = u32::try_from(ap_ids.len())
                .map_err(|_| malformed(line_no, "too many access points"))?;
            let ap = *ap_ids.entry(ap_raw.to_string()).or_insert(next_id);
            open.insert(node, (ap, t));
        }
    }

    let horizon = declared_horizon.unwrap_or(max_time);
    // Close every association still open at the horizon.
    let still_open: Vec<u16> = open.keys().copied().collect();
    for node in still_open {
        close(node, horizon, &mut open, &mut visits);
    }

    let node_count = (max_node as usize + 1).max(2);
    let contacts = co_location_contacts(&mut visits, cap.unwrap_or(SimDuration::MAX), horizon);
    ContactTrace::new(node_count, horizon, contacts).map_err(TraceError::Invariant)
}

/// Parse from an in-memory string.
pub fn parse_association_str(text: &str) -> Result<ContactTrace, TraceError> {
    parse_association_log(std::io::Cursor::new(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn co_location_becomes_a_contact() {
        // Nodes 0 and 1 overlap at AP "lib" during [100, 250].
        let text = "0 0 lib\n100 1 lib\n250 0 OFF\n400 1 OFF\n";
        let trace = parse_association_str(text).unwrap();
        assert_eq!(trace.len(), 1);
        let c = trace.contacts()[0];
        assert_eq!((c.a, c.b), (NodeId(0), NodeId(1)));
        assert_eq!(c.start, SimTime::from_secs(100));
        assert_eq!(c.end, SimTime::from_secs(250));
    }

    #[test]
    fn different_aps_never_meet() {
        let text = "0 0 lib\n0 1 cafe\n500 0 OFF\n500 1 OFF\n";
        let trace = parse_association_str(text).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn reassociation_moves_the_node() {
        // Node 1 hops lib -> cafe at t=200; node 0 stays at lib, node 2
        // sits at cafe the whole time.
        let text = "0 0 lib\n0 1 lib\n0 2 cafe\n200 1 cafe\n600 0 OFF\n600 1 OFF\n600 2 OFF\n";
        let trace = parse_association_str(text).unwrap();
        assert_eq!(trace.len(), 2);
        // lib: 0 with 1 during [0, 200); cafe: 1 with 2 during [200, 600).
        let lib = trace.contacts()[0];
        assert_eq!((lib.a, lib.b), (NodeId(0), NodeId(1)));
        assert_eq!(lib.end, SimTime::from_secs(200));
        let cafe = trace.contacts()[1];
        assert_eq!((cafe.a, cafe.b), (NodeId(1), NodeId(2)));
        assert_eq!(cafe.start, SimTime::from_secs(200));
    }

    #[test]
    fn open_associations_close_at_the_horizon() {
        let text = "% horizon 1000\n0 0 lib\n0 1 lib\n";
        let trace = parse_association_str(text).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.contacts()[0].end, SimTime::from_secs(1_000));
    }

    #[test]
    fn cap_clamps_long_colocations() {
        let text = "% horizon 2000\n% cap 300\n0 0 lib\n0 1 lib\n";
        let trace = parse_association_str(text).unwrap();
        assert_eq!(trace.contacts()[0].duration(), SimDuration::from_secs(300));
    }

    #[test]
    fn out_of_order_events_are_rejected_with_line_number() {
        let text = "100 0 lib\n50 0 cafe\n";
        match parse_association_str(text).unwrap_err() {
            TraceError::Malformed { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("out of order"), "{reason}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn garbage_fields_are_rejected() {
        assert!(matches!(
            parse_association_str("zero 0 lib\n").unwrap_err(),
            TraceError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_association_str("0 0\n").unwrap_err(),
            TraceError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_association_str("% speed 3\n").unwrap_err(),
            TraceError::Malformed { line: 1, .. }
        ));
    }

    #[test]
    fn replay_through_the_simulator_interface() {
        // The association reduction yields a normal ContactTrace usable
        // by everything downstream.
        let text = "0 0 a\n0 1 a\n300 1 b\n300 2 b\n700 0 OFF\n700 1 OFF\n700 2 OFF\n";
        let trace = parse_association_str(text).unwrap();
        assert_eq!(trace.node_count(), 3);
        assert!(trace.temporal_reachability(NodeId(0), SimTime::ZERO)[2]);
    }
}
