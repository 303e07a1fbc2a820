//! The paper's modified RWP: the "subscriber point" model.
//!
//! Section IV of the paper notes two RWP pathologies (odd zig-zag motion
//! and speed decay) and sidesteps them by generating an RWP *trace* in
//! which nodes hop between fixed rendezvous ("subscriber") points:
//!
//! > "there are less than 100 subscriber points in a one square kilometre
//! > area, and nodes encounter and exchange bundles at each point. When
//! > nodes reach one subscriber point, they will randomly stop for less
//! > than 1000 seconds and move to the next subscriber point … the distance
//! > between any two subscriber points is less than 1,000 meters … the
//! > velocity of nodes in our experiments ranges from 0 to 10 m/s …
//! > Nodes may be in contact … for a maximum 500 seconds."
//!
//! We model exactly that: `K < 100` points placed uniformly in a
//! 1 km × 1 km area, each node alternating `pause at point → travel to a
//! random other point`. Travel time is `distance / speed` with speed drawn
//! uniformly from `(0, 10]` m/s (bounded away from zero so travel
//! terminates). Two nodes are in contact while simultaneously paused at the
//! same point, clamped to the 500 s maximum the paper imposes.

use crate::contact::{Contact, ContactTrace, NodeId};
use dtn_sim::{SimDuration, SimRng, SimTime};

/// Parameters of the subscriber-point RWP variant. Defaults are the paper's
/// RWP scenario: 12 nodes, 600 000 s horizon, < 100 points in 1 km².
#[derive(Clone, Debug)]
pub struct SubscriberParams {
    /// Number of mobile nodes.
    pub nodes: usize,
    /// Simulation horizon (paper: 600 000 s).
    pub horizon: SimTime,
    /// Number of subscriber points (paper: < 100 per km²).
    pub points: usize,
    /// Side of the square deployment area in meters (paper: 1 km).
    pub area_side_m: f64,
    /// Upper bound on the pause at a point (paper: < 1000 s).
    pub pause_max: SimDuration,
    /// Slowest travel speed (m/s); must be positive so travel terminates.
    pub speed_min_mps: f64,
    /// Fastest travel speed (paper: 10 m/s).
    pub speed_max_mps: f64,
    /// Longest allowed single contact (paper: 500 s).
    pub contact_cap: SimDuration,
}

impl Default for SubscriberParams {
    fn default() -> Self {
        // Calibrated toward frequent-but-brief co-location: nodes pause
        // briefly at many points and walk quickly between them, so a node
        // meets someone every ~10–20 minutes (far beyond a 300 s TTL) and
        // each meeting carries only a bundle or two — the combination the
        // paper's RWP results imply (fixed-TTL delivery far below 100 %,
        // delays of 1–6 × 10⁴ s). All values stay inside the paper's
        // stated envelopes (< 100 points/km², pauses < 1000 s, speeds in
        // (0, 10] m/s, contacts ≤ 500 s).
        SubscriberParams {
            nodes: 12,
            horizon: SimTime::from_secs(600_000),
            points: 30,
            area_side_m: 1_000.0,
            pause_max: SimDuration::from_secs(300),
            speed_min_mps: 2.0,
            speed_max_mps: 10.0,
            contact_cap: SimDuration::from_secs(500),
        }
    }
}

/// One stay of one node at a subscriber point.
#[derive(Clone, Copy, Debug)]
struct Visit {
    node: NodeId,
    point: u32,
    arrive: SimTime,
    depart: SimTime,
}

impl SubscriberParams {
    fn validate(&self) {
        assert!(self.nodes >= 2);
        assert!(self.points >= 2, "need at least two subscriber points");
        assert!(
            self.points < 100,
            "paper bounds subscriber points below 100/km²"
        );
        assert!(self.area_side_m > 0.0);
        assert!(self.speed_min_mps > 0.0 && self.speed_max_mps >= self.speed_min_mps);
        assert!(
            !self.pause_max.is_zero(),
            "zero pause makes contacts impossible"
        );
    }

    /// Generate the contact trace.
    pub fn generate(&self, rng: &mut SimRng) -> ContactTrace {
        self.validate();
        let contacts = self.point_contacts(self.walk(rng));
        ContactTrace::new(self.nodes, self.horizon, contacts)
            .expect("generator upholds trace invariants")
    }

    /// Contacts: pairwise presence overlaps at the same point, in exactly
    /// the order `co_location_contacts` yields them. Grouping by point is
    /// linear; within a point `(arrive, node)` is unique (each node's
    /// arrivals strictly increase), so an unstable per-point sort matches
    /// the general path's global stable sort.
    fn point_contacts(&self, visits: Vec<Visit>) -> Vec<Contact> {
        let (mut visits, lens) = group_by_point(visits, self.points);
        let mut contacts = Vec::new();
        let mut rest = &mut visits[..];
        for len in lens {
            let (group, tail) = rest.split_at_mut(len);
            group.sort_unstable_by_key(|v| (v.arrive, v.node));
            sweep_group(group, self.contact_cap, self.horizon, &mut contacts);
            rest = tail;
        }
        contacts
    }

    /// Walk each node through pause/travel cycles, recording its visits:
    /// node-major, each node's visits in arrival order.
    fn walk(&self, rng: &mut SimRng) -> Vec<Visit> {
        // Place the points.
        let points: Vec<(f64, f64)> = (0..self.points)
            .map(|_| {
                (
                    rng.range_f64(0.0, self.area_side_m),
                    rng.range_f64(0.0, self.area_side_m),
                )
            })
            .collect();

        let mut visits: Vec<Visit> = Vec::new();
        for n in 0..self.nodes as u16 {
            let mut t = SimTime::ZERO;
            let mut here = rng.below(self.points as u64) as usize;
            while t < self.horizon {
                let pause = rng.duration_in(SimDuration::from_secs(1), self.pause_max);
                let depart = (t + pause).min(self.horizon);
                visits.push(Visit {
                    node: NodeId(n),
                    point: here as u32,
                    arrive: t,
                    depart,
                });
                if depart >= self.horizon {
                    break;
                }
                // Random *other* point.
                let r = rng.below(self.points as u64 - 1) as usize;
                let next = if r >= here { r + 1 } else { r };
                let (x0, y0) = points[here];
                let (x1, y1) = points[next];
                let dist = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt().max(1.0);
                let speed = rng.range_f64(self.speed_min_mps, self.speed_max_mps);
                let travel = SimDuration::from_secs_f64(dist / speed);
                t = depart + travel;
                here = next;
            }
        }
        visits
    }
}

/// Group `visits` by point with a counting sort: one scatter into an
/// exactly sized buffer, points in ascending order, each point's visits in
/// their original relative order. Returns the grouped visits and every
/// point's group length.
fn group_by_point(visits: Vec<Visit>, points: usize) -> (Vec<Visit>, Vec<usize>) {
    let mut lens = vec![0usize; points];
    for v in &visits {
        lens[v.point as usize] += 1;
    }
    // `next[p]`: where the next visit at point p goes.
    let mut next = Vec::with_capacity(points);
    let mut start = 0;
    for &len in &lens {
        next.push(start);
        start += len;
    }
    let Some(&first) = visits.first() else {
        return (visits, lens);
    };
    let mut grouped = vec![first; visits.len()];
    for v in visits {
        let slot = &mut next[v.point as usize];
        grouped[*slot] = v;
        *slot += 1;
    }
    (grouped, lens)
}

/// Convert point visits into pairwise contacts: every overlap of two
/// different nodes' stays at the same point, clamped to `cap`. The general
/// path, for visits in any order: the reference the per-point grouping
/// is tested against.
#[cfg(test)]
fn co_location_contacts(visits: &mut [Visit], cap: SimDuration, horizon: SimTime) -> Vec<Contact> {
    // Group by point, then sweep each group's visits sorted by arrival.
    visits.sort_by_key(|v| (v.point, v.arrive, v.node));
    let mut contacts = Vec::new();
    let mut group_start = 0usize;
    while group_start < visits.len() {
        let point = visits[group_start].point;
        let mut group_end = group_start;
        while group_end < visits.len() && visits[group_end].point == point {
            group_end += 1;
        }
        sweep_group(&visits[group_start..group_end], cap, horizon, &mut contacts);
        group_start = group_end;
    }
    contacts
}

/// Append the contacts of one point's visits, sorted by arrival.
fn sweep_group(group: &[Visit], cap: SimDuration, horizon: SimTime, contacts: &mut Vec<Contact>) {
    for (i, va) in group.iter().enumerate() {
        for vb in &group[i + 1..] {
            if vb.arrive >= va.depart {
                break; // arrivals are sorted; nothing later overlaps va
            }
            if va.node == vb.node {
                continue;
            }
            let start = va.arrive.max(vb.arrive);
            let end = va.depart.min(vb.depart).min(start + cap).min(horizon);
            if end > start {
                contacts.push(Contact::new(va.node, vb.node, start, end));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_nonempty_trace() {
        let params = SubscriberParams::default();
        let trace = params.generate(&mut SimRng::new(1));
        assert_eq!(trace.node_count(), 12);
        assert!(trace.len() > 50, "only {} contacts", trace.len());
        for c in trace.contacts() {
            assert!(c.start < c.end && c.end <= trace.horizon());
        }
    }

    #[test]
    fn respects_contact_cap() {
        let params = SubscriberParams::default();
        let trace = params.generate(&mut SimRng::new(3));
        for c in trace.contacts() {
            assert!(
                c.duration() <= params.contact_cap,
                "contact of {} exceeds 500 s cap",
                c.duration()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let params = SubscriberParams::default();
        let a = params.generate(&mut SimRng::new(9));
        let b = params.generate(&mut SimRng::new(9));
        assert_eq!(a.contacts(), b.contacts());
    }

    #[test]
    fn co_location_requires_same_point_and_overlap() {
        let mk = |node: u16, point: u32, arrive: u64, depart: u64| Visit {
            node: NodeId(node),
            point,
            arrive: SimTime::from_secs(arrive),
            depart: SimTime::from_secs(depart),
        };
        let mut visits = vec![
            mk(0, 0, 0, 100),
            mk(1, 0, 50, 150),  // overlaps node 0 at point 0: [50, 100]
            mk(2, 1, 50, 150),  // different point: no contact
            mk(3, 0, 200, 300), // same point, later: no overlap
        ];
        let contacts = co_location_contacts(
            &mut visits,
            SimDuration::from_secs(500),
            SimTime::from_secs(10_000),
        );
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].a, NodeId(0));
        assert_eq!(contacts[0].b, NodeId(1));
        assert_eq!(contacts[0].start, SimTime::from_secs(50));
        assert_eq!(contacts[0].end, SimTime::from_secs(100));
    }

    #[test]
    fn co_location_cap_clamps_long_overlaps() {
        let mk = |node: u16, arrive: u64, depart: u64| Visit {
            node: NodeId(node),
            point: 0,
            arrive: SimTime::from_secs(arrive),
            depart: SimTime::from_secs(depart),
        };
        let mut visits = vec![mk(0, 0, 900), mk(1, 0, 900)];
        let contacts = co_location_contacts(
            &mut visits,
            SimDuration::from_secs(500),
            SimTime::from_secs(10_000),
        );
        assert_eq!(contacts[0].duration(), SimDuration::from_secs(500));
        // Stays still open at the horizon close there, inside the cap.
        let contacts = co_location_contacts(
            &mut visits,
            SimDuration::from_secs(500),
            SimTime::from_secs(300),
        );
        assert_eq!(contacts[0].end, SimTime::from_secs(300));
    }

    #[test]
    fn same_node_repeat_visits_do_not_self_contact() {
        let mk = |point: u32, arrive: u64, depart: u64| Visit {
            node: NodeId(0),
            point,
            arrive: SimTime::from_secs(arrive),
            depart: SimTime::from_secs(depart),
        };
        // Artificial overlap of the same node with itself must be ignored.
        let mut visits = vec![mk(0, 0, 100), mk(0, 0, 50)];
        let contacts = co_location_contacts(
            &mut visits,
            SimDuration::from_secs(500),
            SimTime::from_secs(10_000),
        );
        assert!(contacts.is_empty());
    }

    #[test]
    fn sparser_points_mean_fewer_contacts_per_node() {
        // More subscriber points spread the same nodes thinner, so pairwise
        // co-location becomes rarer.
        let few = SubscriberParams {
            points: 5,
            horizon: SimTime::from_secs(100_000),
            ..SubscriberParams::default()
        };
        let many = SubscriberParams {
            points: 80,
            horizon: SimTime::from_secs(100_000),
            ..SubscriberParams::default()
        };
        let n_few = few.generate(&mut SimRng::new(5)).len();
        let n_many = many.generate(&mut SimRng::new(5)).len();
        assert!(
            n_few > n_many,
            "5 points: {n_few} contacts; 80 points: {n_many}"
        );
    }

    #[test]
    fn point_grouping_matches_the_global_sort() {
        // The general path (one stable sort of every visit by point,
        // arrival, node) is the reference: the per-point grouping must
        // reproduce its contact list exactly, order included.
        for points in [2, 5, 30, 99] {
            for pause_secs in [1, 300, 999] {
                let params = SubscriberParams {
                    points,
                    pause_max: SimDuration::from_secs(pause_secs),
                    horizon: SimTime::from_secs(20_000),
                    ..SubscriberParams::default()
                };
                for seed in 0..200 {
                    let mut visits = params.walk(&mut SimRng::new(seed));
                    let grouped = params.point_contacts(visits.clone());
                    let reference =
                        co_location_contacts(&mut visits, params.contact_cap, params.horizon);
                    assert_eq!(
                        grouped, reference,
                        "points {points}, pause_max {pause_secs} s, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "below 100")]
    fn rejects_too_many_points() {
        let params = SubscriberParams {
            points: 150,
            ..SubscriberParams::default()
        };
        params.generate(&mut SimRng::new(0));
    }
}
