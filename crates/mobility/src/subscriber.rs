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
use crate::lazy::{Generate, LazyTrace};
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
        // meets someone about every 10 minutes (~1 000 contacts per node
        // over the horizon) and each meeting carries only a bundle or
        // two. All values stay inside the paper's stated envelopes
        // (< 100 points/km², pauses < 1000 s, speeds in (0, 10] m/s,
        // contacts ≤ 500 s). The result is far easier than the paper's
        // RWP: `results/table2.csv` reads fixed-TTL delivery 90.0 %
        // (paper: 24.6 %), dynamic TTL 96.5 % (64.7 %) and EC 100 %
        // (76.4 %), with about a third of the paper's duplication and
        // 2–5× its delays. EXPERIMENTS.md Known Deviation #2 records the
        // gap; ROADMAP item 9 sweeps the envelope for a setting that
        // closes it.
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

    /// Generate the whole contact trace: the generator behind
    /// [`SubscriberParams::lazy`], extended to the horizon in one go.
    pub fn generate(&self, rng: &mut SimRng) -> ContactTrace {
        let mut contacts = Vec::new();
        self.sweep(rng).extend(self.horizon, &mut contacts);
        ContactTrace::new(self.nodes, self.horizon, contacts)
            .expect("generator upholds trace invariants")
    }

    /// The same trace, generated a time window at a time as it is read.
    /// Draws from `rng` exactly what [`SubscriberParams::generate`] draws.
    pub fn lazy(&self, rng: &mut SimRng) -> LazyTrace {
        LazyTrace::new(self.nodes, self.horizon, Box::new(self.sweep(rng)))
    }

    /// Place the points, then walk every node once without recording
    /// anything, to snapshot the RNG where each node's walk starts: the
    /// walks are one stream, node-major, so node `n + 1`'s draws begin
    /// where node `n`'s end. The sweep re-walks each node from its
    /// snapshot as it goes.
    fn sweep(&self, rng: &mut SimRng) -> PointSweep {
        self.validate();
        let points: Vec<(f64, f64)> = (0..self.points)
            .map(|_| {
                (
                    rng.range_f64(0.0, self.area_side_m),
                    rng.range_f64(0.0, self.area_side_m),
                )
            })
            .collect();
        let mut walkers = Vec::with_capacity(self.nodes);
        for n in 0..self.nodes as u16 {
            let snapshot = rng.clone();
            let mut walk = Walker::start(NodeId(n), rng.clone(), self.points);
            while walk.step(self, &points).is_some() {}
            *rng = walk.rng;
            walkers.push(Walker::start(NodeId(n), snapshot, self.points));
        }
        let mut sweep = PointSweep {
            params: self.clone(),
            open: vec![Vec::new(); points.len()],
            points,
            next: vec![FINISHED; walkers.len()],
            walkers,
        };
        for i in 0..sweep.walkers.len() {
            sweep.draw_next(i);
        }
        sweep
    }
}

/// One node's walk through pause/travel cycles, drawing from its own copy
/// of the RNG stream.
#[derive(Clone, Debug)]
struct Walker {
    rng: SimRng,
    node: NodeId,
    /// Arrival time at `here`; the walk is over once it reaches the
    /// horizon.
    t: SimTime,
    here: usize,
}

impl Walker {
    /// Start a walk at a random point.
    fn start(node: NodeId, mut rng: SimRng, points: usize) -> Walker {
        let here = rng.below(points as u64) as usize;
        Walker {
            rng,
            node,
            t: SimTime::ZERO,
            here,
        }
    }

    /// The node's next visit (`None` once past the horizon): pause at the
    /// current point, then travel to a random other one.
    fn step(&mut self, params: &SubscriberParams, points: &[(f64, f64)]) -> Option<Visit> {
        if self.t >= params.horizon {
            return None;
        }
        let pause = self
            .rng
            .duration_in(SimDuration::from_secs(1), params.pause_max);
        let depart = (self.t + pause).min(params.horizon);
        let visit = Visit {
            node: self.node,
            point: self.here as u32,
            arrive: self.t,
            depart,
        };
        if depart >= params.horizon {
            self.t = depart;
            return Some(visit);
        }
        // Random *other* point.
        let r = self.rng.below(points.len() as u64 - 1) as usize;
        let next = if r >= self.here { r + 1 } else { r };
        let (x0, y0) = points[self.here];
        let (x1, y1) = points[next];
        let dist = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt().max(1.0);
        let speed = self
            .rng
            .range_f64(params.speed_min_mps, params.speed_max_mps);
        self.t = depart + SimDuration::from_secs_f64(dist / speed);
        self.here = next;
        Some(visit)
    }
}

/// The incremental contact generator: every node's walk advanced in
/// arrival order, with each point's still-open visits. Two nodes meet when
/// one arrives at a point the other has not yet left, so a contact starts
/// at the later arrival and is emitted when that arrival is swept.
#[derive(Debug)]
struct PointSweep {
    params: SubscriberParams,
    points: Vec<(f64, f64)>,
    walkers: Vec<Walker>,
    /// Each walker's next visit, not yet swept (`FINISHED` once the walk
    /// is over).
    next: Vec<Visit>,
    /// Per point, the swept visits that may still overlap a later arrival.
    open: Vec<Vec<Visit>>,
}

/// Stands in for the next visit of a walk that is over.
const FINISHED: Visit = Visit {
    node: NodeId(0),
    point: 0,
    arrive: SimTime::MAX,
    depart: SimTime::MAX,
};

impl PointSweep {
    /// Draw walker `i`'s next visit.
    fn draw_next(&mut self, i: usize) {
        self.next[i] = self.walkers[i]
            .step(&self.params, &self.points)
            .unwrap_or(FINISHED);
    }

    /// The walker whose next visit arrives first, if it arrives before
    /// `until`.
    fn earliest(&self, until: SimTime) -> Option<usize> {
        let (mut best, mut first) = (None, until);
        for (i, visit) in self.next.iter().enumerate() {
            if visit.arrive < first {
                (best, first) = (Some(i), visit.arrive);
            }
        }
        best
    }
}

impl Generate for PointSweep {
    fn extend(&mut self, until: SimTime, out: &mut Vec<Contact>) {
        let (cap, horizon) = (self.params.contact_cap, self.params.horizon);
        while let Some(i) = self.earliest(until) {
            let vb = self.next[i];
            self.draw_next(i);
            let open = &mut self.open[vb.point as usize];
            // Visits reach each point in arrival order, so one that has
            // left by now overlaps nothing later.
            open.retain(|va| va.depart > vb.arrive);
            for va in open.iter() {
                if va.node == vb.node {
                    continue;
                }
                let start = vb.arrive;
                let end = va.depart.min(vb.depart).min(start + cap).min(horizon);
                if end > start {
                    out.push(Contact::new(va.node, vb.node, start, end));
                }
            }
            open.push(vb);
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.points.capacity() * size_of::<(f64, f64)>()
            + self.walkers.capacity() * size_of::<Walker>()
            + self.next.capacity() * size_of::<Visit>()
            + self.open.capacity() * size_of::<Vec<Visit>>()
            + self
                .open
                .iter()
                .map(|o| o.capacity() * size_of::<Visit>())
                .sum::<usize>()
    }
}

/// Convert point visits into pairwise contacts: every overlap of two
/// different nodes' stays at the same point, clamped to `cap`. The
/// reference the incremental sweep is tested against.
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
        let group = &visits[group_start..group_end];
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
        group_start = group_end;
    }
    contacts
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

    /// The eager generator this module used to run: record every node's
    /// walk, then sweep each point's visits and sort the trace.
    fn eager_generate(params: &SubscriberParams, rng: &mut SimRng) -> ContactTrace {
        let points: Vec<(f64, f64)> = (0..params.points)
            .map(|_| {
                (
                    rng.range_f64(0.0, params.area_side_m),
                    rng.range_f64(0.0, params.area_side_m),
                )
            })
            .collect();
        let mut visits: Vec<Visit> = Vec::new();
        for n in 0..params.nodes as u16 {
            let mut t = SimTime::ZERO;
            let mut here = rng.below(params.points as u64) as usize;
            while t < params.horizon {
                let pause = rng.duration_in(SimDuration::from_secs(1), params.pause_max);
                let depart = (t + pause).min(params.horizon);
                visits.push(Visit {
                    node: NodeId(n),
                    point: here as u32,
                    arrive: t,
                    depart,
                });
                if depart >= params.horizon {
                    break;
                }
                let r = rng.below(params.points as u64 - 1) as usize;
                let next = if r >= here { r + 1 } else { r };
                let (x0, y0) = points[here];
                let (x1, y1) = points[next];
                let dist = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt().max(1.0);
                let speed = rng.range_f64(params.speed_min_mps, params.speed_max_mps);
                t = depart + SimDuration::from_secs_f64(dist / speed);
                here = next;
            }
        }
        let contacts = co_location_contacts(&mut visits, params.contact_cap, params.horizon);
        ContactTrace::new(params.nodes, params.horizon, contacts).unwrap()
    }

    /// `generate`, and the lazy trace read every way, against the eager
    /// generator; both must also leave the RNG where it does.
    fn assert_matches_eager(params: &SubscriberParams, seed: u64, read_lazily: bool) {
        let mut rng = SimRng::new(seed);
        let reference = eager_generate(params, &mut rng);
        let mut generated = SimRng::new(seed);
        let trace = params.generate(&mut generated);
        assert_eq!(trace.contacts(), reference.contacts(), "seed {seed}");
        assert_eq!(generated, rng, "seed {seed}: draws");
        if read_lazily {
            let mut lazy = SimRng::new(seed);
            drop(params.lazy(&mut lazy));
            assert_eq!(lazy, rng, "seed {seed}: lazy draws");
            crate::lazy::assert_stream_matches(
                || params.lazy(&mut SimRng::new(seed)),
                &reference,
                seed,
            );
        }
    }

    #[test]
    fn point_grouping_matches_the_global_sort() {
        // The general path (record every visit, one stable sort by point,
        // arrival, node, then a sweep per point) is the reference: the
        // incremental sweep must reproduce its contact list exactly,
        // order included, however the trace is read. Short horizons, and
        // the lazy reads on the first 20 seeds only, keep this fast in
        // debug builds; see the full-scale check below.
        for points in [2, 5, 30, 99] {
            for pause_secs in [1, 300, 999] {
                let params = SubscriberParams {
                    points,
                    pause_max: SimDuration::from_secs(pause_secs),
                    horizon: SimTime::from_secs(20_000),
                    ..SubscriberParams::default()
                };
                for seed in 0..200 {
                    assert_matches_eager(&params, seed, seed < 20);
                }
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full scale: run with --release")]
    fn full_scale_stream_matches_eager_generate() {
        let params = SubscriberParams::default();
        for seed in 0..200 {
            assert_matches_eager(&params, seed, true);
        }
    }

    #[test]
    fn a_part_read_holds_less_than_the_finished_trace() {
        let params = SubscriberParams::default();
        let trace = params.lazy(&mut SimRng::new(5));
        let early = trace
            .stream()
            .take_while(|c| c.start < SimTime::from_secs(20_000))
            .count();
        assert!(early > 0);
        let full = params.generate(&mut SimRng::new(5)).len();
        assert!(
            trace.bytes() < full * std::mem::size_of::<Contact>() / 4,
            "{} bytes after a 20 000 s read of a {full}-contact trace",
            trace.bytes()
        );
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
