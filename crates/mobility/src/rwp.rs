//! Classic geometric Random Way Point (RWP) mobility with analytic contact
//! detection.
//!
//! The paper's second evaluation scenario moves nodes by RWP (Bai et al.,
//! its reference \[9\]). This module implements the textbook model: each node
//! repeatedly (i) picks a uniform waypoint in a square area, (ii) travels to
//! it in a straight line at a uniformly drawn speed, and (iii) pauses for a
//! uniformly drawn time. Two nodes are in contact while their distance is
//! at most the transmission range.
//!
//! Trajectories are piecewise linear, so the squared pairwise distance on
//! any pair of overlapping legs is a quadratic in time: range crossings are
//! found by solving `|Δp + Δv·τ|² = R²` exactly rather than by time
//! stepping — no missed short contacts, no tunable step size, and the
//! output is bit-deterministic for a given seed.
//!
//! The paper also notes two classic RWP pathologies (speed decay to zero,
//! odd movement patterns) and works around them with a "subscriber point"
//! variant; that variant lives in [`crate::subscriber`]. The classic model
//! here avoids speed decay by drawing speeds with a strictly positive lower
//! bound (Resta & Santi's fix, the paper's reference \[19\]).

use crate::contact::{Contact, ContactTrace, NodeId};
use crate::lazy::{Generate, LazyTrace};
use dtn_sim::{SimRng, SimTime};

/// A 2-D vector/point in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vec2 {
    /// x-coordinate (m).
    pub x: f64,
    /// y-coordinate (m).
    pub y: f64,
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2 {
            x: self.x - o.x,
            y: self.y - o.y,
        }
    }
}

impl Vec2 {
    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

/// One constant-velocity leg of a trajectory: position at time `t` (seconds,
/// within `[t0, t1]`) is `p0 + v·(t − t0)`. A pause is a leg with `v = 0`.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    /// Leg start time (s).
    pub t0: f64,
    /// Leg end time (s).
    pub t1: f64,
    /// Position at `t0`.
    pub p0: Vec2,
    /// Constant velocity (m/s).
    pub v: Vec2,
}

impl Leg {
    /// Position at absolute time `t` (clamped to the leg's interval).
    pub fn position(&self, t: f64) -> Vec2 {
        let tau = (t.clamp(self.t0, self.t1)) - self.t0;
        Vec2 {
            x: self.p0.x + self.v.x * tau,
            y: self.p0.y + self.v.y * tau,
        }
    }
}

/// Parameters of the classic RWP model.
#[derive(Clone, Debug)]
pub struct RwpParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Side length of the square area (m).
    pub area_side_m: f64,
    /// Transmission range (m); the unified parameter table bounds this by
    /// 300 m.
    pub range_m: f64,
    /// Minimum travel speed (m/s); strictly positive to avoid the
    /// speed-decay pathology.
    pub speed_min_mps: f64,
    /// Maximum travel speed (m/s).
    pub speed_max_mps: f64,
    /// Maximum pause at a waypoint (s); pauses are uniform in `[0, max]`.
    pub pause_max_s: f64,
}

impl Default for RwpParams {
    fn default() -> Self {
        RwpParams {
            nodes: 12,
            horizon: SimTime::from_secs(600_000),
            area_side_m: 1_000.0,
            range_m: 100.0,
            speed_min_mps: 1.0,
            speed_max_mps: 10.0,
            pause_max_s: 1_000.0,
        }
    }
}

impl RwpParams {
    fn validate(&self) {
        assert!(self.nodes >= 2);
        assert!(self.area_side_m > 0.0);
        assert!(self.range_m > 0.0 && self.range_m < self.area_side_m);
        assert!(
            self.speed_min_mps > 0.0,
            "zero min speed causes RWP speed decay"
        );
        assert!(self.speed_max_mps >= self.speed_min_mps);
        assert!(self.pause_max_s >= 0.0);
    }

    /// One node's trajectory out to `horizon_s`, as a leg list.
    #[cfg(test)]
    fn trajectory(&self, rng: &mut SimRng, horizon_s: f64) -> Vec<Leg> {
        let mut mover = Mover::start(rng.clone(), self.area_side_m);
        let mut legs = Vec::new();
        while mover.step(self, horizon_s, |leg| legs.push(leg)) {}
        *rng = mover.rng;
        legs
    }

    /// Generate the full contact trace: the generator behind
    /// [`RwpParams::lazy`], extended to the horizon in one go.
    pub fn generate(&self, rng: &mut SimRng) -> ContactTrace {
        let mut contacts = Vec::new();
        self.scan(rng).extend(self.horizon, &mut contacts);
        ContactTrace::new(self.nodes, self.horizon, contacts)
            .expect("generator upholds trace invariants")
    }

    /// The same trace, generated a time window at a time as it is read.
    /// Draws from `rng` exactly what [`RwpParams::generate`] draws.
    pub fn lazy(&self, rng: &mut SimRng) -> LazyTrace {
        LazyTrace::new(self.nodes, self.horizon, Box::new(self.scan(rng)))
    }

    /// Move every node once without recording anything, to snapshot the
    /// RNG where each node's trajectory starts: the trajectories are one
    /// stream, node-major. The scan re-moves each node from its snapshot
    /// as it goes.
    fn scan(&self, rng: &mut SimRng) -> RangeScan {
        self.validate();
        let horizon_s = self.horizon.as_secs_f64();
        let mut tracks = Vec::with_capacity(self.nodes);
        for _ in 0..self.nodes {
            let snapshot = rng.clone();
            let mut mover = Mover::start(rng.clone(), self.area_side_m);
            while mover.step(self, horizon_s, |_| {}) {}
            *rng = mover.rng;
            tracks.push(Track {
                mover: Mover::start(snapshot, self.area_side_m),
                legs: Vec::new(),
                first: 0,
                ended: false,
            });
        }
        let pairs = (0..self.nodes)
            .flat_map(|a| (a + 1..self.nodes).map(move |b| (a, b)))
            .map(|(a, b)| (a as u16, b as u16, PairScan::default()))
            .collect();
        RangeScan {
            params: self.clone(),
            horizon_s,
            tracks,
            pairs,
        }
    }
}

/// One node's movement: pause, then travel to a uniform waypoint, drawing
/// from its own copy of the RNG stream.
#[derive(Clone, Debug)]
struct Mover {
    rng: SimRng,
    /// End of the legs drawn so far (s).
    t: f64,
    pos: Vec2,
}

impl Mover {
    /// Start at a uniform position.
    fn start(mut rng: SimRng, side: f64) -> Mover {
        let pos = Vec2 {
            x: rng.range_f64(0.0, side),
            y: rng.range_f64(0.0, side),
        };
        Mover { rng, t: 0.0, pos }
    }

    /// Draw one pause/travel cycle and hand its legs (up to two) to
    /// `push`. Returns false, drawing nothing, once the legs reach
    /// `horizon_s`.
    fn step(&mut self, p: &RwpParams, horizon_s: f64, mut push: impl FnMut(Leg)) -> bool {
        if self.t >= horizon_s {
            return false;
        }
        // Pause phase (possibly zero-length).
        if p.pause_max_s > 0.0 {
            let pause = self.rng.range_f64(0.0, p.pause_max_s);
            if pause > 0.0 {
                push(Leg {
                    t0: self.t,
                    t1: (self.t + pause).min(horizon_s),
                    p0: self.pos,
                    v: Vec2 { x: 0.0, y: 0.0 },
                });
                self.t += pause;
                if self.t >= horizon_s {
                    return true;
                }
            }
        }
        // Travel phase.
        let target = Vec2 {
            x: self.rng.range_f64(0.0, p.area_side_m),
            y: self.rng.range_f64(0.0, p.area_side_m),
        };
        let delta = target - self.pos;
        let dist = delta.norm();
        if dist < 1e-9 {
            return true; // degenerate waypoint; redraw next cycle
        }
        let speed = self.rng.range_f64(p.speed_min_mps, p.speed_max_mps);
        let travel = dist / speed;
        push(Leg {
            t0: self.t,
            t1: (self.t + travel).min(horizon_s),
            p0: self.pos,
            v: Vec2 {
                x: delta.x / travel,
                y: delta.y / travel,
            },
        });
        self.t += travel;
        self.pos = target;
        true
    }
}

/// A node's legs from index `first` on, drawn as the pair scans need them.
#[derive(Clone, Debug)]
struct Track {
    mover: Mover,
    legs: Vec<Leg>,
    /// Index, in the whole trajectory, of `legs[0]`.
    first: usize,
    /// The trajectory has reached the horizon: `legs` ends it.
    ended: bool,
}

impl Track {
    /// Draw a few more pause/travel cycles.
    fn grow(&mut self, p: &RwpParams, horizon_s: f64) {
        let legs = &mut self.legs;
        for _ in 0..8 {
            if !self.mover.step(p, horizon_s, |leg| legs.push(leg)) {
                self.ended = true;
                break;
            }
        }
    }

    fn view(&self) -> Legs<'_> {
        Legs {
            legs: &self.legs,
            first: self.first,
            ended: self.ended,
        }
    }

    /// Forget the legs before index `keep`.
    fn drop_before(&mut self, keep: usize) {
        let n = keep.saturating_sub(self.first).min(self.legs.len());
        self.legs.drain(..n);
        self.first += n;
    }
}

/// The legs of one trajectory drawn so far, from index `first` on.
#[derive(Clone, Copy, Debug)]
struct Legs<'a> {
    legs: &'a [Leg],
    first: usize,
    /// No legs follow `legs`.
    ended: bool,
}

/// Intervals separated by less than 1 ms are joined — that is the
/// clock's resolution, so the simulator could not distinguish them anyway.
const JOIN_EPS: f64 = 1e-3;

/// One pair's forward merge over its two leg lists: the in-range window
/// of each overlapping leg pair, joined into `pending` while they touch.
#[derive(Clone, Copy, Debug, Default)]
struct PairScan {
    /// Next leg of each node.
    i: usize,
    j: usize,
    /// The merged interval still open to joins, in seconds.
    pending: Option<(f64, f64)>,
    /// The legs ran out: every interval is out.
    done: bool,
}

/// Which node's trajectory a scan needs more legs of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Need {
    A,
    B,
}

impl PairScan {
    /// Hand `emit` every merged interval that starts before `until`, in
    /// order. An interval is final once the scan has passed its end plus
    /// the join gap (nothing later can join it), so the scan may read
    /// legs past `until` to close one; it stops at the first interval, or
    /// leg window, that starts at or after `until`, or when it needs legs
    /// not drawn yet (it then says whose, and resumes on the next call).
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        a: Legs<'_>,
        b: Legs<'_>,
        range: f64,
        horizon_s: f64,
        until: SimTime,
        mut emit: impl FnMut((f64, f64)),
    ) -> Option<Need> {
        // `SimTime::from_secs_f64(t) >= until` for the times t ≥ 0 seen
        // here, without rounding each one: that conversion rounds t·1000
        // half away from zero, so it reaches `until` exactly when t·1000
        // reaches `until` − 0.5 ms.
        let cut = until.as_millis() as f64 - 0.5;
        while !self.done {
            if let Some((s, _)) = self.pending {
                if s * 1000.0 >= cut {
                    return None;
                }
            }
            let (la, lb) = match (a.legs.get(self.i - a.first), b.legs.get(self.j - b.first)) {
                (Some(la), Some(lb)) => (la, lb),
                (None, _) if !a.ended => return Some(Need::A),
                (Some(_), None) if !b.ended => return Some(Need::B),
                _ => {
                    self.pending.take().map(&mut emit);
                    self.done = true;
                    return None;
                }
            };
            let lo = la.t0.max(lb.t0);
            match self.pending {
                Some((_, end)) if lo > end + JOIN_EPS => {
                    self.pending.take().map(&mut emit);
                    continue;
                }
                None if lo * 1000.0 >= cut => return None,
                _ => {}
            }
            let hi = la.t1.min(lb.t1).min(horizon_s);
            if hi > lo {
                if let Some((s, e)) = in_range_window(la, lb, range, lo, hi) {
                    match &mut self.pending {
                        Some(last) if s <= last.1 + JOIN_EPS => last.1 = last.1.max(e),
                        pending => {
                            pending.take().map(&mut emit);
                            *pending = Some((s, e));
                        }
                    }
                }
            }
            // Advance whichever leg ends first.
            if la.t1 <= lb.t1 {
                self.i += 1;
            } else {
                self.j += 1;
            }
        }
        None
    }
}

/// The incremental contact generator: every pair's scan, over legs drawn
/// on demand and forgotten once every pair is past them.
#[derive(Debug)]
struct RangeScan {
    params: RwpParams,
    horizon_s: f64,
    tracks: Vec<Track>,
    /// Every pair `(a, b)`, `a < b`, with its scan.
    pairs: Vec<(u16, u16, PairScan)>,
}

impl Generate for RangeScan {
    fn extend(&mut self, until: SimTime, out: &mut Vec<Contact>) {
        let RangeScan {
            params,
            horizon_s,
            tracks,
            pairs,
        } = self;
        let horizon_s = *horizon_s;
        for (a, b, scan) in pairs.iter_mut() {
            let (ta, tb) = two_mut(tracks, *a as usize, *b as usize);
            let mut emit = |(start, end): (f64, f64)| {
                // Sub-millisecond grazes round to empty; skip them.
                let s = SimTime::from_secs_f64(start);
                let e = SimTime::from_secs_f64(end.min(horizon_s));
                if e > s {
                    out.push(Contact::new(NodeId(*a), NodeId(*b), s, e));
                }
            };
            while let Some(need) = scan.advance(
                ta.view(),
                tb.view(),
                params.range_m,
                horizon_s,
                until,
                &mut emit,
            ) {
                match need {
                    Need::A => ta.grow(params, horizon_s),
                    Need::B => tb.grow(params, horizon_s),
                }
            }
        }
        // Keep only the legs some pair has yet to read.
        let mut keep = vec![usize::MAX; tracks.len()];
        for (a, b, scan) in pairs.iter().filter(|(_, _, scan)| !scan.done) {
            keep[*a as usize] = keep[*a as usize].min(scan.i);
            keep[*b as usize] = keep[*b as usize].min(scan.j);
        }
        for (track, keep) in tracks.iter_mut().zip(keep) {
            track.drop_before(keep);
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tracks.capacity() * size_of::<Track>()
            + self
                .tracks
                .iter()
                .map(|t| t.legs.capacity() * size_of::<Leg>())
                .sum::<usize>()
            + self.pairs.capacity() * size_of::<(u16, u16, PairScan)>()
    }
}

/// Split two distinct mutable references out of a slice.
fn two_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i < j, "two_mut wants ascending indices");
    let (lo, hi) = xs.split_at_mut(j);
    (&mut lo[i], &mut hi[0])
}

/// Solve for the in-range sub-interval of `[lo, hi]` on a single pair of
/// legs. Within one window the in-range set of a quadratic `≤ 0` condition
/// is a single interval (possibly empty).
fn in_range_window(la: &Leg, lb: &Leg, range: f64, lo: f64, hi: f64) -> Option<(f64, f64)> {
    // Relative state at `lo`.
    let dp = la.position(lo) - lb.position(lo);
    let dv = la.v - lb.v;
    let a = dv.dot(dv);
    let b = 2.0 * dp.dot(dv);
    let c = dp.dot(dp) - range * range;

    if a < 1e-12 {
        // Constant relative distance over the window.
        return if c <= 0.0 { Some((lo, hi)) } else { None };
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        // Never within range (the parabola in τ stays positive).
        return None;
    }
    let sqrt_disc = disc.sqrt();
    let tau_in = (-b - sqrt_disc) / (2.0 * a);
    let tau_out = (-b + sqrt_disc) / (2.0 * a);
    let s = (lo + tau_in.max(0.0)).min(hi);
    let e = (lo + tau_out).min(hi);
    if e > s {
        Some((s, e))
    } else {
        None
    }
}

/// Merge touching/overlapping `(start, end)` intervals (input need not be
/// sorted). Intervals separated by less than 1 ms are joined.
pub fn merge_intervals(mut xs: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    xs.sort_by(|p, q| p.0.total_cmp(&q.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(xs.len());
    for (s, e) in xs {
        match out.last_mut() {
            Some(last) if s <= last.1 + JOIN_EPS => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(t0: f64, t1: f64, p0: (f64, f64), v: (f64, f64)) -> Leg {
        Leg {
            t0,
            t1,
            p0: Vec2 { x: p0.0, y: p0.1 },
            v: Vec2 { x: v.0, y: v.1 },
        }
    }

    /// Sub-intervals of `[0, horizon]` during which two piecewise-linear
    /// trajectories stay within `range` of each other: one pair's scan
    /// over whole leg lists.
    fn contact_intervals(ta: &[Leg], tb: &[Leg], range: f64, horizon_s: f64) -> Vec<(f64, f64)> {
        let whole = |legs| Legs {
            legs,
            first: 0,
            ended: true,
        };
        let mut merged = Vec::new();
        PairScan::default().advance(
            whole(ta),
            whole(tb),
            range,
            horizon_s,
            SimTime::MAX,
            |interval| merged.push(interval),
        );
        merged
    }

    #[test]
    fn head_on_pass_creates_one_contact() {
        // A at x=0 moving +1 m/s; B at x=1000 moving −1 m/s; range 100 m.
        // Distance 1000−2t ≤ 100 ⟺ t ∈ [450, 550].
        let ta = vec![leg(0.0, 1_000.0, (0.0, 0.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (1_000.0, 0.0), (-1.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 1_000.0);
        assert_eq!(iv.len(), 1);
        assert!((iv[0].0 - 450.0).abs() < 1e-6, "{iv:?}");
        assert!((iv[0].1 - 550.0).abs() < 1e-6, "{iv:?}");
    }

    #[test]
    fn parallel_distant_nodes_never_meet() {
        let ta = vec![leg(0.0, 1_000.0, (0.0, 0.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (0.0, 500.0), (1.0, 0.0))];
        assert!(contact_intervals(&ta, &tb, 100.0, 1_000.0).is_empty());
    }

    #[test]
    fn stationary_nodes_in_range_contact_for_whole_window() {
        let ta = vec![leg(0.0, 300.0, (0.0, 0.0), (0.0, 0.0))];
        let tb = vec![leg(100.0, 200.0, (50.0, 0.0), (0.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 1_000.0);
        assert_eq!(iv, vec![(100.0, 200.0)]);
    }

    #[test]
    fn contact_spanning_leg_boundary_is_merged() {
        // B stationary at origin. A walks through: its path is split into
        // two legs at t=500 mid-approach; the contact must come out as one
        // interval, not two.
        let ta = vec![
            leg(0.0, 500.0, (-600.0, 0.0), (1.0, 0.0)),
            leg(500.0, 1_200.0, (-100.0, 0.0), (1.0, 0.0)),
        ];
        let tb = vec![leg(0.0, 1_200.0, (0.0, 0.0), (0.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 2_000.0);
        assert_eq!(iv.len(), 1, "{iv:?}");
        assert!((iv[0].0 - 500.0).abs() < 1e-6);
        assert!((iv[0].1 - 700.0).abs() < 1e-6);
    }

    #[test]
    fn grazing_pass_outside_range_is_empty() {
        // Closest approach 150 m > 100 m range.
        let ta = vec![leg(0.0, 1_000.0, (0.0, 150.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (1_000.0, 0.0), (-1.0, 0.0))];
        assert!(contact_intervals(&ta, &tb, 100.0, 1_000.0).is_empty());
    }

    #[test]
    fn merge_intervals_joins_and_sorts() {
        let merged = merge_intervals(vec![(10.0, 20.0), (5.0, 8.0), (19.9999, 30.0)]);
        assert_eq!(merged, vec![(5.0, 8.0), (10.0, 30.0)]);
    }

    /// The eager generator this module used to run: every trajectory in
    /// full, every pair's raw windows merged, then one sort.
    fn eager_generate(params: &RwpParams, rng: &mut SimRng) -> ContactTrace {
        let horizon_s = params.horizon.as_secs_f64();
        let trajectories: Vec<Vec<Leg>> = (0..params.nodes)
            .map(|_| eager_trajectory(params, rng, horizon_s))
            .collect();
        let mut contacts = Vec::new();
        for a in 0..params.nodes {
            for b in (a + 1)..params.nodes {
                let (ta, tb) = (&trajectories[a], &trajectories[b]);
                let mut raw: Vec<(f64, f64)> = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < ta.len() && j < tb.len() {
                    let (la, lb) = (&ta[i], &tb[j]);
                    let lo = la.t0.max(lb.t0);
                    let hi = la.t1.min(lb.t1).min(horizon_s);
                    if hi > lo {
                        if let Some(w) = in_range_window(la, lb, params.range_m, lo, hi) {
                            raw.push(w);
                        }
                    }
                    if la.t1 <= lb.t1 {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                for (start, end) in merge_intervals(raw) {
                    let s = SimTime::from_secs_f64(start);
                    let e = SimTime::from_secs_f64(end.min(horizon_s));
                    if e > s {
                        contacts.push(Contact::new(NodeId(a as u16), NodeId(b as u16), s, e));
                    }
                }
            }
        }
        ContactTrace::new(params.nodes, params.horizon, contacts).unwrap()
    }

    fn eager_trajectory(params: &RwpParams, rng: &mut SimRng, horizon_s: f64) -> Vec<Leg> {
        let mut legs = Vec::new();
        let mut t = 0.0;
        let mut pos = Vec2 {
            x: rng.range_f64(0.0, params.area_side_m),
            y: rng.range_f64(0.0, params.area_side_m),
        };
        while t < horizon_s {
            if params.pause_max_s > 0.0 {
                let pause = rng.range_f64(0.0, params.pause_max_s);
                if pause > 0.0 {
                    legs.push(leg(
                        t,
                        (t + pause).min(horizon_s),
                        (pos.x, pos.y),
                        (0.0, 0.0),
                    ));
                    t += pause;
                    if t >= horizon_s {
                        break;
                    }
                }
            }
            let target = Vec2 {
                x: rng.range_f64(0.0, params.area_side_m),
                y: rng.range_f64(0.0, params.area_side_m),
            };
            let delta = target - pos;
            let dist = delta.norm();
            if dist < 1e-9 {
                continue;
            }
            let speed = rng.range_f64(params.speed_min_mps, params.speed_max_mps);
            let travel = dist / speed;
            let v = (delta.x / travel, delta.y / travel);
            legs.push(leg(t, (t + travel).min(horizon_s), (pos.x, pos.y), v));
            t += travel;
            pos = target;
        }
        legs
    }

    /// `generate`, and the lazy trace read every way, against the eager
    /// generator; both must also leave the RNG where it does.
    fn assert_matches_eager(params: &RwpParams, seed: u64) {
        let mut rng = SimRng::new(seed);
        let reference = eager_generate(params, &mut rng);
        let mut generated = SimRng::new(seed);
        let trace = params.generate(&mut generated);
        assert_eq!(trace.contacts(), reference.contacts(), "seed {seed}");
        assert_eq!(generated, rng, "seed {seed}: draws");
        let mut lazy = SimRng::new(seed);
        drop(params.lazy(&mut lazy));
        assert_eq!(lazy, rng, "seed {seed}: lazy draws");
        crate::lazy::assert_stream_matches(
            || params.lazy(&mut SimRng::new(seed)),
            &reference,
            seed,
        );
    }

    #[test]
    fn incremental_scan_matches_the_eager_merge() {
        // Short horizons keep this fast in debug builds; the pause and
        // range settings cover zero pauses, long co-located pauses and
        // long-lived pair intervals that straddle windows.
        for (pause_max_s, range_m) in [(0.0, 100.0), (1_000.0, 100.0), (5_000.0, 300.0)] {
            let params = RwpParams {
                horizon: SimTime::from_secs(20_000),
                pause_max_s,
                range_m,
                ..RwpParams::default()
            };
            for seed in 0..20 {
                assert_matches_eager(&params, seed);
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full scale: run with --release")]
    fn full_scale_stream_matches_eager_generate() {
        let params = RwpParams {
            horizon: SimTime::from_secs(600_000),
            ..RwpParams::default()
        };
        for seed in 0..200 {
            assert_matches_eager(&params, seed);
        }
    }

    #[test]
    fn a_part_read_holds_less_than_the_finished_trace() {
        let params = RwpParams {
            horizon: SimTime::from_secs(600_000),
            ..RwpParams::default()
        };
        let trace = params.lazy(&mut SimRng::new(5));
        let early = trace
            .stream()
            .take_while(|c| c.start < SimTime::from_secs(10_000))
            .count();
        assert!(early > 0);
        let full = params.generate(&mut SimRng::new(5)).len();
        assert!(
            trace.bytes() < full * std::mem::size_of::<Contact>() / 4,
            "{} bytes after a 10 000 s read of a {full}-contact trace",
            trace.bytes()
        );
    }

    #[test]
    fn rwp_generates_valid_trace() {
        let params = RwpParams {
            horizon: SimTime::from_secs(50_000),
            ..RwpParams::default()
        };
        let trace = params.generate(&mut SimRng::new(2));
        assert_eq!(trace.node_count(), 12);
        assert!(
            !trace.is_empty(),
            "12 nodes in 1 km² for 50 000 s must meet"
        );
        for c in trace.contacts() {
            assert!(c.start < c.end && c.end <= trace.horizon());
        }
    }

    #[test]
    fn rwp_is_deterministic() {
        let params = RwpParams {
            horizon: SimTime::from_secs(20_000),
            ..RwpParams::default()
        };
        let t1 = params.generate(&mut SimRng::new(4));
        let t2 = params.generate(&mut SimRng::new(4));
        assert_eq!(t1.contacts(), t2.contacts());
    }

    #[test]
    fn trajectory_covers_horizon_without_gaps() {
        let params = RwpParams::default();
        let mut rng = SimRng::new(6);
        let legs = params.trajectory(&mut rng, 10_000.0);
        assert!(!legs.is_empty());
        assert!(legs[0].t0 == 0.0);
        for w in legs.windows(2) {
            assert!(
                (w[0].t1 - w[1].t0).abs() < 1e-9,
                "gap between legs: {} vs {}",
                w[0].t1,
                w[1].t0
            );
        }
        assert!(legs.last().unwrap().t1 >= 10_000.0 - 1e-9);
    }

    #[test]
    fn trajectory_stays_inside_area() {
        let params = RwpParams::default();
        let mut rng = SimRng::new(8);
        let legs = params.trajectory(&mut rng, 20_000.0);
        for l in &legs {
            for t in [l.t0, (l.t0 + l.t1) / 2.0, l.t1] {
                let p = l.position(t);
                assert!((-1e-6..=params.area_side_m + 1e-6).contains(&p.x));
                assert!((-1e-6..=params.area_side_m + 1e-6).contains(&p.y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "speed decay")]
    fn zero_min_speed_is_rejected() {
        let params = RwpParams {
            speed_min_mps: 0.0,
            ..RwpParams::default()
        };
        params.generate(&mut SimRng::new(0));
    }

    #[test]
    fn denser_network_means_more_contacts() {
        let base = RwpParams {
            horizon: SimTime::from_secs(30_000),
            ..RwpParams::default()
        };
        let sparse = RwpParams {
            area_side_m: 3_000.0,
            ..base.clone()
        };
        let dense_n = base.generate(&mut SimRng::new(10)).len();
        let sparse_n = sparse.generate(&mut SimRng::new(10)).len();
        assert!(
            dense_n > sparse_n,
            "dense {dense_n} should exceed sparse {sparse_n}"
        );
    }
}
