//! Property-based tests for the simulation substrate.

use dtn_sim::{
    events::EventQueue,
    par_map_indexed,
    stats::{mean, Histogram, TimeWeighted, Welford},
    Engine, Flow, Scheduler, SimDuration, SimRng, SimTime, StopReason, Threads,
};
use proptest::prelude::*;

fn hist_of(xs: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &x in xs {
        h.record(x);
    }
    h
}

/// Bucket counts as a comparable fingerprint: `(lo-bits, hi-bits, count)`
/// per non-empty bucket, in value order.
fn bucket_fingerprint(h: &Histogram) -> Vec<(u64, u64, u64)> {
    h.nonzero_buckets()
        .iter()
        .map(|b| (b.lo.to_bits(), b.hi.to_bits(), b.count))
        .collect()
}

/// An engine event: `(id, generation)`.
type Ev = (u32, u32);

/// One run's observable outcome: every fired `(time, event)`, why the run
/// stopped, the events processed and the final clock.
type RunLog = (Vec<(SimTime, Ev)>, StopReason, u64, SimTime);

/// Run `pre` (scheduled before the run) and `stream` under a handler that
/// spawns follow-ups at `now` and later, two generations deep, and stops
/// on the `stop_at`-th event. With `streamed` the stream is merged through
/// `run_stream`; otherwise it is scheduled up front after `pre`.
fn merge_run(
    pre: &[(SimTime, Ev)],
    stream: &[(SimTime, Ev)],
    streamed: bool,
    (horizon, budget, stop_at): (SimTime, u64, usize),
) -> RunLog {
    let mut engine = Engine::new(horizon);
    engine.set_event_budget(budget);
    for &(t, e) in pre {
        engine.schedule(t, e);
    }
    let mut fired = Vec::new();
    let mut handler = |t: SimTime, (id, generation): Ev, sched: &mut Scheduler<'_, Ev>| {
        fired.push((t, (id, generation)));
        if generation < 2 && id % 3 != 0 {
            sched.schedule_in(SimDuration::ZERO, (id * 4 + 1, generation + 1));
            let delay = SimDuration::from_secs(u64::from(id % 5));
            sched.schedule_in(delay, (id * 4 + 2, generation + 1));
        }
        if fired.len() == stop_at {
            Flow::Stop
        } else {
            Flow::Continue
        }
    };
    let reason = if streamed {
        engine.run_stream(stream.iter().copied(), &mut handler)
    } else {
        for &(t, e) in stream {
            engine.schedule(t, e);
        }
        engine.run(&mut handler)
    };
    (fired, reason, engine.events_processed(), engine.now())
}

proptest! {
    /// A stream merged into the run loop fires exactly what scheduling it
    /// up front fires: equal-time ties go to pre-run events, then the
    /// stream in order, then run-time follow-ups. Both runs also stop at
    /// the same event under the horizon, `Flow::Stop` and the budget.
    #[test]
    fn streamed_run_matches_scheduling_the_stream_up_front(
        pre_times in prop::collection::vec(0u64..40, 0..30),
        steps in prop::collection::vec(0u64..4, 0..60),
        horizon in 0u64..260,
        budget in 0u64..400,
        stop_at in 0usize..400,
    ) {
        let secs = SimTime::from_secs;
        let pre: Vec<(SimTime, Ev)> = pre_times
            .iter()
            .enumerate()
            .map(|(i, &t)| (secs(t), (i as u32, 0)))
            .collect();
        // A non-decreasing stream with frequent equal times.
        let mut t = 0;
        let stream: Vec<(SimTime, Ev)> = steps
            .iter()
            .enumerate()
            .map(|(i, &step)| {
                t += step;
                (secs(t), (1_000 + i as u32, 0))
            })
            .collect();
        for limits in [
            (SimTime::MAX, u64::MAX, 0),
            (secs(horizon), u64::MAX, 0),
            (SimTime::MAX, u64::MAX, stop_at),
            (SimTime::MAX, budget, 0),
            (secs(horizon), budget, stop_at),
        ] {
            prop_assert_eq!(
                merge_run(&pre, &stream, true, limits),
                merge_run(&pre, &stream, false, limits)
            );
        }
    }

    /// Popping the queue yields events in (time, insertion) order for any
    /// schedule.
    #[test]
    fn event_queue_is_a_stable_total_order(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// Welford matches the naive two-pass mean/variance.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let m = mean(&xs);
        prop_assert!((w.mean() - m).abs() < 1e-6 * (1.0 + m.abs()));
        if xs.len() >= 2 {
            let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
            prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }
    }

    /// Merging any split of the sample equals processing it whole.
    #[test]
    fn welford_merge_is_split_invariant(
        xs in prop::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let cut = split % xs.len();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..cut] {
            left.push(x);
        }
        for &x in &xs[cut..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-8);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// The time-weighted mean equals a brute-force integral of the
    /// piecewise-constant signal.
    #[test]
    fn time_weighted_matches_brute_force(
        steps in prop::collection::vec((1u64..1_000, 0.0f64..100.0), 1..50),
    ) {
        let mut tw = TimeWeighted::new();
        let mut t = 0u64;
        let mut segments: Vec<(u64, u64, f64)> = Vec::new();
        let mut prev_level = 0.0;
        tw.set(SimTime::from_secs(0), 0.0);
        for &(dt, level) in &steps {
            let next = t + dt;
            segments.push((t, next, prev_level));
            tw.set(SimTime::from_secs(next), level);
            prev_level = level;
            t = next;
        }
        let end = t + 100;
        segments.push((t, end, prev_level));
        let total: f64 = segments.iter().map(|&(a, b, l)| (b - a) as f64 * l).sum();
        let expected = total / end as f64;
        let got = tw.finish(SimTime::from_secs(end));
        prop_assert!((got - expected).abs() < 1e-9 * (1.0 + expected.abs()),
            "got {got}, expected {expected}");
    }

    /// `below(n)` is always `< n`; `range_inclusive` respects both ends.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000, lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
            let v = rng.range_inclusive(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&v));
        }
    }

    /// Derived substreams are reproducible and differ from the parent.
    #[test]
    fn rng_derive_reproducible(seed in any::<u64>(), index in 0u64..1_000) {
        let root = SimRng::new(seed);
        let mut a = root.derive(index);
        let mut b = root.derive(index);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Truncated Pareto samples stay in their configured support.
    #[test]
    fn pareto_truncated_support(seed in any::<u64>(), lo in 1.0f64..100.0, scale in 1.1f64..100.0, alpha in 0.1f64..3.0) {
        let hi = lo * scale;
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let x = rng.pareto_truncated(lo, hi, alpha);
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9, "{x} outside [{lo}, {hi}]");
        }
    }

    /// Parallel map is order-preserving and matches sequential execution
    /// regardless of thread count.
    #[test]
    fn par_map_matches_sequential(n in 0usize..200, threads in 1usize..8) {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        let seq = par_map_indexed(Threads::Sequential, n, f);
        let par = par_map_indexed(
            Threads::Fixed(std::num::NonZeroUsize::new(threads).unwrap()),
            n,
            f,
        );
        prop_assert_eq!(seq, par);
    }

    /// SimTime arithmetic is consistent: (t + d) - t == d away from
    /// saturation.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
        let time = SimTime::from_millis(t);
        let dur = SimDuration::from_millis(d);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert_eq!((time + dur).saturating_since(time).as_millis(), d);
    }

    /// Duration division counts whole units exactly.
    #[test]
    fn div_whole_is_integer_division(total in 0u64..1_000_000, unit in 1u64..10_000) {
        let d = SimDuration::from_millis(total);
        let u = SimDuration::from_millis(unit);
        prop_assert_eq!(d.div_whole(u), total / unit);
    }

    /// Histogram merge is commutative: a∪b and b∪a agree bucket-for-bucket
    /// (exactly) and on the moments (within float rounding).
    #[test]
    fn histogram_merge_is_commutative(
        xs in prop::collection::vec(1e-3f64..1e6, 0..100),
        ys in prop::collection::vec(1e-3f64..1e6, 0..100),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(bucket_fingerprint(&ab), bucket_fingerprint(&ba));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9 * (1.0 + ab.mean().abs()));
        prop_assert_eq!(ab.max().to_bits(), ba.max().to_bits());
    }

    /// Histogram merge is associative: (a∪b)∪c and a∪(b∪c) agree, and
    /// both equal recording every sample into one histogram — the
    /// property the parallel sweep reduction relies on.
    #[test]
    fn histogram_merge_is_associative_and_split_invariant(
        xs in prop::collection::vec(1e-3f64..1e6, 3..150),
        cut_a in 0usize..150,
        cut_b in 0usize..150,
    ) {
        let i = cut_a % xs.len();
        let j = i + (cut_b % (xs.len() - i));
        let (a, b, c) = (hist_of(&xs[..i]), hist_of(&xs[i..j]), hist_of(&xs[j..]));
        let whole = hist_of(&xs);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(bucket_fingerprint(&left), bucket_fingerprint(&right));
        prop_assert_eq!(bucket_fingerprint(&left), bucket_fingerprint(&whole));
        prop_assert_eq!(left.count(), xs.len() as u64);
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
    }

    /// Every reported quantile lies within the recorded sample range, and
    /// quantiles are monotone in `q`.
    #[test]
    fn histogram_quantiles_are_bounded_and_monotone(
        xs in prop::collection::vec(1e-3f64..1e6, 1..150),
    ) {
        let h = hist_of(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0f64, f64::max);
        // A quantile resolves to its bucket midpoint, so it can sit up to
        // half a bucket (one subdivision, 1/8 relative) off the true value.
        let slack = 1.0 + 1.0 / 8.0;
        let mut prev = 0.0f64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).expect("non-empty");
            prop_assert!(v >= lo / slack, "q{q}: {v} below min {lo}");
            prop_assert!(v <= hi * slack, "q{q}: {v} above max {hi}");
            prop_assert!(v >= prev, "quantiles must be monotone in q");
            prev = v;
        }
    }

    /// Rendered buckets are disjoint, ascending, and cover every sample:
    /// bucket bounds are monotone and counts sum to `count()`.
    #[test]
    fn histogram_buckets_are_monotone_and_complete(
        xs in prop::collection::vec(0.0f64..1e9, 0..200),
    ) {
        let h = hist_of(&xs);
        let buckets = h.nonzero_buckets();
        let total: u64 = buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(total, h.count());
        prop_assert_eq!(h.count(), xs.len() as u64);
        for b in &buckets {
            prop_assert!(b.lo < b.hi, "bucket [{}, {}) is empty-range", b.lo, b.hi);
            prop_assert!(b.count > 0, "nonzero_buckets returned an empty bucket");
        }
        for w in buckets.windows(2) {
            prop_assert!(
                w[0].hi <= w[1].lo,
                "buckets [{}, {}) and [{}, {}) overlap or disorder",
                w[0].lo, w[0].hi, w[1].lo, w[1].hi
            );
        }
    }

    /// The concurrent-merge contract: per-worker shards (samples dealt
    /// round-robin across any worker count, i.e. interleaved exactly as a
    /// striped parallel loop would produce them) Welford-merge — in *any*
    /// merge order — to the same result as one serial histogram: bucket
    /// counts bit-exact, moments within float rounding.
    #[test]
    fn histogram_sharded_merge_matches_serial(
        xs in prop::collection::vec(0.0f64..1e6, 1..200),
        workers in 1usize..9,
        rotate in 0usize..9,
    ) {
        let mut shards = vec![Histogram::new(); workers];
        for (i, &x) in xs.iter().enumerate() {
            shards[i % workers].record(x);
        }
        let whole = hist_of(&xs);
        // Fold in a rotated (completion-dependent) order, like the
        // parallel sweep reduction folding workers as they finish.
        let mut merged = Histogram::new();
        for k in 0..workers {
            merged.merge(&shards[(k + rotate) % workers]);
        }
        prop_assert_eq!(bucket_fingerprint(&merged), bucket_fingerprint(&whole));
        prop_assert_eq!(merged.count(), whole.count());
        let s = merged.summary();
        let w = whole.summary();
        prop_assert_eq!(s.n, w.n);
        prop_assert!((s.mean - w.mean).abs() < 1e-9 * (1.0 + w.mean.abs()));
        prop_assert!((s.std_dev - w.std_dev).abs() < 1e-6 * (1.0 + w.std_dev.abs()));
        prop_assert_eq!(s.min.to_bits(), w.min.to_bits());
        prop_assert_eq!(s.max.to_bits(), w.max.to_bits());
    }
}

/// Degenerate merges: empty↔empty, empty↔populated, and underflow-only
/// histograms (every sample ≤ 0 or non-finite — a single pseudo-bucket)
/// must merge without inventing buckets or moments.
#[test]
fn histogram_empty_and_degenerate_bucket_merges() {
    // Empty ∪ empty stays empty.
    let mut e = Histogram::new();
    e.merge(&Histogram::new());
    assert!(e.is_empty());
    assert_eq!(e.quantile(0.5), None);
    assert!(e.nonzero_buckets().is_empty());

    // Underflow-only shard: zero, negative, NaN, +∞ all land in the
    // degenerate bin; NaN/∞ stay out of the moments.
    let mut under = Histogram::new();
    for v in [0.0, -3.0, f64::NAN, f64::INFINITY] {
        under.record(v);
    }
    assert_eq!(under.count(), 4);
    let buckets = under.nonzero_buckets();
    assert_eq!(buckets.len(), 1, "underflow renders as one pseudo-bucket");
    assert_eq!(buckets[0].count, 4);
    assert_eq!(buckets[0].lo, 0.0);
    assert_eq!(under.quantile(0.99), Some(0.0));

    // Empty ∪ populated == populated (both directions).
    let mut pop = Histogram::new();
    pop.record(2.5);
    let mut a = pop.clone();
    a.merge(&Histogram::new());
    let mut b = Histogram::new();
    b.merge(&pop);
    for h in [&a, &b] {
        assert_eq!(h.count(), 1);
        assert_eq!(h.nonzero_buckets(), pop.nonzero_buckets());
        assert_eq!(h.mean().to_bits(), 2.5f64.to_bits());
    }

    // Underflow-only ∪ real samples: counts add, the underflow
    // pseudo-bucket precedes the real buckets, and the real moments
    // survive (zero/negative clamp to 0 in the mean; NaN/∞ excluded).
    let mut mixed = under.clone();
    mixed.merge(&pop);
    assert_eq!(mixed.count(), 5);
    let buckets = mixed.nonzero_buckets();
    assert_eq!(buckets.len(), 2);
    assert_eq!(buckets[0].count, 4);
    assert!(buckets[0].hi <= buckets[1].lo);
    assert_eq!(buckets[1].count, 1);
    assert_eq!(
        mixed.quantile(1.0),
        Some((buckets[1].lo + buckets[1].hi) / 2.0)
    );
    assert_eq!(mixed.summary().n, 3, "NaN and ∞ are excluded from moments");
}
