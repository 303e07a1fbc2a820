//! Cross-sweep contact-trace cache.
//!
//! A figure compares several protocols under *identical* mobility: the
//! same (scenario, seed, replication) trace is consumed by every
//! protocol sweep, and within the trace scenario by every load level and
//! replication too. Regenerating it each time made trace synthesis a
//! fixed tax on every simulation run. [`TraceCache`] builds each
//! distinct trace once and hands out read-only [`Arc`] clones. The cache
//! itself is a cheap handle: cloning it shares the same store, so worker
//! threads — including the detached ones a watchdog deadline may
//! abandon — each hold their own handle without borrowing.
//!
//! Generation is deterministic and pure, so the cache never changes
//! *what* is simulated — only how often it is rebuilt. Builds run
//! outside the lock: two threads racing on the same key may both build,
//! but they build identical traces and the first insert wins, so results
//! are scheduling-independent.

use crate::ContactTrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one generated trace: a scenario discriminant (packed by
/// the caller — e.g. mobility kind + parameters), the scenario seed, and
/// the replication index (0 for scenarios whose dataset is fixed across
/// replications).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Scenario discriminant, including any scenario parameters.
    pub scenario: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Replication index (callers collapse this to 0 when the scenario
    /// ignores it).
    pub replication: u64,
}

/// A concurrent build-once store of generated [`ContactTrace`]s. Clones
/// are handles on the same store (and the same hit/miss counters).
#[derive(Clone, Debug, Default)]
pub struct TraceCache {
    shared: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    traces: Mutex<HashMap<TraceKey, Arc<ContactTrace>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Return the trace for `key`, building it with `build` on first use.
    ///
    /// `build` must be a pure function of `key` — the cache hands the
    /// same `Arc` to every caller of the key.
    pub fn get_or_build<F>(&self, key: TraceKey, build: F) -> Arc<ContactTrace>
    where
        F: FnOnce() -> ContactTrace,
    {
        let shared = &*self.shared;
        if let Some(trace) = shared
            .traces
            .lock()
            .expect("trace cache poisoned")
            .get(&key)
        {
            shared.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(trace);
        }
        // Build outside the lock: generation can take milliseconds and
        // must not serialize unrelated keys. A concurrent builder of the
        // same key produces an identical trace; first insert wins.
        let built = Arc::new(build());
        shared.misses.fetch_add(1, Ordering::Relaxed);
        let mut traces = shared.traces.lock().expect("trace cache poisoned");
        Arc::clone(traces.entry(key).or_insert(built))
    }

    /// `(hits, misses)` so far — the bench harness reports these.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct traces held.
    pub fn len(&self) -> usize {
        self.shared
            .traces
            .lock()
            .expect("trace cache poisoned")
            .len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HaggleParams;
    use dtn_sim::SimRng;

    fn key(scenario: u64, seed: u64, replication: u64) -> TraceKey {
        TraceKey {
            scenario,
            seed,
            replication,
        }
    }

    fn build(seed: u64) -> ContactTrace {
        HaggleParams::default().generate(&mut SimRng::new(seed))
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_arc() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(key(1, 7, 0), || build(7));
        let b = cache.get_or_build(key(1, 7, 0), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clones_share_one_store() {
        let cache = TraceCache::new();
        let handle = cache.clone();
        let a = handle.get_or_build(key(1, 7, 0), || build(7));
        let b = cache.get_or_build(key(1, 7, 0), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(key(1, 7, 0), || build(7));
        let b = cache.get_or_build(key(1, 8, 0), || build(8));
        let c = cache.get_or_build(key(2, 7, 0), || build(7));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.contacts(), b.contacts());
        // Same generator output under a different scenario id: cached
        // separately, equal contents.
        assert_eq!(a.contacts(), c.contacts());
        assert_eq!(cache.stats(), (0, 3));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = TraceCache::new();
        let traces: Vec<Arc<ContactTrace>> = dtn_sim::par_map_indexed(
            dtn_sim::Threads::Fixed(std::num::NonZeroUsize::new(4).unwrap()),
            16,
            |i| cache.get_or_build(key(1, 7, (i % 2) as u64), || build(7)),
        );
        for pair in traces.chunks(2) {
            assert!(Arc::ptr_eq(&pair[0], &traces[0]));
            assert!(Arc::ptr_eq(&pair[1], &traces[1]));
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 16);
        assert_eq!(cache.len(), 2);
    }
}
