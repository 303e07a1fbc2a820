//! Cross-sweep contact-trace cache.
//!
//! A figure compares several protocols under *identical* mobility: the
//! same (scenario, seed, replication) trace is consumed by every
//! protocol sweep, and within the trace scenario by every load level and
//! replication too. [`TraceCache`] keeps one [`LazyTrace`] per distinct
//! trace and hands out shared [`Arc`] handles: the first reader to run
//! past the published part of a trace generates the next window of it,
//! and every later reader walks what is published. The cache itself is a
//! cheap handle: cloning it shares the same store, so worker threads —
//! including the detached ones a watchdog deadline may abandon — each
//! hold their own handle without borrowing.
//!
//! Generation is deterministic and pure, so the cache never changes
//! *what* is simulated — only how often it is generated. Generators start
//! outside the map's lock: two threads racing on the same key may both
//! start one (a draw-only pre-pass), but they are identical and the first
//! insert wins, so results are scheduling-independent.

use crate::LazyTrace;
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

/// A concurrent store of on-demand traces, one per [`TraceKey`]. Clones
/// are handles on the same store (and the same hit/miss counters).
#[derive(Clone, Debug, Default)]
pub struct TraceCache {
    shared: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    traces: Mutex<HashMap<TraceKey, Arc<LazyTrace>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Return the trace for `key`, starting it with `start` on first use.
    ///
    /// `start` must be a pure function of `key` — the cache hands the
    /// same `Arc` to every caller of the key.
    pub fn get_or_start<F>(&self, key: TraceKey, start: F) -> Arc<LazyTrace>
    where
        F: FnOnce() -> LazyTrace,
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
        // Start outside the lock: a generator's pre-pass takes about a
        // millisecond and must not serialize unrelated keys. A concurrent
        // starter of the same key makes an identical trace; first insert
        // wins.
        let started = Arc::new(start());
        shared.misses.fetch_add(1, Ordering::Relaxed);
        let mut traces = shared.traces.lock().expect("trace cache poisoned");
        Arc::clone(traces.entry(key).or_insert(started))
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

    /// Bytes the cached traces hold: published contacts, generator state
    /// and collected copies ([`LazyTrace::bytes`]).
    pub fn bytes(&self) -> usize {
        // Sum outside the map's lock: each trace's count waits on that
        // trace's own lock, which a reader may hold while it extends.
        let traces: Vec<Arc<LazyTrace>> = self
            .shared
            .traces
            .lock()
            .expect("trace cache poisoned")
            .values()
            .cloned()
            .collect();
        traces.iter().map(|t| t.bytes()).sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HaggleParams, SubscriberParams};
    use dtn_sim::{SimRng, SimTime};

    fn key(scenario: u64, seed: u64, replication: u64) -> TraceKey {
        TraceKey {
            scenario,
            seed,
            replication,
        }
    }

    fn start(seed: u64) -> LazyTrace {
        LazyTrace::complete(Arc::new(
            HaggleParams::default().generate(&mut SimRng::new(seed)),
        ))
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_arc() {
        let cache = TraceCache::new();
        let a = cache.get_or_start(key(1, 7, 0), || start(7));
        let b = cache.get_or_start(key(1, 7, 0), || panic!("must not restart"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clones_share_one_store() {
        let cache = TraceCache::new();
        let handle = cache.clone();
        let a = handle.get_or_start(key(1, 7, 0), || start(7));
        let b = cache.get_or_start(key(1, 7, 0), || panic!("must not restart"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.get_or_start(key(1, 7, 0), || start(7)).to_trace();
        let b = cache.get_or_start(key(1, 8, 0), || start(8)).to_trace();
        let c = cache.get_or_start(key(2, 7, 0), || start(7)).to_trace();
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
        let traces: Vec<Arc<LazyTrace>> = dtn_sim::par_map_indexed(
            dtn_sim::Threads::Fixed(std::num::NonZeroUsize::new(4).unwrap()),
            16,
            |i| cache.get_or_start(key(1, 7, (i % 2) as u64), || start(7)),
        );
        for pair in traces.chunks(2) {
            assert!(Arc::ptr_eq(&pair[0], &traces[0]));
            assert!(Arc::ptr_eq(&pair[1], &traces[1]));
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 16);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bytes_count_published_contacts_and_generator_state() {
        let cache = TraceCache::new();
        let params = SubscriberParams::default();
        let trace = cache.get_or_start(key(2, 1, 0), || params.lazy(&mut SimRng::new(1)));
        let fresh = cache.bytes();
        let read = trace
            .stream()
            .take_while(|c| c.start < SimTime::from_secs(20_000))
            .count();
        let part = cache.bytes();
        assert!(part >= fresh + read * std::mem::size_of::<crate::Contact>());
        // Read to the horizon, the generator is gone: what is left is the
        // published contacts and the entry itself.
        let all = trace.stream().count();
        assert!(trace.is_complete());
        assert_eq!(
            cache.bytes(),
            std::mem::size_of::<LazyTrace>() + all * std::mem::size_of::<crate::Contact>()
        );
    }
}
