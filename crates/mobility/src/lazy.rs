//! Contact traces generated on demand.
//!
//! A replication stops once its destination holds every bundle, so most
//! runs read only the start of their trace. [`LazyTrace`] generates a
//! trace a time window at a time and publishes each window's contacts as
//! one more piece of a sorted, append-only prefix:
//!
//! * **Windows.** Window `k` holds the contacts starting in
//!   `[w·2^(k-1), w·2^k)` (window 0 starts at 0), with `w` = horizon / 1024
//!   (at least 1 ms) and the last window cut at the horizon — so there are
//!   at most 12 of them, and a reader that stops at time `t` has caused at
//!   most `2t + w` of the trace to be generated.
//! * **Publishing.** Each window's batch is sorted by `(start, a, b)`, the
//!   order [`ContactTrace::new`] gives the whole trace. No two contacts a
//!   generator emits share that key, so the concatenated windows are the
//!   eager trace contact for contact.
//! * **Reading.** A [`ContactStream`] walks the published windows as plain
//!   slices. Published windows never move, so reading takes no lock: only
//!   a reader that runs past the last published window takes the entry's
//!   lock and extends the prefix by the next window (or finds that another
//!   reader already has). Which reader extends never changes the output.
//! * **State.** Between extensions the entry holds only the published
//!   contacts and its generator's compact state; a trace read to its
//!   horizon drops its generator.

use crate::contact::{sort_contacts, Contact, ContactTrace};
use dtn_sim::SimTime;
use std::sync::{Arc, Mutex, OnceLock};

/// Most windows a trace is split into (see the module docs).
const WINDOWS: usize = 12;

/// A time-ordered contact generator.
pub(crate) trait Generate: Send {
    /// Append every not yet appended contact that starts before `until`,
    /// in any order. Called with non-decreasing `until`, last with the
    /// horizon, after which everything has been appended.
    fn extend(&mut self, until: SimTime, out: &mut Vec<Contact>);

    /// Bytes the generator holds on the heap.
    fn heap_bytes(&self) -> usize;
}

/// The end of window `k` of a trace over `horizon`.
fn window_end(horizon: SimTime, k: usize) -> SimTime {
    let first = (horizon.as_millis() >> 10).max(1);
    let end = first
        .checked_mul(1u64 << k)
        .map_or(horizon, |ms| SimTime::from_millis(ms).min(horizon));
    if k + 1 == WINDOWS {
        horizon
    } else {
        end
    }
}

/// A contact trace published window by window as readers reach it.
/// Shared between readers by [`Arc`]; see the module docs.
pub struct LazyTrace {
    node_count: usize,
    horizon: SimTime,
    /// Window `k`'s contacts, sorted, once published.
    windows: [OnceLock<Box<[Contact]>>; WINDOWS],
    /// The generator; `None` once every window is published.
    frontier: Mutex<Option<Frontier>>,
    /// The whole trace, once someone asked for it as a [`ContactTrace`].
    full: OnceLock<Arc<ContactTrace>>,
}

struct Frontier {
    /// Windows published so far.
    published: usize,
    generator: Box<dyn Generate>,
}

impl std::fmt::Debug for LazyTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyTrace")
            .field("node_count", &self.node_count)
            .field("horizon", &self.horizon)
            .field("published_contacts", &self.published_contacts())
            .finish_non_exhaustive()
    }
}

impl LazyTrace {
    /// A trace whose windows `generator` fills on demand.
    pub(crate) fn new(
        node_count: usize,
        horizon: SimTime,
        generator: Box<dyn Generate>,
    ) -> LazyTrace {
        LazyTrace {
            node_count,
            horizon,
            windows: std::array::from_fn(|_| OnceLock::new()),
            frontier: Mutex::new(Some(Frontier {
                published: 0,
                generator,
            })),
            full: OnceLock::new(),
        }
    }

    /// An already generated trace, complete from the start: a trace
    /// file, or a generator cheap enough that windowing would not pay.
    /// Readers walk `trace` itself.
    pub fn complete(trace: Arc<ContactTrace>) -> LazyTrace {
        LazyTrace {
            node_count: trace.node_count(),
            horizon: trace.horizon(),
            windows: std::array::from_fn(|_| OnceLock::from(Box::default())),
            frontier: Mutex::new(None),
            full: OnceLock::from(trace),
        }
    }

    /// Number of nodes in the universe.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The observation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// A reader over the contacts, from the first: it extends the trace
    /// as it goes. Once the trace has been collected whole, readers walk
    /// the collected copy.
    pub fn stream(&self) -> ContactStream<'_> {
        if let Some(full) = self.full.get() {
            return full.stream();
        }
        ContactStream {
            node_count: self.node_count,
            horizon: self.horizon,
            rest: &[],
            next_window: 0,
            lazy: Some(self),
        }
    }

    /// Window `k`'s contacts, generating every window up to it first if
    /// they are not published yet.
    fn window(&self, k: usize) -> &[Contact] {
        if let Some(contacts) = self.windows[k].get() {
            return contacts;
        }
        let mut frontier = self.frontier.lock().expect("lazy trace poisoned");
        while let Some(f) = frontier.as_mut() {
            if f.published > k {
                break;
            }
            let until = window_end(self.horizon, f.published);
            let mut batch = Vec::new();
            f.generator.extend(until, &mut batch);
            sort_contacts(&mut batch);
            let _ = self.windows[f.published].set(batch.into_boxed_slice());
            f.published += 1;
            if until == self.horizon {
                // Read to the horizon: the rest is empty, and the
                // generator's state is no longer needed.
                for window in &self.windows[f.published..] {
                    let _ = window.set(Box::default());
                }
                *frontier = None;
            }
        }
        self.windows[k].get().expect("window published")
    }

    /// The whole trace as a [`ContactTrace`], generated to the horizon and
    /// collected on the first call; later calls share it.
    pub fn to_trace(&self) -> Arc<ContactTrace> {
        Arc::clone(self.full.get_or_init(|| {
            self.window(WINDOWS - 1);
            let mut contacts = Vec::with_capacity(self.published_contacts());
            contacts.extend(self.stream().copied());
            Arc::new(
                ContactTrace::new(self.node_count, self.horizon, contacts)
                    .expect("generators uphold trace invariants"),
            )
        }))
    }

    /// Contacts published so far.
    pub fn published_contacts(&self) -> usize {
        self.windows
            .iter()
            .filter_map(OnceLock::get)
            .map(|w| w.len())
            .sum()
    }

    /// True once the whole trace is published (the generator is gone).
    pub fn is_complete(&self) -> bool {
        self.windows[WINDOWS - 1].get().is_some()
    }

    /// Bytes this trace holds: published contacts, generator state and
    /// the collected [`ContactTrace`], if any.
    pub fn bytes(&self) -> usize {
        let contact = std::mem::size_of::<Contact>();
        let generator = self
            .frontier
            .lock()
            .expect("lazy trace poisoned")
            .as_ref()
            .map_or(0, |f| {
                std::mem::size_of_val(&*f.generator) + f.generator.heap_bytes()
            });
        let full = self.full.get().map_or(0, |t| t.len() * contact);
        std::mem::size_of::<LazyTrace>() + self.published_contacts() * contact + generator + full
    }
}

/// A reader's cursor over a trace's sorted contacts: the published part
/// of a [`LazyTrace`], extended as the reader reaches its end, or a whole
/// [`ContactTrace`]. One concrete type, so the engine's run loop is the
/// same code for both.
#[derive(Clone, Debug)]
pub struct ContactStream<'a> {
    node_count: usize,
    horizon: SimTime,
    /// The unread part of the current window.
    rest: &'a [Contact],
    /// The window to read after `rest`.
    next_window: usize,
    /// Where later windows come from (`None`: `rest` is all there is).
    lazy: Option<&'a LazyTrace>,
}

impl<'a> ContactStream<'a> {
    /// A stream over a materialized trace: one fully published window.
    pub(crate) fn of(trace: &'a ContactTrace) -> ContactStream<'a> {
        ContactStream {
            node_count: trace.node_count(),
            horizon: trace.horizon(),
            rest: trace.contacts(),
            next_window: WINDOWS,
            lazy: None,
        }
    }

    /// Number of nodes in the trace's universe.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The trace's horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Move on to the next non-empty window; `None` at the end.
    #[cold]
    #[inline(never)]
    fn next_window(&mut self) -> Option<&'a Contact> {
        let lazy = self.lazy?;
        while self.next_window < WINDOWS {
            let window = lazy.window(self.next_window);
            self.next_window += 1;
            if let Some((first, rest)) = window.split_first() {
                self.rest = rest;
                return Some(first);
            }
        }
        None
    }
}

impl<'a> Iterator for ContactStream<'a> {
    type Item = &'a Contact;

    #[inline]
    fn next(&mut self) -> Option<&'a Contact> {
        match self.rest.split_first() {
            Some((first, rest)) => {
                self.rest = rest;
                Some(first)
            }
            None => self.next_window(),
        }
    }
}

/// Check `make`'s lazy trace against `reference`, the same trace
/// generated eagerly: read whole, read to a random count and to a random
/// time and then on, and read by four threads to different depths at
/// once, every read must equal the same prefix of `reference`.
#[cfg(test)]
pub(crate) fn assert_stream_matches(
    make: impl Fn() -> LazyTrace,
    reference: &ContactTrace,
    seed: u64,
) {
    let want = reference.contacts();
    let mut rng = dtn_sim::SimRng::new(seed ^ 0x5EED_CAFE);
    let whole = make();
    assert_eq!(whole.node_count(), reference.node_count());
    assert_eq!(whole.horizon(), reference.horizon());
    assert!(whole.stream().eq(want.iter()), "seed {seed}: whole read");
    assert!(whole.is_complete());
    assert_eq!(whole.to_trace().contacts(), want);

    let cut = make();
    let n = rng.below(want.len() as u64 + 1) as usize;
    assert!(
        cut.stream().take(n).eq(&want[..n]),
        "seed {seed}: first {n}"
    );
    let t = SimTime::from_millis(rng.below(reference.horizon().as_millis() + 1));
    let early = want.iter().take_while(|c| c.start < t);
    assert!(
        cut.stream().take_while(|c| c.start < t).eq(early),
        "seed {seed}: read to {t}"
    );
    assert!(cut.stream().eq(want.iter()), "seed {seed}: read on");

    let shared = make();
    let depths: Vec<usize> = (0..4)
        .map(|_| rng.below(want.len() as u64 + 1) as usize)
        .collect();
    let start = std::sync::Barrier::new(depths.len());
    std::thread::scope(|scope| {
        for &depth in &depths {
            let (shared, start) = (&shared, &start);
            scope.spawn(move || {
                start.wait();
                assert!(
                    shared.stream().take(depth).eq(&want[..depth]),
                    "seed {seed}: concurrent read to {depth}"
                );
            });
        }
    });
    assert!(
        shared.stream().eq(want.iter()),
        "seed {seed}: after threads"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    /// Emits one contact per second, nodes alternating.
    struct Ticks {
        next: u64,
        horizon: u64,
    }

    impl Generate for Ticks {
        fn extend(&mut self, until: SimTime, out: &mut Vec<Contact>) {
            while self.next < self.horizon && SimTime::from_secs(self.next) < until {
                let (a, b) = if self.next % 2 == 0 { (0, 1) } else { (1, 2) };
                out.push(Contact::new(
                    NodeId(a),
                    NodeId(b),
                    SimTime::from_secs(self.next),
                    SimTime::from_secs(self.next + 1),
                ));
                self.next += 1;
            }
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    fn ticks(horizon: u64) -> LazyTrace {
        LazyTrace::new(
            3,
            SimTime::from_secs(horizon),
            Box::new(Ticks { next: 0, horizon }),
        )
    }

    #[test]
    fn windows_double_and_end_at_the_horizon() {
        let h = SimTime::from_secs(600_000);
        let ends: Vec<u64> = (0..WINDOWS).map(|k| window_end(h, k).as_millis()).collect();
        assert_eq!(ends[0], 600_000_000 >> 10);
        assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ends[WINDOWS - 1], h.as_millis());
        for horizon in [0, 1, 1023, 1024, 2047, 5_000, u64::MAX] {
            let h = SimTime::from_millis(horizon);
            let k = (0..WINDOWS).position(|k| window_end(h, k) == h);
            assert!(k.is_some(), "horizon {horizon} ms is reached");
        }
    }

    #[test]
    fn a_partial_read_generates_only_what_it_needs() {
        let trace = ticks(100_000);
        let read: Vec<Contact> = trace.stream().take(10).copied().collect();
        assert_eq!(read[9].start, SimTime::from_secs(9));
        let published = trace.published_contacts();
        assert!(
            published < 1_000,
            "published {published} for a 10-contact read"
        );
        assert!(!trace.is_complete());
        // Reading on picks up where the published prefix ends.
        let all: Vec<Contact> = trace.stream().copied().collect();
        assert_eq!(all.len(), 100_000);
        assert_eq!(&all[..10], &read[..]);
        assert!(trace.is_complete());
        assert!(all.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn collected_trace_is_shared() {
        let trace = ticks(5_000);
        let a = trace.to_trace();
        let b = trace.to_trace();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 5_000);
        assert!(trace.is_complete());
    }

    #[test]
    fn complete_traces_stream_their_contacts() {
        let full = ContactTrace::new(
            2,
            SimTime::from_secs(10),
            vec![Contact::new(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            )],
        )
        .unwrap();
        let lazy = LazyTrace::complete(Arc::new(full.clone()));
        assert!(lazy.is_complete());
        assert!(lazy.stream().eq(full.stream()));
        assert_eq!(lazy.to_trace().contacts(), full.contacts());
    }
}
