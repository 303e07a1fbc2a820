//! Parallel replication executor.
//!
//! Every plotted point in the paper averages ten independent replications;
//! a full figure is a sweep of ten load levels × several protocols, and the
//! repository regenerates sixteen figures/tables. Those replications are
//! embarrassingly parallel, so this module provides a small,
//! dependency-free fork–join executor built on `std::thread::scope`:
//!
//! * [`par_map_supervised`] — the executor every replication runs
//!   through: results come back **in index order** regardless of
//!   completion order (ordering is part of determinism: figure CSVs must
//!   be byte-identical across runs), a panicking job becomes a recorded
//!   [`JobOutcome::Panicked`] instead of taking the sweep down, and a
//!   [`Watchdog`] adds bounded retry and a hard per-attempt deadline;
//! * [`par_map_indexed`] — the fork–join core it is built on.
//!
//! Work distribution is dynamic (an atomic work-stealing counter) because
//! replication run times vary wildly — a failed delivery runs to the full
//! trace horizon while an easy one stops early — so static chunking would
//! leave cores idle.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count policy for parallel sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use `std::thread::available_parallelism` (min 1).
    #[default]
    Auto,
    /// Use exactly this many workers.
    Fixed(NonZeroUsize),
    /// Run everything on the calling thread (useful under benchmarks,
    /// which want to own the machine's parallelism, and in tests that
    /// assert determinism).
    Sequential,
}

impl Threads {
    /// Resolve to a concrete worker count.
    pub fn count(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Threads::Fixed(n) => n.get(),
            Threads::Sequential => 1,
        }
    }
}

/// Render a panic payload as a human-readable message. Panics raised with
/// a string literal or a formatted `String` (the overwhelmingly common
/// cases) are shown verbatim; anything else gets a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f(i)` for every `i in 0..n`, spreading the calls across worker
/// threads, and collect the results in index order.
///
/// `f` must derive all randomness from `i` (e.g. `root_rng.derive(i)`), so
/// the output is independent of scheduling — this is how the whole harness
/// stays deterministic while saturating the machine.
///
/// Every job runs under `catch_unwind`, so a panicking job never kills its
/// worker mid-sweep (and can never poison the result mutex): the remaining
/// jobs still run to completion and the **first** (lowest-index) panic
/// payload is re-raised on the calling thread. Replications go through
/// [`par_map_supervised`], which keeps the survivors instead.
pub fn par_map_indexed<T, F>(threads: Threads, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i)));
    let workers = threads.count().min(n);
    let slots: Vec<Result<T, Box<dyn Any + Send>>> = if workers <= 1 {
        (0..n).map(run).collect()
    } else {
        let mut slots: Vec<Option<Result<T, Box<dyn Any + Send>>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(&mut slots);
        let next = AtomicUsize::new(0);
        let run = &run;
        let slots_ref = &slots;
        let next_ref = &next;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run(i);
                    // Store under a short critical section. The computation
                    // ran outside the lock; contention here is one pointer
                    // write per replication and is immeasurable next to a
                    // simulation run. catch_unwind means job panics cannot
                    // poison this mutex; recover defensively anyway rather
                    // than double-panicking.
                    slots_ref.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(result);
                });
            }
        });

        slots
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .iter_mut()
            .map(|slot| slot.take().expect("every index filled"))
            .collect()
    };
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot {
            Ok(v) => out.push(v),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// Supervision policy for watchdog-supervised jobs
/// ([`par_map_supervised`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// How many times a *panicking* job is retried before giving up (0 =
    /// one attempt, no retries). Each retry calls the job with the next
    /// attempt number so it can salt its RNG stream onto a fresh path.
    pub retries: u32,
    /// Hard per-attempt deadline. An attempt still running when it
    /// expires is abandoned (its thread is left to finish into the void)
    /// and the job is recorded as [`JobOutcome::TimedOut`] — hangs are
    /// not retried, since a livelock would burn every retry and a zombie
    /// thread apiece. `None` disables the deadline and runs jobs inline
    /// on the worker.
    pub timeout: Option<std::time::Duration>,
    /// Soft deadline: attempts that *succeed* but take at least this
    /// long are flagged `slow` in their outcome, for reporting. `None`
    /// disables the flag.
    pub soft_timeout: Option<std::time::Duration>,
}

impl Watchdog {
    /// The policy for a panic-retry budget and an optional hard deadline
    /// in whole seconds. The soft deadline, when a hard deadline is set,
    /// is half of it, so successful-but-slow attempts get flagged before
    /// they start timing out. Every layer that turns a `retries` /
    /// `point_timeout_secs` pair into supervision goes through here.
    pub fn new(retries: u32, timeout_secs: Option<u64>) -> Watchdog {
        let timeout = timeout_secs.map(std::time::Duration::from_secs);
        Watchdog {
            retries,
            timeout,
            soft_timeout: timeout.map(|t| t / 2),
        }
    }
}

/// The supervised outcome of one job index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job completed. `attempts` counts every attempt made including
    /// the successful one; `slow` is set when the successful attempt
    /// exceeded the watchdog's soft deadline.
    Ok {
        /// The job's result.
        value: T,
        /// Attempts made, including the successful one (≥ 1).
        attempts: u32,
        /// The successful attempt exceeded the soft deadline.
        slow: bool,
    },
    /// Every attempt panicked; `message` is the last panic's payload.
    Panicked {
        /// Attempts made, all panicking.
        attempts: u32,
        /// The final panic message.
        message: String,
    },
    /// An attempt outlived the hard deadline and was abandoned.
    TimedOut {
        /// Attempts made, including the abandoned one.
        attempts: u32,
    },
}

impl<T> JobOutcome<T> {
    /// The result value, if the job completed.
    pub fn value(self) -> Option<T> {
        match self {
            JobOutcome::Ok { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The result value, or a description of why the job produced none
    /// (the last panic message, or the abandoned deadline).
    pub fn into_result(self) -> Result<T, String> {
        match self {
            JobOutcome::Ok { value, .. } => Ok(value),
            JobOutcome::Panicked { message, .. } => Err(message),
            JobOutcome::TimedOut { attempts } => Err(format!(
                "timed out: attempt {attempts} outlived the hard deadline"
            )),
        }
    }

    /// Attempts made, whatever the outcome.
    pub fn attempts(&self) -> u32 {
        match *self {
            JobOutcome::Ok { attempts, .. }
            | JobOutcome::Panicked { attempts, .. }
            | JobOutcome::TimedOut { attempts } => attempts,
        }
    }
}

/// What one attempt reported back to its supervisor.
enum Attempt<T> {
    Done(T),
    Panicked(String),
    TimedOut,
}

/// Run `f(index, attempt)` for every `i in 0..n` under watchdog
/// supervision — panic isolation, bounded retry-on-panic and an optional
/// hard per-attempt deadline — returning per-index [`JobOutcome`]s in
/// index order. With [`Watchdog::default`] every job gets one inline
/// attempt and a panic becomes [`JobOutcome::Panicked`] in its slot while
/// its siblings run on.
///
/// The attempt number (0 for the first try) lets the job derive a fresh
/// salted RNG stream per retry — replaying the exact seed that just
/// panicked would panic again deterministically. Attempt 0 must use the
/// canonical derivation so an unsupervised run and a supervised run that
/// needed no retries produce identical bytes.
///
/// With a hard deadline configured, each attempt runs on its own
/// detached thread and the worker waits on a channel with
/// `recv_timeout`; an attempt that misses the deadline is abandoned (the
/// detached thread's eventual send lands in a dropped channel and
/// evaporates) and recorded as [`JobOutcome::TimedOut`] without retry,
/// so one hung replication cannot stall its siblings or the sweep.
pub fn par_map_supervised<T, F>(
    threads: Threads,
    n: usize,
    watchdog: Watchdog,
    f: F,
) -> Vec<JobOutcome<T>>
where
    T: Send + 'static,
    F: Fn(usize, u32) -> T + Send + Sync + 'static,
{
    let f = std::sync::Arc::new(f);
    let supervise = move |i: usize| {
        let mut attempts = 0u32;
        loop {
            let attempt = attempts;
            attempts += 1;
            let started = std::time::Instant::now();
            let outcome: Attempt<T> = match watchdog.timeout {
                None => match catch_unwind(AssertUnwindSafe(|| f(i, attempt))) {
                    Ok(v) => Attempt::Done(v),
                    Err(p) => Attempt::Panicked(panic_message(p.as_ref())),
                },
                Some(deadline) => {
                    let (tx, rx) = std::sync::mpsc::channel();
                    let job = std::sync::Arc::clone(&f);
                    std::thread::spawn(move || {
                        let r = catch_unwind(AssertUnwindSafe(|| job(i, attempt)));
                        let _ = tx.send(r.map_err(|p| panic_message(p.as_ref())));
                    });
                    match rx.recv_timeout(deadline) {
                        Ok(Ok(v)) => Attempt::Done(v),
                        Ok(Err(message)) => Attempt::Panicked(message),
                        Err(_) => Attempt::TimedOut,
                    }
                }
            };
            match outcome {
                Attempt::Done(value) => {
                    let slow = watchdog
                        .soft_timeout
                        .is_some_and(|soft| started.elapsed() >= soft);
                    return JobOutcome::Ok {
                        value,
                        attempts,
                        slow,
                    };
                }
                Attempt::Panicked(message) => {
                    if attempts > watchdog.retries {
                        return JobOutcome::Panicked { attempts, message };
                    }
                }
                Attempt::TimedOut => return JobOutcome::TimedOut { attempts },
            }
        }
    };
    par_map_indexed(threads, n, supervise)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_indexed(Threads::Auto, 257, |i| i * 3);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = par_map_indexed(Threads::Auto, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_matches_parallel() {
        let work = |i: usize| {
            // A little CPU so threads interleave.
            let mut acc = i as u64;
            for _ in 0..100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let seq = par_map_indexed(Threads::Sequential, 100, work);
        let par = par_map_indexed(Threads::Fixed(NonZeroUsize::new(8).unwrap()), 100, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ids = StdMutex::new(HashSet::new());
        par_map_indexed(Threads::Fixed(NonZeroUsize::new(4).unwrap()), 64, |_| {
            // Slow each job slightly so all workers pick up work.
            std::thread::sleep(std::time::Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::Sequential.count(), 1);
        assert_eq!(Threads::Fixed(NonZeroUsize::new(5).unwrap()).count(), 5);
        assert!(Threads::Auto.count() >= 1);
    }

    #[test]
    fn catch_isolates_panics_and_keeps_survivors() {
        for threads in [
            Threads::Sequential,
            Threads::Fixed(NonZeroUsize::new(4).unwrap()),
        ] {
            let out: Vec<Result<usize, String>> =
                par_map_supervised(threads, 5, Watchdog::default(), |i, _| {
                    if i == 2 {
                        panic!("job {i} diverged");
                    }
                    i * 10
                })
                .into_iter()
                .map(JobOutcome::into_result)
                .collect();
            assert_eq!(out.len(), 5);
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[1], Ok(10));
            assert_eq!(out[2], Err("job 2 diverged".to_string()));
            assert_eq!(out[3], Ok(30));
            assert_eq!(out[4], Ok(40));
        }
    }

    #[test]
    fn indexed_propagates_the_original_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(Threads::Fixed(NonZeroUsize::new(3).unwrap()), 8, |i| {
                if i == 1 {
                    panic!("replication 1 exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic should propagate");
        assert_eq!(panic_message(payload.as_ref()), "replication 1 exploded");
    }

    #[test]
    fn supervised_without_watchdog_matches_plain_map() {
        let out = par_map_supervised(Threads::Sequential, 5, Watchdog::default(), |i, attempt| {
            assert_eq!(attempt, 0, "no retries without panics");
            i * 2
        });
        let values: Vec<usize> = out.into_iter().map(|o| o.value().unwrap()).collect();
        assert_eq!(values, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn supervised_retries_panics_up_to_the_budget() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let calls_ref = std::sync::Arc::new(calls);
        let seen = std::sync::Arc::clone(&calls_ref);
        let wd = Watchdog {
            retries: 3,
            ..Watchdog::default()
        };
        let out = par_map_supervised(Threads::Sequential, 1, wd, move |_, attempt| {
            seen.fetch_add(1, Ordering::Relaxed);
            if attempt < 2 {
                panic!("attempt {attempt} diverged");
            }
            attempt
        });
        assert_eq!(
            out[0],
            JobOutcome::Ok {
                value: 2,
                attempts: 3,
                slow: false
            }
        );
        assert_eq!(calls_ref.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn supervised_reports_exhausted_retries_with_last_message() {
        let wd = Watchdog {
            retries: 2,
            ..Watchdog::default()
        };
        let out = par_map_supervised(Threads::Sequential, 2, wd, |i, attempt| {
            if i == 0 {
                panic!("attempt {attempt} always fails");
            }
            i
        });
        assert_eq!(
            out[0],
            JobOutcome::Panicked {
                attempts: 3,
                message: "attempt 2 always fails".to_string()
            }
        );
        assert_eq!(out[1].clone().value(), Some(1), "sibling unaffected");
    }

    #[test]
    fn supervised_times_out_hangs_without_poisoning_siblings() {
        let wd = Watchdog {
            retries: 5,
            timeout: Some(std::time::Duration::from_millis(50)),
            ..Watchdog::default()
        };
        let out = par_map_supervised(
            Threads::Fixed(NonZeroUsize::new(2).unwrap()),
            4,
            wd,
            |i, _| {
                if i == 1 {
                    // A hang, from the supervisor's point of view.
                    std::thread::sleep(std::time::Duration::from_secs(600));
                }
                i * 7
            },
        );
        assert_eq!(out[1], JobOutcome::TimedOut { attempts: 1 });
        for i in [0usize, 2, 3] {
            assert_eq!(out[i].clone().value(), Some(i * 7), "sibling {i} poisoned");
        }
    }

    #[test]
    fn supervised_flags_slow_successes() {
        let wd = Watchdog {
            soft_timeout: Some(std::time::Duration::from_millis(1)),
            ..Watchdog::default()
        };
        let out = par_map_supervised(Threads::Sequential, 1, wd, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(
            out[0],
            JobOutcome::Ok {
                value: 42,
                attempts: 1,
                slow: true
            }
        );
    }

    #[test]
    fn watchdog_new_halves_the_hard_deadline() {
        assert_eq!(Watchdog::new(0, None), Watchdog::default());
        let wd = Watchdog::new(2, Some(10));
        assert_eq!(wd.retries, 2);
        assert_eq!(wd.timeout, Some(std::time::Duration::from_secs(10)));
        assert_eq!(wd.soft_timeout, Some(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("literal");
        assert_eq!(panic_message(s.as_ref()), "literal");
        let s: Box<dyn Any + Send> = Box::new(String::from("formatted"));
        assert_eq!(panic_message(s.as_ref()), "formatted");
        let s: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
