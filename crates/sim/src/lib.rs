//! # dtn-sim — discrete-event simulation substrate
//!
//! The foundation layer of the unified epidemic-routing study
//! (Feng & Chin, IPDPSW 2012). The paper evaluates every protocol inside a
//! single custom simulator; this crate is that simulator's engine room:
//!
//! * [`time`] — an integer, totally ordered simulation clock
//!   ([`SimTime`]/[`SimDuration`], millisecond granularity);
//! * [`events`] — a stable priority queue of timestamped events;
//! * [`engine`] — the event loop ([`Engine`]) with horizon, early-stop and
//!   runaway-budget handling;
//! * [`rng`] — deterministic xoshiro256\*\* randomness ([`SimRng`]) with
//!   per-replication substream derivation;
//! * [`stats`] — Welford and time-weighted accumulators for the paper's
//!   metrics;
//! * [`telemetry`] — process-wide operational metrics (atomic counters,
//!   gauges, latency histograms, [`Span`] timing guards) behind a global
//!   registry, for the service/runner layers above;
//! * [`parallel`] — a `std::thread::scope` fork–join executor that fans
//!   replications out across cores under watchdog supervision while
//!   keeping results in deterministic order.
//!
//! Nothing in this crate knows about bundles, buffers or mobility — those
//! live in `dtn-mobility` and `dtn-epidemic` on top.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod events;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use engine::{Engine, Flow, Handler, Scheduler, StopReason};
pub use events::EventQueue;
pub use parallel::{
    panic_message, par_map_indexed, par_map_supervised, JobOutcome, Threads, Watchdog,
};
pub use rng::SimRng;
pub use stats::{Histogram, HistogramBucket, Summary, TimeWeighted, Welford};
pub use telemetry::{
    AtomicHistogram, Clock, Counter, Gauge, HistogramSnapshot, MetricsRegistry, MonotonicClock,
    NullClock, Span,
};
pub use time::{SimDuration, SimTime};
