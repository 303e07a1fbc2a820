//! # dtn-epidemic — epidemic routing protocols under a unified framework
//!
//! A from-scratch Rust reproduction of *"A Unified Study of Epidemic
//! Routing Protocols and their Enhancements"* (Feng & Chin, IPDPSW 2012).
//! The paper's thesis is methodological: epidemic DTN protocols had only
//! ever been evaluated in incompatible setups, so it re-implements all of
//! them inside **one** simulator with **one** set of parameters and
//! mobility models, then fixes the weaknesses the level comparison
//! exposes. This crate is that simulator's protocol layer:
//!
//! * [`bundle`] — bundles, flows, workloads;
//! * [`policy`] — the protocol taxonomy as four orthogonal axes
//!   (transmit gating, copy lifetime, buffer eviction, acknowledgment);
//! * [`protocols`] — the paper's eight protocols as presets: pure
//!   epidemic, P–Q, fixed TTL, EC, immunity, and the three enhancements
//!   (dynamic TTL, EC+TTL, cumulative immunity);
//! * [`buffer`] / [`node`] — bounded relay buffers, origin stores, and
//!   per-node protocol state;
//! * [`immunity`] — per-bundle and cumulative immunity tables
//!   ("anti-packets");
//! * [`summary`] — the anti-entropy summary vector;
//! * [`session`] — the shared contact-session procedure (anti-entropy,
//!   capacity accounting, lower-ID-first ordering);
//! * [`faults`] — deterministic fault injection (session truncation,
//!   node churn, bursty Gilbert–Elliott loss, anti-packet loss) drawn
//!   from RNG streams isolated from the base simulation stream;
//! * [`simulation`] — the event-driven per-replication driver;
//! * [`metrics`] — the paper's four metrics plus signaling overhead;
//! * [`probe`] — zero-overhead typed event tracing (monomorphized
//!   [`Probe`] observers; `NullProbe` compiles to nothing);
//! * [`audit`] — an online invariant auditor ([`AuditProbe`]) that
//!   checks conservation laws (capacity, copy conservation, delivery
//!   uniqueness, immunity soundness, TTL honesty) against a shadow
//!   ledger rebuilt from the event stream alone;
//! * [`oracle`] — a deliberately naive scalar reference simulator used
//!   by the differential test suite to cross-check the optimized engine
//!   bundle-for-bundle on all eight protocols.
//!
//! ## Quick example
//!
//! ```
//! use dtn_epidemic::{protocols, simulate, SimConfig, Workload};
//! use dtn_mobility::{HaggleParams, NodeId};
//! use dtn_sim::SimRng;
//!
//! // A synthetic stand-in for the Cambridge Haggle trace.
//! let trace = HaggleParams::default().generate(&mut SimRng::new(1));
//! // The paper's workload: k bundles between one random pair.
//! let workload = Workload::single_flow(NodeId(0), NodeId(7), 10, trace.node_count());
//! let config = SimConfig::paper_defaults(protocols::pure_epidemic());
//! let metrics = simulate(&trace, &workload, &config, SimRng::new(2));
//! assert!(metrics.delivery_ratio > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod buffer;
pub mod bundle;
pub mod faults;
pub mod immunity;
pub mod metrics;
pub mod node;
pub mod oracle;
pub mod policy;
pub mod probe;
pub mod protocols;
pub mod session;
pub mod simulation;
pub mod summary;

pub use audit::{AuditMode, AuditProbe, Violation};
pub use buffer::{Buffer, EntryMut, InsertOutcome, StoredBundle};
pub use bundle::{BundleId, Flow, FlowId, Workload, WorkloadError};
pub use faults::{
    validate_probability, ChurnMode, ChurnPlan, ChurnTransition, FaultInjector, FaultPlan,
    GilbertElliott,
};
pub use immunity::{DeliveryTracker, ImmunityStore};
pub use metrics::{DropReason, MetricsCollector, RunMetrics};
pub use node::{Node, NodeBits};
pub use oracle::simulate_oracle;
pub use policy::{
    AckPropagation, AckScheme, EvictionPolicy, LifetimePolicy, ProtocolConfig, SummaryPolicy,
    TransmitPolicy,
};
pub use probe::{
    replay_jsonl, replay_metrics, CountingProbe, Event, JsonlProbe, MemoryProbe, NullProbe, Probe,
    SeriesSample, TimeSeriesProbe,
};
pub use session::{SessionScratch, SimConfig};
pub use simulation::{simulate, simulate_probed, simulate_stream, simulate_stream_probed};
pub use summary::{bloom_lanes, bloom_params, BloomFilter, BloomParams, SummaryVector};
