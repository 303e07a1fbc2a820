//! # dtn-mobility — mobility models, contact traces and trace IO
//!
//! The paper's unified framework evaluates every protocol over two mobility
//! sources: a real contact trace (CRAWDAD Cambridge Haggle iMote) and a
//! Random-Way-Point variant. This crate provides both, plus the purpose-
//! built scenarios the paper's enhancement study uses, all funnelled into a
//! single artifact — [`ContactTrace`] — which is the only thing the
//! protocol layer (`dtn-epidemic`) ever sees:
//!
//! * [`contact`] — [`NodeId`], [`Contact`], [`ContactTrace`] with
//!   invariant checking, per-node encounter statistics and a temporal-
//!   reachability oracle;
//! * [`trace_io`] — a plain-text trace format that published CRAWDAD
//!   exports map onto line-for-line, with precise, line-numbered errors;
//! * [`synthetic`] — statistically matched stand-in for the (non-
//!   redistributable) Cambridge dataset: heavy-tailed inter-contact gaps,
//!   short contacts, pair heterogeneity;
//! * [`rwp`] — classic geometric RWP with exact (analytic) range-crossing
//!   contact detection;
//! * [`subscriber`] — the paper's modified RWP, where nodes hop between
//!   subscriber points and meet while co-located;
//! * [`scenario`] — the Fig. 14 controlled-interval scenarios (20 nodes,
//!   bounded encounter count, max gap 400 vs 2000 s);
//! * [`lazy`] — traces generated a time window at a time as readers reach
//!   them ([`LazyTrace`]), and the [`ContactStream`] every reader, and the
//!   simulator, walks a trace with.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod cache;
pub mod contact;
pub mod lazy;
pub mod rwp;
pub mod scenario;
pub mod subscriber;
pub mod synthetic;
pub mod trace_io;

pub use analysis::{Ccdf, TraceSummary};
pub use cache::{TraceCache, TraceKey};
pub use contact::{Contact, ContactTrace, NodeId, TraceInvariantError};
pub use lazy::{ContactStream, LazyTrace};
pub use rwp::RwpParams;
pub use scenario::IntervalScenario;
pub use subscriber::SubscriberParams;
pub use synthetic::HaggleParams;
pub use trace_io::{parse_trace, parse_trace_str, read_trace_file, write_trace, TraceError};
