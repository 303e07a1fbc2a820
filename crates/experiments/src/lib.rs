//! # dtn-experiments — the paper's evaluation, regenerated
//!
//! Drivers that reproduce every figure and table of Feng & Chin's unified
//! epidemic-routing study:
//!
//! * [`scenarios`] — the mobility sources (trace stand-in, subscriber-
//!   point RWP, controlled-interval) with the paper's seeding semantics;
//! * [`runner`] — the load sweep × replication machinery and the one
//!   replication path ([`ReplicationPlan`]) every experiment shares,
//!   parallelized across cores with deterministic, thread-count-invariant
//!   results;
//! * [`jobs`] — self-contained per-point job units ([`PointJob`]) with
//!   canonical serialization, shared by the local drivers and the
//!   `dtn-service` daemon so cached results are bit-identical to fresh
//!   ones;
//! * [`figures`] — `fig07()` … `fig20()`, one driver per paper figure;
//! * [`tables`] — Table II and the signaling-overhead comparison;
//! * [`output`] — CSV and aligned-text rendering;
//! * [`report`] — the unified [`SweepReport`]/[`RunManifest`] pipeline
//!   (per-point delay histograms, cache/timing counters, peak RSS);
//! * [`reporter`] — leveled stderr progress reporting (`-v`/`--quiet`);
//! * [`robustness`] — the churn × loss fault grid across all protocols,
//!   panic-isolated and resumable from a JSONL checkpoint.
//!
//! The `repro` binary ties it together:
//!
//! ```text
//! cargo run --release -p dtn-experiments --bin repro -- all
//! cargo run --release -p dtn-experiments --bin repro -- fig14 table2
//! cargo run --release -p dtn-experiments --bin repro -- --quick all
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod figures;
pub mod jobs;
pub mod output;
pub mod report;
pub mod reporter;
pub mod robustness;
pub mod runner;
pub mod scenarios;
pub mod tables;

pub use ablations::{all_ablations, mobility_table};
pub use figures::{all_figures, Metric};
pub use jobs::{PointJob, PointOutcome};
pub use output::{ensure_dir, Figure, Series, TextTable};
pub use report::{
    current_rss_bytes, git_rev, peak_rss_bytes, unix_time_secs, FederationStats, NamedHistogram,
    PointReport, PointTiming, RunManifest, ShardStat, SweepReport, SweepTiming,
};
pub use reporter::{Reporter, Verbosity};
pub use robustness::{
    assemble_grid_report, fault_grid, grid_point_jobs, record_supervised_point, run_robustness,
    FaultCell, GridPoint, InjectHook, RunOutcome,
};
pub use runner::{
    aggregate_point, aggregate_point_checked, point_sim_config, run_point,
    run_point_checked_cached, run_sweep, run_sweep_cached, PointResult, Replication,
    ReplicationPlan, SweepConfig, SweepResult, Traces,
};
pub use scenarios::Mobility;
pub use tables::{overhead_table, table2};

pub use dtn_mobility::{TraceCache, TraceKey};
