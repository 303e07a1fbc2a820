//! Simulation-as-a-service for the unified epidemic-routing study.
//!
//! This crate turns the in-process sweep machinery of
//! `dtn-experiments` into a long-running service:
//!
//! * [`daemon`] — the `dtnsimd` daemon: a TCP accept loop, a **bounded**
//!   job queue with explicit reject-and-retry backpressure, and a worker
//!   pool that runs [`dtn_experiments::PointJob`]s under the same
//!   watchdog supervision the local runners use;
//! * [`cache`] — a content-addressed result store: jobs are keyed by a
//!   hash of their canonical description plus the engine version, and
//!   results are stored as verbatim wire bytes so cache hits are
//!   **bit-identical** to fresh computation;
//! * [`wire`] — the length-prefixed JSON framing and the job codec
//!   shared by daemon and client;
//! * [`client`] — the client used by `dtnsim --connect`, which submits
//!   the same per-point jobs a local sweep would run, plus the
//!   `--daemon-stats` rendering of a `stats` reply;
//! * [`resilient`] — the self-healing wrapper around [`client`]:
//!   transparent reconnect, idempotent resubmission (the content-
//!   addressed cache makes redelivery free), partial-sweep resume, and
//!   the one remote grid sweep ([`ResilientClient::sweep_grid`]) that
//!   the gateway and `dtnsim --connect` both run to reassemble an
//!   identical `SweepReport`;
//! * [`membership`] — the federation's shard table: a consistent-hash
//!   ring over worker daemons plus the per-shard health state machine
//!   (alive → suspect → dead, with revival and operator drain);
//! * [`coordinator`] — the `dtnfedd` coordinator: fronts N `dtnsimd`
//!   workers behind the **same client-facing protocol**, routing jobs
//!   by content address, health-checking shards, failing over the work
//!   of dead ones, and hedging stragglers past a p99-derived deadline;
//! * [`proxy`] — a deterministic fault-injection TCP proxy for chaos
//!   testing the daemon/client pair under drops, delays, mid-frame
//!   truncation, byte corruption, and severed connections;
//! * [`crc`] — the CRC32 shared by wire framing and the cache journal;
//! * [`httpd`] — the crate's one HTTP/1.1 implementation: a bounded
//!   request parser, chunked transfer encoding, a tiny client half, and
//!   the `/v1` gateway that fronts daemon or federation over plain
//!   HTTP/JSON with streaming result delivery;
//! * [`http`] — the telemetry sidecar (`/metrics`, `/healthz`) served
//!   through [`httpd`], plus the `--telemetry-jsonl` snapshot writer;
//! * [`janitor`] — result-cache housekeeping: TTL expiry, byte-budget
//!   LRU eviction, and journal compaction on a periodic sweep;
//! * [`cron`] — the single jittered periodic-task scheduler thread that
//!   drives the janitor, journal flushes, telemetry snapshots, and
//!   stale-`.tmp` sweeps;
//! * [`json`] — re-exported from `dtn-sim`: the workspace's one JSON
//!   reader, which decodes every frame, request body and journal record
//!   this crate reads.
//!
//! The load-bearing invariant, checked end to end by `tests/service.rs`:
//! for any sweep, *local run*, *daemon run*, and *daemon re-run served
//! from cache* all produce canonically identical reports, and the cached
//! fragments are byte-identical to the freshly computed ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod coordinator;
pub mod crc;
pub mod cron;
pub mod daemon;
pub mod http;
pub mod httpd;
pub mod janitor;
pub mod membership;
pub mod proxy;
pub mod resilient;
pub mod wire;

pub use dtn_sim::json;

pub use cache::{job_key, JournalConfig, RecoveryStats, ResultStore, ENGINE_VERSION};
pub use client::{stats_document, Client, ClientError, RetryPolicy, SubmitTicket};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use cron::{Cron, CronBuilder};
pub use daemon::{Daemon, DaemonConfig};
pub use http::{MetricsServer, TelemetrySnapshotter};
pub use httpd::{ConnectTarget, Gateway, GatewayConfig, HttpServer, SweepSpec};
pub use janitor::{Janitor, JanitorConfig};
pub use membership::{Membership, ShardHealth};
pub use proxy::{FaultProxy, ProxyPlan, UpstreamResolver};
pub use resilient::{HealStats, RemoteGrid, ResilientClient};
