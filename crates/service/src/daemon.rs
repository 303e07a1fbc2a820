//! The `dtnsimd` daemon: accept loop, bounded job queue, worker pool,
//! and request dispatch.
//!
//! Threading model: one accept thread, one thread per live connection,
//! and a fixed worker pool. Connections only touch shared state under
//! two mutexes — the queue (with its "work available" condvar) and the
//! job table (with its "job finished" condvar) — and workers never hold
//! both at once, so the lock order is trivially acyclic.
//!
//! Backpressure is explicit: the queue is a bounded [`VecDeque`], and a
//! submit that would exceed the bound is answered with `rejected` +
//! `retry_after_ms` instead of being buffered. Nothing in the daemon
//! grows with the number of *offered* jobs, only with the number of
//! *admitted* ones.
//!
//! Shutdown drains: workers finish every admitted job before exiting,
//! result waiters are woken as those jobs land, and the cache index is
//! persisted last — so a client that saw `accepted` can always collect
//! its result from the same daemon incarnation.

use crate::cache::{job_key, JournalConfig, ResultStore, ENGINE_VERSION};
use crate::cron::{Cron, CronBuilder};
use crate::janitor::{Janitor, JanitorConfig};
use crate::json::{escape, Value};
use crate::wire::{is_bad_frame, job_from_value, read_frame_deadline, write_frame};
use dtn_experiments::jobs::{PointJob, RunOutcome};
use dtn_experiments::TraceCache;
use dtn_sim::telemetry::{
    self, AtomicHistogram, Clock, Counter, Gauge, HistogramSnapshot, MonotonicClock, Span,
};
use dtn_sim::Threads;
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Maximum number of queued (admitted but not yet running) jobs.
    pub queue_capacity: usize,
    /// Worker threads. `0` is allowed — jobs queue but never run, which
    /// the backpressure tests use to fill the queue deterministically.
    pub workers: usize,
    /// Thread policy for the replications *inside* one job.
    pub job_threads: Threads,
    /// Result-cache index file; `None` keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Hint returned with `rejected` responses.
    pub retry_after_ms: u64,
    /// Log a stderr line whenever one job's simulation phase exceeds
    /// this many wall seconds (`None` disables the slow-job log).
    pub slow_job_secs: Option<f64>,
    /// Journal the result cache after this many unflushed inserts.
    pub journal_flush_entries: usize,
    /// …or after the oldest unflushed insert is this old, whichever
    /// comes first. A crash loses at most one such flush window.
    pub journal_flush_secs: f64,
    /// Slowloris guard: once a request frame's first byte arrives, the
    /// whole frame must complete within this budget (`None` disables).
    pub frame_deadline_ms: Option<u64>,
    /// How long a connection may sit silent between requests before the
    /// daemon hangs up (`None` parks connections forever).
    pub idle_timeout_secs: Option<u64>,
    /// Socket write timeout for responses — a peer that stops reading
    /// cannot pin a connection thread (`None` disables).
    pub write_timeout_secs: Option<u64>,
    /// Overload shedding: a job that waited in the queue longer than
    /// this is failed at claim time instead of run — under sustained
    /// overload, late answers are worse than honest sheds (`None`
    /// disables; the default, since shedding trades completeness for
    /// latency and only an operator can make that call).
    pub queue_deadline_ms: Option<u64>,
    /// Janitor TTL: evict cached results older than this many seconds
    /// (`None` disables age-based expiry).
    pub cache_ttl_secs: Option<f64>,
    /// Janitor byte budget: evict least-recently-used cached results
    /// while the resident set exceeds this (`None` disables).
    pub cache_max_bytes: Option<u64>,
    /// Nominal period between janitor sweeps (early-jittered by the
    /// cron scheduler; irrelevant unless a TTL or budget is set).
    pub janitor_interval_secs: f64,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            job_threads: Threads::Auto,
            cache_path: None,
            retry_after_ms: 250,
            slow_job_secs: None,
            journal_flush_entries: 8,
            journal_flush_secs: 1.0,
            frame_deadline_ms: Some(10_000),
            idle_timeout_secs: Some(300),
            write_timeout_secs: Some(30),
            queue_deadline_ms: None,
            cache_ttl_secs: None,
            cache_max_bytes: None,
            janitor_interval_secs: 5.0,
        }
    }
}

/// Telemetry handles for the daemon's job lifecycle, registered in the
/// process-global [`telemetry::MetricsRegistry`]. Registration dedups
/// on `(name, labels)`, so repeated [`Daemon::spawn`]s in one process
/// (tests, benches) share the same monotone series.
pub(crate) struct DaemonMetrics {
    pub connections: Counter,
    pub frame_decode: Arc<AtomicHistogram>,
    pub request: Arc<AtomicHistogram>,
    pub write: Arc<AtomicHistogram>,
    pub queue_wait: Arc<AtomicHistogram>,
    pub cache_probe: Arc<AtomicHistogram>,
    pub sim: Arc<AtomicHistogram>,
    pub serialize: Arc<AtomicHistogram>,
    pub queue_depth: Gauge,
    pub inflight: Gauge,
    pub jobs_completed: Counter,
    pub jobs_cached: Counter,
    pub jobs_failed_error: Counter,
    pub jobs_failed_panic: Counter,
    pub jobs_cancelled: Counter,
    pub rejected_queue_full: Counter,
    pub rejected_shutdown: Counter,
    pub reps_panicked: Counter,
    pub reps_timed_out: Counter,
    pub rejected_draining: Counter,
    pub heartbeats: Counter,
    pub cache_hit: Counter,
    pub cache_miss: Counter,
    pub busy_nanos: Counter,
    pub bad_frames: Counter,
    pub shed_queue_deadline: Counter,
    pub journal_salvaged: Counter,
    pub journal_discarded: Counter,
    pub stale_tmp_removed: Counter,
}

impl DaemonMetrics {
    fn register() -> DaemonMetrics {
        let reg = telemetry::global();
        let hist = |name, help| reg.histogram(name, help, &[]);
        let jobs = |outcome| {
            reg.counter(
                "dtnsimd_jobs_total",
                "terminal job outcomes by kind",
                outcome,
            )
        };
        DaemonMetrics {
            connections: reg.counter("dtnsimd_connections_total", "accepted TCP connections", &[]),
            frame_decode: hist("dtnsimd_frame_decode_seconds", "request frame JSON parse"),
            request: hist("dtnsimd_request_seconds", "request dispatch + handling"),
            write: hist("dtnsimd_write_seconds", "response frame write"),
            queue_wait: hist("dtnsimd_queue_wait_seconds", "admit-to-claim queue wait"),
            cache_probe: hist("dtnsimd_cache_probe_seconds", "result-store lookup"),
            sim: hist("dtnsimd_sim_seconds", "worker simulation (PointJob::run)"),
            serialize: hist("dtnsimd_serialize_seconds", "result fragment rendering"),
            queue_depth: reg.gauge("dtnsimd_queue_depth", "jobs admitted but not claimed", &[]),
            inflight: reg.gauge("dtnsimd_inflight_jobs", "jobs currently running", &[]),
            jobs_completed: jobs(&[("outcome", "completed")]),
            jobs_cached: jobs(&[("outcome", "cached")]),
            jobs_failed_error: jobs(&[("outcome", "failed_error")]),
            jobs_failed_panic: jobs(&[("outcome", "failed_panic")]),
            jobs_cancelled: jobs(&[("outcome", "cancelled")]),
            rejected_queue_full: reg.counter(
                "dtnsimd_rejections_total",
                "submissions turned away at the door",
                &[("reason", "queue_full")],
            ),
            rejected_shutdown: reg.counter(
                "dtnsimd_rejections_total",
                "submissions turned away at the door",
                &[("reason", "shutting_down")],
            ),
            reps_panicked: reg.counter(
                "dtnsimd_replications_total",
                "supervised replication outcomes inside completed jobs",
                &[("outcome", "panicked")],
            ),
            reps_timed_out: reg.counter(
                "dtnsimd_replications_total",
                "supervised replication outcomes inside completed jobs",
                &[("outcome", "timed_out")],
            ),
            rejected_draining: reg.counter(
                "dtnsimd_rejections_total",
                "submissions turned away at the door",
                &[("reason", "draining")],
            ),
            heartbeats: reg.counter(
                "dtnsimd_heartbeats_total",
                "heartbeat probes answered (federation health checks)",
                &[],
            ),
            cache_hit: reg.counter(
                "dtnsimd_cache_total",
                "submission-time result-cache probes",
                &[("result", "hit")],
            ),
            cache_miss: reg.counter(
                "dtnsimd_cache_total",
                "submission-time result-cache probes",
                &[("result", "miss")],
            ),
            busy_nanos: reg.counter(
                "dtnsimd_worker_busy_nanos_total",
                "wall nanoseconds workers spent running jobs",
                &[],
            ),
            bad_frames: reg.counter(
                "dtnsimd_bad_frames_total",
                "request frames rejected by length/CRC/UTF-8 validation",
                &[],
            ),
            shed_queue_deadline: reg.counter(
                "dtnsimd_shed_total",
                "jobs shed at claim time for exceeding the queue-wait deadline",
                &[("reason", "queue_deadline")],
            ),
            journal_salvaged: reg.counter(
                "dtnsimd_journal_records_total",
                "cache-journal records handled by startup recovery",
                &[("outcome", "salvaged")],
            ),
            journal_discarded: reg.counter(
                "dtnsimd_journal_records_total",
                "cache-journal records handled by startup recovery",
                &[("outcome", "discarded")],
            ),
            stale_tmp_removed: reg.counter(
                "dtnsimd_stale_tmp_removed_total",
                "orphaned cache .tmp files cleaned up at startup",
                &[],
            ),
        }
    }
}

/// Lifecycle of an admitted job.
#[derive(Clone, Debug)]
enum JobState {
    Queued,
    Running,
    Done { cached: bool },
    Failed(String),
    Cancelled,
}

struct JobEntry {
    job: PointJob,
    state: JobState,
    /// Admission timestamp (telemetry epoch nanos) — the queue-wait
    /// histogram measures admit → worker-claim from this.
    enqueued_nanos: u64,
}

struct Shared {
    config: DaemonConfig,
    local_addr: std::net::SocketAddr,
    store: Arc<ResultStore>,
    trace_cache: TraceCache,
    queue: Mutex<VecDeque<String>>,
    work_cv: Condvar,
    jobs: Mutex<HashMap<String, JobEntry>>,
    done_cv: Condvar,
    shutting_down: AtomicBool,
    /// Operator drain (`drain` request): finish what is admitted, turn
    /// new submits away with a retriable `draining` rejection. Unlike
    /// shutdown this is reversible (`drain` with `resume:true`) and
    /// keeps the daemon serving results — it is how a worker leaves a
    /// federation gracefully.
    draining: AtomicBool,
    started: Instant,
    metrics: DaemonMetrics,
    submitted: AtomicU64,
    completed: AtomicU64,
    // `failed` folds errors + panics (the legacy wire counter);
    // `rejected` folds queue_full + shutting_down. The split atomics
    // below are what the extended stats reply distinguishes.
    failed: AtomicU64,
    failed_errors: AtomicU64,
    failed_panics: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    replication_panics: AtomicU64,
    replication_timeouts: AtomicU64,
    busy_nanos: AtomicU64,
    running: AtomicUsize,
    bad_frames: AtomicU64,
    shed_queue_deadline: AtomicU64,
}

/// A running daemon: the accept loop and worker pool, plus the handle
/// needed to join them and persist the cache on the way out.
pub struct Daemon {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    cron: Option<Cron>,
}

impl Daemon {
    /// Bind, load the cache index, and start the accept loop and worker
    /// pool. Returns as soon as the listener is live.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = Arc::new(match &config.cache_path {
            Some(path) => ResultStore::open_with(
                path,
                JournalConfig {
                    flush_every: config.journal_flush_entries.max(1),
                    flush_interval: Duration::from_secs_f64(config.journal_flush_secs.max(0.01)),
                },
            ),
            None => ResultStore::in_memory(),
        });
        let metrics = DaemonMetrics::register();
        // Surface what journal recovery found — the crash story must be
        // auditable from telemetry alone.
        let recovery = store.recovery();
        metrics.journal_salvaged.add(recovery.salvaged);
        metrics.journal_discarded.add(recovery.discarded);
        metrics.stale_tmp_removed.add(recovery.stale_tmp_removed);
        if recovery.salvaged > 0 || recovery.discarded > 0 || recovery.stale_tmp_removed > 0 {
            eprintln!(
                "dtnsimd: journal recovery: {} salvaged, {} discarded, {} stale tmp removed",
                recovery.salvaged, recovery.discarded, recovery.stale_tmp_removed
            );
        }
        let shared = Arc::new(Shared {
            config: config.clone(),
            local_addr,
            store,
            trace_cache: TraceCache::new(),
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            metrics,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            failed_errors: AtomicU64::new(0),
            failed_panics: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            replication_panics: AtomicU64::new(0),
            replication_timeouts: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            bad_frames: AtomicU64::new(0),
            shed_queue_deadline: AtomicU64::new(0),
        });
        register_derived_gauges(&shared);

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dtnsimd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dtnsimd-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };

        // All periodic chores ride one jittered cron thread: the
        // journal's time-based flush window (which must hold even when
        // no inserts arrive to trigger it lazily), the cache janitor,
        // and the stale-`.tmp` sweep.
        let janitor = Janitor::new(
            Arc::clone(&shared.store),
            JanitorConfig {
                ttl: config.cache_ttl_secs.map(Duration::from_secs_f64),
                max_bytes: config.cache_max_bytes,
            },
            "dtnsimd",
        );
        let flush_tick =
            Duration::from_secs_f64((config.journal_flush_secs / 2.0).clamp(0.05, 1.0));
        let flush_store = Arc::clone(&shared.store);
        let mut cron = CronBuilder::new(0).every_final("journal-flush", flush_tick, move || {
            let _ = flush_store.flush_journal(false);
        });
        if janitor.config().is_active() {
            cron = cron.every(
                "janitor",
                Duration::from_secs_f64(config.janitor_interval_secs.max(0.05)),
                move || {
                    janitor.sweep();
                },
            );
            let tmp_shared = Arc::clone(&shared);
            cron = cron.every("stale-tmp", Duration::from_secs(60), move || {
                let removed = tmp_shared.store.sweep_stale_tmp();
                tmp_shared.metrics.stale_tmp_removed.add(removed);
            });
        }
        let cron = cron.spawn("dtnsimd-cron").expect("spawn cron scheduler");

        Ok(Daemon {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
            cron: Some(cron),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Wait for shutdown: accept loop gone, workers drained, cache index
    /// persisted. Returns the persist result.
    pub fn join(mut self) -> std::io::Result<()> {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop only exits on shutdown, so the flag is set and
        // workers will drain the queue and stop.
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(cron) = self.cron.take() {
            cron.shutdown();
        }
        self.shared.store.persist()
    }

    /// Request shutdown in-process (used by tests and benches that own
    /// the daemon directly rather than going through a socket).
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }
}

/// Trip the shutdown flag, wake the workers so they drain and exit, and
/// poke the accept loop out of its blocking `accept()`.
fn begin_shutdown(shared: &Arc<Shared>) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    shared.work_cv.notify_all();
    let _ = TcpStream::connect(shared.local_addr);
}

/// Install the scrape-time hook computing derived gauges: worker
/// utilization (busy time / workers × uptime) and resident cache
/// entries. Registered under one stable name, so the *latest* daemon
/// spawned in this process owns the series.
fn register_derived_gauges(shared: &Arc<Shared>) {
    let reg = telemetry::global();
    let workers_g = reg.gauge("dtnsimd_workers", "worker pool size", &[]);
    let capacity_g = reg.gauge("dtnsimd_queue_capacity", "job queue bound", &[]);
    let util_g = reg.gauge(
        "dtnsimd_worker_utilization",
        "busy fraction of the worker pool since daemon start",
        &[],
    );
    let entries_g = reg.gauge(
        "dtnsimd_cache_entries",
        "resident result-cache entries",
        &[],
    );
    let flushes_g = reg.gauge(
        "dtnsimd_journal_flushes",
        "completed cache-journal flushes",
        &[],
    );
    let journal_errors_g = reg.gauge(
        "dtnsimd_journal_errors",
        "cache-journal write failures survived",
        &[],
    );
    workers_g.set(shared.config.workers as f64);
    capacity_g.set(shared.config.queue_capacity as f64);
    let hook_shared = Arc::clone(shared);
    reg.register_refresh("dtnsimd_derived_gauges", move || {
        let busy = hook_shared.busy_nanos.load(Ordering::Relaxed) as f64;
        let denom =
            hook_shared.started.elapsed().as_nanos() as f64 * hook_shared.config.workers as f64;
        util_g.set(if denom > 0.0 {
            (busy / denom).min(1.0)
        } else {
            0.0
        });
        entries_g.set(hook_shared.store.stats().2 as f64);
        flushes_g.set(hook_shared.store.journal_flushes() as f64);
        journal_errors_g.set(hook_shared.store.journal_errors() as f64);
    });
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.connections.inc();
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("dtnsimd-conn".to_string())
            .spawn(move || serve_connection(stream, &shared));
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Request/response with small frames: Nagle only adds latency.
    let _ = stream.set_nodelay(true);
    // A peer that stops *reading* must not pin this thread either.
    let _ = stream.set_write_timeout(shared.config.write_timeout_secs.map(Duration::from_secs));
    let idle = shared.config.idle_timeout_secs.map(Duration::from_secs);
    let frame_deadline = shared.config.frame_deadline_ms.map(Duration::from_millis);
    loop {
        let raw = match read_frame_deadline(&mut stream, idle, frame_deadline) {
            Ok(Some(raw)) => raw,
            Ok(None) => return,
            Err(e) if is_bad_frame(&e) => {
                // Structured rejection, then hang up: framing is gone,
                // so nothing later on this connection can be trusted.
                shared.bad_frames.fetch_add(1, Ordering::Relaxed);
                shared.metrics.bad_frames.inc();
                let reject = format!(
                    "{{\"type\":\"error\",\"code\":\"bad_frame\",\"message\":\"{}\"}}",
                    escape(&e.to_string())
                );
                let _ = write_frame(&mut stream, &reject);
                return;
            }
            // Idle/slowloris timeouts and severed sockets: hang up.
            Err(_) => return,
        };
        let parsed = {
            let _t = Span::<MonotonicClock>::start(&shared.metrics.frame_decode);
            Value::parse(&raw)
        };
        let response = match parsed {
            Ok(request) => {
                if request.get("type").and_then(Value::as_str) == Some("shutdown") {
                    // Order matters: the ack must reach the socket before
                    // the flag is tripped. Once the accept loop breaks,
                    // `join` can drain and exit the process, and an ack
                    // still unwritten at that point becomes an EOF for
                    // the very client that asked for the shutdown.
                    let ack = shutdown_ack(shared);
                    if write_frame(&mut stream, &ack).is_err() {
                        return;
                    }
                    begin_shutdown(shared);
                    continue;
                }
                let _t = Span::<MonotonicClock>::start(&shared.metrics.request);
                handle_request(shared, &request)
            }
            Err(e) => error_response(&format!("bad request: {e}")),
        };
        let _t = Span::<MonotonicClock>::start(&shared.metrics.write);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn error_response(message: &str) -> String {
    format!("{{\"type\":\"error\",\"message\":\"{}\"}}", escape(message))
}

fn state_name(state: &JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Done { .. } => "done",
        JobState::Failed(_) => "failed",
        JobState::Cancelled => "cancelled",
    }
}

fn handle_request(shared: &Arc<Shared>, request: &Value) -> String {
    match request.get("type").and_then(Value::as_str) {
        Some("submit") => handle_submit(shared, request),
        Some("status") => handle_status(shared, request),
        Some("result") => handle_result(shared, request),
        Some("cancel") => handle_cancel(shared, request),
        Some("stats") => handle_stats(shared),
        Some("heartbeat") => handle_heartbeat(shared),
        Some("drain") => handle_drain(shared, request),
        // "shutdown" is intercepted in `serve_connection` so its ack is
        // written before the flag can let the process exit.
        other => error_response(&format!("unknown request type {other:?}")),
    }
}

fn job_id_of(request: &Value) -> Result<&str, String> {
    request
        .get("job_id")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing job_id".to_string())
}

fn handle_submit(shared: &Arc<Shared>, request: &Value) -> String {
    let Some(job_doc) = request.get("job") else {
        return error_response("submit without a job document");
    };
    let job = match job_from_value(job_doc) {
        Ok(job) => job,
        Err(e) => return error_response(&format!("invalid job: {e}")),
    };
    // Key the daemon-side re-rendering, never the client's bytes: two
    // clients formatting the same job differently must collide.
    let key = job_key(&job.to_canonical_json());

    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
        shared.metrics.rejected_shutdown.inc();
        return format!(
            "{{\"type\":\"rejected\",\"reason\":\"shutting_down\",\
             \"retry_after_ms\":{},\"queue_depth\":0}}",
            shared.config.retry_after_ms
        );
    }
    if shared.draining.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        shared.metrics.rejected_draining.inc();
        let queue_depth = shared.queue.lock().expect("queue poisoned").len();
        return format!(
            "{{\"type\":\"rejected\",\"reason\":\"draining\",\
             \"retry_after_ms\":{},\"queue_depth\":{queue_depth}}}",
            retry_after_hint_ms(shared, queue_depth)
        );
    }

    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let hit = {
        let _t = Span::<MonotonicClock>::start(&shared.metrics.cache_probe);
        shared.store.lookup(&key).is_some()
    };
    if hit {
        shared.metrics.cache_hit.inc();
        // Content-addressed hit: the result exists, no work is queued.
        // Overwriting a previous terminal state is fine — the stored
        // fragment is the result either way, and `cached: true` tells
        // the client this submission cost nothing.
        jobs.entry(key.clone())
            .and_modify(|e| e.state = JobState::Done { cached: true })
            .or_insert(JobEntry {
                job,
                state: JobState::Done { cached: true },
                enqueued_nanos: 0,
            });
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        shared.metrics.jobs_cached.inc();
        return accepted(&key, true);
    }
    shared.metrics.cache_miss.inc();
    if let Some(entry) = jobs.get(&key) {
        match entry.state {
            // Already admitted (or already resolved): piggyback.
            JobState::Queued | JobState::Running | JobState::Done { .. } => {
                shared.submitted.fetch_add(1, Ordering::Relaxed);
                return accepted(&key, false);
            }
            // A cancelled or failed job may be resubmitted; fall through
            // to re-queue it.
            JobState::Cancelled | JobState::Failed(_) => {}
        }
    }

    let mut queue = shared.queue.lock().expect("queue poisoned");
    if queue.len() >= shared.config.queue_capacity {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        shared.metrics.rejected_queue_full.inc();
        return format!(
            "{{\"type\":\"rejected\",\"reason\":\"queue_full\",\
             \"retry_after_ms\":{},\"queue_depth\":{}}}",
            retry_after_hint_ms(shared, queue.len()),
            queue.len()
        );
    }
    queue.push_back(key.clone());
    shared.metrics.queue_depth.set(queue.len() as f64);
    drop(queue);
    jobs.insert(
        key.clone(),
        JobEntry {
            job,
            state: JobState::Queued,
            enqueued_nanos: MonotonicClock::now_nanos(),
        },
    );
    drop(jobs);
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    shared.work_cv.notify_one();
    accepted(&key, false)
}

fn accepted(key: &str, cached: bool) -> String {
    format!("{{\"type\":\"accepted\",\"job_id\":\"{key}\",\"cached\":{cached}}}")
}

/// Ceiling on the computed backpressure hint — a pathological backlog
/// estimate must not tell clients to go away for minutes.
const MAX_RETRY_AFTER_MS: u64 = 30_000;

/// The `retry_after_ms` hint for a rejection: proportional to the
/// current backlog — queue depth × observed mean simulation time,
/// spread over the worker pool — instead of a constant. Before any job
/// has run (no mean yet) the configured constant is the hint; it also
/// serves as the floor, and [`MAX_RETRY_AFTER_MS`] caps the estimate.
/// Clients treat the hint as a *floor* on their own jittered backoff
/// (`RetryPolicy::backoff`), so an estimate that proves too short just
/// re-rejects with an updated hint.
fn retry_after_hint_ms(shared: &Shared, queue_depth: usize) -> u64 {
    let base = shared.config.retry_after_ms;
    let snap = shared.metrics.sim.snapshot();
    if snap.count == 0 {
        return base;
    }
    let workers = shared.config.workers.max(1) as f64;
    let backlog_ms = (queue_depth as f64 * snap.mean() * 1000.0 / workers).round() as u64;
    backlog_ms.clamp(base, MAX_RETRY_AFTER_MS.max(base))
}

/// Answer a federation health probe. Cheap by design — no locks beyond
/// the queue length — because the coordinator sends one per shard per
/// heartbeat interval.
fn handle_heartbeat(shared: &Arc<Shared>) -> String {
    shared.metrics.heartbeats.inc();
    let queue_depth = shared.queue.lock().expect("queue poisoned").len();
    format!(
        "{{\"type\":\"heartbeat_ack\",\"engine\":\"{}\",\"queue_depth\":{queue_depth},\
         \"running\":{},\"draining\":{}}}",
        escape(ENGINE_VERSION),
        shared.running.load(Ordering::Relaxed),
        shared.draining.load(Ordering::SeqCst),
    )
}

/// Enter (or with `resume:true` leave) operator drain: admitted jobs
/// finish and stay collectable, new submits bounce with a retriable
/// `draining` rejection, and the next `heartbeat_ack` tells the
/// coordinator to stop routing here.
fn handle_drain(shared: &Arc<Shared>, request: &Value) -> String {
    let resume = request
        .get("resume")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    shared.draining.store(!resume, Ordering::SeqCst);
    let queued = {
        let jobs = shared.jobs.lock().expect("jobs poisoned");
        jobs.values()
            .filter(|e| matches!(e.state, JobState::Queued | JobState::Running))
            .count()
    };
    format!(
        "{{\"type\":\"draining\",\"draining\":{},\"queued\":{queued}}}",
        !resume
    )
}

fn handle_status(shared: &Arc<Shared>, request: &Value) -> String {
    let id = match job_id_of(request) {
        Ok(id) => id,
        Err(e) => return error_response(&e),
    };
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    match jobs.get(id) {
        None => format!("{{\"type\":\"status\",\"job_id\":\"{id}\",\"state\":\"unknown\"}}"),
        Some(entry) => match &entry.state {
            JobState::Failed(message) => format!(
                "{{\"type\":\"status\",\"job_id\":\"{id}\",\"state\":\"failed\",\
                 \"error\":\"{}\"}}",
                escape(message)
            ),
            state => format!(
                "{{\"type\":\"status\",\"job_id\":\"{id}\",\"state\":\"{}\"}}",
                state_name(state)
            ),
        },
    }
}

fn handle_result(shared: &Arc<Shared>, request: &Value) -> String {
    let id = match job_id_of(request) {
        Ok(id) => id.to_string(),
        Err(e) => return error_response(&e),
    };
    let wait = request
        .get("wait")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    loop {
        let Some(entry) = jobs.get(&id) else {
            // Structured code: a client holding a stale ticket (the
            // daemon restarted and lost its job table) must be able to
            // tell this apart from a real rejection — it heals by
            // resubmitting, which is idempotent.
            return format!(
                "{{\"type\":\"error\",\"code\":\"unknown_job\",\"message\":\"unknown job {}\"}}",
                escape(&id)
            );
        };
        match &entry.state {
            JobState::Done { cached } => {
                let cached = *cached;
                drop(jobs);
                // Counter-neutral fetch: hit/miss stats describe submits.
                let Some(fragment) = shared.store.fragment(&id) else {
                    return error_response(&format!("result for {id} missing from store"));
                };
                // `fragment` MUST stay the last member — clients slice
                // the verbatim bytes out by position (extract_fragment).
                return format!(
                    "{{\"type\":\"result\",\"job_id\":\"{id}\",\"cached\":{cached},\
                     \"fragment\":{fragment}}}"
                );
            }
            JobState::Failed(message) => {
                return error_response(&format!("job {id} failed: {message}"))
            }
            JobState::Cancelled => return error_response(&format!("job {id} was cancelled")),
            JobState::Queued | JobState::Running if !wait => {
                return format!(
                    "{{\"type\":\"status\",\"job_id\":\"{id}\",\"state\":\"{}\"}}",
                    state_name(&entry.state)
                );
            }
            JobState::Queued | JobState::Running => {
                jobs = shared.done_cv.wait(jobs).expect("jobs poisoned");
            }
        }
    }
}

fn handle_cancel(shared: &Arc<Shared>, request: &Value) -> String {
    let id = match job_id_of(request) {
        Ok(id) => id,
        Err(e) => return error_response(&e),
    };
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let cancelled = match jobs.get_mut(id) {
        // Only queued jobs can be cancelled; the entry stays in the
        // table and the worker discards the id when it pops it.
        Some(entry) if matches!(entry.state, JobState::Queued) => {
            entry.state = JobState::Cancelled;
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.metrics.jobs_cancelled.inc();
            shared.done_cv.notify_all();
            true
        }
        _ => false,
    };
    format!("{{\"type\":\"cancelled\",\"job_id\":\"{id}\",\"cancelled\":{cancelled}}}")
}

/// One histogram snapshot as a JSON object (count/sum/mean/quantiles).
/// Floats use Rust's shortest round-trip rendering — the stats reply is
/// informational, not byte-identity-constrained (the `--canonical`
/// client mode masks the whole telemetry object).
fn snapshot_json(snap: &HistogramSnapshot) -> String {
    let q = |q: f64| snap.quantile(q).unwrap_or(0.0);
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        snap.count,
        snap.sum,
        snap.mean(),
        q(0.5),
        q(0.9),
        q(0.99),
    )
}

fn handle_stats(shared: &Arc<Shared>) -> String {
    let (hits, misses, entries) = shared.store.stats();
    let queue_depth = shared.queue.lock().expect("queue poisoned").len();
    let uptime = shared.started.elapsed().as_secs_f64();
    let busy_secs = shared.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
    let utilization = if shared.config.workers > 0 && uptime > 0.0 {
        (busy_secs / (uptime * shared.config.workers as f64)).min(1.0)
    } else {
        0.0
    };
    let m = &shared.metrics;
    // Legacy keys first, in their original order, so pre-telemetry
    // clients parsing positionally or by key keep working; the split
    // counters and histogram snapshots extend the object after them.
    format!(
        "{{\"type\":\"stats\",\"engine\":\"{}\",\"workers\":{},\
         \"queue_depth\":{queue_depth},\"queue_capacity\":{},\
         \"running\":{},\"submitted\":{},\"completed\":{},\"failed\":{},\
         \"rejected\":{},\"cache_hits\":{hits},\"cache_misses\":{misses},\
         \"cache_entries\":{entries},\
         \"failed_errors\":{},\"failed_panics\":{},\"cancelled\":{},\
         \"rejected_queue_full\":{},\"rejected_shutdown\":{},\
         \"replication_panics\":{},\"replication_timeouts\":{},\
         \"bad_frames\":{},\"shed_queue_deadline\":{},\
         \"journal_salvaged\":{},\"journal_discarded\":{},\
         \"journal_flushes\":{},\"journal_errors\":{},\
         \"stale_tmp_removed\":{},\
         \"cache_expired\":{},\"cache_evictions\":{},\"cache_bytes\":{},\
         \"uptime_secs\":{uptime},\"worker_busy_secs\":{busy_secs},\
         \"worker_utilization\":{utilization},\
         \"latency\":{{\"frame_decode\":{},\"request\":{},\"queue_wait\":{},\
         \"cache_probe\":{},\"sim\":{},\"serialize\":{},\"write\":{}}}}}",
        escape(ENGINE_VERSION),
        shared.config.workers,
        shared.config.queue_capacity,
        shared.running.load(Ordering::Relaxed),
        shared.submitted.load(Ordering::Relaxed),
        shared.completed.load(Ordering::Relaxed),
        shared.failed.load(Ordering::Relaxed),
        shared.rejected.load(Ordering::Relaxed),
        shared.failed_errors.load(Ordering::Relaxed),
        shared.failed_panics.load(Ordering::Relaxed),
        shared.cancelled.load(Ordering::Relaxed),
        shared.rejected_queue_full.load(Ordering::Relaxed),
        shared.rejected_shutdown.load(Ordering::Relaxed),
        shared.replication_panics.load(Ordering::Relaxed),
        shared.replication_timeouts.load(Ordering::Relaxed),
        shared.bad_frames.load(Ordering::Relaxed),
        shared.shed_queue_deadline.load(Ordering::Relaxed),
        shared.store.recovery().salvaged,
        shared.store.recovery().discarded,
        shared.store.journal_flushes(),
        shared.store.journal_errors(),
        shared.store.recovery().stale_tmp_removed,
        shared.store.eviction_counters().0,
        shared.store.eviction_counters().1,
        shared.store.cache_bytes(),
        snapshot_json(&m.frame_decode.snapshot()),
        snapshot_json(&m.request.snapshot()),
        snapshot_json(&m.queue_wait.snapshot()),
        snapshot_json(&m.cache_probe.snapshot()),
        snapshot_json(&m.sim.snapshot()),
        snapshot_json(&m.serialize.snapshot()),
        snapshot_json(&m.write.snapshot()),
    )
}

fn shutdown_ack(shared: &Arc<Shared>) -> String {
    let draining = {
        let jobs = shared.jobs.lock().expect("jobs poisoned");
        jobs.values()
            .filter(|e| matches!(e.state, JobState::Queued | JobState::Running))
            .count()
    };
    format!("{{\"type\":\"shutdown\",\"draining\":{draining}}}")
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let key = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(key) = queue.pop_front() {
                    break key;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.work_cv.wait(queue).expect("queue poisoned");
            }
        };

        {
            let queue = shared.queue.lock().expect("queue poisoned");
            shared.metrics.queue_depth.set(queue.len() as f64);
        }
        let job = {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            match jobs.get_mut(&key) {
                Some(entry) if matches!(entry.state, JobState::Queued) => {
                    let waited = MonotonicClock::now_nanos().saturating_sub(entry.enqueued_nanos);
                    shared.metrics.queue_wait.record(waited as f64 * 1e-9);
                    // Overload shedding: a job that sat past the queue
                    // deadline is answered with an honest failure at
                    // claim time — running it now only makes every job
                    // behind it later still.
                    let shed = shared
                        .config
                        .queue_deadline_ms
                        .is_some_and(|d| waited / 1_000_000 > d);
                    if shed {
                        let waited_ms = waited / 1_000_000;
                        entry.state = JobState::Failed(format!(
                            "shed_queue_deadline: queued {waited_ms}ms, deadline {}ms",
                            shared.config.queue_deadline_ms.unwrap_or(0)
                        ));
                        shared.shed_queue_deadline.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.shed_queue_deadline.inc();
                        shared.failed.fetch_add(1, Ordering::Relaxed);
                        shared.failed_errors.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.jobs_failed_error.inc();
                        drop(jobs);
                        shared.done_cv.notify_all();
                        continue;
                    }
                    entry.state = JobState::Running;
                    entry.job.clone()
                }
                // Cancelled while queued (or table inconsistency): skip.
                _ => continue,
            }
        };

        shared.running.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .inflight
            .set(shared.running.load(Ordering::Relaxed) as f64);
        let threads = shared.config.job_threads;
        // PointJob::run already supervises per-replication panics; this
        // outer guard catches bugs in the fold itself so one bad job can
        // never take a worker thread down.
        let sim_start = MonotonicClock::now_nanos();
        let outcome = catch_unwind(AssertUnwindSafe(|| job.run(threads, &shared.trace_cache)));
        let sim_nanos = MonotonicClock::now_nanos().saturating_sub(sim_start);
        let sim_secs = sim_nanos as f64 * 1e-9;
        shared.metrics.sim.record(sim_secs);
        shared.busy_nanos.fetch_add(sim_nanos, Ordering::Relaxed);
        shared.metrics.busy_nanos.add(sim_nanos);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared
            .metrics
            .inflight
            .set(shared.running.load(Ordering::Relaxed) as f64);
        if let Some(threshold) = shared.config.slow_job_secs {
            if sim_secs > threshold {
                eprintln!(
                    "dtnsimd: slow job {key}: simulation took {sim_secs:.3}s \
                     (threshold {threshold}s)"
                );
            }
        }

        let new_state = match outcome {
            Ok(Ok(point)) => {
                // Completed jobs can still carry supervised per-
                // replication failures; surface them instead of letting
                // "completed" hide a point whose replications all died.
                let panics = point
                    .outcomes
                    .iter()
                    .filter(|o| matches!(o, RunOutcome::Panicked(_)))
                    .count() as u64;
                let timeouts = point
                    .outcomes
                    .iter()
                    .filter(|o| matches!(o, RunOutcome::TimedOut))
                    .count() as u64;
                shared
                    .replication_panics
                    .fetch_add(panics, Ordering::Relaxed);
                shared
                    .replication_timeouts
                    .fetch_add(timeouts, Ordering::Relaxed);
                shared.metrics.reps_panicked.add(panics);
                shared.metrics.reps_timed_out.add(timeouts);
                let fragment = {
                    let _t = Span::<MonotonicClock>::start(&shared.metrics.serialize);
                    point.to_wire_json()
                };
                shared.store.insert(key.clone(), fragment);
                shared.completed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.jobs_completed.inc();
                JobState::Done { cached: false }
            }
            Ok(Err(message)) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                shared.failed_errors.fetch_add(1, Ordering::Relaxed);
                shared.metrics.jobs_failed_error.inc();
                JobState::Failed(message)
            }
            Err(panic) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                shared.failed_panics.fetch_add(1, Ordering::Relaxed);
                shared.metrics.jobs_failed_panic.inc();
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                JobState::Failed(format!("job runner panicked: {message}"))
            }
        };
        let mut jobs = shared.jobs.lock().expect("jobs poisoned");
        if let Some(entry) = jobs.get_mut(&key) {
            entry.state = new_state;
        }
        drop(jobs);
        shared.done_cv.notify_all();
    }
}
