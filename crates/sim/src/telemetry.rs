//! Process-wide operational telemetry: atomic counters, gauges and
//! log-bucketed latency histograms behind a global [`MetricsRegistry`],
//! plus a zero-cost-when-disabled [`Span`] timing guard.
//!
//! This layer answers a different question from the [`crate::stats`]
//! accumulators: stats measure the *simulated* system (delivery delay,
//! buffer occupancy), telemetry measures the *simulator as a service*
//! (queue wait, cache probes, serialization time, worker utilization).
//! The two share one bucket scheme — [`AtomicHistogram`] reuses
//! [`crate::stats::bucket_index`]'s IEEE-754 log-bucketing — so a
//! latency histogram scraped over HTTP and a delay histogram in a sweep
//! report bucket values identically.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths pay nothing when telemetry is off.** [`Span`] is
//!    monomorphized over a [`Clock`]; under [`NullClock`]
//!    (`ENABLED = false`) both the start read and the drop record are
//!    dead code, the same trick `NullProbe` uses (guarded by the span
//!    stanza of `bench_probe_overhead`).
//! 2. **Recording never locks.** Counters and histogram buckets are
//!    relaxed atomics; gauges store `f64` bits in an `AtomicU64`. The
//!    registry's mutex is touched only at registration and scrape time.
//! 3. **Rendering is deterministic.** Families render sorted by
//!    `(name, labels)`; the JSONL snapshot has a fixed field order and a
//!    `mask_time` mode so tests can compare snapshots byte-for-byte.
//!
//! Metric naming follows the Prometheus convention: `snake_case`
//! families, `_total` suffix on counters, `_seconds` on latency
//! histograms, constant `&'static str` label pairs for the few
//! dimensions that matter (e.g. `reason="queue_full"`).

use crate::stats::{bucket_bounds, bucket_index, HIST_SUBDIV};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Label pairs attached to a metric — constant, tiny, and part of the
/// metric's identity in the registry.
pub type Labels = &'static [(&'static str, &'static str)];

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so handles are cheap to stash in per-worker structs.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (tests; production code gets
    /// handles from [`MetricsRegistry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a last-writer-wins `f64` stored as its bit pattern in an
/// `AtomicU64` (no locks, no torn reads).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the current level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the current level by `delta` (CAS loop; gauges are
    /// low-frequency, contention is irrelevant).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lowest octave the fixed bucket range covers: 2⁻³⁰ s ≈ 0.93 ns.
const HIST_MIN_EXP: i64 = -30;
/// One-past-highest octave: 2¹⁴ s = 16 384 s caps the range.
const HIST_MAX_EXP: i64 = 14;
/// Fixed bucket count: every sub-bucket between the two octaves.
const HIST_BUCKETS: usize = ((HIST_MAX_EXP - HIST_MIN_EXP) * HIST_SUBDIV) as usize;
/// Index offset mapping `bucket_index` output into the fixed array.
const HIST_BASE: i64 = HIST_MIN_EXP * HIST_SUBDIV;

/// A lock-free latency histogram over a fixed bucket range.
///
/// Same log-bucket geometry as [`crate::stats::Histogram`] (via
/// [`bucket_index`]/[`bucket_bounds`]), but backed by a flat array of
/// relaxed atomics instead of a `BTreeMap`, so concurrent `record`s
/// from worker threads never contend on a lock. The range
/// [2⁻³⁰ s, 2¹⁴ s) ≈ [1 ns, 4.5 h) covers every service latency worth
/// measuring; samples below clamp into the lowest bucket, samples above
/// into the highest, and non-positive/non-finite samples land in a
/// dedicated underflow bin — `count` always reflects every call.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    underflow: AtomicU64,
    count: AtomicU64,
    /// Σ samples, accumulated as `f64` bits via CAS (finite samples only).
    sum_bits: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: Box::new([const { AtomicU64::new(0) }; HIST_BUCKETS]),
            underflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::default()
    }

    /// Record one sample (seconds, for latency families).
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() && v > 0.0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            let idx = (bucket_index(v) - HIST_BASE).clamp(0, HIST_BUCKETS as i64 - 1) as usize;
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram (relaxed loads — counts
    /// from concurrent recorders may straddle the snapshot, which is
    /// fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let (lo, hi) = bucket_bounds(i as i64 + HIST_BASE);
                buckets.push((lo, hi, n));
            }
        }
        HistogramSnapshot {
            buckets,
            underflow: self.underflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A frozen [`AtomicHistogram`]: non-empty `(lo, hi, count)` buckets in
/// ascending value order plus underflow/count/sum totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(lo, hi, count)` with `[lo, hi)` semantics.
    pub buckets: Vec<(f64, f64, u64)>,
    /// Samples ≤ 0 or non-finite.
    pub underflow: u64,
    /// Total samples recorded (including underflow).
    pub count: u64,
    /// Sum of all positive finite samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Nearest-rank `q`-quantile resolved to the owning bucket's
    /// midpoint (underflow resolves to 0); `None` when empty. Same
    /// convention as [`crate::stats::Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if cum >= target {
            return Some(0.0);
        }
        for &(lo, hi, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return Some((lo + hi) / 2.0);
            }
        }
        // Snapshot raced a concurrent record (count bumped before the
        // bucket): resolve to the highest populated bucket.
        self.buckets.last().map(|&(lo, hi, _)| (lo + hi) / 2.0)
    }

    /// Mean of the positive finite samples (0 when none).
    pub fn mean(&self) -> f64 {
        let n = self.count - self.underflow.min(self.count);
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }
}

/// A clock policy for [`Span`]: the single `ENABLED` flag dead-codes
/// every timing call when false, exactly like `NullProbe` does for
/// event probes.
pub trait Clock {
    /// Whether spans under this clock measure anything at all.
    const ENABLED: bool;
    /// Nanoseconds since an arbitrary process-local epoch.
    fn now_nanos() -> u64;
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The real monotonic clock (process-local epoch, `Instant`-backed).
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    const ENABLED: bool = true;
    fn now_nanos() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }
}

/// The disabled clock: spans compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullClock;

impl Clock for NullClock {
    const ENABLED: bool = false;
    fn now_nanos() -> u64 {
        0
    }
}

/// An RAII timing guard: records the elapsed wall time (seconds) into a
/// histogram when dropped. Under [`NullClock`] both the construction
/// and the drop are empty after monomorphization — the guard is a ZST
/// plus a never-read reference.
pub struct Span<'a, C: Clock = MonotonicClock> {
    hist: &'a AtomicHistogram,
    start_nanos: u64,
    _clock: PhantomData<C>,
}

impl<'a, C: Clock> Span<'a, C> {
    /// Start timing into `hist`.
    pub fn start(hist: &'a AtomicHistogram) -> Span<'a, C> {
        Span {
            hist,
            start_nanos: if C::ENABLED { C::now_nanos() } else { 0 },
            _clock: PhantomData,
        }
    }
}

impl<C: Clock> Drop for Span<'_, C> {
    fn drop(&mut self) {
        if C::ENABLED {
            let elapsed = C::now_nanos().saturating_sub(self.start_nanos);
            self.hist.record(elapsed as f64 * 1e-9);
        }
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<AtomicHistogram>),
}

struct MetricEntry {
    name: &'static str,
    help: &'static str,
    labels: Labels,
    instrument: Instrument,
}

type RefreshHook = Box<dyn Fn() + Send + Sync>;

/// The process-global metric registry: named counters, gauges and
/// histograms plus pre-scrape refresh hooks for derived gauges (e.g.
/// worker utilization, computed from busy-time at scrape time).
///
/// Registration deduplicates on `(name, labels)` and returns a handle
/// to the existing instrument, so components that are constructed
/// repeatedly in one process (daemons in tests) share one series
/// instead of shadowing each other.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<MetricEntry>>,
    refresh_hooks: Mutex<Vec<(&'static str, RefreshHook)>>,
}

/// The process-global registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

impl MetricsRegistry {
    /// A fresh private registry (tests; production uses [`global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn instrument<T: Clone>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        get: impl Fn(&Instrument) -> Option<T>,
        make: impl FnOnce() -> (T, Instrument),
    ) -> T {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        for m in metrics.iter() {
            if m.name == name && m.labels == labels {
                return get(&m.instrument).unwrap_or_else(|| {
                    panic!("metric {name} re-registered as a different instrument kind")
                });
            }
        }
        let (handle, instrument) = make();
        metrics.push(MetricEntry {
            name,
            help,
            labels,
            instrument,
        });
        handle
    }

    /// Register (or re-attach to) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: Labels) -> Counter {
        self.instrument(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Instrument::Counter(c))
            },
        )
    }

    /// Register (or re-attach to) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: Labels) -> Gauge {
        self.instrument(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Instrument::Gauge(g))
            },
        )
    }

    /// Register (or re-attach to) a latency histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
    ) -> Arc<AtomicHistogram> {
        self.instrument(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(AtomicHistogram::new());
                (Arc::clone(&h), Instrument::Histogram(h))
            },
        )
    }

    /// Install a pre-scrape hook under a stable name (re-registering
    /// the same name replaces the previous hook — components restarted
    /// within one process don't stack stale closures).
    pub fn register_refresh(&self, name: &'static str, hook: impl Fn() + Send + Sync + 'static) {
        let mut hooks = self.refresh_hooks.lock().expect("registry poisoned");
        if let Some(slot) = hooks.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = Box::new(hook);
        } else {
            hooks.push((name, Box::new(hook)));
        }
    }

    /// Run every refresh hook (derived gauges recompute themselves).
    pub fn refresh(&self) {
        for (_, hook) in self.refresh_hooks.lock().expect("registry poisoned").iter() {
            hook();
        }
    }

    /// Render every metric in Prometheus text exposition format:
    /// `# HELP`/`# TYPE` once per family, series sorted by
    /// `(name, labels)`, histograms as cumulative `_bucket{le=…}` plus
    /// `_sum`/`_count`. Runs the refresh hooks first.
    pub fn render_prometheus(&self) -> String {
        self.refresh();
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut order: Vec<usize> = (0..metrics.len()).collect();
        order.sort_by_key(|&i| (metrics[i].name, metrics[i].labels));
        let mut out = String::new();
        let mut last_family = "";
        for i in order {
            let m = &metrics[i];
            if m.name != last_family {
                let kind = match m.instrument {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
                out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
                last_family = m.name;
            }
            match &m.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        label_block(m.labels, None),
                        c.get()
                    ));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        label_block(m.labels, None),
                        fmt_f64(g.get())
                    ));
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    // Underflow samples (≤ 0) are below every positive
                    // bound, so they join the cumulative count from the
                    // first rendered bucket onward.
                    let mut cum = snap.underflow;
                    for &(_, hi, n) in &snap.buckets {
                        cum += n;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            m.name,
                            label_block(m.labels, Some(&fmt_f64(hi))),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        label_block(m.labels, Some("+Inf")),
                        snap.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        label_block(m.labels, None),
                        fmt_f64(snap.sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        label_block(m.labels, None),
                        snap.count
                    ));
                }
            }
        }
        out
    }

    /// Render one JSONL snapshot line: fixed field order
    /// (`ts_unix_millis`, then `counters`, `gauges`, `histograms`, each
    /// sorted by series name). With `mask_time` the timestamp renders
    /// as 0 and gauges derived from wall time are whatever the hooks
    /// last set — tests mask by comparing structure, not clocks.
    /// Runs the refresh hooks first.
    pub fn render_jsonl(&self, unix_millis: u64, mask_time: bool) -> String {
        self.refresh();
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut order: Vec<usize> = (0..metrics.len()).collect();
        order.sort_by_key(|&i| (metrics[i].name, metrics[i].labels));
        let (mut counters, mut gauges, mut hists) = (String::new(), String::new(), String::new());
        for i in order {
            let m = &metrics[i];
            let series = series_name(m.name, m.labels);
            match &m.instrument {
                Instrument::Counter(c) => {
                    push_member(&mut counters, &series, &c.get().to_string());
                }
                Instrument::Gauge(g) => {
                    push_member(&mut gauges, &series, &fmt_f64(g.get()));
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let q = |q: f64| fmt_f64(snap.quantile(q).unwrap_or(0.0));
                    push_member(
                        &mut hists,
                        &series,
                        &format!(
                            "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                            snap.count,
                            fmt_f64(snap.sum),
                            fmt_f64(snap.mean()),
                            q(0.5),
                            q(0.9),
                            q(0.99),
                        ),
                    );
                }
            }
        }
        format!(
            "{{\"ts_unix_millis\":{},\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
             \"histograms\":{{{hists}}}}}",
            if mask_time { 0 } else { unix_millis },
        )
    }
}

fn push_member(out: &mut String, key: &str, value: &str) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
}

/// `name{k=v}`-style series name for JSONL keys (bare name when
/// unlabeled). Label values are unquoted — the key sits inside a JSON
/// string, where Prometheus-style `k="v"` quoting would need escaping;
/// static label values never contain `"`, `{`, `}` or `,` anyway.
fn series_name(name: &str, labels: Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

fn label_block(labels: Labels, le: Option<&str>) -> String {
    let mut body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        body.push(format!("le=\"{le}\""));
    }
    if body.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", body.join(","))
    }
}

/// Deterministic float rendering: integers without a trailing `.0`
/// (Prometheus-friendly), everything else via Rust's shortest
/// round-trip formatting.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_match_stats_scheme() {
        let h = AtomicHistogram::new();
        for v in [1e-6, 3e-3, 0.5, 0.5, 120.0] {
            h.record(v);
        }
        h.record(0.0); // underflow
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.underflow, 1);
        assert_eq!(snap.buckets.iter().map(|b| b.2).sum::<u64>(), 5);
        for &(lo, hi, _) in &snap.buckets {
            // Bucket bounds are exactly the stats-module bounds.
            let (slo, shi) = bucket_bounds(bucket_index((lo + hi) / 2.0));
            assert_eq!((lo, hi), (slo, shi));
        }
        // 0.5 appears twice in one bucket.
        assert!(snap.buckets.iter().any(|b| b.2 == 2));
        assert!((snap.sum - (1e-6 + 3e-3 + 0.5 + 0.5 + 120.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h = AtomicHistogram::new();
        h.record(1e-12); // below range → lowest bucket
        h.record(1e9); // above range → highest bucket
        let snap = h.snapshot();
        assert_eq!(snap.underflow, 0);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets.first().unwrap().2, 1);
        assert_eq!(snap.buckets.last().unwrap().2, 1);
        let (lo, _, _) = snap.buckets[0];
        assert!((lo - 2f64.powi(HIST_MIN_EXP as i32)).abs() < 1e-12);
    }

    #[test]
    fn snapshot_quantiles_are_nearest_rank_midpoints() {
        let h = AtomicHistogram::new();
        for _ in 0..99 {
            h.record(0.010);
        }
        h.record(10.0);
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!((0.009..0.012).contains(&p50), "p50 {p50}");
        let p100 = snap.quantile(1.0).unwrap();
        assert!((9.0..12.0).contains(&p100), "p100 {p100}");
        assert!(AtomicHistogram::new().snapshot().quantile(0.5).is_none());
    }

    #[test]
    fn registry_dedups_and_renders_deterministically() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test_jobs_total", "jobs", &[("outcome", "ok")]);
        let b = reg.counter("test_jobs_total", "jobs", &[("outcome", "ok")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) shares one atomic");
        reg.counter("test_jobs_total", "jobs", &[("outcome", "err")])
            .add(3);
        reg.gauge("test_depth", "queue depth", &[]).set(4.0);
        let h = reg.histogram("test_wait_seconds", "wait", &[]);
        h.record(0.001);
        h.record(0.1);
        let text = reg.render_prometheus();
        assert_eq!(text, reg.render_prometheus(), "rendering is deterministic");
        assert!(text.contains("# TYPE test_jobs_total counter"));
        assert!(text.contains("test_jobs_total{outcome=\"err\"} 3"));
        assert!(text.contains("test_jobs_total{outcome=\"ok\"} 2"));
        assert!(text.contains("# TYPE test_depth gauge"));
        assert!(text.contains("test_depth 4"));
        assert!(text.contains("# TYPE test_wait_seconds histogram"));
        assert!(text.contains("test_wait_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_wait_seconds_count 2"));
        // Cumulative bucket counts are nondecreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "bucket counts must be cumulative: {line}");
            last = n;
        }
    }

    #[test]
    fn registry_panics_on_kind_conflict() {
        let reg = MetricsRegistry::new();
        reg.counter("test_conflict", "x", &[]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("test_conflict", "x", &[]);
        }));
        assert!(err.is_err());
    }

    #[test]
    fn jsonl_snapshot_is_stable_and_maskable() {
        let reg = MetricsRegistry::new();
        reg.counter("test_c_total", "c", &[]).add(7);
        reg.counter("test_c_total", "c", &[("kind", "labeled")])
            .add(3);
        reg.gauge("test_g", "g", &[]).set(1.25);
        reg.histogram("test_h_seconds", "h", &[]).record(0.5);
        let line = reg.render_jsonl(123_456, true);
        assert!(line.starts_with("{\"ts_unix_millis\":0,"), "{line}");
        assert_eq!(line, reg.render_jsonl(999, true), "masked lines compare");
        let live = reg.render_jsonl(123_456, false);
        assert!(live.contains("\"ts_unix_millis\":123456"));
        assert!(live.contains("\"test_c_total\":7"));
        // Labeled series keys stay quote-free so the line is valid JSON.
        assert!(live.contains("\"test_c_total{kind=labeled}\":3"), "{live}");
        assert!(
            !live.contains("=\\\"") && !live.contains("{kind=\""),
            "{live}"
        );
        assert!(live.contains("\"test_g\":1.25"));
        assert!(live.contains("\"test_h_seconds\":{\"count\":1"));
    }

    #[test]
    fn refresh_hooks_replace_by_name() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("test_refresh_g", "derived", &[]);
        let g1 = g.clone();
        reg.register_refresh("test_hook", move || g1.set(1.0));
        let g2 = g.clone();
        reg.register_refresh("test_hook", move || g2.set(2.0));
        reg.refresh();
        assert_eq!(g.get(), 2.0, "second registration replaced the first");
    }

    #[test]
    fn spans_record_under_monotonic_and_not_under_null() {
        let h = AtomicHistogram::new();
        {
            let _s = Span::<MonotonicClock>::start(&h);
        }
        assert_eq!(h.snapshot().count, 1);
        {
            let _s = Span::<NullClock>::start(&h);
        }
        assert_eq!(h.snapshot().count, 1, "NullClock spans record nothing");
    }
}
