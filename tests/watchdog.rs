//! Watchdog-supervised sweep guarantees, end to end on the robustness
//! grid:
//!
//! 1. **Bounded retry** — a point whose replication panics N−1 times and
//!    then succeeds is retried on fresh salted RNG streams, completes,
//!    records its attempt count, and leaves every other grid point
//!    bit-identical to an unsupervised clean run.
//! 2. **Timeout isolation** — a replication that outlives the hard
//!    deadline is recorded as `TimedOut` (a failure) without poisoning
//!    sibling replications or sibling points.
//! 3. **Determinism** — the same supervised run, injected faults and
//!    all, reproduces itself bit for bit.
//! 4. **Resume** — checkpointed points are never re-simulated: a resume
//!    with a hook that panics on *any* invocation still reproduces the
//!    original report.

use std::sync::Arc;

use dtn_experiments::{
    run_robustness, InjectHook, Mobility, PointReport, Reporter, SweepConfig, Verbosity,
};
use dtn_sim::Threads;

/// The one mobility model all these tests share — small and fast.
const MOBILITY: Mobility = Mobility::Interval(2000);

fn cfg(retries: u32, point_timeout_secs: Option<u64>) -> SweepConfig {
    SweepConfig {
        loads: vec![5],
        replications: 2,
        threads: Threads::Sequential,
        retries,
        point_timeout_secs,
        ..SweepConfig::default()
    }
}

fn quiet() -> Reporter {
    Reporter::new(Verbosity::Quiet)
}

/// True when `point` is the grid point our hooks target.
fn is_target(point: &PointReport, cell: &str, protocol: &str) -> bool {
    point.protocol == protocol && point.mobility.ends_with(cell)
}

/// Assert two points carry bit-identical aggregates (the fault counters
/// and the f64 means compared by bit pattern, not approximate equality).
fn assert_point_identical(a: &PointReport, b: &PointReport, why: &str) {
    assert_eq!(a.protocol, b.protocol, "{why}");
    assert_eq!(a.mobility, b.mobility, "{why}");
    assert_eq!(a.load, b.load, "{why}");
    assert_eq!(a.runs, b.runs, "{why}: runs diverged");
    assert_eq!(a.failures, b.failures, "{why}: failures diverged");
    assert_eq!(a.panics, b.panics, "{why}: panics diverged");
    assert_eq!(a.timed_out, b.timed_out, "{why}: timeouts diverged");
    assert_eq!(a.retries, b.retries, "{why}: retries diverged");
    assert_eq!(
        a.delivery_ratio_mean.to_bits(),
        b.delivery_ratio_mean.to_bits(),
        "{why}: delivery diverged"
    );
    assert_eq!(
        a.buffer_occupancy_mean.to_bits(),
        b.buffer_occupancy_mean.to_bits(),
        "{why}: occupancy diverged"
    );
    assert_eq!(
        a.duplication_rate_mean.to_bits(),
        b.duplication_rate_mean.to_bits(),
        "{why}: duplication diverged"
    );
    assert_eq!(
        a.contacts_skipped, b.contacts_skipped,
        "{why}: skip counter diverged"
    );
    assert_eq!(
        a.churn_wipes, b.churn_wipes,
        "{why}: churn counter diverged"
    );
}

/// Acceptance criterion: a sweep with one injected per-point panic (twice
/// on the same replication, then success) completes end to end, reports
/// the retry count on that point, and is bit-identical everywhere else
/// to the clean, unsupervised run.
#[test]
fn panicking_point_is_retried_and_siblings_stay_bit_identical() {
    let clean = run_robustness(MOBILITY, &cfg(0, None), None, false, &quiet(), None).unwrap();
    let hook: InjectHook = Arc::new(|key, rep, attempt| {
        if key == "churn=none,loss=clean|Pure epidemic|5" && rep == 1 && attempt < 2 {
            panic!("injected panic on attempt {attempt}");
        }
    });
    let watched =
        run_robustness(MOBILITY, &cfg(2, None), None, false, &quiet(), Some(hook)).unwrap();

    assert_eq!(clean.points.len(), watched.points.len());
    let mut targets = 0;
    for (c, w) in clean.points.iter().zip(&watched.points) {
        if is_target(w, "churn=none,loss=clean", "Pure epidemic") {
            targets += 1;
            // Attempt 0 and 1 panicked, attempt 2 succeeded: the failed
            // replication cost two extra attempts, yet the point keeps
            // both replications and records no residual panic.
            assert_eq!(w.retries, 2, "retry count not recorded");
            assert_eq!(w.runs, 2, "the retried replication was lost");
            assert_eq!(w.panics, 0, "a successful retry still counted as a panic");
            assert_eq!(w.timed_out, 0);
        } else {
            assert_point_identical(c, w, "non-injected point perturbed by supervision");
        }
    }
    assert_eq!(targets, 1, "the injected point never ran");
    assert_eq!(watched.total_violations, 0);
}

/// If every attempt panics, the point exhausts its retry budget and the
/// replication is recorded as panicked (and failed) — with the full
/// attempt trail — while siblings survive untouched.
#[test]
fn exhausted_retries_record_the_panic() {
    let hook: InjectHook = Arc::new(|key, rep, _attempt| {
        if key == "churn=crash,loss=lossy|Pure epidemic|5" && rep == 0 {
            panic!("always fails");
        }
    });
    let watched =
        run_robustness(MOBILITY, &cfg(1, None), None, false, &quiet(), Some(hook)).unwrap();
    let point = watched
        .points
        .iter()
        .find(|p| is_target(p, "churn=crash,loss=lossy", "Pure epidemic"))
        .expect("target point missing");
    assert_eq!(point.panics, 1);
    assert_eq!(point.runs, 1, "the surviving replication was kept");
    assert!(point.failures >= 1, "the panic must count as a failure");
    // Attempts 0 and 1 both panicked: one retry beyond the first try.
    assert_eq!(point.retries, 1);
}

/// Acceptance criterion: an injected hang is cut off at the hard
/// deadline and recorded as `TimedOut` without poisoning the sibling
/// replication or any other grid point.
#[test]
fn hung_replication_times_out_without_poisoning_siblings() {
    let clean = run_robustness(MOBILITY, &cfg(0, None), None, false, &quiet(), None).unwrap();
    let hook: InjectHook = Arc::new(|key, rep, _attempt| {
        if key == "churn=none,loss=lossy|Pure epidemic|5" && rep == 0 {
            // Far past the 5 s hard deadline; the watchdog abandons the
            // thread and the test harness reaps it at process exit.
            std::thread::sleep(std::time::Duration::from_secs(120));
        }
    });
    let watched = run_robustness(
        MOBILITY,
        &cfg(0, Some(5)),
        None,
        false,
        &quiet(),
        Some(hook),
    )
    .unwrap();

    assert_eq!(clean.points.len(), watched.points.len());
    for (c, w) in clean.points.iter().zip(&watched.points) {
        if is_target(w, "churn=none,loss=lossy", "Pure epidemic") {
            assert_eq!(w.timed_out, 1, "the hang was not recorded as a timeout");
            assert_eq!(w.runs, 1, "the sibling replication was poisoned");
            assert!(w.failures >= 1, "a timeout must count as a failure");
            assert_eq!(w.panics, 0);
            assert_eq!(w.retries, 0, "timeouts must not be retried");
        } else {
            assert_point_identical(c, w, "non-hung point perturbed by the timeout");
        }
    }
}

/// Property 3: supervision (salted retries included) is deterministic —
/// running the identical injected sweep twice reproduces every point bit
/// for bit.
#[test]
fn supervised_sweep_is_deterministic() {
    let hook = || -> InjectHook {
        Arc::new(|key, rep, attempt| {
            if key == "churn=duty,loss=clean|Pure epidemic|5" && rep == 1 && attempt == 0 {
                panic!("first attempt always dies");
            }
        })
    };
    let once =
        run_robustness(MOBILITY, &cfg(3, None), None, false, &quiet(), Some(hook())).unwrap();
    let twice =
        run_robustness(MOBILITY, &cfg(3, None), None, false, &quiet(), Some(hook())).unwrap();
    assert_eq!(once.points.len(), twice.points.len());
    for (a, b) in once.points.iter().zip(&twice.points) {
        assert_point_identical(a, b, "supervised rerun diverged");
    }
}

/// Property 4: resuming from a complete checkpoint re-simulates nothing.
/// The resume runs under a hook that panics on any invocation; only a
/// point that skipped simulation entirely can stay panic-free, so the
/// reproduced report doubles as proof the checkpoint was authoritative.
#[test]
fn resume_skips_simulation_for_checkpointed_points() {
    let dir = std::env::temp_dir().join(format!("watchdog_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("grid.ckpt");
    let config = cfg(1, None);

    let fresh = run_robustness(MOBILITY, &config, Some(&ckpt), false, &quiet(), None).unwrap();
    let tripwire: InjectHook = Arc::new(|key, rep, _attempt| {
        panic!("resume re-simulated {key} rep {rep}");
    });
    let resumed = run_robustness(
        MOBILITY,
        &config,
        Some(&ckpt),
        true,
        &quiet(),
        Some(tripwire),
    )
    .unwrap();

    assert_eq!(fresh.points.len(), resumed.points.len());
    for (a, b) in fresh.points.iter().zip(&resumed.points) {
        assert_point_identical(a, b, "resumed report diverged from the fresh run");
        assert_eq!(b.panics, 0, "the tripwire fired: a point was re-simulated");
    }
    std::fs::remove_dir_all(&dir).ok();
}
