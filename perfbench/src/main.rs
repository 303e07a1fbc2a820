//! perfbench — the repository's one benchmark: end-to-end metrics of the
//! simulator and its service, and per-layer attribution in traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/WORKLOADS.md` for why each exists and what
//! each layer metric should move):
//!
//! * `figure-grid` — every protocol × {trace, rwp} × loads 5..50 × ten
//!   replications, in process: engine-heavy;
//! * `cold-mobility` — pure epidemic over all five mobility generators
//!   with a fresh seed per iteration: trace-generation-heavy;
//! * `service-sweep` — robustness grids through HTTP gateway →
//!   coordinator → two worker daemons, cold and then served from cache.
//!
//! The work done is fixed by `--seed` and `--seconds` (a quota sized to
//! take 0.7–1.2 × `--seconds` on a 2-core host). Standard output carries one
//! host-fingerprint line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. A traced run also
//! repeats the untraced run in the same process to check that both
//! produce identical results and to report the tracing overhead, and it
//! writes its spans as JSON lines under the Cargo target directory. The
//! exit code is 0 only when every correctness check passed.

mod grid;
mod host;
mod layers;
mod metrics;
mod service;
mod spans;
mod stats;

use metrics::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <figure-grid|cold-mobility|service-sweep> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// A run that outlives this is stopped with a non-zero exit, so a hung
/// service can never hold the caller past its deadline.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// What one invocation was asked to do.
pub struct RunCtx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Sizes the quota of work.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Process start, as seen by `main`.
    pub started: Instant,
    /// Where a traced run writes its spans.
    pub spans_path: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, RunCtx), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let ctx = RunCtx {
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: trace.ok_or("missing --trace")?,
        started: Instant::now(),
        spans_path: target
            .join("perfbench-spans")
            .join(format!("{workload}-seed{seed}.jsonl")),
    };
    Ok((workload, ctx))
}

fn main() {
    let started = Instant::now();
    let (workload, mut ctx) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    ctx.started = started;
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    println!(
        "{}",
        host::fingerprint_json(&workload, ctx.seed, host::calibration_ns_per_op())
    );
    let mut outcome = Outcome::default();
    match workload.as_str() {
        "figure-grid" => grid::run(&grid::figure_grid(), &ctx, &mut outcome),
        "cold-mobility" => grid::run(&grid::cold_mobility(), &ctx, &mut outcome),
        "service-sweep" => service::run(&ctx, &mut outcome),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{}", outcome.result_json(ctx.traced));
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
