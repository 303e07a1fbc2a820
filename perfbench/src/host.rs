//! Host fingerprint and the calibration kernel.
//!
//! Both are informational: they let a reader compare results taken on
//! different machines, and no verdict depends on them.

use crate::stats::median;
use dtn_sim::{EventQueue, SimRng, SimTime};
use std::time::Instant;

/// Events per calibration pass.
const KERNEL_EVENTS: u64 = 200_000;

/// Nanoseconds per operation (one schedule or one pop) of a fixed
/// `SimRng` + `EventQueue` kernel: random timestamps are scheduled, then
/// drained. Median of five passes.
pub fn calibration_ns_per_op() -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let mut rng = SimRng::new(0xCA11_B8A7);
            let started = Instant::now();
            let mut queue = EventQueue::with_capacity(KERNEL_EVENTS as usize);
            for i in 0..KERNEL_EVENTS {
                queue.schedule(SimTime::from_millis(rng.below(1 << 40)), i);
            }
            let mut checksum = 0u64;
            while let Some((t, e)) = queue.pop() {
                checksum = checksum.wrapping_add(t.as_millis() ^ e);
            }
            std::hint::black_box(checksum);
            started.elapsed().as_nanos() as f64 / (2 * KERNEL_EVENTS) as f64
        })
        .collect();
    median(&passes)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The revision checked out in the working directory, when it is a git
/// checkout; the benchmark looks nowhere else.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{}", r.trim()))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// One JSON line describing the host and the calibration result.
pub fn fingerprint_json(workload: &str, seed: u64, calibration: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"calibration_ns_per_op\": {calibration:.3}}}, \"workload\": \"{workload}\", \"seed\": {seed}}}",
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC").replace('"', "'"),
        git_rev(),
    )
}
