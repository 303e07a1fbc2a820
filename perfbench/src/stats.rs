//! Order statistics, the result digest, and per-run seed derivation.

use dtn_epidemic::RunMetrics;
use dtn_experiments::jobs::{outcome_to_json, RunOutcome};
use dtn_sim::SimRng;

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over everything folded in. `RunMetrics` enter through their
/// wire rendering, which carries every field with floats as IEEE-754 bit
/// patterns, so two digests agree only if every metric agrees bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one replication's metrics.
    pub fn metrics(&mut self, m: &RunMetrics) {
        self.bytes(outcome_to_json(&RunOutcome::Ok(*m)).as_bytes());
        self.bytes(b"\n");
    }
}

/// The base seed of iteration `i` of a run seeded with `seed`: the
/// workload's whole input is a function of these.
pub fn iteration_seeds(seed: u64, iterations: usize) -> Vec<u64> {
    let root = SimRng::new(seed ^ 0xB3_4C11_0000);
    (0..iterations as u64)
        .map(|i| root.derive(i).next_u64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn iteration_seeds_are_a_function_of_the_seed() {
        assert_eq!(iteration_seeds(7, 5), iteration_seeds(7, 5));
        assert_ne!(iteration_seeds(7, 5), iteration_seeds(8, 5));
        assert_eq!(iteration_seeds(7, 5)[..3], iteration_seeds(7, 3)[..]);
    }
}
