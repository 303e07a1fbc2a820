//! Scenario construction: which mobility feeds which experiment.
//!
//! The paper evaluates every protocol under two main mobility sources —
//! the Cambridge Haggle trace (here: its synthetic stand-in, plus optional
//! replay of a real trace file) and the subscriber-point RWP model — and
//! two purpose-built controlled-interval scenarios for the TTL
//! sensitivity study (Fig. 14).
//!
//! Seeding convention:
//!
//! * the **trace** scenario is a recorded dataset, so it is *fixed* across
//!   replications (seeded only by the scenario seed) — replications vary
//!   the source/destination pair and protocol coin flips, exactly like
//!   the paper's "we change the source and destination node after each
//!   run";
//! * **RWP** and **interval** scenarios are stochastic mobility, so each
//!   replication gets a freshly generated trace (seeded by scenario seed
//!   ⊕ replication index).

use dtn_mobility::{
    ContactTrace, HaggleParams, IntervalScenario, LazyTrace, RwpParams, SubscriberParams,
    TraceCache, TraceKey,
};
use dtn_sim::SimRng;
use std::sync::Arc;

/// The mobility source of an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mobility {
    /// Haggle-like contact trace (the paper's "trace file" scenario).
    Trace,
    /// The paper's subscriber-point RWP model.
    Rwp,
    /// Controlled-interval scenario with the given maximum
    /// inter-encounter gap in seconds (Fig. 14: 400 or 2000).
    Interval(u64),
    /// Classic geometric RWP with analytic range-crossing contacts — the
    /// model the paper *avoids* because of its known pathologies
    /// (reference \[19\]); included so the avoidance can be studied rather
    /// than taken on faith (see `repro mobility`).
    GeometricRwp,
}

impl Mobility {
    /// Per-bundle transmission time for this scenario.
    ///
    /// The trace and RWP experiments use the paper's fixed 100 s per
    /// bundle (the worked example sends ⌊314 s / 100 s⌋ = 3 bundles;
    /// RWP contacts are capped at 500 s, i.e. at most 5 bundles — the
    /// scarcity that makes the buffer-management policies differ at all).
    /// The controlled-interval scenarios use 10 s: their contacts are
    /// deliberately short and frequent, and the paper's Fig. 14/15 levels
    /// imply multiple bundles per encounter there.
    pub fn tx_time_secs(&self) -> u64 {
        match self {
            Mobility::Trace | Mobility::Rwp | Mobility::GeometricRwp => 100,
            Mobility::Interval(_) => 10,
        }
    }

    /// Short machine-readable label for CSV columns.
    pub fn label(&self) -> String {
        match self {
            Mobility::Trace => "trace".into(),
            Mobility::Rwp => "rwp".into(),
            Mobility::Interval(max) => format!("interval{max}"),
            Mobility::GeometricRwp => "geom-rwp".into(),
        }
    }

    /// Canonical *parseable* spec string: like [`Mobility::label`] but
    /// using the CLI's `interval=SECS` form, so
    /// `Mobility::parse(&m.spec()) == Ok(m)` for every scenario. The
    /// service layer ships mobility over the wire as this string.
    pub fn spec(&self) -> String {
        match self {
            Mobility::Interval(max) => format!("interval={max}"),
            other => other.label(),
        }
    }

    /// Parse a built-in mobility spec (`trace`, `rwp`, `geom-rwp`,
    /// `interval=SECS`) — the single canonical table shared by the CLI
    /// and the service layer. Trace-file paths are *not* accepted here;
    /// callers wanting file replay layer that on top.
    pub fn parse(spec: &str) -> Result<Mobility, String> {
        match spec {
            "trace" => Ok(Mobility::Trace),
            "rwp" => Ok(Mobility::Rwp),
            "geom-rwp" => Ok(Mobility::GeometricRwp),
            other => match other.strip_prefix("interval=") {
                Some(max) => max
                    .parse::<u64>()
                    .map(Mobility::Interval)
                    .map_err(|e| format!("bad interval {max:?}: {e}")),
                None => Err(format!(
                    "unknown mobility {other:?} (trace, rwp, geom-rwp, interval=SECS)"
                )),
            },
        }
    }

    /// Scenario discriminant for [`TraceKey`]: packs the mobility kind
    /// and its parameters so distinct scenarios never share a cache slot.
    pub fn cache_key(&self) -> u64 {
        match self {
            Mobility::Trace => 1,
            Mobility::Rwp => 2,
            // Golden-ratio mix keeps any two max-gap values apart from
            // the plain discriminants above.
            Mobility::Interval(max) => 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(*max),
            Mobility::GeometricRwp => 4,
        }
    }

    /// The replication index that actually varies the generated trace:
    /// the trace scenario is a fixed dataset (see [`Mobility::build`]),
    /// so all its replications collapse onto one cache entry.
    fn effective_replication(&self, replication: u64) -> u64 {
        match self {
            Mobility::Trace => 0,
            _ => replication,
        }
    }

    /// The trace of one replication through a shared [`TraceCache`]: one
    /// entry per distinct (scenario, seed, replication), generated as far
    /// as its readers have read.
    pub fn lazy_cached(
        &self,
        scenario_seed: u64,
        replication: u64,
        cache: &TraceCache,
    ) -> Arc<LazyTrace> {
        let key = TraceKey {
            scenario: self.cache_key(),
            seed: scenario_seed,
            replication: self.effective_replication(replication),
        };
        cache.get_or_start(key, || self.lazy(scenario_seed, replication))
    }

    /// The whole contact trace of one replication through a shared
    /// [`TraceCache`]: [`Mobility::lazy_cached`] generated to the horizon,
    /// collected at most once per cache entry.
    pub fn build_cached(
        &self,
        scenario_seed: u64,
        replication: u64,
        cache: &TraceCache,
    ) -> Arc<ContactTrace> {
        self.lazy_cached(scenario_seed, replication, cache)
            .to_trace()
    }

    /// The trace of one replication, generated as it is read. Both RWP
    /// models generate by time window; the trace and interval generators
    /// are cheap and generate whole.
    pub fn lazy(&self, scenario_seed: u64, replication: u64) -> LazyTrace {
        let mut rng = SimRng::new(scenario_seed).derive(replication);
        match self {
            Mobility::Rwp => SubscriberParams::default().lazy(&mut rng),
            Mobility::GeometricRwp => geometric().lazy(&mut rng),
            Mobility::Trace | Mobility::Interval(_) => {
                LazyTrace::complete(Arc::new(self.build(scenario_seed, replication)))
            }
        }
    }

    /// Build the contact trace for one replication.
    pub fn build(&self, scenario_seed: u64, replication: u64) -> ContactTrace {
        match self {
            Mobility::Trace => {
                // Fixed dataset: ignore the replication index.
                HaggleParams::default().generate(&mut SimRng::new(scenario_seed))
            }
            Mobility::Rwp => {
                let mut rng = SimRng::new(scenario_seed).derive(replication);
                SubscriberParams::default().generate(&mut rng)
            }
            Mobility::Interval(max) => {
                let mut rng = SimRng::new(scenario_seed).derive(replication);
                IntervalScenario::with_max_interval(*max).generate(&mut rng)
            }
            Mobility::GeometricRwp => {
                let mut rng = SimRng::new(scenario_seed).derive(replication);
                geometric().generate(&mut rng)
            }
        }
    }
}

/// Same envelope as the subscriber-point scenario: 12 nodes, 1 km²,
/// 600 000 s — only the movement process differs.
fn geometric() -> RwpParams {
    RwpParams {
        horizon: dtn_sim::SimTime::from_secs(600_000),
        ..RwpParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_scenario_is_fixed_across_replications() {
        let a = Mobility::Trace.build(1, 0);
        let b = Mobility::Trace.build(1, 9);
        assert_eq!(a.contacts(), b.contacts());
        let c = Mobility::Trace.build(2, 0);
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn rwp_scenario_varies_per_replication_but_is_reproducible() {
        let a = Mobility::Rwp.build(1, 0);
        let b = Mobility::Rwp.build(1, 1);
        assert_ne!(a.contacts(), b.contacts());
        let a2 = Mobility::Rwp.build(1, 0);
        assert_eq!(a.contacts(), a2.contacts());
    }

    #[test]
    fn interval_scenarios_differ_by_max_gap() {
        let short = Mobility::Interval(400).build(1, 0);
        let long = Mobility::Interval(2000).build(1, 0);
        assert!(
            long.mean_intercontact_gap() > short.mean_intercontact_gap(),
            "longer max interval must stretch gaps"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(Mobility::Trace.label(), "trace");
        assert_eq!(Mobility::Rwp.label(), "rwp");
        assert_eq!(Mobility::Interval(400).label(), "interval400");
    }

    #[test]
    fn spec_round_trips_through_parse() {
        for m in [
            Mobility::Trace,
            Mobility::Rwp,
            Mobility::GeometricRwp,
            Mobility::Interval(400),
            Mobility::Interval(2000),
        ] {
            assert_eq!(Mobility::parse(&m.spec()), Ok(m));
        }
        assert!(
            Mobility::parse("interval2000").is_err(),
            "label form is not a spec"
        );
        assert!(Mobility::parse("warp").is_err());
    }

    #[test]
    fn paper_universe_sizes() {
        assert_eq!(Mobility::Trace.build(1, 0).node_count(), 12);
        assert_eq!(Mobility::Rwp.build(1, 0).node_count(), 12);
        assert_eq!(Mobility::Interval(400).build(1, 0).node_count(), 20);
    }
}
