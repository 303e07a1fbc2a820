//! Deterministic fault injection: link interruption, node churn, bursty
//! loss, and control-plane (ack) loss.
//!
//! The paper evaluates every protocol under loss-free links and always-on
//! nodes, yet its headline mechanisms — anti-packets, immunity tables, EC
//! eviction, dynamic TTL — differ most in exactly *how they degrade* when
//! contacts truncate, acks get lost, or nodes reboot. This module is the
//! repo's failure model:
//!
//! * [`FaultPlan`] is pure configuration: which faults are active and at
//!   what rates. The default plan is all-zero and injects nothing.
//! * [`FaultInjector`] is the per-replication sampling state. Every fault
//!   concern draws from its **own** [`SimRng`] sub-stream, derived
//!   (non-mutatingly) from the replication's protocol RNG, so
//!   - a faulted run is bit-reproducible for a fixed seed, and
//!   - faults never perturb the mobility or protocol draw sequences: a
//!     zero-rate plan performs *zero* RNG draws and leaves every other
//!     stream untouched, which is what keeps the golden-equivalence
//!     fixtures bit-identical with fault hooks compiled in.
//!
//! The four fault classes:
//!
//! 1. **Contact truncation** (`truncation_prob`) — with probability p a
//!    session's transfer capacity is cut to a uniformly drawn prefix,
//!    modeling link drop mid-exchange: summary vectors and immunity
//!    tables were exchanged, but only the first k transfer slots happen.
//! 2. **Node churn** ([`ChurnPlan`]) — per-node alternating exponential
//!    up/down dwell times. While down, a node misses its contacts
//!    entirely. On restart, [`ChurnMode::Crash`] wipes volatile state
//!    (relay buffer + immunity table + encounter-interval estimate);
//!    [`ChurnMode::DutyCycle`] preserves everything (sleep, not crash).
//! 3. **Bursty loss** ([`GilbertElliott`]) — the classic two-state
//!    Gilbert–Elliott channel generalizing the i.i.d.
//!    `transfer_loss_prob`: each transmission is lost with the current
//!    state's loss probability, then the state flips with its transition
//!    probability. The channel steps once per transmission regardless of
//!    the i.i.d. outcome, so its state sequence is schedule-independent.
//! 4. **Control-plane loss** (`ack_loss_prob`) — each shared immunity
//!    table is lost independently per direction of an exchange,
//!    separating data-loss from ack-loss sensitivity for the immunity
//!    and P–Q protocols.

use dtn_sim::{SimRng, SimTime};

/// What happens to a churned node's state when it comes back up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnMode {
    /// Cold restart: the relay buffer, the immunity table and the
    /// encounter-interval estimate are volatile and wiped. The origin
    /// store (the application's persistent send queue) and
    /// destination-side delivery trackers survive.
    Crash,
    /// Radio sleep: all state is preserved; the node merely missed its
    /// contacts while down.
    DutyCycle,
}

/// Per-node up/down churn: alternating exponential dwell times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnPlan {
    /// Mean up-time in seconds (exponential). Must be finite and > 0.
    pub mean_up_secs: f64,
    /// Mean down-time in seconds (exponential). Must be finite and > 0.
    pub mean_down_secs: f64,
    /// Restart semantics.
    pub mode: ChurnMode,
}

/// Two-state Gilbert–Elliott loss channel parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad (burst) state.
    pub loss_bad: f64,
    /// Per-transmission probability of a good → bad transition.
    pub p_good_to_bad: f64,
    /// Per-transmission probability of a bad → good transition.
    pub p_bad_to_good: f64,
}

/// Declarative fault configuration for one run. The default plan is
/// all-zero: no faults, no RNG draws, bit-identical behavior to a build
/// without fault hooks.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a contact session is truncated to a uniformly
    /// drawn prefix of its transfer slots.
    pub truncation_prob: f64,
    /// Probability that one direction of an immunity-table exchange is
    /// lost in flight (the sender still pays the signaling cost — in a
    /// DTN it cannot know the reception failed).
    pub ack_loss_prob: f64,
    /// Bursty data-plane loss; OR'd with the i.i.d.
    /// `transfer_loss_prob` of [`crate::session::SimConfig`].
    pub burst: Option<GilbertElliott>,
    /// Node up/down churn.
    pub churn: Option<ChurnPlan>,
}

impl FaultPlan {
    /// The no-fault plan (same as `FaultPlan::default()`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no fault class is configured at all. (A plan with a
    /// zero-rate channel attached is *behaviorally* a no-op too, but
    /// still constructs its RNG streams.)
    pub fn is_none(&self) -> bool {
        self.truncation_prob <= 0.0
            && self.ack_loss_prob <= 0.0
            && self.burst.is_none()
            && self.churn.is_none()
    }

    /// Check every rate for finiteness and range. Returns a description
    /// of the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        validate_probability("truncation_prob", self.truncation_prob)?;
        validate_probability("ack_loss_prob", self.ack_loss_prob)?;
        if let Some(ge) = &self.burst {
            validate_probability("burst.loss_good", ge.loss_good)?;
            validate_probability("burst.loss_bad", ge.loss_bad)?;
            validate_probability("burst.p_good_to_bad", ge.p_good_to_bad)?;
            validate_probability("burst.p_bad_to_good", ge.p_bad_to_good)?;
        }
        if let Some(churn) = &self.churn {
            for (name, v) in [
                ("churn.mean_up_secs", churn.mean_up_secs),
                ("churn.mean_down_secs", churn.mean_down_secs),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{name} must be finite and > 0, got {v}"));
                }
            }
        }
        Ok(())
    }
}

/// Validate that `v` is a finite probability in `[0, 1]`; the error names
/// the offending field. Used by [`FaultPlan::validate`] and by
/// [`SimConfig::validate`](crate::session::SimConfig::validate) — and by
/// the CLI, which wants the same clean message at arg-parse time instead
/// of silently sampling with NaN.
pub fn validate_probability(name: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(format!("{name} must be a probability in [0, 1], got {v}"))
    }
}

/// One scheduled node up/down flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnTransition {
    /// When the flip happens.
    pub at: SimTime,
    /// Dense node index.
    pub node: u16,
    /// The node's state *after* the flip.
    pub up: bool,
}

// Sub-stream salts for `SimRng::derive`. Multiples of 64 keep the
// derivation at a single long-jump; distinctness comes from the full
// 64-bit value mixed through splitmix64.
const TRUNC_SALT: u64 = 0xFA01_7000_0000_0000;
const LOSS_SALT: u64 = 0xFA01_7000_0000_0040;
const ACK_SALT: u64 = 0xFA01_7000_0000_0080;
const CHURN_SALT: u64 = 0xFA01_7000_0000_00C0;

/// Per-replication fault sampling state. Construct with
/// [`FaultInjector::for_run`] (or [`FaultInjector::disabled`] in tests);
/// the simulation driver owns it and the session layer samples it
/// through [`SessionCtx`](crate::session::SessionCtx).
///
/// Every hook takes an early return when its fault class is inactive, so
/// a disabled injector costs a predictable-branch comparison and zero
/// RNG draws — the property the golden-equivalence and probe-overhead
/// guards pin down.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    truncation_prob: f64,
    ack_loss_prob: f64,
    burst: Option<GilbertElliott>,
    /// Current Gilbert–Elliott channel state (true = bad/burst state).
    burst_bad: bool,
    mode: Option<ChurnMode>,
    /// Per-node liveness; empty when churn is off (every node up).
    up: Vec<bool>,
    /// Pre-generated churn flips, ready for the event queue.
    schedule: Vec<ChurnTransition>,
    trunc_rng: SimRng,
    loss_rng: SimRng,
    ack_rng: SimRng,
}

impl FaultInjector {
    /// An injector that injects nothing (for tests and fault-free runs).
    pub fn disabled() -> FaultInjector {
        FaultInjector {
            truncation_prob: 0.0,
            ack_loss_prob: 0.0,
            burst: None,
            burst_bad: false,
            mode: None,
            up: Vec::new(),
            schedule: Vec::new(),
            trunc_rng: SimRng::new(0),
            loss_rng: SimRng::new(0),
            ack_rng: SimRng::new(0),
        }
    }

    /// Build the injector for one replication. `rng` is the
    /// replication's protocol RNG: sub-streams are *derived* from it
    /// (derivation is non-mutating), so the protocol draw sequence is
    /// identical with and without a plan. A [`FaultPlan::is_none`] plan
    /// short-circuits to [`FaultInjector::disabled`] without touching
    /// the RNG at all.
    pub fn for_run(
        plan: &FaultPlan,
        node_count: usize,
        horizon: SimTime,
        rng: &SimRng,
    ) -> FaultInjector {
        if plan.is_none() {
            return FaultInjector::disabled();
        }
        let (mode, up, schedule) = match &plan.churn {
            None => (None, Vec::new(), Vec::new()),
            Some(churn) => {
                let mut crng = rng.derive(CHURN_SALT);
                let schedule = churn_schedule(churn, node_count, horizon, &mut crng);
                (Some(churn.mode), vec![true; node_count], schedule)
            }
        };
        FaultInjector {
            truncation_prob: plan.truncation_prob,
            ack_loss_prob: plan.ack_loss_prob,
            burst: plan.burst,
            burst_bad: false,
            mode,
            up,
            schedule,
            trunc_rng: rng.derive(TRUNC_SALT),
            loss_rng: rng.derive(LOSS_SALT),
            ack_rng: rng.derive(ACK_SALT),
        }
    }

    /// An injector whose only fault is the given churn schedule, for
    /// tests that need flips at exact times.
    #[cfg(test)]
    pub(crate) fn with_churn_schedule(
        mode: ChurnMode,
        node_count: usize,
        schedule: Vec<ChurnTransition>,
    ) -> FaultInjector {
        FaultInjector {
            mode: Some(mode),
            up: vec![true; node_count],
            schedule,
            ..FaultInjector::disabled()
        }
    }

    /// The pre-generated churn flips (empty without churn). The driver
    /// schedules these as events before the run starts.
    pub fn schedule(&self) -> &[ChurnTransition] {
        &self.schedule
    }

    /// Is the node currently up? Always true without churn.
    #[inline]
    pub fn is_up(&self, node: usize) -> bool {
        self.up.is_empty() || self.up[node]
    }

    /// Apply a churn flip.
    pub fn set_up(&mut self, node: usize, up: bool) {
        if let Some(slot) = self.up.get_mut(node) {
            *slot = up;
        }
    }

    /// Does a restart wipe volatile state (crash semantics)?
    pub fn wipes_on_restart(&self) -> bool {
        self.mode == Some(ChurnMode::Crash)
    }

    /// Sample contact truncation for a session with `capacity` transfer
    /// slots. Returns `Some(k)` with `k < capacity` when the session is
    /// cut to its first `k` slots, `None` when it runs in full.
    #[inline]
    pub fn truncate_slots(&mut self, capacity: u64) -> Option<u64> {
        if self.truncation_prob <= 0.0 || capacity == 0 {
            return None;
        }
        if self.trunc_rng.bernoulli(self.truncation_prob) {
            Some(self.trunc_rng.below(capacity))
        } else {
            None
        }
    }

    /// Sample the bursty channel for one transmission, stepping its
    /// state. Must be called exactly once per transmission (even when
    /// the i.i.d. loss already hit) so the state sequence is a pure
    /// function of the transmission index.
    #[inline]
    pub fn transfer_lost(&mut self) -> bool {
        let Some(ge) = &self.burst else {
            return false;
        };
        let (p_loss, p_flip) = if self.burst_bad {
            (ge.loss_bad, ge.p_bad_to_good)
        } else {
            (ge.loss_good, ge.p_good_to_bad)
        };
        let lost = self.loss_rng.bernoulli(p_loss);
        if self.loss_rng.bernoulli(p_flip) {
            self.burst_bad = !self.burst_bad;
        }
        lost
    }

    /// Sample control-plane loss for one direction of an immunity-table
    /// exchange.
    #[inline]
    pub fn ack_lost(&mut self) -> bool {
        self.ack_loss_prob > 0.0 && self.ack_rng.bernoulli(self.ack_loss_prob)
    }
}

/// Generate the alternating up/down flip schedule for every node. Nodes
/// start up; dwell times are exponential with the plan's means, drawn
/// node-by-node from the dedicated churn stream (deterministic order).
fn churn_schedule(
    churn: &ChurnPlan,
    node_count: usize,
    horizon: SimTime,
    rng: &mut SimRng,
) -> Vec<ChurnTransition> {
    let horizon_ms = horizon.as_millis();
    let mut schedule = Vec::new();
    for node in 0..node_count {
        let mut t_ms: u64 = 0;
        let mut up = true;
        loop {
            let mean = if up {
                churn.mean_up_secs
            } else {
                churn.mean_down_secs
            };
            // Millisecond granularity, minimum 1 ms so time always
            // advances; the f64 → u64 cast saturates on huge tails.
            let dwell_ms = (rng.exponential(mean) * 1000.0).ceil().max(1.0) as u64;
            if dwell_ms >= horizon_ms.saturating_sub(t_ms) {
                break;
            }
            t_ms += dwell_ms;
            up = !up;
            schedule.push(ChurnTransition {
                at: SimTime::from_millis(t_ms),
                node: node as u16,
                up,
            });
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xFEED)
    }

    #[test]
    fn default_plan_is_none_and_validates() {
        let plan = FaultPlan::default();
        assert!(plan.is_none());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            let plan = FaultPlan {
                truncation_prob: bad,
                ..FaultPlan::default()
            };
            let err = plan.validate().unwrap_err();
            assert!(err.contains("truncation_prob"), "{err}");
        }
        let plan = FaultPlan {
            burst: Some(GilbertElliott {
                loss_good: 0.1,
                loss_bad: f64::NAN,
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.1,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("loss_bad"));
        let plan = FaultPlan {
            churn: Some(ChurnPlan {
                mean_up_secs: 0.0,
                mean_down_secs: 100.0,
                mode: ChurnMode::Crash,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("mean_up_secs"));
    }

    #[test]
    fn disabled_injector_injects_nothing() {
        let mut inj = FaultInjector::disabled();
        assert!(inj.schedule().is_empty());
        assert!(inj.is_up(0) && inj.is_up(500));
        assert!(!inj.wipes_on_restart());
        assert_eq!(inj.truncate_slots(100), None);
        assert!(!inj.transfer_lost());
        assert!(!inj.ack_lost());
    }

    #[test]
    fn empty_plan_short_circuits_and_never_draws_the_base_rng() {
        let base = rng();
        let probe = base.clone();
        let inj = FaultInjector::for_run(&FaultPlan::none(), 16, SimTime::from_secs(1000), &base);
        assert!(inj.schedule().is_empty());
        // `derive` is non-mutating and an empty plan never even derives;
        // either way the base stream is untouched.
        let mut a = base;
        let mut b = probe;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_rate_channel_never_loses_or_draws_state_flips() {
        let plan = FaultPlan {
            burst: Some(GilbertElliott {
                loss_good: 0.0,
                loss_bad: 0.0,
                p_good_to_bad: 0.0,
                p_bad_to_good: 0.0,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::for_run(&plan, 4, SimTime::from_secs(1000), &rng());
        for _ in 0..1000 {
            assert!(!inj.transfer_lost());
        }
    }

    #[test]
    fn always_bad_channel_loses_everything() {
        let plan = FaultPlan {
            burst: Some(GilbertElliott {
                loss_good: 1.0,
                loss_bad: 1.0,
                p_good_to_bad: 0.5,
                p_bad_to_good: 0.5,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::for_run(&plan, 4, SimTime::from_secs(1000), &rng());
        for _ in 0..100 {
            assert!(inj.transfer_lost());
        }
    }

    #[test]
    fn bursty_channel_clusters_losses() {
        // Strongly sticky states with asymmetric loss: long loss-free
        // stretches punctuated by loss bursts.
        let plan = FaultPlan {
            burst: Some(GilbertElliott {
                loss_good: 0.0,
                loss_bad: 1.0,
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.2,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::for_run(&plan, 4, SimTime::from_secs(1000), &rng());
        let outcomes: Vec<bool> = (0..20_000).map(|_| inj.transfer_lost()).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        // Stationary bad-state share is 0.02/(0.02+0.2) ≈ 9%.
        assert!((1_000..4_000).contains(&losses), "losses = {losses}");
        // Burstiness: a loss is followed by another loss far more often
        // than the marginal rate would predict.
        let repeats = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let after_loss = repeats as f64 / losses as f64;
        assert!(after_loss > 0.5, "P(loss|loss) = {after_loss}");
    }

    #[test]
    fn truncation_draws_below_capacity() {
        let plan = FaultPlan {
            truncation_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::for_run(&plan, 4, SimTime::from_secs(1000), &rng());
        for _ in 0..200 {
            let k = inj.truncate_slots(7).expect("p = 1 always truncates");
            assert!(k < 7);
        }
        assert_eq!(inj.truncate_slots(0), None, "empty sessions can't be cut");
    }

    #[test]
    fn churn_schedule_alternates_and_stays_in_horizon() {
        let plan = FaultPlan {
            churn: Some(ChurnPlan {
                mean_up_secs: 50.0,
                mean_down_secs: 20.0,
                mode: ChurnMode::Crash,
            }),
            ..FaultPlan::default()
        };
        let horizon = SimTime::from_secs(10_000);
        let inj = FaultInjector::for_run(&plan, 3, horizon, &rng());
        assert!(!inj.schedule().is_empty());
        for node in 0u16..3 {
            let flips: Vec<_> = inj.schedule().iter().filter(|tr| tr.node == node).collect();
            let mut up = true;
            let mut last = SimTime::ZERO;
            for tr in flips {
                assert!(tr.at > last, "per-node flips are time-ordered");
                assert!(tr.at < horizon);
                assert_eq!(tr.up, !up, "flips alternate starting from up");
                up = tr.up;
                last = tr.at;
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan {
            truncation_prob: 0.5,
            churn: Some(ChurnPlan {
                mean_up_secs: 100.0,
                mean_down_secs: 40.0,
                mode: ChurnMode::DutyCycle,
            }),
            ..FaultPlan::default()
        };
        let build = || FaultInjector::for_run(&plan, 8, SimTime::from_secs(50_000), &rng());
        assert_eq!(build().schedule(), build().schedule());
        let mut a = build();
        let mut b = build();
        for _ in 0..100 {
            assert_eq!(a.truncate_slots(10), b.truncate_slots(10));
        }
    }

    #[test]
    fn liveness_tracking() {
        let plan = FaultPlan {
            churn: Some(ChurnPlan {
                mean_up_secs: 10.0,
                mean_down_secs: 10.0,
                mode: ChurnMode::Crash,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::for_run(&plan, 2, SimTime::from_secs(1000), &rng());
        assert!(inj.is_up(0));
        inj.set_up(0, false);
        assert!(!inj.is_up(0));
        assert!(inj.is_up(1));
        inj.set_up(0, true);
        assert!(inj.is_up(0));
        assert!(inj.wipes_on_restart());
    }

    #[test]
    fn probability_validator_messages() {
        assert!(validate_probability("x", 0.0).is_ok());
        assert!(validate_probability("x", 1.0).is_ok());
        let err = validate_probability("transfer_loss_prob", 2.0).unwrap_err();
        assert!(
            err.contains("transfer_loss_prob") && err.contains('2'),
            "{err}"
        );
    }
}
