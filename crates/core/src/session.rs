//! The contact session: what happens when two nodes meet.
//!
//! Every protocol in the study shares one session procedure — that shared
//! procedure *is* the paper's unified framework. When a contact starts:
//!
//! 1. expired copies are purged (defensively — the engine's expiry events
//!    normally keep buffers clean between contacts);
//! 2. both nodes update their inter-encounter interval estimate (the input
//!    to dynamic TTL);
//! 3. if the protocol uses acknowledgments, the peers exchange immunity
//!    tables, merge them, purge covered copies, and the exchanged record
//!    counts are charged to the signaling-overhead meter;
//! 4. the peers exchange summary vectors (the anti-entropy step of Vahdat
//!    & Becker) to learn which bundles the other side lacks;
//! 5. bundles are transferred, bounded by the contact's capacity
//!    `⌊duration / tx_time⌋` (the paper fixes `tx_time` = 100 s; its worked
//!    example sends ⌊314 s / 100 s⌋ = 3 bundles). The lower-ID node sends
//!    first (the paper's collision-avoidance rule); the higher-ID node uses
//!    whatever capacity remains. Transfers take effect at session start but
//!    are *timestamped* `start + slot × tx_time` for the delay metric.
//!
//! Per-transfer mechanics implement each policy axis: P/Q coin flips on
//! the sender, EC increments shared by sender and receiver copies, fixed-
//! TTL renewal on the sender, dynamic-TTL assignment on the receiver, and
//! Algorithm 2's EC-triggered TTL on both sides.

use crate::buffer::{InsertOutcome, StoredBundle};
use crate::bundle::{BundleId, Workload};
use crate::faults::{validate_probability, FaultInjector, FaultPlan};
use crate::metrics::{DropReason, MetricsCollector};
use crate::node::{CopyPlace, Node};
use crate::policy::{AckScheme, LifetimePolicy, ProtocolConfig, SummaryPolicy};
use crate::probe::{Event, NullProbe, Probe};
use crate::summary::{BloomTable, SummaryVector};
use dtn_mobility::Contact;
use dtn_sim::{SimRng, SimTime};

/// Simulation-wide configuration shared by every session.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Relay-buffer capacity in bundles (paper: 10).
    pub buffer_capacity: usize,
    /// Time to transmit one bundle (paper: 100 s — bundles are large).
    pub tx_time: dtn_sim::SimDuration,
    /// Buffer-slot cost of storing one immunity record. Bundles are huge
    /// (100 s of link time each) and immunity records small, but not
    /// free: the paper attributes the immunity protocols' occupancy
    /// differences to "immunity tables stored in each node".
    pub ack_slot_cost: f64,
    /// Probability that an individual bundle transfer is lost in flight
    /// (failure injection; the paper assumes loss-free links, so the
    /// default is 0). A lost transfer consumes its slot and updates the
    /// sender exactly like a successful one — in a DTN the sender cannot
    /// know the reception failed — but the receiver stores nothing.
    pub transfer_loss_prob: f64,
    /// Payload size of one bundle in bytes, for the byte-level overhead
    /// accounting (the paper's bundles are "several hundreds of Megabytes
    /// to Terabytes"; 10 MB at 100 s/bundle models a ~0.8 Mbit/s radio).
    pub bundle_bytes: u64,
    /// Wire size of one immunity record ("anti-packets … are usually
    /// small in size", §II-B).
    pub ack_record_bytes: u64,
    /// Fault injection (truncation, churn, bursty loss, ack loss). The
    /// default plan is all-zero: no faults, no RNG draws, bit-identical
    /// results to the pre-fault simulator.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// The paper's experiment defaults around the given protocol.
    pub fn paper_defaults(protocol: ProtocolConfig) -> SimConfig {
        SimConfig {
            protocol,
            buffer_capacity: 10,
            tx_time: dtn_sim::SimDuration::from_secs(100),
            ack_slot_cost: 0.1,
            transfer_loss_prob: 0.0,
            bundle_bytes: 10_000_000,
            ack_record_bytes: 16,
            faults: FaultPlan::default(),
        }
    }

    /// Validate every probability knob (finite, in `[0, 1]`), every
    /// timing knob (finite, positive), and the buffer geometry, so a
    /// typo'd or NaN rate fails loudly instead of silently skewing the
    /// sampler or panicking deep in the hot path (a zero `tx_time` would
    /// turn the per-contact slot division into `u64::MAX` slots; a zero
    /// capacity would trip the buffer constructor's assert mid-run). The
    /// simulation driver calls this before every run; the CLI calls it
    /// at arg-parse time for a clean error message.
    pub fn validate(&self) -> Result<(), String> {
        validate_probability("transfer_loss_prob", self.transfer_loss_prob)?;
        if self.tx_time.is_zero() {
            return Err(
                "tx_time must be positive and finite, got a zero or non-finite duration"
                    .to_string(),
            );
        }
        if !self.ack_slot_cost.is_finite() || self.ack_slot_cost < 0.0 {
            return Err(format!(
                "ack_slot_cost must be finite and non-negative, got {}",
                self.ack_slot_cost
            ));
        }
        if self.buffer_capacity == 0 {
            return Err("buffer_capacity must be at least 1 bundle, got 0".to_string());
        }
        self.faults.validate()
    }
}

/// Reusable scratch space for the session hot path.
///
/// One instance lives in the simulation engine and is threaded through
/// every contact, so the per-contact summary vector and candidate/purge
/// lists reuse the same allocations for the whole run instead of being
/// rebuilt thousands of times. All fields are implementation detail: a
/// session treats them as uninitialized on entry and leaves them in an
/// unspecified state.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// The receiver's true membership for one transfer phase (always
    /// exact; under a Bloom summary policy this is the engine-side ground
    /// truth that false positives are detected against).
    rx_summary: SummaryVector,
    /// Every bundle's Bloom bit positions, built by the run's first
    /// contact under a [`SummaryPolicy::Bloom`] policy (unused under
    /// [`SummaryPolicy::Exact`]).
    bloom: BloomTable,
    /// The words of the receiver's advertised Bloom digest.
    digest: Vec<u64>,
    /// Transfer candidates destined to the receiver.
    dest: Vec<BundleId>,
    /// Transfer candidates bound for another relay hop.
    relay: Vec<BundleId>,
    /// Ids collected by the expiry/immunity purges.
    purged: Vec<BundleId>,
    /// Dense bundle-index → id table (the SoA candidate split reads ids
    /// off this instead of re-deriving them per record). Empty unless
    /// [`SessionScratch::prepare`] ran — sessions fall back to the record
    /// walk then.
    ids: Vec<BundleId>,
    /// Per-node destination masks over the dense bundle indexing:
    /// `dest_masks[n]` holds exactly the bundles whose flow terminates at
    /// node `n`, so the dest/relay candidate split is a word-wise AND.
    dest_masks: Vec<SummaryVector>,
}

impl SessionScratch {
    /// Precompute the run-lived lookup tables that let the candidate
    /// split iterate 64-bundle words instead of records: the dense
    /// index → id table and one destination mask per node. The engine
    /// calls this once per run; sessions on an unprepared scratch use the
    /// record-walk path with identical results.
    pub fn prepare(&mut self, workload: &Workload, node_count: usize) {
        self.ids.clear();
        self.ids.extend(workload.bundle_ids());
        let total = workload.total_bundles();
        self.dest_masks.clear();
        self.dest_masks
            .resize_with(node_count, SummaryVector::default);
        for mask in &mut self.dest_masks {
            mask.reset(total);
        }
        for flow in workload.flows() {
            let dst = flow.dst.index();
            for seq in 0..flow.count {
                let idx = workload.bundle_index(BundleId { flow: flow.id, seq });
                self.dest_masks[dst].insert(idx);
            }
        }
    }
}

/// Mutable context threaded through a session.
///
/// The probe parameter is *monomorphized* (never `dyn`): with the default
/// [`NullProbe`] every `emit` site is an `if false` the optimizer deletes,
/// so the un-instrumented hot path is bit-identical to the pre-probe code.
pub struct SessionCtx<'a, P: Probe = NullProbe> {
    /// Global configuration.
    pub config: &'a SimConfig,
    /// The workload (for flow lookups: who is a bundle's source and
    /// destination).
    pub workload: &'a Workload,
    /// Metrics sink.
    pub metrics: &'a mut MetricsCollector,
    /// Randomness (P–Q coin flips).
    pub rng: &'a mut SimRng,
    /// Run-lived scratch allocations.
    pub scratch: &'a mut SessionScratch,
    /// Event observer (see [`crate::probe`]).
    pub probe: &'a mut P,
    /// Fault sampling state (a disabled injector draws nothing; see
    /// [`crate::faults`]).
    pub faults: &'a mut FaultInjector,
}

impl<P: Probe> SessionCtx<'_, P> {
    /// Record an event. The closure only runs when the probe is enabled,
    /// so a disabled probe pays neither the call nor the event
    /// construction.
    #[inline(always)]
    pub(crate) fn emit(&mut self, make: impl FnOnce() -> Event) {
        if P::ENABLED {
            self.probe.record(&make());
        }
    }
}

/// Run the full exchange for one contact. `a` and `b` must be the contact's
/// endpoints.
pub fn run_contact<P: Probe>(
    a: &mut Node,
    b: &mut Node,
    contact: &Contact,
    ctx: &mut SessionCtx<'_, P>,
) {
    debug_assert_eq!((a.id, b.id), (contact.a, contact.b));
    ctx.metrics.contacts_processed += 1;
    let now = contact.start;
    ctx.emit(|| Event::ContactBegin {
        a: contact.a.index() as u32,
        b: contact.b.index() as u32,
        t: now.as_millis(),
    });

    // 1. Defensive expiry purge (engine expiry events normally precede us).
    // The purge list is scratch taken out of the context so the metrics
    // sink stays borrowable inside the loop.
    let mut purged = std::mem::take(&mut ctx.scratch.purged);
    for node in [&mut *a, &mut *b] {
        purged.clear();
        node.purge_expired_into(now, &mut purged);
        let nid = node.id.index() as u32;
        for &id in &purged {
            let idx = ctx.workload.bundle_index(id);
            node.bits.clear_copy(idx);
            ctx.metrics
                .on_drop(idx, node.id.index(), now, DropReason::Expired);
            ctx.emit(|| Event::Drop {
                flow: id.flow.0,
                seq: id.seq,
                node: nid,
                t: now.as_millis(),
                reason: DropReason::Expired,
            });
        }
    }
    ctx.scratch.purged = purged;

    // 2. Encounter bookkeeping (before any TTL assignment, so a bundle
    // received in this contact uses the interval *ending* at this contact,
    // per Algorithm 1).
    a.record_encounter(now);
    b.record_encounter(now);

    // 2b. Encounter counts. A relay copy's EC grows with every encounter
    // its holder takes part in — the count measures how many forwarding
    // opportunities the copy has lived through. The transmission event of
    // the paper's Fig. 5 additionally increments the sender's count and
    // propagates it to the receiver, so a lineage's EC accumulates across
    // hops. Origin copies are the application's send queue and do not
    // age. Algorithm 2's EC-dependent TTL is evaluated at
    // store/transmission time, not here — aging only grows the count that
    // eviction and the next store decision will read. (DESIGN.md §4
    // records this interpretation decision.) Skipped when no configured
    // policy reads EC: the counts then influence nothing observable, and
    // most of the study's protocols are in that class.
    if ctx.config.protocol.observes_ec() {
        a.buffer.age_all();
        b.buffer.age_all();
    }

    // 3. Immunity exchange.
    if ctx.config.protocol.ack != AckScheme::None {
        exchange_immunity(a, b, now, ctx);
    }

    // 4 + 5. Summary vectors and transfers under the shared capacity.
    let mut slots_left = contact.duration().div_whole(ctx.config.tx_time);
    // Fault injection: the session can be cut mid-exchange — summary
    // vectors and immunity tables already flowed, but only the first k
    // transfer slots survive the link drop.
    if let Some(k) = ctx.faults.truncate_slots(slots_left) {
        let slots_lost = slots_left - k;
        slots_left = k;
        ctx.metrics.sessions_truncated += 1;
        ctx.emit(|| Event::SessionTruncated {
            a: contact.a.index() as u32,
            b: contact.b.index() as u32,
            t: now.as_millis(),
            slots_lost,
        });
    }
    let mut tally = ContactTally {
        slots_left,
        ..ContactTally::default()
    };
    // Lower ID first — `Contact` normalizes a < b. Each summary policy
    // runs its own instance of the phase, so the exact one carries no
    // digest code.
    match ctx.config.protocol.summary {
        SummaryPolicy::Exact => {
            transfer_phase::<P, false>(a, b, now, &mut tally, ctx);
            transfer_phase::<P, false>(b, a, now, &mut tally, ctx);
        }
        SummaryPolicy::Bloom { fp_rate } => {
            ctx.scratch
                .bloom
                .prepare(ctx.workload.total_bundles(), fp_rate);
            transfer_phase::<P, true>(a, b, now, &mut tally, ctx);
            transfer_phase::<P, true>(b, a, now, &mut tally, ctx);
        }
    }
    ctx.emit(|| Event::ContactEnd {
        a: contact.a.index() as u32,
        b: contact.b.index() as u32,
        t: now.as_millis(),
        slots_used: tally.slots_used,
        control_bytes: tally.advert_bytes,
        false_positives: tally.fp_count,
    });
}

/// The transfer bookkeeping both directions of one contact share.
#[derive(Default)]
struct ContactTally {
    /// Transfer slots still free.
    slots_left: u64,
    /// Slots spent on transfers and on Bloom capacity charges.
    slots_used: u64,
    /// Advert bytes sent (kept for the probe only).
    advert_bytes: u64,
    /// Bloom digest bytes not yet charged as a whole slot. Bloom digests
    /// are charged against the contact's capacity through this debt:
    /// whole `bundle_bytes` of accumulated signaling forfeit one transfer
    /// slot. Exact summary vectors keep the seed semantics (metered on
    /// the wire, not capacity-charged).
    signal_debt: u64,
    /// False positives (kept for the probe only).
    fp_count: u64,
}

/// The receiver's Bloom digest for one transfer phase, built from its
/// summary vector by the first probe, so a phase with nothing to offer
/// builds none.
struct LazyDigest {
    words: Vec<u64>,
    built: bool,
}

impl LazyDigest {
    /// Does the digest claim bundle `idx`? `rx_summary` is the receiver's
    /// membership so far, which the digest is built from on first use.
    #[inline]
    fn contains(&mut self, table: &BloomTable, rx_summary: &SummaryVector, idx: usize) -> bool {
        if !self.built {
            table.fill(&mut self.words, rx_summary);
            self.built = true;
        }
        table.contains(&self.words, idx)
    }

    /// A copy landed: the advert the sender holds now claims it too. An
    /// unbuilt digest picks it up from the summary vector when built.
    #[inline]
    fn insert(&mut self, table: &BloomTable, idx: usize) {
        if self.built {
            table.insert(&mut self.words, idx);
        }
    }
}

/// Exchange and merge immunity stores, purge covered copies, and charge
/// the signaling meter.
fn exchange_immunity<P: Probe>(
    a: &mut Node,
    b: &mut Node,
    now: SimTime,
    ctx: &mut SessionCtx<'_, P>,
) {
    let (Some(store_a), Some(store_b)) = (a.immunity.as_ref(), b.immunity.as_ref()) else {
        unreachable!("ack scheme active but immunity stores missing");
    };
    // Who gets to share? Under epidemic propagation everyone does; under
    // destination-only propagation a node shares its table only if it is
    // itself the destination of some flow — relays consume tables but
    // never re-disseminate them.
    let shares = |node: &Node| match ctx.config.protocol.ack_propagation {
        crate::policy::AckPropagation::Epidemic => true,
        crate::policy::AckPropagation::DestinationOnly => {
            ctx.workload.flows().iter().any(|f| f.dst == node.id)
        }
    };
    let a_shares = shares(a);
    let b_shares = shares(b);

    // Meter before merging: each side transmits its *pre-exchange* table.
    let count_a = store_a.record_count();
    let count_b = store_b.record_count();
    if a_shares {
        ctx.metrics.ack_records_sent += count_a;
        ctx.metrics.control_bytes_sent += count_a * ctx.config.ack_record_bytes;
    }
    if b_shares {
        ctx.metrics.ack_records_sent += count_b;
        ctx.metrics.control_bytes_sent += count_b * ctx.config.ack_record_bytes;
    }

    // Control-plane fault injection: each shared table is lost
    // independently per direction. The signaling meter above still
    // charged the sender — in a DTN it cannot know the reception failed.
    let b_to_a_lost = b_shares && ctx.faults.ack_lost();
    let a_to_b_lost = a_shares && ctx.faults.ack_lost();
    if b_to_a_lost {
        ctx.metrics.ack_losses += 1;
        ctx.emit(|| Event::AckLost {
            from: b.id.index() as u32,
            to: a.id.index() as u32,
            t: now.as_millis(),
        });
    }
    if a_to_b_lost {
        ctx.metrics.ack_losses += 1;
        ctx.emit(|| Event::AckLost {
            from: a.id.index() as u32,
            to: b.id.index() as u32,
            t: now.as_millis(),
        });
    }

    // Merge in place, no snapshots: both encodings' merges are idempotent
    // and monotone (set union / per-flow max), so merging b's original
    // table into a first and then a's *merged* table into b yields exactly
    // the snapshot semantics — b ∪ (a₀ ∪ b₀) = b₀ ∪ a₀. (With one
    // direction lost, the surviving direction still transfers the
    // sender's pre-exchange table, which is exactly what went on the
    // wire.)
    if b_shares && !b_to_a_lost {
        let theirs = b.immunity.as_ref().expect("checked above");
        a.immunity
            .as_mut()
            .expect("checked above")
            .merge_from(theirs);
    }
    if a_shares && !a_to_b_lost {
        let theirs = a.immunity.as_ref().expect("checked above");
        b.immunity
            .as_mut()
            .expect("checked above")
            .merge_from(theirs);
    }

    let mut purged = std::mem::take(&mut ctx.scratch.purged);
    let sent_a = if a_shares { count_a } else { 0 };
    let sent_b = if b_shares { count_b } else { 0 };
    for (node, sent) in [(&mut *a, sent_a), (&mut *b, sent_b)] {
        purged.clear();
        node.purge_immunized_into(&mut purged);
        let nid = node.id.index() as u32;
        for &id in &purged {
            let idx = ctx.workload.bundle_index(id);
            node.bits.clear_copy(idx);
            ctx.metrics
                .on_drop(idx, node.id.index(), now, DropReason::Immunized);
            ctx.emit(|| Event::AckPurge {
                flow: id.flow.0,
                seq: id.seq,
                node: nid,
                t: now.as_millis(),
            });
        }
        let records = node
            .immunity
            .as_ref()
            .map(|s| s.record_count())
            .unwrap_or(0);
        ctx.metrics.set_ack_records(node.id.index(), records, now);
        ctx.emit(|| Event::ImmunityMerge {
            node: nid,
            sent,
            records,
            t: now.as_millis(),
        });
    }
    ctx.scratch.purged = purged;
}

/// Push the ids of every set bit of `bits` (a word at word-index `wi` of
/// the dense bundle indexing) onto `out`, in ascending index order.
#[inline]
fn push_word_ids(ids: &[BundleId], wi: usize, mut bits: u64, out: &mut Vec<BundleId>) {
    while bits != 0 {
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out.push(ids[wi * 64 + bit]);
    }
}

/// One direction of the exchange: `tx` sends to `rx` while capacity lasts.
/// `BLOOM` is the summary policy: the receiver advertises a Bloom digest
/// through `ctx.scratch.bloom` (prepared by [`run_contact`]) instead of
/// its exact summary vector.
fn transfer_phase<P: Probe, const BLOOM: bool>(
    tx: &mut Node,
    rx: &mut Node,
    now: SimTime,
    tally: &mut ContactTally,
    ctx: &mut SessionCtx<'_, P>,
) {
    if tally.slots_left == 0 {
        return;
    }
    // Snapshot the candidate list: bundles the receiver lacks.
    //
    // Ordering policy (the paper leaves it open; DESIGN.md records it):
    // * bundles *destined to the receiver* go first, in (flow, seq)
    //   order — final delivery retires a bundle, so it outranks another
    //   relay hop, and in-sequence arrival is what lets the cumulative
    //   immunity table's contiguous frontier advance (the same reason
    //   cumulative-ACK transports deliver in order);
    // * relay-bound bundles follow. Under the *cumulative* ack scheme
    //   they stay in strict (flow, seq) order — in-order forwarding is
    //   part of a cumulative-ack design (the paper's "table with bundle
    //   ID 30 means bundles 1 to 30 are delivered" presumes it), since an
    //   out-of-order delivery stalls the frontier and the table
    //   acknowledges nothing. Under every other scheme the sorted list is
    //   rotated by a seeded random offset: with one or two transfer slots
    //   per contact, a fixed order would let the head of the list
    //   monopolize transmissions (and the TTL renewals they grant) while
    //   the tail starves.
    // The receiver advertises its summary once, and the sender's view of
    // it is updated as transfers land. An exact summary vector costs one
    // bit per workload bundle on the wire. A Bloom digest costs its `m`
    // bits (Marandi's m/k optimization for the workload's bundle count at
    // the configured FP target) and claims every bundle the receiver has
    // plus some it lacks — the false positives, never offered.
    //
    // Both policies scan the same candidates, the sender's copies outside
    // the receiver's summary vector: a bundle the receiver has is in its
    // digest too and cannot be a false positive. Under Bloom each
    // candidate is then probed against the digest, built from the
    // summary vector by the first probe.
    //
    // The vector, the digest words and the two candidate lists are
    // scratch taken out of the context (and restored at the end), so a
    // phase allocates nothing. Candidates are split into the two priority
    // classes during the single scan of the sender's stores and each
    // class is sorted on its own — candidate ids are distinct (the
    // summary-vector filter excludes duplicates), so this equals the
    // seed's sort-then-stable-partition both in membership and in order.
    let advert = if BLOOM {
        ctx.scratch.bloom.params().wire_bytes()
    } else {
        u64::from(ctx.workload.total_bundles()).div_ceil(8)
    };
    ctx.metrics.control_bytes_sent += advert;
    ctx.metrics.signaling_bytes += advert;
    if P::ENABLED {
        tally.advert_bytes += advert;
    }
    if BLOOM && ctx.config.bundle_bytes > 0 {
        // Capacity charge: every whole bundle's worth of digest bytes
        // forfeits one transfer slot. The debt persists across both
        // phases so fractional adverts still add up.
        tally.signal_debt += advert;
        while tally.signal_debt >= ctx.config.bundle_bytes && tally.slots_left > 0 {
            tally.signal_debt -= ctx.config.bundle_bytes;
            tally.slots_left -= 1;
            tally.slots_used += 1;
        }
        if tally.slots_left == 0 {
            return;
        }
    }
    // A sender that stores nothing has nothing to offer once the advert
    // is out (common under the TTL policies, whose buffers drain).
    if tx.occupancy_count() == 0 {
        return;
    }
    let mut rx_summary = std::mem::take(&mut ctx.scratch.rx_summary);
    rx_summary.refill_from_node(rx, ctx.workload);
    let mut digest = LazyDigest {
        words: if BLOOM {
            std::mem::take(&mut ctx.scratch.digest)
        } else {
            Vec::new()
        },
        built: false,
    };
    let mut false_positives: u64 = 0;
    let mut dest = std::mem::take(&mut ctx.scratch.dest);
    let mut relay = std::mem::take(&mut ctx.scratch.relay);
    dest.clear();
    relay.clear();
    let ids = std::mem::take(&mut ctx.scratch.ids);
    let dest_masks = std::mem::take(&mut ctx.scratch.dest_masks);
    let rxi = rx.id.index();
    // SoA fast path: when the engine prepared the lookup tables and
    // maintains the possession planes, the candidate split iterates
    // 64-bundle words. Ascending dense-index order equals ascending
    // `BundleId` order (the indexing is monotone in (flow, seq)), so the
    // lists come out exactly as the record-scan-then-sort below produces.
    if let (false, Some(copies), Some(mask)) =
        (ids.is_empty(), tx.bits.copy_plane(), dest_masks.get(rxi))
    {
        for wi in 0..copies.word_count() {
            let mut cand = copies.word(wi) & !rx_summary.word(wi);
            if cand == 0 {
                continue;
            }
            if BLOOM {
                let mut probe = cand;
                while probe != 0 {
                    let bit = probe.trailing_zeros();
                    probe &= probe - 1;
                    let idx = wi * 64 + bit as usize;
                    if digest.contains(&ctx.scratch.bloom, &rx_summary, idx) {
                        // The digest lied: the receiver lacks this bundle
                        // but the sender will never offer it.
                        cand &= !(1 << bit);
                        false_positives += 1;
                    }
                }
            }
            let mask_word = mask.word(wi);
            push_word_ids(&ids, wi, cand & mask_word, &mut dest);
            push_word_ids(&ids, wi, cand & !mask_word, &mut relay);
        }
    } else {
        for (copy, _) in tx.copies() {
            let id = copy.id;
            let idx = ctx.workload.bundle_index(id);
            if rx_summary.contains(idx) {
                continue;
            }
            if BLOOM && digest.contains(&ctx.scratch.bloom, &rx_summary, idx) {
                false_positives += 1;
                continue;
            }
            if ctx.workload.flow(id.flow).dst == rx.id {
                dest.push(id);
            } else {
                relay.push(id);
            }
        }
        dest.sort_unstable();
        relay.sort_unstable();
    }
    ctx.scratch.ids = ids;
    ctx.scratch.dest_masks = dest_masks;
    if ctx.config.protocol.ack != AckScheme::Cumulative && relay.len() > 1 {
        let pivot = ctx.rng.below(relay.len() as u64) as usize;
        relay.rotate_left(pivot);
    }

    for &id in dest.iter().chain(relay.iter()) {
        if tally.slots_left == 0 {
            break;
        }
        let flow = ctx.workload.flow(id.flow);
        // P–Q gate: the bundle's source transmits with P, relays with Q.
        let p = ctx.config.protocol.transmit.probability(tx.id == flow.src);
        if !ctx.rng.bernoulli(p) {
            continue;
        }
        // The defensive purge and the per-transfer EC-TTL updates can
        // remove a candidate mid-phase; re-check both sides.
        let idx = ctx.workload.bundle_index(id);
        let tx_has = if tx.bits.enabled() {
            tx.bits.has(idx)
        } else {
            tx.has_bundle(id)
        };
        if !tx_has {
            continue;
        }
        if rx_summary.contains(idx) {
            continue;
        }
        // The sender only knows the digest; stores earlier in this
        // session inserted into it, which can mint fresh false positives
        // for unrelated candidates.
        if BLOOM && digest.contains(&ctx.scratch.bloom, &rx_summary, idx) {
            false_positives += 1;
            continue;
        }

        tally.slots_left -= 1;
        tally.slots_used += 1;
        ctx.metrics.bundle_transmissions += 1;
        ctx.metrics.payload_bytes_sent += ctx.config.bundle_bytes;
        // The transfer occupies one `tx_time` slot; its completion stamps
        // the delivery time.
        let completed_at = now + ctx.config.tx_time * tally.slots_used;

        // Sender-side updates: EC increment, TTL renewal / EC-TTL.
        // Lifetime policies govern *relay* copies only: "once they are
        // transmitted and stored in a buffer, their TTL begins to reduce"
        // (Section II-B) — a source's own un-retired originals do not
        // time out (they can still be purged by immunity tables).
        let (new_ec, sender_copy_expired) = {
            let (mut copy, place) = tx.copy_entry_mut(id).expect("checked above");
            let new_ec = copy.bump_ec();
            if place == CopyPlace::Relay {
                match ctx.config.protocol.lifetime {
                    LifetimePolicy::FixedTtl { ttl } => {
                        // The paper: a transmitted bundle's TTL is renewed.
                        copy.set_expires_at(now + ttl);
                    }
                    LifetimePolicy::EcTtl { .. } => {
                        if let Some(ttl) = ctx.config.protocol.lifetime.ec_ttl_at(new_ec) {
                            copy.set_expires_at(now + ttl);
                        }
                    }
                    LifetimePolicy::None | LifetimePolicy::DynamicTtl { .. } => {}
                }
            }
            // An EC-TTL of zero means "discard immediately".
            (new_ec, copy.expires_at() <= now)
        };
        if sender_copy_expired {
            tx.remove_copy(id);
            tx.bits.clear_copy(idx);
            ctx.metrics
                .on_drop(idx, tx.id.index(), now, DropReason::Expired);
            ctx.emit(|| Event::Drop {
                flow: id.flow.0,
                seq: id.seq,
                node: tx.id.index() as u32,
                t: now.as_millis(),
                reason: DropReason::Expired,
            });
        }

        // Failure injection: the transfer occupied the slot and the
        // sender behaved as if it succeeded, but the bundle never
        // arrives. The i.i.d. loss draws from the protocol RNG (as it
        // always has); the Gilbert–Elliott burst channel draws from its
        // own fault stream and is sampled unconditionally so its state
        // advances once per transmission either way.
        let iid_lost = ctx.rng.bernoulli(ctx.config.transfer_loss_prob);
        let burst_lost = ctx.faults.transfer_lost();
        let lost = iid_lost || burst_lost;
        ctx.emit(|| Event::Transmit {
            flow: id.flow.0,
            seq: id.seq,
            from: tx.id.index() as u32,
            to: rx.id.index() as u32,
            t: now.as_millis(),
            done: completed_at.as_millis(),
            lost,
        });
        if lost {
            ctx.metrics.transfer_losses += 1;
            continue;
        }

        // Receiver side.
        if rx.id == flow.dst {
            deliver(rx, id, now, completed_at, idx, ctx);
        } else {
            store_relay_copy(rx, id, new_ec, now, idx, ctx);
        }
        let rx_has = if rx.bits.enabled() {
            rx.bits.has(idx)
        } else {
            rx.has_bundle(id)
        };
        if rx_has {
            rx_summary.insert(idx);
            if BLOOM {
                digest.insert(&ctx.scratch.bloom, idx);
            }
        }
    }

    if BLOOM {
        ctx.metrics.false_positive_transmissions += false_positives;
        tally.fp_count += false_positives;
        ctx.scratch.digest = digest.words;
    }
    ctx.scratch.rx_summary = rx_summary;
    ctx.scratch.dest = dest;
    ctx.scratch.relay = relay;
}

/// The bundle reached its destination: record the delivery, update the
/// destination's immunity store under the active ack scheme.
///
/// Always inlined, like [`store_relay_copy`]: each has one call site, but
/// in both instances of [`transfer_phase`], and out of line the call
/// slows every exact-summary protocol's transfers.
#[inline(always)]
fn deliver<P: Probe>(
    rx: &mut Node,
    id: BundleId,
    now: SimTime,
    completed_at: SimTime,
    idx: usize,
    ctx: &mut SessionCtx<'_, P>,
) {
    let tracker = rx.trackers.entry(id.flow).or_default();
    let fresh = tracker.record(id.seq);
    debug_assert!(fresh, "summary-vector filter should block duplicates");
    if !fresh {
        return;
    }
    let frontier = tracker.frontier();
    rx.bits.set_delivered(idx);
    ctx.metrics.on_deliver(idx, now, completed_at);
    ctx.emit(|| Event::Deliver {
        flow: id.flow.0,
        seq: id.seq,
        node: rx.id.index() as u32,
        t: now.as_millis(),
        done: completed_at.as_millis(),
    });
    if let Some(store) = rx.immunity.as_mut() {
        store.record_delivery(id, frontier);
        let records = store.record_count();
        ctx.metrics.set_ack_records(rx.id.index(), records, now);
        ctx.emit(|| Event::ImmunityMerge {
            node: rx.id.index() as u32,
            sent: 0,
            records,
            t: now.as_millis(),
        });
    }
    // If the destination happened to be carrying a relay copy of this very
    // bundle (impossible under current semantics, but cheap to guard), the
    // delivered state supersedes it.
    if rx.remove_copy(id).is_some() {
        debug_assert!(false, "destination held a relay copy of its own bundle");
        rx.bits.clear_copy(idx);
        ctx.metrics
            .on_drop(idx, rx.id.index(), completed_at, DropReason::Immunized);
        ctx.emit(|| Event::AckPurge {
            flow: id.flow.0,
            seq: id.seq,
            node: rx.id.index() as u32,
            t: completed_at.as_millis(),
        });
    }
}

/// Store an incoming relay copy, applying the receiver-side lifetime policy
/// and the buffer's eviction policy.
#[inline(always)]
fn store_relay_copy<P: Probe>(
    rx: &mut Node,
    id: BundleId,
    ec: u32,
    now: SimTime,
    idx: usize,
    ctx: &mut SessionCtx<'_, P>,
) {
    let expires_at = match ctx.config.protocol.lifetime {
        LifetimePolicy::None => SimTime::MAX,
        LifetimePolicy::FixedTtl { ttl } => now + ttl,
        LifetimePolicy::DynamicTtl { multiplier } => match rx.last_interval {
            // Algorithm 1: TTL = multiplier × interval between the node's
            // last two encounters.
            Some(interval) => now + interval.mul_f64(multiplier),
            // No interval estimate yet: hold without expiry.
            None => SimTime::MAX,
        },
        LifetimePolicy::EcTtl { .. } => match ctx.config.protocol.lifetime.ec_ttl_at(ec) {
            Some(ttl) if ttl.is_zero() => {
                // Dead on arrival: the transmission happened (and consumed
                // a slot) but the copy is not stored.
                ctx.metrics.rejections += 1;
                ctx.emit(|| Event::Reject {
                    flow: id.flow.0,
                    seq: id.seq,
                    node: rx.id.index() as u32,
                    t: now.as_millis(),
                });
                return;
            }
            Some(ttl) => now + ttl,
            None => SimTime::MAX,
        },
    };
    let copy = StoredBundle {
        id,
        ec,
        stored_at: now,
        expires_at,
    };
    let nid = rx.id.index() as u32;
    let store_event = move || Event::Store {
        flow: id.flow.0,
        seq: id.seq,
        node: nid,
        t: now.as_millis(),
    };
    match rx.buffer.insert(copy, ctx.config.protocol.eviction) {
        InsertOutcome::Stored => {
            rx.bits.set_copy(idx);
            ctx.metrics.on_store(idx, rx.id.index(), now);
            ctx.emit(store_event);
        }
        InsertOutcome::StoredEvicting(victim) => {
            let victim_idx = ctx.workload.bundle_index(victim);
            rx.bits.clear_copy(victim_idx);
            rx.bits.set_copy(idx);
            ctx.metrics
                .on_drop(victim_idx, rx.id.index(), now, DropReason::Evicted);
            ctx.emit(|| Event::Drop {
                flow: victim.flow.0,
                seq: victim.seq,
                node: nid,
                t: now.as_millis(),
                reason: DropReason::Evicted,
            });
            ctx.metrics.on_store(idx, rx.id.index(), now);
            ctx.emit(store_event);
        }
        InsertOutcome::Rejected => {
            ctx.metrics.rejections += 1;
            ctx.emit(|| Event::Reject {
                flow: id.flow.0,
                seq: id.seq,
                node: nid,
                t: now.as_millis(),
            });
        }
        InsertOutcome::Duplicate => {
            debug_assert!(false, "summary-vector filter should block duplicates")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::StoredBundle;
    use crate::bundle::{BundleId, FlowId, Workload};
    use crate::metrics::MetricsCollector;
    use crate::protocols;
    use dtn_mobility::{Contact, NodeId};
    use dtn_sim::{SimRng, SimTime};

    fn contact(start: u64, end: u64) -> Contact {
        Contact::new(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
    }

    fn origin_copy(flow: u32, seq: u32) -> StoredBundle {
        StoredBundle {
            id: BundleId {
                flow: FlowId(flow),
                seq,
            },
            ec: 0,
            stored_at: SimTime::ZERO,
            expires_at: SimTime::MAX,
        }
    }

    /// Two opposing flows, capacity 3: the lower-ID node's phase runs
    /// first and claims two slots; the higher-ID node gets the leftover.
    #[test]
    fn lower_id_sends_first_and_capacity_is_shared() {
        let workload = Workload::new(
            vec![
                crate::bundle::Flow {
                    id: FlowId(0),
                    src: NodeId(0),
                    dst: NodeId(1),
                    count: 2,
                    created_at: SimTime::ZERO,
                },
                crate::bundle::Flow {
                    id: FlowId(1),
                    src: NodeId(1),
                    dst: NodeId(0),
                    count: 2,
                    created_at: SimTime::ZERO,
                },
            ],
            2,
        )
        .unwrap();
        let config = SimConfig::paper_defaults(protocols::pure_epidemic());
        let mut a = Node::new(NodeId(0), 10, None);
        let mut b = Node::new(NodeId(1), 10, None);
        for seq in 0..2 {
            a.origin.insert(
                origin_copy(0, seq),
                crate::policy::EvictionPolicy::RejectNew,
            );
            b.origin.insert(
                origin_copy(1, seq),
                crate::policy::EvictionPolicy::RejectNew,
            );
        }
        let mut metrics = MetricsCollector::new(2, 10, 4, 0.1);
        metrics.start(SimTime::ZERO);
        let mut rng = SimRng::new(1);
        let mut scratch = SessionScratch::default();
        let mut probe = NullProbe;
        let mut faults = FaultInjector::disabled();
        let mut ctx = SessionCtx {
            config: &config,
            workload: &workload,
            metrics: &mut metrics,
            rng: &mut rng,
            scratch: &mut scratch,
            probe: &mut probe,
            faults: &mut faults,
        };
        // 300..320 gives ⌊300/100⌋ = 3 slots... duration is 300 s.
        run_contact(&mut a, &mut b, &contact(0, 300), &mut ctx);
        // Lower-ID node 0 used slots 1-2 delivering both flow-0 bundles;
        // node 1 got one slot: flow 1 is half-delivered.
        let b_got = b
            .trackers
            .get(&FlowId(0))
            .map(|t| t.delivered_count())
            .unwrap_or(0);
        let a_got = a
            .trackers
            .get(&FlowId(1))
            .map(|t| t.delivered_count())
            .unwrap_or(0);
        assert_eq!(b_got, 2, "lower-ID phase should finish its flow");
        assert_eq!(a_got, 1, "higher-ID phase gets only the leftover slot");
        assert_eq!(metrics.bundle_transmissions, 3);
    }

    /// EC bookkeeping across one hop: holder aging + transmission
    /// increment + receiver inheritance (Fig. 5 semantics).
    #[test]
    fn ec_inherited_with_increments() {
        let workload = Workload::single_flow(NodeId(0), NodeId(9), 1, 10);
        let config = SimConfig::paper_defaults(protocols::ec_epidemic());
        let mut a = Node::new(NodeId(0), 10, None);
        let mut b = Node::new(NodeId(1), 10, None);
        // A *relay* copy at node 0 with EC 5 (origin copies don't age, so
        // plant it in the relay buffer).
        a.buffer.insert(
            StoredBundle {
                id: BundleId {
                    flow: FlowId(0),
                    seq: 0,
                },
                ec: 5,
                stored_at: SimTime::ZERO,
                expires_at: SimTime::MAX,
            },
            crate::policy::EvictionPolicy::RejectNew,
        );
        let mut metrics = MetricsCollector::new(10, 10, 1, 0.1);
        metrics.start(SimTime::ZERO);
        let mut rng = SimRng::new(1);
        let mut scratch = SessionScratch::default();
        let mut probe = NullProbe;
        let mut faults = FaultInjector::disabled();
        let mut ctx = SessionCtx {
            config: &config,
            workload: &workload,
            metrics: &mut metrics,
            rng: &mut rng,
            scratch: &mut scratch,
            probe: &mut probe,
            faults: &mut faults,
        };
        let c = Contact::new(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(0),
            SimTime::from_secs(150),
        );
        run_contact(&mut a, &mut b, &c, &mut ctx);
        // Holder aging: 5 -> 6; transmission: 6 -> 7; receiver inherits 7.
        assert_eq!(
            a.buffer
                .get(BundleId {
                    flow: FlowId(0),
                    seq: 0
                })
                .unwrap()
                .ec,
            7
        );
        assert_eq!(
            b.buffer
                .get(BundleId {
                    flow: FlowId(0),
                    seq: 0
                })
                .unwrap()
                .ec,
            7
        );
    }

    /// Zero-duration capacity: a contact shorter than one tx_time carries
    /// nothing, but ack exchange still happens (tables are small).
    #[test]
    fn too_short_contact_exchanges_acks_but_no_bundles() {
        let workload = Workload::single_flow(NodeId(0), NodeId(1), 2, 2);
        let config = SimConfig::paper_defaults(protocols::immunity_epidemic());
        let mut a = Node::new(
            NodeId(0),
            10,
            Some(crate::immunity::ImmunityStore::per_bundle()),
        );
        let mut b = Node::new(
            NodeId(1),
            10,
            Some(crate::immunity::ImmunityStore::per_bundle()),
        );
        a.origin
            .insert(origin_copy(0, 0), crate::policy::EvictionPolicy::RejectNew);
        // Node b somehow knows seq 1 was delivered (planted ack).
        b.immunity.as_mut().unwrap().record_delivery(
            BundleId {
                flow: FlowId(0),
                seq: 1,
            },
            0,
        );
        let mut metrics = MetricsCollector::new(2, 10, 2, 0.1);
        metrics.start(SimTime::ZERO);
        let mut rng = SimRng::new(1);
        let mut scratch = SessionScratch::default();
        let mut probe = NullProbe;
        let mut faults = FaultInjector::disabled();
        let mut ctx = SessionCtx {
            config: &config,
            workload: &workload,
            metrics: &mut metrics,
            rng: &mut rng,
            scratch: &mut scratch,
            probe: &mut probe,
            faults: &mut faults,
        };
        run_contact(&mut a, &mut b, &contact(0, 50), &mut ctx);
        assert_eq!(metrics.bundle_transmissions, 0, "50 s < one 100 s slot");
        assert!(metrics.ack_records_sent > 0, "immunity tables still flow");
        assert!(
            a.immunity.as_ref().unwrap().covers(BundleId {
                flow: FlowId(0),
                seq: 1
            }),
            "a merged b's table"
        );
    }

    /// Destination-bound bundles outrank relay traffic within a phase.
    #[test]
    fn destination_bound_bundles_go_first() {
        // Node 0 carries: a relay copy for flow 1 (dst elsewhere) with a
        // *lower* sort key, and origin bundles of flow 0 destined to node
        // 1. With one slot, flow 0 must win despite sorting later.
        let workload = Workload::new(
            vec![
                crate::bundle::Flow {
                    id: FlowId(0),
                    src: NodeId(2),
                    dst: NodeId(9),
                    count: 1,
                    created_at: SimTime::ZERO,
                },
                crate::bundle::Flow {
                    id: FlowId(1),
                    src: NodeId(0),
                    dst: NodeId(1),
                    count: 1,
                    created_at: SimTime::ZERO,
                },
            ],
            10,
        )
        .unwrap();
        let config = SimConfig::paper_defaults(protocols::pure_epidemic());
        let mut a = Node::new(NodeId(0), 10, None);
        let mut b = Node::new(NodeId(1), 10, None);
        a.buffer
            .insert(origin_copy(0, 0), crate::policy::EvictionPolicy::RejectNew);
        a.origin
            .insert(origin_copy(1, 0), crate::policy::EvictionPolicy::RejectNew);
        let mut metrics = MetricsCollector::new(10, 10, 2, 0.1);
        metrics.start(SimTime::ZERO);
        let mut rng = SimRng::new(1);
        let mut scratch = SessionScratch::default();
        let mut probe = NullProbe;
        let mut faults = FaultInjector::disabled();
        let mut ctx = SessionCtx {
            config: &config,
            workload: &workload,
            metrics: &mut metrics,
            rng: &mut rng,
            scratch: &mut scratch,
            probe: &mut probe,
            faults: &mut faults,
        };
        let c = Contact::new(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(0),
            SimTime::from_secs(150),
        );
        run_contact(&mut a, &mut b, &c, &mut ctx);
        assert_eq!(
            b.trackers.get(&FlowId(1)).map(|t| t.delivered_count()),
            Some(1),
            "the destination-bound bundle took the only slot"
        );
        assert!(!b.buffer.contains(BundleId {
            flow: FlowId(0),
            seq: 0
        }));
    }
}
