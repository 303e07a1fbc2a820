//! Summary vectors — the anti-entropy membership structure.
//!
//! Pure epidemic's defining mechanism (Vahdat & Becker, paper §II-A) is
//! the *summary vector*: a compact description of which bundles a node
//! possesses, exchanged at the start of every contact so peers transfer
//! only what the other side lacks. [`SummaryVector`] is that structure,
//! realized as a bitset over the workload's dense bundle indexing — one
//! bit per bundle, 64 bundles per word, so the paper's whole load-50
//! workload fits in a single `u64`.
//!
//! The word storage is a fixed inline array ([`INLINE_WORDS`] × 64
//! bundles) with a heap spill only for workloads too large to fit — on
//! every workload the study runs, building and refilling a vector never
//! allocates. The session layer additionally reuses one vector across
//! contacts via [`SummaryVector::refill_from_node`] instead of
//! constructing a fresh one per transfer phase.

use crate::bundle::{BundleId, Workload};
use crate::node::Node;

/// Words stored inline before spilling to the heap: 512 bundles, several
/// times the paper's maximum load.
const INLINE_WORDS: usize = 8;

/// A bitset over the workload's bundles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryVector {
    total: u32,
    inline: [u64; INLINE_WORDS],
    /// Words beyond the inline block; always exactly
    /// `word_count - INLINE_WORDS` long (empty for small workloads), so
    /// derived equality is correct.
    spill: Vec<u64>,
}

impl SummaryVector {
    /// An empty vector sized for `total` bundles.
    pub fn empty(total: u32) -> SummaryVector {
        let mut sv = SummaryVector::default();
        sv.reset(total);
        sv
    }

    /// Clear and resize for `total` bundles.
    ///
    /// Spill capacity is released down to what `total` needs: scratch
    /// vectors are reused across runs (the sweep runner shares one
    /// [`SessionScratch`](crate::SessionScratch) over a whole trace-cache
    /// generation), and before this shrank, one large workload would pin
    /// its peak spill allocation for the rest of the process even after
    /// every later workload fit inline.
    pub fn reset(&mut self, total: u32) {
        self.total = total;
        self.inline = [0; INLINE_WORDS];
        self.spill.clear();
        let words = (total as usize).div_ceil(64);
        let spill_words = words.saturating_sub(INLINE_WORDS);
        self.spill.resize(spill_words, 0);
        self.spill.shrink_to(spill_words);
    }

    /// The summary a node advertises: every bundle it can prove it has —
    /// relay copies, origin copies, and (at a destination) completed
    /// deliveries.
    pub fn of_node(node: &Node, workload: &Workload) -> SummaryVector {
        let mut sv = SummaryVector::default();
        sv.refill_from_node(node, workload);
        sv
    }

    /// [`SummaryVector::of_node`] into an existing vector — the zero-
    /// allocation path the session layer uses, one scratch vector reused
    /// across every contact of a run.
    ///
    /// When the engine maintains the node's possession bitsets
    /// ([`Node::bits`]), the refill is a word-wise OR of the copy and
    /// delivery planes instead of a walk over every stored copy and
    /// tracker record; the two paths produce identical vectors (the
    /// bitsets mirror store membership exactly), which a debug assertion
    /// re-derives on every refill in test builds.
    pub fn refill_from_node(&mut self, node: &Node, workload: &Workload) {
        if let Some((copies, delivered)) = node.bits.planes() {
            self.reset(workload.total_bundles());
            for wi in 0..self.word_count() {
                *self.word_mut(wi) = copies.word(wi) | delivered.word(wi);
            }
            debug_assert_eq!(*self, {
                let mut walked = SummaryVector::default();
                walked.refill_walk(node, workload);
                walked
            });
            return;
        }
        self.refill_walk(node, workload);
    }

    /// The record-walking refill: every stored copy plus every tracker
    /// delivery. Sole path for nodes whose bitsets are not engine-managed
    /// (unit tests plant copies directly into buffers).
    fn refill_walk(&mut self, node: &Node, workload: &Workload) {
        self.reset(workload.total_bundles());
        for (copy, _) in node.copies() {
            self.insert(workload.bundle_index(copy.id));
        }
        for (flow_id, tracker) in &node.trackers {
            for seq in tracker.delivered_seqs() {
                self.insert(workload.bundle_index(BundleId {
                    flow: *flow_id,
                    seq,
                }));
            }
        }
    }

    /// Number of words covering `total` bundles.
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        (self.total as usize).div_ceil(64)
    }

    #[inline]
    pub(crate) fn word(&self, wi: usize) -> u64 {
        if wi < INLINE_WORDS {
            self.inline[wi]
        } else {
            self.spill[wi - INLINE_WORDS]
        }
    }

    #[inline]
    pub(crate) fn word_mut(&mut self, wi: usize) -> &mut u64 {
        if wi < INLINE_WORDS {
            &mut self.inline[wi]
        } else {
            &mut self.spill[wi - INLINE_WORDS]
        }
    }

    /// Number of bundles the vector covers.
    pub fn capacity(&self) -> u32 {
        self.total
    }

    /// Mark bundle `idx` as possessed.
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        debug_assert!(idx < self.total as usize);
        *self.word_mut(idx / 64) |= 1 << (idx % 64);
    }

    /// Mark bundle `idx` as no longer possessed.
    #[inline]
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(idx < self.total as usize);
        *self.word_mut(idx / 64) &= !(1 << (idx % 64));
    }

    /// Is bundle `idx` possessed?
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        debug_assert!(idx < self.total as usize);
        self.word(idx / 64) & (1 << (idx % 64)) != 0
    }

    /// Number of possessed bundles.
    pub fn len(&self) -> u32 {
        (0..self.word_count())
            .map(|wi| self.word(wi).count_ones())
            .sum()
    }

    /// True when nothing is possessed.
    pub fn is_empty(&self) -> bool {
        (0..self.word_count()).all(|wi| self.word(wi) == 0)
    }

    /// Bundle indices possessed by `self` but not by `other` — what the
    /// anti-entropy session offers the peer. Panics if the vectors cover
    /// different workloads.
    pub fn difference<'a>(&'a self, other: &'a SummaryVector) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(
            self.total, other.total,
            "summary vectors of different workloads"
        );
        (0..self.word_count()).flat_map(move |wi| {
            let mut bits = self.word(wi) & !other.word(wi);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// In-place union (what a node knows after hearing a peer's vector).
    pub fn union_with(&mut self, other: &SummaryVector) {
        assert_eq!(
            self.total, other.total,
            "summary vectors of different workloads"
        );
        for wi in 0..self.word_count() {
            *self.word_mut(wi) |= other.word(wi);
        }
    }
}

/// Bloom filter geometry: bit-array size `m` and hash count `k`.
///
/// Derived by [`bloom_params`] from Marandi et al.'s optimization: for an
/// expected `n` set members and target false-positive rate `p`,
/// `m = ⌈−n·ln p ⁄ (ln 2)²⌉` and `k = round((m/n)·ln 2)`, each clamped to
/// at least 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BloomParams {
    /// Bit-array size `m`.
    pub m_bits: u64,
    /// Number of hash functions `k`.
    pub k: u32,
}

impl BloomParams {
    /// Digest size on the wire: the bit array, byte-aligned.
    pub fn wire_bytes(&self) -> u64 {
        self.m_bits.div_ceil(8)
    }

    /// The analytic false-positive probability of this geometry after `n`
    /// insertions: `(1 − e^(−k·n/m))^k`.
    pub fn analytic_fp_rate(&self, n: u32) -> f64 {
        let k = f64::from(self.k);
        let exponent = -k * f64::from(n) / self.m_bits as f64;
        (1.0 - exponent.exp()).powf(k)
    }

    /// The `k` bit positions of `member`: `(h1 + i·h2) mod m` for
    /// `i` in `0..k` over the [`bloom_lanes`] pair. The one position
    /// function of the engine: [`BloomFilter`] probes through it and
    /// [`BloomTable`] tabulates it.
    #[inline]
    pub(crate) fn positions(self, member: u64) -> impl Iterator<Item = u64> {
        let (h1, h2) = bloom_lanes(member);
        let m = self.m_bits;
        (0..u64::from(self.k)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }
}

/// Optimal Bloom geometry for `expected_members` and `fp_rate` (Marandi
/// et al.; see [`BloomParams`]). `fp_rate` must lie in `(0, 1)` —
/// [`ProtocolConfig::validate`](crate::ProtocolConfig::validate) enforces
/// this before a run starts.
pub fn bloom_params(expected_members: u32, fp_rate: f64) -> BloomParams {
    let n = f64::from(expected_members.max(1));
    let ln2 = std::f64::consts::LN_2;
    let m = (-(n * fp_rate.ln()) / (ln2 * ln2)).ceil().max(1.0);
    let k = ((m / n) * ln2).round().max(1.0);
    BloomParams {
        m_bits: m as u64,
        k: k as u32,
    }
}

/// The two independent FNV-1a lanes feeding double hashing: bit `i` of a
/// member is `(h1 + i·h2) mod m` (Kirsch & Mitzenmacher). `h2` is forced
/// odd so the stride never collapses to a single position.
///
/// A free function (rather than a `BloomFilter` method) so the scalar
/// oracle mirror can recompute bit positions without touching the
/// word-packed implementation.
pub fn bloom_lanes(member: u64) -> (u64, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    #[inline]
    fn fnv1a(x: u64, seed: u64) -> u64 {
        let mut h = seed;
        let mut rest = x;
        for _ in 0..8 {
            h ^= rest & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        h
    }
    let h1 = fnv1a(member, FNV_OFFSET);
    let h2 = fnv1a(member, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15) | 1;
    (h1, h2)
}

/// A Bloom-filter possession digest (Marandi et al., PAPERS.md): the
/// constant-size alternative to [`SummaryVector`] for the anti-entropy
/// exchange. Membership is approximate — `contains` can answer `true` for
/// a bundle the node lacks (a false positive, suppressing a transmission
/// the peer needed) but never `false` for one it has.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    m_bits: u64,
    k: u32,
    words: Vec<u64>,
}

impl BloomFilter {
    /// An empty filter with the given geometry.
    pub fn new(params: BloomParams) -> BloomFilter {
        let mut bf = BloomFilter {
            m_bits: 0,
            k: 0,
            words: Vec::new(),
        };
        bf.reset(params);
        bf
    }

    /// An empty filter sized by [`bloom_params`] for a workload of
    /// `expected_members` bundles at the target FP rate.
    pub fn for_expected(expected_members: u32, fp_rate: f64) -> BloomFilter {
        BloomFilter::new(bloom_params(expected_members, fp_rate))
    }

    /// Clear and re-size for a new geometry, reusing (but, like
    /// [`SummaryVector::reset`], not hoarding) the word allocation.
    pub fn reset(&mut self, params: BloomParams) {
        self.m_bits = params.m_bits;
        self.k = params.k;
        let words = params.m_bits.div_ceil(64) as usize;
        self.words.clear();
        self.words.resize(words, 0);
        self.words.shrink_to(words);
    }

    /// This filter's geometry.
    pub fn params(&self) -> BloomParams {
        BloomParams {
            m_bits: self.m_bits,
            k: self.k,
        }
    }

    /// Insert a member.
    #[inline]
    pub fn insert(&mut self, member: u64) {
        for bit in self.params().positions(member) {
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Approximate membership: no false negatives, false positives at
    /// roughly the configured rate.
    #[inline]
    pub fn contains(&self, member: u64) -> bool {
        self.params()
            .positions(member)
            .all(|bit| self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Word-parallel union: afterwards `self` contains (at least)
    /// everything either filter contained. Panics if the geometries
    /// differ — digests are only mergeable within one workload.
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(
            self.params(),
            other.params(),
            "bloom filters of different geometries"
        );
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// True when no member has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl Default for BloomFilter {
    /// A degenerate empty-geometry filter (`k = 0`, no words): `insert`
    /// is a no-op and `contains` vacuously true. Callers
    /// [`reset`](BloomFilter::reset) it to a real geometry before use;
    /// constructing it allocates nothing.
    fn default() -> BloomFilter {
        BloomFilter {
            m_bits: 0,
            k: 0,
            words: Vec::new(),
        }
    }
}

/// Every bundle's Bloom bit positions under one run's geometry, so the
/// session never hashes: bundle `idx` owns `positions[idx·k .. idx·k + k]`,
/// the bits [`BloomParams::positions`] gives it. Built once per run from
/// the workload's bundle count and the FP target, at `k` × 4 bytes per
/// bundle.
///
/// A digest is a plain word array (`m` bits, rounded up to whole words
/// for storage only) that [`insert`](BloomTable::insert) and
/// [`contains`](BloomTable::contains) address through the table; after
/// the same inserts it holds exactly the bits a [`BloomFilter`] of this
/// geometry holds.
#[derive(Clone, Debug, Default)]
pub(crate) struct BloomTable {
    /// Bundle count the table was built for.
    total: u32,
    /// FP target the table was built for.
    fp_rate: f64,
    /// The geometry; `k = 0` until the first [`prepare`](BloomTable::prepare).
    params: BloomParams,
    /// `k` positions per bundle, in dense-index order.
    positions: Vec<u32>,
}

impl BloomTable {
    /// Build the table for `total` bundles at `fp_rate`, unless it already
    /// holds that geometry. Like [`SummaryVector::reset`], a rebuild does
    /// not keep a larger previous allocation.
    pub(crate) fn prepare(&mut self, total: u32, fp_rate: f64) {
        if self.params.k != 0 && self.total == total && self.fp_rate == fp_rate {
            return;
        }
        let params = bloom_params(total, fp_rate);
        assert!(
            params.m_bits <= 1 << 32,
            "bloom geometry of {} bits does not fit 32-bit positions",
            params.m_bits
        );
        let len = total as usize * params.k as usize;
        self.positions.clear();
        self.positions.shrink_to(len);
        self.positions.reserve_exact(len);
        for idx in 0..u64::from(total) {
            self.positions
                .extend(params.positions(idx).map(|bit| bit as u32));
        }
        self.total = total;
        self.fp_rate = fp_rate;
        self.params = params;
    }

    /// The table's geometry.
    pub(crate) fn params(&self) -> BloomParams {
        self.params
    }

    /// Words a digest of this geometry spans.
    pub(crate) fn digest_words(&self) -> usize {
        self.params.m_bits.div_ceil(64) as usize
    }

    #[inline]
    fn of(&self, idx: usize) -> &[u32] {
        let k = self.params.k as usize;
        &self.positions[idx * k..idx * k + k]
    }

    /// Set bundle `idx`'s bits in `digest`.
    #[inline]
    pub(crate) fn insert(&self, digest: &mut [u64], idx: usize) {
        for &bit in self.of(idx) {
            digest[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Are all of bundle `idx`'s bits set in `digest`?
    #[inline]
    pub(crate) fn contains(&self, digest: &[u64], idx: usize) -> bool {
        self.of(idx)
            .iter()
            .all(|&bit| digest[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Refill `digest` with the OR of the positions of every member of
    /// `members`, reusing its allocation.
    pub(crate) fn fill(&self, digest: &mut Vec<u64>, members: &SummaryVector) {
        digest.clear();
        digest.resize(self.digest_words(), 0);
        for wi in 0..members.word_count() {
            let mut w = members.word(wi);
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                self.insert(digest, wi * 64 + bit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::StoredBundle;
    use crate::bundle::{FlowId, Workload};
    use crate::policy::EvictionPolicy;
    use dtn_mobility::NodeId;
    use dtn_sim::SimTime;

    fn bid(seq: u32) -> BundleId {
        BundleId {
            flow: FlowId(0),
            seq,
        }
    }

    #[test]
    fn insert_contains_len() {
        let mut sv = SummaryVector::empty(130);
        assert!(sv.is_empty());
        for idx in [0usize, 63, 64, 129] {
            sv.insert(idx);
            assert!(sv.contains(idx));
        }
        assert!(!sv.contains(1));
        assert_eq!(sv.len(), 4);
    }

    #[test]
    fn spill_storage_works_past_the_inline_block() {
        // INLINE_WORDS * 64 = 512 bits inline; 600 forces a heap spill.
        let mut sv = SummaryVector::empty(600);
        for idx in [0usize, 511, 512, 599] {
            sv.insert(idx);
            assert!(sv.contains(idx));
        }
        assert_eq!(sv.len(), 4);
        assert!(!sv.contains(513));
        let mut other = SummaryVector::empty(600);
        other.insert(599);
        let missing: Vec<usize> = sv.difference(&other).collect();
        assert_eq!(missing, vec![0, 511, 512]);
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut sv = SummaryVector::empty(600);
        sv.insert(0);
        sv.insert(599);
        sv.reset(50);
        assert_eq!(sv.capacity(), 50);
        assert!(sv.is_empty());
        sv.insert(49);
        assert_eq!(sv.len(), 1);
        // Growing again after shrinking still works.
        sv.reset(700);
        assert!(sv.is_empty());
        sv.insert(699);
        assert!(sv.contains(699));
    }

    #[test]
    fn reset_releases_stale_spill_capacity() {
        // Regression: a scratch vector sized for a huge workload used to
        // keep its peak spill capacity forever once the workload shrank
        // back below the inline block (trace-cache reuse across sweep
        // points made this a process-lifetime leak).
        let mut sv = SummaryVector::empty(100_000);
        assert!(sv.spill.capacity() >= 100_000 / 64 - INLINE_WORDS);
        sv.reset(10);
        assert_eq!(
            sv.spill.capacity(),
            0,
            "stale spill capacity survived reset"
        );
        // Shrinking to a still-spilled size keeps only what that size needs.
        sv.reset(100_000);
        sv.reset(64 * (INLINE_WORDS as u32 + 2));
        assert_eq!(sv.spill.capacity(), 2);
        assert_eq!(sv.spill.len(), 2);
    }

    #[test]
    fn equality_ignores_storage_history() {
        // A vector that once spilled and was reset compares equal to a
        // freshly built one of the same size and contents.
        let mut recycled = SummaryVector::empty(600);
        recycled.insert(599);
        recycled.reset(10);
        recycled.insert(3);
        let mut fresh = SummaryVector::empty(10);
        fresh.insert(3);
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn difference_enumerates_missing() {
        let mut a = SummaryVector::empty(200);
        let mut b = SummaryVector::empty(200);
        for idx in [1usize, 5, 70, 150] {
            a.insert(idx);
        }
        b.insert(5);
        b.insert(150);
        let missing: Vec<usize> = a.difference(&b).collect();
        assert_eq!(missing, vec![1, 70]);
        // Symmetric check: b has nothing a lacks.
        assert_eq!(b.difference(&a).count(), 0);
    }

    #[test]
    fn union_absorbs() {
        let mut a = SummaryVector::empty(10);
        let mut b = SummaryVector::empty(10);
        a.insert(1);
        b.insert(7);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(7));
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different workloads")]
    fn mismatched_sizes_panic() {
        let a = SummaryVector::empty(10);
        let b = SummaryVector::empty(20);
        let _ = a.difference(&b).count();
    }

    #[test]
    fn of_node_covers_all_three_stores() {
        let workload = Workload::single_flow(NodeId(1), NodeId(0), 8, 2);
        let mut node = Node::new(NodeId(0), 10, None);
        node.buffer.insert(
            StoredBundle {
                id: bid(2),
                ec: 0,
                stored_at: SimTime::ZERO,
                expires_at: SimTime::MAX,
            },
            EvictionPolicy::RejectNew,
        );
        node.origin.insert(
            StoredBundle {
                id: bid(5),
                ec: 0,
                stored_at: SimTime::ZERO,
                expires_at: SimTime::MAX,
            },
            EvictionPolicy::RejectNew,
        );
        node.trackers.entry(FlowId(0)).or_default().record(7);
        let sv = SummaryVector::of_node(&node, &workload);
        assert!(sv.contains(2), "relay copy");
        assert!(sv.contains(5), "origin copy");
        assert!(sv.contains(7), "delivered bundle");
        assert_eq!(sv.len(), 3);
    }

    #[test]
    fn of_node_matches_has_bundle() {
        // The summary vector and Node::has_bundle must agree bundle by
        // bundle — they are two views of the same membership.
        let workload = Workload::single_flow(NodeId(1), NodeId(0), 20, 2);
        let mut node = Node::new(NodeId(0), 10, None);
        for seq in [0u32, 3, 9, 19] {
            node.buffer.insert(
                StoredBundle {
                    id: bid(seq),
                    ec: 0,
                    stored_at: SimTime::ZERO,
                    expires_at: SimTime::MAX,
                },
                EvictionPolicy::RejectNew,
            );
        }
        let sv = SummaryVector::of_node(&node, &workload);
        for id in workload.bundle_ids() {
            assert_eq!(
                sv.contains(workload.bundle_index(id)),
                node.has_bundle(id),
                "disagreement on {id}"
            );
        }
    }

    #[test]
    fn refill_equals_of_node_with_out_of_order_deliveries() {
        let workload = Workload::single_flow(NodeId(1), NodeId(0), 12, 2);
        let mut node = Node::new(NodeId(0), 10, None);
        // Out-of-order deliveries: frontier stalls at 0 with pending 3, 7.
        let tracker = node.trackers.entry(FlowId(0)).or_default();
        tracker.record(3);
        tracker.record(7);
        let fresh = SummaryVector::of_node(&node, &workload);
        let mut recycled = SummaryVector::empty(600);
        recycled.insert(42);
        recycled.refill_from_node(&node, &workload);
        assert_eq!(fresh, recycled);
        assert!(fresh.contains(3) && fresh.contains(7) && !fresh.contains(0));
    }

    #[test]
    fn bloom_params_match_marandi_formula() {
        // n = 50, p = 0.01: m = ceil(50 * 9.5850…) = 480, k = round(6.66) = 7.
        let p = bloom_params(50, 0.01);
        assert_eq!(p.m_bits, 480);
        assert_eq!(p.k, 7);
        assert_eq!(p.wire_bytes(), 60);
        // n = 50, p = 0.1: m = ceil(50 * 4.7925…) = 240, k = round(3.33) = 3.
        let p = bloom_params(50, 0.1);
        assert_eq!(p.m_bits, 240);
        assert_eq!(p.k, 3);
        assert_eq!(p.wire_bytes(), 30);
        // Degenerate inputs stay well-formed.
        let p = bloom_params(0, 0.5);
        assert!(p.m_bits >= 1 && p.k >= 1);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bf = BloomFilter::for_expected(64, 0.01);
        for member in 0..64u64 {
            bf.insert(member);
            assert!(bf.contains(member), "false negative on {member}");
        }
        for member in 0..64u64 {
            assert!(bf.contains(member), "false negative on {member} after fill");
        }
    }

    #[test]
    fn bloom_union_absorbs_and_geometry_is_checked() {
        let mut a = BloomFilter::for_expected(32, 0.05);
        let mut b = BloomFilter::for_expected(32, 0.05);
        a.insert(1);
        b.insert(20);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(20));
        // Idempotent: re-merging changes nothing.
        let snapshot = a.clone();
        a.union_with(&snapshot);
        assert_eq!(a, snapshot);
    }

    #[test]
    #[should_panic(expected = "different geometries")]
    fn bloom_union_rejects_mismatched_geometry() {
        let mut a = BloomFilter::for_expected(32, 0.05);
        let b = BloomFilter::for_expected(512, 0.05);
        a.union_with(&b);
    }

    /// Every load the table must cover: one bundle, sub-word, the
    /// paper's maximum, the one- and two-word boundary, and a spilled
    /// summary vector.
    const TABLE_LOADS: [u32; 6] = [1, 5, 50, 64, 65, 600];
    const TABLE_FP_RATES: [f64; 3] = [0.01, 0.1, 0.5];

    #[test]
    fn table_sets_exactly_the_bits_the_filter_sets() {
        let mut table = BloomTable::default();
        for total in TABLE_LOADS {
            for fp in TABLE_FP_RATES {
                table.prepare(total, fp);
                assert_eq!(table.params(), bloom_params(total, fp));
                for idx in 0..total as usize {
                    let mut filter = BloomFilter::new(table.params());
                    filter.insert(idx as u64);
                    let mut digest = vec![0; table.digest_words()];
                    table.insert(&mut digest, idx);
                    assert_eq!(digest, filter.words, "load {total}, fp {fp}, bundle {idx}");
                }
            }
        }
        // A smaller geometry does not keep the larger table's allocation.
        table.prepare(5, 0.5);
        assert_eq!(table.positions.capacity(), table.positions.len());
    }

    #[test]
    fn digest_agrees_with_the_filter_on_random_member_sets() {
        let mut rng = dtn_sim::SimRng::new(0xB1004);
        let mut table = BloomTable::default();
        let mut digest = Vec::new();
        for total in TABLE_LOADS {
            for fp in TABLE_FP_RATES {
                table.prepare(total, fp);
                for density in [0.05, 0.3, 0.9] {
                    let mut members = SummaryVector::empty(total);
                    let mut filter = BloomFilter::new(table.params());
                    for idx in 0..total as usize {
                        if rng.bernoulli(density) {
                            members.insert(idx);
                            filter.insert(idx as u64);
                        }
                    }
                    table.fill(&mut digest, &members);
                    assert_eq!(digest, filter.words, "load {total}, fp {fp}");
                    for idx in 0..total as usize {
                        assert_eq!(
                            table.contains(&digest, idx),
                            filter.contains(idx as u64),
                            "load {total}, fp {fp}, bundle {idx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bloom_reset_releases_stale_capacity() {
        // Same policy as SummaryVector::reset: a filter reused across
        // geometries must not pin its largest-ever allocation.
        let mut bf = BloomFilter::for_expected(100_000, 0.001);
        let large_words = bf.words.len();
        assert!(large_words > 1_000);
        bf.reset(bloom_params(50, 0.1));
        assert_eq!(bf.words.capacity(), bf.words.len());
        assert!(bf.is_empty());
    }
}
