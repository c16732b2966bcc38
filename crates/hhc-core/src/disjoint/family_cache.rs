//! Bounded cache of canonical disjoint-path families.
//!
//! `HHC(m)` is vertex-transitive under cube-field translation: for any
//! mask `A`, the map `(X, Y) ↦ (X ⊕ A, Y)` is an automorphism (internal
//! edges ignore the cube field; the external edge at `(X, Y)` flips cube
//! bit `Y` on both sides). The whole construction is equivariant under
//! it — plan selection reads only `dx = Xu ⊕ Xv`, `Yu`, `Yv`, `m` and the
//! crossing order; fans run in son-cube coordinates; assembly threads the
//! cube field through XORs only. So the family for `(u, v)` is the family
//! for the canonical pair `((0, Yu), (dx, Yv))` with every node
//! translated by `Xu`, and one cached solve serves all `2^{2^m}`
//! translated instances of its signature.
//!
//! Eviction is generation-swept: two generations ("hot" and "cold");
//! lookups probe hot then cold (promoting on a cold hit); a full hot map
//! becomes the new cold map and the previous cold generation is
//! dropped. Bounded memory (≤ 2 × capacity entries), amortised O(1),
//! approximately LRU, with no per-entry bookkeeping on the hot path.
//!
//! Entries also carry the rotation/detour plan counts of the cached
//! family so metric conservation laws (`rotation_plans + detour_plans =
//! degree × cross_cube + same_cube`) survive cache replays, and the
//! family's cube-offset **span**: the OR of `Xw ⊕ Xu` over its nodes
//! (`2^m ≤ 64` positions, so one word). Translation leaves offsets
//! unchanged, so one span serves every replay of the entry. A fault `w`
//! can lie on the replayed family only if `(Xw ⊕ Xu) & !span == 0`; the
//! fault-avoiding layer tests each live fault against it before it
//! probes a single node.
//!
//! This module owns the entry format for both family tiers: the shared
//! L2 ([`SharedFamilyCache`](crate::SharedFamilyCache)) keeps the same
//! `FamilyEntry` values in the same two-generation `FamilyMap`, one
//! map per lock stripe, and replays them the same way. The L2 does not
//! promote on a cold hit, so a probe needs only its stripe's read lock.
//!
//! A builder consults exactly one tier per query: its own
//! [`FamilyCache`] when it has no L2 attached (the batch engine, the
//! simulator's route scratch, an L2-disabled router), the L2 otherwise
//! — then its own cache is never probed nor stored into.

use super::CrossingOrder;
use crate::pathset::PathSet;
use std::collections::HashMap;

/// Default hot-generation capacity. An HHC(5) family entry is a few
/// kilobytes, so the default bounds a per-worker cache at single-digit
/// megabytes while covering typical repeated-pattern workloads.
pub const DEFAULT_FAMILY_CACHE_CAPACITY: usize = 1024;

/// Adaptive-bypass warm-up: the cache never latches probe-only before it
/// has seen this many probes (a cold cache always starts at a 0% hit
/// rate; that is not evidence the workload lacks reuse).
pub const BYPASS_MIN_PROBES: u64 = 512;

/// Adaptive-bypass hit-rate floor: below this lifetime hit rate the
/// cache is judged useless for the running workload (uniform-random
/// pairs on a large address space re-key almost every query).
pub const BYPASS_HIT_FLOOR: f64 = 0.05;

/// Adaptive-bypass streak: probe-only additionally requires this many
/// consecutive misses, so a workload that alternates phases of reuse
/// and churn is not punished for one cold burst.
pub const BYPASS_CONSEC_MISSES: u64 = 256;

/// Capacity of the family cache carried by a
/// [`PathBuilder`](crate::PathBuilder). Capacity 0 disables it
/// (identical results, no memoisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Hot-generation capacity of the canonical family cache.
    pub family_capacity: usize,
}

impl CacheConfig {
    /// The family cache at its default capacity (the `PathBuilder`
    /// default).
    pub fn enabled() -> Self {
        CacheConfig {
            family_capacity: DEFAULT_FAMILY_CACHE_CAPACITY,
        }
    }

    /// The family cache disabled: every query is solved from scratch.
    /// The reference mode for equivalence testing and ablation
    /// benchmarks.
    pub fn disabled() -> Self {
        CacheConfig { family_capacity: 0 }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::enabled()
    }
}

/// Cache key: everything the construction output depends on besides the
/// translation mask. `dx` occupies the low 64 bits (positions `2^m ≤ 64`),
/// then `Yu`, `Yv`, `m` and the crossing order in separate bytes.
pub(crate) fn family_key(m: u32, dx: u128, yu: u32, yv: u32, order: CrossingOrder) -> u128 {
    debug_assert!(dx < 1u128 << 64 && yu < 64 && yv < 64 && m <= 6);
    let order_bit = match order {
        CrossingOrder::Gray => 0u128,
        CrossingOrder::Sorted => 1,
    };
    dx | (yu as u128) << 64 | (yv as u128) << 72 | (m as u128) << 80 | order_bit << 88
}

/// What a replay reports next to the family it appended:
/// `(rotations, detours, span)` — the plan counts the family was built
/// from and its cube-offset span (see the module docs).
pub(crate) type Replayed = (u64, u64, u64);

/// The cube-offset span of `set`, a family of `HHC(m)` whose source
/// cube field `Xu` sits in `mask = Xu << m`: the OR over its nodes of
/// `Xw ⊕ Xu`. [`FamilyEntry::canonical`] computes the same word in its
/// canonicalising pass; this is for families no tier stores.
pub(crate) fn family_span(m: u32, mask: u128, set: &PathSet) -> u64 {
    let or = set
        .iter()
        .flatten()
        .fold(0u128, |acc, v| acc | (v.raw() ^ mask));
    (or >> m) as u64
}

/// One cached canonical family: the CSR path set for `Xu = 0`, plus the
/// plan counts it was built from and its cube-offset span. The one
/// entry format of both family tiers: the per-builder [`FamilyCache`]
/// and the shared L2 ([`SharedFamilyCache`](crate::SharedFamilyCache)).
#[derive(Debug)]
pub(crate) struct FamilyEntry {
    nodes: Box<[u128]>,
    offsets: Box<[u32]>,
    rotations: u64,
    detours: u64,
    span: u64,
}

impl FamilyEntry {
    /// Canonicalises `set` (a fresh construction on `HHC(m)` for some
    /// pair with translation mask `mask`) to `Xu = 0` by XOR-ing `mask`
    /// back out, OR-ing the canonical words into the span on the way.
    pub(crate) fn canonical(
        m: u32,
        mask: u128,
        set: &PathSet,
        rotations: u64,
        detours: u64,
    ) -> Self {
        let mut nodes = Vec::with_capacity(set.total_nodes());
        let mut offsets = Vec::with_capacity(set.len() + 1);
        offsets.push(0u32);
        let mut or = 0u128;
        for path in set.iter() {
            nodes.extend(path.iter().map(|v| {
                let w = v.raw() ^ mask;
                or |= w;
                w
            }));
            offsets.push(nodes.len() as u32);
        }
        FamilyEntry {
            nodes: nodes.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            rotations,
            detours,
            span: (or >> m) as u64,
        }
    }

    /// The entry's cube-offset span.
    pub(crate) fn span(&self) -> u64 {
        self.span
    }

    /// Appends the family translated by `mask` to `out` and returns its
    /// plan counts and span — byte-identical to what the construction
    /// that stored it produced, by the equivariance argument of the
    /// module docs.
    #[inline]
    pub(crate) fn replay(&self, mask: u128, out: &mut PathSet) -> Replayed {
        out.extend_csr_xor(&self.nodes, &self.offsets, mask);
        (self.rotations, self.detours, self.span)
    }
}

/// The bounded two-generation map both family tiers keep their entries
/// in (see the module docs): at most `2 × capacity` entries; capacity 0
/// holds nothing.
#[derive(Debug)]
pub(crate) struct FamilyMap {
    capacity: usize,
    hot: HashMap<u128, FamilyEntry>,
    cold: HashMap<u128, FamilyEntry>,
    sweeps: u64,
}

impl FamilyMap {
    pub(crate) fn new(capacity: usize) -> Self {
        FamilyMap {
            capacity,
            hot: HashMap::new(),
            cold: HashMap::new(),
            sweeps: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    pub(crate) fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }

    fn make_room(&mut self) {
        if self.hot.len() >= self.capacity {
            self.cold = std::mem::take(&mut self.hot);
            self.sweeps += 1;
        }
    }

    /// Probes hot then cold, without promotion.
    pub(crate) fn get(&self, key: u128) -> Option<&FamilyEntry> {
        self.hot.get(&key).or_else(|| self.cold.get(&key))
    }

    /// Probes hot then cold, moving a cold hit into the hot generation.
    fn get_promote(&mut self, key: u128) -> Option<&FamilyEntry> {
        if self.hot.contains_key(&key) {
            return self.hot.get(&key);
        }
        let e = self.cold.remove(&key)?;
        self.make_room();
        Some(self.hot.entry(key).or_insert(e))
    }

    /// Inserts `entry` into the hot generation, sweeping first if it is
    /// full. A key already present in either generation keeps its
    /// entry: constructions are deterministic, so a second store of a
    /// key carries identical bytes.
    pub(crate) fn insert(&mut self, key: u128, entry: FamilyEntry) {
        if self.capacity == 0 || self.get(key).is_some() {
            return;
        }
        self.make_room();
        self.hot.insert(key, entry);
    }
}

/// Bounded, generation-swept cache of canonical disjoint-path families;
/// see the module docs. Owned per [`PathBuilder`](crate::PathBuilder),
/// so batch workers never contend on it.
#[derive(Debug)]
pub struct FamilyCache {
    map: FamilyMap,
    // Adaptive bypass: lifetime probe/hit accounting. When the hit rate
    // stays under `BYPASS_HIT_FLOOR` after `BYPASS_MIN_PROBES` probes
    // and the cache has just missed `BYPASS_CONSEC_MISSES` times in a
    // row, it latches `probe_only`: stored entries keep replaying but
    // no new ones are inserted, so a churn workload (uniform-random
    // pairs over a huge key space) stops paying the canonicalise-and-
    // copy cost of `store` on every query. The transition is one-way
    // for the cache's lifetime — `clear` drops entries, not the latch.
    probes: u64,
    hits: u64,
    consec_misses: u64,
    probe_only: bool,
    bypass_events: u64,
}

impl FamilyCache {
    pub fn new(capacity: usize) -> Self {
        FamilyCache {
            map: FamilyMap::new(capacity),
            probes: 0,
            hits: 0,
            consec_misses: 0,
            probe_only: false,
            bypass_events: 0,
        }
    }

    /// Hot-generation capacity this cache was built with.
    pub fn capacity(&self) -> usize {
        self.map.capacity
    }

    /// Entries currently retained (both generations).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Generation sweeps performed so far.
    pub fn sweeps(&self) -> u64 {
        self.map.sweeps
    }

    /// Lifetime replay probes (capacity-0 caches never account).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Lifetime replay hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Whether the adaptive bypass has latched: the cache still replays
    /// existing entries but no longer inserts new ones.
    pub fn probe_only(&self) -> bool {
        self.probe_only
    }

    /// Number of probe-only transitions over this cache's lifetime
    /// (0 or 1 per cache; summed across workers in merged metrics).
    pub fn bypass_events(&self) -> u64 {
        self.bypass_events
    }

    /// Drops all entries, keeping the capacity.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// On a hit, appends the cached family translated by `mask` to `out`
    /// (which must be cleared) and returns its plan counts and span.
    /// Every call on an enabled cache counts as one probe for the
    /// adaptive bypass; a sustained miss streak at a near-zero hit rate
    /// latches [`Self::probe_only`].
    pub(crate) fn replay(&mut self, key: u128, mask: u128, out: &mut PathSet) -> Option<Replayed> {
        if self.map.capacity == 0 {
            return None;
        }
        self.probes += 1;
        let replayed = self.map.get_promote(key).map(|e| e.replay(mask, out));
        if replayed.is_some() {
            self.hits += 1;
            self.consec_misses = 0;
        } else {
            self.consec_misses += 1;
            if !self.probe_only
                && self.probes >= BYPASS_MIN_PROBES
                && self.consec_misses >= BYPASS_CONSEC_MISSES
                && (self.hits as f64) < BYPASS_HIT_FLOOR * self.probes as f64
            {
                self.probe_only = true;
                self.bypass_events += 1;
            }
        }
        replayed
    }

    /// Stores the family in `set` (a fresh construction on `HHC(m)` for
    /// some pair with translation mask `mask`) under `key`, canonicalised
    /// to `Xu = 0`. Returns the span the canonicalising pass computed,
    /// or `None` when the cache stores nothing (capacity 0 or latched
    /// probe-only).
    pub(crate) fn store(
        &mut self,
        key: u128,
        m: u32,
        mask: u128,
        set: &PathSet,
        rotations: u64,
        detours: u64,
    ) -> Option<u64> {
        if self.map.capacity == 0 || self.probe_only {
            return None;
        }
        let entry = FamilyEntry::canonical(m, mask, set, rotations, detours);
        let span = entry.span();
        self.map.insert(key, entry);
        Some(span)
    }
}

impl Default for FamilyCache {
    fn default() -> Self {
        FamilyCache::new(DEFAULT_FAMILY_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn keys_separate_every_component() {
        let mut keys = std::collections::HashSet::new();
        for (m, dx, yu, yv, order) in [
            (3u32, 0b101u128, 1u32, 2u32, CrossingOrder::Gray),
            (3, 0b101, 1, 2, CrossingOrder::Sorted),
            (3, 0b101, 2, 1, CrossingOrder::Gray),
            (3, 0b100, 1, 2, CrossingOrder::Gray),
            (4, 0b101, 1, 2, CrossingOrder::Gray),
        ] {
            assert!(keys.insert(family_key(m, dx, yu, yv, order)));
        }
    }

    #[test]
    fn store_replay_round_trips_translation() {
        let mut cache = FamilyCache::new(8);
        let mut set = PathSet::new();
        for p in [[5u128, 7, 9], [5, 6, 9]] {
            for raw in p {
                set.push_node(NodeId::from_raw(raw));
            }
            set.finish_path();
        }
        // As a family of HHC(1): cube field = raw >> 1.
        assert_eq!(cache.store(1, 1, 4, &set, 2, 1), Some(0b111));
        // Replaying with a different mask translates node-wise.
        let mut out = PathSet::new();
        let (nr, nd, span) = cache.replay(1, 8, &mut out).unwrap();
        assert_eq!((nr, nd), (2, 1));
        // Canonical words 1, 3, 13, 1, 2, 13: cube offsets 0, 1, 6, 0, 1, 6.
        assert_eq!(span, 0b111);
        assert_eq!(family_span(1, 4, &set), span, "both span passes agree");
        let expect: Vec<u128> = [5u128, 7, 9, 5, 6, 9].iter().map(|r| r ^ 4 ^ 8).collect();
        let got: Vec<u128> = out.iter().flatten().map(|v| v.raw()).collect();
        assert_eq!(got, expect);
        assert!(cache.replay(2, 0, &mut PathSet::new()).is_none());
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut cache = FamilyCache::new(0);
        let mut set = PathSet::new();
        set.push_node(NodeId::from_raw(3));
        set.finish_path();
        assert_eq!(cache.store(1, 1, 0, &set, 0, 1), None);
        assert!(cache.replay(1, 0, &mut PathSet::new()).is_none());
        assert!(cache.is_empty());
        // A disabled cache does no bypass accounting either.
        assert_eq!(cache.probes(), 0);
        assert!(!cache.probe_only());
    }

    fn one_path_set() -> PathSet {
        let mut set = PathSet::new();
        set.push_node(NodeId::from_raw(3));
        set.finish_path();
        set
    }

    #[test]
    fn bypass_latches_after_sustained_misses_and_stops_inserting() {
        let mut cache = FamilyCache::new(8);
        let set = one_path_set();
        // An entry stored before the latch keeps replaying after it.
        cache.store(u128::MAX, 1, 0, &set, 1, 0);
        let mut out = PathSet::new();
        for key in 0..BYPASS_MIN_PROBES as u128 {
            assert!(cache.replay(key, 0, &mut out).is_none());
        }
        assert!(cache.probe_only(), "miss streak should latch probe-only");
        assert_eq!(cache.bypass_events(), 1);
        assert_eq!(cache.probes(), BYPASS_MIN_PROBES);
        // Latched: store is a no-op...
        let before = cache.len();
        assert_eq!(cache.store(42, 1, 0, &set, 0, 1), None);
        assert_eq!(cache.len(), before);
        assert!(cache.replay(42, 0, &mut out).is_none());
        // ...but pre-latch entries still hit, and the event count stays 1.
        assert!(cache.replay(u128::MAX, 0, &mut out).is_some());
        assert_eq!(cache.bypass_events(), 1);
    }

    #[test]
    fn bypass_never_latches_while_the_cache_is_useful() {
        let mut cache = FamilyCache::new(8);
        cache.store(7, 1, 0, &one_path_set(), 1, 0);
        let mut out = PathSet::new();
        for _ in 0..4 * BYPASS_MIN_PROBES {
            assert!(cache.replay(7, 0, &mut out).is_some());
        }
        assert!(!cache.probe_only());
        assert_eq!(cache.bypass_events(), 0);
        assert_eq!(cache.hits(), cache.probes());
    }
}
