//! The family cache: bounded, lock-striped maps of hop-coded
//! disjoint-path families.
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
//! ## Hop-coded entries
//!
//! Every edge of `HHC(m)` flips exactly one address bit: bit `i < m` on
//! the internal edge of dimension `i`, bit `m + Y` on the external edge
//! at node field `Y`. Translation does not change which bit a hop
//! flips, and every path of a family starts at `u`. So an entry stores,
//! per path, one byte per hop (the bit it flips, below `m + 2^m ≤ 70`)
//! and a `u16` end offset; a replay decodes the hops from the query's
//! own `u`. An HHC(5) family of about 265 hops is about 280 bytes
//! where its 260 node words are 4,160.
//!
//! Entries also carry the rotation/detour plan counts of the cached
//! family so metric conservation laws (`rotation_plans + detour_plans =
//! degree × cross_cube + same_cube`) survive cache replays, and the
//! family's cube-offset **span**: the OR of `Xw ⊕ Xu` over its nodes
//! (`2^m ≤ 64` positions, so one word). It is the OR of the cube bits
//! the family's external hops flip: each path starts at offset 0, so a
//! bit's first flip on a path sets it. Translation leaves offsets
//! unchanged, so one span serves every replay of the entry. A fault `w`
//! can lie on the replayed family only if `(Xw ⊕ Xu) & !span == 0`; the
//! fault-avoiding layer tests each live fault against it before it
//! probes a single node.
//!
//! ## One type, used two ways
//!
//! [`SharedFamilyCache`] is the only cache type. Every
//! [`PathBuilder`](crate::PathBuilder) holds one and consults it alone:
//!
//! * a **private tier** — one stripe of [`CacheConfig::family_capacity`],
//!   built by the builder itself (the batch engine, the simulator's
//!   route scratch, the workers of a router whose L2 has no capacity);
//! * the **shared L2** — [`L2Config::shards`] stripes behind one `Arc`,
//!   attached in place of the private tier by
//!   [`PathBuilder::attach_shared_cache`](crate::PathBuilder::attach_shared_cache)
//!   (every worker of a [`Router`](crate::Router)).
//!
//! Both have one entry format, one map, one replay path and one store
//! path; they differ only in geometry and in which counter a hit ticks.
//!
//! ## Striped generation maps
//!
//! The key space is split across the stripes, each an `RwLock` over a
//! bounded two-generation map ("hot" and "cold"):
//!
//! * A probe takes its stripe's read lock, looks in hot then cold and,
//!   on a hit, decodes the entry's hops straight into the caller's
//!   [`PathSet`] while the lock is held — no clone, no allocation.
//!   Readers never block each other.
//! * A store encodes its entry outside the lock, then takes the write
//!   lock for one insert. When the hot map is full it becomes the
//!   cold map and the previous cold generation is dropped. A key that is
//!   already present keeps its entry: racing writers of one key carry
//!   identical bytes, because construction is deterministic.
//! * There is no cold→hot promotion on a hit. Promotion would put a
//!   write lock on the read path; a hot key that a sweep drops is
//!   constructed once more and stored again.
//!
//! Each stripe holds at most `2 × shard_capacity` entries: bounded
//! memory, amortised O(1), approximately LRU, with no per-entry
//! bookkeeping on the hot path.
//!
//! ## Second-sighting admission (the shared L2)
//!
//! A family seen once is never replayed, so the L2 stores a miss on its
//! key's second sighting. Each stripe keeps a direct-mapped table of
//! `shard_capacity` 64-bit key fingerprints (TinyLFU's doorkeeper): a
//! miss swaps its fingerprint into its slot, lock-free, and is stored
//! only if that fingerprint was already there. A colliding key evicts
//! it, so a sighting can be forgotten but not invented (barring a 64-bit
//! fingerprint collision, which only stores an exact entry early).
//! [`SharedFamilyCache::flush`] clears the table. A private tier has no
//! doorkeeper and stores every construction.

use super::CrossingOrder;
use crate::node::NodeId;
use crate::pathset::PathSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default hot-generation capacity of a private tier. An HHC(5) family
/// entry is about 280 bytes of hops, so the default bounds a builder's
/// own tier at under a megabyte while covering typical repeated-pattern
/// workloads.
pub const DEFAULT_FAMILY_CACHE_CAPACITY: usize = 1024;

/// Default stripe count of the shared L2 (rounded up to a power of two
/// internally).
pub const DEFAULT_L2_SHARDS: usize = 16;

/// Default hot-generation capacity per L2 stripe, and the length of the
/// stripe's sightings table (see the module docs). With the default 16
/// stripes this bounds the L2 at `2 × 16 × 1024` entries — about ten
/// megabytes of HHC(5) families, shared by every worker — and holds
/// `16 × 1024` fingerprints in 128 KiB.
pub const DEFAULT_L2_SHARD_CAPACITY: usize = 1024;

/// Capacity of the private tier a [`PathBuilder`](crate::PathBuilder)
/// builds for itself: one stripe of `family_capacity`. Capacity 0
/// disables it (identical results, no memoisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Hot-generation capacity of the builder's private tier.
    pub family_capacity: usize,
}

impl CacheConfig {
    /// The private tier at its default capacity (the `PathBuilder`
    /// default).
    pub fn enabled() -> Self {
        CacheConfig {
            family_capacity: DEFAULT_FAMILY_CACHE_CAPACITY,
        }
    }

    /// The private tier disabled: every query is solved from scratch.
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

/// Geometry of a shared [`SharedFamilyCache`]. `shard_capacity = 0`
/// disables it (probes and stores become no-ops), mirroring
/// [`CacheConfig`] capacity-0 semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// `RwLock` stripes; rounded up to a power of two, at least 1.
    /// Readers of one stripe share its read lock; a store holds the
    /// write lock of its key's stripe only.
    pub shards: usize,
    /// Hot-generation capacity of each stripe.
    pub shard_capacity: usize,
}

impl L2Config {
    /// The default enabled geometry.
    pub fn enabled() -> Self {
        L2Config {
            shards: DEFAULT_L2_SHARDS,
            shard_capacity: DEFAULT_L2_SHARD_CAPACITY,
        }
    }

    /// An inert tier: every probe misses, every store is dropped. The
    /// reference mode for the per-worker-cache-only baseline.
    pub fn disabled() -> Self {
        L2Config {
            shards: 1,
            shard_capacity: 0,
        }
    }
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config::enabled()
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

/// The cube-offset span of the family in `set` past its first `base`
/// paths, a family of `HHC(m)` whose source cube field `Xu` sits in
/// `mask = Xu << m`: the OR over its nodes of `Xw ⊕ Xu`.
/// [`FamilyEntry::encode`] computes the same word from the hops; this is
/// for families a tier does not store.
pub(crate) fn family_span(m: u32, mask: u128, set: &PathSet, base: usize) -> u64 {
    let or = set
        .paths(base..set.len())
        .flatten()
        .fold(0u128, |acc, v| acc | (v.raw() ^ mask));
    (or >> m) as u64
}

/// One cached family as hop codes (see the module docs), plus the plan
/// counts it was built from and its cube-offset span.
#[derive(Debug)]
pub(crate) struct FamilyEntry {
    /// Per hop, the address bit it flips.
    hops: Box<[u8]>,
    /// Per path, the end of its hops in `hops`.
    ends: Box<[u16]>,
    rotations: u64,
    detours: u64,
    span: u64,
}

impl FamilyEntry {
    /// Encodes the family in `set` past its first `base` paths, a fresh
    /// construction on `HHC(m)` whose paths all start at the query's
    /// source, as the bits its hops flip, OR-ing the external hops' cube
    /// bits into the span on the way.
    pub(crate) fn encode(m: u32, set: &PathSet, base: usize, rotations: u64, detours: u64) -> Self {
        let paths = set.len() - base;
        let hop_count = set.paths(base..set.len()).map(|p| p.len() - 1).sum();
        let mut hops = Vec::with_capacity(hop_count);
        let mut ends = Vec::with_capacity(paths);
        let mut span = 0u64;
        for path in set.paths(base..set.len()) {
            debug_assert_eq!(path.first(), set.path(base).first(), "paths share a source");
            hops.extend(path.windows(2).map(|w| {
                let flip = w[0].raw() ^ w[1].raw();
                debug_assert!(flip.is_power_of_two(), "a hop flips exactly one bit");
                let h = flip.trailing_zeros();
                if h >= m {
                    span |= 1 << (h - m);
                }
                h as u8
            }));
            ends.push(u16::try_from(hops.len()).expect("a family has under 2^16 hops"));
        }
        debug_assert!(
            paths == 0 || {
                let mask = set.path(base)[0].raw() >> m << m;
                span == family_span(m, mask, set, base)
            },
            "the hops' span is the node pass's"
        );
        FamilyEntry {
            hops: hops.into_boxed_slice(),
            ends: ends.into_boxed_slice(),
            rotations,
            detours,
            span,
        }
    }

    /// The entry's cube-offset span.
    pub(crate) fn span(&self) -> u64 {
        self.span
    }

    /// Appends the family decoded from the query's source `u` to `out`
    /// and returns its plan counts and span — byte-identical to what
    /// constructing the query's pair produces, by the equivariance
    /// argument of the module docs.
    #[inline]
    pub(crate) fn replay(&self, u: NodeId, out: &mut PathSet) -> Replayed {
        out.extend_hops(u, &self.hops, &self.ends);
        (self.rotations, self.detours, self.span)
    }
}

/// One stripe's bounded two-generation map (see the module docs): at
/// most `2 × capacity` entries; capacity 0 holds nothing.
#[derive(Debug)]
struct FamilyMap {
    capacity: usize,
    hot: HashMap<u128, FamilyEntry>,
    cold: HashMap<u128, FamilyEntry>,
}

impl FamilyMap {
    fn new(capacity: usize) -> Self {
        FamilyMap {
            capacity,
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }

    /// Probes hot then cold, without promotion.
    fn get(&self, key: u128) -> Option<&FamilyEntry> {
        self.hot.get(&key).or_else(|| self.cold.get(&key))
    }

    /// Inserts `entry` into the hot generation, sweeping first if it is
    /// full. A key already present in either generation keeps its
    /// entry: constructions are deterministic, so a second store of a
    /// key carries identical bytes.
    fn insert(&mut self, key: u128, entry: FamilyEntry) {
        if self.capacity == 0 || self.get(key).is_some() {
            return;
        }
        if self.hot.len() >= self.capacity {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, entry);
    }
}

/// Splitmix64 finalizer over the folded 128-bit key; its high bits pick
/// the stripe, so dense key families spread across stripes.
#[inline]
fn fold_mix(key: u128) -> u64 {
    let mut z = ((key ^ (key >> 64)) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The family cache: lock-striped two-generation maps of hop-coded
/// families; see the module docs. Used two ways — a builder's private
/// one-stripe tier, or the shared L2 every router worker attaches.
///
/// All methods take `&self`; the type is `Sync` and lives in an
/// [`Arc`](std::sync::Arc), shared by every worker's
/// [`PathBuilder`](crate::PathBuilder) when it is the L2.
#[derive(Debug)]
pub struct SharedFamilyCache {
    stripes: Box<[RwLock<FamilyMap>]>,
    /// Stripe `i`'s key fingerprints (0 = empty) in
    /// `sightings[i × shard_capacity ..][.. shard_capacity]`; empty in a
    /// private tier. See the module docs.
    sightings: Box<[AtomicU64]>,
    stripe_mask: usize,
    shard_capacity: usize,
}

impl SharedFamilyCache {
    /// A shared tier, with the second-sighting doorkeeper.
    pub fn new(cfg: L2Config) -> Self {
        SharedFamilyCache::build(cfg, cfg.shard_capacity)
    }

    /// A builder's private tier: one stripe of `cfg.family_capacity`,
    /// no doorkeeper.
    pub(crate) fn private(cfg: CacheConfig) -> Self {
        let cfg = L2Config {
            shards: 1,
            shard_capacity: cfg.family_capacity,
        };
        SharedFamilyCache::build(cfg, 0)
    }

    fn build(cfg: L2Config, sightings_per_stripe: usize) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        SharedFamilyCache {
            stripes: (0..n)
                .map(|_| RwLock::new(FamilyMap::new(cfg.shard_capacity)))
                .collect(),
            sightings: (0..n * sightings_per_stripe)
                .map(|_| AtomicU64::new(0))
                .collect(),
            stripe_mask: n - 1,
            shard_capacity: cfg.shard_capacity,
        }
    }

    /// Number of shards (power of two).
    pub fn shards(&self) -> usize {
        self.stripes.len()
    }

    /// Hot-generation capacity per shard (0 = inert tier).
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Entries currently retained across all shards and generations.
    pub fn len(&self) -> usize {
        (0..self.stripes.len()).map(|i| self.read(i).len()).sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry in every shard, and every recorded
    /// sighting. Exists for the full-rebuild-on-fault baseline ablation
    /// ([`Router::flush_caches`](crate::Router::flush_caches)); the
    /// serving path never needs it.
    pub fn flush(&self) {
        for i in 0..self.stripes.len() {
            self.write(i).clear();
        }
        for slot in self.sightings.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    #[inline]
    fn stripe_of(&self, key: u128) -> usize {
        (fold_mix(key) >> 32) as usize & self.stripe_mask
    }

    /// Records a sighting of `key`, a miss, and returns whether its
    /// fingerprint already held the key's slot of its stripe's table:
    /// the doorkeeper of second-sighting admission (see the module
    /// docs). Lock-free; `false` on a tier without a table. `Relaxed`
    /// suffices: a fingerprint publishes no other data, and a race only
    /// stores an exact entry one sighting early or late.
    pub(crate) fn sighted_before(&self, key: u128) -> bool {
        if self.sightings.is_empty() {
            return false;
        }
        let mix = fold_mix(key);
        let slot = (mix as u32 as usize) % self.shard_capacity;
        let fingerprint = mix | 1;
        self.sightings[self.stripe_of(key) * self.shard_capacity + slot]
            .swap(fingerprint, Ordering::Relaxed)
            == fingerprint
    }

    // A writer that panicked mid-insert left its map consistent (a
    // sweep or an insert either happened or did not), so poison carries
    // no information here.
    fn read(&self, stripe: usize) -> RwLockReadGuard<'_, FamilyMap> {
        self.stripes[stripe]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self, stripe: usize) -> RwLockWriteGuard<'_, FamilyMap> {
        self.stripes[stripe]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// On a hit, appends the cached family decoded from the query's
    /// source `u` to `out` and returns its plan counts and span —
    /// byte-identical to what a construction from `u` produces, by the
    /// equivariance argument of the module docs. Holds the stripe's read
    /// lock for the decode; allocates nothing once `out` has grown to
    /// the family's size.
    #[inline]
    pub(crate) fn replay(&self, key: u128, u: NodeId, out: &mut PathSet) -> Option<Replayed> {
        if self.shard_capacity == 0 {
            return None;
        }
        self.read(self.stripe_of(key))
            .get(key)
            .map(|e| e.replay(u, out))
    }

    /// Stores the family in `set` past its first `base` paths (a fresh
    /// construction on `HHC(m)`) as hop codes, and returns the span the
    /// encoding pass computed (`None` on an inert tier). The entry is
    /// built before the stripe's write lock is taken; under the lock the
    /// store is one insert, with a generation sweep when the hot map is
    /// full.
    pub(crate) fn store(
        &self,
        key: u128,
        m: u32,
        set: &PathSet,
        base: usize,
        rotations: u64,
        detours: u64,
    ) -> Option<u64> {
        if self.shard_capacity == 0 {
            return None;
        }
        let entry = FamilyEntry::encode(m, set, base, rotations, detours);
        let span = entry.span();
        self.write(self.stripe_of(key)).insert(key, entry);
        Some(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::{disjoint_paths_into, PathBuilder};
    use crate::topology::Hhc;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// The fixture's network, HHC(3).
    const M: u32 = 3;

    /// The span of [`family`]: its paths reach cube offsets 0–3 of 8.
    const SPAN: u64 = 0b0000_1111;

    /// A constructed HHC(3) family (caches off) from `(0x01, 000)` to
    /// `(0x03, 001)`, and its source.
    fn family() -> (PathSet, NodeId) {
        let h = Hhc::new(M).unwrap();
        let (u, v) = (h.node(0x01, 0b000).unwrap(), h.node(0x03, 0b001).unwrap());
        let mut set = PathSet::new();
        let mut b = PathBuilder::with_caches(CacheConfig::disabled());
        disjoint_paths_into(&h, u, v, CrossingOrder::Gray, &mut set, &mut b).unwrap();
        (set, u)
    }

    fn one_stripe(capacity: usize) -> SharedFamilyCache {
        SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: capacity,
        })
    }

    /// Bytes of hops and end offsets the tier holds.
    fn payload_bytes(tier: &SharedFamilyCache) -> usize {
        (0..tier.stripes.len())
            .map(|i| {
                let map = tier.read(i);
                map.hot
                    .values()
                    .chain(map.cold.values())
                    .map(|e| e.hops.len() + 2 * e.ends.len())
                    .sum::<usize>()
            })
            .sum()
    }

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
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 4,
            shard_capacity: 8,
        });
        let h = Hhc::new(M).unwrap();
        let (set, u) = family();
        assert_eq!(l2.store(1, M, &set, 0, 2, 1), Some(SPAN));
        // Replaying from a translated source translates node-wise.
        let t = 0b1011u128 << M;
        let mut out = PathSet::new();
        let (nr, nd, span) = l2.replay(1, NodeId(u.raw() ^ t), &mut out).unwrap();
        assert_eq!((nr, nd, span), (2, 1, SPAN));
        let mask = h.cube_field(u) << M;
        assert_eq!(
            family_span(M, mask, &set, 0),
            span,
            "both span passes agree"
        );
        let expect: Vec<u128> = set.iter().flatten().map(|v| v.raw() ^ t).collect();
        let got: Vec<u128> = out.iter().flatten().map(|v| v.raw()).collect();
        assert_eq!(got, expect);
        let v = set.path(0).last().unwrap();
        let mut direct = PathSet::new();
        let mut b = PathBuilder::with_caches(CacheConfig::disabled());
        let (tu, tv) = (NodeId(u.raw() ^ t), NodeId(v.raw() ^ t));
        disjoint_paths_into(&h, tu, tv, CrossingOrder::Gray, &mut direct, &mut b).unwrap();
        assert_eq!(
            out, direct,
            "a replay is the translated pair's construction"
        );
        assert!(l2.replay(2, u, &mut PathSet::new()).is_none());
    }

    #[test]
    fn store_reads_only_the_family_past_its_base() {
        // A family appended to an arena after other paths is stored and
        // spanned exactly as the same family alone.
        let (set, u) = family();
        let mut arena = PathSet::from_paths(&[vec![NodeId(0xFFF)], vec![]]);
        for p in set.iter() {
            arena.push_path(p);
        }
        let l2 = one_stripe(4);
        assert_eq!(l2.store(1, M, &arena, 2, 2, 1), Some(SPAN));
        let mask = u.raw() >> M << M;
        assert_eq!(family_span(M, mask, &arena, 2), SPAN);
        let mut out = PathSet::new();
        assert_eq!(l2.replay(1, u, &mut out), Some((2, 1, SPAN)));
        assert_eq!(out, set);
    }

    #[test]
    fn hop_entries_are_a_byte_per_hop() {
        // A seeded sample of HHC(5) families, both orders, constructed
        // with caches off and stored in a private tier: each entry holds
        // one byte per hop and two per path, at most 1/15 of the 16 B
        // per node a replay writes.
        let h = Hhc::new(5).unwrap();
        let tier = SharedFamilyCache::private(CacheConfig {
            family_capacity: 1024,
        });
        let mut b = PathBuilder::with_caches(CacheConfig::disabled());
        let (mut set, mut out) = (PathSet::new(), PathSet::new());
        let mut keys = HashSet::new();
        let (mut hops, mut paths, mut replayed) = (0, 0, 0);
        let mut state = 0x5EED_0005_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let u = h.node(next() as u32 as u128, next() as u32 % 32).unwrap();
            let v = h.node(next() as u32 as u128, next() as u32 % 32).unwrap();
            if u == v {
                continue;
            }
            let dx = h.cube_field(u) ^ h.cube_field(v);
            for order in [CrossingOrder::Gray, CrossingOrder::Sorted] {
                disjoint_paths_into(&h, u, v, order, &mut set, &mut b).unwrap();
                let key = family_key(5, dx, h.node_field(u), h.node_field(v), order);
                tier.store(key, 5, &set, 0, 0, 0);
                if keys.insert(key) {
                    hops += set.total_nodes() - set.len();
                    paths += set.len();
                }
                out.clear();
                tier.replay(key, u, &mut out).expect("stored");
                assert_eq!(out, set);
                replayed += out.total_nodes();
            }
        }
        let bytes = payload_bytes(&tier);
        assert_eq!(bytes, hops + 2 * paths);
        assert!(
            15 * bytes <= 16 * replayed,
            "{bytes} B of hops for {replayed} nodes replayed"
        );
    }

    #[test]
    fn reader_sees_stores_published_after_creation() {
        // Every store must be visible to the next replay, whichever
        // stripe it lands in and however many stores that stripe has
        // taken before (32 keys over 2 stripes of capacity 8 also run
        // the generation sweep).
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 8,
        });
        let (set, u) = family();
        let mut out = PathSet::new();
        for key in 0..32u128 {
            assert!(l2.replay(key, u, &mut out).is_none(), "cold tier misses");
            l2.store(key, M, &set, 0, key as u64, 0);
            out.clear();
            assert_eq!(
                l2.replay(key, u, &mut out).expect("store is visible"),
                (key as u64, 0, SPAN)
            );
            out.clear();
        }
    }

    #[test]
    fn stale_snapshot_is_refreshed_not_resurrected() {
        // After a flush, replays must stop returning dropped entries,
        // and a later store of the same key must be served again.
        let l2 = one_stripe(8);
        let (set, u) = family();
        l2.store(7, M, &set, 0, 1, 0);
        let mut out = PathSet::new();
        assert!(l2.replay(7, u, &mut out).is_some());
        l2.flush();
        out.clear();
        assert!(l2.replay(7, u, &mut out).is_none(), "flush is visible");
        l2.store(7, M, &set, 0, 2, 0);
        assert_eq!(l2.replay(7, u, &mut out), Some((2, 0, SPAN)));
    }

    #[test]
    fn disabled_tier_is_inert() {
        let (set, u) = family();
        for tier in [
            SharedFamilyCache::new(L2Config::disabled()),
            SharedFamilyCache::private(CacheConfig::disabled()),
        ] {
            assert_eq!(tier.store(1, M, &set, 0, 0, 1), None);
            assert!(tier.replay(1, u, &mut PathSet::new()).is_none());
            assert!(tier.is_empty());
        }
    }

    #[test]
    fn shard_capacity_bounds_entries() {
        let cap = 4;
        let l2 = one_stripe(cap);
        let (set, _) = family();
        for key in 0..10 * cap as u128 {
            l2.store(key, M, &set, 0, 1, 0);
        }
        assert!(
            l2.len() <= 2 * cap,
            "two-generation sweep must bound the shard at 2×capacity"
        );
    }

    #[test]
    fn cold_generation_still_replays() {
        let cap = 2;
        let l2 = one_stripe(cap);
        let (set, u) = family();
        for key in 0..cap as u128 + 1 {
            l2.store(key, M, &set, 0, key as u64, 0);
        }
        // Keys 0 and 1 were swept to the cold generation by the third
        // store; every key must still replay.
        let mut out = PathSet::new();
        for key in 0..cap as u128 + 1 {
            out.clear();
            assert_eq!(
                l2.replay(key, u, &mut out),
                Some((key as u64, 0, SPAN)),
                "key {key} must survive the generation sweep"
            );
        }
    }

    #[test]
    fn cold_hits_are_not_promoted() {
        // Replaying a cold entry leaves it cold: the next sweep drops it
        // even though it was just hit.
        let l2 = one_stripe(1);
        let (set, u) = family();
        l2.store(0, M, &set, 0, 0, 0);
        l2.store(1, M, &set, 0, 1, 0);
        let mut out = PathSet::new();
        assert!(
            l2.replay(0, u, &mut out).is_some(),
            "0 is cold, still served"
        );
        l2.store(2, M, &set, 0, 2, 0);
        assert!(
            l2.replay(0, u, &mut out).is_none(),
            "0 was swept, not promoted"
        );
        assert!(l2.replay(1, u, &mut out).is_some());
        assert_eq!(l2.len(), 2);
    }

    #[test]
    fn second_store_of_a_key_keeps_the_first() {
        let l2 = one_stripe(4);
        let (set, u) = family();
        l2.store(3, M, &set, 0, 1, 0);
        l2.store(3, M, &set, 0, 9, 9);
        assert_eq!(l2.replay(3, u, &mut PathSet::new()), Some((1, 0, SPAN)));
        assert_eq!(l2.len(), 1);
    }

    #[test]
    fn concurrent_store_replay_smoke() {
        // Writers and readers race over a small key space; every replay
        // must return either a miss or the exact stored family.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 16,
        }));
        let (set, u) = family();
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let l2 = Arc::clone(&l2);
                let set = set.clone();
                std::thread::spawn(move || {
                    for round in 0..50u128 {
                        for key in 0..24u128 {
                            l2.store(key, M, &set, 0, key as u64, round as u64 % 7 + t);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l2 = Arc::clone(&l2);
                std::thread::spawn(move || {
                    let mut out = PathSet::new();
                    let mut hits = 0u64;
                    for round in 0..200u128 {
                        let key = round % 24;
                        out.clear();
                        if let Some((nr, _, _)) = l2.replay(key, u, &mut out) {
                            assert_eq!(nr, key as u64, "payload matches key");
                            assert_eq!(out.len(), M as usize + 1, "stored family has m + 1 paths");
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // After the dust settles every key is served.
        let mut out = PathSet::new();
        for key in 0..24u128 {
            out.clear();
            assert!(l2.replay(key, u, &mut out).is_some());
        }
    }
}
