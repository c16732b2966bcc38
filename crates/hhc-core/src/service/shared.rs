//! The shared L2 tier: a lock-striped family cache plus the live fault
//! set and its generation counter.
//!
//! Entries are the same translation-canonical families the per-builder
//! [`FamilyCache`](crate::FamilyCache) stores (CSR node list for
//! `Xu = 0`, plus the plan counts), keyed by the same
//! `(m, Xu⊕Xv, Yu, Yv, order)` key — so one stored solve serves every
//! worker and every cube-field translation.
//!
//! ## Striped generation maps
//!
//! The key space is split across [`L2Config::shards`] stripes, each an
//! `RwLock` over the per-builder family cache's own bounded
//! two-generation map (the entry type, its canonicalisation and its
//! replay live in `disjoint::family_cache`):
//!
//! * A probe takes its stripe's read lock and, on a hit, copies the
//!   entry's node slab straight into the caller's [`PathSet`] while the
//!   lock is held — no clone, no allocation. Readers never block each
//!   other.
//! * A store canonicalises its entry outside the lock, then takes the
//!   write lock for one insert, which sweeps the stripe's generations
//!   when the hot map is full. A key that is already present keeps its
//!   entry: racing writers of one key carry identical bytes, because
//!   construction is deterministic.
//! * There is no cold→hot promotion on a hit. Promotion would put a
//!   write lock on the read path; a hot key that a sweep drops is
//!   constructed once more and stored again.
//!
//! Each stripe holds at most `2 × shard_capacity` entries.
//!
//! ## Fault feed
//!
//! Entries hold *plain* (fault-blind) constructions, which never become
//! wrong when the fault set changes. What changes is whether a replayed
//! (translated) family is *usable* under the current faults; that check
//! is the fault scan the avoiding layer already performs on the
//! replayed node set, and a blocked replay is repaired through
//! `construct_avoiding`'s rebuild (which bypasses every cache tier by
//! design). This is the lazy-invalidation scheme: fault events bump
//! [`SharedFamilyCache::generation`] and touch nothing else; only the
//! entries whose translated families actually intersect a fault pay a
//! repair, and they become servable again the moment the fault clears —
//! no eager scan, no cache discard.

use crate::disjoint::family_cache::{FamilyEntry, FamilyMap};
use crate::node::NodeId;
use crate::pathset::PathSet;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count (rounded up to a power of two internally).
pub const DEFAULT_L2_SHARDS: usize = 16;

/// Default hot-generation capacity per shard. With the default 16
/// shards this bounds the tier at `2 × 16 × 1024` entries — a few tens
/// of megabytes of HHC(5) families, shared by every worker.
pub const DEFAULT_L2_SHARD_CAPACITY: usize = 1024;

/// Geometry of a [`SharedFamilyCache`]. `shard_capacity = 0` disables
/// the tier (probes and stores become no-ops), mirroring
/// [`CacheConfig`](crate::CacheConfig) capacity-0 semantics.
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

/// Splitmix64 finalizer over the folded 128-bit key; its high bits pick
/// the stripe, so dense key families spread across stripes.
#[inline]
fn fold_mix(key: u128) -> u64 {
    let mut z = ((key ^ (key >> 64)) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared L2 family-cache tier plus the live fault set it is
/// invalidated against. See the module docs.
///
/// All methods take `&self`; the type is `Sync` and meant to live in an
/// [`Arc`](std::sync::Arc) shared by every worker's
/// [`PathBuilder`](crate::PathBuilder) (attached via
/// [`PathBuilder::attach_shared_cache`](crate::PathBuilder::attach_shared_cache)).
#[derive(Debug)]
pub struct SharedFamilyCache {
    stripes: Box<[RwLock<FamilyMap>]>,
    stripe_mask: usize,
    shard_capacity: usize,
    /// Bumped once per fault-set mutation, while the fault write lock is
    /// held; readers pair it with the set via [`Self::faults_snapshot`].
    generation: AtomicU64,
    faults: RwLock<HashSet<NodeId>>,
}

impl SharedFamilyCache {
    pub fn new(cfg: L2Config) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        SharedFamilyCache {
            stripes: (0..n)
                .map(|_| RwLock::new(FamilyMap::new(cfg.shard_capacity)))
                .collect(),
            stripe_mask: n - 1,
            shard_capacity: cfg.shard_capacity,
            generation: AtomicU64::new(0),
            faults: RwLock::new(HashSet::new()),
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

    /// Current fault-set generation: bumped once per successful
    /// [`Self::add_fault`] / [`Self::clear_fault`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        self.faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Marks `v` faulty; returns `false` (and does not bump the
    /// generation) if it already was.
    pub fn add_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let added = f.insert(v);
        if added {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        added
    }

    /// Heals `v`; returns `false` (and does not bump the generation) if
    /// it was not faulty.
    pub fn clear_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let removed = f.remove(&v);
        if removed {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// A consistent `(generation, fault set)` pair: the generation is
    /// read under the same read lock that guards the clone, so it never
    /// lags the set. Workers re-snapshot only when
    /// [`Self::generation`] moves — the epoch scheme's fast path is one
    /// atomic load per query.
    pub fn faults_snapshot(&self) -> (u64, HashSet<NodeId>) {
        let f = self.faults.read().unwrap_or_else(PoisonError::into_inner);
        (self.generation.load(Ordering::Acquire), f.clone())
    }

    /// [`Self::faults_snapshot`] into a caller-owned set (capacity is
    /// reused, so a long-lived worker re-snapshots without allocating
    /// once its set has grown to the high-water fault count).
    pub fn faults_snapshot_into(&self, out: &mut HashSet<NodeId>) -> u64 {
        let f = self.faults.read().unwrap_or_else(PoisonError::into_inner);
        out.clone_from(&f);
        self.generation.load(Ordering::Acquire)
    }

    /// Drops every cached entry in every shard (fault set and
    /// generation untouched). Exists for the full-rebuild-on-fault
    /// baseline ablation; the serving path never needs it.
    pub fn flush(&self) {
        for i in 0..self.stripes.len() {
            self.write(i).clear();
        }
    }

    #[inline]
    fn stripe_of(&self, key: u128) -> usize {
        (fold_mix(key) >> 32) as usize & self.stripe_mask
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

    /// On a hit, appends the cached family translated by `mask` to
    /// `out` and returns its `(rotations, detours)` plan counts —
    /// byte-identical to what the construction that stored it produced,
    /// by the same equivariance argument as the per-builder replay.
    /// Holds the stripe's read lock for the copy; allocates nothing once
    /// `out` has grown to the family's size.
    #[inline]
    pub(crate) fn replay(&self, key: u128, mask: u128, out: &mut PathSet) -> Option<(u64, u64)> {
        if self.shard_capacity == 0 {
            return None;
        }
        self.read(self.stripe_of(key))
            .get(key)
            .map(|e| e.replay(mask, out))
    }

    /// Stores the family in `set` (a fresh construction under
    /// translation `mask`) canonicalised to `Xu = 0`. The entry is built
    /// before the stripe's write lock is taken; under the lock the store
    /// is one insert, with a generation sweep when the hot map is full.
    pub(crate) fn store(&self, key: u128, mask: u128, set: &PathSet, rotations: u64, detours: u64) {
        if self.shard_capacity == 0 {
            return;
        }
        let entry = FamilyEntry::canonical(mask, set, rotations, detours);
        self.write(self.stripe_of(key)).insert(key, entry);
    }
}

impl Default for SharedFamilyCache {
    fn default() -> Self {
        SharedFamilyCache::new(L2Config::enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn two_path_set() -> PathSet {
        let mut set = PathSet::new();
        for p in [[5u128, 7, 9], [5, 6, 9]] {
            for raw in p {
                set.push_node(NodeId::from_raw(raw));
            }
            set.finish_path();
        }
        set
    }

    #[test]
    fn store_replay_round_trips_translation() {
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 4,
            shard_capacity: 8,
        });
        l2.store(1, 4, &two_path_set(), 2, 1);
        let mut out = PathSet::new();
        let (nr, nd) = l2.replay(1, 8, &mut out).unwrap();
        assert_eq!((nr, nd), (2, 1));
        let expect: Vec<u128> = [5u128, 7, 9, 5, 6, 9].iter().map(|r| r ^ 4 ^ 8).collect();
        let got: Vec<u128> = out.iter().flatten().map(|v| v.raw()).collect();
        assert_eq!(got, expect);
        assert!(l2.replay(2, 0, &mut PathSet::new()).is_none());
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
        let mut out = PathSet::new();
        for key in 0..32u128 {
            assert!(l2.replay(key, 0, &mut out).is_none(), "cold tier misses");
            l2.store(key, 0, &two_path_set(), key as u64, 0);
            out.clear();
            assert_eq!(
                l2.replay(key, 0, &mut out).expect("store is visible"),
                (key as u64, 0)
            );
            out.clear();
        }
    }

    #[test]
    fn stale_snapshot_is_refreshed_not_resurrected() {
        // After a flush, replays must stop returning dropped entries,
        // and a later store of the same key must be served again.
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: 8,
        });
        l2.store(7, 0, &two_path_set(), 1, 0);
        let mut out = PathSet::new();
        assert!(l2.replay(7, 0, &mut out).is_some());
        l2.flush();
        out.clear();
        assert!(l2.replay(7, 0, &mut out).is_none(), "flush is visible");
        l2.store(7, 0, &two_path_set(), 2, 0);
        assert_eq!(l2.replay(7, 0, &mut out), Some((2, 0)));
    }

    #[test]
    fn disabled_tier_is_inert() {
        let l2 = SharedFamilyCache::new(L2Config::disabled());
        l2.store(1, 0, &two_path_set(), 0, 1);
        assert!(l2.replay(1, 0, &mut PathSet::new()).is_none());
        assert!(l2.is_empty());
    }

    #[test]
    fn shard_capacity_bounds_entries() {
        let cap = 4;
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        });
        let set = two_path_set();
        for key in 0..10 * cap as u128 {
            l2.store(key, 0, &set, 1, 0);
        }
        assert!(
            l2.len() <= 2 * cap,
            "two-generation sweep must bound the shard at 2×capacity"
        );
    }

    #[test]
    fn cold_generation_still_replays() {
        let cap = 2;
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        });
        let set = two_path_set();
        for key in 0..cap as u128 + 1 {
            l2.store(key, 0, &set, key as u64, 0);
        }
        // Keys 0 and 1 were swept to the cold generation by the third
        // store; every key must still replay.
        let mut out = PathSet::new();
        for key in 0..cap as u128 + 1 {
            out.clear();
            assert_eq!(
                l2.replay(key, 0, &mut out),
                Some((key as u64, 0)),
                "key {key} must survive the generation sweep"
            );
        }
    }

    #[test]
    fn cold_hits_are_not_promoted() {
        // Replaying a cold entry leaves it cold: the next sweep drops it
        // even though it was just hit.
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: 1,
        });
        let set = two_path_set();
        l2.store(0, 0, &set, 0, 0);
        l2.store(1, 0, &set, 1, 0);
        let mut out = PathSet::new();
        assert!(
            l2.replay(0, 0, &mut out).is_some(),
            "0 is cold, still served"
        );
        l2.store(2, 0, &set, 2, 0);
        assert!(
            l2.replay(0, 0, &mut out).is_none(),
            "0 was swept, not promoted"
        );
        assert!(l2.replay(1, 0, &mut out).is_some());
        assert_eq!(l2.len(), 2);
    }

    #[test]
    fn second_store_of_a_key_keeps_the_first() {
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: 4,
        });
        l2.store(3, 0, &two_path_set(), 1, 0);
        l2.store(3, 0, &two_path_set(), 9, 9);
        assert_eq!(l2.replay(3, 0, &mut PathSet::new()), Some((1, 0)));
        assert_eq!(l2.len(), 1);
    }

    #[test]
    fn fault_events_bump_generation_only_on_change() {
        let l2 = SharedFamilyCache::default();
        let v = NodeId::from_raw(42);
        assert_eq!(l2.generation(), 0);
        assert!(l2.add_fault(v));
        assert!(!l2.add_fault(v), "duplicate add is a no-op");
        assert_eq!(l2.generation(), 1);
        assert_eq!(l2.fault_count(), 1);
        assert!(l2.clear_fault(v));
        assert!(!l2.clear_fault(v), "duplicate clear is a no-op");
        assert_eq!(l2.generation(), 2);
        let (gen, snap) = l2.faults_snapshot();
        assert_eq!(gen, 2);
        assert!(snap.is_empty());
        let mut reused = HashSet::new();
        reused.insert(NodeId::from_raw(9));
        assert_eq!(l2.faults_snapshot_into(&mut reused), 2);
        assert!(reused.is_empty(), "snapshot_into replaces the contents");
    }

    #[test]
    fn flush_drops_entries_but_keeps_faults() {
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 8,
        });
        l2.store(1, 0, &two_path_set(), 1, 0);
        l2.add_fault(NodeId::from_raw(7));
        l2.flush();
        assert!(l2.is_empty());
        assert_eq!(l2.fault_count(), 1);
        assert_eq!(l2.generation(), 1);
    }

    #[test]
    fn concurrent_store_replay_smoke() {
        // Writers and readers race over a small key space; every replay
        // must return either a miss or the exact stored family.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 16,
        }));
        let set = two_path_set();
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let l2 = Arc::clone(&l2);
                let set = set.clone();
                std::thread::spawn(move || {
                    for round in 0..50u128 {
                        for key in 0..24u128 {
                            l2.store(key, 0, &set, key as u64, round as u64 % 7 + t);
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
                        if let Some((nr, _)) = l2.replay(key, 0, &mut out) {
                            assert_eq!(nr, key as u64, "payload matches key");
                            assert_eq!(out.len(), 2, "stored family has two paths");
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
            assert!(l2.replay(key, 0, &mut out).is_some());
        }
    }
}
