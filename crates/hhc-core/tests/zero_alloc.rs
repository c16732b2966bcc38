//! Allocation accounting for the serving hot paths: once warm, a
//! cache-hit query must touch the heap **zero** times.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! test warms a builder (scratch buffers, cache entries, the shared L2
//! stripes) and then asserts that repeated hit-path queries perform
//! no `alloc`/`realloc` at all. Three tiers are pinned:
//!
//! * **L1 hit** — replay from the per-builder family cache;
//! * **L2 hit** — the builder's L1 is configured away
//!   (`family_capacity: 0`), so every query probes the shared tier and
//!   copies the entry's slab into the caller's scratch under the
//!   stripe's read lock;
//! * **L2 hit under non-intersecting faults** — same, plus a live
//!   fault set the replayed family doesn't touch, so the avoiding
//!   layer's fault scan runs (and passes) on the hot path.
//!
//! This is the core of the router's per-query work; the worker loop
//! around it adds only pooled buffers and an atomic fault-generation
//! check. Everything runs in ONE test function: Rust runs tests on
//! multiple threads by default, and a second thread's incidental
//! allocations would poison the counter.

use hhc_core::{
    disjoint_paths_avoiding_into, CacheConfig, CrossingOrder, Hhc, L2Config, NodeId, PathBuilder,
    PathSet, SharedFamilyCache,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocator calls it made.
fn allocations<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn hit_paths_do_not_allocate() {
    let h = Hhc::new(3).unwrap();
    let empty: HashSet<NodeId> = HashSet::new();
    // One cross-cube and one same-cube pair: the two construction cases
    // have different replay shapes (m+1 long paths vs m+1 short ones).
    let queries = [
        (h.node(0x01, 0b001).unwrap(), h.node(0x9C, 0b110).unwrap()),
        (h.node(0x42, 0b000).unwrap(), h.node(0x42, 0b111).unwrap()),
    ];

    // --- L1 hit path: per-builder family cache replay. ---
    let mut builder = PathBuilder::with_caches(CacheConfig::enabled());
    let mut out = PathSet::new();
    for &(u, v) in &queries {
        for _ in 0..3 {
            disjoint_paths_avoiding_into(
                &h,
                u,
                v,
                CrossingOrder::Gray,
                &empty,
                &mut out,
                &mut builder,
            )
            .unwrap();
        }
    }
    for &(u, v) in &queries {
        let n = allocations(|| {
            for _ in 0..64 {
                disjoint_paths_avoiding_into(
                    &h,
                    u,
                    v,
                    CrossingOrder::Gray,
                    &empty,
                    &mut out,
                    &mut builder,
                )
                .unwrap();
            }
        });
        assert_eq!(n, 0, "L1-hit path allocated {n} times for {u:?}→{v:?}");
    }

    // --- L2 hit path: L1 disabled, every query probes a shared
    // stripe and copies straight out of the slab. ---
    let l2 = Arc::new(SharedFamilyCache::new(L2Config::enabled()));
    let mut warmer = PathBuilder::with_caches(CacheConfig::enabled());
    warmer.attach_shared_cache(Arc::clone(&l2));
    for &(u, v) in &queries {
        disjoint_paths_avoiding_into(&h, u, v, CrossingOrder::Gray, &empty, &mut out, &mut warmer)
            .unwrap();
    }
    let no_l1 = CacheConfig {
        fan_capacity: 0,
        family_capacity: 0,
    };
    let mut reader = PathBuilder::with_caches(no_l1);
    reader.attach_shared_cache(Arc::clone(&l2));
    for &(u, v) in &queries {
        // Warm the reader's scratch capacity.
        for _ in 0..3 {
            disjoint_paths_avoiding_into(
                &h,
                u,
                v,
                CrossingOrder::Gray,
                &empty,
                &mut out,
                &mut reader,
            )
            .unwrap();
        }
    }
    for &(u, v) in &queries {
        let n = allocations(|| {
            for _ in 0..64 {
                disjoint_paths_avoiding_into(
                    &h,
                    u,
                    v,
                    CrossingOrder::Gray,
                    &empty,
                    &mut out,
                    &mut reader,
                )
                .unwrap();
            }
        });
        assert_eq!(n, 0, "L2-hit path allocated {n} times for {u:?}→{v:?}");
    }
    let c = reader.metrics().construction;
    assert_eq!(c.family_hits, 0, "L1 is off: every hit must be an L2 hit");
    assert_eq!(c.l2_hits, c.queries, "measurement really ran on L2 hits");

    // --- L2 hit with a live, non-intersecting fault set: the avoiding
    // layer scans the replayed family against the faults and keeps it. ---
    let (u, v) = queries[0];
    disjoint_paths_avoiding_into(&h, u, v, CrossingOrder::Gray, &empty, &mut out, &mut reader)
        .unwrap();
    let family_nodes: HashSet<NodeId> = out.iter().flatten().copied().collect();
    let fault = (0..)
        .find_map(|x| {
            let w = h.node(x, 0).ok()?;
            (!family_nodes.contains(&w)).then_some(w)
        })
        .expect("some node is outside one family");
    let faults: HashSet<NodeId> = [fault].into();
    for _ in 0..3 {
        disjoint_paths_avoiding_into(
            &h,
            u,
            v,
            CrossingOrder::Gray,
            &faults,
            &mut out,
            &mut reader,
        )
        .unwrap();
    }
    let n = allocations(|| {
        for _ in 0..64 {
            disjoint_paths_avoiding_into(
                &h,
                u,
                v,
                CrossingOrder::Gray,
                &faults,
                &mut out,
                &mut reader,
            )
            .unwrap();
        }
    });
    assert_eq!(n, 0, "faulted L2-hit path allocated {n} times");
    assert_eq!(
        reader.metrics().construction.fault_reroutes,
        0,
        "the fault must not intersect the family (hit path, not repair)"
    );
}
