//! Allocation accounting for the serving hot paths: once warm, a
//! cache-hit query must touch the heap **zero** times, in the builder
//! and through the router end to end.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! counts every thread's calls, the router's workers included; the
//! test warms a builder (scratch buffers, cache entries, the shared L2
//! stripes) and then asserts that repeated hit-path queries perform
//! no `alloc`/`realloc` at all. Three builder tiers are pinned:
//!
//! * **private-tier hit** — replay from the one-stripe family tier a
//!   builder with no L2 attached keeps for itself;
//! * **L2 hit** — a builder built with its private tier enabled, then
//!   attached to an L2 in its place: every query probes the shared tier
//!   and decodes the entry's hops into the caller's scratch under the
//!   stripe's read lock;
//! * **L2 hit under non-intersecting faults** — same, plus a live
//!   fault the replayed family doesn't touch, held in the router's
//!   sorted `FaultSet`. Both ways the avoiding layer's fault check
//!   keeps a family are pinned: a fault whose cube offset lies outside
//!   the family's span (the span test settles it, no node is probed)
//!   and one inside the span but on no path (the exact scan runs and
//!   clears it).
//!
//! This is the core of the router's per-query work. The worker loop
//! around it adds pooled batches, bounded channels, an atomic
//! fault-generation check, and one metrics-report copy per batch; the
//! answers are written into the caller's lent arena. The **router**
//! section pins that whole loop: warm `Router::query_many_into` and
//! `Router::query_into` calls at 1 and 2 workers allocate nothing, and
//! neither do warm batches under a fault that blocks one of their
//! families, whose rerouted answers each worker replays from its
//! reroute memo.
//!
//! Everything runs in ONE test function: Rust runs tests on
//! multiple threads by default, and a second thread's incidental
//! allocations would poison the counter.

use hhc_core::{
    disjoint_paths_avoiding_into, CacheConfig, CrossingOrder, FaultSet, Hhc, L2Config, NodeId,
    PathBuilder, PathSet, QueryBatchResult, Router, RouterConfig, SharedFamilyCache,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    // The test harness's main thread waits on a channel for this test's
    // result, and the first time it blocks it allocates its wait
    // context. On a loaded host it can get there late, inside a counted
    // section; sleeping first lets it block before anything is counted.
    std::thread::sleep(Duration::from_millis(100));
    let h = Hhc::new(3).unwrap();
    let empty: HashSet<NodeId> = HashSet::new();
    // One cross-cube and one same-cube pair: the two construction cases
    // have different replay shapes (m+1 long paths vs m+1 short ones).
    let queries = [
        (h.node(0x01, 0b001).unwrap(), h.node(0x9C, 0b110).unwrap()),
        (h.node(0x42, 0b000).unwrap(), h.node(0x42, 0b111).unwrap()),
    ];

    // --- Private-tier hit path: the builder's own one-stripe tier. ---
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
        assert_eq!(
            n, 0,
            "private-tier hit path allocated {n} times for {u:?}→{v:?}"
        );
    }

    // --- L2 hit path: with the L2 attached in place of the private
    // tier, every query probes a shared stripe and decodes straight
    // out of the entry's hops. ---
    let l2 = Arc::new(SharedFamilyCache::new(L2Config::enabled()));
    let mut warmer = PathBuilder::with_caches(CacheConfig::enabled());
    warmer.attach_shared_cache(Arc::clone(&l2));
    // Two passes: the L2 stores a family on its second sighting.
    for _ in 0..2 {
        for &(u, v) in &queries {
            disjoint_paths_avoiding_into(
                &h,
                u,
                v,
                CrossingOrder::Gray,
                &empty,
                &mut out,
                &mut warmer,
            )
            .unwrap();
        }
    }
    let mut reader = PathBuilder::with_caches(CacheConfig::enabled());
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
    assert_eq!(c.family_hits, 0, "an attached L2 is the only tier");
    assert_eq!(c.l2_hits, c.queries, "measurement really ran on L2 hits");
    assert_eq!(l2.len(), queries.len(), "hits store nothing");

    // --- L2 hit with a live fault off the family, both ways: the span
    // test settles the first fault without a node probe; the second
    // lies within the span, so the exact scan runs and clears it. ---
    let (u, v) = queries[0];
    disjoint_paths_avoiding_into(&h, u, v, CrossingOrder::Gray, &empty, &mut out, &mut reader)
        .unwrap();
    let family_nodes: HashSet<NodeId> = out.iter().flatten().copied().collect();
    let xu = h.cube_field(u);
    let offset = |w: NodeId| h.cube_field(w) ^ xu;
    let span = family_nodes.iter().fold(0, |acc, &w| acc | offset(w));
    let off_family = |in_span: bool| {
        h.iter_nodes()
            .find(|&w| !family_nodes.contains(&w) && (offset(w) & !span == 0) == in_span)
            .expect("HHC(3) has off-family nodes on both sides of this span")
    };
    for (branch, fault, scans) in [
        ("span test", off_family(false), 0),
        ("exact scan", off_family(true), 64),
    ] {
        let faults: FaultSet = [fault].into_iter().collect();
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
        let before = reader.metrics().construction;
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
        assert_eq!(n, 0, "faulted L2-hit path ({branch}) allocated {n} times");
        let after = reader.metrics().construction;
        assert_eq!(
            after.fault_reroutes, 0,
            "the fault must not intersect the family (hit path, not repair)"
        );
        assert_eq!(
            after.fault_scans - before.fault_scans,
            scans,
            "{branch}: exact scans over 64 warm queries"
        );
    }

    // --- Router, end to end: pooled batches over bounded channels,
    // each worker answering into the caller's lent arena. Every query
    // of the batch is an L2 hit once the warm-up has stored it. ---
    let batch: Vec<(NodeId, NodeId)> = queries.iter().copied().cycle().take(24).collect();
    // A node on the cross-cube family's first path and off the
    // same-cube family: while it is faulty, every query of the
    // cross-cube pair reroutes.
    let (su, sv) = queries[1];
    disjoint_paths_avoiding_into(
        &h,
        su,
        sv,
        CrossingOrder::Gray,
        &empty,
        &mut out,
        &mut reader,
    )
    .unwrap();
    let same_cube_nodes: HashSet<NodeId> = out.iter().flatten().copied().collect();
    disjoint_paths_avoiding_into(&h, u, v, CrossingOrder::Gray, &empty, &mut out, &mut reader)
        .unwrap();
    let first = out.path(0);
    let blocker = first[1..first.len() - 1]
        .iter()
        .copied()
        .find(|w| !same_cube_nodes.contains(w))
        .expect("the cross-cube family leaves the same-cube pair's cube");
    let rerouted_per_batch = batch.iter().filter(|&&p| p == (u, v)).count() as u64;
    for threads in [1, 2] {
        let mut router = Router::new(
            3,
            RouterConfig {
                threads,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let mut answers = QueryBatchResult::new();
        let mut single = PathSet::new();
        // Two serial rounds store every family in the L2 (on its second
        // sighting). Each call waits for its answer, and a worker stores
        // before it answers, so every store lands before the next probe;
        // in a batch, two workers could both miss on one pair while the
        // first is still storing it.
        for _ in 0..2 {
            for &(u, v) in &queries {
                router.query_into(u, v, &mut single).unwrap();
            }
        }
        // Batched passes then warm every worker's buffers; round-robin
        // single queries reach every worker.
        for _ in 0..4 {
            router.query_many_into(&batch, &mut answers);
            for &(u, v) in batch.iter().take(2 * threads) {
                router.query_into(u, v, &mut single).unwrap();
            }
        }
        // A thread allocates its wait context, and an entry in the
        // channel's waiter list, the first time it blocks on a std
        // channel: a one-time cost. Whether a warm call blocks at all
        // depends on scheduling, so the warm-up makes every thread block
        // once: the workers on their inputs while the caller sleeps, the
        // caller on the results while the workers answer a long batch.
        let long: Vec<_> = batch.iter().copied().cycle().take(4096).collect();
        std::thread::sleep(Duration::from_millis(50));
        router.query_many_into(&long, &mut answers);
        std::thread::sleep(Duration::from_millis(50));
        let n = allocations(|| {
            for _ in 0..200 {
                router.query_many_into(&batch, &mut answers);
            }
        });
        assert_eq!(
            n, 0,
            "{threads} workers: 200 warm batches allocated {n} times"
        );
        let n = allocations(|| {
            for &(u, v) in batch.iter().cycle().take(200) {
                router.query_into(u, v, &mut single).unwrap();
            }
        });
        assert_eq!(
            n, 0,
            "{threads} workers: 200 warm single queries allocated {n} times"
        );
        let c = router.metrics().construction;
        assert_eq!(
            c.l2_misses,
            2 * queries.len() as u64,
            "only the first two sightings constructed: the timed calls were L2 hits"
        );
        assert!(answers.iter().all(|r| r.is_ok()));

        // Rerouted answers: the first faulted batch rebuilds the
        // cross-cube family once per worker, and from then on every
        // query of it replays that worker's reroute memo.
        router.add_fault(blocker);
        for _ in 0..3 {
            router.query_many_into(&batch, &mut answers);
        }
        let before = router.metrics().construction;
        let n = allocations(|| {
            for _ in 0..200 {
                router.query_many_into(&batch, &mut answers);
            }
        });
        assert_eq!(
            n, 0,
            "{threads} workers: 200 warm rerouted batches allocated {n} times"
        );
        let c = router.metrics().construction;
        assert_eq!(
            c.reroute_memo_hits - before.reroute_memo_hits,
            200 * rerouted_per_batch,
            "{threads} workers: every timed query of the blocked pair was a memo hit"
        );
        assert_eq!(
            c.fault_reroutes, before.fault_reroutes,
            "nothing was rebuilt"
        );
        assert!(answers
            .iter()
            .all(|r| r.is_ok_and(|f| f.iter().all(|p| !p.contains(&blocker)))));
    }
}
