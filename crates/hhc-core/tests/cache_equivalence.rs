//! Property tests for the family cache: construction output must be
//! byte-identical with caching on, off, or thrashing.
//!
//! The cache memoises exact translation-canonical families, so it must
//! never change a single node of any family — across random pairs,
//! every supported `m`, both crossing orders, and under eviction
//! pressure from a deliberately tiny capacity. Pairs are drawn from a
//! small pool and repeated so hit paths are actually exercised.

use hhc_core::{batch, disjoint, CacheConfig, CrossingOrder, Hhc, NodeId, PathSet, Workspace};
use proptest::prelude::*;

/// Builds a valid HHC node from arbitrary bits.
fn node(h: &Hhc, x: u64, y: u64) -> NodeId {
    let xmask = (1u128 << h.positions()) - 1;
    h.node(x as u128 & xmask, (y % h.positions() as u64) as u32)
        .expect("masked into range")
}

/// The cache configurations under test: reference (off), defaults, and
/// a tiny capacity that sweeps constantly.
fn configs() -> [CacheConfig; 3] {
    [
        CacheConfig::disabled(),
        CacheConfig::enabled(),
        CacheConfig { family_capacity: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One warm builder per cache configuration, fed the same repeated
    /// pair sequence: every configuration must emit byte-identical
    /// `PathSet`s, equal to the fresh per-pair reference.
    #[test]
    fn cache_on_equals_cache_off(
        m in 1u32..=4,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 2..8),
        reps in 2usize..4,
        gray in any::<bool>(),
    ) {
        let h = Hhc::new(m).unwrap();
        let order = if gray { CrossingOrder::Gray } else { CrossingOrder::Sorted };
        let pool: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!pool.is_empty());

        let mut workspaces: Vec<Workspace> =
            configs().iter().map(|&c| Workspace::with_caches(c)).collect();
        // Cycle the pool so later iterations replay warm cache entries.
        for rep in 0..reps {
            for (i, &(u, v)) in pool.iter().enumerate() {
                let fresh = disjoint::disjoint_paths(&h, u, v, order).unwrap();
                for (w, ws) in workspaces.iter_mut().enumerate() {
                    let set = ws.construct(&h, u, v, order).unwrap();
                    prop_assert_eq!(
                        &set.to_paths(), &fresh,
                        "config {} differs from fresh on rep {} pair {}", w, rep, i
                    );
                }
            }
        }
        // The warm default-config workspace replayed later reps from its
        // family cache; the disabled one never did.
        let hits = |i: usize| workspaces[i].builder.metrics().construction.family_hits;
        prop_assert_eq!(hits(0), 0, "disabled cache must never hit");
        prop_assert!(hits(1) >= ((reps - 1) * pool.len()) as u64, "warm cache must replay repeats");
    }

    /// The batch entry point answers identically under every cache
    /// config, and its merged report conserves the counters.
    #[test]
    fn batch_configs_agree(
        m in 1u32..=3,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let h = Hhc::new(m).unwrap();
        let pool: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!pool.is_empty());
        // Repeat the pool to create cache hits inside one batch call.
        let pairs: Vec<(NodeId, NodeId)> = pool.iter().copied().cycle().take(pool.len() * 3).collect();

        let (default, _) =
            batch::construct_many(&h, &pairs, CrossingOrder::Gray, CacheConfig::default()).unwrap();
        for cfg in configs() {
            let (got, report) =
                batch::construct_many(&h, &pairs, CrossingOrder::Gray, cfg).unwrap();
            prop_assert_eq!(&got, &default);
            let c = &report.construction;
            prop_assert_eq!(c.queries, pairs.len() as u64);
            // Conservation laws hold with or without cache replays.
            prop_assert_eq!(
                c.rotation_plans + c.detour_plans,
                c.cross_cube * h.degree() as u64 + c.same_cube
            );
            prop_assert_eq!(
                report.fan_queries(),
                2 * (c.cross_cube - c.family_hits_cross)
            );
            if cfg == CacheConfig::disabled() {
                prop_assert_eq!(c.family_hits, 0);
            }
        }
    }
}

/// Deterministic (non-prop) sweep of the larger networks the proptest
/// skips: m = 5 and 6, both crossing orders, repeated pairs,
/// warm-vs-disabled byte equality. Sorted HHC(6) families hold the
/// longest paths the repo records (F5: 144 hops).
#[test]
fn large_m_repeated_pairs_identical() {
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for m in 5u32..=6 {
        let h = Hhc::new(m).unwrap();
        let xmask = (1u128 << h.positions()) - 1;
        let mut pool = Vec::new();
        while pool.len() < 6 {
            let xu = ((next() as u128) << 64 | next() as u128) & xmask;
            let xv = ((next() as u128) << 64 | next() as u128) & xmask;
            let u = h.node(xu, (next() % (1 << m) as u64) as u32).unwrap();
            let v = h.node(xv, (next() % (1 << m) as u64) as u32).unwrap();
            if u != v {
                pool.push((u, v));
            }
        }
        for order in [CrossingOrder::Gray, CrossingOrder::Sorted] {
            let mut warm = Workspace::with_caches(CacheConfig::enabled());
            let mut off = Workspace::with_caches(CacheConfig::disabled());
            let mut expect = PathSet::new();
            for _ in 0..3 {
                for &(u, v) in &pool {
                    let a = warm.construct(&h, u, v, order).unwrap();
                    expect.clone_from(a);
                    let b = off.construct(&h, u, v, order).unwrap();
                    assert_eq!(&expect, b, "m={m} {order:?} pair {u:?}->{v:?}");
                }
            }
            assert_eq!(
                warm.builder.metrics().construction.family_hits,
                2 * pool.len() as u64,
                "reps 2 and 3 must replay"
            );
            assert_eq!(off.builder.metrics().construction.family_hits, 0);
        }
    }
}
