//! Concurrency equivalence for the routing service: under any seeded
//! interleaving of query bursts and fault events, [`Router`] answers —
//! served from per-worker L1s over the shared L2, with lazy fault
//! invalidation — must be byte-identical to a serial cold-cache oracle
//! that solves every query from scratch against the same fault set.
//!
//! This extends the PR 4 (cache-on ≡ cache-off) and PR 7 (avoiding
//! layer never consults caches under faults) equivalence suites to the
//! concurrent tiers, and covers **both** query pipelines: the
//! allocation-free arena path ([`Router::query_many_into`] answering
//! into a reused [`QueryBatchResult`]) and the owned-result
//! compatibility shim ([`Router::query_many`]). Concurrency note:
//! queries inside one burst run in parallel across workers, fault
//! events are applied at burst boundaries — that linearisation is what
//! "the same fault set" means for the oracle. The loom/shuttle crates
//! are not vendored in-tree, so interleavings are exercised by seeded
//! schedules and thread-count sweeps rather than exhaustive model
//! checking; the shared tier is plain `RwLock` stripes (a replay copies
//! under a read lock, a store inserts under the write lock — no
//! lock-free retry loops), which keeps the schedule space benign. One
//! configuration runs with the L1 disabled, so every replay goes
//! through the stripes and their generation sweep.

use hhc_core::{
    disjoint_paths_avoiding, CacheConfig, CrossingOrder, Hhc, HhcError, L2Config, NodeId, PathSet,
    QueryBatchResult, Router, RouterConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds a valid HHC node from arbitrary bits.
fn node(h: &Hhc, x: u64, y: u64) -> NodeId {
    let xmask = (1u128 << h.positions()) - 1;
    h.node(x as u128 & xmask, (y % h.positions() as u64) as u32)
        .expect("masked into range")
}

/// One step of an interleaved schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Toggle a node's fault state (add if healthy, clear if faulty).
    Toggle(NodeId),
    /// A burst of queries answered concurrently under one fault set.
    Burst(Vec<(NodeId, NodeId)>),
}

/// The serial cold-cache oracle: every query is solved by a fresh
/// builder (no cache carries over) against the fault set at its
/// linearisation point.
fn oracle_run(h: &Hhc, script: &[Op]) -> Vec<Result<Vec<Vec<NodeId>>, HhcError>> {
    let mut faults: HashSet<NodeId> = HashSet::new();
    let mut answers = Vec::new();
    for op in script {
        match op {
            Op::Toggle(w) => {
                if !faults.insert(*w) {
                    faults.remove(w);
                }
            }
            Op::Burst(pairs) => {
                for &(u, v) in pairs {
                    answers.push(
                        disjoint_paths_avoiding(h, u, v, CrossingOrder::Gray, &faults)
                            .map(|(paths, _)| paths),
                    );
                }
            }
        }
    }
    answers
}

/// Runs the same schedule through a router, bursts via the owned-result
/// shim `query_many`.
fn router_run(router: &mut Router, script: &[Op]) -> Vec<Result<Vec<Vec<NodeId>>, HhcError>> {
    let mut answers = Vec::new();
    for op in script {
        match op {
            Op::Toggle(w) => {
                if !router.add_fault(*w) {
                    router.clear_fault(*w);
                }
            }
            Op::Burst(pairs) => answers.extend(router.query_many(pairs)),
        }
    }
    answers
}

/// Runs the same schedule through the allocation-free pipeline: bursts
/// via `query_many_into` into one reused arena buffer, answers read out
/// through `FamilyRef` borrows.
fn router_run_arena(router: &mut Router, script: &[Op]) -> Vec<Result<Vec<Vec<NodeId>>, HhcError>> {
    let mut answers = Vec::new();
    let mut out = QueryBatchResult::new();
    for op in script {
        match op {
            Op::Toggle(w) => {
                if !router.add_fault(*w) {
                    router.clear_fault(*w);
                }
            }
            Op::Burst(pairs) => {
                router.query_many_into(pairs, &mut out);
                assert_eq!(out.len(), pairs.len());
                answers.extend(
                    out.iter()
                        .map(|r| r.map(|f| f.to_paths()).map_err(Clone::clone)),
                );
            }
        }
    }
    answers
}

/// Decodes a proptest-drawn raw script over a pair pool: tag 0 toggles
/// a fault, other tags append to the current query burst (pool pairs
/// repeat, so cache tiers actually serve).
fn build_script(h: &Hhc, pool: &[(NodeId, NodeId)], raw: &[(u8, u64, u64, u8)]) -> Vec<Op> {
    let mut script = Vec::new();
    let mut burst: Vec<(NodeId, NodeId)> = Vec::new();
    for &(tag, x, y, pick) in raw {
        if tag % 4 == 0 {
            if !burst.is_empty() {
                script.push(Op::Burst(std::mem::take(&mut burst)));
            }
            script.push(Op::Toggle(node(h, x, y)));
        } else {
            burst.push(pool[pick as usize % pool.len()]);
        }
    }
    if !burst.is_empty() {
        script.push(Op::Burst(burst));
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of queries and fault events, across thread
    /// counts and cache-tier configurations: router answers (values and
    /// errors) are byte-identical to the serial cold-cache oracle.
    #[test]
    fn router_matches_serial_cold_oracle(
        m in 2u32..=3,
        pool_raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 2..5),
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 4..24),
    ) {
        let h = Hhc::new(m).unwrap();
        let pool: Vec<(NodeId, NodeId)> = pool_raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!pool.is_empty());
        let script = build_script(&h, &pool, &raw);
        let want = oracle_run(&h, &script);

        let configs = [
            RouterConfig { threads: 1, order: CrossingOrder::Gray,
                           l1: CacheConfig::enabled(), l2: L2Config::enabled() },
            RouterConfig { threads: 3, order: CrossingOrder::Gray,
                           l1: CacheConfig::enabled(), l2: L2Config::enabled() },
            RouterConfig { threads: 3, order: CrossingOrder::Gray,
                           l1: CacheConfig::enabled(), l2: L2Config::disabled() },
            RouterConfig { threads: 2, order: CrossingOrder::Gray,
                           l1: CacheConfig { fan_capacity: 2, family_capacity: 2 },
                           l2: L2Config { shards: 2, shard_capacity: 2 } },
            // L2 only: every hit is a stripe replay, and the tiny
            // stripes sweep their generations constantly.
            RouterConfig { threads: 3, order: CrossingOrder::Gray,
                           l1: CacheConfig::disabled(),
                           l2: L2Config { shards: 2, shard_capacity: 2 } },
        ];
        for (i, cfg) in configs.into_iter().enumerate() {
            let mut router = Router::new(m, cfg).unwrap();
            let got = router_run(&mut router, &script);
            prop_assert_eq!(&got, &want, "router config {} (shim) diverged from the oracle", i);
            // Fresh router per pipeline: fault toggles are stateful, and
            // a cold start keeps both runs against the same cold oracle.
            let mut router = Router::new(m, cfg).unwrap();
            let got = router_run_arena(&mut router, &script);
            prop_assert_eq!(&got, &want, "router config {} (arena) diverged from the oracle", i);
        }
    }
}

/// Deterministic long seeded schedule on HHC(3) at 4 workers, with the
/// fault feed aimed at interior nodes of answered families so the lazy
/// invalidation path (L2 hit → fault scan → repair) actually fires.
/// Checks answers against the oracle *and* the tiered-cache metric
/// conservation laws.
#[test]
fn seeded_fault_churn_hits_invalidation_path() {
    let h = Hhc::new(3).unwrap();
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // A small hot pool: repeats guarantee both tiers serve replays.
    let pool: Vec<(NodeId, NodeId)> = (0..6)
        .map(|_| (node(&h, next(), next()), node(&h, next(), next())))
        .filter(|(u, v)| u != v)
        .collect();
    assert!(!pool.is_empty());

    // Aim fault toggles at interior nodes of the pool's plain families.
    let mut interiors = Vec::new();
    for &(u, v) in &pool {
        let (paths, _) =
            disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &HashSet::new()).unwrap();
        for p in &paths {
            if p.len() > 2 {
                interiors.push(p[p.len() / 2]);
            }
        }
    }

    let mut script = Vec::new();
    for round in 0..30 {
        let burst: Vec<_> = (0..8).map(|_| pool[next() as usize % pool.len()]).collect();
        script.push(Op::Burst(burst));
        if round % 2 == 0 {
            script.push(Op::Toggle(interiors[next() as usize % interiors.len()]));
        }
    }

    let want = oracle_run(&h, &script);
    let mut router = Router::new(
        3,
        RouterConfig {
            threads: 4,
            order: CrossingOrder::Gray,
            l1: CacheConfig::enabled(),
            l2: L2Config::enabled(),
        },
    )
    .unwrap();
    let got = router_run(&mut router, &script);
    assert_eq!(got, want, "churn schedule diverged from the oracle");

    let c = router.metrics().construction;
    // Tiered-probe conservation: every untraced query is an L1 hit, an
    // L2 hit, or an L2 miss (the tier analogue of the fan-query law).
    assert_eq!(
        c.family_hits + c.l2_hits + c.l2_misses,
        c.queries,
        "tiered-probe conservation law"
    );
    assert!(c.l2_hits > 0, "hot pool must hit the shared tier");
    assert!(
        c.fault_reroutes > 0,
        "interior faults must force repairs ({} reroutes)",
        c.fault_reroutes
    );
    assert!(
        c.l2_invalidations <= c.l2_hits && c.l2_invalidations <= c.fault_reroutes,
        "invalidations ({}) bounded by l2 hits ({}) and reroutes ({})",
        c.l2_invalidations,
        c.l2_hits,
        c.fault_reroutes
    );
    assert_eq!(c.fault_generation, router.generation());
    // Plan conservation survives the tiers: the plain stage (replayed
    // or fresh) selects exactly degree plans per query, and the
    // fault-rebuild path never touches the plan counters.
    assert_eq!(
        c.rotation_plans + c.detour_plans,
        (h.m() as u64 + 1) * c.cross_cube + c.same_cube,
        "plan conservation across cache tiers"
    );
}

/// The serial single-query paths (round-robin across workers, both the
/// owned shim `query` and the pooled `query_into`) agree with
/// `query_many` and with the oracle.
#[test]
fn single_query_round_robin_matches_batch() {
    let h = Hhc::new(2).unwrap();
    let mut router = Router::new(2, RouterConfig::default()).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = vec![
        (node(&h, 3, 1), node(&h, 200, 2)),
        (node(&h, 7, 0), node(&h, 7, 3)),
        (node(&h, 0, 0), node(&h, u64::MAX, 1)),
    ];
    let batch = router.query_many(&pairs);
    let mut single = PathSet::new();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        assert_eq!(router.query(u, v), batch[i]);
        match router.query_into(u, v, &mut single) {
            Ok(n) => {
                let want = batch[i].as_ref().unwrap();
                assert_eq!(n, want.len());
                assert_eq!(&single.to_paths(), want);
            }
            Err(e) => assert_eq!(&Err(e), &batch[i]),
        }
        let want =
            disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &HashSet::new()).map(|(p, _)| p);
        assert_eq!(batch[i], want);
    }
    // Equal endpoints error through the service like the library.
    let w = node(&h, 5, 1);
    assert_eq!(router.query(w, w), Err(HhcError::EqualNodes));
    assert_eq!(
        router.query_into(w, w, &mut single),
        Err(HhcError::EqualNodes)
    );
}
