//! Property-based tests for the hypercube substrate, cross-validated
//! against the explicit-graph ground truth where cubes are small enough
//! to materialise.

use hypercube::{fan, gray, paths, routing, Cube};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Constructive disjoint paths achieve the Menger optimum (= n) on
    /// materialisable cubes.
    #[test]
    fn disjoint_paths_match_flow_optimum(n in 2u32..=6, a in any::<u64>(), b in any::<u64>()) {
        let cube = Cube::new(n).unwrap();
        let mask = (1u128 << n) - 1;
        let (u, v) = (a as u128 & mask, b as u128 & mask);
        prop_assume!(u != v);
        let ps = paths::disjoint_paths(&cube, u, v).unwrap();
        let g = cube.materialize().unwrap();
        let flow = graphs::vertex_connectivity_between(&g, u as u32, v as u32);
        prop_assert_eq!(ps.len() as u32, flow);
    }

    /// E-cube routes agree with BFS distance exactly.
    #[test]
    fn shortest_path_is_shortest(n in 1u32..=8, a in any::<u64>(), b in any::<u64>()) {
        let cube = Cube::new(n).unwrap();
        let mask = (1u128 << n) - 1;
        let (u, v) = (a as u128 & mask, b as u128 & mask);
        let p = routing::shortest_path(&cube, u, v);
        prop_assert_eq!((p.len() - 1) as u32, cube.distance(u, v));
        let g = cube.materialize().unwrap();
        let d = graphs::Bfs::run(&g, u as u32).dist(v as u32).unwrap();
        prop_assert_eq!((p.len() - 1) as u32, d);
    }

    /// Fan total length is bounded by the node budget (paths are disjoint
    /// beyond the source, so they occupy ≤ 2^n − 1 distinct nodes).
    #[test]
    fn fan_total_length_bounded(
        n in 2u32..=6,
        s in any::<u64>(),
        t in proptest::collection::vec(any::<u64>(), 1..=6),
    ) {
        let cube = Cube::new(n).unwrap();
        let mask = (1u128 << n) - 1;
        let s = s as u128 & mask;
        let mut targets: Vec<u128> = t.into_iter().map(|x| x as u128 & mask).collect();
        targets.sort_unstable();
        targets.dedup();
        targets.retain(|&x| x != s);
        targets.truncate(n as usize);
        prop_assume!(!targets.is_empty());
        let f = fan::fan_paths(&cube, s, &targets).unwrap();
        fan::check_fan(&cube, s, &targets, &f)
            .map_err(|e| TestCaseError::fail(proptest::test_runner::Reason::from(e)))?;
        let total: usize = f.iter().map(|p| p.len() - 1).sum();
        prop_assert!((total as u128) < cube.num_nodes());
    }

    /// Gray sequences restricted to arbitrary subsets keep the one-lap
    /// walking bound used by the HHC length analysis.
    #[test]
    fn gray_cycle_order_one_lap(m in 1u32..=6, subset in any::<u64>(), anchor in any::<u32>()) {
        let period = 1u64 << m;
        let set = subset & (u64::MAX >> (64 - period));
        prop_assume!(set != 0);
        let anchor = anchor % period as u32;
        let mut order = Vec::new();
        gray::gray_order_into(set, m, anchor, &mut order);
        prop_assert_eq!(order.len(), set.count_ones() as usize);
        let total: u32 = (0..order.len())
            .map(|i| (order[i] ^ order[(i + 1) % order.len()]).count_ones())
            .sum();
        prop_assert!(total as u64 <= period, "cyclic walk exceeds one lap");
    }
}
