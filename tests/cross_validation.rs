//! Cross-crate validation: the symbolic construction (hhc-core) against
//! explicit-graph ground truth (graphs) on materialised networks.

use hhc_suite::graphs::{bfs, vertex_disjoint};
use hhc_suite::hhc::{verify, CrossingOrder, Hhc, NodeId};

/// The constructive path count equals the Menger optimum for *every*
/// ordered pair of HHC(2) — i.e. the construction achieves connectivity.
#[test]
fn construction_achieves_menger_optimum_everywhere_m2() {
    let h = Hhc::new(2).unwrap();
    let g = h.materialize().unwrap();
    for u in h.iter_nodes() {
        for v in h.iter_nodes() {
            if u == v {
                continue;
            }
            let built = h.disjoint_paths(u, v).unwrap();
            let flow =
                vertex_disjoint::vertex_connectivity_between(&g, u.raw() as u32, v.raw() as u32);
            assert_eq!(built.len() as u32, flow, "pair {u:?} {v:?}");
        }
    }
}

/// Constructive paths, re-expressed as explicit-graph paths, satisfy the
/// *graph library's* independent disjointness checker too.
#[test]
fn construction_passes_graph_level_checker_m2() {
    let h = Hhc::new(2).unwrap();
    let g = h.materialize().unwrap();
    let interesting: Vec<(u128, u128)> = vec![(0, 63), (1, 62), (5, 40), (17, 18), (0, 1)];
    for (a, b) in interesting {
        let u = NodeId::from_raw(a);
        let v = NodeId::from_raw(b);
        let paths = h.disjoint_paths(u, v).unwrap();
        let as_u32: Vec<Vec<u32>> = paths
            .iter()
            .map(|p| p.iter().map(|x| x.raw() as u32).collect())
            .collect();
        vertex_disjoint::check_disjoint_paths(&g, a as u32, b as u32, &as_u32)
            .unwrap_or_else(|e| panic!("pair ({a},{b}): {e}"));
    }
}

/// Single-path routing is never shorter than BFS distance and never
/// exceeds its own bound, over all pairs of HHC(2).
#[test]
fn routing_sandwiched_between_bfs_and_bound_m2() {
    let h = Hhc::new(2).unwrap();
    let g = h.materialize().unwrap();
    for u in h.iter_nodes() {
        let bfs = bfs::Bfs::run(&g, u.raw() as u32);
        for v in h.iter_nodes() {
            if u == v {
                continue;
            }
            let route = h.route(u, v).unwrap();
            let len = (route.len() - 1) as u32;
            let d = bfs.dist(v.raw() as u32).unwrap();
            assert!(len >= d, "route shorter than shortest path?!");
            assert!(len <= hhc_suite::hhc::routing::route_length_bound(&h, u, v));
        }
    }
}

/// The shortest disjoint path in each family is at most a small additive
/// term above the BFS distance (the family contains a near-optimal path).
#[test]
fn families_contain_near_shortest_paths_m2() {
    let h = Hhc::new(2).unwrap();
    let g = h.materialize().unwrap();
    let mut worst_gap = 0i64;
    for u in h.iter_nodes() {
        let bfs = bfs::Bfs::run(&g, u.raw() as u32);
        for v in h.iter_nodes() {
            if u == v {
                continue;
            }
            let paths = h.disjoint_paths(u, v).unwrap();
            let best = paths.iter().map(|p| (p.len() - 1) as i64).min().unwrap();
            let d = bfs.dist(v.raw() as u32).unwrap() as i64;
            worst_gap = worst_gap.max(best - d);
        }
    }
    // One lap of the Gray cycle (2^m = 4) plus the entry/exit slack.
    assert!(
        worst_gap <= (1 << h.m()) + h.m() as i64,
        "shortest family member is {worst_gap} above the true distance"
    );
}

/// Sorted crossing order also verifies everywhere on HHC(1) and HHC(2)
/// (correctness must be order-independent; only lengths differ).
#[test]
fn sorted_order_verifies_everywhere_small() {
    for m in 1..=2 {
        let h = Hhc::new(m).unwrap();
        for u in h.iter_nodes() {
            for v in h.iter_nodes() {
                if u == v {
                    continue;
                }
                let paths =
                    hhc_suite::hhc::disjoint::disjoint_paths(&h, u, v, CrossingOrder::Sorted)
                        .unwrap();
                verify::verify_disjoint_paths(&h, u, v, &paths).unwrap();
            }
        }
    }
}

/// BFS on the materialised HHC(3) confirms the diameter formula 2^(m+1)
/// from a spread of sources (full all-pairs is covered in unit tests for
/// smaller m). The network is self-centered — every sampled eccentricity
/// equals the diameter.
#[test]
fn diameter_formula_spotcheck_m3() {
    let h = Hhc::new(3).unwrap();
    let g = h.materialize().unwrap();
    for src in [0u32, 17, 999, 2047] {
        let ecc = bfs::Bfs::run(&g, src).eccentricity().unwrap();
        assert_eq!(ecc, h.diameter(), "eccentricity of node {src}");
    }
}
