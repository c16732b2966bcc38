//! Property-based tests for the graph substrate: random graphs, checked
//! invariants between BFS, Dinic, and the Menger decomposition.

use graphs::{bfs, csr::CsrGraph, vertex_disjoint};
use proptest::prelude::*;

/// Strategy: a random simple graph with n in [2, 24] nodes given by an
/// edge-presence bitmask over the upper-triangular pairs.
fn random_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2u32..=24,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(n, a, b, c, d, e)| {
            let words = [a, b, c, d, e];
            let mut edges = Vec::new();
            let mut idx = 0usize;
            for x in 0..n {
                for y in x + 1..n {
                    let bit = words[idx / 64] >> (idx % 64) & 1;
                    // Thin the graph a little so cuts are interesting.
                    if bit == 1 && (!idx.is_multiple_of(3) || x + 1 == y) {
                        edges.push((x, y));
                    }
                    idx += 1;
                }
            }
            CsrGraph::from_edges(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BFS distances satisfy the edge-relaxation (triangle) property:
    /// |d(u) − d(w)| ≤ 1 across every edge reachable from the source.
    #[test]
    fn bfs_distances_are_consistent(g in random_graph()) {
        let run = bfs::Bfs::run(&g, 0);
        for (a, b) in g.edges() {
            match (run.dist(a), run.dist(b)) {
                (Some(da), Some(db)) => {
                    prop_assert!(da.abs_diff(db) <= 1, "edge ({a},{b}): {da} vs {db}");
                }
                (Some(_), None) | (None, Some(_)) => {
                    return Err(TestCaseError::fail(
                        proptest::test_runner::Reason::from("edge with one endpoint unreachable"),
                    ));
                }
                (None, None) => {}
            }
        }
    }

    /// Path reconstruction matches the reported distance for every node.
    #[test]
    fn bfs_paths_match_distances(g in random_graph()) {
        let run = bfs::Bfs::run(&g, 0);
        for v in 0..g.num_nodes() {
            if let Some(p) = run.path_to(v) {
                prop_assert_eq!((p.len() - 1) as u32, run.dist(v).unwrap());
                for w in p.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            } else {
                prop_assert_eq!(run.dist(v), None);
            }
        }
    }

    /// Local vertex connectivity is symmetric and bounded by min degree.
    #[test]
    fn vertex_connectivity_symmetric(g in random_graph()) {
        let n = g.num_nodes();
        let (s, t) = (0, n - 1);
        let st = vertex_disjoint::vertex_connectivity_between(&g, s, t);
        let ts = vertex_disjoint::vertex_connectivity_between(&g, t, s);
        prop_assert_eq!(st, ts);
        if !g.has_edge(s, t) {
            prop_assert!(st <= g.degree(s).min(g.degree(t)));
        }
    }

    /// The vertex-disjoint decomposition is valid and achieves κ(s,t).
    #[test]
    fn vertex_disjoint_paths_validate(g in random_graph()) {
        let (s, t) = (0, g.num_nodes() - 1);
        let k = vertex_disjoint::vertex_connectivity_between(&g, s, t);
        let ps = vertex_disjoint::vertex_disjoint_paths(&g, s, t);
        prop_assert_eq!(ps.len() as u32, k);
        vertex_disjoint::check_disjoint_paths(&g, s, t, &ps)
            .map_err(|e| TestCaseError::fail(proptest::test_runner::Reason::from(e)))?;
    }

    /// κ(s,t) > 0 iff s and t are in the same BFS component.
    #[test]
    fn connectivity_agrees_with_reachability(g in random_graph()) {
        let (s, t) = (0, g.num_nodes() - 1);
        let reach = bfs::Bfs::run(&g, s).dist(t).is_some();
        let k = vertex_disjoint::vertex_connectivity_between(&g, s, t);
        prop_assert_eq!(reach, k > 0);
    }
}
