//! Breadth-first search: ground-truth distances for cross-validation.
//!
//! Symbolic routing and path constructions in `hypercube` and `hhc-core`
//! are checked against BFS distances computed here on materialised graphs.

use crate::csr::CsrGraph;
use std::collections::VecDeque;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// A single-source BFS result: the distance of every node.
pub struct Bfs {
    dist: Vec<u32>,
}

impl Bfs {
    /// Runs BFS from `source`.
    ///
    /// # Panics
    /// Panics if `source` is not a node of `g`.
    pub fn run(g: &CsrGraph, source: u32) -> Self {
        Self::run_avoiding(g, source, |_| false)
    }

    /// Runs BFS from `source`, never entering nodes for which
    /// `blocked(v)` is true (the source itself is always entered).
    ///
    /// Used by the fault-tolerance experiments to compute ground-truth
    /// reachability in a faulty network.
    ///
    /// # Panics
    /// Panics if `source` is not a node of `g`.
    pub fn run_avoiding<F: Fn(u32) -> bool>(g: &CsrGraph, source: u32, blocked: F) -> Self {
        let n = g.num_nodes() as usize;
        assert!((source as usize) < n, "source out of range");
        let mut dist = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        dist[source as usize] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                if dist[w as usize] == UNREACHABLE && !blocked(w) {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        Bfs { dist }
    }

    /// Distance from the source to `v`, or `None` if unreachable.
    #[inline]
    pub fn dist(&self, v: u32) -> Option<u32> {
        match self.dist[v as usize] {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// Maximum finite distance from the source (eccentricity), or `None`
    /// if the graph has a single node and no other reachable node.
    pub fn eccentricity(&self) -> Option<u32> {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
    }

    /// Number of nodes reachable from the source (including the source).
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }
}

/// Exact diameter by all-pairs BFS. Intended for small graphs
/// (every materialised HHC with m ≤ 3, i.e. ≤ 2048 nodes).
///
/// Returns `None` for a disconnected or empty graph.
pub fn diameter(g: &CsrGraph) -> Option<u32> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..n {
        let bfs = Bfs::run(g, v);
        if bfs.reachable_count() != n as usize {
            return None;
        }
        best = best.max(bfs.eccentricity().unwrap_or(0));
    }
    Some(best)
}

/// Whether `g` is connected (trivially true for the empty graph).
pub fn is_connected(g: &CsrGraph) -> bool {
    let n = g.num_nodes();
    n == 0 || Bfs::run(g, 0).reachable_count() == n as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> CsrGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    fn cycle_graph(n: u32) -> CsrGraph {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        let bfs = Bfs::run(&g, 0);
        for v in 0..5 {
            assert_eq!(bfs.dist(v), Some(v));
        }
        assert_eq!(bfs.eccentricity(), Some(4));
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&cycle_graph(8)), Some(4));
        assert_eq!(diameter(&cycle_graph(9)), Some(4));
        assert_eq!(diameter(&path_graph(6)), Some(5));
    }

    #[test]
    fn disconnected_graph_reports_none_diameter() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter(&g), None);
        assert!(!is_connected(&g));
        let bfs = Bfs::run(&g, 0);
        assert_eq!(bfs.dist(2), None);
        assert_eq!(bfs.dist(3), None);
        assert_eq!(bfs.reachable_count(), 2);
    }

    #[test]
    fn blocked_nodes_are_avoided() {
        // 0-1-2 and 0-3-2: blocking 1 forces the longer way around.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let bfs = Bfs::run_avoiding(&g, 0, |v| v == 1);
        assert_eq!(bfs.dist(2), Some(2));
        assert_eq!(bfs.dist(1), None);
    }

    #[test]
    fn connected_check() {
        assert!(is_connected(&cycle_graph(5)));
        assert!(is_connected(&CsrGraph::from_edges(0, &[])));
        assert!(is_connected(&CsrGraph::from_edges(1, &[])));
        assert!(!is_connected(&CsrGraph::from_edges(2, &[])));
    }
}
