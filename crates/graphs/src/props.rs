//! Structural property checks used by the topology validation experiments
//! (Table T1) and by tests that materialise symbolic topologies.

use crate::csr::CsrGraph;

/// Whether every node has degree exactly `d`.
pub fn is_regular(g: &CsrGraph, d: u32) -> bool {
    (0..g.num_nodes()).all(|v| g.degree(v) == d)
}

/// Whether the graph is bipartite (2-colourable).
///
/// Both `Q_n` and the HHC are bipartite (every edge flips exactly one bit
/// of the combined address), and T1 verifies this on materialised instances.
pub fn is_bipartite(g: &CsrGraph) -> bool {
    let n = g.num_nodes() as usize;
    let mut color = vec![u8::MAX; n];
    for start in 0..n as u32 {
        if color[start as usize] != u8::MAX {
            continue;
        }
        color[start as usize] = 0;
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    stack.push(w);
                } else if color[w as usize] == color[v as usize] {
                    return false;
                }
            }
        }
    }
    true
}

/// Girth (length of a shortest cycle) computed by BFS from every node,
/// or `None` for a forest. Small graphs only.
pub fn girth(g: &CsrGraph) -> Option<u32> {
    use std::collections::VecDeque;
    let n = g.num_nodes();
    let mut best: Option<u32> = None;
    for s in 0..n {
        let mut dist = vec![u32::MAX; n as usize];
        let mut parent = vec![u32::MAX; n as usize];
        dist[s as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    parent[w as usize] = v;
                    q.push_back(w);
                } else if parent[v as usize] != w {
                    // Non-tree edge closes a cycle through s of length
                    // dist[v] + dist[w] + 1 (an upper bound that is tight
                    // for the node on the shortest cycle).
                    let c = dist[v as usize] + dist[w as usize] + 1;
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> CsrGraph {
        CsrGraph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn cycle_is_two_regular() {
        assert!(is_regular(&cycle(6), 2));
        assert!(!is_regular(&cycle(6), 3));
    }

    #[test]
    fn even_cycles_bipartite_odd_not() {
        assert!(is_bipartite(&cycle(8)));
        assert!(!is_bipartite(&cycle(7)));
    }

    #[test]
    fn girth_values() {
        assert_eq!(girth(&cycle(5)), Some(5));
        assert_eq!(girth(&cycle(12)), Some(12));
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(girth(&path), None);
    }

    #[test]
    fn empty_graph_properties() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(is_bipartite(&g));
        assert_eq!(girth(&g), None);
    }
}
