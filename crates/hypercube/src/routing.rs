//! Shortest-path routing in `Q_n`.
//!
//! E-cube (dimension-ordered) routing resolves the differing dimensions in
//! ascending order; it is deadlock-free in wormhole networks and, more
//! importantly here, *deterministic*: the simulator's `Q_n` routes and
//! the intra-cube walks of the HHC route (`hhc_core::routing::route`) are
//! e-cube paths.

use crate::cube::{Cube, Node};

/// The e-cube shortest path from `u` to `v`, inclusive of both endpoints.
/// Length is exactly `H(u, v) + 1` nodes.
pub fn shortest_path(cube: &Cube, u: Node, v: Node) -> Vec<Node> {
    let dims = cube.differing_dims(u, v);
    let mut path = Vec::with_capacity(dims.len() + 1);
    let mut cur = u;
    path.push(cur);
    for d in dims {
        cur ^= 1u128 << d;
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_path(cube: &Cube, path: &[Node], u: Node, v: Node) {
        assert_eq!(*path.first().unwrap(), u);
        assert_eq!(*path.last().unwrap(), v);
        for w in path.windows(2) {
            assert_eq!(cube.distance(w[0], w[1]), 1, "non-edge in path");
        }
        assert_eq!(path.len() as u32 - 1, cube.distance(u, v), "not shortest");
        let set: std::collections::HashSet<_> = path.iter().collect();
        assert_eq!(set.len(), path.len(), "path revisits a node");
    }

    #[test]
    fn simple_route() {
        let q = Cube::new(4).unwrap();
        let p = shortest_path(&q, 0b0000, 0b1010);
        check_path(&q, &p, 0b0000, 0b1010);
        // Ascending dimension order: flip bit 1, then bit 3.
        assert_eq!(p, vec![0b0000, 0b0010, 0b1010]);
    }

    #[test]
    fn trivial_route_is_single_node() {
        let q = Cube::new(3).unwrap();
        assert_eq!(shortest_path(&q, 0b101, 0b101), vec![0b101]);
    }

    #[test]
    fn all_pairs_q5_shortest() {
        let q = Cube::new(5).unwrap();
        for u in 0..32u128 {
            for v in 0..32u128 {
                let p = shortest_path(&q, u, v);
                check_path(&q, &p, u, v);
            }
        }
    }

    #[test]
    fn symbolic_route_in_q127() {
        let q = Cube::new(127).unwrap();
        let u: Node = 0;
        let v: Node = (1u128 << 127) - 1;
        let p = shortest_path(&q, u, v);
        assert_eq!(p.len(), 128);
        check_path(&q, &p, u, v);
    }
}
