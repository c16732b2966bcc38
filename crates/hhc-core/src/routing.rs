//! Single-path unicast routing in `HHC(m)`.
//!
//! To travel from `(Xu, Yu)` to `(Xv, Yv)` a route must take one external
//! hop *per differing cube-field position* (an external edge at `(X, Y)`
//! flips exactly bit `int(Y)` of `X`, so position `p` can only be crossed
//! while standing at son-cube coordinate `p`). The route therefore visits
//! the differing positions `D` in some order, walking inside son-cubes
//! between them, and finally walks to `Yv`.
//!
//! Ordering `D` along the Gray cycle of `Q_m` (anchored at `Yu`) keeps the
//! total intra-cube walking to at most one lap of the cycle (`2^m` hops),
//! giving route length ≤ `2^m + |D| + m` — within `m` of the network
//! diameter `2^(m+1)`. This is the classic Malluhi–Bayoumi
//! routing scheme; it is also `P_0` of the disjoint-path family in spirit.

use crate::error::HhcError;
use crate::node::NodeId;
use crate::topology::Hhc;
use crate::Path;
use hypercube::gray::gray_order_into;
use hypercube::routing::shortest_path;

/// Computes a route from `u` to `v` with Gray-ordered crossings.
///
/// The result starts at `u`, ends at `v`, is simple, and has length at
/// most `2^m + H(Xu, Xv) + m` (see module docs). `u == v` yields `[u]`.
///
/// # Examples
/// ```
/// use hhc_core::Hhc;
/// let net = Hhc::new(2).unwrap();
/// let u = net.node(0b0000, 0b00).unwrap();
/// let v = net.node(0b1001, 0b11).unwrap();
/// let route = hhc_core::routing::route(&net, u, v).unwrap();
/// assert_eq!(route.first(), Some(&u));
/// assert_eq!(route.last(), Some(&v));
/// assert!(route.windows(2).all(|w| net.is_edge(w[0], w[1])));
/// ```
pub fn route(hhc: &Hhc, u: NodeId, v: NodeId) -> Result<Path, HhcError> {
    hhc.check(u)?;
    hhc.check(v)?;
    let cube = hhc.son_cube();
    let yu = hhc.node_field(u);
    let yv = hhc.node_field(v);
    let dx = hhc.cube_field(u) ^ hhc.cube_field(v);

    // Differing cube-field positions (`2^m ≤ 64` of them: one word),
    // ordered along the Gray cycle from Yu.
    let mut ordered = Vec::new();
    gray_order_into(dx as u64, hhc.m(), yu, &mut ordered);

    let mut path = vec![u];
    let mut cur = u;
    for &p in &ordered {
        // Walk inside the current son-cube to coordinate p…
        let seg = shortest_path(&cube, hhc.node_field(cur) as u128, p as u128);
        for &y in &seg[1..] {
            cur = hhc.node(hhc.cube_field(cur), y as u32)?;
            path.push(cur);
        }
        // …and take the external edge there.
        cur = hhc.external_neighbor(cur);
        path.push(cur);
    }
    // Final intra-cube walk to Yv.
    let seg = shortest_path(&cube, hhc.node_field(cur) as u128, yv as u128);
    for &y in &seg[1..] {
        cur = hhc.node(hhc.cube_field(cur), y as u32)?;
        path.push(cur);
    }
    debug_assert_eq!(cur, v);
    Ok(path)
}

/// Upper bound on the length of [`route`]'s result:
/// one Gray lap of intra-cube walking, one crossing per differing
/// position, plus the final walk to `Yv`.
pub fn route_length_bound(hhc: &Hhc, u: NodeId, v: NodeId) -> u32 {
    let k = (hhc.cube_field(u) ^ hhc.cube_field(v)).count_ones();
    if k == 0 {
        (hhc.node_field(u) ^ hhc.node_field(v)).count_ones()
    } else {
        hhc.positions() + k + hhc.m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_route(hhc: &Hhc, p: &[NodeId], u: NodeId, v: NodeId) {
        assert_eq!(*p.first().unwrap(), u);
        assert_eq!(*p.last().unwrap(), v);
        for w in p.windows(2) {
            assert!(hhc.is_edge(w[0], w[1]), "non-edge in route");
        }
        let set: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(set.len(), p.len(), "route revisits a node");
        assert!(
            (p.len() - 1) as u32 <= route_length_bound(hhc, u, v),
            "route exceeds its bound"
        );
        assert!((p.len() - 1) as u32 >= hhc.distance_lower_bound(u, v));
    }

    #[test]
    fn same_cube_route_is_hamming() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x5A, 0b000).unwrap();
        let v = h.node(0x5A, 0b110).unwrap();
        let p = route(&h, u, v).unwrap();
        check_route(&h, &p, u, v);
        assert_eq!(p.len() - 1, 2);
    }

    #[test]
    fn self_route_is_trivial() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b1001, 0b01).unwrap();
        assert_eq!(route(&h, u, u).unwrap(), vec![u]);
    }

    #[test]
    fn exhaustive_m1_and_m2_routes_valid() {
        for m in 1..=2 {
            let h = Hhc::new(m).unwrap();
            for u in h.iter_nodes() {
                for v in h.iter_nodes() {
                    let p = route(&h, u, v).unwrap();
                    check_route(&h, &p, u, v);
                }
            }
        }
    }

    #[test]
    fn routes_close_to_bfs_distance_on_m2() {
        // Route length is within the documented bound of the true distance;
        // measure the worst stretch for the record.
        let h = Hhc::new(2).unwrap();
        let g = h.materialize().unwrap();
        let mut worst = 0.0f64;
        for u in h.iter_nodes() {
            let bfs = graphs::Bfs::run(&g, u.raw() as u32);
            for v in h.iter_nodes() {
                if u == v {
                    continue;
                }
                let d = bfs.dist(v.raw() as u32).unwrap() as f64;
                let r = (route(&h, u, v).unwrap().len() - 1) as f64;
                worst = worst.max(r / d);
            }
        }
        // Gray-ordered crossings keep stretch modest on HHC(2).
        assert!(worst <= 3.0, "unexpectedly poor stretch {worst}");
    }

    #[test]
    fn route_crosses_once_per_differing_position() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0b0000_0000, 0b010).unwrap();
        let v = h.node(0b1001_0010, 0b010).unwrap(); // k = 3
        let p = route(&h, u, v).unwrap();
        check_route(&h, &p, u, v);
        let crossings = p.windows(2).filter(|w| hhc_cross(&h, w[0], w[1])).count();
        assert_eq!(crossings, 3);
    }

    fn hhc_cross(h: &Hhc, a: NodeId, b: NodeId) -> bool {
        h.cube_field(a) != h.cube_field(b)
    }

    #[test]
    fn symbolic_route_m6() {
        let h = Hhc::new(6).unwrap();
        let u = h.node(0, 0).unwrap();
        let v = h.node(u128::MAX >> 64, 0b101010).unwrap();
        let p = route(&h, u, v).unwrap();
        assert_eq!(*p.last().unwrap(), v);
        assert!((p.len() - 1) as u32 <= route_length_bound(&h, u, v));
        for w in p.windows(2) {
            assert!(h.is_edge(w[0], w[1]));
        }
    }
}
