//! One-to-one node-disjoint paths in `Q_n` (Saad–Schultz construction).
//!
//! Between distinct `u, v` with `k = H(u, v)` there are exactly `n`
//! internally vertex-disjoint paths (the connectivity of `Q_n` is `n`):
//!
//! * **rotations** — for each cyclic rotation of the differing-dimension
//!   sequence `D = (d_0 … d_{k−1})`, flip the dimensions in that rotated
//!   order. Intermediate nodes of rotation `r` are `u ⊕ (cyclic interval
//!   starting at r)`; distinct rotations produce distinct intervals, hence
//!   disjoint interiors. Length `k` each.
//! * **detours** — for each clean dimension `j ∉ D`, flip `j`, then all of
//!   `D` (fixed order), then `j` again. Every interior node differs from
//!   both `u` and `v` in bit `j`, which separates detours from rotations
//!   and from each other. Length `k + 2` each.
//!
//! The same rotation/detour algebra, lifted from dimensions of `Q_n` to
//! *external-crossing positions* of the HHC, powers the paper's HHC-level
//! construction in `hhc-core::disjoint` — this module is both a substrate
//! (used in Case A, same son-cube) and the conceptual template.

use crate::cube::{Cube, CubeError, Node};

/// A path as the sequence of visited vertices, endpoints inclusive.
pub type Path = Vec<Node>;

/// Constructs the full set of `n` internally vertex-disjoint `u–v` paths.
///
/// `H(u,v)` paths have length `H(u,v)`; the remaining `n − H(u,v)` have
/// length `H(u,v) + 2`. Errors if `u == v` or a label is out of range.
///
/// # Examples
/// ```
/// use hypercube::{Cube, paths};
/// let q = Cube::new(5).unwrap();
/// let family = paths::disjoint_paths(&q, 0b00000, 0b00111).unwrap();
/// assert_eq!(family.len(), 5);                       // connectivity of Q_5
/// paths::check_disjoint(&q, 0b00000, 0b00111, &family).unwrap();
/// ```
pub fn disjoint_paths(cube: &Cube, u: Node, v: Node) -> Result<Vec<Path>, CubeError> {
    let (mut dims, mut nodes, mut offsets) = (Vec::new(), Vec::new(), vec![0u32]);
    disjoint_paths_buf(cube, u, v, &mut dims, &mut nodes, &mut offsets)?;
    Ok(offsets
        .windows(2)
        .map(|w| nodes[w[0] as usize..w[1] as usize].to_vec())
        .collect())
}

/// [`disjoint_paths`] writing into caller-owned CSR buffers, in the same
/// order (all rotations first, then detours): each path is appended to
/// `nodes`, with its end offset pushed to `offsets` (callers seed
/// `offsets` with the current `nodes` length — usually `[0]` — so path
/// `i` spans `nodes[offsets[i]..offsets[i+1]]`). `dims_scratch` holds the
/// differing-dimension sequence between calls. Allocation-free once the
/// buffers have warmed up.
pub fn disjoint_paths_buf(
    cube: &Cube,
    u: Node,
    v: Node,
    dims_scratch: &mut Vec<u32>,
    nodes: &mut Vec<Node>,
    offsets: &mut Vec<u32>,
) -> Result<(), CubeError> {
    cube.check(u)?;
    cube.check(v)?;
    if u == v {
        return Err(CubeError::EqualNodes);
    }
    dims_scratch.clear();
    dims_scratch.extend((0..cube.dim()).filter(|&d| (u ^ v) >> d & 1 == 1));
    let dims = &dims_scratch[..];

    // Rotations: lengths k. Rotation r flips dims[r..], then dims[..r].
    for r in 0..dims.len() {
        let mut cur = u;
        nodes.push(cur);
        for &d in dims[r..].iter().chain(&dims[..r]) {
            cur ^= 1u128 << d;
            nodes.push(cur);
        }
        offsets.push(nodes.len() as u32);
    }

    // Detours: lengths k + 2, one per clean dimension j: j, D, j.
    for j in 0..cube.dim() {
        if dims.binary_search(&j).is_ok() {
            continue;
        }
        let mut cur = u ^ (1u128 << j);
        nodes.push(u);
        nodes.push(cur);
        for &d in dims {
            cur ^= 1u128 << d;
            nodes.push(cur);
        }
        nodes.push(cur ^ (1u128 << j));
        offsets.push(nodes.len() as u32);
    }
    Ok(())
}

/// Checks that `paths` is a family of simple `u–v` paths in `cube`,
/// pairwise disjoint except at the shared endpoints.
pub fn check_disjoint(cube: &Cube, u: Node, v: Node, paths: &[Path]) -> Result<(), String> {
    let mut interiors = std::collections::HashSet::new();
    for (i, p) in paths.iter().enumerate() {
        if p.first() != Some(&u) || p.last() != Some(&v) {
            return Err(format!("path {i}: wrong endpoints"));
        }
        let mut own = std::collections::HashSet::new();
        for w in p.windows(2) {
            if cube.distance(w[0], w[1]) != 1 {
                return Err(format!("path {i}: non-edge {:#x}→{:#x}", w[0], w[1]));
            }
        }
        for &x in p {
            if !own.insert(x) {
                return Err(format!("path {i}: revisits {x:#x}"));
            }
        }
        for &x in &p[1..p.len() - 1] {
            if !interiors.insert(x) {
                return Err(format!("paths share interior node {x:#x}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_nodes_full_fan() {
        let q = Cube::new(4).unwrap();
        let ps = disjoint_paths(&q, 0b0000, 0b0001).unwrap();
        assert_eq!(ps.len(), 4);
        check_disjoint(&q, 0b0000, 0b0001, &ps).unwrap();
        // One direct edge, three detours of length 3.
        let mut lens: Vec<_> = ps.iter().map(|p| p.len() - 1).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 3, 3, 3]);
    }

    #[test]
    fn antipodal_nodes_all_rotations() {
        let q = Cube::new(5).unwrap();
        let ps = disjoint_paths(&q, 0, 0b11111).unwrap();
        assert_eq!(ps.len(), 5);
        check_disjoint(&q, 0, 0b11111, &ps).unwrap();
        assert!(ps.iter().all(|p| p.len() - 1 == 5), "all length k = n");
    }

    #[test]
    fn path_length_structure() {
        let q = Cube::new(6).unwrap();
        let (u, v) = (0b000000u128, 0b001101u128); // k = 3
        let ps = disjoint_paths(&q, u, v).unwrap();
        check_disjoint(&q, u, v, &ps).unwrap();
        let mut lens: Vec<_> = ps.iter().map(|p| p.len() - 1).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![3, 3, 3, 5, 5, 5]);
    }

    #[test]
    fn exhaustive_q4_all_pairs() {
        let q = Cube::new(4).unwrap();
        for u in 0..16u128 {
            for v in 0..16u128 {
                if u == v {
                    assert!(disjoint_paths(&q, u, v).is_err());
                    continue;
                }
                let ps = disjoint_paths(&q, u, v).unwrap();
                assert_eq!(ps.len(), 4);
                check_disjoint(&q, u, v, &ps).unwrap_or_else(|e| panic!("u={u:#b} v={v:#b}: {e}"));
            }
        }
    }

    #[test]
    fn exhaustive_q6_from_zero() {
        let q = Cube::new(6).unwrap();
        for v in 1..64u128 {
            let ps = disjoint_paths(&q, 0, v).unwrap();
            check_disjoint(&q, 0, v, &ps).unwrap();
        }
    }

    #[test]
    fn matches_flow_optimum_on_materialized_cube() {
        let q = Cube::new(5).unwrap();
        let g = q.materialize().unwrap();
        let constructive = disjoint_paths(&q, 3, 28).unwrap();
        let optimum = graphs::vertex_connectivity_between(&g, 3, 28);
        assert_eq!(constructive.len() as u32, optimum);
    }

    #[test]
    fn symbolic_scale_q100() {
        let q = Cube::new(100).unwrap();
        let u: Node = 0;
        let v: Node = (1u128 << 40) - 1; // k = 40
        let ps = disjoint_paths(&q, u, v).unwrap();
        assert_eq!(ps.len(), 100);
        check_disjoint(&q, u, v, &ps).unwrap();
        let max_len = ps.iter().map(|p| p.len() - 1).max().unwrap();
        assert_eq!(max_len, 42); // k + 2
    }

    #[test]
    fn checker_detects_violations() {
        let q = Cube::new(3).unwrap();
        // Two copies of the same path share interiors.
        let p = vec![0u128, 1, 3, 7];
        assert!(check_disjoint(&q, 0, 7, &[p.clone(), p]).is_err());
    }
}
