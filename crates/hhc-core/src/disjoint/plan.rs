//! Crossing plans and path assembly.
//!
//! A *crossing plan* is the ordered list of cube-field positions a path
//! crosses. Realising a plan means: walk inside the current son-cube to
//! the next crossing coordinate, take the external edge there, repeat, and
//! finally walk to the destination's son-cube coordinate.
//!
//! Assembly is split into three pieces because the construction controls
//! the end segments explicitly (they come from disjoint *fans* inside the
//! source and target cubes) while the middle segments are plain e-cube
//! walks:
//!
//! ```text
//!  u ──src_seg──▸ (Xu, p₁) ──cross──▸ … mids: walk+cross … ──▸ (Xv, p_t) ──tgt_seg──▸ v
//! ```

use crate::error::HhcError;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;

/// A crossing plan: the exact sequence of cube-field positions crossed,
/// in order. XOR of `e_p` over the plan must equal `Xu ⊕ Xv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossingPlan {
    /// Crossing positions, each `< 2^m`.
    pub positions: Vec<u32>,
}

impl CrossingPlan {
    /// The intermediate cube fields this plan's path visits, given the
    /// source cube field: the proper prefix XORs (excluding the source
    /// cube itself and the final cube).
    pub fn intermediate_cubes(&self, xu: u128) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.positions.len().saturating_sub(1));
        let mut x = xu;
        for &p in &self.positions[..self.positions.len() - 1] {
            x ^= 1u128 << p;
            out.push(x);
        }
        out
    }
}

/// Assembles a full path from its three pieces into a caller-owned
/// [`PathSet`]: appends it as one new sealed path and allocates nothing.
///
/// * `src_tail` — the source walk inside the source cube *after* `Yu`,
///   ending at `positions[0]` (empty when the path leaves `u` directly
///   via its external edge);
/// * `positions` — the crossing plan: a crossing after `src_tail`, then
///   an e-cube walk to each subsequent position and a crossing there;
///   the walks resolve dimensions in ascending order, matching
///   `hypercube::routing::shortest_path`;
/// * `tgt_tail` — the target walk *after* the entry coordinate
///   `positions[last]`, ending at `Yv`.
///
/// The caller — the construction — guarantees the pieces line up, and
/// `verify` re-checks the output.
pub(super) fn assemble_into(
    hhc: &Hhc,
    u: NodeId,
    src_tail: impl IntoIterator<Item = u32>,
    positions: &[u32],
    tgt_tail: impl IntoIterator<Item = u32>,
    out: &mut PathSet,
) -> Result<(), HhcError> {
    let mut cur = u;
    out.push_node(cur);

    // Source segment inside the source cube (fan-provided, may be any
    // simple coordinate walk).
    for y in src_tail {
        cur = hhc.node(hhc.cube_field(cur), y)?;
        out.push_node(cur);
    }
    // First crossing.
    cur = hhc.external_neighbor(cur);
    out.push_node(cur);

    // Middle: e-cube walk to each next position, then cross.
    for &p in &positions[1..] {
        loop {
            let y = hhc.node_field(cur);
            if y == p {
                break;
            }
            let d = (y ^ p).trailing_zeros();
            cur = hhc.node(hhc.cube_field(cur), y ^ (1 << d))?;
            out.push_node(cur);
        }
        cur = hhc.external_neighbor(cur);
        out.push_node(cur);
    }

    // Target segment inside the target cube (reversed fan path).
    for y in tgt_tail {
        cur = hhc.node(hhc.cube_field(cur), y)?;
        out.push_node(cur);
    }
    out.finish_path();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intermediate_cubes_are_prefix_xors() {
        let plan = CrossingPlan {
            positions: vec![0, 2, 3],
        };
        let xu = 0b0000u128;
        assert_eq!(plan.intermediate_cubes(xu), vec![0b0001, 0b0101]);
    }

    /// The one path `assemble_into` appends to a fresh set.
    fn assemble(
        h: &Hhc,
        u: NodeId,
        src_tail: &[u32],
        positions: &[u32],
        tgt_tail: &[u32],
    ) -> Vec<NodeId> {
        let mut out = PathSet::new();
        assemble_into(
            h,
            u,
            src_tail.iter().copied(),
            positions,
            tgt_tail.iter().copied(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        out.path(0).to_vec()
    }

    #[test]
    fn assemble_direct_external_hop() {
        // Plan [Yu] with trivial segments: u → external neighbour.
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0000, 0b10).unwrap();
        let p = assemble(&h, u, &[], &[0b10], &[]);
        assert_eq!(p, vec![u, h.external_neighbor(u)]);
    }

    #[test]
    fn assemble_multi_crossing_path() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0000, 0b00).unwrap();
        // Cross at 0, then at 3: ends in cube 0b1001 at coordinate 3,
        // then walks on to coordinate 2.
        let p = assemble(&h, u, &[], &[0, 3], &[2]);
        // Validate every hop is an edge and endpoints are right.
        assert_eq!(*p.first().unwrap(), u);
        let last = *p.last().unwrap();
        assert_eq!(h.cube_field(last), 0b1001);
        assert_eq!(h.node_field(last), 2);
        for w in p.windows(2) {
            assert!(h.is_edge(w[0], w[1]));
        }
    }

    #[test]
    fn assemble_uses_fan_segment_verbatim() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0, 0b000).unwrap();
        // Custom (non-e-cube) source walk 000 → 100 → 101.
        let p = assemble(&h, u, &[0b100, 0b101], &[0b101], &[]);
        assert_eq!(p.len(), 4);
        assert_eq!(h.node_field(p[1]), 0b100);
        assert_eq!(h.node_field(p[2]), 0b101);
        assert_eq!(h.cube_field(p[3]), 1 << 0b101);
    }
}
