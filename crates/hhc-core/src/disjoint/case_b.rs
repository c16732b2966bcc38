//! The general (cross-cube) case of the construction.
//!
//! Given `u = (Xu, Yu)` and `v = (Xv, Yv)` with `Xu ≠ Xv`, let
//! `D = {p : Xu[p] ≠ Xv[p]}`, `k = |D| ≥ 1`. The `m + 1` paths are built
//! from crossing plans of two shapes:
//!
//! * **rotations** — cyclic rotations of `D` ordered along the Gray cycle
//!   of `Q_m`. Rotation `r` visits intermediate cubes `Xu ⊕ (cyclic
//!   interval of D starting at r)`; distinct rotations give distinct
//!   intervals, hence disjoint intermediate cube sets.
//! * **detours** — for a position `b ∉ D`: cross `b`, cross all of `D`,
//!   cross `b` again. Every intermediate cube has bit `b` flipped, which
//!   separates detours from all rotations and from each other.
//!
//! Plan selection must satisfy two *degree constraints*: the source node
//! has only `m` internal neighbours, so exactly one plan must leave `u`
//! through its external edge — i.e. have first crossing `int(Yu)` — and
//! symmetrically exactly one plan must enter `v` through its external
//! edge (last crossing `int(Yv)`). If `int(Yu) ∈ D` the rotation starting
//! there is forced into the selection; otherwise the detour `b = int(Yu)`
//! is. Likewise on the target side.
//!
//! Inside the source cube, the remaining `m` plans start at distinct
//! coordinates; a disjoint *fan* from `Yu` to those coordinates (Menger's
//! fan lemma, computed exactly by max-flow on the ≤ 2^m-node son-cube)
//! provides internally disjoint stubs. Symmetrically in the target cube.
//! Since all other cube sets are disjoint, the full paths are internally
//! vertex-disjoint by construction.
//!
//! All intermediate state lives in the caller's [`PathBuilder`]; after a
//! warm-up query at a given `m`, a construction performs no allocation.

use super::plan::{assemble_into, CrossingPlan};
use super::{ConstructionCase, ConstructionTrace, CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use hypercube::fan::fan_paths_canonical;
use hypercube::gray::gray_rank;

/// Sentinel in the per-plan segment tables: the plan starts (resp. ends)
/// at the terminal's own coordinate, so no fan segment is needed.
const SELF: u32 = u32::MAX;

/// Appends the differing positions to `out` in plan order according to
/// `order`, anchored at `anchor` (Gray order starts at the first position
/// the Gray cycle visits at-or-after the anchor). Scratch-buffer
/// equivalent of `hypercube::gray::sort_along_gray_cycle`.
pub(super) fn order_positions_into(
    d: &[u32],
    m: u32,
    anchor: u32,
    order: CrossingOrder,
    keyed: &mut Vec<(u64, u32)>,
    out: &mut Vec<u32>,
) {
    match order {
        CrossingOrder::Gray => {
            let period = 1u64 << m;
            let anchor_rank = gray_rank(anchor as u64);
            keyed.clear();
            keyed.extend(d.iter().map(|&p| {
                let r = gray_rank(p as u64);
                // Cyclic distance from the anchor's rank, so the order
                // starts at the anchor's position on the cycle.
                ((r + period - anchor_rank) % period, p)
            }));
            keyed.sort_unstable();
            out.extend(keyed.iter().map(|&(_, p)| p));
        }
        CrossingOrder::Sorted => {
            // `d` is produced in ascending position order already.
            debug_assert!(d.windows(2).all(|w| w[0] < w[1]));
            out.extend_from_slice(d);
        }
    }
}

pub(super) fn cross_cube_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    out: &mut PathSet,
    sc: &mut PathBuilder,
    want_trace: bool,
) -> Result<Option<ConstructionTrace>, HhcError> {
    let m = hhc.m();
    let total = (m + 1) as usize;
    let cube = hhc.son_cube();
    let (yu, yv) = (hhc.node_field(u), hhc.node_field(v));
    let (xu, xv) = (hhc.cube_field(u), hhc.cube_field(v));
    let dx = xu ^ xv;
    debug_assert_ne!(dx, 0, "case B requires differing cube fields");

    sc.d_positions.clear();
    sc.d_positions
        .extend((0..hhc.positions()).filter(|&p| dx >> p & 1 == 1));
    let k = sc.d_positions.len();
    let in_d = |p: u32| dx >> p & 1 == 1;

    // The rotation base order (shared by all rotations so that their
    // intermediate cube sets are cyclic intervals of one fixed sequence).
    sc.gd.clear();
    order_positions_into(&sc.d_positions, m, yu, order, &mut sc.keyed, &mut sc.gd);

    // --- Plan selection -------------------------------------------------
    // Required detours: the side coordinates not coverable by a rotation.
    sc.det_sel.clear();
    if !in_d(yu) {
        sc.det_sel.push(yu);
    }
    if !in_d(yv) && !sc.det_sel.contains(&yv) {
        sc.det_sel.push(yv);
    }
    let nd = total.saturating_sub(k).max(sc.det_sel.len());
    let nr = total - nd;
    debug_assert!(nr <= k);

    // Required rotations: start at int(Yu) / end at int(Yv) when in D.
    sc.rot_sel.clear();
    if in_d(yu) {
        let i = sc.gd.iter().position(|&p| p == yu).expect("yu in D");
        sc.rot_sel.push(i);
    }
    if in_d(yv) {
        let i = sc.gd.iter().position(|&p| p == yv).expect("yv in D");
        let r = (i + 1) % k;
        if !sc.rot_sel.contains(&r) {
            sc.rot_sel.push(r);
        }
    }
    debug_assert!(
        sc.rot_sel.len() <= nr,
        "required rotations {} exceed budget {nr}",
        sc.rot_sel.len()
    );
    for r in 0..k {
        if sc.rot_sel.len() == nr {
            break;
        }
        if !sc.rot_sel.contains(&r) {
            sc.rot_sel.push(r);
        }
    }

    for b in 0..hhc.positions() {
        if sc.det_sel.len() == nd {
            break;
        }
        if !in_d(b) && !sc.det_sel.contains(&b) {
            sc.det_sel.push(b);
        }
    }
    debug_assert_eq!(
        sc.det_sel.len(),
        nd,
        "not enough clean positions (impossible)"
    );

    // --- Plans (flat arena: positions + offsets) -------------------------
    sc.plan_pos.clear();
    sc.plan_off.clear();
    sc.plan_off.push(0);
    for i in 0..sc.rot_sel.len() {
        let r = sc.rot_sel[i];
        sc.plan_pos.extend_from_slice(&sc.gd[r..]);
        sc.plan_pos.extend_from_slice(&sc.gd[..r]);
        sc.plan_off.push(sc.plan_pos.len() as u32);
    }
    for i in 0..sc.det_sel.len() {
        let b = sc.det_sel[i];
        // Each detour orders D anchored at its own entry coordinate; the
        // disjointness argument only needs bit b, not a shared order.
        sc.plan_pos.push(b);
        order_positions_into(
            &sc.d_positions,
            m,
            b,
            order,
            &mut sc.keyed,
            &mut sc.plan_pos,
        );
        sc.plan_pos.push(b);
        sc.plan_off.push(sc.plan_pos.len() as u32);
    }
    let plan = |i: usize| &sc.plan_pos[sc.plan_off[i] as usize..sc.plan_off[i + 1] as usize];
    debug_assert_eq!(sc.plan_off.len() - 1, total);
    debug_assert!(
        (0..total).all(|i| { plan(i).iter().fold(0u128, |acc, &p| acc ^ (1u128 << p)) == dx })
    );
    #[cfg(debug_assertions)]
    check_cube_disjointness(&sc.plan_pos, &sc.plan_off, xu, xv);

    // --- End segments via disjoint fans ----------------------------------
    // For each plan, record which fan path (if any) supplies its segment
    // inside the terminal cubes, in the same pass that collects the fan
    // targets (fan paths come back in target order).
    sc.src_targets.clear();
    sc.tgt_targets.clear();
    sc.seg_src.clear();
    sc.seg_tgt.clear();
    for i in 0..total {
        let p = plan(i);
        let (first, last) = (p[0], p[p.len() - 1]);
        if first == yu {
            sc.seg_src.push(SELF);
        } else {
            sc.seg_src.push(sc.src_targets.len() as u32);
            sc.src_targets.push(first as u128);
        }
        if last == yv {
            sc.seg_tgt.push(SELF);
        } else {
            sc.seg_tgt.push(sc.tgt_targets.len() as u32);
            sc.tgt_targets.push(last as u128);
        }
    }
    debug_assert_eq!(sc.seg_src.iter().filter(|&&s| s == SELF).count(), 1);
    debug_assert_eq!(sc.seg_tgt.iter().filter(|&&s| s == SELF).count(), 1);
    debug_assert_eq!(sc.src_targets.len(), m as usize);
    debug_assert_eq!(sc.tgt_targets.len(), m as usize);

    // Both terminal fans are solved in canonical form (source translated
    // to 0, targets sorted), which fixes the fans every constructed
    // family uses; a direct solve would pick different, equally valid
    // minimum-length fans.
    fan_paths_canonical(&cube, yu as u128, &sc.src_targets, &mut sc.src_fan)
        .expect("fan lemma: m distinct targets in Q_m");
    fan_paths_canonical(&cube, yv as u128, &sc.tgt_targets, &mut sc.tgt_fan)
        .expect("fan lemma: m distinct targets in Q_m");

    // --- Assembly ---------------------------------------------------------
    const EMPTY: &[u128] = &[];
    for i in 0..total {
        // Source fan runs Yu → first; drop the shared Yu.
        let src_tail = match sc.seg_src[i] {
            SELF => EMPTY.iter(),
            j => sc.src_fan.path(j as usize)[1..].iter(),
        }
        .map(|&y| y as u32);
        // Target fan runs Yv → last; the path needs last → Yv.
        let tgt_tail = match sc.seg_tgt[i] {
            SELF => EMPTY.iter(),
            j => {
                let fp = sc.tgt_fan.path(j as usize);
                fp[..fp.len() - 1].iter()
            }
        }
        .rev()
        .map(|&y| y as u32);
        assemble_into(hhc, u, src_tail, plan(i), tgt_tail, out)?;
    }

    if !want_trace {
        return Ok(None);
    }
    Ok(Some(ConstructionTrace {
        case: ConstructionCase::CrossCube,
        rotations: nr,
        detours: nd,
        plans: (0..total)
            .map(|i| {
                Some(CrossingPlan {
                    positions: plan(i).to_vec(),
                })
            })
            .collect(),
        source_fan_targets: sc.src_targets.iter().map(|&t| t as u32).collect(),
        target_fan_targets: sc.tgt_targets.iter().map(|&t| t as u32).collect(),
    }))
}

/// Debug check: intermediate cube sets are pairwise disjoint and avoid
/// both terminal cubes.
#[cfg(debug_assertions)]
fn check_cube_disjointness(plan_pos: &[u32], plan_off: &[u32], xu: u128, xv: u128) {
    let mut seen = std::collections::HashSet::new();
    for i in 0..plan_off.len() - 1 {
        let positions = &plan_pos[plan_off[i] as usize..plan_off[i + 1] as usize];
        let mut x = xu;
        for &p in &positions[..positions.len() - 1] {
            x ^= 1u128 << p;
            assert_ne!(x, xu, "plan {i} revisits the source cube");
            assert_ne!(x, xv, "plan {i} enters the target cube early");
            assert!(seen.insert(x), "plans share intermediate cube {x:#x}");
        }
    }
}
