//! The general (cross-cube) case of the construction: the one core that
//! builds both the fault-blind family and its fault-avoiding rebuild.
//!
//! Given `u = (Xu, Yu)` and `v = (Xv, Yv)` with `Xu ≠ Xv`, let
//! `D = {p : Xu[p] ≠ Xv[p]}`, `k = |D| ≥ 1`. The paths are built from a
//! pool of `2^m` crossing plans of two shapes:
//!
//! * **rotations** — the `k` cyclic rotations of `D` ordered along the
//!   Gray cycle of `Q_m`. Rotation `r` visits intermediate cubes
//!   `Xu ⊕ (cyclic interval of D starting at r)`; distinct rotations give
//!   distinct intervals, hence disjoint intermediate cube sets.
//! * **detours** — one per position `b ∉ D`: cross `b`, cross all of
//!   `D`, cross `b` again. Every intermediate cube has bit `b` flipped,
//!   which separates detours from all rotations and from each other.
//!
//! So any subset of the pool has pairwise disjoint intermediate cube
//! sets, and its plans start (and end) at pairwise distinct coordinates:
//! a plan is named by its first crossing.
//!
//! Plan selection must satisfy two *degree constraints*: the source node
//! has only `m` internal neighbours, so exactly one plan must leave `u`
//! through its external edge — i.e. have first crossing `int(Yu)` — and
//! symmetrically exactly one plan must enter `v` through its external
//! edge (last crossing `int(Yv)`). The pool holds exactly one of each:
//! the rotation starting at `int(Yu)` if it lies in `D`, else the detour
//! `b = int(Yu)`; likewise at `v`. Selection visits these two
//! *degree-forced* plans first, then the pool in order (rotations by
//! index, then detours by ascending `b`), and takes viable plans until it
//! has `m + 1`. Without faults every plan is viable, so the family is the
//! first `m + 1` plans in that order. A family lists its rotations before
//! its detours, each kind in selection order.
//!
//! Inside the source cube, the plans that do not leave through `u`'s
//! external edge start at distinct coordinates; a disjoint *fan* from
//! `Yu` to those coordinates (Menger's fan lemma, computed exactly by
//! `hypercube::fan`'s word-parallel unit max-flow on the son-cube, whose
//! node sets are one word for `m ≤ 6`) provides internally disjoint
//! stubs. Symmetrically in the target cube. Since all other cube sets are
//! disjoint, the full paths are internally vertex-disjoint by
//! construction.
//!
//! Given a fault oracle (the rebuild of the `avoid` module), selection
//! first checks each plan's fixed trajectory (terminal stubs and middle
//! walk) and retires a blocked plan for good. The fans then avoid the
//! terminal cubes' faulty coordinates, and a plan whose fan target goes
//! unserved is retired and selection re-runs. Retirement is monotone, so
//! at most `2^m` rounds. Once a degree-forced plan is retired, every
//! other plan consumes one of the `m` fan targets on that side, so the
//! family stops at `m` plans.
//!
//! Only the fan solve depends on the mode. Fault-blind fans are solved in
//! canonical form, which fixes the fans of every plain (hence every
//! cached) family; a rebuild solves its fans directly. The two solves
//! pick different valid fans, so switching the rebuild to the canonical
//! form would move rebuilt answers.
//!
//! All intermediate state lives in the caller's [`PathBuilder`]. A plan's
//! positions are written into its arena the first time selection reaches
//! it, so a fault-free query materialises only its `m + 1` plans; after a
//! warm-up query at a given `m`, a construction performs no allocation.

use super::plan::{assemble_into, CrossingPlan};
use super::{ConstructionCase, ConstructionTrace, CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::fault::FaultOracle;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use hypercube::fan::{fan_paths_avoiding, fan_paths_canonical};
use hypercube::gray::gray_rank;
use hypercube::FanScratch;

/// Sentinel in the per-plan segment tables: the plan starts (resp. ends)
/// at the terminal's own coordinate, so no fan segment is needed.
const SELF: u32 = u32::MAX;

/// Appends the differing positions to `out` in plan order according to
/// `order`, anchored at `anchor` (Gray order starts at the first position
/// the Gray cycle visits at-or-after the anchor). Scratch-buffer
/// equivalent of `hypercube::gray::sort_along_gray_cycle`.
fn order_positions_into(
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

/// Appends the cross-cube family from `u` to `v` to `out`, past the
/// paths already there, and returns how many of its paths are rotations
/// (they come first).
///
/// Without `faults` this is the paper's fault-blind family of `m + 1`
/// paths. With them it avoids every fault `avoid_into` listed into
/// `sc.avoid_faults` (`faults` answers the exact middle-walk probes), and
/// appending nothing means no viable selection survived. Selection never
/// writes `out`, so only the final assembly appends.
pub(super) fn cross_cube_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    faults: Option<&dyn FaultOracle>,
    out: &mut PathSet,
    sc: &mut PathBuilder,
) -> Result<usize, HhcError> {
    let m = hhc.m();
    let num = hhc.positions(); // 2^m plans in the pool
    let cube = hhc.son_cube();
    let (yu, yv) = (hhc.node_field(u), hhc.node_field(v));
    let (xu, xv) = (hhc.cube_field(u), hhc.cube_field(v));
    let dx = xu ^ xv;
    debug_assert_ne!(dx, 0, "case B requires differing cube fields");
    let in_d = |p: u32| dx >> p & 1 == 1;

    sc.d_positions.clear();
    sc.d_positions.extend((0..num).filter(|&p| in_d(p)));
    let k = sc.d_positions.len();
    // The rotation base order (shared by all rotations so that their
    // intermediate cube sets are cyclic intervals of one fixed sequence).
    sc.gd.clear();
    order_positions_into(&sc.d_positions, m, yu, order, &mut sc.keyed, &mut sc.gd);

    // The degree-forced plans, by first crossing: the one starting at
    // int(Yu), and the one ending at int(Yv) (a rotation ending at gd[i]
    // starts at gd[i + 1]).
    let iu = yu;
    let iv = match sc.gd.iter().position(|&p| p == yv) {
        Some(i) => sc.gd[(i + 1) % k],
        None => yv,
    };

    // Faulty son-cube coordinates in the two terminal cubes, as fan
    // forbidden masks, read off the listed faults.
    let (mut forb_src, mut forb_tgt) = (0u64, 0u64);
    if faults.is_some() {
        for &w in &sc.avoid_faults {
            let (x, y) = (hhc.cube_field(w), hhc.node_field(w));
            if x == xu {
                forb_src |= 1 << y;
            }
            if x == xv {
                forb_tgt |= 1 << y;
            }
        }
    }

    // Per plan (bit = its first crossing): written to the arena yet,
    // retired for good; and where in the arena it starts.
    let (mut seen, mut dead) = (0u64, 0u64);
    let mut start = [0u32; 64];
    sc.arena.clear();
    // Each round but the last retires at least one plan for good, so
    // `num` rounds bound the loop; one more for the final assembly.
    for _round in 0..=num {
        // --- Selection ---------------------------------------------------
        sc.sel.clear();
        let (mut picked, mut nr) = (0u64, 0);
        let pool = sc.gd.iter().copied().chain((0..num).filter(|&b| !in_d(b)));
        for c in [iu, iv].into_iter().chain(pool) {
            // Re-read per step: the forced plans, visited first, may be
            // retired during this very pass.
            let forced_live = (dead >> iu | dead >> iv) & 1 == 0;
            if sc.sel.len() >= m as usize + forced_live as usize {
                break;
            }
            let bit = 1u64 << c;
            if (dead | picked) & bit != 0 {
                continue;
            }
            if seen & bit == 0 {
                seen |= bit;
                let at = sc.arena.len();
                start[c as usize] = at as u32;
                if in_d(c) {
                    let r = sc.gd.iter().position(|&p| p == c).expect("c in D");
                    sc.arena.extend_from_slice(&sc.gd[r..]);
                    sc.arena.extend_from_slice(&sc.gd[..r]);
                } else {
                    // Each detour orders D anchored at its own entry
                    // coordinate; the disjointness argument only needs
                    // bit c, not a shared order.
                    sc.arena.push(c);
                    order_positions_into(
                        &sc.d_positions,
                        m,
                        c,
                        order,
                        &mut sc.keyed,
                        &mut sc.arena,
                    );
                    sc.arena.push(c);
                }
                if let Some(faults) = faults {
                    // Check the plan's fixed trajectory (terminal stubs +
                    // middle walk) before it takes a slot. The walk only
                    // visits cubes whose offset from Xu lies within the
                    // plan's crossing set, so it is probed only if some
                    // fault's offset does too.
                    let p = &sc.arena[at..];
                    let last = p[p.len() - 1];
                    let stub_blocked = (c != yu && forb_src >> c & 1 == 1)
                        || (last != yv && forb_tgt >> last & 1 == 1);
                    let crossing = dx | 1u128 << c;
                    let walk_exposed = sc
                        .avoid_faults
                        .iter()
                        .any(|&w| offset_within(hhc, w, xu, crossing));
                    if stub_blocked || (walk_exposed && middle_blocked(hhc, p, xu, xv, faults)?) {
                        dead |= bit;
                        sc.metrics.fault_avoided_plans += 1;
                        continue;
                    }
                }
            }
            picked |= bit;
            let at = start[c as usize];
            if in_d(c) {
                sc.sel.insert(nr, (at, at + k as u32));
                nr += 1;
            } else {
                sc.sel.push((at, at + k as u32 + 2));
            }
        }
        if sc.sel.is_empty() {
            return Ok(0);
        }

        // --- Fan targets and per-plan segment mapping --------------------
        // Record which fan path (if any) supplies each plan's segment
        // inside the terminal cubes, in the same pass that collects the
        // fan targets (fan paths come back in target order).
        sc.src_targets.clear();
        sc.tgt_targets.clear();
        sc.seg_src.clear();
        sc.seg_tgt.clear();
        for &(a, b) in &sc.sel {
            let (first, last) = (sc.arena[a as usize], sc.arena[b as usize - 1]);
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

        // --- Terminal fans (the one mode-specific step) ------------------
        let all_served = match faults {
            // Canonical form (source translated to 0, targets sorted)
            // fixes the fans every plain family uses: valid fans,
            // deterministic per canonical class, not of minimum total
            // length; a direct solve would pick different valid fans.
            None => {
                fan_paths_canonical(&cube, yu as u128, &sc.src_targets, &mut sc.src_fan)
                    .expect("fan lemma: m distinct targets in Q_m");
                fan_paths_canonical(&cube, yv as u128, &sc.tgt_targets, &mut sc.tgt_fan)
                    .expect("fan lemma: m distinct targets in Q_m");
                true
            }
            // Faulty coordinates are excluded from the fans.
            Some(_) => {
                let served_src = fan_paths_avoiding(
                    &cube,
                    yu as u128,
                    &sc.src_targets,
                    forb_src,
                    &mut sc.src_fan,
                )
                .expect("avoiding fan: distinct non-source targets in Q_m");
                let served_tgt = fan_paths_avoiding(
                    &cube,
                    yv as u128,
                    &sc.tgt_targets,
                    forb_tgt,
                    &mut sc.tgt_fan,
                )
                .expect("avoiding fan: distinct non-source targets in Q_m");
                served_src == sc.src_targets.len() && served_tgt == sc.tgt_targets.len()
            }
        };
        if !all_served {
            // Retire every plan whose terminal segment the fans could not
            // route around the faults, and re-select.
            let unserved =
                |seg: u32, fan: &FanScratch| seg != SELF && !fan.target_served(seg as usize);
            for (j, &(a, _)) in sc.sel.iter().enumerate() {
                if unserved(sc.seg_src[j], &sc.src_fan) || unserved(sc.seg_tgt[j], &sc.tgt_fan) {
                    dead |= 1 << sc.arena[a as usize];
                    sc.metrics.fault_avoided_plans += 1;
                }
            }
            continue;
        }

        // --- Assembly ----------------------------------------------------
        #[cfg(debug_assertions)]
        check_cube_disjointness(&sc.arena, &sc.sel, xu, xv);
        const EMPTY: &[u128] = &[];
        for (j, &(a, b)) in sc.sel.iter().enumerate() {
            // Source fan runs Yu → first; drop the shared Yu.
            let src_tail = match sc.seg_src[j] {
                SELF => EMPTY.iter(),
                t => sc.src_fan.path(t as usize)[1..].iter(),
            }
            .map(|&y| y as u32);
            // Target fan runs Yv → last; the path needs last → Yv.
            let tgt_tail = match sc.seg_tgt[j] {
                SELF => EMPTY.iter(),
                t => {
                    let fp = sc.tgt_fan.path(t as usize);
                    fp[..fp.len() - 1].iter()
                }
            }
            .rev()
            .map(|&y| y as u32);
            let plan = &sc.arena[a as usize..b as usize];
            assemble_into(hhc, u, src_tail, plan, tgt_tail, out)?;
        }
        return Ok(nr);
    }
    unreachable!("cross-cube selection failed to converge despite monotone retirement (bug)");
}

/// The trace of the fault-blind family [`cross_cube_into`] just built,
/// read back from the scratch it left; `rotations` is what it returned.
pub(super) fn cross_cube_trace(sc: &PathBuilder, rotations: usize) -> ConstructionTrace {
    ConstructionTrace {
        case: ConstructionCase::CrossCube,
        rotations,
        detours: sc.sel.len() - rotations,
        plans: sc
            .sel
            .iter()
            .map(|&(a, b)| {
                Some(CrossingPlan {
                    positions: sc.arena[a as usize..b as usize].to_vec(),
                })
            })
            .collect(),
        source_fan_targets: sc.src_targets.iter().map(|&t| t as u32).collect(),
        target_fan_targets: sc.tgt_targets.iter().map(|&t| t as u32).collect(),
    }
}

/// Whether `w`'s cube offset from `xu` lies within the offset set
/// `within` (bit `p` = position `p`): necessary for `w` to sit on a
/// family or walk whose every node's offset lies within that set.
pub(super) fn offset_within(hhc: &Hhc, w: NodeId, xu: u128, within: u128) -> bool {
    (hhc.cube_field(w) ^ xu) & !within == 0
}

/// Whether a fault blocks the plan's fixed middle trajectory: every node
/// the assembled path visits from the first crossing up to (but not
/// including) entry into the target cube. Replicates
/// [`assemble_into`]'s walk exactly (same e-cube dimension order), so a
/// plan passing this check yields an assembled middle segment that is
/// fault-free by construction.
fn middle_blocked(
    hhc: &Hhc,
    positions: &[u32],
    xu: u128,
    xv: u128,
    faults: &dyn FaultOracle,
) -> Result<bool, HhcError> {
    let mut x = xu ^ (1u128 << positions[0]);
    let mut y = positions[0];
    if x != xv && faults.is_faulty(hhc.node(x, y)?) {
        return Ok(true);
    }
    for &p in &positions[1..] {
        while y != p {
            let d = (y ^ p).trailing_zeros();
            y ^= 1 << d;
            if faults.is_faulty(hhc.node(x, y)?) {
                return Ok(true);
            }
        }
        x ^= 1u128 << p;
        if x != xv && faults.is_faulty(hhc.node(x, y)?) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Debug check: every selected plan crosses exactly `D`, and their
/// intermediate cube sets are pairwise disjoint and avoid both terminal
/// cubes.
#[cfg(debug_assertions)]
fn check_cube_disjointness(arena: &[u32], sel: &[(u32, u32)], xu: u128, xv: u128) {
    let mut seen = std::collections::HashSet::new();
    for (i, &(a, b)) in sel.iter().enumerate() {
        let (mids, last) = arena[a as usize..b as usize].split_at((b - a - 1) as usize);
        let mut x = xu;
        for &p in mids {
            x ^= 1u128 << p;
            assert_ne!(x, xu, "plan {i} revisits the source cube");
            assert_ne!(x, xv, "plan {i} enters the target cube early");
            assert!(seen.insert(x), "plans share intermediate cube {x:#x}");
        }
        assert_eq!(x ^ 1u128 << last[0], xv, "plan {i} must cross exactly D");
    }
}
