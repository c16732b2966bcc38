//! Fault-avoiding construction: disjoint-path families that route
//! *around* known-faulty nodes at build time.
//!
//! The plain construction is fault-blind; selection-time filtering (drop
//! blocked paths from a fault-blind family) collapses once the fault
//! count approaches `m`, because all `m + 1` paths of one family can be
//! hit. This module does better by exploiting slack the plain
//! construction never uses: in case B the candidate pool has `2^m`
//! crossing plans (`k` rotations plus `2^m - k` detours) with pairwise
//! disjoint intermediate cube sets, pairwise distinct entry coordinates
//! and pairwise distinct exit coordinates — *any* subset of them yields
//! an internally disjoint family. The plain construction picks `m + 1`
//! of them blind; with `f ≤ m - 1` faults there is almost always a
//! fault-free selection of the same size, and this module finds it.
//!
//! ## Algorithm
//!
//! 1. Build the plain family (through the builder's family tier — the
//!    plain path is byte-identical with caches on or off, and the fault
//!    check below is cache-independent, so cache-on ≡ cache-off holds
//!    for the avoiding entry points trivially).
//! 2. Check it against the faults in O(f): list the live faults
//!    ([`FaultOracle::list_faults`]) and test each against the family's
//!    cube-offset span (`family_cache`). Every node `w` of the family
//!    has `Xw ⊕ Xu ⊆ span`, so a fault with `(Xw ⊕ Xu) & !span ≠ 0` is
//!    on no path; when every fault fails the test the family is returned
//!    unchanged (`rerouted = false`) without probing a node. Only when
//!    some fault passes does the exact scan run: one `is_faulty` probe
//!    per interior node. If no path touches a fault, the family is
//!    returned unchanged all the same.
//! 3. Otherwise (case B) rebuild from the full candidate pool: select
//!    viable plans in priority order (the two degree-forced candidates
//!    first), pre-check each plan's middle trajectory and terminal stubs
//!    against the faults, and serve the terminal segments with
//!    *fault-avoiding* fans ([`hypercube::fan::fan_paths_avoiding`],
//!    faulty son-cube coordinates excluded from the flow network). The
//!    listed faults give the terminal cubes' forbidden masks directly,
//!    and a plan's middle walk is probed only when some fault's offset
//!    lies within the plan's crossing set (every cube the walk visits
//!    is a prefix XOR of its positions). Plans whose fan target goes
//!    unserved are retired permanently and the selection re-runs —
//!    drops are monotone, so the loop terminates in at most `2^m`
//!    rounds.
//! 4. Degradation is graceful, never a panic: if the rebuild yields
//!    fewer paths than simply dropping the blocked ones from the plain
//!    family (case A always, case B when faults overwhelm the pool), the
//!    surviving plain paths are returned instead. With `f ≥ m + 1`
//!    faults the result may legitimately be empty.
//!
//! The rebuild never touches a family tier — cached entries are keyed
//! on geometry only and would be unsound to replay against an arbitrary
//! fault set; bypassing them keeps cache-on ≡ cache-off exact.

use super::case_b::order_positions_into;
use super::plan::assemble_into;
use super::{CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::fault::FaultOracle;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use hypercube::fan::fan_paths_avoiding;

/// What a fault-avoiding construction did; returned alongside the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvoidOutcome {
    /// Paths in the returned family. `m + 1` when the faults left a full
    /// family reachable; possibly fewer (down to 0) as faults approach
    /// and exceed the connectivity.
    pub paths: usize,
    /// Whether the plain family was blocked and construction deviated
    /// from it (rebuild or survivor fallback). `false` means the result
    /// is byte-identical to [`super::disjoint_paths_into`].
    pub rerouted: bool,
}

/// Candidate states for the rebuild loop. `DEAD` is permanent — that
/// monotonicity is the termination argument.
const AVAIL: u8 = 0;
const VIABLE: u8 = 1;
const DEAD: u8 = 2;

/// Sentinel in the per-plan segment tables: no fan segment needed
/// (mirrors `case_b::SELF`).
const SELF: u32 = u32::MAX;

/// The fault-avoiding construction core. See the module docs for the
/// algorithm; the entry points in [`super`] are thin wrappers.
pub(super) fn avoid_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    faults: &dyn FaultOracle,
    out: &mut PathSet,
    sc: &mut PathBuilder,
) -> Result<AvoidOutcome, HhcError> {
    hhc.check(u)?;
    hhc.check(v)?;
    if u == v {
        return Err(HhcError::EqualNodes);
    }
    if faults.is_faulty(u) {
        return Err(HhcError::FaultyEndpoint(u));
    }
    if faults.is_faulty(v) {
        return Err(HhcError::FaultyEndpoint(v));
    }

    let l2_hits_before = sc.metrics.l2_hits;
    super::construct_into(hhc, u, v, order, out, sc, false)?;
    let plain = AvoidOutcome {
        paths: out.len(),
        rerouted: false,
    };
    if faults.fault_count() == 0 {
        return Ok(plain);
    }

    // The span test: a fault whose cube offset leaves the family's span
    // is on no path. When every live fault fails it, the family stands
    // without a single node probe.
    sc.avoid_faults.clear();
    faults.list_faults(&mut sc.avoid_faults);
    let (xu, span) = (hhc.cube_field(u), sc.span as u128);
    if !sc
        .avoid_faults
        .iter()
        .any(|&w| offset_within(hhc, w, xu, span))
    {
        return Ok(plain);
    }
    sc.metrics.fault_scans += 1;

    // The exact scan: which plain paths a fault blocks (endpoints are
    // known healthy, so only interior nodes need probing).
    sc.avoid_blocked.clear();
    let mut any_blocked = false;
    for p in out.iter() {
        let blocked = p[1..p.len() - 1].iter().any(|&w| faults.is_faulty(w));
        sc.avoid_blocked.push(blocked);
        any_blocked |= blocked;
    }
    if !any_blocked {
        return Ok(plain);
    }
    sc.metrics.fault_reroutes += 1;
    // The lazy-invalidation event of the tiered cache: a family replayed
    // from the shared L2 turned out to intersect the live fault set and
    // is being repaired (the entry itself stays — it is a fault-blind
    // fact, blocked only for this translation under these faults).
    if sc.metrics.l2_hits > l2_hits_before {
        sc.metrics.l2_invalidations += 1;
    }

    // Survivor fallback: the unblocked plain paths are themselves a
    // valid (internally disjoint, fault-free) family.
    sc.avoid_tmp.clear();
    for (i, p) in out.iter().enumerate() {
        if !sc.avoid_blocked[i] {
            sc.avoid_tmp.push_path(p);
        }
    }

    let same = hhc.cube_field(u) == hhc.cube_field(v);
    if !same {
        rebuild_cross_cube(hhc, u, v, order, faults, out, sc)?;
    }
    // Case A has no spare-plan pool to rebuild from (the m in-cube paths
    // are the Saad–Schultz family; the loop plan is unique), so it falls
    // back to the survivors; case B does too when the rebuild came up
    // shorter than just dropping the blocked paths.
    if same || out.len() < sc.avoid_tmp.len() {
        std::mem::swap(out, &mut sc.avoid_tmp);
    }
    Ok(AvoidOutcome {
        paths: out.len(),
        rerouted: true,
    })
}

/// Case-B rebuild over the full `2^m`-candidate plan pool, against the
/// faults `avoid_into` listed into `sc.avoid_faults` (`faults` answers
/// the exact middle-walk probes). Writes the rebuilt family into `out`
/// (cleared first); an empty `out` means no viable selection survived.
fn rebuild_cross_cube(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    faults: &dyn FaultOracle,
    out: &mut PathSet,
    sc: &mut PathBuilder,
) -> Result<(), HhcError> {
    let m = hhc.m();
    let cube = hhc.son_cube();
    let (yu, yv) = (hhc.node_field(u), hhc.node_field(v));
    let (xu, xv) = (hhc.cube_field(u), hhc.cube_field(v));
    let dx = xu ^ xv;
    let num = hhc.positions() as usize; // 2^m candidates in the pool
    let in_d = |p: u32| dx >> p & 1 == 1;

    // D and the shared rotation base order, recomputed here: the plain
    // construction may have replayed from the family cache, leaving the
    // selection scratch stale.
    sc.d_positions.clear();
    sc.d_positions
        .extend((0..hhc.positions()).filter(|&p| dx >> p & 1 == 1));
    let k = sc.d_positions.len();
    sc.gd.clear();
    order_positions_into(&sc.d_positions, m, yu, order, &mut sc.keyed, &mut sc.gd);

    // Full candidate arena: rotations r = 0..k (in base-order rotation
    // index), then detours for every b ∉ D ascending. Any subset has
    // pairwise disjoint intermediate cube sets, distinct firsts and
    // distinct lasts (the case_b argument applies to the whole pool, not
    // just the m + 1 plans the plain construction picks).
    sc.avoid_cand_pos.clear();
    sc.avoid_cand_off.clear();
    sc.avoid_cand_off.push(0);
    for r in 0..k {
        sc.avoid_cand_pos.extend_from_slice(&sc.gd[r..]);
        sc.avoid_cand_pos.extend_from_slice(&sc.gd[..r]);
        sc.avoid_cand_off.push(sc.avoid_cand_pos.len() as u32);
    }
    for b in 0..hhc.positions() {
        if !in_d(b) {
            sc.avoid_cand_pos.push(b);
            order_positions_into(
                &sc.d_positions,
                m,
                b,
                order,
                &mut sc.keyed,
                &mut sc.avoid_cand_pos,
            );
            sc.avoid_cand_pos.push(b);
            sc.avoid_cand_off.push(sc.avoid_cand_pos.len() as u32);
        }
    }
    debug_assert_eq!(sc.avoid_cand_off.len() - 1, num);

    // The two degree-forced candidates: exactly one plan in the pool
    // starts at int(Yu) (it must be selected whenever m + 1 plans are —
    // the source has only m internal neighbours) and exactly one ends at
    // int(Yv).
    let iu = if in_d(yu) {
        sc.gd.iter().position(|&p| p == yu).expect("yu in D")
    } else {
        k + (0..yu).filter(|&b| !in_d(b)).count()
    };
    let iv = if in_d(yv) {
        (sc.gd.iter().position(|&p| p == yv).expect("yv in D") + 1) % k
    } else {
        k + (0..yv).filter(|&b| !in_d(b)).count()
    };
    debug_assert_eq!(sc.avoid_cand_pos[sc.avoid_cand_off[iu] as usize], yu);
    debug_assert_eq!(
        sc.avoid_cand_pos[sc.avoid_cand_off[iv + 1] as usize - 1],
        yv
    );

    // Selection priority: forced candidates first (they are the only
    // ones that can relieve a fan of one target), then pool order.
    sc.avoid_priority.clear();
    sc.avoid_priority.push(iu as u32);
    if iv != iu {
        sc.avoid_priority.push(iv as u32);
    }
    for c in 0..num {
        if c != iu && c != iv {
            sc.avoid_priority.push(c as u32);
        }
    }

    // Faulty son-cube coordinates in the two terminal cubes, as fan
    // forbidden masks, read off the listed faults.
    let mut forb_src = 0u64;
    let mut forb_tgt = 0u64;
    for &w in &sc.avoid_faults {
        let (x, y) = (hhc.cube_field(w), hhc.node_field(w));
        if x == xu {
            forb_src |= 1 << y;
        }
        if x == xv {
            forb_tgt |= 1 << y;
        }
    }

    sc.avoid_state.clear();
    sc.avoid_state.resize(num, AVAIL);

    // Each non-terminal round retires at least one candidate for good,
    // so `num` rounds bound the loop; one more for the final assembly.
    for _round in 0..num + 1 {
        // --- Selection (top-up to capacity in priority order) ---------
        // A plan not entering at Yu consumes one of the m source-fan
        // targets, symmetrically on the target side — so the family can
        // only reach m + 1 plans while both forced candidates are alive.
        // Recomputed per step because the forced candidates (always
        // visited first) may be found blocked during this very pass.
        sc.avoid_sel.clear();
        for i in 0..sc.avoid_priority.len() {
            let cap = if sc.avoid_state[iu] != DEAD && sc.avoid_state[iv] != DEAD {
                (m + 1) as usize
            } else {
                m as usize
            };
            if sc.avoid_sel.len() >= cap {
                break;
            }
            let c = sc.avoid_priority[i] as usize;
            match sc.avoid_state[c] {
                DEAD => continue,
                VIABLE => sc.avoid_sel.push(c as u32),
                _ => {
                    // First consideration: check the plan's fixed
                    // trajectory (terminal stubs + middle walk) against
                    // the faults before letting it consume a slot. The
                    // walk only visits cubes whose offset from Xu lies
                    // within the plan's crossing set, so it is probed
                    // only if some fault's offset does too.
                    let p = &sc.avoid_cand_pos
                        [sc.avoid_cand_off[c] as usize..sc.avoid_cand_off[c + 1] as usize];
                    let (first, last) = (p[0], p[p.len() - 1]);
                    let stub_blocked = (first != yu && forb_src >> first & 1 == 1)
                        || (last != yv && forb_tgt >> last & 1 == 1);
                    let crossing = p.iter().fold(0u128, |acc, &q| acc | 1 << q);
                    let walk_exposed = sc
                        .avoid_faults
                        .iter()
                        .any(|&w| offset_within(hhc, w, xu, crossing));
                    if stub_blocked || (walk_exposed && middle_blocked(hhc, p, xu, xv, faults)?) {
                        sc.avoid_state[c] = DEAD;
                        sc.metrics.fault_avoided_plans += 1;
                    } else {
                        sc.avoid_state[c] = VIABLE;
                        sc.avoid_sel.push(c as u32);
                    }
                }
            }
        }
        if sc.avoid_sel.is_empty() {
            out.clear();
            return Ok(());
        }
        // Pool order for the output family, independent of the order
        // selection happened to visit candidates in.
        sc.avoid_sel.sort_unstable();

        // --- Fan targets and per-plan segment mapping -----------------
        sc.src_targets.clear();
        sc.tgt_targets.clear();
        sc.seg_src.clear();
        sc.seg_tgt.clear();
        for &c in &sc.avoid_sel {
            let c = c as usize;
            let p = &sc.avoid_cand_pos
                [sc.avoid_cand_off[c] as usize..sc.avoid_cand_off[c + 1] as usize];
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
        debug_assert!(sc.src_targets.len() <= m as usize);
        debug_assert!(sc.tgt_targets.len() <= m as usize);

        // --- Fault-avoiding fans (uncached by design) -----------------
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

        if served_src < sc.src_targets.len() || served_tgt < sc.tgt_targets.len() {
            // Retire every plan whose terminal segment the fans could
            // not route around the faults, and re-select.
            for (j, &c) in sc.avoid_sel.iter().enumerate() {
                let src_unserved = match sc.seg_src[j] {
                    SELF => false,
                    t => !sc.src_fan.target_served(t as usize),
                };
                let tgt_unserved = match sc.seg_tgt[j] {
                    SELF => false,
                    t => !sc.tgt_fan.target_served(t as usize),
                };
                if src_unserved || tgt_unserved {
                    sc.avoid_state[c as usize] = DEAD;
                    sc.metrics.fault_avoided_plans += 1;
                }
            }
            continue;
        }

        // --- Assembly (identical to case_b's gluing) ------------------
        out.clear();
        const EMPTY: &[u128] = &[];
        for (j, &c) in sc.avoid_sel.iter().enumerate() {
            let c = c as usize;
            let p = &sc.avoid_cand_pos
                [sc.avoid_cand_off[c] as usize..sc.avoid_cand_off[c + 1] as usize];
            let src_tail = match sc.seg_src[j] {
                SELF => EMPTY.iter(),
                t => sc.src_fan.path(t as usize)[1..].iter(),
            }
            .map(|&y| y as u32);
            let tgt_tail = match sc.seg_tgt[j] {
                SELF => EMPTY.iter(),
                t => {
                    let fp = sc.tgt_fan.path(t as usize);
                    fp[..fp.len() - 1].iter()
                }
            }
            .rev()
            .map(|&y| y as u32);
            assemble_into(hhc, u, src_tail, p, tgt_tail, out)?;
        }
        return Ok(());
    }
    unreachable!("avoid rebuild failed to converge despite monotone drops (bug)");
}

/// Whether `w`'s cube offset from `xu` lies within the offset set
/// `within` (bit `p` = position `p`): necessary for `w` to sit on a
/// family or walk whose every node's offset lies within that set.
fn offset_within(hhc: &Hhc, w: NodeId, xu: u128, within: u128) -> bool {
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
