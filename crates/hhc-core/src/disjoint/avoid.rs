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
//! 3. Otherwise (case B) rebuild through the core that builds the plain
//!    family (`case_b`), given the fault oracle. It selects viable plans
//!    from the whole pool in the plain priority order, checks each
//!    plan's terminal stubs against the listed faults and its middle
//!    walk against the oracle (probed only when some fault's offset
//!    lies within the plan's crossing set), and serves the terminal
//!    segments with *fault-avoiding* fans (the plain families' canonical
//!    [`hypercube::fan::fan_paths_into`], given the terminal cubes'
//!    faulty coordinates); a plan whose fan target goes unserved is
//!    retired for good and selection re-runs.
//! 4. Degradation is graceful, never a panic: if the rebuild yields
//!    fewer paths than simply dropping the blocked ones from the plain
//!    family (case A always, case B when faults overwhelm the pool), the
//!    surviving plain paths are returned instead. With `f ≥ m + 1`
//!    faults the result may legitimately be empty.
//!
//! The rebuild never touches a family tier — cached entries are keyed
//! on geometry only and would be unsound to replay against an arbitrary
//! fault set; bypassing them keeps cache-on ≡ cache-off exact.

use super::case_b::{cross_cube_into, offset_within};
use super::{CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::fault::FaultOracle;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;

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

/// The fault-avoiding construction core, in the append form of
/// [`super::construct_into`]. See the module docs for the algorithm; the
/// entry points in [`super`] clear `out` and call it.
pub(crate) fn avoid_into(
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

    let base = out.len();
    let l2_hits_before = sc.metrics.l2_hits;
    super::construct_into(hhc, u, v, order, out, sc, false)?;
    let plain = AvoidOutcome {
        paths: out.len() - base,
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
    for p in out.paths(base..out.len()) {
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
    // valid (internally disjoint, fault-free) family. The plain family
    // then leaves `out`, and the rebuild appends in its place.
    sc.avoid_tmp.clear();
    for (p, &blocked) in out.paths(base..out.len()).zip(&sc.avoid_blocked) {
        if !blocked {
            sc.avoid_tmp.push_path(p);
        }
    }
    out.truncate(base);

    let same = hhc.cube_field(u) == hhc.cube_field(v);
    if !same {
        cross_cube_into(hhc, u, v, order, Some(faults), out, sc)?;
    }
    // Case A has no spare-plan pool to rebuild from (the m in-cube paths
    // are the Saad–Schultz family; the loop plan is unique), so it falls
    // back to the survivors; case B does too when the rebuild came up
    // shorter than just dropping the blocked paths. The survivors are
    // copied, never swapped in: `out` may be a router worker's lent batch
    // arena, whose capacity must stay with it.
    if same || out.len() - base < sc.avoid_tmp.len() {
        out.truncate(base);
        for p in sc.avoid_tmp.iter() {
            out.push_path(p);
        }
    }
    Ok(AvoidOutcome {
        paths: out.len() - base,
        rerouted: true,
    })
}
