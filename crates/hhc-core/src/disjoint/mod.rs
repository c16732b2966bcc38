//! The paper's construction: `m + 1` internally vertex-disjoint paths
//! between any two distinct nodes of `HHC(m)`.
//!
//! The connectivity of `HHC(m)` is `m + 1` (its minimum degree), so no
//! algorithm can do better than `m + 1` internally disjoint paths; this
//! module constructs exactly that many, symbolically (without touching
//! the `2^(2^m + m)`-node graph), in output-sensitive time, with the
//! worst-case length bound of [`crate::bounds::length_bound`].
//!
//! Two cases:
//!
//! * **Case A** (`Xu = Xv`, same son-cube): the classical hypercube
//!   construction supplies `m` disjoint paths inside the shared son-cube;
//!   the `(m+1)`-th path leaves through `u`'s external edge, traverses
//!   three neighbouring cubes, and re-enters through `v`'s external edge.
//! * **Case B** (`Xu ≠ Xv`): rotation/detour crossing plans with disjoint
//!   intermediate cube sets, glued to disjoint fans inside the terminal
//!   cubes. See the `case_b` module source for the full argument.
//!
//! Every public result can be re-checked with
//! [`crate::verify::verify_disjoint_paths`]; the test suite does so
//! exhaustively for m ∈ {1, 2} and on large samples for m ∈ {3..6}.

mod avoid;
mod case_b;
pub mod family_cache;
pub mod plan;

pub(crate) use avoid::avoid_into;
pub use avoid::AvoidOutcome;

use crate::error::HhcError;
use crate::fault::FaultOracle;
use crate::metrics::{ConstructionMetrics, MetricsReport};
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use crate::Path;
use family_cache::{CacheConfig, SharedFamilyCache};
use hypercube::FanScratch;
use plan::{assemble_into, CrossingPlan};
use std::sync::Arc;

/// The order in which a path crosses the differing cube-field positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingOrder {
    /// Order positions along the Gray cycle of `Q_m` (anchored at the
    /// entry coordinate). Total intra-cube walking per path telescopes to
    /// at most one lap (`2^m` hops). This is the default and what the
    /// length bound assumes.
    Gray,
    /// Ascending numeric order — the naive choice, kept for the ablation
    /// experiment (F5). Correct but up to `m×` longer intra-cube walks.
    Sorted,
}

/// Which branch of the construction a pair took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructionCase {
    /// `Xu = Xv`: in-cube Saad–Schultz family plus one external loop.
    SameCube,
    /// `Xu ≠ Xv`: rotation/detour crossing plans with terminal fans.
    CrossCube,
}

/// Introspection record for one construction: how the `m + 1` paths were
/// put together. Returned by [`disjoint_paths_traced`]; useful for
/// teaching, debugging, and the `construction_anatomy` example.
#[derive(Debug, Clone)]
pub struct ConstructionTrace {
    /// Which case applied.
    pub case: ConstructionCase,
    /// Rotation-plan count (cross-cube case).
    pub rotations: usize,
    /// Detour-plan count (cross-cube case; same-cube counts its single
    /// external loop here).
    pub detours: usize,
    /// Per path (same order as the returned paths): its crossing plan,
    /// or `None` for paths confined to the shared son-cube.
    pub plans: Vec<Option<plan::CrossingPlan>>,
    /// Son-cube coordinates the source fan connects `Yu` to.
    pub source_fan_targets: Vec<u32>,
    /// Son-cube coordinates the target fan connects `Yv` to.
    pub target_fan_targets: Vec<u32>,
}

/// Reusable scratch for the construction engine: every intermediate
/// buffer a single `disjoint_paths` query needs, including the two
/// fan solvers' scratch for the terminal son-cubes. Constructing a
/// `PathBuilder` is cheap; feeding the same one to many queries (see
/// [`crate::batch`]) makes each query allocation-free after warm-up,
/// which is where the batch engine's throughput comes from.
///
/// A `PathBuilder` carries no query state between calls — results are
/// only ever written to the caller's [`PathSet`] — so one scratch may
/// serve pairs of different `m` interleaved.
#[derive(Default)]
pub struct PathBuilder {
    // Case A: son-cube family in CSR form, pre-lift.
    qdims: Vec<u32>,
    qnodes: Vec<u128>,
    qoffsets: Vec<u32>,
    // Case B (see `case_b`), plain and rebuilt alike: D, the rotation
    // base order and its sort keys; the plan arena, each plan written the
    // first time selection reaches it; the selection as arena ranges, in
    // family order.
    d_positions: Vec<u32>,
    gd: Vec<u32>,
    keyed: Vec<(u64, u32)>,
    arena: Vec<u32>,
    sel: Vec<(u32, u32)>,
    // Case B: fan bookkeeping (targets, per-plan segment indices, fan
    // scratch).
    src_targets: Vec<u128>,
    tgt_targets: Vec<u128>,
    seg_src: Vec<u32>,
    seg_tgt: Vec<u32>,
    src_fan: FanScratch,
    tgt_fan: FanScratch,
    // Cube-offset span of the family `construct_into` last appended (see
    // `family_cache`): the replayed entry's, or computed once for a
    // fresh construction.
    span: u64,
    // Fault-avoiding scratch (see `avoid`): the listed live faults (the
    // case-B core reads them when rebuilding), survivor snapshot and
    // per-path blocked flags.
    avoid_faults: Vec<NodeId>,
    avoid_tmp: PathSet,
    avoid_blocked: Vec<bool>,
    // The one family tier a query consults (see `family_cache`).
    tier: Tier,
    // Observability: monotone counters plus opt-in per-query timing.
    metrics: ConstructionMetrics,
    timing_enabled: bool,
}

/// A builder's family tier: a private one-stripe cache of its own, or a
/// shared L2 attached in its place. A hit on the first counts as
/// `family_hits`, a hit or miss on the second as `l2_hits`/`l2_misses`.
#[derive(Clone)]
struct Tier {
    cache: Arc<SharedFamilyCache>,
    attached: bool,
}

impl Tier {
    fn private(cfg: CacheConfig) -> Self {
        Tier {
            cache: Arc::new(SharedFamilyCache::private(cfg)),
            attached: false,
        }
    }
}

impl Default for Tier {
    fn default() -> Self {
        Tier::private(CacheConfig::enabled())
    }
}

impl PathBuilder {
    pub fn new() -> Self {
        PathBuilder::default()
    }

    /// A builder whose private family tier has the given capacity
    /// ([`CacheConfig::disabled`] reproduces pre-cache behaviour:
    /// byte-identical output, no memoisation).
    pub fn with_caches(cfg: CacheConfig) -> Self {
        PathBuilder {
            tier: Tier::private(cfg),
            ..PathBuilder::default()
        }
    }

    /// Attaches a shared L2 in place of the builder's private tier:
    /// queries probe `l2` (under the read lock of one of its stripes —
    /// see [`SharedFamilyCache`]) before constructing, and fresh
    /// constructions are stored there. Caching stays exact — replays
    /// are byte-identical to fresh constructions — so results are
    /// unaffected. `l2_hits`/`l2_misses` in [`ConstructionMetrics`]
    /// account the tier.
    pub fn attach_shared_cache(&mut self, l2: Arc<SharedFamilyCache>) {
        self.tier = Tier {
            cache: l2,
            attached: true,
        };
    }

    /// The family tier this builder consults: its private one, or the
    /// attached L2.
    pub(crate) fn family_tier(&self) -> &Arc<SharedFamilyCache> {
        &self.tier.cache
    }

    /// A builder with fresh scratch and zeroed counters on this
    /// builder's family tier, private or attached alike.
    pub(crate) fn fresh(&self) -> PathBuilder {
        PathBuilder {
            tier: self.tier.clone(),
            ..PathBuilder::default()
        }
    }

    /// Turns per-query wall-clock timing on or off (off by default).
    /// When enabled, every successful construction records its duration
    /// into [`ConstructionMetrics::timing`] — two `Instant` reads per
    /// query; a disabled builder never touches the clock.
    pub fn enable_timing(&mut self, on: bool) {
        self.timing_enabled = on;
    }

    /// Full effort snapshot: construction counters plus the fan engines
    /// and their combined max-flow solver counters, accumulated since
    /// construction or the last [`PathBuilder::reset_metrics`].
    pub fn metrics(&self) -> MetricsReport {
        let mut solver = self.src_fan.solver_stats();
        solver.merge(&self.tgt_fan.solver_stats());
        MetricsReport {
            construction: self.metrics.clone(),
            src_fan: self.src_fan.metrics(),
            tgt_fan: self.tgt_fan.metrics(),
            solver,
        }
    }

    /// Zeroes every counter (scratch buffers untouched).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.src_fan.reset_metrics();
        self.tgt_fan.reset_metrics();
    }
}

/// Constructs `m + 1` internally vertex-disjoint paths from `u` to `v`.
///
/// Every returned path starts at `u`, ends at `v` and is simple; any two
/// share only the endpoints. Lengths respect
/// [`crate::bounds::length_bound`] when `order` is [`CrossingOrder::Gray`].
///
/// Allocates fresh scratch and output per call; batch workloads should
/// hold a [`PathBuilder`] and a [`PathSet`] and call
/// [`disjoint_paths_into`] (or use [`crate::batch`]) instead.
///
/// # Errors
/// [`HhcError::EqualNodes`] if `u == v`; address validation errors if a
/// node does not belong to `hhc`.
pub fn disjoint_paths(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
) -> Result<Vec<Path>, HhcError> {
    let mut out = PathSet::new();
    let mut scratch = PathBuilder::new();
    construct_into(hhc, u, v, order, &mut out, &mut scratch, false)?;
    Ok(out.to_paths())
}

/// Like [`disjoint_paths`], additionally returning the
/// [`ConstructionTrace`] describing how the family was assembled.
pub fn disjoint_paths_traced(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
) -> Result<(Vec<Path>, ConstructionTrace), HhcError> {
    let mut out = PathSet::new();
    let mut scratch = PathBuilder::new();
    let trace =
        construct_into(hhc, u, v, order, &mut out, &mut scratch, true)?.expect("trace requested");
    Ok((out.to_paths(), trace))
}

/// [`disjoint_paths`] writing into caller-owned buffers: `out` is cleared
/// and receives the `m + 1` paths; `scratch` holds every intermediate
/// buffer and is reusable across queries (and across networks). After a
/// warm-up query at a given `m`, a call performs no allocation beyond
/// what `out` needs to grow.
///
/// Produces node-for-node the same paths as [`disjoint_paths`] — both are
/// thin wrappers over one construction core.
pub fn disjoint_paths_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    out: &mut PathSet,
    scratch: &mut PathBuilder,
) -> Result<(), HhcError> {
    out.clear();
    construct_into(hhc, u, v, order, out, scratch, false).map(|_| ())
}

/// Constructs internally vertex-disjoint paths from `u` to `v` that
/// avoid every node the oracle reports faulty.
///
/// With an empty fault set (or one that misses the plain family) the
/// result is byte-identical to [`disjoint_paths`] and `rerouted` is
/// `false`. Otherwise the family is rebuilt from the spare crossing
/// plans of the candidate pool (see the `avoid` module docs); with
/// `f ≤ m - 1` faults a non-empty fault-free family always exists and
/// the rebuild usually recovers all `m + 1` paths. As faults grow the
/// family degrades gracefully — fewer paths, eventually zero — but
/// never panics and never returns a path through a faulty node.
///
/// # Errors
/// [`HhcError::EqualNodes`] if `u == v`; [`HhcError::FaultyEndpoint`] if
/// either endpoint is itself faulty; address validation errors if a node
/// does not belong to `hhc`.
pub fn disjoint_paths_avoiding(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    faults: &dyn FaultOracle,
) -> Result<(Vec<Path>, AvoidOutcome), HhcError> {
    let mut out = PathSet::new();
    let mut scratch = PathBuilder::new();
    let outcome = avoid_into(hhc, u, v, order, faults, &mut out, &mut scratch)?;
    Ok((out.to_paths(), outcome))
}

/// [`disjoint_paths_avoiding`] writing into caller-owned buffers, the
/// scratch-reusing twin of [`disjoint_paths_into`]. `out` is cleared and
/// receives the fault-free family; the returned [`AvoidOutcome`] reports
/// its size and whether construction had to deviate from the plain
/// family.
pub fn disjoint_paths_avoiding_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    faults: &dyn FaultOracle,
    out: &mut PathSet,
    scratch: &mut PathBuilder,
) -> Result<AvoidOutcome, HhcError> {
    out.clear();
    avoid_into(hhc, u, v, order, faults, out, scratch)
}

/// The single construction core behind every public entry point, in
/// append form: the family is written past the `out.len()` paths already
/// there (the base), which it leaves untouched. A router worker answers
/// a whole batch into one arena this way; the public `_into` entry
/// points clear `out` first. On an error nothing past the base is
/// meaningful, and the caller takes `out` back to its base.
fn construct_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    order: CrossingOrder,
    out: &mut PathSet,
    scratch: &mut PathBuilder,
    want_trace: bool,
) -> Result<Option<ConstructionTrace>, HhcError> {
    let t0 = scratch.timing_enabled.then(std::time::Instant::now);
    hhc.check(u)?;
    hhc.check(v)?;
    if u == v {
        return Err(HhcError::EqualNodes);
    }
    let base = out.len();
    let same = hhc.cube_field(u) == hhc.cube_field(v);

    // Family tier: the construction is equivariant under cube-field
    // translation (plan selection reads only dx/Yu/Yv/m/order; assembly
    // threads cube fields through XORs), so a family is cached once per
    // translation class, as the address bits its hops flip, and replayed
    // from u, from the builder's one tier (private or attached). Entries
    // are families stored by some exact construction, so a replay is
    // byte-identical to constructing here. Traced queries bypass the
    // tier — a replay has no plan internals to report.
    let dx = hhc.cube_field(u) ^ hhc.cube_field(v);
    let key = family_cache::family_key(hhc.m(), dx, hhc.node_field(u), hhc.node_field(v), order);
    let attached = scratch.tier.attached;
    if !want_trace {
        let replayed = scratch.tier.cache.replay(key, u, out);
        let m = &mut scratch.metrics;
        if let Some((nr, nd, span)) = replayed {
            scratch.span = span;
            m.queries += 1;
            if attached {
                m.l2_hits += 1;
            } else {
                m.family_hits += 1;
            }
            if same {
                m.same_cube += 1;
            } else {
                m.cross_cube += 1;
                m.family_hits_cross += 1;
            }
            m.rotation_plans += nr;
            m.detour_plans += nd;
            if let Some(t0) = t0 {
                m.timing.record_ns(t0.elapsed().as_nanos() as u64);
            }
            return Ok(None);
        }
        if attached {
            m.l2_misses += 1;
        }
    }

    // Case A always uses exactly one external loop; case B lists its
    // rotations first, then its detours.
    let (trace, nr, nd) = if same {
        (same_cube_into(hhc, u, v, out, scratch, want_trace)?, 0, 1)
    } else {
        let nr = case_b::cross_cube_into(hhc, u, v, order, None, out, scratch)?;
        let trace = want_trace.then(|| case_b::cross_cube_trace(scratch, nr));
        (trace, nr as u64, (out.len() - base - nr) as u64)
    };
    // An attached L2 stores a family on its key's second sighting (see
    // `family_cache`); a private tier stores every construction. The
    // store's encoding pass computes the span; a family left unstored
    // gets it from one pass here.
    let cache = &scratch.tier.cache;
    let stored = if !attached || cache.sighted_before(key) {
        cache.store(key, hhc.m(), out, base, nr, nd)
    } else {
        None
    };
    scratch.span = stored.unwrap_or_else(|| {
        family_cache::family_span(hhc.m(), hhc.cube_field(u) << hhc.m(), out, base)
    });
    let m = &mut scratch.metrics;
    m.queries += 1;
    if same {
        m.same_cube += 1;
    } else {
        m.cross_cube += 1;
    }
    m.rotation_plans += nr;
    m.detour_plans += nd;
    if let Some(t0) = t0 {
        m.timing.record_ns(t0.elapsed().as_nanos() as u64);
    }
    Ok(trace)
}

/// Case A: both nodes in the same son-cube; appends the family to `out`.
fn same_cube_into(
    hhc: &Hhc,
    u: NodeId,
    v: NodeId,
    out: &mut PathSet,
    sc: &mut PathBuilder,
    want_trace: bool,
) -> Result<Option<ConstructionTrace>, HhcError> {
    let cube = hhc.son_cube();
    let x = hhc.cube_field(u);
    let (yu, yv) = (hhc.node_field(u), hhc.node_field(v));

    // m disjoint paths inside the shared son-cube (Saad–Schultz), built
    // into the CSR scratch and lifted into the network.
    sc.qnodes.clear();
    sc.qoffsets.clear();
    sc.qoffsets.push(0);
    hypercube::paths::disjoint_paths_buf(
        &cube,
        yu as u128,
        yv as u128,
        &mut sc.qdims,
        &mut sc.qnodes,
        &mut sc.qoffsets,
    )
    .expect("distinct coordinates in a valid cube");
    for i in 0..sc.qoffsets.len() - 1 {
        let (a, b) = (sc.qoffsets[i] as usize, sc.qoffsets[i + 1] as usize);
        for &y in &sc.qnodes[a..b] {
            out.push_node(hhc.node(x, y as u32)?);
        }
        out.finish_path();
    }

    // The (m+1)-th path: out at u, around three neighbouring cubes, in at
    // v. Crossing plan [Yu, Yv, Yu, Yv]: the prefix cubes are
    // X⊕e_Yu, X⊕e_Yu⊕e_Yv, X⊕e_Yv — all distinct from X since Yu ≠ Yv.
    let loop_plan = [yu, yv, yu, yv];
    assemble_into(
        hhc,
        u,
        std::iter::empty(),
        &loop_plan,
        std::iter::empty(),
        out,
    )?;
    if !want_trace {
        return Ok(None);
    }
    Ok(Some(ConstructionTrace {
        case: ConstructionCase::SameCube,
        rotations: 0,
        detours: 1,
        plans: (0..hhc.m())
            .map(|_| None)
            .chain([Some(CrossingPlan {
                positions: loop_plan.to_vec(),
            })])
            .collect(),
        source_fan_targets: Vec::new(),
        target_fan_targets: Vec::new(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_disjoint_paths;

    fn all_checks(hhc: &Hhc, u: NodeId, v: NodeId, order: CrossingOrder) {
        let paths = disjoint_paths(hhc, u, v, order).unwrap();
        assert_eq!(paths.len() as u32, hhc.degree(), "must produce m+1 paths");
        verify_disjoint_paths(hhc, u, v, &paths).unwrap_or_else(|e| {
            panic!(
                "m={} u={} v={} ({order:?}): {e}",
                hhc.m(),
                hhc.format_node(u),
                hhc.format_node(v)
            )
        });
    }

    #[test]
    fn rejects_equal_nodes() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(3, 1).unwrap();
        assert_eq!(
            disjoint_paths(&h, u, u, CrossingOrder::Gray),
            Err(HhcError::EqualNodes)
        );
    }

    #[test]
    fn same_cube_pair() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x3C, 0b000).unwrap();
        let v = h.node(0x3C, 0b101).unwrap();
        all_checks(&h, u, v, CrossingOrder::Gray);
    }

    #[test]
    fn adjacent_via_external_edge() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0, 0b011).unwrap();
        let v = h.external_neighbor(u);
        all_checks(&h, u, v, CrossingOrder::Gray);
    }

    #[test]
    fn adjacent_via_internal_edge() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x55, 0b010).unwrap();
        let v = h.internal_neighbor(u, 2);
        all_checks(&h, u, v, CrossingOrder::Gray);
    }

    #[test]
    fn exhaustive_m1_all_ordered_pairs() {
        let h = Hhc::new(1).unwrap();
        for u in h.iter_nodes() {
            for v in h.iter_nodes() {
                if u != v {
                    all_checks(&h, u, v, CrossingOrder::Gray);
                    all_checks(&h, u, v, CrossingOrder::Sorted);
                }
            }
        }
    }

    #[test]
    fn exhaustive_m2_all_ordered_pairs() {
        let h = Hhc::new(2).unwrap();
        for u in h.iter_nodes() {
            for v in h.iter_nodes() {
                if u != v {
                    all_checks(&h, u, v, CrossingOrder::Gray);
                }
            }
        }
    }

    #[test]
    fn m2_sorted_order_also_valid_everywhere() {
        let h = Hhc::new(2).unwrap();
        for u in h.iter_nodes() {
            for v in h.iter_nodes() {
                if u != v {
                    all_checks(&h, u, v, CrossingOrder::Sorted);
                }
            }
        }
    }

    #[test]
    fn antipodal_cross_cube_pair_m3() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(0xFF, 0b111).unwrap(); // k = 8 = 2^m (all positions)
        all_checks(&h, u, v, CrossingOrder::Gray);
        all_checks(&h, u, v, CrossingOrder::Sorted);
    }

    #[test]
    fn single_differing_position_far_coordinates_m3() {
        let h = Hhc::new(3).unwrap();
        // k = 1 with crossing position far from both Yu and Yv.
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(1 << 6, 0b111).unwrap();
        all_checks(&h, u, v, CrossingOrder::Gray);
    }

    #[test]
    fn path_count_matches_flow_optimum_m2() {
        // Constructive count equals the Menger optimum on the explicit
        // graph for a spread of pairs.
        let h = Hhc::new(2).unwrap();
        let g = h.materialize().unwrap();
        for (a, b) in [(0u32, 63u32), (1, 47), (5, 58), (0, 1), (9, 33)] {
            let u = NodeId::from_raw(a as u128);
            let v = NodeId::from_raw(b as u128);
            let flow = graphs::vertex_connectivity_between(&g, a, b);
            let built = disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
            assert_eq!(built.len() as u32, flow, "pair ({a},{b})");
        }
    }

    #[test]
    fn random_sample_m3_through_m6() {
        // Deterministic xorshift sampling across all supported sizes.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for m in 3..=6u32 {
            let h = Hhc::new(m).unwrap();
            let xmask = if h.positions() >= 128 {
                u128::MAX
            } else {
                (1u128 << h.positions()) - 1
            };
            for _ in 0..40 {
                let xu = (next() as u128) << 64 | next() as u128;
                let xv = (next() as u128) << 64 | next() as u128;
                let u = h
                    .node(xu & xmask, (next() % (1 << m) as u64) as u32)
                    .unwrap();
                let v = h
                    .node(xv & xmask, (next() % (1 << m) as u64) as u32)
                    .unwrap();
                if u == v {
                    continue;
                }
                all_checks(&h, u, v, CrossingOrder::Gray);
            }
        }
    }

    #[test]
    fn selection_edge_cases_m3() {
        // Named scenarios exercising each branch of the plan-selection
        // logic (beyond what the exhaustive m ≤ 2 sweeps reach).
        let h = Hhc::new(3).unwrap();
        let cases: Vec<(&str, NodeId, NodeId)> = vec![
            (
                "k=1, Yu=Yv outside D: one detour serves both ends",
                h.node(0b0000_0000, 0b010).unwrap(),
                h.node(0b1000_0000, 0b010).unwrap(), // D={7}, yu=yv=2∉D
            ),
            (
                "k=1, Yu=Yv = the crossing position",
                h.node(0b0000_0000, 0b101).unwrap(),
                h.node(0b0010_0000, 0b101).unwrap(), // D={5}=yu=yv
            ),
            (
                "k=2, both endpoints' coordinates inside D, same rotation",
                h.node(0b0000_0000, 0b011).unwrap(), // yu=3
                h.node(0b0001_0100, 0b010).unwrap(), // D={2,4}, yv=2
            ),
            (
                "k=2, both coordinates in D, distinct required rotations",
                h.node(0b0000_0000, 0b010).unwrap(), // yu=2 ∈ D
                h.node(0b0001_0100, 0b100).unwrap(), // D={2,4}, yv=4 ∈ D
            ),
            (
                "k=m+1: pure-rotation budget",
                h.node(0b0000_0000, 0b000).unwrap(), // yu=0 ∈ D
                h.node(0b0000_1011, 0b001).unwrap(), // D={0,1,3}, yv=1 ∈ D
            ),
            (
                "k=2^m-1: only one clean position left",
                h.node(0b0000_0000, 0b111).unwrap(), // yu=7; D = all but 7
                h.node(0b0111_1111, 0b000).unwrap(), // yv=0 ∈ D
            ),
            (
                "k>m+1 with both coordinates outside D",
                h.node(0b0000_0000, 0b110).unwrap(), // yu=6 ∉ D
                h.node(0b0010_1111, 0b110).unwrap(), // D={0,1,2,3,5}, yv=6 ∉ D
            ),
        ];
        for (name, u, v) in cases {
            let paths = disjoint_paths(&h, u, v, CrossingOrder::Gray)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(paths.len(), 4, "{name}");
            verify_disjoint_paths(&h, u, v, &paths).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn traced_metadata_is_consistent() {
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x00, 0b001).unwrap();
        let v = h.node(0x2B, 0b100).unwrap();
        let (paths, trace) = disjoint_paths_traced(&h, u, v, CrossingOrder::Gray).unwrap();
        assert_eq!(trace.plans.len(), paths.len());
        assert_eq!(trace.rotations + trace.detours, paths.len());
        assert_eq!(trace.case, ConstructionCase::CrossCube);
        let dx = h.cube_field(u) ^ h.cube_field(v);
        for (plan, path) in trace.plans.iter().zip(&paths) {
            let plan = plan.as_ref().expect("cross-cube plans present");
            let mask = plan
                .positions
                .iter()
                .fold(0u128, |acc, &p| acc ^ 1u128 << p);
            assert_eq!(mask, dx, "plan must cross exactly D");
            // The path's crossing count equals the plan length.
            let crossings = path
                .windows(2)
                .filter(|w| h.cube_field(w[0]) != h.cube_field(w[1]))
                .count();
            assert_eq!(crossings, plan.positions.len());
        }
        // Fans cover m coordinates per side.
        assert_eq!(trace.source_fan_targets.len(), h.m() as usize);
        assert_eq!(trace.target_fan_targets.len(), h.m() as usize);
    }

    #[test]
    fn default_builders_get_a_one_stripe_private_tier() {
        // The batch engine and the DES route scratch build their
        // builders through these: each gets one stripe of the default
        // capacity (at most 2 × 1024 entries), never the L2's 16-stripe
        // router geometry.
        for b in [
            PathBuilder::new(),
            PathBuilder::default(),
            PathBuilder::with_caches(CacheConfig::enabled()),
        ] {
            assert!(!b.tier.attached);
            assert_eq!(b.tier.cache.shards(), 1);
            assert_eq!(
                b.tier.cache.shard_capacity(),
                family_cache::DEFAULT_FAMILY_CACHE_CAPACITY
            );
        }
        let h = Hhc::new(3).unwrap();
        let (u, v) = (h.node(0x01, 0b001).unwrap(), h.node(0x9C, 0b110).unwrap());
        let mut out = PathSet::new();
        for (cfg, stored) in [(CacheConfig::enabled(), 1), (CacheConfig::disabled(), 0)] {
            let mut b = PathBuilder::with_caches(cfg);
            disjoint_paths_into(&h, u, v, CrossingOrder::Gray, &mut out, &mut b).unwrap();
            assert_eq!(b.tier.cache.len(), stored, "{cfg:?}");
        }
    }

    #[test]
    fn lengths_respect_bound_on_m2_exhaustive() {
        let h = Hhc::new(2).unwrap();
        for u in h.iter_nodes() {
            for v in h.iter_nodes() {
                if u == v {
                    continue;
                }
                let bound = crate::bounds::length_bound(&h, u, v);
                let paths = disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
                for p in &paths {
                    assert!(
                        (p.len() - 1) as u32 <= bound,
                        "len {} > bound {bound} for {} → {}",
                        p.len() - 1,
                        h.format_node(u),
                        h.format_node(v)
                    );
                }
            }
        }
    }
}
