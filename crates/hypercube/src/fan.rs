//! Disjoint fans in `Q_n`: paths from one source to many targets,
//! pairwise vertex-disjoint except at the source.
//!
//! Menger's fan lemma guarantees a fan to any `k ≤ n` distinct targets.
//! The HHC construction needs fans only *inside a son-cube* (`Q_m`,
//! `m ≤ 6`), so fans are solved exactly by unit max-flow, and for
//! `n ≤ 6` only: a node set of `Q_n` is then one `u64`.
//!
//! There is one solve, [`fan_paths_into`] ([`fan_paths`] wraps it). It
//! takes a word of forbidden nodes, the faulty coordinates of a
//! fault-avoiding rebuild (a fan in a hypercube with faulty vertices),
//! `0` for a plain family, and solves every query in
//! translation-canonical form: the source moves to 0, the forbidden
//! nodes with it.
//!
//! Flow model: vertex split (`in(v) → out(v)`, capacity 1; the source
//! unbounded), each cube edge in both directions with capacity 1, and
//! one arc `out(t) → sink` per target. Max-flow equals the fan size;
//! extraction walks the flow from the source.
//!
//! The network is implicit. Its flow is one word per dimension `d` (bit
//! `v` set when a unit flows `v → v ⊕ 2^d`) plus one word each for the
//! vertex and terminal arcs, and the residual BFS moves whole node sets:
//! a step along `d` is a masked block swap, so a BFS level costs `O(n)`
//! word operations. The solver is Edmonds–Karp, one unit per shortest
//! augmenting path, and it augments exactly the path a queue BFS over
//! the explicit network finds (see `augment`), so its fans, served flags
//! and effort counters are those of that explicit solve.

use crate::cube::{Cube, CubeError, Node};
use graphs::DinicStats;

/// Largest cube a fan is solved in: its node sets fit one `u64`.
const MAX_DIM: u32 = 6;

/// Errors from fan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanError {
    /// Underlying cube error (bad dimension / label).
    Cube(CubeError),
    /// Targets must be distinct and different from the source.
    BadTargets,
    /// More targets than the cube's connectivity can support.
    TooManyTargets { targets: usize, dim: u32 },
    /// Fans are solved on node sets of one word; `n ≤ 6` only.
    CubeTooLarge(u32),
    /// The source of a fault-avoiding fan is itself forbidden.
    SourceForbidden,
}

impl std::fmt::Display for FanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanError::Cube(e) => write!(f, "{e}"),
            FanError::BadTargets => write!(f, "targets must be distinct and ≠ source"),
            FanError::TooManyTargets { targets, dim } => {
                write!(f, "{targets} targets exceed connectivity {dim}")
            }
            FanError::CubeTooLarge(n) => {
                write!(f, "fan computation limited to n ≤ {MAX_DIM}, got {n}")
            }
            FanError::SourceForbidden => write!(f, "fan source is forbidden"),
        }
    }
}

impl std::error::Error for FanError {}

impl From<CubeError> for FanError {
    fn from(e: CubeError) -> Self {
        FanError::Cube(e)
    }
}

/// Effort counters accumulated by a [`FanScratch`] across queries.
///
/// Plain `u64` increments on paths that already run a max-flow solve —
/// unconditionally enabled. Solver-level effort (BFS passes, arc
/// mutations) is reported separately via [`FanScratch::solver_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanMetrics {
    /// Validated [`fan_paths_into`] calls (including empty target sets).
    pub queries: u64,
    /// Total targets across all queries (= total fan paths produced).
    pub targets_requested: u64,
    /// Targets adjacent to the source whose direct edge was seeded,
    /// bypassing the solver (counts fast-path targets too).
    pub seeded_direct: u64,
    /// Queries answered by the combinatorial neighbour-fan fast path
    /// (all targets adjacent to the source; no solver).
    pub fast_path: u64,
    /// Always 0: the fan cache was removed. Kept so that readers of
    /// this struct keep compiling.
    pub cache_hits: u64,
    /// Always 0: the fan cache was removed. Kept so that readers of
    /// this struct keep compiling.
    pub cache_misses: u64,
}

impl FanMetrics {
    /// Element-wise accumulation (for merging per-thread scratches).
    pub fn merge(&mut self, other: &FanMetrics) {
        self.queries += other.queries;
        self.targets_requested += other.targets_requested;
        self.seeded_direct += other.seeded_direct;
        self.fast_path += other.fast_path;
    }
}

const UNSET: u32 = u32::MAX;

/// Reusable state for [`fan_paths_into`]: the target index and the
/// output arena, plus effort counters. The solver's flow and BFS levels
/// are a few words on the stack, so a query allocates nothing once the
/// arena has grown to its size.
pub struct FanScratch {
    /// Per-call: index of each node in `targets`, or `UNSET`.
    target_idx: [u32; 1 << MAX_DIM],
    /// Decomposition output in discovery order (flat CSR).
    tmp_nodes: Vec<Node>,
    tmp_offsets: Vec<u32>,
    /// `path_of_target[i]` = index into `tmp_offsets` of target `i`'s path.
    path_of_target: Vec<u32>,
    /// Per-call canonicalisation: `targets[i] ⊕ s`.
    canon: Vec<Node>,
    /// Monotone effort counters; see [`FanMetrics`].
    metrics: FanMetrics,
    /// Monotone solver counters, across every dimension; see
    /// [`FanScratch::solver_stats`].
    solver: DinicStats,
}

impl FanScratch {
    pub fn new() -> Self {
        FanScratch {
            target_idx: [UNSET; 1 << MAX_DIM],
            tmp_nodes: Vec::new(),
            tmp_offsets: Vec::new(),
            path_of_target: Vec::new(),
            canon: Vec::new(),
            metrics: FanMetrics::default(),
            solver: DinicStats::default(),
        }
    }

    /// Effort counters accumulated since construction or the last
    /// [`FanScratch::reset_metrics`].
    pub fn metrics(&self) -> FanMetrics {
        self.metrics
    }

    /// Zeroes the effort and solver counters.
    pub fn reset_metrics(&mut self) {
        self.metrics = FanMetrics::default();
        self.solver = DinicStats::default();
    }

    /// Counters of the max-flow solver, accumulated across every query
    /// since construction or the last [`FanScratch::reset_metrics`], in
    /// the terms of a Dinic unit solve on the explicit network: one BFS
    /// pass per augmenting-path search (the last one fails unless the
    /// fan is complete), one augmentation per path, and one touched arc
    /// per augmenting-path arc, per seeded direct-edge arc and per
    /// capacity override (the source, each forbidden node, each open
    /// terminal).
    pub fn solver_stats(&self) -> DinicStats {
        self.solver
    }

    /// Number of fan paths produced by the last [`fan_paths_into`] call.
    pub fn num_paths(&self) -> usize {
        self.path_of_target.len()
    }

    /// Whether `targets[i]` was served by the last [`fan_paths_into`]
    /// call. A query with no forbidden node serves every target (the fan
    /// lemma guarantees it), so this is only informative when forbidden
    /// nodes may make some targets unreachable. Reading
    /// [`FanScratch::path`] for an unserved target is a logic error (it
    /// panics).
    pub fn target_served(&self, i: usize) -> bool {
        self.path_of_target[i] != UNSET
    }

    /// The fan path to `targets[i]` from the last call (`s → targets[i]`).
    pub fn path(&self, i: usize) -> &[Node] {
        let p = self.path_of_target[i] as usize;
        let (a, b) = (
            self.tmp_offsets[p] as usize,
            self.tmp_offsets[p + 1] as usize,
        );
        &self.tmp_nodes[a..b]
    }
}

impl Default for FanScratch {
    fn default() -> Self {
        FanScratch::new()
    }
}

/// Computes a fan: one path from `s` to each target, pairwise
/// vertex-disjoint except at `s`. Paths are returned in target order
/// (`paths[i]` ends at `targets[i]`).
///
/// Requires `targets.len() ≤ n` (fan lemma bound) and `n ≤ 6` (a node
/// set of the cube is one word).
///
/// Allocates its scratch and output per call; hot paths should hold a
/// [`FanScratch`] and call [`fan_paths_into`] instead.
///
/// # Examples
/// ```
/// use hypercube::{Cube, fan};
/// let q = Cube::new(3).unwrap();
/// let fan = fan::fan_paths(&q, 0b000, &[0b011, 0b101, 0b110]).unwrap();
/// assert_eq!(fan.len(), 3);
/// fan::check_fan(&q, 0b000, &[0b011, 0b101, 0b110], &fan).unwrap();
/// ```
pub fn fan_paths(cube: &Cube, s: Node, targets: &[Node]) -> Result<Vec<Vec<Node>>, FanError> {
    let mut scratch = FanScratch::new();
    fan_paths_into(cube, s, targets, 0, &mut scratch)?;
    Ok((0..scratch.num_paths())
        .map(|i| scratch.path(i).to_vec())
        .collect())
}

/// The fan solve: a fan from `s` to `targets` in the subcube without
/// the nodes whose bit is set in `forbidden` (one word, like every node
/// set of the solver), written into `scratch` and read back through
/// [`FanScratch::path`] in target order. Returns the number of targets
/// served. Once the output arena has grown to a query's size, calls
/// allocate nothing.
///
/// Forbidden nodes can cut targets off the source, so the solve is
/// best-effort: check [`FanScratch::target_served`] per target before
/// reading its path. With `forbidden == 0` the fan lemma guarantees
/// every target is served, and the call asserts it. A forbidden source
/// is rejected with [`FanError::SourceForbidden`].
///
/// Every query is solved in translation-canonical form: the source
/// moves to 0 and `forbidden` moves with it (`v ↦ v ⊕ s`, an
/// automorphism of `Q_n`), and the solution maps back exactly. The
/// solver's path to a target does not depend on the order of the
/// targets, so every query in one canonical class (the same targets and
/// forbidden nodes relative to the source, in any order) gets the same
/// fan, up to the translation. The fans are valid, not of minimum total
/// length in general: from `Q_4` up, a min-cost flow finds a shorter fan
/// for some target sets.
///
/// # Panics
///
/// Panics only on an internal invariant violation: with no forbidden
/// node the fan lemma guarantees a fan of size `targets.len()` whenever
/// the validated preconditions hold, so a smaller max-flow (or a stuck
/// decomposition) indicates a bug in this module, never bad input — all
/// input errors are reported as [`FanError`].
pub fn fan_paths_into(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    forbidden: u64,
    scratch: &mut FanScratch,
) -> Result<usize, FanError> {
    if is_forbidden(forbidden, s) {
        return Err(FanError::SourceForbidden);
    }
    let n = validate_and_index(cube, s, targets, scratch)?;
    if targets.is_empty() {
        return Ok(0);
    }
    if all_adjacent(s, targets) && !targets.iter().any(|&t| is_forbidden(forbidden, t)) {
        // Direct edges bypass every interior node, so faults elsewhere in
        // the cube cannot invalidate the star fan.
        write_direct_fan(s, targets, scratch);
        return Ok(targets.len());
    }

    // Solve the translated query from source 0, with `target_idx`
    // re-indexed for the translated labels; then translate every arena
    // node back.
    let blocked = (0..n).filter(|&d| s >> d & 1 == 1).fold(forbidden, flip);
    scratch.target_idx[..1 << n].fill(UNSET);
    scratch.canon.clear();
    for (i, &t) in targets.iter().enumerate() {
        scratch.canon.push(t ^ s);
        scratch.target_idx[(t ^ s) as usize] = i as u32;
    }
    let canon = std::mem::take(&mut scratch.canon);
    let served = solve(n, 0, &canon, blocked, scratch) as usize;
    scratch.canon = canon;
    assert!(
        forbidden != 0 || served == targets.len(),
        "fan lemma violated: flow {served} < {} targets (bug)",
        targets.len()
    );
    for x in &mut scratch.tmp_nodes {
        *x ^= s;
    }
    Ok(served)
}

/// Input validation shared by every fan entry point. On success the
/// output arena is cleared, `target_idx` maps node labels to positions in
/// `targets`, and the query is counted in the metrics.
fn validate_and_index(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    scratch: &mut FanScratch,
) -> Result<u32, FanError> {
    let n = cube.dim();
    if n > MAX_DIM {
        return Err(FanError::CubeTooLarge(n));
    }
    cube.check(s)?;
    for &t in targets {
        cube.check(t)?;
    }
    if targets.len() > n as usize {
        return Err(FanError::TooManyTargets {
            targets: targets.len(),
            dim: n,
        });
    }
    scratch.tmp_nodes.clear();
    scratch.tmp_offsets.clear();
    scratch.tmp_offsets.push(0);
    scratch.path_of_target.clear();

    // Duplicate/source detection doubles as the target index used by the
    // flow decomposition.
    scratch.target_idx[..1 << n].fill(UNSET);
    for (i, &t) in targets.iter().enumerate() {
        if t == s || scratch.target_idx[t as usize] != UNSET {
            return Err(FanError::BadTargets);
        }
        scratch.target_idx[t as usize] = i as u32;
    }
    scratch.metrics.queries += 1;
    scratch.metrics.targets_requested += targets.len() as u64;
    Ok(n)
}

#[inline]
fn all_adjacent(s: Node, targets: &[Node]) -> bool {
    targets.iter().all(|&t| (t ^ s).count_ones() == 1)
}

/// Whether `v`'s bit is set in the `forbidden` mask. Labels ≥ 64 are
/// never forbidden, which keeps the shift in range for a source not yet
/// validated.
#[inline]
fn is_forbidden(forbidden: u64, v: Node) -> bool {
    v < 64 && forbidden >> v & 1 == 1
}

/// Combinatorial fast path: when every target is a neighbour of `s`, the
/// unique minimum fan is the star of direct edges — exactly what the flow
/// formulation returns after seeding (each target's vertex capacity is
/// consumed by its own terminal unit, so no seeded edge is ever rerouted).
/// Writing it directly skips the solver.
fn write_direct_fan(s: Node, targets: &[Node], scratch: &mut FanScratch) {
    for (i, &t) in targets.iter().enumerate() {
        scratch.tmp_nodes.push(s);
        scratch.tmp_nodes.push(t);
        scratch.tmp_offsets.push(scratch.tmp_nodes.len() as u32);
        scratch.path_of_target.push(i as u32);
    }
    scratch.metrics.seeded_direct += targets.len() as u64;
    scratch.metrics.fast_path += 1;
}

/// `LOW_HALF[d]`: the nodes of `Q_6` whose bit `d` is clear.
const LOW_HALF: [u64; MAX_DIM as usize] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// The node set `{v ⊕ 2^d : v ∈ set}`: one masked block swap.
#[inline]
fn flip(set: u64, d: u32) -> u64 {
    let (low, width) = (LOW_HALF[d as usize], 1u32 << d);
    (set & low) << width | (set >> width) & low
}

/// A unit flow on the implicit vertex-split `Q_n`, as node sets.
#[derive(Default)]
struct Flow {
    /// `edge[d]`: the nodes `v` with a unit on the arc `v → v ⊕ 2^d`.
    edge: [u64; MAX_DIM as usize],
    /// Nodes other than the source with a unit through `in(v) → out(v)`.
    vertex: u64,
    /// Targets with a unit on `out(t) → sink`.
    terminal: u64,
}

/// The dimension of the first arc out of `v` (beyond its vertex arc)
/// for which `ok` holds, in the explicit network's arc order: across
/// the set bits of `v` from the highest down, then across the clear
/// bits from the lowest up.
#[inline]
fn first_edge(n: u32, v: u32, ok: impl Fn(u32) -> bool) -> u32 {
    (0..n)
        .rev()
        .filter(|&d| v >> d & 1 == 1)
        .chain((0..n).filter(|&d| v >> d & 1 == 0))
        .find(|&d| ok(d))
        .expect("a kept node has a kept successor (bug)")
}

/// One Edmonds–Karp step: finds a shortest augmenting path from
/// `in(s)` to the sink and pushes a unit along it; returns `false` when
/// no target with spare terminal capacity (`open & !flow.terminal`) is
/// reachable.
///
/// The forward pass builds the BFS levels as node sets. From in-copies
/// the residual arcs are the vertex arcs with capacity left (`vertex`
/// below: never through a `blocked` node, always through the source)
/// and the reverses of units flowing in; from out-copies they are the
/// reverses of vertex units and the edge arcs without a unit. The
/// backward pass keeps, per level, the nodes with a residual arc into
/// the next level's kept nodes; the last level keeps its open targets.
///
/// The path is the one a queue BFS over the explicit network takes:
/// there the sink's discoverer is the first open target of the last
/// level in queue order, and a node's discoverer is the first node of
/// the previous level with an arc into it. A node with an arc into a
/// kept node is kept, and the children of a node that is not kept are
/// not kept, so the first kept node of each level is the first kept
/// successor, in arc order, of the first kept node of the one before.
/// The walk below takes exactly those successors, from `in(s)` on, and
/// never backtracks.
fn augment(
    n: u32,
    s: u32,
    blocked: u64,
    open: u64,
    flow: &mut Flow,
    stats: &mut DinicStats,
) -> bool {
    stats.bfs_passes += 1;
    let vertex = !(flow.vertex | blocked) | 1 << s;
    let sinks = open & !flow.terminal;
    // Level `k` holds in-copies for even `k` and out-copies for odd
    // `k`; a node's copy joins one level at most.
    let mut levels = [0u64; 2 << MAX_DIM];
    levels[0] = 1 << s;
    let (mut seen_in, mut seen_out) = (1u64 << s, 0u64);
    let mut last = 0;
    loop {
        let from = levels[last];
        let mut next;
        if last % 2 == 0 {
            next = from & vertex;
            for d in 0..n {
                next |= flip(from, d) & flow.edge[d as usize];
            }
            next &= !seen_out;
            seen_out |= next;
        } else {
            next = from & flow.vertex;
            for d in 0..n {
                next |= flip(from & !flow.edge[d as usize], d);
            }
            next &= !(seen_in | blocked);
            seen_in |= next;
        }
        if next == 0 {
            return false;
        }
        last += 1;
        levels[last] = next;
        if last % 2 == 1 && next & sinks != 0 {
            break;
        }
    }

    levels[last] &= sinks;
    for k in (0..last).rev() {
        let kept = levels[k + 1];
        let mut into = 0;
        if k % 2 == 0 {
            into |= kept & vertex;
            for d in 0..n {
                into |= flip(kept & flow.edge[d as usize], d);
            }
        } else {
            into |= kept & flow.vertex;
            for d in 0..n {
                into |= flip(kept, d) & !flow.edge[d as usize];
            }
        }
        levels[k] &= into;
    }

    let mut v = s;
    for k in 0..last {
        let kept = levels[k + 1];
        let is_kept = |w: u32| kept >> w & 1 == 1;
        if k % 2 == 0 {
            if vertex >> v & 1 == 1 && is_kept(v) {
                if v != s {
                    flow.vertex |= 1 << v;
                }
            } else {
                // Cancel a unit flowing `w → v`.
                let d = first_edge(n, v, |d| {
                    let w = v ^ 1 << d;
                    flow.edge[d as usize] >> w & 1 == 1 && is_kept(w)
                });
                v ^= 1 << d;
                flow.edge[d as usize] &= !(1 << v);
            }
        } else if flow.vertex >> v & 1 == 1 && is_kept(v) {
            flow.vertex &= !(1 << v);
        } else {
            let d = first_edge(n, v, |d| {
                flow.edge[d as usize] >> v & 1 == 0 && is_kept(v ^ 1 << d)
            });
            flow.edge[d as usize] |= 1 << v;
            v ^= 1 << d;
        }
    }
    flow.terminal |= 1 << v;
    stats.augmentations += 1;
    stats.arcs_touched += last as u64 + 1;
    true
}

/// The solver: removes the `forbidden` nodes from the network, seeds
/// direct edges, augments unit paths, and decomposes the flow into the
/// output arena. Returns the max-flow value (= targets served); unserved
/// targets keep `path_of_target == UNSET`. Requires
/// [`validate_and_index`] to have set up `target_idx` for exactly this
/// `(s, targets)` query, `targets` non-empty and `s` not forbidden.
fn solve(n: u32, s: Node, targets: &[Node], forbidden: u64, scratch: &mut FanScratch) -> u32 {
    let s = s as u32;
    let blocked = forbidden & u64::MAX >> (64 - (1 << n));
    // Targets with terminal capacity: every one that is not forbidden.
    let open = targets
        .iter()
        .filter(|&&t| !is_forbidden(forbidden, t))
        .fold(0u64, |acc, &t| acc | 1 << t);
    let want = open.count_ones();
    let stats = &mut scratch.solver;
    // Capacity overrides, as the explicit network counts them: the
    // source's unbounded vertex arc, each blocked node's vertex arc and
    // each open terminal arc.
    stats.arcs_touched += 1 + blocked.count_ones() as u64 + want as u64;

    // Seed every served target adjacent to `s` with its direct edge. A
    // target is never an interior node of any fan path (its vertex
    // capacity is consumed by its own terminal unit), so the direct edge
    // is compatible with — and no longer than — some maximum fan of the
    // fault-free subcube; the solver only has to route the remaining
    // targets. Forbidden targets are skipped: they have no capacity.
    let mut flow = Flow::default();
    let mut seeded = 0u32;
    for &t in targets {
        let t = t as u32;
        let diff = t ^ s;
        if diff.count_ones() == 1 && open >> t & 1 == 1 {
            flow.edge[diff.trailing_zeros() as usize] |= 1 << s;
            flow.vertex |= 1 << t;
            flow.terminal |= 1 << t;
            seeded += 1;
        }
    }
    // Four arcs per seeded unit: the source's vertex arc, the edge, the
    // target's vertex arc and its terminal arc.
    stats.arcs_touched += 4 * seeded as u64;
    scratch.metrics.seeded_direct += seeded as u64;

    // The open terminals cap the flow at `want`, so the solver stops
    // there instead of running a final search that proves it. Faults
    // may cut targets off, so the flow value is the answer; the entry
    // point asserts the fan-lemma value itself when nothing is
    // forbidden.
    let mut value = seeded;
    while value < want && augment(n, s, blocked, open, &mut flow, stats) {
        value += 1;
    }

    // Decompose: walk each unit from the source, ending at a target
    // whose terminal unit is still unread (a target is never a
    // through-node: its vertex capacity is 1), else leaving along the
    // lowest dimension with an unread edge unit.
    scratch.path_of_target.resize(targets.len(), UNSET);
    for p in 0..value {
        scratch.tmp_nodes.push(Node::from(s));
        let mut cur = s;
        loop {
            let t_idx = scratch.target_idx[cur as usize];
            if t_idx != UNSET && flow.terminal >> cur & 1 == 1 {
                flow.terminal &= !(1 << cur);
                assert_eq!(
                    scratch.path_of_target[t_idx as usize], UNSET,
                    "target reached twice"
                );
                scratch.path_of_target[t_idx as usize] = p;
                scratch.tmp_offsets.push(scratch.tmp_nodes.len() as u32);
                break;
            }
            let d = (0..n)
                .find(|&d| flow.edge[d as usize] >> cur & 1 == 1)
                .expect("flow decomposition stuck (bug)");
            flow.edge[d as usize] &= !(1 << cur);
            cur ^= 1 << d;
            scratch.tmp_nodes.push(Node::from(cur));
        }
    }
    value
}

/// Checks fan validity: `paths[i]` runs `s → targets[i]`, each simple,
/// pairwise sharing only `s`.
pub fn check_fan(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    paths: &[Vec<Node>],
) -> Result<(), String> {
    if paths.len() != targets.len() {
        return Err(format!(
            "expected {} paths, got {}",
            targets.len(),
            paths.len()
        ));
    }
    let mut used = std::collections::HashSet::new();
    for (i, p) in paths.iter().enumerate() {
        if p.first() != Some(&s) || p.last() != Some(&targets[i]) {
            return Err(format!("path {i}: wrong endpoints"));
        }
        let mut own = std::collections::HashSet::new();
        for w in p.windows(2) {
            if cube.distance(w[0], w[1]) != 1 {
                return Err(format!("path {i}: non-edge"));
            }
        }
        for &x in p {
            if !own.insert(x) {
                return Err(format!("path {i}: revisit"));
            }
        }
        for &x in &p[1..] {
            if !used.insert(x) {
                return Err(format!("paths share node {x:#x} beyond source"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_to_all_neighbors() {
        let q = Cube::new(4).unwrap();
        let s = 0b0101u128;
        let targets: Vec<Node> = q.neighbors(s).collect();
        let fan = fan_paths(&q, s, &targets).unwrap();
        check_fan(&q, s, &targets, &fan).unwrap();
        // Each neighbour is reachable directly; minimum fan uses the edges.
        assert!(fan.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn fan_to_far_targets() {
        let q = Cube::new(4).unwrap();
        let s = 0u128;
        let targets = vec![0b1111u128, 0b1110, 0b0111, 0b1011];
        let fan = fan_paths(&q, s, &targets).unwrap();
        check_fan(&q, s, &targets, &fan).unwrap();
    }

    #[test]
    fn single_target_is_a_path() {
        let q = Cube::new(3).unwrap();
        let fan = fan_paths(&q, 0, &[0b111]).unwrap();
        check_fan(&q, 0, &[0b111], &fan).unwrap();
        assert_eq!(fan[0].len(), 4); // shortest: 3 hops
    }

    #[test]
    fn empty_targets_empty_fan() {
        let q = Cube::new(3).unwrap();
        assert!(fan_paths(&q, 0, &[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_duplicate_or_source_targets() {
        let q = Cube::new(3).unwrap();
        assert_eq!(fan_paths(&q, 0, &[1, 1]), Err(FanError::BadTargets));
        assert_eq!(fan_paths(&q, 0, &[0]), Err(FanError::BadTargets));
    }

    #[test]
    fn rejects_too_many_targets() {
        let q = Cube::new(2).unwrap();
        let err = fan_paths(&q, 0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, FanError::TooManyTargets { .. }));
    }

    #[test]
    fn rejects_big_cube() {
        let q = Cube::new(7).unwrap();
        assert_eq!(fan_paths(&q, 0, &[1]), Err(FanError::CubeTooLarge(7)));
    }

    #[test]
    fn exhaustive_q3_every_target_set() {
        // All subsets of size ≤ 3 of Q_3 \ {s}, for every s.
        let q = Cube::new(3).unwrap();
        let nodes: Vec<Node> = (0..8).collect();
        for &s in &nodes {
            let others: Vec<Node> = nodes.iter().copied().filter(|&x| x != s).collect();
            for mask in 1u32..(1 << others.len()) {
                if mask.count_ones() > 3 {
                    continue;
                }
                let targets: Vec<Node> = others
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &t)| t)
                    .collect();
                let fan = fan_paths(&q, s, &targets).unwrap();
                check_fan(&q, s, &targets, &fan)
                    .unwrap_or_else(|e| panic!("s={s} targets={targets:?}: {e}"));
            }
        }
    }

    #[test]
    fn metrics_count_queries_and_solves() {
        let q = Cube::new(4).unwrap();
        let mut sc = FanScratch::new();
        let s = 0u128;
        let neighbors: Vec<Node> = q.neighbors(s).collect();
        fan_paths_into(&q, s, &neighbors, 0, &mut sc).unwrap();
        fan_paths_into(&q, s, &[0b1111], 0, &mut sc).unwrap();
        let m = sc.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.targets_requested, 5);
        // All 4 neighbours seed directly; the far target seeds nothing.
        assert_eq!(m.seeded_direct, 4);
        // The all-neighbour query took the combinatorial fast path; the
        // far query needed the solver: one BFS, one augmentation.
        assert_eq!(m.fast_path, 1);
        assert_eq!(sc.solver_stats().bfs_passes, 1);
        assert_eq!(sc.solver_stats().augmentations, 1);
        // Rejected calls are not counted as queries.
        assert!(fan_paths_into(&q, s, &[s], 0, &mut sc).is_err());
        assert_eq!(sc.metrics().queries, 2);
        sc.reset_metrics();
        assert_eq!(sc.metrics(), FanMetrics::default());
        assert_eq!(sc.solver_stats(), DinicStats::default());
    }

    #[test]
    fn solver_counters_accumulate_across_dimensions() {
        // One far target per cube, Q_4 then Q_5: each query is one BFS
        // pass and one augmentation whatever the dimension before it.
        // Its arcs are two capacity overrides (source, terminal) plus
        // the path's `n + 1` vertex arcs, `n` edges and terminal arc.
        let mut sc = FanScratch::new();
        for n in [4u32, 5] {
            let q = Cube::new(n).unwrap();
            fan_paths_into(&q, 0, &[(1 << n) - 1], 0, &mut sc).unwrap();
        }
        let st = sc.solver_stats();
        assert_eq!((st.bfs_passes, st.augmentations), (2, 2));
        assert_eq!(st.arcs_touched, (2 + 2 * 4 + 2) + (2 + 2 * 5 + 2));
    }

    /// Runs the general solver on a query the public entry points would
    /// answer via the combinatorial fast path.
    fn solver_reference(q: &Cube, s: Node, targets: &[Node], sc: &mut FanScratch) {
        let n = validate_and_index(q, s, targets, sc).unwrap();
        assert_eq!(solve(n, s, targets, 0, sc) as usize, targets.len());
    }

    #[test]
    fn fast_path_agrees_with_dinic_exhaustively() {
        // Every source and every non-empty neighbour subset of Q_2..Q_4:
        // the direct fan must match the flow solver path-for-path.
        for n in 2u32..=4 {
            let q = Cube::new(n).unwrap();
            let mut fast = FanScratch::new();
            let mut oracle = FanScratch::new();
            for s in 0..(1u128 << n) {
                let nbrs: Vec<Node> = q.neighbors(s).collect();
                for mask in 1u32..(1 << nbrs.len()) {
                    let targets: Vec<Node> = nbrs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &t)| t)
                        .collect();
                    fan_paths_into(&q, s, &targets, 0, &mut fast).unwrap();
                    solver_reference(&q, s, &targets, &mut oracle);
                    assert_eq!(fast.num_paths(), oracle.num_paths());
                    for i in 0..targets.len() {
                        assert_eq!(
                            fast.path(i),
                            oracle.path(i),
                            "n={n} s={s} targets={targets:?} path {i}"
                        );
                    }
                }
            }
            // The fast path never touched the solver. Every oracle query
            // is seeded in full, so its solver counts only arcs.
            assert_eq!(fast.solver_stats(), DinicStats::default());
            assert!(oracle.solver_stats().arcs_touched > 0);
        }
    }

    #[test]
    fn canonical_solve_translates_with_the_query() {
        // Same canonical class (translated sources and forbidden nodes,
        // permuted targets): every answer is the source-0 fan translated
        // by `s`, matched up by target, and a valid fan around the
        // translated forbidden nodes. The forbidden words leave every
        // target served, one target cut off, and two.
        let q = Cube::new(4).unwrap();
        let base: Vec<Node> = vec![0b1111, 0b0111, 0b1110];
        let translate = |set: u64, s: Node| {
            (0..16)
                .filter(|&v| set >> v & 1 == 1)
                .fold(0u64, |acc, v| acc | 1 << (v ^ s as u64))
        };
        for (forbidden, served) in [
            (0u64, 3),
            (1 << 0b0011 | 1 << 0b1100, 3),
            (1 << 0b0111, 2),
            (1 << 0b0001 | 1 << 0b0010 | 1 << 0b0100, 1),
        ] {
            let mut reference = FanScratch::new();
            assert_eq!(
                fan_paths_into(&q, 0, &base, forbidden, &mut reference),
                Ok(served),
                "forbidden={forbidden:#x}"
            );
            let mut sc = FanScratch::new();
            for s in 0..16u128 {
                let targets: Vec<Node> = base.iter().map(|&t| t ^ s).collect();
                let mut rev = targets.clone();
                rev.reverse();
                let moved = translate(forbidden, s);
                for t in [&targets, &rev] {
                    assert_eq!(fan_paths_into(&q, s, t, moved, &mut sc), Ok(served));
                    let mut fan = Vec::new();
                    let mut kept = Vec::new();
                    for (i, &ti) in t.iter().enumerate() {
                        let j = base.iter().position(|&b| b == ti ^ s).unwrap();
                        assert_eq!(sc.target_served(i), reference.target_served(j));
                        if !sc.target_served(i) {
                            continue;
                        }
                        let want: Vec<Node> = reference.path(j).iter().map(|&x| x ^ s).collect();
                        assert_eq!(sc.path(i), &want[..], "s={s} targets={t:?} path {i}");
                        assert!(want.iter().all(|&x| moved >> x & 1 == 0));
                        fan.push(want);
                        kept.push(ti);
                    }
                    check_fan(&q, s, &kept, &fan).unwrap();
                }
            }
        }
    }

    #[test]
    fn avoiding_rejects_a_forbidden_source() {
        // Served counts and paths are meaningless when the source itself
        // is removed from the network, so the query is refused before it
        // is validated or counted.
        let q = Cube::new(3).unwrap();
        let mut sc = FanScratch::new();
        for targets in [&[1u128, 2][..], &[1, 6], &[3, 5, 6], &[1, 2, 4]] {
            assert_eq!(
                fan_paths_into(&q, 0, targets, 1, &mut sc),
                Err(FanError::SourceForbidden),
                "targets={targets:?}"
            );
        }
        assert_eq!(sc.metrics().queries, 0);
    }

    #[test]
    fn avoiding_matches_max_flow_exhaustively() {
        // Every source, every target set of at most n targets and every
        // forbidden mask sparing the source, on Q_2 and Q_3: the served
        // count must equal the explicit-graph Menger value between the
        // source and a sink joined to the surviving targets of Q_n − F.
        let mut sc = FanScratch::new();
        for n in 2u32..=3 {
            let q = Cube::new(n).unwrap();
            let num = 1u32 << n;
            let sink = num;
            for s in 0..num {
                for tmask in 0u32..1 << num {
                    if tmask >> s & 1 == 1 || tmask.count_ones() > n {
                        continue;
                    }
                    let targets: Vec<Node> = (0..num)
                        .filter(|&t| tmask >> t & 1 == 1)
                        .map(Node::from)
                        .collect();
                    for forbidden in 0u64..1 << num {
                        if forbidden >> s & 1 == 1 {
                            continue;
                        }
                        let mut edges = Vec::new();
                        for v in (0..num).filter(|&v| forbidden >> v & 1 == 0) {
                            for dim in 0..n {
                                let w = v ^ (1 << dim);
                                if v < w && forbidden >> w & 1 == 0 {
                                    edges.push((v, w));
                                }
                            }
                            if tmask >> v & 1 == 1 {
                                edges.push((v, sink));
                            }
                        }
                        let g = graphs::CsrGraph::from_edges(num + 1, &edges);
                        let want = graphs::vertex_connectivity_between(&g, s, sink);
                        let served =
                            fan_paths_into(&q, Node::from(s), &targets, forbidden, &mut sc)
                                .unwrap();
                        assert_eq!(
                            served as u32, want,
                            "n={n} s={s} targets={targets:?} forbidden={forbidden:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avoiding_respects_forbidden_nodes() {
        // Random queries with random fault masks: every served path must
        // be a valid fan path that visits no forbidden node, and when the
        // remaining connectivity permits, all targets must be served.
        let q = Cube::new(5).unwrap();
        let mut sc = FanScratch::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let s = (next() % 32) as Node;
            let k = (next() % 5 + 1) as usize;
            let mut targets = Vec::new();
            while targets.len() < k {
                let t = (next() % 32) as Node;
                if t != s && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            // Up to 4 faults, never on the source.
            let mut forbidden = 0u64;
            for _ in 0..(next() % 5) {
                let v = next() % 32;
                if v != s as u64 {
                    forbidden |= 1 << v;
                }
            }
            let served = fan_paths_into(&q, s, &targets, forbidden, &mut sc).unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut n_served = 0;
            for (i, &t) in targets.iter().enumerate() {
                if !sc.target_served(i) {
                    continue;
                }
                n_served += 1;
                let p = sc.path(i);
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&t));
                for w in p.windows(2) {
                    assert_eq!(q.distance(w[0], w[1]), 1);
                }
                for &x in p {
                    assert_eq!(forbidden >> x & 1, 0, "path visits forbidden node {x:#x}");
                }
                for &x in &p[1..] {
                    assert!(seen.insert(x), "paths share node {x:#x}");
                }
            }
            assert_eq!(served, n_served);
            // With ≤ 4 faults in a 5-connected cube and no faulty
            // endpoints, Menger still guarantees min(k, 5 - f) paths.
            let f = forbidden.count_ones() as usize;
            let fault_free_targets = targets.iter().filter(|&&t| forbidden >> t & 1 == 0).count();
            assert!(
                served >= fault_free_targets.min(5 - f),
                "served {served} < guaranteed {} (s={s} targets={targets:?} forbidden={forbidden:#x})",
                fault_free_targets.min(5 - f)
            );
        }
    }

    #[test]
    fn avoiding_forbidden_target_is_unserved() {
        let q = Cube::new(3).unwrap();
        let mut sc = FanScratch::new();
        let targets = vec![0b001u128, 0b110];
        let served = fan_paths_into(&q, 0, &targets, 1 << 0b110, &mut sc).unwrap();
        assert_eq!(served, 1);
        assert!(sc.target_served(0));
        assert!(!sc.target_served(1));
        assert_eq!(sc.path(0), &[0, 0b001]);
    }

    #[test]
    fn random_fans_q6() {
        // Deterministic pseudo-random target sets in the largest son-cube.
        let q = Cube::new(6).unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let s = (next() % 64) as Node;
            let k = (next() % 6 + 1) as usize;
            let mut targets = Vec::new();
            while targets.len() < k {
                let t = (next() % 64) as Node;
                if t != s && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            let fan = fan_paths(&q, s, &targets).unwrap();
            check_fan(&q, s, &targets, &fan).unwrap();
        }
    }
}
