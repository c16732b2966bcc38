//! Construction-level metrics: what the disjoint-path engine did and how
//! long it took.
//!
//! Counters live inside [`PathBuilder`](crate::PathBuilder) and are
//! plain `u64` increments on queries that already run fans and max-flows
//! — they stay unconditionally enabled. Per-query wall-clock timing costs
//! two `Instant` reads per query and is therefore opt-in
//! ([`PathBuilder::enable_timing`](crate::PathBuilder::enable_timing));
//! a disabled builder never touches the clock. See `DESIGN.md` §8 for
//! the measured overhead of both modes.
//!
//! [`MetricsReport`] is the full snapshot: construction counters plus
//! the fan-engine and flow-solver counters accumulated underneath, with
//! a JSON export used by the experiment sidecars and `hhc stats`.
//!
//! The concurrent [`Router`](crate::Router) does not share one of these
//! behind a lock: each worker keeps its own `MetricsReport` and publishes
//! per-batch deltas into a per-worker `AtomicReport`
//! (`service::metrics`), which [`Router::metrics`](crate::Router::metrics)
//! folds back into a plain `MetricsReport` on demand. The timing
//! histogram is deliberately excluded from that aggregation — timing
//! stays a single-builder, opt-in concern off the serving path.

use graphs::DinicStats;
use hypercube::FanMetrics;
use obs::{json, TimingStats};

/// Counters owned directly by one `PathBuilder`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstructionMetrics {
    /// Successful constructions (validated pairs built to completion).
    pub queries: u64,
    /// Queries that took case A (`Xu = Xv`).
    pub same_cube: u64,
    /// Queries that took case B (`Xu ≠ Xv`).
    pub cross_cube: u64,
    /// Rotation crossing plans selected (case B only).
    pub rotation_plans: u64,
    /// Detour crossing plans selected (case B plus case A's single
    /// external loop, mirroring `ConstructionTrace`). Replayed family
    /// hits contribute the plan counts of the cached construction, so
    /// `rotation_plans + detour_plans = degree·cross_cube + same_cube`
    /// holds with or without caching.
    pub detour_plans: u64,
    /// Queries answered by replaying a translation-canonical family from
    /// the builder's own family cache (no fans, no flow solves). Always
    /// 0 while a shared L2 tier is attached: the builder then consults
    /// the L2 alone.
    pub family_hits: u64,
    /// Cross-cube queries answered from *either* family tier — the
    /// builder's own cache or an attached shared L2 — i.e. the ones that
    /// would otherwise have issued two fan queries each. This is what
    /// keeps the `fan_queries` conservation law tier-agnostic.
    pub family_hits_cross: u64,
    /// Family caches that latched adaptive probe-only mode (stopped
    /// inserting after a sustained near-zero hit rate); 0 or 1 per
    /// builder, summed across workers by [`merge`](Self::merge).
    /// Lifetime-of-cache: unlike the counters above it survives
    /// [`PathBuilder::reset_metrics`](crate::PathBuilder::reset_metrics)
    /// and resets only when the cache itself is replaced.
    pub family_bypass_events: u64,
    /// Fault-avoiding constructions that had to deviate from the plain
    /// family (at least one plain path intersected the fault set).
    pub fault_reroutes: u64,
    /// Candidate crossing plans rejected during fault-avoiding rebuilds
    /// because a fault blocked their trajectory or terminal stub.
    pub fault_avoided_plans: u64,
    /// Queries answered by replaying a family from an attached shared L2
    /// tier ([`SharedFamilyCache`](crate::service::SharedFamilyCache)).
    /// Zero unless a shared cache is attached.
    pub l2_hits: u64,
    /// Queries that missed the attached shared L2 tier and fell through
    /// to a fresh construction. For untraced queries on a builder with
    /// an attached L2, `queries == family_hits + l2_hits + l2_misses`
    /// (with `family_hits == 0`).
    pub l2_misses: u64,
    /// L2-replayed families that the fault-avoiding layer then found
    /// blocked by the live fault set and repaired via the rebuild path —
    /// the lazy invalidation events of the tiered cache. Always
    /// `≤ min(l2_hits, fault_reroutes)`.
    pub l2_invalidations: u64,
    /// Fault-set generation the serving layer last stamped on this
    /// report (bumped once per `add_fault`/`clear_fault`). A gauge, not
    /// a counter: [`merge`](Self::merge) takes the maximum.
    pub fault_generation: u64,
    /// Per-query wall-clock nanoseconds; empty unless timing was enabled.
    pub timing: TimingStats,
}

impl ConstructionMetrics {
    pub fn merge(&mut self, other: &ConstructionMetrics) {
        self.queries += other.queries;
        self.same_cube += other.same_cube;
        self.cross_cube += other.cross_cube;
        self.rotation_plans += other.rotation_plans;
        self.detour_plans += other.detour_plans;
        self.family_hits += other.family_hits;
        self.family_hits_cross += other.family_hits_cross;
        self.family_bypass_events += other.family_bypass_events;
        self.fault_reroutes += other.fault_reroutes;
        self.fault_avoided_plans += other.fault_avoided_plans;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_invalidations += other.l2_invalidations;
        self.fault_generation = self.fault_generation.max(other.fault_generation);
        self.timing.merge(&other.timing);
    }

    pub fn reset(&mut self) {
        *self = ConstructionMetrics::default();
    }

    /// Own-family-cache hit rate over all queries; `None` before any
    /// query.
    pub fn family_hit_rate(&self) -> Option<f64> {
        (self.queries > 0).then(|| self.family_hits as f64 / self.queries as f64)
    }
}

/// Full effort snapshot of a `PathBuilder` (or of a whole batch run):
/// construction counters plus the two terminal-fan engines and their
/// combined max-flow solver counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    pub construction: ConstructionMetrics,
    /// Fan engine serving the source cube (`Yu` → plan entry coordinates).
    pub src_fan: FanMetrics,
    /// Fan engine serving the target cube (`Yv` → plan exit coordinates).
    pub tgt_fan: FanMetrics,
    /// Max-flow solver counters summed over both fan networks.
    pub solver: DinicStats,
}

impl MetricsReport {
    /// Total fan queries across both terminal engines. Case B issues
    /// exactly two (one per side) unless the whole family was replayed
    /// from a family tier, case A none, so this always equals
    /// `2 * (construction.cross_cube - construction.family_hits_cross)`
    /// for plain constructions. Fault-avoiding rebuilds issue additional
    /// fan queries, so the law holds only while
    /// `construction.fault_reroutes == 0`.
    pub fn fan_queries(&self) -> u64 {
        self.src_fan.queries + self.tgt_fan.queries
    }

    /// Element-wise accumulation (for combining per-thread reports).
    pub fn merge(&mut self, other: &MetricsReport) {
        self.construction.merge(&other.construction);
        self.src_fan.merge(&other.src_fan);
        self.tgt_fan.merge(&other.tgt_fan);
        self.solver.merge(&other.solver);
    }

    /// Compact JSON object with every counter; `timing_ns` is present
    /// only when timing was enabled and at least one query ran.
    pub fn to_json(&self) -> String {
        let c = &self.construction;
        let mut o = json::Obj::new();
        o.u64("queries", c.queries);
        o.u64("same_cube", c.same_cube);
        o.u64("cross_cube", c.cross_cube);
        o.u64("rotation_plans", c.rotation_plans);
        o.u64("detour_plans", c.detour_plans);
        o.u64("family_hits", c.family_hits);
        o.u64("family_hits_cross", c.family_hits_cross);
        o.u64("family_bypass_events", c.family_bypass_events);
        o.u64("fault_reroutes", c.fault_reroutes);
        o.u64("fault_avoided_plans", c.fault_avoided_plans);
        o.u64("l2_hits", c.l2_hits);
        o.u64("l2_misses", c.l2_misses);
        o.u64("l2_invalidations", c.l2_invalidations);
        o.u64("fault_generation", c.fault_generation);
        if c.timing.count() > 0 {
            o.raw("timing_ns", &c.timing.to_json());
        }
        let fan_obj = |f: &FanMetrics| {
            let mut fo = json::Obj::new();
            fo.u64("queries", f.queries);
            fo.u64("targets_requested", f.targets_requested);
            fo.u64("seeded_direct", f.seeded_direct);
            fo.u64("network_builds", f.network_builds);
            fo.u64("fast_path", f.fast_path);
            fo.finish()
        };
        o.raw("src_fan", &fan_obj(&self.src_fan));
        o.raw("tgt_fan", &fan_obj(&self.tgt_fan));
        let mut so = json::Obj::new();
        so.u64("bfs_passes", self.solver.bfs_passes);
        so.u64("augmentations", self.solver.augmentations);
        so.u64("arcs_touched", self.solver.arcs_touched);
        so.u64("slots_rewound", self.solver.slots_rewound);
        so.u64("csr_rebuilds", self.solver.csr_rebuilds);
        o.raw("solver", &so.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = MetricsReport::default();
        a.construction.queries = 3;
        a.construction.cross_cube = 2;
        a.src_fan.queries = 2;
        a.tgt_fan.queries = 2;
        a.solver.bfs_passes = 7;
        let mut b = MetricsReport::default();
        b.construction.queries = 1;
        b.construction.same_cube = 1;
        b.solver.bfs_passes = 1;
        a.merge(&b);
        assert_eq!(a.construction.queries, 4);
        assert_eq!(a.construction.same_cube, 1);
        assert_eq!(a.fan_queries(), 4);
        assert_eq!(a.solver.bfs_passes, 8);
    }

    #[test]
    fn merge_sums_l2_counters_but_maxes_generation() {
        let mut a = ConstructionMetrics {
            l2_hits: 5,
            l2_misses: 2,
            l2_invalidations: 1,
            fault_generation: 7,
            ..ConstructionMetrics::default()
        };
        let b = ConstructionMetrics {
            l2_hits: 3,
            l2_misses: 4,
            l2_invalidations: 2,
            fault_generation: 3,
            ..ConstructionMetrics::default()
        };
        a.merge(&b);
        assert_eq!(
            (a.l2_hits, a.l2_misses, a.l2_invalidations),
            (8, 6, 3),
            "l2 counters sum"
        );
        assert_eq!(a.fault_generation, 7, "generation is a gauge: max wins");
    }

    #[test]
    fn json_omits_timing_when_empty() {
        let mut r = MetricsReport::default();
        r.construction.queries = 1;
        let j = r.to_json();
        assert!(j.contains("\"queries\":1"));
        assert!(!j.contains("timing_ns"));
        r.construction.timing.record_ns(500);
        assert!(r.to_json().contains("\"timing_ns\":{"));
    }
}
