//! Per-worker atomic metrics aggregation for the routing service.
//!
//! Each worker owns an [`AtomicReport`]: one relaxed `AtomicU64` per
//! counter in [`MetricsReport`]. After every batch the worker publishes
//! the *delta* between its builder's cumulative report and the previous
//! publication — a handful of uncontended `fetch_add`s — and
//! [`Router::metrics`](super::Router::metrics) merges by summing loads.
//! No lock on either side, so there is no poisoned-mutex panic path and
//! a reader never blocks a worker mid-batch.
//!
//! Deltas use `saturating_sub` because a counter can legitimately step
//! backwards between publications: `family_bypass_events` is
//! lifetime-of-cache (it resets when
//! [`Router::flush_caches`](super::Router::flush_caches) replaces a
//! worker's own family cache).
//! Saturation turns such resets into "no new events this batch", which
//! keeps every published total monotone. `fault_generation` is a gauge,
//! not a counter: publish takes `fetch_max`, merge takes `max`, same as
//! [`ConstructionMetrics::merge`](crate::ConstructionMetrics::merge).
//!
//! The per-query timing histogram is deliberately excluded: the router
//! never enables builder timing (the serve loop measures wall-clock at
//! the call site instead), and a 64-bucket histogram per publication
//! would defeat the point of the cheap delta path.

use crate::metrics::MetricsReport;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! atomic_report {
    (
        counters { $($name:ident => $($path:ident).+;)+ }
        gauges { $($gname:ident => $($gpath:ident).+;)+ }
    ) => {
        /// Lock-free cumulative counters for one worker; see the module
        /// docs.
        #[derive(Debug, Default)]
        pub(crate) struct AtomicReport {
            $($name: AtomicU64,)+
            $($gname: AtomicU64,)+
        }

        impl AtomicReport {
            /// Publishes the change from `prev` (the report at the last
            /// publication) to `cur` (the builder's current cumulative
            /// report).
            pub(crate) fn publish(&self, cur: &MetricsReport, prev: &MetricsReport) {
                $(
                    let d = cur.$($path).+.saturating_sub(prev.$($path).+);
                    if d != 0 {
                        self.$name.fetch_add(d, Ordering::Relaxed);
                    }
                )+
                $(
                    self.$gname.fetch_max(cur.$($gpath).+, Ordering::Relaxed);
                )+
            }

            /// Accumulates this worker's published totals into `out`
            /// (counters sum, gauges max) — the merge half of
            /// [`MetricsReport::merge`].
            pub(crate) fn merge_into(&self, out: &mut MetricsReport) {
                $(
                    out.$($path).+ += self.$name.load(Ordering::Relaxed);
                )+
                $(
                    out.$($gpath).+ =
                        out.$($gpath).+.max(self.$gname.load(Ordering::Relaxed));
                )+
            }
        }
    };
}

atomic_report! {
    counters {
        queries => construction.queries;
        same_cube => construction.same_cube;
        cross_cube => construction.cross_cube;
        rotation_plans => construction.rotation_plans;
        detour_plans => construction.detour_plans;
        family_hits => construction.family_hits;
        family_hits_cross => construction.family_hits_cross;
        family_bypass_events => construction.family_bypass_events;
        fault_scans => construction.fault_scans;
        fault_reroutes => construction.fault_reroutes;
        fault_avoided_plans => construction.fault_avoided_plans;
        l2_hits => construction.l2_hits;
        l2_misses => construction.l2_misses;
        l2_invalidations => construction.l2_invalidations;
        src_fan_queries => src_fan.queries;
        src_fan_targets_requested => src_fan.targets_requested;
        src_fan_seeded_direct => src_fan.seeded_direct;
        src_fan_network_builds => src_fan.network_builds;
        src_fan_fast_path => src_fan.fast_path;
        tgt_fan_queries => tgt_fan.queries;
        tgt_fan_targets_requested => tgt_fan.targets_requested;
        tgt_fan_seeded_direct => tgt_fan.seeded_direct;
        tgt_fan_network_builds => tgt_fan.network_builds;
        tgt_fan_fast_path => tgt_fan.fast_path;
        solver_bfs_passes => solver.bfs_passes;
        solver_augmentations => solver.augmentations;
        solver_arcs_touched => solver.arcs_touched;
        solver_slots_rewound => solver.slots_rewound;
        solver_csr_rebuilds => solver.csr_rebuilds;
    }
    gauges {
        fault_generation => construction.fault_generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_accumulates_deltas() {
        let a = AtomicReport::default();
        let mut prev = MetricsReport::default();
        let mut cur = MetricsReport::default();
        cur.construction.queries = 3;
        cur.solver.bfs_passes = 5;
        cur.construction.fault_generation = 2;
        a.publish(&cur, &prev);
        prev = cur.clone();
        cur.construction.queries = 7;
        cur.src_fan.fast_path = 4;
        cur.construction.fault_generation = 1; // gauge may regress in cur
        a.publish(&cur, &prev);
        let mut out = MetricsReport::default();
        a.merge_into(&mut out);
        assert_eq!(out.construction.queries, 7);
        assert_eq!(out.solver.bfs_passes, 5);
        assert_eq!(out.src_fan.fast_path, 4);
        assert_eq!(out.construction.fault_generation, 2, "gauge keeps max");
    }

    #[test]
    fn backwards_counter_saturates_to_zero_delta() {
        // A cache flush resets the builder-side report; the published
        // totals must stay monotone.
        let a = AtomicReport::default();
        let mut big = MetricsReport::default();
        big.construction.family_bypass_events = 1;
        big.construction.queries = 10;
        a.publish(&big, &MetricsReport::default());
        let mut small = MetricsReport::default();
        small.construction.queries = 2;
        a.publish(&small, &big);
        let mut out = MetricsReport::default();
        a.merge_into(&mut out);
        assert_eq!(out.construction.family_bypass_events, 1);
        assert_eq!(
            out.construction.queries, 10,
            "a regressed counter publishes no delta — totals stay monotone"
        );
    }

    #[test]
    fn merge_into_adds_to_existing() {
        let a = AtomicReport::default();
        let mut cur = MetricsReport::default();
        cur.construction.l2_hits = 2;
        a.publish(&cur, &MetricsReport::default());
        let mut out = MetricsReport::default();
        out.construction.l2_hits = 5;
        a.merge_into(&mut out);
        assert_eq!(out.construction.l2_hits, 7);
    }
}
