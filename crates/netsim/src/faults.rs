//! The simulator's fault model: the fault set and timed fault events.
//!
//! The injection loop and every [`Strategy`](crate::Strategy) consult
//! the fault set per packet, and per *node* of every candidate path.
//! Fault sets are tiny (`|F| ≤ m` in the guarantee's regime,
//! occasionally a few dozen), so [`hhc_core::FaultSet`], a sorted
//! vector probed by binary search, serves: the router keeps its live set
//! in one too. It is re-exported here as [`FaultSet`]. The public APIs
//! take any [`hhc_core::FaultOracle`] (a `HashSet<NodeId>` works
//! unchanged); [`Simulator`](crate::Simulator) converts its set into a
//! [`FaultSet`] once per run, dropping addresses outside the network,
//! and applies each [`FaultEvent`] to it.
//!
//! ```
//! use hhc_core::{FaultOracle, NodeId};
//! use netsim::FaultSet;
//!
//! let set = FaultSet::new(vec![5u128, 5, 9].into_iter().map(NodeId::from_raw).collect());
//! assert_eq!(set.fault_count(), 2); // deduplicated
//! assert!(set.is_faulty(NodeId::from_raw(9)));
//! assert!(!set.is_faulty(NodeId::from_raw(4)));
//! ```

pub use hhc_core::FaultSet;
use hhc_core::NodeId;

/// What a timed [`FaultEvent`] does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The node becomes faulty.
    Fail,
    /// The node becomes healthy again.
    Recover,
}

/// A scheduled change to the fault set, applied by the engine at the
/// *start* of `cycle`, before that cycle's injection phase. Faults act
/// at injection time only: a faulty node injects nothing, is never
/// selected as a destination, and is avoided by fault-aware strategies —
/// but packets already in flight are not rerouted or dropped
/// (the "fail-at-injection" model; see `DESIGN.md` §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at whose start the change takes effect.
    pub cycle: u64,
    /// The node changing state.
    pub node: NodeId,
    /// Fail or recover.
    pub action: FaultAction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::disjoint::disjoint_paths;
    use hhc_core::{
        disjoint_paths_avoiding, disjoint_paths_avoiding_into, CrossingOrder, FaultOracle, Hhc,
        PathBuilder, PathSet,
    };
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn n(raw: u128) -> NodeId {
        NodeId::from_raw(raw)
    }

    /// `list_faults` appends exactly the nodes of `0..domain` that
    /// `is_faulty` accepts — nothing outside it — and `fault_count` of
    /// them.
    fn assert_lists_what_it_reports(name: &str, oracle: &dyn FaultOracle, domain: u128) {
        let mut listed = Vec::new();
        oracle.list_faults(&mut listed);
        listed.sort_unstable();
        let accepted: Vec<NodeId> = (0..domain)
            .map(n)
            .filter(|&v| oracle.is_faulty(v))
            .collect();
        assert_eq!(listed, accepted, "{name}: listed ≠ accepted");
        assert_eq!(oracle.fault_count(), listed.len(), "{name}: count");
    }

    #[test]
    fn every_oracle_lists_exactly_what_it_reports() {
        let hs: HashSet<NodeId> = [3u128, 17, 63, 200].map(n).into_iter().collect();
        assert_lists_what_it_reports("HashSet", &hs, 256);
        assert_lists_what_it_reports("&HashSet", &&hs, 256);
        assert_lists_what_it_reports("empty HashSet", &HashSet::new(), 256);
        assert_lists_what_it_reports("empty FaultSet", &FaultSet::default(), 256);

        // Churn, as the simulator's fault events apply it: fail, heal,
        // re-fail and no-op repeats, checked after every step.
        let mut fs = FaultSet::from_set(&hs);
        assert_lists_what_it_reports("FaultSet", &fs, 256);
        for (raw, faulty) in [
            (5u128, true),
            (3, false),
            (100, true),
            (40, true),
            (5, false),
            (5, true),
            (40, true),
            (17, false),
            (63, false),
            (200, false),
            (0, true),
        ] {
            if faulty {
                fs.insert(n(raw));
            } else {
                fs.remove(n(raw));
            }
            assert_lists_what_it_reports("FaultSet after churn", &fs, 256);
        }
        let mut listed = Vec::new();
        fs.list_faults(&mut listed);
        assert_eq!(listed, [n(0), n(5), n(40), n(100)], "sorted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fault-avoiding construction answers byte-identically
        /// through every fault-set type, and runs the exact scan exactly
        /// when some fault's cube offset lies within the plain family's
        /// span. Faults are drawn either at random — on HHC(3) many
        /// settle at the span test — or from the plain family's
        /// interior, which always reaches the exact scan; f runs from 0
        /// past the m + 1 the construction can absorb.
        #[test]
        fn avoiding_families_agree_across_fault_set_types(
            m in 2u32..=3,
            uv in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            fraw in proptest::collection::vec((any::<u64>(), any::<u64>()), 8),
            f in 0usize..=5,
            from_family in any::<bool>(),
        ) {
            let h = Hhc::new(m).unwrap();
            let xmask = (1u128 << h.positions()) - 1;
            let node = |x: u64, y: u64| {
                h.node(x as u128 & xmask, (y % (1 << m)) as u32).unwrap()
            };
            let (u, v) = (node(uv.0, uv.1), node(uv.2, uv.3));
            prop_assume!(u != v);
            let order = CrossingOrder::Gray;
            let plain = disjoint_paths(&h, u, v, order).unwrap();
            let interior: Vec<NodeId> = plain
                .iter()
                .flat_map(|p| p[1..p.len() - 1].iter().copied())
                .collect();
            let mut hs = HashSet::new();
            for &(x, y) in &fraw {
                if hs.len() == f {
                    break;
                }
                let w = if from_family {
                    interior[x as usize % interior.len()]
                } else {
                    node(x, y)
                };
                if w != u && w != v {
                    hs.insert(w);
                }
            }
            let fs = FaultSet::from_set(&hs);

            let want = disjoint_paths_avoiding(&h, u, v, order, &hs).unwrap();
            prop_assert_eq!(disjoint_paths_avoiding(&h, u, v, order, &fs).unwrap(), want.clone());

            let xu = h.cube_field(u);
            let span = plain
                .iter()
                .flatten()
                .fold(0u128, |acc, &w| acc | (h.cube_field(w) ^ xu));
            let exposed = hs.iter().any(|&w| (h.cube_field(w) ^ xu) & !span == 0);
            prop_assert!(!from_family || hs.is_empty() || exposed);
            for oracle in [&hs as &dyn FaultOracle, &fs] {
                let mut builder = PathBuilder::new();
                let mut out = PathSet::new();
                let outcome =
                    disjoint_paths_avoiding_into(&h, u, v, order, oracle, &mut out, &mut builder)
                        .unwrap();
                prop_assert_eq!((out.to_paths(), outcome), want.clone());
                let c = builder.metrics().construction;
                prop_assert_eq!(c.fault_scans, exposed as u64);
                prop_assert!(c.fault_reroutes <= c.fault_scans);
            }
        }
    }
}
