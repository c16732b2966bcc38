//! Fault-set representations for the routing hot path.
//!
//! The injection loop and every [`Strategy`](crate::Strategy) consult
//! the fault set per packet — and per *node* of every candidate path.
//! `HashSet<NodeId>` pays a 16-byte hash per probe; the fault sets the
//! experiments use are tiny (`|F| ≤ m`, occasionally a few dozen), so a
//! sorted slice probed by binary search is cheaper, cache-resident and
//! allocation-free after construction. That type is
//! [`hhc_core::FaultSet`], re-exported here as [`FaultSet`]: the router
//! keeps its live set in one too. [`FaultLookup`] abstracts over every
//! representation: the public APIs keep accepting `HashSet<NodeId>`
//! unchanged, while [`Simulator`](crate::Simulator) converts its set
//! into a [`FaultSet`] once per run, or into the dense [`FaultFlags`]
//! on the flat core.
//!
//! ```
//! use hhc_core::NodeId;
//! use netsim::{FaultLookup, FaultSet};
//!
//! let set = FaultSet::new(vec![5u128, 5, 9].into_iter().map(NodeId::from_raw).collect());
//! assert_eq!(set.fault_count(), 2); // deduplicated
//! assert!(set.is_faulty(NodeId::from_raw(9)));
//! assert!(!set.is_faulty(NodeId::from_raw(4)));
//! ```

pub use hhc_core::FaultSet;
use hhc_core::NodeId;
use std::collections::HashSet;

/// Membership oracle for faulty nodes — the construction-layer
/// [`hhc_core::FaultOracle`] re-exported under the simulator's
/// historical name. One trait serves both layers: `HashSet<NodeId>`
/// (the ergonomic builder representation) and [`FaultSet`] (the sorted
/// hot-path representation), both implemented in `hhc-core`, and
/// [`FaultFlags`] (the dense one, implemented here) all plug directly
/// into both the selection strategies and the fault-avoiding
/// construction.
pub use hhc_core::FaultOracle as FaultLookup;

/// Dense per-node fault flags for materialised networks: one `bool` per
/// address, probed by direct indexing. The flat simulation core iterates
/// every node each cycle and probes the fault set per packet, so on the
/// ≤ 2^16-node networks it accepts a dense table beats both the hash set
/// and the binary search. Nodes outside the table (never issued by the
/// simulator) read as healthy. A sorted side list of the flagged nodes,
/// kept by [`from_set`](Self::from_set) and [`set`](Self::set), answers
/// [`FaultLookup::list_faults`] without a scan of the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultFlags {
    flags: Vec<bool>,
    listed: FaultSet,
}

impl FaultFlags {
    /// Builds the table from the builder representation, for a network
    /// of `num_nodes` addresses (raw ids `0..num_nodes`).
    pub fn from_set(set: &HashSet<NodeId>, num_nodes: usize) -> Self {
        let mut flags = vec![false; num_nodes];
        let mut listed = Vec::with_capacity(set.len());
        for &v in set {
            if let Some(slot) = index_of(v).and_then(|i| flags.get_mut(i)) {
                *slot = true;
                listed.push(v);
            }
        }
        FaultFlags {
            flags,
            listed: FaultSet::new(listed),
        }
    }

    /// Number of faulty nodes inside the table.
    pub fn len(&self) -> usize {
        self.listed.len()
    }

    /// Sets the fault flag of `node`, returning whether the flag
    /// changed. Nodes outside the table are ignored (they read as
    /// healthy and stay that way).
    pub fn set(&mut self, node: NodeId, faulty: bool) -> bool {
        let Some(slot) = index_of(node).and_then(|i| self.flags.get_mut(i)) else {
            return false;
        };
        if *slot == faulty {
            return false;
        }
        *slot = faulty;
        if faulty {
            self.listed.insert(node);
        } else {
            self.listed.remove(node);
        }
        true
    }

    /// Whether no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.listed.is_empty()
    }
}

/// `v`'s index in a [`FaultFlags`] table, unless its address does not
/// fit a `usize` (then it lies outside every table; a truncating cast
/// would alias it onto an in-table node).
fn index_of(v: NodeId) -> Option<usize> {
    usize::try_from(v.raw()).ok()
}

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

impl FaultLookup for FaultFlags {
    #[inline]
    fn is_faulty(&self, v: NodeId) -> bool {
        index_of(v).and_then(|i| self.flags.get(i).copied()) == Some(true)
    }

    fn fault_count(&self) -> usize {
        self.listed.len()
    }

    fn list_faults(&self, out: &mut Vec<NodeId>) {
        self.listed.list_faults(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::disjoint::disjoint_paths;
    use hhc_core::{
        disjoint_paths_avoiding, disjoint_paths_avoiding_into, CrossingOrder, Hhc, NoFaults,
        PathBuilder, PathSet,
    };
    use proptest::prelude::*;

    fn n(raw: u128) -> NodeId {
        NodeId::from_raw(raw)
    }

    /// `list_faults` appends exactly the nodes of `0..domain` that
    /// `is_faulty` accepts — nothing outside it — and `fault_count` of
    /// them.
    fn assert_lists_what_it_reports(name: &str, oracle: &dyn FaultLookup, domain: u128) {
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
        let huge = n(1u128 << 64 | 5); // would alias node 5 under `as usize`
        let hs: HashSet<NodeId> = [3u128, 17, 63, 200].map(n).into_iter().collect();
        assert_lists_what_it_reports("HashSet", &hs, 256);
        assert_lists_what_it_reports("&HashSet", &&hs, 256);
        assert_lists_what_it_reports("FaultSet", &FaultSet::from_set(&hs), 256);
        assert_lists_what_it_reports("NoFaults", &NoFaults, 256);
        assert_lists_what_it_reports("empty HashSet", &HashSet::new(), 256);
        assert_lists_what_it_reports("empty FaultSet", &FaultSet::default(), 256);
        assert_lists_what_it_reports("empty FaultFlags", &FaultFlags::default(), 256);

        // 200 lies outside a 64-address table: neither flagged nor listed.
        let mut ff = FaultFlags::from_set(&hs, 64);
        assert_eq!(ff.len(), 3);
        assert_lists_what_it_reports("FaultFlags", &ff, 256);
        let mut with_huge = hs.clone();
        with_huge.insert(huge);
        assert_eq!(FaultFlags::from_set(&with_huge, 64), ff);
        assert!(!ff.set(huge, true));
        assert!(!ff.is_faulty(huge) && !ff.is_faulty(n(5)));
        // Churn: fail, heal, re-fail, no-op repeats and out-of-table
        // requests, checked after every step.
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
            (0, true),
        ] {
            ff.set(n(raw), faulty);
            assert_lists_what_it_reports("FaultFlags after churn", &ff, 256);
        }
        let mut listed = Vec::new();
        ff.list_faults(&mut listed);
        assert_eq!(listed, [n(0), n(5), n(40)], "sorted side list");
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
            let ff = FaultFlags::from_set(&hs, h.num_nodes() as usize);

            let want = disjoint_paths_avoiding(&h, u, v, order, &hs).unwrap();
            prop_assert_eq!(disjoint_paths_avoiding(&h, u, v, order, &fs).unwrap(), want.clone());
            prop_assert_eq!(disjoint_paths_avoiding(&h, u, v, order, &ff).unwrap(), want.clone());

            let xu = h.cube_field(u);
            let span = plain
                .iter()
                .flatten()
                .fold(0u128, |acc, &w| acc | (h.cube_field(w) ^ xu));
            let exposed = hs.iter().any(|&w| (h.cube_field(w) ^ xu) & !span == 0);
            prop_assert!(!from_family || hs.is_empty() || exposed);
            for oracle in [&hs as &dyn FaultLookup, &fs, &ff] {
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

    #[test]
    fn flags_agree_with_hashset_membership() {
        let hs: HashSet<NodeId> = [3u128, 17, 63, 63, 200].map(n).into_iter().collect();
        let ff = FaultFlags::from_set(&hs, 64); // 200 outside the table
        assert_eq!(ff.len(), 3);
        assert!(!ff.is_empty());
        for probe in 0..64u128 {
            assert_eq!(ff.is_faulty(n(probe)), hs.is_faulty(n(probe)));
        }
        // Out-of-table probes read healthy rather than panicking.
        assert!(!ff.is_faulty(n(200)));
        assert!(FaultFlags::default().is_empty());
    }

    #[test]
    fn flags_set_tracks_count_and_ignores_out_of_table() {
        let mut ff = FaultFlags::from_set(&HashSet::new(), 8);
        assert!(ff.is_empty());
        assert!(ff.set(n(3), true));
        assert!(!ff.set(n(3), true), "no-op re-fail");
        assert!(ff.set(n(5), true));
        assert_eq!(ff.len(), 2);
        assert!(ff.is_faulty(n(3)) && ff.is_faulty(n(5)));
        assert!(ff.set(n(3), false));
        assert!(!ff.set(n(3), false), "no-op re-recover");
        assert_eq!(ff.len(), 1);
        assert!(!ff.is_faulty(n(3)));
        // Out-of-table nodes never mutate the table.
        assert!(!ff.set(n(100), true));
        assert_eq!(ff.len(), 1);
        assert!(!ff.is_faulty(n(100)));
    }
}
