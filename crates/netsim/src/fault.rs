//! Static (queue-free) fault-tolerance analysis — experiment F3.
//!
//! For a pair `(u, v)` and a fault set `F` (with `u, v ∉ F`), given as
//! a `&dyn` [`FaultOracle`]:
//!
//! * **single-path** delivery succeeds iff the deterministic route avoids
//!   `F`;
//! * **multipath** delivery succeeds iff at least one of the `m + 1`
//!   node-disjoint paths avoids `F` — which is *guaranteed* whenever
//!   `|F| ≤ m`, since each fault can block at most one of the internally
//!   disjoint paths;
//! * **ground truth** reachability (any path at all) comes from BFS on
//!   the materialised graph, for calibration on small networks.

use crate::net::{Network, RouteScratch};
use crate::strategy::path_blocked;
use hhc_core::{FaultOracle, NodeId};

/// Outcome of the static delivery analysis for one (pair, fault set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// The single deterministic route avoided all faults.
    pub single_path_ok: bool,
    /// At least one of the `m + 1` disjoint paths avoided all faults.
    pub multipath_ok: bool,
    /// Number of the `m + 1` disjoint paths that avoided all faults.
    pub surviving_paths: u32,
}

/// Runs the static analysis for one pair under one fault set.
///
/// # Panics
/// Panics if `u == v` or either endpoint is faulty (the model protects
/// the communicating pair).
pub fn analyze<N: Network + ?Sized>(
    net: &N,
    u: NodeId,
    v: NodeId,
    faults: &dyn FaultOracle,
) -> DeliveryOutcome {
    analyze_with(net, u, v, faults, &mut RouteScratch::new())
}

/// [`analyze`] with caller-owned route scratch — sweeps over many (pair,
/// fault set) combinations reuse the disjoint-path buffers (experiment
/// F3 issues tens of thousands of these).
///
/// # Panics
///
/// Same contract as [`analyze`]: `u ≠ v` and both endpoints alive.
pub fn analyze_with<N: Network + ?Sized>(
    net: &N,
    u: NodeId,
    v: NodeId,
    faults: &dyn FaultOracle,
    scratch: &mut RouteScratch,
) -> DeliveryOutcome {
    assert_ne!(u, v);
    assert!(
        !faults.is_faulty(u) && !faults.is_faulty(v),
        "endpoints must be alive"
    );
    let single = net.route(u, v);
    let disjoint = net.disjoint_routes_into(u, v, scratch);
    let surviving = disjoint.iter().filter(|p| !path_blocked(p, faults)).count() as u32;
    DeliveryOutcome {
        single_path_ok: !path_blocked(&single, faults),
        multipath_ok: surviving > 0,
        surviving_paths: surviving,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use hhc_core::Hhc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use workloads::random_fault_set;

    #[test]
    fn no_faults_everything_survives() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0001, 0b01).unwrap();
        let v = h.node(0b1110, 0b10).unwrap();
        let out = analyze(&h, u, v, &HashSet::new());
        assert!(out.single_path_ok && out.multipath_ok);
        assert_eq!(out.surviving_paths, h.degree());
    }

    #[test]
    fn multipath_guaranteed_for_up_to_m_faults() {
        // The paper's headline fault-tolerance property, brute-checked
        // over random fault sets on HHC(3).
        let h = Hhc::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let u = h.node(0x12, 0b001).unwrap();
        let v = h.node(0xA0, 0b100).unwrap();
        for f in 0..=h.m() as usize {
            for _ in 0..100 {
                let faults = random_fault_set(&h, f, &[u, v], &mut rng);
                let out = analyze(&h, u, v, &faults);
                assert!(out.multipath_ok, "f={f} disconnected the pair");
                assert!(out.surviving_paths >= h.degree() - f as u32);
            }
        }
    }

    #[test]
    fn each_fault_blocks_at_most_one_path() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0000, 0b00).unwrap();
        let v = h.node(0b0110, 0b01).unwrap();
        let paths = h.disjoint_paths(u, v).unwrap();
        // Fault a single interior node of path 0.
        let faults: HashSet<NodeId> = [paths[0][1]].into_iter().collect();
        let out = analyze(&h, u, v, &faults);
        assert_eq!(out.surviving_paths, h.degree() - 1);
    }

    #[test]
    fn single_path_is_strictly_weaker() {
        // Blocking one node of the deterministic route breaks single-path
        // delivery but never multipath for one fault.
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(0x81, 0b011).unwrap();
        let route = h.route(u, v).unwrap();
        let faults: HashSet<NodeId> = [route[route.len() / 2]].into_iter().collect();
        let out = analyze(&h, u, v, &faults);
        assert!(!out.single_path_ok);
        assert!(out.multipath_ok);
    }

    #[test]
    fn sorted_fault_set_matches_hashset_analysis() {
        // Same outcomes through either fault representation.
        let h = Hhc::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let u = h.node(0x3C, 0b010).unwrap();
        let v = h.node(0xC3, 0b111).unwrap();
        let mut scratch = RouteScratch::new();
        for f in 0..12 {
            let hs = random_fault_set(&h, f, &[u, v], &mut rng);
            let fs = FaultSet::from_set(&hs);
            assert_eq!(
                analyze_with(&h, u, v, &hs, &mut scratch),
                analyze_with(&h, u, v, &fs, &mut scratch),
                "representations diverged at f={f}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alive")]
    fn rejects_faulty_endpoint() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0, 0).unwrap();
        let v = h.node(1, 0).unwrap();
        let faults: HashSet<NodeId> = [u].into_iter().collect();
        analyze(&h, u, v, &faults);
    }
}
