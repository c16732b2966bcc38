//! Property tests for the fault-avoiding construction
//! (`disjoint_paths_avoiding`): families must stay internally disjoint,
//! never touch a given fault, degrade gracefully (never panic) as faults
//! exceed the connectivity, match the plain construction exactly when
//! the fault set is empty or misses the family, and be byte-identical
//! with the family cache on or off.

use hhc_core::disjoint::disjoint_paths;
use hhc_core::verify::verify_disjoint_paths;
use hhc_core::{
    disjoint_paths_avoiding, CacheConfig, CrossingOrder, FaultSet, Hhc, HhcError, NodeId, Workspace,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds a valid HHC node from arbitrary bits.
fn node(h: &Hhc, x: u64, y: u64) -> NodeId {
    let xmask = (1u128 << h.positions()) - 1;
    h.node(x as u128 & xmask, (y % h.positions() as u64) as u32)
        .expect("masked into range")
}

/// Draws `f` faulty nodes from arbitrary bits, skipping the endpoints.
fn fault_set(h: &Hhc, raw: &[(u64, u64)], f: usize, u: NodeId, v: NodeId) -> HashSet<NodeId> {
    let mut faults = HashSet::new();
    for &(x, y) in raw {
        if faults.len() == f {
            break;
        }
        let w = node(h, x, y);
        if w != u && w != v {
            faults.insert(w);
        }
    }
    faults
}

/// Full validity check for an avoiding family: endpoints, simplicity,
/// internal disjointness, and fault avoidance.
fn check_family(h: &Hhc, u: NodeId, v: NodeId, paths: &[Vec<NodeId>], faults: &HashSet<NodeId>) {
    verify_disjoint_paths(h, u, v, paths).unwrap_or_else(|e| {
        panic!(
            "m={} {} -> {}: {e}",
            h.m(),
            h.format_node(u),
            h.format_node(v)
        )
    });
    for (i, p) in paths.iter().enumerate() {
        for w in p {
            assert!(
                !faults.contains(w),
                "path {i} visits faulty node {}",
                h.format_node(*w)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f ≤ m - 1 faults (the paper's fault-tolerance regime): the family
    /// must be valid, fault-free, and at least (m + 1) - f paths strong —
    /// the survivor fallback alone guarantees that floor, and the case-B
    /// rebuild usually recovers all m + 1.
    #[test]
    fn small_fault_sets_leave_strong_families(
        m in 2u32..=3,
        uv in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        fraw in proptest::collection::vec((any::<u64>(), any::<u64>()), 8),
        f in 0usize..=2,
    ) {
        let h = Hhc::new(m).unwrap();
        let (u, v) = (node(&h, uv.0, uv.1), node(&h, uv.2, uv.3));
        prop_assume!(u != v);
        let f = f.min(m as usize - 1);
        let faults = fault_set(&h, &fraw, f, u, v);

        let (paths, outcome) =
            disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults).unwrap();
        check_family(&h, u, v, &paths, &faults);
        prop_assert_eq!(outcome.paths, paths.len());
        prop_assert!(
            paths.len() >= (m as usize + 1) - faults.len(),
            "{} paths with {} faults (floor {})",
            paths.len(), faults.len(), (m as usize + 1) - faults.len()
        );
        if !outcome.rerouted {
            prop_assert_eq!(&paths, &disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap());
        }
    }

    /// Empty fault set: byte-identical to the plain construction, both
    /// through an empty `FaultSet` and through an empty `HashSet`.
    #[test]
    fn empty_faults_equals_plain(
        m in 1u32..=3,
        uv in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        gray in any::<bool>(),
    ) {
        let h = Hhc::new(m).unwrap();
        let (u, v) = (node(&h, uv.0, uv.1), node(&h, uv.2, uv.3));
        prop_assume!(u != v);
        let order = if gray { CrossingOrder::Gray } else { CrossingOrder::Sorted };
        let plain = disjoint_paths(&h, u, v, order).unwrap();
        let (a, oa) = disjoint_paths_avoiding(&h, u, v, order, &FaultSet::default()).unwrap();
        let (b, ob) = disjoint_paths_avoiding(&h, u, v, order, &HashSet::new()).unwrap();
        prop_assert_eq!(&a, &plain);
        prop_assert_eq!(&b, &plain);
        prop_assert!(!oa.rerouted && !ob.rerouted);
        prop_assert_eq!(oa.paths, plain.len());
    }

    /// f ≥ m faults (beyond the guaranteed regime): construction must
    /// still return Ok with a valid — possibly empty — fault-free
    /// family, never panic.
    #[test]
    fn heavy_fault_sets_degrade_gracefully(
        m in 2u32..=3,
        uv in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        fraw in proptest::collection::vec((any::<u64>(), any::<u64>()), 24),
        extra in 0usize..=8,
    ) {
        let h = Hhc::new(m).unwrap();
        let (u, v) = (node(&h, uv.0, uv.1), node(&h, uv.2, uv.3));
        prop_assume!(u != v);
        let faults = fault_set(&h, &fraw, m as usize + extra, u, v);

        let (paths, outcome) =
            disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults).unwrap();
        check_family(&h, u, v, &paths, &faults);
        prop_assert_eq!(outcome.paths, paths.len());
    }

    /// Cache-on ≡ cache-off, with faults active: warm workspaces with
    /// enabled, disabled and thrashing cache configurations must emit
    /// byte-identical families over a repeated pair/fault sequence.
    #[test]
    fn cache_on_equals_cache_off_with_faults(
        m in 2u32..=3,
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 2..6),
        fraw in proptest::collection::vec((any::<u64>(), any::<u64>()), 8),
        f in 1usize..=2,
        reps in 2usize..4,
    ) {
        let h = Hhc::new(m).unwrap();
        let pool: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!pool.is_empty());

        let configs = [
            CacheConfig::disabled(),
            CacheConfig::enabled(),
            CacheConfig { family_capacity: 2 },
        ];
        let mut workspaces: Vec<Workspace> =
            configs.iter().map(|&c| Workspace::with_caches(c)).collect();
        for rep in 0..reps {
            for (i, &(u, v)) in pool.iter().enumerate() {
                let faults = fault_set(&h, &fraw, f.min(m as usize - 1), u, v);
                let (fresh, _) =
                    disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults).unwrap();
                for (w, ws) in workspaces.iter_mut().enumerate() {
                    let (_, set) = ws
                        .construct_avoiding(&h, u, v, CrossingOrder::Gray, &faults)
                        .unwrap();
                    prop_assert_eq!(
                        &set.to_paths(), &fresh,
                        "config {} differs from fresh on rep {} pair {}", w, rep, i
                    );
                }
            }
        }
    }
}

#[test]
fn faulty_endpoint_is_an_error() {
    let h = Hhc::new(2).unwrap();
    let u = h.node(0b0000, 0b00).unwrap();
    let v = h.node(0b1010, 0b11).unwrap();
    let faults: HashSet<NodeId> = [u].into_iter().collect();
    assert_eq!(
        disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults),
        Err(HhcError::FaultyEndpoint(u))
    );
    let faults: HashSet<NodeId> = [v].into_iter().collect();
    assert_eq!(
        disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults),
        Err(HhcError::FaultyEndpoint(v))
    );
    assert_eq!(
        disjoint_paths_avoiding(&h, u, u, CrossingOrder::Gray, &FaultSet::default()),
        Err(HhcError::EqualNodes)
    );
}

/// Adversarial single fault on a cross-cube family: the rebuild must
/// recover a family at least as large as the survivor fallback, the
/// reroute metric must tick, and repeated queries through one workspace
/// must be deterministic.
#[test]
fn adversarial_fault_triggers_reroute_and_recovers() {
    let h = Hhc::new(3).unwrap();
    let u = h.node(0x00, 0b000).unwrap();
    let v = h.node(0xA5, 0b110).unwrap();
    let plain = disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
    let mut ws = Workspace::new();
    for path in &plain {
        // One fault on each plain path's interior in turn.
        let fault = path[path.len() / 2];
        if fault == u || fault == v {
            continue;
        }
        let faults: HashSet<NodeId> = [fault].into_iter().collect();
        let before = ws.builder.metrics().construction.fault_reroutes;
        let (outcome, set) = ws
            .construct_avoiding(&h, u, v, CrossingOrder::Gray, &faults)
            .unwrap();
        let got = set.to_paths();
        assert!(outcome.rerouted, "family through {fault:?} must reroute");
        assert_eq!(ws.builder.metrics().construction.fault_reroutes, before + 1);
        // One fault can block at most one plain path, so the survivor
        // floor is m; the rebuild may recover all m + 1.
        assert!(got.len() >= h.m() as usize, "{} paths", got.len());
        check_family(&h, u, v, &got, &faults);
        // Determinism: a second identical query returns identical bytes.
        let (_, set2) = ws
            .construct_avoiding(&h, u, v, CrossingOrder::Gray, &faults)
            .unwrap();
        assert_eq!(set2.to_paths(), got);
    }
}

/// Exhaustive m = 2: every ordered pair, every single interior fault on
/// the plain family — the avoiding family must always be valid and
/// fault-free with at least m paths.
#[test]
fn exhaustive_m2_single_faults() {
    let h = Hhc::new(2).unwrap();
    for u in h.iter_nodes() {
        for v in h.iter_nodes() {
            if u == v {
                continue;
            }
            let plain = disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
            for path in &plain {
                if path.len() < 3 {
                    continue;
                }
                let fault = path[1];
                let faults: HashSet<NodeId> = [fault].into_iter().collect();
                let (got, outcome) =
                    disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults).unwrap();
                assert!(outcome.rerouted);
                assert!(
                    got.len() >= h.m() as usize,
                    "{} -> {} fault {}: {} paths",
                    h.format_node(u),
                    h.format_node(v),
                    h.format_node(fault),
                    got.len()
                );
                check_family(&h, u, v, &got, &faults);
            }
        }
    }
}
