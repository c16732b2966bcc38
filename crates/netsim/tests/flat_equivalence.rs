//! Engine-variant equivalence, replication determinism, and trace/stat
//! agreement.
//!
//! Every engine variant ([`EngineConfig`]: lazy/eager link store ×
//! hybrid/full link fidelity) must produce *byte-identical* [`SimStats`]
//! — not merely statistically close: same RNG draw order, same link
//! service order, same landing order, hence equal counters, histograms
//! and time series. The proptests sweep configurations across
//! strategies, patterns, switching disciplines, packet lengths, finite
//! buffers, faults and sampling; recorded golden pins cover the larger
//! topologies (HHC(3), Q_11) and the order-sensitive deadlock case that
//! the retired legacy-oracle suite used to cross-check live.
//!
//! The only permitted difference between variants is
//! `peak_links_materialised` (the eager store materialises every link up
//! front), masked where the store mode differs.

use hhc_core::{Hhc, NodeId};
use netsim::Strategy as RouteStrategy;
use netsim::{
    CubeNet, EngineConfig, Fidelity, LinkStoreMode, SimConfig, SimStats, Simulator, Switching,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use workloads::Pattern;

fn strategies() -> impl Strategy<Value = RouteStrategy> {
    (0u32..4).prop_map(|i| {
        [
            RouteStrategy::SinglePath,
            RouteStrategy::MultipathRandom,
            RouteStrategy::FaultAdaptive,
            RouteStrategy::Valiant,
        ][i as usize]
    })
}

fn patterns() -> impl Strategy<Value = Pattern> {
    (0u32..4).prop_map(|i| {
        [
            Pattern::UniformRandom,
            Pattern::BitComplement,
            Pattern::Transpose,
            Pattern::Hotspot { hot_fraction: 0.2 },
        ][i as usize]
    })
}

fn configs() -> impl Strategy<Value = SimConfig> {
    (
        10u64..120,
        0u64..300,
        0u64..1_000_000,
        1u64..4,
        // Switching bit, queue capacity (0 = unbounded), sampling bit
        // packed into one draw to stay within the 6-tuple limit.
        (0u64..2, 0u64..4, 0u64..2),
    )
        .prop_map(|(cycles, drain, seed, len, (sw, cap, sample))| SimConfig {
            cycles,
            drain_cycles: drain,
            inject_rate: 0.08,
            seed,
            packet_len: len,
            switching: if sw == 0 {
                Switching::StoreAndForward
            } else {
                Switching::CutThrough
            },
            queue_capacity: (cap > 0).then_some(cap),
            sample_every: sample * 7,
        })
}

fn engine(store: LinkStoreMode, fidelity: Fidelity) -> EngineConfig {
    EngineConfig { store, fidelity }
}

/// Equality modulo the one legitimately store-dependent field.
fn mask_materialised(mut s: SimStats, like: &SimStats) -> SimStats {
    s.peak_links_materialised = like.peak_links_materialised;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hybrid fidelity is byte-exact against full queueing (same store,
    /// so nothing is masked), across faults, finite buffers and
    /// sampling (where hybrid silently falls back to full).
    #[test]
    fn hybrid_equals_full_on_hhc2(
        cfg in configs(),
        strategy in strategies(),
        pattern in patterns(),
        n_faults in 0usize..4,
        fault_seed in 0u64..1000,
    ) {
        let h = Hhc::new(2).unwrap();
        let faults: HashSet<NodeId> = workloads::random_fault_set(
            &h, n_faults, &[], &mut StdRng::seed_from_u64(fault_seed));
        let hybrid = Simulator::new(&h, pattern, strategy)
            .with_faults(faults.clone())
            .with_engine(engine(LinkStoreMode::Lazy, Fidelity::Hybrid))
            .run(cfg);
        let full = Simulator::new(&h, pattern, strategy)
            .with_faults(faults)
            .with_engine(engine(LinkStoreMode::Lazy, Fidelity::Full))
            .run(cfg);
        prop_assert!(hybrid.peak_links_materialised <= hybrid.links_total);
        prop_assert_eq!(hybrid, full);
    }

    /// The lazy link store is byte-exact against the eager dense layout
    /// (same fidelity; only `peak_links_materialised` may differ).
    #[test]
    fn lazy_equals_eager_on_hhc2(
        cfg in configs(),
        strategy in strategies(),
        pattern in patterns(),
        n_faults in 0usize..4,
        fault_seed in 0u64..1000,
    ) {
        let h = Hhc::new(2).unwrap();
        let faults: HashSet<NodeId> = workloads::random_fault_set(
            &h, n_faults, &[], &mut StdRng::seed_from_u64(fault_seed));
        let lazy = Simulator::new(&h, pattern, strategy)
            .with_faults(faults.clone())
            .with_engine(engine(LinkStoreMode::Lazy, Fidelity::Full))
            .run(cfg);
        let eager = Simulator::new(&h, pattern, strategy)
            .with_faults(faults)
            .with_engine(engine(LinkStoreMode::Eager, Fidelity::Full))
            .run(cfg);
        prop_assert!(lazy.peak_links_materialised <= lazy.links_total);
        prop_assert_eq!(eager.peak_links_materialised, eager.links_total);
        prop_assert_eq!(mask_materialised(lazy, &eager), eager);
    }

    /// The default engine (lazy + hybrid) against the reference engine
    /// (eager + full) on the matching cube — both dimensions at once,
    /// on the other network implementation.
    #[test]
    fn default_engine_equals_reference_on_the_cube(
        cfg in configs(),
        strategy in strategies(),
        pattern in patterns(),
    ) {
        let q = CubeNet::matching_hhc(2);
        let fast = Simulator::new(&q, pattern, strategy).run(cfg);
        let reference = Simulator::new(&q, pattern, strategy)
            .with_engine(EngineConfig::reference())
            .run(cfg);
        prop_assert_eq!(mask_materialised(fast, &reference), reference);
    }

    #[test]
    fn run_many_equals_sequential_runs(
        seed in 0u64..1_000_000,
        n_runs in 0usize..5,
        strategy in strategies(),
    ) {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, strategy);
        let cfg = SimConfig {
            cycles: 60,
            drain_cycles: 600,
            inject_rate: 0.05,
            seed,
            ..SimConfig::default()
        };
        let merged = sim.run_many(cfg, n_runs);
        let mut expect = netsim::SimStats::default();
        for i in 0..n_runs as u64 {
            expect.merge(&sim.run(SimConfig { seed: seed.wrapping_add(i), ..cfg }));
        }
        prop_assert_eq!(merged, expect);
    }

    #[test]
    fn traced_stats_equal_untraced_stats(
        cfg in configs(),
        strategy in strategies(),
        pattern in patterns(),
    ) {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, pattern, strategy);
        let (stats, records) = sim.run_traced(cfg);
        prop_assert_eq!(&stats, &sim.run(cfg));
        prop_assert_eq!(records.len() as u64, stats.delivered);
    }
}

/// FNV-1a over the serialised stats: one number pinning every counter,
/// derived rate, histogram bucket and sample.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One golden pin: `(injected, delivered, latency_sum,
/// link_transmissions, fnv64(to_json))`.
type Pin = (u64, u64, u64, u64, u64);

/// One golden pin: the headline counters plus the serialisation hash.
fn pin_of(stats: &SimStats) -> Pin {
    (
        stats.injected,
        stats.delivered,
        stats.latency_sum,
        stats.link_transmissions,
        fnv64(&stats.to_json(0)),
    )
}

/// Checks a recorded pin, or prints the value to record when
/// `RECORD_GOLDENS` is set (run `RECORD_GOLDENS=1 cargo test -p netsim
/// --test flat_equivalence -- --nocapture golden` after any deliberate
/// engine-stream change, then paste the printed tuples).
///
/// The geometric arrival sampler takes `f64::ln`, so pins assume the
/// platform's libm rounding; re-record if a port ever flips a gap.
fn check_pin(name: &str, stats: &SimStats, expect: Pin) {
    let got = pin_of(stats);
    if std::env::var("RECORD_GOLDENS").is_ok() {
        println!("{name}: {got:?}");
        return;
    }
    assert_eq!(got, expect, "{name}: golden SimStats pin diverged");
}

/// The larger topologies the proptest can't afford every case on, pinned
/// with recorded goldens: HHC(3) (2048 nodes) and its matching cube
/// Q_11. Each case additionally cross-checks the default engine against
/// the reference engine live, so the pins guard the *stream* (arrival
/// sampler, service order) while the cross-check guards variant
/// equivalence at a scale the proptests never reach.
#[test]
fn golden_stats_on_hhc3_and_q11() {
    let h = Hhc::new(3).unwrap();
    let cfg = SimConfig {
        cycles: 40,
        drain_cycles: 2000,
        inject_rate: 0.03,
        seed: 0x5EED,
        sample_every: 25,
        ..SimConfig::default()
    };
    let pins: [(RouteStrategy, Pin); 2] = [
        (
            RouteStrategy::SinglePath,
            (2435, 2435, 26093, 25529, 2667493880020430803),
        ),
        (
            RouteStrategy::MultipathRandom,
            (2514, 2514, 31840, 30996, 4436197461108731965),
        ),
    ];
    for (strategy, pin) in pins {
        let sim = Simulator::new(&h, Pattern::UniformRandom, strategy);
        let stats = sim.run(cfg);
        assert!(stats.delivered > 0);
        let reference = Simulator::new(&h, Pattern::UniformRandom, strategy)
            .with_engine(EngineConfig::reference())
            .run(cfg);
        assert_eq!(
            mask_materialised(stats.clone(), &reference),
            reference,
            "HHC(3) engine variants diverged ({strategy:?})"
        );
        check_pin(&format!("hhc3_{strategy:?}"), &stats, pin);
    }

    // Q_11, no sampling: the hybrid fast path stays engaged end-to-end.
    let q = CubeNet::matching_hhc(3);
    let qcfg = SimConfig {
        sample_every: 0,
        ..cfg
    };
    let sim = Simulator::new(&q, Pattern::UniformRandom, RouteStrategy::SinglePath);
    let stats = sim.run(qcfg);
    let reference = Simulator::new(&q, Pattern::UniformRandom, RouteStrategy::SinglePath)
        .with_engine(EngineConfig::reference())
        .run(qcfg);
    assert_eq!(
        mask_materialised(stats.clone(), &reference),
        reference,
        "Q_11 engine variants diverged"
    );
    check_pin(
        "q11_SinglePath",
        &stats,
        (2435, 2435, 13342, 13281, 13258767428450922022),
    );
}

/// Static faults: a seeded initial fault set installed with
/// [`Simulator::with_faults`], pinned for the three strategies that read
/// it at route selection. The set also holds one address outside
/// HHC(3)'s 2^11, which the engine ignores. Each case cross-checks the
/// reference engine live, as the fault-free pins above do.
#[test]
fn golden_static_faults_on_hhc3() {
    let h = Hhc::new(3).unwrap();
    let mut faults = workloads::random_fault_set(&h, 8, &[], &mut StdRng::seed_from_u64(0xFA17));
    faults.insert(NodeId::from_raw(1 << 11 | 5));
    let cfg = SimConfig {
        cycles: 40,
        drain_cycles: 2000,
        inject_rate: 0.03,
        seed: 0x5EED,
        sample_every: 25,
        ..SimConfig::default()
    };
    let pins: [(RouteStrategy, Pin); 3] = [
        (
            RouteStrategy::SinglePath,
            (2323, 2323, 25237, 24703, 14679649289819703055),
        ),
        (
            RouteStrategy::FaultAdaptive,
            (2412, 2412, 30643, 29816, 14073127870874716669),
        ),
        (
            RouteStrategy::FaultFree,
            (2412, 2412, 30686, 29858, 14687655673621057868),
        ),
    ];
    for (strategy, pin) in pins {
        let run = |engine| {
            Simulator::new(&h, Pattern::UniformRandom, strategy)
                .with_faults(faults.clone())
                .with_engine(engine)
                .run(cfg)
        };
        let stats = run(EngineConfig::default());
        assert!(stats.delivered > 0 && stats.dropped_dst_faulty > 0);
        let reference = run(EngineConfig::reference());
        assert_eq!(
            mask_materialised(stats.clone(), &reference),
            reference,
            "HHC(3) engine variants diverged under faults ({strategy:?})"
        );
        check_pin(&format!("hhc3_faults_{strategy:?}"), &stats, pin);
    }
}

/// The backpressure deadlock is the most order-sensitive behaviour the
/// engine has (a buffer cycle wedges or not depending on exact service
/// order). The wedge must reproduce, and the lazy store must agree with
/// the eager store byte-for-byte on it (capacity forces full fidelity
/// in both).
#[test]
fn golden_deadlock_under_backpressure() {
    let h = Hhc::new(2).unwrap();
    let cfg = SimConfig {
        cycles: 300,
        drain_cycles: 4000,
        inject_rate: 0.4,
        seed: 1212,
        queue_capacity: Some(1),
        ..SimConfig::default()
    };
    let stats = Simulator::new(&h, Pattern::BitComplement, RouteStrategy::SinglePath).run(cfg);
    assert!(
        stats.in_flight_at_end > 0,
        "expected the wedged buffer cycle"
    );
    let eager = Simulator::new(&h, Pattern::BitComplement, RouteStrategy::SinglePath)
        .with_engine(EngineConfig::reference())
        .run(cfg);
    assert_eq!(mask_materialised(stats.clone(), &eager), eager);
    check_pin("deadlock", &stats, (146, 18, 233, 406, 3134578593660008937));
}

/// The lazy store must allocate queue state for exactly the links the
/// run's traffic crossed — counted against the union of delivered
/// routes' directed links after a fully drained multi-flow run.
#[test]
fn lazy_store_materialises_exactly_the_traversed_links() {
    let h = Hhc::new(2).unwrap();
    let sim = Simulator::new(&h, Pattern::UniformRandom, RouteStrategy::SinglePath);
    let cfg = SimConfig {
        cycles: 3,
        drain_cycles: 2000,
        inject_rate: 0.05,
        seed: 42,
        ..SimConfig::default()
    };
    let (stats, records) = sim.run_traced(cfg);
    assert_eq!(stats.delivered, stats.injected, "must drain completely");
    assert!(stats.delivered >= 2, "need at least two flows");
    let mut traversed: HashSet<(u128, u128)> = HashSet::new();
    for r in &records {
        for w in r.route.windows(2) {
            traversed.insert((w[0].raw(), w[1].raw()));
        }
    }
    assert_eq!(
        stats.peak_links_materialised,
        traversed.len() as u64,
        "lazy store materialised links no packet crossed"
    );
    assert!(stats.peak_links_materialised > 0);
    assert!(
        stats.peak_links_materialised < stats.links_total,
        "a light run must not touch every link"
    );
}

/// run_many must not depend on the rayon worker count.
#[test]
fn run_many_is_thread_count_invariant() {
    let h = Hhc::new(2).unwrap();
    let sim = Simulator::new(&h, Pattern::UniformRandom, RouteStrategy::MultipathRandom);
    let cfg = SimConfig {
        cycles: 50,
        drain_cycles: 500,
        inject_rate: 0.05,
        seed: 9,
        ..SimConfig::default()
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = sim.run_many(cfg, 6);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = sim.run_many(cfg, 6);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(one, four);
}
