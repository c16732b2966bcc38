//! The slotted simulation engine.
//!
//! Each cycle has two phases:
//!
//! 1. **injection** — every alive node draws its Bernoulli arrival; on a
//!    hit, the traffic pattern picks a destination and the strategy a
//!    route. Unroutable packets are dropped (counted), self-addressed
//!    attempts suppressed.
//! 2. **transmission** — every directed link dequeues at most one packet
//!    and hands it to the next node on its route (arriving packets join
//!    the next link's queue *after* this phase, so a packet moves at most
//!    one hop per cycle).
//!
//! The engine is fully deterministic under (`SimConfig::seed`, topology,
//! pattern, strategy).
//!
//! [`Simulator::run`] executes the **flat core** ([`crate::flat`]):
//! u32 link ids over a CSR link table, link-queue state materialised
//! lazily on first use, interned routes in a sharded arena, a
//! skip-sampled arrival stream, and a timing-wheel event calendar. Per
//! cycle, cost is proportional to *traffic* (active links and landing
//! packets), not to topology size; together with the engine's hybrid
//! link fidelity ([`crate::flat::Fidelity`]) this lets HHC(4) — 2^20
//! nodes — run packet-level end-to-end. All engine variants
//! ([`crate::flat::EngineConfig`]) are byte-identical in their
//! [`SimStats`]: same RNG draw order, same link service order, same
//! landing order. [`Simulator::run_many`] fans independent seeded
//! replications across rayon workers and merges their statistics.

use crate::faults::FaultEvent;
use crate::flat::EngineConfig;
use crate::net::Network;
use crate::stats::SimStats;
use crate::strategy::Strategy;
use hhc_core::{CacheConfig, NodeId};
use rayon::prelude::*;
use std::collections::HashSet;
use workloads::Pattern;

/// Largest network (in address bits) the engine accepts. 20 bits admits
/// HHC(4) (2^20 ≈ 1M nodes) and its matching cube Q_20. The bound is
/// set by the dense per-node structures that remain after the lazy link
/// store: the CSR link-table offsets, the fault-flag table, and the
/// pattern/arrival index space — all linear in node count, ~10 bytes per
/// node at 20 bits. Raising it further is a memory budget question, not
/// an algorithmic one.
pub(crate) const MAX_ADDRESS_BITS: u32 = 20;

/// Switching discipline: how a multi-flit packet crosses a link chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Switching {
    /// The whole packet is received before being forwarded: per-hop time
    /// is the full packet length, end-to-end ≈ `hops × len`.
    #[default]
    StoreAndForward,
    /// Virtual cut-through: the header advances one hop per cycle while
    /// the tail streams behind; a link is still occupied for `len` cycles
    /// per packet. Uncontended end-to-end ≈ `hops + len − 1`.
    CutThrough,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cycles to simulate (injection active the whole time).
    pub cycles: u64,
    /// Extra cycles after `cycles` with injection off, letting queues
    /// drain (0 = report in-flight as backlog).
    pub drain_cycles: u64,
    /// Offered load: injection probability per node per cycle.
    pub inject_rate: f64,
    /// RNG seed (arrivals, pattern, strategy tie-breaks).
    pub seed: u64,
    /// Packet length in flit-cycles: the time a link is occupied per
    /// packet (serialisation). 1 = the classic unit-latency slotted model.
    pub packet_len: u64,
    /// Switching discipline (see [`Switching`]).
    pub switching: Switching,
    /// Per-link queue capacity (packets). `None` = unbounded (the
    /// default, classic open-loop model). With a bound, a link starts a
    /// transmission only when the packet's *next* queue has room
    /// (backpressure); injection into a full first queue is dropped and
    /// counted. Capacity is checked at transmission start, so several
    /// same-cycle arrivals may briefly overshoot by the node in-degree.
    ///
    /// **Deadlock**: bounded buffers plus unrestricted routes admit the
    /// classic store-and-forward buffer-cycle deadlock (this simulator
    /// reproduces it — see the backpressure tests). Wedged packets show
    /// up as `in_flight_at_end` after the drain phase; deadlock-free
    /// operation needs either unbounded buffers (virtual cut-through
    /// with escape queues in real hardware) or restricted turn models,
    /// which are out of scope here.
    pub queue_capacity: Option<u64>,
    /// Time-series sampling period in cycles: every `sample_every`-th
    /// cycle (including cycle 0) a [`CycleSample`](crate::stats::CycleSample)
    /// of queue depth and link activity is appended to
    /// [`SimStats::samples`]. 0 (the default) disables sampling — the
    /// run then does no per-cycle scan and allocates nothing.
    pub sample_every: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: 1000,
            drain_cycles: 0,
            inject_rate: 0.05,
            seed: 0xC0FFEE,
            packet_len: 1,
            switching: Switching::StoreAndForward,
            queue_capacity: None,
            sample_every: 0,
        }
    }
}

/// Errors from simulator construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The network exceeds [`Simulator::MAX_ADDRESS_BITS`] address bits
    /// (currently 20, i.e. up to HHC(4)/Q_20 at 2^20 nodes). Even with
    /// the lazy link store the engine keeps a few dense per-node tables
    /// (CSR link offsets, fault flags), so the address space must stay
    /// materialisable.
    NetworkTooLarge {
        /// Address bits of the offending network.
        address_bits: u32,
        /// Largest supported value.
        max_bits: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NetworkTooLarge {
                address_bits,
                max_bits,
            } => write!(
                f,
                "network with {address_bits} address bits too large to simulate \
                 (per-cycle node iteration; max {max_bits} bits)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A simulator instance bound to one network, pattern and strategy.
///
/// # Examples
/// ```
/// use hhc_core::Hhc;
/// use netsim::{SimConfig, Simulator, Strategy};
/// use workloads::Pattern;
///
/// let net = Hhc::new(2).unwrap();
/// let stats = Simulator::new(&net, Pattern::UniformRandom, Strategy::SinglePath)
///     .run(SimConfig { cycles: 100, drain_cycles: 2000, inject_rate: 0.05,
///                      seed: 1, ..SimConfig::default() });
/// assert_eq!(stats.delivered, stats.injected);   // drained completely
/// ```
pub struct Simulator<'a, N: Network + ?Sized> {
    net: &'a N,
    pattern: Pattern,
    strategy: Strategy,
    faults: HashSet<NodeId>,
    fault_events: Vec<FaultEvent>,
    route_cache: CacheConfig,
    engine: EngineConfig,
}

impl<'a, N: Network + ?Sized> Simulator<'a, N> {
    /// Largest network (address bits) the engine accepts — 20, which
    /// admits HHC(4) (2^20 nodes) and Q_20. See
    /// [`SimError::NetworkTooLarge`] for what still scales with nodes.
    pub const MAX_ADDRESS_BITS: u32 = MAX_ADDRESS_BITS;

    /// Creates a simulator with no faults and the default engine
    /// (lazy link store, hybrid fidelity — see [`EngineConfig`]).
    ///
    /// # Panics
    ///
    /// Panics when the network exceeds [`Simulator::MAX_ADDRESS_BITS`]
    /// (= 20) address bits — the engine keeps dense per-node tables, so
    /// the address space must stay materialisable; use
    /// [`Simulator::try_new`] for a typed error instead.
    pub fn new(net: &'a N, pattern: Pattern, strategy: Strategy) -> Self {
        Self::try_new(net, pattern, strategy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Simulator::new`]: rejects networks past the
    /// 20-bit address bound with [`SimError::NetworkTooLarge`].
    pub fn try_new(net: &'a N, pattern: Pattern, strategy: Strategy) -> Result<Self, SimError> {
        if net.address_bits() > Self::MAX_ADDRESS_BITS {
            return Err(SimError::NetworkTooLarge {
                address_bits: net.address_bits(),
                max_bits: Self::MAX_ADDRESS_BITS,
            });
        }
        Ok(Simulator {
            net,
            pattern,
            strategy,
            faults: HashSet::new(),
            fault_events: Vec::new(),
            route_cache: CacheConfig::default(),
            engine: EngineConfig::default(),
        })
    }

    /// Selects the engine variant (link-store mode × link fidelity).
    /// Every variant produces byte-identical [`SimStats`]; the choice
    /// only affects memory and speed. The default (lazy + hybrid) is
    /// right for everything except microbenchmark baselines.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a fault set (faulty nodes inject nothing, carry nothing,
    /// and are never selected as destinations).
    pub fn with_faults(mut self, faults: HashSet<NodeId>) -> Self {
        self.faults = faults;
        self
    }

    /// Installs a timeline of runtime fault events ([`FaultEvent`]):
    /// fail/recover changes applied at the start of their cycle, before
    /// injection. Events may be given in any order (the engine sorts by
    /// cycle, same-cycle events applying in list order).
    ///
    /// Semantics ("fail-at-injection"): a currently-faulty node injects
    /// nothing, is never chosen as a destination, and is avoided by
    /// fault-aware strategies at route-selection time — but packets
    /// already in flight are neither rerouted nor dropped. With a
    /// non-empty timeline the injection index space covers all
    /// addresses (not just initially-healthy ones), so the arrival
    /// stream differs from the no-events run even before the first
    /// event fires; an *empty* timeline is byte-identical to not
    /// calling this at all.
    pub fn with_fault_events(mut self, events: Vec<FaultEvent>) -> Self {
        self.fault_events = events;
        self
    }

    /// Configures the family cache of the run's route-construction
    /// scratch (on by default). The cache memoises exact
    /// translation-canonical families, so routes are byte-identical in
    /// every configuration — only the construction cost changes. Pass
    /// [`CacheConfig::disabled`] for the uncached reference behaviour.
    pub fn with_route_cache(mut self, cfg: CacheConfig) -> Self {
        self.route_cache = cfg;
        self
    }

    /// Runs the simulation on the flat core and returns the collected
    /// statistics.
    pub fn run(&self, cfg: SimConfig) -> SimStats {
        crate::flat::run_flat(
            self.net,
            self.pattern,
            self.strategy,
            &self.faults,
            &self.fault_events,
            self.route_cache,
            cfg,
            self.engine,
            None,
        )
    }

    /// Like [`Simulator::run`], but also returns one [`DeliveryRecord`]
    /// per delivered packet (in delivery order) for offline analysis.
    /// Runs the *same* flat core as `run` — tracing only collects
    /// records, so the returned statistics are identical to `run`'s.
    pub fn run_traced(&self, cfg: SimConfig) -> (SimStats, Vec<DeliveryRecord>) {
        let mut records = Vec::new();
        let stats = crate::flat::run_flat(
            self.net,
            self.pattern,
            self.strategy,
            &self.faults,
            &self.fault_events,
            self.route_cache,
            cfg,
            self.engine,
            Some(&mut records),
        );
        (stats, records)
    }

    /// Runs `n_runs` independent replications of `cfg` — run `i` uses
    /// seed `cfg.seed.wrapping_add(i)` — fanned across rayon workers,
    /// and merges their statistics with [`SimStats::merge`] in seed
    /// order. The result is deterministic and independent of the worker
    /// count: it equals `n_runs` sequential [`Simulator::run`] calls
    /// folded in the same order. Zero replications yield
    /// `SimStats::default()`.
    pub fn run_many(&self, cfg: SimConfig, n_runs: usize) -> SimStats
    where
        N: Sync,
    {
        let seeds: Vec<u64> = (0..n_runs as u64)
            .map(|i| cfg.seed.wrapping_add(i))
            .collect();
        let runs: Vec<SimStats> = seeds
            .par_iter()
            .map(|&seed| self.run(SimConfig { seed, ..cfg }))
            .collect();
        let mut merged = SimStats::default();
        for s in &runs {
            merged.merge(s);
        }
        merged
    }
}

/// Per-packet trace of a completed delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Packet id (injection order).
    pub id: u64,
    /// Injection cycle.
    pub injected_at: u64,
    /// Cycle the final hop completed.
    pub delivered_at: u64,
    /// The full route taken.
    pub route: Vec<NodeId>,
}

impl DeliveryRecord {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }

    /// Cycles spent waiting in queues (latency minus pure hop time).
    pub fn queueing_delay(&self) -> u64 {
        self.latency() - (self.route.len() as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::Hhc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Hhc {
        Hhc::new(2).unwrap()
    }

    #[test]
    fn conservation_of_packets() {
        let h = net();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let stats = sim.run(SimConfig {
            cycles: 200,
            drain_cycles: 0,
            inject_rate: 0.1,
            seed: 1,
            ..SimConfig::default()
        });
        assert!(stats.injected > 0, "nothing injected");
        assert_eq!(
            stats.injected,
            stats.delivered + stats.in_flight_at_end,
            "packet conservation violated"
        );
    }

    #[test]
    fn drain_empties_network_at_low_load() {
        let h = net();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let stats = sim.run(SimConfig {
            cycles: 300,
            drain_cycles: 2000,
            inject_rate: 0.02,
            seed: 2,
            ..SimConfig::default()
        });
        assert_eq!(stats.in_flight_at_end, 0);
        assert_eq!(stats.delivered, stats.injected);
        assert!(stats.mean_latency().unwrap() >= 1.0);
    }

    #[test]
    fn latency_at_least_route_length() {
        // With one packet total, latency equals hop count exactly.
        let h = net();
        let sim = Simulator::new(&h, Pattern::BitComplement, Strategy::SinglePath);
        let stats = sim.run(SimConfig {
            cycles: 1,
            drain_cycles: 100,
            inject_rate: 0.02,
            seed: 3,
            ..SimConfig::default()
        });
        if stats.delivered > 0 {
            assert!(stats.latency_sum >= stats.hops_sum);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let h = net();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::MultipathRandom);
        let cfg = SimConfig {
            cycles: 150,
            drain_cycles: 50,
            inject_rate: 0.08,
            seed: 42,
            ..SimConfig::default()
        };
        assert_eq!(sim.run(cfg), sim.run(cfg));
    }

    #[test]
    fn faulty_nodes_carry_no_traffic() {
        let h = net();
        let faults: HashSet<NodeId> =
            workloads::random_fault_set(&h, 8, &[], &mut StdRng::seed_from_u64(9));
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::FaultAdaptive)
            .with_faults(faults.clone());
        let stats = sim.run(SimConfig {
            cycles: 100,
            drain_cycles: 1000,
            inject_rate: 0.05,
            seed: 5,
            ..SimConfig::default()
        });
        // Everything injected was routed around the faults and delivered.
        assert_eq!(stats.delivered, stats.injected);
        assert!(stats.delivered > 0);
    }

    #[test]
    fn multipath_trades_hops_for_path_diversity() {
        // The m+1 disjoint paths include detours, so multipath's mean hop
        // count strictly exceeds the single Gray route's; the premium is
        // bounded (each detour adds O(m + the Gray-lap slack)), and both
        // strategies deliver everything at moderate load. The fault
        // experiments (fault.rs, experiment F3) show what the premium
        // buys: guaranteed delivery under up to m faults.
        let h = net();
        let cfg = SimConfig {
            cycles: 400,
            drain_cycles: 4000,
            inject_rate: 0.20,
            seed: 7,
            ..SimConfig::default()
        };
        let single = Simulator::new(&h, Pattern::BitComplement, Strategy::SinglePath).run(cfg);
        let multi = Simulator::new(&h, Pattern::BitComplement, Strategy::MultipathRandom).run(cfg);
        assert_eq!(single.delivered, single.injected);
        assert_eq!(multi.delivered, multi.injected);
        let hs = single.mean_hops().unwrap();
        let hm = multi.mean_hops().unwrap();
        assert!(
            hm > hs,
            "disjoint families must average longer than the Gray route"
        );
        assert!(hm < hs * 2.5, "multipath hop premium should stay bounded");
    }

    #[test]
    fn higher_load_does_not_reduce_delivered_count() {
        let h = net();
        let mk = |rate| {
            Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath).run(SimConfig {
                cycles: 200,
                drain_cycles: 0,
                inject_rate: rate,
                seed: 11,
                ..SimConfig::default()
            })
        };
        let lo = mk(0.02);
        let hi = mk(0.10);
        assert!(hi.injected > lo.injected);
        assert!(hi.delivered >= lo.delivered / 2, "sanity: load scales");
    }
}

#[cfg(test)]
mod fault_event_tests {
    use super::*;
    use crate::faults::FaultAction;
    use hhc_core::Hhc;

    fn cfg() -> SimConfig {
        SimConfig {
            cycles: 200,
            drain_cycles: 4000,
            inject_rate: 0.05,
            seed: 404,
            ..SimConfig::default()
        }
    }

    fn fail(cycle: u64, node: u128) -> FaultEvent {
        FaultEvent {
            cycle,
            node: NodeId::from_raw(node),
            action: FaultAction::Fail,
        }
    }

    fn recover(cycle: u64, node: u128) -> FaultEvent {
        FaultEvent {
            cycle,
            node: NodeId::from_raw(node),
            action: FaultAction::Recover,
        }
    }

    #[test]
    fn empty_timeline_is_byte_identical_to_no_timeline() {
        let h = Hhc::new(2).unwrap();
        let plain = Simulator::new(&h, Pattern::UniformRandom, Strategy::MultipathRandom);
        let with_empty = Simulator::new(&h, Pattern::UniformRandom, Strategy::MultipathRandom)
            .with_fault_events(Vec::new());
        assert_eq!(plain.run(cfg()), with_empty.run(cfg()));
    }

    #[test]
    fn mid_run_fail_and_recover_gate_injection_at_the_source() {
        let h = Hhc::new(2).unwrap();
        let sim = |events: Vec<FaultEvent>| {
            Simulator::new(&h, Pattern::UniformRandom, Strategy::FaultAdaptive)
                .with_fault_events(events)
        };
        // All three runs are dynamic-mode (non-empty timelines). A
        // suppressed arrival skips its destination draw, so the runs'
        // RNG streams diverge after the first suppression — the
        // assertions below are structural (who may inject, what gets
        // dropped), not count comparisons.
        let noop = sim(vec![fail(1_000_000, 0)]).run_traced(cfg());
        let down = sim(vec![fail(0, 0), fail(1_000_000, 0)]).run_traced(cfg());
        let churn = sim(vec![fail(0, 0), recover(100, 0)]).run_traced(cfg());

        let from_zero = |records: &[DeliveryRecord]| {
            records
                .iter()
                .filter(|r| r.route[0] == NodeId::from_raw(0))
                .map(|r| r.injected_at)
                .collect::<Vec<u64>>()
        };
        assert!(
            !from_zero(&noop.1).is_empty(),
            "healthy node 0 should inject"
        );
        assert!(
            from_zero(&down.1).is_empty(),
            "failed node 0 must never inject"
        );
        let churn_inj = from_zero(&churn.1);
        assert!(!churn_inj.is_empty(), "recovered node 0 injects again");
        assert!(
            churn_inj.iter().all(|&c| c >= 100),
            "no injection from node 0 before its recovery"
        );
        // A down node is also an invalid destination: uniform traffic
        // aimed at it is dropped and counted.
        assert!(down.0.dropped_dst_faulty > 0);
        assert_eq!(noop.0.dropped_dst_faulty, 0);
        // Conservation holds in every mode, and the fault-adaptive
        // strategy keeps everything routable around the failed node.
        for (stats, _) in [&noop, &down, &churn] {
            assert_eq!(stats.injected, stats.delivered + stats.in_flight_at_end);
            assert_eq!(stats.dropped_unroutable, 0);
            assert!(stats.injected > 0);
        }
    }

    #[test]
    fn timelines_are_deterministic_and_order_insensitive() {
        let h = Hhc::new(2).unwrap();
        let events = vec![fail(50, 7), recover(120, 7), fail(80, 13)];
        let mut shuffled = events.clone();
        shuffled.rotate_left(1);
        let a = Simulator::new(&h, Pattern::UniformRandom, Strategy::FaultAdaptive)
            .with_fault_events(events)
            .run(cfg());
        let b = Simulator::new(&h, Pattern::UniformRandom, Strategy::FaultAdaptive)
            .with_fault_events(shuffled)
            .run(cfg());
        assert_eq!(a, b, "non-conflicting events sort by cycle");
        assert!(a.delivered > 0);
    }
}

#[cfg(test)]
mod instrumentation_tests {
    use super::*;
    use hhc_core::Hhc;

    #[test]
    fn transmissions_equal_hops_when_drained() {
        let h = Hhc::new(2).unwrap();
        let stats =
            Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath).run(SimConfig {
                cycles: 150,
                drain_cycles: 5000,
                inject_rate: 0.05,
                seed: 17,
                ..SimConfig::default()
            });
        assert_eq!(stats.in_flight_at_end, 0);
        // Every delivered packet's hop produced exactly one transmission.
        assert_eq!(stats.link_transmissions, stats.hops_sum);
        assert!(stats.max_queue_len >= 1);
    }

    #[test]
    fn latency_histogram_matches_scalar_aggregates() {
        let h = Hhc::new(2).unwrap();
        let stats =
            Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath).run(SimConfig {
                cycles: 200,
                drain_cycles: 5000,
                inject_rate: 0.08,
                seed: 23,
                ..SimConfig::default()
            });
        assert!(stats.delivered > 0);
        assert_eq!(stats.latency_hist.count(), stats.delivered);
        assert_eq!(stats.latency_hist.sum(), stats.latency_sum);
        assert_eq!(stats.latency_hist.max(), Some(stats.latency_max));
        let p99 = stats.latency_p99().unwrap();
        assert!(p99 <= stats.latency_max);
        assert!(p99 as f64 >= stats.mean_latency().unwrap() / 2.0);
    }

    #[test]
    fn sampling_captures_queue_depth_series() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let cfg = SimConfig {
            cycles: 200,
            drain_cycles: 0,
            inject_rate: 0.25,
            seed: 31,
            sample_every: 10,
            ..SimConfig::default()
        };
        let stats = sim.run(cfg);
        assert_eq!(stats.samples.len(), 20); // cycles 0, 10, …, 190
        assert!(stats
            .samples
            .windows(2)
            .all(|w| w[1].cycle == w[0].cycle + 10));
        // At 25% load on HHC(2) some sample must catch queued packets
        // and active links.
        assert!(stats.samples.iter().any(|s| s.queued_packets > 0));
        assert!(stats.samples.iter().any(|s| s.transmissions > 0));
        assert!(stats
            .samples
            .iter()
            .all(|s| s.max_queue_len <= s.queued_packets));
        assert!(stats
            .samples
            .iter()
            .all(|s| s.max_queue_len <= stats.max_queue_len));
        // Sampling only observes; it must not perturb the run.
        let mut unsampled_cfg = cfg;
        unsampled_cfg.sample_every = 0;
        let unsampled = sim.run(unsampled_cfg);
        assert!(unsampled.samples.is_empty());
        let mut resampled = stats.clone();
        resampled.samples.clear();
        assert_eq!(unsampled, resampled);
    }

    #[test]
    fn route_cache_changes_nothing_but_effort() {
        // Multipath routing on a fixed permutation pattern repeats the
        // same (src, dst) pairs every cycle: the family cache should
        // absorb nearly every construction while leaving the simulation
        // bit-for-bit unchanged.
        let h = Hhc::new(2).unwrap();
        let cfg = SimConfig {
            cycles: 150,
            drain_cycles: 2000,
            inject_rate: 0.10,
            seed: 97,
            ..SimConfig::default()
        };
        let cached = Simulator::new(&h, Pattern::BitComplement, Strategy::MultipathRandom).run(cfg);
        let uncached = Simulator::new(&h, Pattern::BitComplement, Strategy::MultipathRandom)
            .with_route_cache(hhc_core::CacheConfig::disabled())
            .run(cfg);
        assert!(cached.route_constructions > 64);
        assert_eq!(cached.route_constructions, uncached.route_constructions);
        assert_eq!(uncached.route_family_hits, 0);
        // Bit-complement on HHC(2) flips every cube-field bit, so all 64
        // pairs share dx = 1111 and collapse onto the 4 translation
        // classes (Y, ~Y): after one solve per class everything replays.
        assert_eq!(
            cached.route_family_hits,
            cached.route_constructions - 4,
            "bit-complement traffic has exactly 4 canonical families"
        );
        assert!(cached.route_cache_hit_rate().unwrap() > 0.9);
        // Same packets, same routes, same queues — only the effort
        // counters may differ between the two configurations.
        let mut masked = cached.clone();
        masked.route_family_hits = uncached.route_family_hits;
        assert_eq!(masked, uncached);
    }

    #[test]
    fn single_path_runs_build_no_route_families() {
        let h = Hhc::new(2).unwrap();
        let stats =
            Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath).run(SimConfig {
                cycles: 50,
                drain_cycles: 500,
                inject_rate: 0.05,
                seed: 13,
                ..SimConfig::default()
            });
        assert_eq!(stats.route_constructions, 0);
        assert_eq!(stats.route_cache_hit_rate(), None);
    }

    #[test]
    fn try_new_rejects_oversized_networks() {
        let big = Hhc::new(5).unwrap(); // n = 37 address bits
        match Simulator::try_new(&big, Pattern::UniformRandom, Strategy::SinglePath) {
            Err(SimError::NetworkTooLarge {
                address_bits,
                max_bits,
            }) => {
                assert_eq!(address_bits, 37);
                assert_eq!(max_bits, Simulator::<Hhc>::MAX_ADDRESS_BITS);
            }
            Ok(_) => panic!("expected NetworkTooLarge"),
        }
        let small = Hhc::new(2).unwrap();
        assert!(Simulator::try_new(&small, Pattern::UniformRandom, Strategy::SinglePath).is_ok());
    }

    #[test]
    fn utilization_grows_with_load() {
        let h = Hhc::new(2).unwrap();
        let run = |rate| {
            Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath)
                .run(SimConfig {
                    cycles: 300,
                    drain_cycles: 5000,
                    inject_rate: rate,
                    seed: 3,
                    ..SimConfig::default()
                })
                .link_utilization()
        };
        let lo = run(0.02);
        let hi = run(0.20);
        assert!(
            hi > lo * 5.0,
            "utilisation should scale ~linearly: {lo} vs {hi}"
        );
    }
}

#[cfg(test)]
mod cube_network_tests {
    use super::*;
    use crate::net::CubeNet;

    #[test]
    fn simulator_runs_on_plain_hypercube() {
        let q = CubeNet::matching_hhc(2); // Q_6, 64 nodes
        let stats =
            Simulator::new(&q, Pattern::UniformRandom, Strategy::SinglePath).run(SimConfig {
                cycles: 200,
                drain_cycles: 4000,
                inject_rate: 0.05,
                seed: 21,
                ..SimConfig::default()
            });
        assert_eq!(stats.delivered, stats.injected);
        assert!(stats.delivered > 100);
        // Q_6 mean distance is 3 (n/2); latency can't be below hops.
        assert!(stats.mean_hops().unwrap() > 2.0);
        assert!(stats.mean_latency().unwrap() >= stats.mean_hops().unwrap());
    }

    #[test]
    fn hypercube_beats_hhc_on_latency_at_equal_size() {
        // The price of the HHC's low degree: longer routes. Same node
        // count (64), same load, same pattern.
        let q = CubeNet::matching_hhc(2);
        let h = hhc_core::Hhc::new(2).unwrap();
        let cfg = SimConfig {
            cycles: 300,
            drain_cycles: 6000,
            inject_rate: 0.05,
            seed: 33,
            ..SimConfig::default()
        };
        let sq = Simulator::new(&q, Pattern::UniformRandom, Strategy::SinglePath).run(cfg);
        let sh = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath).run(cfg);
        assert!(
            sq.mean_latency().unwrap() < sh.mean_latency().unwrap(),
            "Q_6 (degree 6) should be faster than HHC(2) (degree 3)"
        );
    }

    #[test]
    fn fault_adaptive_works_on_cube_too() {
        use rand::SeedableRng;
        let q = CubeNet::matching_hhc(2);
        // Q_6 has 6 disjoint paths; 6 faults can't block a live pair...
        // only f ≤ n−1 = 5 is guaranteed, use 5.
        let faults =
            workloads::random_fault_set(&q, 5, &[], &mut rand::rngs::StdRng::seed_from_u64(4));
        let stats = Simulator::new(&q, Pattern::UniformRandom, Strategy::FaultAdaptive)
            .with_faults(faults)
            .run(SimConfig {
                cycles: 100,
                drain_cycles: 4000,
                inject_rate: 0.05,
                seed: 9,
                ..SimConfig::default()
            });
        assert_eq!(stats.dropped_unroutable, 0);
        assert_eq!(stats.delivered, stats.injected);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use hhc_core::Hhc;

    #[test]
    fn trace_consistent_with_stats() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let cfg = SimConfig {
            cycles: 150,
            drain_cycles: 5000,
            inject_rate: 0.06,
            seed: 77,
            ..SimConfig::default()
        };
        let (stats, records) = sim.run_traced(cfg);
        assert_eq!(records.len() as u64, stats.delivered);
        let lat_sum: u64 = records.iter().map(|r| r.latency()).sum();
        assert_eq!(lat_sum, stats.latency_sum);
        let hops: u64 = records.iter().map(|r| r.route.len() as u64 - 1).sum();
        assert_eq!(hops, stats.hops_sum);
        for r in &records {
            assert!(r.latency() >= r.route.len() as u64 - 1);
            for w in r.route.windows(2) {
                assert!(h.is_edge(w[0], w[1]));
            }
        }
        // Queueing delay is the congestion component.
        assert!(records.iter().any(|r| r.queueing_delay() == 0) || stats.delivered == 0);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::BitComplement, Strategy::MultipathRandom);
        let cfg = SimConfig {
            cycles: 100,
            drain_cycles: 3000,
            inject_rate: 0.05,
            seed: 55,
            ..SimConfig::default()
        };
        assert_eq!(sim.run(cfg), sim.run_traced(cfg).0);
    }
}

#[cfg(test)]
mod latency_model_tests {
    use super::*;
    use hhc_core::Hhc;

    fn cfg(len: u64) -> SimConfig {
        SimConfig {
            cycles: 200,
            drain_cycles: 20_000,
            inject_rate: 0.02,
            seed: 808,
            packet_len: len,
            switching: Switching::StoreAndForward,
            queue_capacity: None,
            sample_every: 0,
        }
    }

    #[test]
    fn latency_scales_with_packet_len_at_low_load() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let l1 = sim.run(cfg(1));
        let l3 = sim.run(cfg(3));
        assert_eq!(l1.delivered, l1.injected);
        assert_eq!(l3.delivered, l3.injected);
        // Same arrivals (same seed) ⇒ same packets and hop counts; each
        // hop now costs ≥ 3 cycles.
        assert_eq!(l1.hops_sum, l3.hops_sum);
        let m1 = l1.mean_latency().unwrap();
        let m3 = l3.mean_latency().unwrap();
        assert!(
            m3 >= 2.5 * m1 && m3 <= 4.0 * m1,
            "latency should scale ≈3× at low load: {m1:.2} → {m3:.2}"
        );
    }

    #[test]
    fn per_packet_floor_is_hops_times_latency() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let (stats, records) = sim.run_traced(cfg(4));
        assert_eq!(stats.delivered, records.len() as u64);
        for r in &records {
            assert!(
                r.latency() >= 4 * (r.route.len() as u64 - 1),
                "packet {} beat the physical floor",
                r.id
            );
        }
    }

    #[test]
    fn zero_packet_len_clamped_to_one() {
        let h = Hhc::new(1).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let stats = sim.run(SimConfig {
            cycles: 50,
            drain_cycles: 1000,
            inject_rate: 0.05,
            seed: 2,
            packet_len: 0,
            switching: Switching::StoreAndForward,
            queue_capacity: None,
            sample_every: 0,
        });
        assert_eq!(stats.delivered, stats.injected);
        assert!(stats.latency_sum >= stats.hops_sum);
    }
}

#[cfg(test)]
mod switching_tests {
    use super::*;
    use hhc_core::Hhc;

    fn cfg(len: u64, switching: Switching) -> SimConfig {
        SimConfig {
            cycles: 200,
            drain_cycles: 30_000,
            inject_rate: 0.01,
            seed: 909,
            packet_len: len,
            switching,
            queue_capacity: None,
            sample_every: 0,
        }
    }

    #[test]
    fn cut_through_beats_store_and_forward_for_long_packets() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let saf = sim.run(cfg(8, Switching::StoreAndForward));
        let vct = sim.run(cfg(8, Switching::CutThrough));
        assert_eq!(
            saf.delivered, vct.delivered,
            "same arrivals under same seed"
        );
        let (ls, lv) = (saf.mean_latency().unwrap(), vct.mean_latency().unwrap());
        // SAF ≈ hops × 8, VCT ≈ hops + 7 at low load: a large gap.
        assert!(
            lv < ls / 2.0,
            "cut-through should at least halve latency: SAF {ls:.1} vs VCT {lv:.1}"
        );
        let hops = vct.mean_hops().unwrap();
        assert!(
            lv >= hops + 7.0,
            "VCT cannot beat the pipelining floor hops+len-1"
        );
    }

    #[test]
    fn unit_packets_make_the_disciplines_identical() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::BitComplement, Strategy::SinglePath);
        assert_eq!(
            sim.run(cfg(1, Switching::StoreAndForward)),
            sim.run(cfg(1, Switching::CutThrough))
        );
    }

    #[test]
    fn link_serialization_preserved_under_cut_through() {
        // Throughput (per-link serialisation) is the same in both modes:
        // a link still carries one packet per `len` cycles.
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let saf = sim.run(cfg(4, Switching::StoreAndForward));
        let vct = sim.run(cfg(4, Switching::CutThrough));
        assert_eq!(saf.link_transmissions, vct.link_transmissions);
        assert_eq!(saf.delivered, vct.delivered);
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use hhc_core::Hhc;

    fn cfg(cap: Option<u64>, rate: f64) -> SimConfig {
        SimConfig {
            cycles: 300,
            drain_cycles: 30_000,
            inject_rate: rate,
            seed: 1212,
            queue_capacity: cap,
            ..SimConfig::default()
        }
    }

    #[test]
    fn huge_capacity_equals_unbounded() {
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let unbounded = sim.run(cfg(None, 0.1));
        let huge = sim.run(cfg(Some(1_000_000), 0.1));
        assert_eq!(unbounded.delivered, huge.delivered);
        assert_eq!(unbounded.latency_sum, huge.latency_sum);
        assert_eq!(huge.dropped_backpressure, 0);
        assert_eq!(huge.backpressure_stalls, 0);
    }

    #[test]
    fn tiny_buffers_shed_load_and_can_deadlock() {
        // With capacity-1 buffers under heavy permutation traffic, the
        // classic store-and-forward buffer-cycle deadlock appears: a ring
        // of head-of-line packets each waiting for the next one's slot.
        // The simulator surfaces it rather than hiding it: conservation
        // counts the wedged packets as in-flight at end.
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::BitComplement, Strategy::SinglePath);
        let open = sim.run(cfg(None, 0.4));
        let mut tight_cfg = cfg(Some(1), 0.4);
        tight_cfg.drain_cycles = 4_000; // a wedged cycle never drains anyway
        let tight = sim.run(tight_cfg);
        assert!(tight.dropped_backpressure > 0, "expected injection drops");
        assert!(tight.backpressure_stalls > 0, "expected HOL stalls");
        // Conservation including wedged packets.
        assert_eq!(tight.delivered + tight.in_flight_at_end, tight.injected);
        // This seed deterministically wedges a buffer cycle — the
        // phenomenon deadlock-free routing theory exists to prevent.
        assert!(
            tight.in_flight_at_end > 0,
            "expected a buffer-cycle deadlock at capacity 1"
        );
        assert!(tight.injected < open.injected, "admission control bites");
        // Bounded queues keep the occupancy near the cap (same-cycle
        // arrivals may overshoot by the node in-degree, here ≤ m+1 = 3).
        assert!(tight.max_queue_len <= 1 + 3, "cap grossly exceeded");
    }

    #[test]
    fn no_deadlock_on_uniform_traffic_with_small_buffers() {
        // Backpressure + cyclic routes can deadlock in principle; on
        // uniform traffic at moderate load the HHC drains. If this ever
        // stops holding, in_flight_at_end > 0 will flag it loudly.
        let h = Hhc::new(2).unwrap();
        let sim = Simulator::new(&h, Pattern::UniformRandom, Strategy::SinglePath);
        let stats = sim.run(cfg(Some(2), 0.15));
        assert_eq!(
            stats.in_flight_at_end, 0,
            "network failed to drain under backpressure (possible deadlock)"
        );
        assert_eq!(stats.delivered, stats.injected);
    }
}
