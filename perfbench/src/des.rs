//! Packet-simulator workload `des_hhc4_single`: sequential
//! `Simulator::run` replications on one thread (never `run_many`), each
//! with its own seed derived from the workload seed. HHC(4) (2^20
//! nodes), uniform traffic, `SinglePath`, rate 0.01, 10 cycles plus
//! drain, on the default engine (lazy link store, hybrid fidelity); every
//! replication is checked against the lazy store at full fidelity (the
//! eager reference store would materialise all ~5M directed links).
//!
//! Times are host seconds; the statistics themselves are simulated.

use crate::report::{Report, WINDOWS};
use crate::rng::SplitMix64;
use crate::stats::{self, ratio, windowed_rate};
use crate::trace::{self, Recorder};
use hhc_core::{Hhc, NodeId};
use netsim::{
    DeliveryRecord, EngineConfig, Fidelity, LinkStoreMode, LinkTable, Network, SimConfig, SimStats,
    Simulator, Strategy,
};
use std::hint::black_box;
use std::time::Instant;
use workloads::Pattern;

const NAME: &str = "des_hhc4_single";
const M: u32 = 4;
const CYCLES: u64 = 10;
/// Injection cycles of the set-up's warm-up replication: one cycle
/// already touches every per-node table, a full replication would add
/// 1.7 s to each set-up.
const WARM_CYCLES: u64 = 1;
const RATE: f64 = 0.01;
/// Drain cycles after injection stops: enough to land every packet.
const DRAIN: u64 = 20_000;
/// The engine every replication's statistics must equal.
const REFERENCE: EngineConfig = EngineConfig {
    store: LinkStoreMode::Lazy,
    fidelity: Fidelity::Full,
};
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed replications at least, however long they take.
const MIN_REPS: usize = 3;
const TAG_SEEDS: u64 = 4;

fn config(cycles: u64, seed: u64) -> SimConfig {
    SimConfig {
        cycles,
        drain_cycles: DRAIN,
        inject_rate: RATE,
        seed,
        ..SimConfig::default()
    }
}

type Sim = Simulator<'static, Hhc>;

/// One set-up: the network, the simulator and one warm-up replication
/// on the next derived seed.
fn setup(seeds: &mut SplitMix64) -> (&'static Hhc, Sim) {
    let h: &'static Hhc = Box::leak(Box::new(Hhc::new(M).expect("HHC(4) is supported")));
    let sim = Simulator::new(h, Pattern::UniformRandom, Strategy::SinglePath);
    let warm = sim.run(config(WARM_CYCLES, seeds.next_u64()));
    assert!(warm.delivered > 0, "warm-up delivered nothing");
    (h, sim)
}

/// A replication's statistics with the one field that may differ
/// between link-store modes taken from the reference.
fn same_stats(got: &SimStats, want: &SimStats) -> bool {
    let mut masked = got.clone();
    masked.peak_links_materialised = want.peak_links_materialised;
    &masked == want
}

/// Source and destination of every delivered packet, in injection order.
fn injected_pairs(records: &mut [DeliveryRecord]) -> Vec<(NodeId, NodeId)> {
    records.sort_by_key(|r| r.id);
    records
        .iter()
        .map(|r| (r.route[0], *r.route.last().expect("non-empty route")))
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool, out_dir: &std::path::Path) -> i32 {
    let mut report = Report::new(traced);
    let mut seeds = SplitMix64::new(seed, TAG_SEEDS);
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let t = Instant::now();
        let built = setup(&mut seeds);
        setup_secs.push(t.elapsed().as_secs_f64());
        state = Some(built);
    }
    let (h, sim) = state.expect("at least one set-up");
    let mut runs: Vec<(u64, SimStats)> = Vec::new();

    let mut traced_units = Vec::new();
    let mut rec = Recorder::new();
    let mut layer = LayerTotals::default();
    if traced {
        let start = Instant::now();
        while traced_units.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds / 2.0 {
            let id = runs.len() as u64;
            let cfg = config(CYCLES, seeds.next_u64());
            let t0 = rec.now();
            let (st, mut records) = sim.run_traced(cfg);
            let t1 = rec.now();
            let rep = rec.push("des.replication", t0, t1, None, id);
            traced_units.push((st.delivered, (t1 - t0) as f64 / 1e9));
            layer.add(h, &st, &mut records, &mut rec, rep, id);
            runs.push((cfg.seed, st));
        }
    }
    let phase_secs = if traced { seconds / 2.0 } else { seconds };
    let mut units = Vec::new();
    let start = Instant::now();
    while units.len() < MIN_REPS || start.elapsed().as_secs_f64() < phase_secs {
        let cfg = config(CYCLES, seeds.next_u64());
        let t = Instant::now();
        let st = sim.run(cfg);
        units.push((st.delivered, t.elapsed().as_secs_f64()));
        runs.push((cfg.seed, st));
    }
    let peak_rss = stats::peak_rss_mb();

    println!(
        "workload {NAME} seed {seed}: {} nodes, uniform traffic, SinglePath, rate {RATE}, \
         {CYCLES} cycles + drain, sequential replications",
        h.num_nodes()
    );
    if traced {
        let pps = windowed_rate(&units, WINDOWS);
        layer.report(
            &mut report,
            &rec,
            pps,
            windowed_rate(&traced_units, WINDOWS),
        );
        report.save_trace(&rec, out_dir, NAME, seed);
    } else {
        report.end_to_end(
            &units,
            "delivered packets per host-second, replications",
            &setup_secs,
            peak_rss,
        );
    }
    check(&mut report, h, &runs);
    report.finish()
}

/// Every replication drained and its statistics equal the reference
/// engine's for the same seed.
fn check(report: &mut Report, h: &'static Hhc, runs: &[(u64, SimStats)]) {
    let t = Instant::now();
    let (injected, delivered, in_flight) = runs.iter().fold((0, 0, 0), |(i, d, f), (_, st)| {
        (i + st.injected, d + st.delivered, f + st.in_flight_at_end)
    });
    report.law(
        injected == delivered + in_flight && in_flight == 0,
        format!(
            "{} replications: injected {injected} = delivered {delivered} + in flight {in_flight} \
             (drained)",
            runs.len()
        ),
    );
    let reference =
        Simulator::new(h, Pattern::UniformRandom, Strategy::SinglePath).with_engine(REFERENCE);
    for (seed, st) in runs {
        report.attempted += 1;
        if !same_stats(st, &reference.run(config(CYCLES, *seed))) {
            report.failed += 1;
        }
    }
    println!(
        "reference engine: {} replications checked in {:.2} s",
        runs.len(),
        t.elapsed().as_secs_f64()
    );
}

/// Per-layer sums over the traced replications.
#[derive(Default)]
struct LayerTotals {
    packets: u64,
    links_share: Vec<f64>,
    bytes_per_node: Vec<f64>,
    transmissions: u64,
    delivered: u64,
    queueing_cycles: u64,
}

impl LayerTotals {
    /// Attributes one traced replication: a route pass over its packets
    /// and a link-table build, as children of the replication span.
    fn add(
        &mut self,
        h: &'static Hhc,
        st: &SimStats,
        records: &mut [DeliveryRecord],
        rec: &mut Recorder,
        rep: usize,
        id: u64,
    ) {
        self.queueing_cycles += records.iter().map(|r| r.queueing_delay()).sum::<u64>();
        let pairs = injected_pairs(records);
        let a = rec.now();
        for &(u, v) in &pairs {
            black_box(Network::route(h, u, v));
        }
        let b = rec.now();
        rec.push("net.route", a, b, Some(rep), id);
        let a = rec.now();
        black_box(LinkTable::build(h).num_links());
        let b = rec.now();
        rec.push("net.linktable", a, b, Some(rep), id);
        self.packets += pairs.len() as u64;
        self.links_share
            .push(ratio(st.peak_links_materialised, st.links_total));
        self.bytes_per_node.push(st.bytes_per_node());
        self.transmissions += st.link_transmissions;
        self.delivered += st.delivered;
    }

    fn report(&self, report: &mut Report, rec: &Recorder, untraced_pps: f64, traced_pps: f64) {
        let spans = rec.spans();
        report.metric(
            "net.route_us",
            trace::total_us(spans, "net.route") / self.packets.max(1) as f64,
            &format!("routing layer per packet over {} packets", self.packets),
        );
        let (v, n) = trace::mean_us(spans, "net.linktable");
        report.metric(
            "net.linktable_ms",
            v / 1e3,
            &format!("LinkTable::build (n={n})"),
        );
        let (self_ns, reps) = trace::self_time_of(spans, "des.replication");
        report.metric(
            "flat.self_ms",
            self_ns as f64 / 1e6 / reps.max(1) as f64,
            &format!("replication minus route and link-table time (n={reps})"),
        );
        report.metric(
            "flat.links_materialised_share",
            stats::mean(&self.links_share),
            "peak materialised links over directed links",
        );
        report.metric(
            "flat.bytes_per_node",
            stats::mean(&self.bytes_per_node),
            "engine bytes per node",
        );
        report.metric(
            "flat.transmissions_per_pkt",
            ratio(self.transmissions, self.delivered),
            "simulated",
        );
        report.metric(
            "flat.queueing_delay_cycles",
            ratio(self.queueing_cycles, self.delivered),
            "simulated, mean per delivered packet",
        );
        report.metric(
            "trace.overhead_share",
            1.0 - traced_pps / untraced_pps,
            &format!("1 - traced pkts/s {traced_pps:.0} / untraced pkts/s {untraced_pps:.0}"),
        );
    }
}
