//! Quick throughput profiler for the DES core: the default engine (lazy
//! link store + hybrid link fidelity) against the reference engine
//! (eager store + full queueing) across representative workloads,
//! asserting byte-identical [`SimStats`] before timing anything, plus a
//! replication sweep through `run_many` at 1 and 4 rayon workers.
//! Min-over-repeats protocol mirrors `profile_batch`.
//!
//! The headline workload is **HHC(4)** — 2^20 ≈ 1M nodes, the first
//! paper topology at the million scale — run packet-level end-to-end
//! with latency histograms, under a stated peak-RSS budget asserted
//! from `/proc/self/status` (VmHWM). Its reference engine is lazy +
//! full fidelity: the eager store would materialise all ~5.2M directed
//! links, which is exactly the cost the lazy store exists to avoid.
//!
//! `--quick` runs reduced workloads and writes
//! `results/BENCH_sim.quick.json` (the committed `results/BENCH_sim.json`
//! baseline is only rewritten by full runs): a CI smoke that the engine
//! variants still agree and feeds the `perf_gate` regression check.

use hhc_core::Hhc;
use netsim::{
    CubeNet, EngineConfig, Fidelity, LinkStoreMode, SimConfig, SimStats, Simulator, Strategy,
    Switching,
};
use obs::json;
use std::time::Instant;
use workloads::Pattern;

/// Peak-RSS budget (MiB) for the HHC(4) headline run; asserted when the
/// platform exposes VmHWM.
const HHC4_RSS_BUDGET_MB: f64 = 2048.0;

fn min_time<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Peak resident set size in MiB, from `/proc/self/status` (Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Measured engine comparison for one workload.
struct SimRow {
    name: &'static str,
    stats: SimStats,
    pps: f64,
    baseline_pps: f64,
}

/// Times the default engine against `baseline` on one simulator/config,
/// asserting equal stats first — the equivalence gate is the point of
/// the bench, so it runs even in `--quick` mode. Only
/// `peak_links_materialised` may differ between store modes.
fn profile_workload<N: netsim::Network + ?Sized + 'static>(
    name: &'static str,
    sim: &Simulator<'_, N>,
    mk_baseline: impl Fn() -> Simulator<'static, N>,
    cfg: SimConfig,
    repeats: usize,
) -> SimRow {
    let baseline_sim = mk_baseline();
    let fast = sim.run(cfg);
    let reference = baseline_sim.run(cfg);
    let mut masked = fast.clone();
    masked.peak_links_materialised = reference.peak_links_materialised;
    assert_eq!(masked, reference, "engine variants diverged on {name}");
    assert!(fast.delivered > 0, "workload {name} delivered nothing");
    let fast_secs = min_time(repeats, || {
        std::hint::black_box(sim.run(cfg));
    });
    let baseline_secs = min_time(repeats, || {
        std::hint::black_box(baseline_sim.run(cfg));
    });
    SimRow {
        name,
        pps: fast.delivered as f64 / fast_secs,
        baseline_pps: fast.delivered as f64 / baseline_secs,
        stats: fast,
    }
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let repeats = if quick { 3 } else { 5 };
    // Enough cycles to fill the network, enough drain to land everything
    // that can land.
    let cfg = SimConfig {
        cycles: if quick { 30 } else { 150 },
        drain_cycles: 20_000,
        inject_rate: 0.05,
        seed: 0xD15C,
        ..SimConfig::default()
    };
    let lazy_full = EngineConfig {
        store: LinkStoreMode::Lazy,
        fidelity: Fidelity::Full,
    };

    // --- HHC(4) headline: 2^20 nodes, packet-level, first so VmHWM
    // reflects it alone. Low rate keeps the offered load per node
    // realistic for a million sources; traffic is still ~10^5 packets.
    let h4 = Box::leak(Box::new(Hhc::new(4).unwrap()));
    let h4_cfg = SimConfig {
        cycles: if quick { 10 } else { 30 },
        inject_rate: 0.01,
        ..cfg
    };
    let hhc4_row = profile_workload(
        "hhc4_uniform_single",
        &Simulator::new(h4, Pattern::UniformRandom, Strategy::SinglePath),
        || Simulator::new(h4, Pattern::UniformRandom, Strategy::SinglePath).with_engine(lazy_full),
        h4_cfg,
        repeats.min(2),
    );
    let hhc4_rss_mb = peak_rss_mb();
    if let Some(rss) = hhc4_rss_mb {
        assert!(
            rss < HHC4_RSS_BUDGET_MB,
            "HHC(4) peak RSS {rss:.0} MiB exceeds the {HHC4_RSS_BUDGET_MB:.0} MiB budget"
        );
    }

    let h3 = Box::leak(Box::new(Hhc::new(3).unwrap()));
    let h2 = Box::leak(Box::new(Hhc::new(2).unwrap()));
    let q11 = Box::leak(Box::new(CubeNet::matching_hhc(3)));
    let bp_cfg = SimConfig {
        inject_rate: 0.15,
        queue_capacity: Some(4),
        ..cfg
    };
    let reference = EngineConfig::reference;
    let mut rows = vec![hhc4_row];
    rows.push(profile_workload(
        "hhc3_uniform_single",
        &Simulator::new(h3, Pattern::UniformRandom, Strategy::SinglePath),
        || {
            Simulator::new(h3, Pattern::UniformRandom, Strategy::SinglePath)
                .with_engine(reference())
        },
        cfg,
        repeats,
    ));
    rows.push(profile_workload(
        "hhc3_uniform_multipath",
        &Simulator::new(h3, Pattern::UniformRandom, Strategy::MultipathRandom),
        || {
            Simulator::new(h3, Pattern::UniformRandom, Strategy::MultipathRandom)
                .with_engine(reference())
        },
        cfg,
        repeats,
    ));
    rows.push(profile_workload(
        "hhc3_hotspot_single",
        &Simulator::new(
            h3,
            Pattern::Hotspot { hot_fraction: 0.1 },
            Strategy::SinglePath,
        ),
        || {
            Simulator::new(
                h3,
                Pattern::Hotspot { hot_fraction: 0.1 },
                Strategy::SinglePath,
            )
            .with_engine(reference())
        },
        cfg,
        repeats,
    ));
    let bp_full = SimConfig {
        switching: Switching::CutThrough,
        packet_len: 4,
        ..bp_cfg
    };
    rows.push(profile_workload(
        "hhc2_bitcomp_backpressure",
        &Simulator::new(h2, Pattern::BitComplement, Strategy::MultipathRandom),
        || {
            Simulator::new(h2, Pattern::BitComplement, Strategy::MultipathRandom)
                .with_engine(reference())
        },
        bp_full,
        repeats,
    ));
    rows.push(profile_workload(
        "q11_uniform_single",
        &Simulator::new(q11, Pattern::UniformRandom, Strategy::SinglePath),
        || {
            Simulator::new(q11, Pattern::UniformRandom, Strategy::SinglePath)
                .with_engine(reference())
        },
        cfg,
        repeats,
    ));
    println!(
        "{:28} {:>8} {:>10} {:>13} {:>13} {:>8} {:>10} {:>9}",
        "workload", "nodes", "delivered", "pkt/s", "ref pkt/s", "speedup", "mat.links", "B/node"
    );
    for r in &rows {
        println!(
            "{:28} {:>8} {:>10} {:>13.0} {:>13.0} {:>7.2}x {:>10} {:>9.1}",
            r.name,
            r.stats.nodes,
            r.stats.delivered,
            r.pps,
            r.baseline_pps,
            r.pps / r.baseline_pps,
            r.stats.peak_links_materialised,
            r.stats.bytes_per_node(),
        );
    }
    if let Some(rss) = hhc4_rss_mb {
        println!("\nhhc4 peak RSS: {rss:.0} MiB (budget {HHC4_RSS_BUDGET_MB:.0} MiB)");
    }

    // --- Replication sweep (run_many) --------------------------------
    // Scaling is whatever the host gives: on a single-core container
    // both thread counts measure the same (the result equality is the
    // real assertion — worker count must be observationally invisible).
    let n_runs = if quick { 4 } else { 16 };
    let sim = Simulator::new(h3, Pattern::UniformRandom, Strategy::MultipathRandom);
    let mut merged_seq = SimStats::default();
    for i in 0..n_runs as u64 {
        merged_seq.merge(&sim.run(SimConfig {
            seed: cfg.seed.wrapping_add(i),
            ..cfg
        }));
    }
    let timed_sweep = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let merged = sim.run_many(cfg, n_runs);
        assert_eq!(
            merged, merged_seq,
            "run_many at {threads} workers diverged from sequential merge"
        );
        let secs = min_time(repeats, || {
            std::hint::black_box(sim.run_many(cfg, n_runs));
        });
        std::env::remove_var("RAYON_NUM_THREADS");
        secs
    };
    let t1 = timed_sweep("1");
    let t4 = timed_sweep("4");
    println!();
    println!(
        "run_many: {n_runs} replications of hhc3_uniform_multipath \
         ({} delivered total)",
        merged_seq.delivered
    );
    println!("  1 worker   {:8.3} s", t1);
    println!("  4 workers  {:8.3} s  ({:.2}x scaling)", t4, t1 / t4);

    // Machine-readable sidecar for CI and the experiment notes.
    let mut o = json::Obj::new();
    o.str("bench", "profile_sim");
    o.u64("quick", quick as u64);
    o.u64("cycles", cfg.cycles);
    o.f64("inject_rate", cfg.inject_rate);
    o.f64("hhc4_peak_rss_mb", hhc4_rss_mb.unwrap_or(f64::NAN));
    o.f64("hhc4_rss_budget_mb", HHC4_RSS_BUDGET_MB);
    let row_objs: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut ro = json::Obj::new();
            ro.str("workload", r.name);
            ro.u64("nodes", r.stats.nodes);
            ro.u64("delivered", r.stats.delivered);
            ro.f64("packets_per_sec", r.pps);
            ro.f64("baseline_packets_per_sec", r.baseline_pps);
            ro.f64("speedup", r.pps / r.baseline_pps);
            ro.f64("mean_latency", r.stats.mean_latency().unwrap_or(f64::NAN));
            ro.f64(
                "latency_p99",
                r.stats.latency_p99().map_or(f64::NAN, |v| v as f64),
            );
            ro.u64("latency_max", r.stats.latency_max);
            ro.u64("peak_links_materialised", r.stats.peak_links_materialised);
            ro.u64("links_total", r.stats.links_total);
            ro.f64("bytes_per_node", r.stats.bytes_per_node());
            ro.raw("latency_hist", &r.stats.latency_hist.to_json());
            ro.finish()
        })
        .collect();
    o.raw("workloads", &json::array(&row_objs));
    let mut rep = json::Obj::new();
    rep.u64("replications", n_runs as u64);
    rep.u64("delivered_total", merged_seq.delivered);
    rep.f64("secs_1_worker", t1);
    rep.f64("secs_4_workers", t4);
    rep.f64("scaling", t1 / t4);
    o.raw("run_many", &rep.finish());
    let payload = o.finish();
    let path = if quick {
        "results/BENCH_sim.quick.json"
    } else {
        "results/BENCH_sim.json"
    };
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, payload.as_bytes()))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
