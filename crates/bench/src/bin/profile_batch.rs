//! Quick throughput profiler for the batch engine: measures the per-pair
//! loop, the scratch-reusing core, and both batch entry points on the
//! acceptance workload (random HHC(5) pairs), plus a replay of the exact
//! fan queries the construction issues. Uses a min-over-repeats
//! protocol so a noisy host does not swamp the numbers; this is the
//! canonical batch-engine measurement.
//!
//! The cache section compares the family cache on vs off across three
//! 10k-pair workloads with different reuse profiles — uniform (every pair
//! distinct), permutation (a fixed pair pool cycled) and hotspot (many
//! sources, one destination) — asserting byte-identical output in both
//! modes and reporting ns/pair, speedup and hit rate. `--cache on` /
//! `--cache off` restrict to one mode; the default runs both. A
//! machine-readable summary is written to `results/BENCH_batch.json`.
//!
//! `--quick` runs a reduced workload (one pass per scalar timing, the
//! best of 3 per cache row) and writes `results/BENCH_batch.quick.json`
//! instead (the committed baseline is only rewritten by full runs): a
//! CI smoke test that the profiler itself works (including the cached ≡
//! uncached assertion) and the input to the `perf_gate` regression
//! check.

use hhc_core::{batch, disjoint, CacheConfig, CrossingOrder, Hhc, NodeId, PathBuilder, PathSet};
use obs::json;
use std::time::Instant;

fn min_time<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Which cache modes the cache section should run.
#[derive(Clone, Copy, PartialEq)]
enum CacheMode {
    On,
    Off,
    Both,
}

/// One cache-comparison workload: a pair sequence plus its reuse label.
struct Workload {
    name: &'static str,
    distinct: usize,
    pairs: Vec<(NodeId, NodeId)>,
}

/// Measured cache-on/off row for one workload.
struct CacheRow {
    name: &'static str,
    distinct: usize,
    on_ns: Option<f64>,
    off_ns: Option<f64>,
    family_hit_rate: f64,
}

/// The three reuse profiles, all over HHC(5) with `total` pairs.
fn make_workloads(h: &Hhc, total: usize, pool: usize) -> Vec<Workload> {
    let uniform = workloads::sampling::random_pairs(h, total, 0x10_000);
    // Permutation traffic: a fixed pool of distinct pairs cycled — the
    // repeated-(src, dst) shape every traffic pattern produces.
    let perm_pool = workloads::sampling::random_pairs(h, pool, 0x22_222);
    let permutation: Vec<_> = perm_pool.iter().copied().cycle().take(total).collect();
    // Hotspot: many sources, one hot destination.
    let hot_pool = workloads::sampling::random_pairs(h, pool + 1, 0x33_333);
    let hot = hot_pool[0].0;
    let hot_pairs: Vec<_> = hot_pool[1..]
        .iter()
        .map(|&(s, _)| (s, hot))
        .filter(|&(s, _)| s != hot)
        .collect();
    let hotspot: Vec<_> = hot_pairs.iter().copied().cycle().take(total).collect();
    vec![
        Workload {
            name: "uniform",
            distinct: total,
            pairs: uniform,
        },
        Workload {
            name: "permutation",
            distinct: pool,
            pairs: permutation,
        },
        Workload {
            name: "hotspot",
            distinct: hot_pairs.len(),
            pairs: hotspot,
        },
    ]
}

fn run_cache_section(
    h: &Hhc,
    repeats: usize,
    total: usize,
    pool: usize,
    mode: CacheMode,
) -> Vec<CacheRow> {
    let mut rows = Vec::new();
    for w in make_workloads(h, total, pool) {
        let n = w.pairs.len() as f64;
        let measure = |cfg: CacheConfig, repeats: usize| {
            let (sets, report) =
                batch::construct_many_serial(h, &w.pairs, CrossingOrder::Gray, cfg).unwrap();
            let secs = min_time(repeats, || {
                let out =
                    batch::construct_many_serial(h, &w.pairs, CrossingOrder::Gray, cfg).unwrap();
                std::hint::black_box(&out);
            });
            (sets, report, secs * 1e9 / n)
        };
        let mut row = CacheRow {
            name: w.name,
            distinct: w.distinct,
            on_ns: None,
            off_ns: None,
            family_hit_rate: f64::NAN,
        };
        let on = (mode != CacheMode::Off).then(|| measure(CacheConfig::enabled(), repeats));
        let off = (mode != CacheMode::On).then(|| measure(CacheConfig::disabled(), repeats));
        if let Some((_, report, ns)) = &on {
            row.on_ns = Some(*ns);
            row.family_hit_rate = report.construction.family_hit_rate().unwrap_or(f64::NAN);
        }
        if let Some((_, _, ns)) = &off {
            row.off_ns = Some(*ns);
        }
        // The cache memoises exact canonical families: byte-identical
        // families are a hard invariant, not a statistical one.
        if let (Some((a, _, _)), Some((b, _, _))) = (&on, &off) {
            assert_eq!(a, b, "cached output differs from uncached on {}", w.name);
        }
        rows.push(row);
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut mode = CacheMode::Both;
    for (i, a) in args.iter().enumerate() {
        let v = match a.strip_prefix("--cache=") {
            Some(v) => Some(v.to_string()),
            None if a == "--cache" => args.get(i + 1).cloned(),
            None => None,
        };
        match v.as_deref() {
            Some("on") => mode = CacheMode::On,
            Some("off") => mode = CacheMode::Off,
            Some("both") => mode = CacheMode::Both,
            Some(other) => {
                eprintln!("unknown --cache value {other:?} (expected on|off|both)");
                std::process::exit(2);
            }
            None => {}
        }
    }
    // Quick cache rows are timed as the best of 3 passes, like every
    // full timing. The quick scalar timings keep one pass, the method
    // their gated ratio (`batch_amortization`) was recorded with: timed
    // as a best of 3 they read it about 10% lower.
    let (repeats, cache_repeats, pair_count, pool) = if quick {
        (1, 3, 200, 32)
    } else {
        (5, 5, 10_000, 512)
    };
    let h = Hhc::new(5).unwrap();
    let pairs = workloads::sampling::random_pairs(&h, pair_count.min(4000), 0x10_000);
    let n = pairs.len() as f64;

    // Warm-up both code paths once. The core row times the construction
    // itself, so its builder memoises nothing.
    let mut sc = PathBuilder::with_caches(CacheConfig::disabled());
    let mut set = PathSet::new();
    for &(u, v) in &pairs {
        disjoint::disjoint_paths_into(&h, u, v, CrossingOrder::Gray, &mut set, &mut sc).unwrap();
    }

    let per_pair = min_time(repeats, || {
        let mut out = Vec::with_capacity(pairs.len());
        for &(u, v) in &pairs {
            out.push(disjoint::disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap());
        }
        std::hint::black_box(&out);
    });
    let core = min_time(repeats, || {
        for &(u, v) in &pairs {
            disjoint::disjoint_paths_into(&h, u, v, CrossingOrder::Gray, &mut set, &mut sc)
                .unwrap();
            std::hint::black_box(&set);
        }
    });
    let cfg = CacheConfig::default();
    let serial = min_time(repeats, || {
        let out = batch::construct_many_serial(&h, &pairs, CrossingOrder::Gray, cfg).unwrap();
        std::hint::black_box(&out);
    });
    let rayon = min_time(repeats, || {
        let out = batch::construct_many(&h, &pairs, CrossingOrder::Gray, cfg).unwrap();
        std::hint::black_box(&out);
    });

    // Fan share: replay the real (source, targets) fan queries this
    // workload issues, via the construction trace.
    let cube = hypercube::Cube::new(5).unwrap();
    let mut queries: Vec<(u128, Vec<u128>)> = Vec::new();
    for &(u, v) in &pairs {
        if let Ok((_, tr)) = disjoint::disjoint_paths_traced(&h, u, v, CrossingOrder::Gray) {
            queries.push((
                h.node_field(u) as u128,
                tr.source_fan_targets.iter().map(|&t| t as u128).collect(),
            ));
            queries.push((
                h.node_field(v) as u128,
                tr.target_fan_targets.iter().map(|&t| t as u128).collect(),
            ));
        }
    }
    queries.retain(|(_, t)| !t.is_empty());
    let mut fs = hypercube::FanScratch::new();
    for (s, tg) in &queries {
        let _ = hypercube::fan_paths_into(&cube, *s, tg, 0, &mut fs);
    }
    let fan = min_time(repeats, || {
        for (s, tg) in &queries {
            let _ = hypercube::fan_paths_into(&cube, *s, tg, 0, &mut fs);
            std::hint::black_box(&fs);
        }
    });

    println!("per_pair        {:8.1} us/pair", per_pair * 1e6 / n);
    println!("core (no alloc) {:8.1} us/pair", core * 1e6 / n);
    println!(
        "batched_serial  {:8.1} us/pair  ({:.2}x)",
        serial * 1e6 / n,
        per_pair / serial
    );
    println!(
        "batched_rayon   {:8.1} us/pair  ({:.2}x)",
        rayon * 1e6 / n,
        per_pair / rayon
    );
    println!(
        "fan replay      {:8.1} us/pair ({} queries, {:.1} us/call)",
        fan * 1e6 / n,
        queries.len(),
        fan * 1e6 / queries.len() as f64
    );

    // --- Family-cache comparison -------------------------------------
    println!();
    println!(
        "cache section: {} pairs per workload (serial batch)",
        pair_count
    );
    let rows = run_cache_section(&h, cache_repeats, pair_count, pool, mode);
    for r in &rows {
        let fmt = |v: Option<f64>| match v {
            Some(ns) => format!("{:9.0} ns/pair", ns),
            None => "        (skipped)".to_string(),
        };
        let speedup = match (r.on_ns, r.off_ns) {
            (Some(on), Some(off)) => format!("{:5.2}x", off / on),
            _ => "    —".to_string(),
        };
        println!(
            "{:11} ({:5} distinct)  on {}  off {}  speedup {}  family hits {:5.1}%",
            r.name,
            r.distinct,
            fmt(r.on_ns),
            fmt(r.off_ns),
            speedup,
            r.family_hit_rate * 100.0
        );
    }

    // Machine-readable sidecar for CI and the experiment notes.
    let mut o = json::Obj::new();
    o.str("bench", "profile_batch");
    o.u64("quick", quick as u64);
    o.u64("m", 5);
    o.u64("baseline_pairs", pairs.len() as u64);
    o.u64("cache_pairs", pair_count as u64);
    o.f64("per_pair_us", per_pair * 1e6 / n);
    o.f64("core_us", core * 1e6 / n);
    o.f64("batched_serial_us", serial * 1e6 / n);
    o.f64("batched_rayon_us", rayon * 1e6 / n);
    let row_objs: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut ro = json::Obj::new();
            ro.str("workload", r.name);
            ro.u64("distinct_pairs", r.distinct as u64);
            ro.f64("cache_on_ns_per_pair", r.on_ns.unwrap_or(f64::NAN));
            ro.f64("cache_off_ns_per_pair", r.off_ns.unwrap_or(f64::NAN));
            ro.f64(
                "speedup",
                match (r.on_ns, r.off_ns) {
                    (Some(on), Some(off)) => off / on,
                    _ => f64::NAN,
                },
            );
            ro.f64("family_hit_rate", r.family_hit_rate);
            ro.finish()
        })
        .collect();
    o.raw("cache_workloads", &json::array(&row_objs));
    let payload = o.finish();
    // Quick runs feed the perf_gate regression check and must never
    // overwrite the committed full-run baseline.
    let path = if quick {
        "results/BENCH_batch.quick.json"
    } else {
        "results/BENCH_batch.json"
    };
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, payload.as_bytes()))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
