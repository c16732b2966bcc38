//! Sustained-throughput profiler for the concurrent routing service:
//! measures queries/sec of a [`Router`] worker pool under a live fault
//! feed, across thread counts and the three reuse workloads the batch
//! profiler uses (uniform / permutation / hotspot). The `tiered` mode is
//! the default router — every worker consults the shared L2 alone and
//! repairs replays lazily around faults — against two ablation
//! baselines:
//!
//! * `l1_only` — the same pool with the shared L2 tier disabled, so
//!   each worker serves from its own family cache;
//! * `rebuild` — every fault event flushes the caches
//!   ([`Router::flush_caches`]), the classic correct-but-crude answer to
//!   "a fault arrived, the cache might be stale". The default router
//!   instead keeps its fault-blind entries and repairs lazily, so the
//!   gated `speedup` is tiered_qps / rebuild_qps.
//!
//! The fault feed toggles interior nodes of answered families (so lazy
//! invalidation actually fires) on a balanced schedule — every add is
//! later cleared — which keeps each timed pass starting from an empty
//! fault set. Before timing, every router mode's answers over the full
//! schedule are asserted byte-identical to a serial cold-cache oracle;
//! the speedups below are speedups *between equivalent outputs*.
//!
//! `--quick` runs a reduced workload and writes
//! `results/BENCH_router.quick.json` (CI smoke + `perf_gate` input);
//! full runs write `results/BENCH_router.json`.

use hhc_core::{
    disjoint, disjoint_paths_avoiding, CrossingOrder, Hhc, HhcError, L2Config, NodeId, Path,
    QueryBatchResult, Router, RouterConfig,
};
use obs::json;
use std::collections::HashSet;
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

/// One answered query in owned form: the family, or the pair's error.
type Answer = Result<Vec<Path>, HhcError>;

/// One serving workload: a pair sequence plus its reuse label.
struct Workload {
    name: &'static str,
    distinct: usize,
    pairs: Vec<(NodeId, NodeId)>,
}

/// The same three reuse profiles as `profile_batch` (same seeds, so the
/// two sidecars describe the same traffic).
fn make_workloads(h: &Hhc, total: usize, pool: usize) -> Vec<Workload> {
    let uniform = workloads::sampling::random_pairs(h, total, 0x10_000);
    let perm_pool = workloads::sampling::random_pairs(h, pool, 0x22_222);
    let permutation: Vec<_> = perm_pool.iter().copied().cycle().take(total).collect();
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

/// Picks fault-feed targets: interior nodes of the workload's own plain
/// families (so cached entries really do get blocked), skipping nodes
/// that appear as endpoints anywhere in the workload (a faulty endpoint
/// short-circuits to an error, which would pad qps in every mode).
fn fault_pool(h: &Hhc, pairs: &[(NodeId, NodeId)], want: usize) -> Vec<NodeId> {
    let endpoints: HashSet<NodeId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for &(u, v) in pairs {
        if pool.len() >= want {
            break;
        }
        let Ok(paths) = disjoint::disjoint_paths(h, u, v, CrossingOrder::Gray) else {
            continue;
        };
        for p in &paths {
            let w = p[p.len() / 2];
            if p.len() > 2 && !endpoints.contains(&w) && seen.insert(w) {
                pool.push(w);
            }
        }
    }
    assert!(!pool.is_empty(), "no interior fault targets found");
    pool.truncate(want);
    pool
}

/// Per-batch fault events, applied *before* each batch; the extra
/// trailing slot (index `n_batches`) runs after the last batch. Events
/// alternate add/clear of the same node, so the schedule is balanced:
/// every pass starts and ends with an empty fault set, making repeats
/// identical work.
fn make_schedule(n_batches: usize, every: usize, pool: &[NodeId]) -> Vec<Vec<(NodeId, bool)>> {
    let mut schedule = vec![Vec::new(); n_batches + 1];
    let mut e = 0usize;
    let mut b = every;
    while b < n_batches {
        schedule[b].push((pool[(e / 2) % pool.len()], e.is_multiple_of(2)));
        e += 1;
        b += every;
    }
    if e % 2 == 1 {
        schedule[n_batches].push((pool[((e - 1) / 2) % pool.len()], false));
    }
    schedule
}

/// The serial cold-cache oracle over the same batches and fault
/// schedule: every query solved from scratch at its linearisation point.
fn oracle_answers(
    h: &Hhc,
    batches: &[&[(NodeId, NodeId)]],
    schedule: &[Vec<(NodeId, bool)>],
) -> Vec<Answer> {
    let mut faults: HashSet<NodeId> = HashSet::new();
    let mut out = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        for &(w, add) in &schedule[b] {
            if add {
                faults.insert(w);
            } else {
                faults.remove(&w);
            }
        }
        for &(u, v) in *batch {
            out.push(
                disjoint_paths_avoiding(h, u, v, CrossingOrder::Gray, &faults).map(|(p, _)| p),
            );
        }
    }
    out
}

/// Feeds the whole schedule through a router: fault events before each
/// batch (plus the trailing balance slot), queries via
/// `query_many_into` into the reused `out`, every answer copied into
/// `sink` in owned form. The copy is timed too, as it always has been,
/// so qps stays comparable with the committed baselines. `rebuild`
/// flushes the caches after every event — the baseline.
fn run_pass(
    router: &mut Router,
    batches: &[&[(NodeId, NodeId)]],
    schedule: &[Vec<(NodeId, bool)>],
    rebuild: bool,
    out: &mut QueryBatchResult,
    sink: &mut Vec<Answer>,
) {
    sink.clear();
    let apply = |router: &mut Router, events: &[(NodeId, bool)]| {
        for &(w, add) in events {
            if add {
                router.add_fault(w);
            } else {
                router.clear_fault(w);
            }
            if rebuild {
                router.flush_caches();
            }
        }
    };
    for (b, batch) in batches.iter().enumerate() {
        apply(router, &schedule[b]);
        router.query_many_into(batch, out);
        sink.extend(
            out.iter()
                .map(|r| r.map(|f| f.to_paths()).map_err(Clone::clone)),
        );
    }
    apply(router, &schedule[batches.len()]);
    std::hint::black_box(&sink);
}

/// The three router modes per cell.
const MODES: [&str; 3] = ["tiered", "l1_only", "rebuild"];

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    // (timing repeats, pairs per workload, distinct pool, batch size,
    //  fault event every N batches, thread sweep)
    let (repeats, total, pool_sz, batch_sz, fault_every, threads): (_, _, _, _, _, &[usize]) =
        if quick {
            (1, 240, 24, 48, 1, &[1, 2])
        } else {
            (3, 4000, 256, 256, 1, &[1, 2, 4])
        };
    let h = Hhc::new(5).unwrap();
    println!(
        "router profile: HHC(5), {total} pairs/workload, batches of {batch_sz}, \
         fault event every {fault_every} batch(es), min over {repeats} repeat(s)"
    );

    let mut rows: Vec<String> = Vec::new();
    for w in make_workloads(&h, total, pool_sz) {
        let batches: Vec<&[(NodeId, NodeId)]> = w.pairs.chunks(batch_sz).collect();
        let pool = fault_pool(&h, &w.pairs, 8);
        let schedule = make_schedule(batches.len(), fault_every, &pool);
        let fault_events: usize = schedule.iter().map(Vec::len).sum();
        let want = oracle_answers(&h, &batches, &schedule);

        for &t in threads {
            let mut qps = [f64::NAN; MODES.len()];
            let mut tiered_metrics = None;
            for (mi, &mode) in MODES.iter().enumerate() {
                let cfg = RouterConfig {
                    threads: t,
                    order: CrossingOrder::Gray,
                    l1: hhc_core::CacheConfig::enabled(),
                    l2: if mode == "l1_only" {
                        L2Config::disabled()
                    } else {
                        L2Config::enabled()
                    },
                };
                let mut router = Router::new(5, cfg).unwrap();
                let rebuild = mode == "rebuild";
                let mut out = QueryBatchResult::new();
                let mut sink = Vec::new();
                // Warmup pass doubles as the equivalence check: every
                // mode must answer exactly like the cold-cache oracle.
                run_pass(
                    &mut router,
                    &batches,
                    &schedule,
                    rebuild,
                    &mut out,
                    &mut sink,
                );
                assert_eq!(
                    sink, want,
                    "{} mode diverged from the oracle on {}",
                    mode, w.name
                );
                let secs = min_time(repeats, || {
                    run_pass(
                        &mut router,
                        &batches,
                        &schedule,
                        rebuild,
                        &mut out,
                        &mut sink,
                    );
                });
                qps[mi] = w.pairs.len() as f64 / secs;
                if mode == "tiered" {
                    tiered_metrics = Some(router.metrics().construction);
                }
            }
            let c = tiered_metrics.expect("tiered mode always runs");
            let l2_probes = c.l2_hits + c.l2_misses;
            let l2_hit_rate = if l2_probes > 0 {
                c.l2_hits as f64 / l2_probes as f64
            } else {
                f64::NAN
            };
            let speedup = qps[0] / qps[2];
            let speedup_vs_l1 = qps[0] / qps[1];
            println!(
                "{:11} ({:5} distinct) t={}  tiered {:9.0} qps  l1_only {:9.0} qps  \
                 rebuild {:9.0} qps  speedup {:5.2}x (vs l1 {:4.2}x)  l2 hits {:5.1}%  \
                 invalidations {}",
                w.name,
                w.distinct,
                t,
                qps[0],
                qps[1],
                qps[2],
                speedup,
                speedup_vs_l1,
                l2_hit_rate * 100.0,
                c.l2_invalidations,
            );
            let mut ro = json::Obj::new();
            ro.str("workload", &format!("{}_t{}", w.name, t));
            ro.u64("threads", t as u64);
            ro.u64("distinct_pairs", w.distinct as u64);
            ro.u64("fault_events", fault_events as u64);
            ro.f64("tiered_qps", qps[0]);
            ro.f64("l1_only_qps", qps[1]);
            ro.f64("rebuild_qps", qps[2]);
            ro.f64("speedup", speedup);
            ro.f64("speedup_vs_l1", speedup_vs_l1);
            ro.f64("l2_hit_rate", l2_hit_rate);
            ro.f64("family_hit_rate", c.family_hit_rate().unwrap_or(f64::NAN));
            ro.u64("l2_invalidations", c.l2_invalidations);
            ro.u64("fault_reroutes", c.fault_reroutes);
            rows.push(ro.finish());
        }
    }

    let mut o = json::Obj::new();
    o.str("bench", "profile_router");
    o.u64("quick", quick as u64);
    o.u64("m", 5);
    o.u64("pairs_per_workload", total as u64);
    o.u64("batch_size", batch_sz as u64);
    o.u64("fault_every_batches", fault_every as u64);
    // 1-CPU containers make thread-sweep numbers self-explanatory only
    // with the host parallelism recorded next to them.
    o.u64(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    o.raw(
        "threads_swept",
        &json::u64_array(&threads.iter().map(|&t| t as u64).collect::<Vec<_>>()),
    );
    o.raw("cells", &json::array(&rows));
    let payload = o.finish();
    // Quick runs feed the perf_gate regression check and must never
    // overwrite the committed full-run results.
    let path = if quick {
        "results/BENCH_router.quick.json"
    } else {
        "results/BENCH_router.json"
    };
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, payload.as_bytes()))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
