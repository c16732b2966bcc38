//! CI perf-regression gate: compares a fresh `--quick` profiler sidecar
//! against the committed quick-mode baseline and exits non-zero when the
//! machine-normalised speedup figures regressed.
//!
//! ```text
//! perf_gate --kind sim    --baseline results/BENCH_sim.gate.json    --fresh results/BENCH_sim.quick.json
//! perf_gate --kind batch  --baseline results/BENCH_batch.gate.json  --fresh results/BENCH_batch.quick.json
//! perf_gate --kind router --baseline results/BENCH_router.gate.json --fresh results/BENCH_router.quick.json
//! ```
//!
//! Gated metrics (all ratios measured within one process, so they are
//! comparable across machines — see `bench::gate`):
//!
//! * `sim` — per-workload `speedup` (default engine vs a reference
//!   engine: eager/full on the small workloads, lazy/full on HHC(4)).
//! * `batch` — per-cache-workload `speedup` (cache on vs off) and the
//!   batch amortisation ratio `per_pair_us / batched_serial_us`.
//! * `router` — per-workload `speedup` (the default router, which
//!   repairs shared-cache replays lazily, vs the flush-on-fault
//!   baseline, under the live fault feed).
//!
//! Two tiers: the **geomean** of the workload speedups is gated
//! strictly at `--max-drop` (default 15%) — it is stable to a few
//! percent run-to-run. Individual workloads and single-measurement
//! scalar ratios (amortisation) are gated loosely at `max_drop + 0.25`:
//! enough slack for the ±25% swings quick-mode measurements show on
//! shared runners, tight enough to catch an optimisation collapsing.
//!
//! Baselines are quick-mode runs committed as `BENCH_*.gate.json`
//! (quick and full configs produce systematically different speedups,
//! so the gate must compare like with like). To re-record after an
//! intentional perf change:
//!
//! ```text
//! cargo run --release -p bench --bin profile_sim -- --quick
//! cp results/BENCH_sim.quick.json results/BENCH_sim.gate.json
//! ```
//!
//! (and the same for `profile_batch`).

use bench::gate;

/// `(name, value)` metric list extracted from one sidecar.
type Metrics = Vec<(String, f64)>;

fn usage() -> ! {
    eprintln!(
        "usage: perf_gate --kind <sim|batch|router> --baseline <json> --fresh <json> [--max-drop <frac>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut max_drop = 0.15f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kind" => kind = it.next().cloned(),
            "--baseline" => baseline_path = it.next().cloned(),
            "--fresh" => fresh_path = it.next().cloned(),
            "--max-drop" => {
                max_drop = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let (Some(kind), Some(baseline_path), Some(fresh_path)) = (kind, baseline_path, fresh_path)
    else {
        usage()
    };
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("perf_gate: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let base = read(&baseline_path);
    let fresh = read(&fresh_path);

    // (strict scalar metrics, per-workload metrics) for one sidecar.
    let metrics = |json: &str| -> (Metrics, Metrics) {
        let workloads = gate::workload_metric(json, "workload", "speedup");
        let mut strict = Vec::new();
        if let Some(g) = gate::geomean(&workloads) {
            strict.push(("speedup_geomean".to_string(), g));
        }
        let mut loose = workloads;
        match kind.as_str() {
            "sim" | "router" => {}
            "batch" => {
                // Quick-mode scalar timings are single measurements, so
                // their ratio swings ~±20% run-to-run: loose tier.
                if let (Some(pp), Some(bs)) = (
                    gate::scalar(json, "per_pair_us"),
                    gate::scalar(json, "batched_serial_us"),
                ) {
                    if bs > 0.0 {
                        loose.push(("batch_amortization".to_string(), pp / bs));
                    }
                }
            }
            _ => usage(),
        }
        (strict, loose)
    };

    let (base_strict, base_loose) = metrics(&base);
    let (fresh_strict, fresh_loose) = metrics(&fresh);
    let loose_drop = max_drop + 0.25;
    let mut checks = gate::compare(&base_strict, &fresh_strict, max_drop);
    let n_strict = checks.len();
    checks.extend(gate::compare(&base_loose, &fresh_loose, loose_drop));
    if n_strict == 0 {
        eprintln!(
            "perf_gate: no strictly gated metrics between {baseline_path} and {fresh_path} — \
             the gate would be vacuous"
        );
        std::process::exit(1);
    }
    println!(
        "perf_gate ({kind}): allowed drop {:.0}% aggregate, {:.0}% per workload  [{} metrics]",
        max_drop * 100.0,
        loose_drop * 100.0,
        checks.len()
    );
    let mut failed = false;
    for (i, c) in checks.iter().enumerate() {
        println!(
            "  {:32} baseline {:>9.3}  fresh {:>9.3}  ratio {:>5.2}  {}",
            c.name,
            c.baseline,
            c.fresh,
            c.ratio,
            match (c.ok, i < n_strict) {
                (true, _) => "ok",
                (false, true) => "REGRESSED",
                (false, false) => "REGRESSED (workload)",
            }
        );
        failed |= !c.ok;
    }
    if failed {
        eprintln!("perf_gate: speedup regression beyond the allowed drop");
        std::process::exit(1);
    }
}
