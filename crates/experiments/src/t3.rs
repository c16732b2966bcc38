//! T3 — construction cost: constructive (symbolic) vs max-flow baseline.
//!
//! The baseline computes a Menger-optimal disjoint path set by vertex-split
//! Dinic on the *materialised* graph; it is exact but needs `O(2^n)` memory
//! and time per pair. The paper-style construction is symbolic and
//! output-sensitive.
//!
//! The CSV holds what is exact and reproducible: per m, the pair count,
//! the constructive effort per pair (fan queries and Dinic augmentations,
//! from the batch workspace's [`MetricsReport`](hhc_core::MetricsReport))
//! and the path-count cross-check (every family, constructive and
//! baseline, must have `m + 1` paths). Per-pair wall times for both
//! methods (where the baseline is feasible) and the resulting speedup go
//! to the `t3_cost.metrics.json` sidecar and to stdout.

use crate::table::Table;
use crate::util;
use graphs::vertex_disjoint::vertex_disjoint_paths;
use hhc_core::{CrossingOrder, Hhc, NodeId, Workspace};
use obs::json::{self, Obj};
use std::time::Instant;

pub fn run() {
    let mut t = Table::new(
        "T3: construction effort per pair (batched workspace)",
        &[
            "m",
            "nodes",
            "pairs",
            "fan queries/pair",
            "augmentations/pair",
            "paths==m+1",
        ],
    );
    let mut timings = Table::new(
        "T3: construction cost per pair — constructive (per-pair / batched) vs max-flow baseline",
        &["m", "per-pair µs", "batched µs", "flow µs", "speedup"],
    );
    let mut sidecar = Vec::new();
    for m in 1..=6u32 {
        let h = Hhc::new(m).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = {
            let mut rng = util::rng(0xACE + m as u64);
            let count = if m <= 3 { 64 } else { 256 };
            (0..count)
                .map(|_| util::random_pair(&h, &mut rng))
                .collect()
        };
        let per = |x: u64| util::f2(x as f64 / pairs.len() as f64);

        // Constructive timing, allocating per pair (the legacy API).
        let start = Instant::now();
        let mut ok = true;
        for &(u, v) in &pairs {
            let paths = hhc_core::disjoint::disjoint_paths(&h, u, v, CrossingOrder::Gray)
                .expect("construction");
            ok &= paths.len() as u32 == h.degree();
        }
        let cons_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;

        // Constructive timing and effort through one reused workspace
        // (batch engine).
        let mut ws = Workspace::new();
        let start = Instant::now();
        for &(u, v) in &pairs {
            let set = ws
                .construct(&h, u, v, CrossingOrder::Gray)
                .expect("construction");
            ok &= set.len() as u32 == h.degree();
        }
        let batch_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;
        let effort = ws.builder.metrics();

        let mut row = Obj::new();
        row.u64("m", m as u64);
        row.u64("pairs", pairs.len() as u64);
        row.f64("per_pair_us", cons_us);
        row.f64("batched_us", batch_us);
        // Baseline timing (materialisable sizes only).
        let (flow_cell, speedup_cell) = if m <= 3 {
            let g = h.materialize().unwrap();
            let start = Instant::now();
            for &(u, v) in &pairs {
                let ps = vertex_disjoint_paths(&g, u.raw() as u32, v.raw() as u32);
                ok &= ps.len() as u32 == h.degree();
            }
            let flow_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;
            row.f64("flow_us", flow_us);
            row.f64("speedup", flow_us / batch_us);
            (util::f2(flow_us), util::f2(flow_us / batch_us))
        } else {
            (format!("— (2^{} nodes)", h.n()), "—".into())
        };
        sidecar.push(row.finish());

        t.row(vec![
            m.to_string(),
            format!("2^{}", h.n()),
            pairs.len().to_string(),
            per(effort.fan_queries()),
            per(effort.solver.augmentations),
            ok.to_string(),
        ]);
        timings.row(vec![
            m.to_string(),
            util::f2(cons_us),
            util::f2(batch_us),
            flow_cell,
            speedup_cell,
        ]);
    }
    t.emit("t3_cost");
    println!("{}", timings.render());
    util::write_metrics_sidecar("t3_cost", &json::array(&sidecar));
}
