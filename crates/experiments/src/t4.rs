//! T4 — wide-diameter estimates.
//!
//! The `(m+1)`-wide diameter is the min-max length over disjoint-path
//! families; the construction upper-bounds it. Reported per m: the largest
//! maximum path length the construction produces (exhaustive for m ≤ 2,
//! adversarial + sampled otherwise), the provable bound and the diameter.

use crate::table::Table;
use crate::util;
use hhc_core::{wide, Hhc, Workspace};

pub fn run() {
    let mut t = Table::new(
        "T4: wide-diameter estimates (construction max length)",
        &[
            "m",
            "mode",
            "pairs",
            "observed max",
            "upper bound",
            "diameter",
            "family hit%",
        ],
    );
    // One workspace across the whole sweep: scratch reuse plus one
    // accumulated construction-metrics sidecar for every pair examined.
    let mut ws = Workspace::new();
    ws.builder.enable_timing(true);
    for m in 1..=6u32 {
        let h = Hhc::new(m).unwrap();
        // Per-m cache effectiveness from metric deltas: the workspace
        // counters are cumulative across the sweep, so subtract the
        // snapshot taken before this m's constructions.
        let before = ws.builder.metrics().construction;
        let (est, mode) = if m <= wide::EXHAUSTIVE_MAX_M {
            let est = wide::exhaustive_with(&h, &mut ws).expect("m within the exhaustive guard");
            (est, "exhaustive")
        } else {
            let adv =
                wide::adversarial_with(&h, &mut ws).expect("adversarial pairs use valid fields");
            let sam = wide::sampled_with(
                &h,
                if m <= 4 { 4000 } else { 1000 },
                0xD1CE + m as u64,
                &mut ws,
            )
            .expect("sampled pairs use masked fields");
            (
                wide::WideDiameterEstimate {
                    observed_max: adv.observed_max.max(sam.observed_max),
                    pairs: adv.pairs + sam.pairs,
                    upper_bound: adv.upper_bound,
                },
                "adversarial+sampled",
            )
        };
        let after = ws.builder.metrics().construction;
        let queries = after.queries - before.queries;
        let hits = after.family_hits - before.family_hits;
        let hit_pct = if queries > 0 {
            util::f2(100.0 * hits as f64 / queries as f64)
        } else {
            "—".into()
        };
        t.row(vec![
            m.to_string(),
            mode.into(),
            est.pairs.to_string(),
            est.observed_max.to_string(),
            est.upper_bound.to_string(),
            h.diameter().to_string(),
            hit_pct,
        ]);
    }
    t.emit("t4_wide_diameter");
    util::write_metrics_sidecar("t4_wide_diameter", &ws.builder.metrics().to_json());
}
