//! `src/bin/` holds the profilers (`profile_batch`, `profile_sim`,
//! `profile_router`) and the CI perf-regression gate (`perf_gate`) built
//! on [`gate`].

pub mod gate {
    //! Perf-regression gating over the `results/BENCH_*.json` sidecars.
    //!
    //! The sidecars are written by our own `obs::json` emitter (flat
    //! objects, no string escapes in the keys we read), so a dependency-
    //! free scanner is enough — the workspace deliberately carries no
    //! JSON parser.
    //!
    //! The gate compares *machine-normalised* ratio metrics (each
    //! profiler's optimised-vs-reference speedup, measured within a
    //! single process on one machine) rather than raw wall-clock
    //! throughput: committed baselines and CI runners are different
    //! machines, so absolute packets/sec would gate on hardware, not on
    //! regressions. A speedup that sags below `1 - max_drop` of its
    //! committed value means the optimised path lost real ground.

    /// Finds the string value of `"key":"..."` at or after `from`,
    /// returning the value and the scan position just past it.
    fn string_value(json: &str, key: &str, from: usize) -> Option<(String, usize)> {
        let pat = format!("\"{key}\":\"");
        let start = json[from..].find(&pat)? + from + pat.len();
        let end = json[start..].find('"')? + start;
        Some((json[start..end].to_string(), end))
    }

    /// Finds the numeric value of `"key":<number>` at or after `from`.
    /// Non-numeric values (e.g. `null`) yield `None`.
    fn number_value(json: &str, key: &str, from: usize) -> Option<(f64, usize)> {
        let pat = format!("\"{key}\":");
        let start = json[from..].find(&pat)? + from + pat.len();
        let rel = json[start..]
            .find([',', '}', ']'])
            .unwrap_or(json.len() - start);
        let end = start + rel;
        json[start..end].trim().parse().ok().map(|v| (v, end))
    }

    /// Top-level scalar metric, e.g. `per_pair_us`.
    pub fn scalar(json: &str, key: &str) -> Option<f64> {
        number_value(json, key, 0).map(|(v, _)| v)
    }

    /// Extracts `(name, value)` pairs from an array of row objects: for
    /// each `"name_key":"<name>"`, the first `"value_key":<number>`
    /// before the next named row. Rows without the metric are skipped.
    pub fn workload_metric(json: &str, name_key: &str, value_key: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut pos = 0;
        while let Some((name, after)) = string_value(json, name_key, pos) {
            let next_row = string_value(json, name_key, after).map_or(json.len(), |(_, e)| {
                // Back up to the start of the next row's name key.
                json[..e].rfind(&format!("\"{name_key}\":\"")).unwrap_or(e)
            });
            if let Some((v, _)) = number_value(&json[..next_row], value_key, after) {
                out.push((name, v));
            }
            pos = after;
        }
        out
    }

    /// Geometric mean of the metric values (`None` when empty or any
    /// value is non-positive). Individual workload speedups are noisy —
    /// the memory-bound ones swing ±25% run to run — but their geomean
    /// is stable to a few percent, so it is the strictly gated figure.
    pub fn geomean(metrics: &[(String, f64)]) -> Option<f64> {
        if metrics.is_empty() || metrics.iter().any(|(_, v)| *v <= 0.0) {
            return None;
        }
        let ln_sum: f64 = metrics.iter().map(|(_, v)| v.ln()).sum();
        Some((ln_sum / metrics.len() as f64).exp())
    }

    /// One gated comparison.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Check {
        /// Metric name (workload or scalar key).
        pub name: String,
        /// Committed baseline value.
        pub baseline: f64,
        /// Freshly measured value.
        pub fresh: f64,
        /// `fresh / baseline` (higher is better for every gated metric).
        pub ratio: f64,
        /// Whether the metric held within the allowed drop.
        pub ok: bool,
    }

    /// Compares fresh higher-is-better metrics against their committed
    /// baselines: a metric fails when `fresh < baseline * (1 - max_drop)`.
    /// Metrics present on only one side are ignored (renaming or adding
    /// workloads must not break the gate); degenerate baselines (≤ 0)
    /// are skipped too.
    pub fn compare(
        baseline: &[(String, f64)],
        fresh: &[(String, f64)],
        max_drop: f64,
    ) -> Vec<Check> {
        let mut out = Vec::new();
        for (name, base) in baseline {
            if *base <= 0.0 {
                continue;
            }
            if let Some((_, f)) = fresh.iter().find(|(n, _)| n == name) {
                let ratio = f / base;
                out.push(Check {
                    name: name.clone(),
                    baseline: *base,
                    fresh: *f,
                    ratio,
                    ok: ratio >= 1.0 - max_drop,
                });
            }
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SIM: &str = r#"{"bench":"profile_sim","quick":0,"workloads":[
            {"workload":"a","nodes":64,"packets_per_sec":1000.5,"speedup":3.0},
            {"workload":"b","nodes":64,"packets_per_sec":null,"speedup":2.0},
            {"workload":"c","nodes":64,"speedup":1.5}],"run_many":{"scaling":1.9}}"#;

        #[test]
        fn scans_scalars_and_rows() {
            assert_eq!(scalar(SIM, "quick"), Some(0.0));
            assert_eq!(scalar(SIM, "missing"), None);
            let pps = workload_metric(SIM, "workload", "packets_per_sec");
            // b's null and c's absent metric are skipped.
            assert_eq!(pps, vec![("a".to_string(), 1000.5)]);
            let sp = workload_metric(SIM, "workload", "speedup");
            assert_eq!(
                sp,
                vec![
                    ("a".to_string(), 3.0),
                    ("b".to_string(), 2.0),
                    ("c".to_string(), 1.5)
                ]
            );
        }

        #[test]
        fn metric_does_not_leak_into_the_next_row() {
            // `speedup` only in the second row: the first row must not
            // steal it.
            let json = r#"[{"workload":"x","nodes":1},{"workload":"y","speedup":2.5}]"#;
            assert_eq!(
                workload_metric(json, "workload", "speedup"),
                vec![("y".to_string(), 2.5)]
            );
        }

        #[test]
        fn compare_gates_on_relative_drop() {
            let base = vec![("a".to_string(), 100.0), ("b".to_string(), 10.0)];
            let fresh = vec![
                ("a".to_string(), 86.0),  // -14%: holds at 15%
                ("b".to_string(), 8.0),   // -20%: fails
                ("c".to_string(), 999.0), // not in baseline: ignored
            ];
            let checks = compare(&base, &fresh, 0.15);
            assert_eq!(checks.len(), 2);
            assert!(checks[0].ok);
            assert!(!checks[1].ok);
            assert!((checks[1].ratio - 0.8).abs() < 1e-12);
        }

        #[test]
        fn geomean_averages_in_log_space() {
            let m = vec![("a".to_string(), 4.0), ("b".to_string(), 1.0)];
            assert!((geomean(&m).unwrap() - 2.0).abs() < 1e-12);
            assert_eq!(geomean(&[]), None);
            assert_eq!(geomean(&[("z".to_string(), 0.0)]), None);
        }

        #[test]
        fn compare_skips_degenerate_and_missing() {
            let base = vec![("z".to_string(), 0.0), ("only_base".to_string(), 5.0)];
            let fresh = vec![("z".to_string(), 1.0)];
            assert!(compare(&base, &fresh, 0.15).is_empty());
        }
    }
}
