//! The run's result: readable metric lines as they are produced, then
//! one JSON object as the last line of standard output.

use crate::stats::{describe_percentile, median, percentile, sorted, windowed_rate};
use crate::trace::Recorder;
use std::fmt::Write;
use std::path::Path;

/// Windows the timed units are cut into for the throughput median.
pub const WINDOWS: usize = 20;

/// End-to-end metrics, printed by every untraced run: name and unit.
/// `ops_per_s` is queries per second on the router workloads and
/// delivered packets per host-second on the simulator workloads; a
/// batch is 256 queries or one simulator replication.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not reach the layer). Times in `us`/`ms` are host time;
/// `cycles` and the `1/pkt` count are simulated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.self_us", "us"),
    ("family_cache.hit_rate", "ratio"),
    ("family_cache.replay_us", "us"),
    ("family_cache.bypass_events", "count"),
    ("shared.hit_rate", "ratio"),
    ("shared.replay_us", "us"),
    ("shared.invalidations", "count"),
    ("shared.store_us", "us"),
    ("shared.entries", "count"),
    ("avoid.scan_us", "us"),
    ("avoid.rebuild_us", "us"),
    ("avoid.reroute_share", "ratio"),
    ("disjoint.cold_us", "us"),
    ("fan.queries_per_query", "1/query"),
    ("fan.cache_hit_rate", "ratio"),
    ("fan.fast_path_share", "ratio"),
    ("dinic.augmentations_per_query", "1/query"),
    ("dinic.arcs_touched_per_query", "1/query"),
    ("net.route_us", "us"),
    ("net.linktable_ms", "ms"),
    ("flat.self_ms", "ms"),
    ("flat.links_materialised_share", "ratio"),
    ("flat.bytes_per_node", "B/node"),
    ("flat.transmissions_per_pkt", "1/pkt"),
    ("flat.queueing_delay_cycles", "cycles"),
    ("trace.overhead_share", "ratio"),
];

pub struct Report {
    /// Outputs checked against their oracle.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Broken invariants (conservation laws, failed operations).
    violations: Vec<String>,
    expected: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        let expected = if traced { PER_LAYER } else { END_TO_END };
        Report {
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            expected,
            values: vec![None; expected.len()],
        }
    }

    /// Records one of this run's metrics and prints it with `note`.
    pub fn metric(&mut self, name: &str, value: f64, note: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let i = self
            .expected
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        assert!(self.values[i].is_none(), "{name} reported twice");
        println!("{name:<32} {value:>16.6} {:<7} {note}", self.expected[i].1);
        self.values[i] = Some(value);
    }

    /// Reports the end-to-end metrics of an untraced run from its timed
    /// units `(operations, seconds)`; `what` names the operation and the
    /// unit for the readable lines.
    pub fn end_to_end(
        &mut self,
        units: &[(u64, f64)],
        what: &str,
        setup_secs: &[f64],
        peak_rss: f64,
    ) {
        let ops: u64 = units.iter().map(|u| u.0).sum();
        self.metric(
            "ops_per_s",
            windowed_rate(units, WINDOWS),
            &format!(
                "{what}: median of {} window rates over {} units, {ops} operations",
                WINDOWS.min(units.len()),
                units.len()
            ),
        );
        let ms = sorted(&units.iter().map(|u| u.1 * 1e3).collect::<Vec<_>>());
        for (name, p) in [("batch_p50_ms", 0.5), ("batch_p90_ms", 0.9)] {
            println!(
                "{}",
                describe_percentile(&format!("  {name}"), &ms, p, "ms")
            );
            self.metric(name, percentile(&ms, p), "");
        }
        self.metric(
            "peak_rss_mb",
            peak_rss,
            "VmHWM at the end of the timed phase",
        );
        self.metric(
            "setup_s",
            median(setup_secs),
            &format!("median of {} set-ups: {setup_secs:.3?}", setup_secs.len()),
        );
    }

    /// Writes the traced run's spans to `<dir>/trace-<workload>-<seed>.csv`.
    pub fn save_trace(&mut self, rec: &Recorder, dir: &Path, workload: &str, seed: u64) {
        let path = dir.join(format!("trace-{workload}-{seed}.csv"));
        match rec.write_csv(&path) {
            Ok(()) => println!("wrote {} spans to {}", rec.spans().len(), path.display()),
            Err(e) => self.law(false, format!("writing {}: {e}", path.display())),
        }
    }

    /// Checks an invariant; a broken one fails the run.
    pub fn law(&mut self, holds: bool, what: String) {
        let verdict = if holds { "holds" } else { "BROKEN" };
        println!("check {verdict:<7} {what}");
        if !holds {
            self.violations.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// Prints `fail_share` and the JSON line; returns the exit code.
    /// Per-layer metrics the workload never reached are reported as 0.
    pub fn finish(mut self) -> i32 {
        for (i, &(name, _)) in self.expected.iter().enumerate() {
            if self.values[i].is_none() {
                assert!(
                    self.expected == PER_LAYER,
                    "end-to-end metric {name} was not measured"
                );
                self.metric(name, 0.0, "not reached by this workload");
            }
        }
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<32} {share:>16.6} {:<7} ({} of {} outputs failed their check)",
            "fail_share", "ratio", self.failed, self.attempted
        );
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, (&(name, unit), value)) in self.expected.iter().zip(&self.values).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = value.expect("every metric is set above");
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
        if self.correct() {
            0
        } else {
            for v in &self.violations {
                eprintln!("perfbench: {v}");
            }
            eprintln!(
                "perfbench: {} of {} outputs failed their check",
                self.failed, self.attempted
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` list the same
    /// names and units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = start + json[start..].find(']').expect("section closes");
            json[start..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &obj[at + f.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("string ends");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn unreached_layers_are_filled_with_zero() {
        let mut r = Report::new(true);
        r.attempted = 1;
        r.metric("service.self_us", 1.5, "");
        assert_eq!(r.finish(), 0);
    }
}
