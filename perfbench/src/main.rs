//! The repository benchmark: runs one workload from a seed, prints its
//! metrics with units, checks every output, and ends with one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the end-to-end metrics are printed; with
//! `--trace 1` the per-layer metrics, from spans the benchmark records
//! around its calls into each layer (written to `--out-dir`). The exit
//! code is 0 only when every output matched its oracle and every
//! conservation law held.

mod des;
mod digest;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod zipf;

use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["serve_zipf_faults", "serve_uniform_cold", "des_hhc4_single"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn main() {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, secs, traced, dir) = (a.seed, a.seconds, a.trace, a.out_dir.as_path());
    let code = match a.workload.as_str() {
        "serve_zipf_faults" => serve::run(serve::Kind::ZipfFaults, seed, secs, traced, dir),
        "serve_uniform_cold" => serve::run(serve::Kind::UniformCold, seed, secs, traced, dir),
        "des_hhc4_single" => des::run(seed, secs, traced, dir),
        _ => unreachable!("workload names are validated by parse"),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload des_hhc4_single --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("des_hhc4_single", 9, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload des_hhc4_single --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload des_hhc4_single --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload des_hhc4_single --seconds 1").is_err());
    }
}
