//! Command parsing and execution for the `hhc` binary.
//!
//! Kept in a library so the dispatch logic is unit-testable; `main.rs`
//! only forwards `std::env::args` and sets the exit code.
//!
//! ```text
//! hhc info <m>
//! hhc route <m> <X:Y> <X:Y>
//! hhc disjoint <m> <X:Y> <X:Y> [--sorted] [--metrics]
//! hhc wide <m> [--samples N] [--metrics]
//! hhc stats <m> [--pairs N] [--seed S]
//! hhc broadcast <m> <X:Y>
//! hhc trace <m> <X:Y> <X:Y>
//! ```
//!
//! Node syntax: `X:Y` where both fields are hexadecimal (`0x` optional),
//! e.g. `a5:3` = cube field 0xA5, node field 3.
//!
//! No subcommand panics on a syntactically valid invocation: every
//! failure — bad parameters, out-of-range nodes, unsupported scales —
//! comes back as a [`CliError`] (exit code 2).

use hhc_core::disjoint::ConstructionCase;
use hhc_core::{
    bounds, collectives, disjoint, verify, wide, CrossingOrder, Hhc, NodeId, Workspace,
};
use std::fmt::Write as _;

/// A parsed command, ready to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Info {
        m: u32,
    },
    Route {
        m: u32,
        u: (u128, u32),
        v: (u128, u32),
    },
    Disjoint {
        m: u32,
        u: (u128, u32),
        v: (u128, u32),
        sorted: bool,
        metrics: bool,
        /// Faulty nodes the family must avoid (empty = plain construction).
        avoid: Vec<(u128, u32)>,
    },
    Wide {
        m: u32,
        samples: u64,
        metrics: bool,
    },
    Stats {
        m: u32,
        pairs: usize,
        seed: u64,
    },
    Broadcast {
        m: u32,
        root: (u128, u32),
    },
    Trace {
        m: u32,
        u: (u128, u32),
        v: (u128, u32),
    },
    Sim {
        /// Path of the scenario TOML file.
        scenario: String,
        /// What to do with it (run, record, replay, shrink).
        mode: SimMode,
        /// Golden trace path override (default:
        /// `results/scenarios/<name>.trace`).
        golden: Option<String>,
    },
    Serve {
        m: u32,
        /// Query file path, or `-` for stdin: one `X:Y X:Y` pair per
        /// line, `#` comments and blank lines skipped.
        queries: String,
        /// Optional fault schedule path: `<at> <+|-> <X:Y>` per line,
        /// applied at the window boundary before query number `<at>`.
        faults: Option<String>,
        /// Worker threads (`None` = the router's default).
        threads: Option<usize>,
        /// Queries per reporting window.
        window: usize,
        metrics: bool,
    },
}

/// What `hhc sim` does with a parsed scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Execute and print the report; expectation violations are errors.
    #[default]
    Run,
    /// Execute and (over)write the golden trace file.
    Record,
    /// Execute and byte-compare against the golden trace file.
    Replay,
    /// Delta-debug a failing scenario to a minimal reproducer and
    /// print its canonical TOML.
    Shrink,
}

/// A CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Usage text.
pub const USAGE: &str = "usage:
  hhc info <m>                         topology facts for HHC(m)
  hhc route <m> <X:Y> <X:Y>            single Gray route between two nodes
  hhc disjoint <m> <X:Y> <X:Y> [--sorted] [--metrics] [--avoid X:Y,X:Y,...]
                                       the m+1 node-disjoint paths (verified);
                                       --avoid builds a family around faults
  hhc wide <m> [--samples N] [--metrics]
                                       wide-diameter estimate
  hhc stats <m> [--pairs N] [--seed S] construction metrics over random pairs
  hhc broadcast <m> <X:Y>              one-port broadcast schedule (m ≤ 3)
  hhc trace <m> <X:Y> <X:Y>            dissect the construction (plans, fans)
  hhc sim --scenario <file> [--record|--replay|--shrink] [--golden <path>]
                                       run a declarative scenario (see
                                       SCENARIOS.md); --record writes the
                                       golden trace, --replay byte-compares
                                       against it, --shrink minimises a
                                       failing scenario
  hhc serve <m> --queries <file|-> [--faults <file>] [--threads N]
                [--window N] [--metrics]
                                       answer a query stream through the
                                       concurrent router (shared L2 cache);
                                       queries are `X:Y X:Y` lines, the
                                       fault schedule is `<at> <+|-> <X:Y>`
                                       lines applied at window boundaries;
                                       reports per-window qps and p50/p99
                                       service time
node syntax: X:Y, both fields hexadecimal (e.g. a5:3)
--metrics appends a JSON line with solver/fan/timing counters";

/// Parses a node literal `X:Y` (hex fields, optional `0x` prefixes).
pub fn parse_node(s: &str) -> Result<(u128, u32), CliError> {
    let (x, y) = s
        .split_once(':')
        .ok_or_else(|| CliError(format!("node {s:?} is not of the form X:Y")))?;
    let strip = |t: &str| {
        t.trim()
            .trim_start_matches("0x")
            .trim_start_matches("0X")
            .to_string()
    };
    let xv = u128::from_str_radix(&strip(x), 16)
        .map_err(|e| CliError(format!("cube field {x:?}: {e}")))?;
    let yv = u32::from_str_radix(&strip(y), 16)
        .map_err(|e| CliError(format!("node field {y:?}: {e}")))?;
    Ok((xv, yv))
}

/// Parses an argument vector (without the program name).
///
/// Parsing is strict: unknown flags, repeated flags and stray positional
/// arguments are errors, never silently ignored.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let cmd = args.first().ok_or_else(|| CliError(USAGE.into()))?;
    let m = |i: usize| -> Result<u32, CliError> {
        args.get(i)
            .ok_or_else(|| CliError("missing <m>".into()))?
            .parse::<u32>()
            .map_err(|e| CliError(format!("bad m: {e}")))
    };
    let node = |i: usize| -> Result<(u128, u32), CliError> {
        parse_node(args.get(i).ok_or_else(|| CliError("missing node".into()))?)
    };
    // Rejects anything beyond the expected positional arguments (for
    // commands without flags).
    let exact = |n: usize| -> Result<(), CliError> {
        match args.get(n) {
            Some(extra) => Err(CliError(format!("unexpected argument {extra:?}\n{USAGE}"))),
            None => Ok(()),
        }
    };
    match cmd.as_str() {
        "info" => {
            exact(2)?;
            Ok(Command::Info { m: m(1)? })
        }
        "route" => {
            exact(4)?;
            Ok(Command::Route {
                m: m(1)?,
                u: node(2)?,
                v: node(3)?,
            })
        }
        "disjoint" => {
            let (mut sorted, mut metrics) = (false, false);
            let mut avoid: Option<Vec<(u128, u32)>> = None;
            let mut i = 4.min(args.len());
            while i < args.len() {
                match args[i].as_str() {
                    "--sorted" if !sorted => {
                        sorted = true;
                        i += 1;
                    }
                    "--metrics" if !metrics => {
                        metrics = true;
                        i += 1;
                    }
                    "--avoid" if avoid.is_none() => {
                        let list = args
                            .get(i + 1)
                            .ok_or_else(|| CliError("--avoid needs a node list".into()))?;
                        avoid = Some(
                            list.split(',')
                                .map(parse_node)
                                .collect::<Result<Vec<_>, _>>()?,
                        );
                        i += 2;
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Command::Disjoint {
                m: m(1)?,
                u: node(2)?,
                v: node(3)?,
                sorted,
                metrics,
                avoid: avoid.unwrap_or_default(),
            })
        }
        "wide" => {
            let (mut samples, mut metrics) = (None, false);
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--samples" if samples.is_none() => {
                        let n = args
                            .get(i + 1)
                            .ok_or_else(|| CliError("--samples needs a count".into()))?;
                        samples = Some(
                            n.parse()
                                .map_err(|e| CliError(format!("bad sample count: {e}")))?,
                        );
                        i += 2;
                    }
                    "--metrics" if !metrics => {
                        metrics = true;
                        i += 1;
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Command::Wide {
                m: m(1)?,
                samples: samples.unwrap_or(1000),
                metrics,
            })
        }
        "stats" => {
            let (mut pairs, mut seed) = (None, None);
            let mut i = 2;
            while i < args.len() {
                let val = |name: &str| -> Result<&String, CliError> {
                    args.get(i + 1)
                        .ok_or_else(|| CliError(format!("{name} needs a value")))
                };
                match args[i].as_str() {
                    "--pairs" if pairs.is_none() => {
                        pairs = Some(
                            val("--pairs")?
                                .parse()
                                .map_err(|e| CliError(format!("bad pair count: {e}")))?,
                        );
                        i += 2;
                    }
                    "--seed" if seed.is_none() => {
                        seed = Some(
                            val("--seed")?
                                .parse()
                                .map_err(|e| CliError(format!("bad seed: {e}")))?,
                        );
                        i += 2;
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Command::Stats {
                m: m(1)?,
                pairs: pairs.unwrap_or(1000),
                seed: seed.unwrap_or(0xC11),
            })
        }
        "broadcast" => {
            exact(3)?;
            Ok(Command::Broadcast {
                m: m(1)?,
                root: node(2)?,
            })
        }
        "trace" => {
            exact(4)?;
            Ok(Command::Trace {
                m: m(1)?,
                u: node(2)?,
                v: node(3)?,
            })
        }
        "sim" => {
            let mut scenario: Option<String> = None;
            let mut mode: Option<SimMode> = None;
            let mut golden: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--scenario" if scenario.is_none() => {
                        scenario = Some(
                            args.get(i + 1)
                                .ok_or_else(|| CliError("--scenario needs a file path".into()))?
                                .clone(),
                        );
                        i += 2;
                    }
                    "--golden" if golden.is_none() => {
                        golden = Some(
                            args.get(i + 1)
                                .ok_or_else(|| CliError("--golden needs a file path".into()))?
                                .clone(),
                        );
                        i += 2;
                    }
                    flag @ ("--record" | "--replay" | "--shrink") if mode.is_none() => {
                        mode = Some(match flag {
                            "--record" => SimMode::Record,
                            "--replay" => SimMode::Replay,
                            _ => SimMode::Shrink,
                        });
                        i += 1;
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Command::Sim {
                scenario: scenario.ok_or_else(|| CliError("sim needs --scenario <file>".into()))?,
                mode: mode.unwrap_or_default(),
                golden,
            })
        }
        "serve" => {
            let mut queries: Option<String> = None;
            let mut faults: Option<String> = None;
            let mut threads: Option<usize> = None;
            let mut window: Option<usize> = None;
            let mut metrics = false;
            let mut i = 2.min(args.len());
            while i < args.len() {
                let val = |name: &str| -> Result<&String, CliError> {
                    args.get(i + 1)
                        .ok_or_else(|| CliError(format!("{name} needs a value")))
                };
                match args[i].as_str() {
                    "--queries" if queries.is_none() => {
                        queries = Some(val("--queries")?.clone());
                        i += 2;
                    }
                    "--faults" if faults.is_none() => {
                        faults = Some(val("--faults")?.clone());
                        i += 2;
                    }
                    "--threads" if threads.is_none() => {
                        let n: usize = val("--threads")?
                            .parse()
                            .map_err(|e| CliError(format!("bad thread count: {e}")))?;
                        if n == 0 {
                            return Err(CliError("--threads must be at least 1".into()));
                        }
                        threads = Some(n);
                        i += 2;
                    }
                    "--window" if window.is_none() => {
                        let n: usize = val("--window")?
                            .parse()
                            .map_err(|e| CliError(format!("bad window size: {e}")))?;
                        if n == 0 {
                            return Err(CliError("--window must be at least 1".into()));
                        }
                        window = Some(n);
                        i += 2;
                    }
                    "--metrics" if !metrics => {
                        metrics = true;
                        i += 1;
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
            }
            Ok(Command::Serve {
                m: m(1)?,
                queries: queries
                    .ok_or_else(|| CliError("serve needs --queries <file|->".into()))?,
                faults,
                threads,
                window: window.unwrap_or(256),
                metrics,
            })
        }
        other => Err(CliError(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// One fault-schedule event: before query `at`, add (`true`) or clear
/// (`false`) the node.
type FaultEvent = (usize, bool, (u128, u32));

/// Parses a fault schedule: one `<at> <+|-> <X:Y>` per line, `#`
/// comments and blank lines skipped. Events keep file order within the
/// same `at` (a stable sort happens at execution time).
fn parse_fault_schedule(src: &str) -> Result<Vec<FaultEvent>, CliError> {
    let mut events = Vec::new();
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| CliError(format!("fault schedule line {}: {what}", ln + 1));
        let at: usize = parts
            .next()
            .ok_or_else(|| err("missing query index"))?
            .parse()
            .map_err(|e| err(&format!("bad query index: {e}")))?;
        let add = match parts.next() {
            Some("+") => true,
            Some("-") => false,
            _ => return Err(err("expected `+` or `-` after the query index")),
        };
        let node = parse_node(parts.next().ok_or_else(|| err("missing node"))?)?;
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        events.push((at, add, node));
    }
    Ok(events)
}

/// An `(X, Y)` address pair as parsed from text, before validation
/// against a concrete `Hhc`.
type RawPair = ((u128, u32), (u128, u32));

/// Parses a query stream: one `X:Y X:Y` pair per line, `#` comments and
/// blank lines skipped.
fn parse_query_stream(src: &str) -> Result<Vec<RawPair>, CliError> {
    let mut pairs = Vec::new();
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| CliError(format!("query line {}: {what}", ln + 1));
        let u = parse_node(parts.next().ok_or_else(|| err("missing source node"))?)?;
        let v = parse_node(parts.next().ok_or_else(|| err("missing target node"))?)?;
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        pairs.push((u, v));
    }
    Ok(pairs)
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    let mut out = String::new();
    let net = |m: u32| Hhc::new(m).map_err(|e| CliError(e.to_string()));
    let mk = |h: &Hhc, (x, y): (u128, u32)| -> Result<NodeId, CliError> {
        h.node(x, y).map_err(|e| CliError(e.to_string()))
    };
    match *cmd {
        Command::Info { m } => {
            let h = net(m)?;
            let _ = writeln!(out, "HHC({m}): n = {} address bits", h.n());
            let _ = writeln!(out, "  nodes         : 2^{} = {}", h.n(), h.num_nodes());
            let _ = writeln!(out, "  degree        : {} (= connectivity)", h.degree());
            let _ = writeln!(out, "  son-cube      : Q_{m} ({} nodes)", h.positions());
            let _ = writeln!(out, "  diameter      : {}", h.diameter());
            let _ = writeln!(
                out,
                "  wide-diameter ≤ {}",
                bounds::wide_diameter_upper_bound(&h)
            );
        }
        Command::Route { m, u, v } => {
            let h = net(m)?;
            let (u, v) = (mk(&h, u)?, mk(&h, v)?);
            let p = h.route(u, v).map_err(|e| CliError(e.to_string()))?;
            let _ = writeln!(out, "route length {}:", p.len() - 1);
            for x in &p {
                let _ = writeln!(out, "  {}", h.format_node(*x));
            }
        }
        Command::Disjoint {
            m,
            u,
            v,
            sorted,
            metrics,
            ref avoid,
        } => {
            let h = net(m)?;
            let (u, v) = (mk(&h, u)?, mk(&h, v)?);
            let order = if sorted {
                CrossingOrder::Sorted
            } else {
                CrossingOrder::Gray
            };
            let mut ws = Workspace::new();
            ws.builder.enable_timing(metrics);
            let paths = if avoid.is_empty() {
                let paths = ws
                    .construct(&h, u, v, order)
                    .map_err(|e| CliError(e.to_string()))?
                    .to_paths();
                let bound = bounds::length_bound(&h, u, v);
                let _ = writeln!(
                    out,
                    "{} node-disjoint paths (verified; bound {bound}):",
                    paths.len()
                );
                paths
            } else {
                let faults = avoid
                    .iter()
                    .map(|&a| mk(&h, a))
                    .collect::<Result<std::collections::HashSet<NodeId>, _>>()?;
                let (outcome, set) = ws
                    .construct_avoiding(&h, u, v, order, &faults)
                    .map_err(|e| CliError(e.to_string()))?;
                let paths = set.to_paths();
                for p in &paths {
                    if let Some(w) = p.iter().find(|w| faults.contains(w)) {
                        return Err(CliError(format!(
                            "internal error: path visits avoided node {}",
                            h.format_node(*w)
                        )));
                    }
                }
                let _ = writeln!(
                    out,
                    "{} node-disjoint paths avoiding {} faults (verified; {}):",
                    paths.len(),
                    faults.len(),
                    if outcome.rerouted {
                        "rerouted around faults"
                    } else {
                        "plain family already fault-free"
                    }
                );
                paths
            };
            verify::verify_disjoint_paths(&h, u, v, &paths).map_err(CliError)?;
            for (i, p) in paths.iter().enumerate() {
                let hops: Vec<String> = p.iter().map(|x| h.format_node(*x)).collect();
                let _ = writeln!(out, "  P{i} len {:2}: {}", p.len() - 1, hops.join(" -> "));
            }
            if metrics {
                let _ = writeln!(out, "metrics: {}", ws.builder.metrics().to_json());
            }
        }
        Command::Wide {
            m,
            samples,
            metrics,
        } => {
            let h = net(m)?;
            let mut ws = Workspace::new();
            ws.builder.enable_timing(metrics);
            let est = if m <= wide::EXHAUSTIVE_MAX_M {
                wide::exhaustive_with(&h, &mut ws)
            } else {
                wide::sampled_with(&h, samples, 0xC11, &mut ws)
            }
            .map_err(|e| CliError(e.to_string()))?;
            let _ = writeln!(
                out,
                "wide diameter estimate over {} pairs: observed max {}, bound {}, diameter {}",
                est.pairs,
                est.observed_max,
                est.upper_bound,
                h.diameter()
            );
            if metrics {
                let _ = writeln!(out, "metrics: {}", ws.builder.metrics().to_json());
            }
        }
        Command::Stats { m, pairs, seed } => {
            let h = net(m)?;
            let mut ws = Workspace::new();
            ws.builder.enable_timing(true);
            for (u, v) in workloads::sampling::random_pairs(&h, pairs, seed) {
                ws.construct(&h, u, v, CrossingOrder::Gray)
                    .map_err(|e| CliError(e.to_string()))?;
            }
            let report = ws.builder.metrics();
            let c = &report.construction;
            let _ = writeln!(
                out,
                "constructed {} pair families on HHC({m}) (seed {seed:#x}):",
                c.queries
            );
            let _ = writeln!(
                out,
                "  cases         : {} same-cube, {} cross-cube",
                c.same_cube, c.cross_cube
            );
            let _ = writeln!(
                out,
                "  plans         : {} rotations, {} detours",
                c.rotation_plans, c.detour_plans
            );
            let _ = writeln!(
                out,
                "  fan queries   : {} ({} targets, {} direct-seeded)",
                report.fan_queries(),
                report.src_fan.targets_requested + report.tgt_fan.targets_requested,
                report.src_fan.seeded_direct + report.tgt_fan.seeded_direct
            );
            let _ = writeln!(
                out,
                "  flow solver   : {} BFS passes, {} augmentations, {} arcs touched",
                report.solver.bfs_passes, report.solver.augmentations, report.solver.arcs_touched
            );
            if let (Some(mn), Some(mean), Some(p99), Some(mx)) = (
                c.timing.min_ns(),
                c.timing.mean_ns(),
                c.timing.p99_ns(),
                c.timing.max_ns(),
            ) {
                let _ = writeln!(
                    out,
                    "  per-query ns  : min {mn}, mean {mean:.0}, p99 ≤ {p99}, max {mx}"
                );
            }
            let des_bits = (1u32 << m) + m;
            let des_cap = netsim::Simulator::<hhc_core::Hhc>::MAX_ADDRESS_BITS;
            let des_max_m = (1..)
                .take_while(|&mm| (1u32 << mm) + mm <= des_cap)
                .last()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  DES range     : {des_bits}-bit addresses vs the simulator's {des_cap}-bit cap \
                 — {} (largest simulatable HHC: m = {des_max_m})",
                if des_bits <= des_cap {
                    "packet-level simulation available"
                } else {
                    "construction and verification only"
                }
            );
            let _ = writeln!(out, "metrics: {}", report.to_json());
        }
        Command::Broadcast { m, root } => {
            let h = net(m)?;
            let root = mk(&h, root)?;
            let schedule =
                collectives::one_port_broadcast(&h, root).map_err(|e| CliError(e.to_string()))?;
            let _ = writeln!(
                out,
                "one-port broadcast from {}: {} rounds (lower bound {})",
                h.format_node(root),
                schedule.len(),
                collectives::broadcast_round_lower_bound(&h)
            );
            for (r, round) in schedule.iter().enumerate() {
                let _ = writeln!(out, "  round {r:2}: {} sends", round.len());
            }
        }
        Command::Trace { m, u, v } => {
            let h = net(m)?;
            let (u, v) = (mk(&h, u)?, mk(&h, v)?);
            let (paths, trace) = disjoint::disjoint_paths_traced(&h, u, v, CrossingOrder::Gray)
                .map_err(|e| CliError(e.to_string()))?;
            verify::verify_disjoint_paths(&h, u, v, &paths).map_err(CliError)?;
            let _ = writeln!(
                out,
                "case {:?}: {} rotations + {} detours",
                trace.case, trace.rotations, trace.detours
            );
            if trace.case == ConstructionCase::CrossCube {
                let _ = writeln!(out, "source fan → {:?}", trace.source_fan_targets);
                let _ = writeln!(out, "target fan → {:?}", trace.target_fan_targets);
            }
            for (i, (path, plan)) in paths.iter().zip(&trace.plans).enumerate() {
                match plan {
                    Some(p) => {
                        let _ = writeln!(
                            out,
                            "  P{i}: len {:2}, crossings {:?}",
                            path.len() - 1,
                            p.positions
                        );
                    }
                    None => {
                        let _ = writeln!(out, "  P{i}: len {:2}, in-cube", path.len() - 1);
                    }
                }
            }
        }
        Command::Sim {
            ref scenario,
            mode,
            ref golden,
        } => {
            use netsim::scenario as sc;
            let src = std::fs::read_to_string(scenario)
                .map_err(|e| CliError(format!("cannot read {scenario}: {e}")))?;
            let spec = sc::Scenario::from_toml(&src).map_err(|e| CliError(e.to_string()))?;
            let golden_path = golden
                .clone()
                .unwrap_or_else(|| format!("results/scenarios/{}.trace", spec.name));
            match mode {
                SimMode::Run => {
                    let report = sc::execute(&spec);
                    let _ = write!(out, "{report}");
                    if !report.passes() {
                        return Err(CliError(format!(
                            "scenario {} violated {} expectation(s):\n  {}",
                            spec.name,
                            report.violations.len(),
                            report.violations.join("\n  ")
                        )));
                    }
                }
                SimMode::Record => {
                    let trace = sc::render(&spec, &sc::execute(&spec));
                    if let Some(dir) = std::path::Path::new(&golden_path).parent() {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| CliError(format!("cannot create {dir:?}: {e}")))?;
                    }
                    std::fs::write(&golden_path, &trace)
                        .map_err(|e| CliError(format!("cannot write {golden_path}: {e}")))?;
                    let _ = writeln!(
                        out,
                        "recorded scenario {} -> {golden_path} ({} lines)",
                        spec.name,
                        trace.lines().count()
                    );
                }
                SimMode::Replay => {
                    let recorded = std::fs::read_to_string(&golden_path)
                        .map_err(|e| CliError(format!("cannot read {golden_path}: {e}")))?;
                    let current = sc::render(&spec, &sc::execute(&spec));
                    match sc::diff_lines(&current, &recorded) {
                        None => {
                            let _ = writeln!(
                                out,
                                "replay OK: scenario {} matches {golden_path} byte for byte",
                                spec.name
                            );
                        }
                        Some(diff) => {
                            return Err(CliError(format!(
                                "replay of scenario {} diverged from {golden_path}:\n{diff}",
                                spec.name
                            )))
                        }
                    }
                }
                SimMode::Shrink => {
                    let mut failing = |s: &sc::Scenario| !sc::execute(s).passes();
                    if !failing(&spec) {
                        return Err(CliError(format!(
                            "scenario {} passes all expectations; nothing to shrink",
                            spec.name
                        )));
                    }
                    let minimal = sc::shrink(&spec, &mut failing);
                    let _ = writeln!(
                        out,
                        "shrunk scenario {} (size {} -> {}); minimal reproducer:\n",
                        spec.name,
                        sc::shrink::size(&spec),
                        sc::shrink::size(&minimal)
                    );
                    let _ = write!(out, "{}", minimal.to_toml());
                }
            }
        }
        Command::Serve {
            m,
            ref queries,
            ref faults,
            threads,
            window,
            metrics,
        } => {
            let h = net(m)?;
            let src = if queries.as_str() == "-" {
                std::io::read_to_string(std::io::stdin())
                    .map_err(|e| CliError(format!("cannot read stdin: {e}")))?
            } else {
                std::fs::read_to_string(queries)
                    .map_err(|e| CliError(format!("cannot read {queries}: {e}")))?
            };
            let pairs = parse_query_stream(&src)?
                .into_iter()
                .map(|(u, v)| Ok((mk(&h, u)?, mk(&h, v)?)))
                .collect::<Result<Vec<_>, CliError>>()?;
            if pairs.is_empty() {
                return Err(CliError(format!("{queries}: no queries")));
            }
            let mut schedule = match faults {
                Some(path) => {
                    let src = std::fs::read_to_string(path)
                        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
                    parse_fault_schedule(&src)?
                        .into_iter()
                        .map(|(at, add, w)| Ok((at, add, mk(&h, w)?)))
                        .collect::<Result<Vec<_>, CliError>>()?
                }
                None => Vec::new(),
            };
            schedule.sort_by_key(|&(at, _, _)| at);
            let mut cfg = hhc_core::RouterConfig::default();
            if let Some(t) = threads {
                cfg.threads = t;
            }
            let mut router = hhc_core::Router::new(m, cfg).map_err(|e| CliError(e.to_string()))?;
            let _ = writeln!(
                out,
                "serving {} queries on HHC({m}): {} workers, windows of {window}, {} fault events",
                pairs.len(),
                router.threads(),
                schedule.len()
            );
            // Per-query service time, batch-amortised: each query in a
            // window is charged the window's wall-clock share. Windowing
            // is a reporting grain, not a semantic one — answers depend
            // only on the pair and the fault set in force.
            let mut hist = obs::Histogram::new();
            let mut next_event = 0;
            let (mut ok, mut errors) = (0u64, 0u64);
            let mut first_error: Option<String> = None;
            // One arena buffer reused across windows: the serve loop
            // inherits the router's zero-per-query-allocation pipeline.
            let mut answers = hhc_core::QueryBatchResult::new();
            let started = std::time::Instant::now();
            for (wi, chunk) in pairs.chunks(window).enumerate() {
                let base = wi * window;
                // Events scheduled at or before the window's first query
                // take effect now: window boundaries are the
                // linearisation points of the fault feed.
                while let Some(&(at, add, w)) = schedule.get(next_event) {
                    if at > base {
                        break;
                    }
                    if add {
                        router.add_fault(w);
                    } else {
                        router.clear_fault(w);
                    }
                    next_event += 1;
                }
                let t = std::time::Instant::now();
                router.query_many_into(chunk, &mut answers);
                let elapsed = t.elapsed();
                let per_query_ns = (elapsed.as_nanos() / chunk.len() as u128) as u64;
                for _ in 0..chunk.len() {
                    hist.record(per_query_ns);
                }
                for (j, a) in answers.iter().enumerate() {
                    match a {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            errors += 1;
                            if first_error.is_none() {
                                first_error = Some(format!("query {}: {e}", base + j));
                            }
                        }
                    }
                }
                let _ = writeln!(
                    out,
                    "  window {wi:3}: queries {base}..{}, {:8.0} qps, {} faults active",
                    base + chunk.len(),
                    chunk.len() as f64 / elapsed.as_secs_f64(),
                    router.fault_count()
                );
            }
            // Events addressed past the last query still move the fault
            // set (they are part of the schedule, just unobserved).
            for &(_, add, w) in &schedule[next_event..] {
                if add {
                    router.add_fault(w);
                } else {
                    router.clear_fault(w);
                }
            }
            let total = started.elapsed().as_secs_f64();
            let _ = writeln!(
                out,
                "served {} queries in {total:.3}s ({:.0} qps): {ok} ok, {errors} errors",
                pairs.len(),
                pairs.len() as f64 / total
            );
            if let Some(e) = first_error {
                let _ = writeln!(out, "  first error: {e}");
            }
            if let (Some(p50), Some(p99)) = (hist.quantile(0.5), hist.quantile(0.99)) {
                let _ = writeln!(
                    out,
                    "  service time p50 {p50} ns, p99 {p99} ns (batch-amortised per query)"
                );
            }
            let report = router.metrics();
            let c = &report.construction;
            let l2_probes = c.l2_hits + c.l2_misses;
            let _ = writeln!(
                out,
                "  shared cache  : {} L2 hits ({:.1}% of L2 probes), \
                 {} invalidations, fault generation {}",
                c.l2_hits,
                if l2_probes > 0 {
                    100.0 * c.l2_hits as f64 / l2_probes as f64
                } else {
                    0.0
                },
                c.l2_invalidations,
                c.fault_generation
            );
            let _ = writeln!(
                out,
                "  fault checks  : {} exact fault scans, {} reroutes, {} reroute-memo hits \
                 ({:.1}% of constructions scanned)",
                c.fault_scans,
                c.fault_reroutes,
                c.reroute_memo_hits,
                if c.queries > 0 {
                    100.0 * c.fault_scans as f64 / c.queries as f64
                } else {
                    0.0
                }
            );
            if metrics {
                let _ = writeln!(out, "metrics: {}", report.to_json());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_nodes() {
        assert_eq!(parse_node("a5:3"), Ok((0xA5, 3)));
        assert_eq!(parse_node("0xFF:0x7"), Ok((0xFF, 7)));
        assert!(parse_node("zz:1").is_err());
        assert!(parse_node("12").is_err());
    }

    #[test]
    fn parse_commands() {
        assert_eq!(parse(&argv("info 3")), Ok(Command::Info { m: 3 }));
        assert_eq!(
            parse(&argv("route 2 0:1 f:2")),
            Ok(Command::Route {
                m: 2,
                u: (0, 1),
                v: (0xF, 2)
            })
        );
        assert_eq!(
            parse(&argv("disjoint 2 0:1 f:2 --sorted")),
            Ok(Command::Disjoint {
                m: 2,
                u: (0, 1),
                v: (0xF, 2),
                sorted: true,
                metrics: false,
                avoid: vec![]
            })
        );
        assert_eq!(
            parse(&argv("disjoint 2 0:1 f:2 --metrics --sorted")),
            Ok(Command::Disjoint {
                m: 2,
                u: (0, 1),
                v: (0xF, 2),
                sorted: true,
                metrics: true,
                avoid: vec![]
            })
        );
        assert_eq!(
            parse(&argv("wide 4 --samples 50")),
            Ok(Command::Wide {
                m: 4,
                samples: 50,
                metrics: false
            })
        );
        assert_eq!(
            parse(&argv("wide 4 --metrics")),
            Ok(Command::Wide {
                m: 4,
                samples: 1000,
                metrics: true
            })
        );
        assert_eq!(
            parse(&argv("stats 3 --pairs 10 --seed 7")),
            Ok(Command::Stats {
                m: 3,
                pairs: 10,
                seed: 7
            })
        );
        assert_eq!(
            parse(&argv("trace 3 0:1 2b:4")),
            Ok(Command::Trace {
                m: 3,
                u: (0, 1),
                v: (0x2B, 4)
            })
        );
        assert_eq!(
            parse(&argv("disjoint 2 0:1 f:2 --avoid a:0,b:1 --sorted")),
            Ok(Command::Disjoint {
                m: 2,
                u: (0, 1),
                v: (0xF, 2),
                sorted: true,
                metrics: false,
                avoid: vec![(0xA, 0), (0xB, 1)]
            })
        );
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("")).is_err());
    }

    #[test]
    fn execute_info() {
        let out = execute(&Command::Info { m: 3 }).unwrap();
        assert!(out.contains("2^11"));
        assert!(out.contains("diameter      : 16"));
    }

    #[test]
    fn execute_route_and_disjoint() {
        let out = execute(&Command::Route {
            m: 2,
            u: (0, 0),
            v: (0xA, 3),
        })
        .unwrap();
        assert!(out.contains("route length"));
        let out = execute(&Command::Disjoint {
            m: 2,
            u: (0, 0),
            v: (0xA, 3),
            sorted: false,
            metrics: false,
            avoid: vec![],
        })
        .unwrap();
        assert!(out.contains("3 node-disjoint paths (verified"));
        assert!(!out.contains("metrics:"));
    }

    #[test]
    fn execute_wide_and_broadcast() {
        let out = execute(&Command::Wide {
            m: 1,
            samples: 10,
            metrics: false,
        })
        .unwrap();
        assert!(out.contains("observed max"));
        let out = execute(&Command::Broadcast { m: 1, root: (0, 0) }).unwrap();
        assert!(out.contains("rounds"));
    }

    #[test]
    fn metrics_flag_appends_json() {
        let out = execute(&Command::Disjoint {
            m: 3,
            u: (0, 0),
            v: (0x2B, 5),
            sorted: false,
            metrics: true,
            avoid: vec![],
        })
        .unwrap();
        assert!(out.contains("metrics: {\"queries\":1"));
        assert!(out.contains("\"cross_cube\":1"));
        assert!(out.contains("timing_ns"));
        let out = execute(&Command::Wide {
            m: 1,
            samples: 10,
            metrics: true,
        })
        .unwrap();
        assert!(out.contains("metrics: {\"queries\":56"));
    }

    #[test]
    fn execute_stats() {
        let out = execute(&Command::Stats {
            m: 3,
            pairs: 25,
            seed: 7,
        })
        .unwrap();
        assert!(out.contains("constructed 25 pair families"));
        assert!(out.contains("fan queries"));
        assert!(out.contains("per-query ns"));
        // HHC(3) is 11-bit: inside the simulator's address range.
        assert!(out.contains("11-bit addresses"));
        assert!(out.contains("packet-level simulation available"));
        assert!(out.contains("largest simulatable HHC: m = 4"));
        assert!(out.contains("metrics: {\"queries\":25"));
        // Identical seeds give identical counters (timing aside, which
        // lives under a separate key).
        let again = execute(&Command::Stats {
            m: 3,
            pairs: 25,
            seed: 7,
        })
        .unwrap();
        assert_eq!(
            out.lines().find(|l| l.contains("cases")),
            again.lines().find(|l| l.contains("cases"))
        );
    }

    /// `--avoid` routes the construction through the fault-aware entry
    /// point: the printed family must dodge the avoided nodes, and an
    /// avoided endpoint is a user-facing error.
    #[test]
    fn execute_disjoint_avoiding() {
        // 0:1 is an interior node of one plain path for this pair.
        let h = Hhc::new(2).unwrap();
        let u = h.node(0, 0).unwrap();
        let v = h.node(0xA, 3).unwrap();
        let plain = h.disjoint_paths(u, v).unwrap();
        let fault = plain[0][plain[0].len() / 2];
        let (fx, fy) = (h.cube_field(fault), h.node_field(fault));
        let out = execute(&Command::Disjoint {
            m: 2,
            u: (0, 0),
            v: (0xA, 3),
            sorted: false,
            metrics: false,
            avoid: vec![(fx, fy)],
        })
        .unwrap();
        assert!(out.contains("avoiding 1 faults"));
        assert!(out.contains("rerouted around faults"));
        assert!(!out.contains(&h.format_node(fault)));
        // A fault missing the family reports the plain-family fast path.
        let out = execute(&Command::Disjoint {
            m: 2,
            u: (0, 0),
            v: (0xA, 3),
            sorted: false,
            metrics: false,
            avoid: vec![(0x5, 0)],
        })
        .unwrap();
        assert!(out.contains("plain family already fault-free"));
        // Avoiding an endpoint is an error, not a panic.
        let err = execute(&Command::Disjoint {
            m: 2,
            u: (0, 0),
            v: (0xA, 3),
            sorted: false,
            metrics: false,
            avoid: vec![(0, 0)],
        })
        .unwrap_err();
        assert!(err.0.contains("faulty"));
    }

    #[test]
    fn parse_sim() {
        assert_eq!(
            parse(&argv("sim --scenario a.toml")),
            Ok(Command::Sim {
                scenario: "a.toml".into(),
                mode: SimMode::Run,
                golden: None
            })
        );
        assert_eq!(
            parse(&argv("sim --scenario a.toml --replay --golden g.trace")),
            Ok(Command::Sim {
                scenario: "a.toml".into(),
                mode: SimMode::Replay,
                golden: Some("g.trace".into())
            })
        );
        assert_eq!(
            parse(&argv("sim --shrink --scenario a.toml")),
            Ok(Command::Sim {
                scenario: "a.toml".into(),
                mode: SimMode::Shrink,
                golden: None
            })
        );
    }

    /// End-to-end through the CLI surface: record a golden, replay it
    /// byte-identically, detect drift, and shrink a failing scenario.
    #[test]
    fn execute_sim_lifecycle() {
        let dir = std::env::temp_dir().join(format!("hhc_cli_sim_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scn = dir.join("tiny.toml");
        std::fs::write(
            &scn,
            "name = \"tiny\"\nseed = 0x5EED\n[topology]\nkind = \"hhc\"\nm = 2\n\
             [traffic]\nrate = 0.03\n[sim]\ncycles = 40\ndrain_cycles = 2000\n\
             [expect]\ndelivered_all = true\n",
        )
        .unwrap();
        let golden = dir.join("tiny.trace").to_string_lossy().into_owned();
        let sim = |mode: SimMode| Command::Sim {
            scenario: scn.to_string_lossy().into_owned(),
            mode,
            golden: Some(golden.clone()),
        };
        // Run: passes, prints the report.
        let out = execute(&sim(SimMode::Run)).unwrap();
        assert!(out.contains("scenario tiny"));
        // Replay before recording: user-facing error.
        assert!(execute(&sim(SimMode::Replay)).is_err());
        // Record, then replay byte-identically.
        let out = execute(&sim(SimMode::Record)).unwrap();
        assert!(out.contains("recorded scenario tiny"));
        let out = execute(&sim(SimMode::Replay)).unwrap();
        assert!(out.contains("replay OK"));
        // Drift (a different seed) is caught with a line-level diff.
        std::fs::write(
            &scn,
            "name = \"tiny\"\nseed = 1\n[topology]\nkind = \"hhc\"\nm = 2\n\
             [traffic]\nrate = 0.03\n[sim]\ncycles = 40\ndrain_cycles = 2000\n",
        )
        .unwrap();
        let err = execute(&sim(SimMode::Replay)).unwrap_err();
        assert!(err.0.contains("diverged"), "{err}");
        // Shrinking a passing scenario is refused; a wedged one shrinks.
        std::fs::write(
            &scn,
            "name = \"wedge\"\nseed = 1212\n[topology]\nkind = \"hhc\"\nm = 2\n\
             [traffic]\npattern = \"bit-complement\"\nrate = 0.4\n\
             [sim]\ncycles = 300\ndrain_cycles = 4000\nqueue_capacity = 1\n\
             [expect]\ndelivered_all = true\n",
        )
        .unwrap();
        let out = execute(&sim(SimMode::Shrink)).unwrap();
        assert!(out.contains("minimal reproducer"), "{out}");
        assert!(out.contains("name = \"wedge\""));
        // A run with violations exits with an error naming them.
        let err = execute(&sim(SimMode::Run)).unwrap_err();
        assert!(err.0.contains("violated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve() {
        assert_eq!(
            parse(&argv("serve 3 --queries q.txt")),
            Ok(Command::Serve {
                m: 3,
                queries: "q.txt".into(),
                faults: None,
                threads: None,
                window: 256,
                metrics: false
            })
        );
        assert_eq!(
            parse(&argv(
                "serve 3 --queries - --faults f.txt --threads 2 --window 64 --metrics"
            )),
            Ok(Command::Serve {
                m: 3,
                queries: "-".into(),
                faults: Some("f.txt".into()),
                threads: Some(2),
                window: 64,
                metrics: true
            })
        );
        for bad in [
            "serve 3",
            "serve 3 --queries",
            "serve 3 --queries a --queries b",
            "serve 3 --queries a --threads 0",
            "serve 3 --queries a --window 0",
            "serve 3 --queries a --window",
            "serve 3 --queries a stray",
            "serve --queries a",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn fault_schedule_and_query_stream_parse_strictly() {
        let events = parse_fault_schedule("# comment\n\n0 + a5:3\n10 - a5:3  # inline\n").unwrap();
        assert_eq!(events, vec![(0, true, (0xA5, 3)), (10, false, (0xA5, 3))]);
        for bad in [
            "+ a5:3",
            "3 * a5:3",
            "3 + zz:1",
            "3 + a5:3 extra",
            "x + a5:3",
        ] {
            assert!(
                parse_fault_schedule(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
        let pairs = parse_query_stream("0:0 a:3\n# skip\n\n1:1 2:2\n").unwrap();
        assert_eq!(pairs, vec![((0, 0), (0xA, 3)), ((1, 1), (2, 2))]);
        for bad in ["0:0", "0:0 a:3 b:1", "zz:0 a:3"] {
            assert!(parse_query_stream(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// End-to-end serve: a query file with repeats (so the shared cache
    /// engages), a fault schedule that blocks an interior node mid-stream,
    /// windowed progress lines and the summary with quantiles.
    #[test]
    fn execute_serve_lifecycle() {
        let dir = std::env::temp_dir().join(format!("hhc_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // An interior node of the plain family for (0:0, a:3) on HHC(2).
        let h = Hhc::new(2).unwrap();
        let u = h.node(0, 0).unwrap();
        let v = h.node(0xA, 3).unwrap();
        let plain = h.disjoint_paths(u, v).unwrap();
        let fault = plain[0][plain[0].len() / 2];
        let (fx, fy) = (h.cube_field(fault), h.node_field(fault));
        let qpath = dir.join("queries.txt");
        let mut qsrc = String::from("# hot pair, repeated across windows\n");
        for _ in 0..10 {
            qsrc.push_str("0:0 a:3\n5:1 b:2\n");
        }
        qsrc.push_str("7:0 7:0\n"); // equal endpoints: a per-query error
        std::fs::write(&qpath, &qsrc).unwrap();
        let fpath = dir.join("faults.txt");
        std::fs::write(&fpath, format!("8 + {fx:x}:{fy:x}\n16 - {fx:x}:{fy:x}\n")).unwrap();
        let cmd = Command::Serve {
            m: 2,
            queries: qpath.to_string_lossy().into_owned(),
            faults: Some(fpath.to_string_lossy().into_owned()),
            threads: Some(2),
            window: 8,
            metrics: true,
        };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("serving 21 queries"), "{out}");
        assert!(out.contains("window   0"), "{out}");
        assert!(out.contains("20 ok, 1 errors"), "{out}");
        assert!(out.contains("query 20: "), "first error is surfaced: {out}");
        assert!(out.contains("service time p50"), "{out}");
        assert!(out.contains("fault generation 2"), "{out}");
        // The fault is live for window 1 (queries 8..16), which each of
        // the 2 workers answers as a chunk of 4: the hot pair's first
        // query in a chunk is scanned and rerouted, and its second
        // replays that worker's reroute memo. The other pair's span
        // excludes the fault's cube offset, so the span test settles
        // its 4 without a scan.
        assert!(
            out.contains("2 exact fault scans, 2 reroutes, 2 reroute-memo hits"),
            "the summary counts the exact scans: {out}"
        );
        assert!(out.contains("metrics: {\"queries\":"), "{out}");
        // The schedule reached the stream: some window served with the
        // fault active, and the final fault set is empty again.
        assert!(out.contains("1 faults active"), "{out}");
        assert!(out.contains("0 faults active"), "{out}");
        // Missing files and empty streams are user-facing errors.
        let missing = Command::Serve {
            m: 2,
            queries: dir.join("absent.txt").to_string_lossy().into_owned(),
            faults: None,
            threads: None,
            window: 8,
            metrics: false,
        };
        assert!(execute(&missing).is_err());
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        let cmd = Command::Serve {
            m: 2,
            queries: empty.to_string_lossy().into_owned(),
            faults: None,
            threads: None,
            window: 8,
            metrics: false,
        };
        assert!(execute(&cmd).unwrap_err().0.contains("no queries"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_parsing_rejects_stray_arguments() {
        for bad in [
            "sim",
            "sim --scenario",
            "sim --scenario a --scenario b",
            "sim --scenario a --record --replay",
            "sim --scenario a --golden",
            "sim stray",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should not parse");
        }
        for bad in [
            "info 3 extra",
            "route 2 0:1 f:2 junk",
            "disjoint 2 0:1 f:2 --bogus",
            "disjoint 2 0:1 f:2 --sorted --sorted",
            "disjoint 2 0:1 f:2 --avoid",
            "disjoint 2 0:1 f:2 --avoid zz:1",
            "disjoint 2 0:1 f:2 --avoid 1:0 --avoid 2:0",
            "wide 4 --samples",
            "wide 4 --samples 10 trailing",
            "stats 3 --pairs",
            "stats 3 --seed x",
            "broadcast 2 0:0 0:1",
            "trace 3 0:1 2b:4 --metrics",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn no_valid_invocation_panics() {
        // Every syntactically valid command either prints or errors —
        // including scales the library refuses (wide m>2 exhaustive is
        // internal, broadcast m>3, materialisation guards).
        for line in [
            "info 0",
            "info 9",
            "wide 6 --samples 1",
            "stats 6 --pairs 1",
            "stats 2 --pairs 0",
            "broadcast 6 0:0",
            "disjoint 6 0:0 1:1",
            "trace 6 0:0 1:1",
            "route 6 0:0 0:1",
        ] {
            if let Ok(cmd) = parse(&argv(line)) {
                let _ = execute(&cmd); // must return, not panic
            }
        }
        // Known error cases keep their messages user-facing.
        let err = execute(&parse(&argv("broadcast 6 0:0")).unwrap()).unwrap_err();
        assert!(!err.0.is_empty());
    }

    #[test]
    fn execute_trace() {
        let out = execute(&Command::Trace {
            m: 3,
            u: (0, 1),
            v: (0x2B, 4),
        })
        .unwrap();
        assert!(out.contains("rotations"));
        assert!(out.contains("P3"));
        let same = execute(&Command::Trace {
            m: 3,
            u: (5, 0),
            v: (5, 7),
        })
        .unwrap();
        assert!(same.contains("SameCube"));
        assert!(same.contains("in-cube"));
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(execute(&Command::Info { m: 9 }).is_err());
        let err = execute(&Command::Route {
            m: 2,
            u: (0, 0),
            v: (0x1F, 0),
        })
        .unwrap_err();
        assert!(err.0.contains("out of range"));
        // Equal nodes for disjoint is an error.
        assert!(execute(&Command::Disjoint {
            m: 2,
            u: (0, 0),
            v: (0, 0),
            sorted: false,
            metrics: false,
            avoid: vec![]
        })
        .is_err());
    }
}
