//! Scenario-layer integration tests over the checked-in example
//! scenarios (`examples/scenarios/`) and their recorded golden traces
//! (`results/scenarios/`).
//!
//! The contract under test, end to end:
//! * every committed example parses and validates;
//! * replaying a recorded scenario is byte-identical (the CI smoke
//!   job runs the same check through `hhc sim --replay`);
//! * the f4 scenario compiles to exactly the driver's parameter table,
//!   and its cells reproduce hand-rolled `Simulator::run_many` calls;
//! * the shrinker reduces the seeded failing scenario to a strictly
//!   smaller spec that still fails;
//! * hostile input — an example with a few bytes deleted, inserted or
//!   replaced — parses to a typed error or to a scenario that
//!   round-trips, never to a panic.
//!
//! Re-record goldens after an intentional engine change with:
//! `cargo run --release -p hhc-cli --bin hhc -- sim --scenario <file> --record`

use netsim::scenario::{compile, execute, render, shrink, Scenario};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn example(name: &str) -> Scenario {
    let path = repo_path(&format!("examples/scenarios/{name}.toml"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    Scenario::from_toml(&src).unwrap_or_else(|e| panic!("{name}.toml: {e}"))
}

fn golden(name: &str) -> String {
    let path = repo_path(&format!("results/scenarios/{name}.trace"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// Every committed example scenario: its path and its source.
fn committed_examples() -> &'static [(PathBuf, String)] {
    static EXAMPLES: OnceLock<Vec<(PathBuf, String)>> = OnceLock::new();
    EXAMPLES.get_or_init(|| {
        let dir = repo_path("examples/scenarios");
        let mut out: Vec<(PathBuf, String)> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("toml"))
            .map(|path| {
                let src = std::fs::read_to_string(&path).unwrap();
                (path, src)
            })
            .collect();
        out.sort();
        out
    })
}

#[test]
fn every_committed_example_parses_and_validates() {
    let mut seen = 0;
    for (path, src) in committed_examples() {
        seen += 1;
        let s = Scenario::from_toml(src)
            .unwrap_or_else(|e| panic!("example {path:?} failed to validate: {e}"));
        // The canonical form round-trips: reformatting an example never
        // changes its meaning or its trace's spec hash.
        assert_eq!(
            s,
            Scenario::from_toml(&s.to_toml()).unwrap(),
            "canonical round-trip failed for {path:?}"
        );
    }
    assert!(
        seen >= 3,
        "expected at least 3 example scenarios, found {seen}"
    );
}

/// Byte-identical replay of the cheap committed scenarios. (The f4
/// sweep is replayed in release mode by the CI scenarios job — 20
/// replications of 20 cells are too slow for a debug test.)
#[test]
fn recorded_scenarios_replay_byte_identically() {
    for name in ["deadlock_tiny", "churn_recovery", "f3c_adversarial"] {
        let s = example(name);
        let current = render(&s, &execute(&s));
        let recorded = golden(name);
        if let Some(diff) = netsim::scenario::diff_lines(&current, &recorded) {
            panic!("scenario {name} diverged from its recorded trace:\n{diff}");
        }
    }
}

/// The f4 scenario compiles to exactly the driver's parameter table:
/// same cells, same order, same seeds, rates, cycle counts and
/// replication count as `experiments -- f4`.
#[test]
fn f4_scenario_compiles_to_the_driver_parameter_table() {
    let s = example("f4_load_sweep");
    let cells = compile(&s);
    // Driver order: m ascending, rate ascending, single then multipath.
    let m2_rates = [0.02, 0.05, 0.10, 0.20, 0.30, 0.40];
    let m3_rates = [0.02, 0.05, 0.10, 0.20];
    let mut expected: Vec<(u32, f64, u64)> = Vec::new();
    for &r in &m2_rates {
        expected.push((2, r, 600));
        expected.push((2, r, 600));
    }
    for &r in &m3_rates {
        expected.push((3, r, 200));
        expected.push((3, r, 200));
    }
    assert_eq!(cells.len(), expected.len());
    for (i, (cell, &(m, rate, cycles))) in cells.iter().zip(&expected).enumerate() {
        assert_eq!(
            cell.topology,
            netsim::scenario::Topology::Hhc { m },
            "cell {i}"
        );
        assert_eq!(cell.cfg.inject_rate, rate, "cell {i}");
        assert_eq!(cell.cfg.cycles, cycles, "cell {i}");
        assert_eq!(cell.cfg.seed, 0xF4F4, "cell {i}");
        assert_eq!(cell.cfg.drain_cycles, 20_000, "cell {i}");
        assert_eq!(cell.cfg.sample_every, 100, "cell {i}");
        assert_eq!(cell.replications, 20, "cell {i}");
        let want = if i % 2 == 0 {
            netsim::Strategy::SinglePath
        } else {
            netsim::Strategy::MultipathRandom
        };
        assert_eq!(cell.strategy, want, "cell {i}");
    }
}

/// One f4 cell, end to end: the scenario layer's execution of the
/// cheapest cell equals a hand-rolled `Simulator::run_many` with the
/// driver's exact parameters.
#[test]
fn f4_cheapest_cell_equals_a_hand_rolled_run() {
    let s = example("f4_load_sweep");
    let cells = compile(&s);
    let via_scenario = netsim::scenario::run_cell(&cells[0]);

    let h = hhc_core::Hhc::new(2).unwrap();
    let direct = netsim::Simulator::new(
        &h,
        workloads::Pattern::UniformRandom,
        netsim::Strategy::SinglePath,
    )
    .run_many(
        netsim::SimConfig {
            cycles: 600,
            drain_cycles: 20_000,
            inject_rate: 0.02,
            seed: 0xF4F4,
            sample_every: 100,
            ..netsim::SimConfig::default()
        },
        20,
    );
    assert_eq!(via_scenario, direct);
    assert_eq!(direct.delivered, direct.injected, "driver's own invariant");
}

/// The f3c scenario runs the same engine as the driver: executing a
/// `fault-analysis` scenario yields exactly `constructive_sweep` with
/// the same parameters.
#[test]
fn analysis_scenario_equals_the_engine_call() {
    let src = "name = \"eq\"\nkind = \"fault-analysis\"\nseed = 0xF3C1\n\
               [topology]\nkind = \"hhc\"\nm = 2\n\
               [analysis]\ntrials = 30\nplacement = \"adversarial\"\nfault_counts = [0, 2, 3]\n";
    let s = Scenario::from_toml(src).unwrap();
    let report = execute(&s);
    let h = hhc_core::Hhc::new(2).unwrap();
    let direct = netsim::scenario::constructive_sweep(
        &h,
        netsim::scenario::Placement::Adversarial,
        &[0, 2, 3],
        30,
        0xF3C1,
    );
    assert_eq!(report.rows, direct);
}

/// The seeded failing scenario shrinks to a strictly smaller spec that
/// still fails — and the canonical TOML of the result is itself a
/// valid, still-failing scenario (what `hhc sim --shrink` prints).
#[test]
fn shrinker_reduces_deadlock_tiny_and_stays_failing() {
    let orig = example("deadlock_tiny");
    let mut failing = |s: &Scenario| !execute(s).passes();
    assert!(failing(&orig), "the committed reproducer must fail");
    let minimal = shrink(&orig, &mut failing);
    assert!(
        netsim::scenario::shrink::size(&minimal) < netsim::scenario::shrink::size(&orig),
        "shrink must make strict progress on the committed reproducer"
    );
    assert!(failing(&minimal), "the minimum must still fail");
    let reparsed = Scenario::from_toml(&minimal.to_toml()).unwrap();
    assert_eq!(reparsed, minimal);
    assert!(failing(&reparsed), "the printed reproducer must still fail");
}

/// The bytes a hostile edit writes: TOML's syntax characters, plus
/// whitespace, digits and a few letters (of `true`, `false`, exponents
/// and hex).
const TOML_BYTES: &[u8] = b"[]{}=\"'#,.:+-_ \n\t\\0129aeftx";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Hostile scenario input: a committed example with one to four
    /// one-byte edits (delete, insert or replace, with a TOML syntax
    /// byte) either fails to parse with a typed error or parses to a
    /// scenario whose canonical form parses back to it unchanged. The
    /// parser never panics.
    #[test]
    fn mutated_examples_parse_or_fail_cleanly(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), 0u8..3, any::<usize>()), 1..=4),
    ) {
        let examples = committed_examples();
        let (path, src) = &examples[pick % examples.len()];
        let mut bytes = src.clone().into_bytes();
        for (at, kind, byte) in edits {
            let byte = TOML_BYTES[byte % TOML_BYTES.len()];
            match kind {
                0 => {
                    bytes.remove(at % bytes.len());
                }
                1 => bytes.insert(at % (bytes.len() + 1), byte),
                _ => {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
            }
        }
        // An edit inside a multi-byte character leaves invalid UTF-8;
        // the parser takes `&str`, so that byte reads as U+FFFD.
        let mutated = String::from_utf8_lossy(&bytes);
        let parsed = std::panic::catch_unwind(|| Scenario::from_toml(&mutated));
        prop_assert!(parsed.is_ok(), "from_toml panicked on a mutation of {:?}:\n{}", path, mutated);
        if let Ok(Ok(s)) = parsed {
            match Scenario::from_toml(&s.to_toml()) {
                Ok(back) => prop_assert_eq!(back, s, "round trip of a mutation of {:?}", path),
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "the canonical form of a mutation of {path:?} does not parse: {e}"
                    )));
                }
            }
        }
    }
}
