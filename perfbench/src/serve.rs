//! Router workloads on HHC(5): a closed loop in which one client calls
//! `Router::query_many_into` with batches of 256 pairs and waits for
//! each reply, against a 1-worker `Router` with the default L1 and L2.
//!
//! * `serve_zipf_faults` — pairs drawn Zipf(1) over 8192 distinct
//!   seeded pairs, with a live fault feed: before each batch it adds one
//!   interior node of a popular family, or clears the oldest once
//!   m = 5 are live.
//! * `serve_uniform_cold` — every query a fresh uniform pair, no faults.
//!
//! Every answer is checked after the timed phase against the serial
//! cold-cache oracle (`disjoint_paths_avoiding_into` on a builder with
//! every cache disabled) at the fault set the batch ran under, memoised
//! per pair and fault set through 128-bit answer digests.

use crate::digest;
use crate::report::{Report, WINDOWS};
use crate::rng::SplitMix64;
use crate::stats::{self, ratio, windowed_rate};
use crate::trace::{self, Recorder};
use crate::zipf::Zipf;
use hhc_core::{
    disjoint_paths_avoiding_into, disjoint_paths_into, CacheConfig, CrossingOrder, Hhc, L2Config,
    MetricsReport, NodeId, PathBuilder, PathSet, QueryBatchResult, Router, RouterConfig,
    SharedFamilyCache,
};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

const M: u32 = 5;
const BATCH: usize = 256;
const ORDER: CrossingOrder = CrossingOrder::Gray;
/// Distinct pairs the Zipf stream draws from.
const POOL: usize = 8192;
/// Fault targets: one interior node of each of the families at ranks
/// `FIRST_FAULT_RANK..FIRST_FAULT_RANK + FAULT_TARGETS` (0-based), added
/// in that order, cyclically.
const FAULT_TARGETS: usize = 8;
const FIRST_FAULT_RANK: usize = 3;
/// Live faults at most (= m, the guarantee of the construction).
const MAX_LIVE: usize = M as usize;
/// Fault sets the feed cycles through once `MAX_LIVE` were reached:
/// the add count modulo the targets, times live count `MAX_LIVE - 1` or
/// `MAX_LIVE`.
const PHASES: usize = 2 * FAULT_TARGETS;
/// Zipf batches with the feed running after the pool sweep, before
/// timing starts.
const ZIPF_WARM_BATCHES: usize = 4 * FAULT_TARGETS;
/// Batches before timing on the uniform workload: 20480 fresh pairs,
/// past the first generation rotation of every L2 shard (16 × 1024),
/// so the timed phase sees the L2 at its steady size.
const UNIFORM_WARM_BATCHES: usize = 80;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// In the traced run the cold-construction probe runs on every this
/// many-th query.
const COLD_SAMPLE: u64 = 8;

const TAG_POOL: u64 = 1;
const TAG_DRAWS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ZipfFaults,
    UniformCold,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ZipfFaults => "serve_zipf_faults",
            Kind::UniformCold => "serve_uniform_cold",
        }
    }
}

fn random_pair(h: &Hhc, g: &mut SplitMix64) -> (NodeId, NodeId) {
    let xmask = (1u128 << h.positions()) - 1;
    let mut node = || {
        h.node(g.next_u64() as u128 & xmask, g.below(1 << h.m()) as u32)
            .expect("field values are in range")
    };
    loop {
        let (u, v) = (node(), node());
        if u != v {
            return (u, v);
        }
    }
}

/// The fault feed: before every batch one event, an add of the next
/// target while fewer than `MAX_LIVE` are live, else a clear of the
/// oldest live fault.
struct FaultFeed {
    targets: Vec<NodeId>,
    live: VecDeque<NodeId>,
    adds: usize,
}

impl FaultFeed {
    /// Applies the next event to the router and to `live`, the fault
    /// set the traced run's builders and the oracle see.
    fn step(&mut self, router: &Router, live: &mut HashSet<NodeId>) {
        if self.live.len() < MAX_LIVE {
            let t = self.targets[self.adds % self.targets.len()];
            self.adds += 1;
            self.live.push_back(t);
            assert!(router.add_fault(t), "fault target {t:?} already live");
            live.insert(t);
        } else {
            let t = self.live.pop_front().expect("MAX_LIVE > 0");
            assert!(router.clear_fault(t), "fault {t:?} was not live");
            live.remove(&t);
        }
    }

    /// Index of the live fault set among the `PHASES` the feed cycles
    /// through (valid once `MAX_LIVE - 1` faults are live).
    fn phase(&self) -> usize {
        assert!(self.live.len() + 1 >= MAX_LIVE, "feed still ramping up");
        (self.adds % self.targets.len()) * 2 + (self.live.len() + 1 - MAX_LIVE)
    }
}

/// Picks the fault targets: for each target rank, an interior node of
/// that pair's plain family (path `rank mod (m+1)`, nearest its middle)
/// that is no endpoint of any pool pair and not yet chosen.
fn fault_targets(h: &Hhc, pool: &[(NodeId, NodeId)]) -> Vec<NodeId> {
    let endpoints: HashSet<NodeId> = pool.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut chosen = Vec::with_capacity(FAULT_TARGETS);
    let mut set = PathSet::new();
    let mut builder = PathBuilder::with_caches(CacheConfig::disabled());
    let targets = pool
        .iter()
        .enumerate()
        .skip(FIRST_FAULT_RANK)
        .take(FAULT_TARGETS);
    for (rank, &(u, v)) in targets {
        disjoint_paths_into(h, u, v, ORDER, &mut set, &mut builder).expect("distinct pool pair");
        let path = set.path(rank % set.len());
        let mid = path.len() / 2;
        let pick = (0..path.len())
            .flat_map(|d| [mid + d, mid.wrapping_sub(d)])
            .filter(|&i| i > 0 && i + 1 < path.len())
            .map(|i| path[i])
            .find(|w| !endpoints.contains(w) && !chosen.contains(w))
            .expect("a long HHC(5) path has a free interior node");
        chosen.push(pick);
    }
    chosen
}

/// Everything the timed phase needs, rebuilt by each set-up.
struct Serve {
    kind: Kind,
    h: Hhc,
    router: Router,
    pool: Vec<(NodeId, NodeId)>,
    zipf: Zipf,
    draws: SplitMix64,
    feed: Option<FaultFeed>,
    live: HashSet<NodeId>,
    batch: Vec<(NodeId, NodeId)>,
    ranks: Vec<usize>,
    out: QueryBatchResult,
    batches_run: u64,
}

impl Serve {
    /// Draws the next batch and applies the feed's event for it. In the
    /// warm-up sweep (`sweep = Some(k)`) every other query is pool pair
    /// `k·BATCH/2 + i` instead of a Zipf draw.
    fn next_batch(&mut self, sweep: Option<usize>) {
        self.batch.clear();
        self.ranks.clear();
        for i in 0..BATCH {
            match self.kind {
                Kind::ZipfFaults => {
                    let r = match sweep {
                        Some(k) if i % 2 == 0 => k * BATCH / 2 + i / 2,
                        _ => self.zipf.sample(&mut self.draws),
                    };
                    self.ranks.push(r);
                    self.batch.push(self.pool[r]);
                }
                Kind::UniformCold => self.batch.push(random_pair(&self.h, &mut self.draws)),
            }
        }
        if let Some(feed) = &mut self.feed {
            feed.step(&self.router, &mut self.live);
        }
    }

    /// Sends the current batch and waits for the answers; returns the
    /// batch latency in seconds.
    fn run_batch(&mut self) -> f64 {
        let t = Instant::now();
        self.router.query_many_into(&self.batch, &mut self.out);
        let secs = t.elapsed().as_secs_f64();
        self.batches_run += 1;
        secs
    }

    fn answer_digest(&self, i: usize) -> u128 {
        match self.out.get(i) {
            Ok(f) => digest::family(f.iter()),
            Err(e) => digest::error(e),
        }
    }
}

/// The builders of the traced run; see `traced_batch`. None of them
/// reads the router's own L2: a reader holds the snapshots it last saw,
/// which would move the reclamation of replaced snapshots (whole L2
/// generations, on the uniform workload) out of the worker.
struct Probes {
    /// Mirror of the worker: same L1, a twin L2 fed the same stream.
    worker: PathBuilder,
    /// Plain calls with the worker's L1 over an L2 of the probes' own,
    /// fed the same stream.
    plain: PathBuilder,
    /// Plain calls with no L1 over the probes' L2.
    l2_only: PathBuilder,
    /// Plain calls with every cache disabled and no L2.
    cold: PathBuilder,
    /// Plain calls with every cache disabled over a fresh L2.
    store: PathBuilder,
    set: PathSet,
    /// Worker-mirror answers compared with the router's, and how many
    /// differed (each is an output of the library, checked as one).
    mirror_checked: u64,
    mirror_differed: u64,
}

impl Probes {
    fn new() -> Self {
        let builder = |caches, l2: &Arc<SharedFamilyCache>| {
            let mut b = PathBuilder::with_caches(caches);
            b.attach_shared_cache(Arc::clone(l2));
            b
        };
        let probes_l2 = Arc::new(SharedFamilyCache::new(L2Config::enabled()));
        Probes {
            worker: builder(
                CacheConfig::enabled(),
                &Arc::new(SharedFamilyCache::new(L2Config::enabled())),
            ),
            plain: builder(CacheConfig::enabled(), &probes_l2),
            l2_only: builder(CacheConfig::disabled(), &probes_l2),
            cold: PathBuilder::with_caches(CacheConfig::disabled()),
            store: builder(
                CacheConfig::disabled(),
                &Arc::new(SharedFamilyCache::new(L2Config::enabled())),
            ),
            set: PathSet::new(),
            mirror_checked: 0,
            mirror_differed: 0,
        }
    }

    /// Feeds the builders whose cache state must track the worker's
    /// (the worker mirror, and the plain probe with the probes' L2) one
    /// untraced batch.
    fn follow(&mut self, s: &Serve) {
        mirror_pass(&mut self.worker, &s.h, &s.live, &s.batch, Instant::now());
        for &(u, v) in &s.batch {
            let _ = disjoint_paths_into(&s.h, u, v, ORDER, &mut self.set, &mut self.plain);
        }
    }
}

/// Runs the worker mirror over one batch on a thread of its own, as the
/// router's worker runs it, and returns per query the span name, start
/// and end against `origin`, and the answer digest. On the client
/// thread, whose allocator arena also serves the probes and the spans,
/// the mirror ran 12–15% slower than the worker on the uniform workload
/// and the service's self time came out negative.
fn mirror_pass(
    worker: &mut PathBuilder,
    h: &Hhc,
    live: &HashSet<NodeId>,
    batch: &[(NodeId, NodeId)],
    origin: Instant,
) -> Vec<(&'static str, u64, u64, u128)> {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut set = PathSet::new();
            let now = || origin.elapsed().as_nanos() as u64;
            batch
                .iter()
                .map(|&(u, v)| {
                    let k = tiers(worker)[3];
                    let a = now();
                    let r = disjoint_paths_avoiding_into(h, u, v, ORDER, live, &mut set, worker);
                    let b = now();
                    let name = if tiers(worker)[3] > k {
                        "avoid.rebuild"
                    } else if live.is_empty() {
                        "avoid.nofault"
                    } else {
                        "avoid.pass"
                    };
                    let d = match r {
                        Ok(_) => digest::family(set.iter()),
                        Err(e) => digest::error(&e),
                    };
                    (name, a, b, d)
                })
                .collect()
        })
        .join()
        .expect("worker mirror thread panicked")
    })
}

/// `[family_hits, l2_hits, l2_misses, fault_reroutes]` of a builder.
fn tiers(b: &PathBuilder) -> [u64; 4] {
    let c = b.metrics().construction;
    [c.family_hits, c.l2_hits, c.l2_misses, c.fault_reroutes]
}

/// Runs one warm-up batch, keeping the probes in step.
fn warm_batch(s: &mut Serve, probes: &mut Option<Probes>, sweep: Option<usize>) {
    s.next_batch(sweep);
    s.run_batch();
    if let Some(p) = probes {
        p.follow(s);
    }
}

/// One set-up: inputs from the seed, a fresh router, and the warm-up.
fn setup(kind: Kind, seed: u64, traced: bool) -> (Serve, Option<Probes>) {
    let h = Hhc::new(M).expect("HHC(5) is supported");
    let mut g = SplitMix64::new(seed, TAG_POOL);
    let mut seen = HashSet::with_capacity(POOL);
    let mut pool = Vec::with_capacity(POOL);
    if kind == Kind::ZipfFaults {
        while pool.len() < POOL {
            let p = random_pair(&h, &mut g);
            if seen.insert(p) {
                pool.push(p);
            }
        }
    }
    let feed = (kind == Kind::ZipfFaults).then(|| FaultFeed {
        targets: fault_targets(&h, &pool),
        live: VecDeque::new(),
        adds: 0,
    });
    let router = Router::new(
        M,
        RouterConfig {
            threads: 1,
            order: ORDER,
            l1: CacheConfig::enabled(),
            l2: L2Config::enabled(),
        },
    )
    .expect("HHC(5) router");
    let mut probes = traced.then(Probes::new);
    let mut s = Serve {
        kind,
        h,
        router,
        pool,
        zipf: Zipf::new(POOL, 1.0),
        draws: SplitMix64::new(seed, TAG_DRAWS),
        feed,
        live: HashSet::new(),
        batch: Vec::with_capacity(BATCH),
        ranks: Vec::with_capacity(BATCH),
        out: QueryBatchResult::new(),
        batches_run: 0,
    };
    match kind {
        Kind::ZipfFaults => {
            // Sweep the whole pool once, so that every family is in the
            // L2 and the timed phase constructs nothing cold. Half of
            // each sweep batch is Zipf draws: distinct pairs alone would
            // keep the L1 hit rate under its bypass floor and latch the
            // L1 into probe-only mode for the router's lifetime.
            for k in 0..2 * POOL / BATCH {
                warm_batch(&mut s, &mut probes, Some(k));
            }
            for _ in 0..ZIPF_WARM_BATCHES {
                warm_batch(&mut s, &mut probes, None);
            }
        }
        Kind::UniformCold => {
            for _ in 0..UNIFORM_WARM_BATCHES {
                warm_batch(&mut s, &mut probes, None);
            }
        }
    }
    (s, probes)
}

/// What the timed batches answered, kept for the check after timing.
enum Answers {
    /// Per (pool rank, fault phase): the first answer's digest, how
    /// often it was asked, how many later answers differed from it.
    Zipf {
        entries: Vec<(u128, u32, u32)>,
        phase_sets: Vec<Option<Vec<NodeId>>>,
    },
    /// One digest per query, in order; the pairs are drawn again from
    /// a copy of the generator taken when timing started.
    Uniform {
        draws: SplitMix64,
        digests: Vec<u128>,
    },
}

impl Answers {
    fn new(s: &Serve) -> Self {
        match s.kind {
            Kind::ZipfFaults => {
                // Filled up front, so the table's resident size does not
                // depend on how many queries the run got through.
                let entries = vec![(u128::MAX, 0u32, 0u32); POOL * PHASES];
                Answers::Zipf {
                    entries,
                    phase_sets: vec![None; PHASES],
                }
            }
            Kind::UniformCold => Answers::Uniform {
                draws: s.draws.clone(),
                digests: Vec::new(),
            },
        }
    }

    /// Records the current batch's answers; returns the failed
    /// operations (error answers) among them.
    fn record(&mut self, s: &Serve) -> u64 {
        let errors = (0..s.out.len()).filter(|&i| s.out.get(i).is_err()).count() as u64;
        match self {
            Answers::Zipf {
                entries,
                phase_sets,
            } => {
                let feed = s.feed.as_ref().expect("zipf workload has a feed");
                let phase = feed.phase();
                if phase_sets[phase].is_none() {
                    phase_sets[phase] = Some(feed.live.iter().copied().collect());
                }
                for (i, &r) in s.ranks.iter().enumerate() {
                    let d = s.answer_digest(i);
                    let e = &mut entries[r * PHASES + phase];
                    if e.1 == 0 {
                        e.0 = d;
                    } else if e.0 != d {
                        e.2 += 1;
                    }
                    e.1 += 1;
                }
            }
            Answers::Uniform { digests, .. } => {
                digests.extend((0..s.out.len()).map(|i| s.answer_digest(i)));
            }
        }
        errors
    }

    /// Compares every recorded answer with the cold-cache oracle.
    fn check(self, s: &Serve, report: &mut Report) {
        let mut cold = PathBuilder::with_caches(CacheConfig::disabled());
        let mut set = PathSet::new();
        let mut oracle = |u, v, faults: &HashSet<NodeId>| -> u128 {
            match disjoint_paths_avoiding_into(&s.h, u, v, ORDER, faults, &mut set, &mut cold) {
                Ok(_) => digest::family(set.iter()),
                Err(e) => digest::error(&e),
            }
        };
        let t = Instant::now();
        let mut oracle_calls = 0u64;
        match self {
            Answers::Zipf {
                entries,
                phase_sets,
            } => {
                for (phase, live) in phase_sets.iter().enumerate() {
                    let Some(live) = live else { continue };
                    let faults: HashSet<NodeId> = live.iter().copied().collect();
                    for (rank, &(u, v)) in s.pool.iter().enumerate() {
                        let (first, count, differing) = entries[rank * PHASES + phase];
                        if count == 0 {
                            continue;
                        }
                        oracle_calls += 1;
                        report.attempted += count as u64;
                        // Later answers that differ from the first are
                        // failures; so are all the rest when the first is.
                        report.failed += differing as u64;
                        if oracle(u, v, &faults) != first {
                            report.failed += (count - differing) as u64;
                        }
                    }
                }
            }
            Answers::Uniform { mut draws, digests } => {
                let none = HashSet::new();
                for &d in &digests {
                    let (u, v) = random_pair(&s.h, &mut draws);
                    oracle_calls += 1;
                    report.attempted += 1;
                    if oracle(u, v, &none) != d {
                        report.failed += 1;
                    }
                }
            }
        }
        println!(
            "oracle: {oracle_calls} cold constructions in {:.2} s checked {} answers",
            t.elapsed().as_secs_f64(),
            report.attempted
        );
    }
}

/// ROADMAP's conservation laws on the router's counters.
fn conservation(r: &MetricsReport, report: &mut Report) {
    let c = &r.construction;
    report.law(
        c.queries == c.family_hits + c.l2_hits + c.l2_misses,
        format!(
            "queries {} = family_hits {} + l2_hits {} + l2_misses {}",
            c.queries, c.family_hits, c.l2_hits, c.l2_misses
        ),
    );
    report.law(
        c.rotation_plans + c.detour_plans == c.cross_cube * (M as u64 + 1) + c.same_cube,
        format!(
            "rotation {} + detour {} plans = cross_cube {}·(m+1) + same_cube {}",
            c.rotation_plans, c.detour_plans, c.cross_cube, c.same_cube
        ),
    );
    // Fault-avoiding rebuilds issue extra, uncached fan queries, so the
    // fan law is an equality only while nothing was rerouted
    // (`MetricsReport::fan_queries` documents this); otherwise the plain
    // stages still owe at least their two fans per constructed family.
    let plain_fans = 2 * (c.cross_cube - c.family_hits_cross);
    let (holds, rel) = if c.fault_reroutes == 0 {
        (r.fan_queries() == plain_fans, "=")
    } else {
        (r.fan_queries() >= plain_fans, "≥")
    };
    report.law(
        holds,
        format!(
            "fan queries {} {rel} 2·(cross_cube {} − family_hits_cross {}) with {} reroutes",
            r.fan_queries(),
            c.cross_cube,
            c.family_hits_cross,
            c.fault_reroutes
        ),
    );
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, out_dir: &std::path::Path) -> i32 {
    let mut report = Report::new(traced);
    let mut setup_secs = Vec::new();
    let setups = if traced { 1 } else { SETUPS };
    let mut state = None;
    for _ in 0..setups {
        // Drop the previous set-up first, so that its memory is free.
        drop(state.take());
        let t = Instant::now();
        let built = setup(kind, seed, traced);
        setup_secs.push(t.elapsed().as_secs_f64());
        state = Some(built);
    }
    let (mut s, mut probes) = state.expect("at least one set-up");
    let mut answers = Answers::new(&s);
    let mut errors = 0u64;
    let before = s.router.metrics();

    let (traced_units, recorder) = if let Some(p) = probes.as_mut() {
        let mut rec = Recorder::new();
        let units = timed_loop(&mut s, &mut answers, &mut errors, seconds / 2.0, |s| {
            traced_batch(s, p, &mut rec)
        });
        (units, Some(rec))
    } else {
        (Vec::new(), None)
    };
    let phase_secs = if traced { seconds / 2.0 } else { seconds };
    let units = timed_loop(&mut s, &mut answers, &mut errors, phase_secs, |s| {
        s.run_batch()
    });
    let peak_rss = stats::peak_rss_mb();
    let after = s.router.metrics();

    println!(
        "workload {} seed {seed}: HHC({M}), 1 worker, closed loop, batches of {BATCH}",
        kind.name()
    );
    println!("window rates: {:.0?}", stats::window_rates(&units, WINDOWS));
    if let (Some(rec), Some(p)) = (&recorder, &probes) {
        report.attempted += p.mirror_checked;
        report.failed += p.mirror_differed;
        let qps = windowed_rate(&units, WINDOWS);
        per_layer(&mut report, &s, &before, &after, rec, &traced_units, qps);
        report.save_trace(rec, out_dir, kind.name(), seed);
    } else {
        report.end_to_end(&units, "queries/s, batches of 256", &setup_secs, peak_rss);
    }
    report.law(
        errors == 0,
        format!("no query failed ({errors} error answers)"),
    );
    conservation(&after, &mut report);
    answers.check(&s, &mut report);
    report.finish()
}

/// Runs batches until `seconds` of wall time have passed, recording
/// every answer; returns `(queries, seconds)` per batch.
fn timed_loop(
    s: &mut Serve,
    answers: &mut Answers,
    errors: &mut u64,
    seconds: f64,
    mut batch: impl FnMut(&mut Serve) -> f64,
) -> Vec<(u64, f64)> {
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < WINDOWS || start.elapsed().as_secs_f64() < seconds {
        s.next_batch(None);
        let secs = batch(s);
        units.push((BATCH as u64, secs));
        *errors += answers.record(s);
    }
    units
}

/// One traced batch: the router call as the `service.batch` span, then
/// one pass over the batch per builder, so that each runs its queries
/// back to back as the worker does. The worker mirror's calls
/// are children of the batch span; the probes' are roots with the query
/// id, named after the tier that answered.
fn traced_batch(s: &mut Serve, p: &mut Probes, rec: &mut Recorder) -> f64 {
    let t0 = rec.now();
    s.router.query_many_into(&s.batch, &mut s.out);
    let t1 = rec.now();
    s.batches_run += 1;
    let batch = rec.push("service.batch", t0, t1, None, s.batches_run);
    let base = (s.batches_run - 1) * BATCH as u64;
    let (h, live, set) = (&s.h, &s.live, &mut p.set);

    let mirrored = mirror_pass(&mut p.worker, h, live, &s.batch, rec.origin());
    for (i, (name, a, b, d)) in mirrored.into_iter().enumerate() {
        rec.push(name, a, b, Some(batch), base + i as u64);
        p.mirror_checked += 1;
        p.mirror_differed += u64::from(d != s.answer_digest(i));
    }

    // (builder, counter that marks the tier, span if it moved, else).
    let probes: [(&mut PathBuilder, usize, &'static str, &'static str); 3] = [
        (&mut p.plain, 0, "family_cache.hit", "family_cache.miss"),
        (&mut p.l2_only, 1, "shared.hit", "shared.miss"),
        (&mut p.store, 2, "shared.store", "shared.store_hit"),
    ];
    for (builder, tier, moved, kept) in probes {
        for (i, &(u, v)) in s.batch.iter().enumerate() {
            let k = tiers(builder)[tier];
            let a = rec.now();
            let _ = disjoint_paths_into(h, u, v, ORDER, set, builder);
            let b = rec.now();
            let name = if tiers(builder)[tier] > k {
                moved
            } else {
                kept
            };
            rec.push(name, a, b, None, base + i as u64);
        }
    }
    for (i, &(u, v)) in s.batch.iter().enumerate() {
        let id = base + i as u64;
        if id.is_multiple_of(COLD_SAMPLE) {
            let a = rec.now();
            let _ = disjoint_paths_into(h, u, v, ORDER, set, &mut p.cold);
            let b = rec.now();
            rec.push("disjoint.cold", a, b, None, id);
        }
    }
    (t1 - t0) as f64 / 1e9
}

fn per_layer(
    report: &mut Report,
    s: &Serve,
    before: &MetricsReport,
    after: &MetricsReport,
    rec: &Recorder,
    traced_units: &[(u64, f64)],
    untraced_qps: f64,
) {
    let spans = rec.spans();
    let (c0, c1) = (&before.construction, &after.construction);
    let queries = c1.queries - c0.queries;
    let traced_queries: u64 = traced_units.iter().map(|u| u.0).sum();
    let traced_qps = windowed_rate(traced_units, WINDOWS);

    let (self_ns, batches) = trace::self_time_of(spans, "service.batch");
    report.metric(
        "service.self_us",
        self_ns as f64 / 1e3 / traced_queries as f64,
        &format!("batch span minus its worker-mirror children, per query ({batches} batches)"),
    );
    report.metric(
        "family_cache.hit_rate",
        ratio(c1.family_hits - c0.family_hits, queries),
        &format!("router L1 hits over {queries} timed queries"),
    );
    let (v, n) = trace::mean_us(spans, "family_cache.hit");
    report.metric(
        "family_cache.replay_us",
        v,
        &format!("plain call on an L1 hit (n={n})"),
    );
    report.metric(
        "family_cache.bypass_events",
        c1.family_bypass_events as f64,
        "L1 caches latched into probe-only mode",
    );
    let l2_hits = c1.l2_hits - c0.l2_hits;
    let l2_misses = c1.l2_misses - c0.l2_misses;
    report.metric(
        "shared.hit_rate",
        ratio(l2_hits, l2_hits + l2_misses),
        &format!("router L2 hits over {} L2 probes", l2_hits + l2_misses),
    );
    let (v, n) = trace::mean_us(spans, "shared.hit");
    report.metric(
        "shared.replay_us",
        v,
        &format!("L1-disabled builder on the warm L2, per hit (n={n})"),
    );
    report.metric(
        "shared.invalidations",
        (c1.l2_invalidations - c0.l2_invalidations) as f64,
        "L2 replays repaired around live faults",
    );
    let (v, n) = trace::mean_diff_us(spans, "shared.store", &["disjoint.cold"]);
    report.metric(
        "shared.store_us",
        v,
        &format!("store into a fresh L2 minus the cold construction (n={n})"),
    );
    report.metric(
        "shared.entries",
        s.router.shared_cache().len() as f64,
        "router L2 entries at the end of the run",
    );
    let plain = ["family_cache.hit", "family_cache.miss"];
    let (v, n) = trace::mean_diff_us(spans, "avoid.pass", &plain);
    report.metric(
        "avoid.scan_us",
        v,
        &format!("avoiding minus plain call, not rerouted, faults live (n={n})"),
    );
    let (v, n) = trace::mean_diff_us(spans, "avoid.rebuild", &plain);
    report.metric(
        "avoid.rebuild_us",
        v,
        &format!("avoiding minus plain call, rerouted (n={n})"),
    );
    report.metric(
        "avoid.reroute_share",
        ratio(c1.fault_reroutes - c0.fault_reroutes, queries),
        "router queries rerouted around faults",
    );
    let (v, n) = trace::mean_us(spans, "disjoint.cold");
    report.metric(
        "disjoint.cold_us",
        v,
        &format!("plain call with every cache disabled and no L2 (n={n})"),
    );
    fan_and_dinic(report, before, after, queries);
    report.metric(
        "trace.overhead_share",
        1.0 - traced_qps / untraced_qps,
        &format!("1 - traced qps {traced_qps:.0} / untraced qps {untraced_qps:.0}"),
    );
}

/// Fan and max-flow counters per query, from a counter delta.
fn fan_and_dinic(report: &mut Report, before: &MetricsReport, after: &MetricsReport, queries: u64) {
    let fan_q = after.fan_queries() - before.fan_queries();
    let hits = (after.src_fan.cache_hits + after.tgt_fan.cache_hits)
        - (before.src_fan.cache_hits + before.tgt_fan.cache_hits);
    let misses = (after.src_fan.cache_misses + after.tgt_fan.cache_misses)
        - (before.src_fan.cache_misses + before.tgt_fan.cache_misses);
    let fast = (after.src_fan.fast_path + after.tgt_fan.fast_path)
        - (before.src_fan.fast_path + before.tgt_fan.fast_path);
    report.metric(
        "fan.queries_per_query",
        ratio(fan_q, queries),
        &format!("{fan_q} fan queries"),
    );
    report.metric(
        "fan.cache_hit_rate",
        ratio(hits, hits + misses),
        &format!("over {} fan-cache probes", hits + misses),
    );
    report.metric(
        "fan.fast_path_share",
        ratio(fast, fan_q),
        "fan queries answered by the neighbour fast path",
    );
    report.metric(
        "dinic.augmentations_per_query",
        ratio(
            after.solver.augmentations - before.solver.augmentations,
            queries,
        ),
        "",
    );
    report.metric(
        "dinic.arcs_touched_per_query",
        ratio(
            after.solver.arcs_touched - before.solver.arcs_touched,
            queries,
        ),
        "",
    );
}
