//! Pins the fan solver's exact answers and exact effort with one FNV-1a
//! digest per sample of [`fan::fan_paths_into`] queries:
//!
//! * with no forbidden node: every source and every target set of 1..=n
//!   targets on Q_1..Q_4, each set in ascending and in descending order,
//!   then seeded samples on Q_5 and Q_6;
//! * with forbidden nodes: every source, target set and forbidden mask
//!   sparing the source on Q_1..Q_3, then seeded samples on Q_4..Q_6.
//!
//! Each query folds its result (the served count or flags, and every
//! served path node by node) and the query's deltas of the solver's
//! `bfs_passes`, `augmentations` and `arcs_touched`. So the digests move
//! when a fan moves, and also when the solver does different work for
//! the same fan: they pin "the same answers from the same augmenting
//! paths" without a clock. One [`FanScratch`] serves each dimension, so
//! the deltas read one solver's counters.
//!
//! The constants are never edited to make a solver change pass. A change
//! that moves a fan on purpose re-records them and says why in
//! CHANGES.md, since the fans decide every HHC family.

use hypercube::fan::{self, FanScratch};
use hypercube::{Cube, Node};

/// Digest of the sample with no forbidden node.
const CANONICAL_DIGEST: u64 = 0x78b1_6600_1ae4_6d64;
/// Digest of the sample with forbidden nodes.
const AVOIDING_DIGEST: u64 = 0x0c9e_2853_17d7_a3bb;

/// Seeded queries per dimension for the sampled cubes.
const SAMPLES: usize = 3000;

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Xorshift64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Calls `f(s, targets)` for every source of `Q_n` and every set of
/// 1..=n other nodes, ascending.
fn every_target_set(n: u32, mut f: impl FnMut(Node, &[Node])) {
    let num = 1u64 << n;
    let mut targets = Vec::new();
    for s in 0..num {
        for tmask in 1u64..1 << num {
            if tmask >> s & 1 == 1 || tmask.count_ones() > n {
                continue;
            }
            targets.clear();
            targets.extend((0..num).filter(|&t| tmask >> t & 1 == 1).map(Node::from));
            f(Node::from(s), &targets);
        }
    }
}

/// A seeded query on `Q_n`: a source and 1..=n distinct other targets.
fn sample_query(n: u32, rng: &mut Rng, targets: &mut Vec<Node>) -> Node {
    let num = 1u64 << n;
    let s = Node::from(rng.below(num));
    let k = rng.below(n as u64) as usize + 1;
    targets.clear();
    while targets.len() < k {
        let t = Node::from(rng.below(num));
        if t != s && !targets.contains(&t) {
            targets.push(t);
        }
    }
    s
}

/// A seeded forbidden mask on `Q_n` sparing `s`: up to `n` random nodes,
/// which may include targets.
fn sample_forbidden(n: u32, s: Node, rng: &mut Rng) -> u64 {
    let mut forbidden = 0u64;
    for _ in 0..rng.below(n as u64 + 1) {
        forbidden |= 1 << rng.below(1 << n);
    }
    forbidden & !(1 << s)
}

/// Folds the last query's solver-effort deltas, then every target's
/// served flag and, if served, its path.
fn fold(h: &mut Fnv, sc: &FanScratch, before: graphs::DinicStats, targets: usize) {
    let after = sc.solver_stats();
    h.u64(after.bfs_passes - before.bfs_passes);
    h.u64(after.augmentations - before.augmentations);
    h.u64(after.arcs_touched - before.arcs_touched);
    for i in 0..targets {
        let served = sc.target_served(i);
        h.u64(served as u64);
        if served {
            let p = sc.path(i);
            h.u64(p.len() as u64);
            for &x in p {
                h.u64(x as u64);
            }
        }
    }
}

#[test]
fn canonical_fans_are_pinned() {
    let mut h = Fnv::new();
    let mut rev = Vec::new();
    for n in 1u32..=4 {
        let q = Cube::new(n).unwrap();
        let mut sc = FanScratch::new();
        every_target_set(n, |s, targets| {
            rev.clear();
            rev.extend(targets.iter().rev());
            for t in [targets, &rev[..]] {
                let before = sc.solver_stats();
                fan::fan_paths_into(&q, s, t, 0, &mut sc).unwrap();
                fold(&mut h, &sc, before, t.len());
            }
        });
    }
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut targets = Vec::new();
    for n in 5u32..=6 {
        let q = Cube::new(n).unwrap();
        let mut sc = FanScratch::new();
        for _ in 0..SAMPLES {
            let s = sample_query(n, &mut rng, &mut targets);
            let before = sc.solver_stats();
            fan::fan_paths_into(&q, s, &targets, 0, &mut sc).unwrap();
            fold(&mut h, &sc, before, targets.len());
        }
    }
    assert_eq!(h.0, CANONICAL_DIGEST, "got {:#018x}", h.0);
}

#[test]
fn avoiding_fans_are_pinned() {
    let mut h = Fnv::new();
    let query = |h: &mut Fnv, q: &Cube, s, t: &[Node], forbidden, sc: &mut FanScratch| {
        let before = sc.solver_stats();
        let served = fan::fan_paths_into(q, s, t, forbidden, sc).unwrap();
        h.u64(served as u64);
        fold(h, sc, before, t.len());
    };
    for n in 1u32..=3 {
        let q = Cube::new(n).unwrap();
        let mut sc = FanScratch::new();
        every_target_set(n, |s, targets| {
            for forbidden in 0u64..1 << (1 << n) {
                if forbidden >> s & 1 == 0 {
                    query(&mut h, &q, s, targets, forbidden, &mut sc);
                }
            }
        });
    }
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut targets = Vec::new();
    for n in 4u32..=6 {
        let q = Cube::new(n).unwrap();
        let mut sc = FanScratch::new();
        for _ in 0..SAMPLES {
            let s = sample_query(n, &mut rng, &mut targets);
            let forbidden = sample_forbidden(n, s, &mut rng);
            query(&mut h, &q, s, &targets, forbidden, &mut sc);
        }
    }
    assert_eq!(h.0, AVOIDING_DIGEST, "got {:#018x}", h.0);
}
