//! Pins the constructor's exact answers with two FNV-1a digests over
//! seeded samples:
//!
//! * the `disjoint_paths_into` families, path by path in output order,
//!   for HHC(2)..HHC(6) under both crossing orders;
//! * the `disjoint_paths_avoiding_into` results for HHC(2)..HHC(5),
//!   each family's paths sorted, together with its `AvoidOutcome`. Most
//!   fault sets hold interior nodes of the pair's plain family, so most
//!   of these queries are rebuilt around the faults.
//!
//! The other tests check that answers are *valid*; these check that they
//! did not *move*. The avoiding digest sorts each family's paths, so it
//! pins which paths an answer holds, not the order a rebuild lists them
//! in. A change that moves an answer on purpose re-records the constant
//! and says why in CHANGES.md: the plain families decide every committed
//! CSV, golden trace and DES pin.

use hhc_core::{
    disjoint_paths_avoiding_into, disjoint_paths_into, CrossingOrder, FaultSet, Hhc, NodeId,
    PathBuilder, PathSet,
};

/// The digest of the plain sample (see [`plain_digest`]).
const PLAIN_DIGEST: u64 = 0x0478_875b_120c_ba20;
/// The digest of the fault-avoiding sample (see [`avoiding_digest`]).
const AVOIDING_DIGEST: u64 = 0x22b6_01de_e922_62c3;

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn path(&mut self, p: &[NodeId]) {
        self.word(p.len() as u64);
        for w in p {
            self.bytes(&w.raw().to_le_bytes());
        }
    }
}

/// Seeded xorshift64: the sample is the same on every run and platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn node(&mut self, h: &Hhc) -> NodeId {
        let x = (self.next() as u128) & ((1u128 << h.positions()) - 1);
        h.node(x, self.below(h.positions() as u64) as u32).unwrap()
    }

    /// A pair of distinct nodes; every eighth shares its son-cube, so
    /// both construction cases are pinned.
    fn pair(&mut self, h: &Hhc, i: usize) -> (NodeId, NodeId) {
        let u = self.node(h);
        loop {
            let v = if i.is_multiple_of(8) {
                let y = self.below(h.positions() as u64) as u32;
                h.node(h.cube_field(u), y).unwrap()
            } else {
                self.node(h)
            };
            if v != u {
                return (u, v);
            }
        }
    }
}

fn order(i: usize) -> CrossingOrder {
    if i.is_multiple_of(2) {
        CrossingOrder::Gray
    } else {
        CrossingOrder::Sorted
    }
}

/// 400 pairs per m = 2..=6 and crossing order; every family hashed in
/// output order.
fn plain_digest() -> u64 {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut fnv = Fnv::new();
    let (mut b, mut out) = (PathBuilder::new(), PathSet::new());
    for m in 2..=6 {
        let h = Hhc::new(m).unwrap();
        for o in 0..2 {
            for i in 0..400 {
                let (u, v) = rng.pair(&h, i);
                disjoint_paths_into(&h, u, v, order(o), &mut out, &mut b).unwrap();
                fnv.word(out.len() as u64);
                for p in &out {
                    fnv.path(p);
                }
            }
        }
    }
    fnv.0
}

/// 600 queries per m = 2..=5 with 1..=m+1 faults, alternating crossing
/// orders. Each fault is an interior node of the plain family with
/// probability 3/4 and a uniform node otherwise (never an endpoint).
fn avoiding_digest() -> u64 {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut fnv = Fnv::new();
    let (mut b, mut plain, mut out) = (PathBuilder::new(), PathSet::new(), PathSet::new());
    let mut sorted: Vec<Vec<NodeId>> = Vec::new();
    for m in 2..=5 {
        let h = Hhc::new(m).unwrap();
        for i in 0..600 {
            let (u, v) = rng.pair(&h, i);
            disjoint_paths_into(&h, u, v, order(i), &mut plain, &mut b).unwrap();
            let f = 1 + i % (m as usize + 1);
            let mut faults = FaultSet::default();
            while faults.len() < f {
                let w = if rng.below(4) < 3 {
                    let p = plain.path(rng.below(plain.len() as u64) as usize);
                    p[rng.below(p.len() as u64) as usize]
                } else {
                    rng.node(&h)
                };
                if w != u && w != v {
                    faults.insert(w);
                }
            }
            let outcome =
                disjoint_paths_avoiding_into(&h, u, v, order(i), &faults, &mut out, &mut b)
                    .unwrap();
            fnv.word(outcome.paths as u64);
            fnv.word(outcome.rerouted as u64);
            sorted.clear();
            sorted.extend(out.iter().map(<[NodeId]>::to_vec));
            sorted.sort();
            for p in &sorted {
                fnv.path(p);
            }
        }
    }
    fnv.0
}

#[test]
fn plain_families_match_the_pinned_digest() {
    let d = plain_digest();
    assert_eq!(d, PLAIN_DIGEST, "plain digest moved: {d:#018x}");
}

#[test]
fn avoiding_families_match_the_pinned_digest() {
    let d = avoiding_digest();
    assert_eq!(d, AVOIDING_DIGEST, "avoiding digest moved: {d:#018x}");
}
