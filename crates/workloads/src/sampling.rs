//! Random node/pair sampling over the HHC address space.
//!
//! This is the single home of the pair-sampling logic shared by the
//! experiment tables, the profilers and the stress suites (it was
//! previously duplicated in each). Everything is deterministic under
//! the caller's RNG (or seed, for the owning helpers).

use hhc_core::{Hhc, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniformly random node of `hhc`.
pub fn random_node<R: Rng>(hhc: &Hhc, rng: &mut R) -> NodeId {
    let n = hhc.n();
    let mask: u128 = if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let raw = ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) & mask;
    NodeId::from_raw(raw)
}

/// A random ordered pair of distinct nodes.
pub fn random_pair<R: Rng>(hhc: &Hhc, rng: &mut R) -> (NodeId, NodeId) {
    loop {
        let u = random_node(hhc, rng);
        let v = random_node(hhc, rng);
        if u != v {
            return (u, v);
        }
    }
}

/// `count` random ordered pairs of distinct nodes from a fresh
/// seed-deterministic RNG — the workload shape batched construction
/// benchmarks run on.
pub fn random_pairs(hhc: &Hhc, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_pair(hhc, &mut rng)).collect()
}

/// A random pair whose cube fields differ in exactly `k` positions
/// (`0 ≤ k ≤ 2^m`); node fields are uniform.
pub fn random_pair_with_k<R: Rng>(hhc: &Hhc, k: u32, rng: &mut R) -> (NodeId, NodeId) {
    let positions = hhc.positions();
    assert!(k <= positions);
    loop {
        // Choose k distinct positions to flip.
        let mut mask = 0u128;
        let mut chosen = 0;
        while chosen < k {
            let p = rng.gen_range(0..positions);
            if mask >> p & 1 == 0 {
                mask |= 1u128 << p;
                chosen += 1;
            }
        }
        let xu_mask: u128 = if positions >= 128 {
            u128::MAX
        } else {
            (1u128 << positions) - 1
        };
        let xu = ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) & xu_mask;
        let yu = rng.gen_range(0..hhc.positions());
        let yv = rng.gen_range(0..hhc.positions());
        let u = hhc.node(xu, yu).expect("in range");
        let v = hhc.node(xu ^ mask, yv).expect("in range");
        if u != v {
            return (u, v);
        }
    }
}

/// All ordered pairs of a small network (`m ≤ 2`).
pub fn all_pairs(hhc: &Hhc) -> Vec<(NodeId, NodeId)> {
    assert!(hhc.m() <= 2);
    let nodes: Vec<NodeId> = hhc.iter_nodes().collect();
    let mut out = Vec::with_capacity(nodes.len() * (nodes.len() - 1));
    for &u in &nodes {
        for &v in &nodes {
            if u != v {
                out.push((u, v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pair_distinct_and_in_range() {
        let h = Hhc::new(3).unwrap();
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let (u, v) = random_pair(&h, &mut r);
            assert_ne!(u, v);
            h.check(u).unwrap();
            h.check(v).unwrap();
        }
    }

    #[test]
    fn random_pairs_deterministic_under_seed() {
        let h = Hhc::new(4).unwrap();
        assert_eq!(random_pairs(&h, 32, 7), random_pairs(&h, 32, 7));
        assert_ne!(random_pairs(&h, 32, 7), random_pairs(&h, 32, 8));
    }

    #[test]
    fn random_pair_with_k_has_exact_crossing_count() {
        let h = Hhc::new(3).unwrap();
        let mut r = StdRng::seed_from_u64(2);
        for k in 0..=8 {
            for _ in 0..50 {
                let (u, v) = random_pair_with_k(&h, k, &mut r);
                assert_eq!(
                    (h.cube_field(u) ^ h.cube_field(v)).count_ones(),
                    k,
                    "wrong k"
                );
            }
        }
    }

    #[test]
    fn all_pairs_counts() {
        let h = Hhc::new(1).unwrap();
        assert_eq!(all_pairs(&h).len(), 8 * 7);
    }
}
