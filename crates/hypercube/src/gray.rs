//! Binary reflected Gray codes.
//!
//! The Gray sequence `g(0), g(1), …, g(2^m − 1)` visits every vertex of
//! `Q_m` with consecutive entries differing in exactly one bit, and wraps
//! around (`g(2^m − 1)` and `g(0)` also differ in one bit) — a Hamiltonian
//! cycle. The HHC disjoint-path construction orders its external crossings
//! along this cycle so that hopping from one crossing coordinate to the
//! next inside a son-cube is cheap; the total intra-cube walk over a whole
//! crossing sequence telescopes to at most one lap of the cycle, `2^m`
//! steps, instead of `k·m` for an arbitrary order (ablation F5 quantifies
//! the difference). [`gray_order_into`] is that order: one walk of the
//! cycle over a one-word position set, which the single-path route and
//! every crossing plan of the disjoint-path construction share.

/// The `i`-th binary reflected Gray code.
///
/// # Examples
/// ```
/// assert_eq!((0..4).map(hypercube::gray::gray).collect::<Vec<_>>(), [0, 1, 3, 2]);
/// ```
#[inline]
pub fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Inverse of [`gray`]: the rank of a code word in the Gray sequence.
#[inline]
pub fn gray_rank(mut g: u64) -> u64 {
    let mut i = 0u64;
    while g != 0 {
        i ^= g;
        g >>= 1;
    }
    i
}

/// The full Gray sequence for `m`-bit words (length `2^m`, `m ≤ 20`).
pub fn gray_sequence(m: u32) -> Vec<u64> {
    assert!(m <= 20, "gray_sequence: m too large to enumerate");
    (0..1u64 << m).map(gray).collect()
}

/// Appends the positions in `set` (bit `p` set for position `p`, every
/// position an `m`-bit value, `m ≤ 6` so that a set is one word) to
/// `out` in the cyclic order one lap of the Gray cycle visits them,
/// starting at the rank of `anchor`: the first position appended is the
/// first the cycle visits at-or-after `anchor`.
///
/// Walking the returned order costs at most `2^m` intra-cube steps in
/// total: the Hamming distance between cyclically consecutive entries is
/// at most the number of Gray steps between them, and those gaps sum to
/// one full lap.
///
/// # Examples
/// ```
/// // Q_3's cycle is 0, 1, 3, 2, 6, 7, 5, 4; from anchor 2 it meets 6
/// // first, then 5, then wraps around to 0 and 3.
/// let mut order = Vec::new();
/// hypercube::gray::gray_order_into(1 << 0 | 1 << 3 | 1 << 5 | 1 << 6, 3, 2, &mut order);
/// assert_eq!(order, [6, 5, 0, 3]);
/// ```
pub fn gray_order_into(set: u64, m: u32, anchor: u32, out: &mut Vec<u32>) {
    assert!(
        m <= 6,
        "gray_order_into: a position set of Q_{m} is not one word"
    );
    let period = 1u64 << m;
    debug_assert!(
        set.checked_shr(period as u32).unwrap_or(0) == 0,
        "set {set:#x} holds a position of more than {m} bits"
    );
    let mut rank = gray_rank(anchor as u64);
    let mut left = set.count_ones();
    while left > 0 {
        let p = gray(rank & (period - 1));
        if set >> p & 1 == 1 {
            out.push(p as u32);
            left -= 1;
        }
        rank += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_first_values() {
        let seq: Vec<u64> = (0..8).map(gray).collect();
        assert_eq!(seq, vec![0, 1, 3, 2, 6, 7, 5, 4]);
    }

    #[test]
    fn gray_rank_inverts_gray() {
        for i in 0..1u64 << 12 {
            assert_eq!(gray_rank(gray(i)), i);
        }
    }

    #[test]
    fn sequence_is_hamiltonian_cycle() {
        for m in 1..=8u32 {
            let seq = gray_sequence(m);
            assert_eq!(seq.len(), 1 << m);
            let mut seen = std::collections::HashSet::new();
            for &v in &seq {
                assert!(seen.insert(v), "repeat in Gray sequence");
            }
            for i in 0..seq.len() {
                let a = seq[i];
                let b = seq[(i + 1) % seq.len()];
                assert_eq!((a ^ b).count_ones(), 1, "non-adjacent step at {i}");
            }
        }
    }

    /// The order the Gray walk must reproduce: positions sorted by their
    /// cyclic Gray-rank distance from the anchor's rank.
    fn cyclic_rank_sort(set: u64, m: u32, anchor: u32) -> Vec<u32> {
        let period = 1u64 << m;
        let anchor_rank = gray_rank(anchor as u64);
        let mut keyed: Vec<(u64, u32)> = (0..period as u32)
            .filter(|&p| set >> p & 1 == 1)
            .map(|p| ((gray_rank(p as u64) + period - anchor_rank) % period, p))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, p)| p).collect()
    }

    #[test]
    fn walk_equals_the_cyclic_rank_sort() {
        // Every position set of Q_1..Q_4 from every anchor, then seeded
        // sets at m = 5 and 6.
        let mut order = Vec::new();
        for m in 1..=4u32 {
            for set in 0..1u64 << (1 << m) {
                for anchor in 0..1u32 << m {
                    order.clear();
                    gray_order_into(set, m, anchor, &mut order);
                    assert_eq!(
                        order,
                        cyclic_rank_sort(set, m, anchor),
                        "m={m} set={set:#x} anchor={anchor}"
                    );
                }
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for m in 5..=6u32 {
            for i in 0..4000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Sparse sets too: mask down to about a quarter of the bits.
                let set = match i % 3 {
                    0 => state,
                    1 => state & state >> 7,
                    _ => state & state >> 7 & state >> 23,
                } & (u64::MAX >> (64 - (1 << m)));
                let anchor = (state >> 40) as u32 & ((1 << m) - 1);
                order.clear();
                gray_order_into(set, m, anchor, &mut order);
                assert_eq!(
                    order,
                    cyclic_rank_sort(set, m, anchor),
                    "m={m} set={set:#x} anchor={anchor}"
                );
            }
        }
    }

    #[test]
    fn cycle_order_starts_at_anchor_when_present() {
        let mut order = Vec::new();
        gray_order_into(1 << 0 | 1 << 3 | 1 << 6 | 1 << 5, 3, 6, &mut order);
        assert_eq!(order, [6, 5, 0, 3]);
    }

    #[test]
    fn cycle_order_total_walk_bounded_by_one_lap() {
        // Sum of Hamming gaps around the ordered cycle ≤ 2^m.
        for m in 2..=6u32 {
            let set = (0..1u64 << m).step_by(3).fold(0u64, |acc, p| acc | 1 << p);
            let mut order = Vec::new();
            gray_order_into(set, m, 0, &mut order);
            let total: u32 = (0..order.len())
                .map(|i| {
                    let a = order[i];
                    let b = order[(i + 1) % order.len()];
                    (a ^ b).count_ones()
                })
                .sum();
            assert!(
                total <= 1 << m,
                "m={m}: cyclic walk {total} exceeds one lap {}",
                1 << m
            );
        }
    }

    #[test]
    fn anchor_between_positions_picks_next_on_cycle() {
        // Gray order for m=3: 0,1,3,2,6,7,5,4. Anchor=1 (rank 1) with
        // positions {0, 2}: rank(2)=3, rank(0)=0 → 2 comes first.
        let mut order = Vec::new();
        gray_order_into(1 << 0 | 1 << 2, 3, 1, &mut order);
        assert_eq!(order, [2, 0]);
    }

    #[test]
    fn empty_positions_ok() {
        let mut order = vec![9];
        gray_order_into(0, 4, 7, &mut order);
        assert_eq!(order, [9], "appends nothing");
    }
}
