//! Traffic patterns: how sources choose destinations.
//!
//! The synthetic patterns are the standard interconnection-network
//! benchmarks (uniform, complement, reversal, transpose, hotspot), applied
//! to the `n = 2^m + m`-bit HHC address. Permutation patterns stress
//! specific resources: bit-complement maximises cube-field Hamming
//! distance (every external position must be crossed), bit-reversal and
//! transpose create non-local skew, hotspot concentrates load.

use crate::space::AddressSpace;
use hhc_core::NodeId;
use rand::Rng;

/// A destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniform over all nodes except the source.
    UniformRandom,
    /// Destination = bitwise complement of the full n-bit address.
    BitComplement,
    /// Destination = the n-bit address reversed.
    BitReversal,
    /// Destination swaps the low and high halves of the address
    /// (matrix-transpose traffic; for odd `n` the middle bit stays put).
    Transpose,
    /// With probability `hot_fraction`, send to the fixed hotspot node 0;
    /// otherwise uniform random.
    Hotspot {
        /// Fraction of traffic aimed at the hotspot, in `[0, 1]`.
        hot_fraction: f64,
    },
    /// Destination = a uniformly random neighbour of the source
    /// (maximally local traffic; every packet is a single hop).
    NearestNeighbor,
}

impl Pattern {
    /// Picks the destination for a packet injected at `src`.
    ///
    /// Deterministic patterns ignore `rng`. Returns `None` when the
    /// pattern maps the source to itself (such packets are not injected).
    pub fn destination<A: AddressSpace + ?Sized, R: Rng>(
        &self,
        space: &A,
        src: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        let n = space.address_bits();
        let mask: u128 = space.address_mask();
        let dst = match self {
            Pattern::UniformRandom => {
                let r: u128 = ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) & mask;
                NodeId::from_raw(r)
            }
            Pattern::BitComplement => NodeId::from_raw(!src.raw() & mask),
            Pattern::BitReversal => {
                let mut out = 0u128;
                let raw = src.raw();
                for b in 0..n {
                    out |= (raw >> b & 1) << (n - 1 - b);
                }
                NodeId::from_raw(out)
            }
            Pattern::Transpose => {
                let half = n / 2;
                let raw = src.raw();
                let low = raw & ((1u128 << half) - 1);
                let high = raw >> (n - half) & ((1u128 << half) - 1);
                let mid = raw & !(((1u128 << half) - 1) | (((1u128 << half) - 1) << (n - half)));
                NodeId::from_raw(mid | low << (n - half) | high)
            }
            Pattern::Hotspot { hot_fraction } => {
                if rng.gen::<f64>() < *hot_fraction {
                    NodeId::from_raw(0)
                } else {
                    let r: u128 =
                        ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) & mask;
                    NodeId::from_raw(r)
                }
            }
            Pattern::NearestNeighbor => {
                let nbrs = space.neighbors_of(src);
                nbrs[rng.gen_range(0..nbrs.len())]
            }
        };
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::Hhc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn complement_is_an_involution() {
        let h = Hhc::new(3).unwrap();
        let mut r = rng();
        for raw in [0u128, 5, 77, 2047] {
            let src = NodeId::from_raw(raw);
            let dst = Pattern::BitComplement.destination(&h, src, &mut r).unwrap();
            let back = Pattern::BitComplement.destination(&h, dst, &mut r).unwrap();
            assert_eq!(back, src);
            assert!(h.check(dst).is_ok());
        }
    }

    #[test]
    fn complement_maximises_crossings() {
        let h = Hhc::new(3).unwrap();
        let src = h.node(0x0F, 0b010).unwrap();
        let dst = Pattern::BitComplement
            .destination(&h, src, &mut rng())
            .unwrap();
        assert_eq!(
            (h.cube_field(src) ^ h.cube_field(dst)).count_ones(),
            h.positions()
        );
    }

    #[test]
    fn reversal_is_an_involution_and_in_range() {
        let h = Hhc::new(2).unwrap();
        let mut r = rng();
        for raw in 0..64u128 {
            let src = NodeId::from_raw(raw);
            if let Some(dst) = Pattern::BitReversal.destination(&h, src, &mut r) {
                assert!(h.check(dst).is_ok());
                let back = Pattern::BitReversal.destination(&h, dst, &mut r).unwrap();
                assert_eq!(back, src);
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let h = Hhc::new(2).unwrap(); // n = 6, halves of 3
        let mut r = rng();
        for raw in 0..64u128 {
            let src = NodeId::from_raw(raw);
            if let Some(dst) = Pattern::Transpose.destination(&h, src, &mut r) {
                assert!(h.check(dst).is_ok());
                let back = Pattern::Transpose.destination(&h, dst, &mut r).unwrap();
                assert_eq!(back, src, "transpose must be an involution");
            }
        }
    }

    #[test]
    fn transpose_odd_n_keeps_middle_bit() {
        let h = Hhc::new(3).unwrap(); // n = 11, halves of 5, middle bit 5
        let src = NodeId::from_raw(1 << 5);
        let dst = Pattern::Transpose.destination(&h, src, &mut rng());
        // Middle bit maps to itself ⇒ src → src ⇒ None.
        assert_eq!(dst, None);
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let h = Hhc::new(3).unwrap();
        let src = NodeId::from_raw(0);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(d) = Pattern::UniformRandom.destination(&h, src, &mut r) {
                assert!(h.check(d).is_ok());
                assert_ne!(d, src);
                seen.insert(d);
            }
        }
        assert!(seen.len() > 50, "uniform pattern not spreading");
    }

    #[test]
    fn hotspot_concentrates() {
        let h = Hhc::new(2).unwrap();
        let src = NodeId::from_raw(17);
        let mut r = rng();
        let p = Pattern::Hotspot { hot_fraction: 0.8 };
        let hits = (0..500)
            .filter_map(|_| p.destination(&h, src, &mut r))
            .filter(|d| d.raw() == 0)
            .count();
        assert!(hits > 300, "hotspot fraction not honoured ({hits}/500)");
    }

    #[test]
    fn nearest_neighbor_is_one_hop() {
        let h = Hhc::new(3).unwrap();
        let src = h.node(0x3C, 0b010).unwrap();
        let mut r = rng();
        for _ in 0..50 {
            let d = Pattern::NearestNeighbor
                .destination(&h, src, &mut r)
                .unwrap();
            assert!(h.is_edge(src, d), "destination must be adjacent");
        }
    }

    #[test]
    fn self_destination_suppressed() {
        let h = Hhc::new(2).unwrap();
        // Complement never maps a node to itself; reversal of a palindrome does.
        let palindrome = NodeId::from_raw(0b100001);
        assert_eq!(
            Pattern::BitReversal.destination(&h, palindrome, &mut rng()),
            None
        );
    }
}
