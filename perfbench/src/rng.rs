//! The benchmark's own seeded generator. Every input a workload feeds
//! the program — pairs, Zipf draws, fault targets, replication seeds —
//! comes from one of these, derived from the `--seed` argument only.

/// SplitMix64: tiny, fast, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator for one input stream of a workload: `tag` separates
    /// the streams (pairs, draws, seeds) drawn from the same seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut g = SplitMix64 {
            state: seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
        };
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_tag() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7, 1);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        let mut other = SplitMix64::new(7, 2);
        assert_ne!(a[0], other.next_u64());
    }
}
