//! Zipf(s) sampler over ranks `0..n` (rank 0 is the most popular), by
//! inverse-CDF lookup in a precomputed table.

use crate::rng::SplitMix64;

pub struct Zipf {
    /// `cdf[r]` = probability of drawing a rank `≤ r`; the last entry
    /// is exactly 1.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        cdf[n - 1] = 1.0;
        Zipf { cdf }
    }

    /// Probability mass of ranks `0..k`.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let z = Zipf::new(8192, 1.0);
        let draw = |seed| {
            let mut g = SplitMix64::new(seed, 3);
            (0..1000).map(|_| z.sample(&mut g)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn head_mass_matches_harmonic_numbers() {
        let n = 8192;
        let z = Zipf::new(n, 1.0);
        let h = |k: usize| (1..=k).map(|r| 1.0 / r as f64).sum::<f64>();
        let top1 = 1.0 / h(n);
        let top1024 = h(1024) / h(n);
        assert!((z.head_mass(1) - top1).abs() < 1e-12);
        assert!((z.head_mass(1024) - top1024).abs() < 1e-12);
        assert_eq!(z.head_mass(n), 1.0);

        // Empirical head mass of 200k draws within 1% (absolute) of the
        // analytic value: rank 0 near 10.5%, the top 1024 near 77.7%.
        let mut g = SplitMix64::new(5, 3);
        let draws = 200_000;
        let (mut r0, mut head) = (0usize, 0usize);
        for _ in 0..draws {
            let r = z.sample(&mut g);
            assert!(r < n);
            r0 += (r == 0) as usize;
            head += (r < 1024) as usize;
        }
        assert!((r0 as f64 / draws as f64 - top1).abs() < 0.01);
        assert!((head as f64 / draws as f64 - top1024).abs() < 0.01);
    }
}
