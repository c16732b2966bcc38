//! Wide-diameter estimation.
//!
//! The `(m+1)`-wide diameter `D_{m+1}(HHC(m))` is the smallest `L` such
//! that every pair of distinct nodes is joined by `m + 1` internally
//! disjoint paths of length ≤ `L`. The construction gives the upper bound
//! [`crate::bounds::wide_diameter_upper_bound`]; this module measures the
//! largest maximum-path-length the construction actually produces —
//! exhaustively for tiny networks, over samples otherwise (experiment T4).
//!
//! Every sweep comes in two forms: a convenience entry point that owns
//! its [`Workspace`], and a `_with` variant taking a caller-owned one so
//! batch drivers can reuse scratch across sweeps and read the
//! accumulated [construction metrics](crate::PathBuilder::metrics) off
//! its `builder` afterwards. Infeasible requests (an exhaustive sweep on
//! a network too large to enumerate) are reported as
//! [`HhcError::Unsupported`], never panics.
//!
//! # Panics
//!
//! All sweeps verify each constructed family as they go; a verification
//! failure means the construction itself is buggy (the test suite proves
//! it exhaustively for `m ≤ 2`) and panics rather than mislabelling the
//! estimate. No input reachable through the validated parameters can
//! trigger this.

use crate::batch::Workspace;
use crate::disjoint::CrossingOrder;
use crate::error::HhcError;
use crate::topology::Hhc;

/// Largest `m` for which the exhaustive all-pairs sweep is feasible:
/// HHC(2) has 64 nodes ⇒ 4032 ordered pairs; HHC(3) already has 2048
/// nodes ⇒ over 4 million pairs.
pub const EXHAUSTIVE_MAX_M: u32 = 2;

/// Result of a wide-diameter sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideDiameterEstimate {
    /// Largest max-path-length observed over the examined pairs.
    pub observed_max: u32,
    /// Number of (ordered) pairs examined.
    pub pairs: u64,
    /// Provable upper bound for this network.
    pub upper_bound: u32,
}

/// Exhaustive sweep over all ordered pairs. Only feasible for
/// `m ≤` [`EXHAUSTIVE_MAX_M`]; larger networks return
/// [`HhcError::Unsupported`] (use [`sampled`] there).
pub fn exhaustive(hhc: &Hhc) -> Result<WideDiameterEstimate, HhcError> {
    exhaustive_with(hhc, &mut Workspace::new())
}

/// [`exhaustive`] reusing a caller-owned [`Workspace`].
pub fn exhaustive_with(hhc: &Hhc, ws: &mut Workspace) -> Result<WideDiameterEstimate, HhcError> {
    if hhc.m() > EXHAUSTIVE_MAX_M {
        return Err(HhcError::Unsupported(format!(
            "exhaustive wide-diameter sweep enumerates all ordered pairs; \
             m={} exceeds the m ≤ {EXHAUSTIVE_MAX_M} guard (use a sampled sweep)",
            hhc.m()
        )));
    }
    let mut observed = 0;
    let mut pairs = 0;
    for u in hhc.iter_nodes() {
        for v in hhc.iter_nodes() {
            if u == v {
                continue;
            }
            let max = ws
                .construct_and_verify(hhc, u, v, CrossingOrder::Gray)
                .expect("construction must verify (internal invariant)");
            observed = observed.max(max);
            pairs += 1;
        }
    }
    Ok(WideDiameterEstimate {
        observed_max: observed,
        pairs,
        upper_bound: crate::bounds::wide_diameter_upper_bound(hhc),
    })
}

/// Sampled sweep over `count` pseudo-random ordered pairs drawn from the
/// given seed (deterministic; independent of platform).
pub fn sampled(hhc: &Hhc, count: u64, seed: u64) -> Result<WideDiameterEstimate, HhcError> {
    sampled_with(hhc, count, seed, &mut Workspace::new())
}

/// [`sampled`] reusing a caller-owned [`Workspace`].
pub fn sampled_with(
    hhc: &Hhc,
    count: u64,
    seed: u64,
    ws: &mut Workspace,
) -> Result<WideDiameterEstimate, HhcError> {
    let mut rng = SplitMix64::new(seed);
    let xmask = if hhc.positions() >= 128 {
        u128::MAX
    } else {
        (1u128 << hhc.positions()) - 1
    };
    let ymod = 1u64 << hhc.m();
    let mut observed = 0;
    let mut pairs = 0;
    while pairs < count {
        let u = hhc.node(rng.next_u128() & xmask, (rng.next() % ymod) as u32)?;
        let v = hhc.node(rng.next_u128() & xmask, (rng.next() % ymod) as u32)?;
        if u == v {
            continue;
        }
        let max = ws
            .construct_and_verify(hhc, u, v, CrossingOrder::Gray)
            .expect("construction must verify (internal invariant)");
        observed = observed.max(max);
        pairs += 1;
    }
    Ok(WideDiameterEstimate {
        observed_max: observed,
        pairs,
        upper_bound: crate::bounds::wide_diameter_upper_bound(hhc),
    })
}

/// Pairs stressing the worst case: antipodal cube fields and node fields.
/// Returns the observed max over a structured family of `hard` pairs
/// (all-ones cube-field difference with every `(Yu, Yv)` combination).
pub fn adversarial(hhc: &Hhc) -> Result<WideDiameterEstimate, HhcError> {
    adversarial_with(hhc, &mut Workspace::new())
}

/// [`adversarial`] reusing a caller-owned [`Workspace`].
pub fn adversarial_with(hhc: &Hhc, ws: &mut Workspace) -> Result<WideDiameterEstimate, HhcError> {
    let all_x = if hhc.positions() >= 128 {
        u128::MAX
    } else {
        (1u128 << hhc.positions()) - 1
    };
    let mut observed = 0;
    let mut pairs = 0;
    for yu in 0..hhc.positions() {
        for yv in 0..hhc.positions() {
            let u = hhc.node(0, yu)?;
            let v = hhc.node(all_x, yv)?;
            let max = ws
                .construct_and_verify(hhc, u, v, CrossingOrder::Gray)
                .expect("construction must verify (internal invariant)");
            observed = observed.max(max);
            pairs += 1;
        }
    }
    Ok(WideDiameterEstimate {
        observed_max: observed,
        pairs,
        upper_bound: crate::bounds::wide_diameter_upper_bound(hhc),
    })
}

/// Minimal deterministic PRNG (SplitMix64) so the crate needs no RNG
/// dependency; experiment-facing randomness lives in `workloads`.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_u128(&mut self) -> u128 {
        (self.next() as u128) << 64 | self.next() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_m1() {
        let h = Hhc::new(1).unwrap();
        let est = exhaustive(&h).unwrap();
        assert_eq!(est.pairs, 8 * 7);
        assert!(est.observed_max <= est.upper_bound);
        // HHC(1) is the 8-cycle: two disjoint paths between any pair, the
        // longer of which has length ≥ 4 for antipodal pairs.
        assert!(est.observed_max >= 4);
    }

    #[test]
    fn exhaustive_m2() {
        let h = Hhc::new(2).unwrap();
        let est = exhaustive(&h).unwrap();
        assert_eq!(est.pairs, 64 * 63);
        assert!(est.observed_max <= est.upper_bound);
        assert!(est.observed_max >= h.diameter());
    }

    #[test]
    fn exhaustive_above_guard_is_an_error_not_a_panic() {
        for m in (EXHAUSTIVE_MAX_M + 1)..=6 {
            let h = Hhc::new(m).unwrap();
            match exhaustive(&h) {
                Err(HhcError::Unsupported(msg)) => {
                    assert!(msg.contains("exhaustive"), "m={m}: {msg}")
                }
                other => panic!("m={m}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn sampled_is_deterministic() {
        let h = Hhc::new(4).unwrap();
        let a = sampled(&h, 50, 42).unwrap();
        let b = sampled(&h, 50, 42).unwrap();
        assert_eq!(a, b);
        assert!(a.observed_max <= a.upper_bound);
    }

    #[test]
    fn adversarial_pairs_verify() {
        let h = Hhc::new(3).unwrap();
        let est = adversarial(&h).unwrap();
        assert_eq!(est.pairs, 64);
        assert!(est.observed_max <= est.upper_bound);
    }

    #[test]
    fn with_variants_share_a_workspace_and_accumulate_metrics() {
        let h = Hhc::new(1).unwrap();
        let mut ws = Workspace::new();
        let a = exhaustive_with(&h, &mut ws).unwrap();
        let b = adversarial_with(&h, &mut ws).unwrap();
        assert_eq!(a, exhaustive(&h).unwrap());
        assert_eq!(b, adversarial(&h).unwrap());
        let m = ws.builder.metrics();
        assert_eq!(m.construction.queries, a.pairs + b.pairs);
    }
}
