//! 128-bit digests of query answers, so that answers can be compared
//! with the oracle after the timed phase without keeping every path.
//! Two independent 64-bit multiply-fold lanes over the exact node
//! sequence, path boundaries and error value.

use hhc_core::{HhcError, NodeId};

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

fn fold(x: u64, k: u64) -> u64 {
    let p = (x as u128).wrapping_mul(k as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

struct Digest {
    a: u64,
    b: u64,
}

impl Digest {
    fn new(tag: u64) -> Self {
        Digest {
            a: 0x243F_6A88_85A3_08D3 ^ tag,
            b: 0x1319_8A2E_0370_7344 ^ tag.rotate_left(17),
        }
    }

    fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, K1);
        self.b = fold(self.b.rotate_left(23) ^ w, K2);
    }

    fn finish(self) -> u128 {
        (self.a as u128) << 64 | self.b as u128
    }
}

/// Digest of a path family, path by path.
pub fn family<'a>(paths: impl Iterator<Item = &'a [NodeId]>) -> u128 {
    let mut d = Digest::new(1);
    for p in paths {
        d.word(p.len() as u64);
        for v in p {
            d.word(v.raw() as u64);
            d.word((v.raw() >> 64) as u64);
        }
    }
    d.finish()
}

/// Digest of a construction error.
pub fn error(e: &HhcError) -> u128 {
    let mut d = Digest::new(2);
    for chunk in format!("{e:?}").as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        d.word(u64::from_le_bytes(w));
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_boundaries_and_order_matter() {
        let n = |x: u128| NodeId::from_raw(x);
        let a = [n(1), n(2), n(3)];
        let b = [n(4)];
        let one: [&[NodeId]; 2] = [&a, &b];
        let split: [&[NodeId]; 2] = [&a[..2], &[n(3), n(4)]];
        let swapped: [&[NodeId]; 2] = [&b, &a];
        let d = family(one.iter().copied());
        assert_eq!(d, family(one.iter().copied()));
        assert_ne!(d, family(split.iter().copied()));
        assert_ne!(d, family(swapped.iter().copied()));
        assert_ne!(error(&HhcError::EqualNodes), d);
    }
}
