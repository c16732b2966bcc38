//! Fault oracles: the construction-facing view of a fault set.
//!
//! The fault-avoiding construction ([`crate::disjoint_paths_avoiding`])
//! asks an oracle three things: *is this node faulty?*, *how many faults
//! are there?* and *which nodes are they?* The last one is what keeps a
//! fault check O(f) in the live fault count: the avoiding layer lists
//! the faults once per query and tests each against the cached family's
//! cube-offset span before it probes any node (see `disjoint::avoid`).
//! The trait stays object-safe — callers hand the engine a
//! `&dyn FaultOracle` and keep whatever representation suits them: a
//! hash set, or the sorted [`FaultSet`]. `netsim` re-exports
//! [`FaultSet`] under the same name, and its selection layer takes the
//! same `&dyn FaultOracle`, so one fault set serves both the simulator
//! and the construction engine without conversion.

use crate::node::NodeId;
use std::collections::HashSet;

/// Membership oracle for faulty nodes.
pub trait FaultOracle {
    /// Whether `v` is faulty.
    fn is_faulty(&self, v: NodeId) -> bool;

    /// Number of faulty nodes. `0` lets fault-aware entry points skip
    /// fault handling entirely (and is required to mean "no node is
    /// faulty" — [`is_faulty`](Self::is_faulty) must then be `false`
    /// everywhere).
    fn fault_count(&self) -> usize;

    /// Appends every faulty node to `out`, each exactly once, in any
    /// order: exactly the nodes [`is_faulty`](Self::is_faulty) accepts,
    /// [`fault_count`](Self::fault_count) of them. There is deliberately
    /// no default — an oracle that listed nothing would let the avoiding
    /// layer's span test wave a blocked family through.
    fn list_faults(&self, out: &mut Vec<NodeId>);
}

impl FaultOracle for HashSet<NodeId> {
    fn is_faulty(&self, v: NodeId) -> bool {
        self.contains(&v)
    }

    fn fault_count(&self) -> usize {
        self.len()
    }

    fn list_faults(&self, out: &mut Vec<NodeId>) {
        out.extend(self.iter().copied());
    }
}

impl<T: FaultOracle + ?Sized> FaultOracle for &T {
    fn is_faulty(&self, v: NodeId) -> bool {
        (**self).is_faulty(v)
    }

    fn fault_count(&self) -> usize {
        (**self).fault_count()
    }

    fn list_faults(&self, out: &mut Vec<NodeId>) {
        (**self).list_faults(out)
    }
}

/// A fault set stored as a sorted, deduplicated vector and probed by
/// binary search. Live fault sets are tiny (`|F| ≤ m` in the guarantee's
/// regime, occasionally a few dozen), so this beats a `HashSet`, which
/// pays a SipHash of a 16-byte node per probe. It is the router's live
/// set and worker snapshot, and the simulator's per-run set.
///
/// ```
/// use hhc_core::{FaultOracle, FaultSet, NodeId};
///
/// let set = FaultSet::new(vec![5u128, 5, 9].into_iter().map(NodeId::from_raw).collect());
/// assert_eq!(set.fault_count(), 2); // deduplicated
/// assert!(set.is_faulty(NodeId::from_raw(9)));
/// assert!(!set.is_faulty(NodeId::from_raw(4)));
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    nodes: Vec<NodeId>,
}

impl FaultSet {
    /// Builds the set from arbitrary (unsorted, possibly duplicated)
    /// nodes.
    pub fn new(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        FaultSet { nodes }
    }

    /// Converts from the builder representation.
    pub fn from_set(set: &HashSet<NodeId>) -> Self {
        Self::new(set.iter().copied().collect())
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Marks `v` faulty; returns `false` if it already was.
    pub fn insert(&mut self, v: NodeId) -> bool {
        match self.nodes.binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.nodes.insert(i, v);
                true
            }
        }
    }

    /// Heals `v`; returns `false` if it was not faulty.
    pub fn remove(&mut self, v: NodeId) -> bool {
        match self.nodes.binary_search(&v) {
            Ok(i) => {
                self.nodes.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The faulty nodes in ascending order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }
}

// By hand rather than derived: the derived `clone_from` would allocate a
// fresh vector, and a router worker re-snapshots into one long-lived set
// on every fault event.
impl Clone for FaultSet {
    fn clone(&self) -> Self {
        FaultSet {
            nodes: self.nodes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
    }
}

impl FromIterator<NodeId> for FaultSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl FaultOracle for FaultSet {
    fn is_faulty(&self, v: NodeId) -> bool {
        self.contains(v)
    }

    fn fault_count(&self) -> usize {
        self.len()
    }

    fn list_faults(&self, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u128) -> NodeId {
        NodeId::from_raw(raw)
    }

    #[test]
    fn hashset_oracle() {
        let set: HashSet<NodeId> = [n(3), n(9)].into_iter().collect();
        assert!(set.is_faulty(n(3)));
        assert!(!set.is_faulty(n(4)));
        assert_eq!(set.fault_count(), 2);
        // Through a reference and a trait object.
        let by_ref: &HashSet<NodeId> = &set;
        assert_eq!(by_ref.fault_count(), 2);
        let dyn_oracle: &dyn FaultOracle = &set;
        assert!(dyn_oracle.is_faulty(n(9)));
        let mut listed = vec![n(1)];
        dyn_oracle.list_faults(&mut listed);
        listed[1..].sort_unstable();
        assert_eq!(listed, [n(1), n(3), n(9)], "list_faults appends");
    }

    #[test]
    fn fault_set_dedups_sorts_and_agrees_with_hashset() {
        let fs = FaultSet::new(vec![n(7), n(3), n(7), n(1)]);
        assert_eq!(fs.as_slice(), &[n(1), n(3), n(7)]);
        assert!(fs.contains(n(3)));
        assert!(!fs.contains(n(2)));
        assert!(!fs.is_empty());
        assert!(FaultSet::default().is_empty());

        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let raw: Vec<NodeId> = (0..200).map(|_| n((next() % 512) as u128)).collect();
        let hs: HashSet<NodeId> = raw.iter().copied().collect();
        let fs: FaultSet = raw.iter().copied().collect();
        assert_eq!(fs, FaultSet::from_set(&hs));
        assert_eq!(fs.len(), hs.len());
        for probe in 0..512u128 {
            assert_eq!(
                fs.is_faulty(n(probe)),
                hs.is_faulty(n(probe)),
                "membership diverged at {probe}"
            );
        }
    }

    #[test]
    fn fault_set_insert_remove_keep_it_sorted() {
        let mut fs = FaultSet::default();
        for raw in [9u128, 2, 5, 2] {
            fs.insert(n(raw));
        }
        assert_eq!(fs.as_slice(), &[n(2), n(5), n(9)]);
        assert!(!fs.insert(n(5)), "duplicate insert is a no-op");
        assert!(fs.remove(n(2)));
        assert!(!fs.remove(n(2)), "duplicate remove is a no-op");
        assert_eq!(fs.as_slice(), &[n(5), n(9)]);
        let mut listed = Vec::new();
        fs.list_faults(&mut listed);
        assert_eq!(listed, fs.as_slice());
        // A snapshot taken with `clone_from` matches and reuses capacity.
        let mut snap = FaultSet::new(vec![n(1), n(3), n(4), n(8)]);
        let cap = snap.nodes.capacity();
        snap.clone_from(&fs);
        assert_eq!(snap, fs);
        assert_eq!(snap.nodes.capacity(), cap);
    }
}
