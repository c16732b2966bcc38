//! Flat, arena-backed path families.
//!
//! A [`PathSet`] stores a family of paths CSR-style: one contiguous
//! node buffer plus a table of path ends. This is the primary output type
//! of the construction engine — a full HHC(m) family is `m + 1` paths
//! of bounded length, so the per-`Vec` allocation overhead of the
//! legacy `Vec<Path>` shape dominated construction cost in batch
//! workloads. A `PathSet` is reused across queries ([`PathSet::clear`]
//! keeps capacity), and converts cheaply to the legacy shape via
//! [`PathSet::to_paths`] where callers still want owned `Vec`s.

use crate::node::NodeId;

/// Bit `h` of an address word, for every hop code `h` (see
/// [`PathSet::extend_hops`]).
static HOP_BIT: [u128; 128] = {
    let mut bits = [0u128; 128];
    let mut h = 0;
    while h < 128 {
        bits[h] = 1 << h;
        h += 1;
    }
    bits
};

/// The legacy owned-path shape: one `Vec` of nodes per path.
pub type Path = Vec<NodeId>;

/// A family of node-disjoint paths in flat CSR form: path `i` occupies
/// `nodes[start .. ends[i]]`, where `start` is the previous path's end
/// (`0` for the first). `ends` has one entry per path, so an empty set
/// holds nothing at all, and `new()` and `default()` allocate nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathSet {
    nodes: Vec<NodeId>,
    ends: Vec<u32>,
}

impl PathSet {
    /// An empty family (allocates nothing).
    pub fn new() -> Self {
        PathSet::default()
    }

    /// An empty family with room for `paths` paths of `nodes` total nodes.
    pub fn with_capacity(paths: usize, nodes: usize) -> Self {
        PathSet {
            nodes: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(paths),
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total node count across all paths (shared endpoints counted once
    /// per path).
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Where path `i` starts in `nodes`: the end of path `i - 1`.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        }
    }

    /// Path `i` as a node slice, endpoints inclusive.
    pub fn path(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.start(i)..self.ends[i] as usize]
    }

    /// Iterates over the paths as slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.paths(0..self.len())
    }

    /// Iterates over paths `range` as slices.
    pub(crate) fn paths(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        range.map(move |i| self.path(i))
    }

    /// Longest path, in edges. Zero for an empty family.
    pub fn max_len(&self) -> usize {
        self.iter()
            .map(|p| p.len().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Removes all paths, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
    }

    /// Keeps the first `paths` paths (all of them if there are fewer)
    /// and drops every node after them, including a path still under
    /// construction; capacity is kept. This is how an appended family
    /// is taken back to its base.
    pub(crate) fn truncate(&mut self, paths: usize) {
        self.ends.truncate(paths);
        self.nodes.truncate(self.start(self.ends.len()));
    }

    /// Appends one node to the path currently under construction.
    pub fn push_node(&mut self, v: NodeId) {
        self.nodes.push(v);
    }

    /// Seals the path under construction: everything pushed since the
    /// previous `finish_path` (or construction/`clear`) becomes path
    /// `len() - 1`.
    pub fn finish_path(&mut self) {
        self.ends.push(self.nodes.len() as u32);
    }

    /// Appends a whole path from a slice.
    pub fn push_path(&mut self, path: &[NodeId]) {
        self.nodes.extend_from_slice(path);
        self.finish_path();
    }

    /// Appends one path per entry of `ends`, each starting at `start`.
    /// Path `i` takes the hops `hops[ends[i - 1]..ends[i]]` (from `0` for
    /// the first), and hop code `h` flips address bit `h`. This is the
    /// family-cache replay path of both tiers: the hops are a cached
    /// family and `start` is the query's source. One capacity check for
    /// the whole family; each hop is one table load and one XOR.
    pub(crate) fn extend_hops(&mut self, start: NodeId, hops: &[u8], ends: &[u16]) {
        let base = self.nodes.len() as u32;
        self.nodes.reserve(hops.len() + ends.len());
        let mut from = 0;
        for &end in ends {
            let mut w = start.raw();
            self.nodes.push(start);
            // Codes are below m + 2^m ≤ 70; the mask drops the bounds
            // check.
            self.nodes.extend(hops[from..end as usize].iter().map(|&h| {
                w ^= HOP_BIT[usize::from(h) & 127];
                NodeId(w)
            }));
            from = end as usize;
        }
        self.ends.extend(
            ends.iter()
                .zip(1u32..)
                .map(|(&end, i)| base + u32::from(end) + i),
        );
    }

    /// Converts to the legacy `Vec<Path>` shape (allocates per path).
    pub fn to_paths(&self) -> Vec<Path> {
        self.iter().map(|p| p.to_vec()).collect()
    }

    /// Builds a `PathSet` from legacy owned paths.
    pub fn from_paths<P: AsRef<[NodeId]>>(paths: &[P]) -> Self {
        let total = paths.iter().map(|p| p.as_ref().len()).sum();
        let mut set = PathSet::with_capacity(paths.len(), total);
        for p in paths {
            set.push_path(p.as_ref());
        }
        set
    }
}

impl<'a> IntoIterator for &'a PathSet {
    type Item = &'a [NodeId];
    type IntoIter = Box<dyn ExactSizeIterator<Item = &'a [NodeId]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn builder_round_trip() {
        let mut set = PathSet::new();
        assert!(set.is_empty());
        set.push_node(id(1));
        set.push_node(id(2));
        set.finish_path();
        set.push_path(&[id(3), id(4), id(5)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_nodes(), 5);
        assert_eq!(set.path(0), &[id(1), id(2)]);
        assert_eq!(set.path(1), &[id(3), id(4), id(5)]);
        assert_eq!(set.max_len(), 2);

        let legacy = set.to_paths();
        assert_eq!(legacy, vec![vec![id(1), id(2)], vec![id(3), id(4), id(5)]]);
        assert_eq!(PathSet::from_paths(&legacy), set);
    }

    #[test]
    fn default_is_the_empty_set() {
        // Both constructors give the same empty set, which allocates
        // nothing: the router moves sets out with `mem::take`.
        let set = PathSet::default();
        assert_eq!(set, PathSet::new());
        assert_eq!(set.len(), 0);
        assert!(set.is_empty());
        assert_eq!(set.iter().len(), 0);
        assert!(set.to_paths().is_empty());
        assert_eq!(set.max_len(), 0);
        assert_eq!(set.total_nodes(), 0);
    }

    #[test]
    fn truncate_drops_whole_and_open_paths() {
        let mut set = PathSet::from_paths(&[vec![id(1), id(2)], vec![id(3)]]);
        set.push_node(id(4)); // an open path
        set.truncate(5);
        assert_eq!(set, PathSet::from_paths(&[vec![id(1), id(2)], vec![id(3)]]));
        set.push_path(&[id(5), id(6)]);
        set.push_node(id(7));
        set.truncate(1);
        assert_eq!(set, PathSet::from_paths(&[vec![id(1), id(2)]]));
        set.truncate(0);
        assert_eq!(set, PathSet::new());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut set = PathSet::new();
        set.push_path(&[id(1), id(2), id(3)]);
        let cap = set.nodes.capacity();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.total_nodes(), 0);
        assert_eq!(set.nodes.capacity(), cap);
    }

    #[test]
    fn empty_paths_are_representable() {
        let mut set = PathSet::new();
        set.finish_path();
        set.push_path(&[id(9)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.path(0), &[] as &[NodeId]);
        assert_eq!(set.path(1), &[id(9)]);
        assert_eq!(set.max_len(), 0);
    }

    #[test]
    fn extend_hops_decodes_every_path_from_the_start() {
        let mut set = PathSet::from_paths(&[vec![id(9)]]);
        set.extend_hops(id(0b100), &[0, 1, 69], &[2, 3]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.path(1), &[id(0b100), id(0b101), id(0b111)]);
        assert_eq!(set.path(2), &[id(0b100), id(0b100 | 1 << 69)]);
    }

    #[test]
    fn iter_yields_in_order() {
        let set = PathSet::from_paths(&[vec![id(7)], vec![id(8), id(9)]]);
        let got: Vec<_> = set.iter().map(|p| p.len()).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!((&set).into_iter().len(), 2);
    }
}
