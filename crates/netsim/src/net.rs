//! The [`Network`] abstraction the simulator runs on.
//!
//! The evaluation compares the HHC against the plain hypercube with the
//! same node count (the paper's motivating trade-off: hypercube-like
//! behaviour at degree `m + 1` instead of `n`). Both topologies implement
//! this trait: addressing via [`AddressSpace`], plus the two routing
//! services the strategies need — a deterministic single route and the
//! family of internally node-disjoint routes.

use hhc_core::{
    CrossingOrder, FaultOracle, Hhc, MetricsReport, NodeId, Path, PathBuilder, PathSet,
};
use hypercube::Cube;
use workloads::AddressSpace;

/// Reusable buffers for [`Network::disjoint_routes_into`]. One scratch
/// per simulation run (or per analysis sweep) makes repeated disjoint-
/// route queries allocation-free after warm-up. The fields cover both
/// topologies: the HHC construction writes through its [`PathBuilder`],
/// the plain cube through the CSR buffers.
#[derive(Default)]
pub struct RouteScratch {
    /// The route family of the most recent query, as a flat [`PathSet`].
    pub(crate) set: PathSet,
    pub(crate) builder: PathBuilder,
    /// Fault-free family of the most recent avoiding query (kept apart
    /// from `set` so the default filter can read one while writing the
    /// other).
    pub(crate) avoid_set: PathSet,
    /// Indices of fault-free family members, for single-pass selection.
    pub(crate) alive_idx: Vec<u32>,
    qdims: Vec<u32>,
    qnodes: Vec<u128>,
    qoffsets: Vec<u32>,
}

impl RouteScratch {
    /// A fresh scratch with a default-capacity family cache.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Construction-engine effort snapshot (queries, cache hits, fan and
    /// solver counters) accumulated by this scratch's disjoint-route
    /// queries. Only HHC networks route through the construction engine;
    /// on [`CubeNet`] the report stays zero.
    pub fn construction_metrics(&self) -> MetricsReport {
        self.builder.metrics()
    }
}

/// Directed-link ids of a network, computed from the addresses. Node
/// `from` owns ids `from · degree .. (from + 1) · degree`, one per
/// neighbour in ascending address order, so ids ascend in `(from, to)`
/// order: exactly the order a `BTreeMap<(NodeId, NodeId), _>` iterates.
/// A sweep over ascending link ids therefore reproduces the legacy
/// map-ordered link sweep; the flat core relies on this for
/// byte-identical statistics.
///
/// Every [`Network`] is a bit-flip network: `from`'s neighbours are
/// `from ^ (1 << b)` for the set bits `b` of its
/// [`flip_mask`](Network::flip_mask) `F`. Flipping a set bit of `from`
/// gives a smaller neighbour, the higher the bit the smaller; flipping a
/// clear bit gives a larger one, the higher the bit the larger. So the
/// rank of the neighbour across bit `b` is the number of set bits of
/// `F & from` above `b` when bit `b` of `from` is set, and otherwise all
/// of `F & from`'s set bits plus the clear bits of `from` in `F` below
/// `b`. Building the table costs O(1) and stores nothing per node.
#[derive(Debug)]
pub struct LinkTable<'n, N: Network + ?Sized> {
    net: &'n N,
    address_bits: u32,
    degree: u32,
}

impl<'n, N: Network + ?Sized> LinkTable<'n, N> {
    /// The directed-link index of `net`.
    ///
    /// # Panics
    ///
    /// Panics above `MAX_ADDRESS_BITS` address bits (link ids are
    /// `u32`); [`crate::Simulator::try_new`] rejects such networks
    /// first.
    pub fn build(net: &'n N) -> Self {
        assert!(
            net.address_bits() <= crate::sim::MAX_ADDRESS_BITS,
            "link table on a huge network"
        );
        LinkTable {
            net,
            address_bits: net.address_bits(),
            degree: net.degree(),
        }
    }

    /// Number of directed links (= valid link ids).
    pub fn num_links(&self) -> usize {
        (1usize << self.address_bits) * self.degree as usize
    }

    /// Link id of the directed edge `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics when `(from, to)` is not an edge of the indexed network —
    /// routes are validated by construction, so the simulator never asks.
    #[inline]
    pub fn link_id(&self, from: u32, to: u32) -> u32 {
        let flips = self.net.flip_mask(NodeId::from_raw(from as u128));
        debug_assert_eq!(flips.count_ones(), self.degree, "irregular flip mask");
        let bit = (from ^ to) as u128;
        if from >> self.address_bits != 0 || !bit.is_power_of_two() || flips & bit == 0 {
            panic!("({from}, {to}) is not a directed link");
        }
        let (f, below) = (from as u128 & flips, bit - 1);
        let rank = if f & bit != 0 {
            (f & !(below | bit)).count_ones()
        } else {
            f.count_ones() + (!(from as u128) & flips & below).count_ones()
        };
        from * self.degree + rank
    }
}

/// A simulatable network: an address space with routing services.
pub trait Network: AddressSpace {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Node degree (regular topologies only, which covers this suite).
    fn degree(&self) -> u32;

    /// Whether `{a, b}` is an edge.
    fn is_edge(&self, a: NodeId, b: NodeId) -> bool;

    /// The address bits a link of `v` flips: `v`'s neighbours are
    /// exactly `v ^ (1 << b)` for the set bits `b`, `degree()` of them.
    /// [`LinkTable`] computes link ids from it.
    fn flip_mask(&self, v: NodeId) -> u128;

    /// The deterministic single route from `src` to `dst` (`src ≠ dst`).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `src == dst` or an endpoint is
    /// outside the network — the simulator never issues such queries
    /// (self-addressed injections are filtered before routing).
    fn route(&self, src: NodeId, dst: NodeId) -> Path;

    /// A maximal family of internally node-disjoint routes
    /// (`degree()` many on the maximally connected topologies here),
    /// built into the scratch's [`PathSet`] with the scratch's working
    /// buffers reused across queries. Returns a view of the family.
    ///
    /// # Panics
    ///
    /// Same contract as [`Network::route`]: `src ≠ dst` and both valid.
    fn disjoint_routes_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet;

    /// A family of internally node-disjoint routes that avoids every
    /// node the oracle reports faulty — possibly fewer than `degree()`
    /// routes, possibly none. The default builds the plain family and
    /// keeps the fault-free survivors; fault-aware topologies (the HHC)
    /// override this to *construct around* the faults instead, which
    /// keeps families alive at fault counts where filtering collapses.
    ///
    /// # Panics
    ///
    /// Same contract as [`Network::route`], plus both endpoints must be
    /// healthy.
    fn disjoint_routes_avoiding_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        faults: &dyn FaultOracle,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet {
        let mut avoid = std::mem::take(&mut scratch.avoid_set);
        avoid.clear();
        let set = self.disjoint_routes_into(src, dst, scratch);
        for p in set.iter() {
            if !crate::strategy::path_blocked(p, faults) {
                avoid.push_path(p);
            }
        }
        scratch.avoid_set = avoid;
        &scratch.avoid_set
    }
}

impl Network for Hhc {
    fn name(&self) -> String {
        format!("HHC({})", self.m())
    }

    fn degree(&self) -> u32 {
        Hhc::degree(self)
    }

    fn is_edge(&self, a: NodeId, b: NodeId) -> bool {
        Hhc::is_edge(self, a, b)
    }

    /// The `m` son-cube bits, and the cube-field bit `m + Y` of the
    /// external link.
    fn flip_mask(&self, v: NodeId) -> u128 {
        let m = self.m();
        ((1u128 << m) - 1) | 1u128 << (m + self.node_field(v))
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        Hhc::route(self, src, dst).expect("valid pair")
    }

    fn disjoint_routes_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet {
        hhc_core::disjoint_paths_into(
            self,
            src,
            dst,
            CrossingOrder::Gray,
            &mut scratch.set,
            &mut scratch.builder,
        )
        .expect("valid pair");
        &scratch.set
    }

    fn disjoint_routes_avoiding_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        faults: &dyn FaultOracle,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet {
        hhc_core::disjoint_paths_avoiding_into(
            self,
            src,
            dst,
            CrossingOrder::Gray,
            faults,
            &mut scratch.avoid_set,
            &mut scratch.builder,
        )
        .expect("valid pair, healthy endpoints");
        &scratch.avoid_set
    }
}

/// The plain hypercube `Q_n` as a simulatable network — the comparison
/// baseline with `n` links per node instead of the HHC's `m + 1`.
#[derive(Debug, Clone, Copy)]
pub struct CubeNet(pub Cube);

impl CubeNet {
    /// `Q_n` with the same node count as `HHC(m)` (i.e. `n = 2^m + m`).
    pub fn matching_hhc(m: u32) -> Self {
        CubeNet(Cube::new((1 << m) + m).expect("valid dimension"))
    }
}

impl AddressSpace for CubeNet {
    fn address_bits(&self) -> u32 {
        self.0.dim()
    }

    fn neighbors_of(&self, v: NodeId) -> Vec<NodeId> {
        self.0.neighbors(v.raw()).map(NodeId::from_raw).collect()
    }
}

impl Network for CubeNet {
    fn name(&self) -> String {
        format!("Q_{}", self.0.dim())
    }

    fn degree(&self) -> u32 {
        self.0.dim()
    }

    fn is_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.0.distance(a.raw(), b.raw()) == 1
    }

    fn flip_mask(&self, _: NodeId) -> u128 {
        (1u128 << self.0.dim()) - 1
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        hypercube::routing::shortest_path(&self.0, src.raw(), dst.raw())
            .into_iter()
            .map(NodeId::from_raw)
            .collect()
    }

    fn disjoint_routes_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet {
        scratch.qnodes.clear();
        scratch.qoffsets.clear();
        scratch.qoffsets.push(0);
        hypercube::paths::disjoint_paths_buf(
            &self.0,
            src.raw(),
            dst.raw(),
            &mut scratch.qdims,
            &mut scratch.qnodes,
            &mut scratch.qoffsets,
        )
        .expect("valid pair");
        scratch.set.clear();
        for w in scratch.qoffsets.windows(2) {
            for &y in &scratch.qnodes[w[0] as usize..w[1] as usize] {
                scratch.set.push_node(NodeId::from_raw(y));
            }
            scratch.set.finish_path();
        }
        &scratch.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hhc_network_services() {
        let h = Hhc::new(2).unwrap();
        assert_eq!(Network::name(&h), "HHC(2)");
        assert_eq!(Network::degree(&h), 3);
        let u = NodeId::from_raw(0);
        let v = NodeId::from_raw(45);
        let r = Network::route(&h, u, v);
        assert_eq!(r.first(), Some(&u));
        assert_eq!(r.last(), Some(&v));
        assert_eq!(
            h.disjoint_routes_into(u, v, &mut RouteScratch::new()).len(),
            3
        );
    }

    #[test]
    fn cube_network_services() {
        let q = CubeNet::matching_hhc(2); // Q_6: 64 nodes like HHC(2)
        assert_eq!(q.name(), "Q_6");
        assert_eq!(Network::degree(&q), 6);
        assert_eq!(q.num_addresses(), 64);
        let u = NodeId::from_raw(0);
        let v = NodeId::from_raw(63);
        let r = q.route(u, v);
        assert_eq!(r.len(), 7); // Hamming distance 6
        let d = q
            .disjoint_routes_into(u, v, &mut RouteScratch::new())
            .to_paths();
        assert_eq!(d.len(), 6);
        for p in &d {
            for w in p.windows(2) {
                assert!(q.is_edge(w[0], w[1]));
            }
        }
        assert_eq!(q.neighbors_of(u).len(), 6);
    }

    #[test]
    fn scratch_routes_are_the_constructions() {
        let h = Hhc::new(2).unwrap();
        let q = CubeNet::matching_hhc(2);
        let mut scratch = RouteScratch::new();
        for (u, v) in [(0u128, 45u128), (3, 60), (17, 42)] {
            let (nu, nv) = (NodeId::from_raw(u), NodeId::from_raw(v));
            let set = h.disjoint_routes_into(nu, nv, &mut scratch);
            assert_eq!(set.to_paths(), h.disjoint_paths(nu, nv).unwrap());
            let cube: Vec<Path> = hypercube::paths::disjoint_paths(&q.0, u, v)
                .unwrap()
                .into_iter()
                .map(|p| p.into_iter().map(NodeId::from_raw).collect())
                .collect();
            let set = q.disjoint_routes_into(nu, nv, &mut scratch);
            assert_eq!(set.to_paths(), cube);
        }
    }

    #[test]
    fn link_table_orders_links_like_a_btreemap() {
        let h = Hhc::new(2).unwrap();
        let t = LinkTable::build(&h);
        assert_eq!(t.num_links(), 64 * 3); // 2^n nodes × (m+1) links

        // Ids enumerate the edge set in ascending (from, to) order.
        let mut next = 0u32;
        for from in 0..64u32 {
            for to in 0..64u32 {
                if h.is_edge(NodeId::from_raw(from as u128), NodeId::from_raw(to as u128)) {
                    assert_eq!(t.link_id(from, to), next, "ids not in (from, to) order");
                    next += 1;
                }
            }
        }
        assert_eq!(next as usize, t.num_links());
    }

    /// The CSR link index the engine built before ids were computed:
    /// node `u`'s links are numbered from `offsets[u]`, in ascending
    /// order of their far end. Only the offsets are stored; a node's
    /// sorted neighbour list is rebuilt per lookup.
    struct CsrOracle {
        offsets: Vec<u32>,
    }

    impl CsrOracle {
        fn build<N: Network>(net: &N) -> Self {
            let mut offsets = vec![0u32];
            for u in 0..1u128 << net.address_bits() {
                let d = net.neighbors_of(NodeId::from_raw(u)).len() as u32;
                offsets.push(offsets[offsets.len() - 1] + d);
            }
            CsrOracle { offsets }
        }

        fn num_links(&self) -> usize {
            self.offsets[self.offsets.len() - 1] as usize
        }

        /// `(to, id)` for every link leaving `from`.
        fn links_of<N: Network>(&self, net: &N, from: u32) -> Vec<(u32, u32)> {
            let mut nbrs: Vec<u32> = net
                .neighbors_of(NodeId::from_raw(from as u128))
                .iter()
                .map(|v| v.raw() as u32)
                .collect();
            nbrs.sort_unstable();
            (self.offsets[from as usize]..)
                .zip(nbrs)
                .map(|(id, to)| (to, id))
                .collect()
        }
    }

    /// Checks computed ids against the CSR oracle on every link leaving
    /// every node of `net`, or `samples` seeded nodes when given.
    fn assert_ids_match_csr<N: Network>(net: &N, samples: Option<usize>) {
        use rand::{Rng, SeedableRng};
        let oracle = CsrOracle::build(net);
        let table = LinkTable::build(net);
        assert_eq!(table.num_links(), oracle.num_links(), "{}", net.name());
        let n = 1u32 << net.address_bits();
        let nodes: Vec<u32> = match samples {
            None => (0..n).collect(),
            Some(k) => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x11D5);
                (0..k).map(|_| rng.gen_range(0..n)).collect()
            }
        };
        for from in nodes {
            for (to, id) in oracle.links_of(net, from) {
                assert_eq!(table.link_id(from, to), id, "{} ({from}, {to})", net.name());
            }
        }
    }

    #[test]
    fn computed_link_ids_equal_the_csr_oracle() {
        for m in 1..=3 {
            assert_ids_match_csr(&Hhc::new(m).unwrap(), None);
        }
        for n in 1..=11 {
            assert_ids_match_csr(&CubeNet(Cube::new(n).unwrap()), None);
        }
        assert_ids_match_csr(&Hhc::new(4).unwrap(), Some(10_000));
        assert_ids_match_csr(&CubeNet(Cube::new(20).unwrap()), Some(10_000));
    }

    #[test]
    #[should_panic(expected = "not a directed link")]
    fn link_table_rejects_non_edges() {
        let h = Hhc::new(2).unwrap();
        LinkTable::build(&h).link_id(0, 63);
    }

    #[test]
    #[should_panic(expected = "not a directed link")]
    fn link_table_rejects_a_flip_outside_the_mask() {
        // Node 0 of HHC(2) sits at son-cube position 0: its external
        // link flips address bit 2, not bit 3.
        let h = Hhc::new(2).unwrap();
        LinkTable::build(&h).link_id(0, 8);
    }

    #[test]
    fn matching_sizes() {
        for m in 1..=3 {
            let h = Hhc::new(m).unwrap();
            let q = CubeNet::matching_hhc(m);
            assert_eq!(h.num_addresses(), q.num_addresses());
            assert!(Network::degree(&q) > Network::degree(&h) || m == 1);
        }
    }
}
