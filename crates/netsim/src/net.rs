//! The [`Network`] abstraction the simulator runs on.
//!
//! The evaluation compares the HHC against the plain hypercube with the
//! same node count (the paper's motivating trade-off: hypercube-like
//! behaviour at degree `m + 1` instead of `n`). Both topologies implement
//! this trait: addressing via [`AddressSpace`], plus the two routing
//! services the strategies need — a deterministic single route and the
//! family of internally node-disjoint routes.

use crate::faults::FaultLookup;
use hhc_core::{
    CacheConfig, CrossingOrder, Hhc, MetricsReport, NodeId, Path, PathBuilder, PathSet,
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

    /// A scratch whose construction engine uses the given family-cache
    /// configuration. The default scratch has the cache enabled at its
    /// default capacity; routes are byte-identical under every
    /// configuration.
    pub fn with_route_cache(cfg: CacheConfig) -> Self {
        let mut s = RouteScratch::default();
        s.builder.set_cache_config(cfg);
        s
    }

    /// Construction-engine effort snapshot (queries, cache hits, fan and
    /// solver counters) accumulated by this scratch's disjoint-route
    /// queries. Only HHC networks route through the construction engine;
    /// on [`CubeNet`] the report stays zero.
    pub fn construction_metrics(&self) -> MetricsReport {
        self.builder.metrics()
    }
}

/// Dense directed-link index over a materialisable network, built once
/// per simulation run: CSR adjacency with link ids `0..num_links()`
/// assigned in ascending `(from, to)` order. That is exactly the order a
/// `BTreeMap<(NodeId, NodeId), _>` iterates, so a sweep over ascending
/// link ids reproduces the legacy map-ordered link sweep — the flat core
/// relies on this for byte-identical statistics.
#[derive(Debug, Clone)]
pub struct LinkTable {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` with `u`'s
    /// neighbours in ascending order; a link id *is* a `targets` index.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl LinkTable {
    /// Materialises the directed-link index of `net`.
    ///
    /// # Panics
    ///
    /// Panics above `MAX_ADDRESS_BITS` address bits (the
    /// table is dense in nodes); [`crate::Simulator::try_new`] rejects
    /// such networks first.
    pub fn build<N: Network + ?Sized>(net: &N) -> Self {
        assert!(
            net.address_bits() <= crate::sim::MAX_ADDRESS_BITS,
            "link table on a huge network"
        );
        let n = 1usize << net.address_bits();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        let mut nbrs: Vec<u32> = Vec::new();
        for u in 0..n {
            nbrs.clear();
            nbrs.extend(
                net.neighbors_of(NodeId::from_raw(u as u128))
                    .iter()
                    .map(|v| v.raw() as u32),
            );
            nbrs.sort_unstable();
            targets.extend_from_slice(&nbrs);
            offsets.push(targets.len() as u32);
        }
        LinkTable { offsets, targets }
    }

    /// Number of directed links (= valid link ids).
    pub fn num_links(&self) -> usize {
        self.targets.len()
    }

    /// Link id of the directed edge `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics when `(from, to)` is not an edge of the indexed network —
    /// routes are validated by construction, so the simulator never asks.
    #[inline]
    pub fn link_id(&self, from: u32, to: u32) -> u32 {
        let lo = self.offsets[from as usize] as usize;
        let hi = self.offsets[from as usize + 1] as usize;
        match self.targets[lo..hi].binary_search(&to) {
            Ok(i) => (lo + i) as u32,
            Err(_) => panic!("({from}, {to}) is not a directed link"),
        }
    }

    /// Endpoints `(from, to)` of a link id (inverse of
    /// [`LinkTable::link_id`]).
    pub fn endpoints(&self, link: u32) -> (u32, u32) {
        debug_assert!((link as usize) < self.targets.len());
        let from = self.offsets.partition_point(|&o| o <= link) - 1;
        (from as u32, self.targets[link as usize])
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

    /// The deterministic single route from `src` to `dst` (`src ≠ dst`).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `src == dst` or an endpoint is
    /// outside the network — the simulator never issues such queries
    /// (self-addressed injections are filtered before routing).
    fn route(&self, src: NodeId, dst: NodeId) -> Path;

    /// A maximal family of internally node-disjoint routes
    /// (`degree()` many on the maximally connected topologies here).
    ///
    /// # Panics
    ///
    /// Same contract as [`Network::route`]: `src ≠ dst` and both valid.
    fn disjoint_routes(&self, src: NodeId, dst: NodeId) -> Vec<Path>;

    /// [`Network::disjoint_routes`] into the scratch's [`PathSet`],
    /// reusing the scratch's working buffers across queries. Returns a
    /// view of the family; identical routes to `disjoint_routes`.
    fn disjoint_routes_into<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut RouteScratch,
    ) -> &'s PathSet {
        scratch.set.clear();
        for p in self.disjoint_routes(src, dst) {
            scratch.set.push_path(&p);
        }
        &scratch.set
    }

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
        faults: &dyn FaultLookup,
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

    /// All nodes, for per-cycle injection sweeps.
    /// Only meaningful for materialisable sizes; guarded by the caller.
    ///
    /// # Panics
    ///
    /// Panics above `MAX_ADDRESS_BITS` address bits;
    /// [`crate::Simulator::try_new`] rejects such networks before any
    /// sweep can reach this.
    fn all_nodes(&self) -> Vec<NodeId> {
        assert!(
            self.address_bits() <= crate::sim::MAX_ADDRESS_BITS,
            "all_nodes on a huge network"
        );
        (0..1u128 << self.address_bits())
            .map(NodeId::from_raw)
            .collect()
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

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        Hhc::route(self, src, dst).expect("valid pair")
    }

    fn disjoint_routes(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        Hhc::disjoint_paths(self, src, dst).expect("valid pair")
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
        faults: &dyn FaultLookup,
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

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        hypercube::routing::shortest_path(&self.0, src.raw(), dst.raw())
            .into_iter()
            .map(NodeId::from_raw)
            .collect()
    }

    fn disjoint_routes(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        hypercube::paths::disjoint_paths(&self.0, src.raw(), dst.raw())
            .expect("valid pair")
            .into_iter()
            .map(|p| p.into_iter().map(NodeId::from_raw).collect())
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
            self.0.dim() as usize,
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
        assert_eq!(Network::disjoint_routes(&h, u, v).len(), 3);
        assert_eq!(h.all_nodes().len(), 64);
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
        let d = q.disjoint_routes(u, v);
        assert_eq!(d.len(), 6);
        for p in &d {
            for w in p.windows(2) {
                assert!(q.is_edge(w[0], w[1]));
            }
        }
        assert_eq!(q.neighbors_of(u).len(), 6);
    }

    #[test]
    fn scratch_routes_match_allocating_routes() {
        let h = Hhc::new(2).unwrap();
        let q = CubeNet::matching_hhc(2);
        let mut scratch = RouteScratch::new();
        for (u, v) in [(0u128, 45u128), (3, 60), (17, 42)] {
            let (u, v) = (NodeId::from_raw(u), NodeId::from_raw(v));
            let set = h.disjoint_routes_into(u, v, &mut scratch);
            assert_eq!(set.to_paths(), Network::disjoint_routes(&h, u, v));
            let set = q.disjoint_routes_into(u, v, &mut scratch);
            assert_eq!(set.to_paths(), q.disjoint_routes(u, v));
        }
    }

    #[test]
    fn link_table_orders_links_like_a_btreemap() {
        let h = Hhc::new(2).unwrap();
        let t = LinkTable::build(&h);
        assert_eq!(t.num_links(), 64 * 3); // 2^n nodes × (m+1) links
                                           // Ids enumerate the edge set in ascending (from, to) order and
                                           // round-trip through endpoints().
        let mut prev: Option<(u32, u32)> = None;
        for l in 0..t.num_links() as u32 {
            let (from, to) = t.endpoints(l);
            assert!(h.is_edge(NodeId::from_raw(from as u128), NodeId::from_raw(to as u128)));
            assert_eq!(t.link_id(from, to), l);
            assert!(prev < Some((from, to)), "ids not in (from, to) order");
            prev = Some((from, to));
        }
    }

    #[test]
    #[should_panic(expected = "not a directed link")]
    fn link_table_rejects_non_edges() {
        let h = Hhc::new(2).unwrap();
        LinkTable::build(&h).link_id(0, 63);
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
