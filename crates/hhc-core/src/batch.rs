//! Batch construction engine: many-pair disjoint-path construction with
//! reused scratch.
//!
//! A single `disjoint_paths` query allocates its working buffers, two
//! fan scratches and a family tier from scratch, and stores its family
//! there. Batch workloads — experiments, the simulator, wide-diameter
//! sweeps, benchmarks — issue thousands to millions of queries against
//! one network, where that per-query setup is a large share of the
//! work. This module amortises it:
//!
//! * [`construct_many_serial`] runs a pair list through one
//!   [`PathBuilder`] on the current thread;
//! * [`construct_many`] splits the list into one contiguous chunk per
//!   rayon worker, runs each chunk through its own `PathBuilder`, and
//!   concatenates the results in input order;
//! * [`Workspace`] bundles a [`PathSet`], a [`PathBuilder`] and a
//!   [`VerifyScratch`] for callers with their own loop structure.
//!
//! Both batch entry points take the builders' family-cache configuration
//! and return the [`MetricsReport`] the builders accumulated, merged
//! across chunks. Every builder counts unconditionally, so the report
//! costs nothing extra. Per-query timing stays off; a caller that wants
//! it loops over a [`Workspace`] whose `builder` has
//! [`PathBuilder::enable_timing`] on.
//!
//! All entry points are thin wrappers over the same construction core as
//! `disjoint::disjoint_paths`, so batched results are node-for-node
//! identical to per-pair results (property-tested in
//! `tests/batch_equivalence.rs`).

use crate::disjoint::family_cache::CacheConfig;
use crate::disjoint::{
    disjoint_paths_avoiding_into, disjoint_paths_into, AvoidOutcome, CrossingOrder, PathBuilder,
};
use crate::error::HhcError;
use crate::fault::FaultOracle;
use crate::metrics::MetricsReport;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use crate::verify::{verify_disjoint_paths_into, VerifyScratch};
use rayon::prelude::*;

/// Everything one querying thread needs: output arena, construction
/// scratch, verification scratch. Reusing a `Workspace` across queries
/// makes construct-and-verify loops allocation-free after warm-up.
#[derive(Default)]
pub struct Workspace {
    pub set: PathSet,
    pub builder: PathBuilder,
    pub verify: VerifyScratch,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace whose builder uses the given family-cache capacity;
    /// see [`PathBuilder::with_caches`].
    pub fn with_caches(cfg: CacheConfig) -> Self {
        Workspace {
            builder: PathBuilder::with_caches(cfg),
            ..Workspace::default()
        }
    }

    /// Constructs the `m + 1` disjoint paths for one pair into the owned
    /// [`PathSet`] and returns a view of it.
    pub fn construct(
        &mut self,
        hhc: &Hhc,
        u: NodeId,
        v: NodeId,
        order: CrossingOrder,
    ) -> Result<&PathSet, HhcError> {
        disjoint_paths_into(hhc, u, v, order, &mut self.set, &mut self.builder)?;
        Ok(&self.set)
    }

    /// Constructs a fault-avoiding family for one pair into the owned
    /// [`PathSet`]; see [`crate::disjoint_paths_avoiding`]. With an
    /// empty fault set this is exactly [`Workspace::construct`].
    pub fn construct_avoiding(
        &mut self,
        hhc: &Hhc,
        u: NodeId,
        v: NodeId,
        order: CrossingOrder,
        faults: &dyn FaultOracle,
    ) -> Result<(AvoidOutcome, &PathSet), HhcError> {
        let outcome = disjoint_paths_avoiding_into(
            hhc,
            u,
            v,
            order,
            faults,
            &mut self.set,
            &mut self.builder,
        )?;
        Ok((outcome, &self.set))
    }

    /// Constructs, verifies (count, disjointness, length bound) and
    /// returns the maximum path length. Scratch-reusing equivalent of
    /// [`crate::verify::construct_and_verify`].
    pub fn construct_and_verify(
        &mut self,
        hhc: &Hhc,
        u: NodeId,
        v: NodeId,
        order: CrossingOrder,
    ) -> Result<u32, String> {
        disjoint_paths_into(hhc, u, v, order, &mut self.set, &mut self.builder)
            .map_err(|e| e.to_string())?;
        if self.set.len() as u32 != hhc.degree() {
            return Err(format!(
                "expected {} paths, got {}",
                hhc.degree(),
                self.set.len()
            ));
        }
        verify_disjoint_paths_into(hhc, u, v, &self.set, &mut self.verify)?;
        let bound = crate::bounds::length_bound(hhc, u, v);
        let max = self.set.max_len() as u32;
        if max > bound {
            return Err(format!("max length {max} exceeds bound {bound}"));
        }
        Ok(max)
    }
}

/// Constructs the disjoint-path family for every pair, in input order,
/// with one [`PathBuilder`] per rayon worker: the pair list is split into
/// one contiguous chunk per worker, so each chunk's builder and its
/// counters can be recovered after the parallel section and merged.
///
/// Node-for-node identical to calling
/// [`disjoint_paths`](crate::disjoint::disjoint_paths) per pair, for
/// every `cfg`; the first error in input order (e.g. an equal-nodes
/// pair) aborts the batch.
pub fn construct_many(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    cfg: CacheConfig,
) -> Result<(Vec<PathSet>, MetricsReport), HhcError> {
    let chunk_len = pairs.len().div_ceil(rayon::current_num_threads()).max(1);
    let chunks: Vec<&[(NodeId, NodeId)]> = pairs.chunks(chunk_len).collect();
    let per_chunk: Vec<Result<(Vec<PathSet>, MetricsReport), HhcError>> = chunks
        .par_iter()
        .map(|chunk| construct_many_serial(hhc, chunk, order, cfg))
        .collect();
    let mut out = Vec::with_capacity(pairs.len());
    let mut report = MetricsReport::default();
    for res in per_chunk {
        let (sets, m) = res?;
        out.extend(sets);
        report.merge(&m);
    }
    Ok((out, report))
}

/// [`construct_many`] on the current thread only: one builder, no
/// thread fan-out. This isolates the allocation-reuse win from the
/// parallelism win (and is what single-threaded callers should use).
pub fn construct_many_serial(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    cfg: CacheConfig,
) -> Result<(Vec<PathSet>, MetricsReport), HhcError> {
    let mut builder = PathBuilder::with_caches(cfg);
    let mut tmp = PathSet::new();
    let sets = pairs
        .iter()
        .map(|&(u, v)| {
            disjoint_paths_into(hhc, u, v, order, &mut tmp, &mut builder)?;
            // Cloning the warm arena sizes the output exactly; building
            // into a cold PathSet would pay growth reallocations per pair.
            Ok(tmp.clone())
        })
        .collect::<Result<Vec<PathSet>, HhcError>>()?;
    Ok((sets, builder.metrics()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::disjoint_paths;

    fn pairs_m3() -> (Hhc, Vec<(NodeId, NodeId)>) {
        let h = Hhc::new(3).unwrap();
        let mut pairs = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        while pairs.len() < 50 {
            let x1 = (next() % 256) as u128;
            let x2 = (next() % 256) as u128;
            let u = h.node(x1, (next() % 8) as u32).unwrap();
            let v = h.node(x2, (next() % 8) as u32).unwrap();
            if u != v {
                pairs.push((u, v));
            }
        }
        (h, pairs)
    }

    #[test]
    fn batch_matches_per_pair() {
        let (h, pairs) = pairs_m3();
        for order in [CrossingOrder::Gray, CrossingOrder::Sorted] {
            let cfg = CacheConfig::default();
            let (batched, _) = construct_many(&h, &pairs, order, cfg).unwrap();
            let (serial, _) = construct_many_serial(&h, &pairs, order, cfg).unwrap();
            assert_eq!(batched.len(), pairs.len());
            for (i, &(u, v)) in pairs.iter().enumerate() {
                let single = disjoint_paths(&h, u, v, order).unwrap();
                assert_eq!(batched[i].to_paths(), single, "pair {i} ({order:?})");
                assert_eq!(serial[i], batched[i], "pair {i} ({order:?})");
            }
        }
    }

    #[test]
    fn batch_propagates_errors() {
        let h = Hhc::new(2).unwrap();
        let u = h.node(1, 1).unwrap();
        let v = h.node(2, 0).unwrap();
        for run in [construct_many, construct_many_serial] {
            let err = run(
                &h,
                &[(u, v), (v, v)],
                CrossingOrder::Gray,
                CacheConfig::default(),
            );
            assert_eq!(err, Err(HhcError::EqualNodes));
        }
    }

    #[test]
    fn workspace_construct_and_verify() {
        let (h, pairs) = pairs_m3();
        let mut ws = Workspace::new();
        for &(u, v) in &pairs {
            let max = ws
                .construct_and_verify(&h, u, v, CrossingOrder::Gray)
                .unwrap();
            let legacy = crate::verify::construct_and_verify(&h, u, v).unwrap();
            assert_eq!(max, legacy);
        }
        // Workspaces survive a change of network size.
        let h6 = Hhc::new(6).unwrap();
        let u = h6.node(5, 0).unwrap();
        let v = h6.node(0xABCDEF, 63).unwrap();
        ws.construct_and_verify(&h6, u, v, CrossingOrder::Gray)
            .unwrap();
    }

    #[test]
    fn empty_batch_is_fine() {
        let h = Hhc::new(2).unwrap();
        for run in [construct_many, construct_many_serial] {
            let empty = run(&h, &[], CrossingOrder::Gray, CacheConfig::default());
            assert_eq!(empty, Ok((Vec::new(), MetricsReport::default())));
        }
    }

    #[test]
    fn merged_reports_conserve_counters() {
        let (h, pairs) = pairs_m3();
        let cfg = CacheConfig::default();
        let (_, report) = construct_many(&h, &pairs, CrossingOrder::Gray, cfg).unwrap();
        let c = &report.construction;
        assert_eq!(c.queries, pairs.len() as u64);
        assert_eq!(c.same_cube + c.cross_cube, c.queries);
        // Case B issues exactly one fan per side per query, except when
        // the whole family replayed from the cache; case A none.
        assert_eq!(
            report.fan_queries(),
            2 * (c.cross_cube - c.family_hits_cross)
        );
        // Every query selects exactly m + 1 = degree crossing plans.
        assert_eq!(
            c.rotation_plans + c.detour_plans,
            c.cross_cube * h.degree() as u64 + c.same_cube
        );
        // Batch builders do not time queries.
        assert_eq!(c.timing.count(), 0);

        let (_, sreport) = construct_many_serial(&h, &pairs, CrossingOrder::Gray, cfg).unwrap();
        assert_eq!(sreport.construction.queries, c.queries);
        assert_eq!(sreport.construction.cross_cube, c.cross_cube);
    }

    #[test]
    fn workspace_surfaces_metrics() {
        let h = Hhc::new(3).unwrap();
        let mut ws = Workspace::new();
        ws.builder.enable_timing(true);
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(0x2B, 0b101).unwrap(); // cross-cube
        let w = h.node(0x00, 0b111).unwrap(); // same cube as u
        ws.construct(&h, u, v, CrossingOrder::Gray).unwrap();
        ws.construct_and_verify(&h, u, w, CrossingOrder::Gray)
            .unwrap();
        let m = ws.builder.metrics();
        assert_eq!(m.construction.queries, 2);
        assert_eq!(m.construction.cross_cube, 1);
        assert_eq!(m.construction.same_cube, 1);
        assert_eq!(m.fan_queries(), 2);
        assert_eq!(m.construction.timing.count(), 2);
        assert!(m.solver.bfs_passes > 0);
        // Failed queries leave the counters untouched.
        assert!(ws.construct(&h, u, u, CrossingOrder::Gray).is_err());
        assert_eq!(ws.builder.metrics().construction.queries, 2);
        ws.builder.reset_metrics();
        assert_eq!(ws.builder.metrics(), MetricsReport::default());
    }

    #[test]
    fn million_node_hhc4_constructs_and_verifies() {
        // HHC(4) addresses are 20-bit (2^20 nodes): the scale the DES
        // core simulates end-to-end. Construction must handle it too —
        // a handful of pairs covering same-cube, cross-cube and
        // complementary-address cases, each fully verified.
        let h = Hhc::new(4).unwrap();
        let pairs = vec![
            (h.node(0x0000, 0).unwrap(), h.node(0x0000, 13).unwrap()),
            (h.node(0x0000, 0).unwrap(), h.node(0xFFFF, 15).unwrap()),
            (h.node(0x1234, 7).unwrap(), h.node(0x8765, 2).unwrap()),
            (h.node(0xBEEF, 9).unwrap(), h.node(0xBEF0, 9).unwrap()),
        ];
        let (sets, _) =
            construct_many_serial(&h, &pairs, CrossingOrder::Gray, CacheConfig::default()).unwrap();
        let mut scratch = VerifyScratch::default();
        for (set, &(u, v)) in sets.iter().zip(&pairs) {
            verify_disjoint_paths_into(&h, u, v, set, &mut scratch).unwrap();
            // Fan-out equals the connectivity: m + 1 = 5 paths per pair.
            assert_eq!(set.to_paths().len() as u32, h.degree());
        }
    }
}
