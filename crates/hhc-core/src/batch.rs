//! Batch construction engine: many-pair disjoint-path construction with
//! reused scratch.
//!
//! A single `disjoint_paths` query allocates its working buffers and two
//! max-flow fan networks from scratch. Batch workloads — experiments,
//! the simulator, wide-diameter sweeps, benchmarks — issue thousands to
//! millions of queries against one network, where that per-query setup
//! dominates. This module amortises it:
//!
//! * [`construct_many_serial`] runs a pair list through one
//!   [`PathBuilder`] on the current thread;
//! * [`construct_many`] fans the list out over rayon with one
//!   `PathBuilder` per worker (`map_init`), preserving input order;
//! * [`Workspace`] bundles a [`PathSet`], a [`PathBuilder`] and a
//!   [`VerifyScratch`] for callers with their own loop structure.
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

    /// Replaces the builder's family cache; see
    /// [`PathBuilder::set_cache_config`].
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.builder.set_cache_config(cfg);
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

    /// Turns per-query wall-clock timing on or off for this workspace's
    /// builder; see [`PathBuilder::enable_timing`].
    pub fn enable_timing(&mut self, on: bool) {
        self.builder.enable_timing(on);
    }

    /// Effort snapshot of this workspace's builder; see
    /// [`PathBuilder::metrics`].
    pub fn metrics(&self) -> MetricsReport {
        self.builder.metrics()
    }

    /// Zeroes the builder's counters; see [`PathBuilder::reset_metrics`].
    pub fn reset_metrics(&mut self) {
        self.builder.reset_metrics();
    }
}

/// Constructs the disjoint-path family for every pair, in input order,
/// fanning out over rayon with one [`PathBuilder`] per worker thread.
///
/// Node-for-node identical to calling
/// [`disjoint_paths`](crate::disjoint::disjoint_paths) per pair; the
/// first error (e.g. an equal-nodes pair) aborts the batch.
pub fn construct_many(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
) -> Result<Vec<PathSet>, HhcError> {
    construct_many_with(hhc, pairs, order, CacheConfig::default())
}

/// [`construct_many`] with an explicit per-worker family-cache capacity
/// (each rayon worker owns its cache — no locks on the hot path).
/// Results are byte-identical for every `cfg`, including
/// [`CacheConfig::disabled`].
pub fn construct_many_with(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    cfg: CacheConfig,
) -> Result<Vec<PathSet>, HhcError> {
    pairs
        .par_iter()
        .map_init(
            || (PathBuilder::with_caches(cfg), PathSet::new()),
            |(scratch, tmp), &(u, v)| {
                disjoint_paths_into(hhc, u, v, order, tmp, scratch)?;
                // Cloning the warm arena sizes the output exactly; building
                // into a cold PathSet would pay growth reallocations per pair.
                Ok(tmp.clone())
            },
        )
        .collect()
}

/// [`construct_many`] on the current thread only: one scratch, no
/// thread fan-out. This isolates the allocation-reuse win from the
/// parallelism win (and is what single-threaded callers should use).
pub fn construct_many_serial(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
) -> Result<Vec<PathSet>, HhcError> {
    let mut scratch = PathBuilder::new();
    let mut tmp = PathSet::new();
    pairs
        .iter()
        .map(|&(u, v)| {
            disjoint_paths_into(hhc, u, v, order, &mut tmp, &mut scratch)?;
            Ok(tmp.clone())
        })
        .collect()
}

/// [`construct_many_with`] additionally returning the [`MetricsReport`]
/// accumulated across every worker. Results are node-for-node identical
/// to [`construct_many_with`]; `timed` enables per-query wall-clock
/// timing (see [`PathBuilder::enable_timing`] for its cost), and the
/// merged report's `family_hits` counter exposes the aggregate hit rate.
///
/// The pair list is split into one contiguous chunk per rayon worker so
/// each chunk's builder — and its counters — can be recovered after the
/// parallel section and merged (plain `map_init` scratch is unrecoverable
/// once the iterator finishes).
pub fn construct_many_metered_with(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    timed: bool,
    cfg: CacheConfig,
) -> Result<(Vec<PathSet>, MetricsReport), HhcError> {
    if pairs.is_empty() {
        return Ok((Vec::new(), MetricsReport::default()));
    }
    let workers = rayon::current_num_threads().max(1);
    let chunk_len = pairs.len().div_ceil(workers);
    let chunks: Vec<&[(NodeId, NodeId)]> = pairs.chunks(chunk_len).collect();
    let per_chunk: Vec<Result<(Vec<PathSet>, MetricsReport), HhcError>> = chunks
        .par_iter()
        .map(|chunk| {
            let mut scratch = PathBuilder::with_caches(cfg);
            scratch.enable_timing(timed);
            let mut tmp = PathSet::new();
            let sets = chunk
                .iter()
                .map(|&(u, v)| {
                    disjoint_paths_into(hhc, u, v, order, &mut tmp, &mut scratch)?;
                    Ok(tmp.clone())
                })
                .collect::<Result<Vec<PathSet>, HhcError>>()?;
            Ok((sets, scratch.metrics()))
        })
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

/// [`construct_many_serial`] additionally returning the single builder's
/// [`MetricsReport`].
pub fn construct_many_serial_metered(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    timed: bool,
) -> Result<(Vec<PathSet>, MetricsReport), HhcError> {
    construct_many_serial_metered_with(hhc, pairs, order, timed, CacheConfig::default())
}

/// [`construct_many_serial_metered`] with an explicit family-cache
/// capacity.
pub fn construct_many_serial_metered_with(
    hhc: &Hhc,
    pairs: &[(NodeId, NodeId)],
    order: CrossingOrder,
    timed: bool,
    cfg: CacheConfig,
) -> Result<(Vec<PathSet>, MetricsReport), HhcError> {
    let mut scratch = PathBuilder::with_caches(cfg);
    scratch.enable_timing(timed);
    let mut tmp = PathSet::new();
    let sets = pairs
        .iter()
        .map(|&(u, v)| {
            disjoint_paths_into(hhc, u, v, order, &mut tmp, &mut scratch)?;
            Ok(tmp.clone())
        })
        .collect::<Result<Vec<PathSet>, HhcError>>()?;
    Ok((sets, scratch.metrics()))
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
            let batched = construct_many(&h, &pairs, order).unwrap();
            let serial = construct_many_serial(&h, &pairs, order).unwrap();
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
        let err = construct_many(&h, &[(u, v), (v, v)], CrossingOrder::Gray);
        assert_eq!(err, Err(HhcError::EqualNodes));
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
        assert_eq!(construct_many(&h, &[], CrossingOrder::Gray), Ok(Vec::new()));
    }

    #[test]
    fn metered_matches_unmetered_and_conserves_counters() {
        let (h, pairs) = pairs_m3();
        let plain = construct_many(&h, &pairs, CrossingOrder::Gray).unwrap();
        let (metered, report) = construct_many_metered_with(
            &h,
            &pairs,
            CrossingOrder::Gray,
            false,
            CacheConfig::default(),
        )
        .unwrap();
        assert_eq!(metered, plain);
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
        // Timing disabled: no samples recorded.
        assert_eq!(c.timing.count(), 0);

        let (serial, sreport) =
            construct_many_serial_metered(&h, &pairs, CrossingOrder::Gray, true).unwrap();
        assert_eq!(serial, plain);
        assert_eq!(sreport.construction.queries, c.queries);
        assert_eq!(sreport.construction.cross_cube, c.cross_cube);
        // Timing enabled: one sample per query.
        assert_eq!(sreport.construction.timing.count(), pairs.len() as u64);
    }

    #[test]
    fn metered_empty_and_error_paths() {
        let h = Hhc::new(2).unwrap();
        let (sets, report) = construct_many_metered_with(
            &h,
            &[],
            CrossingOrder::Gray,
            false,
            CacheConfig::default(),
        )
        .unwrap();
        assert!(sets.is_empty());
        assert_eq!(report, MetricsReport::default());
        let u = h.node(1, 1).unwrap();
        let err = construct_many_metered_with(
            &h,
            &[(u, u)],
            CrossingOrder::Gray,
            false,
            CacheConfig::default(),
        );
        assert!(matches!(err, Err(HhcError::EqualNodes)));
    }

    #[test]
    fn workspace_surfaces_metrics() {
        let h = Hhc::new(3).unwrap();
        let mut ws = Workspace::new();
        ws.enable_timing(true);
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(0x2B, 0b101).unwrap(); // cross-cube
        let w = h.node(0x00, 0b111).unwrap(); // same cube as u
        ws.construct(&h, u, v, CrossingOrder::Gray).unwrap();
        ws.construct_and_verify(&h, u, w, CrossingOrder::Gray)
            .unwrap();
        let m = ws.metrics();
        assert_eq!(m.construction.queries, 2);
        assert_eq!(m.construction.cross_cube, 1);
        assert_eq!(m.construction.same_cube, 1);
        assert_eq!(m.fan_queries(), 2);
        assert_eq!(m.construction.timing.count(), 2);
        assert!(m.solver.bfs_passes > 0);
        // Failed queries leave the counters untouched.
        assert!(ws.construct(&h, u, u, CrossingOrder::Gray).is_err());
        assert_eq!(ws.metrics().construction.queries, 2);
        ws.reset_metrics();
        assert_eq!(ws.metrics(), MetricsReport::default());
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
        let sets = construct_many_serial(&h, &pairs, CrossingOrder::Gray).unwrap();
        let mut scratch = VerifyScratch::default();
        for (set, &(u, v)) in sets.iter().zip(&pairs) {
            verify_disjoint_paths_into(&h, u, v, set, &mut scratch).unwrap();
            // Fan-out equals the connectivity: m + 1 = 5 paths per pair.
            assert_eq!(set.to_paths().len() as u32, h.degree());
        }
    }
}
