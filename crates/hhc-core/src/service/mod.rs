//! Concurrent routing service: a long-lived [`Router`] answering
//! disjoint-path queries from a shared family cache under a live fault
//! feed.
//!
//! Every earlier consumer of the construction engine is a closed-loop
//! batch ([`crate::batch`], the experiment drivers, the DES). This
//! module turns the library into a serving system: a pool of worker
//! threads, each owning a [`PathBuilder`], all attached to one
//! process-wide [`SharedFamilyCache`] (the **L2** — `RwLock` stripes
//! over the per-builder cache's own bounded two-generation map and
//! entry type, keyed by the same canonical `(m, Xu⊕Xv, Yu, Yv, order)`
//! signature; see the [`SharedFamilyCache`] docs). A query is answered
//! L2 → construct, and a construction is stored in the L2 once, so one
//! worker's solve warms every other worker. The L2 is the only memo
//! layer a query consults: an attached builder never probes its own
//! family cache. A router whose [`L2Config`] has no capacity attaches
//! nothing, and each worker serves from its own family cache
//! ([`RouterConfig::l1`]) instead.
//!
//! ## Steady-state allocation discipline
//!
//! The serving hot path performs **no per-query heap allocation** once
//! warm: an L2 hit takes one stripe's read lock and copies the entry's
//! nodes straight into reused scratch while holding it. The batch
//! plumbing is pooled to match — `Batch` buffers (pairs in, results
//! out) cycle `Router` → worker → `Router` through the existing
//! channels and are recycled from a free list, and a whole batch's
//! answers live in one arena-backed [`QueryBatchResult`] (a single
//! [`PathSet`] plus per-query spans) instead of a `Vec<Path>` of
//! per-path `Vec`s per query. [`Router::query_many_into`] and
//! [`Router::query_into`] expose that representation; callers that want
//! owned paths materialise them with [`FamilyRef::to_paths`].
//!
//! Worker metrics follow the same discipline: each worker publishes
//! per-batch deltas into lock-free per-worker atomic counters (see
//! [`metrics`](self)), merged on demand by [`Router::metrics`] — no
//! mutex, no poison path.
//!
//! ## Fault feed
//!
//! [`Router::add_fault`] / [`Router::clear_fault`] take effect without
//! stopping the service: each event bumps the cache's generation
//! counter, workers notice the moved generation with one atomic load at
//! their next query and re-snapshot the fault set. Cached entries are
//! **not** discarded — they are plain (fault-blind) families, which stay
//! true facts about the topology. Each query runs through the
//! fault-avoiding layer, which scans the (possibly replayed) plain
//! family against the live snapshot and repairs blocked ones via the
//! `construct_avoiding` rebuild — the rebuild bypasses every cache tier,
//! so answers are byte-identical to a cold cache *by construction*
//! (the cache-on ≡ cache-off argument of the avoiding layer, extended
//! to the shared tier; see `tests/router_equivalence.rs`). L2 replays
//! that had to be repaired are counted as `l2_invalidations` in
//! [`ConstructionMetrics`](crate::ConstructionMetrics).
//!
//! ## Interface
//!
//! Queries arrive over per-worker mpsc channels:
//! [`Router::query_many_into`] splits a batch into contiguous chunks,
//! fans them across the workers and reassembles results in submission
//! order; [`Router::query_into`] round-robins single queries. Results
//! depend only on the pair and the fault snapshot — never on which
//! worker answered or how the chunks interleaved.

mod metrics;
mod shared;

pub use shared::{L2Config, SharedFamilyCache, DEFAULT_L2_SHARDS, DEFAULT_L2_SHARD_CAPACITY};

use self::metrics::AtomicReport;
use crate::disjoint::{disjoint_paths_avoiding_into, CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::metrics::MetricsReport;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use crate::{CacheConfig, Path};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Geometry and policy of a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Worker threads answering queries (at least 1).
    pub threads: usize,
    /// Crossing order every answer uses.
    pub order: CrossingOrder,
    /// Per-worker family cache of a router whose L2 is disabled; unused
    /// while the L2 has capacity (workers then consult the L2 alone).
    pub l1: CacheConfig,
    /// Shared L2 tier geometry ([`L2Config::disabled`] gives the
    /// per-worker-cache-only baseline).
    pub l2: L2Config,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            order: CrossingOrder::Gray,
            l1: CacheConfig::enabled(),
            l2: L2Config::enabled(),
        }
    }
}

/// One query's answer inside a [`QueryBatchResult`] arena.
#[derive(Debug, Clone, PartialEq, Eq)]
enum QuerySlot {
    /// Not yet answered (only observable mid-reassembly).
    Pending,
    /// Paths `[first, last)` of the arena.
    Ok {
        first: u32,
        last: u32,
    },
    Failed(HhcError),
}

/// A borrowed disjoint-path family: one query's span of a
/// [`QueryBatchResult`] arena. Paths are `&[NodeId]` slices into the
/// shared [`PathSet`] — nothing is owned, nothing is cloned.
#[derive(Debug, Clone, Copy)]
pub struct FamilyRef<'a> {
    set: &'a PathSet,
    first: usize,
    last: usize,
}

impl<'a> FamilyRef<'a> {
    /// Number of paths in the family (`m + 1` plain; possibly fewer
    /// under heavy faults, down to zero).
    pub fn len(&self) -> usize {
        self.last - self.first
    }

    /// Whether the family is empty (no fault-free path survived).
    pub fn is_empty(&self) -> bool {
        self.first == self.last
    }

    /// The `j`-th path of the family.
    ///
    /// # Panics
    /// If `j >= self.len()`.
    pub fn path(&self, j: usize) -> &'a [NodeId] {
        assert!(j < self.len(), "path index {j} out of range");
        self.set.path(self.first + j)
    }

    /// Iterates the family's paths as node slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [NodeId]> + 'a {
        let copy = *self;
        (copy.first..copy.last).map(move |i| copy.set.path(i))
    }

    /// Materialises the family as owned paths (allocates).
    pub fn to_paths(&self) -> Vec<Path> {
        self.iter().map(<[NodeId]>::to_vec).collect()
    }
}

/// Arena-backed answers for a whole batch of queries: one reusable
/// [`PathSet`] holding every path of every answered family, plus one
/// span-or-error slot per query. Reusing the buffer across
/// [`Router::query_many_into`] calls makes the steady-state query path
/// allocation-free — capacity is retained by [`Self::clear`].
#[derive(Debug, Default)]
pub struct QueryBatchResult {
    paths: PathSet,
    slots: Vec<QuerySlot>,
}

impl QueryBatchResult {
    /// An empty result buffer (allocates nothing until first use).
    pub fn new() -> Self {
        QueryBatchResult::default()
    }

    /// Number of query slots (answered or pending).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no query slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total paths across all answered families.
    pub fn total_paths(&self) -> usize {
        self.paths.len()
    }

    /// Drops all answers, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.paths.clear();
        self.slots.clear();
    }

    /// Query `i`'s answer: the family span, or the construction error.
    ///
    /// # Panics
    /// If `i` is out of range or (unreachable through the public query
    /// entry points) the slot was never answered.
    pub fn get(&self, i: usize) -> Result<FamilyRef<'_>, &HhcError> {
        match &self.slots[i] {
            QuerySlot::Ok { first, last } => Ok(FamilyRef {
                set: &self.paths,
                first: *first as usize,
                last: *last as usize,
            }),
            QuerySlot::Failed(e) => Err(e),
            QuerySlot::Pending => panic!("query {i} was never answered"),
        }
    }

    /// Iterates every query's answer in submission order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Result<FamilyRef<'_>, &HhcError>> + '_ {
        (0..self.slots.len()).map(move |i| self.get(i))
    }

    /// Clears and lays out `n` pending slots for out-of-order
    /// reassembly via [`Self::absorb`].
    fn begin(&mut self, n: usize) {
        self.clear();
        self.slots.resize(n, QuerySlot::Pending);
    }

    /// Appends one answered family, copying its paths into the arena.
    fn push_ok(&mut self, family: &PathSet) {
        let first = self.paths.len() as u32;
        for p in family.iter() {
            self.paths.push_path(p);
        }
        self.slots.push(QuerySlot::Ok {
            first,
            last: self.paths.len() as u32,
        });
    }

    /// Appends one failed query.
    fn push_err(&mut self, e: HhcError) {
        self.slots.push(QuerySlot::Failed(e));
    }

    /// Copies a worker chunk's answers into slots `base..`, rebasing
    /// its arena spans onto this arena's tail.
    fn absorb(&mut self, base: usize, chunk: &QueryBatchResult) {
        let off = self.paths.len() as u32;
        for (j, slot) in chunk.slots.iter().enumerate() {
            self.slots[base + j] = match slot {
                QuerySlot::Pending => QuerySlot::Pending,
                QuerySlot::Ok { first, last } => QuerySlot::Ok {
                    first: first + off,
                    last: last + off,
                },
                QuerySlot::Failed(e) => QuerySlot::Failed(e.clone()),
            };
        }
        for p in chunk.paths.iter() {
            self.paths.push_path(p);
        }
    }
}

/// A pooled unit of work: a chunk of queries, the index its results
/// slot back into, and the result buffer the worker fills in place. The
/// same `Batch` objects cycle `Router` → worker → `Router` forever, so
/// the channels carry no fresh allocations after warm-up.
#[derive(Default)]
struct Batch {
    base: usize,
    pairs: Vec<(NodeId, NodeId)>,
    result: QueryBatchResult,
}

/// The concurrent routing front-end; see the module docs.
///
/// Dropping the router shuts the workers down and joins them.
pub struct Router {
    hhc: Hhc,
    shared: Arc<SharedFamilyCache>,
    senders: Vec<mpsc::Sender<Batch>>,
    handles: Vec<JoinHandle<()>>,
    results_rx: mpsc::Receiver<Batch>,
    reports: Vec<Arc<AtomicReport>>,
    flush_epoch: Arc<AtomicU64>,
    next_worker: usize,
    /// Recycled batch buffers; bounded by the most batches ever in
    /// flight at once (≤ the worker count).
    pool: Vec<Batch>,
}

impl Router {
    /// Spawns the worker pool for `HHC(m)`.
    ///
    /// # Errors
    /// Propagates [`Hhc::new`]'s validation of `m`.
    pub fn new(m: u32, cfg: RouterConfig) -> Result<Router, HhcError> {
        let hhc = Hhc::new(m)?;
        let threads = cfg.threads.max(1);
        let shared = Arc::new(SharedFamilyCache::new(cfg.l2));
        let flush_epoch = Arc::new(AtomicU64::new(0));
        let (results_tx, results_rx) = mpsc::channel();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let mut reports = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<Batch>();
            let report = Arc::new(AtomicReport::default());
            let ctx = WorkerCtx {
                hhc,
                order: cfg.order,
                l1: cfg.l1,
                shared: Arc::clone(&shared),
                flush_epoch: Arc::clone(&flush_epoch),
                report: Arc::clone(&report),
                results_tx: results_tx.clone(),
            };
            handles.push(std::thread::spawn(move || worker_loop(ctx, rx)));
            senders.push(tx);
            reports.push(report);
        }
        Ok(Router {
            hhc,
            shared,
            senders,
            handles,
            results_rx,
            reports,
            flush_epoch,
            next_worker: 0,
            pool: Vec::new(),
        })
    }

    /// The network this router serves.
    pub fn hhc(&self) -> &Hhc {
        &self.hhc
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// The shared L2 tier, for fault/occupancy introspection.
    pub fn shared_cache(&self) -> &Arc<SharedFamilyCache> {
        &self.shared
    }

    /// Marks `v` faulty for all subsequent queries; returns `false` if
    /// it already was. Takes effect at each worker's next query.
    pub fn add_fault(&self, v: NodeId) -> bool {
        self.shared.add_fault(v)
    }

    /// Heals `v`; returns `false` if it was not faulty.
    pub fn clear_fault(&self, v: NodeId) -> bool {
        self.shared.clear_fault(v)
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        self.shared.fault_count()
    }

    /// Current fault-set generation.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Drops the L2 tier's entries and tells every worker to replace its
    /// own family cache with a fresh one before its next batch. This is
    /// the full-rebuild-on-fault baseline the bench ablates against —
    /// the serving path never calls it (lazy invalidation makes it
    /// unnecessary).
    pub fn flush_caches(&self) {
        self.shared.flush();
        self.flush_epoch.fetch_add(1, Ordering::Release);
    }

    /// Answers a batch into a caller-owned (reusable) result buffer:
    /// pairs are split into contiguous chunks, one per worker, answered
    /// concurrently, and reassembled in submission order. Equivalent to
    /// answering each pair serially under a fixed fault set. With a
    /// warm `out`, allocation-free end to end.
    pub fn query_many_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut QueryBatchResult) {
        out.begin(pairs.len());
        if pairs.is_empty() {
            return;
        }
        let threads = self.senders.len();
        let chunk = pairs.len().div_ceil(threads);
        let mut outstanding = 0usize;
        for (i, slice) in pairs.chunks(chunk).enumerate() {
            let mut b = self.pool.pop().unwrap_or_default();
            b.base = i * chunk;
            b.pairs.clear();
            b.pairs.extend_from_slice(slice);
            self.submit(i % threads, b);
            outstanding += 1;
        }
        for _ in 0..outstanding {
            let b = self.results_rx.recv().expect("worker pool hung up");
            out.absorb(b.base, &b.result);
            self.pool.push(b);
        }
    }

    /// Answers one query into a caller-owned (reusable) [`PathSet`],
    /// round-robining across the workers; returns the family size. With
    /// a warm `out`, allocation-free end to end.
    ///
    /// # Errors
    /// The construction error for the pair, exactly as the serial
    /// avoiding entry point reports it.
    pub fn query_into(
        &mut self,
        u: NodeId,
        v: NodeId,
        out: &mut PathSet,
    ) -> Result<usize, HhcError> {
        let w = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.senders.len();
        let mut b = self.pool.pop().unwrap_or_default();
        b.base = 0;
        b.pairs.clear();
        b.pairs.push((u, v));
        self.submit(w, b);
        let b = self.results_rx.recv().expect("worker pool hung up");
        out.clear();
        let r = match b.result.get(0) {
            Ok(f) => {
                for p in f.iter() {
                    out.push_path(p);
                }
                Ok(f.len())
            }
            Err(e) => Err(e.clone()),
        };
        self.pool.push(b);
        r
    }

    /// Merged effort snapshot across all workers (each worker publishes
    /// per-batch counter deltas into lock-free atomics;
    /// `fault_generation` is the maximum generation any worker has
    /// acted on).
    pub fn metrics(&self) -> MetricsReport {
        let mut merged = MetricsReport::default();
        for r in &self.reports {
            r.merge_into(&mut merged);
        }
        merged
    }

    fn submit(&self, worker: usize, batch: Batch) {
        self.senders[worker]
            .send(batch)
            .expect("worker pool hung up");
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.senders.clear(); // disconnects every worker's receiver
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Everything a worker owns or shares; bundled so the spawn site stays
/// readable.
struct WorkerCtx {
    hhc: Hhc,
    order: CrossingOrder,
    l1: CacheConfig,
    shared: Arc<SharedFamilyCache>,
    flush_epoch: Arc<AtomicU64>,
    report: Arc<AtomicReport>,
    results_tx: mpsc::Sender<Batch>,
}

fn worker_loop(ctx: WorkerCtx, rx: mpsc::Receiver<Batch>) {
    // One family tier per worker: the shared L2 when it has capacity,
    // else the worker's own cache.
    let mut builder = PathBuilder::with_caches(ctx.l1);
    if ctx.shared.shard_capacity() > 0 {
        builder.attach_shared_cache(Arc::clone(&ctx.shared));
    }
    let mut out = PathSet::new();
    let mut local_faults: HashSet<NodeId> = HashSet::new();
    let mut local_gen = ctx.shared.faults_snapshot_into(&mut local_faults);
    let mut seen_flush = ctx.flush_epoch.load(Ordering::Acquire);
    // The builder's cumulative report at the last publication; the
    // difference against it is what each batch adds to the atomics.
    let mut prev = MetricsReport::default();
    while let Ok(mut batch) = rx.recv() {
        let fe = ctx.flush_epoch.load(Ordering::Acquire);
        if fe != seen_flush {
            seen_flush = fe;
            builder.set_cache_config(ctx.l1);
        }
        batch.result.clear();
        for &(u, v) in &batch.pairs {
            // Epoch fast path: one atomic load per query; the fault set
            // is re-cloned only when an event moved the generation.
            let gen = ctx.shared.generation();
            if gen != local_gen {
                local_gen = ctx.shared.faults_snapshot_into(&mut local_faults);
            }
            match disjoint_paths_avoiding_into(
                &ctx.hhc,
                u,
                v,
                ctx.order,
                &local_faults,
                &mut out,
                &mut builder,
            ) {
                Ok(_) => batch.result.push_ok(&out),
                Err(e) => batch.result.push_err(e),
            }
        }
        let mut cur = builder.metrics();
        cur.construction.fault_generation = local_gen;
        // Publish before send: the channel's happens-before edge makes
        // the relaxed counter updates visible to whoever receives the
        // batch and then reads Router::metrics().
        ctx.report.publish(&cur, &prev);
        prev = cur;
        if ctx.results_tx.send(batch).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::disjoint_paths;

    fn cfg(threads: usize) -> RouterConfig {
        RouterConfig {
            threads,
            ..RouterConfig::default()
        }
    }

    type Owned = Result<Vec<Path>, HhcError>;

    /// One query through [`Router::query_into`], in owned form.
    fn ask(router: &mut Router, u: NodeId, v: NodeId) -> Owned {
        let mut out = PathSet::new();
        router.query_into(u, v, &mut out).map(|_| out.to_paths())
    }

    /// A batch through [`Router::query_many_into`], in owned form.
    fn ask_many(router: &mut Router, pairs: &[(NodeId, NodeId)]) -> Vec<Owned> {
        let mut out = QueryBatchResult::new();
        router.query_many_into(pairs, &mut out);
        assert_eq!(out.len(), pairs.len());
        out.iter()
            .map(|r| r.map(|f| f.to_paths()).map_err(Clone::clone))
            .collect()
    }

    #[test]
    fn rejects_invalid_m() {
        assert!(Router::new(99, RouterConfig::default()).is_err());
    }

    #[test]
    fn answers_match_the_plain_construction() {
        let mut router = Router::new(3, cfg(3)).unwrap();
        let h = Hhc::new(3).unwrap();
        let pairs = workload_pairs(&h, 40);
        let answers = ask_many(&mut router, &pairs);
        for ((u, v), got) in pairs.iter().zip(&answers) {
            let want = disjoint_paths(&h, *u, *v, CrossingOrder::Gray).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
        let m = router.metrics();
        assert_eq!(m.construction.queries, 40);
        // Every query probed the L2 exactly once, and nothing else.
        assert_eq!(m.construction.family_hits, 0);
        assert_eq!(
            m.construction.family_hits + m.construction.l2_hits + m.construction.l2_misses,
            m.construction.queries,
            "tiered-probe conservation law"
        );
    }

    #[test]
    fn single_and_batch_pipelines_agree() {
        // query_into (one pooled batch per query, round-robin) answers
        // every pair exactly as query_many_into answered the batch.
        let mut router = Router::new(3, cfg(2)).unwrap();
        let h = Hhc::new(3).unwrap();
        let pairs = workload_pairs(&h, 24);
        let batch = ask_many(&mut router, &pairs);
        let mut single = PathSet::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            match router.query_into(u, v, &mut single) {
                Ok(n) => {
                    let want = batch[i].as_ref().unwrap();
                    assert_eq!(n, want.len());
                    assert_eq!(&single.to_paths(), want);
                }
                Err(e) => assert_eq!(Err(e), batch[i].clone()),
            }
        }
    }

    #[test]
    fn batch_buffers_are_pooled_and_bounded() {
        let threads = 3;
        let mut router = Router::new(3, cfg(threads)).unwrap();
        let h = Hhc::new(3).unwrap();
        let pairs = workload_pairs(&h, 30);
        let mut out = QueryBatchResult::new();
        let mut single = PathSet::new();
        for _ in 0..5 {
            router.query_many_into(&pairs, &mut out);
            let _ = router.query_into(pairs[0].0, pairs[0].1, &mut single);
        }
        assert!(
            router.pool.len() <= threads,
            "free list holds at most one batch per worker, got {}",
            router.pool.len()
        );
    }

    #[test]
    fn empty_batch_answers_empty() {
        let mut router = Router::new(2, cfg(2)).unwrap();
        let mut out = QueryBatchResult::new();
        router.query_many_into(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(out.total_paths(), 0);
    }

    #[test]
    fn l2_promotes_across_workers() {
        // A repeated pair answered by many single queries round-robins
        // across workers; after the first solve every other query hits
        // the shared tier, which is the only tier a worker consults.
        let mut router = Router::new(3, cfg(4)).unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x00, 0b000).unwrap();
        let v = h.node(0xA5, 0b110).unwrap();
        let first = ask(&mut router, u, v).unwrap();
        for _ in 0..7 {
            assert_eq!(ask(&mut router, u, v).unwrap(), first);
        }
        let c = router.metrics().construction;
        assert_eq!(c.queries, 8);
        assert_eq!(c.l2_misses, 1, "only the first query constructs");
        assert_eq!(c.family_hits, 0, "no worker probes a cache of its own");
        assert_eq!(c.l2_hits, 7);
    }

    #[test]
    fn fault_events_reach_queries_and_stamp_metrics() {
        let mut router = Router::new(2, cfg(2)).unwrap();
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0000, 0b00).unwrap();
        let v = h.node(0b0101, 0b11).unwrap();
        let plain = ask(&mut router, u, v).unwrap();
        // Fault an interior node of the first path: answers must reroute.
        let fault = plain[0][1];
        assert!(router.add_fault(fault));
        let rerouted = ask_many(&mut router, &[(u, v), (u, v)]);
        for r in &rerouted {
            let fam = r.as_ref().unwrap();
            assert!(fam.iter().all(|p| !p.contains(&fault)));
        }
        assert_ne!(rerouted[0].as_ref().unwrap(), &plain);
        // Faulty endpoints error like the serial avoiding entry point.
        assert_eq!(
            ask(&mut router, fault, v),
            Err(HhcError::FaultyEndpoint(fault))
        );
        assert!(router.clear_fault(fault));
        assert_eq!(ask(&mut router, u, v).unwrap(), plain);
        let c = router.metrics().construction;
        assert_eq!(c.fault_generation, 2, "add + clear = two generations");
        assert!(c.fault_reroutes >= 1);
    }

    #[test]
    fn flush_caches_forces_reconstruction() {
        let mut router = Router::new(3, cfg(2)).unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x01, 0b001).unwrap();
        let v = h.node(0x3C, 0b100).unwrap();
        let a = ask(&mut router, u, v).unwrap();
        router.flush_caches();
        assert!(router.shared_cache().is_empty());
        let b = ask(&mut router, u, v).unwrap();
        assert_eq!(a, b, "flushing never changes answers");
        let c = router.metrics().construction;
        assert_eq!(c.family_hits + c.l2_hits, 0, "the L2 was cold both times");
    }

    fn workload_pairs(h: &Hhc, n: usize) -> Vec<(NodeId, NodeId)> {
        // Deterministic xorshift pairs, mixing same-cube and cross-cube.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xmask = (1u128 << h.positions()) - 1;
        let mut pairs = Vec::with_capacity(n);
        while pairs.len() < n {
            let u = h
                .node(
                    next() as u128 & xmask,
                    (next() % (1 << h.m()) as u64) as u32,
                )
                .unwrap();
            let v = h
                .node(
                    next() as u128 & xmask,
                    (next() % (1 << h.m()) as u64) as u32,
                )
                .unwrap();
            if u != v {
                pairs.push((u, v));
            }
        }
        pairs
    }
}
