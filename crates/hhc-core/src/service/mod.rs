//! Concurrent routing service: a long-lived [`Router`] answering
//! disjoint-path queries from a shared family cache under a live fault
//! feed.
//!
//! Every earlier consumer of the construction engine is a closed-loop
//! batch ([`crate::batch`], the experiment drivers, the DES). This
//! module turns the library into a serving system: a pool of worker
//! threads, each owning a [`PathBuilder`], all attached to one
//! process-wide [`SharedFamilyCache`] (the **L2** — the same
//! lock-striped family cache a builder otherwise keeps privately, at
//! router geometry; see the [`family_cache`](crate::disjoint::family_cache)
//! docs). A query is answered L2 → construct, and a construction is
//! stored in the L2 once, so one worker's solve warms every other
//! worker. The L2 is the only family tier a query consults; the one
//! other memo, a worker's rerouted answers under the current fault set,
//! is described under *Fault feed*. A router whose [`L2Config`] has no
//! capacity attaches nothing, and each worker serves from a private
//! tier of [`RouterConfig::l1`] instead.
//!
//! ## Each answer written once, and no allocation
//!
//! A batch's answers live in the caller's arena-backed
//! [`QueryBatchResult`]: one chunk per worker, each a [`PathSet`] plus
//! per-query spans, instead of a `Vec<Path>` of per-path `Vec`s per
//! query. [`Router::query_many_into`] lends chunk `c` to worker `c` for
//! the duration of the call, and [`Router::query_into`] lends the
//! caller's `PathSet` the same way. A worker answers through the append
//! form of the construction core, so an L2 hit decodes the entry's hops,
//! under one stripe's read lock, straight into the caller's arena, and
//! a fresh construction assembles its paths there: the router never
//! copies a node. A query that fails, or a worker that panics, leaves
//! nothing of its answer in the arena. Callers that want owned paths
//! materialise them with [`FamilyRef::to_paths`].
//!
//! Once warm the whole loop performs **no heap allocation**
//! (`tests/zero_alloc.rs` counts it): `Batch` buffers (pairs in,
//! metrics out, the chunk they carry) cycle `Router` → worker →
//! `Router` over bounded channels, whose rings are allocated once, and
//! are recycled from a free list.
//!
//! Worker metrics ride the same buffers: after each batch a worker
//! moves its builder's report for that batch into the pooled `Batch`
//! and zeroes the builder's counters, and the router merges the report
//! when the batch comes back. [`Router::metrics`] is a copy of one
//! [`MetricsReport`] — no atomics, no mutex, no poison path.
//!
//! ## Fault feed
//!
//! [`Router::add_fault`] / [`Router::clear_fault`] take effect without
//! stopping the service: the live set is a [`LiveFaults`] the router
//! and its workers share, each event bumps its generation counter,
//! workers notice the moved generation with one atomic load at their
//! next query and re-snapshot the fault set into a worker-owned sorted
//! [`FaultSet`] (one slice copy into reused capacity). Cached entries
//! are **not** discarded — they are plain (fault-blind) families, which
//! stay true facts about the topology.
//! Each query runs through the fault-avoiding layer, which checks the
//! (possibly replayed) plain family against the snapshot in O(f): each
//! live fault is tested against the entry's cube-offset span, and only
//! a fault that passes sends the family through the exact per-node scan
//! (a binary search over the ≤ m snapshot nodes per probe). A blocked
//! family is repaired inside the worker's own call to the avoiding layer
//! (`disjoint::avoid_into`): a cross-cube family is rebuilt by
//! `case_b::cross_cube_into` with the snapshot as its faults, and a
//! same-cube one falls back to its unblocked survivors. The rebuild
//! bypasses every cache tier, so answers are byte-identical to a
//! cold cache *by construction* (the cache-on ≡ cache-off argument of
//! the avoiding layer, extended to the shared tier; see
//! `tests/router_equivalence.rs`). Exact scans are counted as
//! `fault_scans`, repaired L2 replays as `l2_invalidations` in
//! [`ConstructionMetrics`](crate::ConstructionMetrics).
//!
//! ## Reroute memo
//!
//! A rebuild costs an order of magnitude more than a replay, and a hot
//! blocked pair asks for the same one again and again. So each worker
//! keeps the families it rerouted in a map keyed by the absolute pair
//! `(u, v)`, hop-coded like an L2 entry (one byte per hop). A worker's
//! answer depends only on `(hhc, u, v, order, fault snapshot)`, of which
//! only the pair varies while the snapshot holds; so the memo is cleared
//! in the same step that re-snapshots the fault set, and a hit replays
//! exactly the bytes the rebuild would write, skipping the L2 probe, the
//! fault check and the rebuild. The key is not translation-canonical,
//! because a rebuild depends on where the faults sit, and the
//! generation is a monotone `u64`, so a stale snapshot cannot come back
//! under a reused number. Every answer the avoiding layer marks
//! `rerouted` is stored; the memo is never consulted or filled while the
//! snapshot is empty, is cleared when it reaches
//! [`DEFAULT_FAMILY_CACHE_CAPACITY`] entries, and is dropped with the
//! builder after a caught panic. A hit constructs nothing and probes no
//! tier, so it ticks only `reroute_memo_hits`: every query a worker
//! answers is a construction (`queries`), a memo hit, or an error, and
//! `queries = family_hits + l2_hits + l2_misses` still holds.
//!
//! ## Interface
//!
//! Queries arrive over per-worker bounded mpsc channels:
//! [`Router::query_many_into`] splits a batch into contiguous chunks,
//! one per worker, whose answers read back in submission order;
//! [`Router::query_into`] round-robins single queries. Results depend
//! only on the pair and the fault snapshot — never on which worker
//! answered or how the chunks interleaved.

pub use crate::disjoint::family_cache::{
    L2Config, SharedFamilyCache, DEFAULT_L2_SHARDS, DEFAULT_L2_SHARD_CAPACITY,
};

use crate::disjoint::family_cache::{FamilyEntry, DEFAULT_FAMILY_CACHE_CAPACITY};
use crate::disjoint::{avoid_into, CrossingOrder, PathBuilder};
use crate::error::HhcError;
use crate::fault::FaultSet;
use crate::metrics::MetricsReport;
use crate::node::NodeId;
use crate::pathset::PathSet;
use crate::topology::Hhc;
use crate::{CacheConfig, Path};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

/// Geometry and policy of a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Worker threads answering queries (at least 1).
    pub threads: usize,
    /// Crossing order every answer uses.
    pub order: CrossingOrder,
    /// Each worker's private family tier when the L2 has no capacity;
    /// unused otherwise (workers then consult the L2 alone).
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

/// One query's answer inside a chunk of a [`QueryBatchResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum QuerySlot {
    /// Paths `[first, last)` of the chunk's arena.
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
        self.set.paths(self.first..self.last)
    }

    /// Materialises the family as owned paths (allocates).
    pub fn to_paths(&self) -> Vec<Path> {
        self.iter().map(<[NodeId]>::to_vec).collect()
    }
}

/// One worker's share of a batch's answers: the arena its families are
/// written into, and a slot per query of its chunk. The router lends it
/// to the worker for the duration of a call.
#[derive(Debug, Default)]
struct Chunk {
    paths: PathSet,
    slots: Vec<QuerySlot>,
}

/// Arena-backed answers for a whole batch of queries: one chunk per
/// worker, each a reusable [`PathSet`] holding its queries' families
/// plus one span-or-error slot per query. [`Router::query_many_into`]
/// lends chunk `c` to worker `c`, which writes every answer straight
/// into it, so a family is written once and never copied. Reusing the
/// buffer across calls makes the steady-state query path
/// allocation-free — capacity is retained by [`Self::clear`].
#[derive(Debug, Default)]
pub struct QueryBatchResult {
    /// Chunk `c` answers queries `c × chunk_len ..`.
    chunks: Vec<Chunk>,
    chunk_len: usize,
    len: usize,
}

impl QueryBatchResult {
    /// An empty result buffer (allocates nothing until first use).
    pub fn new() -> Self {
        QueryBatchResult::default()
    }

    /// Number of answered queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all answers, keeping every chunk's capacity.
    pub fn clear(&mut self) {
        for c in &mut self.chunks {
            c.paths.clear();
            c.slots.clear();
        }
        self.len = 0;
    }

    /// Query `i`'s answer: the family span, or the construction error.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn get(&self, i: usize) -> Result<FamilyRef<'_>, &HhcError> {
        assert!(i < self.len, "query {i} out of range");
        let chunk = &self.chunks[i / self.chunk_len];
        match &chunk.slots[i % self.chunk_len] {
            QuerySlot::Ok { first, last } => Ok(FamilyRef {
                set: &chunk.paths,
                first: *first as usize,
                last: *last as usize,
            }),
            QuerySlot::Failed(e) => Err(e),
        }
    }

    /// Iterates every query's answer in submission order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Result<FamilyRef<'_>, &HhcError>> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// A pooled unit of work: a chunk of queries, the caller's chunk of
/// answers lent for the call (and which one it is), and the worker's
/// metrics for this chunk. The same `Batch` objects cycle `Router` →
/// worker → `Router` forever, so the channels carry no fresh
/// allocations after warm-up. Between calls `answers` is empty: each
/// chunk's one arena belongs to the caller.
#[derive(Default)]
struct Batch {
    chunk: usize,
    pairs: Vec<(NodeId, NodeId)>,
    answers: Chunk,
    report: MetricsReport,
}

/// The live fault set a [`Router`] and its workers share, with a
/// generation counter bumped once per change. [`Router::live_faults`]
/// hands it out so that another thread can feed faults while the router
/// is busy answering.
#[derive(Debug, Default)]
pub struct LiveFaults {
    /// Bumped once per fault-set mutation, while the write lock is
    /// held; readers pair it with the set via `snapshot_into`.
    generation: AtomicU64,
    faults: RwLock<FaultSet>,
    /// Test-only worker fault injection: every worker panics on these
    /// pairs.
    #[cfg(test)]
    panic_on: std::sync::Mutex<Vec<(NodeId, NodeId)>>,
}

impl LiveFaults {
    /// Current fault-set generation: bumped once per successful
    /// [`Self::add_fault`] / [`Self::clear_fault`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        self.faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Marks `v` faulty; returns `false` (and does not bump the
    /// generation) if it already was.
    pub fn add_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let added = f.insert(v);
        if added {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        added
    }

    /// Heals `v`; returns `false` (and does not bump the generation) if
    /// it was not faulty.
    pub fn clear_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let removed = f.remove(v);
        if removed {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// Copies the live fault set into `out` and returns its generation.
    /// The pair is consistent: the generation is read under the same
    /// read lock that guards the copy, so it never lags the set. Workers
    /// re-snapshot only when [`Self::generation`] moves, and the copy
    /// reuses `out`'s capacity, so a long-lived worker re-snapshots
    /// without allocating once its set has grown to the high-water
    /// fault count.
    fn snapshot_into(&self, out: &mut FaultSet) -> u64 {
        let f = self.faults.read().unwrap_or_else(PoisonError::into_inner);
        out.clone_from(&f);
        self.generation.load(Ordering::Acquire)
    }
}

/// The concurrent routing front-end; see the module docs.
///
/// Dropping the router shuts the workers down and joins them.
pub struct Router {
    hhc: Hhc,
    shared: Arc<SharedFamilyCache>,
    faults: Arc<LiveFaults>,
    /// The workers' family tiers, each once: the shared L2, or one
    /// private tier per worker when the L2 has no capacity.
    tiers: Vec<Arc<SharedFamilyCache>>,
    /// One bounded input per worker, of capacity 1, and one output of
    /// capacity `threads`: a call sends at most one batch per worker and
    /// waits for every batch it sent, so no send ever blocks, and the
    /// channels' preallocated rings keep the warm loops allocation-free.
    senders: Vec<mpsc::SyncSender<Batch>>,
    handles: Vec<JoinHandle<()>>,
    results_rx: mpsc::Receiver<Batch>,
    /// Every returned batch's report, merged on receipt.
    metrics: MetricsReport,
    next_worker: usize,
    /// Recycled batch buffers; bounded by the most batches ever in
    /// flight at once (≤ the worker count).
    pool: Vec<Batch>,
    /// The slot [`Router::query_into`] lends along with the caller's
    /// set.
    single: Vec<QuerySlot>,
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
        let faults = Arc::new(LiveFaults::default());
        let (results_tx, results_rx) = mpsc::sync_channel(threads);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let mut tiers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<Batch>(1);
            // One family tier per worker: the shared L2 when it has
            // capacity, else a private tier of `l1`.
            let mut builder = PathBuilder::with_caches(cfg.l1);
            if shared.shard_capacity() > 0 {
                builder.attach_shared_cache(Arc::clone(&shared));
            }
            tiers.push(Arc::clone(builder.family_tier()));
            let ctx = WorkerCtx {
                hhc,
                order: cfg.order,
                builder,
                faults: Arc::clone(&faults),
                results_tx: results_tx.clone(),
            };
            handles.push(std::thread::spawn(move || worker_loop(ctx, rx)));
            senders.push(tx);
        }
        tiers.dedup_by(|a, b| Arc::ptr_eq(a, b));
        Ok(Router {
            hhc,
            shared,
            faults,
            tiers,
            senders,
            handles,
            results_rx,
            metrics: MetricsReport::default(),
            next_worker: 0,
            pool: Vec::new(),
            single: Vec::new(),
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

    /// The shared L2 tier, for occupancy introspection.
    pub fn shared_cache(&self) -> &Arc<SharedFamilyCache> {
        &self.shared
    }

    /// The live fault set the workers read, for feeding faults from
    /// another thread.
    pub fn live_faults(&self) -> &Arc<LiveFaults> {
        &self.faults
    }

    /// Marks `v` faulty for all subsequent queries; returns `false` if
    /// it already was. Takes effect at each worker's next query.
    pub fn add_fault(&self, v: NodeId) -> bool {
        self.faults.add_fault(v)
    }

    /// Heals `v`; returns `false` if it was not faulty.
    pub fn clear_fault(&self, v: NodeId) -> bool {
        self.faults.clear_fault(v)
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        self.faults.fault_count()
    }

    /// Current fault-set generation.
    pub fn generation(&self) -> u64 {
        self.faults.generation()
    }

    /// Drops every entry of every worker's family tier: the shared L2,
    /// or each worker's private tier when the L2 has no capacity. This
    /// is the full-rebuild-on-fault baseline the bench ablates against —
    /// the serving path never calls it (lazy invalidation makes it
    /// unnecessary).
    pub fn flush_caches(&self) {
        for tier in &self.tiers {
            tier.flush();
        }
    }

    /// Answers a batch into a caller-owned (reusable) result buffer:
    /// pairs are split into contiguous chunks, one per worker, and each
    /// worker writes its chunk's answers straight into the chunk of
    /// `out` lent to it for the call; no answer is copied. Equivalent to
    /// answering each pair serially under a fixed fault set. With a warm
    /// `out`, allocation-free end to end (`tests/zero_alloc.rs`). If a
    /// worker panics, the query it was answering and the rest of its
    /// chunk report [`HhcError::WorkerPanicked`].
    pub fn query_many_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut QueryBatchResult) {
        out.clear();
        if pairs.is_empty() {
            return;
        }
        // At most `threads` chunks, so chunk `c` goes to worker `c`.
        let chunk_len = pairs.len().div_ceil(self.senders.len());
        let chunks = pairs.len().div_ceil(chunk_len);
        if out.chunks.len() < chunks {
            out.chunks.resize_with(chunks, Chunk::default);
        }
        for (c, slice) in pairs.chunks(chunk_len).enumerate() {
            let mut b = self.pool.pop().unwrap_or_default();
            b.chunk = c;
            b.pairs.clear();
            b.pairs.extend_from_slice(slice);
            b.answers = std::mem::take(&mut out.chunks[c]);
            self.submit(c, b);
        }
        for _ in 0..chunks {
            let mut b = self.receive();
            out.chunks[b.chunk] = std::mem::take(&mut b.answers);
            self.pool.push(b);
        }
        out.chunk_len = chunk_len;
        out.len = pairs.len();
    }

    /// Answers one query into a caller-owned (reusable) [`PathSet`],
    /// round-robining across the workers; returns the family size.
    /// `out` is cleared and lent to the worker, which writes the family
    /// straight into it. With a warm `out`, allocation-free end to end
    /// (`tests/zero_alloc.rs`).
    ///
    /// # Errors
    /// The construction error for the pair, exactly as the serial
    /// avoiding entry point reports it, or [`HhcError::WorkerPanicked`]
    /// if the worker panicked on it. `out` is then empty.
    pub fn query_into(
        &mut self,
        u: NodeId,
        v: NodeId,
        out: &mut PathSet,
    ) -> Result<usize, HhcError> {
        let w = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.senders.len();
        let mut b = self.pool.pop().unwrap_or_default();
        b.pairs.clear();
        b.pairs.push((u, v));
        out.clear();
        b.answers = Chunk {
            paths: std::mem::take(out),
            slots: std::mem::take(&mut self.single),
        };
        self.submit(w, b);
        let mut b = self.receive();
        let Chunk { paths, mut slots } = std::mem::take(&mut b.answers);
        self.pool.push(b);
        *out = paths;
        let r = match slots
            .pop()
            .expect("a worker answers every query it is sent")
        {
            QuerySlot::Ok { first, last } => Ok((last - first) as usize),
            QuerySlot::Failed(e) => Err(e),
        };
        self.single = slots;
        r
    }

    /// Merged effort snapshot across all workers: every answered
    /// batch's report, summed (`fault_generation` is the maximum
    /// generation any worker has acted on).
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.clone()
    }

    fn submit(&self, worker: usize, batch: Batch) {
        self.senders[worker]
            .send(batch)
            .expect("worker pool hung up");
    }

    /// Receives the next answered batch and merges its metrics.
    fn receive(&mut self) -> Batch {
        let b = self.results_rx.recv().expect("worker pool hung up");
        self.metrics.merge(&b.report);
        b
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
    builder: PathBuilder,
    faults: Arc<LiveFaults>,
    results_tx: mpsc::SyncSender<Batch>,
}

fn worker_loop(ctx: WorkerCtx, rx: mpsc::Receiver<Batch>) {
    let WorkerCtx {
        hhc,
        order,
        mut builder,
        faults,
        results_tx,
    } = ctx;
    let mut local_faults = FaultSet::default();
    let mut local_gen = faults.snapshot_into(&mut local_faults);
    // The families this worker rerouted under `local_faults`, by
    // absolute pair: valid for one generation (see the module docs).
    let mut memo: HashMap<(NodeId, NodeId), FamilyEntry> = HashMap::new();
    while let Ok(mut batch) = rx.recv() {
        let Batch { pairs, answers, .. } = &mut batch;
        // Where the arena stood before the query being answered: the
        // end of the last answered family.
        let mut base = answers.paths.len();
        let mut memo_hits = 0;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for &(u, v) in pairs.iter() {
                base = answers.paths.len();
                // Epoch fast path: one atomic load per query; the fault
                // set is re-copied, and the memo dropped, only when an
                // event moved the generation.
                if faults.generation() != local_gen {
                    local_gen = faults.snapshot_into(&mut local_faults);
                    memo.clear();
                }
                let memoised = if local_faults.is_empty() {
                    None
                } else {
                    memo.get(&(u, v))
                };
                // The family is appended to the lent arena: written once,
                // where the caller reads it.
                let answer = match memoised {
                    Some(entry) => {
                        entry.replay(u, &mut answers.paths);
                        memo_hits += 1;
                        Ok(())
                    }
                    None => avoid_into(
                        &hhc,
                        u,
                        v,
                        order,
                        &local_faults,
                        &mut answers.paths,
                        &mut builder,
                    )
                    .map(|outcome| {
                        if outcome.rerouted {
                            if memo.len() >= DEFAULT_FAMILY_CACHE_CAPACITY {
                                memo.clear();
                            }
                            let entry = FamilyEntry::encode(hhc.m(), &answers.paths, base, 0, 0);
                            memo.insert((u, v), entry);
                        }
                    }),
                };
                // Injected after the family is written, so the arena
                // must drop it.
                #[cfg(test)]
                if faults.panic_on.lock().unwrap().contains(&(u, v)) {
                    panic!("injected worker panic");
                }
                let slot = match answer {
                    Ok(_) => QuerySlot::Ok {
                        first: base as u32,
                        last: answers.paths.len() as u32,
                    },
                    Err(e) => {
                        answers.paths.truncate(base);
                        QuerySlot::Failed(e)
                    }
                };
                answers.slots.push(slot);
            }
        }));
        // A panic fails the rest of its batch, never the caller, who
        // waits for every batch it sent. The arena drops whatever the
        // panicking query wrote, every unanswered query gets a slot, and
        // the worker goes on with a fresh builder on the same tier and an
        // empty memo; the failed batch's counters are dropped with the
        // old builder. The fault snapshot is replaced whole, so it needs
        // no repair.
        if caught.is_err() {
            answers.paths.truncate(base);
            answers
                .slots
                .resize(pairs.len(), QuerySlot::Failed(HhcError::WorkerPanicked));
            builder = builder.fresh();
            memo.clear();
            memo_hits = 0;
        }
        // This batch's counters go home with it.
        batch.report = builder.metrics();
        builder.reset_metrics();
        batch.report.construction.fault_generation = local_gen;
        batch.report.construction.reroute_memo_hits = memo_hits;
        if results_tx.send(batch).is_err() {
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
        assert_eq!(stray_nodes(&out), 0, "every arena holds its answers alone");
        owned(&out)
    }

    fn owned(out: &QueryBatchResult) -> Vec<Owned> {
        out.iter()
            .map(|r| r.map(|f| f.to_paths()).map_err(Clone::clone))
            .collect()
    }

    /// Nodes in the chunk arenas outside every answered family: 0 when
    /// each arena holds exactly its answered families.
    fn stray_nodes(out: &QueryBatchResult) -> usize {
        out.chunks
            .iter()
            .map(|chunk| {
                let answered: usize = chunk
                    .slots
                    .iter()
                    .map(|slot| match *slot {
                        QuerySlot::Ok { first, last } => chunk
                            .paths
                            .paths(first as usize..last as usize)
                            .map(<[NodeId]>::len)
                            .sum(),
                        QuerySlot::Failed(_) => 0,
                    })
                    .sum();
                chunk.paths.total_nodes() - answered
            })
            .sum()
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
    }

    #[test]
    fn l2_promotes_across_workers() {
        // A repeated pair answered by many single queries round-robins
        // across workers; once the second solve has stored it (its
        // second sighting) every other query hits the shared tier,
        // which is the only tier a worker consults.
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
        assert_eq!(c.l2_misses, 2, "only the first two queries construct");
        assert_eq!(c.family_hits, 0, "no worker probes a cache of its own");
        assert_eq!(c.l2_hits, 6);
    }

    #[test]
    fn l2_stores_a_family_on_its_second_sighting() {
        let mut router = Router::new(3, cfg(2)).unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x01, 0b001).unwrap();
        let v = h.node(0x3C, 0b100).unwrap();
        let a = ask(&mut router, u, v).unwrap();
        assert!(router.shared_cache().is_empty(), "a first sighting");
        assert_eq!(ask(&mut router, u, v).unwrap(), a);
        assert_eq!(router.shared_cache().len(), 1, "stored on the second");
        assert_eq!(ask(&mut router, u, v).unwrap(), a);
        let c = router.metrics().construction;
        assert_eq!((c.l2_misses, c.l2_hits), (2, 1), "replayed on the third");
    }

    #[test]
    fn l2_keeps_no_family_seen_once() {
        // 1,000 pairs of distinct cube offsets have distinct family
        // keys: each is a first sighting, so nothing is stored.
        let mut router = Router::new(4, cfg(2)).unwrap();
        let h = Hhc::new(4).unwrap();
        let pairs: Vec<_> = (1..=1000u128)
            .map(|dx| (h.node(0, 0b0000).unwrap(), h.node(dx, 0b0101).unwrap()))
            .collect();
        assert!(ask_many(&mut router, &pairs).iter().all(Result::is_ok));
        assert_eq!(router.shared_cache().len(), 0);
        let c = router.metrics().construction;
        assert_eq!((c.l2_misses, c.l2_hits), (1000, 0));
    }

    #[test]
    fn flush_forgets_sightings() {
        let mut router = Router::new(3, cfg(1)).unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x01, 0b001).unwrap();
        let v = h.node(0x3C, 0b100).unwrap();
        let a = ask(&mut router, u, v).unwrap();
        router.flush_caches();
        assert_eq!(ask(&mut router, u, v).unwrap(), a);
        assert!(
            router.shared_cache().is_empty(),
            "the first sighting after a flush stores nothing"
        );
        assert_eq!(ask(&mut router, u, v).unwrap(), a);
        assert_eq!(router.shared_cache().len(), 1);
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
        assert!(
            c.fault_reroutes <= c.fault_scans && c.fault_scans <= c.queries,
            "every reroute is an exact scan, at most one per query: {c:?}"
        );
    }

    #[test]
    fn the_reroute_memo_is_exact_across_generations() {
        use crate::disjoint::disjoint_paths_avoiding;
        let h = Hhc::new(3).unwrap();
        let pool = workload_pairs(&h, 600);
        let plain: Vec<Vec<Path>> = pool
            .iter()
            .map(|&(u, v)| disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap())
            .collect();
        let interior = |fam: &[Path]| -> Vec<NodeId> {
            fam.iter()
                .flat_map(|p| &p[1..p.len() - 1])
                .copied()
                .collect()
        };
        // The interior node the most plain families of the pool pass
        // through (a family's paths share no interior node), and those
        // families' pairs.
        let mut nodes: Vec<NodeId> = plain.iter().flat_map(|fam| interior(fam)).collect();
        nodes.sort();
        let f = nodes
            .chunk_by(|a, b| a == b)
            .max_by_key(|run| run.len())
            .unwrap()[0];
        let blocked: Vec<usize> = (0..pool.len())
            .filter(|&i| interior(&plain[i]).contains(&f))
            .collect();
        assert!(
            blocked.len() >= 3,
            "{} pairs pass through {f:?}",
            blocked.len()
        );
        // Each blocked pair four times, between unblocked pairs, plus a
        // pair that fails while `f` is faulty.
        let mut pairs = vec![(f, pool[0].1)];
        for round in 0..4 {
            for (i, &b) in blocked.iter().enumerate() {
                pairs.push(pool[b]);
                pairs.push(pool[(round * blocked.len() + i) % pool.len()]);
            }
        }
        // Every query's answer under `faults`, and whether it rerouted.
        let oracle = |faults: &[NodeId]| -> Vec<(Owned, bool)> {
            let faults: FaultSet = faults.iter().copied().collect();
            pairs
                .iter()
                .map(|&(u, v)| {
                    match disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults) {
                        Ok((paths, outcome)) => (Ok(paths), outcome.rerouted),
                        Err(e) => (Err(e), false),
                    }
                })
                .collect()
        };
        // A node the rebuild around `f` routes the first blocked pair
        // (query 1) through, off its plain family: a memo kept past the
        // move from `f` to `g` would replay a family through the new
        // fault.
        let at_f = oracle(&[f]);
        let g = interior(at_f[1].0.as_ref().unwrap())
            .into_iter()
            .find(|w| !interior(&plain[blocked[0]]).contains(w))
            .expect("the rebuild leaves the plain family");
        let (clear, at_g) = (oracle(&[]), oracle(&[g]));
        type Expected = [(Owned, bool)];
        let steps: [(&str, &[NodeId], &Expected); 6] = [
            ("fault-free", &[], &clear),
            ("added", &[f], &at_f),
            ("held", &[f], &at_f),
            ("cleared", &[], &clear),
            ("re-added", &[f], &at_f),
            ("moved", &[g], &at_g),
        ];
        for threads in [1, 2, 4] {
            let chunk_len = pairs.len().div_ceil(threads);
            let mut router = Router::new(3, cfg(threads)).unwrap();
            let mut live: Vec<NodeId> = Vec::new();
            let (mut hits, mut answered) = (0, 0);
            for (step, hold, want) in steps {
                let moved = live != hold;
                for &w in live.iter().filter(|w| !hold.contains(w)) {
                    assert!(router.clear_fault(w));
                }
                for &w in hold.iter().filter(|w| !live.contains(w)) {
                    assert!(router.add_fault(w));
                }
                live = hold.to_vec();
                let answers = ask_many(&mut router, &pairs);
                for (i, (got, (want, _))) in answers.iter().zip(want).enumerate() {
                    assert_eq!(got, want, "{threads} workers, {step}, query {i}");
                }
                // Each worker replays every rerouted query of its chunk
                // from the memo, except, right after the fault set moved,
                // its first sighting of each pair.
                hits += pairs
                    .chunks(chunk_len)
                    .zip(want.chunks(chunk_len))
                    .map(|(chunk, want)| {
                        let mut rerouted: Vec<_> = chunk
                            .iter()
                            .zip(want)
                            .filter(|(_, (_, rerouted))| *rerouted)
                            .map(|(pair, _)| pair)
                            .collect();
                        let all = rerouted.len() as u64;
                        rerouted.sort();
                        rerouted.dedup();
                        all - if moved { rerouted.len() as u64 } else { 0 }
                    })
                    .sum::<u64>();
                let c = router.metrics().construction;
                assert_eq!(c.reroute_memo_hits, hits, "{threads} workers, {step}");
                // Every answer is a construction or a memo hit; an error
                // is neither.
                answered += want.iter().filter(|(r, _)| r.is_ok()).count() as u64;
                assert_eq!(
                    c.queries + c.reroute_memo_hits,
                    answered,
                    "{threads} workers, {step}"
                );
                assert_eq!(
                    c.family_hits + c.l2_hits + c.l2_misses,
                    c.queries,
                    "{threads} workers, {step}: tiered-probe conservation law"
                );
            }
            assert!(hits > 0);
        }
    }

    #[test]
    fn fault_events_bump_generation_only_on_change() {
        let faults = LiveFaults::default();
        let v = NodeId::from_raw(42);
        assert_eq!(faults.generation(), 0);
        assert!(faults.add_fault(v));
        assert!(!faults.add_fault(v), "duplicate add is a no-op");
        assert_eq!(faults.generation(), 1);
        assert_eq!(faults.fault_count(), 1);
        assert!(faults.clear_fault(v));
        assert!(!faults.clear_fault(v), "duplicate clear is a no-op");
        assert_eq!(faults.generation(), 2);
        let mut reused: FaultSet = [NodeId::from_raw(9)].into_iter().collect();
        assert_eq!(faults.snapshot_into(&mut reused), 2);
        assert!(reused.is_empty(), "snapshot_into replaces the contents");
        assert!(faults.add_fault(v));
        assert_eq!(faults.snapshot_into(&mut reused), 3);
        assert_eq!(reused.as_slice(), &[v]);
    }

    #[test]
    fn flush_caches_forces_reconstruction() {
        let mut router = Router::new(3, cfg(2)).unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x01, 0b001).unwrap();
        let v = h.node(0x3C, 0b100).unwrap();
        let a = ask(&mut router, u, v).unwrap();
        assert_eq!(ask(&mut router, u, v).unwrap(), a);
        assert_eq!(router.shared_cache().len(), 1, "the second sighting stored");
        router.flush_caches();
        assert!(router.shared_cache().is_empty());
        let b = ask(&mut router, u, v).unwrap();
        assert_eq!(a, b, "flushing never changes answers");
        let c = router.metrics().construction;
        assert_eq!(c.family_hits + c.l2_hits, 0, "the L2 was cold every time");
    }

    #[test]
    fn flush_caches_reaches_private_tiers() {
        // With the L2 disabled each worker serves from a private tier;
        // a flush must empty every one of them.
        let mut router = Router::new(
            3,
            RouterConfig {
                l2: L2Config::disabled(),
                ..cfg(2)
            },
        )
        .unwrap();
        let h = Hhc::new(3).unwrap();
        let u = h.node(0x01, 0b001).unwrap();
        let v = h.node(0x3C, 0b100).unwrap();
        // Round-robin: two misses, then one hit on each worker.
        let a = ask(&mut router, u, v).unwrap();
        for _ in 0..3 {
            assert_eq!(ask(&mut router, u, v).unwrap(), a);
        }
        let warm = router.metrics().construction;
        assert_eq!(warm.family_hits, 2, "both workers hit their own tier");
        assert_eq!(warm.l2_hits + warm.l2_misses, 0, "no L2 attached");
        router.flush_caches();
        for _ in 0..2 {
            assert_eq!(
                ask(&mut router, u, v).unwrap(),
                a,
                "flushing never changes answers"
            );
        }
        let c = router.metrics().construction;
        assert_eq!(c.queries, 6);
        assert_eq!(c.family_hits, 2, "both workers constructed again");
    }

    #[test]
    fn a_failed_query_leaves_no_stray_nodes() {
        // Errors interleaved with answers in every chunk: a worker
        // appends each answer to its chunk's arena, and an error must
        // leave nothing of its query there.
        use crate::disjoint::disjoint_paths_avoiding;
        let h = Hhc::new(3).unwrap();
        let fault = h.node(0x77, 0b011).unwrap();
        let outside = NodeId::from_raw(1 << 100);
        let mut pairs = workload_pairs(&h, 36);
        for (i, pair) in pairs.iter_mut().enumerate().filter(|(i, _)| i % 3 == 1) {
            *pair = match i % 9 {
                1 => (pair.0, pair.0),
                4 => (fault, pair.1),
                _ => (pair.0, outside),
            };
        }
        let faults: FaultSet = [fault].into_iter().collect();
        let oracle: Vec<Owned> = pairs
            .iter()
            .map(|&(u, v)| {
                disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &faults).map(|(p, _)| p)
            })
            .collect();
        assert!(oracle.iter().any(|r| r == &Err(HhcError::EqualNodes)));
        assert!(oracle
            .iter()
            .any(|r| r == &Err(HhcError::FaultyEndpoint(fault))));
        assert!(oracle.iter().filter(|r| r.is_err()).count() >= 12);
        for threads in [1, 2, 4] {
            let mut router = Router::new(3, cfg(threads)).unwrap();
            router.add_fault(fault);
            let mut out = QueryBatchResult::new();
            // Three passes: cold, stored on the second sighting, replayed.
            for pass in 0..3 {
                router.query_many_into(&pairs, &mut out);
                assert_eq!(owned(&out), oracle, "{threads} workers, pass {pass}");
                assert_eq!(stray_nodes(&out), 0, "{threads} workers, pass {pass}");
            }
            let mut single = PathSet::new();
            for (&(u, v), want) in pairs.iter().zip(&oracle).filter(|(_, r)| r.is_err()) {
                router
                    .query_into(pairs[0].0, pairs[0].1, &mut single)
                    .unwrap();
                assert!(!single.is_empty());
                assert_eq!(
                    Err(router.query_into(u, v, &mut single).unwrap_err()),
                    *want
                );
                assert_eq!(
                    single,
                    PathSet::new(),
                    "{threads} workers: an error leaves out empty"
                );
            }
        }
    }

    #[test]
    fn a_worker_panic_fails_its_batch_and_never_hangs() {
        // A panicking worker must not hang its caller (without a
        // per-batch catch_unwind it does, from 2 workers up), so the
        // calls run on their own thread and the test waits for each
        // under a timeout.
        use crate::disjoint::disjoint_paths_avoiding;
        use std::time::Duration;
        let h = Hhc::new(3).unwrap();
        let pairs = workload_pairs(&h, 48);
        let hooks = [pairs[5], pairs[30]];
        let oracle = |&(u, v): &(NodeId, NodeId)| -> Owned {
            disjoint_paths_avoiding(&h, u, v, CrossingOrder::Gray, &FaultSet::default())
                .map(|(paths, _)| paths)
        };
        for threads in [1, 2, 4] {
            let (tx, rx) = mpsc::channel();
            let sent = pairs.clone();
            let caller = std::thread::spawn(move || {
                let mut router = Router::new(3, cfg(threads)).unwrap();
                let faults = Arc::clone(router.live_faults());
                faults.panic_on.lock().unwrap().extend(hooks);
                // Each call reports its answers and the nodes it left
                // outside them (the hook fires after a family is
                // written).
                let mut out = QueryBatchResult::new();
                router.query_many_into(&sent, &mut out);
                let _ = tx.send((owned(&out), stray_nodes(&out)));
                let mut single = PathSet::new();
                let r = router.query_into(hooks[0].0, hooks[0].1, &mut single);
                let _ = tx.send((vec![r.map(|_| single.to_paths())], single.total_nodes()));
                faults.panic_on.lock().unwrap().clear();
                router.query_many_into(&sent, &mut out);
                let _ = tx.send((owned(&out), stray_nodes(&out)));
            });
            let next = || {
                rx.recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{threads} workers: a call never returned"))
            };
            // A chunk fails from its first hooked pair on; every other
            // answer is the oracle's.
            let chunk = pairs.len().div_ceil(threads);
            let failed = |i: usize| (i / chunk * chunk..=i).any(|j| hooks.contains(&pairs[j]));
            let (answers, stray) = next();
            assert_eq!(
                stray, 0,
                "{threads} workers: the panicking query's nodes remain"
            );
            for (i, got) in answers.iter().enumerate() {
                if failed(i) {
                    assert_eq!(
                        got,
                        &Err(HhcError::WorkerPanicked),
                        "{threads} workers, {i}"
                    );
                } else {
                    assert_eq!(got, &oracle(&pairs[i]), "{threads} workers, {i}");
                }
            }
            assert_eq!(next(), (vec![Err(HhcError::WorkerPanicked)], 0));
            let (healed, stray) = next();
            assert_eq!(stray, 0);
            for (i, got) in healed.iter().enumerate() {
                assert_eq!(got, &oracle(&pairs[i]), "{threads} workers, healed {i}");
            }
            caller.join().expect("the calling thread ran to completion");
        }
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
