//! The flat simulation core: traffic-proportional data structures.
//!
//! Per-cycle cost scales with *traffic* (packets in flight, links
//! actually crossed), not with topology size, and resident memory with
//! traffic plus one 8-byte word per directed link — that is what admits
//! HHC(4) (2^20 nodes, ~5M directed links) packet-level:
//!
//! * **[`LinkTable`]** — a directed link *is* a u32 id, computed from
//!   its endpoints' addresses (`from · degree` plus `to`'s rank among
//!   `from`'s neighbours); ids ascend in `(from, to)` order, fixing the
//!   canonical link service order. Nothing is stored per node.
//! * **`LinkStore`** — per-link timing and queue state. The lazy layout
//!   (default) keeps one `u64` word per directed link: an idle link's
//!   word holds its last service start, from which its busy-until cycle
//!   follows, and a link with queued packets holds a slot in a small
//!   slab of `LinkState`s, recycled once its queue empties. So full
//!   queue state exists only for the links that are queued right now.
//!   [`LinkStoreMode::Eager`] keeps one dense `LinkState` per link as
//!   the reference layout.
//! * **[`RouteArena`]** — interned, deduplicated routes with
//!   precomputed per-hop link ids, sharded 16 ways by a route-endpoint
//!   hash so million-node pair sets don't grow one monolithic index;
//!   packets ([`FlatPacket`]) carry `(route_id, hop)` and are `Copy`.
//! * **[`EventCalendar`]** — a timing wheel over landing cycles. Every
//!   entry carries its transmission-start cycle and link id, and slots
//!   drain in `(start, link)` order — the canonical landing order — so
//!   engine variants that schedule the same transmissions at different
//!   moments still land them identically.
//! * **`ArrivalSampler`** — the Bernoulli arrival process evaluated by
//!   geometric gap-sampling over the (cycle-major) healthy-source index
//!   space: injection visits only the sources that actually fire, an
//!   O(arrivals) worklist instead of an O(nodes) per-cycle scan.
//! * **hybrid link fidelity** ([`Fidelity::Hybrid`], default) — a
//!   packet arriving at an idle, uncontended link is committed
//!   analytically (its service is scheduled straight onto the calendar
//!   at exactly the cycle the queued engine would start it) and the
//!   link is promoted to full queued simulation on first contention, a
//!   ghost entry standing in for the analytically committed packet.
//!
//! All engine variants ([`EngineConfig`]) draw from the RNG in the same
//! order, service links in the same order and land packets in the same
//! order, so they produce **byte-identical [`SimStats`]** — enforced by
//! the `flat_equivalence` test suite and the `profile_sim` bench.

use crate::faults::{FaultAction, FaultEvent, FaultSet};
use crate::net::{LinkTable, Network, RouteScratch};
use crate::packet::FlatPacket;
use crate::sim::{DeliveryRecord, SimConfig, Switching};
use crate::stats::{CycleSample, SimStats};
use crate::strategy::Strategy;
use hhc_core::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use workloads::Pattern;

/// How per-link queue state is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkStoreMode {
    /// One dense `LinkState` per directed link, allocated up front.
    /// Memory is O(links) full states — fine up to mid-size topologies,
    /// and the reference layout the lazy store is checked against.
    Eager,
    /// One 8-byte word per directed link, plus a slab slot for each
    /// link whose queue is non-empty. Memory is 8 bytes per link plus
    /// O(links queued at once).
    #[default]
    Lazy,
}

/// Link service fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Every packet goes through its link's queue and is popped by the
    /// per-cycle transmission phase.
    Full,
    /// Packets meeting an idle, uncontended link are committed
    /// analytically (scheduled straight onto the calendar, no queue
    /// residency); a link is promoted to full queued simulation the
    /// moment a second packet wants it. Byte-identical statistics to
    /// [`Fidelity::Full`]. Falls back to full fidelity automatically
    /// when backpressure (`queue_capacity`) or time-series sampling
    /// (`sample_every`) is configured, since both observe queue
    /// residency directly.
    #[default]
    Hybrid,
}

/// Engine variant: link-store mode × link fidelity. All variants
/// produce byte-identical [`SimStats`]; the choice trades memory and
/// speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Link-state materialisation (lazy by default).
    pub store: LinkStoreMode,
    /// Link service fidelity (hybrid by default).
    pub fidelity: Fidelity,
}

impl EngineConfig {
    /// The reference engine: eager dense link state, full queueing.
    pub fn reference() -> Self {
        EngineConfig {
            store: LinkStoreMode::Eager,
            fidelity: Fidelity::Full,
        }
    }
}

/// Route-id sentinel marking a ghost queue entry: the stand-in for a
/// packet that was committed analytically before its link got promoted
/// to full queued simulation. Never observable outside the engine.
const GHOST_ROUTE: u32 = u32::MAX;

const ARENA_SHARDS: usize = 16;
const ARENA_SHARD_BITS: u32 = 4;

#[derive(Debug)]
struct ArenaShard {
    /// Concatenated node sequences (raw addresses).
    nodes: Vec<u32>,
    /// Concatenated per-hop link ids: local route `r` with `k` nodes has
    /// `k - 1` entries starting at `offsets[r] - r`.
    links: Vec<u32>,
    /// CSR offsets into `nodes`; `offsets.len() = routes + 1`.
    offsets: Vec<u32>,
    /// A route's 64-bit hash (`RouteArena::hash`) to the local id of
    /// the first route stored under it. The nodes are kept once, in
    /// `nodes`; a hit is confirmed against them.
    index: HashMap<u64, u32>,
}

impl ArenaShard {
    /// Node sequence of local route `local`.
    #[inline]
    fn nodes(&self, local: usize) -> &[u32] {
        &self.nodes[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl Default for ArenaShard {
    fn default() -> Self {
        ArenaShard {
            nodes: Vec::new(),
            links: Vec::new(),
            offsets: vec![0],
            index: HashMap::new(),
        }
    }
}

/// Arena of interned routes. Each distinct node sequence is stored once
/// together with its precomputed per-hop link ids; packets refer to
/// routes by arena id. Traffic patterns repeat (src, dst) pairs
/// constantly, so the arena stays small while packet hand-off becomes a
/// `Copy` of 24 bytes. Deduplication goes through an index from a
/// route's fixed 64-bit hash to its id, checked against the stored
/// nodes, so the index holds no copy of a route; two routes whose
/// hashes collide are both stored, and each id reads back its own
/// route. Storage is sharded 16 ways by an endpoint hash — ids encode
/// `(local « 4) | shard` — so the route set grows sixteen smaller
/// indexes and backing vectors instead of one: measured on
/// `des_hhc4_single`, a single unsharded arena peaked higher.
#[derive(Debug)]
pub struct RouteArena {
    shards: Vec<ArenaShard>,
}

impl RouteArena {
    /// An empty arena.
    pub fn new() -> Self {
        RouteArena {
            shards: (0..ARENA_SHARDS).map(|_| ArenaShard::default()).collect(),
        }
    }

    /// Number of distinct routes interned so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.offsets.len() - 1).sum()
    }

    /// Whether no route has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// FNV-1a over 32-bit words: fixed and unseeded, so ids are
    /// reproducible run to run.
    fn hash(words: impl IntoIterator<Item = u32>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn shard_of(route: &[u32]) -> usize {
        // Over (src, dst, len): routes of one flow co-locate, different
        // flows spread.
        let ends = [route[0], route[route.len() - 1], route.len() as u32];
        Self::hash(ends) as usize & (ARENA_SHARDS - 1)
    }

    /// Interns `route` (raw node addresses, ≥ 2 nodes), returning its
    /// arena id. A sequence already present is not stored again.
    pub fn intern<N: Network + ?Sized>(&mut self, route: &[u32], table: &LinkTable<'_, N>) -> u32 {
        self.intern_hashed(route, Self::hash(route.iter().copied()), table)
    }

    /// [`RouteArena::intern`] with the route's index hash given.
    fn intern_hashed<N: Network + ?Sized>(
        &mut self,
        route: &[u32],
        hash: u64,
        table: &LinkTable<'_, N>,
    ) -> u32 {
        debug_assert!(route.len() >= 2, "a route needs at least one hop");
        let si = Self::shard_of(route);
        let shard = &mut self.shards[si];
        let hit = shard.index.get(&hash).copied();
        let local = match hit {
            Some(local) if shard.nodes(local as usize) == route => local,
            _ => {
                let local = (shard.offsets.len() - 1) as u32;
                shard.nodes.extend_from_slice(route);
                for w in route.windows(2) {
                    shard.links.push(table.link_id(w[0], w[1]));
                }
                shard.offsets.push(shard.nodes.len() as u32);
                // A collision keeps the index on the first route.
                shard.index.entry(hash).or_insert(local);
                local
            }
        };
        let id = (local << ARENA_SHARD_BITS) | si as u32;
        debug_assert_ne!(id, GHOST_ROUTE, "route id space exhausted");
        id
    }

    #[inline]
    fn locate(&self, r: u32) -> (&ArenaShard, usize) {
        let si = (r & (ARENA_SHARDS as u32 - 1)) as usize;
        (&self.shards[si], (r >> ARENA_SHARD_BITS) as usize)
    }

    /// Node sequence of route `r`.
    #[inline]
    pub fn route_nodes(&self, r: u32) -> &[u32] {
        let (s, local) = self.locate(r);
        s.nodes(local)
    }

    /// Per-hop link ids of route `r` (`route_len(r) - 1` entries; entry
    /// `h` is the link from node `h` to node `h + 1`).
    #[inline]
    pub fn route_links(&self, r: u32) -> &[u32] {
        let (s, local) = self.locate(r);
        let lo = s.offsets[local] as usize - local;
        let hi = s.offsets[local + 1] as usize - (local + 1);
        &s.links[lo..hi]
    }

    /// Node count of route `r`.
    #[inline]
    pub fn route_len(&self, r: u32) -> u32 {
        let (s, local) = self.locate(r);
        s.offsets[local + 1] - s.offsets[local]
    }
}

impl Default for RouteArena {
    fn default() -> Self {
        RouteArena::new()
    }
}

/// Per-link simulation state: every link's state in the eager store,
/// and the slab slot of a link with queued packets in the lazy store.
/// A link's queue is non-empty exactly while the link is on the
/// engine's active/pending worklist.
#[derive(Debug)]
struct LinkState {
    /// FIFO of queued packets (may start with a ghost entry in hybrid
    /// fidelity — see [`Fidelity::Hybrid`]).
    queue: VecDeque<FlatPacket>,
    /// Cycle through which the link is occupied by its last transmission.
    busy_until: u64,
    /// Committed service-start cycle of the most recent transmission,
    /// plus one (0 = never). Lets the hybrid deposit path detect an
    /// analytically committed packet whose service is still in the
    /// future and must be re-materialised as a ghost.
    last_pop1: u64,
    /// Queue-occupancy snapshot for backpressure, valid iff
    /// `occ_cycle` equals the current cycle.
    occ: u64,
    occ_cycle: u64,
}

impl LinkState {
    fn new() -> Self {
        LinkState {
            queue: VecDeque::new(),
            busy_until: 0,
            last_pop1: 0,
            occ: 0,
            occ_cycle: u64::MAX,
        }
    }
}

/// Lazy-store word flag: the engine has touched the link.
const TOUCHED: u64 = 1 << 63;
/// Lazy-store word flag: the link's queue is non-empty, and the payload
/// is its slab slot.
const QUEUED: u64 = 1 << 62;
/// Lazy-store word payload: `last_pop1`, or a slab slot under [`QUEUED`].
const PAYLOAD: u64 = QUEUED - 1;

/// `busy_until` of a link whose queue is empty, derived from its
/// `last_pop1`: every path that leaves a queue empty (the analytic
/// commit and the phase-2 pop) sets both from the same start cycle.
#[inline]
fn idle_busy_until(last_pop1: u64, busy: u64) -> u64 {
    last_pop1.checked_sub(1).map_or(0, |start| start + busy)
}

#[derive(Debug)]
enum Slots {
    Eager(Vec<LinkState>),
    Lazy {
        /// One word per directed link: [`TOUCHED`], [`QUEUED`] and the
        /// [`PAYLOAD`].
        words: Vec<u64>,
        /// States of the queued links, and of recycled slots.
        slab: Vec<LinkState>,
        /// Recycled slab slots; each keeps its queue's buffer.
        free: Vec<u32>,
        /// Links touched so far.
        touched: u64,
    },
}

/// Per-link state storage: dense ([`LinkStoreMode::Eager`]) or one word
/// per link ([`LinkStoreMode::Lazy`]). A lazy link's word holds its
/// `last_pop1` while its queue is empty, `busy_until` being derived from
/// it; a link with queued packets holds a slab slot instead, returned
/// when phase 2 empties the queue. The payload is 62 bits wide, so
/// service starts must stay below cycle 2^62 − 1; a scenario caps each
/// cycle count at `i64::MAX`, and no run of 2^62 cycles finishes.
#[derive(Debug)]
struct LinkStore {
    slots: Slots,
    /// Cycles a transmission occupies its link.
    busy: u64,
}

impl LinkStore {
    fn new(n_links: usize, mode: LinkStoreMode, busy: u64) -> Self {
        let slots = match mode {
            LinkStoreMode::Eager => Slots::Eager((0..n_links).map(|_| LinkState::new()).collect()),
            LinkStoreMode::Lazy => Slots::Lazy {
                words: vec![0; n_links],
                slab: Vec::new(),
                free: Vec::new(),
                touched: 0,
            },
        };
        LinkStore { slots, busy }
    }

    /// Links materialised so far: every link in the eager store, the
    /// links the engine has touched (a deposit or an injection's
    /// backpressure probe) in the lazy one.
    fn materialised(&self) -> u64 {
        match &self.slots {
            Slots::Eager(v) => v.len() as u64,
            Slots::Lazy { touched, .. } => *touched,
        }
    }

    /// `(busy_until, last_pop1)` of `link` while its queue is empty, or
    /// `None` while packets are queued on it. Touches nothing.
    #[inline]
    fn idle_timing(&self, link: u32) -> Option<(u64, u64)> {
        match &self.slots {
            Slots::Eager(v) => {
                let st = &v[link as usize];
                st.queue.is_empty().then_some((st.busy_until, st.last_pop1))
            }
            Slots::Lazy { words, .. } => {
                let w = words[link as usize];
                let last_pop1 = w & PAYLOAD;
                (w & QUEUED == 0).then(|| (idle_busy_until(last_pop1, self.busy), last_pop1))
            }
        }
    }

    /// Commits a transmission starting at `start` on `link`, whose queue
    /// is empty. Touches the link.
    #[inline]
    fn commit(&mut self, link: u32, start: u64) {
        match &mut self.slots {
            Slots::Eager(v) => {
                let st = &mut v[link as usize];
                st.busy_until = start + self.busy;
                st.last_pop1 = start + 1;
            }
            Slots::Lazy { words, touched, .. } => {
                let w = &mut words[link as usize];
                debug_assert!(*w & QUEUED == 0, "commit on a queued link");
                debug_assert!(start < PAYLOAD, "service start past the word's cycle range");
                *touched += u64::from(*w & TOUCHED == 0);
                *w = TOUCHED | (start + 1);
            }
        }
    }

    /// Full state of `link`, touching it. A lazy link whose queue is
    /// empty takes a slab slot, so only a caller about to queue a packet
    /// asks for one; the transmission phase asks for the links it holds
    /// on its worklist, whose slots it returns with [`Self::release`].
    #[inline]
    fn state_mut(&mut self, link: u32) -> &mut LinkState {
        match &mut self.slots {
            Slots::Eager(v) => &mut v[link as usize],
            Slots::Lazy {
                words,
                slab,
                free,
                touched,
            } => {
                let w = words[link as usize];
                if w & QUEUED != 0 {
                    return &mut slab[(w & PAYLOAD) as usize];
                }
                *touched += u64::from(w & TOUCHED == 0);
                let slot = free.pop().unwrap_or_else(|| {
                    slab.push(LinkState::new());
                    (slab.len() - 1) as u32
                });
                words[link as usize] = TOUCHED | QUEUED | u64::from(slot);
                let st = &mut slab[slot as usize];
                st.last_pop1 = w & PAYLOAD;
                st.busy_until = idle_busy_until(st.last_pop1, self.busy);
                st.occ_cycle = u64::MAX;
                st
            }
        }
    }

    /// Returns the slab slot of `link`, whose queue the transmission
    /// phase emptied, restoring its one-word state.
    #[inline]
    fn release(&mut self, link: u32) {
        if let Slots::Lazy {
            words, slab, free, ..
        } = &mut self.slots
        {
            let w = &mut words[link as usize];
            debug_assert!(*w & QUEUED != 0, "link {link} holds no slot");
            let slot = (*w & PAYLOAD) as u32;
            let st = &slab[slot as usize];
            debug_assert!(st.queue.is_empty(), "released a queued link");
            debug_assert_eq!(
                st.busy_until,
                idle_busy_until(st.last_pop1, self.busy),
                "busy_until not derivable from last_pop1"
            );
            *w = TOUCHED | st.last_pop1;
            free.push(slot);
        }
    }

    /// Queue length of `link` for injection's backpressure probe, which
    /// touches the link even when the packet is then dropped.
    #[inline]
    fn probe_len(&mut self, link: u32) -> usize {
        if let Slots::Lazy { words, touched, .. } = &mut self.slots {
            let w = &mut words[link as usize];
            *touched += u64::from(*w & TOUCHED == 0);
            *w |= TOUCHED;
        }
        self.queue_len(link)
    }

    /// Queue length of `link`; never touches or allocates.
    #[inline]
    fn queue_len(&self, link: u32) -> usize {
        self.peek(link).map_or(0, |st| st.queue.len())
    }

    /// Full state of `link` if it has one (eager, or a lazy link with
    /// queued packets); never touches or allocates.
    #[inline]
    fn peek(&self, link: u32) -> Option<&LinkState> {
        match &self.slots {
            Slots::Eager(v) => v.get(link as usize),
            Slots::Lazy { words, slab, .. } => {
                let w = words[link as usize];
                (w & QUEUED != 0).then(|| &slab[(w & PAYLOAD) as usize])
            }
        }
    }

    /// End-of-cycle queue occupancy of `link` for backpressure checks:
    /// the snapshot taken this `cycle`, or 0 when the link has no
    /// snapshot (empty queue). Never touches.
    #[inline]
    fn occupancy_at(&self, link: u32, cycle: u64) -> u64 {
        self.peek(link)
            .map_or(0, |st| if st.occ_cycle == cycle { st.occ } else { 0 })
    }
}

/// A scheduled landing: the packet, the link it is crossing, and the
/// cycle its transmission started. `(start, link)` is unique per entry
/// (a link starts at most one transmission per cycle) and defines the
/// canonical landing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalEntry {
    /// Cycle the transmission started.
    pub start: u64,
    /// Directed link being crossed.
    pub link: u32,
    /// The packet in flight.
    pub pkt: FlatPacket,
}

/// Bucketed event calendar (timing wheel) over landing cycles. A
/// transmission committed at cycle `c` lands within `[c, c + horizon - 1]`,
/// so a wheel of `horizon` slots indexed by `cycle % horizon` never holds
/// two distinct landing cycles in one slot. Scheduling is O(1);
/// draining sorts the slot into canonical `(start, link)` order — a
/// no-op for the full-fidelity engine (which schedules in that order
/// already) and the step that makes hybrid fidelity land identically.
#[derive(Debug)]
pub struct EventCalendar {
    slots: Vec<Vec<CalEntry>>,
    horizon: u64,
    scheduled: u64,
}

impl EventCalendar {
    /// A calendar able to schedule up to `horizon` (≥ 1 enforced)
    /// cycles ahead of the drain cursor.
    pub fn new(horizon: u64) -> Self {
        let horizon = horizon.max(1);
        EventCalendar {
            slots: (0..horizon).map(|_| Vec::new()).collect(),
            horizon,
            scheduled: 0,
        }
    }

    /// Schedules `pkt` (crossing `link`, transmission started at
    /// `start`) to land at cycle `land`, which must be less than
    /// `horizon` cycles past the most recently drained cycle.
    #[inline]
    pub fn schedule(&mut self, land: u64, start: u64, link: u32, pkt: FlatPacket) {
        self.slots[(land % self.horizon) as usize].push(CalEntry { start, link, pkt });
        self.scheduled += 1;
    }

    /// Moves the entries landing at `cycle` into `out` (cleared first),
    /// sorted by `(start, link)`. `out`'s previous buffer is recycled as
    /// the slot's storage.
    pub fn drain_into(&mut self, cycle: u64, out: &mut Vec<CalEntry>) {
        out.clear();
        std::mem::swap(out, &mut self.slots[(cycle % self.horizon) as usize]);
        out.sort_unstable_by_key(|e| (e.start, e.link));
        self.scheduled -= out.len() as u64;
    }

    /// Packets scheduled but not yet drained.
    pub fn in_flight(&self) -> u64 {
        self.scheduled
    }
}

/// The Bernoulli arrival process, evaluated sparsely. Arrivals over the
/// cycle-major index space `cycle * n_sources + source_rank` form a
/// Bernoulli(`rate`) sequence; instead of one RNG draw per index, the
/// sampler draws geometric gaps between hits, so a cycle's injection
/// phase visits exactly the sources that fire. Rate 0 never fires and
/// draws nothing; rate ≥ 1 fires every index and draws nothing for the
/// gaps.
#[derive(Debug)]
pub(crate) struct ArrivalSampler {
    next: u128,
    mode: ArrivalMode,
}

#[derive(Debug, Clone, Copy)]
enum ArrivalMode {
    Off,
    Dense,
    Geometric { ln_q: f64 },
}

impl ArrivalSampler {
    pub(crate) fn new(rate: f64, rng: &mut StdRng) -> Self {
        if rate <= 0.0 {
            return ArrivalSampler {
                next: u128::MAX,
                mode: ArrivalMode::Off,
            };
        }
        if rate >= 1.0 {
            return ArrivalSampler {
                next: 0,
                mode: ArrivalMode::Dense,
            };
        }
        let ln_q = (1.0 - rate).ln();
        let gap = Self::gap(ln_q, rng);
        ArrivalSampler {
            next: gap,
            mode: ArrivalMode::Geometric { ln_q },
        }
    }

    /// Indices skipped before the next hit: `floor(ln(1-U)/ln(1-p))`,
    /// the standard inversion of the geometric CDF. `1 - U ∈ (0, 1]`, so
    /// the logarithm is finite and ≤ 0; huge gaps (rate ≈ 0) clamp
    /// rather than overflow the cast.
    fn gap(ln_q: f64, rng: &mut StdRng) -> u128 {
        let u: f64 = rng.gen();
        let g = (1.0 - u).ln() / ln_q;
        if g >= 1.0e30 {
            1u128 << 100
        } else {
            g as u128
        }
    }

    /// Index of the next firing arrival.
    #[inline]
    pub(crate) fn next_index(&self) -> u128 {
        self.next
    }

    /// Consumes the current firing and positions on the next one.
    pub(crate) fn advance(&mut self, rng: &mut StdRng) {
        match self.mode {
            ArrivalMode::Off => {}
            ArrivalMode::Dense => self.next += 1,
            ArrivalMode::Geometric { ln_q } => {
                self.next = self.next + 1 + Self::gap(ln_q, rng);
            }
        }
    }
}

/// Deposits `pkt` onto `link`, becoming serviceable at cycle `ready`.
/// In hybrid fidelity an idle, uncontended link commits the transmission
/// analytically (calendar only); contention promotes the link to full
/// queueing, with a ghost entry standing in for a previously committed
/// packet whose service is still pending.
#[allow(clippy::too_many_arguments)]
fn deposit(
    pkt: FlatPacket,
    link: u32,
    ready: u64,
    last_cycle: u64,
    hybrid: bool,
    busy: u64,
    switching: Switching,
    store: &mut LinkStore,
    arena: &RouteArena,
    calendar: &mut EventCalendar,
    stats: &mut SimStats,
    pending: &mut Vec<u32>,
    ghosts_outstanding: &mut u64,
) {
    if hybrid {
        if let Some((busy_until, last_pop1)) = store.idle_timing(link) {
            if last_pop1 > ready {
                // An analytically committed packet is still awaiting
                // service (it pops at last_pop1 - 1): promote to full
                // queueing. The ghost reproduces that pending pop — the
                // queued engine would have the real packet at the head
                // here.
                let st = store.state_mut(link);
                st.busy_until = last_pop1 - 1;
                st.queue.push_back(FlatPacket {
                    id: 0,
                    injected_at: 0,
                    route: GHOST_ROUTE,
                    hop: 0,
                });
                st.queue.push_back(pkt);
                *ghosts_outstanding += 1;
                stats.max_queue_len = stats.max_queue_len.max(st.queue.len() as u64);
                pending.push(link);
                return;
            }
            if busy_until <= ready && ready <= last_cycle {
                // Uncontended: the queued engine would pop this packet
                // at exactly `ready` — commit that transmission now.
                let rlen = arena.route_len(pkt.route);
                let final_hop = pkt.hop + 2 == rlen;
                let delay = match switching {
                    Switching::StoreAndForward => busy,
                    Switching::CutThrough => {
                        if final_hop {
                            busy
                        } else {
                            1
                        }
                    }
                };
                store.commit(link, ready);
                calendar.schedule(ready + delay - 1, ready, link, pkt);
                stats.link_transmissions += 1;
                stats.max_queue_len = stats.max_queue_len.max(1);
                return;
            }
            // Link busy from an already-serviced transmission (or the
            // run ends before `ready`): fall through to plain queueing.
        }
    }
    let st = store.state_mut(link);
    let was_idle = st.queue.is_empty();
    st.queue.push_back(pkt);
    stats.max_queue_len = stats.max_queue_len.max(st.queue.len() as u64);
    if was_idle {
        pending.push(link);
    }
}

/// One flat simulation run. Shared by [`crate::Simulator::run`] and
/// [`crate::Simulator::run_traced`] (the trace differs only in whether
/// delivery records are collected), and replicated with reseeded
/// configurations by [`crate::Simulator::run_many`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_flat<N: Network + ?Sized>(
    net: &N,
    pattern: Pattern,
    strategy: Strategy,
    fault_set: &HashSet<NodeId>,
    fault_events: &[FaultEvent],
    cfg: SimConfig,
    engine: EngineConfig,
    mut trace: Option<&mut Vec<DeliveryRecord>>,
) -> SimStats {
    let busy = cfg.packet_len.max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_nodes = 1usize << net.address_bits();
    // Hybrid fidelity is exact only while nothing observes queue
    // residency mid-service: backpressure reads occupancy and sampling
    // reads queue depth, so either forces full fidelity.
    let hybrid = engine.fidelity == Fidelity::Hybrid
        && cfg.queue_capacity.is_none()
        && cfg.sample_every == 0;
    let total_cycles = cfg.cycles + cfg.drain_cycles;
    let last_cycle = total_cycles.saturating_sub(1);
    let mut stats = SimStats {
        nodes: net.num_addresses() as u64,
        cycles: cfg.cycles,
        ..Default::default()
    };

    let table = LinkTable::build(net);
    let n_links = table.num_links();
    let mut arena = RouteArena::new();
    let mut store = LinkStore::new(n_links, engine.store, busy);
    // Non-empty-queue links, visited in ascending id order: `active` is
    // sorted; a link whose queue becomes non-empty is appended to
    // `pending` and merged in before the next transmission phase.
    // `emptied` holds the links that phase emptied until their slots
    // are returned.
    let mut active: Vec<u32> = Vec::new();
    let mut pending: Vec<u32> = Vec::new();
    let mut merge_buf: Vec<u32> = Vec::new();
    let mut emptied: Vec<u32> = Vec::new();
    // An analytic landing can trail the drain cursor by up to `busy`
    // cycles (phase-3 deposits commit at `cycle + 1`).
    let mut calendar = EventCalendar::new(busy + 1);
    let mut landed: Vec<CalEntry> = Vec::new();
    let mut route_scratch = RouteScratch::new();
    // Addresses outside the network are ignored, here and when an event
    // applies: no packet can reach them, and keeping them out keeps the
    // set's fault count honest for the fault-avoiding construction.
    let in_network = |v: NodeId| v.raw() < n_nodes as u128;
    let mut faults: FaultSet = fault_set
        .iter()
        .copied()
        .filter(|&v| in_network(v))
        .collect();
    // Timed fault events switch the run into dynamic mode: the arrival
    // index space covers *all* addresses (so the sampler's index stream
    // is invariant under churn) and arrivals at currently-faulty
    // sources are suppressed inside the attempt block. With no events
    // the static fast path below is untouched — byte-identical to every
    // recorded golden.
    let dynamic = !fault_events.is_empty();
    let mut events: Vec<FaultEvent> = fault_events.to_vec();
    events.sort_by_key(|e| e.cycle); // stable: same-cycle events keep order
    let mut next_event = 0usize;
    // Injection order is cycle-major over the healthy sources in
    // ascending address order; with no faults ranks are addresses.
    let healthy: Option<Vec<u32>> = (!dynamic && !faults.is_empty()).then(|| {
        (0..n_nodes as u32)
            .filter(|&raw| !faults.contains(NodeId::from_raw(raw as u128)))
            .collect()
    });
    let n_healthy = healthy.as_ref().map_or(n_nodes, Vec::len);
    let mut arrivals = ArrivalSampler::new(cfg.inject_rate, &mut rng);
    let mut route_buf: Vec<NodeId> = Vec::new();
    let mut idx_buf: Vec<u32> = Vec::new();
    let mut next_id = 0u64;
    let mut ghosts_outstanding = 0u64;

    for cycle in 0..total_cycles {
        // Phase 0: apply fault events due at the start of this cycle.
        while next_event < events.len() && events[next_event].cycle <= cycle {
            let ev = events[next_event];
            next_event += 1;
            if in_network(ev.node) {
                match ev.action {
                    FaultAction::Fail => faults.insert(ev.node),
                    FaultAction::Recover => faults.remove(ev.node),
                };
            }
        }

        // Phase 1: injection (disabled during drain). Only the sources
        // whose arrival fires this cycle are visited.
        if cycle < cfg.cycles && n_healthy > 0 {
            let base = cycle as u128 * n_healthy as u128;
            let limit = base + n_healthy as u128;
            while arrivals.next_index() < limit {
                let rank = (arrivals.next_index() - base) as usize;
                let raw = healthy.as_ref().map_or(rank as u32, |h| h[rank]);
                let src = NodeId::from_raw(raw as u128);
                // The labelled block gives every rejected attempt a
                // single exit that still advances the sampler.
                'attempt: {
                    if dynamic && faults.contains(src) {
                        // The source is down right now: its arrival is
                        // suppressed (no RNG draws beyond the sampler
                        // advance, so the arrival stream stays invariant
                        // under churn).
                        break 'attempt;
                    }
                    let Some(dst) = pattern.destination(net, src, &mut rng) else {
                        stats.self_addressed += 1;
                        break 'attempt;
                    };
                    if faults.contains(dst) {
                        stats.dropped_dst_faulty += 1;
                        break 'attempt;
                    }
                    if !strategy.select_into(
                        net,
                        src,
                        dst,
                        &faults,
                        &mut rng,
                        &mut route_scratch,
                        &mut route_buf,
                    ) {
                        stats.dropped_unroutable += 1;
                        break 'attempt;
                    }
                    idx_buf.clear();
                    idx_buf.extend(route_buf.iter().map(|v| v.raw() as u32));
                    let rid = arena.intern(&idx_buf, &table);
                    // Ids are consumed even by backpressure drops, so
                    // the numbering is capacity-invariant.
                    let id = next_id;
                    next_id += 1;
                    let link = arena.route_links(rid)[0];
                    if cfg
                        .queue_capacity
                        .is_some_and(|cap| store.probe_len(link) as u64 >= cap)
                    {
                        stats.dropped_backpressure += 1;
                        break 'attempt;
                    }
                    stats.injected += 1;
                    deposit(
                        FlatPacket {
                            id,
                            injected_at: cycle,
                            route: rid,
                            hop: 0,
                        },
                        link,
                        cycle,
                        last_cycle,
                        hybrid,
                        busy,
                        cfg.switching,
                        &mut store,
                        &arena,
                        &mut calendar,
                        &mut stats,
                        &mut pending,
                        &mut ghosts_outstanding,
                    );
                }
                arrivals.advance(&mut rng);
            }
        }

        // Merge newly non-empty links into the sorted active list.
        // `pending` and `active` are disjoint (a link enters `pending`
        // only as its queue leaves empty), so a plain two-way merge
        // keeps the list sorted and duplicate-free.
        if !pending.is_empty() {
            pending.sort_unstable();
            merge_buf.clear();
            merge_buf.reserve(active.len() + pending.len());
            let (mut i, mut j) = (0, 0);
            while i < active.len() && j < pending.len() {
                if active[i] < pending[j] {
                    merge_buf.push(active[i]);
                    i += 1;
                } else {
                    merge_buf.push(pending[j]);
                    j += 1;
                }
            }
            merge_buf.extend_from_slice(&active[i..]);
            merge_buf.extend_from_slice(&pending[j..]);
            std::mem::swap(&mut active, &mut merge_buf);
            pending.clear();
        }

        // Phase 2: start transmissions on every idle link with a queued
        // packet, in link-id order. Links whose queue empties are
        // compacted out of the active list in place; their slots are
        // returned after the loop, since backpressure still reads their
        // occupancy snapshots.
        if cfg.queue_capacity.is_some() {
            for &l in &active {
                let st = store.state_mut(l);
                st.occ = st.queue.len() as u64;
                st.occ_cycle = cycle;
            }
        }
        let mut started_this_cycle = 0u64;
        let mut w = 0usize;
        for i in 0..active.len() {
            let l = active[i];
            let head = {
                let st = store.state_mut(l);
                if st.busy_until > cycle {
                    None
                } else {
                    Some(*st.queue.front().expect("active link has a packet"))
                }
            };
            let Some(head) = head else {
                active[w] = l;
                w += 1;
                continue;
            };
            if head.route == GHOST_ROUTE {
                // The pending analytic transmission starts now; its
                // packet is already on the calendar.
                let st = store.state_mut(l);
                st.queue.pop_front();
                st.busy_until = cycle + busy;
                ghosts_outstanding -= 1;
                debug_assert!(
                    !st.queue.is_empty(),
                    "a ghost always has a real packet behind it"
                );
                active[w] = l;
                w += 1;
                continue;
            }
            if let Some(cap) = cfg.queue_capacity {
                // Peek: where would the head go next? The final hop
                // leaves the network, so only intermediate hops check.
                if head.hop + 2 < arena.route_len(head.route) {
                    let next_link = arena.route_links(head.route)[head.hop as usize + 1];
                    if store.occupancy_at(next_link, cycle) >= cap {
                        stats.backpressure_stalls += 1;
                        active[w] = l;
                        w += 1;
                        continue;
                    }
                }
            }
            let final_hop = head.hop + 2 == arena.route_len(head.route);
            let delay = match cfg.switching {
                Switching::StoreAndForward => busy,
                Switching::CutThrough => {
                    if final_hop {
                        busy
                    } else {
                        1
                    }
                }
            };
            let st = store.state_mut(l);
            let pkt = st.queue.pop_front().expect("active link has a packet");
            st.busy_until = cycle + busy;
            st.last_pop1 = cycle + 1;
            if st.queue.is_empty() {
                emptied.push(l);
            } else {
                active[w] = l;
                w += 1;
            }
            calendar.schedule(cycle + delay - 1, cycle, l, pkt);
            started_this_cycle += 1;
        }
        active.truncate(w);
        for l in emptied.drain(..) {
            store.release(l);
        }
        stats.link_transmissions += started_this_cycle;

        // Phase 3: land packets whose hop completes this cycle, in
        // canonical (start, link) order.
        calendar.drain_into(cycle, &mut landed);
        for entry in landed.drain(..) {
            let mut pkt = entry.pkt;
            pkt.hop += 1;
            let rlen = arena.route_len(pkt.route);
            if pkt.hop + 1 == rlen {
                stats.delivered += 1;
                let lat = cycle + 1 - pkt.injected_at;
                stats.latency_sum += lat;
                stats.latency_max = stats.latency_max.max(lat);
                stats.latency_hist.record(lat);
                stats.hops_sum += (rlen - 1) as u64;
                if let Some(records) = trace.as_deref_mut() {
                    records.push(DeliveryRecord {
                        id: pkt.id,
                        injected_at: pkt.injected_at,
                        delivered_at: cycle + 1,
                        route: arena
                            .route_nodes(pkt.route)
                            .iter()
                            .map(|&x| NodeId::from_raw(x as u128))
                            .collect(),
                    });
                }
            } else {
                let link = arena.route_links(pkt.route)[pkt.hop as usize];
                deposit(
                    pkt,
                    link,
                    cycle + 1,
                    last_cycle,
                    hybrid,
                    busy,
                    cfg.switching,
                    &mut store,
                    &arena,
                    &mut calendar,
                    &mut stats,
                    &mut pending,
                    &mut ghosts_outstanding,
                );
            }
        }

        // Time-series sampling: end-of-cycle snapshot. active ∪ pending
        // covers every non-empty queue (phase 3 lands into pending).
        // Sampling forces full fidelity, so queue depths are exact.
        if cfg.sample_every > 0 && cycle % cfg.sample_every == 0 {
            let mut queued_packets = 0u64;
            let mut max_queue_len = 0u64;
            for &l in active.iter().chain(pending.iter()) {
                let len = store.queue_len(l) as u64;
                queued_packets += len;
                max_queue_len = max_queue_len.max(len);
            }
            stats.samples.push(CycleSample {
                cycle,
                queued_packets,
                max_queue_len,
                transmissions: started_this_cycle,
            });
        }

        // Drain-phase early exit: with injection over, no queued packet
        // and nothing on the calendar, the remaining cycles are no-ops.
        // Skipping them is observationally invisible — unless sampling
        // is on, which would record the (all-zero) tail samples.
        if cycle >= cfg.cycles
            && cfg.sample_every == 0
            && active.is_empty()
            && pending.is_empty()
            && calendar.in_flight() == 0
        {
            break;
        }
    }

    // Ghosts pop strictly before the loop can end (their service cycle
    // is within the run and their link stays active until then), so the
    // correction below is defensive.
    debug_assert_eq!(ghosts_outstanding, 0, "ghost survived the run");
    stats.in_flight_at_end = active
        .iter()
        .chain(pending.iter())
        .map(|&l| store.queue_len(l) as u64)
        .sum::<u64>()
        + calendar.in_flight()
        - ghosts_outstanding;
    stats.peak_links_materialised = store.materialised();
    stats.links_total = n_links as u64;
    let routing = route_scratch.construction_metrics();
    stats.route_constructions = routing.construction.queries;
    stats.route_family_hits = routing.construction.family_hits;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::Hhc;

    #[test]
    fn arena_interns_and_dedups() {
        let h = Hhc::new(2).unwrap();
        let t = LinkTable::build(&h);
        let mut arena = RouteArena::new();
        assert!(arena.is_empty());
        let route: Vec<u32> = h
            .route(NodeId::from_raw(0), NodeId::from_raw(45))
            .unwrap()
            .iter()
            .map(|v| v.raw() as u32)
            .collect();
        let a = arena.intern(&route, &t);
        let b = arena.intern(&route, &t);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.route_nodes(a), &route[..]);
        assert_eq!(arena.route_len(a) as usize, route.len());
        let links = arena.route_links(a);
        assert_eq!(links.len(), route.len() - 1);
        for (i, w) in route.windows(2).enumerate() {
            assert_eq!(links[i], t.link_id(w[0], w[1]));
        }
        // A second, different route gets its own id and slices.
        let other: Vec<u32> = h
            .route(NodeId::from_raw(45), NodeId::from_raw(0))
            .unwrap()
            .iter()
            .map(|v| v.raw() as u32)
            .collect();
        let c = arena.intern(&other, &t);
        assert_ne!(a, c);
        assert_eq!(arena.route_nodes(c), &other[..]);
        assert_eq!(arena.route_links(c).len(), other.len() - 1);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn arena_shards_spread_and_stay_consistent() {
        let h = Hhc::new(2).unwrap();
        let t = LinkTable::build(&h);
        let mut arena = RouteArena::new();
        let mut routes = Vec::new();
        for dst in 1u32..40 {
            if let Ok(r) = h.route(NodeId::from_raw(0), NodeId::from_raw(dst as u128)) {
                routes.push(r.iter().map(|v| v.raw() as u32).collect::<Vec<u32>>());
            }
        }
        let ids: Vec<u32> = routes.iter().map(|r| arena.intern(r, &t)).collect();
        assert_eq!(arena.len(), routes.len());
        let shards: std::collections::HashSet<u32> = ids
            .iter()
            .map(|id| id & (ARENA_SHARDS as u32 - 1))
            .collect();
        assert!(shards.len() > 1, "all routes landed in one shard");
        for (r, &id) in routes.iter().zip(&ids) {
            assert_eq!(arena.route_nodes(id), &r[..]);
            assert_eq!(arena.route_len(id) as usize, r.len());
            let links = arena.route_links(id);
            for (i, w) in r.windows(2).enumerate() {
                assert_eq!(links[i], t.link_id(w[0], w[1]));
            }
        }
    }

    #[test]
    fn arena_keeps_colliding_routes_apart() {
        // Every route interned under one forced hash: each is stored,
        // reads back node for node and link for link, and interning it
        // again returns an id that reads back the same route, never a
        // different one.
        let h = Hhc::new(2).unwrap();
        let t = LinkTable::build(&h);
        let mut arena = RouteArena::new();
        let routes: Vec<Vec<u32>> = (0u32..64)
            .flat_map(|src| (0u32..64).map(move |dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .step_by(7)
            .map(|(src, dst)| {
                h.route(NodeId::from_raw(src as u128), NodeId::from_raw(dst as u128))
                    .unwrap()
                    .iter()
                    .map(|v| v.raw() as u32)
                    .collect()
            })
            .collect();
        assert!(routes.len() > 500);
        let check = |arena: &RouteArena, id: u32, r: &[u32]| {
            assert_eq!(arena.route_nodes(id), r);
            assert_eq!(arena.route_len(id) as usize, r.len());
            let links = arena.route_links(id);
            assert_eq!(links.len(), r.len() - 1);
            for (i, w) in r.windows(2).enumerate() {
                assert_eq!(links[i], t.link_id(w[0], w[1]));
            }
        };
        let ids: Vec<u32> = routes
            .iter()
            .map(|r| arena.intern_hashed(r, 0xC011_1DE5, &t))
            .collect();
        assert_eq!(arena.len(), routes.len(), "every colliding route is stored");
        for (r, &id) in routes.iter().zip(&ids) {
            check(&arena, id, r);
        }
        for r in &routes {
            let id = arena.intern_hashed(r, 0xC011_1DE5, &t);
            check(&arena, id, r);
        }
        // The first route of each shard holds that shard's index entry,
        // so it deduplicates.
        assert_eq!(arena.intern_hashed(&routes[0], 0xC011_1DE5, &t), ids[0]);
        for (r, &id) in routes.iter().zip(&ids) {
            check(&arena, id, r);
        }
    }

    fn pkt(id: u64) -> FlatPacket {
        FlatPacket {
            id,
            injected_at: 0,
            route: 0,
            hop: 0,
        }
    }

    #[test]
    fn calendar_slots_by_cycle_and_sorts_canonically() {
        let mut cal = EventCalendar::new(4);
        // Same landing cycle, scheduled out of canonical order.
        cal.schedule(10, 9, 7, pkt(1));
        cal.schedule(13, 13, 0, pkt(2));
        cal.schedule(10, 8, 3, pkt(3));
        cal.schedule(10, 9, 2, pkt(4));
        assert_eq!(cal.in_flight(), 4);
        let mut out = Vec::new();
        cal.drain_into(10, &mut out);
        // Canonical (start, link) order, not insertion order.
        assert_eq!(
            out.iter().map(|e| e.pkt.id).collect::<Vec<_>>(),
            vec![3, 4, 1]
        );
        assert_eq!(cal.in_flight(), 1);
        cal.drain_into(11, &mut out);
        assert!(out.is_empty());
        cal.drain_into(13, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(cal.in_flight(), 0);
    }

    #[test]
    fn zero_horizon_clamps_to_one() {
        let mut cal = EventCalendar::new(0);
        cal.schedule(7, 7, 0, pkt(0));
        let mut out = Vec::new();
        cal.drain_into(7, &mut out);
        assert_eq!(out.len(), 1);
    }

    /// `(slab length, free slots)` of a lazy store.
    fn slab_of(store: &LinkStore) -> (usize, usize) {
        match &store.slots {
            Slots::Lazy { slab, free, .. } => (slab.len(), free.len()),
            Slots::Eager(_) => unreachable!("a lazy store"),
        }
    }

    fn word_of(store: &LinkStore, link: u32) -> u64 {
        match &store.slots {
            Slots::Lazy { words, .. } => words[link as usize],
            Slots::Eager(_) => unreachable!("a lazy store"),
        }
    }

    #[test]
    fn lazy_store_counts_each_touched_link_once() {
        let mut store = LinkStore::new(10_000, LinkStoreMode::Lazy, 1);
        assert_eq!(store.materialised(), 0);
        store.commit(1234, 7);
        store.commit(1234, 9); // re-touch: not counted again
        assert_eq!(store.probe_len(9_999), 0); // a probe touches
        store.state_mut(5).queue.push_back(pkt(1));
        store.state_mut(5).queue.push_back(pkt(2));
        assert_eq!(store.probe_len(5), 2);
        assert_eq!(store.materialised(), 3);
        assert_eq!(store.idle_timing(1234), Some((10, 10)));
        assert_eq!(store.idle_timing(5), None);
        assert_eq!(word_of(&store, 9_999), TOUCHED);
        assert_eq!(slab_of(&store), (1, 0), "only the queued link has a slot");
    }

    #[test]
    fn lazy_store_peeks_never_touch_or_allocate() {
        let mut store = LinkStore::new(10_000, LinkStoreMode::Lazy, 3);
        store.commit(40, 11);
        for link in [0, 40, 41, 9_999] {
            assert_eq!(store.queue_len(link), 0);
            assert_eq!(store.occupancy_at(link, 12), 0);
            assert!(store.peek(link).is_none());
        }
        assert_eq!(store.idle_timing(41), Some((0, 0)), "never served");
        assert_eq!(store.idle_timing(40), Some((14, 12)));
        assert_eq!(store.materialised(), 1);
        assert_eq!(slab_of(&store), (0, 0));
        assert_eq!(word_of(&store, 41), 0);
    }

    #[test]
    fn lazy_store_returned_slot_restores_the_one_word_state() {
        let busy = 4;
        let mut store = LinkStore::new(100, LinkStoreMode::Lazy, busy);
        store.commit(17, 20); // busy through 24
        let st = store.state_mut(17);
        assert_eq!((st.busy_until, st.last_pop1), (24, 21), "derived on entry");
        st.queue.push_back(pkt(1));
        // Phase 2 pops the packet at cycle 24 and empties the queue.
        let st = store.state_mut(17);
        st.queue.pop_front();
        st.busy_until = 24 + busy;
        st.last_pop1 = 25;
        store.release(17);
        assert_eq!(word_of(&store, 17), TOUCHED | 25);
        assert_eq!(store.idle_timing(17), Some((28, 25)));
        assert_eq!(slab_of(&store), (1, 1));
        assert_eq!(store.materialised(), 1);
    }

    #[test]
    fn lazy_store_recycles_slots_through_the_free_list() {
        let mut store = LinkStore::new(100, LinkStoreMode::Lazy, 1);
        store.state_mut(3).queue.push_back(pkt(1));
        store.state_mut(8).queue.push_back(pkt(2));
        assert_eq!(slab_of(&store), (2, 0));
        for link in [3, 8] {
            // Phase 2 snapshots and pops at cycle 0.
            let st = store.state_mut(link);
            st.occ_cycle = 0;
            st.queue.pop_front();
            st.busy_until = 1;
            st.last_pop1 = 1;
            store.release(link);
        }
        assert_eq!(slab_of(&store), (2, 2));
        // A new queued link takes a recycled slot, its queue's buffer
        // kept and its snapshot invalidated.
        let st = store.state_mut(50);
        assert!(st.queue.is_empty() && st.queue.capacity() > 0);
        assert_eq!(st.occ_cycle, u64::MAX);
        st.queue.push_back(pkt(3));
        assert_eq!(slab_of(&store), (2, 1));
        assert_eq!(store.queue_len(50), 1);
        assert_eq!(store.materialised(), 3);
    }

    #[test]
    fn eager_store_materialises_everything_up_front() {
        let store = LinkStore::new(48, LinkStoreMode::Eager, 1);
        assert_eq!(store.materialised(), 48);
        assert!(store.peek(47).is_some());
    }

    #[test]
    fn sampler_rate_one_fires_every_index_and_zero_never() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dense = ArrivalSampler::new(1.0, &mut rng);
        for i in 0..100u128 {
            assert_eq!(dense.next_index(), i);
            dense.advance(&mut rng);
        }
        let mut off = ArrivalSampler::new(0.0, &mut rng);
        assert_eq!(off.next_index(), u128::MAX);
        off.advance(&mut rng);
        assert_eq!(off.next_index(), u128::MAX);
    }

    #[test]
    fn sampler_hit_rate_matches_bernoulli_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        let rate = 0.05;
        let mut s = ArrivalSampler::new(rate, &mut rng);
        let horizon: u128 = 400_000;
        let mut hits = 0u64;
        while s.next_index() < horizon {
            hits += 1;
            s.advance(&mut rng);
        }
        let expect = rate * horizon as f64;
        let sigma = (horizon as f64 * rate * (1.0 - rate)).sqrt();
        assert!(
            (hits as f64 - expect).abs() < 5.0 * sigma,
            "hits {hits} vs expected {expect}"
        );
    }
}
