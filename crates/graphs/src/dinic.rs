//! Dinic's maximum-flow algorithm.
//!
//! The exact engine behind [`crate::vertex_disjoint`]: Menger-optimal
//! internally vertex-disjoint path sets on materialised networks (the
//! comparator in Table T3). The son-cube fans of `hypercube::fan` run
//! their own word-parallel solver and report its effort as
//! [`DinicStats`].
//!
//! Complexity is `O(V^2 E)` in general and `O(E sqrt(V))` on unit-capacity
//! networks, which is all this suite ever feeds it.

/// Arc index into the flat arc array.
pub type ArcId = u32;

/// A directed arc with residual bookkeeping. `to` is the head,
/// `cap` the remaining capacity, `rev` the index of the reverse arc.
#[derive(Clone, Debug)]
struct Arc {
    to: u32,
    cap: u32,
    rev: ArcId,
}

/// Effort counters accumulated by a [`Dinic`] instance across solves
/// (also the effort vocabulary of `hypercube::fan`'s solver).
///
/// Counters are monotone over the instance's life. Incrementing
/// them is a plain `u64` add on paths that already do comparable work,
/// so they stay unconditionally enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DinicStats {
    /// Level-graph BFS passes (one per Dinic phase; one per augmenting
    /// path search in the fan solver).
    pub bfs_passes: u64,
    /// Augmenting paths pushed (each carries ≥ 1 unit of flow).
    pub augmentations: u64,
    /// Arc mutations: one per augmenting-path arc, plus, in the fan
    /// solver, one per seeded unit's arc and per capacity override.
    pub arcs_touched: u64,
    /// Lazy CSR flattens triggered by solving after edge insertion.
    pub csr_rebuilds: u64,
}

impl DinicStats {
    /// Element-wise accumulation (for combining several instances).
    pub fn merge(&mut self, other: &DinicStats) {
        self.bfs_passes += other.bfs_passes;
        self.augmentations += other.augmentations;
        self.arcs_touched += other.arcs_touched;
        self.csr_rebuilds += other.csr_rebuilds;
    }
}

/// A Dinic max-flow instance over a directed graph with integer capacities.
pub struct Dinic {
    /// Per-node outgoing arc ids (build-time shape; solves read the CSR).
    adj: Vec<Vec<ArcId>>,
    arcs: Vec<Arc>,
    /// Flattened adjacency: node `v`'s arc ids occupy
    /// `csr_arcs[csr_start[v] .. csr_start[v + 1]]`. Rebuilt lazily when
    /// arcs were added since the last solve.
    csr_arcs: Vec<ArcId>,
    csr_start: Vec<u32>,
    csr_dirty: bool,
    /// BFS level of each node in the current phase.
    level: Vec<u32>,
    /// DFS cursor per node (current-arc optimisation), as an absolute
    /// index into `csr_arcs`.
    iter: Vec<u32>,
    /// Reused BFS queue (plain Vec + head index; no per-phase allocation).
    queue: Vec<u32>,
    /// Monotone effort counters; see [`DinicStats`].
    stats: DinicStats,
}

const NO_LEVEL: u32 = u32::MAX;

impl Dinic {
    /// Creates an empty flow network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Dinic {
            adj: vec![Vec::new(); n],
            arcs: Vec::new(),
            csr_arcs: Vec::new(),
            csr_start: Vec::new(),
            csr_dirty: true,
            level: vec![NO_LEVEL; n],
            iter: vec![0; n],
            queue: Vec::with_capacity(n),
            stats: DinicStats::default(),
        }
    }

    /// Effort counters accumulated since construction.
    pub fn stats(&self) -> DinicStats {
        self.stats
    }

    /// Rebuilds the flat adjacency from `adj`.
    fn rebuild_csr(&mut self) {
        self.csr_arcs.clear();
        self.csr_start.clear();
        let mut acc = 0u32;
        for out in &self.adj {
            self.csr_start.push(acc);
            acc += out.len() as u32;
            self.csr_arcs.extend_from_slice(out);
        }
        self.csr_start.push(acc);
        self.csr_dirty = false;
        self.stats.csr_rebuilds += 1;
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed arc `from → to` with capacity `cap`.
    /// Returns the arc id, usable with [`Dinic::flow_on`] after solving.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this network.
    pub fn add_edge(&mut self, from: u32, to: u32, cap: u32) -> ArcId {
        assert!((from as usize) < self.adj.len() && (to as usize) < self.adj.len());
        let a = self.arcs.len() as ArcId;
        let b = a + 1;
        self.arcs.push(Arc { to, cap, rev: b });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            rev: a,
        });
        self.adj[from as usize].push(a);
        self.adj[to as usize].push(b);
        self.csr_dirty = true;
        a
    }

    /// Flow currently pushed through arc `id` (reverse arc's residual).
    pub fn flow_on(&self, id: ArcId) -> u32 {
        let rev = self.arcs[id as usize].rev;
        self.arcs[rev as usize].cap
    }

    fn bfs_levels(&mut self, s: u32, t: u32) -> bool {
        self.stats.bfs_passes += 1;
        self.level.fill(NO_LEVEL);
        self.level[s as usize] = 0;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        while head < self.queue.len() {
            // Once `t` is levelled, every node on a shortest augmenting
            // path is already labelled (BFS labels a whole level before
            // popping any of it), so deeper exploration is pure waste.
            if self.level[t as usize] != NO_LEVEL {
                break;
            }
            let v = self.queue[head];
            head += 1;
            let (a, b) = (
                self.csr_start[v as usize] as usize,
                self.csr_start[v as usize + 1] as usize,
            );
            for &aid in &self.csr_arcs[a..b] {
                let arc = &self.arcs[aid as usize];
                if arc.cap > 0 && self.level[arc.to as usize] == NO_LEVEL {
                    self.level[arc.to as usize] = self.level[v as usize] + 1;
                    self.queue.push(arc.to);
                }
            }
        }
        self.level[t as usize] != NO_LEVEL
    }

    fn dfs_augment(&mut self, v: u32, t: u32, pushed: u32) -> u32 {
        if v == t {
            return pushed;
        }
        while self.iter[v as usize] < self.csr_start[v as usize + 1] {
            let aid = self.csr_arcs[self.iter[v as usize] as usize];
            let (to, cap) = {
                let arc = &self.arcs[aid as usize];
                (arc.to, arc.cap)
            };
            if cap > 0 && self.level[to as usize] == self.level[v as usize] + 1 {
                let got = self.dfs_augment(to, t, pushed.min(cap));
                if got > 0 {
                    self.arcs[aid as usize].cap -= got;
                    let rev = self.arcs[aid as usize].rev;
                    self.arcs[rev as usize].cap += got;
                    self.stats.arcs_touched += 1;
                    return got;
                }
            }
            self.iter[v as usize] += 1;
        }
        0
    }

    /// Computes the maximum `s → t` flow. May be called once per instance
    /// (subsequent calls continue from the residual network, which is only
    /// meaningful if `s`/`t` are unchanged).
    pub fn max_flow(&mut self, s: u32, t: u32) -> u32 {
        self.max_flow_limited(s, t, u32::MAX)
    }

    /// [`Dinic::max_flow`], but stops as soon as `limit` units have been
    /// pushed. When the caller knows the max-flow value in advance,
    /// passing it skips the final phase — a full-graph BFS plus an exhausted DFS
    /// whose only job is proving no augmenting path remains.
    pub fn max_flow_limited(&mut self, s: u32, t: u32, limit: u32) -> u32 {
        assert_ne!(s, t, "source and sink must differ");
        if self.csr_dirty {
            self.rebuild_csr();
        }
        let n = self.adj.len();
        let mut total = 0u32;
        while total < limit && self.bfs_levels(s, t) {
            self.iter.copy_from_slice(&self.csr_start[..n]);
            while total < limit {
                let pushed = self.dfs_augment(s, t, limit - total);
                if pushed == 0 {
                    break;
                }
                self.stats.augmentations += 1;
                total += pushed;
            }
        }
        total
    }

    /// All arcs leaving `v` that carry positive flow, as `(arc_id, head)`.
    pub fn flow_arcs_from(&self, v: u32) -> impl Iterator<Item = (ArcId, u32)> + '_ {
        self.adj[v as usize]
            .iter()
            .copied()
            // Even arc ids are forward arcs; odd ids are residual reverses.
            .filter(|&aid| aid % 2 == 0)
            .filter(move |&aid| self.flow_on(aid) > 0)
            .map(move |aid| (aid, self.arcs[aid as usize].to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut d = Dinic::new(2);
        let a = d.add_edge(0, 1, 7);
        assert_eq!(d.max_flow(0, 1), 7);
        assert_eq!(d.flow_on(a), 7);
    }

    #[test]
    fn series_bottleneck() {
        let mut d = Dinic::new(3);
        d.add_edge(0, 1, 5);
        d.add_edge(1, 2, 3);
        assert_eq!(d.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 2);
        d.add_edge(1, 3, 2);
        d.add_edge(0, 2, 3);
        d.add_edge(2, 3, 3);
        assert_eq!(d.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure: max flow 23.
        let mut d = Dinic::new(6);
        d.add_edge(0, 1, 16);
        d.add_edge(0, 2, 13);
        d.add_edge(1, 2, 10);
        d.add_edge(2, 1, 4);
        d.add_edge(1, 3, 12);
        d.add_edge(3, 2, 9);
        d.add_edge(2, 4, 14);
        d.add_edge(4, 3, 7);
        d.add_edge(3, 5, 20);
        d.add_edge(4, 5, 4);
        assert_eq!(d.max_flow(0, 5), 23);
    }

    #[test]
    fn rerouting_through_residual_arcs() {
        // Flow must back out of a greedy first choice to reach optimum.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 1);
        d.add_edge(0, 2, 1);
        d.add_edge(1, 2, 1);
        d.add_edge(1, 3, 1);
        d.add_edge(2, 3, 1);
        assert_eq!(d.max_flow(0, 3), 2);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 9);
        d.add_edge(2, 3, 9);
        assert_eq!(d.max_flow(0, 3), 0);
    }

    #[test]
    fn flow_conservation_holds() {
        let mut d = Dinic::new(5);
        d.add_edge(0, 1, 4);
        d.add_edge(0, 2, 2);
        d.add_edge(1, 2, 3);
        d.add_edge(1, 3, 1);
        d.add_edge(2, 4, 5);
        d.add_edge(3, 4, 2);
        let f = d.max_flow(0, 4);
        assert_eq!(f, 6);
        // Net outflow of interior nodes must be zero.
        for v in 1..4u32 {
            let out: u32 = d.flow_arcs_from(v).map(|(a, _)| d.flow_on(a)).sum();
            let inflow: u32 = (0..5u32)
                .flat_map(|u| d.flow_arcs_from(u).collect::<Vec<_>>())
                .filter(|&(_, to)| to == v)
                .map(|(a, _)| d.flow_on(a))
                .sum();
            assert_eq!(out, inflow, "conservation violated at {v}");
        }
    }

    #[test]
    fn limited_flow_stops_at_limit() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 2);
        d.add_edge(1, 3, 2);
        d.add_edge(0, 2, 3);
        d.add_edge(2, 3, 3);
        assert_eq!(d.max_flow_limited(0, 3, 4), 4);
        // The residual network still admits the remaining unit.
        assert_eq!(d.max_flow(0, 3), 1);
    }

    #[test]
    fn limit_at_max_flow_matches_unlimited() {
        let build = || {
            let mut d = Dinic::new(6);
            d.add_edge(0, 1, 16);
            d.add_edge(0, 2, 13);
            d.add_edge(1, 2, 10);
            d.add_edge(2, 1, 4);
            d.add_edge(1, 3, 12);
            d.add_edge(3, 2, 9);
            d.add_edge(2, 4, 14);
            d.add_edge(4, 3, 7);
            d.add_edge(3, 5, 20);
            d.add_edge(4, 5, 4);
            d
        };
        let mut full = build();
        assert_eq!(full.max_flow(0, 5), 23);
        let mut capped = build();
        assert_eq!(capped.max_flow_limited(0, 5, 23), 23);
        let mut over = build();
        // A limit above the max flow degenerates to the plain solve.
        assert_eq!(over.max_flow_limited(0, 5, 99), 23);
    }

    #[test]
    fn stats_track_solver_effort() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 2);
        d.add_edge(1, 3, 2);
        d.add_edge(0, 2, 1);
        d.add_edge(2, 3, 1);
        assert_eq!(d.stats(), DinicStats::default());
        assert_eq!(d.max_flow(0, 3), 3);
        let s = d.stats();
        assert_eq!(s.csr_rebuilds, 1);
        // 3 units over paths of length 2 ⇒ ≥ 2 augmentations, ≥ 4 arc
        // mutations; the final BFS proves no path remains.
        assert!(s.bfs_passes >= 2, "bfs_passes = {}", s.bfs_passes);
        assert!(s.augmentations >= 2);
        assert!(s.arcs_touched >= 4);
    }

    #[test]
    fn unit_capacity_matches_edge_connectivity_of_cycle() {
        // 6-cycle: exactly 2 edge-disjoint paths between opposite nodes.
        let n = 6u32;
        let mut d = Dinic::new(n as usize);
        for v in 0..n {
            let w = (v + 1) % n;
            d.add_edge(v, w, 1);
            d.add_edge(w, v, 1);
        }
        assert_eq!(d.max_flow(0, 3), 2);
    }
}
