//! Simulation statistics.

use obs::{json, Histogram};

/// One time-series sample, captured at the end of a cycle when
/// [`SimConfig::sample_every`](crate::SimConfig::sample_every) is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleSample {
    /// Cycle the sample was taken at.
    pub cycle: u64,
    /// Packets sitting in link queues at the end of the cycle.
    pub queued_packets: u64,
    /// Deepest single queue at the end of the cycle.
    pub max_queue_len: u64,
    /// Link transmissions started during the cycle (the numerator of
    /// instantaneous link utilisation).
    pub transmissions: u64,
}

/// Counters and aggregates collected by a simulation run.
///
/// Conservation invariant (checked in tests):
/// `injected == delivered + in_flight_at_end` and drops are counted
/// separately (a dropped packet never entered the network).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Packets that entered the network.
    pub injected: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets rejected at injection (unroutable under the strategy).
    pub dropped_unroutable: u64,
    /// Injection attempts whose destination was faulty (no strategy can
    /// deliver these; counted separately from routing failures).
    pub dropped_dst_faulty: u64,
    /// Injection attempts suppressed because the pattern mapped the
    /// source to itself.
    pub self_addressed: u64,
    /// Injections refused because the first queue was full
    /// (finite-buffer mode only).
    pub dropped_backpressure: u64,
    /// Link-cycles during which a head-of-line packet could not advance
    /// because its next queue was full (finite-buffer mode only).
    pub backpressure_stalls: u64,
    /// Packets still queued when the run ended.
    pub in_flight_at_end: u64,
    /// Sum of delivered-packet latencies (cycles).
    pub latency_sum: u64,
    /// Largest delivered-packet latency.
    pub latency_max: u64,
    /// Sum over delivered packets of their route length (hops).
    pub hops_sum: u64,
    /// Total link transmissions performed (one per packet per hop).
    pub link_transmissions: u64,
    /// Largest queue depth observed on any directed link.
    pub max_queue_len: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Nodes in the network.
    pub nodes: u64,
    /// Disjoint-route constructions performed by the run's route
    /// scratch. Zero when the strategy never builds route families
    /// (single-path / Valiant) or the network routes outside the
    /// construction engine (the plain cube).
    pub route_constructions: u64,
    /// Subset of [`route_constructions`](Self::route_constructions)
    /// answered by replaying the translation-canonical family cache
    /// instead of re-running fans and max-flows. Routes are identical
    /// either way; this only measures construction effort saved.
    pub route_family_hits: u64,
    /// Directed links the engine's link store materialised: with the
    /// lazy store, the distinct links the run touched (every link a
    /// packet was deposited onto, plus every first link injection probed
    /// for backpressure); with the eager store, the full link count.
    /// Always ≤ [`links_total`](Self::links_total).
    pub peak_links_materialised: u64,
    /// Directed links in the simulated topology.
    pub links_total: u64,
    /// Latency distribution of delivered packets (power-of-two buckets;
    /// always populated — recording a `u64` into a fixed array is cheap).
    pub latency_hist: Histogram,
    /// Per-cycle time series; empty unless
    /// [`SimConfig::sample_every`](crate::SimConfig::sample_every) > 0.
    pub samples: Vec<CycleSample>,
}

impl SimStats {
    /// Mean latency of delivered packets, or `None` if nothing delivered.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum as f64 / self.delivered as f64)
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.hops_sum as f64 / self.delivered as f64)
    }

    /// Mean link utilisation: transmissions per link per cycle, over the
    /// [`links_total`](Self::links_total) directed links the engine
    /// recorded for the simulated topology (an HHC has `2^n · (m+1)`).
    pub fn link_utilization(&self) -> f64 {
        if self.cycles == 0 || self.links_total == 0 {
            0.0
        } else {
            self.link_transmissions as f64 / (self.cycles as f64 * self.links_total as f64)
        }
    }

    /// Accepted throughput in packets/node/cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            0.0
        } else {
            self.delivered as f64 / (self.cycles as f64 * self.nodes as f64)
        }
    }

    /// Fraction of routable injection attempts that were delivered by the
    /// end of the run (< 1 under saturation or when the run ends early).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Approximate p99 latency (bucket upper bound, clamped to the true
    /// max), or `None` if nothing was delivered.
    pub fn latency_p99(&self) -> Option<u64> {
        self.latency_hist.quantile(0.99)
    }

    /// Fraction of disjoint-route constructions served from the family
    /// cache, or `None` when the run built no route families.
    pub fn route_cache_hit_rate(&self) -> Option<f64> {
        (self.route_constructions > 0)
            .then(|| self.route_family_hits as f64 / self.route_constructions as f64)
    }

    /// Estimated engine memory per node (bytes), priced at a link layout
    /// the engine no longer has: 8 bytes of CSR link table per link, plus
    /// 80 per materialised link (a 72-byte slab entry and its page-map
    /// share), amortised over the node count. The figure is frozen
    /// because it is inside every `flat_equivalence` golden hash; today
    /// the lazy store keeps one 8-byte word per link and a slab slot only
    /// per queued link. A derived observability figure, not an RSS
    /// accounting.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        let table = self.links_total * 8;
        let store = self.peak_links_materialised * 80;
        (table + store) as f64 / self.nodes as f64
    }

    /// Merges another run's statistics into `self` — the accumulation
    /// step of a replication sweep ([`crate::Simulator::run_many`]).
    /// Counters add; maxima (`latency_max`, `max_queue_len`) take the
    /// max; `cycles` add, so [`SimStats::throughput`] becomes the
    /// delivered-per-cycle average over the combined simulated time;
    /// `nodes` takes the max (replications share one network); the
    /// latency histogram merges bucket-wise and time-series samples
    /// concatenate in merge order. Merging is associative, and folding
    /// runs in a fixed order makes the result reproducible.
    pub fn merge(&mut self, other: &SimStats) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dropped_unroutable += other.dropped_unroutable;
        self.dropped_dst_faulty += other.dropped_dst_faulty;
        self.self_addressed += other.self_addressed;
        self.dropped_backpressure += other.dropped_backpressure;
        self.backpressure_stalls += other.backpressure_stalls;
        self.in_flight_at_end += other.in_flight_at_end;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.hops_sum += other.hops_sum;
        self.link_transmissions += other.link_transmissions;
        self.max_queue_len = self.max_queue_len.max(other.max_queue_len);
        self.cycles += other.cycles;
        self.nodes = self.nodes.max(other.nodes);
        self.route_constructions += other.route_constructions;
        self.route_family_hits += other.route_family_hits;
        // Replications run sequentially in memory terms: the peak is the
        // largest single run's footprint, and the topology is shared.
        self.peak_links_materialised = self
            .peak_links_materialised
            .max(other.peak_links_materialised);
        self.links_total = self.links_total.max(other.links_total);
        self.latency_hist.merge(&other.latency_hist);
        self.samples.extend_from_slice(&other.samples);
    }

    /// Serialises the full stats — counters, derived rates, the latency
    /// histogram and the sampled time series — as one compact JSON object.
    /// The headline `link_utilization` uses the engine-recorded
    /// [`links_total`](Self::links_total); `directed_links` only scales
    /// the per-sample utilisation series (pass the network's
    /// directed-link count; 0 yields zero utilisation).
    pub fn to_json(&self, directed_links: u64) -> String {
        let mut o = json::Obj::new();
        o.u64("injected", self.injected);
        o.u64("delivered", self.delivered);
        o.u64("dropped_unroutable", self.dropped_unroutable);
        o.u64("dropped_dst_faulty", self.dropped_dst_faulty);
        o.u64("dropped_backpressure", self.dropped_backpressure);
        o.u64("backpressure_stalls", self.backpressure_stalls);
        o.u64("self_addressed", self.self_addressed);
        o.u64("in_flight_at_end", self.in_flight_at_end);
        o.u64("latency_max", self.latency_max);
        o.u64("link_transmissions", self.link_transmissions);
        o.u64("max_queue_len", self.max_queue_len);
        o.u64("cycles", self.cycles);
        o.u64("nodes", self.nodes);
        o.u64("route_constructions", self.route_constructions);
        o.u64("route_family_hits", self.route_family_hits);
        o.u64("peak_links_materialised", self.peak_links_materialised);
        o.u64("links_total", self.links_total);
        o.f64("bytes_per_node", self.bytes_per_node());
        // NaN degrades to JSON null, keeping the key set stable.
        o.f64("mean_latency", self.mean_latency().unwrap_or(f64::NAN));
        o.f64("mean_hops", self.mean_hops().unwrap_or(f64::NAN));
        o.f64(
            "latency_p99",
            self.latency_p99().map_or(f64::NAN, |v| v as f64),
        );
        o.f64("throughput", self.throughput());
        o.f64("delivery_ratio", self.delivery_ratio());
        o.f64(
            "route_cache_hit_rate",
            self.route_cache_hit_rate().unwrap_or(f64::NAN),
        );
        o.f64("link_utilization", self.link_utilization());
        o.raw("latency_hist", &self.latency_hist.to_json());
        let cycles: Vec<u64> = self.samples.iter().map(|s| s.cycle).collect();
        let depth: Vec<u64> = self.samples.iter().map(|s| s.queued_packets).collect();
        let qmax: Vec<u64> = self.samples.iter().map(|s| s.max_queue_len).collect();
        let util: Vec<f64> = self
            .samples
            .iter()
            .map(|s| {
                if directed_links == 0 {
                    0.0
                } else {
                    s.transmissions as f64 / directed_links as f64
                }
            })
            .collect();
        o.raw("sample_cycles", &json::u64_array(&cycles));
        o.raw("queue_depth", &json::u64_array(&depth));
        o.raw("queue_max", &json::u64_array(&qmax));
        o.raw("link_utilization_series", &json::f64_array(&util));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = SimStats {
            injected: 10,
            delivered: 8,
            latency_sum: 40,
            latency_max: 9,
            hops_sum: 24,
            cycles: 100,
            nodes: 4,
            ..Default::default()
        };
        assert_eq!(s.mean_latency(), Some(5.0));
        assert_eq!(s.mean_hops(), Some(3.0));
        assert!((s.throughput() - 0.02).abs() < 1e-12);
        assert!((s.delivery_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let s = SimStats::default();
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.mean_hops(), None);
        assert_eq!(s.latency_p99(), None);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.delivery_ratio(), 1.0);
        // Even the empty run serialises: every numeric key present,
        // undefined means degrade to null.
        let j = s.to_json(0);
        assert!(j.contains("\"delivered\":0"));
        assert!(j.contains("\"mean_latency\":null"));
        assert!(j.contains("\"latency_hist\":{"));
        assert!(j.contains("\"queue_depth\":[]"));
    }

    #[test]
    fn json_exports_histogram_and_series() {
        let mut s = SimStats {
            injected: 3,
            delivered: 3,
            latency_sum: 12,
            latency_max: 6,
            cycles: 10,
            nodes: 4,
            link_transmissions: 5,
            ..Default::default()
        };
        for lat in [2u64, 4, 6] {
            s.latency_hist.record(lat);
        }
        s.samples.push(CycleSample {
            cycle: 0,
            queued_packets: 2,
            max_queue_len: 2,
            transmissions: 1,
        });
        s.samples.push(CycleSample {
            cycle: 5,
            queued_packets: 4,
            max_queue_len: 3,
            transmissions: 2,
        });
        assert_eq!(s.latency_p99(), Some(6));
        let j = s.to_json(10);
        assert!(j.contains("\"sample_cycles\":[0,5]"));
        assert!(j.contains("\"queue_depth\":[2,4]"));
        assert!(j.contains("\"queue_max\":[2,3]"));
        assert!(j.contains("\"link_utilization_series\":[0.1,0.2]"));
        assert!(j.contains("\"count\":3"));
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats {
            injected: 10 + seed,
            delivered: 8 + seed,
            dropped_unroutable: 1,
            self_addressed: 2,
            in_flight_at_end: 2,
            latency_sum: 40 * (seed + 1),
            latency_max: 9 + seed,
            hops_sum: 24,
            link_transmissions: 30,
            max_queue_len: 3 + seed,
            cycles: 100,
            nodes: 64,
            route_constructions: 5,
            route_family_hits: 3,
            ..Default::default()
        };
        for lat in [2u64, 4, 9 + seed] {
            s.latency_hist.record(lat);
        }
        s.samples.push(CycleSample {
            cycle: seed,
            queued_packets: 1,
            max_queue_len: 1,
            transmissions: 1,
        });
        s
    }

    #[test]
    fn merge_adds_counters_and_maxes_extrema() {
        let (a, b) = (sample_stats(0), sample_stats(5));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.injected, a.injected + b.injected);
        assert_eq!(m.delivered, a.delivered + b.delivered);
        assert_eq!(m.latency_sum, a.latency_sum + b.latency_sum);
        assert_eq!(m.cycles, a.cycles + b.cycles);
        assert_eq!(m.latency_max, b.latency_max);
        assert_eq!(m.max_queue_len, b.max_queue_len);
        assert_eq!(m.nodes, 64);
        assert_eq!(m.latency_hist.count(), 6);
        assert_eq!(
            m.latency_hist.sum(),
            a.latency_hist.sum() + b.latency_hist.sum()
        );
        assert_eq!(m.samples.len(), 2);
        // Throughput of equal-weight replications is their average.
        let avg = (a.throughput() + b.throughput()) / 2.0;
        assert!((m.throughput() - avg).abs() < 1e-12);
    }

    #[test]
    fn merge_into_default_is_identity() {
        let a = sample_stats(3);
        let mut m = SimStats::default();
        m.merge(&a);
        assert_eq!(m, a);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn memory_estimates_and_merge_take_max() {
        let a = SimStats {
            nodes: 64,
            peak_links_materialised: 10,
            links_total: 192,
            ..Default::default()
        };
        assert!(a.bytes_per_node() > 0.0);
        // More materialised slots → strictly more bytes per node.
        let b = SimStats {
            peak_links_materialised: 40,
            ..a.clone()
        };
        assert!(b.bytes_per_node() > a.bytes_per_node());
        assert_eq!(SimStats::default().bytes_per_node(), 0.0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.peak_links_materialised, 40);
        assert_eq!(m.links_total, 192);
        let j = b.to_json(192);
        assert!(j.contains("\"peak_links_materialised\":40"));
        assert!(j.contains("\"links_total\":192"));
        assert!(j.contains("\"bytes_per_node\":"));
    }

    #[test]
    fn link_utilization_edges() {
        let mut s = SimStats {
            link_transmissions: 50,
            cycles: 100,
            nodes: 4,
            links_total: 10,
            ..Default::default()
        };
        assert!((s.link_utilization() - 0.05).abs() < 1e-12);
        s.links_total = 0;
        assert_eq!(s.link_utilization(), 0.0);
        let z = SimStats::default();
        assert_eq!(z.link_utilization(), 0.0);
    }
}
