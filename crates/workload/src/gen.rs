//! Multicast workload generation (§7.1/§7.2).
//!
//! Static experiments draw `k` destination addresses uniformly from the
//! node space exactly as the dissertation does ("a random number
//! generator generates k integers within the range [0,1023]") — duplicate
//! draws and draws equal to the source collapse, mirroring the paper's
//! setup. Dynamic experiments additionally draw exponential interarrival
//! times per node, merged into one injection stream by [`TrafficSource`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcast_core::model::MulticastSet;
use mcast_sim::engine::Time;
use mcast_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dynamic::TrafficPattern;

/// A seeded generator of uniform multicast sets over `num_nodes`.
#[derive(Debug, Clone)]
pub struct MulticastGen {
    rng: StdRng,
    num_nodes: usize,
    /// Membership of the destinations being drawn by
    /// [`MulticastGen::multicast_distinct`], indexed by node: all `false`
    /// between calls, and empty until the first call.
    drawn: Vec<bool>,
}

impl MulticastGen {
    /// Creates a generator with an explicit seed (all experiments are
    /// reproducible from their seeds).
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        MulticastGen {
            rng: StdRng::seed_from_u64(seed),
            num_nodes,
            drawn: Vec::new(),
        }
    }

    /// Draws a uniform source node.
    pub fn source(&mut self) -> NodeId {
        self.rng.gen_range(0..self.num_nodes)
    }

    /// Draws `k` destination addresses uniformly (with replacement, as in
    /// §7.1) for the given source; the returned set collapses duplicates.
    pub fn multicast(&mut self, source: NodeId, k: usize) -> MulticastSet {
        let dests: Vec<NodeId> = (0..k)
            .map(|_| self.rng.gen_range(0..self.num_nodes))
            .collect();
        MulticastSet::new(source, dests)
    }

    /// Draws `k` *distinct* destinations different from the source —
    /// used by the dynamic experiments, where `k` is the exact
    /// destination count per message. Rejected draws (the source, or a
    /// node already drawn) are redrawn; membership is a table lookup, so
    /// a call costs O(k) expected time for `k` well below `num_nodes`.
    pub fn multicast_distinct(&mut self, source: NodeId, k: usize) -> MulticastSet {
        assert!(k < self.num_nodes, "cannot pick {k} distinct destinations");
        if self.drawn.is_empty() {
            self.drawn = vec![false; self.num_nodes];
        }
        let mut dests = Vec::with_capacity(k);
        while dests.len() < k {
            let d = self.rng.gen_range(0..self.num_nodes);
            if d != source && !self.drawn[d] {
                self.drawn[d] = true;
                dests.push(d);
            }
        }
        for &d in &dests {
            debug_assert!(d != source && self.drawn[d], "destination {d} drawn twice");
            self.drawn[d] = false;
        }
        // Distinct and source-free by construction: nothing for
        // `MulticastSet::new` to collapse.
        MulticastSet {
            source,
            destinations: dests,
        }
    }

    /// Draws an exponential interarrival time with the given mean (ns),
    /// by inversion. Never returns 0.
    pub fn exponential_ns(&mut self, mean_ns: f64) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-mean_ns * u.ln()).ceil().max(1.0) as u64
    }
}

/// Why a [`TrafficSource`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficError {
    /// The topology has fewer than two nodes, so no multicast has a
    /// destination to address.
    TooFewNodes(usize),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::TooFewNodes(n) => write!(
                f,
                "multicast traffic needs at least 2 nodes, the topology has {n}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// The §7.2 open-loop load: one Poisson multicast generator per node,
/// merged into a single time-ordered stream of `(time, multicast)`
/// injections. Ties in time go to the lowest node id.
///
/// Every random number comes from one seeded [`MulticastGen`] in a fixed
/// order: the `n` initial interarrivals (node 0 first), then for each
/// injection its destination set followed by the firing node's next
/// interarrival. The pending arrivals sit in a min-heap keyed by
/// `(time, node)`, so picking the next firing node costs O(log n)
/// rather than a scan over all `n` generators.
///
/// The iterator never ends; bound it with `take` or a stop rule.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    gen: MulticastGen,
    arrivals: BinaryHeap<Reverse<(Time, NodeId)>>,
    mean_interarrival_ns: f64,
    k: usize,
    pattern: TrafficPattern,
    injected: u64,
}

impl TrafficSource {
    /// A source over `num_nodes` nodes whose generators fire every
    /// `mean_interarrival_ns` on average, each multicast addressing
    /// `destinations` distinct nodes (clamped to `num_nodes - 1`) and
    /// then rewritten by `pattern`.
    pub fn new(
        num_nodes: usize,
        mean_interarrival_ns: f64,
        destinations: usize,
        pattern: TrafficPattern,
        seed: u64,
    ) -> Result<TrafficSource, TrafficError> {
        if num_nodes < 2 {
            return Err(TrafficError::TooFewNodes(num_nodes));
        }
        let mut gen = MulticastGen::new(num_nodes, seed);
        let first: Vec<_> = (0..num_nodes)
            .map(|node| Reverse((gen.exponential_ns(mean_interarrival_ns), node)))
            .collect();
        Ok(TrafficSource {
            gen,
            arrivals: BinaryHeap::from(first),
            mean_interarrival_ns,
            k: destinations.min(num_nodes - 1),
            pattern,
            injected: 0,
        })
    }

    /// The time of the next injection, without drawing it.
    pub fn peek_time(&self) -> Time {
        self.arrivals.peek().map_or(Time::MAX, |Reverse((t, _))| *t)
    }

    /// Injections drawn so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl Iterator for TrafficSource {
    type Item = (Time, MulticastSet);

    fn next(&mut self) -> Option<(Time, MulticastSet)> {
        let mut top = self.arrivals.peek_mut()?;
        let Reverse((t, node)) = *top;
        let mc = self.gen.multicast_distinct(node, self.k);
        let mc = self.pattern.apply(self.injected, mc);
        self.injected += 1;
        let gap = self.gen.exponential_ns(self.mean_interarrival_ns);
        *top = Reverse((t.saturating_add(gap), node));
        Some((t, mc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_source_rejects_fewer_than_two_nodes() {
        for n in [0, 1] {
            let err = TrafficSource::new(n, 1000.0, 3, TrafficPattern::Uniform, 1).unwrap_err();
            assert_eq!(err, TrafficError::TooFewNodes(n));
        }
        let mut two = TrafficSource::new(2, 1000.0, 3, TrafficPattern::Uniform, 1).unwrap();
        let (_, mc) = two.next().unwrap();
        assert_eq!(mc.k(), 1, "k clamps to num_nodes - 1");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = MulticastGen::new(64, 7);
        let mut b = MulticastGen::new(64, 7);
        for _ in 0..10 {
            let s = a.source();
            assert_eq!(s, b.source());
            assert_eq!(a.multicast(s, 5), b.multicast(s, 5));
        }
    }

    #[test]
    fn distinct_destinations_are_distinct() {
        let mut g = MulticastGen::new(64, 3);
        for _ in 0..50 {
            let mc = g.multicast_distinct(10, 12);
            assert_eq!(mc.k(), 12);
            assert!(!mc.destinations.contains(&10));
        }
    }

    #[test]
    fn with_replacement_can_collapse() {
        // k = 200 draws over 64 nodes must collapse well below 200.
        let mut g = MulticastGen::new(64, 11);
        let mc = g.multicast(0, 200);
        assert!(mc.k() < 64);
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut g = MulticastGen::new(4, 5);
        let n = 20_000;
        let mean = 1000.0;
        let total: u64 = (0..n).map(|_| g.exponential_ns(mean)).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - mean).abs() < mean * 0.05, "observed {observed}");
    }
}
