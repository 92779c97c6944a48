//! `TrafficSource` is a drop-in replacement for the per-node generator
//! scan the dynamic runners and the `trace`/`metrics` commands used to
//! carry: it must yield exactly the same `(time, multicast)` stream. The
//! reference below is that scan, kept verbatim: per-node next-arrival
//! times in a `Vec`, the earliest `(time, node)` found by a linear
//! `min_by_key`, the destination draw, then the node's next interarrival.
//! The pattern rewrite draws no random numbers, so one scan per seed
//! serves all three patterns (`TrafficPattern::apply` on its output is
//! what the old loop computed).
//!
//! The scan draws through [`ReferenceGen`], a copy of `MulticastGen`
//! that keeps the old O(k²) distinct-destination draw, so the same
//! tests also hold the table-based draw to it.

use mcast_core::model::MulticastSet;
use mcast_sim::registry::TopoSpec;
use mcast_workload::{MulticastGen, TrafficPattern, TrafficSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAIRS: usize = 5_000;

/// `MulticastGen` as it was before its membership table: the same seeded
/// RNG and draw order, with a linear `contains` per draw and a
/// `MulticastSet::new` pass over the result.
struct ReferenceGen {
    rng: StdRng,
    num_nodes: usize,
}

impl ReferenceGen {
    fn new(num_nodes: usize, seed: u64) -> Self {
        ReferenceGen {
            rng: StdRng::seed_from_u64(seed),
            num_nodes,
        }
    }

    fn source(&mut self) -> usize {
        self.rng.gen_range(0..self.num_nodes)
    }

    fn multicast_distinct(&mut self, source: usize, k: usize) -> MulticastSet {
        let mut dests = Vec::with_capacity(k);
        while dests.len() < k {
            let d = self.rng.gen_range(0..self.num_nodes);
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        MulticastSet::new(source, dests)
    }

    fn exponential_ns(&mut self, mean_ns: f64) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-mean_ns * u.ln()).ceil().max(1.0) as u64
    }
}

/// Holds `MulticastGen::multicast_distinct` to the reference draw for
/// `draws` (source, set) pairs.
fn assert_same_draws(n: usize, k: usize, seed: u64, draws: usize) {
    let mut gen = MulticastGen::new(n, seed);
    let mut reference = ReferenceGen::new(n, seed);
    for i in 0..draws {
        let source = gen.source();
        assert_eq!(
            source,
            reference.source(),
            "n {n} k {k} seed {seed}: source {i}"
        );
        assert_eq!(
            gen.multicast_distinct(source, k),
            reference.multicast_distinct(source, k),
            "n {n} k {k} seed {seed}: draw {i}"
        );
    }
}

/// The first 5,000 draws at each k, three seeds each, on `n` nodes.
fn assert_same_draws_on(n: usize) {
    for k in [1, 2, 8, 128] {
        for seed in [2, 29, 0x6d63_6173] {
            assert_same_draws(n, k, seed, PAIRS);
        }
    }
}

#[test]
fn distinct_draw_matches_the_quadratic_reference_on_1024_nodes() {
    assert_same_draws_on(1 << 10);
}

#[test]
fn distinct_draw_matches_the_quadratic_reference_on_65536_nodes() {
    assert_same_draws_on(1 << 16);
}

#[test]
fn distinct_draw_of_every_other_node_matches_the_quadratic_reference() {
    // The rejection loop runs long, and the quadratic reference is slow,
    // so fewer draws.
    for seed in [2, 29, 0x6d63_6173] {
        assert_same_draws(1 << 10, (1 << 10) - 1, seed, 50);
    }
}

/// The first `count` injections of the old linear-scan source, before
/// the pattern rewrite.
fn linear_scan(
    n: usize,
    mean_interarrival_ns: f64,
    destinations: usize,
    seed: u64,
    count: usize,
) -> Vec<(u64, MulticastSet)> {
    let mut gen = ReferenceGen::new(n, seed);
    let mut next_gen: Vec<(u64, usize)> = (0..n)
        .map(|node| (gen.exponential_ns(mean_interarrival_ns), node))
        .collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (&(t, node), _) = next_gen
            .iter()
            .zip(0..)
            .min_by_key(|((t, node), _)| (*t, *node))
            .expect("generators exist");
        out.push((t, gen.multicast_distinct(node, destinations.min(n - 1))));
        next_gen[node].0 = t + gen.exponential_ns(mean_interarrival_ns);
    }
    out
}

/// Holds `TrafficSource` to `scan` (a [`linear_scan`] over the same
/// parameters) rewritten by `pattern`.
fn assert_same_stream(
    label: &str,
    scan: &[(u64, MulticastSet)],
    (n, mean_ns, k, seed): (usize, f64, usize, u64),
    pattern: TrafficPattern,
) {
    let mut source = TrafficSource::new(n, mean_ns, k, pattern, seed).unwrap();
    for (i, (t, mc)) in scan.iter().enumerate() {
        let want = (*t, pattern.apply(i as u64, mc.clone()));
        assert_eq!(source.peek_time(), want.0, "{label}: peek_time at {i}");
        let got = source.next().expect("the source never ends");
        assert_eq!(got, want, "{label}: injection {i}");
    }
    assert_eq!(source.injected(), scan.len() as u64);
}

#[test]
fn traffic_source_matches_linear_scan_on_every_pattern() {
    for topo_s in ["mesh:8x8", "cube:10", "custom:rand:40x3"] {
        let topo = TopoSpec::parse(topo_s).unwrap();
        let n = topo.num_nodes();
        let hot = topo.hotspot_node();
        for seed in [1, 7, 0x6d63_6173] {
            let params = (n, 300_000.0, 6, seed);
            let scan = linear_scan(n, 300_000.0, 6, seed, PAIRS);
            for pattern in [
                TrafficPattern::Uniform,
                TrafficPattern::Hotspot { node: hot },
                TrafficPattern::Bursty {
                    phase_len: 64,
                    root: hot,
                },
            ] {
                let label = format!("{topo_s} {pattern:?} seed {seed}");
                assert_same_stream(&label, &scan, params, pattern);
            }
        }
    }
}

#[test]
fn traffic_source_breaks_timestamp_ties_by_lowest_node() {
    // A ~1 ns mean makes most interarrivals round up to 1 or 2 ns, so
    // many generators share each timestamp and only the node-id
    // tie-break decides the order.
    let n = 64;
    let mut ties = 0;
    for seed in [3, 4, 5] {
        for k in [1, 5] {
            let scan = linear_scan(n, 1.0, k, seed, PAIRS);
            for w in scan.windows(2) {
                if w[0].0 == w[1].0 {
                    ties += 1;
                    assert!(w[0].1.source < w[1].1.source, "tie not broken by node id");
                }
            }
            let label = format!("ties n {n} k {k} seed {seed}");
            assert_same_stream(&label, &scan, (n, 1.0, k, seed), TrafficPattern::Uniform);
        }
    }
    assert!(
        ties > 3 * PAIRS,
        "only {ties} tied pairs; the case is not tie-heavy"
    );
}
