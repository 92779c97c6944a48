//! Modern competitor schemes: DPM multicast and software collectives.
//!
//! The dissertation's Chapter 6/7 schemes predate two families that
//! dominate practice today. This module adds both, on the same
//! [`MulticastRouter`] plumbing, so the 1990 algorithms and their modern
//! competitors run under one engine and one conformance harness:
//!
//! * [`DpmRouter`] — *destination partitioning with merge* (after
//!   Tiwari et al., "DPM: deadlock-free packet multicasting",
//!   arXiv:2108.00566). Each destination gets the topology's certified
//!   deadlock-free *unicast* path; partitions whose paths overlap are
//!   merged by absorbing every destination that lies on a longer
//!   partition's path. Every emitted worm is a prefix-closed base-routing
//!   path, so the scheme's channel-dependence graph is a subgraph of the
//!   base routing's CDG — DPM is deadlock-free exactly where the base
//!   dimension-ordered/up*‑down* routing is (everywhere in the registry
//!   except wrapped k-ary n-cubes, whose rings cycle the CDG).
//!
//! * [`CollectiveRouter`] — software multicast as O(log n) rounds of
//!   unicast sends over the ranks `[source] ++ sorted destinations`
//!   (binomial tree and recursive doubling, the MPI broadcast
//!   workhorses). A relay can only forward *after* the round that
//!   delivered its copy retires, which is precisely the engine's
//!   staged-worm primitive ([`PlanWorm::Staged`]): each send worm lists
//!   the plan-internal worms it must wait for and holds no channel while
//!   held. The `binomial-reliable` variant adds per-round completion
//!   tracking — every round-`r` send waits for *all* of round `r-1`, a
//!   barrier schedule whose delivery of round `r-1` is complete before
//!   any round-`r` flit moves.

use std::collections::HashSet;
use std::sync::Arc;

use mcast_core::model::MulticastSet;
use mcast_core::RoutingGeometry;
use mcast_topology::{
    synthesize, CertifiedRouting, CustomGraph, Hypercube, KAryNCube, Mesh2D, Mesh3D, NodeId,
    TopographError,
};

use crate::plan::{ClassChoice, DeliveryPlan, PlanArena, PlanPath, PlanStage, PlanWorm};
use crate::routers::MulticastRouter;

/// The certified deadlock-free unicast routing function of one
/// topology — the base routing both DPM partitions and collective sends
/// travel on.
///
/// Meshes and hypercubes use their closed-form dimension-ordered
/// geometry paths; k-ary n-cubes use dimension-ordered digit correction
/// (shorter wrap direction on tori, ties broken toward `+1`); custom
/// graphs use the synthesized certified up*/down* routing.
#[derive(Debug, Clone)]
pub enum UnicastRouting {
    /// XY dimension-ordered routing on a 2D mesh.
    Mesh2D(Mesh2D),
    /// XYZ dimension-ordered routing on a 3D mesh.
    Mesh3D(Mesh3D),
    /// Ascending e-cube routing on a hypercube.
    Hypercube(Hypercube),
    /// Dimension-ordered digit correction on a k-ary n-cube.
    KAry(KAryNCube),
    /// Synthesized certified routing on an arbitrary graph.
    Custom(CertifiedRouting),
}

impl UnicastRouting {
    /// Builds the certified routing for a custom graph (fails exactly
    /// when up*/down* synthesis does — a cyclic CDG witness).
    pub fn custom(graph: &Arc<CustomGraph>) -> Result<UnicastRouting, TopographError> {
        Ok(UnicastRouting::Custom(synthesize(graph)?))
    }

    /// The base-routing path from `s` to `t` (inclusive; `[s]` when
    /// `s == t`).
    pub fn path(&self, s: NodeId, t: NodeId) -> Vec<NodeId> {
        match self {
            UnicastRouting::Mesh2D(m) => m.shortest_path(s, t),
            UnicastRouting::Mesh3D(m) => m.shortest_path(s, t),
            UnicastRouting::Hypercube(c) => c.shortest_path(s, t),
            UnicastRouting::KAry(c) => kary_dim_order_path(c, s, t),
            UnicastRouting::Custom(r) => r.path(s, t),
        }
    }
}

/// Dimension-ordered digit correction on a k-ary n-cube: correct digit
/// 0 first, then digit 1, and so on. On tori each digit takes the
/// shorter wrap direction (ties toward `+1`); on non-wrapped cubes the
/// direction is the sign of the digit difference. Within one dimension
/// every hop moves the same way, so the channel-dependence graph is
/// acyclic on meshes (monotone per dimension, dimensions ordered) and
/// cyclic only through torus wrap rings.
fn kary_dim_order_path(c: &KAryNCube, s: NodeId, t: NodeId) -> Vec<NodeId> {
    let k = c.k() as isize;
    let mut nodes = vec![s];
    let mut cur = s;
    for d in 0..c.n() {
        let cd = c.digit(cur, d) as isize;
        let td = c.digit(t, d) as isize;
        if cd == td {
            continue;
        }
        let delta = if c.wraps() {
            let fwd = (td - cd).rem_euclid(k);
            let bwd = (cd - td).rem_euclid(k);
            if fwd <= bwd {
                1
            } else {
                -1
            }
        } else if td > cd {
            1
        } else {
            -1
        };
        while c.digit(cur, d) != c.digit(t, d) {
            cur = c
                .step(cur, d, delta)
                .expect("digit correction steps stay inside the cube");
            nodes.push(cur);
        }
    }
    nodes
}

/// Destination-partitioning-with-merge multicast (DPM).
///
/// Planning: route every destination's base unicast path, order the
/// partitions by `(path length desc, destination asc)`, then greedily
/// keep the longest partition still uncovered and absorb every
/// destination lying *on* its path. Each kept partition becomes one
/// path worm. The merge only ever deletes worms — it never reroutes —
/// so the plan's channel set stays inside the base routing's and the
/// deadlock-freedom claim is inherited from it.
pub struct DpmRouter {
    unicast: UnicastRouting,
}

impl DpmRouter {
    /// A DPM router over the given base unicast routing.
    pub fn new(unicast: UnicastRouting) -> DpmRouter {
        DpmRouter { unicast }
    }

    /// The merged partition paths for a multicast (exposed for CDG
    /// certification and tests; `plan` wraps these in worms).
    pub fn partitions(&self, mc: &MulticastSet) -> Vec<Vec<NodeId>> {
        let mut routed: Vec<(Vec<NodeId>, NodeId)> = mc
            .destinations
            .iter()
            .map(|&d| (self.unicast.path(mc.source, d), d))
            .collect();
        routed.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.1.cmp(&b.1)));
        let mut covered: HashSet<NodeId> = HashSet::new();
        let mut kept = Vec::new();
        for (path, dest) in routed {
            if covered.contains(&dest) || path.len() < 2 {
                continue;
            }
            covered.extend(path.iter().copied());
            kept.push(path);
        }
        kept
    }
}

impl MulticastRouter for DpmRouter {
    fn name(&self) -> &'static str {
        "dpm"
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        arena.begin(mc, out);
        for nodes in self.partitions(mc) {
            arena.push_path(out, nodes, ClassChoice::Any);
        }
    }
}

/// Which collective schedule a [`CollectiveRouter`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Binomial broadcast tree: in round `r`, every rank `< 2^r` that
    /// holds the message sends to rank `+2^r`.
    Binomial,
    /// Recursive doubling (halving distances): round `r` sends over
    /// stride `2^(m-1-r)` where `m = ⌈log₂ n⌉`.
    RecursiveDoubling,
    /// Binomial schedule with per-round completion tracking: a round-`r`
    /// send waits for *every* round-`r-1` send, not just its own feeder.
    BinomialReliable,
}

impl CollectiveKind {
    fn name(self) -> &'static str {
        match self {
            CollectiveKind::Binomial => "binomial",
            CollectiveKind::RecursiveDoubling => "recursive-doubling",
            CollectiveKind::BinomialReliable => "binomial-reliable",
        }
    }
}

/// One send of a collective schedule (ranks index the rank list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSend {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Round index (0-based).
    pub round: usize,
}

/// The binomial-tree schedule over `n` ranks, round-major with
/// ascending senders inside each round. Every rank `1..n` receives
/// exactly once, within `⌈log₂ n⌉` rounds.
pub fn binomial_schedule(n: usize) -> Vec<CollectiveSend> {
    let mut sends = Vec::new();
    let mut gap = 1;
    let mut round = 0;
    while gap < n {
        for i in 0..gap.min(n - gap) {
            sends.push(CollectiveSend {
                from: i,
                to: i + gap,
                round,
            });
        }
        gap *= 2;
        round += 1;
    }
    sends
}

/// The recursive-doubling schedule over `n` ranks: strides halve from
/// `2^(m-1)` down to 1, round-major with ascending senders. Same
/// `⌈log₂ n⌉` round count as binomial but a different send pattern
/// whenever `n` is not a power of two.
pub fn recursive_doubling_schedule(n: usize) -> Vec<CollectiveSend> {
    let mut sends = Vec::new();
    let m = ceil_log2(n);
    for round in 0..m {
        let stride = 1usize << (m - 1 - round);
        let mut i = 0;
        while i + stride < n {
            sends.push(CollectiveSend {
                from: i,
                to: i + stride,
                round,
            });
            i += 2 * stride;
        }
    }
    sends
}

/// `⌈log₂ n⌉` (0 for `n <= 1`) — the round bound of both schedules.
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Software-collective multicast: the schedule's sends become unicast
/// worms, staged on their intra-plan feeders (see module docs).
pub struct CollectiveRouter {
    unicast: UnicastRouting,
    kind: CollectiveKind,
}

impl CollectiveRouter {
    /// A collective router of the given kind over the base routing.
    pub fn new(unicast: UnicastRouting, kind: CollectiveKind) -> CollectiveRouter {
        CollectiveRouter { unicast, kind }
    }

    /// The rank list for a multicast: source first, then the
    /// destinations sorted and deduplicated (source excluded).
    pub fn ranks(mc: &MulticastSet) -> Vec<NodeId> {
        let mut ranks = vec![mc.source];
        let mut dests: Vec<NodeId> = mc
            .destinations
            .iter()
            .copied()
            .filter(|&d| d != mc.source)
            .collect();
        dests.sort_unstable();
        dests.dedup();
        ranks.extend(dests);
        ranks
    }

    /// The schedule this router runs over `n` ranks.
    pub fn schedule(&self, n: usize) -> Vec<CollectiveSend> {
        match self.kind {
            CollectiveKind::Binomial | CollectiveKind::BinomialReliable => binomial_schedule(n),
            CollectiveKind::RecursiveDoubling => recursive_doubling_schedule(n),
        }
    }
}

impl MulticastRouter for CollectiveRouter {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        arena.begin(mc, out);
        let ranks = Self::ranks(mc);
        let sends = self.schedule(ranks.len());
        let reliable = self.kind == CollectiveKind::BinomialReliable;
        // For each rank: the worm that delivered its copy and its own
        // latest send (the single-port model — one outstanding send per
        // node). Round-major emission makes every dependency point
        // strictly backwards, as `PlanWorm::Staged` requires.
        let mut recv_worm: Vec<Option<u32>> = vec![None; ranks.len()];
        let mut last_send: Vec<Option<u32>> = vec![None; ranks.len()];
        let mut round_worms: Vec<Vec<u32>> = Vec::new();
        let mut after: Vec<u32> = Vec::new();
        for s in sends {
            let widx = out.worms.len() as u32;
            after.clear();
            if reliable {
                if s.round > 0 {
                    after.extend(&round_worms[s.round - 1]);
                }
            } else {
                after.extend(recv_worm[s.from]);
                after.extend(last_send[s.from]);
                after.sort_unstable();
                after.dedup();
            }
            let mut nodes = arena.node_buf();
            nodes.extend(self.unicast.path(ranks[s.from], ranks[s.to]));
            let path = PlanPath {
                nodes,
                class: ClassChoice::Any,
            };
            out.worms.push(if after.is_empty() {
                PlanWorm::Path(path)
            } else {
                let mut deps = arena.dep_buf();
                deps.extend_from_slice(&after);
                PlanWorm::Staged(PlanStage { after: deps, path })
            });
            recv_worm[s.to] = Some(widx);
            last_send[s.from] = Some(widx);
            while round_worms.len() <= s.round {
                round_worms.push(Vec::new());
            }
            round_worms[s.round].push(widx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receivers(sends: &[CollectiveSend]) -> Vec<usize> {
        sends.iter().map(|s| s.to).collect()
    }

    #[test]
    fn binomial_delivers_each_rank_once_in_log_rounds() {
        for n in 1..40 {
            let sends = binomial_schedule(n);
            let mut got = receivers(&sends);
            got.sort_unstable();
            assert_eq!(got, (1..n).collect::<Vec<_>>(), "n={n}");
            let rounds = sends.iter().map(|s| s.round + 1).max().unwrap_or(0);
            assert_eq!(rounds, ceil_log2(n), "n={n}");
            // Every sender already holds the message when it sends.
            let mut have = vec![false; n.max(1)];
            have[0] = true;
            for s in &sends {
                assert!(have[s.from], "n={n}: rank {} sent without data", s.from);
                have[s.to] = true;
            }
        }
    }

    #[test]
    fn recursive_doubling_delivers_each_rank_once_in_log_rounds() {
        for n in 1..40 {
            let sends = recursive_doubling_schedule(n);
            let mut got = receivers(&sends);
            got.sort_unstable();
            assert_eq!(got, (1..n).collect::<Vec<_>>(), "n={n}");
            let rounds = sends.iter().map(|s| s.round + 1).max().unwrap_or(0);
            assert_eq!(rounds, ceil_log2(n), "n={n}");
            let mut have = vec![false; n.max(1)];
            have[0] = true;
            for s in &sends {
                assert!(have[s.from], "n={n}: rank {} sent without data", s.from);
                have[s.to] = true;
            }
        }
    }

    #[test]
    fn schedules_differ_off_powers_of_two() {
        // At powers of two the two schedules coincide (up to round
        // relabeling); off them the send sets differ — the two schemes
        // are genuinely distinct competitors.
        let b: HashSet<(usize, usize)> = binomial_schedule(6)
            .iter()
            .map(|s| (s.from, s.to))
            .collect();
        let r: HashSet<(usize, usize)> = recursive_doubling_schedule(6)
            .iter()
            .map(|s| (s.from, s.to))
            .collect();
        assert_ne!(b, r);
    }

    #[test]
    fn kary_digit_correction_is_dimension_ordered_and_minimal_on_torus() {
        use mcast_topology::Topology;
        let c = KAryNCube::torus(5, 2);
        for s in 0..c.num_nodes() {
            for t in 0..c.num_nodes() {
                let p = kary_dim_order_path(&c, s, t);
                assert_eq!(*p.first().unwrap(), s);
                assert_eq!(*p.last().unwrap(), t);
                // Minimal: each digit moves by the shorter ring arc.
                let mut want = 1;
                for d in 0..c.n() {
                    let diff = (c.digit(t, d) as isize - c.digit(s, d) as isize).rem_euclid(5);
                    want += diff.min(5 - diff) as usize;
                }
                assert_eq!(p.len(), want, "{s}->{t}");
                // Dimension-ordered: digit d is settled before d+1 moves.
                let mut max_moved = 0;
                for w in p.windows(2) {
                    let d = (0..c.n())
                        .find(|&d| c.digit(w[0], d) != c.digit(w[1], d))
                        .unwrap();
                    assert!(d as usize >= max_moved, "{s}->{t}: {p:?}");
                    max_moved = d as usize;
                }
            }
        }
    }

    #[test]
    fn dpm_absorbs_destinations_on_kept_paths() {
        // mesh:4x4, XY routing: 0 -> 3 passes through 1 and 2, so the
        // three destinations merge into one partition.
        let m = Mesh2D::new(4, 4);
        let router = DpmRouter::new(UnicastRouting::Mesh2D(m));
        let mc = MulticastSet::new(0, [1, 2, 3]);
        let parts = router.partitions(&mc);
        assert_eq!(parts, vec![vec![0, 1, 2, 3]]);
        // A destination off every other path keeps its own partition.
        let mc = MulticastSet::new(0, [3, 4]);
        let parts = router.partitions(&mc);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn collective_plan_covers_destinations_and_stages_backwards() {
        let m = Mesh2D::new(4, 4);
        for kind in [
            CollectiveKind::Binomial,
            CollectiveKind::RecursiveDoubling,
            CollectiveKind::BinomialReliable,
        ] {
            let router = CollectiveRouter::new(UnicastRouting::Mesh2D(m), kind);
            let mc = MulticastSet::new(5, [0, 3, 9, 12, 15]);
            let plan = router.plan(&mc);
            assert_eq!(plan.worms.len(), 5, "{kind:?}: one send per receiver");
            let mut delivered: HashSet<NodeId> = HashSet::new();
            for (i, w) in plan.worms.iter().enumerate() {
                let (after, path): (&[u32], &PlanPath) = match w {
                    PlanWorm::Path(p) => (&[], p),
                    PlanWorm::Staged(s) => (&s.after, &s.path),
                    other => panic!("unexpected worm {other:?}"),
                };
                assert!(after.iter().all(|&a| (a as usize) < i), "{kind:?}");
                delivered.insert(*path.nodes.last().unwrap());
            }
            for d in &mc.destinations {
                assert!(delivered.contains(d), "{kind:?}: {d} undelivered");
            }
        }
    }
}
