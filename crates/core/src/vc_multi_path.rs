//! Virtual-channel partitioned multicast — the §8.2 future-work
//! direction, implemented: "instead of partitioning the network into
//! high-channel and low-channel networks … the network may be partitioned
//! into many sub-networks. The set of destination nodes then may be
//! distributed to different sub-networks to support multiple multicast
//! paths."
//!
//! Each physical channel carries `lanes` virtual channels (classes). Lane
//! `v` forms its own copy of the high- and low-channel subnetworks, which
//! are acyclic exactly as in dual-path routing, so any assignment of
//! sub-multicasts to lanes is deadlock-free. This implementation balances
//! the sorted destination list across lanes in contiguous label ranges,
//! giving up to `2·lanes` concurrent label-monotone paths while keeping
//! per-path traffic close to dual-path's.

use std::ops::Range;

use mcast_topology::{Labeling, NodeId, Topology};

use crate::dual_path::{route_into, RouteScratch};
use crate::model::{MulticastSet, PathRoute};

/// One lane's sub-multicast: the virtual-channel class and its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePath {
    /// Virtual-channel class this path must use.
    pub lane: u8,
    /// The label-monotone path.
    pub path: PathRoute,
}

/// Splits a sorted half of `len` destinations into at most `lanes`
/// contiguous, order-preserving chunks of near-equal size (the earlier
/// chunks take the remainder).
fn chunks(len: usize, lanes: usize) -> impl Iterator<Item = Range<usize>> {
    let lanes = lanes.min(len);
    let base = len.checked_div(lanes).unwrap_or(0);
    let extra = len.checked_rem(lanes).unwrap_or(0);
    let start = move |l: usize| l * base + l.min(extra);
    (0..lanes).map(move |l| start(l)..start(l + 1))
}

/// Virtual-channel multicast routing: distributes `D_H` and `D_L` over
/// `lanes` virtual copies of the high/low subnetworks, one label-monotone
/// path per (side, lane).
pub fn vc_multi_path<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
    lanes: u8,
) -> Vec<LanePath> {
    let mut out = Vec::new();
    vc_multi_path_into(
        topo,
        labeling,
        mc,
        lanes,
        &mut RouteScratch::new(),
        |lane, nodes| {
            out.push(LanePath {
                lane,
                path: PathRoute::new(nodes.to_vec()),
            })
        },
    );
    out
}

/// Allocation-free [`vc_multi_path`]: builds each lane's path inside
/// `scratch` and hands it to `emit` with its lane, in the same order.
pub fn vc_multi_path_into<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
    lanes: u8,
    scratch: &mut RouteScratch,
    mut emit: impl FnMut(u8, &[NodeId]),
) {
    assert!(lanes >= 1, "at least one virtual lane");
    scratch.split(labeling, mc);
    let RouteScratch {
        high,
        low,
        nodes,
        neighbors,
        ..
    } = scratch;
    for side in [&*high, &*low] {
        for (lane, range) in chunks(side.len(), lanes as usize).enumerate() {
            route_into(topo, labeling, &[mc.source], &side[range], nodes, neighbors);
            emit(lane as u8, nodes);
        }
    }
}

/// Total channels used (sum of path lengths).
pub fn traffic(paths: &[LanePath]) -> usize {
    paths.iter().map(|p| p.path.len()).sum()
}

/// Maximum source→destination hop count over the destinations of `mc`.
pub fn max_dest_hops(paths: &[LanePath], mc: &MulticastSet) -> Option<usize> {
    mc.destinations
        .iter()
        .map(|&d| paths.iter().find_map(|p| p.path.hops_to(d)))
        .max()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
    use mcast_topology::NodeId;
    use mcast_topology::{Hypercube, Mesh2D};

    #[test]
    fn one_lane_is_exactly_dual_path() {
        let m = Mesh2D::new(6, 6);
        let l = mesh2d_snake(&m);
        let mc = MulticastSet::new(14, [0, 35, 7, 29, 22, 3]);
        let vc = vc_multi_path(&m, &l, &mc, 1);
        let dual = crate::dual_path::dual_path(&m, &l, &mc);
        let vc_paths: Vec<&PathRoute> = vc.iter().map(|p| &p.path).collect();
        assert_eq!(vc_paths.len(), dual.len());
        for (a, b) in vc_paths.iter().zip(&dual) {
            assert_eq!(a.nodes(), b.nodes());
        }
        assert!(vc.iter().all(|p| p.lane == 0));
    }

    #[test]
    fn lanes_cover_all_destinations_once() {
        let h = Hypercube::new(5);
        let l = hypercube_gray(&h);
        let mc = MulticastSet::new(13, [0, 1, 5, 9, 17, 22, 28, 31, 30, 2, 7]);
        for lanes in 1..=4u8 {
            let vc = vc_multi_path(&h, &l, &mc, lanes);
            // Every destination is *delivered* by exactly one lane (other
            // lanes may pass through it without delivering — their header
            // does not list it). Delivery = the destination lies on the
            // path whose chunk it was assigned to; since chunks partition
            // the destination set, it suffices that each destination lies
            // on at least one path and the chunks are disjoint.
            let mut assigned = 0usize;
            for p in &vc {
                let on_path: Vec<NodeId> = mc
                    .destinations
                    .iter()
                    .copied()
                    .filter(|&d| p.path.hops_to(d).is_some())
                    .collect();
                assert!(!on_path.is_empty());
                assigned += on_path.len();
            }
            assert!(assigned >= mc.k(), "lanes={lanes}");
            for &d in &mc.destinations {
                assert!(
                    vc.iter().any(|p| p.path.hops_to(d).is_some()),
                    "lanes={lanes} dest={d} unreachable"
                );
            }
            // Lane ids stay within bounds.
            assert!(vc.iter().all(|p| p.lane < lanes));
        }
    }

    #[test]
    fn more_lanes_reduce_worst_case_reach() {
        let m = Mesh2D::new(8, 8);
        let l = mesh2d_snake(&m);
        let mc = MulticastSet::new(0, (1..=20).map(|i| i * 3 % 64));
        let reach1 = max_dest_hops(&vc_multi_path(&m, &l, &mc, 1), &mc).unwrap();
        let reach4 = max_dest_hops(&vc_multi_path(&m, &l, &mc, 4), &mc).unwrap();
        assert!(reach4 <= reach1, "4 lanes {reach4} > 1 lane {reach1}");
    }

    #[test]
    fn paths_remain_label_monotone_per_lane() {
        let m = Mesh2D::new(6, 6);
        let l = mesh2d_snake(&m);
        let mc = MulticastSet::new(20, [0, 1, 8, 30, 33, 35, 15, 4]);
        for p in vc_multi_path(&m, &l, &mc, 3) {
            let labels: Vec<usize> = p.path.nodes().iter().map(|&n| l.label(n)).collect();
            let inc = labels[1] > labels[0];
            assert!(
                labels.windows(2).all(|w| (w[1] > w[0]) == inc),
                "{labels:?}"
            );
        }
    }

    #[test]
    fn chunking_is_balanced_and_order_preserving() {
        let c: Vec<_> = chunks(10, 3).collect();
        assert_eq!(c, vec![0..4, 4..7, 7..10]);
        assert_eq!(chunks(10, 0).count(), 0);
        assert_eq!(chunks(2, 5).collect::<Vec<_>>(), vec![0..1, 1..2]);
        assert_eq!(chunks(0, 3).count(), 0);
    }
}
