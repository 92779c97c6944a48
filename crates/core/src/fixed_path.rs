//! The fixed-path deadlock-free multicast routing of §6.2.2 (Fig 6.17),
//! suggested in [49] and used as a simplicity baseline.
//!
//! Like dual-path it uses one high and one low path, but each path simply
//! walks the Hamiltonian path node by node — the upper path visits *all*
//! nodes in increasing label order until the highest-labeled destination,
//! the lower path all nodes in decreasing order until the lowest. Very
//! simple hardware, more traffic: §7.2 shows it matches dual-path only for
//! large destination sets.

use std::ops::RangeInclusive;

use mcast_topology::{Labeling, Topology};

use crate::model::{MulticastRoute, MulticastSet, PathRoute};

/// Runs fixed-path routing, returning up to two paths (high first).
pub fn fixed_path<T: Topology + ?Sized>(
    _topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> Vec<PathRoute> {
    let (up, down) = fixed_path_spans(labeling, mc);
    let path = labeling.path();
    let mut paths = Vec::with_capacity(2);
    if let Some(up) = up {
        paths.push(PathRoute::new(path[up].to_vec()));
    }
    if let Some(down) = down {
        paths.push(PathRoute::new(path[down].iter().rev().copied().collect()));
    }
    paths
}

/// The label ranges fixed-path walks, as indices into
/// [`Labeling::path`]: `ℓ(u0)..=max ℓ(D_H)` upward, and
/// `min ℓ(D_L)..=ℓ(u0)` walked downward (in reverse). A side with no
/// destinations is `None`.
pub fn fixed_path_spans(
    labeling: &Labeling,
    mc: &MulticastSet,
) -> (Option<RangeInclusive<usize>>, Option<RangeInclusive<usize>>) {
    let l0 = labeling.label(mc.source);
    let labels = || mc.destinations.iter().map(|&d| labeling.label(d));
    let max_l = labels().filter(|&l| l > l0).max();
    let min_l = labels().filter(|&l| l < l0).min();
    (max_l.map(|hi| l0..=hi), min_l.map(|lo| lo..=l0))
}

/// Convenience wrapper returning a [`MulticastRoute::Star`].
pub fn fixed_path_route<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> MulticastRoute {
    MulticastRoute::Star(fixed_path(topo, labeling, mc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
    use mcast_topology::{Hypercube, Mesh2D, NodeId};

    #[test]
    fn fig_6_17_traffic_and_max_distance() {
        // Fig 6.17: same example as Figs 6.13/6.16 — fixed-path uses 35
        // channels (20 high + 15 low), max distance 20 hops.
        let m = Mesh2D::new(6, 6);
        let l = mesh2d_snake(&m);
        let n = |x: usize, y: usize| m.node(x, y);
        let mc = MulticastSet::new(
            n(3, 2),
            [
                n(0, 0),
                n(0, 2),
                n(0, 5),
                n(1, 3),
                n(4, 5),
                n(5, 0),
                n(5, 1),
                n(5, 3),
                n(5, 4),
            ],
        );
        let paths = fixed_path(&m, &l, &mc);
        assert_eq!(paths[0].len(), 20, "high path channels");
        assert_eq!(paths[1].len(), 15, "low path channels");
        let route = MulticastRoute::Star(paths);
        route.validate(&m, &mc).unwrap();
        assert_eq!(route.max_dest_hops(&mc), Some(20));
        assert_eq!(route.traffic(), 35);
    }

    #[test]
    fn fixed_path_visits_every_label_in_range() {
        let h = Hypercube::new(4);
        let l = hypercube_gray(&h);
        let mc = MulticastSet::new(0b1100, [0b0100, 0b0011, 0b0111, 0b1000, 0b1111]);
        let paths = fixed_path(&h, &l, &mc);
        for p in &paths {
            let labels: Vec<usize> = p.nodes().iter().map(|&n| l.label(n)).collect();
            // Strictly consecutive labels: the Hamiltonian walk.
            assert!(labels.windows(2).all(|w| w[0].abs_diff(w[1]) == 1));
        }
        MulticastRoute::Star(paths).validate(&h, &mc).unwrap();
    }

    #[test]
    fn fixed_path_always_at_least_dual_path_traffic() {
        let m = Mesh2D::new(8, 8);
        let l = mesh2d_snake(&m);
        for seed in 0..50usize {
            let dests: Vec<NodeId> = (0..6).map(|i| (seed * 29 + i * 19 + 11) % 64).collect();
            let mc = MulticastSet::new((seed * 13) % 64, dests);
            if mc.k() == 0 {
                continue;
            }
            let fp: usize = fixed_path(&m, &l, &mc).iter().map(PathRoute::len).sum();
            let dp: usize = crate::dual_path::dual_path(&m, &l, &mc)
                .iter()
                .map(PathRoute::len)
                .sum();
            assert!(fp >= dp, "seed {seed}: fixed {fp} < dual {dp}");
        }
    }

    #[test]
    fn single_side_destination_sets() {
        let m = Mesh2D::new(4, 4);
        let l = mesh2d_snake(&m);
        let src = l.node_at(15);
        let mc = MulticastSet::new(src, [l.node_at(3), l.node_at(9)]);
        let paths = fixed_path(&m, &l, &mc);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 12);
    }
}
