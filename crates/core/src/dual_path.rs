//! The dual-path deadlock-free multicast wormhole routing algorithm of
//! §6.2.2 (Figs 6.11–6.12) and §6.3.
//!
//! The destination set is split into `D_H` (labels above the source's,
//! sorted ascending) and `D_L` (below, sorted descending). One message
//! travels the high-channel network visiting all of `D_H` in label order,
//! another travels the low-channel network for `D_L`; each hop uses the
//! label-monotone routing function [`crate::routing_fn::r_step`]. Because
//! both subnetworks are acyclic and a message never crosses between them,
//! the scheme is deadlock-free (Assertion 2 / Corollary 6.1) — the test
//! suite verifies the channel dependency graphs are acyclic.
//!
//! The algorithm is generic over any Hamiltonian [`Labeling`], covering 2D
//! mesh, hypercube, 3D mesh and k-ary n-cubes uniformly (§8.1: "these
//! routing algorithms can be applied to any multicomputer networks that
//! have Hamilton paths").

use mcast_topology::{Labeling, NodeId, Topology};

use crate::model::{MulticastRoute, MulticastSet, PathRoute};
use crate::routing_fn::r_extend_through;

/// Message preparation (Fig 6.11): `(D_H ascending, D_L descending)` by
/// label.
pub fn prepare(labeling: &Labeling, mc: &MulticastSet) -> (Vec<NodeId>, Vec<NodeId>) {
    let (mut high, mut low) = (Vec::new(), Vec::new());
    split_into(labeling, mc, &mut high, &mut low);
    (high, low)
}

/// [`prepare`] into reused buffers. Sorting labels and mapping them back
/// through `node_at` gives the same order as sorting nodes by label.
fn split_into(
    labeling: &Labeling,
    mc: &MulticastSet,
    high: &mut Vec<NodeId>,
    low: &mut Vec<NodeId>,
) {
    let l0 = labeling.label(mc.source);
    high.clear();
    low.clear();
    for &d in &mc.destinations {
        let l = labeling.label(d);
        if l > l0 {
            high.push(l);
        } else if l < l0 {
            low.push(l);
        }
    }
    high.sort_unstable();
    low.sort_unstable_by(|a, b| b.cmp(a));
    for l in high.iter_mut().chain(low.iter_mut()) {
        *l = labeling.node_at(*l);
    }
}

/// Sets `nodes` to `prefix` extended by `R` through `sorted_dests`;
/// `neighbors` is working space.
pub(crate) fn route_into<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    prefix: &[NodeId],
    sorted_dests: &[NodeId],
    nodes: &mut Vec<NodeId>,
    neighbors: &mut Vec<NodeId>,
) {
    nodes.clear();
    nodes.extend_from_slice(prefix);
    r_extend_through(topo, labeling, nodes, sorted_dests, neighbors);
}

/// Runs dual-path routing, returning the multicast star (at most two
/// paths; empty paths are omitted).
///
/// ```
/// use mcast_core::dual_path::dual_path;
/// use mcast_core::model::MulticastSet;
/// use mcast_topology::labeling::mesh2d_snake;
/// use mcast_topology::Mesh2D;
///
/// let mesh = Mesh2D::new(6, 6);
/// let labeling = mesh2d_snake(&mesh);
/// let mc = MulticastSet::new(mesh.node(3, 2), [mesh.node(0, 0), mesh.node(5, 5)]);
/// let paths = dual_path(&mesh, &labeling, &mc);
/// assert_eq!(paths.len(), 2); // one per label side
/// for p in &paths {
///     assert_eq!(p.nodes()[0], mesh.node(3, 2));
/// }
/// ```
pub fn dual_path<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> Vec<PathRoute> {
    let mut paths = Vec::with_capacity(2);
    dual_path_into(topo, labeling, mc, &mut RouteScratch::new(), |nodes| {
        paths.push(PathRoute::new(nodes.to_vec()))
    });
    paths
}

/// Reusable working buffers for the allocation-free `_into` forms of the
/// label-routed schemes (dual-path, multi-path, vc-multi-path): the
/// `D_H`/`D_L` destination splits, the source's neighbors, the
/// sub-multicasts of a multi-path preparation and the node sequence
/// under construction. Holding one scratch across a long run makes
/// per-message routing allocation-free once the buffers reach
/// steady-state capacity (DESIGN.md §16).
#[derive(Debug, Default)]
pub struct RouteScratch {
    pub(crate) high: Vec<NodeId>,
    pub(crate) low: Vec<NodeId>,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) subs: crate::multi_path::SubList,
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits `mc` into `D_H` and `D_L` ([`prepare`]) in place.
    pub(crate) fn split(&mut self, labeling: &Labeling, mc: &MulticastSet) {
        split_into(labeling, mc, &mut self.high, &mut self.low);
    }
}

/// Allocation-free dual-path routing: computes the same paths as
/// [`dual_path`] but builds them inside `scratch` and hands each
/// finished node sequence to `emit` as a borrowed slice (high side
/// first, empty sides omitted).
pub fn dual_path_into<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
    scratch: &mut RouteScratch,
    mut emit: impl FnMut(&[NodeId]),
) {
    scratch.split(labeling, mc);
    let RouteScratch {
        high,
        low,
        nodes,
        neighbors,
        ..
    } = scratch;
    for side in [&*high, &*low] {
        if !side.is_empty() {
            route_into(topo, labeling, &[mc.source], side, nodes, neighbors);
            emit(nodes);
        }
    }
}

/// Convenience: dual-path wrapped as a [`MulticastRoute::Star`].
pub fn dual_path_route<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> MulticastRoute {
    MulticastRoute::Star(dual_path(topo, labeling, mc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::labeling::{hypercube_gray, mesh2d_snake, mesh3d_snake};
    use mcast_topology::{Hypercube, Mesh2D, Mesh3D};

    fn example_6_13() -> (Mesh2D, Labeling, MulticastSet) {
        // §6.2.2 running example: 6×6 mesh, source (3,2), destinations
        // (0,0), (0,2), (0,5), (1,3), (4,5), (5,0), (5,1), (5,3), (5,4).
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
        (m, l, mc)
    }

    #[test]
    fn fig_6_13_traffic_and_reach() {
        // Fig 6.13: dual-path uses 33 channels (18 high + 15 low) and the
        // farthest destination is 18 hops away.
        let (m, l, mc) = example_6_13();
        let paths = dual_path(&m, &l, &mc);
        assert_eq!(paths.len(), 2);
        let total: usize = paths.iter().map(PathRoute::len).sum();
        assert_eq!(total, 33, "paths: {:?}", paths);
        assert_eq!(paths[0].len().max(paths[1].len()), 18);
        let route = MulticastRoute::Star(paths);
        route.validate(&m, &mc).unwrap();
        assert_eq!(route.max_dest_hops(&mc), Some(18));
    }

    #[test]
    fn high_path_is_label_ascending_low_descending() {
        let (m, l, mc) = example_6_13();
        let (high, low) = prepare(&l, &mc);
        assert!(high.windows(2).all(|w| l.label(w[0]) < l.label(w[1])));
        assert!(low.windows(2).all(|w| l.label(w[0]) > l.label(w[1])));
        let paths = dual_path(&m, &l, &mc);
        let hp: Vec<usize> = paths[0].nodes().iter().map(|&n| l.label(n)).collect();
        assert!(
            hp.windows(2).all(|w| w[0] < w[1]),
            "high path labels: {hp:?}"
        );
        let lp: Vec<usize> = paths[1].nodes().iter().map(|&n| l.label(n)).collect();
        assert!(
            lp.windows(2).all(|w| w[0] > w[1]),
            "low path labels: {lp:?}"
        );
    }

    #[test]
    fn fig_6_19_hypercube_example() {
        // §6.3: 4-cube, source 1100 (label 8), destinations 0100, 0011,
        // 0111, 1000, 1111. D_L = {0100, 0111, 0011} (descending labels
        // 7, 6, 3... wait: labels are ℓ(0100)=7, ℓ(0111)=5, ℓ(0011)=2),
        // D_H = {1111, 1000} (labels 10, 15). From 1100 the high path's
        // first hop is 1101 (per the text's routing-function walkthrough).
        let h = Hypercube::new(4);
        let l = hypercube_gray(&h);
        let mc = MulticastSet::new(0b1100, [0b0100, 0b0011, 0b0111, 0b1000, 0b1111]);
        let (high, low) = prepare(&l, &mc);
        assert_eq!(high, vec![0b1111, 0b1000]);
        assert_eq!(low, vec![0b0100, 0b0111, 0b0011]);
        let paths = dual_path(&h, &l, &mc);
        assert_eq!(paths[0].nodes()[1], 0b1101, "first high hop per §6.3");
        MulticastRoute::Star(paths).validate(&h, &mc).unwrap();
    }

    #[test]
    fn every_destination_exactly_once_theorem_6_1() {
        let (m, l, mc) = example_6_13();
        let paths = dual_path(&m, &l, &mc);
        for &d in &mc.destinations {
            let visits: usize = paths
                .iter()
                .map(|p| p.nodes().iter().filter(|&&n| n == d).count())
                .sum();
            assert_eq!(visits, 1, "destination {d} visited {visits} times");
        }
    }

    #[test]
    fn works_on_3d_mesh_labeling() {
        let m = Mesh3D::new(3, 3, 3);
        let l = mesh3d_snake(&m);
        let mc = MulticastSet::new(13, [0, 26, 7, 19, 22]);
        let paths = dual_path(&m, &l, &mc);
        MulticastRoute::Star(paths).validate(&m, &mc).unwrap();
    }

    #[test]
    fn dual_path_into_matches_dual_path_exactly() {
        let (m, l, mc) = example_6_13();
        let mut scratch = RouteScratch::new();
        // Same scratch reused across messages: results must still match
        // the allocating path node-for-node, in the same order.
        for mc in [
            mc,
            MulticastSet::new(0, [35, 17]),
            MulticastSet::new(35, [0]),
            MulticastSet::new(14, [2, 33, 15, 20]),
        ] {
            let want: Vec<Vec<NodeId>> = dual_path(&m, &l, &mc)
                .iter()
                .map(|p| p.nodes().to_vec())
                .collect();
            let mut got: Vec<Vec<NodeId>> = Vec::new();
            dual_path_into(&m, &l, &mc, &mut scratch, |nodes| got.push(nodes.to_vec()));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn source_at_label_extremes_uses_single_path() {
        let m = Mesh2D::new(4, 4);
        let l = mesh2d_snake(&m);
        // Source with label 0: everything is in D_H.
        let mc = MulticastSet::new(l.node_at(0), [5, 9, 15]);
        let paths = dual_path(&m, &l, &mc);
        assert_eq!(paths.len(), 1);
        MulticastRoute::Star(paths).validate(&m, &mc).unwrap();
    }
}
