//! The multi-path deadlock-free multicast wormhole routing algorithm of
//! §6.2.2 (Fig 6.14, mesh) and §6.3 (Fig 6.20, hypercube).
//!
//! Dual-path's two paths can be long; multi-path relaxes the restriction
//! and uses up to `outdegree(u0)` paths. `D_H` and `D_L` are partitioned
//! further — on a 2D mesh by which side of the source's column a
//! destination lies (Fig 6.15), on a hypercube (and any labeled topology)
//! by the label intervals of the source's higher/lower-labeled neighbors —
//! and each part is routed with the same label-monotone routing function,
//! so deadlock-freedom is inherited (Assertion 3 / Corollary 6.2).

use mcast_topology::{Labeling, Mesh2D, NodeId, Topology};

use crate::dual_path::{route_into, RouteScratch};
use crate::model::{MulticastRoute, MulticastSet, PathRoute};

/// A partitioned sub-multicast: the neighbor the copy is first sent to and
/// its sorted destination list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubMulticast {
    /// First-hop neighbor `v_i`.
    pub via: NodeId,
    /// Destinations, already sorted in routing order.
    pub dests: Vec<NodeId>,
}

/// The sub-multicasts of one preparation, flat: each first hop with the
/// range of `dests` it carries.
#[derive(Debug, Default)]
pub(crate) struct SubList {
    subs: Vec<(NodeId, std::ops::Range<usize>)>,
    dests: Vec<NodeId>,
}

impl SubList {
    fn clear(&mut self) {
        self.subs.clear();
        self.dests.clear();
    }

    /// Appends a sub-multicast via `via` unless `dests` is empty.
    fn push(&mut self, via: NodeId, dests: impl IntoIterator<Item = NodeId>) {
        let start = self.dests.len();
        self.dests.extend(dests);
        if self.dests.len() > start {
            self.subs.push((via, start..self.dests.len()));
        }
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.subs
            .iter()
            .map(|(via, r)| (*via, &self.dests[r.clone()]))
    }

    fn to_owned(&self) -> Vec<SubMulticast> {
        self.iter()
            .map(|(via, dests)| SubMulticast {
                via,
                dests: dests.to_vec(),
            })
            .collect()
    }
}

/// Mesh message preparation (Fig 6.14): split `D_H` by the x-coordinates
/// of the two higher-labeled neighbors (one horizontal, one vertical), and
/// `D_L` symmetrically. Destination lists stay sorted in label order.
pub fn prepare_mesh(mesh: &Mesh2D, labeling: &Labeling, mc: &MulticastSet) -> Vec<SubMulticast> {
    let mut scratch = RouteScratch::new();
    prepare_mesh_into(mesh, labeling, mc, &mut scratch);
    scratch.subs.to_owned()
}

/// [`prepare_mesh`] into `scratch`, for [`route_subs_into`].
pub fn prepare_mesh_into(
    mesh: &Mesh2D,
    labeling: &Labeling,
    mc: &MulticastSet,
    scratch: &mut RouteScratch,
) {
    scratch.split(labeling, mc);
    let RouteScratch {
        high,
        low,
        neighbors,
        subs,
        ..
    } = scratch;
    subs.clear();
    split_half_mesh(mesh, labeling, mc.source, high, true, neighbors, subs);
    split_half_mesh(mesh, labeling, mc.source, low, false, neighbors, subs);
}

fn split_half_mesh(
    mesh: &Mesh2D,
    labeling: &Labeling,
    u0: NodeId,
    half: &[NodeId],
    high: bool,
    side: &mut Vec<NodeId>,
    subs: &mut SubList,
) {
    if half.is_empty() {
        return;
    }
    let l0 = labeling.label(u0);
    mesh.neighbors_into(u0, side);
    side.retain(|&p| {
        if high {
            labeling.label(p) > l0
        } else {
            labeling.label(p) < l0
        }
    });
    match side.len() {
        0 => unreachable!("nonempty half implies a monotone neighbor exists"),
        1 => subs.push(side[0], half.iter().copied()),
        _ => {
            // Exactly two: one horizontal (same row), one vertical.
            let (x0, y0) = mesh.coords(u0);
            let horiz = side
                .iter()
                .copied()
                .find(|&p| mesh.coords(p).1 == y0)
                .expect("one of the two neighbors shares the row");
            let vert = side
                .iter()
                .copied()
                .find(|&p| p != horiz)
                .expect("two neighbors");
            let (hx, _) = mesh.coords(horiz);
            // Destinations on the horizontal neighbor's side of the
            // source's column ride via it; the rest via the vertical one.
            let via_horiz = |&d: &NodeId| {
                let (x, _) = mesh.coords(d);
                if hx > x0 {
                    x > x0
                } else {
                    x < x0
                }
            };
            subs.push(horiz, half.iter().copied().filter(via_horiz));
            subs.push(vert, half.iter().copied().filter(|d| !via_horiz(d)));
        }
    }
}

/// Generic (hypercube, 3D-mesh, k-ary) message preparation (Fig 6.20):
/// let `v_1 < v_2 < … < v_d` be the higher-labeled neighbors of `u0`;
/// `D_Hi = {w : ℓ(v_i) ≤ ℓ(w) < ℓ(v_{i+1})}` rides via `v_i` (the last
/// interval is unbounded). `D_L` is partitioned symmetrically.
pub fn prepare_by_intervals<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> Vec<SubMulticast> {
    let mut scratch = RouteScratch::new();
    prepare_by_intervals_into(topo, labeling, mc, &mut scratch);
    scratch.subs.to_owned()
}

/// [`prepare_by_intervals`] into `scratch`, for [`route_subs_into`].
pub fn prepare_by_intervals_into<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
    scratch: &mut RouteScratch,
) {
    scratch.split(labeling, mc);
    let RouteScratch {
        high,
        low,
        neighbors,
        subs,
        ..
    } = scratch;
    subs.clear();
    let l0 = labeling.label(mc.source);
    let label = |n: NodeId| labeling.label(n);
    topo.neighbors_into(mc.source, neighbors);
    neighbors.sort_by_key(|&p| label(p));
    let downs = &neighbors[..neighbors.partition_point(|&p| label(p) < l0)];
    let ups = &neighbors[neighbors.partition_point(|&p| label(p) <= l0)..];
    // Each half is sorted away from the source, so every interval is a
    // contiguous run of it. High side: `v_1 < v_2 < …`.
    let below = |l: usize| high.partition_point(|&d| label(d) < l);
    for (i, &v) in ups.iter().enumerate() {
        let to = ups
            .get(i + 1)
            .map_or(high.len(), |&next| below(label(next)));
        subs.push(v, high[below(label(v))..to].iter().copied());
    }
    // Low side (mirror): `v_1 > v_2 > …`.
    let above = |l: usize| low.partition_point(|&d| label(d) > l);
    for (i, &v) in downs.iter().enumerate().rev() {
        let to = i
            .checked_sub(1)
            .map_or(low.len(), |next| above(label(downs[next])));
        subs.push(v, low[above(label(v))..to].iter().copied());
    }
}

/// Routes the sub-multicasts prepared in `scratch` by
/// [`prepare_mesh_into`] or [`prepare_by_intervals_into`]: each copy hops
/// to `via`, then follows the routing function through its sorted
/// destination list. Hands each path to `emit` as a borrowed slice.
pub fn route_subs_into<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    source: NodeId,
    scratch: &mut RouteScratch,
    mut emit: impl FnMut(&[NodeId]),
) {
    let RouteScratch {
        nodes,
        neighbors,
        subs,
        ..
    } = scratch;
    for (via, dests) in subs.iter() {
        route_into(topo, labeling, &[source, via], dests, nodes, neighbors);
        emit(nodes);
    }
}

/// Multi-path routing on a 2D mesh (coordinate-split preparation).
pub fn multi_path_mesh(mesh: &Mesh2D, labeling: &Labeling, mc: &MulticastSet) -> Vec<PathRoute> {
    let mut scratch = RouteScratch::new();
    prepare_mesh_into(mesh, labeling, mc, &mut scratch);
    collect_subs(mesh, labeling, mc, &mut scratch)
}

/// Multi-path routing on any labeled topology (interval-split
/// preparation) — the hypercube algorithm of §6.3.
pub fn multi_path<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> Vec<PathRoute> {
    let mut scratch = RouteScratch::new();
    prepare_by_intervals_into(topo, labeling, mc, &mut scratch);
    collect_subs(topo, labeling, mc, &mut scratch)
}

fn collect_subs<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    mc: &MulticastSet,
    scratch: &mut RouteScratch,
) -> Vec<PathRoute> {
    let mut paths = Vec::new();
    route_subs_into(topo, labeling, mc.source, scratch, |nodes| {
        paths.push(PathRoute::new(nodes.to_vec()))
    });
    paths
}

/// Convenience wrapper returning a [`MulticastRoute::Star`] (mesh split).
pub fn multi_path_mesh_route(
    mesh: &Mesh2D,
    labeling: &Labeling,
    mc: &MulticastSet,
) -> MulticastRoute {
    MulticastRoute::Star(multi_path_mesh(mesh, labeling, mc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
    use mcast_topology::Hypercube;

    fn example_6_16() -> (Mesh2D, Labeling, MulticastSet) {
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
    fn section_6_2_2_partition_matches_text() {
        // The text: D_H1 = {(5,3),(5,4),(4,5)}, D_H2 = {(1,3),(0,5)},
        // D_L1 = {(5,1),(5,0)}, D_L2 = {(0,2),(0,0)}.
        let (m, l, mc) = example_6_16();
        let subs = prepare_mesh(&m, &l, &mc);
        assert_eq!(subs.len(), 4);
        let coords =
            |v: &[NodeId]| -> Vec<(usize, usize)> { v.iter().map(|&n| m.coords(n)).collect() };
        // Source (3,2) is on row 2 (even): horizontal high neighbor is
        // (4,2), vertical is (3,3); horizontal low is (2,2), vertical (3,1).
        assert_eq!(coords(&subs[0].dests), vec![(5, 3), (5, 4), (4, 5)]);
        assert_eq!(m.coords(subs[0].via), (4, 2));
        assert_eq!(coords(&subs[1].dests), vec![(1, 3), (0, 5)]);
        assert_eq!(m.coords(subs[1].via), (3, 3));
        // Low side: the horizontal low neighbor (2,2) carries the west
        // destinations, the vertical (3,1) the east ones.
        assert_eq!(coords(&subs[2].dests), vec![(0, 2), (0, 0)]);
        assert_eq!(m.coords(subs[2].via), (2, 2));
        assert_eq!(coords(&subs[3].dests), vec![(5, 1), (5, 0)]);
        assert_eq!(m.coords(subs[3].via), (3, 1));
    }

    #[test]
    fn fig_6_16_traffic_and_max_distance() {
        // Fig 6.16: the text reports 20 channels and max distance 6. The
        // faithful construction gives 21 channels (paths of 6+6+5+4;
        // hand-verified — the drawn figure saves one channel with a
        // different tie-break) and the same max distance 6. Either way
        // multi-path massively improves on dual-path's 33 channels / 18
        // hops for this example.
        let (m, l, mc) = example_6_16();
        let paths = multi_path_mesh(&m, &l, &mc);
        let total: usize = paths.iter().map(PathRoute::len).sum();
        assert_eq!(total, 21);
        let route = MulticastRoute::Star(paths);
        route.validate(&m, &mc).unwrap();
        assert_eq!(route.max_dest_hops(&mc), Some(6));
    }

    #[test]
    fn fig_6_21_hypercube_multi_path() {
        // §6.3 / Fig 6.21: 4-cube, source 1100, same destinations as the
        // dual-path example.
        let h = Hypercube::new(4);
        let l = hypercube_gray(&h);
        let mc = MulticastSet::new(0b1100, [0b0100, 0b0011, 0b0111, 0b1000, 0b1111]);
        let paths = multi_path(&h, &l, &mc);
        let route = MulticastRoute::Star(paths.clone());
        route.validate(&h, &mc).unwrap();
        // Multi-path never exceeds dual-path's channel count here.
        let dual: usize = crate::dual_path::dual_path(&h, &l, &mc)
            .iter()
            .map(PathRoute::len)
            .sum();
        let multi: usize = paths.iter().map(PathRoute::len).sum();
        assert!(multi <= dual, "multi {multi} > dual {dual}");
    }

    #[test]
    fn interval_partition_covers_high_and_low_exactly_once() {
        let h = Hypercube::new(5);
        let l = hypercube_gray(&h);
        let mc = MulticastSet::new(13, [0, 1, 5, 9, 17, 22, 28, 31, 30]);
        let subs = prepare_by_intervals(&h, &l, &mc);
        let mut all: Vec<NodeId> = subs.iter().flat_map(|s| s.dests.clone()).collect();
        all.sort_unstable();
        let mut expect = mc.destinations.clone();
        expect.sort_unstable();
        assert_eq!(all, expect);
        // Every sub-list is label-monotone away from the source.
        let l0 = l.label(mc.source);
        for s in &subs {
            let high = l.label(s.via) > l0;
            assert!(s.dests.windows(2).all(|w| {
                if high {
                    l.label(w[0]) < l.label(w[1])
                } else {
                    l.label(w[0]) > l.label(w[1])
                }
            }));
            // First destination is reachable monotonically from via.
            if high {
                assert!(l.label(s.dests[0]) >= l.label(s.via));
            } else {
                assert!(l.label(s.dests[0]) <= l.label(s.via));
            }
        }
    }

    #[test]
    fn mesh_paths_remain_label_monotone() {
        let (m, l, mc) = example_6_16();
        let l0 = l.label(mc.source);
        for p in multi_path_mesh(&m, &l, &mc) {
            let labels: Vec<usize> = p.nodes().iter().map(|&n| l.label(n)).collect();
            if labels[1] > l0 {
                assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
            } else {
                assert!(labels.windows(2).all(|w| w[0] > w[1]), "{labels:?}");
            }
        }
    }

    #[test]
    fn all_destinations_on_one_column_single_path_each_side() {
        let m = Mesh2D::new(6, 6);
        let l = mesh2d_snake(&m);
        let mc = MulticastSet::new(m.node(3, 2), [m.node(3, 4), m.node(3, 0), m.node(3, 5)]);
        let paths = multi_path_mesh(&m, &l, &mc);
        MulticastRoute::Star(paths).validate(&m, &mc).unwrap();
    }
}
