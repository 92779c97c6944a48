//! The label-based routing function `R` of §6.2.2 / §6.3, shared by the
//! dual-path, multi-path and fixed-path schemes.
//!
//! Given a Hamiltonian labeling `ℓ`, `R(u, v)` forwards a message at node
//! `u` bound for `v` to the neighbor `w` with
//!
//! * `ℓ(w) = max{ℓ(p) : ℓ(p) ≤ ℓ(v)}` when `ℓ(u) < ℓ(v)` (high-channel
//!   network), or
//! * `ℓ(w) = min{ℓ(p) : ℓ(p) ≥ ℓ(v)}` when `ℓ(u) > ℓ(v)` (low-channel
//!   network),
//!
//! `p` ranging over `u`'s neighbors. Because the Hamiltonian-path successor
//! (predecessor) of `u` is itself a neighbor, `R` always makes label
//! progress, so every selected path is label-monotone — it lives entirely
//! in one of the two acyclic subnetworks. For the dissertation's mesh and
//! hypercube labelings the selected path is also a *shortest* path
//! (Lemmas 6.1 and 6.4), which the test suites verify exhaustively.
//!
//! [`r_step`] picks its method from the labeling's [`LabelingKind`]:
//!
//! * **Snake mesh** (`mesh2d_snake`): the neighbor one row toward `v` has
//!   a label beyond every label of `u`'s row, so it is `R`'s choice
//!   whenever its label lies in the window `(ℓ(u), ℓ(v)]` (mirrored when
//!   `ℓ(u) > ℓ(v)`). Otherwise `v` lies in that very row, on the side
//!   where `u`'s row runs toward higher (lower) labels, and `R` steps
//!   along the row toward `v`'s column.
//! * **Gray cube** (`hypercube_gray`): flipping address bit `i` flips
//!   label bits `0..=i`, so the neighbor's label is
//!   `ℓ(u) XOR (2^(i+1) − 1)`. The distance-reducing neighbors are the set
//!   bits of `u XOR v`; `R` takes the extreme label inside the window.
//!
//! Both read no table. Every other labeling (3D snake, k-ary Gray,
//! column snake, BFS orders, `Labeling::from_path`) takes the generic
//! neighbor scan, which is also the reference the closed forms are
//! tested against.

use mcast_topology::gray::gray_decode;
use mcast_topology::labeling::snake_label;
use mcast_topology::{Labeling, LabelingKind, NodeId, Topology};

/// One step of the routing function `R(u, v)`.
///
/// On the dissertation's snake mesh and Gray cube labelings the step is
/// computed in closed form; `topo` must then be the mesh or cube the
/// labeling was built for.
///
/// # Panics
/// Panics if `u == v` (no step needed) — callers check first.
#[inline]
pub fn r_step<T: Topology + ?Sized>(topo: &T, labeling: &Labeling, u: NodeId, v: NodeId) -> NodeId {
    assert_ne!(u, v, "R(u, u) is undefined");
    debug_assert_fits(topo, labeling);
    step(topo, labeling, u, v, &mut Vec::new())
}

/// Debug check that `topo` is the graph a closed-form `labeling` was
/// built for, since the closed forms compute neighbors from node numbers
/// alone: the node count, and on the snake mesh the corner-to-corner
/// distance of a `w`-wide mesh with node `w` one row below node 0, on the
/// Gray cube the corner-to-corner distance `log₂ n`.
#[inline]
fn debug_assert_fits<T: Topology + ?Sized>(topo: &T, labeling: &Labeling) {
    let n = labeling.len();
    debug_assert_eq!(topo.num_nodes(), n, "labeling of another topology");
    let fits = match labeling.kind() {
        LabelingKind::MeshSnake { width: w } => {
            (n == w || topo.distance(0, w) == 1) && topo.distance(0, n - 1) == w + n / w - 2
        }
        LabelingKind::CubeGray => topo.distance(0, n - 1) == n.trailing_zeros() as usize,
        LabelingKind::Table => true,
    };
    debug_assert!(
        fits,
        "{:?} labeling on {}",
        labeling.kind(),
        topo.describe()
    );
}

/// [`r_step`] for `u != v`, with `neighbors` as the generic scan's
/// working buffer.
#[inline]
fn step<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    u: NodeId,
    v: NodeId,
    neighbors: &mut Vec<NodeId>,
) -> NodeId {
    match labeling.kind() {
        LabelingKind::MeshSnake { width: w } => {
            let (x, y) = snake_step(w, (u % w, u / w), (v % w, v / w));
            y * w + x
        }
        LabelingKind::CubeGray => gray_step(u, v),
        LabelingKind::Table => scan_step(topo, labeling, u, v, neighbors),
    }
}

/// `R` on the row snake of a `w`-wide mesh, in `(x, y)` coordinates
/// (node `y·w + x`).
#[inline]
fn snake_step(w: usize, (x, y): (usize, usize), (xv, yv): (usize, usize)) -> (usize, usize) {
    let lv = snake_label(w, xv, yv);
    if snake_label(w, x, y) < lv {
        if yv > y && snake_label(w, x, y + 1) <= lv {
            return (x, y + 1);
        }
    } else if yv < y && snake_label(w, x, y - 1) >= lv {
        return (x, y - 1);
    }
    if xv > x {
        (x + 1, y)
    } else {
        (x - 1, y)
    }
}

/// `R` on the Gray-labelled hypercube.
///
/// A distance-reducing neighbor always lies in the window (Lemma 6.4):
/// say `ℓ(u) < ℓ(v)` and `j` is the top label bit where they differ.
/// Flipping address bit `j` lands in the window unless the complement of
/// `ℓ(u)`'s low bits exceeds `ℓ(v)`'s; then at the top bit `k < j` where
/// those two differ, `ℓ(u)` and `ℓ(v)` both hold 0, so address bit `k`
/// differs and flipping it lands in the window. The low side mirrors
/// this.
fn gray_step(u: NodeId, v: NodeId) -> NodeId {
    let lu = gray_decode(u);
    let lv = gray_decode(v);
    let up = lu < lv;
    let mut best: Option<(usize, NodeId)> = None;
    let mut diff = u ^ v;
    while diff != 0 {
        let i = diff.trailing_zeros();
        diff &= diff - 1;
        let lp = lu ^ (usize::MAX >> (usize::BITS - 1 - i));
        let better = if up {
            lp > lu && lp <= lv && best.is_none_or(|(lb, _)| lp > lb)
        } else {
            lp < lu && lp >= lv && best.is_none_or(|(lb, _)| lp < lb)
        };
        if better {
            best = Some((lp, u ^ (1 << i)));
        }
    }
    best.expect("Lemma 6.4: a reducing neighbor lies in the window")
        .1
}

/// `R` by scanning `u`'s neighbors and their labels: the definition,
/// valid on any Hamiltonian labeling.
fn scan_step<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    u: NodeId,
    v: NodeId,
    nb: &mut Vec<NodeId>,
) -> NodeId {
    let lu = labeling.label(u);
    let lv = labeling.label(v);
    let duv = topo.distance(u, v);
    topo.neighbors_into(u, nb);
    // Candidates inside the monotone label window. Among them, prefer the
    // distance-reducing ones: Lemma 6.1/6.4's induction constructs, for
    // every (u, v) with ℓ(u) < ℓ(v), a *shortest-path* neighbor with label
    // strictly between ℓ(u) and ℓ(v) — so a reducing candidate always
    // exists on the dissertation's mesh and hypercube labelings, and
    // picking the extreme label among them realizes the lemma's shortest
    // monotone path. (On the 2D mesh the unrestricted extreme choice is
    // already distance-reducing; on the hypercube it is not — e.g.
    // 000→101 under the Gray labeling — which is why the restriction is
    // part of the routing function.) For labelings without the
    // shortest-path property the unrestricted extreme keeps the walk
    // monotone and terminating.
    let pick = |cands: &mut dyn Iterator<Item = NodeId>| -> Option<NodeId> {
        if lu < lv {
            cands.max_by_key(|&p| labeling.label(p))
        } else {
            cands.min_by_key(|&p| labeling.label(p))
        }
    };
    let in_window = |p: NodeId| {
        let lp = labeling.label(p);
        if lu < lv {
            lp > lu && lp <= lv
        } else {
            lp < lu && lp >= lv
        }
    };
    let reducing = pick(
        &mut nb
            .iter()
            .copied()
            .filter(|&p| in_window(p) && topo.distance(p, v) < duv),
    );
    reducing
        .or_else(|| pick(&mut nb.iter().copied().filter(|&p| in_window(p))))
        .expect("Hamiltonian successor/predecessor of u is a neighbor, so a candidate exists")
}

/// The full path selected by `R` from `u` to `v` (inclusive).
///
/// The path is label-monotone; for the dissertation's labelings it is a
/// shortest path.
pub fn r_path<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    u: NodeId,
    v: NodeId,
) -> Vec<NodeId> {
    let mut path = vec![u];
    let mut cur = u;
    while cur != v {
        let next = r_step(topo, labeling, cur, v);
        debug_assert!(
            if labeling.label(u) < labeling.label(v) {
                labeling.label(next) > labeling.label(cur)
            } else {
                labeling.label(next) < labeling.label(cur)
            },
            "R must make monotone label progress"
        );
        path.push(next);
        cur = next;
    }
    path
}

/// Extends `path` (ending at some node `w`) to `v` using `R`, visiting the
/// intermediate nodes. Used by the path-based multicast drivers.
pub fn r_extend<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    path: &mut Vec<NodeId>,
    v: NodeId,
) {
    r_extend_through(topo, labeling, path, &[v], &mut Vec::new());
}

/// [`r_extend`] to each of `dests` in turn (the path of a header listing
/// `dests` in routing order), with `neighbors` as the generic scan's
/// working buffer.
pub(crate) fn r_extend_through<T: Topology + ?Sized>(
    topo: &T,
    labeling: &Labeling,
    path: &mut Vec<NodeId>,
    dests: &[NodeId],
    neighbors: &mut Vec<NodeId>,
) {
    debug_assert_fits(topo, labeling);
    let mut cur = *path.last().expect("path is never empty");
    for &v in dests {
        while cur != v {
            cur = step(topo, labeling, cur, v, neighbors);
            path.push(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::labeling::{hypercube_gray, karyn_gray, mesh2d_snake, mesh3d_snake};
    use mcast_topology::{Hypercube, KAryNCube, Mesh2D, Mesh3D};

    fn check_r_shortest_and_monotone<T: Topology>(topo: &T, labeling: &Labeling) {
        for u in 0..topo.num_nodes() {
            for v in 0..topo.num_nodes() {
                if u == v {
                    continue;
                }
                let p = r_path(topo, labeling, u, v);
                assert_eq!(p[0], u);
                assert_eq!(*p.last().unwrap(), v);
                // Monotone labels (partial-order preserved, Lemma 6.1/6.4).
                let labels: Vec<usize> = p.iter().map(|&n| labeling.label(n)).collect();
                if labeling.label(u) < labeling.label(v) {
                    assert!(labels.windows(2).all(|w| w[0] < w[1]), "u={u} v={v}");
                } else {
                    assert!(labels.windows(2).all(|w| w[0] > w[1]), "u={u} v={v}");
                }
                // Shortest (Lemma 6.1 for mesh, 6.4 for cube).
                assert_eq!(p.len() - 1, topo.distance(u, v), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn lemma_6_1_mesh_paths_shortest_and_monotone() {
        for (w, h) in [(4, 3), (3, 4), (6, 6), (5, 5), (2, 8)] {
            let m = Mesh2D::new(w, h);
            let l = mesh2d_snake(&m);
            check_r_shortest_and_monotone(&m, &l);
        }
    }

    #[test]
    fn lemma_6_4_hypercube_paths_shortest_and_monotone() {
        for dim in 1..=6 {
            let c = Hypercube::new(dim);
            let l = hypercube_gray(&c);
            check_r_shortest_and_monotone(&c, &l);
        }
    }

    #[test]
    fn mesh3d_paths_monotone_and_terminate() {
        // The 3D snake labeling gives monotone paths; they are not always
        // shortest (the dissertation only proves shortest-ness for 2D mesh
        // and hypercube), but R must still deliver.
        let m = Mesh3D::new(3, 3, 3);
        let l = mesh3d_snake(&m);
        for u in 0..m.num_nodes() {
            for v in 0..m.num_nodes() {
                if u == v {
                    continue;
                }
                let p = r_path(&m, &l, u, v);
                assert_eq!(*p.last().unwrap(), v);
                let labels: Vec<usize> = p.iter().map(|&n| l.label(n)).collect();
                assert!(
                    labels
                        .windows(2)
                        .all(|w| (w[0] < w[1]) == (l.label(u) < l.label(v))),
                    "u={u} v={v}"
                );
            }
        }
    }

    #[test]
    fn kary_gray_paths_monotone_and_terminate() {
        let t = KAryNCube::mesh(3, 3);
        let l = karyn_gray(&t);
        for u in 0..t.num_nodes() {
            for v in 0..t.num_nodes() {
                if u == v {
                    continue;
                }
                let p = r_path(&t, &l, u, v);
                assert_eq!(*p.last().unwrap(), v);
            }
        }
    }

    /// `r_step` on `labeling`'s closed form against the generic scan on
    /// the same table, at every ordered pair of distinct nodes.
    fn check_closed_form_matches_scan<T: Topology>(topo: &T, labeling: &Labeling) {
        assert_ne!(labeling.kind(), LabelingKind::Table);
        let table = Labeling::from_path(labeling.path().to_vec());
        assert_eq!(table.kind(), LabelingKind::Table);
        for u in 0..topo.num_nodes() {
            for v in (0..topo.num_nodes()).filter(|&v| v != u) {
                assert_eq!(
                    r_step(topo, labeling, u, v),
                    scan_step(topo, &table, u, v, &mut Vec::new()),
                    "{} u={u} v={v}",
                    topo.describe()
                );
            }
        }
    }

    #[test]
    fn snake_closed_form_equals_generic_r() {
        for (w, h) in [
            (1, 5),
            (5, 1),
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 3),
            (6, 6),
            (7, 5),
            (9, 12),
            (16, 16),
        ] {
            let m = Mesh2D::new(w, h);
            check_closed_form_matches_scan(&m, &mesh2d_snake(&m));
        }
    }

    #[test]
    fn gray_closed_form_equals_generic_r() {
        for dim in 1..=10 {
            let c = Hypercube::new(dim);
            check_closed_form_matches_scan(&c, &hypercube_gray(&c));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "MeshSnake")]
    fn snake_on_transposed_mesh_trips_the_guard() {
        let l = mesh2d_snake(&Mesh2D::new(4, 6));
        r_step(&Mesh2D::new(6, 4), &l, 0, 23);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CubeGray")]
    fn gray_on_equal_size_mesh_trips_the_guard() {
        let l = hypercube_gray(&Hypercube::new(4));
        r_step(&Mesh2D::new(4, 4), &l, 0, 15);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "labeling of another topology")]
    fn labeling_of_other_size_trips_the_guard() {
        let l = hypercube_gray(&Hypercube::new(4));
        let mut path = vec![0];
        r_extend(&Hypercube::new(5), &l, &mut path, 3);
    }

    #[test]
    fn r_extend_appends_in_place() {
        let m = Mesh2D::new(4, 4);
        let l = mesh2d_snake(&m);
        let mut path = vec![m.node(0, 0)];
        r_extend(&m, &l, &mut path, m.node(2, 0));
        r_extend(&m, &l, &mut path, m.node(3, 2));
        assert_eq!(path[0], m.node(0, 0));
        assert_eq!(*path.last().unwrap(), m.node(3, 2));
        assert!(mcast_topology::graph::is_walk(&m, &path));
    }
}
