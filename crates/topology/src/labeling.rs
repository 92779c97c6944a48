//! Hamiltonian-path node labelings and the high/low-channel network
//! partition (§6.2.2, §6.3).
//!
//! Every deadlock-free path-based multicast scheme in Chapter 6 starts from
//! a label assignment `ℓ` that enumerates a Hamiltonian path: the first node
//! of the path gets label 0, the last gets `N−1`. The labeling splits the
//! directed channels into the *high-channel network* (from lower to higher
//! labels) and the *low-channel network* (from higher to lower labels);
//! each is acyclic, which is what makes the routing schemes deadlock-free.

use crate::graph::{Channel, NodeId, Topology};
use crate::gray::{gray_decode, gray_encode, kary_gray_digits, kary_gray_index};
use crate::hypercube::Hypercube;
use crate::karyn::KAryNCube;
use crate::mesh2d::Mesh2D;
use crate::mesh3d::Mesh3D;

/// A bijective node labeling along a Hamiltonian path.
///
/// Stored densely in both directions so `label` and `node_at` are O(1).
/// Equality compares the label tables only: a table built by
/// [`Labeling::from_path`] equals the dissertation labeling it copies,
/// whatever [`LabelingKind`] each records.
#[derive(Debug, Clone)]
pub struct Labeling {
    label_of: Vec<usize>,
    node_at: Vec<NodeId>,
    kind: LabelingKind,
}

/// How a [`Labeling`] was built. The dissertation's own labelings have a
/// closed form, which the routing function `R` uses instead of reading
/// labels from the table (`mcast_core::routing_fn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelingKind {
    /// The row snake of a `width`-wide [`Mesh2D`] ([`mesh2d_snake`]):
    /// node `y·width + x` has label [`mesh2d_snake_label`]`(x, y)`.
    MeshSnake {
        /// The mesh width `w`.
        width: usize,
    },
    /// The Gray labeling of a [`Hypercube`] ([`hypercube_gray`]):
    /// node `v` has label `gray_decode(v)`.
    CubeGray,
    /// Any other labeling: only the table is known.
    Table,
}

impl PartialEq for Labeling {
    fn eq(&self, other: &Self) -> bool {
        // `node_at` determines `label_of`.
        self.node_at == other.node_at
    }
}

impl Eq for Labeling {}

impl Labeling {
    /// Builds a labeling from an explicit Hamiltonian path (node visiting
    /// order). Verifies bijectivity; path adjacency is the caller's
    /// responsibility (checked separately by
    /// [`Labeling::is_hamiltonian_path_of`]).
    ///
    /// # Panics
    /// Panics if `path` is not a permutation of `0..path.len()`.
    pub fn from_path(path: Vec<NodeId>) -> Self {
        let n = path.len();
        let mut label_of = vec![usize::MAX; n];
        for (l, &node) in path.iter().enumerate() {
            assert!(node < n, "node id {node} out of range");
            assert_eq!(label_of[node], usize::MAX, "node {node} appears twice");
            label_of[node] = l;
        }
        Labeling {
            label_of,
            node_at: path,
            kind: LabelingKind::Table,
        }
    }

    /// How the labeling was built: a closed-form dissertation labeling,
    /// or a plain table.
    #[inline]
    pub fn kind(&self) -> LabelingKind {
        self.kind
    }

    /// Number of nodes labeled.
    pub fn len(&self) -> usize {
        self.node_at.len()
    }

    /// Whether the labeling is empty (it never is for a valid topology).
    pub fn is_empty(&self) -> bool {
        self.node_at.is_empty()
    }

    /// The label `ℓ(n)` of a node.
    #[inline]
    pub fn label(&self, n: NodeId) -> usize {
        self.label_of[n]
    }

    /// The node with label `l`.
    #[inline]
    pub fn node_at(&self, l: usize) -> NodeId {
        self.node_at[l]
    }

    /// The Hamiltonian path as a node sequence (label order).
    pub fn path(&self) -> &[NodeId] {
        &self.node_at
    }

    /// Checks that consecutive labels are adjacent in `topo`, i.e. the
    /// labeling really enumerates a Hamiltonian path.
    pub fn is_hamiltonian_path_of<T: Topology + ?Sized>(&self, topo: &T) -> bool {
        self.len() == topo.num_nodes() && self.node_at.windows(2).all(|w| topo.adjacent(w[0], w[1]))
    }

    /// Whether channel `c` belongs to the high-channel network
    /// (`ℓ(from) < ℓ(to)`).
    #[inline]
    pub fn is_high(&self, c: Channel) -> bool {
        self.label(c.from) < self.label(c.to)
    }

    /// The channels of the high-channel subnetwork of `topo`.
    pub fn high_channels<T: Topology + ?Sized>(&self, topo: &T) -> Vec<Channel> {
        topo.channels()
            .into_iter()
            .filter(|&c| self.is_high(c))
            .collect()
    }

    /// The channels of the low-channel subnetwork of `topo`.
    pub fn low_channels<T: Topology + ?Sized>(&self, topo: &T) -> Vec<Channel> {
        topo.channels()
            .into_iter()
            .filter(|&c| !self.is_high(c))
            .collect()
    }
}

/// The dissertation's 2D-mesh label assignment (§6.2.2):
/// `ℓ(x, y) = y·w + x` for even rows, `y·w + w − x − 1` for odd rows — the
/// boustrophedon ("snake") Hamiltonian path starting at `(0, 0)`.
///
/// ```
/// use mcast_topology::labeling::mesh2d_snake;
/// use mcast_topology::Mesh2D;
///
/// let mesh = Mesh2D::new(4, 3);
/// let l = mesh2d_snake(&mesh);
/// assert!(l.is_hamiltonian_path_of(&mesh));
/// assert_eq!(l.label(mesh.node(0, 0)), 0);
/// assert_eq!(l.label(mesh.node(3, 1)), 4); // odd rows run right-to-left
/// ```
pub fn mesh2d_snake(mesh: &Mesh2D) -> Labeling {
    let w = mesh.width();
    let path = (0..mesh.num_nodes())
        .map(|l| {
            let y = l / w;
            let x = if y.is_multiple_of(2) {
                l % w
            } else {
                w - 1 - l % w
            };
            mesh.node(x, y)
        })
        .collect();
    Labeling {
        kind: LabelingKind::MeshSnake { width: w },
        ..Labeling::from_path(path)
    }
}

/// The label `ℓ(x, y)` of the snake labeling in closed form, matching
/// §6.2.2's definition.
pub fn mesh2d_snake_label(mesh: &Mesh2D, x: usize, y: usize) -> usize {
    snake_label(mesh.width(), x, y)
}

/// [`mesh2d_snake_label`] given only the mesh width `w`.
#[inline]
pub fn snake_label(w: usize, x: usize, y: usize) -> usize {
    if y.is_multiple_of(2) {
        y * w + x
    } else {
        y * w + w - x - 1
    }
}

/// The hypercube label assignment of §6.3: `ℓ(v) = gray_decode(v)`, so the
/// Hamiltonian path visits the binary reflected Gray code sequence.
pub fn hypercube_gray(cube: &Hypercube) -> Labeling {
    let path = (0..cube.num_nodes()).map(gray_encode).collect();
    let l = Labeling {
        kind: LabelingKind::CubeGray,
        ..Labeling::from_path(path)
    };
    debug_assert!((0..cube.num_nodes()).all(|v| l.label(v) == gray_decode(v)));
    l
}

/// A layered boustrophedon labeling for 3D meshes: each `z` layer is
/// traversed by the 2D snake, with odd layers reversed so consecutive
/// labels stay adjacent across layer boundaries.
pub fn mesh3d_snake(mesh: &Mesh3D) -> Labeling {
    let layer = Mesh2D::new(mesh.width(), mesh.height());
    let per_layer = layer.num_nodes();
    let snake = mesh2d_snake(&layer);
    let mut path = Vec::with_capacity(mesh.num_nodes());
    for z in 0..mesh.depth() {
        for i in 0..per_layer {
            let idx = if z % 2 == 0 { i } else { per_layer - 1 - i };
            let (x, y) = layer.coords(snake.node_at(idx));
            path.push(mesh.node(x, y, z));
        }
    }
    Labeling::from_path(path)
}

/// Radix-k reflected-Gray-code labeling for k-ary n-cubes: consecutive
/// labels differ by ±1 in one digit, hence are adjacent in both the mesh
/// and torus variants.
pub fn karyn_gray(cube: &KAryNCube) -> Labeling {
    let k = cube.k();
    let n = cube.n();
    let path = (0..cube.num_nodes())
        .map(|i| cube.from_digits(&kary_gray_digits(i, k, n)))
        .collect();
    let l = Labeling::from_path(path);
    debug_assert!((0..cube.num_nodes()).all(|v| l.label(v) == kary_gray_index(&cube.digits(v), k)));
    l
}

/// The *alternative* 4×3-mesh labeling of Fig. 6.10 (column-major snake),
/// provided to demonstrate that routing quality depends on the choice of
/// Hamiltonian path (§6.2.2's discussion of non-shortest paths).
pub fn mesh2d_column_snake(mesh: &Mesh2D) -> Labeling {
    let h = mesh.height();
    let path = (0..mesh.num_nodes())
        .map(|l| {
            let x = l / h;
            let y = if x.is_multiple_of(2) {
                l % h
            } else {
                h - 1 - l % h
            };
            mesh.node(x, y)
        })
        .collect();
    Labeling::from_path(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    #[test]
    fn snake_matches_closed_form_and_fig_6_9() {
        // Fig 6.9(a): 4×3 mesh row-snake labels.
        let m = Mesh2D::new(4, 3);
        let l = mesh2d_snake(&m);
        assert!(l.is_hamiltonian_path_of(&m));
        // Row 0 left-to-right: labels 0..3.
        assert_eq!(l.label(m.node(0, 0)), 0);
        assert_eq!(l.label(m.node(3, 0)), 3);
        // Row 1 right-to-left: (3,1) -> 4, (0,1) -> 7.
        assert_eq!(l.label(m.node(3, 1)), 4);
        assert_eq!(l.label(m.node(0, 1)), 7);
        // Row 2 left-to-right again.
        assert_eq!(l.label(m.node(0, 2)), 8);
        assert_eq!(l.label(m.node(3, 2)), 11);
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(l.label(m.node(x, y)), mesh2d_snake_label(&m, x, y));
            }
        }
    }

    #[test]
    fn snake_label_example_from_section_6_2_2() {
        // §6.2.2 notes that under the Fig 6.10 column labeling, nodes (1,0)
        // and (1,2) get labels 4 and 8 but are 4 channels apart in either
        // subnetwork; the row-snake gives them a 2-hop monotone path.
        let m = Mesh2D::new(4, 3);
        let col = mesh2d_column_snake(&m);
        assert!(col.is_hamiltonian_path_of(&m));
        assert_eq!(col.label(m.node(1, 0)), 5); // column snake: x=1 top-down reversed
        let row = mesh2d_snake(&m);
        assert_eq!(row.label(m.node(1, 0)), 1);
        assert_eq!(row.label(m.node(1, 2)), 9);
    }

    #[test]
    fn gray_labeling_is_hamiltonian() {
        for dim in 1..=8 {
            let c = Hypercube::new(dim);
            let l = hypercube_gray(&c);
            assert!(l.is_hamiltonian_path_of(&c), "dim {dim}");
        }
    }

    #[test]
    fn gray_labeling_matches_fig_6_18() {
        // Fig 6.18(a): 3-cube labels along Gray path 000,001,011,010,110,
        // 111,101,100 get labels 0..7.
        let c = Hypercube::new(3);
        let l = hypercube_gray(&c);
        let order = [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100];
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(l.label(v), i);
            assert_eq!(l.node_at(i), v);
        }
    }

    #[test]
    fn mesh3d_snake_is_hamiltonian() {
        for (w, h, d) in [(3, 3, 3), (4, 3, 2), (2, 2, 5), (5, 4, 3)] {
            let m = Mesh3D::new(w, h, d);
            let l = mesh3d_snake(&m);
            assert!(l.is_hamiltonian_path_of(&m), "{w}x{h}x{d}");
        }
    }

    #[test]
    fn karyn_gray_is_hamiltonian() {
        for (k, n) in [(3usize, 3u32), (4, 2), (5, 2), (2, 5)] {
            let mesh = KAryNCube::mesh(k, n);
            let l = karyn_gray(&mesh);
            assert!(l.is_hamiltonian_path_of(&mesh), "mesh k={k} n={n}");
            let torus = KAryNCube::torus(k, n);
            let lt = karyn_gray(&torus);
            assert!(lt.is_hamiltonian_path_of(&torus), "torus k={k} n={n}");
        }
    }

    #[test]
    fn high_low_channels_partition_all_channels() {
        let m = Mesh2D::new(4, 3);
        let l = mesh2d_snake(&m);
        let hi = l.high_channels(&m);
        let lo = l.low_channels(&m);
        assert_eq!(hi.len() + lo.len(), m.num_channels());
        // The two subnetworks are mirror images.
        let mut lo_rev: Vec<_> = lo.iter().map(|c| c.reversed()).collect();
        let mut hi_sorted = hi.clone();
        hi_sorted.sort_unstable();
        lo_rev.sort_unstable();
        assert_eq!(hi_sorted, lo_rev);
    }

    #[test]
    fn kind_is_recorded_but_not_compared() {
        let m = Mesh2D::new(5, 3);
        let snake = mesh2d_snake(&m);
        assert_eq!(snake.kind(), LabelingKind::MeshSnake { width: 5 });
        let table = Labeling::from_path(snake.path().to_vec());
        assert_eq!(table.kind(), LabelingKind::Table);
        assert_eq!(snake, table);
        let c = Hypercube::new(4);
        assert_eq!(hypercube_gray(&c).kind(), LabelingKind::CubeGray);
        assert_eq!(
            mesh3d_snake(&Mesh3D::new(2, 2, 2)).kind(),
            LabelingKind::Table
        );
        assert_eq!(mesh2d_column_snake(&m).kind(), LabelingKind::Table);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_node_in_path_rejected() {
        let _ = Labeling::from_path(vec![0, 1, 1]);
    }
}
