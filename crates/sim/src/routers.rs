//! Adapters turning the `mcast-core` routing algorithms into
//! [`DeliveryPlan`] factories for the engine.
//!
//! Each router corresponds to one scheme evaluated in Chapter 7. Routers
//! also declare how many channel classes their network needs (1, or 2 for
//! the double-channel tree scheme) so experiment harnesses can build the
//! right [`crate::network::Network`].

use mcast_core::model::MulticastSet;
use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
use mcast_topology::{Hypercube, Labeling, Mesh2D, Topology};

use crate::plan::{ClassChoice, DeliveryPlan, PlanArena, PlanPath, PlanWorm};

/// A multicast routing scheme usable by the simulator.
pub trait MulticastRouter {
    /// Short name for reports (e.g. `"dual-path"`).
    fn name(&self) -> &'static str;

    /// Channel classes the scheme needs (1 = single, 2 = double).
    fn required_classes(&self) -> u8 {
        1
    }

    /// Produces the delivery plan for a multicast set.
    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan;

    /// Builds the plan for `mc` into `out`, recycling `out`'s previous
    /// buffers through `arena` (DESIGN.md §16). The result must be
    /// identical to `plan(mc)`; the default implementation guarantees
    /// that by delegating, and drops the old plan rather than pooling
    /// buffers it would never take back out. Routers on the streaming
    /// hot path override this to reuse arena buffers instead of
    /// allocating.
    fn plan_into(&self, mc: &MulticastSet, _arena: &mut PlanArena, out: &mut DeliveryPlan) {
        *out = self.plan(mc);
    }
}

impl<R: MulticastRouter + ?Sized> MulticastRouter for Box<R> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn required_classes(&self) -> u8 {
        self.as_ref().required_classes()
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        self.as_ref().plan(mc)
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        self.as_ref().plan_into(mc, arena, out)
    }
}

/// Dual-path routing (§6.2.2 / §6.3) over any labeled topology.
pub struct DualPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
    class: ClassChoice,
}

impl DualPathRouter<Mesh2D> {
    /// Dual-path on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D) -> Self {
        let labeling = mesh2d_snake(&mesh);
        DualPathRouter {
            topo: mesh,
            labeling,
            class: ClassChoice::Any,
        }
    }
}

impl DualPathRouter<Hypercube> {
    /// Dual-path on a Gray-labeled hypercube.
    pub fn hypercube(cube: Hypercube) -> Self {
        let labeling = hypercube_gray(&cube);
        DualPathRouter {
            topo: cube,
            labeling,
            class: ClassChoice::Any,
        }
    }
}

impl<T: Topology> DualPathRouter<T> {
    /// Dual-path on any topology with a caller-supplied Hamiltonian-path
    /// labeling (the §6.2.2 construction only needs the label order).
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        DualPathRouter {
            topo,
            labeling,
            class: ClassChoice::Any,
        }
    }
}

impl<T: Topology> MulticastRouter for DualPathRouter<T> {
    fn name(&self) -> &'static str {
        "dual-path"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let paths = mcast_core::dual_path::dual_path(&self.topo, &self.labeling, mc);
        DeliveryPlan::from_paths(mc, &paths, self.class)
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        arena.recycle(out);
        out.source = mc.source;
        let mut dests = arena.node_buf();
        dests.extend_from_slice(&mc.destinations);
        out.destinations = dests;
        // At most two paths (high/low); pre-draw their buffers so the
        // emit closure never touches the arena while the scratch is
        // borrowed out of it.
        let mut bufs = [Some(arena.node_buf()), Some(arena.node_buf())];
        let mut next = 0;
        let class = self.class;
        mcast_core::dual_path::dual_path_into(
            &self.topo,
            &self.labeling,
            mc,
            arena.dual_scratch(),
            |nodes| {
                let mut buf = bufs[next]
                    .take()
                    .expect("dual-path emits at most two paths");
                next += 1;
                buf.extend_from_slice(nodes);
                out.worms
                    .push(PlanWorm::Path(PlanPath { nodes: buf, class }));
            },
        );
        for b in bufs.into_iter().flatten() {
            arena.put_node_buf(b);
        }
    }
}

/// Multi-path routing (§6.2.2 Fig 6.14) on a 2D mesh.
pub struct MultiPathMeshRouter {
    mesh: Mesh2D,
    labeling: Labeling,
}

impl MultiPathMeshRouter {
    /// Multi-path on a snake-labeled 2D mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        let labeling = mesh2d_snake(&mesh);
        MultiPathMeshRouter { mesh, labeling }
    }
}

impl MulticastRouter for MultiPathMeshRouter {
    fn name(&self) -> &'static str {
        "multi-path"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let paths = mcast_core::multi_path::multi_path_mesh(&self.mesh, &self.labeling, mc);
        DeliveryPlan::from_paths(mc, &paths, ClassChoice::Any)
    }
}

/// Multi-path routing (§6.3 Fig 6.20) on a hypercube (interval split).
pub struct MultiPathCubeRouter {
    cube: Hypercube,
    labeling: Labeling,
}

impl MultiPathCubeRouter {
    /// Multi-path on a Gray-labeled hypercube.
    pub fn new(cube: Hypercube) -> Self {
        let labeling = hypercube_gray(&cube);
        MultiPathCubeRouter { cube, labeling }
    }
}

impl MulticastRouter for MultiPathCubeRouter {
    fn name(&self) -> &'static str {
        "multi-path"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let paths = mcast_core::multi_path::multi_path(&self.cube, &self.labeling, mc);
        DeliveryPlan::from_paths(mc, &paths, ClassChoice::Any)
    }
}

/// Multi-path routing via the generic label-interval split (§6.3) on any
/// labeled topology — the construction `MultiPathCubeRouter` uses,
/// available wherever a Hamiltonian-path labeling exists (3D meshes,
/// k-ary n-cubes, ...).
pub struct MultiPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
}

impl<T: Topology> MultiPathRouter<T> {
    /// Interval-split multi-path on a caller-labeled topology.
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        MultiPathRouter { topo, labeling }
    }
}

impl<T: Topology> MulticastRouter for MultiPathRouter<T> {
    fn name(&self) -> &'static str {
        "multi-path"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let paths = mcast_core::multi_path::multi_path(&self.topo, &self.labeling, mc);
        DeliveryPlan::from_paths(mc, &paths, ClassChoice::Any)
    }
}

/// Fixed-path routing (§6.2.2 Fig 6.17) over any labeled topology.
pub struct FixedPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
}

impl FixedPathRouter<Mesh2D> {
    /// Fixed-path on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D) -> Self {
        let labeling = mesh2d_snake(&mesh);
        FixedPathRouter {
            topo: mesh,
            labeling,
        }
    }
}

impl FixedPathRouter<Hypercube> {
    /// Fixed-path on a Gray-labeled hypercube.
    pub fn hypercube(cube: Hypercube) -> Self {
        let labeling = hypercube_gray(&cube);
        FixedPathRouter {
            topo: cube,
            labeling,
        }
    }
}

impl<T: Topology> FixedPathRouter<T> {
    /// Fixed-path on a caller-labeled topology.
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        FixedPathRouter { topo, labeling }
    }
}

impl<T: Topology> MulticastRouter for FixedPathRouter<T> {
    fn name(&self) -> &'static str {
        "fixed-path"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let paths = mcast_core::fixed_path::fixed_path(&self.topo, &self.labeling, mc);
        DeliveryPlan::from_paths(mc, &paths, ClassChoice::Any)
    }
}

/// The double-channel X-first tree scheme (§6.2.1): quadrant trees with
/// fixed channel classes, requiring a 2-class network.
pub struct DoubleChannelTreeRouter {
    mesh: Mesh2D,
}

impl DoubleChannelTreeRouter {
    /// Double-channel tree routing on a 2D mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        DoubleChannelTreeRouter { mesh }
    }
}

impl MulticastRouter for DoubleChannelTreeRouter {
    fn name(&self) -> &'static str {
        "dc-tree"
    }

    fn required_classes(&self) -> u8 {
        2
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let parts = mcast_core::dc_xfirst_tree::dc_xfirst(&self.mesh, mc);
        let mesh = self.mesh;
        let quadrants: Vec<_> = parts.iter().map(|p| p.quadrant).collect();
        let trees: Vec<_> = parts.into_iter().map(|p| p.tree).collect();
        DeliveryPlan::from_forest(mc, &trees, |i, (from, to)| {
            let q = quadrants[i];
            ClassChoice::Fixed(q.channel_class(mesh.direction(from, to)))
        })
    }
}

/// Dual-path routes carried by *circuit switching* instead of wormhole
/// (§2.2.3): the §2.3.4 subnetwork argument applies to both, so the same
/// label-monotone paths stay deadlock-free while the switching costs
/// differ — used by the switching ablation.
pub struct CircuitDualPathRouter<T: Topology> {
    inner: DualPathRouter<T>,
}

impl CircuitDualPathRouter<Mesh2D> {
    /// Circuit-switched dual-path on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D) -> Self {
        CircuitDualPathRouter {
            inner: DualPathRouter::mesh(mesh),
        }
    }
}

impl<T: Topology> CircuitDualPathRouter<T> {
    /// Circuit-switched dual-path on a caller-labeled topology.
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        CircuitDualPathRouter {
            inner: DualPathRouter::with_labeling(topo, labeling),
        }
    }
}

impl<T: Topology> MulticastRouter for CircuitDualPathRouter<T> {
    fn name(&self) -> &'static str {
        "dual-path/circuit"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let mut plan = self.inner.plan(mc);
        for w in &mut plan.worms {
            if let crate::plan::PlanWorm::Path(p) = w {
                *w = crate::plan::PlanWorm::Circuit(p.clone());
            }
        }
        plan
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        self.inner.plan_into(mc, arena, out);
        for w in &mut out.worms {
            if let PlanWorm::Path(p) = w {
                let class = p.class;
                let nodes = std::mem::take(&mut p.nodes);
                *w = PlanWorm::Circuit(PlanPath { nodes, class });
            }
        }
    }
}

/// Runs any scheme on a network with (at least) a given number of
/// channel classes — the Fig 7.8/7.9 "level playing field", where the
/// path schemes are compared on the double-channel network the tree
/// scheme needs. Harnesses size the network from `required_classes`, so
/// overriding it here is all it takes.
pub struct ClassOverrideRouter<R> {
    inner: R,
    classes: u8,
}

impl<R: MulticastRouter> ClassOverrideRouter<R> {
    /// Wraps `inner`, reporting at least `classes` required classes
    /// (never fewer than the scheme itself needs).
    pub fn new(inner: R, classes: u8) -> Self {
        ClassOverrideRouter { inner, classes }
    }
}

impl<R: MulticastRouter> MulticastRouter for ClassOverrideRouter<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn required_classes(&self) -> u8 {
        self.classes.max(self.inner.required_classes())
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        self.inner.plan(mc)
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        self.inner.plan_into(mc, arena, out)
    }
}

/// Virtual-channel partitioned multicast (§8.2 future work implemented):
/// `lanes` virtual copies of the high/low subnetworks, destinations
/// spread across lanes in contiguous label ranges.
pub struct VcMultiPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
    lanes: u8,
}

impl VcMultiPathRouter<Mesh2D> {
    /// Virtual-channel multicast on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D, lanes: u8) -> Self {
        let labeling = mesh2d_snake(&mesh);
        VcMultiPathRouter {
            topo: mesh,
            labeling,
            lanes,
        }
    }
}

impl VcMultiPathRouter<Hypercube> {
    /// Virtual-channel multicast on a Gray-labeled hypercube.
    pub fn hypercube(cube: Hypercube, lanes: u8) -> Self {
        let labeling = hypercube_gray(&cube);
        VcMultiPathRouter {
            topo: cube,
            labeling,
            lanes,
        }
    }
}

impl<T: Topology> VcMultiPathRouter<T> {
    /// Virtual-channel multicast on a caller-labeled topology.
    pub fn with_labeling(topo: T, labeling: Labeling, lanes: u8) -> Self {
        VcMultiPathRouter {
            topo,
            labeling,
            lanes,
        }
    }
}

impl<T: Topology> MulticastRouter for VcMultiPathRouter<T> {
    fn name(&self) -> &'static str {
        "vc-multi-path"
    }

    fn required_classes(&self) -> u8 {
        self.lanes
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let lane_paths =
            mcast_core::vc_multi_path::vc_multi_path(&self.topo, &self.labeling, mc, self.lanes);
        DeliveryPlan {
            source: mc.source,
            destinations: mc.destinations.clone(),
            worms: lane_paths
                .into_iter()
                .filter(|p| !p.path.is_empty())
                .map(|p| {
                    crate::plan::PlanWorm::Path(crate::plan::PlanPath {
                        nodes: p.path.nodes().to_vec(),
                        class: ClassChoice::Fixed(p.lane),
                    })
                })
                .collect(),
        }
    }
}

/// Octant-partitioned tree multicast for 3D meshes (the §6.2.1 scheme
/// lifted one dimension — see `mcast_core::mesh3d_multicast`): requires
/// four channel classes per direction.
pub struct OctantTreeRouter {
    mesh: mcast_topology::Mesh3D,
}

impl OctantTreeRouter {
    /// Octant tree routing on a 3D mesh.
    pub fn new(mesh: mcast_topology::Mesh3D) -> Self {
        OctantTreeRouter { mesh }
    }
}

impl MulticastRouter for OctantTreeRouter {
    fn name(&self) -> &'static str {
        "octant-tree"
    }

    fn required_classes(&self) -> u8 {
        4
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let parts = mcast_core::mesh3d_multicast::octant_multicast(&self.mesh, mc);
        let mesh = self.mesh;
        let octants: Vec<_> = parts.iter().map(|p| p.octant).collect();
        let trees: Vec<_> = parts.into_iter().map(|p| p.tree).collect();
        DeliveryPlan::from_forest(mc, &trees, |i, (from, to)| {
            let o = octants[i];
            let dir = mcast_topology::mesh3d::Dir3::ALL
                .into_iter()
                .find(|&d| mesh.step(from, d) == Some(to))
                .expect("tree edge is a link");
            ClassChoice::Fixed(o.channel_class(dir))
        })
    }
}

/// Plain (deadlock-prone) X-first multicast trees on single channels —
/// §6.1's broken extension, used to demonstrate the Fig 6.4 deadlock.
pub struct XFirstTreeRouter {
    mesh: Mesh2D,
}

impl XFirstTreeRouter {
    /// Naive X-first tree multicast on a 2D mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        XFirstTreeRouter { mesh }
    }
}

impl MulticastRouter for XFirstTreeRouter {
    fn name(&self) -> &'static str {
        "xfirst-tree"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        let tree = mcast_core::xfirst::xfirst_tree(&self.mesh, mc);
        DeliveryPlan::from_tree(mc, &tree, ClassChoice::Any)
    }
}

/// The nCUBE-2 style E-cube broadcast/multicast tree on a hypercube —
/// §6.1's Fig 6.1 deadlock subject.
pub struct EcubeTreeRouter {
    cube: Hypercube,
}

impl EcubeTreeRouter {
    /// E-cube tree multicast on a hypercube.
    pub fn new(cube: Hypercube) -> Self {
        EcubeTreeRouter { cube }
    }
}

impl MulticastRouter for EcubeTreeRouter {
    fn name(&self) -> &'static str {
        "ecube-tree"
    }

    fn plan(&self, mc: &MulticastSet) -> DeliveryPlan {
        // The tree that merges the per-destination E-cube (ascending
        // dimension) unicast paths, as the nCUBE-2 broadcast does.
        use mcast_core::geometry::RoutingGeometry;
        let mut tree = mcast_core::model::TreeRoute::new(mc.source);
        for &d in &mc.destinations {
            let path = self.cube.shortest_path(mc.source, d);
            for w in path.windows(2) {
                if !tree.contains(w[1]) {
                    tree.attach(w[0], w[1]);
                }
            }
        }
        DeliveryPlan::from_tree(mc, &tree, ClassChoice::Any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_plans_cover_destinations() {
        let mesh = Mesh2D::new(6, 6);
        let mc = MulticastSet::new(14, [0, 35, 7, 29, 22]);
        let routers: Vec<Box<dyn MulticastRouter>> = vec![
            Box::new(DualPathRouter::mesh(mesh)),
            Box::new(MultiPathMeshRouter::new(mesh)),
            Box::new(FixedPathRouter::mesh(mesh)),
            Box::new(DoubleChannelTreeRouter::new(mesh)),
            Box::new(XFirstTreeRouter::new(mesh)),
        ];
        for r in &routers {
            let plan = r.plan(&mc);
            assert_eq!(plan.source, mc.source, "{}", r.name());
            assert!(!plan.worms.is_empty(), "{}", r.name());
            assert!(plan.traffic() >= mc.k().min(5), "{}", r.name());
        }
    }

    #[test]
    fn hypercube_router_plans() {
        let cube = Hypercube::new(6);
        let mc = MulticastSet::new(9, [0, 63, 17, 44]);
        let routers: Vec<Box<dyn MulticastRouter>> = vec![
            Box::new(DualPathRouter::hypercube(cube)),
            Box::new(MultiPathCubeRouter::new(cube)),
            Box::new(FixedPathRouter::hypercube(cube)),
            Box::new(EcubeTreeRouter::new(cube)),
        ];
        for r in &routers {
            let plan = r.plan(&mc);
            assert!(plan.traffic() >= 4, "{}", r.name());
        }
    }

    #[test]
    fn plan_into_matches_plan_for_every_router() {
        // One shared arena + plan reused across routers and messages:
        // the streamed construction must equal the allocating one
        // exactly (same worms, same order, same classes).
        let mesh = Mesh2D::new(6, 6);
        let routers: Vec<Box<dyn MulticastRouter>> = vec![
            Box::new(DualPathRouter::mesh(mesh)),
            Box::new(CircuitDualPathRouter::mesh(mesh)),
            Box::new(ClassOverrideRouter::new(DualPathRouter::mesh(mesh), 2)),
            Box::new(MultiPathMeshRouter::new(mesh)),
            Box::new(DoubleChannelTreeRouter::new(mesh)),
        ];
        let mut arena = PlanArena::new();
        let mut out = DeliveryPlan {
            source: 0,
            destinations: Vec::new(),
            worms: Vec::new(),
        };
        for r in &routers {
            // Hundreds of repeats: the arena's pool must stay bounded by
            // one plan's buffers, not grow with the number of calls.
            for _ in 0..300 {
                for (src, dests) in [(14usize, vec![0, 35, 7]), (0, vec![20]), (35, vec![1, 2])] {
                    let mc = MulticastSet::new(src, dests);
                    r.plan_into(&mc, &mut arena, &mut out);
                    assert_eq!(out, r.plan(&mc), "{}", r.name());
                }
            }
            assert!(
                arena.pooled() < 16,
                "{}: {} pooled buffers",
                r.name(),
                arena.pooled()
            );
        }
    }

    #[test]
    fn dc_tree_requires_two_classes() {
        let mesh = Mesh2D::new(4, 4);
        let r = DoubleChannelTreeRouter::new(mesh);
        assert_eq!(r.required_classes(), 2);
        let mc = MulticastSet::new(5, [0, 15, 3, 12]);
        let plan = r.plan(&mc);
        // Every edge uses a fixed class.
        for w in &plan.worms {
            if let crate::plan::PlanWorm::Tree(t) = w {
                for &(_, _, c) in &t.edges {
                    assert!(matches!(c, ClassChoice::Fixed(_)));
                }
            }
        }
    }
}

#[cfg(test)]
mod octant_tests {
    use super::*;
    use crate::engine::{Engine, SimConfig};
    use crate::network::Network;
    use mcast_topology::Mesh3D;

    #[test]
    fn octant_router_delivers_on_quadruple_channels() {
        let mesh = Mesh3D::new(3, 3, 3);
        let router = OctantTreeRouter::new(mesh);
        assert_eq!(router.required_classes(), 4);
        let mut engine = Engine::new(
            Network::new(&mesh, router.required_classes()),
            SimConfig::default(),
        );
        for s in 0..mesh.num_nodes() {
            let mc = MulticastSet::new(s, (1..=5).map(|i| (s + i * 4 + 1) % 27));
            engine.inject(&router.plan(&mc));
        }
        assert!(
            engine.run_to_quiescence(),
            "octant trees on 4 classes wedged under closed saturating load"
        );
        assert_eq!(engine.take_completed().len(), 27);
    }
}
