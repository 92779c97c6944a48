//! # mcast — Multicast Communication in Multicomputer Networks
//!
//! A from-scratch Rust reproduction of X. Lin's dissertation *Multicast
//! Communication in Multicomputer Networks* (Michigan State University;
//! the extended form of Lin & Ni, ICPP 1990) — the work that introduced
//! the first deadlock-free multicast wormhole routing algorithms.
//!
//! The facade re-exports the five member crates:
//!
//! * [`topology`] — 2D/3D meshes, hypercubes, k-ary n-cubes, grid
//!   graphs, Hamiltonian labelings, channel dependency graphs;
//! * [`routing`] — the multicast models (MP/MC/ST/MT/MS), the Chapter 5
//!   heuristics, the Chapter 6 deadlock-free wormhole schemes, exact
//!   solvers and the NP-completeness reduction constructions;
//! * [`sim`] — a flit-level discrete-event wormhole simulator (the
//!   CSIM substitute used for the Chapter 7 dynamic study);
//! * [`workload`] — generators, static traffic evaluation, and
//!   batch-means statistics;
//! * [`obs`] — the observability layer: typed simulation events,
//!   sinks, a metrics registry, and Chrome-trace/CSV exporters
//!   (`mcast trace` / `mcast metrics`; see DESIGN.md §9).
//!
//! ## Quickstart
//!
//! ```
//! use mcast::prelude::*;
//!
//! // A 6×6 mesh with the dissertation's boustrophedon labeling.
//! let mesh = Mesh2D::new(6, 6);
//! let labeling = mesh2d_snake(&mesh);
//!
//! // One multicast: source (3,2), five destinations.
//! let mc = MulticastSet::new(
//!     mesh.node(3, 2),
//!     [mesh.node(0, 0), mesh.node(5, 5), mesh.node(0, 5), mesh.node(5, 0), mesh.node(2, 4)],
//! );
//!
//! // Deadlock-free dual-path routing (§6.2.2).
//! let paths = dual_path(&mesh, &labeling, &mc);
//! let traffic: usize = paths.iter().map(|p| p.len()).sum();
//! assert!(traffic >= mc.k());
//!
//! // And the same message through the flit-level wormhole simulator.
//! let router = DualPathRouter::mesh(mesh);
//! let mut engine = Engine::new(Network::new(&mesh, 1), SimConfig::default());
//! engine.inject(&router.plan(&mc));
//! assert!(engine.run_to_quiescence());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mcast_core as routing;
pub use mcast_obs as obs;
pub use mcast_sim as sim;
pub use mcast_topology as topology;
pub use mcast_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mcast_core::dc_xfirst_tree::dc_xfirst;
    pub use mcast_core::divided_greedy::divided_greedy_tree;
    pub use mcast_core::dual_path::dual_path;
    pub use mcast_core::fixed_path::fixed_path;
    pub use mcast_core::greedy_st::greedy_st;
    pub use mcast_core::model::{MulticastRoute, MulticastSet, PathRoute, TreeRoute};
    pub use mcast_core::multi_path::{multi_path, multi_path_mesh};
    pub use mcast_core::sorted_mp::{sorted_mc, sorted_mp};
    pub use mcast_core::xfirst::xfirst_tree;
    pub use mcast_core::RoutingGeometry;
    pub use mcast_obs::{Metrics, Recording, SimEvent, Sink};
    pub use mcast_sim::registry::{
        build_route, build_router, schemes_for, BuiltTopo, SchemeId, TopoSpec,
    };
    pub use mcast_sim::routers::{
        DoubleChannelTreeRouter, DualPathRouter, EcubeTreeRouter, FixedPathRouter,
        MultiPathCubeRouter, MultiPathMeshRouter, MulticastRouter, XFirstTreeRouter,
    };
    pub use mcast_sim::{ClassChoice, DeliveryPlan, Engine, Network, PlanArena, SimConfig};
    pub use mcast_topology::hamiltonian::{hypercube_cycle, mesh2d_cycle, HamiltonCycle};
    pub use mcast_topology::labeling::{
        hypercube_gray, karyn_gray, mesh2d_snake, mesh3d_snake, Labeling,
    };
    pub use mcast_topology::{
        Channel, Dir2, GridGraph, Hypercube, KAryNCube, Mesh2D, Mesh3D, NodeId, Topology,
    };
    pub use mcast_workload::{
        run_dynamic, BatchMeans, DynamicConfig, ExperimentSpec, MulticastGen, PatternSpec,
        TrafficPoint,
    };
}
