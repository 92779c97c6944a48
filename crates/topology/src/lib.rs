//! Multicomputer network topologies and the structural machinery of the
//! dissertation *Multicast Communication in Multicomputer Networks*
//! (X. Lin; Lin & Ni, ICPP 1990).
//!
//! This crate is the substrate the routing algorithms and the wormhole
//! simulator are built on:
//!
//! * the host-graph topologies of Chapter 2 — [`mesh2d::Mesh2D`],
//!   [`mesh3d::Mesh3D`], [`hypercube::Hypercube`], and the general
//!   [`karyn::KAryNCube`] family — behind the [`graph::Topology`] trait;
//! * [`grid::GridGraph`]s, the source problems of Chapter 4's
//!   NP-completeness reductions;
//! * the Hamiltonian machinery of Chapters 5 and 6:
//!   [`hamiltonian::HamiltonCycle`] with the `h`/`f` mappings used by the
//!   sorted-MP algorithm, and [`labeling::Labeling`] with the `ℓ` label
//!   assignments (boustrophedon for meshes, Gray-code for cubes) that
//!   induce the high-/low-channel network partition;
//! * the four-quadrant double-channel [`partition`] of §6.2.1;
//! * [`cdg::ChannelDependencyGraph`]s — the Dally–Seitz deadlock-freedom
//!   criterion used to verify every routing scheme in the test suites.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ccc;
pub mod cdg;
pub mod fault;
pub mod graph;
pub mod gray;
pub mod grid;
pub mod hamiltonian;
pub mod hypercube;
pub mod karyn;
pub mod labeling;
pub mod mesh2d;
pub mod mesh3d;
pub mod partition;
pub mod topograph;

pub use ccc::CubeConnectedCycles;
pub use cdg::{ChannelDependencyGraph, SurvivorReport};
pub use fault::{FaultEvent, FaultMask, FaultSchedule};
pub use graph::{Channel, NodeId, Topology};
pub use grid::GridGraph;
pub use hamiltonian::HamiltonCycle;
pub use hypercube::Hypercube;
pub use karyn::KAryNCube;
pub use labeling::{Labeling, LabelingKind};
pub use mesh2d::{Dir2, Mesh2D};
pub use mesh3d::{Dir3, Mesh3D};
pub use partition::Quadrant;
pub use topograph::synth::{synthesize, CertifiedRouting, RoutingKind};
pub use topograph::{CustomGraph, TopographError};
