//! The scheme/topology registry: data-driven router construction
//! (DESIGN.md §11).
//!
//! Historically every consumer of the simulator — the CLI subcommands,
//! the bench figure drivers, the fault-sweep harness — carried its own
//! `match (&topo, algorithm)` ladder naming concrete router
//! constructors, so each new topology or scheme meant editing half a
//! dozen dispatch sites and dynamic runs were effectively limited to
//! `Mesh2D` plus a partial `Hypercube` path. This module replaces all of
//! them with two small value types and three factory functions:
//!
//! * [`TopoSpec`] — a parsed topology description (`mesh:WxH`,
//!   `mesh:WxHxD`, `cube:N`, `kary:KxN`, `torus:KxN`, or
//!   `custom:<source>` for arbitrary validated graphs, DESIGN.md §14)
//!   that can [`TopoSpec::build`] the concrete graph and answer naming
//!   questions ([`TopoSpec::node_name`], [`TopoSpec::hotspot_node`]);
//! * [`SchemeId`] — a routing-scheme name plus the optional `:lanes`
//!   suffix (`vc-multi-path:4`);
//! * [`build_router`] / [`build_fault_router`] / [`build_route`] — the
//!   single dispatch points resolving a (topology, scheme) pair into a
//!   boxed router, a fault-aware router, or a static route.
//!
//! Every Chapter 6/7 scheme is registered for every topology where its
//! construction applies: the Hamiltonian-path schemes (dual-path,
//! multi-path, fixed-path, vc-multi-path, and the circuit-switched
//! dual-path baseline) work on all four topologies via the generic
//! `with_labeling` constructors and the snake/Gray labelings; the tree
//! schemes are topology-specific (dc-tree on 2D meshes, octant-tree on
//! 3D meshes, ecube-tree on hypercubes, xfirst-tree on 2D meshes).
//! Custom graphs carry no Hamiltonian labeling, so they register the
//! synthesized-routing schemes instead: `updown-mc` (one worm per
//! destination over certified up*/down* routes, deadlock-free by the
//! certified acyclic CDG) and `updown-tree` (the merged-tree baseline).
//! [`SchemeInfo::deadlock_free`] records which schemes the dissertation
//! proves deadlock-free — the registry exhaustiveness test asserts an
//! acyclic channel dependency graph for exactly those.

use std::sync::Arc;

use mcast_core::model::{MulticastRoute, MulticastSet, PathRoute, TreeRoute};
use mcast_topology::hamiltonian::{hypercube_cycle, mesh2d_cycle};
use mcast_topology::labeling::{hypercube_gray, karyn_gray, mesh2d_snake, mesh3d_snake};
use mcast_topology::topograph::bfs_order_path;
use mcast_topology::{
    CustomGraph, Hypercube, KAryNCube, Labeling, Mesh2D, Mesh3D, NodeId, Topology,
};

use crate::collectives::{CollectiveKind, CollectiveRouter, DpmRouter, UnicastRouting};
use crate::network::{Network, MAX_CHANNELS};
use crate::recovery::{
    FaultDualPathRouter, FaultMultiPathRouter, FaultMulticastRouter, ObliviousRouter,
};
use crate::routers::{
    CircuitDualPathRouter, DoubleChannelTreeRouter, DualPathRouter, EcubeTreeRouter,
    FixedPathRouter, MultiPathMeshRouter, MultiPathRouter, MulticastRouter, OctantTreeRouter,
    VcMultiPathRouter, XFirstTreeRouter,
};
use crate::topograph::{load_custom_arc, UpDownMulticastRouter, UpDownTreeRouter};

/// A registry lookup failure (unknown scheme, unknown topology kind,
/// or a scheme not registered for the requested topology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError(pub String);

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RegistryError {}

fn err(msg: impl Into<String>) -> RegistryError {
    RegistryError(msg.into())
}

/// A parsed topology description — the data form of "which network".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpec {
    /// `mesh:WxH` — a W×H 2D mesh.
    Mesh2D {
        /// Width (x extent).
        w: usize,
        /// Height (y extent).
        h: usize,
    },
    /// `mesh:WxHxD` — a W×H×D 3D mesh.
    Mesh3D {
        /// Width (x extent).
        w: usize,
        /// Height (y extent).
        h: usize,
        /// Depth (z extent).
        d: usize,
    },
    /// `cube:N` — an N-dimensional binary hypercube.
    Hypercube {
        /// Dimension (2^dim nodes).
        dim: u32,
    },
    /// `kary:KxN` (mesh) or `torus:KxN` (wrapped) — a k-ary n-cube.
    KAryNCube {
        /// Radix per dimension.
        k: usize,
        /// Number of dimensions.
        n: u32,
        /// Whether the dimensions wrap (torus).
        wraps: bool,
    },
    /// `custom:<source>` — an arbitrary validated graph (DESIGN.md §14).
    /// The source is a generator form (`rand:10x3`, `lmesh:4x4x2`,
    /// `ftree:3x1`) or a `.json`/`.dot` graph file path; the resolved
    /// graph rides along so parsing happens exactly once.
    Custom {
        /// The source string the graph was resolved from (everything
        /// after `custom:`); `Display` round-trips through it.
        source: String,
        /// The validated graph.
        graph: Arc<CustomGraph>,
    },
}

impl TopoSpec {
    /// Parses a topology spec string: `mesh:WxH`, `mesh:WxHxD`,
    /// `cube:N`, `kary:KxN`, `torus:KxN`, or `custom:<source>` (see
    /// [`crate::topograph::load_custom`] for the source forms; file
    /// sources are read and validated here, so the error carries the
    /// path and reason).
    pub fn parse(spec: &str) -> Result<TopoSpec, RegistryError> {
        let (kind, rest) = spec.split_once(':').ok_or_else(|| {
            err(format!(
                "expected mesh:WxH, mesh:WxHxD, cube:N, kary:KxN, torus:KxN \
                 or custom:<graph>, got {spec:?}"
            ))
        })?;
        let dims = |s: &str| -> Result<Vec<usize>, RegistryError> {
            let parts: Vec<usize> = s
                .split('x')
                .map(|p| {
                    p.parse::<usize>()
                        .map_err(|_| err(format!("bad dimension {p:?} in {spec:?}")))
                })
                .collect::<Result<_, _>>()?;
            if parts.contains(&0) {
                return Err(err(format!("zero-sized dimension in {spec:?}")));
            }
            Ok(parts)
        };
        let too_large = || err(format!("{spec:?} has too many nodes"));
        match kind {
            "mesh" => match dims(rest)?.as_slice() {
                &[w, h] => {
                    w.checked_mul(h).ok_or_else(too_large)?;
                    Ok(TopoSpec::Mesh2D { w, h })
                }
                &[w, h, d] => {
                    w.checked_mul(h)
                        .and_then(|wh| wh.checked_mul(d))
                        .ok_or_else(too_large)?;
                    Ok(TopoSpec::Mesh3D { w, h, d })
                }
                other => Err(err(format!(
                    "mesh takes 2 or 3 dimensions, got {}",
                    other.len()
                ))),
            },
            "cube" => {
                let dim: u32 = rest
                    .parse()
                    .map_err(|_| err(format!("bad cube dimension {rest:?}")))?;
                if dim == 0 {
                    return Err(err(format!(
                        "hypercube dimension must be at least 1 in {spec:?}"
                    )));
                }
                if dim >= usize::BITS - 1 {
                    return Err(too_large());
                }
                Ok(TopoSpec::Hypercube { dim })
            }
            "kary" | "torus" => match dims(rest)?.as_slice() {
                &[k, n] => {
                    if k < 2 {
                        return Err(err(format!("{kind} radix must be at least 2 in {spec:?}")));
                    }
                    let n = u32::try_from(n).map_err(|_| too_large())?;
                    k.checked_pow(n).ok_or_else(too_large)?;
                    Ok(TopoSpec::KAryNCube {
                        k,
                        n,
                        wraps: kind == "torus",
                    })
                }
                other => Err(err(format!(
                    "{kind} takes KxN (radix x dimensions), got {} fields",
                    other.len()
                ))),
            },
            "custom" => {
                let graph = load_custom_arc(rest)
                    .map_err(|e| err(format!("custom topology {rest:?}: {e}")))?;
                Ok(TopoSpec::Custom {
                    source: rest.to_string(),
                    graph,
                })
            }
            other => Err(err(format!("unknown topology kind {other:?}"))),
        }
    }

    /// Builds the concrete topology.
    pub fn build(&self) -> BuiltTopo {
        match *self {
            TopoSpec::Mesh2D { w, h } => BuiltTopo::Mesh2D(Mesh2D::new(w, h)),
            TopoSpec::Mesh3D { w, h, d } => BuiltTopo::Mesh3D(Mesh3D::new(w, h, d)),
            TopoSpec::Hypercube { dim } => BuiltTopo::Hypercube(Hypercube::new(dim)),
            TopoSpec::KAryNCube { k, n, wraps } => BuiltTopo::KAryNCube(if wraps {
                KAryNCube::torus(k, n)
            } else {
                KAryNCube::mesh(k, n)
            }),
            TopoSpec::Custom { ref graph, .. } => BuiltTopo::Custom(Arc::clone(graph)),
        }
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        match *self {
            TopoSpec::Mesh2D { w, h } => w * h,
            TopoSpec::Mesh3D { w, h, d } => w * h * d,
            TopoSpec::Hypercube { dim } => 1usize << dim,
            TopoSpec::KAryNCube { k, n, .. } => k.pow(n),
            TopoSpec::Custom { ref graph, .. } => graph.num_nodes(),
        }
    }

    /// Directed class-0 channels (one per link direction), in closed form
    /// — no graph is built. `None` if the count overflows `usize`.
    pub fn num_channels(&self) -> Option<usize> {
        // Links along one dimension of extent `e` in a grid of `n` nodes.
        let along = |e: usize, n: usize| (n / e).checked_mul(e.saturating_sub(1));
        let links = match *self {
            TopoSpec::Mesh2D { w, h } => along(w, w * h)?.checked_add(along(h, w * h)?)?,
            TopoSpec::Mesh3D { w, h, d } => {
                let n = w * h * d;
                along(w, n)?
                    .checked_add(along(h, n)?)?
                    .checked_add(along(d, n)?)?
            }
            TopoSpec::Hypercube { dim } => {
                return (1usize << dim).checked_mul(dim as usize);
            }
            TopoSpec::KAryNCube { k, n, wraps } => {
                let nodes = k.checked_pow(n)?;
                if !wraps {
                    along(k, nodes)?.checked_mul(n as usize)?
                } else if k == 2 {
                    // Both ring neighbours coincide: one link per node
                    // per dimension.
                    return nodes.checked_mul(n as usize);
                } else {
                    nodes.checked_mul(n as usize)?
                }
            }
            TopoSpec::Custom { ref graph, .. } => return Some(graph.num_channels()),
        };
        links.checked_mul(2)
    }

    /// The label order used by the Hamiltonian-path schemes:
    /// boustrophedon snakes on meshes, reflected Gray codes on cubes.
    /// Custom graphs get their deterministic BFS order — a permutation
    /// but *not* a Hamiltonian path, so the path schemes are not
    /// registered for them (see [`schemes_for`]).
    pub fn labeling(&self) -> Labeling {
        match self.build() {
            BuiltTopo::Mesh2D(m) => mesh2d_snake(&m),
            BuiltTopo::Mesh3D(m) => mesh3d_snake(&m),
            BuiltTopo::Hypercube(c) => hypercube_gray(&c),
            BuiltTopo::KAryNCube(c) => karyn_gray(&c),
            BuiltTopo::Custom(g) => Labeling::from_path(bfs_order_path(&g)),
        }
    }

    /// A human-readable node name: mesh coordinates, cube binary
    /// addresses, k-ary digit strings, custom-graph node names.
    pub fn node_name(&self, n: NodeId) -> String {
        match self.build() {
            BuiltTopo::Mesh2D(m) => {
                let (x, y) = m.coords(n);
                format!("({x},{y})")
            }
            BuiltTopo::Mesh3D(m) => {
                let (x, y, z) = m.coords(n);
                format!("({x},{y},{z})")
            }
            BuiltTopo::Hypercube(c) => c.format_addr(n),
            BuiltTopo::KAryNCube(c) => {
                let digits: Vec<String> = c.digits(n).iter().map(|d| d.to_string()).collect();
                format!("[{}]", digits.join("."))
            }
            BuiltTopo::Custom(g) => g.node_name(n).to_string(),
        }
    }

    /// The hot-spot node: the network center, where §7.2's non-uniform
    /// loads concentrate contention — the mesh midpoint, the
    /// mid-address cube node, the all-⌊k/2⌋ k-ary node, the
    /// max-degree node of a custom graph.
    pub fn hotspot_node(&self) -> NodeId {
        match self.build() {
            BuiltTopo::Mesh2D(m) => m.node(m.width() / 2, m.height() / 2),
            BuiltTopo::Mesh3D(m) => m.node(m.width() / 2, m.height() / 2, m.depth() / 2),
            BuiltTopo::Hypercube(c) => c.num_nodes() / 2,
            BuiltTopo::KAryNCube(c) => {
                let mid = vec![c.k() / 2; c.n() as usize];
                c.from_digits(&mid)
            }
            BuiltTopo::Custom(g) => g.max_degree_node(),
        }
    }
}

impl std::fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopoSpec::Mesh2D { w, h } => write!(f, "mesh:{w}x{h}"),
            TopoSpec::Mesh3D { w, h, d } => write!(f, "mesh:{w}x{h}x{d}"),
            TopoSpec::Hypercube { dim } => write!(f, "cube:{dim}"),
            TopoSpec::KAryNCube { k, n, wraps } => {
                write!(f, "{}:{k}x{n}", if wraps { "torus" } else { "kary" })
            }
            TopoSpec::Custom { ref source, .. } => write!(f, "custom:{source}"),
        }
    }
}

/// A built topology, holding whichever concrete graph the spec named.
/// [`BuiltTopo::as_dyn`] erases it for the generic runners
/// (`run_dynamic`, `run_dynamic_sweep`, `run_fault_sweep`, and
/// [`Network::new`] are all `T: Topology + ?Sized`).
#[derive(Debug, Clone)]
pub enum BuiltTopo {
    /// A 2D mesh.
    Mesh2D(Mesh2D),
    /// A 3D mesh.
    Mesh3D(Mesh3D),
    /// A binary hypercube.
    Hypercube(Hypercube),
    /// A k-ary n-cube (mesh or torus).
    KAryNCube(KAryNCube),
    /// A validated custom graph (shared, so clones stay cheap).
    Custom(Arc<CustomGraph>),
}

impl BuiltTopo {
    /// The topology as a trait object (`Sync` so the parallel sweep
    /// runner can share it across worker threads).
    pub fn as_dyn(&self) -> &(dyn Topology + Sync) {
        match self {
            BuiltTopo::Mesh2D(m) => m,
            BuiltTopo::Mesh3D(m) => m,
            BuiltTopo::Hypercube(c) => c,
            BuiltTopo::KAryNCube(c) => c,
            BuiltTopo::Custom(g) => g.as_ref(),
        }
    }
}

/// A routing-scheme identifier: name plus the optional `:lanes` suffix
/// (`"vc-multi-path:4"` → name `vc-multi-path`, lanes 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchemeId {
    /// The scheme name (`"dual-path"`, `"vc-multi-path"`, ...).
    pub name: String,
    /// Virtual-channel lane count, for lane-parameterized schemes.
    pub lanes: Option<u8>,
}

impl SchemeId {
    /// Parses `name` or `name:lanes`.
    pub fn parse(s: &str) -> Result<SchemeId, RegistryError> {
        let (name, lanes) = match s.split_once(':') {
            Some((n, l)) => {
                let lanes: u8 = l
                    .parse()
                    .map_err(|_| err(format!("bad lane count {l:?} in {s:?}")))?;
                if lanes == 0 {
                    return Err(err(format!("lane count must be positive in {s:?}")));
                }
                (n, Some(lanes))
            }
            None => (s, None),
        };
        if name.is_empty() {
            return Err(err("empty scheme name"));
        }
        Ok(SchemeId {
            name: name.to_string(),
            lanes,
        })
    }

    /// A plain (no-lanes) scheme id.
    pub fn named(name: &str) -> SchemeId {
        SchemeId {
            name: name.to_string(),
            lanes: None,
        }
    }

    /// The lane count for lane-parameterized schemes (default 2).
    pub fn lanes_or_default(&self) -> u8 {
        self.lanes.unwrap_or(2)
    }
}

impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.lanes {
            Some(l) => write!(f, "{}:{l}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Registry metadata for one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeInfo {
    /// The scheme name ([`SchemeId::name`]).
    pub name: &'static str,
    /// Whether the dissertation proves the scheme deadlock-free.
    pub deadlock_free: bool,
    /// Whether the scheme takes a `:lanes` suffix.
    pub takes_lanes: bool,
    /// Whether the scheme is simulable (has a [`MulticastRouter`]) or
    /// route-only (Chapter 5 heuristics usable via [`build_route`]).
    pub simulable: bool,
}

/// Every registered scheme, simulable and route-only.
pub const SCHEMES: &[SchemeInfo] = &[
    SchemeInfo {
        name: "dual-path",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "multi-path",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "fixed-path",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "vc-multi-path",
        deadlock_free: true,
        takes_lanes: true,
        simulable: true,
    },
    SchemeInfo {
        name: "dc-tree",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "octant-tree",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "circuit-dual-path",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "xfirst-tree",
        deadlock_free: false,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "ecube-tree",
        deadlock_free: false,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "updown-mc",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "updown-tree",
        deadlock_free: false,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "dpm",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "binomial",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "recursive-doubling",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "binomial-reliable",
        deadlock_free: true,
        takes_lanes: false,
        simulable: true,
    },
    SchemeInfo {
        name: "sorted-mp",
        deadlock_free: false,
        takes_lanes: false,
        simulable: false,
    },
    SchemeInfo {
        name: "greedy-st",
        deadlock_free: false,
        takes_lanes: false,
        simulable: false,
    },
    SchemeInfo {
        name: "divided-greedy",
        deadlock_free: false,
        takes_lanes: false,
        simulable: false,
    },
];

/// Looks up a scheme's registry metadata.
pub fn scheme_info(name: &str) -> Option<&'static SchemeInfo> {
    SCHEMES.iter().find(|s| s.name == name)
}

/// The simulable schemes registered for a topology — the pairs the
/// exhaustiveness test iterates and `schemes_for` experiments sweep.
pub fn schemes_for(topo: &TopoSpec) -> Vec<SchemeId> {
    // The modern competitors (DESIGN.md §17) route over each topology's
    // certified base unicast routing, so they register everywhere —
    // including custom graphs, where the base routing is the
    // synthesized up*/down* function.
    let modern = ["dpm", "binomial", "recursive-doubling", "binomial-reliable"];
    // Custom graphs have no Hamiltonian-path labeling, so only the
    // synthesized up*/down* schemes (plus the modern competitors) apply
    // there.
    if let TopoSpec::Custom { .. } = topo {
        let mut out = vec![SchemeId::named("updown-mc"), SchemeId::named("updown-tree")];
        out.extend(modern.iter().map(|n| SchemeId::named(n)));
        return out;
    }
    let mut out: Vec<SchemeId> = ["dual-path", "multi-path", "fixed-path", "circuit-dual-path"]
        .iter()
        .map(|n| SchemeId::named(n))
        .collect();
    out.push(SchemeId {
        name: "vc-multi-path".to_string(),
        lanes: Some(2),
    });
    match topo {
        TopoSpec::Mesh2D { .. } => {
            out.push(SchemeId::named("dc-tree"));
            out.push(SchemeId::named("xfirst-tree"));
        }
        TopoSpec::Mesh3D { .. } => out.push(SchemeId::named("octant-tree")),
        TopoSpec::Hypercube { .. } => out.push(SchemeId::named("ecube-tree")),
        TopoSpec::KAryNCube { .. } | TopoSpec::Custom { .. } => {}
    }
    out.extend(modern.iter().map(|n| SchemeId::named(n)));
    out
}

/// Whether a scheme's deadlock-freedom claim holds *on this topology*.
///
/// [`SchemeInfo::deadlock_free`] is the scheme's global claim; the
/// modern competitors (DESIGN.md §17) inherit theirs from the base
/// dimension-ordered unicast routing, which cycles through the wrap
/// rings of a torus. The conformance harness certifies an acyclic CDG
/// for exactly the `(topology, scheme)` pairs this returns `true` for.
pub fn scheme_deadlock_free(topo: &TopoSpec, name: &str) -> bool {
    match name {
        "dpm" | "binomial" | "recursive-doubling" | "binomial-reliable" => {
            !matches!(topo, TopoSpec::KAryNCube { wraps: true, .. })
        }
        _ => scheme_info(name).is_some_and(|i| i.deadlock_free),
    }
}

/// Channel classes a scheme's router requires: its
/// [`MulticastRouter::required_classes`] in closed form, so the channel
/// id limit can be checked before a router is built.
pub fn scheme_classes(scheme: &SchemeId) -> u8 {
    match scheme.name.as_str() {
        "dc-tree" => 2,
        "octant-tree" => 4,
        "vc-multi-path" => scheme.lanes_or_default(),
        _ => 1,
    }
}

/// Rejects a topology whose channels, `classes` copies of each, cannot
/// all take `u32` ids — the engine's channel fields reserve `u32::MAX`
/// as their "no channel" sentinel (DESIGN.md §10.2). Closed-form, so it
/// runs before anything is built or allocated.
pub fn check_channel_ids(topo: &TopoSpec, classes: u8) -> Result<(), RegistryError> {
    let total = topo
        .num_channels()
        .and_then(|c| c.checked_mul(classes as usize));
    match total {
        Some(t) if t <= MAX_CHANNELS => Ok(()),
        _ => Err(err(format!(
            "{topo} with {classes} channel class(es) has more than {MAX_CHANNELS} channels, \
             the u32 channel-id limit"
        ))),
    }
}

fn not_available(topo: &TopoSpec, scheme: &SchemeId) -> RegistryError {
    err(format!("scheme {scheme:?} not available on {topo}"))
}

fn check_lanes(scheme: &SchemeId) -> Result<(), RegistryError> {
    match scheme_info(&scheme.name) {
        Some(info) if !info.takes_lanes && scheme.lanes.is_some() => Err(err(format!(
            "scheme {} does not take a :lanes suffix",
            scheme.name
        ))),
        _ => Ok(()),
    }
}

/// Resolves a (topology, scheme) pair to a simulable router — the
/// single router-construction dispatch point for the CLI, benches and
/// experiment specs.
pub fn build_router(
    topo: &TopoSpec,
    scheme: &SchemeId,
) -> Result<Box<dyn MulticastRouter + Send + Sync>, RegistryError> {
    check_lanes(scheme)?;
    check_channel_ids(topo, scheme_classes(scheme))?;
    let built = topo.build();
    let lanes = scheme.lanes_or_default();
    // Custom graphs route over synthesized certified functions; the
    // synthesis failure (a cyclic CDG on a directed graph) surfaces
    // here with the witness cycle in the message.
    if let BuiltTopo::Custom(graph) = &built {
        let fail = |e: mcast_topology::TopographError| err(format!("{topo}: {e}"));
        return match scheme.name.as_str() {
            "updown-mc" => Ok(Box::new(UpDownMulticastRouter::new(graph).map_err(fail)?)),
            "updown-tree" => Ok(Box::new(UpDownTreeRouter::new(graph).map_err(fail)?)),
            "dpm" => Ok(Box::new(DpmRouter::new(
                UnicastRouting::custom(graph).map_err(fail)?,
            ))),
            "binomial" | "recursive-doubling" | "binomial-reliable" => {
                Ok(Box::new(CollectiveRouter::new(
                    UnicastRouting::custom(graph).map_err(fail)?,
                    collective_kind(&scheme.name).expect("matched above"),
                )))
            }
            _ => Err(not_available(topo, scheme)),
        };
    }
    Ok(match (built, scheme.name.as_str()) {
        // The Hamiltonian-path schemes run on every labeled topology.
        (BuiltTopo::Mesh2D(m), "dual-path") => Box::new(DualPathRouter::mesh(m)),
        (BuiltTopo::Hypercube(c), "dual-path") => Box::new(DualPathRouter::hypercube(c)),
        (t, "dual-path") => dual_path_generic(t),
        (BuiltTopo::Mesh2D(m), "multi-path") => Box::new(MultiPathMeshRouter::new(m)),
        (t, "multi-path") => multi_path_generic(t, topo.labeling()),
        (BuiltTopo::Mesh2D(m), "fixed-path") => Box::new(FixedPathRouter::mesh(m)),
        (BuiltTopo::Hypercube(c), "fixed-path") => Box::new(FixedPathRouter::hypercube(c)),
        (t, "fixed-path") => fixed_path_generic(t),
        (BuiltTopo::Mesh2D(m), "vc-multi-path") => Box::new(VcMultiPathRouter::mesh(m, lanes)),
        (BuiltTopo::Hypercube(c), "vc-multi-path") => {
            Box::new(VcMultiPathRouter::hypercube(c, lanes))
        }
        (t, "vc-multi-path") => vc_multi_path_generic(t, lanes),
        (BuiltTopo::Mesh2D(m), "circuit-dual-path") => Box::new(CircuitDualPathRouter::mesh(m)),
        (t, "circuit-dual-path") => circuit_generic(t),
        // Tree schemes are topology-specific.
        (BuiltTopo::Mesh2D(m), "dc-tree") => Box::new(DoubleChannelTreeRouter::new(m)),
        (BuiltTopo::Mesh3D(m), "octant-tree") => Box::new(OctantTreeRouter::new(m)),
        (BuiltTopo::Mesh2D(m), "xfirst-tree") => Box::new(XFirstTreeRouter::new(m)),
        (BuiltTopo::Hypercube(c), "ecube-tree") => Box::new(EcubeTreeRouter::new(c)),
        // The modern competitors (DESIGN.md §17) run on every topology
        // over its certified base unicast routing.
        (t, "dpm") => Box::new(DpmRouter::new(unicast_for(&t))),
        (t, name @ ("binomial" | "recursive-doubling" | "binomial-reliable")) => {
            Box::new(CollectiveRouter::new(
                unicast_for(&t),
                collective_kind(name).expect("matched above"),
            ))
        }
        _ => return Err(not_available(topo, scheme)),
    })
}

fn collective_kind(name: &str) -> Option<CollectiveKind> {
    match name {
        "binomial" => Some(CollectiveKind::Binomial),
        "recursive-doubling" => Some(CollectiveKind::RecursiveDoubling),
        "binomial-reliable" => Some(CollectiveKind::BinomialReliable),
        _ => None,
    }
}

/// The base unicast routing for static-route construction — same
/// dispatch as [`unicast_for`], plus custom graphs via their certified
/// up*/down* synthesis (whose failure carries the witness cycle).
fn route_unicast(topo: &TopoSpec, built: &BuiltTopo) -> Result<UnicastRouting, RegistryError> {
    match built {
        BuiltTopo::Custom(g) => UnicastRouting::custom(g).map_err(|e| err(format!("{topo}: {e}"))),
        t => Ok(unicast_for(t)),
    }
}

fn unicast_for(t: &BuiltTopo) -> UnicastRouting {
    match t {
        BuiltTopo::Mesh2D(m) => UnicastRouting::Mesh2D(*m),
        BuiltTopo::Mesh3D(m) => UnicastRouting::Mesh3D(*m),
        BuiltTopo::Hypercube(c) => UnicastRouting::Hypercube(*c),
        BuiltTopo::KAryNCube(c) => UnicastRouting::KAry(*c),
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

fn dual_path_generic(t: BuiltTopo) -> Box<dyn MulticastRouter + Send + Sync> {
    match t {
        BuiltTopo::Mesh2D(m) => Box::new(DualPathRouter::with_labeling(m, mesh2d_snake(&m))),
        BuiltTopo::Mesh3D(m) => Box::new(DualPathRouter::with_labeling(m, mesh3d_snake(&m))),
        BuiltTopo::Hypercube(c) => Box::new(DualPathRouter::with_labeling(c, hypercube_gray(&c))),
        BuiltTopo::KAryNCube(c) => Box::new(DualPathRouter::with_labeling(c, karyn_gray(&c))),
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

fn multi_path_generic(t: BuiltTopo, labeling: Labeling) -> Box<dyn MulticastRouter + Send + Sync> {
    match t {
        BuiltTopo::Mesh2D(m) => Box::new(MultiPathRouter::with_labeling(m, labeling)),
        BuiltTopo::Mesh3D(m) => Box::new(MultiPathRouter::with_labeling(m, labeling)),
        BuiltTopo::Hypercube(c) => Box::new(MultiPathRouter::with_labeling(c, labeling)),
        BuiltTopo::KAryNCube(c) => Box::new(MultiPathRouter::with_labeling(c, labeling)),
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

fn fixed_path_generic(t: BuiltTopo) -> Box<dyn MulticastRouter + Send + Sync> {
    match t {
        BuiltTopo::Mesh2D(m) => Box::new(FixedPathRouter::with_labeling(m, mesh2d_snake(&m))),
        BuiltTopo::Mesh3D(m) => Box::new(FixedPathRouter::with_labeling(m, mesh3d_snake(&m))),
        BuiltTopo::Hypercube(c) => Box::new(FixedPathRouter::with_labeling(c, hypercube_gray(&c))),
        BuiltTopo::KAryNCube(c) => Box::new(FixedPathRouter::with_labeling(c, karyn_gray(&c))),
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

fn vc_multi_path_generic(t: BuiltTopo, lanes: u8) -> Box<dyn MulticastRouter + Send + Sync> {
    match t {
        BuiltTopo::Mesh2D(m) => {
            Box::new(VcMultiPathRouter::with_labeling(m, mesh2d_snake(&m), lanes))
        }
        BuiltTopo::Mesh3D(m) => {
            Box::new(VcMultiPathRouter::with_labeling(m, mesh3d_snake(&m), lanes))
        }
        BuiltTopo::Hypercube(c) => Box::new(VcMultiPathRouter::with_labeling(
            c,
            hypercube_gray(&c),
            lanes,
        )),
        BuiltTopo::KAryNCube(c) => {
            Box::new(VcMultiPathRouter::with_labeling(c, karyn_gray(&c), lanes))
        }
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

fn circuit_generic(t: BuiltTopo) -> Box<dyn MulticastRouter + Send + Sync> {
    match t {
        BuiltTopo::Mesh2D(m) => Box::new(CircuitDualPathRouter::with_labeling(m, mesh2d_snake(&m))),
        BuiltTopo::Mesh3D(m) => Box::new(CircuitDualPathRouter::with_labeling(m, mesh3d_snake(&m))),
        BuiltTopo::Hypercube(c) => {
            Box::new(CircuitDualPathRouter::with_labeling(c, hypercube_gray(&c)))
        }
        BuiltTopo::KAryNCube(c) => {
            Box::new(CircuitDualPathRouter::with_labeling(c, karyn_gray(&c)))
        }
        BuiltTopo::Custom(_) => {
            unreachable!(
                "custom graphs dispatch to the up*/down* routers before the generic constructors"
            )
        }
    }
}

/// Resolves a (topology, scheme) pair to a fault-aware router:
/// dual-path and multi-path plan around faults on every topology, and
/// any other registered scheme runs fault-*oblivious* under the
/// recovery engine's abort-and-retry (the comparison baseline).
pub fn build_fault_router(
    topo: &TopoSpec,
    scheme: &SchemeId,
) -> Result<Box<dyn FaultMulticastRouter + Send + Sync>, RegistryError> {
    check_lanes(scheme)?;
    Ok(match (topo.build(), scheme.name.as_str()) {
        (BuiltTopo::Mesh2D(m), "dual-path") => Box::new(FaultDualPathRouter::mesh(m)),
        (BuiltTopo::Hypercube(c), "dual-path") => Box::new(FaultDualPathRouter::hypercube(c)),
        (BuiltTopo::Mesh3D(m), "dual-path") => {
            Box::new(FaultDualPathRouter::with_labeling(m, mesh3d_snake(&m)))
        }
        (BuiltTopo::KAryNCube(c), "dual-path") => {
            Box::new(FaultDualPathRouter::with_labeling(c, karyn_gray(&c)))
        }
        (BuiltTopo::Mesh2D(m), "multi-path") => Box::new(FaultMultiPathRouter::mesh(m)),
        (BuiltTopo::Hypercube(c), "multi-path") => Box::new(FaultMultiPathRouter::hypercube(c)),
        (BuiltTopo::Mesh3D(m), "multi-path") => {
            Box::new(FaultMultiPathRouter::with_labeling(m, mesh3d_snake(&m)))
        }
        (BuiltTopo::KAryNCube(c), "multi-path") => {
            Box::new(FaultMultiPathRouter::with_labeling(c, karyn_gray(&c)))
        }
        // Everything else runs fault-oblivious under the recovery engine.
        _ => Box::new(ObliviousRouter::new(build_router(topo, scheme)?)),
    })
}

/// A static route produced by [`build_route`]: either one of the
/// concrete [`MulticastRoute`] shapes, or a greedy Steiner tree whose
/// edges are virtual (multi-hop) — the Chapter 5 `greedy-st` heuristic.
pub enum RoutePlan {
    /// A validated path/star/tree/forest route.
    Route(MulticastRoute),
    /// A greedy Steiner tree over virtual edges, with its traffic.
    Steiner {
        /// The virtual (endpoint-pair) edges of the tree.
        edges: Vec<(NodeId, NodeId)>,
        /// Total channel traffic when each edge is shortest-path routed.
        traffic: usize,
    },
}

/// Routes a single multicast statically — the `mcast route` dispatch
/// point, covering both the simulable schemes and the route-only
/// Chapter 5 heuristics (`sorted-mp`, `greedy-st`, `divided-greedy`).
pub fn build_route(
    topo: &TopoSpec,
    scheme: &SchemeId,
    mc: &MulticastSet,
) -> Result<RoutePlan, RegistryError> {
    check_lanes(scheme)?;
    let built = topo.build();
    let route = match (&built, scheme.name.as_str()) {
        (BuiltTopo::Mesh2D(m), "sorted-mp") => {
            let cycle = mesh2d_cycle(m);
            MulticastRoute::Path(mcast_core::sorted_mp::sorted_mp(m, &cycle, mc))
        }
        (BuiltTopo::Hypercube(c), "sorted-mp") => {
            let cycle = hypercube_cycle(c);
            MulticastRoute::Path(mcast_core::sorted_mp::sorted_mp(c, &cycle, mc))
        }
        (BuiltTopo::Mesh2D(m), "divided-greedy") => {
            MulticastRoute::Tree(mcast_core::divided_greedy::divided_greedy_tree(m, mc))
        }
        (built, "greedy-st") => {
            let (st, traffic) = match built {
                BuiltTopo::Mesh2D(m) => {
                    let st = mcast_core::greedy_st::greedy_st(m, mc);
                    let t = st.traffic(m);
                    (st, t)
                }
                BuiltTopo::Mesh3D(m) => {
                    let st = mcast_core::greedy_st::greedy_st(m, mc);
                    let t = st.traffic(m);
                    (st, t)
                }
                BuiltTopo::Hypercube(c) => {
                    let st = mcast_core::greedy_st::greedy_st(c, mc);
                    let t = st.traffic(c);
                    (st, t)
                }
                BuiltTopo::KAryNCube(c) => {
                    let st = mcast_core::greedy_st::greedy_st(c, mc);
                    let t = st.traffic(c);
                    (st, t)
                }
                BuiltTopo::Custom(g) => {
                    let st = mcast_core::greedy_st::greedy_st(g.as_ref(), mc);
                    let t = st.traffic(g.as_ref());
                    (st, t)
                }
            };
            return Ok(RoutePlan::Steiner {
                edges: st.edges().to_vec(),
                traffic,
            });
        }
        // The modern competitors (DESIGN.md §17) as static routes:
        // DPM's kept partitions are a star of base-routing paths, and
        // a collective schedule's sends merge (round-major) into one
        // delivery tree rooted at the source.
        (built, "dpm") => {
            let router = DpmRouter::new(route_unicast(topo, built)?);
            MulticastRoute::Star(
                router
                    .partitions(mc)
                    .into_iter()
                    .map(PathRoute::new)
                    .collect(),
            )
        }
        (built, "binomial" | "recursive-doubling" | "binomial-reliable") => {
            let unicast = route_unicast(topo, built)?;
            let ranks = CollectiveRouter::ranks(mc);
            let sends = match collective_kind(&scheme.name).expect("matched above") {
                CollectiveKind::Binomial | CollectiveKind::BinomialReliable => {
                    crate::collectives::binomial_schedule(ranks.len())
                }
                CollectiveKind::RecursiveDoubling => {
                    crate::collectives::recursive_doubling_schedule(ranks.len())
                }
            };
            let mut tree = TreeRoute::new(mc.source);
            for s in sends {
                for w in unicast.path(ranks[s.from], ranks[s.to]).windows(2) {
                    if !tree.contains(w[1]) {
                        tree.attach(w[0], w[1]);
                    }
                }
            }
            MulticastRoute::Tree(tree)
        }
        // Custom graphs: the synthesized-unicast schemes, as static
        // routes — a star of certified per-destination paths, or their
        // merged tree.
        (BuiltTopo::Custom(g), "updown-mc") => {
            let routing = mcast_topology::synthesize(g).map_err(|e| err(format!("{topo}: {e}")))?;
            MulticastRoute::Star(
                mc.destinations
                    .iter()
                    .map(|&d| PathRoute::new(routing.path(mc.source, d)))
                    .collect(),
            )
        }
        (BuiltTopo::Custom(g), "updown-tree") => {
            let routing = mcast_topology::synthesize(g).map_err(|e| err(format!("{topo}: {e}")))?;
            let mut tree = TreeRoute::new(mc.source);
            for &d in &mc.destinations {
                let path = routing.path(mc.source, d);
                for w in path.windows(2) {
                    if !tree.contains(w[1]) {
                        tree.attach(w[0], w[1]);
                    }
                }
            }
            MulticastRoute::Tree(tree)
        }
        (BuiltTopo::Custom(_), _) => return Err(not_available(topo, scheme)),
        (BuiltTopo::Mesh2D(m), "dual-path") => {
            MulticastRoute::Star(mcast_core::dual_path::dual_path(m, &mesh2d_snake(m), mc))
        }
        (built, "dual-path") => MulticastRoute::Star(mcast_core::dual_path::dual_path(
            built.as_dyn(),
            &topo.labeling(),
            mc,
        )),
        (BuiltTopo::Mesh2D(m), "multi-path") => MulticastRoute::Star(
            mcast_core::multi_path::multi_path_mesh(m, &mesh2d_snake(m), mc),
        ),
        (built, "multi-path") => MulticastRoute::Star(mcast_core::multi_path::multi_path(
            built.as_dyn(),
            &topo.labeling(),
            mc,
        )),
        (built, "fixed-path") => MulticastRoute::Star(mcast_core::fixed_path::fixed_path(
            built.as_dyn(),
            &topo.labeling(),
            mc,
        )),
        (BuiltTopo::Mesh2D(m), "xfirst-tree") => {
            MulticastRoute::Tree(mcast_core::xfirst::xfirst_tree(m, mc))
        }
        (BuiltTopo::Mesh2D(m), "dc-tree") => MulticastRoute::Forest(
            mcast_core::dc_xfirst_tree::dc_xfirst(m, mc)
                .into_iter()
                .map(|p| p.tree)
                .collect(),
        ),
        _ => return Err(not_available(topo, scheme)),
    };
    route.validate(built.as_dyn(), mc).map_err(RegistryError)?;
    Ok(RoutePlan::Route(route))
}

/// Human-readable channel labels for the trace/heatmap exporters,
/// derived from [`TopoSpec::node_name`].
pub fn channel_names(topo: &TopoSpec, network: &Network) -> Vec<String> {
    (0..network.num_channels())
        .map(|id| {
            let c = network.channel(id);
            format!(
                "{}->{} c{}",
                topo.node_name(c.from),
                topo.node_name(c.to),
                c.class
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modern_schemes_build_static_routes_everywhere_registered() {
        // `mcast route` goes through build_route, not build_router —
        // every registered modern pair must produce a validated static
        // route there too (DPM: star of kept partitions; collectives:
        // the schedule's sends merged into a delivery tree).
        for topo_s in [
            "mesh:6x6",
            "cube:4",
            "kary:4x2",
            "torus:3x2",
            "custom:rand:10x3",
        ] {
            let topo = TopoSpec::parse(topo_s).unwrap();
            let n = topo.num_nodes();
            let mc = MulticastSet::new(1, vec![0, n / 2, n - 1]);
            for name in ["dpm", "binomial", "recursive-doubling", "binomial-reliable"] {
                let plan = build_route(&topo, &SchemeId::named(name), &mc)
                    .unwrap_or_else(|e| panic!("{topo_s}/{name}: {}", e.0));
                match plan {
                    RoutePlan::Route(MulticastRoute::Star(_)) => assert_eq!(name, "dpm"),
                    RoutePlan::Route(MulticastRoute::Tree(_)) => assert_ne!(name, "dpm"),
                    _ => panic!("{topo_s}/{name}: unexpected plan shape"),
                }
            }
        }
    }

    #[test]
    fn topo_spec_parse_display_round_trip() {
        for s in ["mesh:8x8", "mesh:4x3x2", "cube:6", "kary:4x3", "torus:5x2"] {
            let spec = TopoSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(TopoSpec::parse(&spec.to_string()).unwrap(), spec);
            assert_eq!(spec.build().as_dyn().num_nodes(), spec.num_nodes());
        }
        assert!(TopoSpec::parse("mesh:0x4").is_err());
        assert!(TopoSpec::parse("mesh:4").is_err());
        assert!(TopoSpec::parse("mesh:2x2x2x2").is_err());
        assert!(TopoSpec::parse("ring:5").is_err());
        assert!(TopoSpec::parse("kary:4").is_err());
    }

    #[test]
    fn topo_spec_parse_rejects_specs_that_cannot_be_built() {
        // Accepting any of these would panic in `build()` or overflow
        // `num_nodes()`.
        for s in [
            "cube:0",
            "cube:63",
            "cube:64",
            "kary:1x3",
            "torus:1x2",
            "kary:2x64",
            "torus:3x4294967297",
            "mesh:4294967296x4294967296",
            "mesh:65536x65536x4294967296",
        ] {
            let e = TopoSpec::parse(s).expect_err(s);
            assert!(
                e.0.contains(s),
                "{s}: error {:?} does not name the spec",
                e.0
            );
        }
        // The smallest accepted forms build; the widest cube parses.
        for s in ["cube:1", "kary:2x1", "torus:2x3"] {
            let spec = TopoSpec::parse(s).unwrap();
            assert_eq!(spec.build().as_dyn().num_nodes(), spec.num_nodes(), "{s}");
        }
        let widest = TopoSpec::parse(&format!("cube:{}", usize::BITS - 2)).unwrap();
        assert_eq!(widest.num_nodes(), 1 << (usize::BITS - 2));
    }

    #[test]
    fn scheme_id_parse_display() {
        let s = SchemeId::parse("vc-multi-path:4").unwrap();
        assert_eq!(s.name, "vc-multi-path");
        assert_eq!(s.lanes, Some(4));
        assert_eq!(s.to_string(), "vc-multi-path:4");
        assert_eq!(SchemeId::parse("dual-path").unwrap().lanes, None);
        assert!(SchemeId::parse("vc-multi-path:0").is_err());
        assert!(SchemeId::parse("vc-multi-path:x").is_err());
        assert!(SchemeId::parse("").is_err());
    }

    #[test]
    fn build_router_covers_all_topologies() {
        for topo in ["mesh:4x4", "mesh:3x3x3", "cube:4", "kary:3x3", "torus:3x3"] {
            let spec = TopoSpec::parse(topo).unwrap();
            for scheme in schemes_for(&spec) {
                let r =
                    build_router(&spec, &scheme).unwrap_or_else(|e| panic!("{topo}/{scheme}: {e}"));
                assert!(!r.name().is_empty());
                assert_eq!(
                    r.required_classes(),
                    scheme_classes(&scheme),
                    "{topo}/{scheme}"
                );
            }
        }
    }

    /// The closed-form channel count matches the built topology's on
    /// every kind, edge cases included.
    #[test]
    fn closed_form_channel_counts_match_built_topologies() {
        for s in [
            "mesh:1x1",
            "mesh:1x5",
            "mesh:4x3",
            "mesh:3x3x3",
            "mesh:2x1x4",
            "cube:1",
            "cube:5",
            "kary:3x3",
            "kary:2x4",
            "torus:3x3",
            "torus:2x3",
            "torus:4x2",
            "custom:rand:10x3",
        ] {
            let spec = TopoSpec::parse(s).unwrap();
            assert_eq!(
                spec.num_channels(),
                Some(spec.build().as_dyn().num_channels()),
                "{s}"
            );
        }
    }

    /// Channel ids are `u32` with `u32::MAX` reserved. `cube:27` has
    /// 27 × 2^27 ≈ 3.6 G channels: one class fits, two do not, and
    /// `cube:28` does not fit at all. Closed-form counts, nothing built.
    #[test]
    fn channel_id_limit_is_a_typed_error() {
        let cube27 = TopoSpec::parse("cube:27").unwrap();
        let cube28 = TopoSpec::parse("cube:28").unwrap();
        assert_eq!(check_channel_ids(&cube27, 1), Ok(()));
        assert!(check_channel_ids(&cube27, 2).is_err());
        assert!(check_channel_ids(&cube28, 1).is_err());
        let widest = TopoSpec::parse(&format!("cube:{}", usize::BITS - 2)).unwrap();
        assert!(check_channel_ids(&widest, 1).is_err(), "overflowing count");
        // build_router refuses before building anything: dual-path on
        // cube:28 would otherwise allocate a 2^28-node labeling.
        let e = build_router(&cube28, &SchemeId::named("dual-path")).err();
        assert!(e.is_some_and(|e| e.0.contains("u32 channel-id limit")));
        let vc2 = SchemeId::parse("vc-multi-path:2").unwrap();
        assert!(build_router(&cube27, &vc2).is_err());
    }

    #[test]
    fn lanes_rejected_on_non_lane_schemes() {
        let spec = TopoSpec::parse("mesh:4x4").unwrap();
        let bad = SchemeId {
            name: "dual-path".to_string(),
            lanes: Some(3),
        };
        assert!(build_router(&spec, &bad).is_err());
        let vc = SchemeId::parse("vc-multi-path:3").unwrap();
        assert_eq!(build_router(&spec, &vc).unwrap().required_classes(), 3);
    }

    #[test]
    fn fault_router_covers_all_topologies() {
        for topo in ["mesh:4x4", "mesh:3x3x3", "cube:3", "kary:3x2"] {
            let spec = TopoSpec::parse(topo).unwrap();
            for name in ["dual-path", "multi-path", "fixed-path"] {
                let r = build_fault_router(&spec, &SchemeId::named(name))
                    .unwrap_or_else(|e| panic!("{topo}/{name}: {e}"));
                assert!(!r.name().is_empty());
            }
        }
    }

    #[test]
    fn hotspot_and_names_cover_all_topologies() {
        for topo in ["mesh:4x4", "mesh:3x3x3", "cube:4", "torus:3x3"] {
            let spec = TopoSpec::parse(topo).unwrap();
            let hot = spec.hotspot_node();
            assert!(hot < spec.num_nodes(), "{topo}");
            assert!(!spec.node_name(hot).is_empty());
            let network = Network::new(spec.build().as_dyn(), 1);
            let names = channel_names(&spec, &network);
            assert_eq!(names.len(), network.num_channels());
        }
        assert_eq!(
            TopoSpec::parse("mesh:3x3x3").unwrap().node_name(13),
            "(1,1,1)"
        );
    }
}
