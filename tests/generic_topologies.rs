//! §8.1's closing claim, exercised end to end: "These routing algorithms
//! can be applied to any multicomputer networks that have Hamilton
//! paths." Dual-path / multi-path / fixed-path run unmodified on
//! cube-connected cycles, k-ary n-cubes and 3D meshes — routed, validated
//! and simulated.

use mcast::prelude::*;
use mcast::routing::vc_multi_path;
use mcast::sim::plan::{PlanPath, PlanWorm};
use mcast::sim::registry::{
    build_router, scheme_deadlock_free, schemes_for, BuiltTopo, SchemeId, TopoSpec,
};
use mcast::topology::cdg::ChannelDependencyGraph;
use mcast::topology::hamiltonian::find_path;
use mcast::topology::CubeConnectedCycles;
use mcast::workload::MulticastGen;

/// One sample of every registered topology kind.
const REGISTRY_TOPOS: [&str; 5] = ["mesh:4x4", "mesh:3x3x2", "cube:4", "kary:3x2", "torus:3x2"];

fn star_plan(mc: &MulticastSet, paths: &[mcast::routing::PathRoute]) -> DeliveryPlan {
    DeliveryPlan {
        source: mc.source,
        destinations: mc.destinations.clone(),
        worms: paths
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| {
                PlanWorm::Path(PlanPath {
                    nodes: p.nodes().to_vec(),
                    class: ClassChoice::Any,
                })
            })
            .collect(),
    }
}

fn route_and_simulate<T: Topology>(topo: &T, labeling: &Labeling, seed: usize) {
    let n = topo.num_nodes();
    let mc = MulticastSet::new((seed * 7) % n, (0..6).map(|i| (seed * 13 + i * 5 + 1) % n));
    // Route with all three schemes and validate.
    let dual = dual_path(topo, labeling, &mc);
    MulticastRoute::Star(dual.clone())
        .validate(topo, &mc)
        .unwrap();
    let multi = multi_path(topo, labeling, &mc);
    MulticastRoute::Star(multi).validate(topo, &mc).unwrap();
    let fixed = fixed_path(topo, labeling, &mc);
    MulticastRoute::Star(fixed).validate(topo, &mc).unwrap();
    // Simulate the dual-path delivery.
    let mut engine = Engine::new(Network::new(topo, 1), SimConfig::default());
    engine.inject(&star_plan(&mc, &dual));
    assert!(
        engine.run_to_quiescence(),
        "seed {seed}: wedged on {}",
        topo.describe()
    );
}

#[test]
fn path_routing_on_cube_connected_cycles() {
    let ccc = CubeConnectedCycles::new(3);
    let labeling = Labeling::from_path(find_path(&ccc, 0).expect("CCC(3) has a Hamiltonian path"));
    assert!(labeling.is_hamiltonian_path_of(&ccc));
    for seed in 0..15 {
        route_and_simulate(&ccc, &labeling, seed);
    }
}

#[test]
fn path_routing_on_kary_ncube() {
    let t = KAryNCube::mesh(4, 3); // 64 nodes
    let labeling = karyn_gray(&t);
    for seed in 0..15 {
        route_and_simulate(&t, &labeling, seed);
    }
}

#[test]
fn path_routing_on_3d_mesh() {
    let m = Mesh3D::new(4, 4, 4);
    let labeling = mesh3d_snake(&m);
    for seed in 0..15 {
        route_and_simulate(&m, &labeling, seed);
    }
}

#[test]
fn saturating_closed_load_on_ccc_drains() {
    // Every CCC(3) node multicasts simultaneously via dual-path.
    let ccc = CubeConnectedCycles::new(3);
    let labeling = Labeling::from_path(find_path(&ccc, 0).expect("Hamiltonian"));
    let mut engine = Engine::new(Network::new(&ccc, 1), SimConfig::default());
    for s in 0..ccc.num_nodes() {
        let mc = MulticastSet::new(s, (1..=5).map(|i| (s + i * 4) % ccc.num_nodes()));
        engine.inject(&star_plan(&mc, &dual_path(&ccc, &labeling, &mc)));
    }
    assert!(engine.run_to_quiescence(), "CCC saturating load wedged");
}

/// Resolves the classes a worm may occupy: `Fixed(c)` pins one class,
/// `Any` may land on any of the network's classes.
fn worm_classes(class: ClassChoice, num_classes: u8) -> Vec<u8> {
    match class {
        ClassChoice::Fixed(c) => vec![c],
        ClassChoice::Any => (0..num_classes).collect(),
    }
}

/// Registry exhaustiveness (§8.1 generalised): every `(topology, scheme)`
/// pair the registry advertises builds a router, routes a smoke
/// multicast, and drains to quiescence on the flit-level engine.
#[test]
fn every_registered_pair_routes_and_quiesces() {
    for topo_s in REGISTRY_TOPOS {
        let topo = TopoSpec::parse(topo_s).unwrap();
        let built = topo.build();
        let n = topo.num_nodes();
        for scheme in schemes_for(&topo) {
            let router = build_router(&topo, &scheme)
                .unwrap_or_else(|e| panic!("{topo_s}/{scheme}: {}", e.0));
            let mut gen = MulticastGen::new(n, 0xc0de);
            for trial in 0..8 {
                let src = gen.source();
                let mc = gen.multicast_distinct(src, 5.min(n / 2));
                let plan = router.plan(&mc);
                assert_eq!(
                    plan.destinations, mc.destinations,
                    "{topo_s}/{scheme} trial {trial}: plan covers the set"
                );
                let mut engine = Engine::new(
                    Network::new(built.as_dyn(), router.required_classes()),
                    SimConfig::default(),
                );
                engine.inject(&plan);
                assert!(
                    engine.run_to_quiescence(),
                    "{topo_s}/{scheme} trial {trial}: wedged"
                );
            }
        }
    }
}

/// For every registered pair whose scheme the dissertation proves
/// deadlock-free, accumulate the channel dependencies of many random
/// multicasts and assert each channel class's CDG is acyclic (Dally &
/// Seitz). Deadlock-prone baselines (`xfirst-tree`, `ecube-tree`) are
/// exactly the ones skipped.
#[test]
fn deadlock_free_schemes_have_acyclic_cdgs() {
    for topo_s in REGISTRY_TOPOS {
        let topo = TopoSpec::parse(topo_s).unwrap();
        let built = topo.build();
        let n = topo.num_nodes();
        for scheme in schemes_for(&topo) {
            // The claim is per (topology, scheme): the modern competitors
            // inherit the base unicast routing's freedom, which the torus
            // wrap rings break (DESIGN.md §17.4).
            if !scheme_deadlock_free(&topo, &scheme.name) {
                continue;
            }
            let router = build_router(&topo, &scheme).unwrap();
            let classes = router.required_classes();
            // One CDG per channel class; a worm only ever waits on
            // channels of the class it occupies.
            let mut cdgs: Vec<ChannelDependencyGraph> = (0..classes)
                .map(|_| ChannelDependencyGraph::new(built.as_dyn().channels()))
                .collect();
            let mut gen = MulticastGen::new(n, 0xd15c);
            for _ in 0..25 {
                let src = gen.source();
                let mc = gen.multicast_distinct(src, (n / 2).clamp(2, 8));
                for worm in router.plan(&mc).worms {
                    match worm {
                        // A staged worm holds no channel while held, so
                        // waiting adds no dependence edge; once released
                        // it is an ordinary path worm (DESIGN.md §17.3).
                        PlanWorm::Staged(s) => {
                            for c in worm_classes(s.path.class, classes) {
                                for w in s.path.nodes.windows(3) {
                                    cdgs[c as usize].add_dependency(
                                        Channel::new(w[0], w[1]),
                                        Channel::new(w[1], w[2]),
                                    );
                                }
                            }
                        }
                        PlanWorm::Path(p) | PlanWorm::Circuit(p) => {
                            for c in worm_classes(p.class, classes) {
                                for w in p.nodes.windows(3) {
                                    cdgs[c as usize].add_dependency(
                                        Channel::new(w[0], w[1]),
                                        Channel::new(w[1], w[2]),
                                    );
                                }
                            }
                        }
                        PlanWorm::Tree(t) => {
                            // A lock-step tree holds every branch at
                            // once: each edge depends on the child edges
                            // it feeds (same class only — dc-tree keeps
                            // each of its two trees within one class).
                            for &(from, to, c1) in &t.edges {
                                for &(from2, to2, c2) in &t.edges {
                                    if from2 == to && c1 == c2 {
                                        for c in worm_classes(c1, classes) {
                                            cdgs[c as usize].add_dependency(
                                                Channel::new(from, to),
                                                Channel::new(from2, to2),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for (c, cdg) in cdgs.iter().enumerate() {
                assert!(
                    cdg.is_acyclic(),
                    "{topo_s}/{scheme}: class-{c} CDG has a cycle: {:?}",
                    cdg.find_cycle()
                );
            }
        }
    }
}

#[test]
fn vc_lanes_on_kary_ncube() {
    let t = KAryNCube::mesh(3, 3);
    let labeling = karyn_gray(&t);
    let mc = MulticastSet::new(13, (0..10).map(|i| (i * 2 + 1) % 27));
    for lanes in 1..=3u8 {
        let paths = vc_multi_path::vc_multi_path(&t, &labeling, &mc, lanes);
        for &d in &mc.destinations {
            assert!(
                paths.iter().any(|p| p.path.hops_to(d).is_some()),
                "lanes={lanes}"
            );
        }
    }
}

/// The plan a label-routed scheme must produce for `mc`, built from the
/// allocating `mcast_core` function over `table`, a plain-table copy of
/// the scheme's labeling, so every hop takes the generic scan of `R`.
/// `None` for the schemes that are not label-routed.
fn reference_plan(
    built: &BuiltTopo,
    table: &Labeling,
    scheme: &SchemeId,
    mc: &MulticastSet,
) -> Option<DeliveryPlan> {
    let topo = built.as_dyn();
    let star =
        |paths: &[mcast::routing::PathRoute]| DeliveryPlan::from_paths(mc, paths, ClassChoice::Any);
    Some(match scheme.name.as_str() {
        "dual-path" => star(&dual_path(topo, table, mc)),
        "circuit-dual-path" => {
            let mut plan = star(&dual_path(topo, table, mc));
            for w in &mut plan.worms {
                if let PlanWorm::Path(p) = w {
                    *w = PlanWorm::Circuit(p.clone());
                }
            }
            plan
        }
        "multi-path" => match built {
            BuiltTopo::Mesh2D(m) => star(&multi_path_mesh(m, table, mc)),
            _ => star(&multi_path(topo, table, mc)),
        },
        "fixed-path" => star(&fixed_path(topo, table, mc)),
        "vc-multi-path" => DeliveryPlan {
            source: mc.source,
            destinations: mc.destinations.clone(),
            worms: vc_multi_path::vc_multi_path(topo, table, mc, scheme.lanes_or_default())
                .into_iter()
                .map(|p| {
                    PlanWorm::Path(PlanPath {
                        nodes: p.path.nodes().to_vec(),
                        class: ClassChoice::Fixed(p.lane),
                    })
                })
                .collect(),
        },
        _ => return None,
    })
}

/// Compiled routes are plan-identical: for every registered pair,
/// `plan_into` through one arena shared by every pair and message (so
/// always dirty with the previous plan's buffers) equals the reference
/// plan built with the generic `R`. Schemes that are not label-routed
/// must give the same plan from the dirty arena as from a fresh one.
#[test]
fn plan_into_from_a_dirty_arena_equals_the_generic_reference() {
    let mut arena = PlanArena::new();
    let mut out = DeliveryPlan::default();
    for topo_s in REGISTRY_TOPOS.iter().chain(&["mesh:7x5", "cube:6"]) {
        let topo = TopoSpec::parse(topo_s).unwrap();
        let built = topo.build();
        let table = Labeling::from_path(topo.labeling().path().to_vec());
        let n = topo.num_nodes();
        for scheme in schemes_for(&topo) {
            let router = build_router(&topo, &scheme).unwrap();
            let mut gen = MulticastGen::new(n, 0x91a4);
            for i in 0..200 {
                let src = gen.source();
                let mc = gen.multicast_distinct(src, 1 + i % (n - 1));
                router.plan_into(&mc, &mut arena, &mut out);
                let want = reference_plan(&built, &table, &scheme, &mc)
                    .unwrap_or_else(|| router.plan(&mc));
                assert_eq!(out, want, "{topo_s}/{scheme} message {i}");
            }
        }
    }
    // The pool holds at most one plan's buffers, however many plans ran.
    assert!(arena.pooled() < 200, "{} pooled buffers", arena.pooled());
}
