//! Integration tests for the differential conformance harness (ISSUE 5,
//! DESIGN.md §12): the registry's deadlock-freedom claims checked
//! *operationally* on the reference simulator, and the harness's own
//! acceptance gates — a clean sweep across the registry, and proof that
//! an intentionally injected engine bug is caught and shrunk small.

use mcast::sim::registry::{build_router, schemes_for, SchemeId, TopoSpec, SCHEMES};
use mcast::sim::{Network, ReferenceEngine, SimConfig};
use mcast::workload::conform::{check_scenario, run_verify, shrink_scenario, VerifyScenario};
use mcast::workload::{MulticastGen, PatternSpec, TrafficPattern};

/// Saturates the reference simulator with an adversarial closed
/// scenario: every node sources several hot-spot multicasts, all
/// injected at t = 0, so the hot node's incoming channels are fought
/// over by the whole machine at once. Returns whether the network
/// drained and how many messages ran.
fn hotspot_full_load_quiesces(topo: &TopoSpec, scheme: &SchemeId) -> (bool, usize) {
    let router = build_router(topo, scheme).expect("registered pair builds");
    let built = topo.build();
    let n = topo.num_nodes();
    let pattern = TrafficPattern::Hotspot {
        node: topo.hotspot_node(),
    };
    // Tree schemes claim deadlock freedom under the virtual cut-through
    // router model the dissertation references — message-sized branch
    // buffers. Under strict single-flit lock-step replication they can
    // wedge through shared-buffer sibling coupling (the finding pinned
    // in tests/tree_lockstep_finding.rs), so test the claim in the
    // model it is made for. Path and circuit schemes keep the strict
    // single-flit wormhole model.
    let mut config = SimConfig::default();
    if scheme.name.ends_with("-tree") {
        config.buffer_flits = config.flits_per_message();
    }
    let mut engine = ReferenceEngine::new(
        Network::new(built.as_dyn(), router.required_classes()),
        config,
    );
    let mut gen = MulticastGen::new(n, 0xA11);
    let mut injected = 0;
    for _round in 0..3 {
        for src in 0..n {
            let mc = pattern.apply(injected, gen.multicast_distinct(src, 4.min(n - 1)));
            engine.inject(&router.plan(&mc));
            injected += 1;
        }
    }
    (engine.run_to_quiescence(), injected as usize)
}

/// Registry-claims satellite: every scheme the registry declares
/// deadlock-free must *operationally* survive full-load hot-spot
/// traffic on a 4x4 mesh and a 3-cube (wherever it is registered) —
/// not just have an acyclic CDG on paper.
#[test]
fn deadlock_free_claims_hold_under_adversarial_hotspot_load() {
    let topos = [
        TopoSpec::parse("mesh:4x4").unwrap(),
        TopoSpec::parse("cube:3").unwrap(),
    ];
    let mut checked = 0;
    for info in SCHEMES.iter().filter(|i| i.deadlock_free && i.simulable) {
        for topo in &topos {
            let Some(scheme) = schemes_for(topo).into_iter().find(|s| s.name == info.name) else {
                continue; // not registered on this topology kind
            };
            let (quiesced, injected) = hotspot_full_load_quiesces(topo, &scheme);
            assert!(
                quiesced,
                "{} on {topo} claims deadlock freedom but wedged under \
                 {injected} full-load hot-spot multicasts",
                info.name
            );
            checked += 1;
        }
    }
    // Every deadlock-free simulable scheme is registered on at least
    // one of the two topologies; most on exactly one, the path schemes
    // on both.
    assert!(checked >= 8, "only {checked} (scheme, topology) runs");
}

/// Acceptance gate 1: `mcast verify --seed 1 --cases 64` — 64 seeded
/// cases covering every registry (topology, scheme) pair — passes with
/// zero mismatches.
#[test]
fn verify_sweep_seed1_64_cases_is_clean() {
    let report = run_verify(1, 64, false).expect("cases derive");
    assert!(
        report.failures.is_empty(),
        "conformance failures: {:#?}",
        report.failures
    );
}

/// Acceptance gate 2: the intentionally injected engine bug (the
/// test-only swapped channel-class check) is caught by the harness and
/// shrinks to a reproducer spec of at most 4 messages.
#[test]
fn injected_class_swap_bug_is_caught_and_shrunk() {
    let scenario = VerifyScenario {
        topology: TopoSpec::parse("mesh:4x4").unwrap(),
        scheme: SchemeId::named("dc-tree"),
        pattern: PatternSpec::Hotspot,
        load_us: 10.0,
        destinations: 5,
        messages: 16,
        seed: 11,
        fault_rate: 0.0,
        stream: true,
    };
    assert!(
        check_scenario(&scenario, false).unwrap().is_empty(),
        "scenario must be clean without the bug"
    );
    let problems = check_scenario(&scenario, true).unwrap();
    assert!(!problems.is_empty(), "the injected bug must be detected");
    let shrunk = shrink_scenario(&scenario, true);
    assert!(
        shrunk.messages <= 4,
        "reproducer has {} messages, acceptance bound is 4",
        shrunk.messages
    );
    let spec = shrunk.to_spec();
    spec.validate().expect("reproducer spec validates");
    let replayed = VerifyScenario::from_spec(&spec).expect("reproducer decodes");
    assert!(
        !check_scenario(&replayed, true).unwrap().is_empty(),
        "replayed reproducer must still expose the bug"
    );
}
