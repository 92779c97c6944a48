//! The observability contract: attaching any sink (event recording,
//! metrics collection, or both) never perturbs simulation results.
//! Healthy runs, deadlocking runs, and fault-injected recovering runs
//! must all be bit-identical with and without instrumentation, and the
//! collected metrics must agree with the uninstrumented outcome.

use mcast::prelude::*;
use mcast_obs::{Metrics, Recording, Tee};
use mcast_sim::deadlock::{
    fig_6_4_multicasts, run_closed_scenario, run_closed_scenario_recovering,
    run_closed_scenario_recovering_with_sink, run_closed_scenario_with_sink,
};
use mcast_sim::recovery::{ObliviousRouter, RecoveryEngine, RecoveryPolicy};
use mcast_topology::{FaultEvent, FaultSchedule};
use proptest::prelude::*;

/// A tee of a fresh `Recording` and `Metrics` pair, handles returned
/// for readback.
fn tee() -> (Recording, Metrics, Box<dyn mcast_obs::Sink>) {
    let rec = Recording::new();
    let met = Metrics::new();
    let sink = Tee::new()
        .with(Box::new(rec.clone()))
        .with(Box::new(met.clone()));
    (rec, met, Box::new(sink))
}

/// Seeded batch of simultaneous multicasts on an `n`-node topology.
fn seeded_multicasts(n: usize, count: usize, k: usize, seed: u64) -> Vec<MulticastSet> {
    let mut gen = MulticastGen::new(n, seed);
    (0..count)
        .map(|_| {
            let s = gen.source();
            gen.multicast_distinct(s, k.min(n - 1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recording_sink_is_invisible_on_healthy_meshes(
        (side, count, k, seed) in (3usize..=6, 1usize..=12, 1usize..=6, 0u64..1000)
    ) {
        let mesh = Mesh2D::new(side, side);
        let router = DualPathRouter::mesh(mesh);
        let mcs = seeded_multicasts(mesh.num_nodes(), count, k, seed);

        let bare = run_closed_scenario(
            &router,
            Network::new(&mesh, 1),
            SimConfig::default(),
            &mcs,
        );
        let (rec, met, sink) = tee();
        let observed = run_closed_scenario_with_sink(
            &router,
            Network::new(&mesh, 1),
            SimConfig::default(),
            &mcs,
            Some(sink),
        );
        prop_assert_eq!(&bare, &observed);
        prop_assert!(bare.completed, "dual-path closed scenarios drain");

        // The sink did observe the run, and its aggregates agree with
        // the uninstrumented outcome.
        prop_assert!(!rec.is_empty());
        let snap = met.snapshot();
        prop_assert_eq!(snap.injected as usize, mcs.len());
        prop_assert_eq!(snap.completed as usize, mcs.len());
        prop_assert_eq!(snap.latency_ns.count(), snap.completed);
        prop_assert_eq!(snap.end_ns, bare.finished_at);
    }
}

#[test]
fn recording_sink_is_invisible_on_a_deadlocked_scenario() {
    // Fig 6.4's X-first trees wedge; the stuck diagnostics must be
    // identical with a sink attached.
    let mesh = Mesh2D::new(4, 3);
    let router = XFirstTreeRouter::new(mesh);
    let mcs = fig_6_4_multicasts(&mesh);
    let bare = run_closed_scenario(&router, Network::new(&mesh, 1), SimConfig::default(), &mcs);
    let (rec, _met, sink) = tee();
    let observed = run_closed_scenario_with_sink(
        &router,
        Network::new(&mesh, 1),
        SimConfig::default(),
        &mcs,
        Some(sink),
    );
    assert!(!bare.completed);
    assert_eq!(bare, observed);
    // A wedged run still produced channel events (the blocked worms).
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, mcast_obs::SimEvent::ChannelBlocked { .. })));
}

#[test]
fn recording_sink_is_invisible_under_recovery() {
    // Deadlock recovery (abort–drain–retry) with and without a sink:
    // outcome, stats, and the structured event log all match.
    let mesh = Mesh2D::new(4, 3);
    let router = ObliviousRouter::new(XFirstTreeRouter::new(mesh));
    let mcs = fig_6_4_multicasts(&mesh);
    let bare = run_closed_scenario_recovering(
        &router,
        Network::new(&mesh, 1),
        SimConfig::default(),
        RecoveryPolicy::default(),
        &mcs,
    );
    let (rec, met, sink) = tee();
    let observed = run_closed_scenario_recovering_with_sink(
        &router,
        Network::new(&mesh, 1),
        SimConfig::default(),
        RecoveryPolicy::default(),
        &mcs,
        Some(sink),
    );
    assert_eq!(bare, observed);
    assert!(bare.0.completed, "recovery resolves the Fig 6.4 deadlock");
    let snap = met.snapshot();
    assert_eq!(snap.recovery_aborts as usize, bare.1.aborts);
    assert_eq!(snap.recovery_retries as usize, bare.1.retries);
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, mcast_obs::SimEvent::RecoveryAborted { .. })));
}

#[test]
fn recording_sink_is_invisible_with_injected_faults() {
    // Mid-run link failures under the recovery engine: the faulted run
    // is bit-identical with and without instrumentation.
    let mesh = Mesh2D::new(5, 5);
    let router = mcast_sim::recovery::FaultDualPathRouter::mesh(mesh);
    let mcs = seeded_multicasts(mesh.num_nodes(), 12, 4, 0xfau64);
    let mut schedule = FaultSchedule::none();
    schedule.push(
        20_000,
        FaultEvent::LinkDown(mesh.node(2, 2), mesh.node(3, 2)),
    );
    schedule.push(
        45_000,
        FaultEvent::LinkDown(mesh.node(1, 1), mesh.node(1, 2)),
    );

    let run = |sink: Option<Box<dyn mcast_obs::Sink>>| {
        let mut rec = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        );
        rec.set_schedule(schedule.clone());
        if let Some(s) = sink {
            rec.set_sink(s);
        }
        for mc in &mcs {
            rec.submit(mc.clone());
        }
        let completed = rec.run();
        (
            completed,
            rec.now(),
            rec.stats().clone(),
            rec.events().to_vec(),
            rec.outcomes(),
        )
    };

    let bare = run(None);
    let (rec, met, sink) = tee();
    let observed = run(Some(sink));
    assert_eq!(bare, observed);
    assert_eq!(bare.2.link_failures, 2);
    let snap = met.snapshot();
    assert_eq!(snap.link_failures, 2);
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, mcast_obs::SimEvent::LinkFailed { .. })));
}

#[test]
fn metrics_sink_is_invisible_on_a_streamed_dynamic_run() {
    // A message-bound streamed run whose in-flight cap binds: the
    // dynamic runner with a metrics sink reports the same result as
    // the sink-less run, and the sink saw every injection and
    // completion the runner counted.
    let mesh = Mesh2D::new(8, 8);
    let router = DualPathRouter::mesh(mesh);
    let cfg = mcast_workload::DynamicConfig {
        mean_interarrival_ns: 50_000.0,
        destinations: 4,
        warmup: 50,
        batch_size: 20,
        ..Default::default()
    };
    let stream = mcast_workload::StreamConfig {
        messages: Some(1_500),
        max_in_flight: 48,
        ..Default::default()
    };
    let bare = mcast_workload::run_dynamic_stream(&mesh, &router, &cfg, &stream);
    let met = Metrics::new();
    let observed = mcast_workload::run_dynamic_with_sink(
        &mesh,
        &router,
        &cfg,
        &stream,
        Some(Box::new(met.clone())),
    );
    assert_eq!(format!("{bare:?}"), format!("{observed:?}"));
    assert_eq!(bare.completed, 1_500);
    assert_eq!(bare.peak_in_flight, 48, "the cap binds");
    let snap = met.snapshot();
    assert_eq!(snap.injected, 1_500);
    assert_eq!(snap.completed as usize, observed.completed);
}
