//! Direct verification of §7.2's hot-spot explanation: "When multi-path
//! routing is used to reach a relatively large set of destinations, the
//! source node will likely send on all of its outgoing channels. …
//! In essence, the source node becomes a 'hot spot.'"
//!
//! We run one busy multicasting node amid background traffic and compare
//! the utilization of the source's outgoing channels between dual-path
//! (at most two of them busy per message) and multi-path (up to four).
//! Busy time comes from a `Metrics` sink, which sums every `FlitHop`.

use mcast::prelude::*;

/// Runs `rounds` large multicasts from a central hot node, with every
/// other node sending light background traffic; returns the mean
/// utilization of the hot node's outgoing channels.
fn hot_node_out_utilization(router: &dyn MulticastRouter, mesh: &Mesh2D) -> f64 {
    let hot = mesh.node(4, 4);
    let mut engine = Engine::new(Network::new(mesh, 1), SimConfig::default());
    let metrics = Metrics::new();
    engine.set_sink(Box::new(metrics.clone()));
    let mut gen = MulticastGen::new(mesh.num_nodes(), 0x407);
    let mut t = 0u64;
    for _ in 0..300 {
        engine.run_until(t);
        // The hot node multicasts to a large destination set…
        let mc = gen.multicast_distinct(hot, 30);
        engine.inject(&router.plan(&mc));
        // …while two random nodes send small multicasts.
        for _ in 0..2 {
            let s = gen.source();
            if s != hot {
                let mc = gen.multicast_distinct(s, 3);
                engine.inject(&router.plan(&mc));
            }
        }
        t += 60_000;
    }
    assert!(engine.run_to_quiescence(), "path routing drains");
    let snap = metrics.snapshot();
    let mut total = 0.0;
    let mut n = 0usize;
    for nb in mesh.neighbors(hot) {
        for id in engine.network().ids_of_link(hot, nb) {
            total += snap.utilization(id);
            n += 1;
        }
    }
    total / n as f64
}

#[test]
fn multi_path_source_channels_run_hotter_than_dual_path() {
    let mesh = Mesh2D::new(9, 9);
    let dual = hot_node_out_utilization(&DualPathRouter::mesh(mesh), &mesh);
    let multi = hot_node_out_utilization(&MultiPathMeshRouter::new(mesh), &mesh);
    assert!(
        multi > dual,
        "multi-path source-channel utilization {multi:.3} !> dual-path {dual:.3}"
    );
}

#[test]
fn utilization_accounting_is_sane() {
    let mesh = Mesh2D::new(4, 4);
    let router = DualPathRouter::mesh(mesh);
    let mut engine = Engine::new(Network::new(&mesh, 1), SimConfig::default());
    let metrics = Metrics::new();
    engine.set_sink(Box::new(metrics.clone()));
    let mc = MulticastSet::new(0, vec![15]);
    engine.inject(&router.plan(&mc));
    assert!(engine.run_to_quiescence());
    // Exactly the path's channels have nonzero busy time; each carried
    // all flits once.
    let snap = metrics.snapshot();
    let nonzero = snap.channels.iter().filter(|c| c.busy_ns > 0).count();
    let plan = router.plan(&mc);
    assert_eq!(nonzero, plan.traffic());
    for (id, c) in snap.channels.iter().enumerate() {
        let b = c.busy_ns;
        let u = snap.utilization(id);
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        if b > 0 {
            let cfg = engine.config();
            let expect = cfg.flit_time_ns() * cfg.flits_per_message() as u64 + cfg.routing_delay_ns;
            assert_eq!(b, expect, "channel {id}");
        }
    }
}
