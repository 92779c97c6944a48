//! End-to-end checks of the dissertation's headline quantitative and
//! qualitative claims, at reduced (fast) scale. The full-scale numbers
//! live in EXPERIMENTS.md and are regenerated by the `figures` binary.

use mcast::prelude::*;
use mcast::workload::{measure_traffic, run_dynamic, DynamicConfig};

const SEED: u64 = 77;

#[test]
fn claim_sorted_mp_beats_baselines_static() {
    // §7.1 / Fig 7.1-7.2 shape at reduced scale.
    let m = Mesh2D::new(16, 16);
    let c = mesh2d_cycle(&m);
    for k in [10usize, 40, 120] {
        let mp = measure_traffic(m.num_nodes(), k, 120, SEED, |mc| {
            sorted_mp(&m, &c, mc).len()
        });
        let mu = measure_traffic(m.num_nodes(), k, 120, SEED, |mc| {
            mcast::routing::model::multi_unicast_traffic(&m, mc)
        });
        assert!(
            mp.mean_additional < mu.mean_additional,
            "k={k}: MP {} !< multi-unicast {}",
            mp.mean_additional,
            mu.mean_additional
        );
        let bcast = mcast::workload::broadcast_additional(m.num_nodes(), mp.mean_effective_k);
        assert!(mp.mean_additional < bcast, "k={k}: MP !< broadcast");
    }
}

#[test]
fn claim_greedy_st_beats_len_on_cube() {
    // Fig 7.4's headline: "a significant improvement over the LEN
    // algorithm in terms of the amount of traffic".
    let h = Hypercube::new(8);
    for k in [10usize, 30, 80] {
        let st = measure_traffic(h.num_nodes(), k, 80, SEED, |mc| {
            greedy_st(&h, mc).traffic(&h)
        });
        let len = measure_traffic(h.num_nodes(), k, 80, SEED, |mc| {
            mcast::routing::len::len_tree(&h, mc).traffic()
        });
        assert!(
            st.mean_additional < len.mean_additional,
            "k={k}: greedy ST {} !< LEN {}",
            st.mean_additional,
            len.mean_additional
        );
    }
}

#[test]
fn claim_divided_greedy_beats_xfirst_static() {
    // Fig 7.5's shape.
    let m = Mesh2D::new(16, 16);
    for k in [10usize, 40, 100] {
        let xf = measure_traffic(m.num_nodes(), k, 150, SEED, |mc| {
            xfirst_tree(&m, mc).traffic()
        });
        let dg = measure_traffic(m.num_nodes(), k, 150, SEED, |mc| {
            divided_greedy_tree(&m, mc).traffic()
        });
        assert!(
            dg.mean_additional < xf.mean_additional,
            "k={k}: divided {} !< x-first {}",
            dg.mean_additional,
            xf.mean_additional
        );
    }
}

#[test]
fn claim_multi_path_less_traffic_than_dual_on_mesh() {
    // Figs 6.16 vs 6.13 generalized: on the mesh, multi-path generates
    // less traffic and much shorter worst-case reach.
    let m = Mesh2D::new(8, 8);
    let l = mesh2d_snake(&m);
    let dual = measure_traffic(m.num_nodes(), 10, 300, SEED, |mc| {
        dual_path(&m, &l, mc).iter().map(|p| p.len()).sum()
    });
    let multi = measure_traffic(m.num_nodes(), 10, 300, SEED, |mc| {
        multi_path_mesh(&m, &l, mc).iter().map(|p| p.len()).sum()
    });
    assert!(multi.mean_traffic < dual.mean_traffic);
}

fn quick_dynamic() -> DynamicConfig {
    DynamicConfig {
        warmup: 100,
        batch_size: 25,
        min_batches: 4,
        max_batches: 8,
        ..DynamicConfig::default()
    }
}

#[test]
fn claim_path_schemes_survive_load_better_than_tree() {
    // Fig 7.8's shape: as load increases, the tree scheme's latency grows
    // faster than the path schemes'.
    let mesh = Mesh2D::new(8, 8);
    let tree = DoubleChannelTreeRouter::new(mesh);
    let dual = DualPathRouter::mesh(mesh);

    let run = |router: &dyn MulticastRouter, interarrival_us: f64| {
        struct Double<'a>(&'a dyn MulticastRouter);
        impl MulticastRouter for Double<'_> {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn required_classes(&self) -> u8 {
                2
            }
            fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
                self.0.plan_into(mc, arena, out)
            }
        }
        let mut cfg = quick_dynamic();
        cfg.mean_interarrival_ns = interarrival_us * 1000.0;
        cfg.destinations = 10;
        run_dynamic(&mesh, &Double(router), &cfg)
    };

    let tree_light = run(&tree, 2000.0);
    let tree_heavy = run(&tree, 160.0);
    let dual_light = run(&dual, 2000.0);
    let dual_heavy = run(&dual, 160.0);
    // Relative degradation under ~12x load increase: the tree suffers
    // more (or outright saturates).
    let tree_blowup = if tree_heavy.saturated {
        f64::INFINITY
    } else {
        tree_heavy.mean_latency_us / tree_light.mean_latency_us
    };
    let dual_blowup = dual_heavy.mean_latency_us / dual_light.mean_latency_us;
    assert!(
        !dual_heavy.saturated,
        "dual-path saturated at 160us interarrival"
    );
    assert!(
        tree_blowup > dual_blowup,
        "tree blowup {tree_blowup:.2} !> dual blowup {dual_blowup:.2}"
    );
}

#[test]
fn claim_multi_path_hot_spots_at_high_k_and_load() {
    // Fig 7.11's shape: with load and destination count both high,
    // dual-path beats multi-path (sources become hot spots).
    let mesh = Mesh2D::new(8, 8);
    let dual = DualPathRouter::mesh(mesh);
    let multi = MultiPathMeshRouter::new(mesh);
    let mut cfg = quick_dynamic();
    cfg.mean_interarrival_ns = 600_000.0;
    cfg.destinations = 35;
    let rd = run_dynamic(&mesh, &dual, &cfg);
    let rm = run_dynamic(&mesh, &multi, &cfg);
    let dual_l = if rd.saturated {
        f64::INFINITY
    } else {
        rd.mean_latency_us
    };
    let multi_l = if rm.saturated {
        f64::INFINITY
    } else {
        rm.mean_latency_us
    };
    assert!(
        dual_l < multi_l,
        "dual {dual_l:.1}us should beat multi {multi_l:.1}us at high k + load"
    );
}

#[test]
fn claim_fixed_path_matches_dual_for_large_destination_sets() {
    // §7.2: "for a large enough number of destinations, dual- and
    // fixed-path routing effectively become identical performance."
    let mesh = Mesh2D::new(8, 8);
    let dual = DualPathRouter::mesh(mesh);
    let fixed = FixedPathRouter::mesh(mesh);
    let mut cfg = quick_dynamic();
    cfg.mean_interarrival_ns = 600_000.0;
    cfg.destinations = 45;
    let rd = run_dynamic(&mesh, &dual, &cfg);
    let rf = run_dynamic(&mesh, &fixed, &cfg);
    assert!(!rd.saturated && !rf.saturated);
    let ratio = rf.mean_latency_us / rd.mean_latency_us;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "fixed/dual latency ratio {ratio:.2} not ~1 at k=45"
    );
}

#[test]
fn worked_example_numbers_match_the_text() {
    // Figs 6.13 / 6.17 exact numbers (33/18 and 35/20).
    let mesh = Mesh2D::new(6, 6);
    let l = mesh2d_snake(&mesh);
    let n = |x: usize, y: usize| mesh.node(x, y);
    let mc = MulticastSet::new(
        n(3, 2),
        [
            n(0, 0),
            n(0, 2),
            n(0, 5),
            n(1, 3),
            n(4, 5),
            n(5, 0),
            n(5, 1),
            n(5, 3),
            n(5, 4),
        ],
    );
    let dual = MulticastRoute::Star(dual_path(&mesh, &l, &mc));
    assert_eq!(dual.traffic(), 33);
    assert_eq!(dual.max_dest_hops(&mc), Some(18));
    let fixed = MulticastRoute::Star(fixed_path(&mesh, &l, &mc));
    assert_eq!(fixed.traffic(), 35);
    assert_eq!(fixed.max_dest_hops(&mc), Some(20));
}
