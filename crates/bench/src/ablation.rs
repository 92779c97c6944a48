//! Ablations for the design choices DESIGN.md calls out:
//!
//! * heuristic-vs-optimal gaps on small instances (Chapter 4 motivates
//!   the heuristics by NP-completeness; these tables quantify what the
//!   heuristics give up);
//! * the Hamiltonian-path choice behind the labeling (§6.2.2's Fig 6.10
//!   discussion: a bad Hamiltonian path forces non-shortest routes).

use mcast_core::exact;
use mcast_topology::hamiltonian::mesh2d_cycle;
use mcast_topology::labeling::{mesh2d_column_snake, mesh2d_snake};
use mcast_topology::{Mesh2D, Topology};
use mcast_workload::MulticastGen;

use crate::report::{f, Table};
use crate::scale::Scale;

/// Heuristic vs optimal: sorted MP vs OMP, greedy ST vs MST, dual-path
/// vs OMS, on a 4×4 mesh with small destination sets.
pub fn ablation_exact(scale: &Scale) -> Table {
    let m = Mesh2D::new(4, 4);
    let c = mesh2d_cycle(&m);
    let l = mesh2d_snake(&m);
    let trials = scale.trials_heavy.clamp(3, 40);
    let mut t = Table::new(
        "ablation_exact",
        "Heuristic vs optimal on a 4x4 mesh (mean traffic over random sets)",
        &[
            "k",
            "sorted MP",
            "OMP*",
            "greedy ST",
            "MST*",
            "dual-path",
            "OMS*",
        ],
    );
    for k in [2usize, 3, 4] {
        let mut gen = MulticastGen::new(m.num_nodes(), 0xab1e + k as u64);
        let (mut mp, mut omp, mut st, mut mst, mut dual, mut oms) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut n = 0usize;
        for _ in 0..trials {
            let src = gen.source();
            let mc = gen.multicast_distinct(src, k);
            n += 1;
            mp += mcast_core::sorted_mp::sorted_mp(&m, &c, &mc).len() as f64;
            omp += exact::optimal_mp(&m, &mc).expect("connected").0 as f64;
            st += mcast_core::greedy_st::greedy_st(&m, &mc).traffic(&m) as f64;
            mst += exact::optimal_steiner_cost(&m, &mc) as f64;
            dual += mcast_core::dual_path::dual_path(&m, &l, &mc)
                .iter()
                .map(|p| p.len())
                .sum::<usize>() as f64;
            oms += exact::optimal_ms_cost(&m, &mc) as f64;
        }
        let d = n as f64;
        t.push_row(vec![
            k.to_string(),
            f(mp / d, 2),
            f(omp / d, 2),
            f(st / d, 2),
            f(mst / d, 2),
            f(dual / d, 2),
            f(oms / d, 2),
        ]);
    }
    t
}

/// Labeling ablation: dual-path traffic under the dissertation's row
/// snake vs the column-snake alternative of Fig 6.10, on a 6×6 mesh.
pub fn ablation_labeling(scale: &Scale) -> Table {
    let m = Mesh2D::new(6, 6);
    let row_snake = mesh2d_snake(&m);
    let col_snake = mesh2d_column_snake(&m);
    let trials = scale.trials.min(500);
    let mut t = Table::new(
        "ablation_labeling",
        "Dual-path mean traffic under different Hamiltonian labelings, 6x6 mesh",
        &["k", "row snake", "column snake"],
    );
    for k in [3usize, 6, 10, 15] {
        let mut gen = MulticastGen::new(m.num_nodes(), 0x1ab0 + k as u64);
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for _ in 0..trials {
            let src = gen.source();
            let mc = gen.multicast_distinct(src, k);
            a += mcast_core::dual_path::dual_path(&m, &row_snake, &mc)
                .iter()
                .map(|p| p.len())
                .sum::<usize>() as f64;
            b += mcast_core::dual_path::dual_path(&m, &col_snake, &mc)
                .iter()
                .map(|p| p.len())
                .sum::<usize>() as f64;
        }
        t.push_row(vec![
            k.to_string(),
            f(a / trials as f64, 2),
            f(b / trials as f64, 2),
        ]);
    }
    t
}

/// Switching-technology ablation under contention: the same dual-path
/// routes carried by wormhole vs circuit switching on an 8×8 mesh, k=10,
/// across a load sweep. Contention-free both are close (Fig 2.3); under
/// load circuit switching pays for holding its whole circuit through the
/// per-hop establishment phase.
pub fn ablation_switching(scale: &Scale) -> Table {
    use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
    use mcast_workload::run_dynamic;

    let topo = TopoSpec::Mesh2D { w: 8, h: 8 };
    let built = topo.build();
    let worm = build_router(&topo, &SchemeId::named("dual-path")).expect("registered");
    let circuit = build_router(&topo, &SchemeId::named("circuit-dual-path")).expect("registered");
    let mut t = Table::new(
        "ablation_switching",
        "Dual-path via wormhole vs circuit switching, 8x8 mesh, k=10 [us]",
        &["interarrival us", "wormhole", "circuit"],
    );
    for load_us in [2000.0, 1000.0, 600.0, 400.0, 300.0] {
        let mut cfg = scale.dynamic_config();
        cfg.mean_interarrival_ns = load_us * 1000.0;
        cfg.destinations = 10;
        let rw = run_dynamic(built.as_dyn(), worm.as_ref(), &cfg);
        let rc = run_dynamic(built.as_dyn(), circuit.as_ref(), &cfg);
        let cell = |r: &mcast_workload::DynamicResult| {
            if r.saturated {
                "sat".to_string()
            } else {
                f(r.mean_latency_us, 1)
            }
        };
        t.push_row(vec![f(load_us, 0), cell(&rw), cell(&rc)]);
    }
    t
}

/// Unicast/multicast interaction (§8.2: "study the interaction between
/// unicast and multicast traffic"): dual-path multicasts (k = 10, one per
/// 600 µs per node) share an 8×8 mesh with a sweep of unicast background
/// traffic; both populations' latencies are reported.
///
/// Unicasts are routed with the *same* label-monotone routing function as
/// the multicasts (a unicast is a k = 1 multicast). Mixing XY-routed
/// unicasts with dual-path multicasts instead deadlocks — their combined
/// channel dependency graph is cyclic — which the
/// `mixing_xy_unicast_with_dual_path_deadlocks` integration test pins
/// down; a real system must route both kinds through one deadlock-free
/// discipline.
pub fn ablation_mixed(scale: &Scale) -> Table {
    use mcast_core::model::MulticastSet;
    use mcast_sim::engine::Engine;
    use mcast_sim::network::Network;
    use mcast_sim::routers::{DualPathRouter, MulticastRouter};
    use mcast_topology::Mesh2D;
    use mcast_workload::{Accumulator, MulticastGen};

    let mesh = Mesh2D::new(8, 8);
    let router = DualPathRouter::mesh(mesh);
    let mut t = Table::new(
        "ablation_mixed",
        "Unicast/multicast interaction on an 8x8 mesh (dual-path, k=10) [us]",
        &[
            "unicast interarrival us",
            "multicast latency",
            "unicast latency",
        ],
    );
    let measured_target = (scale.batch_size * scale.min_batches).max(100);
    for unicast_us in [f64::INFINITY, 800.0, 400.0, 200.0, 100.0] {
        let mut engine = Engine::new(Network::new(&mesh, 1), scale.dynamic_config().sim);
        let mut gen = MulticastGen::new(mesh.num_nodes(), 0x31ed);
        let n = mesh.num_nodes();
        // Per-node generator clocks: multicast and unicast streams.
        let mut next_mc: Vec<u64> = (0..n).map(|_| gen.exponential_ns(600_000.0)).collect();
        let mut next_uc: Vec<u64> = (0..n)
            .map(|_| {
                if unicast_us.is_finite() {
                    gen.exponential_ns(unicast_us * 1000.0)
                } else {
                    u64::MAX
                }
            })
            .collect();
        let mut mc_ids = std::collections::BTreeSet::new();
        let mut mc_lat = Accumulator::new();
        let mut uc_lat = Accumulator::new();
        let mut measured = 0usize;
        while measured < measured_target {
            let (tmc, nmc) = next_mc
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i))
                .min()
                .expect("nodes");
            let (tuc, nuc) = next_uc
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i))
                .min()
                .expect("nodes");
            if tmc <= tuc {
                engine.run_until(tmc);
                let mc = gen.multicast_distinct(nmc, 10);
                let id = engine.inject(&router.plan(&mc));
                mc_ids.insert(id);
                next_mc[nmc] = tmc + gen.exponential_ns(600_000.0);
            } else {
                engine.run_until(tuc);
                let mut dest = gen.source();
                while dest == nuc {
                    dest = gen.source();
                }
                // Unicast = k-of-1 multicast through the same deadlock-free
                // routing function.
                let plan = router.plan(&MulticastSet::new(nuc, [dest]));
                engine.inject(&plan);
                next_uc[nuc] = tuc + gen.exponential_ns(unicast_us * 1000.0);
            }
            for done in engine.take_completed() {
                let lat = (done.completed_at - done.injected_at) as f64 / 1000.0;
                if mc_ids.remove(&done.id) {
                    mc_lat.push(lat);
                    measured += 1;
                } else {
                    uc_lat.push(lat);
                }
            }
            if engine.in_flight() > 16 * n {
                break; // saturated
            }
        }
        let label = if unicast_us.is_finite() {
            f(unicast_us, 0)
        } else {
            "none".to_string()
        };
        let cell = |a: &Accumulator| {
            if a.count() == 0 {
                "-".to_string()
            } else if measured < measured_target {
                "sat".to_string()
            } else {
                f(a.mean(), 1)
            }
        };
        t.push_row(vec![label, cell(&mc_lat), cell(&uc_lat)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_traffic_unicast_background_raises_multicast_latency() {
        let t = ablation_mixed(&Scale::smoke());
        assert_eq!(t.rows.len(), 5);
        let base: f64 = t.rows[0][1].parse().unwrap();
        // The heaviest background either saturates or clearly hurts.
        let heavy = &t.rows[4][1];
        if heavy != "sat" {
            let h: f64 = heavy.parse().unwrap();
            assert!(h > base, "heavy background {h} !> baseline {base}");
        }
    }

    #[test]
    fn heuristics_never_beat_optimal() {
        let t = ablation_exact(&Scale::smoke());
        for row in &t.rows {
            let mp: f64 = row[1].parse().unwrap();
            let omp: f64 = row[2].parse().unwrap();
            let st: f64 = row[3].parse().unwrap();
            let mst: f64 = row[4].parse().unwrap();
            let dual: f64 = row[5].parse().unwrap();
            let oms: f64 = row[6].parse().unwrap();
            assert!(omp <= mp + 1e-9);
            assert!(mst <= st + 1e-9);
            assert!(oms <= dual + 1e-9);
            // And the model hierarchy: a Steiner tree never needs more
            // channels than an optimal single path.
            assert!(mst <= omp + 1e-9);
        }
    }

    #[test]
    fn labeling_ablation_runs() {
        let t = ablation_labeling(&Scale::smoke());
        assert_eq!(t.rows.len(), 4);
    }
}

#[cfg(test)]
mod switching_tests {
    use super::*;

    #[test]
    fn circuit_switching_never_beats_wormhole_under_load() {
        let t = ablation_switching(&Scale::smoke());
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            if row[1] == "sat" || row[2] == "sat" {
                continue;
            }
            let w: f64 = row[1].parse().unwrap();
            let c: f64 = row[2].parse().unwrap();
            assert!(c >= w * 0.95, "circuit {c} unexpectedly beats wormhole {w}");
        }
    }
}

/// Saturation-throughput ablation (§2.1's throughput criterion): the
/// sustained completion rate of each deadlock-free scheme under a
/// closed-loop offered load (64 messages always in flight, k = 10, 8×8
/// mesh, single channels except the dc-tree which gets its two classes
/// and VCT replication buffers).
pub fn ablation_throughput(scale: &Scale) -> Table {
    use mcast_sim::engine::SimConfig;
    use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
    use mcast_workload::measure_saturation_throughput;

    let topo = TopoSpec::Mesh2D { w: 8, h: 8 };
    let built = topo.build();
    let measure = (scale.batch_size * scale.min_batches).clamp(100, 2000);
    let mut t = Table::new(
        "ablation_throughput",
        "Closed-loop saturation throughput, 8x8 mesh, k=10, 64 in flight",
        &["scheme", "msgs/ms", "mean latency us"],
    );
    let vct = {
        let mut c = SimConfig::default();
        c.buffer_flits = c.flits_per_message(); // VCT replication buffers
        c
    };
    let runs = [
        ("dual-path", SimConfig::default()),
        ("multi-path", SimConfig::default()),
        ("fixed-path", SimConfig::default()),
        ("dc-tree", vct),
    ];
    for (scheme, sim) in &runs {
        let router = build_router(&topo, &SchemeId::named(scheme)).expect("registered");
        let r = measure_saturation_throughput(
            built.as_dyn(),
            router.as_ref(),
            10,
            64,
            measure,
            *sim,
            5,
        );
        t.push_row(match r {
            Ok(r) => vec![
                router.name().to_string(),
                f(r.messages_per_ms, 2),
                f(r.mean_latency_us, 1),
            ],
            // A deadlock-free scheme never wedges; if one does, the
            // table says so instead of aborting the whole run.
            Err(e) => vec![router.name().to_string(), e.to_string(), "-".into()],
        });
    }
    t
}

#[cfg(test)]
mod throughput_ablation_tests {
    use super::*;

    #[test]
    fn throughput_table_is_complete_and_positive() {
        let t = ablation_throughput(&Scale::smoke());
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let rate: f64 = row[1].parse().unwrap();
            assert!(rate > 0.0, "{} has zero throughput", row[0]);
        }
    }
}
