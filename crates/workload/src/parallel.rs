//! Embarrassingly-parallel replication of the Chapter-7 sweeps.
//!
//! The dissertation's dynamic evaluation is a grid of independent
//! simulations — load points × routing schemes × RNG replications — and
//! every point is deterministic given its seed. This module fans the
//! grid across OS threads (dependency-free `std::thread::scope`, no
//! rayon) while keeping the output **bit-identical** to a serial run:
//!
//! 1. the point list is built up front in a canonical order
//!    (scheme-major, then load, then replication) and each point's RNG
//!    seed is derived from the base seed and the point's *position* in
//!    that list, never from which thread ran it;
//! 2. [`parallel_map`] writes each result into its point's slot, so
//!    results come back in point order regardless of scheduling;
//! 3. aggregation folds per-point accumulators in point order with the
//!    exact Welford merge ([`Accumulator::merge`]), which a serial run
//!    performs identically.
//!
//! Job count resolution honours `MCAST_JOBS`, then `RAYON_NUM_THREADS`
//! (the conventional knob, accepted for familiarity), then
//! `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mcast_sim::routers::MulticastRouter;
use mcast_topology::Topology;

use crate::dynamic::{run_dynamic_stream, DynamicConfig, DynamicResult, StreamConfig};
use crate::stats::Accumulator;

/// Resolves a job-count request: `Some(n)` forces `n`, `None` reads
/// `MCAST_JOBS` / `RAYON_NUM_THREADS` / the machine's parallelism.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    for var in ["MCAST_JOBS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// All cores (or the `MCAST_JOBS` / `RAYON_NUM_THREADS` override).
pub fn default_jobs() -> usize {
    resolve_jobs(None)
}

/// Applies `f` to every item on a pool of `jobs` scoped threads and
/// returns the results **in item order**. Work is claimed through an
/// atomic index (classic work-stealing-free self-scheduling), so the
/// assignment of items to threads is nondeterministic but the output
/// vector is not: slot `i` always holds `f(&items[i])`.
///
/// With `jobs <= 1` (or fewer than two items) this degenerates to a
/// plain serial map on the calling thread — same closure, same order,
/// bit-identical results.
pub fn parallel_map<I, R, F>(items: &[I], jobs: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every slot filled by a worker")
        })
        .collect()
}

/// SplitMix64 — the per-point seed derivation. A point's seed depends
/// only on the base seed and the point's canonical index, so serial and
/// parallel runs (and runs with different job counts) draw identical
/// traffic.
pub fn replication_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The grid of a dynamic sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Statistics and physics shared by every point; `seed` is the
    /// *base* seed the per-point seeds derive from.
    pub base: DynamicConfig,
    /// Load axis: mean interarrival times (ns) to sweep.
    pub loads_ns: Vec<f64>,
    /// Independent replications (distinct derived seeds) per
    /// (scheme, load) point.
    pub replications: usize,
    /// Message, duration and in-flight bounds for every point's
    /// [`run_dynamic_stream`]. `None` — the default — runs each point
    /// unbounded ([`StreamConfig::UNBOUNDED`], i.e. `run_dynamic`).
    pub stream: Option<StreamConfig>,
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Routing-scheme label (from the router list).
    pub scheme: String,
    /// Mean interarrival time (ns) of this point.
    pub mean_interarrival_ns: f64,
    /// Replication number within the (scheme, load) cell.
    pub replication: usize,
    /// The derived RNG seed this point ran with.
    pub seed: u64,
}

/// A finished sweep cell: the point plus its simulation outcome.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Which cell.
    pub point: SweepPoint,
    /// The dynamic-run outcome.
    pub result: DynamicResult,
}

/// Per-(scheme, load) aggregate over replications, folded in point
/// order with the exact Welford merge.
#[derive(Debug, Clone)]
pub struct SweepAggregate {
    /// Routing-scheme label.
    pub scheme: String,
    /// Mean interarrival time (ns).
    pub mean_interarrival_ns: f64,
    /// Replications folded in.
    pub replications: usize,
    /// Measured per-message latency (µs) pooled across replications.
    pub latency_us: Accumulator,
    /// Replications that hit the saturation guard.
    pub saturated: usize,
    /// Total message completions (warmup included).
    pub completed: u64,
    /// Total flit hops simulated.
    pub flit_hops: u64,
}

/// Builds the canonical point list: scheme-major, then load, then
/// replication, with seeds derived from the global point index.
pub fn sweep_points(schemes: &[&str], cfg: &SweepConfig) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(schemes.len() * cfg.loads_ns.len() * cfg.replications);
    for scheme in schemes {
        for &load in &cfg.loads_ns {
            for rep in 0..cfg.replications {
                let index = points.len() as u64;
                points.push(SweepPoint {
                    scheme: scheme.to_string(),
                    mean_interarrival_ns: load,
                    replication: rep,
                    seed: replication_seed(cfg.base.seed, index),
                });
            }
        }
    }
    points
}

/// Runs the whole sweep grid on `jobs` threads (`1` = serial) and
/// returns rows in canonical point order. A `jobs = 1` run and a
/// `jobs = N` run produce bit-identical rows — every point is an
/// independent deterministic simulation and row order is fixed by the
/// point list, not by thread scheduling.
pub fn run_dynamic_sweep<T: Topology + Sync + ?Sized>(
    topo: &T,
    routers: &[(&str, &(dyn MulticastRouter + Sync))],
    cfg: &SweepConfig,
    jobs: usize,
) -> Vec<SweepRow> {
    let schemes: Vec<&str> = routers.iter().map(|&(name, _)| name).collect();
    let points = sweep_points(&schemes, cfg);
    // Resolve each point's router once, up front.
    let items: Vec<(usize, SweepPoint)> = points
        .into_iter()
        .map(|p| {
            let r = routers
                .iter()
                .position(|&(name, _)| name == p.scheme)
                .expect("point scheme comes from the router list");
            (r, p)
        })
        .collect();
    let results = parallel_map(&items, jobs, |(router_idx, point)| {
        let mut point_cfg = cfg.base.clone();
        point_cfg.mean_interarrival_ns = point.mean_interarrival_ns;
        point_cfg.seed = point.seed;
        let stream = cfg.stream.unwrap_or(StreamConfig::UNBOUNDED);
        run_dynamic_stream(topo, routers[*router_idx].1, &point_cfg, &stream)
    });
    items
        .into_iter()
        .zip(results)
        .map(|((_, point), result)| SweepRow { point, result })
        .collect()
}

/// Folds sweep rows into per-(scheme, load) aggregates, merging the
/// per-replication latency accumulators in row order. Serial and
/// parallel sweeps hand this the same rows in the same order, so the
/// aggregates are bit-identical too.
pub fn aggregate_sweep(rows: &[SweepRow]) -> Vec<SweepAggregate> {
    let mut out: Vec<SweepAggregate> = Vec::new();
    for row in rows {
        let cell = match out.last_mut() {
            Some(a)
                if a.scheme == row.point.scheme
                    && a.mean_interarrival_ns == row.point.mean_interarrival_ns =>
            {
                a
            }
            _ => {
                out.push(SweepAggregate {
                    scheme: row.point.scheme.clone(),
                    mean_interarrival_ns: row.point.mean_interarrival_ns,
                    replications: 0,
                    latency_us: Accumulator::new(),
                    saturated: 0,
                    completed: 0,
                    flit_hops: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        cell.replications += 1;
        cell.latency_us.merge(&row.result.latency_stats);
        cell.saturated += usize::from(row.result.saturated);
        cell.completed += row.result.completed as u64;
        cell.flit_hops += row.result.flit_hops;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_sim::routers::{DualPathRouter, MultiPathMeshRouter};
    use mcast_topology::Mesh2D;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |&i| i * i);
        let parallel = parallel_map(&items, 4, |&i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn resolve_jobs_explicit_wins() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn replication_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| replication_seed(42, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision");
        assert_eq!(replication_seed(42, 7), replication_seed(42, 7));
        assert_ne!(replication_seed(42, 7), replication_seed(43, 7));
    }

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            base: DynamicConfig {
                warmup: 20,
                batch_size: 10,
                min_batches: 2,
                max_batches: 3,
                destinations: 4,
                ..DynamicConfig::default()
            },
            loads_ns: vec![800_000.0, 500_000.0],
            replications: 2,
            stream: None,
        }
    }

    #[test]
    fn sweep_parallel_matches_serial_bit_for_bit() {
        let mesh = Mesh2D::new(4, 4);
        let dual = DualPathRouter::mesh(mesh);
        let multi = MultiPathMeshRouter::new(mesh);
        let routers: [(&str, &(dyn MulticastRouter + Sync)); 2] =
            [("dual-path", &dual), ("multi-path", &multi)];
        let cfg = tiny_sweep();
        let serial = run_dynamic_sweep(&mesh, &routers, &cfg, 1);
        let parallel = run_dynamic_sweep(&mesh, &routers, &cfg, 4);
        assert_eq!(serial.len(), 2 * 2 * 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.result.mean_latency_us, b.result.mean_latency_us);
            assert_eq!(a.result.ci_us, b.result.ci_us);
            assert_eq!(a.result.saturated, b.result.saturated);
            assert_eq!(a.result.completed, b.result.completed);
            assert_eq!(a.result.flit_hops, b.result.flit_hops);
            assert_eq!(a.result.sim_time_ns, b.result.sim_time_ns);
        }
        let agg_s = aggregate_sweep(&serial);
        let agg_p = aggregate_sweep(&parallel);
        assert_eq!(agg_s.len(), agg_p.len());
        for (a, b) in agg_s.iter().zip(&agg_p) {
            assert_eq!(a.latency_us.mean(), b.latency_us.mean());
            assert_eq!(a.latency_us.count(), b.latency_us.count());
            assert_eq!(a.flit_hops, b.flit_hops);
        }
    }

    #[test]
    fn aggregate_groups_cells_in_order() {
        let mesh = Mesh2D::new(4, 4);
        let dual = DualPathRouter::mesh(mesh);
        let routers: [(&str, &(dyn MulticastRouter + Sync)); 1] = [("dual-path", &dual)];
        let cfg = tiny_sweep();
        let rows = run_dynamic_sweep(&mesh, &routers, &cfg, 1);
        let agg = aggregate_sweep(&rows);
        assert_eq!(agg.len(), cfg.loads_ns.len());
        for (i, a) in agg.iter().enumerate() {
            assert_eq!(a.scheme, "dual-path");
            assert_eq!(a.mean_interarrival_ns, cfg.loads_ns[i]);
            assert_eq!(a.replications, cfg.replications);
            assert!(a.completed > 0);
            assert!(a.flit_hops > 0);
        }
    }
}
