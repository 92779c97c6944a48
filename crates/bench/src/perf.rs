//! Performance trajectory of the harness itself: wall-clock per
//! experiment, simulator-throughput probes (simulated flits per
//! wall-clock second), the serial-vs-parallel sweep comparison, and the
//! engine scaling block, written to `results/BENCH_4.json`.
//!
//! Probes run the **uninstrumented** hot path: the engine counts flit
//! hops natively (`Engine::flit_hops`, surfaced through
//! `DynamicResult`), so no metrics sink sits on the inner loop and the
//! probe measures what production sweeps actually pay. Earlier
//! `BENCH_2.json` probes measured the same flit-hop count through the
//! obs metrics sink; the committed `BENCH_2.json` is kept as the
//! before/after baseline and its `flits_per_sec` values are folded into
//! this document as `baseline_flits_per_sec`.
//!
//! The v4 schema adds the `engine_scale` block: each probe topology
//! runs one fixed workload, reporting its wall clock plus the
//! environment-insensitive work metrics (`engine_steps`, `flit_hops`)
//! that the CI perf gate holds **exactly** to the committed baseline;
//! wall clocks are report-only because they track the host, not the
//! code. The earlier `BENCH_3.json` wall-clock
//! speedups are superseded by this document (see `supersedes` in the
//! header).

use std::io;
use std::path::Path;
use std::time::Instant;

use mcast_obs::validate_json;
use mcast_sim::routers::{DualPathRouter, MultiPathMeshRouter, MulticastRouter};
use mcast_topology::Mesh2D;
use mcast_workload::{aggregate_sweep, run_dynamic, run_dynamic_sweep, DynamicConfig, SweepConfig};

use crate::scale::Scale;

/// One timed experiment (a figure/table regeneration).
#[derive(Debug, Clone)]
pub struct ExperimentTiming {
    /// Experiment id (see [`crate::experiment_ids`]).
    pub id: String,
    /// Wall-clock time spent, milliseconds.
    pub wall_ms: f64,
}

/// One simulator-throughput probe.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Probe name (topology + routing scheme).
    pub name: String,
    /// Wall-clock time of the probe run, milliseconds.
    pub wall_ms: f64,
    /// Flit hops simulated (the engine's native count).
    pub sim_flits: u64,
    /// Event-loop steps the engine executed. Unlike `wall_ms` this is
    /// environment-insensitive: the same probe on a loaded CI box and a
    /// quiet workstation reports the same step count, so regressions in
    /// *work done* separate cleanly from machine noise.
    pub engine_steps: u64,
    /// Simulated time covered, nanoseconds.
    pub sim_ns: u64,
    /// Messages completed in simulation.
    pub completed: u64,
    /// Simulated flits processed per wall-clock second — the harness's
    /// headline throughput number.
    pub flits_per_sec: f64,
    /// The committed `BENCH_2.json` value for this probe, when known.
    pub baseline_flits_per_sec: Option<f64>,
}

impl ProbeResult {
    /// Throughput relative to the recorded baseline.
    pub fn speedup_vs_baseline(&self) -> Option<f64> {
        self.baseline_flits_per_sec
            .filter(|&b| b > 0.0)
            .map(|b| self.flits_per_sec / b)
    }
}

/// The serial-vs-parallel sweep comparison.
#[derive(Debug, Clone)]
pub struct SweepBenchResult {
    /// Grid cells executed (schemes × loads × replications).
    pub points: usize,
    /// Worker threads used for the parallel leg.
    pub jobs: usize,
    /// Wall-clock of the `jobs = 1` leg, milliseconds.
    pub serial_wall_ms: f64,
    /// Wall-clock of the `jobs = N` leg, milliseconds.
    pub parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms`.
    pub speedup: f64,
    /// Whether the two legs produced bit-identical rows and aggregates.
    pub deterministic: bool,
}

/// One engine scaling probe: a fixed Poisson workload on one probe
/// topology.
#[derive(Debug, Clone)]
pub struct EngineScaleProbe {
    /// Probe topology (registry spec form, e.g. `mesh:64x64`).
    pub name: String,
    /// Nodes in the topology.
    pub nodes: usize,
    /// Wall-clock of the run, milliseconds (host-dependent; report
    /// only, never gated).
    pub wall_ms: f64,
    /// Event-loop steps.
    pub engine_steps: u64,
    /// Flit hops.
    pub flit_hops: u64,
    /// Simulated time covered, nanoseconds.
    pub sim_ns: u64,
    /// Messages completed.
    pub completed: u64,
}

/// Scans our own `BENCH_2.json` text for `(probe name, flits_per_sec)`
/// pairs — dependency-free, tolerant of a missing or foreign file
/// (returns an empty list rather than erroring).
pub fn load_baseline_probes(path: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // Probe lines look like: {"name": "...", ..., "flits_per_sec": N}
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(fps) = field_num(line, "\"flits_per_sec\": ") else {
            continue;
        };
        out.push((name, fps));
    }
    out
}

pub(crate) fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

pub(crate) fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Accumulates experiment timings, probe results, the sweep comparison
/// and the engine scaling block, then renders `BENCH_4.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfRecorder {
    experiments: Vec<ExperimentTiming>,
    probes: Vec<ProbeResult>,
    baselines: Vec<(String, f64)>,
    sweep: Option<SweepBenchResult>,
    engine_scale: Vec<EngineScaleProbe>,
}

impl PerfRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs baseline probe throughputs (typically from
    /// [`load_baseline_probes`] on the committed `BENCH_2.json`) so
    /// later probes report their speedup.
    pub fn set_baselines(&mut self, baselines: Vec<(String, f64)>) {
        self.baselines = baselines;
    }

    /// Runs `f`, recording its wall-clock time under `id`. Returns
    /// `f`'s result and the elapsed milliseconds.
    pub fn time<T>(&mut self, id: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        self.experiments.push(ExperimentTiming {
            id: id.to_string(),
            wall_ms,
        });
        (out, wall_ms)
    }

    /// Runs one dynamic scenario on the uninstrumented hot path and
    /// records simulator throughput from the engine's native flit-hop
    /// counter.
    pub fn probe(
        &mut self,
        name: &str,
        mesh: Mesh2D,
        router: &dyn MulticastRouter,
        cfg: &DynamicConfig,
    ) -> &ProbeResult {
        let start = Instant::now();
        let result = run_dynamic(&mesh, router, cfg);
        let wall_s = start.elapsed().as_secs_f64();
        let baseline = self
            .baselines
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, fps)| fps);
        self.probes.push(ProbeResult {
            name: name.to_string(),
            wall_ms: wall_s * 1000.0,
            sim_flits: result.flit_hops,
            engine_steps: result.engine_steps,
            sim_ns: result.sim_time_ns,
            completed: result.completed as u64,
            flits_per_sec: if wall_s > 0.0 {
                result.flit_hops as f64 / wall_s
            } else {
                0.0
            },
            baseline_flits_per_sec: baseline,
        });
        self.probes.last().expect("just pushed")
    }

    /// Runs the standard probe set: the 8×8-mesh dual-path and
    /// multi-path schemes under moderate Poisson load, at this scale's
    /// statistics effort.
    pub fn run_standard_probes(&mut self, scale: &Scale) {
        let mesh = Mesh2D::new(8, 8);
        let cfg = DynamicConfig {
            mean_interarrival_ns: 400_000.0,
            destinations: 8,
            ..scale.dynamic_config()
        };
        self.probe("mesh8x8/dual-path", mesh, &DualPathRouter::mesh(mesh), &cfg);
        self.probe(
            "mesh8x8/multi-path",
            mesh,
            &MultiPathMeshRouter::new(mesh),
            &cfg,
        );
    }

    /// Runs the standard sweep grid twice — `jobs = 1` and `jobs = N` —
    /// verifying the two produce bit-identical rows, and records wall
    /// clocks and speedup.
    pub fn run_sweep_bench(&mut self, scale: &Scale, jobs: usize) -> &SweepBenchResult {
        let mesh = Mesh2D::new(8, 8);
        let dual = DualPathRouter::mesh(mesh);
        let multi = MultiPathMeshRouter::new(mesh);
        let routers: [(&str, &(dyn MulticastRouter + Sync)); 2] =
            [("dual-path", &dual), ("multi-path", &multi)];
        let cfg = SweepConfig {
            base: DynamicConfig {
                destinations: 8,
                ..scale.dynamic_config()
            },
            loads_ns: vec![600_000.0, 450_000.0, 350_000.0],
            replications: 3,
            stream: None,
        };

        let start = Instant::now();
        let serial = run_dynamic_sweep(&mesh, &routers, &cfg, 1);
        let serial_wall_ms = start.elapsed().as_secs_f64() * 1000.0;

        let start = Instant::now();
        let parallel = run_dynamic_sweep(&mesh, &routers, &cfg, jobs);
        let parallel_wall_ms = start.elapsed().as_secs_f64() * 1000.0;

        let rows_equal = serial.len() == parallel.len()
            && serial.iter().zip(&parallel).all(|(a, b)| {
                a.point == b.point
                    && a.result.mean_latency_us == b.result.mean_latency_us
                    && a.result.ci_us == b.result.ci_us
                    && a.result.saturated == b.result.saturated
                    && a.result.completed == b.result.completed
                    && a.result.flit_hops == b.result.flit_hops
                    && a.result.engine_steps == b.result.engine_steps
                    && a.result.sim_time_ns == b.result.sim_time_ns
            });
        let agg_s = aggregate_sweep(&serial);
        let agg_p = aggregate_sweep(&parallel);
        let aggs_equal = agg_s.len() == agg_p.len()
            && agg_s.iter().zip(&agg_p).all(|(a, b)| {
                a.latency_us.mean() == b.latency_us.mean()
                    && a.latency_us.count() == b.latency_us.count()
                    && a.saturated == b.saturated
                    && a.flit_hops == b.flit_hops
            });

        self.sweep = Some(SweepBenchResult {
            points: serial.len(),
            jobs,
            serial_wall_ms,
            parallel_wall_ms,
            speedup: if parallel_wall_ms > 0.0 {
                serial_wall_ms / parallel_wall_ms
            } else {
                0.0
            },
            deterministic: rows_equal && aggs_equal,
        });
        self.sweep.as_ref().expect("just set")
    }

    /// Runs the engine scaling block: for each probe topology, one
    /// fixed Poisson workload, recording its exact work metrics
    /// (`engine_steps`, `flit_hops`, simulated time, completions) and
    /// its wall clock. Probe topologies: the standard 8×8 mesh, the
    /// 16×16 mesh, the 64×64 mesh, and the 16-node hypercube.
    pub fn run_engine_scale_probes(&mut self, scale: &Scale) -> &[EngineScaleProbe] {
        use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
        for name in ["mesh:8x8", "mesh:16x16", "mesh:64x64", "cube:4"] {
            let topo = TopoSpec::parse(name).expect("scale probe topology parses");
            let router =
                build_router(&topo, &SchemeId::named("dual-path")).expect("dual-path registered");
            let built = topo.build();
            let cfg = DynamicConfig {
                mean_interarrival_ns: 400_000.0,
                destinations: 8.min(topo.num_nodes() - 1),
                ..scale.dynamic_config()
            };
            let start = Instant::now();
            let r = run_dynamic(built.as_dyn(), router.as_ref(), &cfg);
            let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            self.engine_scale.push(EngineScaleProbe {
                name: name.to_string(),
                nodes: topo.num_nodes(),
                wall_ms,
                engine_steps: r.engine_steps,
                flit_hops: r.flit_hops,
                sim_ns: r.sim_time_ns,
                completed: r.completed as u64,
            });
        }
        &self.engine_scale
    }

    /// Recorded engine scaling probes.
    pub fn engine_scale(&self) -> &[EngineScaleProbe] {
        &self.engine_scale
    }

    /// Recorded experiment timings.
    pub fn experiments(&self) -> &[ExperimentTiming] {
        &self.experiments
    }

    /// Recorded probe results.
    pub fn probes(&self) -> &[ProbeResult] {
        &self.probes
    }

    /// The sweep comparison, if [`run_sweep_bench`](Self::run_sweep_bench) ran.
    pub fn sweep(&self) -> Option<&SweepBenchResult> {
        self.sweep.as_ref()
    }

    /// Renders the `BENCH_4.json` document (always valid JSON).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"mcast-bench-perf-v4\",\n");
        s.push_str(
            "  \"supersedes\": \"BENCH_3.json — its wall-clock speedups were measured \
             before the space-parallel engine; work metrics here are the gated numbers, \
             wall clocks are report-only\",\n",
        );
        let total: f64 = self.experiments.iter().map(|e| e.wall_ms).sum();
        s.push_str(&format!("  \"total_wall_ms\": {:.3},\n", total));
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"wall_ms\": {:.3}}}{}\n",
                e.id,
                e.wall_ms,
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n  \"probes\": [\n");
        for (i, p) in self.probes.iter().enumerate() {
            let mut extra = String::new();
            if let Some(b) = p.baseline_flits_per_sec {
                extra.push_str(&format!(", \"baseline_flits_per_sec\": {:.1}", b));
            }
            if let Some(sp) = p.speedup_vs_baseline() {
                extra.push_str(&format!(", \"speedup_vs_baseline\": {:.2}", sp));
            }
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"sim_flits\": {}, \
                 \"engine_steps\": {}, \"sim_ns\": {}, \"completed\": {}, \
                 \"flits_per_sec\": {:.1}{}}}{}\n",
                p.name,
                p.wall_ms,
                p.sim_flits,
                p.engine_steps,
                p.sim_ns,
                p.completed,
                p.flits_per_sec,
                extra,
                if i + 1 < self.probes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        if let Some(sw) = &self.sweep {
            s.push_str(&format!(
                ",\n  \"sweep\": {{\"points\": {}, \"jobs\": {}, \
                 \"serial_wall_ms\": {:.3}, \"parallel_wall_ms\": {:.3}, \
                 \"speedup\": {:.2}, \"deterministic\": {}}}",
                sw.points,
                sw.jobs,
                sw.serial_wall_ms,
                sw.parallel_wall_ms,
                sw.speedup,
                sw.deterministic
            ));
        }
        if !self.engine_scale.is_empty() {
            let cpus = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            s.push_str(&format!(
                ",\n  \"engine_scale\": {{\"host_cpus\": {cpus}, \"probes\": [\n"
            ));
            for (i, p) in self.engine_scale.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"name\": \"{}\", \"nodes\": {}, \"wall_ms\": {:.3}, \
                     \"engine_steps\": {}, \"flit_hops\": {}, \"sim_ns\": {}, \
                     \"completed\": {}}}{}\n",
                    p.name,
                    p.nodes,
                    p.wall_ms,
                    p.engine_steps,
                    p.flit_hops,
                    p.sim_ns,
                    p.completed,
                    if i + 1 < self.engine_scale.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            s.push_str("  ]}");
        }
        s.push_str("\n}\n");
        debug_assert!(validate_json(&s).is_ok(), "BENCH_4.json must be valid");
        s
    }

    /// Writes `BENCH_4.json` into `dir` (created if needed).
    pub fn write_bench4(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("BENCH_4.json"), self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_and_probes_land_in_valid_json() {
        let mut rec = PerfRecorder::new();
        let ((), wall) = rec.time("unit", || std::thread::sleep(std::time::Duration::ZERO));
        assert!(wall >= 0.0);
        let mesh = Mesh2D::new(4, 4);
        let cfg = DynamicConfig {
            warmup: 20,
            batch_size: 10,
            min_batches: 2,
            max_batches: 3,
            destinations: 3,
            mean_interarrival_ns: 500_000.0,
            ..DynamicConfig::default()
        };
        let p = rec.probe("mesh4x4/dual-path", mesh, &DualPathRouter::mesh(mesh), &cfg);
        assert!(p.sim_flits > 0, "probe must observe flit hops");
        assert!(p.engine_steps > 0, "probe must count engine steps");
        assert!(p.sim_ns > 0);
        assert!(p.completed > 0);
        let json = rec.to_json();
        validate_json(&json).expect("BENCH_4.json parses");
        assert!(json.contains("\"experiments\""));
        assert!(json.contains("mesh4x4/dual-path"));
        assert!(json.contains("\"engine_steps\""));
        assert!(json.contains("\"supersedes\": \"BENCH_3.json"));
    }

    #[test]
    fn probe_reports_speedup_against_baseline() {
        let mut rec = PerfRecorder::new();
        rec.set_baselines(vec![("mesh4x4/dual-path".into(), 1.0)]);
        let mesh = Mesh2D::new(4, 4);
        let cfg = DynamicConfig {
            warmup: 10,
            batch_size: 5,
            min_batches: 2,
            max_batches: 2,
            destinations: 3,
            mean_interarrival_ns: 500_000.0,
            ..DynamicConfig::default()
        };
        let p = rec.probe("mesh4x4/dual-path", mesh, &DualPathRouter::mesh(mesh), &cfg);
        assert_eq!(p.baseline_flits_per_sec, Some(1.0));
        assert!(p.speedup_vs_baseline().expect("baseline set") > 0.0);
        let json = rec.to_json();
        assert!(json.contains("\"baseline_flits_per_sec\""));
        assert!(json.contains("\"speedup_vs_baseline\""));
    }

    #[test]
    fn sweep_bench_runs_and_is_deterministic() {
        let mut rec = PerfRecorder::new();
        let scale = Scale::smoke();
        let sw = rec.run_sweep_bench(&scale, 2);
        assert_eq!(sw.points, 2 * 3 * 3);
        assert!(sw.serial_wall_ms > 0.0 && sw.parallel_wall_ms > 0.0);
        assert!(sw.deterministic, "parallel sweep must match serial");
        let json = rec.to_json();
        validate_json(&json).expect("BENCH_4.json parses");
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("\"deterministic\": true"));
    }

    #[test]
    fn engine_scale_probes_report_work_metrics() {
        // Every scaling probe reports the work metrics the CI perf gate
        // holds exactly. Statistics effort is trimmed below smoke so
        // the 64×64 probe stays test-sized.
        let mut rec = PerfRecorder::new();
        let scale = Scale {
            warmup: 10,
            batch_size: 5,
            min_batches: 2,
            max_batches: 2,
            ..Scale::smoke()
        };
        let probes = rec.run_engine_scale_probes(&scale).to_vec();
        assert_eq!(probes.len(), 4);
        for p in &probes {
            assert!(
                p.engine_steps > 0 && p.flit_hops > 0,
                "{}: empty probe",
                p.name
            );
        }
        assert!(probes
            .iter()
            .any(|p| p.name == "mesh:64x64" && p.nodes == 4096));
        assert!(probes.iter().any(|p| p.name == "cube:4" && p.nodes == 16));
        let json = rec.to_json();
        validate_json(&json).expect("BENCH_4.json parses");
        assert!(json.contains("\"engine_scale\""));
        assert!(json.contains("\"host_cpus\""));
    }

    #[test]
    fn baseline_parser_reads_bench2_format() {
        let dir = std::env::temp_dir().join("mcast_bench3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_2.json");
        std::fs::write(
            &path,
            "{\n  \"schema\": \"mcast-bench-perf-v2\",\n  \"probes\": [\n    \
             {\"name\": \"mesh8x8/dual-path\", \"wall_ms\": 9.1, \"sim_flits\": 2, \
             \"sim_ns\": 3, \"completed\": 4, \"flits_per_sec\": 3249560.0},\n    \
             {\"name\": \"mesh8x8/multi-path\", \"wall_ms\": 7.7, \"sim_flits\": 2, \
             \"sim_ns\": 3, \"completed\": 4, \"flits_per_sec\": 3424965.9}\n  ]\n}\n",
        )
        .unwrap();
        let base = load_baseline_probes(&path);
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].0, "mesh8x8/dual-path");
        assert!((base[0].1 - 3_249_560.0).abs() < 0.5);
        assert!((base[1].1 - 3_424_965.9).abs() < 0.5);
        assert!(load_baseline_probes(Path::new("/nonexistent/x.json")).is_empty());
    }

    #[test]
    fn empty_recorder_still_valid() {
        let rec = PerfRecorder::new();
        validate_json(&rec.to_json()).unwrap();
    }
}
