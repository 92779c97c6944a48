//! The six workloads, their seeded inputs, and the set-up they time.
//!
//! All traffic is open-loop per-node Poisson (§7.2): 20 MB/s channels,
//! 128-byte messages unless stated. The streaming workloads bound
//! in-flight messages with backpressure; the sweep runs the checked-in
//! Fig 7.5 spec through the materializing runner.

use std::hint::black_box;
use std::time::Instant;

use mcast_obs::Histogram;
use mcast_sim::{build_router, Engine, MulticastRouter, Network, SchemeId, SimConfig, TopoSpec};
use mcast_sim::{BuiltTopo, RegistryError};
use mcast_workload::{
    run_dynamic_stream, DynamicConfig, DynamicResult, ExperimentSpec, StreamConfig, SweepRow,
    TrafficPattern,
};

use crate::check::{Failures, Work};

/// `examples/spec_fig7_5.json` as of the commit that defined the
/// benchmark, copied so the workload stays fixed.
pub const SPEC_FIG7_5: &str = include_str!("spec_fig7_5.json");

/// Threads the sweep runs on, and lanes of the 2-lane workload.
pub const JOBS: usize = 2;

/// Input sizes: `Full` for measuring, `Check` (1/20 of the messages and
/// warm-up) for the smoke mode and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Scale {
    fn div(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Check => 20,
        }
    }
}

/// One streaming workload: `run_dynamic_stream` bounded by a message
/// count, draining its tail.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub topo: &'static str,
    pub scheme: &'static str,
    pub hotspot: bool,
    pub k: usize,
    pub interarrival_us: f64,
    pub messages: u64,
    pub cap: usize,
    pub engine_jobs: usize,
    pub message_bytes: u32,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Stream(StreamShape),
    /// `ExperimentSpec::run_sweep` over [`SPEC_FIG7_5`] on [`JOBS`] threads.
    Sweep,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const MESH64: StreamShape = StreamShape {
    topo: "mesh:64x64",
    scheme: "dual-path",
    hotspot: false,
    k: 8,
    interarrival_us: 400.0,
    messages: 8_000,
    cap: 1_024,
    engine_jobs: 1,
    message_bytes: 128,
};

/// Why each was chosen is in README.md beside this file.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mesh64_stream",
        kind: Kind::Stream(MESH64),
    },
    Workload {
        name: "mesh64_stream_2lanes",
        kind: Kind::Stream(StreamShape {
            messages: 1_500,
            engine_jobs: JOBS,
            ..MESH64
        }),
    },
    Workload {
        name: "hotspot_mesh16",
        kind: Kind::Stream(StreamShape {
            topo: "mesh:16x16",
            hotspot: true,
            k: 16,
            interarrival_us: 300.0,
            messages: 25_000,
            ..MESH64
        }),
    },
    Workload {
        name: "cube16_stream",
        kind: Kind::Stream(StreamShape {
            topo: "cube:16",
            cap: 4_096,
            ..MESH64
        }),
    },
    Workload {
        name: "short_k128_mesh32",
        kind: Kind::Stream(StreamShape {
            topo: "mesh:32x32",
            scheme: "multi-path",
            k: 128,
            interarrival_us: 2_000.0,
            message_bytes: 8,
            ..MESH64
        }),
    },
    Workload {
        name: "fig7_5_sweep",
        kind: Kind::Sweep,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Threads the workload's library call runs on.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Stream(s) => s.engine_jobs,
            Kind::Sweep => JOBS,
        }
    }
}

/// Everything one streaming run takes, generated from the seed.
pub struct StreamInputs {
    pub built: BuiltTopo,
    pub router: Box<dyn MulticastRouter + Send + Sync>,
    pub cfg: DynamicConfig,
    pub stream: StreamConfig,
}

impl StreamInputs {
    /// The message bound every streaming workload runs to.
    pub fn messages(&self) -> u64 {
        self.stream
            .messages
            .expect("streaming workloads are message-bound")
    }

    /// One run through the library entry point users call.
    pub fn run_library(&self) -> DynamicResult {
        run_dynamic_stream(
            self.built.as_dyn(),
            self.router.as_ref(),
            &self.cfg,
            &self.stream,
        )
    }
}

fn sim_config(message_bytes: u32) -> SimConfig {
    SimConfig {
        message_bytes,
        ..SimConfig::default()
    }
}

impl StreamShape {
    pub fn inputs(&self, seed: u64, scale: Scale) -> StreamInputs {
        let topo = TopoSpec::parse(self.topo).expect("workload topology parses");
        let router = build_router(&topo, &SchemeId::named(self.scheme))
            .expect("workload scheme is registered on its topology");
        let pattern = if self.hotspot {
            TrafficPattern::Hotspot {
                node: topo.hotspot_node(),
            }
        } else {
            TrafficPattern::Uniform
        };
        let cfg = DynamicConfig {
            sim: sim_config(self.message_bytes),
            mean_interarrival_ns: self.interarrival_us * 1000.0,
            destinations: self.k,
            warmup: DynamicConfig::default().warmup / scale.div(),
            seed,
            pattern,
            engine_jobs: self.engine_jobs,
            ..DynamicConfig::default()
        };
        StreamInputs {
            built: topo.build(),
            router,
            cfg,
            stream: StreamConfig {
                messages: Some(self.messages / scale.div() as u64),
                duration_ns: None,
                max_in_flight: self.cap,
            },
        }
    }
}

/// The Fig 7.5 spec with `seed` as its base seed; at `Check` scale the
/// warm-up and batch size shrink twentyfold.
pub fn sweep_spec(seed: u64, scale: Scale) -> Result<ExperimentSpec, RegistryError> {
    let mut spec = ExperimentSpec::from_json(SPEC_FIG7_5)?;
    spec.seed = seed;
    spec.stopping.warmup /= scale.div();
    spec.stopping.batch_size = (spec.stopping.batch_size / scale.div()).max(1);
    Ok(spec)
}

/// One checked `ExperimentSpec::run_sweep` of the Fig 7.5 spec.
pub struct SweepRun {
    pub spec: ExperimentSpec,
    pub rows: Vec<SweepRow>,
    pub wall_s: f64,
    pub points: usize,
}

impl SweepRun {
    /// Runs the sweep, recording failed checks; `None` when the spec
    /// does not run at all.
    pub fn run(seed: u64, scale: Scale, failures: &mut Failures) -> Option<SweepRun> {
        let spec = match sweep_spec(seed, scale) {
            Ok(s) => s,
            Err(e) => {
                failures.0.push(format!("spec: {e}"));
                return None;
            }
        };
        let points = spec.schemes.len() * spec.loads_us.len() * spec.replications;
        let t0 = Instant::now();
        match spec.run_sweep(JOBS) {
            Ok(rows) => {
                let wall_s = t0.elapsed().as_secs_f64();
                failures.sweep(&rows, points, spec.stopping.warmup);
                Some(SweepRun {
                    spec,
                    rows,
                    wall_s,
                    points,
                })
            }
            Err(e) => {
                failures.0.push(format!("run_sweep: {e}"));
                None
            }
        }
    }

    pub fn work(&self) -> Work {
        Work::of_points(self.rows.iter().map(|r| &r.result))
    }

    pub fn completed(&self) -> u64 {
        self.rows.iter().map(|r| r.result.completed as u64).sum()
    }

    /// Points stopped by a budget.
    pub fn failed(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.result.budget_exhausted)
            .count() as u64
    }

    /// The latency histograms of all points, merged.
    pub fn latency_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.rows {
            h.merge(&r.result.latency_hist_ns);
        }
        h
    }
}

/// Set-up time of one workload, median per component over the
/// rebuilds, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub spec_parse_s: f64,
    pub topology_s: f64,
    pub router_s: f64,
    pub network_s: f64,
    pub engine_s: f64,
    pub channels: usize,
    pub rebuilds: usize,
}

/// Rebuilds at least this many times...
const SETUP_MIN_REBUILDS: usize = 5;
/// ...and until this much time is spent, so every network gets enough
/// samples for a steady median (cube:16 takes about 80 ms a rebuild).
const SETUP_MIN_SECONDS: f64 = 1.0;

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One rebuild's phase times: spec parse, topology, router, network,
/// engine; plus the channel count.
fn rebuild_once(w: &Workload) -> ([f64; 5], usize) {
    let mut marks = [Instant::now(); 6];
    let (spec_topo, classes, sim) = match w.kind {
        Kind::Stream(s) => {
            marks[1] = Instant::now();
            let topo = TopoSpec::parse(s.topo).expect("workload topology parses");
            let built = topo.build();
            marks[2] = Instant::now();
            let router = build_router(&topo, &SchemeId::named(s.scheme))
                .expect("workload scheme is registered on its topology");
            marks[3] = Instant::now();
            (built, vec![black_box(router)], sim_config(s.message_bytes))
        }
        Kind::Sweep => {
            let spec = sweep_spec(crate::check::DEFAULT_SEED, Scale::Full)
                .expect("the checked-in spec parses");
            spec.validate().expect("the checked-in spec validates");
            marks[1] = Instant::now();
            let built = spec.topology.build();
            marks[2] = Instant::now();
            let routers = spec.build_routers().expect("the spec's routers build");
            marks[3] = Instant::now();
            let sim = spec.base_config().sim;
            (built, routers.into_iter().map(|(_, r)| r).collect(), sim)
        }
    };
    let classes_needed = classes
        .iter()
        .map(|r| r.required_classes())
        .max()
        .unwrap_or(1);
    let network = Network::new(spec_topo.as_dyn(), classes_needed);
    let channels = network.num_channels();
    marks[4] = Instant::now();
    let engine = Engine::new(network, sim);
    marks[5] = Instant::now();
    drop(black_box(engine));
    let mut phases = [0.0; 5];
    for (i, p) in phases.iter_mut().enumerate() {
        *p = (marks[i + 1] - marks[i]).as_secs_f64();
    }
    (phases, channels)
}

/// Times `TopoSpec::parse` → `build_router` → `Network::new` →
/// `Engine::new` (for the sweep: `ExperimentSpec::from_json`, `validate`
/// and `build_routers` first) and reports the medians.
pub fn measure_setup(w: &Workload) -> SetupTimes {
    let start = Instant::now();
    let mut samples: Vec<[f64; 5]> = Vec::new();
    let mut channels = 0;
    while samples.len() < SETUP_MIN_REBUILDS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let (phases, ch) = rebuild_once(w);
        samples.push(phases);
        channels = ch;
    }
    let col = |i: usize| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>());
    let totals: Vec<f64> = samples.iter().map(|s| s.iter().sum()).collect();
    SetupTimes {
        total_s: median(&totals),
        spec_parse_s: col(0),
        topology_s: col(1),
        router_s: col(2),
        network_s: col(3),
        engine_s: col(4),
        channels,
        rebuilds: samples.len(),
    }
}
