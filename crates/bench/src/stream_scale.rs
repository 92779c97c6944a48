//! The streaming scale block (BENCH_5): bounded-memory streaming runs
//! through [`run_dynamic_stream`] at growing topology sizes, written to
//! `results/BENCH_5.json` (schema `mcast-bench-perf-v5`).
//!
//! Two probe kinds share one schema:
//!
//! * **gated** probes — modest message counts CI regenerates on every
//!   push; their work metrics (`engine_steps`, `flit_hops`, `sim_ns`,
//!   `completed`) are environment-insensitive and must match the
//!   checked-in document **exactly** (the same discipline as
//!   BENCH_4.json's engine-scale gate). The 64×64 gated probe injects
//!   100 000 multicasts, so the gate doubles as the CI scale smoke.
//! * the **ungated** headline probe — the 64×64 mesh with ≥ 1 000 000
//!   injected multicasts, generated locally (too slow for every CI
//!   run); CI validates its schema and memory-gauge ceilings without
//!   re-running it.
//!
//! Every probe asserts the DESIGN.md §16 memory model through the
//! engine's own gauges: `peak_in_flight` never exceeds the backpressure
//! cap, and `peak_live_worms` never exceeds [`worm_ceiling`] — the
//! cap times the worms-per-plan bound of the probed scheme. Wall
//! clocks and `flits_per_sec` track the host and are report-only.

use std::io;
use std::path::Path;
use std::time::Instant;

use mcast_obs::validate_json;
use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
use mcast_workload::{run_dynamic_stream, DynamicConfig, StreamConfig};

use crate::perf::{field_num, field_str};

/// One streaming scale probe: a message-bounded open-loop run with
/// backpressure, measured through the engine's native counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamScaleProbe {
    /// Probe topology (registry spec form, e.g. `mesh:64x64`).
    pub name: String,
    /// Nodes in the topology.
    pub nodes: usize,
    /// Multicasts injected (the run's bound).
    pub messages: u64,
    /// Backpressure ceiling on in-flight messages.
    pub max_in_flight: usize,
    /// Wall-clock of the run, milliseconds (report-only).
    pub wall_ms: f64,
    /// Flit hops per wall-clock second (report-only).
    pub flits_per_sec: f64,
    /// Event-loop steps — environment-insensitive, gated exactly for
    /// gated probes.
    pub engine_steps: u64,
    /// Flit hops — gated exactly for gated probes.
    pub flit_hops: u64,
    /// Simulated time covered, nanoseconds — gated exactly.
    pub sim_ns: u64,
    /// Messages completed (equals `messages` for a healthy run: the
    /// bounded run drains its tail) — gated exactly.
    pub completed: u64,
    /// High-water mark of live worm slots (the §16 memory gauge); must
    /// stay within [`worm_ceiling`] of `max_in_flight`.
    pub peak_live_worms: u64,
    /// High-water mark of in-flight messages; must stay within
    /// `max_in_flight`.
    pub peak_in_flight: u64,
    /// Whether CI regenerates this probe and gates its work metrics.
    pub gated: bool,
}

impl StreamScaleProbe {
    /// The environment-insensitive work metrics the CI gate compares
    /// exactly.
    pub fn work(&self) -> (u64, u64, u64, u64) {
        (
            self.engine_steps,
            self.flit_hops,
            self.sim_ns,
            self.completed,
        )
    }

    /// Whether the §16 memory gauges respect their hard ceilings.
    pub fn within_ceilings(&self) -> bool {
        self.peak_in_flight <= self.max_in_flight as u64
            && self.peak_live_worms <= worm_ceiling(self.max_in_flight) as u64
    }
}

/// Hard ceiling on live worm slots for a run capped at `max_in_flight`
/// messages: the probed dual-path scheme plans at most two path worms
/// per multicast, so live worms are bounded by twice the in-flight cap
/// regardless of how many messages the run injects.
pub fn worm_ceiling(max_in_flight: usize) -> usize {
    2 * max_in_flight
}

/// The gated probe set CI regenerates: `(topology, messages,
/// max_in_flight)`. The 64×64 entry injects 100 000 multicasts — the
/// CI scale smoke the streaming pipeline is gated on. The deep
/// hypercube (`cube:16`, 65 536 nodes) and the 16-ary 3-cube rungs
/// extend the ladder beyond meshes.
pub fn gated_probe_set() -> Vec<(&'static str, u64, usize)> {
    vec![
        ("mesh:8x8", 20_000, 1024),
        ("mesh:64x64", 100_000, 4096),
        ("mesh:128x128", 20_000, 4096),
        ("cube:4", 20_000, 1024),
        ("cube:16", 20_000, 4096),
        ("torus:16x3", 20_000, 1024),
    ]
}

/// The headline probe generated locally: `(topology, messages,
/// max_in_flight)` — the million-multicast 64×64 run of ROADMAP item 2.
pub fn headline_probe() -> (&'static str, u64, usize) {
    ("mesh:64x64", 1_000_000, 4096)
}

/// Statistics knobs shared by every probe (fixed, not scale-dependent:
/// the gated work metrics must reproduce bit-for-bit on any host).
fn probe_config(nodes: usize) -> DynamicConfig {
    DynamicConfig {
        mean_interarrival_ns: 400_000.0,
        destinations: 8.min(nodes - 1),
        ..DynamicConfig::default()
    }
}

/// Runs one streaming probe: dual-path on `name`, `messages` multicasts
/// under a `max_in_flight` backpressure cap, draining the tail.
///
/// # Panics
/// Panics if `name` does not parse as a registry topology.
pub fn run_stream_probe(
    name: &str,
    messages: u64,
    max_in_flight: usize,
    gated: bool,
) -> StreamScaleProbe {
    let topo = TopoSpec::parse(name).expect("stream probe topology parses");
    let router = build_router(&topo, &SchemeId::named("dual-path")).expect("dual-path registered");
    let built = topo.build();
    let cfg = probe_config(topo.num_nodes());
    let stream = StreamConfig {
        messages: Some(messages),
        duration_ns: None,
        max_in_flight,
    };
    let start = Instant::now();
    let r = run_dynamic_stream(built.as_dyn(), router.as_ref(), &cfg, &stream);
    let wall_s = start.elapsed().as_secs_f64();
    StreamScaleProbe {
        name: name.to_string(),
        nodes: topo.num_nodes(),
        messages,
        max_in_flight,
        wall_ms: wall_s * 1000.0,
        flits_per_sec: if wall_s > 0.0 {
            r.flit_hops as f64 / wall_s
        } else {
            0.0
        },
        engine_steps: r.engine_steps,
        flit_hops: r.flit_hops,
        sim_ns: r.sim_time_ns,
        completed: r.completed as u64,
        peak_live_worms: r.peak_live_worms as u64,
        peak_in_flight: r.peak_in_flight as u64,
        gated,
    }
}

/// Accumulates streaming probes and renders `BENCH_5.json`.
#[derive(Debug, Clone, Default)]
pub struct StreamBench {
    probes: Vec<StreamScaleProbe>,
}

impl StreamBench {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finished probe.
    pub fn push(&mut self, probe: StreamScaleProbe) {
        self.probes.push(probe);
    }

    /// Recorded probes.
    pub fn probes(&self) -> &[StreamScaleProbe] {
        &self.probes
    }

    /// Runs the whole gated set, recording each probe.
    pub fn run_gated_set(&mut self) -> &[StreamScaleProbe] {
        for (name, messages, cap) in gated_probe_set() {
            self.push(run_stream_probe(name, messages, cap, true));
        }
        &self.probes
    }

    /// Renders the `BENCH_5.json` document (always valid JSON).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"mcast-bench-perf-v5\",\n");
        s.push_str(
            "  \"complements\": \"BENCH_4.json — that document gates the engine's probe \
             and scaling work; this one records the streaming injection pipeline's bounded-memory \
             scale block (DESIGN.md §16). Gated probes' work metrics are CI-gated exactly; \
             wall clocks and flits_per_sec are report-only\",\n",
        );
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        s.push_str(&format!("  \"host_cpus\": {cpus},\n"));
        s.push_str("  \"scale\": {\"probes\": [\n");
        for (i, p) in self.probes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"nodes\": {}, \"messages\": {}, \
                 \"max_in_flight\": {}, \"wall_ms\": {:.3}, \"flits_per_sec\": {:.1}, \
                 \"engine_steps\": {}, \"flit_hops\": {}, \"sim_ns\": {}, \
                 \"completed\": {}, \"peak_live_worms\": {}, \"peak_in_flight\": {}, \
                 \"worm_ceiling\": {}, \"gated\": {}}}{}\n",
                p.name,
                p.nodes,
                p.messages,
                p.max_in_flight,
                p.wall_ms,
                p.flits_per_sec,
                p.engine_steps,
                p.flit_hops,
                p.sim_ns,
                p.completed,
                p.peak_live_worms,
                p.peak_in_flight,
                worm_ceiling(p.max_in_flight),
                p.gated,
                if i + 1 < self.probes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]}\n}\n");
        debug_assert!(validate_json(&s).is_ok(), "BENCH_5.json must be valid");
        s
    }

    /// Writes `BENCH_5.json` into `dir` (created if needed).
    pub fn write_bench5(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("BENCH_5.json"), self.to_json())
    }
}

/// Parses a `BENCH_5.json` document back into probes — dependency-free
/// line scanning in the style of
/// [`load_baseline_probes`](crate::perf::load_baseline_probes); returns
/// an empty list for a missing or foreign file.
pub fn load_stream_probes(path: &Path) -> Vec<StreamScaleProbe> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    if !text.contains("\"schema\": \"mcast-bench-perf-v5\"") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let num = |key: &str| field_num(line, key).unwrap_or(0.0);
        out.push(StreamScaleProbe {
            name,
            nodes: num("\"nodes\": ") as usize,
            messages: num("\"messages\": ") as u64,
            max_in_flight: num("\"max_in_flight\": ") as usize,
            wall_ms: num("\"wall_ms\": "),
            flits_per_sec: num("\"flits_per_sec\": "),
            engine_steps: num("\"engine_steps\": ") as u64,
            flit_hops: num("\"flit_hops\": ") as u64,
            sim_ns: num("\"sim_ns\": ") as u64,
            completed: num("\"completed\": ") as u64,
            peak_live_worms: num("\"peak_live_worms\": ") as u64,
            peak_in_flight: num("\"peak_in_flight\": ") as u64,
            gated: line.contains("\"gated\": true"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_completes_bounded_and_renders_valid_json() {
        let p = run_stream_probe("mesh:4x4", 300, 32, true);
        assert_eq!(p.completed, 300, "bounded run must drain its tail");
        assert!(p.within_ceilings(), "gauges breached ceilings: {p:?}");
        assert!(p.engine_steps > 0 && p.flit_hops > 0 && p.sim_ns > 0);
        let mut doc = StreamBench::new();
        doc.push(p);
        let json = doc.to_json();
        validate_json(&json).expect("BENCH_5.json parses");
        assert!(json.contains("\"schema\": \"mcast-bench-perf-v5\""));
        assert!(json.contains("\"scale\""));
        assert!(json.contains("\"peak_live_worms\""));
    }

    #[test]
    fn probes_round_trip_through_the_document() {
        let mut doc = StreamBench::new();
        doc.push(run_stream_probe("mesh:4x4", 200, 16, true));
        doc.push(run_stream_probe("cube:3", 150, 16, false));
        let dir = std::env::temp_dir().join("mcast_bench5_test");
        doc.write_bench5(&dir).unwrap();
        let back = load_stream_probes(&dir.join("BENCH_5.json"));
        assert_eq!(back.len(), 2);
        for (a, b) in doc.probes().iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.work(), b.work());
            assert_eq!(a.peak_live_worms, b.peak_live_worms);
            assert_eq!(a.peak_in_flight, b.peak_in_flight);
            assert_eq!(a.gated, b.gated);
        }
        assert!(load_stream_probes(Path::new("/nonexistent/x.json")).is_empty());
    }

    #[test]
    fn probe_work_metrics_reproduce_exactly() {
        // The premise of the CI gate: a probe's work metrics are a pure
        // function of the code, not the host.
        let a = run_stream_probe("mesh:4x4", 250, 24, true);
        let b = run_stream_probe("mesh:4x4", 250, 24, true);
        assert_eq!(a.work(), b.work());
        assert_eq!(a.peak_live_worms, b.peak_live_worms);
        assert_eq!(a.peak_in_flight, b.peak_in_flight);
    }

    #[test]
    fn gated_set_covers_the_scale_ladder_and_the_ci_smoke() {
        let set = gated_probe_set();
        let names: Vec<&str> = set.iter().map(|&(n, _, _)| n).collect();
        for required in [
            "mesh:8x8",
            "mesh:64x64",
            "mesh:128x128",
            "cube:4",
            "cube:16",
            "torus:16x3",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        // The 64×64 gated probe *is* the CI scale smoke: ≥ 100k
        // multicasts under a hard live-worm ceiling.
        let (_, messages, cap) = set
            .iter()
            .find(|&&(n, _, _)| n == "mesh:64x64")
            .expect("64x64 probe");
        assert!(*messages >= 100_000);
        assert_eq!(worm_ceiling(*cap), 2 * cap);
        let (name, messages, _) = headline_probe();
        assert_eq!(name, "mesh:64x64");
        assert!(messages >= 1_000_000);
    }
}
