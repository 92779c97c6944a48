//! The traced run: per-layer metrics for one workload.
//!
//! A streaming workload runs in legs on the same inputs: the library's
//! `run_dynamic_stream` twice (untraced; the second run is the parity
//! reference and the trace-overhead base), then the replica under the
//! span tracer with no sink, with an `obs::Metrics` sink (the cascade
//! counters), with a `NullSink` on `mesh64_stream`, and at one lane on
//! the 2-lane workload. Every leg must reproduce the library's result
//! exactly, or no per-layer number is printed. The sweep times each
//! point through `ExperimentSpec::run_point` on the sweep's thread
//! count.

use std::collections::BTreeMap;
use std::time::Instant;

use mcast_obs::{Metrics, NullSink, Sink};
use mcast_sim::SchemeId;
use mcast_workload::{parallel_map, DynamicResult, ExperimentSpec, SweepRow};

use crate::check::{Failures, Work};
use crate::replica::{run_stream_traced, Counts, Layer, Tracer};
use crate::workloads::{measure_setup, Kind, Scale, StreamInputs, SweepRun, Workload, JOBS};
use crate::{Clock, Metric};

/// Raw spans are kept for the first this-many multicasts of a run.
pub const KEEP_SPAN_SEQS: u64 = 2_000;

/// Every per-layer metric, in report order. Metrics that do not apply
/// to a workload (the sweep's on a streaming run, and so on) read 0.
pub const PER_LAYER: &[(&str, &str, Clock)] = &[
    ("setup.topology_s", "s", Clock::Host),
    ("setup.router_s", "s", Clock::Host),
    ("setup.network_s", "s", Clock::Host),
    ("setup.engine_s", "s", Clock::Host),
    ("setup.channels", "count", Clock::Count),
    ("gen.calls", "count", Clock::Count),
    ("gen.busy_s", "s", Clock::Host),
    ("gen.ns_per_call", "ns", Clock::Host),
    ("driver.select_busy_s", "s", Clock::Host),
    ("driver.select_ns_per_call", "ns", Clock::Host),
    ("driver.backpressure_iters", "count", Clock::Count),
    ("driver.backpressure_busy_s", "s", Clock::Host),
    ("driver.source_wait_us_mean", "us", Clock::Sim),
    ("driver.source_wait_us_p99", "us", Clock::Sim),
    ("plan.calls", "count", Clock::Count),
    ("plan.busy_s", "s", Clock::Host),
    ("plan.ns_per_call", "ns", Clock::Host),
    ("plan.worms_per_call", "count", Clock::Count),
    ("plan.hops_per_call", "count", Clock::Count),
    ("inject.busy_s", "s", Clock::Host),
    ("inject.ns_per_worm", "ns", Clock::Host),
    ("engine.busy_s", "s", Clock::Host),
    ("engine.run_calls", "count", Clock::Count),
    ("engine.steps", "count", Clock::Count),
    ("engine.flit_hops", "count", Clock::Count),
    ("engine.ns_per_step", "ns", Clock::Host),
    ("engine.peak_live_worms", "count", Clock::Count),
    ("engine.peak_in_flight", "count", Clock::Count),
    ("engine.message_slots", "count", Clock::Count),
    ("cascade.acquires", "count", Clock::Count),
    ("cascade.blocks", "count", Clock::Count),
    ("cascade.block_ratio", "fraction", Clock::Count),
    ("cascade.blocked_ns", "ns", Clock::Sim),
    ("cascade.worm_stalls", "count", Clock::Count),
    ("channels.mean_utilization", "fraction", Clock::Sim),
    ("partition.engine_busy_s", "s", Clock::Host),
    ("partition.slowdown", "ratio", Clock::Host),
    ("harvest.calls", "count", Clock::Count),
    ("harvest.records", "count", Clock::Count),
    ("harvest.busy_s", "s", Clock::Host),
    ("sweep.points", "count", Clock::Count),
    ("sweep.point_busy_s_sum", "s", Clock::Host),
    ("sweep.point_busy_s_max", "s", Clock::Host),
    ("sweep.efficiency", "fraction", Clock::Host),
    ("spec.parse_s", "s", Clock::Host),
    ("obs.trace_overhead_frac", "fraction", Clock::Host),
    ("obs.null_sink_overhead_frac", "fraction", Clock::Host),
    ("obs.metrics_sink_overhead_frac", "fraction", Clock::Host),
    ("trace.wall_s", "s", Clock::Host),
    ("trace.coverage", "fraction", Clock::Host),
];

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, clock)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
                clock,
            })
            .collect()
    }
}

/// Whether two runs of the same inputs agree on everything the parity
/// contract covers.
fn same_result(a: &DynamicResult, b: &DynamicResult) -> bool {
    Work::of(a) == Work::of(b)
        && a.peak_in_flight == b.peak_in_flight
        && a.peak_live_worms == b.peak_live_worms
        && a.measured == b.measured
        && a.mean_latency_us.to_bits() == b.mean_latency_us.to_bits()
}

/// Holds a replica leg's result equal to the library's.
pub fn require_parity(
    failures: &mut Failures,
    leg: &str,
    lib: &DynamicResult,
    replica: &DynamicResult,
) {
    failures.require(same_result(replica, lib), || {
        format!(
            "replica parity broken ({leg}): library {} vs replica {}",
            Work::of(lib).to_json(),
            Work::of(replica).to_json()
        )
    });
}

/// One replica leg: the result, its counts, its wall time and tracer.
pub struct Leg {
    pub result: DynamicResult,
    pub counts: Counts,
    pub wall_s: f64,
    pub tracer: Tracer,
}

pub fn replica_leg(inp: &StreamInputs, sink: Option<Box<dyn Sink>>, keep: u64) -> Leg {
    let mut tracer = Tracer::new(keep);
    let t0 = Instant::now();
    let (result, counts) = run_stream_traced(
        inp.built.as_dyn(),
        inp.router.as_ref(),
        &inp.cfg,
        &inp.stream,
        sink,
        &mut tracer,
    );
    Leg {
        result,
        counts,
        wall_s: t0.elapsed().as_secs_f64(),
        tracer,
    }
}

/// The per-layer metrics of a traced run and the raw spans (JSON) to
/// write out, or the parity failures that withhold them.
pub struct TracedOutcome {
    pub metrics: Vec<Metric>,
    pub spans_json: Option<String>,
    pub failures: Failures,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run_traced(w: &Workload, seed: u64) -> TracedOutcome {
    let setup = measure_setup(w);
    let mut v = Values::default();
    v.set("setup.topology_s", setup.topology_s);
    v.set("setup.router_s", setup.router_s);
    v.set("setup.network_s", setup.network_s);
    v.set("setup.engine_s", setup.engine_s);
    v.set("setup.channels", setup.channels as f64);
    let mut failures = Failures::default();
    let (spans_json, attempted, failed) = match w.kind {
        Kind::Stream(shape) => {
            let inp = shape.inputs(seed, Scale::Full);
            // The first run of a process pays the page faults of the
            // engine's memory; the overhead base is the second.
            let warm = inp.run_library();
            let t0 = Instant::now();
            let lib = inp.run_library();
            let lib_wall = t0.elapsed().as_secs_f64();
            failures.require(same_result(&warm, &lib), || {
                "the library run is not deterministic".into()
            });
            failures.stream(&lib, inp.messages(), shape.cap, inp.cfg.warmup);
            failures.fingerprint(w.name, Scale::Full, seed, &Work::of(&lib));

            let traced = replica_leg(&inp, None, KEEP_SPAN_SEQS);
            let metrics = Metrics::new();
            let with_metrics = replica_leg(&inp, Some(Box::new(metrics.clone())), KEEP_SPAN_SEQS);
            let mut legs = vec![("no sink", &traced), ("Metrics sink", &with_metrics)];
            let null = (w.name == "mesh64_stream")
                .then(|| replica_leg(&inp, Some(Box::new(NullSink)), KEEP_SPAN_SEQS));
            if let Some(l) = &null {
                legs.push(("NullSink", l));
            }
            let one_lane = (shape.engine_jobs > 1).then(|| {
                let mut serial = shape.inputs(seed, Scale::Full);
                serial.cfg.engine_jobs = 1;
                replica_leg(&serial, None, KEEP_SPAN_SEQS)
            });
            if let Some(l) = &one_lane {
                legs.push(("one lane", l));
            }
            for (label, leg) in &legs {
                require_parity(&mut failures, label, &lib, &leg.result);
            }

            stream_layers(&mut v, &traced);
            let snap = metrics.snapshot();
            let (mut acquires, mut blocks, mut blocked_ns, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
            for c in &snap.channels {
                acquires += c.acquires;
                blocks += c.blocks;
                blocked_ns += c.blocked_ns;
                busy_ns += c.busy_ns;
            }
            v.set("cascade.acquires", acquires as f64);
            v.set("cascade.blocks", blocks as f64);
            v.set("cascade.block_ratio", ratio(blocks as f64, acquires as f64));
            v.set("cascade.blocked_ns", blocked_ns as f64);
            v.set("cascade.worm_stalls", snap.stalls as f64);
            v.set(
                "channels.mean_utilization",
                ratio(busy_ns as f64, snap.end_ns as f64 * setup.channels as f64),
            );
            if let Some(l) = &one_lane {
                let lanes = secs(traced.tracer.totals(Layer::Engine).busy_ns);
                let serial = secs(l.tracer.totals(Layer::Engine).busy_ns);
                v.set("partition.engine_busy_s", lanes);
                v.set("partition.slowdown", ratio(lanes, serial));
            }
            v.set("obs.trace_overhead_frac", traced.wall_s / lib_wall - 1.0);
            v.set(
                "obs.metrics_sink_overhead_frac",
                with_metrics.wall_s / traced.wall_s - 1.0,
            );
            if let Some(l) = &null {
                v.set(
                    "obs.null_sink_overhead_frac",
                    l.wall_s / traced.wall_s - 1.0,
                );
            }
            let spans = format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"keep_seqs\": {KEEP_SPAN_SEQS}, \"spans\": {}}}\n",
                w.name,
                traced.tracer.spans_json()
            );
            (
                Some(spans),
                inp.messages(),
                inp.messages().saturating_sub(lib.completed as u64),
            )
        }
        Kind::Sweep => {
            v.set("spec.parse_s", setup.spec_parse_s);
            let (attempted, failed) = sweep_layers(&mut v, &mut failures, seed);
            (None, attempted, failed)
        }
    };
    TracedOutcome {
        metrics: if failures.is_empty() {
            v.into_metrics()
        } else {
            Vec::new()
        },
        spans_json,
        failures,
        attempted,
        failed,
    }
}

fn stream_layers(v: &mut Values, leg: &Leg) {
    let tr = &leg.tracer;
    let c = &leg.counts;
    let r = &leg.result;
    let gen = tr.totals(Layer::Gen);
    v.set("gen.calls", gen.calls as f64);
    v.set("gen.busy_s", secs(gen.busy_ns));
    v.set(
        "gen.ns_per_call",
        ratio(gen.busy_ns as f64, gen.calls as f64),
    );
    let select = tr.totals(Layer::Select);
    v.set("driver.select_busy_s", secs(select.busy_ns));
    v.set(
        "driver.select_ns_per_call",
        ratio(select.busy_ns as f64, select.calls as f64),
    );
    v.set("driver.backpressure_iters", c.backpressure_iters as f64);
    v.set(
        "driver.backpressure_busy_s",
        secs(tr.totals(Layer::Backpressure).self_ns),
    );
    v.set(
        "driver.source_wait_us_mean",
        c.source_wait_ns.mean() / 1000.0,
    );
    v.set(
        "driver.source_wait_us_p99",
        c.source_wait_ns
            .quantile(crate::tail_quantile(c.source_wait_ns.count())) as f64
            / 1000.0,
    );
    let plan = tr.totals(Layer::Plan);
    v.set("plan.calls", plan.calls as f64);
    v.set("plan.busy_s", secs(plan.busy_ns));
    v.set(
        "plan.ns_per_call",
        ratio(plan.busy_ns as f64, plan.calls as f64),
    );
    v.set(
        "plan.worms_per_call",
        ratio(c.worms as f64, plan.calls as f64),
    );
    v.set(
        "plan.hops_per_call",
        ratio(c.hops as f64, plan.calls as f64),
    );
    let inject = tr.totals(Layer::Inject);
    v.set("inject.busy_s", secs(inject.busy_ns));
    v.set(
        "inject.ns_per_worm",
        ratio(inject.busy_ns as f64, c.worms as f64),
    );
    let engine = tr.totals(Layer::Engine);
    v.set("engine.busy_s", secs(engine.busy_ns));
    v.set("engine.run_calls", engine.calls as f64);
    v.set("engine.steps", r.engine_steps as f64);
    v.set("engine.flit_hops", r.flit_hops as f64);
    v.set(
        "engine.ns_per_step",
        ratio(engine.busy_ns as f64, r.engine_steps as f64),
    );
    v.set("engine.peak_live_worms", r.peak_live_worms as f64);
    v.set("engine.peak_in_flight", r.peak_in_flight as f64);
    v.set("engine.message_slots", c.message_slots as f64);
    let harvest = tr.totals(Layer::Harvest);
    v.set("harvest.calls", harvest.calls as f64);
    v.set("harvest.records", c.harvest_records as f64);
    v.set("harvest.busy_s", secs(harvest.busy_ns));
    let covered: u64 = Layer::ALL.iter().map(|&l| tr.totals(l).self_ns).sum();
    v.set("trace.wall_s", leg.wall_s);
    v.set("trace.coverage", secs(covered) / leg.wall_s);
}

/// Every point of `spec` through `ExperimentSpec::run_point`, in
/// canonical point order on the sweep's thread count: each point's busy
/// seconds and result, and the wall time of the whole map.
pub fn run_points(
    spec: &ExperimentSpec,
    failures: &mut Failures,
) -> (Vec<(f64, DynamicResult)>, f64) {
    let points: Vec<(SchemeId, f64, usize)> = spec
        .schemes
        .iter()
        .flat_map(|s| {
            spec.loads_us
                .iter()
                .flat_map(move |&l| (0..spec.replications).map(move |rep| (s.clone(), l, rep)))
        })
        .collect();
    let t0 = Instant::now();
    let timed = parallel_map(&points, JOBS, |(scheme, load, rep)| {
        let t = Instant::now();
        let r = spec.run_point(scheme, *load, *rep);
        (t.elapsed().as_secs_f64(), r)
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(timed.len());
    for (busy, r) in timed {
        match r {
            Ok(result) => out.push((busy, result)),
            Err(e) => failures.0.push(format!("run_point: {e}")),
        }
    }
    (out, wall)
}

/// Holds the point-by-point results equal to `run_sweep`'s rows.
pub fn require_point_parity(
    failures: &mut Failures,
    rows: &[SweepRow],
    points: &[(f64, DynamicResult)],
) {
    let lib = Work::of_points(rows.iter().map(|r| &r.result));
    let by_point = Work::of_points(points.iter().map(|(_, r)| r));
    failures.require(lib == by_point, || {
        format!(
            "run_point parity broken: run_sweep {} vs run_point {}",
            lib.to_json(),
            by_point.to_json()
        )
    });
}

/// Runs the sweep untraced (`run_sweep`) and point by point, holding
/// both equal; returns (points attempted, points failed).
fn sweep_layers(v: &mut Values, failures: &mut Failures, seed: u64) -> (u64, u64) {
    let Some(sweep) = SweepRun::run(seed, Scale::Full, failures) else {
        return (1, 1);
    };
    failures.fingerprint("fig7_5_sweep", Scale::Full, seed, &sweep.work());
    let (points, wall) = run_points(&sweep.spec, failures);
    require_point_parity(failures, &sweep.rows, &points);
    let sum: f64 = points.iter().map(|(busy, _)| busy).sum();
    let max = points.iter().map(|(busy, _)| *busy).fold(0.0, f64::max);
    let results = || sweep.rows.iter().map(|r| &r.result);
    let work = sweep.work();
    v.set("sweep.points", sweep.points as f64);
    v.set("sweep.point_busy_s_sum", sum);
    v.set("sweep.point_busy_s_max", max);
    v.set("sweep.efficiency", sum / (wall * JOBS as f64));
    v.set("engine.steps", work.engine_steps as f64);
    v.set("engine.flit_hops", work.flit_hops as f64);
    let peak_worms = results().map(|r| r.peak_live_worms).max().unwrap_or(0);
    let peak_in_flight = results().map(|r| r.peak_in_flight).max().unwrap_or(0);
    v.set("engine.peak_live_worms", peak_worms as f64);
    v.set("engine.peak_in_flight", peak_in_flight as f64);
    v.set("trace.wall_s", wall);
    (sweep.points as u64, sweep.failed())
}
