//! The traced replica driver: the message-bound path of
//! `mcast_workload::run_dynamic_stream`, calling the same public
//! functions in the same order, with a span around each call into a
//! layer. The replica-parity test and every traced run hold its results
//! equal to the library's, so the layer times describe the code users
//! run.

use std::time::Instant;

use mcast_obs::{Histogram, Sink};
use mcast_sim::{DeliveryPlan, Engine, MulticastRouter, Network, PlanArena, Time};
use mcast_topology::Topology;
use mcast_workload::{
    Accumulator, BatchMeans, DynamicConfig, DynamicResult, MulticastGen, StreamConfig,
};

/// The layers the replica times, one span kind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Network::new` + `Engine::new` inside the run.
    Setup,
    /// Picking the next source (the injection loop's `min_by_key` scan).
    Select,
    /// The backpressure wait loop (children: engine, harvest).
    Backpressure,
    /// `multicast_distinct` + `TrafficPattern::apply`, `exponential_ns`.
    Gen,
    /// `MulticastRouter::plan_into`.
    Plan,
    /// `Engine::inject`.
    Inject,
    /// `Engine::run_until` / `Engine::run_to_quiescence`.
    Engine,
    /// `Engine::drain_completed` and the statistics it feeds.
    Harvest,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Setup,
        Layer::Select,
        Layer::Backpressure,
        Layer::Gen,
        Layer::Plan,
        Layer::Inject,
        Layer::Engine,
        Layer::Harvest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Select => "driver.select",
            Layer::Backpressure => "driver.backpressure",
            Layer::Gen => "gen",
            Layer::Plan => "plan",
            Layer::Inject => "inject",
            Layer::Engine => "engine",
            Layer::Harvest => "harvest",
        }
    }
}

/// Per-layer totals over every span of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    /// Span time, children included.
    pub busy_ns: u64,
    /// Span time minus the time its child spans cover.
    pub self_ns: u64,
}

/// One recorded span; `seq` is the injection sequence number of the
/// multicast that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    raw: Option<u32>,
}

/// Raw spans kept per run at most (about 10 MB of JSON), whatever the
/// multicast limit: the hot-spot workload steps the engine about a
/// hundred times per multicast while backpressure holds.
const MAX_RAW_SPANS: usize = 100_000;

/// Span recorder: totals for every span, raw spans for the first
/// `keep_seqs` multicasts.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Frame>,
    totals: [Totals; Layer::ALL.len()],
    spans: Vec<Span>,
    keep_seqs: u64,
}

impl Tracer {
    pub fn new(keep_seqs: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            totals: [Totals::default(); Layer::ALL.len()],
            spans: Vec::new(),
            keep_seqs,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer, seq: u64) {
        let start_ns = self.now_ns();
        let raw = (seq < self.keep_seqs && self.spans.len() < MAX_RAW_SPANS).then(|| {
            self.spans.push(Span {
                layer,
                seq,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|f| f.raw),
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Frame {
            layer,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - frame.start_ns;
        let t = &mut self.totals[frame.layer as usize];
        t.calls += 1;
        t.busy_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(i) = frame.raw {
            self.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    pub fn span<R>(&mut self, layer: Layer, seq: u64, f: impl FnOnce() -> R) -> R {
        self.enter(layer, seq);
        let r = f();
        self.exit();
        r
    }

    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// The raw spans as a JSON array of objects.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"seq\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.layer.name(),
                s.seq,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push(']');
        out
    }
}

/// Counts the replica takes at the layer boundaries, beside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub backpressure_iters: u64,
    pub worms: u64,
    pub hops: u64,
    pub harvest_records: u64,
    pub message_slots: usize,
    /// How late the open-loop source injected each multicast past its
    /// due time, in simulated ns.
    pub source_wait_ns: Histogram,
}

/// The statistics the library's `harvest` folds, in the same order.
struct Harvest {
    warmup: usize,
    completions: usize,
    latencies: BatchMeans,
    latency_stats: Accumulator,
    latency_hist: Histogram,
    traffic: Accumulator,
}

impl Harvest {
    fn drain(&mut self, engine: &mut Engine) -> u64 {
        let mut records = 0;
        engine.drain_completed(|done| {
            records += 1;
            self.completions += 1;
            if self.completions <= self.warmup {
                return;
            }
            let us = (done.completed_at - done.injected_at) as f64 / 1000.0;
            self.latencies.push(us);
            self.latency_stats.push(us);
            self.latency_hist
                .record(done.completed_at - done.injected_at);
            self.traffic.push(done.traffic as f64);
        });
        records
    }
}

/// Runs `run_dynamic_stream`'s message-bound loop under `tracer`, with
/// `sink` installed on the engine if given.
pub fn run_stream_traced<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    cfg: &DynamicConfig,
    stream: &StreamConfig,
    sink: Option<Box<dyn Sink>>,
    tr: &mut Tracer,
) -> (DynamicResult, Counts) {
    let messages = stream
        .messages
        .expect("the replica covers message-bound streams only");
    assert!(
        stream.duration_ns.is_none(),
        "the replica covers message-bound streams only"
    );
    let mut engine = tr.span(Layer::Setup, 0, || {
        let network = Network::new(topo, router.required_classes());
        let mut engine = Engine::new(network, cfg.sim);
        engine.set_stream_mode(true);
        if let Some(b) = &cfg.budget {
            engine.set_budget(b.clone());
        }
        engine.set_engine_jobs(cfg.engine_jobs);
        engine
    });
    if let Some(s) = sink {
        engine.set_sink(s);
    }
    let n = topo.num_nodes();
    let mut gen = MulticastGen::new(n, cfg.seed);
    let mut next_gen: Vec<(Time, usize)> = tr.span(Layer::Gen, 0, || {
        (0..n)
            .map(|node| (gen.exponential_ns(cfg.mean_interarrival_ns), node))
            .collect()
    });

    let mut h = Harvest {
        warmup: cfg.warmup,
        completions: 0,
        latencies: BatchMeans::new(cfg.batch_size),
        latency_stats: Accumulator::new(),
        latency_hist: Histogram::new(),
        traffic: Accumulator::new(),
    };
    let mut counts = Counts::default();
    let mut saturated = false;
    let mut injected = 0u64;
    let mut arena = PlanArena::new();
    let mut plan = DeliveryPlan {
        source: 0,
        destinations: Vec::new(),
        worms: Vec::new(),
    };

    loop {
        let seq = injected;
        let (t, node) = tr.span(Layer::Select, seq, || {
            let (&(t, node), _) = next_gen
                .iter()
                .zip(0..)
                .min_by_key(|((t, node), _)| (*t, *node))
                .expect("generators exist");
            (t, node)
        });
        if engine.in_flight() >= stream.max_in_flight {
            let mut stop = false;
            tr.enter(Layer::Backpressure, seq);
            while engine.in_flight() >= stream.max_in_flight {
                counts.backpressure_iters += 1;
                counts.harvest_records += tr.span(Layer::Harvest, seq, || h.drain(&mut engine));
                if engine.in_flight() < stream.max_in_flight {
                    break;
                }
                match engine.next_event_time() {
                    Some(te) => {
                        tr.span(Layer::Engine, seq, || engine.run_until(te));
                    }
                    None => {
                        saturated = true;
                        stop = true;
                        break;
                    }
                }
                if engine.budget_exhausted() {
                    stop = true;
                    break;
                }
            }
            tr.exit();
            if stop {
                break;
            }
        }
        tr.span(Layer::Engine, seq, || engine.run_until(t));
        counts.source_wait_ns.record(engine.now() - t);
        let mc = tr.span(Layer::Gen, seq, || {
            cfg.pattern.apply(
                injected,
                gen.multicast_distinct(node, cfg.destinations.min(n - 1)),
            )
        });
        tr.span(Layer::Plan, seq, || {
            router.plan_into(&mc, &mut arena, &mut plan)
        });
        counts.worms += plan.worms.len() as u64;
        counts.hops += plan.traffic() as u64;
        tr.span(Layer::Inject, seq, || engine.inject(&plan));
        injected += 1;
        next_gen[node].0 = t + tr.span(Layer::Gen, seq, || {
            gen.exponential_ns(cfg.mean_interarrival_ns)
        });
        counts.harvest_records += tr.span(Layer::Harvest, seq, || h.drain(&mut engine));

        if injected >= messages || engine.budget_exhausted() {
            break;
        }
    }

    if !saturated && !engine.budget_exhausted() {
        tr.span(Layer::Engine, injected, || engine.run_to_quiescence());
        counts.harvest_records += tr.span(Layer::Harvest, injected, || h.drain(&mut engine));
    }
    counts.message_slots = engine.message_slots();

    let result = DynamicResult {
        mean_latency_us: h.latencies.mean(),
        ci_us: h.latencies.ci_half_width_95(),
        batches: h.latencies.batches(),
        measured: h.latencies.observations(),
        mean_traffic: h.traffic.mean(),
        saturated,
        converged: h.latencies.converged(cfg.min_batches, cfg.ci_ratio),
        sim_time_ns: engine.now(),
        latency_hist_ns: h.latency_hist,
        latency_stats: h.latency_stats,
        completed: h.completions,
        flit_hops: engine.flit_hops(),
        engine_steps: engine.steps(),
        budget_exhausted: engine.budget_exhausted(),
        peak_live_worms: engine.peak_live_worms(),
        peak_in_flight: engine.peak_in_flight(),
    };
    (result, counts)
}
