//! Dynamic (contention) evaluation — the methodology of §7.2.
//!
//! Every node runs a *multicast generator*: messages arrive per node with
//! exponential interarrival times, each carrying `k` uniform distinct
//! destinations; the flit-level engine models the interaction of all the
//! worms; average network latency is estimated with batch means until the
//! 95% CI is within 5% of the mean (or a hard cap). An open-loop network
//! past saturation grows its backlog without bound, so the runner also
//! watches the in-flight population and reports saturation instead of
//! looping forever — the dissertation's plots stop at the same wall.

use mcast_core::model::MulticastSet;
use mcast_sim::engine::{Engine, SimConfig, Time};
use mcast_sim::network::Network;
use mcast_sim::routers::MulticastRouter;
use mcast_topology::Topology;

use crate::gen::{TrafficError, TrafficSource};
use crate::stats::{Accumulator, BatchMeans};

/// Destination selection for the per-node Poisson generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniform random distinct destinations (§7.2's base load).
    Uniform,
    /// Uniform destinations, except every multicast from another node
    /// also addresses `node` — §7.2's non-uniform hot-spot load.
    Hotspot {
        /// The hot-spot node every message addresses.
        node: usize,
    },
    /// Bursty application phases (DESIGN.md §17): the run alternates
    /// between a *broadcast* phase (uniform multicasts, every node
    /// disseminating) and an *allreduce* phase (every multicast also
    /// addresses the reduction `root`, the hot-spot of the collective's
    /// gather step). Phases switch every `phase_len` injections, so the
    /// load the network sees swings between spread-out and converging
    /// traffic — the alternating compute/collective rhythm of data-
    /// parallel applications.
    Bursty {
        /// Injections per phase (phase index = `seq / phase_len`).
        phase_len: u64,
        /// The reduction root addressed during allreduce phases.
        root: usize,
    },
}

impl TrafficPattern {
    /// Rewrites the `seq`-th generated multicast set (0-based, in
    /// injection order) to match the pattern. `Uniform` leaves it
    /// untouched (and is therefore bit-identical to pattern-less runs);
    /// only [`TrafficPattern::Bursty`] reads `seq`.
    pub fn apply(&self, seq: u64, mc: MulticastSet) -> MulticastSet {
        fn toward(hot: usize, mc: MulticastSet) -> MulticastSet {
            if mc.source == hot || mc.destinations.contains(&hot) || mc.destinations.is_empty() {
                mc
            } else {
                let mut dests = mc.destinations;
                dests[0] = hot;
                MulticastSet::new(mc.source, dests)
            }
        }
        match *self {
            TrafficPattern::Uniform => mc,
            TrafficPattern::Hotspot { node: hot } => toward(hot, mc),
            TrafficPattern::Bursty { phase_len, root } => {
                if (seq / phase_len.max(1)) % 2 == 1 {
                    toward(root, mc)
                } else {
                    mc
                }
            }
        }
    }
}

/// Parameters of one dynamic experiment run.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Physical channel/flit parameters.
    pub sim: SimConfig,
    /// Mean interarrival time per node generator, in ns (the "load" axis:
    /// lower = heavier).
    pub mean_interarrival_ns: f64,
    /// Destinations per multicast message.
    pub destinations: usize,
    /// Messages discarded as warmup before statistics start.
    pub warmup: usize,
    /// Observations per batch.
    pub batch_size: usize,
    /// Minimum completed batches before the CI rule may stop the run.
    pub min_batches: usize,
    /// Hard cap on completed batches.
    pub max_batches: usize,
    /// CI-to-mean stopping ratio (the dissertation's 0.05).
    pub ci_ratio: f64,
    /// Saturation guard: in-flight messages per node beyond which the run
    /// is declared saturated.
    pub max_in_flight_per_node: usize,
    /// RNG seed.
    pub seed: u64,
    /// Destination selection pattern ([`TrafficPattern::Uniform`] is the
    /// historical behavior and the default).
    pub pattern: TrafficPattern,
    /// Optional cooperative execution budget (shared step ceiling +
    /// cancellation). `None` — the default — runs unbudgeted; with a
    /// budget installed the run stops at the next event boundary once
    /// it is spent or cancelled and the result carries
    /// [`DynamicResult::budget_exhausted`].
    pub budget: Option<mcast_sim::engine::RunBudget>,
    /// Worker lanes for single-run parallelism (DESIGN.md §15):
    /// `1` — the default — is the serial event loop; `N > 1` routes the
    /// engine through the deterministic window-cohort executor whose
    /// output is bit-identical to serial.
    pub engine_jobs: usize,
}

impl DynamicConfig {
    /// The per-node Poisson source this config describes over
    /// `num_nodes` nodes — the injection stream of [`run_dynamic`] and
    /// [`run_dynamic_stream`]. Fails on fewer than two nodes.
    pub fn traffic_source(&self, num_nodes: usize) -> Result<TrafficSource, TrafficError> {
        TrafficSource::new(
            num_nodes,
            self.mean_interarrival_ns,
            self.destinations,
            self.pattern,
            self.seed,
        )
    }
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            sim: SimConfig::default(),
            mean_interarrival_ns: 300_000.0,
            destinations: 10,
            warmup: 500,
            batch_size: 100,
            min_batches: 10,
            max_batches: 40,
            ci_ratio: 0.05,
            max_in_flight_per_node: 16,
            seed: 0x6d63_6173,
            pattern: TrafficPattern::Uniform,
            budget: None,
            engine_jobs: 1,
        }
    }
}

/// The outcome of one dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicResult {
    /// Mean network latency (µs) over the measured batches.
    pub mean_latency_us: f64,
    /// 95% CI half-width (µs).
    pub ci_us: f64,
    /// Completed batches.
    pub batches: usize,
    /// Measured (post-warmup) message completions.
    pub measured: usize,
    /// Mean per-message traffic (channels) over measured messages.
    pub mean_traffic: f64,
    /// Whether the run hit the saturation guard before converging.
    pub saturated: bool,
    /// Whether the CI stopping rule was met.
    pub converged: bool,
    /// Final simulated time (ns).
    pub sim_time_ns: Time,
    /// Measured-latency distribution (log-bucketed, in ns): p50/p90/p99
    /// and exact min/max for the percentile columns of the §7.2 plots.
    pub latency_hist_ns: mcast_obs::Histogram,
    /// Per-message measured latencies (µs) as an exact Welford
    /// accumulator — the mergeable form the sweep aggregator folds
    /// across replications (see [`crate::stats::Accumulator::merge`]).
    pub latency_stats: Accumulator,
    /// Total message completions, warmup included (the engine-side
    /// count; `measured` is the post-warmup statistics subset).
    pub completed: usize,
    /// Flit-hop events processed by the engine over the whole run —
    /// the throughput-probe numerator, counted natively so probes no
    /// longer need a metrics sink on the hot path.
    pub flit_hops: u64,
    /// Discrete events the engine processed — an environment-insensitive
    /// work metric (identical across machines for a fixed seed).
    pub engine_steps: u64,
    /// Whether the run was stopped by an installed [`RunBudget`]
    /// (step ceiling reached or cancelled) before its stopping rule.
    ///
    /// [`RunBudget`]: mcast_sim::engine::RunBudget
    pub budget_exhausted: bool,
    /// High-water mark of live worm slots over the run — the memory
    /// gauge of DESIGN.md §16: under streaming injection this bounds
    /// the engine's worm arena, independent of how many messages the
    /// run injects.
    pub peak_live_worms: usize,
    /// High-water mark of in-flight messages over the run.
    pub peak_in_flight: usize,
}

impl DynamicResult {
    /// Median measured latency in µs (approximate, ≤ 12.5 % error).
    pub fn p50_latency_us(&self) -> f64 {
        self.latency_hist_ns.p50() as f64 / 1000.0
    }

    /// 99th-percentile measured latency in µs (approximate).
    pub fn p99_latency_us(&self) -> f64 {
        self.latency_hist_ns.p99() as f64 / 1000.0
    }
}

/// Runs one dynamic experiment: `router` on `topo`'s network under
/// Poisson multicast traffic.
///
/// # Panics
///
/// If `topo` has fewer than two nodes. Callers holding outside input
/// check with [`DynamicConfig::traffic_source`] or
/// [`ExperimentSpec::validate`](crate::ExperimentSpec::validate) first.
pub fn run_dynamic<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    cfg: &DynamicConfig,
) -> DynamicResult {
    run_dynamic_with_sink(topo, router, cfg, None)
}

/// [`run_dynamic`] with an optional observability sink installed on the
/// engine (flit-level events for tracing or metrics collection). The
/// statistics are identical with or without a sink.
///
/// # Panics
///
/// If `topo` has fewer than two nodes, as [`run_dynamic`].
pub fn run_dynamic_with_sink<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    cfg: &DynamicConfig,
    sink: Option<Box<dyn mcast_obs::Sink>>,
) -> DynamicResult {
    let network = Network::new(topo, router.required_classes());
    let mut engine = Engine::new(network, cfg.sim);
    if let Some(s) = sink {
        engine.set_sink(s);
    }
    if let Some(b) = &cfg.budget {
        engine.set_budget(b.clone());
    }
    engine.set_engine_jobs(cfg.engine_jobs);
    let n = topo.num_nodes();
    let source = cfg
        .traffic_source(n)
        .unwrap_or_else(|e| panic!("run_dynamic: {e}"));

    let mut latencies = BatchMeans::new(cfg.batch_size);
    let mut latency_hist = mcast_obs::Histogram::new();
    let mut latency_stats = Accumulator::new();
    let mut traffic = Accumulator::new();
    let mut completions = 0usize;
    let mut saturated = false;

    for (t, mc) in source {
        engine.run_until(t);
        let plan = router.plan(&mc);
        engine.inject(&plan);

        // Harvest completions.
        for done in engine.take_completed() {
            completions += 1;
            if completions <= cfg.warmup {
                continue;
            }
            let us = (done.completed_at - done.injected_at) as f64 / 1000.0;
            latencies.push(us);
            latency_stats.push(us);
            latency_hist.record(done.completed_at - done.injected_at);
            traffic.push(done.traffic as f64);
        }

        if latencies.batches() >= cfg.max_batches
            || latencies.converged(cfg.min_batches, cfg.ci_ratio)
        {
            break;
        }
        if engine.in_flight() > cfg.max_in_flight_per_node * n {
            saturated = true;
            break;
        }
        // A spent budget stops the engine from advancing; without this
        // break the injection loop above would spin forever.
        if engine.budget_exhausted() {
            break;
        }
    }

    DynamicResult {
        mean_latency_us: latencies.mean(),
        ci_us: latencies.ci_half_width_95(),
        batches: latencies.batches(),
        measured: latencies.observations(),
        mean_traffic: traffic.mean(),
        saturated,
        converged: latencies.converged(cfg.min_batches, cfg.ci_ratio),
        sim_time_ns: engine.now(),
        latency_hist_ns: latency_hist,
        latency_stats,
        completed: completions,
        flit_hops: engine.flit_hops(),
        engine_steps: engine.steps(),
        budget_exhausted: engine.budget_exhausted(),
        peak_live_worms: engine.peak_live_worms(),
        peak_in_flight: engine.peak_in_flight(),
    }
}

/// Bounds of one streaming (open-loop, bounded-memory) run — see
/// [`run_dynamic_stream`] and DESIGN.md §16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Stop after injecting this many multicasts (the "million-multicast
    /// run" axis). `None` defers to `duration_ns` or, if that is also
    /// unset, to the batch-means stopping rule of the [`DynamicConfig`].
    pub messages: Option<u64>,
    /// Stop once the generators' clock passes this simulated time (ns).
    pub duration_ns: Option<Time>,
    /// Backpressure ceiling: injection pauses (the source's clock keeps
    /// running, but the message waits) while this many messages are in
    /// flight, so live state is bounded by the cap rather than by the
    /// offered load.
    pub max_in_flight: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            messages: None,
            duration_ns: None,
            max_in_flight: 4096,
        }
    }
}

fn harvest(
    engine: &mut Engine,
    warmup: usize,
    completions: &mut usize,
    latencies: &mut BatchMeans,
    latency_stats: &mut Accumulator,
    latency_hist: &mut mcast_obs::Histogram,
    traffic: &mut Accumulator,
) {
    engine.drain_completed(|done| {
        *completions += 1;
        if *completions <= warmup {
            return;
        }
        let us = (done.completed_at - done.injected_at) as f64 / 1000.0;
        latencies.push(us);
        latency_stats.push(us);
        latency_hist.record(done.completed_at - done.injected_at);
        traffic.push(done.traffic as f64);
    });
}

/// Runs a dynamic experiment in **streaming** mode: same per-node
/// Poisson generators as [`run_dynamic`], but the engine recycles
/// message/worm slots and delivery buffers, statistics are folded
/// incrementally from [`Engine::drain_completed`], and plans are built
/// through a [`PlanArena`](mcast_sim::PlanArena) — so memory is
/// O(in-flight), not O(messages), and million-multicast runs fit in a
/// bounded footprint (DESIGN.md §16).
///
/// `stream.max_in_flight` applies backpressure: once that many messages
/// are live, injection waits for the network to drain before admitting
/// the next message (its generator timestamp is preserved; it simply
/// enters late). If the network cannot drain — no events pending while
/// at the cap — the run is wedged and reports `saturated`.
///
/// With `stream.messages`/`stream.duration_ns` unset, the stopping rule
/// is the batch-means CI rule of `cfg`, making this a drop-in
/// bounded-memory variant of [`run_dynamic`]. The measured statistics
/// are identical to the non-streaming runner for the same config
/// whenever both stop at the same point (the conformance fuzzer holds
/// this as an invariant).
///
/// # Panics
///
/// If `topo` has fewer than two nodes, as [`run_dynamic`].
pub fn run_dynamic_stream<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    cfg: &DynamicConfig,
    stream: &StreamConfig,
) -> DynamicResult {
    let network = Network::new(topo, router.required_classes());
    let mut engine = Engine::new(network, cfg.sim);
    engine.set_stream_mode(true);
    if let Some(b) = &cfg.budget {
        engine.set_budget(b.clone());
    }
    engine.set_engine_jobs(cfg.engine_jobs);
    let n = topo.num_nodes();
    let mut source = cfg
        .traffic_source(n)
        .unwrap_or_else(|e| panic!("run_dynamic_stream: {e}"));

    let mut latencies = BatchMeans::new(cfg.batch_size);
    let mut latency_hist = mcast_obs::Histogram::new();
    let mut latency_stats = Accumulator::new();
    let mut traffic = Accumulator::new();
    let mut completions = 0usize;
    let mut saturated = false;
    let mut arena = mcast_sim::PlanArena::new();
    let mut plan = mcast_sim::DeliveryPlan {
        source: 0,
        destinations: Vec::new(),
        worms: Vec::new(),
    };

    'source: loop {
        // Peek, not draw: a message held by the duration bound or by
        // backpressure consumes no random numbers until it is injected.
        if let Some(d) = stream.duration_ns {
            if source.peek_time() > d {
                break;
            }
        }
        // Backpressure: hold this injection until the live population
        // drops below the cap, advancing the engine event by event.
        while engine.in_flight() >= stream.max_in_flight {
            harvest(
                &mut engine,
                cfg.warmup,
                &mut completions,
                &mut latencies,
                &mut latency_stats,
                &mut latency_hist,
                &mut traffic,
            );
            if engine.in_flight() < stream.max_in_flight {
                break;
            }
            match engine.next_event_time() {
                Some(te) => {
                    engine.run_until(te);
                }
                None => {
                    // At the cap with nothing scheduled: the network is
                    // wedged (deadlocked worms hold the population up).
                    saturated = true;
                    break 'source;
                }
            }
            if engine.budget_exhausted() {
                break 'source;
            }
        }
        let Some((t, mc)) = source.next() else {
            break;
        };
        engine.run_until(t);
        router.plan_into(&mc, &mut arena, &mut plan);
        engine.inject(&plan);

        harvest(
            &mut engine,
            cfg.warmup,
            &mut completions,
            &mut latencies,
            &mut latency_stats,
            &mut latency_hist,
            &mut traffic,
        );

        if let Some(m) = stream.messages {
            if source.injected() >= m {
                break;
            }
        } else if stream.duration_ns.is_none() {
            if latencies.batches() >= cfg.max_batches
                || latencies.converged(cfg.min_batches, cfg.ci_ratio)
            {
                break;
            }
            if engine.in_flight() > cfg.max_in_flight_per_node * n {
                saturated = true;
                break;
            }
        }
        if engine.budget_exhausted() {
            break;
        }
    }

    // A count- or duration-bounded run drains its tail so every admitted
    // message resolves; the CI-rule path stops exactly where
    // `run_dynamic` stops (backlog left in flight) so the two report
    // identical statistics. Wedged or out-of-budget runs keep their
    // backlog either way.
    let drain_tail = stream.messages.is_some() || stream.duration_ns.is_some();
    if drain_tail && !saturated && !engine.budget_exhausted() {
        engine.run_to_quiescence();
        harvest(
            &mut engine,
            cfg.warmup,
            &mut completions,
            &mut latencies,
            &mut latency_stats,
            &mut latency_hist,
            &mut traffic,
        );
    }

    DynamicResult {
        mean_latency_us: latencies.mean(),
        ci_us: latencies.ci_half_width_95(),
        batches: latencies.batches(),
        measured: latencies.observations(),
        mean_traffic: traffic.mean(),
        saturated,
        converged: latencies.converged(cfg.min_batches, cfg.ci_ratio),
        sim_time_ns: engine.now(),
        latency_hist_ns: latency_hist,
        latency_stats,
        completed: completions,
        flit_hops: engine.flit_hops(),
        engine_steps: engine.steps(),
        budget_exhausted: engine.budget_exhausted(),
        peak_live_worms: engine.peak_live_worms(),
        peak_in_flight: engine.peak_in_flight(),
    }
}

/// Result of a closed-loop saturation-throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Sustained completions per millisecond of simulated time.
    pub messages_per_ms: f64,
    /// Mean message latency over the measured window (µs).
    pub mean_latency_us: f64,
    /// Messages measured.
    pub completed: usize,
}

/// Measures a routing scheme's **saturation throughput** (§2.1's
/// throughput criterion) with a closed-loop offered load: `window`
/// messages are kept in flight at all times (each completion immediately
/// triggers a fresh injection from a uniform source), and the sustained
/// completion rate is measured over `measure` completions after a
/// `window`-sized warmup.
pub fn measure_saturation_throughput<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    destinations: usize,
    window: usize,
    measure: usize,
    sim: SimConfig,
    seed: u64,
) -> ThroughputResult {
    let network = Network::new(topo, router.required_classes());
    let mut engine = Engine::new(network, sim);
    let n = topo.num_nodes();
    let mut gen = crate::gen::MulticastGen::new(n, seed);
    let inject = |engine: &mut Engine, gen: &mut crate::gen::MulticastGen| {
        let s = gen.source();
        let mc = gen.multicast_distinct(s, destinations.min(n - 1));
        engine.inject(&router.plan(&mc));
    };
    for _ in 0..window {
        inject(&mut engine, &mut gen);
    }
    let mut warmed = 0usize;
    let mut measured = 0usize;
    let mut lat = Accumulator::new();
    let mut t_start = 0;
    loop {
        if !engine.step() {
            panic!(
                "closed-loop throughput run wedged with {} in flight (deadlock?)",
                engine.in_flight()
            );
        }
        for done in engine.take_completed() {
            if warmed < window {
                warmed += 1;
                if warmed == window {
                    t_start = engine.now();
                }
            } else {
                measured += 1;
                lat.push((done.completed_at - done.injected_at) as f64 / 1000.0);
            }
            inject(&mut engine, &mut gen);
        }
        if measured >= measure {
            break;
        }
    }
    let span_ms = (engine.now() - t_start) as f64 / 1e6;
    ThroughputResult {
        messages_per_ms: measured as f64 / span_ms,
        mean_latency_us: lat.mean(),
        completed: measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_sim::routers::{DualPathRouter, MultiPathMeshRouter};
    use mcast_topology::Mesh2D;

    fn quick_cfg() -> DynamicConfig {
        DynamicConfig {
            warmup: 50,
            batch_size: 20,
            min_batches: 5,
            max_batches: 10,
            ..DynamicConfig::default()
        }
    }

    #[test]
    fn light_load_latency_close_to_contention_free() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.mean_interarrival_ns = 3_000_000.0; // very light
        cfg.destinations = 5;
        let r = run_dynamic(&mesh, &router, &cfg);
        assert!(!r.saturated);
        assert!(r.mean_latency_us > 0.0);
        // 128-byte message at 20 MB/s is 6.4 µs of serialization; with
        // path detours the mean must sit within a small multiple.
        assert!(r.mean_latency_us < 60.0, "latency {} µs", r.mean_latency_us);
    }

    #[test]
    fn heavy_load_latency_exceeds_light_load() {
        let mesh = Mesh2D::new(8, 8);
        let router = MultiPathMeshRouter::new(mesh);
        let mut light = quick_cfg();
        light.mean_interarrival_ns = 2_000_000.0;
        let mut heavy = quick_cfg();
        heavy.mean_interarrival_ns = 400_000.0;
        let rl = run_dynamic(&mesh, &router, &light);
        let rh = run_dynamic(&mesh, &router, &heavy);
        assert!(
            rh.saturated || rh.mean_latency_us > rl.mean_latency_us,
            "heavy {} vs light {}",
            rh.mean_latency_us,
            rl.mean_latency_us
        );
    }

    #[test]
    fn latency_percentiles_populated_and_ordered() {
        let mesh = Mesh2D::new(4, 4);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 3;
        cfg.mean_interarrival_ns = 500_000.0;
        let r = run_dynamic(&mesh, &router, &cfg);
        assert_eq!(r.latency_hist_ns.count() as usize, r.measured);
        assert!(r.p50_latency_us() > 0.0);
        assert!(r.p50_latency_us() <= r.p99_latency_us());
        assert!(r.p99_latency_us() <= r.latency_hist_ns.max() as f64 / 1000.0);
        // The histogram mean and the batch-means mean measure the same
        // stream (batch means only counts full batches, so allow slack).
        let hist_mean_us = r.latency_hist_ns.mean() / 1000.0;
        assert!((hist_mean_us - r.mean_latency_us).abs() < 0.5 * r.mean_latency_us);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh2D::new(4, 4);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 3;
        cfg.mean_interarrival_ns = 500_000.0;
        let a = run_dynamic(&mesh, &router, &cfg);
        let b = run_dynamic(&mesh, &router, &cfg);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
    }

    #[test]
    fn engine_jobs_bit_identical_to_serial() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 6;
        cfg.mean_interarrival_ns = 120_000.0; // contended but below saturation
        let serial = run_dynamic(&mesh, &router, &cfg);
        cfg.engine_jobs = 4;
        let par = run_dynamic(&mesh, &router, &cfg);
        assert_eq!(serial.engine_steps, par.engine_steps);
        assert_eq!(serial.flit_hops, par.flit_hops);
        assert_eq!(serial.sim_time_ns, par.sim_time_ns);
        assert_eq!(serial.mean_latency_us, par.mean_latency_us);
        assert_eq!(serial.completed, par.completed);
        assert_eq!(
            format!("{:?}", serial.latency_hist_ns),
            format!("{:?}", par.latency_hist_ns)
        );
    }

    #[test]
    fn streaming_ci_rule_matches_run_dynamic_bitwise() {
        // With neither a message count nor a duration, the streaming
        // runner uses the same batch-means stopping rule — and with a
        // non-binding in-flight cap the whole run must be bit-identical
        // to the materializing runner.
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 5;
        cfg.mean_interarrival_ns = 500_000.0;
        let a = run_dynamic(&mesh, &router, &cfg);
        let b = run_dynamic_stream(&mesh, &router, &cfg, &StreamConfig::default());
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(a.engine_steps, b.engine_steps);
        assert_eq!(a.flit_hops, b.flit_hops);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.measured, b.measured);
        assert_eq!(
            format!("{:?}", a.latency_hist_ns),
            format!("{:?}", b.latency_hist_ns)
        );
    }

    #[test]
    fn streaming_message_count_completes_all_with_bounded_in_flight() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 4;
        cfg.mean_interarrival_ns = 50_000.0; // heavy enough to hit the cap
        let stream = StreamConfig {
            messages: Some(5_000),
            max_in_flight: 48,
            ..StreamConfig::default()
        };
        let r = run_dynamic_stream(&mesh, &router, &cfg, &stream);
        assert!(!r.saturated);
        assert_eq!(r.completed, 5_000);
        assert!(
            r.peak_in_flight <= 48,
            "backpressure ceiling breached: {}",
            r.peak_in_flight
        );
        assert!(r.peak_live_worms > 0);
        assert_eq!(r.latency_hist_ns.count() as usize, r.completed - cfg.warmup);
    }

    #[test]
    fn streaming_engine_jobs_bit_identical_to_serial() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 6;
        cfg.mean_interarrival_ns = 120_000.0;
        let stream = StreamConfig {
            messages: Some(1_500),
            max_in_flight: 96,
            ..StreamConfig::default()
        };
        let serial = run_dynamic_stream(&mesh, &router, &cfg, &stream);
        cfg.engine_jobs = 4;
        let par = run_dynamic_stream(&mesh, &router, &cfg, &stream);
        assert_eq!(serial.engine_steps, par.engine_steps);
        assert_eq!(serial.flit_hops, par.flit_hops);
        assert_eq!(serial.sim_time_ns, par.sim_time_ns);
        assert_eq!(serial.mean_latency_us, par.mean_latency_us);
        assert_eq!(serial.completed, par.completed);
        assert_eq!(serial.peak_in_flight, par.peak_in_flight);
        assert_eq!(serial.peak_live_worms, par.peak_live_worms);
    }

    #[test]
    fn streaming_duration_bound_stops_the_source() {
        let mesh = Mesh2D::new(4, 4);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.destinations = 3;
        cfg.mean_interarrival_ns = 200_000.0;
        let stream = StreamConfig {
            duration_ns: Some(5_000_000),
            ..StreamConfig::default()
        };
        let r = run_dynamic_stream(&mesh, &router, &cfg, &stream);
        assert!(!r.saturated);
        assert!(r.completed > 0);
        // The source stops at the bound; the tail drain may run later.
        assert!(r.sim_time_ns >= 5_000_000 || r.completed > 0);
    }

    #[test]
    fn saturation_guard_fires_under_overload() {
        let mesh = Mesh2D::new(4, 4);
        let router = DualPathRouter::mesh(mesh);
        let mut cfg = quick_cfg();
        cfg.mean_interarrival_ns = 1_000.0; // absurd overload
        cfg.destinations = 8;
        cfg.max_in_flight_per_node = 4;
        let r = run_dynamic(&mesh, &router, &cfg);
        assert!(r.saturated);
    }
}

#[cfg(test)]
mod throughput_tests {
    use super::*;
    use mcast_sim::routers::{DualPathRouter, FixedPathRouter};
    use mcast_topology::Mesh2D;

    #[test]
    fn closed_loop_throughput_is_positive_and_ranks_schemes() {
        let mesh = Mesh2D::new(6, 6);
        let dual = measure_saturation_throughput(
            &mesh,
            &DualPathRouter::mesh(mesh),
            6,
            24,
            150,
            SimConfig::default(),
            9,
        );
        let fixed = measure_saturation_throughput(
            &mesh,
            &FixedPathRouter::mesh(mesh),
            6,
            24,
            150,
            SimConfig::default(),
            9,
        );
        assert!(dual.messages_per_ms > 0.0);
        assert!(fixed.messages_per_ms > 0.0);
        // Fixed-path wastes channels on small destination sets, so its
        // saturation throughput is lower.
        assert!(
            dual.messages_per_ms > fixed.messages_per_ms,
            "dual {:.2}/ms !> fixed {:.2}/ms",
            dual.messages_per_ms,
            fixed.messages_per_ms
        );
    }
}
