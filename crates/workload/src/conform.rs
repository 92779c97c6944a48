//! Differential conformance fuzzing of the wormhole engine
//! (DESIGN.md §12, `mcast verify`).
//!
//! The optimized engine (`mcast_sim::Engine`) carries a calendar event
//! queue, arena worm state and clone-free injection — exactly the kind
//! of machinery whose bugs silently violate the paper's claims instead
//! of crashing. This module checks it against the deliberately naive
//! [`ReferenceEngine`], in the spirit of the executable deadlock-
//! freedom oracles of Verbeek & Schmaltz (arXiv:1110.4677):
//!
//! 1. a [`VerifyScenario`] is drawn deterministically from a seed:
//!    a registry (topology, scheme) pair, a traffic pattern, a load, a
//!    message budget and an optional fault mask;
//! 2. both engines run the identical injection schedule and their
//!    traces must agree *bit for bit*: delivery sets, per-message
//!    latencies, flit-hop totals, quiescence time, and the surviving
//!    (deadlocked) set;
//! 3. engine-independent invariants are checked on the optimized
//!    engine's event trace: flit conservation, in-order flit delivery
//!    per (message, channel), no channel acquired outside its claimed
//!    channel class, and — when the plans' channel dependency graph is
//!    acyclic — no deadlock (Dally & Seitz, §2.3.4);
//! 4. on failure, a greedy shrinker minimizes the scenario (drop
//!    messages, drop the fault mask, shrink topology dims, lower load,
//!    fewer destinations) and emits the reproducer as a checked-in-able
//!    [`ExperimentSpec`] JSON.

use mcast_obs::{Recording, SimEvent};
use mcast_sim::reference::ReferenceEngine;
use mcast_sim::registry::{build_fault_router, schemes_for, RegistryError, SchemeId, TopoSpec};
use mcast_sim::{ClassChoice, DeliveryPlan, Engine, MessageId, Network, PlanWorm, SimConfig, Time};
use mcast_topology::cdg::ChannelDependencyGraph;
use mcast_topology::{Channel, FaultMask, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::MulticastGen;
use crate::spec::{ExperimentSpec, FaultSpec, PatternSpec};

fn err(msg: impl Into<String>) -> RegistryError {
    RegistryError(msg.into())
}

/// One drawn conformance scenario — every axis the fuzzer varies, and
/// nothing else: the concrete workload (sources, destinations, arrival
/// times, fault mask) is a pure function of these fields, so a scenario
/// round-trips losslessly through an [`ExperimentSpec`] reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyScenario {
    /// The network.
    pub topology: TopoSpec,
    /// The routing scheme (must be simulable on `topology`).
    pub scheme: SchemeId,
    /// Traffic pattern (hot-spot node resolved from the topology).
    pub pattern: PatternSpec,
    /// Mean interarrival time in µs (lower = heavier).
    pub load_us: f64,
    /// Destinations per multicast.
    pub destinations: usize,
    /// Messages submitted.
    pub messages: usize,
    /// RNG seed for the workload and the fault mask.
    pub seed: u64,
    /// Link fault rate (0.0 = healthy network).
    pub fault_rate: f64,
    /// When true the optimized engine runs an extra leg in streaming
    /// (slot-recycling) mode, and its trace plus full event stream must
    /// match the non-streaming run bit for bit (DESIGN.md §16).
    pub stream: bool,
}

impl VerifyScenario {
    /// The scenario as a checked-in-able [`ExperimentSpec`]: the shrunk
    /// reproducer format. The message budget and fault rate ride in the
    /// spec's `fault` section (rate 0.0 = healthy), the remaining axes
    /// map one-to-one.
    pub fn to_spec(&self) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            &format!("verify-repro-{}-{}", self.topology, self.scheme),
            self.topology.clone(),
        );
        spec.schemes = vec![self.scheme.clone()];
        spec.pattern = self.pattern;
        spec.loads_us = vec![self.load_us];
        spec.destinations = self.destinations;
        spec.replications = 1;
        spec.seed = self.seed;
        spec.fault = Some(FaultSpec {
            rates: vec![self.fault_rate],
            messages: self.messages,
            keep_connected: true,
        });
        if self.stream {
            spec.stream = Some(crate::dynamic::StreamConfig::default());
        }
        spec
    }

    /// Reads a scenario back out of a reproducer spec (the inverse of
    /// [`VerifyScenario::to_spec`]; also accepts hand-written specs,
    /// taking the first scheme and the first load).
    pub fn from_spec(spec: &ExperimentSpec) -> Result<VerifyScenario, RegistryError> {
        let scheme = spec
            .schemes
            .first()
            .cloned()
            .ok_or_else(|| err("verify spec has no schemes"))?;
        let load_us = *spec
            .loads_us
            .first()
            .ok_or_else(|| err("verify spec has an empty load grid"))?;
        let (messages, fault_rate) = match &spec.fault {
            Some(f) => (f.messages, f.rates.first().copied().unwrap_or(0.0)),
            None => (16, 0.0),
        };
        Ok(VerifyScenario {
            topology: spec.topology.clone(),
            scheme,
            pattern: spec.pattern,
            load_us,
            destinations: spec.destinations,
            messages,
            seed: spec.seed,
            fault_rate,
            stream: spec.stream.is_some(),
        })
    }

    /// A termination measure for the shrinker: every accepted shrink
    /// step strictly decreases it.
    fn size(&self) -> u64 {
        let load_heaviness = (1_000_000.0 / self.load_us.max(0.001)) as u64;
        self.messages as u64 * 1_000_000
            + self.topology.num_nodes() as u64 * 1_000
            + self.destinations as u64 * 10
            + u64::from(self.stream) * 6
            + u64::from(self.fault_rate > 0.0) * 5
            + load_heaviness.min(4)
    }
}

impl std::fmt::Display for VerifyScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {} pattern={} load={}us dests={} messages={} seed={} fault={} stream={}",
            self.topology,
            self.scheme,
            match self.pattern {
                PatternSpec::Uniform => "uniform",
                PatternSpec::Hotspot => "hotspot",
                PatternSpec::Bursty => "bursty",
            },
            self.load_us,
            self.destinations,
            self.messages,
            self.seed,
            self.fault_rate,
            self.stream,
        )
    }
}

/// The derived concrete workload of a scenario: what both engines see.
struct Workload {
    classes: u8,
    mask: FaultMask,
    /// `(arrival time, plan)` in injection order.
    arrivals: Vec<(Time, DeliveryPlan)>,
    /// Multicasts the fault-aware planner could not route at all.
    planner_dropped: usize,
}

/// Expands a scenario into its injection schedule. Plans come from the
/// registry's fault-aware router so fault scenarios route around the
/// mask where the scheme supports it; schemes without fault planning
/// run oblivious and get screened by `inject_checked` instead.
fn derive_workload(s: &VerifyScenario) -> Result<Workload, RegistryError> {
    let built = s.topology.build();
    let n = s.topology.num_nodes();
    if s.destinations == 0 || s.destinations >= n {
        return Err(err(format!(
            "destinations {} out of range for {} ({n} nodes)",
            s.destinations, s.topology
        )));
    }
    let router = build_fault_router(&s.topology, &s.scheme)?;
    let mask = if s.fault_rate > 0.0 {
        FaultMask::random_links_connected(built.as_dyn(), s.fault_rate, s.seed ^ 0xfa17)
    } else {
        FaultMask::none()
    };
    let pattern = s.pattern.resolve(&s.topology);
    let mut gen = MulticastGen::new(n, s.seed);
    let mut arrivals = Vec::with_capacity(s.messages);
    let mut planner_dropped = 0;
    let mut t: Time = 0;
    for seq in 0..s.messages {
        t += gen.exponential_ns(s.load_us * 1000.0);
        let source = gen.source();
        let mc = pattern.apply(seq as u64, gen.multicast_distinct(source, s.destinations));
        match router.plan(&mc, &mask) {
            Ok(fp) if !fp.plan.destinations.is_empty() => arrivals.push((t, fp.plan)),
            _ => planner_dropped += 1,
        }
    }
    Ok(Workload {
        classes: router.required_classes(),
        mask,
        arrivals,
        planner_dropped,
    })
}

/// One completed message, in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRecord {
    /// Engine message id (identical across engines — same inject order).
    pub id: MessageId,
    /// Network latency: completion minus injection.
    pub latency_ns: Time,
    /// Per-destination delivery times, plan order.
    pub deliveries: Vec<(NodeId, Time)>,
}

/// The comparable trace of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Whether the run drained (false = deadlock).
    pub quiesced: bool,
    /// Simulation time at quiescence.
    pub finished_at: Time,
    /// Total flit hops.
    pub flit_hops: u64,
    /// Messages accepted by `inject_checked`.
    pub injected: usize,
    /// Messages dropped at the source (unroutable or dead channels).
    pub dropped: usize,
    /// Completed messages, ascending id.
    pub completed: Vec<CompletedRecord>,
    /// Messages still in flight at quiescence (the deadlocked set).
    pub live: Vec<MessageId>,
}

/// Runs the injection schedule through the optimized engine, recording
/// the observability trace; `chaos` enables the engine's test-only
/// swapped-class bug, `stream` the slot-recycling mode (DESIGN.md
/// §16). Returns the trace, the recorded events, and the plan injected
/// under each message id.
fn run_optimized(
    wl: &Workload,
    topo: &TopoSpec,
    chaos: bool,
    stream: bool,
) -> (RunTrace, Vec<SimEvent>, Vec<Option<DeliveryPlan>>) {
    let built = topo.build();
    let mut engine = Engine::new(
        Network::new(built.as_dyn(), wl.classes),
        SimConfig::default(),
    );
    engine.set_chaos_swap_class(chaos);
    engine.set_stream_mode(stream);
    let recording = Recording::new();
    engine.set_sink(Box::new(recording.clone()));
    let broken = engine.apply_fault_mask(&wl.mask);
    assert!(broken.is_empty(), "mask applied before any injection");
    let mut plans: Vec<Option<DeliveryPlan>> = Vec::new();
    let mut dropped = wl.planner_dropped;
    for (t, plan) in &wl.arrivals {
        engine.run_until(*t);
        match engine.inject_checked(plan) {
            Ok(slot) => {
                // External ids are assigned sequentially per successful
                // injection; under streaming the returned slot recycles,
                // so index by injection order instead.
                let id = if stream { plans.len() } else { slot };
                if plans.len() <= id {
                    plans.resize(id + 1, None);
                }
                plans[id] = Some(plan.clone());
            }
            Err(_) => dropped += 1,
        }
    }
    let quiesced = engine.run_to_quiescence();
    let mut completed: Vec<CompletedRecord> = Vec::new();
    if stream {
        // Exercise the zero-copy harvest path the streaming runner uses.
        engine.drain_completed(|c| {
            completed.push(CompletedRecord {
                id: c.id,
                latency_ns: c.completed_at - c.injected_at,
                deliveries: c.deliveries.clone(),
            })
        });
    } else {
        completed.extend(
            engine
                .take_completed()
                .into_iter()
                .map(|c| CompletedRecord {
                    id: c.id,
                    latency_ns: c.completed_at - c.injected_at,
                    deliveries: c.deliveries,
                }),
        );
    }
    completed.sort_by_key(|c| c.id);
    let trace = RunTrace {
        quiesced,
        finished_at: engine.now(),
        flit_hops: engine.flit_hops(),
        injected: plans.iter().filter(|p| p.is_some()).count(),
        dropped,
        completed,
        live: engine.live_message_ids(),
    };
    (trace, recording.take(), plans)
}

/// Runs the same schedule through the reference engine.
fn run_reference(wl: &Workload, topo: &TopoSpec) -> RunTrace {
    let built = topo.build();
    let mut engine = ReferenceEngine::new(
        Network::new(built.as_dyn(), wl.classes),
        SimConfig::default(),
    );
    engine.apply_fault_mask(&wl.mask);
    let mut injected = 0;
    let mut dropped = wl.planner_dropped;
    for (t, plan) in &wl.arrivals {
        engine.run_until(*t);
        match engine.inject_checked(plan) {
            Ok(_) => injected += 1,
            Err(_) => dropped += 1,
        }
    }
    let quiesced = engine.run_to_quiescence();
    let mut completed: Vec<CompletedRecord> = engine
        .take_completed()
        .into_iter()
        .map(|c| CompletedRecord {
            id: c.id,
            latency_ns: c.completed_at - c.injected_at,
            deliveries: c.deliveries,
        })
        .collect();
    completed.sort_by_key(|c| c.id);
    RunTrace {
        quiesced,
        finished_at: engine.now(),
        flit_hops: engine.flit_hops(),
        injected,
        dropped,
        completed,
        live: engine.live_messages(),
    }
}

/// Compares the two traces field by field, naming every divergence.
fn compare_traces(fast: &RunTrace, reference: &RunTrace) -> Vec<String> {
    let mut problems = Vec::new();
    if fast.quiesced != reference.quiesced {
        problems.push(format!(
            "quiescence disagrees: engine {} vs reference {}",
            fast.quiesced, reference.quiesced
        ));
    }
    if fast.finished_at != reference.finished_at {
        problems.push(format!(
            "quiescence time disagrees: engine {} vs reference {}",
            fast.finished_at, reference.finished_at
        ));
    }
    if fast.flit_hops != reference.flit_hops {
        problems.push(format!(
            "flit-hop totals disagree: engine {} vs reference {}",
            fast.flit_hops, reference.flit_hops
        ));
    }
    if (fast.injected, fast.dropped) != (reference.injected, reference.dropped) {
        problems.push(format!(
            "admission disagrees: engine {}/{} injected/dropped vs reference {}/{}",
            fast.injected, fast.dropped, reference.injected, reference.dropped
        ));
    }
    if fast.live != reference.live {
        problems.push(format!(
            "surviving sets disagree: engine {:?} vs reference {:?}",
            fast.live, reference.live
        ));
    }
    let ids = |t: &RunTrace| t.completed.iter().map(|c| c.id).collect::<Vec<_>>();
    if ids(fast) != ids(reference) {
        problems.push(format!(
            "delivery sets disagree: engine completed {:?} vs reference {:?}",
            ids(fast),
            ids(reference)
        ));
    } else {
        for (a, b) in fast.completed.iter().zip(&reference.completed) {
            if a.latency_ns != b.latency_ns {
                problems.push(format!(
                    "message {} latency disagrees: engine {} ns vs reference {} ns",
                    a.id, a.latency_ns, b.latency_ns
                ));
            } else if a.deliveries != b.deliveries {
                problems.push(format!(
                    "message {} delivery times disagree: engine {:?} vs reference {:?}",
                    a.id, a.deliveries, b.deliveries
                ));
            }
        }
    }
    problems
}

/// Engine-independent invariants, checked on the optimized engine's
/// event trace (the reference never sees these — they hold for *any*
/// correct wormhole engine).
fn check_invariants(
    topo: &TopoSpec,
    classes: u8,
    trace: &RunTrace,
    events: &[SimEvent],
    plans: &[Option<DeliveryPlan>],
) -> Vec<String> {
    let mut problems = Vec::new();
    let built = topo.build();
    let network = Network::new(built.as_dyn(), classes);
    let flits = SimConfig::default().flits_per_message();

    // Flit conservation: every admitted message either completed or is
    // still in flight (deadlocked); nothing vanishes.
    if trace.completed.len() + trace.live.len() != trace.injected {
        problems.push(format!(
            "flit conservation broken: {} completed + {} live != {} injected",
            trace.completed.len(),
            trace.live.len(),
            trace.injected
        ));
    }

    // Per-(message, channel) in-order flit delivery: flit indices run
    // 0, 1, 2, … per acquisition, never skipping or repeating.
    let mut last_flit: std::collections::HashMap<(MessageId, usize), u32> =
        std::collections::HashMap::new();
    for ev in events {
        if let SimEvent::FlitHop {
            channel,
            message,
            flit,
            ..
        } = *ev
        {
            let expected = match last_flit.get(&(message, channel)) {
                None => 0,
                Some(&prev) if prev + 1 == flits => 0, // re-acquisition
                Some(&prev) => prev + 1,
            };
            if flit != expected {
                problems.push(format!(
                    "out-of-order flit on channel {channel}: message {message} sent flit {flit}, expected {expected}"
                ));
                break;
            }
            last_flit.insert((message, channel), flit);
        }
    }

    // Channel-class containment: every acquired channel appears in the
    // owning message's plan with a compatible class choice.
    for ev in events {
        if let SimEvent::ChannelAcquired {
            channel, message, ..
        } = *ev
        {
            let c = network.channel(channel);
            let plan = plans.get(message).and_then(|p| p.as_ref());
            let allowed = plan.is_some_and(|plan| {
                plan_hops(plan).any(|(from, to, choice)| {
                    from == c.from
                        && to == c.to
                        && match choice {
                            ClassChoice::Any => true,
                            ClassChoice::Fixed(k) => k == c.class,
                        }
                })
            });
            if !allowed {
                problems.push(format!(
                    "message {message} acquired channel {channel} ({}->{} class {}) outside its claimed channel class",
                    c.from, c.to, c.class
                ));
                break;
            }
        }
    }

    // Dally & Seitz: an acyclic channel dependency graph rules out
    // deadlock, so a cyclic-free plan set must quiesce.
    if !trace.quiesced {
        if let Some(cdg) = plans_cdg(plans, classes) {
            if cdg.is_acyclic() {
                problems.push("deadlock despite an acyclic channel dependency graph".to_string());
            }
        }
    }
    problems
}

/// Iterates a plan's hops as `(from, to, class choice)`.
fn plan_hops(plan: &DeliveryPlan) -> impl Iterator<Item = (NodeId, NodeId, ClassChoice)> + '_ {
    plan.worms.iter().flat_map(|w| match w {
        PlanWorm::Path(p) | PlanWorm::Circuit(p) => p
            .nodes
            .windows(2)
            .map(|win| (win[0], win[1], p.class))
            .collect::<Vec<_>>(),
        PlanWorm::Staged(s) => s
            .path
            .nodes
            .windows(2)
            .map(|win| (win[0], win[1], s.path.class))
            .collect::<Vec<_>>(),
        PlanWorm::Tree(t) => t.edges.clone(),
    })
}

/// Builds the channel dependency graph of the injected plans, with the
/// worm-coupling over-approximation: path and circuit worms contribute
/// consecutive-hop dependencies, lock-step tree worms couple all their
/// channels pairwise (any held channel may wait on any unacquired one).
///
/// Class handling must project every *physical* channel to exactly one
/// CDG vertex: with a single class — or when every hop pins a `Fixed`
/// class — the projection is exact; otherwise `Any` hops make the
/// projection ambiguous and we return `None` (no claim either way).
fn plans_cdg(plans: &[Option<DeliveryPlan>], classes: u8) -> Option<ChannelDependencyGraph> {
    let plans: Vec<&DeliveryPlan> = plans.iter().flatten().collect();
    let exact = classes == 1
        || plans
            .iter()
            .all(|p| plan_hops(p).all(|(_, _, c)| matches!(c, ClassChoice::Fixed(_))));
    if !exact {
        return None;
    }
    let vertex = |from: NodeId, to: NodeId, choice: ClassChoice| match choice {
        ClassChoice::Fixed(k) => Channel::with_class(from, to, k),
        ClassChoice::Any => Channel::new(from, to),
    };
    let mut channels: Vec<Channel> = Vec::new();
    for p in &plans {
        for (from, to, choice) in plan_hops(p) {
            let v = vertex(from, to, choice);
            if !channels.contains(&v) {
                channels.push(v);
            }
        }
    }
    let mut cdg = ChannelDependencyGraph::new(channels);
    for p in &plans {
        for w in &p.worms {
            match w {
                // A held staged worm occupies no channel, so its only
                // channel-wait dependencies are the consecutive-hop
                // ones of its released path — exactly a path worm's.
                PlanWorm::Path(pp) | PlanWorm::Circuit(pp) => {
                    for win in pp.nodes.windows(3) {
                        cdg.add_dependency(
                            vertex(win[0], win[1], pp.class),
                            vertex(win[1], win[2], pp.class),
                        );
                    }
                }
                PlanWorm::Staged(st) => {
                    for win in st.path.nodes.windows(3) {
                        cdg.add_dependency(
                            vertex(win[0], win[1], st.path.class),
                            vertex(win[1], win[2], st.path.class),
                        );
                    }
                }
                PlanWorm::Tree(t) => {
                    for &(f1, t1, c1) in &t.edges {
                        for &(f2, t2, c2) in &t.edges {
                            let (a, b) = (vertex(f1, t1, c1), vertex(f2, t2, c2));
                            if a != b {
                                cdg.add_dependency(a, b);
                            }
                        }
                    }
                }
            }
        }
    }
    Some(cdg)
}

/// Checks one scenario end to end. An empty vector means the engines
/// agree and every invariant holds.
pub fn check_scenario(s: &VerifyScenario, chaos: bool) -> Result<Vec<String>, RegistryError> {
    let wl = derive_workload(s)?;
    let (fast, events, plans) = run_optimized(&wl, &s.topology, chaos, false);
    let reference = run_reference(&wl, &s.topology);
    let mut problems = compare_traces(&fast, &reference);
    if s.stream {
        // The streaming leg recycles message/worm slots internally, but
        // every externally visible output — trace AND the full event
        // stream — must match the non-streaming run bit for bit.
        let (st, st_events, _) = run_optimized(&wl, &s.topology, chaos, true);
        if st != fast {
            problems.push(format!(
                "streaming engine trace diverges from non-streaming: \
                 streamed {:?} vs plain {:?}",
                st, fast
            ));
        }
        if st_events != events {
            let first = st_events
                .iter()
                .zip(&events)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| st_events.len().min(events.len()));
            problems.push(format!(
                "streaming engine event stream diverges from non-streaming at event {first}: \
                 streamed {:?} vs plain {:?} ({} vs {} events total)",
                st_events.get(first),
                events.get(first),
                st_events.len(),
                events.len()
            ));
        }
    }
    problems.extend(check_invariants(
        &s.topology,
        wl.classes,
        &fast,
        &events,
        &plans,
    ));
    Ok(problems)
}

/// Greedily minimizes a failing scenario: each round tries the shrink
/// moves in order (fewer messages, no faults, fewer destinations,
/// smaller topology, lighter load) and keeps the first candidate that
/// still fails. Every accepted move strictly shrinks
/// [`VerifyScenario::size`], so the loop terminates.
pub fn shrink_scenario(s: &VerifyScenario, chaos: bool) -> VerifyScenario {
    let fails = |c: &VerifyScenario| matches!(check_scenario(c, chaos), Ok(p) if !p.is_empty());
    let mut cur = s.clone();
    loop {
        let mut advanced = false;
        for cand in shrink_candidates(&cur) {
            debug_assert!(cand.size() < cur.size(), "shrink step must shrink");
            if fails(&cand) {
                cur = cand;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return cur;
        }
    }
}

fn shrink_candidates(s: &VerifyScenario) -> Vec<VerifyScenario> {
    let mut out = Vec::new();
    let mut push = |c: VerifyScenario| {
        if c.size() < s.size() && !out.contains(&c) {
            out.push(c);
        }
    };
    if s.messages > 1 {
        push(VerifyScenario {
            messages: (s.messages / 2).max(1),
            ..s.clone()
        });
        push(VerifyScenario {
            messages: s.messages - 1,
            ..s.clone()
        });
    }
    if s.fault_rate > 0.0 {
        push(VerifyScenario {
            fault_rate: 0.0,
            ..s.clone()
        });
    }
    if s.stream {
        // Keep the streaming leg only when the bug needs it.
        push(VerifyScenario {
            stream: false,
            ..s.clone()
        });
    }
    if s.destinations > 1 {
        push(VerifyScenario {
            destinations: s.destinations / 2,
            ..s.clone()
        });
        push(VerifyScenario {
            destinations: s.destinations - 1,
            ..s.clone()
        });
    }
    for topo in shrink_topologies(&s.topology) {
        // The scheme must stay registered on the smaller network, and
        // the destination count in range.
        if schemes_for(&topo).contains(&s.scheme) && s.destinations < topo.num_nodes() {
            push(VerifyScenario {
                topology: topo,
                ..s.clone()
            });
        }
    }
    if s.load_us < 1000.0 {
        push(VerifyScenario {
            load_us: s.load_us * 4.0,
            ..s.clone()
        });
    }
    out
}

fn shrink_topologies(t: &TopoSpec) -> Vec<TopoSpec> {
    match *t {
        TopoSpec::Mesh2D { w, h } => {
            let mut v = Vec::new();
            if w > 2 {
                v.push(TopoSpec::Mesh2D { w: w - 1, h });
            }
            if h > 2 {
                v.push(TopoSpec::Mesh2D { w, h: h - 1 });
            }
            v
        }
        TopoSpec::Mesh3D { w, h, d } => {
            let mut v = Vec::new();
            if w > 2 {
                v.push(TopoSpec::Mesh3D { w: w - 1, h, d });
            }
            if h > 2 {
                v.push(TopoSpec::Mesh3D { w, h: h - 1, d });
            }
            if d > 2 {
                v.push(TopoSpec::Mesh3D { w, h, d: d - 1 });
            }
            v
        }
        TopoSpec::Hypercube { dim } if dim > 2 => vec![TopoSpec::Hypercube { dim: dim - 1 }],
        TopoSpec::Hypercube { .. } => Vec::new(),
        TopoSpec::KAryNCube { k, n, wraps } => {
            let mut v = Vec::new();
            if k > 2 {
                v.push(TopoSpec::KAryNCube { k: k - 1, n, wraps });
            }
            if n > 1 {
                v.push(TopoSpec::KAryNCube { k, n: n - 1, wraps });
            }
            v
        }
        // Custom graphs have no structural shrink axis — minimization
        // proceeds on the workload axes only.
        TopoSpec::Custom { .. } => Vec::new(),
    }
}

/// The topology pool the fuzzer cycles through — small enough that a
/// quick run stays fast, varied enough to reach every registered
/// scheme (2D/3D meshes, hypercubes, k-ary meshes and tori, plus
/// generator-form custom graphs whose seed is re-drawn per case by
/// [`scenario_for_case`] so a long run samples many irregular graphs).
pub const TOPOLOGY_POOL: &[&str] = &[
    "mesh:4x4",
    "mesh:5x3",
    "mesh:3x3x2",
    "cube:3",
    "cube:4",
    "kary:4x2",
    "torus:3x2",
    "custom:rand:10x3",
    "custom:lmesh:4x4x2",
];

/// Every (topology, scheme) pair the fuzzer covers: the pool crossed
/// with `schemes_for`. `mcast verify --cases K` walks these round-robin
/// so K ≥ the pair count covers the whole registry.
pub fn registry_pairs() -> Vec<(TopoSpec, SchemeId)> {
    TOPOLOGY_POOL
        .iter()
        .map(|t| TopoSpec::parse(t).expect("pool specs parse"))
        .flat_map(|topo| {
            schemes_for(&topo)
                .into_iter()
                .map(move |s| (topo.clone(), s))
        })
        .collect()
}

/// Draws the deterministic scenario for one case index: the (topology,
/// scheme) pair cycles through [`registry_pairs`] for coverage, the
/// remaining axes come from the case's own seeded RNG.
pub fn scenario_for_case(seed: u64, case: usize) -> VerifyScenario {
    let pairs = registry_pairs();
    let (topology, scheme) = pairs[case % pairs.len()].clone();
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case as u64),
    );
    let topology = reseed_custom(topology, &mut rng);
    let n = topology.num_nodes();
    let load_us = *[2.0, 10.0, 60.0]
        .get(rng.gen_range(0..3usize))
        .expect("load pool");
    let mut scenario = VerifyScenario {
        topology,
        scheme,
        pattern: if rng.gen_range(0..2u32) == 0 {
            PatternSpec::Uniform
        } else {
            PatternSpec::Hotspot
        },
        load_us,
        destinations: rng.gen_range(1..=6.min(n - 1)),
        messages: rng.gen_range(2..=20),
        fault_rate: if rng.gen_range(0..4u32) == 0 {
            0.08
        } else {
            0.0
        },
        seed: rng.gen_range(0..1u64 << 48),
        // Drawn after every pre-existing axis so case seeds keep
        // producing the workloads they always did; roughly a quarter of
        // cases run the streaming (slot-recycling) leg.
        stream: {
            // Retired engine-lane draw, kept so each seed keeps its workload, stream and pattern.
            rng.gen_range(0..8u32);
            rng.gen_range(0..4u32) == 0
        },
    };
    // Newest axis, drawn after every pre-existing one so earlier case
    // seeds keep producing the workloads they always did: roughly a
    // fifth of cases rewrite the drawn pattern to the bursty
    // application-phase pattern (alternating uniform and root-directed
    // phases).
    if rng.gen_range(0..5u32) == 0 {
        scenario.pattern = PatternSpec::Bursty;
    }
    scenario
}

/// Generator-form custom topologies (`rand:`/`lmesh:`/`ftree:` sources)
/// get a fresh per-case graph seed so the fuzzer samples a different
/// irregular graph each time the pool entry comes around, rather than
/// re-testing one fixed graph. The trailing `x<seed>` field of the
/// source is rewritten from the case RNG; node count is unaffected.
/// File-backed sources pass through untouched.
fn reseed_custom(topo: TopoSpec, rng: &mut StdRng) -> TopoSpec {
    let TopoSpec::Custom { ref source, .. } = topo else {
        return topo;
    };
    if !["rand:", "lmesh:", "ftree:"]
        .iter()
        .any(|p| source.starts_with(p))
    {
        return topo;
    }
    let Some((head, _)) = source.rsplit_once('x') else {
        return topo;
    };
    let reseeded = format!("custom:{head}x{}", rng.gen_range(0..1u64 << 16));
    TopoSpec::parse(&reseeded).expect("reseeded generator source parses")
}

/// One caught conformance failure, with its shrunk reproducer.
#[derive(Debug, Clone)]
pub struct VerifyFailure {
    /// The case index that failed.
    pub case: usize,
    /// The scenario as drawn.
    pub scenario: VerifyScenario,
    /// The divergences/violations found on the drawn scenario.
    pub problems: Vec<String>,
    /// The minimized scenario that still fails.
    pub shrunk: VerifyScenario,
    /// The divergences on the minimized scenario.
    pub shrunk_problems: Vec<String>,
}

impl VerifyFailure {
    /// The shrunk scenario as a checked-in-able reproducer spec (JSON
    /// via [`ExperimentSpec::to_json`]).
    pub fn reproducer_spec(&self) -> ExperimentSpec {
        self.shrunk.to_spec()
    }
}

/// What one `mcast verify` run produced.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Cases executed.
    pub cases: usize,
    /// Distinct (topology, scheme) pairs covered.
    pub pairs_covered: usize,
    /// Conformance failures, shrunk. Empty = the engines conform.
    pub failures: Vec<VerifyFailure>,
}

/// Runs `cases` differential cases from `seed`, shrinking every
/// failure. `chaos` turns on the optimized engine's test-only
/// swapped-class bug — the harness's own self-test (it must then
/// report failures).
pub fn run_verify(seed: u64, cases: usize, chaos: bool) -> Result<VerifyReport, RegistryError> {
    let pair_count = registry_pairs().len();
    let mut failures = Vec::new();
    for case in 0..cases {
        // The first few failures shrink and report; past that, more of
        // the same signal isn't worth the shrink cost.
        if failures.len() >= 4 {
            break;
        }
        let scenario = scenario_for_case(seed, case);
        let problems = check_scenario(&scenario, chaos)?;
        if !problems.is_empty() {
            let shrunk = shrink_scenario(&scenario, chaos);
            let shrunk_problems = check_scenario(&shrunk, chaos)?;
            failures.push(VerifyFailure {
                case,
                scenario,
                problems,
                shrunk,
                shrunk_problems,
            });
        }
    }
    Ok(VerifyReport {
        cases,
        pairs_covered: pair_count.min(cases),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_spec_round_trip() {
        let s = scenario_for_case(42, 5);
        let spec = s.to_spec();
        spec.validate().expect("reproducer specs validate");
        let back = VerifyScenario::from_spec(&spec).unwrap();
        assert_eq!(back, s);
        let reparsed = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(VerifyScenario::from_spec(&reparsed).unwrap(), s);
    }

    #[test]
    fn registry_pairs_cover_every_simulable_scheme() {
        let pairs = registry_pairs();
        for info in mcast_sim::registry::SCHEMES.iter().filter(|i| i.simulable) {
            assert!(
                pairs.iter().any(|(_, s)| s.name == info.name),
                "scheme {} unreachable from the topology pool",
                info.name
            );
        }
    }

    #[test]
    fn quick_sample_of_cases_conforms() {
        // A fast smoke: one case per pool topology. The full sweep is
        // `mcast verify` / tests/conformance.rs.
        for case in 0..6 {
            let s = scenario_for_case(1, case * 7);
            let problems = check_scenario(&s, false).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(problems.is_empty(), "case {case} ({s}): {problems:?}");
        }
    }

    #[test]
    fn streaming_leg_conforms_on_sampled_cases() {
        // Force the streaming leg on a handful of drawn cases
        // regardless of what the case RNG rolled.
        for case in 0..4 {
            let mut s = scenario_for_case(13, case * 3);
            s.stream = true;
            let problems = check_scenario(&s, false).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(problems.is_empty(), "case {case} ({s}): {problems:?}");
        }
    }

    #[test]
    fn stream_axis_round_trips_through_reproducer_spec() {
        let mut s = scenario_for_case(42, 5);
        s.stream = true;
        let spec = s.to_spec();
        spec.validate().expect("streamed reproducer validates");
        assert_eq!(VerifyScenario::from_spec(&spec).unwrap(), s);
        let reparsed = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(VerifyScenario::from_spec(&reparsed).unwrap(), s);
    }

    #[test]
    fn chaos_class_swap_is_caught_and_shrinks_small() {
        // The acceptance gate: the injected swapped-class bug must be
        // detected and shrink to a reproducer of at most 4 messages.
        // dc-tree pins Fixed classes on a 2-class network, so the
        // class-containment invariant must fire.
        let s = VerifyScenario {
            topology: TopoSpec::parse("mesh:4x4").unwrap(),
            scheme: SchemeId::named("dc-tree"),
            pattern: PatternSpec::Uniform,
            load_us: 10.0,
            destinations: 4,
            messages: 12,
            seed: 3,
            fault_rate: 0.0,
            stream: false,
        };
        let problems = check_scenario(&s, true).unwrap();
        assert!(!problems.is_empty(), "chaos run must fail conformance");
        let shrunk = shrink_scenario(&s, true);
        assert!(
            shrunk.messages <= 4,
            "shrunk to {} messages",
            shrunk.messages
        );
        let spec = shrunk.to_spec();
        spec.validate().expect("reproducer validates");
        assert!(!check_scenario(&shrunk, true).unwrap().is_empty());
        // And the same scenario passes with the bug off.
        assert!(check_scenario(&s, false).unwrap().is_empty());
    }
}

#[cfg(test)]
mod custom_pool_tests {
    use super::*;

    #[test]
    fn nightly_case_budget_samples_enough_distinct_graphs() {
        // The nightly CI job runs 4096 cases; the generator-form custom
        // pool entries are reseeded per case, and the acceptance bar is
        // that a night samples at least 256 *distinct* random irregular
        // graphs through the conformance oracle.
        let custom_pairs = registry_pairs()
            .iter()
            .filter(|(t, _)| matches!(t, TopoSpec::Custom { .. }))
            .count();
        assert!(custom_pairs >= 2, "custom pool entries missing");
        let mut distinct = std::collections::HashSet::new();
        for case in 0..4096 {
            let s = scenario_for_case(1, case);
            if let TopoSpec::Custom { source, .. } = &s.topology {
                distinct.insert(source.clone());
            }
        }
        assert!(
            distinct.len() >= 256,
            "only {} distinct custom graphs in 4096 cases",
            distinct.len()
        );
    }

    #[test]
    fn nightly_case_budget_covers_every_modern_scheme() {
        // Same nightly budget, second acceptance bar: the round-robin
        // pair cycle must put each modern competitor scheme (DPM and
        // the software collectives) through the oracle at least 256
        // times a night, and the bursty phase pattern must show up as
        // a meaningful axis alongside them.
        let modern = ["dpm", "binomial", "recursive-doubling", "binomial-reliable"];
        let mut per_scheme = std::collections::HashMap::new();
        let mut bursty = 0usize;
        for case in 0..4096 {
            let s = scenario_for_case(1, case);
            *per_scheme.entry(s.scheme.name.clone()).or_insert(0usize) += 1;
            if s.pattern == PatternSpec::Bursty {
                bursty += 1;
            }
        }
        for name in modern {
            let n = per_scheme.get(name).copied().unwrap_or(0);
            assert!(
                n >= 256,
                "only {n} of 4096 nightly cases draw scheme {name}"
            );
        }
        // The draw targets 1/5 of cases; require half the expectation.
        assert!(
            bursty >= 409,
            "only {bursty} of 4096 nightly cases use the bursty pattern"
        );
    }

    fn ceil_log2(n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }

    #[test]
    fn collective_plans_deliver_exactly_once_within_log_rounds() {
        // The software-collective property, checked on every pool
        // topology: each destination is the endpoint of exactly one
        // unicast send, and the staged dependency chains are no deeper
        // than ⌈log₂ ranks⌉ rounds.
        use mcast_sim::registry::build_router;
        for topo in TOPOLOGY_POOL {
            let spec = TopoSpec::parse(topo).unwrap();
            let n = spec.num_nodes();
            for name in ["binomial", "recursive-doubling", "binomial-reliable"] {
                let router = build_router(&spec, &SchemeId::named(name))
                    .unwrap_or_else(|e| panic!("{name} on {topo}: {e}"));
                let mut gen = MulticastGen::new(n, 0xC0FFEE);
                for _ in 0..8 {
                    let source = gen.source();
                    let mc = gen.multicast_distinct(source, 6.min(n - 1));
                    let plan = router.plan(&mc);
                    let ranks = 1 + plan
                        .destinations
                        .iter()
                        .filter(|&&d| d != source)
                        .collect::<std::collections::HashSet<_>>()
                        .len();
                    let mut depth = vec![0usize; plan.worms.len()];
                    let mut recv_count: std::collections::HashMap<NodeId, usize> =
                        std::collections::HashMap::new();
                    for (i, w) in plan.worms.iter().enumerate() {
                        let path = match w {
                            PlanWorm::Path(p) => p,
                            PlanWorm::Staged(s) => {
                                depth[i] = 1 + s
                                    .after
                                    .iter()
                                    .map(|&a| depth[a as usize])
                                    .max()
                                    .expect("staged worms have feeders");
                                &s.path
                            }
                            _ => panic!("{name} plans are unicast paths"),
                        };
                        *recv_count.entry(*path.nodes.last().unwrap()).or_insert(0) += 1;
                    }
                    let rounds = 1 + depth.iter().copied().max().unwrap_or(0);
                    assert!(
                        rounds <= ceil_log2(ranks).max(1),
                        "{name} on {topo}: {rounds} rounds for {ranks} ranks"
                    );
                    for d in &plan.destinations {
                        assert_eq!(
                            recv_count.get(d),
                            Some(&1),
                            "{name} on {topo}: destination {d} not delivered exactly once"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn modern_schemes_conform_under_streaming() {
        // Pinned bit-identity check for the modern competitor schemes:
        // on each, the streaming (slot-recycling) leg must reproduce
        // the non-streaming event stream bit for bit, under the bursty
        // phase pattern.
        for name in ["dpm", "binomial", "recursive-doubling", "binomial-reliable"] {
            for topo in ["mesh:5x3", "cube:3"] {
                let s = VerifyScenario {
                    topology: TopoSpec::parse(topo).unwrap(),
                    scheme: SchemeId::named(name),
                    pattern: PatternSpec::Bursty,
                    load_us: 10.0,
                    destinations: 5,
                    messages: 12,
                    seed: 99,
                    fault_rate: 0.0,
                    stream: true,
                };
                let problems = check_scenario(&s, false).unwrap_or_else(|e| panic!("{s}: {e}"));
                assert!(problems.is_empty(), "{s}: {problems:?}");
            }
        }
    }

    #[test]
    fn modern_scheme_deadlock_claims_hold_on_every_pool_topology() {
        // Registry exhaustiveness: every pool topology offers all four
        // modern schemes. And wherever `scheme_deadlock_free` claims
        // deadlock freedom, the channel dependency graph of a sampled
        // plan set must be acyclic (Dally & Seitz); on wraparound tori
        // no such claim may be made.
        use mcast_sim::registry::{build_router, scheme_deadlock_free};
        let modern = ["dpm", "binomial", "recursive-doubling", "binomial-reliable"];
        for topo in TOPOLOGY_POOL {
            let spec = TopoSpec::parse(topo).unwrap();
            let schemes = schemes_for(&spec);
            for name in modern {
                assert!(
                    schemes.iter().any(|s| s.name == name),
                    "{name} missing from schemes_for({topo})"
                );
            }
            let n = spec.num_nodes();
            for name in modern {
                if !scheme_deadlock_free(&spec, name) {
                    assert!(
                        matches!(spec, TopoSpec::KAryNCube { wraps: true, .. }),
                        "{name} on {topo}: deadlock freedom only waived on wraparound tori"
                    );
                    continue;
                }
                let router = build_router(&spec, &SchemeId::named(name)).unwrap();
                let classes = router.required_classes();
                let mut gen = MulticastGen::new(n, 0xD06);
                let plans: Vec<Option<DeliveryPlan>> = (0..10)
                    .map(|_| {
                        let source = gen.source();
                        Some(router.plan(&gen.multicast_distinct(source, 5.min(n - 1))))
                    })
                    .collect();
                let cdg = plans_cdg(&plans, classes)
                    .unwrap_or_else(|| panic!("{name} on {topo}: CDG projection inexact"));
                assert!(
                    cdg.is_acyclic(),
                    "{name} on {topo}: cyclic channel dependency graph despite deadlock-free claim"
                );
            }
        }
    }
}
