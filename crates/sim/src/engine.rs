//! The flit-level discrete-event wormhole engine (the CSIM substitute).
//!
//! Mechanics (DESIGN.md §5):
//!
//! * a message is one or more *worms*; each worm claims a fixed set of
//!   channels (its plan) as its header advances;
//! * channels are granted whole-worm-exclusive, FIFO per channel; a
//!   blocked header waits in the queue while the worm's flits stay in the
//!   network (wormhole, not virtual cut-through);
//! * each node buffers at most `buffer_flits` flits per worm (single-flit
//!   input buffers by default), so a blocked header exerts backpressure
//!   up the worm;
//! * tree worms replicate flits at branch nodes; a flit is retained until
//!   *every* branch has taken it, and no flit flows through a branch node
//!   until the worm owns *all* of that node's branch channels — the
//!   lock-step, all-channels-before-transmission behaviour of §6.1 that
//!   makes undoubled tree multicast deadlock;
//! * a flit takes `flit_time` to cross a channel; header flits pay an
//!   extra `routing_delay` (the per-node routing decision);
//! * a destination has fully received the message when the tail flit
//!   crosses its incoming channel; message latency is measured to the
//!   last destination.

use std::collections::{BTreeSet, VecDeque};

use mcast_obs::{SimEvent, Sink};
use mcast_topology::{FaultMask, NodeId};

use crate::equeue::EventQueue;
use crate::error::SimError;
use crate::network::{ChannelId, Network};
use crate::plan::{ClassChoice, DeliveryPlan, PlanWorm};

/// Simulated time in nanoseconds.
pub type Time = u64;

/// Message id handed back by [`Engine::inject`].
pub type MessageId = usize;

/// Physical parameters of the simulated machine (§7.2 defaults: 20
/// Mbyte/s channels, 128-byte messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Flit width in bytes (per-flit channel transfer granularity).
    pub flit_bytes: u32,
    /// Channel bandwidth in bytes per second.
    pub channel_bandwidth: u64,
    /// Extra delay charged to the header flit at every hop (routing
    /// decision time).
    pub routing_delay_ns: u64,
    /// Input-buffer capacity per channel, in flits.
    pub buffer_flits: u32,
    /// Message payload size in bytes.
    pub message_bytes: u32,
    /// Per-hop circuit-establishment time for circuit-switched worms
    /// (control packet transfer + routing decision, §2.2.3).
    pub circuit_setup_ns: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            flit_bytes: 8,
            channel_bandwidth: 20_000_000,
            routing_delay_ns: 50,
            buffer_flits: 1,
            message_bytes: 128,
            // 8-byte control packet at 20 Mbyte/s plus the routing delay.
            circuit_setup_ns: 450,
        }
    }
}

impl SimConfig {
    /// Time for one flit to cross a channel, in nanoseconds.
    pub fn flit_time_ns(&self) -> Time {
        (self.flit_bytes as u64 * 1_000_000_000).div_ceil(self.channel_bandwidth)
    }

    /// Flits per message: payload plus one header flit.
    pub fn flits_per_message(&self) -> u32 {
        self.message_bytes.div_ceil(self.flit_bytes) + 1
    }
}

/// A finished multicast delivery.
#[derive(Debug, Clone)]
pub struct CompletedMessage {
    /// Message id.
    pub id: MessageId,
    /// Source node.
    pub source: NodeId,
    /// Injection time (when the message entered the source queue).
    pub injected_at: Time,
    /// Time the last destination finished receiving.
    pub completed_at: Time,
    /// Per-destination completion times (plan order).
    pub deliveries: Vec<(NodeId, Time)>,
    /// Channels the message claimed (its traffic).
    pub traffic: usize,
}

/// The remains of a message torn out of the network by
/// [`Engine::abort_message`] — what the recovery layer needs to decide
/// whether and how to retry.
#[derive(Debug, Clone)]
pub struct AbortedMessage {
    /// Message id.
    pub id: MessageId,
    /// Source node.
    pub source: NodeId,
    /// Injection time.
    pub injected_at: Time,
    /// Destinations that finished receiving before the abort.
    pub delivered: Vec<(NodeId, Time)>,
    /// Destinations still undelivered — the retry set.
    pub pending: Vec<NodeId>,
    /// Channels the plan claimed (its traffic).
    pub traffic: usize,
}

#[derive(Debug, Default)]
pub(crate) struct ChanState {
    pub(crate) owner: Option<(usize, usize)>,
    pub(crate) queue: VecDeque<(usize, usize)>,
}

/// One edge of a worm. Flat (no per-edge heap allocation): child and
/// group membership live in per-worm index arenas.
#[derive(Debug, Clone)]
pub(crate) struct EdgeState {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) class: ClassChoice,
    /// Edge feeding this one (`None` = fed directly by the source).
    pub(crate) upstream: Option<u32>,
    /// Start of this edge's slice of the worm's `children` arena.
    pub(crate) child_start: u32,
    /// Number of edges fed by this edge's head node.
    pub(crate) child_count: u32,
    /// Branch group this edge belongs to (siblings sharing a feed node).
    pub(crate) group: u32,
    /// First candidate channel id for this hop, resolved at worm-build
    /// time (class copies of a link have consecutive ids). The cascade
    /// never consults the network topology after build.
    pub(crate) cand_base: ChannelId,
    /// Number of candidate class copies (1 for `ClassChoice::Fixed`).
    pub(crate) cand_count: u32,
    /// Class-independent link id (`link_base` of the hop) — the
    /// conflict-clustering key for window-parallel execution.
    pub(crate) link_key: ChannelId,
    /// Channel granted to this edge.
    pub(crate) channel: Option<ChannelId>,
    /// Whether a channel request is pending in some queue.
    pub(crate) waiting: bool,
    /// The channel whose queue holds this edge's pending request —
    /// `Some` exactly while `waiting` (stuck diagnostics + abort scrub).
    pub(crate) queued_on: Option<ChannelId>,
    /// Flits that have fully crossed this edge.
    pub(crate) crossed: u32,
    /// Transfer in progress.
    pub(crate) busy: bool,
    /// Tail has crossed and the channel was released.
    pub(crate) done: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupState {
    /// Start of this group's slice of the worm's `group_members` arena.
    pub(crate) start: u32,
    pub(crate) members: u32,
    pub(crate) owned: u32,
}

/// How a worm moves its flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WormKind {
    /// Pipelined wormhole path.
    Path,
    /// Lock-step replicated tree.
    Tree,
    /// Circuit-switched path: reserve the whole circuit before streaming.
    Circuit,
}

#[derive(Debug)]
pub(crate) struct WormState {
    pub(crate) message: MessageId,
    pub(crate) kind: WormKind,
    pub(crate) edges: Vec<EdgeState>,
    pub(crate) groups: Vec<GroupState>,
    /// Child-edge arena: edge `e` feeds
    /// `children[e.child_start..e.child_start + e.child_count]`.
    pub(crate) children: Vec<u32>,
    /// Group-member arena: group `g` owns
    /// `group_members[g.start..g.start + g.members]`, ascending by edge
    /// index. Immutable for the worm's lifetime once built.
    pub(crate) group_members: Vec<u32>,
    pub(crate) edges_done: usize,
    pub(crate) active: bool,
    /// Incarnation counter for this worm *slot*: bumped on abort so
    /// events scheduled for a torn-down worm are recognized as stale
    /// after the slot is reused (events carry the gen they were
    /// scheduled under).
    pub(crate) gen: u32,
    /// Set when a channel request found every copy of a hop dead — the
    /// worm can never advance and needs recovery-layer intervention.
    pub(crate) stalled: bool,
    /// Staged worms: number of same-plan feeder worms that must complete
    /// before this worm requests its first channel. Zero for every other
    /// kind, and for a staged worm once released.
    pub(crate) deps_pending: u32,
    /// Worm slots (with their injection-time `gen`) released in-cascade
    /// by this worm's completion event.
    pub(crate) dependents: Vec<(u32, u32)>,
}

impl WormState {
    /// An inactive placeholder; `build_worm` fills slots in place so a
    /// reused slot keeps its vec capacities (and its `gen`). Also the
    /// stand-in left behind while window-parallel execution has a
    /// worm's state checked out into a component (`partition.rs`).
    pub(crate) fn vacant() -> Self {
        WormState {
            message: 0,
            kind: WormKind::Path,
            edges: Vec::new(),
            groups: Vec::new(),
            children: Vec::new(),
            group_members: Vec::new(),
            edges_done: 0,
            active: false,
            gen: 0,
            stalled: false,
            deps_pending: 0,
            dependents: Vec::new(),
        }
    }
}

/// Per-destination delivery slots. Single-destination unicasts — the
/// bulk of a mixed workload — keep theirs inline instead of paying a
/// heap allocation per message. `pub(crate)` so the window-parallel
/// executor can buffer retired slots for canonical-order replay.
#[derive(Debug)]
pub(crate) enum Deliveries {
    One((NodeId, Option<Time>)),
    Many(Vec<(NodeId, Option<Time>)>),
}

impl Deliveries {
    fn new(destinations: &[NodeId]) -> Self {
        match destinations {
            &[d] => Deliveries::One((d, None)),
            ds => Deliveries::Many(ds.iter().map(|&d| (d, None)).collect()),
        }
    }

    fn slots(&self) -> &[(NodeId, Option<Time>)] {
        match self {
            Deliveries::One(s) => std::slice::from_ref(s),
            Deliveries::Many(v) => v,
        }
    }

    fn slots_mut(&mut self) -> &mut [(NodeId, Option<Time>)] {
        match self {
            Deliveries::One(s) => std::slice::from_mut(s),
            Deliveries::Many(v) => v,
        }
    }
}

#[derive(Debug)]
pub(crate) struct MessageState {
    id: MessageId,
    source: NodeId,
    injected_at: Time,
    deliveries: Deliveries,
    worms_total: usize,
    worms_done: usize,
    traffic: usize,
    /// Deliveries recorded so far.
    delivered_count: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    TransferComplete {
        worm: u32,
        edge: u32,
        gen: u32,
    },
    /// Deferred channel request (circuit establishment chaining).
    RequestChannel {
        worm: u32,
        edge: u32,
        gen: u32,
    },
}

/// A cooperative execution budget shared by every engine a job drives
/// (DESIGN.md §13). The budget is `Arc`-backed so a sweep spanning many
/// engine instances charges one shared step account, and so a
/// supervisor thread can cancel a runaway simulation from outside —
/// the engine's run loops poll [`RunBudget::exhausted`] between events
/// and stop cleanly instead of wedging.
///
/// Engines without a budget installed pay nothing: the hot path only
/// checks an `Option` that is `None` by default.
#[derive(Debug, Clone)]
pub struct RunBudget {
    inner: std::sync::Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    /// Step ceiling across every engine charging this budget
    /// (`u64::MAX` = unlimited).
    max_steps: u64,
    /// Steps charged so far.
    steps: std::sync::atomic::AtomicU64,
    /// Asynchronous cancellation (deadline supervisor, shutdown).
    cancel: std::sync::atomic::AtomicBool,
}

impl RunBudget {
    /// A budget with no step ceiling (cancellation only).
    pub fn unlimited() -> Self {
        Self::with_max_steps(u64::MAX)
    }

    /// A budget that exhausts after `max_steps` engine events across
    /// all engines charging it.
    pub fn with_max_steps(max_steps: u64) -> Self {
        RunBudget {
            inner: std::sync::Arc::new(BudgetInner {
                max_steps,
                steps: std::sync::atomic::AtomicU64::new(0),
                cancel: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Requests cancellation: every engine polling this budget stops at
    /// its next event boundary.
    pub fn cancel(&self) {
        self.inner
            .cancel
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether [`RunBudget::cancel`] was called.
    pub fn cancelled(&self) -> bool {
        self.inner.cancel.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Steps charged so far.
    pub fn steps_spent(&self) -> u64 {
        self.inner.steps.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether the budget is spent or cancelled.
    pub fn exhausted(&self) -> bool {
        self.cancelled() || self.steps_spent() >= self.inner.max_steps
    }

    /// Charges `n` steps and reports whether the budget is now
    /// exhausted (spent or cancelled).
    fn charge(&self, n: u64) -> bool {
        let prev = self
            .inner
            .steps
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        prev + n >= self.inner.max_steps || self.cancelled()
    }
}

/// The discrete-event wormhole simulator.
///
/// ```
/// use mcast_core::model::MulticastSet;
/// use mcast_sim::engine::{Engine, SimConfig};
/// use mcast_sim::network::Network;
/// use mcast_sim::routers::{DualPathRouter, MulticastRouter};
/// use mcast_topology::Mesh2D;
///
/// let mesh = Mesh2D::new(4, 4);
/// let router = DualPathRouter::mesh(mesh);
/// let mut engine = Engine::new(Network::new(&mesh, 1), SimConfig::default());
/// engine.inject(&router.plan(&MulticastSet::new(0, [15, 3, 12])));
/// assert!(engine.run_to_quiescence());
/// let done = engine.take_completed();
/// assert_eq!(done[0].deliveries.len(), 3);
/// ```
pub struct Engine {
    config: SimConfig,
    pub(crate) network: Network,
    pub(crate) channels: Vec<ChanState>,
    pub(crate) worms: Vec<WormState>,
    pub(crate) worm_free: Vec<usize>,
    pub(crate) messages: Vec<Option<MessageState>>,
    pub(crate) completed: Vec<CompletedMessage>,
    /// Calendar/bucket queue keyed on flit-time granularity, with a heap
    /// fallback for far-future events (DESIGN.md §10).
    pub(crate) events: EventQueue<Event>,
    pub(crate) now: Time,
    pub(crate) in_flight: usize,
    /// Events processed by this engine instance (the machine-insensitive
    /// work metric the BENCH probes report).
    pub(crate) steps: u64,
    /// Optional cooperative budget; `None` (the default) keeps the run
    /// loops budget-free.
    budget: Option<RunBudget>,
    /// Latched the first time the installed budget reported exhaustion.
    budget_hit: bool,
    next_message_id: MessageId,
    /// Streaming mode (DESIGN.md §16): retired message *slots* are
    /// recycled through `msg_free`, so `messages` stays bounded by the
    /// in-flight high-water mark instead of growing O(total injected).
    /// Off by default — then slot == external id and every result is
    /// byte-identical to the pre-streaming engine.
    stream: bool,
    /// Free message slots (streaming mode only; mirrors `worm_free`).
    msg_free: Vec<usize>,
    /// Recycled `Deliveries::Many` buffers (streaming mode only).
    spare_slots: Vec<Vec<(NodeId, Option<Time>)>>,
    /// Recycled `CompletedMessage::deliveries` buffers, refilled by
    /// [`Engine::drain_completed`] (streaming mode only).
    spare_done: Vec<Vec<(NodeId, Time)>>,
    /// High-water mark of live worm slots — the memory gauge proving a
    /// streaming run's footprint tracks in-flight traffic, not message
    /// count. Updated at worm build (injection happens between run
    /// calls, so the gauge is engine-jobs independent).
    peak_live_worms: usize,
    /// High-water mark of in-flight messages.
    peak_in_flight: usize,
    flit_time: Time,
    flits: u32,
    /// Cumulative transfer time per channel (utilization accounting).
    pub(crate) busy_ns: Vec<Time>,
    /// Total flit hops started (one per channel traversal of one flit) —
    /// the simulator's throughput denominator, counted unconditionally so
    /// benchmarks don't need a sink installed to read it.
    pub(crate) flit_hops: u64,
    /// Channel whose grant/release history is traced to stderr (debug aid,
    /// set from the `MCAST_TRACE_CHAN` environment variable).
    trace_chan: Option<ChannelId>,
    /// Test-only injected bug (DESIGN.md §12): when set, the channel-class
    /// check is swapped — `ClassChoice::Fixed(c)` resolves to the mirrored
    /// class `classes - 1 - c`. Exists so the conformance harness can
    /// prove it catches a real engine defect; never set in production.
    chaos_swap_class: bool,
    /// Optional observability sink (DESIGN.md §9). `None` — the default —
    /// skips event construction entirely, keeping the uninstrumented hot
    /// path unchanged.
    sink: Option<Box<dyn Sink>>,
    /// Worm-build scratch: node → edge feeding it (`u32::MAX` = none).
    /// Sized to the node count; touched entries are reset after each
    /// build so no per-message map allocation happens.
    scratch_feeder: Vec<u32>,
    /// Worm-build scratch: group keys and arena cursors.
    scratch_idx: Vec<u32>,
    /// Inject scratch: plan-index → worm-slot map for wiring staged
    /// dependencies without a per-inject allocation.
    scratch_slots: Vec<u32>,
    /// Window-parallel executor (DESIGN.md §15): `Some` routes
    /// `run_until`/`run_to_quiescence` through the deterministic
    /// window-cohort path in `partition.rs`; `None` (the default) is
    /// the untouched serial event loop. All executor state is scratch —
    /// between windows the engine fields are the only authority, so
    /// `step()`-level callers (the recovery supervisor, saturation
    /// probes) interoperate freely with windowed runs.
    pub(crate) par: Option<crate::partition::ParallelExec>,
}

impl Engine {
    /// Creates an engine over a network with the given physical
    /// parameters.
    pub fn new(network: Network, config: SimConfig) -> Self {
        let channels = (0..network.num_channels())
            .map(|_| ChanState::default())
            .collect();
        Engine {
            flit_time: config.flit_time_ns(),
            flits: config.flits_per_message(),
            busy_ns: vec![0; network.num_channels()],
            flit_hops: 0,
            trace_chan: std::env::var("MCAST_TRACE_CHAN")
                .ok()
                .and_then(|v| v.parse().ok()),
            chaos_swap_class: false,
            events: EventQueue::new(config.flit_time_ns()),
            scratch_feeder: vec![u32::MAX; network.num_nodes()],
            scratch_idx: Vec::new(),
            scratch_slots: Vec::new(),
            config,
            network,
            channels,
            worms: Vec::new(),
            worm_free: Vec::new(),
            messages: Vec::new(),
            completed: Vec::new(),
            now: 0,
            in_flight: 0,
            steps: 0,
            budget: None,
            budget_hit: false,
            next_message_id: 0,
            stream: false,
            msg_free: Vec::new(),
            spare_slots: Vec::new(),
            spare_done: Vec::new(),
            peak_live_worms: 0,
            peak_in_flight: 0,
            sink: None,
            par: None,
        }
    }

    /// Sets the number of worker lanes for single-run parallelism
    /// (DESIGN.md §15). `1` (the default) is the plain serial event
    /// loop; `N > 1` routes `run_until`/`run_to_quiescence` through the
    /// deterministic window-cohort executor, whose output is
    /// bit-identical to serial. `MCAST_TRACE_CHAN` tracing needs the
    /// serial interleaving to be readable, so it forces jobs back to 1.
    pub fn set_engine_jobs(&mut self, jobs: usize) {
        if jobs <= 1 || self.trace_chan.is_some() {
            self.par = None;
        } else {
            self.par = Some(crate::partition::ParallelExec::new(jobs));
        }
    }

    /// Worker lanes the run loops will use (1 = serial path).
    pub fn engine_jobs(&self) -> usize {
        self.par.as_ref().map_or(1, |p| p.jobs())
    }

    /// Exact work counters of the window-parallel executor since it
    /// was installed: windows, inline vs pooled windows, conflict
    /// components, lane tasks and pooled events (DESIGN.md §15). All
    /// zero on a serial engine.
    pub fn window_stats(&self) -> crate::partition::WindowStats {
        self.par.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Test hook: install the window-cohort executor even for `jobs <=
    /// 1`, so the windowed path (cohort collection, conflict
    /// clustering, take/merge) is exercised without needing spare
    /// cores. Production callers use [`Engine::set_engine_jobs`].
    #[doc(hidden)]
    pub fn set_engine_jobs_forced(&mut self, jobs: usize) {
        self.par = Some(crate::partition::ParallelExec::forced(jobs.max(1)));
    }

    /// Installs a cooperative [`RunBudget`]: the run loops charge one
    /// step per processed event and stop at the next event boundary
    /// once the budget is spent or cancelled. Check
    /// [`Engine::budget_exhausted`] after a run loop returns to
    /// distinguish a budget stop from quiescence.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = Some(budget);
    }

    /// Whether an installed budget stopped a run loop (spent or
    /// cancelled). Always `false` without a budget.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_hit
    }

    /// Events processed by this engine so far — an environment-
    /// insensitive work metric (identical across machines for the same
    /// seed, unlike wall-clock).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Charges one step to the installed budget (if any); returns
    /// `true` when the run loop should stop. `pub(crate)`: the windowed
    /// executor charges per popped event, exactly like the serial loop.
    #[inline]
    pub(crate) fn charge_budget(&mut self) -> bool {
        if let Some(b) = &self.budget {
            if self.budget_hit || b.charge(1) {
                self.budget_hit = true;
                return true;
            }
        }
        false
    }

    /// Installs an observability sink; subsequent simulation activity is
    /// emitted as [`SimEvent`]s. Sinks observe only — installing one must
    /// not change any simulation result (enforced by the determinism
    /// property tests in the workspace root).
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn Sink>> {
        self.sink.take()
    }

    /// Test-only fault injection for the conformance harness: swaps the
    /// channel-class check so `ClassChoice::Fixed(c)` resolves to the
    /// mirrored class `classes - 1 - c`. The differential fuzzer
    /// (DESIGN.md §12) must detect this as a class-containment
    /// violation and shrink it to a minimal reproducer. Class
    /// resolution happens at worm-build time, so arm this **before**
    /// injecting. Never enable outside verification tests.
    #[doc(hidden)]
    pub fn set_chaos_swap_class(&mut self, on: bool) {
        self.chaos_swap_class = on;
    }

    /// Emits one event into the sink, if one is installed. `pub(crate)`
    /// so the recovery supervisor can emit through its wrapped engine.
    #[inline]
    pub(crate) fn emit(&mut self, ev: SimEvent) {
        if let Some(s) = self.sink.as_mut() {
            s.record(&ev);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The physical configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The network fabric.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Messages injected but not yet fully delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total flit hops simulated so far (each flit crossing each channel
    /// counts once — the same quantity a [`Sink`] sees as `FlitHop`
    /// events, but available without instrumentation overhead).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Drains the list of completed messages.
    pub fn take_completed(&mut self) -> Vec<CompletedMessage> {
        std::mem::take(&mut self.completed)
    }

    /// Visits and discards every completed message without surrendering
    /// the backing storage: the batch vec keeps its capacity and, in
    /// streaming mode, each message's `deliveries` vec returns to the
    /// engine's spare pool for the next injection — the O(in-flight)
    /// alternative to [`Engine::take_completed`]'s per-harvest
    /// allocation (DESIGN.md §16).
    pub fn drain_completed(&mut self, mut f: impl FnMut(&CompletedMessage)) {
        let mut batch = std::mem::take(&mut self.completed);
        for done in batch.drain(..) {
            f(&done);
            if self.stream {
                let mut v = done.deliveries;
                v.clear();
                self.spare_done.push(v);
            }
        }
        self.completed = batch;
    }

    /// Enables or disables streaming (slot-recycling) injection. Must
    /// be set before the first injection: in streaming mode message
    /// slots are reused after retirement, so externally reported ids
    /// (sink events, [`CompletedMessage::id`]) stay monotone while the
    /// handles returned by [`Engine::inject`] and accepted by
    /// [`Engine::abort_message`]/[`Engine::delivery_status`] denote
    /// *live* messages only. Off (the default), slot == id and the
    /// engine behaves exactly as before.
    pub fn set_stream_mode(&mut self, on: bool) {
        self.stream = on;
    }

    /// Whether streaming (slot-recycling) injection is enabled.
    pub fn stream_mode(&self) -> bool {
        self.stream
    }

    /// Worm slots currently live (allocated and not on the freelist).
    pub fn live_worms(&self) -> usize {
        self.worms.len() - self.worm_free.len()
    }

    /// High-water mark of live worm slots over the engine's lifetime —
    /// in a streaming run this is bounded by in-flight traffic, not by
    /// the number of messages injected.
    pub fn peak_live_worms(&self) -> usize {
        self.peak_live_worms
    }

    /// High-water mark of in-flight messages.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Message slots allocated (live + free). Grows O(messages) without
    /// streaming, O(peak in-flight) with it.
    pub fn message_slots(&self) -> usize {
        self.messages.len()
    }

    /// Injects a multicast message at the current simulation time.
    /// Returns its handle — equal to the externally reported id unless
    /// streaming mode recycled a slot ([`Engine::set_stream_mode`]).
    /// Zero-worm plans complete immediately.
    pub fn inject(&mut self, plan: &DeliveryPlan) -> MessageId {
        let id = self.next_message_id;
        self.next_message_id += 1;
        let traffic = plan.traffic();
        let deliveries = if self.stream {
            match plan.destinations[..] {
                [d] => Deliveries::One((d, None)),
                ref ds => {
                    let mut v = self.spare_slots.pop().unwrap_or_default();
                    v.extend(ds.iter().map(|&d| (d, None)));
                    Deliveries::Many(v)
                }
            }
        } else {
            Deliveries::new(&plan.destinations)
        };
        let msg = MessageState {
            id,
            source: plan.source,
            injected_at: self.now,
            deliveries,
            worms_total: plan.worms.len(),
            worms_done: 0,
            traffic,
            delivered_count: 0,
        };
        let msg_slot = match self.msg_free.pop() {
            Some(slot) => {
                debug_assert!(self.stream && self.messages[slot].is_none());
                self.messages[slot] = Some(msg);
                slot
            }
            None => {
                self.messages.push(Some(msg));
                let slot = self.messages.len() - 1;
                debug_assert!(self.stream || slot == id);
                slot
            }
        };
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        if self.sink.is_some() {
            self.emit(SimEvent::MessageInjected {
                at: self.now,
                message: id,
                source: plan.source,
                worms: plan.worms.len(),
                destinations: plan.destinations.len(),
            });
        }

        // Degenerate source-only "deliveries" (destination == source)
        // complete at injection.
        {
            let now = self.now;
            let m = self.messages[msg_slot].as_mut().expect("just inserted");
            let source = m.source;
            let mut newly = 0;
            for (d, t) in m.deliveries.slots_mut() {
                if *d == source {
                    *t = Some(now);
                    newly += 1;
                }
            }
            m.delivered_count += newly;
            if newly > 0 {
                self.emit(SimEvent::Delivered {
                    at: now,
                    message: id,
                    node: plan.source,
                });
            }
        }

        if plan.worms.is_empty() {
            finish_message(self, msg_slot);
            return msg_slot;
        }

        // Build every worm first so staged dependencies can be wired by
        // plan index, then issue root requests in worm order — the same
        // request order as the old build-and-request interleaving, since
        // building touches no channel or event state.
        let mut slots = std::mem::take(&mut self.scratch_slots);
        slots.clear();
        for w in &plan.worms {
            let widx = self.build_worm(msg_slot, w);
            slots.push(widx as u32);
        }
        for (i, pw) in plan.worms.iter().enumerate() {
            if let PlanWorm::Staged(s) = pw {
                let widx = slots[i] as usize;
                let wgen = self.worms[widx].gen;
                self.worms[widx].deps_pending = s.after.len() as u32;
                for &a in &s.after {
                    debug_assert!(
                        (a as usize) < i,
                        "staged worm {i} depends on worm {a}, not an earlier one"
                    );
                    let feeder = slots[a as usize] as usize;
                    self.worms[feeder].dependents.push((widx as u32, wgen));
                }
            }
        }
        for &slot in &slots {
            let widx = slot as usize;
            if self.worms[widx].deps_pending > 0 {
                // Held at the source until its last feeder's completion
                // cascade releases it.
                continue;
            }
            match self.worms[widx].kind {
                WormKind::Circuit => {
                    // The control packet claims one channel at a time.
                    request_channel(self, widx, 0);
                }
                WormKind::Path | WormKind::Tree => {
                    // Request the root-group channels. Requests never
                    // touch the upstream topology of other edges, so a
                    // plain forward scan needs no collected list.
                    for e in 0..self.worms[widx].edges.len() {
                        if self.worms[widx].edges[e].upstream.is_none() {
                            request_channel(self, widx, e);
                        }
                    }
                }
            }
        }
        self.scratch_slots = slots;
        msg_slot
    }

    fn build_worm(&mut self, message: MessageId, plan: &PlanWorm) -> usize {
        // Fill a free slot in place: its vec capacities survive reuse and
        // its incarnation counter carries forward, so events scheduled
        // for the previous (aborted) occupant stay stale.
        let slot = match self.worm_free.pop() {
            Some(slot) => slot,
            None => {
                self.worms.push(WormState::vacant());
                self.worms.len() - 1
            }
        };
        self.peak_live_worms = self
            .peak_live_worms
            .max(self.worms.len() - self.worm_free.len());
        let kind = match plan {
            PlanWorm::Path(_) | PlanWorm::Staged(_) => WormKind::Path,
            PlanWorm::Tree(_) => WormKind::Tree,
            PlanWorm::Circuit(_) => WormKind::Circuit,
        };
        let Engine {
            worms,
            scratch_feeder,
            scratch_idx,
            ..
        } = self;
        let w = &mut worms[slot];
        w.message = message;
        w.kind = kind;
        w.edges.clear();
        w.groups.clear();
        w.children.clear();
        w.group_members.clear();
        w.edges_done = 0;
        w.active = true;
        w.stalled = false;
        w.deps_pending = 0;
        w.dependents.clear();
        match plan {
            PlanWorm::Path(p)
            | PlanWorm::Circuit(p)
            | PlanWorm::Staged(crate::plan::PlanStage { path: p, .. }) => {
                assert!(p.nodes.len() >= 2, "path worm needs at least one hop");
                let hops = p.nodes.len() - 1;
                for (i, win) in p.nodes.windows(2).enumerate() {
                    let has_child = i + 1 < hops;
                    if has_child {
                        w.children.push(i as u32 + 1);
                    }
                    w.edges.push(EdgeState {
                        from: win[0],
                        to: win[1],
                        class: p.class,
                        upstream: if i == 0 { None } else { Some(i as u32 - 1) },
                        child_start: i as u32,
                        child_count: u32::from(has_child),
                        group: i as u32, // every path edge is its own group
                        cand_base: 0,    // resolved below
                        cand_count: 0,
                        link_key: 0,
                        channel: None,
                        waiting: false,
                        queued_on: None,
                        crossed: 0,
                        busy: false,
                        done: false,
                    });
                }
            }
            PlanWorm::Tree(t) => {
                assert!(!t.edges.is_empty(), "tree worm needs at least one edge");
                // `scratch_feeder[node]` = edge that feeds `node`.
                for (i, &(from, to, class)) in t.edges.iter().enumerate() {
                    let upstream = if from == t.root {
                        None
                    } else {
                        let f = scratch_feeder[from];
                        assert!(f != u32::MAX, "tree edge {from}->{to} has no feeder");
                        Some(f)
                    };
                    assert!(
                        scratch_feeder[to] == u32::MAX,
                        "tree plan visits node {to} twice"
                    );
                    scratch_feeder[to] = i as u32;
                    w.edges.push(EdgeState {
                        from,
                        to,
                        class,
                        upstream,
                        child_start: 0, // carved below
                        child_count: 0,
                        group: u32::MAX, // assigned below
                        cand_base: 0,    // resolved below
                        cand_count: 0,
                        link_key: 0,
                        channel: None,
                        waiting: false,
                        queued_on: None,
                        crossed: 0,
                        busy: false,
                        done: false,
                    });
                }
                for &(_, to, _) in &t.edges {
                    scratch_feeder[to] = u32::MAX;
                }
                // Carve per-edge child ranges out of the arena: count,
                // prefix-sum, then fill (ascending edge index, the same
                // order the old per-edge vecs were pushed in).
                for i in 0..w.edges.len() {
                    if let Some(u) = w.edges[i].upstream {
                        w.edges[u as usize].child_count += 1;
                    }
                }
                let mut start = 0u32;
                for e in w.edges.iter_mut() {
                    e.child_start = start;
                    start += e.child_count;
                }
                w.children.resize(start as usize, 0);
                scratch_idx.clear();
                scratch_idx.extend(w.edges.iter().map(|e| e.child_start));
                for i in 0..w.edges.len() {
                    if let Some(u) = w.edges[i].upstream {
                        let c = scratch_idx[u as usize];
                        w.children[c as usize] = i as u32;
                        scratch_idx[u as usize] = c + 1;
                    }
                }
            }
        }
        // Group assignment: siblings sharing the same feeding edge (or the
        // root) form one branch group — the nCUBE-2 all-or-nothing
        // acquisition unit.
        match kind {
            WormKind::Circuit => {
                // The whole circuit is one all-or-nothing reservation unit.
                let n = w.edges.len() as u32;
                w.groups.push(GroupState {
                    start: 0,
                    members: n,
                    owned: 0,
                });
                for i in 0..n {
                    w.edges[i as usize].group = 0;
                    w.group_members.push(i);
                }
            }
            WormKind::Path => {
                for i in 0..w.edges.len() as u32 {
                    w.groups.push(GroupState {
                        start: i,
                        members: 1,
                        owned: 0,
                    });
                    w.group_members.push(i);
                }
            }
            WormKind::Tree => {
                // `scratch_idx[upstream + 1]` (0 = root-fed) = group id;
                // first occurrence creates the group, matching the old
                // hash-map entry() walk's creation order.
                scratch_idx.clear();
                scratch_idx.resize(w.edges.len() + 1, u32::MAX);
                for i in 0..w.edges.len() {
                    let key = match w.edges[i].upstream {
                        None => 0,
                        Some(u) => u as usize + 1,
                    };
                    let g = if scratch_idx[key] == u32::MAX {
                        w.groups.push(GroupState {
                            start: 0,
                            members: 0,
                            owned: 0,
                        });
                        let g = w.groups.len() as u32 - 1;
                        scratch_idx[key] = g;
                        g
                    } else {
                        scratch_idx[key]
                    };
                    w.edges[i].group = g;
                    w.groups[g as usize].members += 1;
                }
                let mut start = 0u32;
                for g in w.groups.iter_mut() {
                    g.start = start;
                    start += g.members;
                }
                w.group_members.resize(start as usize, 0);
                scratch_idx.clear();
                scratch_idx.extend(w.groups.iter().map(|g| g.start));
                for i in 0..w.edges.len() {
                    let g = w.edges[i].group as usize;
                    w.group_members[scratch_idx[g] as usize] = i as u32;
                    scratch_idx[g] += 1;
                }
            }
        }
        // Resolve every hop's channel-candidate range once, here at
        // build time, so the event cascade never consults the network —
        // the property that lets window-parallel components run against
        // fully detached state (partition.rs). `link_key` is the
        // class-independent link id used for conflict clustering. The
        // chaos class swap (DESIGN.md §12) resolves here too, which is
        // why it must be armed before injection.
        //
        // INVARIANT: plans are built from the same topology as the
        // network, so every hop names an existing channel table entry; a
        // miss is a malformed plan (caller bug), not a runtime condition
        // — `inject_checked` screens untrusted plans before they get
        // here. Class copies of a link have consecutive ids
        // (class-ascending), so one range scan covers the candidates.
        for i in 0..self.worms[slot].edges.len() {
            let (from, to, class) = {
                let es = &self.worms[slot].edges[i];
                (es.from, es.to, es.class)
            };
            let link_key = self
                .network
                .link_base(from, to)
                .unwrap_or_else(|| panic!("no channel {from}->{to} in network"));
            let (base, count) = match class {
                ClassChoice::Fixed(c) => {
                    let c = if self.chaos_swap_class {
                        self.network.classes() - 1 - c
                    } else {
                        c
                    };
                    let id = self
                        .network
                        .id_of(mcast_topology::Channel::with_class(from, to, c))
                        .unwrap_or_else(|| panic!("channel {from}->{to} class {c} not in network"));
                    (id, 1)
                }
                ClassChoice::Any => (link_key, self.network.classes() as u32),
            };
            let es = &mut self.worms[slot].edges[i];
            es.cand_base = base;
            es.cand_count = count;
            es.link_key = link_key;
        }
        slot
    }

    /// Processes a single event. Returns `false` if no events remain.
    pub fn step(&mut self) -> bool {
        let Some((t, _, ev)) = self.events.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "time must not go backwards");
        self.now = t;
        self.steps += 1;
        exec_event(self, ev);
        true
    }

    /// Runs until no events remain or the simulation time would exceed
    /// `until`. Returns the number of events processed.
    pub fn run_until(&mut self, until: Time) -> usize {
        if self.par.is_some() {
            return crate::partition::run_windowed_until(self, until);
        }
        let mut n = 0;
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            if self.charge_budget() {
                return n;
            }
            self.step();
            n += 1;
        }
        self.now = self.now.max(until);
        n
    }

    /// Runs until quiescent (no events pending). Returns `true` if all
    /// injected messages completed — `false` means the network is
    /// **deadlocked**: worms hold channels but none can make progress —
    /// or, with a [`RunBudget`] installed, that the budget ran out
    /// (check [`Engine::budget_exhausted`] to tell the two apart).
    pub fn run_to_quiescence(&mut self) -> bool {
        if self.par.is_some() {
            return crate::partition::run_windowed_quiesce(self);
        }
        while self.has_events() {
            if self.charge_budget() {
                return false;
            }
            self.step();
        }
        self.in_flight == 0
    }

    /// Cumulative transfer (busy) time per channel, in nanoseconds —
    /// utilization accounting for hot-spot analysis (§7.2).
    pub fn channel_busy_ns(&self) -> &[Time] {
        &self.busy_ns
    }

    /// Utilization of a channel over the elapsed simulation time (0..=1).
    pub fn channel_utilization(&self, chan: ChannelId) -> f64 {
        if self.now == 0 {
            0.0
        } else {
            self.busy_ns[chan] as f64 / self.now as f64
        }
    }

    /// Pending channel requests per active worm: `(message, from, to)`
    /// triples whose edge sits in some channel queue — the "requiring"
    /// half of the Fig 6.4-style deadlock listings.
    pub fn waiting_requests(&self) -> Vec<(MessageId, NodeId, NodeId)> {
        let mut out = Vec::new();
        for w in &self.worms {
            if !w.active {
                continue;
            }
            for e in &w.edges {
                if e.waiting {
                    out.push((w.message, e.from, e.to));
                }
            }
        }
        out
    }

    /// Channels currently held per worm message — exposed for deadlock
    /// diagnostics (the Fig 6.1/6.2-style wait-for analysis).
    pub fn held_channels(&self) -> Vec<(MessageId, Vec<ChannelId>)> {
        let mut out = Vec::new();
        for w in &self.worms {
            if !w.active {
                continue;
            }
            let held: Vec<ChannelId> = w
                .edges
                .iter()
                .filter(|e| !e.done)
                .filter_map(|e| e.channel)
                .collect();
            out.push((w.message, held));
        }
        out
    }

    /// Channels each active worm is queued on, per message — the exact
    /// "requires" half of a stuck diagnostic (unlike
    /// [`Engine::waiting_requests`], this names the specific class copy
    /// the request sits behind).
    pub fn awaited_channels(&self) -> Vec<(MessageId, Vec<ChannelId>)> {
        let mut out = Vec::new();
        for w in &self.worms {
            if !w.active {
                continue;
            }
            let awaited: Vec<ChannelId> = w
                .edges
                .iter()
                .filter(|e| e.waiting)
                .filter_map(|e| e.queued_on)
                .collect();
            out.push((w.message, awaited));
        }
        out
    }

    /// Messages owning a worm that stalled on an all-dead hop: they can
    /// never finish without recovery intervention.
    pub fn stalled_messages(&self) -> Vec<MessageId> {
        let set: BTreeSet<MessageId> = self
            .worms
            .iter()
            .filter(|w| w.active && w.stalled)
            .map(|w| w.message)
            .collect();
        set.into_iter().collect()
    }

    /// Ids of messages injected but neither completed nor aborted.
    /// These are *slot* handles: under streaming injection slots
    /// recycle, so prefer [`Engine::live_message_ids`] when comparing
    /// runs.
    pub fn live_messages(&self) -> Vec<MessageId> {
        self.messages
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|_| i))
            .collect()
    }

    /// External ids of live messages, ascending — stable across
    /// streaming and non-streaming runs (external ids never recycle;
    /// without streaming this equals [`Engine::live_messages`]).
    pub fn live_message_ids(&self) -> Vec<MessageId> {
        let mut ids: Vec<MessageId> = self.messages.iter().flatten().map(|m| m.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Per-destination delivery times of a live message (`None` entries
    /// are still pending). Returns `None` if the message is not live.
    pub fn delivery_status(&self, msg: MessageId) -> Option<Vec<(NodeId, Option<Time>)>> {
        let m = self.messages.get(msg)?.as_ref()?;
        Some(m.deliveries.slots().to_vec())
    }

    /// Injection time of a live message.
    pub fn message_injected_at(&self, msg: MessageId) -> Option<Time> {
        self.messages.get(msg)?.as_ref().map(|m| m.injected_at)
    }

    /// Whether any event is still pending (a quiescent engine with
    /// messages in flight is wedged).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Time of the next pending event, if any. A supervisor uses this to
    /// process events only up to its next external action and to catch
    /// the engine at the exact moment it wedges. O(1): the calendar
    /// queue keeps its current bucket sorted.
    pub fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Like [`Engine::inject`], but validates the plan against the
    /// channel table and the current fault state first: unknown hops,
    /// hops whose channels all died, and empty worms become a
    /// [`SimError`] instead of a panic deep in the event loop.
    pub fn inject_checked(&mut self, plan: &DeliveryPlan) -> Result<MessageId, SimError> {
        for (i, w) in plan.worms.iter().enumerate() {
            match w {
                PlanWorm::Path(p) | PlanWorm::Circuit(p) => {
                    if p.nodes.len() < 2 {
                        return Err(SimError::EmptyWorm);
                    }
                    for hop in p.nodes.windows(2) {
                        self.check_hop(hop[0], hop[1], p.class)?;
                    }
                }
                PlanWorm::Staged(s) => {
                    if s.path.nodes.len() < 2 {
                        return Err(SimError::EmptyWorm);
                    }
                    for hop in s.path.nodes.windows(2) {
                        self.check_hop(hop[0], hop[1], s.path.class)?;
                    }
                    if s.after.iter().any(|&a| a as usize >= i) {
                        return Err(SimError::BadDependency { worm: i });
                    }
                }
                PlanWorm::Tree(t) => {
                    if t.edges.is_empty() {
                        return Err(SimError::EmptyWorm);
                    }
                    for &(from, to, class) in &t.edges {
                        self.check_hop(from, to, class)?;
                    }
                }
            }
        }
        Ok(self.inject(plan))
    }

    fn check_hop(&self, from: NodeId, to: NodeId, class: ClassChoice) -> Result<(), SimError> {
        let ids: Vec<ChannelId> = match class {
            ClassChoice::Fixed(c) => self
                .network
                .id_of(mcast_topology::Channel::with_class(from, to, c))
                .into_iter()
                .collect(),
            ClassChoice::Any => self.network.ids_of_link(from, to),
        };
        if ids.is_empty() {
            return Err(SimError::UnknownChannel { from, to });
        }
        if !ids.iter().any(|&c| self.network.is_alive(c)) {
            return Err(SimError::DeadChannel { from, to });
        }
        Ok(())
    }

    /// Fails the physical link between `a` and `b` (both directions, all
    /// classes). Returns the messages broken by the failure — worms that
    /// *owned* a dead channel (their flits straddle the severed wire) or
    /// stalled re-routing a queued request. **The caller must abort the
    /// returned messages**; the engine does not tear them down itself.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> Vec<MessageId> {
        self.emit(SimEvent::LinkFailed { at: self.now, a, b });
        let died = self.network.kill_link(a, b);
        self.on_channels_died(&died)
    }

    /// Fails a node: every incident link dies. Returns the broken
    /// messages, as for [`Engine::fail_link`].
    pub fn fail_node(&mut self, node: NodeId) -> Vec<MessageId> {
        self.emit(SimEvent::NodeFailed { at: self.now, node });
        let died = self.network.kill_node(node);
        self.on_channels_died(&died)
    }

    /// Applies a [`FaultMask`] to the fabric (kills every channel the
    /// mask declares dead). Returns the broken messages, as for
    /// [`Engine::fail_link`].
    pub fn apply_fault_mask(&mut self, mask: &FaultMask) -> Vec<MessageId> {
        let died = self.network.apply_fault_mask(mask);
        self.on_channels_died(&died)
    }

    fn on_channels_died(&mut self, died: &[ChannelId]) -> Vec<MessageId> {
        let mut affected: BTreeSet<MessageId> = BTreeSet::new();
        for &chan in died {
            // The owning worm is physically severed.
            if let Some((w, _)) = self.channels[chan].owner {
                if self.worms[w].active {
                    affected.insert(self.worms[w].message);
                }
            }
            // Queued waiters re-request: a surviving class copy absorbs
            // them, otherwise they stall and are reported broken too.
            let waiters: Vec<(usize, usize)> = self.channels[chan].queue.drain(..).collect();
            for (w, e) in waiters {
                if self.worms[w].active && self.worms[w].edges[e].waiting {
                    self.worms[w].edges[e].waiting = false;
                    self.worms[w].edges[e].queued_on = None;
                    request_channel(self, w, e);
                    if self.worms[w].stalled {
                        affected.insert(self.worms[w].message);
                    }
                }
            }
        }
        affected.into_iter().collect()
    }

    /// Tears a message out of the network: releases every channel its
    /// worms hold (waking queued waiters), scrubs its pending requests
    /// from channel queues, invalidates its in-flight events, and frees
    /// its worm slots. Returns what was delivered and what remains — the
    /// recovery layer's retry set. `None` if the message is not live.
    pub fn abort_message(&mut self, msg: MessageId) -> Option<AbortedMessage> {
        self.messages.get(msg)?.as_ref()?;
        for w in 0..self.worms.len() {
            if !(self.worms[w].active && self.worms[w].message == msg) {
                continue;
            }
            self.worms[w].active = false;
            // Stale-event guard: anything scheduled under the old gen is
            // dropped on pop, even after this slot is reused.
            self.worms[w].gen = self.worms[w].gen.wrapping_add(1);
            for e in 0..self.worms[w].edges.len() {
                if let Some(c) = self.worms[w].edges[e].queued_on.take() {
                    self.channels[c]
                        .queue
                        .retain(|&(qw, qe)| !(qw == w && qe == e));
                }
                self.worms[w].edges[e].waiting = false;
                self.worms[w].edges[e].busy = false;
                if let Some(chan) = self.worms[w].edges[e].channel.take() {
                    release(self, chan);
                }
            }
            self.worm_free.push(w);
        }
        let m = self.messages[msg].take().expect("liveness checked above");
        self.in_flight -= 1;
        let mut delivered = Vec::new();
        let mut pending = Vec::new();
        for &(d, t) in m.deliveries.slots() {
            match t {
                Some(t) => delivered.push((d, t)),
                None => pending.push(d),
            }
        }
        self.emit(SimEvent::MessageAborted {
            at: self.now,
            message: m.id,
            delivered: delivered.len(),
            pending: pending.len(),
        });
        if self.stream {
            if let Deliveries::Many(mut v) = m.deliveries {
                v.clear();
                self.spare_slots.push(v);
            }
            self.msg_free.push(msg);
        }
        Some(AbortedMessage {
            id: m.id,
            source: m.source,
            injected_at: m.injected_at,
            delivered,
            pending,
            traffic: m.traffic,
        })
    }

    /// Retires message slot `slot`, recycling its delivery buffer — the
    /// serial half of [`ExecCtx::retire_msg`], also called by the
    /// window-parallel merge when it replays buffered retirements in
    /// canonical cohort order (so `msg_free` ends up in the exact order
    /// serial execution would produce). A no-op (beyond dropping the
    /// buffer) when streaming is off, preserving the grow-only slot ==
    /// id invariant byte-for-byte.
    pub(crate) fn retire_slot(&mut self, slot: usize, d: Deliveries) {
        if self.stream {
            if let Deliveries::Many(mut v) = d {
                v.clear();
                self.spare_slots.push(v);
            }
            self.msg_free.push(slot);
        }
    }
}

/// The physical timing constants the event cascade needs, detached
/// from the engine so window-parallel component execution
/// (`partition.rs`) can run the same cascade against checked-out state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimEnv {
    pub(crate) flit_time: Time,
    pub(crate) flits: u32,
    pub(crate) routing_delay_ns: u64,
    pub(crate) buffer_flits: u32,
    pub(crate) circuit_setup_ns: u64,
}

/// Execution context for the event cascade — the single code path
/// behind both the serial engine (effects applied immediately) and the
/// window-parallel component executor (effects buffered, then merged in
/// canonical cohort order; DESIGN.md §15). Everything the cascade
/// touches goes through this trait, which is what makes
/// `--engine-jobs N` bit-identical to serial *by construction*: there
/// is no second cascade implementation to drift. The serial impl is a
/// set of `#[inline]` field accessors, so the monomorphized serial
/// cascade compiles to the same code the former `&mut self` methods
/// did.
pub(crate) trait ExecCtx {
    fn now(&self) -> Time;
    fn env(&self) -> SimEnv;
    fn worm(&mut self, w: usize) -> &mut WormState;
    fn worm_ref(&self, w: usize) -> &WormState;
    fn chan(&mut self, c: ChannelId) -> &mut ChanState;
    fn chan_ref(&self, c: ChannelId) -> &ChanState;
    /// Channel liveness. Fault state is frozen for the duration of a
    /// window — faults are injected between run calls, never mid-event
    /// — so the parallel executor snapshots it per component.
    fn chan_alive(&self, c: ChannelId) -> bool;
    fn msg(&mut self, m: MessageId) -> &mut Option<MessageState>;
    /// Schedules an event (serial: straight into the calendar queue;
    /// parallel: buffered, pushed in canonical cohort order so the
    /// queue's insertion-seq tiebreaker assigns the same values serial
    /// would).
    fn sched(&mut self, at: Time, ev: Event);
    /// Charges transfer time to a channel's utilization counter (a
    /// commutative sum — merge order cannot matter).
    fn add_busy(&mut self, c: ChannelId, dt: Time);
    fn count_flit_hop(&mut self);
    /// Whether a sink is installed (gates event construction).
    fn sink_on(&self) -> bool;
    /// Emits into the sink; a no-op when no sink is installed.
    fn emit_ev(&mut self, ev: SimEvent);
    /// Whether `MCAST_TRACE_CHAN` tracing targets this channel (always
    /// false under the parallel executor, which refuses to install
    /// itself while tracing is on).
    fn trace_on(&self, c: ChannelId) -> bool;
    fn push_completed(&mut self, done: CompletedMessage);
    fn free_worm(&mut self, w: usize);
    fn dec_in_flight(&mut self);
    /// Externally reported id of the live message in `slot` (equal to
    /// `slot` unless streaming mode recycled it). Sink events carry
    /// this, never the slot, so streamed and non-streamed runs emit
    /// identical event streams.
    fn msg_id(&mut self, slot: MessageId) -> MessageId {
        self.msg(slot).as_ref().map_or(slot, |m| m.id)
    }
    /// Retires a finished message slot, recycling its delivery buffer
    /// (serial: immediately; parallel: buffered and replayed in
    /// canonical cohort order at merge).
    fn retire_msg(&mut self, slot: MessageId, d: Deliveries);
    /// An empty buffer for a completed message's delivery list —
    /// pooled in streaming mode, freshly allocated otherwise.
    fn take_done_buf(&mut self) -> Vec<(NodeId, Time)>;
}

impl ExecCtx for Engine {
    #[inline]
    fn now(&self) -> Time {
        self.now
    }
    #[inline]
    fn env(&self) -> SimEnv {
        SimEnv {
            flit_time: self.flit_time,
            flits: self.flits,
            routing_delay_ns: self.config.routing_delay_ns,
            buffer_flits: self.config.buffer_flits,
            circuit_setup_ns: self.config.circuit_setup_ns,
        }
    }
    #[inline]
    fn worm(&mut self, w: usize) -> &mut WormState {
        &mut self.worms[w]
    }
    #[inline]
    fn worm_ref(&self, w: usize) -> &WormState {
        &self.worms[w]
    }
    #[inline]
    fn chan(&mut self, c: ChannelId) -> &mut ChanState {
        &mut self.channels[c]
    }
    #[inline]
    fn chan_ref(&self, c: ChannelId) -> &ChanState {
        &self.channels[c]
    }
    #[inline]
    fn chan_alive(&self, c: ChannelId) -> bool {
        self.network.is_alive(c)
    }
    #[inline]
    fn msg(&mut self, m: MessageId) -> &mut Option<MessageState> {
        &mut self.messages[m]
    }
    #[inline]
    fn sched(&mut self, at: Time, ev: Event) {
        self.events.push(at, ev);
    }
    #[inline]
    fn add_busy(&mut self, c: ChannelId, dt: Time) {
        self.busy_ns[c] += dt;
    }
    #[inline]
    fn count_flit_hop(&mut self) {
        self.flit_hops += 1;
    }
    #[inline]
    fn sink_on(&self) -> bool {
        self.sink.is_some()
    }
    #[inline]
    fn emit_ev(&mut self, ev: SimEvent) {
        self.emit(ev);
    }
    #[inline]
    fn trace_on(&self, c: ChannelId) -> bool {
        self.trace_chan == Some(c)
    }
    #[inline]
    fn push_completed(&mut self, done: CompletedMessage) {
        self.completed.push(done);
    }
    #[inline]
    fn free_worm(&mut self, w: usize) {
        self.worm_free.push(w);
    }
    #[inline]
    fn dec_in_flight(&mut self) {
        self.in_flight -= 1;
    }
    #[inline]
    fn retire_msg(&mut self, slot: MessageId, d: Deliveries) {
        self.retire_slot(slot, d);
    }
    #[inline]
    fn take_done_buf(&mut self) -> Vec<(NodeId, Time)> {
        if self.stream {
            self.spare_done.pop().unwrap_or_default()
        } else {
            Vec::new()
        }
    }
}

/// Applies one popped event: the stale-generation / inactive-worm
/// guards, then the transfer or request cascade. Shared verbatim by
/// [`Engine::step`] and the window-parallel component executor.
pub(crate) fn exec_event<C: ExecCtx>(cx: &mut C, ev: Event) {
    match ev {
        // Events for a bumped generation belong to an aborted worm
        // whose slot may have been reused — drop them silently.
        Event::TransferComplete { worm, edge, gen } => {
            let (worm, edge) = (worm as usize, edge as usize);
            let wst = cx.worm_ref(worm);
            if wst.gen == gen && wst.active {
                on_transfer_complete(cx, worm, edge);
            }
        }
        Event::RequestChannel { worm, edge, gen } => {
            let (worm, edge) = (worm as usize, edge as usize);
            let wst = cx.worm_ref(worm);
            if wst.gen == gen
                && wst.active
                && wst.edges[edge].channel.is_none()
                && !wst.edges[edge].waiting
            {
                request_channel(cx, worm, edge);
            }
        }
    }
}

/// Requests a channel for edge `e` of worm `w`: grabs an idle copy if
/// one exists, otherwise queues on the shortest queue (class 0 on
/// ties). Candidate channel ids were resolved at worm-build time
/// (`cand_base`/`cand_count`), so the cascade never consults the
/// network topology.
pub(crate) fn request_channel<C: ExecCtx>(cx: &mut C, w: usize, e: usize) {
    let (base, count) = {
        let es = &cx.worm_ref(w).edges[e];
        if es.channel.is_some() || es.waiting || es.done {
            // Idempotence: circuit establishment and header arrival can
            // both ask for the same edge; a second request must not
            // enqueue a duplicate (a stale duplicate would re-grant an
            // already-released channel to a finished worm, orphaning
            // it forever).
            return;
        }
        (es.cand_base, es.cand_count as usize)
    };
    // Dead channels are never granted and never queued on. Grant the
    // first live idle copy; otherwise remember the least-loaded live
    // copy (strict `<` keeps the lowest class on queue-length ties,
    // as the old `min_by_key` over (len, class) did).
    let mut best: Option<(usize, ChannelId)> = None;
    for chan in base..base + count {
        if !cx.chan_alive(chan) {
            continue;
        }
        if cx.chan_ref(chan).owner.is_none() {
            grant(cx, chan, w, e);
            return;
        }
        let qlen = cx.chan_ref(chan).queue.len();
        if best.is_none_or(|(len, _)| qlen < len) {
            best = Some((qlen, chan));
        }
    }
    let Some((_, target)) = best else {
        // Every copy of this hop is dead: the worm is wedged by
        // hardware, not by contention — flag it stalled for the
        // recovery layer (the plain engine then reports it via
        // `stalled_messages`).
        cx.worm(w).stalled = true;
        let at = cx.now();
        let slot = cx.worm_ref(w).message;
        let message = cx.msg_id(slot);
        cx.emit_ev(SimEvent::WormStalled { at, message });
        return;
    };
    cx.chan(target).queue.push_back((w, e));
    {
        let es = &mut cx.worm(w).edges[e];
        es.waiting = true;
        es.queued_on = Some(target);
    }
    if cx.sink_on() {
        let at = cx.now();
        let slot = cx.worm_ref(w).message;
        let message = cx.msg_id(slot);
        cx.emit_ev(SimEvent::ChannelBlocked {
            at,
            channel: target,
            message,
        });
    }
}

fn grant<C: ExecCtx>(cx: &mut C, chan: ChannelId, w: usize, e: usize) {
    if cx.trace_on(chan) {
        eprintln!(
            "t={} GRANT chan {chan} -> worm {w} edge {e} (msg {})",
            cx.now(),
            cx.worm_ref(w).message
        );
    }
    assert!(
        cx.chan_ref(chan).owner.is_none(),
        "double grant of channel {chan}"
    );
    debug_assert!(cx.chan_alive(chan), "granting a dead channel");
    cx.chan(chan).owner = Some((w, e));
    if cx.sink_on() {
        let at = cx.now();
        let slot = cx.worm_ref(w).message;
        let message = cx.msg_id(slot);
        cx.emit_ev(SimEvent::ChannelAcquired {
            at,
            channel: chan,
            message,
        });
    }
    let g = cx.worm_ref(w).edges[e].group as usize;
    {
        let wst = cx.worm(w);
        wst.edges[e].channel = Some(chan);
        wst.edges[e].waiting = false;
        wst.edges[e].queued_on = None;
        wst.groups[g].owned += 1;
    }
    if cx.worm_ref(w).kind == WormKind::Circuit {
        // Circuit establishment: the control packet advances to the
        // next hop after its per-hop setup time.
        let next = e + 1;
        if next < cx.worm_ref(w).edges.len() {
            let gen = cx.worm_ref(w).gen;
            cx.sched(
                cx.now() + cx.env().circuit_setup_ns,
                Event::RequestChannel {
                    worm: w as u32,
                    edge: next as u32,
                    gen,
                },
            );
        }
    }
    let grp = cx.worm_ref(w).groups[g];
    if grp.owned == grp.members {
        // Group open: all its edges may start moving flits. The
        // member arena is immutable while the worm lives, so walk it
        // by index (ascending edge order, as before).
        for k in grp.start..grp.start + grp.members {
            let i = cx.worm_ref(w).group_members[k as usize] as usize;
            try_start(cx, w, i);
        }
    }
}

fn release<C: ExecCtx>(cx: &mut C, chan: ChannelId) {
    if cx.trace_on(chan) {
        eprintln!(
            "t={} RELEASE chan {chan} (owner {:?})",
            cx.now(),
            cx.chan_ref(chan).owner
        );
    }
    if cx.sink_on() {
        if let Some((w, _)) = cx.chan_ref(chan).owner {
            let at = cx.now();
            let slot = cx.worm_ref(w).message;
            let message = cx.msg_id(slot);
            cx.emit_ev(SimEvent::ChannelReleased {
                at,
                channel: chan,
                message,
            });
        }
    }
    cx.chan(chan).owner = None;
    if !cx.chan_alive(chan) {
        // A channel that died while owned grants nobody once the
        // owner lets go: re-route its queued waiters — they may have
        // a surviving Any-class copy, or they stall for recovery.
        let waiters: Vec<(usize, usize)> = cx.chan(chan).queue.drain(..).collect();
        for (w, e) in waiters {
            if cx.worm_ref(w).active && cx.worm_ref(w).edges[e].waiting {
                {
                    let es = &mut cx.worm(w).edges[e];
                    es.waiting = false;
                    es.queued_on = None;
                }
                request_channel(cx, w, e);
            }
        }
        return;
    }
    while let Some((w, e)) = cx.chan(chan).queue.pop_front() {
        // Stale entries can linger if a worm was granted a different
        // copy; skip anything no longer waiting.
        if cx.worm_ref(w).active && cx.worm_ref(w).edges[e].waiting {
            grant(cx, chan, w, e);
            return;
        }
    }
}

/// Whether edge `e` can transfer its next flit now; if so, schedule
/// the completion event.
fn try_start<C: ExecCtx>(cx: &mut C, w: usize, e: usize) {
    let env = cx.env();
    // One read-only pass over the worm decides whether the flit can
    // move — `worms[w]`/`edges[e]` are bounds-checked once instead of
    // once per condition (this runs several times per flit hop).
    let wst = cx.worm_ref(w);
    if !wst.active {
        return;
    }
    let es = &wst.edges[e];
    let Some(chan) = es.channel else { return };
    if es.busy || es.done {
        return;
    }
    let flit = es.crossed;
    if flit >= env.flits {
        return;
    }
    let grp = wst.groups[es.group as usize];
    if grp.owned < grp.members {
        return; // lock-step: the branch group is not fully owned yet
    }
    let upstream = es.upstream;
    // Upstream flit availability.
    if let Some(u) = upstream {
        if wst.edges[u as usize].crossed <= flit {
            return;
        }
    } else if wst.kind == WormKind::Tree {
        // Source-fed tree edge: the branches replicate flits from a
        // single injection buffer of `buffer_flits` capacity, so a
        // flit is discarded (making room for the next) only when
        // *every* root branch has taken it — the source-side
        // lock-step of §6.1. (Path and circuit worms stream from the
        // source unconstrained.)
        let mut min_taken = u32::MAX;
        for k in grp.start..grp.start + grp.members {
            let s = &wst.edges[wst.group_members[k as usize] as usize];
            min_taken = min_taken.min(s.crossed + u32::from(s.busy));
        }
        if flit >= min_taken + env.buffer_flits {
            return;
        }
    }
    // Downstream buffer space at the head node: flits that crossed e
    // but have not left through every child yet. A flit currently on
    // the wire of a child channel has already left the buffer (its
    // slot frees at transfer start, as in credit-based flow control),
    // so children mid-transfer count toward the outflow.
    if es.child_count > 0 {
        let mut outflow = u32::MAX;
        for k in es.child_start..es.child_start + es.child_count {
            let ch = &wst.edges[wst.children[k as usize] as usize];
            outflow = outflow.min(ch.crossed + u32::from(ch.busy));
        }
        if es.crossed - outflow.min(es.crossed) >= env.buffer_flits {
            return;
        }
    }
    let kind = wst.kind;
    let gen = wst.gen;
    let message = wst.message;
    // Start the transfer.
    let dt = env.flit_time + if flit == 0 { env.routing_delay_ns } else { 0 };
    cx.worm(w).edges[e].busy = true;
    cx.add_busy(chan, dt);
    cx.count_flit_hop();
    if cx.sink_on() {
        let start = cx.now();
        let message = cx.msg_id(message);
        cx.emit_ev(SimEvent::FlitHop {
            start,
            end: start + dt,
            channel: chan,
            message,
            flit,
        });
    }
    cx.sched(
        cx.now() + dt,
        Event::TransferComplete {
            worm: w as u32,
            edge: e as u32,
            gen,
        },
    );
    // Starting frees a buffer slot upstream (flow-control credit at
    // transfer start): retry the feeder, or the root-group siblings.
    if let Some(u) = upstream {
        try_start(cx, w, u as usize);
    } else if kind == WormKind::Tree {
        try_start_siblings(cx, w, e);
    }
}

/// Retries every group sibling of edge `e` (ascending edge index,
/// skipping `e` itself) — the shared-buffer wakeup for root-fed tree
/// branches. Walks the immutable member arena by index, so no
/// sibling list is allocated.
fn try_start_siblings<C: ExecCtx>(cx: &mut C, w: usize, e: usize) {
    let grp = cx.worm_ref(w).groups[cx.worm_ref(w).edges[e].group as usize];
    for k in grp.start..grp.start + grp.members {
        let s = cx.worm_ref(w).group_members[k as usize] as usize;
        if s != e {
            try_start(cx, w, s);
        }
    }
}

fn on_transfer_complete<C: ExecCtx>(cx: &mut C, w: usize, e: usize) {
    // Snapshot the immutable topology of the edge (feeder, child
    // range, worm kind) in the same pass that bumps its flit count,
    // so the retry cascade below doesn't re-index the worm per field.
    let (crossed, upstream, cs, cn, kind) = {
        let wst = cx.worm(w);
        let kind = wst.kind;
        let es = &mut wst.edges[e];
        es.busy = false;
        es.crossed += 1;
        (
            es.crossed,
            es.upstream,
            es.child_start,
            es.child_count,
            kind,
        )
    };
    if crossed == 1 && kind != WormKind::Circuit {
        // Header arrived at head(e): claim the next channels. (Circuit
        // worms acquire through the establishment chain instead.)
        // The child arena is immutable while the worm lives, so walk
        // it by index instead of cloning a per-flit list.
        for k in cs..cs + cn {
            let c = cx.worm_ref(w).children[k as usize] as usize;
            request_channel(cx, w, c);
        }
    }
    if crossed == cx.env().flits {
        // Tail crossed: release the channel, record delivery.
        let chan = cx.worm(w).edges[e]
            .channel
            .take()
            .expect("owned while crossing");
        cx.worm(w).edges[e].done = true;
        release(cx, chan);
        let (head, msg_id) = {
            let wst = cx.worm_ref(w);
            (wst.edges[e].to, wst.message)
        };
        record_delivery(cx, msg_id, head);
        cx.worm(w).edges_done += 1;
        if cx.worm_ref(w).edges_done == cx.worm_ref(w).edges.len() {
            cx.worm(w).active = false;
            // Release staged dependents in-cascade, exactly like a
            // channel release granting a queued waiter. A zero-delta
            // scheduled event would land inside the current lookahead
            // window and break the window-parallel executor's
            // determinism invariant; a direct release stays inside the
            // feeder's own event in every execution mode. Feeder and
            // dependents share one message, so the windowed executor
            // already clusters them into one component (plus the
            // dependents' root links, added at classification). The
            // drained vec goes back to keep its capacity across slot
            // reuse.
            let mut deps = std::mem::take(&mut cx.worm(w).dependents);
            for &(d, g) in &deps {
                let d = d as usize;
                let wst = cx.worm_ref(d);
                if wst.gen == g && wst.active && wst.deps_pending > 0 {
                    let left = {
                        let ws = cx.worm(d);
                        ws.deps_pending -= 1;
                        ws.deps_pending
                    };
                    if left == 0 {
                        // A staged worm is a path worm: its single
                        // root is edge 0.
                        request_channel(cx, d, 0);
                    }
                }
            }
            deps.clear();
            cx.worm(w).dependents = deps;
            let slot_msg = cx.worm_ref(w).message;
            let finished = {
                let m = cx.msg(slot_msg).as_mut().expect("message live");
                m.worms_done += 1;
                m.worms_done == m.worms_total
            };
            if finished {
                finish_message(cx, slot_msg);
            }
            cx.free_worm(w);
        }
    }
    // Progress may unblock this edge (next flit), the upstream edge
    // (space freed), the children (flit available), and — for root
    // edges — the group siblings sharing the injection buffer.
    try_start(cx, w, e);
    if let Some(u) = upstream {
        try_start(cx, w, u as usize);
    } else if kind == WormKind::Tree {
        try_start_siblings(cx, w, e);
    }
    for k in cs..cs + cn {
        let c = cx.worm_ref(w).children[k as usize] as usize;
        try_start(cx, w, c);
    }
}

fn record_delivery<C: ExecCtx>(cx: &mut C, msg: MessageId, node: NodeId) {
    let now = cx.now();
    let (newly, id) = {
        let m = cx.msg(msg).as_mut().expect("message live");
        let mut newly = 0;
        for (d, t) in m.deliveries.slots_mut() {
            if *d == node && t.is_none() {
                *t = Some(now);
                newly += 1;
            }
        }
        m.delivered_count += newly;
        (newly, m.id)
    };
    if newly > 0 && cx.sink_on() {
        cx.emit_ev(SimEvent::Delivered {
            at: now,
            message: id,
            node,
        });
    }
}

fn finish_message<C: ExecCtx>(cx: &mut C, msg: MessageId) {
    let m = cx.msg(msg).take().expect("message live");
    let mut deliveries = cx.take_done_buf();
    deliveries.extend(m.deliveries.slots().iter().map(|&(d, t)| {
        (
            d,
            // INVARIANT: finish_message runs only when every worm
            // completed, every plan covers its destination set,
            // and aborted messages exit via abort_message (which
            // reports partial delivery) — so a hole here means a
            // plan/engine bug, not a runtime condition.
            t.unwrap_or_else(|| panic!("destination {d} never delivered by message {}", m.id)),
        )
    }));
    let completed_at = deliveries
        .iter()
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(m.injected_at);
    cx.push_completed(CompletedMessage {
        id: m.id,
        source: m.source,
        injected_at: m.injected_at,
        completed_at,
        deliveries,
        traffic: m.traffic,
    });
    cx.dec_in_flight();
    cx.emit_ev(SimEvent::MessageCompleted {
        at: completed_at,
        message: m.id,
        latency_ns: completed_at - m.injected_at,
    });
    cx.retire_msg(msg, m.deliveries);
}

impl Engine {
    /// Debug: the (message, edge) currently owning a channel, if any.
    pub fn debug_owner(&self, chan: ChannelId) -> Option<(MessageId, usize)> {
        self.channels[chan]
            .owner
            .map(|(w, e)| (self.worms[w].message, e))
    }
}

impl Engine {
    /// Debug: raw owner slot info for a channel: (worm slot, edge, message, active).
    pub fn debug_owner_full(&self, chan: ChannelId) -> Option<(usize, usize, MessageId, bool)> {
        self.channels[chan]
            .owner
            .map(|(w, e)| (w, e, self.worms[w].message, self.worms[w].active))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DeliveryPlan, PlanPath, PlanTree};
    use mcast_core::model::MulticastSet;
    use mcast_topology::Mesh2D;

    fn engine_4x4() -> Engine {
        let m = Mesh2D::new(4, 4);
        Engine::new(Network::new(&m, 1), SimConfig::default())
    }

    fn path_plan(nodes: Vec<NodeId>, dests: Vec<NodeId>) -> DeliveryPlan {
        let src = nodes[0];
        DeliveryPlan {
            source: src,
            destinations: dests,
            worms: vec![PlanWorm::Path(PlanPath {
                nodes,
                class: ClassChoice::Any,
            })],
        }
    }

    #[test]
    fn single_hop_latency_is_pipeline_fill() {
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&path_plan(vec![0, 1], vec![1]));
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done.len(), 1);
        // One channel: header (t_f + t_r) + 16 payload flits × t_f.
        let expect = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        assert_eq!(done[0].completed_at, expect);
    }

    #[test]
    fn pipeline_latency_nearly_distance_independent() {
        // Wormhole's signature: latency ≈ L/B + D·(t_f + t_r), so doubling
        // distance adds only per-hop header time (§2.2.4).
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&path_plan(vec![0, 1, 2, 3], vec![3]));
        assert!(e.run_to_quiescence());
        let t3 = e.take_completed()[0].completed_at;
        let mut e2 = engine_4x4();
        e2.inject(&path_plan(vec![0, 1], vec![1]));
        assert!(e2.run_to_quiescence());
        let t1 = e2.take_completed()[0].completed_at;
        assert_eq!(t3 - t1, 2 * (cfg.flit_time_ns() + cfg.routing_delay_ns));
    }

    #[test]
    fn intermediate_destination_receives_before_final() {
        let mut e = engine_4x4();
        e.inject(&path_plan(vec![0, 1, 2, 3], vec![1, 3]));
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let d: std::collections::HashMap<NodeId, Time> =
            done[0].deliveries.iter().copied().collect();
        assert!(d[&1] < d[&3], "upstream destination finishes first");
        assert_eq!(done[0].completed_at, d[&3]);
    }

    #[test]
    fn contending_messages_serialize_on_shared_channel() {
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&path_plan(vec![0, 1], vec![1]));
        e.inject(&path_plan(vec![0, 1], vec![1]));
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done.len(), 2);
        let t0 = done.iter().find(|c| c.id == 0).unwrap().completed_at;
        let t1 = done.iter().find(|c| c.id == 1).unwrap().completed_at;
        // Second message waits for the first to release the channel.
        let single = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        assert_eq!(t0, single);
        assert_eq!(t1, 2 * single);
    }

    #[test]
    fn tree_worm_delivers_all_leaves() {
        let m = Mesh2D::new(4, 4);
        let mc = MulticastSet::new(5, [1, 6, 9, 4]);
        let tree = mcast_core::xfirst::xfirst_tree(&m, &mc);
        let plan = DeliveryPlan::from_tree(&mc, &tree, ClassChoice::Any);
        let mut e = engine_4x4();
        e.inject(&plan);
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done[0].deliveries.len(), 4);
    }

    #[test]
    fn two_crossing_tree_worms_deadlock() {
        // Fig 6.4's mechanism, distilled: two 2-branch tree worms each
        // grab one of the other's needed channels and wait forever.
        let m = Mesh2D::new(4, 1);
        let net = Network::new(&m, 1);
        let mut e = Engine::new(net, SimConfig::default());
        // Worm A at node 1 branches to 0 and 2→3; worm B at node 2
        // branches to 3 and 1→0. A needs [1,2], B holds it via its branch
        // [2,1],[1,0]; B needs [2,3], A holds [1,2]? Construct:
        let plan_a = DeliveryPlan {
            source: 1,
            destinations: vec![0, 3],
            worms: vec![PlanWorm::Tree(PlanTree {
                root: 1,
                edges: vec![
                    (1, 0, ClassChoice::Any),
                    (1, 2, ClassChoice::Any),
                    (2, 3, ClassChoice::Any),
                ],
            })],
        };
        let plan_b = DeliveryPlan {
            source: 2,
            destinations: vec![0, 3],
            worms: vec![PlanWorm::Tree(PlanTree {
                root: 2,
                edges: vec![
                    (2, 3, ClassChoice::Any),
                    (2, 1, ClassChoice::Any),
                    (1, 0, ClassChoice::Any),
                ],
            })],
        };
        e.inject(&plan_a);
        e.inject(&plan_b);
        let ok = e.run_to_quiescence();
        assert!(!ok, "crossing lock-step trees must deadlock");
        assert_eq!(e.in_flight(), 2);
        let held = e.held_channels();
        assert_eq!(held.len(), 2);
    }

    #[test]
    fn multi_worm_star_message_completes_when_all_paths_do() {
        let mut e = engine_4x4();
        let plan = DeliveryPlan {
            source: 5,
            destinations: vec![7, 13],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![5, 6, 7],
                    class: ClassChoice::Any,
                }),
                PlanWorm::Path(PlanPath {
                    nodes: vec![5, 9, 13],
                    class: ClassChoice::Any,
                }),
            ],
        };
        e.inject(&plan);
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].traffic, 4);
    }

    #[test]
    fn double_channels_resolve_the_tree_deadlock() {
        // The same crossing trees as above, but on a doubled network with
        // Any-class selection: each worm grabs a free copy and both
        // complete.
        let m = Mesh2D::new(4, 1);
        let net = Network::new(&m, 2);
        let mut e = Engine::new(net, SimConfig::default());
        let plan_a = DeliveryPlan {
            source: 1,
            destinations: vec![0, 3],
            worms: vec![PlanWorm::Tree(PlanTree {
                root: 1,
                edges: vec![
                    (1, 0, ClassChoice::Any),
                    (1, 2, ClassChoice::Any),
                    (2, 3, ClassChoice::Any),
                ],
            })],
        };
        let plan_b = DeliveryPlan {
            source: 2,
            destinations: vec![0, 3],
            worms: vec![PlanWorm::Tree(PlanTree {
                root: 2,
                edges: vec![
                    (2, 3, ClassChoice::Any),
                    (2, 1, ClassChoice::Any),
                    (1, 0, ClassChoice::Any),
                ],
            })],
        };
        e.inject(&plan_a);
        e.inject(&plan_b);
        assert!(e.run_to_quiescence(), "double channels break the cycle");
    }

    #[test]
    fn circuit_switching_reserves_then_streams() {
        // A circuit worm over D hops completes at about
        // D·setup + stream + pipeline drain — and later than an identical
        // wormhole worm, because no flit moves before the reservation
        // finishes.
        let m = Mesh2D::new(8, 1);
        let nodes: Vec<NodeId> = (0..8).collect();
        let mut ew = Engine::new(Network::new(&m, 1), SimConfig::default());
        ew.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![7],
            worms: vec![PlanWorm::Path(PlanPath {
                nodes: nodes.clone(),
                class: ClassChoice::Any,
            })],
        });
        assert!(ew.run_to_quiescence());
        let worm_t = ew.take_completed()[0].completed_at;

        let mut ec = Engine::new(Network::new(&m, 1), SimConfig::default());
        ec.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![7],
            worms: vec![PlanWorm::Circuit(PlanPath {
                nodes,
                class: ClassChoice::Any,
            })],
        });
        assert!(ec.run_to_quiescence());
        let circ_t = ec.take_completed()[0].completed_at;
        assert!(circ_t > worm_t, "circuit {circ_t} vs wormhole {worm_t}");
        // Setup phase: 7 hops of circuit_setup after the first grant.
        let cfg = SimConfig::default();
        let setup = 6 * cfg.circuit_setup_ns; // chain requests after edge 0
        assert!(circ_t >= setup, "circuit completion before setup finished");
    }

    #[test]
    fn ring_of_circuits_deadlocks_like_fig_2_4() {
        // Fig 2.4's four-message configuration on a 2×2 mesh: each circuit
        // reserves its first channel and waits forever for the next one,
        // held by its neighbor — the classic channel-deadlock cycle.
        let m = Mesh2D::new(2, 2);
        let mut e = Engine::new(Network::new(&m, 1), SimConfig::default());
        // Ring order of node ids: 0 → 1 → 3 → 2 → 0.
        let ring = [0usize, 1, 3, 2];
        for i in 0..4 {
            let a = ring[i];
            let b = ring[(i + 1) % 4];
            let c = ring[(i + 2) % 4];
            e.inject(&DeliveryPlan {
                source: a,
                destinations: vec![c],
                worms: vec![PlanWorm::Circuit(PlanPath {
                    nodes: vec![a, b, c],
                    class: ClassChoice::Any,
                })],
            });
        }
        let ok = e.run_to_quiescence();
        assert!(!ok, "the Fig 2.4 circuit ring must deadlock");
        assert_eq!(e.in_flight(), 4);
    }

    #[test]
    fn label_monotone_circuits_never_deadlock() {
        // Dual-path routes carried by circuit switching stay deadlock-free
        // (§2.3.4: the subnetwork solution "can also be applied to circuit
        // switching"): saturating closed load drains.
        use mcast_topology::labeling::mesh2d_snake;
        let m = Mesh2D::new(4, 4);
        let l = mesh2d_snake(&m);
        let mut e = Engine::new(Network::new(&m, 1), SimConfig::default());
        for s in 0..16usize {
            let mc = MulticastSet::new(s, (1..=5).map(|i| (s + i * 3) % 16));
            let paths = mcast_core::dual_path::dual_path(&m, &l, &mc);
            e.inject(&DeliveryPlan {
                source: s,
                destinations: mc.destinations.clone(),
                worms: paths
                    .into_iter()
                    .map(|p| {
                        PlanWorm::Circuit(PlanPath {
                            nodes: p.nodes().to_vec(),
                            class: ClassChoice::Any,
                        })
                    })
                    .collect(),
            });
        }
        assert!(e.run_to_quiescence(), "label-monotone circuits wedged");
        assert_eq!(e.take_completed().len(), 16);
    }

    #[test]
    fn streaming_bounds_slots_and_reports_identical_results() {
        // 60 sequential multicasts: the plain engine grows one message
        // slot per injection; the streaming engine recycles retired
        // slots, so its slot table stays at the in-flight high-water
        // mark — while every reported result (external ids included)
        // is identical.
        let mut plain = engine_4x4();
        let mut stream = engine_4x4();
        stream.set_stream_mode(true);
        fn xy(mut a: usize, b: usize) -> Vec<NodeId> {
            let mut v = vec![a];
            while a % 4 != b % 4 {
                a = if b % 4 > a % 4 { a + 1 } else { a - 1 };
                v.push(a);
            }
            while a / 4 != b / 4 {
                a = if b / 4 > a / 4 { a + 4 } else { a - 4 };
                v.push(a);
            }
            v
        }
        let mut plain_done = Vec::new();
        let mut stream_done = Vec::new();
        for i in 0..60usize {
            let src = i % 16;
            let dst = (i * 7 + 3) % 16;
            if dst == src {
                continue;
            }
            let nodes = xy(src, dst);
            let dests = if nodes.len() > 2 {
                vec![nodes[nodes.len() / 2], dst]
            } else {
                vec![dst]
            };
            let plan = path_plan(nodes, dests);
            plain.inject(&plan);
            stream.inject(&plan);
            assert!(plain.run_to_quiescence());
            assert!(stream.run_to_quiescence());
            plain_done.extend(plain.take_completed().iter().map(|c| format!("{c:?}")));
            stream.drain_completed(|c| stream_done.push(format!("{c:?}")));
        }
        assert_eq!(plain_done, stream_done);
        assert_eq!(plain.message_slots(), 60);
        assert!(
            stream.message_slots() <= stream.peak_in_flight(),
            "stream slots {} > peak in-flight {}",
            stream.message_slots(),
            stream.peak_in_flight()
        );
        assert_eq!(stream.peak_in_flight(), 1);
        assert!(stream.peak_live_worms() >= 1);
        assert_eq!(stream.live_worms(), 0);
    }

    #[test]
    fn streaming_multi_dest_paths_match_and_pool_buffers() {
        // Multi-destination paths exercise the Deliveries::Many pool
        // and the pooled done-buffers; overlap several messages so
        // slots recycle out of order.
        let mut plain = engine_4x4();
        let mut stream = engine_4x4();
        stream.set_stream_mode(true);
        for e in [&mut plain, &mut stream] {
            for s in 0..4usize {
                e.inject(&path_plan(
                    vec![s, s + 4, s + 8, s + 12],
                    vec![s + 4, s + 12],
                ));
            }
            assert!(e.run_to_quiescence());
            for s in 0..4usize {
                e.inject(&path_plan(
                    vec![s * 4, s * 4 + 1, s * 4 + 2],
                    vec![s * 4 + 2],
                ));
            }
            assert!(e.run_to_quiescence());
        }
        let a = plain.take_completed();
        let mut b = Vec::new();
        stream.drain_completed(|c| b.push(format!("{c:?}")));
        assert_eq!(a.iter().map(|c| format!("{c:?}")).collect::<Vec<_>>(), b);
        assert!(
            stream.message_slots() <= 4,
            "slots: {}",
            stream.message_slots()
        );
    }

    #[test]
    fn source_destination_delivered_at_injection() {
        let mut e = engine_4x4();
        let plan = DeliveryPlan {
            source: 0,
            destinations: vec![0],
            worms: vec![],
        };
        e.inject(&plan);
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done[0].completed_at, done[0].injected_at);
    }

    fn staged(after: Vec<u32>, nodes: Vec<NodeId>) -> PlanWorm {
        PlanWorm::Staged(crate::plan::PlanStage {
            after,
            path: PlanPath {
                nodes,
                class: ClassChoice::Any,
            },
        })
    }

    #[test]
    fn staged_worm_starts_only_after_its_feeder_completes() {
        // A two-round relay 0 -> 1 -> 2: the staged leg may not claim
        // its first channel before the feeder's tail retires, so the
        // relayed destination completes exactly two full message times
        // plus one extra hop of pipeline fill after injection.
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![1, 2],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 1],
                    class: ClassChoice::Any,
                }),
                staged(vec![0], vec![1, 2]),
            ],
        });
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let d: std::collections::HashMap<NodeId, Time> =
            done[0].deliveries.iter().copied().collect();
        let single = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        assert_eq!(d[&1], single);
        assert_eq!(d[&2], 2 * single, "relay waited for the feeder");
    }

    #[test]
    fn staged_worm_with_multiple_feeders_waits_for_the_last() {
        // Two feeders of different lengths; the staged worm fires when
        // the *slower* one retires.
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![1, 3, 7],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 1],
                    class: ClassChoice::Any,
                }),
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 4, 5, 6, 7],
                    class: ClassChoice::Any,
                }),
                staged(vec![0, 1], vec![1, 2, 3]),
            ],
        });
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let d: std::collections::HashMap<NodeId, Time> =
            done[0].deliveries.iter().copied().collect();
        let hop = cfg.flit_time_ns() + cfg.routing_delay_ns;
        let single = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        // The long feeder finishes 3 hops of fill after the short one.
        assert_eq!(d[&7], single + 3 * hop);
        // The staged leg starts there, not at the short feeder's end.
        assert_eq!(d[&3], d[&7] + single + hop);
    }

    #[test]
    fn held_staged_worm_claims_no_channels() {
        // While held, a staged worm must not appear on any channel
        // queue: an unrelated message over the same links proceeds at
        // the uncontended latency.
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![3, 2],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 4, 5, 6, 7, 3],
                    class: ClassChoice::Any,
                }),
                staged(vec![0], vec![0, 1, 2]),
            ],
        });
        // The competitor uses the staged worm's 0->1->2 links.
        e.inject(&path_plan(vec![0, 1, 2], vec![2]));
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let competitor = done.iter().find(|c| c.id == 1).unwrap();
        let single = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        let hop = cfg.flit_time_ns() + cfg.routing_delay_ns;
        assert_eq!(
            competitor.completed_at,
            single + hop,
            "competitor ran unblocked while the staged worm was held"
        );
    }

    #[test]
    fn inject_checked_rejects_bad_dependencies() {
        use crate::error::SimError;
        let mut e = engine_4x4();
        // Self-dependency.
        let plan = DeliveryPlan {
            source: 0,
            destinations: vec![1],
            worms: vec![staged(vec![0], vec![0, 1])],
        };
        assert_eq!(
            e.inject_checked(&plan),
            Err(SimError::BadDependency { worm: 0 })
        );
        // Forward dependency.
        let plan = DeliveryPlan {
            source: 0,
            destinations: vec![1, 2],
            worms: vec![
                staged(vec![1], vec![0, 1]),
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 1, 2],
                    class: ClassChoice::Any,
                }),
            ],
        };
        assert_eq!(
            e.inject_checked(&plan),
            Err(SimError::BadDependency { worm: 0 })
        );
        assert_eq!(e.in_flight(), 0, "rejected plans leave nothing behind");
        assert!(e.run_to_quiescence());
    }

    #[test]
    fn staged_chain_of_dependencies_serializes_rounds() {
        // A three-round chain on one row: each staged worm waits for
        // the previous round, so completion times are strictly spaced
        // full message times apart.
        let mut e = engine_4x4();
        let cfg = *e.config();
        e.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![1, 2, 3],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 1],
                    class: ClassChoice::Any,
                }),
                staged(vec![0], vec![1, 2]),
                staged(vec![1], vec![2, 3]),
            ],
        });
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let d: std::collections::HashMap<NodeId, Time> =
            done[0].deliveries.iter().copied().collect();
        let single = cfg.routing_delay_ns + cfg.flit_time_ns() * cfg.flits_per_message() as u64;
        assert_eq!(d[&1], single);
        assert_eq!(d[&2], 2 * single);
        assert_eq!(d[&3], 3 * single);
    }
}
