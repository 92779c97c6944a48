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

/// "No entry" sentinel of the engine's `u32` node, edge and channel
/// fields.
const NONE: u32 = u32::MAX;

/// `Some(x)` unless `x` is the [`NONE`] sentinel.
#[inline]
fn opt(x: u32) -> Option<usize> {
    (x != NONE).then_some(x as usize)
}

/// One channel's row in a [`ChanTable`]: `(owner worm + 1, owner edge,
/// waiter-queue handle + 1)`. All zero is an idle channel with no
/// waiters, so a fresh table is one zeroed allocation.
type ChanSlot = (u32, u32, u32);

/// Per-channel engine state in bytes: the table row and nothing else
/// (DESIGN.md §10.2). Busy time is a sink's job (`obs::Metrics`).
const CHANNEL_BYTES: usize = size_of::<ChanSlot>();
const _: () = assert!(CHANNEL_BYTES <= 12);

/// Channel ownership and FIFO waiter queues (DESIGN.md §10.2). The
/// per-channel part is one dense `u32` row; waiter queues live in a
/// pool indexed by handle and exist only while a channel has waiters,
/// so queue memory follows the blocked requests, not the channel count.
/// A drained queue keeps its buffer in the pool for the next channel
/// that blocks. Rows are indexed by channel id.
#[derive(Debug, Default)]
struct ChanTable {
    slots: Vec<ChanSlot>,
    queues: Vec<VecDeque<(u32, u32)>>,
    /// Handles of empty pooled queues.
    free: Vec<u32>,
}

impl ChanTable {
    /// A table of `n` idle channels.
    fn new(n: usize) -> Self {
        ChanTable {
            slots: vec![(0, 0, 0); n],
            ..ChanTable::default()
        }
    }

    /// The `(worm, edge)` owning channel row `i`, if any.
    #[inline]
    fn owner(&self, i: usize) -> Option<(usize, usize)> {
        let (w, e, _) = self.slots[i];
        (w != 0).then(|| (w as usize - 1, e as usize))
    }

    #[inline]
    fn set_owner(&mut self, i: usize, owner: Option<(usize, usize)>) {
        let (w, e) = owner.map_or((0, 0), |(w, e)| (w as u32 + 1, e as u32));
        self.slots[i].0 = w;
        self.slots[i].1 = e;
    }

    /// Waiters queued on row `i`.
    #[inline]
    fn queue_len(&self, i: usize) -> usize {
        match self.slots[i].2 {
            0 => 0,
            q => self.queues[q as usize - 1].len(),
        }
    }

    /// Appends a waiter to row `i`'s queue, taking a pooled queue if the
    /// row has none.
    fn enqueue(&mut self, i: usize, w: usize, e: usize) {
        if self.slots[i].2 == 0 {
            self.slots[i].2 = self.alloc_queue() + 1;
        }
        let q = self.slots[i].2 as usize - 1;
        self.queues[q].push_back((w as u32, e as u32));
    }

    /// Pops row `i`'s oldest waiter; an emptied queue returns to the pool.
    fn dequeue(&mut self, i: usize) -> Option<(usize, usize)> {
        let q = self.slots[i].2.checked_sub(1)?;
        let (w, e) = self.queues[q as usize]
            .pop_front()
            .expect("pooled queues are never empty while held");
        self.release_if_empty(i);
        Some((w as usize, e as usize))
    }

    /// Scrubs one waiter from row `i`'s queue (message abort).
    fn remove_waiter(&mut self, i: usize, w: usize, e: usize) {
        if let Some(q) = self.slots[i].2.checked_sub(1) {
            let key = (w as u32, e as u32);
            self.queues[q as usize].retain(|&x| x != key);
            self.release_if_empty(i);
        }
    }

    fn alloc_queue(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.queues.push(VecDeque::new());
            (self.queues.len() - 1) as u32
        })
    }

    fn release_if_empty(&mut self, i: usize) {
        let q = self.slots[i].2 - 1;
        if self.queues[q as usize].is_empty() {
            self.free.push(q);
            self.slots[i].2 = 0;
        }
    }
}

/// Edge flag bits.
const BUSY: u8 = 1;
const DONE: u8 = 2;

/// One edge of a worm. Flat (no per-edge heap allocation): a tree's
/// child and group membership live in per-worm index arenas, and a
/// chain worm (path, staged or circuit) needs none, since edge `e`'s
/// only child is `e + 1`. Node, edge and channel ids are `u32` with
/// [`NONE`] for "none" (DESIGN.md §10.2).
#[derive(Debug, Clone)]
struct EdgeState {
    from: u32,
    to: u32,
    /// Edge feeding this one (`NONE` = fed directly by the source).
    upstream: u32,
    /// Start of this edge's child range ([`WormState::child`]): a slice
    /// of the `children` arena for a tree, the child edge itself for a
    /// chain.
    child_start: u32,
    /// Number of edges fed by this edge's head node.
    child_count: u32,
    /// Branch group this edge belongs to (siblings sharing a feed node);
    /// `NONE` on a path worm, whose every edge is a group of its own.
    group: u32,
    /// The message's delivery slot for this edge's head node, resolved
    /// at worm build (`NONE` = not a destination). The tail crossing
    /// records it if no earlier tail has.
    dest: u32,
    /// First candidate channel id for this hop, resolved at worm-build
    /// time (class copies of a link have consecutive ids). The cascade
    /// never consults the network topology after build.
    cand_base: u32,
    /// Channel granted to this edge (`NONE` = none).
    channel: u32,
    /// The channel whose queue holds this edge's pending request
    /// (`NONE` = not waiting; stuck diagnostics + abort scrub).
    queued_on: u32,
    /// Flits that have fully crossed this edge.
    crossed: u32,
    class: ClassChoice,
    /// Number of candidate class copies (1 for `ClassChoice::Fixed`).
    cand_count: u8,
    /// [`BUSY`] (transfer in progress) and [`DONE`] (tail crossed and
    /// the channel was released).
    flags: u8,
}

const _: () = assert!(size_of::<EdgeState>() <= 56);

impl EdgeState {
    /// A fresh, unresolved edge; `build_worm` fills in the rest.
    fn new(from: NodeId, to: NodeId, class: ClassChoice, upstream: u32) -> Self {
        EdgeState {
            from: from as u32,
            to: to as u32,
            upstream,
            child_start: 0,
            child_count: 0,
            group: NONE,
            dest: NONE,
            cand_base: 0,
            channel: NONE,
            queued_on: NONE,
            crossed: 0,
            class,
            cand_count: 0,
            flags: 0,
        }
    }

    #[inline]
    fn upstream(&self) -> Option<usize> {
        opt(self.upstream)
    }

    #[inline]
    fn channel(&self) -> Option<ChannelId> {
        opt(self.channel)
    }

    /// Whether a channel request is pending in some queue.
    #[inline]
    fn waiting(&self) -> bool {
        self.queued_on != NONE
    }

    #[inline]
    fn busy(&self) -> bool {
        self.flags & BUSY != 0
    }

    #[inline]
    fn done(&self) -> bool {
        self.flags & DONE != 0
    }

    #[inline]
    fn set_flag(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct GroupState {
    /// Start of this group's member range ([`WormState::member`]).
    start: u32,
    members: u32,
    owned: u32,
}

/// How a worm moves its flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WormKind {
    /// Pipelined wormhole path (plain or staged).
    Path,
    /// Lock-step replicated tree.
    Tree,
    /// Circuit-switched path: reserve the whole circuit before streaming.
    Circuit,
}

#[derive(Debug)]
struct WormState {
    message: MessageId,
    kind: WormKind,
    edges: Vec<EdgeState>,
    /// Branch groups: a tree's, or a circuit's one whole-circuit group.
    /// Empty for a path worm.
    groups: Vec<GroupState>,
    /// Tree child-edge arena: edge `e` feeds
    /// `children[e.child_start..e.child_start + e.child_count]`.
    /// Empty for chain worms.
    children: Vec<u32>,
    /// Tree group-member arena: group `g` owns
    /// `group_members[g.start..g.start + g.members]`, ascending by edge
    /// index. Immutable for the worm's lifetime once built. Empty for
    /// chain worms: a circuit's one group is edges `0..n`.
    group_members: Vec<u32>,
    edges_done: usize,
    active: bool,
    /// Incarnation counter for this worm *slot*: bumped on abort so
    /// events scheduled for a torn-down worm are recognized as stale
    /// after the slot is reused (events carry the gen they were
    /// scheduled under).
    gen: u32,
    /// Set when a channel request found every copy of a hop dead — the
    /// worm can never advance and needs recovery-layer intervention.
    stalled: bool,
    /// Staged worms: number of same-plan feeder worms that must complete
    /// before this worm requests its first channel. Zero for every other
    /// kind, and for a staged worm once released.
    deps_pending: u32,
    /// Worm slots (with their injection-time `gen`) released in-cascade
    /// by this worm's completion event.
    dependents: Vec<(u32, u32)>,
}

impl WormState {
    /// An inactive placeholder; `build_worm` fills slots in place so a
    /// reused slot keeps its vec capacities (and its `gen`).
    fn vacant() -> Self {
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

    /// Edge index at position `k` of an edge's child range: an arena
    /// lookup for a tree, `k` itself for a chain worm.
    #[inline]
    fn child(&self, k: u32) -> usize {
        if self.kind == WormKind::Tree {
            self.children[k as usize] as usize
        } else {
            k as usize
        }
    }

    /// Edge index at position `k` of a group's member range: an arena
    /// lookup for a tree, `k` itself for a circuit (members `0..n`).
    #[inline]
    fn member(&self, k: u32) -> usize {
        if self.kind == WormKind::Tree {
            self.group_members[k as usize] as usize
        } else {
            k as usize
        }
    }
}

/// Per-destination delivery slots. Single-destination unicasts — the
/// bulk of a mixed workload — keep theirs inline instead of paying a
/// heap allocation per message.
#[derive(Debug)]
enum Deliveries {
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
struct MessageState {
    id: MessageId,
    source: NodeId,
    injected_at: Time,
    deliveries: Deliveries,
    worms_total: usize,
    worms_done: usize,
    traffic: usize,
}

#[derive(Debug, Clone, Copy)]
enum Event {
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

const _: () = assert!(size_of::<Event>() == 16);

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
    network: Network,
    /// Channel owners and waiter queues, by channel id.
    chans: ChanTable,
    worms: Vec<WormState>,
    worm_free: Vec<usize>,
    messages: Vec<Option<MessageState>>,
    completed: Vec<CompletedMessage>,
    /// Calendar/bucket queue keyed on flit-time granularity, with a heap
    /// fallback for far-future events (DESIGN.md §10).
    events: EventQueue<Event>,
    now: Time,
    in_flight: usize,
    /// Events processed by this engine instance (the machine-insensitive
    /// work metric the BENCH probes report).
    steps: u64,
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
    /// count. Updated at worm build.
    peak_live_worms: usize,
    /// High-water mark of in-flight messages.
    peak_in_flight: usize,
    flit_time: Time,
    flits: u32,
    /// Total flit hops started (one per channel traversal of one flit) —
    /// the simulator's throughput denominator, counted unconditionally so
    /// benchmarks don't need a sink installed to read it.
    flit_hops: u64,
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
    /// Worm-build scratch: node → the message's delivery slot (`NONE` =
    /// not a destination). Filled from the plan's destinations for the
    /// builds of one inject and reset right after, like `scratch_feeder`.
    scratch_dest: Vec<u32>,
    /// Worm-build scratch: group keys and arena cursors.
    scratch_idx: Vec<u32>,
    /// Inject scratch: plan-index → worm-slot map for wiring staged
    /// dependencies without a per-inject allocation.
    scratch_slots: Vec<u32>,
}

impl Engine {
    /// Creates an engine over a network with the given physical
    /// parameters.
    pub fn new(network: Network, config: SimConfig) -> Self {
        Engine {
            flit_time: config.flit_time_ns(),
            flits: config.flits_per_message(),
            flit_hops: 0,
            chaos_swap_class: false,
            events: EventQueue::new(config.flit_time_ns()),
            scratch_feeder: vec![u32::MAX; network.num_nodes()],
            scratch_dest: vec![NONE; network.num_nodes()],
            scratch_idx: Vec::new(),
            scratch_slots: Vec::new(),
            config,
            chans: ChanTable::new(network.num_channels()),
            network,
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
        }
    }

    /// Accepted for compatibility and ignored: every run uses the one
    /// serial event loop. The window-parallel executor this selected
    /// was retired (DESIGN.md §15); the method stays only while callers
    /// outside the workspace still call it.
    pub fn set_engine_jobs(&mut self, _jobs: usize) {}

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
    /// `true` when the run loop should stop.
    #[inline]
    fn charge_budget(&mut self) -> bool {
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
    ///
    /// `plan.destinations` must be distinct, as [`MulticastSet::new`]
    /// makes them: each edge resolves its head node to one delivery
    /// slot at build. [`Engine::inject_checked`] reports a repeat as
    /// [`SimError::DuplicateDestination`]; here it is a caller bug.
    ///
    /// [`MulticastSet::new`]: mcast_core::model::MulticastSet::new
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
            if let Some((_, t)) = m
                .deliveries
                .slots_mut()
                .iter_mut()
                .find(|(d, _)| *d == source)
            {
                *t = Some(now);
                self.emit(SimEvent::Delivered {
                    at: now,
                    message: id,
                    node: plan.source,
                });
            }
        }

        if plan.worms.is_empty() {
            self.finish_message(msg_slot);
            return msg_slot;
        }

        // Build every worm first so staged dependencies can be wired by
        // plan index, then issue root requests in worm order — the same
        // request order as the old build-and-request interleaving, since
        // building touches no channel or event state.
        let mut slots = std::mem::take(&mut self.scratch_slots);
        slots.clear();
        for (i, &d) in plan.destinations.iter().enumerate() {
            debug_assert!(self.scratch_dest[d] == NONE, "destination {d} listed twice");
            self.scratch_dest[d] = i as u32;
        }
        for w in &plan.worms {
            let widx = self.build_worm(msg_slot, w);
            slots.push(widx as u32);
        }
        for &d in &plan.destinations {
            self.scratch_dest[d] = NONE;
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
                    self.request_channel(widx, 0);
                }
                WormKind::Path | WormKind::Tree => {
                    // Request the root-group channels. Requests never
                    // touch the upstream topology of other edges, so a
                    // plain forward scan needs no collected list.
                    for e in 0..self.worms[widx].edges.len() {
                        if self.worms[widx].edges[e].upstream == NONE {
                            self.request_channel(widx, e);
                        }
                    }
                }
            }
        }
        self.scratch_slots = slots;
        msg_slot
    }

    fn build_worm(&mut self, message: MessageId, plan: &PlanWorm) -> usize {
        // Last line of defence behind `inject_checked`'s typed error.
        assert!(
            plan.num_edges() <= MAX_WORM_EDGES,
            "worm edges exhaust u32 edge ids"
        );
        // Fill a free slot in place: its vec capacities survive reuse and
        // its incarnation counter carries forward, so events scheduled
        // for the previous (aborted) occupant stay stale.
        let slot = match self.worm_free.pop() {
            Some(slot) => slot,
            None => {
                assert!(
                    self.worms.len() < NONE as usize,
                    "worm slots exhaust u32 ids"
                );
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
                    let upstream = if i == 0 { NONE } else { i as u32 - 1 };
                    // A chain needs no arena: edge i's one child is i + 1.
                    w.edges.push(EdgeState {
                        child_start: i as u32 + 1,
                        child_count: u32::from(i + 1 < hops),
                        ..EdgeState::new(win[0], win[1], p.class, upstream)
                    });
                }
            }
            PlanWorm::Tree(t) => {
                assert!(!t.edges.is_empty(), "tree worm needs at least one edge");
                // `scratch_feeder[node]` = edge that feeds `node`.
                for (i, &(from, to, class)) in t.edges.iter().enumerate() {
                    let upstream = if from == t.root {
                        NONE
                    } else {
                        let f = scratch_feeder[from];
                        assert!(f != u32::MAX, "tree edge {from}->{to} has no feeder");
                        f
                    };
                    assert!(
                        scratch_feeder[to] == u32::MAX,
                        "tree plan visits node {to} twice"
                    );
                    scratch_feeder[to] = i as u32;
                    // Child range carved, group assigned and candidates
                    // resolved below.
                    w.edges.push(EdgeState::new(from, to, class, upstream));
                }
                for &(_, to, _) in &t.edges {
                    scratch_feeder[to] = u32::MAX;
                }
                // Carve per-edge child ranges out of the arena: count,
                // prefix-sum, then fill (ascending edge index, the same
                // order the old per-edge vecs were pushed in).
                for i in 0..w.edges.len() {
                    if let Some(u) = w.edges[i].upstream() {
                        w.edges[u].child_count += 1;
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
                    if let Some(u) = w.edges[i].upstream() {
                        let c = scratch_idx[u];
                        w.children[c as usize] = i as u32;
                        scratch_idx[u] = c + 1;
                    }
                }
            }
        }
        // Group assignment: siblings sharing the same feeding edge (or the
        // root) form one branch group — the nCUBE-2 all-or-nothing
        // acquisition unit. A path edge is a group of its own, open the
        // moment it is granted, so a path worm keeps no groups.
        match kind {
            WormKind::Circuit => {
                // The whole circuit is one all-or-nothing reservation
                // unit; its members are edges `0..n`.
                w.groups.push(GroupState {
                    start: 0,
                    members: w.edges.len() as u32,
                    owned: 0,
                });
                for es in w.edges.iter_mut() {
                    es.group = 0;
                }
            }
            WormKind::Path => {}
            WormKind::Tree => {
                // `scratch_idx[upstream + 1]` (0 = root-fed) = group id;
                // first occurrence creates the group, matching the old
                // hash-map entry() walk's creation order.
                scratch_idx.clear();
                scratch_idx.resize(w.edges.len() + 1, u32::MAX);
                for i in 0..w.edges.len() {
                    let key = w.edges[i].upstream().map_or(0, |u| u + 1);
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
        // Resolve every hop's channel-candidate range and delivery slot
        // once, here at build time, so the event cascade never consults
        // the network topology or scans the destination list. The chaos
        // class swap (DESIGN.md §12) resolves here too, which is why it
        // must be armed before injection.
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
                (es.from as NodeId, es.to as NodeId, es.class)
            };
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
                ClassChoice::Any => (
                    self.network
                        .link_base(from, to)
                        .unwrap_or_else(|| panic!("no channel {from}->{to} in network")),
                    self.network.classes(),
                ),
            };
            // Ids fit `u32`: `Network::new` bounds the channel count.
            let dest = self.scratch_dest[to];
            let es = &mut self.worms[slot].edges[i];
            es.cand_base = base as u32;
            es.cand_count = count;
            es.dest = dest;
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
        self.exec_event(ev);
        true
    }

    /// Runs until no events remain or the simulation time would exceed
    /// `until`. Returns the number of events processed.
    pub fn run_until(&mut self, until: Time) -> usize {
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
        while self.has_events() {
            if self.charge_budget() {
                return false;
            }
            self.step();
        }
        self.in_flight == 0
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
                if e.waiting() {
                    out.push((w.message, e.from as NodeId, e.to as NodeId));
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
                .filter(|e| !e.done())
                .filter_map(EdgeState::channel)
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
            let awaited: Vec<ChannelId> = w.edges.iter().filter_map(|e| opt(e.queued_on)).collect();
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
    /// hops whose channels all died, empty worms and destinations that
    /// are repeated or not in the network become a [`SimError`] instead
    /// of a panic deep in the event loop.
    pub fn inject_checked(&mut self, plan: &DeliveryPlan) -> Result<MessageId, SimError> {
        self.check_destinations(&plan.destinations)?;
        for (i, w) in plan.worms.iter().enumerate() {
            check_worm_edges(i, w.num_edges())?;
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

    /// Rejects the first destination that is not a node of the network
    /// or that `dests` lists twice. Marks nodes in `scratch_dest` and
    /// leaves it clear again.
    fn check_destinations(&mut self, dests: &[NodeId]) -> Result<(), SimError> {
        let bad = dests
            .iter()
            .find_map(|&node| match self.scratch_dest.get_mut(node) {
                None => Some(SimError::UnknownDestination { node }),
                Some(m) if *m != NONE => Some(SimError::DuplicateDestination { node }),
                Some(m) => {
                    *m = 0;
                    None
                }
            });
        for &d in dests {
            if let Some(m) = self.scratch_dest.get_mut(d) {
                *m = NONE;
            }
        }
        bad.map_or(Ok(()), Err)
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
            if let Some((w, _)) = self.chans.owner(chan) {
                if self.worms[w].active {
                    affected.insert(self.worms[w].message);
                }
            }
            // Queued waiters re-request: a surviving class copy absorbs
            // them, otherwise they stall and are reported broken too.
            let waiters: Vec<(usize, usize)> =
                std::iter::from_fn(|| self.chans.dequeue(chan)).collect();
            for (w, e) in waiters {
                if self.worms[w].active && self.worms[w].edges[e].waiting() {
                    self.worms[w].edges[e].queued_on = NONE;
                    self.request_channel(w, e);
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
                let es = &mut self.worms[w].edges[e];
                let queued_on = std::mem::replace(&mut es.queued_on, NONE);
                let channel = std::mem::replace(&mut es.channel, NONE);
                es.set_flag(BUSY, false);
                if let Some(c) = opt(queued_on) {
                    self.chans.remove_waiter(c, w, e);
                }
                if let Some(chan) = opt(channel) {
                    self.release(chan);
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
        self.retire_slot(msg, m.deliveries);
        Some(AbortedMessage {
            id: m.id,
            source: m.source,
            injected_at: m.injected_at,
            delivered,
            pending,
            traffic: m.traffic,
        })
    }
}

/// Most edges one worm may have: edge ids are `u32`, with `u32::MAX`
/// reserved as the [`NONE`] sentinel.
const MAX_WORM_EDGES: usize = NONE as usize - 1;

/// Rejects plan worm `worm` if its `edges` cannot all take `u32` ids.
fn check_worm_edges(worm: usize, edges: usize) -> Result<(), SimError> {
    if edges > MAX_WORM_EDGES {
        return Err(SimError::WormTooLong { worm, edges });
    }
    Ok(())
}

/// The event cascade: one popped event, and the channel grants,
/// releases, flit transfers and completions it sets off.
impl Engine {
    /// Applies one popped event: the stale-generation / inactive-worm
    /// guards, then the transfer or request cascade.
    fn exec_event(&mut self, ev: Event) {
        match ev {
            // Events for a bumped generation belong to an aborted worm
            // whose slot may have been reused — drop them silently.
            Event::TransferComplete { worm, edge, gen } => {
                let (worm, edge) = (worm as usize, edge as usize);
                let wst = &self.worms[worm];
                if wst.gen == gen && wst.active {
                    self.on_transfer_complete(worm, edge);
                }
            }
            Event::RequestChannel { worm, edge, gen } => {
                let (worm, edge) = (worm as usize, edge as usize);
                let wst = &self.worms[worm];
                if wst.gen == gen
                    && wst.active
                    && wst.edges[edge].channel == NONE
                    && !wst.edges[edge].waiting()
                {
                    self.request_channel(worm, edge);
                }
            }
        }
    }

    /// Externally reported id of the live message in `slot` (equal to
    /// `slot` unless streaming mode recycled it). Sink events carry
    /// this, never the slot, so streamed and non-streamed runs emit
    /// identical event streams.
    #[inline]
    fn msg_id(&self, slot: MessageId) -> MessageId {
        self.messages[slot].as_ref().map_or(slot, |m| m.id)
    }

    /// Requests a channel for edge `e` of worm `w`: grabs an idle copy
    /// if one exists, otherwise queues on the shortest queue (class 0
    /// on ties). Candidate channel ids were resolved at worm-build time
    /// (`cand_base`/`cand_count`), so the cascade never consults the
    /// network topology.
    fn request_channel(&mut self, w: usize, e: usize) {
        let (base, count) = {
            let es = &self.worms[w].edges[e];
            if es.channel != NONE || es.waiting() || es.done() {
                // Idempotence: circuit establishment and header arrival
                // can both ask for the same edge; a second request must
                // not enqueue a duplicate (a stale duplicate would
                // re-grant an already-released channel to a finished
                // worm, orphaning it forever).
                return;
            }
            (es.cand_base as usize, es.cand_count as usize)
        };
        // Dead channels are never granted and never queued on. Grant
        // the first live idle copy; otherwise remember the least-loaded
        // live copy (strict `<` keeps the lowest class on queue-length
        // ties, as the old `min_by_key` over (len, class) did).
        let mut best: Option<(usize, ChannelId)> = None;
        for chan in base..base + count {
            if !self.network.is_alive(chan) {
                continue;
            }
            if self.chans.owner(chan).is_none() {
                self.grant(chan, w, e);
                return;
            }
            let qlen = self.chans.queue_len(chan);
            if best.is_none_or(|(len, _)| qlen < len) {
                best = Some((qlen, chan));
            }
        }
        let Some((_, target)) = best else {
            // Every copy of this hop is dead: the worm is wedged by
            // hardware, not by contention — flag it stalled for the
            // recovery layer (the plain engine then reports it via
            // `stalled_messages`).
            self.worms[w].stalled = true;
            let message = self.msg_id(self.worms[w].message);
            self.emit(SimEvent::WormStalled {
                at: self.now,
                message,
            });
            return;
        };
        self.chans.enqueue(target, w, e);
        self.worms[w].edges[e].queued_on = target as u32;
        if self.sink.is_some() {
            let message = self.msg_id(self.worms[w].message);
            self.emit(SimEvent::ChannelBlocked {
                at: self.now,
                channel: target,
                message,
            });
        }
    }

    fn grant(&mut self, chan: ChannelId, w: usize, e: usize) {
        assert!(
            self.chans.owner(chan).is_none(),
            "double grant of channel {chan}"
        );
        debug_assert!(self.network.is_alive(chan), "granting a dead channel");
        self.chans.set_owner(chan, Some((w, e)));
        if self.sink.is_some() {
            let message = self.msg_id(self.worms[w].message);
            self.emit(SimEvent::ChannelAcquired {
                at: self.now,
                channel: chan,
                message,
            });
        }
        let wst = &mut self.worms[w];
        wst.edges[e].channel = chan as u32;
        wst.edges[e].queued_on = NONE;
        if wst.kind == WormKind::Path {
            // A path edge is its own branch group: granted means open.
            self.try_start(w, e);
            return;
        }
        let g = wst.edges[e].group as usize;
        wst.groups[g].owned += 1;
        if wst.kind == WormKind::Circuit {
            // Circuit establishment: the control packet advances to the
            // next hop after its per-hop setup time.
            let next = e + 1;
            if next < wst.edges.len() {
                let gen = wst.gen;
                self.events.push(
                    self.now + self.config.circuit_setup_ns,
                    Event::RequestChannel {
                        worm: w as u32,
                        edge: next as u32,
                        gen,
                    },
                );
            }
        }
        let grp = self.worms[w].groups[g];
        if grp.owned == grp.members {
            // Group open: all its edges may start moving flits. The
            // member range is immutable while the worm lives, so walk
            // it by index (ascending edge order, as before).
            for k in grp.start..grp.start + grp.members {
                let i = self.worms[w].member(k);
                self.try_start(w, i);
            }
        }
    }

    fn release(&mut self, chan: ChannelId) {
        if self.sink.is_some() {
            if let Some((w, _)) = self.chans.owner(chan) {
                let message = self.msg_id(self.worms[w].message);
                self.emit(SimEvent::ChannelReleased {
                    at: self.now,
                    channel: chan,
                    message,
                });
            }
        }
        self.chans.set_owner(chan, None);
        if !self.network.is_alive(chan) {
            // A channel that died while owned grants nobody once the
            // owner lets go: re-route its queued waiters — they may
            // have a surviving Any-class copy, or they stall for
            // recovery.
            let waiters: Vec<(usize, usize)> =
                std::iter::from_fn(|| self.chans.dequeue(chan)).collect();
            for (w, e) in waiters {
                debug_assert!(self.worms[w].active && self.worms[w].edges[e].waiting());
                self.worms[w].edges[e].queued_on = NONE;
                self.request_channel(w, e);
            }
            return;
        }
        // Queues hold no stale entries: a waiter leaves its queue
        // exactly when it stops waiting (granted here, scrubbed by an
        // abort, or drained off a dead channel), and a worm cannot
        // finish while one of its edges waits.
        if let Some((w, e)) = self.chans.dequeue(chan) {
            debug_assert!(self.worms[w].active && self.worms[w].edges[e].waiting());
            self.grant(chan, w, e);
        }
    }

    /// Whether edge `e` can transfer its next flit now; if so, schedule
    /// the completion event.
    fn try_start(&mut self, w: usize, e: usize) {
        // One read-only pass over the worm decides whether the flit can
        // move — `worms[w]`/`edges[e]` are bounds-checked once instead
        // of once per condition (this runs several times per flit hop).
        let wst = &self.worms[w];
        if !wst.active {
            return;
        }
        let es = &wst.edges[e];
        let Some(chan) = es.channel() else { return };
        if es.flags != 0 {
            return; // busy or done
        }
        let flit = es.crossed;
        if flit >= self.flits {
            return;
        }
        // A granted path edge's group (itself) is open; trees and
        // circuits wait in lock-step until their group is fully owned.
        if wst.kind != WormKind::Path {
            let grp = wst.groups[es.group as usize];
            if grp.owned < grp.members {
                return;
            }
        }
        let upstream = es.upstream();
        // Upstream flit availability.
        if let Some(u) = upstream {
            if wst.edges[u].crossed <= flit {
                return;
            }
        } else if wst.kind == WormKind::Tree {
            // Source-fed tree edge: the branches replicate flits from a
            // single injection buffer of `buffer_flits` capacity, so a
            // flit is discarded (making room for the next) only when
            // *every* root branch has taken it — the source-side
            // lock-step of §6.1. (Path and circuit worms stream from
            // the source unconstrained.)
            let grp = wst.groups[es.group as usize];
            let mut min_taken = u32::MAX;
            for k in grp.start..grp.start + grp.members {
                let s = &wst.edges[wst.group_members[k as usize] as usize];
                min_taken = min_taken.min(s.crossed + u32::from(s.busy()));
            }
            if flit >= min_taken + self.config.buffer_flits {
                return;
            }
        }
        // Downstream buffer space at the head node: flits that crossed
        // e but have not left through every child yet. A flit currently
        // on the wire of a child channel has already left the buffer
        // (its slot frees at transfer start, as in credit-based flow
        // control), so children mid-transfer count toward the outflow.
        if es.child_count > 0 {
            let mut outflow = u32::MAX;
            for k in es.child_start..es.child_start + es.child_count {
                let ch = &wst.edges[wst.child(k)];
                outflow = outflow.min(ch.crossed + u32::from(ch.busy()));
            }
            if es.crossed - outflow.min(es.crossed) >= self.config.buffer_flits {
                return;
            }
        }
        let kind = wst.kind;
        let gen = wst.gen;
        let message = wst.message;
        // Start the transfer.
        let dt = self.flit_time
            + if flit == 0 {
                self.config.routing_delay_ns
            } else {
                0
            };
        self.worms[w].edges[e].set_flag(BUSY, true);
        self.flit_hops += 1;
        if self.sink.is_some() {
            let start = self.now;
            let message = self.msg_id(message);
            self.emit(SimEvent::FlitHop {
                start,
                end: start + dt,
                channel: chan,
                message,
                flit,
            });
        }
        self.events.push(
            self.now + dt,
            Event::TransferComplete {
                worm: w as u32,
                edge: e as u32,
                gen,
            },
        );
        // Starting frees a buffer slot upstream (flow-control credit at
        // transfer start): retry the feeder, or the root-group siblings.
        if let Some(u) = upstream {
            self.try_start(w, u);
        } else if kind == WormKind::Tree {
            self.try_start_siblings(w, e);
        }
    }

    /// Retries every group sibling of edge `e` (ascending edge index,
    /// skipping `e` itself) — the shared-buffer wakeup for root-fed
    /// tree branches. Walks the immutable member arena by index, so no
    /// sibling list is allocated.
    fn try_start_siblings(&mut self, w: usize, e: usize) {
        let grp = self.worms[w].groups[self.worms[w].edges[e].group as usize];
        for k in grp.start..grp.start + grp.members {
            let s = self.worms[w].group_members[k as usize] as usize;
            if s != e {
                self.try_start(w, s);
            }
        }
    }

    fn on_transfer_complete(&mut self, w: usize, e: usize) {
        // Snapshot the immutable topology of the edge (feeder, child
        // range, worm kind) in the same pass that bumps its flit count,
        // so the retry cascade below doesn't re-index the worm per
        // field.
        let (crossed, upstream, cs, cn, kind) = {
            let wst = &mut self.worms[w];
            let kind = wst.kind;
            let es = &mut wst.edges[e];
            es.set_flag(BUSY, false);
            es.crossed += 1;
            (
                es.crossed,
                es.upstream(),
                es.child_start,
                es.child_count,
                kind,
            )
        };
        if crossed == 1 && kind != WormKind::Circuit {
            // Header arrived at head(e): claim the next channels.
            // (Circuit worms acquire through the establishment chain
            // instead.) The child arena is immutable while the worm
            // lives, so walk it by index instead of cloning a per-flit
            // list.
            for k in cs..cs + cn {
                let c = self.worms[w].child(k);
                self.request_channel(w, c);
            }
        }
        if crossed == self.flits {
            // Tail crossed: release the channel, record delivery.
            let es = &mut self.worms[w].edges[e];
            let chan = opt(std::mem::replace(&mut es.channel, NONE)).expect("owned while crossing");
            es.set_flag(DONE, true);
            self.release(chan);
            let msg_slot = self.worms[w].message;
            if let Some(slot) = opt(self.worms[w].edges[e].dest) {
                self.record_delivery(msg_slot, slot);
            }
            let wst = &mut self.worms[w];
            wst.edges_done += 1;
            if wst.edges_done == wst.edges.len() {
                wst.active = false;
                // Release staged dependents in-cascade, exactly like a
                // channel release granting a queued waiter, so a
                // dependent's root request happens inside its feeder's
                // own event. The drained vec goes back to keep its
                // capacity across slot reuse.
                let mut deps = std::mem::take(&mut wst.dependents);
                for &(d, g) in &deps {
                    let d = d as usize;
                    let ds = &mut self.worms[d];
                    if ds.gen == g && ds.active && ds.deps_pending > 0 {
                        ds.deps_pending -= 1;
                        if ds.deps_pending == 0 {
                            // A staged worm is a path worm: its single
                            // root is edge 0.
                            self.request_channel(d, 0);
                        }
                    }
                }
                deps.clear();
                self.worms[w].dependents = deps;
                let m = self.messages[msg_slot].as_mut().expect("message live");
                m.worms_done += 1;
                if m.worms_done == m.worms_total {
                    self.finish_message(msg_slot);
                }
                self.worm_free.push(w);
            }
        }
        // Progress may unblock this edge (next flit), the upstream edge
        // (space freed), the children (flit available), and — for root
        // edges — the group siblings sharing the injection buffer.
        self.try_start(w, e);
        if let Some(u) = upstream {
            self.try_start(w, u);
        } else if kind == WormKind::Tree {
            self.try_start_siblings(w, e);
        }
        for k in cs..cs + cn {
            let c = self.worms[w].child(k);
            self.try_start(w, c);
        }
    }

    /// Records delivery slot `slot` of message `msg` at the current
    /// time unless an earlier tail (of any of its worms) already did.
    fn record_delivery(&mut self, msg: MessageId, slot: usize) {
        let now = self.now;
        let m = self.messages[msg].as_mut().expect("message live");
        let (node, t) = &mut m.deliveries.slots_mut()[slot];
        if t.is_some() {
            return;
        }
        *t = Some(now);
        if self.sink.is_some() {
            let (message, node) = (m.id, *node);
            self.emit(SimEvent::Delivered {
                at: now,
                message,
                node,
            });
        }
    }

    fn finish_message(&mut self, msg: MessageId) {
        let m = self.messages[msg].take().expect("message live");
        let mut deliveries = if self.stream {
            self.spare_done.pop().unwrap_or_default()
        } else {
            Vec::new()
        };
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
        self.completed.push(CompletedMessage {
            id: m.id,
            source: m.source,
            injected_at: m.injected_at,
            completed_at,
            deliveries,
            traffic: m.traffic,
        });
        self.in_flight -= 1;
        self.emit(SimEvent::MessageCompleted {
            at: completed_at,
            message: m.id,
            latency_ns: completed_at - m.injected_at,
        });
        self.retire_slot(msg, m.deliveries);
    }

    /// Retires message slot `slot`, recycling its delivery buffer. A
    /// no-op (beyond dropping the buffer) when streaming is off,
    /// preserving the grow-only slot == id invariant.
    fn retire_slot(&mut self, slot: MessageId, d: Deliveries) {
        if self.stream {
            if let Deliveries::Many(mut v) = d {
                v.clear();
                self.spare_slots.push(v);
            }
            self.msg_free.push(slot);
        }
    }
}

impl Engine {
    /// Debug: the (message, edge) currently owning a channel, if any.
    pub fn debug_owner(&self, chan: ChannelId) -> Option<(MessageId, usize)> {
        self.chans
            .owner(chan)
            .map(|(w, e)| (self.worms[w].message, e))
    }
}

impl Engine {
    /// Debug: raw owner slot info for a channel: (worm slot, edge, message, active).
    pub fn debug_owner_full(&self, chan: ChannelId) -> Option<(usize, usize, MessageId, bool)> {
        self.chans
            .owner(chan)
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

    /// Edge ids are `u32` with `u32::MAX` reserved, so `u32::MAX - 1`
    /// edges is the longest worm accepted (closed-form counts: no plan
    /// that size is built).
    #[test]
    fn worm_edge_limit_is_a_typed_error() {
        use crate::error::SimError;
        let max = u32::MAX as usize - 1;
        assert_eq!(check_worm_edges(0, 1), Ok(()));
        assert_eq!(check_worm_edges(2, max), Ok(()));
        assert_eq!(
            check_worm_edges(2, max + 1),
            Err(SimError::WormTooLong {
                worm: 2,
                edges: max + 1
            })
        );
    }

    /// Waiter queues are FIFO and exist only while a channel has
    /// waiters: an emptied queue goes back to the pool for the next
    /// channel that blocks.
    #[test]
    fn chan_table_pools_fifo_queues() {
        let mut t = ChanTable::new(4);
        assert_eq!(t.owner(2), None);
        t.set_owner(2, Some((0, 5)));
        assert_eq!(t.owner(2), Some((0, 5)));
        t.enqueue(2, 7, 1);
        t.enqueue(2, 3, 0);
        t.enqueue(2, 9, 4);
        assert_eq!(t.queue_len(2), 3);
        t.remove_waiter(2, 3, 0);
        assert_eq!(t.queue_len(2), 2);
        t.enqueue(2, 8, 2);

        assert_eq!(t.owner(2), Some((0, 5)));
        assert_eq!(t.dequeue(2), Some((7, 1)));
        assert_eq!(t.dequeue(2), Some((9, 4)));
        assert_eq!(t.dequeue(2), Some((8, 2)));
        assert_eq!(t.dequeue(2), None);
        assert_eq!(t.queue_len(2), 0);
        // Every queue is back in the pool; the next blocked channel
        // reuses one instead of growing it.
        let pooled = t.queues.len();
        assert_eq!(t.free.len(), pooled);
        t.enqueue(0, 1, 1);
        assert_eq!(t.queues.len(), pooled);
    }

    #[test]
    fn inject_checked_rejects_repeated_and_unknown_destinations() {
        use crate::error::SimError;
        let mut e = engine_4x4();
        let plan = path_plan(vec![0, 1, 2, 3], vec![3, 1, 3]);
        assert_eq!(
            e.inject_checked(&plan),
            Err(SimError::DuplicateDestination { node: 3 })
        );
        let plan = path_plan(vec![0, 1, 2, 3], vec![3, 16, 1]);
        assert_eq!(
            e.inject_checked(&plan),
            Err(SimError::UnknownDestination { node: 16 })
        );
        assert_eq!(e.in_flight(), 0, "rejected plans leave nothing behind");
        // The screen leaves its node map clear: distinct destinations,
        // including the ones just rejected, inject and deliver.
        let id = e
            .inject_checked(&path_plan(vec![0, 1, 2, 3], vec![3, 1]))
            .unwrap();
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].deliveries.len(), 2);
    }

    #[test]
    fn pass_through_tail_delivers_before_the_assigned_worm_arrives() {
        // Worm A streams 0 -> 1 -> 2 -> 3 and passes through destination
        // 2; worm B reaches 2 the long way. Node 2 counts as delivered
        // when A's tail crosses into it, long before B arrives, and it is
        // delivered once.
        let mut e = engine_4x4();
        let cfg = *e.config();
        let rec = mcast_obs::Recording::new();
        e.set_sink(Box::new(rec.clone()));
        e.inject(&DeliveryPlan {
            source: 0,
            destinations: vec![2, 3],
            worms: vec![
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 1, 2, 3],
                    class: ClassChoice::Any,
                }),
                PlanWorm::Path(PlanPath {
                    nodes: vec![0, 4, 5, 6, 2],
                    class: ClassChoice::Any,
                }),
            ],
        });
        assert!(e.run_to_quiescence());
        let done = e.take_completed();
        let (ft, hop) = (
            cfg.flit_time_ns(),
            cfg.flit_time_ns() + cfg.routing_delay_ns,
        );
        let single = cfg.routing_delay_ns + ft * cfg.flits_per_message() as u64;
        // A's tail enters node 2 one flit time before it reaches 3.
        let first = single + 2 * hop - ft;
        assert_eq!(first, 7350);
        assert_eq!(done[0].deliveries, vec![(2, first), (3, single + 2 * hop)]);
        assert_eq!(done[0].completed_at, single + 2 * hop);
        // B's tail crosses 6 -> 2 two hops later.
        let b_last = e
            .network()
            .id_of(mcast_topology::Channel::with_class(6, 2, 0))
            .unwrap();
        let events = rec.events();
        let b_arrival = events
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::FlitHop { end, channel, .. } if channel == b_last => Some(end),
                _ => None,
            })
            .max();
        assert_eq!(b_arrival, Some(single + 3 * hop));
        let delivered: Vec<NodeId> = events
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::Delivered { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![2, 3]);
    }

    #[test]
    fn tree_and_circuit_deliveries_are_pinned() {
        // An x-first tree and a three-destination circuit contending on
        // one 4x4 mesh: every delivery slot of both kinds of worm, pinned
        // to the simulated nanosecond.
        let m = Mesh2D::new(4, 4);
        let mc = MulticastSet::new(5, [0, 3, 6, 12, 15]);
        let tree = mcast_core::xfirst::xfirst_tree(&m, &mc);
        let mut e = engine_4x4();
        e.inject(&DeliveryPlan::from_tree(&mc, &tree, ClassChoice::Any));
        e.inject(&DeliveryPlan {
            source: 4,
            destinations: vec![6, 7, 11],
            worms: vec![PlanWorm::Circuit(PlanPath {
                nodes: vec![4, 5, 6, 7, 11],
                class: ClassChoice::Any,
            })],
        });
        assert!(e.run_to_quiescence());
        let done: Vec<(Time, Vec<(NodeId, Time)>)> = e
            .take_completed()
            .into_iter()
            .map(|c| (c.completed_at, c.deliveries))
            .collect();
        assert_eq!(
            done,
            vec![
                (
                    8200,
                    vec![(0, 7350), (3, 7800), (6, 7000), (12, 7750), (15, 8200)]
                ),
                (16100, vec![(6, 15300), (7, 15700), (11, 16100)]),
            ]
        );
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
