//! Fault injection and deadlock recovery supervision for the wormhole
//! engine (DESIGN.md §8).
//!
//! The dissertation's algorithms make deadlock *avoidance* guarantees on
//! healthy networks; this module handles the other regime — channels
//! failing mid-flight, routers that were never deadlock-free (the §6.1
//! tree schemes), and escape worms outside the provably-acyclic
//! subnetworks. A [`RecoveryEngine`] wraps the flit-level engine with a
//! watchdog:
//!
//! * **wedge detection** — the engine quiescing with messages in flight
//!   is a proof of no-progress (no event can ever fire again); the
//!   watchdog picks a victim from the wait-for cycle
//!   ([`crate::diagnose::find_wait_cycle`]) or the set of worms stalled
//!   on all-dead hops;
//! * **per-message timeout** — messages in flight past their deadline
//!   are presumed wedged even if the network is still busy;
//! * **abort–drain–retry** — a victim is torn out of the network
//!   (releasing its channels, which wakes queued waiters), re-planned
//!   against the *current* fault state for its still-undelivered
//!   destinations, and re-injected after a capped exponential backoff;
//!   a bounded retry budget turns persistent failures into recorded
//!   drops instead of livelock.
//!
//! Every action is logged as a [`RecoveryEvent`] and aggregated into
//! [`RecoveryStats`] — the abort/retry/drop counts and delivery ratios
//! the fault-sweep experiments report.

use std::collections::HashMap;

use mcast_core::fault_route::{fault_dual_path, fault_multi_path, fault_multi_path_mesh};
use mcast_core::model::MulticastSet;
use mcast_core::RouteError;
use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
use mcast_topology::{
    FaultEvent, FaultMask, FaultSchedule, Hypercube, Labeling, Mesh2D, NodeId, Topology,
};

use mcast_obs::{AbortCode, SimEvent, Sink};

use crate::diagnose::find_wait_cycle;
use crate::engine::{Engine, MessageId, SimConfig, Time};
use crate::network::Network;
use crate::plan::DeliveryPlan;
use crate::routers::MulticastRouter;

/// A delivery plan produced under a fault mask.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The plan; its `destinations` cover exactly the reachable targets.
    pub plan: DeliveryPlan,
    /// Destinations the planner could not reach on the surviving
    /// network (dead nodes or disconnected survivors).
    pub unreachable: Vec<NodeId>,
    /// Worms routed outside the provably deadlock-free subnetworks
    /// (escape paths) — they need watchdog supervision.
    pub escapes: usize,
}

/// A multicast router that can plan around a [`FaultMask`].
///
/// The contract mirrors [`crate::routers::MulticastRouter`], with the
/// mask as an extra input and typed failure instead of panics: planners
/// report dead sources via [`RouteError::SourceFailed`] and per-target
/// unreachability via [`FaultPlan::unreachable`].
pub trait FaultMulticastRouter {
    /// Short name for reports (e.g. `"fault-dual-path"`).
    fn name(&self) -> &'static str;

    /// Channel classes the scheme needs.
    fn required_classes(&self) -> u8 {
        1
    }

    /// Produces a delivery plan for `mc` avoiding everything `mask`
    /// declares dead.
    fn plan(&self, mc: &MulticastSet, mask: &FaultMask) -> Result<FaultPlan, RouteError>;
}

/// Watchdog and retry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Per-message delivery deadline: a message in flight longer than
    /// this (per attempt) is aborted and retried.
    pub timeout_ns: Time,
    /// Backoff before the first retry.
    pub backoff_base_ns: Time,
    /// Backoff ceiling (the exponential doubling is capped here).
    pub backoff_cap_ns: Time,
    /// Maximum aborts per message before it is dropped.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            timeout_ns: 2_000_000,
            backoff_base_ns: 5_000,
            backoff_cap_ns: 200_000,
            max_retries: 8,
        }
    }
}

/// Why the watchdog aborted a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The per-message deadline expired.
    Timeout,
    /// The engine wedged (quiescent with messages in flight) and this
    /// message was chosen from the wait-for cycle.
    Deadlock,
    /// A channel failure physically severed the message's worms, or
    /// every copy of a needed hop is dead.
    Broken,
}

impl AbortReason {
    /// The dependency-free observability mirror of this reason.
    fn code(self) -> AbortCode {
        match self {
            AbortReason::Timeout => AbortCode::Timeout,
            AbortReason::Deadlock => AbortCode::Deadlock,
            AbortReason::Broken => AbortCode::Broken,
        }
    }
}

/// One structured recovery action, timestamped in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A physical link failed (both directions, all classes).
    LinkFailed {
        /// Failure time.
        at: Time,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A node failed (all incident links died).
    NodeFailed {
        /// Failure time.
        at: Time,
        /// The failed node.
        node: NodeId,
    },
    /// A message was torn out of the network.
    Aborted {
        /// Abort time.
        at: Time,
        /// Logical message index.
        message: usize,
        /// Aborts of this message so far (1 = first).
        attempt: u32,
        /// What triggered the abort.
        reason: AbortReason,
    },
    /// A message was re-planned and re-injected.
    Retried {
        /// Re-injection time.
        at: Time,
        /// Logical message index.
        message: usize,
        /// Abort count preceding this retry.
        attempt: u32,
        /// Destinations still pending in the retry plan.
        pending: usize,
    },
    /// A message gave up with undelivered destinations.
    Dropped {
        /// Drop time.
        at: Time,
        /// Logical message index.
        message: usize,
        /// Destinations never delivered.
        undelivered: usize,
    },
    /// Every destination of a message was delivered.
    Completed {
        /// Completion time (last destination's tail).
        at: Time,
        /// Logical message index.
        message: usize,
    },
}

/// Aggregated recovery accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Messages submitted.
    pub submitted: usize,
    /// Messages whose every pending destination was delivered.
    pub completed: usize,
    /// Messages dropped with undelivered destinations.
    pub dropped: usize,
    /// Watchdog aborts (all reasons).
    pub aborts: usize,
    /// Successful re-injections.
    pub retries: usize,
    /// Link failures applied.
    pub link_failures: usize,
    /// Node failures applied.
    pub node_failures: usize,
    /// Destinations declared unreachable by the planner.
    pub unreachable_destinations: usize,
    /// Escape worms injected (supervised, not provably deadlock-free).
    pub escape_worms: usize,
}

/// Final per-message record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageOutcome {
    /// Source node.
    pub source: NodeId,
    /// The full original destination set.
    pub destinations: Vec<NodeId>,
    /// Delivered destinations with their delivery times.
    pub delivered: Vec<(NodeId, Time)>,
    /// Destinations never delivered (unreachable or dropped).
    pub undelivered: Vec<NodeId>,
    /// Abort count.
    pub attempts: u32,
    /// Submission time.
    pub submitted_at: Time,
    /// Time the last pending destination was delivered (`None` if the
    /// message was dropped).
    pub finished_at: Option<Time>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Live,
    WaitingRetry(Time),
    Done,
    Dropped,
}

#[derive(Debug)]
struct Logical {
    source: NodeId,
    destinations: Vec<NodeId>,
    delivered: Vec<(NodeId, Time)>,
    /// Destinations still wanted (the retry set).
    pending: Vec<NodeId>,
    /// Destinations given up on.
    undelivered: Vec<NodeId>,
    attempts: u32,
    submitted_at: Time,
    finished_at: Option<Time>,
    engine_id: Option<MessageId>,
    deadline: Time,
    state: State,
}

/// The supervised engine: faults, watchdog, abort–drain–retry.
pub struct RecoveryEngine<'a> {
    engine: Engine,
    router: &'a dyn FaultMulticastRouter,
    policy: RecoveryPolicy,
    mask: FaultMask,
    schedule: FaultSchedule,
    schedule_pos: usize,
    msgs: Vec<Logical>,
    by_engine: HashMap<MessageId, usize>,
    /// Future submissions, kept sorted by time ascending.
    submissions: Vec<(Time, MulticastSet)>,
    events: Vec<RecoveryEvent>,
    stats: RecoveryStats,
}

impl<'a> RecoveryEngine<'a> {
    /// Creates a supervised engine over `network`.
    pub fn new(
        network: Network,
        config: SimConfig,
        router: &'a dyn FaultMulticastRouter,
        policy: RecoveryPolicy,
    ) -> Self {
        RecoveryEngine {
            engine: Engine::new(network, config),
            router,
            policy,
            mask: FaultMask::none(),
            schedule: FaultSchedule::none(),
            schedule_pos: 0,
            msgs: Vec::new(),
            by_engine: HashMap::new(),
            submissions: Vec::new(),
            events: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Applies a static fault mask before traffic starts (failures
    /// present from `t = 0`).
    pub fn with_initial_faults(mut self, mask: &FaultMask) -> Self {
        self.mask = mask.clone();
        self.engine.apply_fault_mask(mask);
        self
    }

    /// Installs a timed fault schedule (failures injected mid-run).
    pub fn set_schedule(&mut self, schedule: FaultSchedule) {
        self.schedule = schedule;
        self.schedule_pos = 0;
    }

    /// The current fault state.
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// The wrapped engine (read access for diagnostics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs an observability sink on the wrapped engine. Beyond the
    /// engine's own events, the supervisor emits the recovery lifecycle
    /// ([`SimEvent::RecoveryAborted`] / `RecoveryRetried` /
    /// `RecoveryDropped` / `RecoveryCompleted`, carrying *logical*
    /// message indices) into the same stream.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.engine.set_sink(sink);
    }

    /// Removes and returns the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn Sink>> {
        self.engine.take_sink()
    }

    /// The recovery event log.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Aggregated recovery accounting.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Submits a multicast for delivery at the current simulated time.
    /// Returns its logical index.
    pub fn submit(&mut self, mc: MulticastSet) -> usize {
        self.submit_at(self.engine.now(), mc)
    }

    /// Schedules a multicast submission at simulated time `t` (clamped
    /// to now). Returns its logical index.
    pub fn submit_at(&mut self, t: Time, mc: MulticastSet) -> usize {
        let idx = self.msgs.len();
        let t = t.max(self.engine.now());
        self.msgs.push(Logical {
            source: mc.source,
            destinations: mc.destinations.clone(),
            delivered: Vec::new(),
            pending: mc.destinations.clone(),
            undelivered: Vec::new(),
            attempts: 0,
            submitted_at: t,
            finished_at: None,
            engine_id: None,
            deadline: Time::MAX,
            // Parked until its submission time comes due.
            state: State::WaitingRetry(t),
        });
        let pos = self.submissions.partition_point(|&(st, _)| st <= t);
        self.submissions.insert(pos, (t, mc));
        self.stats.submitted += 1;
        idx
    }

    /// Runs until every submitted message is resolved (delivered or
    /// dropped) and the fault schedule is exhausted. Returns `true` iff
    /// every destination of every message was delivered.
    pub fn run(&mut self) -> bool {
        loop {
            self.drain_completed();
            let now = self.engine.now();
            self.apply_due_faults(now);
            self.launch_due(now);
            self.apply_timeouts(now);
            self.drain_completed();

            let next_ext = self.next_external_time();
            // Process engine events, but only up to the next external
            // action (fault, retry release, deadline) — and stop the
            // moment the engine quiesces, so a wedge is caught at the
            // time it forms rather than at the next deadline.
            let mut stepped = false;
            while let Some(te) = self.engine.next_event_time() {
                if next_ext.is_some_and(|x| te > x) {
                    break;
                }
                self.engine.step();
                stepped = true;
            }
            if stepped {
                continue;
            }
            // No engine event before the next external action. Messages
            // in flight on a quiescent engine are wedged: no event can
            // ever fire again without intervention.
            if !self.engine.has_events() && self.engine.in_flight() > 0 {
                self.watchdog_abort();
                continue;
            }
            match next_ext {
                Some(t) => {
                    // Nothing to simulate until the next fault, retry,
                    // or submission — advance the clock.
                    self.engine.run_until(t);
                }
                None => break,
            }
        }
        self.msgs
            .iter()
            .all(|m| m.state == State::Done && m.undelivered.is_empty())
    }

    /// Per-message final records (call after [`RecoveryEngine::run`]).
    pub fn outcomes(&self) -> Vec<MessageOutcome> {
        self.msgs
            .iter()
            .map(|m| MessageOutcome {
                source: m.source,
                destinations: m.destinations.clone(),
                delivered: m.delivered.clone(),
                undelivered: m.undelivered.clone(),
                attempts: m.attempts,
                submitted_at: m.submitted_at,
                finished_at: m.finished_at,
            })
            .collect()
    }

    /// Delivered / total destination counts over all messages.
    pub fn delivery_counts(&self) -> (usize, usize) {
        let delivered = self.msgs.iter().map(|m| m.delivered.len()).sum();
        let total = self.msgs.iter().map(|m| m.destinations.len()).sum();
        (delivered, total)
    }

    fn backoff(&self, attempt: u32) -> Time {
        let shift = attempt.saturating_sub(1).min(20);
        self.policy
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.policy.backoff_cap_ns)
            .max(1)
    }

    /// Deterministic per-message stagger added to the backoff: peers
    /// aborted at the same instant (mutual deadlock, shared link
    /// failure) must not retry in lock-step, or they recreate the same
    /// conflict every round until their budgets run out.
    fn jitter(&self, li: usize) -> Time {
        (li as u64 % 7) * (self.policy.backoff_base_ns / 4).max(1)
    }

    fn next_external_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        let mut consider = |t: Time| {
            next = Some(next.map_or(t, |n: Time| n.min(t)));
        };
        if let Some(&(t, _)) = self.schedule.events().get(self.schedule_pos) {
            consider(t);
        }
        for m in &self.msgs {
            match m.state {
                State::WaitingRetry(t) => consider(t),
                State::Live => consider(m.deadline),
                _ => {}
            }
        }
        next
    }

    fn apply_due_faults(&mut self, now: Time) {
        while let Some(&(t, ev)) = self.schedule.events().get(self.schedule_pos) {
            if t > now {
                break;
            }
            self.schedule_pos += 1;
            let broken = match ev {
                FaultEvent::LinkDown(a, b) => {
                    self.mask.fail_link(a, b);
                    self.stats.link_failures += 1;
                    self.events
                        .push(RecoveryEvent::LinkFailed { at: now, a, b });
                    self.engine.fail_link(a, b)
                }
                FaultEvent::NodeDown(n) => {
                    self.mask.fail_node(n);
                    self.stats.node_failures += 1;
                    self.events
                        .push(RecoveryEvent::NodeFailed { at: now, node: n });
                    self.engine.fail_node(n)
                }
            };
            for engine_id in broken {
                self.abort_and_reschedule(engine_id, AbortReason::Broken);
            }
        }
    }

    fn launch_due(&mut self, now: Time) {
        // First-time submissions whose clock came due.
        while let Some(&(t, _)) = self.submissions.first() {
            if t > now {
                break;
            }
            let (_, mc) = self.submissions.remove(0);
            // Its Logical slot was created by submit_at in order.
            let li = self
                .msgs
                .iter()
                .position(|m| {
                    m.engine_id.is_none()
                        && m.attempts == 0
                        && m.state == State::WaitingRetry(t)
                        && m.source == mc.source
                        && m.destinations == mc.destinations
                })
                .expect("submission has a logical slot");
            self.launch(li, now);
        }
        // Retries whose backoff expired.
        for li in 0..self.msgs.len() {
            if let State::WaitingRetry(t) = self.msgs[li].state {
                if t <= now && self.msgs[li].attempts > 0 {
                    self.launch(li, now);
                }
            }
        }
    }

    fn launch(&mut self, li: usize, now: Time) {
        let source = self.msgs[li].source;
        let pending = self.msgs[li].pending.clone();
        if pending.is_empty() {
            self.finalize(li, now);
            return;
        }
        let mc = MulticastSet::new(source, pending);
        let fault_plan = match self.router.plan(&mc, &self.mask) {
            Ok(fp) => fp,
            Err(_) => {
                // Source dead or planner failure: nothing more can be
                // delivered — drop with everything pending undelivered.
                let rest = std::mem::take(&mut self.msgs[li].pending);
                self.stats.unreachable_destinations += rest.len();
                self.msgs[li].undelivered.extend(rest);
                self.drop_message(li, now);
                return;
            }
        };
        // Unreachable destinations are undeliverable under the current
        // mask; give up on them (a later mask change could revive them,
        // but the fault model here is fail-stop).
        if !fault_plan.unreachable.is_empty() {
            self.stats.unreachable_destinations += fault_plan.unreachable.len();
            self.msgs[li]
                .pending
                .retain(|d| !fault_plan.unreachable.contains(d));
            self.msgs[li]
                .undelivered
                .extend(fault_plan.unreachable.iter().copied());
        }
        if self.msgs[li].pending.is_empty() {
            self.finalize(li, now);
            return;
        }
        self.stats.escape_worms += fault_plan.escapes;
        match self.engine.inject_checked(&fault_plan.plan) {
            Ok(engine_id) => {
                self.by_engine.insert(engine_id, li);
                self.msgs[li].engine_id = Some(engine_id);
                self.msgs[li].deadline = now + self.policy.timeout_ns;
                self.msgs[li].state = State::Live;
                if self.msgs[li].attempts > 0 {
                    self.stats.retries += 1;
                    self.events.push(RecoveryEvent::Retried {
                        at: now,
                        message: li,
                        attempt: self.msgs[li].attempts,
                        pending: self.msgs[li].pending.len(),
                    });
                    let (attempt, pending) = (self.msgs[li].attempts, self.msgs[li].pending.len());
                    self.engine.emit(SimEvent::RecoveryRetried {
                        at: now,
                        message: li,
                        attempt,
                        pending,
                    });
                }
            }
            Err(_) => {
                // The plan is stale against the live fault state (a
                // fault-oblivious router planning through dead hops).
                // Burn an attempt and back off; the budget converts a
                // persistent failure into a drop.
                self.msgs[li].attempts += 1;
                if self.msgs[li].attempts > self.policy.max_retries {
                    let rest = std::mem::take(&mut self.msgs[li].pending);
                    self.msgs[li].undelivered.extend(rest);
                    self.drop_message(li, now);
                } else {
                    let due = now + self.backoff(self.msgs[li].attempts) + self.jitter(li);
                    self.msgs[li].state = State::WaitingRetry(due);
                }
            }
        }
    }

    fn apply_timeouts(&mut self, now: Time) {
        let overdue: Vec<MessageId> = self
            .msgs
            .iter()
            .filter(|m| m.state == State::Live && m.deadline <= now)
            .filter_map(|m| m.engine_id)
            .collect();
        for engine_id in overdue {
            self.abort_and_reschedule(engine_id, AbortReason::Timeout);
        }
    }

    fn watchdog_abort(&mut self) {
        // Victim order: every dead-stalled message first (their releases
        // may unwedge the rest), then one victim from the wait-for
        // cycle, then — defensively — the lowest live id, so the loop
        // always makes progress.
        let stalled = self.engine.stalled_messages();
        let (victims, reason) = if !stalled.is_empty() {
            (stalled, AbortReason::Broken)
        } else if let Some(cycle) = find_wait_cycle(&self.engine) {
            (vec![cycle[0].message], AbortReason::Deadlock)
        } else {
            (
                self.engine.live_messages().into_iter().take(1).collect(),
                AbortReason::Deadlock,
            )
        };
        for v in victims {
            self.abort_and_reschedule(v, reason);
        }
    }

    fn abort_and_reschedule(&mut self, engine_id: MessageId, reason: AbortReason) {
        let Some(aborted) = self.engine.abort_message(engine_id) else {
            return;
        };
        let now = self.engine.now();
        let Some(li) = self.by_engine.remove(&engine_id) else {
            return;
        };
        let m = &mut self.msgs[li];
        for &(d, t) in &aborted.delivered {
            if m.pending.contains(&d) {
                m.delivered.push((d, t));
                m.pending.retain(|&p| p != d);
            }
        }
        m.engine_id = None;
        m.attempts += 1;
        self.stats.aborts += 1;
        let attempt = m.attempts;
        self.events.push(RecoveryEvent::Aborted {
            at: now,
            message: li,
            attempt,
            reason,
        });
        self.engine.emit(SimEvent::RecoveryAborted {
            at: now,
            message: li,
            attempt,
            reason: reason.code(),
        });
        if self.msgs[li].pending.is_empty() {
            // Every destination had already received its tail; only
            // forwarding worms were still draining.
            self.finalize(li, now);
        } else if attempt > self.policy.max_retries {
            let rest = std::mem::take(&mut self.msgs[li].pending);
            self.msgs[li].undelivered.extend(rest);
            self.drop_message(li, now);
        } else {
            let due = now + self.backoff(attempt) + self.jitter(li);
            self.msgs[li].state = State::WaitingRetry(due);
        }
    }

    fn drain_completed(&mut self) {
        for done in self.engine.take_completed() {
            let Some(li) = self.by_engine.remove(&done.id) else {
                continue;
            };
            let m = &mut self.msgs[li];
            for &(d, t) in &done.deliveries {
                if m.pending.contains(&d) {
                    m.delivered.push((d, t));
                    m.pending.retain(|&p| p != d);
                }
            }
            m.engine_id = None;
            if m.pending.is_empty() {
                self.finalize(li, done.completed_at);
            } else {
                // Defensive: the plan should cover every pending
                // destination; if not, retry immediately.
                self.msgs[li].state = State::WaitingRetry(done.completed_at);
            }
        }
    }

    fn finalize(&mut self, li: usize, at: Time) {
        let m = &mut self.msgs[li];
        m.state = State::Done;
        m.finished_at = Some(m.delivered.iter().map(|&(_, t)| t).max().unwrap_or(at));
        self.stats.completed += 1;
        self.events
            .push(RecoveryEvent::Completed { at, message: li });
        self.engine
            .emit(SimEvent::RecoveryCompleted { at, message: li });
    }

    fn drop_message(&mut self, li: usize, at: Time) {
        let m = &mut self.msgs[li];
        m.state = State::Dropped;
        self.stats.dropped += 1;
        let undelivered = m.undelivered.len();
        self.events.push(RecoveryEvent::Dropped {
            at,
            message: li,
            undelivered,
        });
        self.engine.emit(SimEvent::RecoveryDropped {
            at,
            message: li,
            undelivered,
        });
    }
}

// ---------------------------------------------------------------------------
// Fault-aware router implementations
// ---------------------------------------------------------------------------

fn plan_from_fault_paths(
    mc: &MulticastSet,
    routed: mcast_core::FaultRoutedPaths,
) -> Result<FaultPlan, RouteError> {
    // The plan's destination set must cover exactly the reachable
    // targets: the engine treats every plan destination as a delivery
    // obligation, and an unreachable one would wedge the message.
    let reachable: Vec<NodeId> = mc
        .destinations
        .iter()
        .copied()
        .filter(|d| !routed.unreachable.contains(d))
        .collect();
    let trimmed = MulticastSet::new(mc.source, reachable);
    let escapes = routed.count(mcast_core::WormKind::Escape);
    let plan = DeliveryPlan::from_paths(&trimmed, &routed.paths, crate::plan::ClassChoice::Any);
    Ok(FaultPlan {
        plan,
        unreachable: routed.unreachable,
        escapes,
    })
}

/// Fault-aware dual-path routing (§6.2.2 with the fallback ladder of
/// [`mcast_core::fault_route`]) over any labeled topology.
pub struct FaultDualPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
}

impl FaultDualPathRouter<Mesh2D> {
    /// Fault-aware dual-path on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D) -> Self {
        let labeling = mesh2d_snake(&mesh);
        FaultDualPathRouter {
            topo: mesh,
            labeling,
        }
    }
}

impl FaultDualPathRouter<Hypercube> {
    /// Fault-aware dual-path on a Gray-labeled hypercube.
    pub fn hypercube(cube: Hypercube) -> Self {
        let labeling = hypercube_gray(&cube);
        FaultDualPathRouter {
            topo: cube,
            labeling,
        }
    }
}

impl<T: Topology> FaultDualPathRouter<T> {
    /// Fault-aware dual-path on any topology with a caller-supplied
    /// Hamiltonian-path labeling.
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        FaultDualPathRouter { topo, labeling }
    }
}

impl<T: Topology> FaultMulticastRouter for FaultDualPathRouter<T> {
    fn name(&self) -> &'static str {
        "fault-dual-path"
    }

    fn plan(&self, mc: &MulticastSet, mask: &FaultMask) -> Result<FaultPlan, RouteError> {
        let routed = fault_dual_path(&self.topo, &self.labeling, mask, mc)?;
        plan_from_fault_paths(mc, routed)
    }
}

/// Fault-aware multi-path routing on a snake-labeled 2D mesh (§6.2.2
/// coordinate split) or Gray-labeled hypercube (§6.3 interval split).
pub struct FaultMultiPathRouter<T: Topology> {
    topo: T,
    labeling: Labeling,
    mesh_split: bool,
}

impl FaultMultiPathRouter<Mesh2D> {
    /// Fault-aware multi-path on a snake-labeled 2D mesh.
    pub fn mesh(mesh: Mesh2D) -> Self {
        let labeling = mesh2d_snake(&mesh);
        FaultMultiPathRouter {
            topo: mesh,
            labeling,
            mesh_split: true,
        }
    }
}

impl FaultMultiPathRouter<Hypercube> {
    /// Fault-aware multi-path on a Gray-labeled hypercube.
    pub fn hypercube(cube: Hypercube) -> Self {
        let labeling = hypercube_gray(&cube);
        FaultMultiPathRouter {
            topo: cube,
            labeling,
            mesh_split: false,
        }
    }
}

impl<T: Topology> FaultMultiPathRouter<T> {
    /// Fault-aware interval-split multi-path on a caller-labeled
    /// topology (the §6.3 construction; no mesh coordinate split).
    pub fn with_labeling(topo: T, labeling: Labeling) -> Self {
        FaultMultiPathRouter {
            topo,
            labeling,
            mesh_split: false,
        }
    }
}

/// The interval-split (§6.3) `FaultMulticastRouter` impl, instantiated
/// per concrete topology — a blanket impl would conflict with the
/// `Mesh2D` coordinate-split specialization above.
macro_rules! interval_fault_multi_path {
    ($($t:ty),+) => {$(
        impl FaultMulticastRouter for FaultMultiPathRouter<$t> {
            fn name(&self) -> &'static str {
                "fault-multi-path"
            }

            fn plan(&self, mc: &MulticastSet, mask: &FaultMask) -> Result<FaultPlan, RouteError> {
                if !mask.is_node_alive(mc.source) {
                    return Err(RouteError::SourceFailed(mc.source));
                }
                let routed = fault_multi_path(&self.topo, &self.labeling, mask, mc)?;
                plan_from_fault_paths(mc, routed)
            }
        }
    )+};
}

interval_fault_multi_path!(Hypercube, mcast_topology::Mesh3D, mcast_topology::KAryNCube);

impl FaultMulticastRouter for FaultMultiPathRouter<Mesh2D> {
    fn name(&self) -> &'static str {
        "fault-multi-path"
    }

    fn plan(&self, mc: &MulticastSet, mask: &FaultMask) -> Result<FaultPlan, RouteError> {
        if !mask.is_node_alive(mc.source) {
            return Err(RouteError::SourceFailed(mc.source));
        }
        let routed = if self.mesh_split {
            fault_multi_path_mesh(&self.topo, &self.labeling, mask, mc)?
        } else {
            fault_multi_path(&self.topo, &self.labeling, mask, mc)?
        };
        plan_from_fault_paths(mc, routed)
    }
}

/// Adapter running a fault-*oblivious* [`MulticastRouter`] under the
/// recovery engine: it plans as if the network were healthy (only a dead
/// source is rejected). Stale plans through dead channels are caught by
/// `inject_checked` and burn retry attempts until the budget drops the
/// message — the baseline the fault-aware planners are compared against.
pub struct ObliviousRouter<R: MulticastRouter> {
    inner: R,
}

impl<R: MulticastRouter> ObliviousRouter<R> {
    /// Wraps a fault-oblivious router.
    pub fn new(inner: R) -> Self {
        ObliviousRouter { inner }
    }
}

impl<R: MulticastRouter> FaultMulticastRouter for ObliviousRouter<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn required_classes(&self) -> u8 {
        self.inner.required_classes()
    }

    fn plan(&self, mc: &MulticastSet, mask: &FaultMask) -> Result<FaultPlan, RouteError> {
        if !mask.is_node_alive(mc.source) {
            return Err(RouteError::SourceFailed(mc.source));
        }
        // Destinations on dead nodes can never be delivered; report them
        // so the supervisor doesn't wait for the impossible. Everything
        // else is planned blind.
        let (reachable, unreachable): (Vec<NodeId>, Vec<NodeId>) = mc
            .destinations
            .iter()
            .partition(|&&d| mask.is_node_alive(d));
        if reachable.is_empty() {
            return Ok(FaultPlan {
                plan: DeliveryPlan::from_paths(
                    &MulticastSet::new(mc.source, Vec::new()),
                    &[],
                    crate::plan::ClassChoice::Any,
                ),
                unreachable,
                escapes: 0,
            });
        }
        let trimmed = MulticastSet::new(mc.source, reachable);
        let plan = self.inner.plan(&trimmed);
        Ok(FaultPlan {
            plan,
            unreachable,
            escapes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::fig_6_1_broadcasts;
    use crate::routers::{DualPathRouter, EcubeTreeRouter};

    fn has_abort(events: &[RecoveryEvent], reason: AbortReason) -> bool {
        events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Aborted { reason: r, .. } if *r == reason))
    }

    /// The ISSUE acceptance scenario: the §6.1 tree-broadcast deadlock
    /// (Fig 6.1) wedges the plain engine forever, but completes under
    /// the recovery engine with recorded abort/retry events.
    #[test]
    fn fig_6_1_tree_deadlock_completes_under_recovery() {
        let cube = Hypercube::new(3);
        let router = ObliviousRouter::new(EcubeTreeRouter::new(cube));
        let network = Network::new(&cube, router.required_classes());
        let mut rec = RecoveryEngine::new(
            network,
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        );
        for mc in fig_6_1_broadcasts(cube) {
            rec.submit(mc);
        }
        assert!(rec.run(), "both broadcasts must fully deliver");
        let stats = rec.stats();
        assert!(
            stats.aborts > 0,
            "the deadlock must trigger at least one abort"
        );
        assert!(stats.retries > 0, "the aborted broadcast must be retried");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.dropped, 0);
        assert!(has_abort(rec.events(), AbortReason::Deadlock));
        let (delivered, total) = rec.delivery_counts();
        assert_eq!(delivered, total);
        for o in rec.outcomes() {
            assert!(o.undelivered.is_empty());
            assert!(o.finished_at.is_some());
        }
    }

    /// A link failing mid-flight severs the worm; the supervisor aborts
    /// it and the fault-aware planner reroutes around the dead link.
    #[test]
    fn mid_flight_link_failure_is_rerouted() {
        let mesh = Mesh2D::new(4, 4);
        let router = FaultDualPathRouter::mesh(mesh);
        // Find the first hop the healthy plan takes out of the source, so
        // the scheduled failure is guaranteed to hit a held channel.
        let mc = MulticastSet::new(0, [15usize]);
        let healthy = router.plan(&mc, &FaultMask::none()).unwrap();
        let first = match &healthy.plan.worms[0] {
            crate::plan::PlanWorm::Path(p) => (p.nodes[0], p.nodes[1]),
            _ => unreachable!("dual-path plans are paths"),
        };

        let network = Network::new(&mesh, router.required_classes());
        let mut rec = RecoveryEngine::new(
            network,
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        );
        let mut schedule = FaultSchedule::none();
        // 128 B / 20 MB/s = 6.4 us of tail time; 1 us is mid-transfer.
        schedule.push(1_000, FaultEvent::LinkDown(first.0, first.1));
        rec.set_schedule(schedule);
        rec.submit(mc);
        assert!(rec.run(), "the rerouted retry must deliver");
        let stats = rec.stats();
        assert_eq!(stats.link_failures, 1);
        assert!(stats.aborts >= 1);
        assert!(stats.retries >= 1);
        assert!(has_abort(rec.events(), AbortReason::Broken));
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.dropped, 0);
    }

    /// Static faults present from t=0: the fault-aware planner routes
    /// around them and no recovery action is ever needed.
    #[test]
    fn initial_fault_mask_needs_no_recovery() {
        let mesh = Mesh2D::new(4, 4);
        let router = FaultDualPathRouter::mesh(mesh);
        let mut mask = FaultMask::none();
        mask.fail_link(0, 1);
        mask.fail_link(5, 6);
        let network = Network::new(&mesh, router.required_classes());
        let mut rec = RecoveryEngine::new(
            network,
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        )
        .with_initial_faults(&mask);
        rec.submit(MulticastSet::new(0, [3usize, 12, 15]));
        rec.submit(MulticastSet::new(10, [0usize, 5]));
        assert!(rec.run());
        assert_eq!(rec.stats().aborts, 0);
        assert_eq!(rec.stats().retries, 0);
        assert_eq!(rec.stats().completed, 2);
    }

    /// An oblivious router facing a dead link on its only route burns
    /// its retry budget and the message is dropped, not livelocked.
    #[test]
    fn oblivious_router_exhausts_budget_and_drops() {
        let mesh = Mesh2D::new(4, 1); // a line: no detour exists
        let router = ObliviousRouter::new(DualPathRouter::mesh(mesh));
        let mut mask = FaultMask::none();
        mask.fail_link(1, 2);
        let network = Network::new(&mesh, router.required_classes());
        let policy = RecoveryPolicy {
            max_retries: 3,
            ..RecoveryPolicy::default()
        };
        let mut rec = RecoveryEngine::new(network, SimConfig::default(), &router, policy)
            .with_initial_faults(&mask);
        rec.submit(MulticastSet::new(0, [3usize]));
        assert!(!rec.run(), "the line is severed; delivery must fail");
        let stats = rec.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.completed, 0);
        let outcomes = rec.outcomes();
        assert_eq!(outcomes[0].undelivered, vec![3]);
        assert!(outcomes[0].finished_at.is_none());
    }

    /// A node failure mid-run: messages destined to the dead node give
    /// up on it (unreachable), everything else still delivers.
    #[test]
    fn node_failure_marks_dead_destination_unreachable() {
        let mesh = Mesh2D::new(4, 4);
        let router = FaultDualPathRouter::mesh(mesh);
        let network = Network::new(&mesh, router.required_classes());
        let mut rec = RecoveryEngine::new(
            network,
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        );
        let mut schedule = FaultSchedule::none();
        schedule.push(500, FaultEvent::NodeDown(5));
        rec.set_schedule(schedule);
        rec.submit(MulticastSet::new(0, [5usize, 15]));
        assert!(!rec.run(), "node 5 can never be reached");
        let (delivered, total) = rec.delivery_counts();
        assert_eq!(total, 2);
        assert_eq!(delivered, 1, "node 15 still delivers");
        assert_eq!(rec.stats().node_failures, 1);
        assert!(rec.stats().unreachable_destinations >= 1);
        let outcomes = rec.outcomes();
        assert!(outcomes[0].delivered.iter().any(|&(d, _)| d == 15));
        assert_eq!(outcomes[0].undelivered, vec![5]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mesh = Mesh2D::new(2, 2);
        let router = FaultDualPathRouter::mesh(mesh);
        let network = Network::new(&mesh, 1);
        let policy = RecoveryPolicy {
            backoff_base_ns: 100,
            backoff_cap_ns: 1000,
            ..RecoveryPolicy::default()
        };
        let rec = RecoveryEngine::new(network, SimConfig::default(), &router, policy);
        assert_eq!(rec.backoff(1), 100);
        assert_eq!(rec.backoff(2), 200);
        assert_eq!(rec.backoff(3), 400);
        assert_eq!(rec.backoff(5), 1000, "capped");
        assert_eq!(rec.backoff(40), 1000, "shift clamp holds");
    }

    /// `max_retries: 0` is a legal budget: the first abort drops the
    /// message immediately — no retry, no livelock, outcome recorded.
    #[test]
    fn zero_retry_budget_drops_on_first_abort() {
        let mesh = Mesh2D::new(4, 1); // a line: no detour exists
        let router = ObliviousRouter::new(DualPathRouter::mesh(mesh));
        let mut mask = FaultMask::none();
        mask.fail_link(1, 2);
        let network = Network::new(&mesh, router.required_classes());
        let policy = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        let mut rec = RecoveryEngine::new(network, SimConfig::default(), &router, policy)
            .with_initial_faults(&mask);
        rec.submit(MulticastSet::new(0, [3usize]));
        assert!(!rec.run());
        let stats = rec.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(
            stats.retries, 0,
            "a zero budget must never schedule a retry"
        );
        assert_eq!(rec.outcomes()[0].undelivered, vec![3]);
    }

    /// Backoff near the `Time` (u64) limits must saturate, not wrap: a
    /// pathological base close to `u64::MAX` stays pinned at the cap,
    /// and a cap of `u64::MAX` exposes the saturating multiply itself.
    #[test]
    fn backoff_saturates_at_time_limits() {
        let mesh = Mesh2D::new(2, 2);
        let router = FaultDualPathRouter::mesh(mesh);
        let policy = RecoveryPolicy {
            backoff_base_ns: u64::MAX - 1,
            backoff_cap_ns: u64::MAX,
            ..RecoveryPolicy::default()
        };
        let rec = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            policy,
        );
        assert_eq!(rec.backoff(1), u64::MAX - 1);
        assert_eq!(rec.backoff(2), u64::MAX, "2x must saturate, not wrap");
        assert_eq!(rec.backoff(21), u64::MAX, "shift clamp + saturation");
        let capped = RecoveryPolicy {
            backoff_base_ns: u64::MAX / 2,
            backoff_cap_ns: 5_000,
            ..RecoveryPolicy::default()
        };
        let rec = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            capped,
        );
        for attempt in 1..=64 {
            assert_eq!(rec.backoff(attempt), 5_000, "cap pins attempt {attempt}");
        }
        // A zero base degenerates to the 1 ns floor, never to a zero
        // (busy-spin) backoff.
        let zero = RecoveryPolicy {
            backoff_base_ns: 0,
            backoff_cap_ns: 1_000,
            ..RecoveryPolicy::default()
        };
        let rec = RecoveryEngine::new(Network::new(&mesh, 1), SimConfig::default(), &router, zero);
        assert_eq!(rec.backoff(1), 1);
        assert_eq!(rec.backoff(10), 1);
    }

    /// Jitter is a pure function of (message id, policy): two engines
    /// built with the same policy agree on every stagger, the stagger
    /// cycle covers 0..7 quarter-base multiples, and a sub-4 ns base
    /// still produces distinct non-degenerate offsets.
    #[test]
    fn jitter_is_deterministic_for_fixed_policy() {
        let mesh = Mesh2D::new(2, 2);
        let router = FaultDualPathRouter::mesh(mesh);
        let policy = RecoveryPolicy {
            backoff_base_ns: 400,
            ..RecoveryPolicy::default()
        };
        let a = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            policy,
        );
        let b = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            policy,
        );
        for li in 0..32 {
            assert_eq!(a.jitter(li), b.jitter(li), "message {li}");
            assert_eq!(a.jitter(li), ((li as u64) % 7) * 100);
        }
        assert_ne!(
            a.jitter(0),
            a.jitter(1),
            "peers must not retry in lock-step"
        );
        let tiny = RecoveryPolicy {
            backoff_base_ns: 3, // base/4 == 0: the .max(1) floor applies
            ..RecoveryPolicy::default()
        };
        let t = RecoveryEngine::new(Network::new(&mesh, 1), SimConfig::default(), &router, tiny);
        assert_eq!(t.jitter(6), 6);
        assert_eq!(t.jitter(7), 0, "cycle wraps at 7");
    }
}
