//! Window-parallel deterministic execution of a single simulation
//! (DESIGN.md §15).
//!
//! The serial engine pops events one at a time in `(time, seq)` order.
//! This module instead pops a *window cohort* — every pending event
//! with `t < t0 + L`, where the lookahead `L` is the minimum delta any
//! event cascade can schedule at (`min(flit_time, circuit_setup_ns)`,
//! floored at 1 ns) — and executes the cohort's *conflict components*
//! concurrently:
//!
//! 1. **Collect** the cohort in canonical pop order, charging the run
//!    budget per pop exactly as the serial loop does.
//! 2. **Cluster** events with union-find over the state they can
//!    reach: every event touches its worm's *message*, and
//!    channel-touching events union the class-independent *link* of
//!    the hop they acquire or release. Two events land in one
//!    component iff their reachable state could overlap; events in
//!    different components are proven disjoint. The tables behind this
//!    are dense and epoch-stamped ([`Classify`]), so a window costs
//!    work proportional to its events, never to the network size.
//! 3. **Pack** the components onto at most `jobs` lanes (least-loaded
//!    lane by event count), **check out** each lane's worms, channels,
//!    and messages by value (`mem::replace` / `mem::take` — 100% safe,
//!    no sharing), and run the shared [`exec_event`] cascade against a
//!    buffering [`ExecCtx`], one task per lane, recording per-event
//!    effect marks.
//! 4. **Merge**: restore the checked-out state, then replay buffered
//!    effects (queue pushes, sink emits, completions, worm frees) in
//!    global cohort order. The event queue assigns its insertion seq
//!    only at push time, so replaying pushes in the order the serial
//!    loop would have made them reproduces the serial seq assignment —
//!    and therefore every future pop — exactly. Lane buffers are then
//!    cleared and kept for the next window.
//!
//! Determinism argument (why `--engine-jobs N` is bit-identical to
//! serial): the cohort *is* the serial pop order (collection pops the
//! same queue); generated events land at `t >= t0 + L` when `L > 1`
//! (every cascade schedules at `now + dt` with `dt >= L`), or — in the
//! degenerate `L = 1` single-timestamp window — at the same timestamp
//! but with a strictly higher seq than every cohort member, so in both
//! cases the serial loop would also have drained the whole cohort
//! before touching them. Within the window, a lane runs its events
//! sequentially in cohort order, so same-component events see the
//! state the serial loop would see (components are disjoint, so
//! neither other components on the same lane nor concurrent lanes can
//! observe them), and the canonical effect merge restores the serial
//! order of every side effect with order sensitivity: queue seqs, sink
//! emission order (Welford accumulators are order-sensitive in the
//! last bits), `completed` order, and `worm_free` order (slot reuse).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mcast_obs::SimEvent;
use mcast_topology::NodeId;

use crate::engine::{
    exec_event, ChanState, CompletedMessage, Deliveries, Engine, Event, ExecCtx, MessageState,
    SimEnv, Time, WormState,
};
use crate::network::ChannelId;

/// Cohorts below this size skip clustering and run inline on the
/// coordinator — the window machinery costs more than it saves when
/// there is almost nothing to overlap. (Forced executors never skip:
/// the test hook exists precisely to exercise the machinery.)
const INLINE_COHORT: usize = 8;

/// "No entry" marker in the dense `u32` tables.
const NONE: u32 = u32::MAX;

/// Exact work counters of the window-parallel executor, summed since
/// it was installed (DESIGN.md §15). They depend only on the simulated
/// workload, never on the host, and all read zero on a serial engine.
/// Every field except `lane_tasks` is also independent of the lane
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Non-empty window cohorts executed.
    pub windows: u64,
    /// Windows run inline on the coordinator: a cohort below the inline
    /// threshold, or one with at most one conflict component.
    pub inline_windows: u64,
    /// Windows run through checkout, lane tasks and merge.
    pub pooled_windows: u64,
    /// Conflict components, summed over pooled windows.
    pub components: u64,
    /// Lane tasks, summed over pooled windows — at most
    /// `min(jobs, components)` per window.
    pub lane_tasks: u64,
    /// Cohort events, summed over pooled windows.
    pub pooled_events: u64,
}

/// The window-parallel executor installed on an [`Engine`] by
/// `set_engine_jobs`. Pure scratch: it owns worker threads and
/// per-window buffers, never simulation state — between windows the
/// engine fields are the only authority.
#[derive(Debug)]
pub(crate) struct ParallelExec {
    jobs: usize,
    /// Test mode: always run the full window machinery (clustering,
    /// checkout, canonical merge), even for tiny cohorts or `jobs = 1`.
    forced: bool,
    pool: Option<Pool>,
    classify: Classify,
    /// The current window's lanes, by lane index.
    lanes: Vec<CompCtx>,
    /// Cleared lane buffers kept across windows, so a window allocates
    /// nothing once capacities have grown.
    spare: Vec<CompCtx>,
    /// Lanes returned by the pool, before they are put back in order.
    returned: Vec<(usize, CompCtx)>,
    stats: WindowStats,
}

impl ParallelExec {
    pub(crate) fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        ParallelExec {
            jobs,
            forced: false,
            pool: (jobs > 1).then(|| Pool::new(jobs - 1)),
            classify: Classify::default(),
            lanes: Vec::new(),
            spare: Vec::new(),
            returned: Vec::new(),
            stats: WindowStats::default(),
        }
    }

    /// Test hook behind `Engine::set_engine_jobs_forced`.
    pub(crate) fn forced(jobs: usize) -> Self {
        let mut p = ParallelExec::new(jobs);
        p.forced = true;
        p
    }

    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    pub(crate) fn stats(&self) -> WindowStats {
        self.stats
    }
}

/// A persistent worker pool: `jobs - 1` threads (the coordinator is
/// the remaining lane) pulling [`CompCtx`] tasks from a shared stack.
#[derive(Debug)]
struct Pool {
    shared: Arc<Shared>,
    results: Receiver<(usize, std::thread::Result<CompCtx>)>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<Vec<(usize, CompCtx)>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let (tx, results) = channel();
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tx: Sender<(usize, std::thread::Result<CompCtx>)> = tx.clone();
                std::thread::Builder::new()
                    .name(format!("mcast-engine-{i}"))
                    .spawn(move || worker_loop(&shared, &tx))
                    .expect("spawn engine worker")
            })
            .collect();
        Pool {
            shared,
            results,
            handles,
        }
    }

    /// Queues lanes (with their lane index) for the workers.
    fn submit(&self, lanes: impl Iterator<Item = (usize, CompCtx)>) {
        self.shared
            .queue
            .lock()
            .expect("engine pool lock")
            .extend(lanes);
        self.shared.cv.notify_all();
    }

    /// Gathers `n` submitted lanes into `out`. The coordinator first
    /// runs any lane no worker has picked up yet, then waits for the
    /// rest; a worker's panic is re-raised here.
    fn collect(&self, n: usize, out: &mut Vec<(usize, CompCtx)>) {
        loop {
            let task = self.shared.queue.lock().expect("engine pool lock").pop();
            let Some((i, mut ctx)) = task else { break };
            run_lane(&mut ctx);
            out.push((i, ctx));
        }
        while out.len() < n {
            let (i, res) = self
                .results
                .recv()
                .expect("engine worker hung up without result");
            match res {
                Ok(ctx) => out.push((i, ctx)),
                Err(panic) => resume_unwind(panic),
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked already reported through the
            // results channel; don't double-panic out of drop.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, tx: &Sender<(usize, std::thread::Result<CompCtx>)>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("engine pool lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = q.pop() {
                    break t;
                }
                q = shared.cv.wait(q).expect("engine pool lock");
            }
        };
        let (idx, mut ctx) = task;
        // Lanes are independent; a panic in one (a tripwire assertion,
        // an engine bug) is captured and re-raised on the coordinator
        // so it surfaces exactly like a serial panic.
        let res = catch_unwind(AssertUnwindSafe(move || {
            run_lane(&mut ctx);
            ctx
        }));
        if tx.send((idx, res)).is_err() {
            return;
        }
    }
}

/// One lane of a window: the conflict components packed onto it, with
/// the worms, channels, and messages their events can reach checked
/// out of the engine, plus buffers for every engine-global side
/// effect. Implements [`ExecCtx`], so the cascade code running here is
/// byte-for-byte the code the serial engine runs.
#[derive(Debug, Default)]
struct CompCtx {
    env: SimEnv,
    now: Time,
    sink_on: bool,
    /// The lane's slice of the cohort, in canonical order.
    events: Vec<(Time, Event)>,
    /// Sorted worm ids ∥ their checked-out state.
    worm_ids: Vec<usize>,
    worms: Vec<WormState>,
    /// Last `(worm id, index)` resolved by `widx` — a cascade looks up
    /// the same worm many times per event.
    worm_memo: Cell<Option<(usize, usize)>>,
    /// Sorted channel ids ∥ state ∥ fault-liveness snapshot (faults
    /// only change between run calls, never mid-window).
    chan_ids: Vec<ChannelId>,
    chans: Vec<ChanState>,
    alive: Vec<bool>,
    /// Sorted message ids ∥ their checked-out slots.
    msg_ids: Vec<usize>,
    msgs: Vec<Option<MessageState>>,
    // ---- buffered effects, replayed in canonical cohort order ----
    pushes: Vec<(Time, Event)>,
    emits: Vec<SimEvent>,
    /// `Option` so the merge can move each completion out.
    completed: Vec<Option<CompletedMessage>>,
    freed: Vec<usize>,
    /// Retired message slots (streaming mode) with their delivery
    /// buffers — replayed through `Engine::retire_slot` in canonical
    /// cohort order so `msg_free` matches serial exactly.
    retired: Vec<Option<(usize, Deliveries)>>,
    /// `(channel, dt)` utilization charges — a commutative sum, so
    /// merge order is irrelevant.
    busy: Vec<(ChannelId, Time)>,
    flit_hops: u64,
    in_flight_dec: usize,
    /// Effect-buffer end offsets after each local event — the merge
    /// uses these to interleave effects from different lanes in global
    /// cohort order.
    marks: Vec<Marks>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Marks {
    pushes: usize,
    emits: usize,
    completed: usize,
    freed: usize,
    retired: usize,
}

impl CompCtx {
    /// Empties every buffer, keeping capacities, so the lane can be
    /// reused by a later window. The state vectors were already
    /// drained by the merge.
    fn clear(&mut self) {
        self.events.clear();
        self.worm_ids.clear();
        self.worms.clear();
        self.worm_memo.set(None);
        self.chan_ids.clear();
        self.chans.clear();
        self.alive.clear();
        self.msg_ids.clear();
        self.msgs.clear();
        self.pushes.clear();
        self.emits.clear();
        self.completed.clear();
        self.freed.clear();
        self.retired.clear();
        self.busy.clear();
        self.flit_hops = 0;
        self.in_flight_dec = 0;
        self.marks.clear();
    }

    fn widx(&self, w: usize) -> usize {
        if let Some((mw, i)) = self.worm_memo.get() {
            if mw == w {
                return i;
            }
        }
        // A miss here means an event reached state outside its
        // component — a clustering soundness bug. Panic loudly (the
        // worker's catch_unwind re-raises on the coordinator) rather
        // than silently diverging from serial.
        let i = self
            .worm_ids
            .binary_search(&w)
            .unwrap_or_else(|_| panic!("worm {w} not in conflict component"));
        self.worm_memo.set(Some((w, i)));
        i
    }

    fn cidx(&self, c: ChannelId) -> usize {
        self.chan_ids
            .binary_search(&c)
            .unwrap_or_else(|_| panic!("channel {c} not in conflict component"))
    }

    fn midx(&self, m: usize) -> usize {
        self.msg_ids
            .binary_search(&m)
            .unwrap_or_else(|_| panic!("message {m} not in conflict component"))
    }
}

impl ExecCtx for CompCtx {
    fn now(&self) -> Time {
        self.now
    }
    fn env(&self) -> SimEnv {
        self.env
    }
    fn worm(&mut self, w: usize) -> &mut WormState {
        let i = self.widx(w);
        &mut self.worms[i]
    }
    fn worm_ref(&self, w: usize) -> &WormState {
        &self.worms[self.widx(w)]
    }
    fn chan(&mut self, c: ChannelId) -> &mut ChanState {
        let i = self.cidx(c);
        &mut self.chans[i]
    }
    fn chan_ref(&self, c: ChannelId) -> &ChanState {
        &self.chans[self.cidx(c)]
    }
    fn chan_alive(&self, c: ChannelId) -> bool {
        self.alive[self.cidx(c)]
    }
    fn msg(&mut self, m: usize) -> &mut Option<MessageState> {
        let i = self.midx(m);
        &mut self.msgs[i]
    }
    fn sched(&mut self, at: Time, ev: Event) {
        self.pushes.push((at, ev));
    }
    fn add_busy(&mut self, c: ChannelId, dt: Time) {
        self.busy.push((c, dt));
    }
    fn count_flit_hop(&mut self) {
        self.flit_hops += 1;
    }
    fn sink_on(&self) -> bool {
        self.sink_on
    }
    fn emit_ev(&mut self, ev: SimEvent) {
        if self.sink_on {
            self.emits.push(ev);
        }
    }
    fn trace_on(&self, _c: ChannelId) -> bool {
        // `set_engine_jobs` refuses to install the executor while
        // MCAST_TRACE_CHAN is set; the forced test hook simply loses
        // the stderr trace (simulation state is unaffected).
        false
    }
    fn push_completed(&mut self, done: CompletedMessage) {
        self.completed.push(Some(done));
    }
    fn free_worm(&mut self, w: usize) {
        self.freed.push(w);
    }
    fn dec_in_flight(&mut self) {
        self.in_flight_dec += 1;
    }
    fn retire_msg(&mut self, slot: usize, d: Deliveries) {
        self.retired.push(Some((slot, d)));
    }
    fn take_done_buf(&mut self) -> Vec<(NodeId, Time)> {
        // Lanes cannot reach the engine's spare pool; a fresh buffer
        // holds identical values (capacity is not observable).
        Vec::new()
    }
}

/// Runs a lane's cohort slice sequentially, recording effect marks
/// after each event.
fn run_lane(ctx: &mut CompCtx) {
    for i in 0..ctx.events.len() {
        let (t, ev) = ctx.events[i];
        ctx.now = t;
        exec_event(ctx, ev);
        ctx.marks.push(Marks {
            pushes: ctx.pushes.len(),
            emits: ctx.emits.len(),
            completed: ctx.completed.len(),
            freed: ctx.freed.len(),
            retired: ctx.retired.len(),
        });
    }
}

/// How one cohort event was classified: its slices of the flat
/// `qworms` / `links` buffers and, in `node`, its message's union-find
/// node — replaced by its component index once `cluster` has numbered
/// the components (`NONE` = stale event).
#[derive(Debug, Clone, Copy)]
struct EvClass {
    node: u32,
    qworms: (u32, u32),
    links: (u32, u32),
}

/// Dense, epoch-stamped classification tables (DESIGN.md §15.3). An
/// id-indexed entry counts only when its stamp equals the current
/// window's epoch, so starting a window costs one increment instead of
/// a clear, and nothing is hashed.
#[derive(Debug, Default)]
struct Classify {
    epoch: u32,
    /// Message slot → `(stamp, union-find node)`.
    msg_node: Vec<(u32, u32)>,
    /// Link base channel → `(stamp, union-find node)`.
    link_node: Vec<(u32, u32)>,
    /// Union-find forest over this window's nodes: path halving, union
    /// by size.
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Root node → component index (`NONE` = not yet seen).
    comp_of: Vec<u32>,
    /// "Already checked out this window" stamps (`seen_chan` by link
    /// base). Components are disjoint, so each id belongs to exactly
    /// one lane and one stamp per id removes duplicates.
    seen_worm: Vec<u32>,
    seen_chan: Vec<u32>,
    seen_msg: Vec<u32>,
    // ---- per-window scratch ----
    ev: Vec<EvClass>,
    /// Extra worms an event can reach (channel waiters, staged
    /// dependents).
    qworms: Vec<usize>,
    /// Link bases an event can touch.
    links: Vec<ChannelId>,
    /// Events per component, then lane per component.
    comp_events: Vec<u32>,
    comp_lane: Vec<u32>,
    /// Events per lane while packing.
    lane_load: Vec<u32>,
    /// Per cohort event: `(lane, index in lane)`, `NONE` lane = stale.
    loc: Vec<(u32, u32)>,
}

impl Classify {
    /// Opens a new stamp epoch and sizes the id tables to the engine's
    /// current arenas (they only grow, between run calls).
    fn begin(&mut self, messages: usize, channels: usize, worms: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2^32 windows ago would alias the
            // new epochs, so clear them once and restart at 1.
            self.msg_node.fill((0, 0));
            self.link_node.fill((0, 0));
            self.seen_worm.fill(0);
            self.seen_chan.fill(0);
            self.seen_msg.fill(0);
            self.epoch = 1;
        }
        self.msg_node.resize(messages, (0, 0));
        self.link_node.resize(channels, (0, 0));
        self.seen_worm.resize(worms, 0);
        self.seen_chan.resize(channels, 0);
        self.seen_msg.resize(messages, 0);
        self.parent.clear();
        self.size.clear();
        self.ev.clear();
        self.qworms.clear();
        self.links.clear();
        self.comp_events.clear();
        self.comp_lane.clear();
        self.loc.clear();
    }

    fn new_node(&mut self) -> u32 {
        let n = self.parent.len() as u32;
        self.parent.push(n);
        self.size.push(1);
        n
    }

    fn msg_node(&mut self, m: usize) -> u32 {
        let (stamp, node) = self.msg_node[m];
        if stamp == self.epoch {
            return node;
        }
        let node = self.new_node();
        self.msg_node[m] = (self.epoch, node);
        node
    }

    fn link_node(&mut self, base: ChannelId) -> u32 {
        let (stamp, node) = self.link_node[base];
        if stamp == self.epoch {
            return node;
        }
        let node = self.new_node();
        self.link_node[base] = (self.epoch, node);
        node
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }

    /// First visit of `id` this window? Stamps it.
    fn first_visit(stamps: &mut [u32], epoch: u32, id: usize) -> bool {
        let fresh = stamps[id] != epoch;
        stamps[id] = epoch;
        fresh
    }

    /// Classifies every cohort event and unions its reachable state;
    /// returns the number of conflict components (numbered in
    /// first-seen cohort order into `comp_events`).
    fn cluster(&mut self, engine: &Engine, cohort: &[(Time, Event)], flits: u32) -> usize {
        for &(_, ev) in cohort {
            let (w, e, gen) = match ev {
                Event::TransferComplete { worm, edge, gen }
                | Event::RequestChannel { worm, edge, gen } => (worm as usize, edge as usize, gen),
            };
            let q0 = self.qworms.len() as u32;
            let l0 = self.links.len() as u32;
            let wst = &engine.worms[w];
            // Stale at collection time means stale for good: gen bumps
            // and worm builds only happen between run calls.
            if wst.gen != gen || !wst.active {
                self.ev.push(EvClass {
                    node: NONE,
                    qworms: (q0, q0),
                    links: (l0, l0),
                });
                continue;
            }
            let node = self.msg_node(wst.message);
            match ev {
                Event::RequestChannel { .. } => self.links.push(wst.edges[e].link_key),
                Event::TransferComplete { .. } => {
                    let es = &wst.edges[e];
                    // `crossed` is stable until this event executes:
                    // only the edge's own TransferComplete bumps it, and
                    // an edge has at most one in flight (`busy` gates
                    // the next transfer on this completion).
                    let next = es.crossed + 1;
                    if next == 1 && wst.kind != crate::engine::WormKind::Circuit {
                        for k in es.child_start..es.child_start + es.child_count {
                            let c = wst.children[k as usize] as usize;
                            self.links.push(wst.edges[c].link_key);
                        }
                    }
                    if next == flits {
                        // Tail: releases the owned channel, which may
                        // grant (and cascade into) any waiter queued on
                        // it — join their messages too. Waiters added
                        // *during* the window come from events that
                        // share this link, so they are already
                        // in-component.
                        self.links.push(es.link_key);
                        if let Some(chan) = es.channel {
                            for &(w2, _) in engine.channels[chan].queue.iter() {
                                self.qworms.push(w2);
                                let n2 = self.msg_node(engine.worms[w2].message);
                                self.union(node, n2);
                            }
                        }
                        // A tail crossing may complete the worm, whose
                        // cascade releases its staged dependents — each
                        // then requests its root link (edge 0).
                        // `dependents` is stable here: it is filled at
                        // inject and drained only by the completion
                        // itself (which would have marked this event
                        // stale). The dependents share this worm's
                        // message, so only their root links need
                        // joining. `edges_done` may still grow inside
                        // the window, so no completion gate here —
                        // over-approximating the component is always
                        // safe.
                        for &(d, g) in wst.dependents.iter() {
                            let dep = &engine.worms[d as usize];
                            if dep.gen == g && dep.active {
                                self.qworms.push(d as usize);
                                self.links.push(dep.edges[0].link_key);
                            }
                        }
                    }
                }
            }
            let l1 = self.links.len() as u32;
            for l in l0..l1 {
                let ln = self.link_node(self.links[l as usize]);
                self.union(node, ln);
            }
            self.ev.push(EvClass {
                node,
                qworms: (q0, self.qworms.len() as u32),
                links: (l0, l1),
            });
        }

        // Number components in first-seen order and count their events.
        self.comp_of.clear();
        self.comp_of.resize(self.parent.len(), NONE);
        for i in 0..self.ev.len() {
            let node = self.ev[i].node;
            if node == NONE {
                continue;
            }
            let root = self.find(node) as usize;
            let mut c = self.comp_of[root];
            if c == NONE {
                c = self.comp_events.len() as u32;
                self.comp_of[root] = c;
                self.comp_events.push(0);
            }
            self.comp_events[c as usize] += 1;
            self.ev[i].node = c;
        }
        self.comp_events.len()
    }

    /// Packs components, in first-seen order, onto `lanes` lanes —
    /// each onto the least-loaded lane by event count (lowest index on
    /// ties).
    fn pack(&mut self, lanes: usize) {
        self.lane_load.clear();
        self.lane_load.resize(lanes, 0);
        for &n in &self.comp_events {
            let (lane, _) = self
                .lane_load
                .iter()
                .enumerate()
                .min_by_key(|&(i, &load)| (load, i))
                .expect("at least one lane");
            self.lane_load[lane] += n;
            self.comp_lane.push(lane as u32);
        }
    }
}

/// Minimum schedulable event delta: every cascade schedules at
/// `now + flit_time` (± the header routing delay, which only adds) or
/// `now + circuit_setup_ns`, so no event generated inside the window
/// `[t0, t0 + L)` can land inside it — except when the minimum is 0
/// (`circuit_setup_ns = 0`), where the floor of 1 makes each window a
/// single timestamp and same-time generated events sort strictly after
/// the cohort by insertion seq. Both cases preserve the serial order.
fn window_lookahead(env: &SimEnv) -> Time {
    env.flit_time.min(env.circuit_setup_ns).max(1)
}

/// Windowed counterpart of the serial `run_until` loop: identical
/// event set, budget accounting, and `now` semantics (no clamp to
/// `until` on a budget stop).
pub(crate) fn run_windowed_until(engine: &mut Engine, until: Time) -> usize {
    // Take the executor out for the duration of the run so the engine
    // can be borrowed mutably alongside it (it is pure scratch).
    let mut par = engine
        .par
        .take()
        .expect("windowed dispatch requires executor");
    let lookahead = window_lookahead(&ExecCtx::env(engine));
    let mut n = 0usize;
    let mut cohort: Vec<(Time, Event)> = Vec::new();
    while let Some(t0) = engine.next_event_time() {
        if t0 > until {
            break;
        }
        let end = t0.saturating_add(lookahead);
        cohort.clear();
        let mut budget_stop = false;
        while let Some(t) = engine.next_event_time() {
            if t >= end || t > until {
                break;
            }
            if engine.charge_budget() {
                budget_stop = true;
                break;
            }
            let (t, _, ev) = engine.events.pop().expect("just peeked");
            cohort.push((t, ev));
        }
        n += cohort.len();
        execute_window(engine, &mut par, &cohort);
        if budget_stop {
            // Serial parity: a budget stop returns without advancing
            // `now` to `until`.
            engine.par = Some(par);
            return n;
        }
    }
    engine.now = engine.now.max(until);
    engine.par = Some(par);
    n
}

/// Windowed counterpart of the serial `run_to_quiescence` loop.
pub(crate) fn run_windowed_quiesce(engine: &mut Engine) -> bool {
    let mut par = engine
        .par
        .take()
        .expect("windowed dispatch requires executor");
    let lookahead = window_lookahead(&ExecCtx::env(engine));
    let mut cohort: Vec<(Time, Event)> = Vec::new();
    let done = loop {
        if engine.next_event_time().is_none() {
            break engine.in_flight == 0;
        }
        let t0 = engine.next_event_time().expect("just checked");
        let end = t0.saturating_add(lookahead);
        cohort.clear();
        let mut budget_stop = false;
        while let Some(t) = engine.next_event_time() {
            if t >= end {
                break;
            }
            if engine.charge_budget() {
                budget_stop = true;
                break;
            }
            let (t, _, ev) = engine.events.pop().expect("just peeked");
            cohort.push((t, ev));
        }
        execute_window(engine, &mut par, &cohort);
        if budget_stop {
            break false;
        }
    };
    engine.par = Some(par);
    done
}

/// Executes one collected cohort. Every path (inline fast path or
/// full clustering) produces bit-identical engine state.
fn execute_window(engine: &mut Engine, par: &mut ParallelExec, cohort: &[(Time, Event)]) {
    if cohort.is_empty() {
        return;
    }
    engine.steps += cohort.len() as u64;
    par.stats.windows += 1;
    // Fast path: tiny cohorts (the common case under light load) and
    // jobs=1 executors gain nothing from clustering — run the cohort
    // inline through the identical cascade.
    if !par.forced && (par.pool.is_none() || cohort.len() < INLINE_COHORT) {
        par.stats.inline_windows += 1;
        serial_exec(engine, cohort);
        return;
    }

    // ---- 1. classify + cluster ----
    let env = ExecCtx::env(engine);
    let cl = &mut par.classify;
    cl.begin(
        engine.messages.len(),
        engine.channels.len(),
        engine.worms.len(),
    );
    let n_comp = cl.cluster(engine, cohort, env.flits);
    // Single live component (or none): nothing to overlap.
    if n_comp <= 1 && !par.forced {
        par.stats.inline_windows += 1;
        serial_exec(engine, cohort);
        return;
    }
    let n_lanes = par.jobs.min(n_comp);
    par.stats.pooled_windows += 1;
    par.stats.components += n_comp as u64;
    par.stats.lane_tasks += n_lanes as u64;
    par.stats.pooled_events += cohort.len() as u64;

    // ---- 2. pack onto lanes + check out ----
    cl.pack(n_lanes);
    let sink_on = ExecCtx::sink_on(engine);
    for _ in 0..n_lanes {
        let mut lane = par.spare.pop().unwrap_or_default();
        lane.env = env;
        lane.sink_on = sink_on;
        par.lanes.push(lane);
    }
    let classes = engine.network.classes() as usize;
    let epoch = cl.epoch;
    for (i, &(t, ev)) in cohort.iter().enumerate() {
        let c = cl.ev[i];
        if c.node == NONE {
            cl.loc.push((NONE, 0));
            continue;
        }
        let li = cl.comp_lane[c.node as usize];
        let lane = &mut par.lanes[li as usize];
        cl.loc.push((li, lane.events.len() as u32));
        lane.events.push((t, ev));
        let w = match ev {
            Event::TransferComplete { worm, .. } | Event::RequestChannel { worm, .. } => {
                worm as usize
            }
        };
        let (q0, q1) = (c.qworms.0 as usize, c.qworms.1 as usize);
        for w in std::iter::once(w).chain(cl.qworms[q0..q1].iter().copied()) {
            if Classify::first_visit(&mut cl.seen_worm, epoch, w) {
                lane.worm_ids.push(w);
            }
            let m = engine.worms[w].message;
            if Classify::first_visit(&mut cl.seen_msg, epoch, m) {
                lane.msg_ids.push(m);
            }
        }
        // Class copies of a link are consecutive channel ids and only
        // ever join a lane together, so the base's stamp covers them.
        for &base in &cl.links[c.links.0 as usize..c.links.1 as usize] {
            if Classify::first_visit(&mut cl.seen_chan, epoch, base) {
                lane.chan_ids.extend(base..base + classes);
            }
        }
    }
    for lane in &mut par.lanes {
        check_out(engine, lane);
    }

    // ---- 3. execute, one task per lane ----
    run_lanes(par.pool.as_ref(), &mut par.lanes, &mut par.returned);

    // ---- 4. restore + canonical merge ----
    for lane in &mut par.lanes {
        restore(engine, lane);
    }
    // Order-sensitive effects replay in global cohort order; each
    // lane's buffers are consumed monotonically via its marks.
    for &(li, k) in &par.classify.loc {
        if li == NONE {
            continue;
        }
        let lane = &mut par.lanes[li as usize];
        let k = k as usize;
        let lo = if k == 0 {
            Marks::default()
        } else {
            lane.marks[k - 1]
        };
        let hi = lane.marks[k];
        for &(at, ev) in &lane.pushes[lo.pushes..hi.pushes] {
            engine.events.push(at, ev);
        }
        for &ev in &lane.emits[lo.emits..hi.emits] {
            engine.emit(ev);
        }
        for done in &mut lane.completed[lo.completed..hi.completed] {
            let done = done.take().expect("completion replayed exactly once");
            engine.completed.push(done);
        }
        for &w in &lane.freed[lo.freed..hi.freed] {
            engine.worm_free.push(w);
        }
        // Retirements recycle message slots: replaying them here, in
        // the same canonical order, makes the streaming `msg_free`
        // stack bit-identical to serial execution (slot reuse order is
        // observable through later checkouts and message keys).
        for r in &mut lane.retired[lo.retired..hi.retired] {
            let (slot, d) = r.take().expect("retired slot replayed exactly once");
            engine.retire_slot(slot, d);
        }
    }
    engine.now = cohort[cohort.len() - 1].0;

    // ---- 5. keep the lane buffers for the next window ----
    for mut lane in par.lanes.drain(..) {
        lane.clear();
        par.spare.push(lane);
    }
}

/// Runs a window's lanes, one task each. With a pool, lanes `1..` go
/// to the workers and the coordinator runs lane 0 itself. `lanes` comes
/// back complete and in lane order.
fn run_lanes(pool: Option<&Pool>, lanes: &mut Vec<CompCtx>, returned: &mut Vec<(usize, CompCtx)>) {
    let Some(pool) = pool.filter(|_| lanes.len() > 1) else {
        // A single lane, or forced jobs=1: coordinator only.
        lanes.iter_mut().for_each(run_lane);
        return;
    };
    let handed_out = lanes.len() - 1;
    pool.submit(lanes.drain(1..).enumerate().map(|(i, l)| (i + 1, l)));
    run_lane(&mut lanes[0]);
    pool.collect(handed_out, returned);
    returned.sort_unstable_by_key(|&(i, _)| i);
    lanes.extend(returned.drain(..).map(|(_, l)| l));
}

/// Moves a lane's worms, channels, and messages out of the engine.
fn check_out(engine: &mut Engine, lane: &mut CompCtx) {
    lane.worm_ids.sort_unstable();
    lane.chan_ids.sort_unstable();
    lane.msg_ids.sort_unstable();
    lane.worms.extend(
        lane.worm_ids
            .iter()
            .map(|&w| std::mem::replace(&mut engine.worms[w], WormState::vacant())),
    );
    lane.chans.extend(
        lane.chan_ids
            .iter()
            .map(|&c| std::mem::take(&mut engine.channels[c])),
    );
    lane.alive
        .extend(lane.chan_ids.iter().map(|&c| engine.network.is_alive(c)));
    lane.msgs
        .extend(lane.msg_ids.iter().map(|&m| engine.messages[m].take()));
}

/// Moves a finished lane's state back into the engine and applies its
/// order-insensitive effects.
fn restore(engine: &mut Engine, lane: &mut CompCtx) {
    for (&w, st) in lane.worm_ids.iter().zip(lane.worms.drain(..)) {
        engine.worms[w] = st;
    }
    for (&c, st) in lane.chan_ids.iter().zip(lane.chans.drain(..)) {
        engine.channels[c] = st;
    }
    for (&m, st) in lane.msg_ids.iter().zip(lane.msgs.drain(..)) {
        engine.messages[m] = st;
    }
    // Commutative integer sums: order across lanes is irrelevant to
    // the exact result.
    for &(c, dt) in &lane.busy {
        engine.busy_ns[c] += dt;
    }
    engine.flit_hops += lane.flit_hops;
    engine.in_flight -= lane.in_flight_dec;
}

/// Inline serial execution of a cohort — the fast path. The cohort was
/// already popped and budget-charged, so this is exactly the serial
/// loop body repeated.
fn serial_exec(engine: &mut Engine, cohort: &[(Time, Event)]) {
    for &(t, ev) in cohort {
        engine.now = t;
        exec_event(engine, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::{WindowStats, NONE};
    use crate::engine::{Engine, RunBudget, SimConfig, Time};
    use crate::network::Network;
    use crate::plan::{ClassChoice, DeliveryPlan, PlanPath, PlanWorm};
    use crate::routers::{DualPathRouter, MulticastRouter};
    use mcast_core::model::MulticastSet;
    use mcast_topology::Mesh2D;

    /// Everything order- or state-sensitive the engine exposes,
    /// Debug-rendered so a single assert covers completion order,
    /// per-destination delivery times, counters, and utilization.
    fn fingerprint(e: &mut Engine) -> String {
        let done = e.take_completed();
        format!(
            "steps={} now={} hops={} inflight={} busy={:?} done={done:?}",
            e.steps(),
            e.now,
            e.flit_hops,
            e.in_flight,
            e.busy_ns,
        )
    }

    /// A contended dual-path workload on a `side`×`side` mesh: enough
    /// simultaneous multicasts that window cohorts exceed the inline
    /// threshold and split into several conflict components.
    fn inject_dense(e: &mut Engine, router: &DualPathRouter<Mesh2D>, side: usize, n: usize) {
        let nodes = (side * side) as u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = (x % nodes) as usize;
            let d1 = ((x >> 8) % nodes) as usize;
            let d2 = ((x >> 16) % nodes) as usize;
            let d3 = ((x >> 24) % nodes) as usize;
            let dests: Vec<usize> = [d1, d2, d3].into_iter().filter(|&d| d != src).collect();
            if dests.is_empty() {
                continue;
            }
            e.inject(&router.plan(&MulticastSet::new(src, dests)));
        }
    }

    /// Runs two waves of `n` then `n / 2` multicasts on a serial engine
    /// and on one with `install` applied; returns both fingerprints and
    /// the second engine's window counters.
    fn run_pair_with(
        side: usize,
        n: usize,
        cfg: SimConfig,
        install: impl Fn(&mut Engine),
    ) -> (String, String, WindowStats) {
        let mesh = Mesh2D::new(side, side);
        let router = DualPathRouter::mesh(mesh);
        let mk = || Engine::new(Network::new(&Mesh2D::new(side, side), 1), cfg);
        let mut serial = mk();
        let mut par = mk();
        install(&mut par);
        for e in [&mut serial, &mut par] {
            inject_dense(e, &router, side, n);
            // Slice the run so windowed `run_until` is exercised with
            // mid-flight boundaries, then drain.
            for slice in 1..6 {
                e.run_until(slice * 2_500);
            }
            assert!(e.run_to_quiescence(), "workload must drain");
            // A second wave after quiescence exercises slot reuse
            // (worm_free order) under the windowed executor.
            inject_dense(e, &router, side, n / 2);
            assert!(e.run_to_quiescence(), "second wave must drain");
        }
        assert_eq!(serial.window_stats(), WindowStats::default());
        let stats = par.window_stats();
        (fingerprint(&mut serial), fingerprint(&mut par), stats)
    }

    fn run_pair(jobs: usize, forced: bool, cfg: SimConfig) -> (String, String) {
        let (s, p, _) = run_pair_with(8, 48, cfg, |e| install(e, jobs, forced));
        (s, p)
    }

    fn install(e: &mut Engine, jobs: usize, forced: bool) {
        if forced {
            e.set_engine_jobs_forced(jobs);
        } else {
            e.set_engine_jobs(jobs);
        }
    }

    #[test]
    fn forced_machinery_matches_serial() {
        let (s, p) = run_pair(1, true, SimConfig::default());
        assert_eq!(s, p, "forced jobs=1 window machinery must be bit-identical");
    }

    #[test]
    fn forced_two_lane_matches_serial() {
        let (s, p) = run_pair(2, true, SimConfig::default());
        assert_eq!(
            s, p,
            "forced jobs=2 (1 worker thread) must be bit-identical"
        );
    }

    #[test]
    fn pooled_four_lane_matches_serial() {
        let (s, p) = run_pair(4, false, SimConfig::default());
        assert_eq!(s, p, "production jobs=4 must be bit-identical");
    }

    #[test]
    fn zero_circuit_setup_degenerate_lookahead_matches_serial() {
        // circuit_setup_ns = 0 floors the lookahead at 1 ns: every
        // window is a single timestamp and same-time generated events
        // must still sort after the cohort by insertion seq.
        let cfg = SimConfig {
            circuit_setup_ns: 0,
            ..SimConfig::default()
        };
        let mesh = Mesh2D::new(4, 4);
        let mk = || Engine::new(Network::new(&mesh, 1), cfg);
        let mut serial = mk();
        let mut par = mk();
        par.set_engine_jobs_forced(2);
        for e in [&mut serial, &mut par] {
            // Circuit worms chain RequestChannel events at +0 ns;
            // overlapping same-direction rows force contention.
            for nodes in [
                vec![0usize, 1, 2, 3],
                vec![1, 2, 3, 7],
                vec![0, 4, 8, 12],
                vec![4, 8, 12, 13],
            ] {
                let (src, dst) = (nodes[0], *nodes.last().expect("nonempty"));
                e.inject(&DeliveryPlan {
                    source: src,
                    destinations: vec![dst],
                    worms: vec![PlanWorm::Circuit(PlanPath {
                        nodes,
                        class: ClassChoice::Any,
                    })],
                });
            }
            e.run_to_quiescence();
        }
        assert_eq!(fingerprint(&mut serial), fingerprint(&mut par));
    }

    #[test]
    fn budget_stop_matches_serial_exactly() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mk = || Engine::new(Network::new(&Mesh2D::new(8, 8), 1), SimConfig::default());
        for cap in [1u64, 7, 50, 333] {
            let mut serial = mk();
            let mut par = mk();
            par.set_engine_jobs_forced(2);
            for e in [&mut serial, &mut par] {
                e.set_budget(RunBudget::with_max_steps(cap));
                inject_dense(e, &router, 8, 16);
                let done = e.run_to_quiescence();
                assert!(!done || !e.budget_exhausted());
            }
            assert_eq!(
                serial.budget_exhausted(),
                par.budget_exhausted(),
                "cap={cap}"
            );
            assert_eq!(
                fingerprint(&mut serial),
                fingerprint(&mut par),
                "budget stop at cap={cap} must leave identical state"
            );
        }
    }

    #[test]
    fn run_until_boundary_and_now_semantics_match() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mk = || Engine::new(Network::new(&Mesh2D::new(8, 8), 1), SimConfig::default());
        let mut serial = mk();
        let mut par = mk();
        par.set_engine_jobs_forced(3);
        for e in [&mut serial, &mut par] {
            inject_dense(e, &router, 8, 32);
            // Boundaries chosen to land mid-window, on exact event
            // times (multiples of 400), and past quiescence.
            let mut processed = Vec::new();
            for until in [1u64, 399, 400, 401, 850, 4_000, 1_000_000] {
                processed.push(e.run_until(until));
                processed.push(e.now as usize);
            }
            assert_eq!(e.in_flight, 0, "drained by the last boundary");
        }
        assert_eq!(fingerprint(&mut serial), fingerprint(&mut par));
    }

    /// The executor survives fault injection + drain cycles driven at
    /// `step()` granularity between windowed runs (the recovery
    /// supervisor's access pattern): engine state is the only
    /// authority between windows.
    #[test]
    fn interoperates_with_external_stepping() {
        let mesh = Mesh2D::new(8, 8);
        let router = DualPathRouter::mesh(mesh);
        let mk = || Engine::new(Network::new(&Mesh2D::new(8, 8), 1), SimConfig::default());
        let mut serial = mk();
        let mut par = mk();
        par.set_engine_jobs_forced(2);
        for e in [&mut serial, &mut par] {
            inject_dense(e, &router, 8, 24);
            // Interleave single steps (always serial) with windowed
            // run_until calls.
            for _ in 0..10 {
                e.step();
            }
            e.run_until(5_000);
            for _ in 0..25 {
                e.step();
            }
            assert!(e.run_to_quiescence());
        }
        assert_eq!(fingerprint(&mut serial), fingerprint(&mut par));
    }

    /// The window counters are exact: they repeat run to run, only
    /// `lane_tasks` depends on the lane count, and a window never has
    /// more lane tasks than lanes or components.
    #[test]
    fn window_stats_are_exact_and_lane_count_independent() {
        let stats =
            |jobs| run_pair_with(8, 48, SimConfig::default(), |e| install(e, jobs, false)).2;
        let two = stats(2);
        assert_eq!(two, stats(2), "two identical runs give identical stats");
        assert!(two.pooled_windows > 0, "workload must reach pooled windows");
        assert_eq!(two.windows, two.inline_windows + two.pooled_windows);
        for jobs in [2u64, 3, 4] {
            let s = stats(jobs as usize);
            let without_lanes = |s: WindowStats| WindowStats { lane_tasks: 0, ..s };
            assert_eq!(without_lanes(s), without_lanes(two), "jobs={jobs}");
            assert!(
                s.lane_tasks <= s.components.min(jobs * s.pooled_windows),
                "jobs={jobs}: {s:?}"
            );
            // A pooled (non-forced) window has at least two components.
            assert!(s.lane_tasks >= 2 * s.pooled_windows, "jobs={jobs}: {s:?}");
        }
    }

    /// Starting the stamp epoch just below `u32::MAX` makes a forced
    /// run cross the wrap, where every stamp table is cleared once.
    #[test]
    fn epoch_wrap_matches_serial() {
        let (s, p, stats) = run_pair_with(8, 48, SimConfig::default(), |e| {
            e.set_engine_jobs_forced(2);
            e.par.as_mut().expect("installed").classify.epoch = NONE - 2;
        });
        assert!(stats.pooled_windows > 3, "run must cross the wrap");
        assert_eq!(s, p, "a run across the epoch wrap must be bit-identical");
    }

    /// Hundreds of multicasts on a 32×32 mesh: windows hold many
    /// conflict components, so each lane packs several of them.
    #[test]
    fn many_components_per_lane_match_serial() {
        for forced in [true, false] {
            for jobs in [2, 3, 4] {
                let (s, p, stats) =
                    run_pair_with(32, 300, SimConfig::default(), |e| install(e, jobs, forced));
                assert_eq!(s, p, "jobs={jobs} forced={forced} must be bit-identical");
                assert!(
                    stats.components >= 4 * stats.pooled_windows,
                    "jobs={jobs} forced={forced}: under 4 components per pooled window: {stats:?}"
                );
                assert!(stats.lane_tasks <= jobs as u64 * stats.pooled_windows);
            }
        }
    }

    #[test]
    fn engine_jobs_accessors() {
        let mesh = Mesh2D::new(4, 4);
        let mut e = Engine::new(Network::new(&mesh, 1), SimConfig::default());
        assert_eq!(e.engine_jobs(), 1);
        e.set_engine_jobs(4);
        assert_eq!(e.engine_jobs(), 4);
        e.set_engine_jobs(1);
        assert_eq!(e.engine_jobs(), 1);
        e.set_engine_jobs(0);
        assert_eq!(e.engine_jobs(), 1);
    }

    #[test]
    fn lookahead_floor() {
        let cfg = SimConfig::default();
        let env_t: Time = cfg.flit_time_ns().min(cfg.circuit_setup_ns).max(1);
        assert!(env_t >= 1);
    }
}
