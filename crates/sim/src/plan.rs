//! Delivery plans: the bridge between the routing algorithms of
//! `mcast-core` and the worm mechanics of the engine.
//!
//! A plan fixes, before injection, the exact set of channels each message
//! copy will claim — matching the dissertation's distributed algorithms,
//! whose per-hop decisions depend only on the header's destination list
//! and are therefore fully determined at the source. Path plans spawn one
//! worm per path (multicast star); tree plans spawn one lock-step tree
//! worm per tree (multicast tree / the nCUBE-2 style of §6.1).

use mcast_core::dual_path::RouteScratch;
use mcast_core::model::{MulticastSet, PathRoute, TreeRoute};
use mcast_topology::NodeId;

/// Channel-class selection for one hop of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassChoice {
    /// Use exactly this class (e.g. a quadrant subnetwork's copy).
    Fixed(u8),
    /// Use any class; the engine picks an idle copy, else the
    /// shortest queue (deterministic tie-break toward class 0).
    Any,
}

/// One path worm: the node visiting sequence plus the class policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPath {
    /// Visited nodes, source first. A path of one node makes no worm.
    pub nodes: Vec<NodeId>,
    /// Channel-class policy for every hop.
    pub class: ClassChoice,
}

/// One tree worm: edges in parent-before-child order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTree {
    /// The root (source) node.
    pub root: NodeId,
    /// Edges `(from, to, class)`; every `from` is the root or appears as a
    /// `to` earlier in the list.
    pub edges: Vec<(NodeId, NodeId, ClassChoice)>,
}

/// A complete delivery plan for one multicast message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// The source node.
    pub source: NodeId,
    /// Destinations that must observe delivery.
    pub destinations: Vec<NodeId>,
    /// The worms to inject.
    pub worms: Vec<PlanWorm>,
}

/// One worm of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanWorm {
    /// A pipelined path worm (wormhole switching).
    Path(PlanPath),
    /// A lock-step replicated tree worm.
    Tree(PlanTree),
    /// A circuit-switched path (§2.2.3): the whole circuit is reserved by
    /// a control packet, hop by hop, before any data flit moves; channels
    /// release as the tail passes. Deadlock behaviour matches wormhole
    /// ("channels are the critical resources… the solution can also be
    /// applied to circuit switching", §2.3.4).
    Circuit(PlanPath),
    /// A path worm held at the source until other worms of the *same
    /// plan* complete — the engine-level primitive behind software
    /// collectives, where a relay may forward a message only after the
    /// round that delivered it to the relay has finished. A staged worm
    /// claims no channel and occupies no queue slot while held, so it
    /// cannot participate in deadlock before its dependencies retire.
    Staged(PlanStage),
}

/// A staged path worm: the path plus its intra-plan dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStage {
    /// Indices into the owning plan's `worms` that must complete before
    /// this worm starts requesting channels. Every index must refer to
    /// an *earlier* worm in the list (no forward or self dependencies).
    pub after: Vec<u32>,
    /// The path to follow once released.
    pub path: PlanPath,
}

impl DeliveryPlan {
    /// Builds a star plan (one worm per path) from path routes.
    pub fn from_paths(mc: &MulticastSet, paths: &[PathRoute], class: ClassChoice) -> Self {
        Self::build(mc, |arena, out| {
            for p in paths {
                arena.push_path(out, p.nodes().iter().copied(), class);
            }
        })
    }

    /// Builds a single-tree plan from a tree route. `class` applies to
    /// every edge.
    pub fn from_tree(mc: &MulticastSet, tree: &TreeRoute, class: ClassChoice) -> Self {
        Self::build(mc, |arena, out| arena.push_tree(out, tree, |_, _| class))
    }

    /// A fresh plan for `mc`, its worms appended by `fill` through a
    /// fresh arena.
    fn build(mc: &MulticastSet, fill: impl FnOnce(&mut PlanArena, &mut DeliveryPlan)) -> Self {
        let mut arena = PlanArena::new();
        let mut out = DeliveryPlan::default();
        arena.begin(mc, &mut out);
        fill(&mut arena, &mut out);
        out
    }

    /// Total channels claimed across all worms (the plan's traffic).
    pub fn traffic(&self) -> usize {
        self.worms.iter().map(PlanWorm::num_edges).sum()
    }
}

impl PlanWorm {
    /// Channels (edges) the worm claims: hops of a path, edges of a tree.
    pub fn num_edges(&self) -> usize {
        match self {
            PlanWorm::Path(p) | PlanWorm::Circuit(p) => p.nodes.len().saturating_sub(1),
            PlanWorm::Staged(s) => s.path.nodes.len().saturating_sub(1),
            PlanWorm::Tree(t) => t.edges.len(),
        }
    }
}

/// A reusable buffer pool for building `DeliveryPlan`s without
/// per-message allocation (DESIGN.md §16). `plan_into` starts its plan
/// with [`PlanArena::begin`], which returns the previous plan's buffers
/// to the pool, and appends worms whose buffers come from the pool, so
/// the pool never holds more than one plan's buffers and steady-state
/// plan construction of the label-routed schemes performs no heap
/// allocation once the pools warm up.
#[derive(Debug, Default)]
pub struct PlanArena {
    node_bufs: Vec<Vec<NodeId>>,
    edge_bufs: Vec<Vec<(NodeId, NodeId, ClassChoice)>>,
    dep_bufs: Vec<Vec<u32>>,
    scratch: RouteScratch,
}

impl PlanArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty node buffer from the pool (or allocates one).
    pub fn node_buf(&mut self) -> Vec<NodeId> {
        self.node_bufs.pop().unwrap_or_default()
    }

    /// Returns an unused node buffer to the pool.
    pub fn put_node_buf(&mut self, mut buf: Vec<NodeId>) {
        buf.clear();
        self.node_bufs.push(buf);
    }

    /// Takes an empty edge buffer from the pool (or allocates one).
    pub fn edge_buf(&mut self) -> Vec<(NodeId, NodeId, ClassChoice)> {
        self.edge_bufs.pop().unwrap_or_default()
    }

    /// Takes an empty staged-worm dependency buffer from the pool (or
    /// allocates one).
    pub fn dep_buf(&mut self) -> Vec<u32> {
        self.dep_bufs.pop().unwrap_or_default()
    }

    /// Runs `f` with the working buffers of the label-routed schemes,
    /// kept here so a `&mut PlanArena` is the only state `plan_into`
    /// needs. `f` gets the arena too, to append worms while routing.
    pub fn with_scratch<R>(&mut self, f: impl FnOnce(&mut Self, &mut RouteScratch) -> R) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = f(self, &mut scratch);
        self.scratch = scratch;
        r
    }

    /// Starts `out` as the plan for `mc`: recycles its buffers, then sets
    /// its source and destinations, with no worms yet.
    pub fn begin(&mut self, mc: &MulticastSet, out: &mut DeliveryPlan) {
        self.recycle(out);
        out.source = mc.source;
        out.destinations = self.node_buf();
        out.destinations.extend_from_slice(&mc.destinations);
    }

    /// Appends a path worm visiting `nodes` to `out`. A path of fewer
    /// than two nodes makes no worm.
    pub fn push_path(
        &mut self,
        out: &mut DeliveryPlan,
        nodes: impl IntoIterator<Item = NodeId>,
        class: ClassChoice,
    ) {
        let mut buf = self.node_buf();
        buf.extend(nodes);
        if buf.len() < 2 {
            self.put_node_buf(buf);
        } else {
            out.worms
                .push(PlanWorm::Path(PlanPath { nodes: buf, class }));
        }
    }

    /// Appends a tree worm for `tree` to `out`, edges in BFS order so
    /// parents precede children, each with class `class_of(from, to)`.
    /// A tree without edges makes no worm.
    pub fn push_tree<F>(&mut self, out: &mut DeliveryPlan, tree: &TreeRoute, mut class_of: F)
    where
        F: FnMut(NodeId, NodeId) -> ClassChoice,
    {
        if tree.traffic() == 0 {
            return;
        }
        let mut edges = self.edge_buf();
        let children = tree.children_map();
        let mut queue = std::collections::VecDeque::from([tree.root()]);
        while let Some(n) = queue.pop_front() {
            if let Some(kids) = children.get(&n) {
                for &c in kids {
                    edges.push((n, c, class_of(n, c)));
                    queue.push_back(c);
                }
            }
        }
        out.worms.push(PlanWorm::Tree(PlanTree {
            root: tree.root(),
            edges,
        }));
    }

    /// Returns every buffer inside `plan` to the pool, leaving the plan
    /// empty but with its `worms` capacity intact for reuse.
    pub fn recycle(&mut self, plan: &mut DeliveryPlan) {
        let mut dests = std::mem::take(&mut plan.destinations);
        dests.clear();
        self.node_bufs.push(dests);
        for worm in plan.worms.drain(..) {
            match worm {
                PlanWorm::Path(p) | PlanWorm::Circuit(p) => {
                    let mut nodes = p.nodes;
                    nodes.clear();
                    self.node_bufs.push(nodes);
                }
                PlanWorm::Staged(s) => {
                    let mut nodes = s.path.nodes;
                    nodes.clear();
                    self.node_bufs.push(nodes);
                    let mut after = s.after;
                    after.clear();
                    self.dep_bufs.push(after);
                }
                PlanWorm::Tree(t) => {
                    let mut edges = t.edges;
                    edges.clear();
                    self.edge_bufs.push(edges);
                }
            }
        }
    }

    /// Number of pooled buffers (diagnostic; bounds allocation churn).
    pub fn pooled(&self) -> usize {
        self.node_bufs.len() + self.edge_bufs.len() + self.dep_bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_plan_edges_parent_first() {
        let mut t = TreeRoute::new(4);
        t.attach(4, 1);
        t.attach(1, 0);
        t.attach(4, 5);
        t.attach(5, 6);
        let mc = MulticastSet::new(4, [0, 6]);
        let plan = DeliveryPlan::from_tree(&mc, &t, ClassChoice::Fixed(0));
        let PlanWorm::Tree(pt) = &plan.worms[0] else {
            panic!("tree expected")
        };
        assert_eq!(pt.edges.len(), 4);
        // Every from is root or an earlier to.
        let mut seen = vec![pt.root];
        for &(f, to, _) in &pt.edges {
            assert!(seen.contains(&f), "edge {f}->{to} before its parent");
            seen.push(to);
        }
        assert_eq!(plan.traffic(), 4);
    }

    #[test]
    fn arena_recycles_every_buffer() {
        let mut arena = PlanArena::new();
        let mc = MulticastSet::new(0, [2, 3]);
        let paths = vec![PathRoute::new(vec![0, 1, 2]), PathRoute::new(vec![0, 3])];
        let mut plan = DeliveryPlan::from_paths(&mc, &paths, ClassChoice::Any);
        let mut t = TreeRoute::new(0);
        t.attach(0, 1);
        arena.push_tree(&mut plan, &t, |_, _| ClassChoice::Any);
        arena.recycle(&mut plan);
        // destinations + two path node buffers + one tree edge buffer.
        assert_eq!(arena.pooled(), 4);
        assert!(plan.worms.is_empty());
        assert!(plan.destinations.is_empty());
        // Buffers come back empty and are reused, not reallocated.
        let b = arena.node_buf();
        assert!(b.is_empty() && b.capacity() > 0);
    }

    #[test]
    fn path_plan_skips_empty_paths() {
        let mc = MulticastSet::new(0, [2]);
        let paths = vec![PathRoute::new(vec![0, 1, 2]), PathRoute::new(vec![0])];
        let plan = DeliveryPlan::from_paths(&mc, &paths, ClassChoice::Any);
        assert_eq!(plan.worms.len(), 1);
        assert_eq!(plan.traffic(), 2);
    }
}
