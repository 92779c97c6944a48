//! Typed simulator errors.
//!
//! The engine's hot path keeps its documented-invariant panics (a
//! malformed plan is a caller bug), but fault-aware callers inject plans
//! onto degraded networks where a plan can *legitimately* be stale — a
//! channel it names may have died between planning and injection. Those
//! callers use [`crate::engine::Engine::inject_checked`], which reports a
//! [`SimError`] instead of panicking mid-simulation.

use mcast_topology::NodeId;
use std::fmt;

use crate::engine::MessageId;

/// An error surfaced by the simulator's fallible entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A plan names a `(from, to)` hop with no channel in the network
    /// (any class).
    UnknownChannel {
        /// Tail node of the missing channel.
        from: NodeId,
        /// Head node of the missing channel.
        to: NodeId,
    },
    /// A plan names a hop whose channels all died (the plan is stale
    /// with respect to the current fault state).
    DeadChannel {
        /// Tail node of the dead hop.
        from: NodeId,
        /// Head node of the dead hop.
        to: NodeId,
    },
    /// A plan worm has no hops (a path of fewer than two nodes or a tree
    /// with no edges).
    EmptyWorm,
    /// A staged worm's `after` list references itself or a later worm —
    /// dependencies must point strictly backwards in the plan.
    BadDependency {
        /// Index of the offending worm in the plan.
        worm: usize,
    },
    /// A plan worm has more edges than the engine's `u32` edge ids can
    /// number (`u32::MAX` is their "no edge" sentinel).
    WormTooLong {
        /// Index of the offending worm in the plan.
        worm: usize,
        /// Its edge count.
        edges: usize,
    },
    /// A plan lists a destination more than once (a hand-built
    /// [`crate::plan::DeliveryPlan`]; `MulticastSet::new` dedups).
    DuplicateDestination {
        /// The repeated destination.
        node: NodeId,
    },
    /// A plan names a destination that is not a node of the network.
    UnknownDestination {
        /// The out-of-range destination.
        node: NodeId,
    },
    /// The referenced message is not live in the engine (already
    /// completed, aborted, or never injected).
    MessageNotLive(MessageId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownChannel { from, to } => {
                write!(f, "no channel {from} -> {to} in the network")
            }
            SimError::DeadChannel { from, to } => {
                write!(f, "every channel {from} -> {to} is failed")
            }
            SimError::EmptyWorm => write!(f, "plan worm has no hops"),
            SimError::BadDependency { worm } => {
                write!(f, "staged worm {worm} depends on itself or a later worm")
            }
            SimError::WormTooLong { worm, edges } => {
                write!(
                    f,
                    "worm {worm} has {edges} edges, over the u32 edge-id limit"
                )
            }
            SimError::DuplicateDestination { node } => {
                write!(f, "plan lists destination {node} more than once")
            }
            SimError::UnknownDestination { node } => {
                write!(f, "destination {node} is not a node of the network")
            }
            SimError::MessageNotLive(id) => write!(f, "message {id} is not live"),
        }
    }
}

impl std::error::Error for SimError {}
