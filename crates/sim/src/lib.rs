//! A flit-level discrete-event simulator for wormhole-routed
//! multicomputer networks — the substrate for the dynamic performance
//! study of Chapter 7 (the dissertation used C + CSIM; this crate is the
//! from-scratch Rust equivalent, see DESIGN.md §2).
//!
//! * [`network`]: the channel fabric (single- or double-channel);
//! * [`plan`]: delivery plans bridging `mcast-core` routes to worms;
//! * [`engine`]: the event engine — per-flit channel transfers, FIFO
//!   channel queues, pipelined path worms and lock-step tree worms,
//!   destination delivery tracking and deadlock observation;
//! * [`routers`]: plan factories for every Chapter 6/7 routing scheme;
//! * [`registry`]: the data-driven (topology, scheme) → router
//!   resolution layer — [`TopoSpec`] + [`SchemeId`] → boxed routers;
//! * [`deadlock`]: closed-scenario replays of the §6.1 deadlock
//!   configurations.
//!
//! Observability: [`Engine::set_sink`] installs an `mcast-obs` sink
//! (re-exported here as [`obs`]) that receives typed [`obs::SimEvent`]s
//! — flit hops, channel acquire/block/release, message lifecycle, and
//! recovery transitions — without perturbing simulation results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod deadlock;
pub mod diagnose;
pub mod engine;
mod equeue;
pub mod error;
pub mod network;
pub mod plan;
pub mod recovery;
pub mod reference;
pub mod registry;
pub mod routers;
pub mod switching;
pub mod topograph;

pub use mcast_obs as obs;

pub use collectives::{CollectiveKind, CollectiveRouter, DpmRouter, UnicastRouting};
pub use engine::{AbortedMessage, CompletedMessage, Engine, MessageId, RunBudget, SimConfig, Time};
pub use error::SimError;
pub use network::{ChannelId, Network};
pub use plan::{ClassChoice, DeliveryPlan, PlanArena, PlanPath, PlanStage, PlanTree, PlanWorm};
pub use recovery::{
    AbortReason, FaultDualPathRouter, FaultMultiPathRouter, FaultMulticastRouter, FaultPlan,
    MessageOutcome, ObliviousRouter, RecoveryEngine, RecoveryEvent, RecoveryPolicy, RecoveryStats,
};
pub use reference::ReferenceEngine;
pub use registry::{
    build_fault_router, build_route, build_router, scheme_deadlock_free, schemes_for, BuiltTopo,
    RegistryError, RoutePlan, SchemeId, SchemeInfo, TopoSpec,
};
pub use routers::MulticastRouter;
pub use topograph::{
    load_custom, parse_graph_dot, parse_graph_json, IngestError, UpDownMulticastRouter,
    UpDownTreeRouter,
};
